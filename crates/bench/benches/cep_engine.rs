//! Criterion microbenchmarks for the CEP engine hot path — the real
//! measurements behind Function 1 (per-tuple latency vs window length and
//! threshold count) and Function 2 (multi-rule engines).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tms_bench::calibrate::{store_with_thresholds, synthetic_trace as trace, WarmStatement};
use tms_core::rules::{LocationSelector, RuleSpec};
use tms_core::thresholds::{RetrievalMethod, RuleEngine};
use tms_traffic::{Attribute, LocId};

fn engine_with(windows: &[usize], locations: usize) -> (RuleEngine, Vec<LocId>) {
    let (store, names) = store_with_thresholds(locations * 48);
    let mut engine = RuleEngine::new(RetrievalMethod::ThresholdStream, store, None);
    for (i, &l) in windows.iter().enumerate() {
        let mut spec = rule_spec(i, l);
        spec.s = 0.0;
        engine.install_rule(&spec, names.iter().map(LocId::to_string)).unwrap();
    }
    // Fill the windows.
    let warm = windows.iter().copied().max().unwrap_or(1).min(1000) * locations.min(20);
    for i in 0..warm {
        engine.send_trace(&trace(i, names[i % names.len()])).unwrap();
    }
    (engine, names)
}

fn rule_spec(i: usize, l: usize) -> RuleSpec {
    RuleSpec::new(
        format!("bench-{i}-l{l}"),
        Attribute::Delay,
        LocationSelector::QuadtreeLeaves,
        l,
    )
}

/// Function 1's first input: per-tuple cost vs window length.
fn bench_window_length(c: &mut Criterion) {
    let mut group = c.benchmark_group("cep/send_trace_by_window");
    for l in [1usize, 10, 100, 1000] {
        let (mut engine, names) = engine_with(&[l], 10);
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(l), &l, |b, _| {
            b.iter(|| {
                i += 1;
                engine.send_trace(black_box(&trace(i, names[i % names.len()]))).unwrap()
            })
        });
    }
    group.finish();
}

/// Function 1's second input: per-tuple cost vs threshold count.
fn bench_threshold_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("cep/send_trace_by_thresholds");
    for locations in [1usize, 10, 50] {
        let (mut engine, names) = engine_with(&[100], locations);
        let mut i = 0usize;
        group.bench_with_input(
            BenchmarkId::from_parameter(locations * 48),
            &locations,
            |b, _| {
                b.iter(|| {
                    i += 1;
                    engine.send_trace(black_box(&trace(i, names[i % names.len()]))).unwrap()
                })
            },
        );
    }
    group.finish();
}

/// Function 2: per-tuple cost vs rule count.
fn bench_rule_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("cep/send_trace_by_rules");
    for rules in [1usize, 2, 5, 10] {
        let (mut engine, names) = engine_with(&vec![100; rules], 10);
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(rules), &rules, |b, _| {
            b.iter(|| {
                i += 1;
                engine.send_trace(black_box(&trace(i, names[i % names.len()]))).unwrap()
            })
        });
    }
    group.finish();
}

/// Ablation: the delta-maintained incremental evaluation path vs the
/// full-window rescan. A single grouped avg+stddev statement over
/// `win:length(100)` — the rescan arm walks all 100 window events and
/// rebuilds every group's accumulators per tuple, while the incremental
/// arm applies the insert/evict delta in O(1).
fn bench_incremental_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("cep/incremental_ablation");
    for (name, enabled) in [("incremental", true), ("rescan", false)] {
        let mut statement = WarmStatement::new(enabled);
        group.bench_function(name, |b| b.iter(|| statement.send()));
    }
    group.finish();
}

/// EPL front-end: parsing + compiling a Listing 1 statement.
fn bench_statement_compile(c: &mut Criterion) {
    let epl = rule_spec(0, 100).to_epl();
    c.bench_function("cep/parse_statement", |b| {
        b.iter(|| tms_cep::parse_statement(black_box(&epl)).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_window_length, bench_threshold_count, bench_rule_count, bench_incremental_ablation, bench_statement_compile
}
criterion_main!(benches);
