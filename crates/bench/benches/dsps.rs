//! Criterion benchmarks for the DSPS data plane: tuples/second through a
//! two-stage topology for each grouping, with and without the acker.
//!
//! The matching experiment snapshot (`experiments -- dsps_throughput`)
//! writes `BENCH_dsps_throughput.json`; this bench is criterion's view
//! of the same pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tms_bench::dataplane::sink_topology_secs;
use tms_dsps::runtime::{ReliabilityConfig, RuntimeConfig};

const TUPLES: u64 = 4000;

/// One spout task fanning into four sink tasks; returns after the
/// topology drains all [`TUPLES`] emissions.
fn run_once(g: &str, reliable: bool) {
    let cfg = RuntimeConfig {
        reliability: reliable.then(ReliabilityConfig::default),
        ..RuntimeConfig::default()
    };
    sink_topology_secs(TUPLES, g, cfg);
}

fn bench_emit_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("dsps/emit_throughput");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for g in ["shuffle", "fields", "all"] {
        for (rel_name, reliable) in [("at_most_once", false), ("at_least_once", true)] {
            group.bench_function(BenchmarkId::new(g, rel_name), |b| {
                b.iter(|| run_once(g, reliable))
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().warm_up_time(Duration::from_millis(500));
    targets = bench_emit_throughput
}
criterion_main!(benches);
