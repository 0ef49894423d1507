//! Differential property tests against the full-window rescan, the
//! reference semantics. Every other path must emit byte-identical
//! `OutputRow` sequences: a single-source aggregate served from its
//! window's panes, the anchor fast path, and the Listing-1 family served
//! from shared pane banks and threshold indexes — for random event streams
//! over random window specs, including empty-window starts, filtered-out
//! events, and all-evicted time windows.
//!
//! Delays are integer-valued so sum/sum_sq arithmetic is exact in f64 and
//! subtract-on-evict matches recompute-from-scratch bit-for-bit. The drift
//! tests at the end bound the difference on non-integer samples.

use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;
use tms_cep::engine::Listener;
use tms_cep::{Engine, EventType, FieldType, FieldValue, OutputRow};

const LOCATIONS: [&str; 3] = ["R1", "R2", "R3"];

/// One step of the driving script: an event, or a time advance.
#[derive(Debug, Clone)]
enum Step {
    Event { loc: usize, delay: i64, dt_ms: u64 },
    Advance { jump_ms: u64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0usize..5, 0usize..3, 0i64..12, 0u64..1500).prop_map(|(kind, loc, delay, dt)| {
        if kind == 4 {
            // 1-in-5 steps advances time without an arrival, far enough to
            // drain a whole `win:time` window now and then.
            Step::Advance { jump_ms: 500 + dt * 4 }
        } else {
            Step::Event { loc, delay, dt_ms: dt }
        }
    })
}

/// The window views under test, substituted into each statement.
const VIEWS: [&str; 5] = [
    "win:length(4)",
    "win:time(2)",
    "std:groupwin(location).win:length(3)",
    "win:length_batch(3)",
    "std:unique(location)",
];

fn bus_type() -> EventType {
    EventType::with_fields(
        "bus",
        &[
            ("vehicle", FieldType::Int),
            ("location", FieldType::Str),
            ("delay", FieldType::Float),
        ],
    )
    .unwrap()
}

fn capture() -> (Arc<Mutex<Vec<OutputRow>>>, Listener) {
    let sink: Arc<Mutex<Vec<OutputRow>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = sink.clone();
    let listener: Listener = Box::new(move |_, rows| s2.lock().extend(rows.iter().cloned()));
    (sink, listener)
}

/// Builds one engine with five statement shapes over `view`: filtered
/// grouped aggregation with min/max (always a rescan), ungrouped
/// sum/stddev (exercises empty-aggregate skips; pane-served over an
/// ungrouped sliding window), a non-aggregated filter (exercises the
/// anchor fast path), unfiltered aggregation grouped by location
/// (pane-served over `std:groupwin(location)`, where evicted extrema are
/// recomputed from the pane), and the same with a HAVING that reads a bare
/// field of the group's last row (pane-served, binding built first).
fn build(view: &str, incremental: bool) -> (Engine, Vec<Arc<Mutex<Vec<OutputRow>>>>) {
    let mut e = Engine::new();
    e.register_type(bus_type()).unwrap();
    e.set_incremental_enabled(incremental).unwrap();
    let statements = [
        format!(
            "SELECT w.location AS loc, avg(w.delay) AS m, min(w.delay) AS lo, \
             max(w.delay) AS hi, count(*) AS n \
             FROM bus.{view} AS w WHERE w.delay >= 2 \
             GROUP BY w.location HAVING count(*) >= 1"
        ),
        format!("SELECT sum(w.delay) AS s, stddev(w.delay) AS sd FROM bus.{view} AS w"),
        format!("SELECT vehicle, delay FROM bus.{view} WHERE delay > 6"),
        format!(
            "SELECT w.location AS loc, avg(w.delay) AS m, min(w.delay) AS lo, \
             max(w.delay) AS hi, count(*) AS n FROM bus.{view} AS w GROUP BY w.location"
        ),
        format!(
            "SELECT w.location AS loc, avg(w.delay) AS m FROM bus.{view} AS w \
             GROUP BY w.location HAVING w.delay > 6 OR avg(w.delay) > 8"
        ),
    ];
    let mut sinks = Vec::new();
    for epl in &statements {
        let (sink, l) = capture();
        e.create_statement(epl, l).unwrap();
        sinks.push(sink);
    }
    (e, sinks)
}

fn run_script(view: &str, steps: &[Step]) {
    let (mut fast, fast_sinks) = build(view, true);
    let (mut slow, slow_sinks) = build(view, false);
    let mut now = 0u64;
    let mut vehicle = 0i64;
    for step in steps {
        match step {
            Step::Event { loc, delay, dt_ms } => {
                now += dt_ms;
                vehicle += 1;
                for eng in [&mut fast, &mut slow] {
                    let ev = eng
                        .make_event(
                            "bus",
                            now,
                            &[
                                ("vehicle", vehicle.into()),
                                ("location", LOCATIONS[*loc].into()),
                                ("delay", (*delay as f64).into()),
                            ],
                        )
                        .unwrap();
                    eng.send_event(ev).unwrap();
                }
            }
            Step::Advance { jump_ms } => {
                now += jump_ms;
                fast.advance_time(now);
                slow.advance_time(now);
            }
        }
    }
    for (i, (f, s)) in fast_sinks.iter().zip(&slow_sinks).enumerate() {
        assert_eq!(
            *f.lock(),
            *s.lock(),
            "statement {i} diverged between incremental and rescan on view {view}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_matches_rescan(
        view_idx in 0usize..VIEWS.len(),
        steps in proptest::collection::vec(step_strategy(), 0..60),
    ) {
        run_script(VIEWS[view_idx], &steps);
    }
}

// ---------------------------------------------------------------------------
// Shared-evaluation differential: shared ≡ unshared ≡ rescan on randomized
// multi-rule workloads over the Listing-1 family (three- and two-source)
// ---------------------------------------------------------------------------

/// Pane views for the grouped source of a Listing-1 join. `length(1)` is
/// deliberate: every arrival empties and refills its group, the bank's
/// drop-and-recreate edge.
const JOIN_VIEWS: [&str; 5] =
    ["win:length(1)", "win:length(3)", "win:length(5)", "win:time(2)", "win:keepall()"];

const DAYS: [&str; 2] = ["weekday", "weekend"];

/// One randomized rule of the Listing-1 family: form × pane view × group
/// key × select list × HAVING shape. Same (view, group) pairs cluster;
/// different pairs keep private panes but still share the lastevent (and
/// keepall) slots.
///
/// `form` picks the sources: 0 is the three-source threshold join; 1–3
/// are the two-source forms `RuleSpec` generates for the other retrieval
/// methods — no HAVING, a literal HAVING (`to_epl_global`), and a literal
/// HAVING behind source-0 filters on location/hour/day (`to_epl_static`).
#[derive(Debug, Clone)]
struct JoinRule {
    form: usize,
    view: usize,
    group: usize,
    sel: usize,
    having: usize,
}

fn join_rule_strategy() -> impl Strategy<Value = JoinRule> {
    (0usize..4, 0usize..JOIN_VIEWS.len(), 0usize..2, 0usize..4, 0usize..3).prop_map(
        |(form, view, group, sel, having)| JoinRule { form, view, group, sel, having },
    )
}

fn join_epl(r: &JoinRule) -> String {
    let g = ["location", "day"][r.group];
    let view = JOIN_VIEWS[r.view];
    let sel = match r.sel {
        0 => "avg(bd2.delay) AS m",
        1 => "avg(bd2.delay) AS m, count(*) AS n",
        2 => "avg(bd2.delay) AS m, sum(bd2.delay) AS s, min(bd2.delay) AS lo",
        _ => "avg(bd2.delay) AS m, max(bd2.delay) AS hi, stddev(bd2.delay) AS sd",
    };
    if r.form > 0 {
        let filters = if r.form == 3 {
            format!(
                "bd.location = '{}' AND bd.hour = 8 AND bd.day = '{}' AND ",
                LOCATIONS[r.having],
                DAYS[r.sel % 2]
            )
        } else {
            String::new()
        };
        let having = if r.form == 1 { "" } else { " HAVING avg(bd2.delay) > 4" };
        return format!(
            "SELECT bd2.{g} AS k, {sel} \
             FROM bus.std:lastevent() AS bd, bus.std:groupwin({g}).{view} AS bd2 \
             WHERE {filters}bd.{g} = bd2.{g} GROUP BY bd2.{g}{having}"
        );
    }
    let having = match r.having {
        0 => "",
        1 => " HAVING avg(bd2.delay) > avg(thresholds.attribute)",
        _ => " HAVING avg(bd2.delay) > min(thresholds.attribute)",
    };
    // Both variants keep every step-2 key on the anchor source and a
    // single anchor↔pane key, matching the shared-join shape. The two
    // group keys produce *different* threshold-index key sets over the
    // same keepall slot.
    let keys = if r.group == 0 {
        "bd.hour = thresholds.hour AND bd.day = thresholds.day \
         AND bd.location = thresholds.location AND bd.location = bd2.location"
    } else {
        "bd.hour = thresholds.hour AND bd.day = thresholds.day AND bd.day = bd2.day"
    };
    format!(
        "SELECT bd2.{g} AS k, {sel} \
         FROM bus.std:lastevent() AS bd, \
              bus.std:groupwin({g}).{view} AS bd2, \
              thresholdLocation.win:keepall() AS thresholds \
         WHERE {keys} GROUP BY bd2.{g}{having}"
    )
}

/// A join-workload step: a bus arrival, a mid-stream threshold arrival,
/// a time advance (drains `win:time` panes), or a `set_sharing_enabled`
/// flip of the shared engine (banks rebuilt from, or dropped over, live
/// windows).
#[derive(Debug, Clone)]
enum JoinStep {
    Bus { loc: usize, day: usize, delay: i64, dt_ms: u64 },
    Threshold { loc: usize, day: usize, attr: i64, dt_ms: u64 },
    Advance { jump_ms: u64 },
    FlipSharing,
}

fn join_step_strategy() -> impl Strategy<Value = JoinStep> {
    (0usize..13, 0usize..3, 0usize..2, 0i64..12, 0u64..900).prop_map(
        |(kind, loc, day, val, dt)| match kind {
            0..=5 => JoinStep::Bus { loc, day, delay: val, dt_ms: dt },
            6..=9 => JoinStep::Threshold { loc, day, attr: val, dt_ms: dt },
            10 | 11 => JoinStep::Advance { jump_ms: 500 + dt * 4 },
            _ => JoinStep::FlipSharing,
        },
    )
}

fn join_bus_type() -> EventType {
    EventType::with_fields(
        "bus",
        &[
            ("vehicle", FieldType::Int),
            ("location", FieldType::Str),
            ("delay", FieldType::Float),
            ("hour", FieldType::Int),
            ("day", FieldType::Str),
        ],
    )
    .unwrap()
}

fn threshold_type() -> EventType {
    EventType::with_fields(
        "thresholdLocation",
        &[
            ("location", FieldType::Str),
            ("hour", FieldType::Int),
            ("day", FieldType::Str),
            ("attribute", FieldType::Float),
        ],
    )
    .unwrap()
}

fn build_joins(
    rules: &[JoinRule],
    sharing: bool,
    incremental: bool,
) -> (Engine, Vec<Arc<Mutex<Vec<OutputRow>>>>) {
    let mut e = Engine::new();
    e.register_type(join_bus_type()).unwrap();
    e.register_type(threshold_type()).unwrap();
    e.set_sharing_enabled(sharing).unwrap();
    e.set_incremental_enabled(incremental).unwrap();
    let mut sinks = Vec::new();
    for r in rules {
        let (sink, l) = capture();
        e.create_statement(&join_epl(r), l).unwrap();
        sinks.push(sink);
    }
    (e, sinks)
}

fn run_join_script(rules: &[JoinRule], steps: &[JoinStep]) {
    let mut engines = [
        build_joins(rules, true, true),   // shared
        build_joins(rules, false, true),  // unshared, incremental paths on
        build_joins(rules, false, false), // rescan
    ];
    let mut now = 0u64;
    let mut vehicle = 0i64;
    for step in steps {
        match step {
            JoinStep::Bus { loc, day, delay, dt_ms } => {
                now += dt_ms;
                vehicle += 1;
                for (eng, _) in engines.iter_mut() {
                    let ev = eng
                        .make_event(
                            "bus",
                            now,
                            &[
                                ("vehicle", vehicle.into()),
                                ("location", LOCATIONS[*loc].into()),
                                ("delay", (*delay as f64).into()),
                                ("hour", 8i64.into()),
                                ("day", DAYS[*day].into()),
                            ],
                        )
                        .unwrap();
                    eng.send_event(ev).unwrap();
                }
            }
            JoinStep::Threshold { loc, day, attr, dt_ms } => {
                now += dt_ms;
                for (eng, _) in engines.iter_mut() {
                    let ev = eng
                        .make_event(
                            "thresholdLocation",
                            now,
                            &[
                                ("location", LOCATIONS[*loc].into()),
                                ("hour", 8i64.into()),
                                ("day", DAYS[*day].into()),
                                ("attribute", (*attr as f64).into()),
                            ],
                        )
                        .unwrap();
                    eng.send_event(ev).unwrap();
                }
            }
            JoinStep::Advance { jump_ms } => {
                now += jump_ms;
                for (eng, _) in engines.iter_mut() {
                    eng.advance_time(now);
                }
            }
            JoinStep::FlipSharing => {
                let shared = &mut engines[0].0;
                shared.set_sharing_enabled(!shared.sharing_enabled()).unwrap();
            }
        }
    }
    let (_, shared_sinks) = &engines[0];
    for (mode, (_, sinks)) in [(1usize, &engines[1]), (2, &engines[2])] {
        let name = ["shared", "unshared", "rescan"][mode];
        for (i, (a, b)) in shared_sinks.iter().zip(sinks.iter()).enumerate() {
            assert_eq!(
                *a.lock(),
                *b.lock(),
                "rule {i} ({:?}) diverged between shared and {name}",
                rules[i]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shared_matches_unshared_and_rescan(
        rules in proptest::collection::vec(join_rule_strategy(), 1..5),
        steps in proptest::collection::vec(join_step_strategy(), 0..60),
    ) {
        run_join_script(&rules, &steps);
    }
}

#[test]
fn overlapping_and_disjoint_rules_agree_across_modes() {
    // Two rules share (view, group) exactly, one overlaps on the group key
    // only, one is fully disjoint — a fixed regression script on top of
    // the randomized property.
    let rules = [
        JoinRule { form: 0, view: 1, group: 0, sel: 0, having: 1 },
        JoinRule { form: 0, view: 1, group: 0, sel: 2, having: 0 },
        JoinRule { form: 0, view: 2, group: 0, sel: 1, having: 2 },
        JoinRule { form: 0, view: 4, group: 1, sel: 3, having: 1 },
    ];
    let steps = [
        JoinStep::Threshold { loc: 0, day: 0, attr: 3, dt_ms: 5 },
        JoinStep::Bus { loc: 0, day: 0, delay: 7, dt_ms: 5 },
        JoinStep::Bus { loc: 0, day: 0, delay: 2, dt_ms: 5 },
        JoinStep::Threshold { loc: 0, day: 0, attr: 9, dt_ms: 5 },
        JoinStep::Bus { loc: 1, day: 1, delay: 5, dt_ms: 5 },
        JoinStep::Bus { loc: 0, day: 0, delay: 11, dt_ms: 5 },
        JoinStep::Advance { jump_ms: 5_000 },
        JoinStep::Bus { loc: 0, day: 0, delay: 4, dt_ms: 5 },
    ];
    run_join_script(&rules, &steps);
}

#[test]
fn two_source_forms_agree_across_modes_and_sharing_flips() {
    // The three two-source forms next to a three-source rule on the same
    // pane: one bank serves all four, through a flip off and back on with
    // the pane mid-eviction.
    let rules = [
        JoinRule { form: 1, view: 1, group: 0, sel: 3, having: 0 },
        JoinRule { form: 2, view: 1, group: 0, sel: 2, having: 0 },
        JoinRule { form: 3, view: 1, group: 0, sel: 1, having: 0 },
        JoinRule { form: 0, view: 1, group: 0, sel: 0, having: 1 },
        JoinRule { form: 2, view: 0, group: 1, sel: 1, having: 0 },
    ];
    let steps = [
        JoinStep::Threshold { loc: 0, day: 0, attr: 3, dt_ms: 5 },
        JoinStep::Bus { loc: 0, day: 0, delay: 7, dt_ms: 5 },
        JoinStep::Bus { loc: 0, day: 1, delay: 2, dt_ms: 5 },
        JoinStep::Bus { loc: 1, day: 1, delay: 9, dt_ms: 5 },
        JoinStep::Bus { loc: 0, day: 1, delay: 11, dt_ms: 5 },
        JoinStep::FlipSharing,
        JoinStep::Bus { loc: 0, day: 0, delay: 6, dt_ms: 5 },
        JoinStep::Bus { loc: 0, day: 1, delay: 1, dt_ms: 5 },
        JoinStep::FlipSharing,
        JoinStep::Bus { loc: 0, day: 0, delay: 8, dt_ms: 5 },
        JoinStep::Advance { jump_ms: 5_000 },
        JoinStep::Bus { loc: 0, day: 0, delay: 3, dt_ms: 5 },
        JoinStep::Bus { loc: 1, day: 1, delay: 5, dt_ms: 5 },
    ];
    run_join_script(&rules, &steps);
}

#[test]
fn empty_stream_produces_nothing_on_both_paths() {
    run_script("win:length(4)", &[]);
}

#[test]
fn all_evicted_time_window_matches() {
    // Fill a time window, drain it entirely via advance_time, refill: the
    // pane aggregates must come back from empty exactly like a rescan.
    let steps = [
        Step::Event { loc: 0, delay: 5, dt_ms: 10 },
        Step::Event { loc: 1, delay: 9, dt_ms: 10 },
        Step::Advance { jump_ms: 60_000 },
        Step::Event { loc: 0, delay: 3, dt_ms: 10 },
        Step::Event { loc: 0, delay: 11, dt_ms: 10 },
    ];
    run_script("win:time(2)", &steps);
}

#[test]
fn extremum_eviction_repairs_min_max() {
    // The max (11) slides out of a length-3 window while smaller values
    // survive — a pane-served aggregate must recompute the extremum.
    let steps = [
        Step::Event { loc: 0, delay: 11, dt_ms: 1 },
        Step::Event { loc: 0, delay: 2, dt_ms: 1 },
        Step::Event { loc: 0, delay: 7, dt_ms: 1 },
        Step::Event { loc: 0, delay: 3, dt_ms: 1 }, // evicts 11
        Step::Event { loc: 0, delay: 4, dt_ms: 1 }, // evicts 2 (the min)
    ];
    for view in ["win:length(3)", "std:groupwin(location).win:length(3)"] {
        run_script(view, &steps);
    }
}

// ---------------------------------------------------------------------------
// Drift bound: pane-served ≈ rescan on non-integer samples
// ---------------------------------------------------------------------------

/// One three-source rule over `win:length(len)` without HAVING; the one
/// threshold row [`drift_engines`] sends matches (join multiplicity 1 —
/// the same bank arithmetic as the two-source forms).
fn listing1_drift_epl(len: usize) -> String {
    format!(
        "SELECT sum(bd2.delay) AS s, avg(bd2.delay) AS m, stddev(bd2.delay) AS sd \
         FROM bus.std:lastevent() AS bd, \
              bus.std:groupwin(location).win:length({len}) AS bd2, \
              thresholdLocation.win:keepall() AS thresholds \
         WHERE bd.location = thresholds.location AND bd.location = bd2.location \
         GROUP BY bd2.location"
    )
}

/// The same aggregates as a single-source statement over the pane itself.
fn single_drift_epl(len: usize) -> String {
    format!(
        "SELECT sum(w.delay) AS s, avg(w.delay) AS m, stddev(w.delay) AS sd \
         FROM bus.std:groupwin(location).win:length({len}) AS w GROUP BY w.location"
    )
}

/// A pane-served and a rescan engine holding `epl`, and one threshold row
/// for R1.
fn drift_engines(epl: &str) -> [(Engine, Arc<Mutex<Vec<OutputRow>>>); 2] {
    [true, false].map(|banked| {
        let mut eng = Engine::new();
        eng.register_type(join_bus_type()).unwrap();
        eng.register_type(threshold_type()).unwrap();
        eng.set_sharing_enabled(banked).unwrap();
        eng.set_incremental_enabled(banked).unwrap();
        let (sink, l) = capture();
        eng.create_statement(epl, l).unwrap();
        let threshold = eng
            .make_event(
                "thresholdLocation",
                0,
                &[
                    ("location", "R1".into()),
                    ("hour", 8i64.into()),
                    ("day", "weekday".into()),
                    ("attribute", 1.0.into()),
                ],
            )
            .unwrap();
        eng.send_event(threshold).unwrap();
        (eng, sink)
    })
}

fn send_delay(eng: &mut Engine, ts: u64, delay: f64) {
    let ev = eng
        .make_event(
            "bus",
            ts,
            &[
                ("vehicle", 1i64.into()),
                ("location", "R1".into()),
                ("delay", delay.into()),
                ("hour", 8i64.into()),
                ("day", "weekday".into()),
            ],
        )
        .unwrap();
    eng.send_event(ev).unwrap();
}

fn float_column(row: &OutputRow, col: &str) -> f64 {
    match row.get(col) {
        Some(FieldValue::Float(v)) => *v,
        other => panic!("{col} is not a float: {other:?}"),
    }
}

/// Feeds one group's non-integer delays through a pane-served and a
/// rescan engine holding `epl` (an aggregate over
/// `std:groupwin(location).win:length(len)`), and checks every fired row
/// against the bound below.
///
/// Let ε = `f64::EPSILON`, L the pane length and M the largest |sample|
/// among the group's last 2L arrivals. The bank recomputes a group from
/// its pane once its evictions since the last recompute reach its row
/// count, so its `sum` is the result of fewer than 3L additions and
/// subtractions (≤ L for the recompute, < L evictions and as many
/// insertions since) over partial sums of at most (L+1)·M, all on samples
/// from those 2L arrivals: it is within 3L(L+1)·M·ε/2 of the exact sum.
/// The rescan's L−1 additions put it within (L−1)L·M·ε/2. Hence, with
/// E = 4L²ε:
///
/// * |Δsum| ≤ E·M, and |Δavg| ≤ E·M (one more division, n ≥ 2);
/// * `sum_sq` likewise within E·M², so the variance numerator
///   `sum_sq − sum²/n` differs by at most E·M² + 2E·M² + the formula's own
///   roundings (< E·M²), the variance by < 5E·M², and — since
///   |√a − √b| ≤ √|a − b| — |Δstddev| ≤ M·√(5E).
///
/// Without a recompute the residue of a sample that left the pane long
/// ago stays in `sum`/`sum_sq` until the group empties, and the bound
/// (which only knows the last 2L samples) fails after the first spike.
fn run_drift_script(epl: &str, len: usize, samples: &[f64]) {
    let [(mut banked, got), (mut rescan, want)] = drift_engines(epl);
    let e = 4.0 * (len * len) as f64 * f64::EPSILON;
    for (i, &delay) in samples.iter().enumerate() {
        send_delay(&mut banked, i as u64, delay);
        send_delay(&mut rescan, i as u64, delay);
        let (got, want) = (got.lock(), want.lock());
        assert_eq!(got.len(), want.len(), "fired-row counts diverged at arrival {i}");
        let (Some(got), Some(want)) = (got.last(), want.last()) else { continue };
        let recent = &samples[(i + 1).saturating_sub(2 * len)..=i];
        let m = recent.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        for (col, bound) in [("s", e * m), ("m", e * m), ("sd", m * (5.0 * e).sqrt())] {
            let delta = (float_column(got, col) - float_column(want, col)).abs();
            assert!(
                delta <= bound,
                "arrival {i}, {col}: |bank − rescan| = {delta} > {bound} (L={len}, M={m})"
            );
        }
    }
}

/// Non-representable fractions in [0, 127); one sample in twelve is a
/// spike nine orders of magnitude above the rest.
fn spiky_samples(raw: &[(u32, usize)]) -> Vec<f64> {
    raw.iter().map(|&(x, spike)| x as f64 / 7919.0 * if spike == 0 { 1e9 } else { 1.0 }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bank_drift_on_non_integer_samples_stays_within_the_stated_bound(
        len in 2usize..9,
        raw in proptest::collection::vec((0u32..1_000_000, 0usize..12), 0..200),
    ) {
        run_drift_script(&listing1_drift_epl(len), len, &spiky_samples(&raw));
    }

    #[test]
    fn single_source_pane_drift_stays_within_the_stated_bound(
        len in 2usize..9,
        raw in proptest::collection::vec((0u32..1_000_000, 0usize..12), 0..200),
    ) {
        run_drift_script(&single_drift_epl(len), len, &spiky_samples(&raw));
    }
}

#[test]
fn bank_is_exact_again_after_every_eviction_count_recompute() {
    // Alternating signs with growing amplitude: the evicted sample is
    // never the pane's min or max, so only the eviction count can trigger
    // a recompute. With L = 4 that is every third eviction, after which
    // the bank's sums are the rescan's bit for bit — so no three
    // consecutive arrivals may all differ.
    const LEN: usize = 4;
    let [(mut banked, got), (mut rescan, want)] = drift_engines(&listing1_drift_epl(LEN));
    let mut differing_run = 0;
    for i in 0..400u64 {
        let delay = (0.1 + 0.37 * i as f64) * if i % 2 == 0 { 1.0 } else { -1.0 };
        send_delay(&mut banked, i, delay);
        send_delay(&mut rescan, i, delay);
        let (got, want) = (got.lock(), want.lock());
        if got.last() == want.last() {
            differing_run = 0;
        } else {
            differing_run += 1;
        }
        assert!(differing_run < LEN - 1, "no recompute in the {} arrivals up to {i}", LEN - 1);
    }
}
