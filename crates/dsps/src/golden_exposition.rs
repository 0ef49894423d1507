//! Golden exposition: every scrape rendering pinned byte for byte.
//!
//! A hub is built by hand with every task counter, queue gauge, e2e bucket
//! and rule-profile field at a distinct non-zero value (plus a rule name
//! that needs escaping and a NaN custom gauge), and `/metrics`, `/json`,
//! `/events`, `/trace` and `/trace.jsonl` are compared with the texts
//! below. The clock-dependent fields (`uptime_s`, `at_ns`) are masked.
//! Everything else is a pure function of the recorded values, so any byte
//! a change moves shows up here.

use crate::flight::{FlightKind, FlightRecorder};
use crate::lineage::{render_chrome_trace, LineageConfig, Span, SpanKind, TraceCollector};
use crate::metrics::{Counter, LatencyHistogram, MetricsHub, RuleProfile, TaskCounters};
use std::collections::HashMap;
use std::sync::atomic::AtomicI64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sets every counter of `c` from `base`: counter `k` (in exposition
/// order) reads `base + k`, `processed` included, each tuple taking
/// `base` µs, and the e2e histogram holds samples in three buckets.
fn fill(c: &TaskCounters, base: u64) {
    for _ in 0..base {
        c.record(Duration::from_micros(base));
    }
    let mut n = base;
    for counter in [
        Counter::Emitted,
        Counter::Dropped,
        Counter::Misrouted,
        Counter::Acked,
        Counter::Failed,
        Counter::Replayed,
        Counter::Restarted,
        Counter::InjectedPanics,
        Counter::InjectedLatency,
        Counter::InjectedDrops,
    ] {
        n += 1;
        c.add(counter, n);
    }
    for ns in [3, 700, base * 1_000_000] {
        c.e2e.record(Duration::from_nanos(ns));
    }
}

fn histogram(samples_ns: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::default();
    for &ns in samples_ns {
        h.record(Duration::from_nanos(ns));
    }
    h
}

/// Two components (one with two tasks, one with a name that needs
/// escaping), two input queues each, two rule profiles and three custom gauges.
fn hub() -> MetricsHub {
    let hub = MetricsHub::new();
    fill(&hub.register_task("src \"a\""), 2);
    fill(&hub.register_task("esper"), 20);
    fill(&hub.register_task("esper"), 40);
    for (component, depth, capacity) in
        [("src \"a\"", 5, 16), ("src \"a\"", 6, 16), ("esper", 9, 64), ("esper", 4, 32)]
    {
        hub.register_queue(component, Arc::new(AtomicI64::new(depth)), capacity);
    }
    hub.register_profile_source(
        "esper",
        Arc::new(|| {
            vec![
                RuleProfile {
                    rule: "speed \"v\" \\ 1\nx".into(),
                    engine: 1,
                    events_in: 101,
                    evals: 102,
                    firings: 103,
                    rows_out: 104,
                    eval: histogram(&[5, 5, 3_000]),
                    path_shared: 105,
                    path_incremental: 106,
                    path_anchor: 107,
                    path_rescan: 108,
                    window_len: 109,
                    threshold_age: Some(Duration::from_millis(12_345)),
                },
                RuleProfile {
                    rule: "queue".into(),
                    engine: 0,
                    events_in: 201,
                    evals: 202,
                    firings: 203,
                    rows_out: 204,
                    eval: histogram(&[900]),
                    path_shared: 205,
                    path_incremental: 206,
                    path_anchor: 207,
                    path_rescan: 208,
                    window_len: 209,
                    threshold_age: None,
                },
            ]
        }),
    );
    hub.register_gauges(
        "splitter",
        Arc::new(|| {
            vec![
                ("rebalances_total".to_string(), 3.0),
                ("rebalance_post_imbalance".to_string(), 1.25),
                ("rebalance_observed_imbalance".to_string(), f64::NAN),
            ]
        }),
    );
    hub
}

/// Replaces the digits (and decimal point) after every `key` with `_`.
fn mask(text: &str, key: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(key) {
        let (head, tail) = rest.split_at(at + key.len());
        out.push_str(head);
        out.push('_');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
    }
    out.push_str(rest);
    out
}

/// `base` with `added` spliced in: each entry's lines go right after the
/// one line of `base` equal to its anchor.
fn with_added(base: &str, added: &[(&str, &str)]) -> String {
    for (anchor, _) in added {
        assert_eq!(base.lines().filter(|l| l == anchor).count(), 1, "anchor {anchor:?}");
    }
    let mut out = String::new();
    for line in base.lines() {
        out.push_str(line);
        out.push('\n');
        for (_, lines) in added.iter().filter(|(anchor, _)| *anchor == line) {
            out.push_str(lines);
        }
    }
    out
}

/// Compares line by line first, so a failure names the first line that
/// moved instead of printing two walls of text.
fn assert_text(got: &str, want: &str) {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {}", i + 1);
    }
    assert_eq!(got, want);
}

/// `/metrics` of [`hub`].
const PROMETHEUS: &str = r##"# HELP tms_processed_total Tuples processed
# TYPE tms_processed_total counter
tms_processed_total{component="esper"} 60
tms_processed_total{component="src \"a\""} 2
# HELP tms_emitted_total Tuples emitted downstream
# TYPE tms_emitted_total counter
tms_emitted_total{component="esper"} 62
tms_emitted_total{component="src \"a\""} 3
# HELP tms_dropped_total Deliveries lost in transit
# TYPE tms_dropped_total counter
tms_dropped_total{component="esper"} 64
tms_dropped_total{component="src \"a\""} 4
# HELP tms_misrouted_total Direct emissions to an out-of-range task index
# TYPE tms_misrouted_total counter
tms_misrouted_total{component="esper"} 66
tms_misrouted_total{component="src \"a\""} 5
# HELP tms_acked_total Spout roots fully acked
# TYPE tms_acked_total counter
tms_acked_total{component="esper"} 68
tms_acked_total{component="src \"a\""} 6
# HELP tms_failed_total Spout roots abandoned after exhausting replays
# TYPE tms_failed_total counter
tms_failed_total{component="esper"} 70
tms_failed_total{component="src \"a\""} 7
# HELP tms_replayed_total Replays emitted after ack timeouts
# TYPE tms_replayed_total counter
tms_replayed_total{component="esper"} 72
tms_replayed_total{component="src \"a\""} 8
# HELP tms_restarted_total Supervised task restarts after panics
# TYPE tms_restarted_total counter
tms_restarted_total{component="esper"} 74
tms_restarted_total{component="src \"a\""} 9
# HELP tms_injected_panics_total Fault-injection panics fired
# TYPE tms_injected_panics_total counter
tms_injected_panics_total{component="esper"} 76
tms_injected_panics_total{component="src \"a\""} 10
# HELP tms_injected_latency_total Fault-injection latency sleeps fired
# TYPE tms_injected_latency_total counter
tms_injected_latency_total{component="esper"} 78
tms_injected_latency_total{component="src \"a\""} 11
# HELP tms_injected_drops_total Fault-injection deliveries dropped
# TYPE tms_injected_drops_total counter
tms_injected_drops_total{component="esper"} 80
tms_injected_drops_total{component="src \"a\""} 12
# HELP tms_queue_depth Tuples buffered in the component's input channels
# TYPE tms_queue_depth gauge
tms_queue_depth{component="esper"} 13
tms_queue_depth{component="src \"a\""} 11
# HELP tms_queue_capacity Total capacity of the component's input channels
# TYPE tms_queue_capacity gauge
tms_queue_capacity{component="esper"} 96
tms_queue_capacity{component="src \"a\""} 32
# HELP tms_e2e_latency_seconds End-to-end tuple completion latency
# TYPE tms_e2e_latency_seconds histogram
tms_e2e_latency_seconds_bucket{component="esper",le="0.000000004"} 2
tms_e2e_latency_seconds_bucket{component="esper",le="0.000001024"} 4
tms_e2e_latency_seconds_bucket{component="esper",le="0.033554432"} 5
tms_e2e_latency_seconds_bucket{component="esper",le="0.067108864"} 6
tms_e2e_latency_seconds_bucket{component="esper",le="+Inf"} 6
tms_e2e_latency_seconds_sum{component="esper"} 0.060001406
tms_e2e_latency_seconds_count{component="esper"} 6
tms_e2e_latency_seconds_bucket{component="src \"a\"",le="0.000000004"} 1
tms_e2e_latency_seconds_bucket{component="src \"a\"",le="0.000001024"} 2
tms_e2e_latency_seconds_bucket{component="src \"a\"",le="0.002097152"} 3
tms_e2e_latency_seconds_bucket{component="src \"a\"",le="+Inf"} 3
tms_e2e_latency_seconds_sum{component="src \"a\""} 0.002000703
tms_e2e_latency_seconds_count{component="src \"a\""} 3
# HELP tms_rule_events_in_total Events routed into the rule's windows
# TYPE tms_rule_events_in_total counter
tms_rule_events_in_total{component="esper",rule="speed \"v\" \\ 1\nx",engine="1"} 101
tms_rule_events_in_total{component="esper",rule="queue",engine="0"} 201
# HELP tms_rule_evals_total Condition evaluations performed
# TYPE tms_rule_evals_total counter
tms_rule_evals_total{component="esper",rule="speed \"v\" \\ 1\nx",engine="1"} 102
tms_rule_evals_total{component="esper",rule="queue",engine="0"} 202
# HELP tms_rule_firings_total Evaluations that produced output rows
# TYPE tms_rule_firings_total counter
tms_rule_firings_total{component="esper",rule="speed \"v\" \\ 1\nx",engine="1"} 103
tms_rule_firings_total{component="esper",rule="queue",engine="0"} 203
# HELP tms_rule_rows_out_total Output rows produced
# TYPE tms_rule_rows_out_total counter
tms_rule_rows_out_total{component="esper",rule="speed \"v\" \\ 1\nx",engine="1"} 104
tms_rule_rows_out_total{component="esper",rule="queue",engine="0"} 204
# HELP tms_rule_path_shared_total Evals served from a pane bank (cluster of any size, one included)
# TYPE tms_rule_path_shared_total counter
tms_rule_path_shared_total{component="esper",rule="speed \"v\" \\ 1\nx",engine="1"} 105
tms_rule_path_shared_total{component="esper",rule="queue",engine="0"} 205
# HELP tms_rule_path_incremental_total Evals on the incremental path
# TYPE tms_rule_path_incremental_total counter
tms_rule_path_incremental_total{component="esper",rule="speed \"v\" \\ 1\nx",engine="1"} 106
tms_rule_path_incremental_total{component="esper",rule="queue",engine="0"} 206
# HELP tms_rule_path_anchor_total Evals on the anchor fast path
# TYPE tms_rule_path_anchor_total counter
tms_rule_path_anchor_total{component="esper",rule="speed \"v\" \\ 1\nx",engine="1"} 107
tms_rule_path_anchor_total{component="esper",rule="queue",engine="0"} 207
# HELP tms_rule_path_rescan_total Evals that fell back to a full rescan
# TYPE tms_rule_path_rescan_total counter
tms_rule_path_rescan_total{component="esper",rule="speed \"v\" \\ 1\nx",engine="1"} 108
tms_rule_path_rescan_total{component="esper",rule="queue",engine="0"} 208
# HELP tms_rule_window_events Events buffered in the rule's windows
# TYPE tms_rule_window_events gauge
tms_rule_window_events{component="esper",rule="speed \"v\" \\ 1\nx",engine="1"} 109
tms_rule_window_events{component="esper",rule="queue",engine="0"} 209
# HELP tms_rule_threshold_age_seconds Age of the thresholds the rule is using
# TYPE tms_rule_threshold_age_seconds gauge
tms_rule_threshold_age_seconds{component="esper",rule="speed \"v\" \\ 1\nx",engine="1"} 12.345
# HELP tms_rule_eval_seconds Rule condition evaluation wall time
# TYPE tms_rule_eval_seconds histogram
tms_rule_eval_seconds_bucket{component="esper",rule="speed \"v\" \\ 1\nx",engine="1",le="0.000000008"} 2
tms_rule_eval_seconds_bucket{component="esper",rule="speed \"v\" \\ 1\nx",engine="1",le="0.000004096"} 3
tms_rule_eval_seconds_bucket{component="esper",rule="speed \"v\" \\ 1\nx",engine="1",le="+Inf"} 3
tms_rule_eval_seconds_sum{component="esper",rule="speed \"v\" \\ 1\nx",engine="1"} 0.00000301
tms_rule_eval_seconds_count{component="esper",rule="speed \"v\" \\ 1\nx",engine="1"} 3
tms_rule_eval_seconds_bucket{component="esper",rule="queue",engine="0",le="0.000001024"} 1
tms_rule_eval_seconds_bucket{component="esper",rule="queue",engine="0",le="+Inf"} 1
tms_rule_eval_seconds_sum{component="esper",rule="queue",engine="0"} 0.0000009
tms_rule_eval_seconds_count{component="esper",rule="queue",engine="0"} 1
# HELP tms_rebalance_observed_imbalance Custom gauge
# TYPE tms_rebalance_observed_imbalance gauge
tms_rebalance_observed_imbalance{component="splitter"} NaN
# HELP tms_rebalance_post_imbalance Custom gauge
# TYPE tms_rebalance_post_imbalance gauge
tms_rebalance_post_imbalance{component="splitter"} 1.25
# HELP tms_rebalances_total Custom gauge
# TYPE tms_rebalances_total gauge
tms_rebalances_total{component="splitter"} 3
"##;

/// The `/metrics` families the text above does not have: each entry's
/// lines follow its anchor line.
const PROMETHEUS_ADDED: &[(&str, &str)] = &[
    (
        r#"tms_emitted_total{component="src \"a\""} 3"#,
        r##"# HELP tms_avg_latency_seconds Mean processing time per tuple
# TYPE tms_avg_latency_seconds gauge
tms_avg_latency_seconds{component="esper"} 0.000033333
tms_avg_latency_seconds{component="src \"a\""} 0.000002
"##,
    ),
    (
        r#"tms_queue_depth{component="src \"a\""} 11"#,
        r##"# HELP tms_queue_depth_max Deepest single input channel of the component
# TYPE tms_queue_depth_max gauge
tms_queue_depth_max{component="esper"} 9
tms_queue_depth_max{component="src \"a\""} 6
"##,
    ),
];

#[test]
fn prometheus_text_is_pinned() {
    assert_text(&hub().render_prometheus(), &with_added(PROMETHEUS, PROMETHEUS_ADDED));
}

/// `/json` of [`hub`], broken into lines here for reading (the rendering
/// is one line).
const JSON: &str = r##"{"uptime_s":_,"components":[
{"component":"esper","processed":60,"emitted":62,"avg_latency_ns":33333,"dropped":64,"misrouted":66,"acked":68,"failed":70,"replayed":72,"restarted":74,"injected_panics":76,"injected_latency":78,"injected_drops":80,"queue_depth":13,"queue_depth_max":9,"queue_capacity":96,"e2e":{"count":6,"sum_ns":60001406,"log2_buckets":[[1,2],[9,2],[24,1],[25,1]]},"rules":[
{"rule":"speed \"v\" \\ 1\nx","engine":1,"events_in":101,"evals":102,"firings":103,"rows_out":104,"path_shared":105,"path_incremental":106,"path_anchor":107,"path_rescan":108,"window_events":109,"threshold_age_s":12.345,"eval":{"count":3,"sum_ns":3010,"log2_buckets":[[2,2],[11,1]]}},
{"rule":"queue","engine":0,"events_in":201,"evals":202,"firings":203,"rows_out":204,"path_shared":205,"path_incremental":206,"path_anchor":207,"path_rescan":208,"window_events":209,"threshold_age_s":null,"eval":{"count":1,"sum_ns":900,"log2_buckets":[[9,1]]}}]},
{"component":"src \"a\"","processed":2,"emitted":3,"avg_latency_ns":2000,"dropped":4,"misrouted":5,"acked":6,"failed":7,"replayed":8,"restarted":9,"injected_panics":10,"injected_latency":11,"injected_drops":12,"queue_depth":11,"queue_depth_max":6,"queue_capacity":32,"e2e":{"count":3,"sum_ns":2000703,"log2_buckets":[[1,1],[9,1],[20,1]]},"rules":[]}],"gauges":[
{"component":"splitter","name":"rebalance_observed_imbalance","value":null},
{"component":"splitter","name":"rebalance_post_imbalance","value":1.25},
{"component":"splitter","name":"rebalances_total","value":3}]}
"##;

#[test]
fn json_text_is_pinned() {
    let want: String = JSON.lines().collect();
    assert_text(&mask(&hub().render_json(), "\"uptime_s\":"), &want);
}

/// The spans behind `/trace` and `/trace.jsonl`: one tree over three
/// tasks, a replay among them, components that need escaping. The tasks
/// register and record out of task order, and one drain takes them all:
/// the retained order is task-id order, then recording order per task.
fn collector() -> TraceCollector {
    let c = TraceCollector::new(LineageConfig::full(), Instant::now());
    let mut sink = c.register_task(4, "sink");
    let mut bolt = c.register_task(3, "esper\tx");
    let mut spout = c.register_task(0, "src \"a\"");
    let (emit, q, p) = (0x100_0000_0001, 0x400_0000_0001, 0x400_0000_0002);
    let sq = sink.record(0xfeed, p, SpanKind::Queue, 3, 51_500, 10);
    sink.record(0xfeed, sq, SpanKind::Completion, 0, 51_510, 0);
    assert_eq!(bolt.record(0xfeed, emit, SpanKind::Queue, 0, 3_500, 40_000), q);
    assert_eq!(bolt.record(0xfeed, q, SpanKind::Process, 0, 43_500, 7_001), p);
    bolt.record(0xfeed, p, SpanKind::BatchFlush, 4, 50_501, 999);
    assert_eq!(spout.record(0xfeed, 0, SpanKind::SpoutEmit, 0, 1_000, 2_500), emit);
    spout.record(0xfeed, emit, SpanKind::Replay, 1, 9_000, 1_234);
    c.drain();
    c
}

/// `/trace` of [`collector`].
const CHROME: &str = r##"{"displayTimeUnit":"ms","traceEvents":[
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"src \"a\""}},
{"name":"thread_name","ph":"M","pid":0,"tid":3,"args":{"name":"esper\tx"}},
{"name":"thread_name","ph":"M","pid":0,"tid":4,"args":{"name":"sink"}},
{"name":"src \"a\":spout_emit","cat":"spout_emit","ph":"X","ts":1.000,"dur":2.500,"pid":0,"tid":0,"args":{"trace":"0x000000000000feed","span":"0x10000000001","parent":"0x0","other":0}},
{"name":"src \"a\":replay","cat":"replay","ph":"X","ts":9.000,"dur":1.234,"pid":0,"tid":0,"args":{"trace":"0x000000000000feed","span":"0x10000000002","parent":"0x10000000001","other":1}},
{"name":"esper\tx:queue","cat":"queue","ph":"X","ts":3.500,"dur":40.000,"pid":0,"tid":3,"args":{"trace":"0x000000000000feed","span":"0x40000000001","parent":"0x10000000001","other":0}},
{"name":"esper\tx:process","cat":"process","ph":"X","ts":43.500,"dur":7.001,"pid":0,"tid":3,"args":{"trace":"0x000000000000feed","span":"0x40000000002","parent":"0x40000000001","other":0}},
{"name":"esper\tx:batch_flush","cat":"batch_flush","ph":"X","ts":50.501,"dur":0.999,"pid":0,"tid":3,"args":{"trace":"0x000000000000feed","span":"0x40000000003","parent":"0x40000000002","other":4}},
{"name":"sink:queue","cat":"queue","ph":"X","ts":51.500,"dur":0.010,"pid":0,"tid":4,"args":{"trace":"0x000000000000feed","span":"0x50000000001","parent":"0x40000000002","other":3}},
{"name":"sink:completion","cat":"completion","ph":"X","ts":51.510,"dur":0.000,"pid":0,"tid":4,"args":{"trace":"0x000000000000feed","span":"0x50000000002","parent":"0x50000000001","other":0}}]}
"##;

#[test]
fn chrome_trace_is_pinned() {
    let c = collector();
    let want: String = CHROME.lines().collect();
    assert_text(&c.render_chrome_json(), &want);
    // The standalone face renders the same spans to the same bytes, and
    // an unknown task as `"?"`.
    let spans = c.spans();
    assert_text(&render_chrome_trace(&spans, &c.components()), &want);
    let stray = Span { task: 9, ..spans[0] };
    let names: HashMap<u32, String> = HashMap::new();
    assert!(render_chrome_trace(&[stray], &names).contains("\"name\":\"?:spout_emit\""));
}

/// `/trace.jsonl` of [`collector`].
const JSONL: &str = r##"
{"trace":"0x000000000000feed","span":"0x10000000001","parent":"0x0","kind":"spout_emit","component":"src \"a\"","task":0,"other":0,"start_ns":1000,"dur_ns":2500}
{"trace":"0x000000000000feed","span":"0x10000000002","parent":"0x10000000001","kind":"replay","component":"src \"a\"","task":0,"other":1,"start_ns":9000,"dur_ns":1234}
{"trace":"0x000000000000feed","span":"0x40000000001","parent":"0x10000000001","kind":"queue","component":"esper\tx","task":3,"other":0,"start_ns":3500,"dur_ns":40000}
{"trace":"0x000000000000feed","span":"0x40000000002","parent":"0x40000000001","kind":"process","component":"esper\tx","task":3,"other":0,"start_ns":43500,"dur_ns":7001}
{"trace":"0x000000000000feed","span":"0x40000000003","parent":"0x40000000002","kind":"batch_flush","component":"esper\tx","task":3,"other":4,"start_ns":50501,"dur_ns":999}
{"trace":"0x000000000000feed","span":"0x50000000001","parent":"0x40000000002","kind":"queue","component":"sink","task":4,"other":3,"start_ns":51500,"dur_ns":10}
{"trace":"0x000000000000feed","span":"0x50000000002","parent":"0x50000000001","kind":"completion","component":"sink","task":4,"other":0,"start_ns":51510,"dur_ns":0}
"##;

#[test]
fn span_jsonl_is_pinned() {
    assert_text(&collector().render_jsonl(), JSONL.trim_start());
}

/// `/events` of a recorder holding details and components that need
/// escaping, with `at_ns` masked.
const EVENTS: &str = r##"{"dropped":0,"events":[
{"seq":0,"at_ns":_,"kind":"task_restart","component":"esper","task":3,"detail":"restart 1 after \"boom\"\n"},
{"seq":1,"at_ns":_,"kind":"snapshot","component":"","task":-1,"detail":"tab\there \\ \u0001"},
{"seq":2,"at_ns":_,"kind":"custom","component":"kappa","task":0,"detail":""}]}
"##;

#[test]
fn flight_events_are_pinned() {
    let r = FlightRecorder::new(16, Instant::now());
    r.record(FlightKind::TaskRestart, "esper", 3, "restart 1 after \"boom\"\n");
    r.record(FlightKind::Snapshot, "", -1, "tab\there \\ \u{1}");
    r.record(FlightKind::Custom, "kappa", 0, "");
    let want: String = EVENTS.lines().collect();
    assert_text(&mask(&r.render_json(), "\"at_ns\":"), &want);
}

