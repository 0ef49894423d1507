//! Acceptance suite for the observability layer: end-to-end completion
//! latency histograms (both delivery modes), queue-occupancy gauges, and
//! monitor-thread shutdown behavior with every tree sampled.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tms_dsps::runtime::RuntimeConfig;
use tms_dsps::{
    Bolt, Emitter, Grouping, LatencyHistogram, LineageConfig, LocalCluster, MonitorConfig,
    Parallelism, ReliabilityConfig, Spout, SpanKind, TopologyBuilder,
};

#[derive(Clone)]
struct Msg {
    value: u64,
}

struct RangeSpout {
    next: u64,
    end: u64,
}

impl Spout<Msg> for RangeSpout {
    fn next(&mut self) -> Option<Msg> {
        if self.next >= self.end {
            return None;
        }
        let v = self.next;
        self.next += 1;
        Some(Msg { value: v })
    }
}

struct Forward;
impl Bolt<Msg> for Forward {
    fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
        e.emit(msg);
    }
}

struct NullSink;
impl Bolt<Msg> for NullSink {
    fn process(&mut self, _msg: Msg, _e: &mut dyn Emitter<Msg>) {}
}

fn cluster() -> LocalCluster {
    LocalCluster::new(tms_dsps::scheduler::ClusterSpec {
        nodes: 2,
        slots_per_node: 2,
        cores_per_node: 2,
    })
    .unwrap()
}

/// Every tree sampled, with a monitor window far longer than the run:
/// windows come only from the shutdown flush, so the test also covers that
/// path.
fn traced_monitor() -> Option<MonitorConfig> {
    Some(MonitorConfig {
        window: Duration::from_secs(3600),
        lineage: Some(LineageConfig::full()),
        ..MonitorConfig::default()
    })
}

#[test]
fn at_most_once_tracing_records_completion_at_the_sink() {
    let t = TopologyBuilder::new("t")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 100 }))
        .add_bolt("mid", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
            Box::new(Forward)
        })
        .add_bolt("sink", Parallelism::of(2), vec![("mid", Grouping::Shuffle)], |_| {
            Box::new(NullSink)
        })
        .build()
        .unwrap();
    let cfg = RuntimeConfig { monitor: traced_monitor(), ..RuntimeConfig::default() };
    let metrics = cluster().submit(t, cfg).unwrap().join().unwrap();
    let totals = metrics.totals();
    let sink = totals.iter().find(|c| c.component == "sink").unwrap();
    assert_eq!(
        sink.e2e.count(),
        100,
        "every tuple's end-to-end latency lands at the terminal bolt"
    );
    assert!(sink.e2e.mean().unwrap() > Duration::ZERO);
    assert!(sink.e2e.p50().unwrap() <= sink.e2e.p99().unwrap());
    // The emit-time stamp survived the intermediate hop, and non-terminal
    // components recorded nothing.
    let mid = totals.iter().find(|c| c.component == "mid").unwrap();
    assert!(mid.e2e.is_empty(), "only the end of the tuple's path records e2e");
    let src = totals.iter().find(|c| c.component == "src").unwrap();
    assert!(src.e2e.is_empty(), "at-most-once mode records at the sink, not the spout");
}

#[test]
fn tracing_off_records_no_completion_latency() {
    let t = TopologyBuilder::new("t")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 50 }))
        .add_bolt("sink", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
            Box::new(NullSink)
        })
        .build()
        .unwrap();
    let metrics = cluster().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
    for w in metrics.totals() {
        assert!(w.e2e.is_empty(), "{}: no monitor, no end-to-end latency", w.component);
        assert_eq!(w.queue_capacity, 0, "{}: no gauges registered without a monitor", w.component);
    }
}

#[test]
fn e2e_latency_under_replay_is_measured_from_first_emit() {
    // The bolt panics on the first sight of value 7; the spout replays it
    // after the 100 ms ack timeout. The replayed tuple's completion
    // latency must cover the whole retry history (>= the ack timeout),
    // not just the final successful attempt (~microseconds).
    let tripped = Arc::new(AtomicBool::new(false));
    struct OnceBomb {
        tripped: Arc<AtomicBool>,
    }
    impl Bolt<Msg> for OnceBomb {
        fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
            if msg.value == 7 && !self.tripped.swap(true, Ordering::SeqCst) {
                panic!("first 7 is fatal");
            }
            e.emit(msg);
        }
    }
    let tripped_f = tripped.clone();
    let t = TopologyBuilder::new("t")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 20 }))
        .add_bolt("bomb", Parallelism::of(1), vec![("src", Grouping::Shuffle)], move |_| {
            Box::new(OnceBomb { tripped: tripped_f.clone() })
        })
        .add_bolt("sink", Parallelism::of(1), vec![("bomb", Grouping::Shuffle)], |_| {
            Box::new(NullSink)
        })
        .build()
        .unwrap();
    let cfg = RuntimeConfig {
        monitor: traced_monitor(),
        reliability: Some(ReliabilityConfig {
            ack_timeout: Duration::from_millis(100),
            max_retries: 10,
            backoff: 1.5,
            ..ReliabilityConfig::default()
        }),
        ..RuntimeConfig::default()
    };
    let metrics = cluster().submit(t, cfg).unwrap().join().unwrap();
    let totals = metrics.totals();
    let src = totals.iter().find(|c| c.component == "src").unwrap();
    assert_eq!(src.acked, 20);
    assert!(src.replayed >= 1, "the poisoned tuple must have been replayed");
    assert_eq!(
        src.e2e.count(),
        20,
        "reliability mode records one completion latency per acked root"
    );
    assert!(
        src.e2e.quantile(1.0).unwrap() >= Duration::from_millis(100),
        "the replayed root's latency spans the ack timeout, not just the last attempt: {:?}",
        src.e2e.quantile(1.0)
    );
    // Sinks don't double-record in reliability mode.
    let sink = totals.iter().find(|c| c.component == "sink").unwrap();
    assert!(sink.e2e.is_empty(), "reliability mode records spout-side only");
}

#[test]
fn queue_gauges_expose_backlog_mid_run() {
    // A slow sink behind a tiny channel: the spout fills the channel, and
    // a mid-run sample must see the backlog and the channel capacity.
    struct SlowSink;
    impl Bolt<Msg> for SlowSink {
        fn process(&mut self, _msg: Msg, _e: &mut dyn Emitter<Msg>) {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    let t = TopologyBuilder::new("t")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 2000 }))
        .add_bolt("sink", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
            Box::new(SlowSink)
        })
        .build()
        .unwrap();
    let cfg = RuntimeConfig {
        channel_capacity: 8,
        monitor: traced_monitor(),
        ..RuntimeConfig::default()
    };
    let handle = cluster().submit(t, cfg).unwrap();
    let metrics = handle.metrics().clone();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut saw_backlog = false;
    while Instant::now() < deadline {
        let windows = metrics.sample();
        if let Some(sink) = windows.iter().find(|w| w.component == "sink") {
            assert_eq!(sink.queue_capacity, 8, "gauge reports the configured capacity");
            assert!(sink.queue_depth <= 8, "occupancy cannot exceed capacity");
            assert!(sink.queue_depth_max <= sink.queue_depth);
            if sink.queue_depth > 0 {
                saw_backlog = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.join().unwrap();
    assert!(saw_backlog, "a saturated channel must show up in the gauge");
}

#[test]
fn monitor_with_tracing_joins_promptly_and_flushes_a_partial_window() {
    let t = TopologyBuilder::new("t")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 200 }))
        .add_bolt("sink", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
            Box::new(NullSink)
        })
        .build()
        .unwrap();
    // A 1-hour window: without prompt shutdown + flush, this test would
    // either hang for the window or end with an empty history.
    let cfg = RuntimeConfig { monitor: traced_monitor(), ..RuntimeConfig::default() };
    let started = Instant::now();
    let metrics = cluster().submit(t, cfg).unwrap().join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "join must not wait out the monitor window"
    );
    let history = metrics.history();
    assert!(!history.is_empty(), "the shutdown flush recorded the tail");
    assert!(history.iter().all(|w| w.partial), "flush windows are marked partial");
    let sink = history.iter().find(|w| w.component == "sink").unwrap();
    assert_eq!(sink.at, Duration::ZERO, "the only window starts at topology start");
    assert!(sink.len > Duration::ZERO);
    assert_eq!(sink.e2e.count(), 200, "flushed windows carry the e2e histogram");
}

#[test]
fn at_most_once_e2e_is_each_sampled_trees_emit_to_completion_span() {
    let t = TopologyBuilder::new("t")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 100 }))
        .add_bolt("mid", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
            Box::new(Forward)
        })
        .add_bolt("sink", Parallelism::of(2), vec![("mid", Grouping::Shuffle)], |_| {
            Box::new(NullSink)
        })
        .build()
        .unwrap();
    // Full lineage and nothing else: the default window outlasts the run.
    let monitor = MonitorConfig { lineage: Some(LineageConfig::full()), ..MonitorConfig::default() };
    let cfg = RuntimeConfig { monitor: Some(monitor), ..RuntimeConfig::default() };
    let handle = cluster().submit(t, cfg).unwrap();
    let collector = handle.trace_collector().expect("lineage is on").clone();
    let metrics = handle.join().unwrap();
    let sink = metrics.totals().into_iter().find(|c| c.component == "sink").unwrap();
    assert_eq!(sink.e2e.count(), 100, "every tree is sampled, so every tuple records");

    // The same latencies, read off the spans: each tree's SpoutEmit start
    // to its Completion.
    let spans = collector.spans();
    let mut from_spans = LatencyHistogram::default();
    for done in spans.iter().filter(|s| s.kind == SpanKind::Completion) {
        let emit = spans
            .iter()
            .find(|s| s.trace == done.trace && s.kind == SpanKind::SpoutEmit)
            .expect("a completed tree has its root span");
        from_spans.record(Duration::from_nanos(done.start_ns - emit.start_ns));
    }
    assert_eq!(sink.e2e, from_spans, "each recorded latency is its tree's emit → completion");
}

#[test]
fn a_monitor_without_lineage_records_acked_roots_and_gauges_only() {
    let topology = || {
        TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 50 }))
            .add_bolt("sink", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
                Box::new(NullSink)
            })
            .build()
            .unwrap()
    };
    let monitor = Some(MonitorConfig { window: Duration::from_secs(3600), ..MonitorConfig::default() });

    // Under the acker every acked root records, sampled or not.
    let cfg = RuntimeConfig {
        monitor,
        reliability: Some(ReliabilityConfig::default()),
        ..RuntimeConfig::default()
    };
    let totals = cluster().submit(topology(), cfg).unwrap().join().unwrap().totals();
    let src = totals.iter().find(|c| c.component == "src").unwrap();
    assert_eq!(src.acked, 50);
    assert_eq!(src.e2e.count(), src.acked, "one completion latency per acked root");

    // At most once, only a sampled tree carries the context a sink needs.
    let cfg = RuntimeConfig { monitor, ..RuntimeConfig::default() };
    let totals = cluster().submit(topology(), cfg).unwrap().join().unwrap().totals();
    for w in &totals {
        assert!(w.e2e.is_empty(), "{}: no lineage, no at-most-once e2e", w.component);
    }
    let sink = totals.iter().find(|c| c.component == "sink").unwrap();
    assert!(sink.queue_capacity > 0, "a monitor registers the queue gauges");
}
