//! Chaos integration tests for the at-least-once reliability layer.
//!
//! The acceptance bar: with seeded probabilistic panics and message drops
//! injected, a topology running with recovery enabled must produce — after
//! deduplication — exactly the output of a failure-free run. With recovery
//! disabled the same faults must fail fast.

use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;
use tms_dsps::runtime::{LocalCluster, ReliabilityConfig, RuntimeConfig};
use tms_dsps::scheduler::ClusterSpec;
use tms_dsps::topology::{Parallelism, TopologyBuilder};
use tms_dsps::{chaos_wrap, Bolt, BoltContext, DspsError, Emitter, FaultConfig, Grouping, Spout};

const TUPLES: u64 = 1000;

#[derive(Clone)]
struct Msg {
    key: u64,
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
        Some(Msg { key: v % 13, value: v })
    }
}

/// The pipeline under test: 2 spout tasks → 2 transform tasks → 1 sink.
/// `fault` wraps the transform in a `ChaosBolt` (panics) and arms
/// transport drops; `reliability` arms the acker/replay/supervisor.
fn run_pipeline(
    reliability: Option<ReliabilityConfig>,
    fault: Option<FaultConfig>,
) -> (Result<Arc<tms_dsps::MetricsHub>, DspsError>, Vec<u64>) {
    let collected: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    struct Sink {
        collected: Arc<Mutex<Vec<u64>>>,
    }
    impl Bolt<Msg> for Sink {
        fn prepare(&mut self, _ctx: BoltContext) {}
        fn process(&mut self, msg: Msg, _e: &mut dyn Emitter<Msg>) {
            self.collected.lock().push(msg.value);
        }
    }

    let transform = |_: usize| -> Box<dyn Bolt<Msg>> {
        struct Triple;
        impl Bolt<Msg> for Triple {
            fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
                e.emit(Msg { key: msg.key, value: msg.value * 3 });
            }
        }
        Box::new(Triple)
    };
    let chaotic: Box<dyn Fn(usize) -> Box<dyn Bolt<Msg>> + Send + Sync> = match fault {
        Some(f) => Box::new(chaos_wrap(transform, f)),
        None => Box::new(transform),
    };

    let sink_collected = collected.clone();
    let half = TUPLES / 2;
    let t = TopologyBuilder::new("chaos")
        .add_spout("src", Parallelism::of(2), move |ti| {
            Box::new(RangeSpout { next: ti as u64 * half, end: (ti as u64 + 1) * half })
        })
        .add_bolt("triple", Parallelism::of(2), vec![("src", Grouping::Shuffle)], move |ti| {
            chaotic(ti)
        })
        .add_bolt("sink", Parallelism::of(1), vec![("triple", Grouping::Shuffle)], move |_| {
            Box::new(Sink { collected: sink_collected.clone() }) as Box<dyn Bolt<Msg>>
        })
        .build()
        .unwrap();

    let cluster =
        LocalCluster::new(ClusterSpec { nodes: 2, slots_per_node: 2, cores_per_node: 2 }).unwrap();
    let cfg = RuntimeConfig { reliability, fault, ..RuntimeConfig::default() };
    let handle = cluster.submit(t, cfg).unwrap();
    let metrics = handle.metrics().clone();
    let result = handle.join().map(|_| metrics);
    let values = collected.lock().clone();
    (result, values)
}

fn chaos_faults() -> FaultConfig {
    FaultConfig {
        panic_p: 0.01,
        drop_p: 0.01,
        delay: None,
        seed: 0x7EA_5EED,
    }
}

fn recovery() -> ReliabilityConfig {
    ReliabilityConfig {
        ack_timeout: Duration::from_millis(250),
        max_retries: 20,
        backoff: 1.5,
        max_pending: 256,
        // Expected panics ≈ panic_p · tuples; give the supervisor ample
        // headroom so the run never exhausts a task's budget.
        max_task_restarts: 200,
    }
}

#[test]
fn chaos_run_with_recovery_matches_failure_free_run() {
    // Baseline: no faults, no reliability.
    let (baseline_result, baseline_values) = run_pipeline(None, None);
    baseline_result.expect("failure-free run must succeed");
    let baseline: BTreeSet<u64> = baseline_values.iter().copied().collect();
    assert_eq!(baseline.len() as u64, TUPLES, "baseline delivers everything exactly once");

    // Chaos: seeded panics + drops, recovery on.
    let (chaos_result, chaos_values) = run_pipeline(Some(recovery()), Some(chaos_faults()));
    let metrics = chaos_result.expect("recovery must absorb the injected faults");
    let deduped: BTreeSet<u64> = chaos_values.iter().copied().collect();
    assert_eq!(
        deduped, baseline,
        "after dedup, the chaos run must equal the failure-free run"
    );
    // At-least-once: duplicates are allowed, losses are not.
    assert!(chaos_values.len() as u64 >= TUPLES);

    let totals = metrics.totals();
    let src = totals.iter().find(|c| c.component == "src").unwrap();
    let triple = totals.iter().find(|c| c.component == "triple").unwrap();
    assert_eq!(src.acked, TUPLES, "every root eventually acked");
    assert_eq!(src.failed, 0, "no root may exhaust its replay budget");
    assert!(src.replayed > 0, "injected faults must have forced replays");
    assert!(triple.restarted > 0, "injected panics must have forced restarts");
    let dropped: u64 = totals.iter().map(|c| c.dropped).sum();
    assert!(dropped > 0, "injected drops must have been recorded");

    // Chaos observability: the runtime attributes every injection, and
    // recovery must have kept pace — restarts cover the injected panics,
    // and every injected drop also landed in the transit-loss counter.
    assert!(triple.injected_panics > 0, "the injection counter must see the panics");
    assert!(
        triple.restarted >= triple.injected_panics,
        "recovered restarts ({}) must cover injected panics ({})",
        triple.restarted,
        triple.injected_panics
    );
    let injected_drops: u64 = totals.iter().map(|c| c.injected_drops).sum();
    assert!(injected_drops > 0, "the injection counter must see the drops");
    assert!(
        dropped >= injected_drops,
        "transit losses ({dropped}) must include the injected drops ({injected_drops})"
    );
    assert_eq!(
        totals.iter().map(|c| c.injected_latency).sum::<u64>(),
        0,
        "no latency was injected in this scenario"
    );
}

#[test]
fn chaos_run_without_recovery_fails_fast() {
    let (result, _) = run_pipeline(None, Some(chaos_faults()));
    match result {
        Err(DspsError::TaskPanicked { component, reason, .. }) => {
            assert_eq!(component, "triple");
            assert!(reason.contains("chaos"), "the injected panic surfaces: {reason}");
        }
        Ok(_) => panic!("fail-fast mode must surface the injected panic"),
        Err(other) => panic!("expected TaskPanicked, got {other}"),
    }
}

#[test]
fn replay_after_timeout_delivers_exactly_the_missing_tuples() {
    // Drop-only chaos (no panics): every lost delivery must be healed by
    // an ack-timeout replay, and only the lost tuples are re-emitted in
    // any volume — the duplicate overhead stays bounded by the replay
    // count the spout reports.
    let faults = FaultConfig { panic_p: 0.0, drop_p: 0.02, delay: None, seed: 42 };
    let (result, values) = run_pipeline(Some(recovery()), Some(faults));
    let metrics = result.expect("drop-only chaos must be fully healed");
    let deduped: BTreeSet<u64> = values.iter().copied().collect();
    let expected: BTreeSet<u64> = (0..TUPLES).map(|v| v * 3).collect();
    assert_eq!(deduped, expected, "every tuple delivered at least once");

    let totals = metrics.totals();
    let src = totals.iter().find(|c| c.component == "src").unwrap();
    assert!(src.replayed > 0, "drops must have forced replays");
    assert_eq!(src.failed, 0);
    let triple = totals.iter().find(|c| c.component == "triple").unwrap();
    assert_eq!(triple.restarted, 0, "no panics were injected");
    assert_eq!(triple.injected_panics, 0, "drop-only chaos injects no panics");
    let injected_drops: u64 = totals.iter().map(|c| c.injected_drops).sum();
    assert!(injected_drops > 0, "drop injections must be attributed");
    assert!(
        src.replayed >= injected_drops / 2,
        "replays ({}) must keep pace with injected drops ({injected_drops})",
        src.replayed
    );
    // Each replay re-sends one root through the pipeline, so the sink
    // sees at most one extra copy per replay.
    assert!(
        (values.len() as u64) <= TUPLES + src.replayed,
        "sink duplicates ({}) exceed replay count ({})",
        values.len() as u64 - TUPLES,
        src.replayed
    );
}

/// `src(2) → triple(2) → square(2) → sink(1)`: `square` has one shuffle
/// input from a bolt of equal parallelism, so it runs chained on
/// `triple`'s executors. `fault` wraps `square` (panics) and arms
/// transport drops, which on `triple` hit the chained edge.
fn run_chained_pipeline(
    reliability: Option<ReliabilityConfig>,
    fault: Option<FaultConfig>,
) -> (Result<Arc<tms_dsps::MetricsHub>, DspsError>, Vec<u64>, usize) {
    let collected: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    struct Sink(Arc<Mutex<Vec<u64>>>);
    impl Bolt<Msg> for Sink {
        fn process(&mut self, msg: Msg, _e: &mut dyn Emitter<Msg>) {
            self.0.lock().push(msg.value);
        }
    }
    let square = |_: usize| -> Box<dyn Bolt<Msg>> {
        struct Square;
        impl Bolt<Msg> for Square {
            fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
                e.emit(Msg { key: msg.key, value: msg.value * msg.value });
            }
        }
        Box::new(Square)
    };
    let chaotic: Box<dyn Fn(usize) -> Box<dyn Bolt<Msg>> + Send + Sync> = match fault {
        Some(f) => Box::new(chaos_wrap(square, f)),
        None => Box::new(square),
    };
    let sink_collected = collected.clone();
    let half = TUPLES / 2;
    let t = TopologyBuilder::new("chained-chaos")
        .add_spout("src", Parallelism::of(2), move |ti| {
            Box::new(RangeSpout { next: ti as u64 * half, end: (ti as u64 + 1) * half })
        })
        .add_map_bolt("triple", Parallelism::of(2), vec![("src", Grouping::Shuffle)], |m: Msg| {
            Some(Msg { key: m.key, value: m.value * 3 })
        })
        .add_bolt("square", Parallelism::of(2), vec![("triple", Grouping::Shuffle)], move |ti| {
            chaotic(ti)
        })
        .add_bolt("sink", Parallelism::of(1), vec![("square", Grouping::Shuffle)], move |_| {
            Box::new(Sink(sink_collected.clone())) as Box<dyn Bolt<Msg>>
        })
        .build()
        .unwrap();
    let cluster =
        LocalCluster::new(ClusterSpec { nodes: 2, slots_per_node: 2, cores_per_node: 2 }).unwrap();
    let cfg = RuntimeConfig { reliability, fault, ..RuntimeConfig::default() };
    let handle = cluster.submit(t, cfg).unwrap();
    let metrics = handle.metrics().clone();
    let chained = handle.flight_recorder().events_of(tms_dsps::FlightKind::Chained).len();
    let result = handle.join().map(|_| metrics);
    let values = collected.lock().clone();
    (result, values, chained)
}

#[test]
fn chaos_in_a_chained_task_and_on_its_edge_heals_to_the_failure_free_output() {
    let (clean, clean_values, chained) = run_chained_pipeline(None, None);
    clean.expect("failure-free run must succeed");
    assert_eq!(chained, 2, "both square tasks run chained on triple's executors");
    let baseline: BTreeSet<u64> = clean_values.iter().copied().collect();
    assert_eq!(baseline.len() as u64, TUPLES);

    let (result, values, _) = run_chained_pipeline(Some(recovery()), Some(chaos_faults()));
    let metrics = result.expect("recovery must absorb faults in a chained task");
    let deduped: BTreeSet<u64> = values.iter().copied().collect();
    assert_eq!(deduped, baseline, "after dedup, the chaos run must equal the failure-free run");

    let totals = metrics.totals();
    let of = |name: &str| totals.iter().find(|c| c.component == name).unwrap().clone();
    let (src, triple, square) = (of("src"), of("triple"), of("square"));
    assert_eq!(src.acked, TUPLES, "every root completes, replayed or not");
    assert_eq!(src.failed, 0);
    assert!(src.replayed > 0, "the faults forced replays");
    assert!(square.injected_panics > 0, "the chained task panicked");
    assert!(
        square.restarted >= square.injected_panics,
        "the chained task restarted from its own factory"
    );
    assert!(triple.injected_drops > 0, "drops hit the chained edge, triple's only edge");
}
