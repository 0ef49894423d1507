//! Acceptance suite for the buffered data plane.
//!
//! Every emitter buffers per edge and a buffer lives for one executor
//! turn, so a backlog travels as batches and an idle plane tuple by tuple.
//! The contract under test: how tuples are packed never changes *which*
//! tuples move or their per-edge order; nothing is held while an executor
//! blocks or a spout sleeps; a task's queue is bounded in tuples. Batches
//! must compose with every other runtime layer — reliability/chaos
//! recovery, and the monitor's gauges and histograms (which stay
//! tuple-granular).

use parking_lot::Mutex;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tms_dsps::runtime::{LocalCluster, ReliabilityConfig, RuntimeConfig};
use tms_dsps::scheduler::ClusterSpec;
use tms_dsps::topology::{Parallelism, TopologyBuilder};
use tms_dsps::{
    chaos_wrap, Bolt, BoltContext, ComponentWindow, Emitter, FaultConfig, Grouping,
    LineageConfig, MonitorConfig, Spout,
};

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

fn cluster() -> LocalCluster {
    LocalCluster::new(ClusterSpec { nodes: 2, slots_per_node: 2, cores_per_node: 4 }).unwrap()
}

// ---------------------------------------------------------------------------
// Batches behind a backlog deliver what a per-tuple oracle predicts
// ---------------------------------------------------------------------------

type EdgeLog = Arc<Mutex<HashMap<(&'static str, usize), Vec<u64>>>>;

/// Terminal bolt that appends each value to its own (component, task) edge
/// log, preserving arrival order.
struct Recorder {
    name: &'static str,
    task: usize,
    log: EdgeLog,
}
impl Bolt<Msg> for Recorder {
    fn prepare(&mut self, _ctx: BoltContext) {}
    fn process(&mut self, msg: Msg, _e: &mut dyn Emitter<Msg>) {
        self.log.lock().entry((self.name, self.task)).or_default().push(msg.value);
    }
}

fn recorder(
    name: &'static str,
    log: &EdgeLog,
) -> impl Fn(usize) -> Box<dyn Bolt<Msg>> + Send + Sync + 'static {
    let log = log.clone();
    move |task| Box::new(Recorder { name, task, log: log.clone() }) as Box<dyn Bolt<Msg>>
}

/// Passes tuples on (`direct`: to task `value % 4`), but holds its first
/// one until the spout is exhausted: every later turn of its executor
/// finds a backlog and drains a full step budget, so its edge buffers
/// fill — to the mid-turn cap on a single-target edge.
struct Backlogged {
    spout_done: Arc<AtomicBool>,
    direct: bool,
}
impl Bolt<Msg> for Backlogged {
    fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
        while !self.spout_done.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        if self.direct {
            e.emit_direct((msg.value % 4) as usize, msg);
        } else {
            e.emit(msg);
        }
    }
}

/// Below the default channel capacity: the spout must be able to finish
/// while the backlogged bolts hold their first tuple.
const GROUPING_TUPLES: u64 = 600;

/// One spout fans out to a sink per grouping; a router bolt covers Direct
/// and a forwarder a second shuffle hop, both behind a backlog.
/// Every producer is a single task, so each (producer task → consumer task)
/// edge has a deterministic tuple order.
fn run_all_groupings() -> HashMap<(&'static str, usize), Vec<u64>> {
    struct FlaggingSpout {
        inner: RangeSpout,
        done: Arc<AtomicBool>,
    }
    impl Spout<Msg> for FlaggingSpout {
        fn next(&mut self) -> Option<Msg> {
            let msg = self.inner.next();
            if msg.is_none() {
                self.done.store(true, Ordering::Release);
            }
            msg
        }
    }
    let spout_done = Arc::new(AtomicBool::new(false));
    let backlogged = |direct: bool| {
        let spout_done = spout_done.clone();
        move |_: usize| Box::new(Backlogged { spout_done: spout_done.clone(), direct }) as Box<dyn Bolt<Msg>>
    };

    let log: EdgeLog = Arc::new(Mutex::new(HashMap::new()));
    let done = spout_done.clone();
    let t = TopologyBuilder::new("groupings")
        .add_spout("src", Parallelism::of(1), move |_| {
            Box::new(FlaggingSpout {
                inner: RangeSpout { next: 0, end: GROUPING_TUPLES },
                done: done.clone(),
            })
        })
        .add_bolt("shuf", Parallelism::of(1), vec![("src", Grouping::Shuffle)], recorder("shuf", &log))
        .add_bolt(
            "flds",
            Parallelism::of(2),
            vec![("src", Grouping::fields(|m: &Msg| m.key))],
            recorder("flds", &log),
        )
        .add_bolt("all", Parallelism::of(2), vec![("src", Grouping::All)], recorder("all", &log))
        .add_bolt("router", Parallelism::of(1), vec![("src", Grouping::Shuffle)], backlogged(true))
        .add_bolt("dir", Parallelism::of(4), vec![("router", Grouping::Direct)], recorder("dir", &log))
        .add_bolt("fwd", Parallelism::of(1), vec![("src", Grouping::Shuffle)], backlogged(false))
        .add_bolt("hop2", Parallelism::of(1), vec![("fwd", Grouping::Shuffle)], recorder("hop2", &log))
        .build()
        .unwrap();
    cluster().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
    Arc::try_unwrap(log).expect("all tasks joined").into_inner()
}

#[test]
fn batched_delivery_matches_per_tuple_for_every_grouping() {
    // The oracle routes tuple by tuple: what each grouping hands each task,
    // in emission order. Every edge has one producer task, so the delivered
    // sequences must equal it exactly, however the backlog was packed.
    let mut oracle: HashMap<(&'static str, usize), Vec<u64>> = HashMap::new();
    for v in 0..GROUPING_TUPLES {
        for edge in [("shuf", 0), ("hop2", 0), ("all", 0), ("all", 1)] {
            oracle.entry(edge).or_default().push(v);
        }
        oracle.entry(("flds", (v % 13 % 2) as usize)).or_default().push(v);
        oracle.entry(("dir", (v % 4) as usize)).or_default().push(v);
    }
    assert_eq!(run_all_groupings(), oracle);
}

// ---------------------------------------------------------------------------
// Flush rules: nothing is held while an executor blocks or a spout sleeps
// ---------------------------------------------------------------------------

/// How long a test waits for something that must happen before it calls
/// the plane stuck.
const WATCHDOG: Duration = Duration::from_secs(20);

/// Emits tuple k+1 only once the sink confirmed tuple k, waiting for the
/// confirmation *inside* `next` — alive but silent, like a paced source
/// sleeping out its schedule.
struct LockstepSpout {
    next: u64,
    end: u64,
    confirmed: Receiver<u64>,
}
impl Spout<Msg> for LockstepSpout {
    fn next(&mut self) -> Option<Msg> {
        if self.next > 0 {
            let seen = self.confirmed.recv_timeout(WATCHDOG).expect("a tuple was stranded");
            assert_eq!(seen, self.next - 1);
        }
        if self.next >= self.end {
            return None;
        }
        let v = self.next;
        self.next += 1;
        Some(Msg { key: v, value: v })
    }
}

struct Forward;
impl Bolt<Msg> for Forward {
    fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
        e.emit(msg);
    }
}

struct ConfirmingSink(Sender<u64>);
impl Bolt<Msg> for ConfirmingSink {
    fn process(&mut self, msg: Msg, _e: &mut dyn Emitter<Msg>) {
        self.0.send(msg.value).unwrap();
    }
}

/// Low load: each tuple must cross spout → two bolts → sink with no
/// further input behind it to push it along, while the spout sits in
/// `next` and every bolt executor sits in its blocking receive (`middle`
/// 1:1) or its `Select` (`middle` two tasks on one executor).
fn run_lockstep(middle: Parallelism) {
    const TUPLES: u64 = 40;
    let (confirm_tx, confirm_rx) = bounded::<u64>(1);
    let t = TopologyBuilder::new("lockstep")
        .add_spout("src", Parallelism::of(1), move |_| {
            Box::new(LockstepSpout { next: 0, end: TUPLES, confirmed: confirm_rx.clone() })
        })
        .add_bolt("a", middle, vec![("src", Grouping::Shuffle)], |_| Box::new(Forward))
        .add_bolt("b", middle, vec![("a", Grouping::Shuffle)], |_| Box::new(Forward))
        .add_bolt("sink", Parallelism::of(1), vec![("b", Grouping::Shuffle)], move |_| {
            Box::new(ConfirmingSink(confirm_tx.clone()))
        })
        .build()
        .unwrap();
    let metrics = cluster().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
    let sink = metrics.totals().into_iter().find(|c| c.component == "sink").unwrap();
    assert_eq!(sink.throughput, TUPLES);
}

#[test]
fn a_lone_tuple_reaches_the_sink_while_the_spout_sleeps_in_next() {
    run_lockstep(Parallelism::of(1));
}

#[test]
fn a_lone_tuple_reaches_the_sink_through_shared_executors() {
    run_lockstep(Parallelism { tasks: 2, executors: 1 });
}

/// Emits, optionally flushes, then waits inside `process` for the sink to
/// have seen the tuple — the shape of the elastic drain barrier.
struct EmitThenWait {
    flush: bool,
    seen: Receiver<u64>,
    outcome: Sender<bool>,
}
impl Bolt<Msg> for EmitThenWait {
    fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
        e.emit(msg);
        let wait = if self.flush {
            e.flush();
            WATCHDOG
        } else {
            Duration::from_millis(200)
        };
        self.outcome.send(self.seen.recv_timeout(wait).is_ok()).unwrap();
    }
}

fn sink_sees_the_tuple_mid_process(flush: bool) -> bool {
    let (seen_tx, seen_rx) = bounded::<u64>(1);
    // Outlives the waiter, so a sink that runs after it still has a peer.
    let seen_kept = seen_rx.clone();
    let (outcome_tx, outcome_rx) = bounded::<bool>(1);
    let t = TopologyBuilder::new("emit-then-wait")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 1 }))
        .add_bolt("waiter", Parallelism::of(1), vec![("src", Grouping::Shuffle)], move |_| {
            Box::new(EmitThenWait { flush, seen: seen_rx.clone(), outcome: outcome_tx.clone() })
        })
        .add_bolt("sink", Parallelism::of(1), vec![("waiter", Grouping::Shuffle)], move |_| {
            Box::new(ConfirmingSink(seen_tx.clone()))
        })
        .build()
        .unwrap();
    cluster().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
    drop(seen_kept);
    outcome_rx.try_recv().expect("the waiter processed its tuple")
}

#[test]
fn flush_hands_the_emitted_tuple_over_before_the_bolt_waits_on_its_receiver() {
    assert!(sink_sees_the_tuple_mid_process(true), "flush() must send what was emitted");
    // Why `SplitterBolt::run_migrations` flushes behind its drain barrier:
    // an emit alone stays in the edge buffer until `process` returns.
    assert!(!sink_sees_the_tuple_mid_process(false), "emit() alone sends at the end of the turn");
}

// ---------------------------------------------------------------------------
// Backpressure: a task's queue is bounded in tuples, not packets
// ---------------------------------------------------------------------------

const STALLED_TUPLES: u64 = 20_000;
const STALLED_CAPACITY: usize = 100;
/// Where the vendored channel wakes a parked sender.
const STALLED_LOW_WATER: u64 = STALLED_CAPACITY as u64 / 2;

/// A stalled sink behind a forwarder, traced: the forwarder's edge buffer
/// carries up to 64 tuples per packet, and the sink's channel must stop
/// admitting them once it holds `STALLED_CAPACITY` *tuples*. (Counted in
/// packets it took `STALLED_CAPACITY` × 64 tuples, which is how the
/// resequencer's window overran.) Returns the deepest queue seen on one
/// task while the pipeline was wedged, and the run's totals.
fn run_behind_a_stalled_consumer() -> (u64, Vec<ComponentWindow>) {
    struct StalledSink(Arc<AtomicBool>);
    impl Bolt<Msg> for StalledSink {
        fn process(&mut self, _msg: Msg, _e: &mut dyn Emitter<Msg>) {
            while !self.0.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    let release = Arc::new(AtomicBool::new(false));
    let gate = release.clone();
    let t = TopologyBuilder::new("stalled")
        .add_spout("src", Parallelism::of(1), |_| {
            Box::new(RangeSpout { next: 0, end: STALLED_TUPLES })
        })
        .add_bolt("fwd", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| Box::new(Forward))
        .add_bolt("sink", Parallelism::of(1), vec![("fwd", Grouping::Shuffle)], move |_| {
            Box::new(StalledSink(gate.clone()))
        })
        .build()
        .unwrap();
    let cfg = RuntimeConfig {
        channel_capacity: STALLED_CAPACITY,
        monitor: Some(MonitorConfig {
            window: Duration::from_secs(3600),
            // Every tree sampled: the sink's end-to-end count is per tuple.
            lineage: Some(LineageConfig::full()),
            ..MonitorConfig::default()
        }),
        ..RuntimeConfig::default()
    };
    let handle = cluster().submit(t, cfg).unwrap();
    let metrics = handle.metrics().clone();
    // The pipeline is wedged once the spout stopped emitting behind a
    // parked forwarder (a counter that merely holds still may belong to a
    // thread the scheduler starved). A sender that found the sink's channel
    // full stays parked until it has drained to half its capacity, so at
    // rest more than that is queued; the upper bound holds at every
    // instant, so the deepest queue is the maximum over all samples.
    let emitted = || metrics.totals().iter().find(|c| c.component == "src").unwrap().emitted;
    let deadline = Instant::now() + WATCHDOG;
    let (mut last, mut still, mut deepest) = (0, 0, 0);
    while still < 50 || deepest <= STALLED_LOW_WATER {
        assert!(Instant::now() < deadline, "the spout never backed up: deepest queue {deepest}");
        std::thread::sleep(Duration::from_millis(2));
        let now = emitted();
        still = if now == last && now > 0 { still + 1 } else { 0 };
        last = now;
        let depths = metrics.sample();
        let queued = depths.iter().filter(|w| w.component == "sink" || w.component == "fwd");
        deepest = deepest.max(queued.map(|w| w.queue_depth).max().unwrap());
    }
    assert!(last < STALLED_TUPLES, "backpressure must reach the spout, which emitted all {last}");
    release.store(true, Ordering::Release);
    (deepest, handle.join().unwrap().totals())
}

#[test]
fn a_stalled_consumer_queues_at_most_capacity_plus_one_edge_buffer() {
    // A send is admitted below 100 queued tuples; an edge is sent at 64.
    let (deepest, _) = run_behind_a_stalled_consumer();
    assert!(deepest > STALLED_LOW_WATER, "the forwarder never parked: {deepest}");
    assert!(deepest < 100 + 64, "{deepest} tuples queued on one task");
}

// ---------------------------------------------------------------------------
// Chaos: recovery heals faults injected into batches
// ---------------------------------------------------------------------------

#[test]
fn chaos_run_with_batching_matches_failure_free_run_after_dedup() {
    const TUPLES: u64 = 1000;
    let collected: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    struct Sink {
        collected: Arc<Mutex<Vec<u64>>>,
    }
    impl Bolt<Msg> for Sink {
        fn process(&mut self, msg: Msg, _e: &mut dyn Emitter<Msg>) {
            self.collected.lock().push(msg.value);
        }
    }
    // The `triple` tasks hold their input until the spouts have queued a
    // backlog behind it (`max_pending` lets each of the two run 256 ahead),
    // so they drain full turns and their outputs travel as batches.
    const BACKLOG: u64 = 300;
    struct CountingSpout {
        inner: RangeSpout,
        emitted: Arc<AtomicU64>,
    }
    impl Spout<Msg> for CountingSpout {
        fn next(&mut self) -> Option<Msg> {
            let msg = self.inner.next();
            if msg.is_some() {
                self.emitted.fetch_add(1, Ordering::Release);
            }
            msg
        }
    }
    struct Triple(Arc<AtomicU64>);
    impl Bolt<Msg> for Triple {
        fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
            while self.0.load(Ordering::Acquire) < BACKLOG {
                std::thread::yield_now();
            }
            e.emit(Msg { key: msg.key, value: msg.value * 3 });
        }
    }
    let emitted = Arc::new(AtomicU64::new(0));
    let seen = emitted.clone();
    let transform = move |_: usize| Box::new(Triple(seen.clone())) as Box<dyn Bolt<Msg>>;
    let faults = FaultConfig { panic_p: 0.01, drop_p: 0.01, delay: None, seed: 0xBA7C_5EED };
    let chaotic = chaos_wrap(transform, faults);

    let sink_collected = collected.clone();
    let half = TUPLES / 2;
    let t = TopologyBuilder::new("chaos-batched")
        .add_spout("src", Parallelism::of(2), move |ti| {
            Box::new(CountingSpout {
                inner: RangeSpout { next: ti as u64 * half, end: (ti as u64 + 1) * half },
                emitted: emitted.clone(),
            })
        })
        .add_bolt("triple", Parallelism::of(2), vec![("src", Grouping::Shuffle)], chaotic)
        .add_bolt("sink", Parallelism::of(1), vec![("triple", Grouping::Shuffle)], move |_| {
            Box::new(Sink { collected: sink_collected.clone() }) as Box<dyn Bolt<Msg>>
        })
        .build()
        .unwrap();
    let cfg = RuntimeConfig {
        fault: Some(faults),
        reliability: Some(ReliabilityConfig {
            ack_timeout: Duration::from_millis(250),
            max_retries: 20,
            backoff: 1.5,
            max_pending: 256,
            max_task_restarts: 200,
        }),
        ..RuntimeConfig::default()
    };
    let handle = cluster().submit(t, cfg).unwrap();
    let metrics = handle.metrics().clone();
    handle.join().expect("recovery must absorb injected faults");

    let deduped: BTreeSet<u64> = collected.lock().iter().copied().collect();
    let expected: BTreeSet<u64> = (0..TUPLES).map(|v| v * 3).collect();
    assert_eq!(deduped, expected, "after dedup, the chaos run equals the failure-free run");
    assert!(collected.lock().len() as u64 >= TUPLES, "at-least-once: no losses");

    let totals = metrics.totals();
    let src = totals.iter().find(|c| c.component == "src").unwrap();
    assert_eq!(src.acked, TUPLES, "every root eventually acked");
    assert_eq!(src.failed, 0, "no root may exhaust its replay budget");
    assert!(src.replayed > 0, "injected faults must have forced replays");
    let triple = totals.iter().find(|c| c.component == "triple").unwrap();
    assert!(triple.restarted > 0, "injected panics must have forced restarts");
}

// ---------------------------------------------------------------------------
// Observability: gauges and histograms stay tuple-granular
// ---------------------------------------------------------------------------

#[test]
fn tracing_under_batching_stays_tuple_granular() {
    let (deepest, totals) = run_behind_a_stalled_consumer();
    // The wedged sink channel held a few packets of up to 64 tuples.
    assert!(
        deepest > STALLED_LOW_WATER,
        "queue gauge counts tuples, not packets: deepest observed {deepest}"
    );
    let sink = totals.iter().find(|c| c.component == "sink").unwrap();
    assert_eq!(sink.e2e.count(), STALLED_TUPLES, "one end-to-end sample per tuple, not per batch");
    assert_eq!(sink.throughput, STALLED_TUPLES, "processed counters are per tuple");
    let src = totals.iter().find(|c| c.component == "src").unwrap();
    assert_eq!(src.emitted, STALLED_TUPLES, "emit counters are per tuple");
    let fwd = totals.iter().find(|c| c.component == "fwd").unwrap();
    assert_eq!(fwd.emitted, STALLED_TUPLES, "emit counters are per tuple behind the backlog");
}
