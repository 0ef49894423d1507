//! Acceptance suite for the multi-process runtime: topologies spanning
//! worker processes over loopback TCP.
//!
//! The contract under test: distribution changes *where* executors run,
//! never *which* tuples arrive or what the observability layer reports.
//! Every test pins its sinks to worker 0 (the coordinator process) so
//! delivered tuples can be asserted in-process while the interior of the
//! topology runs in spawned workers.
//!
//! Worker processes re-execute this test binary with the `worker_entry`
//! filter (the rusty-fork pattern); [`worker_entry`] maps the scenario
//! name from the environment back to the same topology builder the
//! coordinator used, validated by fingerprint.

use bytes::BytesMut;
use crossbeam::channel::{bounded, Receiver};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tms_dsps::net::{run_worker, worker_scenario, WorkerHooks};
use tms_dsps::runtime::{LocalCluster, ReliabilityConfig, RuntimeConfig};
use tms_dsps::scheduler::ClusterSpec;
use tms_dsps::topology::{Parallelism, Topology, TopologyBuilder};
use tms_dsps::{
    Bolt, BoltContext, DistributedCluster, DspsError, Emitter, FaultConfig, FlightKind, Grouping,
    MigrationCoordinator, MonitorConfig, Spout, WireCodec, WireReader,
};

#[derive(Clone)]
struct Msg {
    key: u64,
    value: u64,
}

impl WireCodec for Msg {
    fn encode(&self, buf: &mut BytesMut) {
        self.key.encode(buf);
        self.value.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(Msg { key: u64::decode(r)?, value: u64::decode(r)? })
    }
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

fn spec() -> ClusterSpec {
    ClusterSpec { nodes: 2, slots_per_node: 2, cores_per_node: 2 }
}

fn two_workers() -> DistributedCluster {
    DistributedCluster::new(spec(), 2).unwrap()
}

type ValueLog = Arc<Mutex<Vec<u64>>>;

/// Terminal bolt appending each value to a shared log.
struct ValueSink {
    log: ValueLog,
}
impl Bolt<Msg> for ValueSink {
    fn process(&mut self, msg: Msg, _e: &mut dyn Emitter<Msg>) {
        self.log.lock().push(msg.value);
    }
}

fn value_sink(log: &ValueLog) -> impl Fn(usize) -> Box<dyn Bolt<Msg>> + Send + Sync + 'static {
    let log = log.clone();
    move |_| Box::new(ValueSink { log: log.clone() }) as Box<dyn Bolt<Msg>>
}

// ---------------------------------------------------------------------------
// Worker-side dispatch
// ---------------------------------------------------------------------------

/// Control subtag carrying a migration install to a remote worker.
const SUB_MIGRATE: u8 = 42;

/// The worker process entry point: spawned workers re-execute this binary
/// filtered to exactly this test. Without the worker environment it is an
/// immediate no-op, so the normal test run is unaffected.
#[test]
fn worker_entry() {
    let Some(scenario) = worker_scenario() else { return };
    let outcome = match scenario.as_str() {
        "parity" => run_worker(|_h| parity_topology(&Arc::new(Mutex::new(HashMap::new())))),
        "chaos" => run_worker(|_h| chaos_topology(&Arc::new(Mutex::new(Vec::new())))),
        "restart" => run_worker(|_h| restart_topology(&Arc::new(Mutex::new(Vec::new())))),
        "mesh" => run_worker(|_h| mesh_topology(&Arc::new(Mutex::new(Vec::new())))),
        "scrape" => run_worker(|_h| scrape_topology()),
        "migrate" => run_worker(|hooks: &mut WorkerHooks| {
            let (tx, rx) = bounded::<u64>(8);
            hooks.on_control(SUB_MIGRATE, move |payload| {
                let mut r = WireReader::new(payload);
                let _ticket = u64::decode(&mut r).expect("install frame carries a ticket id");
                let offset = u64::decode(&mut r).expect("install frame carries the offset");
                let _ = tx.send(offset);
            });
            migrate_topology(
                rx,
                &Arc::new(Mutex::new(Vec::new())),
                &Arc::new(AtomicBool::new(false)),
                &Arc::new(AtomicU64::new(u64::MAX)),
            )
        }),
        other => panic!("unknown distributed scenario {other:?}"),
    };
    outcome.expect("worker slice must drain cleanly");
}

// ---------------------------------------------------------------------------
// Parity: 2 workers ≡ one process across every grouping, batches on the wire
// ---------------------------------------------------------------------------

type EdgeLog = Arc<Mutex<HashMap<(&'static str, usize), Vec<u64>>>>;

/// Recorder preserving per-(component, task) arrival order.
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

const PARITY_TUPLES: u64 = 300;

/// src (worker 0) → relay (worker 1) fanning out over every grouping to
/// recorder sinks pinned back on worker 0, so each tuple crosses the TCP
/// link twice. A router on worker 1 covers Direct. The relay holds the
/// stream until its last tuple arrives and emits all of it in one turn, so
/// its edge buffers fill to the mid-turn cap and cross the link as batches.
fn parity_topology(log: &EdgeLog) -> Topology<Msg> {
    struct HoldThenForward(Vec<Msg>);
    impl Bolt<Msg> for HoldThenForward {
        fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
            let last = msg.value == PARITY_TUPLES - 1;
            self.0.push(msg);
            if last {
                for held in self.0.drain(..) {
                    e.emit(held);
                }
            }
        }
    }
    struct Router;
    impl Bolt<Msg> for Router {
        fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
            let task = (msg.value % 4) as usize;
            e.emit_direct(task, msg);
        }
    }
    TopologyBuilder::new("dist-parity")
        .add_spout("src", Parallelism::of(1), |_| {
            Box::new(RangeSpout { next: 0, end: PARITY_TUPLES })
        })
        .add_bolt("relay", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
            Box::new(HoldThenForward(Vec::new())) as Box<dyn Bolt<Msg>>
        })
        .add_bolt(
            "shuf",
            Parallelism::of(1),
            vec![("relay", Grouping::Shuffle)],
            recorder("shuf", log),
        )
        .add_bolt(
            "flds",
            Parallelism::of(2),
            vec![("relay", Grouping::fields(|m: &Msg| m.key))],
            recorder("flds", log),
        )
        .add_bolt("all", Parallelism::of(2), vec![("relay", Grouping::All)], recorder("all", log))
        .add_bolt("router", Parallelism::of(1), vec![("relay", Grouping::Shuffle)], |_| {
            Box::new(Router) as Box<dyn Bolt<Msg>>
        })
        .add_bolt(
            "dir",
            Parallelism::of(4),
            vec![("router", Grouping::Direct)],
            recorder("dir", log),
        )
        .build()
        .unwrap()
}

#[test]
fn batched_delivery_matches_per_tuple_across_processes() {
    let log: EdgeLog = Arc::new(Mutex::new(HashMap::new()));
    let cluster = two_workers()
        .pin("relay", 1)
        .pin("router", 1)
        .pin("shuf", 0)
        .pin("flds", 0)
        .pin("all", 0)
        .pin("dir", 0);
    cluster
        .submit("parity", parity_topology(&log), RuntimeConfig::default())
        .unwrap()
        .join()
        .unwrap();
    let distributed = log.lock().clone();

    let local_log: EdgeLog = Arc::new(Mutex::new(HashMap::new()));
    LocalCluster::new(spec())
        .unwrap()
        .submit(parity_topology(&local_log), RuntimeConfig::default())
        .unwrap()
        .join()
        .unwrap();
    let local = local_log.lock().clone();

    // Sanity on the single-process baseline before comparing against it.
    assert_eq!(local[&("shuf", 0)].len(), PARITY_TUPLES as usize);
    for ti in 0..2 {
        assert_eq!(
            local[&("all", ti)].len(),
            PARITY_TUPLES as usize,
            "All grouping broadcasts to task {ti}"
        );
    }
    let fields: usize = (0..2).map(|ti| local[&("flds", ti)].len()).sum();
    assert_eq!(fields, PARITY_TUPLES as usize);
    for ti in 0..4 {
        assert!(
            local[&("dir", ti)].iter().all(|v| (v % 4) as usize == ti),
            "direct routing honors the named task"
        );
    }

    assert_eq!(
        distributed, local,
        "crossing TCP must preserve exactly the per-edge tuple sequences"
    );
}

#[test]
fn single_worker_cluster_delegates_to_the_in_process_path() {
    // workers == 1 must behave exactly like LocalCluster::submit — no
    // sockets, no child processes, identical delivery.
    let log: EdgeLog = Arc::new(Mutex::new(HashMap::new()));
    let t = parity_topology(&log);
    let cluster = DistributedCluster::new(spec(), 1).unwrap();
    let handle = cluster.submit("parity", t, RuntimeConfig::default()).unwrap();
    assert!(handle.controller().is_none(), "no control links in-process");
    handle.join().unwrap();

    let local_log: EdgeLog = Arc::new(Mutex::new(HashMap::new()));
    let t = parity_topology(&local_log);
    LocalCluster::new(spec()).unwrap().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
    assert_eq!(&*log.lock(), &*local_log.lock(), "workers=1 is the in-process runtime");
}

// ---------------------------------------------------------------------------
// Chaos: at-least-once recovery across a lossy TCP link
// ---------------------------------------------------------------------------

const CHAOS_TUPLES: u64 = 1000;

fn chaos_topology(collected: &ValueLog) -> Topology<Msg> {
    struct Triple;
    impl Bolt<Msg> for Triple {
        fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
            e.emit(Msg { key: msg.key, value: msg.value * 3 });
        }
    }
    TopologyBuilder::new("dist-chaos")
        .add_spout("src", Parallelism::of(1), |_| {
            Box::new(RangeSpout { next: 0, end: CHAOS_TUPLES })
        })
        .add_bolt("triple", Parallelism::of(2), vec![("src", Grouping::Shuffle)], |_| {
            Box::new(Triple) as Box<dyn Bolt<Msg>>
        })
        .add_bolt("sink", Parallelism::of(1), vec![("triple", Grouping::Shuffle)], value_sink(collected))
        .build()
        .unwrap()
}

#[test]
fn chaos_drops_on_the_link_recover_at_least_once() {
    let collected: ValueLog = Arc::new(Mutex::new(Vec::new()));
    let t = chaos_topology(&collected);
    let faults = FaultConfig { panic_p: 0.0, drop_p: 0.01, delay: None, seed: 0xD15C_5EED };
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
    let cluster = two_workers().pin("triple", 1).pin("sink", 0);
    let handle = cluster.submit("chaos", t, cfg).unwrap();
    let metrics = handle.join().expect("recovery must absorb 1% link drops");

    let deduped: BTreeSet<u64> = collected.lock().iter().copied().collect();
    let expected: BTreeSet<u64> = (0..CHAOS_TUPLES).map(|v| v * 3).collect();
    assert_eq!(deduped, expected, "after dedup, a lossy link equals the loss-free run");
    assert!(collected.lock().len() as u64 >= CHAOS_TUPLES, "at-least-once: no losses");

    let totals = metrics.totals();
    let src = totals.iter().find(|c| c.component == "src").unwrap();
    assert_eq!(src.acked, CHAOS_TUPLES, "every root eventually acked over the ack link");
    assert_eq!(src.failed, 0, "no root may exhaust its replay budget");
    assert!(src.replayed > 0, "injected link drops must have forced replays");
}

// ---------------------------------------------------------------------------
// Supervised restart of a task living in a remote worker
// ---------------------------------------------------------------------------

const RESTART_TUPLES: u64 = 200;

/// Process-global one-shot fuse: the boom bolt panics exactly once per
/// process. Only the worker process hosting it ever trips it.
static PANICKED: AtomicBool = AtomicBool::new(false);

fn restart_topology(collected: &ValueLog) -> Topology<Msg> {
    struct Boom;
    impl Bolt<Msg> for Boom {
        fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
            if msg.value == 7 && !PANICKED.swap(true, Ordering::SeqCst) {
                panic!("injected remote panic");
            }
            e.emit(msg);
        }
    }
    TopologyBuilder::new("dist-restart")
        .add_spout("src", Parallelism::of(1), |_| {
            Box::new(RangeSpout { next: 0, end: RESTART_TUPLES })
        })
        .add_bolt("boom", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
            Box::new(Boom) as Box<dyn Bolt<Msg>>
        })
        .add_bolt("sink", Parallelism::of(1), vec![("boom", Grouping::Shuffle)], value_sink(collected))
        .build()
        .unwrap()
}

#[test]
fn supervised_restart_spans_the_process_boundary() {
    let collected: ValueLog = Arc::new(Mutex::new(Vec::new()));
    let t = restart_topology(&collected);
    let cfg = RuntimeConfig {
        reliability: Some(ReliabilityConfig {
            ack_timeout: Duration::from_millis(250),
            max_retries: 20,
            backoff: 1.5,
            max_pending: 256,
            max_task_restarts: 5,
        }),
        ..RuntimeConfig::default()
    };
    let cluster = two_workers().pin("boom", 1).pin("sink", 0);
    let handle = cluster.submit("restart", t, cfg).unwrap();
    let flight = handle.flight_recorder().clone();
    let metrics = handle.join().expect("the supervisor must absorb the remote panic");

    let deduped: BTreeSet<u64> = collected.lock().iter().copied().collect();
    let expected: BTreeSet<u64> = (0..RESTART_TUPLES).collect();
    assert_eq!(deduped, expected, "the panicked tuple replays through the restarted task");

    // The restart happened in worker 1's process; its counters and flight
    // events must surface in the coordinator's merged view.
    let merged = metrics.merged_totals();
    let boom = merged
        .iter()
        .find(|(w, c)| *w == Some(1) && c.component == "boom")
        .expect("remote boom counters appear under the worker-1 label");
    assert!(boom.1.restarted > 0, "the remote restart must be counted");
    assert!(
        flight
            .events()
            .iter()
            .any(|e| e.kind == FlightKind::TaskRestart && e.component == "boom"),
        "the worker's restart flight event must reach the coordinator log"
    );
}

// ---------------------------------------------------------------------------
// Mesh: a 3-worker chain exercises the worker↔worker links
// ---------------------------------------------------------------------------

const MESH_TUPLES: u64 = 500;

fn mesh_topology(collected: &ValueLog) -> Topology<Msg> {
    struct Double;
    impl Bolt<Msg> for Double {
        fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
            e.emit(Msg { key: msg.key, value: msg.value * 2 });
        }
    }
    struct Inc;
    impl Bolt<Msg> for Inc {
        fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
            e.emit(Msg { key: msg.key, value: msg.value + 1 });
        }
    }
    TopologyBuilder::new("dist-mesh")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: MESH_TUPLES }))
        .add_bolt("double", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
            Box::new(Double) as Box<dyn Bolt<Msg>>
        })
        .add_bolt("inc", Parallelism::of(1), vec![("double", Grouping::Shuffle)], |_| {
            Box::new(Inc) as Box<dyn Bolt<Msg>>
        })
        .add_bolt("sink", Parallelism::of(1), vec![("inc", Grouping::Shuffle)], value_sink(collected))
        .build()
        .unwrap()
}

#[test]
fn three_worker_chain_routes_over_the_peer_mesh() {
    let collected: ValueLog = Arc::new(Mutex::new(Vec::new()));
    let t = mesh_topology(&collected);
    // worker 0 → worker 1 → worker 2 → worker 0: the middle hop uses the
    // dialed/accepted peer links, not the coordinator star.
    let cluster = DistributedCluster::new(spec(), 3).unwrap()
        .pin("double", 1)
        .pin("inc", 2)
        .pin("sink", 0);
    cluster.submit("mesh", t, RuntimeConfig::default()).unwrap().join().unwrap();

    let mut values = collected.lock().clone();
    values.sort_unstable();
    let expected: Vec<u64> = (0..MESH_TUPLES).map(|v| v * 2 + 1).collect();
    assert_eq!(values, expected, "every tuple survives both mesh hops exactly once");
}

// ---------------------------------------------------------------------------
// Elastic: a migration install shipped over the control link
// ---------------------------------------------------------------------------

const MIGRATE_OFFSET: u64 = 1_000_000;
const MIGRATE_TAIL: u64 = 100;
const MIGRATE_CAP: u64 = 100_000;

/// Emits values until the install visibly applied (a shifted value reached
/// the sink), then exactly [`MIGRATE_TAIL`] more — those are guaranteed
/// post-install. `tail_start` reports where the tail began.
struct MigrateSpout {
    emitted: u64,
    tail_left: Option<u64>,
    migrated: Arc<AtomicBool>,
    tail_start: Arc<AtomicU64>,
}
impl Spout<Msg> for MigrateSpout {
    fn next(&mut self) -> Option<Msg> {
        if let Some(left) = &mut self.tail_left {
            if *left == 0 {
                return None;
            }
            *left -= 1;
        } else if self.migrated.load(Ordering::SeqCst) {
            self.tail_start.store(self.emitted, Ordering::SeqCst);
            self.tail_left = Some(MIGRATE_TAIL - 1); // this call emits the first tail value
        } else if self.emitted >= MIGRATE_CAP {
            return None; // safety bound: the install never applied
        }
        let v = self.emitted;
        self.emitted += 1;
        if v.is_multiple_of(512) {
            // Yield so the control frame and the sink's observation can
            // overtake the stream on a single-core box.
            std::thread::sleep(Duration::from_millis(1));
        }
        Some(Msg { key: v % 7, value: v })
    }
}

fn migrate_topology(
    installs: Receiver<u64>,
    log: &ValueLog,
    migrated: &Arc<AtomicBool>,
    tail_start: &Arc<AtomicU64>,
) -> Topology<Msg> {
    /// The migrating stateful task: adds the installed offset (0 until an
    /// install arrives over the control link).
    struct Xform {
        offset: u64,
        installs: Receiver<u64>,
    }
    impl Bolt<Msg> for Xform {
        fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
            while let Ok(o) = self.installs.try_recv() {
                self.offset = o;
            }
            e.emit(Msg { key: msg.key, value: msg.value + self.offset });
        }
    }
    struct MigrateSink {
        log: ValueLog,
        migrated: Arc<AtomicBool>,
    }
    impl Bolt<Msg> for MigrateSink {
        fn process(&mut self, msg: Msg, _e: &mut dyn Emitter<Msg>) {
            if msg.value >= MIGRATE_OFFSET {
                self.migrated.store(true, Ordering::SeqCst);
            }
            self.log.lock().push(msg.value);
        }
    }
    let spout_migrated = migrated.clone();
    let spout_tail = tail_start.clone();
    let sink_log = log.clone();
    let sink_migrated = migrated.clone();
    TopologyBuilder::new("dist-migrate")
        .add_spout("src", Parallelism::of(1), move |_| {
            Box::new(MigrateSpout {
                emitted: 0,
                tail_left: None,
                migrated: spout_migrated.clone(),
                tail_start: spout_tail.clone(),
            })
        })
        .add_bolt("xform", Parallelism::of(1), vec![("src", Grouping::Shuffle)], move |_| {
            Box::new(Xform { offset: 0, installs: installs.clone() }) as Box<dyn Bolt<Msg>>
        })
        .add_bolt("sink", Parallelism::of(1), vec![("xform", Grouping::Shuffle)], move |_| {
            Box::new(MigrateSink { log: sink_log.clone(), migrated: sink_migrated.clone() })
                as Box<dyn Bolt<Msg>>
        })
        .build()
        .unwrap()
}

#[test]
fn migration_install_crosses_the_tcp_boundary() {
    let log: ValueLog = Arc::new(Mutex::new(Vec::new()));
    let migrated = Arc::new(AtomicBool::new(false));
    let tail_start = Arc::new(AtomicU64::new(u64::MAX));
    // xform runs on worker 1, so the local receiver half is never polled.
    let (_unused_tx, rx) = bounded::<u64>(1);
    let t = migrate_topology(rx, &log, &migrated, &tail_start);
    let cluster = two_workers().pin("xform", 1).pin("sink", 0);
    let handle = cluster.submit("migrate", t, RuntimeConfig::default()).unwrap();

    // The coordinator-side migration machinery: the redirect claims the
    // install and frames it onto worker 1's control link instead of a
    // local mailbox.
    let controller = handle.controller().expect("multi-process runs expose the controller");
    let mc = MigrationCoordinator::<u64, u64>::new();
    mc.set_recorder(handle.flight_recorder().clone());
    mc.set_install_redirect(move |_to, ticket, offset: &u64| {
        let mut buf = BytesMut::new();
        ticket.encode(&mut buf);
        offset.encode(&mut buf);
        controller.send_control(1, SUB_MIGRATE, &buf.freeze()[..]).is_ok()
    });
    let ticket = mc.request(0, 0, 0u64);
    mc.post_install(0, ticket, MIGRATE_OFFSET);

    let flight = handle.flight_recorder().clone();
    handle.join().unwrap();

    let start = tail_start.load(Ordering::SeqCst);
    assert_ne!(start, u64::MAX, "the install must visibly apply before the stream's cap");
    let values: BTreeSet<u64> = log.lock().iter().copied().collect();
    for v in start..start + MIGRATE_TAIL {
        assert!(
            values.contains(&(v + MIGRATE_OFFSET)),
            "post-install value {v} must arrive shifted (install applied in worker 1)"
        );
    }
    assert_eq!(log.lock().len() as u64, start + MIGRATE_TAIL, "no tuple lost around the install");
    assert!(
        flight.events().iter().any(|e| {
            e.kind == FlightKind::MigrationCompleted && e.detail.contains("remote worker")
        }),
        "the redirect must record the ticket as shipped to the remote worker"
    );
}

// ---------------------------------------------------------------------------
// Merged metrics: remote counters appear in the coordinator scrape
// ---------------------------------------------------------------------------

const SCRAPE_TUPLES: u64 = 4000;

fn scrape_topology() -> Topology<Msg> {
    struct SlowSink;
    impl Bolt<Msg> for SlowSink {
        fn process(&mut self, _msg: Msg, _e: &mut dyn Emitter<Msg>) {
            std::thread::sleep(Duration::from_micros(300));
        }
    }
    TopologyBuilder::new("dist-scrape")
        .add_spout("src", Parallelism::of(1), |_| {
            Box::new(RangeSpout { next: 0, end: SCRAPE_TUPLES })
        })
        .add_bolt("rcep", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
            Box::new(SlowSink) as Box<dyn Bolt<Msg>>
        })
        .build()
        .unwrap()
}

#[test]
fn remote_bolt_counters_appear_in_the_merged_scrape() {
    let t = scrape_topology();
    let cfg = RuntimeConfig {
        monitor: Some(MonitorConfig {
            window: Duration::from_millis(50),
            expose: Some(0),
            ..MonitorConfig::default()
        }),
        ..RuntimeConfig::default()
    };
    let cluster = two_workers().pin("rcep", 1);
    let handle = cluster.submit("scrape", t, cfg).unwrap();
    let addr = handle.scrape_addr().expect("expose binds on the coordinator");

    let get = |path: &str| -> String {
        let mut s = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(_) => return String::new(),
        };
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n");
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    };

    // Worker 1 pushes its totals every 200 ms; the slow remote bolt keeps
    // the run alive long enough to observe the merge mid-run.
    let deadline = Instant::now() + Duration::from_secs(15);
    let (mut prom_seen, mut json_seen) = (false, false);
    while Instant::now() < deadline && !(prom_seen && json_seen) {
        let prom = get("/metrics");
        // Once any remote worker reported, every sample carries a worker
        // label — the coordinator's own rows under worker="0".
        prom_seen = prom.contains("tms_processed_total{component=\"rcep\",worker=\"1\"}")
            && prom.contains("component=\"src\",worker=\"0\"");
        let json = get("/json");
        json_seen = json.contains("\"worker\":1,\"component\":\"rcep\"");
        std::thread::sleep(Duration::from_millis(50));
    }

    let metrics = handle.join().unwrap();
    assert!(prom_seen, "/metrics must label the remote bolt's counters with its worker");
    assert!(json_seen, "/json must label the remote bolt's counters with its worker");

    // Backstop on the final merged view: the remote component's full
    // throughput is visible from the coordinator.
    let merged = metrics.merged_totals();
    let rcep = merged
        .iter()
        .find(|(w, c)| *w == Some(1) && c.component == "rcep")
        .expect("remote rcep totals appear under the worker-1 label");
    assert_eq!(rcep.1.throughput, SCRAPE_TUPLES, "the merged view carries the full remote count");
    assert!(
        merged.iter().any(|(w, c)| *w == Some(0) && c.component == "src"),
        "local rows are tagged worker 0 once remote rows exist"
    );
}
