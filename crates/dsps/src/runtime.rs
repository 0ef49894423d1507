//! The local execution runtime: executor threads, channels, routing,
//! end-of-stream termination and panic containment.
//!
//! This module holds the configuration, [`LocalCluster::submit`] (which
//! wires channels, routes and executors), the monitor thread and the
//! [`TopologyHandle`]. What a task sends and when is the data plane
//! (`emitter.rs`); what an executor thread does with its tasks is the loop
//! (`executor.rs`).
//!
//! Every task owns a bounded input channel; emitting to a full channel
//! blocks, which gives the same backpressure a saturated Storm deployment
//! exhibits. When all spout tasks are exhausted, end-of-stream markers
//! propagate edge-by-edge: a bolt task finishes once it has received one
//! marker from every upstream task on every incoming edge, flushes via
//! [`Bolt::finish`](crate::topology::Bolt::finish), forwards its own markers,
//! and exits.
//!
//! # Reliability (at-least-once delivery)
//!
//! By default delivery is at-most-once and any task panic fails the
//! topology. Setting [`RuntimeConfig::reliability`] enables Storm's
//! guaranteed message processing instead:
//!
//! * every spout tuple becomes the **root** of a tuple tree tracked by the
//!   XOR acker; the runtime registers each downstream delivery before
//!   sending it and acks it after the receiving bolt's `process` returns
//!   (outputs are anchored to the input's roots automatically — Storm's
//!   `BasicBolt` discipline, so the [`Bolt`](crate::topology::Bolt) trait
//!   is unchanged);
//! * each spout task keeps a **pending buffer** of unacked tuples; a tree
//!   that does not complete within `ack_timeout` is abandoned and the
//!   tuple replayed under a fresh root with exponential backoff, up to
//!   `max_retries` times — after which the root is counted `failed` and
//!   dropped so the topology still terminates;
//! * a **supervisor** catches bolt-task panics, re-invokes the component
//!   factory to rebuild the task in place (up to `max_task_restarts`
//!   per task) and keeps consuming; the tuple that was being processed is
//!   never acked, so the spout replays it;
//! * an executor that fails for good ends the run: the spouts abandon
//!   their pending roots, count them `failed` and send end-of-stream at
//!   once, instead of replaying into a task that no longer exists.
//!
//! Replays mean *duplicates are possible*: exactly-once is the consumer's
//! job (dedup on a message key), as in Storm 0.8 without Trident.

use crate::ack::{AckSink, Acker};
use crate::durability::{DurabilityConfig, StateStore};
pub use crate::emitter::Emitter;
use crate::emitter::{Packet, Route, TaskEmitter};
use crate::error::DspsError;
use crate::executor::{panic_text, run_bolt_executor, run_spout_executor, BoltTask, SpoutTask};
use crate::fault::FaultConfig;
use crate::flight::{FlightKind, FlightRecorder};
use crate::lineage::TraceCollector;
use crate::metrics::{MetricsHub, MonitorConfig, TaskCounters};
use crate::scheduler::{assign, Assignment, ClusterSpec};
use crate::topology::{BoltContext, Topology};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// At-least-once delivery and supervised recovery parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityConfig {
    /// How long a spout waits for a tuple tree to complete before
    /// abandoning the root and replaying the tuple.
    pub ack_timeout: Duration,
    /// Replays per tuple before the root is abandoned as failed.
    pub max_retries: u32,
    /// Timeout multiplier applied per retry (exponential backoff).
    pub backoff: f64,
    /// Max in-flight (unacked) roots per spout task; `Spout::next` is not
    /// called while the buffer is full — Storm's `max.spout.pending`.
    pub max_pending: usize,
    /// Supervised restarts of a panicking bolt task before the topology
    /// fails with [`DspsError::TaskRestartsExhausted`].
    pub max_task_restarts: u32,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            ack_timeout: Duration::from_secs(30),
            max_retries: 5,
            backoff: 2.0,
            max_pending: 1024,
            max_task_restarts: 3,
        }
    }
}

/// Runtime configuration for [`LocalCluster::submit`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Capacity of each task's input channel, in tuples: a send is
    /// admitted while fewer are queued, so a channel holds less than this
    /// plus one edge buffer.
    pub channel_capacity: usize,
    /// Number of worker processes to model; defaults to one per node.
    pub workers: Option<usize>,
    /// Metrics monitor window; `None` disables the monitor thread (metrics
    /// can still be sampled manually through the handle).
    pub monitor: Option<MonitorConfig>,
    /// At-least-once machinery (acker + replay + supervised restarts);
    /// `None` keeps the default fail-fast, at-most-once runtime.
    pub reliability: Option<ReliabilityConfig>,
    /// Transport-level fault injection (seeded message drops). Panic and
    /// latency injection wrap individual bolts via
    /// [`chaos_wrap`](crate::fault::chaos_wrap) instead.
    pub fault: Option<FaultConfig>,
    /// Durable bolt state (snapshot + changelog per task, see
    /// [`durability`](crate::durability)); `None` keeps tasks ephemeral —
    /// a restarted task (supervised or resubmitted) starts empty.
    pub durability: Option<DurabilityConfig>,
    /// Control-plane flight recorder to use. `None` (the default) creates
    /// one — the recorder is always on. Provide your own to share its
    /// timeline with components outside the runtime (e.g. a rebalancer
    /// control thread or domain bolts recording custom events).
    pub flight: Option<Arc<FlightRecorder>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            channel_capacity: 1024,
            workers: None,
            monitor: None,
            reliability: None,
            fault: None,
            durability: None,
            flight: None,
        }
    }
}

/// A local task's wire ingress point: where the net layer injects
/// packets that arrived from a remote worker.
pub(crate) struct LocalIngress<T> {
    /// The task's input channel (the same one local producers use, so
    /// per-link FIFO and EOS quorum counting are location-independent).
    pub(crate) tx: Sender<Packet<T>>,
    /// The task's occupancy gauge; the ingress bumps it exactly like a
    /// local producer would.
    pub(crate) depth: Arc<AtomicI64>,
    /// Whether gauges are live (tracing mode).
    pub(crate) tracing: bool,
}

/// The runtime's seam to the multi-process wire layer.
///
/// `submit_inner` resolves every (route, task) target at build time:
/// local targets keep their channel, remote targets get a *relay*
/// channel from this plane — bounded like a task input channel, so
/// backpressure propagates across the process boundary. The plane drains
/// relays onto peer links and injects arriving packets through the
/// registered ingress map.
pub(crate) trait RemoteDataPlane<T>: Send + Sync {
    /// The relay channel feeding remote task `dest_global` on `worker`.
    /// Called once per (worker, task) during topology build; all local
    /// producers share the returned sender via clone.
    fn remote_sender(&self, worker: usize, dest_global: u32, capacity: usize) -> Sender<Packet<T>>;

    /// Hands the plane this process's ingress map (global task id →
    /// input channel) before any executor starts.
    fn register_ingress(&self, map: HashMap<u32, LocalIngress<T>>);
}

/// Distribution context for one process of a multi-process topology;
/// `None` in [`LocalCluster::submit`] keeps the single-process runtime
/// byte-identical (no relays, no plane, the concrete [`Acker`]).
pub(crate) struct DistCtx<T> {
    /// This process's worker id (0 = coordinator).
    pub(crate) worker: usize,
    /// The coordinator-computed assignment every process agrees on.
    pub(crate) assignment: Assignment,
    /// The wire layer's data plane.
    pub(crate) plane: Arc<dyn RemoteDataPlane<T>>,
    /// Builds the ack sink (reliability mode): the real acker on the
    /// coordinator, a forwarder on workers. Receives the spout completion
    /// senders (spouts are pinned to the coordinator, so only the real
    /// acker ever uses them).
    #[allow(clippy::type_complexity)]
    pub(crate) make_ack:
        Box<dyn FnOnce(Vec<Sender<(u64, Instant)>>) -> Arc<dyn AckSink> + Send>,
}

/// A local, threaded stand-in for a Storm cluster.
pub struct LocalCluster {
    spec: ClusterSpec,
}

impl LocalCluster {
    /// Creates a cluster model.
    pub fn new(spec: ClusterSpec) -> Result<Self, DspsError> {
        spec.validate()?;
        Ok(LocalCluster { spec })
    }

    /// The cluster spec.
    pub fn spec(&self) -> ClusterSpec {
        self.spec
    }

    /// Submits a topology and starts executing it on real threads.
    pub fn submit<T: Clone + Send + Sync + 'static>(
        &self,
        topology: Topology<T>,
        config: RuntimeConfig,
    ) -> Result<TopologyHandle, DspsError> {
        self.submit_inner(topology, config, None)
    }

    /// The real submit: builds channels, routes and executors for the
    /// tasks this process owns. With `dist: None` (the public
    /// [`submit`](LocalCluster::submit)) every task is local and the body
    /// reduces to the original single-process runtime — no relay
    /// channels, no plane calls, no extra syscalls or threads. With a
    /// [`DistCtx`], remote targets resolve to the plane's relay channels
    /// and only the local executor slice is spawned.
    pub(crate) fn submit_inner<T: Clone + Send + Sync + 'static>(
        &self,
        topology: Topology<T>,
        config: RuntimeConfig,
        dist: Option<DistCtx<T>>,
    ) -> Result<TopologyHandle, DspsError> {
        let workers = config.workers.unwrap_or_else(|| self.spec.default_workers());
        let components: Vec<(&str, usize, usize)> = topology
            .spouts
            .iter()
            .map(|s| (s.name.as_str(), s.parallelism.tasks, s.parallelism.executors))
            .chain(
                topology
                    .bolts
                    .iter()
                    .map(|b| (b.name.as_str(), b.parallelism.tasks, b.parallelism.executors)),
            )
            .collect();
        let (my_worker, dist_assignment, plane, make_ack) = match dist {
            Some(d) => (Some(d.worker), Some(d.assignment), Some(d.plane), Some(d.make_ack)),
            None => (None, None, None, None),
        };
        let assignment = match dist_assignment {
            Some(a) => a,
            None => assign(&components, self.spec, workers)?,
        };

        let metrics = Arc::new(match config.monitor {
            Some(mc) => MetricsHub::with_retention(mc.retention),
            None => MetricsHub::new(),
        });
        let done = Arc::new(AtomicBool::new(false));
        let reliability = config.reliability;
        let fault = config.fault;
        let durability = config.durability.clone();
        let tracing = config.monitor.is_some_and(|mc| mc.tracing);

        // ---- Shared observability clock -----------------------------------
        // The flight recorder is always on; the lineage collector is opt-in.
        // Both time against one epoch (the recorder's), so control-plane
        // events and tuple spans line up in a single view.
        let flight = config
            .flight
            .clone()
            .unwrap_or_else(|| Arc::new(FlightRecorder::default()));
        let collector: Option<Arc<TraceCollector>> = config
            .monitor
            .and_then(|mc| mc.lineage)
            .map(|lc| Arc::new(TraceCollector::new(lc, flight.epoch())));

        // ---- Global task ids ----------------------------------------------
        // Components in declaration order (spouts first), tasks within a
        // component contiguous. They give every task a disjoint tuple-id
        // namespace and index the spout completion channels.
        let mut global_base: HashMap<&str, usize> = HashMap::new();
        let mut next_global = 0usize;
        for &(name, tasks, _) in &components {
            global_base.insert(name, next_global);
            next_global += tasks;
        }
        let spout_task_total: usize =
            topology.spouts.iter().map(|s| s.parallelism.tasks).sum();

        // ---- Task ownership (multi-process mode) --------------------------
        // Which worker owns each global task, derived from the shared
        // assignment so every process resolves locality identically. In
        // single-process mode everything is local and the vector is unused.
        let owner: Vec<usize> = {
            let mut owner = vec![0usize; next_global];
            if my_worker.is_some() {
                for p in &assignment.placements {
                    let base = global_base[p.component.as_str()];
                    for &t in &p.tasks {
                        owner[base + t] = p.worker;
                    }
                }
            }
            owner
        };
        let is_local = |global: usize| my_worker.is_none_or(|w| owner[global] == w);

        // ---- Acker + completion channels (reliability mode) ---------------
        // Completion channels are unbounded so completing a tree can never
        // block a bolt executor against a stalled spout.
        let mut completion_rxs: Vec<Option<Receiver<(u64, Instant)>>> = Vec::new();
        let acker: Option<Arc<dyn AckSink>> = if reliability.is_some() {
            let mut txs = Vec::with_capacity(spout_task_total);
            for _ in 0..spout_task_total {
                let (tx, rx) = unbounded();
                txs.push(tx);
                completion_rxs.push(Some(rx));
            }
            Some(match make_ack {
                Some(f) => f(txs),
                None => Arc::new(Acker::new(txs)),
            })
        } else {
            None
        };

        // ---- Channels: one bounded channel per bolt task ------------------
        // Each channel gets an occupancy counter the hub reads as a gauge;
        // the hub holds only the counter, never a channel handle (that
        // would defeat disconnect detection when a task dies).
        //
        // Multi-process mode: a *remote* task's slot holds the plane's
        // relay sender instead — emitters stay oblivious, routing simply
        // resolves to a channel that happens to cross a socket. Remote
        // slots get an unregistered depth gauge (the owning process tracks
        // the real occupancy).
        let mut senders_by_bolt: Vec<Vec<Sender<Packet<T>>>> =
            Vec::with_capacity(topology.bolts.len());
        let mut receivers_by_bolt: Vec<Vec<Option<Receiver<Packet<T>>>>> =
            Vec::with_capacity(topology.bolts.len());
        let mut depths_by_bolt: Vec<Vec<Arc<AtomicI64>>> =
            Vec::with_capacity(topology.bolts.len());
        let mut ingress: HashMap<u32, LocalIngress<T>> = HashMap::new();
        for b in &topology.bolts {
            let mut senders = Vec::with_capacity(b.parallelism.tasks);
            let mut receivers = Vec::with_capacity(b.parallelism.tasks);
            let mut depths = Vec::with_capacity(b.parallelism.tasks);
            for ti in 0..b.parallelism.tasks {
                let global = global_base[b.name.as_str()] + ti;
                if is_local(global) {
                    let (tx, rx) = bounded(config.channel_capacity.max(1));
                    let depth = Arc::new(AtomicI64::new(0));
                    if tracing {
                        metrics.register_queue(
                            &b.name,
                            depth.clone(),
                            config.channel_capacity.max(1),
                        );
                    }
                    if my_worker.is_some() {
                        ingress.insert(
                            global as u32,
                            LocalIngress { tx: tx.clone(), depth: depth.clone(), tracing },
                        );
                    }
                    senders.push(tx);
                    receivers.push(Some(rx));
                    depths.push(depth);
                } else {
                    let plane = plane.as_ref().expect("remote task implies a data plane");
                    senders.push(plane.remote_sender(
                        owner[global],
                        global as u32,
                        config.channel_capacity.max(1),
                    ));
                    receivers.push(None);
                    depths.push(Arc::new(AtomicI64::new(0)));
                }
            }
            senders_by_bolt.push(senders);
            receivers_by_bolt.push(receivers);
            depths_by_bolt.push(depths);
        }
        if let Some(plane) = plane.as_ref() {
            plane.register_ingress(ingress);
        }

        // ---- Outgoing edges per source component --------------------------
        // source name → [(grouping, downstream senders)]
        let make_routes = |source: &str| -> Vec<Route<T>> {
            let mut routes = Vec::new();
            for (bi, b) in topology.bolts.iter().enumerate() {
                for sub in &b.subscriptions {
                    if sub.source == source {
                        routes.push(Route {
                            grouping: sub.grouping.clone(),
                            senders: senders_by_bolt[bi].clone(),
                            depths: depths_by_bolt[bi].clone(),
                            globals: (0..b.parallelism.tasks)
                                .map(|ti| (global_base[b.name.as_str()] + ti) as u32)
                                .collect(),
                            rr: 0,
                        });
                    }
                }
            }
            routes
        };
        let make_emitter = |source: &str, global: usize, counters: Arc<TaskCounters>| {
            TaskEmitter::new(
                source,
                global,
                make_routes(source),
                counters,
                acker.clone(),
                fault,
                tracing,
                collector.as_ref().map(|c| c.register_task(global as u32, source)),
                flight.clone(),
            )
        };

        // Upstream task count per bolt: one EOS arrives per upstream task
        // per incoming edge.
        let task_count_of = |name: &str| -> usize {
            components
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|&(_, tasks, _)| tasks)
                .unwrap_or(0)
        };
        let expected_eos: Vec<usize> = topology
            .bolts
            .iter()
            .map(|b| b.subscriptions.iter().map(|s| task_count_of(&s.source)).sum())
            .collect();

        let mut threads: Vec<std::thread::JoinHandle<Result<(), DspsError>>> = Vec::new();
        // Raised by the first executor to fail: the spouts then give up
        // their pending trees instead of replaying them into a dead task.
        let failed = Arc::new(AtomicBool::new(false));

        // Executor → task packing. Single-process: the scheduler's packing
        // directly (exactly as before). Multi-process: this process's
        // executor slice of the shared assignment, which used the same
        // packing — so a task's executor grouping is identical everywhere;
        // only *where* the executor thread runs changes.
        let executor_slices = |name: &str, tasks: usize, executors: usize| -> Vec<Vec<usize>> {
            match my_worker {
                None => crate::scheduler::pack_tasks(tasks, executors),
                Some(w) => assignment
                    .placements
                    .iter()
                    .filter(|p| p.component == name && p.worker == w)
                    .map(|p| p.tasks.clone())
                    .collect(),
            }
        };

        // ---- Spout executors ----------------------------------------------
        for s in &topology.spouts {
            let packing =
                executor_slices(&s.name, s.parallelism.tasks, s.parallelism.executors);
            for task_ids in packing {
                let mut tasks: Vec<SpoutTask<T>> = Vec::new();
                for &ti in &task_ids {
                    let counters = metrics.register_task(&s.name);
                    let global = global_base[s.name.as_str()] + ti;
                    tasks.push(SpoutTask::new(
                        (*s.factory)(ti),
                        make_emitter(&s.name, global, counters),
                        global,
                        reliability.map(|_| {
                            completion_rxs[global]
                                .take()
                                .expect("each completion receiver is claimed exactly once")
                        }),
                    ));
                }
                let component = s.name.clone();
                let thread_acker = acker.clone();
                let stop = failed.clone();
                threads.push(spawn_executor(&s.name, task_ids[0], failed.clone(), move || {
                    run_spout_executor(
                        tasks,
                        task_ids,
                        component,
                        thread_acker,
                        reliability,
                        tracing,
                        &stop,
                    )
                }));
            }
        }

        // ---- Bolt executors -----------------------------------------------
        for (bi, b) in topology.bolts.iter().enumerate() {
            let packing =
                executor_slices(&b.name, b.parallelism.tasks, b.parallelism.executors);
            let task_count = b.parallelism.tasks;
            for task_ids in packing {
                let mut tasks: Vec<BoltTask<T>> = Vec::new();
                for &ti in &task_ids {
                    let counters = metrics.register_task(&b.name);
                    let global = global_base[b.name.as_str()] + ti;
                    let rx = receivers_by_bolt[bi][ti]
                        .take()
                        .expect("each task receiver is claimed exactly once");
                    let store = match &durability {
                        Some(d) => {
                            let store = StateStore::open(d, &b.name, ti)?;
                            if store.truncated_bytes() > 0 {
                                flight.record(
                                    FlightKind::ChangelogTruncated,
                                    &b.name,
                                    global as i64,
                                    format!(
                                        "{} torn-tail bytes dropped at open",
                                        store.truncated_bytes()
                                    ),
                                );
                            }
                            Some(store)
                        }
                        None => None,
                    };
                    tasks.push(BoltTask::new(
                        (*b.factory)(ti),
                        make_emitter(&b.name, global, counters),
                        rx,
                        BoltContext { task_index: ti, task_count },
                        depths_by_bolt[bi][ti].clone(),
                        store,
                    ));
                }
                let component = b.name.clone();
                let expected = expected_eos[bi];
                let factory = b.factory.clone();
                let thread_acker = acker.clone();
                threads.push(spawn_executor(&b.name, task_ids[0], failed.clone(), move || {
                    run_bolt_executor(
                        tasks,
                        component,
                        expected,
                        factory,
                        thread_acker,
                        reliability,
                        tracing,
                    )
                }));
            }
        }

        // ---- Scrape endpoint (opt-in) -------------------------------------
        // Bound here (not in the monitor thread) so the caller learns the
        // actual address — port 0 asks the OS for an ephemeral port. The
        // listener is nonblocking and *owned* by the monitor thread, which
        // polls it between sleep steps; dropping it there at shutdown
        // closes the socket.
        let scrape_listener = match config.monitor.and_then(|mc| mc.expose) {
            Some(port) => {
                let listener = std::net::TcpListener::bind(("127.0.0.1", port))
                    .map_err(|e| DspsError::ExpositionBind { port, reason: e.to_string() })?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| DspsError::ExpositionBind { port, reason: e.to_string() })?;
                Some(listener)
            }
            None => None,
        };
        let scrape_addr = scrape_listener.as_ref().and_then(|l| l.local_addr().ok());

        // ---- Monitor thread -----------------------------------------------
        let monitor_thread = config.monitor.map(|mc| {
            let metrics = metrics.clone();
            let done = done.clone();
            let scrape_collector = collector.clone();
            let scrape_flight = flight.clone();
            std::thread::spawn(move || {
                let window = mc.window.max(Duration::from_millis(1));
                let start = Instant::now();
                'sampling: loop {
                    // Absolute deadlines on the window grid: sampling cost
                    // delays one sample but never shifts the grid (the old
                    // sleep-then-sample loop accumulated `window + cost` of
                    // drift per cycle). A sample slower than the window
                    // skips grid points instead of bunching up.
                    let deadline = start + next_window_deadline(start.elapsed(), window);
                    loop {
                        if done.load(Ordering::Relaxed) {
                            break 'sampling;
                        }
                        if let Some(listener) = &scrape_listener {
                            serve_scrapes(
                                listener,
                                &metrics,
                                scrape_collector.as_deref(),
                                &scrape_flight,
                            );
                        }
                        // Keep the per-task span rings shallow: drain them
                        // into the central store on the monitor's cadence
                        // so long runs don't overflow the rings between
                        // scrapes.
                        if let Some(c) = scrape_collector.as_deref() {
                            c.drain();
                        }
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        // Sleep in small steps so shutdown is prompt and
                        // scrape requests wait at most one step.
                        std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
                    }
                    metrics.sample();
                }
                // Flush the tail as an explicitly partial window: it covers
                // less than a full period, so per-window throughput must not
                // be compared 1:1 against full windows.
                metrics.flush_sample();
                // `scrape_listener` drops here: the endpoint closes with
                // the monitor, after the final flush.
                drop(scrape_listener);
            })
        });

        Ok(TopologyHandle {
            threads,
            monitor_thread,
            metrics,
            assignment,
            done,
            scrape_addr,
            lineage: collector,
            flight,
        })
    }
}

/// Spawns an executor thread named `<component>#<first task>`, so a panic
/// message and `/proc/<pid>/task/*/comm` attribute to a component. An
/// executor that returns an error or panics raises `failed`, which ends
/// the spout executors.
fn spawn_executor(
    component: &str,
    first_task: usize,
    failed: Arc<AtomicBool>,
    run: impl FnOnce() -> Result<(), DspsError> + Send + 'static,
) -> std::thread::JoinHandle<Result<(), DspsError>> {
    std::thread::Builder::new()
        .name(format!("{component}#{first_task}"))
        .spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            if !matches!(result, Ok(Ok(()))) {
                failed.store(true, Ordering::Relaxed);
            }
            result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
        .expect("failed to spawn executor thread")
}

/// Accepts and answers every scrape connection currently queued on the
/// (nonblocking) listener. `GET /metrics` returns the Prometheus text
/// format, `GET /json` (or `/`) the JSON snapshot, `GET /trace` the
/// Chrome `trace_event` export (`/trace.jsonl` the span log) when lineage
/// is on, and `GET /events` the flight-recorder ring; anything else is a
/// 404 carrying the route index. One short-lived blocking read/write per
/// connection with a hard timeout so a stalled scraper cannot wedge the
/// monitor thread.
fn serve_scrapes(
    listener: &std::net::TcpListener,
    metrics: &MetricsHub,
    collector: Option<&TraceCollector>,
    flight: &FlightRecorder,
) {
    use std::io::{Read, Write};
    loop {
        let mut stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        };
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
        // Read until the end of the request head (or timeout/cap); only
        // the request line matters.
        let mut buf = Vec::with_capacity(512);
        let mut chunk = [0u8; 512];
        while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 8192 {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        let head = String::from_utf8_lossy(&buf);
        let path = head.split_whitespace().nth(1).unwrap_or("");
        const ROUTES: &str =
            "not found; routes: /metrics /json /trace /trace.jsonl /events\n";
        let (status, content_type, body) = match path {
            "/metrics" => {
                ("200 OK", "text/plain; version=0.0.4; charset=utf-8", metrics.render_prometheus())
            }
            "/json" | "/" => ("200 OK", "application/json", metrics.render_json()),
            "/trace" => match collector {
                Some(c) => ("200 OK", "application/json", c.render_chrome_json()),
                None => (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "lineage tracing is off; enable MonitorConfig::lineage\n".into(),
                ),
            },
            "/trace.jsonl" => match collector {
                Some(c) => ("200 OK", "application/jsonl", c.render_jsonl()),
                None => (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "lineage tracing is off; enable MonitorConfig::lineage\n".into(),
                ),
            },
            "/events" => ("200 OK", "application/json", flight.render_json()),
            _ => ("404 Not Found", "text/plain; charset=utf-8", ROUTES.into()),
        };
        let _ = stream.write_all(
            format!(
                "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
}

/// The next absolute sample deadline, as an offset from the monitor's
/// start: the first multiple of `window` strictly after `elapsed`. Grid
/// points a slow sample already missed are skipped, not queued.
fn next_window_deadline(elapsed: Duration, window: Duration) -> Duration {
    let w = window.as_nanos().max(1);
    let k = elapsed.as_nanos() / w + 1;
    Duration::from_nanos((k * w).min(u64::MAX as u128) as u64)
}

/// Handle to a running topology.
pub struct TopologyHandle {
    threads: Vec<std::thread::JoinHandle<Result<(), DspsError>>>,
    monitor_thread: Option<std::thread::JoinHandle<()>>,
    metrics: Arc<MetricsHub>,
    assignment: Assignment,
    done: Arc<AtomicBool>,
    scrape_addr: Option<std::net::SocketAddr>,
    lineage: Option<Arc<TraceCollector>>,
    flight: Arc<FlightRecorder>,
}

impl TopologyHandle {
    /// The Nimbus-side metrics hub.
    pub fn metrics(&self) -> &Arc<MetricsHub> {
        &self.metrics
    }

    /// The lineage collector, when [`MonitorConfig::lineage`] is on.
    /// Clone the `Arc` before [`join`](TopologyHandle::join) to read
    /// traces after the run.
    pub fn trace_collector(&self) -> Option<&Arc<TraceCollector>> {
        self.lineage.as_ref()
    }

    /// The always-on control-plane flight recorder.
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Drains and takes every retained lineage span (empty when lineage
    /// is off or `export` is false).
    pub fn take_traces(&self) -> Vec<crate::lineage::Span> {
        match &self.lineage {
            Some(c) => c.take_spans(),
            None => Vec::new(),
        }
    }

    /// Where the metrics exposition endpoint is listening, when
    /// [`MonitorConfig::expose`] asked for one — with port 0 this is the
    /// OS-assigned ephemeral port. The endpoint serves until the topology
    /// is joined.
    pub fn scrape_addr(&self) -> Option<std::net::SocketAddr> {
        self.scrape_addr
    }

    /// The executor placement the scheduler computed.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Waits for the topology to drain (all spouts exhausted, all tuples
    /// processed). Returns the first task failure, if any.
    pub fn join(mut self) -> Result<Arc<MetricsHub>, DspsError> {
        let mut first_err = None;
        for t in self.threads.drain(..) {
            match t.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(e) => {
                    first_err = first_err.or(Some(DspsError::TaskPanicked {
                        component: "<executor>".into(),
                        task: 0,
                        reason: panic_text(e.as_ref()),
                    }))
                }
            }
        }
        self.done.store(true, Ordering::Relaxed);
        if let Some(m) = self.monitor_thread.take() {
            let _ = m.join();
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(self.metrics),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::{hash_key, Grouping};
    use crate::topology::{Bolt, Parallelism, Spout, TopologyBuilder};
    use parking_lot::Mutex;

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
            Some(Msg { key: v % 7, value: v })
        }
    }

    fn sink_bolt(
        collected: Arc<Mutex<Vec<(usize, u64)>>>,
    ) -> impl Fn(usize) -> Box<dyn Bolt<Msg>> + Send + Sync + 'static {
        move |_| {
            struct Sink {
                task: usize,
                collected: Arc<Mutex<Vec<(usize, u64)>>>,
            }
            impl Bolt<Msg> for Sink {
                fn prepare(&mut self, ctx: BoltContext) {
                    self.task = ctx.task_index;
                }
                fn process(&mut self, msg: Msg, _e: &mut dyn Emitter<Msg>) {
                    self.collected.lock().push((self.task, msg.value));
                }
            }
            Box::new(Sink { task: 0, collected: collected.clone() })
        }
    }

    fn small_cluster() -> LocalCluster {
        LocalCluster::new(ClusterSpec { nodes: 2, slots_per_node: 2, cores_per_node: 2 }).unwrap()
    }

    #[test]
    fn linear_pipeline_delivers_everything() {
        let collected = Arc::new(Mutex::new(Vec::new()));
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(2), |ti| {
                Box::new(RangeSpout { next: ti as u64 * 100, end: ti as u64 * 100 + 50 })
            })
            .add_map_bolt(
                "double",
                Parallelism::of(2),
                vec![("src", Grouping::Shuffle)],
                |m: Msg| Some(Msg { key: m.key, value: m.value * 2 }),
            )
            .add_bolt(
                "sink",
                Parallelism::of(1),
                vec![("double", Grouping::Shuffle)],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        small_cluster().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
        let mut values: Vec<u64> = collected.lock().iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        let expected: Vec<u64> =
            (0..50).chain(100..150).map(|v| v * 2).collect();
        assert_eq!(values, expected);
    }

    #[test]
    fn fields_grouping_keeps_keys_on_one_task() {
        let collected = Arc::new(Mutex::new(Vec::new()));
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 200 }))
            .add_bolt(
                "sink",
                Parallelism::of(4),
                vec![("src", Grouping::fields(|m: &Msg| hash_key(&m.key)))],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        small_cluster().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
        // Every key must have landed on exactly one task.
        let got = collected.lock();
        let mut key_task: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for &(task, value) in got.iter() {
            let key = value % 7;
            let prev = key_task.insert(key, task);
            if let Some(p) = prev {
                assert_eq!(p, task, "key {key} visited two tasks");
            }
        }
        assert_eq!(got.len(), 200);
    }

    #[test]
    fn all_grouping_replicates() {
        let collected = Arc::new(Mutex::new(Vec::new()));
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 10 }))
            .add_bolt(
                "sink",
                Parallelism::of(3),
                vec![("src", Grouping::All)],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        small_cluster().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
        assert_eq!(collected.lock().len(), 30, "each of 3 tasks sees all 10");
    }

    #[test]
    fn direct_grouping_routes_by_task_index() {
        let collected = Arc::new(Mutex::new(Vec::new()));
        struct Router;
        impl Bolt<Msg> for Router {
            fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
                // Route by key directly: key k → task k (keys are 0..7 and
                // the sink has 7 tasks, so every target is in range).
                e.emit_direct(msg.key as usize, msg);
            }
        }
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 70 }))
            .add_bolt("router", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
                Box::new(Router)
            })
            .add_bolt(
                "sink",
                Parallelism::of(7),
                vec![("router", Grouping::Direct)],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        small_cluster().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
        let got = collected.lock();
        assert_eq!(got.len(), 70);
        for &(task, value) in got.iter() {
            assert_eq!(task, (value % 7) as usize, "value {value} misrouted");
        }
    }

    #[test]
    fn out_of_range_direct_emissions_are_counted_not_wrapped() {
        // Regression: `emit_direct(task, ..)` used to wrap out-of-range
        // targets as `task % count`, silently aliasing the tuple onto
        // another task. It must now be dropped and counted `misrouted`.
        let collected = Arc::new(Mutex::new(Vec::new()));
        struct BuggyRouter;
        impl Bolt<Msg> for BuggyRouter {
            fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
                // Values ≥ 60 target a task index past the sink's range.
                let task = if msg.value >= 60 { 7 + msg.key as usize } else { msg.key as usize };
                e.emit_direct(task, msg);
            }
        }
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 70 }))
            .add_bolt("router", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
                Box::new(BuggyRouter)
            })
            .add_bolt(
                "sink",
                Parallelism::of(7),
                vec![("router", Grouping::Direct)],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        let metrics = small_cluster().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
        let got = collected.lock();
        assert_eq!(got.len(), 60, "out-of-range targets must not be delivered anywhere");
        for &(task, value) in got.iter() {
            assert!(value < 60);
            assert_eq!(task, (value % 7) as usize, "in-range routing unchanged");
        }
        let totals = metrics.totals();
        let router = totals.iter().find(|c| c.component == "router").unwrap();
        assert_eq!(router.misrouted, 10, "each out-of-range direct emission is counted");
        assert_eq!(router.emitted, 60, "misrouted deliveries are not emissions");
    }

    #[test]
    fn tasks_sharing_an_executor_all_run() {
        let collected = Arc::new(Mutex::new(Vec::new()));
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 100 }))
            .add_bolt(
                "sink",
                // 4 tasks on 2 executors — Figure 1's SpeedCalculator case.
                Parallelism { tasks: 4, executors: 2 },
                vec![("src", Grouping::Shuffle)],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        small_cluster().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
        let got = collected.lock();
        assert_eq!(got.len(), 100);
        let tasks: std::collections::HashSet<usize> = got.iter().map(|&(t, _)| t).collect();
        assert_eq!(tasks.len(), 4, "all four tasks processed something");
    }

    #[test]
    fn finish_hook_flushes_buffered_state() {
        let collected = Arc::new(Mutex::new(Vec::new()));
        struct Batcher {
            buf: Vec<Msg>,
        }
        impl Bolt<Msg> for Batcher {
            fn process(&mut self, msg: Msg, _e: &mut dyn Emitter<Msg>) {
                self.buf.push(msg);
            }
            fn finish(&mut self, e: &mut dyn Emitter<Msg>) {
                let total: u64 = self.buf.iter().map(|m| m.value).sum();
                e.emit(Msg { key: 0, value: total });
            }
        }
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 1, end: 11 }))
            .add_bolt("batch", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
                Box::new(Batcher { buf: Vec::new() })
            })
            .add_bolt(
                "sink",
                Parallelism::of(1),
                vec![("batch", Grouping::Shuffle)],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        small_cluster().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
        assert_eq!(collected.lock().as_slice(), &[(0usize, 55u64)]);
    }

    #[test]
    fn bolt_panic_surfaces_as_error() {
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 10 }))
            .add_map_bolt(
                "explode",
                Parallelism::of(1),
                vec![("src", Grouping::Shuffle)],
                |m: Msg| {
                    if m.value == 5 {
                        panic!("boom on 5");
                    }
                    Some(m)
                },
            )
            .build()
            .unwrap();
        let err = small_cluster().submit(t, RuntimeConfig::default()).unwrap().join();
        match err {
            Err(DspsError::TaskPanicked { component, reason, .. }) => {
                assert_eq!(component, "explode");
                assert!(reason.contains("boom"));
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
    }

    #[test]
    fn spout_panic_reports_global_task_index() {
        // Regression: the error used to carry the executor-local loop
        // index. 3 tasks on 2 executors pack as [[0, 2], [1]]; task 2 is
        // the *second* task of executor 0, so the buggy code reported 1.
        struct MaybePanicSpout {
            task: usize,
        }
        impl Spout<Msg> for MaybePanicSpout {
            fn next(&mut self) -> Option<Msg> {
                if self.task == 2 {
                    panic!("spout task 2 exploded");
                }
                None
            }
        }
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism { tasks: 3, executors: 2 }, |ti| {
                Box::new(MaybePanicSpout { task: ti })
            })
            .add_bolt(
                "sink",
                Parallelism::of(1),
                vec![("src", Grouping::Shuffle)],
                sink_bolt(Arc::new(Mutex::new(Vec::new()))),
            )
            .build()
            .unwrap();
        let err = small_cluster().submit(t, RuntimeConfig::default()).unwrap().join();
        match err {
            Err(DspsError::TaskPanicked { component, task, .. }) => {
                assert_eq!(component, "src");
                assert_eq!(task, 2, "error must name the task, not the loop index");
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
    }

    #[test]
    fn bolt_panic_reports_global_task_index() {
        // Same regression on the bolt path: 3 sink tasks on 2 executors,
        // All grouping so task 2 (executor-local index 1) sees data.
        struct MaybePanicBolt {
            task: usize,
        }
        impl Bolt<Msg> for MaybePanicBolt {
            fn process(&mut self, _msg: Msg, _e: &mut dyn Emitter<Msg>) {
                if self.task == 2 {
                    panic!("bolt task 2 exploded");
                }
            }
        }
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 5 }))
            .add_bolt(
                "sink",
                Parallelism { tasks: 3, executors: 2 },
                vec![("src", Grouping::All)],
                |ti| Box::new(MaybePanicBolt { task: ti }),
            )
            .build()
            .unwrap();
        let err = small_cluster().submit(t, RuntimeConfig::default()).unwrap().join();
        match err {
            Err(DspsError::TaskPanicked { component, task, .. }) => {
                assert_eq!(component, "sink");
                assert_eq!(task, 2, "error must name the task, not the loop index");
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
    }

    #[test]
    fn sends_to_dead_tasks_count_as_dropped() {
        // Regression: sends to a closed channel used to vanish silently.
        // The sink dies on its first tuple; with a tiny channel the spout
        // keeps emitting into a torn-down channel and must count it.
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 100 }))
            .add_map_bolt(
                "sink",
                Parallelism::of(1),
                vec![("src", Grouping::Shuffle)],
                |_m: Msg| panic!("dies immediately"),
            )
            .build()
            .unwrap();
        let cfg = RuntimeConfig { channel_capacity: 4, ..RuntimeConfig::default() };
        let handle = small_cluster().submit(t, cfg).unwrap();
        let metrics = handle.metrics().clone();
        assert!(handle.join().is_err(), "sink panic must surface");
        let totals = metrics.totals();
        let src = totals.iter().find(|c| c.component == "src").unwrap();
        assert!(
            src.dropped > 0,
            "sends into the dead sink's channel must be counted, got {totals:?}"
        );
    }

    #[test]
    fn emit_without_route_is_not_counted() {
        // Regression: a terminal bolt's emit used to bump the emitted
        // counter even though the message went nowhere.
        struct Forwarder;
        impl Bolt<Msg> for Forwarder {
            fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
                e.emit(msg.clone());
                e.emit_direct(0, msg); // no direct edge either
            }
        }
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 25 }))
            .add_bolt("term", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
                Box::new(Forwarder)
            })
            .build()
            .unwrap();
        let metrics = small_cluster().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
        let totals = metrics.totals();
        let term = totals.iter().find(|c| c.component == "term").unwrap();
        assert_eq!(term.emitted, 0, "routeless emits must not count as emissions");
        let src = totals.iter().find(|c| c.component == "src").unwrap();
        assert_eq!(src.emitted, 25, "routed emits still count");
    }

    #[test]
    fn finish_panic_still_sends_eos_downstream() {
        // A panic in finish() fails the topology but must not strand the
        // downstream component waiting for EOS (this test would hang).
        let collected = Arc::new(Mutex::new(Vec::new()));
        struct FlushBomb;
        impl Bolt<Msg> for FlushBomb {
            fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
                e.emit(msg);
            }
            fn finish(&mut self, _e: &mut dyn Emitter<Msg>) {
                panic!("flush failed");
            }
        }
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 10 }))
            .add_bolt("bomb", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
                Box::new(FlushBomb)
            })
            .add_bolt(
                "sink",
                Parallelism::of(1),
                vec![("bomb", Grouping::Shuffle)],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        let err = small_cluster().submit(t, RuntimeConfig::default()).unwrap().join();
        match err {
            Err(DspsError::TaskPanicked { component, reason, .. }) => {
                assert_eq!(component, "bomb");
                assert!(reason.contains("flush failed"));
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
        assert_eq!(collected.lock().len(), 10, "all pre-finish tuples delivered");
    }

    #[test]
    fn upstream_hard_death_terminates_single_task_bolt() {
        // A bolt whose prepare() panics kills its executor thread without
        // sending EOS; the downstream bolt must detect the disconnect on
        // its blocking receive path and terminate (else this test hangs).
        struct PreparePanic;
        impl Bolt<Msg> for PreparePanic {
            fn prepare(&mut self, _ctx: BoltContext) {
                panic!("prepare failed");
            }
            fn process(&mut self, _msg: Msg, _e: &mut dyn Emitter<Msg>) {}
        }
        let collected = Arc::new(Mutex::new(Vec::new()));
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 10 }))
            .add_bolt("bad", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
                Box::new(PreparePanic)
            })
            .add_bolt(
                "sink",
                Parallelism::of(1),
                vec![("bad", Grouping::Shuffle)],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        let err = small_cluster().submit(t, RuntimeConfig::default()).unwrap().join();
        assert!(err.is_err(), "the dead executor must surface an error");
    }

    #[test]
    fn upstream_hard_death_terminates_shared_executor_bolt() {
        // Same, but the downstream tasks share one executor and sit on
        // the polling (try_recv) path.
        struct PreparePanic;
        impl Bolt<Msg> for PreparePanic {
            fn prepare(&mut self, _ctx: BoltContext) {
                panic!("prepare failed");
            }
            fn process(&mut self, _msg: Msg, _e: &mut dyn Emitter<Msg>) {}
        }
        let collected = Arc::new(Mutex::new(Vec::new()));
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 10 }))
            .add_bolt("bad", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
                Box::new(PreparePanic)
            })
            .add_bolt(
                "sink",
                Parallelism { tasks: 2, executors: 1 },
                vec![("bad", Grouping::Shuffle)],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        let err = small_cluster().submit(t, RuntimeConfig::default()).unwrap().join();
        assert!(err.is_err(), "the dead executor must surface an error");
    }

    #[test]
    fn reliability_happy_path_acks_everything() {
        // No faults: at-least-once mode must deliver exactly once, ack
        // every root and terminate cleanly.
        let collected = Arc::new(Mutex::new(Vec::new()));
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(2), |ti| {
                Box::new(RangeSpout { next: ti as u64 * 100, end: ti as u64 * 100 + 50 })
            })
            .add_map_bolt(
                "double",
                Parallelism::of(2),
                vec![("src", Grouping::Shuffle)],
                |m: Msg| Some(Msg { key: m.key, value: m.value * 2 }),
            )
            .add_bolt(
                "sink",
                Parallelism::of(1),
                vec![("double", Grouping::Shuffle)],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        let cfg = RuntimeConfig {
            reliability: Some(ReliabilityConfig {
                ack_timeout: Duration::from_secs(5),
                ..ReliabilityConfig::default()
            }),
            ..RuntimeConfig::default()
        };
        let metrics = small_cluster().submit(t, cfg).unwrap().join().unwrap();
        let mut values: Vec<u64> = collected.lock().iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        let expected: Vec<u64> = (0..50).chain(100..150).map(|v| v * 2).collect();
        assert_eq!(values, expected, "exactly-once on the failure-free path");
        let totals = metrics.totals();
        let src = totals.iter().find(|c| c.component == "src").unwrap();
        assert_eq!(src.acked, 100, "every root fully acked");
        assert_eq!(src.failed, 0);
        assert_eq!(src.replayed, 0);
    }

    #[test]
    fn reliability_supervisor_restarts_poisoned_bolt() {
        // The bolt panics the first time it sees value 7; the supervisor
        // must rebuild it and the spout must replay the lost tuple.
        let tripped = Arc::new(AtomicBool::new(false));
        let collected = Arc::new(Mutex::new(Vec::new()));
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
            .add_bolt(
                "sink",
                Parallelism::of(1),
                vec![("bomb", Grouping::Shuffle)],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        let cfg = RuntimeConfig {
            reliability: Some(ReliabilityConfig {
                ack_timeout: Duration::from_millis(200),
                max_retries: 10,
                backoff: 1.5,
                ..ReliabilityConfig::default()
            }),
            ..RuntimeConfig::default()
        };
        let metrics = small_cluster().submit(t, cfg).unwrap().join().unwrap();
        let mut values: Vec<u64> = collected.lock().iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values, (0..20).collect::<Vec<u64>>(), "replay healed the lost tuple");
        let totals = metrics.totals();
        let src = totals.iter().find(|c| c.component == "src").unwrap();
        assert!(src.replayed >= 1, "the poisoned tuple must have been replayed");
        assert_eq!(src.failed, 0);
        let bomb = totals.iter().find(|c| c.component == "bomb").unwrap();
        assert_eq!(bomb.restarted, 1, "the supervisor restarted the bolt once");
    }

    #[test]
    fn restarts_exhausted_fails_topology() {
        // A bolt that always panics burns through its restart budget and
        // must surface TaskRestartsExhausted, not hang or loop forever.
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 10 }))
            .add_map_bolt(
                "explode",
                Parallelism::of(1),
                vec![("src", Grouping::Shuffle)],
                |_m: Msg| panic!("always fatal"),
            )
            .build()
            .unwrap();
        let cfg = RuntimeConfig {
            reliability: Some(ReliabilityConfig {
                ack_timeout: Duration::from_millis(100),
                max_retries: 2,
                max_task_restarts: 2,
                ..ReliabilityConfig::default()
            }),
            ..RuntimeConfig::default()
        };
        let err = small_cluster().submit(t, cfg).unwrap().join();
        match err {
            Err(DspsError::TaskRestartsExhausted { component, restarts, .. }) => {
                assert_eq!(component, "explode");
                assert_eq!(restarts, 2);
            }
            other => panic!("expected TaskRestartsExhausted, got {other:?}"),
        }
    }

    #[test]
    fn a_dead_bolt_executor_ends_the_spouts_without_waiting_out_replays() {
        // The same always-panicking bolt under a 5 s ack timeout and the
        // default 5 retries: replaying each pending root into the dead task
        // would take minutes. Run on a helper thread so a hang fails the
        // test instead of wedging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let t = TopologyBuilder::new("t")
                .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 10 }))
                .add_map_bolt(
                    "explode",
                    Parallelism::of(1),
                    vec![("src", Grouping::Shuffle)],
                    |_m: Msg| panic!("always fatal"),
                )
                .build()
                .unwrap();
            let cfg = RuntimeConfig {
                reliability: Some(ReliabilityConfig {
                    ack_timeout: Duration::from_secs(5),
                    ..ReliabilityConfig::default()
                }),
                ..RuntimeConfig::default()
            };
            let handle = small_cluster().submit(t, cfg).unwrap();
            let metrics = handle.metrics().clone();
            let result = handle.join();
            let _ = tx.send((result, metrics.totals()));
        });
        let (result, totals) =
            rx.recv_timeout(Duration::from_secs(2)).expect("join returns within 2 s");
        helper.join().unwrap();
        match result {
            Err(DspsError::TaskRestartsExhausted { component, restarts, .. }) => {
                assert_eq!(component, "explode");
                assert_eq!(restarts, ReliabilityConfig::default().max_task_restarts);
            }
            other => panic!("expected TaskRestartsExhausted, got {other:?}"),
        }
        let src = totals.iter().find(|c| c.component == "src").unwrap();
        assert_eq!(src.acked, 0);
        assert!(src.failed >= 4, "the four tuples the bolt died on count failed: {}", src.failed);
    }

    #[test]
    fn metrics_capture_throughput() {
        let collected = Arc::new(Mutex::new(Vec::new()));
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 500 }))
            .add_bolt(
                "sink",
                Parallelism::of(2),
                vec![("src", Grouping::Shuffle)],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        let metrics =
            small_cluster().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
        let totals = metrics.totals();
        let sink = totals.iter().find(|c| c.component == "sink").unwrap();
        assert_eq!(sink.throughput, 500);
        let src = totals.iter().find(|c| c.component == "src").unwrap();
        assert_eq!(src.emitted, 500);
    }

    #[test]
    fn monitor_thread_samples_windows() {
        let collected = Arc::new(Mutex::new(Vec::new()));
        struct SlowSpout {
            n: u64,
        }
        impl Spout<Msg> for SlowSpout {
            fn next(&mut self) -> Option<Msg> {
                if self.n == 0 {
                    return None;
                }
                self.n -= 1;
                std::thread::sleep(Duration::from_millis(1));
                Some(Msg { key: 0, value: self.n })
            }
        }
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(SlowSpout { n: 100 }))
            .add_bolt(
                "sink",
                Parallelism::of(1),
                vec![("src", Grouping::Shuffle)],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        let cfg = RuntimeConfig {
            monitor: Some(MonitorConfig {
                window: Duration::from_millis(25),
                ..MonitorConfig::default()
            }),
            ..RuntimeConfig::default()
        };
        let metrics = small_cluster().submit(t, cfg).unwrap().join().unwrap();
        assert!(
            !metrics.history().is_empty(),
            "monitor thread must have sampled at least one window"
        );
    }

    #[test]
    fn spout_counters_keep_emission_and_processing_apart() {
        // Regression: spouts used to record a zero-latency "processing"
        // event per emitted tuple, so their throughput and avg_latency
        // mixed emission accounting with bolt processing accounting.
        let collected = Arc::new(Mutex::new(Vec::new()));
        let t = TopologyBuilder::new("t")
            .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 100 }))
            .add_bolt(
                "sink",
                Parallelism::of(1),
                vec![("src", Grouping::Shuffle)],
                sink_bolt(collected.clone()),
            )
            .build()
            .unwrap();
        let metrics =
            small_cluster().submit(t, RuntimeConfig::default()).unwrap().join().unwrap();
        let totals = metrics.totals();
        let src = totals.iter().find(|c| c.component == "src").unwrap();
        assert_eq!(src.emitted, 100, "spout work shows up as emissions");
        assert_eq!(src.throughput, 0, "spouts process nothing");
        assert_eq!(src.avg_latency, None, "no fake zero-latency samples");
        let sink = totals.iter().find(|c| c.component == "sink").unwrap();
        assert_eq!(sink.throughput, 100, "bolt processing is unaffected");
    }

    #[test]
    fn next_window_deadline_uses_an_absolute_grid() {
        let w = Duration::from_millis(40);
        // Normal cadence: the next grid point after `elapsed`.
        assert_eq!(next_window_deadline(Duration::ZERO, w), Duration::from_millis(40));
        assert_eq!(next_window_deadline(Duration::from_millis(39), w), Duration::from_millis(40));
        // A sample that ran 1 ms long does NOT push the next deadline out
        // by 40 ms from "now" — the grid absorbs the overrun.
        assert_eq!(next_window_deadline(Duration::from_millis(41), w), Duration::from_millis(80));
        // A sample slower than the window skips the missed grid points.
        assert_eq!(next_window_deadline(Duration::from_millis(123), w), Duration::from_millis(160));
        // Landing exactly on a grid point schedules the *next* one.
        assert_eq!(next_window_deadline(Duration::from_millis(80), w), Duration::from_millis(120));
    }
}
