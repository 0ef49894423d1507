//! The local execution runtime: executor threads, channels, routing,
//! end-of-stream termination and panic containment.
//!
//! Every task owns a bounded input channel; emitting to a full channel
//! blocks, which gives the same backpressure a saturated Storm deployment
//! exhibits. When all spout tasks are exhausted, end-of-stream markers
//! propagate edge-by-edge: a bolt task finishes once it has received one
//! marker from every upstream task on every incoming edge, flushes via
//! [`Bolt::finish`], forwards its own markers, and exits.
//!
//! # Reliability (at-least-once delivery)
//!
//! By default delivery is at-most-once and any task panic fails the
//! topology. Setting [`RuntimeConfig::reliability`] enables Storm's
//! guaranteed message processing instead:
//!
//! * every spout tuple becomes the **root** of a tuple tree tracked by the
//!   XOR [`Acker`]; the runtime registers each downstream delivery before
//!   sending it and acks it after the receiving bolt's `process` returns
//!   (outputs are anchored to the input's roots automatically — Storm's
//!   `BasicBolt` discipline, so the [`Bolt`] trait is unchanged);
//! * each spout task keeps a **pending buffer** of unacked tuples; a tree
//!   that does not complete within `ack_timeout` is abandoned and the
//!   tuple replayed under a fresh root with exponential backoff, up to
//!   `max_retries` times — after which the root is counted `failed` and
//!   dropped so the topology still terminates;
//! * a **supervisor** catches bolt-task panics, re-invokes the component
//!   factory to rebuild the task in place (up to `max_task_restarts`
//!   per task) and keeps consuming; the tuple that was being processed is
//!   never acked, so the spout replays it.
//!
//! Replays mean *duplicates are possible*: exactly-once is the consumer's
//! job (dedup on a message key), as in Storm 0.8 without Trident.

use crate::ack::{AckSink, Acker};
use crate::durability::{DurabilityConfig, StateStore};
use crate::error::DspsError;
use crate::fault::FaultConfig;
use crate::flight::{FlightKind, FlightRecorder};
use crate::grouping::Grouping;
use crate::lineage::{SpanKind, TraceCollector};
use crate::metrics::{MetricsHub, MonitorConfig, TaskCounters};
use crate::scheduler::{assign, Assignment, ClusterSpec};
use crate::topology::{Bolt, BoltContext, Spout, Topology};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bits of a tuple id reserved for the per-task sequence number; the high
/// bits carry the global task id, so every task mints from a disjoint
/// namespace without coordination.
const ID_SEQ_BITS: u32 = 40;

/// SplitMix64 finalizer: a bijection on `u64` scattering our sequential
/// ids. Distinct inputs stay distinct (no collisions), but the XOR of a
/// small set of live ids is no longer accidentally zero — with raw
/// sequential ids `1 ^ 2 ^ 3 == 0` would complete a tuple tree early.
/// This is the same argument Storm makes for its random 64-bit ids.
fn mix_id(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A delivery's payload: owned for single-target sends, `Arc`-shared for
/// fan-out (`All` grouping, multi-edge emits) so a broadcast to N tasks
/// costs N refcount bumps instead of N deep clones. The consuming bolt
/// takes ownership at its boundary via [`Payload::into_owned`]:
/// clone-on-write, and the last receiver unwraps the `Arc` for free.
pub(crate) enum Payload<T> {
    Owned(T),
    Shared(Arc<T>),
}

impl<T: Clone> Payload<T> {
    fn into_owned(self) -> T {
        match self {
            Payload::Owned(t) => t,
            Payload::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
        }
    }
}

impl<T> Payload<T> {
    /// Borrows the message (wire encoding reads it in place).
    pub(crate) fn as_inner(&self) -> &T {
        match self {
            Payload::Owned(t) => t,
            Payload::Shared(a) => a,
        }
    }
}

/// The lineage hop a sampled delivery carries: which trace it belongs to,
/// which span emitted it, and when it was sent (for queue-wait spans).
/// Boxed on the envelope so unsampled (and lineage-off) deliveries pay one
/// `None` pointer, not the full struct.
#[derive(Clone, Copy)]
struct TraceHop {
    /// Tuple-tree id (the sampled root delivery id).
    trace: u64,
    /// The span that emitted this delivery.
    parent: u64,
    /// Global task that sent it.
    src: u32,
    /// Send time, nanoseconds since the collector epoch.
    sent_ns: u64,
}

/// One delivery: the message plus its reliability lineage.
///
/// Crate-visible so the wire layer ([`net`](crate::net)) can encode and
/// reconstruct deliveries. The `t0`/`hop` observability fields do not
/// cross the wire: `Instant` is process-local and lineage spans do not
/// link across the boundary (each process's spans still flow back to the
/// coordinator at the end of the run).
pub(crate) struct Envelope<T> {
    pub(crate) msg: Payload<T>,
    /// This delivery's id, registered with the acker (0 when untracked).
    pub(crate) tid: u64,
    /// Spout roots this delivery descends from (empty when untracked).
    pub(crate) roots: Vec<u64>,
    /// Spout emit time of the root tuple this delivery descends from.
    /// Only stamped in tracing + at-most-once mode, where end-to-end
    /// latency is recorded at the terminal bolt (reliability mode records
    /// it spout-side from the acker's completion instant instead).
    pub(crate) t0: Option<Instant>,
    /// Lineage context when this delivery belongs to a sampled trace.
    hop: Option<Box<TraceHop>>,
}

impl<T> Envelope<T> {
    /// A delivery reconstructed from the wire (no local-only context).
    pub(crate) fn from_wire(msg: T, tid: u64, roots: Vec<u64>) -> Self {
        Envelope { msg: Payload::Owned(msg), tid, roots, t0: None, hop: None }
    }
}

/// One flushed edge buffer — a lone delivery or several — or an
/// end-of-stream marker.
pub(crate) enum Packet<T> {
    Data(Envelope<T>),
    Batch(Vec<Envelope<T>>),
    Eos,
}

impl<T> Packet<T> {
    /// Tuples carried: what the packet holds against its channel's
    /// capacity and adds to the occupancy gauge.
    pub(crate) fn tuples(&self) -> usize {
        match self {
            Packet::Data(_) => 1,
            Packet::Batch(envs) => envs.len(),
            Packet::Eos => 0,
        }
    }

    fn into_envelopes(self) -> impl Iterator<Item = Envelope<T>> {
        let (one, many) = match self {
            Packet::Data(env) => (Some(env), Vec::new()),
            Packet::Batch(envs) => (None, envs),
            Packet::Eos => (None, Vec::new()),
        };
        one.into_iter().chain(many)
    }
}

/// Most tuples an edge buffer holds before it is sent mid-turn; with
/// `channel_capacity` it bounds a task's queued tuples.
const TURN_FLUSH_CAP: usize = 64;

/// The interface bolts and spout drivers use to send messages downstream.
pub trait Emitter<T> {
    /// Emits under each outgoing edge's grouping.
    fn emit(&mut self, msg: T);

    /// Emits on *direct*-grouped edges only, to the task with the given
    /// index. An out-of-range index is a routing bug in the emitting bolt:
    /// the delivery is counted under the `misrouted` metric and dropped on
    /// that edge (it used to alias onto `task % count`, silently handing
    /// the tuple to another task). Non-direct edges ignore direct
    /// emissions — mixing disciplines on one component is an authoring
    /// error the validator cannot see, so we keep the semantics strict
    /// and simple.
    fn emit_direct(&mut self, task: usize, msg: T);

    /// Hands everything emitted so far to the receiving tasks' channels.
    /// The runtime does this by itself when the executor's turn ends; a
    /// bolt only needs it before it *waits*, inside `process`, on something
    /// a receiver does with what was just emitted.
    fn flush(&mut self) {}
}

/// One outgoing edge of a component.
struct Route<T> {
    grouping: Grouping<T>,
    /// Input channels of every downstream task.
    senders: Vec<Sender<Packet<T>>>,
    /// Occupancy gauges parallel to `senders` (bumped only when tracing).
    depths: Vec<Arc<AtomicI64>>,
    /// Global task ids parallel to `senders` (lineage span attribution).
    globals: Vec<u32>,
    /// Round-robin cursor for shuffle grouping.
    rr: usize,
}

/// Per-task lineage recording state ([`MonitorConfig::lineage`]); absent
/// entirely when lineage is off, so the hot path only ever checks `None`.
struct LineageState {
    /// This task's span producer (ring handle + id minting + sampler).
    sink: crate::lineage::SpanSink,
    /// `(trace, parent span)` of the tuple currently being processed or
    /// emitted; outgoing envelopes are stamped from it. `None` while
    /// handling an unsampled tuple.
    active: Option<(u64, u64)>,
}

/// The per-task emitter: owns this task's copy of each outgoing edge.
struct TaskEmitter<T> {
    routes: Vec<Route<T>>,
    counters: Arc<TaskCounters>,
    /// Shared tuple-tree tracker; `None` = at-most-once mode. A trait
    /// object so workers of a multi-process topology can substitute a
    /// forwarder to the coordinator's acker.
    acker: Option<Arc<dyn AckSink>>,
    /// High bits of every id this task mints: global task id << 40.
    id_hi: u64,
    /// Next id sequence number; starts at 1 so `id_hi | id_seq` (and its
    /// bijective mix) is never 0, the "untracked" sentinel.
    id_seq: u64,
    /// Roots of the input currently being processed; every output emitted
    /// while processing it is anchored to them.
    anchors: Vec<u64>,
    /// Seeded transport-level drop injection, when faults are enabled.
    drop_fault: Option<(f64, StdRng)>,
    /// Scratch for resolved (route, task) targets, reused across emits.
    targets: Vec<(usize, usize)>,
    /// Scratch for the fan-out delivery ids minted per emit.
    tids: Vec<u64>,
    /// Scratch for per-root combined XOR registrations per emit.
    xor_scratch: Vec<(u64, u64)>,
    /// Per-tuple tracing enabled: stamp envelopes and bump queue gauges.
    tracing: bool,
    /// Root emit time to stamp on outgoing envelopes (tracing +
    /// at-most-once only); inherited from the input being processed.
    t0: Option<Instant>,
    /// Per-(route, task) edge buffers, `buffers[ri][ti]`.
    buffers: Vec<Vec<Vec<Envelope<T>>>>,
    /// Whether any edge buffer holds a tuple.
    buffered: bool,
    /// Sampled-lineage recording; `None` = lineage off.
    lineage: Option<LineageState>,
    /// This task's global index (identifies span producers and flight
    /// events).
    global: u32,
    /// The always-on control-plane flight recorder.
    flight: Arc<FlightRecorder>,
    /// Component name, for flight events recorded from executor context.
    component: Arc<str>,
}

impl<T> TaskEmitter<T> {
    /// Mints a fresh tuple/root id from this task's namespace.
    fn next_id(&mut self) -> u64 {
        let id = mix_id(self.id_hi | self.id_seq);
        self.id_seq += 1;
        id
    }

    fn send_eos(&mut self) {
        // No tuple may be stranded behind an EOS marker: the buffers drain
        // before the markers go out (covers spout exhaustion, `finish`
        // emissions and the failure-path EOS sweeps alike).
        self.flush_all();
        for route in &mut self.routes {
            for s in &route.senders {
                let _ = s.send_weighted(Packet::Eos, 0);
            }
        }
    }

    /// Sends one edge buffer: a lone delivery as [`Packet::Data`] (the
    /// idle plane allocates nothing), several as one [`Packet::Batch`].
    /// The channel's capacity, the queue-depth gauges and the dropped
    /// counter are all *tuple*-granular: a batch of n that enters (or
    /// misses) a channel accounts for n tuples.
    fn flush_edge(&mut self, ri: usize, ti: usize) {
        let buf = &mut self.buffers[ri][ti];
        let n = buf.len();
        if n == 0 {
            return;
        }
        if let Some(l) = &mut self.lineage {
            // Buffer residency becomes a `BatchFlush` span per sampled
            // tuple, and the hop re-parents onto it so the downstream
            // queue span measures channel wait only.
            let now = l.sink.now_ns();
            let dest = self.routes[ri].globals[ti];
            for env in buf.iter_mut() {
                if let Some(hop) = env.hop.as_deref_mut() {
                    let sid = l.sink.record(
                        hop.trace,
                        hop.parent,
                        SpanKind::BatchFlush,
                        dest,
                        hop.sent_ns,
                        now.saturating_sub(hop.sent_ns),
                    );
                    hop.parent = sid;
                    hop.sent_ns = now;
                }
            }
        }
        let packet = if n == 1 {
            Packet::Data(buf.pop().expect("n counted one buffered delivery"))
        } else {
            // A backlogged edge tends to fill to the same size again.
            Packet::Batch(std::mem::replace(buf, Vec::with_capacity(n)))
        };
        if self.routes[ri].senders[ti].send_weighted(packet, n).is_err() {
            // The receiving task died (its channel tore down): the tuples
            // are lost — count them instead of vanishing silently.
            for _ in 0..n {
                self.counters.record_dropped();
            }
        } else if self.tracing {
            // Only deliveries that actually entered the channel occupy it.
            self.routes[ri].depths[ti].fetch_add(n as i64, Ordering::Relaxed);
        }
    }

    /// Flushes every edge buffer (no-op when nothing is buffered). The
    /// executor calls it when a turn ends — the task's input ran dry, its
    /// step budget is spent, or its spout returned from `next` — so no
    /// executor blocks and no spout sleeps inside `next` while holding
    /// tuples.
    fn flush_all(&mut self) {
        if !std::mem::take(&mut self.buffered) {
            return;
        }
        for ri in 0..self.routes.len() {
            for ti in 0..self.routes[ri].senders.len() {
                self.flush_edge(ri, ti);
            }
        }
    }
}

impl<T: Clone> TaskEmitter<T> {
    /// Delivers `msg` to every target resolved into `self.targets`.
    ///
    /// A single-subscriber edge — the common topology — moves the message
    /// without cloning. Fan-out (`All` grouping, multiple edges) wraps it
    /// in an `Arc` once, so every extra target is a refcount bump.
    ///
    /// All delivery ids are minted and registered with the acker *before*
    /// anything is sent (or buffered): the whole fan-out folds into one
    /// combined XOR per root applied under a single acker lock. Since
    /// registration precedes buffering, a batched output can never trail
    /// its input's ack, and a spout's `seal` directly after `emit` stays
    /// correct even while its outputs sit in edge buffers.
    fn dispatch(&mut self, msg: T) {
        if self.targets.is_empty() {
            // Nothing routed (terminal bolt, or direct emit without a
            // direct edge): not an emission, and nothing to track.
            return;
        }
        self.counters.record_emit();
        let n = self.targets.len();
        let targets = std::mem::take(&mut self.targets);
        let tracked = self.acker.is_some() && !self.anchors.is_empty();
        self.tids.clear();
        if tracked {
            let mut combined = 0u64;
            for _ in 0..n {
                let tid = self.next_id();
                combined ^= tid;
                self.tids.push(tid);
            }
            self.xor_scratch.clear();
            for &root in &self.anchors {
                self.xor_scratch.push((root, combined));
            }
            let acker = self.acker.as_ref().expect("tracked implies acker");
            acker.xor_batch(&self.xor_scratch);
        } else {
            self.tids.resize(n, 0);
        }
        if n == 1 {
            let (ri, ti) = targets[0];
            let tid = self.tids[0];
            self.send_one(ri, ti, Payload::Owned(msg), tid);
        } else {
            let mut shared = Some(Arc::new(msg));
            for (i, &(ri, ti)) in targets.iter().enumerate() {
                let payload = if i + 1 == n {
                    Payload::Shared(shared.take().expect("arc moved before final send"))
                } else {
                    Payload::Shared(shared.as_ref().expect("arc moved before final send").clone())
                };
                let tid = self.tids[i];
                self.send_one(ri, ti, payload, tid);
            }
        }
        self.targets = targets; // hand the scratch buffer back
    }

    /// Buffers one delivery whose id `dispatch` already registered with
    /// the acker on its edge; the edge is sent once it holds
    /// [`TURN_FLUSH_CAP`] tuples, else when the turn ends. Transport fault injection applies
    /// here, after registration — an injected loss looks exactly like a
    /// network drop the replay machinery must heal, and chaos drops act on
    /// individual tuples, never on whole batches.
    fn send_one(&mut self, ri: usize, ti: usize, msg: Payload<T>, tid: u64) {
        // `mix_id` is a bijection and raw ids start at 1, so 0 is minted
        // exactly for untracked deliveries.
        let tracked = tid != 0;
        if let Some((p, rng)) = &mut self.drop_fault {
            if rng.random_bool(*p) {
                self.counters.record_dropped();
                self.counters.record_injected_drop();
                return;
            }
        }
        let roots = if tracked { self.anchors.clone() } else { Vec::new() };
        let hop = match &self.lineage {
            Some(l) => l.active.map(|(trace, parent)| {
                Box::new(TraceHop {
                    trace,
                    parent,
                    src: self.global,
                    sent_ns: l.sink.now_ns(),
                })
            }),
            None => None,
        };
        self.buffered = true;
        let buf = &mut self.buffers[ri][ti];
        buf.push(Envelope { msg, tid, roots, t0: self.t0, hop });
        if buf.len() >= TURN_FLUSH_CAP {
            self.flush_edge(ri, ti);
        }
    }
}

impl<T: Clone> Emitter<T> for TaskEmitter<T> {
    fn emit(&mut self, msg: T) {
        // Resolve every (route, task) target before counting or sending:
        // the emitted counter and the acker must reflect deliveries that
        // actually route somewhere.
        self.targets.clear();
        for (ri, route) in self.routes.iter_mut().enumerate() {
            if route.senders.is_empty() {
                continue;
            }
            match &route.grouping {
                Grouping::Shuffle => {
                    let target = route.rr % route.senders.len();
                    route.rr = route.rr.wrapping_add(1);
                    self.targets.push((ri, target));
                }
                Grouping::Fields(key) => {
                    let n = route.senders.len() as u64;
                    self.targets.push((ri, (key(&msg) % n) as usize));
                }
                Grouping::All => {
                    for si in 0..route.senders.len() {
                        self.targets.push((ri, si));
                    }
                }
                Grouping::Direct => {
                    // Ignored: direct edges deliver via emit_direct only.
                }
            }
        }
        self.dispatch(msg);
    }

    fn emit_direct(&mut self, task: usize, msg: T) {
        self.targets.clear();
        let mut misrouted = 0u64;
        for (ri, route) in self.routes.iter().enumerate() {
            if matches!(route.grouping, Grouping::Direct) && !route.senders.is_empty() {
                if task < route.senders.len() {
                    self.targets.push((ri, task));
                } else {
                    // Out-of-range target: a routing bug in the emitting
                    // bolt. The old `task % len` wraparound silently handed
                    // the tuple to another task (another Esper engine's
                    // partition in the splitter topology) — count it and
                    // drop the delivery on this edge instead.
                    misrouted += 1;
                }
            }
        }
        for _ in 0..misrouted {
            self.counters.record_misrouted();
        }
        self.dispatch(msg);
    }

    fn flush(&mut self) {
        self.flush_all();
    }
}

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

/// A spout tuple awaiting the completion of its tree.
struct PendingRoot<T> {
    msg: T,
    deadline: Instant,
    retries: u32,
    /// When the tuple was first emitted; preserved across replays so
    /// end-to-end latency covers the full retry history.
    first_emit: Instant,
    /// `(trace id, emit span id)` when the tree is lineage-sampled;
    /// preserved across replays so replay and completion spans attach to
    /// the original tree instead of forming orphans.
    trace: Option<(u64, u64)>,
}

/// One spout task's state inside its executor thread.
struct SpoutTask<T> {
    spout: Box<dyn Spout<T>>,
    emitter: TaskEmitter<T>,
    /// Global task id — indexes this task's completion channel.
    global: usize,
    /// Completion notifications `(root, completed_at)` from the acker
    /// (reliability mode only).
    completions: Option<Receiver<(u64, Instant)>>,
    /// In-flight roots awaiting completion.
    pending: HashMap<u64, PendingRoot<T>>,
    /// Next time the pending buffer is scanned for timeouts.
    next_scan: Instant,
    /// Source not yet exhausted.
    live: bool,
    /// EOS forwarded (after the source drained *and* pending emptied).
    eos_sent: bool,
}

/// One bolt task's state inside its executor thread.
struct BoltTask<T> {
    bolt: Box<dyn Bolt<T>>,
    emitter: TaskEmitter<T>,
    rx: Receiver<Packet<T>>,
    /// Task index within the component (what errors must report).
    index: usize,
    /// Context handed to `prepare`, kept for supervised restarts.
    ctx: BoltContext,
    /// This task's input-channel occupancy gauge (tracing mode).
    depth: Arc<AtomicI64>,
    /// Durable snapshot+changelog state store; `None` = ephemeral task.
    store: Option<StateStore>,
    /// Scratch for changelog records drained per tuple.
    log_scratch: Vec<Vec<u8>>,
    /// Tuples processed since the last snapshot — drives the snapshot
    /// cadence for bolts that snapshot without writing changelog records.
    since_snapshot: u64,
    eos_seen: usize,
    restarts: u32,
    done: bool,
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
            let routes = make_routes(source);
            // Sized to the route fan-out: `buffers[ri][ti]` mirrors `senders`.
            let buffers = routes
                .iter()
                .map(|r| (0..r.senders.len()).map(|_| Vec::new()).collect())
                .collect();
            TaskEmitter {
                routes,
                counters,
                acker: acker.clone(),
                id_hi: (global as u64) << ID_SEQ_BITS,
                id_seq: 1,
                anchors: Vec::new(),
                drop_fault: fault
                    .filter(|f| f.drop_p > 0.0)
                    .map(|f| (f.drop_p, f.rng_for(global as u64 | (1 << 48)))),
                targets: Vec::new(),
                tids: Vec::new(),
                xor_scratch: Vec::new(),
                tracing,
                t0: None,
                buffers,
                buffered: false,
                lineage: collector.as_ref().map(|c| LineageState {
                    sink: c.register_task(global as u32, source),
                    active: None,
                }),
                global: global as u32,
                flight: flight.clone(),
                component: Arc::from(source),
            }
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
                    tasks.push(SpoutTask {
                        spout: (*s.factory)(ti),
                        emitter: make_emitter(&s.name, global, counters),
                        global,
                        completions: reliability.map(|_| {
                            completion_rxs[global]
                                .take()
                                .expect("each completion receiver is claimed exactly once")
                        }),
                        pending: HashMap::new(),
                        next_scan: Instant::now(),
                        live: true,
                        eos_sent: false,
                    });
                }
                let component = s.name.clone();
                let thread_acker = acker.clone();
                threads.push(spawn_executor(&s.name, task_ids[0], move || {
                    run_spout_executor(tasks, task_ids, component, thread_acker, reliability, tracing)
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
                    tasks.push(BoltTask {
                        bolt: (*b.factory)(ti),
                        emitter: make_emitter(&b.name, global, counters),
                        rx,
                        index: ti,
                        ctx: BoltContext { task_index: ti, task_count },
                        depth: depths_by_bolt[bi][ti].clone(),
                        store,
                        log_scratch: Vec::new(),
                        since_snapshot: 0,
                        eos_seen: 0,
                        restarts: 0,
                        done: false,
                    });
                }
                let component = b.name.clone();
                let expected = expected_eos[bi];
                let factory = b.factory.clone();
                let thread_acker = acker.clone();
                threads.push(spawn_executor(&b.name, task_ids[0], move || {
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
/// message and `/proc/<pid>/task/*/comm` attribute to a component.
fn spawn_executor(
    component: &str,
    first_task: usize,
    run: impl FnOnce() -> Result<(), DspsError> + Send + 'static,
) -> std::thread::JoinHandle<Result<(), DspsError>> {
    std::thread::Builder::new()
        .name(format!("{component}#{first_task}"))
        .spawn(run)
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

/// Drives one spout executor: round-robins its tasks, each pulling from
/// its source, draining acker completions and replaying timed-out trees
/// until the source is exhausted *and* every in-flight tuple resolved.
fn run_spout_executor<T: Clone + Send + Sync>(
    mut tasks: Vec<SpoutTask<T>>,
    task_ids: Vec<usize>,
    component: String,
    acker: Option<Arc<dyn AckSink>>,
    reliability: Option<ReliabilityConfig>,
    tracing: bool,
) -> Result<(), DspsError> {
    let mut finished = 0usize;
    let mut failure: Option<DspsError> = None;
    'outer: while finished < tasks.len() {
        let mut progressed = false;
        for (i, t) in tasks.iter_mut().enumerate() {
            if t.eos_sent {
                continue;
            }
            // 1. Completions: fully-acked trees leave the pending buffer.
            //    End-to-end latency runs from the *first* emit (replays
            //    included) to the acker's completion instant — not to the
            //    moment this drain loop got around to the notification.
            if let Some(rx) = &t.completions {
                while let Ok((root, completed_at)) = rx.try_recv() {
                    if let Some(p) = t.pending.remove(&root) {
                        t.emitter.counters.record_acked();
                        if tracing {
                            t.emitter
                                .counters
                                .record_completion(completed_at.saturating_duration_since(p.first_emit));
                        }
                        if let Some(l) = &mut t.emitter.lineage {
                            if let Some((trace, parent)) = p.trace {
                                // The tree is done at the acker's completion
                                // instant, not when this drain got to it.
                                let at = l.sink.at_ns(completed_at);
                                l.sink.record(
                                    trace,
                                    parent,
                                    SpanKind::Completion,
                                    p.retries,
                                    at,
                                    0,
                                );
                            }
                        }
                        progressed = true;
                    }
                }
            }
            // 2. Timed-out trees: abandon the old root (late acks become
            //    no-ops) and replay under a fresh one with exponential
            //    backoff; an exhausted budget fails the tuple instead, so
            //    the topology still terminates.
            if let Some(rel) = &reliability {
                let now = Instant::now();
                if t.next_scan <= now && !t.pending.is_empty() {
                    t.next_scan = now + Duration::from_millis(10).min(rel.ack_timeout / 4);
                    let acker = acker.as_ref().expect("reliability implies acker");
                    let due: Vec<u64> = t
                        .pending
                        .iter()
                        .filter(|(_, p)| p.deadline <= now)
                        .map(|(&root, _)| root)
                        .collect();
                    for root in due {
                        let p = t.pending.remove(&root).expect("key drawn from this map");
                        acker.abandon(root);
                        if p.retries >= rel.max_retries {
                            t.emitter.counters.record_failed();
                            continue;
                        }
                        let retries = p.retries + 1;
                        let new_root = t.emitter.next_id();
                        acker.register(new_root, t.global);
                        let timeout = rel.ack_timeout.mul_f64(rel.backoff.powi(retries as i32));
                        // A sampled tree's replay gets its own span, parented
                        // into the original tree (stored on the pending root)
                        // so re-emitted hops stay connected to it; the new
                        // pending root carries the replay span forward for
                        // any further retries and the completion.
                        let mut replay_ctx = None;
                        if let Some(l) = &mut t.emitter.lineage {
                            if let Some((trace, parent)) = p.trace {
                                let sid = l.sink.next_id();
                                replay_ctx = Some((trace, parent, sid, l.sink.now_ns()));
                                l.active = Some((trace, sid));
                            }
                        }
                        t.pending.insert(
                            new_root,
                            PendingRoot {
                                msg: p.msg.clone(),
                                deadline: now + timeout,
                                retries,
                                first_emit: p.first_emit,
                                trace: replay_ctx.map(|(trace, _, sid, _)| (trace, sid)),
                            },
                        );
                        t.emitter.anchors.clear();
                        t.emitter.anchors.push(new_root);
                        t.emitter.emit(p.msg);
                        t.emitter.anchors.clear();
                        if let Some(l) = &mut t.emitter.lineage {
                            if let Some((trace, parent, sid, start)) = replay_ctx {
                                let end = l.sink.now_ns();
                                l.sink.record_with_id(
                                    sid,
                                    trace,
                                    parent,
                                    SpanKind::Replay,
                                    retries,
                                    start,
                                    end.saturating_sub(start),
                                );
                            }
                            l.active = None;
                        }
                        acker.seal(new_root);
                        t.emitter.counters.record_replayed();
                        progressed = true;
                    }
                }
            }
            // 3. Pull from the source, unless the pending buffer is full.
            let throttled =
                reliability.is_some_and(|rel| t.pending.len() >= rel.max_pending);
            if t.live && !throttled {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    t.spout.next()
                }));
                match result {
                    Ok(Some(msg)) => {
                        // Spout emission is accounted under `emitted` (by
                        // the emitter); `processed`/`busy_ns` stay bolt-only
                        // so spout windows don't fake a processing latency.
                        progressed = true;
                        if let Some(rel) = &reliability {
                            let acker = acker.as_ref().expect("reliability implies acker");
                            let root = t.emitter.next_id();
                            acker.register(root, t.global);
                            // Deterministic sampling: the root id is already
                            // a SplitMix64-mixed uniform u64, so a threshold
                            // compare picks `sample_rate` of trees with no
                            // RNG. The emit span id is reserved up front so
                            // outgoing envelopes can parent onto it.
                            let mut emit_ctx = None;
                            if let Some(l) = &mut t.emitter.lineage {
                                if l.sink.sampled(root) {
                                    let sid = l.sink.next_id();
                                    emit_ctx = Some((root, sid, l.sink.now_ns()));
                                    l.active = Some((root, sid));
                                }
                            }
                            let now = Instant::now();
                            t.pending.insert(
                                root,
                                PendingRoot {
                                    msg: msg.clone(),
                                    deadline: now + rel.ack_timeout,
                                    retries: 0,
                                    first_emit: now,
                                    trace: emit_ctx.map(|(trace, sid, _)| (trace, sid)),
                                },
                            );
                            t.emitter.anchors.clear();
                            t.emitter.anchors.push(root);
                            t.emitter.emit(msg);
                            t.emitter.anchors.clear();
                            if let Some(l) = &mut t.emitter.lineage {
                                if let Some((trace, sid, start)) = emit_ctx {
                                    let end = l.sink.now_ns();
                                    l.sink.record_with_id(
                                        sid,
                                        trace,
                                        0,
                                        SpanKind::SpoutEmit,
                                        0,
                                        start,
                                        end.saturating_sub(start),
                                    );
                                }
                                l.active = None;
                            }
                            // Completes roots whose emit found no route.
                            acker.seal(root);
                        } else {
                            // At-most-once has no acker root: mint a probe id
                            // from the same mixed namespace for the sampling
                            // decision and the trace id.
                            let probe = match t.emitter.lineage {
                                Some(_) => Some(t.emitter.next_id()),
                                None => None,
                            };
                            let mut emit_ctx = None;
                            if let (Some(l), Some(root)) = (&mut t.emitter.lineage, probe) {
                                if l.sink.sampled(root) {
                                    let sid = l.sink.next_id();
                                    emit_ctx = Some((root, sid, l.sink.now_ns()));
                                    l.active = Some((root, sid));
                                }
                            }
                            if tracing {
                                t.emitter.t0 = Some(Instant::now());
                            }
                            t.emitter.emit(msg);
                            t.emitter.t0 = None;
                            if let Some(l) = &mut t.emitter.lineage {
                                if let Some((trace, sid, start)) = emit_ctx {
                                    let end = l.sink.now_ns();
                                    l.sink.record_with_id(
                                        sid,
                                        trace,
                                        0,
                                        SpanKind::SpoutEmit,
                                        0,
                                        start,
                                        end.saturating_sub(start),
                                    );
                                }
                                l.active = None;
                            }
                        }
                    }
                    Ok(None) => {
                        t.live = false;
                        progressed = true;
                    }
                    Err(e) => {
                        failure = Some(DspsError::TaskPanicked {
                            component: component.clone(),
                            task: task_ids[i],
                            reason: panic_text(e.as_ref()),
                        });
                        break 'outer;
                    }
                }
            }
            // 4. EOS once drained: source exhausted, nothing in flight.
            if !t.live && t.pending.is_empty() && !t.eos_sent {
                t.emitter.send_eos();
                t.emitter.flight.record(
                    FlightKind::Eos,
                    &t.emitter.component,
                    t.emitter.global as i64,
                    "source drained, in-flight empty",
                );
                t.eos_sent = true;
                finished += 1;
                progressed = true;
            }
            // 5. A spout's turn is one `next`: it may sleep inside the
            //    following call, so nothing emitted above outlives this
            //    one.
            t.emitter.flush_all();
        }
        if !progressed {
            // Only waiting on acks: don't spin.
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // EOS every task this executor still owes, so downstream terminates
    // even when this executor failed mid-stream.
    for t in tasks.iter_mut() {
        if !t.eos_sent {
            if let Some(acker) = &acker {
                for &root in t.pending.keys() {
                    acker.abandon(root);
                }
            }
            t.emitter.send_eos();
            t.eos_sent = true;
        }
    }
    match failure {
        Some(e) => {
            // Fatal executor death: dump the control-plane history around
            // the failure to stderr before it is lost to the join.
            if let Some(t) = tasks.first() {
                t.emitter.flight.dump(&format!("spout executor '{component}' failed: {e}"));
            }
            Err(e)
        }
        None => Ok(()),
    }
}

/// Drives one bolt executor: consumes each task's input channel, acks
/// processed tuples, supervises panics (restarting the task from its
/// factory when reliability allows) and terminates on EOS quorum.
fn run_bolt_executor<T: Clone + Send + Sync>(
    mut tasks: Vec<BoltTask<T>>,
    component: String,
    expected: usize,
    factory: crate::topology::BoltFactory<T>,
    acker: Option<Arc<dyn AckSink>>,
    reliability: Option<ReliabilityConfig>,
    tracing: bool,
) -> Result<(), DspsError> {
    // Storm calls prepare() on the worker, not the submitting client;
    // per-task state must live on the executor thread. With durability
    // on, state found on disk (a prior run's snapshot + changelog) is
    // restored before the first tuple — stateful recovery rather than a
    // cold start.
    for t in tasks.iter_mut() {
        t.bolt.prepare(t.ctx);
        if let Some(store) = t.store.as_mut() {
            if let Some((snapshot, changelog)) = store.take_recovered() {
                let detail = format!(
                    "snapshot={} bytes, changelog={} records",
                    snapshot.as_ref().map_or(0, |s| s.len()),
                    changelog.len()
                );
                t.bolt.restore_state(snapshot.as_deref(), &changelog);
                t.emitter.flight.record(
                    FlightKind::Restore,
                    &t.emitter.component,
                    t.emitter.global as i64,
                    detail,
                );
            }
        }
    }
    let single = tasks.len() == 1;
    let mut remaining = tasks.len();
    let mut failure: Option<DspsError> = None;
    // Per-packet (root, combined-id) ack accumulation, reused across packets.
    let mut acks: Vec<(u64, u64)> = Vec::new();
    'outer: while remaining > 0 {
        let mut progressed = false;
        for t in tasks.iter_mut() {
            if t.done {
                continue;
            }
            // Single-task executors block on their channel (the common
            // 1:1 configuration); shared executors drain their tasks
            // pseudo-parallelly and block on a select below when every
            // channel runs dry.
            let budget = 64;
            for step in 0..budget {
                let packet = if single && step == 0 {
                    match t.rx.recv() {
                        Ok(p) => Some(p),
                        Err(crossbeam::channel::RecvError) => {
                            // Upstream died without EOS (hard panic);
                            // terminate the task.
                            t.eos_seen = expected;
                            Some(Packet::Eos)
                        }
                    }
                } else {
                    match t.rx.try_recv() {
                        Ok(p) => Some(p),
                        Err(crossbeam::channel::TryRecvError::Empty) => None,
                        Err(crossbeam::channel::TryRecvError::Disconnected) => {
                            t.eos_seen = expected;
                            Some(Packet::Eos)
                        }
                    }
                };
                let Some(packet) = packet else { break };
                progressed = true;
                match packet {
                    Packet::Eos => {
                        t.eos_seen += 1;
                        if t.eos_seen >= expected {
                            let r = std::panic::catch_unwind(
                                std::panic::AssertUnwindSafe(|| t.bolt.finish(&mut t.emitter)),
                            );
                            // Final snapshot: a cleanly drained task leaves
                            // its complete end-of-stream state on disk, so
                            // a resubmitted topology resumes from it.
                            if r.is_ok() {
                                if let Err(e) = persist_bolt_state(t, true) {
                                    failure = Some(e);
                                }
                            }
                            t.emitter.send_eos();
                            t.done = true;
                            remaining -= 1;
                            if let Err(e) = r {
                                failure = Some(DspsError::TaskPanicked {
                                    component: component.clone(),
                                    task: t.index,
                                    reason: panic_text(e.as_ref()),
                                });
                                break 'outer;
                            }
                            if failure.is_some() {
                                break 'outer;
                            }
                            break;
                        }
                    }
                    data => {
                        if tracing {
                            // The gauge counts tuples, not packets.
                            t.depth.fetch_sub(data.tuples() as i64, Ordering::Relaxed);
                        }
                        acks.clear();
                        let mut fatal = None;
                        for env in data.into_envelopes() {
                            let r = process_envelope(
                                t, env, &component, &factory, &acker, reliability, &mut acks,
                            );
                            if let Err(e) = r {
                                fatal = Some(e);
                                break;
                            }
                        }
                        // One acker call for the whole packet, ids combined
                        // per root. Flushed even when a later tuple was
                        // fatal: the earlier ones really were processed.
                        if let Some(acker) = &acker {
                            acker.xor_batch(&acks);
                        }
                        if let Some(e) = fatal {
                            failure = Some(e);
                            break 'outer;
                        }
                    }
                }
            }
            // The drain turn is over: everything it emitted goes out before
            // this executor can block again.
            t.emitter.flush_all();
        }
        if !progressed && !single {
            // Every channel ran dry: block on a select across the live
            // tasks until a send or upstream disconnect arrives.
            let mut sel = crossbeam::channel::Select::new();
            for t in tasks.iter().filter(|t| !t.done) {
                sel.recv(&t.rx);
            }
            let _ = sel.ready_timeout(Duration::from_millis(50));
        }
    }
    // On failure, EOS every unfinished task so downstream components
    // terminate instead of waiting forever.
    if failure.is_some() {
        for t in tasks.iter_mut() {
            if !t.done {
                t.emitter.send_eos();
            }
        }
    }
    match failure {
        Some(e) => {
            // Fatal executor death: dump the control-plane history around
            // the failure to stderr before it is lost to the join.
            if let Some(t) = tasks.first() {
                t.emitter.flight.dump(&format!("bolt executor '{component}' failed: {e}"));
            }
            Err(e)
        }
        None => Ok(()),
    }
}

/// Runs one delivery through a bolt task: anchor inheritance, panic
/// containment around `process`, latency and terminal-completion
/// recording, auto-ack, and supervised restart on panic.
///
/// The input's ack is folded into `acks` as per-root combined ids; the
/// caller applies them in one [`Acker::xor_batch`] call after the packet.
/// A fatal error is returned for the caller to surface; a supervised
/// restart is absorbed here and processing continues with the next
/// delivery.
fn process_envelope<T: Clone + Send + Sync>(
    t: &mut BoltTask<T>,
    env: Envelope<T>,
    component: &str,
    factory: &crate::topology::BoltFactory<T>,
    acker: &Option<Arc<dyn AckSink>>,
    reliability: Option<ReliabilityConfig>,
    acks: &mut Vec<(u64, u64)>,
) -> Result<(), DspsError> {
    let Envelope { msg, tid, roots, t0, hop } = env;
    t.emitter.anchors = roots;
    // Outputs inherit the input's root emit time, so the stamp survives
    // multi-hop pipelines.
    t.emitter.t0 = t0;
    // A sampled input yields two spans: the queue wait (send → here,
    // charged against the sender via `other`) and the `process` call. The
    // process span id is reserved before the call so emitted outputs can
    // parent onto it.
    let mut proc_ctx = None;
    if let Some(l) = &mut t.emitter.lineage {
        if let Some(hop) = hop.as_deref() {
            let now = l.sink.now_ns();
            let q = l.sink.record(
                hop.trace,
                hop.parent,
                SpanKind::Queue,
                hop.src,
                hop.sent_ns,
                now.saturating_sub(hop.sent_ns),
            );
            let pid = l.sink.next_id();
            l.active = Some((hop.trace, pid));
            proc_ctx = Some((hop.trace, q, pid, now));
        }
    }
    let start = Instant::now();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        t.bolt.process(msg.into_owned(), &mut t.emitter)
    }));
    t.emitter.counters.record(start.elapsed());
    // Chaos injections fired inside process() (the ChaosBolt wrapper
    // cannot reach the counters): drain the executor-thread tallies.
    let (injected_panics, injected_latency) = crate::fault::take_injections();
    if injected_panics > 0 {
        t.emitter.counters.record_injected_panics(injected_panics);
        t.emitter.flight.record(
            FlightKind::ChaosPanic,
            &t.emitter.component,
            t.emitter.global as i64,
            "injected panic fired in process()",
        );
    }
    if injected_latency > 0 {
        t.emitter.counters.record_injected_latency(injected_latency);
    }
    if r.is_ok() && t.emitter.routes.is_empty() {
        // A terminal bolt ends the tuple's path: in at-most-once tracing
        // mode this is where the end-to-end latency is known (reliability
        // mode records it spout-side on tree completion).
        if let Some(t0) = t.emitter.t0 {
            t.emitter.counters.record_completion(t0.elapsed());
        }
    }
    t.emitter.t0 = None;
    if let Some(l) = &mut t.emitter.lineage {
        if let Some((trace, q, pid, start_ns)) = proc_ctx {
            let end = l.sink.now_ns();
            l.sink.record_with_id(
                pid,
                trace,
                q,
                SpanKind::Process,
                0,
                start_ns,
                end.saturating_sub(start_ns),
            );
            if r.is_ok() && t.emitter.routes.is_empty() && acker.is_none() {
                // Terminal bolt in at-most-once mode: the tree completes
                // here (reliability completes spout-side off the acker).
                l.sink.record(trace, pid, SpanKind::Completion, 0, end, 0);
            }
        }
        l.active = None;
    }
    match r {
        Ok(()) => {
            // Auto-ack: outputs were registered during process() (and
            // registration happens at emit time even when they sit in
            // edge buffers), so acking the input now can only complete a
            // genuinely finished tree.
            if acker.is_some() {
                for &root in &t.emitter.anchors {
                    push_combined(acks, root, tid);
                }
            }
            t.emitter.anchors.clear();
            persist_bolt_state(t, false)
        }
        Err(e) => {
            // Never ack a failed input: its tree stays incomplete and the
            // spout replays it.
            t.emitter.anchors.clear();
            let budget = reliability.map_or(0, |rel| rel.max_task_restarts);
            if t.restarts < budget {
                // Supervisor: rebuild the task from its factory and keep
                // consuming. Replay covers the lost tuple. With durability
                // on, the rebuilt task restores its last persisted state
                // (snapshot + changelog since) instead of starting empty —
                // the poisoned tuple's own changes were never drained, so
                // the restored state is exactly as of the last good tuple.
                let ctx = t.ctx;
                let index = t.index;
                let recovered = match t.store.as_mut() {
                    Some(store) => match store.read_current() {
                        Ok(r) => Some(r),
                        Err(e) => return Err(e),
                    },
                    None => None,
                };
                let rebuilt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut bolt = (*factory)(index);
                    bolt.prepare(ctx);
                    if let Some((snapshot, changelog)) = &recovered {
                        bolt.restore_state(snapshot.as_deref(), changelog);
                    }
                    bolt
                }));
                match rebuilt {
                    Ok(bolt) => {
                        t.bolt = bolt;
                        t.restarts += 1;
                        t.emitter.counters.record_restarted();
                        t.emitter.flight.record(
                            FlightKind::TaskRestart,
                            &t.emitter.component,
                            t.emitter.global as i64,
                            format!(
                                "restart {}/{} after panic: {}{}",
                                t.restarts,
                                budget,
                                panic_text(e.as_ref()),
                                if recovered.is_some() { " (state restored)" } else { "" }
                            ),
                        );
                        Ok(())
                    }
                    Err(e2) => Err(DspsError::TaskPanicked {
                        component: component.to_string(),
                        task: t.index,
                        reason: format!("restart failed: {}", panic_text(e2.as_ref())),
                    }),
                }
            } else if reliability.is_some() {
                Err(DspsError::TaskRestartsExhausted {
                    component: component.to_string(),
                    task: t.index,
                    restarts: t.restarts,
                    reason: panic_text(e.as_ref()),
                })
            } else {
                Err(DspsError::TaskPanicked {
                    component: component.to_string(),
                    task: t.index,
                    reason: panic_text(e.as_ref()),
                })
            }
        }
    }
}

/// Persists a bolt task's state changes: drains the bolt's changelog
/// records into the store, then snapshots (and compacts) when the cadence
/// is due — counted both in changelog records and in processed tuples, so
/// snapshot-only bolts (empty changelogs) still checkpoint periodically.
/// `force_snapshot` is the end-of-stream path: always leave a complete
/// final snapshot behind. No-op without a store.
fn persist_bolt_state<T>(t: &mut BoltTask<T>, force_snapshot: bool) -> Result<(), DspsError> {
    let Some(store) = t.store.as_mut() else { return Ok(()) };
    t.log_scratch.clear();
    t.bolt.drain_changelog(&mut t.log_scratch);
    for record in &t.log_scratch {
        store.append(record)?;
    }
    t.since_snapshot += 1;
    if force_snapshot || store.snapshot_due() || t.since_snapshot >= store.snapshot_every() {
        if let Some(state) = t.bolt.snapshot_state() {
            store.snapshot(&state)?;
            t.emitter.flight.record(
                FlightKind::Snapshot,
                &t.emitter.component,
                t.emitter.global as i64,
                format!("{} bytes{}", state.len(), if force_snapshot { " (final)" } else { "" }),
            );
        }
        t.since_snapshot = 0;
    }
    Ok(())
}

/// Folds `(root, id)` into a batch's ack accumulation, XOR-combining ids
/// that share a root so the batch resolves to one acker entry per root.
/// XOR associativity makes the combined application equivalent to the
/// per-tuple sequence (see [`Acker::xor_batch`]).
fn push_combined(pairs: &mut Vec<(u64, u64)>, root: u64, id: u64) {
    if let Some(p) = pairs.iter_mut().find(|p| p.0 == root) {
        p.1 ^= id;
    } else {
        pairs.push((root, id));
    }
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
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
    use crate::grouping::hash_key;
    use crate::topology::{Parallelism, TopologyBuilder};
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
