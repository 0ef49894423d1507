//! The data plane: what a task sends, and when.
//!
//! A [`TaskEmitter`] owns its task's copy of every outgoing edge. An
//! emission resolves its targets under each edge's grouping, registers the
//! deliveries with the acker, and buffers one [`Envelope`] per target in
//! that target's edge buffer. A buffer is sent as one [`Packet`] when it
//! reaches [`TURN_FLUSH_CAP`] tuples, when the executor's turn ends
//! ([`TaskEmitter::flush_all`]), on [`Emitter::flush`], and before any
//! end-of-stream marker — so tuples travel in batches exactly as far as a
//! backlog already queued them, and an idle plane sends tuple by tuple.
//! Channel capacity, queue gauges and the dropped counter all count
//! tuples, never packets.
//!
//! A *chained* edge has no channel: the emitter owns the one downstream
//! task it feeds, and flushing the edge runs that task on the calling
//! thread ([`run_chained`]). It flushes when the turn ends, on
//! [`Emitter::flush`] and before end-of-stream, never at
//! [`TURN_FLUSH_CAP`] in the middle of a `process` call: the upstream
//! task's busy time and `Process` span stay its own, and one upstream
//! turn bounds the buffer.

use crate::ack::Acker;
use crate::executor::{end_chained, run_chained, BoltTask};
use crate::fault::FaultConfig;
use crate::flight::FlightRecorder;
use crate::grouping::Grouping;
use crate::lineage::{SpanKind, SpanSink};
use crate::metrics::{Counter, TaskCounters};
use crossbeam::channel::Sender;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

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
    pub(crate) fn into_owned(self) -> T {
        match self {
            Payload::Owned(t) => t,
            Payload::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
        }
    }
}

/// The trace context a sampled delivery carries: which tree it belongs
/// to, which span emitted it, when it was sent (for queue-wait spans) and
/// when its tree started (for the end-to-end latency a terminal bolt
/// records). Boxed on the envelope so unsampled (and lineage-off)
/// deliveries pay one `None` pointer, not the full struct.
#[derive(Clone, Copy)]
pub(crate) struct TraceHop {
    /// Tuple-tree id (the sampled root delivery id).
    pub(crate) trace: u64,
    /// The span that emitted this delivery.
    pub(crate) parent: u64,
    /// Global task that sent it.
    pub(crate) src: u32,
    /// Send time, nanoseconds since the collector epoch.
    pub(crate) sent_ns: u64,
    /// Start of the spout emit (or replay) the tree descends from,
    /// nanoseconds since the collector epoch.
    pub(crate) root_ns: u64,
}

/// One delivery: the message plus its reliability lineage.
pub(crate) struct Envelope<T> {
    pub(crate) msg: Payload<T>,
    /// This delivery's id, registered with the acker (0 when untracked).
    pub(crate) tid: u64,
    /// Spout roots this delivery descends from (empty when untracked).
    pub(crate) roots: Vec<u64>,
    /// Trace context when this delivery belongs to a sampled tree.
    pub(crate) trace: Option<Box<TraceHop>>,
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

    pub(crate) fn into_envelopes(self) -> impl Iterator<Item = Envelope<T>> {
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
    /// a receiver does with what was just emitted. A chained receiver has
    /// no channel: `flush` runs it, on this thread, before returning.
    fn flush(&mut self) {}
}

/// One outgoing edge of a component.
pub(crate) struct Route<T> {
    pub(crate) grouping: Grouping<T>,
    /// Input channels of every downstream task (empty on a chained edge).
    pub(crate) senders: Vec<Sender<Packet<T>>>,
    /// Occupancy gauges parallel to `senders`: present for local tasks
    /// under a monitor, absent otherwise.
    pub(crate) depths: Vec<Option<Arc<AtomicI64>>>,
    /// Global ids of the tasks this edge reaches, one per target index
    /// (lineage span attribution).
    pub(crate) globals: Vec<u32>,
    /// Round-robin cursor for shuffle grouping.
    pub(crate) rr: usize,
    /// On a chained edge, its one target: the downstream task this task
    /// drives by direct call.
    pub(crate) chained: Option<Box<BoltTask<T>>>,
}

/// Per-task lineage recording state
/// ([`MonitorConfig::lineage`](crate::metrics::MonitorConfig::lineage));
/// absent entirely when lineage is off, so the hot path only ever checks
/// `None`.
pub(crate) struct LineageState {
    /// This task's span producer (ring handle + id minting + sampler).
    pub(crate) sink: SpanSink,
    /// `(trace, parent span, root_ns)` of the tuple currently being
    /// processed or emitted; outgoing envelopes are stamped from it.
    /// `None` while handling an unsampled tuple.
    pub(crate) active: Option<(u64, u64, u64)>,
}

/// The per-task emitter: owns this task's copy of each outgoing edge.
pub(crate) struct TaskEmitter<T> {
    pub(crate) routes: Vec<Route<T>>,
    pub(crate) counters: Arc<TaskCounters>,
    /// Shared tuple-tree tracker; `None` = at-most-once mode.
    acker: Option<Arc<Acker>>,
    /// High bits of every id this task mints: global task id << 40.
    id_hi: u64,
    /// Next id sequence number; starts at 1 so `id_hi | id_seq` (and its
    /// bijective mix) is never 0, the "untracked" sentinel.
    id_seq: u64,
    /// Roots of the input currently being processed; every output emitted
    /// while processing it is anchored to them.
    pub(crate) anchors: Vec<u64>,
    /// Seeded transport-level drop injection, when faults are enabled.
    drop_fault: Option<(f64, StdRng)>,
    /// Scratch for resolved (route, task) targets, reused across emits.
    targets: Vec<(usize, usize)>,
    /// Scratch for the fan-out delivery ids minted per emit.
    tids: Vec<u64>,
    /// Scratch for per-root combined XOR registrations per emit.
    xor_scratch: Vec<(u64, u64)>,
    /// Per-(route, task) edge buffers, `buffers[ri][ti]`.
    buffers: Vec<Vec<Vec<Envelope<T>>>>,
    /// Whether any edge buffer holds a tuple.
    buffered: bool,
    /// Sampled-lineage recording; `None` = lineage off.
    pub(crate) lineage: Option<LineageState>,
    /// This task's global index (identifies span producers and flight
    /// events).
    pub(crate) global: u32,
    /// The always-on control-plane flight recorder.
    pub(crate) flight: Arc<FlightRecorder>,
    /// Component name, for flight events recorded from executor context.
    pub(crate) component: Arc<str>,
}

impl<T> TaskEmitter<T> {
    /// The emitter of global task `global` of `component`, sending over
    /// `routes`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        component: &str,
        global: usize,
        routes: Vec<Route<T>>,
        counters: Arc<TaskCounters>,
        acker: Option<Arc<Acker>>,
        fault: Option<FaultConfig>,
        lineage: Option<SpanSink>,
        flight: Arc<FlightRecorder>,
    ) -> Self {
        // Sized to the route fan-out: `buffers[ri][ti]` mirrors `globals`.
        let buffers = routes
            .iter()
            .map(|r| (0..r.globals.len()).map(|_| Vec::new()).collect())
            .collect();
        TaskEmitter {
            routes,
            counters,
            acker,
            id_hi: (global as u64) << ID_SEQ_BITS,
            id_seq: 1,
            anchors: Vec::new(),
            drop_fault: fault
                .filter(|f| f.drop_p > 0.0)
                .map(|f| (f.drop_p, f.rng_for(global as u64 | (1 << 48)))),
            targets: Vec::new(),
            tids: Vec::new(),
            xor_scratch: Vec::new(),
            buffers,
            buffered: false,
            lineage: lineage.map(|sink| LineageState { sink, active: None }),
            global: global as u32,
            flight,
            component: Arc::from(component),
        }
    }

    /// Mints a fresh tuple/root id from this task's namespace.
    pub(crate) fn next_id(&mut self) -> u64 {
        let id = mix_id(self.id_hi | self.id_seq);
        self.id_seq += 1;
        id
    }
}

impl<T: Clone> TaskEmitter<T> {
    pub(crate) fn send_eos(&mut self) {
        // No tuple may be stranded behind an EOS marker: the buffers drain
        // before the markers go out (covers spout exhaustion, `finish`
        // emissions and the failure-path EOS sweeps alike).
        self.flush_all();
        for route in &mut self.routes {
            for s in &route.senders {
                let _ = s.send_weighted(Packet::Eos, 0);
            }
            if let Some(member) = route.chained.as_deref_mut() {
                end_chained(member);
            }
        }
    }

    /// Sends one edge buffer: a lone delivery as [`Packet::Data`] (the
    /// idle plane allocates nothing), several as one [`Packet::Batch`].
    /// The channel's capacity, the queue-depth gauges and the dropped
    /// counter are all *tuple*-granular: a batch of n that enters (or
    /// misses) a channel accounts for n tuples. A chained edge hands the
    /// buffer to its task instead.
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
                if let Some(hop) = env.trace.as_deref_mut() {
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
        if let Some(member) = self.routes[ri].chained.as_deref_mut() {
            run_chained(member, buf, &self.counters);
            return;
        }
        let packet = if n == 1 {
            Packet::Data(buf.pop().expect("n == 1: the edge buffer holds exactly one delivery"))
        } else {
            // A backlogged edge tends to fill to the same size again.
            Packet::Batch(std::mem::replace(buf, Vec::with_capacity(n)))
        };
        if self.routes[ri].senders[ti].send_weighted(packet, n).is_err() {
            // The receiving task died (its channel tore down): the tuples
            // are lost — count them instead of vanishing silently.
            self.counters.add(Counter::Dropped, n as u64);
        } else if let Some(depth) = &self.routes[ri].depths[ti] {
            // Only deliveries that actually entered the channel occupy it.
            depth.fetch_add(n as i64, Ordering::Relaxed);
        }
    }

    /// Flushes every edge buffer (no-op when nothing is buffered). The
    /// executor calls it when a turn ends — the task's input ran dry, its
    /// step budget is spent, or its spout returned from `next` — so no
    /// executor blocks and no spout sleeps inside `next` while holding
    /// tuples.
    pub(crate) fn flush_all(&mut self) {
        if !std::mem::take(&mut self.buffered) {
            return;
        }
        for ri in 0..self.routes.len() {
            for ti in 0..self.routes[ri].globals.len() {
                self.flush_edge(ri, ti);
            }
        }
    }

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
        self.counters.add(Counter::Emitted, 1);
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
            if let Some(acker) = &self.acker {
                acker.xor_batch(&self.xor_scratch);
            }
        } else {
            self.tids.resize(n, 0);
        }
        if n == 1 {
            let (ri, ti) = targets[0];
            let tid = self.tids[0];
            self.send_one(ri, ti, Payload::Owned(msg), tid);
        } else {
            const HELD: &str = "only the last target takes the Arc";
            let mut shared = Some(Arc::new(msg));
            for (i, &(ri, ti)) in targets.iter().enumerate() {
                let payload = if i + 1 == n {
                    Payload::Shared(shared.take().expect(HELD))
                } else {
                    Payload::Shared(shared.as_ref().expect(HELD).clone())
                };
                let tid = self.tids[i];
                self.send_one(ri, ti, payload, tid);
            }
        }
        self.targets = targets; // hand the scratch buffer back
    }

    /// Buffers one delivery whose id `dispatch` already registered with
    /// the acker on its edge; a channel edge is sent once it holds
    /// [`TURN_FLUSH_CAP`] tuples, any edge when the turn ends. Transport fault injection applies
    /// here, after registration — an injected loss looks exactly like a
    /// network drop the replay machinery must heal, and chaos drops act on
    /// individual tuples, never on whole batches.
    fn send_one(&mut self, ri: usize, ti: usize, msg: Payload<T>, tid: u64) {
        // `mix_id` is a bijection and raw ids start at 1, so 0 is minted
        // exactly for untracked deliveries.
        let tracked = tid != 0;
        if let Some((p, rng)) = &mut self.drop_fault {
            if rng.random_bool(*p) {
                self.counters.add(Counter::Dropped, 1);
                self.counters.add(Counter::InjectedDrops, 1);
                return;
            }
        }
        let roots = if tracked { self.anchors.clone() } else { Vec::new() };
        let trace = match &self.lineage {
            Some(l) => l.active.map(|(trace, parent, root_ns)| {
                Box::new(TraceHop {
                    trace,
                    parent,
                    src: self.global,
                    sent_ns: l.sink.now_ns(),
                    root_ns,
                })
            }),
            None => None,
        };
        self.buffered = true;
        let buf = &mut self.buffers[ri][ti];
        buf.push(Envelope { msg, tid, roots, trace });
        if buf.len() >= TURN_FLUSH_CAP && self.routes[ri].chained.is_none() {
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
            let n = route.globals.len();
            if n == 0 {
                continue;
            }
            match &route.grouping {
                Grouping::Shuffle => {
                    let target = route.rr % n;
                    route.rr = route.rr.wrapping_add(1);
                    self.targets.push((ri, target));
                }
                Grouping::Fields(key) => {
                    self.targets.push((ri, (key(&msg) % n as u64) as usize));
                }
                Grouping::All => {
                    for si in 0..n {
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
            if matches!(route.grouping, Grouping::Direct) && !route.globals.is_empty() {
                if task < route.globals.len() {
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
        if misrouted > 0 {
            self.counters.add(Counter::Misrouted, misrouted);
        }
        self.dispatch(msg);
    }

    fn flush(&mut self) {
        self.flush_all();
    }
}

