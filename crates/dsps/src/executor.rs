//! The executor loop: what one executor thread does with its tasks.
//!
//! A spout executor round-robins its tasks: drain acker completions,
//! replay timed-out trees, pull one tuple from the source, forward EOS
//! once drained. A bolt executor consumes each task's input channel one
//! packet at a time ([`process_envelope`] per delivery), applies the
//! packet's acks in one acker call, supervises panics and terminates on
//! EOS quorum. A turn ends — and the task's edge buffers are flushed —
//! whenever the executor is about to wait: a spout's turn is one `next`,
//! a bolt's turn is up to 64 packets or until its channel runs dry.

use crate::ack::AckSink;
use crate::durability::{RecoveredState, StateStore};
use crate::emitter::{Emitter, Envelope, Packet, TaskEmitter};
use crate::error::DspsError;
use crate::flight::FlightKind;
use crate::lineage::SpanKind;
use crate::runtime::ReliabilityConfig;
use crate::topology::{Bolt, BoltContext, BoltFactory, Spout};
use crossbeam::channel::{Receiver, TryRecvError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
pub(crate) struct SpoutTask<T> {
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

impl<T> SpoutTask<T> {
    /// Global task `global` around `spout`; `completions` is its acker
    /// completion channel in reliability mode.
    pub(crate) fn new(
        spout: Box<dyn Spout<T>>,
        emitter: TaskEmitter<T>,
        global: usize,
        completions: Option<Receiver<(u64, Instant)>>,
    ) -> Self {
        SpoutTask {
            spout,
            emitter,
            global,
            completions,
            pending: HashMap::new(),
            next_scan: Instant::now(),
            live: true,
            eos_sent: false,
        }
    }
}

/// One bolt task's state inside its executor thread.
pub(crate) struct BoltTask<T> {
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

impl<T> BoltTask<T> {
    /// Task `ctx.task_index` of its component around `bolt`, consuming `rx`.
    pub(crate) fn new(
        bolt: Box<dyn Bolt<T>>,
        emitter: TaskEmitter<T>,
        rx: Receiver<Packet<T>>,
        ctx: BoltContext,
        depth: Arc<AtomicI64>,
        store: Option<StateStore>,
    ) -> Self {
        BoltTask {
            bolt,
            emitter,
            rx,
            index: ctx.task_index,
            ctx,
            depth,
            store,
            log_scratch: Vec::new(),
            since_snapshot: 0,
            eos_seen: 0,
            restarts: 0,
            done: false,
        }
    }
}

/// Whether a new tree rooted at `root` is lineage-sampled, as the
/// `(trace, parent span)` its first span starts from. Deterministic: the
/// id is already a SplitMix64-mixed uniform u64, so a threshold compare
/// picks `sample_rate` of trees with no RNG.
fn sample_new_tree<T>(emitter: &TaskEmitter<T>, root: u64) -> Option<(u64, u64)> {
    emitter.lineage.as_ref().filter(|l| l.sink.sampled(root)).map(|_| (root, 0))
}

/// Emits one spout tuple inside its lineage bracket. A sampled tree
/// (`sampled` = its `(trace, parent span)`) reserves the span id up front
/// so the outgoing envelopes can parent onto it, and records the `kind`
/// span around the emit. In reliability mode (`root` = the tree's acker
/// root and the acker) the emit is anchored to the root and the root
/// sealed after it, which completes roots whose emit found no route.
/// Returns the tree's `(trace, span)` for its pending root to carry.
fn emit_tree<T: Clone>(
    emitter: &mut TaskEmitter<T>,
    msg: T,
    root: Option<(u64, &dyn AckSink)>,
    sampled: Option<(u64, u64)>,
    kind: SpanKind,
    retries: u32,
) -> Option<(u64, u64)> {
    let mut ctx = None;
    if let (Some(l), Some((trace, parent))) = (&mut emitter.lineage, sampled) {
        let sid = l.sink.next_id();
        ctx = Some((trace, parent, sid, l.sink.now_ns()));
        l.active = Some((trace, sid));
    }
    emitter.anchors.clear();
    emitter.anchors.extend(root.map(|(root, _)| root));
    emitter.emit(msg);
    emitter.anchors.clear();
    if let Some(l) = &mut emitter.lineage {
        if let Some((trace, parent, sid, start)) = ctx {
            let dur = l.sink.now_ns().saturating_sub(start);
            l.sink.record_with_id(sid, trace, parent, kind, retries, start, dur);
        }
        l.active = None;
    }
    if let Some((root, acker)) = root {
        acker.seal(root);
    }
    ctx.map(|(trace, _, sid, _)| (trace, sid))
}

/// Drives one spout executor: round-robins its tasks, each pulling from
/// its source, draining acker completions and replaying timed-out trees
/// until the source is exhausted *and* every in-flight tuple resolved —
/// or until `failed` says an executor of the topology died, after which
/// no pending tree can complete and waiting out its replays would only
/// delay the failure.
pub(crate) fn run_spout_executor<T: Clone + Send + Sync>(
    mut tasks: Vec<SpoutTask<T>>,
    task_ids: Vec<usize>,
    component: String,
    acker: Option<Arc<dyn AckSink>>,
    reliability: Option<ReliabilityConfig>,
    tracing: bool,
    failed: &AtomicBool,
) -> Result<(), DspsError> {
    let mut finished = 0usize;
    let mut failure: Option<DspsError> = None;
    'outer: while finished < tasks.len() && !failed.load(Ordering::Relaxed) {
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
                    let acker =
                        acker.as_ref().expect("submit builds an acker whenever reliability is on");
                    let due: Vec<u64> = t
                        .pending
                        .iter()
                        .filter(|(_, p)| p.deadline <= now)
                        .map(|(&root, _)| root)
                        .collect();
                    for root in due {
                        let p = t
                            .pending
                            .remove(&root)
                            .expect("due roots were just collected from `pending`");
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
                        let trace = emit_tree(
                            &mut t.emitter,
                            p.msg.clone(),
                            Some((new_root, acker.as_ref())),
                            p.trace,
                            SpanKind::Replay,
                            retries,
                        );
                        t.pending.insert(
                            new_root,
                            PendingRoot {
                                msg: p.msg,
                                deadline: now + timeout,
                                retries,
                                first_emit: p.first_emit,
                                trace,
                            },
                        );
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
                            let acker = acker
                                .as_ref()
                                .expect("submit builds an acker whenever reliability is on");
                            let root = t.emitter.next_id();
                            acker.register(root, t.global);
                            let sampled = sample_new_tree(&t.emitter, root);
                            let now = Instant::now();
                            let trace = emit_tree(
                                &mut t.emitter,
                                msg.clone(),
                                Some((root, acker.as_ref())),
                                sampled,
                                SpanKind::SpoutEmit,
                                0,
                            );
                            t.pending.insert(
                                root,
                                PendingRoot {
                                    msg,
                                    deadline: now + rel.ack_timeout,
                                    retries: 0,
                                    first_emit: now,
                                    trace,
                                },
                            );
                        } else {
                            // At-most-once has no acker root: mint a probe id
                            // from the same mixed namespace for the sampling
                            // decision and the trace id.
                            let sampled = match t.emitter.lineage {
                                Some(_) => {
                                    let probe = t.emitter.next_id();
                                    sample_new_tree(&t.emitter, probe)
                                }
                                None => None,
                            };
                            if tracing {
                                t.emitter.t0 = Some(Instant::now());
                            }
                            emit_tree(&mut t.emitter, msg, None, sampled, SpanKind::SpoutEmit, 0);
                            t.emitter.t0 = None;
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
    // even when this executor, or another, failed mid-stream; the trees
    // still pending will never complete and count as failed.
    for t in tasks.iter_mut() {
        if !t.eos_sent {
            if let Some(acker) = &acker {
                for (root, _) in t.pending.drain() {
                    acker.abandon(root);
                    t.emitter.counters.record_failed();
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
pub(crate) fn run_bolt_executor<T: Clone + Send + Sync>(
    mut tasks: Vec<BoltTask<T>>,
    component: String,
    expected: usize,
    factory: BoltFactory<T>,
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
            let recovered = store.take_recovered().unwrap_or_default();
            t.emitter.flight.record(
                FlightKind::Restore,
                &t.emitter.component,
                t.emitter.global as i64,
                restore_bolt(t.bolt.as_mut(), &recovered),
            );
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
                let received = if single && step == 0 {
                    t.rx.recv().map_err(|_| TryRecvError::Disconnected)
                } else {
                    t.rx.try_recv()
                };
                let packet = match received {
                    Ok(packet) => packet,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        // Upstream died without EOS (hard panic);
                        // terminate the task.
                        t.eos_seen = expected;
                        Packet::Eos
                    }
                };
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
    factory: &BoltFactory<T>,
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
                    let state = recovered.as_ref().map(|r| restore_bolt(bolt.as_mut(), r));
                    (bolt, state)
                }));
                match rebuilt {
                    Ok((bolt, state)) => {
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
                                state.map_or(String::new(), |s| format!(" (state: {s})"))
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

/// Hands a freshly prepared bolt what its store holds and says, for the
/// flight recorder, which of three things happened: the store was empty,
/// the state went in, or the bolt refused it and runs as `prepare` left it.
fn restore_bolt<T>(bolt: &mut dyn Bolt<T>, (snapshot, changelog): &RecoveredState) -> String {
    if snapshot.is_none() && changelog.is_empty() {
        return "nothing on disk".into();
    }
    match bolt.restore_state(snapshot.as_deref(), changelog) {
        Ok(()) => format!(
            "restored snapshot={} bytes, changelog={} records",
            snapshot.as_ref().map_or(0, Vec::len),
            changelog.len()
        ),
        Err(e) => format!("rejected: {e}, task starts cold"),
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

/// The message a panic payload carries, for error reporting.
pub(crate) fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

