//! Causal tuple-lineage tracing: sampled per-tuple span trees.
//!
//! The aggregate metrics layer ([`metrics`](crate::metrics)) answers "how
//! slow is this component on average"; this module answers "why was *that*
//! tuple slow". A spout-side deterministic sampler (a threshold test on the
//! root delivery id, which is already a SplitMix64-mixed uniform `u64` — no
//! RNG, no extra hashing) picks a fraction of tuple trees. Every hop of a
//! sampled tree — spout emit, per-edge queue wait, batch-buffer residency,
//! bolt `process`, at-least-once replay, acker completion — records one
//! [`Span`] into a per-task lock-free ring. A [`TraceCollector`] drains the
//! rings, reassembles the trees, exports Chrome `trace_event` JSON and a
//! JSONL span log, and folds every span into a [`CriticalPathReport`] that
//! decomposes end-to-end latency into queue-wait vs compute vs replay per
//! component and names the bottleneck. Both exports escape their strings
//! with the one JSON escaper the metrics and flight renderings use too.
//!
//! Design constraints, in order:
//! 1. lineage **off** must not touch the hot path at all (the runtime only
//!    ever checks an `Option` that is `None`);
//! 2. an **unsampled** tuple under lineage-on costs one integer compare at
//!    the spout and `None` checks downstream;
//! 3. a sampled tuple's recording cost is bounded: spans are `Copy`, a push
//!    is two atomic loads, one slot write, one release store, and a full
//!    ring drops the newest span (counting it) rather than blocking.

use crate::metrics::json_string;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Opt-in lineage tracing knobs, carried in
/// [`MonitorConfig::lineage`](crate::metrics::MonitorConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineageConfig {
    /// Fraction of tuple trees to sample, `0.0..=1.0`. The decision is
    /// deterministic in the root delivery id, so re-runs with a fixed
    /// topology sample the same trees.
    pub sample_rate: f64,
    /// Capacity of each per-task span ring (rounded up to a power of two).
    /// A full ring drops the newest spans and counts them.
    pub ring_capacity: usize,
}

impl Default for LineageConfig {
    fn default() -> Self {
        LineageConfig { sample_rate: 0.01, ring_capacity: 4096 }
    }
}

impl LineageConfig {
    /// Sample-everything preset used by acceptance tests.
    pub fn full() -> Self {
        LineageConfig { sample_rate: 1.0, ..LineageConfig::default() }
    }

    /// The sampler threshold: a root id `r` is sampled iff `r <= threshold`.
    /// Root ids are SplitMix64-mixed and therefore uniform over `u64`, so a
    /// plain scaled compare gives an unbiased `sample_rate` without RNG.
    pub fn threshold(&self) -> u64 {
        (self.sample_rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64
    }
}

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// A spout `next()` + `emit()` — the root of a tree.
    SpoutEmit,
    /// Channel (and batch-buffer) wait between send and receive, recorded
    /// by the receiving task; `other` is the sending task.
    Queue,
    /// One bolt `process()` call.
    Process,
    /// Residency in a per-edge batch buffer until the flush, recorded by
    /// the sending task; `other` is the destination task.
    BatchFlush,
    /// A spout-side at-least-once replay of a timed-out root; `other` is
    /// the retry ordinal.
    Replay,
    /// Acker-confirmed completion of the whole tree (reliable mode) or
    /// terminal-bolt arrival (at-most-once).
    Completion,
}

impl SpanKind {
    /// Stable lower-snake name used by both export formats.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::SpoutEmit => "spout_emit",
            SpanKind::Queue => "queue",
            SpanKind::Process => "process",
            SpanKind::BatchFlush => "batch_flush",
            SpanKind::Replay => "replay",
            SpanKind::Completion => "completion",
        }
    }
}

/// One recorded hop of a sampled tuple tree. `Copy` so the ring can hand
/// slots over without drop bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Tree id (sampled root delivery id).
    pub trace: u64,
    /// Unique span id: `(task + 1) << 40 | per-task sequence`, never 0.
    pub id: u64,
    /// Parent span id; 0 marks the tree root.
    pub parent: u64,
    /// What was measured.
    pub kind: SpanKind,
    /// Global task index that recorded the span.
    pub task: u32,
    /// Kind-dependent peer: source task (`Queue`), destination task
    /// (`BatchFlush`), retry ordinal (`Replay`), otherwise 0.
    pub other: u32,
    /// Start, nanoseconds since the collector epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instantaneous events).
    pub dur_ns: u64,
}

/// A bounded single-producer/single-consumer ring of `Copy` spans.
///
/// The producer is the owning task's executor thread (a [`SpanSink`] is not
/// clonable and moves into exactly one task); the consumer is whoever holds
/// the collector's drain lock, which serializes all drains. A full ring
/// drops the newest span — earlier spans carry the root context and are
/// worth more than the tail.
pub(crate) struct SpanRing {
    mask: usize,
    /// Consumer cursor: slots `< head` have been drained.
    head: AtomicUsize,
    /// Producer cursor: slots `< tail` are published.
    tail: AtomicUsize,
    dropped: AtomicU64,
    slots: Box<[UnsafeCell<Span>]>,
}

// SAFETY: `push` is only called by the single owning producer thread and
// `drain_into` only under the collector's mutex (single consumer). A slot is
// written only while `tail - head < len` (the consumer is not reading it)
// and read only after the producer's release-store of `tail` (the write is
// visible). Spans are `Copy`, so no drops race.
unsafe impl Send for SpanRing {}
unsafe impl Sync for SpanRing {}

const EMPTY_SPAN: Span = Span {
    trace: 0,
    id: 0,
    parent: 0,
    kind: SpanKind::SpoutEmit,
    task: 0,
    other: 0,
    start_ns: 0,
    dur_ns: 0,
};

impl SpanRing {
    fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Vec<UnsafeCell<Span>> =
            (0..cap).map(|_| UnsafeCell::new(EMPTY_SPAN)).collect();
        SpanRing {
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Producer side. Returns `false` (and counts) when the ring is full.
    fn push(&self, span: Span) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // SAFETY: see the `Sync` impl — this slot is outside the consumer's
        // published range until the release store below.
        unsafe { *self.slots[tail & self.mask].get() = span };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side (serialized by the collector's lock).
    fn drain_into(&self, out: &mut Vec<Span>) {
        let tail = self.tail.load(Ordering::Acquire);
        let mut head = self.head.load(Ordering::Relaxed);
        while head != tail {
            // SAFETY: `head < tail` ⇒ the producer published this slot and
            // will not rewrite it before `head` advances past it.
            out.push(unsafe { *self.slots[head & self.mask].get() });
            head = head.wrapping_add(1);
        }
        self.head.store(head, Ordering::Release);
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The producer handle a task records spans through. Mints this task's
/// span ids; deliberately not `Clone` so each ring keeps a single producer.
pub(crate) struct SpanSink {
    ring: Arc<SpanRing>,
    task: u32,
    next: u64,
    epoch: Instant,
    threshold: u64,
}

impl SpanSink {
    /// Nanoseconds since the shared observability epoch.
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A specific instant, as nanoseconds since the epoch (0 if earlier).
    pub(crate) fn at_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Whether root id `root` falls inside the sampled fraction.
    pub(crate) fn sampled(&self, root: u64) -> bool {
        root <= self.threshold
    }

    /// Reserves the next span id without recording yet (children may need
    /// to reference it before the parent's duration is known).
    pub(crate) fn next_id(&mut self) -> u64 {
        self.next += 1;
        ((self.task as u64 + 1) << 40) | self.next
    }

    /// Records a span under a pre-reserved id.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_with_id(
        &mut self,
        id: u64,
        trace: u64,
        parent: u64,
        kind: SpanKind,
        other: u32,
        start_ns: u64,
        dur_ns: u64,
    ) {
        self.ring.push(Span {
            trace,
            id,
            parent,
            kind,
            task: self.task,
            other,
            start_ns,
            dur_ns,
        });
    }

    /// Mints an id and records a span in one step; returns the id.
    pub(crate) fn record(
        &mut self,
        trace: u64,
        parent: u64,
        kind: SpanKind,
        other: u32,
        start_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        let id = self.next_id();
        self.record_with_id(id, trace, parent, kind, other, start_ns, dur_ns);
        id
    }
}

/// Per-component latency decomposition of all sampled trees.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentPath {
    /// Component name.
    pub component: String,
    /// Total `process` time of sampled tuples, ns.
    pub compute_ns: u64,
    /// Total inbound queue + batch-buffer wait of sampled tuples, ns.
    pub queue_in_ns: u64,
    /// Total replay-emission time charged to this (spout) component, ns.
    pub replay_ns: u64,
    /// Sampled tuples processed (or emitted, for spouts).
    pub tuples: u64,
}

/// One directed edge of the backpressure report.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgePath {
    /// Upstream component.
    pub from: String,
    /// Downstream component.
    pub to: String,
    /// Total queue + batch-buffer wait on this edge, ns.
    pub queue_ns: u64,
    /// Sampled tuple hops measured on this edge.
    pub tuples: u64,
}

/// Critical-path attribution over every sampled span: where did end-to-end
/// latency go, per component and per edge, and which component dominates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CriticalPathReport {
    /// Distinct sampled tuple trees observed.
    pub traces: u64,
    /// Spans folded into this report.
    pub spans: u64,
    /// Spans lost to full rings (undercounts, never blocks).
    pub dropped_spans: u64,
    /// Completed trees (a `Completion` span was seen).
    pub completed: u64,
    /// Replay spans observed.
    pub replays: u64,
    /// Per-component decomposition, sorted by `compute_ns + queue_in_ns`
    /// descending — index 0 is the bottleneck.
    pub components: Vec<ComponentPath>,
    /// Per-edge queue-wait totals, sorted by `queue_ns` descending.
    pub edges: Vec<EdgePath>,
    /// The component with the largest `compute + inbound queue` share —
    /// inbound wait is charged to the slow consumer, not the producer. The
    /// queue wait at a chain head's input is time the chain's one thread
    /// was busy, so it is charged to the chain's components in proportion
    /// to their compute.
    pub bottleneck: Option<String>,
}

/// Connectivity summary of one assembled tuple tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Tree id.
    pub trace: u64,
    /// Spans in the tree.
    pub spans: usize,
    /// Spans with `parent == 0` (must be exactly 1: the spout emit).
    pub roots: usize,
    /// Spans whose parent id resolves to no span in the tree.
    pub orphans: usize,
    /// Replay spans in the tree.
    pub replays: usize,
    /// `true` iff the tree has exactly one root and no orphans.
    pub connected: bool,
}

/// Groups spans by trace and checks each tree's connectivity. Used by the
/// completeness tests: a tree that survived a restart, a migration and a
/// replay must still come back `connected`.
pub fn summarize(spans: &[Span]) -> Vec<TraceSummary> {
    let mut by_trace: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    by_trace
        .into_iter()
        .map(|(trace, spans)| {
            let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
            let roots = spans.iter().filter(|s| s.parent == 0).count();
            let orphans = spans
                .iter()
                .filter(|s| s.parent != 0 && !ids.contains(&s.parent))
                .count();
            let replays =
                spans.iter().filter(|s| s.kind == SpanKind::Replay).count();
            TraceSummary {
                trace,
                spans: spans.len(),
                roots,
                orphans,
                replays,
                connected: roots == 1 && orphans == 0,
            }
        })
        .collect()
}

struct PathAccum {
    traces: HashSet<u64>,
    spans: u64,
    completed: u64,
    replays: u64,
    /// component → (compute_ns, queue_in_ns, replay_ns, tuples)
    components: BTreeMap<String, (u64, u64, u64, u64)>,
    /// (from, to) → (queue_ns, tuples)
    edges: BTreeMap<(String, String), (u64, u64)>,
    /// Chained component → the upstream component whose tasks call it.
    upstream_of: BTreeMap<String, String>,
    /// Chain head → queue wait at its input, shared out at report time.
    chain_wait: BTreeMap<String, u64>,
}

impl PathAccum {
    fn new() -> Self {
        PathAccum {
            traces: HashSet::new(),
            spans: 0,
            completed: 0,
            replays: 0,
            components: BTreeMap::new(),
            edges: BTreeMap::new(),
            upstream_of: BTreeMap::new(),
            chain_wait: BTreeMap::new(),
        }
    }

    /// The head of the chain `component` runs in (itself when unchained).
    fn chain_head<'a>(&'a self, mut component: &'a str) -> &'a str {
        while let Some(up) = self.upstream_of.get(component) {
            component = up;
        }
        component
    }

    fn fold(&mut self, span: &Span, name_of: &dyn Fn(u32) -> String) {
        self.traces.insert(span.trace);
        self.spans += 1;
        let here = name_of(span.task);
        let slot = self.components.entry(here.clone()).or_default();
        match span.kind {
            SpanKind::SpoutEmit => slot.3 += 1,
            SpanKind::Process => {
                slot.0 += span.dur_ns;
                slot.3 += 1;
            }
            SpanKind::Queue => {
                let head = !self.upstream_of.contains_key(&here)
                    && self.upstream_of.values().any(|up| *up == here);
                if head {
                    *self.chain_wait.entry(here.clone()).or_default() += span.dur_ns;
                } else {
                    slot.1 += span.dur_ns;
                }
                let from = name_of(span.other);
                let e = self.edges.entry((from, here)).or_default();
                e.0 += span.dur_ns;
                e.1 += 1;
            }
            SpanKind::BatchFlush => {
                // Buffer residency is wait *towards* the destination: charge
                // the edge and the destination's inbound total.
                let to = name_of(span.other);
                self.components.entry(to.clone()).or_default().1 += span.dur_ns;
                let e = self.edges.entry((here, to)).or_default();
                e.0 += span.dur_ns;
                e.1 += 1;
            }
            SpanKind::Replay => {
                slot.2 += span.dur_ns;
                self.replays += 1;
            }
            SpanKind::Completion => self.completed += 1,
        }
    }

    fn report(&self, dropped: u64) -> CriticalPathReport {
        let mut totals = self.components.clone();
        for (head, &wait) in &self.chain_wait {
            let compute = |c: &str| self.components.get(c).map_or(0, |t| t.0) as u128;
            let members: Vec<&String> =
                self.upstream_of.keys().filter(|m| self.chain_head(m) == head).collect();
            let chain_compute = compute(head) + members.iter().map(|m| compute(m)).sum::<u128>();
            let mut given = 0;
            for m in members {
                let share = (wait as u128 * compute(m)).checked_div(chain_compute).unwrap_or(0);
                totals.entry(m.clone()).or_default().1 += share as u64;
                given += share as u64;
            }
            totals.entry(head.clone()).or_default().1 += wait - given;
        }
        let mut components: Vec<ComponentPath> = totals
            .iter()
            .map(|(name, &(compute, queue, replay, tuples))| ComponentPath {
                component: name.clone(),
                compute_ns: compute,
                queue_in_ns: queue,
                replay_ns: replay,
                tuples,
            })
            .collect();
        components.sort_by(|a, b| {
            (b.compute_ns + b.queue_in_ns)
                .cmp(&(a.compute_ns + a.queue_in_ns))
                .then_with(|| a.component.cmp(&b.component))
        });
        let mut edges: Vec<EdgePath> = self
            .edges
            .iter()
            .map(|((from, to), &(queue_ns, tuples))| EdgePath {
                from: from.clone(),
                to: to.clone(),
                queue_ns,
                tuples,
            })
            .collect();
        edges.sort_by_key(|e| std::cmp::Reverse(e.queue_ns));
        let bottleneck = components
            .iter()
            .find(|c| c.compute_ns + c.queue_in_ns > 0)
            .map(|c| c.component.clone());
        CriticalPathReport {
            traces: self.traces.len() as u64,
            spans: self.spans,
            dropped_spans: dropped,
            completed: self.completed,
            replays: self.replays,
            components,
            edges,
            bottleneck,
        }
    }
}

struct CollectorInner {
    /// task → (component name, ring), drained in task-id order so one
    /// run lists its spans the same way in every process.
    rings: BTreeMap<u32, (String, Arc<SpanRing>)>,
    /// Drained spans, retained for export.
    spans: Vec<Span>,
    path: PathAccum,
}

/// Central assembly point: owns the per-task rings, drains them into one
/// store, and renders the export formats. One per submitted topology.
pub struct TraceCollector {
    epoch: Instant,
    config: LineageConfig,
    inner: Mutex<CollectorInner>,
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl TraceCollector {
    /// Creates a collector whose spans are timed against `epoch` — share
    /// the same epoch with the flight recorder so spans and control-plane
    /// events line up on one clock.
    pub fn new(config: LineageConfig, epoch: Instant) -> Self {
        TraceCollector {
            epoch,
            config,
            inner: Mutex::new(CollectorInner {
                rings: BTreeMap::new(),
                spans: Vec::new(),
                path: PathAccum::new(),
            }),
        }
    }

    /// The shared observability epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The active configuration.
    pub fn config(&self) -> LineageConfig {
        self.config
    }

    /// Records that `member`'s tasks run chained, called by `upstream`'s
    /// tasks on their executor threads: the critical path then shares the
    /// queue wait at the chain head's input among the chain's components.
    pub(crate) fn register_chain(&self, upstream: &str, member: &str) {
        self.inner.lock().path.upstream_of.insert(member.to_string(), upstream.to_string());
    }

    /// Registers task `task` of `component` and returns its producer sink.
    pub(crate) fn register_task(&self, task: u32, component: &str) -> SpanSink {
        let ring = Arc::new(SpanRing::new(self.config.ring_capacity));
        self.inner
            .lock()
            .rings
            .insert(task, (component.to_string(), ring.clone()));
        SpanSink {
            ring,
            task,
            next: 0,
            epoch: self.epoch,
            threshold: self.config.threshold(),
        }
    }

    /// Drains every ring into the central store, folding each span into the
    /// critical-path accumulator and retaining it for export.
    pub fn drain(&self) {
        let mut inner = self.inner.lock();
        let mut fresh = Vec::new();
        for (_, ring) in inner.rings.values() {
            ring.drain_into(&mut fresh);
        }
        let names: HashMap<u32, String> = inner
            .rings
            .iter()
            .map(|(&t, (name, _))| (t, name.clone()))
            .collect();
        let name_of = |t: u32| {
            names.get(&t).cloned().unwrap_or_else(|| format!("task{t}"))
        };
        for span in &fresh {
            inner.path.fold(span, &name_of);
        }
        inner.spans.extend(fresh);
    }

    /// Spans lost to full rings so far.
    pub fn dropped_spans(&self) -> u64 {
        self.inner.lock().rings.values().map(|(_, r)| r.dropped()).sum()
    }

    /// Drains and returns a copy of all retained spans (the store keeps
    /// them for later renders).
    pub fn spans(&self) -> Vec<Span> {
        self.drain();
        self.inner.lock().spans.clone()
    }

    /// Drains and *takes* the retained spans, leaving the store empty.
    pub fn take_spans(&self) -> Vec<Span> {
        self.drain();
        std::mem::take(&mut self.inner.lock().spans)
    }

    /// The full task → component map (for rendering exported spans after
    /// the collector is gone, e.g. from `RunReport::traces`).
    pub fn components(&self) -> HashMap<u32, String> {
        self.inner
            .lock()
            .rings
            .iter()
            .map(|(&t, (name, _))| (t, name.clone()))
            .collect()
    }

    /// The critical-path attribution over everything drained so far.
    pub fn critical_path(&self) -> CriticalPathReport {
        self.drain();
        let dropped = self.dropped_spans();
        self.inner.lock().path.report(dropped)
    }

    /// Connectivity summaries of the retained trees.
    pub fn summaries(&self) -> Vec<TraceSummary> {
        summarize(&self.spans())
    }

    /// Renders the retained spans as Chrome `trace_event` JSON (open in
    /// `chrome://tracing` or Perfetto). Complete-event (`ph:"X"`) slices,
    /// microsecond timestamps, one `tid` per task.
    pub fn render_chrome_json(&self) -> String {
        self.drain();
        let inner = self.inner.lock();
        let names: HashMap<u32, String> = inner
            .rings
            .iter()
            .map(|(&t, (name, _))| (t, name.clone()))
            .collect();
        render_chrome_trace(&inner.spans, &names)
    }

    /// Renders the retained spans as one JSON object per line.
    pub fn render_jsonl(&self) -> String {
        self.drain();
        let inner = self.inner.lock();
        let mut out = String::with_capacity(inner.spans.len() * 160);
        for s in &inner.spans {
            let comp = inner
                .rings
                .get(&s.task)
                .map(|(n, _)| n.as_str())
                .unwrap_or("?");
            out.push_str(&format!(
                "{{\"trace\":\"{:#018x}\",\"span\":\"{:#x}\",\"parent\":\"{:#x}\",\
                 \"kind\":\"{}\",\"component\":{},\"task\":{},\"other\":{},\
                 \"start_ns\":{},\"dur_ns\":{}}}\n",
                s.trace,
                s.id,
                s.parent,
                s.kind.name(),
                json_string(comp),
                s.task,
                s.other,
                s.start_ns,
                s.dur_ns,
            ));
        }
        out
    }
}

/// Renders a span slice as Chrome `trace_event` JSON — the standalone
/// face of [`TraceCollector::render_chrome_json`], for spans that
/// outlived their collector (e.g. a `RunReport`'s exported traces paired
/// with [`TraceCollector::components`]). Unknown tasks render as `"?"`.
pub fn render_chrome_trace(spans: &[Span], names: &HashMap<u32, String>) -> String {
    let mut out = String::with_capacity(256 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut threads: Vec<(&u32, &String)> = names.iter().collect();
    threads.sort(); // HashMap order would make re-renders differ bytewise
    for (task, name) in threads {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{task},\
             \"args\":{{\"name\":{}}}}}",
            json_string(name)
        ));
    }
    for s in spans {
        let comp = names.get(&s.task).map(String::as_str).unwrap_or("?");
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":0,\"tid\":{},\"args\":{{\"trace\":\"{:#018x}\",\
             \"span\":\"{:#x}\",\"parent\":\"{:#x}\",\"other\":{}}}}}",
            json_string(&format!("{}:{}", comp, s.kind.name())),
            s.kind.name(),
            s.start_ns as f64 / 1_000.0,
            s.dur_ns as f64 / 1_000.0,
            s.task,
            s.trace,
            s.id,
            s.parent,
            s.other,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, kind: SpanKind, task: u32) -> Span {
        Span { trace, id, parent, kind, task, other: 0, start_ns: 0, dur_ns: 10 }
    }

    #[test]
    fn ring_roundtrips_in_order_and_drops_newest_on_full() {
        let ring = SpanRing::new(4);
        for i in 1..=4 {
            assert!(ring.push(span(1, i, 0, SpanKind::Process, 0)));
        }
        assert!(!ring.push(span(1, 5, 0, SpanKind::Process, 0)), "full ring drops");
        assert_eq!(ring.dropped(), 1);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.iter().map(|s| s.id).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        // Space again after the drain.
        assert!(ring.push(span(1, 6, 0, SpanKind::Process, 0)));
        out.clear();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 6);
    }

    #[test]
    fn sampler_threshold_is_inclusive_and_scales() {
        let all = LineageConfig { sample_rate: 1.0, ..Default::default() };
        assert_eq!(all.threshold(), u64::MAX);
        let none = LineageConfig { sample_rate: 0.0, ..Default::default() };
        assert_eq!(none.threshold(), 0);
        let half = LineageConfig { sample_rate: 0.5, ..Default::default() };
        let t = half.threshold();
        assert!(t > u64::MAX / 3 && t < u64::MAX / 3 * 2);
    }

    #[test]
    fn summarize_flags_orphans_and_multiple_roots() {
        let spans = vec![
            span(7, 100, 0, SpanKind::SpoutEmit, 0),
            span(7, 101, 100, SpanKind::Queue, 1),
            span(7, 102, 101, SpanKind::Process, 1),
            // Second trace: an orphan (parent 999 unknown) and two roots.
            span(9, 200, 0, SpanKind::SpoutEmit, 0),
            span(9, 201, 999, SpanKind::Queue, 1),
            span(9, 202, 0, SpanKind::SpoutEmit, 0),
        ];
        let sums = summarize(&spans);
        assert_eq!(sums.len(), 2);
        assert!(sums[0].connected && sums[0].trace == 7);
        assert!(!sums[1].connected);
        assert_eq!(sums[1].orphans, 1);
        assert_eq!(sums[1].roots, 2);
    }

    #[test]
    fn collector_assembles_and_attributes_the_critical_path() {
        let c = TraceCollector::new(LineageConfig::full(), Instant::now());
        let mut spout = c.register_task(0, "src");
        let mut slow = c.register_task(1, "slow");
        let emit = spout.record(42, 0, SpanKind::SpoutEmit, 0, 0, 1_000);
        let q = slow.record(42, emit, SpanKind::Queue, 0, 1_000, 50_000);
        slow.record(42, q, SpanKind::Process, 0, 51_000, 200_000);
        spout.record(42, emit, SpanKind::Completion, 0, 251_000, 0);

        let sums = c.summaries();
        assert_eq!(sums.len(), 1);
        assert!(sums[0].connected, "single tree with one root");

        let path = c.critical_path();
        assert_eq!(path.traces, 1);
        assert_eq!(path.completed, 1);
        assert_eq!(path.bottleneck.as_deref(), Some("slow"));
        let edge = &path.edges[0];
        assert_eq!((edge.from.as_str(), edge.to.as_str()), ("src", "slow"));
        assert_eq!(edge.queue_ns, 50_000);

        let chrome = c.render_chrome_json();
        assert!(chrome.starts_with("{\"displayTimeUnit\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("slow:process"));
        let jsonl = c.render_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn a_chain_heads_inbound_wait_is_charged_by_compute() {
        // `fast` heads a chain that runs `slow` on its thread: tuples
        // queue at fast's input while slow computes, so the wait is slow's.
        let c = TraceCollector::new(LineageConfig::full(), Instant::now());
        c.register_chain("fast", "slow");
        let mut spout = c.register_task(0, "src");
        let mut fast = c.register_task(1, "fast");
        let mut slow = c.register_task(2, "slow");
        let emit = spout.record(7, 0, SpanKind::SpoutEmit, 0, 0, 1_000);
        let q = fast.record(7, emit, SpanKind::Queue, 0, 1_000, 1_010_000);
        let p = fast.record(7, q, SpanKind::Process, 0, 1_011_000, 1_000);
        let q2 = slow.record(7, p, SpanKind::Queue, 1, 1_012_000, 0);
        slow.record(7, q2, SpanKind::Process, 0, 1_012_000, 100_000);

        let path = c.critical_path();
        assert_eq!(path.bottleneck.as_deref(), Some("slow"), "{path:?}");
        let of = |name: &str| path.components.iter().find(|p| p.component == name).unwrap();
        assert_eq!(of("slow").queue_in_ns, 1_000_000, "100/101 of the wait");
        assert_eq!(of("fast").queue_in_ns, 10_000, "1/101 of the wait");
        let edge = path.edges.iter().find(|e| e.to == "fast").unwrap();
        assert_eq!(edge.queue_ns, 1_010_000, "the edge keeps its whole wait");
    }

    #[test]
    fn a_drained_span_is_both_retained_and_attributed() {
        let c = TraceCollector::new(LineageConfig::full(), Instant::now());
        let mut s = c.register_task(0, "only");
        s.record(1, 0, SpanKind::Process, 0, 0, 5_000);
        let path = c.critical_path();
        assert_eq!(path.spans, 1);
        assert_eq!(path.bottleneck.as_deref(), Some("only"));
        assert_eq!(c.spans().len(), 1, "the drain that fed the report kept the span");
    }
}
