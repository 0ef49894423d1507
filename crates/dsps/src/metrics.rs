//! Per-task metrics and the Nimbus-style monitor.
//!
//! Section 5 of the paper: "we enhanced Storm with an extra monitor thread
//! per worker processor, that periodically (every 40 seconds) reports
//! these metrics for each bolt's task to the Nimbus node. The Nimbus
//! aggregates these data to compute the final monitor metrics per bolt."
//!
//! Here every task owns a set of atomic counters ([`TaskCounters`]); the
//! [`MetricsHub`] plays Nimbus: on demand (or from a monitor thread with a
//! fixed window) it snapshots the counters and produces per-component
//! windows of the two metrics the evaluation reports — **throughput**
//! (tuples processed per window) and **average processing latency** per
//! tuple.
//!
//! Under a monitor ([`MonitorConfig`]) each window also carries
//! **queue-occupancy gauges** over the tasks' input channels, so a hot
//! executor is visible before it saturates, and an **end-to-end
//! completion latency histogram** as a fixed-bucket log-scale
//! [`LatencyHistogram`] with p50/p95/p99: spout emit → tuple-tree
//! completion for every acked root in reliability mode, spout emit →
//! terminal bolt for the lineage-sampled trees in at-most-once mode.
//!
//! Every per-component quantity is declared once, as a row of one table
//! (Prometheus name, JSON key, help text, window field); a task counter
//! is a [`Counter`] variant whose row says which field it sums into.
//! Recording ([`TaskCounters::add`]), window deltas, lifetime totals,
//! `/metrics` and `/json` all iterate that table, so a quantity cannot
//! reach one route and miss the other. Rule profiles have the same kind
//! of table. The one JSON string escaper of the crate lives here too.

use crate::lineage::LineageConfig;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of log₂ latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds, so 48 buckets span 1 ns to ~78 hours.
pub const LATENCY_BUCKETS: usize = 48;

/// History entries the hub retains by default. Each sample appends one
/// entry per component, so for the seven-component Figure 8 topology this
/// keeps roughly 6.5 hours of the paper's 40 s windows.
pub const DEFAULT_RETENTION: usize = 4096;

/// The bucket a latency in nanoseconds falls into: `floor(log2(ns))`,
/// clamped to the last bucket.
fn bucket_of(ns: u64) -> usize {
    (63 - ns.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
}

/// A log-scale latency histogram with lock-free recording, owned by one
/// task. Snapshot into a [`LatencyHistogram`] to merge or query.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// A plain (mergeable, queryable) copy of the current contents.
    pub fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// A fixed-bucket log-scale latency distribution: the snapshot form of
/// [`AtomicHistogram`] that windows and totals carry.
///
/// Quantiles are conservative: [`quantile`](Self::quantile) returns the
/// *upper bound* of the bucket holding the requested rank, so the reported
/// value is never below the true quantile and at most 2× above it (the
/// buckets are powers of two). The mean is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    sum_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; LATENCY_BUCKETS], sum_ns: 0 }
    }
}

impl LatencyHistogram {
    /// Records one latency sample (non-atomic; for building histograms
    /// outside the hot path).
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[bucket_of(ns)] += 1;
        self.sum_ns += ns;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Exact mean latency, if any sample was recorded.
    pub fn mean(&self) -> Option<Duration> {
        let n = self.count();
        (n > 0).then(|| Duration::from_nanos(self.sum_ns / n))
    }

    /// The `q`-quantile (`q` in `[0, 1]`, clamped into that range).
    ///
    /// Exact contract: the requested rank is `max(1, ceil(q · count))`,
    /// and the reported value is the **upper bound** `2^(i+1)` ns of the
    /// bucket `i` holding that rank — never below the true quantile and
    /// at most 2× above it (buckets are powers of two). Two edge cases
    /// follow directly from that contract:
    ///
    /// * `q = 0.0` asks for rank 1, so it reports the first non-empty
    ///   bucket's upper bound — *not* the true minimum sample, which may
    ///   be up to 2× smaller. There is no minimum tracker; treat the
    ///   result as a ≤2× overestimate of the minimum.
    /// * Bucket 0 covers `[1, 2)` ns and sub-nanosecond samples clamp to
    ///   1 ns on record, so any rank landing in bucket 0 reports 2 ns,
    ///   even for a `Duration::ZERO` sample.
    ///
    /// `q = 1.0` reports the last non-empty bucket's upper bound
    /// (`2^48` ns ≈ 78 h when everything sits in the final bucket).
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Duration::from_nanos(1u64 << (i + 1)));
            }
        }
        None
    }

    /// Median latency (bucket upper bound).
    pub fn p50(&self) -> Option<Duration> {
        self.quantile(0.5)
    }

    /// 95th percentile latency (bucket upper bound).
    pub fn p95(&self) -> Option<Duration> {
        self.quantile(0.95)
    }

    /// 99th percentile latency (bucket upper bound).
    pub fn p99(&self) -> Option<Duration> {
        self.quantile(0.99)
    }

    /// Adds another histogram's samples into this one (the Nimbus-side
    /// aggregation across the tasks of a component).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum_ns += other.sum_ns;
    }

    /// Samples recorded since `last` (per-window delta): the exact
    /// inverse of [`merge`](Self::merge) — `a.merge(&b); a.delta(&b)`
    /// recovers `a`'s buckets and `sum_ns` bit-for-bit. When `last` is
    /// not a prefix of `self` (a counter reset, e.g. a restarted task),
    /// the subtraction saturates at zero instead of underflowing.
    pub fn delta(&self, last: &LatencyHistogram) -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(last.buckets[i])),
            sum_ns: self.sum_ns.saturating_sub(last.sum_ns),
        }
    }

    /// Builds a histogram from raw parts: 48 log₂ bucket counts (bucket
    /// `i` = samples in `[2^i, 2^(i+1))` ns) plus the exact nanosecond
    /// sum. This is how externally-collected histograms with the same
    /// bucket shape (e.g. the CEP engine's per-statement eval profiles)
    /// enter the metrics pipeline.
    pub fn from_parts(buckets: [u64; LATENCY_BUCKETS], sum_ns: u64) -> Self {
        LatencyHistogram { buckets, sum_ns }
    }

    /// The raw bucket counts (bucket `i` = samples in `[2^i, 2^(i+1))` ns).
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// The exact sum of all recorded samples, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }
}

/// A task counter. Each task adds to its own [`TaskCounters`] with one
/// relaxed `fetch_add`; windows and totals sum a counter over a
/// component's tasks into one [`ComponentWindow`] field. Declaring one is
/// a variant here, its row in the families table (Prometheus name, JSON
/// key, help text, window field) and that field; windows, totals and both
/// scrape renderings follow from the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Tuples processed by the task's `process` call (bolts only; spout
    /// emission is accounted separately under `Emitted`).
    Processed,
    /// Tuples emitted downstream.
    Emitted,
    /// Deliveries lost in transit: sends to a closed channel (the
    /// receiving task died) plus injected fault drops.
    Dropped,
    /// Direct emissions whose target task index was out of range for the
    /// edge: a routing bug in the emitting bolt (the delivery is dropped
    /// on that edge instead of aliasing onto `task % count`).
    Misrouted,
    /// Spout roots whose whole tuple tree completed (at-least-once mode).
    Acked,
    /// Spout roots abandoned after exhausting their replay budget.
    Failed,
    /// Replays emitted after an ack timeout.
    Replayed,
    /// Supervised restarts of this task after a panic.
    Restarted,
    /// Fault-injection panics that fired in this task ([`fault`](crate::fault)).
    InjectedPanics,
    /// Fault-injection latency sleeps that fired in this task.
    InjectedLatency,
    /// Fault-injection deliveries dropped on this task's outbound edges.
    InjectedDrops,
}

/// How many [`Counter`]s there are.
const COUNTERS: usize = Counter::InjectedDrops as usize + 1;

/// Atomic counters owned by one task.
#[derive(Debug, Default)]
pub struct TaskCounters {
    counts: [AtomicU64; COUNTERS],
    /// Cumulative processing time in nanoseconds.
    busy_ns: AtomicU64,
    /// End-to-end completion latency: spout emit → tuple-tree completion
    /// (recorded by the spout for every acked root in reliability mode) or
    /// spout emit → sink processing (recorded by terminal bolts for the
    /// lineage-sampled trees in at-most-once mode).
    pub e2e: AtomicHistogram,
}

impl TaskCounters {
    /// Records the processing of one tuple that took `elapsed`.
    pub fn record(&self, elapsed: Duration) {
        self.add(Counter::Processed, 1);
        self.busy_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Adds `n` to one counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counts[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Monitor configuration. A monitor's presence is itself the first
/// level: windows, queue gauges and the rule profiles a host registers.
/// [`lineage`](MonitorConfig::lineage) is the second: sampled span trees,
/// and the at-most-once end-to-end latency of the sampled trees (under
/// the acker every acked root records it, monitor or not). The hub keeps
/// [`DEFAULT_RETENTION`] history entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Sampling window. The paper uses 40 s.
    pub window: Duration,
    /// Opt-in metrics exposition: `Some(port)` binds a loopback
    /// `TcpListener` (port 0 = ephemeral) polled by the monitor thread,
    /// serving the Prometheus text format on `/metrics` and a JSON
    /// snapshot on `/json`. `None` (the default) binds nothing.
    pub expose: Option<u16>,
    /// Opt-in causal tuple-lineage tracing ([`lineage`](crate::lineage)):
    /// a deterministic spout-side sampler stamps a fraction of tuple trees
    /// and every hop records a span, exported on `/trace` and through
    /// [`TopologyHandle::take_traces`](crate::runtime::TopologyHandle::take_traces);
    /// a sampled tree's terminal bolts record its end-to-end latency in
    /// at-most-once mode. `None` (the default) records nothing and adds
    /// nothing to the hot path.
    pub lineage: Option<LineageConfig>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window: Duration::from_secs(40),
            expose: None,
            lineage: None,
        }
    }
}

/// One sampled window for one component, aggregated over its tasks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComponentWindow {
    /// The component's name.
    pub component: String,
    /// Window start, relative to topology start (the previous sample's
    /// end; `0` for the first window).
    pub at: Duration,
    /// Window duration: the period this sample actually covers.
    pub len: Duration,
    /// True for the shutdown flush window, which may cover less than a
    /// full monitor period and must not be compared 1:1 with full ones.
    pub partial: bool,
    /// Tuples processed by all tasks during the window.
    pub throughput: u64,
    /// Average processing latency per tuple during the window, if any
    /// tuple was processed.
    pub avg_latency: Option<Duration>,
    /// Tuples emitted during the window.
    pub emitted: u64,
    /// Deliveries lost in transit (closed channels, injected drops).
    pub dropped: u64,
    /// Direct emissions to an out-of-range task index (dropped, counted).
    pub misrouted: u64,
    /// Spout roots fully acked (at-least-once mode).
    pub acked: u64,
    /// Spout roots abandoned after exhausting replays.
    pub failed: u64,
    /// Replays emitted after ack timeouts.
    pub replayed: u64,
    /// Supervised task restarts after panics.
    pub restarted: u64,
    /// Fault-injection panics that fired in the component's tasks.
    pub injected_panics: u64,
    /// Fault-injection latency sleeps that fired in the component's tasks.
    pub injected_latency: u64,
    /// Fault-injection drops on the component's outbound edges.
    pub injected_drops: u64,
    /// End-to-end completion latencies recorded during the window: every
    /// acked root in reliability mode, the lineage-sampled trees in
    /// at-most-once mode.
    pub e2e: LatencyHistogram,
    /// Tuples sitting in the component's task input channels at sample
    /// time, summed over tasks (under a monitor; gauge, not a delta).
    pub queue_depth: u64,
    /// Deepest single task input channel at sample time (under a monitor).
    pub queue_depth_max: u64,
    /// Total capacity of the component's input channels (under a monitor;
    /// zero for spouts, which have no input channel).
    pub queue_capacity: u64,
    /// Per-rule CEP profiles recorded during the window (empty unless a
    /// profile source is registered for the component). Counters and histograms are window deltas,
    /// `window_len` and `threshold_age` are gauges read at sample time.
    pub rules: Vec<RuleProfile>,
}

/// One rule's (statement's) profile on one engine instance, as carried by
/// a [`ComponentWindow`]. In window samples the counters and the `eval`
/// histogram are deltas over the window; in [`MetricsHub::totals`] they
/// are lifetime cumulatives. `window_len` and `threshold_age` are always
/// point-in-time gauges.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleProfile {
    /// The rule (or statement) name.
    pub rule: String,
    /// Which engine instance (task index) of the component ran it.
    pub engine: usize,
    /// Events routed into the statement's windows.
    pub events_in: u64,
    /// Condition evaluations performed.
    pub evals: u64,
    /// Evaluations that produced at least one output row (matches).
    pub firings: u64,
    /// Output rows produced.
    pub rows_out: u64,
    /// Eval wall-time distribution (same 48-bucket log₂ shape as `e2e`).
    pub eval: LatencyHistogram,
    /// Evaluations served from a pane bank (a cluster of any size, one
    /// included).
    pub path_shared: u64,
    /// Evaluations of a single-source aggregate served from its own panes.
    pub path_incremental: u64,
    /// Evaluations served by the anchor fast path.
    pub path_anchor: u64,
    /// Evaluations that fell back to a full window rescan.
    pub path_rescan: u64,
    /// Events currently buffered across the statement's windows (gauge).
    pub window_len: u64,
    /// Age of the thresholds the rule is currently using (Section 4.3.1),
    /// if the rule is dynamic and has fetched thresholds at least once.
    pub threshold_age: Option<Duration>,
}

impl RuleProfile {
    /// Counters and histogram recorded since `last` (per-window delta);
    /// gauges pass through unchanged. Saturates at zero if a counter went
    /// backwards (a restarted engine).
    fn delta(mut self, last: &mut RuleProfile) -> RuleProfile {
        for (.., counter, field) in RULE_FAMILIES {
            if counter {
                let was = *field(last);
                let now = field(&mut self);
                *now = now.saturating_sub(was);
            }
        }
        self.eval = self.eval.delta(&last.eval);
        self
    }
}

/// A callback the hub polls at sample time for a component's current
/// *cumulative* per-rule profiles (the hub computes window deltas itself).
/// Registered by engine-hosting bolts once their engines exist.
pub type ProfileSource = Arc<dyn Fn() -> Vec<RuleProfile> + Send + Sync>;

/// A field of a window or a rule profile: written when a window is
/// assembled, read when one is rendered.
type Field<T> = fn(&mut T) -> &mut u64;

/// Where a per-component family's value lives in a window.
#[derive(Clone, Copy)]
enum Value {
    /// A task counter, summed over the component's tasks into the field.
    Sum(Counter, Field<ComponentWindow>),
    /// A gauge or derived value, read off the assembled window.
    Gauge(fn(&ComponentWindow) -> u64),
}

impl Value {
    fn read(self, w: &mut ComponentWindow) -> u64 {
        match self {
            Value::Sum(_, field) => *field(w),
            Value::Gauge(read) => read(w),
        }
    }
}

/// Every per-component family, in the order both scrape routes render
/// them: (Prometheus name, JSON key, help text, value). A `_seconds`
/// family's value is in nanoseconds; a `Sum` is a Prometheus counter, the
/// rest are gauges.
#[rustfmt::skip]
const FAMILIES: [(&str, &str, &str, Value); 15] = {
    use Counter::*;
    use Value::{Gauge, Sum};
    [
        ("tms_processed_total", "processed", "Tuples processed",
            Sum(Processed, |w| &mut w.throughput)),
        ("tms_emitted_total", "emitted", "Tuples emitted downstream",
            Sum(Emitted, |w| &mut w.emitted)),
        ("tms_avg_latency_seconds", "avg_latency_ns", "Mean processing time per tuple",
            Gauge(|w| w.avg_latency.map_or(0, |d| d.as_nanos() as u64))),
        ("tms_dropped_total", "dropped", "Deliveries lost in transit",
            Sum(Dropped, |w| &mut w.dropped)),
        ("tms_misrouted_total", "misrouted", "Direct emissions to an out-of-range task index",
            Sum(Misrouted, |w| &mut w.misrouted)),
        ("tms_acked_total", "acked", "Spout roots fully acked",
            Sum(Acked, |w| &mut w.acked)),
        ("tms_failed_total", "failed", "Spout roots abandoned after exhausting replays",
            Sum(Failed, |w| &mut w.failed)),
        ("tms_replayed_total", "replayed", "Replays emitted after ack timeouts",
            Sum(Replayed, |w| &mut w.replayed)),
        ("tms_restarted_total", "restarted", "Supervised task restarts after panics",
            Sum(Restarted, |w| &mut w.restarted)),
        ("tms_injected_panics_total", "injected_panics", "Fault-injection panics fired",
            Sum(InjectedPanics, |w| &mut w.injected_panics)),
        ("tms_injected_latency_total", "injected_latency", "Fault-injection latency sleeps fired",
            Sum(InjectedLatency, |w| &mut w.injected_latency)),
        ("tms_injected_drops_total", "injected_drops", "Fault-injection deliveries dropped",
            Sum(InjectedDrops, |w| &mut w.injected_drops)),
        ("tms_queue_depth", "queue_depth", "Tuples buffered in the component's input channels",
            Gauge(|w| w.queue_depth)),
        ("tms_queue_depth_max", "queue_depth_max", "Deepest single input channel of the component",
            Gauge(|w| w.queue_depth_max)),
        ("tms_queue_capacity", "queue_capacity", "Total capacity of the component's input channels",
            Gauge(|w| w.queue_capacity)),
    ]
};

/// A rule profile's families, in rendering order: (Prometheus name, JSON
/// key, help text, counter rather than gauge, field). Counters are
/// windowed as deltas; gauges pass through.
#[rustfmt::skip]
const RULE_FAMILIES: [(&str, &str, &str, bool, Field<RuleProfile>); 9] = [
    ("tms_rule_events_in_total", "events_in", "Events routed into the rule's windows", true,
        |r| &mut r.events_in),
    ("tms_rule_evals_total", "evals", "Condition evaluations performed", true, |r| &mut r.evals),
    ("tms_rule_firings_total", "firings", "Evaluations that produced output rows", true,
        |r| &mut r.firings),
    ("tms_rule_rows_out_total", "rows_out", "Output rows produced", true, |r| &mut r.rows_out),
    ("tms_rule_path_shared_total", "path_shared",
        "Evals served from a pane bank (cluster of any size, one included)", true,
        |r| &mut r.path_shared),
    ("tms_rule_path_incremental_total", "path_incremental", "Evals on the incremental path", true,
        |r| &mut r.path_incremental),
    ("tms_rule_path_anchor_total", "path_anchor", "Evals on the anchor fast path", true,
        |r| &mut r.path_anchor),
    ("tms_rule_path_rescan_total", "path_rescan", "Evals that fell back to a full rescan", true,
        |r| &mut r.path_rescan),
    ("tms_rule_window_events", "window_events", "Events buffered in the rule's windows", false,
        |r| &mut r.window_len),
];

/// The counter values a window is computed from.
#[derive(Debug, Default, Clone)]
struct Snapshot {
    counts: [u64; COUNTERS],
    busy_ns: u64,
    e2e: LatencyHistogram,
}

impl Snapshot {
    fn read(counters: &TaskCounters) -> Self {
        Snapshot {
            counts: std::array::from_fn(|i| counters.counts[i].load(Ordering::Relaxed)),
            busy_ns: counters.busy_ns.load(Ordering::Relaxed),
            e2e: counters.e2e.snapshot(),
        }
    }

    fn delta(&self, last: &Snapshot) -> Snapshot {
        Snapshot {
            counts: std::array::from_fn(|i| self.counts[i] - last.counts[i]),
            busy_ns: self.busy_ns - last.busy_ns,
            e2e: self.e2e.delta(&last.e2e),
        }
    }

    fn add(&mut self, other: &Snapshot) {
        for (sum, n) in self.counts.iter_mut().zip(other.counts) {
            *sum += n;
        }
        self.busy_ns += other.busy_ns;
        self.e2e.merge(&other.e2e);
    }
}

#[derive(Debug)]
struct TaskEntry {
    component: String,
    counters: Arc<TaskCounters>,
    last: Snapshot,
}

/// One task input channel's occupancy gauge. The hub deliberately holds a
/// plain counter rather than a channel handle: a cloned `Sender`/`Receiver`
/// would keep the channel alive past its task's death and break the
/// runtime's disconnect detection.
#[derive(Debug)]
struct QueueGauge {
    component: String,
    depth: Arc<AtomicI64>,
    capacity: u64,
}

/// One registered [`ProfileSource`] plus the last cumulative profiles seen
/// from it, keyed by `(rule, engine)`, for window-delta computation.
struct ProfileEntry {
    component: String,
    source: ProfileSource,
    last: BTreeMap<(String, usize), RuleProfile>,
}

impl std::fmt::Debug for ProfileEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileEntry")
            .field("component", &self.component)
            .field("last", &self.last)
            .finish_non_exhaustive()
    }
}

/// A callback polled at render time for a component's current gauge
/// values, as `(metric name, value)` pairs. Names are suffixes: a pair
/// `("rebalances_total", 3.0)` renders as `tms_rebalances_total`.
pub type GaugeSource = Arc<dyn Fn() -> Vec<(String, f64)> + Send + Sync>;

/// One registered [`GaugeSource`] under its component name.
struct GaugeEntry {
    component: String,
    source: GaugeSource,
}

impl std::fmt::Debug for GaugeEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GaugeEntry")
            .field("component", &self.component)
            .finish_non_exhaustive()
    }
}

/// The Nimbus-side collector.
#[derive(Debug)]
pub struct MetricsHub {
    started: Instant,
    tasks: Mutex<Vec<TaskEntry>>,
    queues: Mutex<Vec<QueueGauge>>,
    profiles: Mutex<Vec<ProfileEntry>>,
    gauges: Mutex<Vec<GaugeEntry>>,
    history: Mutex<VecDeque<ComponentWindow>>,
    retention: usize,
    /// End of the previous sample — the next window's start.
    last_end: Mutex<Duration>,
}

impl Default for MetricsHub {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsHub {
    /// Creates an empty hub with the default history retention.
    pub fn new() -> Self {
        Self::with_retention(DEFAULT_RETENTION)
    }

    /// Creates an empty hub keeping at most `retention` history entries
    /// (the tests' small rings; the runtime keeps [`DEFAULT_RETENTION`]).
    fn with_retention(retention: usize) -> Self {
        MetricsHub {
            started: Instant::now(),
            tasks: Mutex::new(Vec::new()),
            queues: Mutex::new(Vec::new()),
            profiles: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            history: Mutex::new(VecDeque::new()),
            retention: retention.max(1),
            last_end: Mutex::new(Duration::ZERO),
        }
    }

    /// Registers a task's counters under its component name.
    pub fn register_task(&self, component: &str) -> Arc<TaskCounters> {
        let counters = Arc::new(TaskCounters::default());
        self.tasks.lock().push(TaskEntry {
            component: component.to_string(),
            counters: counters.clone(),
            last: Snapshot::default(),
        });
        counters
    }

    /// Registers one task input channel's occupancy counter (under a
    /// monitor): the runtime increments `depth` on send and decrements on
    /// receive; the hub reads it as a gauge at sample time.
    pub fn register_queue(&self, component: &str, depth: Arc<AtomicI64>, capacity: usize) {
        self.queues.lock().push(QueueGauge {
            component: component.to_string(),
            depth,
            capacity: capacity as u64,
        });
    }

    /// Registers a per-rule profile source under its component name. The
    /// source is polled at every sample for the component's cumulative
    /// profiles; the hub turns them into window deltas. One component may register several sources (one per
    /// engine-hosting task).
    pub fn register_profile_source(&self, component: &str, source: ProfileSource) {
        self.profiles.lock().push(ProfileEntry {
            component: component.to_string(),
            source,
            last: BTreeMap::new(),
        });
    }

    /// Registers a custom gauge source under a component name. The source
    /// is polled at every exposition render; each `(name, value)` pair it
    /// returns becomes a `tms_<name>{component="..."}` gauge sample. Used
    /// by subsystems with state the task counters cannot express (e.g. the
    /// elastic rebalancer's migration counters).
    pub fn register_gauges(&self, component: &str, source: GaugeSource) {
        self.gauges.lock().push(GaugeEntry { component: component.to_string(), source });
    }

    /// Polls every gauge source: `metric name → [(component, value)]`,
    /// deterministically ordered.
    fn custom_gauges(&self) -> BTreeMap<String, Vec<(String, f64)>> {
        let mut out: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
        for entry in self.gauges.lock().iter() {
            for (name, value) in (entry.source)() {
                out.entry(name).or_default().push((entry.component.clone(), value));
            }
        }
        out
    }

    /// Polls every profile source and returns per-component rule profiles.
    /// With `deltas` set, counters are per-window deltas and each entry's
    /// `last` state advances; otherwise cumulative profiles are returned
    /// and no state changes.
    fn rule_profiles(&self, deltas: bool) -> BTreeMap<String, Vec<RuleProfile>> {
        let mut out: BTreeMap<String, Vec<RuleProfile>> = BTreeMap::new();
        for entry in self.profiles.lock().iter_mut() {
            let current = (entry.source)();
            let dest = out.entry(entry.component.clone()).or_default();
            for p in current {
                if deltas {
                    let key = (p.rule.clone(), p.engine);
                    dest.push(match entry.last.insert(key, p.clone()) {
                        Some(mut last) => p.delta(&mut last),
                        None => p,
                    });
                } else {
                    dest.push(p);
                }
            }
        }
        out
    }

    /// Per-component `(depth sum, depth max, capacity sum)` right now.
    fn queue_gauges(&self) -> BTreeMap<String, (u64, u64, u64)> {
        let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for g in self.queues.lock().iter() {
            let d = g.depth.load(Ordering::Relaxed).max(0) as u64;
            let e = out.entry(g.component.clone()).or_default();
            e.0 += d;
            e.1 = e.1.max(d);
            e.2 += g.capacity;
        }
        out
    }

    /// One window per component over `at .. at + len`: its tasks' counters
    /// summed (since the previous sample with `deltas`, advancing each
    /// task's mark; over the whole run without), its queue gauges as they
    /// read now, and its rule profiles.
    fn windows(
        &self,
        deltas: bool,
        at: Duration,
        len: Duration,
        partial: bool,
    ) -> Vec<ComponentWindow> {
        let mut gauges = self.queue_gauges();
        let mut rules = self.rule_profiles(deltas);
        let mut per_component: BTreeMap<String, Snapshot> = BTreeMap::new();
        for t in self.tasks.lock().iter_mut() {
            let now = Snapshot::read(&t.counters);
            let sum = per_component.entry(t.component.clone()).or_default();
            if deltas {
                sum.add(&now.delta(&t.last));
                t.last = now;
            } else {
                sum.add(&now);
            }
        }
        per_component
            .into_iter()
            .map(|(component, snap)| {
                let processed = snap.counts[Counter::Processed as usize];
                let (queue_depth, queue_depth_max, queue_capacity) =
                    gauges.remove(&component).unwrap_or_default();
                let mut w = ComponentWindow {
                    avg_latency: snap.busy_ns.checked_div(processed).map(Duration::from_nanos),
                    rules: rules.remove(&component).unwrap_or_default(),
                    component,
                    at,
                    len,
                    partial,
                    e2e: snap.e2e,
                    queue_depth,
                    queue_depth_max,
                    queue_capacity,
                    ..ComponentWindow::default()
                };
                for (.., value) in FAMILIES {
                    if let Value::Sum(counter, field) = value {
                        *field(&mut w) = snap.counts[counter as usize];
                    }
                }
                w
            })
            .collect()
    }

    /// Samples one window: per-component deltas since the previous sample.
    /// Appends to the history and returns the fresh windows.
    pub fn sample(&self) -> Vec<ComponentWindow> {
        self.sample_window(false)
    }

    /// Samples the final, possibly short window at shutdown; its windows
    /// are marked [`ComponentWindow::partial`].
    pub fn flush_sample(&self) -> Vec<ComponentWindow> {
        self.sample_window(true)
    }

    fn sample_window(&self, partial: bool) -> Vec<ComponentWindow> {
        let now = self.started.elapsed();
        let at = std::mem::replace(&mut *self.last_end.lock(), now);
        let windows = self.windows(true, at, now.saturating_sub(at), partial);
        let mut history = self.history.lock();
        history.extend(windows.iter().cloned());
        while history.len() > self.retention {
            history.pop_front();
        }
        windows
    }

    /// Every retained window, oldest first.
    pub fn history(&self) -> Vec<ComponentWindow> {
        self.history.lock().iter().cloned().collect()
    }

    /// Lifetime totals per component (independent of windows): one
    /// whole-run window starting at zero.
    pub fn totals(&self) -> Vec<ComponentWindow> {
        self.windows(false, Duration::ZERO, self.started.elapsed(), false)
    }

    /// Renders the current lifetime totals in the Prometheus text
    /// exposition format (version 0.0.4), dependency-free. Histograms
    /// follow the cumulative `_bucket`/`_sum`/`_count` contract with
    /// `le` upper bounds in seconds; only non-empty buckets plus `+Inf`
    /// are emitted.
    pub fn render_prometheus(&self) -> String {
        let mut totals: Vec<(String, ComponentWindow)> = self
            .totals()
            .into_iter()
            .map(|w| (format!("component=\"{}\"", escape_label(&w.component)), w))
            .collect();
        let mut out = String::with_capacity(4096);
        for (name, _, help, value) in FAMILIES {
            let kind = if let Value::Sum(..) = value { "counter" } else { "gauge" };
            family_header(&mut out, name, help, kind);
            for (labels, w) in &mut totals {
                let v = value.read(w);
                if name.ends_with("_seconds") {
                    out.push_str(&format!("{name}{{{labels}}} {}\n", v as f64 / 1e9));
                } else {
                    out.push_str(&format!("{name}{{{labels}}} {v}\n"));
                }
            }
        }
        let name = "tms_e2e_latency_seconds";
        family_header(&mut out, name, "End-to-end tuple completion latency", "histogram");
        for (labels, w) in &totals {
            if !w.e2e.is_empty() {
                render_histogram(&mut out, name, labels, &w.e2e);
            }
        }

        let mut rules: Vec<(String, RuleProfile)> = Vec::new();
        for (labels, w) in &mut totals {
            for r in std::mem::take(&mut w.rules) {
                let rule = escape_label(&r.rule);
                rules.push((format!("{labels},rule=\"{rule}\",engine=\"{}\"", r.engine), r));
            }
        }
        for (name, _, help, counter, field) in RULE_FAMILIES {
            family_header(&mut out, name, help, if counter { "counter" } else { "gauge" });
            for (labels, r) in &mut rules {
                out.push_str(&format!("{name}{{{labels}}} {}\n", field(r)));
            }
        }
        let name = "tms_rule_threshold_age_seconds";
        family_header(&mut out, name, "Age of the thresholds the rule is using", "gauge");
        for (labels, r) in &rules {
            if let Some(age) = r.threshold_age {
                out.push_str(&format!("{name}{{{labels}}} {}\n", age.as_secs_f64()));
            }
        }
        let name = "tms_rule_eval_seconds";
        family_header(&mut out, name, "Rule condition evaluation wall time", "histogram");
        for (labels, r) in &rules {
            if !r.eval.is_empty() {
                render_histogram(&mut out, name, labels, &r.eval);
            }
        }

        for (name, samples) in self.custom_gauges() {
            family_header(&mut out, &format!("tms_{name}"), "Custom gauge", "gauge");
            for (component, value) in samples {
                out.push_str(&format!(
                    "tms_{name}{{component=\"{}\"}} {value}\n",
                    escape_label(&component)
                ));
            }
        }
        out
    }

    /// Renders the current lifetime totals as a JSON snapshot (one object
    /// per component, rule profiles nested), dependency-free.
    pub fn render_json(&self) -> String {
        let uptime = self.started.elapsed().as_secs_f64();
        let mut out = format!("{{\"uptime_s\":{uptime:.3},\"components\":[");
        for (i, mut w) in self.totals().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"component\":{}", json_string(&w.component)));
            for (_, key, _, value) in FAMILIES {
                out.push_str(&format!(",\"{key}\":{}", value.read(&mut w)));
            }
            out.push_str(&format!(",\"e2e\":{},\"rules\":[", json_histogram(&w.e2e)));
            for (j, r) in w.rules.iter_mut().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"rule\":{},\"engine\":{}", json_string(&r.rule), r.engine));
                for (_, key, _, _, field) in RULE_FAMILIES {
                    out.push_str(&format!(",\"{key}\":{}", field(r)));
                }
                let age = r.threshold_age.map(|d| format!("{:.3}", d.as_secs_f64()));
                out.push_str(&format!(
                    ",\"threshold_age_s\":{},\"eval\":{}}}",
                    age.as_deref().unwrap_or("null"),
                    json_histogram(&r.eval)
                ));
            }
            out.push_str("]}");
        }
        out.push_str("],\"gauges\":[");
        let mut first = true;
        for (name, samples) in self.custom_gauges() {
            for (component, value) in samples {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"component\":{},\"name\":{},\"value\":{}}}",
                    json_string(&component),
                    json_string(&name),
                    if value.is_finite() { format!("{value}") } else { "null".to_string() }
                ));
            }
        }
        out.push_str("]}");
        out
    }
}

/// Appends a family's `# HELP` and `# TYPE` lines.
fn family_header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Escapes a Prometheus label value: backslash, double quote, newline.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Renders a quoted JSON string with backslash/quote/control escaping:
/// the one escaper of every JSON rendering in this crate (`/json`,
/// `/events`, `/trace`, `/trace.jsonl`).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a histogram as a compact JSON object: count, exact nanosecond
/// sum, and the non-empty log₂ buckets as `[bucket_index, count]` pairs.
fn json_histogram(h: &LatencyHistogram) -> String {
    let pairs: Vec<String> = h
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| format!("[{i},{n}]"))
        .collect();
    format!("{{\"count\":{},\"sum_ns\":{},\"log2_buckets\":[{}]}}", h.count(), h.sum_ns(), pairs.join(","))
}

/// Appends one Prometheus histogram (cumulative `_bucket` lines for the
/// non-empty buckets, `+Inf`, `_sum`, `_count`) with `le` bounds in
/// seconds.
fn render_histogram(out: &mut String, name: &str, labels: &str, h: &LatencyHistogram) {
    let mut cum = 0u64;
    for (i, &n) in h.buckets().iter().enumerate() {
        if n == 0 {
            continue;
        }
        cum += n;
        let le = (1u128 << (i + 1)) as f64 / 1e9;
        out.push_str(&format!("{name}_bucket{{{labels},le=\"{le}\"}} {cum}\n"));
    }
    out.push_str(&format!("{name}_bucket{{{labels},le=\"+Inf\"}} {cum}\n"));
    out.push_str(&format!("{name}_sum{{{labels}}} {}\n", h.sum_ns() as f64 / 1e9));
    out.push_str(&format!("{name}_count{{{labels}}} {cum}\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_report_deltas_not_totals() {
        let hub = MetricsHub::new();
        let c = hub.register_task("esper");
        c.record(Duration::from_millis(2));
        c.record(Duration::from_millis(4));
        let w1 = hub.sample();
        assert_eq!(w1.len(), 1);
        assert_eq!(w1[0].throughput, 2);
        assert_eq!(w1[0].avg_latency, Some(Duration::from_millis(3)));
        // Second window with no work: throughput 0, no latency.
        let w2 = hub.sample();
        assert_eq!(w2[0].throughput, 0);
        assert_eq!(w2[0].avg_latency, None);
        // One more tuple appears only in the third window.
        c.record(Duration::from_millis(6));
        let w3 = hub.sample();
        assert_eq!(w3[0].throughput, 1);
        assert_eq!(w3[0].avg_latency, Some(Duration::from_millis(6)));
    }

    #[test]
    fn tasks_of_one_component_aggregate() {
        let hub = MetricsHub::new();
        let a = hub.register_task("esper");
        let b = hub.register_task("esper");
        let other = hub.register_task("splitter");
        a.record(Duration::from_millis(1));
        b.record(Duration::from_millis(3));
        other.record(Duration::from_millis(10));
        let w = hub.sample();
        assert_eq!(w.len(), 2);
        let esper = w.iter().find(|c| c.component == "esper").unwrap();
        assert_eq!(esper.throughput, 2);
        assert_eq!(esper.avg_latency, Some(Duration::from_millis(2)));
    }

    #[test]
    fn totals_and_history_accumulate() {
        let hub = MetricsHub::new();
        let c = hub.register_task("b");
        c.record(Duration::from_millis(1));
        hub.sample();
        c.record(Duration::from_millis(1));
        hub.sample();
        assert_eq!(hub.history().len(), 2);
        let totals = hub.totals();
        assert_eq!(totals[0].throughput, 2);
    }

    #[test]
    fn emitted_counter() {
        let hub = MetricsHub::new();
        let c = hub.register_task("b");
        c.add(Counter::Emitted, 1);
        c.add(Counter::Emitted, 1);
        let w = hub.sample();
        assert_eq!(w[0].emitted, 2);
    }

    #[test]
    fn reliability_counters_flow_into_windows() {
        let hub = MetricsHub::new();
        let c = hub.register_task("spout");
        c.add(Counter::Dropped, 1);
        c.add(Counter::Acked, 1);
        c.add(Counter::Acked, 1);
        c.add(Counter::Failed, 1);
        c.add(Counter::Replayed, 1);
        c.add(Counter::Restarted, 1);
        let w = hub.sample();
        assert_eq!(w[0].dropped, 1);
        assert_eq!(w[0].acked, 2);
        assert_eq!(w[0].failed, 1);
        assert_eq!(w[0].replayed, 1);
        assert_eq!(w[0].restarted, 1);
        // Windows are deltas; totals are lifetime.
        let w2 = hub.sample();
        assert_eq!(w2[0].acked, 0);
        let totals = hub.totals();
        assert_eq!(totals[0].acked, 2);
        assert_eq!(totals[0].dropped, 1);
    }

    #[test]
    fn every_counter_has_one_family() {
        let mut summed: Vec<usize> = FAMILIES
            .iter()
            .filter_map(|(.., value)| match value {
                Value::Sum(counter, _) => Some(*counter as usize),
                Value::Gauge(_) => None,
            })
            .collect();
        summed.sort_unstable();
        assert_eq!(summed, (0..COUNTERS).collect::<Vec<_>>());
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        // 90 fast samples at 1 ms, 10 slow ones at 1 s.
        for _ in 0..90 {
            h.record(Duration::from_millis(1));
        }
        for _ in 0..10 {
            h.record(Duration::from_secs(1));
        }
        assert_eq!(h.count(), 100);
        // Quantiles report the holding bucket's upper bound: never below
        // the true value, at most 2x above.
        let p50 = h.p50().unwrap();
        assert!(p50 >= Duration::from_millis(1) && p50 <= Duration::from_millis(2), "{p50:?}");
        let p99 = h.p99().unwrap();
        assert!(p99 >= Duration::from_secs(1) && p99 <= Duration::from_secs(2), "{p99:?}");
        // p90 still falls in the fast bucket, p91 in the slow one.
        assert!(h.quantile(0.90).unwrap() <= Duration::from_millis(2));
        assert!(h.quantile(0.91).unwrap() >= Duration::from_secs(1));
        // The mean is exact, not bucketed.
        let mean = h.mean().unwrap();
        assert_eq!(mean, Duration::from_nanos((90 * 1_000_000 + 10 * 1_000_000_000) / 100));
    }

    #[test]
    fn histogram_extremes_clamp_to_the_bucket_range() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::ZERO); // below bucket 0 → clamped to [1, 2) ns
        h.record(Duration::from_secs(60 * 60 * 24 * 365)); // beyond the top bucket
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0).is_some());
    }

    #[test]
    fn histogram_merges_across_tasks_of_one_component() {
        let hub = MetricsHub::new();
        let a = hub.register_task("spout");
        let b = hub.register_task("spout");
        for _ in 0..5 {
            a.e2e.record(Duration::from_millis(1));
        }
        for _ in 0..5 {
            b.e2e.record(Duration::from_secs(1));
        }
        let w = hub.sample();
        assert_eq!(w[0].e2e.count(), 10, "both tasks' histograms merge");
        assert!(w[0].e2e.quantile(0.4).unwrap() <= Duration::from_millis(2));
        assert!(w[0].e2e.quantile(0.9).unwrap() >= Duration::from_secs(1));
        // Direct merge agrees with the hub-side aggregation.
        let mut m = LatencyHistogram::default();
        for _ in 0..5 {
            m.record(Duration::from_millis(1));
        }
        let mut other = LatencyHistogram::default();
        for _ in 0..5 {
            other.record(Duration::from_secs(1));
        }
        m.merge(&other);
        assert_eq!(m, w[0].e2e);
    }

    #[test]
    fn e2e_histograms_window_as_deltas() {
        let hub = MetricsHub::new();
        let c = hub.register_task("spout");
        c.e2e.record(Duration::from_millis(1));
        c.e2e.record(Duration::from_millis(1));
        let w1 = hub.sample();
        assert_eq!(w1[0].e2e.count(), 2);
        c.e2e.record(Duration::from_millis(8));
        let w2 = hub.sample();
        assert_eq!(w2[0].e2e.count(), 1, "windows carry only fresh samples");
        assert_eq!(hub.totals()[0].e2e.count(), 3, "totals carry everything");
    }

    #[test]
    fn windows_stamp_start_and_duration() {
        // Regression: `at` was documented as the window start but stamped
        // with the sample end. Starts must chain: each window begins where
        // the previous one ended.
        let hub = MetricsHub::new();
        hub.register_task("b");
        let w1 = hub.sample();
        assert_eq!(w1[0].at, Duration::ZERO, "first window starts at topology start");
        assert!(!w1[0].partial);
        std::thread::sleep(Duration::from_millis(5));
        let w2 = hub.sample();
        assert_eq!(w2[0].at, w1[0].len, "second window starts at the first one's end");
        assert!(w2[0].len >= Duration::from_millis(5));
        // Totals describe the whole run: start zero, duration = lifetime.
        let t = hub.totals();
        assert_eq!(t[0].at, Duration::ZERO);
        assert!(t[0].len >= w1[0].len + w2[0].len);
    }

    #[test]
    fn flush_sample_marks_windows_partial() {
        let hub = MetricsHub::new();
        let c = hub.register_task("b");
        c.record(Duration::from_millis(1));
        let regular = hub.sample();
        assert!(!regular[0].partial);
        c.record(Duration::from_millis(1));
        let flushed = hub.flush_sample();
        assert!(flushed[0].partial, "the shutdown flush must be distinguishable");
        assert_eq!(flushed[0].throughput, 1);
        let history = hub.history();
        assert_eq!(history.iter().filter(|w| w.partial).count(), 1);
    }

    #[test]
    fn history_retention_evicts_oldest_windows() {
        let hub = MetricsHub::with_retention(3);
        let c = hub.register_task("b");
        for i in 0..5u64 {
            c.record(Duration::from_millis(i + 1));
            hub.sample();
        }
        let history = hub.history();
        assert_eq!(history.len(), 3, "ring buffer keeps the newest entries");
        // The two oldest windows were evicted: the survivors are the ones
        // with the 3rd, 4th and 5th recorded latencies.
        let lats: Vec<_> = history.iter().map(|w| w.avg_latency.unwrap()).collect();
        assert_eq!(
            lats,
            vec![
                Duration::from_millis(3),
                Duration::from_millis(4),
                Duration::from_millis(5)
            ]
        );
        // Totals are unaffected by eviction.
        assert_eq!(hub.totals()[0].throughput, 5);
    }

    #[test]
    fn queue_gauges_aggregate_per_component() {
        let hub = MetricsHub::new();
        hub.register_task("sink");
        hub.register_task("src");
        let d1 = Arc::new(AtomicI64::new(0));
        let d2 = Arc::new(AtomicI64::new(0));
        hub.register_queue("sink", d1.clone(), 64);
        hub.register_queue("sink", d2.clone(), 64);
        d1.store(10, Ordering::Relaxed);
        d2.store(3, Ordering::Relaxed);
        let w = hub.sample();
        let sink = w.iter().find(|c| c.component == "sink").unwrap();
        assert_eq!(sink.queue_depth, 13);
        assert_eq!(sink.queue_depth_max, 10);
        assert_eq!(sink.queue_capacity, 128);
        let src = w.iter().find(|c| c.component == "src").unwrap();
        assert_eq!((src.queue_depth, src.queue_capacity), (0, 0), "spouts have no input queue");
        // Gauges, not deltas: an unchanged depth reads the same next window.
        let w2 = hub.sample();
        assert_eq!(w2.iter().find(|c| c.component == "sink").unwrap().queue_depth, 13);
    }

    #[test]
    fn quantile_boundary_q0_reports_first_nonempty_bucket_upper_bound() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_nanos(700)); // bucket 9: [512, 1024) ns
        h.record(Duration::from_millis(3));
        // q=0 is rank 1 — the bucket upper bound, NOT the true minimum.
        assert_eq!(h.quantile(0.0), Some(Duration::from_nanos(1024)));
    }

    #[test]
    fn quantile_boundary_q1_reports_last_nonempty_bucket_upper_bound() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_nanos(3)); // bucket 1: [2, 4) ns
        h.record(Duration::from_nanos(700)); // bucket 9
        assert_eq!(h.quantile(1.0), Some(Duration::from_nanos(1024)));
    }

    #[test]
    fn quantile_boundary_single_sample_every_q_reports_its_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_nanos(5)); // bucket 2: [4, 8) ns
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(Duration::from_nanos(8)), "q={q}");
        }
    }

    #[test]
    fn quantile_boundary_sub_ns_samples_report_2ns() {
        // Duration::ZERO clamps to 1 ns on record, landing in bucket 0
        // which covers [1, 2) ns — its upper bound is 2 ns.
        let mut h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        assert_eq!(h.quantile(0.0), Some(Duration::from_nanos(2)));
        assert_eq!(h.quantile(1.0), Some(Duration::from_nanos(2)));
    }

    #[test]
    fn quantile_boundary_all_in_last_bucket() {
        // Samples beyond 2^47 ns clamp into the final bucket, whose upper
        // bound is 2^48 ns (~78 h).
        let mut h = LatencyHistogram::default();
        for _ in 0..3 {
            h.record(Duration::from_secs(60 * 60 * 24 * 365));
        }
        let top = Duration::from_nanos(1u64 << LATENCY_BUCKETS);
        assert_eq!(h.quantile(0.0), Some(top));
        assert_eq!(h.quantile(0.5), Some(top));
        assert_eq!(h.quantile(1.0), Some(top));
    }

    #[test]
    fn rule_profiles_window_as_deltas_and_total_as_cumulative() {
        let hub = MetricsHub::new();
        hub.register_task("esper");
        let state = Arc::new(Mutex::new(RuleProfile {
            rule: "speeding".into(),
            engine: 0,
            events_in: 10,
            evals: 10,
            firings: 4,
            rows_out: 4,
            eval: {
                let mut h = LatencyHistogram::default();
                h.record(Duration::from_micros(2));
                h
            },
            path_shared: 0,
            path_incremental: 10,
            path_anchor: 0,
            path_rescan: 0,
            window_len: 7,
            threshold_age: Some(Duration::from_secs(30)),
        }));
        let src = state.clone();
        hub.register_profile_source("esper", Arc::new(move || vec![src.lock().clone()]));

        let w1 = hub.sample();
        let r1 = &w1[0].rules[0];
        assert_eq!((r1.events_in, r1.evals, r1.firings), (10, 10, 4));
        assert_eq!(r1.eval.count(), 1);
        assert_eq!(r1.window_len, 7);
        assert_eq!(r1.threshold_age, Some(Duration::from_secs(30)));

        // Advance the cumulative profile; the next window carries deltas,
        // gauges pass through.
        {
            let mut p = state.lock();
            p.events_in = 25;
            p.evals = 25;
            p.firings = 6;
            p.rows_out = 6;
            p.eval.record(Duration::from_micros(8));
            p.path_incremental = 25;
            p.window_len = 3;
            p.threshold_age = Some(Duration::from_secs(70));
        }
        let w2 = hub.sample();
        let r2 = &w2[0].rules[0];
        assert_eq!((r2.events_in, r2.evals, r2.firings, r2.rows_out), (15, 15, 2, 2));
        assert_eq!(r2.eval.count(), 1, "only the fresh eval sample");
        assert_eq!(r2.path_incremental, 15);
        assert_eq!(r2.window_len, 3, "gauge, not a delta");
        assert_eq!(r2.threshold_age, Some(Duration::from_secs(70)));

        // Totals stay cumulative and don't disturb the delta state.
        let t = hub.totals();
        assert_eq!(t[0].rules[0].events_in, 25);
        assert_eq!(t[0].rules[0].eval.count(), 2);
        let w3 = hub.sample();
        assert_eq!(w3[0].rules[0].events_in, 0, "no new events since w2");
    }

    #[test]
    fn rule_profiles_tolerate_counter_resets() {
        let hub = MetricsHub::new();
        hub.register_task("esper");
        let counter = Arc::new(AtomicU64::new(100));
        let c = counter.clone();
        hub.register_profile_source(
            "esper",
            Arc::new(move || {
                vec![RuleProfile {
                    rule: "r".into(),
                    engine: 0,
                    events_in: c.load(Ordering::Relaxed),
                    evals: 0,
                    firings: 0,
                    rows_out: 0,
                    eval: LatencyHistogram::default(),
                    path_shared: 0,
                    path_incremental: 0,
                    path_anchor: 0,
                    path_rescan: 0,
                    window_len: 0,
                    threshold_age: None,
                }]
            }),
        );
        hub.sample();
        counter.store(5, Ordering::Relaxed); // engine restarted, counters reset
        let w = hub.sample();
        assert_eq!(w[0].rules[0].events_in, 0, "saturates instead of underflowing");
    }

    #[test]
    fn prometheus_rendering_has_correct_histogram_semantics() {
        let hub = MetricsHub::new();
        let c = hub.register_task("esper");
        c.record(Duration::from_millis(1));
        c.add(Counter::Emitted, 1);
        c.e2e.record(Duration::from_nanos(3)); // bucket 1, le = 4e-9
        c.e2e.record(Duration::from_nanos(3));
        c.e2e.record(Duration::from_nanos(700)); // bucket 9, le = 1.024e-6
        let text = hub.render_prometheus();
        assert!(text.contains("# TYPE tms_processed_total counter"), "{text}");
        assert!(text.contains("tms_processed_total{component=\"esper\"} 1"), "{text}");
        assert!(text.contains("tms_emitted_total{component=\"esper\"} 1"), "{text}");
        // Cumulative buckets: 2 at le=4ns, 3 at le=1024ns, 3 at +Inf.
        assert!(text.contains("tms_e2e_latency_seconds_bucket{component=\"esper\",le=\"0.000000004\"} 2"), "{text}");
        assert!(
            text.contains("tms_e2e_latency_seconds_bucket{component=\"esper\",le=\"0.000001024\"} 3"),
            "{text}"
        );
        assert!(text.contains("tms_e2e_latency_seconds_bucket{component=\"esper\",le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("tms_e2e_latency_seconds_count{component=\"esper\"} 3"), "{text}");
        let sum_line = text
            .lines()
            .find(|l| l.starts_with("tms_e2e_latency_seconds_sum{component=\"esper\"}"))
            .unwrap();
        let sum: f64 = sum_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!((sum - 706e-9).abs() < 1e-12, "{sum_line}");
    }

    #[test]
    fn prometheus_rendering_includes_rule_profiles_and_escapes_labels() {
        let hub = MetricsHub::new();
        hub.register_task("esper");
        hub.register_profile_source(
            "esper",
            Arc::new(|| {
                vec![RuleProfile {
                    rule: "rule \"q\"".into(),
                    engine: 2,
                    events_in: 9,
                    evals: 9,
                    firings: 1,
                    rows_out: 1,
                    eval: {
                        let mut h = LatencyHistogram::default();
                        h.record(Duration::from_nanos(5));
                        h
                    },
                    path_shared: 0,
                    path_incremental: 9,
                    path_anchor: 0,
                    path_rescan: 0,
                    window_len: 4,
                    threshold_age: Some(Duration::from_secs(12)),
                }]
            }),
        );
        let text = hub.render_prometheus();
        assert!(
            text.contains(
                "tms_rule_events_in_total{component=\"esper\",rule=\"rule \\\"q\\\"\",engine=\"2\"} 9"
            ),
            "{text}"
        );
        assert!(
            text.contains("tms_rule_window_events{component=\"esper\",rule=\"rule \\\"q\\\"\",engine=\"2\"} 4"),
            "{text}"
        );
        assert!(
            text.contains(
                "tms_rule_threshold_age_seconds{component=\"esper\",rule=\"rule \\\"q\\\"\",engine=\"2\"} 12"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "tms_rule_eval_seconds_bucket{component=\"esper\",rule=\"rule \\\"q\\\"\",engine=\"2\",le=\"+Inf\"} 1"
            ),
            "{text}"
        );
    }

    #[test]
    fn json_rendering_is_parseable_shape() {
        let hub = MetricsHub::new();
        let c = hub.register_task("esper");
        c.record(Duration::from_millis(1));
        hub.register_profile_source(
            "esper",
            Arc::new(|| {
                vec![RuleProfile {
                    rule: "a \"b\"\\c".into(),
                    engine: 0,
                    events_in: 1,
                    evals: 1,
                    firings: 0,
                    rows_out: 0,
                    eval: LatencyHistogram::default(),
                    path_shared: 0,
                    path_incremental: 0,
                    path_anchor: 1,
                    path_rescan: 0,
                    window_len: 1,
                    threshold_age: None,
                }]
            }),
        );
        let json = hub.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"components\":["), "{json}");
        assert!(json.contains("\"rule\":\"a \\\"b\\\"\\\\c\""), "{json}");
        assert!(json.contains("\"threshold_age_s\":null"), "{json}");
        assert!(json.contains("\"path_anchor\":1"), "{json}");
        assert!(json.contains("\"gauges\":[]"), "{json}");
    }

    #[test]
    fn custom_gauges_render_in_both_formats() {
        let hub = MetricsHub::new();
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
        let text = hub.render_prometheus();
        assert!(text.contains("# TYPE tms_rebalances_total gauge"), "{text}");
        assert!(text.contains("tms_rebalances_total{component=\"splitter\"} 3"), "{text}");
        assert!(
            text.contains("tms_rebalance_post_imbalance{component=\"splitter\"} 1.25"),
            "{text}"
        );
        let json = hub.render_json();
        assert!(
            json.contains(
                "{\"component\":\"splitter\",\"name\":\"rebalances_total\",\"value\":3}"
            ),
            "{json}"
        );
        assert!(
            json.contains(
                "{\"component\":\"splitter\",\"name\":\"rebalance_observed_imbalance\",\"value\":null}"
            ),
            "{json}"
        );
    }

    proptest::proptest! {
        /// Satellite: merge then delta round-trips exactly. For random
        /// sample sets `a` and `b`: `(a ∪ b).delta(b) == a` bucket-for-
        /// bucket and on `sum_ns`.
        #[test]
        fn merge_delta_round_trip(
            // Up to 2^50 ns per sample (well past the 2^47 top-bucket
            // clamp) × 64 samples stays clear of sum_ns overflow.
            a_ns in proptest::collection::vec(0u64..(1u64 << 50), 0..64),
            b_ns in proptest::collection::vec(0u64..(1u64 << 50), 0..64),
        ) {
            let mut a = LatencyHistogram::default();
            for &ns in &a_ns {
                a.record(Duration::from_nanos(ns));
            }
            let mut b = LatencyHistogram::default();
            for &ns in &b_ns {
                b.record(Duration::from_nanos(ns));
            }
            let mut merged = a.clone();
            merged.merge(&b);
            proptest::prop_assert_eq!(merged.count(), a.count() + b.count());
            let recovered = merged.delta(&b);
            proptest::prop_assert_eq!(&recovered, &a);
            proptest::prop_assert_eq!(recovered.sum_ns(), a.sum_ns());
            // And symmetrically for the other operand.
            proptest::prop_assert_eq!(&merged.delta(&a), &b);
        }
    }
}
