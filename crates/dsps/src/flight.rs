//! Control-plane flight recorder: an always-on bounded ring of structured
//! events describing what the *control* plane did — task restarts,
//! durability snapshots/restores, changelog truncations, migration ticket
//! lifecycle, rebalance cycles, kappa threshold refreshes, chaos
//! injections — each stamped with a monotonic sequence number and
//! nanoseconds since the shared observability epoch, so events line up on
//! the same clock as lineage spans ([`lineage`](crate::lineage)).
//!
//! Unlike lineage tracing this is *not* opt-in: control-plane events are
//! rare (human-scale, not tuple-scale), so a mutexed `VecDeque` bounded at
//! a few thousand entries costs nothing measurable and is always there
//! when a run goes wrong. The ring keeps the **newest** events (the ones
//! near the failure); `dropped` counts evictions. On an executor's fatal
//! panic the runtime dumps the ring to stderr.

use crate::metrics::json_string;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default ring capacity (events, not bytes).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// What happened. The set mirrors the runtime's control-plane verbs;
/// `Custom` lets embedders (e.g. the traffic system's kappa bolts) record
/// domain events on the same timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlightKind {
    /// A supervised bolt task restarted after a panic.
    TaskRestart,
    /// A durability snapshot was written.
    Snapshot,
    /// Recovered state was installed into a task (fresh submit or restart).
    Restore,
    /// A torn changelog tail was truncated at open.
    ChangelogTruncated,
    /// A migration ticket was posted.
    MigrationRequested,
    /// The router began draining a ticket.
    MigrationDraining,
    /// The source deposited the ticket's state (the commit point).
    MigrationDeposited,
    /// A drain timed out; the ticket aborted.
    MigrationAborted,
    /// The payload reached the destination's mailbox.
    MigrationCompleted,
    /// A rebalance controller observation/decision cycle.
    RebalanceCycle,
    /// A rebalance decision was taken.
    RebalanceDecision,
    /// An in-stream statistics refresh was published or applied.
    StatsRefresh,
    /// A fault-injection panic fired.
    ChaosPanic,
    /// End-of-stream reached a terminal point.
    Eos,
    /// At submit: a bolt task runs chained, called directly by its
    /// upstream task on that task's executor thread.
    Chained,
    /// Embedder-defined event.
    Custom,
}

impl FlightKind {
    /// Stable lower-snake name used by the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::TaskRestart => "task_restart",
            FlightKind::Snapshot => "snapshot",
            FlightKind::Restore => "restore",
            FlightKind::ChangelogTruncated => "changelog_truncated",
            FlightKind::MigrationRequested => "migration_requested",
            FlightKind::MigrationDraining => "migration_draining",
            FlightKind::MigrationDeposited => "migration_deposited",
            FlightKind::MigrationAborted => "migration_aborted",
            FlightKind::MigrationCompleted => "migration_completed",
            FlightKind::RebalanceCycle => "rebalance_cycle",
            FlightKind::RebalanceDecision => "rebalance_decision",
            FlightKind::StatsRefresh => "stats_refresh",
            FlightKind::ChaosPanic => "chaos_panic",
            FlightKind::Eos => "eos",
            FlightKind::Chained => "chained",
            FlightKind::Custom => "custom",
        }
    }
}

/// One recorded control-plane event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic sequence number, unique within a recorder (gaps mean the
    /// ring evicted events between dumps).
    pub seq: u64,
    /// Nanoseconds since the recorder's epoch (shared with lineage spans).
    pub at_ns: u64,
    /// Event class.
    pub kind: FlightKind,
    /// Component the event concerns, or `""` for cluster-wide events.
    pub component: String,
    /// Global task index the event concerns, or `-1`.
    pub task: i64,
    /// Free-form human-readable detail.
    pub detail: String,
}

struct FlightInner {
    ring: VecDeque<FlightEvent>,
    dropped: u64,
}

/// The always-on recorder. Cheap to clone behind an `Arc`; `record` takes
/// one short mutex hold (events are rare by construction).
pub struct FlightRecorder {
    epoch: Instant,
    capacity: usize,
    seq: AtomicU64,
    inner: Mutex<FlightInner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("FlightRecorder")
            .field("events", &inner.ring.len())
            .field("dropped", &inner.dropped)
            .finish_non_exhaustive()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY, Instant::now())
    }
}

impl FlightRecorder {
    /// Creates a recorder timing events against `epoch`.
    pub fn new(capacity: usize, epoch: Instant) -> Self {
        FlightRecorder {
            epoch,
            capacity: capacity.max(16),
            seq: AtomicU64::new(0),
            inner: Mutex::new(FlightInner { ring: VecDeque::new(), dropped: 0 }),
        }
    }

    /// The shared observability epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one event; returns its sequence number.
    pub fn record(
        &self,
        kind: FlightKind,
        component: &str,
        task: i64,
        detail: impl Into<String>,
    ) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = FlightEvent {
            seq,
            at_ns: self.now_ns(),
            kind,
            component: component.to_string(),
            task,
            detail: detail.into(),
        };
        let mut inner = self.inner.lock();
        if inner.ring.len() >= self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(event);
        seq
    }

    /// Events recorded so far (including any already evicted).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events evicted by the bounded ring.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Retained events of one kind.
    pub fn events_of(&self, kind: FlightKind) -> Vec<FlightEvent> {
        self.inner
            .lock()
            .ring
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Renders the retained events as JSON:
    /// `{"dropped":N,"events":[{...},...]}`.
    pub fn render_json(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::with_capacity(64 + inner.ring.len() * 120);
        out.push_str(&format!("{{\"dropped\":{},\"events\":[", inner.dropped));
        for (i, e) in inner.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"at_ns\":{},\"kind\":\"{}\",\"component\":{},\
                 \"task\":{},\"detail\":{}}}",
                e.seq,
                e.at_ns,
                e.kind.name(),
                json_string(&e.component),
                e.task,
                json_string(&e.detail),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Dumps the ring to stderr — called by the runtime when an executor
    /// dies for good, so the control-plane history around the failure
    /// survives into logs.
    pub fn dump(&self, why: &str) {
        let inner = self.inner.lock();
        eprintln!(
            "== flight recorder dump ({why}; {} events, {} evicted) ==",
            inner.ring.len(),
            inner.dropped
        );
        for e in &inner.ring {
            eprintln!(
                "  #{:<6} {:>14}ns {:<20} component={} task={} {}",
                e.seq,
                e.at_ns,
                e.kind.name(),
                if e.component.is_empty() { "-" } else { &e.component },
                e.task,
                e.detail
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_are_monotonic_and_survive_eviction() {
        let r = FlightRecorder::new(16, Instant::now());
        for i in 0..40 {
            let seq = r.record(FlightKind::RebalanceCycle, "ctl", -1, format!("cycle {i}"));
            assert_eq!(seq, i);
        }
        assert_eq!(r.recorded(), 40);
        assert_eq!(r.dropped(), 24);
        let events = r.events();
        assert_eq!(events.len(), 16);
        assert_eq!(events.first().unwrap().seq, 24, "newest events are kept");
        assert_eq!(events.last().unwrap().seq, 39);
        assert!(events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    }

    #[test]
    fn timestamps_are_nondecreasing_against_the_epoch() {
        let r = FlightRecorder::default();
        r.record(FlightKind::Snapshot, "b", 3, "snap");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.record(FlightKind::Restore, "b", 3, "restore");
        let e = r.events();
        assert!(e[1].at_ns > e[0].at_ns);
    }

    #[test]
    fn json_export_escapes_and_lists_events() {
        let r = FlightRecorder::default();
        r.record(FlightKind::ChaosPanic, "esper", 7, "injected \"panic\"\n");
        let json = r.render_json();
        assert!(json.starts_with("{\"dropped\":0,\"events\":["));
        assert!(json.contains("\"kind\":\"chaos_panic\""));
        assert!(json.contains("\\\"panic\\\"\\n"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn events_of_filters_by_kind() {
        let r = FlightRecorder::default();
        r.record(FlightKind::TaskRestart, "a", 1, "");
        r.record(FlightKind::Snapshot, "a", 1, "");
        r.record(FlightKind::TaskRestart, "b", 2, "");
        assert_eq!(r.events_of(FlightKind::TaskRestart).len(), 2);
        assert_eq!(r.events_of(FlightKind::Snapshot).len(), 1);
        assert!(r.events_of(FlightKind::Eos).is_empty());
    }
}
