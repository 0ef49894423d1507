//! Elastic migration coordination: the control-plane rendezvous between a
//! rebalancer thread, the routing task that pauses traffic, and the
//! stateful tasks that hand state over.
//!
//! The coordinator is deliberately generic: it knows nothing about rules,
//! regions or engines, only about *tickets* — a request to move some named
//! state from task `from` to task `to`. The protocol is commit-at-deposit:
//!
//! 1. the rebalancer posts a request ([`MigrationCoordinator::request`]);
//! 2. the router pops it ([`begin_next`](MigrationCoordinator::begin_next)),
//!    emits a drain barrier directly to the source task, and blocks on
//!    [`await_deposit`](MigrationCoordinator::await_deposit);
//! 3. the source task, on seeing the barrier *after* every earlier tuple
//!    (per-sender FIFO), extracts the state non-destructively and
//!    [`deposit`](MigrationCoordinator::deposit)s it — the deposit is the
//!    commit point: only a `true` return licenses the source to evict;
//! 4. the router wakes, posts the payload into the destination's
//!    [`post_install`](MigrationCoordinator::post_install) mailbox, swaps
//!    its routing table, and emits an install trigger to the destination;
//! 5. the destination absorbs the payload either on the install trigger or
//!    on its next processed message ([`take_installs`](MigrationCoordinator::take_installs)
//!    is polled at process start), whichever arrives first — so a dropped
//!    install trigger cannot lose state.
//!
//! If the barrier is lost in transit (fault injection) the router's wait
//! times out, the ticket is marked aborted, and a late deposit returns
//! `false`: the source keeps its state and nothing moved. The rebalancer
//! simply retries on a later cycle.

use crate::flight::{FlightKind, FlightRecorder};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// One requested migration: move the state described by `meta` from task
/// `from` to task `to`. `meta` is opaque to the coordinator.
#[derive(Debug)]
pub struct MigrationRequest<M> {
    /// Ticket id, unique within the coordinator.
    pub id: u64,
    /// Source task index.
    pub from: usize,
    /// Destination task index.
    pub to: usize,
    /// Caller-defined description of what moves.
    pub meta: M,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TicketState {
    /// Queued, not yet picked up by the router.
    Pending,
    /// Barrier emitted; the router is waiting for the deposit.
    Draining,
    /// State deposited (the commit point passed).
    Deposited,
    /// The drain timed out; a late deposit is refused.
    Aborted,
    /// Payload handed to the destination's mailbox.
    Completed,
}

struct TicketEntry<M, P> {
    request: Arc<MigrationRequest<M>>,
    state: TicketState,
    payload: Option<P>,
}

struct Inner<M, P> {
    queue: VecDeque<u64>,
    tickets: HashMap<u64, TicketEntry<M, P>>,
    /// Destination task index → deposited payloads awaiting absorption.
    mailboxes: HashMap<usize, Vec<(u64, P)>>,
}

/// Counter snapshot of a coordinator's lifetime activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationStats {
    /// Migrations whose state reached the destination mailbox.
    pub completed: u64,
    /// Migrations aborted by a drain timeout.
    pub aborted: u64,
    /// Rebalance decisions taken by the controller (set via
    /// [`MigrationCoordinator::note_decision`]).
    pub decisions: u64,
    /// Routing pause of the most recent completed migration, ms.
    pub last_pause_ms: f64,
    /// Longest routing pause over the run, ms.
    pub max_pause_ms: f64,
    /// Planned imbalance after the latest rebalance decision (the
    /// controller's target; `NaN` until a decision was taken).
    pub post_imbalance: f64,
    /// Most recently observed imbalance (whatever the controller measured
    /// last; `NaN` until one was measured).
    pub observed_imbalance: f64,
    /// Controller check cycles from the first trigger until the observed
    /// imbalance fell back under the bound; `None` while unconverged.
    pub cycles_to_converge: Option<u64>,
}

const UNSET: u64 = u64::MAX;

/// The rendezvous object shared by the rebalancer, the router, and the
/// stateful tasks. `M` is the request metadata, `P` the deposited payload.
pub struct MigrationCoordinator<M, P> {
    inner: Mutex<Inner<M, P>>,
    deposited: Condvar,
    next_id: AtomicU64,
    /// Fast path for destinations: number of mailbox entries pending, so
    /// the per-message poll is one relaxed load when idle.
    pending_installs: AtomicU64,
    completed: AtomicU64,
    aborted: AtomicU64,
    decisions: AtomicU64,
    last_pause_ns: AtomicU64,
    max_pause_ns: AtomicU64,
    post_imbalance_bits: AtomicU64,
    observed_imbalance_bits: AtomicU64,
    cycles_to_converge: AtomicU64,
    /// Optional flight recorder: when attached, every ticket transition
    /// lands in the control-plane event log.
    recorder: Mutex<Option<Arc<FlightRecorder>>>,
}

impl<M, P> Default for MigrationCoordinator<M, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M, P> MigrationCoordinator<M, P> {
    /// Creates an idle coordinator.
    pub fn new() -> Self {
        MigrationCoordinator {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                tickets: HashMap::new(),
                mailboxes: HashMap::new(),
            }),
            deposited: Condvar::new(),
            next_id: AtomicU64::new(1),
            pending_installs: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
            last_pause_ns: AtomicU64::new(0),
            max_pause_ns: AtomicU64::new(0),
            post_imbalance_bits: AtomicU64::new(f64::NAN.to_bits()),
            observed_imbalance_bits: AtomicU64::new(f64::NAN.to_bits()),
            cycles_to_converge: AtomicU64::new(UNSET),
            recorder: Mutex::new(None),
        }
    }

    /// Attaches a flight recorder: every ticket lifecycle transition
    /// (requested, draining, deposited, aborted, completed) becomes a
    /// control-plane event.
    pub fn set_recorder(&self, recorder: Arc<FlightRecorder>) {
        *self.recorder.lock() = Some(recorder);
    }

    fn flight(&self, kind: FlightKind, task: i64, detail: String) {
        // Clone the Arc out so the event is recorded without holding our
        // lock (the recorder takes its own).
        let recorder = self.recorder.lock().clone();
        if let Some(r) = recorder {
            r.record(kind, "elastic", task, detail);
        }
    }

    /// Posts a migration request; returns its ticket id.
    pub fn request(&self, from: usize, to: usize, meta: M) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let request = Arc::new(MigrationRequest { id, from, to, meta });
        let mut inner = self.inner.lock();
        inner.tickets.insert(
            id,
            TicketEntry { request, state: TicketState::Pending, payload: None },
        );
        inner.queue.push_back(id);
        drop(inner);
        self.flight(
            FlightKind::MigrationRequested,
            from as i64,
            format!("ticket {id}: task {from} -> task {to}"),
        );
        id
    }

    /// Pops the next pending request and marks it draining. The router
    /// calls this, emits the barrier, then [`Self::await_deposit`]s.
    pub fn begin_next(&self) -> Option<Arc<MigrationRequest<M>>> {
        let mut inner = self.inner.lock();
        let id = inner.queue.pop_front()?;
        let entry = inner.tickets.get_mut(&id).expect("queued ticket exists");
        entry.state = TicketState::Draining;
        let request = entry.request.clone();
        drop(inner);
        self.flight(
            FlightKind::MigrationDraining,
            request.from as i64,
            format!("ticket {id}: drain barrier to task {}", request.from),
        );
        Some(request)
    }

    /// Looks a ticket's request up by id (the source task resolves what
    /// to extract from the barrier's id alone, keeping control messages
    /// small).
    pub fn ticket(&self, id: u64) -> Option<Arc<MigrationRequest<M>>> {
        self.inner.lock().tickets.get(&id).map(|e| e.request.clone())
    }

    /// Deposits the extracted state for ticket `id`. Returns `true` when
    /// the deposit committed — only then may the caller evict the source
    /// copy. Returns `false` for an aborted (timed-out) or unknown ticket.
    pub fn deposit(&self, id: u64, payload: P) -> bool {
        let mut inner = self.inner.lock();
        let Some(entry) = inner.tickets.get_mut(&id) else { return false };
        if entry.state != TicketState::Draining {
            return false;
        }
        entry.state = TicketState::Deposited;
        entry.payload = Some(payload);
        let (from, to) = (entry.request.from, entry.request.to);
        self.deposited.notify_all();
        drop(inner);
        self.flight(
            FlightKind::MigrationDeposited,
            from as i64,
            format!("ticket {id}: state extracted from task {from} for task {to}"),
        );
        true
    }

    /// Waits for ticket `id`'s deposit. On success returns the payload;
    /// on timeout marks the ticket aborted (so a late deposit is refused)
    /// and returns `None`.
    pub fn await_deposit(&self, id: u64, timeout: Duration) -> Option<P> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            match inner.tickets.get_mut(&id) {
                None => return None,
                Some(entry) if entry.state == TicketState::Deposited => {
                    entry.state = TicketState::Completed;
                    return entry.payload.take();
                }
                Some(entry) => {
                    let now = Instant::now();
                    if now >= deadline {
                        entry.state = TicketState::Aborted;
                        let from = entry.request.from;
                        self.aborted.fetch_add(1, Ordering::Relaxed);
                        drop(inner);
                        self.flight(
                            FlightKind::MigrationAborted,
                            from as i64,
                            format!("ticket {id}: drain timed out after {timeout:?}"),
                        );
                        return None;
                    }
                    let (guard, _) = self
                        .deposited
                        .wait_timeout(inner, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    inner = guard;
                }
            }
        }
    }

    /// Posts a payload into destination `to`'s install mailbox.
    pub fn post_install(&self, to: usize, id: u64, payload: P) {
        let mut inner = self.inner.lock();
        inner.mailboxes.entry(to).or_default().push((id, payload));
        self.pending_installs.fetch_add(1, Ordering::Release);
        drop(inner);
        self.flight(
            FlightKind::MigrationCompleted,
            to as i64,
            format!("ticket {id}: payload posted to task {to}'s install mailbox"),
        );
    }

    /// Drains destination `to`'s install mailbox. Cheap when idle: one
    /// relaxed atomic load guards the lock.
    pub fn take_installs(&self, to: usize) -> Vec<(u64, P)> {
        if self.pending_installs.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let mut inner = self.inner.lock();
        let taken = inner.mailboxes.remove(&to).unwrap_or_default();
        if !taken.is_empty() {
            self.pending_installs.fetch_sub(taken.len() as u64, Ordering::Release);
        }
        taken
    }

    /// Requests not yet handed to a destination (pending, draining, or
    /// deposited-but-unrouted). The rebalancer holds new decisions while
    /// this is non-zero.
    pub fn in_flight(&self) -> usize {
        let inner = self.inner.lock();
        inner
            .tickets
            .values()
            .filter(|e| {
                matches!(
                    e.state,
                    TicketState::Pending | TicketState::Draining | TicketState::Deposited
                )
            })
            .count()
    }

    /// Records a completed migration and its routing pause.
    pub fn note_completed(&self, pause: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let ns = pause.as_nanos().min(u64::MAX as u128) as u64;
        self.last_pause_ns.store(ns, Ordering::Relaxed);
        self.max_pause_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records a rebalance decision and its planned post-move imbalance.
    pub fn note_decision(&self, post_imbalance: f64) {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        self.post_imbalance_bits.store(post_imbalance.to_bits(), Ordering::Relaxed);
    }

    /// Records the controller's latest observed imbalance.
    pub fn note_observed_imbalance(&self, imbalance: f64) {
        self.observed_imbalance_bits.store(imbalance.to_bits(), Ordering::Relaxed);
    }

    /// Records how many controller cycles the first trigger took to fall
    /// back under the bound (first write wins).
    pub fn note_converged(&self, cycles: u64) {
        let _ = self.cycles_to_converge.compare_exchange(
            UNSET,
            cycles,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> MigrationStats {
        let cycles = self.cycles_to_converge.load(Ordering::Relaxed);
        MigrationStats {
            completed: self.completed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            decisions: self.decisions.load(Ordering::Relaxed),
            last_pause_ms: self.last_pause_ns.load(Ordering::Relaxed) as f64 / 1e6,
            max_pause_ms: self.max_pause_ns.load(Ordering::Relaxed) as f64 / 1e6,
            post_imbalance: f64::from_bits(self.post_imbalance_bits.load(Ordering::Relaxed)),
            observed_imbalance: f64::from_bits(
                self.observed_imbalance_bits.load(Ordering::Relaxed),
            ),
            cycles_to_converge: (cycles != UNSET).then_some(cycles),
        }
    }
}

impl<M, P> std::fmt::Debug for MigrationCoordinator<M, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigrationCoordinator")
            .field("stats", &self.stats())
            .field("in_flight", &self.in_flight())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    type Coord = MigrationCoordinator<Vec<String>, String>;

    #[test]
    fn happy_path_hands_the_payload_over() {
        let c = Arc::new(Coord::new());
        let id = c.request(0, 1, vec!["R1".into()]);
        assert_eq!(c.in_flight(), 1);

        let req = c.begin_next().expect("one pending request");
        assert_eq!(req.id, id);
        assert_eq!((req.from, req.to), (0, 1));
        assert_eq!(req.meta, vec!["R1".to_string()]);
        assert!(c.begin_next().is_none(), "queue drained");

        // Source side, from another thread (as in the real topology).
        let c2 = c.clone();
        let source = thread::spawn(move || {
            let req = c2.ticket(id).expect("ticket resolvable by id");
            assert_eq!(req.meta, vec!["R1".to_string()]);
            assert!(c2.deposit(id, "state".into()), "deposit commits");
        });
        let payload = c.await_deposit(id, Duration::from_secs(5)).expect("deposited");
        source.join().unwrap();
        assert_eq!(payload, "state");

        c.post_install(1, id, payload);
        assert!(c.take_installs(0).is_empty(), "wrong task sees nothing");
        assert_eq!(c.take_installs(1), vec![(id, "state".to_string())]);
        assert!(c.take_installs(1).is_empty(), "mailbox drained");
        assert_eq!(c.in_flight(), 0);

        c.note_completed(Duration::from_millis(3));
        let stats = c.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.aborted, 0);
        assert!(stats.last_pause_ms >= 3.0);
        assert!(stats.max_pause_ms >= stats.last_pause_ms);
    }

    #[test]
    fn timeout_aborts_and_refuses_the_late_deposit() {
        let c = Coord::new();
        let id = c.request(2, 3, vec![]);
        let _ = c.begin_next().unwrap();
        assert!(c.await_deposit(id, Duration::from_millis(20)).is_none());
        assert_eq!(c.stats().aborted, 1);
        assert!(!c.deposit(id, "late".into()), "late deposit is refused");
        assert_eq!(c.in_flight(), 0, "aborted tickets are not in flight");
        assert!(c.take_installs(3).is_empty());
    }

    #[test]
    fn ticket_lifecycle_lands_in_the_flight_recorder() {
        let recorder = Arc::new(FlightRecorder::default());
        let c = Coord::new();
        c.set_recorder(recorder.clone());

        let id = c.request(0, 1, vec!["R1".to_string()]);
        let _ = c.begin_next().unwrap();
        assert!(c.deposit(id, "state".into()));
        let payload = c.await_deposit(id, Duration::from_secs(5)).unwrap();
        c.post_install(1, id, payload);

        // A second ticket that drains into a timeout.
        let id2 = c.request(2, 3, vec![]);
        let _ = c.begin_next().unwrap();
        assert!(c.await_deposit(id2, Duration::from_millis(10)).is_none());

        for kind in [
            FlightKind::MigrationRequested,
            FlightKind::MigrationDraining,
            FlightKind::MigrationDeposited,
            FlightKind::MigrationCompleted,
            FlightKind::MigrationAborted,
        ] {
            assert!(
                !recorder.events_of(kind).is_empty(),
                "expected at least one {} event",
                kind.name()
            );
        }
        let requested = recorder.events_of(FlightKind::MigrationRequested);
        assert_eq!(requested.len(), 2);
        assert!(requested[0].detail.contains("task 0 -> task 1"), "{:?}", requested[0]);
        assert_eq!(requested[0].component, "elastic");
    }

    #[test]
    fn deposit_requires_a_draining_ticket() {
        let c = Coord::new();
        let id = c.request(0, 1, vec![]);
        assert!(!c.deposit(id, "early".into()), "pending tickets refuse deposits");
        assert!(!c.deposit(999, "ghost".into()), "unknown tickets refuse deposits");
        let _ = c.begin_next().unwrap();
        assert!(c.deposit(id, "ok".into()));
        assert!(!c.deposit(id, "twice".into()), "double deposit is refused");
    }

    #[test]
    fn decision_counters_and_convergence_are_tracked() {
        let c = Coord::new();
        let s = c.stats();
        assert!(s.post_imbalance.is_nan() && s.observed_imbalance.is_nan());
        assert_eq!(s.cycles_to_converge, None);
        c.note_observed_imbalance(3.5);
        c.note_decision(1.2);
        c.note_converged(4);
        c.note_converged(9); // first write wins
        let s = c.stats();
        assert_eq!(s.decisions, 1);
        assert_eq!(s.observed_imbalance, 3.5);
        assert_eq!(s.post_imbalance, 1.2);
        assert_eq!(s.cycles_to_converge, Some(4));
    }

    #[test]
    fn requests_are_served_in_order() {
        let c = Coord::new();
        let a = c.request(0, 1, vec![]);
        let b = c.request(1, 0, vec![]);
        assert_eq!(c.begin_next().unwrap().id, a);
        assert_eq!(c.begin_next().unwrap().id, b);
    }
}
