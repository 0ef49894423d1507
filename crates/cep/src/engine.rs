//! The standing-query runtime — one instance per Esper-bolt task in the
//! paper's topology.
//!
//! An [`Engine`] owns registered event types, compiled statements with
//! their window state, and the listeners that receive fired rows. It is a
//! single-threaded object by design: the paper runs *multiple engines in
//! parallel*, one per bolt task, each on its own executor thread
//! (Section 3.2); cross-engine parallelism lives in the DSPS layer, not
//! here.

use crate::error::CepError;
use crate::event::{Event, EventType, FieldValue};
use crate::parser::parse_statement;
use crate::plan::{compile, AggCall, CompiledStatement, JoinCache, OutputRow};
use crate::share::{
    self, AggSrc, ArrivalMemo, ArrivalScratch, ClusterInfo, SharedJoinShape, SharingReport,
    ThresholdIndex, WindowKey,
};
use crate::window::{InsertOutcome, SourceWindow, WindowDelta, WindowSpec};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Identifier of a registered statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatementId(pub u64);

/// Listener invoked with the rows a statement fired for one event.
pub type Listener = Box<dyn FnMut(StatementId, &[OutputRow]) + Send>;

/// One window in the engine's slot arena. Statements reference slots by
/// index; the sharing planner points several statement sources at one
/// slot when their window fingerprints match and their contents are
/// identical, so each arrival is inserted (and its panes folded) once per
/// distinct window instead of once per statement.
struct WindowSlot {
    /// The sharing fingerprint (stream, spec, groupwin field).
    key: WindowKey,
    window: SourceWindow,
    /// Referencing statement sources; 0 marks a free (tombstoned) slot.
    refs: usize,
    /// Outcome of the latest insert into this slot.
    last_outcome: InsertOutcome,
    /// Keyed hash indexes over this window — one per distinct join-key
    /// shape probing it as a threshold stream.
    tindexes: Vec<ThresholdIndex>,
}

impl WindowSlot {
    /// Frees the slot for reuse, dropping all window and cluster state.
    fn tombstone(&mut self) {
        self.refs = 0;
        self.window = SourceWindow::new(WindowSpec::LastEvent, None)
            .expect("lastevent windows are always valid");
        self.tindexes.clear();
    }
}

/// How a statement's evaluations are served: chosen once, when the
/// statement is planned, from the switches the engine was set up with.
enum Exec {
    /// A pane shape: O(1) from the accumulators of the pane the arrival's
    /// group is and (for three-source statements) the threshold index —
    /// shared with every statement reading the same slots. A single-source
    /// aggregate is the shape with no anchor and no threshold side.
    Join {
        shape: SharedJoinShape,
        /// Per aggregate call: which shared accumulator serves it.
        aggs: Vec<AggSrc>,
        /// Index into the threshold slot's `tindexes`; `Some` exactly
        /// when the shape has a threshold side.
        tindex: Option<usize>,
    },
    /// A single-source statement without aggregation over a non-batch
    /// window: the arrival alone, tested against the filters.
    Anchor,
    /// The full window rescan — the reference semantics.
    Rescan,
}

impl Exec {
    /// The profile's name for an evaluation served this way.
    fn path(&self) -> EvalPath {
        match self {
            Exec::Join { shape, .. } if shape.pane == 0 => EvalPath::Incremental,
            Exec::Join { .. } => EvalPath::Shared,
            Exec::Anchor => EvalPath::Anchor,
            Exec::Rescan => EvalPath::Rescan,
        }
    }
}

/// A registered statement with its runtime state.
struct Runtime {
    id: StatementId,
    compiled: CompiledStatement,
    /// Slot-arena indices, one per FROM source.
    slots: Vec<usize>,
    cache: JoinCache,
    /// The chosen evaluation path.
    exec: Exec,
    listener: Option<Listener>,
    fired: u64,
    /// Cumulative profiling counters; `Some` only while profiling is
    /// enabled (the hot path takes no timestamps otherwise).
    profile: Option<ProfileState>,
}

/// Number of log₂ eval-time histogram buckets: bucket *i* covers
/// `[2^i, 2^(i+1))` nanoseconds, matching the DSPS metrics layer's
/// `LatencyHistogram` so profiles merge losslessly downstream.
pub const PROFILE_BUCKETS: usize = 48;

/// The histogram bucket for an eval duration in nanoseconds (same shape
/// as the DSPS layer's `bucket_of`: floor(log2), saturating at the top).
fn profile_bucket(ns: u64) -> usize {
    ((63 - ns.max(1).leading_zeros()) as usize).min(PROFILE_BUCKETS - 1)
}

/// Which evaluation path a statement evaluation took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvalPath {
    Shared,
    Incremental,
    Anchor,
    Rescan,
}

/// Mutable per-statement profiling counters (lives inside `Runtime`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ProfileState {
    events_in: u64,
    evals: u64,
    firings: u64,
    rows_out: u64,
    eval_ns_sum: u64,
    eval_ns_buckets: [u64; PROFILE_BUCKETS],
    path_shared: u64,
    path_incremental: u64,
    path_anchor: u64,
    path_rescan: u64,
}

impl Default for ProfileState {
    fn default() -> Self {
        ProfileState {
            events_in: 0,
            evals: 0,
            firings: 0,
            rows_out: 0,
            eval_ns_sum: 0,
            eval_ns_buckets: [0; PROFILE_BUCKETS],
            path_shared: 0,
            path_incremental: 0,
            path_anchor: 0,
            path_rescan: 0,
        }
    }
}

impl ProfileState {
    fn record_eval(&mut self, elapsed_ns: u64, path: EvalPath) {
        self.evals += 1;
        self.eval_ns_sum += elapsed_ns;
        self.eval_ns_buckets[profile_bucket(elapsed_ns)] += 1;
        match path {
            EvalPath::Shared => self.path_shared += 1,
            EvalPath::Incremental => self.path_incremental += 1,
            EvalPath::Anchor => self.path_anchor += 1,
            EvalPath::Rescan => self.path_rescan += 1,
        }
    }
}

/// Snapshot of one statement's cumulative profile, returned by
/// [`Engine::profile`]. All counters run from the moment profiling was
/// (re-)enabled; `window_len` is a point-in-time gauge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatementProfile {
    /// The profiled statement.
    pub id: StatementId,
    /// Events delivered to this statement (inserted into its windows).
    pub events_in: u64,
    /// Evaluations run (events that triggered an evaluate, fired or not).
    pub evals: u64,
    /// Evaluations that produced ≥1 row (matches).
    pub firings: u64,
    /// Total rows pushed to the listener.
    pub rows_out: u64,
    /// Sum of eval wall-times, nanoseconds (exact mean = sum / evals).
    pub eval_ns_sum: u64,
    /// Log₂ eval wall-time histogram: bucket *i* counts evals in
    /// `[2^i, 2^(i+1))` ns (bucket 0 also absorbs sub-1 ns evals).
    pub eval_ns_buckets: [u64; PROFILE_BUCKETS],
    /// Evaluations served from a pane bank (a cluster of any size, one
    /// included).
    pub path_shared: u64,
    /// Evaluations of a single-source aggregate served from its own panes.
    pub path_incremental: u64,
    /// Evaluations served by the anchor fast path.
    pub path_anchor: u64,
    /// Evaluations that rescanned the full window state.
    pub path_rescan: u64,
    /// Current occupancy summed over the statement's source windows.
    pub window_len: usize,
}

/// Engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events accepted by [`Engine::send_event`] (including fed-back ones).
    pub events_in: u64,
    /// Total rows pushed to listeners.
    pub rows_out: u64,
    /// Statement firings (listener invocations with ≥1 row).
    pub firings: u64,
}

/// Maximum `INSERT INTO` feedback depth before the engine reports a cycle.
const MAX_FEEDBACK_DEPTH: usize = 16;

/// A handle returned by statement registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatementHandle {
    /// The registered statement's id.
    pub id: StatementId,
}

/// A migrated slice of one stream's window state: the rows (timestamp +
/// schema-ordered field values) of every event whose partition field
/// matched the migrating key set. Plain data by construction — no window
/// or engine internals — so a handoff can cross thread, process or wire
/// boundaries; the receiving engine revalidates each row against its own
/// registered schema on [`Engine::absorb_partition`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionState {
    /// The stream the rows belong to.
    pub stream: String,
    /// `(timestamp_ms, field values in schema order)` per shipped event,
    /// in timestamp order.
    pub rows: Vec<(u64, Vec<FieldValue>)>,
}

impl PartitionState {
    /// Number of shipped events.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing matched at collection time.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Everything the engine knows about one stream, found with one lookup
/// per arrival.
struct Stream {
    ty: Arc<EventType>,
    /// Indices into `statements` subscribed to the stream, each with the
    /// FROM positions the stream feeds.
    subscribers: Vec<(usize, Vec<usize>)>,
    /// Live slot indices fed by the stream.
    slots: Vec<usize>,
}

/// The CEP engine.
pub struct Engine {
    /// Registered streams by name.
    streams: HashMap<String, Stream>,
    statements: Vec<Runtime>,
    /// The window-slot arena; statements hold indices into it.
    slots: Vec<WindowSlot>,
    /// Per-arrival scratch space of [`Engine::send_event`].
    arrival: ArrivalScratch,
    /// What an insert pushed out of a window, dropped at the next insert.
    delta: WindowDelta,
    next_id: u64,
    stats: EngineStats,
    /// Whether single-source aggregates over their panes and the anchor
    /// fast path serve eligible statements instead of a window rescan.
    /// Fixed while a statement stands.
    incremental_enabled: bool,
    /// Whether the install-time sharing planner may merge compatible
    /// windows and serve Listing-1-family statements from bank/index state.
    /// Fixed while a statement stands.
    sharing_enabled: bool,
    /// Whether per-statement profiles are collected (off by default: the
    /// hot path then takes no timestamps and touches no extra counters).
    profiling_enabled: bool,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("streams", &self.streams.len())
            .field("statements", &self.statements.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Engine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Engine {
            streams: HashMap::new(),
            statements: Vec::new(),
            slots: Vec::new(),
            arrival: ArrivalScratch::default(),
            delta: WindowDelta::new(),
            next_id: 0,
            stats: EngineStats::default(),
            incremental_enabled: true,
            sharing_enabled: true,
            profiling_enabled: false,
        }
    }

    /// Registers an event type (a stream). Re-registering the identical
    /// schema is a no-op; a different schema under the same name fails.
    pub fn register_type(&mut self, ty: EventType) -> Result<(), CepError> {
        match self.streams.get(ty.name()) {
            Some(existing) if *existing.ty == ty => Ok(()),
            Some(_) => Err(CepError::TypeConflict(ty.name().to_string())),
            None => {
                self.add_stream(ty);
                Ok(())
            }
        }
    }

    fn add_stream(&mut self, ty: EventType) {
        let stream = Stream { ty: Arc::new(ty), subscribers: Vec::new(), slots: Vec::new() };
        self.streams.insert(stream.ty.name().to_string(), stream);
    }

    /// The registered type for a stream.
    pub fn event_type(&self, stream: &str) -> Option<&Arc<EventType>> {
        self.streams.get(stream).map(|s| &s.ty)
    }

    /// Compiles and registers an EPL statement with a listener.
    pub fn create_statement(
        &mut self,
        epl: &str,
        listener: Listener,
    ) -> Result<StatementHandle, CepError> {
        self.create_statement_inner(epl, Some(listener))
    }

    /// Compiles and registers a statement without a listener — useful for
    /// pure `INSERT INTO` plumbing rules.
    pub fn create_statement_silent(&mut self, epl: &str) -> Result<StatementHandle, CepError> {
        self.create_statement_inner(epl, None)
    }

    fn create_statement_inner(
        &mut self,
        epl: &str,
        listener: Option<Listener>,
    ) -> Result<StatementHandle, CepError> {
        let stmt = parse_statement(epl)?;
        let compiled = compile(&stmt, epl, |stream| self.event_type(stream))?;
        // INSERT INTO target must be a registered type whose schema the
        // projection can populate; the type is created on first need.
        if let Some(target) = &compiled.insert_into {
            if !self.streams.contains_key(target) {
                // Derive the output event type from the projection columns.
                let fields = compiled
                    .columns
                    .iter()
                    .map(|c| (c.clone(), crate::event::FieldType::Float))
                    .collect::<Vec<_>>();
                // Column types are not statically known for arbitrary
                // expressions; INSERT INTO therefore requires explicit
                // pre-registration for non-numeric outputs.
                self.add_stream(EventType::new(target.clone(), fields)?);
            }
        }
        // Window planning: with sharing on, attach each source to an
        // existing fingerprint-identical slot when doing so is invisible —
        // the slot must be pristine (never written), so both statements
        // observe exactly the window history they would have privately.
        // Non-pristine candidates stay private for the statement's life.
        let mut slot_ids = Vec::with_capacity(compiled.sources.len());
        for src in &compiled.sources {
            let key = WindowKey::of(src);
            let found = if self.sharing_enabled {
                self.slots
                    .iter()
                    .position(|sl| sl.refs > 0 && sl.key == key && sl.window.version() == 0)
            } else {
                None
            };
            let sid = match found {
                Some(sid) => {
                    self.slots[sid].refs += 1;
                    sid
                }
                None => push_slot(&mut self.slots, key, src.make_window()?),
            };
            slot_ids.push(sid);
        }
        let id = StatementId(self.next_id);
        self.next_id += 1;
        let cache = JoinCache::for_statement(&compiled);
        let exec = self.plan_exec(&compiled, &slot_ids)?;
        self.statements.push(Runtime {
            id,
            compiled,
            slots: slot_ids,
            cache,
            exec,
            listener,
            fired: 0,
            profile: self.profiling_enabled.then(ProfileState::default),
        });
        self.rebuild_routing();
        Ok(StatementHandle { id })
    }

    /// Chooses a statement's evaluation path from the switches, building
    /// whatever state the path needs. With sharing on, every statement of
    /// the Listing-1 family is served from its pane's bank, whether or not
    /// another statement shares it; with the incremental path on, so is a
    /// single-source aggregate over its panes, and a single-source filter
    /// over a non-batch window reads the arrival alone. A batch window
    /// releases a whole batch on every arrival it evaluates, so a filter
    /// over one rescans.
    fn plan_exec(
        &mut self,
        compiled: &CompiledStatement,
        slots: &[usize],
    ) -> Result<Exec, CepError> {
        let shape = share::shared_join_shape(compiled).filter(|shape| {
            if shape.pane == 0 {
                self.incremental_enabled
            } else {
                self.sharing_enabled
            }
        });
        Ok(if let Some(shape) = shape {
            let (aggs, tindex) =
                ensure_join_state(&mut self.slots, slots, &shape, &compiled.agg_calls)?;
            Exec::Join { shape, aggs, tindex }
        } else if self.incremental_enabled
            && compiled.anchor_fast_eligible()
            && !compiled.sources[0].window.is_batch()
        {
            Exec::Anchor
        } else {
            Exec::Rescan
        })
    }

    /// Removes a statement (dynamic rule management). Its listener is
    /// dropped; windows it shared live on for the remaining cluster
    /// members, windows it owned alone are freed.
    pub fn remove_statement(&mut self, id: StatementId) -> Result<(), CepError> {
        let idx = self
            .statements
            .iter()
            .position(|r| r.id == id)
            .ok_or_else(|| CepError::Semantic { reason: format!("no statement {id:?}") })?;
        let rt = self.statements.remove(idx);
        for &sid in &rt.slots {
            let slot = &mut self.slots[sid];
            slot.refs -= 1;
            if slot.refs == 0 {
                slot.tombstone();
            }
        }
        self.rebuild_routing();
        // Shared bank/index positions are allocated in statement order;
        // replan so surviving members keep consistent unions.
        self.replan_exec()
    }

    /// Rebuilds every stream's subscriber and slot lists. Statements and
    /// slots only ever name streams that compiled, i.e. registered ones.
    fn rebuild_routing(&mut self) {
        for stream in self.streams.values_mut() {
            stream.subscribers.clear();
            stream.slots.clear();
        }
        for (i, r) in self.statements.iter().enumerate() {
            for (pos, src) in r.compiled.sources.iter().enumerate() {
                let stream = self.streams.get_mut(&src.stream).expect("compiled against it");
                match stream.subscribers.last_mut() {
                    Some((last, fed)) if *last == i => fed.push(pos),
                    _ => stream.subscribers.push((i, vec![pos])),
                }
            }
        }
        for (sid, slot) in self.slots.iter().enumerate() {
            if slot.refs > 0 {
                let stream = self.streams.get_mut(&slot.key.stream).expect("compiled against it");
                stream.slots.push(sid);
            }
        }
    }

    /// Re-plans every statement after a removal or a partition move,
    /// rebuilding pane aggregates and threshold indexes from the live
    /// windows.
    fn replan_exec(&mut self) -> Result<(), CepError> {
        for slot in &mut self.slots {
            slot.window.untrack();
            slot.tindexes.clear();
        }
        let mut statements = std::mem::take(&mut self.statements);
        let result = statements.iter_mut().try_for_each(|rt| {
            rt.exec = self.plan_exec(&rt.compiled, &rt.slots)?;
            Ok(())
        });
        self.statements = statements;
        result
    }

    /// Number of registered statements.
    pub fn statement_count(&self) -> usize {
        self.statements.len()
    }

    /// How many times a statement has fired.
    pub fn fired_count(&self, id: StatementId) -> Option<u64> {
        self.statements.iter().find(|r| r.id == id).map(|r| r.fired)
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Ablation switch: enables/disables incremental evaluation (a
    /// single-source aggregate served from its panes' accumulators, and
    /// the anchor fast path). Disabled, those statements rescan the full
    /// window state — kept selectable so benchmarks can quantify the
    /// difference and the differential tests can compare both.
    ///
    /// Set on an engine holding no statement: a statement's path is
    /// chosen when it is created, so changing the value while one stands
    /// is an `Err` that changes nothing. Setting the current value is `Ok`.
    pub fn set_incremental_enabled(&mut self, enabled: bool) -> Result<(), CepError> {
        self.check_switch("incremental", self.incremental_enabled, enabled)?;
        self.incremental_enabled = enabled;
        Ok(())
    }

    /// Whether the incremental evaluation path is enabled.
    pub fn incremental_enabled(&self) -> bool {
        self.incremental_enabled
    }

    /// Ablation switch: enables/disables the sharing planner (window
    /// slots shared between statements, and Listing-1-family statements
    /// served from pane banks and threshold indexes). Set on an engine
    /// holding no statement, as [`Engine::set_incremental_enabled`] is.
    pub fn set_sharing_enabled(&mut self, enabled: bool) -> Result<(), CepError> {
        self.check_switch("sharing", self.sharing_enabled, enabled)?;
        self.sharing_enabled = enabled;
        Ok(())
    }

    /// Whether the sharing planner is enabled.
    pub fn sharing_enabled(&self) -> bool {
        self.sharing_enabled
    }

    /// Refuses to change an evaluation switch while a statement stands.
    fn check_switch(&self, switch: &str, current: bool, wanted: bool) -> Result<(), CepError> {
        if current == wanted || self.statements.is_empty() {
            return Ok(());
        }
        Err(CepError::Semantic {
            reason: format!(
                "the {switch} switch is set before the first statement: {} statements stand",
                self.statements.len()
            ),
        })
    }

    /// The chosen sharing plan: shared vs private window counts and the
    /// clusters with their bank/index occupancy.
    pub fn sharing_report(&self) -> SharingReport {
        let shared_windows = self.slots.iter().filter(|s| s.refs > 1).count();
        let private_windows = self.slots.iter().filter(|s| s.refs == 1).count();
        /// Pane slot and, for three-source statements, the threshold slot
        /// and index.
        type ClusterKey = (usize, Option<(usize, usize)>);
        let mut clusters: Vec<(ClusterKey, ClusterInfo)> = Vec::new();
        let mut shared_statements = 0;
        for rt in &self.statements {
            let tindex = match &rt.exec {
                // A single-source pane is reported as the incremental path.
                Exec::Join { shape, tindex, .. } if shape.pane == 1 => tindex,
                _ => continue,
            };
            shared_statements += 1;
            let key = (rt.slots[1], tindex.map(|t| (rt.slots[2], t)));
            let info = match clusters.iter_mut().find(|(k, _)| *k == key) {
                Some((_, info)) => info,
                None => {
                    let pane = &self.slots[rt.slots[1]].window;
                    let threshold_entries =
                        key.1.map_or(0, |(s2, t)| self.slots[s2].tindexes[t].entry_count());
                    clusters.push((
                        key,
                        ClusterInfo {
                            statements: Vec::new(),
                            bank_fields: pane.tracked_fields().len(),
                            threshold_entries,
                            bank_groups: pane.group_count(),
                        },
                    ));
                    &mut clusters.last_mut().expect("just pushed").1
                }
            };
            info.statements.push(rt.id);
        }
        SharingReport {
            shared_windows,
            private_windows,
            shared_statements,
            clusters: clusters.into_iter().map(|(_, info)| info).collect(),
        }
    }

    /// Enables/disables per-statement profiling. Off (the default) the
    /// event hot path takes no timestamps; on, every evaluation records
    /// its wall-time into a log₂ histogram plus path and rate counters.
    /// Re-enabling resets all profile counters to zero.
    pub fn set_profiling_enabled(&mut self, enabled: bool) {
        self.profiling_enabled = enabled;
        for rt in &mut self.statements {
            rt.profile = enabled.then(ProfileState::default);
        }
    }

    /// Whether per-statement profiling is enabled.
    pub fn profiling_enabled(&self) -> bool {
        self.profiling_enabled
    }

    /// Cumulative per-statement profiles, in statement registration
    /// order. Empty unless [`Engine::set_profiling_enabled`] is on.
    pub fn profile(&self) -> Vec<StatementProfile> {
        self.statements
            .iter()
            .filter_map(|rt| {
                rt.profile.as_ref().map(|p| StatementProfile {
                    id: rt.id,
                    events_in: p.events_in,
                    evals: p.evals,
                    firings: p.firings,
                    rows_out: p.rows_out,
                    eval_ns_sum: p.eval_ns_sum,
                    eval_ns_buckets: p.eval_ns_buckets,
                    path_shared: p.path_shared,
                    path_incremental: p.path_incremental,
                    path_anchor: p.path_anchor,
                    path_rescan: p.path_rescan,
                    window_len: rt.slots.iter().map(|&sid| self.slots[sid].window.len()).sum(),
                })
            })
            .collect()
    }

    /// Builds an event for a registered stream from field pairs.
    pub fn make_event(
        &self,
        stream: &str,
        timestamp_ms: u64,
        pairs: &[(&str, FieldValue)],
    ) -> Result<Event, CepError> {
        let ty = self
            .event_type(stream)
            .ok_or_else(|| CepError::UnknownStream(stream.to_string()))?;
        Event::from_pairs(ty, timestamp_ms, pairs)
    }

    /// Sends an event into the engine, running every subscribed statement
    /// and following `INSERT INTO` feedback.
    pub fn send_event(&mut self, event: Event) -> Result<(), CepError> {
        self.send_event_depth(event, 0)
    }

    fn send_event_depth(&mut self, event: Event, depth: usize) -> Result<(), CepError> {
        if depth >= MAX_FEEDBACK_DEPTH {
            return Err(CepError::FeedbackCycle { stream: event.event_type().to_string() });
        }
        let Engine { streams, statements, slots, arrival, delta, stats, .. } = self;
        let Some(stream) = streams.get(event.event_type()) else {
            return Err(CepError::UnknownStream(event.event_type().to_string()));
        };
        stats.events_in += 1;
        arrival.reset();

        // Phase 1: insert into every live slot fed by this stream — once
        // per distinct window, however many statements read it. A pane
        // window folds the change into its group's aggregates in the same
        // visit and remembers the pane, which is the arrival's group in
        // phase 2; the arrival's group key is derived once per group field,
        // however many windows group by it. The outcome stays on the slot.
        for &sid in &stream.slots {
            let slot = &mut slots[sid];
            let key = slot.window.group_field().map(|field| arrival.field_key(&event, field));
            slot.last_outcome = slot.window.insert_keyed(&event, key, delta)?;
            // A threshold window is a keepall: the arrival is all it gains.
            for ti in &mut slot.tindexes {
                ti.insert(&event)?;
            }
        }

        // Phase 2: run every subscribed statement against the updated
        // slots. Inserting all windows before any evaluation is
        // observationally equivalent to the per-statement interleaving:
        // statements only read their *own* slots, each of which received
        // exactly this one arrival since the last evaluation.
        let mut fed_back: Vec<Event> = Vec::new();
        {
            let slots = &*slots;
            let mut memo = ArrivalMemo::new(&event, arrival);
            for (idx, fed) in &stream.subscribers {
                let rt = &mut statements[*idx];
                if let Some(p) = rt.profile.as_mut() {
                    // Counted once per arrival, however many of the
                    // statement's sources (or cluster siblings) the event
                    // reached — profiles stay comparable across plans.
                    p.events_in += 1;
                }
                if !fed.iter().any(|&pos| slots[rt.slots[pos]].last_outcome.evaluate) {
                    continue;
                }
                let t0 = rt.profile.is_some().then(Instant::now);
                let rows = match &rt.exec {
                    Exec::Join { shape, aggs, tindex } => share::evaluate_shared_join(
                        &rt.compiled,
                        shape,
                        aggs,
                        &slots[rt.slots[0]].window,
                        &slots[rt.slots[shape.pane]].window,
                        tindex.map(|t| &slots[rt.slots[2]].tindexes[t]),
                        fed[0] != 0,
                        &mut memo,
                    )?,
                    Exec::Anchor => rt.compiled.evaluate_anchor(&event)?,
                    Exec::Rescan => {
                        // A released batch is evaluated whole, with no anchor.
                        let batch_release = fed.iter().any(|&pos| {
                            let slot = &slots[rt.slots[pos]];
                            slot.last_outcome.evaluate && slot.window.spec().is_batch()
                        });
                        let anchor = if batch_release { None } else { Some(&event) };
                        let windows: Vec<&SourceWindow> =
                            rt.slots.iter().map(|&sid| &slots[sid].window).collect();
                        rt.compiled.evaluate(&windows, anchor, &mut rt.cache)?
                    }
                };
                if let (Some(t0), Some(p)) = (t0, rt.profile.as_mut()) {
                    p.record_eval(t0.elapsed().as_nanos() as u64, rt.exec.path());
                }
                if rows.is_empty() {
                    continue;
                }
                rt.fired += 1;
                stats.firings += 1;
                stats.rows_out += rows.len() as u64;
                if let Some(p) = rt.profile.as_mut() {
                    p.firings += 1;
                    p.rows_out += rows.len() as u64;
                }
                if let Some(listener) = &mut rt.listener {
                    listener(rt.id, &rows);
                }
                if let Some(target) = &rt.compiled.insert_into {
                    let ty = &streams
                        .get(target)
                        .ok_or_else(|| CepError::UnknownStream(target.clone()))?
                        .ty;
                    for row in &rows {
                        let pairs: Vec<(&str, FieldValue)> = row
                            .columns()
                            .iter()
                            .map(|c| c.as_str())
                            .zip(row.values().iter().cloned())
                            .collect();
                        fed_back.push(Event::from_pairs(ty, event.timestamp_ms(), &pairs)?);
                    }
                }
            }
        }
        for e in fed_back {
            self.send_event_depth(e, depth + 1)?;
        }
        Ok(())
    }

    /// Collects the migratable state of one stream's partition — every
    /// retained event (including batch-pending ones) whose `field` value
    /// is in `values` — without touching the engine. Non-destructive: the
    /// companion [`Engine::evict_partition`] removes the same events once
    /// the handoff is safely deposited, so an aborted migration leaves the
    /// source intact.
    ///
    /// Several slots on one stream hold *suffixes* of the same arrival
    /// sequence (a shorter window retains a subset of a longer one), so
    /// per matching key the longest per-slot sequence is shipped; the
    /// destination re-inserts under each of its own windows' specs, which
    /// re-derive their own suffixes. Rows come back merged across keys in
    /// timestamp order.
    pub fn collect_partition(
        &self,
        stream: &str,
        field: &str,
        values: &[FieldValue],
    ) -> Result<PartitionState, CepError> {
        let entry = self
            .streams
            .get(stream)
            .ok_or_else(|| CepError::UnknownStream(stream.to_string()))?;
        let fidx = entry.ty.index_of(field).ok_or_else(|| CepError::UnknownField {
            field: field.to_string(),
            context: format!("event type {stream}"),
        })?;
        let keys: std::collections::HashSet<crate::event::JoinKey> =
            values.iter().map(FieldValue::join_key).collect();
        let mut best: HashMap<crate::event::JoinKey, Vec<&Event>> = HashMap::new();
        for &sid in &entry.slots {
            let mut per_key: HashMap<crate::event::JoinKey, Vec<&Event>> = HashMap::new();
            for e in self.slots[sid].window.iter_all() {
                let Some(v) = e.value_at(fidx) else { continue };
                let k = v.join_key();
                if keys.contains(&k) {
                    per_key.entry(k).or_default().push(e);
                }
            }
            for (k, seq) in per_key {
                let entry = best.entry(k).or_default();
                if seq.len() > entry.len() {
                    *entry = seq;
                }
            }
        }
        // Deterministic key order (the caller's `values` order), then a
        // stable timestamp sort to approximate global arrival order —
        // exact within each key, which is all grouped windows and
        // order-insensitive aggregates observe.
        let mut rows: Vec<(u64, Vec<FieldValue>)> = Vec::new();
        let mut seen: std::collections::HashSet<crate::event::JoinKey> =
            std::collections::HashSet::new();
        for v in values {
            let k = v.join_key();
            if !seen.insert(k.clone()) {
                continue;
            }
            if let Some(seq) = best.get(&k) {
                rows.extend(seq.iter().map(|e| (e.timestamp_ms(), e.values().to_vec())));
            }
        }
        rows.sort_by_key(|(ts, _)| *ts);
        Ok(PartitionState { stream: stream.to_string(), rows })
    }

    /// Destructively removes a stream partition's events from every
    /// window (the post-deposit half of a migration; call
    /// [`Engine::collect_partition`] first). Returns how many events were
    /// removed. Pane aggregates and threshold indexes are rebuilt from the
    /// surviving window contents, so remaining partitions evaluate exactly
    /// as before.
    pub fn evict_partition(
        &mut self,
        stream: &str,
        field: &str,
        values: &[FieldValue],
    ) -> Result<usize, CepError> {
        let entry = self
            .streams
            .get(stream)
            .ok_or_else(|| CepError::UnknownStream(stream.to_string()))?;
        let fidx = entry.ty.index_of(field).ok_or_else(|| CepError::UnknownField {
            field: field.to_string(),
            context: format!("event type {stream}"),
        })?;
        let keys: std::collections::HashSet<crate::event::JoinKey> =
            values.iter().map(FieldValue::join_key).collect();
        let mut removed = 0usize;
        for &sid in &entry.slots {
            removed += self.slots[sid].window.remove_matching(|e| {
                e.value_at(fidx).is_some_and(|v| keys.contains(&v.join_key()))
            });
        }
        if removed > 0 {
            self.replan_exec()?;
        }
        Ok(removed)
    }

    /// Installs a shipped partition into every window of its stream —
    /// the destination half of a migration. Each row is revalidated
    /// against the local schema and inserted *without* statement
    /// evaluation (the migrated history already fired at the source);
    /// pane aggregates and threshold indexes are then rebuilt so the next
    /// genuine arrival evaluates over the merged windows. Returns how many
    /// events were absorbed.
    pub fn absorb_partition(&mut self, state: &PartitionState) -> Result<usize, CepError> {
        let entry = self
            .streams
            .get(&state.stream)
            .ok_or_else(|| CepError::UnknownStream(state.stream.clone()))?;
        // One instance per row, shared by every slot it lands in.
        let events: Vec<Event> = state
            .rows
            .iter()
            .map(|(ts, values)| Event::new(&entry.ty, *ts, values.clone()))
            .collect::<Result<_, _>>()?;
        if entry.slots.is_empty() || events.is_empty() {
            return Ok(0);
        }
        for &sid in &entry.slots {
            for e in &events {
                self.slots[sid].window.insert(e)?;
            }
        }
        self.replan_exec()?;
        Ok(events.len())
    }

    /// Advances event time for every time window (evicting expired events)
    /// without sending an event.
    pub fn advance_time(&mut self, now_ms: u64) {
        for slot in self.slots.iter_mut().filter(|slot| slot.refs > 0) {
            slot.window.advance_time(now_ms);
        }
    }
}

/// Adds a slot holding `window` for one source to the arena, reusing a
/// tombstoned slot when one exists.
fn push_slot(slots: &mut Vec<WindowSlot>, key: WindowKey, window: SourceWindow) -> usize {
    let last_outcome = InsertOutcome { evaluate: false };
    let slot = WindowSlot { key, window, refs: 1, last_outcome, tindexes: Vec::new() };
    match slots.iter().position(|s| s.refs == 0) {
        Some(sid) => {
            slots[sid] = slot;
            sid
        }
        None => {
            slots.push(slot);
            slots.len() - 1
        }
    }
}

/// Ensures the statement's pane window aggregates and — when the shape
/// has a threshold side — a threshold index on its threshold slot cover
/// one statement's aggregate fields, rebuilding from window contents when
/// the unions widen over non-empty windows. Returns the statement's
/// resolved aggregate sources and the index position.
fn ensure_join_state(
    slots: &mut [WindowSlot],
    stmt_slots: &[usize],
    shape: &SharedJoinShape,
    agg_calls: &[AggCall],
) -> Result<(Vec<AggSrc>, Option<usize>), CepError> {
    let mut pane_pos: HashMap<usize, usize> = HashMap::new();
    {
        let pane = &mut slots[stmt_slots[shape.pane]].window;
        let mut widened = false;
        for &f in &shape.pane_agg_fields {
            let (pos, w) = pane.track_field(f);
            pane_pos.insert(f, pos);
            widened |= w;
        }
        if widened && !pane.is_empty() {
            pane.recompute_aggregates()?;
        }
    }
    let mut thr_pos: HashMap<usize, usize> = HashMap::new();
    let tindex = match &shape.threshold {
        None => None,
        Some(join) => {
            let WindowSlot { window, tindexes, .. } = &mut slots[stmt_slots[2]];
            let serves = |t: &ThresholdIndex| {
                t.key_fields == join.right_fields && t.probe_fields == join.left_fields
            };
            let tpos = match tindexes.iter().position(serves) {
                Some(p) => p,
                None => {
                    tindexes.push(ThresholdIndex::new(
                        join.right_fields.clone(),
                        join.left_fields.clone(),
                    ));
                    let p = tindexes.len() - 1;
                    if !window.is_empty() {
                        tindexes[p].rebuild(window)?;
                    }
                    p
                }
            };
            let ti = &mut tindexes[tpos];
            let mut widened = false;
            for &f in &join.agg_fields {
                let (pos, w) = ti.ensure_field(f);
                thr_pos.insert(f, pos);
                widened |= w;
            }
            if widened && !window.is_empty() {
                ti.rebuild(window)?;
            }
            Some(tpos)
        }
    };
    let aggs = agg_calls
        .iter()
        .map(|c| match c.arg {
            None => AggSrc::CountStar,
            Some((s, f)) if s == shape.pane => AggSrc::Pane(pane_pos[&f]),
            Some((2, f)) => AggSrc::Threshold(thr_pos[&f]),
            Some(_) => unreachable!("shape detection rejects other aggregate sources"),
        })
        .collect();
    Ok((aggs, tindex))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FieldType;
    use parking_lot::Mutex;

    fn bus_type() -> EventType {
        EventType::with_fields(
            "bus",
            &[
                ("vehicle", FieldType::Int),
                ("location", FieldType::Str),
                ("delay", FieldType::Float),
                ("hour", FieldType::Int),
                ("day", FieldType::Str),
            ],
        )
        .unwrap()
    }

    fn threshold_type() -> EventType {
        EventType::with_fields(
            "thresholdLocation",
            &[
                ("location", FieldType::Str),
                ("hour", FieldType::Int),
                ("day", FieldType::Str),
                ("attribute", FieldType::Float),
            ],
        )
        .unwrap()
    }

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.register_type(bus_type()).unwrap();
        e.register_type(threshold_type()).unwrap();
        e
    }

    fn capture() -> (Arc<Mutex<Vec<OutputRow>>>, Listener) {
        let sink: Arc<Mutex<Vec<OutputRow>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = sink.clone();
        let listener: Listener = Box::new(move |_, rows| s2.lock().extend(rows.iter().cloned()));
        (sink, listener)
    }

    fn bus_event(e: &Engine, ts: u64, vehicle: i64, loc: &str, delay: f64, hour: i64) -> Event {
        e.make_event(
            "bus",
            ts,
            &[
                ("vehicle", vehicle.into()),
                ("location", loc.into()),
                ("delay", delay.into()),
                ("hour", hour.into()),
                ("day", "weekday".into()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn simple_filter_statement_fires_per_matching_event() {
        let mut e = engine();
        let (sink, l) = capture();
        e.create_statement("SELECT vehicle, delay FROM bus WHERE delay > 60", l).unwrap();
        for (v, d) in [(1, 30.0), (2, 90.0), (3, 61.0), (4, 59.9)] {
            e.send_event(bus_event(&e, 0, v, "R1", d, 8)).unwrap();
        }
        let rows = sink.lock();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("vehicle").unwrap(), &FieldValue::Int(2));
        assert_eq!(rows[1].get("delay").unwrap(), &FieldValue::Float(61.0));
    }

    #[test]
    fn istream_semantics_do_not_refire_old_events() {
        // A length window holds old matching events; only the new arrival
        // may produce output.
        let mut e = engine();
        let (sink, l) = capture();
        e.create_statement("SELECT vehicle FROM bus.win:length(10) WHERE delay > 0", l)
            .unwrap();
        for v in 0..5 {
            e.send_event(bus_event(&e, v as u64, v, "R1", 10.0, 8)).unwrap();
        }
        assert_eq!(sink.lock().len(), 5, "one output per arrival, not per window row");
    }

    #[test]
    fn statements_probing_one_threshold_field_from_different_anchor_fields_do_not_share_a_probe() {
        // Both rules key the threshold stream by its `location` field, one
        // from the bus's location and one from its day: one arrival, two
        // probe keys. Sharing one index would hand the second rule the
        // first rule's entry.
        let mut e = engine();
        let rule = |anchor_field: &str| {
            format!(
                "SELECT bd2.location AS loc, avg(bd2.delay) AS mean_delay \
                 FROM bus.std:lastevent() AS bd, \
                      bus.std:groupwin(location).win:length(3) AS bd2, \
                      thresholdLocation.win:keepall() AS thresholds \
                 WHERE bd.{anchor_field} = thresholds.location AND bd.location = bd2.location \
                 GROUP BY bd2.location \
                 HAVING avg(bd2.delay) > avg(thresholds.attribute)"
            )
        };
        let (by_location, l1) = capture();
        let (by_day, l2) = capture();
        e.create_statement(&rule("location"), l1).unwrap();
        e.create_statement(&rule("day"), l2).unwrap();
        assert_eq!(e.sharing_report().shared_statements, 2, "both are bank-served");
        let tty = threshold_type();
        for (key, thr) in [("R1", 50.0), ("weekday", 500.0)] {
            let pairs = [
                ("location", key.into()),
                ("hour", 8i64.into()),
                ("day", "weekday".into()),
                ("attribute", thr.into()),
            ];
            e.send_event(Event::from_pairs(&tty, 0, &pairs).unwrap()).unwrap();
        }
        e.send_event(bus_event(&e, 1, 1, "R1", 100.0, 8)).unwrap();
        assert_eq!(by_location.lock().len(), 1, "100 > R1's 50");
        assert_eq!(by_day.lock().len(), 0, "100 is not > weekday's 500");
        e.send_event(bus_event(&e, 2, 1, "R1", 2000.0, 8)).unwrap();
        assert_eq!(by_location.lock().len(), 2);
        assert_eq!(by_day.lock().len(), 1, "avg 1050 > 500");
    }

    #[test]
    fn listing1_rule_fires_when_group_average_exceeds_threshold() {
        let mut e = engine();
        let (sink, l) = capture();
        e.create_statement(
            "SELECT bd2.location AS loc, avg(bd2.delay) AS mean_delay \
             FROM bus.std:lastevent() AS bd, \
                  bus.std:groupwin(location).win:length(3) AS bd2, \
                  thresholdLocation.win:keepall() AS thresholds \
             WHERE bd.hour = thresholds.hour AND bd.day = thresholds.day \
               AND bd.location = thresholds.location AND bd.location = bd2.location \
             GROUP BY bd2.location \
             HAVING avg(bd2.delay) > avg(thresholds.attribute)",
            l,
        )
        .unwrap();

        // Thresholds: R1 fires above 50, R2 above 500.
        let tty = threshold_type();
        for (loc, thr) in [("R1", 50.0), ("R2", 500.0)] {
            e.send_event(
                Event::from_pairs(
                    &tty,
                    0,
                    &[
                        ("location", loc.into()),
                        ("hour", 8i64.into()),
                        ("day", "weekday".into()),
                        ("attribute", thr.into()),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        }

        // R1: delays 40, 60, 80 → averages 40, 50, 60: fires on the third.
        e.send_event(bus_event(&e, 1, 1, "R1", 40.0, 8)).unwrap();
        assert_eq!(sink.lock().len(), 0);
        e.send_event(bus_event(&e, 2, 1, "R1", 60.0, 8)).unwrap();
        assert_eq!(sink.lock().len(), 0, "avg 50 is not > 50");
        e.send_event(bus_event(&e, 3, 1, "R1", 80.0, 8)).unwrap();
        {
            let rows = sink.lock();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].get("loc").unwrap(), &FieldValue::from("R1"));
            assert_eq!(rows[0].get("mean_delay").unwrap(), &FieldValue::Float(60.0));
        }

        // R2 has a huge threshold: same delays never fire.
        for (ts, d) in [(4, 100.0), (5, 200.0), (6, 300.0)] {
            e.send_event(bus_event(&e, ts, 2, "R2", d, 8)).unwrap();
        }
        assert_eq!(sink.lock().len(), 1);

        // Wrong hour: no threshold row joins, so no firing even with huge
        // delay.
        e.send_event(bus_event(&e, 7, 1, "R1", 9999.0, 3)).unwrap();
        assert_eq!(sink.lock().len(), 1);
    }

    #[test]
    fn sliding_window_recovers_after_congestion_passes() {
        let mut e = engine();
        let (sink, l) = capture();
        e.create_statement(
            "SELECT count(*) AS n FROM bus.std:groupwin(location).win:length(2) AS w \
             GROUP BY w.location HAVING avg(w.delay) > 100",
            l,
        )
        .unwrap();
        e.send_event(bus_event(&e, 1, 1, "R1", 200.0, 8)).unwrap();
        e.send_event(bus_event(&e, 2, 1, "R1", 200.0, 8)).unwrap();
        assert_eq!(sink.lock().len(), 2, "fires while averages stay high");
        // Low delays push the high ones out of the window.
        e.send_event(bus_event(&e, 3, 1, "R1", 0.0, 8)).unwrap();
        e.send_event(bus_event(&e, 4, 1, "R1", 0.0, 8)).unwrap();
        assert_eq!(sink.lock().len(), 2, "stops firing once the window cools down");
    }

    #[test]
    fn insert_into_feeds_downstream_rules() {
        let mut e = engine();
        // Pre-register the intermediate stream with the right schema.
        e.register_type(
            EventType::with_fields("delayed", &[("vehicle", FieldType::Int), ("delay", FieldType::Float)])
                .unwrap(),
        )
        .unwrap();
        e.create_statement_silent(
            "INSERT INTO delayed SELECT vehicle, delay FROM bus WHERE delay > 60",
        )
        .unwrap();
        let (sink, l) = capture();
        e.create_statement(
            "SELECT count(*) AS n FROM delayed.win:keepall() HAVING count(*) >= 2",
            l,
        )
        .unwrap();
        e.send_event(bus_event(&e, 1, 1, "R1", 100.0, 8)).unwrap();
        assert_eq!(sink.lock().len(), 0);
        e.send_event(bus_event(&e, 2, 2, "R1", 100.0, 8)).unwrap();
        let rows = sink.lock();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("n").unwrap(), &FieldValue::Float(2.0));
    }

    #[test]
    fn length_batch_emits_on_release_only() {
        let mut e = engine();
        let (sink, l) = capture();
        e.create_statement(
            "SELECT avg(delay) AS m FROM bus.win:length_batch(3)",
            l,
        )
        .unwrap();
        e.send_event(bus_event(&e, 1, 1, "R1", 10.0, 8)).unwrap();
        e.send_event(bus_event(&e, 2, 1, "R1", 20.0, 8)).unwrap();
        assert!(sink.lock().is_empty());
        e.send_event(bus_event(&e, 3, 1, "R1", 30.0, 8)).unwrap();
        let rows = sink.lock();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("m").unwrap(), &FieldValue::Float(20.0));
    }

    #[test]
    fn remove_statement_stops_firing() {
        let mut e = engine();
        let (sink, l) = capture();
        let h = e.create_statement("SELECT vehicle FROM bus WHERE delay > 0", l).unwrap();
        e.send_event(bus_event(&e, 1, 1, "R1", 1.0, 8)).unwrap();
        assert_eq!(sink.lock().len(), 1);
        e.remove_statement(h.id).unwrap();
        assert_eq!(e.statement_count(), 0);
        e.send_event(bus_event(&e, 2, 2, "R1", 1.0, 8)).unwrap();
        assert_eq!(sink.lock().len(), 1);
        assert!(e.remove_statement(h.id).is_err(), "double removal fails");
    }

    #[test]
    fn unknown_stream_and_bad_epl_rejected() {
        let mut e = engine();
        let (_, l) = capture();
        assert!(matches!(
            e.create_statement("SELECT * FROM nope", l),
            Err(CepError::UnknownStream(_))
        ));
        let (_, l) = capture();
        assert!(e.create_statement("SELECT FROM bus", l).is_err());
        let (_, l) = capture();
        assert!(matches!(
            e.create_statement("SELECT missing_field FROM bus", l),
            Err(CepError::UnknownField { .. })
        ));
        // Sending an event of an unregistered type.
        let other =
            EventType::with_fields("ghost", &[("x", FieldType::Int)]).unwrap();
        let ev = Event::new(&other, 0, vec![1i64.into()]).unwrap();
        assert!(matches!(e.send_event(ev), Err(CepError::UnknownStream(_))));
    }

    #[test]
    fn feedback_cycle_detected() {
        let mut e = Engine::new();
        e.register_type(EventType::with_fields("loopy", &[("x", FieldType::Float)]).unwrap())
            .unwrap();
        e.create_statement_silent("INSERT INTO loopy SELECT x FROM loopy WHERE x > 0")
            .unwrap();
        let ty = e.event_type("loopy").unwrap().clone();
        let ev = Event::new(&ty, 0, vec![1.0.into()]).unwrap();
        assert!(matches!(
            e.send_event(ev),
            Err(CepError::FeedbackCycle { .. })
        ));
    }

    #[test]
    fn time_window_with_advance_time() {
        let mut e = engine();
        let (sink, l) = capture();
        e.create_statement(
            "SELECT count(*) AS n FROM bus.win:time(10) HAVING count(*) >= 2",
            l,
        )
        .unwrap();
        e.send_event(bus_event(&e, 1_000, 1, "R1", 1.0, 8)).unwrap();
        e.send_event(bus_event(&e, 2_000, 2, "R1", 1.0, 8)).unwrap();
        assert_eq!(sink.lock().len(), 1, "two events within 10s fire");
        // 50 seconds later the window is empty; a single event cannot fire.
        e.advance_time(52_000);
        e.send_event(bus_event(&e, 52_500, 3, "R1", 1.0, 8)).unwrap();
        assert_eq!(sink.lock().len(), 1);
    }

    #[test]
    fn stats_and_fired_counts() {
        let mut e = engine();
        let (_, l) = capture();
        let h = e.create_statement("SELECT vehicle FROM bus WHERE delay > 50", l).unwrap();
        for d in [10.0, 60.0, 70.0] {
            e.send_event(bus_event(&e, 0, 1, "R1", d, 8)).unwrap();
        }
        assert_eq!(e.stats().events_in, 3);
        assert_eq!(e.stats().rows_out, 2);
        assert_eq!(e.fired_count(h.id), Some(2));
    }

    #[test]
    fn duplicate_type_registration() {
        let mut e = engine();
        e.register_type(bus_type()).unwrap(); // identical: ok
        let conflicting =
            EventType::with_fields("bus", &[("other", FieldType::Int)]).unwrap();
        assert!(matches!(e.register_type(conflicting), Err(CepError::TypeConflict(_))));
    }

    #[test]
    fn incremental_and_rescan_paths_agree() {
        // The same grouped sliding-average statement, one engine per
        // evaluation path; every firing must match row-for-row.
        let epl = "SELECT w.location AS loc, avg(w.delay) AS m, count(*) AS n \
                   FROM bus.std:groupwin(location).win:length(3) AS w \
                   GROUP BY w.location HAVING avg(w.delay) > 20";
        let mut fast = engine();
        let mut slow = engine();
        slow.set_incremental_enabled(false).unwrap();
        let (fsink, fl) = capture();
        let (ssink, sl) = capture();
        fast.create_statement(epl, fl).unwrap();
        slow.create_statement(epl, sl).unwrap();
        for (ts, v, loc, d) in [
            (1u64, 1i64, "R1", 10.0),
            (2, 2, "R2", 50.0),
            (3, 3, "R1", 40.0),
            (4, 4, "R1", 90.0),
            (5, 5, "R2", 0.0),
            (6, 6, "R1", 5.0),
        ] {
            fast.send_event(bus_event(&fast, ts, v, loc, d, 8)).unwrap();
            slow.send_event(bus_event(&slow, ts, v, loc, d, 8)).unwrap();
        }
        assert_eq!(*fsink.lock(), *ssink.lock());
        assert!(!fsink.lock().is_empty(), "the scenario must actually fire");
    }

    #[test]
    fn evaluation_switches_are_set_before_the_first_statement() {
        let epl = "SELECT avg(delay) AS m FROM bus.win:length(3) HAVING count(*) >= 1";
        let mut e = engine();
        let (sink, l) = capture();
        let h = e.create_statement(epl, l).unwrap();
        e.send_event(bus_event(&e, 1, 1, "R1", 10.0, 8)).unwrap();
        // A standing statement keeps the path it was planned on.
        assert!(e.set_incremental_enabled(false).is_err());
        assert!(e.set_sharing_enabled(false).is_err());
        assert!(e.incremental_enabled() && e.sharing_enabled(), "a refused change changes nothing");
        // The current value is no change.
        e.set_incremental_enabled(true).unwrap();
        e.set_sharing_enabled(true).unwrap();
        e.send_event(bus_event(&e, 2, 2, "R1", 20.0, 8)).unwrap();
        let means = |sink: &Mutex<Vec<OutputRow>>| -> Vec<f64> {
            sink.lock().iter().map(|r| r.get("m").unwrap().as_f64().unwrap()).collect()
        };
        assert_eq!(means(&sink), vec![10.0, 15.0], "outputs as if nothing was asked");
        // With every statement removed, the switches are free again.
        e.remove_statement(h.id).unwrap();
        e.set_incremental_enabled(false).unwrap();
        e.set_sharing_enabled(false).unwrap();
        e.set_profiling_enabled(true);
        let (sink, l) = capture();
        e.create_statement(epl, l).unwrap();
        e.send_event(bus_event(&e, 3, 3, "R1", 30.0, 8)).unwrap();
        assert_eq!(means(&sink), vec![30.0], "the new statement starts on fresh windows");
        assert_eq!(e.profile()[0].path_rescan, 1, "and on the path the switches now name");
    }

    #[test]
    fn profiling_off_by_default_and_opt_in() {
        let mut e = engine();
        let (_, l) = capture();
        e.create_statement("SELECT vehicle FROM bus WHERE delay > 50", l).unwrap();
        e.send_event(bus_event(&e, 0, 1, "R1", 60.0, 8)).unwrap();
        assert!(e.profile().is_empty(), "no profiles unless enabled");
        assert!(!e.profiling_enabled());

        e.set_profiling_enabled(true);
        for d in [10.0, 60.0, 70.0] {
            e.send_event(bus_event(&e, 0, 1, "R1", d, 8)).unwrap();
        }
        let profiles = e.profile();
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.events_in, 3);
        assert_eq!(p.evals, 3);
        assert_eq!(p.firings, 2);
        assert_eq!(p.rows_out, 2);
        assert_eq!(p.evals, p.eval_ns_buckets.iter().sum::<u64>());
        assert_eq!(
            p.evals,
            p.path_shared + p.path_incremental + p.path_anchor + p.path_rescan
        );
        // A filter-only statement takes the anchor fast path.
        assert_eq!(p.path_anchor, 3);

        // Disabling clears; re-enabling restarts from zero.
        e.set_profiling_enabled(false);
        assert!(e.profile().is_empty());
        e.set_profiling_enabled(true);
        assert_eq!(e.profile()[0].events_in, 0);
    }

    #[test]
    fn profile_reports_paths_and_window_occupancy() {
        let epl = "SELECT w.location AS loc, avg(w.delay) AS m \
                   FROM bus.std:groupwin(location).win:length(3) AS w \
                   GROUP BY w.location HAVING avg(w.delay) > 0";
        let mut e = engine();
        e.set_profiling_enabled(true);
        let (_, l) = capture();
        e.create_statement(epl, l).unwrap();
        for ts in 0..5u64 {
            e.send_event(bus_event(&e, ts, ts as i64, "R1", 10.0, 8)).unwrap();
        }
        let p = &e.profile()[0];
        assert_eq!(p.path_incremental, 5, "grouped aggregate takes the incremental path");
        assert_eq!(p.window_len, 3, "length-3 window holds three of five events");
        assert!(p.eval_ns_sum > 0, "wall time accumulates");

        // An engine set up with the incremental path off rescans.
        let mut rescan = engine();
        rescan.set_incremental_enabled(false).unwrap();
        rescan.set_profiling_enabled(true);
        let (_, l) = capture();
        rescan.create_statement(epl, l).unwrap();
        rescan.send_event(bus_event(&rescan, 9, 9, "R1", 10.0, 8)).unwrap();
        assert_eq!(rescan.profile()[0].path_rescan, 1);
    }

    #[test]
    fn profile_bucket_matches_log2_contract() {
        assert_eq!(profile_bucket(0), 0, "sub-ns evals land in bucket 0");
        assert_eq!(profile_bucket(1), 0);
        assert_eq!(profile_bucket(2), 1);
        assert_eq!(profile_bucket(3), 1);
        assert_eq!(profile_bucket(4), 2);
        assert_eq!(profile_bucket(u64::MAX), PROFILE_BUCKETS - 1);
    }

    const LISTING1_EPL: &str = "SELECT bd2.location AS loc, avg(bd2.delay) AS mean_delay \
         FROM bus.std:lastevent() AS bd, \
              bus.std:groupwin(location).win:length(3) AS bd2, \
              thresholdLocation.win:keepall() AS thresholds \
         WHERE bd.hour = thresholds.hour AND bd.day = thresholds.day \
           AND bd.location = thresholds.location AND bd.location = bd2.location \
         GROUP BY bd2.location \
         HAVING avg(bd2.delay) > avg(thresholds.attribute)";

    fn threshold_event(ty: &EventType, loc: &str, thr: f64) -> Event {
        Event::from_pairs(
            ty,
            0,
            &[
                ("location", loc.into()),
                ("hour", 8i64.into()),
                ("day", "weekday".into()),
                ("attribute", thr.into()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn partition_migration_matches_never_migrated_run() {
        // Source serves R1+R2; R2 migrates mid-stream to a fresh engine.
        // A reference engine that saw the whole R2 history in place must
        // fire identically to the migrated destination.
        let mut source = engine();
        let mut dest = engine();
        let mut reference = engine();
        let (ssink, sl) = capture();
        let (dsink, dl) = capture();
        let (rsink, rl) = capture();
        source.create_statement(LISTING1_EPL, sl).unwrap();
        dest.create_statement(LISTING1_EPL, dl).unwrap();
        reference.create_statement(LISTING1_EPL, rl).unwrap();
        let tty = threshold_type();
        for (loc, thr) in [("R1", 50.0), ("R2", 30.0)] {
            source.send_event(threshold_event(&tty, loc, thr)).unwrap();
            if loc == "R2" {
                reference.send_event(threshold_event(&tty, loc, thr)).unwrap();
            }
        }
        // Pre-migration traffic; R2 stays at/below its threshold so far.
        for (ts, d) in [(1u64, 20.0), (2, 40.0)] {
            source.send_event(bus_event(&source, ts, 9, "R2", d, 8)).unwrap();
            reference.send_event(bus_event(&reference, ts, 9, "R2", d, 8)).unwrap();
        }
        source.send_event(bus_event(&source, 3, 1, "R1", 60.0, 8)).unwrap();
        assert_eq!(ssink.lock().len(), 1, "R1 fired at the source");
        assert_eq!(rsink.lock().len(), 0);

        // Migrate R2: ship window + threshold state, evict, absorb.
        let vals = [FieldValue::from("R2")];
        let bus_state = source.collect_partition("bus", "location", &vals).unwrap();
        let thr_state =
            source.collect_partition("thresholdLocation", "location", &vals).unwrap();
        assert_eq!(bus_state.len(), 2, "both retained R2 bus events ship");
        assert_eq!(thr_state.len(), 1, "R2's threshold row ships");
        assert!(source.evict_partition("bus", "location", &vals).unwrap() >= 2);
        source.evict_partition("thresholdLocation", "location", &vals).unwrap();
        assert!(
            source.collect_partition("bus", "location", &vals).unwrap().is_empty(),
            "source state gone after eviction"
        );
        dest.absorb_partition(&bus_state).unwrap();
        dest.absorb_partition(&thr_state).unwrap();
        assert_eq!(dsink.lock().len(), 0, "absorption must not fire listeners");

        // Post-migration R2 traffic runs at the destination; firings must
        // match the engine that never migrated, row for row.
        for (ts, d) in [(4u64, 40.0), (5, 45.0)] {
            dest.send_event(bus_event(&dest, ts, 9, "R2", d, 8)).unwrap();
            reference.send_event(bus_event(&reference, ts, 9, "R2", d, 8)).unwrap();
        }
        assert_eq!(*dsink.lock(), *rsink.lock());
        assert!(!dsink.lock().is_empty(), "the scenario must actually fire");

        // The source keeps serving R1 undisturbed.
        source.send_event(bus_event(&source, 6, 1, "R1", 70.0, 8)).unwrap();
        assert_eq!(ssink.lock().len(), 2);
    }

    #[test]
    fn evict_partition_keeps_sibling_statements_consistent() {
        // Two same-shape statements share windows; evicting one location
        // must leave the survivors evaluating exactly like an engine that
        // never held the evicted location at all.
        let epl_lo = "SELECT w.location AS loc, avg(w.delay) AS m \
                      FROM bus.std:groupwin(location).win:length(3) AS w \
                      GROUP BY w.location HAVING avg(w.delay) > 20";
        let epl_hi = "SELECT w.location AS loc, avg(w.delay) AS m \
                      FROM bus.std:groupwin(location).win:length(3) AS w \
                      GROUP BY w.location HAVING avg(w.delay) > 40";
        let mut e = engine();
        let mut fresh = engine();
        let (sink_lo, l_lo) = capture();
        let (sink_hi, l_hi) = capture();
        let (fsink_lo, fl_lo) = capture();
        let (fsink_hi, fl_hi) = capture();
        e.create_statement(epl_lo, l_lo).unwrap();
        e.create_statement(epl_hi, l_hi).unwrap();
        fresh.create_statement(epl_lo, fl_lo).unwrap();
        fresh.create_statement(epl_hi, fl_hi).unwrap();
        for (ts, loc, d) in [(1u64, "R1", 100.0), (2, "R2", 30.0), (3, "R1", 100.0)] {
            e.send_event(bus_event(&e, ts, 1, loc, d, 8)).unwrap();
            if loc == "R2" {
                fresh.send_event(bus_event(&fresh, ts, 1, loc, d, 8)).unwrap();
            }
        }
        let pre_lo = sink_lo.lock().len();
        let pre_hi = sink_hi.lock().len();
        let fresh_pre_lo = fsink_lo.lock().len();
        let fresh_pre_hi = fsink_hi.lock().len();
        assert!(pre_lo >= 1, "R1 and R2 fired the low-threshold rule");
        let removed = e.evict_partition("bus", "location", &[FieldValue::from("R1")]).unwrap();
        assert_eq!(removed, 2, "both retained R1 events leave every shared window");
        // Post-eviction traffic must match the fresh engine exactly.
        for (ts, d) in [(4u64, 35.0), (5, 60.0)] {
            e.send_event(bus_event(&e, ts, 1, "R2", d, 8)).unwrap();
            fresh.send_event(bus_event(&fresh, ts, 1, "R2", d, 8)).unwrap();
        }
        assert_eq!(sink_lo.lock()[pre_lo..], fsink_lo.lock()[fresh_pre_lo..]);
        assert_eq!(sink_hi.lock()[pre_hi..], fsink_hi.lock()[fresh_pre_hi..]);
        assert!(!fsink_hi.lock().is_empty(), "the high rule must fire post-eviction");
    }

    #[test]
    fn collect_partition_validates_stream_and_field() {
        let e = engine();
        assert!(matches!(
            e.collect_partition("nope", "location", &[]),
            Err(CepError::UnknownStream(_))
        ));
        assert!(matches!(
            e.collect_partition("bus", "nope", &[]),
            Err(CepError::UnknownField { .. })
        ));
        // No statements installed: empty but well-formed state.
        let s = e.collect_partition("bus", "location", &[FieldValue::from("R1")]).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn incremental_advance_time_evicts_state() {
        let mut e = engine();
        let (sink, l) = capture();
        e.create_statement(
            "SELECT count(*) AS n FROM bus.win:time(10) HAVING count(*) >= 2",
            l,
        )
        .unwrap();
        e.send_event(bus_event(&e, 1_000, 1, "R1", 1.0, 8)).unwrap();
        e.send_event(bus_event(&e, 2_000, 2, "R1", 1.0, 8)).unwrap();
        assert_eq!(sink.lock().len(), 1);
        // Advance past both events: the pane must empty too, so the next
        // single arrival cannot reach count >= 2.
        e.advance_time(52_000);
        e.send_event(bus_event(&e, 52_500, 3, "R1", 1.0, 8)).unwrap();
        assert_eq!(sink.lock().len(), 1);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::event::FieldType;
    use parking_lot::Mutex;

    fn market_engine() -> Engine {
        let mut e = Engine::new();
        e.register_type(
            EventType::with_fields(
                "tick",
                &[("symbol", FieldType::Str), ("price", FieldType::Float)],
            )
            .unwrap(),
        )
        .unwrap();
        e
    }

    fn tick(e: &Engine, ts: u64, symbol: &str, price: f64) -> Event {
        e.make_event("tick", ts, &[("symbol", symbol.into()), ("price", price.into())])
            .unwrap()
    }

    fn capture() -> (Arc<Mutex<Vec<Vec<String>>>>, Listener) {
        let sink: Arc<Mutex<Vec<Vec<String>>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = sink.clone();
        let listener: Listener = Box::new(move |_, rows| {
            s2.lock().push(
                rows.iter()
                    .map(|r| {
                        r.values().iter().map(|v| v.to_string()).collect::<Vec<_>>().join("|")
                    })
                    .collect(),
            )
        });
        (sink, listener)
    }

    #[test]
    fn order_by_sorts_batch_output() {
        let mut e = market_engine();
        let (sink, l) = capture();
        // Tumbling batches of 4, rows ordered by descending price.
        e.create_statement(
            "SELECT symbol, price FROM tick.win:length_batch(4) ORDER BY price DESC",
            l,
        )
        .unwrap();
        for (i, (s, p)) in
            [("A", 3.0), ("B", 9.0), ("C", 1.0), ("D", 5.0)].iter().enumerate()
        {
            e.send_event(tick(&e, i as u64, s, *p)).unwrap();
        }
        let rows = sink.lock();
        assert_eq!(rows.len(), 1, "one batch release");
        assert_eq!(rows[0], vec!["B|9", "D|5", "A|3", "C|1"]);
    }

    #[test]
    fn order_by_ascending_is_default() {
        let mut e = market_engine();
        let (sink, l) = capture();
        e.create_statement(
            "SELECT price FROM tick.win:length_batch(3) ORDER BY price",
            l,
        )
        .unwrap();
        for (i, p) in [7.0, 2.0, 5.0].iter().enumerate() {
            e.send_event(tick(&e, i as u64, "X", *p)).unwrap();
        }
        assert_eq!(sink.lock()[0], vec!["2", "5", "7"]);
    }

    #[test]
    fn order_by_aggregate_across_groups() {
        let mut e = market_engine();
        let (sink, l) = capture();
        // Batch of 4 grouped by symbol, groups ordered by avg price.
        e.create_statement(
            "SELECT w.symbol AS s, avg(w.price) AS m \
             FROM tick.std:groupwin(symbol).win:length_batch(2) AS w \
             GROUP BY w.symbol ORDER BY avg(w.price) DESC",
            l,
        )
        .unwrap();
        // Two groups, each completes a batch of 2 on its second tick; the
        // batch release evaluates all groups (anchor = None).
        e.send_event(tick(&e, 0, "A", 1.0)).unwrap();
        e.send_event(tick(&e, 1, "B", 10.0)).unwrap();
        e.send_event(tick(&e, 2, "A", 3.0)).unwrap(); // A releases: avg 2
        e.send_event(tick(&e, 3, "B", 20.0)).unwrap(); // B releases: avg 15 > A's 2
        let rows = sink.lock();
        let last = rows.last().unwrap();
        assert_eq!(last[0], "B|15");
        assert_eq!(last[1], "A|2");
    }

    #[test]
    fn unique_view_keeps_latest_per_key() {
        let mut e = market_engine();
        let (sink, l) = capture();
        e.create_statement(
            "SELECT count(*) AS n, sum(u.price) AS total \
             FROM tick.std:unique(symbol) AS u HAVING count(*) > 0",
            l,
        )
        .unwrap();
        e.send_event(tick(&e, 0, "A", 1.0)).unwrap();
        e.send_event(tick(&e, 1, "B", 2.0)).unwrap();
        // A's newer price replaces the old one: still 2 rows, total 2+7.
        e.send_event(tick(&e, 2, "A", 7.0)).unwrap();
        let rows = sink.lock();
        assert_eq!(rows.last().unwrap()[0], "2|9");
    }

    #[test]
    fn unique_rejects_bad_usage() {
        let mut e = market_engine();
        let (_, l) = capture();
        assert!(e
            .create_statement("SELECT * FROM tick.std:unique()", l)
            .is_err());
        let (_, l) = capture();
        assert!(e
            .create_statement("SELECT * FROM tick.std:unique(nope)", l)
            .is_err());
        let (_, l) = capture();
        assert!(e
            .create_statement(
                "SELECT * FROM tick.std:groupwin(symbol).std:unique(symbol)",
                l
            )
            .is_err());
    }

    #[test]
    fn time_batch_releases_per_interval() {
        let mut e = market_engine();
        let (sink, l) = capture();
        e.create_statement(
            "SELECT count(*) AS n FROM tick.win:time_batch(10)",
            l,
        )
        .unwrap();
        // Three ticks inside the first 10 s interval: nothing releases.
        e.send_event(tick(&e, 1_000, "A", 1.0)).unwrap();
        e.send_event(tick(&e, 4_000, "A", 1.0)).unwrap();
        e.send_event(tick(&e, 9_000, "A", 1.0)).unwrap();
        assert!(sink.lock().is_empty());
        // The first tick of the next interval releases the batch of 3.
        e.send_event(tick(&e, 12_000, "A", 1.0)).unwrap();
        let rows = sink.lock();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0], vec!["3"]);
    }

    #[test]
    fn order_by_parses_and_rejects_garbage() {
        let mut e = market_engine();
        let (_, l) = capture();
        assert!(e
            .create_statement("SELECT * FROM tick ORDER BY missing_field", l)
            .is_err());
        let (_, l) = capture();
        assert!(e.create_statement("SELECT * FROM tick ORDER price", l).is_err());
    }
}
