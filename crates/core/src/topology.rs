//! The traffic monitoring topology (Figure 8): BusReader spout →
//! PreProcess → AreaTracker → BusStopsTracker → Splitter → Esper bolts →
//! EventsStorer, expressed over the DSPS substrate.

use crate::error::CoreError;
use crate::kappa::{Publication, StatsBolt};
use crate::rules::{RuleSpec, SpatialContext};
use crate::thresholds::{
    unix_ms_now, Detection, EsperState, RetrievalMethod, RuleEngine, RuleMigration,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tms_cep::CepError;
use tms_dsps::transport::{decode_value, encode_value};
use tms_dsps::{
    Bolt, BoltContext, DspsError, Emitter, FlightKind, FlightRecorder, MigrationCoordinator,
    RuleProfile, Spout,
};
use tms_geo::{BusStopIndex, RegionQuadtree};
use tms_storage::{RemoteDb, TableStore, ThresholdStore};
use tms_traffic::{BusTrace, EnrichedTrace, LocId, Preprocessor};

/// The message flowing through the topology.
///
/// Data tuples carry `seq`, the trace's global replay position assigned
/// by the spout. Every stage up to the Splitter is one-in/one-out, so the
/// sequence survives intact and the Splitter can restore the canonical
/// replay order no matter how the multi-task stages interleave — the
/// engines' windowed evaluation is order-sensitive, and without the
/// resequencer two runs of the same input could detect different events.
#[derive(Debug, Clone)]
pub enum TrafficMessage {
    /// A raw bus report from the spout.
    Raw {
        /// Global replay position of this trace.
        seq: u64,
        /// The raw report.
        trace: BusTrace,
    },
    /// An enriched trace (kinematics and/or spatial ids attached).
    Enriched {
        /// Global replay position, propagated from [`TrafficMessage::Raw`].
        seq: u64,
        /// The enriched report.
        trace: Arc<EnrichedTrace>,
    },
    /// A detection fired by an Esper bolt.
    Detection(Detection),
    /// Elastic drain barrier: per-sender FIFO guarantees the source engine
    /// sees it after every tuple routed under the old table, so the state
    /// it extracts for migration ticket `id` is complete.
    Barrier {
        /// The migration ticket this barrier drains for.
        id: u64,
    },
    /// Elastic install trigger: tells the destination engine to absorb
    /// ticket `id`'s payload from its coordinator mailbox now. Purely an
    /// accelerator — engines also poll their mailbox on every tuple, so a
    /// lost trigger delays absorption rather than losing state.
    Install {
        /// The migration ticket to absorb.
        id: u64,
    },
    /// In-stream statistics publication: the Splitter's fold sends it to
    /// every Esper task, on the edges the tuples take, right after the
    /// tuple that completes the publication. Engines with an older
    /// `version` rebuild their thresholds from the tables it carries.
    StatsRefresh {
        /// Monotonic publication version; engines ignore versions they
        /// have already applied (duplicates under at-least-once replay).
        version: u64,
        /// The statistics tables, shared by every engine's copy.
        statistics: Arc<Publication>,
    },
}

// ---------------------------------------------------------------------------
// Spout and bolts
// ---------------------------------------------------------------------------

/// The BusReader spout: replays a shared slice of traces. Tasks stripe
/// the input *by vehicle* (task `i` reads the vehicles with
/// `vehicle_id % n == i`) so multiple reader tasks divide the file, like
/// the paper's two-task spout, while each vehicle's whole history still
/// flows from a single reader. The vehicle-keyed PreProcess stage then
/// receives every vehicle's reports in timestamp order over one FIFO
/// channel pair — its per-vehicle kinematics stay deterministic no matter
/// how the reader threads interleave. Each emitted tuple carries its
/// global position in the replay as `seq` for the Splitter's resequencer.
pub struct BusReaderSpout {
    traces: Arc<Vec<BusTrace>>,
    cursor: usize,
    lane: u64,
    stride: u64,
}

impl BusReaderSpout {
    /// Creates the spout task reading stripe `task_index` of `task_count`.
    pub fn new(traces: Arc<Vec<BusTrace>>, task_index: usize, task_count: usize) -> Self {
        BusReaderSpout {
            traces,
            cursor: 0,
            lane: task_index as u64,
            stride: task_count.max(1) as u64,
        }
    }
}

impl Spout<TrafficMessage> for BusReaderSpout {
    fn next(&mut self) -> Option<TrafficMessage> {
        loop {
            let t = self.traces.get(self.cursor)?;
            let seq = self.cursor as u64;
            self.cursor += 1;
            if u64::from(t.vehicle_id) % self.stride == self.lane {
                return Some(TrafficMessage::Raw { seq, trace: *t });
            }
        }
    }
}

/// PreProcess bolt: computes speed and actual delay (Section 3.1).
/// Requires fields grouping on `vehicle_id` so one task sees a vehicle's
/// whole history.
pub struct PreProcessBolt {
    pre: Preprocessor,
}

impl PreProcessBolt {
    /// Creates a fresh preprocessor task.
    pub fn new() -> Self {
        PreProcessBolt { pre: Preprocessor::new() }
    }
}

impl Default for PreProcessBolt {
    fn default() -> Self {
        Self::new()
    }
}

impl Bolt<TrafficMessage> for PreProcessBolt {
    fn process(&mut self, msg: TrafficMessage, emitter: &mut dyn Emitter<TrafficMessage>) {
        if let TrafficMessage::Raw { seq, trace } = msg {
            let enriched = self.pre.enrich(trace);
            emitter.emit(TrafficMessage::Enriched { seq, trace: Arc::new(enriched) });
        }
    }
}

/// AreaTracker bolt: attaches the quadtree region chain ("each task of
/// this bolt has an instance of the Region Quadtree", Section 4.3.2).
pub struct AreaTrackerBolt {
    quadtree: Arc<RegionQuadtree>,
}

impl AreaTrackerBolt {
    /// Creates a task holding its own reference to the shared quadtree.
    pub fn new(quadtree: Arc<RegionQuadtree>) -> Self {
        AreaTrackerBolt { quadtree }
    }
}

impl Bolt<TrafficMessage> for AreaTrackerBolt {
    fn process(&mut self, msg: TrafficMessage, emitter: &mut dyn Emitter<TrafficMessage>) {
        if let TrafficMessage::Enriched { seq, mut trace } = msg {
            // Copies the tuple only if another holder still reads it.
            let enriched = Arc::make_mut(&mut trace);
            SpatialContext::locate_areas(
                &self.quadtree,
                &enriched.trace.position,
                &mut enriched.areas,
            );
            emitter.emit(TrafficMessage::Enriched { seq, trace });
        }
    }
}

/// BusStopsTracker bolt: attaches the recovered closest bus stop.
pub struct BusStopsTrackerBolt {
    stops: Arc<BusStopIndex>,
}

impl BusStopsTrackerBolt {
    /// Creates a task holding the shared bus-stop index.
    pub fn new(stops: Arc<BusStopIndex>) -> Self {
        BusStopsTrackerBolt { stops }
    }
}

impl Bolt<TrafficMessage> for BusStopsTrackerBolt {
    fn process(&mut self, msg: TrafficMessage, emitter: &mut dyn Emitter<TrafficMessage>) {
        if let TrafficMessage::Enriched { seq, mut trace } = msg {
            let enriched = Arc::make_mut(&mut trace);
            enriched.bus_stop = self
                .stops
                .closest_stop(enriched.trace.line_id, enriched.trace.direction, &enriched.trace.position)
                .map(|s| SpatialContext::stop_id(s.id));
            emitter.emit(TrafficMessage::Enriched { seq, trace });
        }
    }
}

// ---------------------------------------------------------------------------
// Splitter: the partitioning schema at run time (Section 4.2.1)
// ---------------------------------------------------------------------------

/// How one grouping's tuples select their routing key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupingKind {
    /// Key = the trace's region at this quadtree layer.
    QuadtreeLayer(u8),
    /// Key = the trace's recovered bus stop.
    BusStops,
}

/// One grouping's routing: location key → global Esper-task index.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupingRoute {
    /// How tuples select their routing key for this grouping.
    pub kind: GroupingKind,
    /// Location key → global Esper-task index.
    pub table: HashMap<LocId, usize>,
}

/// The Splitter's full plan: one route per grouping; each tuple is sent to
/// one engine per grouping (Section 4.2.2's re-transmission accounting).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SplitPlan {
    /// One route per grouping; a tuple is sent to one engine per route.
    pub routes: Vec<GroupingRoute>,
}

impl GroupingRoute {
    /// The routing key this grouping matches the trace under, and the
    /// engine owning it.
    fn hit(&self, e: &EnrichedTrace) -> Option<(LocId, usize)> {
        match &self.kind {
            GroupingKind::QuadtreeLayer(layer) => {
                // The trace's area chain is root-first; the region at
                // `layer` is areas[layer] when the tree is that deep
                // here, otherwise the deepest (leaf) entry. Unknown
                // regions walk up the chain until the table knows one.
                let idx = (*layer as usize).min(e.areas.len().checked_sub(1)?);
                e.areas[..=idx]
                    .iter()
                    .rev()
                    .find_map(|a| self.table.get(a).map(|t| (*a, *t)))
            }
            GroupingKind::BusStops => {
                let stop = e.bus_stop?;
                self.table.get(&stop).map(|t| (stop, *t))
            }
        }
    }
}

impl SplitPlan {
    /// The engines this trace must reach (deduplicated).
    pub fn engines_for(&self, e: &EnrichedTrace) -> Vec<usize> {
        let mut out = Vec::new();
        for (_, _, engine) in self.hits(e) {
            if !out.contains(&engine) {
                out.push(engine);
            }
        }
        out
    }

    /// Like [`Self::engines_for`], but per grouping and without
    /// deduplication: `(grouping index, matched routing key, engine)`.
    fn hits<'a>(
        &'a self,
        e: &'a EnrichedTrace,
    ) -> impl Iterator<Item = (usize, LocId, usize)> + 'a {
        self.routes
            .iter()
            .enumerate()
            .filter_map(move |(g, route)| route.hit(e).map(|(key, engine)| (g, key, engine)))
    }
}

// ---------------------------------------------------------------------------
// Elastic re-partitioning plumbing
// ---------------------------------------------------------------------------

/// What one migration ticket moves: a routing-table region of one grouping
/// and the monitored location keys under it.
#[derive(Debug, Clone)]
pub struct MigrationMeta {
    /// Index into [`SplitPlan::routes`] / the allocation's groupings.
    pub grouping: usize,
    /// The routing-table key whose ownership moves.
    pub region: LocId,
    /// Monitored location keys under `region` (union over the grouping's
    /// rules) whose engine state ships with the move.
    pub locations: Vec<String>,
}

/// The state deposited by a source engine: the moved window/accumulator/
/// threshold partitions plus the rule specs the destination needs to
/// install any rule it does not run yet.
#[derive(Debug, Clone)]
pub struct MigrationPayload {
    /// Specs for every rule named in `migration`, in source order.
    pub specs: Vec<RuleSpec>,
    /// The extracted per-rule locations and shipped partition state.
    pub migration: RuleMigration,
}

/// The topology's migration coordinator specialization.
pub type TrafficCoordinator = MigrationCoordinator<MigrationMeta, MigrationPayload>;

/// Shared state of the elastic control loop: the coordinator, the *live*
/// routing and engine plans (swapped atomically under their locks as
/// migrations commit — restarted engine tasks rebuild from the live plan,
/// so supervised recovery and elasticity compose), and the splitter's
/// observed per-region tuple counts that the rebalancer drains.
pub struct ElasticHandle {
    /// Ticket rendezvous between rebalancer, splitter, and engines.
    pub coordinator: TrafficCoordinator,
    /// The live routing plan; the splitter routes from this on every tuple.
    pub split_plan: RwLock<SplitPlan>,
    /// The live rule assignment; engine tasks prepare from this.
    pub engine_plan: RwLock<EnginePlan>,
    /// `(grouping, region)` → tuples routed since the last drain.
    observed: Mutex<HashMap<(usize, LocId), u64>>,
    /// How long the splitter waits for a drain barrier's deposit before
    /// aborting the migration.
    pub drain_timeout: Duration,
}

impl ElasticHandle {
    /// Creates the handle with the start-up plans as the live state.
    pub fn new(split_plan: SplitPlan, engine_plan: EnginePlan, drain_timeout: Duration) -> Self {
        ElasticHandle {
            coordinator: TrafficCoordinator::new(),
            split_plan: RwLock::new(split_plan),
            engine_plan: RwLock::new(engine_plan),
            observed: Mutex::new(HashMap::new()),
            drain_timeout,
        }
    }

    /// Drains the observed per-region counts accumulated since the last
    /// call (the rebalancer's measurement window).
    pub fn take_observed(&self) -> HashMap<(usize, LocId), u64> {
        std::mem::take(&mut self.observed.lock())
    }
}

/// A tuple the resequencer lets go: `(seq, trace, first release)`.
type Released = (u64, Arc<EnrichedTrace>, bool);

/// Restores the spout's global emission order at the topology's merge
/// point. The shuffled multi-task stages between the spout and the
/// Splitter preserve each tuple's `seq` but interleave tuples from
/// different tasks in thread-scheduling order; the resequencer buffers
/// out-of-order arrivals and releases them in `seq` order, so a single
/// splitter task feeds the engines a canonical, reproducible stream.
///
/// Replayed tuples (at-least-once retries) whose sequence was already
/// released pass straight through — holding them back could lose a tuple
/// the engines never saw. If a sequence number never arrives (a tuple
/// dropped upstream by fault injection), the buffer caps at
/// [`Resequencer::MAX_PENDING`] and skips the gap rather than deadlock,
/// counting it: a skip in a run that lost nothing means a tuple was
/// overtaken by more than the window and the released order is no longer
/// the canonical one. Every release says whether it is the sequence's
/// first: a skipped sequence that turns up late is, a replay is not.
#[derive(Default)]
struct Resequencer {
    next_seq: u64,
    pending: BTreeMap<u64, Arc<EnrichedTrace>>,
    /// Gaps given up on so far.
    gap_skips: u64,
    /// Sequences passed over by a gap skip and not seen since.
    skipped: BTreeSet<u64>,
}

impl Resequencer {
    /// Largest number of buffered out-of-order tuples before the
    /// resequencer gives up on a gap and releases what it has.
    const MAX_PENDING: usize = 1 << 16;

    /// Accepts one arrival. A replay of a released sequence, or the awaited
    /// one with nothing held behind it, comes straight back with whether
    /// this is its first release; anything else is held for
    /// [`Self::pop_ready`].
    fn push(&mut self, seq: u64, trace: Arc<EnrichedTrace>) -> Option<Released> {
        if seq > self.next_seq || (seq == self.next_seq && !self.pending.is_empty()) {
            self.pending.insert(seq, trace);
            return None;
        }
        let first = seq == self.next_seq || self.skipped.remove(&seq);
        self.next_seq = self.next_seq.max(seq + 1);
        Some((seq, trace, first))
    }

    /// The next held tuple that is ready, in order.
    fn pop_ready(&mut self) -> Option<Released> {
        let over_capacity = self.pending.len() > Self::MAX_PENDING;
        let entry = self.pending.first_entry()?;
        let head = *entry.key();
        if head != self.next_seq {
            // A gap that outlived the whole in-flight window (the tuple was
            // lost upstream) is skipped rather than awaited forever.
            if !over_capacity {
                return None;
            }
            self.gap_skips += 1;
            self.skipped.extend(self.next_seq..head);
        }
        self.next_seq = head + 1;
        Some((head, entry.remove(), true))
    }

    /// Releases everything still buffered (end of stream), in order.
    fn drain(&mut self) -> Vec<Released> {
        let pending = std::mem::take(&mut self.pending);
        self.next_seq = pending.last_key_value().map_or(self.next_seq, |(seq, _)| seq + 1);
        pending.into_iter().map(|(seq, trace)| (seq, trace, true)).collect()
    }
}

/// The Splitter bolt: restores the canonical replay order via its
/// `Resequencer`, then routes each tuple to the engines that own its
/// locations, via direct grouping. With an [`ElasticHandle`] attached it
/// also executes migrations: before each tuple it runs any pending
/// ticket's pause–drain–handoff sequence and routes from the live plan,
/// counting per-region load for the rebalancer. Under kappa it folds each
/// tuple into the statistics at its first release, routed or not, and
/// sends each publication to every engine right after the tuple that
/// completes it: refresh `k` lands between released tuples `k·R − 1` and
/// `k·R`.
pub struct SplitterBolt {
    plan: Arc<SplitPlan>,
    elastic: Option<Arc<ElasticHandle>>,
    reseq: Resequencer,
    /// Scratch: one tuple's target engines.
    engines: Vec<usize>,
    /// Where gap skips are reported: the flight recorder (this task's
    /// first skip becomes an event) and the run's skip count.
    gap_report: Option<(Arc<FlightRecorder>, Arc<AtomicU64>)>,
    /// The kappa statistics fold and the engine count its refreshes go to.
    pub(crate) stats: Option<(StatsBolt, usize)>,
}

/// Sends what the statistics fold emits to engine tasks `0..n`, on the
/// tuples' direct edges.
struct ToEveryEngine<'a>(&'a mut dyn Emitter<TrafficMessage>, usize);

impl Emitter<TrafficMessage> for ToEveryEngine<'_> {
    fn emit(&mut self, msg: TrafficMessage) {
        (0..self.1).for_each(|engine| self.0.emit_direct(engine, msg.clone()));
    }
    fn emit_direct(&mut self, task: usize, msg: TrafficMessage) {
        self.0.emit_direct(task, msg);
    }
}

impl SplitterBolt {
    /// Creates a splitter task sharing the routing plan.
    pub fn new(plan: Arc<SplitPlan>) -> Self {
        SplitterBolt {
            plan,
            elastic: None,
            reseq: Resequencer::default(),
            engines: Vec::new(),
            gap_report: None,
            stats: None,
        }
    }

    /// Attaches the control-plane flight recorder and the counter the
    /// run's splitter tasks add their resequencer gap skips to.
    pub fn with_gap_report(mut self, flight: Arc<FlightRecorder>, skips: Arc<AtomicU64>) -> Self {
        self.gap_report = Some((flight, skips));
        self
    }

    /// Attaches the elastic control loop (single-splitter topologies only:
    /// the drain barrier's FIFO argument needs one routing task).
    pub fn with_elastic(mut self, handle: Arc<ElasticHandle>) -> Self {
        self.elastic = Some(handle);
        self
    }

    /// Executes every pending migration ticket, pausing routing while each
    /// drains: emit the barrier to the source, await the deposit, then
    /// hand the payload to the destination's mailbox, swap the live plans,
    /// and trigger the install. A timed-out drain aborts the ticket (the
    /// source keeps its state; the rebalancer may retry later).
    fn run_migrations(&self, h: &ElasticHandle, emitter: &mut dyn Emitter<TrafficMessage>) {
        while let Some(req) = h.coordinator.begin_next() {
            let started = Instant::now();
            emitter.emit_direct(req.from, TrafficMessage::Barrier { id: req.id });
            // The source can only deposit once the barrier has left this
            // task's edge buffer.
            emitter.flush();
            let Some(payload) = h.coordinator.await_deposit(req.id, h.drain_timeout) else {
                continue; // aborted; the coordinator counted it
            };
            // Deposit-to-mailbox *before* the route swap: once tuples flow
            // to the destination, the state they extend is already there
            // (or arrives with the install trigger queued ahead of them).
            h.coordinator.post_install(req.to, req.id, payload.clone());
            {
                let mut plan = h.split_plan.write();
                if let Some(route) = plan.routes.get_mut(req.meta.grouping) {
                    route.table.insert(req.meta.region, req.to);
                }
            }
            h.engine_plan.write().apply_migration(req.from, req.to, &payload);
            emitter.emit_direct(req.to, TrafficMessage::Install { id: req.id });
            h.coordinator.note_completed(started.elapsed());
        }
    }
}

impl SplitterBolt {
    /// Routes one in-order tuple to the engines owning its locations —
    /// under the elastic loop from the live plan, counting per region (what
    /// the rebalancer reads load from) — then, at its first release,
    /// folds it into the statistics.
    fn route(&mut self, (seq, e, first): Released, emitter: &mut dyn Emitter<TrafficMessage>) {
        self.engines.clear();
        let live = self.elastic.as_ref().map(|h| h.split_plan.read());
        let mut observed = self.elastic.as_ref().map(|h| h.observed.lock());
        for (g, key, engine) in live.as_deref().unwrap_or(&self.plan).hits(&e) {
            if let Some(observed) = &mut observed {
                *observed.entry((g, key)).or_insert(0) += 1;
            }
            if !self.engines.contains(&engine) {
                self.engines.push(engine);
            }
        }
        drop((live, observed)); // an emit can block on a full queue
        for &engine in &self.engines {
            emitter.emit_direct(engine, TrafficMessage::Enriched { seq, trace: e.clone() });
        }
        if let (Some((stats, engines)), true) = (&mut self.stats, first) {
            let enriched = TrafficMessage::Enriched { seq, trace: e };
            stats.process(enriched, &mut ToEveryEngine(emitter, *engines));
        }
    }

    /// Reports the gaps given up on since `skips_before`: the task's first
    /// becomes a flight event naming the `awaited` sequence, all of them
    /// add to the run's count.
    fn report_gap_skips(&self, awaited: u64, skips_before: u64) {
        let Some((flight, total)) = &self.gap_report else { return };
        if skips_before == 0 {
            flight.record(
                FlightKind::Custom,
                "splitter",
                -1,
                format!(
                    "resequencer gap skip: seq {awaited} had not arrived after {} later tuples",
                    Resequencer::MAX_PENDING
                ),
            );
        }
        total.fetch_add(self.reseq.gap_skips - skips_before, Ordering::Relaxed);
    }
}

impl Bolt<TrafficMessage> for SplitterBolt {
    fn prepare(&mut self, ctx: BoltContext) {
        self.stats.iter_mut().for_each(|(stats, _)| stats.prepare(ctx));
    }

    fn process(&mut self, msg: TrafficMessage, emitter: &mut dyn Emitter<TrafficMessage>) {
        if let Some(h) = self.elastic.clone() {
            self.run_migrations(&h, emitter);
        }
        if let TrafficMessage::Enriched { seq, trace } = msg {
            let (awaited, skips_before) = (self.reseq.next_seq, self.reseq.gap_skips);
            if let Some(released) = self.reseq.push(seq, trace) {
                self.route(released, emitter);
            }
            while let Some(released) = self.reseq.pop_ready() {
                self.route(released, emitter);
            }
            if self.reseq.gap_skips > skips_before {
                self.report_gap_skips(awaited, skips_before);
            }
        }
    }

    fn finish(&mut self, emitter: &mut dyn Emitter<TrafficMessage>) {
        for released in self.reseq.drain() {
            self.route(released, emitter);
        }
        if let Some((stats, engines)) = &mut self.stats {
            stats.finish(&mut ToEveryEngine(emitter, *engines));
        }
    }

    fn snapshot_state(&mut self) -> Option<Vec<u8>> {
        self.stats.as_mut()?.0.snapshot_state()
    }

    fn restore_state(&mut self, snapshot: Option<&[u8]>, log: &[Vec<u8>]) -> Result<(), DspsError> {
        self.stats.as_mut().map_or(Ok(()), |(stats, _)| stats.restore_state(snapshot, log))
    }
}

// ---------------------------------------------------------------------------
// Esper bolt and events storer
// ---------------------------------------------------------------------------

/// The per-engine rule assignment computed at start-up: for every Esper
/// task, the rules it runs and the locations it monitors for each.
#[derive(Debug, Clone, Default)]
pub struct EnginePlan {
    /// `per_engine[e]` lists `(rule, monitored locations)`.
    pub per_engine: Vec<Vec<(RuleSpec, Vec<String>)>>,
}

impl EnginePlan {
    /// Number of engines planned.
    pub fn engines(&self) -> usize {
        self.per_engine.len()
    }

    /// Applies a committed migration to the live assignment: the moved
    /// locations leave engine `from`'s rule entries (entries emptied of
    /// locations are dropped) and join engine `to`'s, installing the
    /// shipped spec for any rule `to` did not run yet. Restarted engine
    /// tasks preparing from this plan then match the live routing table.
    pub fn apply_migration(&mut self, from: usize, to: usize, payload: &MigrationPayload) {
        for (rule, locs) in &payload.migration.rules {
            if let Some(entries) = self.per_engine.get_mut(from) {
                if let Some(pos) = entries.iter().position(|(s, _)| s.name == *rule) {
                    entries[pos].1.retain(|l| !locs.contains(l));
                    if entries[pos].1.is_empty() {
                        entries.remove(pos);
                    }
                }
            }
            if let Some(entries) = self.per_engine.get_mut(to) {
                match entries.iter_mut().find(|(s, _)| s.name == *rule) {
                    Some((_, existing)) => {
                        for l in locs {
                            if !existing.contains(l) {
                                existing.push(l.clone());
                            }
                        }
                    }
                    None => {
                        if let Some(spec) = payload.specs.iter().find(|s| s.name == *rule) {
                            entries.push((spec.clone(), locs.clone()));
                        }
                    }
                }
            }
        }
    }
}

/// Shared mailbox where Esper-bolt tasks publish their cumulative
/// per-rule profiles, keyed by task index. The monitor's profile source
/// reads [`Self::collect`] each sampling window; a restarted task simply
/// overwrites its slot (the hub's delta logic tolerates counter resets).
#[derive(Debug, Default)]
pub struct EsperProfileRegistry {
    slots: Mutex<HashMap<usize, Vec<RuleProfile>>>,
}

impl EsperProfileRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes task `task`'s cumulative profiles, replacing its slot.
    pub fn publish(&self, task: usize, profiles: Vec<RuleProfile>) {
        self.slots.lock().insert(task, profiles);
    }

    /// All published profiles flattened across tasks, ordered by
    /// `(rule, engine)` so snapshots are deterministic.
    pub fn collect(&self) -> Vec<RuleProfile> {
        let mut out: Vec<RuleProfile> =
            self.slots.lock().values().flatten().cloned().collect();
        out.sort_by(|a, b| a.rule.cmp(&b.rule).then(a.engine.cmp(&b.engine)));
        out
    }
}

/// The Esper bolt: one [`RuleEngine`] per task, rules installed from the
/// shared [`EnginePlan`]. Detections are forwarded downstream.
pub struct EsperBolt {
    plan: Arc<EnginePlan>,
    method: RetrievalMethod,
    store: ThresholdStore,
    db: Option<RemoteDb>,
    /// Whether the engine's incremental evaluation path is enabled.
    incremental: bool,
    /// Whether the engine's sharing planner is enabled (shared windows,
    /// accumulator banks, and keyed threshold indexes across same-shape
    /// rules).
    sharing: bool,
    /// When set, the engine profiles every statement and publishes
    /// per-rule profiles here after each processed tuple.
    profiles: Option<Arc<EsperProfileRegistry>>,
    /// When set, the task prepares from the handle's *live* engine plan
    /// and takes part in the migration protocol.
    elastic: Option<Arc<ElasticHandle>>,
    task_index: usize,
    engine: Option<RuleEngine>,
    /// Install errors surface on the first processed tuple (prepare()
    /// cannot fail in the Bolt contract).
    install_error: Option<String>,
    /// Highest [`TrafficMessage::StatsRefresh`] version applied, so
    /// replayed or duplicated refresh notices are idempotent.
    stats_version: u64,
}

impl EsperBolt {
    /// Creates an Esper bolt task factory state (the engine itself is
    /// built in `prepare`, on the executor thread).
    pub fn new(
        plan: Arc<EnginePlan>,
        method: RetrievalMethod,
        store: ThresholdStore,
        db: Option<RemoteDb>,
    ) -> Self {
        EsperBolt {
            plan,
            method,
            store,
            db,
            incremental: true,
            sharing: true,
            profiles: None,
            elastic: None,
            task_index: 0,
            engine: None,
            install_error: None,
            stats_version: 0,
        }
    }

    /// Selects the engine's evaluation mode (incremental by default;
    /// `false` forces full-window rescans — the ablation baseline). Every
    /// engine this task builds, at `prepare` and on restore, is set up
    /// with it before its first rule is installed.
    pub fn with_incremental(mut self, enabled: bool) -> Self {
        self.incremental = enabled;
        self
    }

    /// Selects whether the sharing planner serves Listing-1-family rules
    /// from pane-bank state, shared between same-shape rules (on by
    /// default; `false` keeps every statement on private windows and the
    /// rescan path). Applied, like [`Self::with_incremental`], to an
    /// engine that holds no rule yet.
    pub fn with_sharing(mut self, enabled: bool) -> Self {
        self.sharing = enabled;
        self
    }

    /// Enables per-rule profiling, publishing into `registry`.
    pub fn with_profiling(mut self, registry: Arc<EsperProfileRegistry>) -> Self {
        self.profiles = Some(registry);
        self
    }

    /// Attaches the elastic control loop: prepare from the live plan,
    /// honor drain barriers and install triggers.
    pub fn with_elastic(mut self, handle: Arc<ElasticHandle>) -> Self {
        self.elastic = Some(handle);
        self
    }

    /// Absorbs every payload waiting in this task's install mailbox.
    /// Called on install triggers and polled before every tuple, so a
    /// dropped trigger only delays absorption.
    fn absorb_installs(engine: &mut RuleEngine, h: &ElasticHandle, task: usize) {
        for (id, payload) in h.coordinator.take_installs(task) {
            if let Err(e) = engine.absorb_migration(&payload.specs, &payload.migration) {
                panic!("engine {task} failed to absorb migration ticket {id}: {e}");
            }
        }
    }

    /// Handles a drain barrier: extract the ticket's state, deposit it,
    /// and evict the source copy only if the deposit committed (a late
    /// deposit after the splitter gave up is refused, and the state
    /// stays). Extraction and eviction happen inside one `process()`
    /// call, so injected faults (which strike at process entry) cannot
    /// split them.
    fn drain_for_ticket(&mut self, h: &ElasticHandle, id: u64) {
        let Some(req) = h.coordinator.ticket(id) else {
            return; // unknown ticket: stale barrier after a restart
        };
        let engine = self.engine.as_mut().expect("prepare() ran");
        let migration = match engine.collect_migration(&req.meta.locations) {
            Ok(m) => m,
            Err(e) => panic!("engine {} failed to collect migration state: {e}", self.task_index),
        };
        let specs: Vec<RuleSpec> = {
            let plan = h.engine_plan.read();
            migration
                .rules
                .iter()
                .filter_map(|(rule, _)| {
                    plan.per_engine
                        .get(self.task_index)
                        .and_then(|entries| entries.iter().find(|(s, _)| s.name == *rule))
                        .map(|(s, _)| s.clone())
                })
                .collect()
        };
        if h.coordinator.deposit(id, MigrationPayload { specs, migration: migration.clone() }) {
            if let Err(e) = engine.evict_migration(&migration) {
                panic!("engine {} failed to evict migrated state: {e}", self.task_index);
            }
        }
    }

    /// A fresh engine under this task's switches, no rule installed.
    fn new_engine(&self) -> Result<RuleEngine, CoreError> {
        let mut engine = RuleEngine::new(self.method.clone(), self.store.clone(), self.db.clone());
        engine.set_incremental_enabled(self.incremental)?;
        engine.set_sharing_enabled(self.sharing)?;
        engine.set_profiling_enabled(self.profiles.is_some());
        Ok(engine)
    }

    /// The rule entries this task currently runs: the handle's *live*
    /// plan when elastic is attached, the start-up plan otherwise.
    fn planned_rules(&self) -> Vec<(RuleSpec, Vec<String>)> {
        match &self.elastic {
            Some(h) => {
                h.engine_plan.read().per_engine.get(self.task_index).cloned().unwrap_or_default()
            }
            None => self.plan.per_engine.get(self.task_index).cloned().unwrap_or_default(),
        }
    }
}

impl Bolt<TrafficMessage> for EsperBolt {
    fn prepare(&mut self, ctx: BoltContext) {
        self.task_index = ctx.task_index;
        let mut engine = match self.new_engine() {
            Ok(engine) => engine,
            Err(e) => {
                self.install_error = Some(e.to_string());
                return;
            }
        };
        // Elastic tasks prepare from the *live* plan so a supervised
        // restart after migrations rebuilds the current assignment, not
        // the start-up one.
        let rules = self.planned_rules();
        // Batch rules per monitored-location set: all statements of a
        // batch stand before its first threshold snapshot is fed, so
        // the sharing planner sees pristine windows and can cluster
        // same-shape rules.
        let mut batches: Vec<(&Vec<String>, Vec<RuleSpec>)> = Vec::new();
        for (spec, monitored) in &rules {
            match batches.iter_mut().find(|(m, _)| *m == monitored) {
                Some((_, specs)) => specs.push(spec.clone()),
                None => batches.push((monitored, vec![spec.clone()])),
            }
        }
        for (monitored, specs) in batches {
            if let Err(e) = engine.install_rules(&specs, monitored.iter().cloned()) {
                self.install_error = Some(e.to_string());
            }
        }
        self.engine = Some(engine);
    }

    fn process(&mut self, msg: TrafficMessage, emitter: &mut dyn Emitter<TrafficMessage>) {
        if let Some(err) = &self.install_error {
            panic!("esper bolt failed to install rules: {err}");
        }
        if self.engine.is_none() {
            panic!("esper bolt used before prepare()");
        };
        if let Some(h) = self.elastic.clone() {
            // Absorb any waiting payload *before* touching the tuple: the
            // splitter swaps routes only after posting the payload, so a
            // rerouted tuple never outruns its state past this point.
            Self::absorb_installs(
                self.engine.as_mut().expect("checked above"),
                &h,
                self.task_index,
            );
            match msg {
                TrafficMessage::Barrier { id } => {
                    self.drain_for_ticket(&h, id);
                    return;
                }
                TrafficMessage::Install { .. } => return, // absorbed above
                _ => {}
            }
        }
        let engine = self.engine.as_mut().expect("checked above");
        if let TrafficMessage::StatsRefresh { version, statistics } = msg {
            if version > self.stats_version {
                self.stats_version = version;
                // The refresh is atomic: on failure the engine keeps the
                // previous thresholds — the same degradation as a failed
                // batch publication.
                let _ = engine.refresh_from(Some(&statistics));
            }
            return;
        }
        if let TrafficMessage::Enriched { trace: e, .. } = msg {
            if let Err(err) = engine.send_trace(&e) {
                // Feed errors indicate a wiring bug, not bad data.
                if !matches!(err, crate::error::CoreError::Cep(CepError::UnknownStream(_))) {
                    panic!("esper engine rejected a trace: {err}");
                }
            }
            // Every tuple drains the sink, and nothing else fires into it:
            // rules are installed and refreshed over empty windows, and a
            // migration absorbs its history without evaluating.
            engine.drain_detections(|d| emitter.emit(TrafficMessage::Detection(d)));
            if let Some(registry) = &self.profiles {
                registry.publish(self.task_index, engine.rule_profiles(self.task_index));
            }
        }
    }

    fn snapshot_state(&mut self) -> Option<Vec<u8>> {
        let engine = self.engine.as_ref()?;
        let union = engine.monitored_union();
        // Multiple-Rules has no migratable representation (locations are
        // baked into statements); such engines stay memory-only and
        // rebuild cold on restart.
        let migration = engine.collect_migration(&union).ok()?;
        let rule_ages = engine
            .threshold_ages()
            .into_iter()
            .map(|(rule, age)| (rule, age.map(|d| d.as_millis() as u64)))
            .collect();
        Some(encode_value(&EsperState { migration, rule_ages, snapshot_unix_ms: unix_ms_now() }))
    }

    fn restore_state(
        &mut self,
        snapshot: Option<&[u8]>,
        _changelog: &[Vec<u8>],
    ) -> Result<(), DspsError> {
        let Some(bytes) = snapshot else { return Ok(()) };
        // Every `?` below keeps the cold engine prepare() built.
        let state: EsperState = decode_value(bytes)?;
        // prepare() already installed the plan's rules *and fed fresh
        // thresholds*; absorbing the snapshot on top of that would
        // duplicate threshold rows. Rebuild pristine instead: install the
        // same specs with an empty monitored set (no threshold feed,
        // windows untouched for the sharing planner), then absorb the
        // snapshot's state — the exact path an elastic handoff takes,
        // which reproduces a never-restarted engine.
        let specs: Vec<RuleSpec> =
            self.planned_rules().into_iter().map(|(spec, _)| spec).collect();
        let absorbed = self.new_engine().and_then(|mut engine| {
            engine.install_rules(&specs, std::iter::empty())?;
            engine.absorb_migration(&specs, &state.migration)?;
            Ok(engine)
        });
        let mut engine = absorbed.map_err(|e| DspsError::Frame {
            reason: format!("snapshot does not fit this task's plan: {e}"),
        })?;
        // The thresholds' real age spans the downtime; backdating keeps
        // the staleness gauge honest across the restart.
        let downtime_ms = unix_ms_now().saturating_sub(state.snapshot_unix_ms);
        for (rule, age_ms) in &state.rule_ages {
            if let Some(ms) = age_ms {
                engine.backdate_thresholds(rule, Duration::from_millis(ms.saturating_add(downtime_ms)));
            }
        }
        self.engine = Some(engine);
        Ok(())
    }
}

/// EventsStorer bolt: persists detections to the storage medium and a
/// shared in-memory sink for the caller.
pub struct EventsStorerBolt {
    store: TableStore,
    sink: Arc<Mutex<Vec<Detection>>>,
}

/// Schema of the `detected_events` table.
pub fn detected_events_schema() -> tms_storage::Schema {
    tms_storage::Schema::new(vec![
        tms_storage::Column::new("rule", tms_storage::ColumnType::Str),
        tms_storage::Column::new("location", tms_storage::ColumnType::Str),
        tms_storage::Column::new("observed", tms_storage::ColumnType::Float),
        tms_storage::Column::new("threshold", tms_storage::ColumnType::Float),
        tms_storage::Column::new("timestamp_ms", tms_storage::ColumnType::Int),
    ])
    .expect("detected_events schema is valid")
}

impl EventsStorerBolt {
    /// Creates the storer, ensuring the `detected_events` table exists.
    pub fn new(store: TableStore, sink: Arc<Mutex<Vec<Detection>>>) -> Self {
        store
            .create_table_if_missing("detected_events", detected_events_schema())
            .expect("detected_events schema is stable");
        EventsStorerBolt { store, sink }
    }
}

impl Bolt<TrafficMessage> for EventsStorerBolt {
    fn process(&mut self, msg: TrafficMessage, _emitter: &mut dyn Emitter<TrafficMessage>) {
        if let TrafficMessage::Detection(d) = msg {
            self.store
                .insert(
                    "detected_events",
                    vec![
                        tms_storage::Value::from(d.rule.clone()),
                        tms_storage::Value::from(d.location.clone()),
                        tms_storage::Value::Float(d.observed),
                        d.threshold.map(tms_storage::Value::Float).unwrap_or(tms_storage::Value::Null),
                        tms_storage::Value::Int(d.timestamp_ms as i64),
                    ],
                )
                .expect("detected_events table exists");
            self.sink.lock().push(d);
        }
    }
}

/// Parallelism knobs for the Figure 8 topology (the wiring itself is
/// `xml_topology::figure8_spec`).
#[derive(Debug, Clone, Copy)]
pub struct TopologyParallelism {
    /// BusReader spout tasks.
    pub spout_tasks: usize,
    /// PreProcess bolt tasks.
    pub preprocess_tasks: usize,
    /// AreaTracker / BusStopsTracker tasks.
    pub tracker_tasks: usize,
    /// Splitter tasks. Only 1 builds: the Splitter is the stream's merge
    /// point (see the `SplitterBolt` check in `xml_topology`).
    pub splitter_tasks: usize,
    /// Esper tasks = number of engines.
    pub esper_tasks: usize,
}

impl Default for TopologyParallelism {
    fn default() -> Self {
        TopologyParallelism {
            spout_tasks: 2,
            preprocess_tasks: 2,
            tracker_tasks: 2,
            splitter_tasks: 1,
            esper_tasks: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::LocationSelector;
    use tms_storage::{DayType, StatRecord};
    use tms_traffic::Attribute;

    fn id(text: &str) -> LocId {
        text.parse().unwrap()
    }

    fn enriched(areas: Vec<&str>, stop: Option<&str>) -> EnrichedTrace {
        EnrichedTrace {
            trace: BusTrace {
                timestamp_ms: 0,
                line_id: 1,
                direction: true,
                position: tms_geo::GeoPoint::new_unchecked(53.33, -6.26),
                delay_s: 0.0,
                congestion: false,
                reported_stop: None,
                at_stop: false,
                vehicle_id: 1,
            },
            speed_kmh: None,
            actual_delay_s: None,
            areas: areas.into_iter().map(id).collect(),
            bus_stop: stop.map(id),
        }
    }

    #[test]
    fn split_plan_routes_by_layer_and_stop() {
        let plan = SplitPlan {
            routes: vec![
                GroupingRoute {
                    kind: GroupingKind::QuadtreeLayer(1),
                    table: [(id("R1"), 0), (id("R2"), 1)].into(),
                },
                GroupingRoute {
                    kind: GroupingKind::BusStops,
                    table: [(id("S5"), 2)].into(),
                },
            ],
        };
        // Trace in R0→R1→R4 with stop S5: layer-1 region is R1 → engine 0;
        // stop S5 → engine 2.
        let e = enriched(vec!["R0", "R1", "R4"], Some("S5"));
        assert_eq!(plan.engines_for(&e), vec![0, 2]);
        // Trace in R2 without a stop.
        let e = enriched(vec!["R0", "R2"], None);
        assert_eq!(plan.engines_for(&e), vec![1]);
        // Unknown regions walk up the chain; fully unknown yields nothing.
        let e = enriched(vec!["R9"], Some("S9"));
        assert!(plan.engines_for(&e).is_empty());
    }

    #[test]
    fn split_plan_handles_shallow_leaves() {
        // Partition layer is 2 but the trace's chain stops at layer 1
        // (unbalanced tree): the leaf entry is used.
        let plan = SplitPlan {
            routes: vec![GroupingRoute {
                kind: GroupingKind::QuadtreeLayer(2),
                table: [(id("R3"), 4)].into(),
            }],
        };
        let e = enriched(vec!["R0", "R3"], None);
        assert_eq!(plan.engines_for(&e), vec![4]);
    }

    #[test]
    fn split_plan_deduplicates_engines() {
        let plan = SplitPlan {
            routes: vec![
                GroupingRoute {
                    kind: GroupingKind::QuadtreeLayer(0),
                    table: [(id("R0"), 3)].into(),
                },
                GroupingRoute {
                    kind: GroupingKind::QuadtreeLayer(1),
                    table: [(id("R1"), 3)].into(),
                },
            ],
        };
        let e = enriched(vec!["R0", "R1"], None);
        assert_eq!(plan.engines_for(&e), vec![3], "same engine listed once");
    }

    #[test]
    fn trackers_write_into_a_unique_tuple_and_copy_a_shared_one() {
        /// Keeps the last tuple emitted.
        #[derive(Default)]
        struct Last(Option<Arc<EnrichedTrace>>);
        impl Emitter<TrafficMessage> for Last {
            fn emit(&mut self, msg: TrafficMessage) {
                if let TrafficMessage::Enriched { trace, .. } = msg {
                    self.0 = Some(trace);
                }
            }
            fn emit_direct(&mut self, _task: usize, msg: TrafficMessage) {
                self.emit(msg);
            }
        }
        let centre = tms_geo::GeoPoint::new_unchecked(53.33, -6.26);
        let quadtree = Arc::new(
            RegionQuadtree::build(
                tms_geo::DUBLIN_BBOX,
                &[centre],
                tms_geo::QuadtreeConfig { max_points_per_region: 6, max_depth: 6 },
            )
            .unwrap(),
        );
        let observations: Vec<tms_geo::StopObservation> = (0..10)
            .map(|i| tms_geo::StopObservation {
                line_id: 1,
                direction: true,
                position: centre.destination(36.0 * f64::from(i), 4.0),
                entry_bearing_deg: 90.0,
            })
            .collect();
        let stops = Arc::new(
            BusStopIndex::build(
                &observations,
                tms_geo::DenclueConfig::default(),
                tms_geo::busstops::SubclusterConfig::default(),
            )
            .unwrap(),
        );
        let mut bolts: [Box<dyn Bolt<TrafficMessage>>; 2] = [
            Box::new(AreaTrackerBolt::new(quadtree)),
            Box::new(BusStopsTrackerBolt::new(stops)),
        ];
        for bolt in &mut bolts {
            let mut out = Last::default();
            // Sole holder: the tuple leaves at the address it came in at.
            let unique = Arc::new(enriched(vec![], None));
            let address = Arc::as_ptr(&unique);
            bolt.process(TrafficMessage::Enriched { seq: 0, trace: unique }, &mut out);
            let emitted = out.0.take().expect("the tracker forwards the tuple");
            assert_eq!(Arc::as_ptr(&emitted), address);
            assert!(!emitted.areas.is_empty() || emitted.bus_stop.is_some());
            // A second holder keeps reading what it was handed.
            let held = Arc::new(enriched(vec![], None));
            bolt.process(TrafficMessage::Enriched { seq: 1, trace: held.clone() }, &mut out);
            let emitted = out.0.take().expect("the tracker forwards the tuple");
            assert_ne!(Arc::as_ptr(&emitted), Arc::as_ptr(&held));
            assert_eq!(*held, enriched(vec![], None));
            assert_ne!(*emitted, *held);
        }
    }

    /// Pushes one arrival; the sequence numbers it released.
    fn pushed(r: &mut Resequencer, seq: u64, trace: &Arc<EnrichedTrace>) -> Vec<u64> {
        let straight = r.push(seq, trace.clone());
        straight.into_iter().chain(std::iter::from_fn(|| r.pop_ready())).map(|(seq, ..)| seq).collect()
    }

    #[test]
    fn resequencer_restores_global_order_across_interleavings() {
        let trace = Arc::new(enriched(vec!["R0"], None));
        let mut r = Resequencer::default();
        let push = |r: &mut Resequencer, seq: u64| pushed(r, seq, &trace);
        // Two upstream tasks interleave 0,2,4 and 1,3,5 arbitrarily.
        assert_eq!(push(&mut r, 1), Vec::<u64>::new(), "gap at 0 buffers");
        assert_eq!(push(&mut r, 0), vec![0, 1], "filling the gap releases the run");
        assert_eq!(push(&mut r, 4), Vec::<u64>::new());
        assert_eq!(push(&mut r, 3), Vec::<u64>::new());
        assert_eq!(push(&mut r, 2), vec![2, 3, 4]);
        // An at-least-once replay of a released sequence passes through,
        // and says it is not the sequence's first release.
        assert_eq!(push(&mut r, 2), vec![2], "replay is not withheld");
        assert!(matches!(r.push(3, trace.clone()), Some((3, _, false))));
        // In order with nothing pending: straight through, map untouched.
        assert_eq!(push(&mut r, 5), vec![5]);
        assert!(r.pending.is_empty());
        // End of stream flushes what is left, still in order.
        assert_eq!(push(&mut r, 8), Vec::<u64>::new());
        assert_eq!(push(&mut r, 7), Vec::<u64>::new());
        let drained: Vec<u64> = r.drain().into_iter().map(|(seq, ..)| seq).collect();
        assert_eq!(drained, vec![7, 8]);
        assert_eq!(push(&mut r, 9), vec![9], "drain advanced the cursor");
    }

    #[test]
    fn resequencer_counts_the_gaps_it_gives_up_on() {
        let trace = Arc::new(enriched(vec!["R0"], None));
        let window = Resequencer::MAX_PENDING as u64;
        // In order, however long: nothing to skip.
        let mut r = Resequencer::default();
        for seq in 0..window + 10 {
            assert_eq!(pushed(&mut r, seq, &trace), vec![seq]);
        }
        assert_eq!(r.gap_skips, 0);
        // Seq 1 never arrives: a full window queues behind it, the next
        // arrival overflows it and everything held is released past the gap.
        let mut r = Resequencer::default();
        assert_eq!(pushed(&mut r, 0, &trace), vec![0]);
        for seq in 2..window + 2 {
            assert!(pushed(&mut r, seq, &trace).is_empty(), "seq {seq} waits for seq 1");
        }
        assert_eq!(r.gap_skips, 0, "a gap inside the window is still awaited");
        let released = pushed(&mut r, window + 2, &trace);
        assert_eq!(released.len(), Resequencer::MAX_PENDING + 1);
        assert_eq!(released[0], 2, "released from the oldest survivor on");
        assert_eq!(r.gap_skips, 1);
        assert!(
            matches!(r.push(1, trace.clone()), Some((1, _, true))),
            "the straggler passes like a replay, at its first release"
        );
        assert!(matches!(r.push(1, trace.clone()), Some((1, _, false))));
        assert_eq!(r.gap_skips, 1);
    }

    #[test]
    fn splitter_counts_gap_skips_and_logs_the_first() {
        /// Swallows routed tuples.
        struct Discard;
        impl Emitter<TrafficMessage> for Discard {
            fn emit(&mut self, _msg: TrafficMessage) {}
            fn emit_direct(&mut self, _task: usize, _msg: TrafficMessage) {}
        }
        let flight = Arc::new(FlightRecorder::default());
        let skips = Arc::new(AtomicU64::new(0));
        let mut splitter = SplitterBolt::new(Arc::new(SplitPlan { routes: Vec::new() }))
            .with_gap_report(flight.clone(), skips.clone());
        let trace = Arc::new(enriched(vec!["R0"], None));
        let mut feed = |seqs: std::ops::Range<u64>| {
            for seq in seqs {
                let msg = TrafficMessage::Enriched { seq, trace: trace.clone() };
                splitter.process(msg, &mut Discard);
            }
        };
        let window = Resequencer::MAX_PENDING as u64;
        // Seq 0 is dropped; a full window behind it is still only waiting.
        feed(1..window + 1);
        assert_eq!(skips.load(Ordering::Relaxed), 0);
        assert!(flight.events_of(FlightKind::Custom).is_empty());
        feed(window + 1..window + 2);
        assert_eq!(skips.load(Ordering::Relaxed), 1);
        let logged = flight.events_of(FlightKind::Custom);
        assert_eq!(logged.len(), 1);
        assert_eq!(logged[0].component, "splitter");
        assert!(logged[0].detail.contains("seq 0"), "names the awaited seq: {}", logged[0].detail);
        // A second gap is counted; the log already says where order broke.
        feed(window + 3..2 * window + 5);
        assert_eq!(skips.load(Ordering::Relaxed), 2);
        assert_eq!(flight.events_of(FlightKind::Custom).len(), 1);
    }

    #[test]
    fn refreshes_sit_between_the_same_two_released_tuples_for_every_engine() {
        /// Keeps every direct emission as `(task, T<seq> | R<version>)`,
        /// and the tables of each refresh.
        #[derive(Default)]
        struct Sent(Vec<(usize, String)>, Vec<Arc<Publication>>);
        impl Emitter<TrafficMessage> for Sent {
            fn emit(&mut self, _msg: TrafficMessage) {
                panic!("the splitter only emits direct");
            }
            fn emit_direct(&mut self, task: usize, msg: TrafficMessage) {
                let label = match msg {
                    TrafficMessage::Enriched { seq, .. } => format!("T{seq}"),
                    TrafficMessage::StatsRefresh { version, statistics } => {
                        if task == 0 {
                            self.1.push(statistics);
                        }
                        format!("R{version}")
                    }
                    other => panic!("unexpected {other:?}"),
                };
                self.0.push((task, label));
            }
        }
        // R0 is engine 0's, R1 engine 1's, R9 nobody's; engine 2 owns
        // nothing and still hears every refresh.
        let plan = SplitPlan {
            routes: vec![GroupingRoute {
                kind: GroupingKind::QuadtreeLayer(0),
                table: [(id("R0"), 0), (id("R1"), 1)].into(),
            }],
        };
        let store = ThresholdStore::new(TableStore::new());
        let stats = StatsBolt::new(
            crate::kappa::KappaConfig { refresh_every: 2, min_samples: 1 },
            store.clone(),
            vec![Attribute::Delay],
        );
        let mut splitter = SplitterBolt::new(Arc::new(plan));
        splitter.stats = Some((stats, 3));
        splitter.prepare(BoltContext { task_index: 0, task_count: 1 });
        let mut sent = Sent::default();
        let area = ["R0", "R1", "R9"];
        // Out of order, and seq 1 replayed after its release.
        for seq in [1, 0, 3, 2, 1, 5, 4, 6] {
            let trace = Arc::new(enriched(vec![area[seq as usize % 3]], None));
            splitter.process(TrafficMessage::Enriched { seq, trace }, &mut sent);
        }
        splitter.finish(&mut sent);

        let refresh = |v: u64| (0..3).map(move |task| (task, format!("R{v}")));
        let tuple = |task: usize, seq: u64| std::iter::once((task, format!("T{seq}")));
        let expected: Vec<(usize, String)> = tuple(0, 0)
            .chain(tuple(1, 1))
            .chain(refresh(1))
            .chain(tuple(0, 3)) // seq 2 is folded, routed nowhere
            .chain(refresh(2))
            .chain(tuple(1, 1)) // the replay: routed, not folded
            .chain(tuple(1, 4))
            .chain(refresh(3))
            .chain(tuple(0, 6))
            .chain(refresh(4)) // finish flushes the partial publication
            .collect();
        assert_eq!(sent.0, expected);
        // Publication k covers the first 2k released tuples, once each.
        let samples = |p: &Publication| p[0].1.iter().map(|r| r.count).sum::<u64>();
        let covered: Vec<u64> = sent.1.iter().map(|p| samples(p)).collect();
        assert_eq!(covered, [2, 4, 6, 7]);
        // The store learns the final tables only at the end.
        assert_eq!(store.statistics("delay").unwrap(), sent.1[3][0].1);
    }

    /// Collects emitted detections for bolt-level tests.
    #[derive(Default)]
    struct CaptureEmitter(Vec<Detection>);

    impl Emitter<TrafficMessage> for CaptureEmitter {
        fn emit(&mut self, msg: TrafficMessage) {
            if let TrafficMessage::Detection(d) = msg {
                self.0.push(d);
            }
        }
        fn emit_direct(&mut self, _task: usize, msg: TrafficMessage) {
            self.emit(msg);
        }
    }

    fn delay_trace(ts: u64, area: &str, delay: f64) -> TrafficMessage {
        let mut e = enriched(vec![area], None);
        // Hour 8 of day 0 (a Monday): the statistics cell below.
        e.trace.timestamp_ms = ts + 8 * tms_traffic::HOUR_MS;
        e.trace.delay_s = delay;
        TrafficMessage::Enriched { seq: ts / 1000, trace: Arc::new(e) }
    }

    #[test]
    fn esper_snapshot_restore_keeps_state_and_threshold_age() {
        // An engine snapshots mid-window, "restarts" (fresh bolt, prepare,
        // restore), and must (a) resume with its window state — detections
        // after the restart match a never-restarted reference — and (b)
        // keep the threshold staleness clock running across the downtime
        // instead of resetting it to zero.
        let store = TableStore::new();
        let tstore = ThresholdStore::new(store.clone());
        tstore
            .publish(
                "delay",
                &[StatRecord {
                    area_id: "R1".into(),
                    hour: 8,
                    day_type: DayType::Weekday,
                    mean: 100.0,
                    stdv: 0.0,
                    count: 10,
                }],
            )
            .unwrap();
        let mut spec =
            RuleSpec::new("delay-rule", Attribute::Delay, LocationSelector::QuadtreeLeaves, 3);
        spec.s = 0.0;
        let plan = Arc::new(EnginePlan {
            per_engine: vec![vec![(spec, vec!["R1".to_string()])]],
        });
        let mk = || {
            EsperBolt::new(
                plan.clone(),
                RetrievalMethod::ThresholdStream,
                tstore.clone(),
                None,
            )
        };
        let ctx = BoltContext { task_index: 0, task_count: 1 };

        let mut original = mk();
        original.prepare(ctx);
        let mut reference = mk();
        reference.prepare(ctx);
        let mut sink = CaptureEmitter::default();
        // Two below-threshold samples build window state (avg 55 < 100).
        for (ts, d) in [(1000u64, 50.0), (2000, 60.0)] {
            original.process(delay_trace(ts, "R1", d), &mut sink);
            reference.process(delay_trace(ts, "R1", d), &mut sink);
        }
        assert!(sink.0.is_empty(), "below threshold: nothing fires yet");

        std::thread::sleep(Duration::from_millis(150));
        let snapshot = original.snapshot_state().expect("threshold-stream engines snapshot");

        let mut restored = mk();
        restored.prepare(ctx);
        restored.restore_state(Some(&snapshot), &[]).expect("the snapshot fits the plan");
        let age = restored.engine.as_ref().unwrap().threshold_ages()[0]
            .1
            .expect("restored rule keeps its stamp");
        assert!(
            age >= Duration::from_millis(150),
            "staleness clock spans the downtime, got {age:?}"
        );
        // A fresh install stamps its thresholds *now*; the restore must
        // keep the snapshot's older stamp instead.
        let mut fresh = mk();
        fresh.prepare(ctx);
        let fresh_age = fresh.engine.as_ref().unwrap().threshold_ages()[0].1.unwrap();
        assert!(fresh_age < age, "a restore is not a refresh");

        // Post-restart: 250 pushes the window average to 120 > 100; the
        // restored engine must fire exactly like the reference (the third
        // sample only crosses when the pre-snapshot window survived).
        let mut rsink = CaptureEmitter::default();
        let mut refsink = CaptureEmitter::default();
        restored.process(delay_trace(3000, "R1", 250.0), &mut rsink);
        reference.process(delay_trace(3000, "R1", 250.0), &mut refsink);
        assert_eq!(rsink.0, refsink.0);
        assert!(!rsink.0.is_empty(), "the scenario must actually fire");

        // Corrupt snapshots fall back to the cold prepare()d engine.
        let mut cold = mk();
        cold.prepare(ctx);
        assert!(matches!(
            cold.restore_state(Some(&[0xFF, 0x01]), &[]),
            Err(DspsError::Frame { .. })
        ));
        assert!(cold.engine.as_ref().unwrap().threshold_ages()[0].1.unwrap() < age);

        // So does a snapshot of a rule this task's plan does not have.
        let mut renamed =
            RuleSpec::new("other-rule", Attribute::Delay, LocationSelector::QuadtreeLeaves, 3);
        renamed.s = 0.0;
        let replan = EnginePlan { per_engine: vec![vec![(renamed, vec!["R1".to_string()])]] };
        let mut replanned =
            EsperBolt::new(Arc::new(replan), RetrievalMethod::ThresholdStream, tstore.clone(), None);
        replanned.prepare(ctx);
        match replanned.restore_state(Some(&snapshot), &[]) {
            Err(DspsError::Frame { reason }) => {
                assert!(reason.contains("does not fit this task's plan"), "{reason}")
            }
            other => panic!("expected the snapshot to be refused, got {other:?}"),
        }
        let kept = replanned.engine.as_ref().unwrap().threshold_ages();
        assert_eq!(kept[0].0, "other-rule");
        assert!(kept[0].1.unwrap() < age);
    }

    #[test]
    fn stats_refresh_is_versioned_and_idempotent() {
        // A StatsRefresh with a newer version rebuilds the thresholds from
        // the tables it carries; replays of the same version do nothing.
        let tstore = ThresholdStore::new(TableStore::new());
        let statistics = |mean: f64| {
            let record = StatRecord {
                area_id: "R1".into(),
                hour: 8,
                day_type: DayType::Weekday,
                mean,
                stdv: 0.0,
                count: 10,
            };
            Arc::new(vec![(Attribute::Delay, vec![record])])
        };
        let bootstrap = statistics(1_000_000.0); // nothing fires under this threshold
        tstore.publish("delay", &bootstrap[0].1).unwrap();
        let mut spec =
            RuleSpec::new("delay-rule", Attribute::Delay, LocationSelector::QuadtreeLeaves, 1);
        spec.s = 0.0;
        let plan = Arc::new(EnginePlan {
            per_engine: vec![vec![(spec, vec!["R1".to_string()])]],
        });
        let mut bolt =
            EsperBolt::new(plan, RetrievalMethod::ThresholdStream, tstore.clone(), None);
        bolt.prepare(BoltContext { task_index: 0, task_count: 1 });
        let mut sink = CaptureEmitter::default();
        bolt.process(delay_trace(1000, "R1", 50.0), &mut sink);
        assert!(sink.0.is_empty(), "50 < 1e6");
        // A realistic publication arrives with its refresh; the store is
        // not read.
        tstore.publish("delay", &statistics(5.0)[0].1).unwrap();
        bolt.process(delay_trace(2000, "R1", 50.0), &mut sink);
        assert!(sink.0.is_empty(), "no refresh yet: old threshold holds");
        let refresh = |version, statistics| TrafficMessage::StatsRefresh { version, statistics };
        bolt.process(refresh(1, statistics(10.0)), &mut sink);
        bolt.process(delay_trace(3000, "R1", 50.0), &mut sink);
        assert_eq!(sink.0.len(), 1, "refreshed threshold 10 < 50 fires");
        assert_eq!(sink.0[0].threshold, Some(10.0), "the carried table, not the store's");
        // A replayed (duplicate) refresh is a no-op, whatever it carries.
        bolt.process(refresh(1, bootstrap.clone()), &mut sink);
        bolt.process(delay_trace(4000, "R1", 50.0), &mut sink);
        assert_eq!(sink.0.len(), 2, "stale version ignored: threshold still 10");
        bolt.process(refresh(2, bootstrap), &mut sink);
        bolt.process(delay_trace(5000, "R1", 50.0), &mut sink);
        assert_eq!(sink.0.len(), 2, "the next version applies");
    }
}
