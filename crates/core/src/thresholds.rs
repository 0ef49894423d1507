//! The three threshold-retrieval methods (Section 4.3.1) and the dynamic
//! rule refresh, realized on a real CEP engine.
//!
//! * **Join with Database** — every tuple entering the engine looks its
//!   threshold up in the (remote) storage medium and carries it into the
//!   stream; each lookup pays the client↔server round trip, which is why
//!   Figure 10 shows this method an order of magnitude slower.
//! * **Create Multiple Rules** — every `(location, hour, day-type)` cell
//!   becomes its own statement with the threshold inlined as a literal;
//!   one snapshot query up front, but the engine groans under the rule
//!   count.
//! * **Add the Thresholds in an Esper stream** — one snapshot query up
//!   front, thresholds become events in a `keepall` stream the rule joins
//!   with; latency is near the no-retrieval optimum. The paper (and this
//!   crate) adopts this method.
//!
//! Dynamic rules (Section 4.1.3): [`RuleEngine::refresh_thresholds`]
//! re-reads the statistics snapshot and swaps the rules' threshold state
//! in place, so a Hadoop re-computation takes effect without restarting
//! the topology.

use crate::error::CoreError;
use crate::kappa::Publication;
use crate::rules::RuleSpec;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use tms_cep::{
    CepError, Engine, Event, EventType, FieldType, FieldValue, PartitionState, StatementId,
};
use tms_dsps::bytes::BytesMut;
use tms_dsps::transport::{decode_seq, encode_seq, encode_str, WireCodec, WireReader};
use tms_dsps::DspsError;
use tms_storage::{DayType, RemoteDb, ThresholdQuery, ThresholdRow, ThresholdStore};
use tms_traffic::{Attribute, EnrichedTrace, LocId};

/// How a rule obtains its per-location thresholds.
#[derive(Debug, Clone, PartialEq)]
pub enum RetrievalMethod {
    /// Per-tuple lookup in the storage medium.
    JoinWithDatabase,
    /// One statement per (location, hour, day-type) with inlined literal.
    MultipleRules,
    /// Thresholds as events in a joined `keepall` stream (the winner).
    ThresholdStream,
    /// One global static threshold — Figure 10's no-retrieval optimum.
    StaticOptimal(f64),
}

/// A fired detection.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Name of the rule that fired.
    pub rule: String,
    /// Location where the abnormality was observed.
    pub location: String,
    /// Windowed average of the attribute.
    pub observed: f64,
    /// The threshold that was crossed, when the method reports one.
    pub threshold: Option<f64>,
    /// Timestamp of the triggering tuple (ms).
    pub timestamp_ms: u64,
}

/// Shared sink collecting detections from an engine.
pub type DetectionSink = Arc<Mutex<Vec<Detection>>>;

/// A rule engine's migratable share of some locations: which locations
/// each rule gives up, plus the per-stream window/threshold state shipped
/// to the destination engine. Built by [`RuleEngine::collect_migration`],
/// installed by [`RuleEngine::absorb_migration`]. Plain data throughout
/// (see [`tms_cep::PartitionState`]), so the handoff can cross process
/// boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleMigration {
    /// Per rule: `(rule name, locations moving for that rule)`. Rules
    /// whose monitored set does not intersect the migrating locations are
    /// omitted.
    pub rules: Vec<(String, Vec<String>)>,
    /// Shipped window state, one entry per involved stream (attribute
    /// streams and, for the Threshold-Stream method, threshold streams).
    pub partitions: Vec<tms_cep::PartitionState>,
}

impl RuleMigration {
    /// Whether no rule had any of the migrating locations.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Total shipped events across all streams.
    pub fn event_count(&self) -> usize {
        self.partitions.iter().map(tms_cep::PartitionState::len).sum()
    }
}

/// A rule engine's durable state: what an Esper bolt snapshots and a
/// restart (or, shipped to a peer, a migration) restores.
#[derive(Debug, Clone, PartialEq)]
pub struct EsperState {
    /// The engine's full migratable state: per-rule monitored locations
    /// plus every stream's window/threshold rows (see
    /// [`RuleEngine::collect_migration`]).
    pub migration: RuleMigration,
    /// Per rule: threshold age in milliseconds at snapshot time (`None`
    /// for static literals that never retrieved anything).
    pub rule_ages: Vec<(String, Option<u64>)>,
    /// Wall-clock stamp of the snapshot (unix ms): restore adds the
    /// downtime to every rule age, so the staleness gauge never lies
    /// younger than the data.
    pub snapshot_unix_ms: u64,
}

/// Current wall-clock time in unix milliseconds.
pub fn unix_ms_now() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// Format version of an encoded [`EsperState`], its first byte; bump on
/// layout changes so stale snapshots are rejected instead of misread.
const ESPER_STATE_VERSION: u8 = 2;

// `FieldValue` and `PartitionState` are `tms-cep`'s, so the orphan rule
// keeps them out of an `impl WireCodec`; these four functions are their
// codec, reached through `encode_seq` / `decode_seq`.

fn encode_field(v: &FieldValue, buf: &mut BytesMut) {
    match v {
        FieldValue::Int(i) => (0u8, *i).encode(buf),
        FieldValue::Float(f) => (1u8, *f).encode(buf),
        FieldValue::Str(s) => {
            2u8.encode(buf);
            encode_str(s, buf);
        }
        FieldValue::Bool(b) => (3u8, *b).encode(buf),
    }
}

fn decode_field(r: &mut WireReader<'_>) -> Result<FieldValue, DspsError> {
    Ok(match r.u8()? {
        0 => FieldValue::Int(i64::decode(r)?),
        1 => FieldValue::Float(f64::decode(r)?),
        2 => FieldValue::Str(String::decode(r)?.into()),
        3 => FieldValue::Bool(bool::decode(r)?),
        k => return Err(DspsError::Frame { reason: format!("invalid field kind {k}") }),
    })
}

fn encode_partition(p: &PartitionState, buf: &mut BytesMut) {
    p.stream.encode(buf);
    encode_seq(p.rows.iter(), buf, |(ts, fields), buf| {
        ts.encode(buf);
        encode_seq(fields.iter(), buf, encode_field);
    });
}

fn decode_partition(r: &mut WireReader<'_>) -> Result<PartitionState, DspsError> {
    Ok(PartitionState {
        stream: String::decode(r)?,
        rows: decode_seq(r, |r| Ok((u64::decode(r)?, decode_seq(r, decode_field)?)))?,
    })
}

impl WireCodec for RuleMigration {
    fn encode(&self, buf: &mut BytesMut) {
        self.rules.encode(buf);
        encode_seq(self.partitions.iter(), buf, encode_partition);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(RuleMigration { rules: Vec::decode(r)?, partitions: decode_seq(r, decode_partition)? })
    }
}

impl WireCodec for EsperState {
    fn encode(&self, buf: &mut BytesMut) {
        ESPER_STATE_VERSION.encode(buf);
        self.snapshot_unix_ms.encode(buf);
        self.rule_ages.encode(buf);
        self.migration.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        r.expect_version("Esper snapshot", ESPER_STATE_VERSION)?;
        Ok(EsperState {
            snapshot_unix_ms: u64::decode(r)?,
            rule_ages: Vec::decode(r)?,
            migration: RuleMigration::decode(r)?,
        })
    }
}

struct InstalledRule {
    spec: RuleSpec,
    /// The registered type of the rule's attribute stream.
    bus_type: Arc<EventType>,
    /// Locations this engine monitors for the rule (its partition share).
    monitored: HashSet<String>,
    statements: Vec<StatementId>,
    /// When this rule's thresholds were last retrieved from the store:
    /// at install/refresh for snapshot methods, at the latest per-tuple
    /// lookup for Join-with-Database, `None` for static literals.
    thresholds_at: Option<Instant>,
}

/// The compiled ingest path of one attribute stream: everything
/// [`RuleEngine::send_trace`] needs to turn a trace into the stream's
/// events without consulting the rule list.
struct IngestRoute {
    attribute: Attribute,
    /// The stream's registered type.
    ty: Arc<EventType>,
    /// The per-tuple lookup of the Join-with-Database method; `s` is every
    /// rule's on the stream, as install refuses a second one.
    query: ThresholdQuery,
    /// Monitored location → its interned text and the rank (installation
    /// index) of the first rule on this stream that monitors it.
    locations: HashMap<LocId, (Arc<str>, usize)>,
}

/// [`RuleEngine::send_trace`]'s routes, one per attribute stream in order
/// of the stream's first rule, compiled from the installed rules. Dropped
/// whenever a rule is added or a monitored set changes; rebuilt by the
/// next trace.
struct IngestTable {
    routes: Vec<IngestRoute>,
    /// Interned [`DayType`] strings: weekday, weekend.
    days: [Arc<str>; 2],
    /// Scratch: one route's hits as `(rank, candidate position, id)`.
    hits: Vec<(usize, usize, Arc<str>)>,
    /// Scratch: one trace's events, built before the first is sent.
    outbox: Vec<Event>,
}

impl IngestTable {
    fn compile(rules: &[InstalledRule]) -> Self {
        let mut routes: Vec<IngestRoute> = Vec::new();
        for (rank, r) in rules.iter().enumerate() {
            let attribute = r.spec.attribute;
            let at = routes.iter().position(|x| x.attribute == attribute).unwrap_or_else(|| {
                routes.push(IngestRoute {
                    attribute,
                    ty: r.bus_type.clone(),
                    query: ThresholdQuery { attribute: attribute.name().into(), s: r.spec.s },
                    locations: HashMap::new(),
                });
                routes.len() - 1
            });
            let locations = &mut routes[at].locations;
            for l in &r.monitored {
                let id = l.parse().expect("every way into a monitored set checks its names");
                locations.entry(id).or_insert_with(|| (Arc::from(l.as_str()), rank));
            }
        }
        IngestTable {
            routes,
            days: [DayType::Weekday, DayType::Weekend].map(|d| Arc::from(d.as_str())),
            hits: Vec::new(),
            outbox: Vec::new(),
        }
    }
}

/// A monitored location no trace can be at (its name is no [`LocId`]) would
/// make a rule that silently never fires: refuse it by name.
fn check_locations<'a>(
    rule: &str,
    names: impl IntoIterator<Item = &'a String>,
) -> Result<(), CoreError> {
    for name in names {
        if let Err(e) = name.parse::<LocId>() {
            return Err(CoreError::Rule { reason: format!("rule {rule}: monitored location {e}") });
        }
    }
    Ok(())
}

/// One Esper-engine task with rules installed under a retrieval method —
/// the object living inside each Esper-bolt task of the topology.
pub struct RuleEngine {
    engine: Engine,
    method: RetrievalMethod,
    store: ThresholdStore,
    /// Remote facade charging per-query latency; `None` means local,
    /// zero-cost access (useful in unit tests).
    db: Option<RemoteDb>,
    rules: Vec<InstalledRule>,
    detections: DetectionSink,
    streams_registered: HashSet<String>,
    /// "Current tuple timestamp", read by listeners when a rule fires.
    clock: Arc<AtomicU64>,
    /// `None` until the next trace after a change of `rules`.
    ingest: Option<IngestTable>,
}

impl std::fmt::Debug for RuleEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleEngine")
            .field("method", &self.method)
            .field("rules", &self.rules.len())
            .finish()
    }
}

impl RuleEngine {
    /// Creates an engine bound to a threshold store.
    pub fn new(method: RetrievalMethod, store: ThresholdStore, db: Option<RemoteDb>) -> Self {
        RuleEngine {
            engine: Engine::new(),
            method,
            store,
            db,
            rules: Vec::new(),
            detections: Arc::new(Mutex::new(Vec::new())),
            streams_registered: HashSet::new(),
            clock: Arc::new(AtomicU64::new(0)),
            ingest: None,
        }
    }

    /// The sink detections are pushed into.
    pub fn detections(&self) -> DetectionSink {
        self.detections.clone()
    }

    /// Empties the sink into `emit`, in firing order, under one lock.
    pub fn drain_detections(&self, emit: impl FnMut(Detection)) {
        self.detections.lock().drain(..).for_each(emit);
    }

    /// Number of statements currently standing in the engine.
    pub fn statement_count(&self) -> usize {
        self.engine.statement_count()
    }

    /// Ablation switch for the underlying engine's incremental evaluation
    /// path (see [`tms_cep::Engine::set_incremental_enabled`]). On by
    /// default; switching it off forces full-window rescans. Set before
    /// the first rule is installed: changing it while a statement stands
    /// is an `Err`.
    pub fn set_incremental_enabled(&mut self, enabled: bool) -> Result<(), CoreError> {
        self.engine.set_incremental_enabled(enabled)?;
        Ok(())
    }

    /// Whether the incremental evaluation path is currently enabled.
    pub fn incremental_enabled(&self) -> bool {
        self.engine.incremental_enabled()
    }

    /// Per-statement profiling switch for the underlying engine (see
    /// [`tms_cep::Engine::set_profiling_enabled`]). Off by default;
    /// re-enabling resets all counters.
    pub fn set_profiling_enabled(&mut self, enabled: bool) {
        self.engine.set_profiling_enabled(enabled);
    }

    /// Whether per-statement profiling is currently enabled.
    pub fn profiling_enabled(&self) -> bool {
        self.engine.profiling_enabled()
    }

    /// Cumulative per-rule profiles: the engine's per-statement profiles
    /// aggregated over each installed rule's statements (Multiple-Rules
    /// installs many statements per rule), tagged with `engine_index` and
    /// the rule's threshold-staleness age. Empty unless profiling is on.
    pub fn rule_profiles(&self, engine_index: usize) -> Vec<tms_dsps::RuleProfile> {
        if !self.engine.profiling_enabled() {
            return Vec::new();
        }
        let by_id: HashMap<StatementId, tms_cep::StatementProfile> =
            self.engine.profile().into_iter().map(|p| (p.id, p)).collect();
        self.rules
            .iter()
            .map(|r| {
                let mut out = tms_dsps::RuleProfile {
                    rule: r.spec.name.clone(),
                    engine: engine_index,
                    events_in: 0,
                    evals: 0,
                    firings: 0,
                    rows_out: 0,
                    eval: tms_dsps::LatencyHistogram::default(),
                    path_shared: 0,
                    path_incremental: 0,
                    path_anchor: 0,
                    path_rescan: 0,
                    window_len: 0,
                    threshold_age: r.thresholds_at.map(|t| t.elapsed()),
                };
                for id in &r.statements {
                    let Some(p) = by_id.get(id) else { continue };
                    out.events_in += p.events_in;
                    out.evals += p.evals;
                    out.firings += p.firings;
                    out.rows_out += p.rows_out;
                    out.eval.merge(&tms_dsps::LatencyHistogram::from_parts(
                        p.eval_ns_buckets,
                        p.eval_ns_sum,
                    ));
                    out.path_shared += p.path_shared;
                    out.path_incremental += p.path_incremental;
                    out.path_anchor += p.path_anchor;
                    out.path_rescan += p.path_rescan;
                    out.window_len += p.window_len as u64;
                }
                out
            })
            .collect()
    }

    /// The staleness stamp a freshly created statement set gets: `None`
    /// for static literals (nothing was retrieved), now otherwise.
    fn threshold_stamp(&self) -> Option<Instant> {
        match self.method {
            RetrievalMethod::StaticOptimal(_) => None,
            _ => Some(Instant::now()),
        }
    }

    /// Under the Threshold-Stream and Join-with-Database methods an
    /// attribute's stream carries one threshold per cell, computed with one
    /// `s`: a second rule on the attribute with another `s` would compare
    /// against the first one's thresholds (or, joined with both snapshots,
    /// their average). Refuses the first of `specs` that would, checked in
    /// order against the installed rules and the specs before it.
    fn check_one_s_per_attribute<'a>(
        &self,
        specs: impl IntoIterator<Item = &'a RuleSpec>,
    ) -> Result<(), CoreError> {
        use RetrievalMethod::{JoinWithDatabase, ThresholdStream};
        if !matches!(self.method, ThresholdStream | JoinWithDatabase) {
            return Ok(());
        }
        let mut seen: Vec<&RuleSpec> = self.rules.iter().map(|r| &r.spec).collect();
        for spec in specs {
            let first = seen.iter().find(|r| r.attribute == spec.attribute && r.s != spec.s);
            if let Some(first) = first {
                return Err(CoreError::Rule {
                    reason: format!(
                        "rule {} (s = {}) and rule {} (s = {}) both monitor {}, and under {:?} \
                         an attribute carries one threshold per cell: give them one s",
                        first.name,
                        first.s,
                        spec.name,
                        spec.s,
                        spec.attribute.name(),
                        self.method,
                    ),
                });
            }
            seen.push(spec);
        }
        Ok(())
    }

    /// Installs a rule for the locations this engine was assigned by the
    /// partitioning component: [`Self::install_rules`] with one spec.
    pub fn install_rule(
        &mut self,
        spec: &RuleSpec,
        monitored: impl IntoIterator<Item = String>,
    ) -> Result<(), CoreError> {
        self.install_rules(std::slice::from_ref(spec), monitored)
    }

    /// Installs a set of rules together, creating **all** statements
    /// before feeding any threshold stream. Ordering matters for the
    /// engine's sharing planner: it only merges windows that are still
    /// pristine at install time, so statements must stand before the
    /// first threshold event arrives — a rule installed alone later keeps
    /// its windows private.
    ///
    /// All or nothing: every spec and location is checked and every
    /// snapshot read before the first statement is created, and an error
    /// after that removes the statements this call created. On `Err` no
    /// rule of `specs` is installed.
    pub fn install_rules(
        &mut self,
        specs: &[RuleSpec],
        monitored: impl IntoIterator<Item = String>,
    ) -> Result<(), CoreError> {
        let monitored: HashSet<String> = monitored.into_iter().collect();
        for spec in specs {
            spec.validate()?;
            check_locations(&spec.name, &monitored)?;
        }
        self.check_one_s_per_attribute(specs)?;
        let snapshots: Vec<Option<Vec<ThresholdRow>>> =
            specs.iter().map(|spec| self.threshold_snapshot(spec, None)).collect::<Result<_, _>>()?;
        let mut installed = Vec::with_capacity(specs.len());
        if let Err(e) = self.install_checked(specs, &monitored, &snapshots, &mut installed) {
            for id in installed.into_iter().flat_map(|r| r.statements) {
                let _ = self.engine.remove_statement(id);
            }
            return Err(e);
        }
        let thresholds_at = self.threshold_stamp();
        for r in &mut installed {
            r.thresholds_at = thresholds_at;
        }
        self.ingest = None;
        self.rules.extend(installed);
        Ok(())
    }

    /// The fallible half of [`Self::install_rules`], pushing each rule
    /// into `installed` as its statements stand so the caller can remove
    /// them on error.
    fn install_checked(
        &mut self,
        specs: &[RuleSpec],
        monitored: &HashSet<String>,
        snapshots: &[Option<Vec<ThresholdRow>>],
        installed: &mut Vec<InstalledRule>,
    ) -> Result<(), CoreError> {
        for (spec, snapshot) in specs.iter().zip(snapshots) {
            let bus_type = self.ensure_bus_stream(spec)?;
            let statements = self.create_statements(spec, monitored, snapshot.as_deref())?;
            installed.push(InstalledRule {
                spec: spec.clone(),
                bus_type,
                monitored: monitored.clone(),
                statements,
                thresholds_at: None,
            });
        }
        for (spec, snapshot) in specs.iter().zip(snapshots) {
            self.feed_threshold_rows(spec, monitored, snapshot.as_deref())?;
        }
        Ok(())
    }

    /// Ablation switch for the underlying engine's sharing planner (see
    /// [`tms_cep::Engine::set_sharing_enabled`]). On by default. Set
    /// before the first rule is installed: changing it while a statement
    /// stands is an `Err`.
    pub fn set_sharing_enabled(&mut self, enabled: bool) -> Result<(), CoreError> {
        self.engine.set_sharing_enabled(enabled)?;
        Ok(())
    }

    /// Whether the sharing planner is currently enabled.
    pub fn sharing_enabled(&self) -> bool {
        self.engine.sharing_enabled()
    }

    /// The underlying engine's chosen sharing plan.
    pub fn sharing_report(&self) -> tms_cep::SharingReport {
        self.engine.sharing_report()
    }

    /// Registers the rule's attribute stream on first need and returns
    /// its type. [`Self::send_trace`] fills the fields by position.
    fn ensure_bus_stream(&mut self, spec: &RuleSpec) -> Result<Arc<EventType>, CoreError> {
        let name = spec.bus_stream();
        if !self.streams_registered.contains(&name) {
            self.engine.register_type(EventType::with_fields(
                &name,
                &[
                    ("location", FieldType::Str),
                    ("hour", FieldType::Int),
                    ("day", FieldType::Str),
                    ("value", FieldType::Float),
                    ("threshold", FieldType::Float),
                ],
            )?)?;
            self.streams_registered.insert(name.clone());
        }
        match self.engine.event_type(&name) {
            Some(ty) => Ok(ty.clone()),
            None => Err(CepError::UnknownStream(name).into()),
        }
    }

    fn make_listener(
        sink: &DetectionSink,
        rule_name: String,
        clock: Arc<AtomicU64>,
    ) -> tms_cep::Listener {
        let sink = sink.clone();
        Box::new(move |_, rows| {
            // Same thread as the store in `send_trace`: the listener runs
            // inside that call's `send_event`.
            let ts = clock.load(Ordering::Relaxed);
            let mut sink = sink.lock();
            for row in rows {
                let get_f = |col: &str| row.get(col).and_then(|v| v.as_f64().ok());
                sink.push(Detection {
                    rule: rule_name.clone(),
                    location: row
                        .get("location")
                        .map(|v| v.to_string())
                        .unwrap_or_default(),
                    observed: get_f("observed").unwrap_or(f64::NAN),
                    threshold: get_f("threshold"),
                    timestamp_ms: ts,
                });
            }
        })
    }

    /// Creates a rule's statements; `snapshot` is what
    /// [`Self::threshold_snapshot`] read for it. A Threshold-Stream rule's
    /// snapshot is fed by the caller once every statement of the batch
    /// stands, keeping windows pristine for the sharing planner.
    /// All-or-nothing: a failure midway (Multiple-Rules creates one
    /// statement per cell) removes the statements already created before
    /// the error surfaces.
    fn create_statements(
        &mut self,
        spec: &RuleSpec,
        monitored: &HashSet<String>,
        snapshot: Option<&[ThresholdRow]>,
    ) -> Result<Vec<StatementId>, CoreError> {
        let mut ids = Vec::new();
        match self.create_statements_raw(spec, monitored, snapshot, &mut ids) {
            Ok(()) => Ok(ids),
            Err(e) => {
                for id in ids {
                    let _ = self.engine.remove_statement(id);
                }
                Err(e)
            }
        }
    }

    fn create_statements_raw(
        &mut self,
        spec: &RuleSpec,
        monitored: &HashSet<String>,
        snapshot: Option<&[ThresholdRow]>,
        ids: &mut Vec<StatementId>,
    ) -> Result<(), CoreError> {
        let clock = self.clock();
        match self.method.clone() {
            RetrievalMethod::ThresholdStream => {
                // Register the threshold stream; the caller feeds it.
                let tstream = spec.threshold_stream();
                if !self.streams_registered.contains(&tstream) {
                    self.engine.register_type(EventType::with_fields(
                        &tstream,
                        &[
                            ("location", FieldType::Str),
                            ("hour", FieldType::Int),
                            ("day", FieldType::Str),
                            ("threshold", FieldType::Float),
                        ],
                    )?)?;
                    self.streams_registered.insert(tstream.clone());
                }
                let listener =
                    Self::make_listener(&self.detections, spec.name.clone(), clock);
                ids.push(self.engine.create_statement(&spec.to_epl(), listener)?.id);
            }
            RetrievalMethod::MultipleRules => {
                // A statement per cell of the snapshot.
                for row in snapshot.expect("Multiple-Rules reads a snapshot") {
                    if !monitored.contains(&row.area_id) {
                        continue;
                    }
                    let epl = spec.to_epl_static(
                        &row.area_id,
                        row.hour,
                        row.day_type.as_str(),
                        row.threshold,
                    );
                    let listener = Self::make_listener(
                        &self.detections,
                        spec.name.clone(),
                        self.clock(),
                    );
                    ids.push(self.engine.create_statement(&epl, listener)?.id);
                }
            }
            RetrievalMethod::JoinWithDatabase => {
                let listener =
                    Self::make_listener(&self.detections, spec.name.clone(), clock);
                ids.push(self.engine.create_statement(&spec.to_epl_db(), listener)?.id);
            }
            RetrievalMethod::StaticOptimal(threshold) => {
                let listener =
                    Self::make_listener(&self.detections, spec.name.clone(), clock);
                ids.push(
                    self.engine.create_statement(&spec.to_epl_global(threshold), listener)?.id,
                );
            }
        }
        Ok(())
    }

    /// The rows a rule's statements need, under the methods that read a
    /// snapshot (Threshold-Stream, Multiple-Rules); `None` under the
    /// others. Read from the `carried` tables (one the publication lacks
    /// has no rows), or else in one store round trip. Install and refresh
    /// read every snapshot before they change the engine, so a failed read
    /// changes nothing.
    fn threshold_snapshot(
        &self,
        spec: &RuleSpec,
        carried: Option<&Publication>,
    ) -> Result<Option<Vec<ThresholdRow>>, CoreError> {
        use RetrievalMethod::{MultipleRules, ThresholdStream};
        if !matches!(self.method, ThresholdStream | MultipleRules) {
            return Ok(None);
        }
        let query = ThresholdQuery { attribute: spec.attribute.name().into(), s: spec.s };
        let rows = match (carried, &self.db) {
            (Some(tables), _) => {
                let table = tables.iter().find(|(a, _)| *a == spec.attribute);
                ThresholdStore::thresholds_of(table.map_or(&[], |(_, records)| records), spec.s)
            }
            (None, Some(db)) => ThresholdStore::thresholds_remote(db, &query)?,
            (None, None) => self.store.thresholds(&query)?,
        };
        Ok(Some(rows))
    }

    /// Under Threshold-Stream, feeds a rule's pre-fetched snapshot into
    /// its threshold stream, filtered to the monitored locations; a no-op
    /// under the other methods.
    fn feed_threshold_rows(
        &mut self,
        spec: &RuleSpec,
        monitored: &HashSet<String>,
        snapshot: Option<&[ThresholdRow]>,
    ) -> Result<(), CoreError> {
        let (RetrievalMethod::ThresholdStream, Some(rows)) = (&self.method, snapshot) else {
            return Ok(());
        };
        let ty = self
            .engine
            .event_type(&spec.threshold_stream())
            .expect("threshold stream registered")
            .clone();
        for row in rows {
            if !monitored.contains(&row.area_id) {
                continue;
            }
            let ev = Event::from_pairs(
                &ty,
                0,
                &[
                    ("location", FieldValue::from(row.area_id.as_str())),
                    ("hour", FieldValue::Int(i64::from(row.hour))),
                    ("day", FieldValue::from(row.day_type.as_str())),
                    ("threshold", FieldValue::Float(row.threshold)),
                ],
            )?;
            self.engine.send_event(ev)?;
        }
        Ok(())
    }

    /// The shared "current tuple timestamp" the listeners read. Updated
    /// by [`Self::send_trace`].
    fn clock(&self) -> Arc<AtomicU64> {
        self.clock.clone()
    }

    /// Re-reads the statistics snapshot and swaps every rule's threshold
    /// state — the dynamic-rules path fed by the periodic Hadoop job.
    ///
    /// The swap is atomic with respect to failure: every fallible step
    /// (the store round trips, building the replacement statements) runs
    /// *before* the first installed statement is removed, so an error —
    /// a dropped statistics table, a failed remote query, a statement
    /// that no longer compiles — leaves the engine exactly as it was,
    /// old rules and thresholds still standing. The previous
    /// tear-down-then-recreate order could fail midway and leave the
    /// engine with no rules at all.
    pub fn refresh_thresholds(&mut self) -> Result<(), CoreError> {
        self.refresh_from(None)
    }

    /// [`Self::refresh_thresholds`] from the statistics tables a refresh
    /// carried in the stream, or from the store when `carried` is `None`.
    pub(crate) fn refresh_from(&mut self, carried: Option<&Publication>) -> Result<(), CoreError> {
        let rules: Vec<(RuleSpec, HashSet<String>)> = self
            .rules
            .iter()
            .map(|r| (r.spec.clone(), r.monitored.clone()))
            .collect();
        // Front-load the fallible reads: one snapshot per rule, taken
        // while the engine is untouched.
        let snapshots: Vec<Option<Vec<ThresholdRow>>> = rules
            .iter()
            .map(|(spec, _)| self.threshold_snapshot(spec, carried))
            .collect::<Result<_, _>>()?;
        // Build the replacement statements while the old ones still
        // stand: our keepall windows cannot delete, so fresh statements
        // (fresh windows) pick up the new snapshot. A failure here
        // unwinds the partial build and leaves the engine untouched.
        let mut fresh: Vec<Vec<StatementId>> = Vec::new();
        for ((spec, monitored), snapshot) in rules.iter().zip(&snapshots) {
            match self.create_statements(spec, monitored, snapshot.as_deref()) {
                Ok(ids) => fresh.push(ids),
                Err(e) => {
                    for id in fresh.into_iter().flatten() {
                        let _ = self.engine.remove_statement(id);
                    }
                    return Err(e);
                }
            }
        }
        // Full success: retire the old statements and swap in the new
        // ones. Recreated as a batch (all statements, then all feeds) so
        // the engine's sharing planner can re-merge the fresh windows.
        let old: Vec<StatementId> =
            self.rules.iter().flat_map(|r| r.statements.iter().copied()).collect();
        // No spec and no monitored set changes below, and stream types stay
        // registered: the ingest table stands.
        for (r, ids) in self.rules.iter_mut().zip(fresh) {
            r.statements = ids;
            r.thresholds_at = None;
        }
        for id in old {
            self.engine.remove_statement(id)?;
        }
        for ((spec, monitored), snapshot) in rules.iter().zip(&snapshots) {
            self.feed_threshold_rows(spec, monitored, snapshot.as_deref())?;
        }
        let thresholds_at = self.threshold_stamp();
        for r in &mut self.rules {
            r.thresholds_at = thresholds_at;
        }
        Ok(())
    }

    /// Elastic migrations move per-location window state between engines;
    /// that only works when statements are location-agnostic (membership
    /// lives in the monitored sets). Multiple-Rules bakes each location
    /// into its own per-cell statement, so it cannot migrate state.
    fn ensure_elastic_supported(&self) -> Result<(), CoreError> {
        if matches!(self.method, RetrievalMethod::MultipleRules) {
            return Err(CoreError::Config {
                reason: "elastic migration is unsupported for the Multiple-Rules method: \
                         locations are baked into per-cell statements"
                    .into(),
            });
        }
        Ok(())
    }

    /// The streams a migration of `moved` rules ships state on: each
    /// rule's attribute stream plus, under the Threshold-Stream method,
    /// its threshold stream.
    fn migration_streams(&self, moved: &[(String, Vec<String>)]) -> Vec<String> {
        let mut streams: Vec<String> = Vec::new();
        for r in &self.rules {
            if !moved.iter().any(|(name, _)| *name == r.spec.name) {
                continue;
            }
            for s in [r.spec.bus_stream(), r.spec.threshold_stream()] {
                if self.streams_registered.contains(&s) && !streams.contains(&s) {
                    streams.push(s);
                }
            }
        }
        streams
    }

    /// Collects this engine's share of `locations` for migration —
    /// non-destructively, so an aborted handoff changes nothing here.
    /// Ship the result, then call [`Self::evict_migration`] once the
    /// destination has it safely deposited.
    pub fn collect_migration(&self, locations: &[String]) -> Result<RuleMigration, CoreError> {
        self.ensure_elastic_supported()?;
        let mut rules: Vec<(String, Vec<String>)> = Vec::new();
        let mut union: Vec<String> = Vec::new();
        for r in &self.rules {
            let moved: Vec<String> =
                locations.iter().filter(|l| r.monitored.contains(*l)).cloned().collect();
            if moved.is_empty() {
                continue;
            }
            for l in &moved {
                if !union.contains(l) {
                    union.push(l.clone());
                }
            }
            rules.push((r.spec.name.clone(), moved));
        }
        let mut partitions = Vec::new();
        if !rules.is_empty() {
            let values: Vec<tms_cep::FieldValue> =
                union.iter().map(|l| tms_cep::FieldValue::from(l.as_str())).collect();
            for stream in self.migration_streams(&rules) {
                let p = self.engine.collect_partition(&stream, "location", &values)?;
                if !p.is_empty() {
                    partitions.push(p);
                }
            }
        }
        Ok(RuleMigration { rules, partitions })
    }

    /// Destructively drops a collected migration's locations from this
    /// engine: their window/threshold state leaves every statement and
    /// the rules stop monitoring them, so replayed or late tuples for
    /// those locations no longer produce events here. Returns how many
    /// retained events were removed.
    pub fn evict_migration(&mut self, migration: &RuleMigration) -> Result<usize, CoreError> {
        self.ensure_elastic_supported()?;
        let mut union: Vec<String> = Vec::new();
        for (_, locs) in &migration.rules {
            for l in locs {
                if !union.contains(l) {
                    union.push(l.clone());
                }
            }
        }
        if union.is_empty() {
            return Ok(0);
        }
        let values: Vec<tms_cep::FieldValue> =
            union.iter().map(|l| tms_cep::FieldValue::from(l.as_str())).collect();
        let mut removed = 0usize;
        for stream in self.migration_streams(&migration.rules) {
            removed += self.engine.evict_partition(&stream, "location", &values)?;
        }
        self.ingest = None;
        for (name, locs) in &migration.rules {
            if let Some(r) = self.rules.iter_mut().find(|r| r.spec.name == *name) {
                for l in locs {
                    r.monitored.remove(l);
                }
            }
        }
        Ok(removed)
    }

    /// Installs a shipped migration: each migrating rule starts (or
    /// extends) its monitored set here, missing rules are installed from
    /// `specs`, and the shipped window/threshold state merges into the
    /// local statements without re-firing (the history already fired at
    /// the source).
    pub fn absorb_migration(
        &mut self,
        specs: &[RuleSpec],
        migration: &RuleMigration,
    ) -> Result<(), CoreError> {
        self.ensure_elastic_supported()?;
        for (name, locs) in &migration.rules {
            check_locations(name, locs)?;
        }
        let installing = migration.rules.iter().filter_map(|(name, _)| {
            let installed = self.rules.iter().any(|r| r.spec.name == *name);
            specs.iter().find(|s| s.name == *name).filter(|_| !installed)
        });
        self.check_one_s_per_attribute(installing)?;
        self.ingest = None;
        for (name, locs) in &migration.rules {
            if !self.rules.iter().any(|r| r.spec.name == *name) {
                let spec = specs.iter().find(|s| s.name == *name).ok_or_else(|| {
                    CoreError::Rule {
                        reason: format!("migration references unknown rule {name:?}"),
                    }
                })?;
                self.install_rule(spec, std::iter::empty())?;
            }
            let r = self
                .rules
                .iter_mut()
                .find(|r| r.spec.name == *name)
                .expect("installed just above");
            r.monitored.extend(locs.iter().cloned());
        }
        for p in &migration.partitions {
            self.engine.absorb_partition(p)?;
        }
        Ok(())
    }

    /// The locations a rule currently monitors on this engine, when it is
    /// installed.
    pub fn monitored(&self, rule: &str) -> Option<&HashSet<String>> {
        self.rules.iter().find(|r| r.spec.name == rule).map(|r| &r.monitored)
    }

    /// The union of every installed rule's monitored locations, sorted
    /// and deduplicated. This is the location set a full-engine snapshot
    /// must capture ([`Self::collect_migration`] with this set extracts
    /// every rule's state).
    pub fn monitored_union(&self) -> Vec<String> {
        let mut out: Vec<String> =
            self.rules.iter().flat_map(|r| r.monitored.iter().cloned()).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Per installed rule: how old its threshold state is (`None` when
    /// the rule never retrieved thresholds — e.g. a static literal).
    /// Rules appear in installation order.
    pub fn threshold_ages(&self) -> Vec<(String, Option<Duration>)> {
        self.rules
            .iter()
            .map(|r| (r.spec.name.clone(), r.thresholds_at.map(|t| t.elapsed())))
            .collect()
    }

    /// Re-stamps a rule's threshold clock to read `age` old right now —
    /// used when restoring a durable snapshot, where the thresholds'
    /// *real* age spans the downtime and must not reset to zero. Ages
    /// beyond what a monotonic clock can represent saturate at the
    /// process epoch. No-op for rules not installed here.
    pub fn backdate_thresholds(&mut self, rule: &str, age: Duration) {
        if let Some(r) = self.rules.iter_mut().find(|r| r.spec.name == rule) {
            r.thresholds_at = Instant::now().checked_sub(age).or(r.thresholds_at);
        }
    }

    /// Feeds one enriched trace to the engine: every monitored location
    /// the trace belongs to becomes one event on each attribute stream
    /// that has a rule monitoring it — a tuple enters the engine once per
    /// stream, and every statement standing on that stream sees it
    /// (Esper's delivery model), however many same-attribute rules share
    /// the location. Streams go in order of their first rule; within a
    /// stream, locations in order of the first rule monitoring them, then
    /// of the trace's own order (areas root first, then the stop). Returns
    /// how many events entered the engine.
    pub fn send_trace(&mut self, e: &EnrichedTrace) -> Result<usize, CoreError> {
        let hour = e.trace.hour_of_day();
        let day = DayType::from_weekday_index((e.trace.day_index() % 7) as u8);
        self.clock.store(e.trace.timestamp_ms, Ordering::Relaxed);

        let RuleEngine { ingest, rules, engine, method, store, db, .. } = self;
        let IngestTable { routes, days, hits, outbox } =
            ingest.get_or_insert_with(|| IngestTable::compile(rules));
        let day_str = match day {
            DayType::Weekday => &days[0],
            DayType::Weekend => &days[1],
        };
        // Drained by every trace that got as far as sending.
        outbox.clear();
        for route in routes.iter() {
            let Some(value) = route.attribute.value(e) else { continue };
            hits.clear();
            let candidates = e.areas.iter().chain(&e.bus_stop);
            for (position, candidate) in candidates.enumerate() {
                if let Some((id, rank)) = route.locations.get(candidate) {
                    // A location listed twice enters once, where it first stood.
                    if !hits.iter().any(|(_, _, seen)| Arc::ptr_eq(seen, id)) {
                        hits.push((*rank, position, id.clone()));
                    }
                }
            }
            hits.sort_unstable_by_key(|&(rank, position, _)| (rank, position));
            let looks_up = !hits.is_empty() && matches!(method, RetrievalMethod::JoinWithDatabase);
            for (_, _, location) in hits.drain(..) {
                let threshold = match method {
                    RetrievalMethod::JoinWithDatabase => {
                        // The per-tuple lookup, paying one round trip.
                        let looked_up = match db {
                            Some(db) => ThresholdStore::threshold_for_remote(
                                db,
                                &route.query,
                                &location,
                                hour,
                                day,
                            )?,
                            None => store.threshold_for(&route.query, &location, hour, day)?,
                        };
                        // No statistics for the cell: the rule cannot
                        // apply; skip the event entirely.
                        let Some(t) = looked_up else { continue };
                        t
                    }
                    _ => 0.0,
                };
                outbox.push(Event::from_array(
                    &route.ty,
                    e.trace.timestamp_ms,
                    [
                        FieldValue::Str(location),
                        FieldValue::Int(i64::from(hour)),
                        FieldValue::Str(day_str.clone()),
                        FieldValue::Float(value),
                        FieldValue::Float(threshold),
                    ],
                )?);
            }
            if looks_up {
                // This stream's lookups just refreshed its rules' view of the
                // store; their staleness gauge restarts from here. Rules on a
                // stream the trace did not reach keep their age.
                let now = Instant::now();
                for r in rules.iter_mut().filter(|r| r.spec.attribute == route.attribute) {
                    r.thresholds_at = Some(now);
                }
            }
        }
        let sent = outbox.len();
        for ev in outbox.drain(..) {
            engine.send_event(ev)?;
        }
        Ok(sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::LocationSelector;
    use proptest::prelude::*;
    use tms_dsps::transport::{decode_value, encode_value};
    use tms_storage::{StatRecord, TableStore};
    use tms_traffic::{Attribute, BusTrace};

    fn store_with_stats() -> ThresholdStore {
        let ts = ThresholdStore::new(TableStore::new());
        // R1 fires above 100 at hour 8 weekday; R2 above 1000.
        let recs = vec![
            StatRecord {
                area_id: "R1".into(),
                hour: 8,
                day_type: DayType::Weekday,
                mean: 100.0,
                stdv: 0.0,
                count: 50,
            },
            StatRecord {
                area_id: "R2".into(),
                hour: 8,
                day_type: DayType::Weekday,
                mean: 1000.0,
                stdv: 0.0,
                count: 50,
            },
        ];
        ts.publish("delay", &recs).unwrap();
        ts
    }

    fn rule(window: usize) -> RuleSpec {
        let mut r = RuleSpec::new(
            "delay-rule",
            Attribute::Delay,
            LocationSelector::QuadtreeLeaves,
            window,
        );
        r.s = 0.0;
        r
    }

    fn trace(ts: u64, area: &str, delay: f64) -> EnrichedTrace {
        EnrichedTrace {
            trace: BusTrace {
                timestamp_ms: ts + 8 * tms_traffic::HOUR_MS,
                line_id: 1,
                direction: true,
                position: tms_geo::GeoPoint::new_unchecked(53.33, -6.26),
                delay_s: delay,
                congestion: false,
                reported_stop: None,
                at_stop: false,
                vehicle_id: 1,
            },
            speed_kmh: Some(20.0),
            actual_delay_s: Some(0.0),
            areas: vec![area.parse().unwrap()],
            bus_stop: None,
        }
    }

    fn monitored() -> Vec<String> {
        vec!["R1".into(), "R2".into()]
    }

    fn methods() -> Vec<RetrievalMethod> {
        vec![
            RetrievalMethod::ThresholdStream,
            RetrievalMethod::MultipleRules,
            RetrievalMethod::JoinWithDatabase,
        ]
    }

    #[test]
    fn all_methods_detect_the_same_events() {
        for method in methods() {
            let mut re = RuleEngine::new(method.clone(), store_with_stats(), None);
            re.install_rule(&rule(2), monitored()).unwrap();
            let sink = re.detections();
            // R1: delays 150, 170 → avg crosses 100 from the first event.
            re.send_trace(&trace(1000, "R1", 150.0)).unwrap();
            re.send_trace(&trace(2000, "R1", 170.0)).unwrap();
            // R2 threshold is 1000: never fires.
            re.send_trace(&trace(3000, "R2", 170.0)).unwrap();
            let got = sink.lock();
            assert!(
                got.len() >= 2,
                "{method:?}: expected at least 2 detections, got {}",
                got.len()
            );
            for d in got.iter() {
                assert_eq!(d.location, "R1", "{method:?} misfired at {}", d.location);
                assert!(d.observed > 100.0);
            }
        }
    }

    #[test]
    fn a_second_s_on_one_attribute_is_refused_where_the_stream_carries_one_threshold() {
        // R1: mean 100, stdv 10, so `a` (s = 0) fires above 100 and `b`
        // (s = 3) above 130; one trace at 115 is `a`'s detection only.
        let store = || {
            let ts = ThresholdStore::new(TableStore::new());
            let r1 = StatRecord {
                area_id: "R1".into(),
                hour: 8,
                day_type: DayType::Weekday,
                mean: 100.0,
                stdv: 10.0,
                count: 50,
            };
            ts.publish("delay", &[r1]).unwrap();
            ts
        };
        let spec = |name: &str, s: f64| {
            let mut r = RuleSpec::new(name, Attribute::Delay, LocationSelector::QuadtreeLeaves, 1);
            r.s = s;
            r
        };
        let (a, b) = (spec("a", 0.0), spec("b", 3.0));
        let r1 = || vec!["R1".to_string()];
        let fired = |re: &mut RuleEngine| {
            re.send_trace(&trace(1000, "R1", 115.0)).unwrap();
            re.detections().lock().iter().map(|d| d.rule.clone()).collect::<Vec<_>>()
        };
        for method in [RetrievalMethod::ThresholdStream, RetrievalMethod::JoinWithDatabase] {
            // One rule at a time: the second is refused by name.
            let mut re = RuleEngine::new(method.clone(), store(), None);
            re.install_rule(&a, r1()).unwrap();
            match re.install_rule(&b, r1()) {
                Err(CoreError::Rule { reason }) => assert!(
                    reason.contains("rule a (s = 0)") && reason.contains("rule b (s = 3)"),
                    "{method:?}: {reason}"
                ),
                other => panic!("{method:?}: expected a refusal, got {other:?}"),
            }
            assert_eq!(fired(&mut re), ["a"], "{method:?}");
            // As a batch: refused before any statement stands.
            let mut batch = RuleEngine::new(method.clone(), store(), None);
            let err = batch.install_rules(&[a.clone(), b.clone()], r1());
            assert!(matches!(err, Err(CoreError::Rule { .. })), "{method:?}: {err:?}");
            assert_eq!(batch.statement_count(), 0, "{method:?}");
            // As a migration bringing `b` to an engine running `a`.
            let mut source = RuleEngine::new(method.clone(), store(), None);
            source.install_rule(&b, r1()).unwrap();
            let migration = source.collect_migration(&r1()).unwrap();
            let mut target = RuleEngine::new(method.clone(), store(), None);
            target.install_rule(&a, r1()).unwrap();
            let err = target.absorb_migration(&[a.clone(), b.clone()], &migration);
            assert!(matches!(err, Err(CoreError::Rule { .. })), "{method:?}: {err:?}");
            assert!(target.monitored("b").is_none(), "{method:?}: nothing absorbed");
        }
        // Multiple-Rules inlines each rule's own thresholds: both stand.
        let mut re = RuleEngine::new(RetrievalMethod::MultipleRules, store(), None);
        re.install_rule(&a, r1()).unwrap();
        re.install_rule(&b, r1()).unwrap();
        assert_eq!(fired(&mut re), ["a"]);
    }

    #[test]
    fn every_method_is_bank_served_and_matches_the_sharing_off_engine() {
        let mut all = methods();
        all.push(RetrievalMethod::StaticOptimal(120.0));
        // Integer delays: the bank's sums are then exact, so the two
        // engines must agree to the bit. R1 crosses 100 and back, R2 stays
        // under 1000 (but over the static 120), windows 1 and 3.
        let delays = [150.0, 170.0, 40.0, 20.0, 90.0, 400.0, 10.0, 130.0];
        for method in all {
            let [(shared, shared_profiles), (unshared, unshared_profiles)] =
                [true, false].map(|sharing| {
                let mut re = RuleEngine::new(method.clone(), store_with_stats(), None);
                re.set_sharing_enabled(sharing).unwrap();
                re.set_profiling_enabled(true);
                for window in [1, 3] {
                    let mut spec = rule(window);
                    spec.name = format!("delay-{window}");
                    re.install_rule(&spec, monitored()).unwrap();
                }
                for (i, delay) in delays.iter().enumerate() {
                    let area = if i % 3 == 2 { "R2" } else { "R1" };
                    re.send_trace(&trace(1000 * i as u64, area, *delay)).unwrap();
                }
                let detections = re.detections().lock().clone();
                (detections, re.rule_profiles(0))
            });
            assert!(!shared.is_empty(), "{method:?}: the trace must fire");
            assert_eq!(shared, unshared, "{method:?}: sharing changed the detections");
            for p in shared_profiles {
                assert!(p.evals > 0, "{method:?}");
                assert_eq!(
                    (p.path_shared, p.path_rescan),
                    (p.evals, 0),
                    "{method:?}: rule {} must be served from its pane bank",
                    p.rule
                );
            }
            for p in unshared_profiles {
                assert_eq!(p.path_rescan, p.evals, "{method:?}: sharing off selects the rescan");
            }
        }
    }

    #[test]
    fn static_optimal_uses_the_literal() {
        let mut re =
            RuleEngine::new(RetrievalMethod::StaticOptimal(50.0), store_with_stats(), None);
        re.install_rule(&rule(1), monitored()).unwrap();
        let sink = re.detections();
        re.send_trace(&trace(1000, "R1", 60.0)).unwrap();
        re.send_trace(&trace(2000, "R1", 40.0)).unwrap();
        let got = sink.lock();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].observed, 60.0);
    }

    #[test]
    fn multiple_rules_explodes_statement_count() {
        let mut stream = RuleEngine::new(RetrievalMethod::ThresholdStream, store_with_stats(), None);
        stream.install_rule(&rule(2), monitored()).unwrap();
        let mut multi = RuleEngine::new(RetrievalMethod::MultipleRules, store_with_stats(), None);
        multi.install_rule(&rule(2), monitored()).unwrap();
        assert_eq!(stream.statement_count(), 1);
        assert_eq!(multi.statement_count(), 2, "one per (location, hour, day) cell");
    }

    #[test]
    fn join_with_database_counts_roundtrips() {
        let store = store_with_stats();
        let db = RemoteDb::new(store.store().clone(), std::time::Duration::ZERO);
        let mut re =
            RuleEngine::new(RetrievalMethod::JoinWithDatabase, store, Some(db.clone()));
        re.install_rule(&rule(1), monitored()).unwrap();
        let before = db.query_count();
        for i in 0..5 {
            re.send_trace(&trace(i * 1000, "R1", 10.0)).unwrap();
        }
        assert_eq!(db.query_count() - before, 5, "one lookup per tuple");
    }

    #[test]
    fn threshold_stream_queries_once_at_install() {
        let store = store_with_stats();
        let db = RemoteDb::new(store.store().clone(), std::time::Duration::ZERO);
        let mut re =
            RuleEngine::new(RetrievalMethod::ThresholdStream, store, Some(db.clone()));
        re.install_rule(&rule(1), monitored()).unwrap();
        let after_install = db.query_count();
        assert_eq!(after_install, 1);
        for i in 0..10 {
            re.send_trace(&trace(i * 1000, "R1", 10.0)).unwrap();
        }
        assert_eq!(db.query_count(), after_install, "no per-tuple queries");
    }

    #[test]
    fn unmonitored_locations_are_ignored() {
        let mut re = RuleEngine::new(RetrievalMethod::ThresholdStream, store_with_stats(), None);
        re.install_rule(&rule(1), vec!["R1".to_string()]).unwrap();
        let sink = re.detections();
        let sent = re.send_trace(&trace(1000, "R2", 5000.0)).unwrap();
        assert_eq!(sent, 0, "R2 is not monitored by this engine");
        assert!(sink.lock().is_empty());
    }

    #[test]
    fn a_monitored_location_that_is_no_location_id_is_refused_by_name() {
        for bad in ["R01", "R", "X3", "R-1", "R4294967296", ""] {
            let names = || vec!["R1".to_string(), bad.to_string()];
            let refused = |result: Result<(), CoreError>| match result {
                Err(CoreError::Rule { reason }) => assert!(
                    reason.contains("delay-rule") && reason.contains(&format!("{bad:?}")),
                    "{reason}"
                ),
                other => panic!("{bad:?} got {other:?}"),
            };
            let mut re =
                RuleEngine::new(RetrievalMethod::ThresholdStream, store_with_stats(), None);
            refused(re.install_rule(&rule(1), names()));
            refused(re.install_rules(&[rule(1)], names()));
            let migration = RuleMigration {
                rules: vec![("delay-rule".into(), names())],
                partitions: Vec::new(),
            };
            refused(re.absorb_migration(&[rule(1)], &migration));
            // Nothing half-installed: the rule still goes in under real names.
            assert_eq!(re.statement_count(), 0);
            re.install_rule(&rule(1), monitored()).unwrap();
            assert_eq!(re.send_trace(&trace(1000, "R1", 150.0)).unwrap(), 1);
        }
    }

    #[test]
    fn events_enter_in_order_of_the_first_rule_monitoring_their_location() {
        // One stream, two rules: the stop rule was installed first, so the
        // stop's event goes first although the trace lists its areas ahead
        // of its stop. Window 1 under a low static threshold: every event
        // fires every rule, so the detections spell out the event order.
        let mut re = RuleEngine::new(RetrievalMethod::StaticOptimal(1.0), store_with_stats(), None);
        let mut stops = rule(1);
        stops.name = "stops".into();
        stops.location = LocationSelector::BusStops;
        re.install_rule(&stops, vec!["S7".to_string()]).unwrap();
        let mut leaves = rule(1);
        leaves.name = "leaves".into();
        re.install_rule(&leaves, vec!["R1".to_string(), "R0".to_string()]).unwrap();
        let mut e = trace(1000, "R0", 50.0);
        e.areas = vec![LocId::Region(0), LocId::Region(1), LocId::Region(0)];
        e.bus_stop = Some(LocId::Stop(7));
        assert_eq!(re.send_trace(&e).unwrap(), 3, "R0 is listed twice and enters once");
        let got: Vec<(String, String)> =
            re.detections().lock().iter().map(|d| (d.location.clone(), d.rule.clone())).collect();
        let want: Vec<(String, String)> = ["S7", "R0", "R1"]
            .iter()
            .flat_map(|l| ["stops", "leaves"].map(|r| (l.to_string(), r.to_string())))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn refresh_picks_up_new_statistics() {
        let store = store_with_stats();
        let mut re = RuleEngine::new(RetrievalMethod::ThresholdStream, store.clone(), None);
        re.install_rule(&rule(1), monitored()).unwrap();
        let sink = re.detections();
        // Delay 150 crosses the initial threshold (100).
        re.send_trace(&trace(1000, "R1", 150.0)).unwrap();
        assert_eq!(sink.lock().len(), 1);
        // The batch layer publishes a much higher normal level for R1
        // (e.g. roadworks finished): threshold rises to 500.
        store
            .publish(
                "delay",
                &[StatRecord {
                    area_id: "R1".into(),
                    hour: 8,
                    day_type: DayType::Weekday,
                    mean: 500.0,
                    stdv: 0.0,
                    count: 80,
                }],
            )
            .unwrap();
        re.refresh_thresholds().unwrap();
        re.send_trace(&trace(60_000, "R1", 150.0)).unwrap();
        assert_eq!(sink.lock().len(), 1, "150 no longer abnormal after refresh");
        re.send_trace(&trace(120_000, "R1", 600.0)).unwrap();
        assert_eq!(sink.lock().len(), 2, "600 crosses the new threshold");
    }

    #[test]
    fn failed_refresh_leaves_the_old_rules_standing() {
        // The statistics table vanishing mid-operation (a batch-layer
        // republish gone wrong) must fail the refresh *without* tearing
        // down the rules that were serving detections.
        for method in [RetrievalMethod::ThresholdStream, RetrievalMethod::MultipleRules] {
            let store = store_with_stats();
            let mut re = RuleEngine::new(method.clone(), store.clone(), None);
            re.install_rule(&rule(1), monitored()).unwrap();
            let sink = re.detections();
            re.send_trace(&trace(1000, "R1", 150.0)).unwrap();
            assert_eq!(sink.lock().len(), 1, "{method:?}: rule fires before");
            let statements_before = re.statement_count();

            store
                .store()
                .drop_table(&tms_storage::thresholds::statistics_table_name("delay"))
                .unwrap();
            let err = re.refresh_thresholds();
            assert!(
                matches!(
                    err,
                    Err(CoreError::Storage(tms_storage::StorageError::TableNotFound(_)))
                ),
                "{method:?}: refresh must surface the missing table"
            );
            assert_eq!(
                re.statement_count(),
                statements_before,
                "{method:?}: failed refresh must not add or remove statements"
            );
            // The old rules (and their threshold state) still detect.
            re.send_trace(&trace(60_000, "R1", 150.0)).unwrap();
            assert_eq!(
                sink.lock().len(),
                2,
                "{method:?}: rule still fires after the failed refresh"
            );
        }
    }

    #[test]
    fn a_batch_with_an_invalid_second_spec_installs_nothing() {
        let mut good = rule(2);
        good.name = "good".into();
        let mut bad = rule(2);
        bad.name = "bad".into();
        bad.window_length = 0;
        for method in methods() {
            let mut re = RuleEngine::new(method.clone(), store_with_stats(), None);
            let err = re.install_rules(&[good.clone(), bad.clone()], monitored());
            assert!(matches!(err, Err(CoreError::Rule { .. })), "{method:?}: {err:?}");
            assert_eq!(re.statement_count(), 0, "{method:?}: no statement stands");
            assert!(re.monitored("good").is_none(), "{method:?}: good is not installed");
            assert!(re.monitored("bad").is_none(), "{method:?}");
        }
    }

    #[test]
    fn a_batch_whose_snapshot_read_fails_installs_nothing() {
        // No speed statistics exist: the second rule's snapshot read fails
        // after the first rule's would have succeeded.
        let mut speed =
            RuleSpec::new("speed", Attribute::Speed, LocationSelector::QuadtreeLeaves, 1);
        speed.s = 0.0;
        for method in [RetrievalMethod::ThresholdStream, RetrievalMethod::MultipleRules] {
            let mut re = RuleEngine::new(method.clone(), store_with_stats(), None);
            let err = re.install_rules(&[rule(2), speed.clone()], monitored());
            assert!(
                matches!(err, Err(CoreError::Storage(tms_storage::StorageError::TableNotFound(_)))),
                "{method:?}: {err:?}"
            );
            assert_eq!(re.statement_count(), 0, "{method:?}: no statement stands");
            assert!(re.monitored("delay-rule").is_none(), "{method:?}");
            assert!(re.monitored("speed").is_none(), "{method:?}");
            // The engine is as it was: the valid rule installs on its own.
            re.install_rule(&rule(2), monitored()).unwrap();
            re.send_trace(&trace(1000, "R1", 150.0)).unwrap();
            assert_eq!(re.detections().lock().len(), 1, "{method:?}");
        }
    }

    #[test]
    fn first_reports_without_derived_attributes_are_skipped() {
        let mut re = RuleEngine::new(RetrievalMethod::ThresholdStream, store_with_stats(), None);
        let mut speed_rule = RuleSpec::new(
            "speed-rule",
            Attribute::Speed,
            LocationSelector::QuadtreeLeaves,
            1,
        );
        speed_rule.s = 0.0;
        // No speed statistics exist; install still works (empty stream).
        let err = re.install_rule(&speed_rule, monitored());
        assert!(
            matches!(err, Err(CoreError::Storage(tms_storage::StorageError::TableNotFound(_)))),
            "installing a rule without statistics reports the missing table"
        );
    }

    #[test]
    fn rule_profiles_aggregate_per_installed_rule() {
        // MultipleRules installs one statement per (location, hour, day)
        // cell; the profile must still come back as ONE row per rule.
        let mut re = RuleEngine::new(RetrievalMethod::MultipleRules, store_with_stats(), None);
        re.install_rule(&rule(2), monitored()).unwrap();
        assert!(re.rule_profiles(0).is_empty(), "profiling off ⇒ no profiles");
        re.set_profiling_enabled(true);
        assert!(re.profiling_enabled());
        re.send_trace(&trace(1000, "R1", 150.0)).unwrap();
        re.send_trace(&trace(2000, "R2", 170.0)).unwrap();
        let profiles = re.rule_profiles(3);
        assert_eq!(profiles.len(), 1, "two statements, one rule");
        let p = &profiles[0];
        assert_eq!(p.rule, "delay-rule");
        assert_eq!(p.engine, 3);
        assert_eq!(p.events_in, 4, "each event reaches both cell statements");
        assert!(p.evals >= 2, "both statements evaluated, got {}", p.evals);
        assert_eq!(p.eval.count(), p.evals, "one histogram sample per eval");
        assert!(p.firings >= 1, "R1 crossed its threshold");
        assert!(p.eval.sum_ns() > 0);
    }

    #[test]
    fn threshold_age_tracks_snapshot_and_lookup_recency() {
        let mut re = RuleEngine::new(RetrievalMethod::ThresholdStream, store_with_stats(), None);
        re.install_rule(&rule(1), monitored()).unwrap();
        re.set_profiling_enabled(true);
        std::thread::sleep(std::time::Duration::from_millis(15));
        let age = re.rule_profiles(0)[0].threshold_age.expect("snapshot method has an age");
        assert!(age >= std::time::Duration::from_millis(10), "age grows: {age:?}");
        // A refresh re-reads the snapshot and resets the clock.
        re.refresh_thresholds().unwrap();
        let refreshed = re.rule_profiles(0)[0].threshold_age.unwrap();
        assert!(refreshed < age, "refresh resets staleness: {refreshed:?} vs {age:?}");

        // Join-with-Database re-stamps on every tuple that looked up.
        let mut re =
            RuleEngine::new(RetrievalMethod::JoinWithDatabase, store_with_stats(), None);
        re.install_rule(&rule(1), monitored()).unwrap();
        re.set_profiling_enabled(true);
        std::thread::sleep(std::time::Duration::from_millis(15));
        re.send_trace(&trace(1000, "R1", 10.0)).unwrap();
        let age = re.rule_profiles(0)[0].threshold_age.unwrap();
        assert!(age < std::time::Duration::from_millis(10), "lookup re-stamped: {age:?}");

        // Static literals never retrieved anything.
        let mut re =
            RuleEngine::new(RetrievalMethod::StaticOptimal(50.0), store_with_stats(), None);
        re.install_rule(&rule(1), monitored()).unwrap();
        re.set_profiling_enabled(true);
        assert_eq!(re.rule_profiles(0)[0].threshold_age, None);
    }

    #[test]
    fn a_lookup_restamps_only_the_rules_on_the_stream_it_served() {
        let mut re = RuleEngine::new(RetrievalMethod::JoinWithDatabase, store_with_stats(), None);
        let mut speed =
            RuleSpec::new("speed-rule", Attribute::Speed, LocationSelector::QuadtreeLeaves, 1);
        speed.s = 0.0;
        re.install_rule(&rule(1), monitored()).unwrap();
        re.install_rule(&speed, monitored()).unwrap();
        for name in ["delay-rule", "speed-rule"] {
            re.backdate_thresholds(name, Duration::from_secs(60));
        }
        // A trace without a speed reading looks up the delay threshold alone.
        let mut no_speed = trace(1000, "R1", 10.0);
        no_speed.speed_kmh = None;
        assert_eq!(re.send_trace(&no_speed).unwrap(), 1);
        let age = |rule: &str| {
            let ages = re.threshold_ages();
            ages.into_iter().find(|(name, _)| name == rule).and_then(|(_, age)| age).unwrap()
        };
        assert!(age("delay-rule") < Duration::from_secs(1), "the delay lookup re-stamped it");
        assert!(age("speed-rule") >= Duration::from_secs(60), "no speed lookup: age kept");
    }

    #[test]
    fn migration_hands_off_rule_state_between_engines() {
        // R2 migrates from `source` to `dest` mid-stream; a reference
        // engine that served R2 the whole time must detect identically.
        let store = store_with_stats();
        let mut source = RuleEngine::new(RetrievalMethod::ThresholdStream, store.clone(), None);
        let mut dest = RuleEngine::new(RetrievalMethod::ThresholdStream, store.clone(), None);
        let mut reference = RuleEngine::new(RetrievalMethod::ThresholdStream, store, None);
        let spec = rule(3);
        source.install_rule(&spec, monitored()).unwrap();
        reference.install_rule(&spec, vec!["R2".to_string()]).unwrap();
        let ssink = source.detections();
        let dsink = dest.detections();
        let rsink = reference.detections();
        // Pre-migration: R2 builds window state below its threshold
        // (1000); R1 fires at the source.
        for (ts, d) in [(1000u64, 800.0), (2000, 900.0)] {
            source.send_trace(&trace(ts, "R2", d)).unwrap();
            reference.send_trace(&trace(ts, "R2", d)).unwrap();
        }
        source.send_trace(&trace(3000, "R1", 150.0)).unwrap();
        assert_eq!(ssink.lock().len(), 1);
        assert!(rsink.lock().is_empty());

        // Hand off R2 (dest has no rules installed at all yet).
        let migration = source.collect_migration(&["R2".to_string()]).unwrap();
        assert_eq!(migration.rules, vec![("delay-rule".to_string(), vec!["R2".to_string()])]);
        assert!(migration.event_count() >= 3, "2 window events + 1 threshold row ship");
        assert!(source.evict_migration(&migration).unwrap() >= 2);
        assert!(!source.monitored("delay-rule").unwrap().contains("R2"));
        dest.absorb_migration(std::slice::from_ref(&spec), &migration).unwrap();
        assert!(dest.monitored("delay-rule").unwrap().contains("R2"));
        assert!(dsink.lock().is_empty(), "absorbed history must not re-fire");

        // Post-migration R2 traffic: window avg crosses 1000 using the
        // migrated events; dest must match the never-migrated reference.
        for (ts, d) in [(4000u64, 1600.0), (5000, 1700.0)] {
            dest.send_trace(&trace(ts, "R2", d)).unwrap();
            reference.send_trace(&trace(ts, "R2", d)).unwrap();
        }
        assert_eq!(*dsink.lock(), *rsink.lock());
        assert!(!dsink.lock().is_empty(), "the scenario must actually fire");
        // Replayed R2 traffic at the source is ignored, not double-counted.
        assert_eq!(source.send_trace(&trace(4000, "R2", 1600.0)).unwrap(), 0);
        assert_eq!(ssink.lock().len(), 1, "source only ever fired for R1");
    }

    #[test]
    fn monitored_union_and_threshold_ages_cover_all_rules() {
        let mut re = RuleEngine::new(RetrievalMethod::ThresholdStream, store_with_stats(), None);
        re.install_rule(&rule(3), monitored()).unwrap();
        let union = re.monitored_union();
        let mut expected: Vec<String> = monitored().into_iter().collect();
        expected.sort();
        expected.dedup();
        assert_eq!(union, expected);
        let ages = re.threshold_ages();
        assert_eq!(ages.len(), 1);
        assert_eq!(ages[0].0, "delay-rule");
        assert!(ages[0].1.is_some(), "threshold stream stamps at install");
    }

    #[test]
    fn backdate_thresholds_sets_the_age_and_survives_refresh_stamp_semantics() {
        let mut re = RuleEngine::new(RetrievalMethod::ThresholdStream, store_with_stats(), None);
        re.install_rule(&rule(3), monitored()).unwrap();
        re.backdate_thresholds("delay-rule", Duration::from_secs(90));
        let age = re.threshold_ages()[0].1.expect("still stamped");
        assert!(age >= Duration::from_secs(90), "backdated age reads old: {age:?}");
        assert!(age < Duration::from_secs(91), "but not older than asked");
        // Unknown rules are a no-op, not a panic.
        re.backdate_thresholds("no-such-rule", Duration::from_secs(1));
        // A refresh re-stamps to fresh, exactly like the live path.
        re.refresh_thresholds().unwrap();
        assert!(re.threshold_ages()[0].1.unwrap() < Duration::from_secs(1));
    }

    fn sample_state() -> EsperState {
        EsperState {
            migration: RuleMigration {
                rules: vec![
                    ("delay-rule".into(), vec!["R1".into(), "R7".into()]),
                    ("speed-rule".into(), vec![]),
                ],
                partitions: vec![
                    PartitionState {
                        stream: "bus_delay".into(),
                        rows: vec![
                            (
                                17,
                                vec![
                                    FieldValue::from("R1"),
                                    FieldValue::Int(-8),
                                    FieldValue::Float(3.25),
                                    FieldValue::Bool(true),
                                ],
                            ),
                            (42, vec![FieldValue::Float(f64::NAN)]),
                        ],
                    },
                    PartitionState { stream: "thresholds_delay_rule".into(), rows: vec![] },
                ],
            },
            rule_ages: vec![("delay-rule".into(), Some(12345)), ("speed-rule".into(), None)],
            snapshot_unix_ms: 1_700_000_000_123,
        }
    }

    #[test]
    fn esper_state_round_trips() {
        let state = sample_state();
        let bytes = encode_value(&state);
        let back: EsperState = decode_value(&bytes).expect("decodes");
        // NaN breaks PartialEq; compare the NaN cell by bits and the rest
        // structurally.
        assert_eq!(back.rule_ages, state.rule_ages);
        assert_eq!(back.snapshot_unix_ms, state.snapshot_unix_ms);
        assert_eq!(back.migration.rules, state.migration.rules);
        assert_eq!(back.migration.partitions.len(), 2);
        assert_eq!(back.migration.partitions[0].rows[0], state.migration.partitions[0].rows[0]);
        match (&back.migration.partitions[0].rows[1].1[0], &state.migration.partitions[0].rows[1].1[0]) {
            (FieldValue::Float(a), FieldValue::Float(b)) => {
                assert_eq!(a.to_bits(), b.to_bits(), "NaN round-trips bit-exact");
            }
            other => panic!("expected floats, got {other:?}"),
        }
    }

    #[test]
    fn truncated_or_garbage_snapshots_are_rejected() {
        let rejected = |bytes: &[u8]| decode_value::<EsperState>(bytes).is_err();
        let bytes = encode_value(&sample_state());
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(rejected(&bytes[..cut]), "cut at {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0xFF);
        assert!(rejected(&extended), "trailing garbage rejected");
        let mut wrong_version = bytes;
        wrong_version[0] = ESPER_STATE_VERSION + 1;
        assert!(rejected(&wrong_version), "future versions rejected");
        wrong_version[0] = ESPER_STATE_VERSION - 1;
        assert!(rejected(&wrong_version), "the pre-frame layout's version rejected");
    }

    /// A count the bytes do not back must be an `Err` before anything is
    /// allocated for it: an allocation of that size aborts the process,
    /// and an abort is not a panic a `catch_unwind` supervisor restarts.
    #[test]
    fn hostile_counts_are_errors_not_allocations() {
        let state = sample_state();
        let bytes = encode_value(&state);
        let (rules, partitions) = (&state.migration.rules, &state.migration.partitions);
        let ages_at = 1 + 8; // version byte, snapshot stamp
        let rules_at = ages_at + encode_value(&state.rule_ages).len();
        let locations_at = rules_at + 4 + encode_value(&rules[0].0).len();
        let partitions_at = rules_at + encode_value(rules).len();
        let rows_at = partitions_at + 4 + encode_value(&partitions[0].stream).len();
        let fields_at = rows_at + 4 + 8; // row count, first row's timestamp
        for (what, at, count) in [
            ("rule ages", ages_at, 2u32),
            ("rules", rules_at, 2),
            ("locations", locations_at, 2),
            ("partitions", partitions_at, 2),
            ("rows", rows_at, 2),
            ("fields", fields_at, 4),
        ] {
            let mut hostile = bytes.clone();
            assert_eq!(hostile[at..at + 4], count.to_le_bytes(), "{what} count sits at byte {at}");
            hostile[at..at + 4].copy_from_slice(&[0xFF; 4]);
            match decode_value::<EsperState>(&hostile) {
                Err(DspsError::Frame { reason }) => {
                    assert!(reason.contains("4294967295 items"), "{what}: {reason}")
                }
                other => panic!("{what} count 0xFFFF_FFFF: expected a frame error, got {other:?}"),
            }
        }
    }

    fn field_values() -> impl Strategy<Value = FieldValue> {
        let floats = (0u64..u64::MAX).prop_map(|bits| {
            // Any bit pattern (NaNs with payloads included), with the
            // three named specials forced in now and then.
            FieldValue::Float(match bits % 8 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => f64::from_bits(bits),
            })
        });
        (0u8..4, i64::MIN..i64::MAX, floats, ".{0,6}", any::<bool>()).prop_map(
            |(kind, int, float, text, flag)| match kind {
                0 => FieldValue::Int(int),
                1 => float,
                2 => FieldValue::from(text.as_str()),
                _ => FieldValue::Bool(flag),
            },
        )
    }

    fn esper_states() -> impl Strategy<Value = EsperState> {
        let rows = prop::collection::vec(
            (0u64..u64::MAX, prop::collection::vec(field_values(), 0..5)),
            0..4,
        );
        let partitions = prop::collection::vec(
            (".{0,8}", rows).prop_map(|(stream, rows)| PartitionState { stream, rows }),
            0..=2,
        );
        let rules =
            prop::collection::vec((".{0,8}", prop::collection::vec(".{0,4}", 0..3)), 0..=3);
        let ages = prop::collection::vec((".{0,8}", prop::option::of(0u64..u64::MAX)), 0..=3);
        (rules, partitions, ages, 0u64..u64::MAX).prop_map(
            |(rules, partitions, rule_ages, snapshot_unix_ms)| EsperState {
                migration: RuleMigration { rules, partitions },
                rule_ages,
                snapshot_unix_ms,
            },
        )
    }

    #[test]
    fn esper_state_codec_holds() {
        crate::codec_harness::codec_holds(esper_states());
    }

    #[test]
    fn migration_is_rejected_for_multiple_rules() {
        let mut re = RuleEngine::new(RetrievalMethod::MultipleRules, store_with_stats(), None);
        re.install_rule(&rule(2), monitored()).unwrap();
        assert!(matches!(
            re.collect_migration(&["R1".to_string()]),
            Err(CoreError::Config { .. })
        ));
    }

    #[test]
    fn detections_carry_timestamps_and_thresholds() {
        let mut re = RuleEngine::new(RetrievalMethod::ThresholdStream, store_with_stats(), None);
        re.install_rule(&rule(1), monitored()).unwrap();
        let sink = re.detections();
        re.send_trace(&trace(5000, "R1", 200.0)).unwrap();
        let got = sink.lock();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].timestamp_ms, 5000 + 8 * tms_traffic::HOUR_MS);
        assert_eq!(got[0].threshold, Some(100.0));
        assert_eq!(got[0].rule, "delay-rule");
    }
}
