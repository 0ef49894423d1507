//! The kappa path: in-stream incremental statistics replacing the batch
//! round trip.
//!
//! The paper recomputes thresholds with a periodic Hadoop job (Figure 3,
//! arrows 3–5): history → MapReduce → MySQL → `refresh_thresholds`. The
//! thresholds an engine evaluates against are therefore as stale as the
//! batch period — minutes at best. The [`StatsBolt`] collapses that loop
//! into the stream itself: it maintains the same per-(attribute,
//! location, hour, day-type) moments the batch job computes, but
//! incrementally, one enriched trace at a time, and republishes the
//! statistics snapshot every [`KappaConfig::refresh_every`] tuples. A
//! [`TrafficMessage::StatsRefresh`] control message then tells every
//! Esper engine to atomically swap its threshold state — the same
//! [`RuleEngine::refresh_thresholds`] path the batch layer used, minus
//! the batch.
//!
//! Determinism: cells live in a [`BTreeMap`] keyed by `(attribute,
//! location, hour, day-type)`, so a published snapshot is a pure function
//! of the multiset of traces seen — no task-completion-order float
//! drift. The published standard deviation is the *population* stdv
//! (`sqrt(sum_sq/n − mean²)`), matching the batch job's `StatsReducer`
//! bit-for-bit on the same input, so the kappa and batch paths are
//! directly comparable in the staleness ablation.
//!
//! The module also carries the binary codec for the Esper bolts' durable
//! snapshots ([`encode_esper_state`] / [`decode_esper_state`]): the
//! engine's migratable state (windows, threshold rows, monitored sets —
//! the same [`RuleMigration`] plumbing the elastic path ships between
//! engines) plus per-rule threshold ages and a wall-clock stamp, so a
//! supervised restart restores thresholds *and keeps their staleness
//! clock honest* across the downtime.
//!
//! [`TrafficMessage::StatsRefresh`]: crate::topology::TrafficMessage::StatsRefresh
//! [`RuleEngine::refresh_thresholds`]: crate::thresholds::RuleEngine::refresh_thresholds

use crate::thresholds::RuleMigration;
use crate::topology::TrafficMessage;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};
use tms_cep::agg::Accumulator;
use tms_cep::{FieldValue, PartitionState};
use tms_dsps::{Bolt, BoltContext, Emitter, FlightKind, FlightRecorder};
use tms_storage::{DayType, StatRecord, ThresholdStore};
use tms_traffic::{Attribute, LocId};

/// Configuration of the in-stream statistics path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KappaConfig {
    /// Enriched traces between statistics publications. Each publication
    /// republishes every tracked attribute's snapshot and broadcasts a
    /// refresh to the engines, so this knob trades threshold freshness
    /// against refresh work.
    pub refresh_every: u64,
    /// Minimum samples a cell needs before its statistics publish (the
    /// batch job's `min_samples` guard against garbage thresholds from
    /// thin cells).
    pub min_samples: u64,
}

impl Default for KappaConfig {
    fn default() -> Self {
        KappaConfig { refresh_every: 256, min_samples: 10 }
    }
}

impl KappaConfig {
    /// Validates the knobs.
    pub fn validate(&self) -> Result<(), crate::error::CoreError> {
        if self.refresh_every == 0 {
            return Err(crate::error::CoreError::Config {
                reason: "kappa refresh_every must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// One statistics cell key: `(attribute index, location, hour, day)`.
/// `day` is 0 = weekday, 1 = weekend. Ordered, so snapshot iteration —
/// and hence the published record order and any serialized state — is
/// deterministic.
type CellKey = (u8, LocId, u8, u8);

fn day_index(d: DayType) -> u8 {
    match d {
        DayType::Weekday => 0,
        DayType::Weekend => 1,
    }
}

fn day_from_index(i: u8) -> DayType {
    if i == 0 {
        DayType::Weekday
    } else {
        DayType::Weekend
    }
}

/// The StatsBolt: the batch statistics job folded into the stream.
///
/// Sits between the BusStopsTracker and the Esper bolts (a side branch —
/// it never forwards traces). For every enriched trace it updates one
/// [`Accumulator`] per (attribute, matched location, hour, day-type)
/// cell; every [`KappaConfig::refresh_every`] traces it publishes each
/// attribute's snapshot to the [`ThresholdStore`] (the atomic
/// whole-table replace the batch layer used) and emits a
/// [`TrafficMessage::StatsRefresh`] that the engines react to.
///
/// At `prepare` the bolt seeds its accumulators from the statistics
/// tables the offline bootstrap published, inverting `(mean, stdv,
/// count)` back into raw moments — the in-stream statistics *continue*
/// the historical ones instead of starting cold.
///
/// Durability: the bolt is snapshot-only (no changelog); its snapshot
/// serializes every cell's raw moments plus the publication counters, so
/// a restart resumes the exact accumulated state.
///
/// [`TrafficMessage::StatsRefresh`]: crate::topology::TrafficMessage::StatsRefresh
pub struct StatsBolt {
    config: KappaConfig,
    store: ThresholdStore,
    /// The attributes the installed rules monitor, in [`Attribute::ALL`]
    /// order; a cell key's `u8` indexes into this.
    attributes: Vec<Attribute>,
    cells: BTreeMap<CellKey, Accumulator>,
    /// Monotonic snapshot version; bumped per publication and carried by
    /// the refresh message so engines ignore stale or duplicate refreshes.
    version: u64,
    since_publish: u64,
    /// Whether any cell changed since the last publication.
    dirty: bool,
    /// Optional control-plane event log: every publication becomes a
    /// [`FlightKind::StatsRefresh`] event.
    flight: Option<Arc<FlightRecorder>>,
}

impl StatsBolt {
    /// Creates the bolt tracking `attributes`.
    pub fn new(config: KappaConfig, store: ThresholdStore, attributes: Vec<Attribute>) -> Self {
        StatsBolt {
            config,
            store,
            attributes,
            cells: BTreeMap::new(),
            version: 0,
            since_publish: 0,
            dirty: false,
            flight: None,
        }
    }

    /// Attaches the control-plane flight recorder.
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Seeds the accumulators from an attribute's published statistics
    /// table (the offline bootstrap's output), inverting the population
    /// moments: `sum = mean·n`, `sum_sq = (stdv² + mean²)·n`.
    fn seed_from_store(&mut self) {
        for (ai, attr) in self.attributes.iter().enumerate() {
            let Ok(records) = self.store.statistics(attr.name()) else {
                continue; // no historical table: the attribute starts cold
            };
            for r in records {
                // A row under any other name is nothing a trace can be at.
                let Ok(location) = r.area_id.parse() else { continue };
                let n = r.count as f64;
                let sum = r.mean * n;
                let sum_sq = (r.stdv * r.stdv + r.mean * r.mean) * n;
                self.cells.insert(
                    (ai as u8, location, r.hour, day_index(r.day_type)),
                    Accumulator::from_raw_parts(r.count, sum, sum_sq, f64::INFINITY, f64::NEG_INFINITY),
                );
            }
        }
    }

    /// Publishes every attribute's snapshot and bumps the version.
    /// Returns the new version, or `None` when a store write failed (the
    /// engines then keep the previous snapshot — same degradation as a
    /// failed batch run).
    fn publish(&mut self) -> Option<u64> {
        let mut per_attr: Vec<Vec<StatRecord>> = vec![Vec::new(); self.attributes.len()];
        for ((ai, location, hour, day), acc) in &self.cells {
            if acc.count() < self.config.min_samples {
                continue;
            }
            let (count, sum, sum_sq, _, _) = acc.raw_parts();
            let n = count as f64;
            let mean = sum / n;
            // Population variance, exactly as the batch StatsReducer.
            let var = (sum_sq / n - mean * mean).max(0.0);
            per_attr[*ai as usize].push(StatRecord {
                area_id: location.to_string(),
                hour: *hour,
                day_type: day_from_index(*day),
                mean,
                stdv: var.sqrt(),
                count,
            });
        }
        for (ai, records) in per_attr.iter().enumerate() {
            if self.store.publish(self.attributes[ai].name(), records).is_err() {
                return None;
            }
        }
        self.version += 1;
        self.since_publish = 0;
        self.dirty = false;
        if let Some(flight) = &self.flight {
            let published: usize = per_attr.iter().map(Vec::len).sum();
            flight.record(
                FlightKind::StatsRefresh,
                "stats",
                -1,
                format!(
                    "snapshot v{} published: {published} records over {} attributes",
                    self.version,
                    self.attributes.len()
                ),
            );
        }
        Some(self.version)
    }
}

impl Bolt<TrafficMessage> for StatsBolt {
    fn prepare(&mut self, _ctx: BoltContext) {
        self.seed_from_store();
    }

    fn process(&mut self, msg: TrafficMessage, emitter: &mut dyn Emitter<TrafficMessage>) {
        let TrafficMessage::Enriched { trace: e, .. } = msg else { return };
        let hour = e.trace.hour_of_day();
        let day = day_index(DayType::from_weekday_index((e.trace.day_index() % 7) as u8));
        for (ai, attr) in self.attributes.iter().enumerate() {
            let Some(value) = attr.value(&e) else { continue };
            for location in e.areas.iter().chain(e.bus_stop.iter()) {
                self.cells
                    .entry((ai as u8, *location, hour, day))
                    .or_default()
                    .add(value);
            }
        }
        self.dirty = true;
        self.since_publish += 1;
        if self.since_publish >= self.config.refresh_every {
            if let Some(version) = self.publish() {
                emitter.emit(TrafficMessage::StatsRefresh { version });
            }
        }
    }

    fn finish(&mut self, emitter: &mut dyn Emitter<TrafficMessage>) {
        // Flush the last partial accumulation window.
        if self.dirty {
            if let Some(version) = self.publish() {
                emitter.emit(TrafficMessage::StatsRefresh { version });
            }
        }
    }

    fn snapshot_state(&mut self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        put_u64(&mut out, self.version);
        put_u64(&mut out, self.since_publish);
        put_u64(&mut out, u64::from(self.dirty));
        put_u64(&mut out, self.cells.len() as u64);
        for ((ai, location, hour, day), acc) in &self.cells {
            out.push(*ai);
            put_str(&mut out, &location.to_string());
            out.push(*hour);
            out.push(*day);
            let (count, sum, sum_sq, min, max) = acc.raw_parts();
            put_u64(&mut out, count);
            put_f64(&mut out, sum);
            put_f64(&mut out, sum_sq);
            put_f64(&mut out, min);
            put_f64(&mut out, max);
        }
        Some(out)
    }

    fn restore_state(&mut self, snapshot: Option<&[u8]>, _changelog: &[Vec<u8>]) {
        let Some(bytes) = snapshot else { return };
        let mut r = Reader::new(bytes);
        let Some(state) = (|| {
            let version = r.u64()?;
            let since_publish = r.u64()?;
            let dirty = r.u64()? != 0;
            let n = r.u64()?;
            let mut cells = BTreeMap::new();
            for _ in 0..n {
                let ai = r.u8()?;
                let location = r.str()?.parse().ok()?;
                let hour = r.u8()?;
                let day = r.u8()?;
                let count = r.u64()?;
                let sum = r.f64()?;
                let sum_sq = r.f64()?;
                let min = r.f64()?;
                let max = r.f64()?;
                cells.insert(
                    (ai, location, hour, day),
                    Accumulator::from_raw_parts(count, sum, sum_sq, min, max),
                );
            }
            Some((version, since_publish, dirty, cells))
        })() else {
            return; // corrupt snapshot: start from the prepare() seed
        };
        (self.version, self.since_publish, self.dirty, self.cells) = state;
    }
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------
//
// Hand-rolled little-endian framing: the CEP types shipped in a snapshot
// ([`PartitionState`], [`FieldValue`]) are foreign to this crate, so a
// serde derive cannot reach them; the format below is the whole contract.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_field_value(out: &mut Vec<u8>, v: &FieldValue) {
    match v {
        FieldValue::Int(i) => {
            out.push(0);
            put_u64(out, *i as u64);
        }
        FieldValue::Float(f) => {
            out.push(1);
            put_f64(out, *f);
        }
        FieldValue::Str(s) => {
            out.push(2);
            put_str(out, s);
        }
        FieldValue::Bool(b) => {
            out.push(3);
            out.push(u8::from(*b));
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn field_value(&mut self) -> Option<FieldValue> {
        match self.u8()? {
            0 => Some(FieldValue::Int(self.u64()? as i64)),
            1 => Some(FieldValue::Float(self.f64()?)),
            2 => Some(FieldValue::from(self.str()?.as_str())),
            3 => Some(FieldValue::Bool(self.u8()? != 0)),
            _ => None,
        }
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Format version of the Esper snapshot codec; bump on layout changes so
/// stale on-disk snapshots are rejected instead of misread.
const ESPER_STATE_VERSION: u8 = 1;

/// A rule engine's durable state as serialized into a DSPS snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct EsperState {
    /// The engine's full migratable state: per-rule monitored locations
    /// plus every stream's window/threshold rows (see
    /// [`crate::thresholds::RuleEngine::collect_migration`]).
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

/// Serializes an [`EsperState`] into snapshot bytes.
pub fn encode_esper_state(state: &EsperState) -> Vec<u8> {
    let mut out = vec![ESPER_STATE_VERSION];
    put_u64(&mut out, state.snapshot_unix_ms);
    put_u32(&mut out, state.rule_ages.len() as u32);
    for (rule, age) in &state.rule_ages {
        put_str(&mut out, rule);
        match age {
            Some(ms) => {
                out.push(1);
                put_u64(&mut out, *ms);
            }
            None => out.push(0),
        }
    }
    put_u32(&mut out, state.migration.rules.len() as u32);
    for (rule, locations) in &state.migration.rules {
        put_str(&mut out, rule);
        put_u32(&mut out, locations.len() as u32);
        for l in locations {
            put_str(&mut out, l);
        }
    }
    put_u32(&mut out, state.migration.partitions.len() as u32);
    for p in &state.migration.partitions {
        put_str(&mut out, &p.stream);
        put_u32(&mut out, p.rows.len() as u32);
        for (ts, fields) in &p.rows {
            put_u64(&mut out, *ts);
            put_u32(&mut out, fields.len() as u32);
            for f in fields {
                put_field_value(&mut out, f);
            }
        }
    }
    out
}

/// Deserializes snapshot bytes back into an [`EsperState`]. `None` on a
/// truncated, trailing-garbage, or version-mismatched buffer — the caller
/// then falls back to a cold start.
pub fn decode_esper_state(bytes: &[u8]) -> Option<EsperState> {
    let mut r = Reader::new(bytes);
    if r.u8()? != ESPER_STATE_VERSION {
        return None;
    }
    let snapshot_unix_ms = r.u64()?;
    let n_ages = r.u32()?;
    let mut rule_ages = Vec::with_capacity(n_ages as usize);
    for _ in 0..n_ages {
        let rule = r.str()?;
        let age = match r.u8()? {
            0 => None,
            _ => Some(r.u64()?),
        };
        rule_ages.push((rule, age));
    }
    let n_rules = r.u32()?;
    let mut rules = Vec::with_capacity(n_rules as usize);
    for _ in 0..n_rules {
        let rule = r.str()?;
        let n_locs = r.u32()?;
        let mut locations = Vec::with_capacity(n_locs as usize);
        for _ in 0..n_locs {
            locations.push(r.str()?);
        }
        rules.push((rule, locations));
    }
    let n_parts = r.u32()?;
    let mut partitions = Vec::with_capacity(n_parts as usize);
    for _ in 0..n_parts {
        let stream = r.str()?;
        let n_rows = r.u32()?;
        let mut rows = Vec::with_capacity(n_rows as usize);
        for _ in 0..n_rows {
            let ts = r.u64()?;
            let n_fields = r.u32()?;
            let mut fields = Vec::with_capacity(n_fields as usize);
            for _ in 0..n_fields {
                fields.push(r.field_value()?);
            }
            rows.push((ts, fields));
        }
        partitions.push(PartitionState { stream, rows });
    }
    if !r.done() {
        return None; // trailing garbage: treat as corrupt
    }
    Some(EsperState { migration: RuleMigration { rules, partitions }, rule_ages, snapshot_unix_ms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use tms_storage::TableStore;

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
        let bytes = encode_esper_state(&state);
        let back = decode_esper_state(&bytes).expect("decodes");
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
        let bytes = encode_esper_state(&sample_state());
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(decode_esper_state(&bytes[..cut]), None, "cut at {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0xFF);
        assert_eq!(decode_esper_state(&extended), None, "trailing garbage rejected");
        let mut wrong_version = bytes;
        wrong_version[0] = ESPER_STATE_VERSION + 1;
        assert_eq!(decode_esper_state(&wrong_version), None, "future versions rejected");
    }

    /// Captures emissions for bolt-level tests.
    #[derive(Default)]
    struct Captured(Arc<Mutex<Vec<TrafficMessage>>>);

    impl Emitter<TrafficMessage> for Captured {
        fn emit(&mut self, msg: TrafficMessage) {
            self.0.lock().push(msg);
        }
        fn emit_direct(&mut self, _task: usize, msg: TrafficMessage) {
            self.0.lock().push(msg);
        }
    }

    fn enriched(ts: u64, area: &str, delay: f64) -> TrafficMessage {
        enriched_seq(0, ts, area, delay)
    }

    fn enriched_seq(seq: u64, ts: u64, area: &str, delay: f64) -> TrafficMessage {
        let trace = Arc::new(tms_traffic::EnrichedTrace {
            trace: tms_traffic::BusTrace {
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
            speed_kmh: None,
            actual_delay_s: None,
            areas: vec![area.parse().unwrap()],
            bus_stop: None,
        });
        TrafficMessage::Enriched { seq, trace }
    }

    fn bolt(refresh_every: u64, min_samples: u64, store: &ThresholdStore) -> StatsBolt {
        StatsBolt::new(
            KappaConfig { refresh_every, min_samples },
            store.clone(),
            vec![Attribute::Delay],
        )
    }

    #[test]
    fn stats_bolt_publishes_batch_identical_statistics() {
        // Four delay samples in one cell: the published record must equal
        // what the batch StatsReducer computes (mean 25, population stdv
        // of [10,20,30,40] ≈ 11.18).
        let store = ThresholdStore::new(TableStore::new());
        let mut b = bolt(4, 2, &store);
        b.prepare(BoltContext { task_index: 0, task_count: 1 });
        let sink = Arc::new(Mutex::new(Vec::new()));
        let mut em = Captured(sink.clone());
        for (i, d) in [10.0, 20.0, 30.0, 40.0].iter().enumerate() {
            b.process(enriched(i as u64 * 1000, "R1", *d), &mut em);
        }
        assert!(
            matches!(sink.lock().as_slice(), [TrafficMessage::StatsRefresh { version: 1 }]),
            "4 tuples at refresh_every=4 publish exactly once"
        );
        let recs = store.statistics("delay").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].area_id, "R1");
        assert_eq!(recs[0].count, 4);
        assert!((recs[0].mean - 25.0).abs() < 1e-12);
        assert!((recs[0].stdv - 11.180339887).abs() < 1e-6, "population stdv: {}", recs[0].stdv);
    }

    #[test]
    fn stats_bolt_continues_from_the_offline_snapshot() {
        // The store already carries a bootstrap cell with 4 samples; two
        // more in-stream samples must yield the 6-sample statistics, not
        // 2-sample ones.
        let store = ThresholdStore::new(TableStore::new());
        store
            .publish(
                "delay",
                &[StatRecord {
                    area_id: "R1".into(),
                    hour: 8,
                    day_type: DayType::Weekday,
                    mean: 25.0,
                    stdv: 11.180339887498949,
                    count: 4,
                }],
            )
            .unwrap();
        let mut b = bolt(2, 1, &store);
        b.prepare(BoltContext { task_index: 0, task_count: 1 });
        let mut em = Captured::default();
        b.process(enriched(0, "R1", 50.0), &mut em);
        b.process(enriched(1000, "R1", 60.0), &mut em);
        let recs = store.statistics("delay").unwrap();
        assert_eq!(recs[0].count, 6, "4 bootstrap + 2 live samples");
        let expected_mean = (10.0 + 20.0 + 30.0 + 40.0 + 50.0 + 60.0) / 6.0;
        assert!((recs[0].mean - expected_mean).abs() < 1e-9, "got {}", recs[0].mean);
    }

    #[test]
    fn thin_cells_wait_for_min_samples_and_finish_flushes() {
        let store = ThresholdStore::new(TableStore::new());
        let mut b = bolt(1000, 3, &store);
        b.prepare(BoltContext { task_index: 0, task_count: 1 });
        let sink = Arc::new(Mutex::new(Vec::new()));
        let mut em = Captured(sink.clone());
        b.process(enriched(0, "R1", 5.0), &mut em);
        b.process(enriched(1000, "R1", 6.0), &mut em);
        assert!(sink.lock().is_empty(), "refresh_every not reached: no publication");
        b.finish(&mut em);
        assert!(
            matches!(sink.lock().as_slice(), [TrafficMessage::StatsRefresh { .. }]),
            "finish flushes the partial window"
        );
        // 2 samples < min 3: the cell published as an empty snapshot.
        assert!(store.statistics("delay").unwrap().is_empty());
        b.process(enriched(2000, "R1", 7.0), &mut em);
        b.finish(&mut em);
        assert_eq!(store.statistics("delay").unwrap()[0].count, 3);
    }

    #[test]
    fn stats_bolt_snapshot_round_trips_through_restore() {
        let store = ThresholdStore::new(TableStore::new());
        let mut b = bolt(100, 1, &store);
        b.prepare(BoltContext { task_index: 0, task_count: 1 });
        let mut em = Captured::default();
        for (i, d) in [10.0, 20.0, 30.0].iter().enumerate() {
            b.process(enriched(i as u64 * 1000, "R1", *d), &mut em);
        }
        let snapshot = b.snapshot_state().expect("stats bolt snapshots");

        let fresh_store = ThresholdStore::new(TableStore::new());
        let mut restored = bolt(100, 1, &fresh_store);
        restored.prepare(BoltContext { task_index: 0, task_count: 1 });
        restored.restore_state(Some(&snapshot), &[]);
        assert_eq!(restored.since_publish, 3);
        assert_eq!(restored.cells, {
            // Rebuild the expected map from the original bolt's cells.
            b.cells.clone()
        });
        // The restored bolt finalizes identically.
        restored.finish(&mut em);
        let recs = fresh_store.statistics("delay").unwrap();
        assert_eq!(recs[0].count, 3);
        assert!((recs[0].mean - 20.0).abs() < 1e-12);
    }

    #[test]
    fn corrupt_stats_snapshots_fall_back_to_the_seed() {
        let store = ThresholdStore::new(TableStore::new());
        let mut b = bolt(100, 1, &store);
        b.prepare(BoltContext { task_index: 0, task_count: 1 });
        b.restore_state(Some(&[1, 2, 3]), &[]);
        assert_eq!(b.version, 0);
        assert!(b.cells.is_empty());
    }

    #[test]
    fn config_validates() {
        assert!(KappaConfig::default().validate().is_ok());
        assert!(KappaConfig { refresh_every: 0, min_samples: 1 }.validate().is_err());
    }
}
