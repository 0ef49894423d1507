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
//! drift. A cell's row is finished by the batch job's own function — the
//! *population* stdv (`sqrt(sum_sq/n − mean²)`), the same `min_samples`
//! guard — so the kappa and batch paths agree bit for bit on the same
//! input and are directly comparable in the staleness ablation.
//!
//! [`TrafficMessage::StatsRefresh`]: crate::topology::TrafficMessage::StatsRefresh
//! [`RuleEngine::refresh_thresholds`]: crate::thresholds::RuleEngine::refresh_thresholds

use crate::offline::stat_record;
use crate::topology::TrafficMessage;
use std::collections::BTreeMap;
use std::sync::Arc;
use tms_cep::agg::Accumulator;
use tms_dsps::bytes::BytesMut;
use tms_dsps::transport::{
    decode_seq, decode_value, encode_seq, encode_value, WireCodec, WireReader,
};
use tms_dsps::{Bolt, BoltContext, DspsError, Emitter, FlightKind, FlightRecorder};
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
/// Durability: the bolt is snapshot-only (no changelog); its snapshot is
/// its `StatsState`, so a restart resumes the exact accumulated state.
///
/// [`TrafficMessage::StatsRefresh`]: crate::topology::TrafficMessage::StatsRefresh
pub struct StatsBolt {
    config: KappaConfig,
    store: ThresholdStore,
    /// The attributes the installed rules monitor, in [`Attribute::ALL`]
    /// order; a cell key's `u8` indexes into this.
    attributes: Vec<Attribute>,
    state: StatsState,
    /// Optional control-plane event log: every publication becomes a
    /// [`FlightKind::StatsRefresh`] event.
    flight: Option<Arc<FlightRecorder>>,
}

/// What a [`StatsBolt`] snapshots: every cell's raw moments plus the
/// publication counters.
#[derive(Debug, Default, PartialEq)]
struct StatsState {
    cells: BTreeMap<CellKey, Accumulator>,
    /// Monotonic snapshot version; bumped per publication and carried by
    /// the refresh message so engines ignore stale or duplicate refreshes.
    version: u64,
    since_publish: u64,
    /// Whether any cell changed since the last publication.
    dirty: bool,
}

/// Format version of an encoded [`StatsState`], its first byte.
const STATS_STATE_VERSION: u8 = 1;

impl WireCodec for StatsState {
    fn encode(&self, buf: &mut BytesMut) {
        STATS_STATE_VERSION.encode(buf);
        self.version.encode(buf);
        self.since_publish.encode(buf);
        self.dirty.encode(buf);
        encode_seq(self.cells.iter(), buf, |((ai, location, hour, day), acc), buf| {
            ai.encode(buf);
            location.to_string().encode(buf);
            hour.encode(buf);
            day.encode(buf);
            let (count, sum, sum_sq, min, max) = acc.raw_parts();
            count.encode(buf);
            [sum, sum_sq, min, max].iter().for_each(|moment| moment.encode(buf));
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        r.expect_version("StatsBolt snapshot", STATS_STATE_VERSION)?;
        let (version, since_publish, dirty) = (u64::decode(r)?, u64::decode(r)?, bool::decode(r)?);
        let cells = decode_seq(r, |r| {
            let (ai, location) = (u8::decode(r)?, String::decode(r)?);
            let location = location.parse().map_err(|_| DspsError::Frame {
                reason: format!("'{location}' is not a location id"),
            })?;
            let key = (ai, location, u8::decode(r)?, u8::decode(r)?);
            let count = u64::decode(r)?;
            let (sum, sum_sq, min, max) =
                (f64::decode(r)?, f64::decode(r)?, f64::decode(r)?, f64::decode(r)?);
            Ok((key, Accumulator::from_raw_parts(count, sum, sum_sq, min, max)))
        })?;
        Ok(StatsState { cells: cells.into_iter().collect(), version, since_publish, dirty })
    }
}

impl StatsBolt {
    /// Creates the bolt tracking `attributes`.
    pub fn new(config: KappaConfig, store: ThresholdStore, attributes: Vec<Attribute>) -> Self {
        StatsBolt {
            config,
            store,
            attributes,
            state: StatsState::default(),
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
                self.state.cells.insert(
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
        for (&(ai, location, hour, day), acc) in &self.state.cells {
            let (count, sum, sum_sq, _, _) = acc.raw_parts();
            let cell = (location, hour, day_from_index(day));
            if let Some(record) = stat_record(cell, (count, sum, sum_sq), self.config.min_samples) {
                per_attr[ai as usize].push(record);
            }
        }
        for (ai, records) in per_attr.iter().enumerate() {
            if self.store.publish(self.attributes[ai].name(), records).is_err() {
                return None;
            }
        }
        self.state.version += 1;
        self.state.since_publish = 0;
        self.state.dirty = false;
        if let Some(flight) = &self.flight {
            let published: usize = per_attr.iter().map(Vec::len).sum();
            flight.record(
                FlightKind::StatsRefresh,
                "stats",
                -1,
                format!(
                    "snapshot v{} published: {published} records over {} attributes",
                    self.state.version,
                    self.attributes.len()
                ),
            );
        }
        Some(self.state.version)
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
                self.state
                    .cells
                    .entry((ai as u8, *location, hour, day))
                    .or_default()
                    .add(value);
            }
        }
        self.state.dirty = true;
        self.state.since_publish += 1;
        if self.state.since_publish >= self.config.refresh_every {
            if let Some(version) = self.publish() {
                emitter.emit(TrafficMessage::StatsRefresh { version });
            }
        }
    }

    fn finish(&mut self, emitter: &mut dyn Emitter<TrafficMessage>) {
        // Flush the last partial accumulation window.
        if self.state.dirty {
            if let Some(version) = self.publish() {
                emitter.emit(TrafficMessage::StatsRefresh { version });
            }
        }
    }

    fn snapshot_state(&mut self) -> Option<Vec<u8>> {
        Some(encode_value(&self.state))
    }

    fn restore_state(
        &mut self,
        snapshot: Option<&[u8]>,
        _changelog: &[Vec<u8>],
    ) -> Result<(), DspsError> {
        // A snapshot that does not decode leaves the prepare() seed in place.
        if let Some(bytes) = snapshot {
            self.state = decode_value(bytes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use tms_storage::TableStore;

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
        restored.restore_state(Some(&snapshot), &[]).expect("restores");
        assert_eq!(restored.state.since_publish, 3);
        assert_eq!(restored.state.cells, {
            // Rebuild the expected map from the original bolt's cells.
            b.state.cells.clone()
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
        assert!(matches!(b.restore_state(Some(&[1, 2, 3]), &[]), Err(DspsError::Frame { .. })));
        assert_eq!(b.state.version, 0);
        assert!(b.state.cells.is_empty());
    }

    #[test]
    fn a_hostile_cell_count_is_an_error_not_an_allocation() {
        let store = ThresholdStore::new(TableStore::new());
        let mut b = bolt(100, 1, &store);
        b.prepare(BoltContext { task_index: 0, task_count: 1 });
        b.process(enriched(0, "R1", 10.0), &mut Captured::default());
        let mut snapshot = b.snapshot_state().expect("stats bolt snapshots");
        let count_at = 1 + 8 + 8 + 1; // format version, version, since_publish, dirty
        assert_eq!(snapshot[count_at..count_at + 4], 1u32.to_le_bytes());
        snapshot[count_at..count_at + 4].copy_from_slice(&[0xFF; 4]);
        let before = encode_value(&b.state);
        assert!(matches!(b.restore_state(Some(&snapshot), &[]), Err(DspsError::Frame { .. })));
        assert_eq!(encode_value(&b.state), before, "a refused snapshot leaves the state alone");
        // And a snapshot of another format version says so.
        snapshot[0] = STATS_STATE_VERSION + 1;
        match b.restore_state(Some(&snapshot), &[]) {
            Err(DspsError::Frame { reason }) => assert!(reason.contains("format version"), "{reason}"),
            other => panic!("expected a version error, got {other:?}"),
        }
    }

    #[test]
    fn stats_state_codec_holds() {
        use proptest::prelude::*;
        let moments = || (0u64..u64::MAX).prop_map(f64::from_bits);
        let cell = (
            (0u8..3, 0u32..50, any::<bool>(), 0u8..24, 0u8..2),
            (0u64..1000, moments(), moments(), moments(), moments()),
        )
            .prop_map(|((ai, n, stop, hour, day), (count, sum, sum_sq, min, max))| {
                let location = if stop { LocId::Stop(n) } else { LocId::Region(n) };
                let acc = Accumulator::from_raw_parts(count, sum, sum_sq, min, max);
                ((ai, location, hour, day), acc)
            });
        let states = (prop::collection::vec(cell, 0..5), 0u64..u64::MAX, 0u64..999, any::<bool>())
            .prop_map(|(cells, version, since_publish, dirty)| StatsState {
                cells: cells.into_iter().collect(),
                version,
                since_publish,
                dirty,
            });
        crate::codec_harness::codec_holds(states);
    }

    #[test]
    fn config_validates() {
        assert!(KappaConfig::default().validate().is_ok());
        assert!(KappaConfig { refresh_every: 0, min_samples: 1 }.validate().is_err());
    }
}
