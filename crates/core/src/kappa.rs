//! The kappa path: in-stream incremental statistics replacing the batch
//! round trip.
//!
//! The paper recomputes thresholds with a periodic Hadoop job (Figure 3,
//! arrows 3–5): history → MapReduce → MySQL → `refresh_thresholds`. The
//! thresholds an engine evaluates against are therefore as stale as the
//! batch period — minutes at best. The [`StatsBolt`], run by the Splitter
//! where the tuple order is fixed, folds the same per-(attribute,
//! location, hour, day-type) moments into the stream, and every
//! [`KappaConfig::refresh_every`] tuples a [`TrafficMessage::StatsRefresh`]
//! carries the tables down the tuples' own edges: every engine swaps its
//! thresholds ([`RuleEngine::refresh_thresholds`]'s path) between the same
//! two tuples.
//!
//! Determinism: cells live in a [`BTreeMap`] keyed by `(attribute,
//! location, hour, day-type)`, so a publication is a pure function of the
//! released tuples before it. A cell's row is finished by the batch job's
//! own function — the *population* stdv (`sqrt(sum_sq/n − mean²)`), the
//! same `min_samples` guard — so the two agree bit for bit on the same
//! samples in the same order: a test pins a history the job reads as one
//! DFS block, folded at its CSV's three decimals. Live values at full
//! precision, or the job's per-block partial sums, can move a mean's last
//! bits.
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
    /// carries every tracked attribute's table to every engine, which
    /// rebuilds its thresholds from it, so this knob trades threshold
    /// freshness against refresh work.
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

/// One publication: each tracked attribute's statistics table as plain
/// rows, built once and shared by every engine's refresh.
pub type Publication = Vec<(Attribute, Vec<StatRecord>)>;

/// The StatsBolt: the batch statistics job folded into the stream.
///
/// The Splitter drives it through its `Bolt` impl, one released tuple at
/// a time (it forwards no trace). For every enriched trace it updates one
/// [`Accumulator`] per (attribute, matched location, hour, day-type)
/// cell; every [`KappaConfig::refresh_every`] traces it emits a
/// [`TrafficMessage::StatsRefresh`] carrying every attribute's table. The
/// [`ThresholdStore`] is written once, by `finish`.
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

    /// Every attribute's table as the cells stand now.
    fn tables(&self) -> Publication {
        let mut tables: Publication = self.attributes.iter().map(|a| (*a, Vec::new())).collect();
        for (&(ai, location, hour, day), acc) in &self.state.cells {
            let (count, sum, sum_sq, _, _) = acc.raw_parts();
            let cell = (location, hour, day_from_index(day));
            if let Some(record) = stat_record(cell, (count, sum, sum_sq), self.config.min_samples) {
                tables[ai as usize].1.push(record);
            }
        }
        tables
    }

    /// Bumps the version and emits the tables as its refresh.
    fn publish(&mut self, emitter: &mut dyn Emitter<TrafficMessage>) {
        let statistics = Arc::new(self.tables());
        self.state.version += 1;
        self.state.since_publish = 0;
        self.state.dirty = false;
        if let Some(flight) = &self.flight {
            let published: usize = statistics.iter().map(|(_, records)| records.len()).sum();
            flight.record(
                FlightKind::StatsRefresh,
                "splitter",
                -1,
                format!(
                    "snapshot v{} published: {published} records over {} attributes",
                    self.state.version,
                    self.attributes.len()
                ),
            );
        }
        emitter.emit(TrafficMessage::StatsRefresh { version: self.state.version, statistics });
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
            self.publish(emitter);
        }
    }

    /// Flushes the last partial window, then writes the final tables back:
    /// the engines installed before the stream got here, and the next run
    /// starts from what this one learned. A failed write leaves the
    /// store's tables as they were, as a failed batch publication would.
    fn finish(&mut self, emitter: &mut dyn Emitter<TrafficMessage>) {
        if self.state.dirty {
            self.publish(emitter);
        }
        if self.state.version > 0 {
            for (attribute, records) in self.tables() {
                let _ = self.store.publish(attribute.name(), &records);
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

    /// The statistics of `attribute` the last refresh in `sent` carried.
    fn carried(sent: &[TrafficMessage], attribute: Attribute) -> Vec<StatRecord> {
        let Some(TrafficMessage::StatsRefresh { statistics, .. }) = sent.last() else {
            panic!("the last emission is a refresh")
        };
        let (_, records) = statistics.iter().find(|(a, _)| *a == attribute).expect("tracked");
        records.clone()
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
            matches!(sink.lock().as_slice(), [TrafficMessage::StatsRefresh { version: 1, .. }]),
            "4 tuples at refresh_every=4 publish exactly once"
        );
        assert!(store.statistics("delay").unwrap().is_empty(), "nothing is written mid-stream");
        let recs = carried(&sink.lock(), Attribute::Delay);
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
        let sink = Arc::new(Mutex::new(Vec::new()));
        let mut em = Captured(sink.clone());
        b.process(enriched(0, "R1", 50.0), &mut em);
        b.process(enriched(1000, "R1", 60.0), &mut em);
        let recs = carried(&sink.lock(), Attribute::Delay);
        assert_eq!(recs[0].count, 6, "4 bootstrap + 2 live samples");
        let expected_mean = (10.0 + 20.0 + 30.0 + 40.0 + 50.0 + 60.0) / 6.0;
        assert!((recs[0].mean - expected_mean).abs() < 1e-9, "got {}", recs[0].mean);
        // The store still holds the bootstrap until the run ends.
        assert_eq!(store.statistics("delay").unwrap()[0].count, 4);
        b.finish(&mut em);
        assert_eq!(store.statistics("delay").unwrap(), recs, "finish writes the tables back");
        assert_eq!(sink.lock().len(), 1, "no partial window left to flush");
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
        assert!(carried(&sink.lock(), Attribute::Delay).is_empty());
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

    /// The batch job and the fold publish the same tables, every mean and
    /// stdv to the bit, when they see the same samples in the same order:
    /// the job reads the history as one DFS block (one map task, so no
    /// partial sums merged out of order), and the fold sees each value at
    /// the three decimals the job's CSV lines carry.
    #[test]
    fn kappa_and_batch_agree_bit_for_bit_on_one_block() {
        use crate::offline::{self, OfflineConfig};
        use tms_batch::{Dfs, DfsConfig};
        let generator =
            tms_traffic::FleetGenerator::new(tms_traffic::FleetConfig::small(9), 0).unwrap();
        let seeds = generator.route_seed_points();
        let history: Vec<tms_traffic::BusTrace> =
            generator.take_while(|t| t.timestamp_ms < 9 * tms_traffic::HOUR_MS).collect();
        let config = OfflineConfig::default();
        let store = TableStore::new();
        let spatial =
            offline::run_offline(tms_geo::DUBLIN_BBOX, &seeds, &history, &store, &config)
                .unwrap()
                .spatial;
        let dfs = Dfs::new(DfsConfig { block_size: 1 << 30, ..DfsConfig::default() }).unwrap();
        offline::enrich_and_store(&history, &spatial, &dfs, "/history.csv").unwrap();
        assert_eq!(dfs.status("/history.csv").unwrap().blocks, 1);
        let batch = ThresholdStore::new(TableStore::new());
        offline::run_statistics_job(&dfs, &["/history.csv"], batch.store(), &config).unwrap();

        let kappa = KappaConfig { refresh_every: u64::MAX, min_samples: config.min_samples };
        let fold_store = ThresholdStore::new(TableStore::new());
        let mut fold = StatsBolt::new(kappa, fold_store, Attribute::ALL.to_vec());
        fold.prepare(BoltContext { task_index: 0, task_count: 1 });
        let as_csv = |v: f64| format!("{v:.3}").parse::<f64>().unwrap();
        let mut pre = tms_traffic::Preprocessor::new();
        for (seq, t) in history.iter().enumerate() {
            let mut e = offline::enrich(&mut pre, &spatial, *t);
            e.trace.delay_s = as_csv(e.trace.delay_s);
            e.actual_delay_s = e.actual_delay_s.map(as_csv);
            e.speed_kmh = e.speed_kmh.map(as_csv);
            let msg = TrafficMessage::Enriched { seq: seq as u64, trace: Arc::new(e) };
            fold.process(msg, &mut Captured::default());
        }
        let sink = Arc::new(Mutex::new(Vec::new()));
        fold.finish(&mut Captured(sink.clone()));

        let bits = |r: &StatRecord| {
            (r.area_id.clone(), r.hour, r.day_type, r.mean.to_bits(), r.stdv.to_bits(), r.count)
        };
        let mut rows = 0;
        for attribute in Attribute::ALL {
            let mut folded = carried(&sink.lock(), attribute);
            folded.sort_by_key(|r| (r.area_id.clone(), r.hour, r.day_type));
            let batched = batch.statistics(attribute.name()).unwrap();
            assert!(
                folded.iter().map(bits).eq(batched.iter().map(bits)),
                "{}: the fold's table is the job's, bit for bit",
                attribute.name()
            );
            rows += batched.len();
        }
        assert!(rows > 1000, "a real history: {rows} rows");
    }

    #[test]
    fn config_validates() {
        assert!(KappaConfig::default().validate().is_ok());
        assert!(KappaConfig { refresh_every: 0, min_samples: 1 }.validate().is_err());
    }
}
