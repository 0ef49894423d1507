//! The off-line computation component (Section 4.1): spatial indexing,
//! bus-stop recovery, historical statistics via MapReduce, and region
//! input-rate estimation.
//!
//! Data flow, matching Figure 3: pre-processed traces are stored to the
//! DFS (arrow 2); the batch layer periodically runs the statistics job
//! over them (arrows 3–4), computing `mean` and `stdv` of every Table 6
//! attribute per (location, hour, day-type); results land in the storage
//! medium (arrow 4) where the on-line layer fetches them as thresholds
//! (arrow 5).

use crate::error::CoreError;
use crate::partitioning::RegionRate;
use crate::rules::{LocationSelector, SpatialContext};
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tms_batch::{run_job, Combiner, Dfs, JobConfig, Mapper, Reducer};
use tms_geo::{
    busstops::SubclusterConfig, BusStopIndex, DenclueConfig, GeoPoint, QuadtreeConfig,
    RegionQuadtree, StopObservation,
};
use tms_storage::{DayType, StatRecord, TableStore, ThresholdStore};
use tms_traffic::{Attribute, BusTrace, EnrichedTrace, LocId, Preprocessor};

/// Configuration of the off-line component.
#[derive(Debug, Clone)]
pub struct OfflineConfig {
    /// Quadtree construction parameters (Section 4.1.1).
    pub quadtree: QuadtreeConfig,
    /// DENCLUE parameters for bus-stop recovery (Section 4.1.2).
    pub denclue: DenclueConfig,
    /// Angle sub-clustering parameters.
    pub subcluster: SubclusterConfig,
    /// MapReduce job sizing for the statistics job.
    pub job: JobConfig,
    /// Minimum observations before a (location, hour, day-type) cell gets
    /// statistics (tiny cells produce garbage thresholds).
    pub min_samples: u64,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        OfflineConfig {
            quadtree: QuadtreeConfig::default(),
            denclue: DenclueConfig::default(),
            subcluster: SubclusterConfig::default(),
            job: JobConfig::default(),
            min_samples: 10,
        }
    }
}

/// Everything the off-line component produces.
#[derive(Debug, Clone)]
pub struct OfflineArtifacts {
    /// Quadtree + recovered bus stops.
    pub spatial: SpatialContext,
    /// Expected input rate (tuples/s) per location id, from history.
    pub region_rates: HashMap<String, f64>,
    /// The threshold store fed by the statistics job.
    pub thresholds: ThresholdStore,
    /// How many times [`Self::rates_for`] defaulted a location to rate 0
    /// because the history never saw it. Used to default silently for a
    /// long time; the counter makes that visible (metrics gauge
    /// `unseen_locations`) — a high value means the partitioner planned
    /// on guesses. Shared across clones, so the system's gauge sees
    /// counts from planning done before the run started.
    unseen_locations: Arc<AtomicU64>,
}

impl OfflineArtifacts {
    /// Assembles the artifacts with a fresh unseen-location counter.
    pub fn new(
        spatial: SpatialContext,
        region_rates: HashMap<String, f64>,
        thresholds: ThresholdStore,
    ) -> Self {
        OfflineArtifacts {
            spatial,
            region_rates,
            thresholds,
            unseen_locations: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Rates for the locations of a selector, defaulting unseen locations
    /// to 0 (they still get routed, just assumed quiet). Each default is
    /// counted in [`Self::unseen_location_count`].
    pub fn rates_for(&self, selector: &LocationSelector) -> Vec<RegionRate> {
        self.spatial
            .resolve(selector)
            .into_iter()
            .map(|region| {
                let rate = match self.region_rates.get(&region) {
                    Some(r) => *r,
                    None => {
                        self.unseen_locations.fetch_add(1, Ordering::Relaxed);
                        0.0
                    }
                };
                RegionRate { rate, region }
            })
            .collect()
    }

    /// Total locations defaulted to rate 0 so far (across clones).
    pub fn unseen_location_count(&self) -> u64 {
        self.unseen_locations.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Spatial indexing (Sections 4.1.1, 4.1.2)
// ---------------------------------------------------------------------------

/// Builds the quadtree (from "important coordinates", e.g. route
/// vertices) and the bus-stop index (from noisy stop observations).
pub fn build_spatial(
    bbox: tms_geo::BoundingBox,
    seeds: &[GeoPoint],
    stop_observations: &[StopObservation],
    config: &OfflineConfig,
) -> Result<SpatialContext, CoreError> {
    let quadtree = RegionQuadtree::build(bbox, seeds, config.quadtree)?;
    let stops = BusStopIndex::build(stop_observations, config.denclue, config.subcluster)?;
    Ok(SpatialContext { quadtree, stops })
}

/// Extracts stop observations from raw traces: reports flagged `at_stop`,
/// with the entry bearing taken from the previous report of the vehicle.
pub fn stop_observations(traces: &[BusTrace]) -> Vec<StopObservation> {
    let mut last_pos: HashMap<u32, GeoPoint> = HashMap::new();
    let mut out = Vec::new();
    for t in traces {
        let prev = last_pos.insert(t.vehicle_id, t.position);
        if t.at_stop {
            let bearing = prev
                .filter(|p| p.haversine_m(&t.position) > 1.0)
                .map(|p| p.bearing_deg(&t.position))
                .unwrap_or(0.0);
            out.push(StopObservation {
                line_id: t.line_id,
                direction: t.direction,
                position: t.position,
                entry_bearing_deg: bearing,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Enrichment + DFS storage (Figure 3, arrow 2)
// ---------------------------------------------------------------------------

/// Enriches raw traces (speed, actual delay, areas, bus stop) exactly as
/// the on-line bolts would, and appends them to a DFS file as CSV — the
/// historical data the statistics job consumes.
pub fn enrich_and_store(
    traces: &[BusTrace],
    spatial: &SpatialContext,
    dfs: &Dfs,
    path: &str,
) -> Result<u64, CoreError> {
    enrich_store_each(traces, spatial, dfs, path, |_| {})
}

/// [`enrich_and_store`], handing each enriched trace to `each` once its
/// line is written. One areas vector serves every trace and each line is
/// written straight into the DFS buffer.
fn enrich_store_each(
    traces: &[BusTrace],
    spatial: &SpatialContext,
    dfs: &Dfs,
    path: &str,
    mut each: impl FnMut(&EnrichedTrace),
) -> Result<u64, CoreError> {
    let mut pre = Preprocessor::new();
    let mut buf = String::new();
    let mut areas = Vec::new();
    let mut n = 0u64;
    for t in traces {
        let e = enrich_into(&mut pre, spatial, *t, areas);
        write_csv_line(&mut buf, &e);
        buf.push('\n');
        each(&e);
        areas = e.areas;
        n += 1;
        if buf.len() > 1 << 20 {
            dfs.append(path, buf.as_bytes())?;
            buf.clear();
        }
    }
    if !buf.is_empty() {
        dfs.append(path, buf.as_bytes())?;
    }
    Ok(n)
}

/// Applies the PreProcess + AreaTracker + BusStopsTracker logic to one
/// trace.
pub fn enrich(pre: &mut Preprocessor, spatial: &SpatialContext, t: BusTrace) -> EnrichedTrace {
    enrich_into(pre, spatial, t, Vec::new())
}

/// [`enrich`], with `areas` (overwritten) as the trace's areas vector.
fn enrich_into(
    pre: &mut Preprocessor,
    spatial: &SpatialContext,
    t: BusTrace,
    mut areas: Vec<LocId>,
) -> EnrichedTrace {
    let mut e = pre.enrich(t);
    SpatialContext::locate_areas(&spatial.quadtree, &e.trace.position, &mut areas);
    e.areas = areas;
    e.bus_stop = spatial
        .stops
        .closest_stop(e.trace.line_id, e.trace.direction, &e.trace.position)
        .map(|s| SpatialContext::stop_id(s.id));
    e
}

/// CSV line of an enriched trace, as stored in the DFS:
/// `hour,day_type,areas(; separated),stop,delay,actual_delay,speed,congestion`.
pub fn enriched_csv_line(e: &EnrichedTrace) -> String {
    let mut line = String::new();
    write_csv_line(&mut line, e);
    line
}

/// Appends [`enriched_csv_line`]'s text to `out`, without a line break and
/// without a temporary string. A `String` takes every write.
fn write_csv_line(out: &mut String, e: &EnrichedTrace) {
    let day = DayType::from_weekday_index((e.trace.day_index() % 7) as u8);
    let _ = write!(out, "{},{},", e.trace.hour_of_day(), day.as_str());
    for (i, area) in e.areas.iter().enumerate() {
        let sep = if i == 0 { "" } else { ";" };
        let _ = write!(out, "{sep}{area}");
    }
    out.push(',');
    if let Some(stop) = e.bus_stop {
        let _ = write!(out, "{stop}");
    }
    let _ = write!(out, ",{:.3},", e.trace.delay_s);
    if let Some(v) = e.actual_delay_s {
        let _ = write!(out, "{v:.3}");
    }
    out.push(',');
    if let Some(v) = e.speed_kmh {
        let _ = write!(out, "{v:.3}");
    }
    let _ = write!(out, ",{}", e.trace.congestion);
}

// ---------------------------------------------------------------------------
// The statistics MapReduce job (Section 4.1.3)
// ---------------------------------------------------------------------------

/// One statistics cell: (attribute, location, hour, day type) — the cell
/// [`StatsBolt`](crate::kappa::StatsBolt) keys by, in the same order.
type Cell = (Attribute, LocId, u8, DayType);

/// A cell's raw moments: (count, sum, sum of squares).
type Moments = (u64, f64, f64);

/// Turns a cell's raw moments into its published row: the mean and the
/// *population* stdv, or nothing below `min_samples` (thin cells make
/// garbage thresholds). The batch job's reducer and
/// [`StatsBolt`](crate::kappa::StatsBolt)'s publication both finish here,
/// so the two paths agree bit for bit on the same samples.
pub(crate) fn stat_record(
    (location, hour, day_type): (LocId, u8, DayType),
    (count, sum, sum_sq): Moments,
    min_samples: u64,
) -> Option<StatRecord> {
    if count < min_samples {
        return None;
    }
    let n = count as f64;
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0);
    Some(StatRecord {
        area_id: location.to_string(),
        hour,
        day_type,
        mean,
        stdv: var.sqrt(),
        count,
    })
}

struct StatsMapper;

impl Mapper for StatsMapper {
    type Key = Cell;
    type Value = Moments;

    /// Parses a history line once and emits one sample per (attribute
    /// with a value, location id) pair. Malformed lines — wrong field
    /// count, hour or day type — are skipped, as are locations that are
    /// no [`LocId`] (no rule can monitor them).
    fn map(&self, record: &str, emit: &mut dyn FnMut(Cell, Moments)) {
        let mut fields = record.split(',');
        let [
            Some(hour), Some(day), Some(areas), Some(stop),
            Some(delay), Some(actual_delay), Some(speed), Some(congestion),
            None,
        ] = std::array::from_fn(|_| fields.next())
        else {
            return; // not eight fields
        };
        let (Ok(hour), Ok(day)) = (hour.parse::<u8>(), DayType::parse(day)) else { return };
        let delay = delay.parse::<f64>().ok();
        let values = [
            (Attribute::Delay, delay),
            (Attribute::ActualDelay, actual_delay.parse::<f64>().ok()),
            (Attribute::Speed, speed.parse::<f64>().ok()),
            (Attribute::DelayAndCongestion, delay.filter(|_| congestion == "true")),
        ];
        // An empty area list or stop parses as no location.
        let locations = areas.split(';').chain([stop]).filter_map(|l| l.parse::<LocId>().ok());
        for location in locations {
            for (attribute, value) in values {
                if let Some(v) = value {
                    emit((attribute, location, hour, day), (1, v, v * v));
                }
            }
        }
    }
}

struct MomentsCombiner;

impl Combiner<Moments> for MomentsCombiner {
    fn zero(&self) -> Moments {
        (0, 0.0, 0.0)
    }
    fn fold(&self, (count, sum, sum_sq): &mut Moments, value: Moments) {
        *count += value.0;
        *sum += value.1;
        *sum_sq += value.2;
    }
}

struct StatsReducer {
    min_samples: u64,
}

impl Reducer<Cell, Moments> for StatsReducer {
    type OutKey = Cell;
    type OutValue = StatRecord;

    fn reduce(&self, cell: &Cell, partials: &[Moments], emit: &mut dyn FnMut(Cell, StatRecord)) {
        let mut total = MomentsCombiner.zero();
        for partial in partials {
            MomentsCombiner.fold(&mut total, *partial);
        }
        let (_, location, hour, day) = *cell;
        if let Some(record) = stat_record((location, hour, day), total, self.min_samples) {
            emit(*cell, record);
        }
    }
}

/// Runs the statistics job over enriched-history files and publishes the
/// resulting thresholds, one snapshot per attribute, each in cell order
/// (location, hour, day type) — whatever the job's partitioning.
pub fn run_statistics_job(
    dfs: &Dfs,
    inputs: &[&str],
    store: &TableStore,
    config: &OfflineConfig,
) -> Result<HashMap<Attribute, usize>, CoreError> {
    let (outputs, _stats) = run_job(
        dfs,
        inputs,
        &StatsMapper,
        &StatsReducer { min_samples: config.min_samples },
        Some(&MomentsCombiner),
        config.job,
    )?;
    let mut rows: Vec<(Cell, StatRecord)> = outputs.into_iter().flatten().collect();
    rows.sort_unstable_by_key(|(cell, _)| *cell);
    let mut rows = rows.into_iter().peekable();
    let thresholds = ThresholdStore::new(store.clone());
    let mut published = HashMap::new();
    for attribute in Attribute::ALL {
        let records: Vec<StatRecord> =
            std::iter::from_fn(|| rows.next_if(|((a, ..), _)| *a == attribute))
                .map(|(_, record)| record)
                .collect();
        if !records.is_empty() {
            published.insert(attribute, records.len());
            thresholds.publish(attribute.name(), &records)?;
        }
    }
    Ok(published)
}

// ---------------------------------------------------------------------------
// Region input rates (Section 4.2.1's "initial knowledge ... from
// historical data")
// ---------------------------------------------------------------------------

/// Traces per location and the span of their timestamps: what a location's
/// input rate is computed from. Region and stop ids are dense, so hits are
/// counted by id and only the locations counted are named.
struct LocationHits {
    regions: Vec<u64>,
    stops: Vec<u64>,
    min_ts: u64,
    max_ts: u64,
}

impl LocationHits {
    fn new(spatial: &SpatialContext) -> Self {
        LocationHits {
            regions: vec![0; spatial.quadtree.region_count()],
            stops: vec![0; spatial.stops.len()],
            min_ts: u64::MAX,
            max_ts: 0,
        }
    }

    /// Counts one trace at `timestamp_ms` in each of `locations`.
    fn count(&mut self, timestamp_ms: u64, locations: impl IntoIterator<Item = LocId>) {
        self.min_ts = self.min_ts.min(timestamp_ms);
        self.max_ts = self.max_ts.max(timestamp_ms);
        for location in locations {
            match location {
                LocId::Region(n) => self.regions[n as usize] += 1,
                LocId::Stop(n) => self.stops[n as usize] += 1,
            }
        }
    }

    /// Tuples/second per location id; locations never counted are absent.
    fn rates(self) -> HashMap<String, f64> {
        let span_s = ((self.max_ts.saturating_sub(self.min_ts)) as f64 / 1000.0).max(1.0);
        let named = |counts: Vec<u64>, id: fn(u32) -> LocId| {
            (0u32..)
                .zip(counts)
                .filter(|&(_, n)| n > 0)
                .map(move |(i, n)| (id(i).to_string(), n as f64 / span_s))
        };
        named(self.regions, LocId::Region).chain(named(self.stops, LocId::Stop)).collect()
    }
}

/// Estimates tuples/second per location id from a span of traces.
/// Locations no trace fell in are absent, not zero.
pub fn region_rates(
    traces: &[BusTrace],
    spatial: &SpatialContext,
) -> HashMap<String, f64> {
    let mut hits = LocationHits::new(spatial);
    for t in traces {
        let regions =
            spatial.quadtree.leaf_to_root(&t.position).map(|r| SpatialContext::region_id(r.id));
        let stop = spatial.stops.closest_stop(t.line_id, t.direction, &t.position);
        hits.count(t.timestamp_ms, regions.chain(stop.map(|s| SpatialContext::stop_id(s.id))));
    }
    hits.rates()
}

/// Runs the whole off-line pipeline over a batch of historical traces.
/// The region rates are counted from the enrichment pass's own areas and
/// stops: the same locations [`region_rates`] finds, found once.
pub fn run_offline(
    bbox: tms_geo::BoundingBox,
    seeds: &[GeoPoint],
    traces: &[BusTrace],
    store: &TableStore,
    config: &OfflineConfig,
) -> Result<OfflineArtifacts, CoreError> {
    let observations = stop_observations(traces);
    let spatial = build_spatial(bbox, seeds, &observations, config)?;
    let dfs = Dfs::with_defaults();
    let mut hits = LocationHits::new(&spatial);
    enrich_store_each(traces, &spatial, &dfs, "/history/day0.csv", |e| {
        hits.count(e.trace.timestamp_ms, e.areas.iter().copied().chain(e.bus_stop));
    })?;
    run_statistics_job(&dfs, &["/history/day0.csv"], store, config)?;
    Ok(OfflineArtifacts::new(spatial, hits.rates(), ThresholdStore::new(store.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_geo::DUBLIN_BBOX;
    use tms_traffic::{FleetConfig, FleetGenerator};

    fn day_of_traces() -> (Vec<BusTrace>, Vec<GeoPoint>) {
        morning_of(9)
    }

    /// The `FleetConfig::small(seed)` morning, 06–11 h, and its route seeds.
    fn morning_of(seed: u64) -> (Vec<BusTrace>, Vec<GeoPoint>) {
        let g = FleetGenerator::new(FleetConfig::small(seed), 0).unwrap();
        let seeds = g.route_seed_points();
        // A few service hours are enough for statistics.
        let traces: Vec<BusTrace> =
            g.take_while(|t| t.timestamp_ms < 11 * tms_traffic::HOUR_MS).collect();
        (traces, seeds)
    }

    #[test]
    fn offline_pipeline_end_to_end() {
        let (traces, seeds) = day_of_traces();
        let store = TableStore::new();
        let artifacts = run_offline(
            DUBLIN_BBOX,
            &seeds,
            &traces,
            &store,
            &OfflineConfig::default(),
        )
        .unwrap();
        // Statistics exist for the delay attribute.
        let rows = artifacts
            .thresholds
            .thresholds(&tms_storage::ThresholdQuery { attribute: "delay".into(), s: 1.0 })
            .unwrap();
        assert!(!rows.is_empty(), "delay thresholds published");
        // Hours covered fall inside the generated span (06–10).
        for r in &rows {
            assert!((6..11).contains(&r.hour), "hour {} out of span", r.hour);
        }
        // Region rates: the root region sees every trace.
        let root_rate = artifacts.region_rates.get("R0").copied().unwrap();
        assert!(root_rate > 0.0);
        // Any deeper region sees at most the root's rate.
        for (region, rate) in &artifacts.region_rates {
            assert!(rate <= &root_rate, "{region} rate {rate} exceeds root {root_rate}");
        }
        // The rates_for helper aligns with the resolver.
        let leaf_rates =
            artifacts.rates_for(&LocationSelector::QuadtreeLeaves);
        assert_eq!(leaf_rates.len(), artifacts.spatial.quadtree.leaves().len());
    }

    #[test]
    fn region_rates_equal_the_per_trace_string_count() {
        let (traces, seeds) = day_of_traces();
        let spatial = build_spatial(
            DUBLIN_BBOX,
            &seeds,
            &stop_observations(&traces),
            &OfflineConfig::default(),
        )
        .unwrap();
        // The definition: one counter per id string, bumped per trace.
        let mut counts: HashMap<String, u64> = HashMap::new();
        for t in &traces {
            for r in spatial.quadtree.locate_all_layers(&t.position) {
                *counts.entry(format!("R{}", r.id.0)).or_default() += 1;
            }
            if let Some(s) = spatial.stops.closest_stop(t.line_id, t.direction, &t.position) {
                *counts.entry(format!("S{}", s.id)).or_default() += 1;
            }
        }
        let first = traces.iter().map(|t| t.timestamp_ms).min().unwrap();
        let last = traces.iter().map(|t| t.timestamp_ms).max().unwrap();
        let span_s = ((last - first) as f64 / 1000.0).max(1.0);
        let want: HashMap<String, f64> =
            counts.into_iter().map(|(k, v)| (k, v as f64 / span_s)).collect();
        assert!(want.keys().any(|k| k.starts_with('S')) && want.contains_key("R0"));
        assert_eq!(region_rates(&traces, &spatial), want);
    }

    #[test]
    fn the_bootstrap_counts_the_rates_region_rates_counts() {
        for seed in [9, 10] {
            let (traces, seeds) = morning_of(seed);
            let artifacts = run_offline(
                DUBLIN_BBOX,
                &seeds,
                &traces,
                &TableStore::new(),
                &OfflineConfig::default(),
            )
            .unwrap();
            let bits = |rates: &HashMap<String, f64>| -> std::collections::BTreeMap<String, u64> {
                rates.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect()
            };
            let want = bits(&region_rates(&traces, &artifacts.spatial));
            assert!(want.len() > 100, "seed {seed}: {} locations", want.len());
            assert_eq!(bits(&artifacts.region_rates), want, "seed {seed}");
        }
    }

    /// The CSV line as it was written with one `format!` per line and a
    /// `String` per optional field; the in-place writer must print it.
    fn csv_line_by_format(e: &EnrichedTrace) -> String {
        let day = DayType::from_weekday_index((e.trace.day_index() % 7) as u8);
        let mut areas = String::new();
        for area in &e.areas {
            let sep = if areas.is_empty() { "" } else { ";" };
            let _ = write!(areas, "{sep}{area}");
        }
        format!(
            "{},{},{},{},{:.3},{},{},{}",
            e.trace.hour_of_day(),
            day.as_str(),
            areas,
            e.bus_stop.map(|s| s.to_string()).unwrap_or_default(),
            e.trace.delay_s,
            e.actual_delay_s.map(|v| format!("{v:.3}")).unwrap_or_default(),
            e.speed_kmh.map(|v| format!("{v:.3}")).unwrap_or_default(),
            e.trace.congestion,
        )
    }

    #[test]
    fn the_csv_writer_prints_what_the_format_expression_printed() {
        let (traces, _) = day_of_traces();
        let deep: Vec<LocId> = [0, 3, 17, 70, 283, 1_134, 4_294_967_295].map(LocId::Region).into();
        let mut cases = Vec::new();
        for (i, t) in traces.iter().take(64).enumerate() {
            let mut trace = *t;
            // Saturday and Sunday too: day 5 and day 6 of the week.
            trace.timestamp_ms += (i as u64 % 7) * tms_traffic::DAY_MS;
            trace.delay_s = [-0.0004, -12.3456, 0.0005, 1e12, -1e15, 7.0][i % 6];
            trace.congestion = i % 3 == 0;
            let value = |k: usize| match k % 5 {
                0 => None,
                1 => Some(-0.0004),
                2 => Some(-2.5625), // a tie at the third decimal
                3 => Some(123_456_789.987_654),
                _ => Some(f64::from(i as u32) * 1.0625),
            };
            cases.push(EnrichedTrace {
                trace,
                speed_kmh: value(i),
                actual_delay_s: value(i / 5),
                areas: deep[..i % (deep.len() + 1)].to_vec(),
                bus_stop: (i % 4 != 0).then_some(LocId::Stop(i as u32 * 97)),
            });
        }
        assert!(cases.iter().any(|e| e.areas.is_empty() && e.bus_stop.is_none()));
        for e in &cases {
            assert_eq!(enriched_csv_line(e), csv_line_by_format(e), "{e:?}");
        }
        assert!(csv_line_by_format(&cases[0]).contains(",-0.000,"));
    }

    #[test]
    fn unseen_locations_are_counted_not_silently_zeroed() {
        let (traces, seeds) = day_of_traces();
        let store = TableStore::new();
        let artifacts =
            run_offline(DUBLIN_BBOX, &seeds, &traces, &store, &OfflineConfig::default())
                .unwrap();
        let before = artifacts.unseen_location_count();
        // Bus stops the history never produced traffic for default to 0
        // and each default increments the counter; a second resolve of
        // the same selector counts again (the gauge measures defaulting
        // *events*, not distinct locations).
        let stop_rates = artifacts.rates_for(&LocationSelector::BusStops);
        let zeroed = stop_rates.iter().filter(|r| r.rate == 0.0).count() as u64;
        assert_eq!(artifacts.unseen_location_count() - before, zeroed);
        // Clones share the counter, so the system's gauge observes
        // planning done through any copy.
        let clone = artifacts.clone();
        clone.rates_for(&LocationSelector::BusStops);
        assert_eq!(artifacts.unseen_location_count(), before + 2 * zeroed);
    }

    #[test]
    fn statistics_match_direct_computation() {
        // Hand-built history: one location, one hour, known values.
        let dfs = Dfs::with_defaults();
        let lines: Vec<String> = [10.0, 20.0, 30.0, 40.0]
            .iter()
            .map(|d| format!("8,weekday,R1;R5,S2,{d:.3},1.000,25.000,false"))
            .collect();
        dfs.create("/h.csv", (lines.join("\n") + "\n").as_bytes()).unwrap();
        let store = TableStore::new();
        let published = run_statistics_job(
            &dfs,
            &["/h.csv"],
            &store,
            &OfflineConfig { min_samples: 2, ..OfflineConfig::default() },
        )
        .unwrap();
        assert!(published[&Attribute::Delay] >= 3, "R1, R5 and S2 cells");
        let ts = ThresholdStore::new(store);
        let t = ts
            .threshold_for(
                &tms_storage::ThresholdQuery { attribute: "delay".into(), s: 0.0 },
                "R1",
                8,
                DayType::Weekday,
            )
            .unwrap()
            .unwrap();
        assert!((t - 25.0).abs() < 1e-9, "mean of 10..40 is 25, got {t}");
        // s = 1 adds the population stdv of [10,20,30,40] ≈ 11.18.
        let t1 = ts
            .threshold_for(
                &tms_storage::ThresholdQuery { attribute: "delay".into(), s: 1.0 },
                "R1",
                8,
                DayType::Weekday,
            )
            .unwrap()
            .unwrap();
        assert!((t1 - (25.0 + 11.180339887)).abs() < 1e-6, "got {t1}");
    }

    #[test]
    fn min_samples_filters_thin_cells() {
        let dfs = Dfs::with_defaults();
        dfs.create("/h.csv", b"8,weekday,R1,,5.000,,,false\n").unwrap();
        let store = TableStore::new();
        run_statistics_job(
            &dfs,
            &["/h.csv"],
            &store,
            &OfflineConfig { min_samples: 3, ..OfflineConfig::default() },
        )
        .unwrap();
        // One sample < min 3: nothing published for delay.
        let ts = ThresholdStore::new(store);
        let q = tms_storage::ThresholdQuery { attribute: "delay".into(), s: 1.0 };
        match ts.thresholds(&q) {
            Ok(rows) => assert!(rows.is_empty()),
            Err(tms_storage::StorageError::TableNotFound(_)) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn congestion_gated_attribute_only_counts_congested() {
        let dfs = Dfs::with_defaults();
        let mut lines = Vec::new();
        for d in [100.0, 200.0, 300.0] {
            lines.push(format!("9,weekend,R2,,{d:.3},,,true"));
        }
        for d in [1.0, 2.0, 3.0] {
            lines.push(format!("9,weekend,R2,,{d:.3},,,false"));
        }
        dfs.create("/h.csv", (lines.join("\n") + "\n").as_bytes()).unwrap();
        let store = TableStore::new();
        run_statistics_job(
            &dfs,
            &["/h.csv"],
            &store,
            &OfflineConfig { min_samples: 2, ..OfflineConfig::default() },
        )
        .unwrap();
        let ts = ThresholdStore::new(store);
        let gated = ts
            .threshold_for(
                &tms_storage::ThresholdQuery { attribute: "delay_congestion".into(), s: 0.0 },
                "R2",
                9,
                DayType::Weekend,
            )
            .unwrap()
            .unwrap();
        assert!((gated - 200.0).abs() < 1e-9, "congested mean only: {gated}");
        let all = ts
            .threshold_for(
                &tms_storage::ThresholdQuery { attribute: "delay".into(), s: 0.0 },
                "R2",
                9,
                DayType::Weekend,
            )
            .unwrap()
            .unwrap();
        assert!((all - 101.0).abs() < 1e-9, "plain delay averages all six: {all}");
    }

    #[test]
    fn stored_tables_do_not_depend_on_the_job_sizing() {
        use tms_storage::{thresholds::statistics_table_name, Value};
        let (traces, seeds) = day_of_traces();
        let config = OfflineConfig::default();
        let spatial =
            build_spatial(DUBLIN_BBOX, &seeds, &stop_observations(&traces), &config).unwrap();
        let dfs = Dfs::with_defaults();
        enrich_and_store(&traces, &spatial, &dfs, "/h.csv").unwrap();
        // Every attribute's table as stored: its rows in order, floats by bits.
        let text = |v: &Value| match v {
            Value::Float(f) => format!("{:016x}", f.to_bits()),
            other => format!("{other:?}"),
        };
        let tables = |reducers, workers| -> Vec<Vec<Vec<String>>> {
            let store = TableStore::new();
            let job = JobConfig { reducers, workers };
            run_statistics_job(&dfs, &["/h.csv"], &store, &OfflineConfig { job, ..config.clone() })
                .unwrap();
            Attribute::ALL
                .iter()
                .map(|a| {
                    store
                        .with_table(&statistics_table_name(a.name()), |t| {
                            t.scan().map(|row| row.iter().map(text).collect()).collect()
                        })
                        .unwrap_or_default() // no congested report, no table
                })
                .collect()
        };
        let reference = tables(1, 1);
        assert!(reference[..3].iter().all(|rows| rows.len() > 1_000), "three attributes publish");
        assert_eq!(tables(4, 4), reference, "reducers: 4, workers: 4");
        assert_eq!(tables(7, 2), reference, "reducers: 7, workers: 2");
    }

    #[test]
    fn stop_observations_have_bearings() {
        let (traces, _) = day_of_traces();
        let obs = stop_observations(&traces);
        assert!(!obs.is_empty(), "the fleet reports stops");
        for o in obs.iter().take(50) {
            assert!((0.0..360.0).contains(&o.entry_bearing_deg));
        }
    }

    #[test]
    fn malformed_history_lines_are_skipped() {
        let dfs = Dfs::with_defaults();
        let lines = [
            "garbage line",
            "8,weekday,R1,,1.0,,,false",
            "short,line",
            "8,weekday,R1,,1.0,,,false,extra",
            "x8,weekday,R1,,1.0,,,false",
            "8,holiday,R1,,1.0,,,false",
            // Locations that are no id: no rule could ever join their rows.
            "8,weekday,R01;Q2,S,1.0,,,false",
        ];
        dfs.create("/h.csv", (lines.join("\n") + "\n").as_bytes()).unwrap();
        let store = TableStore::new();
        // min_samples 1 so the single good line publishes.
        let published = run_statistics_job(
            &dfs,
            &["/h.csv"],
            &store,
            &OfflineConfig { min_samples: 1, ..OfflineConfig::default() },
        )
        .unwrap();
        assert_eq!(published.get(&Attribute::Delay), Some(&1usize));
    }
}
