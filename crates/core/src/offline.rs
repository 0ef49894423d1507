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
use crate::system::{pin_malloc_thresholds, release_free_memory};
use crossbeam::channel;
use std::collections::HashMap;
use std::fmt::Write;
use std::num::NonZero;
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
/// historical data the statistics job consumes. The work is split over
/// every core the process may use; the file does not depend on how many.
pub fn enrich_and_store(
    traces: &[BusTrace],
    spatial: &SpatialContext,
    dfs: &Dfs,
    path: &str,
) -> Result<u64, CoreError> {
    pin_malloc_thresholds();
    enrich_store_chunked(traces, spatial, dfs, path, ENRICH_CHUNK, available_workers())
        .map(|(lines, _)| lines)
}

/// Threads a set-up stage may use: the cores the process may run on.
fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZero::get)
}

/// Traces per enrichment chunk: a few hundred KiB of history text.
const ENRICH_CHUNK: usize = 4096;

/// Enriches `traces` in chunks of `chunk` traces on `workers` threads and
/// appends each chunk's CSV text to `path` in chunk order, so the file
/// holds the bytes, and [`Dfs::append`] cuts the blocks, that one pass in
/// trace order would. A chunk's preprocessor is first fed each vehicle's
/// last report before the chunk: that report is all the state the one
/// pass would carry into it. At most two chunks per worker are in flight,
/// each text buffer reused once its chunk is stored. Returns the line
/// count and every location's hits.
fn enrich_store_chunked(
    traces: &[BusTrace],
    spatial: &SpatialContext,
    dfs: &Dfs,
    path: &str,
    chunk: usize,
    workers: usize,
) -> Result<(u64, LocationHits), CoreError> {
    let chunks: Vec<&[BusTrace]> = traces.chunks(chunk.max(1)).collect();
    let workers = workers.clamp(1, chunks.len().max(1));
    let in_flight = 2 * workers;
    let mut hits = LocationHits::new(spatial);
    std::thread::scope(|scope| -> Result<(), CoreError> {
        // A task: the chunk's index, the trace index of each vehicle's last
        // report before it, and the buffer its text goes into.
        let (task_tx, task_rx) = channel::unbounded::<(usize, Vec<usize>, String)>();
        let (done_tx, done_rx) = channel::unbounded::<(usize, String)>();
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                let (task_rx, done_tx) = (task_rx.clone(), done_tx.clone());
                let chunks = &chunks;
                scope.spawn(move || {
                    let mut hits = LocationHits::new(spatial);
                    let mut areas = Vec::new();
                    while let Ok((k, seeds, mut text)) = task_rx.recv() {
                        let mut pre = Preprocessor::new();
                        for i in seeds {
                            pre.enrich(traces[i]);
                        }
                        for t in chunks[k] {
                            let e = enrich_into(&mut pre, spatial, *t, areas);
                            write_csv_line(&mut text, &e);
                            text.push('\n');
                            let locations = e.areas.iter().copied().chain(e.bus_stop);
                            hits.count(e.trace.timestamp_ms, locations);
                            areas = e.areas;
                        }
                        if done_tx.send((k, text)).is_err() {
                            break;
                        }
                    }
                    hits
                })
            })
            .collect();
        drop(done_tx);

        // Chunks are dispatched in order, so this holds each vehicle's last
        // report before the chunk being dispatched.
        let mut last_report: HashMap<u32, usize> = HashMap::new();
        let mut dispatch = |k: usize, text: String| {
            let seeds = last_report.values().copied().collect();
            for (i, t) in (k * chunk..).zip(chunks[k]) {
                last_report.insert(t.vehicle_id, i);
            }
            task_tx.send((k, seeds, text)).expect("the workers outlive the tasks");
        };
        let mut next = in_flight.min(chunks.len());
        for k in 0..next {
            dispatch(k, String::new());
        }
        // Chunks done out of order wait here, at their index modulo
        // `in_flight`: no two chunks in flight share a slot.
        let mut ready: Vec<Option<String>> = vec![None; in_flight];
        let mut stored = 0;
        while stored < chunks.len() {
            let Ok((k, text)) = done_rx.recv() else { break }; // a worker died
            ready[k % in_flight] = Some(text);
            while let Some(mut text) = ready[stored % in_flight].take() {
                dfs.append(path, text.as_bytes())?;
                stored += 1;
                if next < chunks.len() {
                    text.clear();
                    dispatch(next, text);
                    next += 1;
                }
            }
        }
        drop(task_tx);
        for worker in workers {
            hits.merge(worker.join().expect("enrichment does not panic"));
        }
        Ok(())
    })?;
    Ok((traces.len() as u64, hits))
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
    out.push(',');
    write_thousandths(out, e.trace.delay_s);
    out.push(',');
    if let Some(v) = e.actual_delay_s {
        write_thousandths(out, v);
    }
    out.push(',');
    if let Some(v) = e.speed_kmh {
        write_thousandths(out, v);
    }
    let _ = write!(out, ",{}", e.trace.congestion);
}

/// Appends `v` as `format!("{v:.3}")` prints it, digit by digit from
/// [`rounded_thousandths`]; NaN, the infinities and magnitudes beyond
/// `u64::MAX` thousandths go through `{:.3}` itself.
fn write_thousandths(out: &mut String, v: f64) {
    let Some(thousandths) = rounded_thousandths(v) else {
        let _ = write!(out, "{v:.3}");
        return;
    };
    // Sign, up to 17 integer digits, the point and three decimals.
    let mut text = [0u8; 22];
    let decimals = (thousandths % 1000) as u16;
    text[18..].copy_from_slice(&[
        b'.',
        b'0' + (decimals / 100) as u8,
        b'0' + (decimals / 10 % 10) as u8,
        b'0' + (decimals % 10) as u8,
    ]);
    let (mut integer, mut at) = (thousandths / 1000, 18);
    loop {
        at -= 1;
        text[at] = b'0' + (integer % 10) as u8;
        integer /= 10;
        if integer == 0 {
            break;
        }
    }
    if v.is_sign_negative() {
        at -= 1;
        text[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&text[at..]).expect("ASCII digits"));
}

/// `|v| · 1000` rounded half to even, worked out exactly from the float's
/// mantissa and exponent; `None` for NaN, the infinities and results
/// beyond `u64::MAX`.
fn rounded_thousandths(v: f64) -> Option<u64> {
    if !v.is_finite() {
        return None;
    }
    let bits = v.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    // |v| = mantissa · 2^power, exactly.
    let (mantissa, power) = match exponent {
        0 => (fraction, -1074),
        _ => (fraction | 1 << 52, exponent - 1075),
    };
    let scaled = u128::from(mantissa) * 1000; // below 2^63
    match power {
        64.. => None,
        0.. => u64::try_from(scaled << power).ok(),
        -63..0 => {
            let shift = power.unsigned_abs();
            let (quotient, rest, half) =
                (scaled >> shift, scaled & ((1 << shift) - 1), 1 << (shift - 1));
            let up = rest > half || (rest == half && quotient & 1 == 1);
            Some((quotient + u128::from(up)) as u64)
        }
        // 2^-power is at least 2^64, so `scaled` is below half of it.
        _ => Some(0),
    }
}

// ---------------------------------------------------------------------------
// The statistics MapReduce job (Section 4.1.3)
// ---------------------------------------------------------------------------

/// One statistics cell: (attribute, location, hour, day type) — the cell
/// [`StatsBolt`](crate::kappa::StatsBolt) keys by, in the same order.
type Cell = (Attribute, LocId, u8, DayType);

/// The statistics job's key: a cell without its attribute.
type Place = (LocId, u8, DayType);

/// A cell's raw moments: (count, sum, sum of squares).
type Moments = (u64, f64, f64);

/// The moments of every attribute at one place, in [`Attribute::ALL`]
/// order; an attribute without a sample has count 0.
type PlaceMoments = [Moments; 4];

/// Turns a cell's raw moments into its published row: the mean and the
/// *population* stdv, or nothing for a cell without a sample or below
/// `min_samples` (thin cells make garbage thresholds). The batch job's
/// reducer and [`StatsBolt`](crate::kappa::StatsBolt)'s publication both
/// finish here, so the two agree bit for bit on the same samples in the
/// same order: one DFS block, values at the CSV's three decimals (see
/// [`crate::kappa`]).
pub(crate) fn stat_record(
    (location, hour, day_type): (LocId, u8, DayType),
    (count, sum, sum_sq): Moments,
    min_samples: u64,
) -> Option<StatRecord> {
    if count == 0 || count < min_samples {
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
    type Key = Place;
    type Value = PlaceMoments;

    /// Parses a history line once and emits, per location id, one sample
    /// of every attribute (count 0 where the line has no value). Malformed
    /// lines — wrong field count, hour or day type — are skipped, as are
    /// locations that are no [`LocId`] (no rule can monitor them).
    fn map(&self, record: &str, emit: &mut dyn FnMut(Place, PlaceMoments)) {
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
        // In `Attribute::ALL` order.
        let values = [
            delay,
            actual_delay.parse::<f64>().ok(),
            speed.parse::<f64>().ok(),
            delay.filter(|_| congestion == "true"),
        ];
        if values.iter().all(Option::is_none) {
            return;
        }
        let sample = values.map(|value| value.map_or((0, 0.0, 0.0), |v| (1, v, v * v)));
        // An empty area list or stop parses as no location.
        let locations = areas.split(';').chain([stop]).filter_map(|l| l.parse::<LocId>().ok());
        for location in locations {
            emit((location, hour, day), sample);
        }
    }
}

/// Folds a place's samples attribute by attribute, skipping attributes
/// with count 0: each attribute's sums add exactly the terms, in exactly
/// the order, of a job keyed by (attribute, place).
struct MomentsCombiner;

impl Combiner<PlaceMoments> for MomentsCombiner {
    fn zero(&self) -> PlaceMoments {
        [(0, 0.0, 0.0); 4]
    }
    fn fold(&self, partial: &mut PlaceMoments, value: PlaceMoments) {
        for ((count, sum, sum_sq), (n, s, s2)) in partial.iter_mut().zip(value) {
            if n > 0 {
                *count += n;
                *sum += s;
                *sum_sq += s2;
            }
        }
    }
}

struct StatsReducer {
    min_samples: u64,
}

impl Reducer<Place, PlaceMoments> for StatsReducer {
    type OutKey = Cell;
    type OutValue = StatRecord;

    fn reduce(
        &self,
        &(location, hour, day): &Place,
        partials: &[PlaceMoments],
        emit: &mut dyn FnMut(Cell, StatRecord),
    ) {
        let mut total = MomentsCombiner.zero();
        for partial in partials {
            MomentsCombiner.fold(&mut total, *partial);
        }
        for (attribute, moments) in Attribute::ALL.into_iter().zip(total) {
            if let Some(record) = stat_record((location, hour, day), moments, self.min_samples) {
                emit((attribute, location, hour, day), record);
            }
        }
    }
}

/// Runs the statistics job over enriched-history files and publishes the
/// resulting thresholds, one snapshot per attribute, each in cell order
/// (location, hour, day type) — whatever the job's partitioning. It pins
/// glibc's malloc thresholds first, as [`TrafficSystem::bootstrap`] does,
/// and hands the arenas' free pages back last: the job is the set-up's
/// largest transient.
///
/// [`TrafficSystem::bootstrap`]: crate::system::TrafficSystem::bootstrap
pub fn run_statistics_job(
    dfs: &Dfs,
    inputs: &[&str],
    store: &TableStore,
    config: &OfflineConfig,
) -> Result<HashMap<Attribute, usize>, CoreError> {
    pin_malloc_thresholds();
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
    release_free_memory();
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

    /// Adds `other`'s counts and timestamp span to these.
    fn merge(&mut self, other: LocationHits) {
        for (mine, theirs) in [(&mut self.regions, other.regions), (&mut self.stops, other.stops)] {
            for (n, m) in mine.iter_mut().zip(theirs) {
                *n += m;
            }
        }
        self.min_ts = self.min_ts.min(other.min_ts);
        self.max_ts = self.max_ts.max(other.max_ts);
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
/// The region rates are counted from the enrichment's own areas and
/// stops: the same locations [`region_rates`] finds, found once.
pub fn run_offline(
    bbox: tms_geo::BoundingBox,
    seeds: &[GeoPoint],
    traces: &[BusTrace],
    store: &TableStore,
    config: &OfflineConfig,
) -> Result<OfflineArtifacts, CoreError> {
    pin_malloc_thresholds();
    let observations = stop_observations(traces);
    let spatial = build_spatial(bbox, seeds, &observations, config)?;
    let dfs = Dfs::with_defaults();
    let (_, hits) = enrich_store_chunked(
        traces,
        &spatial,
        &dfs,
        "/history/day0.csv",
        ENRICH_CHUNK,
        available_workers(),
    )?;
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
        use tms_storage::{thresholds::statistics_table_name, ValueRef};
        let (traces, seeds) = day_of_traces();
        let config = OfflineConfig::default();
        let spatial =
            build_spatial(DUBLIN_BBOX, &seeds, &stop_observations(&traces), &config).unwrap();
        let dfs = Dfs::with_defaults();
        enrich_and_store(&traces, &spatial, &dfs, "/h.csv").unwrap();
        // Every attribute's table as stored: its rows in order, floats by bits.
        let text = |v: ValueRef| match v {
            ValueRef::Float(f) => format!("{:016x}", f.to_bits()),
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

    /// A statistics table as published: every row, floats by their bits.
    type RowBits = (String, u8, DayType, u64, u64, u64);

    fn row_bits(r: &StatRecord) -> RowBits {
        (r.area_id.clone(), r.hour, r.day_type, r.mean.to_bits(), r.stdv.to_bits(), r.count)
    }

    /// The statistics job as it was keyed before a place carried every
    /// attribute: one pair per (attribute with a value, location) of a
    /// line, each cell folded on its own.
    struct CellMapper;

    impl Mapper for CellMapper {
        type Key = Cell;
        type Value = Moments;

        fn map(&self, record: &str, emit: &mut dyn FnMut(Cell, Moments)) {
            let f: Vec<&str> = record.split(',').collect();
            let [hour, day, areas, stop, delay, actual_delay, speed, congestion] = f[..] else {
                return;
            };
            let (Ok(hour), Ok(day)) = (hour.parse::<u8>(), DayType::parse(day)) else { return };
            let delay = delay.parse::<f64>().ok();
            let values = [
                (Attribute::Delay, delay),
                (Attribute::ActualDelay, actual_delay.parse::<f64>().ok()),
                (Attribute::Speed, speed.parse::<f64>().ok()),
                (Attribute::DelayAndCongestion, delay.filter(|_| congestion == "true")),
            ];
            for location in areas.split(';').chain([stop]).filter_map(|l| l.parse::<LocId>().ok()) {
                for (attribute, value) in values {
                    if let Some(v) = value {
                        emit((attribute, location, hour, day), (1, v, v * v));
                    }
                }
            }
        }
    }

    struct CellCombiner;

    impl Combiner<Moments> for CellCombiner {
        fn zero(&self) -> Moments {
            (0, 0.0, 0.0)
        }
        fn fold(&self, (count, sum, sum_sq): &mut Moments, (n, s, s2): Moments) {
            *count += n;
            *sum += s;
            *sum_sq += s2;
        }
    }

    struct CellReducer(u64);

    impl Reducer<Cell, Moments> for CellReducer {
        type OutKey = Cell;
        type OutValue = StatRecord;

        fn reduce(
            &self,
            cell: &Cell,
            partials: &[Moments],
            emit: &mut dyn FnMut(Cell, StatRecord),
        ) {
            let mut total = CellCombiner.zero();
            for partial in partials {
                CellCombiner.fold(&mut total, *partial);
            }
            let (_, location, hour, day) = *cell;
            if let Some(record) = stat_record((location, hour, day), total, self.0) {
                emit(*cell, record);
            }
        }
    }

    #[test]
    fn a_place_keyed_job_publishes_no_empty_cell_and_what_a_cell_keyed_job_does() {
        let (traces, seeds) = day_of_traces();
        let config = OfflineConfig { min_samples: 0, ..OfflineConfig::default() };
        let spatial =
            build_spatial(DUBLIN_BBOX, &seeds, &stop_observations(&traces), &config).unwrap();
        let dfs = Dfs::with_defaults();
        enrich_and_store(&traces, &spatial, &dfs, "/h.csv").unwrap();
        let store = TableStore::new();
        run_statistics_job(&dfs, &["/h.csv"], &store, &config).unwrap();

        let by_cell = CellReducer(0);
        let (outputs, _) =
            run_job(&dfs, &["/h.csv"], &CellMapper, &by_cell, Some(&CellCombiner), config.job)
                .unwrap();
        let mut reference: Vec<(Cell, StatRecord)> = outputs.into_iter().flatten().collect();
        reference.sort_unstable_by_key(|(cell, _)| *cell);
        let thresholds = ThresholdStore::new(store);
        for attribute in Attribute::ALL {
            let rows = thresholds.statistics(attribute.name()).unwrap_or_default();
            // A first report has no speed and this morning reports no
            // congestion: places carry those attributes with count 0.
            let congestion = attribute == Attribute::DelayAndCongestion;
            assert!(congestion == rows.is_empty(), "{attribute:?}: {} rows", rows.len());
            for row in &rows {
                assert!(row.count > 0 && !row.mean.is_nan() && !row.stdv.is_nan(), "{row:?}");
            }
            // The store reads rows back in its own order: compare as sets.
            let mut want: Vec<RowBits> = reference
                .iter()
                .filter(|((a, ..), _)| *a == attribute)
                .map(|(_, r)| row_bits(r))
                .collect();
            let mut got: Vec<RowBits> = rows.iter().map(row_bits).collect();
            want.sort_unstable();
            got.sort_unstable();
            assert!(got == want, "{attribute:?}: the rows differ from a cell-keyed job's");
        }
    }

    #[test]
    fn the_shuffle_carries_one_pair_per_split_and_place() {
        let (traces, seeds) = day_of_traces();
        let config = OfflineConfig::default();
        let spatial =
            build_spatial(DUBLIN_BBOX, &seeds, &stop_observations(&traces), &config).unwrap();
        let dfs = Dfs::with_defaults();
        enrich_and_store(&traces, &spatial, &dfs, "/h.csv").unwrap();
        let reducer = StatsReducer { min_samples: config.min_samples };
        let (_, stats) =
            run_job(&dfs, &["/h.csv"], &StatsMapper, &reducer, Some(&MomentsCombiner), config.job)
                .unwrap();
        // Count what crosses: the distinct places each split emits.
        let text = dfs.read_to_string("/h.csv").unwrap();
        let mut places = 0;
        for split in dfs.line_splits(&text) {
            let mut seen = std::collections::HashSet::new();
            for line in split.lines() {
                StatsMapper.map(line, &mut |place, _| {
                    seen.insert(place);
                });
            }
            places += seen.len() as u64;
        }
        assert_eq!(stats.intermediate_pairs, places);
        let (_, by_cell) = run_job(
            &dfs,
            &["/h.csv"],
            &CellMapper,
            &CellReducer(0),
            Some(&CellCombiner),
            config.job,
        )
        .unwrap();
        assert!(
            stats.intermediate_pairs * 5 < by_cell.intermediate_pairs * 2,
            "{} pairs by place, {} by cell",
            stats.intermediate_pairs,
            by_cell.intermediate_pairs
        );
    }

    #[test]
    fn the_history_file_does_not_depend_on_the_chunking() {
        let (traces, seeds) = day_of_traces();
        let config = OfflineConfig::default();
        let spatial =
            build_spatial(DUBLIN_BBOX, &seeds, &stop_observations(&traces), &config).unwrap();
        // One pass in trace order, line by line.
        let mut pre = Preprocessor::new();
        let mut want = String::new();
        for t in &traces {
            want.push_str(&enriched_csv_line(&enrich(&mut pre, &spatial, *t)));
            want.push('\n');
        }
        let bits = |rates: HashMap<String, f64>| -> std::collections::BTreeMap<String, u64> {
            rates.into_iter().map(|(k, v)| (k, v.to_bits())).collect()
        };
        let want_rates = bits(region_rates(&traces, &spatial));
        // Halving puts a chunk boundary inside a vehicle's run of reports.
        let half = traces.len().div_ceil(2);
        let first = traces[half];
        assert!(traces[..half]
            .iter()
            .any(|t| t.vehicle_id == first.vehicle_id && t.timestamp_ms < first.timestamp_ms));
        for (chunks, workers) in [(1, 1), (2, 2), (7, 2), (7, 7)] {
            let dfs = Dfs::with_defaults();
            let chunk = traces.len().div_ceil(chunks);
            let (lines, hits) =
                enrich_store_chunked(&traces, &spatial, &dfs, "/h.csv", chunk, workers).unwrap();
            let case = format!("{chunks} chunks on {workers} workers");
            assert_eq!(lines, traces.len() as u64, "{case}");
            let text = dfs.read_to_string("/h.csv").unwrap();
            assert!(text == want, "{case}: the file differs from one pass's");
            let blocks = dfs.status("/h.csv").unwrap().blocks;
            assert_eq!(blocks, want.len().div_ceil(dfs.config().block_size), "{case}");
            assert_eq!(bits(hits.rates()), want_rates, "{case}");
            // The report after the boundary got its speed and actual delay.
            let line: Vec<&str> = text.lines().nth(half).unwrap().split(',').collect();
            assert!(!line[5].is_empty() && !line[6].is_empty(), "{case}: {line:?}");
        }
    }

    /// [`write_thousandths`]'s text.
    fn printed(v: f64) -> String {
        let mut text = String::new();
        write_thousandths(&mut text, v);
        text
    }

    #[test]
    fn the_thousandths_writer_prints_what_format_prints_at_the_edges() {
        // The largest magnitude with a `u64` of thousandths, and the next.
        let limit = u64::MAX as f64 / 1000.0;
        let below = f64::from_bits(limit.to_bits() - 1);
        let edges = [
            0.0, -0.0, -0.0004, 0.0004999, 0.0005, -0.0005, 0.0015, -2.5625, 2.5625, 0.0625,
            0.1875, 0.9995, 999.9995, 1e15, -1e15, 1e17, 123_456_789.987_654, limit, below,
            -below, 5e-324, f64::MIN_POSITIVE, f64::MAX, f64::MIN, f64::NAN, -f64::NAN,
            f64::INFINITY, f64::NEG_INFINITY,
        ];
        assert!(below * 1000.0 < u64::MAX as f64 && limit * 1000.0 >= u64::MAX as f64);
        for v in edges {
            assert_eq!(printed(v), format!("{v:.3}"), "{v:e} ({:#x})", v.to_bits());
        }
    }

    /// Cases per property below; a run of 10⁶ and more is a by-hand check.
    const THOUSANDTHS_CASES: u32 = 20_000;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(THOUSANDTHS_CASES))]

        #[test]
        fn the_thousandths_writer_prints_what_format_prints_on_any_bits(bits in 0..u64::MAX) {
            let v = f64::from_bits(bits);
            proptest::prop_assert_eq!(printed(v), format!("{v:.3}"));
        }

        #[test]
        fn the_thousandths_writer_rounds_ties_and_history_values_as_format_does(
            odd in 0u64..1 << 40,
            magnitude in 0u32..41,
            negative in proptest::prelude::any::<bool>(),
            plain in -1e7f64..1e7,
            small in -1f64..1.0,
        ) {
            // The ties at the third decimal are the odd multiples of 1/16.
            let tie = (2 * (odd >> magnitude) + 1) as f64 / 16.0;
            let tie = if negative { -tie } else { tie };
            for v in [tie, plain, small] {
                proptest::prop_assert_eq!(printed(v), format!("{v:.3}"));
            }
        }
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
