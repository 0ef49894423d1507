//! Location ids travel as values and are printed where text begins. This
//! pins the text: the DFS history lines and the detections of a fixed
//! morning must be, byte for byte, what they were when the tuple carried
//! `R<n>` / `S<n>` strings. The digests were taken with this same file at
//! the last commit that did (e60e177).
//!
//! It also pins the statistics tables the batch job publishes from that
//! morning, every mean and stdv by its bits: the digest was taken at
//! 1133558, the last commit whose job keyed its cells by text and combined
//! by collecting and regrouping.
//!
//! And it pins a kappa run's detections, thresholds by their bits: the
//! first commit whose kappa run repeats, with the statistics folded in the
//! Splitter and each refresh carried between the same two tuples, took it.
//!
//! Both detection digests were re-taken when each location selector got
//! its own bus stream: before, a leaves rule and a stops rule on one
//! engine stood on one stream, and each fired at the other's locations
//! too (22 068 detections, 5 178 at stops; 11 307 in the kappa run). The
//! region detections (16 890) did not change.

use tms_core::offline::{self, OfflineArtifacts, OfflineConfig};
use tms_core::rules::{LocationSelector, RuleSpec};
use tms_core::system::{SystemConfig, TrafficSystem};
use tms_core::thresholds::{RetrievalMethod, RuleEngine};
use tms_core::KappaConfig;
use tms_geo::DUBLIN_BBOX;
use tms_storage::TableStore;
use tms_traffic::{Attribute, BusTrace, FleetConfig, FleetGenerator, Preprocessor, DAY_MS, HOUR_MS};

/// FNV-1a, so the digest does not depend on the standard library's hasher.
fn fnv(digest: &mut u64, bytes: &[u8]) {
    for b in bytes.iter().chain(b"\n") {
        *digest = (*digest ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The `FleetConfig::small(9)` morning (06–11 h) and what the off-line
/// component learned from it.
fn morning() -> (Vec<BusTrace>, OfflineArtifacts) {
    let generator = FleetGenerator::new(FleetConfig::small(9), 0).unwrap();
    let seeds = generator.route_seed_points();
    let traces: Vec<BusTrace> =
        generator.take_while(|t| t.timestamp_ms < 11 * HOUR_MS).collect();
    let artifacts = offline::run_offline(
        DUBLIN_BBOX,
        &seeds,
        &traces,
        &TableStore::new(),
        &OfflineConfig::default(),
    )
    .unwrap();
    (traces, artifacts)
}

#[test]
fn history_lines_and_detections_read_as_they_did_on_strings() {
    let (traces, artifacts) = morning();
    let spatial = &artifacts.spatial;

    // `s = 0`: a location fires whenever its window runs above its mean.
    let mut engine =
        RuleEngine::new(RetrievalMethod::ThresholdStream, artifacts.thresholds.clone(), None);
    for (name, selector) in
        [("leaves", LocationSelector::QuadtreeLeaves), ("stops", LocationSelector::BusStops)]
    {
        let mut rule = RuleSpec::new(name, Attribute::Delay, selector.clone(), 5);
        rule.s = 0.0;
        engine.install_rule(&rule, spatial.resolve(&selector)).unwrap();
    }

    let mut pre = Preprocessor::new();
    let (mut lines, mut line_bytes) = (FNV_OFFSET, 0usize);
    for t in &traces {
        let e = offline::enrich(&mut pre, spatial, *t);
        let line = offline::enriched_csv_line(&e);
        line_bytes += line.len();
        fnv(&mut lines, line.as_bytes());
        engine.send_trace(&e).unwrap();
    }
    let mut fired = FNV_OFFSET;
    let detections = engine.detections();
    let detections = detections.lock();
    for d in detections.iter() {
        let row = format!("{}|{}|{}|{:016x}", d.rule, d.location, d.timestamp_ms, d.observed.to_bits());
        fnv(&mut fired, row.as_bytes());
    }
    let stops = detections.iter().filter(|d| d.location.starts_with('S')).count();

    assert_eq!((traces.len(), line_bytes, lines), GOLDEN_LINES);
    assert_eq!((detections.len(), stops, fired), GOLDEN_DETECTIONS);
}

#[test]
fn statistics_tables_hold_bit_for_bit() {
    let (_, artifacts) = morning();
    let (mut rows, mut digest) = (0usize, FNV_OFFSET);
    for attribute in Attribute::ALL {
        // `statistics` reads back sorted by (location, hour, day type).
        for r in artifacts.thresholds.statistics(attribute.name()).unwrap() {
            let row = format!(
                "{}|{}|{}|{}|{:016x}|{:016x}|{}",
                attribute.name(),
                r.area_id,
                r.hour,
                r.day_type.as_str(),
                r.mean.to_bits(),
                r.stdv.to_bits(),
                r.count
            );
            fnv(&mut digest, row.as_bytes());
            rows += 1;
        }
    }
    assert_eq!((rows, digest), GOLDEN_STATISTICS);
}

#[test]
fn a_kappa_run_detects_what_it_did() {
    // A fresh bootstrap on the day-0 history to 09 h, then the day-1
    // morning to 08 h through three engines, refreshed every 256 tuples.
    let generator = FleetGenerator::new(FleetConfig::small(9), 0).unwrap();
    let seeds = generator.route_seed_points();
    let history: Vec<BusTrace> = generator.take_while(|t| t.timestamp_ms < 9 * HOUR_MS).collect();
    let config = SystemConfig {
        method: RetrievalMethod::ThresholdStream,
        kappa: Some(KappaConfig { refresh_every: 256, ..KappaConfig::default() }),
        ..SystemConfig::default()
    };
    let system = TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, config).unwrap();
    let rules: Vec<RuleSpec> =
        [("leaves", LocationSelector::QuadtreeLeaves), ("stops", LocationSelector::BusStops)]
            .into_iter()
            .map(|(name, selector)| {
                let mut rule = RuleSpec::new(name, Attribute::Delay, selector, 10);
                rule.s = 0.5;
                rule
            })
            .collect();
    let plan = system.startup_plan(&rules, 3).unwrap();
    let live: Vec<BusTrace> = FleetGenerator::new(FleetConfig::small(9), 1)
        .unwrap()
        .take_while(|t| t.timestamp_ms < DAY_MS + 8 * HOUR_MS)
        .collect();
    let report = system.run(live, &plan, None).unwrap();

    let mut rows: Vec<String> = report
        .detections
        .iter()
        .map(|d| {
            let threshold = d.threshold.map_or(0, f64::to_bits);
            let observed = d.observed.to_bits();
            format!("{}|{}|{}|{observed:016x}|{threshold:016x}", d.rule, d.location, d.timestamp_ms)
        })
        .collect();
    rows.sort();
    let mut digest = FNV_OFFSET;
    for row in &rows {
        fnv(&mut digest, row.as_bytes());
    }
    assert_eq!((rows.len(), digest), GOLDEN_KAPPA);
}

/// `(traces, bytes of CSV, digest of the lines)`.
const GOLDEN_LINES: (usize, usize, u64) = (36_000, 2_326_839, 10_648_329_310_542_914_362);
/// `(detections, of which at stops, digest of rule|location|timestamp|observed)`.
const GOLDEN_DETECTIONS: (usize, usize, u64) = (19_479, 2_589, 8_805_796_643_844_913_467);
/// `(rows over every attribute, digest of attribute|location|hour|day|mean|stdv|count)`.
const GOLDEN_STATISTICS: (usize, u64) = (5_762, 1_841_685_376_699_517_767);
/// `(detections, digest of the sorted rule|location|timestamp|observed|threshold)`.
const GOLDEN_KAPPA: (usize, u64) = (5_895, 576_483_054_066_747_063);
