//! A rule detects what it detects alone, whatever else shares its engine.
//!
//! Table 6 installs five Delay rules on one selector as one batch, and
//! their statements join one `thresholds_delay` stream. That stream carries
//! one row per (location, hour, day type) cell. Were it fed once per rule,
//! the shared `keepall` would hold every cell five times, and the shared
//! join would weigh each average by that multiplicity: a rule's observed
//! values and thresholds would depend on how many neighbours it has. Each
//! rule of the batch must fire where, when and with the bits it fires
//! installed alone, before and after a threshold refresh.

use std::collections::HashSet;
use tms_core::offline::{self, OfflineConfig};
use tms_core::rules::{LocationSelector, RuleSpec};
use tms_core::thresholds::{RetrievalMethod, RuleEngine};
use tms_geo::DUBLIN_BBOX;
use tms_storage::TableStore;
use tms_traffic::{
    Attribute, BusTrace, EnrichedTrace, FleetConfig, FleetGenerator, Preprocessor, HOUR_MS,
};

/// Each of one rule's detections as text, observed and threshold by their
/// bits, in firing order.
fn fired(engine: &RuleEngine, rule: &str) -> Vec<String> {
    let sink = engine.detections();
    let detections = sink.lock();
    (detections.iter().filter(|d| d.rule == rule))
        .map(|d| {
            let threshold = d.threshold.map_or(0, f64::to_bits);
            let observed = d.observed.to_bits();
            format!("{}|{}|{observed:016x}|{threshold:016x}", d.location, d.timestamp_ms)
        })
        .collect()
}

#[test]
fn each_rule_of_a_table6_batch_detects_what_it_detects_alone() {
    // The `FleetConfig::small(9)` morning (06–11 h) and what the off-line
    // component learned from it.
    let generator = FleetGenerator::new(FleetConfig::small(9), 0).unwrap();
    let seeds = generator.route_seed_points();
    let traces: Vec<BusTrace> = generator.take_while(|t| t.timestamp_ms < 11 * HOUR_MS).collect();
    let artifacts = offline::run_offline(
        DUBLIN_BBOX,
        &seeds,
        &traces,
        &TableStore::new(),
        &OfflineConfig::default(),
    )
    .unwrap();
    let spatial = &artifacts.spatial;
    let mut pre = Preprocessor::new();
    let enriched: Vec<EnrichedTrace> =
        traces.iter().map(|t| offline::enrich(&mut pre, spatial, *t)).collect();

    let selector = LocationSelector::QuadtreeLeaves;
    let monitored = spatial.resolve(&selector);
    let specs: Vec<RuleSpec> = [1, 10, 100, 1000, 1]
        .into_iter()
        .enumerate()
        .map(|(i, window)| {
            let mut rule = RuleSpec::new(
                format!("delay-{i}-w{window}"),
                Attribute::Delay,
                selector.clone(),
                window,
            );
            rule.s = 2.0;
            rule
        })
        .collect();
    let engine =
        || RuleEngine::new(RetrievalMethod::ThresholdStream, artifacts.thresholds.clone(), None);
    let mut batch = engine();
    batch.install_rules(&specs, monitored.iter().cloned()).unwrap();
    let mut alone: Vec<RuleEngine> = (specs.iter())
        .map(|spec| {
            let mut e = engine();
            e.install_rule(spec, monitored.iter().cloned()).unwrap();
            e
        })
        .collect();

    let (first, second) = enriched.split_at(enriched.len() / 2);
    for (half, label) in [(first, "at install"), (second, "after a refresh")] {
        if label == "after a refresh" {
            batch.refresh_thresholds().unwrap();
            for e in &mut alone {
                e.refresh_thresholds().unwrap();
            }
        }
        for e in half {
            batch.send_trace(e).unwrap();
            for lone in &mut alone {
                lone.send_trace(e).unwrap();
            }
        }
        for (spec, lone) in specs.iter().zip(&alone) {
            let (together, by_itself) = (fired(&batch, &spec.name), fired(lone, &spec.name));
            let differ = together.iter().zip(&by_itself).filter(|(a, b)| a != b).count();
            assert!(
                together == by_itself,
                "{label}: {} fired {} times in the batch and {} alone, {differ} of the paired rows differ",
                spec.name,
                together.len(),
                by_itself.len(),
            );
        }
    }
    // The property is not vacuous: the short windows fire, at several places.
    let rows = fired(&batch, &specs[0].name);
    let places: HashSet<&str> = rows.iter().filter_map(|r| r.split('|').next()).collect();
    assert!(
        rows.len() > 100 && places.len() > 10,
        "{} detections at {} places",
        rows.len(),
        places.len()
    );
}
