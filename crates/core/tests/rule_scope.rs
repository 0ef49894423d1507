//! A rule fires only at its own locations, whatever plan hosts it.
//!
//! A leaves rule and a stops rule on one attribute run under the split
//! plan (one grouping per selector, one engine each) and under one merged
//! grouping over two engines, which partitions by leaf region and so hosts
//! both rules on each engine. Both runs must detect the same multiset,
//! threshold bits included, and every detection must lie at one of its
//! rule's locations: an engine holding both rules must not fire the
//! leaves rule at a stop, and a tuple near a partition boundary must still
//! bring its stop to the engine that monitors it.

use std::collections::HashSet;
use tms_core::allocation::{round_robin, Allocation, Grouping};
use tms_core::rules::{LocationSelector, RuleSpec};
use tms_core::system::{StartupPlan, SystemConfig, TrafficSystem};
use tms_core::thresholds::RetrievalMethod;
use tms_geo::DUBLIN_BBOX;
use tms_traffic::{Attribute, BusTrace, FleetConfig, FleetGenerator, DAY_MS, HOUR_MS};

/// Every detection as text, observed and threshold by their bits, sorted.
fn detections(system: &TrafficSystem, plan: &StartupPlan, live: &[BusTrace]) -> Vec<String> {
    let report = system.run(live.to_vec(), plan, None).unwrap();
    let mut rows: Vec<String> = (report.detections.iter())
        .map(|d| {
            let threshold = d.threshold.map_or(0, f64::to_bits);
            let observed = d.observed.to_bits();
            format!("{}|{}|{}|{observed:016x}|{threshold:016x}", d.rule, d.location, d.timestamp_ms)
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn a_merged_grouping_detects_what_the_split_plan_does_at_each_rules_own_locations() {
    let generator = FleetGenerator::new(FleetConfig::small(9), 0).unwrap();
    let seeds = generator.route_seed_points();
    let history: Vec<BusTrace> = generator.take_while(|t| t.timestamp_ms < 9 * HOUR_MS).collect();
    let config = SystemConfig { method: RetrievalMethod::ThresholdStream, ..SystemConfig::default() };
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

    let groupings = system.layer_groupings(&rules).unwrap();
    assert_eq!(groupings.len(), 2, "one grouping per selector");
    let split = system.plan_from_allocation(&rules, &groupings, &round_robin(&groupings, 2).unwrap());
    let split = split.unwrap();
    // The merge Algorithm 2 scores: the coarser layer's regions partition
    // both rules.
    let merged = groupings[1..].iter().fold(groupings[0].clone(), |mut m: Grouping, g| {
        m.layers.extend(&g.layers);
        m.rules.extend(g.rules.iter().cloned());
        m.thresholds.extend(&g.thresholds);
        m
    });
    let one = Allocation { engines: vec![2], scores: vec![0.0] };
    let merged = system.plan_from_allocation(&rules, &[merged], &one).unwrap();
    assert_eq!(merged.split_plan.routes.len(), 1, "one route per grouping");

    let live: Vec<BusTrace> = FleetGenerator::new(FleetConfig::small(9), 1)
        .unwrap()
        .take_while(|t| t.timestamp_ms < DAY_MS + 8 * HOUR_MS)
        .collect();
    let split_rows = detections(&system, &split, &live);
    let merged_rows = detections(&system, &merged, &live);
    assert!(split_rows.iter().any(|r| r.starts_with("stops|")), "the stops rule fires");
    assert!(split_rows.iter().any(|r| r.starts_with("leaves|")), "the leaves rule fires");
    assert_eq!(merged_rows, split_rows);

    for rule in &rules {
        let own: HashSet<String> =
            system.artifacts.spatial.resolve(&rule.location).into_iter().collect();
        for row in split_rows.iter().filter(|r| r.split('|').next() == Some(rule.name.as_str())) {
            let location = row.split('|').nth(1).unwrap();
            assert!(own.contains(location), "{} fired at {location}", rule.name);
        }
    }
}
