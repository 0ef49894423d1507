//! How a Figure 8 run is laid out on threads: PreProcess, AreaTracker and
//! BusStopsTracker are joined by shuffle edges of equal parallelism, so
//! each PreProcess task drives its two tracker tasks by direct call. The
//! run says so on its flight recorder, and spawns 10 executor threads
//! rather than 14. A topology or grouping change that breaks the chain
//! fails this test.
//!
//! One test in this binary: it counts the process's threads.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tms_core::rules::{LocationSelector, RuleSpec};
use tms_core::system::{SystemConfig, TrafficSystem};
use tms_dsps::FlightKind;
use tms_geo::DUBLIN_BBOX;
use tms_traffic::{Attribute, BusTrace, FleetConfig, FleetGenerator, DAY_MS, HOUR_MS};

/// Ids of the live threads named like executors (`<component>#<task>`).
fn executor_threads() -> BTreeSet<u64> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return BTreeSet::new() };
    dir.filter_map(|entry| {
        let entry = entry.ok()?;
        let comm = std::fs::read_to_string(entry.path().join("comm")).ok()?;
        let tid = entry.file_name().to_str()?.parse().ok()?;
        comm.contains('#').then_some(tid)
    })
    .collect()
}

#[test]
#[cfg(target_os = "linux")]
fn figure8_chains_the_trackers_into_preprocess_and_runs_on_ten_executors() {
    let generator = FleetGenerator::new(FleetConfig::small(9), 0).unwrap();
    let seeds = generator.route_seed_points();
    let history: Vec<BusTrace> = generator.take_while(|t| t.timestamp_ms < 9 * HOUR_MS).collect();
    let system =
        TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, SystemConfig::default()).unwrap();
    let rule = RuleSpec::new("stops", Attribute::Delay, LocationSelector::BusStops, 10);
    let plan = system.startup_plan(&[rule], 4).unwrap();
    assert_eq!(plan.engine_plan.engines(), 4);
    let live: Vec<BusTrace> = FleetGenerator::new(FleetConfig::small(9), 1)
        .unwrap()
        .take_while(|t| t.timestamp_ms < DAY_MS + 8 * HOUR_MS)
        .collect();

    assert!(executor_threads().is_empty(), "no topology runs before this one");
    let stop = Arc::new(AtomicBool::new(false));
    let watch = stop.clone();
    let sampler = std::thread::spawn(move || {
        let mut seen = BTreeSet::new();
        while !watch.load(Ordering::Relaxed) {
            seen.extend(executor_threads());
            std::thread::sleep(Duration::from_millis(1));
        }
        seen
    });
    let report = system.run(live, &plan, None).unwrap();
    stop.store(true, Ordering::Relaxed);
    let seen = sampler.join().unwrap();

    let chained: Vec<(String, String)> = report
        .events
        .iter()
        .filter(|e| e.kind == FlightKind::Chained)
        .map(|e| (e.component.clone(), e.detail.clone()))
        .collect();
    let expected: Vec<(String, String)> = [
        ("areaTracker", "areaTracker[0] runs on preprocess[0]'s executor"),
        ("busStopsTracker", "busStopsTracker[0] runs on preprocess[0]'s executor"),
        ("areaTracker", "areaTracker[1] runs on preprocess[1]'s executor"),
        ("busStopsTracker", "busStopsTracker[1] runs on preprocess[1]'s executor"),
    ]
    .into_iter()
    .map(|(c, d)| (c.to_string(), d.to_string()))
    .collect();
    assert_eq!(chained, expected);
    // 2 spout, 2 chain, 1 splitter, 4 esper, 1 storer.
    assert_eq!(seen.len(), 10, "executor threads seen during the run");
    assert!(!report.detections.is_empty());
}
