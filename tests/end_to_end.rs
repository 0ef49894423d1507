//! Cross-crate integration: the full Figure 3 pipeline through the
//! `traffic-insight` facade — fleet generator → off-line computation
//! (quadtree, stops, MapReduce statistics) → start-up optimization →
//! Figure 8 topology on the threaded DSPS → detections in the storage
//! medium.

use traffic_insight::core::rules::{LocationSelector, RuleSpec};
use traffic_insight::core::system::{AllocationStrategy, SystemConfig, TrafficSystem};
use traffic_insight::core::thresholds::RetrievalMethod;
use traffic_insight::geo::DUBLIN_BBOX;
use traffic_insight::traffic::{
    Attribute, BusTrace, FleetConfig, FleetGenerator, Incident, DAY_MS, HOUR_MS,
};

fn fleet() -> FleetConfig {
    FleetConfig { buses: 24, lines: 6, seed: 99, ..FleetConfig::default() }
}

fn history() -> (Vec<BusTrace>, Vec<traffic_insight::geo::GeoPoint>) {
    let g = FleetGenerator::new(fleet(), 0).unwrap();
    let seeds = g.route_seed_points();
    let traces: Vec<BusTrace> = g.take_while(|t| t.timestamp_ms < 10 * HOUR_MS).collect();
    (traces, seeds)
}

fn rules(s: f64) -> Vec<RuleSpec> {
    let mut leaves =
        RuleSpec::new("delay-leaves", Attribute::Delay, LocationSelector::QuadtreeLeaves, 10);
    leaves.s = s;
    let mut stops = RuleSpec::new("delay-stops", Attribute::Delay, LocationSelector::BusStops, 10);
    stops.s = s;
    vec![leaves, stops]
}

fn live_day_with_incident() -> Vec<BusTrace> {
    let probe = FleetGenerator::new(fleet(), 1).unwrap();
    let route = &probe.routes()[0];
    let center = route.points[route.points.len() / 2];
    let incident = Incident {
        center,
        radius_m: 1500.0,
        start_ms: DAY_MS + 7 * HOUR_MS,
        end_ms: DAY_MS + 9 * HOUR_MS,
        severity: 0.04,
    };
    FleetGenerator::with_incidents(fleet(), 1, vec![incident])
        .unwrap()
        .take_while(|t| t.timestamp_ms < DAY_MS + 9 * HOUR_MS)
        .collect()
}

#[test]
fn incident_detections_flow_to_storage() {
    let (history, seeds) = history();
    let system =
        TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, SystemConfig::default()).unwrap();
    let (plan, report) = system.plan_and_run(live_day_with_incident(), &rules(2.5), 4).unwrap();

    assert_eq!(plan.engine_plan.engines(), 4);
    assert!(!report.detections.is_empty(), "the incident must surface");
    // Detections live in the storage medium too (EventsStorer bolt).
    let stored = system.store.with_table("detected_events", |t| t.len()).unwrap();
    assert_eq!(stored, report.detections.len());
    // Incident-window detections dominate the pre-incident background.
    let in_window = report
        .detections
        .iter()
        .filter(|d| d.timestamp_ms >= DAY_MS + 7 * HOUR_MS)
        .count();
    assert!(
        in_window * 2 > report.detections.len(),
        "incident window holds the majority: {in_window}/{}",
        report.detections.len()
    );
    // Pipeline conservation: every spout tuple passed through preprocess.
    // (Spouts count *emissions*; bolts count processed tuples.)
    let get = |c: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.component == c)
            .map(|m| m.throughput)
            .unwrap_or(0)
    };
    let reader = report.metrics.iter().find(|m| m.component == "busReader").unwrap();
    assert_eq!(reader.throughput, 0, "spouts have no process() path to count");
    assert_eq!(reader.emitted, get("preprocess"));
    assert_eq!(get("preprocess"), get("areaTracker"));
    assert_eq!(get("areaTracker"), get("busStopsTracker"));
    assert_eq!(get("eventsStorer"), report.detections.len() as u64);
}

/// The acceptance scenario: a chaos-enabled run (light preset) under a
/// monitor must report per-component end-to-end percentiles and queue
/// gauges, and the Esper component must emit a predicted-vs-observed
/// drift ratio exportable as JSON Lines.
#[test]
fn chaos_run_with_tracing_reports_latency_and_drift() {
    use std::time::Duration;
    use traffic_insight::dsps::MonitorConfig;

    let (fault, recovery) = traffic_insight::sim::light_chaos();
    let (history, seeds) = history();
    let config = SystemConfig {
        monitor: Some(MonitorConfig {
            window: Duration::from_millis(500),
            ..MonitorConfig::default()
        }),
        reliability: Some(recovery),
        chaos: Some(fault),
        ..SystemConfig::default()
    };
    let system = TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, config).unwrap();
    let live: Vec<BusTrace> = live_day_with_incident().into_iter().take(6000).collect();
    let (_, report) = system.plan_and_run(live, &rules(2.5), 3).unwrap();

    // End-to-end latency: reliability mode records one completion per
    // acked root at the spout, with ordered percentiles.
    let reader = report.metrics.iter().find(|m| m.component == "busReader").unwrap();
    assert!(reader.acked > 0);
    assert_eq!(
        reader.e2e.count(),
        reader.acked,
        "one completion latency per acked root"
    );
    let (p50, p95, p99) =
        (reader.e2e.p50().unwrap(), reader.e2e.p95().unwrap(), reader.e2e.p99().unwrap());
    assert!(p50 <= p95 && p95 <= p99, "percentiles must be ordered: {p50:?} {p95:?} {p99:?}");

    // Queue gauges: every bolt's input channel reports its capacity.
    let esper = report.metrics.iter().find(|m| m.component == "esper").unwrap();
    assert!(esper.queue_capacity > 0, "a monitor registers queue gauges");

    // Drift: the Figure 7 prediction tracked against observed windows.
    assert!(!report.drift.is_empty(), "monitored runs emit drift samples");
    for d in &report.drift {
        assert!(d.ratio.is_finite() && d.ratio > 0.0, "bad ratio: {d:?}");
    }
}

/// The retrieval methods implement one semantics: fed the *same ordered*
/// trace stream (single engine, no thread interleaving), threshold-stream
/// and multiple-rules must fire identically. (At topology level arrival
/// order is nondeterministic across runs, so exact equality is only
/// well-defined here.)
#[test]
fn threshold_stream_and_multiple_rules_detect_identically() {
    use traffic_insight::core::offline;
    use traffic_insight::core::thresholds::RuleEngine;
    use traffic_insight::traffic::Preprocessor;

    let (history, seeds) = history();
    let config = SystemConfig::default();
    let system = TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, config).unwrap();
    let spatial = &system.artifacts.spatial;
    let store = system.artifacts.thresholds.clone();

    // One engine monitoring everything, same enriched stream, two methods.
    let monitored: Vec<String> = spatial
        .resolve(&LocationSelector::QuadtreeLeaves)
        .into_iter()
        .chain(spatial.resolve(&LocationSelector::BusStops))
        .collect();
    let run = |method: RetrievalMethod| {
        let mut engine = RuleEngine::new(method, store.clone(), None);
        for rule in rules(2.5) {
            engine.install_rule(&rule, monitored.iter().cloned()).unwrap();
        }
        let sink = engine.detections();
        let mut pre = Preprocessor::new();
        for t in live_day_with_incident().into_iter().take(6000) {
            let e = offline::enrich(&mut pre, spatial, t);
            engine.send_trace(&e).unwrap();
        }
        let out = sink.lock().clone();
        out
    };
    let stream = run(RetrievalMethod::ThresholdStream);
    let multi = run(RetrievalMethod::MultipleRules);
    assert!(!stream.is_empty(), "rules must fire on the incident");
    let key = |d: &traffic_insight::core::thresholds::Detection| {
        (d.rule.clone(), d.location.clone(), d.timestamp_ms)
    };
    let a: Vec<_> = stream.iter().map(key).collect();
    let b: Vec<_> = multi.iter().map(key).collect();
    assert_eq!(a, b, "methods disagree on detections");
}

#[test]
fn round_robin_and_proposed_strategies_both_run() {
    let (history, seeds) = history();
    let live: Vec<BusTrace> = live_day_with_incident()
        .into_iter()
        .take(4000)
        .collect();
    for strategy in [AllocationStrategy::Proposed, AllocationStrategy::RoundRobin] {
        let config = SystemConfig { strategy, ..SystemConfig::default() };
        let system = TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, config).unwrap();
        let plan = system.startup_plan(&rules(2.5), 4).unwrap();
        assert_eq!(plan.allocation.engines.iter().sum::<usize>(), 4);
        let report = system.run(live.clone(), &plan, None).unwrap();
        let esper = report.metrics.iter().find(|m| m.component == "esper").unwrap();
        assert!(esper.throughput > 0, "{strategy:?}: esper saw traffic");
    }
}

#[test]
fn recompute_statistics_republishes_thresholds() {
    let (history, seeds) = history();
    let mut system =
        TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, SystemConfig::default()).unwrap();
    let q = traffic_insight::storage::ThresholdQuery { attribute: "delay".into(), s: 1.0 };
    let before = system.artifacts.thresholds.thresholds(&q).unwrap();
    assert!(!before.is_empty());
    // Fresh history from a different day refreshes the snapshot.
    let fresh: Vec<BusTrace> = FleetGenerator::new(fleet(), 2)
        .unwrap()
        .take_while(|t| t.timestamp_ms < 2 * DAY_MS + 10 * HOUR_MS)
        .collect();
    system.recompute_statistics(&fresh).unwrap();
    let after = system.artifacts.thresholds.thresholds(&q).unwrap();
    assert!(!after.is_empty());
    assert_ne!(before, after, "a different day produces different statistics");
}
