//! Elastic re-partitioning acceptance suite: the closed control loop over
//! the DSPS runtime, driven through the traffic system built on top of it.
//!
//! The scenarios follow the same pattern: bootstrap from a spatially
//! uniform history (so the start-up plan balances for uniformity), then
//! replay a *hotspot* live stream that concentrates most traffic on
//! regions the plan gave to one engine. The rebalancer must notice the
//! imbalance, re-run the partitioning on observed rates, and migrate rule
//! partitions between live engines — no topology restart, and (without
//! faults) exactly the detections a never-migrated run produces.
//!
//! The rebalancer is a wall-clock loop, so every run is paced ([`paced`])
//! to outlast a fixed number of its cycles however fast the data plane
//! and the build profile are.

use std::collections::BTreeSet;
use std::time::Duration;
use tms_core::rules::LocationSelector;
use tms_core::system::StartupPlan;
use tms_core::topology::TopologyParallelism;
use tms_core::xml_topology::{ComponentTypes, FIGURE8_XML};
use tms_core::{ElasticConfig, RuleSpec, TrafficSystem};
use tms_geo::{GeoPoint, RegionId, DUBLIN_BBOX};
use tms_sim::HotspotSpec;
use tms_traffic::{Attribute, BusTrace, FleetConfig, FleetGenerator, LocId, DAY_MS, HOUR_MS};

const IMBALANCE_BOUND: f64 = 1.5;

fn aggressive_elastic() -> ElasticConfig {
    ElasticConfig {
        imbalance_bound: IMBALANCE_BOUND,
        check_interval: Duration::from_millis(40),
        cooldown: Duration::from_millis(80),
        drain_timeout: Duration::from_secs(2),
        max_moves_per_cycle: 8,
        min_observed: 100,
    }
}

/// Rebalancer cycles every run must outlast: a few to observe the skew
/// and decide, the drain, then a few to observe the imbalance back under
/// the bound.
const MIN_CYCLES: u32 = 25;

/// Engine-side latency that makes a replay of `live` last at least
/// [`MIN_CYCLES`] rebalancer cycles: the busier of the two engines sees at
/// least half the tuples and sleeps this long on each, and backpressure
/// holds the rest of the pipeline to its pace. Probabilities stay zero,
/// so nothing but time is injected.
fn paced(live: &[BusTrace], faults: tms_dsps::FaultConfig) -> tms_dsps::FaultConfig {
    let run = aggressive_elastic().check_interval * MIN_CYCLES;
    tms_dsps::FaultConfig { delay: Some(run * 2 / live.len() as u32), ..faults }
}

fn multi_task_parallelism() -> TopologyParallelism {
    // Multi-task stages are safe for the differential scenarios: the
    // offline job reduces partial aggregates in canonical partition order
    // (byte-identical thresholds at any task count) and the splitter
    // resequences tuples into the spout's global order before the engines.
    // The splitter itself stays single-task — the elastic drain barrier's
    // FIFO argument needs one routing task.
    TopologyParallelism {
        spout_tasks: 2,
        preprocess_tasks: 2,
        tracker_tasks: 2,
        splitter_tasks: 1,
        esper_tasks: 1, // overridden by the engine count at run time
    }
}

fn small_history() -> (Vec<BusTrace>, Vec<GeoPoint>) {
    let g = FleetGenerator::new(FleetConfig::small(17), 0).unwrap();
    let seeds = g.route_seed_points();
    let traces: Vec<BusTrace> = g.take_while(|t| t.timestamp_ms < 9 * HOUR_MS).collect();
    (traces, seeds)
}

fn leaves_rule() -> Vec<RuleSpec> {
    let mut rule =
        RuleSpec::new("delay-leaves", Attribute::Delay, LocationSelector::QuadtreeLeaves, 10);
    rule.s = 0.5;
    vec![rule]
}

/// Day-1 live traffic with an incident (so runs produce detections).
fn live_stream() -> Vec<BusTrace> {
    let cfg = FleetConfig::small(17);
    let probe = FleetGenerator::new(cfg.clone(), 1).unwrap();
    let center = probe.routes()[0].points[probe.routes()[0].points.len() / 2];
    let incident = tms_traffic::Incident {
        center,
        radius_m: 1500.0,
        start_ms: DAY_MS + 7 * HOUR_MS,
        end_ms: DAY_MS + 9 * HOUR_MS,
        severity: 0.03,
    };
    FleetGenerator::with_incidents(cfg, 1, vec![incident])
        .unwrap()
        .take_while(|t| t.timestamp_ms < DAY_MS + 9 * HOUR_MS)
        .collect()
}

/// Regions the start-up plan routed to the grouping's first engine, with
/// a GPS point inside each — the hotspot targets. Concentrating the live
/// stream on them makes engine 0 the hot engine by construction, whatever
/// the (history-balanced) plan decided.
fn hotspot_targets(sys: &TrafficSystem, plan: &StartupPlan, max: usize) -> Vec<GeoPoint> {
    let quadtree = &sys.artifacts.spatial.quadtree;
    let route = &plan.split_plan.routes[0];
    let mut regions: Vec<LocId> =
        route.table.iter().filter(|(_, &e)| e == 0).map(|(r, _)| *r).collect();
    // By the ids' text: the targets these tests were paced on.
    regions.sort_by_cached_key(LocId::to_string);
    regions
        .iter()
        .take(max)
        .filter_map(|r| match r {
            LocId::Region(id) => Some(quadtree.region(RegionId(*id))?.bbox.center()),
            LocId::Stop(_) => None,
        })
        .collect()
}

/// Rewrites the stream so `hot_share` of the tuples land on the hotspot
/// targets (deterministically, via [`HotspotSpec::pick`]); the rest keep
/// their original (uniform) positions.
fn skew_stream(live: Vec<BusTrace>, targets: &[GeoPoint]) -> Vec<BusTrace> {
    let spec = HotspotSpec { hot_share: 0.8, hot_regions: targets.len(), total_rate: 1000.0 };
    let slots = targets.len() + 1; // the extra slot keeps the original position
    live.into_iter()
        .enumerate()
        .map(|(i, mut t)| {
            let slot = spec.pick(i, slots);
            if slot < targets.len() {
                t.position = targets[slot];
            }
            t
        })
        .collect()
}

fn sorted_detections(report: &tms_core::system::RunReport) -> Vec<(String, String, u64)> {
    let mut out: Vec<(String, String, u64)> = report
        .detections
        .iter()
        .map(|d| (d.rule.clone(), d.location.clone(), d.timestamp_ms))
        .collect();
    out.sort();
    out
}

/// Tentpole acceptance: a hotspot stream drives the observed imbalance
/// over the bound; the rebalancer migrates partitions between the live
/// engines and plans the load back under the bound — without a topology
/// restart.
#[test]
fn hotspot_skew_triggers_rebalance_without_restart() {
    let (history, seeds) = small_history();
    let config = tms_core::system::SystemConfig {
        parallelism: multi_task_parallelism(),
        elastic: Some(aggressive_elastic()),
        ..Default::default()
    };
    let mut sys = TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, config).unwrap();
    let plan = sys.startup_plan(&leaves_rule(), 2).unwrap();
    let targets = hotspot_targets(&sys, &plan, 4);
    assert!(targets.len() >= 2, "need at least two movable hot regions, got {}", targets.len());
    let live = skew_stream(live_stream(), &targets);
    sys.config.chaos = Some(paced(&live, tms_dsps::FaultConfig::default()));

    let report = sys.run(live, &plan, None).unwrap();
    let stats = report.elastic.expect("elastic run reports migration stats");
    assert!(stats.decisions >= 1, "the hotspot must trigger a rebalance: {stats:?}");
    assert!(stats.completed >= 1, "at least one migration must complete: {stats:?}");
    assert!(
        stats.post_imbalance <= IMBALANCE_BOUND,
        "the re-planned assignment must fall under the bound: {stats:?}"
    );
    assert!(
        stats.cycles_to_converge.is_some() || stats.observed_imbalance <= IMBALANCE_BOUND,
        "the observed imbalance must come back under the bound: {stats:?}"
    );
    assert!(stats.last_pause_ms >= 0.0 && stats.max_pause_ms >= stats.last_pause_ms);
    // No topology restart: migrations happen on the live engines.
    for m in &report.metrics {
        assert_eq!(m.restarted, 0, "{} must not restart during rebalancing", m.component);
    }
}

/// Differential acceptance: with no faults injected, a run that migrates
/// partitions mid-stream detects *exactly* what a never-migrated run
/// detects — the handoff ships window, accumulator, and threshold state
/// losslessly.
#[test]
fn forced_migration_matches_never_migrated_run() {
    let (history, seeds) = small_history();
    let config = tms_core::system::SystemConfig {
        parallelism: multi_task_parallelism(),
        ..Default::default()
    };
    let mut sys = TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, config).unwrap();
    let plan = sys.startup_plan(&leaves_rule(), 2).unwrap();
    let targets = hotspot_targets(&sys, &plan, 4);
    assert!(targets.len() >= 2, "need at least two movable hot regions");
    let live = skew_stream(live_stream(), &targets);

    let baseline = sys.run(live.clone(), &plan, None).unwrap();
    assert!(baseline.elastic.is_none(), "baseline runs without the rebalancer");

    sys.config.elastic = Some(aggressive_elastic());
    sys.config.chaos = Some(paced(&live, tms_dsps::FaultConfig::default()));
    let migrated = sys.run(live.clone(), &plan, None).unwrap();
    let stats = migrated.elastic.expect("elastic stats");
    assert!(stats.completed >= 1, "the hotspot must force at least one migration: {stats:?}");

    let expected = sorted_detections(&baseline);
    let got = sorted_detections(&migrated);
    assert!(!expected.is_empty(), "the incident must trigger detections");
    assert_eq!(got, expected, "migration must not change what the system detects");

    // The same topology declared in XML text is rebalanced like the
    // default wiring: one `run_spec` serves both.
    let xml = FIGURE8_XML.replace(r#"type="EsperBolt" tasks="4""#, r#"type="EsperBolt" tasks="2""#);
    let spec = tms_dsps::parse_topology_xml(&xml).unwrap();
    let declared = sys.run_spec(&spec, live, &plan, None, ComponentTypes::figure8()).unwrap();
    let stats = declared.elastic.expect("elastic stats");
    assert!(stats.completed >= 1, "the XML-declared run must migrate too: {stats:?}");
    assert_eq!(sorted_detections(&declared), expected);
}

/// Chaos acceptance: migrations under 1% injected panics + 1% transport
/// drops with at-least-once recovery. No root may fail, the migration
/// machinery must actually run, and after deduplication the detections
/// must largely agree with a failure-free elastic run (replays duplicate
/// window insertions, so borderline crossings may shift — exact equality
/// is not achievable under at-least-once).
#[test]
fn chaos_migration_run_recovers_and_matches_after_dedup() {
    let (history, seeds) = small_history();
    let config = tms_core::system::SystemConfig {
        parallelism: multi_task_parallelism(),
        elastic: Some(aggressive_elastic()),
        ..Default::default()
    };
    let mut sys = TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, config).unwrap();
    let plan = sys.startup_plan(&leaves_rule(), 2).unwrap();
    let targets = hotspot_targets(&sys, &plan, 4);
    let live = skew_stream(live_stream(), &targets);

    sys.config.chaos = Some(paced(&live, tms_dsps::FaultConfig::default()));
    let clean = sys.run(live.clone(), &plan, None).unwrap();
    assert!(clean.elastic.expect("elastic stats").completed >= 1);

    sys.config.reliability = Some(tms_dsps::ReliabilityConfig {
        ack_timeout: Duration::from_millis(500),
        max_retries: 20,
        backoff: 1.5,
        max_pending: 256,
        max_task_restarts: 1000,
    });
    sys.config.chaos = Some(paced(
        &live,
        tms_dsps::FaultConfig { panic_p: 0.01, drop_p: 0.01, delay: None, seed: 0x7EA_5EED },
    ));
    // Sample every tuple tree: the chaos run must yield complete lineage
    // traces even across restarts, replays and live migrations.
    sys.config.monitor = Some(tms_dsps::MonitorConfig {
        window: Duration::from_millis(200),
        // Sample everything, with rings sized so the startup burst
        // cannot overflow them between monitor drains (a dropped span
        // orphans its children and fails the connectivity bar below).
        lineage: Some(tms_dsps::LineageConfig {
            ring_capacity: 1 << 17,
            ..tms_dsps::LineageConfig::full()
        }),
        ..tms_dsps::MonitorConfig::default()
    });
    let chaotic = sys.run(live, &plan, None).unwrap();
    let stats = chaotic.elastic.expect("elastic stats");
    assert!(
        stats.completed + stats.aborted >= 1,
        "the migration machinery must be exercised under faults: {stats:?}"
    );
    let reader = chaotic
        .metrics
        .iter()
        .find(|m| m.component == "busReader")
        .expect("spout metrics present");
    assert!(reader.acked > 0, "reliability was on: roots must be acked");
    assert_eq!(reader.failed, 0, "no root may exhaust its replay budget");
    assert!(!chaotic.detections.is_empty(), "detections must survive the faults");

    // Chaos observability: recovery kept pace with the injections.
    let injected_panics: u64 = chaotic.metrics.iter().map(|m| m.injected_panics).sum();
    let restarted: u64 = chaotic.metrics.iter().map(|m| m.restarted).sum();
    assert!(injected_panics > 0, "the chaos schedule must have fired panics");
    assert!(
        restarted >= injected_panics,
        "restarts ({restarted}) must cover injected panics ({injected_panics})"
    );

    // Lineage completeness under adversity: trees assemble connected, at
    // least one crosses a restart via a replay span, and the run's flight
    // recorder shows the control-plane activity (restarts + migrations)
    // those trees lived through.
    assert!(
        chaotic.events.iter().any(|e| e.kind == tms_dsps::FlightKind::TaskRestart),
        "restarts must land in the flight recorder"
    );
    assert!(
        chaotic.events.iter().any(|e| e.kind == tms_dsps::FlightKind::MigrationCompleted),
        "completed migrations must land in the flight recorder"
    );
    let summaries = tms_dsps::lineage::summarize(&chaotic.traces);
    assert!(!summaries.is_empty(), "sampled spans must have been exported");
    let path = chaotic.critical_path.as_ref().expect("lineage run attributes the critical path");
    assert_eq!(path.dropped_spans, 0, "rings sized for the run must not drop spans");
    let connected = summaries.iter().filter(|s| s.connected).count();
    assert_eq!(
        connected,
        summaries.len(),
        "every sampled tree must assemble connected under chaos + migration"
    );
    assert!(
        summaries.iter().any(|s| s.replays > 0),
        "at least one tree must cross a restart via a replay span"
    );
    assert!(path.traces > 0 && path.bottleneck.is_some());
    assert!(
        path.components.iter().any(|c| c.component == "esper"),
        "the engines must appear in the attribution: {path:?}"
    );

    // The adversity-crossing trees must survive export: render the run's
    // spans as Chrome trace_event JSON and check the interesting content
    // made it through (grammar-level validation of the same renderer
    // lives in the lineage suite).
    let chrome =
        tms_dsps::lineage::render_chrome_trace(&chaotic.traces, &chaotic.trace_components);
    assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(chrome.ends_with("]}"));
    assert!(chrome.contains("\"name\":\"esper\""), "engine tasks must be named threads");
    assert!(chrome.contains(":replay\""), "the replayed hops must appear in the export");
    assert!(chrome.contains(":spout_emit\"") && chrome.contains(":process\""));
    assert!(!chrome.contains("\"?:"), "every exported span's task must resolve to a component");

    // Replays duplicate window insertions, which inflates aggregates and
    // fires *extra* borderline crossings at new timestamps. So: the
    // failure-free detections must survive (timestamp-level recall), and
    // the *places* flagged must agree in both directions — duplicates
    // shift when a crossing fires, not where congestion is.
    let clean_set: BTreeSet<_> = sorted_detections(&clean).into_iter().collect();
    let chaos_set: BTreeSet<_> = sorted_detections(&chaotic).into_iter().collect();
    let overlap = clean_set.intersection(&chaos_set).count() as f64;
    let recall = overlap / clean_set.len() as f64;
    assert!(
        recall >= 0.5,
        "deduped detections must retain the failure-free run's events \
         (recall {recall:.2}, clean {}, chaos {})",
        clean_set.len(),
        chaos_set.len()
    );
    let places = |set: &BTreeSet<(String, String, u64)>| -> BTreeSet<(String, String)> {
        set.iter().map(|(r, l, _)| (r.clone(), l.clone())).collect()
    };
    let clean_places = places(&clean_set);
    let chaos_places = places(&chaos_set);
    let place_overlap = clean_places.intersection(&chaos_places).count() as f64;
    let place_recall = place_overlap / clean_places.len() as f64;
    let place_precision = place_overlap / chaos_places.len() as f64;
    assert!(
        place_recall >= 0.5 && place_precision >= 0.5,
        "the flagged locations must largely agree \
         (recall {place_recall:.2}, precision {place_precision:.2})"
    );
}
