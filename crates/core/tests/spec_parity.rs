//! One description of the topology: a topology declared in XML text runs
//! through the same `run_spec` as the default wiring and detects the same
//! events, and a caller's own spout and sink types run under the product's
//! wiring by being registered, not by copying the chain.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tms_core::rules::{LocationSelector, RuleSpec};
use tms_core::system::{RunReport, SystemConfig, TrafficSystem};
use tms_core::thresholds::RetrievalMethod;
use tms_core::topology::{EventsStorerBolt, TopologyParallelism, TrafficMessage};
use tms_core::xml_topology::{figure8_spec, Component, ComponentTypes, FIGURE8_XML};
use tms_core::KappaConfig;
use tms_dsps::{parse_topology_xml, Bolt, Emitter, FlightKind, Spout, TopologySpec};
use tms_geo::DUBLIN_BBOX;
use tms_traffic::{Attribute, BusTrace, FleetConfig, FleetGenerator, DAY_MS, HOUR_MS};

const ENGINES: usize = 3;

/// `FIGURE8_XML` as a deployment would write it for `ENGINES` engines;
/// checked to be the spec `TrafficSystem::run` builds for the same
/// settings, with kappa on or off.
fn xml_spec() -> TopologySpec {
    let xml = FIGURE8_XML
        .replace(r#"type="EsperBolt" tasks="4""#, &format!(r#"type="EsperBolt" tasks="{ENGINES}""#));
    let spec = parse_topology_xml(&xml).unwrap();
    let parallelism = TopologyParallelism { esper_tasks: ENGINES, ..TopologyParallelism::default() };
    assert_eq!(spec, figure8_spec(&parallelism));
    spec
}

fn bootstrap(seed: u64, config: SystemConfig) -> TrafficSystem {
    let generator = FleetGenerator::new(FleetConfig::small(seed), 0).unwrap();
    let seeds = generator.route_seed_points();
    let history: Vec<BusTrace> =
        generator.take_while(|t| t.timestamp_ms < 9 * HOUR_MS).collect();
    TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, config).unwrap()
}

fn live(seed: u64) -> Vec<BusTrace> {
    FleetGenerator::new(FleetConfig::small(seed), 1)
        .unwrap()
        .take_while(|t| t.timestamp_ms < DAY_MS + 8 * HOUR_MS)
        .collect()
}

fn rules() -> Vec<RuleSpec> {
    [("leaves", LocationSelector::QuadtreeLeaves), ("stops", LocationSelector::BusStops)]
        .into_iter()
        .map(|(name, selector)| {
            let mut rule = RuleSpec::new(name, Attribute::Delay, selector, 10);
            rule.s = 0.5;
            rule
        })
        .collect()
}

/// The detections as sorted (rule, location, timestamp, threshold bits).
fn multiset(report: &RunReport) -> Vec<(String, String, u64, Option<u64>)> {
    let mut out: Vec<_> = report
        .detections
        .iter()
        .map(|d| {
            let threshold = d.threshold.map(f64::to_bits);
            (d.rule.clone(), d.location.clone(), d.timestamp_ms, threshold)
        })
        .collect();
    out.sort();
    out
}

fn of<'a>(report: &'a RunReport, component: &str) -> &'a tms_dsps::ComponentWindow {
    report.metrics.iter().find(|m| m.component == component).unwrap()
}

#[test]
fn a_topology_parsed_from_xml_detects_what_the_default_wiring_detects() {
    for seed in [9, 10] {
        let system = bootstrap(seed, SystemConfig::default());
        let plan = system.startup_plan(&rules(), ENGINES).unwrap();
        let default = system.run(live(seed), &plan, None).unwrap();
        let parsed = system
            .run_spec(&xml_spec(), live(seed), &plan, None, ComponentTypes::figure8())
            .unwrap();
        assert!(!default.detections.is_empty());
        assert!(multiset(&parsed) == multiset(&default), "seed {seed}");
    }
}

/// A kappa run is repeatable: the Splitter folds the released order and
/// sends publication `k` to every engine after tuple `k·R − 1`, so `run`
/// twice and the XML text once detect the same events against the same
/// thresholds. Each run gets a fresh bootstrap, because a run writes the
/// statistics it learned back to the store.
#[test]
fn a_kappa_run_repeats_and_the_xml_wiring_runs_it_too() {
    const REFRESH_EVERY: u64 = 256;
    let config = SystemConfig {
        method: RetrievalMethod::ThresholdStream,
        kappa: Some(KappaConfig { refresh_every: REFRESH_EVERY, min_samples: 5 }),
        ..SystemConfig::default()
    };
    for seed in [9, 10] {
        let traces = live(seed);
        let publications = (traces.len() as u64).div_ceil(REFRESH_EVERY);
        let fresh = || {
            let system = bootstrap(seed, config.clone());
            let plan = system.startup_plan(&rules(), ENGINES).unwrap();
            (system, plan)
        };
        let (system, plan) = fresh();
        let first = system.run(traces.clone(), &plan, None).unwrap();
        let (system, plan) = fresh();
        let second = system.run(traces.clone(), &plan, None).unwrap();
        let (mut system, plan) = fresh();
        let parsed = system
            .run_spec(&xml_spec(), traces.clone(), &plan, None, ComponentTypes::figure8())
            .unwrap();
        assert!(!first.detections.is_empty());
        assert!(multiset(&first) == multiset(&second), "seed {seed}: run twice");
        assert!(multiset(&first) == multiset(&parsed), "seed {seed}: run and the XML");

        // Every refresh reaches every engine on the tuples' edges.
        let refreshes = parsed.events.iter().filter(|e| e.kind == FlightKind::StatsRefresh);
        assert_eq!(refreshes.count() as u64, publications);
        assert_eq!(of(&parsed, "esper").throughput, of(&parsed, "splitter").emitted);
        system.config.kappa = None;
        let routed = system.run(traces, &plan, None).unwrap();
        assert_eq!(
            of(&parsed, "splitter").emitted,
            of(&routed, "splitter").emitted + publications * ENGINES as u64
        );
    }
}

/// Emits tuple `i` no earlier than `start + i / RATE`, striped by vehicle
/// like the BusReader, and records how late each emission was.
struct PacingSpout {
    traces: Arc<Vec<BusTrace>>,
    cursor: usize,
    lane: usize,
    lanes: usize,
    start: Instant,
    lags: Arc<Mutex<Vec<Duration>>>,
}

const RATE: u64 = 100_000;

impl Spout<TrafficMessage> for PacingSpout {
    fn next(&mut self) -> Option<TrafficMessage> {
        loop {
            let trace = *self.traces.get(self.cursor)?;
            let seq = self.cursor as u64;
            self.cursor += 1;
            if trace.vehicle_id as usize % self.lanes != self.lane {
                continue;
            }
            let due = self.start + Duration::from_nanos(seq * 1_000_000_000 / RATE);
            while Instant::now() < due {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.lags.lock().push(due.elapsed());
            return Some(TrafficMessage::Raw { seq, trace });
        }
    }
}

/// The product's storer, stamping each detection once it is stored.
struct StampingStorer {
    inner: EventsStorerBolt,
    stamps: Arc<Mutex<Vec<(u64, Instant)>>>,
}

impl Bolt<TrafficMessage> for StampingStorer {
    fn process(&mut self, msg: TrafficMessage, emitter: &mut dyn Emitter<TrafficMessage>) {
        let trigger = match &msg {
            TrafficMessage::Detection(d) => Some(d.timestamp_ms),
            _ => None,
        };
        self.inner.process(msg, emitter);
        if let Some(at) = trigger {
            self.stamps.lock().push((at, Instant::now()));
        }
    }
}

#[test]
fn a_registered_spout_and_sink_run_under_the_product_wiring() {
    let system = bootstrap(9, SystemConfig::default());
    let plan = system.startup_plan(&rules(), ENGINES).unwrap();
    let expected = multiset(&system.run(live(9), &plan, None).unwrap());

    let lags = Arc::new(Mutex::new(Vec::new()));
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let mut types = ComponentTypes::figure8();
    let (spout_lags, start) = (lags.clone(), Instant::now() + Duration::from_millis(50));
    types
        .register("PacingSpout", move |env, declared| {
            let (traces, lanes, lags) =
                (env.traces.clone(), declared.parallelism.tasks, spout_lags.clone());
            Ok(Component::spout(move |lane| PacingSpout {
                traces: traces.clone(),
                cursor: 0,
                lane,
                lanes,
                start,
                lags: lags.clone(),
            }))
        })
        .unwrap();
    let storer_stamps = stamps.clone();
    types
        .register("StampingStorer", move |env, _| {
            let (store, sink, stamps) =
                (env.system.store.clone(), env.detections.clone(), storer_stamps.clone());
            Ok(Component::bolt(move |_| StampingStorer {
                inner: EventsStorerBolt::new(store.clone(), sink.clone()),
                stamps: stamps.clone(),
            }))
        })
        .unwrap();

    let mut spec = xml_spec();
    spec.spouts[0].component_type = "PacingSpout".into();
    spec.bolts.last_mut().unwrap().component_type = "StampingStorer".into();
    let traces = live(9);
    let tuples = traces.len();
    let report = system.run_spec(&spec, traces, &plan, None, types).unwrap();

    assert!(multiset(&report) == expected);
    assert_eq!(lags.lock().len(), tuples);
    assert_eq!(stamps.lock().len(), expected.len());
    assert_eq!(of(&report, "busReader").emitted, tuples as u64);
}
