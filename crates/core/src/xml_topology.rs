//! Figure 8 as a value, and the one builder that makes it run.
//!
//! "We enhanced Storm's library by supporting the creation of topologies
//! via XML. [...] the user must submit only a spout for specifying the
//! input source along with the rules she wishes to execute" (Section 3.2).
//! The wiring is a [`TopologySpec`]: parsed from a deployment's XML, or
//! [`figure8_spec`] — [`FIGURE8_XML`] with the configured task counts —
//! for the default topology; there is no other description of it. Each
//! component's `type=` name is resolved through the [`ComponentTypes`]
//! table the [`TopologyEnv`] owns: the product's seven types are in it,
//! and a caller registers a spout or sink type of its own before the run.
//! What a type needs beyond its declaration is a field of the
//! environment, and every check on a declaration happens here, before any
//! thread starts. [`TrafficSystem::run_spec`] is the only caller of
//! `build_from_spec` and the only code that submits the result.

use crate::error::CoreError;
use crate::kappa::{KappaConfig, StatsBolt};
use crate::system::{StartupPlan, TrafficSystem};
use crate::thresholds::Detection;
use crate::topology::{
    AreaTrackerBolt, BusReaderSpout, BusStopsTrackerBolt, ElasticHandle, EsperBolt,
    EsperProfileRegistry, EventsStorerBolt, PreProcessBolt, SplitterBolt, TopologyParallelism,
    TrafficMessage,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use tms_dsps::topology::{BoltFactory, SpoutFactory};
use tms_dsps::xml::{ComponentSpec, GroupingSpec, TopologySpec};
use tms_dsps::{
    chaos_wrap, parse_topology_xml, Bolt, FlightRecorder, Grouping, Parallelism, Spout, Topology,
    TopologyBuilder,
};
use tms_storage::{RemoteDb, ThresholdStore};
use tms_traffic::{Attribute, BusTrace};

/// The Figure 8 wiring, with [`TopologyParallelism::default`]'s task
/// counts. A deployment's file adds a `<rules>` section and its own
/// counts; DESIGN.md prints this text.
pub const FIGURE8_XML: &str = r#"<topology name="traffic">
  <spout name="busReader" type="BusReaderSpout" tasks="2"/>
  <bolt name="preprocess" type="PreProcessBolt" tasks="2">
    <subscribe source="busReader" grouping="fields" key="vehicle"/>
  </bolt>
  <bolt name="areaTracker" type="AreaTrackerBolt" tasks="2">
    <subscribe source="preprocess" grouping="shuffle"/>
  </bolt>
  <bolt name="busStopsTracker" type="BusStopsTrackerBolt" tasks="2">
    <subscribe source="areaTracker" grouping="shuffle"/>
  </bolt>
  <bolt name="splitter" type="SplitterBolt" tasks="1">
    <subscribe source="busStopsTracker" grouping="shuffle"/>
  </bolt>
  <bolt name="esper" type="EsperBolt" tasks="4">
    <subscribe source="splitter" grouping="direct"/>
  </bolt>
  <bolt name="eventsStorer" type="EventsStorerBolt" tasks="1">
    <subscribe source="esper" grouping="shuffle"/>
  </bolt>
</topology>"#;

/// [`FIGURE8_XML`] with `p`'s task counts. The same wiring runs with or
/// without the in-stream statistics: under `SystemConfig::kappa` the
/// Splitter folds them and its refreshes travel the tuples' edges.
pub fn figure8_spec(p: &TopologyParallelism) -> TopologySpec {
    let mut spec = parse_topology_xml(FIGURE8_XML).expect("the constant parses");
    for c in spec.spouts.iter_mut().chain(&mut spec.bolts) {
        let tasks = match c.name.as_str() {
            "busReader" => p.spout_tasks,
            "preprocess" => p.preprocess_tasks,
            "areaTracker" | "busStopsTracker" => p.tracker_tasks,
            "splitter" => p.splitter_tasks,
            "esper" => p.esper_tasks,
            _ => 1,
        };
        c.parallelism = Parallelism::of(tasks.max(1));
    }
    spec
}

/// What a `type=` name resolves to: the per-task factory the runtime
/// calls (again after a supervised restart).
pub enum Component {
    /// A spout type.
    Spout(SpoutFactory<TrafficMessage>),
    /// A bolt type.
    Bolt(BoltFactory<TrafficMessage>),
}

impl Component {
    /// A spout type whose task `i` is `task(i)`.
    pub fn spout<S: Spout<TrafficMessage> + 'static>(
        task: impl Fn(usize) -> S + Send + Sync + 'static,
    ) -> Self {
        Component::Spout(Arc::new(move |ti| Box::new(task(ti)) as Box<dyn Spout<TrafficMessage>>))
    }

    /// A bolt type whose task `i` is `task(i)`.
    pub fn bolt<B: Bolt<TrafficMessage> + 'static>(
        task: impl Fn(usize) -> B + Send + Sync + 'static,
    ) -> Self {
        Component::Bolt(Arc::new(move |ti| Box::new(task(ti)) as Box<dyn Bolt<TrafficMessage>>))
    }
}

type Resolver = Box<dyn Fn(&TopologyEnv, &ComponentSpec) -> Result<Component, CoreError>>;

/// The table `type=` names are resolved through.
pub struct ComponentTypes(BTreeMap<String, Resolver>);

impl ComponentTypes {
    /// The product's seven types.
    pub fn figure8() -> Self {
        let product: [(&str, Resolver); 7] = [
            ("BusReaderSpout", Box::new(bus_reader)),
            ("PreProcessBolt", Box::new(|_, _| Ok(Component::bolt(|_| PreProcessBolt::new())))),
            ("AreaTrackerBolt", Box::new(area_tracker)),
            ("BusStopsTrackerBolt", Box::new(bus_stops_tracker)),
            ("SplitterBolt", Box::new(splitter)),
            ("EsperBolt", Box::new(esper)),
            ("EventsStorerBolt", Box::new(events_storer)),
        ];
        ComponentTypes(product.into_iter().map(|(name, resolve)| (name.into(), resolve)).collect())
    }

    /// Adds a type: `resolve` is given the environment and the declaration
    /// of each component of that type. A name the table already holds is
    /// an error.
    pub fn register(
        &mut self,
        name: &str,
        resolve: impl Fn(&TopologyEnv, &ComponentSpec) -> Result<Component, CoreError> + 'static,
    ) -> Result<(), CoreError> {
        if self.0.contains_key(name) {
            return Err(config(format!("component type {name:?} is already registered")));
        }
        self.0.insert(name.to_string(), Box::new(resolve));
        Ok(())
    }
}

/// What the components of one run are wired to.
pub struct TopologyEnv<'a> {
    /// Configuration, spatial index and storage medium.
    pub system: &'a TrafficSystem,
    /// Splitter routing and the rules of each engine.
    pub plan: &'a StartupPlan,
    /// Traces the BusReader spout replays.
    pub traces: Arc<Vec<BusTrace>>,
    /// Optional remote facade for the storage medium.
    pub db: Option<RemoteDb>,
    /// Where the EventsStorer mirrors detections for the caller.
    pub detections: Arc<Mutex<Vec<Detection>>>,
    /// Where the Esper bolts publish per-rule profiles.
    pub profiling: Option<Arc<EsperProfileRegistry>>,
    /// The elastic control loop the Splitter and the Esper bolts join.
    pub elastic: Option<Arc<ElasticHandle>>,
    /// The run's control-plane event log.
    pub flight: Arc<FlightRecorder>,
    /// The run's count of resequencer gap skips.
    pub gap_skips: Arc<AtomicU64>,
    /// The table `type=` names are resolved through.
    pub types: ComponentTypes,
}

fn config(reason: String) -> CoreError {
    CoreError::Config { reason }
}

fn bus_reader(env: &TopologyEnv, c: &ComponentSpec) -> Result<Component, CoreError> {
    let (traces, tasks) = (env.traces.clone(), c.parallelism.tasks);
    Ok(Component::spout(move |ti| BusReaderSpout::new(traces.clone(), ti, tasks)))
}

fn area_tracker(env: &TopologyEnv, _: &ComponentSpec) -> Result<Component, CoreError> {
    let quadtree = Arc::new(env.system.artifacts.spatial.quadtree.clone());
    Ok(Component::bolt(move |_| AreaTrackerBolt::new(quadtree.clone())))
}

fn bus_stops_tracker(env: &TopologyEnv, _: &ComponentSpec) -> Result<Component, CoreError> {
    let stops = Arc::new(env.system.artifacts.spatial.stops.clone());
    Ok(Component::bolt(move |_| BusStopsTrackerBolt::new(stops.clone())))
}

/// One task: its state is the stream's one order. Under
/// `SystemConfig::kappa` it also folds the statistics of the attributes
/// the planned rules monitor.
fn splitter(env: &TopologyEnv, c: &ComponentSpec) -> Result<Component, CoreError> {
    if c.parallelism.tasks != 1 {
        return Err(config(format!(
            "component {}: a {} runs as one task, {} declared: each task owns a Resequencer that \
             waits for seq 0 and is sent only a share of the sequence numbers: it holds all but \
             its first tuple to the end of the stream (or skips the gaps once its window is \
             full) and the engines see the tasks' orders interleaved",
            c.name, c.component_type, c.parallelism.tasks
        )));
    }
    let (kappa, rules) = (env.system.config.kappa, &env.plan.engine_plan.per_engine);
    kappa.as_ref().map_or(Ok(()), KappaConfig::validate)?;
    let monitored = |a: &Attribute| rules.iter().flatten().any(|(rule, _)| rule.attribute == *a);
    let attributes: Vec<_> = Attribute::ALL.into_iter().filter(monitored).collect();
    let (plan, elastic) = (Arc::new(env.plan.split_plan.clone()), env.elastic.clone());
    let (flight, gap_skips) = (env.flight.clone(), env.gap_skips.clone());
    let (store, engines) = (ThresholdStore::new(env.system.store.clone()), rules.len());
    Ok(Component::bolt(move |_| {
        let mut bolt =
            SplitterBolt::new(plan.clone()).with_gap_report(flight.clone(), gap_skips.clone());
        if let Some(handle) = &elastic {
            bolt = bolt.with_elastic(handle.clone());
        }
        if let Some(kappa) = kappa {
            let stats = StatsBolt::new(kappa, store.clone(), attributes.clone());
            bolt.stats = Some((stats.with_flight(flight.clone()), engines));
        }
        bolt
    }))
}

/// Under `SystemConfig::chaos` the tasks are fault-injecting `ChaosBolt`s:
/// the engine is the stateful heart of the topology and rebuilds itself
/// from the engine plan in `prepare`, so a supervised restart after an
/// injected panic recovers it completely.
fn esper(env: &TopologyEnv, c: &ComponentSpec) -> Result<Component, CoreError> {
    let engines = env.plan.engine_plan.engines();
    if c.parallelism.tasks != engines {
        return Err(config(format!(
            "component {}: EsperBolt declares {} tasks but the plan provisioned {engines} engines",
            c.name, c.parallelism.tasks
        )));
    }
    let config = &env.system.config;
    let (plan, method, db) =
        (Arc::new(env.plan.engine_plan.clone()), config.method.clone(), env.db.clone());
    let store = ThresholdStore::new(env.system.store.clone());
    let (incremental, sharing) = (config.incremental, config.sharing);
    let (profiling, elastic) = (env.profiling.clone(), env.elastic.clone());
    let task = move |_: usize| -> Box<dyn Bolt<TrafficMessage>> {
        let mut bolt = EsperBolt::new(plan.clone(), method.clone(), store.clone(), db.clone())
            .with_incremental(incremental)
            .with_sharing(sharing);
        if let Some(registry) = &profiling {
            bolt = bolt.with_profiling(registry.clone());
        }
        if let Some(handle) = &elastic {
            bolt = bolt.with_elastic(handle.clone());
        }
        Box::new(bolt)
    };
    Ok(Component::Bolt(match config.chaos {
        Some(faults) => Arc::new(chaos_wrap(task, faults)),
        None => Arc::new(task),
    }))
}

fn events_storer(env: &TopologyEnv, _: &ComponentSpec) -> Result<Component, CoreError> {
    let (store, detections) = (env.system.store.clone(), env.detections.clone());
    Ok(Component::bolt(move |_| EventsStorerBolt::new(store.clone(), detections.clone())))
}

/// Resolves an XML grouping to a runtime grouping. Fields groupings may
/// key on `vehicle` or `line` (the two stable keys a raw/enriched trace
/// exposes).
fn resolve_grouping(
    spec: &GroupingSpec,
    component: &str,
) -> Result<Grouping<TrafficMessage>, CoreError> {
    fn on(key: impl Fn(&BusTrace) -> u32 + Send + Sync + 'static) -> Grouping<TrafficMessage> {
        Grouping::fields(move |m: &TrafficMessage| match m {
            TrafficMessage::Raw { trace, .. } => u64::from(key(trace)),
            TrafficMessage::Enriched { trace, .. } => u64::from(key(&trace.trace)),
            _ => 0,
        })
    }
    Ok(match spec {
        GroupingSpec::Shuffle => Grouping::Shuffle,
        GroupingSpec::All => Grouping::All,
        GroupingSpec::Direct => Grouping::Direct,
        GroupingSpec::Fields(key) => match key.as_str() {
            "vehicle" => on(|t| t.vehicle_id),
            "line" => on(|t| t.line_id),
            other => {
                return Err(config(format!(
                    "component {component}: unknown fields key {other:?} (vehicle|line)"
                )))
            }
        },
    })
}

/// Builds the runnable topology a spec describes, resolving every
/// component's type through `env.types` against `env`. Refused with a
/// [`CoreError::Config`] that names the component: a type the table does
/// not hold, a spout type declared as a bolt (or the reverse), a fields
/// key other than `vehicle` / `line`, and what the type's resolver checks
/// (an EsperBolt's tasks are the planned engines; a SplitterBolt is a
/// single task).
pub(crate) fn build_from_spec(
    spec: &TopologySpec,
    env: &TopologyEnv,
) -> Result<Topology<TrafficMessage>, CoreError> {
    let resolve = |c: &ComponentSpec| match env.types.0.get(&c.component_type) {
        Some(resolve) => resolve(env, c),
        None => Err(config(format!(
            "component {}: unknown type {:?}",
            c.name, c.component_type
        ))),
    };
    let misdeclared = |c: &ComponentSpec, declared: &str| {
        config(format!(
            "component {}: {:?} is not a {declared} type",
            c.name, c.component_type
        ))
    };
    let mut builder = TopologyBuilder::new(spec.name.clone());
    for c in &spec.spouts {
        let Component::Spout(task) = resolve(c)? else { return Err(misdeclared(c, "spout")) };
        builder = builder.add_spout(c.name.clone(), c.parallelism, move |ti| task(ti));
    }
    for c in &spec.bolts {
        let inputs = c
            .subscriptions
            .iter()
            .map(|sub| Ok((sub.source.clone(), resolve_grouping(&sub.grouping, &c.name)?)))
            .collect::<Result<Vec<(String, Grouping<TrafficMessage>)>, CoreError>>()?;
        let Component::Bolt(task) = resolve(c)? else { return Err(misdeclared(c, "bolt")) };
        builder = builder.add_bolt(c.name.clone(), c.parallelism, inputs, move |ti| task(ti));
    }
    builder.build().map_err(CoreError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleSpec;
    use crate::system::SystemConfig;
    use tms_geo::DUBLIN_BBOX;
    use tms_traffic::{FleetConfig, FleetGenerator, DAY_MS, HOUR_MS};

    /// Figure 8 under other component names, three engines, and the rules
    /// to run.
    const XML: &str = r#"<topology name="xml-traffic">
      <spout name="reader" type="BusReaderSpout" tasks="2"/>
      <bolt name="preprocess" type="PreProcessBolt" tasks="2">
        <subscribe source="reader" grouping="fields" key="vehicle"/>
      </bolt>
      <bolt name="areaTracker" type="AreaTrackerBolt" tasks="2">
        <subscribe source="preprocess" grouping="shuffle"/>
      </bolt>
      <bolt name="busStops" type="BusStopsTrackerBolt" tasks="2">
        <subscribe source="areaTracker" grouping="shuffle"/>
      </bolt>
      <bolt name="splitter" type="SplitterBolt" tasks="1">
        <subscribe source="busStops" grouping="shuffle"/>
      </bolt>
      <bolt name="esper" type="EsperBolt" tasks="3">
        <subscribe source="splitter" grouping="direct"/>
      </bolt>
      <bolt name="storer" type="EventsStorerBolt" tasks="1">
        <subscribe source="esper" grouping="shuffle"/>
      </bolt>
      <rules>
        <rule>delay:leaves:10</rule>
        <rule>delay:stops:10</rule>
      </rules>
    </topology>"#;

    fn fleet() -> FleetConfig {
        FleetConfig { buses: 16, lines: 4, seed: 31, ..FleetConfig::default() }
    }

    /// A system bootstrapped on a small morning, and `XML`'s rules.
    fn system() -> (TrafficSystem, Vec<RuleSpec>) {
        let gen = FleetGenerator::new(fleet(), 0).unwrap();
        let seeds = gen.route_seed_points();
        let history: Vec<_> = gen.take_while(|t| t.timestamp_ms < 9 * HOUR_MS).collect();
        let system =
            TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, SystemConfig::default())
                .unwrap();
        let mut rules =
            TrafficSystem::rules_from_xml_spec(&parse_topology_xml(XML).unwrap()).unwrap();
        for r in &mut rules {
            r.s = 0.5;
        }
        (system, rules)
    }

    fn live(until_ms: u64) -> Vec<BusTrace> {
        FleetGenerator::new(fleet(), 1)
            .unwrap()
            .take_while(|t| t.timestamp_ms < DAY_MS + until_ms)
            .collect()
    }

    /// The refusal `spec` meets before anything runs.
    fn refusal(system: &TrafficSystem, rules: &[RuleSpec], spec: &TopologySpec) -> String {
        let plan = system.startup_plan(rules, 3).unwrap();
        match system.run_spec(spec, live(7 * HOUR_MS), &plan, None, ComponentTypes::figure8()) {
            Err(CoreError::Config { reason }) => reason,
            other => panic!("expected a configuration error, got {:?}", other.map(|r| r.metrics)),
        }
    }

    #[test]
    fn the_printed_xml_is_the_default_spec() {
        // DESIGN.md prints the text inside a list item, two columns in.
        let design = include_str!("../../../DESIGN.md");
        assert!(design.contains(&FIGURE8_XML.replace('\n', "\n  ")), "DESIGN.md prints FIGURE8_XML");
        let spec = figure8_spec(&TopologyParallelism::default());
        assert_eq!(parse_topology_xml(FIGURE8_XML).unwrap(), spec);

        let p = TopologyParallelism {
            spout_tasks: 3,
            preprocess_tasks: 0,
            tracker_tasks: 5,
            splitter_tasks: 1,
            esper_tasks: 7,
        };
        let spec = figure8_spec(&p);
        let tasks: Vec<(&str, usize)> = spec
            .spouts
            .iter()
            .chain(&spec.bolts)
            .map(|c| (c.name.as_str(), c.parallelism.tasks))
            .collect();
        assert_eq!(
            tasks,
            [
                ("busReader", 3),
                ("preprocess", 1),
                ("areaTracker", 5),
                ("busStopsTracker", 5),
                ("splitter", 1),
                ("esper", 7),
                ("eventsStorer", 1)
            ]
        );
        let groupings = spec.bolts.iter().flat_map(|b| &b.subscriptions).map(|s| &s.grouping);
        assert!(groupings.clone().all(|g| *g != GroupingSpec::All), "no edge broadcasts");
        assert_eq!(groupings.count(), spec.bolts.len(), "one input per bolt");
    }

    #[test]
    fn xml_topology_runs_end_to_end() {
        let (system, rules) = system();
        let spec = parse_topology_xml(XML).unwrap();
        let plan = system.startup_plan(&rules, 3).unwrap();
        let live = live(8 * HOUR_MS);
        let tuples = live.len() as u64;
        let report =
            system.run_spec(&spec, live, &plan, None, ComponentTypes::figure8()).unwrap();

        // Every detection the sink saw is a row of the storage medium.
        assert!(!report.detections.is_empty());
        let stored = system.store.with_table("detected_events", |t| t.len()).unwrap();
        assert_eq!(stored, report.detections.len());
        // Tuple conservation up to the merge point, under the XML's names.
        let of = |name: &str| report.metrics.iter().find(|m| m.component == name).unwrap();
        assert_eq!(of("reader").emitted, tuples);
        for stage in ["preprocess", "areaTracker", "busStops", "splitter"] {
            assert_eq!(of(stage).throughput, tuples, "{stage}");
        }
        assert_eq!(of("esper").throughput, of("splitter").emitted);
        assert_eq!(of("storer").throughput, stored as u64);
        assert_eq!(report.gap_skips, 0);
    }

    #[test]
    fn unknown_component_types_rejected() {
        let (system, rules) = system();
        let mut spec = parse_topology_xml(XML).unwrap();
        spec.spouts[0].component_type = "MagicSpout".into();
        let reason = refusal(&system, &rules, &spec);
        assert!(reason.contains("reader") && reason.contains("MagicSpout"), "{reason}");
        // A known type on the wrong side of the spout/bolt line.
        spec.spouts[0].component_type = "PreProcessBolt".into();
        let reason = refusal(&system, &rules, &spec);
        assert!(reason.contains("reader") && reason.contains("not a spout"), "{reason}");
    }

    #[test]
    fn esper_task_count_must_match_plan() {
        let (system, rules) = system();
        let mut spec = parse_topology_xml(XML).unwrap();
        spec.bolts[4].parallelism = Parallelism::of(5);
        let reason = refusal(&system, &rules, &spec);
        assert!(reason.contains("esper") && reason.contains("5 tasks"), "{reason}");
    }

    #[test]
    fn unknown_fields_key_rejected() {
        let (system, rules) = system();
        let mut spec = parse_topology_xml(XML).unwrap();
        spec.bolts[0].subscriptions[0].grouping = GroupingSpec::Fields("colour".into());
        let reason = refusal(&system, &rules, &spec);
        assert!(reason.contains("preprocess") && reason.contains("colour"), "{reason}");
    }

    /// Two splitter tasks on a run shorter than the resequencer's window
    /// used to fail nowhere: no gap was ever skipped, every tuple was
    /// routed from `finish()`, and the two tasks' orders met at the engines.
    #[test]
    fn a_second_splitter_task_is_refused_from_both_sources() {
        let (mut system, rules) = system();
        let mut spec = parse_topology_xml(XML).unwrap();
        spec.bolts[3].parallelism = Parallelism::of(2);
        let reason = refusal(&system, &rules, &spec);
        assert!(reason.contains("splitter") && reason.contains("2 declared"), "{reason}");
        assert!(reason.contains("Resequencer"), "{reason}");

        system.config.parallelism.splitter_tasks = 2;
        let plan = system.startup_plan(&rules, 3).unwrap();
        match system.run(live(7 * HOUR_MS), &plan, None) {
            Err(CoreError::Config { reason }) => {
                assert!(reason.contains("splitter") && reason.contains("2 declared"), "{reason}")
            }
            other => panic!("expected a refusal, got {:?}", other.map(|r| r.gap_skips)),
        }
        assert_eq!(system.store.with_table("detected_events", |t| t.len()).unwrap_or(0), 0);
    }

    #[test]
    fn a_type_name_is_registered_once() {
        let mut types = ComponentTypes::figure8();
        let preprocess = |_: &TopologyEnv, _: &ComponentSpec| {
            Ok(Component::bolt(|_| PreProcessBolt::new()))
        };
        assert!(matches!(
            types.register("EsperBolt", preprocess),
            Err(CoreError::Config { reason }) if reason.contains("EsperBolt")
        ));
        types.register("MyBolt", preprocess).unwrap();
        assert!(matches!(
            types.register("MyBolt", preprocess),
            Err(CoreError::Config { reason }) if reason.contains("MyBolt")
        ));
    }
}
