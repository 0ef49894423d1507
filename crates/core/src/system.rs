//! The end-to-end traffic management system (Figure 3): off-line
//! computation → start-up optimization → on-line processing.

use crate::allocation::{best_grouping_allocation, round_robin, Allocation, Grouping};
use crate::error::CoreError;
use crate::latency::{EstimationModel, PolyModel, RuleLoad};
use crate::offline::{run_offline, OfflineArtifacts, OfflineConfig};
use crate::partitioning::{partition_rule, Partition, RegionRate};
use crate::rules::{LocationSelector, RuleSpec, SpatialContext};
use crate::thresholds::{Detection, RetrievalMethod};
use crate::topology::{
    ElasticHandle, EnginePlan, EsperProfileRegistry, GroupingKind, GroupingRoute, MigrationMeta,
    SplitPlan, TopologyParallelism,
};
use crate::xml_topology::{build_from_spec, figure8_spec, ComponentTypes, TopologyEnv};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tms_dsps::runtime::{ReliabilityConfig, RuntimeConfig};
use tms_dsps::scheduler::{Assignment, ClusterSpec};
use tms_dsps::{
    CriticalPathReport, FaultConfig, FlightEvent, FlightKind, FlightRecorder, LocalCluster,
    MonitorConfig,
};
use tms_geo::GeoPoint;
use tms_storage::TableStore;
use tms_traffic::{BusTrace, LocId};

/// Allocation strategy for the start-up optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationStrategy {
    /// Algorithm 2 over the best layer grouping (the paper's approach).
    Proposed,
    /// Round-robin engines over per-layer groupings (Figure 11 baseline).
    RoundRobin,
}

/// Configuration of a system run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The (simulated) cluster to run on.
    pub cluster: ClusterSpec,
    /// How rules obtain their thresholds.
    pub method: RetrievalMethod,
    /// Off-line component parameters.
    pub offline: OfflineConfig,
    /// Start-up allocation strategy.
    pub strategy: AllocationStrategy,
    /// Metrics monitor window, if any.
    pub monitor: Option<MonitorConfig>,
    /// Parallelism of the non-Esper topology components.
    pub parallelism: TopologyParallelism,
    /// Whether the Esper engines serve single-source pane aggregates from
    /// their pane accumulators and filters by the anchor fast path;
    /// `false` rescans those statements' full windows.
    pub incremental: bool,
    /// Whether the Esper engines run the sharing planner: every
    /// Listing-1-family rule is served from its pane's accumulator bank
    /// (and keyed threshold index), and same-shape rules collapse into
    /// clusters on one window, bank and index. `false` keeps every
    /// statement on private state and the rescan path.
    pub sharing: bool,
    /// At-least-once delivery (acker + replay + supervised restarts).
    /// `None` keeps the default fail-fast, at-most-once runtime.
    pub reliability: Option<ReliabilityConfig>,
    /// Fault injection: wraps the Esper bolts in chaos wrappers and arms
    /// transport drops. `None` (the default) injects nothing.
    pub chaos: Option<FaultConfig>,
    /// Elastic rule re-partitioning: a rebalancer watches the splitter's
    /// observed per-region load and migrates rule partitions between live
    /// engines when the imbalance crosses the bound. `None` (the default)
    /// keeps the start-up assignment for the whole run.
    pub elastic: Option<ElasticConfig>,
    /// In-stream incremental statistics (the kappa path): the Splitter
    /// folds the per-cell moments and its refreshes carry the tables to
    /// every engine, without the batch round trip; the final tables are
    /// written back to the store as the stream ends. `None` (the default)
    /// leaves thresholds to the offline bootstrap / batch layer.
    pub kappa: Option<crate::kappa::KappaConfig>,
    /// Durable bolt state (periodic snapshot + changelog per task);
    /// restarted tasks resume from disk instead of cold. `None` keeps
    /// all bolt state in memory.
    pub durability: Option<tms_dsps::DurabilityConfig>,
    /// Logical worker count the scheduler spreads executors over
    /// (placement modeling; the run itself stays in-process — spawning
    /// real worker processes is [`tms_dsps::DistributedCluster`]'s job).
    /// `None` derives the count from the cluster spec.
    pub workers: Option<usize>,
}

/// Configuration of the elastic rebalancer (the closed control loop over
/// the planner-drift observation: re-run Algorithm 1 on observed rates
/// and migrate state, no topology restart).
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Trigger threshold on the observed imbalance (max engine load over
    /// mean engine load, ≥ 1). Must exceed 1.
    pub imbalance_bound: f64,
    /// How often the rebalancer samples the observed per-region load.
    pub check_interval: Duration,
    /// Minimum time between rebalance decisions (lets a previous round's
    /// effect show in the observations before acting again).
    pub cooldown: Duration,
    /// How long the splitter waits for a drain barrier's deposit before
    /// aborting a migration.
    pub drain_timeout: Duration,
    /// Most region moves issued per rebalance decision (highest observed
    /// rate first).
    pub max_moves_per_cycle: usize,
    /// Minimum tuples observed in a grouping during a check interval
    /// before its imbalance is acted on (guards against deciding on
    /// start-up or tail noise).
    pub min_observed: u64,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            imbalance_bound: 2.0,
            check_interval: Duration::from_millis(200),
            cooldown: Duration::from_millis(400),
            drain_timeout: Duration::from_secs(5),
            max_moves_per_cycle: 4,
            min_observed: 200,
        }
    }
}

impl ElasticConfig {
    /// Validates the knobs.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !self.imbalance_bound.is_finite() || self.imbalance_bound <= 1.0 {
            return Err(CoreError::Config {
                reason: format!(
                    "elastic imbalance_bound must be a finite value above 1, got {}",
                    self.imbalance_bound
                ),
            });
        }
        if self.check_interval.is_zero() {
            return Err(CoreError::Config {
                reason: "elastic check_interval must be non-zero".into(),
            });
        }
        if self.max_moves_per_cycle == 0 {
            return Err(CoreError::Config {
                reason: "elastic max_moves_per_cycle must be at least 1".into(),
            });
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            cluster: ClusterSpec { nodes: 2, slots_per_node: 2, cores_per_node: 2 },
            method: RetrievalMethod::ThresholdStream,
            offline: OfflineConfig::default(),
            strategy: AllocationStrategy::Proposed,
            monitor: None,
            parallelism: TopologyParallelism::default(),
            incremental: true,
            sharing: true,
            reliability: None,
            chaos: None,
            elastic: None,
            kappa: None,
            durability: None,
            workers: None,
        }
    }
}

/// The start-up optimizer's output (Section 4.2).
#[derive(Debug, Clone)]
pub struct StartupPlan {
    /// The (possibly merged) rule groupings.
    pub groupings: Vec<Grouping>,
    /// Engines per grouping (Algorithm 2).
    pub allocation: Allocation,
    /// The Splitter bolt's routing plan (Algorithm 1).
    pub split_plan: SplitPlan,
    /// Per-engine rule/location assignments.
    pub engine_plan: EnginePlan,
    /// Algorithm 1's partition per grouping (same order as `groupings`):
    /// the planned per-engine input rates the planner-drift report
    /// compares observed rates against.
    pub partitions: Vec<Partition>,
}

impl StartupPlan {
    /// Planned input rate per global engine index (tuples/s): the
    /// per-grouping [`Partition::rates`] flattened through the
    /// allocation's engine offsets.
    pub fn planned_engine_rates(&self) -> Vec<f64> {
        let total: usize = self.allocation.engines.iter().sum();
        let offsets = self.allocation.offsets();
        let mut rates = vec![0.0f64; total];
        for (gi, partition) in self.partitions.iter().enumerate() {
            let offset = offsets.get(gi).copied().unwrap_or(0);
            for (e, r) in partition.rates.iter().enumerate() {
                if let Some(slot) = rates.get_mut(offset + e) {
                    *slot += r;
                }
            }
        }
        rates
    }
}

/// One predicted-vs-observed latency comparison for a sampled monitor
/// window: does the Section 4.1.4 model (Figure 7) track what the Esper
/// engines actually did?
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSample {
    /// Window start relative to topology start, in milliseconds.
    pub at_ms: f64,
    /// Window duration in milliseconds.
    pub len_ms: f64,
    /// Observed mean Esper processing latency per tuple in the window,
    /// milliseconds.
    pub observed_ms: f64,
    /// Mean per-engine latency the model predicts for the installed rules
    /// under the scheduler's node co-location, milliseconds.
    pub predicted_ms: f64,
    /// Drift ratio `observed / predicted`; 1.0 means the model is exact.
    pub ratio: f64,
    /// True for the shutdown flush window (shorter than a full period).
    pub partial: bool,
}

/// Planned-vs-observed view of one Esper engine over a profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineDrift {
    /// Global engine (esper task) index.
    pub engine: usize,
    /// Algorithm 1's expected input rate for the engine, tuples per
    /// *simulated* second (from the historical region rates).
    pub planned_rate: f64,
    /// Observed rate of events entering the engine's rule statements,
    /// events per *wall-clock* second (trace replay is unpaced). Absolute
    /// scale therefore differs from `planned_rate`; the comparable
    /// quantity is each engine's share, i.e. the imbalance ratios.
    pub observed_rate: f64,
    /// Per-tuple latency the estimation model predicts for the engine's
    /// planned rule loads under the scheduler's co-location, ms.
    pub predicted_latency_ms: f64,
    /// Observed mean statement-evaluation latency, ms (0 when the engine
    /// never evaluated).
    pub observed_latency_ms: f64,
}

/// Planned load and observed behaviour of one rule on one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleObservedLoad {
    /// Rule name.
    pub rule: String,
    /// Global engine index running this copy of the rule.
    pub engine: usize,
    /// The planned load (window length, threshold rows) Function 1 was
    /// fed at start-up.
    pub load: RuleLoad,
    /// Last observed window occupancy (events held across the rule's
    /// statements).
    pub observed_window: u64,
    /// Observed mean evaluation latency, ms.
    pub observed_latency_ms: f64,
    /// Events that entered the rule's statements over the run.
    pub events_in: u64,
}

/// Outcome of feeding the run's observed (load, latency) samples back
/// into [`EstimationModel::calibrate`].
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// `(window, engine)` observation points the errors average over.
    pub samples: usize,
    /// Mean absolute error of the run's model (ms) against per-window
    /// observed engine latencies.
    pub mae_before_ms: f64,
    /// Mean absolute error of the recalibrated model (ms) on the same
    /// observations.
    pub mae_after_ms: f64,
}

/// The planner-drift report: how far the run drifted from what
/// Algorithm 1 (input rates) and the Section 4.1.4 estimation model
/// (latencies) planned, plus the online-recalibration outcome. Produced
/// when the monitor runs with profiling enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerDriftReport {
    /// One entry per planned engine.
    pub engines: Vec<EngineDrift>,
    /// Max/min planned engine rate (Algorithm 1's balance goal).
    pub imbalance_planned: f64,
    /// Max/min observed engine rate, over engines with planned load.
    pub imbalance_observed: f64,
    /// Per-(rule, engine) planned-vs-observed loads.
    pub rules: Vec<RuleObservedLoad>,
    /// Online recalibration outcome; `None` when the run produced too few
    /// or too degenerate samples to fit any model.
    pub calibration: Option<CalibrationReport>,
}

/// The outcome of an on-line run.
#[derive(Debug)]
pub struct RunReport {
    /// Detections in arrival order at the EventsStorer.
    pub detections: Vec<Detection>,
    /// Per-component lifetime metrics.
    pub metrics: Vec<tms_dsps::ComponentWindow>,
    /// Windowed metric history (only populated when a monitor ran).
    pub history: Vec<tms_dsps::ComponentWindow>,
    /// Per-window predicted-vs-observed Esper latency drift (only
    /// populated when the monitor ran with tracing enabled).
    pub drift: Vec<DriftSample>,
    /// Planner drift and online-recalibration report (only populated when
    /// the monitor ran with profiling enabled and sampled rule profiles).
    pub planner: Option<PlannerDriftReport>,
    /// Elastic rebalancer outcome (only populated when
    /// [`SystemConfig::elastic`] was set): migration counts, routing pause
    /// durations, and pre/post imbalance.
    pub elastic: Option<tms_dsps::MigrationStats>,
    /// The control-plane flight recorder's event log: restarts,
    /// snapshots, migrations, rebalance cycles, statistics refreshes —
    /// always populated (the recorder is always on).
    pub events: Vec<FlightEvent>,
    /// Sequence gaps the splitter's resequencer gave up on. Tuples lost
    /// to injected faults cause them; in any other run they are an error
    /// ([`CoreError::SequenceGap`]) and no report is returned.
    pub gap_skips: u64,
    /// Critical-path attribution over the sampled tuple trees (only
    /// populated when [`MonitorConfig::lineage`] was set).
    pub critical_path: Option<CriticalPathReport>,
    /// The sampled lineage spans themselves (only populated when
    /// [`MonitorConfig::lineage`] was set with `export: true`); feed to
    /// [`tms_dsps::lineage::summarize`] for connectivity checks.
    pub traces: Vec<tms_dsps::Span>,
    /// Task → component names for [`RunReport::traces`], so the spans can
    /// be rendered via [`tms_dsps::lineage::render_chrome_trace`] after
    /// the run.
    pub trace_components: std::collections::HashMap<u32, String>,
}

/// The routing-table key of a partition region, which the planner names
/// in text.
fn partition_key(grouping: &Grouping, region: &str) -> Result<LocId, CoreError> {
    region.parse().map_err(|e| CoreError::Config {
        reason: format!("grouping {}: partition region {e}", grouping.name),
    })
}

/// Per-grouping facts the rebalancer needs, precomputed before the
/// control thread starts (resolving locations needs the spatial index,
/// which stays on the caller's side).
struct ElasticGroupingInfo {
    /// Global engine index of the grouping's first engine.
    offset: usize,
    /// Engines allocated to the grouping.
    engines: usize,
    /// Every routing key of the grouping, in planning order.
    regions: Vec<LocId>,
    /// Routing key → monitored location keys under it (union over the
    /// grouping's rules); the state a move of that key ships.
    locations: HashMap<LocId, Vec<String>>,
}

/// The rebalancer control loop: every `check_interval` it drains the
/// splitter's observed per-region counts, computes each grouping's
/// observed engine imbalance, and — when it crosses the bound with the
/// cooldown elapsed — re-runs Algorithm 1 on the observed rates and posts
/// the highest-rate route diffs as migration tickets. The splitter
/// executes them; this thread never touches engine state itself.
fn run_rebalancer(
    h: Arc<ElasticHandle>,
    cfg: ElasticConfig,
    infos: Vec<ElasticGroupingInfo>,
    stop: Arc<AtomicBool>,
    flight: Arc<FlightRecorder>,
) {
    let mut last_decision: Option<Instant> = None;
    let mut triggered_at: Option<u64> = None;
    let mut cycle: u64 = 0;
    loop {
        // Sleep in short slices so shutdown is prompt.
        let mut slept = Duration::ZERO;
        while slept < cfg.check_interval {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let slice = Duration::from_millis(10).min(cfg.check_interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
        cycle += 1;
        if h.coordinator.in_flight() > 0 {
            continue; // let the current round finish before measuring again
        }
        let observed = h.take_observed();
        let mut worst = f64::NAN;
        for (gi, info) in infos.iter().enumerate() {
            let counts: HashMap<LocId, u64> = observed
                .iter()
                .filter(|((g, _), _)| *g == gi)
                .map(|((_, region), count)| (*region, *count))
                .collect();
            let total: u64 = counts.values().sum();
            if total < cfg.min_observed {
                continue;
            }
            let table = {
                let plan = h.split_plan.read();
                match plan.routes.get(gi) {
                    Some(route) => route.table.clone(),
                    None => continue,
                }
            };
            let mut engine_rates = vec![0.0f64; info.engines];
            for (region, count) in &counts {
                if let Some(engine) = table.get(region) {
                    if let Some(slot) = engine_rates.get_mut(engine - info.offset) {
                        *slot += *count as f64;
                    }
                }
            }
            let imbalance = Partition {
                assignments: vec![Vec::new(); info.engines],
                rates: engine_rates,
            }
            .imbalance();
            if imbalance.is_finite() && (worst.is_nan() || imbalance > worst) {
                worst = imbalance;
            }
            if imbalance <= cfg.imbalance_bound {
                continue;
            }
            if last_decision.is_some_and(|at| at.elapsed() < cfg.cooldown) {
                continue;
            }
            // Re-run Algorithm 1 over the observed rates (unobserved
            // regions keep rate zero so they stay assigned somewhere).
            let rates: Vec<RegionRate> = info
                .regions
                .iter()
                .map(|r| RegionRate {
                    region: r.to_string(),
                    rate: counts.get(r).copied().unwrap_or(0) as f64,
                })
                .collect();
            let Ok(partition) = partition_rule(&rates, info.engines) else {
                continue;
            };
            h.coordinator.note_decision(partition.imbalance());
            flight.record(
                FlightKind::RebalanceDecision,
                "rebalancer",
                gi as i64,
                format!(
                    "grouping {gi}: observed imbalance {imbalance:.3} > bound {:.3}, \
                     re-partitioned to target {:.3}",
                    cfg.imbalance_bound,
                    partition.imbalance()
                ),
            );
            last_decision = Some(Instant::now());
            let mut moves: Vec<(LocId, usize, usize, f64)> = Vec::new();
            for (e, regions) in partition.assignments.iter().enumerate() {
                let to = info.offset + e;
                for region in regions {
                    let region: LocId = region.parse().expect("printed from an id just above");
                    let Some(&from) = table.get(&region) else { continue };
                    if from != to {
                        let rate = counts.get(&region).copied().unwrap_or(0) as f64;
                        moves.push((region, from, to, rate));
                    }
                }
            }
            moves.sort_by(|a, b| b.3.total_cmp(&a.3));
            moves.truncate(cfg.max_moves_per_cycle);
            for (region, from, to, _) in moves {
                let locations = info.locations.get(&region).cloned().unwrap_or_default();
                h.coordinator.request(
                    from,
                    to,
                    MigrationMeta { grouping: gi, region, locations },
                );
            }
        }
        if !worst.is_nan() {
            h.coordinator.note_observed_imbalance(worst);
            flight.record(
                FlightKind::RebalanceCycle,
                "rebalancer",
                -1,
                format!("cycle {cycle}: worst observed imbalance {worst:.3}"),
            );
            match triggered_at {
                None if worst > cfg.imbalance_bound => triggered_at = Some(cycle),
                Some(since) if worst <= cfg.imbalance_bound => {
                    h.coordinator.note_converged(cycle - since);
                    triggered_at = None;
                }
                _ => {}
            }
        }
    }
}

/// The system facade.
pub struct TrafficSystem {
    /// Off-line computation outputs (spatial index, rates, thresholds).
    pub artifacts: OfflineArtifacts,
    /// The storage medium shared by every layer.
    pub store: TableStore,
    /// The latency estimation model driving the optimizer.
    pub model: EstimationModel,
    /// Run configuration.
    pub config: SystemConfig,
}

impl TrafficSystem {
    /// Runs the off-line component over historical traces and boots the
    /// system (Figure 3 arrows 1–4).
    pub fn bootstrap(
        bbox: tms_geo::BoundingBox,
        seeds: &[GeoPoint],
        history: &[BusTrace],
        config: SystemConfig,
    ) -> Result<Self, CoreError> {
        let store = TableStore::new();
        let artifacts = run_offline(bbox, seeds, history, &store, &config.offline)?;
        Ok(TrafficSystem {
            artifacts,
            store,
            model: EstimationModel::default_paper_shaped(),
            config,
        })
    }

    /// Number of threshold rows a rule would join with (Function 1's `t`).
    fn thresholds_for(&self, rule: &RuleSpec) -> usize {
        let q = tms_storage::ThresholdQuery {
            attribute: rule.attribute.name().into(),
            s: rule.s,
        };
        self.artifacts.thresholds.thresholds(&q).map(|rows| rows.len()).unwrap_or(0)
    }

    /// Builds per-layer groupings from the rule set: rules sharing a
    /// layer key form one grouping, partitioned at that layer.
    pub fn layer_groupings(&self, rules: &[RuleSpec]) -> Result<Vec<Grouping>, CoreError> {
        if rules.is_empty() {
            return Err(CoreError::Config { reason: "no rules given".into() });
        }
        let quadtree = &self.artifacts.spatial.quadtree;
        let mut by_layer: HashMap<u8, Vec<RuleSpec>> = HashMap::new();
        for r in rules {
            r.validate()?;
            by_layer.entry(r.location.layer_key(quadtree)).or_default().push(r.clone());
        }
        let mut layers: Vec<u8> = by_layer.keys().copied().collect();
        layers.sort_unstable();
        let stops_layer = quadtree.max_layer() + 1;
        let mut out = Vec::new();
        for layer in layers {
            let rules = by_layer.remove(&layer).expect("key exists");
            let selector = if layer == stops_layer {
                LocationSelector::BusStops
            } else {
                LocationSelector::QuadtreeLayer(layer)
            };
            let regions = self.artifacts.rates_for(&selector);
            let thresholds = rules.iter().map(|r| self.thresholds_for(r)).collect();
            out.push(Grouping {
                name: if layer == stops_layer {
                    "bus-stops".to_string()
                } else {
                    format!("layer-{layer}")
                },
                layers: vec![layer],
                rules,
                regions,
                thresholds,
            });
        }
        Ok(out)
    }

    /// The start-up optimization component (Section 4.2): groups, scores,
    /// allocates, partitions and plans routing for `engines` engines.
    pub fn startup_plan(
        &self,
        rules: &[RuleSpec],
        engines: usize,
    ) -> Result<StartupPlan, CoreError> {
        let layer_groups = self.layer_groupings(rules)?;
        let (groupings, allocation) = match self.config.strategy {
            AllocationStrategy::Proposed => {
                best_grouping_allocation(&self.model, &layer_groups, engines)?
            }
            AllocationStrategy::RoundRobin => {
                let a = round_robin(&layer_groups, engines)?;
                (layer_groups, a)
            }
        };
        self.plan_from_allocation(rules, &groupings, &allocation)
    }

    /// Builds split and engine plans from an explicit allocation.
    pub fn plan_from_allocation(
        &self,
        _rules: &[RuleSpec],
        groupings: &[Grouping],
        allocation: &Allocation,
    ) -> Result<StartupPlan, CoreError> {
        let spatial = &self.artifacts.spatial;
        let stops_layer = spatial.quadtree.max_layer() + 1;
        let offsets = allocation.offsets();
        let total_engines: usize = allocation.engines.iter().sum();

        let mut routes = Vec::new();
        let mut per_engine: Vec<Vec<(RuleSpec, Vec<String>)>> = vec![Vec::new(); total_engines];
        let mut partitions = Vec::new();

        for (gi, grouping) in groupings.iter().enumerate() {
            let k = allocation.engines[gi];
            let offset = offsets[gi];
            let partition = partition_rule(&grouping.regions, k)?;
            // Routing: partition region → global engine index.
            let partition_layer = *grouping.layers.iter().min().expect("grouping has layers");
            let kind = if partition_layer == stops_layer {
                GroupingKind::BusStops
            } else {
                GroupingKind::QuadtreeLayer(partition_layer)
            };
            let keys: Vec<Vec<LocId>> = partition
                .assignments
                .iter()
                .map(|regions| regions.iter().map(|r| partition_key(grouping, r)).collect())
                .collect::<Result<_, _>>()?;
            let table = (offset..).zip(&keys).flat_map(|(e, ks)| ks.iter().map(move |k| (*k, e)));
            routes.push(GroupingRoute { kind, table: table.collect() });

            // Engine plan: each engine runs every rule of the grouping,
            // monitoring the rule's locations that fall under the engine's
            // partition share.
            for (e, partition_regions) in keys.iter().enumerate() {
                let engine_idx = offset + e;
                for rule in &grouping.rules {
                    let locations = self.rule_locations_under(
                        rule,
                        partition_regions,
                        partition_layer,
                        stops_layer,
                    );
                    if !locations.is_empty() {
                        per_engine[engine_idx].push((rule.clone(), locations));
                    }
                }
            }
            partitions.push(partition);
        }
        Ok(StartupPlan {
            groupings: groupings.to_vec(),
            allocation: allocation.clone(),
            split_plan: SplitPlan { routes },
            engine_plan: EnginePlan { per_engine },
            partitions,
        })
    }

    /// The locations of `rule` that lie under the given partition-layer
    /// regions.
    fn rule_locations_under(
        &self,
        rule: &RuleSpec,
        partition_regions: &[LocId],
        partition_layer: u8,
        stops_layer: u8,
    ) -> Vec<String> {
        let spatial = &self.artifacts.spatial;
        let quadtree = &spatial.quadtree;
        let owned: std::collections::HashSet<LocId> = partition_regions.iter().copied().collect();
        let covered = |location: &str| -> bool {
            let Ok(location) = location.parse::<LocId>() else { return false };
            if partition_layer == stops_layer {
                // Stop groupings partition stops directly.
                return owned.contains(&location);
            }
            match location {
                // Quadtree location: walk ancestors until the partition layer.
                LocId::Region(idx) => {
                    let mut region = quadtree.region(tms_geo::RegionId(idx));
                    while let Some(r) = region {
                        if owned.contains(&SpatialContext::region_id(r.id)) {
                            return true;
                        }
                        region = r.parent.and_then(|p| quadtree.region(p));
                    }
                    false
                }
                // A bus stop inside a quadtree grouping: locate its region.
                // Recovered stop centroids can drift a few metres past the
                // city bounding box (GPS noise); clamp before locating so
                // every stop belongs to exactly one engine.
                LocId::Stop(sid) => {
                    let Some(stop) = spatial.stops.stop(sid) else { return false };
                    let bb = quadtree.bbox();
                    let p = tms_geo::GeoPoint {
                        lat: stop.location.lat.clamp(bb.min_lat, bb.max_lat),
                        lon: stop.location.lon.clamp(bb.min_lon, bb.max_lon),
                    };
                    quadtree
                        .leaf_to_root(&p)
                        .any(|r| owned.contains(&SpatialContext::region_id(r.id)))
                }
            }
        };
        spatial
            .resolve(&rule.location)
            .into_iter()
            .filter(|l| covered(l))
            .collect()
    }

    /// The on-line component: replays the traces to completion through the
    /// Figure 8 topology, with as many Esper tasks as the plan has engines.
    pub fn run(
        &self,
        traces: Vec<BusTrace>,
        plan: &StartupPlan,
        db: Option<tms_storage::RemoteDb>,
    ) -> Result<RunReport, CoreError> {
        let parallelism = TopologyParallelism {
            esper_tasks: plan.engine_plan.engines(),
            ..self.config.parallelism
        };
        let spec = figure8_spec(&parallelism);
        self.run_spec(&spec, traces, plan, db, ComponentTypes::figure8())
    }

    /// Runs the topology `spec` describes — [`figure8_spec`]'s or a parsed
    /// XML file's — under this system's configuration: the one place a
    /// traffic topology is built and submitted, so every spec gets the
    /// monitor, reliability, the rebalancer, the gap check and the
    /// [`RunReport`]. `types` resolves the spec's `type=` names; register a
    /// spout or sink type of your own on [`ComponentTypes::figure8`] first
    /// to run one. The drift and planner reports read the component named
    /// `esper`.
    pub fn run_spec(
        &self,
        spec: &tms_dsps::TopologySpec,
        traces: Vec<BusTrace>,
        plan: &StartupPlan,
        db: Option<tms_storage::RemoteDb>,
        types: ComponentTypes,
    ) -> Result<RunReport, CoreError> {
        // The control-plane flight recorder is created here (not by the
        // runtime) so the coordinator, the kappa fold and the rebalancer
        // all share one event log with the runtime's own events.
        let flight = Arc::new(FlightRecorder::default());
        let elastic = match &self.config.elastic {
            Some(cfg) => {
                cfg.validate()?;
                if matches!(self.config.method, RetrievalMethod::MultipleRules) {
                    return Err(CoreError::Config {
                        reason: "elastic migration is unsupported for the Multiple-Rules \
                                 method: locations are baked into per-cell statements"
                            .into(),
                    });
                }
                let h = Arc::new(ElasticHandle::new(
                    plan.split_plan.clone(),
                    plan.engine_plan.clone(),
                    cfg.drain_timeout,
                ));
                h.coordinator.set_recorder(flight.clone());
                Some(h)
            }
            None => None,
        };
        let env = TopologyEnv {
            system: self,
            plan,
            traces: Arc::new(traces),
            db,
            detections: Arc::new(Mutex::new(Vec::new())),
            profiling: self
                .config
                .monitor
                .is_some_and(|m| m.profiling)
                .then(|| Arc::new(EsperProfileRegistry::new())),
            elastic,
            flight,
            gap_skips: Arc::new(AtomicU64::new(0)),
            types,
        };
        let topology = build_from_spec(spec, &env)?;
        let TopologyEnv { detections, profiling: registry, elastic, flight, gap_skips, .. } = env;
        let cluster = LocalCluster::new(self.config.cluster)?;
        let handle = cluster.submit(
            topology,
            RuntimeConfig {
                monitor: self.config.monitor,
                reliability: self.config.reliability,
                fault: self.config.chaos,
                durability: self.config.durability.clone(),
                flight: Some(flight.clone()),
                workers: self.config.workers,
                ..RuntimeConfig::default()
            },
        )?;
        if let Some(registry) = &registry {
            let registry = registry.clone();
            handle
                .metrics()
                .register_profile_source("esper", Arc::new(move || registry.collect()));
        }
        {
            // The offline artifacts' data-quality gauge: traces observed
            // at run time in locations the historical statistics never
            // saw (those default to rate 0 in the partitioner).
            let unseen = self.artifacts.clone();
            handle.metrics().register_gauges(
                "offline",
                Arc::new(move || {
                    vec![("unseen_locations".to_string(), unseen.unseen_location_count() as f64)]
                }),
            );
        }
        let stop = Arc::new(AtomicBool::new(false));
        let rebalancer = elastic.as_ref().map(|h| {
            let cfg = self.config.elastic.clone().expect("elastic handle implies config");
            let gauges = h.clone();
            handle.metrics().register_gauges(
                "splitter",
                Arc::new(move || {
                    let s = gauges.coordinator.stats();
                    vec![
                        ("rebalances_total".to_string(), s.decisions as f64),
                        ("migrations_total".to_string(), s.completed as f64),
                        ("migrations_aborted_total".to_string(), s.aborted as f64),
                        ("migration_last_pause_ms".to_string(), s.last_pause_ms),
                        ("migration_max_pause_ms".to_string(), s.max_pause_ms),
                        ("rebalance_post_imbalance".to_string(), s.post_imbalance),
                        ("rebalance_observed_imbalance".to_string(), s.observed_imbalance),
                    ]
                }),
            );
            let infos = self.elastic_grouping_infos(plan);
            let h = h.clone();
            let stop = stop.clone();
            let flight = flight.clone();
            std::thread::spawn(move || run_rebalancer(h, cfg, infos, stop, flight))
        });
        let assignment = handle.assignment().clone();
        let collector = handle.trace_collector().cloned();
        let metrics = handle.join();
        stop.store(true, Ordering::Relaxed);
        if let Some(t) = rebalancer {
            let _ = t.join();
        }
        let metrics = metrics?;
        let gap_skips = gap_skips.load(Ordering::Relaxed);
        if gap_skips > 0 && self.config.chaos.is_none() && self.config.reliability.is_none() {
            let e = CoreError::SequenceGap { skipped: gap_skips };
            flight.dump(&format!("run failed: {e}"));
            return Err(e);
        }
        let history = metrics.history();
        let drift = self.drift_samples(plan, &assignment, &history);
        let planner = registry
            .is_some()
            .then(|| self.planner_report(plan, &assignment, &history))
            .flatten();
        let report = RunReport {
            detections: std::mem::take(&mut detections.lock()),
            metrics: metrics.totals(),
            history,
            drift,
            planner,
            elastic: elastic.map(|h| h.coordinator.stats()),
            events: flight.events(),
            gap_skips,
            critical_path: collector.as_ref().map(|c| c.critical_path()),
            traces: collector.as_ref().map(|c| c.take_spans()).unwrap_or_default(),
            trace_components: collector.as_ref().map(|c| c.components()).unwrap_or_default(),
        };
        Ok(report)
    }

    /// Precomputes the per-grouping facts the rebalancer thread needs
    /// (engine offsets and each routing key's monitored-location union).
    fn elastic_grouping_infos(&self, plan: &StartupPlan) -> Vec<ElasticGroupingInfo> {
        let stops_layer = self.artifacts.spatial.quadtree.max_layer() + 1;
        let offsets = plan.allocation.offsets();
        plan.groupings
            .iter()
            .enumerate()
            .map(|(gi, grouping)| {
                let partition_layer =
                    *grouping.layers.iter().min().expect("grouping has layers");
                let mut regions = Vec::new();
                let mut locations = HashMap::new();
                // A region under a name that is no id is no routing key:
                // nothing routes by it and no move can name it.
                for key in grouping.regions.iter().filter_map(|r| r.region.parse().ok()) {
                    regions.push(key);
                    let owned = std::slice::from_ref(&key);
                    let mut union: Vec<String> = Vec::new();
                    for rule in &grouping.rules {
                        for l in
                            self.rule_locations_under(rule, owned, partition_layer, stops_layer)
                        {
                            if !union.contains(&l) {
                                union.push(l);
                            }
                        }
                    }
                    locations.insert(key, union);
                }
                ElasticGroupingInfo {
                    offset: offsets.get(gi).copied().unwrap_or(0),
                    engines: plan.allocation.engines[gi],
                    regions,
                    locations,
                }
            })
            .collect()
    }

    /// The Figure 7 prediction for the Esper component as planned and
    /// scheduled: rule loads per engine from the startup plan, node
    /// co-location from the runtime assignment (esper task `i` runs
    /// engine `i`). Returns the mean predicted per-engine latency in ms.
    pub fn predicted_esper_latency_ms(
        &self,
        plan: &StartupPlan,
        assignment: &Assignment,
    ) -> Result<f64, CoreError> {
        let engines = self.engine_loads(plan);
        let nodes = Self::esper_node_groups(assignment, engines.len());
        self.model.estimate_mean(&engines, &nodes)
    }

    /// The planned per-engine rule loads Function 1 is fed (Figure 7).
    fn engine_loads(&self, plan: &StartupPlan) -> Vec<Vec<RuleLoad>> {
        plan.engine_plan
            .per_engine
            .iter()
            .map(|rules| {
                rules
                    .iter()
                    .map(|(spec, _)| RuleLoad {
                        window: spec.window_length,
                        thresholds: self.thresholds_for(spec),
                    })
                    .collect()
            })
            .collect()
    }

    /// Esper engine indices grouped by scheduled node (esper task `i`
    /// runs engine `i`).
    fn esper_node_groups(assignment: &Assignment, engines: usize) -> Vec<Vec<usize>> {
        let mut by_node: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for p in assignment.component_placements("esper") {
            by_node
                .entry(p.node)
                .or_default()
                .extend(p.tasks.iter().copied().filter(|&t| t < engines));
        }
        by_node.into_values().collect()
    }

    /// Predicted-vs-observed drift per sampled Esper window, when the
    /// monitor ran with tracing. Prediction failures (e.g. a plan with no
    /// loaded engine) disable drift rather than failing the run.
    fn drift_samples(
        &self,
        plan: &StartupPlan,
        assignment: &Assignment,
        history: &[tms_dsps::ComponentWindow],
    ) -> Vec<DriftSample> {
        if !self.config.monitor.is_some_and(|m| m.tracing) {
            return Vec::new();
        }
        let predicted = match self.predicted_esper_latency_ms(plan, assignment) {
            Ok(p) if p > 0.0 => p,
            _ => return Vec::new(),
        };
        history
            .iter()
            .filter(|w| w.component == "esper")
            .filter_map(|w| {
                let observed = w.avg_latency?.as_secs_f64() * 1e3;
                Some(DriftSample {
                    at_ms: w.at.as_secs_f64() * 1e3,
                    len_ms: w.len.as_secs_f64() * 1e3,
                    observed_ms: observed,
                    predicted_ms: predicted,
                    ratio: observed / predicted,
                    partial: w.partial,
                })
            })
            .collect()
    }

    /// The planner-drift report for a profiled run: per-engine planned vs
    /// observed input rates and latencies, per-rule observed loads, and
    /// the online recalibration of the estimation model from the run's
    /// own (load, latency) samples. Returns `None` when no sampled window
    /// carried rule profiles.
    fn planner_report(
        &self,
        plan: &StartupPlan,
        assignment: &Assignment,
        history: &[tms_dsps::ComponentWindow],
    ) -> Option<PlannerDriftReport> {
        let esper: Vec<&tms_dsps::ComponentWindow> =
            history.iter().filter(|w| w.component == "esper").collect();
        let duration_s: f64 = esper.iter().map(|w| w.len.as_secs_f64()).sum();
        if duration_s <= 0.0 || esper.iter().all(|w| w.rules.is_empty()) {
            return None;
        }

        let engine_loads = self.engine_loads(plan);
        let nodes = Self::esper_node_groups(assignment, engine_loads.len());
        let planned_rates = plan.planned_engine_rates();

        // The load Function 1 was fed for a rule copy at start-up.
        let planned_load = |rule: &str, engine: usize| -> RuleLoad {
            plan.engine_plan
                .per_engine
                .get(engine)
                .and_then(|rules| rules.iter().find(|(spec, _)| spec.name == rule))
                .map(|(spec, _)| RuleLoad {
                    window: spec.window_length,
                    thresholds: self.thresholds_for(spec),
                })
                .unwrap_or(RuleLoad { window: 0, thresholds: 0 })
        };

        // Run totals per (rule, engine) plus per-window samples: the
        // window deltas drive calibration, the totals drive the report.
        #[derive(Default)]
        struct Acc {
            events_in: u64,
            sum_ns: u64,
            count: u64,
            window_len: u64,
        }
        let mut per_rule: BTreeMap<(String, usize), Acc> = BTreeMap::new();
        let mut f1_samples: Vec<(Vec<f64>, f64)> = Vec::new();
        let mut f2_samples: Vec<(Vec<f64>, f64)> = Vec::new();
        let mut f3_samples: Vec<(Vec<f64>, f64)> = Vec::new();
        // Per window: (engine, observed mean engine latency ms).
        let mut engine_obs: Vec<Vec<(usize, f64)>> = Vec::new();

        for w in &esper {
            // (rule latency ms, sum_ns, count) per engine in this window.
            let mut by_engine: BTreeMap<usize, Vec<(f64, u64, u64)>> = BTreeMap::new();
            for r in &w.rules {
                let acc = per_rule.entry((r.rule.clone(), r.engine)).or_default();
                acc.events_in += r.events_in;
                acc.sum_ns += r.eval.sum_ns();
                acc.count += r.eval.count();
                if r.window_len > 0 {
                    acc.window_len = r.window_len;
                }
                if r.eval.count() == 0 {
                    continue;
                }
                let lat = r.eval.sum_ns() as f64 / r.eval.count() as f64 / 1e6;
                let load = planned_load(&r.rule, r.engine);
                f1_samples.push((vec![load.window as f64, load.thresholds as f64], lat));
                by_engine
                    .entry(r.engine)
                    .or_default()
                    .push((lat, r.eval.sum_ns(), r.eval.count()));
            }
            let mut obs = Vec::new();
            for (engine, rules) in &by_engine {
                let sum_ns: u64 = rules.iter().map(|(_, s, _)| s).sum();
                let count: u64 = rules.iter().map(|(_, _, c)| c).sum();
                let combined = sum_ns as f64 / count as f64 / 1e6;
                // Function 2 relates two rule-set latencies to the
                // engine's; single-rule engines teach F2(a, 0) = a.
                f2_samples.push(match rules.as_slice() {
                    [(only, _, _)] => (vec![*only, 0.0], combined),
                    [(a, _, _), (b, _, _), ..] => (vec![*a, *b], combined),
                    [] => continue,
                });
                obs.push((*engine, combined));
            }
            // Function 3 relates an engine's latency to its node's load.
            for node in &nodes {
                let present: Vec<f64> = node
                    .iter()
                    .filter_map(|e| obs.iter().find(|(oe, _)| oe == e).map(|&(_, l)| l))
                    .collect();
                let total: f64 = present.iter().sum();
                for &own in &present {
                    f3_samples.push((vec![own, total - own], own));
                }
            }
            engine_obs.push(obs);
        }
        if per_rule.is_empty() {
            return None;
        }

        let predicted = self.model.estimate(&engine_loads, &nodes).unwrap_or_default();
        let mut events_by_engine = vec![0u64; engine_loads.len()];
        let mut ns_by_engine = vec![(0u64, 0u64); engine_loads.len()];
        for ((_, engine), acc) in &per_rule {
            if let Some(v) = events_by_engine.get_mut(*engine) {
                *v += acc.events_in;
            }
            if let Some((s, c)) = ns_by_engine.get_mut(*engine) {
                *s += acc.sum_ns;
                *c += acc.count;
            }
        }
        let engines: Vec<EngineDrift> = (0..engine_loads.len())
            .map(|e| EngineDrift {
                engine: e,
                planned_rate: planned_rates.get(e).copied().unwrap_or(0.0),
                observed_rate: events_by_engine[e] as f64 / duration_s,
                predicted_latency_ms: predicted.get(e).copied().unwrap_or(0.0),
                observed_latency_ms: {
                    let (s, c) = ns_by_engine[e];
                    if c > 0 {
                        s as f64 / c as f64 / 1e6
                    } else {
                        0.0
                    }
                },
            })
            .collect();

        // Balance comparison over the engines Algorithm 1 actually loaded
        // (placement slack would otherwise force the ratio to infinity).
        let imbalance = |rates: Vec<f64>| -> f64 {
            if rates.is_empty() {
                return 1.0;
            }
            Partition { assignments: vec![Vec::new(); rates.len()], rates }.imbalance()
        };
        let loaded: Vec<usize> = (0..engine_loads.len())
            .filter(|&e| planned_rates.get(e).copied().unwrap_or(0.0) > 0.0)
            .collect();
        let imbalance_planned =
            imbalance(loaded.iter().map(|&e| planned_rates[e]).collect());
        let imbalance_observed =
            imbalance(loaded.iter().map(|&e| engines[e].observed_rate).collect());

        let rules: Vec<RuleObservedLoad> = per_rule
            .iter()
            .map(|((rule, engine), acc)| RuleObservedLoad {
                rule: rule.clone(),
                engine: *engine,
                load: planned_load(rule, *engine),
                observed_window: acc.window_len,
                observed_latency_ms: if acc.count > 0 {
                    acc.sum_ns as f64 / acc.count as f64 / 1e6
                } else {
                    0.0
                },
                events_in: acc.events_in,
            })
            .collect();

        // Online recalibration: refit the three functions from this run's
        // samples; compare mean absolute error against the per-window
        // observed engine latencies, before vs after.
        let mae = |model: &EstimationModel| -> Option<(f64, usize)> {
            let pred = model.estimate(&engine_loads, &nodes).ok()?;
            let mut sum = 0.0;
            let mut n = 0usize;
            for obs in &engine_obs {
                for &(e, observed) in obs {
                    let Some(&p) = pred.get(e) else { continue };
                    sum += (p - observed).abs();
                    n += 1;
                }
            }
            (n > 0).then(|| (sum / n as f64, n))
        };
        let recalibrated = EstimationModel::calibrate(&f1_samples, &f2_samples, &f3_samples)
            .ok()
            .or_else(|| {
                // Too few distinct (l, t) cells make the Function 1 design
                // singular: rescale the current F1 to the observed
                // magnitude and refit only the composition functions.
                let f2 = PolyModel::fit(&f2_samples, 1).ok()?;
                let f3 = PolyModel::fit(&f3_samples, 1).ok()?;
                if f1_samples.is_empty() {
                    return None;
                }
                let observed_mean =
                    f1_samples.iter().map(|(_, y)| y).sum::<f64>() / f1_samples.len() as f64;
                let predicted_mean = f1_samples
                    .iter()
                    .filter_map(|(x, _)| self.model.f1.predict(x).ok())
                    .sum::<f64>()
                    / f1_samples.len() as f64;
                let scale =
                    if predicted_mean > 0.0 { observed_mean / predicted_mean } else { 1.0 };
                let mut f1 = self.model.f1.clone();
                for c in &mut f1.coefficients {
                    *c *= scale;
                }
                Some(EstimationModel { f1, f2, f3 })
            });
        let calibration = recalibrated.and_then(|m| {
            let (mae_before_ms, samples) = mae(&self.model)?;
            let (mae_after_ms, _) = mae(&m)?;
            Some(CalibrationReport { samples, mae_before_ms, mae_after_ms })
        });

        Some(PlannerDriftReport {
            engines,
            imbalance_planned,
            imbalance_observed,
            rules,
            calibration,
        })
    }

    /// Convenience: bootstrap + plan + run with Algorithm 2, returning
    /// the plan and the report.
    pub fn plan_and_run(
        &self,
        traces: Vec<BusTrace>,
        rules: &[RuleSpec],
        engines: usize,
    ) -> Result<(StartupPlan, RunReport), CoreError> {
        let plan = self.startup_plan(rules, engines)?;
        let report = self.run(traces, &plan, None)?;
        Ok((plan, report))
    }

    /// Re-runs the statistics job over fresh history and republishes the
    /// thresholds (the periodic dynamic-rules path; engines pick the new
    /// snapshot up via `RuleEngine::refresh_thresholds` or at the next
    /// run's install).
    pub fn recompute_statistics(&mut self, history: &[BusTrace]) -> Result<(), CoreError> {
        let bbox = self.artifacts.spatial.quadtree.bbox();
        let artifacts = run_offline(bbox, &[], history, &self.store, &self.config.offline)?;
        // Keep the original spatial index (regions must stay stable for
        // running rules); only refresh rates. The statistics tables were
        // republished by run_offline into the shared store.
        self.artifacts.region_rates = artifacts.region_rates;
        Ok(())
    }

    /// Builds a rule set and engine count from a parsed XML topology spec
    /// (the `<rules>` section carries raw EPL, which our generic template
    /// cannot reverse; XML rules therefore use the template's textual
    /// form: `attribute:location:window`, e.g. `delay:leaves:100`).
    pub fn rules_from_xml_spec(
        spec: &tms_dsps::TopologySpec,
    ) -> Result<Vec<RuleSpec>, CoreError> {
        spec.rules.iter().enumerate().map(|(i, text)| parse_rule_shorthand(text, i)).collect()
    }
}

/// Parses the XML shorthand `attribute:location:window[:weight]` where
/// location is `leaves`, `stops`, or `layerN`.
pub fn parse_rule_shorthand(text: &str, index: usize) -> Result<RuleSpec, CoreError> {
    let parts: Vec<&str> = text.trim().split(':').collect();
    if !(parts.len() == 3 || parts.len() == 4) {
        return Err(CoreError::Rule {
            reason: format!("rule {index}: expected attribute:location:window[:weight], got {text:?}"),
        });
    }
    let attribute = tms_traffic::Attribute::parse(parts[0]).ok_or_else(|| CoreError::Rule {
        reason: format!("rule {index}: unknown attribute {:?}", parts[0]),
    })?;
    let location = match parts[1] {
        "leaves" => LocationSelector::QuadtreeLeaves,
        "stops" => LocationSelector::BusStops,
        other => match other.strip_prefix("layer") {
            Some(n) => LocationSelector::QuadtreeLayer(n.parse().map_err(|_| CoreError::Rule {
                reason: format!("rule {index}: bad layer {other:?}"),
            })?),
            None => {
                return Err(CoreError::Rule {
                    reason: format!("rule {index}: unknown location {other:?}"),
                })
            }
        },
    };
    let window: usize = parts[2].parse().map_err(|_| CoreError::Rule {
        reason: format!("rule {index}: bad window {:?}", parts[2]),
    })?;
    let mut rule = RuleSpec::new(
        format!("xml-rule-{index}-{}", parts[0]),
        attribute,
        location,
        window,
    );
    if let Some(w) = parts.get(3) {
        rule.weight = w.parse().map_err(|_| CoreError::Rule {
            reason: format!("rule {index}: bad weight {w:?}"),
        })?;
    }
    rule.validate()?;
    Ok(rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_geo::DUBLIN_BBOX;
    use tms_traffic::{Attribute, FleetConfig, FleetGenerator, HOUR_MS};

    fn small_history() -> (Vec<BusTrace>, Vec<GeoPoint>) {
        let g = FleetGenerator::new(FleetConfig::small(17), 0).unwrap();
        let seeds = g.route_seed_points();
        let traces: Vec<BusTrace> =
            g.take_while(|t| t.timestamp_ms < 9 * HOUR_MS).collect();
        (traces, seeds)
    }

    fn system() -> TrafficSystem {
        let (history, seeds) = small_history();
        TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, SystemConfig::default()).unwrap()
    }

    fn rules() -> Vec<RuleSpec> {
        let mut r1 = RuleSpec::new(
            "delay-leaves",
            Attribute::Delay,
            LocationSelector::QuadtreeLeaves,
            10,
        );
        r1.s = 0.5;
        let mut r2 =
            RuleSpec::new("delay-stops", Attribute::Delay, LocationSelector::BusStops, 10);
        r2.s = 0.5;
        vec![r1, r2]
    }

    #[test]
    fn startup_plan_covers_every_engine_and_location() {
        let sys = system();
        let plan = sys.startup_plan(&rules(), 4).unwrap();
        assert_eq!(plan.allocation.engines.iter().sum::<usize>(), 4);
        assert_eq!(plan.engine_plan.engines(), 4);
        // Every rule's every location is monitored by exactly one engine.
        for rule in rules() {
            let mut seen: HashMap<String, usize> = HashMap::new();
            for engine_rules in &plan.engine_plan.per_engine {
                for (spec, locations) in engine_rules {
                    if spec.name == rule.name {
                        for l in locations {
                            *seen.entry(l.clone()).or_default() += 1;
                        }
                    }
                }
            }
            let expected = sys.artifacts.spatial.resolve(&rule.location);
            for l in &expected {
                assert_eq!(
                    seen.get(l).copied().unwrap_or(0),
                    1,
                    "location {l} of rule {} must be monitored exactly once",
                    rule.name
                );
            }
        }
        // Split plan has one route per grouping.
        assert_eq!(plan.split_plan.routes.len(), plan.groupings.len());
    }

    #[test]
    fn a_partition_region_that_is_no_location_id_is_refused_by_name() {
        let sys = system();
        let groupings = sys.layer_groupings(&rules()).unwrap();
        let allocation = round_robin(&groupings, 4).unwrap();
        sys.plan_from_allocation(&rules(), &groupings, &allocation).unwrap();
        for bad in ["R01", "R", "X3", "R-1", "R4294967296", ""] {
            let mut groupings = groupings.clone();
            groupings[0].regions[0].region = bad.to_string();
            match sys.plan_from_allocation(&rules(), &groupings, &allocation) {
                Err(CoreError::Config { reason }) => assert!(
                    reason.contains(&groupings[0].name) && reason.contains(&format!("{bad:?}")),
                    "{reason}"
                ),
                other => panic!("{bad:?} got {other:?}"),
            }
        }
    }

    #[test]
    fn end_to_end_run_detects_incidents() {
        let (history, seeds) = small_history();
        let sys =
            TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, SystemConfig::default())
                .unwrap();
        // Live traffic: day 1 with a severe incident in the city centre.
        let cfg = FleetConfig::small(17);
        let probe = FleetGenerator::new(cfg.clone(), 1).unwrap();
        let center = probe.routes()[0].points[probe.routes()[0].points.len() / 2];
        let incident = tms_traffic::Incident {
            center,
            radius_m: 1500.0,
            start_ms: tms_traffic::DAY_MS + 7 * HOUR_MS,
            end_ms: tms_traffic::DAY_MS + 9 * HOUR_MS,
            severity: 0.03,
        };
        let live: Vec<BusTrace> =
            FleetGenerator::with_incidents(cfg, 1, vec![incident])
                .unwrap()
                .take_while(|t| t.timestamp_ms < tms_traffic::DAY_MS + 9 * HOUR_MS)
                .collect();
        let (plan, report) = sys.plan_and_run(live, &rules(), 3).unwrap();
        assert_eq!(plan.engine_plan.engines(), 3);
        assert!(
            !report.detections.is_empty(),
            "a severe incident must trigger detections"
        );
        // Detections were also persisted to the storage medium.
        let stored = sys
            .store
            .with_table("detected_events", |t| t.len())
            .unwrap();
        assert_eq!(stored, report.detections.len());
        // Metrics cover the esper component.
        assert!(report.metrics.iter().any(|m| m.component == "esper" && m.throughput > 0));
    }

    #[test]
    fn long_replay_detects_the_same_multiset_on_every_repeat() {
        // Long enough for a stage to run a resequencer window
        // (`Resequencer::MAX_PENDING` = 65 536) ahead of its sibling task
        // if the queues between them let it: when channel capacity counted
        // packets, 1024 batches of 128 did, the splitter skipped the "gap"
        // and every repeat detected a different multiset.
        const TUPLES: usize = 150_000;
        let (history, seeds) = small_history();
        let live: Vec<BusTrace> = (1u32..)
            .flat_map(|day| {
                let end_ms = u64::from(day) * tms_traffic::DAY_MS + 9 * HOUR_MS;
                FleetGenerator::new(FleetConfig::small(17), day)
                    .unwrap()
                    .take_while(move |t| t.timestamp_ms < end_ms)
            })
            .take(TUPLES)
            .collect();
        assert_eq!(live.len(), TUPLES);
        let mut sys =
            TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, SystemConfig::default())
                .unwrap();
        let plan = sys.startup_plan(&rules(), 2).unwrap();
        let run = |sys: &TrafficSystem| {
            let report = sys.run(live.clone(), &plan, None).unwrap();
            assert_eq!(report.gap_skips, 0, "the resequencer gave up on a tuple that was not lost");
            let mut detections: Vec<(String, String, u64)> = report
                .detections
                .into_iter()
                .map(|d| (d.rule, d.location, d.timestamp_ms))
                .collect();
            detections.sort();
            detections
        };
        let first = run(&sys);
        assert!(!first.is_empty());
        for repeat in 1..3 {
            assert!(run(&sys) == first, "repeat {repeat} detected another multiset");
        }

        // Two splitter tasks would each see half the sequence numbers and
        // skip the "gaps" once a full window is held: refused at build
        // (from an XML spec too, see `xml_topology`'s tests).
        sys.config.parallelism.splitter_tasks = 2;
        match sys.run(live.clone(), &plan, None) {
            Err(CoreError::Config { reason }) => assert!(reason.contains("splitter"), "{reason}"),
            other => panic!("expected a refusal, got {:?}", other.map(|r| r.gap_skips)),
        }
    }

    #[test]
    fn end_to_end_chaos_run_with_recovery_still_detects() {
        use std::time::Duration;
        let (history, seeds) = small_history();
        let config = SystemConfig {
            reliability: Some(tms_dsps::ReliabilityConfig {
                ack_timeout: Duration::from_millis(500),
                max_retries: 20,
                backoff: 1.5,
                max_pending: 256,
                max_task_restarts: 200,
            }),
            chaos: Some(tms_dsps::FaultConfig {
                panic_p: 0.002,
                drop_p: 0.002,
                delay: None,
                seed: 0x7EA_5EED,
            }),
            ..SystemConfig::default()
        };
        let sys = TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, config).unwrap();
        let cfg = FleetConfig::small(17);
        let probe = FleetGenerator::new(cfg.clone(), 1).unwrap();
        let center = probe.routes()[0].points[probe.routes()[0].points.len() / 2];
        let incident = tms_traffic::Incident {
            center,
            radius_m: 1500.0,
            start_ms: tms_traffic::DAY_MS + 7 * HOUR_MS,
            end_ms: tms_traffic::DAY_MS + 9 * HOUR_MS,
            severity: 0.03,
        };
        let live: Vec<BusTrace> = FleetGenerator::with_incidents(cfg, 1, vec![incident])
            .unwrap()
            .take_while(|t| t.timestamp_ms < tms_traffic::DAY_MS + 9 * HOUR_MS)
            .collect();
        let (_, report) = sys.plan_and_run(live, &rules(), 3).unwrap();
        assert!(
            !report.detections.is_empty(),
            "the incident must still be detected under injected faults"
        );
        let reader = report
            .metrics
            .iter()
            .find(|m| m.component == "busReader")
            .expect("spout metrics present");
        assert!(reader.acked > 0, "reliability was on: roots must be acked");
        assert_eq!(reader.failed, 0, "no root may exhaust its replay budget");
    }

    /// Incident stream for the end-to-end scenarios: day 1 with a severe
    /// incident in the city centre, so runs produce detections.
    fn incident_stream() -> Vec<BusTrace> {
        let cfg = FleetConfig::small(17);
        let probe = FleetGenerator::new(cfg.clone(), 1).unwrap();
        let center = probe.routes()[0].points[probe.routes()[0].points.len() / 2];
        let incident = tms_traffic::Incident {
            center,
            radius_m: 1500.0,
            start_ms: tms_traffic::DAY_MS + 7 * HOUR_MS,
            end_ms: tms_traffic::DAY_MS + 9 * HOUR_MS,
            severity: 0.03,
        };
        FleetGenerator::with_incidents(cfg, 1, vec![incident])
            .unwrap()
            .take_while(|t| t.timestamp_ms < tms_traffic::DAY_MS + 9 * HOUR_MS)
            .collect()
    }

    #[test]
    fn kappa_run_updates_statistics_in_stream() {
        // With kappa on, the Splitter folds the live stream into the
        // per-cell statistics and publishes them mid-run — and the tables
        // end the run richer than the offline bootstrap left them, without
        // any batch recompute.
        let (history, seeds) = small_history();
        let config = SystemConfig {
            kappa: Some(crate::kappa::KappaConfig { refresh_every: 256, min_samples: 5 }),
            ..SystemConfig::default()
        };
        let sys = TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, config).unwrap();
        let tstore = tms_storage::ThresholdStore::new(sys.store.clone());
        let samples = |records: &[tms_storage::StatRecord]| -> u64 {
            records.iter().map(|r| r.count).sum()
        };
        let before = samples(&tstore.statistics("delay").unwrap());
        assert!(before > 0, "the offline job published bootstrap statistics");

        let (_, report) = sys.plan_and_run(incident_stream(), &rules(), 2).unwrap();
        assert!(!report.detections.is_empty(), "the incident must trigger detections");
        let refreshes = report.events.iter().filter(|e| e.kind == FlightKind::StatsRefresh);
        assert!(refreshes.clone().count() > 1, "the fold publishes mid-run");
        assert!(refreshes.clone().all(|e| e.component == "splitter"), "the splitter folds");
        let after = samples(&tstore.statistics("delay").unwrap());
        assert!(
            after > before,
            "in-stream publication must absorb the live samples ({after} <= {before})"
        );
    }

    #[test]
    fn durable_restarts_keep_threshold_ages_running() {
        use std::time::Duration;
        // S2 regression: a supervised esper restart restores thresholds
        // *with their original stamps* from the durable snapshot. If the
        // restart silently re-fed thresholds, their age would snap back to
        // zero — so across the profiled windows, per-rule threshold ages
        // must never move materially backwards, restarts or not.
        let dir = std::env::temp_dir().join(format!(
            "tms-s2-ages-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (history, seeds) = small_history();
        let config = SystemConfig {
            reliability: Some(tms_dsps::ReliabilityConfig {
                ack_timeout: Duration::from_millis(500),
                max_retries: 20,
                backoff: 1.5,
                max_pending: 256,
                max_task_restarts: 200,
            }),
            chaos: Some(tms_dsps::FaultConfig {
                panic_p: 0.002,
                drop_p: 0.0,
                delay: None,
                seed: 0x5EED_A6E5,
            }),
            durability: Some(tms_dsps::DurabilityConfig {
                dir: dir.clone(),
                snapshot_every: 512,
                fsync: false,
            }),
            monitor: Some(MonitorConfig {
                window: Duration::from_millis(250),
                tracing: true,
                profiling: true,
                ..MonitorConfig::default()
            }),
            ..SystemConfig::default()
        };
        let sys = TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, config).unwrap();
        let (_, report) = sys.plan_and_run(incident_stream(), &rules(), 2).unwrap();
        let esper = report
            .metrics
            .iter()
            .find(|m| m.component == "esper")
            .expect("esper metrics present");
        assert!(esper.restarted > 0, "chaos must force at least one esper restart");
        assert!(!report.detections.is_empty(), "detections must survive the restarts");

        // Per (engine, rule) series of sampled threshold ages, in window
        // order. The age clock may pause (snapshot staleness) but a
        // restore must never hand back thresholds younger than a prior
        // sample by more than the snapshot cadence allows.
        let mut series: HashMap<(usize, String), Vec<(Duration, Duration)>> = HashMap::new();
        for w in report.history.iter().filter(|w| w.component == "esper") {
            for r in &w.rules {
                if let Some(age) = r.threshold_age {
                    series.entry((r.engine, r.rule.clone())).or_default().push((w.at, age));
                }
            }
        }
        assert!(!series.is_empty(), "profiled windows must sample threshold ages");
        let tolerance = Duration::from_secs(1);
        for ((engine, rule), mut samples) in series {
            samples.sort_by_key(|(at, _)| *at);
            for pair in samples.windows(2) {
                let (_, prev) = pair[0];
                let (_, next) = pair[1];
                assert!(
                    next + tolerance >= prev,
                    "threshold age for {rule} on engine {engine} moved backwards \
                     across a restart: {prev:?} -> {next:?}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tracing_run_reports_drift_against_the_model() {
        use std::time::Duration;
        let (history, seeds) = small_history();
        let config = SystemConfig {
            monitor: Some(MonitorConfig {
                window: Duration::from_millis(250),
                tracing: true,
                ..MonitorConfig::default()
            }),
            ..SystemConfig::default()
        };
        let sys = TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, config).unwrap();
        let live: Vec<BusTrace> = FleetGenerator::new(FleetConfig::small(17), 1)
            .unwrap()
            .take_while(|t| t.timestamp_ms < tms_traffic::DAY_MS + 9 * HOUR_MS)
            .collect();
        let (_, report) = sys.plan_and_run(live, &rules(), 3).unwrap();
        // At least one Esper window compared observed against predicted.
        assert!(!report.drift.is_empty(), "tracing runs must produce drift samples");
        for d in &report.drift {
            assert!(d.observed_ms > 0.0);
            assert!(d.predicted_ms > 0.0);
            assert!(d.ratio.is_finite() && d.ratio > 0.0);
            assert!(d.len_ms > 0.0);
        }
        // History windows chain: starts stamp window starts, the shutdown
        // flush is marked partial.
        let esper: Vec<_> =
            report.history.iter().filter(|w| w.component == "esper").collect();
        assert!(!esper.is_empty());
        assert!(esper.last().unwrap().partial, "the final flush window is partial");
        for pair in esper.windows(2) {
            assert_eq!(pair[0].at + pair[0].len, pair[1].at, "windows must chain");
        }
    }

    #[test]
    fn profiling_run_reports_planner_drift_and_recalibrates() {
        use std::time::Duration;
        let (history, seeds) = small_history();
        let config = SystemConfig {
            monitor: Some(MonitorConfig {
                window: Duration::from_millis(250),
                tracing: true,
                profiling: true,
                ..MonitorConfig::default()
            }),
            ..SystemConfig::default()
        };
        let sys = TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, config).unwrap();
        let live: Vec<BusTrace> = FleetGenerator::new(FleetConfig::small(17), 1)
            .unwrap()
            .take_while(|t| t.timestamp_ms < tms_traffic::DAY_MS + 9 * HOUR_MS)
            .collect();
        let (plan, report) = sys.plan_and_run(live, &rules(), 3).unwrap();

        // The plan now carries Algorithm 1's partitions per grouping.
        assert_eq!(plan.partitions.len(), plan.groupings.len());
        let planned = plan.planned_engine_rates();
        assert_eq!(planned.len(), 3);
        assert!(planned.iter().all(|&r| r > 0.0), "every engine gets load: {planned:?}");

        // Sampled windows carry per-rule profiles.
        let profiled_windows = report
            .history
            .iter()
            .filter(|w| w.component == "esper" && !w.rules.is_empty())
            .count();
        assert!(profiled_windows > 0, "esper windows must carry rule profiles");
        assert!(
            report.history.iter().flat_map(|w| &w.rules).any(|r| r.eval.count() > 0),
            "some window must record eval latencies"
        );
        // The lifetime totals carry cumulative profiles too.
        let total_esper =
            report.metrics.iter().find(|w| w.component == "esper").expect("esper totals");
        assert!(!total_esper.rules.is_empty());
        assert!(total_esper.rules.iter().any(|r| r.threshold_age.is_some()));

        let planner = report.planner.expect("profiling runs produce a planner report");
        assert_eq!(planner.engines.len(), 3);
        for e in &planner.engines {
            assert!(e.planned_rate > 0.0);
            assert!(e.predicted_latency_ms > 0.0);
        }
        assert!(
            planner.engines.iter().any(|e| e.observed_rate > 0.0),
            "some engine must observe events"
        );
        assert!(planner.imbalance_planned.is_finite() && planner.imbalance_planned >= 1.0);
        assert!(!planner.rules.is_empty());
        assert!(planner.rules.iter().any(|r| r.events_in > 0 && r.observed_latency_ms > 0.0));
        for r in &planner.rules {
            assert!(r.load.window > 0, "planned load resolved for {}", r.rule);
        }

        // Online recalibration must beat the offline-shaped default on
        // this run's own observations.
        let cal = planner.calibration.as_ref().expect("recalibration succeeds");
        assert!(cal.samples > 0);
        assert!(
            cal.mae_after_ms <= cal.mae_before_ms,
            "recalibrated MAE {} must not exceed offline MAE {}",
            cal.mae_after_ms,
            cal.mae_before_ms
        );
    }

    #[test]
    fn non_profiling_runs_have_no_planner_report() {
        let (history, seeds) = small_history();
        let sys =
            TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, SystemConfig::default())
                .unwrap();
        let live: Vec<BusTrace> = FleetGenerator::new(FleetConfig::small(17), 1)
            .unwrap()
            .take_while(|t| t.timestamp_ms < tms_traffic::DAY_MS + 8 * HOUR_MS)
            .collect();
        let (_, report) = sys.plan_and_run(live, &rules(), 3).unwrap();
        assert!(report.planner.is_none());
        assert!(report.metrics.iter().all(|w| w.rules.is_empty()));
    }

    #[test]
    fn round_robin_strategy_changes_allocation() {
        let (history, seeds) = small_history();
        let sys = TrafficSystem::bootstrap(
            DUBLIN_BBOX,
            &seeds,
            &history,
            SystemConfig { strategy: AllocationStrategy::RoundRobin, ..SystemConfig::default() },
        )
        .unwrap();
        let plan = sys.startup_plan(&rules(), 5).unwrap();
        // Round-robin keeps per-layer groupings: 2 groupings → 3+2 split.
        assert_eq!(plan.groupings.len(), 2);
        assert_eq!(plan.allocation.engines, vec![3, 2]);
    }

    #[test]
    fn rule_shorthand_parsing() {
        let r = parse_rule_shorthand("delay:leaves:100", 0).unwrap();
        assert_eq!(r.attribute, Attribute::Delay);
        assert_eq!(r.window_length, 100);
        let r = parse_rule_shorthand("speed:stops:10:2.5", 1).unwrap();
        assert_eq!(r.location, LocationSelector::BusStops);
        assert_eq!(r.weight, 2.5);
        let r = parse_rule_shorthand("actual_delay:layer2:1", 2).unwrap();
        assert_eq!(r.location, LocationSelector::QuadtreeLayer(2));
        assert!(parse_rule_shorthand("bogus:leaves:10", 0).is_err());
        assert!(parse_rule_shorthand("delay:nowhere:10", 0).is_err());
        assert!(parse_rule_shorthand("delay:leaves", 0).is_err());
        assert!(parse_rule_shorthand("delay:leaves:0", 0).is_err());
    }

    #[test]
    fn empty_rules_rejected() {
        let sys = system();
        assert!(sys.startup_plan(&[], 2).is_err());
    }
}
