//! The single-threaded inline pass: the harness drives every stage of the
//! Figure 8 topology itself, one tuple at a time, through the stages'
//! public functions, timing each call from outside.
//!
//! It serves three purposes: it is the **reference** the threaded run's
//! detections must equal, the **single-threaded baseline** a stream
//! processor should be compared with, and — one span per call — the
//! **per-layer trace**. Every span has its own start and end stamp; what
//! lies between them (the harness's bookkeeping and the stamps
//! themselves) is what `trace.unattributed_us_per_tuple` reports.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tms_core::kappa::StatsBolt;
use tms_core::rules::{RuleSpec, SpatialContext};
use tms_core::system::{StartupPlan, TrafficSystem};
use tms_core::thresholds::{Detection, RuleEngine};
use tms_core::topology::{EventsStorerBolt, TrafficMessage};
use tms_dsps::{Bolt, BoltContext, Emitter};
use tms_storage::ThresholdStore;
use tms_traffic::{Attribute, BusTrace, Preprocessor};

/// The layers a span can belong to, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// `Preprocessor::enrich`.
    Preprocess,
    /// `RegionQuadtree::locate_all_layers` plus the id strings.
    Quadtree,
    /// `BusStopIndex::closest_stop`.
    BusStops,
    /// `SplitPlan::engines_for`.
    Splitter,
    /// `RuleEngine::send_trace` (contains the CEP evaluation).
    RuleEngine,
    /// `EventsStorerBolt::process`, one call per detection.
    Storer,
    /// `StatsBolt::process`, calls that did not publish.
    Kappa,
    /// `StatsBolt::process`, calls that published a snapshot.
    KappaPublish,
    /// `RuleEngine::refresh_thresholds`.
    Refresh,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 9;

impl Layer {
    /// The layer's `crate.module` name, as the trace file prints it.
    pub fn name(self) -> &'static str {
        [
            "traffic.preprocess",
            "geo.quadtree",
            "geo.busstops",
            "core.splitter",
            "core.rule_engine",
            "storage.events",
            "core.kappa",
            "core.kappa.publish",
            "core.refresh",
        ][self as usize]
    }
}

/// Calls into one layer, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    /// Number of calls (spans).
    pub calls: u64,
    /// Total time inside the calls.
    pub total: Duration,
    /// Longest single call.
    pub max: Duration,
}

impl LayerStat {
    /// Mean call duration in microseconds over `per` units (0 when none).
    pub fn us_per(&self, per: u64) -> f64 {
        if per == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e6 / per as f64
        }
    }
}

/// One recorded call: the tuple it served is the span's trace id and its
/// parent span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the tuple in the replayed prefix.
    pub tuple: u32,
    /// The layer called.
    pub layer: Layer,
    /// Start, relative to the start of the pass.
    pub start: Duration,
    /// Duration of the call.
    pub len: Duration,
}

/// Exact evaluation counts and times from `RuleEngine::rule_profiles`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileTotals {
    /// Total statement-evaluation time.
    pub eval: Duration,
    /// Evaluations served from a shared cluster's bank.
    pub shared: u64,
    /// Evaluations on the private incremental path.
    pub incremental: u64,
    /// Evaluations on the anchor fast path.
    pub anchor: u64,
    /// Evaluations that rescanned the window.
    pub rescan: u64,
}

impl ProfileTotals {
    fn absorb(&mut self, engine: &RuleEngine, index: usize) {
        for p in engine.rule_profiles(index) {
            self.eval += Duration::from_nanos(p.eval.sum_ns());
            self.shared += p.path_shared;
            self.incremental += p.path_incremental;
            self.anchor += p.path_anchor;
            self.rescan += p.path_rescan;
        }
    }

    /// All evaluations, whatever path served them.
    pub fn evals(&self) -> u64 {
        self.shared + self.incremental + self.anchor + self.rescan
    }
}

/// What to record beyond the always-on per-layer sums.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Keep the individual spans of the first this-many tuples.
    pub keep_spans_of: usize,
    /// Switch statement profiling on (costs time inside `send_trace`, so
    /// the span timings of a profiled pass are not reported).
    pub profiling: bool,
    /// On a system without in-stream statistics, time one
    /// `refresh_thresholds` per engine after the pass.
    pub time_refresh: bool,
}

/// Result of one inline pass.
#[derive(Debug)]
pub struct Outcome {
    /// Tuples driven through the stages.
    pub prefix: usize,
    /// Detections in the order the storer saw them.
    pub detections: Vec<Detection>,
    /// Per triggering tuple, in input order: its index, and the time from
    /// its hand-over until the last detection it triggers was stored.
    pub detect_latency: Vec<(usize, Duration)>,
    /// Wall time of the per-tuple loop.
    pub wall: Duration,
    /// Per-layer sums, indexed by `Layer as usize`.
    pub layers: [LayerStat; LAYERS],
    /// Σ engines each tuple was routed to.
    pub fanout: u64,
    /// Σ events `send_trace` reported entering the engines.
    pub events: u64,
    /// Building every engine and installing its rules.
    pub install: Duration,
    /// Mean `refresh_thresholds` call: the in-stream refreshes when the
    /// system has in-stream statistics on, else (with `time_refresh`) one
    /// call per engine after the pass, on the window state it left behind.
    pub refresh_per_call: Duration,
    /// Spans of the first `keep_spans_of` tuples.
    pub spans: Vec<Span>,
    /// Statement profiles, when profiling was on.
    pub profiles: Option<ProfileTotals>,
}

/// Collects whatever a bolt emits.
#[derive(Default)]
struct Collect(Vec<TrafficMessage>);

impl Emitter<TrafficMessage> for Collect {
    fn emit(&mut self, msg: TrafficMessage) {
        self.0.push(msg);
    }
    fn emit_direct(&mut self, _task: usize, msg: TrafficMessage) {
        self.0.push(msg);
    }
}

/// Builds one engine the way `EsperBolt::prepare` does: rules batched per
/// monitored-location set so the sharing planner sees pristine windows.
fn build_engine(
    system: &TrafficSystem,
    rules: &[(RuleSpec, Vec<String>)],
    profiling: bool,
) -> Result<RuleEngine, String> {
    let store = ThresholdStore::new(system.store.clone());
    let mut engine = RuleEngine::new(system.config.method.clone(), store, None);
    engine
        .set_incremental_enabled(system.config.incremental)
        .map_err(|e| e.to_string())?;
    engine
        .set_sharing_enabled(system.config.sharing)
        .map_err(|e| e.to_string())?;
    engine.set_profiling_enabled(profiling);
    let mut batches: Vec<(&Vec<String>, Vec<RuleSpec>)> = Vec::new();
    for (spec, monitored) in rules {
        match batches.iter_mut().find(|(m, _)| *m == monitored) {
            Some((_, specs)) => specs.push(spec.clone()),
            None => batches.push((monitored, vec![spec.clone()])),
        }
    }
    for (monitored, specs) in batches {
        engine
            .install_rules(&specs, monitored.iter().cloned())
            .map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

/// Stopwatch over consecutive calls: `lap` closes the span of the call
/// that just returned, books it, and only then stamps the start of the
/// next, so the bookkeeping stays outside every span.
struct Laps {
    origin: Instant,
    last: Instant,
    tuple: u32,
    keep: bool,
    layers: [LayerStat; LAYERS],
    spans: Vec<Span>,
}

impl Laps {
    fn lap(&mut self, layer: Layer) -> Instant {
        let now = Instant::now();
        let len = now - self.last;
        let stat = &mut self.layers[layer as usize];
        stat.calls += 1;
        stat.total += len;
        stat.max = stat.max.max(len);
        if self.keep {
            self.spans.push(Span {
                tuple: self.tuple,
                layer,
                start: self.last - self.origin,
                len,
            });
        }
        self.last = Instant::now();
        now
    }
}

/// Drives `traces` through the stages inline.
pub fn run(
    system: &TrafficSystem,
    plan: &StartupPlan,
    traces: &[BusTrace],
    options: Options,
) -> Result<Outcome, String> {
    let spatial = &system.artifacts.spatial;
    let install_started = Instant::now();
    let mut engines = plan
        .engine_plan
        .per_engine
        .iter()
        .map(|rules| build_engine(system, rules, options.profiling))
        .collect::<Result<Vec<_>, _>>()?;
    let install = install_started.elapsed();
    let engine_sinks: Vec<_> = engines.iter().map(RuleEngine::detections).collect();

    let stored = Arc::new(Mutex::new(Vec::new()));
    let mut storer = EventsStorerBolt::new(system.store.clone(), stored.clone());
    let mut stats = system.config.kappa.map(|config| {
        let attributes: Vec<Attribute> = Attribute::ALL
            .iter()
            .filter(|a| {
                plan.engine_plan
                    .per_engine
                    .iter()
                    .flatten()
                    .any(|(spec, _)| spec.attribute == **a)
            })
            .copied()
            .collect();
        let mut bolt = StatsBolt::new(
            config,
            ThresholdStore::new(system.store.clone()),
            attributes,
        );
        bolt.prepare(BoltContext {
            task_index: 0,
            task_count: 1,
        });
        bolt
    });

    let mut pre = Preprocessor::new();
    let mut out = Collect::default();
    let mut detect_latency = Vec::new();
    let mut profiles = options.profiling.then(ProfileTotals::default);
    let (mut fanout, mut events) = (0u64, 0u64);

    let origin = Instant::now();
    let mut laps = Laps {
        origin,
        last: origin,
        tuple: 0,
        keep: false,
        layers: [LayerStat::default(); LAYERS],
        spans: Vec::new(),
    };
    for (i, raw) in traces.iter().enumerate() {
        laps.tuple = i as u32;
        laps.keep = i < options.keep_spans_of;
        let handed_over = laps.last;

        let mut e = pre.enrich(*raw);
        laps.lap(Layer::Preprocess);
        e.areas = spatial
            .quadtree
            .locate_all_layers(&e.trace.position)
            .iter()
            .map(|r| SpatialContext::region_id(r.id))
            .collect();
        laps.lap(Layer::Quadtree);
        e.bus_stop = spatial
            .stops
            .closest_stop(e.trace.line_id, e.trace.direction, &e.trace.position)
            .map(|s| SpatialContext::stop_id(s.id));
        laps.lap(Layer::BusStops);
        let targets = plan.split_plan.engines_for(&e);
        fanout += targets.len() as u64;
        laps.lap(Layer::Splitter);

        let mut last_stored = None;
        for target in targets {
            events += engines[target]
                .send_trace(&e)
                .map_err(|err| err.to_string())? as u64;
            laps.lap(Layer::RuleEngine);
            let fired = std::mem::take(&mut *engine_sinks[target].lock());
            for d in fired {
                storer.process(TrafficMessage::Detection(d), &mut out);
                last_stored = Some(laps.lap(Layer::Storer));
            }
        }
        if let Some(stored_at) = last_stored {
            detect_latency.push((i, stored_at - handed_over));
        }

        if let Some(stats) = &mut stats {
            stats.process(
                TrafficMessage::Enriched {
                    seq: i as u64,
                    trace: Arc::new(e),
                },
                &mut out,
            );
            if out
                .0
                .drain(..)
                .any(|m| matches!(m, TrafficMessage::StatsRefresh { .. }))
            {
                laps.lap(Layer::KappaPublish);
                for (index, engine) in engines.iter_mut().enumerate() {
                    // A refresh replaces the statements, and their profile
                    // counters with them: bank the counts first.
                    if let Some(p) = &mut profiles {
                        p.absorb(engine, index);
                        laps.last = Instant::now();
                    }
                    engine.refresh_thresholds().map_err(|err| err.to_string())?;
                    laps.lap(Layer::Refresh);
                }
            } else {
                laps.lap(Layer::Kappa);
            }
        }
    }
    let wall = laps.last - origin;

    if let Some(p) = &mut profiles {
        for (index, engine) in engines.iter().enumerate() {
            p.absorb(engine, index);
        }
    }
    let in_stream = laps.layers[Layer::Refresh as usize];
    let refresh_per_call = if in_stream.calls > 0 {
        in_stream.total / in_stream.calls as u32
    } else if options.time_refresh {
        let started = Instant::now();
        for engine in &mut engines {
            engine.refresh_thresholds().map_err(|err| err.to_string())?;
        }
        started.elapsed() / engines.len().max(1) as u32
    } else {
        Duration::ZERO
    };

    let detections = std::mem::take(&mut *stored.lock());
    Ok(Outcome {
        prefix: traces.len(),
        detections,
        detect_latency,
        wall,
        layers: laps.layers,
        fanout,
        events,
        install,
        refresh_per_call,
        spans: laps.spans,
        profiles,
    })
}
