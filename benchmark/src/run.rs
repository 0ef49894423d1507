//! One benchmark run: inputs from the seed, set-ups spread over the run,
//! the inline reference pass (output check, single-threaded baseline,
//! per-layer spans), the untraced threaded passes (end-to-end metrics) and,
//! when tracing, a profiled inline pass and a short kappa pass.
//!
//! The reference box is a 2-vCPU VM whose speed drops by 20–80% in
//! episodes of a second to minutes, CPU time inflating with wall time.
//! Interference only ever slows a pass down, so a replay workload repeats
//! one fixed replay for the whole measuring window and reports its
//! least-disturbed repeat: the highest throughput, the lowest CPU time,
//! the lowest latency median. `setup_s` is the fastest of its set-ups for
//! the same reason.

use crate::inline::{self, Layer, Span};
use crate::input;
use crate::measure::{highest_supported_percentile, median, percentile, usage, Stretch};
use crate::paced;
use crate::spec::{Kind, Workload, END_TO_END, PER_LAYER, SETUPS_PER_RUN};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tms_batch::Dfs;
use tms_core::offline::{self, OfflineArtifacts};
use tms_core::rules::{RuleSpec, SpatialContext};
use tms_core::system::{StartupPlan, TrafficSystem};
use tms_core::thresholds::Detection;
use tms_core::EstimationModel;
use tms_dsps::ComponentWindow;
use tms_geo::{BusStopIndex, RegionQuadtree, DUBLIN_BBOX};
use tms_storage::{TableStore, ThresholdQuery, ThresholdStore};
use tms_traffic::BusTrace;

/// `--smoke` divides every tuple count by this (the paced rate stays) and
/// the measuring window by `SMOKE_WINDOW_DIVISOR`.
const SMOKE_DIVISOR: usize = 20;
const SMOKE_WINDOW_DIVISOR: u32 = 10;
/// Engines handed to `startup_plan`.
const ENGINES: usize = 2;
/// The trace file holds the spans of this many leading tuples.
const SPAN_DUMP_TUPLES: usize = 5_000;
/// The wiring proof replays this many tuples through both wirings.
const WIRING_PROOF_TUPLES: usize = 20_000;
/// Share of an open-loop run's due times treated as warm-up.
const WARMUP_NUM: u32 = 3;
const WARMUP_DEN: u32 = 16;
/// A full replay run repeats at least this often, however slow the box.
const MIN_REPEATS: usize = 3;
/// The replay workloads time detection latency inline on the leading
/// `1 / LATENCY_PREFIX_DEN` of the prefix, once after every threaded
/// repeat, so the timings are spread over the whole window.
const LATENCY_PREFIX_DEN: usize = 2;
/// The traced kappa pass covers this many tuples (eight publications).
const KAPPA_PASS_TUPLES: usize = 2_048;
/// An open-loop run that needs longer than this to drain after its last
/// due time did not sustain the rate.
const MAX_DRAIN: Duration = Duration::from_secs(1);

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measuring window: a replay workload repeats for
    /// this long, the open loop emits for this long.
    pub seconds: u64,
    /// Also produce the per-layer metrics and the trace file.
    pub trace: bool,
    /// A twentieth of the tuples, a tenth of the window and a single
    /// set-up, for local checks.
    pub smoke: bool,
}

/// The shape of a run, for the `env` block.
#[derive(Debug, Clone, Default)]
pub struct Shape {
    /// Tuples one threaded pass replayed (N).
    pub tuples: usize,
    /// Threaded passes (1 for the open loop).
    pub repeats: usize,
    /// Tuples the inline passes covered (M).
    pub prefix: usize,
    /// Open-loop warm-up excluded from the latency samples, seconds.
    pub warmup_s: f64,
    /// Open-loop emission rate; `None` for max-rate replay.
    pub rate: Option<u64>,
    /// Set-ups performed.
    pub setups: usize,
    /// Hash of the live input.
    pub input_hash: u64,
    /// Samples behind `detect_p50_ms`.
    pub detect_samples: usize,
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// No check failed.
    pub correct: bool,
    /// Tuples attempted (N × repeats).
    pub attempted: u64,
    /// Tuples not conserved + dropped + misrouted + detections missing
    /// from / extra to the reference.
    pub failed: u64,
    /// End-to-end metric values, in `END_TO_END` order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metric values, in `PER_LAYER` order (empty untraced).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Every repeat's reading of the metrics that report the best repeat.
    pub series: Vec<(&'static str, Vec<f64>)>,
    /// One line per failed check or noteworthy condition.
    pub notes: Vec<String>,
    /// Run shape.
    pub shape: Shape,
    /// Spans of the leading tuples of the traced pass.
    pub spans: Vec<Span>,
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// The off-line pipeline's stages, timed one by one.
#[derive(Debug, Clone, Copy, Default)]
struct SetupSplit {
    quadtree_build: Duration,
    busstops_build: Duration,
    enrich_store: Duration,
    stats_job: Duration,
}

struct Setup {
    system: TrafficSystem,
    plan: StartupPlan,
    /// History generation + bootstrap + start-up plan.
    took: Stretch,
    startup_plan: Duration,
    split: Option<SetupSplit>,
}

/// `TrafficSystem::bootstrap`, stage by stage through the off-line
/// component's public functions, so each stage can be timed from outside.
fn bootstrap_split(
    seeds: &[tms_geo::GeoPoint],
    history: &[BusTrace],
    config: tms_core::SystemConfig,
) -> Result<(TrafficSystem, SetupSplit), String> {
    let err = |e: tms_core::CoreError| e.to_string();
    let store = TableStore::new();
    let observations = offline::stop_observations(history);
    let t = Instant::now();
    let quadtree = RegionQuadtree::build(DUBLIN_BBOX, seeds, config.offline.quadtree)
        .map_err(|e| e.to_string())?;
    let quadtree_build = t.elapsed();
    let t = Instant::now();
    let stops = BusStopIndex::build(
        &observations,
        config.offline.denclue,
        config.offline.subcluster,
    )
    .map_err(|e| e.to_string())?;
    let busstops_build = t.elapsed();
    let spatial = SpatialContext { quadtree, stops };
    let dfs = Dfs::with_defaults();
    let t = Instant::now();
    offline::enrich_and_store(history, &spatial, &dfs, "/history/day0.csv").map_err(err)?;
    let enrich_store = t.elapsed();
    let t = Instant::now();
    offline::run_statistics_job(&dfs, &["/history/day0.csv"], &store, &config.offline)
        .map_err(err)?;
    let stats_job = t.elapsed();
    let rates = offline::region_rates(history, &spatial);
    let artifacts = OfflineArtifacts::new(spatial, rates, ThresholdStore::new(store.clone()));
    let system = TrafficSystem {
        artifacts,
        store,
        model: EstimationModel::default_paper_shaped(),
        config,
    };
    Ok((
        system,
        SetupSplit {
            quadtree_build,
            busstops_build,
            enrich_store,
            stats_job,
        },
    ))
}

fn set_up(
    kind: Kind,
    prefix: usize,
    rules: &[RuleSpec],
    split: bool,
    kappa: bool,
) -> Result<Setup, String> {
    let (before, started) = (usage(), Instant::now());
    let history = input::history();
    let seeds = input::seed_points();
    let config = input::system_config(kind, &history, prefix, kappa);
    let (system, split) = if split {
        let (system, split) = bootstrap_split(&seeds, &history, config)?;
        (system, Some(split))
    } else {
        let system = TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, config)
            .map_err(|e| e.to_string())?;
        (system, None)
    };
    let plan_started = Instant::now();
    let plan = system
        .startup_plan(rules, ENGINES)
        .map_err(|e| e.to_string())?;
    let startup_plan = plan_started.elapsed();
    Ok(Setup {
        system,
        plan,
        took: Stretch::since(before, started.elapsed().as_secs_f64()),
        startup_plan,
        split,
    })
}

// ---------------------------------------------------------------------------
// The untraced threaded passes
// ---------------------------------------------------------------------------

/// Open-loop sink and generator statistics.
#[derive(Debug, Default)]
struct OpenLoop {
    /// Per tuple that triggered after the warm-up: due time → its last
    /// detection stored; ascending, ms.
    latencies_ms: Vec<f64>,
    /// Emission lags of every tuple, ascending, ms.
    lags_ms: Vec<f64>,
    /// Last due time → topology joined.
    drain: Duration,
}

/// One pass of the input through the threaded topology.
struct Threaded {
    detections: Vec<Detection>,
    metrics: Vec<ComponentWindow>,
    took: Stretch,
    open_loop: Option<OpenLoop>,
}

impl Threaded {
    /// Tuples per second: of the time the host granted for a replay, which
    /// always has work for both vCPUs; of plain wall time for the open
    /// loop, which idles between due times.
    fn tps(&self, tuples: usize) -> f64 {
        let seconds = match self.open_loop {
            None => self.took.granted_wall_s(),
            Some(_) => self.took.wall_s,
        };
        tuples as f64 / seconds
    }

    fn cpu_us_per_tuple(&self, tuples: usize) -> f64 {
        self.took.cpu_s * 1e6 / tuples as f64
    }
}

fn replay(setup: &Setup, live: &[BusTrace]) -> Result<Threaded, String> {
    let input = live.to_vec();
    // Every pass starts from the store the set-up left, without the
    // detections an earlier pass stored (the table is absent at first).
    let _ = setup.system.store.drop_table("detected_events");
    let before = usage();
    let started = Instant::now();
    let report = setup
        .system
        .run(input, &setup.plan, None)
        .map_err(|e| e.to_string())?;
    let took = Stretch::since(before, started.elapsed().as_secs_f64());
    Ok(Threaded {
        detections: report.detections,
        metrics: report.metrics,
        took,
        open_loop: None,
    })
}

fn ascending_ms(durations: impl Iterator<Item = Duration>) -> Vec<f64> {
    let mut ms: Vec<f64> = durations.map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

fn open_loop(
    setup: &Setup,
    live: &Arc<Vec<BusTrace>>,
    rate: u64,
    warmup: Duration,
) -> Result<Threaded, String> {
    let before = usage();
    let outcome = paced::run(&setup.system, &setup.plan, live.clone(), Some(rate))?;
    let took = Stretch::since(before, (outcome.joined - outcome.start).as_secs_f64());
    let last_due = paced::due_offset(live.len() as u64 - 1, rate);
    // One sample per triggering tuple: the stamp of its last detection.
    let mut by_trigger = Vec::with_capacity(outcome.stamps.len());
    for (ts, at) in &outcome.stamps {
        match live.binary_search_by_key(ts, |t| t.timestamp_ms) {
            Ok(index) => by_trigger.push((index as u64, *at)),
            Err(_) => return Err(format!("a detection's timestamp {ts} is no input tuple's")),
        }
    }
    by_trigger.sort_unstable();
    let latencies = by_trigger
        .chunk_by(|a, b| a.0 == b.0)
        .filter_map(|stamps| stamps.last())
        .filter(|(index, _)| paced::due_offset(*index, rate) >= warmup)
        .map(|(index, at)| {
            paced::open_loop_latency(at.saturating_duration_since(outcome.start), *index, rate)
        });
    let latencies_ms = ascending_ms(latencies);
    Ok(Threaded {
        took,
        open_loop: Some(OpenLoop {
            latencies_ms,
            lags_ms: ascending_ms(outcome.lags.iter().copied()),
            drain: (outcome.joined - outcome.start).saturating_sub(last_due),
        }),
        detections: outcome.detections,
        metrics: outcome.metrics,
    })
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

type DetectionKey = (String, String, u64, u64);

/// Sorted multiset keys: (rule, location, trigger timestamp, observed bits).
fn keys<'a>(detections: impl Iterator<Item = &'a Detection>) -> Vec<DetectionKey> {
    let mut keys: Vec<DetectionKey> = detections
        .map(|d| {
            (
                d.rule.clone(),
                d.location.clone(),
                d.timestamp_ms,
                d.observed.to_bits(),
            )
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// `(missing from got, extra in got)` against the reference multiset.
fn multiset_diff(reference: &[DetectionKey], got: &[DetectionKey]) -> (u64, u64) {
    let (mut i, mut j, mut missing, mut extra) = (0, 0, 0u64, 0u64);
    while i < reference.len() && j < got.len() {
        match reference[i].cmp(&got[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                missing += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                extra += 1;
                j += 1;
            }
        }
    }
    (
        missing + (reference.len() - i) as u64,
        extra + (got.len() - j) as u64,
    )
}

/// Detections missing from or extra to `reference`, noted when any.
fn mismatches(
    what: &str,
    reference: &[DetectionKey],
    got: &[DetectionKey],
    notes: &mut Vec<String>,
) -> u64 {
    let (missing, extra) = multiset_diff(reference, got);
    if missing + extra > 0 {
        notes.push(format!(
            "{what} differs from the reference: {missing} detections missing, {extra} extra"
        ));
    }
    missing + extra
}

fn component<'a>(metrics: &'a [ComponentWindow], name: &str) -> Option<&'a ComponentWindow> {
    metrics.iter().find(|m| m.component == name)
}

/// Tuples not conserved spout → preprocess → trackers → splitter, plus
/// every dropped or misrouted delivery.
fn conservation_failures(metrics: &[ComponentWindow], tuples: u64, notes: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    let mut expect = |what: &str, got: Option<u64>| {
        let got = got.unwrap_or(0);
        if got != tuples {
            notes.push(format!("conservation: {what} = {got}, expected {tuples}"));
            failed += tuples.abs_diff(got);
        }
    };
    expect(
        "busReader.emitted",
        component(metrics, "busReader").map(|m| m.emitted),
    );
    for name in ["preprocess", "areaTracker", "busStopsTracker", "splitter"] {
        expect(
            &format!("{name}.processed"),
            component(metrics, name).map(|m| m.throughput),
        );
    }
    let lost: u64 = metrics.iter().map(|m| m.dropped + m.misrouted).sum();
    if lost > 0 {
        notes.push(format!("{lost} deliveries dropped or misrouted"));
    }
    failed + lost
}

/// Count and order-independent hash of a detection multiset: every
/// repeat of a replay must produce the same one.
fn fingerprint(detections: &[Detection]) -> (usize, u64) {
    let sum = detections.iter().fold(0u64, |sum, d| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (&d.rule, &d.location, d.timestamp_ms, d.observed.to_bits()).hash(&mut h);
        sum.wrapping_add(h.finish())
    });
    (detections.len(), sum)
}

/// The checks every threaded pass must survive: tuple conservation, and
/// detections on the prefix equal to the inline reference. Returns the
/// number of failed operations.
fn check_pass(
    pass: &Threaded,
    tuples: usize,
    horizon_ms: u64,
    reference: &[DetectionKey],
    notes: &mut Vec<String>,
) -> u64 {
    let in_prefix = pass
        .detections
        .iter()
        .filter(|d| d.timestamp_ms <= horizon_ms);
    conservation_failures(&pass.metrics, tuples as u64, notes)
        + mismatches("the threaded run", reference, &keys(in_prefix), notes)
}

/// Proves the harness wiring and `TrafficSystem::run` detect the same
/// multiset on a leading slice of the input. Returns the mismatch count.
fn check_wiring(setup: &Setup, live: &[BusTrace], notes: &mut Vec<String>) -> Result<u64, String> {
    let slice = &live[..WIRING_PROOF_TUPLES.min(live.len())];
    let product = setup
        .system
        .run(slice.to_vec(), &setup.plan, None)
        .map_err(|e| e.to_string())?;
    let harness = paced::run(&setup.system, &setup.plan, Arc::new(slice.to_vec()), None)?;
    Ok(mismatches(
        "the harness wiring",
        &keys(product.detections.iter()),
        &keys(harness.detections.iter()),
        notes,
    ))
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a few timed `ThresholdStore::thresholds` snapshots.
fn threshold_snapshot_ms(system: &TrafficSystem) -> f64 {
    let store = ThresholdStore::new(system.store.clone());
    let query = ThresholdQuery {
        attribute: "delay".into(),
        s: 2.0,
    };
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let rows = store.thresholds(&query);
            std::hint::black_box(&rows);
            ms(t.elapsed())
        })
        .collect();
    median(&times)
}

/// Median inline detection latency over the triggers among the first
/// `upto` tuples, in ms; `None` when nothing there triggered.
fn inline_detect_p50_ms(pass: &inline::Outcome, upto: usize) -> Option<f64> {
    let leading = pass
        .detect_latency
        .iter()
        .take_while(|(index, _)| *index < upto);
    let latencies = ascending_ms(leading.map(|(_, latency)| *latency));
    (!latencies.is_empty()).then(|| percentile(&latencies, 50.0))
}

/// One more timing of the inline detection latency over `traces`.
fn latency_repeat(setup: &Setup, traces: &[BusTrace]) -> Result<Option<f64>, String> {
    let pass = inline::run(
        &setup.system,
        &setup.plan,
        traces,
        inline::Options::default(),
    )?;
    Ok(inline_detect_p50_ms(&pass, traces.len()))
}

/// Pairs the values with the contract's names, refusing a list that has
/// drifted from `spec`'s tables.
fn named(
    spec: impl Iterator<Item = &'static str>,
    values: Vec<(&'static str, f64)>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let expected: Vec<&str> = spec.collect();
    let got: Vec<&str> = values.iter().map(|(name, _)| *name).collect();
    if expected != got {
        return Err(format!(
            "metric list {got:?} is not the contract's {expected:?}"
        ));
    }
    Ok(values)
}

/// The per-layer metrics: the reference pass's spans, the profiled pass's
/// exact counts, the set-up split, and the threaded run's runtime counters.
#[allow(clippy::too_many_arguments)]
fn per_layer_metrics(
    tuples: usize,
    live_generation: Duration,
    passes: &Passes,
    reference: &inline::Outcome,
    profiled: &inline::Outcome,
    kappa_pass: &inline::Outcome,
    reference_sys: &Setup,
    profiled_sys: &Setup,
) -> Vec<(&'static str, f64)> {
    let threaded = &passes.best;
    let m = reference.prefix as u64;
    let per_tuple = |count: u64| count as f64 / m as f64;
    let layer = |l: Layer| reference.layers[l as usize];
    let (storer, kappa, publish) = (
        layer(Layer::Storer),
        kappa_pass.layers[Layer::Kappa as usize],
        kappa_pass.layers[Layer::KappaPublish as usize],
    );
    let spans_total: Duration = reference.layers.iter().map(|l| l.total).sum();
    let inline_us = us(reference.wall) / m as f64;

    let profiles = profiled.profiles.unwrap_or_default();
    let share = |count: u64| count as f64 / profiles.evals().max(1) as f64;
    let split = profiled_sys.split.unwrap_or_default();

    let n = tuples as f64;
    let avg_us = |name: &str| {
        component(&threaded.metrics, name)
            .and_then(|c| c.avg_latency)
            .map_or(0.0, us)
    };
    let total = |f: fn(&ComponentWindow) -> u64| threaded.metrics.iter().map(f).sum::<u64>() as f64;

    // Zero outside the open-loop workload.
    let open = threaded.open_loop.as_ref();
    let latencies = open.map_or(&[][..], |o| &o.latencies_ms);
    let lags = open.map_or(&[][..], |o| &o.lags_ms);
    let pct = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { percentile(v, p) };
    // The highest percentile the sample supports, capped at p99.
    let top = highest_supported_percentile(latencies.len()).map_or(90.0, |p| p.min(99.0));
    let late = latencies.iter().filter(|v| **v > 50.0).count() as f64;

    vec![
        ("traffic.generator.us_per_tuple", us(live_generation) / n),
        (
            "traffic.preprocess.us_per_tuple",
            layer(Layer::Preprocess).us_per(m),
        ),
        (
            "geo.quadtree.us_per_tuple",
            layer(Layer::Quadtree).us_per(m),
        ),
        (
            "geo.busstops.us_per_tuple",
            layer(Layer::BusStops).us_per(m),
        ),
        (
            "core.splitter.us_per_tuple",
            layer(Layer::Splitter).us_per(m),
        ),
        ("core.splitter.fanout", per_tuple(reference.fanout)),
        (
            "core.rule_engine.us_per_tuple",
            layer(Layer::RuleEngine).us_per(m),
        ),
        (
            "core.rule_engine.events_per_tuple",
            per_tuple(reference.events),
        ),
        ("cep.eval.us_per_tuple", us(profiles.eval) / m as f64),
        ("cep.path.shared_share", share(profiles.shared)),
        ("cep.path.incremental_share", share(profiles.incremental)),
        ("cep.path.rescan_share", share(profiles.rescan)),
        (
            "storage.events.us_per_detection",
            storer.us_per(storer.calls),
        ),
        ("storage.events.max_ms", ms(storer.max)),
        ("core.install.ms", ms(reference.install)),
        ("core.refresh.ms_per_call", ms(reference.refresh_per_call)),
        ("core.kappa.us_per_tuple", kappa.us_per(kappa.calls)),
        ("core.kappa.publish_ms", publish.us_per(publish.calls) / 1e3),
        (
            "storage.thresholds.snapshot_ms",
            threshold_snapshot_ms(&reference_sys.system),
        ),
        ("inline.us_per_tuple", inline_us),
        ("inline.tps", m as f64 / reference.wall.as_secs_f64()),
        (
            "trace.unattributed_us_per_tuple",
            us(reference.wall.saturating_sub(spans_total)) / m as f64,
        ),
        ("geo.quadtree.build_s", split.quadtree_build.as_secs_f64()),
        ("geo.busstops.build_s", split.busstops_build.as_secs_f64()),
        (
            "core.offline.enrich_store_s",
            split.enrich_store.as_secs_f64(),
        ),
        ("batch.stats_job_s", split.stats_job.as_secs_f64()),
        ("core.startup_plan_ms", ms(profiled_sys.startup_plan)),
        (
            "core.startup_plan.groupings",
            profiled_sys.plan.groupings.len() as f64,
        ),
        (
            "dsps.residual_us_per_tuple",
            threaded.cpu_us_per_tuple(tuples) - inline_us,
        ),
        (
            "dsps.ctx_switches_per_tuple",
            threaded.took.ctx_switches as f64 / n,
        ),
        ("dsps.preprocess.avg_us", avg_us("preprocess")),
        ("dsps.areaTracker.avg_us", avg_us("areaTracker")),
        ("dsps.busStopsTracker.avg_us", avg_us("busStopsTracker")),
        ("dsps.splitter.avg_us", avg_us("splitter")),
        ("dsps.esper.avg_us", avg_us("esper")),
        ("dsps.eventsStorer.avg_us", avg_us("eventsStorer")),
        (
            "dsps.esper.deliveries",
            component(&threaded.metrics, "esper").map_or(0.0, |c| c.throughput as f64),
        ),
        ("dsps.detections", threaded.detections.len() as f64),
        ("dsps.dropped", total(|c| c.dropped)),
        ("dsps.misrouted", total(|c| c.misrouted)),
        ("sink.detect_p90_ms", pct(latencies, 90.0)),
        ("sink.detect_p99_ms", pct(latencies, top)),
        ("sink.detect_max_ms", pct(latencies, 100.0)),
        ("sink.samples", latencies.len() as f64),
        ("sink.late_share_50ms", late / latencies.len().max(1) as f64),
        ("spout.lag_p50_ms", pct(lags, 50.0)),
        ("spout.lag_p99_ms", pct(lags, 99.0)),
        ("spout.lag_max_ms", pct(lags, 100.0)),
        ("spout.drain_ms", open.map_or(0.0, |o| ms(o.drain))),
        ("host.steal_share", passes.steal_share),
        ("run.best_pass_wall_tps", n / threaded.took.wall_s),
        ("run.repeats", passes.tps.len() as f64),
        ("run.repeat_tps_median", median(&passes.tps)),
        ("run.repeat_tps_worst", lowest(&passes.tps)),
        ("run.tuples", n),
        ("run.prefix_tuples", m as f64),
        (
            "run.reference_detections",
            reference.detections.len() as f64,
        ),
    ]
}

/// What the threaded passes of a run measured.
struct Passes {
    /// The pass with the highest throughput.
    best: Threaded,
    /// Throughput of every pass, tuples/s.
    tps: Vec<f64>,
    /// CPU per tuple of every pass, µs.
    cpu_us: Vec<f64>,
    /// Of the vCPU time all passes asked for, the share the host withheld.
    steal_share: f64,
}

fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn highest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Runs one workload once.
pub fn run(request: Request) -> Result<Report, String> {
    let run_started = Instant::now();
    let workload = request.workload;
    let kind = workload.kind;
    let divisor = if request.smoke { SMOKE_DIVISOR } else { 1 };
    let tuples = (workload.tuples(request.seconds) / divisor).max(1);
    let prefix = workload.prefix(tuples);
    let rules = input::rules(kind);
    let mut notes = Vec::new();
    let mut failed = 0u64;
    let mut valid = true;

    let t = Instant::now();
    let live = Arc::new(input::live(request.seed, tuples));
    let live_generation = t.elapsed();
    let input_hash = input::input_hash(&live);

    // Set up before the measuring window and once more after it, so one
    // episode of interference cannot cover every set-up. The first system
    // (bootstrapped stage by stage when tracing) serves the profiled pass,
    // the last one of these the reference and the threaded passes.
    let setups = if request.smoke { 1 } else { SETUPS_PER_RUN };
    let systems = (0..setups.saturating_sub(1).max(1))
        .map(|k| set_up(kind, prefix, &rules, request.trace && k == 0, false))
        .collect::<Result<Vec<_>, _>>()?;
    let mut setup_times: Vec<f64> = systems.iter().map(|s| s.took.granted_wall_s()).collect();
    let (profiled_sys, system) = (&systems[0], &systems[systems.len() - 1]);

    // ---- the inline reference pass -------------------------------------
    let reference = inline::run(
        &system.system,
        &system.plan,
        &live[..prefix],
        inline::Options {
            keep_spans_of: if request.trace { SPAN_DUMP_TUPLES } else { 0 },
            profiling: false,
            time_refresh: request.trace,
        },
    )?;
    let reference_keys = keys(reference.detections.iter());
    let horizon_ms = live[prefix - 1].timestamp_ms;

    // ---- the untraced threaded passes ----------------------------------
    let rate = workload.rate();
    let warmup = rate.map_or(Duration::ZERO, |r| {
        paced::due_offset(tuples as u64, r) * WARMUP_NUM / WARMUP_DEN
    });
    let latency_prefix = &live[..prefix.div_ceil(LATENCY_PREFIX_DEN)];
    let mut inline_p50s = Vec::new();
    let (passes, peak_rss_mb) = match rate {
        Some(rate) => {
            let pass = open_loop(system, &live, rate, warmup)?;
            // Before the wiring proof runs two more topologies.
            let peak_rss_mb = usage().max_rss_mb;
            failed += check_pass(&pass, tuples, horizon_ms, &reference_keys, &mut notes);
            failed += check_wiring(system, &live, &mut notes)?;
            let passes = Passes {
                tps: vec![pass.tps(tuples)],
                cpu_us: vec![pass.cpu_us_per_tuple(tuples)],
                steal_share: pass.took.steal_s / (pass.took.cpu_s + pass.took.steal_s),
                best: pass,
            };
            (passes, peak_rss_mb)
        }
        None => {
            let (window, at_least) = if request.smoke {
                (
                    Duration::from_secs(request.seconds) / SMOKE_WINDOW_DIVISOR,
                    1,
                )
            } else {
                (Duration::from_secs(request.seconds), MIN_REPEATS)
            };
            let measuring = Instant::now();
            let (mut tps, mut cpu_us) = (Vec::new(), Vec::new());
            let (mut cpu_s, mut steal_s) = (0.0, 0.0);
            let mut best: Option<Threaded> = None;
            let mut expected = None;
            while tps.len() < at_least || measuring.elapsed() < window {
                let pass = replay(system, &live)?;
                failed += check_pass(&pass, tuples, horizon_ms, &reference_keys, &mut notes);
                let print = fingerprint(&pass.detections);
                if *expected.get_or_insert(print) != print {
                    notes.push(format!(
                        "repeat {} detected {} events, the first repeat {}",
                        tps.len(),
                        print.0,
                        expected.map_or(0, |e| e.0)
                    ));
                    failed += 1;
                }
                tps.push(pass.tps(tuples));
                cpu_us.push(pass.cpu_us_per_tuple(tuples));
                cpu_s += pass.took.cpu_s;
                steal_s += pass.took.steal_s;
                if best
                    .as_ref()
                    .is_none_or(|b| pass.tps(tuples) > b.tps(tuples))
                {
                    best = Some(pass);
                }
                inline_p50s.extend(latency_repeat(system, latency_prefix)?);
            }
            let passes = Passes {
                best: best.expect("at least one repeat ran"),
                tps,
                cpu_us,
                steal_share: steal_s / (cpu_s + steal_s),
            };
            // The high-water mark over all repeats: steadier than after one.
            (passes, usage().max_rss_mb)
        }
    };
    if let Some(open) = passes
        .best
        .open_loop
        .as_ref()
        .filter(|o| o.drain > MAX_DRAIN)
    {
        notes.push(format!(
            "open loop needed {:.0} ms to drain: the rate is not sustained",
            ms(open.drain)
        ));
        valid = false;
    }
    if setups > systems.len() {
        setup_times.push(
            set_up(kind, prefix, &rules, false, false)?
                .took
                .granted_wall_s(),
        );
    }

    // ---- end-to-end metrics --------------------------------------------
    let (detect_p50_ms, detect_samples) = match &passes.best.open_loop {
        Some(open) if !open.latencies_ms.is_empty() => (
            percentile(&open.latencies_ms, 50.0),
            open.latencies_ms.len(),
        ),
        Some(_) => return Err("the open loop stamped no detection after the warm-up".into()),
        None if inline_p50s.is_empty() => {
            return Err("nothing triggers in the latency prefix".into())
        }
        None => {
            let triggers = reference.detect_latency.iter();
            let samples = triggers
                .take_while(|(i, _)| *i < latency_prefix.len())
                .count();
            (lowest(&inline_p50s), samples)
        }
    };
    let end_to_end = named(
        END_TO_END.iter().map(|m| m.name),
        vec![
            ("setup_s", lowest(&setup_times)),
            ("throughput_tps", highest(&passes.tps)),
            ("cpu_us_per_tuple", lowest(&passes.cpu_us)),
            ("detect_p50_ms", detect_p50_ms),
            ("peak_rss_mb", peak_rss_mb),
        ],
    )?;

    // ---- per-layer metrics ---------------------------------------------
    let mut per_layer = Vec::new();
    if request.trace {
        let profiled = inline::run(
            &profiled_sys.system,
            &profiled_sys.plan,
            &live[..prefix],
            inline::Options {
                keep_spans_of: 0,
                profiling: true,
                time_refresh: false,
            },
        )?;
        // The profiled pass ran on the stage-by-stage bootstrap: equal
        // detections prove that copy of the off-line pipeline.
        failed += mismatches(
            "the stage-by-stage bootstrap",
            &reference_keys,
            &keys(profiled.detections.iter()),
            &mut notes,
        );
        // The same rules with in-stream statistics on, for `core.kappa.*`.
        let kappa_sys = set_up(kind, prefix, &rules, false, true)?;
        let kappa_pass = inline::run(
            &kappa_sys.system,
            &kappa_sys.plan,
            &live[..KAPPA_PASS_TUPLES.min(prefix)],
            inline::Options::default(),
        )?;
        let mut values = per_layer_metrics(
            tuples,
            live_generation,
            &passes,
            &reference,
            &profiled,
            &kappa_pass,
            system,
            profiled_sys,
        );
        values.push(("run.wall_s", run_started.elapsed().as_secs_f64()));
        per_layer = named(PER_LAYER.iter().map(|(name, _, _)| *name), values)?;
    }

    for (name, value) in end_to_end.iter().chain(&per_layer) {
        if !value.is_finite() {
            notes.push(format!("{name} is not a finite number"));
            valid = false;
        }
    }
    let repeats = passes.tps.len();
    Ok(Report {
        correct: failed == 0 && valid,
        attempted: (tuples * repeats) as u64,
        failed,
        end_to_end,
        per_layer,
        series: vec![
            ("setup_s", setup_times),
            ("throughput_tps", passes.tps),
            ("cpu_us_per_tuple", passes.cpu_us),
            ("detect_p50_ms", inline_p50s),
        ],
        notes,
        shape: Shape {
            tuples,
            repeats,
            prefix,
            warmup_s: warmup.as_secs_f64(),
            rate,
            setups,
            input_hash,
            detect_samples,
        },
        spans: reference.spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(rule: &str, ts: u64) -> DetectionKey {
        (rule.to_string(), "R1".to_string(), ts, 1.5f64.to_bits())
    }

    #[test]
    fn multiset_diff_counts_missing_and_extra_with_multiplicity() {
        let reference = vec![key("a", 1), key("a", 1), key("b", 2)];
        assert_eq!(multiset_diff(&reference, &reference), (0, 0));
        assert_eq!(
            multiset_diff(&reference, &[key("a", 1), key("b", 2)]),
            (1, 0)
        );
        assert_eq!(
            multiset_diff(
                &reference,
                &[key("a", 1), key("a", 1), key("b", 2), key("c", 3)]
            ),
            (0, 1)
        );
        assert_eq!(multiset_diff(&reference, &[]), (3, 0));
        assert_eq!(multiset_diff(&[], &reference), (0, 3));
    }

    #[test]
    fn fingerprint_ignores_order_and_counts_multiplicity() {
        let detection = |rule: &str, timestamp_ms: u64| Detection {
            rule: rule.to_string(),
            location: "R1".to_string(),
            timestamp_ms,
            observed: 1.5,
            threshold: None,
        };
        let (a, b) = (detection("a", 1), detection("b", 2));
        let forward = fingerprint(&[a.clone(), b.clone(), a.clone()]);
        assert_eq!(forward, fingerprint(&[a.clone(), a.clone(), b.clone()]));
        assert_ne!(forward, fingerprint(&[a.clone(), b.clone(), b.clone()]));
        assert_ne!(forward, fingerprint(&[a, b]));
    }

    /// The whole harness on a small input: every metric present and
    /// finite, outputs equal to the reference, nothing failed.
    #[test]
    fn smoke_run_of_the_headline_workload_is_correct() {
        let workload = crate::spec::workload("replay-table6").unwrap();
        let report = run(Request {
            workload,
            seed: 1,
            seconds: 1,
            trace: true,
            smoke: true,
        })
        .unwrap();
        assert!(report.correct, "notes: {:?}", report.notes);
        assert_eq!(report.failed, 0);
        assert_eq!(report.end_to_end.len(), END_TO_END.len());
        assert_eq!(report.per_layer.len(), PER_LAYER.len());
        assert!(report.end_to_end.iter().all(|(_, v)| *v > 0.0));
        assert!(!report.spans.is_empty());
    }
}
