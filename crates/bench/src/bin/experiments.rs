//! The experiment harness: every table and figure of the paper's
//! evaluation (Section 5) and every benchmark of this implementation is
//! one committed `BENCH_<name>.json` snapshot, measured, written and
//! guarded the same way.
//!
//! ```text
//! cargo run --release -p tms-bench --bin experiments -- all
//! cargo run --release -p tms-bench --bin experiments -- fig11
//! cargo run --release -p tms-bench --bin experiments -- staleness
//! cargo run --release -p tms-bench --bin experiments -- guard all
//! ```
//!
//! Absolute numbers differ from the paper (its testbed was 7 VMs running
//! Storm/Esper/Hadoop; ours is a re-implementation plus a calibrated
//! simulator), so a paper snapshot's rows are its *shapes* — counts,
//! ratios, minima over a sweep — held by its bars, with the curves as
//! series. All share the one schema of `tms_bench::snapshot`.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};
use tms_bench::calibrate::{
    measure_engine_latency, measure_rule_latency, store_with_thresholds, synthetic_trace,
    EngineMode, WarmEngine, WarmStatement,
};
use tms_bench::dataplane::sink_topology_secs;
use tms_bench::report::{format_num, print_series, print_table, ExperimentResult, Series};
use tms_bench::snapshot::{
    check, fold_trials, timed_trials, trial_size, Bar, Row, Sample, Side, Size, Stat,
};
use tms_core::allocation::{allocate, round_robin, Grouping};
use tms_core::latency::{EstimationModel, PolyModel};
use tms_core::offline::{self, OfflineConfig};
use tms_core::partitioning::RegionRate;
use tms_core::rules::{LocationSelector, RuleSpec};
use tms_core::system::SystemConfig;
use tms_core::thresholds::{RetrievalMethod, RuleEngine};
use tms_core::TrafficSystem;
use tms_dsps::runtime::{ReliabilityConfig, RuntimeConfig};
use tms_dsps::{LineageConfig, MonitorConfig};
use tms_geo::{BusStop, BusStopIndex};
use tms_sim::{light_chaos, simulate, PartitioningApproach, ScenarioBuilder, SimConfig};
use tms_storage::RemoteDb;
use tms_traffic::{Attribute, BusTrace, FleetConfig, FleetGenerator, LocId};

/// One `experiments -- <name>` subcommand: the committed
/// `BENCH_<name>.json`, which `experiments -- <name>` measures at `full`
/// size and writes.
struct Experiment {
    name: &'static str,
    measure: fn(Size) -> ExperimentResult,
    full: Size,
    guard: Option<Guard>,
}

/// What `guard <name>` holds a snapshot to: the acceptance bars written
/// onto it, and the size of the live re-run the live-side bars judge.
struct Guard {
    smoke: Size,
    bars: fn() -> Vec<Bar>,
}

/// The bars a snapshot must carry: its guard's, or none.
fn bars_of(guard: &Option<Guard>) -> Vec<Bar> {
    guard.as_ref().map_or(Vec::new(), |g| (g.bars)())
}

const fn snapshot(
    name: &'static str,
    measure: fn(Size) -> ExperimentResult,
    full: Size,
    guard: Option<Guard>,
) -> Experiment {
    Experiment { name, measure, full, guard }
}

/// One pass, for what repeats exactly (a table) or one calibration (the
/// model-driven figures): full and smoke size measure the same.
const ONE_PASS: Size = Size { n: 1, trials: 1, full: true };

/// A guard that re-runs a one-pass experiment whole.
const fn one_pass_guard(bars: fn() -> Vec<Bar>) -> Option<Guard> {
    Some(Guard { smoke: Size::smoke(1, 1), bars })
}

/// Every subcommand but `all` and `guard`; `main`, `guard` and the usage
/// message all read this table. Full and smoke sizes are operations per
/// trial (replay scenarios: live-stream tuples).
const REGISTRY: &[Experiment] = &[
    snapshot("table2", table2, ONE_PASS, one_pass_guard(table2_bars)),
    snapshot("table6", table6, ONE_PASS, one_pass_guard(table6_bars)),
    snapshot("fig9", fig9, ONE_PASS, one_pass_guard(fig9_bars)),
    snapshot(
        "fig10",
        fig10,
        Size::full(FIG10_TUPLES),
        Some(Guard { smoke: Size::smoke(FIG10_TUPLES, 3), bars: fig10_bars }),
    ),
    snapshot("fig11", fig11, ONE_PASS, one_pass_guard(fig11_bars)),
    snapshot("fig12_13", fig12_13, ONE_PASS, one_pass_guard(fig12_13_bars)),
    snapshot("fig14_15", fig14_15, ONE_PASS, one_pass_guard(fig14_15_bars)),
    snapshot("fig16_17", fig16_17, ONE_PASS, one_pass_guard(fig16_17_bars)),
    snapshot(
        "cep_throughput",
        cep_throughput,
        Size::full(40_000),
        Some(Guard { smoke: Size::smoke(20_000, 3), bars: cep_throughput_bars }),
    ),
    snapshot(
        "dsps_throughput",
        dsps_throughput,
        Size::full(500_000),
        Some(Guard { smoke: Size::smoke(200_000, 5), bars: dsps_throughput_bars }),
    ),
    snapshot(
        "trace_overhead",
        trace_overhead,
        // The gated rows are differences of noisy rates, hence the rounds.
        Size { trials: 15, ..Size::full(1_000_000) },
        Some(Guard { smoke: Size::smoke(100_000, 5), bars: trace_overhead_bars }),
    ),
    snapshot(
        "rebalance",
        rebalance,
        Size::full(REPLAY_TUPLES),
        // The rebalancer is a 15 ms wall-clock loop and needs a handful of
        // cycles of live traffic: the morning stream (0.1 s at ~200k t/s)
        // no longer spans them, the full replay (~0.65 s) does.
        Some(Guard { smoke: Size::smoke(REPLAY_TUPLES, 1), bars: rebalance_bars }),
    ),
    // The light chaos scenario's restart budget is sized for the morning stream.
    snapshot("latency_drift", latency_drift, Size::full(MORNING_TUPLES), None),
    snapshot("cep_profile", cep_profile, Size::full(REPLAY_TUPLES), None),
    snapshot(
        "staleness",
        staleness,
        Size::full(REPLAY_TUPLES),
        Some(Guard { smoke: Size::smoke(MORNING_TUPLES, 1), bars: staleness_bars }),
    ),
    snapshot(
        "geo_lookup",
        geo_lookup,
        Size::full(LOOKUP_QUERIES),
        Some(Guard { smoke: Size::smoke(LOOKUP_QUERIES, 5), bars: geo_lookup_bars }),
    ),
];

fn usage() -> String {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    format!("expected one of: {} all guard (`guard <snapshot>|all`)", names.join(" "))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let t0 = Instant::now();
    let ok = match which {
        // Every entry runs, also after one fails.
        "all" => REGISTRY.iter().filter(|e| !run(e)).count() == 0,
        "guard" => guard(args.get(1).map(String::as_str).unwrap_or("all")),
        name => match REGISTRY.iter().find(|e| e.name == name) {
            Some(e) => run(e),
            None => {
                eprintln!("unknown experiment {name:?}; {}", usage());
                std::process::exit(2);
            }
        },
    };
    println!("\n(done in {:.1}s)", t0.elapsed().as_secs_f64());
    if !ok {
        std::process::exit(1);
    }
}

/// Measures one experiment at full size, writes its snapshot and holds it
/// to its own committed-side bars. False when a bar fails.
fn run(e: &Experiment) -> bool {
    println!("\n== {} ==", e.name);
    let mut result = (e.measure)(e.full);
    result.bars = bars_of(&e.guard);
    print_rows(&result);
    if !result.series.is_empty() {
        print_series(&result.title, "x", &result.series);
    }
    match result.save_snapshot() {
        Ok(path) => println!("(wrote {})", path.display()),
        Err(err) => {
            eprintln!("{} FAILED: writing the snapshot: {err}", e.name);
            return false;
        }
    }
    report(e.name, &check(&result, None))
}

/// `guard <name>|all`: each named snapshot must parse under the schema
/// and carry exactly the registry's bars; one with bars is then re-measured
/// at its smoke size and every bar judged. False when anything fails.
fn guard(which: &str) -> bool {
    let mut matched = false;
    let mut ok = true;
    for e in REGISTRY.iter().filter(|e| which == "all" || which == e.name) {
        matched = true;
        println!("\n== guard {} ==", e.name);
        let committed = match ExperimentResult::load_snapshot(e.name) {
            Ok(committed) => committed,
            Err(err) => {
                eprintln!("guard {} FAILED: {err}", e.name);
                ok = false;
                continue;
            }
        };
        if committed.bars != bars_of(&e.guard) {
            eprintln!("guard {} FAILED: the committed bars are not the registry's", e.name);
            ok = false;
        } else if let Some(g) = &e.guard {
            let live = (e.measure)(g.smoke);
            print_rows(&live);
            ok &= report(e.name, &check(&committed, Some(&live)));
        } else {
            println!("guard {} OK (parses under the schema; no bars)", e.name);
        }
    }
    if !matched {
        eprintln!("guard: {which:?} is not a snapshot; {}", usage());
        std::process::exit(2);
    }
    ok
}

fn report(name: &str, verdicts: &[(bool, String)]) -> bool {
    for (ok, line) in verdicts {
        println!("  {} {line}", if *ok { "ok  " } else { "FAIL" });
    }
    let ok = verdicts.iter().all(|(ok, _)| *ok);
    if ok {
        println!("{name} OK");
    } else {
        eprintln!("{name} FAILED: a bar above does not hold");
    }
    ok
}

fn print_rows(result: &ExperimentResult) {
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            let (value, spread) = match r.stat {
                Stat::Median { median, mad } => (format_num(median), format!("±{}", format_num(mad))),
                Stat::Worst(worst) => (format_num(worst), "worst".into()),
            };
            vec![r.key.clone(), value, spread, r.unit.clone(), r.n.to_string(), r.trials.to_string()]
        })
        .collect();
    print_table(&result.title, &["row", "value", "mad", "unit", "n", "trials"], &rows);
}

/// A shape row of a one-pass experiment: its one value, read over `n`
/// points (a sweep's engine counts, a table's tuples).
fn shape(key: impl Into<String>, unit: &str, n: u64, value: f64) -> Row {
    Row::worst(key, unit, n, &[value], f64::min)
}

/// Bars holding each row to at least `bound`, committed and live alike.
fn at_least<S: AsRef<str>>(bound: f64, rows: impl IntoIterator<Item = S>) -> Vec<Bar> {
    rows.into_iter().map(|row| Bar::min(row.as_ref(), bound, Side::Both)).collect()
}

// ---------------------------------------------------------------------------
// Tables 2 and 6
// ---------------------------------------------------------------------------

/// Table 2: the properties of one generated weekday of the default fleet.
fn table2(_: Size) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "table2",
        "Table 2: one generated day of the default fleet (paper: 911 buses, 67 lines, \
         3 tuples/min per bus, 160 MB per day, 6am till 3am)",
    );
    let gen = FleetGenerator::new(FleetConfig::default(), 0).expect("default fleet config is valid");
    let expected = gen.expected_count();
    let (mut traces, mut bytes) = (0u64, 0u64);
    let (mut vehicles, mut lines) = (HashSet::new(), HashSet::new());
    let (mut first_ms, mut last_ms) = (u64::MAX, 0u64);
    for t in gen {
        traces += 1;
        bytes += tms_traffic::csv::to_csv_line(&t).len() as u64 + 1;
        vehicles.insert(t.vehicle_id);
        lines.insert(t.line_id);
        first_ms = first_ms.min(t.timestamp_ms);
        last_ms = last_ms.max(t.timestamp_ms);
    }
    let minutes = (last_ms - first_ms) as f64 / 60_000.0;
    let row = |key, unit, value| shape(key, unit, traces, value);
    result.rows = vec![
        row("buses", "count", vehicles.len() as f64),
        row("lines", "count", lines.len() as f64),
        row("tuples_per_min_per_bus", "1/min", traces as f64 / vehicles.len() as f64 / minutes),
        row("traces", "count", traces as f64),
        row("traces_over_expected", "ratio", traces as f64 / expected as f64),
        row("mb_per_day", "MB", bytes as f64 / 1e6),
        // Hours since the day's midnight: 6 and 27 are 06:00 and 03:00 (+1d).
        row("first_hour", "h", (first_ms / tms_traffic::HOUR_MS) as f64),
        row("end_hour", "h", (last_ms / tms_traffic::HOUR_MS + 1) as f64),
    ];
    result
}

/// The paper's fleet exactly, and a generator that hits its advertised
/// count: each row within `[lo, hi]`, committed and live alike.
fn table2_bars() -> Vec<Bar> {
    [
        ("buses", 911.0, 911.0),
        ("lines", 67.0, 67.0),
        ("tuples_per_min_per_bus", 2.95, 3.05),
        ("traces_over_expected", 1.0, 1.0),
    ]
    .into_iter()
    .flat_map(|(row, lo, hi)| [Bar::min(row, lo, Side::Both), Bar::max(row, hi, Side::Both)])
    .collect()
}

/// Table 6: every attribute × location × window instantiation of the
/// generic rule template, and how many of them parse.
fn table6(_: Size) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "table6",
        "Table 6: the generic rule template over 4 attributes x {bus stops, quadtree areas} x \
         windows {1, 10, 100, 1000}",
    );
    let (mut instantiated, mut parsed) = (0u64, 0u64);
    for attr in Attribute::ALL {
        for loc in [LocationSelector::QuadtreeLeaves, LocationSelector::BusStops] {
            for l in [1usize, 10, 100, 1000] {
                let rule = RuleSpec::new(format!("t6-{instantiated}"), attr, loc.clone(), l);
                parsed += u64::from(tms_cep::parse_statement(&rule.to_epl()).is_ok());
                instantiated += 1;
            }
        }
    }
    result.rows = vec![shape("parsed", "count", instantiated, parsed as f64)];
    result
}

fn table6_bars() -> Vec<Bar> {
    at_least(32.0, ["parsed"])
}

// ---------------------------------------------------------------------------
// Figure 9 + Section 5.1: the regression model
// ---------------------------------------------------------------------------

/// Figure 9 / §5.1: Function 2 fitted at order 1 and order 2 to the
/// calibration's two-rule engine latencies (the Figure 9 surface, kept as
/// a series), every fourth window pair held out. The paper's first order
/// wins; a quadratic over 12 points overfits.
fn fig9(_: Size) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig9",
        "Figure 9: two-rule engine latency over Table 6's window pairs, 480 thresholds per rule \
         (the calibration's Function 2 samples); order-1 vs order-2 fit, every fourth pair held out",
    );
    let samples = &calibration().f2;
    // Train/test split (the paper "splitted it in training and test
    // set"): every fourth pair, i.e. each pair whose second rule has
    // window 1000, is held out, so a fit must extrapolate along that axis.
    let split = |held_out| {
        let kept = samples.iter().enumerate().filter(move |(i, _)| (i % 4 == 3) == held_out);
        kept.map(|(_, s)| s.clone()).collect::<Vec<_>>()
    };
    let (test, train) = (split(true), split(false));
    let fit = |order| PolyModel::fit(&train, order).expect("Function 2 fits");
    let (m1, m2) = (fit(1), fit(2));
    let mae = |m: &PolyModel| m.mean_abs_error(&test).expect("MAE");
    let (e1, e2, held_out) = (mae(&m1), mae(&m2), test.len() as u64);
    result.rows = vec![
        shape("mae_order1_ms", "ms", held_out, e1),
        shape("mae_order2_ms", "ms", held_out, e2),
        shape("order2_over_order1", "ratio", held_out, e2 / e1),
    ];
    let train_n = train.len() as u64;
    for (i, c) in m1.coefficients.iter().enumerate() {
        result.rows.push(shape(format!("order1.c{i}"), if i == 0 { "ms" } else { "ratio" }, train_n, *c));
    }
    for (l, ms) in &calibration().singles {
        result.rows.push(shape(format!("single.l{l}_ms"), "ms", CALIBRATION_TUPLES as u64, *ms));
    }
    let mut surface = Series::new("engine_latency_ms");
    for (i, (_, y)) in samples.iter().enumerate() {
        surface.push(i as f64, *y);
    }
    result.series.push(surface);
    result
}

/// Held out, order 1 must not lose to order 2.
fn fig9_bars() -> Vec<Bar> {
    at_least(1.0, ["order2_over_order1"])
}

// ---------------------------------------------------------------------------
// Figure 10: threshold retrieval methods
// ---------------------------------------------------------------------------

/// Tuples per trial of Figure 10's cheapest retrieval methods.
const FIG10_TUPLES: u64 = 60_000;

/// Figure 10: per-tuple latency of the four threshold-retrieval methods on
/// real engines, thresholds high enough that the rule rarely fires. The
/// methods run interleaved, one trial each per round, after a warm-up
/// round; rows are medians and per-round ratios, each series a method's
/// latency round by round. `size.n` is the cheap methods' tuples per trial.
fn fig10(size: Size) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig10",
        "Figure 10: threshold retrieval, 20 locations x 48 cells, 1 Delay rule (window 100), \
         simulated 2 ms MySQL round trip; methods interleaved after a warm-up round",
    );
    // Simulated MySQL round trip. The paper's Figure 10(a) shows the
    // per-tuple SQL join costing ~40–60 ms against ~5 ms for the
    // multiple-rules method, i.e. their LAN MySQL round trip dominated
    // everything; 2 ms per query is a conservative stand-in that keeps
    // the published ordering (see EXPERIMENTS.md for the sensitivity
    // discussion).
    let round_trip = Duration::from_millis(2);
    let (store, names) = store_with_thresholds(20 * 48);
    // Join With SQL pays the round trip on every tuple, so its median
    // needs few of them; a smoke run cuts it to ~1 s a trial.
    let methods = [
        ("join_sql", "Join With SQL", RetrievalMethod::JoinWithDatabase, 20, 120),
        ("many_rules", "Many Rules", RetrievalMethod::MultipleRules, 10, 10),
        ("new_stream", "New Stream", RetrievalMethod::ThresholdStream, 1, 1),
        ("optimal", "Optimal (static)", RetrievalMethod::StaticOptimal(1e9), 1, 1),
    ];
    let mut sent = 0;
    // The next `n` traces through one engine, in seconds.
    let mut feed = |engine: &mut RuleEngine, n: u64| {
        let start = Instant::now();
        for i in sent..sent + n as usize {
            let trace = synthetic_trace(i, names[i % names.len()]);
            engine.send_trace(&trace).expect("trace accepted");
        }
        sent += n as usize;
        start.elapsed().as_secs_f64()
    };
    // Per method: its engine and tuples per trial.
    let mut arms = Vec::new();
    for (_, _, method, full_share, smoke_share) in &methods {
        let db = RemoteDb::new(store.store().clone(), round_trip);
        let mut engine = RuleEngine::new(method.clone(), store.clone(), Some(db));
        let mut rule =
            RuleSpec::new("fig10-delay", Attribute::Delay, LocationSelector::QuadtreeLeaves, 100);
        rule.s = 0.0;
        engine.install_rule(&rule, names.iter().map(LocId::to_string)).expect("installing rule");
        let share = if size.full { full_share } else { smoke_share };
        let n = trial_size(size, size.n / share, |n| feed(&mut engine, n));
        feed(&mut engine, n); // the warm-up round
        arms.push((engine, n));
    }
    let mut ms = vec![Vec::new(); arms.len()];
    for _ in 0..size.trials {
        for ((engine, n), ms) in arms.iter_mut().zip(&mut ms) {
            ms.push(feed(engine, *n) * 1e3 / *n as f64);
        }
    }
    for ((key, name, ..), ((engine, n), ms)) in methods.iter().zip(arms.iter().zip(&ms)) {
        result.rows.push(Row::timed(format!("{key}.ms_per_tuple"), "ms", *n, ms));
        let statements = engine.statement_count() as f64;
        result.rows.push(shape(format!("{key}.statements"), "count", 1, statements));
        let mut series = Series::new(*name);
        ms.iter().enumerate().for_each(|(round, ms)| series.push(round as f64, *ms));
        result.series.push(series);
    }
    let ratios = ["join_over_many", "many_over_new_stream", "new_stream_over_optimal"];
    for (i, key) in ratios.iter().enumerate() {
        let ratio = paired(&ms[i], &ms[i + 1], |above, below| above / below);
        result.rows.push(Row::timed(*key, "ratio", arms[i + 1].1, &ratio));
    }
    result
}

/// The paper's ordering: Join With SQL above Many Rules above New Stream,
/// and New Stream on the no-retrieval optimum (within 1.5x).
fn fig10_bars() -> Vec<Bar> {
    let ceiling = Bar::max("new_stream_over_optimal", 1.5, Side::Both);
    [at_least(1.0, ["join_over_many", "many_over_new_stream"]), vec![ceiling]].concat()
}

// ---------------------------------------------------------------------------
// Snapshot helpers
// ---------------------------------------------------------------------------

/// Per-trial rates (operations per second) from per-trial seconds.
fn rates(n: u64, secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|s| n as f64 / s).collect()
}

/// Element-wise `f` over two per-trial vectors: a derived row keeps the
/// trial pairing, so its MAD is the spread of the derived quantity.
fn paired(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    a.iter().zip(b).map(|(&a, &b)| f(a, b)).collect()
}

/// The small fleet's 06:00–09:00 live stream: what a smoke replay runs.
const MORNING_TUPLES: u64 = 21_600;

/// Live-stream tuples a full-size replay scenario runs, so one trial
/// lasts a second or more and samples tens of monitor windows.
const REPLAY_TUPLES: u64 = 120_000;

/// The small-fleet replay the live scenarios share: day 0 up to 09:00 as
/// history, then the first `tuples` traces of day 1 as the live stream.
struct Replay {
    seeds: Vec<tms_geo::GeoPoint>,
    history: Vec<BusTrace>,
    live: Vec<BusTrace>,
}

impl Replay {
    fn new(tuples: u64) -> Replay {
        let day = |d| FleetGenerator::new(FleetConfig::small(17), d).expect("fleet config is valid");
        let gen = day(0);
        Replay {
            seeds: gen.route_seed_points(),
            history: gen.take_while(|t| t.timestamp_ms < 9 * tms_traffic::HOUR_MS).collect(),
            live: day(1).take(tuples as usize).collect(),
        }
    }

    fn bootstrap(&self, config: SystemConfig) -> TrafficSystem {
        TrafficSystem::bootstrap(tms_geo::DUBLIN_BBOX, &self.seeds, &self.history, config)
            .expect("bootstrap")
    }
}

/// One Delay rule over the quadtree leaves and one over the bus stops.
fn delay_rules(tag: &str) -> Vec<RuleSpec> {
    [("leaves", LocationSelector::QuadtreeLeaves), ("stops", LocationSelector::BusStops)]
        .into_iter()
        .map(|(name, loc)| {
            let mut r = RuleSpec::new(format!("{tag}-{name}"), Attribute::Delay, loc, 10);
            r.s = 0.5;
            r
        })
        .collect()
}

/// A monitor sampling every `window_ms`: windows, queue gauges and rule
/// profiles.
fn monitor_every(window_ms: u64) -> MonitorConfig {
    MonitorConfig { window: Duration::from_millis(window_ms), ..MonitorConfig::default() }
}

// ---------------------------------------------------------------------------
// cep_throughput
// ---------------------------------------------------------------------------

/// One engine running ten Table 6 rules (the window grid cycled) under
/// all three evaluation modes, plus one single-source grouped aggregate
/// over its own panes isolating what pane accumulators save over a rescan.
/// `shared` (threshold-stream retrieval) and `static` (the same rules
/// under one static threshold, no threshold join) run the sharing planner
/// (batch-installed rules collapse into clusters served from accumulator
/// banks and the keyed threshold index); `incremental` and `rescan` run
/// each threshold-stream rule privately.
fn cep_throughput(size: Size) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "cep_throughput",
        "one engine, 10 Table-6 rules (windows 1/10/100/1000 cycled), 480 thresholds, \
         threshold-stream retrieval (static = one static threshold instead); \
         single = one avg+stddev statement over std:groupwin(location).win:length(100)",
    );
    let windows: Vec<usize> = (0..10).map(|i| [1usize, 10, 100, 1000][i % 4]).collect();
    // The private modes cost ~200x the shared one per tuple, and no live
    // bar reads them.
    let arms = [
        ("shared", RetrievalMethod::ThresholdStream, EngineMode::Shared, 1),
        ("static", RetrievalMethod::StaticOptimal(1.0e9), EngineMode::Shared, 1),
        ("incremental", RetrievalMethod::ThresholdStream, EngineMode::Incremental, 100),
        ("rescan", RetrievalMethod::ThresholdStream, EngineMode::Rescan, 100),
    ];
    // Per arm: tuples per trial, per-trial ms/tuple, per-trial tuples/s.
    let mut trials = Vec::new();
    for (name, method, mode, slowdown) in &arms[..if size.full { 4 } else { 2 }] {
        let mut engine = WarmEngine::new(&windows, 480, method.clone(), *mode);
        let (n, secs) = timed_trials(size, size.n / slowdown, |n| engine.run(n as usize));
        let ms: Vec<f64> = secs.iter().map(|s| s * 1000.0 / n as f64).collect();
        result.rows.push(Row::timed(format!("{name}.ms_per_tuple"), "ms", n, &ms));
        let per_sec = rates(n, &secs);
        result.rows.push(Row::timed(format!("{name}.events_per_sec"), "1/s", n, &per_sec));
        trials.push((n, ms, per_sec));
    }
    let static_over_shared = paired(&trials[1].1, &trials[0].1, |st, shared| st / shared);
    result.rows.push(Row::timed("static_over_shared", "ratio", trials[1].0, &static_over_shared));
    if size.full {
        let speedup = paired(&trials[0].2, &trials[2].2, |shared, inc| shared / inc);
        result.rows.push(Row::timed(
            "sharing_speedup_over_incremental",
            "ratio",
            trials[0].0,
            &speedup,
        ));
        let mut single = Vec::new();
        for (name, incremental, slowdown) in [("incremental", true, 1), ("rescan", false, 200)] {
            let mut statement = WarmStatement::new(incremental);
            let (n, secs) =
                timed_trials(size, size.n * 25 / slowdown, |n| statement.run(n as usize));
            let per_sec = rates(n, &secs);
            let key = format!("single.{name}.events_per_sec");
            result.rows.push(Row::timed(key, "1/s", n, &per_sec));
            single.push((n, per_sec));
        }
        let speedup = paired(&single[0].1, &single[1].1, |inc, scan| inc / scan);
        result.rows.push(Row::timed("single.speedup", "ratio", single[0].0, &speedup));
    }
    result
}

/// The two bank-served arms must stay within 2x of their committed
/// ms/tuple, rules without a threshold join within 2x of the
/// threshold-stream ones (ROADMAP item 2's "unshared within 2x of shared"),
/// and the pane-served single statement at least 10x its rescan.
fn cep_throughput_bars() -> Vec<Bar> {
    vec![
        Bar::max("shared.ms_per_tuple", 2.0, Side::LiveOverCommitted),
        Bar::max("static.ms_per_tuple", 2.0, Side::LiveOverCommitted),
        Bar::max("static_over_shared", 2.0, Side::Committed),
        Bar::min("single.speedup", 10.0, Side::Committed),
    ]
}

// ---------------------------------------------------------------------------
// dsps_throughput
// ---------------------------------------------------------------------------

/// Source tuples/second through a 1-spout → 4-sink topology, one row per
/// grouping × reliability setting. The all-grouping rows amplify every
/// emission 4× (`Arc`-shared fan-out). The one hop starts at a spout,
/// whose turn is a single `next()`, so every delivery is its own packet:
/// this prices the hand-off, not the batching a backlog behind a bolt gets.
fn dsps_throughput(size: Size) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "dsps_throughput",
        "1 spout task -> 4 sink tasks; a spout flushes per next(), so one packet per delivery",
    );
    for g in ["shuffle", "fields", "all"] {
        for (rel, reliability) in
            [("at_most_once", None), ("at_least_once", Some(ReliabilityConfig::default()))]
        {
            let key = format!("{g}.{rel}.tuples_per_sec");
            if !size.full && !DSPS_GUARDED_ROWS.contains(&key.as_str()) {
                continue;
            }
            let cfg = RuntimeConfig { reliability, ..RuntimeConfig::default() };
            let (n, secs) = timed_trials(size, size.n, |n| sink_topology_secs(n, g, cfg.clone()));
            result.rows.push(Row::timed(key, "1/s", n, &rates(n, &secs)));
        }
    }
    result
}

/// The cheapest and the dearest hand-off.
const DSPS_GUARDED_ROWS: [&str; 2] =
    ["shuffle.at_most_once.tuples_per_sec", "all.at_least_once.tuples_per_sec"];

/// Live, each guarded row must stay above half its committed rate.
fn dsps_throughput_bars() -> Vec<Bar> {
    DSPS_GUARDED_ROWS.iter().map(|row| Bar::min(row, 0.5, Side::LiveOverCommitted)).collect()
}

// ---------------------------------------------------------------------------
// trace_overhead
// ---------------------------------------------------------------------------

/// The tuple-lineage tracing tax on the `dsps_throughput` shuffle
/// workload. Four modes: the monitor off entirely (no gauge, no trace
/// context — the baseline), the monitor on with lineage off (its queue
/// gauges must sit within noise of the baseline), the default 1% sample,
/// and sample-everything.
fn trace_overhead(size: Size) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "trace_overhead",
        "1 spout task -> 4 sink tasks, shuffle, at-most-once, modes interleaved per trial; \
         baseline = monitor off, other modes run the monitor thread and its queue gauges",
    );
    let monitor = |lineage| {
        Some(MonitorConfig {
            // A window far longer than the run: the monitor thread is
            // alive (draining span rings) but never samples mid-run.
            window: Duration::from_secs(3600),
            lineage,
            ..MonitorConfig::default()
        })
    };
    let modes = [
        ("off", monitor(None)),
        ("sampled", monitor(Some(LineageConfig::default()))),
        ("baseline", None),
        // Big rings: sample-everything at full throughput outruns the
        // monitor's drain cadence with the default 4096 slots.
        ("full", monitor(Some(LineageConfig { ring_capacity: 1 << 16, ..LineageConfig::full() }))),
    ];
    // No live bar reads the baseline or sample-everything.
    let modes = &modes[..if size.full { 4 } else { 2 }];
    let run = |n, monitor| {
        sink_topology_secs(n, "shuffle", RuntimeConfig { monitor, ..RuntimeConfig::default() })
    };
    let n = trial_size(size, size.n, |n| run(n, modes[0].1));
    // Interleave the modes round-robin: scheduler noise (this often runs
    // on a heavily shared box) then hits every mode alike instead of
    // biasing whichever ran during a spike.
    let mut tps = vec![Vec::new(); modes.len()];
    for _ in 0..size.trials {
        for (i, (_, monitor)) in modes.iter().enumerate() {
            tps[i].push(n as f64 / run(n, *monitor));
        }
    }
    for ((name, _), tps) in modes.iter().zip(&tps) {
        result.rows.push(Row::timed(format!("{name}.tuples_per_sec"), "1/s", n, tps));
    }
    let overhead_pct = |with: &[f64]| paired(&tps[0], with, |off, with| (off / with - 1.0) * 100.0);
    result.rows.push(Row::timed("sampled.overhead_pct", "%", n, &overhead_pct(&tps[1])));
    let sampled_over_off = paired(&tps[1], &tps[0], |sampled, off| sampled / off);
    result.rows.push(Row::timed("sampled_over_off", "ratio", n, &sampled_over_off));
    if size.full {
        result.rows.push(Row::timed("full.overhead_pct", "%", n, &overhead_pct(&tps[3])));
        let off_vs_baseline = paired(&tps[0], &tps[2], |off, bare| (off / bare - 1.0) * 100.0);
        result.rows.push(Row::timed("off_vs_baseline_pct", "%", n, &off_vs_baseline));
    }
    result
}

/// The committed numbers must show a <=10% tax for the default sample and
/// a lineage-off data plane within 10% of the monitor-off baseline; live,
/// the sampled hot path must stay above half the lineage-off throughput
/// and lineage-off above half its committed throughput.
fn trace_overhead_bars() -> Vec<Bar> {
    vec![
        Bar::max("sampled.overhead_pct", 10.0, Side::Committed),
        Bar::max("off_vs_baseline_pct", 10.0, Side::Committed),
        Bar::min("off_vs_baseline_pct", -10.0, Side::Committed),
        Bar::min("sampled_over_off", 0.5, Side::Live),
        Bar::min("off.tuples_per_sec", 0.5, Side::LiveOverCommitted),
    ]
}

// ---------------------------------------------------------------------------
// rebalance
// ---------------------------------------------------------------------------

/// Post-rebalance imbalance the elastic acceptance scenario plans under.
const IMBALANCE_BOUND: f64 = 1.5;

/// The elastic acceptance scenario: a start-up plan balanced against a
/// uniform history, then a live stream concentrating 80% of the traffic
/// on regions the plan routed to engine 0. The rebalancer must migrate
/// partitions between the two live engines and plan the load back under
/// [`IMBALANCE_BOUND`] (see `crates/dsps/tests/elastic.rs` for the test
/// twin). One trial's samples.
fn hotspot_rebalance_run(replay: &Replay) -> Vec<Sample> {
    use tms_core::topology::TopologyParallelism;
    let config = SystemConfig {
        parallelism: TopologyParallelism {
            spout_tasks: 1,
            preprocess_tasks: 1,
            tracker_tasks: 1,
            splitter_tasks: 1,
            esper_tasks: 1,
        },
        elastic: Some(tms_core::ElasticConfig {
            // A tight cadence relative to the replay speed: the stream
            // drains in about a second under the release build, and
            // convergence is only recorded by a post-migration cycle that
            // still sees live traffic.
            imbalance_bound: IMBALANCE_BOUND,
            check_interval: Duration::from_millis(15),
            cooldown: Duration::from_millis(45),
            drain_timeout: Duration::from_secs(2),
            max_moves_per_cycle: 8,
            min_observed: 100,
        }),
        ..SystemConfig::default()
    };
    let sys = replay.bootstrap(config);
    let mut rule = RuleSpec::new(
        "rebalance-leaves",
        Attribute::Delay,
        LocationSelector::QuadtreeLeaves,
        10,
    );
    rule.s = 0.5;
    let plan = sys.startup_plan(std::slice::from_ref(&rule), 2).expect("start-up plan");

    // The hotspot: up to four regions the plan routed to engine 0, hit
    // through a GPS point at each region's bbox center.
    let quadtree = &sys.artifacts.spatial.quadtree;
    let route = &plan.split_plan.routes[0];
    // In the order of the ids' text, which is how the snapshot was taken.
    let mut hot: Vec<String> =
        route.table.iter().filter(|(_, &e)| e == 0).map(|(r, _)| r.to_string()).collect();
    hot.sort();
    hot.truncate(4);
    let targets: Vec<tms_geo::GeoPoint> = hot
        .iter()
        .filter_map(|r| match r.parse().ok()? {
            LocId::Region(id) => Some(quadtree.region(tms_geo::RegionId(id))?.bbox.center()),
            LocId::Stop(_) => None,
        })
        .collect();
    assert!(targets.len() >= 2, "need at least two movable hot regions");
    let spec = tms_sim::HotspotSpec {
        hot_share: 0.8,
        hot_regions: targets.len(),
        total_rate: 1000.0,
    };

    // Theoretical pre-migration imbalance: the skewed per-region rates
    // summed per engine under the original routing table.
    let mut ordered: Vec<String> = hot.clone();
    for r in route.table.keys().map(LocId::to_string) {
        if !hot.contains(&r) {
            ordered.push(r);
        }
    }
    let mut per_engine = vec![0.0f64; 2];
    for rr in spec.region_rates(&ordered) {
        if let Some(&e) = rr.region.parse().ok().and_then(|r: LocId| route.table.get(&r)) {
            per_engine[e] += rr.rate;
        }
    }
    let pre_imbalance = tms_core::partitioning::Partition {
        assignments: vec![Vec::new(); 2],
        rates: per_engine,
    }
    .imbalance();

    let slots = targets.len() + 1; // the extra slot keeps the original position
    let live: Vec<BusTrace> = replay
        .live
        .iter()
        .enumerate()
        .map(|(i, &(mut t))| {
            let slot = spec.pick(i, slots);
            if slot < targets.len() {
                t.position = targets[slot];
            }
            t
        })
        .collect();
    let n = live.len() as u64;
    let t0 = Instant::now();
    let report = sys.run(live, &plan, None).expect("elastic run");
    let wall_s = t0.elapsed().as_secs_f64();
    let s = report.elastic.expect("elastic runs report migration stats");
    let cycles = s.cycles_to_converge.map_or(f64::NAN, |c| c as f64);
    vec![
        Sample::at_least("migrations_completed", "count", n, s.completed as f64),
        Sample::at_most("migrations_aborted", "count", n, s.aborted as f64),
        Sample::at_least("rebalance_decisions", "count", n, s.decisions as f64),
        Sample::at_most("post_imbalance", "ratio", n, s.post_imbalance),
        Sample::timed("pre_imbalance", "ratio", n, pre_imbalance),
        Sample::timed("observed_imbalance", "ratio", n, s.observed_imbalance),
        Sample::timed("pause_last_ms", "ms", s.completed, s.last_pause_ms),
        Sample::timed("pause_max_ms", "ms", s.completed, s.max_pause_ms),
        Sample::at_most("cycles_to_converge", "count", n, cycles),
        Sample::at_least("detections", "count", n, report.detections.len() as f64),
        Sample::timed("wall_s", "s", n, wall_s),
    ]
}

fn rebalance(size: Size) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "rebalance",
        "small fleet, 1 QuadtreeLeaves rule on 2 engines, 80% of the live stream on up to 4 \
         engine-0 regions; rebalancer at 15ms cadence",
    );
    let replay = Replay::new(size.n);
    let trials: Vec<_> = (0..size.trials).map(|_| hotspot_rebalance_run(&replay)).collect();
    result.rows = fold_trials(&trials);
    result
}

/// Committed and live: at least one migration completes and the
/// re-planned imbalance lands under the bound (NaN fails).
fn rebalance_bars() -> Vec<Bar> {
    vec![
        Bar::min("migrations_completed", 1.0, Side::Both),
        Bar::max("post_imbalance", IMBALANCE_BOUND, Side::Both),
    ]
}

// ---------------------------------------------------------------------------
// latency_drift
// ---------------------------------------------------------------------------

/// A chaos-enabled live run (the `light_chaos` acceptance scenario) under
/// a monitor: completion-latency percentiles at the spout and the
/// per-window predicted-vs-observed Esper latency drift (the Figure 7
/// model against the real engines; the last trial's windows are kept as
/// series). Every trial also runs the same workload with no monitor, so
/// the wall-clock delta is the instrumentation cost.
fn latency_drift(size: Size) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "latency_drift",
        "small fleet, 2 Delay rules on 3 engines under 1% panics + 1% drops with at-least-once \
         recovery; traced = monitor sampling 500ms windows (gauges, rule profiles, acked-root e2e)",
    );
    let replay = Replay::new(size.n);
    let rules = delay_rules("drift");
    let (fault, recovery) = light_chaos();
    let run = |monitor: Option<MonitorConfig>| {
        let sys = replay.bootstrap(SystemConfig {
            monitor,
            reliability: Some(recovery),
            chaos: Some(fault),
            ..SystemConfig::default()
        });
        let t = Instant::now();
        let (_, report) = sys.plan_and_run(replay.live.clone(), &rules, 3).expect("chaos run");
        (t.elapsed().as_secs_f64(), report)
    };
    let n = replay.live.len() as u64;
    let mut trials = Vec::new();
    for _ in 0..size.trials {
        let (base_s, _) = run(None);
        let (traced_s, report) = run(Some(monitor_every(500)));
        let windows = report.drift.len() as u64;
        let mean = |f: fn(&tms_core::system::DriftSample) -> f64| {
            report.drift.iter().map(f).sum::<f64>() / windows as f64
        };
        let mut samples = vec![
            Sample::timed("baseline.wall_s", "s", n, base_s),
            Sample::timed("traced.wall_s", "s", n, traced_s),
            Sample::timed("tracing_overhead_pct", "%", n, (traced_s / base_s - 1.0) * 100.0),
            Sample::at_least("drift.windows", "count", n, windows as f64),
            Sample::timed("drift.observed_ms", "ms", windows, mean(|d| d.observed_ms)),
            Sample::timed("drift.predicted_ms", "ms", windows, mean(|d| d.predicted_ms)),
            Sample::timed("drift.ratio", "ratio", windows, mean(|d| d.ratio)),
        ];
        let reader = report.metrics.iter().find(|w| w.component == "busReader");
        let e2e = reader.expect("spout totals present").e2e.clone();
        for (p, d) in [("p50", e2e.p50()), ("p95", e2e.p95()), ("p99", e2e.p99())] {
            let ms = d.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);
            samples.push(Sample::timed(format!("e2e.{p}_ms"), "ms", e2e.count(), ms));
        }
        trials.push(samples);
        result.series = ["observed_ms", "predicted_ms"].map(Series::new).into();
        for d in &report.drift {
            result.series[0].push(d.at_ms, d.observed_ms);
            result.series[1].push(d.at_ms, d.predicted_ms);
        }
    }
    result.rows = fold_trials(&trials);
    result
}

// ---------------------------------------------------------------------------
// cep_profile
// ---------------------------------------------------------------------------

/// A profiled quickstart-style run: the per-rule CEP cost, planner drift
/// against Algorithm 1 and the estimation model, and the
/// online-recalibration error deltas.
fn cep_profile(size: Size) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "cep_profile",
        "small fleet, 2 Delay rules on 3 engines, profiled at 500ms; per-rule cost from the \
         lifetime cumulative profiles, planner drift vs Algorithm 1 and the estimation model",
    );
    let replay = Replay::new(size.n);
    let rules = delay_rules("profile");
    let mut trials = Vec::new();
    for _ in 0..size.trials {
        let sys = replay.bootstrap(SystemConfig {
            monitor: Some(monitor_every(500)),
            ..SystemConfig::default()
        });
        let (_, report) = sys.plan_and_run(replay.live.clone(), &rules, 3).expect("profiled run");
        let esper = report
            .metrics
            .iter()
            .find(|w| w.component == "esper")
            .expect("esper totals present");
        let planner = report.planner.as_ref().expect("profiling runs produce a planner report");
        let profiled_windows = report
            .history
            .iter()
            .filter(|w| w.component == "esper" && !w.rules.is_empty())
            .count();
        let n = replay.live.len() as u64;
        let mut samples = vec![
            Sample::at_least("profiled_windows", "count", n, profiled_windows as f64),
            Sample::timed("imbalance_planned", "ratio", n, planner.imbalance_planned),
            Sample::timed("imbalance_observed", "ratio", n, planner.imbalance_observed),
        ];
        for r in &esper.rules {
            let key = |what: &str| format!("{}.e{}.{what}", r.rule, r.engine);
            let us = |d: Option<Duration>| d.map_or(f64::NAN, |d| d.as_secs_f64() * 1e6);
            samples.push(Sample::timed(key("mean_eval_us"), "us", r.evals, us(r.eval.mean())));
            samples.push(Sample::timed(key("p95_eval_us"), "us", r.evals, us(r.eval.p95())));
            samples.push(Sample::at_least(key("firings"), "count", r.evals, r.firings as f64));
            let off_shared = r.path_incremental + r.path_anchor + r.path_rescan;
            samples.push(Sample::at_most(key("evals_off_shared_path"), "count", r.evals, off_shared as f64));
        }
        for e in &planner.engines {
            let key = |what: &str| format!("engine{}.{what}", e.engine);
            samples.push(Sample::timed(key("planned_rate"), "1/s", n, e.planned_rate));
            samples.push(Sample::timed(key("observed_rate"), "1/s", n, e.observed_rate));
            samples.push(Sample::timed(key("predicted_latency_ms"), "ms", n, e.predicted_latency_ms));
            samples.push(Sample::timed(key("observed_latency_ms"), "ms", n, e.observed_latency_ms));
        }
        if let Some(c) = &planner.calibration {
            let n = c.samples as u64;
            samples.push(Sample::timed("calibration.mae_before_ms", "ms", n, c.mae_before_ms));
            samples.push(Sample::timed("calibration.mae_after_ms", "ms", n, c.mae_after_ms));
        }
        trials.push(samples);
    }
    result.rows = fold_trials(&trials);
    result
}

// ---------------------------------------------------------------------------
// staleness
// ---------------------------------------------------------------------------

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the quickstart workload under a monitor (which profiles the rules)
/// and harvests the sampled per-rule threshold ages (wall-clock ms).
/// `kappa` switches between the in-stream path (the Splitter's fold) and
/// the batch ablation (thresholds computed once by the offline job at
/// bootstrap, never refreshed mid-run — exactly the Lambda deployment
/// between two batch rounds). One trial's samples, keyed under `path`.
fn staleness_run(
    replay: &Replay,
    path: &str,
    kappa: Option<tms_core::kappa::KappaConfig>,
) -> Vec<Sample> {
    let sys = replay.bootstrap(SystemConfig {
        monitor: Some(monitor_every(100)),
        kappa,
        ..SystemConfig::default()
    });
    let t0 = Instant::now();
    let (_, report) =
        sys.plan_and_run(replay.live.clone(), &delay_rules("stale"), 2).expect("profiled run");
    let wall_s = t0.elapsed().as_secs_f64();
    let mut ages_ms: Vec<f64> = report
        .history
        .iter()
        .filter(|w| w.component == "esper")
        .flat_map(|w| w.rules.iter())
        .filter_map(|r| r.threshold_age)
        .map(|a| a.as_secs_f64() * 1e3)
        .collect();
    ages_ms.sort_by(f64::total_cmp);
    let n = ages_ms.len() as u64;
    let p99 = percentile(&ages_ms, 99.0);
    let mut samples = vec![
        Sample::at_least(format!("{path}.samples"), "count", n, n as f64),
        Sample::timed(format!("{path}.p50_ms"), "ms", n, percentile(&ages_ms, 50.0)),
        Sample::timed(format!("{path}.p99_ms"), "ms", n, p99),
        Sample::at_least(format!("{path}.detections"), "count", n, report.detections.len() as f64),
    ];
    if kappa.is_none() {
        // The replay compresses hours of stream into `wall_s` seconds; in
        // deployment the ablation accrues age at stream speed.
        let stream_span_ms = replay.live.last().map_or(0, |t| t.timestamp_ms)
            - replay.live.first().map_or(0, |t| t.timestamp_ms);
        let compression = stream_span_ms as f64 / (wall_s * 1e3);
        samples.push(Sample::timed(format!("{path}.wall_to_stream_compression"), "ratio", n, compression));
        let minutes = p99 * compression / 60_000.0;
        samples.push(Sample::timed(format!("{path}.p99_stream_minutes"), "min", n, minutes));
    }
    samples
}

/// The same profiled live run twice — the Splitter's in-stream refreshes vs
/// the batch ablation — with the sampled `threshold_age` percentiles side
/// by side. The ablation's ages only ever grow between batch rounds, so
/// they are also projected onto stream (deployment) time via the replay's
/// compression factor; the kappa ages are genuine wall-clock staleness,
/// bounded by the refresh cadence at any replay speed.
fn staleness(size: Size) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "staleness",
        "small fleet, 2 Delay rules on 2 engines, profiled at 100ms; kappa = refresh folded in the \
         splitter every 256 tuples, batch_ablation = offline thresholds never refreshed mid-run",
    );
    let replay = Replay::new(size.n);
    let kappa = tms_core::kappa::KappaConfig { refresh_every: 256, ..Default::default() };
    let mut trials = Vec::new();
    for _ in 0..size.trials {
        let mut samples = staleness_run(&replay, "kappa", Some(kappa));
        // No live bar reads the ablation.
        if size.full {
            samples.extend(staleness_run(&replay, "batch_ablation", None));
        }
        trials.push(samples);
    }
    result.rows = fold_trials(&trials);
    result
}

/// The committed kappa p99 threshold age stays under 100 ms while the
/// ablation's projected staleness reaches batch-period minutes; a live
/// kappa re-run gets 2x headroom (CI machines are noisier than the box
/// that wrote the snapshot, but a kappa path that lost its in-stream
/// refresh overshoots this by orders of magnitude).
fn staleness_bars() -> Vec<Bar> {
    vec![
        Bar::max("kappa.p99_ms", 100.0, Side::Committed),
        Bar::min("batch_ablation.p99_stream_minutes", 1.0, Side::Committed),
        Bar::max("kappa.p99_ms", 200.0, Side::Live),
        Bar::min("kappa.samples", 1.0, Side::Both),
    ]
}

// ---------------------------------------------------------------------------
// geo_lookup
// ---------------------------------------------------------------------------

/// Live positions a `geo_lookup` trial asks about (a full-size trial
/// cycles through them).
const LOOKUP_QUERIES: u64 = 64_000;

/// The pipeline benchmark's city (`benchmark/src/input.rs`: 200 buses on
/// 15 lines, fleet seed 2015, stops recovered from day 0 06:00-09:00) and
/// the first `queries` positions a weekday reports from 06:00 on.
struct LookupCity {
    stops: BusStopIndex,
    queries: Vec<BusTrace>,
}

impl LookupCity {
    fn new(queries: usize) -> LookupCity {
        let fleet = FleetConfig { buses: 200, lines: 15, seed: 2015, ..FleetConfig::default() };
        let from_six = |day: u32| {
            let start = u64::from(day) * tms_traffic::DAY_MS + 6 * tms_traffic::HOUR_MS;
            FleetGenerator::new(fleet.clone(), day)
                .expect("fleet config is valid")
                .skip_while(move |t| t.timestamp_ms < start)
        };
        let history: Vec<BusTrace> =
            from_six(0).take_while(|t| t.timestamp_ms < 9 * tms_traffic::HOUR_MS).collect();
        let config = OfflineConfig::default();
        let stops = BusStopIndex::build(
            &offline::stop_observations(&history),
            config.denclue,
            config.subcluster,
        )
        .expect("the history reports stops");
        LookupCity { stops, queries: from_six(1).take(queries).collect() }
    }
}

/// The lookup's definition, as the scan it was until PR 19: the stops
/// serving each (line, direction) in stop order, and all of them for a
/// line nothing serves.
struct StopScan<'a> {
    by_line_dir: HashMap<(u32, bool), Vec<&'a BusStop>>,
    all: Vec<&'a BusStop>,
}

impl<'a> StopScan<'a> {
    fn of(stops: &'a BusStopIndex) -> StopScan<'a> {
        let mut by_line_dir: HashMap<(u32, bool), Vec<&BusStop>> = HashMap::new();
        for stop in stops.stops() {
            for &key in &stop.serving {
                by_line_dir.entry(key).or_default().push(stop);
            }
        }
        StopScan { by_line_dir, all: stops.stops().iter().collect() }
    }

    /// Id of the first nearest candidate; one distance per candidate.
    fn closest(&self, t: &BusTrace) -> Option<u32> {
        let candidates = self.by_line_dir.get(&(t.line_id, t.direction)).unwrap_or(&self.all);
        candidates
            .iter()
            .map(|s| (t.position.approx_dist2(&s.location), s.id))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, id)| id)
    }
}

/// `BusStopIndex::closest_stop` against the linear scan it replaced, on
/// the pipeline benchmark's city: cost per lookup of each, their ratio,
/// and on how many of the queries the two name different stops.
fn geo_lookup(size: Size) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "geo_lookup",
        "nearest recovered stop of a weekday's live positions on the pipeline benchmark's city \
         (200 buses, 15 lines, fleet seed 2015); scan = first min over the (line, direction) list",
    );
    let city = LookupCity::new(size.n as usize);
    let scan = StopScan::of(&city.stops);
    let by_index = |t: &BusTrace| {
        city.stops.closest_stop(t.line_id, t.direction, &t.position).map(|s| s.id)
    };
    let by_scan = |t: &BusTrace| scan.closest(t);
    // Per arm: lookups per trial (cycling through the queries) and the
    // trials' ns per lookup.
    let arm = |lookup: &dyn Fn(&BusTrace) -> Option<u32>| {
        let (n, secs) = timed_trials(size, size.n, |n| {
            let started = Instant::now();
            let mut ids = 0u64;
            for t in city.queries.iter().cycle().take(n as usize) {
                ids += lookup(std::hint::black_box(t)).map_or(0, u64::from);
            }
            std::hint::black_box(ids);
            started.elapsed().as_secs_f64()
        });
        (n, secs.iter().map(|s| s * 1e9 / n as f64).collect::<Vec<f64>>())
    };
    let (index_n, index_ns) = arm(&by_index);
    let (scan_n, scan_ns) = arm(&by_scan);
    result.rows.push(Row::timed("index.ns_per_lookup", "ns", index_n, &index_ns));
    result.rows.push(Row::timed("scan.ns_per_lookup", "ns", scan_n, &scan_ns));
    let ratio = paired(&scan_ns, &index_ns, |scan, index| scan / index);
    result.rows.push(Row::timed("scan_over_index", "ratio", scan_n, &ratio));
    let mismatches = city.queries.iter().filter(|t| by_index(t) != by_scan(t)).count();
    let asked = city.queries.len() as u64;
    result.rows.push(Row::worst("mismatches", "count", asked, &[mismatches as f64], f64::max));
    result
}

/// The index names the scan's stop on every query, answers at least 4x
/// faster than the scan on the committed box (11x when taken, 9.7-11.2x
/// over five takes; the bar leaves room for the box's crowded regime),
/// and a live lookup stays within 2x of the committed one.
fn geo_lookup_bars() -> Vec<Bar> {
    vec![
        Bar::max("mismatches", 0.0, Side::Both),
        Bar::min("scan_over_index", 4.0, Side::Committed),
        Bar::max("index.ns_per_lookup", 2.0, Side::LiveOverCommitted),
    ]
}

// ---------------------------------------------------------------------------
// Simulator-backed figures (11–17)
// ---------------------------------------------------------------------------

/// The paper feeds 60 000 bus traces per second (Section 5).
const STREAM_RATE: f64 = 60_000.0;

/// Tuples per latency measurement of the calibration.
const CALIBRATION_TUPLES: usize = 500;

/// The latency model Figures 11–17 are drawn from, and the real-engine
/// measurements Functions 1 and 2 were fitted to.
struct Calibration {
    model: EstimationModel,
    /// Single-rule latency (ms) at 480 thresholds, per window length.
    singles: Vec<(usize, f64)>,
    /// Function 2's samples: two single-rule latencies and their
    /// two-rule engine's latency (ms), for every ordered pair of windows.
    f2: Vec<(Vec<f64>, f64)>,
}

/// The calibration, measured once per process (~a minute): Functions 1
/// and 2 fitted from real engine measurements, Function 3 the default
/// contention shape.
fn calibration() -> &'static Calibration {
    static CALIBRATION: std::sync::OnceLock<Calibration> = std::sync::OnceLock::new();
    CALIBRATION.get_or_init(calibrate)
}

fn calibrate() -> Calibration {
    println!("(calibrating the latency model against the real CEP engine...)");
    let windows = [1usize, 10, 100, 1000];
    let tcounts = [48usize, 480, 2400];
    let tuples = CALIBRATION_TUPLES;
    let mut f1 = Vec::new();
    for &l in &windows {
        for &t in &tcounts {
            f1.push((vec![l as f64, t as f64], measure_rule_latency(l, t, tuples)));
        }
    }
    let singles: Vec<(usize, f64)> =
        windows.iter().map(|&l| (l, measure_rule_latency(l, 480, tuples))).collect();
    let mut f2 = Vec::new();
    for &(l1, latency1) in &singles {
        for &(l2, latency2) in &singles {
            f2.push((vec![latency1, latency2], measure_engine_latency(&[l1, l2], 480, tuples)));
        }
    }
    let default = EstimationModel::default_paper_shaped();
    let mut f1_model = PolyModel::fit(&f1, 1).expect("f1 fit");
    let mut f2_model = PolyModel::fit(&f2, 1).expect("f2 fit");
    // Stability guard for Function 2: the model is applied as a
    // *sequential fold* over an engine's rules (the paper's usage), so a
    // slope above ~1 compounds exponentially with the rule count. Our
    // engine is near-additive (engine ≈ latency1 + latency2); clamp the
    // fitted slopes into [0, 1.25] and refit the intercept so one noisy
    // grid point cannot blow the fold up.
    for c in &mut f2_model.coefficients[1..] {
        *c = c.clamp(0.0, 1.25);
    }
    let c = &f2_model.coefficients;
    let residual: f64 = f2.iter().map(|(x, y)| y - c[1] * x[0] - c[2] * x[1]).sum();
    f2_model.coefficients[0] = residual / f2.len() as f64;
    // Intercept floor correction: an OLS line over a range spanning three
    // orders of magnitude (l = 1..1000) can go negative at the small end,
    // which would credit cheap rules with *zero* cost and let the fold
    // collapse. Shift each intercept up just enough that the smallest
    // calibration point predicts at least its measured latency.
    for (model, samples) in [(&mut f1_model, &f1), (&mut f2_model, &f2)] {
        let (min_x, min_y) = samples
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(x, y)| (x.clone(), *y))
            .expect("calibration samples exist");
        let predicted = model.predict(&min_x).expect("predict in range");
        if predicted < min_y {
            model.coefficients[0] += min_y - predicted;
        }
    }
    let model = EstimationModel { f1: f1_model, f2: f2_model, f3: default.f3 };
    Calibration { model, singles, f2 }
}

/// Layer groupings for the allocation experiments: two quadtree layers
/// plus the bus stops, every grouping seeing the full stream.
fn layer_groupings(windows: &[usize]) -> Vec<Grouping> {
    [
        ("layer-2", 2, LocationSelector::QuadtreeLayer(2), 16, "A", "l2"),
        ("layer-3", 3, LocationSelector::QuadtreeLayer(3), 64, "B", "l3"),
        ("bus-stops", 9, LocationSelector::BusStops, 192, "S", "st"),
    ]
    .into_iter()
    .map(|(name, layer, loc, regions, prefix, tag)| Grouping {
        name: name.into(),
        layers: vec![layer],
        rules: (windows.iter().enumerate())
            .map(|(i, &w)| RuleSpec::new(format!("{tag}-w{w}-{i}"), Attribute::Delay, loc.clone(), w))
            .collect(),
        regions: (0..regions)
            .map(|i| RegionRate { region: format!("{prefix}{i}"), rate: STREAM_RATE / regions as f64 })
            .collect(),
        thresholds: vec![regions * 48; windows.len()],
    })
    .collect()
}

/// Useful throughput (tuples per 40 s window) of an allocation on 7
/// single-core nodes: the slowest grouping's, as every grouping sees every tuple.
fn simulate_allocation(groupings: &[Grouping], engines_per_grouping: &[usize]) -> f64 {
    let allocation = tms_core::allocation::Allocation {
        engines: engines_per_grouping.to_vec(),
        scores: vec![0.0; engines_per_grouping.len()],
    };
    let engines =
        ScenarioBuilder::allocation(groupings, &allocation, &calibration().model, 48)
            .expect("scenario builds");
    let report = simulate(&engines, SimConfig { nodes: 7, cores_per_node: 1, ..SimConfig::default() })
        .expect("simulation runs");
    let ranges = engines_per_grouping.iter().scan(0, |end, &k| {
        *end += k;
        Some(*end - k..*end)
    });
    ranges.map(|range| report.engines[range].iter().map(|e| e.throughput).sum::<f64>())
        .fold(f64::INFINITY, f64::min)
        * 40.0
}

/// Merges consecutive layer groups per the contiguous-partition mask
/// (bit i set = split after group i), mirroring
/// `tms_core::allocation::best_grouping_allocation`'s candidate space.
fn merge_by_mask(layer_groups: &[Grouping], mask: u32) -> Vec<Grouping> {
    let mut out: Vec<Grouping> = Vec::new();
    for (i, lg) in layer_groups.iter().enumerate() {
        match out.last_mut() {
            Some(c) if (mask >> (i - 1)) & 1 == 0 => {
                c.layers.extend(lg.layers.iter().copied());
                c.rules.extend(lg.rules.iter().cloned());
                c.thresholds.extend(lg.thresholds.iter().copied());
                c.name = format!("{}+{}", c.name, lg.name);
            }
            _ => out.push(lg.clone()),
        }
    }
    out
}

/// The smallest `a / b` over the sweep points from engine count `from` on,
/// as a shape row read over those points.
fn min_ratio(key: &str, a: &Series, b: &Series, from: f64) -> Row {
    let points = a.x.iter().zip(&a.y).zip(&b.y).filter(|((x, _), _)| **x >= from);
    let ratios: Vec<f64> = points.map(|((_, a), b)| a / b).collect();
    let min = ratios.iter().copied().reduce(f64::min).unwrap_or(f64::NAN);
    shape(key, "ratio", ratios.len() as u64, min)
}

/// Figure 11: useful throughput over 3..=30 engines for two workloads.
/// "proposed" is the start-up optimizer: every candidate grouping of the
/// three layer groups, each under Algorithm 2's greedy allocation and
/// under the even split, scored through the simulator (which embodies
/// Function 3's co-location), best kept. The all-split candidate's even
/// split *is* round-robin, so proposed ≥ round-robin holds by
/// construction. "greedy" is Algorithm 2's allocation alone (its best
/// candidate): the cost signal the allocation is only as good as.
fn fig11(_: Size) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig11",
        "Figure 11: rules allocation, tuples per 40 s window on 7 simulated nodes at 60k tuples/s; \
         Workload 1 = windows 1/10/100, Workload 2 = 100/1000, over two quadtree layers and the \
         bus stops",
    );
    let model = &calibration().model;
    let workloads = [("w1", "Workload 1", vec![1, 10, 100]), ("w2", "Workload 2", vec![100, 1000])];
    for (key, name, windows) in workloads {
        let layer_groups = layer_groupings(&windows);
        let [mut proposed, mut greedy, mut rr] =
            ["proposed", "greedy", "round-robin"].map(|c| Series::new(format!("{c} {name}")));
        for n in (3..=30).step_by(3) {
            let (mut best, mut best_greedy) = (0.0f64, 0.0f64);
            for mask in 0..(1u32 << (layer_groups.len() - 1)) {
                let candidate = merge_by_mask(&layer_groups, mask);
                if n < candidate.len() {
                    continue;
                }
                let by_greedy = allocate(model, &candidate, n).expect("allocation").engines;
                let even = round_robin(&candidate, n).expect("even split").engines;
                let greedy_tp = simulate_allocation(&candidate, &by_greedy);
                best_greedy = best_greedy.max(greedy_tp);
                best = best.max(greedy_tp).max(simulate_allocation(&candidate, &even));
            }
            let even = round_robin(&layer_groups, n).expect("round robin");
            proposed.push(n as f64, best);
            greedy.push(n as f64, best_greedy);
            rr.push(n as f64, simulate_allocation(&layer_groups, &even.engines));
        }
        for (curve, what) in [(&proposed, "proposed"), (&greedy, "greedy")] {
            result.rows.push(min_ratio(&format!("{key}.{what}_over_round_robin"), curve, &rr, 0.0));
        }
        result.series.extend([proposed, greedy, rr]);
    }
    result
}

/// Proposed never below round-robin (by construction: a harness check).
fn fig11_bars() -> Vec<Bar> {
    at_least(1.0, ["w1.proposed_over_round_robin", "w2.proposed_over_round_robin"])
}

/// The partitioning experiments' scenario: the stream spread evenly over
/// 64 regions, 48 threshold cells per location.
fn uniform_scenario() -> ScenarioBuilder {
    ScenarioBuilder {
        model: calibration().model.clone(),
        regions: (0..64)
            .map(|i| RegionRate { region: format!("R{i}"), rate: STREAM_RATE / 64.0 })
            .collect(),
        threshold_cells_per_location: 48,
    }
}

/// Latency (ms) and useful throughput (tuples / 40 s window) over 1..=15
/// engines on `nodes` single-core VMs, as two series called `name`.
fn sweep_engines(
    name: &str,
    builder: &ScenarioBuilder,
    approach: PartitioningApproach,
    rules: &[RuleSpec],
    nodes: usize,
) -> (Series, Series) {
    let (mut lat, mut tp) = (Series::new(name), Series::new(name));
    for n in 1..=15usize {
        let engines = builder.partitioning(approach, rules, n).expect("scenario");
        let report =
            simulate(&engines, SimConfig { nodes, cores_per_node: 1, ..SimConfig::default() })
                .expect("simulation");
        // All-grouping processes each tuple n times: its useful
        // throughput divides by n.
        let copies = if approach == PartitioningApproach::AllGrouping { n as f64 } else { 1.0 };
        lat.push(n as f64, report.avg_latency_ms);
        tp.push(n as f64, report.window_throughput / copies);
    }
    (lat, tp)
}

/// A latency figure and its throughput twin as one result, each sweep's
/// two series named `latency: <name>` and `throughput: <name>`; and the
/// throughput curves, in sweep order.
fn figure_pair(id: &str, title: &str, sweeps: Vec<(Series, Series)>) -> (ExperimentResult, Vec<Series>) {
    let mut result = ExperimentResult::new(id, title);
    let (latency, throughput): (Vec<Series>, Vec<Series>) = sweeps.into_iter().unzip();
    for (kind, series) in [("latency", &latency), ("throughput", &throughput)] {
        let named = |s: &Series| Series { name: format!("{kind}: {}", s.name), ..s.clone() };
        result.series.extend(series.iter().map(named));
    }
    (result, throughput)
}

/// The node count of the partitioning and scalability figures.
const NODES: usize = 7;

/// A floor of 1 on a ratio of simulated throughputs, less float rounding:
/// two curves saturated at the same bottleneck tie only up to it.
const TIE: f64 = 1.0 - 1e-9;

fn fig12_13(_: Size) -> ExperimentResult {
    // 10 rules with window length 100 (5 bus-stop + 5 quadtree in the
    // paper; the routing policies are what differ here).
    let leaves = |i| RuleSpec::new(format!("p-{i}"), Attribute::Delay, LocationSelector::QuadtreeLeaves, 100);
    let rules: Vec<RuleSpec> = (0..10).map(leaves).collect();
    let builder = uniform_scenario();
    let sweeps = [
        ("our approach", PartitioningApproach::Proposed),
        ("all grouping", PartitioningApproach::AllGrouping),
        ("all rules", PartitioningApproach::AllRules),
    ]
    .into_iter()
    .map(|(name, approach)| sweep_engines(name, &builder, approach, &rules, NODES))
    .collect();
    let (mut result, tp) = figure_pair(
        "fig12_13",
        "Figures 12/13: rules partitioning, 10 Delay rules (window 100) over 64 regions at 60k \
         tuples/s on 7 simulated nodes; latency (ms) and tuples per 40 s window over 1..15 engines",
        sweeps,
    );
    let (all_grouping, from) = (&tp[1].y, NODES as f64);
    let peak = all_grouping.iter().copied().fold(f64::NAN, f64::max);
    let last = all_grouping.last().copied().unwrap_or(f64::NAN);
    result.rows = vec![
        min_ratio("ours_over_all_grouping", &tp[0], &tp[1], from),
        min_ratio("ours_over_all_rules", &tp[0], &tp[2], from),
        shape("all_grouping.last_over_peak", "ratio", all_grouping.len() as u64, last / peak),
    ];
    result
}

/// From the node count on, ours at least matches both baselines; by 15
/// engines all-grouping's duplicated tuples pull it a tenth below its peak.
fn fig12_13_bars() -> Vec<Bar> {
    let decline = Bar::max("all_grouping.last_over_peak", 0.9, Side::Both);
    [at_least(TIE, ["ours_over_all_grouping", "ours_over_all_rules"]), vec![decline]].concat()
}

fn workload_rules(windows: &[usize]) -> Vec<RuleSpec> {
    // Ten rules per workload: five on bus stops, five on quadtree leaves
    // (Section 5.5), cycling over the given window lengths.
    let mut out = Vec::new();
    for (tag, loc) in [("stops", LocationSelector::BusStops), ("leaves", LocationSelector::QuadtreeLeaves)] {
        for i in 0..5 {
            let w = windows[i % windows.len()];
            out.push(RuleSpec::new(format!("wl-{tag}-{i}"), Attribute::Delay, loc.clone(), w));
        }
    }
    out
}

/// Figures 14/15's workload mixes: paper name, row key, window lengths.
const MIXES: [(&str, &str, &[usize]); 7] = [
    ("last event", "l1", &[1]),
    ("last 10 values", "l10", &[10]),
    ("last 100 values", "l100", &[100]),
    ("last event + last 10", "l1+l10", &[1, 10]),
    ("last event + last 100", "l1+l100", &[1, 100]),
    ("last 10 and 100", "l10+l100", &[10, 100]),
    ("all the rules", "l1+l10+l100", &[1, 10, 100]),
];

fn fig14_15(_: Size) -> ExperimentResult {
    let builder = uniform_scenario();
    let sweeps = MIXES
        .iter()
        .map(|(name, _, windows)| {
            let rules = workload_rules(windows);
            sweep_engines(name, &builder, PartitioningApproach::Proposed, &rules, NODES)
        })
        .collect();
    let (mut result, tp) = figure_pair(
        "fig14_15",
        "Figures 14/15: seven workload mixes of 10 Delay rules (5 on bus stops, 5 on quadtree \
         leaves) at 60k tuples/s on 7 simulated nodes; latency (ms) and tuples per 40 s window; \
         min_step rows over 1..7 engines",
        sweeps,
    );
    for ((_, key, _), tp) in MIXES.iter().zip(&tp) {
        let step = tp.y[..NODES].windows(2).map(|w| w[1] / w[0]).reduce(f64::min).unwrap_or(f64::NAN);
        result.rows.push(shape(format!("{key}.min_step"), "ratio", NODES as u64, step));
    }
    result
}

/// Up to the node count, where each engine has a core of its own, every
/// mix's throughput is non-decreasing in engines (some calibrations dip past it).
fn fig14_15_bars() -> Vec<Bar> {
    at_least(TIE, MIXES.map(|(_, key, _)| format!("{key}.min_step")))
}

fn fig16_17(_: Size) -> ExperimentResult {
    let rules = workload_rules(&[1, 10, 100]);
    let builder = uniform_scenario();
    let sweeps = [3usize, 5, 7]
        .into_iter()
        .map(|nodes| {
            let name = format!("VMs {nodes}");
            sweep_engines(&name, &builder, PartitioningApproach::Proposed, &rules, nodes)
        })
        .collect();
    let (mut result, tp) = figure_pair(
        "fig16_17",
        "Figures 16/17: the all-rules mix on 3, 5 and 7 simulated single-core VMs at 60k \
         tuples/s; latency (ms) and tuples per 40 s window over 1..15 engines",
        sweeps,
    );
    result.rows = fig16_17_rows(&tp);
    result
}

/// The shape rows of the 3-, 5- and 7-VM throughput curves.
fn fig16_17_rows(tp: &[Series]) -> Vec<Row> {
    let [vms3, vms5, vms7] = tp else { panic!("three VM curves") };
    vec![min_ratio("vms7_over_vms5", vms7, vms5, 15.0), min_ratio("vms5_over_vms3", vms5, vms3, 15.0)]
}

/// At 15 engines, 7 VMs ≥ 5 VMs ≥ 3 VMs.
fn fig16_17_bars() -> Vec<Bar> {
    at_least(TIE, ["vms7_over_vms5", "vms5_over_vms3"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_the_usage_lists_exactly_them() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        names.extend(["all", "guard"]);
        let usage = usage();
        let listed: Vec<&str> = usage
            .strip_prefix("expected one of: ")
            .and_then(|rest| rest.strip_suffix(" (`guard <snapshot>|all`)"))
            .expect("usage shape")
            .split(' ')
            .collect();
        assert_eq!(listed, names, "the usage text is the registry");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len() + 2, "registry names are unique");
    }

    #[test]
    fn the_stop_index_names_the_scans_stop_all_morning_on_the_benchmark_city() {
        // 06:00-09:00 of the weekday: 200 buses reporting every 20 s.
        let city = LookupCity::new(108_000);
        assert_eq!(city.queries.len(), 108_000);
        assert!(city.stops.len() > 1_000, "benchmark scale: {} stops", city.stops.len());
        let scan = StopScan::of(&city.stops);
        for t in &city.queries {
            let got = city.stops.closest_stop(t.line_id, t.direction, &t.position).map(|s| s.id);
            assert_eq!(got, scan.closest(t), "at {t:?}");
        }
    }

    #[test]
    fn a_broken_figure_shape_and_a_missing_shape_row_fail_their_bars() {
        // Figures 16/17 from throughput curves reaching these values at 15 engines.
        let fig16_17 = |at_15: [f64; 3]| {
            let curve = |tp: f64| Series { name: String::new(), x: vec![1.0, 15.0], y: vec![1.0, tp] };
            let mut result = ExperimentResult::new("fig16_17", "synthetic");
            result.rows = fig16_17_rows(&at_15.map(curve));
            result.bars = fig16_17_bars();
            result
        };
        let failures = |committed: &ExperimentResult, live: Option<&ExperimentResult>| -> Vec<String> {
            check(committed, live).into_iter().filter(|(ok, _)| !ok).map(|(_, line)| line).collect()
        };
        let (good, swapped) = (fig16_17([70e3, 120e3, 170e3]), fig16_17([70e3, 180e3, 170e3]));
        assert_eq!(failures(&good, Some(&good)), Vec::<String>::new());
        assert_eq!(failures(&swapped, None), ["committed vms7_over_vms5: 0.944444 >= 0.999999999"]);
        assert_eq!(failures(&good, Some(&swapped)), ["live vms7_over_vms5: 0.944444 >= 0.999999999"]);
        let mut rowless = fig16_17([70e3, 120e3, 170e3]);
        rowless.rows.retain(|r| r.key != "vms5_over_vms3");
        assert_eq!(failures(&rowless, None), ["committed vms5_over_vms3: row missing >= 0.999999999"]);
        assert_eq!(failures(&good, Some(&rowless)), ["live vms5_over_vms3: row missing >= 0.999999999"]);
    }

    #[test]
    fn every_snapshot_entry_has_a_committed_file_under_the_schema() {
        let mut envs = Vec::new();
        for e in REGISTRY {
            let committed = ExperimentResult::load_snapshot(e.name).expect("committed snapshot");
            assert_eq!(committed.id, e.name);
            let text = std::fs::read_to_string(tms_bench::snapshot::snapshot_path(e.name)).unwrap();
            let rewritten = serde_json::to_string_pretty(&committed).unwrap() + "\n";
            assert_eq!(text, rewritten, "{} is byte-for-byte what the one writer emits", e.name);
            assert!(!committed.rows.is_empty(), "{} has rows", e.name);
            assert_eq!(committed.bars, bars_of(&e.guard), "{} carries the registry's bars", e.name);
            for (ok, line) in check(&committed, None) {
                assert!(ok, "{}: {line}", e.name);
            }
            for r in &committed.rows {
                if matches!(r.stat, Stat::Median { .. }) {
                    assert!(r.trials >= 5, "{}: {} has {} trials", e.name, r.key, r.trials);
                }
            }
            envs.push((e.name, committed.env));
        }
        assert_eq!(envs.len(), 16);
        // One box and one toolchain, so rows compare across files; `commit`
        // is free, because a PR re-takes only the snapshots whose code it
        // changed.
        let machine = |env: &tms_bench::snapshot::Env| (env.cores, env.rustc.clone(), env.profile.clone());
        for (name, env) in &envs {
            assert_eq!(
                machine(env),
                machine(&envs[0].1),
                "{name} was taken on the same box and toolchain as {}",
                envs[0].0
            );
        }
    }
}
