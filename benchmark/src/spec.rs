//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, per-layer metric names. `BENCHMARK.json`
//! at the repository root is rendered from these tables
//! (`benchmark -- manifest`), so the harness and the file cannot drift.

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds`. A replay
/// workload repeats one fixed replay for this long and reports the
/// least-disturbed repeat; the open-loop workload emits for this long.
pub const RUN_SECONDS: u64 = 20;

/// Set-ups per run, spread over it; `setup_s` is the fastest of them.
pub const SETUPS_PER_RUN: usize = 3;

/// What a workload drives and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Max-rate replay through `TrafficSystem::run`, Table-6 rule set.
    ReplayTable6,
    /// Max-rate replay, one shared-path rule.
    ReplayLone,
    /// Max-rate replay, Table-6 rules under one static threshold.
    ReplayStatic,
    /// Open-loop fixed-rate run through harness-wired public bolts.
    PacedTable6,
}

/// How much input a workload gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Max-rate replay of this many tuples, repeated for `--seconds`.
    Replay(u64),
    /// Open loop at this many tuples per second for `--seconds`.
    Paced(u64),
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as the driver passes it in `--workload`.
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
    /// What it drives.
    pub kind: Kind,
    /// How much input it gets.
    pub load: Load,
    /// The inline reference (and the traced passes) cover the first
    /// `N * prefix_num / prefix_den` tuples.
    pub prefix_num: u64,
    /// See `prefix_num`.
    pub prefix_den: u64,
}

impl Workload {
    /// Tuples of one threaded pass (N) for a run of `seconds`.
    pub fn tuples(&self, seconds: u64) -> usize {
        match self.load {
            Load::Replay(tuples) => tuples as usize,
            Load::Paced(rate) => (rate * seconds) as usize,
        }
    }

    /// The open-loop emission rate; `None` for max-rate replay.
    pub fn rate(&self) -> Option<u64> {
        match self.load {
            Load::Replay(_) => None,
            Load::Paced(rate) => Some(rate),
        }
    }

    /// Length of the inline-reference prefix for `n` replayed tuples.
    pub fn prefix(&self, n: usize) -> usize {
        ((n as u64 * self.prefix_num / self.prefix_den) as usize).clamp(1, n)
    }
}

/// The four workloads, in the order `run.sh` runs them. One replay is
/// sized to last one to two seconds on the 2-core reference box, short
/// enough that some repeats of a run fall between two episodes of
/// interference from the host.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "replay-table6",
        why: "headline deployment: ten Table-6 rules, 60% shared-bank and 40% rescan evaluations, CEP evaluation is ~80% of the compute",
        kind: Kind::ReplayTable6,
        load: Load::Replay(64_000),
        prefix_num: 1,
        prefix_den: 4,
    },
    Workload {
        name: "replay-lone",
        why: "one shared-path rule: CEP is cheap, so tms-dsps hand-offs and tms-geo stop lookup dominate; a CEP gain must not show here",
        kind: Kind::ReplayLone,
        load: Load::Replay(160_000),
        prefix_num: 1,
        prefix_den: 4,
    },
    Workload {
        name: "replay-static",
        why: "Table-6 rules under one static threshold: no threshold join, so every statement stays on the private rescan path",
        kind: Kind::ReplayStatic,
        load: Load::Replay(24_000),
        prefix_num: 1,
        prefix_den: 4,
    },
    Workload {
        name: "paced-table6",
        why: "open loop at a fixed 10k tuples/s (about a fifth of capacity), ~0.8 detections per tuple: wake-ups, not saturation, set the cost and the latency",
        kind: Kind::PacedTable6,
        load: Load::Paced(10_000),
        prefix_num: 1,
        prefix_den: 4,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The five end-to-end metrics, reported by every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_tps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_tuple",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "detect_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: name, unit, direction. No bound.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Per-layer metrics, layer names are `crate.module`. A metric that does
/// not apply to a workload (the `sink.*`/`spout.*` rows outside
/// `paced-table6`) is reported as 0 there.
pub const PER_LAYER: [PerLayer; 58] = [
    // Traced inline pass: one span per call into a layer.
    ("traffic.generator.us_per_tuple", "us", "lower"),
    ("traffic.preprocess.us_per_tuple", "us", "lower"),
    ("geo.quadtree.us_per_tuple", "us", "lower"),
    ("geo.busstops.us_per_tuple", "us", "lower"),
    ("core.splitter.us_per_tuple", "us", "lower"),
    ("core.splitter.fanout", "count", "lower"),
    ("core.rule_engine.us_per_tuple", "us", "lower"),
    ("core.rule_engine.events_per_tuple", "count", "lower"),
    ("cep.eval.us_per_tuple", "us", "lower"),
    ("cep.path.shared_share", "ratio", "higher"),
    ("cep.path.incremental_share", "ratio", "higher"),
    ("cep.path.rescan_share", "ratio", "lower"),
    ("storage.events.us_per_detection", "us", "lower"),
    ("storage.events.max_ms", "ms", "lower"),
    ("core.install.ms", "ms", "lower"),
    ("core.refresh.ms_per_call", "ms", "lower"),
    ("core.kappa.us_per_tuple", "us", "lower"),
    ("core.kappa.publish_ms", "ms", "lower"),
    ("storage.thresholds.snapshot_ms", "ms", "lower"),
    // The single-threaded baseline and what the spans do not cover.
    ("inline.us_per_tuple", "us", "lower"),
    ("inline.tps", "1/s", "higher"),
    ("trace.unattributed_us_per_tuple", "us", "lower"),
    // Set-up split.
    ("geo.quadtree.build_s", "s", "lower"),
    ("geo.busstops.build_s", "s", "lower"),
    ("core.offline.enrich_store_s", "s", "lower"),
    ("batch.stats_job_s", "s", "lower"),
    ("core.startup_plan_ms", "ms", "lower"),
    // Two per-layer groupings or one merged one: a near tie for the
    // optimizer on the Table-6 set, worth ~2x in evaluations per tuple.
    ("core.startup_plan.groupings", "count", "lower"),
    // From the untraced threaded run.
    ("dsps.residual_us_per_tuple", "us", "lower"),
    ("dsps.ctx_switches_per_tuple", "count", "lower"),
    ("dsps.preprocess.avg_us", "us", "lower"),
    ("dsps.areaTracker.avg_us", "us", "lower"),
    ("dsps.busStopsTracker.avg_us", "us", "lower"),
    ("dsps.splitter.avg_us", "us", "lower"),
    ("dsps.esper.avg_us", "us", "lower"),
    ("dsps.eventsStorer.avg_us", "us", "lower"),
    ("dsps.esper.deliveries", "count", "lower"),
    ("dsps.detections", "count", "higher"),
    ("dsps.dropped", "count", "lower"),
    ("dsps.misrouted", "count", "lower"),
    // Open-loop sink and generator (`paced-table6` only).
    ("sink.detect_p90_ms", "ms", "lower"),
    ("sink.detect_p99_ms", "ms", "lower"),
    ("sink.detect_max_ms", "ms", "lower"),
    ("sink.samples", "count", "higher"),
    ("sink.late_share_50ms", "ratio", "lower"),
    ("spout.lag_p50_ms", "ms", "lower"),
    ("spout.lag_p99_ms", "ms", "lower"),
    ("spout.lag_max_ms", "ms", "lower"),
    ("spout.drain_ms", "ms", "lower"),
    // How disturbed the run was: the share of the vCPU time the threaded
    // passes asked for that the host withheld, the best pass by plain wall
    // time, and the middle and the worst repeat (the end-to-end metrics
    // report the best).
    ("host.steal_share", "ratio", "lower"),
    ("run.best_pass_wall_tps", "1/s", "higher"),
    ("run.repeats", "count", "higher"),
    ("run.repeat_tps_median", "1/s", "higher"),
    ("run.repeat_tps_worst", "1/s", "higher"),
    // Shape of the run, so a reader can tell two runs apart.
    ("run.tuples", "count", "higher"),
    ("run.prefix_tuples", "count", "higher"),
    ("run.reference_detections", "count", "higher"),
    ("run.wall_s", "s", "lower"),
];

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|s| json_str(s)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(name),
                json_str(unit),
                json_str(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        let metrics = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().copied());
        for (name, unit, better) in metrics {
            assert!(is_name(name), "metric name {name:?}");
            assert!(seen.insert(name), "metric name {name:?} used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit:?}"
            );
            assert!(better == "lower" || better == "higher");
        }
        for w in &WORKLOADS {
            assert!(is_name(w.name), "workload name {:?}", w.name);
            assert!(seen.insert(w.name), "name {:?} used twice", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
            assert!(w.prefix_num <= w.prefix_den && w.prefix_num > 0);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == "lower"
            && END_TO_END.iter().all(|o| o.bound <= m.bound)));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
    }

    #[test]
    fn a_replay_is_fixed_work_and_the_open_loop_scales_with_the_window() {
        let replay = workload("replay-table6").unwrap();
        assert_eq!(replay.tuples(1), replay.tuples(60));
        assert_eq!(replay.rate(), None);
        let paced = workload("paced-table6").unwrap();
        assert_eq!(paced.rate(), Some(10_000));
        assert_eq!(paced.tuples(20), 200_000);
        assert_eq!(paced.prefix(200_000), 50_000);
        assert_eq!(replay.prefix(1), 1, "a prefix is never empty");
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `benchmark -- manifest`"
        );
    }
}
