//! The one snapshot schema behind every committed `BENCH_<id>.json`.
//!
//! A snapshot is an [`ExperimentResult`] whose `rows` carry one measured
//! quantity each (sample size, trial count, median and MAD over the
//! trials — or the worst trial, for counts and invariants) and whose
//! `bars` state the experiment's acceptance criteria as data. The same
//! type is written by `experiments -- <id>`, read back by
//! [`ExperimentResult::parse`], and judged by [`check`] — against its own
//! bars and, in `experiments -- guard <id>`, against a live smoke re-run.

use crate::report::{ExperimentResult, Series};
use serde::Serialize;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// The repository root of the checkout being run, resolved once at run
/// time from the runtime `CARGO_MANIFEST_DIR`, else the working directory:
/// a binary built in one checkout and copied with its `target/` into
/// another writes into the copy.
pub fn repo_root() -> &'static Path {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| {
        let manifest = std::env::var_os("CARGO_MANIFEST_DIR").map(PathBuf::from);
        let cwd = std::env::current_dir().expect("a working directory");
        find_root(manifest.as_deref(), &cwd).expect("run inside a checkout")
    })
}

/// The nearest directory holding `crates/bench/Cargo.toml` at or above
/// `manifest_dir` (set by `cargo run` and `cargo test`), else at or above `cwd`.
fn find_root(manifest_dir: Option<&Path>, cwd: &Path) -> Option<PathBuf> {
    let mut dirs = manifest_dir.into_iter().chain([cwd]).flat_map(Path::ancestors);
    dirs.find(|dir| dir.join("crates/bench/Cargo.toml").is_file()).map(Path::to_path_buf)
}

/// The committed snapshot file of experiment `id`.
pub fn snapshot_path(id: &str) -> PathBuf {
    repo_root().join(format!("BENCH_{id}.json"))
}

/// A full-size timed trial lasts at least this long, so the number is
/// not a millisecond-scale measurement of scheduler noise.
pub const MIN_TRIAL_S: f64 = 0.5;

/// How much of an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Operations per timed trial of the experiment's fastest arm; slower
    /// arms scale it down.
    pub n: u64,
    /// Timed trials per row.
    pub trials: usize,
    /// A snapshot run: grow `n` until a trial lasts [`MIN_TRIAL_S`] and
    /// measure every arm. A smoke run (`false`) keeps `n` and measures
    /// only the arms a live bar reads.
    pub full: bool,
}

impl Size {
    pub const fn full(n: u64) -> Size {
        Size { n, trials: 5, full: true }
    }

    pub const fn smoke(n: u64, trials: usize) -> Size {
        Size { n, trials, full: false }
    }
}

/// The operations per trial to use: `n` itself for a smoke run; for a
/// full-size run, `n` grown until one pilot `run(n)` (which returns
/// elapsed seconds) lasts [`MIN_TRIAL_S`].
pub fn trial_size(size: Size, n: u64, mut run: impl FnMut(u64) -> f64) -> u64 {
    let mut n = n.max(1);
    if !size.full {
        return n;
    }
    loop {
        let secs = run(n);
        if secs >= MIN_TRIAL_S {
            return n;
        }
        // Overshoot by a fifth so the next pilot clears the bar.
        let grown = n as f64 * (1.2 * MIN_TRIAL_S / secs.max(1e-6)).min(100.0);
        n = (grown.ceil() as u64).max(n + 1);
    }
}

/// Sizes the trial with [`trial_size`], then runs `size.trials` timed
/// trials of it. Returns the `n` used and each trial's seconds.
pub fn timed_trials(size: Size, n: u64, mut run: impl FnMut(u64) -> f64) -> (u64, Vec<f64>) {
    let n = trial_size(size, n, &mut run);
    (n, (0..size.trials).map(|_| run(n)).collect())
}

/// Where and how a snapshot was taken.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Env {
    pub cores: usize,
    pub rustc: String,
    pub profile: String,
    /// Short hash of `HEAD`, `-dirty` when the tree had uncommitted
    /// changes (a snapshot cannot name the commit that first contains it).
    pub commit: String,
}

impl Env {
    /// The environment of this process (probed once).
    pub fn capture() -> Env {
        static ENV: OnceLock<Env> = OnceLock::new();
        ENV.get_or_init(|| {
            let tool = |program: &str, args: &[&str]| {
                Command::new(program)
                    .args(args)
                    .current_dir(repo_root())
                    .output()
                    .ok()
                    .filter(|o| o.status.success())
                    .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            };
            let commit = match tool("git", &["rev-parse", "--short", "HEAD"]) {
                Some(head) => match tool("git", &["status", "--porcelain"]) {
                    Some(changes) if !changes.is_empty() => format!("{head}-dirty"),
                    _ => head,
                },
                None => "unknown".into(),
            };
            Env {
                cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
                rustc: tool("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
                profile: if cfg!(debug_assertions) { "debug" } else { "release" }.into(),
                commit,
            }
        })
        .clone()
    }
}

/// How a row folds its trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stat {
    /// Rates and latencies: the median trial and the median absolute
    /// deviation around it.
    Median { median: f64, mad: f64 },
    /// Counts and invariants: the worst trial.
    Worst(f64),
}

/// One measured quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub key: String,
    pub unit: String,
    /// Operations (tuples, samples) behind one trial's value.
    pub n: u64,
    pub trials: usize,
    pub stat: Stat,
}

fn median_of(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

impl Row {
    /// A rate or latency row: median and MAD over the per-trial `values`.
    pub fn timed(key: impl Into<String>, unit: &str, n: u64, values: &[f64]) -> Row {
        let median = median_of(values);
        let deviations: Vec<f64> = values.iter().map(|v| (v - median).abs()).collect();
        let stat = Stat::Median { median, mad: median_of(&deviations) };
        Row { key: key.into(), unit: unit.into(), n, trials: values.len(), stat }
    }

    /// A count or invariant row: the worst of the per-trial `values`,
    /// `worse` picking the worse of two (`f64::min` when higher is
    /// better). A NaN trial is the worst there is.
    pub fn worst(
        key: impl Into<String>,
        unit: &str,
        n: u64,
        values: &[f64],
        worse: fn(f64, f64) -> f64,
    ) -> Row {
        let worst = if values.iter().any(|v| v.is_nan()) {
            f64::NAN
        } else {
            values.iter().copied().reduce(worse).unwrap_or(f64::NAN)
        };
        Row { key: key.into(), unit: unit.into(), n, trials: values.len(), stat: Stat::Worst(worst) }
    }

    /// The value a bar reads: the median, or the worst trial.
    pub fn value(&self) -> f64 {
        match self.stat {
            Stat::Median { median, .. } => median,
            Stat::Worst(worst) => worst,
        }
    }
}

/// One trial's reading of one row, for experiments whose trial yields
/// many quantities at once (see [`fold_trials`]).
#[derive(Debug, Clone)]
pub struct Sample {
    pub key: String,
    pub unit: &'static str,
    pub n: u64,
    pub value: f64,
    /// `None` folds trials by median; `Some(worse)` keeps the worst.
    pub worse: Option<fn(f64, f64) -> f64>,
}

impl Sample {
    /// A rate or latency reading.
    pub fn timed(key: impl Into<String>, unit: &'static str, n: u64, value: f64) -> Sample {
        Sample { key: key.into(), unit, n, value, worse: None }
    }

    /// A count or invariant reading where lower is worse.
    pub fn at_least(key: impl Into<String>, unit: &'static str, n: u64, value: f64) -> Sample {
        Sample { worse: Some(f64::min), ..Sample::timed(key, unit, n, value) }
    }

    /// A count or invariant reading where higher is worse.
    pub fn at_most(key: impl Into<String>, unit: &'static str, n: u64, value: f64) -> Sample {
        Sample { worse: Some(f64::max), ..Sample::timed(key, unit, n, value) }
    }
}

/// Folds per-trial samples into one row per key, in first-seen order
/// (`unit`, `n` and the fold come from the key's first sample).
pub fn fold_trials(trials: &[Vec<Sample>]) -> Vec<Row> {
    let mut firsts: Vec<&Sample> = Vec::new();
    for sample in trials.iter().flatten() {
        if !firsts.iter().any(|f| f.key == sample.key) {
            firsts.push(sample);
        }
    }
    firsts
        .into_iter()
        .map(|first| {
            let values: Vec<f64> = trials
                .iter()
                .flatten()
                .filter(|s| s.key == first.key)
                .map(|s| s.value)
                .collect();
            match first.worse {
                None => Row::timed(first.key.clone(), first.unit, first.n, &values),
                Some(worse) => Row::worst(first.key.clone(), first.unit, first.n, &values, worse),
            }
        })
        .collect()
}

impl Serialize for Row {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("key".to_string(), self.key.to_value()),
            ("unit".to_string(), self.unit.to_value()),
            ("n".to_string(), self.n.to_value()),
            ("trials".to_string(), self.trials.to_value()),
        ];
        match self.stat {
            Stat::Median { median, mad } => {
                fields.push(("median".to_string(), median.to_value()));
                fields.push(("mad".to_string(), mad.to_value()));
            }
            Stat::Worst(worst) => fields.push(("worst".to_string(), worst.to_value())),
        }
        Value::Map(fields)
    }
}

/// Which way a bar bounds its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Check {
    /// The value must not exceed the bound.
    Max,
    /// The value must not fall below the bound.
    Min,
}

/// Which value a bar judges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Side {
    /// The committed snapshot's row.
    Committed,
    /// The live smoke re-run's row.
    Live,
    /// Each of the two, separately.
    Both,
    /// The live row divided by the committed row.
    LiveOverCommitted,
}

/// One acceptance criterion, as data on the snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Bar {
    /// Key of the row the bar reads; a snapshot without it fails the bar.
    pub row: String,
    pub check: Check,
    pub bound: f64,
    pub on: Side,
}

impl Bar {
    pub fn max(row: &str, bound: f64, on: Side) -> Bar {
        Bar { row: row.into(), check: Check::Max, bound, on }
    }

    pub fn min(row: &str, bound: f64, on: Side) -> Bar {
        Bar { row: row.into(), check: Check::Min, bound, on }
    }
}

/// Judges every bar of the `committed` snapshot: its committed-side bars
/// against its own rows and, when a `live` re-run is given, the live-side
/// bars against that; each verdict is whether the bar held and a
/// printable line. A missing row or a NaN fails its bar.
pub fn check(committed: &ExperimentResult, live: Option<&ExperimentResult>) -> Vec<(bool, String)> {
    let mut verdicts = Vec::new();
    for bar in &committed.bars {
        let on_committed = committed.row(&bar.row).map(Row::value);
        let on_live = live.map(|l| l.row(&bar.row).map(Row::value));
        let mut judge = |what: &str, value: Option<f64>| {
            let (op, ok) = match bar.check {
                Check::Max => ("<=", value.is_some_and(|v| v <= bar.bound)),
                Check::Min => (">=", value.is_some_and(|v| v >= bar.bound)),
            };
            let shown = value.map_or("row missing".to_string(), |v| format!("{v:.6}"));
            verdicts.push((ok, format!("{what} {}: {shown} {op} {}", bar.row, bar.bound)));
        };
        if matches!(bar.on, Side::Committed | Side::Both) {
            judge("committed", on_committed);
        }
        if let Some(on_live) = on_live {
            match bar.on {
                Side::Live | Side::Both => judge("live", on_live),
                Side::LiveOverCommitted => {
                    judge("live/committed", on_live.zip(on_committed).map(|(l, c)| l / c))
                }
                Side::Committed => {}
            }
        }
    }
    verdicts
}

impl ExperimentResult {
    /// The row with this key.
    pub fn row(&self, key: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.key == key)
    }

    /// Writes the result as the committed snapshot `BENCH_<id>.json`.
    pub fn save_snapshot(&self) -> std::io::Result<PathBuf> {
        let path = snapshot_path(&self.id);
        let json = serde_json::to_string_pretty(self).expect("results serialize");
        std::fs::write(&path, json + "\n")?;
        Ok(path)
    }

    /// Reads the committed snapshot `BENCH_<id>.json`.
    pub fn load_snapshot(id: &str) -> Result<ExperimentResult, String> {
        let path = snapshot_path(id);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        ExperimentResult::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The one reader: parses what [`save_snapshot`](Self::save_snapshot)
    /// writes. Non-finite numbers are written as `null` and read back as
    /// NaN.
    pub fn parse(text: &str) -> Result<ExperimentResult, String> {
        let doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let env = field(&doc, "env")?;
        let mut result = ExperimentResult {
            id: text_of(&doc, "id")?,
            title: text_of(&doc, "title")?,
            env: Env {
                cores: num(env, "cores")? as usize,
                rustc: text_of(env, "rustc")?,
                profile: text_of(env, "profile")?,
                commit: text_of(env, "commit")?,
            },
            series: Vec::new(),
            rows: Vec::new(),
            bars: Vec::new(),
        };
        for s in items(&doc, "series")? {
            result.series.push(Series {
                name: text_of(s, "name")?,
                x: floats(s, "x")?,
                y: floats(s, "y")?,
            });
        }
        for r in items(&doc, "rows")? {
            let stat = if field(r, "worst").is_ok() {
                Stat::Worst(num(r, "worst")?)
            } else {
                Stat::Median { median: num(r, "median")?, mad: num(r, "mad")? }
            };
            result.rows.push(Row {
                key: text_of(r, "key")?,
                unit: text_of(r, "unit")?,
                n: num(r, "n")? as u64,
                trials: num(r, "trials")? as usize,
                stat,
            });
        }
        for b in items(&doc, "bars")? {
            result.bars.push(Bar {
                row: text_of(b, "row")?,
                check: match text_of(b, "check")?.as_str() {
                    "Max" => Check::Max,
                    "Min" => Check::Min,
                    other => return Err(format!("unknown bar check {other:?}")),
                },
                bound: num(b, "bound")?,
                on: match text_of(b, "on")?.as_str() {
                    "Committed" => Side::Committed,
                    "Live" => Side::Live,
                    "Both" => Side::Both,
                    "LiveOverCommitted" => Side::LiveOverCommitted,
                    other => return Err(format!("unknown bar side {other:?}")),
                },
            });
        }
        Ok(result)
    }
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{name}`")),
        other => Err(format!("expected an object with `{name}`, found {other:?}")),
    }
}

fn text_of(v: &Value, name: &str) -> Result<String, String> {
    match field(v, name)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("`{name}` is not a string: {other:?}")),
    }
}

fn number(v: &Value) -> Result<f64, String> {
    match v {
        Value::U64(n) => Ok(*n as f64),
        Value::I64(n) => Ok(*n as f64),
        Value::F64(n) => Ok(*n),
        Value::Null => Ok(f64::NAN),
        other => Err(format!("not a number: {other:?}")),
    }
}

fn num(v: &Value, name: &str) -> Result<f64, String> {
    number(field(v, name)?).map_err(|e| format!("`{name}` is {e}"))
}

fn floats(v: &Value, name: &str) -> Result<Vec<f64>, String> {
    items(v, name)?.iter().map(number).collect()
}

fn items<'a>(v: &'a Value, name: &str) -> Result<&'a [Value], String> {
    match field(v, name)? {
        Value::Seq(items) => Ok(items),
        other => Err(format!("`{name}` is not an array: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot exercising every row and bar kind.
    fn sample_snapshot() -> ExperimentResult {
        let mut r = ExperimentResult::new("demo", "a \"quoted\" workload");
        r.env = Env { cores: 4, rustc: "rustc 1.0".into(), profile: "release".into(), commit: "abc-dirty".into() };
        r.series.push(Series { name: "observed".into(), x: vec![0.0, 500.5], y: vec![0.06, 0.09] });
        r.rows = vec![
            Row::timed("latency_ms", "ms", 40_000, &[0.5, 1.0, 1.5, 1.0, 5.0]),
            Row::timed("rate", "1/s", 40_000, &[900.0, 1000.0, 1100.0, 1000.0, 1200.0]),
            Row::worst("completed", "count", 1, &[8.0, 3.0, 8.0], f64::min),
            Row::worst("lost", "count", 1, &[0.0, 0.0], f64::max),
            Row::timed("speedup", "ratio", 1, &[3.5; 5]),
        ];
        r.bars = vec![
            Bar::max("latency_ms", 2.0, Side::LiveOverCommitted),
            Bar::min("rate", 0.5, Side::LiveOverCommitted),
            Bar::max("latency_ms", 1.5, Side::Committed),
            Bar::min("completed", 1.0, Side::Both),
            Bar::max("lost", 0.0, Side::Live),
            Bar::min("speedup", 3.0, Side::Committed),
        ];
        r
    }

    fn failures(committed: &ExperimentResult, live: Option<&ExperimentResult>) -> Vec<String> {
        check(committed, live).into_iter().filter(|(ok, _)| !ok).map(|(_, line)| line).collect()
    }

    #[test]
    fn rows_fold_trials_by_median_and_mad_or_worst() {
        let r = sample_snapshot();
        assert_eq!(r.rows[0].stat, Stat::Median { median: 1.0, mad: 0.5 });
        assert_eq!(r.rows[0].trials, 5);
        assert_eq!(r.row("completed").unwrap().value(), 3.0, "lowest of the trials");
        assert_eq!(r.row("lost").unwrap().value(), 0.0);
        assert!(Row::worst("x", "count", 1, &[1.0, f64::NAN], f64::min).value().is_nan());
        assert!(Row::timed("x", "ms", 1, &[]).value().is_nan());
        assert_eq!(Row::timed("x", "ms", 1, &[1.0, 3.0]).value(), 2.0, "even counts average the middle");
        let folded = fold_trials(&[
            vec![Sample::timed("a", "ms", 7, 1.0), Sample::at_least("b", "count", 7, 4.0)],
            vec![Sample::timed("a", "ms", 9, 3.0), Sample::at_least("b", "count", 9, 2.0)],
        ]);
        assert_eq!(folded, vec![Row::timed("a", "ms", 7, &[1.0, 3.0]), Row::worst("b", "count", 7, &[4.0, 2.0], f64::min)]);
    }

    #[test]
    fn write_then_read_round_trips_every_row_and_bar() {
        let written = sample_snapshot();
        let text = serde_json::to_string_pretty(&written).unwrap();
        let read = ExperimentResult::parse(&text).unwrap();
        assert_eq!(read, written);
        assert!(text.contains("\"worst\": 3.0") && text.contains("\"mad\": 0.5"), "{text}");

        // A NaN survives as null → NaN (and PartialEq cannot see it).
        let mut nan = sample_snapshot();
        nan.rows[0] = Row::worst("latency_ms", "ms", 1, &[f64::NAN], f64::max);
        let read = ExperimentResult::parse(&serde_json::to_string(&nan).unwrap()).unwrap();
        assert!(read.rows[0].value().is_nan());

        let truncated = &text[..text.len() / 2];
        let (renamed, unknown) = (text.replace("\"median\"", "\"mean\""), text.replace("\"Max\"", "\"Most\""));
        let (trailing, nested) = (format!("{text} x"), "[".repeat(10_000));
        for broken in ["", "{}", "[1,]", "\"open", truncated, &renamed, &unknown, &trailing, &nested] {
            assert!(ExperimentResult::parse(broken).is_err(), "{broken:.40} must not parse");
        }
    }

    #[test]
    fn an_intact_snapshot_passes_and_each_doctored_bar_kind_trips() {
        let committed = sample_snapshot();
        let live = sample_snapshot();
        assert_eq!(failures(&committed, None), Vec::<String>::new());
        assert_eq!(failures(&committed, Some(&live)), Vec::<String>::new());
        assert_eq!(check(&committed, Some(&live)).len(), 7, "Both judges each side");
        assert_eq!(check(&committed, None).len(), 3, "live-side bars wait for a live run");

        let doctor = |edit: fn(&mut ExperimentResult)| {
            let mut doctored = sample_snapshot();
            edit(&mut doctored);
            doctored
        };

        // Ratio to committed: a live run 2.5x slower, or at 0.4x the rate.
        let slow = doctor(|r| r.rows[0] = Row::timed("latency_ms", "ms", 1, &[2.5]));
        assert_eq!(failures(&committed, Some(&slow)).len(), 1);
        let starved = doctor(|r| r.rows[1] = Row::timed("rate", "1/s", 1, &[400.0]));
        assert_eq!(failures(&committed, Some(&starved)).len(), 1);
        // Absolute ceiling and floor, on the committed side.
        let over = doctor(|r| r.rows[0] = Row::timed("latency_ms", "ms", 1, &[1.6]));
        assert_eq!(failures(&over, None).len(), 1);
        let none_completed = doctor(|r| r.rows[2] = Row::worst("completed", "count", 1, &[0.0], f64::min));
        assert_eq!(failures(&none_completed, None).len(), 1);
        // ... and on the live side only.
        let lossy = doctor(|r| r.rows[3] = Row::worst("lost", "count", 1, &[2.0], f64::max));
        assert_eq!(failures(&lossy, None).len(), 0);
        assert_eq!(failures(&committed, Some(&lossy)).len(), 1);
        // A required row that is missing fails every bar that reads it.
        let missing = doctor(|r| r.rows.retain(|row| row.key != "completed"));
        assert_eq!(failures(&missing, None), vec!["committed completed: row missing >= 1"]);
        assert_eq!(failures(&committed, Some(&missing)).len(), 1);
        // NaN fails a ceiling, a floor and a ratio alike.
        let nan = doctor(|r| {
            r.rows[0] = Row::timed("latency_ms", "ms", 1, &[f64::NAN]);
            r.rows[2] = Row::worst("completed", "count", 1, &[f64::NAN], f64::min);
        });
        assert_eq!(failures(&nan, None).len(), 2);
        assert_eq!(failures(&committed, Some(&nan)).len(), 2);
        // A committed floor binds whatever box the snapshot was taken on.
        let flat = doctor(|r| r.rows[4] = Row::timed("speedup", "ratio", 1, &[0.85]));
        assert_eq!(failures(&flat, None).len(), 1);
    }

    #[test]
    fn timed_trials_grow_full_runs_to_the_minimum_trial_length() {
        // A fake clock at 1 µs per operation.
        let mut calls = Vec::new();
        let (n, secs) = timed_trials(Size::full(1_000), 1_000, |n| {
            calls.push(n);
            n as f64 * 1e-6
        });
        assert!(n as f64 * 1e-6 >= MIN_TRIAL_S, "grew to {n}");
        assert_eq!(secs.len(), 5);
        assert!(secs.iter().all(|&s| s >= MIN_TRIAL_S));
        assert_eq!(&calls[calls.len() - 5..], &[n; 5]);
        let (n, secs) = timed_trials(Size::smoke(1_000, 2), 1_000, |n| n as f64 * 1e-6);
        assert_eq!((n, secs.len()), (1_000, 2), "a smoke run keeps its size");
    }

    #[test]
    fn paths_resolve_against_the_repository_root_from_any_directory() {
        assert!(repo_root().join("Cargo.toml").is_file());
        assert!(repo_root().join("crates/bench/src/snapshot.rs").is_file());
        assert_eq!(snapshot_path("rebalance"), repo_root().join("BENCH_rebalance.json"));
    }

    #[test]
    fn the_root_is_found_at_run_time_from_the_manifest_dir_or_the_working_directory() {
        let scratch = std::env::temp_dir().join(format!("tms-bench-root-{}", std::process::id()));
        let (copy, elsewhere) = (scratch.join("copy"), scratch.join("elsewhere"));
        std::fs::create_dir_all(copy.join("crates/bench/src")).unwrap();
        std::fs::create_dir_all(&elsewhere).unwrap();
        std::fs::write(copy.join("crates/bench/Cargo.toml"), "").unwrap();
        let (manifest, nested) = (copy.join("crates/bench"), copy.join("crates/bench/src"));
        assert_eq!(find_root(Some(&manifest), &elsewhere).as_ref(), Some(&copy), "the manifest dir first");
        assert_eq!(find_root(None, &nested).as_ref(), Some(&copy), "walks up from the cwd");
        assert_eq!(find_root(Some(&elsewhere), &nested).as_ref(), Some(&copy), "falls back to the cwd");
        assert_eq!(find_root(Some(&elsewhere), &elsewhere), None);
        // The checkout under test, not wherever this binary was compiled.
        let here = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").unwrap());
        assert_eq!(repo_root(), here.ancestors().nth(2).unwrap());
        std::fs::remove_dir_all(&scratch).unwrap();
    }}
