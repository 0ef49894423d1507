//! The repository's pipeline benchmark: four named workloads over the
//! Figure 8 topology, five end-to-end metrics from untraced threaded
//! passes, and a per-layer trace taken from outside by an inline pass. See
//! `README.md` next to this package for the tables and the reasoning.
//!
//! ```text
//! benchmark [--workload] <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark agree [--workload] <name> [--runs K] [--seed N] [--seconds S] [--vary-seed] [--smoke]
//! benchmark manifest
//! ```

mod inline;
mod input;
mod measure;
mod paced;
mod report;
mod run;
mod spec;

use measure::{median, quartiles};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  benchmark [--workload] <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  benchmark agree [--workload] <name> [--runs K] [--seed N] [--seconds S] [--vary-seed] [--smoke]
  benchmark manifest";

/// Parsed command line.
struct Cli {
    agree: bool,
    workload: &'static spec::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    runs: usize,
    vary_seed: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        agree: false,
        workload: &spec::WORKLOADS[0],
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: true,
        smoke: false,
        runs: 5,
        vary_seed: false,
    };
    let mut named = false;
    let mut it = args.iter().map(String::as_str).peekable();
    if it.peek() == Some(&"agree") {
        cli.agree = true;
        cli.trace = false;
        it.next();
    }
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        let number = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("{arg}: {s:?} is not a whole number"))
        };
        match arg {
            "--seed" => cli.seed = number(value("a number")?)?,
            "--seconds" => cli.seconds = number(value("a number")?)?,
            "--runs" => cli.runs = number(value("a number")?)? as usize,
            "--trace" => {
                cli.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--vary-seed" => cli.vary_seed = true,
            other => {
                let name = if other == "--workload" {
                    value("a name")?
                } else {
                    other
                };
                cli.workload = spec::workload(name).ok_or_else(|| {
                    let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?;
                named = true;
            }
        }
    }
    if !named {
        return Err("no workload named".into());
    }
    if !(1..=60).contains(&cli.seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    if cli.agree && cli.runs < 2 {
        return Err("agree needs --runs of at least 2".into());
    }
    Ok(cli)
}

/// Runs one workload, prints every metric, then the result line.
fn run_once(cli: &Cli) -> ExitCode {
    let request = run::Request {
        workload: cli.workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let report = match run::run(request) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", cli.workload.name);
            return ExitCode::from(2);
        }
    };
    if let Err(e) = report::write_files(&request, &report) {
        eprintln!(
            "benchmark: cannot write under {}: {e}",
            report::out_dir().display()
        );
        return ExitCode::from(2);
    }
    print!("{}", report::table(&request, &report));
    println!("{}", report::result_line(&report, cli.trace));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the workload `runs` times back to back, each in a fresh process
/// (peak RSS is a process-lifetime high-water mark), and checks that
/// every run stays inside each end-to-end metric's bound around the
/// median.
fn agree(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
    for k in 0..cli.runs {
        let seed = if cli.vary_seed {
            cli.seed + k as u64
        } else {
            cli.seed
        };
        let mut command = Command::new(&exe);
        command.args(["--workload", cli.workload.name, "--trace", "0"]);
        command.args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &cli.seconds.to_string(),
        ]);
        if cli.smoke {
            command.arg("--smoke");
        }
        let output = match command.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("benchmark: run {k} did not start: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        if !output.status.success() || !line.contains("\"correct\": true") {
            eprintln!(
                "benchmark: run {k} (seed {seed}) failed:\n{stdout}{}",
                String::from_utf8_lossy(&output.stderr)
            );
            return ExitCode::FAILURE;
        }
        for (slot, metric) in values.iter_mut().zip(&spec::END_TO_END) {
            match report::metric_from_line(line, metric.name) {
                Some(v) => slot.push(v),
                None => {
                    eprintln!("benchmark: run {k} did not report {}", metric.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        eprintln!("run {k} seed {seed}: {line}");
    }
    println!(
        "# agree {} runs={} seed={}{}",
        cli.workload.name,
        cli.runs,
        cli.seed,
        if cli.vary_seed { "+k" } else { "" }
    );
    println!(
        "{:<18} {:>14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "median", "q1", "q3", "iqr/med", "bound"
    );
    let mut agreed = true;
    for (metric, v) in spec::END_TO_END.iter().zip(&values) {
        let mid = median(v);
        let (q1, q3) = quartiles(v);
        let worst = v.iter().map(|x| (x - mid).abs() / mid).fold(0.0, f64::max);
        // Set-up time is gated on its median only, not on single runs.
        let inside = worst <= metric.bound || metric.name == "setup_s";
        agreed &= inside;
        println!(
            "{:<18} {:>14.4} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {}",
            metric.name,
            mid,
            q1,
            q3,
            (q3 - q1) / mid * 100.0,
            metric.bound * 100.0,
            if inside {
                "ok".to_string()
            } else {
                format!("a run is {:.1}% off the median", worst * 100.0)
            }
        );
    }
    if agreed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("manifest") {
        print!("{}", spec::manifest_json());
        return ExitCode::SUCCESS;
    }
    match parse(&args) {
        Ok(cli) if cli.agree => agree(&cli),
        Ok(cli) => run_once(&cli),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
