//! Rendering: the contract's result line, the human-readable table, and
//! the files under `benchmark/out/`.

use crate::run::{Report, Request};
use crate::spec::{json_str, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// `benchmark/out/`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A measured value with all its digits; JSON has no NaN or infinity.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn metrics_object(metrics: &[(&'static str, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit_of(name))
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics` — the end-to-end metrics untraced, the
/// per-layer metrics traced.
pub fn result_line(report: &Report, trace: bool) -> String {
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_object(metrics)
    )
}

/// Every metric by name with its unit, one per line.
pub fn table(request: &Request, report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} seed={} N={} repeats={} M={} setups={} detect_samples={}",
        request.workload.name,
        request.seed,
        report.shape.tuples,
        report.shape.repeats,
        report.shape.prefix,
        report.shape.setups,
        report.shape.detect_samples
    );
    for (name, value) in report.end_to_end.iter().chain(&report.per_layer) {
        let _ = writeln!(out, "{name:<36} {value:>16.4} {}", unit_of(name));
    }
    for (name, values) in report.series.iter().filter(|(_, v)| v.len() > 1) {
        let values: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        let _ = writeln!(out, "every repeat's {name}: {}", values.join(" "));
    }
    let _ = writeln!(out, "ops {} failed_ops {}", report.attempted, report.failed);
    for note in &report.notes {
        let _ = writeln!(out, "note: {note}");
    }
    out
}

fn command_line(program: &str, args: &[&str], ceiling: Option<&str>) -> String {
    let mut command = Command::new(program);
    command.args(args).current_dir(env!("CARGO_MANIFEST_DIR"));
    if let Some(ceiling) = ceiling {
        // Keep git from searching for a repository above the checkout.
        command.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the run happened: ROADMAP item 1's snapshot `env`.
fn env_object(request: &Request, report: &Report) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let above_checkout = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.display().to_string());
    let commit = command_line(
        "git",
        &["rev-parse", "--short", "HEAD"],
        above_checkout.as_deref(),
    );
    let rustc = command_line("rustc", &["--version"], None);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"profile\": {}, \"commit\": {}, \"workload\": {}, \
         \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"n\": {}, \"repeats\": {}, \"m\": {}, \
         \"setups\": {}, \"warmup_s\": {}, \"rate\": {}, \"input_hash\": \"{:016x}\"}}",
        json_str(&rustc),
        json_str(profile),
        json_str(&commit),
        json_str(request.workload.name),
        request.seed,
        request.seconds,
        request.smoke,
        report.shape.tuples,
        report.shape.repeats,
        report.shape.prefix,
        report.shape.setups,
        json_num(report.shape.warmup_s),
        report
            .shape
            .rate
            .map_or("\"max\"".to_string(), |r| r.to_string()),
        report.shape.input_hash,
    )
}

/// The full report: `env`, every end-to-end metric with direction, bound
/// and sample count, the per-layer metrics, the checks.
pub fn full_json(request: &Request, report: &Report) -> String {
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .zip(&report.end_to_end)
        .map(|(spec, (_, value))| {
            let samples = match spec.name {
                "setup_s" => report.shape.setups,
                "detect_p50_ms" => report.shape.detect_samples,
                "peak_rss_mb" => 1,
                _ => report.shape.repeats,
            };
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"samples\": {samples}}}",
                json_str(spec.name),
                json_num(*value),
                json_str(spec.unit),
                json_str(spec.better),
                spec.bound
            )
        })
        .collect();
    let notes: Vec<String> = report.notes.iter().map(|n| json_str(n)).collect();
    format!(
        "{{\n  \"env\": {},\n  \"correct\": {},\n  \"ops\": {},\n  \"failed_ops\": {},\n  \
         \"end_to_end\": {{\n{}\n  }},\n  \"per_layer\": {},\n  \"notes\": [{}]\n}}\n",
        env_object(request, report),
        report.correct,
        report.attempted,
        report.failed,
        end_to_end.join(",\n"),
        metrics_object(&report.per_layer),
        notes.join(", ")
    )
}

/// The kept spans as JSON Lines: per tuple one root span, then one child
/// span per call into a layer. Spans of one tuple share its trace id.
fn trace_jsonl(report: &Report) -> String {
    let mut out = String::new();
    let mut spans = report.spans.iter().peekable();
    while let Some(first) = spans.peek().copied() {
        let tuple = first.tuple;
        let mut children = Vec::new();
        while let Some(span) = spans.next_if(|s| s.tuple == tuple) {
            children.push(span);
        }
        let end = children.last().map_or(first.start, |s| s.start + s.len);
        let _ = writeln!(
            out,
            "{{\"trace\": {tuple}, \"span\": \"t{tuple}\", \"parent\": null, \"name\": \"inline.tuple\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            first.start.as_nanos(),
            end.as_nanos()
        );
        for (k, span) in children.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"trace\": {tuple}, \"span\": \"t{tuple}.{k}\", \"parent\": \"t{tuple}\", \
                 \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                json_str(span.layer.name()),
                span.start.as_nanos(),
                (span.start + span.len).as_nanos()
            );
        }
    }
    out
}

/// Writes `out/<workload>.json` and, traced, `out/<workload>.trace.jsonl`.
pub fn write_files(request: &Request, report: &Report) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{}.json", request.workload.name)),
        full_json(request, report),
    )?;
    if request.trace {
        std::fs::write(
            dir.join(format!("{}.trace.jsonl", request.workload.name)),
            trace_jsonl(report),
        )?;
    }
    Ok(())
}

/// Pulls `"name": {"value": <number>` out of a result line (this
/// harness's own output, so a scan is enough).
pub fn metric_from_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("{}: {{\"value\": ", json_str(name));
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_scanner() {
        let report = Report {
            correct: true,
            attempted: 1000,
            failed: 0,
            end_to_end: vec![("setup_s", 2.5), ("throughput_tps", 38_123.456_789)],
            per_layer: vec![("inline.tps", 1e6)],
            ..Report::default()
        };
        let line = result_line(&report, false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert_eq!(metric_from_line(&line, "setup_s"), Some(2.5));
        assert_eq!(
            metric_from_line(&line, "throughput_tps"),
            Some(38_123.456_789)
        );
        assert_eq!(metric_from_line(&line, "inline.tps"), None);
        assert_eq!(
            metric_from_line(&result_line(&report, true), "inline.tps"),
            Some(1e6)
        );
        assert!(line.contains("\"unit\": \"1/s\""));
    }
}
