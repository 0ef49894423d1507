//! Result rendering: aligned text tables (the rows/series the paper's
//! tables and figures report) plus machine-readable JSON dumps so
//! EXPERIMENTS.md numbers can be regenerated and diffed.

use crate::snapshot::{Bar, Env, Row};
use serde::Serialize;
use std::io::Write;
use std::path::Path;

/// One named data series (a figure line): x values with y values.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Series {
    pub name: String,
    pub x: Vec<f64>,
    pub y: Vec<f64>,
}

impl Series {
    pub fn new(name: impl Into<String>) -> Self {
        Series { name: name.into(), x: Vec::new(), y: Vec::new() }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.x.push(x);
        self.y.push(y);
    }
}

/// A complete experiment result: identifies the paper artifact or
/// `BENCH_<id>.json` snapshot it regenerates and carries its data.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentResult {
    /// e.g. `fig11`, `table2`, `cep_throughput`.
    pub id: String,
    /// Human description (for a snapshot: the workload).
    pub title: String,
    /// Where and how the result was taken.
    pub env: Env,
    /// Data series (figures).
    pub series: Vec<Series>,
    /// Key/value facts (tables).
    pub facts: Vec<(String, String)>,
    /// Measured quantities (snapshots).
    pub rows: Vec<Row>,
    /// Acceptance criteria over `rows` (snapshots).
    pub bars: Vec<Bar>,
}

impl ExperimentResult {
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentResult {
            id: id.into(),
            title: title.into(),
            env: Env::capture(),
            series: Vec::new(),
            facts: Vec::new(),
            rows: Vec::new(),
            bars: Vec::new(),
        }
    }

    pub fn fact(&mut self, key: impl Into<String>, value: impl ToString) {
        self.facts.push((key.into(), value.to_string()));
    }

    /// Writes the result as JSON under `dir/<id>.json`.
    pub fn save_json(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let mut f = std::fs::File::create(path)?;
        let json = serde_json::to_string_pretty(self).expect("results serialize");
        f.write_all(json.as_bytes())
    }
}

/// Prints an aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths.get(i).copied().unwrap_or(8)));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Prints series as a table with x in the first column.
pub fn print_series(title: &str, x_label: &str, series: &[Series]) {
    let mut headers = vec![x_label.to_string()];
    headers.extend(series.iter().map(|s| s.name.clone()));
    let n = series.iter().map(|s| s.x.len()).max().unwrap_or(0);
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let mut row = Vec::with_capacity(headers.len());
        let x = series.iter().find_map(|s| s.x.get(i)).copied().unwrap_or(f64::NAN);
        row.push(format_num(x));
        for s in series {
            row.push(s.y.get(i).map(|v| format_num(*v)).unwrap_or_default());
        }
        rows.push(row);
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(title, &header_refs, &rows);
}

/// Compact numeric formatting: integers as integers, floats to 3 s.f.
pub fn format_num(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    if v == v.trunc() && v.abs() < 1e12 {
        format!("{}", v as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_and_result_accumulate() {
        let mut s = Series::new("ours");
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        assert_eq!(s.x, vec![1.0, 2.0]);
        let mut r = ExperimentResult::new("figX", "demo");
        r.series.push(s);
        r.fact("buses", 911);
        assert_eq!(r.facts[0].1, "911");
    }

    #[test]
    fn json_round_trips_to_disk() {
        let dir = std::env::temp_dir().join("tms-bench-test");
        let r = ExperimentResult::new("t", "demo");
        r.save_json(&dir).unwrap();
        let body = std::fs::read_to_string(dir.join("t.json")).unwrap();
        assert!(body.contains("\"id\": \"t\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn num_formatting() {
        assert_eq!(format_num(42.0), "42");
        assert_eq!(format_num(1234.567), "1234.6");
        assert_eq!(format_num(5.4321), "5.43");
        assert_eq!(format_num(0.01234), "0.0123");
    }
}
