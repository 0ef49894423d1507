//! The experiment result every `experiments` subcommand returns, and its
//! rendering as aligned text tables (rows, and the figures' series).

use crate::snapshot::{Bar, Env, Row};
use serde::Serialize;

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

/// A complete experiment result: the `BENCH_<id>.json` snapshot of one
/// paper table or figure, or of one benchmark of this implementation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentResult {
    /// e.g. `fig11`, `table2`, `cep_throughput`.
    pub id: String,
    /// Human description (for a snapshot: the workload).
    pub title: String,
    /// Where and how the result was taken.
    pub env: Env,
    /// Data series (the figures' curves).
    pub series: Vec<Series>,
    /// Measured quantities.
    pub rows: Vec<Row>,
    /// Acceptance criteria over `rows`.
    pub bars: Vec<Bar>,
}

impl ExperimentResult {
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentResult {
            id: id.into(),
            title: title.into(),
            env: Env::capture(),
            series: Vec::new(),
            rows: Vec::new(),
            bars: Vec::new(),
        }
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
    }

    #[test]
    fn num_formatting() {
        assert_eq!(format_num(42.0), "42");
        assert_eq!(format_num(1234.567), "1234.6");
        assert_eq!(format_num(5.4321), "5.43");
        assert_eq!(format_num(0.01234), "0.0123");
    }
}
