//! Shared infrastructure for the experiment harness: real-engine latency
//! calibration, result tables, JSON output and the snapshot schema.

pub mod calibrate;
pub mod dataplane;
pub mod report;
pub mod snapshot;

pub use calibrate::{measure_engine_latency, measure_rule_latency};
pub use report::{print_series, print_table, ExperimentResult, Series};
