//! The named chaos scenario for live DSPS runs.
//!
//! The fluid simulator in this crate models *capacity*; it cannot model
//! partial failure. The chaos scenario instead drives the real threaded
//! runtime in `tms-dsps`: seeded fault probabilities plus the recovery
//! budget that must absorb them. Because everything is seeded, a chaos
//! experiment is as reproducible as a fluid one.

use std::time::Duration;
use tms_dsps::runtime::ReliabilityConfig;
use tms_dsps::FaultConfig;

/// The acceptance scenario: 1% panics + 1% drops, no added latency, and
/// a generous at-least-once recovery budget. Feed the halves to
/// `SystemConfig::{chaos, reliability}` (or `RuntimeConfig::{fault,
/// reliability}`).
pub fn light_chaos() -> (FaultConfig, ReliabilityConfig) {
    let fault = FaultConfig { panic_p: 0.01, drop_p: 0.01, delay: None, seed: 0x7EA_5EED };
    let recovery = ReliabilityConfig {
        ack_timeout: Duration::from_millis(250),
        max_retries: 20,
        backoff: 1.5,
        max_pending: 256,
        max_task_restarts: 200,
    };
    (fault, recovery)
}
