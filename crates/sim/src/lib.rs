//! Deterministic cluster simulator for the scale experiments
//! (Figures 11–17).
//!
//! The paper's evaluation ran on 3–7 single-core VMs. We cannot rent that
//! testbed, so the *shape* experiments run on a fluid-flow simulation of
//! the same mechanisms:
//!
//! * every Esper engine is a server with a per-tuple **service time**
//!   taken from the latency estimation model (calibrated against the real
//!   CEP engine, Section 4.1.4);
//! * engines are placed on **nodes** round-robin (one worker per node,
//!   the paper's scheduling policy); the engines of a node share its
//!   cores by **processor sharing**, so co-locating more engine threads
//!   than cores stretches everyone's service — Figure 16's latency
//!   explosion;
//! * each engine receives tuples at its **input rate** (determined by the
//!   partitioning/allocation policy under test: balanced share, full
//!   stream for *all grouping*, etc.) into a bounded queue; the bound
//!   models the DSPS's backpressure.
//!
//! Time advances in fixed steps; per step each node's core budget is
//! spread over its backlogged engines, queues drain accordingly, and
//! waiting time accumulates by Little's law. The simulation is exactly
//! reproducible: no randomness anywhere.
//!
//! The fluid model covers capacity, not failure. The [`chaos`] module
//! covers the other half: the named, seeded fault scenario
//! ([`light_chaos`]) that configures the *real* threaded runtime in
//! `tms-dsps` — probabilistic panics and message drops — together with
//! the at-least-once recovery budget that must absorb them.

// `!(x > 0.0)` is used deliberately in validations: unlike `x <= 0.0`
// it also rejects NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod chaos;
pub mod hotspot;
pub mod placement;
pub mod scenario;

pub use chaos::light_chaos;
pub use hotspot::HotspotSpec;
pub use placement::round_robin_nodes;
pub use scenario::{PartitioningApproach, ScenarioBuilder};

use serde::{Deserialize, Serialize};

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of cluster nodes (VMs).
    pub nodes: usize,
    /// CPU cores per node (the paper's VMs have 1).
    pub cores_per_node: usize,
    /// Simulated duration in seconds (the paper samples 40 s windows).
    pub duration_s: f64,
    /// Integration step in seconds.
    pub step_s: f64,
    /// Queue bound per engine, tuples (backpressure model).
    pub queue_cap: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 7,
            cores_per_node: 1,
            duration_s: 40.0,
            step_s: 0.05,
            queue_cap: 10_000.0,
        }
    }
}

/// One engine to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineSpec {
    /// Per-tuple service time in milliseconds (from the latency model).
    pub service_ms: f64,
    /// Offered input rate, tuples per second.
    pub input_rate: f64,
}

/// Per-engine simulation outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineReport {
    /// Node hosting the engine.
    pub node: usize,
    /// Tuples processed per second (steady-state average).
    pub throughput: f64,
    /// Average per-tuple latency in milliseconds (queueing + service,
    /// including the processor-sharing stretch).
    pub avg_latency_ms: f64,
    /// Tuples rejected by the full queue, per second.
    pub dropped: f64,
    /// Utilization of the engine's share of its node, `0..=1`.
    pub utilization: f64,
}

/// Whole-run outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Per-engine outcomes, in input order.
    pub engines: Vec<EngineReport>,
    /// Total tuples processed per second across engines.
    pub total_throughput: f64,
    /// Throughput-weighted average latency (ms).
    pub avg_latency_ms: f64,
    /// Tuples processed in one 40-second monitor window — the unit of
    /// Figures 11, 13, 15 and 17.
    pub window_throughput: f64,
}

/// Errors from the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The simulator configuration was impossible.
    InvalidConfig(String),
    /// An engine spec was impossible.
    InvalidEngine {
        /// Index of the offending engine.
        index: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidConfig(r) => write!(f, "invalid simulator config: {r}"),
            SimError::InvalidEngine { index, reason } => {
                write!(f, "invalid engine {index}: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Runs the fluid simulation.
pub fn simulate(engines: &[EngineSpec], config: SimConfig) -> Result<SimReport, SimError> {
    if config.nodes == 0 || config.cores_per_node == 0 {
        return Err(SimError::InvalidConfig("nodes and cores_per_node must be ≥ 1".into()));
    }
    if !(config.step_s > 0.0) || !(config.duration_s > config.step_s) {
        return Err(SimError::InvalidConfig(format!(
            "duration {}s / step {}s is not a valid horizon",
            config.duration_s, config.step_s
        )));
    }
    if !(config.queue_cap > 0.0) {
        return Err(SimError::InvalidConfig("queue_cap must be positive".into()));
    }
    if engines.is_empty() {
        return Err(SimError::InvalidConfig("no engines to simulate".into()));
    }
    for (i, e) in engines.iter().enumerate() {
        if !(e.service_ms > 0.0) || !e.service_ms.is_finite() {
            return Err(SimError::InvalidEngine {
                index: i,
                reason: format!("service_ms must be positive, got {}", e.service_ms),
            });
        }
        if !(e.input_rate >= 0.0) || !e.input_rate.is_finite() {
            return Err(SimError::InvalidEngine {
                index: i,
                reason: format!("input_rate must be non-negative, got {}", e.input_rate),
            });
        }
    }

    let placement = placement::round_robin_nodes(engines.len(), config.nodes);

    // Fluid state.
    let n = engines.len();
    let mut queue = vec![0.0f64; n];
    let mut completed = vec![0.0f64; n];
    let mut dropped = vec![0.0f64; n];
    // Σ queue·dt, for Little's-law waiting time.
    let mut queue_time = vec![0.0f64; n];
    let mut busy_time = vec![0.0f64; n];

    let steps = (config.duration_s / config.step_s).round() as usize;
    let dt = config.step_s;
    for _ in 0..steps {
        // Arrivals.
        for (i, e) in engines.iter().enumerate() {
            let arriving = e.input_rate * dt;
            let room = config.queue_cap - queue[i];
            let accepted = arriving.min(room.max(0.0));
            queue[i] += accepted;
            dropped[i] += arriving - accepted;
        }
        // Service: each node's core budget is processor-shared over its
        // backlogged engines.
        for node in 0..config.nodes {
            let members: Vec<usize> =
                (0..n).filter(|&i| placement[i] == node).collect();
            let mut backlogged: Vec<usize> =
                members.iter().copied().filter(|&i| queue[i] > 0.0).collect();
            let mut budget = config.cores_per_node as f64 * dt; // core-seconds
            // Water-filling: engines that need less than an equal share
            // release the remainder to the others.
            while !backlogged.is_empty() && budget > 1e-12 {
                let share = budget / backlogged.len() as f64;
                let mut next_round = Vec::new();
                let mut spent = 0.0;
                for &i in &backlogged {
                    let service_s = engines[i].service_ms / 1000.0;
                    let need = queue[i] * service_s;
                    if need <= share {
                        completed[i] += queue[i];
                        busy_time[i] += need;
                        spent += need;
                        queue[i] = 0.0;
                    } else {
                        let done = share / service_s;
                        queue[i] -= done;
                        completed[i] += done;
                        busy_time[i] += share;
                        spent += share;
                        next_round.push(i);
                    }
                }
                budget -= spent;
                // Only engines still backlogged compete for the leftover;
                // if nobody finished early, the budget is exhausted.
                if next_round.len() == backlogged.len() {
                    break;
                }
                backlogged = next_round;
            }
        }
        for i in 0..n {
            queue_time[i] += queue[i] * dt;
        }
    }

    let mut reports = Vec::with_capacity(n);
    let mut total_tp = 0.0;
    let mut weighted_lat = 0.0;
    for i in 0..n {
        let throughput = completed[i] / config.duration_s;
        // Little's law: average waiting = (Σ queue·dt) / completed; plus
        // the effective service time actually experienced (busy time per
        // completed tuple, which embeds the processor-sharing stretch).
        let avg_latency_ms = if completed[i] > 0.0 {
            let waiting_s = queue_time[i] / completed[i];
            let service_s = busy_time[i] / completed[i];
            (waiting_s + service_s) * 1000.0
        } else {
            0.0
        };
        let utilization = busy_time[i] / config.duration_s;
        reports.push(EngineReport {
            node: placement[i],
            throughput,
            avg_latency_ms,
            dropped: dropped[i] / config.duration_s,
            utilization,
        });
        total_tp += throughput;
        weighted_lat += avg_latency_ms * throughput;
    }
    let avg_latency_ms = if total_tp > 0.0 { weighted_lat / total_tp } else { 0.0 };
    Ok(SimReport {
        engines: reports,
        total_throughput: total_tp,
        avg_latency_ms,
        window_throughput: total_tp * 40.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: usize, cores: usize) -> SimConfig {
        SimConfig { nodes, cores_per_node: cores, ..SimConfig::default() }
    }

    #[test]
    fn underloaded_engine_matches_offered_rate() {
        // 1 ms service, 100 t/s offered on a dedicated core: ρ = 0.1.
        let r = simulate(&[EngineSpec { service_ms: 1.0, input_rate: 100.0 }], cfg(1, 1))
            .unwrap();
        assert!((r.total_throughput - 100.0).abs() < 2.0, "{}", r.total_throughput);
        assert!(r.engines[0].dropped < 1e-9);
        // Latency ≈ service (little queueing in fluid flow).
        assert!(r.avg_latency_ms < 2.0, "{}", r.avg_latency_ms);
        assert!((r.engines[0].utilization - 0.1).abs() < 0.02);
    }

    #[test]
    fn saturated_engine_caps_at_capacity() {
        // 1 ms service = 1000 t/s capacity; offered 5000 t/s.
        let r = simulate(&[EngineSpec { service_ms: 1.0, input_rate: 5000.0 }], cfg(1, 1))
            .unwrap();
        assert!((r.total_throughput - 1000.0).abs() < 20.0, "{}", r.total_throughput);
        assert!(r.engines[0].dropped > 3000.0, "backpressure drops the excess");
        // Queue fills to the cap → latency far above the service time.
        assert!(r.avg_latency_ms > 100.0, "{}", r.avg_latency_ms);
    }

    #[test]
    fn colocation_splits_node_capacity() {
        // Two engines on one single-core node, both offered 800 t/s with
        // 1 ms service: together they can only do 1000 t/s.
        let e = EngineSpec { service_ms: 1.0, input_rate: 800.0 };
        let r = simulate(&[e, e], cfg(1, 1)).unwrap();
        assert!((r.total_throughput - 1000.0).abs() < 20.0, "{}", r.total_throughput);
        // Same engines on two nodes: full 1600 t/s.
        let r2 = simulate(&[e, e], cfg(2, 1)).unwrap();
        assert!((r2.total_throughput - 1600.0).abs() < 20.0, "{}", r2.total_throughput);
        assert!(r2.avg_latency_ms < r.avg_latency_ms);
    }

    #[test]
    fn more_vms_sustain_more_engines_fig16_shape() {
        // 8 engines, each offered 400 t/s at 2 ms service (cap 500/core).
        let engines: Vec<EngineSpec> =
            (0..8).map(|_| EngineSpec { service_ms: 2.0, input_rate: 400.0 }).collect();
        let r3 = simulate(&engines, cfg(3, 1)).unwrap();
        let r5 = simulate(&engines, cfg(5, 1)).unwrap();
        let r7 = simulate(&engines, cfg(7, 1)).unwrap();
        assert!(r7.total_throughput > r5.total_throughput);
        assert!(r5.total_throughput > r3.total_throughput);
        assert!(r3.avg_latency_ms > r7.avg_latency_ms * 2.0, "3 VMs overload hard");
    }

    #[test]
    fn water_filling_gives_leftover_capacity_to_busy_engines() {
        // A light engine (10 t/s) and a heavy one (2000 t/s) share a core;
        // the heavy one should get nearly the whole core, not half.
        let r = simulate(
            &[
                EngineSpec { service_ms: 1.0, input_rate: 10.0 },
                EngineSpec { service_ms: 1.0, input_rate: 2000.0 },
            ],
            cfg(1, 1),
        )
        .unwrap();
        assert!((r.engines[0].throughput - 10.0).abs() < 1.0);
        assert!(r.engines[1].throughput > 900.0, "{}", r.engines[1].throughput);
    }

    #[test]
    fn zero_rate_engine_is_idle() {
        let r = simulate(
            &[
                EngineSpec { service_ms: 1.0, input_rate: 0.0 },
                EngineSpec { service_ms: 1.0, input_rate: 100.0 },
            ],
            cfg(1, 1),
        )
        .unwrap();
        assert_eq!(r.engines[0].throughput, 0.0);
        assert_eq!(r.engines[0].avg_latency_ms, 0.0);
        assert!((r.engines[1].throughput - 100.0).abs() < 2.0);
    }

    #[test]
    fn window_throughput_is_40s_worth() {
        let r = simulate(&[EngineSpec { service_ms: 1.0, input_rate: 100.0 }], cfg(1, 1))
            .unwrap();
        assert!((r.window_throughput - r.total_throughput * 40.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let ok = EngineSpec { service_ms: 1.0, input_rate: 1.0 };
        assert!(simulate(&[], cfg(1, 1)).is_err());
        assert!(simulate(&[ok], cfg(0, 1)).is_err());
        assert!(simulate(&[ok], cfg(1, 0)).is_err());
        assert!(simulate(
            &[EngineSpec { service_ms: 0.0, input_rate: 1.0 }],
            cfg(1, 1)
        )
        .is_err());
        assert!(simulate(
            &[EngineSpec { service_ms: 1.0, input_rate: -5.0 }],
            cfg(1, 1)
        )
        .is_err());
        let bad = SimConfig { step_s: 0.0, ..SimConfig::default() };
        assert!(simulate(&[ok], bad).is_err());
        let bad = SimConfig { queue_cap: 0.0, ..SimConfig::default() };
        assert!(simulate(&[ok], bad).is_err());
    }

    #[test]
    fn deterministic() {
        let engines: Vec<EngineSpec> =
            (0..5).map(|i| EngineSpec { service_ms: 1.0 + i as f64, input_rate: 300.0 }).collect();
        let a = simulate(&engines, cfg(3, 1)).unwrap();
        let b = simulate(&engines, cfg(3, 1)).unwrap();
        assert_eq!(a, b);
    }
}
