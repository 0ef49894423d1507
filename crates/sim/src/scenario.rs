//! Scenario builders: translate the paper's evaluation setups into
//! [`EngineSpec`] lists for the simulator.
//!
//! Each builder encodes one policy under test:
//!
//! * [`PartitioningApproach`] — Figures 12/13's three tuple-routing
//!   policies: the paper's partitioning, *All Grouping* (every tuple to
//!   every engine) and *All Rules* (balanced routing but every engine
//!   holds every rule's full location set, hence every threshold);
//! * allocation comparisons (Figure 11) take per-grouping engine counts
//!   from `tms-core`'s Algorithm 2 or the round-robin baseline and build
//!   the engines of each grouping;
//! * workload mixes (Figures 14/15) are just rule sets with different
//!   window lengths run through the same machinery.

// `!(x > 0.0)` is used deliberately in validations: unlike `x <= 0.0`
// it also rejects NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use crate::EngineSpec;
use tms_core::allocation::{Allocation, Grouping};
use tms_core::latency::{EstimationModel, RuleLoad};
use tms_core::partitioning::{partition_rule, RegionRate};
use tms_core::rules::RuleSpec;
use tms_core::CoreError;

/// Lower bound on the per-tuple cost of one standing statement (ms): no
/// rule evaluation is cheaper than the cheapest measured one, whatever an
/// extrapolated regression claims.
pub const MIN_STATEMENT_MS: f64 = 0.002;

/// Tuple-routing policies of Figures 12/13.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitioningApproach {
    /// Algorithm 1: locations partitioned by rate; each tuple goes to one
    /// engine, which holds only its own locations' thresholds.
    Proposed,
    /// Locations partitioned as in `Proposed`, but every tuple is emitted
    /// to every engine.
    AllGrouping,
    /// Tuples routed as in `Proposed`, but every engine holds every
    /// rule's full location set (and so all thresholds).
    AllRules,
}

/// Builds engine specs for the paper's scenarios.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    /// The latency estimation model (calibrated or default).
    pub model: EstimationModel,
    /// Locations of the rules' partition layer with input rates
    /// (tuples/s); their sum is the stream rate offered to each grouping.
    pub regions: Vec<RegionRate>,
    /// Threshold cells per location (hours of day × day types); the paper
    /// computes per-hour weekday/weekend statistics, so 48 by default.
    pub threshold_cells_per_location: usize,
}

impl ScenarioBuilder {
    /// A builder over `n_regions` equally loaded locations carrying
    /// `total_rate` tuples/s in aggregate.
    pub fn uniform(model: EstimationModel, n_regions: usize, total_rate: f64) -> Self {
        let rate = total_rate / n_regions.max(1) as f64;
        ScenarioBuilder {
            model,
            regions: (0..n_regions)
                .map(|i| RegionRate { region: format!("R{i}"), rate })
                .collect(),
            threshold_cells_per_location: 48,
        }
    }

    /// Total offered rate.
    pub fn total_rate(&self) -> f64 {
        self.regions.iter().map(|r| r.rate).sum()
    }

    /// Engine service time (ms/tuple) for an engine running `rules`, each
    /// joining thresholds for `locations` locations.
    fn engine_service_ms(&self, rules: &[RuleSpec], locations: usize) -> Result<f64, CoreError> {
        let t = locations * self.threshold_cells_per_location;
        let lats = rules
            .iter()
            .map(|r| self.model.rule_latency(RuleLoad { window: r.window_length, thresholds: t }))
            .collect::<Result<Vec<_>, _>>()?;
        let ms = self.model.engine_latency(&lats)?;
        // Clamp to a sane minimum: every standing statement costs at
        // least ~2 µs per tuple (the cheapest evaluation we ever measure),
        // so the calibrated fold cannot collapse to "free".
        Ok(ms.max(MIN_STATEMENT_MS * rules.len() as f64))
    }

    /// Figures 12/13: one rule set over this builder's locations, routed
    /// under the given approach to `n_engines` engines.
    pub fn partitioning(
        &self,
        approach: PartitioningApproach,
        rules: &[RuleSpec],
        n_engines: usize,
    ) -> Result<Vec<EngineSpec>, CoreError> {
        let partition = partition_rule(&self.regions, n_engines)?;
        let total = self.total_rate();
        let mut out = Vec::with_capacity(n_engines);
        for e in 0..n_engines {
            let own_locations = partition.assignments[e].len();
            let (input_rate, locations) = match approach {
                PartitioningApproach::Proposed => (partition.rates[e], own_locations),
                PartitioningApproach::AllGrouping => (total, own_locations),
                PartitioningApproach::AllRules => {
                    (partition.rates[e], self.regions.len())
                }
            };
            out.push(EngineSpec {
                service_ms: self.engine_service_ms(rules, locations.max(1))?,
                input_rate,
            });
        }
        Ok(out)
    }

    /// Figure 11 / 14 / 15: engines for a set of groupings with an
    /// explicit allocation (from Algorithm 2 or round-robin). Each
    /// grouping's regions are partitioned over its engines; each engine
    /// runs all of its grouping's rules over its share of locations.
    pub fn allocation(
        groupings: &[Grouping],
        allocation: &Allocation,
        model: &EstimationModel,
        threshold_cells_per_location: usize,
    ) -> Result<Vec<EngineSpec>, CoreError> {
        let mut out = Vec::new();
        for (g, &k) in groupings.iter().zip(&allocation.engines) {
            let partition = partition_rule(&g.regions, k)?;
            for e in 0..k {
                let locations = partition.assignments[e].len().max(1);
                let t = locations * threshold_cells_per_location;
                let lats = g
                    .rules
                    .iter()
                    .map(|r| {
                        model.rule_latency(RuleLoad { window: r.window_length, thresholds: t })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let service_ms =
                    model.engine_latency(&lats)?.max(MIN_STATEMENT_MS * g.rules.len() as f64);
                out.push(EngineSpec { service_ms, input_rate: partition.rates[e] });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, SimConfig};
    use tms_core::rules::LocationSelector;
    use tms_traffic::Attribute;

    fn rules(windows: &[usize]) -> Vec<RuleSpec> {
        windows
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                RuleSpec::new(format!("r{i}"), Attribute::Delay, LocationSelector::QuadtreeLeaves, w)
            })
            .collect()
    }

    fn builder() -> ScenarioBuilder {
        ScenarioBuilder::uniform(EstimationModel::default_paper_shaped(), 64, 3000.0)
    }

    fn sim(nodes: usize) -> SimConfig {
        SimConfig { nodes, cores_per_node: 1, ..SimConfig::default() }
    }

    #[test]
    fn proposed_beats_all_grouping_and_all_rules() {
        let b = builder();
        let rs = rules(&[100; 10]);
        let n = 8;
        let ours = simulate(&b.partitioning(PartitioningApproach::Proposed, &rs, n).unwrap(), sim(8)).unwrap();
        let all_g = simulate(&b.partitioning(PartitioningApproach::AllGrouping, &rs, n).unwrap(), sim(8)).unwrap();
        let all_r = simulate(&b.partitioning(PartitioningApproach::AllRules, &rs, n).unwrap(), sim(8)).unwrap();
        // Figure 13's ordering: proposed sustains the most *distinct*
        // input. (All-grouping processes duplicates; its useful
        // throughput is total/n.)
        let useful_all_g = all_g.total_throughput / n as f64;
        assert!(
            ours.total_throughput >= useful_all_g,
            "ours {} vs all-grouping useful {}",
            ours.total_throughput,
            useful_all_g
        );
        assert!(
            ours.total_throughput >= all_r.total_throughput,
            "ours {} vs all-rules {}",
            ours.total_throughput,
            all_r.total_throughput
        );
        // Figure 12's ordering: ours has the lowest latency.
        assert!(ours.avg_latency_ms <= all_g.avg_latency_ms);
        assert!(ours.avg_latency_ms <= all_r.avg_latency_ms);
    }

    #[test]
    fn throughput_scales_with_engines() {
        let b = builder();
        let rs = rules(&[100; 10]);
        let t4 = simulate(&b.partitioning(PartitioningApproach::Proposed, &rs, 4).unwrap(), sim(7))
            .unwrap()
            .total_throughput;
        let t12 =
            simulate(&b.partitioning(PartitioningApproach::Proposed, &rs, 12).unwrap(), sim(7))
                .unwrap()
                .total_throughput;
        assert!(t12 >= t4, "t4 {t4} vs t12 {t12}");
    }

    #[test]
    fn heavier_windows_cost_throughput() {
        let b = builder();
        let light = rules(&[1; 10]);
        let heavy = rules(&[1000; 10]);
        let tl = simulate(&b.partitioning(PartitioningApproach::Proposed, &light, 6).unwrap(), sim(6))
            .unwrap();
        let th = simulate(&b.partitioning(PartitioningApproach::Proposed, &heavy, 6).unwrap(), sim(6))
            .unwrap();
        assert!(tl.total_throughput >= th.total_throughput);
        assert!(tl.avg_latency_ms <= th.avg_latency_ms);
    }

    #[test]
    fn allocation_scenario_builds_engines_per_grouping() {
        let model = EstimationModel::default_paper_shaped();
        let g = Grouping {
            name: "g".into(),
            layers: vec![0],
            rules: rules(&[10, 10]),
            regions: (0..8).map(|i| RegionRate { region: format!("R{i}"), rate: 100.0 }).collect(),
            thresholds: vec![100, 100],
        };
        let allocation = Allocation { engines: vec![3], scores: vec![0.0] };
        let engines =
            ScenarioBuilder::allocation(&[g], &allocation, &model, 48).unwrap();
        assert_eq!(engines.len(), 3);
        let total: f64 = engines.iter().map(|e| e.input_rate).sum();
        assert!((total - 800.0).abs() < 1e-9, "rates partition the stream");
    }
}
