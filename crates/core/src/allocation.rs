//! Rules allocation — Algorithm 2 of the paper (Section 4.2.2).
//!
//! Rules are organized into **groupings** of quadtree layers. Rules whose
//! layers share a grouping are partitioned together (at the grouping's
//! highest layer, Section 4.2.1), so an incoming tuple is transmitted to
//! **one engine per grouping**: fewer groupings mean fewer
//! re-transmissions, but cramming every rule into one grouping makes each
//! engine run every rule, inflating its latency (Function 2). Algorithm 2
//! navigates that trade-off: give each grouping one engine, then hand the
//! remaining engines one by one to the grouping whose score grows the
//! most.
//!
//! **Score interpretation.** Equation 1 gives the time to process a
//! rule's input on an engine, `time = inputRate × latency`; Equation 2
//! weights rules by operator-assigned importance. We score a grouping
//! with `k` engines as the weighted fraction of its input rate its
//! engines can sustain: partition the grouping's regions over `k` engines
//! (Algorithm 1), cap every engine at `1/latency` tuples per unit time,
//! and sum. This keeps Equation 1's quantities and Algorithm 2's greedy
//! structure while making "maximize the score" well-defined.

// `!(x > 0.0)` is used deliberately in validations: unlike `x <= 0.0`
// it also rejects NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use crate::error::CoreError;
use crate::latency::EstimationModel;
use crate::partitioning::{partition_rule, RegionRate};
use crate::rules::RuleSpec;
use serde::{Deserialize, Serialize};

/// One grouping: a set of quadtree layers, the rules monitoring them, and
/// the region rates at the grouping's partition layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Grouping {
    /// Display name (e.g. `layers 0-2` or `bus stops`).
    pub name: String,
    /// The layers merged into this grouping.
    pub layers: Vec<u8>,
    /// Rules of this grouping.
    pub rules: Vec<RuleSpec>,
    /// Regions of the partition layer (the grouping's *highest possible
    /// layer*, Section 4.2.2) with their input rates.
    pub regions: Vec<RegionRate>,
    /// Thresholds each rule joins with (Function 1's `t`), parallel to
    /// `rules`.
    pub thresholds: Vec<usize>,
}

impl Grouping {
    /// Total input rate of the grouping (every grouping sees the whole
    /// stream — each tuple belongs to one region of each layer).
    pub fn total_rate(&self) -> f64 {
        self.regions.iter().map(|r| r.rate).sum()
    }

    /// Sum of rule weights.
    pub fn total_weight(&self) -> f64 {
        self.rules.iter().map(|r| r.weight).sum()
    }

    /// Engine latency (ms/tuple) for an engine running all of this
    /// grouping's rules — the Function 2 fold.
    pub fn engine_latency(&self, model: &EstimationModel) -> Result<f64, CoreError> {
        let lats = self
            .rules
            .iter()
            .zip(&self.thresholds)
            .map(|(r, &t)| model.rule_latency(r.load(t)))
            .collect::<Result<Vec<_>, _>>()?;
        model.engine_latency(&lats)
    }

    /// Input rate (tuples/s) the grouping's `k` engines can sustain:
    /// Algorithm 1 partitions the regions, every engine is capped at
    /// `1/latency`, and the sustained rates add up.
    pub fn sustained(&self, model: &EstimationModel, k: usize) -> Result<f64, CoreError> {
        if k == 0 {
            return Ok(0.0);
        }
        if self.rules.is_empty() {
            return Err(CoreError::Config {
                reason: format!("grouping {} has no rules", self.name),
            });
        }
        let latency_ms = self.engine_latency(model)?;
        let capacity = if latency_ms > 0.0 { 1000.0 / latency_ms } else { f64::INFINITY };
        let partition = partition_rule(&self.regions, k)?;
        Ok(partition.rates.iter().map(|&r| r.min(capacity)).sum())
    }

    /// Score with `k` engines: weighted sustained fraction of the input.
    pub fn score(&self, model: &EstimationModel, k: usize) -> Result<f64, CoreError> {
        let total: f64 = self.total_rate();
        if total <= 0.0 {
            return Ok(0.0);
        }
        Ok(self.total_weight() * self.sustained(model, k)? / total)
    }
}

/// The allocation computed by Algorithm 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// Engines per grouping, parallel to the input groupings.
    pub engines: Vec<usize>,
    /// Final score per grouping.
    pub scores: Vec<f64>,
}

impl Allocation {
    /// `(grouping, engine-within-grouping)` → global engine index ranges:
    /// grouping `g`'s engines start at `offsets[g]`.
    pub fn offsets(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.engines.len());
        let mut acc = 0;
        for &e in &self.engines {
            out.push(acc);
            acc += e;
        }
        out
    }
}

/// Algorithm 2: allocates `n_engines` to the groupings greedily.
///
/// Every tuple visits **one engine of every grouping**, so the system's
/// end-to-end rate is the *slowest grouping's* sustained rate. The greedy
/// step therefore hands each extra engine to the grouping whose upgrade
/// yields the largest system improvement — in practice, the current
/// bottleneck (this is the consistent reading of the paper's "grouping
/// that leads to the greater score increase": a non-bottleneck grouping's
/// upgrade does not move Equation 2's min-time term at all).
pub fn allocate(
    model: &EstimationModel,
    groupings: &[Grouping],
    n_engines: usize,
) -> Result<Allocation, CoreError> {
    if groupings.is_empty() {
        return Err(CoreError::Config { reason: "no groupings to allocate".into() });
    }
    if n_engines < groupings.len() {
        return Err(CoreError::Config {
            reason: format!(
                "{} engines cannot cover {} groupings",
                n_engines,
                groupings.len()
            ),
        });
    }
    // Each grouping starts with one engine. The bottleneck measure is
    // the *fraction of its own offered stream* a grouping sustains — a
    // grouping already keeping up with its input (fraction 1) is never a
    // bottleneck, regardless of absolute rates.
    let fraction = |g: &Grouping, sustained: f64| -> f64 {
        let total = g.total_rate();
        if total > 0.0 {
            sustained / total
        } else {
            1.0
        }
    };
    let mut engines = vec![1usize; groupings.len()];
    let mut fractions = groupings
        .iter()
        .map(|g| g.sustained(model, 1).map(|s| fraction(g, s)))
        .collect::<Result<Vec<_>, _>>()?;
    for _ in 0..(n_engines - groupings.len()) {
        // Candidate system fraction if grouping gi gets the extra engine.
        let mut best: Option<(usize, f64, f64)> = None; // (gi, system, new_fraction)
        for (gi, g) in groupings.iter().enumerate() {
            let upgraded = fraction(g, g.sustained(model, engines[gi] + 1)?);
            let system = fractions
                .iter()
                .enumerate()
                .map(|(i, &f)| if i == gi { upgraded } else { f })
                .fold(f64::INFINITY, f64::min);
            let better = match best {
                None => true,
                Some((bi, best_system, _)) => {
                    system > best_system
                        // Tie-break towards the weakest grouping so ties
                        // still shrink the bottleneck eventually.
                        || (system == best_system && fractions[gi] < fractions[bi])
                }
            };
            if better {
                best = Some((gi, system, upgraded));
            }
        }
        let (gi, _, upgraded) = best.expect("groupings is non-empty");
        engines[gi] += 1;
        fractions[gi] = upgraded;
    }
    let scores = groupings
        .iter()
        .zip(&engines)
        .map(|(g, &k)| g.score(model, k))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Allocation { engines, scores })
}

/// The end-to-end sustained *fraction* of an allocation: the slowest
/// grouping's sustained share of its offered stream (every tuple must
/// clear every grouping). 1.0 means the system keeps up everywhere.
pub fn system_rate(
    model: &EstimationModel,
    groupings: &[Grouping],
    allocation: &Allocation,
) -> Result<f64, CoreError> {
    let mut min = f64::INFINITY;
    for (g, &k) in groupings.iter().zip(&allocation.engines) {
        let total = g.total_rate();
        let f = if total > 0.0 { g.sustained(model, k)? / total } else { 1.0 };
        min = min.min(f);
    }
    Ok(min)
}

/// The round-robin baseline of Figure 11: engines are dealt to the
/// groupings (per-layer, as the paper describes) in turn, ignoring load.
pub fn round_robin(groupings: &[Grouping], n_engines: usize) -> Result<Allocation, CoreError> {
    if groupings.is_empty() {
        return Err(CoreError::Config { reason: "no groupings to allocate".into() });
    }
    if n_engines < groupings.len() {
        return Err(CoreError::Config {
            reason: format!(
                "{} engines cannot cover {} groupings",
                n_engines,
                groupings.len()
            ),
        });
    }
    let mut engines = vec![0usize; groupings.len()];
    for i in 0..n_engines {
        engines[i % groupings.len()] += 1;
    }
    Ok(Allocation { engines, scores: vec![0.0; groupings.len()] })
}

/// Builds candidate grouping sets from per-layer rule sets and returns
/// the one Algorithm 2 scores best.
///
/// `layer_groups` lists `(layer, rules, regions, thresholds)` sorted by
/// layer. Candidates are the contiguous-range partitions of the layer
/// sequence (merging hierarchically adjacent layers is what saves
/// re-transmissions); each candidate's merged grouping partitions at its
/// highest layer, i.e. uses that layer's regions.
pub fn best_grouping_allocation(
    model: &EstimationModel,
    layer_groups: &[Grouping],
    n_engines: usize,
) -> Result<(Vec<Grouping>, Allocation), CoreError> {
    if layer_groups.is_empty() {
        return Err(CoreError::Config { reason: "no layer groups".into() });
    }
    let n = layer_groups.len();
    let mut best: Option<(Vec<Grouping>, Allocation, f64)> = None;
    // 2^(n-1) contiguous partitions, masked by split points.
    for mask in 0..(1u32 << (n - 1)) {
        let mut candidate: Vec<Grouping> = Vec::new();
        let mut current: Option<Grouping> = None;
        for (i, lg) in layer_groups.iter().enumerate() {
            match current.as_mut() {
                None => current = Some(lg.clone()),
                Some(c) => {
                    c.layers.extend(lg.layers.iter().copied());
                    c.rules.extend(lg.rules.iter().cloned());
                    c.thresholds.extend(lg.thresholds.iter().copied());
                    // Partition at the *first* (coarsest) layer's regions:
                    // coarser regions contain the finer ones, so the
                    // merged grouping keeps `c.regions` as is.
                    c.name = format!("{}+{}", c.name, lg.name);
                }
            }
            let split_here = i + 1 < n && (mask >> i) & 1 == 1;
            if split_here {
                candidate.push(current.take().expect("current is set"));
            }
        }
        candidate.push(current.take().expect("current is set"));
        if n_engines < candidate.len() {
            continue;
        }
        let allocation = allocate(model, &candidate, n_engines)?;
        let rate = system_rate(model, &candidate, &allocation)?;
        let better = match &best {
            None => true,
            // Prefer the higher end-to-end rate; on ties, fewer groupings
            // (fewer re-transmissions of every tuple).
            Some((g, _, r)) => rate > *r || (rate == *r && candidate.len() < g.len()),
        };
        if better {
            best = Some((candidate, allocation, rate));
        }
    }
    best.map(|(g, a, _)| (g, a)).ok_or_else(|| CoreError::Config {
        reason: format!("{n_engines} engines cannot cover even one grouping"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::LocationSelector;
    use tms_traffic::Attribute;

    fn regions(n: usize, rate: f64) -> Vec<RegionRate> {
        (0..n).map(|i| RegionRate { region: format!("R{i}"), rate }).collect()
    }

    fn rule(name: &str, window: usize) -> RuleSpec {
        RuleSpec::new(name, Attribute::Delay, LocationSelector::QuadtreeLeaves, window)
    }

    fn grouping(name: &str, windows: &[usize], n_regions: usize, rate: f64) -> Grouping {
        Grouping {
            name: name.into(),
            layers: vec![0],
            rules: windows.iter().enumerate().map(|(i, &w)| rule(&format!("{name}-{i}"), w)).collect(),
            regions: regions(n_regions, rate),
            thresholds: vec![100; windows.len()],
        }
    }

    fn model() -> EstimationModel {
        EstimationModel::default_paper_shaped()
    }

    #[test]
    fn score_increases_with_engines_until_saturation() {
        // 16 regions × 400 t/s = 6400 t/s total; one engine (capacity
        // ~970 t/s at two l=100 rules) cannot sustain it alone.
        let g = grouping("g", &[100, 100], 16, 400.0);
        let m = model();
        let s1 = g.score(&m, 1).unwrap();
        let s4 = g.score(&m, 4).unwrap();
        let s16 = g.score(&m, 16).unwrap();
        assert!(s4 > s1, "more engines, more sustained load: {s1} vs {s4}");
        assert!(s16 >= s4);
        // Fully sustained: score caps at total weight.
        assert!(s16 <= g.total_weight() + 1e-9);
        // Zero engines: zero score.
        assert_eq!(g.score(&m, 0).unwrap(), 0.0);
    }

    #[test]
    fn heavier_windows_score_lower() {
        let light = grouping("light", &[1], 16, 50.0);
        let heavy = grouping("heavy", &[1000], 16, 50.0);
        let m = model();
        assert!(light.score(&m, 2).unwrap() > heavy.score(&m, 2).unwrap());
    }

    #[test]
    fn algorithm2_gives_extra_engines_to_the_needier_grouping() {
        // A heavy grouping (large windows, high rate) and a light one.
        let g = vec![grouping("heavy", &[1000, 1000], 16, 60.0), grouping("light", &[1], 16, 5.0)];
        let m = model();
        let a = allocate(&m, &g, 10).unwrap();
        assert_eq!(a.engines.iter().sum::<usize>(), 10);
        assert!(a.engines[0] > a.engines[1], "heavy grouping needs more engines: {:?}", a.engines);
        assert!(a.engines[1] >= 1, "every grouping keeps at least one engine");
    }

    #[test]
    fn allocation_uses_every_engine_and_beats_round_robin() {
        let g = vec![
            grouping("quadtree", &[100, 100, 100], 32, 40.0),
            grouping("stops", &[1], 50, 2.0),
        ];
        let m = model();
        let ours = allocate(&m, &g, 12).unwrap();
        let rr = round_robin(&g, 12).unwrap();
        assert_eq!(rr.engines, vec![6, 6]);
        // Compare on the end-to-end system rate.
        let ours_rate = system_rate(&m, &g, &ours).unwrap();
        let rr_rate = system_rate(&m, &g, &rr).unwrap();
        assert!(
            ours_rate >= rr_rate - 1e-9,
            "greedy {ours_rate} must be at least round-robin {rr_rate}"
        );
    }

    #[test]
    fn error_cases() {
        let m = model();
        assert!(allocate(&m, &[], 3).is_err());
        let g = vec![grouping("a", &[1], 4, 1.0), grouping("b", &[1], 4, 1.0)];
        assert!(allocate(&m, &g, 1).is_err(), "fewer engines than groupings");
        assert!(round_robin(&[], 3).is_err());
        let empty_rules = Grouping {
            name: "empty".into(),
            layers: vec![0],
            rules: vec![],
            regions: regions(2, 1.0),
            thresholds: vec![],
        };
        assert!(empty_rules.score(&m, 1).is_err());
    }

    #[test]
    fn best_grouping_merges_when_engines_are_scarce() {
        // Three layer groups; with barely enough engines, merging wins
        // because each grouping sees the full stream.
        let layer_groups = vec![
            grouping("L2", &[100], 16, 40.0),
            grouping("L3", &[100], 16, 40.0),
            grouping("stops", &[100], 16, 40.0),
        ];
        let m = model();
        let (merged, alloc) = best_grouping_allocation(&m, &layer_groups, 3).unwrap();
        assert!(merged.len() <= 3);
        assert_eq!(alloc.engines.iter().sum::<usize>(), 3);
        // With plenty of engines the optimizer may split; whatever it
        // does must score at least the all-merged baseline.
        let (gs, alloc_many) = best_grouping_allocation(&m, &layer_groups, 20).unwrap();
        let all_merged = {
            let mut g = layer_groups[0].clone();
            for lg in &layer_groups[1..] {
                g.rules.extend(lg.rules.iter().cloned());
                g.thresholds.extend(lg.thresholds.iter().copied());
            }
            g
        };
        let merged_fraction =
            all_merged.sustained(&m, 20).unwrap() / all_merged.total_rate();
        let chosen_fraction = system_rate(&m, &gs, &alloc_many).unwrap();
        assert!(
            chosen_fraction >= merged_fraction - 1e-9,
            "chosen {chosen_fraction} vs all-merged {merged_fraction}"
        );
    }

    #[test]
    fn offsets_partition_the_engine_range() {
        let a = Allocation { engines: vec![3, 1, 4], scores: vec![0.0; 3] };
        assert_eq!(a.offsets(), vec![0, 3, 4]);
    }
}
