//! Aggregation functions.
//!
//! `stddev` is the *sample* standard deviation (n−1 denominator), matching
//! Esper's `stddev` aggregate, which the paper's thresholds build on.

use crate::ast::AggFunc;
use crate::error::CepError;

/// Incremental accumulator for one aggregate call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accumulator {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator { count: 0, sum: 0.0, sum_sq: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one numeric sample.
    pub fn add(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds a row without a value — only meaningful for `count(*)`.
    pub fn add_row(&mut self) {
        self.count += 1;
    }

    /// Removes one previously-added sample (the inverse of [`add`], used
    /// when a window evicts an event). Count/sum/sum_sq subtract exactly;
    /// min/max cannot be subtracted, so the return value is `true` when
    /// the removed value sat at an extremum — the caller must then
    /// recompute from the surviving values before the next `min`/`max`
    /// finish. Removing the last sample resets the accumulator wholesale,
    /// clearing any accumulated float drift.
    ///
    /// [`add`]: Accumulator::add
    pub fn remove(&mut self, v: f64) -> bool {
        debug_assert!(self.count > 0, "remove without matching add");
        self.count -= 1;
        if self.count == 0 {
            *self = Accumulator::new();
            return false;
        }
        self.sum -= v;
        self.sum_sq -= v * v;
        v <= self.min || v >= self.max
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The raw `(count, sum, sum_sq, min, max)` moments, for serializing
    /// accumulator state into a durability snapshot. Paired with
    /// [`from_raw_parts`](Accumulator::from_raw_parts) the round trip is
    /// bit-exact, so restored state finalizes identically.
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.sum, self.sum_sq, self.min, self.max)
    }

    /// Rebuilds an accumulator from [`raw_parts`](Accumulator::raw_parts).
    pub fn from_raw_parts(count: u64, sum: f64, sum_sq: f64, min: f64, max: f64) -> Self {
        Accumulator { count, sum, sum_sq, min, max }
    }

    /// The accumulator that would result from adding every sample `k`
    /// times instead of once: count/sum/sum_sq scale linearly, min/max
    /// are unchanged. The shared-join path uses this to finalize one
    /// per-pane accumulator under a join multiplicity of `k` — for
    /// integer-valued samples `k·sum` and `k·sum_sq` are exact, so the
    /// result matches a rescan that visited each row `k` times
    /// bit-for-bit.
    pub fn scaled(&self, k: u64) -> Accumulator {
        if k == 1 || self.count == 0 {
            return self.clone();
        }
        Accumulator {
            count: self.count * k,
            sum: self.sum * k as f64,
            sum_sq: self.sum_sq * k as f64,
            min: self.min,
            max: self.max,
        }
    }

    /// Finalizes the aggregate. Returns an error for value-less aggregates
    /// over an empty input (`avg`/`min`/`max`/`stddev` of nothing), which
    /// the engine treats as "group does not fire".
    pub fn finish(&self, func: AggFunc) -> Result<f64, CepError> {
        match func {
            AggFunc::Count => Ok(self.count as f64),
            AggFunc::Sum => Ok(self.sum),
            AggFunc::Avg => {
                if self.count == 0 {
                    Err(empty(func))
                } else {
                    Ok(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => {
                if self.count == 0 {
                    Err(empty(func))
                } else {
                    Ok(self.min)
                }
            }
            AggFunc::Max => {
                if self.count == 0 {
                    Err(empty(func))
                } else {
                    Ok(self.max)
                }
            }
            AggFunc::Stddev => {
                if self.count < 2 {
                    Err(empty(func))
                } else {
                    let n = self.count as f64;
                    let var = (self.sum_sq - self.sum * self.sum / n) / (n - 1.0);
                    // Guard tiny negative values from float cancellation.
                    Ok(var.max(0.0).sqrt())
                }
            }
        }
    }
}

fn empty(func: AggFunc) -> CepError {
    let name = match func {
        AggFunc::Avg => "avg",
        AggFunc::Sum => "sum",
        AggFunc::Count => "count",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
        AggFunc::Stddev => "stddev",
    };
    CepError::EmptyAggregate { func: name }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(values: &[f64]) -> Accumulator {
        let mut a = Accumulator::new();
        for &v in values {
            a.add(v);
        }
        a
    }

    #[test]
    fn basic_aggregates() {
        let a = acc(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.finish(AggFunc::Count).unwrap(), 4.0);
        assert_eq!(a.finish(AggFunc::Sum).unwrap(), 10.0);
        assert_eq!(a.finish(AggFunc::Avg).unwrap(), 2.5);
        assert_eq!(a.finish(AggFunc::Min).unwrap(), 1.0);
        assert_eq!(a.finish(AggFunc::Max).unwrap(), 4.0);
    }

    #[test]
    fn sample_stddev() {
        // Sample stddev of [2,4,4,4,5,5,7,9] is ≈ 2.138.
        let a = acc(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        let s = a.finish(AggFunc::Stddev).unwrap();
        assert!((s - 2.138089935).abs() < 1e-6, "got {s}");
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        let a = acc(&[5.0; 10]);
        assert_eq!(a.finish(AggFunc::Stddev).unwrap(), 0.0);
    }

    #[test]
    fn empty_inputs() {
        let a = Accumulator::new();
        assert_eq!(a.finish(AggFunc::Count).unwrap(), 0.0);
        assert_eq!(a.finish(AggFunc::Sum).unwrap(), 0.0);
        assert!(matches!(a.finish(AggFunc::Avg), Err(CepError::EmptyAggregate { .. })));
        assert!(a.finish(AggFunc::Min).is_err());
        assert!(a.finish(AggFunc::Stddev).is_err());
        // Single sample: stddev undefined (n-1 = 0).
        assert!(acc(&[1.0]).finish(AggFunc::Stddev).is_err());
    }

    #[test]
    fn count_star_rows() {
        let mut a = Accumulator::new();
        a.add_row();
        a.add_row();
        assert_eq!(a.finish(AggFunc::Count).unwrap(), 2.0);
    }

    #[test]
    fn remove_inverts_add() {
        let mut a = acc(&[1.0, 2.0, 3.0, 4.0]);
        let stale = a.remove(2.0);
        assert!(!stale, "2.0 was not an extremum");
        assert_eq!(a.finish(AggFunc::Count).unwrap(), 3.0);
        assert_eq!(a.finish(AggFunc::Sum).unwrap(), 8.0);
        assert!((a.finish(AggFunc::Avg).unwrap() - 8.0 / 3.0).abs() < 1e-12);
        // Extrema survive: 2.0 was interior.
        assert_eq!(a.finish(AggFunc::Min).unwrap(), 1.0);
        assert_eq!(a.finish(AggFunc::Max).unwrap(), 4.0);
    }

    #[test]
    fn remove_flags_a_removed_extremum() {
        let mut a = acc(&[1.0, 2.0, 3.0, 4.0]);
        assert!(a.remove(4.0), "max removal must flag stale extrema");
        assert!(a.remove(1.0), "min removal must flag stale extrema");
        assert!(!a.remove(2.0), "an interior value is no extremum");
    }

    #[test]
    fn removing_last_sample_resets() {
        let mut a = acc(&[7.0]);
        a.remove(7.0);
        assert_eq!(a.finish(AggFunc::Count).unwrap(), 0.0);
        assert_eq!(a.finish(AggFunc::Sum).unwrap(), 0.0);
        assert!(a.finish(AggFunc::Min).is_err());
        // Refilling behaves like a fresh accumulator.
        a.add(3.0);
        assert_eq!(a.finish(AggFunc::Min).unwrap(), 3.0);
        assert_eq!(a.finish(AggFunc::Max).unwrap(), 3.0);
    }

    #[test]
    fn scaled_matches_k_fold_repeated_adds() {
        // scaled(k) must equal an accumulator that saw every sample k
        // times — the join-multiplicity contract of the shared path.
        let base = acc(&[2.0, 4.0, 5.0, 9.0]);
        for k in [1u64, 2, 3, 7] {
            let mut repeated = Accumulator::new();
            for &v in &[2.0, 4.0, 5.0, 9.0] {
                for _ in 0..k {
                    repeated.add(v);
                }
            }
            let s = base.scaled(k);
            for f in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max, AggFunc::Stddev] {
                assert_eq!(s.finish(f).unwrap(), repeated.finish(f).unwrap(), "{f:?} k={k}");
            }
        }
        // Scaling an empty accumulator stays empty.
        assert_eq!(Accumulator::new().scaled(5).count(), 0);
    }

    #[test]
    fn stddev_stays_exact_through_integer_add_remove_cycles() {
        // Integer-valued samples keep sum/sum_sq arithmetic exact, so a
        // remove-then-finish matches a fresh accumulator bit-for-bit —
        // the property pane-served evaluation relies on.
        let mut a = acc(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        a.remove(2.0);
        a.remove(9.0);
        let fresh = acc(&[4.0, 4.0, 4.0, 5.0, 5.0, 7.0]);
        assert_eq!(
            a.finish(AggFunc::Stddev).unwrap(),
            fresh.finish(AggFunc::Stddev).unwrap()
        );
        assert_eq!(a.finish(AggFunc::Avg).unwrap(), fresh.finish(AggFunc::Avg).unwrap());
    }
}
