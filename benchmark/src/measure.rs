//! Measurement primitives: process resource usage and order statistics.

/// Process-wide resource usage at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU seconds consumed so far.
    pub cpu_s: f64,
    /// Peak resident set size so far, in MB.
    pub max_rss_mb: f64,
    /// Voluntary + involuntary context switches so far.
    pub ctx_switches: u64,
    /// vCPU-seconds the hypervisor has withheld from this machine so far
    /// (0 where the kernel does not report it).
    pub steal_s: f64,
}

/// The `steal` column of the first line of `/proc/stat`, in seconds.
fn steal_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Reads `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut raw = Rusage::default();
    // SAFETY: `raw` is a live, writable `Rusage` whose `repr(C)` layout is
    // the kernel's `struct rusage` on 64-bit Linux (the only target this
    // harness builds for), and `getrusage` writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(raw.utime) + secs(raw.stime),
        max_rss_mb: raw.maxrss as f64 / 1024.0,
        ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
        steal_s: steal_s(),
    }
}

/// A timed stretch of work: its wall time and what the process and the
/// host did meanwhile.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stretch {
    /// Wall seconds from start to end.
    pub wall_s: f64,
    /// Process CPU seconds (user + system) consumed.
    pub cpu_s: f64,
    /// vCPU-seconds the hypervisor withheld from the machine.
    pub steal_s: f64,
    /// Context switches of the process.
    pub ctx_switches: u64,
}

impl Stretch {
    /// From `before` until now, `wall_s` given by the caller's own clock.
    pub fn since(before: Usage, wall_s: f64) -> Stretch {
        let after = usage();
        Stretch {
            wall_s,
            cpu_s: after.cpu_s - before.cpu_s,
            steal_s: (after.steal_s - before.steal_s).max(0.0),
            ctx_switches: after.ctx_switches - before.ctx_switches,
        }
    }

    /// Wall seconds the work would have taken had the hypervisor granted
    /// every vCPU-second the process asked for: of `cpu_s + steal_s`
    /// demanded it got `cpu_s`, and the wall time is scaled by that share.
    /// Equal to `wall_s` on a host that steals nothing. Only meaningful
    /// for work that is never idle by choice (a max-rate replay, a
    /// set-up), with the benchmark the only load on the machine.
    pub fn granted_wall_s(&self) -> f64 {
        let demanded = self.cpu_s + self.steal_s;
        if demanded > 0.0 && self.cpu_s > 0.0 {
            self.wall_s * self.cpu_s / demanded
        } else {
            self.wall_s
        }
    }
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let (j, delta) = ((pos / 4).clamp(1, n - 1), (pos % 4) as f64);
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The `p`-th percentile (nearest rank) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of 90 / 99 / 99.9 / 99.99 that still has at least ten
/// samples beyond it, or `None` when even p90 does not.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| samples as f64 * (100.0 - p) / 100.0 >= 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(179_000), Some(99.99));
        assert_eq!(highest_supported_percentile(99_999), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
    }

    #[test]
    fn granted_wall_scales_by_the_share_of_demanded_cpu_that_was_granted() {
        let quiet = Stretch {
            wall_s: 2.0,
            cpu_s: 3.5,
            steal_s: 0.0,
            ctx_switches: 0,
        };
        assert_eq!(quiet.granted_wall_s(), 2.0);
        // One thread that needed 1 s of CPU and lost 1 s to the host.
        let single = Stretch {
            wall_s: 2.0,
            cpu_s: 1.0,
            steal_s: 1.0,
            ctx_switches: 0,
        };
        assert_eq!(single.granted_wall_s(), 1.0);
        // Two busy vCPUs, each withheld for a quarter of the time.
        let both = Stretch {
            wall_s: 4.0,
            cpu_s: 6.0,
            steal_s: 2.0,
            ctx_switches: 0,
        };
        assert_eq!(both.granted_wall_s(), 3.0);
        // Nothing measured: leave the wall time alone.
        assert_eq!(
            Stretch {
                wall_s: 1.0,
                ..Stretch::default()
            }
            .granted_wall_s(),
            1.0
        );
    }

    #[test]
    fn rusage_deltas_are_monotone() {
        let before = usage();
        // Burn a little CPU and touch memory so the counters can move.
        let mut v = vec![0u64; 1 << 20];
        for (i, x) in v.iter_mut().enumerate() {
            *x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        std::hint::black_box(&v);
        let after = usage();
        assert!(after.cpu_s >= before.cpu_s);
        assert!(after.max_rss_mb >= before.max_rss_mb && after.max_rss_mb > 1.0);
        assert!(after.ctx_switches >= before.ctx_switches);
        assert!(after.steal_s >= before.steal_s);
    }
}
