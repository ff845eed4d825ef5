//! Small statistics and host probes.

use std::time::{Duration, Instant};

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// the closest ranks; `NaN` for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile (0..=1) of all samples in `groups`, each group
/// weighing the same whatever its size: the first value, in sorted order,
/// at which the cumulative weight reaches `q` of the total. A run that
/// ends part way through its inputs then does not tilt its figures
/// towards the inputs it ran once more. `NaN` when there are no samples.
#[must_use]
pub fn balanced_quantile(groups: &[Vec<f64>], q: f64) -> f64 {
    let mut weighted: Vec<(f64, f64)> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .flat_map(|g| g.iter().map(move |&v| (v, 1.0 / g.len() as f64)))
        .collect();
    if weighted.is_empty() {
        return f64::NAN;
    }
    weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = weighted.iter().map(|&(_, w)| w).sum();
    let target = q.clamp(0.0, 1.0) * total;
    let mut cumulative = 0.0;
    for &(value, weight) in &weighted {
        cumulative += weight;
        if cumulative >= target - 1e-9 * total {
            return value;
        }
    }
    weighted[weighted.len() - 1].0
}

/// Keeps the heap memory this process frees mapped, instead of handing it
/// back to the kernel (glibc's `mallopt`: no trimming, and the largest
/// threshold for serving an allocation from its own mapping). A campaign
/// frees its ~21 MB frontier when it ends; with the default policy the
/// next one faulted ~70 MB back in, and on a virtual machine whose
/// balloon reports free pages to the host those faults go to the host and
/// cost what its load makes them cost. Must run before any other thread
/// starts.
pub fn retain_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only adjusts allocator parameters; it is called
    // before this process starts any other thread.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

/// The peak resident set (`VmHWM`) of process `pid`, in MiB.
#[must_use]
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The cost of one `Instant::now()` pair, as the median of many, so
/// per-operation timings can have the timer itself taken out.
#[must_use]
pub fn timer_overhead() -> Duration {
    let mut samples: Vec<f64> = (0..2001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    Duration::from_nanos(median(&samples) as u64)
}

/// Accumulates timed operations of one kind: how many, how long in all,
/// and how many timer readings went into that total.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpTimer {
    /// Operations performed.
    pub ops: u64,
    /// Timed intervals recorded.
    pub intervals: u64,
    /// Sum of the recorded intervals.
    pub total: Duration,
}

impl OpTimer {
    /// Records one interval that covered `ops` operations.
    pub fn add(&mut self, started: Instant, ops: u64) {
        self.total += started.elapsed();
        self.intervals += 1;
        self.ops += ops;
    }

    /// Nanoseconds per operation, with the timer's own cost (`overhead`
    /// per interval) subtracted; `NaN` when nothing was timed.
    #[must_use]
    pub fn ns_per_op(&self, overhead: Duration) -> f64 {
        if self.ops == 0 {
            return f64::NAN;
        }
        let spent =
            self.total.as_nanos() as f64 - overhead.as_nanos() as f64 * self.intervals as f64;
        spent.max(0.0) / self.ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-9);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn balanced_quantiles_weigh_groups_equally() {
        // Unweighted, the three 1.0s of the first group set the median.
        let groups = [vec![1.0, 1.0, 1.0], vec![5.0], vec![6.0]];
        assert_eq!(balanced_quantile(&groups, 0.5), 5.0);
        assert_eq!(balanced_quantile(&groups, 0.0), 1.0);
        assert_eq!(balanced_quantile(&groups, 1.0), 6.0);
        assert_eq!(balanced_quantile(&[vec![3.0, 1.0, 2.0]], 0.5), 2.0);
        assert!(balanced_quantile(&[vec![]], 0.5).is_nan());
    }

    #[test]
    fn op_timer_subtracts_the_timer() {
        let t = OpTimer {
            ops: 20,
            intervals: 10,
            total: Duration::from_nanos(1_000),
        };
        assert_eq!(t.ns_per_op(Duration::from_nanos(20)), 40.0);
    }
}
