//! Sample summaries: the median (the gated value) and the highest
//! percentile that still has at least ten samples beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A timing reported as median, tail percentile and sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median of the samples (mean of the middle two for an even count).
    pub median: f64,
    /// `(percentile, value)` of the highest whole percentile with at least
    /// [`TAIL_MIN_BEYOND`] samples above it; `None` below 20 samples, where
    /// that percentile would fall under the median.
    pub tail: Option<(u32, f64)>,
    /// Number of samples.
    pub n: usize,
}

/// The highest whole percentile `p` (at least the median) whose
/// nearest-rank value leaves at least [`TAIL_MIN_BEYOND`] of `n` samples
/// strictly beyond it.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 2 * TAIL_MIN_BEYOND {
        return None;
    }
    // Nearest rank of p is ceil(p·n/100); it must be at most n − 10.
    (50..=99u32)
        .rev()
        .find(|&p| nearest_rank(p, n) + TAIL_MIN_BEYOND <= n)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Summarizes `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    let tail = tail_percentile(n).map(|p| (p, s[nearest_rank(p, n) - 1]));
    Some(Summary { median, tail, n })
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}
