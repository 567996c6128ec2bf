//! Order statistics for latency samples and the engine's log2 histograms.

use tse_telemetry::HistogramSnapshot;

/// A latency percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (e.g. 99.0).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Percentiles a tail may be reported at, highest first.
const LADDER: [f64; 8] = [99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0, 0.0];

/// Minimum number of samples that must lie beyond a reported tail rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `pct` in `n` ascending samples.
fn rank(pct: f64, n: usize) -> usize {
    // The epsilon keeps float error in `pct / 100 * n` from bumping an
    // exact rank to the next one.
    let r = (pct / 100.0 * n as f64 - 1e-6).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The sample at percentile `pct` (nearest rank) of ascending `sorted`.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(pct, sorted.len())]
}

/// The median of ascending `sorted`.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// The highest percentile, no higher than `max_pct`, that has at least
/// [`MIN_BEYOND`] samples beyond it. With fewer than `MIN_BEYOND + 1`
/// samples no percentile qualifies and the maximum is reported as p0
/// with its true `beyond` count, so the caller can see the shortfall.
pub fn tail(sorted: &[f64], max_pct: f64) -> Tail {
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len();
    for pct in LADDER.iter().copied().filter(|p| *p <= max_pct) {
        let idx = rank(pct, n);
        let beyond = n - 1 - idx;
        if beyond >= MIN_BEYOND || pct == 0.0 {
            return Tail {
                pct,
                value: sorted[idx],
                samples: n,
                beyond,
            };
        }
    }
    unreachable!("the ladder ends at p0")
}

/// Share of values dropped from each end by [`trimmed_mean`].
pub const TRIM: f64 = 0.1;

/// The mean of ascending `sorted` without its lowest and highest
/// [`TRIM`] share (rounded down, so fewer than ten values keep them all).
pub fn trimmed_mean(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "mean of no samples");
    let cut = (sorted.len() as f64 * TRIM) as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Sort a sample vector in place and return it (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    v
}

/// Observations a histogram gained between two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistDelta {
    /// `(inclusive upper bound, count)` per bucket that gained observations.
    pub buckets: Vec<(u64, u64)>,
    /// Observations gained.
    pub count: u64,
    /// Sum of the observations gained.
    pub sum: u64,
}

impl HistDelta {
    /// Exact mean of the observations gained (`None` when none were).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Interpolated quantile of the observations gained.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        hist_quantile(&self.buckets, q)
    }
}

/// Subtract `before` from `after`, bucket by bucket.
pub fn hist_delta(before: Option<&HistogramSnapshot>, after: &HistogramSnapshot) -> HistDelta {
    let buckets = after
        .buckets
        .iter()
        .map(|&(le, n)| {
            let old = before
                .and_then(|b| b.buckets.iter().find(|(ble, _)| *ble == le))
                .map(|(_, c)| *c)
                .unwrap_or(0);
            (le, n.saturating_sub(old))
        })
        .filter(|(_, n)| *n > 0)
        .collect();
    HistDelta {
        buckets,
        count: after
            .count
            .saturating_sub(before.map(|b| b.count).unwrap_or(0)),
        sum: after.sum.saturating_sub(before.map(|b| b.sum).unwrap_or(0)),
    }
}

/// Quantile `q` in [0, 1] of a log2-bucketed histogram, interpolated
/// linearly inside the bucket that holds the rank (bucket `le` spans
/// `(le / 2, le]`). `None` when the histogram is empty.
pub fn hist_quantile(buckets: &[(u64, u64)], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().map(|(_, n)| n).sum();
    if total == 0 {
        return None;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0u64;
    for &(le, n) in buckets {
        if (seen + n) as f64 >= target {
            let lo = (le / 2) as f64;
            let hi = le as f64;
            let frac = if n == 0 {
                1.0
            } else {
                (target - seen as f64) / n as f64
            };
            return Some(lo + (hi - lo) * frac.clamp(0.0, 1.0));
        }
        seen += n;
    }
    buckets.last().map(|(le, _)| *le as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = one_to(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&one_to(4)), 2.0);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_from_each_end() {
        // 1..=20: drop 1, 2 and 19, 20; the mean of 3..=18 is 10.5.
        assert_eq!(trimmed_mean(&one_to(20)), 10.5);
        let mut v = vec![10.0; 9];
        v.push(1000.0);
        assert_eq!(trimmed_mean(&v), 10.0);
        // Nine values keep them all.
        assert_eq!(trimmed_mean(&one_to(9)), 5.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        let t = tail(&one_to(1000), 99.0);
        assert_eq!(
            (t.pct, t.value, t.samples, t.beyond),
            (99.0, 990.0, 1000, 10)
        );
        // 999 samples: p99 would leave 9 beyond, so p95 is reported.
        let t = tail(&one_to(999), 99.0);
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 950.0);
        assert_eq!(t.beyond, 49);
    }

    #[test]
    fn tail_never_exceeds_the_requested_percentile() {
        let t = tail(&one_to(100_000), 99.0);
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 99_000.0, 1000));
        let t = tail(&one_to(100_000), 99.9);
        assert_eq!((t.pct, t.value), (99.9, 99_900.0));
    }

    #[test]
    fn p90_with_a_hundred_samples() {
        let t = tail(&one_to(100), 90.0);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        let t = tail(&one_to(100), 99.0);
        assert_eq!(t.pct, 90.0, "p99/p95 leave fewer than 10 beyond at n = 100");
    }

    #[test]
    fn tiny_sample_sets_fall_back_to_the_minimum() {
        let t = tail(&one_to(5), 99.0);
        assert_eq!((t.pct, t.value, t.samples, t.beyond), (0.0, 1.0, 5, 4));
        let t = tail(&one_to(20), 99.0);
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_buckets() {
        // 10 observations in (512, 1023], 10 in (1024, 2047].
        let b = vec![(1023, 10), (2047, 10)];
        assert_eq!(hist_quantile(&b, 0.25), Some(511.0 + 512.0 * 0.5));
        assert_eq!(hist_quantile(&b, 0.5), Some(1023.0));
        assert_eq!(hist_quantile(&b, 1.0), Some(2047.0));
        assert_eq!(hist_quantile(&[], 0.5), None);
    }

    #[test]
    fn histogram_deltas_subtract_per_bucket() {
        let before = HistogramSnapshot {
            count: 3,
            sum: 20,
            min: 0,
            max: 0,
            buckets: vec![(7, 2), (15, 1)],
        };
        let after = HistogramSnapshot {
            count: 7,
            sum: 80,
            min: 0,
            max: 0,
            buckets: vec![(7, 2), (15, 4), (31, 1)],
        };
        let d = hist_delta(Some(&before), &after);
        assert_eq!(d.buckets, vec![(15, 3), (31, 1)]);
        assert_eq!((d.count, d.sum, d.mean()), (4, 60, Some(15.0)));
        assert_eq!(hist_delta(None, &after).buckets, after.buckets);
    }
}
