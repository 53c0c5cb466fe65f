//! Log-bucketed histograms with quantile estimation.
//!
//! Buckets are geometric with ratio `2^(1/8)` (≈9 % relative width), so a
//! histogram spans twelve decades of nanoseconds (or watts, or anything
//! positive) in a few kilobytes while keeping p50/p90/p99 estimates within
//! one bucket width of the truth.

/// Sub-bucket resolution: buckets per doubling.
const BUCKETS_PER_OCTAVE: usize = 8;
/// Number of octaves covered above 1.0; values beyond land in the top
/// bucket. 2^50 ns ≈ 13 days, far past any span we time.
const OCTAVES: usize = 50;
const N_BUCKETS: usize = BUCKETS_PER_OCTAVE * OCTAVES;

/// A fixed-memory log-bucketed histogram over non-negative samples.
///
/// # Examples
///
/// ```
/// use qisim_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000 {
///     h.observe(v as f64);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.quantile(0.5);
/// assert!((p50 - 500.0).abs() < 0.15 * 500.0, "p50 {p50}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Samples below 1.0 (including zero and negatives, clamped).
    underflow: u64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            underflow: 0,
            buckets: Vec::new(), // grown lazily on first observe
        }
    }

    fn bucket_index(v: f64) -> Option<usize> {
        if v < 1.0 {
            return None; // underflow bucket
        }
        let idx = (v.log2() * BUCKETS_PER_OCTAVE as f64).floor() as usize;
        Some(idx.min(N_BUCKETS - 1))
    }

    /// Lower edge of bucket `i`.
    fn bucket_lo(i: usize) -> f64 {
        2f64.powf(i as f64 / BUCKETS_PER_OCTAVE as f64)
    }

    /// Geometric midpoint of bucket `i` — the quantile representative.
    fn bucket_mid(i: usize) -> f64 {
        2f64.powf((i as f64 + 0.5) / BUCKETS_PER_OCTAVE as f64)
    }

    /// Records one sample. Non-finite samples are counted in `count` but
    /// excluded from the bucket statistics (they would otherwise poison
    /// every quantile).
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        if !v.is_finite() {
            return;
        }
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        match Self::bucket_index(v) {
            None => self.underflow += 1,
            Some(i) => {
                if self.buckets.is_empty() {
                    self.buckets = vec![0; N_BUCKETS];
                }
                self.buckets[i] += 1;
            }
        }
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all finite samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of finite samples, or NaN when empty.
    pub fn mean(&self) -> f64 {
        let finite = self.underflow + self.buckets.iter().sum::<u64>();
        if finite == 0 {
            f64::NAN
        } else {
            self.sum / finite as f64
        }
    }

    /// Smallest finite sample, or NaN when empty.
    pub fn min(&self) -> f64 {
        if self.min.is_finite() {
            self.min
        } else {
            f64::NAN
        }
    }

    /// Largest finite sample, or NaN when empty.
    pub fn max(&self) -> f64 {
        if self.max.is_finite() {
            self.max
        } else {
            f64::NAN
        }
    }

    /// Estimates the `q`-quantile (`0 ≤ q ≤ 1`) from the bucket counts:
    /// the geometric midpoint of the bucket holding the target rank,
    /// clamped into the observed `[min, max]`. The endpoints are exact:
    /// `quantile(0.0)` returns the observed minimum and `quantile(1.0)`
    /// the observed maximum. Returns NaN when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let finite = self.underflow + self.buckets.iter().sum::<u64>();
        if finite == 0 {
            return f64::NAN;
        }
        if q == 0.0 {
            return self.min();
        }
        if q == 1.0 {
            return self.max();
        }
        let target = ((q * finite as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if seen >= target {
            return self.min.clamp(0.0, 1.0);
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Number of samples below the first bucket edge (`v < 1.0`,
    /// including zero; the OpenMetrics exporter folds these into the
    /// `le="1"` bucket).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// The samples recorded since `prev`, as a histogram of their own:
    /// the per-interval view the telemetry exporter publishes, so
    /// p50/p99 describe the last interval instead of the process
    /// lifetime.
    ///
    /// `prev` must be an earlier snapshot of the same histogram. If it
    /// is not a prefix of `self` — the store was [`reset`] between
    /// the two snapshots — the full current contents are returned
    /// (everything since the reset is new), so delta counts never go
    /// negative. The interval's exact min/max are not recoverable from
    /// two cumulative snapshots; the cumulative bounds are kept as the
    /// clamp window, which can only widen quantile estimates, never
    /// corrupt them.
    ///
    /// [`reset`]: crate::reset
    pub fn delta_since(&self, prev: &Histogram) -> Histogram {
        if self.count < prev.count {
            return self.clone(); // reset in between: everything is new
        }
        let count = self.count - prev.count;
        if count == 0 {
            return Histogram::new();
        }
        let buckets = if self.buckets.is_empty() {
            Vec::new()
        } else {
            self.buckets
                .iter()
                .enumerate()
                .map(|(i, &c)| c.saturating_sub(prev.buckets.get(i).copied().unwrap_or(0)))
                .collect()
        };
        Histogram {
            count,
            sum: (self.sum - prev.sum).max(0.0),
            min: self.min,
            max: self.max,
            underflow: self.underflow.saturating_sub(prev.underflow),
            buckets,
        }
    }

    /// Iterates non-empty buckets as `(lo, hi, count)` triples.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), Self::bucket_lo(i + 1), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_nan() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.mean().is_nan());
        assert!(h.quantile(0.5).is_nan());
    }

    #[test]
    fn uniform_quantiles_land_within_bucket_resolution() {
        let mut h = Histogram::new();
        for v in 1..=10_000u32 {
            h.observe(v as f64);
        }
        for (q, expect) in [(0.5, 5000.0), (0.9, 9000.0), (0.99, 9900.0)] {
            let got = h.quantile(q);
            assert!((got - expect).abs() < 0.15 * expect, "q{q}: got {got}, expected ≈{expect}");
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 10_000.0);
        assert!((h.mean() - 5000.5).abs() < 1.0);
    }

    #[test]
    fn single_sample_quantiles_are_exact_within_clamp() {
        let mut h = Histogram::new();
        h.observe(42.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((v - 42.0).abs() <= 42.0 * 0.1, "q{q} -> {v}");
        }
    }

    #[test]
    fn underflow_and_extremes_are_binned_not_lost() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(0.5);
        h.observe(1e300); // far past the top bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1e300);
        // p33 sits in the underflow region.
        assert!(h.quantile(0.3) <= 1.0);
    }

    #[test]
    fn non_finite_samples_do_not_poison_quantiles() {
        let mut h = Histogram::new();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(10.0);
        assert_eq!(h.count(), 3);
        let p50 = h.quantile(0.5);
        assert!(p50.is_finite() && (p50 - 10.0).abs() < 2.0, "p50 {p50}");
        assert_eq!(h.max(), 10.0);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = Histogram::new();
        for v in [3.0, 8.0, 90.0, 700.0, 701.0, 1e6] {
            h.observe(v);
        }
        let qs: Vec<f64> = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0].iter().map(|&q| h.quantile(q)).collect();
        for w in qs.windows(2) {
            assert!(w[1] >= w[0], "quantiles must be monotone: {qs:?}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn out_of_range_quantile_panics() {
        let mut h = Histogram::new();
        h.observe(1.0);
        let _ = h.quantile(1.5);
    }

    #[test]
    fn quantile_endpoints_are_exact() {
        let mut h = Histogram::new();
        for v in [17.3, 2.0, 950.0, 0.25, 31.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), 0.25, "q=0 must be the exact minimum");
        assert_eq!(h.quantile(1.0), 950.0, "q=1 must be the exact maximum");
        // Dense monotonicity sweep across the whole range.
        let qs: Vec<f64> = (0..=100).map(|i| h.quantile(i as f64 / 100.0)).collect();
        for w in qs.windows(2) {
            assert!(w[1] >= w[0], "quantile not monotone in q: {qs:?}");
        }
    }

    #[test]
    fn empty_histogram_quantile_endpoints_are_nan() {
        let h = Histogram::new();
        assert!(h.quantile(0.0).is_nan());
        assert!(h.quantile(1.0).is_nan());
        assert!(h.quantile(0.5).is_nan());
    }

    #[test]
    fn delta_since_isolates_the_interval() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.observe(v as f64);
        }
        let first = h.clone();
        for v in 10_000..=20_000 {
            h.observe(v as f64);
        }
        let delta = h.delta_since(&first);
        assert_eq!(delta.count(), 10_001);
        // The interval's samples all sit near 10⁴; a lifetime histogram
        // would pull the p50 down toward the early cheap samples.
        let p50 = delta.quantile(0.5);
        assert!(p50 > 9_000.0, "interval p50 {p50} polluted by pre-interval samples");
        assert!((delta.sum() - (10_000..=20_000).sum::<u64>() as f64).abs() < 1.0);
    }

    #[test]
    fn delta_of_identical_snapshots_is_empty() {
        let mut h = Histogram::new();
        h.observe(5.0);
        h.observe(500.0);
        let delta = h.delta_since(&h.clone());
        assert_eq!(delta.count(), 0);
        assert!(delta.quantile(0.5).is_nan());
    }

    #[test]
    fn delta_across_reset_returns_current_contents() {
        let mut before = Histogram::new();
        for v in 1..=50 {
            before.observe(v as f64);
        }
        // "Reset": the new histogram restarts from empty, so the current
        // snapshot has fewer samples than the previous one.
        let mut after = Histogram::new();
        after.observe(7.0);
        let delta = after.delta_since(&before);
        assert_eq!(delta.count(), 1, "everything since the reset is new");
        assert_eq!(delta.sum(), 7.0);
    }
}
