//! Statistics primitives for experiment harnesses.
//!
//! * [`Samples`] — an exact sample store with percentile queries (the paper's
//!   figures report p50..p99.99, Fig. 8/15, so exactness matters at the tail).
//! * [`Cdf`] — empirical CDF extraction at fixed fractions or value grids,
//!   used by every "CDF of duration / RTE" figure.
//! * [`QuantileSketch`] — quantiles within a relative-error bound in memory
//!   independent of the sample count, for streaming runs.

/// Exact sample store with percentile and CDF queries.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    data: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Empty store.
    pub fn new() -> Self {
        Samples {
            data: Vec::new(),
            sorted: true,
        }
    }

    /// Empty store with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Samples {
            data: Vec::with_capacity(cap),
            sorted: true,
        }
    }

    /// Build from an existing vector of samples.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Samples {
            data,
            sorted: false,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.data.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff no observations recorded.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // Total order so a single degenerate NaN sample cannot panic a
            // multi-minute run: NaN sorts after every number (+inf included),
            // so finite-quantile queries stay meaningful and only queries
            // that genuinely reach into the NaN tail observe it.
            self.data.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `q`-quantile (q in `[0,1]`) via nearest-rank on the sorted samples.
    /// Returns 0.0 for an empty store.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank with an epsilon guard so e.g. 0.999 × 1000 (which
        // floats represent as 999.0000000000001) does not round up a rank.
        let idx = (((q * self.data.len() as f64) - 1e-9).ceil().max(0.0) as usize)
            .saturating_sub(1)
            .min(self.data.len() - 1);
        self.data[idx]
    }

    /// Convenience: percentile in `[0,100]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.quantile(p / 100.0)
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }

    /// Fraction of samples strictly below `x`.
    pub fn fraction_below(&mut self, x: f64) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.data.partition_point(|&v| v < x);
        idx as f64 / self.data.len() as f64
    }

    /// Empirical CDF evaluated at `points` evenly spaced quantiles,
    /// returned as `(value, cumulative_fraction)` pairs.
    pub fn cdf(&mut self, points: usize) -> Cdf {
        self.ensure_sorted();
        let mut pts = Vec::with_capacity(points);
        if self.data.is_empty() {
            return Cdf { points: pts };
        }
        for i in 1..=points {
            let frac = i as f64 / points as f64;
            let idx = (((frac * self.data.len() as f64) - 1e-9).ceil().max(0.0) as usize)
                .saturating_sub(1)
                .min(self.data.len() - 1);
            pts.push((self.data[idx], frac));
        }
        Cdf { points: pts }
    }

    /// Borrow the raw (possibly unsorted) samples.
    pub fn raw(&self) -> &[f64] {
        &self.data
    }
}

/// A streaming quantile sketch with a bounded relative-error contract.
///
/// DDSketch-style log-bucketed histogram over non-negative values: bucket
/// `k` covers `(γ^(k-1), γ^k]` with `γ = (1+α)/(1−α)`, so reporting the
/// geometric midpoint of the covering bucket guarantees
///
/// > `|quantile(q) − exact_nearest_rank(q)| ≤ α · exact_nearest_rank(q)`
///
/// for every `q` — a *relative* error bound of `α` (default 1%) at any
/// rank, tails included. Memory is O(log(max/min)/α), independent of how
/// many values are recorded: ~2.8k buckets cover twelve decades at the
/// default `α`, where an exact [`Samples`] store for a 10M-request run
/// would hold 80 MB per metric. Values at or below [`QuantileSketch::FLOOR`]
/// (and, in release builds, NaN) collapse into a zero bucket reported
/// as 0.0.
///
/// Count, min and max are tracked exactly, so `q = 0` and `q = 1` report
/// the exact extrema. Streaming runs read their turnaround percentiles
/// from one of these (`sfs_core::OutcomeSummary`).
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    alpha: f64,
    /// `ln γ`, cached: bucket key of `v` is `ceil(ln v / ln γ)`.
    gamma_ln: f64,
    /// Bucket counts; `buckets[i]` is the count for key `offset + i`.
    buckets: std::collections::VecDeque<u64>,
    /// Key of `buckets[0]` (meaningless while `buckets` is empty).
    offset: i64,
    /// Values in `[0, FLOOR]` (and release-mode NaN), reported as 0.0.
    zero_count: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(Self::DEFAULT_ALPHA)
    }
}

impl QuantileSketch {
    /// Default relative-error bound: 1%.
    pub const DEFAULT_ALPHA: f64 = 0.01;
    /// Values at or below this land in the zero bucket (reported as 0.0).
    pub const FLOOR: f64 = 1e-12;

    /// Empty sketch with relative-error bound `alpha` (in `(0, 1)`).
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0, 1), got {alpha}"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            gamma_ln: gamma.ln(),
            buckets: std::collections::VecDeque::new(),
            offset: 0,
            zero_count: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket key of a value above the floor: `ceil(ln v / ln γ)`.
    fn key_of(&self, x: f64) -> i64 {
        (x.ln() / self.gamma_ln).ceil() as i64
    }

    /// Record one observation. The sketch is defined over non-negative
    /// finite values; NaN and negatives are a caller bug (debug-asserted)
    /// and degrade to the zero bucket in release builds rather than
    /// poisoning the sketch.
    pub fn push(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "QuantileSketch::push(NaN)");
        debug_assert!(x >= 0.0, "QuantileSketch::push({x}): negative value");
        let x = if x.is_nan() { 0.0 } else { x.max(0.0) };
        self.count += 1;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
        if x <= Self::FLOOR {
            self.zero_count += 1;
            return;
        }
        let key = self.key_of(x);
        if self.buckets.is_empty() {
            self.offset = key;
            self.buckets.push_back(1);
            return;
        }
        if key < self.offset {
            for _ in key..self.offset {
                self.buckets.push_front(0);
            }
            self.offset = key;
        } else if key >= self.offset + self.buckets.len() as i64 {
            for _ in (self.offset + self.buckets.len() as i64)..=key {
                self.buckets.push_back(0);
            }
        }
        self.buckets[(key - self.offset) as usize] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True iff no observations recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest observation (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact largest observation (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (q in `[0,1]`), within `α` relative error of the
    /// exact nearest-rank answer ([`Samples::quantile`] semantics).
    /// Returns 0.0 for an empty sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Same nearest-rank (and epsilon guard) as Samples::quantile, so
        // the two agree bucket-for-bucket on the rank they answer for.
        let rank = (((q * self.count as f64) - 1e-9).ceil().max(1.0) as u64).min(self.count);
        let mut acc = self.zero_count;
        if rank <= acc {
            return 0.0;
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= rank {
                let key = self.offset + i as i64;
                // Geometric midpoint of (γ^(k-1), γ^k]: worst-case relative
                // error (γ−1)/(γ+1) = α. Clamp to the exact extrema so
                // q=0 / q=1 are exact.
                let gamma = (1.0 + self.alpha) / (1.0 - self.alpha);
                let mid = 2.0 * ((key as f64) * self.gamma_ln).exp() / (gamma + 1.0);
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Convenience: percentile in `[0,100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        self.quantile(p / 100.0)
    }

    /// Number of live buckets — O(log(max/min)/α), *not* O(count). Exposed
    /// so memory-bound tests can pin the O(1)-in-request-count contract.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len() + 1
    }
}

/// An empirical CDF: monotonically non-decreasing `(value, fraction)` pairs.
#[derive(Debug, Clone)]
pub struct Cdf {
    /// `(value, cumulative fraction)` pairs, ascending in both components.
    pub points: Vec<(f64, f64)>,
}

impl Cdf {
    /// Render as CSV lines `value,fraction`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("value,fraction\n");
        for (v, f) in &self.points {
            out.push_str(&format!("{v},{f}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_nearest_rank() {
        let mut s = Samples::from_vec((1..=100).map(|i| i as f64).collect());
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.quantile(0.001), 1.0);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let mut s = Samples::new();
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn fraction_below_and_at_least() {
        let mut s = Samples::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.fraction_below(3.0) - 0.4).abs() < 1e-12);
        assert!((s.fraction_below(3.5) - 0.6).abs() < 1e-12);
        assert_eq!(s.fraction_below(0.0), 0.0);
        assert_eq!(s.fraction_below(100.0), 1.0);
    }

    #[test]
    fn cdf_is_monotone_and_complete() {
        let mut s = Samples::from_vec((0..977).map(|i| (i * 7 % 977) as f64).collect());
        let cdf = s.cdf(100);
        assert_eq!(cdf.points.len(), 100);
        for w in cdf.points.windows(2) {
            assert!(w[0].0 <= w[1].0, "values must be non-decreasing");
            assert!(w[0].1 < w[1].1, "fractions must be increasing");
        }
        assert!((cdf.points.last().unwrap().1 - 1.0).abs() < 1e-12);
        let csv = cdf.to_csv();
        assert!(csv.starts_with("value,fraction\n"));
        assert_eq!(csv.lines().count(), 101);
    }

    #[test]
    fn nan_sample_does_not_panic_quantiles() {
        // Regression: ensure_sorted used partial_cmp().expect(), so one NaN
        // (e.g. a degenerate 0/0 ratio) panicked the whole run at report
        // time. total_cmp sorts NaN after every number instead.
        let mut s = Samples::from_vec(vec![3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!(s.quantile(0.5), 2.0);
        assert_eq!(s.quantile(0.0), 1.0);
        // Only a query that reaches into the NaN tail observes it.
        assert!(s.quantile(1.0).is_nan());
        assert!((s.fraction_below(2.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sketch_quantiles_within_alpha_of_exact() {
        let alpha = 0.01;
        let mut sk = QuantileSketch::new(alpha);
        let mut exact = Samples::new();
        // Log-uniform spread over 6 decades, worst case for bucketing.
        for i in 0..10_000 {
            let v = 10f64.powf((i % 6000) as f64 / 1000.0) * (1.0 + (i as f64) * 1e-7);
            sk.push(v);
            exact.push(v);
        }
        for q in [0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0] {
            let e = exact.quantile(q);
            let a = sk.quantile(q);
            assert!(
                (a - e).abs() <= alpha * e + 1e-12,
                "q={q}: sketch {a} vs exact {e} breaks the {alpha} bound"
            );
        }
        assert_eq!(sk.count(), 10_000);
    }

    #[test]
    fn sketch_zero_and_extrema_are_exact() {
        let mut sk = QuantileSketch::default();
        sk.push(0.0);
        sk.push(5.0);
        sk.push(1000.0);
        assert_eq!(sk.quantile(0.0), 0.0);
        assert_eq!(sk.min(), 0.0);
        assert_eq!(sk.max(), 1000.0);
        // q=1 clamps to the exact max.
        assert_eq!(sk.quantile(1.0), 1000.0);
        assert!(sk.quantile(0.34) > 0.0);
        let empty = QuantileSketch::default();
        assert_eq!(empty.quantile(0.5), 0.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn sketch_memory_is_bounded_by_value_range_not_count() {
        let mut sk = QuantileSketch::default();
        for i in 0..200_000u64 {
            sk.push(0.001 + (i % 1000) as f64);
        }
        // Three decades of values at alpha=1% is a few hundred buckets no
        // matter how many samples stream through.
        assert!(
            sk.bucket_count() < 1000,
            "bucket count {} grew past the value-range bound",
            sk.bucket_count()
        );
    }
}
