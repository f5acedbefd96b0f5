//! Fixed-capacity sliding window.
//!
//! SFS adapts its FILTER time slice from the mean of the last `N` observed
//! inter-arrival times (paper §V-C, `S = mean(IAT_N) × c`, N = 100). This is
//! the ring buffer behind that adaptation, kept O(1) per insert with a
//! running sum.

use std::collections::VecDeque;

/// A sliding window over the last `capacity` `f64` observations with an O(1)
/// running mean.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    buf: VecDeque<f64>,
    capacity: usize,
    sum: f64,
    /// Evictions since `sum` was last recomputed exactly from the buffer.
    evictions_since_recompute: usize,
}

impl SlidingWindow {
    /// A window retaining the last `capacity` observations. `capacity` must
    /// be at least 1.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "window capacity must be >= 1");
        SlidingWindow {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            sum: 0.0,
            evictions_since_recompute: 0,
        }
    }

    /// Push an observation, evicting the oldest if the window is full.
    ///
    /// The running sum is maintained incrementally (`sum - old + new`), which
    /// accumulates floating-point error across evictions; every `capacity`
    /// evictions the sum is recomputed exactly from the buffer, bounding the
    /// drift while keeping the per-push cost O(1) amortized.
    pub fn push(&mut self, x: f64) {
        if self.buf.len() == self.capacity {
            if let Some(old) = self.buf.pop_front() {
                self.sum -= old;
                self.evictions_since_recompute += 1;
            }
        }
        self.buf.push_back(x);
        self.sum += x;
        if self.evictions_since_recompute >= self.capacity {
            self.sum = self.buf.iter().sum();
            self.evictions_since_recompute = 0;
        }
    }

    /// True iff nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Mean of retained observations (0 if empty).
    ///
    /// Backed by the incrementally maintained sum, which [`push`] recomputes
    /// exactly every `capacity` evictions — so over arbitrarily long runs the
    /// error stays bounded by at most `capacity` incremental updates (see the
    /// long-run drift test).
    ///
    /// [`push`]: SlidingWindow::push
    pub fn mean(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.sum / self.buf.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// The mean recomputed from the buffer: the reference the incremental
    /// [`SlidingWindow::mean`] is checked against.
    fn mean_exact(w: &SlidingWindow) -> f64 {
        if w.buf.is_empty() {
            0.0
        } else {
            w.buf.iter().sum::<f64>() / w.buf.len() as f64
        }
    }

    /// The retained observations, oldest first.
    fn kept(w: &SlidingWindow) -> Vec<f64> {
        w.buf.iter().copied().collect()
    }

    #[test]
    fn mean_of_partial_window() {
        let mut w = SlidingWindow::new(4);
        assert_eq!(w.mean(), 0.0);
        w.push(2.0);
        w.push(4.0);
        assert_eq!(kept(&w), [2.0, 4.0]);
        assert!((w.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eviction_keeps_last_n() {
        let mut w = SlidingWindow::new(3);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(x);
        }
        assert_eq!(kept(&w), [3.0, 4.0, 5.0]);
        assert!((w.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 1")]
    fn zero_capacity_rejected() {
        let _ = SlidingWindow::new(0);
    }

    // Property-style cases driven by the crate's own seeded RNG (no
    // proptest dependency); a fixed seed makes failures reproducible.

    #[test]
    fn incremental_mean_matches_exact() {
        let mut rng = SimRng::seed_from_u64(0x51D0);
        for case in 0..64 {
            let cap = rng.uniform_u64(1, 63) as usize;
            let n = rng.uniform_u64(1, 499) as usize;
            let values: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 1e6)).collect();
            let mut w = SlidingWindow::new(cap);
            for &v in &values {
                w.push(v);
            }
            let expect = mean_exact(&w);
            assert!(
                (w.mean() - expect).abs() <= 1e-6 * expect.max(1.0),
                "case {case}"
            );
            assert_eq!(w.buf.len(), values.len().min(cap), "case {case}");
        }
    }

    #[test]
    fn long_run_mean_does_not_drift() {
        // 1e7 pushes of mixed-magnitude values: a purely incremental sum
        // accumulates catastrophic cancellation error (large values enter
        // and leave the window, each eviction rounding the running sum);
        // the periodic exact recompute must keep the reported mean within
        // 1e-9 (relative) of a from-scratch mean at all times.
        let mut rng = SimRng::seed_from_u64(0x51D2);
        let mut w = SlidingWindow::new(100);
        let mut checks = 0u32;
        for i in 0..10_000_000u64 {
            // Alternate tiny and huge magnitudes so eviction rounding error
            // is large relative to the retained sum.
            let x = if i % 2 == 0 {
                rng.uniform(1e-3, 1.0)
            } else {
                rng.uniform(1e6, 1e9)
            };
            w.push(x);
            if i % 999_983 == 0 {
                let exact = mean_exact(&w);
                let got = w.mean();
                assert!(
                    (got - exact).abs() <= 1e-9 * exact.abs().max(1.0),
                    "push {i}: incremental mean {got} drifted from exact {exact}"
                );
                checks += 1;
            }
        }
        let exact = mean_exact(&w);
        assert!(
            (w.mean() - exact).abs() <= 1e-9 * exact.abs().max(1.0),
            "final mean {} drifted from exact {exact}",
            w.mean()
        );
        assert!(checks >= 10);
    }

    #[test]
    fn window_retains_suffix() {
        let mut rng = SimRng::seed_from_u64(0x51D1);
        for case in 0..64 {
            let cap = rng.uniform_u64(1, 31) as usize;
            let n = rng.uniform_u64(1, 199) as usize;
            let values: Vec<f64> = (0..n).map(|_| rng.uniform(-1e3, 1e3)).collect();
            let mut w = SlidingWindow::new(cap);
            for &v in &values {
                w.push(v);
            }
            let start = values.len().saturating_sub(cap);
            assert_eq!(kept(&w), values[start..].to_vec(), "case {case}");
        }
    }
}
