//! Cross-scheduler comparisons: the paper's headline claims.
//!
//! "SFS improves the execution duration of 83% of the functions by 49.6× on
//! average compared to CFS; for the remaining 17% of the functions that are
//! relatively longer, they run 1.29× longer on average under SFS than CFS."
//! (§I). This module computes exactly those aggregates from two outcome
//! vectors, plus the Fig. 16 per-request context-switch ratios.

/// A per-request pairing of two schedulers' results (same request id).
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// Ideal (isolated) duration in ms — the short/long classifier.
    pub ideal_ms: f64,
    /// Turnaround under the treatment scheduler (SFS).
    pub treatment_ms: f64,
    /// Turnaround under the baseline scheduler (CFS).
    pub baseline_ms: f64,
    /// Context switches under treatment / baseline.
    pub treatment_ctx: u64,
    /// Context switches under the baseline.
    pub baseline_ctx: u64,
}

/// The headline aggregates.
#[derive(Debug, Clone, Copy)]
pub struct HeadlineClaims {
    /// Fraction of requests classified short (paper: ~0.83).
    pub short_fraction: f64,
    /// Mean of per-request `baseline/treatment` speedups over the short
    /// population (paper: 49.6×).
    pub short_mean_speedup: f64,
    /// Median short-population speedup (robust companion).
    pub short_median_speedup: f64,
    /// Mean of per-request `treatment/baseline` slowdowns over the long
    /// population (paper: 1.29×).
    pub long_mean_slowdown: f64,
    /// Fraction of requests whose duration improved under the treatment.
    pub improved_fraction: f64,
}

/// Compute the headline claims with the short/long boundary at
/// `long_threshold_ms` of *ideal* duration (the paper's Table I boundary,
/// 1550 ms).
pub fn headline_claims(pairs: &[Paired], long_threshold_ms: f64) -> HeadlineClaims {
    assert!(!pairs.is_empty(), "need at least one paired request");
    let mut short_speedups = Vec::new();
    let mut long_slowdowns = Vec::new();
    let mut improved = 0usize;
    for p in pairs {
        if p.treatment_ms < p.baseline_ms {
            improved += 1;
        }
        if p.ideal_ms < long_threshold_ms {
            short_speedups.push(p.baseline_ms / p.treatment_ms.max(1e-9));
        } else {
            long_slowdowns.push(p.treatment_ms / p.baseline_ms.max(1e-9));
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            1.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let median = |v: &mut Vec<f64>| {
        if v.is_empty() {
            return 1.0;
        }
        // total_cmp: one NaN turnaround upstream must not panic the
        // headline aggregation; NaN sorts after every number (simlint P1).
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut ss = short_speedups.clone();
    HeadlineClaims {
        short_fraction: short_speedups.len() as f64 / pairs.len() as f64,
        short_mean_speedup: mean(&short_speedups),
        short_median_speedup: median(&mut ss),
        long_mean_slowdown: mean(&long_slowdowns),
        improved_fraction: improved as f64 / pairs.len() as f64,
    }
}

/// Fig. 16: per-request `baseline_ctx / treatment_ctx` ratios. A request
/// with zero switches under the treatment contributes
/// `baseline_ctx / 1` (the plotted ratio floor the paper's log axis
/// implies), and requests with zero under both contribute 1.
pub fn ctx_switch_ratios(pairs: &[Paired]) -> Vec<f64> {
    pairs
        .iter()
        .map(|p| p.baseline_ctx.max(1) as f64 / p.treatment_ctx.max(1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(ideal: f64, t: f64, b: f64) -> Paired {
        Paired {
            ideal_ms: ideal,
            treatment_ms: t,
            baseline_ms: b,
            treatment_ctx: 0,
            baseline_ctx: 10,
        }
    }

    #[test]
    fn headline_separates_short_and_long() {
        let pairs = vec![
            mk(10.0, 10.0, 100.0),      // short, 10x speedup
            mk(100.0, 20.0, 400.0),     // short, 20x
            mk(2000.0, 2600.0, 2000.0), // long, 1.3x slowdown
        ];
        let h = headline_claims(&pairs, 1550.0);
        assert!((h.short_fraction - 2.0 / 3.0).abs() < 1e-12);
        assert!((h.short_mean_speedup - 15.0).abs() < 1e-9);
        assert!((h.long_mean_slowdown - 1.3).abs() < 1e-9);
        assert!((h.improved_fraction - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn headline_handles_all_short() {
        let pairs = vec![mk(5.0, 5.0, 50.0)];
        let h = headline_claims(&pairs, 1550.0);
        assert_eq!(h.short_fraction, 1.0);
        assert_eq!(h.long_mean_slowdown, 1.0, "no long population → neutral");
    }

    #[test]
    fn ctx_ratios_floor_at_one() {
        let mut p = mk(1.0, 1.0, 1.0);
        p.treatment_ctx = 0;
        p.baseline_ctx = 40;
        assert_eq!(ctx_switch_ratios(&[p]), vec![40.0]);
        p.baseline_ctx = 0;
        assert_eq!(ctx_switch_ratios(&[p]), vec![1.0]);
        p.treatment_ctx = 4;
        p.baseline_ctx = 2;
        assert_eq!(ctx_switch_ratios(&[p]), vec![0.5]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn headline_requires_data() {
        headline_claims(&[], 1550.0);
    }

    #[test]
    fn headline_nan_turnaround_does_not_panic_median() {
        // Regression (simlint P1, mirroring the PR 7 ensure_sorted fix):
        // the median sort used partial_cmp().unwrap(), so one NaN baseline
        // turnaround (degenerate upstream telemetry) panicked the whole
        // aggregation. total_cmp sorts NaN after every number, so the
        // median of the remaining real speedups survives.
        let pairs = vec![
            mk(10.0, 10.0, f64::NAN), // NaN speedup
            mk(10.0, 10.0, 100.0),    // 10x
            mk(10.0, 20.0, 40.0),     // 2x
        ];
        let h = headline_claims(&pairs, 1550.0);
        assert!(
            (h.short_median_speedup - 10.0).abs() < 1e-12,
            "median {}",
            h.short_median_speedup
        );
    }
}
