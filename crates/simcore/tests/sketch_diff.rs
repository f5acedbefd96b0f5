//! Differential suite: [`QuantileSketch`] against exact [`Samples`]
//! quantiles over the distribution shapes the simulator actually produces —
//! uniform, heavy-tailed Pareto, and the multimodal Azure-replay shape
//! (a mixture of well-separated duration modes plus a long tail).
//!
//! The contract under test: for every reported quantile, the sketch's value
//! `v̂` satisfies `|v̂ − v| ≤ α·v` against the exact value `v`, with a hair
//! of slack for the nearest-rank discretisation at extreme quantiles.

use sfs_simcore::{QuantileSketch, Samples, SimRng};

const QUANTILES: [f64; 9] = [0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999, 0.9999];

/// Check the relative-error contract of `sketch` vs exact over `values`.
fn assert_within_contract(name: &str, values: Vec<f64>, alpha: f64) {
    let mut sketch = QuantileSketch::new(alpha);
    for &v in &values {
        sketch.push(v);
    }
    let mut exact = Samples::from_vec(values);
    assert_eq!(sketch.count(), exact.len() as u64);
    // Small slack over alpha: the exact side uses nearest-rank, so at tail
    // quantiles the "true" value itself is one sample wide.
    let tol = alpha * 1.10;
    for &q in &QUANTILES {
        let (e, s) = (exact.quantile(q), sketch.quantile(q));
        assert!(
            (s - e).abs() <= tol * e.abs().max(1e-12),
            "{name} q={q}: sketch {s} vs exact {e} (tol {tol})"
        );
    }
    // Extremes are exact: the sketch tracks true min/max.
    assert_eq!(sketch.min(), exact.quantile(0.0));
    assert_eq!(sketch.max(), exact.quantile(1.0));
}

#[test]
fn uniform_distribution_within_bound() {
    for seed in [1u64, 7, 42] {
        let mut rng = SimRng::seed_from_u64(seed);
        let values: Vec<f64> = (0..50_000).map(|_| rng.uniform(0.1, 1_000.0)).collect();
        assert_within_contract("uniform", values, 0.01);
    }
}

#[test]
fn pareto_heavy_tail_within_bound() {
    // Heavy tails are the hard case for rank-error sketches and the easy
    // case for relative-error ones — exactly why the stats pipeline uses
    // the latter: p99.99 of a Pareto(50, 1.1) spans orders of magnitude.
    for seed in [3u64, 11] {
        let mut rng = SimRng::seed_from_u64(seed);
        let values: Vec<f64> = (0..50_000).map(|_| rng.pareto(50.0, 1.1)).collect();
        assert_within_contract("pareto", values, 0.01);
    }
}

#[test]
fn azure_replay_shape_within_bound() {
    // The Table-I-like shape: multimodal short-duration bulk (a few fixed
    // modes with jitter) plus a ~16% long tail around 1.5–60 s.
    let mut rng = SimRng::seed_from_u64(13);
    let modes = [1.0, 10.0, 50.0, 150.0, 400.0];
    let values: Vec<f64> = (0..80_000)
        .map(|_| {
            if rng.chance(0.164) {
                rng.uniform(1_550.0, 60_000.0)
            } else {
                let m = modes[rng.uniform_u64(0, 4) as usize];
                m * rng.uniform(0.8, 1.25)
            }
        })
        .collect();
    assert_within_contract("azure-shape", values, 0.01);
}

#[test]
fn coarser_alpha_still_honours_its_own_bound() {
    let mut rng = SimRng::seed_from_u64(23);
    let values: Vec<f64> = (0..30_000).map(|_| rng.lognormal(3.0, 1.5)).collect();
    assert_within_contract("lognormal-alpha5", values, 0.05);
}

#[test]
fn memory_stays_bounded_while_exact_grows() {
    // The point of the sketch: bucket count is a function of the value
    // range and alpha, not of the sample count.
    let mut rng = SimRng::seed_from_u64(31);
    let mut sketch = QuantileSketch::new(0.01);
    let mut at_100k = 0usize;
    for i in 0..1_000_000u64 {
        sketch.push(rng.pareto(1.0, 1.5));
        if i == 100_000 {
            at_100k = sketch.bucket_count();
        }
    }
    let final_buckets = sketch.bucket_count();
    assert!(
        final_buckets < 3_000,
        "bucket count {final_buckets} should stay small"
    );
    // 10x more samples added at most a sliver of new buckets (range edges).
    assert!(
        final_buckets < at_100k + 400,
        "buckets kept growing: {at_100k} -> {final_buckets}"
    );
    assert_eq!(sketch.count(), 1_000_000);
}
