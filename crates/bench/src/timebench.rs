//! Minimal wall-clock measurement (criterion stand-in).
//!
//! The workspace builds hermetically with no external crates, so the
//! perf suite ([`crate::perf`]) times its scenarios with this std-only
//! loop instead of criterion: each measurement auto-calibrates a batch
//! size, runs a fixed number of timed batches, and reports median / p10 /
//! p90 nanoseconds per iteration.

use std::time::{Duration, Instant};

/// Target wall time for one timed batch.
const BATCH_TARGET: Duration = Duration::from_millis(10);
/// Number of timed batches per benchmark.
const BATCHES: usize = 25;

/// Tunables for one measurement: how long a timed batch should run and how
/// many batches feed the quantiles. The defaults suit per-op
/// microbenchmarks; heavyweight operations (full simulation runs) use
/// longer batches and fewer of them.
#[derive(Debug, Clone, Copy)]
pub struct MeasureConfig {
    /// Calibration target: grow the batch until it runs at least this long.
    pub batch_target: Duration,
    /// Number of timed batches (the quantile sample size).
    pub batches: usize,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            batch_target: BATCH_TARGET,
            batches: BATCHES,
        }
    }
}

/// Measured distribution of per-iteration cost.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median nanoseconds per iteration across batches.
    pub median_ns: f64,
    /// 10th percentile ns/iter.
    pub p10_ns: f64,
    /// 90th percentile ns/iter.
    pub p90_ns: f64,
    /// Iterations per timed batch after calibration.
    pub batch_iters: u64,
}

/// Calibration ceiling: give up growing the batch past this many
/// iterations (guards against closures the optimizer deletes entirely).
const MAX_BATCH_ITERS: u64 = 1 << 30;

/// Time `f` under the batch tunables `cfg`, returning the per-iteration
/// cost distribution.
pub fn measure_with<F: FnMut()>(f: &mut F, cfg: &MeasureConfig) -> Measurement {
    assert!(cfg.batches >= 1, "need at least one timed batch");
    // Calibrate: grow the batch until it runs for at least the target.
    let mut iters: u64 = 1;
    loop {
        let t = time_batch(f, iters);
        if t >= cfg.batch_target || iters >= MAX_BATCH_ITERS {
            break;
        }
        // Aim straight for the target with 2x headroom, at least doubling.
        let scale = cfg.batch_target.as_secs_f64() / t.as_secs_f64().max(1e-9);
        iters = (iters as f64 * scale.max(1.0) * 2.0).min(MAX_BATCH_ITERS as f64) as u64;
        iters = iters.max(2);
    }
    let mut per_iter: Vec<f64> = (0..cfg.batches)
        .map(|_| time_batch(f, iters).as_nanos() as f64 / iters as f64)
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let pick = |q: f64| per_iter[((per_iter.len() - 1) as f64 * q).round() as usize];
    Measurement {
        median_ns: pick(0.5),
        p10_ns: pick(0.1),
        p90_ns: pick(0.9),
        batch_iters: iters,
    }
}

fn time_batch<F: FnMut()>(f: &mut F, iters: u64) -> Duration {
    // Callers are expected to `black_box` their own results inside `f`
    // (the compiler cannot see through the FnMut boundary anyway).
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed()
}

/// Human-format a nanosecond count with an auto-picked unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_ordered_quantiles() {
        let mut x = 0u64;
        let mut f = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        };
        let m = measure_with(&mut f, &MeasureConfig::default());
        assert!(m.p10_ns <= m.median_ns && m.median_ns <= m.p90_ns);
        assert!(m.median_ns > 0.0);
        assert!(m.batch_iters >= 1);
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12.0), "12ns");
        assert_eq!(fmt_ns(1_200.0), "1.20us");
        assert_eq!(fmt_ns(3_400_000.0), "3.40ms");
        assert_eq!(fmt_ns(2_000_000_000.0), "2.00s");
    }

    #[test]
    fn calibration_picks_a_nonzero_batch_size() {
        // A near-free operation must be batched up well past one iteration
        // to reach the batch target; a single-iteration batch would make
        // every quantile pure timer noise.
        let mut x = 0u64;
        let mut f = || x = x.wrapping_add(1);
        let cfg = MeasureConfig {
            batch_target: Duration::from_millis(1),
            batches: 3,
        };
        let m = measure_with(&mut f, &cfg);
        assert!(m.batch_iters > 1, "free op not batched: {}", m.batch_iters);
        // A slow operation stays at small batches instead of spinning the
        // calibration loop forever.
        let mut g = || std::thread::sleep(Duration::from_millis(2));
        let m = measure_with(&mut g, &cfg);
        assert_eq!(m.batch_iters, 1);
    }

    #[test]
    fn quantiles_are_ordered_under_config() {
        let mut x = 1u64;
        let mut f = || {
            for _ in 0..100 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            black_box_u64(x);
        };
        let cfg = MeasureConfig {
            batch_target: Duration::from_millis(2),
            batches: 7,
        };
        let m = measure_with(&mut f, &cfg);
        assert!(m.p10_ns <= m.median_ns, "{} > {}", m.p10_ns, m.median_ns);
        assert!(m.median_ns <= m.p90_ns, "{} > {}", m.median_ns, m.p90_ns);
        assert!(m.median_ns > 0.0);
    }

    fn black_box_u64(v: u64) {
        std::hint::black_box(v);
    }
}
