//! Property-style tests for the simulation primitives.
//!
//! Randomised cases are generated from the crate's own seeded [`SimRng`]
//! (no proptest dependency): each test runs a fixed number of cases from a
//! fixed seed, so failures are exactly reproducible.

use sfs_simcore::{EventQueue, Histogram, OnlineStats, Samples, SimDuration, SimRng, SimTime};

const CASES: u64 = 64;

fn case_rng(test: &str, case: u64) -> SimRng {
    SimRng::seed_from_u64(0xA11CE)
        .derive(test)
        .derive(&case.to_string())
}

/// Events pop in non-decreasing time order; equal timestamps pop FIFO.
#[test]
fn event_queue_total_order() {
    for case in 0..CASES {
        let mut rng = case_rng("event_queue_total_order", case);
        let n = rng.uniform_u64(1, 299) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 999)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::ZERO + SimDuration::from_millis(t), i);
        }
        let mut prev_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut last_time = None;
        while let Some((at, idx)) = q.pop() {
            assert!(at >= prev_time, "time went backwards (case {case})");
            if Some(at) == last_time {
                assert!(
                    *seen_at_time.last().unwrap() < idx,
                    "FIFO violated for simultaneous events (case {case})"
                );
            } else {
                seen_at_time.clear();
            }
            seen_at_time.push(idx);
            last_time = Some(at);
            prev_time = at;
        }
    }
}

/// Randomized push/pop interleavings against a reference model.
///
/// The model is a plain `Vec<(time, push_order, payload)>` with a stable
/// sort: the specification of "ascending time, FIFO within ties". Every
/// queue operation — `push`, `pop`, `pop_until` and `clear` — must agree
/// with it at every step.
#[test]
fn event_queue_matches_reference_model() {
    for case in 0..CASES {
        let mut rng = case_rng("event_queue_model", case);
        let n_ops = rng.uniform_u64(1, 399);
        let mut q: EventQueue<u64> = EventQueue::new();
        // Reference: (time_ms, insertion order, payload), kept sorted
        // lazily by a stable sort before every removal.
        let mut model: Vec<(u64, u64, u64)> = Vec::new();
        let mut pushed = 0u64;
        for op in 0..n_ops {
            // A tiny time domain forces many equal-timestamp ties.
            let t_ms = rng.uniform_u64(0, 7);
            match rng.pick_weighted(&[0.5, 0.2, 0.28, 0.02]) {
                0 => {
                    q.push(at_ms(t_ms), pushed);
                    model.push((t_ms, pushed, pushed));
                    pushed += 1;
                }
                1 => {
                    model.sort_by_key(|&(t, ord, _)| (t, ord));
                    let expect = if model.is_empty() {
                        None
                    } else {
                        let (t, _, p) = model.remove(0);
                        Some((at_ms(t), p))
                    };
                    assert_eq!(q.pop(), expect, "pop (case {case} op {op})");
                }
                2 => {
                    model.sort_by_key(|&(t, ord, _)| (t, ord));
                    let expect = match model.first() {
                        Some(&(t, _, p)) if t <= t_ms => {
                            model.remove(0);
                            Some((at_ms(t), p))
                        }
                        _ => None,
                    };
                    assert_eq!(
                        q.pop_until(at_ms(t_ms)),
                        expect,
                        "pop_until (case {case} op {op})"
                    );
                }
                _ => {
                    q.clear();
                    model.clear();
                }
            }
            assert_eq!(q.len(), model.len(), "len (case {case} op {op})");
            model.sort_by_key(|&(t, ord, _)| (t, ord));
            assert_eq!(
                q.peek_time(),
                model.first().map(|&(t, _, _)| at_ms(t)),
                "peek (case {case} op {op})"
            );
        }
    }
}

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Nearest-rank quantiles are actual samples and monotone in q.
#[test]
fn quantiles_are_samples_and_monotone() {
    for case in 0..CASES {
        let mut rng = case_rng("quantiles", case);
        let n = rng.uniform_u64(1, 399) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(-1e6, 1e6)).collect();
        let mut s = Samples::from_vec(xs.clone());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = s.quantile(q);
            assert!(
                xs.contains(&v),
                "quantile {v} is not a sample (case {case})"
            );
            assert!(v >= prev, "quantile not monotone (case {case})");
            prev = v;
        }
        assert_eq!(
            s.quantile(1.0),
            xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            "case {case}"
        );
    }
}

/// Welford mean matches the naive mean to floating tolerance.
#[test]
fn online_stats_match_naive() {
    for case in 0..CASES {
        let mut rng = case_rng("online_stats", case);
        let n = rng.uniform_u64(1, 499) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(-1e4, 1e4)).collect();
        let mut o = OnlineStats::new();
        for &x in &xs {
            o.push(x);
        }
        let naive = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((o.mean() - naive).abs() < 1e-6, "case {case}");
        assert_eq!(o.count(), xs.len() as u64, "case {case}");
        assert!(
            o.min() <= o.mean() + 1e-9 && o.mean() <= o.max() + 1e-9,
            "case {case}"
        );
    }
}

/// Histogram counts everything exactly once.
#[test]
fn histogram_conserves_counts() {
    for case in 0..CASES {
        let mut rng = case_rng("histogram", case);
        let n = rng.uniform_u64(1, 399) as usize;
        // Log-uniform over [1e-3, 1e9) so values land across (and beyond)
        // the bucket range.
        let xs: Vec<f64> = (0..n).map(|_| 10f64.powf(rng.uniform(-3.0, 9.0))).collect();
        let mut h = Histogram::new(1.0, 10.0, 10);
        for &x in &xs {
            h.record(x);
        }
        assert_eq!(h.total(), xs.len() as u64, "case {case}");
        let sum: u64 = h.buckets().map(|(_, c)| c).sum();
        assert_eq!(sum, xs.len() as u64, "case {case}");
        assert!(
            (h.cumulative_fraction(9) - 1.0).abs() < 1e-12,
            "case {case}"
        );
    }
}

/// `SimDuration::mul_f64` without its `k == 1.0` shortcut, kept as its
/// reference.
fn mul_f64_reference(x: u64, k: f64) -> u64 {
    (x as f64 * k.max(0.0)).round() as u64
}

/// `mul_f64` equals the `f64::round` formula for every input, its
/// `k == 1.0` shortcut included: exact halves, spans around 2^52, 2^53
/// (where the shortcut stops), 2^54 and 2^64, the edge factors (0, −1, 1
/// and its neighbours, 0.5, 1.5, NaN, ±∞), and a seeded sweep of a
/// million pairs.
#[test]
fn mul_f64_matches_round_reference() {
    let check = |x: u64, k: f64| {
        assert_eq!(
            SimDuration(x).mul_f64(k).as_nanos(),
            mul_f64_reference(x, k),
            "{x} × {k:e} ({:#x})",
            k.to_bits()
        );
    };
    let one = 1.0f64.to_bits();
    let factors = [
        0.0,
        -0.0,
        -1.0,
        1.0,
        f64::from_bits(one + 1),
        f64::from_bits(one - 1),
        0.5,
        1.5,
        2.5,
        1.0 / 3.0,
        0.1,
        1e-300,
        f64::MIN_POSITIVE,
        1e300,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let mut spans: Vec<u64> = (0..=16).collect();
    for p in [52, 53, 54, 63] {
        for d in 0..=8 {
            spans.push((1u64 << p) - d);
            spans.push((1u64 << p) + d);
        }
    }
    spans.extend((0..=8).map(|d| u64::MAX - d));
    for &x in &spans {
        for &k in &factors {
            check(x, k);
        }
    }
    // Exact halves: an odd span times 0.5 or 1.5 lands on `n + 0.5`
    // (below 2^53, where the product is exact), ties 2.5 and beyond too.
    for x in (1..4_000u64)
        .step_by(2)
        .chain((0..64).map(|d| (1 << 53) - 1 - 2 * d))
    {
        for k in [0.5, 1.5, 2.5, 0.25, 0.75] {
            check(x, k);
        }
    }
    let mut rng = SimRng::seed_from_u64(0x3F_F000).derive("mul_f64");
    for _ in 0..1_000_000 {
        let x = match rng.uniform_u64(0, 3) {
            0 => rng.next_u64(),
            1 => rng.next_u64() >> rng.uniform_u64(0, 63),
            2 => rng.uniform_u64(0, 100_000_000),
            _ => (1u64 << rng.uniform_u64(50, 63)) + rng.uniform_u64(0, 64) - 32,
        };
        let k = match rng.uniform_u64(0, 4) {
            0 => rng.uniform(0.0, 4.0),
            1 => f64::from_bits(rng.next_u64()),
            2 => f64::from_bits(one + rng.uniform_u64(0, 8) - 4),
            3 => (rng.uniform_u64(0, 16) as f64) * 0.5,
            _ => 1.0 / rng.uniform(0.5, 8.0),
        };
        check(x, k);
    }
}
