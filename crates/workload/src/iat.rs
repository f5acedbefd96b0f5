//! Inter-arrival-time (IAT) generators.
//!
//! FaaSBench supports (paper §VII): Poisson and uniform IATs, plus
//! trace-style bursty arrivals (the Azure-sampled replay exhibits transient
//! overload spikes — five of them over the 10k-request window in Fig. 12a).
//! Since the raw Azure per-invocation timestamps are not available, the
//! bursty generator reproduces the *load pattern*: a base Poisson process
//! with superimposed spike windows during which the arrival rate multiplies.

use sfs_simcore::{SimDuration, SimRng, SimTime};

/// How inter-arrival times are drawn.
#[derive(Debug, Clone)]
pub enum IatSpec {
    /// Exponential IATs with the given mean (a Poisson arrival process).
    Poisson {
        /// Mean inter-arrival time in milliseconds.
        mean_ms: f64,
    },
    /// Uniform IATs on `[lo, hi)` ms.
    Uniform {
        /// Lower bound of the IAT range, milliseconds.
        lo_ms: f64,
        /// Upper bound of the IAT range, milliseconds.
        hi_ms: f64,
    },
    /// Fixed (deterministic) IAT.
    Fixed {
        /// The constant inter-arrival time, milliseconds.
        iat_ms: f64,
    },
    /// Poisson base process with spike windows: during a spike, the mean IAT
    /// is divided by `factor` (arrival rate multiplies by `factor`).
    Bursty {
        /// Mean IAT of the base Poisson process, milliseconds.
        base_mean_ms: f64,
        /// Transient overload windows superimposed on the base process.
        spikes: Vec<Spike>,
    },
    /// Sinusoidally rate-modulated Poisson process (diurnal load): the
    /// arrival rate swings by `±amplitude` around its base level over
    /// `cycles` full day-cycles across the workload, so load ramps up and
    /// down smoothly instead of stepping.
    Diurnal {
        /// Mean IAT of the unmodulated process, milliseconds.
        base_mean_ms: f64,
        /// Relative swing of the arrival rate, in `[0, 1)`.
        amplitude: f64,
        /// Number of full sine cycles across the workload.
        cycles: f64,
    },
    /// Two-state Markov-modulated Poisson process: *correlated* bursts.
    /// Unlike [`IatSpec::Bursty`], whose spike windows sit at scheduled
    /// request indices, burst onsets here are random and self-sustaining —
    /// once a burst starts, it tends to persist (geometric dwell times),
    /// reproducing the clustered-arrival correlation of production FaaS
    /// traces.
    MarkovBursty {
        /// Mean IAT of the calm state, milliseconds.
        base_mean_ms: f64,
        /// Arrival-rate multiplier while bursting (> 1).
        burst_factor: f64,
        /// Per-arrival probability of entering a burst from calm.
        p_enter: f64,
        /// Per-arrival probability of leaving a burst back to calm.
        p_exit: f64,
    },
}

/// A transient overload window for [`IatSpec::Bursty`], expressed over
/// request *indices* (matching Fig. 12a's x-axis, "request submission ID").
#[derive(Debug, Clone, Copy)]
pub struct Spike {
    /// First request index of the spike.
    pub start_idx: usize,
    /// Number of requests arriving at the spiked rate.
    pub len: usize,
    /// Arrival-rate multiplier (> 1).
    pub factor: f64,
}

impl Spike {
    /// Evenly spread `count` spikes of `len` requests and `factor` rate gain
    /// across a workload of `total` requests (Fig. 12a uses five).
    pub fn evenly_spaced(count: usize, len: usize, factor: f64, total: usize) -> Vec<Spike> {
        (0..count)
            .map(|i| Spike {
                start_idx: (i + 1) * total / (count + 1),
                len,
                factor,
            })
            .collect()
    }
}

impl IatSpec {
    /// The mean IAT of the base process in milliseconds (spikes excluded).
    pub fn base_mean_ms(&self) -> f64 {
        match self {
            IatSpec::Poisson { mean_ms } => *mean_ms,
            IatSpec::Uniform { lo_ms, hi_ms } => (lo_ms + hi_ms) / 2.0,
            IatSpec::Fixed { iat_ms } => *iat_ms,
            IatSpec::Bursty { base_mean_ms, .. } => *base_mean_ms,
            IatSpec::Diurnal { base_mean_ms, .. } => *base_mean_ms,
            IatSpec::MarkovBursty { base_mean_ms, .. } => *base_mean_ms,
        }
    }

    /// Mean IAT per request including spike compression, relative to the
    /// base mean, for a workload of `n` requests: spiked requests arrive
    /// `factor`× faster, shrinking the average.
    pub fn compression_factor(&self, n: usize) -> f64 {
        match self {
            IatSpec::Bursty { spikes, .. } if n > 0 => {
                let mut weighted = 0.0f64;
                let mut covered = 0usize;
                for s in spikes {
                    let len = s.len.min(n.saturating_sub(s.start_idx));
                    covered += len;
                    weighted += len as f64 / s.factor.max(1.0);
                }
                let base = n.saturating_sub(covered.min(n)) as f64;
                (base + weighted) / n as f64
            }
            IatSpec::Diurnal {
                amplitude, cycles, ..
            } if n > 0 => {
                // Exact per-request expectation: arrival i draws with mean
                // base / (1 + a·sin θ_i), so the average IAT shrink is the
                // mean of 1/(1 + a·sin θ) over the sampled phases (→
                // 1/√(1−a²) for whole cycles as n grows).
                let a = amplitude.clamp(0.0, 0.999);
                (0..n)
                    .map(|i| 1.0 / (1.0 + a * phase_sin(i, n, *cycles)))
                    .sum::<f64>()
                    / n as f64
            }
            IatSpec::MarkovBursty {
                burst_factor,
                p_enter,
                p_exit,
                ..
            } if n > 0 => {
                // Stationary expectation of the two-state chain: the burst
                // state holds a π = p_enter/(p_enter+p_exit) share of
                // arrivals, each `burst_factor`× faster. Realised load
                // varies by seed (that is the point of correlated bursts);
                // the expectation is what load targeting corrects for.
                let denom = p_enter + p_exit;
                if denom <= 0.0 {
                    1.0
                } else {
                    let pi_burst = p_enter / denom;
                    (1.0 - pi_burst) + pi_burst / burst_factor.max(1.0)
                }
            }
            _ => 1.0,
        }
    }

    /// Scale the base rate so that mean service `mean_service_ms` over
    /// `cores` cores yields utilisation `rho` (`ρ = λ/(cµ)`, paper Eq. 2):
    /// `mean_IAT = mean_service / (cores × rho)`. For bursty processes,
    /// pass the workload size via [`IatSpec::for_target_load_n`] so spike
    /// compression is corrected; this variant assumes no compression.
    pub fn for_target_load(self, mean_service_ms: f64, cores: usize, rho: f64) -> IatSpec {
        self.for_target_load_n(mean_service_ms, cores, rho, 0)
    }

    /// As [`IatSpec::for_target_load`], correcting the bursty base rate so
    /// the *average* offered load over `n` requests equals `rho` even
    /// though spikes compress arrivals.
    pub fn for_target_load_n(
        self,
        mean_service_ms: f64,
        cores: usize,
        rho: f64,
        n: usize,
    ) -> IatSpec {
        assert!(rho > 0.0 && cores > 0);
        let correction = 1.0 / self.compression_factor(n);
        let target_mean = mean_service_ms / (cores as f64 * rho) * correction;
        match self {
            IatSpec::Poisson { .. } => IatSpec::Poisson {
                mean_ms: target_mean,
            },
            IatSpec::Uniform { lo_ms, hi_ms } => {
                let old_mean = (lo_ms + hi_ms) / 2.0;
                let k = target_mean / old_mean;
                IatSpec::Uniform {
                    lo_ms: lo_ms * k,
                    hi_ms: hi_ms * k,
                }
            }
            IatSpec::Fixed { .. } => IatSpec::Fixed {
                iat_ms: target_mean,
            },
            IatSpec::Bursty { spikes, .. } => IatSpec::Bursty {
                base_mean_ms: target_mean,
                spikes,
            },
            IatSpec::Diurnal {
                amplitude, cycles, ..
            } => IatSpec::Diurnal {
                base_mean_ms: target_mean,
                amplitude,
                cycles,
            },
            IatSpec::MarkovBursty {
                burst_factor,
                p_enter,
                p_exit,
                ..
            } => IatSpec::MarkovBursty {
                base_mean_ms: target_mean,
                burst_factor,
                p_enter,
                p_exit,
            },
        }
    }

    /// Generate `n` arrival instants starting at t = 0.
    pub fn arrivals(&self, n: usize, rng: &mut SimRng) -> Vec<SimTime> {
        let mut out = Vec::with_capacity(n);
        let mut t = SimTime::ZERO;
        // Markov burst state, advanced per arrival for MarkovBursty.
        let mut bursting = false;
        for i in 0..n {
            let iat_ms = self.next_iat_ms(i, n, &mut bursting, rng);
            t += SimDuration::from_millis_f64(iat_ms);
            out.push(t);
        }
        out
    }

    /// Lazy equivalent of [`IatSpec::arrivals`]: an iterator yielding the
    /// same `n` instants, bit-identical draw for draw, without allocating
    /// the vector. The iterator owns `rng` — hand it the `"iat"`-derived
    /// stream exactly as `arrivals` would have received it.
    pub fn arrival_iter(&self, n: usize, rng: SimRng) -> ArrivalIter {
        ArrivalIter {
            spec: self.clone(),
            rng,
            n,
            i: 0,
            t: SimTime::ZERO,
            bursting: false,
        }
    }

    /// Draw the IAT (ms) for arrival `i` of `n`. The single sampling path
    /// shared by [`IatSpec::arrivals`] and [`ArrivalIter`], so eager and
    /// lazy generation cannot drift apart.
    fn next_iat_ms(&self, i: usize, n: usize, bursting: &mut bool, rng: &mut SimRng) -> f64 {
        match self {
            IatSpec::Poisson { mean_ms } => rng.exponential(*mean_ms),
            IatSpec::Uniform { lo_ms, hi_ms } => rng.uniform(*lo_ms, *hi_ms),
            IatSpec::Fixed { iat_ms } => *iat_ms,
            IatSpec::Bursty {
                base_mean_ms,
                spikes,
            } => {
                let in_spike = spikes
                    .iter()
                    .find(|s| i >= s.start_idx && i < s.start_idx + s.len);
                let mean = match in_spike {
                    Some(s) => base_mean_ms / s.factor.max(1.0),
                    None => *base_mean_ms,
                };
                rng.exponential(mean)
            }
            IatSpec::Diurnal {
                base_mean_ms,
                amplitude,
                cycles,
            } => {
                let a = amplitude.clamp(0.0, 0.999);
                let rate = 1.0 + a * phase_sin(i, n, *cycles);
                rng.exponential(base_mean_ms / rate)
            }
            IatSpec::MarkovBursty {
                base_mean_ms,
                burst_factor,
                p_enter,
                p_exit,
            } => {
                *bursting = if *bursting {
                    !rng.chance(*p_exit)
                } else {
                    rng.chance(*p_enter)
                };
                let mean = if *bursting {
                    base_mean_ms / burst_factor.max(1.0)
                } else {
                    *base_mean_ms
                };
                rng.exponential(mean)
            }
        }
    }
}

/// Lazy arrival-instant stream (see [`IatSpec::arrival_iter`]). Arrivals
/// are non-decreasing, so the stream is already in dispatch order.
#[derive(Debug, Clone)]
pub struct ArrivalIter {
    spec: IatSpec,
    rng: SimRng,
    n: usize,
    i: usize,
    t: SimTime,
    bursting: bool,
}

impl Iterator for ArrivalIter {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        if self.i >= self.n {
            return None;
        }
        let iat_ms = self
            .spec
            .next_iat_ms(self.i, self.n, &mut self.bursting, &mut self.rng);
        self.i += 1;
        // Saturating: an absurd load spreads arrivals past the simulated-time
        // horizon, which callers reject (`Workload::crosses_horizon`) rather
        // than overflow on.
        self.t = self.t.saturating_add(SimDuration::from_millis_f64(iat_ms));
        Some(self.t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ArrivalIter {}

/// Sine of the diurnal phase for arrival `i` of `n` over `cycles` cycles.
#[inline]
fn phase_sin(i: usize, n: usize, cycles: f64) -> f64 {
    (2.0 * std::f64::consts::PI * cycles * i as f64 / n as f64).sin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_have_target_mean_iat() {
        let spec = IatSpec::Poisson { mean_ms: 20.0 };
        let mut rng = SimRng::seed_from_u64(3);
        let n = 100_000;
        let arr = spec.arrivals(n, &mut rng);
        assert_eq!(arr.len(), n);
        let span_ms = arr.last().unwrap().as_millis_f64();
        let mean = span_ms / n as f64;
        assert!((mean - 20.0).abs() < 0.5, "mean IAT {mean}");
        // Strictly increasing arrivals.
        for w in arr.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn uniform_arrivals_bounded() {
        let spec = IatSpec::Uniform {
            lo_ms: 5.0,
            hi_ms: 15.0,
        };
        let mut rng = SimRng::seed_from_u64(5);
        let arr = spec.arrivals(10_000, &mut rng);
        let mut prev = SimTime::ZERO;
        for &a in &arr {
            let iat = (a - prev).as_millis_f64();
            assert!((5.0..15.0).contains(&iat), "IAT {iat} out of range");
            prev = a;
        }
    }

    #[test]
    fn fixed_arrivals_exact() {
        let spec = IatSpec::Fixed { iat_ms: 7.0 };
        let mut rng = SimRng::seed_from_u64(1);
        let arr = spec.arrivals(4, &mut rng);
        let times: Vec<f64> = arr.iter().map(|a| a.as_millis_f64()).collect();
        assert_eq!(times, vec![7.0, 14.0, 21.0, 28.0]);
    }

    #[test]
    fn target_load_sets_eq2_rate() {
        // mean service 480ms, 12 cores, rho 0.8 → mean IAT = 480/(9.6) = 50ms.
        let spec = IatSpec::Poisson { mean_ms: 1.0 }.for_target_load(480.0, 12, 0.8);
        match spec {
            IatSpec::Poisson { mean_ms } => assert!((mean_ms - 50.0).abs() < 1e-9),
            _ => panic!("variant changed"),
        }
        // Uniform keeps its shape, scales its mean.
        let u = IatSpec::Uniform {
            lo_ms: 10.0,
            hi_ms: 30.0,
        }
        .for_target_load(100.0, 4, 0.5);
        match u {
            IatSpec::Uniform { lo_ms, hi_ms } => {
                assert!(((lo_ms + hi_ms) / 2.0 - 50.0).abs() < 1e-9);
                assert!((hi_ms / lo_ms - 3.0).abs() < 1e-9, "shape preserved");
            }
            _ => panic!("variant changed"),
        }
    }

    #[test]
    fn bursty_spikes_compress_iats() {
        let spikes = Spike::evenly_spaced(1, 2_000, 10.0, 10_000);
        assert_eq!(spikes.len(), 1);
        let s0 = spikes[0];
        assert_eq!(s0.start_idx, 5_000);
        let spec = IatSpec::Bursty {
            base_mean_ms: 50.0,
            spikes,
        };
        let mut rng = SimRng::seed_from_u64(11);
        let arr = spec.arrivals(10_000, &mut rng);
        let mean_iat =
            |lo: usize, hi: usize| (arr[hi - 1] - arr[lo]).as_millis_f64() / (hi - lo - 1) as f64;
        let base = mean_iat(0, 5_000);
        let spike = mean_iat(5_000, 7_000);
        assert!(
            spike * 5.0 < base,
            "spike mean {spike} should be ~10x below base {base}"
        );
    }

    #[test]
    fn compression_factor_accounts_for_spikes() {
        // 10,000 requests; one spike of 2,000 at 10x: mean per-request IAT
        // factor = (8000 + 2000/10) / 10000 = 0.82.
        let spec = IatSpec::Bursty {
            base_mean_ms: 50.0,
            spikes: vec![Spike {
                start_idx: 4_000,
                len: 2_000,
                factor: 10.0,
            }],
        };
        assert!((spec.compression_factor(10_000) - 0.82).abs() < 1e-12);
        // Non-bursty processes never compress.
        assert_eq!(
            IatSpec::Poisson { mean_ms: 1.0 }.compression_factor(10_000),
            1.0
        );
        assert_eq!(IatSpec::Fixed { iat_ms: 1.0 }.compression_factor(0), 1.0);
        // A spike hanging past the end only counts its covered portion.
        let tail = IatSpec::Bursty {
            base_mean_ms: 1.0,
            spikes: vec![Spike {
                start_idx: 9_500,
                len: 2_000,
                factor: 5.0,
            }],
        };
        let f = tail.compression_factor(10_000);
        assert!((f - (9_500.0 + 500.0 / 5.0) / 10_000.0).abs() < 1e-12);
    }

    #[test]
    fn target_load_n_corrects_bursty_average() {
        // With correction, the realised average offered load matches the
        // target despite the spikes.
        let n = 30_000;
        let spikes = Spike::evenly_spaced(3, n / 10, 10.0, n);
        let spec = IatSpec::Bursty {
            base_mean_ms: 1.0,
            spikes,
        }
        .for_target_load_n(100.0, 4, 0.8, n);
        let mut rng = SimRng::seed_from_u64(3);
        let arr = spec.arrivals(n, &mut rng);
        let span_ms = arr.last().unwrap().as_millis_f64();
        // offered = total work / (span * cores) = n*100 / (span*4).
        let offered = n as f64 * 100.0 / (span_ms * 4.0);
        assert!(
            (offered - 0.8).abs() < 0.05,
            "corrected offered load {offered} vs target 0.8"
        );
    }

    #[test]
    fn diurnal_rate_swings_and_load_targeting_corrects() {
        let n = 40_000;
        let spec = IatSpec::Diurnal {
            base_mean_ms: 10.0,
            amplitude: 0.6,
            cycles: 2.0,
        };
        let mut rng = SimRng::seed_from_u64(29);
        let arr = spec.arrivals(n, &mut rng);
        // First quarter of a cycle is the rate crest (shorter IATs), the
        // third quarter the trough: their realised means must separate.
        let mean_iat =
            |lo: usize, hi: usize| (arr[hi - 1] - arr[lo]).as_millis_f64() / (hi - lo - 1) as f64;
        let crest = mean_iat(0, n / 4);
        let trough = mean_iat(n / 4, n / 2);
        assert!(
            crest * 1.5 < trough,
            "diurnal crest {crest} should be well below trough {trough}"
        );
        // Eq.-2 targeting must hit the average load despite the modulation.
        let targeted = spec.for_target_load_n(100.0, 4, 0.8, n);
        let mut rng = SimRng::seed_from_u64(31);
        let arr = targeted.arrivals(n, &mut rng);
        let offered = n as f64 * 100.0 / (arr.last().unwrap().as_millis_f64() * 4.0);
        assert!(
            (offered - 0.8).abs() < 0.05,
            "diurnal corrected offered load {offered} vs target 0.8"
        );
    }

    #[test]
    fn markov_bursts_are_correlated_and_targeting_corrects() {
        let n = 60_000;
        let spec = IatSpec::MarkovBursty {
            base_mean_ms: 10.0,
            burst_factor: 8.0,
            p_enter: 0.002,
            p_exit: 0.02,
        };
        let mut rng = SimRng::seed_from_u64(37);
        let arr = spec.arrivals(n, &mut rng);
        let iats: Vec<f64> = arr
            .windows(2)
            .map(|w| (w[1] - w[0]).as_millis_f64())
            .collect();
        // Burst arrivals (IAT far below base mean) must cluster: the chance
        // that a short IAT follows a short IAT must far exceed the chance it
        // follows a long one — the correlation scheduled spikes don't have.
        let short = |x: f64| x < 10.0 / 8.0;
        let (mut ss, mut s_total, mut ls, mut l_total) = (0u64, 0u64, 0u64, 0u64);
        for w in iats.windows(2) {
            if short(w[0]) {
                s_total += 1;
                ss += short(w[1]) as u64;
            } else {
                l_total += 1;
                ls += short(w[1]) as u64;
            }
        }
        let p_after_short = ss as f64 / s_total as f64;
        let p_after_long = ls as f64 / l_total as f64;
        assert!(
            p_after_short > 2.0 * p_after_long,
            "bursts not correlated: P(short|short)={p_after_short} vs P(short|long)={p_after_long}"
        );
        // The stationary-expectation correction keeps the average load on
        // target (within the wider tolerance this stochastic process needs).
        let targeted = spec.for_target_load_n(100.0, 4, 0.8, n);
        let mut rng = SimRng::seed_from_u64(41);
        let arr = targeted.arrivals(n, &mut rng);
        let offered = n as f64 * 100.0 / (arr.last().unwrap().as_millis_f64() * 4.0);
        assert!(
            (offered - 0.8).abs() < 0.12,
            "markov corrected offered load {offered} vs target 0.8"
        );
    }

    #[test]
    fn new_variants_report_base_mean_and_compression() {
        let d = IatSpec::Diurnal {
            base_mean_ms: 5.0,
            amplitude: 0.5,
            cycles: 1.0,
        };
        assert_eq!(d.base_mean_ms(), 5.0);
        // Whole-cycle analytic value: 1/√(1−a²) ≈ 1.1547 for a = 0.5.
        let f = d.compression_factor(100_000);
        assert!((f - 1.0 / (1.0 - 0.25f64).sqrt()).abs() < 1e-3, "got {f}");
        let m = IatSpec::MarkovBursty {
            base_mean_ms: 5.0,
            burst_factor: 10.0,
            p_enter: 0.01,
            p_exit: 0.03,
        };
        assert_eq!(m.base_mean_ms(), 5.0);
        // π_burst = 0.25 → factor = 0.75 + 0.25/10 = 0.775.
        assert!((m.compression_factor(1_000) - 0.775).abs() < 1e-12);
        // Amplitude 0 / factor 1 degrade to plain Poisson behaviour.
        let flat = IatSpec::Diurnal {
            base_mean_ms: 5.0,
            amplitude: 0.0,
            cycles: 3.0,
        };
        assert!((flat.compression_factor(10_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evenly_spaced_spikes_cover_interior() {
        let spikes = Spike::evenly_spaced(5, 300, 8.0, 10_000);
        assert_eq!(spikes.len(), 5);
        let idxs: Vec<usize> = spikes.iter().map(|s| s.start_idx).collect();
        assert_eq!(idxs, vec![1666, 3333, 5000, 6666, 8333]);
        for s in &spikes {
            assert!(s.start_idx + s.len < 10_000);
        }
    }
}
