//! # sfs-workload — FaaSBench
//!
//! The paper's workload generator (§VII), rebuilt: FaaS workloads modelled
//! after the Azure Functions 2019 traces.
//!
//! * [`table1`] — Table I duration distribution with the fib-N mapping;
//! * [`iat`] — Poisson / uniform / fixed / bursty inter-arrival processes,
//!   with Eq.-2-based load targeting (`ρ = λ/(cµ)`);
//! * [`apps`] — the `fib` / `md` / `sa` applications and the I/O knob;
//! * [`azure`] — the synthetic Azure duration population behind Fig. 1.
//!
//! [`WorkloadSpec::generate`] assembles these into a deterministic list of
//! `(arrival, TaskSpec)` pairs that every experiment harness replays.

#![warn(missing_docs)]

pub mod apps;
pub mod azure;
pub mod iat;
pub mod table1;
pub mod trace;

pub use apps::{build_task, AppKind, AppMix};
pub use iat::{ArrivalIter, IatSpec, Spike};
pub use table1::{DurationBucket, Table1Sampler, LONG_THRESHOLD_MS, TABLE1};
pub use trace::{from_csv, to_csv, TraceError};

use sfs_sched::TaskSpec;
use sfs_simcore::{SimDuration, SimRng, SimTime};

/// How function durations are drawn.
#[derive(Debug, Clone)]
pub enum DurationDist {
    /// The paper's Table I (Azure Day-1 multimodal distribution).
    AzureTable1,
    /// Every request has the same duration (microbenchmarks).
    Fixed {
        /// The constant ideal duration, milliseconds.
        ms: f64,
    },
    /// Log-uniform on `[lo, hi)` ms.
    LogUniform {
        /// Lower bound of the duration range, milliseconds.
        lo_ms: f64,
        /// Upper bound of the duration range, milliseconds.
        hi_ms: f64,
    },
}

impl DurationDist {
    fn sample(&self, t1: &Table1Sampler, rng: &mut SimRng) -> f64 {
        match self {
            DurationDist::AzureTable1 => t1.sample_ms(rng),
            DurationDist::Fixed { ms } => *ms,
            DurationDist::LogUniform { lo_ms, hi_ms } => {
                (lo_ms.ln() + rng.unit() * (hi_ms.ln() - lo_ms.ln())).exp()
            }
        }
    }

    /// Analytic mean (ms), used for load targeting.
    pub fn mean_ms(&self) -> f64 {
        match self {
            DurationDist::AzureTable1 => Table1Sampler::new().mean_ms(),
            DurationDist::Fixed { ms } => *ms,
            DurationDist::LogUniform { lo_ms, hi_ms } => (hi_ms - lo_ms) / (hi_ms / lo_ms).ln(),
        }
    }
}

/// Injected I/O duration range in ms, drawn uniformly (§VIII-B: 10–100 ms).
const IO_RANGE_MS: (f64, f64) = (10.0, 100.0);

/// Heavy-tailed cold-start penalty, Pareto `(scale_ms, alpha)`: most
/// spin-ups are near `scale_ms`, a few dominate the tail.
const COLD_START_PARETO: (f64, f64) = (50.0, 1.8);

/// Analytic mean of one cold-start penalty (ms): Pareto mean
/// `scale·α/(α−1)`, finite because [`COLD_START_PARETO`]'s `α > 1`.
fn mean_cold_start_ms() -> f64 {
    let (scale, alpha) = COLD_START_PARETO;
    scale * alpha / (alpha - 1.0)
}

/// Full description of a generated workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of requests.
    pub n_requests: usize,
    /// Duration distribution.
    pub durations: DurationDist,
    /// Arrival process. Use [`WorkloadSpec::with_load`] to target a
    /// utilisation instead of setting a rate by hand.
    pub iat: IatSpec,
    /// Application mix.
    pub apps: AppMix,
    /// Fraction of requests that get one injected leading I/O operation
    /// (the §VIII-B experiment sets 0.75), lasting 10–100 ms (uniform).
    pub io_fraction: f64,
    /// Fraction of requests that pay a cold start: container spin-up burns
    /// CPU *before* the function body runs, Pareto(50 ms, α = 1.8): most
    /// spin-ups are near 50 ms, a few dominate the tail. 0 disables (the
    /// paper's pre-warmed setup).
    pub cold_start_fraction: f64,
    /// Master RNG seed: same seed → identical workload.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The standalone-SFS workload family (§VIII): Table-I durations,
    /// fib-only, Poisson arrivals, no injected I/O. Call
    /// [`WorkloadSpec::with_load`] to pick the utilisation level.
    pub fn azure_sampled(n_requests: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            n_requests,
            durations: DurationDist::AzureTable1,
            iat: IatSpec::Poisson { mean_ms: 50.0 },
            apps: AppMix::FibOnly,
            io_fraction: 0.0,
            cold_start_fraction: 0.0,
            seed,
        }
    }

    /// Diurnal-load scenario: the Azure-sampled population under a
    /// sinusoidally modulated arrival rate (two day-cycles across the
    /// workload, ±60% rate swing). Exercises the slice controller's
    /// tracking of slow load ramps rather than step spikes.
    pub fn diurnal(n_requests: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            iat: IatSpec::Diurnal {
                base_mean_ms: 1.0,
                amplitude: 0.6,
                cycles: 2.0,
            },
            ..WorkloadSpec::azure_sampled(n_requests, seed)
        }
    }

    /// Correlated-burst scenario: a two-state Markov-modulated Poisson
    /// arrival process whose bursts start at random and persist (mean
    /// burst length 1/p_exit = 200 requests, 8× rate), unlike the
    /// scheduled spike windows of [`WorkloadSpec::azure_replay`].
    pub fn correlated_bursts(n_requests: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            iat: IatSpec::MarkovBursty {
                base_mean_ms: 1.0,
                burst_factor: 8.0,
                p_enter: 0.004,
                p_exit: 0.005,
            },
            ..WorkloadSpec::azure_sampled(n_requests, seed)
        }
    }

    /// Heavy-tailed cold-start mix: 30% of requests pay a Pareto(50 ms,
    /// α = 1.8) CPU spin-up before the function body — the un-pre-warmed
    /// regime the paper's setup deliberately avoids, where short functions
    /// can be shadowed by their own container start.
    pub fn cold_start_mix(n_requests: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            cold_start_fraction: 0.3,
            ..WorkloadSpec::azure_sampled(n_requests, seed)
        }
    }

    /// The OpenLambda workload family (§IX): Table-I durations over an even
    /// fib/md/sa mix, replaying the trace-like bursty arrival pattern.
    pub fn openlambda(n_requests: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            apps: AppMix::openlambda(),
            ..WorkloadSpec::azure_replay(n_requests, seed)
        }
    }

    /// The trace-replay workload family (§VII): Table-I durations with the
    /// replayed Azure IAT pattern. The released trace statistics do not
    /// include raw timestamps, so the replay is modelled as a Poisson base
    /// process with five transient overload spikes — the load signature the
    /// paper's own Fig. 12a shows for this workload.
    pub fn azure_replay(n_requests: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            iat: IatSpec::Bursty {
                base_mean_ms: 1.0,
                spikes: Spike::evenly_spaced(5, n_requests / 50, 5.0, n_requests),
            },
            ..WorkloadSpec::azure_sampled(n_requests, seed)
        }
    }

    /// Retarget the arrival process so the *CPU* load on `cores` cores is
    /// `rho` (per Eq. 2 the service rate is per-core CPU work; I/O phases do
    /// not occupy cores). Returns the modified spec.
    pub fn with_load(mut self, cores: usize, rho: f64) -> WorkloadSpec {
        let cpu_mean = self.mean_cpu_ms();
        let n = self.n_requests;
        self.iat = self.iat.for_target_load_n(cpu_mean, cores, rho, n);
        self
    }

    /// Retarget the arrival process so the *duration-based* load is `rho`:
    /// the paper's OpenLambda load levels count the full function duration
    /// (CPU + I/O), so for the fib/md/sa mix the CPU utilisation is lower
    /// than the nominal level (§IX).
    pub fn with_duration_load(mut self, cores: usize, rho: f64) -> WorkloadSpec {
        let mean = self.durations.mean_ms();
        let n = self.n_requests;
        self.iat = self.iat.for_target_load_n(mean, cores, rho, n);
        self
    }

    /// Mean per-request CPU demand (ms), analytic: duration mean scaled by
    /// the CPU share of the app mix (injected I/O is pure sleep and adds
    /// no CPU), plus the expected cold-start CPU when the mix has one.
    pub fn mean_cpu_ms(&self) -> f64 {
        let d = self.durations.mean_ms();
        let cpu_share = match &self.apps {
            AppMix::FibOnly => 1.0,
            AppMix::Mixed { fib, md, sa } => {
                let total = fib + md + sa;
                (fib * 1.0 + md * 0.3 + sa * 0.6) / total
            }
        };
        d * cpu_share + self.cold_start_fraction * mean_cold_start_ms()
    }

    /// Generate the workload deterministically.
    pub fn generate(&self) -> Workload {
        Workload {
            requests: self.stream().collect(),
        }
    }

    /// Lazy, allocation-free equivalent of [`WorkloadSpec::generate`]: an
    /// iterator yielding the same [`Request`]s, bit-identical draw for draw
    /// (locked by the `stream_matches_generate_*` tests), without ever
    /// materialising the request vector. This is what makes 10M-request
    /// runs possible: arrivals are non-decreasing by construction, so the
    /// stream is already in dispatch order and can feed
    /// `Sim::run_streaming` directly.
    ///
    /// Each per-request attribute draws from its own derived RNG stream
    /// (`durations`, `iat`, `apps`, `io`, `cold_start` — the same
    /// derivation order as `generate`), so interleaving the draws per
    /// request instead of per attribute cannot change any value.
    pub fn stream(&self) -> WorkloadStream {
        let mut master = SimRng::seed_from_u64(self.seed);
        let rng_dur = master.derive("durations");
        let rng_iat = master.derive("iat");
        let rng_app = master.derive("apps");
        let rng_io = master.derive("io");
        // Derived after the original four so pre-existing scenario streams
        // are unchanged by the cold-start extension.
        let rng_cold = master.derive("cold_start");
        WorkloadStream {
            arrivals: self.iat.arrival_iter(self.n_requests, rng_iat),
            rng_dur,
            rng_app,
            rng_io,
            rng_cold,
            t1: Table1Sampler::new(),
            durations: self.durations.clone(),
            apps: self.apps.clone(),
            io_fraction: self.io_fraction,
            cold_start_fraction: self.cold_start_fraction,
            next_id: 0,
        }
    }
}

/// Lazy request stream (see [`WorkloadSpec::stream`]).
#[derive(Debug, Clone)]
pub struct WorkloadStream {
    arrivals: iat::ArrivalIter,
    rng_dur: SimRng,
    rng_app: SimRng,
    rng_io: SimRng,
    rng_cold: SimRng,
    t1: Table1Sampler,
    durations: DurationDist,
    apps: AppMix,
    io_fraction: f64,
    cold_start_fraction: f64,
    next_id: u64,
}

impl Iterator for WorkloadStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let arrival = self.arrivals.next()?;
        let i = self.next_id;
        self.next_id += 1;
        let duration_ms = self.durations.sample(&self.t1, &mut self.rng_dur);
        let app = self.apps.sample(&mut self.rng_app);
        let injected = if self.io_fraction > 0.0 && self.rng_io.chance(self.io_fraction) {
            Some(self.rng_io.uniform(IO_RANGE_MS.0, IO_RANGE_MS.1))
        } else {
            None
        };
        let cold =
            if self.cold_start_fraction > 0.0 && self.rng_cold.chance(self.cold_start_fraction) {
                let (scale, alpha) = COLD_START_PARETO;
                Some(self.rng_cold.pareto(scale, alpha))
            } else {
                None
            };
        let mut spec = build_task(i, app, duration_ms, injected);
        if let Some(cold_ms) = cold {
            // Container spin-up burns CPU before everything else, the
            // injected I/O knob included.
            spec.phases.insert(
                0,
                sfs_sched::Phase::Cpu(SimDuration::from_millis_f64(cold_ms)),
            );
        }
        Some(Request {
            id: i,
            arrival,
            app,
            duration_ms,
            injected_io_ms: injected,
            cold_start_ms: cold,
            spec,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.arrivals.size_hint()
    }
}

impl ExactSizeIterator for WorkloadStream {}

/// One generated function invocation request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Sequential request id (== the TaskSpec label).
    pub id: u64,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Application kind.
    pub app: AppKind,
    /// Sampled ideal duration (ms), before any injected I/O.
    pub duration_ms: f64,
    /// Injected leading I/O (ms) if the I/O knob selected this request.
    pub injected_io_ms: Option<f64>,
    /// Cold-start CPU penalty (ms) if this request drew one.
    pub cold_start_ms: Option<f64>,
    /// The runnable task spec.
    pub spec: TaskSpec,
}

impl Request {
    /// Whether this request belongs to the paper's "long" population
    /// (Table I's ≥ 1550 ms bucket).
    pub fn is_long(&self) -> bool {
        self.duration_ms >= LONG_THRESHOLD_MS
    }
}

/// A fully materialised workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Requests in arrival order.
    pub requests: Vec<Request>,
}

impl Workload {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Indices of `requests` in stable `(arrival, index)` order — the
    /// order a FaaS server dispatches them to the OS.
    ///
    /// This is the one arrival-glue every runner shares: platform
    /// pipelines can produce slightly out-of-order request lists (jittered
    /// multi-server hops), while the machine requires monotone spawn
    /// times. The sort is stable, so simultaneous arrivals dispatch in
    /// request-id order — the same tie-break a deterministic event queue
    /// seeded in index order would apply.
    pub fn arrival_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.requests.len()).collect();
        order.sort_by_key(|&i| self.requests[i].arrival);
        order
    }

    /// Whether the last arrival plus every request's CPU and I/O demand
    /// passes [`SimTime::HORIZON`]: simulating the workload could then need
    /// instants past it.
    pub fn crosses_horizon(&self) -> bool {
        let last = self.requests.iter().map(|r| r.arrival).max();
        let demand = (self.requests.iter())
            .flat_map(|r| &r.spec.phases)
            .fold(0u64, |sum, p| sum.saturating_add(p.duration().as_nanos()));
        last.is_some_and(|t| t.as_nanos().saturating_add(demand) > SimTime::HORIZON.as_nanos())
    }

    /// Total CPU demand (ms) across all requests.
    pub fn total_cpu_ms(&self) -> f64 {
        self.requests
            .iter()
            .map(|r| r.spec.cpu_demand().as_millis_f64())
            .sum()
    }

    /// Empirical offered CPU load over `cores` cores: total CPU demand over
    /// the arrival span.
    pub fn offered_load(&self, cores: usize) -> f64 {
        if self.requests.len() < 2 {
            return 0.0;
        }
        let span =
            (self.requests.last().unwrap().arrival - self.requests[0].arrival).as_millis_f64();
        if span <= 0.0 {
            return f64::INFINITY;
        }
        self.total_cpu_ms() / (span * cores as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_vanishing_load_crosses_the_horizon_without_overflow() {
        assert!(!WorkloadSpec::azure_sampled(50, 1)
            .generate()
            .crosses_horizon());
        let w = WorkloadSpec::azure_sampled(50, 1)
            .with_load(8, 1e-12)
            .generate();
        assert!(w.crosses_horizon());
        assert!(w.requests.windows(2).all(|p| p[0].arrival <= p[1].arrival));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::azure_sampled(500, 42).with_load(12, 0.8);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.requests.iter().zip(b.requests.iter()) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.duration_ms.to_bits(), y.duration_ms.to_bits());
            assert_eq!(x.app, y.app);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadSpec::azure_sampled(100, 1).generate();
        let b = WorkloadSpec::azure_sampled(100, 2).generate();
        let same = a
            .requests
            .iter()
            .zip(b.requests.iter())
            .filter(|(x, y)| x.duration_ms == y.duration_ms)
            .count();
        assert!(same < 5, "seeds produced nearly identical workloads");
    }

    #[test]
    fn with_load_hits_target_utilisation() {
        for rho in [0.5, 0.8, 1.0] {
            let spec = WorkloadSpec::azure_sampled(20_000, 7).with_load(12, rho);
            let w = spec.generate();
            let got = w.offered_load(12);
            assert!(
                (got - rho).abs() / rho < 0.1,
                "target {rho} vs offered {got}"
            );
        }
    }

    #[test]
    fn io_knob_injects_expected_fraction() {
        let mut spec = WorkloadSpec::azure_sampled(10_000, 3);
        spec.io_fraction = 0.75;
        let w = spec.generate();
        let with_io = w
            .requests
            .iter()
            .filter(|r| r.injected_io_ms.is_some())
            .count();
        let frac = with_io as f64 / w.len() as f64;
        assert!((frac - 0.75).abs() < 0.02, "io fraction {frac}");
        for r in &w.requests {
            if let Some(io) = r.injected_io_ms {
                assert!((10.0..100.0).contains(&io), "io {io} out of paper range");
                assert!(!r.spec.phases[0].is_cpu(), "injected IO must lead");
            }
        }
    }

    #[test]
    fn long_short_split_matches_table1() {
        let w = WorkloadSpec::azure_sampled(50_000, 11).generate();
        let long = w.requests.iter().filter(|r| r.is_long()).count();
        let frac = long as f64 / w.len() as f64;
        // Paper: ~17% long (15.7/95.6 = 16.4% after renormalisation).
        assert!((frac - 0.164).abs() < 0.01, "long fraction {frac}");
    }

    #[test]
    fn openlambda_mix_has_io_phases() {
        let w = WorkloadSpec::openlambda(3_000, 5).generate();
        let md = w.requests.iter().filter(|r| r.app == AppKind::Md).count();
        let sa = w.requests.iter().filter(|r| r.app == AppKind::Sa).count();
        assert!(md > 800 && sa > 800, "mix not even: md={md} sa={sa}");
        for r in &w.requests {
            assert!(r.spec.validate().is_ok());
            if r.app != AppKind::Fib {
                assert!(r.spec.io_demand().as_nanos() > 0);
            }
        }
    }

    #[test]
    fn cold_start_mix_is_heavy_tailed_and_prepends_cpu() {
        let w = WorkloadSpec::cold_start_mix(20_000, 7).generate();
        let cold: Vec<f64> = w.requests.iter().filter_map(|r| r.cold_start_ms).collect();
        let frac = cold.len() as f64 / w.len() as f64;
        assert!((frac - 0.3).abs() < 0.02, "cold fraction {frac}");
        // Pareto tail: every draw ≥ scale, and the tail dominates the bulk.
        assert!(cold.iter().all(|&c| c >= 50.0));
        let mut sorted = cold.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        let max = *sorted.last().unwrap();
        assert!(
            max > 20.0 * median,
            "tail not heavy: max {max} vs median {median}"
        );
        for r in &w.requests {
            if let Some(c) = r.cold_start_ms {
                let p0 = &r.spec.phases[0];
                assert!(p0.is_cpu(), "cold start must lead as CPU");
                assert!((p0.duration().as_millis_f64() - c).abs() < 1e-6);
            }
        }
        // Load targeting accounts for the extra CPU.
        let spec = WorkloadSpec::cold_start_mix(20_000, 7).with_load(8, 0.8);
        let got = spec.generate().offered_load(8);
        assert!((got - 0.8).abs() / 0.8 < 0.1, "offered {got} vs 0.8");
    }

    #[test]
    fn new_scenario_families_generate_deterministically() {
        for spec in [
            WorkloadSpec::diurnal(1_000, 11).with_load(8, 0.85),
            WorkloadSpec::correlated_bursts(1_000, 11).with_load(8, 0.85),
            WorkloadSpec::cold_start_mix(1_000, 11).with_load(8, 0.85),
        ] {
            let a = spec.generate();
            let b = spec.generate();
            assert_eq!(a.len(), 1_000);
            for (x, y) in a.requests.iter().zip(b.requests.iter()) {
                assert_eq!(x.arrival, y.arrival);
                assert_eq!(x.duration_ms.to_bits(), y.duration_ms.to_bits());
                assert_eq!(
                    x.cold_start_ms.map(f64::to_bits),
                    y.cold_start_ms.map(f64::to_bits)
                );
                assert!(x.spec.validate().is_ok());
            }
        }
    }

    #[test]
    fn warm_scenarios_are_unchanged_by_the_cold_start_extension() {
        // The cold-start stream is derived after the original four, so a
        // zero-fraction workload must be identical to the pre-extension
        // generator output (locked by the golden suite downstream).
        let w = WorkloadSpec::azure_sampled(500, 42)
            .with_load(12, 0.8)
            .generate();
        assert!(w.requests.iter().all(|r| r.cold_start_ms.is_none()));
    }

    #[test]
    fn arrival_order_is_stable_on_ties_and_sorts_disorder() {
        let mut w = WorkloadSpec::azure_sampled(6, 3).generate();
        let t = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        // Jittered platform dispatch: out of order, with a tie at 10 ms.
        let times = [t(30), t(10), t(10), t(5), t(20), t(10)];
        for (r, &at) in w.requests.iter_mut().zip(times.iter()) {
            r.arrival = at;
        }
        assert_eq!(w.arrival_order(), vec![3, 1, 2, 5, 4, 0]);
        let dispatched: Vec<(SimTime, u64)> = (w.arrival_order().into_iter())
            .map(|i| (w.requests[i].arrival, w.requests[i].spec.label))
            .collect();
        assert_eq!(
            dispatched,
            vec![
                (t(5), 3),
                (t(10), 1),
                (t(10), 2),
                (t(10), 5),
                (t(20), 4),
                (t(30), 0)
            ]
        );
    }

    #[test]
    fn arrival_order_of_empty_workload_is_empty() {
        let w = Workload { requests: vec![] };
        assert!(w.arrival_order().is_empty());
    }

    fn assert_streams_match(spec: &WorkloadSpec) {
        let eager = spec.generate();
        let lazy: Vec<Request> = spec.stream().collect();
        assert_eq!(eager.len(), lazy.len());
        for (e, l) in eager.requests.iter().zip(lazy.iter()) {
            assert_eq!(e.id, l.id);
            assert_eq!(e.arrival, l.arrival, "req {}", e.id);
            assert_eq!(e.duration_ms.to_bits(), l.duration_ms.to_bits());
            assert_eq!(e.app, l.app);
            assert_eq!(
                e.injected_io_ms.map(f64::to_bits),
                l.injected_io_ms.map(f64::to_bits)
            );
            assert_eq!(
                e.cold_start_ms.map(f64::to_bits),
                l.cold_start_ms.map(f64::to_bits)
            );
            assert_eq!(e.spec.phases, l.spec.phases);
            assert_eq!(e.spec.policy, l.spec.policy);
            assert_eq!(e.spec.label, l.spec.label);
        }
    }

    #[test]
    fn stream_matches_generate_across_all_families() {
        // Every workload family, including the ones with per-arrival RNG
        // state (MarkovBursty) and total-n-dependent phase (Diurnal), and
        // every optional per-request draw (io, cold start).
        let mut with_io = WorkloadSpec::azure_sampled(800, 3);
        with_io.io_fraction = 0.75;
        for spec in [
            WorkloadSpec::azure_sampled(800, 42).with_load(8, 0.9),
            WorkloadSpec::azure_replay(800, 7),
            WorkloadSpec::openlambda(800, 5),
            WorkloadSpec::diurnal(800, 11).with_load(8, 0.85),
            WorkloadSpec::correlated_bursts(800, 11).with_load(8, 0.85),
            WorkloadSpec::cold_start_mix(800, 13),
            with_io,
            WorkloadSpec {
                iat: IatSpec::Uniform {
                    lo_ms: 1.0,
                    hi_ms: 5.0,
                },
                ..WorkloadSpec::azure_sampled(200, 17)
            },
            WorkloadSpec {
                iat: IatSpec::Fixed { iat_ms: 2.5 },
                durations: DurationDist::LogUniform {
                    lo_ms: 1.0,
                    hi_ms: 1_000.0,
                },
                ..WorkloadSpec::azure_sampled(200, 19)
            },
        ] {
            assert_streams_match(&spec);
        }
    }

    #[test]
    fn stream_is_in_dispatch_order_and_sized() {
        let spec = WorkloadSpec::azure_replay(2_000, 23);
        let mut stream = spec.stream();
        assert_eq!(stream.len(), 2_000);
        let mut prev = SimTime::ZERO;
        let mut n = 0usize;
        for r in &mut stream {
            assert!(r.arrival >= prev, "arrivals must be non-decreasing");
            prev = r.arrival;
            n += 1;
        }
        assert_eq!(n, 2_000);
        assert_eq!(stream.len(), 0);
    }

    #[test]
    fn no_family_generates_zero_demand_requests() {
        // A zero-demand request has a zero ideal duration, so every ratio
        // against the ideal (RTE, the SLO's slowdown bound) degenerates for
        // it; shipped generators never make one — every request carries
        // positive demand.
        for spec in [
            WorkloadSpec::azure_sampled(2_000, 1),
            WorkloadSpec::azure_replay(2_000, 2),
            WorkloadSpec::openlambda(2_000, 3),
            WorkloadSpec::diurnal(2_000, 4),
            WorkloadSpec::correlated_bursts(2_000, 5),
            WorkloadSpec::cold_start_mix(2_000, 6),
        ] {
            for r in spec.stream() {
                let demand = r.spec.cpu_demand() + r.spec.io_demand();
                assert!(
                    demand.as_nanos() > 0,
                    "zero-demand request {} in {:?}",
                    r.id,
                    spec.iat
                );
                assert!(r.duration_ms > 0.0);
            }
        }
    }

    #[test]
    fn mean_cpu_reflects_app_mix() {
        let fib = WorkloadSpec::azure_sampled(1, 0).mean_cpu_ms();
        let ol = WorkloadSpec::openlambda(1, 0).mean_cpu_ms();
        // The OL mix has only (1 + 0.3 + 0.6)/3 ≈ 63% CPU share.
        assert!((ol / fib - 0.6333).abs() < 0.01);
    }
}
