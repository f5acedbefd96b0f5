//! Per-request outcomes and run-level results for SFS experiments.

use sfs_simcore::{OnlineStats, QuantileSketch, SimDuration, SimTime};
use sfs_workload::{Request, Workload};

/// Everything measured about one completed function request.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Workload request id.
    pub id: u64,
    /// Invocation time (FaaS dispatch == OS spawn in the model).
    pub arrival: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// End-to-end execution duration (the paper's headline metric).
    pub turnaround: SimDuration,
    /// Duration under the IDEAL (isolated, infinite-resource) scenario.
    pub ideal: SimDuration,
    /// CPU service demand.
    pub cpu_demand: SimDuration,
    /// Run-time effectiveness (paper Eq. 1).
    pub rte: f64,
    /// Involuntary context switches suffered.
    pub ctx_switches: u64,
    /// Core-to-core migrations (wakeup placement, idle steals, and SMP
    /// balance-tick pulls combined).
    pub migrations: u64,
    /// Time spent waiting in SFS's global queue before the first pop
    /// (zero for pure-kernel baselines).
    pub queue_delay: SimDuration,
    /// Whether the request exhausted its FILTER slice and was demoted to CFS.
    pub demoted: bool,
    /// Whether the overload bypass sent it straight to CFS.
    pub offloaded: bool,
    /// Number of FILTER rounds it received.
    pub filter_rounds: u32,
    /// Number of I/O blocks detected during FILTER rounds.
    pub io_blocks: u32,
}

impl RequestOutcome {
    /// Slowdown relative to the ideal duration (≥ 1).
    ///
    /// A degenerate zero-demand request (ideal = 0) must not report 1.0 —
    /// that would mask an arbitrarily large turnaround as "perfect". The
    /// ratio is instead taken against a 1 ns floor, so such a request
    /// reports `turnaround / 1 ns` (finite, never `inf`/NaN) and shows up
    /// at the far tail where it belongs. No shipped workload family
    /// generates zero-demand requests (asserted in the workload tests);
    /// the floor only guards hand-built degenerate inputs.
    pub fn slowdown(&self) -> f64 {
        let ideal_ns = (self.ideal.as_nanos().max(1)) as f64;
        (self.turnaround.as_nanos() as f64 / ideal_ns).max(1.0)
    }
}

/// Run host-side rewrites of submitted requests and map every outcome back
/// to the request it came from by workload index, never by id.
///
/// `derived` yields `(index into submitted, host-side request)` pairs: the
/// fleet's per-host sub-workloads (moved by RTT, with cold-start and
/// straggler phases) and the OpenLambda pipeline's OS-dispatch arrivals are
/// both such rewrites. `run` executes the rewritten workload, whose request
/// `k` is relabelled `k` so that a run's id-sorted outcomes line up with
/// the pairs by position. Each outcome then takes back its submitted id,
/// and arrival, turnaround and RTE are measured from the submitted arrival,
/// so every delay before the host saw the request (platform pipeline,
/// network RTT, re-dispatch) counts as part of what the user felt.
/// Submitted ids may be sparse or large: nothing indexes by them. The
/// result is sorted by submitted id.
pub fn run_rebased(
    submitted: &Workload,
    derived: impl IntoIterator<Item = (usize, Request)>,
    run: impl FnOnce(&Workload) -> Vec<RequestOutcome>,
) -> Vec<RequestOutcome> {
    let mut source = Vec::new();
    let requests = derived
        .into_iter()
        .enumerate()
        .map(|(k, (idx, mut r))| {
            source.push(idx);
            r.id = k as u64;
            r.spec.label = r.id;
            r
        })
        .collect();
    let mut outcomes = run(&Workload { requests });
    assert_eq!(
        outcomes.len(),
        source.len(),
        "every rewritten request yields one outcome"
    );
    for (k, (o, &idx)) in outcomes.iter_mut().zip(&source).enumerate() {
        assert!(
            o.id == k as u64,
            "run_rebased: outcome {k} has id {}; `run` must return its outcomes sorted by id",
            o.id
        );
        let r = &submitted.requests[idx];
        o.id = r.id;
        o.arrival = r.arrival;
        o.turnaround = o.finished.since(r.arrival);
        o.rte = sfs_sched::task::rte(o.ideal, o.turnaround);
    }
    outcomes.sort_by_key(|o| o.id);
    outcomes
}

/// O(1)-memory aggregate of [`RequestOutcome`]s for streaming runs.
///
/// Replaces the exact `Vec<RequestOutcome>` with mergeable
/// [`QuantileSketch`]es (default relative-error bound 1%) plus exact scalar
/// counters, so a 10M-request run retains a few KiB of statistics instead
/// of gigabytes of samples. Feed it to
/// [`Sim::run_streaming`](crate::Sim::run_streaming) as the sink:
///
/// ```ignore
/// let mut summary = OutcomeSummary::new();
/// let stream = sim.run_streaming(arrivals, |o| summary.observe(&o));
/// println!("p99 turnaround: {} ms", summary.turnaround_ms.percentile(99.0));
/// ```
#[derive(Debug, Clone)]
pub struct OutcomeSummary {
    /// Requests observed.
    pub requests: u64,
    /// Turnaround (end-to-end duration) sketch, in milliseconds.
    pub turnaround_ms: QuantileSketch,
    /// Global-queue delay sketch, in milliseconds.
    pub queue_delay_ms: QuantileSketch,
    /// Slowdown (`turnaround / ideal`, ≥ 1) sketch.
    pub slowdown: QuantileSketch,
    /// Run-time effectiveness sketch (paper Eq. 1; values in (0, 1]).
    pub rte: QuantileSketch,
    /// Exact running moments of turnaround in milliseconds (mean/stddev are
    /// exact even though the percentiles above are approximate).
    pub turnaround_stats: OnlineStats,
    /// Requests demoted to CFS on slice expiry.
    pub demoted: u64,
    /// Requests sent straight to CFS by the overload bypass.
    pub offloaded: u64,
    /// Total involuntary context switches across requests.
    pub ctx_switches: u64,
    /// Total I/O blocks detected during FILTER rounds.
    pub io_blocks: u64,
    first_arrival: Option<SimTime>,
    last_finish: Option<SimTime>,
}

impl OutcomeSummary {
    /// Summary with the default 1% relative-error bound on percentiles.
    pub fn new() -> OutcomeSummary {
        OutcomeSummary::with_accuracy(0.01)
    }

    /// Summary whose sketches guarantee `|q̂ - q| ≤ alpha × q` for every
    /// reported quantile value.
    pub fn with_accuracy(alpha: f64) -> OutcomeSummary {
        OutcomeSummary {
            requests: 0,
            turnaround_ms: QuantileSketch::new(alpha),
            queue_delay_ms: QuantileSketch::new(alpha),
            slowdown: QuantileSketch::new(alpha),
            rte: QuantileSketch::new(alpha),
            turnaround_stats: OnlineStats::new(),
            demoted: 0,
            offloaded: 0,
            ctx_switches: 0,
            io_blocks: 0,
            first_arrival: None,
            last_finish: None,
        }
    }

    /// Fold one outcome into the summary.
    pub fn observe(&mut self, o: &RequestOutcome) {
        self.requests += 1;
        let t_ms = o.turnaround.as_millis_f64();
        self.turnaround_ms.push(t_ms);
        self.turnaround_stats.push(t_ms);
        self.queue_delay_ms.push(o.queue_delay.as_millis_f64());
        self.slowdown.push(o.slowdown());
        self.rte.push(o.rte);
        if o.demoted {
            self.demoted += 1;
        }
        if o.offloaded {
            self.offloaded += 1;
        }
        self.ctx_switches += o.ctx_switches;
        self.io_blocks += u64::from(o.io_blocks);
        self.first_arrival = Some(match self.first_arrival {
            Some(t) => t.min(o.arrival),
            None => o.arrival,
        });
        self.last_finish = Some(match self.last_finish {
            Some(t) => t.max(o.finished),
            None => o.finished,
        });
    }

    /// Merge another summary (e.g. from a parallel shard) into this one.
    /// Both must use the same accuracy.
    pub fn merge(&mut self, other: &OutcomeSummary) {
        self.requests += other.requests;
        self.turnaround_ms.merge(&other.turnaround_ms);
        self.queue_delay_ms.merge(&other.queue_delay_ms);
        self.slowdown.merge(&other.slowdown);
        self.rte.merge(&other.rte);
        self.turnaround_stats.merge(&other.turnaround_stats);
        self.demoted += other.demoted;
        self.offloaded += other.offloaded;
        self.ctx_switches += other.ctx_switches;
        self.io_blocks += other.io_blocks;
        self.first_arrival = match (self.first_arrival, other.first_arrival) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_finish = match (self.last_finish, other.last_finish) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Exact mean turnaround in ms (mirrors
    /// [`RunOutcome::mean_turnaround_ms`](crate::RunOutcome::mean_turnaround_ms)).
    pub fn mean_turnaround_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.turnaround_stats.mean()
        }
    }

    /// Approximate fraction of requests with RTE at least `x`, from the RTE
    /// sketch (bisection over the monotone quantile function; accurate to
    /// the sketch's relative-error bound on values near `x`).
    pub fn fraction_rte_at_least(&self, x: f64) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        if self.rte.min() >= x {
            return 1.0;
        }
        if self.rte.max() < x {
            return 0.0;
        }
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if self.rte.quantile(mid) < x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        1.0 - 0.5 * (lo + hi)
    }

    /// Wall-clock span covered by observed requests (first arrival to last
    /// completion); zero when empty.
    pub fn observed_span(&self) -> SimDuration {
        match (self.first_arrival, self.last_finish) {
            (Some(a), Some(f)) => f.since(a),
            _ => SimDuration::ZERO,
        }
    }
}

impl Default for OutcomeSummary {
    fn default() -> OutcomeSummary {
        OutcomeSummary::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{RunOutcome, Telemetry};

    fn mk_outcome(turn_ms: u64, ideal_ms: u64) -> RequestOutcome {
        RequestOutcome {
            id: 0,
            arrival: SimTime::ZERO,
            finished: SimTime::ZERO + SimDuration::from_millis(turn_ms),
            turnaround: SimDuration::from_millis(turn_ms),
            ideal: SimDuration::from_millis(ideal_ms),
            cpu_demand: SimDuration::from_millis(ideal_ms),
            rte: ideal_ms as f64 / turn_ms as f64,
            ctx_switches: 0,
            migrations: 0,
            queue_delay: SimDuration::ZERO,
            demoted: false,
            offloaded: false,
            filter_rounds: 1,
            io_blocks: 0,
        }
    }

    #[test]
    #[should_panic(expected = "run_rebased: outcome 0 has id 2")]
    fn run_rebased_rejects_outcomes_out_of_position() {
        let w = sfs_workload::WorkloadSpec::azure_sampled(3, 1).generate();
        run_rebased(&w, w.requests.iter().cloned().enumerate(), |sub| {
            (sub.requests.iter().rev())
                .map(|r| RequestOutcome {
                    id: r.id,
                    ..mk_outcome(10, 5)
                })
                .collect()
        });
    }

    #[test]
    fn slowdown_floors_at_one() {
        assert_eq!(mk_outcome(100, 50).slowdown(), 2.0);
        assert_eq!(mk_outcome(50, 50).slowdown(), 1.0);
    }

    #[test]
    fn zero_ideal_slowdown_is_not_masked() {
        // Regression: a zero-demand request used to report slowdown 1.0 no
        // matter how long it actually took. It now ratios against a 1 ns
        // floor: huge but finite.
        let mut o = mk_outcome(50, 50);
        o.ideal = SimDuration::ZERO;
        assert_eq!(o.slowdown(), 50e6, "50 ms over the 1 ns floor");
        assert!(o.slowdown().is_finite());
        // Degenerate zero/zero still floors at 1 (it was instantaneous).
        o.turnaround = SimDuration::ZERO;
        assert_eq!(o.slowdown(), 1.0);
    }

    #[test]
    fn outcome_summary_matches_exact_aggregates() {
        let outcomes: Vec<RequestOutcome> = (1..=1_000)
            .map(|i| {
                let mut o = mk_outcome(2 * i, i);
                o.id = i;
                o.arrival = SimTime::ZERO + SimDuration::from_millis(i);
                o.finished = o.arrival + o.turnaround;
                o.ctx_switches = i % 3;
                o.io_blocks = (i % 5) as u32;
                o.demoted = i % 7 == 0;
                o.offloaded = i % 11 == 0;
                o
            })
            .collect();
        let mut sum = OutcomeSummary::new();
        for o in &outcomes {
            sum.observe(o);
        }
        assert_eq!(sum.requests, 1_000);
        assert_eq!(
            sum.demoted,
            outcomes.iter().filter(|o| o.demoted).count() as u64
        );
        assert_eq!(
            sum.offloaded,
            outcomes.iter().filter(|o| o.offloaded).count() as u64
        );
        assert_eq!(
            sum.ctx_switches,
            outcomes.iter().map(|o| o.ctx_switches).sum::<u64>()
        );
        let exact_mean = outcomes
            .iter()
            .map(|o| o.turnaround.as_millis_f64())
            .sum::<f64>()
            / 1_000.0;
        assert!((sum.mean_turnaround_ms() - exact_mean).abs() < 1e-9);
        // Percentiles within the 1% relative-error contract.
        let mut exact = sfs_simcore::Samples::from_vec(
            outcomes
                .iter()
                .map(|o| o.turnaround.as_millis_f64())
                .collect(),
        );
        for p in [50.0, 90.0, 99.0] {
            let (e, s) = (exact.percentile(p), sum.turnaround_ms.percentile(p));
            assert!((s - e).abs() <= 0.011 * e, "p{p}: sketch {s} vs exact {e}");
        }
        // All rte values are 0.5 here, so any threshold at or below 0.5 is
        // met by everyone and anything above by no one.
        assert!((sum.fraction_rte_at_least(0.4) - 1.0).abs() < 1e-9);
        assert!(sum.fraction_rte_at_least(0.9) < 1e-9);
        // Span: first arrival at 1ms, last finish at 1000ms + 2000ms.
        assert_eq!(sum.observed_span(), SimDuration::from_millis(2_999));
    }

    #[test]
    fn outcome_summary_merge_equals_single_pass() {
        let mk = |i: u64| {
            let mut o = mk_outcome(10 + i, 5 + i / 2);
            o.id = i;
            o.arrival = SimTime::ZERO + SimDuration::from_millis(i);
            o.finished = o.arrival + o.turnaround;
            o
        };
        let mut whole = OutcomeSummary::new();
        let mut left = OutcomeSummary::new();
        let mut right = OutcomeSummary::new();
        for i in 0..500 {
            let o = mk(i);
            whole.observe(&o);
            if i < 250 { &mut left } else { &mut right }.observe(&o);
        }
        left.merge(&right);
        assert_eq!(left.requests, whole.requests);
        assert_eq!(left.observed_span(), whole.observed_span());
        for p in [50.0, 95.0, 99.9] {
            assert_eq!(
                left.turnaround_ms.percentile(p).to_bits(),
                whole.turnaround_ms.percentile(p).to_bits(),
                "merge must be exact at p{p} (same buckets)"
            );
        }
        assert!((left.mean_turnaround_ms() - whole.mean_turnaround_ms()).abs() < 1e-9);
    }

    /// A run with these outcomes and controller counters, over `span` on
    /// `cores` cores.
    fn run(
        outcomes: Vec<RequestOutcome>,
        polled_tasks: u64,
        sched_actions: u64,
        span: SimDuration,
        cores: usize,
    ) -> RunOutcome {
        RunOutcome {
            outcomes,
            sched_actions,
            machine_ctx_switches: 0,
            sim_span: span,
            cores,
            schedule_trace: None,
            telemetry: Telemetry {
                polled_tasks,
                ..Telemetry::default()
            },
        }
    }

    #[test]
    fn run_result_aggregates() {
        let outcomes = vec![mk_outcome(10, 10), mk_outcome(30, 15), mk_outcome(20, 20)];
        let r = run(outcomes, 0, 0, SimDuration::from_secs(1), 4);
        assert!((r.mean_turnaround_ms() - 20.0).abs() < 1e-12);
        assert!((r.fraction_rte_at_least(0.95) - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.fraction_rte_at_least(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_model_accounts_polls_and_actions() {
        let r = run(vec![], 72_000, 10_000, SimDuration::from_secs(100), 72);
        let poll_cost = SimDuration::from_micros(120);
        let act_cost = SimDuration::from_micros(150);
        let f = r.overhead_fraction(poll_cost, act_cost);
        // 72000*120us + 10000*150us = 8.64s + 1.5s = 10.14s over 7200 core-s.
        assert!((f - 10.14 / 7200.0).abs() < 1e-9);
        let share = r.polling_overhead_share(poll_cost, act_cost);
        assert!((share - 8.64 / 10.14).abs() < 1e-9);
    }
}
