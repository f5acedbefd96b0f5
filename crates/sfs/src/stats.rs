//! Per-request outcomes for SFS experiments, their mapping back to the
//! submitted requests of a rewritten run, and the O(1)-memory summary a
//! streaming run feeds.

use sfs_simcore::{QuantileSketch, SimDuration, SimTime};
use sfs_workload::{Request, Workload, LONG_THRESHOLD_MS};

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
    /// Whether the request belongs to the paper's "long" population: an
    /// ideal duration at or past Table I's boundary ([`LONG_THRESHOLD_MS`]).
    pub fn is_long(&self) -> bool {
        self.ideal >= SimDuration::from_millis_f64(LONG_THRESHOLD_MS)
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

/// O(1)-memory aggregate of [`RequestOutcome`]s for streaming runs: the
/// request count and a turnaround [`QuantileSketch`] (relative-error bound
/// 1%), so a 10M-request run keeps a few KiB instead of an outcome vector.
/// Feed it to [`Sim::run_streaming`](crate::Sim::run_streaming) as the
/// sink:
///
/// ```
/// use sfs_core::{OutcomeSummary, SfsConfig, SfsController, Sim};
/// use sfs_sched::MachineParams;
/// use sfs_workload::WorkloadSpec;
///
/// let arrivals = WorkloadSpec::azure_sampled(50, 1).with_load(4, 0.9).stream();
/// let mut summary = OutcomeSummary::new();
/// let run = Sim::on(MachineParams::linux(4))
///     .controller(SfsController::new(SfsConfig::new(4).without_series()))
///     .run_streaming(arrivals, |o| summary.observe(&o));
/// assert_eq!(summary.requests, 50);
/// assert_eq!(summary.turnaround_ms.count(), run.requests);
/// println!("p99 turnaround: {} ms", summary.turnaround_ms.percentile(99.0));
/// ```
#[derive(Debug, Clone)]
pub struct OutcomeSummary {
    /// Requests observed.
    pub requests: u64,
    /// Turnaround (end-to-end duration) sketch, in milliseconds.
    pub turnaround_ms: QuantileSketch,
}

impl OutcomeSummary {
    /// An empty summary whose sketch guarantees `|q̂ - q| ≤ 0.01 × q` for
    /// every reported quantile value.
    pub fn new() -> OutcomeSummary {
        OutcomeSummary {
            requests: 0,
            turnaround_ms: QuantileSketch::new(0.01),
        }
    }

    /// Fold one outcome into the summary.
    pub fn observe(&mut self, o: &RequestOutcome) {
        self.requests += 1;
        self.turnaround_ms.push(o.turnaround.as_millis_f64());
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
