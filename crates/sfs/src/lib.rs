//! # sfs-core — the Smart Function Scheduler and the policy-driven sim API
//!
//! Reproduction of the paper's contribution: a user-space, two-level
//! function scheduler that approximates SRTF by steering Linux's existing
//! FIFO and CFS schedulers (paper §V–VI) — generalised so *any* user-space
//! policy is a pluggable [`Controller`] value driven by one [`Sim`] runner.
//!
//! * [`sim`] — the [`Controller`] trait, the [`Sim`] builder, and the
//!   uniform [`RunOutcome`] every policy produces;
//! * [`scheduler`] — [`SfsController`], the paper's policy (global queue +
//!   workers + FILTER/CFS flow), plus its SLO-deadline variant;
//! * [`policies`] — [`KernelOnly`] baselines, the [`Ideal`] bound, and
//!   further controllers ([`HistoryPriority`], [`UserMlfq`]);
//! * [`config`] — SFS tunables (window N, poll interval, slice mode, …)
//!   and the paper's fixed numbers (overload factor O, FILTER priority,
//!   slice clamps);
//! * [`timeslice`] — the adaptive FILTER slice `S = mean(IAT_N) × c`;
//! * [`baseline`] — [`Baseline`] descriptors ([`ControllerFactory`] form);
//! * [`stats`] — per-request outcomes and run aggregates.
//!
//! ## Quickstart
//! ```
//! use sfs_core::{Sim, SfsConfig, SfsController};
//! use sfs_sched::MachineParams;
//! use sfs_workload::WorkloadSpec;
//!
//! let workload = WorkloadSpec::azure_sampled(200, 1).with_load(4, 0.8).generate();
//! let run = Sim::on(MachineParams::linux(4))
//!     .workload(&workload)
//!     .controller(SfsController::new(SfsConfig::new(4)))
//!     .run();
//! assert_eq!(run.outcomes.len(), 200);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod config;
pub mod policies;
pub mod scheduler;
pub mod sim;
pub mod stats;
pub mod timeslice;

pub use baseline::Baseline;
pub use config::{QueueMode, SfsConfig, SliceMode, FILTER_PRIO};
pub use policies::{HistoryPriority, Ideal, KernelOnly, UserMlfq};
pub use scheduler::SfsController;
pub use sim::{
    Controller, ControllerFactory, FnFactory, MachineView, RunOutcome, Sim, StreamRun, Telemetry,
};
pub use stats::{run_rebased, OutcomeSummary, RequestOutcome};
pub use timeslice::SliceController;

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_sched::MachineParams;
    use sfs_simcore::SimDuration;
    use sfs_workload::{IatSpec, Spike, WorkloadSpec};

    fn run_sfs(cfg: SfsConfig, cores: usize, w: &sfs_workload::Workload) -> RunOutcome {
        Sim::on(MachineParams::linux(cores))
            .workload(w)
            .controller(SfsController::new(cfg))
            .run()
    }

    fn run_cfs(cores: usize, w: &sfs_workload::Workload) -> Vec<RequestOutcome> {
        Sim::on(MachineParams::linux(cores))
            .workload(w)
            .controller(KernelOnly(sfs_sched::Policy::NORMAL))
            .run()
            .outcomes
    }

    #[test]
    fn short_functions_mostly_uninterrupted_at_moderate_load() {
        // Paper Fig. 7: at 65–80% load, ~88–93% of requests get RTE ≥ 0.95
        // under SFS.
        let w = WorkloadSpec::azure_sampled(2_000, 13)
            .with_load(8, 0.65)
            .generate();
        let r = run_sfs(SfsConfig::new(8), 8, &w);
        let frac = r.fraction_rte_at_least(0.95);
        assert!(
            frac > 0.80,
            "expected most requests unpreempted under SFS at 65% load, got {frac}"
        );
    }

    #[test]
    fn sfs_beats_cfs_for_short_functions_at_high_load() {
        // The headline claim: short functions improve dramatically vs CFS.
        let w = WorkloadSpec::azure_sampled(2_500, 17)
            .with_load(8, 1.0)
            .generate();
        let sfs = run_sfs(SfsConfig::new(8), 8, &w);
        let cfs = run_cfs(8, &w);
        let mean_short = |v: &[RequestOutcome]| {
            let xs: Vec<f64> = v
                .iter()
                .filter(|o| o.ideal < SimDuration::from_millis(400))
                .map(|o| o.turnaround.as_millis_f64())
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let (s, c) = (mean_short(&sfs.outcomes), mean_short(&cfs));
        assert!(
            s * 3.0 < c,
            "SFS short-function mean {s}ms should be far below CFS {c}ms"
        );
    }

    #[test]
    fn long_functions_pay_a_bounded_penalty() {
        // Paper: the ~17% long functions run ~1.29x longer under SFS.
        let w = WorkloadSpec::azure_sampled(2_500, 19)
            .with_load(8, 1.0)
            .generate();
        let sfs = run_sfs(SfsConfig::new(8), 8, &w);
        let cfs = run_cfs(8, &w);
        let mean_long = |v: &[RequestOutcome]| {
            let xs: Vec<f64> = v
                .iter()
                .filter(|o| o.ideal >= SimDuration::from_millis(1550))
                .map(|o| o.turnaround.as_millis_f64())
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let ratio = mean_long(&sfs.outcomes) / mean_long(&cfs);
        assert!(
            ratio < 2.5,
            "long-function penalty {ratio}x should stay moderate"
        );
    }

    #[test]
    fn adaptive_slice_actually_adapts() {
        let w = WorkloadSpec::azure_sampled(1_000, 23)
            .with_load(4, 0.9)
            .generate();
        let r = run_sfs(SfsConfig::new(4), 4, &w);
        assert!(
            r.telemetry.slice_recalcs >= 9,
            "expected ~10 recalcs, got {}",
            r.telemetry.slice_recalcs
        );
        assert_eq!(
            r.telemetry.slice_timeline.len() as u64,
            r.telemetry.slice_recalcs
        );
    }

    #[test]
    fn demotions_happen_for_long_functions() {
        let w = WorkloadSpec::azure_sampled(1_500, 29)
            .with_load(4, 0.9)
            .generate();
        let r = run_sfs(SfsConfig::new(4), 4, &w);
        assert!(
            r.telemetry.demoted > 0,
            "long functions must exceed the slice"
        );
        let long_demoted = r
            .outcomes
            .iter()
            .filter(|o| o.ideal >= SimDuration::from_millis(1550))
            .filter(|o| o.demoted || o.offloaded)
            .count();
        let long_total = r
            .outcomes
            .iter()
            .filter(|o| o.ideal >= SimDuration::from_millis(1550))
            .count();
        assert!(
            long_demoted * 10 >= long_total * 8,
            "most long functions should leave FILTER ({long_demoted}/{long_total})"
        );
    }

    #[test]
    fn io_aware_recovers_unused_slice() {
        let mut spec = WorkloadSpec::azure_sampled(800, 31);
        spec.io_fraction = 0.75;
        let w = spec.with_load(4, 0.8).generate();
        let aware = run_sfs(SfsConfig::new(4), 4, &w);
        let oblivious = run_sfs(SfsConfig::new(4).io_oblivious(), 4, &w);
        // I/O-aware SFS re-enqueues blocked functions: it must detect blocks.
        let blocks: u32 = aware.outcomes.iter().map(|o| o.io_blocks).sum();
        assert!(blocks > 100, "I/O blocks should be detected, got {blocks}");
        // And it should finish the workload at least as fast on mean.
        assert!(
            aware.mean_turnaround_ms() <= oblivious.mean_turnaround_ms() * 1.05,
            "aware {} vs oblivious {}",
            aware.mean_turnaround_ms(),
            oblivious.mean_turnaround_ms()
        );
    }

    #[test]
    fn overload_bypass_limits_queue_delay() {
        // Bursty workload (Fig. 12): with the hybrid fallback, peak global
        // queue delay must be far below the no-hybrid variant.
        let mut spec = WorkloadSpec::azure_sampled(3_000, 37);
        spec.iat = IatSpec::Bursty {
            base_mean_ms: 1.0,
            spikes: Spike::evenly_spaced(2, 400, 25.0, 3_000),
        };
        let w = spec.with_load(4, 0.85).generate();
        let hybrid = run_sfs(SfsConfig::new(4), 4, &w);
        let pure = run_sfs(SfsConfig::new(4).without_hybrid(), 4, &w);
        assert!(
            hybrid.telemetry.offloaded > 0,
            "spikes must trigger the bypass"
        );
        let peak = |r: &RunOutcome| r.telemetry.queue_delay_series.max_value();
        assert!(
            peak(&hybrid) < peak(&pure),
            "hybrid peak {} should undercut pure-FILTER peak {}",
            peak(&hybrid),
            peak(&pure)
        );
    }

    #[test]
    fn slo_variant_bounds_queue_age_harder() {
        // Same burst shape as the hybrid test: the SLO deadline sheds aged
        // requests proactively at poll ticks, so its peak queue delay must
        // not exceed the paper rule's, and it must shed at least as many.
        let mut spec = WorkloadSpec::azure_sampled(3_000, 37);
        spec.iat = IatSpec::Bursty {
            base_mean_ms: 1.0,
            spikes: Spike::evenly_spaced(2, 400, 25.0, 3_000),
        };
        let w = spec.with_load(4, 0.85).generate();
        let deadline = SimDuration::from_millis(150);
        let slo = Sim::on(MachineParams::linux(4))
            .workload(&w)
            .controller(SfsController::with_slo(SfsConfig::new(4), deadline))
            .run();
        assert!(
            slo.telemetry.offloaded > 0,
            "the burst must trigger shedding"
        );
        // Every non-offloaded request met the deadline at its first pop.
        for o in slo.outcomes.iter().filter(|o| !o.offloaded) {
            assert!(
                o.queue_delay <= deadline,
                "req {} popped after its deadline: {}",
                o.id,
                o.queue_delay
            );
        }
        assert_eq!(slo.outcomes.len(), 3_000);
    }

    #[test]
    fn deterministic_end_to_end() {
        let w = WorkloadSpec::azure_sampled(600, 41)
            .with_load(4, 0.9)
            .generate();
        let a = run_sfs(SfsConfig::new(4), 4, &w);
        let b = run_sfs(SfsConfig::new(4), 4, &w);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.finished, y.finished);
            assert_eq!(x.ctx_switches, y.ctx_switches);
            assert_eq!(x.demoted, y.demoted);
        }
        assert_eq!(a.telemetry.polls, b.telemetry.polls);
        assert_eq!(a.telemetry.offloaded, b.telemetry.offloaded);
    }

    #[test]
    fn sfs_reduces_context_switches_vs_cfs() {
        // Fig. 16's mechanism: CFS slices short functions repeatedly; under
        // SFS they run to completion in FILTER with zero involuntary
        // switches. (Totals are dominated by the demoted long tail, so the
        // paper's claim — and this test — is per-request.)
        let w = WorkloadSpec::azure_sampled(1_500, 43)
            .with_load(8, 1.0)
            .generate();
        let sfs = run_sfs(SfsConfig::new(8), 8, &w);
        let cfs = run_cfs(8, &w);
        let shorts: Vec<(&RequestOutcome, &RequestOutcome)> = sfs
            .outcomes
            .iter()
            .zip(cfs.iter())
            .filter(|(s, _)| s.ideal < SimDuration::from_millis(400))
            .collect();
        let zero_under_sfs = shorts.iter().filter(|(s, _)| s.ctx_switches == 0).count();
        assert!(
            zero_under_sfs * 100 >= shorts.len() * 95,
            "only {zero_under_sfs}/{} short requests unswitched under SFS",
            shorts.len()
        );
        let cfs_worse = sfs
            .outcomes
            .iter()
            .zip(cfs.iter())
            .filter(|(s, c)| c.ctx_switches > s.ctx_switches)
            .count();
        assert!(
            cfs_worse * 100 >= sfs.outcomes.len() * 70,
            "CFS should out-switch SFS for most requests ({cfs_worse}/{})",
            sfs.outcomes.len()
        );
    }

    #[test]
    fn fixed_slice_variants_run() {
        let w = WorkloadSpec::azure_sampled(400, 47)
            .with_load(4, 0.8)
            .generate();
        for ms in [50, 100, 200] {
            let r = run_sfs(SfsConfig::new(4).with_fixed_slice(ms), 4, &w);
            assert_eq!(r.outcomes.len(), 400);
            assert_eq!(r.telemetry.slice_recalcs, 0, "fixed slice must not adapt");
        }
    }

    #[test]
    fn global_queue_beats_per_worker_queues_on_tail() {
        // The paper's §VI design argument: a single global queue gives
        // natural work conservation; static per-worker queues suffer load
        // imbalance, inflating the tail.
        let w = WorkloadSpec::azure_sampled(2_000, 59)
            .with_load(8, 0.9)
            .generate();
        let global = run_sfs(SfsConfig::new(8), 8, &w);
        let per = run_sfs(SfsConfig::new(8).per_worker_queues(), 8, &w);
        let p99 = |r: &RunOutcome| {
            let mut s = sfs_simcore::Samples::from_vec(
                r.outcomes
                    .iter()
                    .map(|o| o.turnaround.as_millis_f64())
                    .collect(),
            );
            s.percentile(99.0)
        };
        assert!(
            p99(&global) <= p99(&per),
            "global p99 {} should not exceed per-worker p99 {}",
            p99(&global),
            p99(&per)
        );
        assert_eq!(
            per.outcomes.len(),
            2_000,
            "per-worker mode must still complete"
        );
    }

    #[test]
    fn overhead_model_produces_small_fraction() {
        let w = WorkloadSpec::azure_sampled(1_000, 53)
            .with_load(8, 0.8)
            .generate();
        let r = run_sfs(SfsConfig::new(8), 8, &w);
        let f = r.overhead_fraction(SimDuration::from_micros(120), SimDuration::from_micros(150));
        assert!(
            f > 0.0 && f < 0.15,
            "overhead fraction {f} out of plausible range"
        );
    }
}
