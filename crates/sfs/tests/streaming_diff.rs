//! Differential suite: [`Sim::run_streaming`] against the classic
//! [`Sim::run`] replay path.
//!
//! Streaming mode changes *retention*, never *behaviour*: requests are
//! pulled lazily from the workload stream, outcome records go to a sink
//! instead of a vector, the machine drops completion records, and the task
//! table is compacted at quiescent points. Every outcome and every scalar
//! counter must nevertheless be bit-identical to the classic run over the
//! same workload — this suite locks that equivalence across policies and
//! workload families.

use sfs_core::{KernelOnly, OutcomeSummary, RequestOutcome, SfsConfig, SfsController, Sim};
use sfs_sched::MachineParams;
use sfs_workload::WorkloadSpec;

fn assert_outcomes_identical(classic: &[RequestOutcome], streamed: &mut [RequestOutcome]) {
    streamed.sort_by_key(|o| o.id);
    assert_eq!(classic.len(), streamed.len());
    for (c, s) in classic.iter().zip(streamed.iter()) {
        assert_eq!(c.id, s.id);
        assert_eq!(c.arrival, s.arrival);
        assert_eq!(c.finished, s.finished, "req {}", c.id);
        assert_eq!(c.turnaround, s.turnaround);
        assert_eq!(c.ideal, s.ideal);
        assert_eq!(c.cpu_demand, s.cpu_demand);
        assert_eq!(c.rte.to_bits(), s.rte.to_bits());
        assert_eq!(c.ctx_switches, s.ctx_switches);
        assert_eq!(c.migrations, s.migrations);
        assert_eq!(c.queue_delay, s.queue_delay);
        assert_eq!(c.demoted, s.demoted);
        assert_eq!(c.offloaded, s.offloaded);
        assert_eq!(c.filter_rounds, s.filter_rounds);
        assert_eq!(c.io_blocks, s.io_blocks);
    }
}

fn diff_sfs(spec: &WorkloadSpec, cores: usize) {
    let workload = spec.generate();
    let classic = Sim::on(MachineParams::linux(cores))
        .workload(&workload)
        .controller(SfsController::new(SfsConfig::new(cores)))
        .run();

    let mut streamed: Vec<RequestOutcome> = Vec::new();
    let run = Sim::on(MachineParams::linux(cores))
        .controller(SfsController::new(SfsConfig::new(cores).without_series()))
        .run_streaming(spec.stream(), |o| streamed.push(o));

    assert_outcomes_identical(&classic.outcomes, &mut streamed);
    assert_eq!(run.requests as usize, classic.outcomes.len());
    assert_eq!(run.sched_actions, classic.sched_actions);
    assert_eq!(run.machine_ctx_switches, classic.machine_ctx_switches);
    assert_eq!(run.sim_span, classic.sim_span);
    assert_eq!(run.telemetry.polls, classic.telemetry.polls);
    assert_eq!(run.telemetry.polled_tasks, classic.telemetry.polled_tasks);
    assert_eq!(run.telemetry.offloaded, classic.telemetry.offloaded);
    assert_eq!(run.telemetry.demoted, classic.telemetry.demoted);
    assert_eq!(run.telemetry.slice_recalcs, classic.telemetry.slice_recalcs);
    // without_series: the streaming run must not have accumulated
    // per-request series.
    assert!(run.telemetry.queue_delay_series.is_empty());
    assert!(run.telemetry.slice_timeline.is_empty());
}

#[test]
fn sfs_streaming_matches_classic_azure() {
    // Long enough past COMPACT_TASK_TABLE_LEN (1024) that quiescent-point
    // compaction actually fires and must prove itself transparent.
    diff_sfs(&WorkloadSpec::azure_sampled(3_000, 7).with_load(4, 0.9), 4);
}

#[test]
fn sfs_streaming_matches_classic_bursty_replay() {
    diff_sfs(&WorkloadSpec::azure_replay(2_500, 11), 4);
}

#[test]
fn sfs_streaming_matches_classic_io_and_cold_families() {
    let mut io = WorkloadSpec::azure_sampled(1_500, 13).with_load(4, 0.8);
    io.io_fraction = 0.75;
    diff_sfs(&io, 4);
    diff_sfs(
        &WorkloadSpec::cold_start_mix(1_500, 17).with_load(4, 0.8),
        4,
    );
}

#[test]
fn kernel_only_streaming_matches_classic() {
    let spec = WorkloadSpec::azure_sampled(2_000, 19).with_load(4, 0.9);
    let workload = spec.generate();
    let classic = Sim::on(MachineParams::linux(4))
        .workload(&workload)
        .controller(KernelOnly(sfs_sched::Policy::NORMAL))
        .run();
    let mut streamed = Vec::new();
    let run = Sim::on(MachineParams::linux(4))
        .controller(KernelOnly(sfs_sched::Policy::NORMAL))
        .run_streaming(spec.stream(), |o| streamed.push(o));
    assert_outcomes_identical(&classic.outcomes, &mut streamed);
    assert_eq!(run.machine_ctx_switches, classic.machine_ctx_switches);
    assert_eq!(run.sim_span, classic.sim_span);
}

#[test]
fn outcome_summary_sink_matches_exact_percentiles() {
    // The full O(1)-memory reporting path: stream → OutcomeSummary, then
    // compare its sketched percentiles against exact Samples over the
    // classic run's outcome vector.
    let spec = WorkloadSpec::azure_sampled(4_000, 23).with_load(4, 0.9);
    let workload = spec.generate();
    let classic = Sim::on(MachineParams::linux(4))
        .workload(&workload)
        .controller(SfsController::new(SfsConfig::new(4)))
        .run();
    let mut summary = OutcomeSummary::new();
    let run = Sim::on(MachineParams::linux(4))
        .controller(SfsController::new(SfsConfig::new(4).without_series()))
        .run_streaming(spec.stream(), |o| summary.observe(&o));
    assert_eq!(summary.requests, run.requests);

    let mut exact = sfs_simcore::Samples::from_vec(
        classic
            .outcomes
            .iter()
            .map(|o| o.turnaround.as_millis_f64())
            .collect(),
    );
    for p in [50.0, 90.0, 99.0, 99.9] {
        let (e, s) = (exact.percentile(p), summary.turnaround_ms.percentile(p));
        assert!((s - e).abs() <= 0.011 * e, "p{p}: sketch {s} vs exact {e}");
    }
}

#[test]
#[should_panic(expected = "analytic controllers are not supported")]
fn analytic_controllers_are_rejected_in_streaming_mode() {
    let spec = WorkloadSpec::azure_sampled(10, 1);
    let _ = Sim::on(MachineParams::linux(2))
        .controller(sfs_core::Ideal)
        .run_streaming(spec.stream(), |_| {});
}

#[test]
#[should_panic(expected = "remove .workload")]
fn streaming_rejects_materialised_workload() {
    let spec = WorkloadSpec::azure_sampled(10, 1);
    let w = spec.generate();
    let _ = Sim::on(MachineParams::linux(2))
        .workload(&w)
        .controller(SfsController::new(SfsConfig::new(2)))
        .run_streaming(spec.stream(), |_| {});
}
