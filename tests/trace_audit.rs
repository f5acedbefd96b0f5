//! Schedule-trace audits: with tracing enabled, the recorded execution
//! segments must be mutually consistent with the machine's accounting —
//! the strongest end-to-end correctness check the simulator offers.

#[path = "support/audit.rs"]
mod audit;

use sfs_repro::sched::{Machine, MachineParams, Policy, TaskSpec};
use sfs_repro::sfs::{SfsConfig, SfsController, Sim, FILTER_PRIO};
use sfs_repro::simcore::{SimDuration, SimTime};
use sfs_repro::workload::WorkloadSpec;

#[test]
fn trace_time_equals_charged_cpu_time() {
    let mut m = Machine::new(MachineParams {
        ctx_switch_cost: SimDuration::ZERO,
        ..MachineParams::linux(2)
    });
    m.enable_tracing();
    let mut pids = Vec::new();
    for i in 0..20u64 {
        pids.push(m.spawn(TaskSpec::cpu(i, SimDuration::from_millis(5 + i))));
    }
    let notes = m.run_until_quiescent();
    let done = audit::completions(&notes);
    assert_eq!(done.len(), pids.len(), "every task finishes");
    let trace = m.trace().expect("tracing enabled").clone();
    assert!(trace.find_overlap().is_none(), "cores double-booked");
    for t in &done {
        assert_eq!(
            trace.task_time(t.pid),
            t.cpu_time,
            "trace vs charge mismatch for {}",
            t.pid
        );
    }
    // Total busy time across cores equals total CPU demand.
    let busy = trace.core_busy(0) + trace.core_busy(1);
    let demand: SimDuration = done.iter().map(|t| t.cpu_demand).sum();
    assert_eq!(busy, demand);
}

#[test]
fn sfs_trace_shows_filter_phases_as_rt_segments() {
    let w = WorkloadSpec::azure_sampled(300, 5)
        .with_load(4, 0.9)
        .generate();
    let r = Sim::on(MachineParams::linux(4))
        .workload(&w)
        .controller(SfsController::new(SfsConfig::new(4)))
        .tracing()
        .run();
    let trace = r.schedule_trace.expect("tracing requested");
    assert!(trace.find_overlap().is_none());
    let rt_segments = trace
        .segments()
        .iter()
        .filter(|s| s.policy.is_realtime())
        .count();
    let cfs_segments = trace.segments().len() - rt_segments;
    // FILTER rounds run as SCHED_FIFO: the trace must show a substantial RT
    // share, plus CFS segments from demoted long functions.
    assert!(
        rt_segments > 200,
        "expected FILTER (RT) segments, got {rt_segments}"
    );
    assert!(
        cfs_segments > 0,
        "expected demoted CFS segments, got {cfs_segments}"
    );
    for s in trace.segments() {
        if let Policy::Fifo { prio } = s.policy {
            assert_eq!(prio, FILTER_PRIO, "FILTER priority");
        }
    }
}

#[test]
fn gantt_rendering_covers_the_run() {
    let mut m = Machine::new(MachineParams::linux(2));
    m.enable_tracing();
    m.spawn(TaskSpec::cpu(0, SimDuration::from_millis(40)));
    m.spawn(TaskSpec {
        phases: vec![sfs_repro::sched::Phase::Cpu(SimDuration::from_millis(40))],
        policy: Policy::Fifo { prio: 50 },
        label: 1,
    });
    m.run_until_quiescent();
    let g = m.trace().unwrap().render_gantt(SimTime::ZERO, m.now(), 60);
    assert!(g.contains("core 0") && g.contains("core 1"));
    // CFS task renders as its digit, RT task as a letter.
    assert!(g.contains('0'));
    assert!(g.contains('B'));
}
