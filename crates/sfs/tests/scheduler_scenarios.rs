//! Scenario tests for the SFS scheduler over crafted workloads: FILTER
//! promotion visibility, slice carry-over across I/O blocks, overload
//! threshold arithmetic, and queue-topology behaviour.

use sfs_core::{QueueMode, RunOutcome, SfsConfig, SfsController, Sim, SliceMode};
use sfs_sched::{MachineParams, Phase, Policy, TaskSpec};
use sfs_simcore::{SimDuration, SimTime};
use sfs_workload::{build_task, AppKind, IatSpec, Request, Spike, Workload, WorkloadSpec};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Hand-build a workload from `(arrival_ms, duration_ms, leading_io_ms)`.
fn craft(rows: &[(u64, f64, Option<f64>)]) -> Workload {
    let requests = rows
        .iter()
        .enumerate()
        .map(|(i, &(at, dur, io))| {
            let spec = build_task(i as u64, AppKind::Fib, dur, io);
            Request {
                id: i as u64,
                arrival: SimTime::ZERO + ms(at),
                app: AppKind::Fib,
                duration_ms: dur,
                injected_io_ms: io,
                cold_start_ms: None,
                spec,
            }
        })
        .collect();
    Workload { requests }
}

fn run_sfs(cfg: SfsConfig, params: MachineParams, w: Workload) -> RunOutcome {
    Sim::on(params)
        .workload(&w)
        .controller(SfsController::new(cfg))
        .run()
}

fn exact(cores: usize) -> MachineParams {
    MachineParams {
        cores,
        ctx_switch_cost: SimDuration::ZERO,
        ..MachineParams::linux(cores)
    }
}

#[test]
fn short_function_finishes_in_one_filter_round() {
    let w = craft(&[(0, 20.0, None)]);
    let cfg = SfsConfig::new(1).with_fixed_slice(100);
    let r = run_sfs(cfg, exact(1), w);
    let o = &r.outcomes[0];
    assert_eq!(o.filter_rounds, 1);
    assert!(!o.demoted && !o.offloaded);
    assert_eq!(o.ctx_switches, 0);
    assert_eq!(o.turnaround, ms(20));
    assert_eq!(r.telemetry.demoted, 0);
}

#[test]
fn long_function_demoted_exactly_at_slice() {
    // 300ms function, 100ms fixed slice, with a competitor so the demotion
    // actually costs it the core.
    let w = craft(&[(0, 300.0, None), (1, 20.0, None), (2, 20.0, None)]);
    let cfg = SfsConfig::new(1).with_fixed_slice(100);
    let r = run_sfs(cfg, exact(1), w);
    let long = &r.outcomes[0];
    assert!(long.demoted, "300ms > 100ms slice must demote");
    assert_eq!(long.filter_rounds, 1);
    // The two shorts each get a clean FILTER round after the demotion.
    for o in &r.outcomes[1..] {
        assert!(!o.demoted);
        assert_eq!(o.filter_rounds, 1);
    }
    // Shorts run [100,120] and [120,140]; the long resumes around them.
    assert!(r.outcomes[1].finished <= SimTime::ZERO + ms(125));
}

#[test]
fn filter_runs_under_fifo_policy() {
    // Mid-flight, a FILTER function must be SCHED_FIFO; after demotion it
    // must be SCHED_NORMAL.
    let w = craft(&[(0, 300.0, None), (5, 10.0, None)]);
    let cfg = SfsConfig::new(1).with_fixed_slice(50);
    // Drive the simulator manually via its components: use the public API
    // only — run to completion and assert on aggregate evidence instead.
    let r = run_sfs(cfg, exact(1), w);
    assert!(r.sched_actions >= 3, "promote, demote, promote");
    assert!(r.outcomes[0].demoted);
    assert_eq!(r.outcomes[1].filter_rounds, 1);
}

#[test]
fn io_block_carries_slice_remainder() {
    // Function: 10ms CPU, 50ms IO, 10ms CPU with a 100ms slice. The first
    // FILTER round uses ~10ms; the block is detected by polling; the wake
    // re-enqueues with the remainder, and the function finishes its second
    // round without demotion.
    let spec = TaskSpec {
        phases: vec![Phase::Cpu(ms(10)), Phase::Io(ms(50)), Phase::Cpu(ms(10))],
        policy: Policy::NORMAL,
        label: 0,
    };
    let w = Workload {
        requests: vec![Request {
            id: 0,
            arrival: SimTime::ZERO,
            app: AppKind::Fib,
            duration_ms: 20.0,
            injected_io_ms: Some(50.0),
            cold_start_ms: None,
            spec,
        }],
    };
    let cfg = SfsConfig::new(1).with_fixed_slice(100);
    let r = run_sfs(cfg, exact(1), w);
    let o = &r.outcomes[0];
    assert_eq!(o.io_blocks, 1, "one block must be detected");
    assert_eq!(o.filter_rounds, 2, "re-enqueued after the wake");
    assert!(!o.demoted, "plenty of slice remained");
    // Polling granularity (4ms) bounds the detection lag; total turnaround
    // stays near ideal 70ms.
    assert!(o.turnaround <= ms(90), "turnaround {}", o.turnaround);
}

#[test]
fn zero_remaining_slice_after_io_demotes_instead_of_zero_round() {
    // 10ms of CPU burns the entire fixed 10ms slice, then the function
    // blocks on I/O. On wake its carried-over slice is exactly zero, so
    // the worker must demote it to CFS instead of granting a
    // zero-duration FILTER round (which would spin promote → instant
    // expiry → repeat, never progressing).
    let spec = TaskSpec {
        phases: vec![Phase::Cpu(ms(10)), Phase::Io(ms(30)), Phase::Cpu(ms(10))],
        policy: Policy::NORMAL,
        label: 0,
    };
    let w = Workload {
        requests: vec![Request {
            id: 0,
            arrival: SimTime::ZERO,
            app: AppKind::Fib,
            duration_ms: 20.0,
            injected_io_ms: None,
            cold_start_ms: None,
            spec,
        }],
    };
    let cfg = SfsConfig::new(1).with_fixed_slice(10);
    let r = run_sfs(cfg, exact(1), w);
    let o = &r.outcomes[0];
    assert_eq!(o.io_blocks, 1, "the block must be detected");
    assert!(
        o.demoted,
        "zero remaining slice must demote, not re-promote"
    );
    assert_eq!(o.filter_rounds, 1, "no zero-duration second round");
    assert_eq!(r.outcomes.len(), 1, "the request still completes under CFS");
}

#[test]
fn overload_threshold_is_o_times_s() {
    // Fixed slice 50ms, O = 3 → threshold 150ms. A burst whose queueing
    // delay passes 150ms must offload; the head of the burst must not.
    let mut rows = vec![(0u64, 400.0, None)]; // occupies the only worker
    for i in 0..20 {
        rows.push((1 + i as u64, 30.0, None));
    }
    let w = craft(&rows);
    let mut cfg = SfsConfig::new(1).with_fixed_slice(50);
    cfg.hybrid_overload = true;
    let r = run_sfs(cfg, exact(1), w);
    assert!(
        r.telemetry.offloaded > 0,
        "queue of 20x30ms behind a demoted 400ms must trip the 150ms threshold"
    );
    // With the bypass disabled, nothing offloads.
    let w2 = craft(&rows);
    let r2 = run_sfs(
        SfsConfig::new(1).with_fixed_slice(50).without_hybrid(),
        exact(1),
        w2,
    );
    assert_eq!(r2.telemetry.offloaded, 0);
}

#[test]
fn queued_functions_still_run_under_cfs_work_conservation() {
    // A subtle property of user-space scheduling the paper relies on: a
    // request waiting in an SFS queue is still a live CFS process, so if a
    // core frees up, the kernel runs it anyway. Here worker 0's per-worker
    // queue holds shorts behind a 500ms FILTER function, yet they complete
    // early via CFS on the other core — per-worker queueing cannot trap
    // work, only reorder FILTER priority (which is why its damage shows up
    // statistically, not in tiny crafted cases; see the lib-level
    // `global_queue_beats_per_worker_queues_on_tail` test).
    let mut rows = vec![(0u64, 500.0, None)];
    for i in 1..=10u64 {
        rows.push((i, 10.0, None));
    }
    let w = craft(&rows);
    let per = run_sfs(
        SfsConfig::new(2)
            .with_fixed_slice(1_000)
            .per_worker_queues(),
        exact(2),
        w,
    );
    assert_eq!(per.outcomes.len(), 11);
    let worst_short = per
        .outcomes
        .iter()
        .filter(|o| o.ideal < ms(100))
        .map(|o| o.turnaround.as_millis_f64())
        .fold(0.0, f64::max);
    assert!(
        worst_short < 250.0,
        "shorts must drain through CFS work conservation, worst {worst_short}ms"
    );
    // Some of those shorts never needed a FILTER round at all: they
    // finished under CFS while queued (filter_rounds == 0, not offloaded).
    let cfs_finished = per
        .outcomes
        .iter()
        .filter(|o| o.filter_rounds == 0 && !o.offloaded)
        .count();
    assert!(cfs_finished > 0, "expected some pure-CFS completions");
}

#[test]
fn adaptive_mode_follows_arrival_rate_changes() {
    let n = 2_000;
    let mut spec = WorkloadSpec::azure_sampled(n, 61);
    spec.iat = IatSpec::Bursty {
        base_mean_ms: 1.0,
        spikes: Spike::evenly_spaced(1, n / 4, 6.0, n),
    };
    let w = spec.with_load(4, 0.8).generate();
    let r = run_sfs(SfsConfig::new(4), MachineParams::linux(4), w);
    assert_eq!(r.telemetry.slice_recalcs as usize, n / 100);
    let slices: Vec<f64> = r
        .telemetry
        .slice_timeline
        .points()
        .iter()
        .map(|&(_, v)| v)
        .collect();
    let min = slices.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = slices.iter().cloned().fold(0.0, f64::max);
    assert!(
        max / min > 2.0,
        "the 6x spike must move the adaptive slice: {min}..{max}"
    );
    match SfsConfig::new(4).slice_mode {
        SliceMode::Adaptive => {}
        _ => panic!("default must be adaptive"),
    }
    assert_eq!(SfsConfig::new(4).queue_mode, QueueMode::Global);
}

#[test]
fn zero_and_single_request_workloads() {
    let empty = Workload { requests: vec![] };
    let r = run_sfs(SfsConfig::new(2), exact(2), empty);
    assert!(r.outcomes.is_empty());
    assert_eq!(r.telemetry.polls, 0);

    let one = craft(&[(0, 5.0, None)]);
    let r = run_sfs(SfsConfig::new(2), exact(2), one);
    assert_eq!(r.outcomes.len(), 1);
    assert_eq!(r.outcomes[0].turnaround, ms(5));
}

#[test]
fn io_oblivious_wastes_slice_on_blocked_functions() {
    // Functions that immediately block for 200ms under a 60ms slice:
    // oblivious SFS times both out (the second is assigned when the first
    // is demoted at t=60ms and still sleeps past its own 60ms slice);
    // aware SFS detects the sleeps and recycles the worker.
    let w = craft(&[(0, 30.0, Some(200.0)), (0, 30.0, Some(200.0))]);
    let aware = run_sfs(SfsConfig::new(1).with_fixed_slice(60), exact(1), w.clone());
    let oblivious = run_sfs(
        SfsConfig::new(1).with_fixed_slice(60).io_oblivious(),
        exact(1),
        w,
    );
    assert_eq!(
        oblivious.telemetry.demoted, 2,
        "both blocked functions time out"
    );
    assert_eq!(
        aware.telemetry.demoted, 0,
        "aware SFS recycles the worker instead"
    );
    let blocks: u32 = aware.outcomes.iter().map(|o| o.io_blocks).sum();
    assert_eq!(blocks, 2);
}
