//! # sfs-sched — multicore OS CPU scheduler simulator
//!
//! The OS substrate the SFS reproduction runs on. Models, at event
//! granularity, the schedulers the paper measures (§II-B, §IV-B):
//!
//! * **CFS** (`SCHED_NORMAL`) — per-core vruntime-ordered runqueues with the
//!   mainline nice→weight table, `sched_latency`/`min_granularity` slice
//!   rules, wakeup-preemption hysteresis, and idle pull-balancing;
//! * **FIFO** (`SCHED_FIFO`) — static-priority real-time, run-to-block;
//! * **RR** (`SCHED_RR`) — FIFO plus a 100 ms round-robin quantum;
//! * **SRTF** — the offline oracle (preemptive shortest-remaining-first);
//! * **IDEAL** — infinite uncontended resources ([`TaskSpec::ideal_duration`]).
//!
//! All in-kernel disciplines are values behind the pluggable
//! [`policy::KernelPolicy`] trait (selected via
//! [`policy::KernelPolicyKind`] on [`MachineParams`]); the layer also
//! ships **EEVDF**, a CBS **deadline class**, and a preemption-ceiling
//! **SRP** policy — see [`policy`] for the hook contract.
//!
//! External controllers drive the machine only through the operations a real
//! user-space scheduler has: spawn, `schedtool`-style policy switching, and
//! `/proc` state polling. That restriction is what makes the SFS
//! implementation on top of this substrate faithful to the paper's
//! user-space-only design (§V-A challenge 2).
//!
//! ## Quickstart
//! ```
//! use sfs_sched::{Machine, MachineParams, Notification, TaskSpec};
//! use sfs_simcore::SimDuration;
//!
//! let mut m = Machine::new(MachineParams::linux(2));
//! let _a = m.spawn(TaskSpec::cpu(0, SimDuration::from_millis(10)));
//! let _b = m.spawn(TaskSpec::cpu(1, SimDuration::from_millis(300)));
//! // Completions come back as notifications, like every other event.
//! let notes = m.run_until_quiescent();
//! let done = notes.iter().filter(|n| matches!(n, Notification::Finished(_)));
//! assert_eq!(done.count(), 2);
//! ```

#![warn(missing_docs)]

// lint: allow-file(K1, the crate-root re-export of CfsRunqueue serves its differential suite and perf_suite's micro benchmarks; no logic here touches its internals)

pub mod machine;
pub mod policy;
pub mod smp;
pub mod task;
pub mod trace;
mod window;

pub use machine::{Machine, MachineParams, Notification};
pub use policy::cfs::CfsRunqueue;
pub use policy::{KernelCtx, KernelPolicy, KernelPolicyKind, Placed, PreemptKind};
pub use smp::SmpParams;
pub use task::{FinishedTask, Phase, Pid, Policy, ProcState, TaskSpec};
pub use trace::{ScheduleTrace, Segment};

#[cfg(test)]
#[path = "../tests/support/open_loop.rs"]
mod open_loop;

#[cfg(test)]
mod tests {
    use super::open_loop::{completions, run_open_loop};
    use super::*;
    use sfs_simcore::{SimDuration, SimTime};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    /// Zero switch cost makes hand-computed schedules exact.
    fn exact_params(cores: usize, kpolicy: KernelPolicyKind) -> MachineParams {
        MachineParams {
            cores,
            ctx_switch_cost: SimDuration::ZERO,
            kpolicy,
            ..Default::default()
        }
    }

    #[test]
    fn single_task_runs_to_completion_uninterrupted() {
        let done = run_open_loop(
            exact_params(1, KernelPolicyKind::Cfs),
            [(at(0), TaskSpec::cpu(0, ms(50)))],
        );
        assert_eq!(done.len(), 1);
        let t = &done[0];
        assert_eq!(t.turnaround(), ms(50));
        assert_eq!(t.cpu_time, ms(50));
        assert_eq!(t.ctx_switches, 0);
        assert!((t.rte() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cfs_two_equal_tasks_share_one_core_fairly() {
        // Two 48ms nice-0 tasks on one core: both finish near 96ms, each is
        // context-switched repeatedly, combined CPU time is exactly 96ms.
        let done = run_open_loop(
            exact_params(1, KernelPolicyKind::Cfs),
            [
                (at(0), TaskSpec::cpu(0, ms(48))),
                (at(0), TaskSpec::cpu(1, ms(48))),
            ],
        );
        assert_eq!(done.len(), 2);
        let last = done.iter().map(|t| t.finished).max().unwrap();
        assert_eq!(last, at(96));
        for t in &done {
            // Fair sharing: neither task finishes before ~2x its service time
            // minus one slice.
            assert!(
                t.turnaround() >= ms(84),
                "task finished too early: {}",
                t.turnaround()
            );
            assert!(t.ctx_switches >= 1, "expected slicing, got none");
        }
    }

    #[test]
    fn cfs_short_task_amplified_by_many_long_tasks() {
        // The paper's core observation: a 5ms function co-located with many
        // long CFS tasks waits for a full scheduling round between slices.
        let mut arrivals = vec![(at(0), TaskSpec::cpu(999, ms(5)))];
        for i in 0..15 {
            arrivals.push((at(0), TaskSpec::cpu(i, ms(500))));
        }
        let done = run_open_loop(exact_params(1, KernelPolicyKind::Cfs), arrivals);
        let short = done.iter().find(|t| t.label == 999).unwrap();
        // With 16 runnable tasks the short one's RTE collapses.
        assert!(
            short.rte() < 0.25,
            "short task RTE {} should be heavily amplified",
            short.rte()
        );
        assert!(short.turnaround() > ms(20));
    }

    #[test]
    fn fifo_runs_in_arrival_order_with_convoy() {
        // FIFO on one core: a short task behind a long one waits out the
        // entire long task (the convoy effect, §IV-B obs 4).
        let long = TaskSpec {
            phases: vec![Phase::Cpu(ms(1000))],
            policy: Policy::Fifo { prio: 50 },
            label: 0,
        };
        let short = TaskSpec {
            phases: vec![Phase::Cpu(ms(5))],
            policy: Policy::Fifo { prio: 50 },
            label: 1,
        };
        let done = run_open_loop(
            exact_params(1, KernelPolicyKind::Cfs),
            [(at(0), long), (at(1), short)],
        );
        let s = done.iter().find(|t| t.label == 1).unwrap();
        assert_eq!(s.finished, at(1005));
        assert_eq!(s.ctx_switches, 0);
        let l = done.iter().find(|t| t.label == 0).unwrap();
        assert_eq!(l.finished, at(1000));
    }

    #[test]
    fn fifo_higher_priority_preempts_lower() {
        let low = TaskSpec {
            phases: vec![Phase::Cpu(ms(100))],
            policy: Policy::Fifo { prio: 10 },
            label: 0,
        };
        let high = TaskSpec {
            phases: vec![Phase::Cpu(ms(10))],
            policy: Policy::Fifo { prio: 90 },
            label: 1,
        };
        let done = run_open_loop(
            exact_params(1, KernelPolicyKind::Cfs),
            [(at(0), low), (at(20), high)],
        );
        let h = done.iter().find(|t| t.label == 1).unwrap();
        assert_eq!(h.finished, at(30), "high prio runs immediately");
        let l = done.iter().find(|t| t.label == 0).unwrap();
        assert_eq!(l.finished, at(110), "low prio resumes after preemption");
        assert_eq!(l.ctx_switches, 1);
    }

    #[test]
    fn rr_rotates_on_quantum() {
        // Two 250ms RR tasks at the same priority on one core: they must
        // alternate on the 100ms quantum rather than run to completion.
        let mk = |label| TaskSpec {
            phases: vec![Phase::Cpu(ms(250))],
            policy: Policy::Rr { prio: 50 },
            label,
        };
        let done = run_open_loop(
            exact_params(1, KernelPolicyKind::Cfs),
            [(at(0), mk(0)), (at(0), mk(1))],
        );
        let t0 = done.iter().find(|t| t.label == 0).unwrap();
        let t1 = done.iter().find(|t| t.label == 1).unwrap();
        // Slices: A[0,100] B[100,200] A[200,300] B[300,400] A[400,450] B[450,500]
        assert_eq!(t0.finished, at(450));
        assert_eq!(t1.finished, at(500));
        assert!(t0.ctx_switches >= 2);
    }

    #[test]
    fn rt_preempts_cfs_immediately() {
        let cfs_task = TaskSpec::cpu(0, ms(100));
        let rt_task = TaskSpec {
            phases: vec![Phase::Cpu(ms(10))],
            policy: Policy::Fifo { prio: 50 },
            label: 1,
        };
        let done = run_open_loop(
            exact_params(1, KernelPolicyKind::Cfs),
            [(at(0), cfs_task), (at(30), rt_task)],
        );
        let rt = done.iter().find(|t| t.label == 1).unwrap();
        assert_eq!(rt.finished, at(40), "RT task preempts CFS on arrival");
        let c = done.iter().find(|t| t.label == 0).unwrap();
        assert_eq!(c.finished, at(110));
    }

    #[test]
    fn srtf_prefers_shortest_remaining() {
        // One core; long task arrives first, then two shorter ones. SRTF
        // preempts for the shortest remaining work.
        let done = run_open_loop(
            exact_params(1, KernelPolicyKind::Srtf),
            [
                (at(0), TaskSpec::cpu(0, ms(100))),
                (at(10), TaskSpec::cpu(1, ms(20))),
                (at(12), TaskSpec::cpu(2, ms(5))),
            ],
        );
        let t2 = done.iter().find(|t| t.label == 2).unwrap();
        assert_eq!(t2.finished, at(17), "5ms job cuts the line");
        let t1 = done.iter().find(|t| t.label == 1).unwrap();
        assert_eq!(t1.finished, at(35));
        let t0 = done.iter().find(|t| t.label == 0).unwrap();
        assert_eq!(t0.finished, at(125));
    }

    #[test]
    fn srtf_does_not_preempt_for_longer_work() {
        let done = run_open_loop(
            exact_params(1, KernelPolicyKind::Srtf),
            [
                (at(0), TaskSpec::cpu(0, ms(30))),
                (at(10), TaskSpec::cpu(1, ms(25))),
            ],
        );
        // At t=10 the running task has 20ms remaining < 25ms: no preemption.
        let t0 = done.iter().find(|t| t.label == 0).unwrap();
        assert_eq!(t0.finished, at(30));
        assert_eq!(t0.ctx_switches, 0);
        let t1 = done.iter().find(|t| t.label == 1).unwrap();
        assert_eq!(t1.finished, at(55));
    }

    #[test]
    fn multicore_spreads_load() {
        // 4 equal tasks on 4 cores: all run in parallel, all finish at 50ms.
        let arrivals: Vec<_> = (0..4).map(|i| (at(0), TaskSpec::cpu(i, ms(50)))).collect();
        let done = run_open_loop(exact_params(4, KernelPolicyKind::Cfs), arrivals);
        for t in &done {
            assert_eq!(t.turnaround(), ms(50));
            assert_eq!(t.ctx_switches, 0);
        }
    }

    #[test]
    fn idle_core_steals_queued_work() {
        // Four 50ms tasks on 2 cores: when the first two finish, the queued
        // ones run immediately; makespan is ~100ms, not 200ms.
        let arrivals: Vec<_> = (0..4).map(|i| (at(0), TaskSpec::cpu(i, ms(50)))).collect();
        let done = run_open_loop(exact_params(2, KernelPolicyKind::Cfs), arrivals);
        let makespan = done.iter().map(|t| t.finished).max().unwrap();
        assert!(
            makespan <= at(101),
            "work conservation violated: makespan {makespan}"
        );
    }

    #[test]
    fn io_task_sleeps_then_resumes() {
        let spec = TaskSpec::io_then_cpu(0, ms(40), ms(10));
        let done = run_open_loop(exact_params(1, KernelPolicyKind::Cfs), [(at(0), spec)]);
        let t = &done[0];
        assert_eq!(t.io_time, ms(40));
        assert_eq!(t.cpu_time, ms(10));
        assert_eq!(t.turnaround(), ms(50));
        assert!((t.rte() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn io_block_lets_other_task_run() {
        // Task A (FIFO, so it owns the core while runnable): 10ms CPU, 50ms
        // IO, 10ms CPU. Task B (CFS): 30ms CPU. One core. B runs inside A's
        // IO window, so the makespan is 70ms, not 100ms — the work
        // conservation SFS relies on when FILTER functions block (§V-D).
        let a = TaskSpec {
            phases: vec![Phase::Cpu(ms(10)), Phase::Io(ms(50)), Phase::Cpu(ms(10))],
            policy: Policy::Fifo { prio: 50 },
            label: 0,
        };
        let b = TaskSpec::cpu(1, ms(30));
        let done = run_open_loop(
            exact_params(1, KernelPolicyKind::Cfs),
            [(at(0), a), (at(0), b)],
        );
        let fa = done.iter().find(|t| t.label == 0).unwrap();
        assert_eq!(
            fa.finished,
            at(70),
            "FIFO task: 10ms cpu + 50ms io + 10ms cpu"
        );
        let fb = done.iter().find(|t| t.label == 1).unwrap();
        assert_eq!(fb.finished, at(40), "CFS task fills the IO window");
        let makespan = done.iter().map(|t| t.finished).max().unwrap();
        assert_eq!(makespan, at(70));
    }

    #[test]
    fn policy_switch_promotes_running_cfs_task() {
        // A long CFS task contending with another gets promoted to FIFO and
        // then runs without further slicing.
        let mut m = Machine::new(exact_params(1, KernelPolicyKind::Cfs));
        let a = m.spawn(TaskSpec::cpu(0, ms(100)));
        let _b = m.spawn(TaskSpec::cpu(1, ms(100)));
        let mut notes = m.advance_to(at(5));
        m.set_policy(a, Policy::Fifo { prio: 50 });
        notes.extend(m.run_until_quiescent());
        let done = completions(&notes);
        let fa = done.iter().find(|t| t.label == 0).unwrap();
        // a runs to completion first (modulo the share it lost before t=5).
        assert!(
            fa.finished <= at(105),
            "promoted task finished at {}",
            fa.finished
        );
        let fb = done.iter().find(|t| t.label == 1).unwrap();
        assert_eq!(fb.finished, at(200));
    }

    #[test]
    fn policy_switch_demotes_running_fifo_task() {
        // FIFO task demoted to CFS mid-run starts sharing with a CFS peer.
        let mut m = Machine::new(exact_params(1, KernelPolicyKind::Cfs));
        let a = m.spawn(TaskSpec {
            phases: vec![Phase::Cpu(ms(100))],
            policy: Policy::Fifo { prio: 50 },
            label: 0,
        });
        let _b = m.spawn(TaskSpec::cpu(1, ms(50)));
        let mut notes = m.advance_to(at(20));
        m.set_policy(a, Policy::NORMAL);
        notes.extend(m.run_until_quiescent());
        let done = completions(&notes);
        let fb = done.iter().find(|t| t.label == 1).unwrap();
        // b gets CPU before a fully finishes: under pure FIFO b would finish
        // at 150; demotion must let it finish well before that.
        assert!(
            fb.finished < at(150),
            "demotion did not release the core: b at {}",
            fb.finished
        );
        let fa = done.iter().find(|t| t.label == 0).unwrap();
        assert_eq!(fa.cpu_time, ms(100));
    }

    #[test]
    fn proc_state_reflects_lifecycle() {
        let mut m = Machine::new(exact_params(1, KernelPolicyKind::Cfs));
        let a = m.spawn(TaskSpec {
            phases: vec![Phase::Cpu(ms(10)), Phase::Io(ms(20)), Phase::Cpu(ms(10))],
            policy: Policy::NORMAL,
            label: 0,
        });
        assert_eq!(m.proc_state(a), ProcState::Running);
        m.advance_to(at(15));
        assert_eq!(m.proc_state(a), ProcState::Sleeping);
        m.advance_to(at(35));
        assert_eq!(m.proc_state(a), ProcState::Running);
        m.advance_to(at(45));
        assert_eq!(m.proc_state(a), ProcState::Dead);
        assert_eq!(m.cpu_time(a), ms(20));
    }

    #[test]
    fn cpu_time_includes_inflight_run() {
        let mut m = Machine::new(exact_params(1, KernelPolicyKind::Cfs));
        let a = m.spawn(TaskSpec::cpu(0, ms(100)));
        m.advance_to(at(30));
        assert_eq!(m.cpu_time(a), ms(30));
        assert_eq!(m.proc_state(a), ProcState::Running);
    }

    #[test]
    fn notifications_cover_lifecycle() {
        let mut m = Machine::new(exact_params(1, KernelPolicyKind::Cfs));
        let a = m.spawn(TaskSpec {
            phases: vec![Phase::Cpu(ms(5)), Phase::Io(ms(5)), Phase::Cpu(ms(5))],
            policy: Policy::NORMAL,
            label: 0,
        });
        let notes = m.run_until_quiescent();
        let kinds: Vec<&str> = notes
            .iter()
            .map(|n| match n {
                Notification::FirstRun(p, _) => {
                    assert_eq!(*p, a);
                    "first"
                }
                Notification::Blocked(..) => "blocked",
                Notification::Woke(..) => "woke",
                Notification::Finished(..) => "finished",
            })
            .collect();
        assert_eq!(kinds, vec!["first", "blocked", "woke", "finished"]);
    }

    #[test]
    fn context_switch_cost_delays_completion() {
        let params = MachineParams {
            cores: 1,
            ctx_switch_cost: SimDuration::from_micros(100),
            kpolicy: KernelPolicyKind::Cfs,
            ..Default::default()
        };
        let done = run_open_loop(
            params,
            [
                (at(0), TaskSpec::cpu(0, ms(24))),
                (at(0), TaskSpec::cpu(1, ms(24))),
            ],
        );
        let makespan = done.iter().map(|t| t.finished).max().unwrap();
        // 48ms of work plus at least a few 100us switch penalties.
        assert!(makespan > at(48));
        assert!(makespan < at(50));
    }

    #[test]
    fn contention_inflates_oversubscribed_execution() {
        // 8 equal CFS tasks on 1 core with contention on: the makespan must
        // exceed the raw demand, and every task's charged CPU time must
        // exceed its demand (utime ticks at wall rate while progress slows).
        let mut params = exact_params(1, KernelPolicyKind::Cfs);
        params.contention_beta = 0.5;
        let arrivals: Vec<_> = (0..8).map(|i| (at(0), TaskSpec::cpu(i, ms(50)))).collect();
        let done = run_open_loop(params, arrivals);
        let makespan = done.iter().map(|t| t.finished).max().unwrap();
        assert!(
            makespan > at(500),
            "8x50ms under contention should exceed 400ms raw demand: {makespan}"
        );
        for t in &done {
            assert!(t.cpu_time > t.cpu_demand, "task {} not inflated", t.pid);
        }
        // Without contention the same workload takes exactly 400ms.
        let arrivals: Vec<_> = (0..8).map(|i| (at(0), TaskSpec::cpu(i, ms(50)))).collect();
        let base = run_open_loop(exact_params(1, KernelPolicyKind::Cfs), arrivals);
        assert_eq!(base.iter().map(|t| t.finished).max().unwrap(), at(400));
    }

    #[test]
    fn contention_spares_serial_execution() {
        // One task at a time (FIFO convoy): active never exceeds... the
        // queue counts as active, so FIFO also sees inflation from waiting
        // tasks? No: contention counts runnable+running, so a FIFO convoy
        // of 8 is inflated early but the factor decays as tasks finish,
        // while CFS keeps all 8 live to the end. FIFO must therefore beat
        // CFS on total makespan under contention.
        let mut params = exact_params(1, KernelPolicyKind::Cfs);
        params.contention_beta = 0.5;
        let cfs: Vec<_> = (0..8).map(|i| (at(0), TaskSpec::cpu(i, ms(50)))).collect();
        let cfs_done = run_open_loop(params, cfs);
        let fifo: Vec<_> = (0..8)
            .map(|i| {
                (
                    at(0),
                    TaskSpec {
                        phases: vec![Phase::Cpu(ms(50))],
                        policy: Policy::Fifo { prio: 50 },
                        label: i,
                    },
                )
            })
            .collect();
        let fifo_done = run_open_loop(params, fifo);
        let makespan = |v: &[FinishedTask]| v.iter().map(|t| t.finished).max().unwrap();
        assert!(
            makespan(&fifo_done) < makespan(&cfs_done),
            "serial FIFO {} should drain faster than time-shared CFS {} under contention",
            makespan(&fifo_done),
            makespan(&cfs_done)
        );
    }

    #[test]
    fn srtf_beats_cfs_on_mean_turnaround_for_short_heavy_mix() {
        // Statistical sanity: the Fig. 2 headline (SRTF >> CFS for
        // short-dominant workloads at high load).
        let arrivals = || {
            let mut v = Vec::new();
            for i in 0..300u64 {
                let d = if i % 10 == 0 { ms(400) } else { ms(8) };
                v.push((at(i * 12), TaskSpec::cpu(i, d)));
            }
            v
        };
        let cfs = run_open_loop(exact_params(1, KernelPolicyKind::Cfs), arrivals());
        let srtf = run_open_loop(exact_params(1, KernelPolicyKind::Srtf), arrivals());
        let mean = |v: &[FinishedTask]| {
            v.iter()
                .map(|t| t.turnaround().as_millis_f64())
                .sum::<f64>()
                / v.len() as f64
        };
        assert!(
            mean(&srtf) < mean(&cfs),
            "SRTF mean {} should beat CFS mean {}",
            mean(&srtf),
            mean(&cfs)
        );
        // Short tasks specifically should be far better under SRTF.
        let short_mean = |v: &[FinishedTask]| {
            let xs: Vec<f64> = v
                .iter()
                .filter(|t| t.cpu_demand == ms(8))
                .map(|t| t.turnaround().as_millis_f64())
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(short_mean(&srtf) * 2.0 < short_mean(&cfs));
    }

    /// Build the canonical imbalance: a long FIFO task pins core 0, so CFS
    /// placement (which counts an RT core's queue only) stacks the queue
    /// gap the balancer must fix — queued depths 3 vs 1 after five spawns.
    fn imbalanced_arrivals() -> Vec<(SimTime, TaskSpec)> {
        let mut v = vec![(
            at(0),
            TaskSpec {
                phases: vec![Phase::Cpu(ms(100))],
                policy: Policy::Fifo { prio: 50 },
                label: 100,
            },
        )];
        for i in 0..5 {
            v.push((at(0), TaskSpec::cpu(i, ms(50))));
        }
        v
    }

    #[test]
    fn balance_tick_migrates_busiest_to_idlest() {
        let smp = SmpParams::balanced(ms(1), SimDuration::ZERO, SimDuration::ZERO);
        let mut m = Machine::new(exact_params(2, KernelPolicyKind::Cfs).with_smp(smp));
        let mut notes = Vec::new();
        for (t, spec) in imbalanced_arrivals() {
            notes.extend(m.advance_to(t));
            m.spawn(spec);
        }
        // FIFO holds core 0; CFS placement left queued depths 3 (core 0)
        // vs 1 (core 1): an imbalance the first tick at 1ms must repair.
        assert_eq!(m.core_depth(0), 3);
        assert_eq!(m.core_depth(1), 1);
        assert_eq!(m.balance_migrations(), 0);
        notes.extend(m.advance_to(at(1)));
        assert_eq!(m.balance_migrations(), 1, "one migration per tick");
        assert_eq!(m.core_depth(0), 2);
        assert_eq!(m.core_depth(1), 2);
        m.assert_conservation();
        // Re-balanced: the next tick scans but must not migrate.
        notes.extend(m.advance_to(at(2)));
        assert_eq!(m.balance_migrations(), 1, "balanced load never migrates");
        notes.extend(m.run_until_quiescent());
        assert_eq!(
            completions(&notes).len(),
            6,
            "balancing must not lose tasks"
        );
        m.assert_conservation();
    }

    #[test]
    fn balanced_load_never_migrates() {
        // Six identical CFS tasks spread 3/3 across two cores: every tick
        // scans, none migrates.
        let smp = SmpParams::balanced(ms(1), ms(1), SimDuration::ZERO);
        let mut m = Machine::new(exact_params(2, KernelPolicyKind::Cfs).with_smp(smp));
        for i in 0..6 {
            m.spawn(TaskSpec::cpu(i, ms(30)));
        }
        let notes = m.run_until_quiescent();
        assert_eq!(completions(&notes).len(), 6);
        assert_eq!(m.balance_migrations(), 0);
    }

    #[test]
    fn migration_cost_delays_the_migrated_work() {
        let run = |mig: SimDuration| {
            let smp = SmpParams::balanced(ms(1), mig, SimDuration::ZERO);
            run_open_loop(
                exact_params(2, KernelPolicyKind::Cfs).with_smp(smp),
                imbalanced_arrivals(),
            )
        };
        let free = run(SimDuration::ZERO);
        let costly = run(ms(10));
        assert_eq!(free.len(), costly.len());
        let total = |v: &[FinishedTask]| v.iter().map(|t| t.turnaround().as_nanos()).sum::<u64>();
        assert!(
            total(&costly) > total(&free),
            "a 10ms migration penalty must show up in aggregate turnaround"
        );
        // The penalty is dispatch latency, never billed CPU time.
        for t in &costly {
            assert_eq!(t.cpu_time, t.cpu_demand);
        }
    }

    #[test]
    fn affinity_cost_charged_exactly_once_on_cross_core_resume() {
        // B pins core 0; A runs its first burst on core 1, blocks, and C
        // (stolen by the idling core 1) holds it, so A resumes on core 0:
        // one cross-core resume, one affinity charge.
        let arrivals = || {
            vec![
                (at(0), TaskSpec::cpu(0, ms(40))),
                (
                    at(0),
                    TaskSpec {
                        phases: vec![Phase::Cpu(ms(5)), Phase::Io(ms(5)), Phase::Cpu(ms(5))],
                        policy: Policy::NORMAL,
                        label: 1,
                    },
                ),
                (at(0), TaskSpec::cpu(2, ms(40))),
            ]
        };
        let run = |aff: SimDuration| {
            let smp = SmpParams {
                affinity_cost: aff,
                ..SmpParams::default()
            };
            run_open_loop(
                exact_params(2, KernelPolicyKind::Cfs).with_smp(smp),
                arrivals(),
            )
        };
        let base = run(SimDuration::ZERO);
        let charged = run(ms(1));
        let a_base = base.iter().find(|t| t.label == 1).unwrap();
        let a_charged = charged.iter().find(|t| t.label == 1).unwrap();
        assert!(a_base.migrations >= 1, "scenario must move A across cores");
        assert_eq!(
            a_charged.finished,
            a_base.finished + ms(1),
            "exactly one affinity charge on A's cross-core resume"
        );
    }
}
