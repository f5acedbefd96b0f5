//! Stock [`Controller`] implementations beyond SFS itself.
//!
//! * [`KernelOnly`] — dispatch every request under one kernel policy and
//!   let the OS do everything (the paper's CFS/FIFO/RR baselines; on an
//!   SRTF-mode machine, the offline oracle).
//! * [`Ideal`] — the infinite-resource lower bound (§IV-B), analytic.
//! * [`HistoryPriority`] — a history-informed static-priority strawman:
//!   spawn-time FIFO-vs-CFS classification from per-app observed CPU
//!   history, with no slicing, no polling, and no overload fallback.
//! * [`UserMlfq`] — a user-space multi-level feedback queue: demote
//!   processes to higher `nice` levels as their consumed CPU grows,
//!   approximating SRTF with nothing but `/proc` polling and renicing.
//!
//! The last two are controllers the pre-`Sim` design made impractical:
//! each would have needed its own hand-rolled simulator run path.

use std::collections::BTreeMap;

use sfs_sched::{Notification, Pid, Policy, ProcState};
use sfs_simcore::{SimDuration, SimTime};
use sfs_workload::{AppKind, Request, Workload, LONG_THRESHOLD_MS};

use crate::config::FILTER_PRIO;
use crate::sim::{Controller, MachineView, Telemetry};
use crate::stats::RequestOutcome;

/// Dispatch every request under one fixed kernel policy and never touch it
/// again: the pure-kernel comparators of Fig. 2 and the "CFS" series of
/// every evaluation figure.
///
/// `KernelOnly(Policy::NORMAL)` on a [`sfs_sched::KernelPolicyKind::Srtf`] machine
/// is the offline SRTF oracle (the machine ignores policies in that mode).
#[derive(Debug, Clone, Copy)]
pub struct KernelOnly(pub Policy);

impl Controller for KernelOnly {
    fn name(&self) -> &'static str {
        match self.0 {
            Policy::Fifo { .. } => "fifo",
            Policy::Rr { .. } => "rr",
            Policy::Normal { .. } => "kernel",
        }
    }

    fn dispatch_policy(&mut self, _req: &Request) -> Policy {
        self.0
    }
}

/// The IDEAL scenario: infinite resources, zero contention. Turnaround is
/// the spec's isolated duration by construction; no machine is simulated
/// ([`Controller::analytic`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ideal;

impl Controller for Ideal {
    fn name(&self) -> &'static str {
        "ideal"
    }

    fn analytic(&self, workload: &Workload) -> Option<Vec<RequestOutcome>> {
        Some(
            workload
                .requests
                .iter()
                .map(|r| {
                    let ideal = r.spec.ideal_duration();
                    RequestOutcome {
                        id: r.id,
                        arrival: r.arrival,
                        finished: r.arrival + ideal,
                        turnaround: ideal,
                        ideal,
                        cpu_demand: r.spec.cpu_demand(),
                        rte: 1.0,
                        ctx_switches: 0,
                        migrations: 0,
                        queue_delay: SimDuration::ZERO,
                        demoted: false,
                        offloaded: false,
                        filter_rounds: 0,
                        io_blocks: 0,
                    }
                })
                .collect(),
        )
    }
}

/// A history-informed static-priority strawman.
///
/// The scheduler SFS is implicitly compared against in §IV: keep per-app
/// statistics of *observed* CPU consumption (exactly what a user-space
/// scheduler can read from `/proc` at completion), predict the next
/// invocation of an app as short or long from its historical mean, and
/// dispatch predicted-short requests under `SCHED_FIFO` and predicted-long
/// ones under CFS. No adaptive slice, no polling, no overload fallback.
///
/// Its weakness is the point: app identity is a poor duration predictor
/// under Table I's multimodal distribution (a single app spans 1 ms to
/// minutes), so predicted-short convoys form behind mispredicted longs —
/// the exact failure SFS's FILTER slice exists to prevent.
#[derive(Debug, Clone)]
pub struct HistoryPriority {
    /// Per-app `(total observed CPU ms, completions)`, indexed by
    /// [`app_index`].
    history: [(f64, u64); 3],
    /// Live pid → app, for completion accounting.
    live: BTreeMap<Pid, AppKind>,
    /// Requests dispatched to FIFO (predicted short).
    fast_tracked: u64,
}

fn app_index(app: AppKind) -> usize {
    match app {
        AppKind::Fib => 0,
        AppKind::Md => 1,
        AppKind::Sa => 2,
    }
}

impl HistoryPriority {
    /// A strawman that runs predicted-short requests at the paper's FILTER
    /// priority ([`FILTER_PRIO`]) and predicts from the Table I
    /// long-function boundary ([`LONG_THRESHOLD_MS`]).
    pub fn new() -> HistoryPriority {
        HistoryPriority {
            history: [(0.0, 0); 3],
            live: BTreeMap::new(),
            fast_tracked: 0,
        }
    }

    /// Mean observed CPU (ms) for `app`, if any completions were seen.
    fn predicted_ms(&self, app: AppKind) -> Option<f64> {
        let (sum, n) = self.history[app_index(app)];
        (n > 0).then(|| sum / n as f64)
    }
}

impl Default for HistoryPriority {
    fn default() -> Self {
        HistoryPriority::new()
    }
}

impl Controller for HistoryPriority {
    fn name(&self) -> &'static str {
        "history-priority"
    }

    fn dispatch_policy(&mut self, req: &Request) -> Policy {
        // Optimistic cold start: an app with no history is assumed short
        // (most of Table I's mass is short).
        let short = match self.predicted_ms(req.app) {
            Some(ms) => ms < LONG_THRESHOLD_MS,
            None => true,
        };
        if short {
            self.fast_tracked += 1;
            Policy::Fifo { prio: FILTER_PRIO }
        } else {
            Policy::NORMAL
        }
    }

    fn on_arrival(&mut self, _m: &mut MachineView<'_>, req: &Request, pid: Pid) {
        self.live.insert(pid, req.app);
    }

    fn on_notification(&mut self, _m: &mut MachineView<'_>, note: &Notification) {
        if let Notification::Finished(rec) = note {
            if let Some(app) = self.live.remove(&rec.pid) {
                let slot = &mut self.history[app_index(app)];
                slot.0 += rec.cpu_time.as_millis_f64();
                slot.1 += 1;
            }
        }
    }

    fn finish(&mut self, telemetry: &mut Telemetry) {
        // Reuse the generic counter: "offloaded" = requests the policy
        // left to CFS (predicted long).
        let total: u64 = self.history.iter().map(|&(_, n)| n).sum();
        telemetry.offloaded = total.saturating_sub(self.fast_tracked);
    }
}

/// A user-space multi-level feedback queue built from the four legal
/// operations alone.
///
/// Every request starts at `nice` [`UserMlfq::LADDER`]`[0].1`; a periodic
/// `/proc` sweep (the same polling loop SFS uses for I/O detection) reads
/// each live process's consumed CPU time and renices it down the ladder as
/// it crosses the consumption thresholds. Short functions therefore keep
/// near-full CFS weight while long ones decay toward `nice 19`,
/// approximating SRTF's preference without any real-time class — a
/// lighter-touch policy than SFS (no FIFO starvation risk, no overload
/// mode) at the cost of reaction latency and weaker isolation.
#[derive(Debug, Clone, Default)]
pub struct UserMlfq {
    /// Live pid → current ladder tier.
    live: BTreeMap<Pid, usize>,
    next_poll: Option<SimTime>,
    polls: u64,
    polled_tasks: u64,
    /// Renice actions that moved a task to the bottom tier.
    bottomed: u64,
}

impl UserMlfq {
    /// Consumed-CPU thresholds → `nice` level. A task that has consumed at
    /// least `LADDER[i].0` of CPU runs at `LADDER[i].1`.
    pub const LADDER: [(SimDuration, i8); 4] = [
        (SimDuration::ZERO, 0),
        (SimDuration::from_millis(50), 4),
        (SimDuration::from_millis(400), 9),
        (SimDuration::from_millis(1550), 19),
    ];

    /// Period of the `/proc` sweep: SFS's default poll interval (§V-D).
    const POLL_INTERVAL: SimDuration = SimDuration::from_millis(4);

    /// Ladder tier for a given consumed-CPU total.
    fn tier_of(cpu: SimDuration) -> usize {
        Self::LADDER
            .iter()
            .rposition(|&(thr, _)| cpu >= thr)
            .unwrap_or(0)
    }
}

impl Controller for UserMlfq {
    fn name(&self) -> &'static str {
        "user-mlfq"
    }

    fn dispatch_policy(&mut self, _req: &Request) -> Policy {
        Policy::Normal {
            nice: Self::LADDER[0].1,
        }
    }

    fn on_arrival(&mut self, m: &mut MachineView<'_>, _req: &Request, pid: Pid) {
        self.live.insert(pid, 0);
        if self.next_poll.is_none() {
            self.next_poll = Some(m.now() + Self::POLL_INTERVAL);
        }
    }

    fn on_notification(&mut self, _m: &mut MachineView<'_>, note: &Notification) {
        if let Notification::Finished(rec) = note {
            self.live.remove(&rec.pid);
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.next_poll
    }

    fn on_wakeup(&mut self, m: &mut MachineView<'_>) {
        let Some(at) = self.next_poll else {
            return;
        };
        if m.now() < at {
            return;
        }
        self.polls += 1;
        // BTreeMap iteration (ascending pid) keeps the sweep deterministic.
        let pids: Vec<Pid> = self.live.keys().copied().collect();
        for pid in pids {
            self.polled_tasks += 1;
            if m.proc_state(pid) == ProcState::Dead {
                self.live.remove(&pid);
                continue;
            }
            let tier = Self::tier_of(m.cpu_time(pid));
            let cur = self.live.get_mut(&pid).expect("live task tracked");
            if tier > *cur {
                *cur = tier;
                m.set_policy(
                    pid,
                    Policy::Normal {
                        nice: Self::LADDER[tier].1,
                    },
                );
                if tier == Self::LADDER.len() - 1 {
                    self.bottomed += 1;
                }
            }
        }
        self.next_poll = if self.live.is_empty() {
            None
        } else {
            Some(m.now() + Self::POLL_INTERVAL)
        };
    }

    fn finish(&mut self, telemetry: &mut Telemetry) {
        telemetry.polls = self.polls;
        telemetry.polled_tasks = self.polled_tasks;
        // Reuse the generic counter: "demoted" = tasks that decayed to the
        // bottom of the ladder.
        telemetry.demoted = self.bottomed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use sfs_sched::MachineParams;
    use sfs_workload::WorkloadSpec;

    fn workload(n: usize, seed: u64) -> Workload {
        WorkloadSpec::azure_sampled(n, seed)
            .with_load(4, 0.8)
            .generate()
    }

    #[test]
    fn kernel_only_names_follow_policy() {
        assert_eq!(KernelOnly(Policy::NORMAL).name(), "kernel");
        assert_eq!(KernelOnly(Policy::Fifo { prio: 50 }).name(), "fifo");
        assert_eq!(KernelOnly(Policy::Rr { prio: 50 }).name(), "rr");
    }

    #[test]
    fn ideal_is_analytic_and_exact() {
        let w = workload(300, 7);
        let run = Sim::on(MachineParams::linux(4))
            .workload(&w)
            .controller(Ideal)
            .run();
        assert_eq!(run.outcomes.len(), 300);
        assert_eq!(run.sched_actions, 0);
        for (o, r) in run.outcomes.iter().zip(w.requests.iter()) {
            assert_eq!(o.id, r.id);
            assert_eq!(o.turnaround, r.spec.ideal_duration());
            assert_eq!(o.finished, r.arrival + o.ideal);
            assert_eq!(o.rte, 1.0);
        }
    }

    #[test]
    fn history_priority_completes_and_learns() {
        let w = workload(800, 11);
        let run = Sim::on(MachineParams::linux(4))
            .workload(&w)
            .controller(HistoryPriority::new())
            .run();
        assert_eq!(run.outcomes.len(), 800);
        // Kernel-policy switching never happens after dispatch.
        assert_eq!(run.sched_actions, 0);
    }

    #[test]
    fn history_priority_predicts_from_app_history() {
        let mut h = HistoryPriority::new();
        assert!(h.predicted_ms(AppKind::Fib).is_none());
        h.history[app_index(AppKind::Fib)] = (4_000.0, 2); // mean 2000 ms: long
        h.history[app_index(AppKind::Md)] = (90.0, 3); // mean 30 ms
        assert_eq!(h.predicted_ms(AppKind::Fib), Some(2_000.0));
        let fib = sfs_workload::WorkloadSpec::azure_sampled(1, 0).generate();
        let mut req = fib.requests[0].clone();
        req.app = AppKind::Fib;
        assert_eq!(h.dispatch_policy(&req), Policy::NORMAL);
        req.app = AppKind::Md;
        assert_eq!(h.dispatch_policy(&req), Policy::Fifo { prio: 50 });
        req.app = AppKind::Sa; // no history: optimistic short
        assert_eq!(h.dispatch_policy(&req), Policy::Fifo { prio: 50 });
    }

    #[test]
    fn user_mlfq_renices_long_tasks_and_helps_shorts() {
        let w = WorkloadSpec::azure_sampled(1_200, 13)
            .with_load(4, 1.0)
            .generate();
        let mlfq = Sim::on(MachineParams::linux(4))
            .workload(&w)
            .controller(UserMlfq::default())
            .run();
        let cfs = Sim::on(MachineParams::linux(4))
            .workload(&w)
            .controller(KernelOnly(Policy::NORMAL))
            .run();
        assert_eq!(mlfq.outcomes.len(), 1_200);
        assert!(mlfq.sched_actions > 0, "long tasks must get reniced");
        assert!(mlfq.telemetry.polls > 0);
        let mean_short = |r: &crate::RunOutcome| {
            let xs: Vec<f64> = r
                .outcomes
                .iter()
                .filter(|o| o.ideal < SimDuration::from_millis(400))
                .map(|o| o.turnaround.as_millis_f64())
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(
            mean_short(&mlfq) < mean_short(&cfs),
            "MLFQ should favour short functions: {} vs {}",
            mean_short(&mlfq),
            mean_short(&cfs)
        );
    }

    #[test]
    fn user_mlfq_tiers_are_monotone() {
        assert_eq!(UserMlfq::tier_of(SimDuration::ZERO), 0);
        assert_eq!(UserMlfq::tier_of(SimDuration::from_millis(49)), 0);
        assert_eq!(UserMlfq::tier_of(SimDuration::from_millis(50)), 1);
        assert_eq!(UserMlfq::tier_of(SimDuration::from_millis(1000)), 2);
        assert_eq!(UserMlfq::tier_of(SimDuration::from_secs(60)), 3);
    }

    #[test]
    fn deterministic_across_runs() {
        let w = workload(400, 17);
        let go = |c: fn() -> Box<dyn Controller>| {
            Sim::on(MachineParams::linux(4))
                .workload(&w)
                .boxed_controller(c())
                .run()
        };
        for ctor in [
            (|| Box::new(HistoryPriority::new()) as Box<dyn Controller>) as fn() -> _,
            || Box::new(UserMlfq::default()) as Box<dyn Controller>,
        ] {
            let a = go(ctor);
            let b = go(ctor);
            for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
                assert_eq!(x.finished, y.finished);
                assert_eq!(x.ctx_switches, y.ctx_switches);
            }
            assert_eq!(a.sched_actions, b.sched_actions);
        }
    }
}
