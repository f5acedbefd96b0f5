//! The simulator's accounting identities, checked in one place.
//!
//! Every figure the reproduction reports rests on these: billed CPU equals
//! demand, each task sits in exactly one place, and each request is
//! attributed exactly once. The seeded suites generate their own cases and
//! hand each run to the functions here whose identity holds at their
//! layer:
//!
//! * [`case_rng`] — the seeded case stream every suite draws from;
//! * [`MachineAudit`] — one machine, after every advance over the
//!   notifications it delivered, and at quiescence;
//! * [`completions`] — the completion records among notifications, the
//!   only place a machine hands them out;
//! * [`requests`] and [`demand_as_submitted`] — request outcomes against
//!   the submitted workload;
//! * [`partition`] — a dispatcher's completed, shed and lost ids against
//!   the submitted workload.
//!
//! A failure names the identity, the task or request, and the caller's
//! context string (its seed and shape), so the case replays exactly.

#![allow(dead_code)] // each suite compiles its own copy and calls a subset

use std::collections::{BTreeMap, BTreeSet};

use sfs_repro::sched::{FinishedTask, Machine, Notification, Pid, ProcState, TaskSpec};
use sfs_repro::sfs::RequestOutcome;
use sfs_repro::simcore::{SimDuration, SimRng, SimTime};
use sfs_repro::workload::Workload;

/// The case stream: `SimRng::seed_from_u64(root)`, then one `derive` per
/// label, in order.
pub fn case_rng(root: u64, labels: &[&str]) -> SimRng {
    labels
        .iter()
        .fold(SimRng::seed_from_u64(root), |mut rng, label| {
            rng.derive(label)
        })
}

/// Watches one [`Machine`]: spawn through [`MachineAudit::spawn`] so the
/// audit knows every pid and its demand, hand
/// [`MachineAudit::after_advance`] each step of the drive with the
/// notifications it delivered, and [`MachineAudit::at_quiescence`] the
/// last ones once the machine has run dry. Completion records are read off
/// the `Finished` notifications, the only way one leaves the machine, so
/// every advance's notifications must pass through the audit.
#[derive(Debug, Default)]
pub struct MachineAudit {
    /// Each core's clock at the last audit.
    clocks: Vec<SimTime>,
    /// Each pid's CPU time at the last audit, indexed by pid.
    cpu: Vec<SimDuration>,
    /// Each pid's CPU demand from its spec, indexed by pid.
    demand: Vec<SimDuration>,
    /// Whether each pid's completion was delivered, indexed by pid.
    finished: Vec<bool>,
}

impl MachineAudit {
    /// Spawn `spec` on `m` and remember its demand. Pids are dense from 0.
    pub fn spawn(&mut self, m: &mut Machine, spec: TaskSpec) -> Pid {
        let want = Pid(self.demand.len() as u64);
        self.demand.push(spec.cpu_demand());
        self.cpu.push(SimDuration::ZERO);
        self.finished.push(false);
        let pid = m.spawn(spec);
        assert_eq!(pid, want, "pids are numbered in spawn order");
        pid
    }

    /// After an advance that delivered `notes`: [`Machine::assert_conservation`]
    /// holds (each live task in exactly one place, dead tasks nowhere), no
    /// core's clock rewinds, no task's CPU time rewinds, and each completion
    /// among `notes` is a spawned task's first, reads as dead, billed
    /// exactly its demand, first ran between arrival and completion, took
    /// no less than its ideal time and has RTE in (0, 1].
    pub fn after_advance(&mut self, m: &Machine, notes: &[Notification], ctx: &str) {
        m.assert_conservation();
        self.clocks.resize(m.cores(), SimTime::ZERO);
        for (core, last) in self.clocks.iter_mut().enumerate() {
            let now = m.core_clock(core);
            assert!(
                now >= *last,
                "{ctx}: core {core} clock rewound: {now} < {last} at {}",
                m.now()
            );
            *last = now;
        }
        for (i, last) in self.cpu.iter_mut().enumerate() {
            let pid = Pid(i as u64);
            let now = m.cpu_time(pid);
            assert!(
                now >= *last,
                "{ctx}: {pid}'s CPU time rewound: {now} < {last} at {}",
                m.now()
            );
            *last = now;
        }
        for note in notes {
            let Notification::Finished(f) = note else {
                continue;
            };
            let i = f.pid.0 as usize;
            assert!(
                i < self.finished.len(),
                "{ctx}: {} finished but was never spawned",
                f.pid
            );
            assert!(!self.finished[i], "{ctx}: {} finished twice", f.pid);
            self.finished[i] = true;
            finished_task(f, self.demand[i], ctx);
            assert_eq!(
                m.proc_state(f.pid),
                ProcState::Dead,
                "{ctx}: {} finished but is not dead",
                f.pid
            );
        }
    }

    /// Once the machine has run dry, with the last advance's `notes`: the
    /// audit above, no task is live, and every spawned task's completion
    /// was delivered exactly once.
    pub fn at_quiescence(&mut self, m: &Machine, notes: &[Notification], ctx: &str) {
        self.after_advance(m, notes, ctx);
        assert_eq!(m.live_tasks(), 0, "{ctx}: machine must quiesce empty");
        let done = self.finished.iter().filter(|&&f| f).count();
        assert_eq!(
            done,
            self.demand.len(),
            "{ctx}: every spawned task finishes exactly once"
        );
    }
}

/// The completion records among `notes`, in delivery order.
pub fn completions(notes: &[Notification]) -> Vec<&FinishedTask> {
    notes
        .iter()
        .filter_map(|n| match n {
            Notification::Finished(f) => Some(&**f),
            _ => None,
        })
        .collect()
}

/// One completion record against its spec's demand.
fn finished_task(f: &FinishedTask, demand: SimDuration, ctx: &str) {
    let pid = f.pid;
    assert_eq!(
        (f.cpu_time, f.cpu_demand),
        (demand, demand),
        "{ctx}: {pid} billed {} (recorded demand {}) for demand {demand}",
        f.cpu_time,
        f.cpu_demand
    );
    let first = f
        .first_run
        .unwrap_or_else(|| panic!("{ctx}: {pid} finished without running"));
    assert!(
        f.arrival <= first && first <= f.finished,
        "{ctx}: {pid} arrived {}, first ran {first}, finished {}",
        f.arrival,
        f.finished
    );
    assert!(
        f.turnaround() >= f.ideal,
        "{ctx}: {pid} beat its ideal: {} < {}",
        f.turnaround(),
        f.ideal
    );
    let rte = f.rte();
    assert!(rte > 0.0 && rte <= 1.0, "{ctx}: {pid} RTE {rte}");
}

/// Request level: every submitted request has exactly one outcome, the
/// outcomes are sorted by id, and each outcome is consistent (see
/// [`partition`]). A run where nothing is shed or lost.
pub fn requests(submitted: &Workload, outcomes: &[RequestOutcome], ctx: &str) {
    partition(submitted, outcomes, &[], &[], ctx);
}

/// Request level, where the host ran each submitted request unchanged:
/// every outcome's CPU demand and ideal duration are its request's.
pub fn demand_as_submitted(submitted: &Workload, outcomes: &[RequestOutcome], ctx: &str) {
    let spec: BTreeMap<u64, &TaskSpec> =
        submitted.requests.iter().map(|r| (r.id, &r.spec)).collect();
    for o in outcomes {
        let s = spec
            .get(&o.id)
            .unwrap_or_else(|| panic!("{ctx}: request {} was never submitted", o.id));
        assert_eq!(
            (o.cpu_demand, o.ideal),
            (s.cpu_demand(), s.ideal_duration()),
            "{ctx}: request {} (demand, ideal) differs from what was submitted",
            o.id
        );
    }
}

/// Dispatcher level: the completed, shed and lost ids partition the
/// submitted ids (each submitted id lands in exactly one of them, and no
/// other id appears), the completed outcomes are sorted by id, and each
/// completed outcome is consistent: it finished no earlier than it
/// arrived, its turnaround is exactly finish minus arrival and no less
/// than its ideal, its ideal is no less than its CPU demand, its queue
/// delay fits in its turnaround, and its RTE is in (0, 1].
pub fn partition(
    submitted: &Workload,
    completed: &[RequestOutcome],
    shed: &[u64],
    lost: &[u64],
    ctx: &str,
) {
    let ids: BTreeSet<u64> = submitted.requests.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), submitted.len(), "{ctx}: submitted ids repeat");
    assert!(
        completed.windows(2).all(|p| p[0].id < p[1].id),
        "{ctx}: completed ids are not sorted and unique"
    );
    let mut seen = BTreeSet::new();
    for id in completed
        .iter()
        .map(|o| o.id)
        .chain(shed.iter().copied())
        .chain(lost.iter().copied())
    {
        assert!(ids.contains(&id), "{ctx}: id {id} was never submitted");
        assert!(seen.insert(id), "{ctx}: id {id} attributed twice");
    }
    assert_eq!(
        seen.len(),
        ids.len(),
        "{ctx}: {} submitted ids never attributed",
        ids.len() - seen.len()
    );
    for o in completed {
        outcome(o, ctx);
    }
}

/// One completed request's timing identities.
fn outcome(o: &RequestOutcome, ctx: &str) {
    let id = o.id;
    assert!(
        o.finished >= o.arrival,
        "{ctx}: request {id} finished at {} before arriving at {}",
        o.finished,
        o.arrival
    );
    assert_eq!(
        o.turnaround,
        o.finished - o.arrival,
        "{ctx}: request {id} turnaround is not finish minus arrival"
    );
    assert!(
        o.turnaround >= o.ideal,
        "{ctx}: request {id} beat its ideal: {} < {}",
        o.turnaround,
        o.ideal
    );
    assert!(
        o.ideal >= o.cpu_demand,
        "{ctx}: request {id} ideal {} below its CPU demand {}",
        o.ideal,
        o.cpu_demand
    );
    assert!(
        o.queue_delay <= o.turnaround,
        "{ctx}: request {id} queued {} of a {} turnaround",
        o.queue_delay,
        o.turnaround
    );
    assert!(
        o.rte > 0.0 && o.rte <= 1.0,
        "{ctx}: request {id} RTE {}",
        o.rte
    );
}
