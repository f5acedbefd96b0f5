//! Property-style invariants for every registered kernel policy.
//!
//! The [`KernelPolicy`] contract promises that any policy — the ported
//! CFS/SRTF pair and the new EEVDF/deadline/SRP disciplines alike — keeps
//! the machine's bookkeeping sound: no task is lost or duplicated, CPU
//! time charged equals CPU demand (with contention off), timestamps are
//! causally ordered, and the conservation walk (each live task in exactly
//! one place) holds at arbitrary mid-run instants, including across
//! `set_policy` churn. Those identities are checked by `support/audit.rs`;
//! this suite drives every policy into them. Each case is seeded through
//! `SimRng`, so failures reproduce exactly. A second property pins
//! [`Machine::advance_until_notified`], the advance a driver uses to cross
//! instants that notify nobody in one call, against stepping one event
//! instant at a time.

#[path = "support/audit.rs"]
mod audit;

use audit::MachineAudit;
use sfs_repro::sched::{
    KernelPolicyKind, Machine, MachineParams, Notification, Phase, Pid, Policy, ProcState,
    SmpParams, TaskSpec,
};
use sfs_repro::simcore::{SimDuration, SimRng, SimTime};

const CORES: [usize; 4] = [1, 2, 4, 8];
const SEEDS: [u64; 3] = [2, 13, 777];

fn random_policy(rng: &mut SimRng) -> Policy {
    match rng.uniform_u64(0, 3) {
        0 => Policy::Normal {
            nice: rng.uniform_u64(0, 10) as i8 - 5,
        },
        1 => Policy::NORMAL,
        2 => Policy::Fifo {
            prio: rng.uniform_u64(1, 99) as u8,
        },
        _ => Policy::Rr {
            prio: rng.uniform_u64(1, 99) as u8,
        },
    }
}

fn random_spec(rng: &mut SimRng, label: u64) -> TaskSpec {
    let mut phases = Vec::new();
    if rng.chance(0.25) {
        phases.push(Phase::Io(SimDuration::from_micros(
            rng.uniform_u64(100, 8_000),
        )));
    }
    phases.push(Phase::Cpu(SimDuration::from_micros(
        rng.uniform_u64(100, 12_000),
    )));
    if rng.chance(0.3) {
        phases.push(Phase::Io(SimDuration::from_micros(
            rng.uniform_u64(100, 4_000),
        )));
        phases.push(Phase::Cpu(SimDuration::from_micros(
            rng.uniform_u64(100, 6_000),
        )));
    }
    TaskSpec {
        phases,
        policy: random_policy(rng),
        label,
    }
}

/// Drive one machine through a randomized spawn/set_policy timeline,
/// auditing it after every step and at quiescence.
fn check_kind(kind: KernelPolicyKind, cores: usize, seed: u64, smp: SmpParams) {
    let mut rng = audit::case_rng(seed, &[kind.name(), &cores.to_string()]);
    let params = MachineParams {
        cores,
        kpolicy: kind,
        ..Default::default()
    }
    .with_smp(smp);
    let ctx = format!("{kind} cores={cores} seed={seed}");
    let mut m = Machine::new(params);
    let mut audit = MachineAudit::default();
    let n_tasks = rng.uniform_u64(20, 60);
    let mut pids = Vec::new();
    let mut t = SimTime::ZERO;
    for i in 0..n_tasks {
        t += SimDuration::from_micros(rng.uniform_u64(0, 3_000));
        let notes = m.advance_to(t);
        let spec = random_spec(&mut rng, i);
        pids.push(audit.spawn(&mut m, spec));
        // Mid-run churn: flip a random live task's policy; the audit then
        // checks the machine is still internally consistent.
        if rng.chance(0.3) {
            let target = pids[rng.uniform_u64(0, pids.len() as u64 - 1) as usize];
            m.set_policy(target, random_policy(&mut rng));
        }
        audit.after_advance(&m, &notes, &ctx);
    }
    let notes = m.run_until_quiescent();
    audit.at_quiescence(&m, &notes, &ctx);
    // Every completion surfaced at most once as a notification too.
    let note_finishes = notes
        .iter()
        .filter(|n| matches!(n, Notification::Finished(_)))
        .count();
    assert!(
        note_finishes <= pids.len(),
        "{ctx}: more Finished notifications than tasks"
    );
}

#[test]
fn every_policy_conserves_tasks_and_time() {
    for kind in KernelPolicyKind::ALL {
        for cores in CORES {
            for seed in SEEDS {
                check_kind(kind, cores, seed, SmpParams::default());
            }
        }
    }
}

#[test]
fn every_policy_survives_smp_balancing() {
    let smp = SmpParams::balanced(
        SimDuration::from_millis(1),
        SimDuration::from_micros(300),
        SimDuration::from_micros(100),
    );
    for kind in KernelPolicyKind::ALL {
        for cores in [2, 8] {
            check_kind(kind, cores, 99, smp);
        }
    }
}

#[test]
fn every_policy_is_deterministic() {
    // Same seed, same schedule — byte-identical completion records.
    for kind in KernelPolicyKind::ALL {
        let run = || {
            let params = MachineParams {
                cores: 4,
                kpolicy: kind,
                ..Default::default()
            };
            let mut m = Machine::new(params);
            let mut rng = audit::case_rng(5150, &[kind.name(), "4"]);
            let mut t = SimTime::ZERO;
            let mut notes = Vec::new();
            for i in 0..40 {
                t += SimDuration::from_micros(rng.uniform_u64(0, 2_500));
                notes.extend(m.advance_to(t));
                m.spawn(random_spec(&mut rng, i));
            }
            notes.extend(m.run_until_quiescent());
            format!("{:?}", audit::completions(&notes))
        };
        assert_eq!(run(), run(), "{kind}: nondeterministic schedule");
    }
}

/// One call's notifications, rendered for comparison.
fn rendered(notes: &[Notification]) -> Vec<String> {
    notes.iter().map(|n| format!("{n:?}")).collect()
}

/// Bring the reference machine to `at` one event instant at a time
/// (`advance_to(next_event_time())`), returning every non-empty batch
/// with the instant it was delivered at. Notifications raised since the
/// last advance (a spawn's or a policy switch's dispatch) ride with the
/// first non-empty batch, or with the final one at `at`.
fn reference_to(m: &mut Machine, at: SimTime) -> Vec<(SimTime, Vec<String>)> {
    let mut pending = m.advance_to(m.now());
    let mut batches = Vec::new();
    while let Some(t) = m.next_event_time().filter(|&t| t <= at) {
        let notes = m.advance_to(t);
        if !notes.is_empty() {
            pending.extend(notes);
            batches.push((t, rendered(&std::mem::take(&mut pending))));
        }
    }
    pending.extend(m.advance_to(at));
    if !pending.is_empty() {
        batches.push((at, rendered(&pending)));
    }
    batches
}

/// Advance `fast` with [`Machine::advance_until_notified`] up to `bound`
/// and `slow` with the one-instant-at-a-time reference in lockstep,
/// checking after every call that both deliver the same notifications at
/// the same instant and agree on the clock, context switches and every
/// task's state and CPU time, that an early return stops at an instant
/// that notified with nothing at or before it left queued, and that
/// `fast` passes the machine audit wherever it stops.
fn lockstep_to(
    fast: &mut Machine,
    slow: &mut Machine,
    audit: &mut MachineAudit,
    bound: SimTime,
    tasks: u64,
    ctx: &str,
) {
    let mut notes = Vec::new();
    loop {
        notes.clear();
        let at = fast.advance_until_notified(bound, &mut notes);
        audit.after_advance(fast, &notes, ctx);
        let got = rendered(&notes);
        let want = reference_to(slow, at);
        if at < bound {
            assert!(
                !got.is_empty(),
                "{ctx}: early return at {at} without a notification"
            );
            assert!(
                fast.next_event_time().map_or(true, |t| t > at),
                "{ctx}: early return at {at} left a due event queued"
            );
        }
        let got = if got.is_empty() {
            vec![]
        } else {
            vec![(at, got)]
        };
        assert_eq!(got, want, "{ctx}: notifications delivered up to {at}");
        assert_eq!(fast.now(), slow.now(), "{ctx}: clock");
        assert_eq!(
            fast.total_ctx_switches(),
            slow.total_ctx_switches(),
            "{ctx}: context switches at {at}"
        );
        for pid in (0..tasks).map(Pid) {
            assert_eq!(
                fast.proc_state(pid),
                slow.proc_state(pid),
                "{ctx}: {pid} state"
            );
            assert_eq!(
                fast.cpu_time(pid),
                slow.cpu_time(pid),
                "{ctx}: {pid} cpu time"
            );
        }
        if at == bound {
            return;
        }
    }
}

/// Spawn/set_policy churn driven through [`Machine::advance_until_notified`]
/// with random bounds (the next external operation, sometimes an earlier
/// controller-style wakeup, and an unbounded drain at the end), matched
/// against the one-instant-at-a-time reference.
fn check_advance_until_notified(kind: KernelPolicyKind, cores: usize, seed: u64, smp: SmpParams) {
    let mut rng = audit::case_rng(
        seed,
        &[kind.name(), &cores.to_string(), "advance_until_notified"],
    );
    let params = MachineParams {
        cores,
        kpolicy: kind,
        ..Default::default()
    }
    .with_smp(smp);
    let ctx = format!("{kind} cores={cores} seed={seed} smp={}", smp.balancing());
    let (mut fast, mut slow) = (Machine::new(params), Machine::new(params));
    let mut audit = MachineAudit::default();
    let n_tasks = rng.uniform_u64(20, 60);
    let mut t = SimTime::ZERO;
    for i in 0..n_tasks {
        let gap_us = rng.uniform_u64(0, 3_000);
        if rng.chance(0.3) {
            let wake = t + SimDuration::from_micros(rng.uniform_u64(0, gap_us));
            lockstep_to(&mut fast, &mut slow, &mut audit, wake, i, &ctx);
        }
        t += SimDuration::from_micros(gap_us);
        lockstep_to(&mut fast, &mut slow, &mut audit, t, i, &ctx);
        let spec = random_spec(&mut rng, i);
        let pid = audit.spawn(&mut fast, spec.clone());
        assert_eq!(slow.spawn(spec), pid, "{ctx}: pid numbering");
        // A dispatch raised `FirstRun` outside any advance: the next call
        // delivers it even though no event is due.
        if fast.proc_state(pid) == ProcState::Running {
            let mut notes = Vec::new();
            assert_eq!(fast.advance_until_notified(t, &mut notes), t);
            audit.after_advance(&fast, &notes, &ctx);
            let got = rendered(&notes);
            let first_run = format!("{:?}", Notification::FirstRun(pid, t));
            assert!(
                got.contains(&first_run),
                "{ctx}: {pid}'s FirstRun not delivered by the next call"
            );
            assert_eq!(
                vec![(t, got)],
                reference_to(&mut slow, t),
                "{ctx}: at spawn"
            );
        }
        if rng.chance(0.3) {
            let target = Pid(rng.uniform_u64(0, i));
            let policy = random_policy(&mut rng);
            fast.set_policy(target, policy);
            slow.set_policy(target, policy);
        }
    }
    while fast.next_event_time().is_some() {
        lockstep_to(
            &mut fast,
            &mut slow,
            &mut audit,
            SimTime::MAX,
            n_tasks,
            &ctx,
        );
    }
    audit.at_quiescence(&fast, &[], &ctx);
}

#[test]
fn advance_until_notified_matches_stepping_every_instant() {
    let smp = SmpParams::balanced(
        SimDuration::from_millis(1),
        SimDuration::from_micros(300),
        SimDuration::from_micros(100),
    );
    for kind in KernelPolicyKind::ALL {
        for cores in CORES {
            for seed in SEEDS {
                check_advance_until_notified(kind, cores, seed, SmpParams::default());
                check_advance_until_notified(kind, cores, seed, smp);
            }
        }
    }
}
