//! Property suite for the SMP machine model: randomized workloads across
//! cores ∈ {2, 3, 4, 8} with the load balancer enabled, affinity costs on
//! and off, all driven by the workspace's seeded `SimRng` (exactly
//! reproducible, no proptest dependency).
//!
//! Invariants locked here:
//!
//! * **Task conservation under migration** — after every advance (stepped
//!   finer than the balance interval, so every balance tick is audited)
//!   each live task sits in exactly one place: running on one core, queued
//!   on exactly one runqueue, or sleeping; dead tasks are nowhere.
//! * **Per-core clock monotonicity** — a core's local clock never rewinds,
//!   across dispatches, preemptions, steals, and balance migrations.
//! * **No migration when balanced** — a perfectly even load (identical
//!   tasks, count divisible by cores) never triggers the balancer.
//! * **Work conservation** — nothing is lost or double-counted: every
//!   spawned task finishes exactly once with `cpu_time == cpu_demand`,
//!   whatever the balancer did to it.
//!
//! All but "no migration when balanced" are the machine identities of
//! `support/audit.rs`; this suite drives the balancer into them.

#[path = "support/audit.rs"]
mod audit;

use audit::MachineAudit;
use sfs_repro::sched::{
    KernelPolicyKind, Machine, MachineParams, Phase, Policy, SmpParams, TaskSpec,
};
use sfs_repro::simcore::{SimDuration, SimRng, SimTime};

const CORE_COUNTS: [usize; 4] = [2, 3, 4, 8];

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

/// Root seed of every case in this suite.
const ROOT: u64 = 0x5317_BA1A;

fn smp_params(rng: &mut SimRng, affinity: bool) -> SmpParams {
    SmpParams::balanced(
        us(rng.uniform_u64(300, 2_000)),
        us(rng.uniform_u64(0, 400)),
        if affinity {
            us(rng.uniform_u64(50, 300))
        } else {
            SimDuration::ZERO
        },
    )
}

/// A bursty random mix: mostly CFS with mixed niceness and optional I/O,
/// plus the occasional RT task so the balancer runs against a busy RT core
/// now and then (the regime that actually builds queue imbalances).
fn arb_tasks(rng: &mut SimRng, n: usize) -> Vec<(SimTime, TaskSpec)> {
    let mut at = SimTime::ZERO;
    (0..n)
        .map(|i| {
            // Clustered arrivals: half the tasks arrive nearly together.
            if rng.chance(0.5) {
                at += us(rng.uniform_u64(1, 150));
            } else {
                at += us(rng.uniform_u64(500, 5_000));
            }
            let mut phases = Vec::new();
            if rng.chance(0.25) {
                phases.push(Phase::Io(us(rng.uniform_u64(100, 3_000))));
            }
            phases.push(Phase::Cpu(us(rng.uniform_u64(200, 15_000))));
            if rng.chance(0.2) {
                phases.push(Phase::Io(us(rng.uniform_u64(100, 1_000))));
                phases.push(Phase::Cpu(us(rng.uniform_u64(100, 4_000))));
            }
            let policy = if rng.chance(0.1) {
                Policy::Fifo { prio: 50 }
            } else {
                Policy::Normal {
                    nice: rng.uniform_u64(0, 10) as i8 - 5,
                }
            };
            (
                at,
                TaskSpec {
                    phases,
                    policy,
                    label: i as u64,
                },
            )
        })
        .collect()
}

/// Drive one randomized balancing run stepwise, auditing the machine after
/// every advance and at quiescence; returns the balance migrations.
fn audited_run(mut rng: SimRng, cores: usize, affinity: bool, ctx: &str) -> u64 {
    let smp = smp_params(&mut rng, affinity);
    let params = MachineParams {
        cores,
        kpolicy: KernelPolicyKind::Cfs,
        ..Default::default()
    }
    .with_smp(smp);
    let mut m = Machine::new(params);
    let mut audit = MachineAudit::default();
    let n_tasks = rng.uniform_u64(20, 60) as usize;
    let tasks = arb_tasks(&mut rng, n_tasks);

    // Step finer than the balance interval so every tick boundary gets its
    // own audit point.
    let step = SimDuration::from_nanos(smp.balance_interval.as_nanos() / 3 + 1);
    let mut pending = tasks.into_iter().peekable();
    let mut notes = Vec::new();
    let mut now = SimTime::ZERO;
    while pending.peek().is_some() || m.live_tasks() > 0 {
        now += step;
        while pending.peek().is_some_and(|(t, _)| *t <= now) {
            let (t, spec) = pending.next().unwrap();
            notes.extend(m.advance_to(t));
            audit.spawn(&mut m, spec);
        }
        notes.extend(m.advance_to(now));
        audit.after_advance(&m, &notes, ctx);
        notes.clear();
    }
    audit.at_quiescence(&m, &[], ctx);
    m.balance_migrations()
}

#[test]
fn conservation_and_clock_monotonicity_under_balancing() {
    let mut migrations_seen = 0u64;
    for &cores in &CORE_COUNTS {
        for (a, &affinity) in [false, true].iter().enumerate() {
            for case in 0..4 {
                let label = format!("audited_c{cores}_a{a}");
                let ctx = format!("{label} case {case}");
                migrations_seen += audited_run(
                    audit::case_rng(ROOT, &[&label, &case.to_string()]),
                    cores,
                    affinity,
                    &ctx,
                );
            }
        }
    }
    // The suite must actually exercise the balancer, not vacuously pass
    // because no imbalance ever formed.
    assert!(
        migrations_seen > 0,
        "randomized cases never triggered a balance migration"
    );
}

#[test]
fn perfectly_balanced_load_never_migrates() {
    for &cores in &CORE_COUNTS {
        for case in 0..4 {
            let mut rng =
                audit::case_rng(ROOT, &[&format!("balanced_c{cores}"), &case.to_string()]);
            let affinity = rng.chance(0.5);
            let smp = smp_params(&mut rng, affinity);
            let params = MachineParams {
                cores,
                kpolicy: KernelPolicyKind::Cfs,
                ..Default::default()
            }
            .with_smp(smp);
            let mut m = Machine::new(params);
            let mut audit = MachineAudit::default();
            let ctx = format!("balanced cores={cores} case={case}");
            // Identical pure-CPU tasks, an exact multiple of the core
            // count, all arriving at t=0: placement spreads them evenly
            // and they stay even forever.
            let per_core = rng.uniform_u64(2, 5);
            let burst = us(rng.uniform_u64(1_000, 10_000));
            for i in 0..per_core * cores as u64 {
                audit.spawn(&mut m, TaskSpec::cpu(i, burst));
            }
            let notes = m.run_until_quiescent();
            audit.at_quiescence(&m, &notes, &ctx);
            assert_eq!(m.balance_migrations(), 0, "{ctx}: even load migrated");
        }
    }
}

#[test]
fn affinity_cost_never_changes_what_completes() {
    // Affinity charges shift *when* things finish, never *what* finishes:
    // same workload with and without affinity cost completes the same task
    // set with identical per-task CPU accounting.
    for &cores in &CORE_COUNTS {
        for case in 0..3 {
            let mut wl_rng =
                audit::case_rng(ROOT, &[&format!("aff_wl_c{cores}"), &case.to_string()]);
            let tasks = arb_tasks(&mut wl_rng, 30);
            let run = |aff: SimDuration| {
                let smp = SmpParams::balanced(us(700), us(100), aff);
                let params = MachineParams {
                    cores,
                    kpolicy: KernelPolicyKind::Cfs,
                    ..Default::default()
                }
                .with_smp(smp);
                let mut m = Machine::new(params);
                let mut audit = MachineAudit::default();
                let ctx = format!("aff_wl_c{cores} case {case} affinity {aff}");
                let mut notes = Vec::new();
                for (t, spec) in tasks.clone() {
                    let step = m.advance_to(t);
                    audit.after_advance(&m, &step, &ctx);
                    notes.extend(step);
                    audit.spawn(&mut m, spec);
                }
                let step = m.run_until_quiescent();
                audit.at_quiescence(&m, &step, &ctx);
                notes.extend(step);
                let mut labels: Vec<(u64, SimDuration)> = (audit::completions(&notes).iter())
                    .map(|t| (t.label, t.cpu_time))
                    .collect();
                labels.sort_unstable();
                labels
            };
            assert_eq!(run(SimDuration::ZERO), run(us(200)));
        }
    }
}
