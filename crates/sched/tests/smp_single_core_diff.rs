//! Single-core bit-exactness gate for the SMP machine model.
//!
//! The SMP refactor's contract has two faces:
//!
//! 1. **Default `SmpParams` is the pre-refactor machine at any core
//!    count** — no balance events, no migration or affinity charges, so
//!    every pre-existing golden snapshot passes byte-unchanged (locked by
//!    `crates/bench/tests/golden.rs` with zero regeneration).
//! 2. **`cores = 1` is immune to the SMP knobs entirely** — with one core
//!    there is nothing to balance toward and no cross-core resume to
//!    charge, so even a fully enabled SMP configuration must replay the
//!    pre-refactor notification stream *bit-identically, step by step*.
//!
//! This suite locks face 2 differentially: randomized workloads drive two
//! machines — SMP knobs off (the pre-refactor reference) and SMP knobs
//! fully on — through identical spawn/advance/set_policy sequences and
//! assert the notification streams and externally visible state agree at
//! every step, not merely at the end.

use sfs_sched::{
    FinishedTask, KernelPolicyKind, Machine, MachineParams, Notification, Phase, Policy, SmpParams,
    TaskSpec,
};
use sfs_simcore::{SimDuration, SimRng, SimTime};

#[path = "support/open_loop.rs"]
mod open_loop;
use open_loop::completions;

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

fn case_rng(test: &str, case: usize) -> SimRng {
    SimRng::seed_from_u64(0x51A6_C0DE)
        .derive(test)
        .derive(&case.to_string())
}

/// A randomized spec: CPU burst, optionally sandwiched by I/O phases, under
/// a random policy (mostly CFS at varied nice, some RT).
fn random_spec(rng: &mut SimRng, label: u64) -> TaskSpec {
    let mut phases = Vec::new();
    if rng.chance(0.3) {
        phases.push(Phase::Io(us(rng.uniform_u64(50, 4_000))));
    }
    phases.push(Phase::Cpu(us(rng.uniform_u64(200, 20_000))));
    if rng.chance(0.25) {
        phases.push(Phase::Io(us(rng.uniform_u64(100, 2_000))));
        phases.push(Phase::Cpu(us(rng.uniform_u64(100, 5_000))));
    }
    let policy = if rng.chance(0.15) {
        Policy::Fifo {
            prio: rng.uniform_u64(1, 99) as u8,
        }
    } else {
        Policy::Normal {
            nice: rng.uniform_u64(0, 10) as i8 - 5,
        }
    };
    TaskSpec {
        phases,
        policy,
        label,
    }
}

/// Drive `off` and `on` through one identical randomized step and compare
/// the produced notification batches verbatim.
fn lockstep_case(mut rng: SimRng, steps: usize) {
    let base = MachineParams {
        cores: 1,
        kpolicy: KernelPolicyKind::Cfs,
        ..Default::default()
    };
    // Every SMP mechanism enabled, aggressively: a 200µs balance tick and
    // non-zero migration/affinity charges. On one core all of it must be
    // inert.
    let smp_on = SmpParams::balanced(us(200), us(500), us(250));
    let mut off = Machine::new(base);
    let mut on = Machine::new(base.with_smp(smp_on));

    let mut now = SimTime::ZERO;
    let mut spawned: Vec<sfs_sched::Pid> = Vec::new();
    let mut all_off: Vec<Notification> = Vec::new();
    let mut all_on: Vec<Notification> = Vec::new();

    for step in 0..steps {
        // Randomly: spawn, policy-switch a live task, or just advance.
        if rng.chance(0.5) || spawned.is_empty() {
            let spec = random_spec(&mut rng, step as u64);
            let p_off = off.spawn(spec.clone());
            let p_on = on.spawn(spec);
            assert_eq!(p_off, p_on, "pid allocation must agree");
            spawned.push(p_off);
        } else if rng.chance(0.2) {
            let pid = spawned[rng.uniform_u64(0, spawned.len() as u64 - 1) as usize];
            let pol = if rng.chance(0.5) {
                Policy::Fifo { prio: 40 }
            } else {
                Policy::NORMAL
            };
            off.set_policy(pid, pol);
            on.set_policy(pid, pol);
        }
        now += us(rng.uniform_u64(50, 3_000));
        let notes_off = off.advance_to(now);
        let notes_on = on.advance_to(now);
        assert_eq!(
            format!("{notes_off:?}"),
            format!("{notes_on:?}"),
            "step {step}: notification streams diverged at {now}"
        );
        assert_eq!(off.now(), on.now());
        assert_eq!(off.live_tasks(), on.live_tasks());
        assert_eq!(off.total_ctx_switches(), on.total_ctx_switches());
        for &pid in &spawned {
            assert_eq!(off.proc_state(pid), on.proc_state(pid), "state of {pid}");
            assert_eq!(off.cpu_time(pid), on.cpu_time(pid), "utime of {pid}");
        }
        on.assert_conservation();
        all_off.extend(notes_off);
        all_on.extend(notes_on);
    }

    // Drain both and compare the completion records bit-for-bit.
    let fin_off = off.run_until_quiescent();
    let fin_on = on.run_until_quiescent();
    assert_eq!(format!("{fin_off:?}"), format!("{fin_on:?}"));
    all_off.extend(fin_off);
    all_on.extend(fin_on);
    assert_eq!(
        format!("{:?}", completions(&all_off)),
        format!("{:?}", completions(&all_on))
    );
    assert_eq!(on.balance_migrations(), 0, "one core: nothing to balance");
}

#[test]
fn single_core_smp_machine_is_bit_identical_stepwise() {
    for case in 0..12 {
        lockstep_case(case_rng("single_core_lockstep", case), 60);
    }
}

#[test]
fn single_core_smp_machine_agrees_on_heavy_overload() {
    // Fewer, longer cases at heavy oversubscription (the regime where the
    // balancer would be busiest if it had a second core).
    for case in 0..3 {
        lockstep_case(case_rng("single_core_overload", case), 250);
    }
}
