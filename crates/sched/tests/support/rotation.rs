//! Rotation timelines: op sequences that keep CFS cores rotating, shared
//! by `kpolicy_diff.rs` (the windowed machine against its own eager path,
//! and a golden digest per timeline) and the machine's own unit test that
//! windows open on them. The including module provides `Phase`, `Policy`
//! and `TaskSpec`.

use sfs_simcore::{SimDuration, SimRng, SimTime};

use super::{Phase, Policy, TaskSpec};

/// One controller-visible operation, applied identically to every run.
#[derive(Debug, Clone)]
pub enum Op {
    /// Spawn the given spec; the n-th spawn receives pid n.
    Spawn(TaskSpec),
    /// `set_policy` on the task from the i-th spawn.
    SetPolicy(usize, Policy),
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// An equal-nice CFS task of 50 ms to 5 s of CPU: one to three CPU phases,
/// optionally behind a leading I/O wait and separated by I/O waits, every
/// span a whole number of milliseconds.
fn rotation_spec(rng: &mut SimRng, label: u64) -> TaskSpec {
    let mut phases = Vec::new();
    if rng.chance(0.2) {
        phases.push(Phase::Io(ms(rng.uniform_u64(1, 60))));
    }
    let bursts = rng.uniform_u64(1, 3);
    let total = rng.uniform_u64(50, 5_000);
    for b in 0..bursts {
        let share = total / bursts + if b == 0 { total % bursts } else { 0 };
        if b > 0 {
            phases.push(Phase::Io(ms(rng.uniform_u64(1, 60))));
        }
        phases.push(Phase::Cpu(ms(share)));
    }
    TaskSpec {
        phases,
        policy: Policy::NORMAL,
        label,
    }
}

/// A timeline of `len` operations that keeps cores rotating: spawn bursts
/// load some cores while others hold a lone task, and quiet spells let
/// queues drain to one task.
/// Every instant is a whole millisecond, so with a whole-millisecond slice
/// and switch cost, completions, wakes, steals and policy switches (a trip
/// through `SCHED_FIFO` and back) land exactly on other cores' slice
/// boundaries.
pub fn rotation_ops(seed: u64, len: u64) -> Vec<(SimTime, Op)> {
    let mut rng = SimRng::seed_from_u64(seed).derive("rotation");
    let mut ops = Vec::new();
    let mut t = 0;
    let mut spawned = 0;
    for i in 0..len {
        t += if rng.chance(0.15) {
            rng.uniform_u64(200, 1_500)
        } else {
            rng.uniform_u64(0, 40)
        };
        if spawned > 0 && rng.chance(0.2) {
            let target = rng.uniform_u64(0, spawned as u64 - 1) as usize;
            let policy = if rng.chance(0.5) {
                Policy::Fifo { prio: 50 }
            } else {
                Policy::NORMAL
            };
            ops.push((SimTime::ZERO + ms(t), Op::SetPolicy(target, policy)));
        } else {
            ops.push((SimTime::ZERO + ms(t), Op::Spawn(rotation_spec(&mut rng, i))));
            spawned += 1;
        }
    }
    ops
}
