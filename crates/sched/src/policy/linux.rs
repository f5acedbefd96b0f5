//! The Linux discipline as a [`KernelPolicy`] value: a machine-global RT
//! runqueue (`SCHED_FIFO`/`SCHED_RR`) strictly above per-core CFS
//! runqueues, with wakeup preemption, idle pull-stealing, and balance-tick
//! migration.
//!
//! This is the pre-refactor machine's hard-wired behaviour transplanted
//! verbatim onto the hook seam — the kernel-policy differential suite
//! (`tests/kpolicy_diff.rs`) and the 21 golden snapshots lock it
//! bit-identical.

use sfs_simcore::SimDuration;

use crate::policy::cfs::{weight_of_nice, CfsParams, CfsRunqueue};
use crate::policy::rt::{RtRunqueue, RR_TIMESLICE};
use crate::policy::{rt_band_enqueue, KernelCtx, KernelPolicy, Placed, PreemptKind};
use crate::smp::pick_imbalance;
use crate::task::{Pid, Policy};

/// RT over per-core CFS (see module docs).
#[derive(Debug)]
pub struct LinuxPolicy {
    /// Machine-global real-time queue.
    rt: RtRunqueue,
    /// Per-core CFS runqueues.
    rq: Vec<CfsRunqueue>,
    /// Per-core memo of the last fair slice: `(nr, weight, total_weight)`
    /// and [`CfsParams::slice`] of it. The machine's CFS tunables are fixed
    /// for its lifetime, so the slice is recomputed only when the core's
    /// runqueue composition changes. `nr` is never 0, so the initial key
    /// matches nothing.
    slice_memo: Vec<((u64, u32, u64), SimDuration)>,
}

impl LinuxPolicy {
    /// The Linux discipline for a machine with `cores` cores.
    pub fn new(cores: usize) -> LinuxPolicy {
        LinuxPolicy {
            rt: RtRunqueue::new(),
            rq: (0..cores).map(|_| CfsRunqueue::new()).collect(),
            slice_memo: vec![((0, 0, 0), SimDuration::ZERO); cores],
        }
    }

    /// Runnable CFS load on `core` including a running CFS task.
    fn cfs_nr(&self, ctx: &KernelCtx<'_>, core: usize) -> u64 {
        let running_cfs = ctx
            .current(core)
            .is_some_and(|p| !ctx.policy_of(p).is_realtime());
        self.rq[core].len() as u64 + u64::from(running_cfs)
    }

    /// Wakeup placement + preemption check for a fair-class task.
    fn enqueue_fair(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid) -> Placed {
        // Place on the least-loaded core (by CFS runnable count, counting a
        // running CFS task; cores busy with RT count their queue only).
        let core_id = (0..self.rq.len())
            .min_by_key(|&i| self.cfs_nr(ctx, i))
            .expect("at least one core");
        let floor = self.rq[core_id].place_vruntime(ctx.vruntime(pid));
        ctx.set_vruntime(pid, floor);
        if ctx.home_core(pid) != Some(core_id) && ctx.has_run(pid) {
            ctx.note_migration(pid);
        }
        ctx.set_home_core(pid, Some(core_id));
        let w = ctx.weight_of(pid);
        self.rq[core_id].enqueue(pid, floor, w);

        match ctx.current(core_id) {
            None => Placed::RescheduleIdle(core_id),
            Some(curr) if !ctx.policy_of(curr).is_realtime() => {
                // Wakeup preemption: preempt if the waking task's vruntime
                // lags the current one by more than wakeup_granularity.
                let curr_v = ctx.running_vruntime(core_id, curr);
                let gran = ctx.cfs_params().wakeup_granularity.as_nanos();
                if floor + gran < curr_v {
                    Placed::Preempt(core_id)
                } else {
                    // The runqueue grew: the current task's fair slice
                    // shrank (the kernel's per-tick check_preempt_tick).
                    Placed::RefreshSlice(core_id)
                }
            }
            Some(_) => Placed::Queued, // RT running: CFS task waits.
        }
    }

    /// Idle pull-balancing: take the largest-vruntime task from the most
    /// loaded CFS runqueue.
    fn steal_for(&mut self, ctx: &mut KernelCtx<'_>, core_id: usize) -> Option<Pid> {
        let victim = (0..self.rq.len())
            .filter(|&i| i != core_id && !self.rq[i].is_empty())
            .max_by_key(|&i| self.rq[i].len())?;
        let (v, pid) = self.rq[victim].pop_last()?;
        ctx.note_migration(pid);
        ctx.set_home_core(pid, Some(core_id));
        // Renormalise vruntime onto the thief's queue.
        let placed = self.rq[core_id].place_vruntime(v);
        ctx.set_vruntime(pid, placed);
        Some(pid)
    }
}

impl KernelPolicy for LinuxPolicy {
    fn name(&self) -> &'static str {
        "cfs"
    }

    fn enqueue(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid) -> Placed {
        match ctx.policy_of(pid) {
            Policy::Fifo { prio } | Policy::Rr { prio } => {
                rt_band_enqueue(&mut self.rt, ctx, pid, prio, false)
            }
            Policy::Normal { .. } => self.enqueue_fair(ctx, pid),
        }
    }

    fn dequeue(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid) {
        if ctx.policy_of(pid).is_realtime() {
            self.rt.remove(pid);
        } else if let Some(core_id) = ctx.home_core(pid) {
            let v = ctx.vruntime(pid);
            self.rq[core_id].remove(pid, v);
        }
    }

    fn pick_next(&mut self, ctx: &mut KernelCtx<'_>, core: usize) -> Option<Pid> {
        if let Some((pid, _)) = self.rt.pop() {
            Some(pid)
        } else if let Some((_, pid)) = self.rq[core].pop() {
            Some(pid)
        } else {
            self.steal_for(ctx, core)
        }
    }

    fn requeue_preempted(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        core: usize,
        pid: Pid,
        why: PreemptKind,
    ) {
        match (ctx.policy_of(pid), why) {
            // Round-robin quantum expiry: to the *tail* of the level.
            (Policy::Rr { prio }, PreemptKind::SliceExpired) => self.rt.push_back(pid, prio),
            // A preempted FIFO/RR task resumes at the head of its level.
            (Policy::Fifo { prio } | Policy::Rr { prio }, PreemptKind::Preempted) => {
                self.rt.push_front(pid, prio)
            }
            (Policy::Fifo { prio }, PreemptKind::SliceExpired) => self.rt.push_front(pid, prio),
            (Policy::Normal { .. }, _) => {
                let floor = self.rq[core].place_vruntime(ctx.vruntime(pid));
                ctx.set_vruntime(pid, floor);
                ctx.set_home_core(pid, Some(core));
                let w = ctx.weight_of(pid);
                self.rq[core].enqueue(pid, floor, w);
            }
        }
    }

    fn slice_for(&mut self, ctx: &mut KernelCtx<'_>, core: usize, pid: Pid) -> SimDuration {
        match ctx.policy_of(pid) {
            Policy::Fifo { .. } => SimDuration::MAX,
            Policy::Rr { .. } => RR_TIMESLICE,
            Policy::Normal { nice } => {
                let w = weight_of_nice(nice);
                let nr = self.rq[core].len() as u64 + 1;
                let total = self.rq[core].total_weight() + w as u64;
                let memo = &mut self.slice_memo[core];
                if memo.0 != (nr, w, total) {
                    *memo = ((nr, w, total), ctx.cfs_params().slice(nr, w, total));
                }
                memo.1
            }
        }
    }

    fn refresh_slice(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        core: usize,
        pid: Pid,
    ) -> Option<SimDuration> {
        // Only a running CFS task's slice shrinks as its queue grows; RT
        // quanta are fixed.
        match ctx.policy_of(pid) {
            Policy::Normal { .. } => Some(self.slice_for(ctx, core, pid)),
            _ => None,
        }
    }

    fn task_tick(&mut self, ctx: &mut KernelCtx<'_>, core: usize, pid: Pid, ran: SimDuration) {
        if ctx.policy_of(pid).is_realtime() {
            return;
        }
        let w = ctx.weight_of(pid);
        let v = ctx.vruntime(pid) + CfsParams::vruntime_delta(ran, w);
        ctx.set_vruntime(pid, v);
        let leftmost = self.rq[core].peek().map(|(lv, _)| lv);
        let floor = leftmost.map_or(v, |lv| lv.min(v));
        self.rq[core].advance_min_vruntime(floor);
    }

    fn has_competition(&self, _ctx: &KernelCtx<'_>, core: usize) -> bool {
        !self.rt.is_empty()
            || !self.rq[core].is_empty()
            // Another queue could be stolen from if we vacate.
            || self
                .rq
                .iter()
                .enumerate()
                .any(|(i, q)| i != core && q.len() > 1)
    }

    fn has_waiters(&self, _ctx: &KernelCtx<'_>) -> bool {
        !self.rt.is_empty() || self.rq.iter().any(|q| !q.is_empty())
    }

    fn demotes_on_change(&self, old: Policy, new: Policy) -> bool {
        // Demotion RT → CFS (SFS FILTER expiry) forces the task off-core;
        // promotion or same-class changes keep it and reslice.
        old.is_realtime() && !new.is_realtime()
    }

    fn participates_in_balance(&self) -> bool {
        true
    }

    fn balance(&mut self, ctx: &mut KernelCtx<'_>) -> Option<Placed> {
        let depths: Vec<u64> = self.rq.iter().map(|q| q.len() as u64).collect();
        let (src, dst) = pick_imbalance(&depths, ctx.smp_params().balance_threshold)?;
        // Pull from the tail: the task that would run last on the busy
        // core loses the least cache state by moving (same choice as the
        // idle-steal path).
        let (v, pid) = self.rq[src].pop_last()?;
        ctx.note_migration(pid);
        ctx.add_migration_cost(pid, ctx.smp_params().migration_cost);
        let placed = self.rq[dst].place_vruntime(v);
        ctx.set_vruntime(pid, placed);
        ctx.set_home_core(pid, Some(dst));
        let w = ctx.weight_of(pid);
        self.rq[dst].enqueue(pid, placed, w);
        match ctx.current(dst) {
            // An idle destination (only possible transiently, e.g. a tick
            // coinciding with a completion) starts the migrant at once.
            None => Some(Placed::RescheduleIdle(dst)),
            // The destination queue grew: its running CFS task's fair
            // slice shrank, exactly as on a wakeup enqueue.
            Some(curr) if !ctx.policy_of(curr).is_realtime() => Some(Placed::RefreshSlice(dst)),
            Some(_) => Some(Placed::Queued),
        }
    }

    fn queue_depth(&self, core: usize) -> usize {
        self.rq[core].len()
    }

    fn rt_depth(&self) -> usize {
        self.rt.len()
    }

    fn queued_places(&self, pid: Pid) -> usize {
        self.rq.iter().filter(|q| q.contains(pid)).count() + usize::from(self.rt.contains(pid))
    }
}

#[cfg(test)]
mod tests {
    use sfs_simcore::{SimRng, SimTime};

    use super::*;
    use crate::machine::CoreSched;
    use crate::policy::cfs::NICE_TO_WEIGHT;
    use crate::smp::SmpParams;
    use crate::task::{Task, TaskSpec};

    /// The memoised `slice_for` returns `CfsParams::slice` of the core's
    /// current composition across a randomized run of enqueues, pops and
    /// removals on every core, for tasks of any nice level.
    #[test]
    fn memoised_slice_matches_cfs_slice() {
        const CORES: usize = 3;
        const TASKS: u64 = 48;
        let cfs = CfsParams::default();
        let smp = SmpParams::default();
        let mut rng = SimRng::seed_from_u64(0x511CE).derive("slice_memo");
        let mut tasks: Vec<Task> = (0..TASKS)
            .map(|i| {
                Task::new(
                    Pid(i),
                    TaskSpec::cpu(i, SimDuration::from_millis(1)),
                    SimTime::ZERO,
                )
            })
            .collect();
        let mut cores = vec![CoreSched::new(); CORES];
        let mut lp = LinuxPolicy::new(CORES);
        // The core and vruntime each queued task sits at.
        let mut queued: Vec<Option<(usize, u64)>> = vec![None; TASKS as usize];
        for step in 0..20_000 {
            let core = rng.uniform_u64(0, CORES as u64 - 1) as usize;
            let pid = Pid(rng.uniform_u64(0, TASKS - 1));
            match (rng.uniform_u64(0, 3), queued[pid.0 as usize]) {
                (0 | 1, None) => {
                    let w = NICE_TO_WEIGHT[rng.uniform_u64(0, 39) as usize];
                    let v = rng.uniform_u64(0, 1 << 40);
                    lp.rq[core].enqueue(pid, v, w);
                    queued[pid.0 as usize] = Some((core, v));
                }
                (2, Some((home, _))) => {
                    let (_, popped) = lp.rq[home].pop().expect("non-empty");
                    queued[popped.0 as usize] = None;
                }
                (3, Some((home, v))) => {
                    assert!(lp.rq[home].remove(pid, v));
                    queued[pid.0 as usize] = None;
                }
                _ => {}
            }
            let nice = rng.uniform_u64(0, 39) as i8 - 20;
            tasks[pid.0 as usize].policy = Policy::Normal { nice };
            let mut ctx = KernelCtx {
                now: SimTime::ZERO,
                cfs: &cfs,
                smp: &smp,
                tasks: &mut tasks,
                cores: &mut cores,
            };
            let got = lp.slice_for(&mut ctx, core, pid);
            let w = weight_of_nice(nice);
            let want = cfs.slice(
                lp.rq[core].len() as u64 + 1,
                w,
                lp.rq[core].total_weight() + w as u64,
            );
            assert_eq!(got, want, "step {step}: core {core}, {pid} at nice {nice}");
        }
    }
}
