//! The Linux discipline as a [`KernelPolicy`] value: a machine-global RT
//! runqueue (`SCHED_FIFO`/`SCHED_RR`) strictly above per-core CFS
//! runqueues, with wakeup preemption, idle pull-stealing, and balance-tick
//! migration.
//!
//! This is the pre-refactor machine's hard-wired behaviour transplanted
//! verbatim onto the hook seam. `tests/kpolicy_diff.rs` locks it bit for
//! bit with timeline digests recorded while that machine still ran beside
//! it (`tests/golden/kpolicy_timelines.txt`), as do the CFS golden
//! snapshots of `sfs-bench`.

use sfs_simcore::SimDuration;

use crate::policy::cfs::{self, weight_of_nice, CfsRunqueue};
use crate::policy::rt::{RtRunqueue, RR_TIMESLICE};
use crate::policy::{rt_band_enqueue, KernelCtx, KernelPolicy, Placed, PreemptKind, Rotation};
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
    /// and [`cfs::slice`] of it, recomputed only when the core's runqueue
    /// composition changes. `nr` is never 0, so the initial key matches
    /// nothing.
    slice_memo: Vec<((u64, u32, u64), SimDuration)>,
    /// Per core: slice-expiry boundaries to let pass before testing the
    /// queue for a rotation again. A failed test costs O(queue), so the
    /// next one waits until the queue changes, or a full turn of it (for a
    /// rotating task yet to run on the core: until its dispatch), keeping
    /// the scans amortised O(1) per boundary.
    retest: Vec<u32>,
    /// Per core: the lowest `(vruntime, pid)` its last rotation left
    /// parked; queued keys below it rotate.
    park: Vec<(u64, Pid)>,
    /// Scratch for sorting a rotation's queued tasks.
    order: Vec<(u64, Pid)>,
    /// Tasks queued across all CFS runqueues.
    queued: usize,
    /// CFS runqueues holding two or more tasks: the ones an idle core
    /// could steal from while their own core still has work.
    crowded: usize,
    /// [`has_competition`](KernelPolicy::has_competition) of a core with
    /// an empty queue, as the last hook left it.
    competition: bool,
}

impl LinuxPolicy {
    /// The Linux discipline for a machine with `cores` cores.
    pub fn new(cores: usize) -> LinuxPolicy {
        LinuxPolicy {
            rt: RtRunqueue::new(),
            rq: (0..cores).map(|_| CfsRunqueue::new()).collect(),
            slice_memo: vec![((0, 0, 0), SimDuration::ZERO); cores],
            retest: vec![0; cores],
            park: vec![(0, Pid(0)); cores],
            order: Vec::new(),
            queued: 0,
            crowded: 0,
            competition: false,
        }
    }

    /// After a hook that changed any queue: tell the machine when a lone
    /// task's renew-or-repick choice may have flipped, so it re-checks
    /// its lone windows only then.
    fn note_competition(&mut self, ctx: &mut KernelCtx<'_>) {
        let competition = !self.rt.is_empty() || self.crowded > 0;
        if competition != self.competition {
            self.competition = competition;
            ctx.tickless.recheck = true;
        }
    }

    /// `core`'s queue just gained a task.
    fn grew(&mut self, core: usize) {
        self.queued += 1;
        self.crowded += usize::from(self.rq[core].len() == 2);
    }

    /// `core`'s queue just lost a task.
    fn shrank(&mut self, core: usize) {
        self.queued -= 1;
        self.crowded -= usize::from(self.rq[core].len() == 1);
    }

    /// Settle `core`'s window, if the machine has one open, before this
    /// policy reads or writes `core`'s queue; and test the queue for a
    /// rotation at its next boundary.
    fn touch(&mut self, ctx: &mut KernelCtx<'_>, core: usize) {
        if ctx.tickless.is_open(core) && ctx.settle_window(core) {
            self.rotation_settled(ctx, core);
        }
        self.retest[core] = 0;
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
        self.touch(ctx, core_id);
        let floor = self.rq[core_id].place_vruntime(ctx.vruntime(pid));
        ctx.set_vruntime(pid, floor);
        if ctx.home_core(pid) != Some(core_id) && ctx.has_run(pid) {
            ctx.note_migration(pid);
        }
        ctx.set_home_core(pid, Some(core_id));
        let w = ctx.weight_of(pid);
        self.rq[core_id].enqueue(pid, floor, w);
        self.grew(core_id);

        match ctx.current(core_id) {
            None => Placed::RescheduleIdle(core_id),
            Some(curr) if !ctx.policy_of(curr).is_realtime() => {
                // Wakeup preemption: preempt if the waking task's vruntime
                // lags the current one by more than wakeup_granularity.
                let curr_v = ctx.running_vruntime(core_id, curr);
                let gran = cfs::WAKEUP_GRANULARITY.as_nanos();
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
        self.touch(ctx, victim);
        self.retest[core_id] = 0;
        let (v, pid) = self.rq[victim].pop_last()?;
        self.shrank(victim);
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
        let placed = match ctx.policy_of(pid) {
            Policy::Fifo { prio } | Policy::Rr { prio } => {
                rt_band_enqueue(&mut self.rt, ctx, pid, prio, false)
            }
            Policy::Normal { .. } => self.enqueue_fair(ctx, pid),
        };
        self.note_competition(ctx);
        placed
    }

    fn dequeue(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid) {
        if ctx.policy_of(pid).is_realtime() {
            self.rt.remove(pid);
        } else if let Some(core_id) = ctx.home_core(pid) {
            self.touch(ctx, core_id);
            let v = ctx.vruntime(pid);
            if self.rq[core_id].remove(pid, v) {
                self.shrank(core_id);
            }
        }
        self.note_competition(ctx);
    }

    fn pick_next(&mut self, ctx: &mut KernelCtx<'_>, core: usize) -> Option<Pid> {
        let next = if let Some((pid, _)) = self.rt.pop() {
            Some(pid)
        } else if let Some((_, pid)) = self.rq[core].pop() {
            self.shrank(core);
            Some(pid)
        } else {
            self.steal_for(ctx, core)
        };
        self.note_competition(ctx);
        next
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
                self.grew(core);
            }
        }
        self.note_competition(ctx);
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
                    *memo = ((nr, w, total), cfs::slice(nr, w, total));
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
        let v = ctx.vruntime(pid) + cfs::vruntime_delta(ran, w);
        ctx.set_vruntime(pid, v);
        let leftmost = self.rq[core].peek().map(|(lv, _)| lv);
        let floor = leftmost.map_or(v, |lv| lv.min(v));
        self.rq[core].advance_min_vruntime(floor);
    }

    fn has_competition(&self, _ctx: &KernelCtx<'_>, core: usize) -> bool {
        debug_assert_eq!(self.crowded, self.rq.iter().filter(|q| q.len() > 1).count());
        // With `core`'s own queue empty, any crowded queue is another
        // core's, which could be stolen from if we vacate.
        !self.rt.is_empty() || !self.rq[core].is_empty() || self.crowded > 0
    }

    fn has_waiters(&self, _ctx: &KernelCtx<'_>) -> bool {
        debug_assert_eq!(self.queued, self.rq.iter().map(|q| q.len()).sum::<usize>());
        !self.rt.is_empty() || self.queued > 0
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
        let (src, dst) = pick_imbalance(&depths)?;
        self.touch(ctx, src);
        self.touch(ctx, dst);
        // Pull from the tail: the task that would run last on the busy
        // core loses the least cache state by moving (same choice as the
        // idle-steal path).
        let (v, pid) = self.rq[src].pop_last()?;
        self.shrank(src);
        ctx.note_migration(pid);
        ctx.add_migration_cost(pid, ctx.smp_params().migration_cost);
        let placed = self.rq[dst].place_vruntime(v);
        ctx.set_vruntime(pid, placed);
        ctx.set_home_core(pid, Some(dst));
        let w = ctx.weight_of(pid);
        self.rq[dst].enqueue(pid, placed, w);
        self.grew(dst);
        self.note_competition(ctx);
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

    /// A fair queue rotates in a fixed cycle when no RT task waits and
    /// every task on the core has the same weight. The queued tasks keyed
    /// below the running task's key after one turn rotate with it, each
    /// turn requeueing its task behind the others (adding one turn's
    /// vruntime never reorders them); the rest stay parked until the
    /// rotation's keys pass the lowest of theirs. Every rotating task must
    /// have run on the core before (no first-run notification,
    /// cache-affinity or migration cost is due). A lone task renews in
    /// place, or is preempted and repicked while another core's queue
    /// could be stolen from.
    fn rotation(
        &mut self,
        ctx: &KernelCtx<'_>,
        core: usize,
        cycle: &mut Vec<Pid>,
    ) -> Option<Rotation> {
        if self.retest[core] > 0 {
            self.retest[core] -= 1;
            return None;
        }
        let cur = ctx.current(core)?;
        let Policy::Normal { nice } = ctx.policy_of(cur) else {
            return None;
        };
        let w = weight_of_nice(nice);
        let q = &self.rq[core];
        let nr = q.len() as u64 + 1;
        let ((nr_w_total, slice), total) = (self.slice_memo[core], q.total_weight() + w as u64);
        let settled_here = |p: Pid| {
            ctx.has_run(p)
                && ctx.last_core(p) == Some(core)
                && ctx.pending_migration_cost(p).is_zero()
        };
        let d = cfs::vruntime_delta(slice, w);
        let weights_differ = || q.entries().any(|(_, _, pw)| pw != w);
        if !self.rt.is_empty() || nr_w_total != (nr, w, total) || d == 0 || weights_differ() {
            self.retest[core] = nr as u32;
            return None;
        }
        let after = (ctx.vruntime(cur) + d, cur);
        self.order.clear();
        let mut parked = None;
        for (v, p, _) in q.entries() {
            if (v, p) < after {
                self.order.push((v, p));
            } else {
                parked = Some(parked.map_or((v, p), |m: (u64, Pid)| m.min((v, p))));
            }
        }
        self.order.sort_unstable();
        // A rotating task yet to run here: test again once it is
        // dispatched, `i + 1` boundaries from now.
        if let Some(i) = self.order.iter().position(|&(_, p)| !settled_here(p)) {
            self.retest[core] = i as u32;
            return None;
        }
        if !settled_here(cur) {
            return None;
        }
        // Turns whose key stays below the lowest parked one.
        let turns = parked.map_or(u64::MAX, |(pv, pp)| {
            let below = |(v, p): (u64, Pid)| (pv - v) / d + u64::from((pv - v) % d != 0 || p < pp);
            (self.order.iter().copied())
                .chain([(ctx.vruntime(cur), cur)])
                .map(below)
                .fold(0u64, u64::saturating_add)
        });
        self.park[core] = after;
        cycle.push(cur);
        cycle.extend(self.order.iter().map(|&(_, p)| p));
        Some(Rotation {
            slice,
            vruntime_delta: d,
            switches: nr > 1 || self.has_competition(ctx, core),
            turns,
        })
    }

    /// Rebuild `core`'s queue from the settled rotation: the parked tasks
    /// as they were, and every rotating task but the running one at its
    /// settled vruntime; the floor follows the running task's, as each
    /// boundary's pick left it.
    fn rotation_settled(&mut self, ctx: &mut KernelCtx<'_>, core: usize) {
        let cur = ctx
            .current(core)
            .expect("a settled rotation has a running task");
        let w = ctx.weight_of(cur);
        let cycle = ctx.window_cycle(core);
        let at = (cycle.iter().position(|&p| p == cur)).expect("the running task rotates");
        let LinuxPolicy {
            rq, order, park, ..
        } = self;
        let rq = &mut rq[core];
        order.clear();
        order.extend((rq.entries().map(|(v, p, _)| (v, p))).filter(|&e| e >= park[core]));
        rq.clear();
        for &(v, p) in order.iter() {
            rq.enqueue(p, v, w);
        }
        for i in 1..cycle.len() {
            let p = cycle[(at + i) % cycle.len()];
            rq.enqueue(p, ctx.vruntime(p), w);
        }
        rq.advance_min_vruntime(ctx.vruntime(cur));
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
    use crate::window::Tickless;

    /// The memoised `slice_for` returns `cfs::slice` of the core's
    /// current composition across a randomized run of enqueues, pops and
    /// removals on every core, for tasks of any nice level.
    #[test]
    fn memoised_slice_matches_cfs_slice() {
        const CORES: usize = 3;
        const TASKS: u64 = 48;
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
                smp: &smp,
                tasks: &mut tasks,
                cores: &mut cores,
                tickless: &mut Tickless::new(CORES),
            };
            let got = lp.slice_for(&mut ctx, core, pid);
            let w = weight_of_nice(nice);
            let want = cfs::slice(
                lp.rq[core].len() as u64 + 1,
                w,
                lp.rq[core].total_weight() + w as u64,
            );
            assert_eq!(got, want, "step {step}: core {core}, {pid} at nice {nice}");
        }
    }
}
