//! EEVDF — Earliest Eligible Virtual Deadline First, mainline CFS's
//! successor (kernel 6.6+), as a [`KernelPolicy`].
//!
//! Each fair task carries an *eligible time* `ve` (stored in the task's
//! vruntime slot, advancing with weighted service exactly like CFS
//! vruntime) and a *virtual deadline* `vd = ve + Δ(MIN_GRANULARITY, w)`.
//! A task is **eligible** when its `ve` is at or behind the queue's
//! weighted-average virtual time (`ve · ΣW ≤ Σ wᵢ·veᵢ`), i.e. it has
//! received no more than its fair share; among eligible tasks the earliest
//! virtual deadline runs. The minimum-`ve` task is always eligible, so a
//! non-empty queue always yields a pick (work conservation).
//!
//! The RT band (`SCHED_FIFO`/`SCHED_RR`) sits above the fair class exactly
//! as under [`super::LinuxPolicy`], and the same SMP envelope applies:
//! least-loaded wakeup placement, idle stealing, and balance-tick
//! migration (moving the latest-deadline task, the one that would run
//! last).

use std::collections::{BTreeMap, BTreeSet};

use sfs_simcore::SimDuration;

use crate::policy::cfs;
use crate::policy::rt::{RtRunqueue, RR_TIMESLICE};
use crate::policy::{rt_band_enqueue, KernelCtx, KernelPolicy, Placed, PreemptKind};
use crate::smp::pick_imbalance;
use crate::task::{Pid, Policy};

/// One core's EEVDF runqueue: deadline-ordered scan set plus the weighted
/// virtual-time aggregates that decide eligibility.
#[derive(Debug, Default, Clone)]
struct EevdfRunqueue {
    /// `(virtual deadline, eligible time, pid)` in deadline order.
    by_deadline: BTreeSet<(u64, u64, Pid)>,
    /// `(eligible time, pid)` — O(log n) minimum-`ve` lookup.
    by_ve: BTreeSet<(u64, Pid)>,
    /// pid → (eligible time, weight) of queued tasks.
    entries: BTreeMap<Pid, (u64, u32)>,
    /// Σ wᵢ of queued tasks.
    total_weight: u64,
    /// Σ wᵢ·veᵢ of queued tasks (u128: weight × ns products).
    sum_wv: u128,
    /// Monotone placement floor, the EEVDF analogue of CFS min_vruntime.
    min_v: u64,
}

impl EevdfRunqueue {
    /// Virtual deadline for a task with eligible time `ve` and weight `w`.
    fn deadline(ve: u64, w: u32) -> u64 {
        ve + cfs::vruntime_delta(cfs::MIN_GRANULARITY, w)
    }

    /// Clamp a waking task's `ve` to the placement floor (sleepers must
    /// not hoard lag) and return the placed value.
    fn place(&self, ve: u64) -> u64 {
        ve.max(self.min_v)
    }

    /// Raise the placement floor (never lowers it).
    fn advance_min(&mut self, v: u64) {
        if v > self.min_v {
            self.min_v = v;
        }
    }

    fn insert(&mut self, pid: Pid, ve: u64, w: u32) {
        let vd = Self::deadline(ve, w);
        self.by_deadline.insert((vd, ve, pid));
        self.by_ve.insert((ve, pid));
        self.entries.insert(pid, (ve, w));
        self.total_weight += u64::from(w);
        self.sum_wv += u128::from(w) * u128::from(ve);
    }

    fn remove(&mut self, pid: Pid) -> Option<(u64, u32)> {
        let (ve, w) = self.entries.remove(&pid)?;
        let vd = Self::deadline(ve, w);
        self.by_deadline.remove(&(vd, ve, pid));
        self.by_ve.remove(&(ve, pid));
        self.total_weight -= u64::from(w);
        self.sum_wv -= u128::from(w) * u128::from(ve);
        Some((ve, w))
    }

    /// Is a task with eligible time `ve` eligible (has not outrun the
    /// queue's weighted-average virtual time)?
    fn eligible(&self, ve: u64) -> bool {
        u128::from(ve) * u128::from(self.total_weight) <= self.sum_wv
    }

    /// Remove and return the earliest-virtual-deadline eligible task.
    fn pop(&mut self) -> Option<(u64, Pid, u32)> {
        let &(_, _, pid) = self
            .by_deadline
            .iter()
            .find(|&&(_, ve, _)| self.eligible(ve))?;
        let (ve, w) = self.remove(pid).expect("scanned entry exists");
        Some((ve, pid, w))
    }

    /// Remove and return the *latest*-deadline task (the migration and
    /// steal victim: it would run last here, so it loses the least).
    fn pop_latest(&mut self) -> Option<(u64, Pid, u32)> {
        let &(_, _, pid) = self.by_deadline.iter().next_back()?;
        let (ve, w) = self.remove(pid).expect("scanned entry exists");
        Some((ve, pid, w))
    }

    fn len(&self) -> usize {
        self.by_deadline.len()
    }

    fn is_empty(&self) -> bool {
        self.by_deadline.is_empty()
    }

    fn contains(&self, pid: Pid) -> bool {
        self.entries.contains_key(&pid)
    }

    /// Smallest eligible time currently queued.
    fn min_ve(&self) -> Option<u64> {
        self.by_ve.iter().next().map(|&(ve, _)| ve)
    }
}

/// EEVDF over per-core fair queues with the Linux RT band on top.
#[derive(Debug)]
pub struct EevdfPolicy {
    rt: RtRunqueue,
    rq: Vec<EevdfRunqueue>,
}

impl EevdfPolicy {
    /// An EEVDF policy for a machine with `cores` cores.
    pub fn new(cores: usize) -> EevdfPolicy {
        EevdfPolicy {
            rt: RtRunqueue::new(),
            rq: (0..cores).map(|_| EevdfRunqueue::default()).collect(),
        }
    }

    /// Fair-class load on `core` including a running fair task.
    fn fair_nr(&self, ctx: &KernelCtx<'_>, core: usize) -> u64 {
        let running_fair = ctx
            .current(core)
            .is_some_and(|p| !ctx.policy_of(p).is_realtime());
        self.rq[core].len() as u64 + u64::from(running_fair)
    }

    fn enqueue_fair(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid) -> Placed {
        let core_id = (0..self.rq.len())
            .min_by_key(|&i| self.fair_nr(ctx, i))
            .expect("at least one core");
        let ve = self.rq[core_id].place(ctx.vruntime(pid));
        ctx.set_vruntime(pid, ve);
        if ctx.home_core(pid) != Some(core_id) && ctx.has_run(pid) {
            ctx.note_migration(pid);
        }
        ctx.set_home_core(pid, Some(core_id));
        let w = ctx.weight_of(pid);
        self.rq[core_id].insert(pid, ve, w);

        match ctx.current(core_id) {
            None => Placed::RescheduleIdle(core_id),
            Some(curr) if !ctx.policy_of(curr).is_realtime() => {
                // Deadline preemption: the waking task preempts when its
                // virtual deadline beats the running task's.
                let vd_new = EevdfRunqueue::deadline(ve, w);
                let curr_ve = ctx.running_vruntime(core_id, curr);
                let vd_curr = EevdfRunqueue::deadline(curr_ve, ctx.weight_of(curr));
                if vd_new < vd_curr {
                    Placed::Preempt(core_id)
                } else {
                    Placed::Queued
                }
            }
            Some(_) => Placed::Queued, // RT running: fair task waits.
        }
    }
}

impl KernelPolicy for EevdfPolicy {
    fn name(&self) -> &'static str {
        "eevdf"
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
            self.rq[core_id].remove(pid);
        }
    }

    fn pick_next(&mut self, ctx: &mut KernelCtx<'_>, core: usize) -> Option<Pid> {
        if let Some((pid, _)) = self.rt.pop() {
            return Some(pid);
        }
        if let Some((ve, pid, _)) = self.rq[core].pop() {
            ctx.set_vruntime(pid, ve);
            return Some(pid);
        }
        // Idle steal: latest-deadline task from the most loaded queue.
        let victim = (0..self.rq.len())
            .filter(|&i| i != core && !self.rq[i].is_empty())
            .max_by_key(|&i| self.rq[i].len())?;
        let (ve, pid, _) = self.rq[victim].pop_latest()?;
        ctx.note_migration(pid);
        ctx.set_home_core(pid, Some(core));
        ctx.set_vruntime(pid, self.rq[core].place(ve));
        Some(pid)
    }

    fn requeue_preempted(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        core: usize,
        pid: Pid,
        why: PreemptKind,
    ) {
        match (ctx.policy_of(pid), why) {
            (Policy::Rr { prio }, PreemptKind::SliceExpired) => self.rt.push_back(pid, prio),
            (Policy::Fifo { prio } | Policy::Rr { prio }, _) => self.rt.push_front(pid, prio),
            (Policy::Normal { .. }, _) => {
                let ve = self.rq[core].place(ctx.vruntime(pid));
                ctx.set_vruntime(pid, ve);
                ctx.set_home_core(pid, Some(core));
                let w = ctx.weight_of(pid);
                self.rq[core].insert(pid, ve, w);
            }
        }
    }

    fn slice_for(&mut self, ctx: &mut KernelCtx<'_>, core: usize, pid: Pid) -> SimDuration {
        match ctx.policy_of(pid) {
            Policy::Fifo { .. } => SimDuration::MAX,
            Policy::Rr { .. } => RR_TIMESLICE,
            Policy::Normal { .. } => {
                // The EEVDF request size: the same latency-targeted slice
                // CFS grants, so event cadence stays comparable across the
                // fair policies.
                let w = ctx.weight_of(pid);
                let nr = self.rq[core].len() as u64 + 1;
                let total = self.rq[core].total_weight + u64::from(w);
                cfs::slice(nr, w, total)
            }
        }
    }

    fn task_tick(&mut self, ctx: &mut KernelCtx<'_>, core: usize, pid: Pid, ran: SimDuration) {
        if ctx.policy_of(pid).is_realtime() {
            return;
        }
        let w = ctx.weight_of(pid);
        let ve = ctx.vruntime(pid) + cfs::vruntime_delta(ran, w);
        ctx.set_vruntime(pid, ve);
        let floor = self.rq[core].min_ve().map_or(ve, |m| m.min(ve));
        self.rq[core].advance_min(floor);
    }

    fn has_competition(&self, _ctx: &KernelCtx<'_>, core: usize) -> bool {
        !self.rt.is_empty()
            || !self.rq[core].is_empty()
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
        old.is_realtime() && !new.is_realtime()
    }

    fn participates_in_balance(&self) -> bool {
        true
    }

    fn balance(&mut self, ctx: &mut KernelCtx<'_>) -> Option<Placed> {
        let depths: Vec<u64> = self.rq.iter().map(|q| q.len() as u64).collect();
        let (src, dst) = pick_imbalance(&depths)?;
        let (ve, pid, w) = self.rq[src].pop_latest()?;
        ctx.note_migration(pid);
        ctx.add_migration_cost(pid, ctx.smp_params().migration_cost);
        let placed = self.rq[dst].place(ve);
        ctx.set_vruntime(pid, placed);
        ctx.set_home_core(pid, Some(dst));
        self.rq[dst].insert(pid, placed, w);
        match ctx.current(dst) {
            None => Some(Placed::RescheduleIdle(dst)),
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
