//! The pluggable kernel-policy layer.
//!
//! The machine's event loop ([`crate::Machine`]) owns time, cores, task
//! lifecycle, and event delivery; *which task runs where, for how long* is
//! delegated to a [`KernelPolicy`] value behind a narrow hook interface —
//! the sched_ext idea applied to the simulator. A policy owns its runqueue
//! structures outright and reaches machine state only through a
//! [`KernelCtx`] capability object, so the machine core never needs to know
//! a policy's data layout and a policy can never corrupt machine
//! bookkeeping it was not handed.
//!
//! Shipped policies:
//!
//! * [`LinuxPolicy`] — the faithful Linux model: global RT runqueue
//!   (`SCHED_FIFO`/`SCHED_RR`) over per-core CFS with wakeup preemption,
//!   idle stealing, and balance-tick migration (the pre-refactor machine,
//!   bit-for-bit);
//! * [`SrtfPolicy`] — the offline oracle: preemptive shortest-remaining-
//!   CPU-time-first (bit-for-bit the pre-refactor SRTF mode);
//! * [`EevdfPolicy`] — eligible-virtual-deadline-first, mainline CFS's
//!   successor: per-core fair queues picked by earliest virtual deadline
//!   among eligible tasks;
//! * [`DeadlinePolicy`] — a deadline class with CBS-style runtime/period
//!   reservations, admission control, and deadline postponement;
//! * [`SrpPolicy`] — a preemption-ceiling (SRP-flavored) discipline: the
//!   normal band runs to block under a system ceiling, higher bands
//!   preempt immediately.
//!
//! The two ports of the pre-refactor machine, [`LinuxPolicy`] and
//! [`SrtfPolicy`], are pinned bit for bit by `tests/kpolicy_diff.rs`:
//! digests of randomized timelines, recorded while that machine still ran
//! beside them (`tests/golden/kpolicy_timelines.txt`).
//!
//! Hook contract (who calls what, when) is documented on [`KernelPolicy`];
//! decisions flow back to the machine as [`Placed`] values so a hook never
//! re-enters the event loop.

pub mod cfs;
pub mod deadline;
pub mod eevdf;
pub mod linux;
pub mod rt;
pub mod srp;
pub mod srtf;

pub use deadline::DeadlinePolicy;
pub use eevdf::EevdfPolicy;
pub use linux::LinuxPolicy;
pub use srp::SrpPolicy;
pub use srtf::SrtfPolicy;

use sfs_simcore::{SimDuration, SimTime};

use crate::machine::CoreSched;
use crate::policy::cfs::weight_of_nice;
use crate::smp::SmpParams;
use crate::task::{Pid, Policy, Task};
use crate::window::Tickless;

/// Built-in kernel policies selectable by name — the value that travels
/// through [`MachineParams`](crate::MachineParams), `SfsConfig`, CLI flags,
/// and bench matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPolicyKind {
    /// Linux: RT (`SCHED_FIFO`/`SCHED_RR`) over per-core CFS.
    Cfs,
    /// Offline oracle: preemptive shortest-remaining-CPU-time-first.
    Srtf,
    /// Eligible-virtual-deadline-first (mainline CFS's successor).
    Eevdf,
    /// Deadline class: CBS runtime/period reservations with admission.
    Deadline,
    /// Preemption-ceiling (SRP-flavored) static-priority discipline.
    Srp,
}

impl KernelPolicyKind {
    /// Every registered kernel policy, in stable display order.
    pub const ALL: [KernelPolicyKind; 5] = [
        KernelPolicyKind::Cfs,
        KernelPolicyKind::Srtf,
        KernelPolicyKind::Eevdf,
        KernelPolicyKind::Deadline,
        KernelPolicyKind::Srp,
    ];

    /// CLI / config name (`--kpolicy` spelling).
    pub fn name(self) -> &'static str {
        match self {
            KernelPolicyKind::Cfs => "cfs",
            KernelPolicyKind::Srtf => "srtf",
            KernelPolicyKind::Eevdf => "eevdf",
            KernelPolicyKind::Deadline => "dl",
            KernelPolicyKind::Srp => "srp",
        }
    }

    /// Parse a CLI / config spelling (aliases: `linux` → cfs,
    /// `deadline` → dl).
    pub fn parse(s: &str) -> Option<KernelPolicyKind> {
        match s {
            "cfs" | "linux" => Some(KernelPolicyKind::Cfs),
            "srtf" => Some(KernelPolicyKind::Srtf),
            "eevdf" => Some(KernelPolicyKind::Eevdf),
            "dl" | "deadline" => Some(KernelPolicyKind::Deadline),
            "srp" => Some(KernelPolicyKind::Srp),
            _ => None,
        }
    }

    /// Construct the policy value for a machine with `cores` cores.
    pub fn build(self, cores: usize) -> Box<dyn KernelPolicy> {
        match self {
            KernelPolicyKind::Cfs => Box::new(LinuxPolicy::new(cores)),
            KernelPolicyKind::Srtf => Box::new(SrtfPolicy::new()),
            KernelPolicyKind::Eevdf => Box::new(EevdfPolicy::new(cores)),
            KernelPolicyKind::Deadline => Box::new(DeadlinePolicy::new(cores)),
            KernelPolicyKind::Srp => Box::new(SrpPolicy::new()),
        }
    }
}

impl std::fmt::Display for KernelPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A placement decision returned by policy hooks. The machine executes the
/// decision (charging, preempting, rescheduling) so hooks never re-enter
/// the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placed {
    /// The task was queued; nothing else to do.
    Queued,
    /// The task was queued and core `0` is idle: pick-next on it.
    RescheduleIdle(usize),
    /// Preempt the task running on the given core (the machine charges it,
    /// requeues it via [`KernelPolicy::requeue_preempted`], and repicks).
    Preempt(usize),
    /// The given core's runqueue grew: recompute its running task's slice
    /// (the kernel's per-tick `check_preempt_tick`).
    RefreshSlice(usize),
}

/// Why a running task is being requeued — policies that distinguish
/// voluntary-quantum expiry from involuntary preemption (SCHED_RR's
/// head-vs-tail rule) branch on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptKind {
    /// Preempted by another task (or demoted): resumes before its peers.
    Preempted,
    /// Its own timeslice expired: goes behind its peers.
    SliceExpired,
}

/// Capability object handed to every policy hook: the slice of machine
/// state a kernel policy is allowed to see and touch.
///
/// | capability | methods |
/// |---|---|
/// | clocks | [`now`](Self::now) |
/// | topology | [`nr_cores`](Self::nr_cores), [`current`](Self::current) |
/// | tunables | [`smp_params`](Self::smp_params) |
/// | task state | [`policy_of`](Self::policy_of), [`remaining_cpu`](Self::remaining_cpu), [`has_run`](Self::has_run) |
/// | vruntime | [`vruntime`](Self::vruntime), [`set_vruntime`](Self::set_vruntime), [`weight_of`](Self::weight_of), [`running_vruntime`](Self::running_vruntime) |
/// | placement | [`home_core`](Self::home_core), [`set_home_core`](Self::set_home_core), [`note_migration`](Self::note_migration), [`add_migration_cost`](Self::add_migration_cost) |
/// | in-flight run | [`inflight`](Self::inflight) |
pub struct KernelCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) smp: &'a SmpParams,
    pub(crate) tasks: &'a mut Vec<Task>,
    pub(crate) cores: &'a mut [CoreSched],
    pub(crate) tickless: &'a mut Tickless,
}

impl KernelCtx<'_> {
    fn task(&self, pid: Pid) -> &Task {
        &self.tasks[pid.0 as usize]
    }

    fn task_mut(&mut self, pid: Pid) -> &mut Task {
        &mut self.tasks[pid.0 as usize]
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of cores on the machine.
    pub fn nr_cores(&self) -> usize {
        self.cores.len()
    }

    /// The task currently running on `core`, if any.
    pub fn current(&self, core: usize) -> Option<Pid> {
        self.cores[core].current
    }

    /// SMP tunables (balance interval, migration/affinity costs).
    pub fn smp_params(&self) -> &SmpParams {
        self.smp
    }

    /// The task's scheduling policy class.
    pub fn policy_of(&self, pid: Pid) -> Policy {
        self.task(pid).policy
    }

    /// CFS weight of the task (nice-derived; RT tasks weigh as nice 0).
    pub fn weight_of(&self, pid: Pid) -> u32 {
        match self.task(pid).policy {
            Policy::Normal { nice } => weight_of_nice(nice),
            // RT tasks do not participate in CFS weight accounting; the
            // value is only used if one is (incorrectly) queued on CFS.
            _ => weight_of_nice(0),
        }
    }

    /// The task's virtual runtime (CFS vruntime / EEVDF eligible time).
    pub fn vruntime(&self, pid: Pid) -> u64 {
        self.task(pid).vruntime
    }

    /// Overwrite the task's virtual runtime (placement normalisation).
    pub fn set_vruntime(&mut self, pid: Pid, v: u64) {
        self.task_mut(pid).vruntime = v;
    }

    /// Remaining CPU demand across current and future phases (the SRTF
    /// sort key).
    pub fn remaining_cpu(&self, pid: Pid) -> SimDuration {
        self.task(pid).remaining_cpu()
    }

    /// True once the task has been dispatched at least once.
    pub fn has_run(&self, pid: Pid) -> bool {
        self.task(pid).first_run.is_some()
    }

    /// The core whose runqueue currently owns the task, if placed.
    pub fn home_core(&self, pid: Pid) -> Option<usize> {
        self.task(pid).home_core
    }

    /// The core the task last executed on.
    pub(crate) fn last_core(&self, pid: Pid) -> Option<usize> {
        self.task(pid).last_core
    }

    /// Dispatch latency the task still owes from a balance migration.
    pub(crate) fn pending_migration_cost(&self, pid: Pid) -> SimDuration {
        self.task(pid).pending_migration_cost
    }

    /// Record which core's runqueue owns the task.
    pub fn set_home_core(&mut self, pid: Pid, core: Option<usize>) {
        self.task_mut(pid).home_core = core;
    }

    /// Count one core-to-core migration against the task.
    pub fn note_migration(&mut self, pid: Pid) {
        self.task_mut(pid).migrations += 1;
    }

    /// Deposit a one-shot dispatch-latency penalty (consumed at the task's
    /// next dispatch) — the balance-migration cost channel.
    pub fn add_migration_cost(&mut self, pid: Pid, cost: SimDuration) {
        self.task_mut(pid).pending_migration_cost += cost;
    }

    /// Wall time the task running on `core` has consumed since its last
    /// accounting boundary (zero while the dispatch cost is still being
    /// paid).
    pub fn inflight(&self, core: usize) -> SimDuration {
        let c = &self.cores[core];
        if self.now > c.run_start {
            self.now - c.run_start
        } else {
            SimDuration::ZERO
        }
    }

    /// vruntime of the task running on `core` including its in-flight
    /// (uncharged) run — the wakeup-preemption comparison value.
    pub fn running_vruntime(&self, core: usize, pid: Pid) -> u64 {
        let inflight = self.inflight(core);
        let extra = if inflight.is_zero() {
            0
        } else {
            cfs::vruntime_delta(inflight, self.weight_of(pid))
        };
        self.task(pid).vruntime + extra
    }
}

/// A kernel scheduling discipline plugged into the [`crate::Machine`].
///
/// The machine calls hooks at these points (and only these):
///
/// * a task becomes runnable (spawn, wakeup, policy-change requeue) →
///   [`enqueue`](Self::enqueue); the returned [`Placed`] decision is
///   executed by the machine;
/// * a queued task must leave its queue (policy change) →
///   [`dequeue`](Self::dequeue);
/// * a core needs work → [`pick_next`](Self::pick_next); the policy
///   removes and returns the chosen task (stealing across queues is the
///   policy's own business);
/// * a running task is preempted or expires →
///   [`requeue_preempted`](Self::requeue_preempted);
/// * a task is dispatched or its slice renewed →
///   [`slice_for`](Self::slice_for) decides the quantum;
/// * a core's runqueue grew under its running task →
///   [`refresh_slice`](Self::refresh_slice);
/// * CPU time is charged → [`task_tick`](Self::task_tick) (vruntime /
///   budget accounting);
/// * a task dies → [`on_task_exit`](Self::on_task_exit) (reservation
///   reclamation);
/// * the periodic balance tick fires → [`balance`](Self::balance), if
///   [`participates_in_balance`](Self::participates_in_balance);
/// * an eager slice-expiry boundary leaves a core running a fair task →
///   [`rotation`](Self::rotation), and once the machine settles turns of
///   a rotation → [`rotation_settled`](Self::rotation_settled).
///
/// Determinism contract: every decision must be a pure function of the
/// policy's own state plus what [`KernelCtx`] exposes, with ties broken on
/// core index / pid — no randomness, no host state.
pub trait KernelPolicy: std::fmt::Debug + Send {
    /// Stable display name (lower-case, CLI spelling).
    fn name(&self) -> &'static str;

    /// A task became runnable: queue it and decide what the machine should
    /// do about the cores.
    fn enqueue(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid) -> Placed;

    /// Remove a queued (Runnable, not Running) task from its queue.
    fn dequeue(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid);

    /// Pick (and remove from its queue) the next task for an idle `core`,
    /// or `None` to leave it idle.
    fn pick_next(&mut self, ctx: &mut KernelCtx<'_>, core: usize) -> Option<Pid>;

    /// Requeue a task that was just preempted (or expired) on `core`.
    fn requeue_preempted(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        core: usize,
        pid: Pid,
        why: PreemptKind,
    );

    /// The timeslice to grant `pid` dispatched on `core` (also the renewal
    /// slice when it keeps the core uncontested). Return
    /// [`SimDuration::MAX`] for unsliced (run-to-block) disciplines.
    fn slice_for(&mut self, ctx: &mut KernelCtx<'_>, core: usize, pid: Pid) -> SimDuration;

    /// `core`'s queue membership changed under its running task: the new
    /// slice to apply from `slice_start`, or `None` to leave the current
    /// slice untouched.
    fn refresh_slice(
        &mut self,
        _ctx: &mut KernelCtx<'_>,
        _core: usize,
        _pid: Pid,
    ) -> Option<SimDuration> {
        None
    }

    /// `pid` on `core` was charged `ran` of wall-clock CPU: update
    /// vruntime / budget accounting.
    fn task_tick(&mut self, ctx: &mut KernelCtx<'_>, core: usize, pid: Pid, ran: SimDuration);

    /// `pid` exited (its state is already Dead): release any reservation.
    fn on_task_exit(&mut self, _ctx: &mut KernelCtx<'_>, _pid: Pid) {}

    /// Would anything else run on `core` if its current task were paused?
    /// Gates slice-expiry preemption (no competition → renew in place).
    fn has_competition(&self, ctx: &KernelCtx<'_>, core: usize) -> bool;

    /// Is any task waiting anywhere? Gates involuntary-context-switch
    /// accounting on preemption.
    fn has_waiters(&self, ctx: &KernelCtx<'_>) -> bool;

    /// True if [`crate::Machine::set_policy`] is a pure bookkeeping change
    /// under this discipline (the oracle ignores policy classes).
    fn policy_change_inert(&self) -> bool {
        false
    }

    /// Does changing a *running* task from `old` to `new` force it off its
    /// core (Linux's RT → CFS demotion)?
    fn demotes_on_change(&self, _old: Policy, _new: Policy) -> bool {
        false
    }

    /// Whether the periodic SMP balance tick should consult this policy.
    fn participates_in_balance(&self) -> bool {
        false
    }

    /// One balance-tick step: migrate at most one task between queues and
    /// return the decision for the destination core, or `None` if the load
    /// is already balanced.
    fn balance(&mut self, _ctx: &mut KernelCtx<'_>) -> Option<Placed> {
        None
    }

    /// Queued (runnable, not running) fair-class tasks on `core`'s local
    /// runqueue — the `/proc/schedstat` per-CPU depth.
    fn queue_depth(&self, core: usize) -> usize;

    /// Queued tasks in the machine-global priority band (RT queue, SRP
    /// stack, ...), if the policy has one.
    fn rt_depth(&self) -> usize {
        0
    }

    /// In how many distinct queue slots does `pid` currently appear?
    /// Conservation audits require exactly 1 for queued Runnable tasks and
    /// 0 otherwise.
    fn queued_places(&self, pid: Pid) -> usize;

    /// Right after an eager slice-expiry boundary on `core`: describe its
    /// runqueue as a fixed rotation, if it is one, so the machine can cross
    /// the coming boundaries in closed form. On `Some`, `cycle` holds the
    /// running task, then the queued tasks that rotate with it in the order
    /// they will run, and each of the rotation's next turns must repeat
    /// this boundary's outcome: turn `i` runs `cycle[i mod n]` for the
    /// rotation's slice, then the same task is requeued behind the others
    /// (with `n = 1`, renewed or repicked). Queued tasks outside `cycle`
    /// must stay queued meanwhile.
    /// Until the machine settles the turns ([`rotation_settled`](
    /// Self::rotation_settled)), the policy's view of `core`'s queue may
    /// lag by whole turns; only depths and the running task's class may be
    /// read from it. A policy that describes rotations also reports, from
    /// every hook that changes a queue, whether a lone task's
    /// renew-or-repick choice may have flipped, through crate-internal
    /// bookkeeping on [`KernelCtx`]. So only this crate builds a
    /// [`Rotation`]: its fields are crate-private, and a policy from
    /// outside can only decline, as the default does.
    fn rotation(
        &mut self,
        _ctx: &KernelCtx<'_>,
        _core: usize,
        _cycle: &mut Vec<Pid>,
    ) -> Option<Rotation> {
        None
    }

    /// The machine settled whole turns of `core`'s rotation into task and
    /// core state (vruntimes, [`KernelCtx::current`]): bring the policy's
    /// view of `core`'s queue in line. Only called after a
    /// [`rotation`](Self::rotation) returned `Some` for `core`.
    fn rotation_settled(&mut self, _ctx: &mut KernelCtx<'_>, _core: usize) {}
}

/// A core's fair runqueue as a fixed rotation (see
/// [`KernelPolicy::rotation`]). Only this crate can build one: the
/// machine's windows rely on bookkeeping an outside policy cannot do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rotation {
    /// The slice every turn runs.
    pub(crate) slice: SimDuration,
    /// vruntime one turn adds to the task that runs it.
    pub(crate) vruntime_delta: u64,
    /// Whether each boundary counts an involuntary context switch against
    /// the task it stops (a lone task that is preempted and repicked).
    pub(crate) switches: bool,
    /// Turns, the running one included, the rotation keeps before another
    /// queued task's turn comes up (`u64::MAX` if none ever does).
    pub(crate) turns: u64,
}

/// Shared RT-band enqueue used by every policy that layers the Linux
/// `SCHED_FIFO`/`SCHED_RR` band above its fair class: push, then prefer an
/// idle core, then preempt a fair-class core, then the lowest-priority RT
/// core if strictly beaten. Bit-for-bit the pre-refactor `enqueue_rt`.
pub(crate) fn rt_band_enqueue(
    rt: &mut rt::RtRunqueue,
    ctx: &KernelCtx<'_>,
    pid: Pid,
    prio: u8,
    resumed: bool,
) -> Placed {
    if resumed {
        rt.push_front(pid, prio);
    } else {
        rt.push_back(pid, prio);
    }
    // 1. Idle core grabs it.
    if let Some(idle) = (0..ctx.nr_cores()).find(|&i| ctx.current(i).is_none()) {
        return Placed::RescheduleIdle(idle);
    }
    // 2. Preempt a core running the fair class (RT always beats it).
    let fair_victim = (0..ctx.nr_cores()).find(|&i| {
        let vpid = ctx.current(i).expect("no idle cores");
        !ctx.policy_of(vpid).is_realtime()
    });
    if let Some(vc) = fair_victim {
        return Placed::Preempt(vc);
    }
    // 3. Preempt the lowest-priority RT core if strictly lower.
    let (vc, vprio) = (0..ctx.nr_cores())
        .map(|i| {
            let vpid = ctx.current(i).expect("no idle cores");
            (i, ctx.policy_of(vpid).rt_prio().unwrap_or(0))
        })
        .min_by_key(|&(_, p)| p)
        .expect("at least one core");
    if rt.would_preempt(vprio) {
        return Placed::Preempt(vc);
    }
    Placed::Queued
}
