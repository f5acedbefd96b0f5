//! The simulated multicore machine.
//!
//! An event-driven engine that schedules tasks (see [`crate::TaskSpec`]) over `c` cores under
//! a pluggable kernel discipline ([`crate::policy::KernelPolicy`]): the
//! faithful Linux model (global RT runqueue over per-core CFS runqueues
//! with idle pull-balancing), an SRTF oracle, EEVDF, a CBS deadline class,
//! or a preemption-ceiling policy. External controllers (the SFS
//! scheduler, bench harnesses) drive it through four operations, mirroring
//! what a user-space scheduler can actually do on Linux:
//!
//! * [`Machine::spawn`] — dispatch a function process (FaaS server → OS),
//! * [`Machine::set_policy`] — `schedtool`: switch a live process between
//!   `SCHED_FIFO` and `SCHED_NORMAL` (how SFS implements FILTER, §VI),
//! * [`Machine::proc_state`] / [`Machine::cpu_time`] — `/proc` polling
//!   (how SFS detects I/O blocking, §V-D),
//! * [`Machine::advance_to`] — advance virtual time, collecting
//!   notifications (task blocked / woke / finished) the controller reacts to;
//!   [`Machine::advance_until_notified`] stops at the first instant that
//!   raises one, so a driver can cross silent instants in one call.
//!
//! The split of responsibilities: the machine owns time, cores, task
//! lifecycle, accounting, and event delivery; *which task runs where, for
//! how long* is the policy's. Hooks return [`Placed`] decisions the
//! machine executes, so a policy never re-enters the event loop.
//!
//! Determinism: all ties break on event insertion order ([`sfs_simcore::EventQueue`])
//! and core index, so identical inputs give bit-identical schedules.

use sfs_simcore::{EventQueue, SimDuration, SimTime};

use crate::policy::{KernelCtx, KernelPolicy, KernelPolicyKind, Placed, PreemptKind};
use crate::smp::SmpParams;
use crate::task::{FinishedTask, Phase, Pid, Policy, ProcState, Task, TaskSpec};
use crate::trace::{ScheduleTrace, Segment};
use crate::window::{now_key, Key, Tickless, Window, MAX_TURNS};

/// Upper bound on the consolidation inflation factor
/// ([`MachineParams::contention_beta`]).
const CONTENTION_CAP: f64 = 6.0;

/// Machine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct MachineParams {
    /// Number of CPU cores.
    pub cores: usize,
    /// Direct + indirect cost charged on every dispatch of a *different*
    /// task than the core last ran (register/TLB/cache disturbance). The
    /// paper's short-function amplification partly comes from this cost
    /// recurring on every CFS slice boundary.
    pub ctx_switch_cost: SimDuration,
    /// Consolidation-contention coefficient (0 disables). The paper's
    /// premise is that deep consolidation inflates execution duration
    /// beyond pure queueing (§I: cache/CPU/memory contention). When more
    /// CPU tasks are live-runnable than cores, every running task's service
    /// rate is inflated by `1 + beta × log2(active / cores)` — hundreds of
    /// co-live containers thrash caches and memory bandwidth, so a deep
    /// backlog drains at far below nominal throughput. Schedulers that
    /// bound effective concurrency (SFS's FILTER) avoid the inflation.
    /// The factor is capped at 6.
    pub contention_beta: f64,
    /// Kernel scheduling discipline (built at machine construction).
    pub kpolicy: KernelPolicyKind,
    /// SMP behaviour: periodic load balancing, migration penalty, and
    /// cache-affinity cost. The all-zero default disables every mechanism,
    /// making the machine bit-exact with the pre-SMP model.
    pub smp: SmpParams,
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams {
            cores: 4,
            ctx_switch_cost: SimDuration::from_micros(5),
            contention_beta: 0.0,
            kpolicy: KernelPolicyKind::Cfs,
            smp: SmpParams::default(),
        }
    }
}

impl MachineParams {
    /// Linux-model machine (RT over per-core CFS) with `cores` cores and
    /// default tunables.
    pub fn linux(cores: usize) -> Self {
        MachineParams {
            cores,
            kpolicy: KernelPolicyKind::Cfs,
            ..Default::default()
        }
    }

    /// The same machine with the given SMP behaviour knobs.
    pub fn with_smp(mut self, smp: SmpParams) -> Self {
        self.smp = smp;
        self
    }

    /// The same machine under the given kernel policy.
    pub fn with_kpolicy(mut self, kpolicy: KernelPolicyKind) -> Self {
        self.kpolicy = kpolicy;
        self
    }
}

/// Events the machine reports back to its controller.
#[derive(Debug, Clone)]
pub enum Notification {
    /// Task got a CPU for the first time.
    FirstRun(Pid, SimTime),
    /// Task entered an I/O wait (kernel state → sleeping).
    Blocked(Pid, SimTime),
    /// Task finished its I/O wait (kernel state → runnable).
    Woke(Pid, SimTime),
    /// Task completed; full accounting attached. The only way a completion
    /// leaves the machine, which keeps no log of finished tasks.
    Finished(Box<FinishedTask>),
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The running task on `core` reaches its slice or phase boundary.
    /// Ignored if the core's generation has moved on.
    CoreFire { core: usize, gen: u64 },
    /// I/O completion for a sleeping task.
    Wake { pid: Pid, io: SimDuration },
    /// Periodic SMP load-balance tick (only scheduled when
    /// [`SmpParams::balance_interval`] is non-zero and the kernel policy
    /// participates in balancing).
    Balance,
}

/// Per-core dispatch state: what runs, since when, until when. Runqueues
/// live in the kernel policy; this is the machine-owned remainder a
/// [`KernelCtx`] exposes to hooks.
#[derive(Debug, Clone)]
pub(crate) struct CoreSched {
    pub(crate) current: Option<Pid>,
    /// Invalidates in-flight CoreFire events when the assignment changes.
    pub(crate) gen: u64,
    /// Task the core last executed (context-switch cost bookkeeping).
    pub(crate) last_ran: Option<Pid>,
    /// When the current task started consuming CPU (after switch cost).
    /// Reset at every accounting boundary (`charge`).
    pub(crate) run_start: SimTime,
    /// When the current slice began (dispatch or slice renewal) — the base
    /// for recomputing `slice_end` when runqueue membership changes.
    pub(crate) slice_start: SimTime,
    pub(crate) slice_end: SimTime,
    /// Core-local clock: the latest instant this core's accounting
    /// advanced (dispatch or charge). Monotone per core; lags the machine
    /// clock while the core idles.
    pub(crate) clock: SimTime,
}

impl CoreSched {
    pub(crate) fn new() -> CoreSched {
        CoreSched {
            current: None,
            gen: 0,
            last_ran: None,
            run_start: SimTime::ZERO,
            slice_start: SimTime::ZERO,
            slice_end: SimTime::MAX,
            clock: SimTime::ZERO,
        }
    }
}

/// The simulated machine. See module docs.
#[derive(Debug)]
pub struct Machine {
    params: MachineParams,
    now: SimTime,
    tasks: Vec<Task>,
    cores: Vec<CoreSched>,
    /// The pluggable kernel discipline (owns every runqueue).
    kpolicy: Box<dyn KernelPolicy>,
    events: EventQueue<Ev>,
    out: Vec<Notification>,
    total_ctx_switches: u64,
    /// Tasks migrated by the periodic balance tick (a subset of the
    /// per-task `migrations` total, which also counts wakeup placement
    /// moves and idle steals).
    balance_migrations: u64,
    /// Whether a [`Ev::Balance`] event is currently pending.
    balance_armed: bool,
    live_tasks: usize,
    /// Runnable + running CPU tasks (excludes sleepers and the dead);
    /// drives the consolidation-contention inflation.
    active_tasks: usize,
    /// Optional execution trace (who ran where, when).
    trace: Option<ScheduleTrace>,
    /// Per-core windows of slice boundaries crossed in closed form (see
    /// [`crate::window`]). Opened only while contention and tracing are
    /// off: both observe every boundary.
    tickless: Tickless,
}

impl Machine {
    /// A machine at t = 0 with the given parameters; the kernel policy is
    /// built from [`MachineParams::kpolicy`].
    pub fn new(params: MachineParams) -> Machine {
        assert!(params.cores >= 1, "machine needs at least one core");
        Machine {
            cores: (0..params.cores).map(|_| CoreSched::new()).collect(),
            params,
            now: SimTime::ZERO,
            tasks: Vec::new(),
            kpolicy: params.kpolicy.build(params.cores),
            events: EventQueue::new(),
            out: Vec::new(),
            total_ctx_switches: 0,
            balance_migrations: 0,
            balance_armed: false,
            live_tasks: 0,
            active_tasks: 0,
            trace: None,
            tickless: Tickless::new(params.cores),
        }
    }

    /// Split borrow: the policy value and the capability context it runs
    /// against (disjoint fields of `self`).
    fn policy_ctx(&mut self) -> (&mut dyn KernelPolicy, KernelCtx<'_>) {
        let Machine {
            kpolicy,
            tasks,
            cores,
            params,
            now,
            tickless,
            ..
        } = self;
        (
            kpolicy.as_mut(),
            KernelCtx {
                now: *now,
                smp: &params.smp,
                tasks,
                cores: cores.as_mut_slice(),
                tickless,
            },
        )
    }

    /// Execute a policy placement decision.
    fn apply_placed(&mut self, placed: Placed) {
        match placed {
            Placed::Queued => {}
            Placed::RescheduleIdle(core_id) => self.reschedule(core_id),
            Placed::Preempt(core_id) => {
                self.close_window(core_id);
                self.charge(core_id);
                self.preempt_current(core_id, PreemptKind::Preempted);
                self.reschedule(core_id);
            }
            Placed::RefreshSlice(core_id) => {
                self.close_window(core_id);
                self.refresh_current_slice(core_id);
            }
        }
    }

    /// Length of the internal task table (total tasks spawned since the
    /// last [`Machine::compact`]). Streaming drivers watch this to decide
    /// when compacting is worthwhile.
    pub fn task_table_len(&self) -> usize {
        self.tasks.len()
    }

    /// Reclaim per-task memory at a quiescent point. Requires
    /// `live_tasks() == 0`; panics otherwise.
    ///
    /// Drops the task table (keeping its allocation) and restarts pid
    /// numbering from 0, so a long streaming run's memory is bounded by its
    /// peak *concurrency*, not its total request count. This is behaviour-
    /// transparent: with no live task there is no pending `Wake`
    /// (sleepers are live), `CoreFire` carries `(core, gen)` rather than a
    /// pid, per-pid tie-breaks only ever compare co-live tasks (whose
    /// relative order a fresh numbering preserves), and clearing each
    /// core's `last_ran` reproduces the always-charge-context-cost outcome
    /// that distinct pids would produce anyway. Skipped while tracing
    /// (trace segments refer to pids).
    pub fn compact(&mut self) {
        assert_eq!(self.live_tasks, 0, "compact() requires a quiescent machine");
        if self.trace.is_some() {
            return;
        }
        self.tasks.clear();
        for c in &mut self.cores {
            c.last_ran = None;
        }
    }

    /// Enable execution-trace recording (who ran where, when, under which
    /// policy). Cheap: one record per accounting boundary.
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            // A trace records every boundary: none may stay skipped.
            self.close_windows();
            self.trace = Some(ScheduleTrace::new());
        }
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&ScheduleTrace> {
        self.trace.as_ref()
    }

    /// Current consolidation inflation factor (≥ 1).
    pub fn contention_factor(&self) -> f64 {
        if self.params.contention_beta <= 0.0 || self.active_tasks <= self.params.cores {
            return 1.0;
        }
        let ratio = self.active_tasks as f64 / self.params.cores as f64;
        (1.0 + self.params.contention_beta * ratio.log2()).min(CONTENTION_CAP)
    }

    /// Transition a task's kernel state, maintaining the active count.
    fn set_state(&mut self, pid: Pid, new: ProcState) {
        let old = self.task(pid).state;
        let was_active = matches!(old, ProcState::Runnable | ProcState::Running);
        let is_active = matches!(new, ProcState::Runnable | ProcState::Running);
        if was_active && !is_active {
            self.active_tasks -= 1;
        } else if !was_active && is_active {
            self.active_tasks += 1;
        }
        self.task_mut(pid).state = new;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.params.cores
    }

    /// Tasks spawned but not yet finished.
    pub fn live_tasks(&self) -> usize {
        self.live_tasks
    }

    /// Machine-wide involuntary context-switch count.
    pub fn total_ctx_switches(&self) -> u64 {
        let open: u64 = (self.tickless.open.iter().copied())
            .map(|c| &self.tickless.windows[c])
            .map(|w| w.switches_in(w.turns_at(self.now)))
            .sum();
        self.total_ctx_switches + self.tickless.switches + open
    }

    // ------------------------------------------------------------------
    // Per-core (SMP) read-only queries
    // ------------------------------------------------------------------

    /// Queued (runnable, not running) fair-class tasks on `core`'s local
    /// runqueue — the per-CPU depth `/proc/schedstat` exposes. Tasks in a
    /// machine-global band (RT queue, SRTF pool, ...) are not counted here.
    pub fn core_depth(&self, core: usize) -> usize {
        self.kpolicy.queue_depth(core)
    }

    /// The task currently running on `core`, if any.
    pub fn running_on(&self, core: usize) -> Option<Pid> {
        if self.tickless.is_open(core) {
            let w = &self.tickless.windows[core];
            return Some(w.current_at(w.turns_at(self.now)));
        }
        self.cores[core].current
    }

    /// `core`'s local clock: the latest instant its accounting advanced
    /// (a dispatch or a charge). Monotone per core; lags [`Machine::now`]
    /// while the core idles.
    pub fn core_clock(&self, core: usize) -> SimTime {
        let clock = self.cores[core].clock;
        if !self.tickless.is_open(core) {
            return clock;
        }
        let w = &self.tickless.windows[core];
        match w.turns_at(self.now) {
            0 => clock,
            k => clock.max(w.run_start(k)),
        }
    }

    /// Tasks migrated by the periodic balance tick so far (a subset of the
    /// per-task migration totals, which also count wakeup placement moves
    /// and idle steals).
    pub fn balance_migrations(&self) -> u64 {
        self.balance_migrations
    }

    /// Walk every task and runqueue and panic on any conservation
    /// violation: each live task must be in exactly one place (running on
    /// one core, queued on exactly one runqueue, or sleeping), and dead
    /// tasks must be nowhere. Diagnostic hook for the SMP property suite;
    /// O(tasks × cores), so not for hot loops.
    pub fn assert_conservation(&self) {
        for i in 0..self.cores.len() {
            if let Some(pid) = self.running_on(i) {
                assert_eq!(
                    self.proc_state(pid),
                    ProcState::Running,
                    "core {i} runs {pid} but its state disagrees"
                );
                assert_eq!(
                    self.task(pid).home_core,
                    Some(i),
                    "core {i} runs {pid} but its home core disagrees"
                );
            }
        }
        for t in &self.tasks {
            let mut queued = self.kpolicy.queued_places(t.pid);
            if self.window_of(t.pid).is_some() {
                // The policy's queue lags the window by whole turns: it
                // holds every task of the rotation but the one running at
                // its last settle.
                let home = t.home_core.expect("a window's task has a home");
                queued += usize::from(self.cores[home].current == Some(t.pid));
                queued -= usize::from(self.running_on(home) == Some(t.pid));
            }
            let running = (0..self.cores.len())
                .filter(|&i| self.running_on(i) == Some(t.pid))
                .count();
            let places = queued + running;
            match self.proc_state(t.pid) {
                ProcState::Running => assert_eq!(
                    (running, places),
                    (1, 1),
                    "{}: running task on {running} cores, {places} places",
                    t.pid
                ),
                ProcState::Runnable => assert_eq!(
                    (running, places),
                    (0, 1),
                    "{}: runnable task queued in {places} places",
                    t.pid
                ),
                ProcState::Sleeping | ProcState::Dead => assert_eq!(
                    places, 0,
                    "{}: off-runqueue task found in {places} places",
                    t.pid
                ),
            }
        }
    }

    // ------------------------------------------------------------------
    // Controller-facing operations
    // ------------------------------------------------------------------

    /// Spawn a task at the current time; it becomes runnable immediately.
    pub fn spawn(&mut self, spec: TaskSpec) -> Pid {
        spec.validate().expect("invalid task spec");
        let pid = Pid(self.tasks.len() as u64);
        let task = Task::new(pid, spec, self.now);
        let leading_io = task.phase();
        self.live_tasks += 1;
        // First live task (re-)arms the periodic balance tick; it re-arms
        // itself until the machine quiesces, so `run_until_quiescent`
        // still terminates.
        if self.params.smp.balancing()
            && self.kpolicy.participates_in_balance()
            && !self.balance_armed
        {
            self.balance_armed = true;
            self.push(self.now + self.params.smp.balance_interval, Ev::Balance);
        }
        self.active_tasks += 1; // Task::new starts Runnable
        self.tasks.push(task);
        // A task whose first phase is I/O sleeps immediately (it was started
        // and instantly blocked); schedule its wake.
        if let Some(Phase::Io(d)) = leading_io {
            self.set_state(pid, ProcState::Sleeping);
            self.push(self.now + d, Ev::Wake { pid, io: d });
        } else {
            self.make_runnable(pid);
        }
        self.recheck_windows();
        pid
    }

    /// `schedtool`: change a live task's scheduling policy. No-op on dead
    /// tasks. Under policies that ignore the class field (the SRTF oracle)
    /// only the bookkeeping is updated.
    pub fn set_policy(&mut self, pid: Pid, policy: Policy) {
        if self.task(pid).state == ProcState::Dead || self.task(pid).policy == policy {
            self.task_mut(pid).policy = policy;
            return;
        }
        if self.kpolicy.policy_change_inert() {
            self.task_mut(pid).policy = policy;
            return;
        }
        if let Some(core) = self.window_core(pid) {
            self.close_window(core);
        }
        match self.task(pid).state {
            ProcState::Sleeping => {
                self.task_mut(pid).policy = policy;
            }
            ProcState::Runnable => {
                self.dequeue_runnable(pid);
                self.task_mut(pid).policy = policy;
                self.make_runnable(pid);
            }
            ProcState::Running => {
                let core_id = self
                    .core_running(pid)
                    .expect("running task must occupy a core");
                self.charge(core_id);
                let old = self.task(pid).policy;
                self.task_mut(pid).policy = policy;
                if self.kpolicy.demotes_on_change(old, policy) {
                    // Demotion (Linux's RT → CFS, SFS FILTER expiry):
                    // deliberate preemption; the task is requeued and the
                    // core repicks (possibly the same task if nothing
                    // waits).
                    self.preempt_current(core_id, PreemptKind::Preempted);
                    self.reschedule(core_id);
                } else {
                    // Promotion or same-class change: keep the core,
                    // recompute the slice from now.
                    self.cores[core_id].slice_start = self.now;
                    let (kp, mut ctx) = self.policy_ctx();
                    let dur = kp.slice_for(&mut ctx, core_id, pid);
                    self.cores[core_id].slice_end = self.now.saturating_add(dur);
                    self.cores[core_id].gen += 1;
                    self.arm_core_event(core_id);
                }
            }
            ProcState::Dead => unreachable!(),
        }
        self.recheck_windows();
    }

    /// `/proc/<pid>/stat`-style state poll.
    pub fn proc_state(&self, pid: Pid) -> ProcState {
        match self.window_of(pid) {
            Some((w, _)) if w.current_at(w.turns_at(self.now)) == pid => ProcState::Running,
            Some(_) => ProcState::Runnable,
            None => self.task(pid).state,
        }
    }

    /// `/proc/<pid>/stat` utime: CPU time consumed so far, charged up to the
    /// last accounting boundary plus the in-flight run (as a real kernel
    /// exposes via clock-tick accounting).
    pub fn cpu_time(&self, pid: Pid) -> SimDuration {
        let t = self.task(pid);
        if let Some((w, j)) = self.window_of(pid) {
            let k = w.turns_at(self.now);
            let mut total = t.cpu_time + w.slice * w.turns_of(j, k);
            if w.current_at(k) == pid {
                let home = t.home_core.expect("a window's task has a home");
                let start = match k {
                    0 => self.cores[home].run_start,
                    _ => w.run_start(k),
                };
                total += self.now.since(start);
            }
            return total;
        }
        let mut total = t.cpu_time;
        if t.state == ProcState::Running {
            if let Some(core_id) = self.core_running(pid) {
                let c = &self.cores[core_id];
                if self.now > c.run_start {
                    total += self.now - c.run_start;
                }
            }
        }
        total
    }

    /// Earliest pending internal event, if any. A tickless core's skipped
    /// slice boundaries are not events: only its window's end is queued.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Advance virtual time to `t`, processing all internal events due at or
    /// before `t`, and return the notifications generated along the way
    /// (the vector allocates only if something notified). A loop over
    /// [`Machine::advance_until_notified`], so both share its delivery
    /// contract: every event due at or before `t` is processed within this
    /// call, including events a handler schedules for exactly `t` while the
    /// span is being processed (e.g. an I/O block at `t - d` scheduling its
    /// wake at `t`). `tests/machine_scenarios.rs` pins this with end-of-span
    /// regression cases. Like that call, it panics if `t` is before
    /// [`Machine::now`].
    pub fn advance_to(&mut self, t: SimTime) -> Vec<Notification> {
        let mut out = Vec::new();
        while self.advance_until_notified(t, &mut out) < t {}
        // The contract above, enforced: nothing due within the span may
        // survive it.
        debug_assert!(
            self.events.peek_time().map_or(true, |next| next > t),
            "advance_to deferred a due event past its span"
        );
        out
    }

    /// Advance virtual time toward `t`, stopping at the first instant whose
    /// events raise a notification. Every event due at that instant is
    /// processed, including follow-ups its handlers schedule for the same
    /// instant; the notifications are appended to `out` and the instant is
    /// returned. With no notification by `t`, the clock moves to `t` and
    /// `t` is returned. Notifications raised outside an advance (the
    /// `FirstRun` of a [`Machine::spawn`] or [`Machine::set_policy`]
    /// dispatch) lead the batch this call returns, each carrying the
    /// instant it was raised at.
    ///
    /// This is what lets a driver step only where a controller has
    /// something to see: the machine crosses any run of instants that
    /// notify nobody (slice preemptions, slice renewals, stale core
    /// timers, balance ticks) in one call. The slice boundaries of a
    /// tickless core's window are not instants at all: no event marks
    /// them, and the core's state at `t` is settled in closed form when
    /// something reads or writes it.
    ///
    /// The loop re-polls the queue after every handler instead of
    /// batch-popping an instant's events: handlers legitimately schedule
    /// same-instant follow-ups (wakes, slice renewals), and a batch pop
    /// would defer them to the next call, which controllers observe as a
    /// late notification.
    ///
    /// # Panics
    /// Panics in every build if `t` is before [`Machine::now`]: the clock
    /// never runs backwards.
    pub fn advance_until_notified(&mut self, t: SimTime, out: &mut Vec<Notification>) -> SimTime {
        assert!(
            t >= self.now,
            "time must not go backwards: asked to advance to {t} ({} ns) at {} ({} ns)",
            t.as_nanos(),
            self.now,
            self.now.as_nanos()
        );
        out.append(&mut self.out);
        while let Some(instant) = self.events.peek_time().filter(|&at| at <= t) {
            while let Some((at, ev)) = self.events.pop_until(instant) {
                self.now = at;
                debug_assert!(
                    (self.tickless.open.iter().copied())
                        .all(|c| self.tickless.windows[c].skipped_index(at).is_none()),
                    "an event at {at} shares its instant with a skipped boundary"
                );
                self.handle(ev);
                self.recheck_windows();
            }
            if !self.out.is_empty() {
                out.append(&mut self.out);
                return instant;
            }
        }
        self.now = t;
        t
    }

    /// Drain all pending events (run to quiescence), returning every
    /// notification, those raised before the call first.
    pub fn run_until_quiescent(&mut self) -> Vec<Notification> {
        let mut out = std::mem::take(&mut self.out);
        while let Some(t) = self.events.peek_time() {
            self.advance_until_notified(t, &mut out);
        }
        out
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn task(&self, pid: Pid) -> &Task {
        &self.tasks[pid.0 as usize]
    }

    fn task_mut(&mut self, pid: Pid) -> &mut Task {
        &mut self.tasks[pid.0 as usize]
    }

    fn core_running(&self, pid: Pid) -> Option<usize> {
        self.task(pid)
            .home_core
            .filter(|&c| self.cores[c].current == Some(pid))
    }

    /// Queue `ev` at `at`, pushed by a handler or the driver at `now`.
    fn push(&mut self, at: SimTime, ev: Ev) {
        self.push_keyed(at, ev, now_key(self.now));
    }

    /// Queue `ev` at `at` where the eager machine would have pushed it
    /// with `key`, keeping the windows' invariant: no skipped boundary
    /// shares an instant with a queued event. A skipped boundary at `at`
    /// becomes its window's end, a real event on the side of `ev` its key
    /// puts it; an end event at `at` that must follow `ev` goes stale and
    /// is queued again after it.
    fn push_keyed(&mut self, at: SimTime, ev: Ev, key: Key) {
        if !self.tickless.meets(at) {
            self.events.push(at, ev);
            return;
        }
        let tl = &mut self.tickless;
        let mut moved = std::mem::take(&mut tl.moved);
        for j in 0..tl.open.len() {
            let c = tl.open[j];
            let w = &tl.windows[c];
            if at == w.end {
                let end_key = w.key_of(w.skipped);
                if end_key > key {
                    self.cores[c].gen += 1;
                    moved.push((end_key, c));
                }
            } else if let Some(i) = w.skipped_index(at) {
                // No event is queued at a skipped instant, so every end
                // queued here now is one of these.
                moved.push((w.key_of(i - 1), c));
                tl.end_at(c, i, at);
                self.cores[c].gen += 1;
            }
        }
        if moved.is_empty() {
            self.events.push(at, ev);
        } else {
            moved.sort_unstable();
            let split = moved.partition_point(|&(k, _)| k < key);
            let end = |c: usize| Ev::CoreFire {
                core: c,
                gen: self.cores[c].gen,
            };
            for &(_, c) in &moved[..split] {
                self.events.push(at, end(c));
            }
            self.events.push(at, ev);
            for &(_, c) in &moved[split..] {
                self.events.push(at, end(c));
            }
            moved.clear();
        }
        self.tickless.moved = moved;
    }

    /// The core whose open window holds `pid`'s queue: a queued or running
    /// fair task's home core.
    fn window_core(&self, pid: Pid) -> Option<usize> {
        if self.tickless.open.is_empty() {
            return None;
        }
        let t = self.task(pid);
        if t.policy.is_realtime() || !matches!(t.state, ProcState::Runnable | ProcState::Running) {
            return None;
        }
        t.home_core.filter(|&c| self.tickless.is_open(c))
    }

    /// The open window `pid` rotates in and its index in the cycle (a
    /// parked task waits in the queue and does not rotate).
    fn window_of(&self, pid: Pid) -> Option<(&Window, usize)> {
        let w = &self.tickless.windows[self.window_core(pid)?];
        Some((w, w.cycle.iter().position(|&p| p == pid)?))
    }

    /// Settle `core`'s window, if open, and close it: the writes that
    /// follow see the eager machine's state, and the core's next boundary
    /// is a real event again.
    fn close_window(&mut self, core: usize) {
        if self.tickless.is_open(core) {
            self.settle(core);
            self.flush_rearms();
        }
    }

    /// Close every open window, re-arming their cores in key order.
    fn close_windows(&mut self) {
        while let Some(&c) = self.tickless.open.first() {
            self.settle(c);
        }
        self.flush_rearms();
    }

    /// Settle and close `core`'s open window, leaving its re-arm queued.
    fn settle(&mut self, core: usize) {
        let (kp, mut ctx) = self.policy_ctx();
        if ctx.settle_window(core) {
            kp.rotation_settled(&mut ctx, core);
        }
    }

    /// Queue the next boundary of every core whose window a policy hook
    /// just closed, in key order.
    fn flush_rearms(&mut self) {
        if self.tickless.rearm.is_empty() {
            return;
        }
        let mut rearm = std::mem::take(&mut self.tickless.rearm);
        rearm.sort_unstable();
        for &(key, core) in &rearm {
            let (at, gen) = self.next_fire(core);
            self.push_keyed(at, Ev::CoreFire { core, gen }, key);
        }
        rearm.clear();
        self.tickless.rearm = rearm;
    }

    /// Bring open windows in line with what the operation just finished
    /// changed outside their cores. A waiting RT task would be picked at
    /// the next boundary of any of them: close them all. A lone task
    /// renews or is repicked depending on
    /// [`KernelPolicy::has_competition`], which other cores' queue lengths
    /// decide; the two differ only in the context switch each boundary
    /// counts, so its window stays open and counts the switches of its
    /// later boundaries by the new choice. The policy flags when either
    /// may have changed (`Tickless::recheck`), so most operations skip the
    /// check.
    fn recheck_windows(&mut self) {
        if !self.tickless.recheck || self.tickless.open.is_empty() {
            return;
        }
        self.tickless.recheck = false;
        let (kp, ctx) = self.policy_ctx();
        if kp.rt_depth() > 0 {
            self.close_windows();
            return;
        }
        // Every lone core's queue is empty, so the predicate is the same
        // for all of them.
        let tl = &*ctx.tickless;
        if tl.lone == [0, 0] {
            return;
        }
        let lone = tl.open.iter().find(|&&c| tl.windows[c].lone);
        let competition = kp.has_competition(&ctx, *lone.expect("a lone window is open"));
        if self.tickless.lone[usize::from(!competition)] > 0 {
            self.tickless.set_lone_switches(self.now, competition);
        }
    }

    /// After an eager slice-expiry boundary on `core`, with its next turn
    /// already dispatched or renewed: if the policy describes the queue as
    /// a fixed rotation, open a window that queues one `CoreFire` at its
    /// end instead of one per boundary. False when no boundary can be
    /// skipped; the caller then arms the next boundary eagerly. Contention
    /// and tracing observe every boundary, so neither allows a window.
    fn open_window(&mut self, core: usize) -> bool {
        if self.params.contention_beta > 0.0 || self.trace.is_some() {
            return false;
        }
        let mut cycle = std::mem::take(&mut self.tickless.windows[core].cycle);
        cycle.clear();
        let rotation = {
            let (kp, ctx) = self.policy_ctx();
            kp.rotation(&ctx, core, &mut cycle)
        };
        let plan = rotation.and_then(|r| self.plan_window(core, &cycle, r.slice, r.turns));
        let w = &mut self.tickless.windows[core];
        w.cycle = cycle;
        let (Some(r), Some((lead, skipped, end))) = (rotation, plan) else {
            return false;
        };
        w.start = self.now;
        w.period = r.slice + lead;
        w.slice = r.slice;
        w.lead = lead;
        w.vruntime_delta = r.vruntime_delta;
        w.switches = r.switches;
        (w.switched, w.mark) = (0, 0);
        w.lone = w.cycle.len() == 1 && self.kpolicy.queue_depth(core) == 0;
        w.skipped = skipped;
        w.end = end;
        w.order = self.tickless.next_order;
        self.tickless.next_order += 1;
        let key = w.key_of(skipped);
        let gen = self.cores[core].gen;
        self.push_keyed(end, Ev::CoreFire { core, gen }, key);
        self.tickless.list(core);
        true
    }

    /// The shape of a window over `cycle` opening now on `core`: the lead
    /// (switch cost) before each turn, the boundaries it skips, and its
    /// end instant. `None` if it would skip none.
    fn plan_window(
        &self,
        core: usize,
        cycle: &[Pid],
        slice: SimDuration,
        turns: u64,
    ) -> Option<(SimDuration, u64, SimTime)> {
        let n = cycle.len() as u64;
        let lead = match n {
            1 => SimDuration::ZERO,
            _ => self.params.ctx_switch_cost,
        };
        let period = (slice + lead).as_nanos();
        let c = &self.cores[core];
        // Every turn, the one just dispatched included, must start `lead`
        // after its boundary and run the whole slice.
        if slice.is_zero() || c.run_start != self.now + lead || c.slice_end != c.run_start + slice {
            return None;
        }
        let s = slice.as_nanos();
        let rem = |j: usize| self.task(cycle[j]).phase_rem.as_nanos();
        // The first turn in which a task's phase ends.
        let phase_turn = (0..cycle.len())
            .map(|j| j as u64 + n * (rem(j).saturating_sub(1) / s))
            .min()?;
        // Boundary `turns` hands the core to a parked task: it stays real.
        let mut skipped = phase_turn.min(MAX_TURNS).min(turns - 1);
        // Stop before the first boundary that shares an instant with a
        // queued event.
        for at in self.events.instants() {
            let d = at.since(self.now).as_nanos();
            if d > 0 && d <= skipped * period && d % period == 0 {
                skipped = d / period - 1;
            }
        }
        if skipped == 0 {
            return None;
        }
        let boundary = |i: u64| self.now + SimDuration(period * i);
        if skipped == phase_turn {
            let j = (phase_turn % n) as usize;
            let end = boundary(phase_turn) + lead + SimDuration(rem(j) - (phase_turn / n) * s);
            if end > boundary(skipped) {
                return Some((lead, skipped, end));
            }
            // A task preempted exactly at its phase end, dispatched without
            // a switch cost: its phase ends on the boundary itself, which
            // must then be real.
            skipped -= 1;
        }
        (skipped > 0).then(|| (lead, skipped, boundary(skipped + 1)))
    }

    /// Charge the running task on `core` for CPU consumed up to `self.now`.
    fn charge(&mut self, core_id: usize) {
        debug_assert!(
            !self.tickless.windows[core_id].open,
            "charge inside a window"
        );
        let Some(pid) = self.cores[core_id].current else {
            return;
        };
        let run_start = self.cores[core_id].run_start;
        if self.now <= run_start {
            return;
        }
        let ran = self.now - run_start;
        self.cores[core_id].run_start = self.now;
        self.cores[core_id].clock = self.cores[core_id].clock.max(self.now);
        if let Some(trace) = self.trace.as_mut() {
            trace.record(Segment {
                pid,
                core: core_id,
                start: run_start,
                end: self.now,
                policy: self.tasks[pid.0 as usize].policy,
            });
        }
        // Under consolidation contention, wall time on the core advances the
        // task's work more slowly (cache/memory interference); utime still
        // ticks at wall rate, exactly like a thrashing real process.
        let progress = ran.mul_f64(1.0 / self.contention_factor());
        let t = self.task_mut(pid);
        t.cpu_time += ran;
        t.phase_rem = t.phase_rem.saturating_sub(progress);
        // Policy-side accounting (vruntime, deadline budgets, ...).
        let (kp, mut ctx) = self.policy_ctx();
        kp.task_tick(&mut ctx, core_id, pid, ran);
    }

    /// Make a runnable task eligible for dispatch, with preemption checks.
    fn make_runnable(&mut self, pid: Pid) {
        self.set_state(pid, ProcState::Runnable);
        let (kp, mut ctx) = self.policy_ctx();
        let placed = kp.enqueue(&mut ctx, pid);
        self.flush_rearms();
        self.apply_placed(placed);
    }

    /// Remove a Runnable (queued) task from whatever structure holds it.
    fn dequeue_runnable(&mut self, pid: Pid) {
        debug_assert_eq!(self.task(pid).state, ProcState::Runnable);
        let (kp, mut ctx) = self.policy_ctx();
        kp.dequeue(&mut ctx, pid);
        self.flush_rearms();
    }

    /// Recompute the running task's slice after its core's runqueue
    /// membership changed, if the policy slices it; preempt immediately if
    /// the new slice is already exhausted.
    fn refresh_current_slice(&mut self, core_id: usize) {
        let Some(pid) = self.cores[core_id].current else {
            return;
        };
        let (kp, mut ctx) = self.policy_ctx();
        let Some(slice) = kp.refresh_slice(&mut ctx, core_id, pid) else {
            return;
        };
        let new_end = self.cores[core_id].slice_start.saturating_add(slice);
        self.cores[core_id].slice_end = new_end;
        self.cores[core_id].gen += 1;
        if new_end <= self.now {
            self.charge(core_id);
            if self.task(pid).phase_rem.is_zero() {
                self.phase_complete(core_id, pid);
            } else {
                self.slice_expired(core_id, pid);
            }
        } else {
            self.arm_core_event(core_id);
        }
    }

    /// Stop the current task on `core` (already charged) and put it back on
    /// its runqueue as Runnable. Counts an involuntary context switch if
    /// some other task is waiting to use a core.
    fn preempt_current(&mut self, core_id: usize, why: PreemptKind) {
        let Some(pid) = self.cores[core_id].current.take() else {
            return;
        };
        self.cores[core_id].gen += 1;
        self.set_state(pid, ProcState::Runnable);
        let others_waiting = {
            let (kp, ctx) = self.policy_ctx();
            kp.has_waiters(&ctx)
        };
        if others_waiting {
            self.task_mut(pid).ctx_switches += 1;
            self.total_ctx_switches += 1;
        }
        let (kp, mut ctx) = self.policy_ctx();
        kp.requeue_preempted(&mut ctx, core_id, pid, why);
    }

    /// Pick and dispatch the next task for an empty core, and arm its
    /// boundary event.
    fn reschedule(&mut self, core_id: usize) {
        if self.pick_and_dispatch(core_id) {
            self.arm_core_event(core_id);
        }
    }

    /// Pick and dispatch the next task for an empty core; false if it
    /// stays idle.
    fn pick_and_dispatch(&mut self, core_id: usize) -> bool {
        debug_assert!(self.cores[core_id].current.is_none());
        let next = {
            let (kp, mut ctx) = self.policy_ctx();
            kp.pick_next(&mut ctx, core_id)
        };
        self.flush_rearms();
        match next {
            Some(pid) => {
                self.dispatch(core_id, pid);
                true
            }
            None => {
                self.cores[core_id].gen += 1; // invalidate stale fires
                false
            }
        }
    }

    /// Put `pid` on `core` (the caller arms its boundary event).
    fn dispatch(&mut self, core_id: usize, pid: Pid) {
        debug_assert_eq!(self.task(pid).state, ProcState::Runnable);
        debug_assert!(
            matches!(self.task(pid).phase(), Some(Phase::Cpu(_))),
            "dispatched task must be in a CPU phase"
        );
        let mut cost = if self.cores[core_id].last_ran == Some(pid) {
            SimDuration::ZERO
        } else {
            self.params.ctx_switch_cost
        };
        // Cache-affinity: resuming on a different core than the task last
        // executed on costs a cold-cache refill on top of the switch.
        if !self.params.smp.affinity_cost.is_zero()
            && self.task(pid).last_core.is_some_and(|c| c != core_id)
        {
            cost += self.params.smp.affinity_cost;
        }
        // One-shot penalty deposited by the balance tick when it force-
        // migrated this task.
        cost += std::mem::take(&mut self.task_mut(pid).pending_migration_cost);
        let start = self.now + cost;
        {
            let c = &mut self.cores[core_id];
            c.current = Some(pid);
            c.last_ran = Some(pid);
            c.gen += 1;
            c.run_start = start;
            c.slice_start = start;
            // `max`: a dispatch pre-pays its switch cost (`start` is in the
            // future); if it is preempted before then and the core turns
            // over at a cheaper cost, the earlier start must not rewind
            // the core clock.
            c.clock = c.clock.max(start);
        }
        self.set_state(pid, ProcState::Running);
        self.task_mut(pid).home_core = Some(core_id);
        self.task_mut(pid).last_core = Some(core_id);
        if self.task(pid).first_run.is_none() {
            self.task_mut(pid).first_run = Some(self.now);
            self.out.push(Notification::FirstRun(pid, self.now));
        }
        // Slice: the policy decides the quantum; `SimDuration::MAX`
        // saturates to an unsliced (run-to-block) assignment.
        let dur = {
            let (kp, mut ctx) = self.policy_ctx();
            kp.slice_for(&mut ctx, core_id, pid)
        };
        self.cores[core_id].slice_end = start.saturating_add(dur);
    }

    /// (Re-)arm the boundary event for the core's current assignment. The
    /// phase boundary is projected with the *current* contention factor;
    /// if contention changes before it fires, the fire handler re-charges
    /// and re-arms, converging on the true boundary.
    fn arm_core_event(&mut self, core_id: usize) {
        if self.cores[core_id].current.is_some() {
            let (at, gen) = self.next_fire(core_id);
            self.push(at, Ev::CoreFire { core: core_id, gen });
        }
    }

    /// When the running task on `core` next reaches a slice or phase
    /// boundary, and the core's generation to arm it with.
    fn next_fire(&self, core_id: usize) -> (SimTime, u64) {
        let c = &self.cores[core_id];
        let pid = c.current.expect("a running core");
        let f = self.contention_factor();
        let phase_end = c.run_start + self.task(pid).phase_rem.mul_f64(f);
        (phase_end.min(c.slice_end), c.gen)
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::CoreFire { core, gen } => {
                if self.cores[core].gen != gen || self.cores[core].current.is_none() {
                    return; // stale
                }
                // A window's end: settle the boundaries it skipped first.
                self.close_window(core);
                self.charge(core);
                let pid = self.cores[core].current.expect("checked above");
                if self.task(pid).phase_rem.is_zero() {
                    self.phase_complete(core, pid);
                } else {
                    self.slice_expired(core, pid);
                }
            }
            Ev::Wake { pid, io } => self.wake(pid, io),
            Ev::Balance => self.balance_tick(),
        }
    }

    /// Periodic load balance: ask the policy to migrate (at most) one task
    /// between its queues when their depths diverge past the threshold
    /// (the kernel's conservative `load_balance` envelope: one pull per
    /// tick, never across a trivial imbalance). The migrated task is
    /// charged [`SmpParams::migration_cost`] at its next dispatch.
    fn balance_tick(&mut self) {
        self.balance_armed = false;
        if self.live_tasks > 0 {
            self.balance_armed = true;
            self.push(self.now + self.params.smp.balance_interval, Ev::Balance);
        }
        if !self.kpolicy.participates_in_balance() {
            return;
        }
        let placed = {
            let (kp, mut ctx) = self.policy_ctx();
            kp.balance(&mut ctx)
        };
        self.flush_rearms();
        let Some(placed) = placed else {
            return;
        };
        self.balance_migrations += 1;
        self.apply_placed(placed);
    }

    /// The running task finished its current CPU phase.
    fn phase_complete(&mut self, core_id: usize, pid: Pid) {
        let next_idx = self.task(pid).phase_idx + 1;
        self.task_mut(pid).phase_idx = next_idx;
        match self.task(pid).phases.get(next_idx).copied() {
            None => {
                self.cores[core_id].current = None;
                self.cores[core_id].gen += 1;
                self.exit(pid);
                self.reschedule(core_id);
            }
            Some(Phase::Io(d)) => {
                // Voluntary block: off-CPU, schedule the wake.
                self.cores[core_id].current = None;
                self.cores[core_id].gen += 1;
                self.set_state(pid, ProcState::Sleeping);
                self.task_mut(pid).phase_rem = d;
                self.out.push(Notification::Blocked(pid, self.now));
                self.push(self.now + d, Ev::Wake { pid, io: d });
                self.reschedule(core_id);
            }
            Some(Phase::Cpu(d)) => {
                // Back-to-back CPU phases: continue running seamlessly.
                self.task_mut(pid).phase_rem = d;
                self.cores[core_id].gen += 1;
                self.arm_core_event(core_id);
            }
        }
    }

    /// The running task exhausted its slice.
    fn slice_expired(&mut self, core_id: usize, pid: Pid) {
        // Unsliced assignments (FIFO, the SRTF oracle, ...) can only get
        // here via a stale phase-end projection (contention rose after
        // arming): re-arm with the current factor instead of preempting.
        if self.cores[core_id].slice_end == SimTime::MAX {
            self.cores[core_id].gen += 1;
            self.arm_core_event(core_id);
            return;
        }
        let has_competition = {
            let (kp, ctx) = self.policy_ctx();
            kp.has_competition(&ctx, core_id)
        };
        if !has_competition {
            // Nothing else would run; extend the slice in place without a
            // context switch (the kernel's check_preempt_tick finds no
            // competitor).
            let renew = {
                let (kp, mut ctx) = self.policy_ctx();
                kp.slice_for(&mut ctx, core_id, pid)
            };
            self.cores[core_id].slice_start = self.now;
            self.cores[core_id].slice_end = self.now.saturating_add(renew);
            self.cores[core_id].gen += 1;
        } else {
            self.preempt_current(core_id, PreemptKind::SliceExpired);
            if !self.pick_and_dispatch(core_id) {
                return;
            }
        }
        if !self.open_window(core_id) {
            self.arm_core_event(core_id);
        }
    }

    /// `pid` finished its last phase and is off every core: it dies, its
    /// completion record goes out as the one [`Notification::Finished`] it
    /// gets, and the policy forgets it.
    fn exit(&mut self, pid: Pid) {
        self.set_state(pid, ProcState::Dead);
        self.task_mut(pid).home_core = None;
        self.live_tasks -= 1;
        let rec = self.task(pid).finished_record(self.now);
        self.out.push(Notification::Finished(Box::new(rec)));
        let (kp, mut ctx) = self.policy_ctx();
        kp.on_task_exit(&mut ctx, pid);
    }

    /// I/O completed: account sleep time and requeue.
    fn wake(&mut self, pid: Pid, io: SimDuration) {
        debug_assert_eq!(self.task(pid).state, ProcState::Sleeping);
        self.task_mut(pid).io_time += io;
        let next_idx = self.task(pid).phase_idx + 1;
        self.task_mut(pid).phase_idx = next_idx;
        match self.task(pid).phases.get(next_idx).copied() {
            // Task ended with an I/O phase.
            None => self.exit(pid),
            Some(Phase::Cpu(d)) => {
                self.task_mut(pid).phase_rem = d;
                self.out.push(Notification::Woke(pid, self.now));
                self.make_runnable(pid);
            }
            Some(Phase::Io(d)) => {
                // Back-to-back I/O phases: keep sleeping.
                self.task_mut(pid).phase_rem = d;
                self.push(self.now + d, Ev::Wake { pid, io: d });
            }
        }
    }
}

#[cfg(test)]
#[path = "../tests/support/rotation.rs"]
mod rotation;

#[cfg(test)]
mod tests {
    use super::rotation::{rotation_ops, Op};
    use super::*;

    /// On 24 cores, the rotation timelines `tests/kpolicy_diff.rs` runs
    /// windowed and eager keep enough windows open at once that the
    /// machine looks boundaries up through its index.
    #[test]
    fn many_open_windows_use_the_index() {
        for seed in [3, 11, 58, 2_022, 0x5F5] {
            let mut m = Machine::new(MachineParams {
                cores: 24,
                ..Default::default()
            });
            let (mut pids, mut indexed) = (Vec::new(), 0);
            for (t, op) in rotation_ops(seed, 240) {
                m.advance_to(t);
                indexed += usize::from(m.tickless.indexed());
                match op {
                    Op::Spawn(spec) => pids.push(m.spawn(spec)),
                    Op::SetPolicy(i, p) => m.set_policy(pids[i], p),
                }
            }
            assert!(indexed > 0, "seed {seed}: the index was never in use");
        }
    }

    /// The rotation timelines `tests/kpolicy_diff.rs` diffs against the
    /// machine's own eager path (tracing on) really run in windows: on
    /// every machine shape and seed it uses, windows open and settle
    /// skipped turns, so that suite cannot pass by never leaving the eager
    /// path; and with tracing on none opens, so its oracle never leaves it.
    #[test]
    fn windows_open_on_rotation_timelines() {
        let ms = SimDuration::from_millis;
        let balanced = SmpParams::balanced(ms(4), SimDuration::from_micros(500), ms(1));
        let shapes = [1, 2, 4]
            .map(|cores| (cores, SmpParams::default()))
            .into_iter()
            .chain([2, 4].map(|cores| (cores, balanced)));
        for (cores, smp) in shapes {
            for cost in [SimDuration::ZERO, ms(1), SimDuration::from_micros(5)] {
                for seed in [3, 11, 58, 2_022, 0x5F5] {
                    let params = MachineParams {
                        cores,
                        ctx_switch_cost: cost,
                        ..Default::default()
                    };
                    let run = |traced: bool| {
                        let mut m = Machine::new(params.with_smp(smp));
                        if traced {
                            m.enable_tracing();
                        }
                        let mut pids = Vec::new();
                        for (t, op) in rotation_ops(seed, 48) {
                            m.advance_to(t);
                            match op {
                                Op::Spawn(spec) => pids.push(m.spawn(spec)),
                                Op::SetPolicy(i, p) => m.set_policy(pids[i], p),
                            }
                        }
                        m.run_until_quiescent();
                        m
                    };
                    let m = run(false);
                    let ctx = format!("cores={cores} cost={cost} seed={seed} smp={smp:?}");
                    let skipped = m.tickless.switches;
                    assert!(m.tickless.next_order > 0, "no window opened ({ctx})");
                    assert!(
                        skipped * 4 > m.total_ctx_switches(),
                        "windows settled only {skipped} of {} switches ({ctx})",
                        m.total_ctx_switches()
                    );
                    // Tracing declines every window; one seed per shape
                    // shows it, an eager run costing many more events.
                    if seed == 3 {
                        let traced = run(true).tickless.next_order;
                        assert_eq!(traced, 0, "traced window ({ctx})");
                    }
                }
            }
        }
    }
}
