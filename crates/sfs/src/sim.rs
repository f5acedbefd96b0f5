//! The policy-driven simulation API: [`Controller`] + [`Sim`].
//!
//! The paper's core idea is a *user-space* scheduling policy driving the
//! kernel through a narrow interface. This module makes that idea the
//! experiment-facing API: a [`Controller`] is any value that reacts to
//! machine notifications using only the operations a real user-space
//! scheduler has (`schedtool`-style policy switches and `/proc` polling,
//! exposed via [`MachineView`]), and a [`Sim`] drives one controller over
//! one [`Workload`] on one [`sfs_sched::Machine`]:
//!
//! ```
//! use sfs_core::{Sim, SfsConfig, SfsController};
//! use sfs_sched::MachineParams;
//! use sfs_workload::WorkloadSpec;
//!
//! let w = WorkloadSpec::azure_sampled(200, 1).with_load(4, 0.8).generate();
//! let run = Sim::on(MachineParams::linux(4))
//!     .workload(&w)
//!     .controller(SfsController::new(SfsConfig::new(4)))
//!     .run();
//! assert_eq!(run.outcomes.len(), 200);
//! ```
//!
//! Every comparator is a controller: the paper's SFS
//! ([`crate::SfsController`]), the pure-kernel baselines
//! ([`crate::KernelOnly`]), the IDEAL bound ([`crate::Ideal`]), and any
//! new policy an experiment wants to try — see [`crate::policies`] for
//! two examples the old one-simulator-per-policy design made impractical.
//!
//! # Event ordering contract
//!
//! A run is a sequence of *steps*, one at each instant where a hook has
//! something to see: a machine notification, a workload arrival, or a
//! controller wakeup ([`Controller::next_wakeup`]). Within a step the
//! machine advances first (its notifications are delivered via
//! [`Controller::on_notification`]), then due workload arrivals are spawned
//! in stable `(arrival, index)` order, then [`Controller::on_wakeup`] runs.
//! This is the order of the original `SfsSimulator` loop's merged event
//! queue, where all arrival events were inserted at construction and
//! therefore always popped before same-instant controller timers. Machine
//! instants that notify nobody (CFS slice preemptions and renewals, stale
//! core timers, balance ticks) are crossed inside one advance
//! ([`sfs_sched::Machine::advance_until_notified`]) without a step: a step
//! there would deliver no notification, spawn nothing and find no reported
//! timer due. The slice boundaries of a tickless CFS core (one whose fair
//! queue only rotates) are not instants at all: no event marks them, and
//! the machine settles the core in closed form when a hook reads or writes
//! it. Same-instant ties between machine events keep the order of the
//! machine that handled every boundary as an event.

use std::borrow::Borrow;
use std::iter::Peekable;

use sfs_sched::{
    FinishedTask, Machine, MachineParams, Notification, Pid, Policy, ProcState, ScheduleTrace,
};
use sfs_simcore::{SimDuration, SimTime, TimeSeries};
use sfs_workload::{Request, Workload};

use crate::stats::RequestOutcome;

/// The machine operations a user-space scheduling policy may perform,
/// mirroring what the real SFS implementation has via `schedtool` and
/// `gopsutil` (§V-A challenge 2). Controllers never see
/// [`sfs_sched::Machine::advance_to`] or `spawn` — time and dispatch belong
/// to the [`Sim`] driver, exactly as they belong to the kernel and the FaaS
/// server in the real system.
#[derive(Debug)]
pub struct MachineView<'a> {
    machine: &'a mut Machine,
    sched_actions: &'a mut u64,
}

impl<'a> MachineView<'a> {
    /// A view over `machine` that counts policy switches into
    /// `sched_actions`. [`Sim::run`] builds these internally; the public
    /// constructor exists for harnesses and benchmarks that drive a
    /// [`Controller`] hook-by-hook against a hand-built machine (e.g. the
    /// `perf_suite` dispatch microbenchmark).
    pub fn new(machine: &'a mut Machine, sched_actions: &'a mut u64) -> MachineView<'a> {
        MachineView {
            machine,
            sched_actions,
        }
    }
}

impl MachineView<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.machine.now()
    }

    /// Number of CPU cores on the machine.
    pub fn cores(&self) -> usize {
        self.machine.cores()
    }

    /// `schedtool`: switch a live process between scheduling policies.
    /// Every call is counted as one scheduling action in
    /// [`RunOutcome::sched_actions`] (the Table II overhead model).
    pub fn set_policy(&mut self, pid: Pid, policy: Policy) {
        self.machine.set_policy(pid, policy);
        *self.sched_actions += 1;
    }

    /// `/proc/<pid>/stat`-style state poll.
    pub fn proc_state(&self, pid: Pid) -> ProcState {
        self.machine.proc_state(pid)
    }

    /// `/proc/<pid>/stat` utime: CPU time consumed so far.
    pub fn cpu_time(&self, pid: Pid) -> SimDuration {
        self.machine.cpu_time(pid)
    }

    /// The task's current policy (as `sched_getscheduler` would report).
    pub fn policy_of(&self, pid: Pid) -> Policy {
        self.machine.policy_of(pid)
    }

    /// Queued (runnable, not running) CFS depth of one core's runqueue, as
    /// `/proc/schedstat` exposes per CPU. Read-only: a user-space scheduler
    /// may observe per-core load but never place tasks directly.
    pub fn core_depth(&self, core: usize) -> usize {
        self.machine.core_depth(core)
    }

    /// The core `pid` last executed on (the `processor` field of
    /// `/proc/<pid>/stat`), or `None` before its first dispatch.
    pub fn last_ran_core(&self, pid: Pid) -> Option<usize> {
        self.machine.last_ran_core(pid)
    }
}

/// A user-space scheduling policy reacting to machine notifications.
///
/// Implementations hold whatever bookkeeping they need (queues, windows,
/// per-process history) and act on the machine exclusively through the
/// [`MachineView`] handed to each hook. All hooks have no-op defaults; the
/// trivial controller `struct Null; impl Controller for Null {}` runs every
/// request under the policy its spec was generated with.
///
/// Timing contract: any wakeup time returned by
/// [`next_wakeup`](Controller::next_wakeup) must be strictly in the future
/// once [`on_wakeup`](Controller::on_wakeup) returns, otherwise the
/// simulation cannot make progress. The sim steps only at notifications,
/// arrivals and reported wakeups, so `m.now()` can jump past any timer a
/// controller leaves out of `next_wakeup`: leave out only timers that
/// cannot act, and settle them at the next hook (as
/// [`crate::SfsController`] does with poll ticks that have nothing to
/// poll).
pub trait Controller {
    /// Short display name ("sfs", "cfs", ...), used in labels.
    fn name(&self) -> &'static str {
        "controller"
    }

    /// Scheduling policy the process is dispatched (spawned) under. The
    /// default keeps the workload spec's policy. This models the FaaS
    /// server's dispatch step, which a deployment controls (e.g. the
    /// baselines run everything under one kernel policy).
    fn dispatch_policy(&mut self, req: &Request) -> Policy {
        req.spec.policy
    }

    /// A request was dispatched to the OS as `pid` (step 1 of the paper's
    /// flow: the backend pushes `(pid, T_inv)` to the scheduler).
    fn on_arrival(&mut self, m: &mut MachineView<'_>, req: &Request, pid: Pid) {
        let _ = (m, req, pid);
    }

    /// A machine notification (first run / blocked / woke / finished).
    fn on_notification(&mut self, m: &mut MachineView<'_>, note: &Notification) {
        let _ = (m, note);
    }

    /// Earliest controller timer that must fire at its own instant (poll
    /// tick, slice expiry, ...), if any. The sim runs the machine until its
    /// first notifying instant, at the latest until the earlier of the next
    /// arrival and this, and steps there.
    fn next_wakeup(&self) -> Option<SimTime> {
        None
    }

    /// Called once per simulation step, after notifications and arrivals,
    /// so also at instants where no timer is due; the controller should
    /// fire every timer due at `m.now()`.
    fn on_wakeup(&mut self, m: &mut MachineView<'_>) {
        let _ = m;
    }

    /// Merge controller-specific per-request fields (queue delay, demotion
    /// flags, ...) into a finished request's outcome record. The driver
    /// calls this right after [`on_notification`](Controller::on_notification)
    /// delivers the same request's `Finished`, before any other hook, so a
    /// controller may find the request by the pid that notification named.
    fn annotate(&mut self, outcome: &mut RequestOutcome) {
        let _ = outcome;
    }

    /// Deposit run-level counters and timelines after the last completion.
    fn finish(&mut self, telemetry: &mut Telemetry) {
        let _ = telemetry;
    }

    /// Analytic bypass: controllers that model a bound rather than a
    /// schedule (the paper's IDEAL scenario) return the full outcome list
    /// here and no machine is simulated. Returns `None` for real policies.
    fn analytic(&self, workload: &Workload) -> Option<Vec<RequestOutcome>> {
        let _ = workload;
        None
    }
}

impl<C: Controller + ?Sized> Controller for Box<C> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn dispatch_policy(&mut self, req: &Request) -> Policy {
        (**self).dispatch_policy(req)
    }
    fn on_arrival(&mut self, m: &mut MachineView<'_>, req: &Request, pid: Pid) {
        (**self).on_arrival(m, req, pid)
    }
    fn on_notification(&mut self, m: &mut MachineView<'_>, note: &Notification) {
        (**self).on_notification(m, note)
    }
    fn next_wakeup(&self) -> Option<SimTime> {
        (**self).next_wakeup()
    }
    fn on_wakeup(&mut self, m: &mut MachineView<'_>) {
        (**self).on_wakeup(m)
    }
    fn annotate(&mut self, outcome: &mut RequestOutcome) {
        (**self).annotate(outcome)
    }
    fn finish(&mut self, telemetry: &mut Telemetry) {
        (**self).finish(telemetry)
    }
    fn analytic(&self, workload: &Workload) -> Option<Vec<RequestOutcome>> {
        (**self).analytic(workload)
    }
}

/// A recipe producing a fresh [`Controller`] per run. Multi-host harnesses
/// (the `sfs-faas` cluster and platform) build one controller per host from
/// a factory, and sweep engines build one per trial.
pub trait ControllerFactory {
    /// Build a fresh controller instance.
    fn build(&self) -> Box<dyn Controller>;

    /// Display label for figure legends and tables.
    fn label(&self) -> String;

    /// Adjust machine parameters the policy depends on (e.g. the SRTF
    /// oracle switches the machine's scheduling mode). Default: no change.
    fn configure_machine(&self, params: &mut MachineParams) {
        let _ = params;
    }

    /// Convenience: run `workload` under a fresh controller from this
    /// recipe on a default Linux machine with `cores` cores (after
    /// [`configure_machine`](ControllerFactory::configure_machine)) —
    /// the glue every harness would otherwise hand-roll.
    fn run_on(&self, cores: usize, workload: &Workload) -> RunOutcome {
        let mut params = MachineParams::linux(cores);
        self.configure_machine(&mut params);
        Sim::on(params)
            .workload(workload)
            .boxed_controller(self.build())
            .run()
    }
}

/// A [`ControllerFactory`] from a label and a build closure — the glue for
/// policies that ship as plain [`Controller`] values (no config struct of
/// their own) but need to run behind multi-host harnesses or sweeps:
///
/// ```
/// use sfs_core::{Controller, ControllerFactory, FnFactory, UserMlfq};
///
/// let factory = FnFactory::new("user-mlfq", || {
///     Box::new(UserMlfq::default()) as Box<dyn Controller>
/// });
/// assert_eq!(factory.label(), "user-mlfq");
/// let _controller = factory.build();
/// ```
pub struct FnFactory<F> {
    label: String,
    build: F,
}

impl<F: Fn() -> Box<dyn Controller>> FnFactory<F> {
    /// A factory labelled `label` building controllers with `build`.
    pub fn new(label: impl Into<String>, build: F) -> FnFactory<F> {
        FnFactory {
            label: label.into(),
            build,
        }
    }
}

impl<F: Fn() -> Box<dyn Controller>> ControllerFactory for FnFactory<F> {
    fn build(&self) -> Box<dyn Controller> {
        (self.build)()
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

/// Run-level counters and timelines deposited by a controller via
/// [`Controller::finish`]. Fields default to zero/empty for controllers
/// that do not poll, slice, or queue (e.g. the kernel-only baselines).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Number of polling ticks performed.
    pub polls: u64,
    /// Number of per-task status reads across all polling ticks.
    pub polled_tasks: u64,
    /// Requests bypassed to the kernel scheduler (overload / SLO shedding).
    pub offloaded: u64,
    /// Requests demoted on slice expiry.
    pub demoted: u64,
    /// Adaptive slice recalculations.
    pub slice_recalcs: u64,
    /// Timeline of adapted time slices (Fig. 10).
    pub slice_timeline: TimeSeries,
    /// Timeline of window-mean IATs (Fig. 10).
    pub iat_timeline: TimeSeries,
    /// Per-request queue delay, indexed by invocation time (Fig. 12a).
    pub queue_delay_series: TimeSeries,
}

/// Result of one [`Sim`] run: uniform per-request records plus machine- and
/// controller-level accounting, whatever the policy.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-request outcomes, sorted by request id.
    pub outcomes: Vec<RequestOutcome>,
    /// Number of `schedtool`-equivalent policy switches the controller
    /// issued (counted by [`MachineView::set_policy`]).
    pub sched_actions: u64,
    /// Machine-wide involuntary context switches.
    pub machine_ctx_switches: u64,
    /// Total simulated span.
    pub sim_span: SimDuration,
    /// Cores in the simulated machine.
    pub cores: usize,
    /// Execution trace, if requested via [`Sim::tracing`].
    pub schedule_trace: Option<ScheduleTrace>,
    /// Controller-specific counters and timelines.
    pub telemetry: Telemetry,
}

impl RunOutcome {
    /// Mean turnaround in ms.
    pub fn mean_turnaround_ms(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(|o| o.turnaround.as_millis_f64())
            .sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// Fraction of requests with RTE at least `x`.
    pub fn fraction_rte_at_least(&self, x: f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.rte >= x).count() as f64 / self.outcomes.len() as f64
    }

    /// Estimate the controller's user-space CPU overhead as a fraction of
    /// machine capacity (Table II's metric): `poll_cost` per per-task
    /// status read plus `action_cost` per policy switch.
    pub fn overhead_fraction(&self, poll_cost: SimDuration, action_cost: SimDuration) -> f64 {
        let busy = self.telemetry.polled_tasks as f64 * poll_cost.as_nanos() as f64
            + self.sched_actions as f64 * action_cost.as_nanos() as f64;
        let capacity = self.sim_span.as_nanos() as f64 * self.cores as f64;
        if capacity == 0.0 {
            0.0
        } else {
            busy / capacity
        }
    }

    /// Fraction of the modelled overhead attributable to polling.
    pub fn polling_overhead_share(&self, poll_cost: SimDuration, action_cost: SimDuration) -> f64 {
        let poll = self.telemetry.polled_tasks as f64 * poll_cost.as_nanos() as f64;
        let act = self.sched_actions as f64 * action_cost.as_nanos() as f64;
        if poll + act == 0.0 {
            0.0
        } else {
            poll / (poll + act)
        }
    }
}

/// Builder for one simulation run: a machine, a workload, a controller.
///
/// ```
/// use sfs_core::{KernelOnly, Sim};
/// use sfs_sched::{MachineParams, Policy};
/// use sfs_workload::WorkloadSpec;
///
/// let w = WorkloadSpec::azure_sampled(50, 3).with_load(2, 0.5).generate();
/// let run = Sim::on(MachineParams::linux(2))
///     .workload(&w)
///     .controller(KernelOnly(Policy::NORMAL))
///     .run();
/// assert_eq!(run.outcomes.len(), 50);
/// ```
pub struct Sim<'a> {
    params: MachineParams,
    workload: Option<&'a Workload>,
    controller: Option<Box<dyn Controller + 'a>>,
    tracing: bool,
}

impl<'a> Sim<'a> {
    /// Start describing a run on a machine with the given parameters.
    pub fn on(params: MachineParams) -> Sim<'a> {
        Sim {
            params,
            workload: None,
            controller: None,
            tracing: false,
        }
    }

    /// The workload to replay (borrowed; the sim clones per-request specs
    /// only at dispatch time).
    pub fn workload(mut self, w: &'a Workload) -> Sim<'a> {
        self.workload = Some(w);
        self
    }

    /// The scheduling policy driving the machine.
    pub fn controller(mut self, c: impl Controller + 'a) -> Sim<'a> {
        self.controller = Some(Box::new(c));
        self
    }

    /// As [`Sim::controller`] but taking an already-boxed controller (e.g.
    /// from a [`ControllerFactory`]) without double-boxing.
    pub fn boxed_controller(mut self, c: Box<dyn Controller + 'a>) -> Sim<'a> {
        self.controller = Some(c);
        self
    }

    /// Enable execution-trace recording on the machine; the trace is
    /// returned in [`RunOutcome::schedule_trace`].
    pub fn tracing(mut self) -> Sim<'a> {
        self.tracing = true;
        self
    }

    /// Run the workload to completion. The outcomes come back sorted by
    /// request id.
    ///
    /// Requests spawn in `(arrival, index)` order and this run never
    /// compacts the task table, so a request's pid is its position in that
    /// order. Each outcome is written into that slot as its request
    /// finishes, and the id sort then finds the slots already in id order
    /// whenever ids ascend with arrivals, as in a generated workload or a
    /// fleet host's sub-workload.
    ///
    /// # Panics
    /// Panics if no workload or no controller was set, or if the
    /// controller violates the wakeup timing contract and the simulation
    /// stalls.
    pub fn run(mut self) -> RunOutcome {
        let workload = self
            .workload
            .expect("Sim: no workload set (call .workload(&w))");
        let mut controller = self
            .controller
            .take()
            .expect("Sim: no controller set (call .controller(...))");

        if let Some(mut outcomes) = controller.analytic(workload) {
            outcomes.sort_by_key(|o| o.id);
            let end = outcomes
                .iter()
                .map(|o| o.finished)
                .max()
                .unwrap_or(SimTime::ZERO);
            let mut telemetry = Telemetry::default();
            controller.finish(&mut telemetry);
            return RunOutcome {
                outcomes,
                sched_actions: 0,
                machine_ctx_switches: 0,
                sim_span: end - SimTime::ZERO,
                cores: self.params.cores,
                schedule_trace: None,
                telemetry,
            };
        }

        let mut machine = self.machine();
        let mut slots: Vec<Option<RequestOutcome>> = vec![None; workload.len()];
        let arrivals = workload
            .arrival_order()
            .into_iter()
            .map(|i| &workload.requests[i]);
        let res = drive(
            &mut machine,
            &mut *controller,
            arrivals,
            |pid, o| slots[pid.0 as usize] = Some(o),
            None,
        );

        let mut outcomes: Vec<RequestOutcome> = (slots.into_iter())
            .map(|o| o.expect("every spawned request finishes"))
            .collect();
        outcomes.sort_by_key(|o| o.id);
        let mut telemetry = Telemetry::default();
        controller.finish(&mut telemetry);
        RunOutcome {
            outcomes,
            sched_actions: res.sched_actions,
            machine_ctx_switches: machine.total_ctx_switches(),
            sim_span: machine.now() - SimTime::ZERO,
            cores: machine.cores(),
            schedule_trace: machine.trace().cloned(),
            telemetry,
        }
    }

    /// Run an *arrival stream* to completion without materialising the
    /// workload or the outcome list: each [`Request`] is pulled from
    /// `arrivals` only when the simulation reaches its arrival time, and
    /// each [`RequestOutcome`] is handed to `sink` (in completion order,
    /// not id order) the moment its request finishes. Peak memory is
    /// O(peak concurrency), not O(request count): the machine compacts its
    /// task table at quiescent points ([`sfs_sched::Machine::compact`]).
    ///
    /// `arrivals` must be non-decreasing in arrival time (checked) — the
    /// order [`sfs_workload::WorkloadSpec::stream`] produces. A run over
    /// the same requests is event-for-event identical to [`Sim::run`];
    /// only the retention of outcomes and task records differs.
    /// Controllers with an analytic bypass ([`Controller::analytic`]) are
    /// rejected: they need the whole workload at once.
    ///
    /// # Panics
    /// Panics if no controller was set, if a workload was set (streaming
    /// takes its requests from `arrivals`), if the controller is analytic,
    /// if arrivals regress in time, or if the simulation stalls.
    pub fn run_streaming<I>(
        mut self,
        arrivals: I,
        mut sink: impl FnMut(RequestOutcome),
    ) -> StreamRun
    where
        I: IntoIterator<Item = Request>,
    {
        assert!(
            self.workload.is_none(),
            "Sim::run_streaming: remove .workload(..) — streaming pulls \
             requests from the arrivals iterator"
        );
        let mut controller = self
            .controller
            .take()
            .expect("Sim: no controller set (call .controller(...))");
        assert!(
            controller
                .analytic(&Workload { requests: vec![] })
                .is_none(),
            "analytic controllers are not supported in streaming mode \
             (they need the whole workload at once)"
        );

        let mut machine = self.machine();
        let res = drive(
            &mut machine,
            &mut *controller,
            arrivals.into_iter(),
            |_, o| sink(o),
            Some(COMPACT_TASK_TABLE_LEN),
        );

        let mut telemetry = Telemetry::default();
        controller.finish(&mut telemetry);
        StreamRun {
            requests: res.completed as u64,
            sched_actions: res.sched_actions,
            machine_ctx_switches: machine.total_ctx_switches(),
            sim_span: machine.now() - SimTime::ZERO,
            cores: machine.cores(),
            schedule_trace: machine.trace().cloned(),
            telemetry,
        }
    }

    /// The machine both runs drive, traced if asked. Outcomes come from
    /// its `Finished` notifications, the only way a completion leaves it.
    fn machine(&self) -> Machine {
        let mut machine = Machine::new(self.params);
        if self.tracing {
            machine.enable_tracing();
        }
        machine
    }
}

/// Result of one [`Sim::run_streaming`] run: everything [`RunOutcome`]
/// carries except the per-request outcome vector (those went to the sink).
#[derive(Debug, Clone)]
pub struct StreamRun {
    /// Number of requests completed (== outcomes handed to the sink).
    pub requests: u64,
    /// Policy switches the controller issued.
    pub sched_actions: u64,
    /// Machine-wide involuntary context switches.
    pub machine_ctx_switches: u64,
    /// Total simulated span.
    pub sim_span: SimDuration,
    /// Cores in the simulated machine.
    pub cores: usize,
    /// Execution trace, if requested via [`Sim::tracing`]. (Tracing
    /// disables task-table compaction, so only use it at small scales.)
    pub schedule_trace: Option<ScheduleTrace>,
    /// Controller-specific counters and timelines.
    pub telemetry: Telemetry,
}

/// Compact the machine's task table whenever the run quiesces with at
/// least this many dead task records — large enough that compaction cost
/// is amortised, small enough that a streaming run's slab stays tiny.
const COMPACT_TASK_TABLE_LEN: usize = 1024;

/// Dispatch every request due at or before `next`: clone its spec with
/// the controller's dispatch policy applied, spawn it, and hand the
/// *original* (policy-unmodified) request to the controller. Returns how
/// many were spawned.
fn spawn_due<I, C>(
    arrivals: &mut Peekable<I>,
    last_arrival: &mut SimTime,
    next: SimTime,
    view: &mut MachineView<'_>,
    controller: &mut C,
) -> usize
where
    I: Iterator,
    I::Item: Borrow<Request>,
    C: Controller + ?Sized,
{
    let mut spawned = 0;
    while arrivals.peek().is_some_and(|r| r.borrow().arrival <= next) {
        let item = arrivals.next().expect("peeked request present");
        let req = item.borrow();
        assert!(
            req.arrival >= *last_arrival,
            "arrivals must be non-decreasing in time (request {} at {} after {})",
            req.id,
            req.arrival,
            last_arrival
        );
        *last_arrival = req.arrival;
        let mut spec = req.spec.clone();
        spec.policy = controller.dispatch_policy(req);
        let pid = view.machine.spawn(spec);
        controller.on_arrival(view, req, pid);
        spawned += 1;
    }
    spawned
}

/// Counters the shared simulation loop reports back to its caller.
struct DriveResult {
    sched_actions: u64,
    completed: usize,
}

/// The simulation loop shared by [`Sim::run`] and [`Sim::run_streaming`].
/// One pass is one step: run the machine to its first notifying instant,
/// bounded by the next arrival and the controller's next wakeup, then at
/// the instant reached deliver notifications, emit outcomes (each with its
/// request's pid), spawn due arrivals and fire controller timers. Arrivals
/// come from one iterator in either case — a replayed workload's requests
/// by reference in `(arrival, index)` order, or a stream's owned requests —
/// so a streamed run is event-for-event the same simulation as a replayed
/// one.
fn drive<I, C, F>(
    machine: &mut Machine,
    controller: &mut C,
    arrivals: I,
    mut emit: F,
    compact_threshold: Option<usize>,
) -> DriveResult
where
    I: Iterator,
    I::Item: Borrow<Request>,
    C: Controller + ?Sized,
    F: FnMut(Pid, RequestOutcome),
{
    let mut arrivals = arrivals.peekable();
    let mut last_arrival = SimTime::ZERO;
    let mut sched_actions = 0u64;
    let mut spawned = 0usize;
    let mut completed = 0usize;
    // Reused notification buffer: cleared and refilled every step
    // (the drain-and-reuse idiom from the old simulator loop), so the
    // steady-state loop allocates nothing per advance.
    let mut notes: Vec<Notification> = Vec::new();
    // Stall detection: a well-behaved step either pops a machine event,
    // spawns an arrival, completes a request, or advances the
    // controller's wakeup. If the observable state repeats across
    // iterations the controller is violating the wakeup timing
    // contract (a stale `next_wakeup` it never clears); panic instead
    // of spinning forever.
    let mut last_state = None;
    let mut stalled = 0u32;

    while completed < spawned || arrivals.peek().is_some() {
        let tm = machine.next_event_time();
        let ta = arrivals.peek().map(|r| r.borrow().arrival);
        let tc = controller.next_wakeup();
        let state = (tm, tc, spawned, completed);
        if last_state == Some(state) {
            stalled += 1;
            assert!(
                stalled < 100,
                "simulation stalled at t={} with {completed} of {spawned} \
                 spawned requests completed: the controller's next_wakeup \
                 ({tc:?}) is not strictly in the future and on_wakeup makes \
                 no progress",
                machine.now(),
            );
        } else {
            stalled = 0;
            last_state = Some(state);
        }
        // The machine runs until its first notifying instant, at the latest
        // until the next arrival or controller wakeup; with neither, until
        // it notifies.
        let bound = match ta.into_iter().chain(tc).min() {
            Some(t) => t.max(machine.now()),
            None if tm.is_some() => SimTime::MAX,
            None => unreachable!("simulation stalled with {completed} of {spawned} spawned"),
        };
        notes.clear();
        let now = machine.advance_until_notified(bound, &mut notes);
        let mut view = MachineView {
            machine: &mut *machine,
            sched_actions: &mut sched_actions,
        };
        for note in &notes {
            controller.on_notification(&mut view, note);
            if let Notification::Finished(rec) = note {
                let mut o = outcome_of(rec);
                controller.annotate(&mut o);
                emit(rec.pid, o);
                completed += 1;
            }
        }
        spawned += spawn_due(&mut arrivals, &mut last_arrival, now, &mut view, controller);
        controller.on_wakeup(&mut view);
        // Streaming runs reclaim the task table whenever the machine
        // quiesces with enough dead records — behaviour-transparent (see
        // Machine::compact), so replay and stream stay event-identical.
        if let Some(threshold) = compact_threshold {
            if machine.live_tasks() == 0 && machine.task_table_len() >= threshold {
                machine.compact();
            }
        }
    }

    DriveResult {
        sched_actions,
        completed,
    }
}

/// The controller-independent part of a request's outcome record.
fn outcome_of(rec: &FinishedTask) -> RequestOutcome {
    RequestOutcome {
        id: rec.label,
        arrival: rec.arrival,
        finished: rec.finished,
        turnaround: rec.turnaround(),
        ideal: rec.ideal,
        cpu_demand: rec.cpu_demand,
        rte: rec.rte(),
        ctx_switches: rec.ctx_switches,
        migrations: rec.migrations,
        queue_delay: SimDuration::ZERO,
        demoted: false,
        offloaded: false,
        filter_rounds: 0,
        io_blocks: 0,
    }
}
