//! Tracing from outside the program: delegating wrappers at the program's
//! public seams (the arrival iterator, the `Controller` trait, the outcome
//! sink and `ControllerFactory::run_on`) record spans into a [`Recorder`].
//!
//! A timer-read pair costs about as much as the cheapest hooks it would
//! time, and SFS calls its controller ~120 times per request, so two kinds
//! of span exist:
//!
//! * whole-call spans (`run`, `sim.*`, `fleet.run`, `cluster.run`,
//!   `run_on`) are always timed — they last milliseconds;
//! * per-call spans ([`Hook`]) are counted exactly but timed only for a
//!   random ~1/[`SAMPLE_EVERY`] of calls. Each sample reads the clock three
//!   times: the first pair times an empty span in place (the calibration,
//!   taken during the run, in the same cache state as the hook), the
//!   second pair times the call. A seam's total is its exact call count
//!   times its mean sample less the mean empty span ([`scaled_ns`]).

use std::cell::{Cell, RefCell};
use std::sync::Mutex;

use sfs_core::{
    Controller, ControllerFactory, MachineView, RequestOutcome, RunOutcome, Sim, Telemetry,
};
use sfs_sched::{MachineParams, Notification, Pid, Policy};
use sfs_simcore::SimTime;
use sfs_workload::{Request, Workload};

use crate::clock::Clock;

/// Mean number of calls between two sampled per-call spans.
pub const SAMPLE_EVERY: u64 = 64;

/// A per-call seam. Every call is counted; all but
/// [`Hook::NextWakeup`], which is cheaper than the timer, are sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    Next,
    OnArrival,
    OnNotification,
    NextWakeup,
    OnWakeup,
    Annotate,
    Sink,
}

pub const HOOKS: usize = 7;

impl Hook {
    pub const ALL: [Hook; HOOKS] = [
        Hook::Next,
        Hook::OnArrival,
        Hook::OnNotification,
        Hook::NextWakeup,
        Hook::OnWakeup,
        Hook::Annotate,
        Hook::Sink,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Hook::Next => "workload.next",
            Hook::OnArrival => "controller.on_arrival",
            Hook::OnNotification => "controller.on_notification",
            Hook::NextWakeup => "controller.next_wakeup",
            Hook::OnWakeup => "controller.on_wakeup",
            Hook::Annotate => "controller.annotate",
            Hook::Sink => "stats.sink",
        }
    }

    pub fn is_controller(self) -> bool {
        matches!(
            self,
            Hook::OnArrival
                | Hook::OnNotification
                | Hook::NextWakeup
                | Hook::OnWakeup
                | Hook::Annotate
        )
    }
}

/// Whole-call span names.
pub const ROOT: &str = "run";
pub const SIM_RUN: &str = "sim.run";
pub const SIM_STREAM: &str = "sim.run_streaming";
pub const FLEET_RUN: &str = "fleet.run";
pub const CLUSTER_RUN: &str = "cluster.run";
pub const RUN_ON: &str = "run_on";

/// One recorded span. `parent` indexes the enclosing whole-call span;
/// `req` is the request id for `on_arrival`, `annotate`, `Finished`
/// notifications and the sink.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Deterministic counters of one traced run, read from the program's
/// results (`Telemetry`, `RunOutcome`, `StreamRun`) and summed over hosts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    pub polls: u64,
    pub polled_tasks: u64,
    pub sched_actions: u64,
    pub offloaded: u64,
    pub demoted: u64,
    pub ctx_switches: u64,
    pub units: u64,
}

impl RunCounts {
    pub fn add(&mut self, t: &Telemetry, sched_actions: u64, ctx_switches: u64) {
        self.polls += t.polls;
        self.polled_tasks += t.polled_tasks;
        self.offloaded += t.offloaded;
        self.demoted += t.demoted;
        self.sched_actions += sched_actions;
        self.ctx_switches += ctx_switches;
        self.units += 1;
    }
}

/// Machine notifications seen by the controller wrapper, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoteCounts {
    pub first_run: u64,
    pub blocked: u64,
    pub woke: u64,
}

/// In-memory span store of one traced run. Single-threaded by design
/// (`Cell`s keep the unsampled path to a counter bump); multi-host runs
/// share it through [`TracedFactory`]'s mutex.
pub struct Recorder {
    clock: Clock,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<usize>>,
    calls: [Cell<u64>; HOOKS],
    samples: [Cell<u64>; HOOKS],
    sampled_ns: [Cell<u64>; HOOKS],
    empty_ns: Cell<u64>,
    countdown: Cell<u64>,
    rng: Cell<u64>,
    notes: Cell<NoteCounts>,
    counts: Cell<RunCounts>,
}

impl Recorder {
    pub fn new(clock: Clock, seed: u64) -> Recorder {
        Recorder {
            clock,
            spans: RefCell::new(Vec::new()),
            open: Cell::new(None),
            calls: Default::default(),
            samples: Default::default(),
            sampled_ns: Default::default(),
            empty_ns: Cell::new(0),
            countdown: Cell::new(0),
            // xorshift state must be non-zero.
            rng: Cell::new(seed | 1),
            notes: Cell::new(NoteCounts::default()),
            counts: Cell::new(RunCounts::default()),
        }
    }

    /// Open a whole-call span under the innermost open one.
    pub fn enter(&self, name: &'static str) -> usize {
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len();
        spans.push(Span {
            name,
            start: self.clock.now_ns(),
            end: 0,
            parent: self.open.get(),
            req: None,
        });
        self.open.set(Some(idx));
        idx
    }

    /// Close the whole-call span `idx` opened by [`Recorder::enter`].
    pub fn exit(&self, idx: usize) {
        let end = self.clock.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[idx].end = end;
        self.open.set(spans[idx].parent);
    }

    /// Count a call that is never timed.
    #[inline]
    pub fn count(&self, hook: Hook) {
        let c = &self.calls[hook as usize];
        c.set(c.get() + 1);
    }

    /// Count a call to `hook` and, if it is sampled, time it.
    #[inline]
    pub fn call<R>(&self, hook: Hook, req: Option<u64>, f: impl FnOnce() -> R) -> R {
        self.count(hook);
        let left = self.countdown.get();
        if left > 0 {
            self.countdown.set(left - 1);
            return f();
        }
        self.sampled(hook, req, f)
    }

    #[inline(never)]
    fn sampled<R>(&self, hook: Hook, req: Option<u64>, f: impl FnOnce() -> R) -> R {
        // Uniform gap in [0, 2·SAMPLE_EVERY − 2]: one sample per
        // SAMPLE_EVERY calls on average, with no fixed stride to alias
        // against the drive loop's periodic call pattern.
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        self.countdown.set(x % (2 * SAMPLE_EVERY - 1));

        let t0 = self.clock.now_ns();
        let t1 = self.clock.now_ns();
        let out = f();
        let t2 = self.clock.now_ns();
        let k = hook as usize;
        self.empty_ns.set(self.empty_ns.get() + (t1 - t0));
        self.samples[k].set(self.samples[k].get() + 1);
        self.sampled_ns[k].set(self.sampled_ns[k].get() + (t2 - t1));
        self.spans.borrow_mut().push(Span {
            name: hook.name(),
            start: t1,
            end: t2,
            parent: self.open.get(),
            req,
        });
        out
    }

    pub fn note(&self, note: &Notification) {
        let mut n = self.notes.get();
        match note {
            Notification::FirstRun(..) => n.first_run += 1,
            Notification::Blocked(..) => n.blocked += 1,
            Notification::Woke(..) => n.woke += 1,
            Notification::Finished(..) => {}
        }
        self.notes.set(n);
    }

    pub fn absorb(&self, t: &Telemetry, sched_actions: u64, ctx_switches: u64) {
        let mut c = self.counts.get();
        c.add(t, sched_actions, ctx_switches);
        self.counts.set(c);
    }

    pub fn finish(self) -> Trace {
        let get = |a: &[Cell<u64>; HOOKS]| {
            let mut out = [0u64; HOOKS];
            for (o, c) in out.iter_mut().zip(a) {
                *o = c.get();
            }
            out
        };
        Trace {
            calls: get(&self.calls),
            samples: get(&self.samples),
            sampled_ns: get(&self.sampled_ns),
            empty_ns: self.empty_ns.get(),
            notes: self.notes.get(),
            counts: self.counts.get(),
            spans: self.spans.into_inner(),
        }
    }
}

/// Mean cost of an empty span measured back to back `n` times — the
/// start-of-run calibration, reported beside the in-place one.
pub fn empty_span_ns(clock: &Clock, n: u32) -> f64 {
    let mut total = 0u64;
    for _ in 0..n {
        let t0 = clock.now_ns();
        let t1 = clock.now_ns();
        total += t1 - t0;
    }
    total as f64 / f64::from(n.max(1))
}

/// What one traced run recorded.
#[derive(Debug)]
pub struct Trace {
    pub calls: [u64; HOOKS],
    pub samples: [u64; HOOKS],
    pub sampled_ns: [u64; HOOKS],
    pub empty_ns: u64,
    pub notes: NoteCounts,
    pub counts: RunCounts,
    pub spans: Vec<Span>,
}

impl Trace {
    /// Mean empty-span cost measured in place during the run.
    pub fn timer_ns(&self) -> f64 {
        let n: u64 = self.samples.iter().sum();
        if n == 0 {
            0.0
        } else {
            self.empty_ns as f64 / n as f64
        }
    }

    /// Calibrated mean cost of one call to `hook`.
    pub fn ns_per_call(&self, hook: Hook) -> f64 {
        let k = hook as usize;
        scaled_ns(1, self.samples[k], self.sampled_ns[k], self.timer_ns())
    }

    /// Calibrated total time spent in `hook`.
    pub fn total_ns(&self, hook: Hook) -> f64 {
        let k = hook as usize;
        scaled_ns(
            self.calls[k],
            self.samples[k],
            self.sampled_ns[k],
            self.timer_ns(),
        )
    }

    pub fn calls(&self, hook: Hook) -> u64 {
        self.calls[hook as usize]
    }

    /// Per-layer split of the root span (see [`Breakdown`]).
    pub fn breakdown(&self) -> Breakdown {
        let mut b = Breakdown::default();
        let is_hook = |name: &str| Hook::ALL.iter().any(|h| h.name() == name);
        for (i, s) in self.spans.iter().enumerate() {
            // Exact self time over whole-call children only: sampled hook
            // spans enter through their scaled estimates instead.
            let self_time = || {
                let kids: Vec<(u64, u64)> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i) && !is_hook(c.name))
                    .map(|c| (c.start, c.end))
                    .collect();
                self_ns((s.start, s.end), &kids) as f64
            };
            match s.name {
                ROOT => {
                    b.total_ns += s.ns() as f64;
                    b.harness_ns += self_time();
                }
                FLEET_RUN | CLUSTER_RUN => b.route_ns += self_time(),
                SIM_RUN | SIM_STREAM | RUN_ON => b.host_ns += s.ns() as f64,
                _ => {}
            }
        }
        for h in Hook::ALL {
            b.hooks_ns[h as usize] = self.total_ns(h);
        }
        b.sim_self_ns = remainder_ns(b.host_ns, b.hooks_ns.iter().sum());
        b
    }
}

/// The root span split by layer. `total = harness + route + host` exactly
/// (whole-call spans nest), and `host = sim_self + Σ hooks` unless the
/// hook estimates overshoot, in which case `sim_self` floors at zero and
/// [`Breakdown::accounted_ns`] exceeds the total.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    /// The whole traced run (`run` span).
    pub total_ns: f64,
    /// Benchmark code in `run` outside every program call.
    pub harness_ns: f64,
    /// Fleet or cluster dispatcher time outside its `run_on` host runs.
    pub route_ns: f64,
    /// `Sim` spans, or the sum of `run_on` spans.
    pub host_ns: f64,
    /// Scaled per-call totals, indexed by [`Hook`].
    pub hooks_ns: [f64; HOOKS],
    /// Host time not covered by any hook: the drive loop, machine and
    /// kernel policy, and untimed cheap calls.
    pub sim_self_ns: f64,
}

impl Breakdown {
    pub fn accounted_ns(&self) -> f64 {
        self.harness_ns + self.route_ns + self.sim_self_ns + self.hooks_ns.iter().sum::<f64>()
    }

    pub fn controller_ns(&self) -> f64 {
        Hook::ALL
            .iter()
            .filter(|h| h.is_controller())
            .map(|&h| self.hooks_ns[h as usize])
            .sum()
    }
}

/// Nanoseconds of `parent` covered by the union of `children`, each
/// clipped to the parent.
pub fn covered_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.0;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// A span's self time: its duration less the part its children cover.
/// Never negative.
pub fn self_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    parent
        .1
        .saturating_sub(parent.0)
        .saturating_sub(covered_ns(parent, children))
}

/// Scaled total of a sampled seam: `calls × (mean sample − calib)`,
/// floored at zero (a seam cannot cost less than nothing).
pub fn scaled_ns(calls: u64, samples: u64, sampled_ns: u64, calib_ns: f64) -> f64 {
    if samples == 0 {
        return 0.0;
    }
    let per_call = (sampled_ns as f64 / samples as f64 - calib_ns).max(0.0);
    calls as f64 * per_call
}

/// A layer's time left after its estimated children. Never negative.
pub fn remainder_ns(total: f64, children: f64) -> f64 {
    (total - children).max(0.0)
}

/// Delegating [`Controller`] that counts and samples every hook.
pub struct TracedController<'r, C> {
    inner: C,
    rec: &'r Recorder,
}

impl<'r, C: Controller> TracedController<'r, C> {
    pub fn new(inner: C, rec: &'r Recorder) -> TracedController<'r, C> {
        TracedController { inner, rec }
    }
}

impl<C: Controller> Controller for TracedController<'_, C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dispatch_policy(&mut self, req: &Request) -> Policy {
        self.inner.dispatch_policy(req)
    }

    fn on_arrival(&mut self, m: &mut MachineView<'_>, req: &Request, pid: Pid) {
        let inner = &mut self.inner;
        self.rec.call(Hook::OnArrival, Some(req.id), || {
            inner.on_arrival(m, req, pid)
        })
    }

    fn on_notification(&mut self, m: &mut MachineView<'_>, note: &Notification) {
        self.rec.note(note);
        let req = match note {
            Notification::Finished(done) => Some(done.label),
            _ => None,
        };
        let inner = &mut self.inner;
        self.rec
            .call(Hook::OnNotification, req, || inner.on_notification(m, note))
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.rec.count(Hook::NextWakeup);
        self.inner.next_wakeup()
    }

    fn on_wakeup(&mut self, m: &mut MachineView<'_>) {
        let inner = &mut self.inner;
        self.rec.call(Hook::OnWakeup, None, || inner.on_wakeup(m))
    }

    fn annotate(&mut self, outcome: &mut RequestOutcome) {
        let inner = &mut self.inner;
        let id = outcome.id;
        self.rec
            .call(Hook::Annotate, Some(id), || inner.annotate(outcome))
    }

    fn finish(&mut self, telemetry: &mut Telemetry) {
        self.inner.finish(telemetry)
    }

    fn analytic(&self, workload: &Workload) -> Option<Vec<RequestOutcome>> {
        self.inner.analytic(workload)
    }
}

/// Delegating arrival iterator that counts and samples `next()`.
pub struct TracedIter<'r, I> {
    inner: I,
    rec: &'r Recorder,
}

impl<'r, I: Iterator> TracedIter<'r, I> {
    pub fn new(inner: I, rec: &'r Recorder) -> TracedIter<'r, I> {
        TracedIter { inner, rec }
    }
}

impl<I: Iterator> Iterator for TracedIter<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let inner = &mut self.inner;
        self.rec.call(Hook::Next, None, || inner.next())
    }
}

/// Delegating [`ControllerFactory`] whose `run_on` times each host-epoch
/// `Sim::run` a `Fleet` or `Cluster` starts and wraps its controller. It
/// must be `Sync`, so the recorder sits behind a mutex that each host run
/// holds for its duration.
pub struct TracedFactory<'f> {
    inner: &'f (dyn ControllerFactory + Sync),
    rec: Mutex<Recorder>,
}

impl<'f> TracedFactory<'f> {
    pub fn new(inner: &'f (dyn ControllerFactory + Sync), rec: Recorder) -> TracedFactory<'f> {
        TracedFactory {
            inner,
            rec: Mutex::new(rec),
        }
    }

    pub fn into_recorder(self) -> Recorder {
        self.rec
            .into_inner()
            .expect("recorder poisoned by a panicking host run")
    }
}

impl ControllerFactory for TracedFactory<'_> {
    fn build(&self) -> Box<dyn Controller> {
        self.inner.build()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn configure_machine(&self, params: &mut MachineParams) {
        self.inner.configure_machine(params)
    }

    /// The trait's default `run_on`, with the controller wrapped and the
    /// run timed. The traced run's outcome digest is checked against the
    /// untraced one, so a factory overriding `run_on` would be caught.
    fn run_on(&self, cores: usize, workload: &Workload) -> RunOutcome {
        let rec = self
            .rec
            .lock()
            .expect("recorder poisoned by a panicking host run");
        let span = rec.enter(RUN_ON);
        let mut params = MachineParams::linux(cores);
        self.inner.configure_machine(&mut params);
        let run = Sim::on(params)
            .workload(workload)
            .controller(TracedController::new(self.inner.build(), &rec))
            .run();
        rec.exit(span);
        rec.absorb(&run.telemetry, run.sched_actions, run.machine_ctx_switches);
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        // Children overlap each other and one pokes out of the parent.
        let parent = (100, 200);
        let kids = [(110, 130), (120, 140), (190, 250), (300, 400)];
        assert_eq!(covered_ns(parent, &kids), 30 + 10);
        assert_eq!(self_ns(parent, &kids), 100 - 40);
        assert_eq!(self_ns(parent, &[]), 100);
    }

    #[test]
    fn self_time_is_never_negative() {
        assert_eq!(self_ns((0, 10), &[(0, 10), (0, 10)]), 0);
        assert_eq!(self_ns((0, 10), &[(0, 50)]), 0);
        assert_eq!(remainder_ns(10.0, 25.0), 0.0);
        assert_eq!(remainder_ns(25.0, 10.0), 15.0);
    }

    #[test]
    fn counts_times_calibrated_mean_sample_give_the_scaled_total() {
        // 4 samples averaging 150 ns, 50 ns of it the timer: 100 ns/call.
        assert_eq!(scaled_ns(1000, 4, 600, 50.0), 100_000.0);
        // A seam cheaper than the timer scales to zero, not below.
        assert_eq!(scaled_ns(1000, 4, 100, 50.0), 0.0);
        assert_eq!(scaled_ns(1000, 0, 0, 50.0), 0.0);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: None,
        }
    }

    #[test]
    fn breakdown_accounts_for_the_root_span() {
        let mut calls = [0; HOOKS];
        let mut samples = [0; HOOKS];
        let mut sampled_ns = [0; HOOKS];
        let k = Hook::OnWakeup as usize;
        calls[k] = 10;
        samples[k] = 2;
        sampled_ns[k] = 2 * 30; // 30 ns each, 10 of them timer.
        let trace = Trace {
            calls,
            samples,
            sampled_ns,
            empty_ns: 2 * 10,
            notes: NoteCounts::default(),
            counts: RunCounts::default(),
            spans: vec![
                span(ROOT, 0, 1000, None),
                span(FLEET_RUN, 100, 900, Some(0)),
                span(RUN_ON, 200, 400, Some(1)),
                span(RUN_ON, 500, 700, Some(1)),
                span("controller.on_wakeup", 210, 230, Some(2)),
            ],
        };
        let b = trace.breakdown();
        assert_eq!(b.total_ns, 1000.0);
        assert_eq!(b.harness_ns, 200.0);
        assert_eq!(b.route_ns, 400.0);
        assert_eq!(b.host_ns, 400.0);
        assert_eq!(b.controller_ns(), 200.0);
        assert_eq!(b.sim_self_ns, 200.0);
        assert_eq!(b.accounted_ns(), b.total_ns);
    }

    #[test]
    fn recorder_counts_every_call_and_samples_some() {
        let rec = Recorder::new(Clock::new(), 7);
        let root = rec.enter(ROOT);
        let mut sum = 0u64;
        for i in 0..10_000u64 {
            sum += rec.call(Hook::OnWakeup, Some(i), || i);
        }
        rec.exit(root);
        assert_eq!(sum, (0..10_000u64).sum::<u64>());
        let t = rec.finish();
        let k = Hook::OnWakeup as usize;
        assert_eq!(t.calls[k], 10_000);
        // ~1/64 sampled; generous bounds, the gaps are pseudo-random.
        assert!((80..=250).contains(&t.samples[k]), "{}", t.samples[k]);
        assert_eq!(t.spans.len() as u64, 1 + t.samples[k]);
        assert!(t.spans[1..].iter().all(|s| s.parent == Some(root)));
    }
}
