//! The SFS scheduling policy as a [`Controller`] (paper §V, Fig. 4).
//!
//! [`SfsController`] reproduces the full scheduling flow:
//!
//! 1. the backend FaaS server dispatches each function to the OS (spawned
//!    under CFS) and pushes `(pid, T_inv)` into SFS's **global queue**;
//! 2. idle **SFS workers** (one per core) fetch requests and run them in
//!    **FILTER** mode by promoting the process to `SCHED_FIFO`;
//! 3. the **monitor** recomputes the time slice `S` from a sliding window
//!    of IATs every N requests (§V-C);
//! 4. then, per request: (4.1) a function finishing within `S` frees its
//!    worker; (4.2) a function exhausting `S` is **demoted to CFS**
//!    (`SCHED_NORMAL`); (4.3) a function blocking on I/O is detected by
//!    periodic status polling, demoted while it sleeps, and **re-enqueued
//!    on wake** with its unused slice (§V-D); (4.4) a worker popping a
//!    request whose queueing delay exceeds `O × S` triggers the **hybrid
//!    overload bypass**: the request (and the drain that follows) stays in
//!    CFS (§V-E).
//!
//! SFS only ever talks to the machine through the [`MachineView`] ops —
//! the same interface the real implementation has via `schedtool` and
//! `gopsutil`.
//!
//! [`SfsController::with_slo`] adds the SLO-deadline hybrid variant: the
//! relative `O × S` overload test is augmented with an absolute per-request
//! deadline on age since invocation, checked both at pop time and
//! proactively at every poll tick, so aged requests are shed to CFS even
//! while all workers are busy.

use std::collections::VecDeque;

use sfs_sched::{Notification, Pid, Policy, ProcState};
use sfs_simcore::{SimDuration, SimTime, TimeSeries};
use sfs_workload::Request;

use crate::config::{QueueMode, SfsConfig, FILTER_PRIO, OVERLOAD_FACTOR};
use crate::sim::{Controller, MachineView, Telemetry};
use crate::stats::RequestOutcome;
use crate::timeslice::SliceController;

/// Where a tracked request currently sits in SFS's own bookkeeping.
///
/// Maintained exactly at every queue transition so the completion path can
/// skip the queue scans entirely for the common case (a request that
/// finished while running a FILTER round or after being left to CFS is in
/// no SFS queue): the old design rescanned the global queue, every
/// per-worker queue, and the blocked list on *every* completion — an
/// O(requests x queue depth) term that dominated deep-backlog runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// In no SFS queue (FILTER round in flight, left to CFS, or done).
    None,
    /// In the global queue or a per-worker queue.
    Queued,
    /// In the blocked (I/O wake-detection) list.
    Blocked,
}

/// Per-request state, stored in a dense slab indexed by `pid` (see
/// [`SfsController::states`]).
#[derive(Debug, Clone)]
struct ReqState {
    /// Request id — the outcome key [`Controller::annotate`] receives.
    id: u64,
    pid: Pid,
    /// Invocation timestamp (when the FaaS server enqueued it).
    t_inv: SimTime,
    /// When the request was last pushed into the global queue.
    enqueued_at: SimTime,
    /// Remaining FILTER slice across I/O interruptions; `None` = fresh
    /// (use the current global S on next assignment).
    slice_remaining: Option<SimDuration>,
    /// Queue delay observed at the first pop (enqueue → pop), for Fig. 12a.
    first_pop_delay: Option<SimDuration>,
    loc: Loc,
    demoted: bool,
    offloaded: bool,
    filter_rounds: u32,
    io_blocks: u32,
}

impl ReqState {
    /// Filler for slab holes (only reachable if a driver hands out sparse
    /// pids; [`crate::Sim`] never does).
    fn vacant() -> ReqState {
        ReqState {
            id: u64::MAX,
            pid: Pid(u64::MAX),
            t_inv: SimTime::ZERO,
            enqueued_at: SimTime::ZERO,
            slice_remaining: None,
            first_pop_delay: None,
            loc: Loc::None,
            demoted: false,
            offloaded: false,
            filter_rounds: 0,
            io_blocks: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Assignment {
    pid: Pid,
    /// Slab slot of the request in this FILTER round.
    slot: u32,
    /// FILTER budget for this round.
    budget: SimDuration,
    /// CPU time the process had consumed when this round started.
    cpu_at_start: SimDuration,
    /// When this round's slice timer fires (round start + budget): the
    /// worker's one timer, freed with the round.
    expires: SimTime,
    /// The slice timer's arming number ([`SfsController::arm`]).
    armed: u64,
}

/// A timer due now, as [`SfsController::next_due`] picks it.
#[derive(Debug, Clone, Copy)]
enum Timer {
    /// Worker `w`'s FILTER slice timer.
    Slice(usize),
    /// The periodic status-polling tick.
    Poll,
}

/// The paper's Smart Function Scheduler as a pluggable [`Controller`].
///
/// Build one per run with [`SfsController::new`] and hand it to
/// [`Sim::controller`](crate::Sim::controller).
///
/// Timers are plain fields, as in every controller: a busy worker's
/// FILTER round carries its slice timer, and `poll` holds the pending
/// status tick. Each is stamped with an arming number from one counter
/// when it is armed, and the timers due at one instant fire lowest arming
/// number first, the order in which they were armed.
pub struct SfsController {
    cfg: SfsConfig,
    /// Absolute queue-delay deadline (SLO variant); `None` = paper SFS.
    slo_deadline: Option<SimDuration>,
    slice: SliceController,
    /// Request queues: the one global queue in [`QueueMode::Global`], one
    /// per worker in [`QueueMode::PerWorker`]. Worker `w` fetches from
    /// `queues[w % queues.len()]`.
    queues: Vec<VecDeque<u32>>,
    /// Round-robin cursor over `queues` for enqueueing.
    next_rr: usize,
    /// Per-request state slab, indexed by `pid.0` (the *slot*), the only
    /// request index. The sim spawns one process per request with densely
    /// allocated pids, so every lookup — assign, poll, demote, completion,
    /// annotation — is a plain vector index.
    states: Vec<ReqState>,
    /// Slot of the request whose `Finished` notification came last: the
    /// one [`Controller::annotate`] receives next.
    finished: Option<u32>,
    /// Each worker's FILTER round, if it is busy. Changed only through
    /// [`SfsController::assign`] and [`SfsController::free`].
    workers: Vec<Option<Assignment>>,
    /// The earliest slice expiry among busy workers, kept exact by
    /// [`SfsController::assign`] and [`SfsController::free`].
    earliest: Option<SimTime>,
    /// Slots blocked on I/O, awaiting wake detection by polling.
    blocked: Vec<u32>,
    /// Reusable scratch for wake detection in [`SfsController::on_poll`].
    rewoken: Vec<u32>,
    /// The pending poll tick as `(instant, arming number)`, if one is armed.
    poll: Option<(SimTime, u64)>,
    /// The arming number the next armed timer gets.
    next_arming: u64,
    /// Whether the pending tick could act: the SLO variant is on, a
    /// function is blocked on I/O, or a busy worker's process sleeps (a
    /// spawn with a leading I/O wait raises no `Blocked`). Recomputed at
    /// the end of every hook; nothing it reads changes between hooks. A
    /// tick that cannot act only counts, so it is not reported as a
    /// wakeup and [`SfsController::catch_up`] settles it in closed form.
    poll_live: bool,
    queue_delay_series: TimeSeries,
    polls: u64,
    polled_tasks: u64,
    offloaded_total: u64,
    demoted_total: u64,
}

impl SfsController {
    /// An SFS instance with the given configuration. `cfg.workers` should
    /// normally equal the machine's core count.
    ///
    /// # Panics
    /// Panics if the configuration is invalid ([`SfsConfig::validate`]).
    pub fn new(cfg: SfsConfig) -> SfsController {
        cfg.validate().expect("invalid SFS config");
        SfsController {
            cfg,
            slo_deadline: None,
            slice: SliceController::new(&cfg),
            queues: match cfg.queue_mode {
                QueueMode::Global => vec![VecDeque::new()],
                QueueMode::PerWorker => vec![VecDeque::new(); cfg.workers],
            },
            next_rr: 0,
            states: Vec::new(),
            finished: None,
            workers: vec![None; cfg.workers],
            earliest: None,
            blocked: Vec::new(),
            rewoken: Vec::new(),
            poll: None,
            next_arming: 0,
            poll_live: false,
            queue_delay_series: TimeSeries::new("queue_delay_s"),
            polls: 0,
            polled_tasks: 0,
            offloaded_total: 0,
            demoted_total: 0,
        }
    }

    /// The SLO-deadline hybrid variant: in addition to the paper's relative
    /// `O × S` overload test, any *queued* request whose age since
    /// invocation (`now − T_inv`, the same basis as
    /// [`RequestOutcome::queue_delay`]) reaches `deadline` is shed to CFS —
    /// at pop time *and* proactively at every poll tick. With the paper's
    /// rule a request can age unboundedly while all workers chew long
    /// functions; the deadline bounds how stale a request can get before
    /// the kernel takes over. The clock starts at invocation, so FILTER and
    /// I/O time from earlier rounds counts against a re-enqueued request's
    /// deadline.
    pub fn with_slo(cfg: SfsConfig, deadline: SimDuration) -> SfsController {
        assert!(!deadline.is_zero(), "SLO deadline must be positive");
        let mut c = SfsController::new(cfg);
        c.slo_deadline = Some(deadline);
        c
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Route a request into the configured queue topology: round-robin
    /// over the queues, so always the one queue in global mode.
    fn enqueue_req(&mut self, slot: u32) {
        self.states[slot as usize].loc = Loc::Queued;
        let q = self.next_rr % self.queues.len();
        self.next_rr += 1;
        self.queues[q].push_back(slot);
    }

    /// Steps 2 / 4.4: idle workers fetch requests, in worker order;
    /// overloaded requests are left to CFS. A fetch never frees a worker,
    /// so in global mode this is "the first idle worker pops the head"
    /// until no worker is idle or the queue is empty.
    fn try_assign(&mut self, m: &mut MachineView<'_>) {
        for w in 0..self.workers.len() {
            let q = w % self.queues.len();
            while self.workers[w].is_none() {
                let Some(slot) = self.queues[q].pop_front() else {
                    break;
                };
                self.assign_step(m, w, slot);
            }
        }
    }

    /// Handle one popped request for an idle worker `w`: overload bypass,
    /// dead-skip, exhausted-slice demotion, or FILTER promotion. The worker
    /// remains idle unless a promotion happened.
    fn assign_step(&mut self, m: &mut MachineView<'_>, w: usize, slot: u32) {
        let now = m.now();
        let s_now = self.slice.current();
        let (pid, delay, age, budget) = {
            let st = &mut self.states[slot as usize];
            st.loc = Loc::None; // popped from its queue
            let delay = now.since(st.enqueued_at);
            if st.first_pop_delay.is_none() {
                st.first_pop_delay = Some(now.since(st.t_inv));
                if self.cfg.record_series {
                    self.queue_delay_series
                        .record(st.t_inv, now.since(st.t_inv).as_secs_f64());
                }
            }
            let budget = st.slice_remaining.unwrap_or(s_now);
            (st.pid, delay, now.since(st.t_inv), budget)
        };

        // Dead already (finished under CFS while queued after an I/O round,
        // or a zero-length race): nothing to schedule.
        if m.proc_state(pid) == ProcState::Dead {
            return;
        }

        // 4.4 Overload detection: queueing delay of the request we are
        // about to schedule exceeds O × S → temporary CFS bypass. The SLO
        // variant additionally sheds requests past their absolute deadline.
        let over_slo = self.slo_deadline.is_some_and(|d| age >= d);
        if over_slo || self.cfg.hybrid_overload {
            let threshold = SimDuration::from_millis_f64(
                self.slice.current().as_millis_f64() * OVERLOAD_FACTOR,
            );
            if over_slo || (self.cfg.hybrid_overload && delay >= threshold) {
                self.states[slot as usize].offloaded = true;
                self.offloaded_total += 1;
                // The process is already SCHED_NORMAL; leaving it to CFS
                // *is* the bypass. The worker stays free for the next
                // request, which drains the backlog fast.
                return;
            }
        }

        // Exhausted slice from previous rounds: demote instead of a
        // zero-length FILTER round.
        if budget.is_zero() {
            self.demote(m, slot, pid);
            return;
        }

        // Step 2: promote to FIFO — the FILTER pool.
        m.set_policy(pid, Policy::Fifo { prio: FILTER_PRIO });
        let cpu_at_start = m.cpu_time(pid);
        self.states[slot as usize].filter_rounds += 1;
        let armed = self.arm();
        self.assign(
            w,
            Assignment {
                pid,
                slot,
                budget,
                cpu_at_start,
                expires: now + budget,
                armed,
            },
        );
    }

    /// The next arming number. Every timer gets one when it is armed, so
    /// timers due at one instant fire in the order they were armed.
    fn arm(&mut self) -> u64 {
        self.next_arming += 1;
        self.next_arming - 1
    }

    /// Worker `w` starts FILTER round `a`, arming its slice timer.
    fn assign(&mut self, w: usize, a: Assignment) {
        debug_assert!(self.workers[w].is_none(), "worker {w} is busy");
        self.workers[w] = Some(a);
        self.earliest = Some(self.earliest.map_or(a.expires, |t| t.min(a.expires)));
    }

    /// Free worker `w`, and its slice timer with it.
    fn free(&mut self, w: usize) -> Option<Assignment> {
        let a = self.workers[w].take();
        if a.is_some_and(|a| Some(a.expires) == self.earliest) {
            self.earliest = self.workers.iter().flatten().map(|a| a.expires).min();
        }
        a
    }

    /// 4.2: worker `w`'s FILTER slice timer fired.
    fn on_slice_expiry(&mut self, m: &mut MachineView<'_>, w: usize) {
        let Some(a) = self.workers[w] else {
            return;
        };
        match m.proc_state(a.pid) {
            ProcState::Dead => {
                // Finished before its timer: free the worker here, or its
                // expired timer would stay the reported wakeup. The
                // completion notification finds nothing left to free.
                self.free(w);
            }
            ProcState::Sleeping if self.cfg.io_aware => {
                // Blocked between polls and the timer beat the next poll:
                // treat as an I/O block (4.3).
                self.release_worker_for_io(m, w);
            }
            _ => {
                // Forcible preemption: demote to CFS.
                self.free(w);
                self.demote(m, a.slot, a.pid);
                self.try_assign(m);
            }
        }
    }

    fn demote(&mut self, m: &mut MachineView<'_>, slot: u32, pid: Pid) {
        m.set_policy(pid, Policy::NORMAL);
        let st = &mut self.states[slot as usize];
        st.demoted = true;
        st.slice_remaining = Some(SimDuration::ZERO);
        self.demoted_total += 1;
    }

    /// 4.3: periodic kernel-status polling (§V-D).
    fn on_poll(&mut self, m: &mut MachineView<'_>) {
        self.poll = None;
        self.polls += 1;
        let mut freed = false;

        // Detect FILTER functions that went to sleep on I/O.
        if self.cfg.io_aware {
            for w in 0..self.workers.len() {
                let Some(a) = self.workers[w] else {
                    continue;
                };
                self.polled_tasks += 1;
                if m.proc_state(a.pid) == ProcState::Sleeping {
                    self.release_worker_for_io(m, w);
                    freed = true;
                }
            }
            // Detect blocked functions that became runnable again: re-add to
            // the global queue with their unused slice.
            let now = m.now();
            let mut rewoken = std::mem::take(&mut self.rewoken);
            rewoken.clear();
            let states = &mut self.states;
            let polled = &mut self.polled_tasks;
            self.blocked.retain(|&slot| {
                let st = &mut states[slot as usize];
                *polled += 1;
                match m.proc_state(st.pid) {
                    ProcState::Sleeping => true,
                    ProcState::Dead => {
                        // Finished while blocked-tracked.
                        st.loc = Loc::None;
                        false
                    }
                    _ => {
                        rewoken.push(slot);
                        false
                    }
                }
            });
            for &slot in &rewoken {
                self.states[slot as usize].enqueued_at = now;
                self.enqueue_req(slot);
                freed = true;
            }
            self.rewoken = rewoken;
        }

        // SLO variant: proactively shed queued requests past their age
        // deadline instead of waiting for a worker to pop them. The shed
        // mirrors the pop-time bypass accounting: the request's (would-be
        // first-pop) queue delay is recorded so shed requests do not read
        // as zero-delay in the Fig. 12a-style series.
        if let Some(deadline) = self.slo_deadline {
            let now = m.now();
            let states = &mut self.states;
            let offloaded = &mut self.offloaded_total;
            let series = &mut self.queue_delay_series;
            let record_series = self.cfg.record_series;
            let mut shed = |q: &mut VecDeque<u32>| {
                q.retain(|&slot| {
                    let st = &mut states[slot as usize];
                    let age = now.since(st.t_inv);
                    if age >= deadline {
                        if st.first_pop_delay.is_none() {
                            st.first_pop_delay = Some(age);
                            if record_series {
                                series.record(st.t_inv, age.as_secs_f64());
                            }
                        }
                        st.offloaded = true;
                        st.loc = Loc::None;
                        *offloaded += 1;
                        false
                    } else {
                        true
                    }
                });
            };
            for q in self.queues.iter_mut() {
                shed(q);
            }
        }

        if freed {
            self.try_assign(m);
        }
        self.arm_poll(m);
    }

    /// Free worker `w` because its FILTER function blocked on I/O: record
    /// the unused slice, lower the function's priority, track it for wake
    /// detection, and let the worker fetch the next request.
    fn release_worker_for_io(&mut self, m: &mut MachineView<'_>, w: usize) {
        let Some(a) = self.free(w) else {
            return;
        };
        let used = m.cpu_time(a.pid).saturating_sub(a.cpu_at_start);
        let remaining = a.budget.saturating_sub(used);
        // "reduces its priority": back to CFS while it sleeps, so that when
        // the I/O completes it is runnable (work conservation) without
        // occupying the FILTER pool.
        m.set_policy(a.pid, Policy::NORMAL);
        let st = &mut self.states[a.slot as usize];
        st.slice_remaining = Some(remaining);
        st.io_blocks += 1;
        st.loc = Loc::Blocked;
        self.blocked.push(a.slot);
        self.try_assign(m);
    }

    fn work_pending(&self) -> bool {
        self.earliest.is_some()
            || !self.blocked.is_empty()
            || self.queues.iter().any(|q| !q.is_empty())
    }

    fn arm_poll(&mut self, m: &MachineView<'_>) {
        let poll_needed = self.cfg.io_aware || self.slo_deadline.is_some();
        if poll_needed && self.work_pending() && self.poll.is_none() {
            let armed = self.arm();
            self.poll = Some((m.now() + self.cfg.poll_interval, armed));
        }
    }

    /// Settle the poll tick due strictly before `now`, at an instant the
    /// driver crossed without a step because no live timer was due there.
    /// Such a tick could not act, so the tick-by-tick chain it heads is
    /// settled in closed form: each tick counts one poll and one status
    /// read per busy worker, and re-arms one interval later while work is
    /// pending. The re-armed tick takes its arming number before anything
    /// else is armed at `now`, the order the eager chain gives it. No slice
    /// timer can lie before `now`: each busy worker's is live, so reported.
    fn catch_up(&mut self, now: SimTime) {
        debug_assert_eq!(
            self.earliest,
            self.workers.iter().flatten().map(|a| a.expires).min(),
            "earliest slice expiry out of date"
        );
        debug_assert!(
            !self.earliest.is_some_and(|t| t < now),
            "live slice timer at {:?} skipped",
            self.earliest
        );
        let Some((at, _)) = self.poll.filter(|&(at, _)| at < now) else {
            return;
        };
        debug_assert!(!self.poll_live, "live poll tick at {at} skipped");
        self.poll = None;
        if !self.work_pending() {
            // Nothing to poll: the chain ends at its first tick.
            self.polls += 1;
            return;
        }
        let interval = self.cfg.poll_interval;
        let ticks = now.since(at).as_nanos().div_ceil(interval.as_nanos());
        self.polls += ticks;
        if self.cfg.io_aware {
            let busy = self.workers.iter().flatten().count();
            self.polled_tasks += ticks * busy as u64;
        }
        let armed = self.arm();
        self.poll = Some((at + interval * ticks, armed));
    }

    /// The timer due at `now` with the lowest arming number, if any. Every
    /// handler arms only strictly future timers (slice budgets and the poll
    /// interval are positive), so firing these one by one ends; a timer an
    /// earlier handler freed is no longer due.
    fn next_due(&self, now: SimTime) -> Option<Timer> {
        let poll = self
            .poll
            .filter(|&(at, _)| at <= now)
            .map(|(_, armed)| (armed, Timer::Poll));
        if !self.earliest.is_some_and(|t| t <= now) {
            return poll.map(|(_, timer)| timer);
        }
        let slices = self.workers.iter().enumerate().filter_map(|(w, a)| {
            a.filter(|a| a.expires <= now)
                .map(|a| (a.armed, Timer::Slice(w)))
        });
        slices
            .chain(poll)
            .min_by_key(|&(armed, _)| armed)
            .map(|(_, timer)| timer)
    }

    /// Recompute [`SfsController::poll_live`] at the end of a hook.
    fn refresh_liveness(&mut self, m: &MachineView<'_>) {
        self.poll_live = self.slo_deadline.is_some()
            || !self.blocked.is_empty()
            || self
                .workers
                .iter()
                .flatten()
                .any(|a| m.proc_state(a.pid) == ProcState::Sleeping);
    }
}

impl Controller for SfsController {
    fn name(&self) -> &'static str {
        if self.slo_deadline.is_some() {
            "sfs-slo"
        } else {
            "sfs"
        }
    }

    /// Step 1 of the flow: the process was dispatched to the OS; enqueue
    /// `(pid, T_inv)`.
    fn on_arrival(&mut self, m: &mut MachineView<'_>, req: &Request, pid: Pid) {
        let now = m.now();
        self.catch_up(now);
        let id = req.id;
        // Slab slot = pid: the sim spawns one process per request with
        // densely allocated pids, so this is a plain push in practice.
        let slot = pid.0 as usize;
        if self.states.len() <= slot {
            self.states.resize_with(slot + 1, ReqState::vacant);
        }
        self.states[slot] = ReqState {
            id,
            pid,
            t_inv: now,
            enqueued_at: now,
            slice_remaining: None,
            first_pop_delay: None,
            loc: Loc::None,
            demoted: false,
            offloaded: false,
            filter_rounds: 0,
            io_blocks: 0,
        };
        self.slice.on_arrival(now);
        self.enqueue_req(slot as u32);
        self.try_assign(m);
        self.arm_poll(m);
        self.refresh_liveness(m);
    }

    fn on_notification(&mut self, m: &mut MachineView<'_>, note: &Notification) {
        self.catch_up(m.now());
        if let Notification::Finished(rec) = note {
            let slot = rec.pid.0 as usize;
            debug_assert_eq!(self.states[slot].id, rec.label, "pid/slot mismatch");
            self.finished = Some(slot as u32);
            // Free the worker if this function was in a FILTER round.
            if let Some(w) = self
                .workers
                .iter()
                .position(|a| a.is_some_and(|a| a.pid == rec.pid))
            {
                self.free(w);
            }
            // Drop from queue/blocked tracking if it completed under CFS
            // while still queued (e.g. after an I/O round). The location
            // flag makes the common cases — finished in a FILTER round or
            // after a bypass — free instead of scanning every queue.
            match self.states[slot].loc {
                Loc::None => {}
                Loc::Queued => {
                    let s = slot as u32;
                    for q in self.queues.iter_mut() {
                        q.retain(|&x| x != s);
                    }
                    self.states[slot].loc = Loc::None;
                }
                Loc::Blocked => {
                    let s = slot as u32;
                    self.blocked.retain(|&b| b != s);
                    self.states[slot].loc = Loc::None;
                }
            }
            self.try_assign(m);
        }
        self.refresh_liveness(m);
    }

    /// The earliest live timer: a busy worker's slice expiry, or the poll
    /// tick when it could act.
    fn next_wakeup(&self) -> Option<SimTime> {
        let poll = self.poll.filter(|_| self.poll_live).map(|(at, _)| at);
        self.earliest.into_iter().chain(poll).min()
    }

    /// Fire every timer due now, lowest arming number first.
    fn on_wakeup(&mut self, m: &mut MachineView<'_>) {
        let now = m.now();
        self.catch_up(now);
        while let Some(timer) = self.next_due(now) {
            match timer {
                Timer::Slice(w) => self.on_slice_expiry(m, w),
                Timer::Poll => self.on_poll(m),
            }
        }
        self.refresh_liveness(m);
    }

    /// Reads the slot that the request's `Finished` notification named,
    /// which the driver delivers right before.
    fn annotate(&mut self, outcome: &mut RequestOutcome) {
        let slot = self
            .finished
            .take()
            .expect("annotate follows the request's Finished notification");
        let st = &self.states[slot as usize];
        debug_assert_eq!(
            st.id, outcome.id,
            "annotated request is not the finished one"
        );
        outcome.queue_delay = st.first_pop_delay.unwrap_or(SimDuration::ZERO);
        outcome.demoted = st.demoted;
        outcome.offloaded = st.offloaded;
        outcome.filter_rounds = st.filter_rounds;
        outcome.io_blocks = st.io_blocks;
    }

    fn finish(&mut self, telemetry: &mut Telemetry) {
        telemetry.polls = self.polls;
        telemetry.polled_tasks = self.polled_tasks;
        telemetry.offloaded = self.offloaded_total;
        telemetry.demoted = self.demoted_total;
        telemetry.slice_recalcs = self.slice.recalcs();
        telemetry.slice_timeline = self.slice.slice_timeline().clone();
        telemetry.iat_timeline = self.slice.iat_timeline().clone();
        telemetry.queue_delay_series = std::mem::replace(
            &mut self.queue_delay_series,
            TimeSeries::new("queue_delay_s"),
        );
    }
}

impl crate::sim::ControllerFactory for SfsConfig {
    fn build(&self) -> Box<dyn Controller> {
        Box::new(SfsController::new(*self))
    }

    fn label(&self) -> String {
        "SFS".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_sched::{FinishedTask, Machine, MachineParams, Phase, TaskSpec};
    use sfs_workload::AppKind;

    /// A request whose process computes for a day, so it never finishes on
    /// its own.
    fn spawn_request(machine: &mut Machine, id: u64) -> (Pid, Request) {
        let spec = TaskSpec {
            phases: vec![Phase::Cpu(SimDuration::from_secs(86_400))],
            policy: Policy::NORMAL,
            label: id,
        };
        let pid = machine.spawn(spec.clone());
        let req = Request {
            id,
            arrival: machine.now(),
            app: AppKind::Fib,
            duration_ms: 1.0,
            injected_io_ms: None,
            cold_start_ms: None,
            spec,
        };
        (pid, req)
    }

    fn finished(pid: Pid, id: u64) -> Notification {
        Notification::Finished(Box::new(FinishedTask {
            pid,
            label: id,
            arrival: SimTime::ZERO,
            first_run: Some(SimTime::ZERO),
            finished: SimTime::ZERO,
            cpu_time: SimDuration::ZERO,
            io_time: SimDuration::ZERO,
            cpu_demand: SimDuration::ZERO,
            ideal: SimDuration::ZERO,
            ctx_switches: 0,
            migrations: 0,
        }))
    }

    /// Worker 1's slice timer, worker 0's and the poll tick fall due at
    /// 8 ms, armed in that order. Fired in arming order, worker 1 demotes
    /// first and takes the queued request, worker 0 demotes into an empty
    /// queue, and the poll then reads one busy worker. Any other order
    /// leaves the request on worker 0 or lets the poll read two.
    #[test]
    fn timers_due_at_one_instant_fire_in_arming_order() {
        let mut machine = Machine::new(MachineParams::linux(2));
        let mut ctl = SfsController::new(SfsConfig::new(2).with_fixed_slice(8));
        let mut actions = 0;
        let [a, b, c, x] = [0, 1, 2, 3].map(|id| spawn_request(&mut machine, id));
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);

        let mut view = MachineView::new(&mut machine, &mut actions);
        ctl.on_arrival(&mut view, &a.1, a.0); // worker 0, then the poll
        ctl.on_arrival(&mut view, &b.1, b.0); // worker 1
        ctl.on_notification(&mut view, &finished(a.0, 0)); // frees worker 0
        ctl.on_arrival(&mut view, &c.1, c.0); // worker 0 again
        ctl.on_arrival(&mut view, &x.1, x.0); // queued
        let slice = |ctl: &SfsController, w: usize| ctl.workers[w].map(|t| (t.pid, t.expires));
        assert_eq!(slice(&ctl, 0), Some((c.0, ms(8))));
        assert_eq!(slice(&ctl, 1), Some((b.0, ms(8))));
        assert!(ctl.workers[1].unwrap().armed < ctl.workers[0].unwrap().armed);

        machine.advance_to(ms(4));
        ctl.on_wakeup(&mut MachineView::new(&mut machine, &mut actions));
        assert_eq!(ctl.poll.map(|(at, _)| at), Some(ms(8)), "re-armed last");
        assert_eq!(ctl.next_wakeup(), Some(ms(8)));

        let polled = ctl.polled_tasks;
        machine.advance_to(ms(8));
        ctl.on_wakeup(&mut MachineView::new(&mut machine, &mut actions));
        assert_eq!(slice(&ctl, 1), Some((x.0, ms(16))), "worker 1 fired first");
        assert_eq!(slice(&ctl, 0), None, "worker 0 fired second");
        assert_eq!(ctl.polled_tasks - polled, 1, "the poll fired last");
        assert_eq!(ctl.demoted_total, 2);
        assert_eq!(ctl.next_wakeup(), Some(ms(16)));
    }
}
