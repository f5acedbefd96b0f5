//! Differential suite for the kernel-policy refactor.
//!
//! The `reference` module below embeds the machine as it existed *before*
//! the scheduling disciplines were extracted behind the [`KernelPolicy`]
//! trait: a verbatim port of the pre-refactor `machine.rs` (hard-wired
//! `SchedMode::{Linux, Srtf}` dispatch, CFS/RT/SRTF logic inlined), with
//! only the observability extras (tracing, streaming retention) stripped.
//!
//! The driver generates randomized workloads — mixed CPU/IO phase shapes,
//! mixed `SCHED_NORMAL`/`SCHED_FIFO`/`SCHED_RR` policies, and mid-run
//! `set_policy` promotions/demotions at random instants — and replays the
//! identical operation sequence on both machines. Every notification, every
//! completion record, and the machine-wide context-switch total must match
//! bit-for-bit. This is the lock proving the ported CFS and SRTF policies
//! are the same schedulers, not merely similar ones. The machine's
//! completion records are the ones its `Finished` notifications carry; the
//! reference machine still keeps its own log of them.

use sfs_sched::{
    FinishedTask, KernelPolicyKind, Machine, MachineParams, Notification, Phase, Policy, SmpParams,
    TaskSpec,
};
use sfs_simcore::{SimDuration, SimRng, SimTime};

#[path = "support/open_loop.rs"]
mod open_loop;
use open_loop::completions;

/// The pre-refactor machine, ported from the tree at the commit preceding
/// the kernel-policy extraction. Scheduling decisions are hard-wired per
/// `SchedMode`; everything else (event loop, accounting, contention, SMP
/// balancing) is byte-equivalent to the current machine core.
mod reference {
    #![allow(dead_code)]

    use std::collections::BTreeSet;

    use sfs_sched::smp::pick_imbalance;
    use sfs_sched::{
        weight_of_nice, CfsParams, CfsRunqueue, FinishedTask, Phase, Pid, Policy, ProcState,
        RtRunqueue, SmpParams, TaskSpec, RR_TIMESLICE,
    };
    use sfs_simcore::{EventQueue, SimDuration, SimTime};

    /// Scheduling regime for the whole machine (pre-refactor selector).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SchedMode {
        Linux,
        Srtf,
    }

    #[derive(Debug, Clone, Copy)]
    pub struct RefParams {
        pub cores: usize,
        pub cfs: CfsParams,
        pub ctx_switch_cost: SimDuration,
        pub contention_beta: f64,
        pub contention_cap: f64,
        pub mode: SchedMode,
        pub smp: SmpParams,
    }

    impl Default for RefParams {
        fn default() -> Self {
            RefParams {
                cores: 4,
                cfs: CfsParams::default(),
                ctx_switch_cost: SimDuration::from_micros(5),
                contention_beta: 0.0,
                contention_cap: 6.0,
                mode: SchedMode::Linux,
                smp: SmpParams::default(),
            }
        }
    }

    /// Pre-refactor copy of the crate-private `Task` bookkeeping struct.
    #[derive(Debug, Clone)]
    struct Task {
        pid: Pid,
        label: u64,
        phases: Vec<Phase>,
        phase_idx: usize,
        phase_rem: SimDuration,
        policy: Policy,
        state: ProcState,
        arrival: SimTime,
        first_run: Option<SimTime>,
        cpu_time: SimDuration,
        io_time: SimDuration,
        cpu_demand: SimDuration,
        ideal: SimDuration,
        vruntime: u64,
        ctx_switches: u64,
        migrations: u64,
        home_core: Option<usize>,
        last_core: Option<usize>,
        pending_migration_cost: SimDuration,
    }

    impl Task {
        fn new(pid: Pid, spec: TaskSpec, now: SimTime) -> Task {
            let cpu_demand = spec.cpu_demand();
            let ideal = spec.ideal_duration();
            let phase_rem = spec.phases[0].duration();
            Task {
                pid,
                label: spec.label,
                phases: spec.phases,
                phase_idx: 0,
                phase_rem,
                policy: spec.policy,
                state: ProcState::Runnable,
                arrival: now,
                first_run: None,
                cpu_time: SimDuration::ZERO,
                io_time: SimDuration::ZERO,
                cpu_demand,
                ideal,
                vruntime: 0,
                ctx_switches: 0,
                migrations: 0,
                home_core: None,
                last_core: None,
                pending_migration_cost: SimDuration::ZERO,
            }
        }

        fn phase(&self) -> Option<Phase> {
            self.phases.get(self.phase_idx).copied()
        }

        fn remaining_cpu(&self) -> SimDuration {
            let mut rem = SimDuration::ZERO;
            for (i, p) in self.phases.iter().enumerate().skip(self.phase_idx) {
                if p.is_cpu() {
                    if i == self.phase_idx {
                        rem += self.phase_rem;
                    } else {
                        rem += p.duration();
                    }
                }
            }
            rem
        }

        fn finished_record(&self, finished: SimTime) -> FinishedTask {
            debug_assert_eq!(self.state, ProcState::Dead);
            FinishedTask {
                pid: self.pid,
                label: self.label,
                arrival: self.arrival,
                first_run: self.first_run,
                finished,
                cpu_time: self.cpu_time,
                io_time: self.io_time,
                cpu_demand: self.cpu_demand,
                ideal: self.ideal,
                ctx_switches: self.ctx_switches,
                migrations: self.migrations,
            }
        }
    }

    /// Same shape as the crate's `Notification`; variant Debug output is
    /// identical, which is what the differential digest compares.
    #[derive(Debug, Clone)]
    pub enum Notification {
        FirstRun(Pid, SimTime),
        Blocked(Pid, SimTime),
        Woke(Pid, SimTime),
        Finished(Box<FinishedTask>),
    }

    #[derive(Debug, Clone)]
    enum Ev {
        CoreFire { core: usize, gen: u64 },
        Wake { pid: Pid, io: SimDuration },
        Balance,
    }

    #[derive(Debug, Clone)]
    struct Core {
        current: Option<Pid>,
        gen: u64,
        last_ran: Option<Pid>,
        run_start: SimTime,
        slice_start: SimTime,
        slice_end: SimTime,
        clock: SimTime,
        cfs: CfsRunqueue,
    }

    impl Core {
        fn new() -> Core {
            Core {
                current: None,
                gen: 0,
                last_ran: None,
                run_start: SimTime::ZERO,
                slice_start: SimTime::ZERO,
                slice_end: SimTime::MAX,
                clock: SimTime::ZERO,
                cfs: CfsRunqueue::new(),
            }
        }

        fn cfs_nr(&self, running_is_cfs: bool) -> u64 {
            self.cfs.len() as u64 + u64::from(running_is_cfs)
        }
    }

    /// The pre-refactor simulated machine.
    #[derive(Debug)]
    pub struct RefMachine {
        params: RefParams,
        now: SimTime,
        tasks: Vec<Task>,
        cores: Vec<Core>,
        rt: RtRunqueue,
        srtf_pool: BTreeSet<(u64, Pid)>,
        events: EventQueue<Ev>,
        out: Vec<Notification>,
        finished: Vec<FinishedTask>,
        total_ctx_switches: u64,
        balance_migrations: u64,
        balance_armed: bool,
        live_tasks: usize,
        active_tasks: usize,
    }

    impl RefMachine {
        pub fn new(params: RefParams) -> RefMachine {
            assert!(params.cores >= 1, "machine needs at least one core");
            RefMachine {
                cores: (0..params.cores).map(|_| Core::new()).collect(),
                params,
                now: SimTime::ZERO,
                tasks: Vec::new(),
                rt: RtRunqueue::new(),
                srtf_pool: BTreeSet::new(),
                events: EventQueue::new(),
                out: Vec::new(),
                finished: Vec::new(),
                total_ctx_switches: 0,
                balance_migrations: 0,
                balance_armed: false,
                live_tasks: 0,
                active_tasks: 0,
            }
        }

        fn contention_factor(&self) -> f64 {
            if self.params.contention_beta <= 0.0 || self.active_tasks <= self.params.cores {
                return 1.0;
            }
            let ratio = self.active_tasks as f64 / self.params.cores as f64;
            (1.0 + self.params.contention_beta * ratio.log2()).min(self.params.contention_cap)
        }

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

        pub fn finished(&self) -> &[FinishedTask] {
            &self.finished
        }

        pub fn total_ctx_switches(&self) -> u64 {
            self.total_ctx_switches
        }

        pub fn balance_migrations(&self) -> u64 {
            self.balance_migrations
        }

        pub fn assert_conservation(&self) {
            for (i, c) in self.cores.iter().enumerate() {
                if let Some(pid) = c.current {
                    assert_eq!(self.task(pid).state, ProcState::Running);
                    assert_eq!(self.task(pid).home_core, Some(i));
                }
            }
            for t in &self.tasks {
                let queued_cfs = self.cores.iter().filter(|c| c.cfs.contains(t.pid)).count();
                let queued_rt = usize::from(self.rt.contains(t.pid));
                let queued_srtf = self.srtf_pool.iter().filter(|&&(_, p)| p == t.pid).count();
                let running = self
                    .cores
                    .iter()
                    .filter(|c| c.current == Some(t.pid))
                    .count();
                let places = queued_cfs + queued_rt + queued_srtf + running;
                match t.state {
                    ProcState::Running => assert_eq!((running, places), (1, 1)),
                    ProcState::Runnable => assert_eq!((running, places), (0, 1)),
                    ProcState::Sleeping | ProcState::Dead => assert_eq!(places, 0),
                }
            }
        }

        pub fn spawn(&mut self, spec: TaskSpec) -> Pid {
            spec.validate().expect("invalid task spec");
            let pid = Pid(self.tasks.len() as u64);
            let task = Task::new(pid, spec, self.now);
            let leading_io = task.phase();
            self.live_tasks += 1;
            if self.params.smp.balancing()
                && self.params.mode == SchedMode::Linux
                && !self.balance_armed
            {
                self.balance_armed = true;
                self.events
                    .push(self.now + self.params.smp.balance_interval, Ev::Balance);
            }
            self.active_tasks += 1; // Task::new starts Runnable
            self.tasks.push(task);
            if let Some(Phase::Io(d)) = leading_io {
                self.set_state(pid, ProcState::Sleeping);
                self.events.push(self.now + d, Ev::Wake { pid, io: d });
            } else {
                self.make_runnable(pid);
            }
            pid
        }

        pub fn set_policy(&mut self, pid: Pid, policy: Policy) {
            if self.task(pid).state == ProcState::Dead || self.task(pid).policy == policy {
                self.task_mut(pid).policy = policy;
                return;
            }
            if self.params.mode == SchedMode::Srtf {
                self.task_mut(pid).policy = policy;
                return;
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
                    if old.is_realtime() && !policy.is_realtime() {
                        self.preempt_current(core_id);
                        self.reschedule(core_id);
                    } else {
                        self.cores[core_id].slice_start = self.now;
                        self.cores[core_id].slice_end = match policy {
                            Policy::Fifo { .. } => SimTime::MAX,
                            Policy::Rr { .. } => self.now + RR_TIMESLICE,
                            Policy::Normal { nice } => {
                                let c = &self.cores[core_id];
                                let w = weight_of_nice(nice);
                                let nr = c.cfs_nr(true);
                                let total = c.cfs.total_weight() + w as u64;
                                self.now + self.params.cfs.slice(nr, w, total)
                            }
                        };
                        self.cores[core_id].gen += 1;
                        self.arm_core_event(core_id);
                    }
                }
                ProcState::Dead => unreachable!(),
            }
        }

        pub fn proc_state(&self, pid: Pid) -> ProcState {
            self.task(pid).state
        }

        pub fn cpu_time(&self, pid: Pid) -> SimDuration {
            let t = self.task(pid);
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

        pub fn advance_to(&mut self, t: SimTime) -> Vec<Notification> {
            debug_assert!(t >= self.now, "time must not go backwards");
            while let Some((at, ev)) = self.events.pop_until(t) {
                self.now = at;
                self.handle(ev);
            }
            self.now = t;
            std::mem::take(&mut self.out)
        }

        pub fn run_until_quiescent(&mut self) -> Vec<Notification> {
            while let Some((at, ev)) = self.events.pop() {
                self.now = at;
                self.handle(ev);
            }
            std::mem::take(&mut self.out)
        }

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

        fn weight(&self, pid: Pid) -> u32 {
            match self.task(pid).policy {
                Policy::Normal { nice } => weight_of_nice(nice),
                _ => weight_of_nice(0),
            }
        }

        fn charge(&mut self, core_id: usize) {
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
            let weight = self.weight(pid);
            let is_cfs = !self.task(pid).policy.is_realtime();
            let progress = ran.mul_f64(1.0 / self.contention_factor());
            let t = self.task_mut(pid);
            t.cpu_time += ran;
            t.phase_rem = t.phase_rem.saturating_sub(progress);
            if is_cfs {
                t.vruntime += CfsParams::vruntime_delta(ran, weight);
                let v = t.vruntime;
                let leftmost = self.cores[core_id].cfs.peek().map(|(lv, _)| lv);
                let floor = leftmost.map_or(v, |lv| lv.min(v));
                self.cores[core_id].cfs.advance_min_vruntime(floor);
            }
        }

        fn make_runnable(&mut self, pid: Pid) {
            self.set_state(pid, ProcState::Runnable);
            match self.params.mode {
                SchedMode::Srtf => self.enqueue_srtf(pid),
                SchedMode::Linux => match self.task(pid).policy {
                    Policy::Fifo { prio } | Policy::Rr { prio } => {
                        self.enqueue_rt(pid, prio, false)
                    }
                    Policy::Normal { .. } => self.enqueue_cfs(pid),
                },
            }
        }

        fn dequeue_runnable(&mut self, pid: Pid) {
            debug_assert_eq!(self.task(pid).state, ProcState::Runnable);
            if self.params.mode == SchedMode::Srtf {
                let key = (self.task(pid).remaining_cpu().as_nanos(), pid);
                self.srtf_pool.remove(&key);
                return;
            }
            if self.task(pid).policy.is_realtime() {
                self.rt.remove(pid);
            } else if let Some(core_id) = self.task(pid).home_core {
                let v = self.task(pid).vruntime;
                self.cores[core_id].cfs.remove(pid, v);
            }
        }

        fn enqueue_srtf(&mut self, pid: Pid) {
            let rem = self.task(pid).remaining_cpu().as_nanos();
            self.srtf_pool.insert((rem, pid));
            if let Some(idle) = self.cores.iter().position(|c| c.current.is_none()) {
                self.reschedule(idle);
                return;
            }
            let victim = (0..self.cores.len()).max_by_key(|&i| {
                let vpid = self.cores[i].current.expect("no idle cores");
                self.remaining_running(i, vpid)
            });
            if let Some(vc) = victim {
                let vpid = self.cores[vc].current.expect("no idle cores");
                if self.remaining_running(vc, vpid) > self.task(pid).remaining_cpu().as_nanos() {
                    self.charge(vc);
                    self.preempt_current(vc);
                    self.reschedule(vc);
                }
            }
        }

        fn remaining_running(&self, core_id: usize, pid: Pid) -> u64 {
            let t = self.task(pid);
            let c = &self.cores[core_id];
            let inflight = if self.now > c.run_start {
                (self.now - c.run_start).as_nanos()
            } else {
                0
            };
            t.remaining_cpu().as_nanos().saturating_sub(inflight)
        }

        fn enqueue_rt(&mut self, pid: Pid, prio: u8, resumed: bool) {
            if resumed {
                self.rt.push_front(pid, prio);
            } else {
                self.rt.push_back(pid, prio);
            }
            if let Some(idle) = self.cores.iter().position(|c| c.current.is_none()) {
                self.reschedule(idle);
                return;
            }
            let cfs_victim = (0..self.cores.len()).find(|&i| {
                let vpid = self.cores[i].current.expect("no idle cores");
                !self.task(vpid).policy.is_realtime()
            });
            if let Some(vc) = cfs_victim {
                self.charge(vc);
                self.preempt_current(vc);
                self.reschedule(vc);
                return;
            }
            let (vc, vprio) = (0..self.cores.len())
                .map(|i| {
                    let vpid = self.cores[i].current.expect("no idle cores");
                    (i, self.task(vpid).policy.rt_prio().unwrap_or(0))
                })
                .min_by_key(|&(_, p)| p)
                .expect("at least one core");
            if self.rt.would_preempt(vprio) {
                let _ = vc;
                self.charge(vc);
                self.preempt_current(vc);
                self.reschedule(vc);
            }
        }

        fn enqueue_cfs(&mut self, pid: Pid) {
            let core_id = (0..self.cores.len())
                .min_by_key(|&i| {
                    let c = &self.cores[i];
                    let running_cfs = c
                        .current
                        .is_some_and(|p| !self.task(p).policy.is_realtime());
                    c.cfs_nr(running_cfs)
                })
                .expect("at least one core");
            let floor = self.cores[core_id]
                .cfs
                .place_vruntime(self.task(pid).vruntime);
            self.task_mut(pid).vruntime = floor;
            if self.task(pid).home_core != Some(core_id) && self.task(pid).first_run.is_some() {
                self.task_mut(pid).migrations += 1;
            }
            self.task_mut(pid).home_core = Some(core_id);
            let w = self.weight(pid);
            self.cores[core_id].cfs.enqueue(pid, floor, w);

            let core = &self.cores[core_id];
            match core.current {
                None => self.reschedule(core_id),
                Some(curr) if !self.task(curr).policy.is_realtime() => {
                    let curr_v = self.running_vruntime(core_id, curr);
                    let gran = self.params.cfs.wakeup_granularity.as_nanos();
                    if floor + gran < curr_v {
                        self.charge(core_id);
                        self.preempt_current(core_id);
                        self.reschedule(core_id);
                    } else {
                        self.refresh_current_slice(core_id);
                    }
                }
                Some(_) => {} // RT running: CFS task waits.
            }
        }

        fn refresh_current_slice(&mut self, core_id: usize) {
            let Some(pid) = self.cores[core_id].current else {
                return;
            };
            let Policy::Normal { nice } = self.task(pid).policy else {
                return;
            };
            if self.params.mode == SchedMode::Srtf {
                return;
            }
            let w = weight_of_nice(nice);
            let (nr, total) = {
                let c = &self.cores[core_id];
                (c.cfs_nr(true), c.cfs.total_weight() + w as u64)
            };
            let slice = self.params.cfs.slice(nr, w, total);
            let new_end = self.cores[core_id].slice_start + slice;
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

        fn running_vruntime(&self, core_id: usize, pid: Pid) -> u64 {
            let t = self.task(pid);
            let c = &self.cores[core_id];
            let inflight = if self.now > c.run_start {
                CfsParams::vruntime_delta(self.now - c.run_start, self.weight(pid))
            } else {
                0
            };
            t.vruntime + inflight
        }

        fn preempt_current(&mut self, core_id: usize) {
            let Some(pid) = self.cores[core_id].current.take() else {
                return;
            };
            self.cores[core_id].gen += 1;
            self.set_state(pid, ProcState::Runnable);
            let others_waiting = !self.rt.is_empty()
                || !self.srtf_pool.is_empty()
                || self.cores.iter().any(|c| !c.cfs.is_empty());
            if others_waiting {
                self.task_mut(pid).ctx_switches += 1;
                self.total_ctx_switches += 1;
            }
            match self.params.mode {
                SchedMode::Srtf => {
                    let rem = self.task(pid).remaining_cpu().as_nanos();
                    self.srtf_pool.insert((rem, pid));
                }
                SchedMode::Linux => match self.task(pid).policy {
                    Policy::Fifo { prio } => self.rt.push_front(pid, prio),
                    Policy::Rr { prio } => self.rt.push_front(pid, prio),
                    Policy::Normal { .. } => {
                        let floor = self.cores[core_id]
                            .cfs
                            .place_vruntime(self.task(pid).vruntime);
                        self.task_mut(pid).vruntime = floor;
                        self.task_mut(pid).home_core = Some(core_id);
                        let w = self.weight(pid);
                        self.cores[core_id].cfs.enqueue(pid, floor, w);
                    }
                },
            }
        }

        fn reschedule(&mut self, core_id: usize) {
            debug_assert!(self.cores[core_id].current.is_none());
            let next = match self.params.mode {
                SchedMode::Srtf => self.srtf_pool.pop_first().map(|(_, p)| p),
                SchedMode::Linux => {
                    if let Some((pid, _)) = self.rt.pop() {
                        Some(pid)
                    } else if let Some((_, pid)) = self.cores[core_id].cfs.pop() {
                        Some(pid)
                    } else {
                        self.steal_for(core_id)
                    }
                }
            };
            match next {
                Some(pid) => self.dispatch(core_id, pid),
                None => {
                    self.cores[core_id].gen += 1; // invalidate stale fires
                }
            }
        }

        fn steal_for(&mut self, core_id: usize) -> Option<Pid> {
            let victim = (0..self.cores.len())
                .filter(|&i| i != core_id && !self.cores[i].cfs.is_empty())
                .max_by_key(|&i| self.cores[i].cfs.len())?;
            let (v, pid) = self.cores[victim].cfs.pop_last()?;
            self.task_mut(pid).migrations += 1;
            self.task_mut(pid).home_core = Some(core_id);
            let placed = self.cores[core_id].cfs.place_vruntime(v);
            self.task_mut(pid).vruntime = placed;
            Some(pid)
        }

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
            if !self.params.smp.affinity_cost.is_zero()
                && self.task(pid).last_core.is_some_and(|c| c != core_id)
            {
                cost += self.params.smp.affinity_cost;
            }
            cost += std::mem::take(&mut self.task_mut(pid).pending_migration_cost);
            let start = self.now + cost;
            {
                let c = &mut self.cores[core_id];
                c.current = Some(pid);
                c.last_ran = Some(pid);
                c.gen += 1;
                c.run_start = start;
                c.slice_start = start;
                c.clock = c.clock.max(start);
            }
            self.set_state(pid, ProcState::Running);
            self.task_mut(pid).home_core = Some(core_id);
            self.task_mut(pid).last_core = Some(core_id);
            if self.task(pid).first_run.is_none() {
                self.task_mut(pid).first_run = Some(self.now);
                self.out.push(Notification::FirstRun(pid, self.now));
            }
            let slice_end = match self.params.mode {
                SchedMode::Srtf => SimTime::MAX,
                SchedMode::Linux => match self.task(pid).policy {
                    Policy::Fifo { .. } => SimTime::MAX,
                    Policy::Rr { .. } => start + RR_TIMESLICE,
                    Policy::Normal { nice } => {
                        let c = &self.cores[core_id];
                        let w = weight_of_nice(nice);
                        let nr = c.cfs_nr(true);
                        let total = c.cfs.total_weight() + w as u64;
                        start + self.params.cfs.slice(nr, w, total)
                    }
                },
            };
            self.cores[core_id].slice_end = slice_end;
            self.arm_core_event(core_id);
        }

        fn arm_core_event(&mut self, core_id: usize) {
            let Some(pid) = self.cores[core_id].current else {
                return;
            };
            let f = self.contention_factor();
            let c = &self.cores[core_id];
            let phase_end = c.run_start + self.task(pid).phase_rem.mul_f64(f);
            let fire = phase_end.min(c.slice_end);
            let gen = c.gen;
            self.events.push(fire, Ev::CoreFire { core: core_id, gen });
        }

        fn handle(&mut self, ev: Ev) {
            match ev {
                Ev::CoreFire { core, gen } => {
                    if self.cores[core].gen != gen || self.cores[core].current.is_none() {
                        return; // stale
                    }
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

        fn balance_tick(&mut self) {
            self.balance_armed = false;
            if self.live_tasks > 0 {
                self.balance_armed = true;
                self.events
                    .push(self.now + self.params.smp.balance_interval, Ev::Balance);
            }
            let depths: Vec<u64> = self.cores.iter().map(|c| c.cfs.len() as u64).collect();
            let Some((src, dst)) = pick_imbalance(&depths, self.params.smp.balance_threshold)
            else {
                return;
            };
            let Some((v, pid)) = self.cores[src].cfs.pop_last() else {
                return;
            };
            self.task_mut(pid).migrations += 1;
            self.balance_migrations += 1;
            let mig_cost = self.params.smp.migration_cost;
            self.task_mut(pid).pending_migration_cost += mig_cost;
            let placed = self.cores[dst].cfs.place_vruntime(v);
            self.task_mut(pid).vruntime = placed;
            self.task_mut(pid).home_core = Some(dst);
            let w = self.weight(pid);
            self.cores[dst].cfs.enqueue(pid, placed, w);
            match self.cores[dst].current {
                None => self.reschedule(dst),
                Some(curr) if !self.task(curr).policy.is_realtime() => {
                    self.refresh_current_slice(dst);
                }
                Some(_) => {}
            }
        }

        fn phase_complete(&mut self, core_id: usize, pid: Pid) {
            let next_idx = self.task(pid).phase_idx + 1;
            self.task_mut(pid).phase_idx = next_idx;
            match self.task(pid).phases.get(next_idx).copied() {
                None => {
                    self.cores[core_id].current = None;
                    self.cores[core_id].gen += 1;
                    self.set_state(pid, ProcState::Dead);
                    self.task_mut(pid).home_core = None;
                    self.live_tasks -= 1;
                    let rec = self.task(pid).finished_record(self.now);
                    self.finished.push(rec.clone());
                    self.out.push(Notification::Finished(Box::new(rec)));
                    self.reschedule(core_id);
                }
                Some(Phase::Io(d)) => {
                    self.cores[core_id].current = None;
                    self.cores[core_id].gen += 1;
                    self.set_state(pid, ProcState::Sleeping);
                    self.task_mut(pid).phase_rem = d;
                    self.out.push(Notification::Blocked(pid, self.now));
                    self.events.push(self.now + d, Ev::Wake { pid, io: d });
                    self.reschedule(core_id);
                }
                Some(Phase::Cpu(d)) => {
                    self.task_mut(pid).phase_rem = d;
                    self.cores[core_id].gen += 1;
                    self.arm_core_event(core_id);
                }
            }
        }

        fn slice_expired(&mut self, core_id: usize, pid: Pid) {
            let unsliced = self.params.mode == SchedMode::Srtf
                || matches!(self.task(pid).policy, Policy::Fifo { .. });
            if unsliced && self.cores[core_id].slice_end == SimTime::MAX {
                self.cores[core_id].gen += 1;
                self.arm_core_event(core_id);
                return;
            }
            let has_competition = match self.params.mode {
                SchedMode::Srtf => false, // SRTF never slices
                SchedMode::Linux => {
                    !self.rt.is_empty()
                        || !self.cores[core_id].cfs.is_empty()
                        || self
                            .cores
                            .iter()
                            .enumerate()
                            .any(|(i, c)| i != core_id && c.cfs.len() > 1)
                }
            };
            if !has_competition {
                let renew = match self.task(pid).policy {
                    Policy::Rr { .. } => RR_TIMESLICE,
                    Policy::Normal { nice } => {
                        let w = weight_of_nice(nice);
                        self.params.cfs.slice(1, w, w as u64)
                    }
                    Policy::Fifo { .. } => SimDuration::MAX,
                };
                self.cores[core_id].slice_start = self.now;
                self.cores[core_id].slice_end = self.now.saturating_add(renew);
                self.cores[core_id].gen += 1;
                self.arm_core_event(core_id);
                return;
            }
            match self.task(pid).policy {
                Policy::Rr { prio } => {
                    self.cores[core_id].current = None;
                    self.cores[core_id].gen += 1;
                    self.set_state(pid, ProcState::Runnable);
                    self.task_mut(pid).ctx_switches += 1;
                    self.total_ctx_switches += 1;
                    self.rt.push_back(pid, prio);
                    self.reschedule(core_id);
                }
                _ => {
                    self.preempt_current(core_id);
                    self.reschedule(core_id);
                }
            }
        }

        fn wake(&mut self, pid: Pid, io: SimDuration) {
            debug_assert_eq!(self.task(pid).state, ProcState::Sleeping);
            self.task_mut(pid).io_time += io;
            let next_idx = self.task(pid).phase_idx + 1;
            self.task_mut(pid).phase_idx = next_idx;
            match self.task(pid).phases.get(next_idx).copied() {
                None => {
                    self.set_state(pid, ProcState::Dead);
                    self.task_mut(pid).home_core = None;
                    self.live_tasks -= 1;
                    let rec = self.task(pid).finished_record(self.now);
                    self.finished.push(rec.clone());
                    self.out.push(Notification::Finished(Box::new(rec)));
                }
                Some(Phase::Cpu(d)) => {
                    self.task_mut(pid).phase_rem = d;
                    self.out.push(Notification::Woke(pid, self.now));
                    self.make_runnable(pid);
                }
                Some(Phase::Io(d)) => {
                    self.task_mut(pid).phase_rem = d;
                    self.events.push(self.now + d, Ev::Wake { pid, io: d });
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Differential driver
// ----------------------------------------------------------------------

#[path = "support/rotation.rs"]
mod rotation;
use rotation::{rotation_ops, Op};

fn random_policy(rng: &mut SimRng) -> Policy {
    if rng.chance(0.65) {
        Policy::Normal {
            nice: rng.uniform_u64(0, 10) as i8 - 5,
        }
    } else if rng.chance(0.5) {
        Policy::Fifo {
            prio: rng.uniform_u64(1, 99) as u8,
        }
    } else {
        Policy::Rr {
            prio: rng.uniform_u64(1, 99) as u8,
        }
    }
}

fn random_spec(rng: &mut SimRng, label: u64) -> TaskSpec {
    let n_phases = rng.uniform_u64(1, 4) as usize;
    let mut phases = Vec::with_capacity(n_phases);
    for _ in 0..n_phases {
        let d = SimDuration::from_micros(rng.uniform_u64(50, 15_000));
        if rng.chance(0.7) {
            phases.push(Phase::Cpu(d));
        } else {
            phases.push(Phase::Io(d));
        }
    }
    if !phases.iter().any(|p| p.is_cpu()) {
        let d = SimDuration::from_micros(rng.uniform_u64(50, 15_000));
        *phases.last_mut().expect("n_phases >= 1") = Phase::Cpu(d);
    }
    TaskSpec {
        phases,
        policy: random_policy(rng),
        label,
    }
}

/// A randomized op timeline: ~80 spawns with mixed phase shapes and
/// policies, interleaved with policy switches (promotions, demotions,
/// priority changes) at random instants.
fn random_ops(seed: u64) -> Vec<(SimTime, Op)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut t = SimTime::ZERO;
    let mut spawned = 0usize;
    for i in 0..110u64 {
        t += SimDuration::from_micros(rng.uniform_u64(0, 4_000));
        if spawned == 0 || rng.chance(0.72) {
            ops.push((t, Op::Spawn(random_spec(&mut rng, i))));
            spawned += 1;
        } else {
            let target = rng.uniform_u64(0, spawned as u64 - 1) as usize;
            ops.push((t, Op::SetPolicy(target, random_policy(&mut rng))));
        }
    }
    ops
}

/// Debug-format digest of a notification stream. The reference module's
/// `Notification` mirrors the crate's variant-for-variant, so equal streams
/// produce equal digests and any divergence pinpoints the first differing
/// event.
fn digest<T: std::fmt::Debug>(notes: &[T]) -> Vec<String> {
    notes.iter().map(|n| format!("{n:?}")).collect()
}

struct RunResult {
    notes: Vec<String>,
    finished: Vec<String>,
    ctx_switches: u64,
}

fn run_new(
    kpolicy: KernelPolicyKind,
    cores: usize,
    smp: SmpParams,
    beta: f64,
    ops: &[(SimTime, Op)],
) -> RunResult {
    let params = MachineParams {
        cores,
        kpolicy,
        contention_beta: beta,
        ..Default::default()
    }
    .with_smp(smp);
    let mut m = Machine::new(params);
    let mut pids = Vec::new();
    let mut notes: Vec<Notification> = Vec::new();
    for (t, op) in ops {
        notes.extend(m.advance_to(*t));
        match op {
            Op::Spawn(spec) => pids.push(m.spawn(spec.clone())),
            Op::SetPolicy(i, p) => m.set_policy(pids[*i], *p),
        }
    }
    notes.extend(m.run_until_quiescent());
    m.assert_conservation();
    RunResult {
        notes: digest(&notes),
        finished: digest(&completions(&notes)),
        ctx_switches: m.total_ctx_switches(),
    }
}

fn run_reference(
    mode: reference::SchedMode,
    cores: usize,
    smp: SmpParams,
    beta: f64,
    ops: &[(SimTime, Op)],
) -> RunResult {
    let params = reference::RefParams {
        cores,
        mode,
        contention_beta: beta,
        smp,
        ..Default::default()
    };
    let mut m = reference::RefMachine::new(params);
    let mut pids = Vec::new();
    let mut notes: Vec<reference::Notification> = Vec::new();
    for (t, op) in ops {
        notes.extend(m.advance_to(*t));
        match op {
            Op::Spawn(spec) => pids.push(m.spawn(spec.clone())),
            Op::SetPolicy(i, p) => m.set_policy(pids[*i], *p),
        }
    }
    notes.extend(m.run_until_quiescent());
    m.assert_conservation();
    RunResult {
        notes: digest(&notes),
        finished: digest(m.finished()),
        ctx_switches: m.total_ctx_switches(),
    }
}

fn assert_identical(
    kpolicy: KernelPolicyKind,
    mode: reference::SchedMode,
    cores: usize,
    smp: SmpParams,
    beta: f64,
    seed: u64,
) {
    let ops = random_ops(seed);
    let new = run_new(kpolicy, cores, smp, beta, &ops);
    let old = run_reference(mode, cores, smp, beta, &ops);
    let ctx = format!("kpolicy={kpolicy} cores={cores} beta={beta} seed={seed}");
    assert_eq!(
        new.notes.len(),
        old.notes.len(),
        "notification count diverged ({ctx})"
    );
    for (i, (n, o)) in new.notes.iter().zip(old.notes.iter()).enumerate() {
        assert_eq!(n, o, "notification {i} diverged ({ctx})");
    }
    assert_eq!(new.finished, old.finished, "completion records ({ctx})");
    assert_eq!(
        new.ctx_switches, old.ctx_switches,
        "context-switch totals ({ctx})"
    );
}

const SEEDS: [u64; 4] = [1, 7, 42, 20_220_215];

#[test]
fn cfs_port_matches_prerefactor_machine() {
    for cores in [1, 2, 4] {
        for seed in SEEDS {
            assert_identical(
                KernelPolicyKind::Cfs,
                reference::SchedMode::Linux,
                cores,
                SmpParams::default(),
                0.0,
                seed,
            );
        }
    }
}

#[test]
fn srtf_port_matches_prerefactor_machine() {
    for cores in [1, 2, 4] {
        for seed in SEEDS {
            assert_identical(
                KernelPolicyKind::Srtf,
                reference::SchedMode::Srtf,
                cores,
                SmpParams::default(),
                0.0,
                seed,
            );
        }
    }
}

#[test]
fn cfs_port_matches_with_smp_balancing() {
    let smp = SmpParams::balanced(
        SimDuration::from_millis(1),
        SimDuration::from_micros(500),
        SimDuration::from_micros(200),
    );
    for cores in [2, 4] {
        for seed in SEEDS {
            assert_identical(
                KernelPolicyKind::Cfs,
                reference::SchedMode::Linux,
                cores,
                smp,
                0.0,
                seed,
            );
        }
    }
}

#[test]
fn srtf_port_ignores_smp_balancing_like_prerefactor() {
    // The old machine only armed the balance tick in Linux mode; the new
    // one gates it on `participates_in_balance`, which SRTF declines. The
    // schedules must agree with balancing knobs turned all the way up.
    let smp = SmpParams::balanced(
        SimDuration::from_millis(1),
        SimDuration::from_millis(1),
        SimDuration::from_micros(200),
    );
    for seed in SEEDS {
        assert_identical(
            KernelPolicyKind::Srtf,
            reference::SchedMode::Srtf,
            4,
            smp,
            0.0,
            seed,
        );
    }
}

#[test]
fn cfs_port_matches_under_contention() {
    for seed in SEEDS {
        assert_identical(
            KernelPolicyKind::Cfs,
            reference::SchedMode::Linux,
            2,
            SmpParams::default(),
            0.5,
            seed,
        );
    }
}

// ----------------------------------------------------------------------
// Rotation timelines: the frozen machine as the eager oracle for windows
// ----------------------------------------------------------------------

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Replay `ops` on the machine and on the frozen eager one, comparing every
/// read a controller can make (each live task's state and CPU time, and the
/// context-switch total) at each op instant, then the notification streams,
/// completion records and totals.
fn assert_rotation_identical(
    cores: usize,
    smp: SmpParams,
    ctx_switch_cost: SimDuration,
    seed: u64,
) {
    // Enough operations to keep every core of a many-core machine busy.
    let ops = rotation_ops(seed, 48.max(10 * cores as u64));
    let mut new = Machine::new(
        MachineParams {
            cores,
            ctx_switch_cost,
            ..Default::default()
        }
        .with_smp(smp),
    );
    let mut old = reference::RefMachine::new(reference::RefParams {
        cores,
        ctx_switch_cost,
        smp,
        ..Default::default()
    });
    let ctx = format!("cores={cores} cost={ctx_switch_cost} seed={seed}");
    let (mut new_notes, mut old_notes) = (Vec::new(), Vec::new());
    let mut pids = Vec::new();
    for (t, op) in &ops {
        new_notes.extend(new.advance_to(*t));
        old_notes.extend(old.advance_to(*t));
        for &pid in &pids {
            assert_eq!(
                (new.proc_state(pid), new.cpu_time(pid)),
                (old.proc_state(pid), old.cpu_time(pid)),
                "{pid} read at {t} ({ctx})"
            );
        }
        assert_eq!(
            new.total_ctx_switches(),
            old.total_ctx_switches(),
            "context switches at {t} ({ctx})"
        );
        match op {
            Op::Spawn(spec) => {
                let pid = new.spawn(spec.clone());
                assert_eq!(pid, old.spawn(spec.clone()));
                pids.push(pid);
            }
            Op::SetPolicy(i, p) => {
                new.set_policy(pids[*i], *p);
                old.set_policy(pids[*i], *p);
            }
        }
    }
    new_notes.extend(new.run_until_quiescent());
    old_notes.extend(old.run_until_quiescent());
    new.assert_conservation();
    let new_done = completions(&new_notes);
    let (new_notes, old_notes) = (digest(&new_notes), digest(&old_notes));
    assert_eq!(
        new_notes.len(),
        old_notes.len(),
        "notification count ({ctx})"
    );
    for (i, (n, o)) in new_notes.iter().zip(&old_notes).enumerate() {
        assert_eq!(n, o, "notification {i} diverged ({ctx})");
    }
    assert_eq!(
        digest(&new_done),
        digest(old.finished()),
        "completion records ({ctx})"
    );
    assert_eq!(
        new.total_ctx_switches(),
        old.total_ctx_switches(),
        "context-switch totals ({ctx})"
    );
}

const ROTATION_SEEDS: [u64; 5] = [3, 11, 58, 2_022, 0x5F5];

#[test]
fn rotating_cores_match_the_eager_machine() {
    for cores in [1, 2, 4] {
        for cost in [SimDuration::ZERO, ms(1), SimDuration::from_micros(5)] {
            for seed in ROTATION_SEEDS {
                assert_rotation_identical(cores, SmpParams::default(), cost, seed);
            }
        }
    }
}

/// With this many cores, enough windows are open at once that the machine
/// looks their boundaries up through its index rather than a scan.
#[test]
fn rotating_many_cores_match_the_eager_machine() {
    for cost in [SimDuration::ZERO, ms(1)] {
        for seed in ROTATION_SEEDS {
            assert_rotation_identical(24, SmpParams::default(), cost, seed);
        }
    }
}

#[test]
fn rotating_cores_match_the_eager_machine_with_smp_balancing() {
    let smp = SmpParams::balanced(ms(4), SimDuration::from_micros(500), ms(1));
    for cores in [2, 4] {
        for cost in [SimDuration::ZERO, ms(1)] {
            for seed in ROTATION_SEEDS {
                assert_rotation_identical(cores, smp, cost, seed);
            }
        }
    }
}
