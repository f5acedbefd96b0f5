//! Task model: the unit the OS scheduler substrate schedules.
//!
//! A task is a serverless function process: an alternating sequence of CPU
//! bursts and I/O waits ([`Phase`]), plus a scheduling [`Policy`]
//! (`SCHED_FIFO` / `SCHED_RR` / `SCHED_NORMAL`, mirroring `sched(7)`).
//! The paper's workloads are mostly pure CPU (fib), optionally prefixed with
//! one I/O phase (§VIII-B "Handling I/O"), or CPU+I/O mixes (md / sa, §IX).

use sfs_simcore::{SimDuration, SimTime};

/// Process identifier within one simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u64);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// One execution phase of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A CPU burst that must be scheduled on a core for this long.
    Cpu(SimDuration),
    /// An I/O wait: the task sleeps off-CPU for this long once the wait
    /// starts (device time is not contended in this model).
    Io(SimDuration),
}

impl Phase {
    /// Span of this phase.
    pub fn duration(self) -> SimDuration {
        match self {
            Phase::Cpu(d) | Phase::Io(d) => d,
        }
    }

    /// True iff this is a CPU burst.
    pub fn is_cpu(self) -> bool {
        matches!(self, Phase::Cpu(_))
    }
}

/// Linux scheduling policy attached to a task, switchable at runtime via
/// [`crate::machine::Machine::set_policy`] (the simulator's `schedtool`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// `SCHED_FIFO`: real-time, static priority 1..=99, runs until it blocks,
    /// finishes, or a higher-priority RT task preempts it.
    Fifo {
        /// Static real-time priority (1..=99, higher wins).
        prio: u8,
    },
    /// `SCHED_RR`: like FIFO but round-robins within a priority level on a
    /// fixed timeslice (`RR_TIMESLICE`, 100 ms in mainline).
    Rr {
        /// Static real-time priority (1..=99, higher wins).
        prio: u8,
    },
    /// `SCHED_NORMAL`: CFS, weighted by `nice` (-20..=19).
    Normal {
        /// Niceness (-20..=19; lower means more CPU weight).
        nice: i8,
    },
}

impl Policy {
    /// Default CFS policy (nice 0).
    pub const NORMAL: Policy = Policy::Normal { nice: 0 };

    /// True for the two real-time classes.
    pub fn is_realtime(self) -> bool {
        matches!(self, Policy::Fifo { .. } | Policy::Rr { .. })
    }

    /// RT priority if real-time.
    pub fn rt_prio(self) -> Option<u8> {
        match self {
            Policy::Fifo { prio } | Policy::Rr { prio } => Some(prio),
            Policy::Normal { .. } => None,
        }
    }
}

/// Immutable description of a task handed to [`crate::machine::Machine::spawn`].
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Execution phases, run in order. Must contain at least one CPU phase.
    pub phases: Vec<Phase>,
    /// Initial scheduling policy.
    pub policy: Policy,
    /// Opaque tag propagated to [`FinishedTask`] (request id, app kind, ...).
    pub label: u64,
}

impl TaskSpec {
    /// A pure-CPU task under CFS nice 0 — the common case in FaaSBench.
    pub fn cpu(label: u64, burst: SimDuration) -> Self {
        TaskSpec {
            phases: vec![Phase::Cpu(burst)],
            policy: Policy::NORMAL,
            label,
        }
    }

    /// A task with an initial I/O wait followed by a CPU burst (the paper's
    /// §VIII-B I/O experiment adds a single I/O op at function start).
    pub fn io_then_cpu(label: u64, io: SimDuration, burst: SimDuration) -> Self {
        TaskSpec {
            phases: vec![Phase::Io(io), Phase::Cpu(burst)],
            policy: Policy::NORMAL,
            label,
        }
    }

    /// Total CPU demand across all phases (the "service time" / the aggregate
    /// CPU time the function would consume in an ideally isolated run).
    pub fn cpu_demand(&self) -> SimDuration {
        self.phases
            .iter()
            .filter(|p| p.is_cpu())
            .map(|p| p.duration())
            .sum()
    }

    /// Total I/O time across all phases.
    pub fn io_demand(&self) -> SimDuration {
        self.phases
            .iter()
            .filter(|p| !p.is_cpu())
            .map(|p| p.duration())
            .sum()
    }

    /// Turnaround this task would observe on an uncontended machine with
    /// infinite cores — the paper's IDEAL scenario (§IV-B).
    pub fn ideal_duration(&self) -> SimDuration {
        self.cpu_demand() + self.io_demand()
    }

    /// Validate the spec: non-empty, has CPU work, no zero-length CPU phase.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("task has no phases".into());
        }
        if self.cpu_demand().is_zero() {
            return Err("task has no CPU demand".into());
        }
        for (i, p) in self.phases.iter().enumerate() {
            if p.duration().is_zero() {
                return Err(format!("phase {i} has zero duration"));
            }
        }
        Ok(())
    }
}

/// Kernel-visible run state, as a `/proc/<pid>/stat`-style poller would see
/// it. SFS's I/O handling (§V-D) polls exactly this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// On a CPU right now ("R" running).
    Running,
    /// Waiting in a runqueue ("R" runnable; /proc does not distinguish, but
    /// the simulator exposes the distinction for diagnostics).
    Runnable,
    /// Blocked on I/O ("S"/"D" sleeping).
    Sleeping,
    /// Exited ("Z"/gone).
    Dead,
}

/// Completion record emitted when a task finishes.
#[derive(Debug, Clone)]
pub struct FinishedTask {
    /// Simulator pid.
    pub pid: Pid,
    /// The spec's opaque label.
    pub label: u64,
    /// When the task was spawned (became runnable for the first time).
    pub arrival: SimTime,
    /// First time it got a CPU.
    pub first_run: Option<SimTime>,
    /// When it completed its last phase.
    pub finished: SimTime,
    /// CPU time actually consumed (== spec demand at completion).
    pub cpu_time: SimDuration,
    /// I/O time spent sleeping.
    pub io_time: SimDuration,
    /// CPU demand from the spec (denominator-independent service time).
    pub cpu_demand: SimDuration,
    /// Ideal (isolated, infinite-resource) duration from the spec.
    pub ideal: SimDuration,
    /// Involuntary context switches suffered (slice expiries + preemptions).
    pub ctx_switches: u64,
    /// Core-to-core migrations.
    pub migrations: u64,
}

impl FinishedTask {
    /// End-to-end turnaround time (spawn → completion), the paper's
    /// "execution duration".
    pub fn turnaround(&self) -> SimDuration {
        self.finished - self.arrival
    }

    /// Run-time effectiveness of this completion (see [`rte`]).
    pub fn rte(&self) -> f64 {
        rte(self.ideal, self.turnaround())
    }
}

/// Run-time effectiveness (paper Eq. 1): ideal duration over turnaround,
/// at most 1, and 1 for a zero turnaround.
///
/// The paper computes RTE with the aggregate CPU time "measured under the
/// IDEAL scenario" as numerator; for I/O tasks the best isolated run still
/// includes the device wait, so the numerator is `ideal`, giving RTE = 1
/// exactly when the task ran with zero queueing/preemption interference.
pub fn rte(ideal: SimDuration, turnaround: SimDuration) -> f64 {
    if turnaround.is_zero() {
        1.0
    } else {
        (ideal.as_nanos() as f64 / turnaround.as_nanos() as f64).min(1.0)
    }
}

/// Internal per-task runtime bookkeeping (crate-private mutable state).
#[derive(Debug, Clone)]
pub(crate) struct Task {
    pub pid: Pid,
    pub label: u64,
    pub phases: Vec<Phase>,
    pub phase_idx: usize,
    /// Remaining time in the current phase.
    pub phase_rem: SimDuration,
    pub policy: Policy,
    pub state: ProcState,
    pub arrival: SimTime,
    pub first_run: Option<SimTime>,
    pub cpu_time: SimDuration,
    pub io_time: SimDuration,
    pub cpu_demand: SimDuration,
    pub ideal: SimDuration,
    pub vruntime: u64,
    pub ctx_switches: u64,
    pub migrations: u64,
    /// Core whose CFS runqueue currently owns this task (if queued/running).
    pub home_core: Option<usize>,
    /// Core this task last *executed* on (dispatch granularity), feeding the
    /// cache-affinity cost model. Unlike `home_core` this survives sleeps.
    pub last_core: Option<usize>,
    /// One-shot extra dispatch latency owed from a balance migration,
    /// consumed (reset to zero) at the next dispatch.
    pub pending_migration_cost: SimDuration,
}

impl Task {
    pub(crate) fn new(pid: Pid, spec: TaskSpec, now: SimTime) -> Task {
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

    /// Current phase, if not finished.
    pub(crate) fn phase(&self) -> Option<Phase> {
        self.phases.get(self.phase_idx).copied()
    }

    /// Remaining CPU demand across the current and future phases
    /// (SRTF's sort key).
    pub(crate) fn remaining_cpu(&self) -> SimDuration {
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

    /// Completion record. Panics if called before the task finished.
    pub(crate) fn finished_record(&self, finished: SimTime) -> FinishedTask {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn spec_demand_accounting() {
        let spec = TaskSpec {
            phases: vec![
                Phase::Io(ms(20)),
                Phase::Cpu(ms(30)),
                Phase::Io(ms(5)),
                Phase::Cpu(ms(15)),
            ],
            policy: Policy::NORMAL,
            label: 7,
        };
        assert_eq!(spec.cpu_demand(), ms(45));
        assert_eq!(spec.io_demand(), ms(25));
        assert_eq!(spec.ideal_duration(), ms(70));
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn spec_validation_rejects_degenerate() {
        let empty = TaskSpec {
            phases: vec![],
            policy: Policy::NORMAL,
            label: 0,
        };
        assert!(empty.validate().is_err());

        let io_only = TaskSpec {
            phases: vec![Phase::Io(ms(10))],
            policy: Policy::NORMAL,
            label: 0,
        };
        assert!(io_only.validate().is_err());

        let zero_phase = TaskSpec {
            phases: vec![Phase::Cpu(SimDuration::ZERO)],
            policy: Policy::NORMAL,
            label: 0,
        };
        assert!(zero_phase.validate().is_err());
    }

    #[test]
    fn policy_classification() {
        assert!(Policy::Fifo { prio: 50 }.is_realtime());
        assert!(Policy::Rr { prio: 10 }.is_realtime());
        assert!(!Policy::NORMAL.is_realtime());
        assert_eq!(Policy::Fifo { prio: 50 }.rt_prio(), Some(50));
        assert_eq!(Policy::NORMAL.rt_prio(), None);
    }

    #[test]
    fn remaining_cpu_tracks_partial_progress() {
        let spec = TaskSpec {
            phases: vec![Phase::Cpu(ms(30)), Phase::Io(ms(10)), Phase::Cpu(ms(20))],
            policy: Policy::NORMAL,
            label: 1,
        };
        let mut t = Task::new(Pid(1), spec, SimTime::ZERO);
        assert_eq!(t.remaining_cpu(), ms(50));
        // Simulate consuming 12ms of the first burst.
        t.phase_rem = ms(18);
        assert_eq!(t.remaining_cpu(), ms(38));
        // Move to the IO phase: only the trailing CPU burst remains.
        t.phase_idx = 1;
        t.phase_rem = ms(10);
        assert_eq!(t.remaining_cpu(), ms(20));
    }

    #[test]
    fn finished_task_metrics() {
        let ft = FinishedTask {
            pid: Pid(3),
            label: 9,
            arrival: SimTime::ZERO,
            first_run: Some(SimTime::ZERO + ms(5)),
            finished: SimTime::ZERO + ms(100),
            cpu_time: ms(40),
            io_time: ms(10),
            cpu_demand: ms(40),
            ideal: ms(50),
            ctx_switches: 3,
            migrations: 1,
        };
        assert_eq!(ft.turnaround(), ms(100));
        assert!((ft.rte() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rte_clamps_at_one() {
        let ft = FinishedTask {
            pid: Pid(1),
            label: 0,
            arrival: SimTime::ZERO,
            first_run: Some(SimTime::ZERO),
            finished: SimTime::ZERO + ms(40),
            cpu_time: ms(40),
            io_time: SimDuration::ZERO,
            cpu_demand: ms(40),
            ideal: ms(40),
            ctx_switches: 0,
            migrations: 0,
        };
        assert_eq!(ft.rte(), 1.0);
    }
}
