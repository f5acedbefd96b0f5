//! Scenario tests for the machine: hand-computable schedules exercising
//! nice weights, migrations, mixed policies, SRTF with I/O, and the
//! external-control (schedtool/procfs) surface under adversarial timing.

use sfs_sched::{
    FinishedTask, KernelPolicyKind, Machine, MachineParams, Notification, Phase, Pid, Policy,
    ProcState, SmpParams, TaskSpec,
};
use sfs_simcore::{SimDuration, SimTime};

#[path = "support/open_loop.rs"]
mod open_loop;
use open_loop::{completions, run_open_loop};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn at(v: u64) -> SimTime {
    SimTime::ZERO + ms(v)
}

fn exact(cores: usize) -> MachineParams {
    MachineParams {
        cores,
        ctx_switch_cost: SimDuration::ZERO,
        kpolicy: KernelPolicyKind::Cfs,
        ..Default::default()
    }
}

#[test]
fn nice_weights_shift_cpu_share() {
    // A nice -5 task against a nice 5 task on one core: the heavy task gets
    // weight 3121 vs 335, ~90% of the CPU, so it finishes far earlier.
    let heavy = TaskSpec {
        phases: vec![Phase::Cpu(ms(100))],
        policy: Policy::Normal { nice: -5 },
        label: 0,
    };
    let light = TaskSpec {
        phases: vec![Phase::Cpu(ms(100))],
        policy: Policy::Normal { nice: 5 },
        label: 1,
    };
    let done = run_open_loop(exact(1), [(at(0), heavy), (at(0), light)]);
    let h = done.iter().find(|t| t.label == 0).unwrap();
    let l = done.iter().find(|t| t.label == 1).unwrap();
    assert!(
        h.finished < l.finished,
        "heavy task must finish first: {} vs {}",
        h.finished,
        l.finished
    );
    // The heavy task should finish in well under 150ms (it owns ~90%).
    assert!(h.finished < at(150), "heavy finished at {}", h.finished);
    assert_eq!(l.finished, at(200), "total work conserved");
}

#[test]
fn task_migrates_to_idle_core() {
    // Two tasks overlap on core placement, then one core frees up: the
    // queued task must migrate and record it.
    let mut m = Machine::new(exact(2));
    let _a = m.spawn(TaskSpec::cpu(0, ms(100)));
    let _b = m.spawn(TaskSpec::cpu(1, ms(10)));
    let _c = m.spawn(TaskSpec::cpu(2, ms(10)));
    let _d = m.spawn(TaskSpec::cpu(3, ms(100)));
    let notes = m.run_until_quiescent();
    // All complete; makespan reflects work conservation on 2 cores:
    // 220ms total / 2 = 110ms.
    let done = completions(&notes);
    let makespan = done.iter().map(|t| t.finished).max().unwrap();
    assert!(makespan <= at(112), "makespan {makespan}");
}

#[test]
fn rt_task_starves_cfs_until_block() {
    let rt = TaskSpec {
        phases: vec![Phase::Cpu(ms(50)), Phase::Io(ms(20)), Phase::Cpu(ms(50))],
        policy: Policy::Fifo { prio: 50 },
        label: 0,
    };
    let cfs = TaskSpec::cpu(1, ms(30));
    let done = run_open_loop(exact(1), [(at(0), rt), (at(0), cfs)]);
    let c = done.iter().find(|t| t.label == 1).unwrap();
    // CFS only runs inside the RT task's 20ms I/O window [50,70), then
    // resumes after the RT task finishes at 120.
    assert_eq!(c.finished, at(130));
    let r = done.iter().find(|t| t.label == 0).unwrap();
    assert_eq!(r.finished, at(120));
}

#[test]
fn srtf_accounts_remaining_after_io() {
    // SRTF keys on *remaining CPU*: a task that already burned most of its
    // demand outranks a fresh medium task.
    let phased = TaskSpec {
        phases: vec![Phase::Cpu(ms(80)), Phase::Io(ms(50)), Phase::Cpu(ms(10))],
        policy: Policy::NORMAL,
        label: 0,
    };
    let fresh = TaskSpec::cpu(1, ms(45));
    let done = run_open_loop(
        MachineParams {
            cores: 1,
            ctx_switch_cost: SimDuration::ZERO,
            kpolicy: KernelPolicyKind::Srtf,
            ..Default::default()
        },
        [(at(0), phased), (at(100), fresh)],
    );
    // phased: cpu 0-80, io 80-130. fresh arrives at 100, starts (only
    // runnable), has 45ms demand. phased wakes at 130 with 10ms remaining
    // < fresh's 15ms remaining → preempts; fresh resumes after.
    let p = done.iter().find(|t| t.label == 0).unwrap();
    assert_eq!(p.finished, at(140));
    let f = done.iter().find(|t| t.label == 1).unwrap();
    assert_eq!(f.finished, at(155));
}

#[test]
fn set_policy_on_queued_task_requeues_correctly() {
    // A CFS task waiting behind an RT hog is promoted to FIFO: it must jump
    // into the RT queue and run as soon as the hog blocks/finishes.
    let mut m = Machine::new(exact(1));
    let _hog = m.spawn(TaskSpec {
        phases: vec![Phase::Cpu(ms(100))],
        policy: Policy::Fifo { prio: 60 },
        label: 0,
    });
    let waiting = m.spawn(TaskSpec::cpu(1, ms(10)));
    let mut notes = m.advance_to(at(5));
    assert_eq!(m.proc_state(waiting), ProcState::Runnable);
    m.set_policy(waiting, Policy::Fifo { prio: 50 });
    notes.extend(m.run_until_quiescent());
    let done = completions(&notes);
    let w = done.iter().find(|t| t.label == 1).unwrap();
    assert_eq!(
        w.finished,
        at(110),
        "promoted task runs right after the hog"
    );
}

#[test]
fn set_policy_on_dead_task_is_a_noop() {
    let mut m = Machine::new(exact(1));
    let a = m.spawn(TaskSpec::cpu(0, ms(5)));
    let mut notes = m.run_until_quiescent();
    assert_eq!(m.proc_state(a), ProcState::Dead);
    m.set_policy(a, Policy::Fifo { prio: 99 }); // must not panic or revive
    assert_eq!(m.proc_state(a), ProcState::Dead);
    notes.extend(m.run_until_quiescent());
    assert_eq!(completions(&notes).len(), 1);
}

#[test]
fn equal_priority_fifo_does_not_preempt() {
    let mk = |label| TaskSpec {
        phases: vec![Phase::Cpu(ms(50))],
        policy: Policy::Fifo { prio: 50 },
        label,
    };
    let done = run_open_loop(exact(1), [(at(0), mk(0)), (at(10), mk(1))]);
    let first = done.iter().find(|t| t.label == 0).unwrap();
    assert_eq!(first.finished, at(50));
    assert_eq!(first.ctx_switches, 0, "same-prio arrival must not preempt");
    let second = done.iter().find(|t| t.label == 1).unwrap();
    assert_eq!(second.finished, at(100));
}

#[test]
fn mixed_rr_and_fifo_share_by_priority() {
    // RR at prio 60 outranks FIFO at prio 40 entirely.
    let rr = TaskSpec {
        phases: vec![Phase::Cpu(ms(150))],
        policy: Policy::Rr { prio: 60 },
        label: 0,
    };
    let fifo = TaskSpec {
        phases: vec![Phase::Cpu(ms(30))],
        policy: Policy::Fifo { prio: 40 },
        label: 1,
    };
    let done = run_open_loop(exact(1), [(at(0), rr), (at(0), fifo)]);
    assert_eq!(
        done.iter().find(|t| t.label == 0).unwrap().finished,
        at(150)
    );
    assert_eq!(
        done.iter().find(|t| t.label == 1).unwrap().finished,
        at(180)
    );
}

#[test]
fn wakeup_preemption_favours_lagging_sleeper() {
    // An I/O task that slept re-enters with the queue's min vruntime; the
    // long-running current task has accumulated far more vruntime, so the
    // waker preempts (wakeup_granularity hysteresis notwithstanding).
    let sleeper = TaskSpec {
        phases: vec![Phase::Cpu(ms(2)), Phase::Io(ms(50)), Phase::Cpu(ms(2))],
        policy: Policy::NORMAL,
        label: 0,
    };
    let hog = TaskSpec::cpu(1, ms(500));
    let done = run_open_loop(exact(1), [(at(0), sleeper), (at(0), hog)]);
    let s = done.iter().find(|t| t.label == 0).unwrap();
    // Without wakeup preemption the sleeper would wait out a full slice
    // (~12-24ms) after waking at ~52ms; with it, it finishes promptly.
    assert!(
        s.finished < at(80),
        "sleeper delayed too long: {}",
        s.finished
    );
}

#[test]
fn zero_length_advance_and_empty_machine_are_safe() {
    let mut m = Machine::new(exact(2));
    assert!(m.next_event_time().is_none());
    let notes = m.advance_to(at(0));
    assert!(notes.is_empty());
    let notes = m.run_until_quiescent();
    assert!(notes.is_empty());
    assert_eq!(m.live_tasks(), 0);
    assert_eq!(m.total_ctx_switches(), 0);
}

#[test]
#[should_panic(
    expected = "time must not go backwards: asked to advance to 10.000ms (10000000 ns) \
                           at 30.000ms (30000000 ns)"
)]
fn advancing_to_an_earlier_instant_panics_in_every_build() {
    let mut m = Machine::new(exact(1));
    m.spawn(TaskSpec::cpu(0, ms(50)));
    m.advance_to(at(30));
    m.advance_to(at(10));
}

#[test]
fn live_task_count_tracks_lifecycle() {
    let mut m = Machine::new(exact(1));
    let _a = m.spawn(TaskSpec::cpu(0, ms(10)));
    let _b = m.spawn(TaskSpec::io_then_cpu(1, ms(30), ms(10)));
    assert_eq!(m.live_tasks(), 2);
    m.advance_to(at(15));
    assert_eq!(m.live_tasks(), 1, "pure-CPU task finished");
    m.run_until_quiescent();
    assert_eq!(m.live_tasks(), 0);
}

#[test]
fn contention_factor_reflects_active_tasks() {
    let mut params = exact(2);
    params.contention_beta = 2.5;
    let mut m = Machine::new(params);
    assert_eq!(m.contention_factor(), 1.0);
    for i in 0..2 {
        m.spawn(TaskSpec::cpu(i, ms(100)));
    }
    assert_eq!(m.contention_factor(), 1.0, "at capacity: no inflation");
    for i in 2..8 {
        m.spawn(TaskSpec::cpu(i, ms(100)));
    }
    // 8 active on 2 cores → 1 + 2.5 × log2(4) = 6.0 (at the cap).
    assert!((m.contention_factor() - 6.0).abs() < 1e-9);
    for i in 8..16 {
        m.spawn(TaskSpec::cpu(i, ms(100)));
    }
    // 16 active → 1 + 2.5 × log2(8) = 8.5, held at the cap.
    assert!((m.contention_factor() - 6.0).abs() < 1e-9);
    m.run_until_quiescent();
    assert_eq!(m.contention_factor(), 1.0, "all done: inflation gone");
}

#[test]
fn advance_into_delivers_events_at_exact_span_end() {
    // Regression for the end-of-span edge: a handler that runs *during* an
    // advance may schedule a follow-up event for exactly the span-end
    // instant `t` (here: the CPU-phase completion at t=10 schedules the I/O
    // wake at t=20 while `advance_to(20)` is in flight). The delivery
    // contract says that wake belongs to *this* span — a batch pop of the
    // events due at call entry would silently defer it to the next call.
    let mut m = Machine::new(exact(1));
    let a = m.spawn(TaskSpec {
        phases: vec![Phase::Cpu(ms(10)), Phase::Io(ms(10)), Phase::Cpu(ms(5))],
        policy: Policy::NORMAL,
        label: 0,
    });

    // Span 1 ends exactly at the block instant: Blocked(10) is due at the
    // boundary and must not leak into the next call.
    let notes = m.advance_to(at(10));
    assert!(
        notes
            .iter()
            .any(|n| matches!(n, Notification::Blocked(p, t) if *p == a && *t == at(10))),
        "Blocked at exact span end must be in-span: {notes:?}"
    );
    assert_eq!(m.proc_state(a), ProcState::Sleeping);

    // Span 2 ends exactly at the wake instant; the Wake event was pushed by
    // the Blocked handler mid-advance in a fully incremental run, but here
    // it proves the boundary case: due == t is delivered, never deferred.
    let notes = m.advance_to(at(20));
    assert!(
        notes
            .iter()
            .any(|n| matches!(n, Notification::Woke(p, t) if *p == a && *t == at(20))),
        "Woke at exact span end must be in-span: {notes:?}"
    );
    // And the wake's *consequence* (the dispatch) also lands in-span: the
    // task is already Running when the call returns, so a zero-length
    // follow-up advance observes nothing new.
    assert_eq!(m.proc_state(a), ProcState::Running);
    let notes = m.advance_to(at(20));
    assert!(
        notes.is_empty(),
        "span-end events must not replay: {notes:?}"
    );

    let notes = m.run_until_quiescent();
    assert_eq!(completions(&notes).len(), 1);
}

#[test]
fn advance_into_single_call_spans_handler_scheduled_boundary_event() {
    // The single-call variant of the edge: one advance covers block AND
    // wake, where the wake event is created by a handler *inside* the span
    // for the exact instant the span ends.
    let mut m = Machine::new(exact(1));
    let a = m.spawn(TaskSpec {
        phases: vec![Phase::Cpu(ms(10)), Phase::Io(ms(10)), Phase::Cpu(ms(5))],
        policy: Policy::NORMAL,
        label: 0,
    });
    let notes = m.advance_to(at(20));
    let blocked = notes
        .iter()
        .position(|n| matches!(n, Notification::Blocked(p, _) if *p == a));
    let woke = notes
        .iter()
        .position(|n| matches!(n, Notification::Woke(p, t) if *p == a && *t == at(20)));
    assert!(
        blocked.is_some() && woke.is_some(),
        "both Blocked and the handler-scheduled end-of-span Woke belong to \
         one span: {notes:?}"
    );
    assert!(blocked < woke, "stream order follows simulated time");
}

#[test]
fn heavily_oversubscribed_machine_terminates() {
    // 400 tasks on 2 cores with default CFS settings: a stress test for the
    // event engine's termination and bookkeeping.
    let arrivals: Vec<_> = (0..400)
        .map(|i| (at(i / 4), TaskSpec::cpu(i, ms(1 + (i % 30)))))
        .collect();
    let done = run_open_loop(exact(2), arrivals);
    assert_eq!(done.len(), 400);
    let total: SimDuration = done.iter().map(|t| t.cpu_time).sum();
    let expect: u64 = (0..400u64).map(|i| 1 + (i % 30)).sum();
    assert_eq!(total, ms(expect));
}

/// `(kind, pid, instant)` of each notification, in delivery order.
fn brief(notes: &[Notification]) -> Vec<(&'static str, Pid, SimTime)> {
    notes
        .iter()
        .map(|n| match n {
            Notification::FirstRun(p, t) => ("first_run", *p, *t),
            Notification::Blocked(p, t) => ("blocked", *p, *t),
            Notification::Woke(p, t) => ("woke", *p, *t),
            Notification::Finished(f) => ("finished", f.pid, f.finished),
        })
        .collect()
}

/// Notifications raised outside an advance ride with the batch the next
/// advance returns. At 30 a spawned task switched to FIFO preempts a CFS
/// task and raises its `FirstRun`; core 1's slice boundary at 36 notifies
/// nobody, so the call returns at 40 with that `FirstRun`, still stamped
/// 30, and the task's `Finished`. The windowed machine and the traced
/// one, which opens no window, agree.
#[test]
fn notes_raised_outside_an_advance_ride_with_the_next_notifying_batch() {
    for traced in [false, true] {
        let mut m = Machine::new(exact(2));
        if traced {
            m.enable_tracing();
        }
        for label in 0..4 {
            m.spawn(TaskSpec::cpu(label, ms(1000)));
        }
        m.advance_to(at(30));
        let p = m.spawn(TaskSpec::cpu(4, ms(10)));
        m.set_policy(p, Policy::Fifo { prio: 50 });
        let mut notes = Vec::new();
        let returned = m.advance_until_notified(SimTime::MAX, &mut notes);
        assert_eq!(returned, at(40), "traced={traced}");
        assert_eq!(
            brief(&notes),
            [("first_run", p, at(30)), ("finished", p, at(40))],
            "traced={traced}"
        );
    }
}

/// A core timer and an I/O wake due on the same nanosecond fire in the
/// order they were armed, and that order decides the schedule. A lone
/// CFS task `a` reaches the end of its 24 ms slice at t=24, the instant
/// `b`'s I/O completes on the same core.
#[test]
fn core_timer_and_wake_on_one_instant_fire_in_push_order() {
    let long = |label| TaskSpec::cpu(label, ms(100));
    let sleeper = |label| TaskSpec::io_then_cpu(label, ms(24), ms(10));

    // Timer first (`a`'s timer is armed before `b`'s wake is queued): the
    // renewal charges `a` (vruntime 24 ms) and starts a fresh slice at 24.
    // `b` is then placed at that vruntime, too close for a wakeup
    // preemption, and only halves the fresh slice: `a` yields at 36.
    let mut m = Machine::new(exact(1));
    let a = m.spawn(long(0));
    let b = m.spawn(sleeper(1));
    let notes = m.advance_to(at(30));
    assert_eq!(
        brief(&notes),
        [("first_run", a, at(0)), ("woke", b, at(24))]
    );
    assert_eq!((m.cpu_time(a), m.cpu_time(b)), (ms(30), ms(0)));
    assert_eq!(m.total_ctx_switches(), 0);
    let notes = m.run_until_quiescent();
    assert_eq!(
        brief(&notes),
        [
            ("first_run", b, at(36)),
            ("finished", b, at(46)),
            ("finished", a, at(110)),
        ]
    );
    assert_eq!((m.cpu_time(a), m.cpu_time(b)), (ms(100), ms(10)));
    assert_eq!(m.total_ctx_switches(), 1, "a yields once, at 36");

    // Wake first (`b`'s wake is queued before `a`'s timer is armed): `b`
    // arrives while `a`'s slice is spent but not yet charged, so `a` runs
    // 24 ms of vruntime ahead of `b` and is preempted on the spot.
    let mut m = Machine::new(exact(1));
    let b = m.spawn(sleeper(1));
    let a = m.spawn(long(0));
    let notes = m.advance_to(at(30));
    assert_eq!(
        brief(&notes),
        [
            ("first_run", a, at(0)),
            ("woke", b, at(24)),
            ("first_run", b, at(24)),
        ]
    );
    assert_eq!((m.cpu_time(a), m.cpu_time(b)), (ms(24), ms(6)));
    assert_eq!(m.total_ctx_switches(), 1, "a is preempted at 24");
    let notes = m.run_until_quiescent();
    assert_eq!(
        brief(&notes),
        [("finished", b, at(34)), ("finished", a, at(110))]
    );
    assert_eq!((m.cpu_time(a), m.cpu_time(b)), (ms(100), ms(10)));
    assert_eq!(m.total_ctx_switches(), 1);
}

/// A balance tick and a core timer due on the same nanosecond fire in the
/// order they were armed. Two FIFO hogs hold both cores; `c` waits on core
/// 0's fair queue. At t=5 demoting `r0` to CFS requeues it beside `c` (the
/// queued FIFO task `w` takes core 0), so the fair depths read [2, 0]
/// between the ticks at 4 and 8. At t=8 `x` finishes on core 1.
#[test]
fn core_timer_and_balance_tick_on_one_instant_fire_in_push_order() {
    let params = MachineParams {
        smp: SmpParams::balanced(ms(4), ms(1), SimDuration::ZERO),
        ..exact(2)
    };
    let fifo = |label, prio, d| TaskSpec {
        phases: vec![Phase::Cpu(ms(d))],
        policy: Policy::Fifo { prio },
        label,
    };
    // `rearm`: re-arm `x`'s timer at t=5 (a same-class priority change),
    // after the tick at 4 queued the tick at 8, so the tick fires first.
    // Otherwise `x`'s timer, armed at t=0, fires first.
    // Expected: `c`'s CPU time at t=12, balance migrations, and when `c`
    // and `r0` finish.
    let cases = [
        (false, ms(4), 0, at(18), at(113)),
        (true, ms(3), 1, at(19), at(114)),
    ];
    for (rearm, c_cpu_at_12, migrations, c_done, r0_done) in cases {
        let mut m = Machine::new(params);
        let r0 = m.spawn(fifo(0, 90, 100));
        let x = m.spawn(fifo(1, 90, 8));
        let w = m.spawn(fifo(2, 10, 20));
        let c = m.spawn(TaskSpec::cpu(3, ms(10)));
        let mut notes = m.advance_to(at(5));
        m.set_policy(r0, Policy::NORMAL);
        if rearm {
            m.set_policy(x, Policy::Fifo { prio: 91 });
        }
        notes.extend(m.advance_to(at(12)));
        // Timer first: core 1 empties and steals `c` from core 0, leaving
        // the tick nothing to balance. Tick first: the tick migrates `c`
        // to core 1, and `c` starts after its 1 ms migration cost.
        assert_eq!(
            brief(&notes),
            [
                ("first_run", r0, at(0)),
                ("first_run", x, at(0)),
                ("first_run", w, at(5)),
                ("finished", x, at(8)),
                ("first_run", c, at(8)),
            ],
            "rearm={rearm}"
        );
        assert_eq!(
            [r0, x, w, c].map(|p| m.cpu_time(p)),
            [ms(5), ms(8), ms(7), c_cpu_at_12],
            "rearm={rearm}"
        );
        assert_eq!(m.balance_migrations(), migrations, "rearm={rearm}");
        let notes = m.run_until_quiescent();
        assert_eq!(
            brief(&notes),
            [
                ("finished", c, c_done),
                ("finished", w, at(25)),
                ("finished", r0, r0_done),
            ],
            "rearm={rearm}"
        );
        assert_eq!(m.total_ctx_switches(), 1, "r0's demotion, rearm={rearm}");
        assert_eq!(m.balance_migrations(), migrations, "rearm={rearm}");
    }
}

// ----------------------------------------------------------------------
// Tickless windows: every same-instant tie lands where the eager machine
// puts it. Expected schedules were recorded on the machine before it
// skipped any boundary.
// ----------------------------------------------------------------------

/// The run in one line per fact: each notification, then the
/// context-switch total, then every task's CPU time.
fn schedule(m: &Machine, notes: &[Notification], pids: &[Pid]) -> String {
    let mut out: Vec<String> = brief(notes)
        .into_iter()
        .map(|(kind, pid, t)| format!("{kind} {pid} {t}"))
        .collect();
    out.push(format!("switches {}", m.total_ctx_switches()));
    out.extend(pids.iter().map(|&p| format!("cpu {p} {}", m.cpu_time(p))));
    out.join("\n")
}

fn phases(label: u64, phases: Vec<Phase>) -> TaskSpec {
    TaskSpec {
        phases,
        policy: Policy::NORMAL,
        label,
    }
}

/// A wake queued by a handler onto an instant the lone core 1 skips in a
/// window. Core 0 rotates `c`, `c2` and `e`; core 1's lone `a` renews every
/// 24 ms from 17, in a window from 41. `e` blocks at 48 and wakes onto
/// core 1 at `wake`: at 65 the skipped boundary's key (41) precedes the
/// block, so `a` renews first and `e` only shortens its fresh slice; at
/// 89 the key (65) follows it, so `e` finds `a`'s slice spent and
/// preempts it.
#[test]
fn handler_push_at_a_skipped_boundary_sorts_by_its_key() {
    for (wake, expected) in [(65, EXPECT_WAKE_65), (89, EXPECT_WAKE_89)] {
        let mut m = Machine::new(exact(2));
        let c = m.spawn(TaskSpec::cpu(0, ms(400)));
        let a = m.spawn(TaskSpec::cpu(1, ms(400)));
        let c2 = m.spawn(TaskSpec::cpu(2, ms(400)));
        let y = m.spawn(TaskSpec::cpu(3, ms(5)));
        let e = m.spawn(phases(
            4,
            vec![
                Phase::Cpu(ms(16)),
                Phase::Io(ms(wake - 48)),
                Phase::Cpu(ms(50)),
            ],
        ));
        let mut notes = m.advance_to(at(wake + 30));
        notes.extend(m.run_until_quiescent());
        let got = schedule(&m, &notes, &[c, a, c2, y, e]);
        assert_eq!(got, expected, "wake at {wake}");
    }
}

/// A driver push at the instant that keys a skipped boundary sorts after
/// it: the machine handles every event due at an instant before the driver
/// acts. Core 1's lone `a` renews every 24 ms in a window from 24; at 48
/// the driver spawns `f`, whose I/O ends at 72. `a` renews at 72 first, so
/// `f` only halves its fresh slice.
#[test]
fn driver_push_at_a_boundary_key_instant_sorts_after_the_boundary() {
    let mut m = Machine::new(exact(2));
    let c = m.spawn(TaskSpec::cpu(0, ms(300)));
    let a = m.spawn(TaskSpec::cpu(1, ms(300)));
    let c2 = m.spawn(TaskSpec::cpu(2, ms(300)));
    let mut notes = m.advance_to(at(48));
    let f = m.spawn(TaskSpec::io_then_cpu(3, ms(24), ms(30)));
    notes.extend(m.advance_to(at(100)));
    let mid = schedule(&m, &notes, &[c, a, c2, f]);
    notes.extend(m.run_until_quiescent());
    let got = schedule(&m, &notes, &[c, a, c2, f]);
    assert_eq!(mid, EXPECT_DRIVER_MID);
    assert_eq!(got, EXPECT_DRIVER);
}

/// A closing window's re-armed boundary meets another window's skipped
/// boundary. Core 0 rotates `c` and `c2` (windowed from 24), core 1's lone
/// `a` renews every 24 ms (windowed from 24). At 40 `x` finishes and core
/// 2 steals `c` from core 0, closing its window: its boundary at 48 is
/// re-armed with key 36, after core 1's boundary at 48 (key 24). Both
/// cores then renew lone tasks in lockstep, and `a` and `c2` finish at the
/// same instant in that order.
#[test]
fn rearmed_boundary_meets_another_windows_boundary_in_key_order() {
    let mut m = Machine::new(exact(3));
    let c = m.spawn(TaskSpec::cpu(0, ms(300)));
    let a = m.spawn(TaskSpec::cpu(1, ms(124)));
    let x = m.spawn(TaskSpec::cpu(2, ms(40)));
    let c2 = m.spawn(TaskSpec::cpu(3, ms(100)));
    let notes = m.run_until_quiescent();
    let got = schedule(&m, &notes, &[c, a, x, c2]);
    assert_eq!(got, EXPECT_REARM);
}

/// Two lone cores open windows at the same instant with equal periods:
/// their boundaries share every instant and key, and the window opened
/// first fires first, so equal tasks finish in spawn order.
#[test]
fn windows_opened_at_one_instant_fire_in_opening_order() {
    for first in [0, 1] {
        let mut m = Machine::new(exact(2));
        let p = m.spawn(TaskSpec::cpu(first, ms(100)));
        let q = m.spawn(TaskSpec::cpu(1 - first, ms(100)));
        let notes = m.run_until_quiescent();
        let got = schedule(&m, &notes, &[p, q]);
        let expected = format!(
            "first_run {p} 0.000ms\nfirst_run {q} 0.000ms\nfinished {p} 100.000ms\n\
             finished {q} 100.000ms\nswitches 0\ncpu {p} 100.000ms\ncpu {q} 100.000ms"
        );
        assert_eq!(got, expected, "first={first}");
    }
}

/// A wake, a completion with its idle steal, and a rotation's boundary on
/// one instant (60) that two windows had skipped. `d` blocks at 30 and
/// queues its wake for 60, ahead of the window ends there (keyed 48), so
/// both ends move behind it; then `x` finishes and core 2 steals, and
/// core 0's boundary comes last.
#[test]
fn steal_and_wake_at_a_skipped_instant_keep_the_eager_order() {
    let mut m = Machine::new(exact(3));
    let c = m.spawn(TaskSpec::cpu(0, ms(300)));
    let d = m.spawn(phases(
        1,
        vec![Phase::Cpu(ms(18)), Phase::Io(ms(30)), Phase::Cpu(ms(20))],
    ));
    let x = m.spawn(TaskSpec::cpu(2, ms(60)));
    let c2 = m.spawn(TaskSpec::cpu(3, ms(300)));
    let d2 = m.spawn(TaskSpec::cpu(4, ms(300)));
    let mut notes = m.advance_to(at(61));
    let mid = schedule(&m, &notes, &[c, d, x, c2, d2]);
    notes.extend(m.run_until_quiescent());
    let got = schedule(&m, &notes, &[c, d, x, c2, d2]);
    assert_eq!(mid, EXPECT_STEAL_WAKE_MID);
    assert_eq!(got, EXPECT_STEAL_WAKE);
}

const EXPECT_WAKE_65: &str = "first_run pid0 0.000ms\n\
     first_run pid1 0.000ms\n\
     first_run pid2 8.000ms\n\
     first_run pid3 12.000ms\n\
     first_run pid4 16.000ms\n\
     finished pid3 17.000ms\n\
     blocked pid4 48.000ms\n\
     woke pid4 65.000ms\n\
     finished pid4 175.000ms\n\
     finished pid1 455.000ms\n\
     finished pid0 635.000ms\n\
     finished pid2 636.000ms\n\
     switches 49\n\
     cpu pid0 400.000ms\n\
     cpu pid1 400.000ms\n\
     cpu pid2 400.000ms\n\
     cpu pid3 5.000ms\n\
     cpu pid4 66.000ms";
const EXPECT_WAKE_89: &str = "first_run pid0 0.000ms\n\
     first_run pid1 0.000ms\n\
     first_run pid2 8.000ms\n\
     first_run pid3 12.000ms\n\
     first_run pid4 16.000ms\n\
     finished pid3 17.000ms\n\
     blocked pid4 48.000ms\n\
     woke pid4 89.000ms\n\
     finished pid4 175.000ms\n\
     finished pid1 455.000ms\n\
     finished pid0 635.000ms\n\
     finished pid2 636.000ms\n\
     switches 48\n\
     cpu pid0 400.000ms\n\
     cpu pid1 400.000ms\n\
     cpu pid2 400.000ms\n\
     cpu pid3 5.000ms\n\
     cpu pid4 66.000ms";
const EXPECT_DRIVER_MID: &str = "first_run pid0 0.000ms\n\
     first_run pid1 0.000ms\n\
     first_run pid2 12.000ms\n\
     woke pid3 72.000ms\n\
     first_run pid3 84.000ms\n\
     switches 10\n\
     cpu pid0 52.000ms\n\
     cpu pid1 88.000ms\n\
     cpu pid2 48.000ms\n\
     cpu pid3 12.000ms";
const EXPECT_DRIVER: &str = "first_run pid0 0.000ms\n\
     first_run pid1 0.000ms\n\
     first_run pid2 12.000ms\n\
     woke pid3 72.000ms\n\
     first_run pid3 84.000ms\n\
     finished pid3 138.000ms\n\
     finished pid1 330.000ms\n\
     finished pid0 462.000ms\n\
     finished pid2 468.000ms\n\
     switches 32\n\
     cpu pid0 300.000ms\n\
     cpu pid1 300.000ms\n\
     cpu pid2 300.000ms\n\
     cpu pid3 30.000ms";
const EXPECT_REARM: &str = "first_run pid0 0.000ms\n\
     first_run pid1 0.000ms\n\
     first_run pid2 0.000ms\n\
     first_run pid3 12.000ms\n\
     finished pid2 40.000ms\n\
     finished pid1 124.000ms\n\
     finished pid3 124.000ms\n\
     finished pid0 316.000ms\n\
     switches 3\n\
     cpu pid0 300.000ms\n\
     cpu pid1 124.000ms\n\
     cpu pid2 40.000ms\n\
     cpu pid3 100.000ms";
const EXPECT_STEAL_WAKE_MID: &str = "first_run pid0 0.000ms\n\
     first_run pid1 0.000ms\n\
     first_run pid2 0.000ms\n\
     first_run pid3 12.000ms\n\
     first_run pid4 12.000ms\n\
     blocked pid1 30.000ms\n\
     woke pid1 60.000ms\n\
     finished pid2 60.000ms\n\
     switches 8\n\
     cpu pid0 36.000ms\n\
     cpu pid1 19.000ms\n\
     cpu pid2 60.000ms\n\
     cpu pid3 25.000ms\n\
     cpu pid4 43.000ms";
const EXPECT_STEAL_WAKE: &str = "first_run pid0 0.000ms\n\
     first_run pid1 0.000ms\n\
     first_run pid2 0.000ms\n\
     first_run pid3 12.000ms\n\
     first_run pid4 12.000ms\n\
     blocked pid1 30.000ms\n\
     woke pid1 60.000ms\n\
     finished pid2 60.000ms\n\
     finished pid1 80.000ms\n\
     finished pid4 318.000ms\n\
     finished pid0 336.000ms\n\
     finished pid3 344.000ms\n\
     switches 9\n\
     cpu pid0 300.000ms\n\
     cpu pid1 38.000ms\n\
     cpu pid2 60.000ms\n\
     cpu pid3 300.000ms\n\
     cpu pid4 300.000ms";
