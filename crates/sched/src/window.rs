//! Tickless CFS cores: a core whose fair runqueue only rotates crosses its
//! slice boundaries in closed form.
//!
//! Between two touches, a core whose equal-weight fair tasks take turns
//! in a fixed order is a pure function of its queue: turn `i` runs task
//! `cycle[i mod n]` for the memoised slice `s`, and boundary `i` falls at
//! `start + i × period`, where `period` is `s` plus the switch cost paid
//! after each boundary. Queued tasks outside the cycle stay parked until
//! the window ends. After an eager slice-expiry boundary the machine asks
//! the kernel policy to describe the queue as such a cycle
//! ([`crate::policy::KernelPolicy::rotation`]) and, if it can, opens a
//! [`Window`]: one `CoreFire` at the window's end replaces one per
//! boundary. The boundaries in between are *skipped*: they are not events
//! at all.
//!
//! * **Reads** of the core or its tasks compute the settled state in
//!   closed form without touching the window.
//! * **Writes** settle the elapsed turns into task, core and queue state
//!   ([`KernelCtx::settle_window`]) and close the window.
//! * A lone task's window stays open when other queues decide whether its
//!   boundaries renew it or repick it: the two differ only in the context
//!   switch each counts ([`Tickless::set_lone_switches`]).
//!
//! **Ties.** The eager machine pushes boundary `i`'s event while handling
//! boundary `i − 1`, and same-instant events pop in push order. So a
//! skipped boundary is *keyed* by its predecessor ([`Window::key_of`]).
//! One invariant keeps every tie where the eager machine puts it: no
//! skipped boundary shares an instant with a queued event. A window ends
//! at its first boundary that shares an instant with an event queued when
//! it opens, and every later push at one of its boundary instants turns
//! that boundary into a real event on the correct side of the push
//! (`Machine::push_keyed`). An end event that a push or a settle replaces
//! goes stale through its core's generation, like any eager event: it
//! stays queued, the invariant covers it, and popping it notifies nobody.
//! Every push asks [`Tickless::meets`], which scans the open windows, or
//! with many open consults an [`Index`] first.
//! ARCHITECTURE.md ("Tickless CFS cores") has the full argument.

use sfs_simcore::{SimDuration, SimTime};

use crate::policy::KernelCtx;
use crate::task::{Pid, ProcState};

/// The most turns one window crosses before its end fires as a real
/// boundary. A window closed or cut short leaves its end event queued,
/// stale, until its instant, so the cap bounds how far ahead such
/// leftovers sit.
pub(crate) const MAX_TURNS: u64 = 32;

/// Where an event sits among the events due at its instant, as the eager
/// machine would have pushed it: the instant of the boundary whose handler
/// pushes it, that boundary's own predecessor instant, and the window's
/// opening order. Two boundaries with equal instants and predecessors
/// belong to windows of equal period opened at one instant, so their
/// opening order settles the tie.
pub(crate) type Key = (SimTime, SimTime, u64);

/// The key of a push by a handler or the driver at `now`: it sorts after
/// every boundary keyed at or before `now`. A handler runs at an instant
/// no skipped boundary shares, and the driver acts after the machine has
/// handled every event due at `now`.
pub(crate) fn now_key(now: SimTime) -> Key {
    (now, SimTime::MAX, u64::MAX)
}

/// One core's rotation, crossed in closed form while `open`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Window {
    pub(crate) open: bool,
    /// The task running after the opening boundary, then the queued tasks
    /// in the order they run. Turn `i` runs `cycle[i mod n]`.
    pub(crate) cycle: Vec<Pid>,
    /// The opening boundary (boundary 0), handled eagerly.
    pub(crate) start: SimTime,
    pub(crate) period: SimDuration,
    pub(crate) slice: SimDuration,
    /// Switch cost paid after each boundary before the next turn runs.
    pub(crate) lead: SimDuration,
    /// vruntime one turn adds to the task that runs it.
    pub(crate) vruntime_delta: u64,
    /// Whether each boundary from turn `mark` on counts an involuntary
    /// context switch.
    pub(crate) switches: bool,
    /// Context switches counted by the boundaries up to turn `mark`.
    pub(crate) switched: u64,
    pub(crate) mark: u64,
    /// A lone task with an empty queue: whether its boundaries renew it or
    /// preempt and repick it depends on other cores' queues, so
    /// `switches` may flip while the window is open
    /// ([`Tickless::set_lone_switches`]). Either way the task runs on
    /// unbroken.
    pub(crate) lone: bool,
    /// Boundaries `1..=skipped` are skipped.
    pub(crate) skipped: u64,
    /// The end event's instant: the phase end of turn `skipped`, or
    /// boundary `skipped + 1`.
    pub(crate) end: SimTime,
    /// Opening order across all windows (the last tie-break of a [`Key`]).
    pub(crate) order: u64,
}

impl Window {
    /// Boundary `i`.
    pub(crate) fn boundary(&self, i: u64) -> SimTime {
        self.start + self.period * i
    }

    /// Skipped boundaries due at or before `now`: the turns settled then.
    pub(crate) fn turns_at(&self, now: SimTime) -> u64 {
        (now.since(self.start).as_nanos() / self.period.as_nanos()).min(self.skipped)
    }

    /// The index of the skipped boundary at `at`, if one is.
    pub(crate) fn skipped_index(&self, at: SimTime) -> Option<u64> {
        let (d, p) = (at.since(self.start).as_nanos(), self.period.as_nanos());
        (d > 0 && d <= self.skipped * p && d % p == 0).then(|| d / p)
    }

    /// The key of an event pushed while handling boundary `i`. Boundary 0
    /// is the opening boundary, a real event at `start`.
    pub(crate) fn key_of(&self, i: u64) -> Key {
        match i {
            0 => (self.start, self.start, self.order),
            _ => (self.boundary(i), self.boundary(i - 1), self.order),
        }
    }

    /// Context switches counted by the boundaries of the first `k` turns
    /// (`k` at least `mark`).
    pub(crate) fn switches_in(&self, k: u64) -> u64 {
        self.switched + if self.switches { k - self.mark } else { 0 }
    }

    /// The task running once `k` turns are settled.
    pub(crate) fn current_at(&self, k: u64) -> Pid {
        self.cycle[(k % self.cycle.len() as u64) as usize]
    }

    /// Turns among the first `k` that `cycle[j]` ran.
    pub(crate) fn turns_of(&self, j: usize, k: u64) -> u64 {
        let j = j as u64;
        if k > j {
            (k - 1 - j) / self.cycle.len() as u64 + 1
        } else {
            0
        }
    }

    /// When the running task starts consuming CPU once `k ≥ 1` turns are
    /// settled.
    pub(crate) fn run_start(&self, k: u64) -> SimTime {
        self.boundary(k) + self.lead
    }
}

/// Open windows at which [`Tickless`] starts keeping an [`Index`], and
/// below which it drops it. On 4 cores (at most 3 windows open at a push),
/// keeping the index up to date cost more than scanning; on 72 (36 open
/// on average), scanning on every push read 12 % slower than the index
/// (`table2_overhead`). The thresholds sit between the two and were not
/// tuned further.
const INDEX_FROM: usize = 16;
const INDEX_BELOW: usize = 8;

/// A filter for [`Tickless::meets`] over many open windows: their ends,
/// sorted, and the phases (`start mod period`) of their grids, sorted per
/// period. An instant lies on a grid only if its remainder by the period
/// is among the phases, so a push pays one remainder per distinct period
/// (a queue's length sets its slice, so there are few) and a few binary
/// searches, however many windows are open.
#[derive(Debug, Default)]
struct Index {
    ends: Vec<SimTime>,
    /// `(period, phases)`; a list left empty is kept for the next period
    /// that needs one.
    grids: Vec<(u64, Vec<u64>)>,
}

impl Index {
    fn grid_of(w: &Window) -> (u64, u64) {
        let period = w.period.as_nanos();
        (period, w.start.as_nanos() % period)
    }

    fn add(&mut self, w: &Window) {
        insert_sorted(&mut self.ends, w.end);
        let (period, phase) = Index::grid_of(w);
        let g = match self.grids.iter().position(|g| g.0 == period) {
            Some(g) => g,
            None => match self.grids.iter().position(|g| g.1.is_empty()) {
                Some(g) => g,
                None => {
                    self.grids.push((period, Vec::new()));
                    self.grids.len() - 1
                }
            },
        };
        self.grids[g].0 = period;
        insert_sorted(&mut self.grids[g].1, phase);
    }

    fn remove(&mut self, w: &Window) {
        remove_sorted(&mut self.ends, w.end);
        let (period, phase) = Index::grid_of(w);
        let g = self.grids.iter_mut().find(|g| g.0 == period);
        remove_sorted(&mut g.expect("an open window's period is indexed").1, phase);
    }

    /// False if no open window has its end or a boundary at `at`.
    fn may_meet(&self, at: SimTime) -> bool {
        let t = at.as_nanos();
        self.ends.binary_search(&at).is_ok()
            || (self.grids.iter())
                .any(|(p, phases)| !phases.is_empty() && phases.binary_search(&(t % p)).is_ok())
    }
}

/// Every core's window, plus the bookkeeping shared across them.
#[derive(Debug, Default)]
pub(crate) struct Tickless {
    /// One per core; closed unless the core is in a window.
    pub(crate) windows: Vec<Window>,
    /// Cores whose window is open, in no particular order.
    pub(crate) open: Vec<usize>,
    /// Kept while many windows are open.
    index: Option<Index>,
    /// Open lone windows by their `switches` (0: renewing, 1: repicking).
    pub(crate) lone: [usize; 2],
    pub(crate) next_order: u64,
    /// Context switches of the turns closed windows settled.
    pub(crate) switches: u64,
    /// Closed windows whose end event went stale: the core's next
    /// boundary must be queued again, keyed by the last settled boundary.
    pub(crate) rearm: Vec<(Key, usize)>,
    /// Scratch for `Machine::push_keyed`.
    pub(crate) moved: Vec<(Key, usize)>,
    /// Set by the policy when a lone task's renew-or-repick choice, or an
    /// RT task's wait, may have changed since the machine last checked its
    /// open windows against them.
    pub(crate) recheck: bool,
}

impl Tickless {
    pub(crate) fn new(cores: usize) -> Tickless {
        Tickless {
            windows: vec![Window::default(); cores],
            ..Default::default()
        }
    }

    /// Whether enough windows are open for the [`Index`].
    #[cfg(test)]
    pub(crate) fn indexed(&self) -> bool {
        self.index.is_some()
    }

    /// Whether `core`'s window is open. Checks the open list first, so a
    /// machine with no open window (contention or tracing on, or no
    /// rotating queue) never touches per-core window state.
    pub(crate) fn is_open(&self, core: usize) -> bool {
        !self.open.is_empty() && self.windows[core].open
    }

    /// Mark `core`'s window, just planned, open.
    pub(crate) fn list(&mut self, core: usize) {
        let w = &mut self.windows[core];
        w.open = true;
        if w.lone {
            self.lone[usize::from(w.switches)] += 1;
        }
        self.open.push(core);
        if let Some(index) = &mut self.index {
            index.add(&self.windows[core]);
        } else if self.open.len() >= INDEX_FROM {
            let mut index = Index::default();
            for &c in &self.open {
                index.add(&self.windows[c]);
            }
            self.index = Some(index);
        }
    }

    /// Mark `core`'s window, closing, no longer open.
    fn unlist(&mut self, core: usize) {
        let w = &mut self.windows[core];
        w.open = false;
        if w.lone {
            self.lone[usize::from(w.switches)] -= 1;
        }
        self.open.retain(|&c| c != core);
        if let Some(index) = &mut self.index {
            index.remove(&self.windows[core]);
            if self.open.len() < INDEX_BELOW {
                self.index = None;
            }
        }
    }

    /// `core`'s open window ends at `at` instead: boundary `i` becomes its
    /// end.
    pub(crate) fn end_at(&mut self, core: usize, i: u64, at: SimTime) {
        let w = &mut self.windows[core];
        if let Some(index) = &mut self.index {
            remove_sorted(&mut index.ends, w.end);
            insert_sorted(&mut index.ends, at);
        }
        (w.skipped, w.end) = (i - 1, at);
    }

    /// Whether an open window has its end or a skipped boundary at `at`.
    /// Every push asks; with many windows open, the [`Index`] answers
    /// most pushes without the scan.
    pub(crate) fn meets(&self, at: SimTime) -> bool {
        self.index.as_ref().map_or(true, |index| index.may_meet(at))
            && (self.open.iter()).any(|&c| {
                let w = &self.windows[c];
                at == w.end || w.skipped_index(at).is_some()
            })
    }

    /// From `now` on, every open lone window's boundaries count a context
    /// switch iff `switches`: the renew-or-repick choice flipped. The
    /// boundaries due by `now` keep the choice they were crossed with.
    pub(crate) fn set_lone_switches(&mut self, now: SimTime, switches: bool) {
        for &c in &self.open {
            let w = &mut self.windows[c];
            if w.lone && w.switches != switches {
                let k = w.turns_at(now);
                (w.switched, w.mark, w.switches) = (w.switches_in(k), k, switches);
            }
        }
        let n = self.lone[0] + self.lone[1];
        self.lone = [0, 0];
        self.lone[usize::from(switches)] = n;
    }
}

/// Insert `v` into the sorted `list`.
fn insert_sorted<T: Ord>(list: &mut Vec<T>, v: T) {
    let i = list.partition_point(|x| *x < v);
    list.insert(i, v);
}

/// Remove one `v` from the sorted `list`, which holds it.
fn remove_sorted<T: Ord + std::fmt::Debug>(list: &mut Vec<T>, v: T) {
    let i = list.partition_point(|x| *x < v);
    debug_assert_eq!(list.get(i), Some(&v));
    list.remove(i);
}

impl KernelCtx<'_> {
    /// The rotation of `core`'s last window (valid from its opening until
    /// the next one opens).
    pub(crate) fn window_cycle(&self, core: usize) -> &[Pid] {
        &self.tickless.windows[core].cycle
    }

    /// Settle `core`'s open window at `now` and close it: each task gains
    /// its elapsed turns' CPU time, phase progress, context switches and
    /// vruntime (k × the per-turn delta, never the delta of k slices), and
    /// the core takes the running task, slice bounds and clock the last
    /// settled boundary left. Returns true if any turn was settled, in
    /// which case the policy's queue must be rebuilt
    /// ([`crate::policy::KernelPolicy::rotation_settled`]). No-op without
    /// an open window.
    pub(crate) fn settle_window(&mut self, core: usize) -> bool {
        let tl = &mut *self.tickless;
        if !tl.windows[core].open {
            return false;
        }
        tl.unlist(core);
        let k = tl.windows[core].turns_at(self.now);
        let c = &mut self.cores[core];
        if k < tl.windows[core].skipped {
            // The end event lies beyond the next boundary: it goes stale.
            tl.rearm.push((tl.windows[core].key_of(k), core));
            c.gen += 1;
        }
        if k == 0 {
            return false;
        }
        let w = &tl.windows[core];
        for (j, &pid) in w.cycle.iter().enumerate() {
            let turns = w.turns_of(j, k);
            let t = &mut self.tasks[pid.0 as usize];
            t.cpu_time += w.slice * turns;
            t.phase_rem -= w.slice * turns;
            t.vruntime += w.vruntime_delta * turns;
            // A rotation of two or more switches at every boundary.
            t.ctx_switches += match w.cycle.len() {
                1 => w.switches_in(k),
                _ => turns,
            };
            t.state = ProcState::Runnable;
        }
        let current = w.current_at(k);
        self.tasks[current.0 as usize].state = ProcState::Running;
        let start = w.run_start(k);
        c.current = Some(current);
        c.last_ran = Some(current);
        c.run_start = start;
        c.slice_start = start;
        c.slice_end = start + w.slice;
        c.clock = c.clock.max(start);
        tl.switches += w.switches_in(k);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn window(n: u64, skipped: u64) -> Window {
        Window {
            open: true,
            cycle: (0..n).map(Pid).collect(),
            start: SimTime::ZERO + ms(10),
            period: ms(6),
            slice: ms(5),
            lead: ms(1),
            skipped,
            end: SimTime::ZERO + ms(10 + 6 * (skipped + 1)),
            ..Default::default()
        }
    }

    #[test]
    fn turns_split_round_robin_from_the_opening_task() {
        let w = window(3, 20);
        let counts = |k| (0..3).map(|j| w.turns_of(j, k)).collect::<Vec<_>>();
        assert_eq!(counts(0), [0, 0, 0]);
        assert_eq!(counts(1), [1, 0, 0]);
        assert_eq!(counts(5), [2, 2, 1]);
        assert_eq!(counts(6), [2, 2, 2]);
        assert_eq!(w.current_at(5), Pid(2));
        assert_eq!(w.current_at(6), Pid(0));
    }

    #[test]
    fn boundaries_are_the_period_grid_up_to_the_skipped_count() {
        let w = window(2, 3);
        let t = |v| SimTime::ZERO + ms(v);
        assert_eq!(w.turns_at(t(15)), 0);
        assert_eq!(w.turns_at(t(16)), 1);
        assert_eq!(w.turns_at(t(200)), 3, "capped at the skipped count");
        assert_eq!(w.skipped_index(t(10)), None, "the opening boundary is real");
        assert_eq!(w.skipped_index(t(22)), Some(2));
        assert_eq!(w.skipped_index(t(23)), None);
        assert_eq!(w.skipped_index(t(34)), None, "boundary 4 is the end");
        assert_eq!(w.run_start(2), t(23));
    }

    /// With enough windows open for the index, `meets` still finds every
    /// end and skipped boundary, and nothing else, as windows open, end
    /// early and close.
    #[test]
    fn meets_agrees_with_a_scan_of_the_windows() {
        let mut rng = sfs_simcore::SimRng::seed_from_u64(7).derive("meets");
        let cores = 40;
        let mut tl = Tickless::new(cores);
        let scan = |tl: &Tickless, at: SimTime| {
            (tl.open.iter()).any(|&c| {
                let w = &tl.windows[c];
                at == w.end || w.skipped_index(at).is_some()
            })
        };
        let mut indexed = 0;
        for _ in 0..600 {
            let core = rng.uniform_u64(0, cores as u64 - 1) as usize;
            let w = &tl.windows[core];
            if !w.open {
                let w = &mut tl.windows[core];
                w.start = SimTime::ZERO + ms(rng.uniform_u64(0, 60));
                w.period = ms([3, 5, 6][rng.uniform_u64(0, 2) as usize]);
                w.skipped = rng.uniform_u64(1, MAX_TURNS);
                w.end = w.boundary(w.skipped) + ms(rng.uniform_u64(1, 3));
                tl.list(core);
            } else if w.skipped > 1 && rng.chance(0.3) {
                let i = rng.uniform_u64(2, w.skipped);
                tl.end_at(core, i, w.boundary(i));
            } else {
                tl.unlist(core);
            }
            indexed += usize::from(tl.indexed());
            let mut probes: Vec<SimTime> = (tl.open.iter())
                .flat_map(|&c| {
                    let w = &tl.windows[c];
                    (0..=w.skipped + 1).map(|i| w.boundary(i)).chain([w.end])
                })
                .collect();
            probes.extend((0..200).map(|_| SimTime::ZERO + ms(rng.uniform_u64(0, 300))));
            for at in probes {
                for at in [at, at + SimDuration(1)] {
                    assert_eq!(tl.meets(at), scan(&tl, at), "at {at}");
                }
            }
        }
        assert!(
            indexed > 100,
            "the index was in use at {indexed} steps only"
        );
    }

    #[test]
    fn keys_follow_the_eager_push_order() {
        let w = window(2, 3);
        let t = |v| SimTime::ZERO + ms(v);
        assert_eq!(w.key_of(0), (t(10), t(10), 0));
        assert_eq!(w.key_of(2), (t(22), t(16), 0));
        // A handler at an instant after a boundary's predecessor sorts after
        // it; one before sorts first.
        assert!(w.key_of(2) < now_key(t(22)));
        assert!(w.key_of(2) > now_key(t(21)));
    }
}
