//! CFS (Completely Fair Scheduler) runqueue model.
//!
//! Per-core red-black-tree runqueue ordered by `vruntime` (§II-B of the
//! paper), implemented with a 4-ary heap keyed by `(vruntime, Pid)` which
//! gives the same O(log n) pick-smallest discipline. Mirrors mainline
//! defaults, fixed for every machine:
//!
//! * [`SCHED_LATENCY`]      = 24 ms (scheduling period for ≤ 8 runnable),
//! * [`MIN_GRANULARITY`]    = 3 ms  (slice floor; period stretches when
//!   more than `SCHED_LATENCY / MIN_GRANULARITY` tasks are runnable),
//! * [`WAKEUP_GRANULARITY`] = 4 ms  (preemption hysteresis on wakeup),
//! * nice→weight table from `kernel/sched/core.c` (`sched_prio_to_weight`).
//!
//! The paper's core observation (§III) falls out of these rules: with `k`
//! runnable tasks a short function receives only `period/k` of CPU every
//! `period`, so its turnaround is roughly `k ×` its service time.

use sfs_simcore::SimDuration;

use crate::task::Pid;

/// `sched_prio_to_weight`: weight for nice -20 (index 0) through 19 (39).
/// NICE_0_LOAD is 1024.
pub const NICE_TO_WEIGHT: [u32; 40] = [
    88761, 71755, 56483, 46273, 36291, // -20 .. -16
    29154, 23254, 18705, 14949, 11916, // -15 .. -11
    9548, 7620, 6100, 4904, 3906, // -10 .. -6
    3121, 2501, 1991, 1586, 1277, // -5 .. -1
    1024, 820, 655, 526, 423, // 0 .. 4
    335, 272, 215, 172, 137, // 5 .. 9
    110, 87, 70, 56, 45, // 10 .. 14
    36, 29, 23, 18, 15, // 15 .. 19
];

/// Weight of a nice-0 task.
pub const NICE_0_WEIGHT: u32 = 1024;

/// Weight for a nice level, clamped to the valid range.
pub fn weight_of_nice(nice: i8) -> u32 {
    let idx = (nice.clamp(-20, 19) as i32 + 20) as usize;
    NICE_TO_WEIGHT[idx]
}

/// `sched_latency_ns`: the scheduling period while at most
/// `SCHED_LATENCY / MIN_GRANULARITY` tasks are runnable.
pub const SCHED_LATENCY: SimDuration = SimDuration::from_millis(24);

/// `sched_min_granularity_ns`: the slice floor, and each task's share of
/// the period once more tasks are runnable.
pub const MIN_GRANULARITY: SimDuration = SimDuration::from_millis(3);

/// `sched_wakeup_granularity_ns`: a waking task preempts the current one
/// only if its vruntime lags by more than this (weight-scaled in the
/// kernel; fixed here).
pub const WAKEUP_GRANULARITY: SimDuration = SimDuration::from_millis(4);

/// The scheduling period for `nr_running` tasks: [`SCHED_LATENCY`] while
/// `nr ≤ SCHED_LATENCY / MIN_GRANULARITY`, else `nr × MIN_GRANULARITY`
/// (the kernel's `__sched_period`).
pub fn period(nr_running: u64) -> SimDuration {
    let nr_latency = SCHED_LATENCY.as_nanos() / MIN_GRANULARITY.as_nanos();
    if nr_running <= nr_latency {
        SCHED_LATENCY
    } else {
        MIN_GRANULARITY * nr_running
    }
}

/// Time slice for a task of `weight` among `total_weight` of runnable load
/// with `nr_running` tasks (the kernel's `sched_slice`), floored at
/// [`MIN_GRANULARITY`].
pub fn slice(nr_running: u64, weight: u32, total_weight: u64) -> SimDuration {
    if total_weight == 0 {
        return SCHED_LATENCY;
    }
    let s = period(nr_running).mul_f64(weight as f64 / total_weight as f64);
    s.max(MIN_GRANULARITY)
}

/// vruntime delta for `exec` real runtime at `weight`
/// (`delta_exec × NICE_0_LOAD / weight`, truncated to 64 bits). The
/// product is taken in 128 bits only when it overflows 64.
pub fn vruntime_delta(exec: SimDuration, weight: u32) -> u64 {
    let exec = exec.as_nanos();
    if weight == NICE_0_WEIGHT {
        return exec;
    }
    let weight = u64::from(weight.max(1));
    match exec.checked_mul(u64::from(NICE_0_WEIGHT)) {
        Some(scaled) => scaled / weight,
        None => ((u128::from(exec) * u128::from(NICE_0_WEIGHT)) / u128::from(weight)) as u64,
    }
}

/// Sentinel for "this pid is not queued" in the position index.
const POS_NONE: u32 = u32::MAX;

/// A per-core CFS runqueue: queued (not running) tasks ordered by vruntime.
///
/// Index-backed: a 4-ary min-heap of `(vruntime, pid, weight)` entries
/// keyed by `(vruntime, pid)`, plus a dense `pid → heap position` index,
/// replacing the original `BTreeSet<(u64, Pid)>` + `HashMap<Pid, u32>`
/// weight table. A pick or an enqueue now touches one contiguous array
/// (no tree-node walks) and never hashes the pid (the weight travels in
/// the entry, the position index is a plain vector). The observable
/// semantics are identical — pops always yield the unique smallest
/// `(vruntime, pid)` — and the differential suite
/// (`tests/cfs_runqueue_diff.rs`) drives this and a naive sorted
/// reference model through randomized interleavings to prove it.
///
/// The position index is keyed by `pid.0`, sized to the largest pid ever
/// enqueued. The machine allocates pids densely from 0, so the index is
/// O(spawned tasks); don't feed sparse synthetic pids like
/// `Pid(u64::MAX)` to a real queue.
#[derive(Debug, Clone, Default)]
pub struct CfsRunqueue {
    /// 4-ary min-heap ordered by `(vruntime, pid)`; weight rides along.
    heap: Vec<(u64, Pid, u32)>,
    /// `pos[pid.0]` = index into `heap`, or [`POS_NONE`].
    pos: Vec<u32>,
    /// Monotonic minimum vruntime floor for this queue (never decreases).
    min_vruntime: u64,
    /// Sum of weights of queued tasks.
    total_weight: u64,
}

/// Heap ordering key.
#[inline]
fn key(e: &(u64, Pid, u32)) -> (u64, u64) {
    (e.0, e.1 .0)
}

impl CfsRunqueue {
    /// Empty runqueue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued (runnable, not running) tasks.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no tasks are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Sum of queued task weights.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// The queue's monotonic min_vruntime floor. New/woken tasks are placed
    /// at `max(task.vruntime, min_vruntime)` so sleepers cannot hoard an
    /// arbitrarily small vruntime and starve the queue when they wake.
    pub fn min_vruntime(&self) -> u64 {
        self.min_vruntime
    }

    /// Normalise a task's vruntime for (re-)enqueue on this queue.
    pub fn place_vruntime(&self, task_vruntime: u64) -> u64 {
        task_vruntime.max(self.min_vruntime)
    }

    #[inline]
    fn pos_of(&self, pid: Pid) -> u32 {
        self.pos.get(pid.0 as usize).copied().unwrap_or(POS_NONE)
    }

    /// True iff `pid` is queued here (O(1) via the position index).
    pub fn contains(&self, pid: Pid) -> bool {
        self.pos_of(pid) != POS_NONE
    }

    /// Insert a task with its (already normalised) vruntime.
    pub fn enqueue(&mut self, pid: Pid, vruntime: u64, weight: u32) {
        debug_assert!(self.pos_of(pid) == POS_NONE, "task {pid} double-enqueued");
        let slot = pid.0 as usize;
        if self.pos.len() <= slot {
            self.pos.resize(slot + 1, POS_NONE);
        }
        let idx = self.heap.len();
        self.heap.push((vruntime, pid, weight));
        self.pos[slot] = idx as u32;
        self.total_weight += weight as u64;
        self.sift_up(idx);
    }

    /// Remove a specific task (e.g. policy change while queued). Returns
    /// `false` when `(pid, vruntime)` is not queued.
    pub fn remove(&mut self, pid: Pid, vruntime: u64) -> bool {
        let idx = self.pos_of(pid);
        if idx == POS_NONE || self.heap[idx as usize].0 != vruntime {
            return false;
        }
        let (_, _, w) = self.remove_at(idx as usize);
        self.total_weight = self.total_weight.saturating_sub(w as u64);
        true
    }

    /// Every queued `(vruntime, pid, weight)`, in no particular order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, Pid, u32)> + '_ {
        self.heap.iter().copied()
    }

    /// Empty the queue, keeping its `min_vruntime` floor.
    pub(crate) fn clear(&mut self) {
        for &(_, pid, _) in &self.heap {
            self.pos[pid.0 as usize] = POS_NONE;
        }
        self.heap.clear();
        self.total_weight = 0;
    }

    /// Peek the leftmost (smallest-vruntime) task.
    pub fn peek(&self) -> Option<(u64, Pid)> {
        self.heap.first().map(|&(v, p, _)| (v, p))
    }

    /// Pop the leftmost task and advance `min_vruntime` to it.
    pub fn pop(&mut self) -> Option<(u64, Pid)> {
        if self.heap.is_empty() {
            return None;
        }
        let (v, p, w) = self.remove_at(0);
        self.total_weight = self.total_weight.saturating_sub(w as u64);
        self.advance_min_vruntime(v);
        Some((v, p))
    }

    /// Pop the *rightmost* (largest-vruntime) task — used for idle stealing,
    /// where taking the task that would run last disturbs the victim least.
    /// The heap keeps no max order, so this scans — stealing only happens
    /// when a core goes idle, far off the pick path.
    pub fn pop_last(&mut self) -> Option<(u64, Pid)> {
        let (idx, _) = self.heap.iter().enumerate().max_by_key(|(_, e)| key(e))?;
        let (v, p, w) = self.remove_at(idx);
        self.total_weight = self.total_weight.saturating_sub(w as u64);
        Some((v, p))
    }

    /// Raise the monotonic floor (called as tasks run/pop).
    pub fn advance_min_vruntime(&mut self, candidate: u64) {
        if candidate > self.min_vruntime {
            self.min_vruntime = candidate;
        }
    }

    /// Detach the entry at `idx`, refilling the hole from the heap tail.
    fn remove_at(&mut self, idx: usize) -> (u64, Pid, u32) {
        let entry = self.heap[idx];
        self.pos[entry.1 .0 as usize] = POS_NONE;
        let last = self.heap.pop().expect("non-empty");
        if idx < self.heap.len() {
            self.heap[idx] = last;
            self.pos[last.1 .0 as usize] = idx as u32;
            // The tail entry may belong above or below the hole.
            if idx > 0 && key(&self.heap[idx]) < key(&self.heap[(idx - 1) / 4]) {
                self.sift_up(idx);
            } else {
                self.sift_down(idx);
            }
        }
        entry
    }

    /// Hole-based sift: entries shift into the hole and the moving entry
    /// is written (and its position indexed) exactly once at the end.
    fn sift_up(&mut self, mut idx: usize) {
        let entry = self.heap[idx];
        let k = key(&entry);
        while idx > 0 {
            let parent = (idx - 1) / 4;
            if k < key(&self.heap[parent]) {
                self.heap[idx] = self.heap[parent];
                self.pos[self.heap[idx].1 .0 as usize] = idx as u32;
                idx = parent;
            } else {
                break;
            }
        }
        self.heap[idx] = entry;
        self.pos[entry.1 .0 as usize] = idx as u32;
    }

    fn sift_down(&mut self, mut idx: usize) {
        let entry = self.heap[idx];
        let k = key(&entry);
        loop {
            let first = 4 * idx + 1;
            if first >= self.heap.len() {
                break;
            }
            let mut best = first;
            let mut best_key = key(&self.heap[first]);
            for c in (first + 1)..(first + 4).min(self.heap.len()) {
                let ck = key(&self.heap[c]);
                if ck < best_key {
                    best = c;
                    best_key = ck;
                }
            }
            if best_key >= k {
                break;
            }
            self.heap[idx] = self.heap[best];
            self.pos[self.heap[idx].1 .0 as usize] = idx as u32;
            idx = best;
        }
        self.heap[idx] = entry;
        self.pos[entry.1 .0 as usize] = idx as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn weight_table_spot_checks() {
        assert_eq!(weight_of_nice(0), 1024);
        assert_eq!(weight_of_nice(-20), 88761);
        assert_eq!(weight_of_nice(19), 15);
        // Each nice level is ~1.25x the next.
        let r = weight_of_nice(0) as f64 / weight_of_nice(1) as f64;
        assert!((r - 1.25).abs() < 0.01, "nice ratio {r}");
        // Clamping out-of-range nice values.
        assert_eq!(weight_of_nice(-100), 88761);
        assert_eq!(weight_of_nice(100), 15);
    }

    #[test]
    fn period_stretches_under_load() {
        assert_eq!(period(1), ms(24));
        assert_eq!(period(8), ms(24));
        // Beyond sched_latency/min_granularity = 8 tasks the period grows.
        assert_eq!(period(9), ms(27));
        assert_eq!(period(100), ms(300));
    }

    #[test]
    fn slice_is_proportional_and_floored() {
        // Two equal nice-0 tasks: half the 24ms period each.
        let s = slice(2, NICE_0_WEIGHT, 2 * NICE_0_WEIGHT as u64);
        assert_eq!(s, ms(12));
        // Many tasks: the floor kicks in.
        let s = slice(1000, NICE_0_WEIGHT, 1000 * NICE_0_WEIGHT as u64);
        assert_eq!(s, ms(3));
        // Empty queue: full latency.
        assert_eq!(slice(0, NICE_0_WEIGHT, 0), ms(24));
    }

    #[test]
    fn vruntime_scales_inversely_with_weight() {
        // nice 0: 1ms of runtime -> 1ms of vruntime.
        assert_eq!(vruntime_delta(ms(1), NICE_0_WEIGHT), ms(1).as_nanos());
        // High-priority (heavy) tasks accrue vruntime slower.
        let d = vruntime_delta(ms(1), weight_of_nice(-5));
        assert!(d < ms(1).as_nanos() / 3);
        // Low-priority (light) tasks accrue faster.
        let d = vruntime_delta(ms(1), weight_of_nice(5));
        assert!(d > ms(3).as_nanos());
    }

    /// `vruntime_delta` equals the all-`u128` formula it replaced, for
    /// every nice weight (and the degenerate 0 and 1), at spans up to and
    /// past the point where `exec × 1024` overflows 64 bits.
    #[test]
    fn vruntime_delta_matches_u128_reference() {
        let reference =
            |exec: u64, w: u32| ((exec as u128 * NICE_0_WEIGHT as u128) / w.max(1) as u128) as u64;
        let edge = u64::MAX / NICE_0_WEIGHT as u64;
        let mut spans = vec![0, 1, 2, 1023, 1024, 1025, 999_999, 3_000_000, 24_000_000];
        spans.extend((0..=4).flat_map(|d| [edge - d, edge + d]));
        spans.extend([u64::MAX / 2, u64::MAX - 1, u64::MAX]);
        let mut rng = sfs_simcore::SimRng::seed_from_u64(0x5EED).derive("vruntime");
        spans.extend((0..2_000).map(|_| rng.next_u64() >> rng.uniform_u64(0, 63)));
        let weights = NICE_TO_WEIGHT.iter().copied().chain([0, 1, u32::MAX]);
        for w in weights {
            for &exec in &spans {
                assert_eq!(
                    vruntime_delta(SimDuration(exec), w),
                    reference(exec, w),
                    "exec={exec} weight={w}"
                );
            }
        }
    }

    #[test]
    fn runqueue_orders_by_vruntime() {
        let mut rq = CfsRunqueue::new();
        rq.enqueue(Pid(1), 300, 1024);
        rq.enqueue(Pid(2), 100, 1024);
        rq.enqueue(Pid(3), 200, 1024);
        assert_eq!(rq.len(), 3);
        assert_eq!(rq.total_weight(), 3 * 1024);
        let (v, p) = rq.pop().unwrap();
        assert_eq!((v, p), (100, Pid(2)));
        assert_eq!(rq.min_vruntime(), 100);
        let (v, p) = rq.pop().unwrap();
        assert_eq!((v, p), (200, Pid(3)));
        assert_eq!(rq.peek(), Some((300, Pid(1))));
    }

    #[test]
    fn min_vruntime_floor_is_monotone() {
        let mut rq = CfsRunqueue::new();
        rq.enqueue(Pid(1), 1000, 1024);
        rq.pop();
        assert_eq!(rq.min_vruntime(), 1000);
        // A task that slept with old vruntime 10 gets re-placed at the floor.
        assert_eq!(rq.place_vruntime(10), 1000);
        // A task already ahead keeps its own vruntime.
        assert_eq!(rq.place_vruntime(5000), 5000);
        rq.advance_min_vruntime(500); // lower candidate: no effect
        assert_eq!(rq.min_vruntime(), 1000);
    }

    #[test]
    fn remove_specific_entry() {
        let mut rq = CfsRunqueue::new();
        rq.enqueue(Pid(1), 10, 1024);
        rq.enqueue(Pid(2), 20, 512);
        assert!(rq.remove(Pid(2), 20));
        assert!(!rq.remove(Pid(2), 20));
        assert_eq!(rq.len(), 1);
        assert_eq!(rq.total_weight(), 1024);
    }

    #[test]
    fn pop_last_takes_tail() {
        let mut rq = CfsRunqueue::new();
        rq.enqueue(Pid(1), 10, 1024);
        rq.enqueue(Pid(2), 99, 1024);
        let (v, p) = rq.pop_last().unwrap();
        assert_eq!((v, p), (99, Pid(2)));
        // Stealing from the tail must not advance the floor.
        assert_eq!(rq.min_vruntime(), 0);
    }
}
