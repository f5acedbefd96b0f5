//! Deterministic discrete-event queue.
//!
//! [`EventQueue`] orders events by ascending timestamp and breaks ties by
//! insertion order (FIFO). Stable tie-breaking matters: simultaneous events
//! (e.g. a slice expiry and an arrival at the same nanosecond) must be
//! processed in a reproducible order for experiments to be bit-identical
//! across runs.
//!
//! The queue is a [`std::collections::BinaryHeap`] keyed by `(time, seq)`,
//! O(log n) per operation. Its hottest user, the machine's queue, stays
//! shallow (a few events per core), so the heap's small constant beats
//! asymptotically cheaper structures; ARCHITECTURE.md ("Event core and
//! streaming stats") has the measurements behind that choice.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled at a [`SimTime`], carrying an arbitrary payload `E`.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event priority queue with deterministic ordering.
///
/// Events with equal timestamps pop in the order they were pushed.
///
/// # Example
/// ```
/// use sfs_simcore::{EventQueue, SimTime, SimDuration};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.push(SimTime::ZERO + SimDuration::from_millis(2), "second");
/// q.push(SimTime::ZERO + SimDuration::from_millis(1), "first");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(e, "first");
/// assert_eq!(t.as_millis_f64(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// The earliest event as `(time, payload)`, left in the queue.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|s| (s.at, &s.payload))
    }

    /// The instants of every pending event, in no particular order (one
    /// per event, so an instant repeats once per event due then).
    pub fn instants(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.heap.iter().map(|s| s.at)
    }

    /// Remove and return the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.payload))
    }

    /// Remove and return the earliest event only if it fires at or before `t`.
    pub fn pop_until(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        match self.heap.peek() {
            Some(s) if s.at <= t => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(at(30), 3);
        q.push(at(10), 1);
        q.push(at(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(at(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_until_respects_bound() {
        let mut q = EventQueue::new();
        q.push(at(10), 1);
        q.push(at(20), 2);
        assert_eq!(q.pop_until(at(15)).map(|(_, e)| e), Some(1));
        assert_eq!(q.pop_until(at(15)), None);
        assert_eq!(q.pop_until(at(20)).map(|(_, e)| e), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn instants_view_every_pending_event() {
        let mut q = EventQueue::new();
        for ms in [30, 10, 20, 10] {
            q.push(at(ms), ms);
        }
        q.pop();
        let mut seen: Vec<SimTime> = q.instants().collect();
        seen.sort();
        assert_eq!(seen, vec![at(10), at(20), at(30)]);
        assert_eq!(q.len(), 3, "the view consumes nothing");
    }

    #[test]
    fn peek_views_the_head_in_pop_order() {
        let mut q = EventQueue::new();
        for (ms, tag) in [(20, 'b'), (10, 'x'), (10, 'y')] {
            q.push(at(ms), tag);
        }
        assert_eq!(q.peek(), Some((at(10), &'x')));
        assert_eq!(q.pop(), Some((at(10), 'x')));
        assert_eq!(
            q.peek(),
            Some((at(10), &'y')),
            "same-instant ties in push order"
        );
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(at(7), 0);
        assert_eq!(q.peek_time(), Some(at(7)));
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(at(5), 5);
        q.push(at(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(at(3), 3);
        q.push(at(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 5);
    }
}
