//! Host-speed calibration. On a shared VM the same run can take 1.6× longer
//! for minutes at a time, so every host time the benchmark reports is
//! rescaled to a fixed reference speed: it is multiplied by
//! [`NOMINAL_NS`] ÷ the time a fixed loop took right before and right after
//! the work. The loop belongs to the benchmark and never changes, so a
//! slower or faster program still moves the rescaled figure; what cancels
//! is the host's speed, shared by the loop and the work it brackets.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clock::Clock;

/// Host times are reported as if one [`loop_ns`] reading took this long
/// (about its time on the 2-vCPU VM the benchmark was tuned on).
pub const NOMINAL_NS: f64 = 30_000_000.0;

/// One reading: the time of a small discrete-event loop shaped like the
/// simulator's drive loop — a binary-heap agenda, a 2 MiB table of task
/// records touched at random, and one small heap allocation per event.
/// Of the loops tried, its speed tracked the simulator's most closely: its
/// reading correlated 0.81–0.82 with a repetition's wall time, against
/// 0.61 for a pure pointer chase and 0.63–0.77 for this loop over 4–64 MiB
/// of records.
pub fn loop_ns(clock: &Clock) -> f64 {
    const RECORDS: usize = 16_384;
    const EVENTS: u64 = 300_000;
    let t0 = clock.now_ns();
    let mut records = vec![[0u64; 16]; RECORDS];
    let mut agenda = BinaryHeap::with_capacity(RECORDS);
    for id in 0..RECORDS as u64 {
        agenda.push(Reverse((id % 977, id)));
    }
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut acc = 0u64;
    for _ in 0..EVENTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let Reverse((t, id)) = agenda.pop().expect("the agenda never empties");
        let rec = &mut records[(id ^ x) as usize % RECORDS];
        rec[(x % 16) as usize] += t;
        acc = acc.wrapping_add(rec[0]);
        let boxed = Box::new([x; 8]);
        acc = acc.wrapping_add(std::hint::black_box(boxed)[3]);
        agenda.push(Reverse((t + x % 1000, id)));
    }
    std::hint::black_box(acc);
    (clock.now_ns() - t0) as f64
}

/// Successive readings of [`loop_ns`]; each [`Speed::factor`] covers the
/// work done since the previous reading.
pub struct Speed {
    clock: Clock,
    last_ns: f64,
    readings: Vec<f64>,
}

impl Speed {
    /// Take the first reading (after an untimed one that warms the loop).
    pub fn new(clock: Clock) -> Speed {
        loop_ns(&clock);
        Speed {
            clock,
            last_ns: loop_ns(&clock),
            readings: Vec::new(),
        }
    }

    /// Read the loop again and return the factor that rescales the work
    /// since the previous reading to [`NOMINAL_NS`] speed.
    pub fn factor(&mut self) -> f64 {
        let now = loop_ns(&self.clock);
        self.readings.push(now);
        let f = rescale(self.last_ns, now);
        self.last_ns = now;
        f
    }

    /// Every reading after the first, in nanoseconds.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

/// The factor for work bracketed by readings `before` and `after`.
pub fn rescale(before: f64, after: f64) -> f64 {
    NOMINAL_NS / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescaling_cancels_a_uniformly_slower_host() {
        // Work of 10 ms bracketed by nominal readings stays 10 ms; on a
        // host 1.6× slower both the work and the loop stretch, and the
        // rescaled figure is unchanged.
        let work = 10e6;
        assert_eq!(work * rescale(NOMINAL_NS, NOMINAL_NS), work);
        let slow = 1.6;
        let rescaled = work * slow * rescale(NOMINAL_NS * slow, NOMINAL_NS * slow);
        assert!((rescaled - work).abs() < 1e-6);
    }

    #[test]
    fn the_loop_reads_a_positive_time() {
        let clock = Clock::new();
        let mut s = Speed::new(clock);
        let f = s.factor();
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(s.readings().len(), 1);
    }
}
