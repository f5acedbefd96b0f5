//! Adaptive FILTER time-slice controller (paper §V-C).
//!
//! SFS models the FILTER pool as an M/G/c queue (Eq. 2: `ρ = λ/(cµ)`) and
//! bounds the per-function FILTER residency `S` so the pool's service rate
//! tracks the arrival rate: `S = mean(last N IATs) × c`. A new `S` is
//! computed every N enqueued requests (N = 100 in the paper) from a sliding
//! window of observed inter-arrival times.

use sfs_simcore::{SimDuration, SimTime, SlidingWindow, TimeSeries};

use crate::config::{SfsConfig, SliceMode, INITIAL_SLICE, MAX_SLICE, MIN_SLICE};

/// Produces the FILTER time slice `S`, adapting it from observed IATs.
#[derive(Debug)]
pub struct SliceController {
    mode: SliceMode,
    cores: usize,
    window: SlidingWindow,
    window_n: usize,
    current: SimDuration,
    arrivals_since_recalc: usize,
    last_arrival: Option<SimTime>,
    recalcs: u64,
    /// Whether the timelines below are recorded (`SfsConfig::record_series`).
    record_series: bool,
    /// Timeline of `(t, S in ms)` after each recalculation (Fig. 10).
    slice_timeline: TimeSeries,
    /// Timeline of `(t, window-mean IAT in ms)` at each recalculation.
    iat_timeline: TimeSeries,
}

impl SliceController {
    /// Build from an [`SfsConfig`].
    pub fn new(cfg: &SfsConfig) -> SliceController {
        let current = match cfg.slice_mode {
            SliceMode::Adaptive => INITIAL_SLICE,
            SliceMode::Fixed(s) => s,
        };
        SliceController {
            mode: cfg.slice_mode,
            cores: cfg.workers,
            window: SlidingWindow::new(cfg.window_n),
            window_n: cfg.window_n,
            current,
            arrivals_since_recalc: 0,
            last_arrival: None,
            recalcs: 0,
            record_series: cfg.record_series,
            slice_timeline: TimeSeries::new("slice_ms"),
            iat_timeline: TimeSeries::new("iat_ms"),
        }
    }

    /// The current time slice `S`.
    pub fn current(&self) -> SimDuration {
        self.current
    }

    /// Number of adaptive recalculations performed.
    pub fn recalcs(&self) -> u64 {
        self.recalcs
    }

    /// Observe one request enqueue at time `t`; may recompute `S`.
    pub fn on_arrival(&mut self, t: SimTime) {
        if let Some(prev) = self.last_arrival {
            self.window.push(t.since(prev).as_millis_f64());
        }
        self.last_arrival = Some(t);
        if let SliceMode::Adaptive = self.mode {
            self.arrivals_since_recalc += 1;
            if self.arrivals_since_recalc >= self.window_n && !self.window.is_empty() {
                self.arrivals_since_recalc = 0;
                let mean_iat_ms = self.window.mean();
                let s = SimDuration::from_millis_f64(mean_iat_ms * self.cores as f64)
                    .max(MIN_SLICE)
                    .min(MAX_SLICE);
                self.current = s;
                self.recalcs += 1;
                if self.record_series {
                    self.slice_timeline.record(t, s.as_millis_f64());
                    self.iat_timeline.record(t, mean_iat_ms);
                }
            }
        }
    }

    /// Timeline of adapted slices (Fig. 10, left axis).
    pub fn slice_timeline(&self) -> &TimeSeries {
        &self.slice_timeline
    }

    /// Timeline of window-mean IATs (Fig. 10, right axis).
    pub fn iat_timeline(&self) -> &TimeSeries {
        &self.iat_timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workers: usize) -> SfsConfig {
        SfsConfig::new(workers)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn fixed_mode_never_changes() {
        let c = cfg(4).with_fixed_slice(50);
        let mut sc = SliceController::new(&c);
        for i in 0..1_000 {
            sc.on_arrival(t(i * 3));
        }
        assert_eq!(sc.current(), SimDuration::from_millis(50));
        assert_eq!(sc.recalcs(), 0);
        assert!(sc.slice_timeline().is_empty());
    }

    #[test]
    fn adaptive_recalcs_every_n() {
        let mut c = cfg(4);
        c.window_n = 10;
        let mut sc = SliceController::new(&c);
        // 10ms IATs on 4 cores → S = 40ms after the first 10 arrivals.
        for i in 0..10 {
            sc.on_arrival(t(i * 10));
        }
        assert_eq!(sc.recalcs(), 1);
        assert_eq!(sc.current(), SimDuration::from_millis(40));
        // Rate doubles (5ms IATs): after 10 more arrivals the window mean
        // falls and S follows.
        for i in 0..10 {
            sc.on_arrival(t(100 + i * 5));
        }
        assert_eq!(sc.recalcs(), 2);
        assert!(
            sc.current() < SimDuration::from_millis(40),
            "S must shrink when arrivals speed up: {}",
            sc.current()
        );
        assert_eq!(sc.slice_timeline().len(), 2);
        assert_eq!(sc.iat_timeline().len(), 2);
    }

    #[test]
    fn initial_slice_used_before_first_recalc() {
        let c = cfg(8);
        let mut sc = SliceController::new(&c);
        assert_eq!(sc.current(), INITIAL_SLICE);
        for i in 0..50 {
            sc.on_arrival(t(i));
        }
        // Fewer than N=100 arrivals: still the initial slice.
        assert_eq!(sc.current(), INITIAL_SLICE);
        assert_eq!(sc.recalcs(), 0);
    }

    #[test]
    fn slice_scales_with_core_count() {
        let mut c1 = cfg(1);
        c1.window_n = 5;
        let mut c16 = cfg(16);
        c16.window_n = 5;
        let mut s1 = SliceController::new(&c1);
        let mut s16 = SliceController::new(&c16);
        for i in 0..6 {
            s1.on_arrival(t(i * 20));
            s16.on_arrival(t(i * 20));
        }
        assert_eq!(s1.current(), SimDuration::from_millis(20));
        assert_eq!(s16.current(), SimDuration::from_millis(320));
    }

    #[test]
    fn clamps_apply() {
        let mut c = cfg(100);
        c.window_n = 2;
        let mut sc = SliceController::new(&c);
        // Huge IATs: S would be 100 × 1000ms = 100s, clamped to the 10s cap.
        sc.on_arrival(t(0));
        sc.on_arrival(t(1_000));
        assert_eq!(sc.current(), MAX_SLICE);
        // 3µs IATs: S would be 100 × 3µs = 0.3ms, clamped up to the 1ms floor.
        let us = |n: u64| t(1_000) + SimDuration::from_micros(n);
        sc.on_arrival(us(3));
        sc.on_arrival(us(6));
        assert_eq!(sc.current(), MIN_SLICE);
    }
}
