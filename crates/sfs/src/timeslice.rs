//! Adaptive FILTER time-slice controller (paper §V-C).
//!
//! SFS models the FILTER pool as an M/G/c queue (Eq. 2: `ρ = λ/(cµ)`) and
//! bounds the per-function FILTER residency `S` so the pool's service rate
//! tracks the arrival rate: `S = mean(last N IATs) × c`. A new `S` is
//! computed every N enqueued requests (N = 100 in the paper). The last N
//! IATs at a recalculation are exactly the gaps since the previous one (or,
//! at the first, since the first arrival), so their mean is that span over
//! the gap count: two instants and a counter, no window of samples.

use sfs_simcore::{SimDuration, SimTime, TimeSeries};

use crate::config::{SfsConfig, SliceMode, INITIAL_SLICE, MAX_SLICE, MIN_SLICE};

/// Produces the FILTER time slice `S`, adapting it from observed IATs.
#[derive(Debug)]
pub struct SliceController {
    mode: SliceMode,
    cores: usize,
    window_n: usize,
    current: SimDuration,
    arrivals_since_recalc: usize,
    /// The first arrival, then the arrival of the last recalculation: where
    /// the IATs the next recalculation averages begin.
    window_start: Option<SimTime>,
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
            window_n: cfg.window_n,
            current,
            arrivals_since_recalc: 0,
            window_start: None,
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
        if let SliceMode::Fixed(_) = self.mode {
            return;
        }
        let start = *self.window_start.get_or_insert(t);
        self.arrivals_since_recalc += 1;
        // The first arrival opens the window without closing a gap.
        let gaps = self.arrivals_since_recalc - usize::from(self.recalcs == 0);
        if self.arrivals_since_recalc >= self.window_n && gaps > 0 {
            self.arrivals_since_recalc = 0;
            self.window_start = Some(t);
            let mean_iat_ms = t.since(start).as_millis_f64() / gaps as f64;
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
    use sfs_simcore::SimRng;

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

    /// §V-C read literally: keep every IAT, and every N arrivals (once one
    /// exists) set `S` from the mean of the last N of them.
    struct LastNIats {
        n: usize,
        cores: usize,
        iats_ns: Vec<u64>,
        last: Option<SimTime>,
        since_recalc: usize,
        current: SimDuration,
        /// `(arrival, mean IAT in ms)` at each recalculation.
        recalcs: Vec<(SimTime, f64)>,
    }

    impl LastNIats {
        fn on_arrival(&mut self, t: SimTime) {
            if let Some(prev) = self.last {
                self.iats_ns.push(t.since(prev).as_nanos());
            }
            self.last = Some(t);
            self.since_recalc += 1;
            if self.since_recalc >= self.n && !self.iats_ns.is_empty() {
                self.since_recalc = 0;
                let last_n = &self.iats_ns[self.iats_ns.len().saturating_sub(self.n)..];
                let mean_ms = last_n.iter().sum::<u64>() as f64 / last_n.len() as f64 / 1e6;
                self.current = SimDuration::from_millis_f64(mean_ms * self.cores as f64)
                    .max(MIN_SLICE)
                    .min(MAX_SLICE);
                self.recalcs.push((t, mean_ms));
            }
        }
    }

    /// Feed one seeded arrival stream to the controller and to
    /// [`LastNIats`]: they must recalculate at the same arrivals, agree on
    /// each mean IAT within 1e-9 (relative) and on `S` within 1 ns.
    fn check_against_last_n(n: usize, cores: usize, case: u32) {
        let what = format!("N={n} cores={cores} case {case}");
        let mut rng = SimRng::seed_from_u64(0x1A7).derive(&what);
        let mut c = cfg(cores);
        c.window_n = n;
        let mut sc = SliceController::new(&c);
        let mut model = LastNIats {
            n,
            cores,
            iats_ns: Vec::new(),
            last: None,
            since_recalc: 0,
            current: INITIAL_SLICE,
            recalcs: Vec::new(),
        };
        let mut at = SimTime::ZERO + SimDuration::from_nanos(rng.uniform_u64(0, 1_000));
        for i in 0..20 * n + 3 {
            // A quarter simultaneous arrivals, the rest 1 ns to 10 s apart,
            // log-uniform.
            if i > 0 && !rng.chance(0.25) {
                at += SimDuration::from_nanos(10f64.powf(rng.uniform(0.0, 10.0)) as u64);
            }
            sc.on_arrival(at);
            model.on_arrival(at);
            assert_eq!(
                sc.recalcs(),
                model.recalcs.len() as u64,
                "{what}, arrival {i}"
            );
            let (got, want) = (sc.current().as_nanos(), model.current.as_nanos());
            assert!(
                got.abs_diff(want) <= 1,
                "{what}, arrival {i}: S {got} vs {want} ns"
            );
        }
        let got = sc.iat_timeline().points();
        assert_eq!(got.len(), model.recalcs.len(), "{what}");
        for (&(t, mean), &(want_t, want)) in got.iter().zip(&model.recalcs) {
            assert_eq!(t, want_t, "{what}");
            assert!(
                (mean - want).abs() <= 1e-9 * want,
                "{what}, at {t}: mean IAT {mean} vs {want} ms"
            );
        }
    }

    #[test]
    fn closed_form_mean_matches_last_n_iats() {
        for n in [1, 2, 7, 100] {
            for cores in [1, 16] {
                for case in 0..8 {
                    check_against_last_n(n, cores, case);
                }
            }
        }
    }
}
