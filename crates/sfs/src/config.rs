//! SFS configuration knobs and the paper's fixed numbers.
//!
//! [`SfsConfig`] holds what the evaluation varies: the sliding window N
//! (default 100, §V-C), the status-polling interval (default 4 ms, Fig. 11
//! sweeps 1–8 ms), the slice mode, I/O awareness, the hybrid overload
//! fallback and the queue topology. What the paper fixes is a constant:
//! the overload factor O = 3 ([`OVERLOAD_FACTOR`], §V-E), the FILTER
//! priority ([`FILTER_PRIO`]), and the adaptive slice's starting value and
//! clamps ([`INITIAL_SLICE`], [`MIN_SLICE`], [`MAX_SLICE`]).

use sfs_simcore::SimDuration;

/// Overload threshold factor O: a request whose queueing delay is at least
/// `O × S` when popped triggers the CFS bypass (§V-E).
pub const OVERLOAD_FACTOR: f64 = 3.0;

/// Static `SCHED_FIFO` priority of FILTER functions, and of every request
/// under the FIFO/RR baselines and [`HistoryPriority`](crate::HistoryPriority)'s
/// predicted-short class.
pub const FILTER_PRIO: u8 = 50;

/// Slice used before the first adaptive recalculation.
pub const INITIAL_SLICE: SimDuration = SimDuration::from_millis(100);

/// Lower clamp on the adaptive slice.
pub const MIN_SLICE: SimDuration = SimDuration::from_millis(1);

/// Upper clamp on the adaptive slice.
pub const MAX_SLICE: SimDuration = SimDuration::from_secs(10);

/// How the FILTER time slice `S` is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceMode {
    /// The paper's adaptive heuristic: `S = mean(last N IATs) × cores`,
    /// recomputed every N enqueued requests.
    Adaptive,
    /// A statically fixed slice (the Fig. 9 sensitivity baselines).
    Fixed(SimDuration),
}

/// Queue topology for dispatching requests to SFS workers.
///
/// The paper argues for a single global queue ("a single global queue
/// guarantees natural work conservation with good load balancing", §VI) and
/// cites per-core-queue downsides. [`QueueMode::PerWorker`] exists as the
/// ablation that demonstrates those downsides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueMode {
    /// One global MPMC queue; any idle worker takes the head (the paper's
    /// design).
    Global,
    /// Static per-worker queues (requests assigned round-robin at arrival;
    /// no stealing). Exhibits load imbalance under skewed durations.
    PerWorker,
}

/// Tunables for an SFS instance.
#[derive(Debug, Clone, Copy)]
pub struct SfsConfig {
    /// Number of SFS workers; one per CPU core the FILTER pool may occupy.
    pub workers: usize,
    /// Sliding-window length N for IAT statistics (paper: 100).
    pub window_n: usize,
    /// Time slice selection.
    pub slice_mode: SliceMode,
    /// Kernel-status polling interval (paper: 4 ms; Fig. 11 sweeps 1–8 ms).
    pub poll_interval: SimDuration,
    /// `true` = detect I/O blocks by polling and re-enqueue blocked
    /// functions (§V-D); `false` = the "I/O-oblivious SFS" baseline of
    /// Fig. 11 that lets blocked functions burn their slice.
    pub io_aware: bool,
    /// Enable the hybrid overload fallback to CFS (§V-E). Disabling it gives
    /// the "SFS w/o hybrid" baseline of Fig. 12.
    pub hybrid_overload: bool,
    /// Queue topology (global by default; per-worker is an ablation).
    pub queue_mode: QueueMode,
    /// Record per-request/timeline series (queue-delay series, slice and
    /// IAT timelines) in [`Telemetry`](crate::Telemetry). On by default —
    /// the figure harnesses need them. Streaming runs turn this off so
    /// telemetry memory stays O(1) in request count.
    pub record_series: bool,
}

impl SfsConfig {
    /// Paper-default configuration for a machine with `workers` cores.
    pub fn new(workers: usize) -> SfsConfig {
        SfsConfig {
            workers,
            window_n: 100,
            slice_mode: SliceMode::Adaptive,
            poll_interval: SimDuration::from_millis(4),
            io_aware: true,
            hybrid_overload: true,
            queue_mode: QueueMode::Global,
            record_series: true,
        }
    }

    /// Streaming-run mode: skip series recording (queue-delay series, slice
    /// and IAT timelines) so telemetry memory is O(1) in request count.
    /// Scalar counters (polls, offloads, demotions, …) are unaffected.
    pub fn without_series(mut self) -> SfsConfig {
        self.record_series = false;
        self
    }

    /// Fig. 9 baseline: fixed slice of `ms` milliseconds.
    pub fn with_fixed_slice(mut self, ms: u64) -> SfsConfig {
        self.slice_mode = SliceMode::Fixed(SimDuration::from_millis(ms));
        self
    }

    /// Fig. 11 baseline: I/O-oblivious SFS.
    pub fn io_oblivious(mut self) -> SfsConfig {
        self.io_aware = false;
        self
    }

    /// Fig. 12 baseline: disable the hybrid overload fallback.
    pub fn without_hybrid(mut self) -> SfsConfig {
        self.hybrid_overload = false;
        self
    }

    /// Queue-topology ablation: static per-worker queues instead of the
    /// paper's single global queue.
    pub fn per_worker_queues(mut self) -> SfsConfig {
        self.queue_mode = QueueMode::PerWorker;
        self
    }

    /// Sanity-check invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("SFS needs at least one worker".into());
        }
        if self.window_n == 0 {
            return Err("window N must be >= 1".into());
        }
        if self.poll_interval.is_zero() {
            return Err("poll interval must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SfsConfig::new(12);
        assert_eq!(c.window_n, 100);
        assert_eq!(c.poll_interval, SimDuration::from_millis(4));
        assert!(c.io_aware);
        assert!(c.hybrid_overload);
        assert_eq!(c.slice_mode, SliceMode::Adaptive);
        assert_eq!(c.queue_mode, QueueMode::Global);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_toggle_variants() {
        let c = SfsConfig::new(4).with_fixed_slice(200);
        assert_eq!(
            c.slice_mode,
            SliceMode::Fixed(SimDuration::from_millis(200))
        );
        assert!(!SfsConfig::new(4).io_oblivious().io_aware);
        assert!(!SfsConfig::new(4).without_hybrid().hybrid_overload);
        assert_eq!(
            SfsConfig::new(4).per_worker_queues().queue_mode,
            QueueMode::PerWorker
        );
        assert!(SfsConfig::new(4).record_series);
        assert!(!SfsConfig::new(4).without_series().record_series);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = SfsConfig::new(0);
        assert!(c.validate().is_err());
        c = SfsConfig::new(1);
        c.window_n = 0;
        assert!(c.validate().is_err());
        c = SfsConfig::new(1);
        c.poll_interval = SimDuration::ZERO;
        assert!(c.validate().is_err());
    }
}
