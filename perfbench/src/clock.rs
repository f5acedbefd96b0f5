//! Host wall-clock and memory readings — the benchmark's only contact with
//! real time. Every other module takes nanoseconds from [`Clock`].
// lint: allow-file(D2, the benchmark measures host wall-clock time by design; simulated components never read it)

use std::time::Instant;

/// A monotonic nanosecond clock with a per-process epoch.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, if `/proc` has it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
