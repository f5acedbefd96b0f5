//! Deterministic parallel trial execution.
//!
//! Experiment sweeps run many *independent* trials (one per scenario ×
//! seed × config point). This module fans them out over
//! [`std::thread::scope`] while guaranteeing that the results — down to
//! the last bit — do not depend on the number of worker threads or on
//! the order in which trials happen to complete:
//!
//! * every trial receives its own RNG stream, derived from the master
//!   seed by a [`SeedSequencer`] (a pure SplitMix64 function of
//!   `(master, trial_index)` — no shared mutable RNG state);
//! * results are written into a slot indexed by the trial number, so the
//!   output vector is always in submission order;
//! * trials never communicate; each one is a pure function of its index
//!   and seed.
//!
//! Consequently `run_indexed(n, 1, f)` and `run_indexed(n, 64, f)` return
//! identical vectors, which is what lets `repro_all --threads 8` reproduce
//! the single-threaded figures exactly. The discipline mirrors
//! deterministic-concurrency runtimes: parallelism changes wall-clock
//! time, never the numbers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::rng::SimRng;

/// SplitMix64 finalizer: bijective 64-bit mixing.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives per-trial seeds from a master seed.
///
/// `seed_for(i)` is a pure function of `(master, i)`: unlike drawing
/// seeds from a shared RNG, it does not depend on how many trials ran
/// before, on which thread asks, or on completion order. Two sequencer
/// instances with the same master seed agree forever, and streams for
/// different trial indices are decorrelated by two rounds of SplitMix64
/// mixing.
#[derive(Debug, Clone, Copy)]
pub struct SeedSequencer {
    master: u64,
}

impl SeedSequencer {
    /// A sequencer rooted at `master`.
    pub fn new(master: u64) -> SeedSequencer {
        SeedSequencer { master }
    }

    /// The master seed this sequencer was rooted at.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// The seed for trial `index` (order-independent).
    pub fn seed_for(&self, index: u64) -> u64 {
        // Double mixing keeps nearby (master, index) pairs far apart even
        // for small sequential inputs.
        mix64(mix64(self.master) ^ mix64(index.wrapping_add(0x6a09_e667_f3bc_c909)))
    }

    /// A ready-made RNG for trial `index`.
    pub fn rng_for(&self, index: u64) -> SimRng {
        SimRng::seed_from_u64(self.seed_for(index))
    }
}

/// [`try_default_threads`] for library entry points that take no thread
/// count (`Sweep::run`, `Cluster::run`, `Fleet::run`): a malformed
/// `SFS_BENCH_THREADS` panics with the message naming it. Binaries read
/// the variable in `main` through [`try_default_threads`] instead, and
/// report it as a usage error.
pub fn default_threads() -> usize {
    try_default_threads().unwrap_or_else(|e| panic!("{e}"))
}

/// Number of worker threads to use: `SFS_BENCH_THREADS` if set, otherwise
/// the machine's available parallelism. A set value that is not a count
/// of at least 1 comes back as the message naming the variable and its
/// value ([`crate::env::try_env_override`]).
pub fn try_default_threads() -> Result<usize, String> {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    crate::env::try_env_override(
        "SFS_BENCH_THREADS",
        available,
        "a thread count >= 1",
        |&t| t >= 1,
    )
}

/// Run `f(0..n)` across `threads` workers and return the results in index
/// order.
///
/// Work is distributed by an atomic cursor (dynamic load balancing: long
/// trials do not hold back short ones), but each result lands in the slot
/// of its trial index, so the returned vector is identical for every
/// thread count. A panic in any trial propagates to the caller.
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 || n == 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("unpoisoned result slot") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("unpoisoned result slot")
                .expect("every trial index was claimed exactly once")
        })
        .collect()
}

/// As [`run_indexed`], additionally handing each trial its sequenced RNG
/// (`f(index, rng)` with `rng = SeedSequencer::new(master).rng_for(index)`).
pub fn run_seeded<T, F>(n: usize, threads: usize, master: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, SimRng) -> T + Sync,
{
    let seq = SeedSequencer::new(master);
    run_indexed(n, threads, |i| f(i, seq.rng_for(i as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_pure_and_distinct() {
        let a = SeedSequencer::new(42);
        let b = SeedSequencer::new(42);
        let mut seen = std::collections::HashSet::new();
        for i in 0..1_000u64 {
            assert_eq!(a.seed_for(i), b.seed_for(i));
            assert!(seen.insert(a.seed_for(i)), "seed collision at {i}");
        }
        assert_ne!(
            SeedSequencer::new(1).seed_for(0),
            SeedSequencer::new(2).seed_for(0)
        );
        assert_eq!(a.master(), 42);
    }

    #[test]
    fn adjacent_trials_get_decorrelated_streams() {
        let seq = SeedSequencer::new(7);
        let mut r0 = seq.rng_for(0);
        let mut r1 = seq.rng_for(1);
        let a: Vec<u64> = (0..32).map(|_| r0.next_u64()).collect();
        let b: Vec<u64> = (0..32).map(|_| r1.next_u64()).collect();
        assert_ne!(a, b);
        // rng_for is stateless: a fresh call replays the same stream.
        let mut r0_again = seq.rng_for(0);
        let a_again: Vec<u64> = (0..32).map(|_| r0_again.next_u64()).collect();
        assert_eq!(a, a_again);
    }

    #[test]
    fn run_indexed_preserves_order_for_any_thread_count() {
        let expect: Vec<usize> = (0..57).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = run_indexed(57, threads, |i| i * i);
            assert_eq!(got, expect, "threads={threads}");
        }
        assert!(run_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn run_seeded_results_are_thread_count_invariant() {
        // Each trial draws from its own stream; aggregate bits must match
        // across thread counts.
        let run = |threads| {
            run_seeded(24, threads, 0xBEEF, |i, mut rng| {
                let mut acc = 0u64;
                for _ in 0..=(i % 7) {
                    acc ^= rng.next_u64();
                }
                acc
            })
        };
        let single = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), single, "threads={threads}");
        }
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }
}
