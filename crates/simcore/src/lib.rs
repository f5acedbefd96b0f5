//! # sfs-simcore — discrete-event simulation substrate
//!
//! Foundation crate for the SFS reproduction. Provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a deterministic discrete-event queue with stable
//!   FIFO tie-breaking for simultaneous events,
//! * [`mod@env`] — `SFS_*` environment overrides that reject a malformed
//!   value, naming it, instead of falling back to the default,
//! * [`rng`] — seeded, reproducible random number generation helpers,
//! * [`parallel`] — deterministic trial fan-out: SplitMix64 seed
//!   sequencing plus scoped-thread execution whose results are
//!   bit-identical for every worker-thread count,
//! * [`stats`] — exact percentiles and CDFs, and the quantile sketch
//!   behind streaming runs,
//! * [`series`] — time-series recording for timeline figures (Fig. 10, 12a).
//!
//! Everything here is deterministic: the same seed produces bit-identical
//! experiment output, which is what lets the bench harnesses regenerate the
//! paper's figures reproducibly.

#![warn(missing_docs)]

pub mod env;
pub mod events;
pub mod parallel;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use events::EventQueue;
pub use parallel::SeedSequencer;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::{Cdf, QuantileSketch, Samples};
pub use time::{SimDuration, SimTime};
