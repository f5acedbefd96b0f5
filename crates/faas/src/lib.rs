//! # sfs-faas — OpenLambda-like FaaS platform substrate
//!
//! The backend platform the paper ports SFS to (§VI, §IX): a gateway, a
//! pool of OpenLambda workers, HTTP sandbox servers managing pre-warmed
//! Docker-like containers, and the UDP `(pid, T_inv)` notification path to
//! SFS (Fig. 5).
//!
//! * [`platform`] — [`platform::OpenLambda`]: end-to-end dispatch + run under
//!   SFS or a kernel baseline, with turnaround re-based to HTTP invocation;
//!   its dispatch hops are FCFS server pools with jittered overheads, and
//!   its pre-warmed container pool is checked by an occupancy count;
//! * [`fleet`] — [`fleet::Fleet`]: multi-region host pools behind a global
//!   front door, with autoscaling and fault injection — the one dispatcher
//!   loop;
//! * [`cluster`] — [`Cluster`], the fleet's one-region spelling, and the
//!   placement disciplines and per-host load model the fleet routes with.
//!
//! One first-come-first-served routine models every server pool in the
//! crate: a fleet host's cores ([`cluster::HostLoad`]) and each OpenLambda
//! dispatch hop.

#![warn(missing_docs)]

pub mod cluster;
pub mod fleet;
pub mod platform;

pub use cluster::{Affinity, Cluster, ClusterRun, Placement};
pub use fleet::{FaultSpec, Fleet, FleetRun, FrontDoor, RegionConfig, RegionStats};
pub use platform::{Dispatched, OpenLambda, OpenLambdaParams};
