//! # sfs-faas — OpenLambda-like FaaS platform substrate
//!
//! The backend platform the paper ports SFS to (§VI, §IX): a gateway, a
//! pool of OpenLambda workers, HTTP sandbox servers managing pre-warmed
//! Docker-like containers, and the UDP `(pid, T_inv)` notification path to
//! SFS (Fig. 5).
//!
//! * [`pipeline`] — FCFS multi-server dispatch hops with jittered overheads;
//! * [`containers`] — the pre-warmed container pool (acquire/release, FIFO
//!   hand-off, occupancy stats);
//! * [`platform`] — [`platform::OpenLambda`]: end-to-end dispatch + run under
//!   SFS or a kernel baseline, with turnaround re-based to HTTP invocation;
//! * [`fleet`] — [`fleet::Fleet`]: multi-region host pools behind a global
//!   front door, with autoscaling and fault injection — the one dispatcher
//!   loop;
//! * [`cluster`] — [`Cluster`], the fleet's one-region spelling, and the
//!   placement disciplines and per-host load model the fleet routes with.

#![warn(missing_docs)]

pub mod cluster;
pub mod containers;
pub mod fleet;
pub mod pipeline;
pub mod platform;

pub use cluster::{Affinity, Cluster, ClusterRun, HostLoad, Placement};
pub use containers::{Acquire, ContainerPool};
pub use fleet::{Autoscaler, FaultSpec, Fleet, FleetRun, FrontDoor, RegionConfig, RegionStats};
pub use pipeline::{Pipeline, Stage};
pub use platform::{Dispatched, OpenLambda, OpenLambdaParams};
