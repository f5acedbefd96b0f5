//! Cluster request-conservation invariant.
//!
//! For random workloads × all five placements × affinity on/off, the
//! dispatcher must account for every request exactly once: placement
//! counts sum to the workload size, every host runs to completion, and
//! the merged outcome list contains each request id exactly once — no
//! request lost in dispatch, none duplicated across hosts. The request
//! identities are `support/audit.rs`'s; a cluster is the dispatcher that
//! sheds and loses nothing.
//!
//! Seeded case-loop style (like `property_invariants.rs`): fixed seeds,
//! exactly reproducible failures.

#[path = "support/audit.rs"]
mod audit;

use sfs_repro::faas::{Cluster, ClusterRun, Placement};
use sfs_repro::simcore::SimDuration;
use sfs_repro::workload::{Workload, WorkloadSpec};

/// Root seed of every case in this suite.
const ROOT: u64 = 0x0C10_57E4;

/// Every request placed once and completed once, on `hosts` hosts.
fn assert_conserved(run: &ClusterRun, w: &Workload, hosts: usize, ctx: &str) {
    audit::requests(w, &run.outcomes, ctx);
    // Placement conserves requests: per-host counts sum to n.
    assert_eq!(run.per_host.len(), hosts, "{ctx}");
    assert_eq!(run.per_host.iter().sum::<usize>(), w.len(), "{ctx}");
}

#[test]
fn every_request_is_placed_and_completed_exactly_once() {
    for case in 0..12u64 {
        let mut rng = audit::case_rng(ROOT, &["conservation", &case.to_string()]);
        let n = rng.uniform_u64(40, 220) as usize;
        let seed = rng.uniform_u64(0, 9_999);
        let hosts = [1usize, 2, 3, 5, 8][rng.uniform_u64(0, 4) as usize];
        let cores = rng.uniform_u64(1, 4) as usize;
        let load = rng.uniform(0.5, 1.3);
        let w = WorkloadSpec::azure_sampled(n, seed)
            .with_load(hosts * cores, load)
            .generate();

        for affinity in [false, true] {
            let mut cluster = Cluster::new(hosts, cores);
            if affinity {
                cluster = cluster.with_affinity(
                    SimDuration::from_millis(rng.uniform_u64(50, 2_000)),
                    SimDuration::from_millis(rng.uniform_u64(1, 150)),
                );
            }
            for placement in Placement::ALL {
                let run = cluster.run(placement, &w);
                let ctx = format!(
                    "case {case}: {} hosts={hosts} cores={cores} affinity={affinity}",
                    placement.name()
                );
                assert_conserved(&run, &w, hosts, &ctx);

                // Cold starts only exist under the affinity model, and
                // never exceed one per request; without them each host
                // runs the submitted requests unchanged.
                if !affinity {
                    assert_eq!(run.cold_starts, 0, "{ctx}");
                    audit::demand_as_submitted(&w, &run.outcomes, &ctx);
                } else {
                    assert!(run.cold_starts <= n as u64, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn conservation_holds_for_degenerate_shapes() {
    // More hosts than requests; single request; empty workload.
    for (hosts, n) in [(8usize, 3usize), (4, 1), (5, 0)] {
        let w = WorkloadSpec::azure_sampled(n, 77)
            .with_load(hosts, 0.8)
            .generate();
        for placement in Placement::ALL {
            let run = Cluster::new(hosts, 2)
                .with_affinity(SimDuration::from_millis(500), SimDuration::from_millis(20))
                .run(placement, &w);
            let ctx = format!("{} hosts={hosts} n={n}", placement.name());
            assert_conserved(&run, &w, hosts, &ctx);
        }
    }
}
