//! Fleet conservation-under-failure invariant.
//!
//! For random workloads × fault scenarios × all five placements, the
//! fleet must attribute every offered request to exactly one outcome —
//! completed, shed at the front door, or lost to a fault — with the
//! three populations disjoint and summing to the workload size. Crashes
//! may move work, stragglers may stretch it, an AZ outage may take half
//! a region down mid-run: nothing may be double-counted or silently
//! dropped. The attribution identities are `support/audit.rs`'s.
//!
//! The second test is the ISSUE's acceptance gate verbatim: a 2-region ×
//! 64-host faulted run is bit-identical at `--threads 1` vs `--threads 8`
//! (fingerprinted per request, shed/lost id lists compared exactly).
//!
//! Seeded case-loop style (like `property_cluster.rs`): fixed seeds,
//! exactly reproducible failures.

#[path = "support/audit.rs"]
mod audit;

use sfs_repro::faas::{FaultSpec, Fleet, FleetRun, Placement};
use sfs_repro::simcore::SimDuration;
use sfs_repro::workload::{Workload, WorkloadSpec};

/// Root seed of every case in this suite.
const ROOT: u64 = 0xF1EE_7CA5;

/// Every submitted id lands in exactly one of completed / shed / lost, and
/// the fleet's own counters agree.
fn assert_conserved(run: &FleetRun, w: &Workload, ctx: &str) {
    audit::partition(w, &run.outcomes, &run.shed, &run.lost, ctx);
    assert!(
        run.conservation_holds(),
        "{ctx}: counts do not sum to {}",
        w.len()
    );
    // Attribution side-channels agree with the populations they count.
    let placed: u64 = run.per_region.iter().map(|r| r.placed).sum();
    assert_eq!(
        placed,
        (w.len() - run.shed.len()) as u64 + run.redispatches,
        "{ctx}: placements != routed + re-dispatched"
    );
}

const FAULT_MIXES: [&str; 5] = [
    "none",
    "crash:3",
    "straggler:3",
    "outage:1",
    "crash:2+straggler:2+outage:1",
];

fn faulted_fleet(regions: usize, hosts: usize, cores: usize, mix: &str) -> Fleet {
    let mut fleet = Fleet::new(regions, hosts, cores);
    if mix != "none" {
        fleet = fleet.with_faults(FaultSpec::parse(mix).expect("literal fault spec"));
    }
    fleet
}

#[test]
fn every_request_is_attributed_exactly_once_under_every_fault_mix() {
    for case in 0..8u64 {
        let mut rng = audit::case_rng(ROOT, &["conservation", &case.to_string()]);
        let n = rng.uniform_u64(60, 240) as usize;
        let seed = rng.uniform_u64(0, 9_999);
        let regions = [1usize, 2, 3][rng.uniform_u64(0, 2) as usize];
        let hosts = [2usize, 4, 8][rng.uniform_u64(0, 2) as usize];
        let cores = rng.uniform_u64(1, 3) as usize;
        let load = rng.uniform(0.6, 1.3);
        let w = WorkloadSpec::azure_sampled(n, seed)
            .with_load(regions * hosts * cores, load)
            .generate();

        for mix in FAULT_MIXES {
            let mut fleet = faulted_fleet(regions, hosts, cores, mix);
            let cold_starts = case % 2 == 0;
            if cold_starts {
                fleet = fleet.with_affinity(
                    SimDuration::from_millis(rng.uniform_u64(100, 3_000)),
                    SimDuration::from_millis(rng.uniform_u64(1, 80)),
                );
            }
            for placement in Placement::ALL {
                let run = fleet.run(placement, &w);
                let ctx = format!(
                    "case {case}: {} {regions}x{hosts}x{cores} faults={mix}",
                    placement.name()
                );
                assert_conserved(&run, &w, &ctx);
                // Loss is a fault outcome: fault-free runs complete or
                // shed, never lose.
                if mix == "none" {
                    assert!(run.lost.is_empty(), "{ctx}: lost without faults");
                }
                // Cold starts add CPU on the host and stragglers stretch
                // it; without either, hosts run what was submitted.
                if mix == "none" && !cold_starts {
                    audit::demand_as_submitted(&w, &run.outcomes, &ctx);
                }
            }
        }
    }
}

/// The acceptance gate: a 2-region × 64-host faulted run, bit-identical
/// at 1 vs 8 worker threads.
#[test]
fn faulted_64_host_fleet_is_bit_identical_at_1_vs_8_threads() {
    let n = 2_000usize;
    let fleet = faulted_fleet(2, 64, 2, "crash:6+straggler:4+outage:1").with_affinity(
        SimDuration::from_millis(2_000),
        SimDuration::from_millis(40),
    );
    let w = WorkloadSpec::azure_sampled(n, 0x064F_1EE7)
        .with_load(2 * 64 * 2, 0.95)
        .generate();

    let fingerprint = |run: &FleetRun| -> Vec<(u64, u64, u64, u64)> {
        run.outcomes
            .iter()
            .map(|o| {
                (
                    o.id,
                    o.finished.as_nanos(),
                    o.turnaround.as_nanos(),
                    o.rte.to_bits(),
                )
            })
            .collect()
    };

    let one = fleet.run_with_threads(Placement::JoinShortestQueue, &fleet.sfs, &w, 1);
    assert_conserved(&one, &w, "threads=1");
    for threads in [2usize, 8] {
        let multi = fleet.run_with_threads(Placement::JoinShortestQueue, &fleet.sfs, &w, threads);
        assert_eq!(fingerprint(&one), fingerprint(&multi), "threads={threads}");
        assert_eq!(one.shed, multi.shed, "threads={threads}");
        assert_eq!(one.lost, multi.lost, "threads={threads}");
        assert_eq!(one.per_region, multi.per_region, "threads={threads}");
        assert_eq!(
            (one.cold_starts, one.redispatches, one.spilled),
            (multi.cold_starts, multi.redispatches, multi.spilled),
            "threads={threads}"
        );
    }
}

#[test]
fn conservation_holds_for_degenerate_shapes() {
    // More hosts than requests; single request; empty workload — each
    // under the full fault mix.
    for (regions, hosts, n) in [(2usize, 8usize, 3usize), (1, 4, 1), (3, 2, 0)] {
        let w = WorkloadSpec::azure_sampled(n, 77)
            .with_load(regions * hosts, 0.8)
            .generate();
        for placement in Placement::ALL {
            let run = faulted_fleet(regions, hosts, 2, "crash:2+straggler:2+outage:1")
                .with_affinity(SimDuration::from_millis(500), SimDuration::from_millis(20))
                .run(placement, &w);
            assert_conserved(&run, &w, &format!("{regions}x{hosts} n={n}"));
        }
    }
}
