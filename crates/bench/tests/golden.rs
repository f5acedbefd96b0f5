//! Golden-metrics regression suite.
//!
//! Every scenario in `support::SCENARIOS` runs at a fixed seed and its
//! headline metrics (p50/p99/mean latency, throughput, plus a per-request
//! fingerprint) must match the snapshot in `tests/golden/<name>.txt`
//! **exactly** — down to the IEEE-754 bit pattern. Any change to the
//! simulator, the workload generator, the RNG streams, or the event-queue
//! fast paths that shifts a single number in any request fails here.
//!
//! A second snapshot, `tests/golden/fleet_route_matrix.txt`, locks the
//! fleet router's own outputs (per-region counters, shed and lost ids,
//! re-dispatches, spill, cold starts) over a placement × fault × autoscaler
//! × front-door × shape matrix, one line per case.
//!
//! Scenarios run through the same parallel `Sweep` engine the bench
//! binaries use, so this suite also re-checks thread-count invariance on
//! whatever `SFS_BENCH_THREADS` CI sets.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! SFS_GOLDEN_UPDATE=1 cargo test -p sfs-bench --test golden
//! git diff crates/bench/tests/golden/   # review what moved, then commit
//! ```

mod support;

use std::path::PathBuf;

use sfs_bench::Sweep;
use sfs_core::Baseline;
use sfs_faas::{Autoscaler, FaultSpec, Fleet, FleetRun, Placement};
use sfs_simcore::SimDuration;
use sfs_workload::WorkloadSpec;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn update_requested() -> bool {
    std::env::var("SFS_GOLDEN_UPDATE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Compare `got` against the snapshot `<label>.txt` (or write it when an
/// update was requested); a mismatch or missing file is returned as a
/// message.
fn check_snapshot(label: &str, got: &str, update: bool) -> Option<String> {
    let dir = golden_dir();
    let path = dir.join(format!("{label}.txt"));
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden snapshot");
        return None;
    }
    match std::fs::read_to_string(&path) {
        Ok(expected) if expected == got => None,
        Ok(expected) => Some(format!(
            "{label}: metrics drifted from snapshot\n--- expected ({})\n{}--- got\n{}",
            path.display(),
            expected,
            got
        )),
        Err(e) => Some(format!(
            "{label}: cannot read {} ({e}); run with SFS_GOLDEN_UPDATE=1 to create it",
            path.display()
        )),
    }
}

fn assert_no_mismatches(mismatches: &[String]) {
    assert!(
        mismatches.is_empty(),
        "golden-metrics regressions:\n{}\n\
         If the change is intentional, regenerate with SFS_GOLDEN_UPDATE=1 and review the diff.",
        mismatches.join("\n")
    );
}

#[test]
fn headline_metrics_match_golden_snapshots() {
    let mut sweep = Sweep::new("golden", support::SEED);
    for &name in support::SCENARIOS {
        sweep.scenario(name, move |_| {
            support::metrics_report(name, &support::run_scenario(name))
        });
    }
    let update = update_requested();
    let mismatches: Vec<String> = sweep
        .run()
        .iter()
        .filter_map(|r| check_snapshot(&r.label, &r.value, update))
        .collect();
    assert_no_mismatches(&mismatches);
}

/// Requests per route-matrix case: enough for spill, shed, crashes and
/// scale events to fire, few enough for the matrix to stay quick in debug.
const ROUTE_N: usize = 300;
const SHED_MS: f64 = 500.0;

/// The fault mixes of the route matrix. The full mix runs a re-dispatch
/// budget of 1 so budget exhaustion (a lost request) is exercised too.
fn route_fault_mixes() -> [(&'static str, Option<FaultSpec>); 4] {
    [
        ("none", None),
        (
            "crash",
            Some(FaultSpec {
                crashes: 2,
                ..FaultSpec::default()
            }),
        ),
        (
            "outage",
            Some(FaultSpec {
                outages: 1,
                ..FaultSpec::default()
            }),
        ),
        (
            "crash+straggler+outage",
            Some(FaultSpec {
                crashes: 2,
                stragglers: 2,
                outages: 1,
                max_redispatch: 1,
                ..FaultSpec::default()
            }),
        ),
    ]
}

/// One route-matrix case as one line: the router's own outputs plus an
/// outcome fingerprint.
fn route_line(case: &str, run: &FleetRun) -> String {
    // Sorted ids as runs (`5-30,43`): the shed lists of the tight front
    // door are long but mostly contiguous.
    let ids = |v: &[u64]| {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &id in v {
            match runs.last_mut() {
                Some((_, hi)) if *hi + 1 == id => *hi = id,
                _ => runs.push((id, id)),
            }
        }
        runs.iter()
            .map(|&(lo, hi)| {
                if lo == hi {
                    lo.to_string()
                } else {
                    format!("{lo}-{hi}")
                }
            })
            .collect::<Vec<String>>()
            .join(",")
    };
    let regions: Vec<String> = run
        .per_region
        .iter()
        .map(|s| {
            format!(
                "placed={} per_host={:?} cold={} crashes={} boots={} reactivations={} \
                 parks={} releases={} warm_ms={}",
                s.placed,
                s.placed_per_host,
                s.cold_starts,
                s.crashes,
                s.boots,
                s.reactivations,
                s.parks,
                s.releases,
                s.warm_host_ms
            )
        })
        .collect();
    format!(
        "{case} | completed={} shed=[{}] lost=[{}] redispatches={} spilled={} cold={} \
         fingerprint={:#018x} | {}\n",
        run.outcomes.len(),
        ids(&run.shed),
        ids(&run.lost),
        run.redispatches,
        run.spilled,
        run.cold_starts,
        support::fingerprint(&run.outcomes),
        regions.join(" | ")
    )
}

/// The fleet router's decisions, locked per case: every placement × fault
/// mix × autoscaler on/off × default/tight front door, on a one-region and
/// a three-region fleet. Hosts run FIFO — placement never reads the host
/// policy, and FIFO keeps the matrix fast.
#[test]
fn fleet_route_matrix_matches_golden_snapshot() {
    let mut sweep = Sweep::new("fleet route matrix", support::SEED);
    for (regions, hosts) in [(1usize, 4usize), (3, 3)] {
        for (fault_name, faults) in route_fault_mixes() {
            for autoscale in [true, false] {
                for tight in [false, true] {
                    for p in Placement::ALL {
                        let case = format!(
                            "{regions}x{hosts} {} faults={fault_name} auto={} door={}",
                            p.name(),
                            if autoscale { "on" } else { "off" },
                            if tight { "tight" } else { "default" },
                        );
                        sweep.scenario(case.clone(), move |_| {
                            let mut fleet = Fleet::new(regions, hosts, 2).with_affinity(
                                SimDuration::from_millis(2_000),
                                SimDuration::from_millis(30),
                            );
                            fleet.faults = faults;
                            fleet.autoscaler = autoscale.then(Autoscaler::default);
                            if tight {
                                fleet.front_door.spill_backlog_ms = 40.0;
                                fleet.front_door.shed_backlog_ms = SHED_MS;
                            }
                            let w = WorkloadSpec::azure_sampled(ROUTE_N, support::SEED)
                                .with_load(regions * hosts * 2, 1.0)
                                .generate();
                            let run = fleet.run_with_threads(p, &Baseline::Fifo, &w, 1);
                            assert!(run.conservation_holds(), "{case}: conservation");
                            route_line(&case, &run)
                        });
                    }
                }
            }
        }
    }
    let got: String = sweep.run().into_iter().map(|r| r.value).collect();
    let mismatches: Vec<String> = check_snapshot("fleet_route_matrix", &got, update_requested())
        .into_iter()
        .collect();
    assert_no_mismatches(&mismatches);
}
