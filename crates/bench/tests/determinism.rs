//! Thread-count determinism suite.
//!
//! The parallel sweep engine's core guarantee: the same seed produces
//! bit-identical results at 1, 2, and 8 worker threads. Verified both at
//! the aggregate level (the exact metric report, IEEE-754 bits included)
//! and per request (an FNV fingerprint over every outcome field).

mod support;

use sfs_bench::Sweep;
use sfs_simcore::parallel;

/// Same seed, same numbers — regardless of worker-thread count.
#[test]
fn sweep_results_are_bit_identical_at_1_2_and_8_threads() {
    let run_all = |threads: usize| -> Vec<(String, u64, String)> {
        let mut sweep = Sweep::new(format!("determinism x{threads}"), support::SEED);
        for &name in support::SCENARIOS {
            sweep.scenario(name, move |_| {
                let outcomes = support::run_scenario(name);
                (
                    support::fingerprint(&outcomes),
                    support::metrics_report(name, &outcomes),
                )
            });
        }
        sweep
            .run_with_threads(threads)
            .into_iter()
            .map(|r| (r.label, r.value.0, r.value.1))
            .collect()
    };

    let single = run_all(1);
    assert_eq!(single.len(), support::SCENARIOS.len());
    for threads in [2, 8] {
        let multi = run_all(threads);
        for (a, b) in single.iter().zip(multi.iter()) {
            assert_eq!(a.0, b.0, "scenario order changed at {threads} threads");
            assert_eq!(
                a.1, b.1,
                "per-request fingerprint of {} drifted at {threads} threads",
                a.0
            );
            assert_eq!(
                a.2, b.2,
                "aggregate metrics of {} drifted at {threads} threads",
                a.0
            );
        }
    }
}

/// The fleet scenarios, explicitly — and at every *internal* thread count:
/// the front door routes and injects faults sequentially, so the unit
/// fan-out must not leak into routing, autoscaling, or fault attribution.
/// (The `SCENARIOS` members above run the fleet on one worker; this test
/// re-runs each fleet scenario with the fleet's own `--threads` at 1, 2,
/// and 8 and demands the same per-request fingerprint.)
#[test]
fn fleet_scenarios_are_thread_count_invariant() {
    let run_all = |threads: usize| -> Vec<(&str, u64)> {
        support::FLEET_SCENARIOS
            .iter()
            .map(|&name| {
                (
                    name,
                    support::fingerprint(&support::run_fleet_scenario_threads(name, threads)),
                )
            })
            .collect()
    };
    let single = run_all(1);
    assert_eq!(single.len(), support::FLEET_SCENARIOS.len());
    for threads in [2, 8] {
        assert_eq!(single, run_all(threads), "threads={threads}");
    }
}

/// The seed sequencer hands every trial the same stream no matter which
/// worker claims it (work-stealing order is timing-dependent; seeds must
/// not be).
#[test]
fn trial_seeds_do_not_depend_on_execution_order() {
    let collect = |threads: usize| {
        parallel::run_seeded(64, threads, support::SEED, |i, mut rng| {
            (i, rng.next_u64(), rng.unit().to_bits())
        })
    };
    let one = collect(1);
    for threads in [2, 8] {
        assert_eq!(collect(threads), one, "threads={threads}");
    }
}
