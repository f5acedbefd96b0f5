//! End-to-end OpenLambda platform integration: dispatch pipeline, container
//! accounting, contention model, and SFS-vs-CFS behaviour behind the
//! platform.

use sfs_repro::faas::{OpenLambda, OpenLambdaParams};
use sfs_repro::sfs::{Baseline, SfsConfig};
use sfs_repro::simcore::Samples;
use sfs_repro::workload::{IatSpec, Spike, WorkloadSpec};

const CORES: usize = 24;

#[test]
fn platform_preserves_request_identity() {
    let ol = OpenLambda::new(OpenLambdaParams::default());
    let w = WorkloadSpec::openlambda(400, 3)
        .with_duration_load(CORES, 0.7)
        .generate();
    let out = ol.run(&SfsConfig::new(CORES), CORES, &w);
    assert_eq!(out.len(), 400);
    for (i, o) in out.iter().enumerate() {
        assert_eq!(o.id, i as u64);
        // Turnaround is rebased to HTTP invocation: includes pipeline delay.
        assert!(o.turnaround >= o.ideal);
    }
}

#[test]
fn platform_delay_is_monotone_with_queueing() {
    // Flood the OL workers: dispatch delays must grow during the flood.
    let ol = OpenLambda::new(OpenLambdaParams {
        ol_workers: 2,
        jitter: 0.0,
        ..Default::default()
    });
    let mut spec = WorkloadSpec::openlambda(300, 5);
    spec.iat = IatSpec::Fixed { iat_ms: 0.01 }; // near-simultaneous arrivals
    let w = spec.generate();
    let d = ol.dispatch(&w);
    let first = d.platform_delay[0];
    let last = d.platform_delay[299];
    assert!(
        last > first * 5,
        "2 OL workers under a flood must queue: first {first}, last {last}"
    );
}

#[test]
fn contention_hurts_cfs_more_than_sfs_under_bursts() {
    // The §IX dynamic: a burst piles up work; CFS keeps the whole backlog
    // live (sustained contention inflation) while SFS drains it serially.
    let n = 3_000;
    let ol = OpenLambda::new(OpenLambdaParams::default());
    let mut spec = WorkloadSpec::openlambda(n, 9);
    spec.iat = IatSpec::Bursty {
        base_mean_ms: 1.0,
        spikes: Spike::evenly_spaced(2, n / 10, 10.0, n),
    };
    let w = spec.with_duration_load(CORES, 0.9).generate();
    let sfs = ol.run(&SfsConfig::new(CORES), CORES, &w);
    let cfs = ol.run(&Baseline::Cfs, CORES, &w);
    let median = |outs: &[sfs_repro::sfs::RequestOutcome]| {
        let mut s = Samples::from_vec(outs.iter().map(|o| o.turnaround.as_millis_f64()).collect());
        s.percentile(50.0)
    };
    assert!(
        median(&sfs) < median(&cfs),
        "OL+SFS median {} must beat OL+CFS {}",
        median(&sfs),
        median(&cfs)
    );
}

#[test]
fn container_pool_is_generously_sized_by_default() {
    let ol = OpenLambda::new(OpenLambdaParams::default());
    let w = WorkloadSpec::openlambda(2_000, 11)
        .with_duration_load(CORES, 1.0)
        .generate();
    let d = ol.dispatch(&w);
    assert!(
        !d.pool_blocked,
        "default pool must never block (pre-warmed)"
    );
    assert!(d.container_peak <= 4_096);
    assert!(d.container_peak > 0);
}

#[test]
fn disabling_contention_restores_ideal_substrate() {
    let ol = OpenLambda::new(OpenLambdaParams {
        contention_beta: 0.0,
        ..Default::default()
    });
    let w = WorkloadSpec::openlambda(500, 13)
        .with_duration_load(CORES, 0.5)
        .generate();
    let out = ol.run(&Baseline::Cfs, CORES, &w);
    // At 50% duration load with no contention, the vast majority of
    // requests should complete near-ideally (only pipeline overhead).
    let near_ideal = out
        .iter()
        .filter(|o| o.turnaround.as_millis_f64() < o.ideal.as_millis_f64() * 1.5 + 10.0)
        .count();
    assert!(
        near_ideal * 10 >= out.len() * 9,
        "only {near_ideal}/{} near ideal",
        out.len()
    );
}
