//! End-to-end OpenLambda platform integration: dispatch hops, container
//! accounting, contention model, and SFS-vs-CFS behaviour behind the
//! platform.

use sfs_repro::faas::{OpenLambda, OpenLambdaParams};
use sfs_repro::sched::TaskSpec;
use sfs_repro::sfs::{Baseline, SfsConfig};
use sfs_repro::simcore::{Samples, SimDuration, SimTime};
use sfs_repro::workload::{AppKind, IatSpec, Request, Spike, Workload, WorkloadSpec};

const CORES: usize = 24;

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// `n` OpenLambda requests arriving `gap_ms` apart.
fn spaced(n: usize, gap_ms: u64) -> Workload {
    let mut w = WorkloadSpec::openlambda(n, 3).generate();
    for (i, r) in w.requests.iter_mut().enumerate() {
        r.arrival = at(i as u64 * gap_ms);
    }
    w
}

/// The three hops' overheads, each scaled by `k`, plus the UDP delay: a
/// request's platform delay when no hop makes it queue.
fn hop_sum(p: &OpenLambdaParams, k: f64) -> SimDuration {
    let hops = [p.gateway_latency, p.ol_worker_overhead, p.sandbox_overhead];
    hops.into_iter().map(|o| o.mul_f64(k)).sum::<SimDuration>() + p.udp_notify_delay
}

#[test]
fn jittered_dispatch_delay_stays_within_the_hops() {
    // Arrivals 100 ms apart never queue at a hop, so each delay is the
    // three jittered overheads plus the UDP delay.
    let p = OpenLambdaParams::default();
    let (lo, mid, hi) = (
        hop_sum(&p, 1.0 - p.jitter),
        hop_sum(&p, 1.0),
        hop_sum(&p, 1.0 + p.jitter),
    );
    let d = OpenLambda::new(p).dispatch(&spaced(1_000, 100));
    for &delay in &d.platform_delay {
        assert!(
            (lo..=hi).contains(&delay),
            "delay {delay} outside [{lo}, {hi}]"
        );
    }
    assert!(
        d.platform_delay.iter().any(|&x| x < mid),
        "jitter lowers some"
    );
    assert!(
        d.platform_delay.iter().any(|&x| x > mid),
        "jitter raises some"
    );
}

#[test]
fn unjittered_dispatch_composes_the_hops() {
    // Two requests at 0 ms, one server at each of the 1 ms OL-worker and
    // 2 ms sandbox hops, the default 0.2 ms gateway (1,024 servers, so
    // no queueing there) and 0.05 ms UDP delay:
    //   r0  gateway 0 → 0.2, OL 0.2 → 1.2, sandbox 1.2 → 3.2, +0.05
    //   r1  gateway 0 → 0.2, OL 1.2 → 2.2, sandbox 3.2 → 5.2, +0.05
    let p = OpenLambdaParams {
        ol_workers: 1,
        ol_worker_overhead: SimDuration::from_millis(1),
        sandbox_servers: 1,
        sandbox_overhead: SimDuration::from_millis(2),
        jitter: 0.0,
        ..OpenLambdaParams::default()
    };
    assert_eq!(hop_sum(&p, 1.0), SimDuration::from_micros(3_250));
    let d = OpenLambda::new(p).dispatch(&spaced(2, 0));
    assert_eq!(
        d.platform_delay,
        [
            SimDuration::from_micros(3_250),
            SimDuration::from_micros(5_250)
        ]
    );
}

/// `(container_peak, pool_blocked)` from dispatching `(arrival, run)` ms
/// requests onto `containers` pre-warmed containers. With no hop overhead
/// and no UDP delay, each request holds its container over
/// `[arrival, arrival + run)` ms.
fn container_check(containers: usize, timeline: &[(u64, u64)]) -> (usize, bool) {
    let ol = OpenLambda::new(OpenLambdaParams {
        gateway_latency: SimDuration::ZERO,
        ol_worker_overhead: SimDuration::ZERO,
        sandbox_overhead: SimDuration::ZERO,
        udp_notify_delay: SimDuration::ZERO,
        jitter: 0.0,
        containers,
        ..OpenLambdaParams::default()
    });
    let requests = (timeline.iter().zip(0..))
        .map(|(&(arrival, run), id)| Request {
            id,
            arrival: at(arrival),
            app: AppKind::Fib,
            duration_ms: run as f64,
            injected_io_ms: None,
            cold_start_ms: None,
            spec: TaskSpec::cpu(id, SimDuration::from_millis(run)),
        })
        .collect();
    let d = ol.dispatch(&Workload { requests });
    (d.container_peak, d.pool_blocked)
}

#[test]
fn container_check_grants_until_capacity() {
    // Three requests held from 0: two containers serve two, and the
    // third blocks.
    let three = [(0, 10), (0, 10), (0, 10)];
    assert_eq!(container_check(2, &three), (2, true));
    assert_eq!(container_check(3, &three), (3, false));
}

#[test]
fn container_check_ample_pool_never_blocks() {
    // 500 requests 1 ms apart, each held for a second: all 500 are held
    // from 499 ms, so a pool of 500 or more reports that exact peak.
    let ramp: Vec<(u64, u64)> = (0..500).map(|i| (i, 1_000)).collect();
    assert_eq!(container_check(1_000, &ramp), (500, false));
    assert_eq!(container_check(500, &ramp), (500, false));
    assert_eq!(container_check(499, &ramp), (499, true));
}

#[test]
fn container_check_releases_before_acquiring_at_one_instant() {
    // r0 holds [0, 5) and r1 arrives at 5: the release at 5 comes first,
    // so one container serves both without blocking.
    assert_eq!(container_check(1, &[(0, 5), (5, 5)]), (1, false));
    // Held a millisecond longer, r0 still holds its container at 5.
    assert_eq!(container_check(1, &[(0, 6), (5, 5)]), (1, true));
}

#[test]
fn container_check_drained_pool_grants_again() {
    //   r0 [0, 10)  r1 [0, 5)  r2 [5, 20)  r3 [12, 15)  r4 [30, 31)
    // Held: 2 from 0, 1 then 2 at 5, 1 at 10, 2 at 12, 1 at 15, none at
    // 20, and 1 again at 30: the drained pool grants r4 with the peak kept.
    let fits = [(0, 10), (0, 5), (5, 15), (12, 3), (30, 1)];
    assert_eq!(container_check(2, &fits), (2, false));
    assert_eq!(container_check(1, &fits), (1, true));
    // One more request over [14, 16) makes three held at 14.
    let over = [(0, 10), (0, 5), (5, 15), (12, 3), (14, 2), (30, 1)];
    assert_eq!(container_check(2, &over), (2, true));
    assert_eq!(container_check(3, &over), (3, false));
    // Filled, drained to zero at 5, and filled again at 10: the refill
    // finds both containers free.
    let refill = [(0, 5), (0, 5), (10, 5), (10, 5)];
    assert_eq!(container_check(2, &refill), (2, false));
}

#[test]
#[should_panic(expected = "pool needs at least one container")]
fn an_empty_container_pool_is_rejected() {
    OpenLambda::new(OpenLambdaParams {
        containers: 0,
        ..Default::default()
    });
}

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
