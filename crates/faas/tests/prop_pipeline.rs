//! Property-style tests for the OpenLambda dispatch pipeline (gateway →
//! OL worker → sandbox server → UDP notification).
//!
//! Randomised cases come from the workspace's seeded [`SimRng`] (no
//! proptest dependency): a fixed number of cases from a fixed seed, so
//! failures are exactly reproducible.

use sfs_faas::{OpenLambda, OpenLambdaParams};
use sfs_simcore::{SimDuration, SimRng, SimTime};
use sfs_workload::WorkloadSpec;

const CASES: u64 = 48;

/// Without jitter the hops compose: no request is lost, none is
/// dispatched sooner than the hops' summed overheads plus the UDP delay,
/// and the first, which finds every server free, pays exactly that sum.
/// One to three servers per hop make later requests queue.
#[test]
fn pipeline_composes() {
    let mut queued = 0;
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xFAA5)
            .derive("pipeline_composes")
            .derive(&case.to_string());
        let p = OpenLambdaParams {
            ol_workers: rng.uniform_u64(1, 3) as usize,
            ol_worker_overhead: SimDuration::from_millis(rng.uniform_u64(1, 9)),
            sandbox_servers: rng.uniform_u64(1, 3) as usize,
            sandbox_overhead: SimDuration::from_millis(rng.uniform_u64(1, 9)),
            jitter: 0.0,
            ..OpenLambdaParams::default()
        };
        let exact =
            p.gateway_latency + p.ol_worker_overhead + p.sandbox_overhead + p.udp_notify_delay;
        let mut w = WorkloadSpec::openlambda(rng.uniform_u64(1, 149) as usize, 3).generate();
        for (i, r) in w.requests.iter_mut().enumerate() {
            r.arrival = SimTime::ZERO + SimDuration::from_millis(i as u64 * 3);
        }
        let d = OpenLambda::new(p).dispatch(&w);
        assert_eq!(d.platform_delay.len(), w.len(), "case {case}");
        assert_eq!(d.platform_delay[0], exact, "case {case}");
        let os = &d.os_workload.requests;
        for ((http, os), &delay) in w.requests.iter().zip(os).zip(&d.platform_delay) {
            assert!(delay >= exact, "beat the hops' sum (case {case})");
            assert_eq!(os.arrival, http.arrival + delay, "case {case}");
            queued += usize::from(delay > exact);
        }
    }
    assert!(queued > 0, "some request must queue at a hop");
}
