//! Request ids are labels, not indices: every multi-host path must map
//! outcomes back to requests by workload index. A workload whose ids are
//! sparse, large and descending in arrival order must run exactly like the
//! same workload with dense ids `0..n`, outcome for outcome, under the
//! cluster, the fleet (faults and re-dispatch included) and the OpenLambda
//! platform.

use sfs_core::{Baseline, RequestOutcome};
use sfs_faas::{Cluster, FaultSpec, Fleet, OpenLambda, OpenLambdaParams, Placement};
use sfs_simcore::SimDuration;
use sfs_workload::{Workload, WorkloadSpec};

const N: usize = 300;

/// The sparse id of dense request `i`: far apart, far above `N`, and
/// descending while arrivals ascend.
fn sparse_id(i: u64) -> u64 {
    1_000_000 - 7 * i
}

fn workloads(cores: usize) -> (Workload, Workload) {
    let dense = WorkloadSpec::azure_sampled(N, 61)
        .with_load(cores, 0.9)
        .generate();
    let mut sparse = dense.clone();
    for r in sparse.requests.iter_mut() {
        r.id = sparse_id(r.id);
        r.spec.label = r.id;
    }
    (dense, sparse)
}

/// The sparse run's outcomes, re-keyed to dense ids, must equal the dense
/// run's field for field.
fn assert_same_modulo_ids(what: &str, dense: &[RequestOutcome], sparse: &[RequestOutcome]) {
    assert_eq!(dense.len(), sparse.len(), "{what}: outcome counts differ");
    let mut by_dense: Vec<&RequestOutcome> = sparse.iter().collect();
    by_dense.sort_by_key(|o| (1_000_000 - o.id) / 7);
    for (d, s) in dense.iter().zip(by_dense) {
        assert_eq!(sparse_id(d.id), s.id, "{what}: id mapping");
        assert_eq!(d.arrival, s.arrival, "{what}: request {}", d.id);
        assert_eq!(d.finished, s.finished, "{what}: request {}", d.id);
        assert_eq!(d.turnaround, s.turnaround, "{what}: request {}", d.id);
        assert_eq!(d.rte.to_bits(), s.rte.to_bits(), "{what}: request {}", d.id);
        assert_eq!(d.ctx_switches, s.ctx_switches, "{what}: request {}", d.id);
        assert_eq!(d.queue_delay, s.queue_delay, "{what}: request {}", d.id);
    }
    assert!(
        sparse.windows(2).all(|w| w[0].id < w[1].id),
        "{what}: outcomes sorted by id"
    );
}

#[test]
fn cluster_fleet_and_openlambda_run_sparse_ids_like_dense_ones() {
    let (dense, sparse) = workloads(8);
    let cluster = Cluster::new(4, 2).with_affinity(
        SimDuration::from_millis(2_000),
        SimDuration::from_millis(25),
    );
    for p in Placement::ALL {
        let d = cluster.run(p, &dense);
        let s = cluster.run(p, &sparse);
        assert_eq!(d.per_host, s.per_host, "cluster {}", p.name());
        assert_eq!(d.cold_starts, s.cold_starts, "cluster {}", p.name());
        assert_same_modulo_ids(&format!("cluster {}", p.name()), &d.outcomes, &s.outcomes);
    }

    // No re-dispatch budget: every crash victim is lost, so the lost list
    // must come back as submitted ids too.
    let fleet = Fleet::new(2, 2, 2).with_faults(FaultSpec {
        crashes: 2,
        outages: 1,
        max_redispatch: 0,
        ..FaultSpec::default()
    });
    let d = fleet.run(Placement::JoinShortestQueue, &dense);
    let s = fleet.run(Placement::JoinShortestQueue, &sparse);
    assert!(s.conservation_holds());
    assert!(!s.lost.is_empty(), "the faults must evict someone");
    assert_same_modulo_ids("fleet", &d.outcomes, &s.outcomes);
    let resparse = |ids: &[u64]| {
        let mut v: Vec<u64> = ids.iter().map(|&i| sparse_id(i)).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(resparse(&d.shed), s.shed, "shed ids are submitted ids");
    assert_eq!(resparse(&d.lost), s.lost, "lost ids are submitted ids");

    let ol = OpenLambda::new(OpenLambdaParams::default());
    let d = ol.run(&Baseline::Cfs, 8, &dense);
    let s = ol.run(&Baseline::Cfs, 8, &sparse);
    assert_same_modulo_ids("openlambda", &d, &s);
}
