//! Cross-crate integration: workload generation → scheduling → metrics,
//! exercising the full pipeline every figure harness uses. Each run's
//! request accounting goes through `support/audit.rs`.

#[path = "support/audit.rs"]
mod audit;

use sfs_repro::metrics::{headline_claims, Paired};
use sfs_repro::sched::MachineParams;
use sfs_repro::sfs::{
    Baseline, ControllerFactory, Ideal, RequestOutcome, SfsConfig, SfsController, Sim,
};
use sfs_repro::simcore::Samples;
use sfs_repro::workload::{Workload, WorkloadSpec};

const CORES: usize = 8;

fn workload(n: usize, seed: u64, load: f64) -> Workload {
    WorkloadSpec::azure_sampled(n, seed)
        .with_load(CORES, load)
        .generate()
}

fn run_sfs(w: &Workload) -> Vec<RequestOutcome> {
    Sim::on(MachineParams::linux(CORES))
        .workload(w)
        .controller(SfsController::new(SfsConfig::new(CORES)))
        .run()
        .outcomes
}

fn run_with(f: &dyn ControllerFactory, cores: usize, w: &Workload) -> Vec<RequestOutcome> {
    f.run_on(cores, w).outcomes
}

fn run_ideal(w: &Workload) -> Vec<RequestOutcome> {
    Sim::on(MachineParams::linux(CORES))
        .workload(w)
        .controller(Ideal)
        .run()
        .outcomes
}

/// Every request of `w` completed once under `what`, as submitted.
fn audit_run(w: &Workload, outs: &[RequestOutcome], what: &str) {
    audit::requests(w, outs, what);
    audit::demand_as_submitted(w, outs, what);
}

#[test]
fn every_scheduler_completes_the_same_request_set() {
    let w = workload(800, 3, 0.9);
    for (what, outs) in [
        ("SFS", run_sfs(&w)),
        ("CFS", run_with(&Baseline::Cfs, CORES, &w)),
        ("FIFO", run_with(&Baseline::Fifo, CORES, &w)),
        ("RR", run_with(&Baseline::Rr, CORES, &w)),
        ("SRTF", run_with(&Baseline::Srtf, CORES, &w)),
        ("IDEAL", run_ideal(&w)),
    ] {
        audit_run(&w, &outs, what);
    }
}

#[test]
fn ideal_lower_bounds_all_schedulers() {
    // The audit bounds every turnaround below by the request's ideal;
    // IDEAL's turnaround is exactly that ideal.
    let w = workload(600, 5, 0.95);
    let ideal = run_ideal(&w);
    audit_run(&w, &ideal, "IDEAL");
    assert!(ideal.iter().all(|o| o.turnaround == o.ideal));
    for (what, outs) in [
        ("SFS", run_sfs(&w)),
        ("CFS", run_with(&Baseline::Cfs, CORES, &w)),
        ("SRTF", run_with(&Baseline::Srtf, CORES, &w)),
    ] {
        audit_run(&w, &outs, what);
    }
}

#[test]
fn scheduler_ordering_on_median_turnaround() {
    // The paper's qualitative ordering at high load: SRTF <= SFS << CFS,
    // and FIFO worst for the short-dominated population median.
    let w = workload(3_000, 7, 1.0);
    let median = |outs: &[RequestOutcome]| {
        let mut s = Samples::from_vec(outs.iter().map(|o| o.turnaround.as_millis_f64()).collect());
        s.percentile(50.0)
    };
    let sfs = median(&run_sfs(&w));
    let srtf = median(&run_with(&Baseline::Srtf, CORES, &w));
    let cfs = median(&run_with(&Baseline::Cfs, CORES, &w));
    let fifo = median(&run_with(&Baseline::Fifo, CORES, &w));
    assert!(
        srtf <= sfs * 1.2,
        "SRTF {srtf} should not lose to SFS {sfs}"
    );
    assert!(sfs < cfs, "SFS {sfs} must beat CFS {cfs} at the median");
    assert!(cfs < fifo, "CFS {cfs} must beat FIFO {fifo} (convoy)");
}

#[test]
fn headline_pipeline_produces_consistent_aggregates() {
    let w = workload(2_000, 11, 1.0);
    let sfs = run_sfs(&w);
    let cfs = run_with(&Baseline::Cfs, CORES, &w);
    let pairs: Vec<Paired> = sfs
        .iter()
        .zip(cfs.iter())
        .map(|(s, c)| Paired {
            ideal_ms: s.ideal.as_millis_f64(),
            treatment_ms: s.turnaround.as_millis_f64(),
            baseline_ms: c.turnaround.as_millis_f64(),
            treatment_ctx: s.ctx_switches,
            baseline_ctx: c.ctx_switches,
        })
        .collect();
    let h = headline_claims(&pairs, 1550.0);
    // Table I renormalised: ~16.4% long → ~83.6% short.
    assert!(
        (h.short_fraction - 0.836).abs() < 0.03,
        "short share {}",
        h.short_fraction
    );
    assert!(
        h.short_mean_speedup > 1.5,
        "speedup {}",
        h.short_mean_speedup
    );
    assert!(
        h.improved_fraction > 0.5,
        "improved {}",
        h.improved_fraction
    );
}

#[test]
fn sfs_median_stays_flat_across_loads() {
    // Fig. 6's signature: SFS's median is load-insensitive while CFS's grows.
    let mut sfs_medians = Vec::new();
    let mut cfs_medians = Vec::new();
    for &load in &[0.5, 0.8, 1.0] {
        let w = workload(2_500, 13, load);
        let med = |outs: &[RequestOutcome]| {
            let mut s =
                Samples::from_vec(outs.iter().map(|o| o.turnaround.as_millis_f64()).collect());
            s.percentile(50.0)
        };
        sfs_medians.push(med(&run_sfs(&w)));
        cfs_medians.push(med(&run_with(&Baseline::Cfs, CORES, &w)));
    }
    let sfs_growth = sfs_medians[2] / sfs_medians[0];
    let cfs_growth = cfs_medians[2] / cfs_medians[0];
    assert!(
        sfs_growth < 1.3,
        "SFS median grew {sfs_growth}x across loads: {sfs_medians:?}"
    );
    assert!(
        cfs_growth > sfs_growth,
        "CFS growth {cfs_growth}x should exceed SFS {sfs_growth}x"
    );
}

#[test]
fn outcomes_are_internally_consistent() {
    // filter_rounds == 0 is legitimate in three ways: the overload bypass,
    // a sub-millisecond race, or completion under plain CFS work
    // conservation while still queued; the audit's timing identities
    // bound all three.
    let w = workload(500, 17, 0.9);
    audit_run(&w, &run_sfs(&w), "SFS");
}
