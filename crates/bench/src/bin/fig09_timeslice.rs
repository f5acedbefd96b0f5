//! Fig. 9: adaptive time-slice tuning vs statically fixed slices
//! (S ∈ {50, 100, 200} ms) at 80% load (§VIII-B).
//!
//! Expected shape: adaptive SFS beats the 100/200 ms fixed slices overall;
//! the 50 ms slice helps ~30% of short requests but hurts the rest.

use sfs_bench::{banner, run_sfs, save, section, turnarounds_ms, Sweep};
use sfs_core::SfsConfig;
use sfs_metrics::{cdf_chart, CdfReport};
use sfs_workload::WorkloadSpec;

const CORES: usize = 16;

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(10_000, None);
    banner(
        "Fig. 9",
        "adaptive vs fixed FILTER time slices @80% load",
        n,
        seed,
    );

    let variants: Vec<(String, SfsConfig)> = vec![
        ("SFS".into(), SfsConfig::new(CORES)),
        ("SFS 50".into(), SfsConfig::new(CORES).with_fixed_slice(50)),
        (
            "SFS 100".into(),
            SfsConfig::new(CORES).with_fixed_slice(100),
        ),
        (
            "SFS 200".into(),
            SfsConfig::new(CORES).with_fixed_slice(200),
        ),
    ];
    let mut sweep = Sweep::new("fig09", seed);
    for (label, cfg) in variants {
        sweep.scenario(label, move |_| {
            let w = WorkloadSpec::azure_sampled(n, seed)
                .with_load(CORES, 0.8)
                .generate();
            run_sfs(cfg, CORES, &w)
        });
    }
    let results = sweep.run_with_threads(threads);

    let mut report = CdfReport::new("duration_ms");
    let mut chart: Vec<(String, Vec<f64>)> = Vec::new();
    for r in &results {
        let durs = turnarounds_ms(&r.value.outcomes);
        println!(
            "{:>8}: mean {:.1} ms, demoted {}, recalcs {}",
            r.label,
            r.value.mean_turnaround_ms(),
            r.value.telemetry.demoted,
            r.value.telemetry.slice_recalcs
        );
        report.push(r.label.clone(), durs.clone());
        chart.push((r.label.clone(), durs));
    }

    section("duration CDF quantiles (ms)");
    println!("{}", report.to_markdown());
    save("fig09_timeslice_cdf.csv", &report.to_csv());

    section("duration CDF (log-x)");
    let refs: Vec<(&str, &[f64])> = chart
        .iter()
        .map(|(l, v)| (l.as_str(), v.as_slice()))
        .collect();
    println!("{}", cdf_chart(&refs, 64, 16));
}
