//! Per-bucket breakdown: SFS-vs-CFS speedup for each Table-I duration
//! class at 100% load. Deepens the headline claim by showing *where* the
//! short-function win comes from (the shorter the bucket, the larger the
//! speedup) and how the crossover approaches 1× at the long bucket.

use sfs_bench::{banner, save, section, Sweep};
use sfs_core::{Baseline, ControllerFactory, RequestOutcome, SfsConfig};
use sfs_metrics::MarkdownTable;
use sfs_simcore::Samples;
use sfs_workload::{WorkloadSpec, TABLE1};

const CORES: usize = 16;

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(20_000, None);
    banner(
        "Breakdown",
        "SFS vs CFS speedup per Table-I duration bucket",
        n,
        seed,
    );

    let gen = move || {
        WorkloadSpec::azure_sampled(n, seed)
            .with_load(CORES, 1.0)
            .generate()
    };
    let mut sweep: Sweep<'_, (Vec<RequestOutcome>, Option<sfs_workload::Workload>)> =
        Sweep::new("breakdown_buckets", seed);
    sweep.scenario("SFS", move |_| {
        (SfsConfig::new(CORES).run_on(CORES, &gen()).outcomes, None)
    });
    sweep.scenario("CFS", move |_| {
        // The CFS trial keeps its workload so the bucketing below doesn't
        // regenerate it a third time on the main thread.
        let w = gen();
        (Baseline::Cfs.run_on(CORES, &w).outcomes, Some(w))
    });
    let results = sweep.run_with_threads(threads);
    let (sfs, cfs) = (&results[0].value.0, &results[1].value.0);
    let w = results[1]
        .value
        .1
        .as_ref()
        .expect("CFS trial keeps workload");

    let mut table = MarkdownTable::new(&[
        "bucket",
        "requests",
        "SFS p50 (ms)",
        "CFS p50 (ms)",
        "median speedup",
        "mean speedup",
    ]);
    for b in TABLE1.iter() {
        let (lo, hi) = b.range_ms;
        let idx: Vec<usize> = w
            .requests
            .iter()
            .enumerate()
            .filter(|(_, r)| r.duration_ms >= lo && r.duration_ms < hi)
            .map(|(i, _)| i)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let mut s_p = Samples::from_vec(
            idx.iter()
                .map(|&i| sfs[i].turnaround.as_millis_f64())
                .collect(),
        );
        let mut c_p = Samples::from_vec(
            idx.iter()
                .map(|&i| cfs[i].turnaround.as_millis_f64())
                .collect(),
        );
        let mut speedups: Vec<f64> = idx
            .iter()
            .map(|&i| {
                cfs[i].turnaround.as_millis_f64() / sfs[i].turnaround.as_millis_f64().max(1e-9)
            })
            .collect();
        speedups.sort_by(f64::total_cmp);
        let median = speedups[speedups.len() / 2];
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        let label = if hi >= 3500.0 {
            format!(">= {lo:.0} ms")
        } else {
            format!("{lo:.0}-{hi:.0} ms")
        };
        table.row(&[
            label,
            format!("{}", idx.len()),
            format!("{:.1}", s_p.percentile(50.0)),
            format!("{:.1}", c_p.percentile(50.0)),
            format!("{median:.1}x"),
            format!("{mean:.1}x"),
        ]);
    }

    section("per-bucket comparison at 100% load");
    println!("{}", table.to_markdown());
    save("breakdown_buckets.csv", &table.to_csv());
    println!(
        "Expected: monotone — the shortest bucket gains the most; the\n\
         >=1550ms bucket approaches (or dips below) 1x, the paper's trade-off."
    );
}
