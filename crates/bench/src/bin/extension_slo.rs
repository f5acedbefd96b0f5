//! Extension: SLO attainment per scheduler (the paper's §I proposed SLO:
//! "X% of function invocations must be finished within a bounded ratio of
//! their ideally-isolated duration").
//!
//! Evaluates the soft (95% within 2×) and hard (99% within 10×) rules for
//! SFS and every kernel baseline at 80% and 100% load, plus the tightest
//! sellable bound per scheduler.

use sfs_bench::{banner, run_factory, run_sfs, save, section, Sweep};
use sfs_core::{Baseline, RequestOutcome, SfsConfig};
use sfs_metrics::{evaluate_slo, tightest_bound, MarkdownTable, SloRule};
use sfs_workload::WorkloadSpec;

const CORES: usize = 16;
const BASELINES: [Baseline; 4] = [Baseline::Srtf, Baseline::Cfs, Baseline::Rr, Baseline::Fifo];

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(10_000, None);
    banner(
        "Extension: SLO",
        "paper-proposed SLO attainment by scheduler",
        n,
        seed,
    );

    let gen = move |load: f64| {
        WorkloadSpec::azure_sampled(n, seed)
            .with_load(CORES, load)
            .generate()
    };
    let mut sweep: Sweep<'_, (f64, Vec<RequestOutcome>)> = Sweep::new("extension_slo", seed);
    for &load in &[0.8, 1.0] {
        sweep.scenario("SFS", move |_| {
            (
                load,
                run_sfs(SfsConfig::new(CORES), CORES, &gen(load)).outcomes,
            )
        });
        for b in BASELINES {
            sweep.scenario(b.name(), move |_| {
                (load, run_factory(&b, CORES, &gen(load)).outcomes)
            });
        }
    }
    let results = sweep.run_with_threads(threads);

    let mut table = MarkdownTable::new(&[
        "scheduler",
        "load",
        "soft SLO (95% in 2x)",
        "hard SLO (99% in 10x)",
        "tightest p95 bound",
    ]);
    for r in &results {
        let (load, outs) = &r.value;
        let invocations: Vec<(f64, f64)> = outs
            .iter()
            .map(|o| (o.ideal.as_millis_f64(), o.turnaround.as_millis_f64()))
            .collect();
        let soft = evaluate_slo(SloRule::soft(), &invocations);
        let hard = evaluate_slo(SloRule::hard(), &invocations);
        let bound = tightest_bound(0.95, 10.0, &invocations);
        table.row(&[
            r.label.clone(),
            format!("{:.0}%", load * 100.0),
            format!(
                "{:.1}% {}",
                soft.attained_fraction * 100.0,
                if soft.met { "MET" } else { "missed" }
            ),
            format!(
                "{:.1}% {}",
                hard.attained_fraction * 100.0,
                if hard.met { "MET" } else { "missed" }
            ),
            format!("{bound:.1}x"),
        ]);
    }

    section("SLO attainment");
    println!("{}", table.to_markdown());
    save("extension_slo.csv", &table.to_csv());
    println!(
        "Reading: SFS should be the only practical scheduler whose soft SLO\n\
         survives 100% load; FIFO misses even the hard SLO (convoy effect)."
    );
}
