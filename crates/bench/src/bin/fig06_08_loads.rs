//! Fig. 6 / 7 / 8: standalone SFS vs CFS under loads 50–100% on a 16-vCPU
//! host (§VIII-A): duration CDF, RTE CDF, and percentile breakdowns.
//!
//! Expected shape: SFS ≈ CFS at 50%; SFS flat across loads for ~83% of
//! requests (median ~constant); CFS median and tail grow with load; SFS
//! tail slightly above CFS's at matched load.

use sfs_bench::{
    banner, rtes, run_factory, run_sfs, save, section, split_short_long, turnarounds_ms, Sweep,
};
use sfs_core::{Baseline, RequestOutcome, SfsConfig};
use sfs_metrics::{cdf_chart, CdfReport, MarkdownTable, PercentileTable};
use sfs_workload::WorkloadSpec;

const CORES: usize = 16;
const LOADS: [f64; 5] = [0.5, 0.65, 0.8, 0.9, 1.0];

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(10_000, None);
    banner(
        "Fig. 6-8",
        "standalone SFS vs CFS across loads (16 vCPUs)",
        n,
        seed,
    );

    // One trial per (load, scheduler); SFS and CFS at the same load share
    // the workload by regenerating it from the master seed.
    let mut sweep: Sweep<'_, Vec<RequestOutcome>> = Sweep::new("fig06_08", seed);
    for &load in &LOADS {
        let gen = move || {
            WorkloadSpec::azure_sampled(n, seed)
                .with_load(CORES, load)
                .generate()
        };
        sweep.scenario(format!("SFS {:.0}%", load * 100.0), move |_| {
            run_sfs(SfsConfig::new(CORES), CORES, &gen()).outcomes
        });
        sweep.scenario(format!("CFS {:.0}%", load * 100.0), move |_| {
            run_factory(&Baseline::Cfs, CORES, &gen()).outcomes
        });
    }
    let results = sweep.run_with_threads(threads);

    let mut dur_report = CdfReport::new("duration_ms");
    let mut rte_report = CdfReport::new("rte");
    let mut pct = PercentileTable::new();
    let mut rte95 = MarkdownTable::new(&["series", "fraction RTE >= 0.95"]);
    let mut medians = MarkdownTable::new(&["load", "SFS p50 (ms)", "CFS p50 (ms)"]);
    let mut chart: Vec<(String, Vec<f64>)> = Vec::new();

    for (li, &load) in LOADS.iter().enumerate() {
        let sfs = &results[2 * li];
        let cfs = &results[2 * li + 1];
        for r in [sfs, cfs] {
            let durs = turnarounds_ms(&r.value);
            let rt = rtes(&r.value);
            let at95 = rt.iter().filter(|&&x| x >= 0.95).count() as f64 / rt.len() as f64;
            rte95.row(&[r.label.clone(), format!("{at95:.3}")]);
            pct.push(r.label.clone(), durs.clone());
            dur_report.push(r.label.clone(), durs.clone());
            rte_report.push(r.label.clone(), rt);
            if (load - 0.8).abs() < 1e-9 || (load - 1.0).abs() < 1e-9 {
                chart.push((r.label.clone(), durs));
            }
        }
        let mut s_samples = sfs_simcore::Samples::from_vec(turnarounds_ms(&sfs.value));
        let mut c_samples = sfs_simcore::Samples::from_vec(turnarounds_ms(&cfs.value));
        medians.row(&[
            format!("{:.0}%", load * 100.0),
            format!("{:.1}", s_samples.percentile(50.0)),
            format!("{:.1}", c_samples.percentile(50.0)),
        ]);

        // Short/long split at 100% for the headline cross-check.
        if (load - 1.0).abs() < 1e-9 {
            let (s_short, s_long) = split_short_long(&sfs.value);
            let (c_short, c_long) = split_short_long(&cfs.value);
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            section("100% load short/long means (ms)");
            println!(
                "short: SFS {:.1} vs CFS {:.1} ({:.1}x)",
                mean(&s_short),
                mean(&c_short),
                mean(&c_short) / mean(&s_short)
            );
            println!(
                "long : SFS {:.1} vs CFS {:.1} ({:.2}x, paper: 1.29x)",
                mean(&s_long),
                mean(&c_long),
                mean(&s_long) / mean(&c_long)
            );
        }
    }

    section("Fig. 6 duration CDF quantiles (ms)");
    println!("{}", dur_report.to_markdown());
    save("fig06_duration_cdf.csv", &dur_report.to_csv());

    section("Fig. 7 RTE CDF quantiles");
    println!("{}", rte_report.to_markdown());
    save("fig07_rte_cdf.csv", &rte_report.to_csv());
    section("fraction RTE >= 0.95 (paper: SFS 93%@65 88%@80; CFS 55%@65 35%@80)");
    println!("{}", rte95.to_markdown());

    section("Fig. 8 percentile breakdown (ms)");
    println!("{}", pct.to_markdown());
    save("fig08_percentiles.csv", &pct.to_csv());

    section("median duration by load (paper: SFS ~0.1s flat)");
    println!("{}", medians.to_markdown());

    section("duration CDF at 80%/100% (log-x)");
    let refs: Vec<(&str, &[f64])> = chart
        .iter()
        .map(|(l, v)| (l.as_str(), v.as_slice()))
        .collect();
    println!("{}", cdf_chart(&refs, 64, 16));
}
