//! Fig. 13 / 14 / 15 / 16: SFS-ported OpenLambda vs OpenLambda+CFS on a
//! 72-core host at 80/90/100% load, with the fib+md+sa mixed workload
//! (§IX-A): duration CDF, RTE CDF, percentile breakdowns with p99
//! speedups, and per-request context-switch ratios.
//!
//! Expected shape: OL+SFS nearly load-insensitive; OL+CFS degrades with
//! load; p99 speedup grows with load (paper: 1.65× / 4.04× / 7.93×); CFS
//! out-switches SFS ≥10× for most requests.

use sfs_bench::{banner, rtes, save, section, turnarounds_ms, Sweep};
use sfs_core::{Baseline, RequestOutcome, SfsConfig};
use sfs_faas::{OpenLambda, OpenLambdaParams};
use sfs_metrics::{
    cdf_chart, ctx_switch_ratios, CdfReport, MarkdownTable, Paired, PercentileTable,
};
use sfs_simcore::Samples;
use sfs_workload::{IatSpec, Spike, WorkloadSpec};

const CORES: usize = 72;
const LOADS: [f64; 3] = [0.8, 0.9, 1.0];

/// The §IX-A workload at the paper's nominal `load` level.
fn gen(n: usize, seed: u64, load: f64) -> sfs_workload::Workload {
    // The replayed trace's overload spikes are concurrent-invocation
    // floods (hundreds of simultaneous requests, §V-E); on a 72-core
    // host a burst must be large relative to the core count to show up.
    let mut spec = WorkloadSpec::openlambda(n, seed);
    spec.iat = IatSpec::Bursty {
        base_mean_ms: 1.0,
        spikes: Spike::evenly_spaced(4, n / 20, 10.0, n),
    };
    // Load calibration: the paper's 80–100% levels are duration-based
    // (fib+md+sa durations include I/O), and on its real testbed they
    // bracket the consolidation-contention regime where CFS's backlog
    // spirals but SFS's FILTER drains. The simulator's idealised
    // substrate has a narrower critical window, so the paper's span is
    // mapped linearly into it (0.84..0.94 duration-based load); see
    // EXPERIMENTS.md for the calibration discussion.
    let rho = 0.84 + 0.5 * (load - 0.8);
    spec.with_duration_load(CORES, rho).generate()
}

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(10_000, None);
    banner(
        "Fig. 13-16",
        "OpenLambda end-to-end, 72 cores, fib+md+sa",
        n,
        seed,
    );

    let mut sweep: Sweep<'_, Vec<RequestOutcome>> = Sweep::new("fig13_16", seed);
    for &load in &LOADS {
        sweep.scenario(format!("OL+SFS {:.0}%", load * 100.0), move |_| {
            let ol = OpenLambda::new(OpenLambdaParams::default());
            ol.run(&SfsConfig::new(CORES), CORES, &gen(n, seed, load))
        });
        sweep.scenario(format!("OL+CFS {:.0}%", load * 100.0), move |_| {
            let ol = OpenLambda::new(OpenLambdaParams::default());
            ol.run(&Baseline::Cfs, CORES, &gen(n, seed, load))
        });
    }
    let results = sweep.run_with_threads(threads);

    let mut dur_report = CdfReport::new("duration_ms");
    let mut rte_report = CdfReport::new("rte");
    let mut pct = PercentileTable::new();
    let mut speedups =
        MarkdownTable::new(&["load", "OL+SFS p99 (ms)", "OL+CFS p99 (ms)", "p99 speedup"]);
    let mut ratio_summary = MarkdownTable::new(&[
        "load",
        "requests with CFS > SFS switches",
        "requests with ratio >= 10x",
    ]);
    let mut chart: Vec<(String, Vec<f64>)> = Vec::new();

    for (li, &load) in LOADS.iter().enumerate() {
        let sfs = &results[2 * li];
        let cfs = &results[2 * li + 1];
        for r in [sfs, cfs] {
            dur_report.push(r.label.clone(), turnarounds_ms(&r.value));
            rte_report.push(r.label.clone(), rtes(&r.value));
            pct.push(r.label.clone(), turnarounds_ms(&r.value));
            if (load - 1.0).abs() < 1e-9 {
                chart.push((r.label.clone(), turnarounds_ms(&r.value)));
            }
        }

        let mut s = Samples::from_vec(turnarounds_ms(&sfs.value));
        let mut c = Samples::from_vec(turnarounds_ms(&cfs.value));
        let (sp99, cp99) = (s.percentile(99.0), c.percentile(99.0));
        speedups.row(&[
            format!("{:.0}%", load * 100.0),
            format!("{sp99:.0}"),
            format!("{cp99:.0}"),
            format!("{:.2}x", cp99 / sp99),
        ]);

        // Fig. 16: per-request context-switch ratio.
        let pairs = pair(&sfs.value, &cfs.value);
        let ratios = ctx_switch_ratios(&pairs);
        let more = pairs
            .iter()
            .filter(|p| p.baseline_ctx > p.treatment_ctx)
            .count();
        let tenx = ratios.iter().filter(|&&r| r >= 10.0).count();
        ratio_summary.row(&[
            format!("{:.0}%", load * 100.0),
            format!("{:.1}%", 100.0 * more as f64 / pairs.len() as f64),
            format!("{:.1}%", 100.0 * tenx as f64 / pairs.len() as f64),
        ]);
        if (load - 1.0).abs() < 1e-9 {
            let mut csv = String::from("request,ctx_ratio\n");
            for (i, r) in ratios.iter().enumerate() {
                csv.push_str(&format!("{i},{r}\n"));
            }
            save("fig16_ctx_ratios_100.csv", &csv);
        }
    }

    section("Fig. 13 duration CDF quantiles (ms)");
    println!("{}", dur_report.to_markdown());
    save("fig13_duration_cdf.csv", &dur_report.to_csv());

    section("Fig. 14 RTE CDF quantiles");
    println!("{}", rte_report.to_markdown());
    save("fig14_rte_cdf.csv", &rte_report.to_csv());

    section("Fig. 15 percentile breakdown (ms)");
    println!("{}", pct.to_markdown());
    save("fig15_percentiles.csv", &pct.to_csv());
    section("p99 speedups (paper: 1.65x @80, 4.04x @90, 7.93x @100)");
    println!("{}", speedups.to_markdown());

    section("Fig. 16 context-switch ratios (paper: >99% of requests switch more under CFS; ~85% at 10x+)");
    println!("{}", ratio_summary.to_markdown());

    section("duration CDF at 100% (log-x)");
    let refs: Vec<(&str, &[f64])> = chart
        .iter()
        .map(|(l, v)| (l.as_str(), v.as_slice()))
        .collect();
    println!("{}", cdf_chart(&refs, 64, 16));
}

fn pair(sfs: &[RequestOutcome], cfs: &[RequestOutcome]) -> Vec<Paired> {
    sfs.iter()
        .zip(cfs.iter())
        .map(|(s, c)| {
            assert_eq!(s.id, c.id);
            Paired {
                ideal_ms: s.ideal.as_millis_f64(),
                treatment_ms: s.turnaround.as_millis_f64(),
                baseline_ms: c.turnaround.as_millis_f64(),
                treatment_ctx: s.ctx_switches,
                baseline_ctx: c.ctx_switches,
            }
        })
        .collect()
}
