//! Fig. 2: performance and RTE of an Azure-sampled workload under Linux's
//! schedulers (FIFO / RR / CFS), the SRTF oracle, and IDEAL, at 80% and
//! 100% load on a 12-core OpenLambda host (§IV-B).
//!
//! Expected shape (paper observations 1–4): SRTF ≈ IDEAL; CFS best among
//! Linux policies but with a large RTE < 0.2 mass at 100%; FIFO worst
//! (convoy effect).

use sfs_bench::{banner, rtes, save, section, turnarounds_ms, Sweep};
use sfs_core::{Baseline, ControllerFactory, Ideal, RequestOutcome, Sim};
use sfs_metrics::{cdf_chart, CdfReport, MarkdownTable};
use sfs_sched::MachineParams;
use sfs_workload::WorkloadSpec;

const CORES: usize = 12;
const BASELINES: [Baseline; 4] = [Baseline::Srtf, Baseline::Cfs, Baseline::Fifo, Baseline::Rr];

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(49_712, None);
    banner(
        "Fig. 2",
        "Linux schedulers vs SRTF vs IDEAL on 12 cores",
        n,
        seed,
    );

    // One trial per (load, scheduler); all trials at a load share the
    // replayed workload by regenerating it from the master seed.
    let gen = move |load: f64| {
        WorkloadSpec::azure_replay(n, seed)
            .with_load(CORES, load)
            .generate()
    };
    let mut sweep: Sweep<'_, (f64, Vec<RequestOutcome>)> = Sweep::new("fig02", seed);
    for &load in &[0.8, 1.0] {
        for b in BASELINES {
            sweep.scenario(format!("{} {:.0}%", b.name(), load * 100.0), move |_| {
                (load, b.run_on(CORES, &gen(load)).outcomes)
            });
        }
    }
    // IDEAL is load-independent.
    sweep.scenario("IDEAL", move |_| {
        let w = gen(1.0);
        let run = Sim::on(MachineParams::linux(CORES))
            .workload(&w)
            .controller(Ideal)
            .run();
        (1.0, run.outcomes)
    });
    let results = sweep.run_with_threads(threads);

    let mut duration_report = CdfReport::new();
    let mut rte_report = CdfReport::new();
    let mut rte_twenty = MarkdownTable::new(&["series", "fraction RTE < 0.2"]);
    let mut chart_series: Vec<(String, Vec<f64>)> = Vec::new();

    for r in &results {
        let (load, outs) = &r.value;
        let at_full_load = (load - 1.0).abs() < 1e-9;
        let is_ideal = r.label == "IDEAL";
        let durs = turnarounds_ms(outs);
        let rt = rtes(outs);
        if !is_ideal {
            let below = rt.iter().filter(|&&x| x < 0.2).count() as f64 / rt.len() as f64;
            rte_twenty.row(&[r.label.clone(), format!("{below:.3}")]);
        }
        duration_report.push(r.label.clone(), durs.clone());
        rte_report.push(r.label.clone(), rt);
        if at_full_load && !is_ideal {
            chart_series.push((r.label.clone(), durs));
        }
    }

    section("Fig. 2(a) duration CDF quantiles (ms)");
    println!("{}", duration_report.to_markdown());
    save("fig02a_duration_cdf.csv", &duration_report.to_csv());

    section("Fig. 2(b) RTE CDF quantiles");
    println!("{}", rte_report.to_markdown());
    save("fig02b_rte_cdf.csv", &rte_report.to_csv());

    section("fraction of requests with RTE < 0.2 (paper: CFS 11.4% @80%, 89.9% @100%)");
    println!("{}", rte_twenty.to_markdown());

    section("duration CDF at 100% load (log-x)");
    let refs: Vec<(&str, &[f64])> = chart_series
        .iter()
        .map(|(l, v)| (l.as_str(), v.as_slice()))
        .collect();
    println!("{}", cdf_chart(&refs, 64, 16));
}
