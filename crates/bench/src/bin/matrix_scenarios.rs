//! Scenario matrix: SFS vs CFS on the workload families beyond the
//! paper's evaluation — diurnal load ramps, correlated (Markov-modulated)
//! bursts, and a heavy-tailed cold-start mix — plus the policy matrix the
//! `Controller` API opened up: the history-informed static-priority
//! strawman, the user-space MLFQ, and SLO-deadline SFS on the same
//! families.
//!
//! Expected shape: SFS's short-function advantage survives every family;
//! diurnal ramps are the easiest (the slice controller tracks them),
//! correlated bursts lean hardest on the hybrid bypass, and the cold-start
//! mix erodes part of the short-function win because spin-up CPU makes
//! "short" requests long in disguise. Among the new policies, the strawman
//! collapses toward FIFO (history cannot split a multimodal app), MLFQ
//! lands between CFS and SFS, and SLO-SFS tracks SFS while bounding queue
//! age.

use sfs_bench::{banner, rtes, run_factory, run_sfs, save, section, turnarounds_ms, Sweep};
use sfs_core::{
    Baseline, Controller, ControllerFactory, HistoryPriority, RequestOutcome, SfsConfig,
    SfsController, Sim, UserMlfq,
};
use sfs_metrics::{cdf_chart, MarkdownTable, PercentileTable};
use sfs_sched::{MachineParams, SmpParams};
use sfs_simcore::SimDuration;
use sfs_workload::WorkloadSpec;

const CORES: usize = 16;
const LOAD: f64 = 0.85;

/// The three extension families, by name.
fn family(name: &str, n: usize, seed: u64) -> WorkloadSpec {
    match name {
        "diurnal" => WorkloadSpec::diurnal(n, seed),
        "correlated" => WorkloadSpec::correlated_bursts(n, seed),
        "cold-start" => WorkloadSpec::cold_start_mix(n, seed),
        other => unreachable!("unknown family {other}"),
    }
}

struct Cell {
    outcomes: Vec<RequestOutcome>,
    offloaded: u64,
    demoted: u64,
}

/// The controllers the policy-driven API added, as factories.
struct NewPolicy(&'static str);

impl ControllerFactory for NewPolicy {
    fn build(&self) -> Box<dyn Controller> {
        match self.0 {
            "HIST" => Box::new(HistoryPriority::new()),
            "MLFQ" => Box::new(UserMlfq::default()),
            "SLO-SFS" => Box::new(SfsController::with_slo(
                SfsConfig::new(CORES),
                SimDuration::from_millis(250),
            )),
            other => unreachable!("unknown policy {other}"),
        }
    }

    fn label(&self) -> String {
        self.0.to_string()
    }
}

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(10_000, None);
    banner(
        "Matrix",
        "SFS vs CFS on diurnal / correlated-burst / cold-start workloads",
        n,
        seed,
    );

    let mut sweep: Sweep<'_, Cell> = Sweep::new("matrix_scenarios", seed);
    for fam in ["diurnal", "correlated", "cold-start"] {
        sweep.scenario(format!("SFS {fam}"), move |_| {
            let w = family(fam, n, seed).with_load(CORES, LOAD).generate();
            let r = run_sfs(SfsConfig::new(CORES), CORES, &w);
            Cell {
                offloaded: r.telemetry.offloaded,
                demoted: r.telemetry.demoted,
                outcomes: r.outcomes,
            }
        });
        sweep.scenario(format!("CFS {fam}"), move |_| {
            let w = family(fam, n, seed).with_load(CORES, LOAD).generate();
            Cell {
                outcomes: run_factory(&Baseline::Cfs, CORES, &w).outcomes,
                offloaded: 0,
                demoted: 0,
            }
        });
    }
    let results = sweep.run_with_threads(threads);

    let mut pct = PercentileTable::new();
    let mut summary = MarkdownTable::new(&[
        "scenario",
        "mean (ms)",
        "fraction RTE >= 0.95",
        "offloaded",
        "demoted",
    ]);
    let mut chart: Vec<(String, Vec<f64>)> = Vec::new();
    for r in &results {
        let durs = turnarounds_ms(&r.value.outcomes);
        let rt = rtes(&r.value.outcomes);
        let mean = durs.iter().sum::<f64>() / durs.len().max(1) as f64;
        let at95 = rt.iter().filter(|&&x| x >= 0.95).count() as f64 / rt.len().max(1) as f64;
        summary.row(&[
            r.label.clone(),
            format!("{mean:.1}"),
            format!("{at95:.3}"),
            format!("{}", r.value.offloaded),
            format!("{}", r.value.demoted),
        ]);
        pct.push(r.label.clone(), durs.clone());
        chart.push((r.label.clone(), durs));
    }

    section(&format!("scenario matrix @{:.0}% load", LOAD * 100.0));
    println!("{}", summary.to_markdown());
    save("matrix_scenarios.csv", &summary.to_csv());

    section("percentiles (ms)");
    println!("{}", pct.to_markdown());
    save("matrix_scenarios_percentiles.csv", &pct.to_csv());

    // Per-family headline: mean speedup of the short population.
    section("short-function (<1550 ms ideal) mean speedup, SFS vs CFS");
    for (fi, fam) in ["diurnal", "correlated", "cold-start"].iter().enumerate() {
        let sfs = &results[2 * fi].value.outcomes;
        let cfs = &results[2 * fi + 1].value.outcomes;
        let mean_short = |v: &[RequestOutcome]| {
            let xs: Vec<f64> = v
                .iter()
                .filter(|o| o.ideal.as_millis_f64() < 1550.0)
                .map(|o| o.turnaround.as_millis_f64())
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        println!(
            "{fam:>11}: SFS {:.1} ms vs CFS {:.1} ms ({:.1}x)",
            mean_short(sfs),
            mean_short(cfs),
            mean_short(cfs) / mean_short(sfs)
        );
    }

    section("duration CDF (log-x)");
    let refs: Vec<(&str, &[f64])> = chart
        .iter()
        .map(|(l, v)| (l.as_str(), v.as_slice()))
        .collect();
    println!("{}", cdf_chart(&refs, 64, 16));

    // ------------------------------------------------------------------
    // Policy matrix: the controllers the Sim/Controller API made cheap to
    // add, across the same three workload families.
    // ------------------------------------------------------------------
    let mut psweep: Sweep<'_, Vec<RequestOutcome>> = Sweep::new("policy_matrix", seed);
    for fam in ["diurnal", "correlated", "cold-start"] {
        for policy in ["HIST", "MLFQ", "SLO-SFS"] {
            psweep.scenario(format!("{policy} {fam}"), move |_| {
                let w = family(fam, n, seed).with_load(CORES, LOAD).generate();
                run_factory(&NewPolicy(policy), CORES, &w).outcomes
            });
        }
    }
    let presults = psweep.run_with_threads(threads);

    let mut ptable = MarkdownTable::new(&[
        "policy / family",
        "mean (ms)",
        "short mean (ms)",
        "long mean (ms)",
        "fraction RTE >= 0.95",
    ]);
    for r in &presults {
        let mean_of = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let durs = turnarounds_ms(&r.value);
        let (short, long): (Vec<f64>, Vec<f64>) = {
            let mut s = Vec::new();
            let mut l = Vec::new();
            for o in &r.value {
                if o.ideal.as_millis_f64() < 1550.0 {
                    s.push(o.turnaround.as_millis_f64());
                } else {
                    l.push(o.turnaround.as_millis_f64());
                }
            }
            (s, l)
        };
        let rt = rtes(&r.value);
        let at95 = rt.iter().filter(|&&x| x >= 0.95).count() as f64 / rt.len().max(1) as f64;
        ptable.row(&[
            r.label.clone(),
            format!("{:.1}", mean_of(&durs)),
            format!("{:.1}", mean_of(&short)),
            format!("{:.1}", mean_of(&long)),
            format!("{at95:.3}"),
        ]);
    }
    section("policy matrix: new controllers on the same families");
    println!("{}", ptable.to_markdown());
    save("matrix_policies.csv", &ptable.to_csv());

    // ------------------------------------------------------------------
    // SMP matrix: SFS vs CFS with the machine's load balancer, migration
    // penalty, and cache-affinity cost enabled, at 2/4/8 cores under
    // azure replay. Every section above runs the default (all-off)
    // SmpParams; this one turns the SMP machinery on. CI diffs this
    // section's stdout byte-for-byte at --threads 1 vs 8.
    // ------------------------------------------------------------------
    let smp = SmpParams::balanced(
        SimDuration::from_millis(4),
        SimDuration::from_micros(30),
        SimDuration::from_micros(15),
    );
    let mut ssweep: Sweep<'_, Vec<RequestOutcome>> = Sweep::new("smp_matrix", seed);
    for &cores in &[2usize, 4, 8] {
        for policy in ["SFS", "CFS"] {
            ssweep.scenario(format!("{policy} smp{cores}"), move |_| {
                let w = WorkloadSpec::azure_replay(n, seed)
                    .with_load(cores, LOAD)
                    .generate();
                let sim = Sim::on(MachineParams::linux(cores).with_smp(smp)).workload(&w);
                let run = match policy {
                    "SFS" => sim
                        .controller(SfsController::new(SfsConfig::new(cores)))
                        .run(),
                    _ => sim.boxed_controller(Baseline::Cfs.build()).run(),
                };
                run.outcomes
            });
        }
    }
    let sresults = ssweep.run_with_threads(threads);

    let mut stable = MarkdownTable::new(&[
        "policy / cores",
        "mean (ms)",
        "p99 (ms)",
        "short mean (ms)",
        "fraction RTE >= 0.95",
        "mean migrations/req",
    ]);
    for r in &sresults {
        let mean_of = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let durs = turnarounds_ms(&r.value);
        let mut sorted = durs.clone();
        sorted.sort_by(f64::total_cmp);
        let p99 = sorted[((sorted.len() as f64 * 0.99) as usize).min(sorted.len() - 1)];
        let short: Vec<f64> = r
            .value
            .iter()
            .filter(|o| o.ideal.as_millis_f64() < 1550.0)
            .map(|o| o.turnaround.as_millis_f64())
            .collect();
        let rt = rtes(&r.value);
        let at95 = rt.iter().filter(|&&x| x >= 0.95).count() as f64 / rt.len().max(1) as f64;
        let migs =
            r.value.iter().map(|o| o.migrations as f64).sum::<f64>() / r.value.len().max(1) as f64;
        stable.row(&[
            r.label.clone(),
            format!("{:.1}", mean_of(&durs)),
            format!("{p99:.1}"),
            format!("{:.1}", mean_of(&short)),
            format!("{at95:.3}"),
            format!("{migs:.2}"),
        ]);
    }
    section("SMP matrix: balance tick + migration/affinity costs on");
    println!("{}", stable.to_markdown());
    save("matrix_smp.csv", &stable.to_csv());
}
