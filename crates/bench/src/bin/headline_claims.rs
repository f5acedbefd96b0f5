//! The paper's headline claims (§I / §VIII-A), measured:
//!
//! * "SFS improves the execution duration of 83% of the functions by 49.6×
//!   on average compared to CFS";
//! * "for the remaining 17% ... they run 1.29× longer on average under SFS".
//!
//! Runs the standalone Fig. 6 setup at 100% load and aggregates per-request
//! speedups with `sfs_metrics::headline_claims`.

use sfs_bench::{banner, save, section, Sweep};
use sfs_core::{Baseline, ControllerFactory, RequestOutcome, SfsConfig};
use sfs_metrics::{headline_claims, MarkdownTable, Paired};
use sfs_workload::{WorkloadSpec, LONG_THRESHOLD_MS};

const CORES: usize = 16;

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(49_712, None);
    banner(
        "Headline",
        "83% improved 49.6x / 17% run 1.29x longer",
        n,
        seed,
    );

    let gen = move || {
        WorkloadSpec::azure_sampled(n, seed)
            .with_load(CORES, 1.0)
            .generate()
    };
    let mut sweep: Sweep<'_, Vec<RequestOutcome>> = Sweep::new("headline", seed);
    sweep.scenario("SFS", move |_| {
        SfsConfig::new(CORES).run_on(CORES, &gen()).outcomes
    });
    sweep.scenario("CFS", move |_| Baseline::Cfs.run_on(CORES, &gen()).outcomes);
    let results = sweep.run_with_threads(threads);
    let (sfs, cfs) = (&results[0].value, &results[1].value);

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
    let h = headline_claims(&pairs, LONG_THRESHOLD_MS);

    section("measured vs paper");
    let mut t = MarkdownTable::new(&["claim", "paper", "measured"]);
    t.row(&[
        "short-function share".into(),
        "83%".into(),
        format!("{:.1}%", h.short_fraction * 100.0),
    ]);
    t.row(&[
        "short mean speedup vs CFS".into(),
        "49.6x".into(),
        format!("{:.1}x", h.short_mean_speedup),
    ]);
    t.row(&[
        "short median speedup".into(),
        "(two orders of magnitude at p-tiles)".into(),
        format!("{:.1}x", h.short_median_speedup),
    ]);
    t.row(&[
        "long mean slowdown under SFS".into(),
        "1.29x".into(),
        format!("{:.2}x", h.long_mean_slowdown),
    ]);
    t.row(&[
        "fraction of requests improved".into(),
        "~83%".into(),
        format!("{:.1}%", h.improved_fraction * 100.0),
    ]);
    println!("{}", t.to_markdown());
    save("headline_claims.csv", &t.to_csv());
}
