//! Fig. 1: CDF of the average function execution duration of Azure
//! Functions traces.
//!
//! Regenerates the paper's motivation figure from the synthetic Azure
//! population (see `sfs_workload::azure` for the substitution note). The
//! printed checkpoints are the quantile claims from §IV-A.

use sfs_bench::{banner, save, section, Sweep};
use sfs_metrics::{cdf_chart, MarkdownTable};
use sfs_simcore::SimRng;
use sfs_workload::azure;

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(100_000, None);
    banner("Fig. 1", "CDF of Azure function durations", n, seed);

    // A single scenario: population sampling is the whole experiment.
    let mut sweep = Sweep::new("fig01", seed);
    sweep.scenario("azure population", move |_| {
        let mut rng = SimRng::seed_from_u64(seed);
        azure::sample_population(n, &mut rng)
    });
    let mut pop = sweep.run_with_threads(threads).remove(0).value;

    section("paper checkpoints (§IV-A)");
    let mut t = MarkdownTable::new(&["duration", "paper CDF", "measured CDF"]);
    for (label, ms, expect) in [
        ("300 ms", 300.0, 0.372),
        ("1 s", 1_000.0, 0.572),
        ("224 s", 224_000.0, 0.999),
    ] {
        t.row(&[
            label.into(),
            format!("{expect:.3}"),
            format!("{:.3}", pop.fraction_below(ms)),
        ]);
    }
    println!("{}", t.to_markdown());

    section("duration CDF (log-x)");
    let values = pop.raw().to_vec();
    println!(
        "{}",
        cdf_chart(&[("azure durations (ms)", &values)], 64, 16)
    );

    let cdf = pop.cdf(200);
    save("fig01_azure_cdf.csv", &cdf.to_csv());

    let span = pop.quantile(0.9999) / pop.quantile(0.0001);
    println!(
        "duration span p0.01..p99.99: {:.1} orders of magnitude",
        span.log10()
    );
}
