//! Table I: probability distribution of function duration ranges and the
//! corresponding `fib` N values, verified against a generated workload.

use sfs_bench::{banner, section, Sweep};
use sfs_metrics::MarkdownTable;
use sfs_simcore::SimRng;
use sfs_workload::{Table1Sampler, TABLE1};

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(200_000, None);
    banner(
        "Table I",
        "duration-range probabilities and fib N mapping",
        n,
        seed,
    );

    let mut sweep = Sweep::new("table1", seed);
    sweep.scenario("bucket frequencies", move |_| {
        let sampler = Table1Sampler::new();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut counts = vec![0usize; TABLE1.len()];
        for _ in 0..n {
            let (_, idx) = sampler.sample_with_bucket(&mut rng);
            counts[idx] += 1;
        }
        counts
    });
    let counts = sweep.run_with_threads(threads).remove(0).value;
    let total_w: f64 = TABLE1.iter().map(|b| b.probability_pct).sum();

    let mut t = MarkdownTable::new(&[
        "paper probability",
        "duration range",
        "fib N",
        "renormalised target",
        "measured frequency",
    ]);
    for (b, &c) in TABLE1.iter().zip(counts.iter()) {
        let range = if b.range_ms.1 >= 3500.0 {
            format!(">= {:.0} ms", b.range_ms.0)
        } else {
            format!("{:.0}-{:.0} ms", b.range_ms.0, b.range_ms.1)
        };
        let fib = if b.fib_n.0 == b.fib_n.1 {
            format!("{}", b.fib_n.0)
        } else {
            format!("{}-{}", b.fib_n.0, b.fib_n.1)
        };
        t.row(&[
            format!("{:.1}%", b.probability_pct),
            range,
            fib,
            format!("{:.3}", b.probability_pct / total_w),
            format!("{:.3}", c as f64 / n as f64),
        ]);
    }
    println!("{}", t.to_markdown());
    sfs_bench::save("table1_durations.csv", &t.to_csv());

    section("derived quantities");
    let sampler = Table1Sampler::new();
    println!("analytic mean duration : {:.1} ms", sampler.mean_ms());
    println!(
        "short (<1550 ms) share : {:.1}% (paper: ~83%)",
        sfs_workload::table1::short_fraction() * 100.0
    );
}
