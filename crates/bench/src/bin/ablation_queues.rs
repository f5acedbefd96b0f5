//! Ablation: single global queue (the paper's design, §VI) vs static
//! per-worker queues.
//!
//! The paper argues the global queue "guarantees natural work conservation
//! with good load balancing" and cites per-core-queue downsides (load
//! imbalance, core under-utilisation). This harness quantifies them on the
//! standalone workload at 90% load.

use sfs_bench::{banner, run_sfs, save, section, turnarounds_ms, Sweep};
use sfs_core::SfsConfig;
use sfs_metrics::{cdf_chart, PercentileTable};
use sfs_workload::WorkloadSpec;

const CORES: usize = 16;

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(10_000, None);
    banner(
        "Ablation",
        "global queue vs per-worker queues @90% load",
        n,
        seed,
    );

    let gen = move || {
        WorkloadSpec::azure_sampled(n, seed)
            .with_load(CORES, 0.9)
            .generate()
    };
    let mut sweep = Sweep::new("ablation_queues", seed);
    sweep.scenario("global queue", move |_| {
        run_sfs(SfsConfig::new(CORES), CORES, &gen())
    });
    sweep.scenario("per-worker queues", move |_| {
        run_sfs(SfsConfig::new(CORES).per_worker_queues(), CORES, &gen())
    });
    let results = sweep.run_with_threads(threads);
    let (global, per) = (&results[0].value, &results[1].value);

    let g = turnarounds_ms(&global.outcomes);
    let p = turnarounds_ms(&per.outcomes);

    section("percentiles (ms)");
    let mut t = PercentileTable::new();
    t.push("global queue", g.clone());
    t.push("per-worker queues", p.clone());
    println!("{}", t.to_markdown());
    save("ablation_queues.csv", &t.to_csv());

    println!(
        "mean: global {:.1} ms vs per-worker {:.1} ms",
        global.mean_turnaround_ms(),
        per.mean_turnaround_ms()
    );
    println!(
        "peak queue delay: global {:.2}s vs per-worker {:.2}s",
        global.telemetry.queue_delay_series.max_value(),
        per.telemetry.queue_delay_series.max_value()
    );

    section("duration CDF (log-x)");
    println!(
        "{}",
        cdf_chart(
            &[("global", g.as_slice()), ("per-worker", p.as_slice())],
            64,
            14
        )
    );
}
