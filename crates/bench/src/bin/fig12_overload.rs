//! Fig. 12: effect of the hybrid overload-handling mechanism (§V-E,
//! §VIII-B): queuing-delay timeline and duration CDF, SFS vs SFS w/o
//! hybrid, under a bursty workload with five arrival-rate spikes.
//!
//! Expected shape: without the hybrid fallback, queue-delay spikes grow and
//! drain slowly; with it the timeline stays smooth and ~50% of requests see
//! materially lower turnaround.

use sfs_bench::{banner, run_sfs, save, section, turnarounds_ms, Sweep};
use sfs_core::SfsConfig;
use sfs_metrics::{cdf_chart, timeline_chart, CdfReport};
use sfs_workload::{IatSpec, Spike, WorkloadSpec};

const CORES: usize = 16;

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(10_000, None);
    banner(
        "Fig. 12",
        "hybrid overload handling under 5 arrival spikes",
        n,
        seed,
    );

    let gen = move || {
        let mut spec = WorkloadSpec::azure_sampled(n, seed);
        spec.iat = IatSpec::Bursty {
            base_mean_ms: 1.0,
            spikes: Spike::evenly_spaced(5, n / 25, 10.0, n),
        };
        spec.with_load(CORES, 0.85).generate()
    };
    let mut sweep = Sweep::new("fig12", seed);
    sweep.scenario("SFS", move |_| {
        run_sfs(SfsConfig::new(CORES), CORES, &gen())
    });
    sweep.scenario("SFS w/o hybrid", move |_| {
        run_sfs(SfsConfig::new(CORES).without_hybrid(), CORES, &gen())
    });
    let results = sweep.run_with_threads(threads);
    let (hybrid, pure) = (&results[0].value, &results[1].value);

    section("Fig. 12(a) queuing delay timeline (s)");
    for r in &results {
        let pts: Vec<(f64, f64)> = r
            .value
            .telemetry
            .queue_delay_series
            .points()
            .iter()
            .map(|&(t, v)| (t.as_secs_f64(), v))
            .collect();
        println!(
            "{}: peak {:.2}s mean {:.3}s",
            r.label,
            r.value.telemetry.queue_delay_series.max_value(),
            r.value.telemetry.queue_delay_series.mean_value()
        );
        println!("{}", timeline_chart(&pts, 72, 10));
    }
    println!(
        "offloaded to CFS by the bypass: {} requests (w/o hybrid: {})",
        hybrid.telemetry.offloaded, pure.telemetry.offloaded
    );

    section("Fig. 12(b) duration CDF quantiles (ms)");
    let mut report = CdfReport::new("duration_ms");
    let h = turnarounds_ms(&hybrid.outcomes);
    let p = turnarounds_ms(&pure.outcomes);
    report.push("SFS", h.clone());
    report.push("SFS w/o hybrid", p.clone());
    println!("{}", report.to_markdown());
    save("fig12b_duration_cdf.csv", &report.to_csv());
    save(
        "fig12a_queue_delay_sfs.csv",
        &hybrid.telemetry.queue_delay_series.to_csv(),
    );
    save(
        "fig12a_queue_delay_pure.csv",
        &pure.telemetry.queue_delay_series.to_csv(),
    );

    section("duration CDF (log-x)");
    println!(
        "{}",
        cdf_chart(
            &[("SFS", h.as_slice()), ("SFS w/o hybrid", p.as_slice())],
            64,
            16
        )
    );
}
