//! Fig. 11: handling I/O — polling intervals 1/4/8 ms vs I/O-oblivious SFS
//! (§VIII-B).
//!
//! Workload: 75% of requests get one leading I/O operation of 10–100 ms.
//! Expected shape: the three polling intervals are nearly indistinguishable;
//! I/O-oblivious SFS is clearly worse (blocked functions burn their FILTER
//! slice and get demoted).

use sfs_bench::{banner, save, section, turnarounds_ms, Sweep};
use sfs_core::{ControllerFactory, SfsConfig};
use sfs_metrics::{cdf_chart, CdfReport};
use sfs_simcore::SimDuration;
use sfs_workload::WorkloadSpec;

const CORES: usize = 16;

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(10_000, None);
    banner(
        "Fig. 11",
        "I/O handling: polling intervals vs oblivious",
        n,
        seed,
    );

    // The paper replays the Azure-sampled (bursty) arrival pattern here;
    // burstiness matters because the adaptive slice S dips during spikes,
    // which is exactly when an I/O-oblivious FILTER pool wastes slice
    // credit on sleeping functions.
    let gen = move || {
        let mut spec = WorkloadSpec::azure_replay(n, seed);
        spec.io_fraction = 0.75;
        spec.with_load(CORES, 0.8).generate()
    };

    let variants: Vec<(&str, SfsConfig)> = vec![
        ("SFS + 1ms", poll_cfg(1)),
        ("SFS + 4ms", poll_cfg(4)),
        ("SFS + 8ms", poll_cfg(8)),
        ("I/O-oblivious SFS", SfsConfig::new(CORES).io_oblivious()),
        // Regime probe: with the slice forced to the I/O scale (50 ms),
        // the oblivious variant burns whole slices on sleeping functions —
        // the mechanism behind the paper's Fig. 11 gap. See EXPERIMENTS.md.
        ("SFS 50ms aware", poll_cfg(4).with_fixed_slice(50)),
        (
            "SFS 50ms oblivious",
            SfsConfig::new(CORES).io_oblivious().with_fixed_slice(50),
        ),
    ];
    let mut sweep = Sweep::new("fig11", seed);
    for (label, cfg) in variants {
        sweep.scenario(label, move |_| cfg.run_on(CORES, &gen()));
    }
    let results = sweep.run_with_threads(threads);

    let mut report = CdfReport::new();
    let mut chart: Vec<(String, Vec<f64>)> = Vec::new();

    for r in &results {
        let io_blocks: u32 = r.value.outcomes.iter().map(|o| o.io_blocks).sum();
        println!(
            "{:>18}: mean {:.1} ms, io-blocks detected {}, demoted {}",
            r.label,
            r.value.mean_turnaround_ms(),
            io_blocks,
            r.value.telemetry.demoted
        );
        let durs = turnarounds_ms(&r.value.outcomes);
        report.push(r.label.clone(), durs.clone());
        chart.push((r.label.clone(), durs));
    }

    section("duration CDF quantiles (ms)");
    println!("{}", report.to_markdown());
    save("fig11_io_cdf.csv", &report.to_csv());

    section("duration CDF (log-x)");
    let refs: Vec<(&str, &[f64])> = chart
        .iter()
        .map(|(l, v)| (l.as_str(), v.as_slice()))
        .collect();
    println!("{}", cdf_chart(&refs, 64, 16));
}

fn poll_cfg(ms: u64) -> SfsConfig {
    let mut c = SfsConfig::new(CORES);
    c.poll_interval = SimDuration::from_millis(ms);
    c
}
