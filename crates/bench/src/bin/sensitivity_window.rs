//! Sensitivity: sliding-window length N for the IAT statistics (§V-C uses
//! N = 100). Sweeps N ∈ {10, 50, 100, 500} on the bursty workload, where
//! window length matters most: short windows chase noise, long windows lag
//! rate changes.

use sfs_bench::{banner, save, section, turnarounds_ms, Sweep};
use sfs_core::{ControllerFactory, SfsConfig};
use sfs_metrics::PercentileTable;
use sfs_workload::{IatSpec, Spike, WorkloadSpec};

const CORES: usize = 16;
const WINDOWS: [usize; 4] = [10, 50, 100, 500];

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(10_000, None);
    banner("Sensitivity", "IAT window length N sweep", n, seed);

    let gen = move || {
        let mut spec = WorkloadSpec::azure_sampled(n, seed);
        spec.iat = IatSpec::Bursty {
            base_mean_ms: 1.0,
            spikes: Spike::evenly_spaced(4, n / 20, 6.0, n),
        };
        spec.with_load(CORES, 0.85).generate()
    };
    let mut sweep = Sweep::new("sensitivity_window", seed);
    for window_n in WINDOWS {
        sweep.scenario(format!("N={window_n}"), move |_| {
            let mut cfg = SfsConfig::new(CORES);
            cfg.window_n = window_n;
            cfg.run_on(CORES, &gen())
        });
    }
    let results = sweep.run_with_threads(threads);

    let mut t = PercentileTable::new();
    section("per-window-length results");
    for (r, window_n) in results.iter().zip(WINDOWS) {
        println!(
            "N={window_n:>4}: mean {:.1} ms, recalcs {}, offloaded {}, peak queue delay {:.2}s",
            r.value.mean_turnaround_ms(),
            r.value.telemetry.slice_recalcs,
            r.value.telemetry.offloaded,
            r.value.telemetry.queue_delay_series.max_value()
        );
        t.push(r.label.clone(), turnarounds_ms(&r.value.outcomes));
    }

    section("percentiles (ms)");
    println!("{}", t.to_markdown());
    save("sensitivity_window.csv", &t.to_csv());
}
