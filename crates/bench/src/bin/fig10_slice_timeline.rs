//! Fig. 10: timeline of the adapted time slice vs the window-mean IAT over
//! the whole workload (§VIII-B).
//!
//! Expected shape: S tracks the IAT signal scaled by the core count —
//! when arrivals speed up the slice tightens, and vice versa.

use sfs_bench::{banner, save, section, Sweep};
use sfs_core::{ControllerFactory, SfsConfig};
use sfs_metrics::timeline_chart;
use sfs_workload::{IatSpec, Spike, WorkloadSpec};

const CORES: usize = 16;

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(10_000, None);
    banner("Fig. 10", "time-slice adaptation timeline vs IAT", n, seed);

    // A bursty arrival process makes the adaptation visible (the paper's
    // replayed trace has rate variation; a constant-rate Poisson would give
    // a flat line).
    let mut sweep = Sweep::new("fig10", seed);
    sweep.scenario("SFS timeline", move |_| {
        let mut spec = WorkloadSpec::azure_sampled(n, seed);
        spec.iat = IatSpec::Bursty {
            base_mean_ms: 1.0,
            spikes: Spike::evenly_spaced(4, n / 12, 4.0, n),
        };
        let w = spec.with_load(CORES, 0.8).generate();
        SfsConfig::new(CORES).run_on(CORES, &w)
    });
    let r = sweep.run_with_threads(threads).remove(0).value;

    section(&format!(
        "slice recalculations: {} (every 100 arrivals)",
        r.telemetry.slice_recalcs
    ));

    let slice_pts: Vec<(f64, f64)> = r
        .telemetry
        .slice_timeline
        .points()
        .iter()
        .map(|&(t, v)| (t.as_secs_f64(), v))
        .collect();
    let iat_pts: Vec<(f64, f64)> = r
        .telemetry
        .iat_timeline
        .points()
        .iter()
        .map(|&(t, v)| (t.as_secs_f64(), v))
        .collect();

    section("time slice S (ms) over time");
    println!("{}", timeline_chart(&slice_pts, 72, 12));
    section("window-mean IAT (ms) over time");
    println!("{}", timeline_chart(&iat_pts, 72, 12));

    // Correlation check: S should equal IAT × cores at every recalc point.
    let max_rel_err = slice_pts
        .iter()
        .zip(iat_pts.iter())
        .map(|(&(_, s), &(_, iat))| {
            let predicted = iat * CORES as f64;
            ((s - predicted) / predicted).abs()
        })
        .fold(0.0f64, f64::max);
    println!("max |S - IAT*c| relative error: {max_rel_err:.4} (0 = exact Eq. 2 coupling)");

    save(
        "fig10_slice_timeline.csv",
        &r.telemetry.slice_timeline.to_csv(),
    );
    save("fig10_iat_timeline.csv", &r.telemetry.iat_timeline.to_csv());
}
