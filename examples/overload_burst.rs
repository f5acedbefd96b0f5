//! Transient-overload demo (paper §V-E / Fig. 12): a workload with arrival
//! spikes, run with and without SFS's hybrid FILTER+CFS fallback, showing
//! the queue-delay timelines side by side.
//!
//! ```text
//! cargo run --release --example overload_burst
//! ```

use sfs_repro::metrics::timeline_chart;
use sfs_repro::sched::MachineParams;
use sfs_repro::sfs::{SfsConfig, SfsController, Sim};
use sfs_repro::workload::{IatSpec, Spike, WorkloadSpec};

const CORES: usize = 8;

fn main() {
    let n = sfs_repro::cli::example_requests(5_000);
    let mut spec = WorkloadSpec::azure_sampled(n, 31);
    spec.iat = IatSpec::Bursty {
        base_mean_ms: 1.0,
        spikes: Spike::evenly_spaced(3, n / 20, 10.0, n),
    };
    let workload = spec.with_load(CORES, 0.85).generate();
    println!("workload: {n} requests with 3 injected arrival spikes\n");

    for (name, cfg) in [
        ("SFS (hybrid overload handling)", SfsConfig::new(CORES)),
        ("SFS w/o hybrid", SfsConfig::new(CORES).without_hybrid()),
    ] {
        let r = Sim::on(MachineParams::linux(CORES))
            .workload(&workload)
            .controller(SfsController::new(cfg))
            .run();
        println!("== {name}");
        println!(
            "   peak queue delay {:.2}s | mean turnaround {:.0}ms | offloaded to CFS: {}",
            r.telemetry.queue_delay_series.max_value(),
            r.mean_turnaround_ms(),
            r.telemetry.offloaded
        );
        let pts: Vec<(f64, f64)> = r
            .telemetry
            .queue_delay_series
            .points()
            .iter()
            .map(|&(t, v)| (t.as_secs_f64(), v))
            .collect();
        println!("{}", timeline_chart(&pts, 72, 10));
    }

    println!(
        "With the hybrid fallback, workers detect queueing delay above O x S\n\
         and push the backlog straight to CFS, which drains it while FILTER\n\
         keeps serving fresh short functions — the delay timeline stays flat."
    );
}
