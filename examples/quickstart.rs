//! Quickstart: schedule a small serverless workload under SFS and CFS and
//! compare turnaround times.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sfs_repro::metrics::MarkdownTable;
use sfs_repro::sched::{MachineParams, Policy};
use sfs_repro::sfs::{KernelOnly, SfsConfig, SfsController, Sim};
use sfs_repro::simcore::env::env_override;
use sfs_repro::workload::WorkloadSpec;

/// Downsizing knob so CI can smoke-run every example quickly; a malformed
/// value aborts naming it.
fn n_requests(default: usize) -> usize {
    env_override(
        "SFS_EXAMPLE_REQUESTS",
        default,
        "a request count >= 1",
        |&n| n >= 1,
    )
}

fn main() {
    // 1. Generate a FaaSBench workload: 1,000 Azure-sampled function
    //    invocations targeting 90% CPU load on a 8-core host.
    let cores = 8;
    let workload = WorkloadSpec::azure_sampled(n_requests(1_000), 42)
        .with_load(cores, 0.9)
        .generate();
    println!(
        "workload: {} requests, {:.1}s of CPU demand, offered load {:.2}",
        workload.len(),
        workload.total_cpu_ms() / 1e3,
        workload.offered_load(cores)
    );

    // 2. Run it under SFS (the paper's scheduler)...
    let sfs = Sim::on(MachineParams::linux(cores))
        .workload(&workload)
        .controller(SfsController::new(SfsConfig::new(cores)))
        .run();

    // 3. ...and under plain Linux CFS — same runner, different controller.
    let cfs = Sim::on(MachineParams::linux(cores))
        .workload(&workload)
        .controller(KernelOnly(Policy::NORMAL))
        .run()
        .outcomes;

    // 4. Compare.
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let sfs_durs: Vec<f64> = sfs
        .outcomes
        .iter()
        .map(|o| o.turnaround.as_millis_f64())
        .collect();
    let cfs_durs: Vec<f64> = cfs.iter().map(|o| o.turnaround.as_millis_f64()).collect();

    let mut t = MarkdownTable::new(&["metric", "SFS", "CFS"]);
    t.row(&[
        "mean turnaround (ms)".into(),
        format!("{:.1}", mean(&sfs_durs)),
        format!("{:.1}", mean(&cfs_durs)),
    ]);
    let rte95 =
        |rtes: Vec<f64>| rtes.iter().filter(|&&x| x >= 0.95).count() as f64 / rtes.len() as f64;
    t.row(&[
        "fraction RTE >= 0.95".into(),
        format!("{:.3}", rte95(sfs.outcomes.iter().map(|o| o.rte).collect())),
        format!("{:.3}", rte95(cfs.iter().map(|o| o.rte).collect())),
    ]);
    t.row(&[
        "requests demoted to CFS".into(),
        format!("{}", sfs.telemetry.demoted),
        "-".into(),
    ]);
    t.row(&[
        "adaptive slice recalcs".into(),
        format!("{}", sfs.telemetry.slice_recalcs),
        "-".into(),
    ]);
    println!("{}", t.to_markdown());

    println!(
        "current FILTER slice ended at {} after {} adaptations",
        sfs.telemetry
            .slice_timeline
            .points()
            .last()
            .map(|&(_, v)| format!("{v:.1} ms"))
            .unwrap_or_else(|| "initial".into()),
        sfs.telemetry.slice_recalcs
    );
}
