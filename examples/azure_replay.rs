//! Replay an Azure-trace-like workload (bursty arrivals, Table-I durations)
//! across every scheduler this repo implements, printing a league table.
//!
//! This is the paper's motivation experiment (§IV) in one command:
//!
//! ```text
//! cargo run --release --example azure_replay
//! ```

use sfs_repro::metrics::MarkdownTable;
use sfs_repro::sched::MachineParams;
use sfs_repro::sfs::{
    Baseline, ControllerFactory, Ideal, RequestOutcome, SfsConfig, SfsController, Sim,
};
use sfs_repro::simcore::Samples;
use sfs_repro::workload::WorkloadSpec;

const CORES: usize = 12;

fn main() {
    let workload = WorkloadSpec::azure_replay(sfs_repro::cli::example_requests(8_000), 7)
        .with_load(CORES, 0.9)
        .generate();
    println!(
        "Azure-replay workload: {} requests over {:.0}s, {} cores, bursty IATs\n",
        workload.len(),
        workload
            .requests
            .last()
            .map(|r| r.arrival.as_secs_f64())
            .unwrap_or(0.0),
        CORES,
    );

    let mut table = MarkdownTable::new(&[
        "scheduler",
        "mean (ms)",
        "p50 (ms)",
        "p99 (ms)",
        "RTE>=0.95",
        "ctx switches",
    ]);

    let mut add = |name: &str, outs: Vec<RequestOutcome>| {
        let durs: Vec<f64> = outs.iter().map(|o| o.turnaround.as_millis_f64()).collect();
        let mut s = Samples::from_vec(durs.clone());
        let rte = outs.iter().filter(|o| o.rte >= 0.95).count() as f64 / outs.len() as f64;
        let ctx: u64 = outs.iter().map(|o| o.ctx_switches).sum();
        table.row(&[
            name.into(),
            format!("{:.1}", durs.iter().sum::<f64>() / durs.len() as f64),
            format!("{:.1}", s.percentile(50.0)),
            format!("{:.1}", s.percentile(99.0)),
            format!("{:.3}", rte),
            format!("{ctx}"),
        ]);
    };

    add(
        "IDEAL",
        Sim::on(MachineParams::linux(CORES))
            .workload(&workload)
            .controller(Ideal)
            .run()
            .outcomes,
    );
    add(
        "SFS",
        Sim::on(MachineParams::linux(CORES))
            .workload(&workload)
            .controller(SfsController::new(SfsConfig::new(CORES)))
            .run()
            .outcomes,
    );
    for b in [Baseline::Srtf, Baseline::Cfs, Baseline::Rr, Baseline::Fifo] {
        add(b.name(), b.run_on(CORES, &workload).outcomes);
    }

    println!("{}", table.to_markdown());
    println!("Expected ordering: IDEAL <= SRTF <= SFS << CFS < RR <= FIFO on p50;");
    println!("SFS trades a little tail (p99) for its short-function wins.");
}
