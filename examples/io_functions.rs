//! I/O-aware scheduling demo (paper §V-D / Fig. 11): a workload where 75%
//! of functions begin with a 10–100 ms I/O operation, run under I/O-aware
//! SFS vs I/O-oblivious SFS.
//!
//! ```text
//! cargo run --release --example io_functions
//! ```

use sfs_repro::metrics::MarkdownTable;
use sfs_repro::sched::MachineParams;
use sfs_repro::sfs::{RunOutcome, SfsConfig, SfsController, Sim};
use sfs_repro::simcore::Samples;
use sfs_repro::workload::WorkloadSpec;

const CORES: usize = 8;

fn main() {
    let mut spec = WorkloadSpec::azure_sampled(sfs_repro::cli::example_requests(2_000), 23);
    spec.io_fraction = 0.75;
    spec.io_range_ms = (10.0, 100.0);
    let workload = spec.with_load(CORES, 0.8).generate();
    let with_io = workload
        .requests
        .iter()
        .filter(|r| r.injected_io_ms.is_some())
        .count();
    println!(
        "workload: {} requests, {} with a leading I/O op\n",
        workload.len(),
        with_io
    );

    let aware = Sim::on(MachineParams::linux(CORES))
        .workload(&workload)
        .controller(SfsController::new(SfsConfig::new(CORES)))
        .run();
    let oblivious = Sim::on(MachineParams::linux(CORES))
        .workload(&workload)
        .controller(SfsController::new(SfsConfig::new(CORES).io_oblivious()))
        .run();

    let mut t = MarkdownTable::new(&["metric", "I/O-aware SFS", "I/O-oblivious SFS"]);
    t.row(&[
        "mean turnaround (ms)".into(),
        format!("{:.1}", aware.mean_turnaround_ms()),
        format!("{:.1}", oblivious.mean_turnaround_ms()),
    ]);
    let p99 = |r: &RunOutcome| {
        let mut s = Samples::from_vec(
            r.outcomes
                .iter()
                .map(|o| o.turnaround.as_millis_f64())
                .collect(),
        );
        s.percentile(99.0)
    };
    t.row(&[
        "p99 turnaround (ms)".into(),
        format!("{:.1}", p99(&aware)),
        format!("{:.1}", p99(&oblivious)),
    ]);
    let blocks = |r: &RunOutcome| -> u32 { r.outcomes.iter().map(|o| o.io_blocks).sum() };
    t.row(&[
        "I/O blocks detected".into(),
        format!("{}", blocks(&aware)),
        format!("{}", blocks(&oblivious)),
    ]);
    t.row(&[
        "demoted on slice expiry".into(),
        format!("{}", aware.telemetry.demoted),
        format!("{}", oblivious.telemetry.demoted),
    ]);
    t.row(&[
        "status polls performed".into(),
        format!("{}", aware.telemetry.polls),
        format!("{}", oblivious.telemetry.polls),
    ]);
    println!("{}", t.to_markdown());

    println!(
        "The oblivious variant burns FILTER slices on sleeping functions and\n\
         demotes them to CFS ({} demotions vs {}); the aware variant detects\n\
         the block within one 4 ms poll and re-enqueues the function with its\n\
         unused slice.",
        oblivious.telemetry.demoted, aware.telemetry.demoted
    );
}
