//! Run every figure/table harness in sequence (the full reproduction).
//!
//! Invokes the sibling binaries from the same target directory, so build
//! them first:
//!
//! ```text
//! cargo build --release -p sfs-bench
//! cargo run   --release -p sfs-bench --bin repro_all -- --threads 8
//! ```
//!
//! `SFS_BENCH_REQUESTS` applies to every harness (default here: 10_000;
//! pass a smaller value for a quick smoke run). `--threads N` (or
//! `SFS_BENCH_THREADS=N`) sets the sweep worker count inside every
//! harness: trials fan out over N threads, but every number printed or
//! saved is bit-identical for any N — parallelism buys wall-clock only.

// lint: allow-file(D2, wall-clock here only stamps the per-harness timing lines on stderr-style progress output, never a result)

use std::process::Command;
use std::time::Instant;

const HARNESSES: [&str; 11] = [
    "fig01_azure_cdf",
    "fig02_motivation",
    "table1_durations",
    "fig06_08_loads",
    "fig09_timeslice",
    "fig10_slice_timeline",
    "fig11_io",
    "fig12_overload",
    "fig13_16_openlambda",
    "table2_overhead",
    "headline_claims",
];

const EXTRAS: [&str; 8] = [
    "ablation_queues",
    "sensitivity_window",
    "breakdown_buckets",
    "matrix_scenarios",
    "extension_slo",
    "extension_cluster",
    "cluster_scale",
    "fleet_scale",
];

fn main() {
    // Every harness reads the scale itself; reading it here too makes a
    // malformed knob one usage error instead of a failure per harness.
    let flag = sfs_bench::threads_flag("repro_all", "sweep worker threads per harness");
    let (_, _, threads) = sfs_bench::knobs(0, flag);
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("target dir").to_path_buf();
    let mut failures = Vec::new();
    let overall = Instant::now();
    eprintln!("[repro_all: sweeps run on {threads} worker thread(s)]");

    for name in HARNESSES.iter().chain(EXTRAS.iter()) {
        let bin = dir.join(name);
        if !bin.exists() {
            eprintln!("[skip] {name}: binary not built (run cargo build -p sfs-bench first)");
            failures.push(*name);
            continue;
        }
        println!("\n================================================================");
        println!("==> {name}");
        println!("================================================================");
        let t = Instant::now();
        let status = Command::new(&bin)
            .env("SFS_BENCH_THREADS", threads.to_string())
            .status();
        match status {
            Ok(s) if s.success() => {
                println!("[{name} done in {:.1}s]", t.elapsed().as_secs_f64());
            }
            Ok(s) => {
                eprintln!("[{name} FAILED: {s}]");
                failures.push(*name);
            }
            Err(e) => {
                eprintln!("[{name} could not start: {e}]");
                failures.push(*name);
            }
        }
    }

    println!("\n================================================================");
    println!(
        "Reproduction suite finished in {:.1}s; {} harnesses, {} failures",
        overall.elapsed().as_secs_f64(),
        HARNESSES.len() + EXTRAS.len(),
        failures.len()
    );
    if !failures.is_empty() {
        eprintln!("failed: {failures:?}");
        std::process::exit(1);
    }
    println!("CSV outputs are under results/.");
}
