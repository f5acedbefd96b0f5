//! Region-scale study: regions × placement × faults on the multi-region
//! fleet (`sfs_faas::fleet`) — the front door, autoscaler, and fault
//! injector composed over the live-dispatch cluster.
//!
//! Two sweeps:
//!
//! 1. **placement × fleet size** at 90% offered load, fault-free —
//!    request count scales with the host total (the 4-region × 16-host
//!    point runs the full `SFS_BENCH_REQUESTS`, default 100 000), so
//!    per-host pressure is comparable across fleet sizes;
//! 2. **fault scenarios** on a 2-region × 16-host fleet under
//!    join-shortest-queue: fault-free, crashes, stragglers, a correlated
//!    AZ outage, and the full mix — every request attributed
//!    completed / shed / lost (conservation is asserted, not assumed).
//!
//! Execution units fan out in parallel (`--threads N`, or
//! `SFS_BENCH_THREADS`; default: all cores). Every number printed or
//! saved is **bit-identical for any thread count** — the front door
//! routes sequentially, unit simulations land in index-ordered slots —
//! so `fleet_scale --threads 8 > a; fleet_scale --threads 1 > b;
//! diff a b` is empty even with faults enabled. The CI `dispatcher-matrix`
//! job enforces exactly that diff.

use sfs_bench::{banner, save, section};
use sfs_faas::{FaultSpec, Fleet, FleetRun, Placement};
use sfs_metrics::MarkdownTable;
use sfs_simcore::{parallel, SimDuration, SimTime};
use sfs_workload::{Workload, WorkloadSpec};

const CORES_PER_HOST: usize = 4;
/// Warm-container keep-alive window (ms) of the affinity model.
const KEEP_ALIVE_MS: u64 = 10_000;
/// Cold-start CPU penalty (ms).
const COLD_START_MS: u64 = 50;

fn fleet(regions: usize, hosts: usize) -> Fleet {
    Fleet::new(regions, hosts, CORES_PER_HOST).with_affinity(
        SimDuration::from_millis(KEEP_ALIVE_MS),
        SimDuration::from_millis(COLD_START_MS),
    )
}

/// Stats computed once per run and shared by the table and the CSV.
struct RunStats {
    mean_ms: Option<f64>,
    makespan_s: f64,
    crashes: u64,
    boots: u64,
    warm_host_s: f64,
}

impl RunStats {
    fn of(run: &FleetRun) -> RunStats {
        assert!(
            run.conservation_holds(),
            "conservation violated: {} completed + {} shed + {} lost != {} requests",
            run.outcomes.len(),
            run.shed.len(),
            run.lost.len(),
            run.requests,
        );
        let makespan_s = run
            .outcomes
            .iter()
            .map(|o| o.finished)
            .max()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO)
            .as_millis_f64()
            / 1e3;
        RunStats {
            mean_ms: run.mean_turnaround_ms(),
            makespan_s,
            crashes: run.per_region.iter().map(|r| r.crashes).sum(),
            boots: run
                .per_region
                .iter()
                .map(|r| r.boots + r.reactivations)
                .sum(),
            warm_host_s: run.per_region.iter().map(|r| r.warm_host_ms).sum::<f64>() / 1e3,
        }
    }
}

fn fmt_mean(mean: Option<f64>) -> String {
    mean.map_or_else(|| "n/a".to_string(), |m| format!("{m:.1}"))
}

const COLUMNS: [&str; 8] = [
    "completed",
    "shed",
    "lost",
    "mean (ms)",
    "cold starts",
    "spilled",
    "scale-ups",
    "makespan (s)",
];

fn row(table: &mut MarkdownTable, head: &[String], run: &FleetRun, stats: &RunStats) {
    let mut cells = head.to_vec();
    cells.extend([
        format!("{}", run.outcomes.len()),
        format!("{}", run.shed.len()),
        format!("{}", run.lost.len()),
        fmt_mean(stats.mean_ms),
        format!("{}", run.cold_starts),
        format!("{}", run.spilled),
        format!("{}", stats.boots),
        format!("{:.2}", stats.makespan_s),
    ]);
    table.row(&cells);
}

fn workload_for(regions: usize, hosts: usize, n_full: usize, load: f64, seed: u64) -> Workload {
    // Scale the request count with the host total so per-host pressure
    // stays comparable: the 4x16 point carries the full budget.
    let total_hosts = regions * hosts;
    let n = (n_full * total_hosts / 64).max(total_hosts);
    WorkloadSpec::azure_sampled(n, seed)
        .with_load(total_hosts * CORES_PER_HOST, load)
        .generate()
}

fn main() {
    let threads = parse_threads();
    let n_full = sfs_bench::n_requests(100_000);
    let seed = sfs_bench::seed();
    banner(
        "fleet_scale",
        "regions x placement x faults on the multi-region fleet",
        n_full,
        seed,
    );
    // Thread count goes to stderr only: stdout must stay byte-identical
    // across `--threads` values.
    eprintln!("[fleet_scale: execution units fan out over {threads} worker thread(s)]");

    let csv_mean = |m: Option<f64>| m.map_or_else(String::new, |v| format!("{v}"));
    let mut csv = String::from(
        "sweep,regions,hosts,placement,faults,completed,shed,lost,mean_ms,cold_starts,\
         redispatches,spilled,crashes,scale_ups,warm_host_s,makespan_s\n",
    );
    let mut push_csv = |sweep: &str,
                        regions: usize,
                        hosts: usize,
                        faults: &str,
                        run: &FleetRun,
                        stats: &RunStats| {
        csv.push_str(&format!(
            "{sweep},{regions},{hosts},{},{faults},{},{},{},{},{},{},{},{},{},{},{}\n",
            run.placement.name(),
            run.outcomes.len(),
            run.shed.len(),
            run.lost.len(),
            csv_mean(stats.mean_ms),
            run.cold_starts,
            run.redispatches,
            run.spilled,
            stats.crashes,
            stats.boots,
            stats.warm_host_s,
            stats.makespan_s,
        ));
    };

    section("placement x fleet size at 90% offered load (fault-free)");
    let mut cols = vec!["fleet", "placement"];
    cols.extend_from_slice(&COLUMNS);
    let mut table = MarkdownTable::new(&cols);
    for (regions, hosts) in [(2usize, 4usize), (2, 16), (4, 16)] {
        let w = workload_for(regions, hosts, n_full, 0.9, seed);
        let f = fleet(regions, hosts);
        for p in Placement::ALL {
            let run = f.run_with_threads(p, &f.sfs, &w, threads);
            let stats = RunStats::of(&run);
            row(
                &mut table,
                &[format!("{regions}x{hosts}"), p.name().to_string()],
                &run,
                &stats,
            );
            push_csv("size", regions, hosts, "none", &run, &stats);
        }
    }
    println!("{}", table.to_markdown());

    section("fault scenarios on a 2-region x 16-host fleet (join-shortest-queue)");
    let mut cols = vec!["faults"];
    cols.extend_from_slice(&COLUMNS);
    let mut table = MarkdownTable::new(&cols);
    let w = workload_for(2, 16, n_full, 0.9, seed);
    for spec in [
        "none",
        "crash:4",
        "straggler:4",
        "outage:1",
        "crash:4+straggler:4+outage:1",
    ] {
        let mut f = fleet(2, 16);
        if spec != "none" {
            f = f.with_faults(FaultSpec::parse(spec).expect("literal fault spec"));
        }
        let run = f.run_with_threads(Placement::JoinShortestQueue, &f.sfs, &w, threads);
        let stats = RunStats::of(&run);
        row(&mut table, &[spec.to_string()], &run, &stats);
        push_csv("faults", 2, 16, spec, &run, &stats);
    }
    println!("{}", table.to_markdown());

    save("fleet_scale.csv", &csv);
    println!(
        "Reading: the front door keeps per-region pressure level (spilled\n\
         counts the requests routed past their cheapest-RTT home), the\n\
         autoscaler's warm parking converts queue-depth slack into cold\n\
         starts avoided, and every faulted run still conserves requests:\n\
         completed + shed + lost == offered, with crashes surfacing as\n\
         re-dispatches (bounded by the budget) rather than silent loss.\n\
         All of it is bit-identical at any --threads value."
    );
}

/// `--threads N` beats `SFS_BENCH_THREADS`, which beats the core count.
fn parse_threads() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut threads = None;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" | "-t" => {
                let v = args.get(i + 1).cloned().unwrap_or_default();
                match v.parse::<usize>() {
                    Ok(t) if t >= 1 => threads = Some(t),
                    _ => {
                        eprintln!("fleet_scale: --threads needs a positive integer, got {v:?}");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--help" | "-h" => {
                println!("usage: fleet_scale [--threads N]");
                println!("  --threads N   unit-simulation worker threads (default: autodetect)");
                std::process::exit(0);
            }
            other => {
                eprintln!("fleet_scale: unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    threads.unwrap_or_else(parallel::default_threads)
}
