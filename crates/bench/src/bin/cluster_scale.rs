//! Cluster-scale study: hosts × placement × load on the live-dispatch
//! cluster (`sfs_faas::cluster`), up to 64 hosts × 8 cores × 200k
//! requests.
//!
//! Two sweeps:
//!
//! 1. **placement × hosts** at 90% cluster load — request count scales
//!    with the fleet (the 64-host point runs the full
//!    `SFS_BENCH_REQUESTS`, default 200 000), so per-host pressure is
//!    comparable across fleet sizes;
//! 2. **placement × load** on a 16-host fleet, from comfortable (70%) to
//!    overloaded (110%).
//!
//! Hosts execute in parallel (`--threads N`, or `SFS_BENCH_THREADS`;
//! default: all cores). Every number printed or saved is **bit-identical
//! for any thread count** — the dispatcher places sequentially, host
//! simulations land in host-indexed slots — so
//! `cluster_scale --threads 8 > a; cluster_scale --threads 1 > b;
//! diff a b` is empty while the 8-thread run is several times faster on a
//! multicore machine. The CI `dispatcher-matrix` job enforces exactly that
//! diff.

use sfs_bench::{banner, save, section};
use sfs_faas::{Cluster, ClusterRun, Placement};
use sfs_metrics::MarkdownTable;
use sfs_simcore::{Samples, SimDuration, SimTime};
use sfs_workload::{Workload, WorkloadSpec, LONG_THRESHOLD_MS};

const CORES_PER_HOST: usize = 8;
/// Warm-container keep-alive window (ms) of the affinity model.
const KEEP_ALIVE_MS: u64 = 10_000;
/// Cold-start CPU penalty (ms).
const COLD_START_MS: u64 = 50;

fn cluster(hosts: usize) -> Cluster {
    Cluster::new(hosts, CORES_PER_HOST).with_affinity(
        SimDuration::from_millis(KEEP_ALIVE_MS),
        SimDuration::from_millis(COLD_START_MS),
    )
}

fn fmt_mean(mean: Option<f64>) -> String {
    mean.map_or_else(|| "n/a".to_string(), |m| format!("{m:.1}"))
}

/// Stats computed once per run and shared by the table and the CSV.
struct RunStats {
    /// `None` when the run has no long requests — printed as `n/a`, the
    /// same no-0.0-sentinel rule as the means.
    long_p99_ms: Option<f64>,
    makespan_s: f64,
}

impl RunStats {
    fn of(run: &ClusterRun) -> RunStats {
        let longs: Vec<f64> = run
            .outcomes
            .iter()
            .filter(|o| o.ideal.as_millis_f64() >= LONG_THRESHOLD_MS)
            .map(|o| o.turnaround.as_millis_f64())
            .collect();
        let long_p99_ms = (!longs.is_empty()).then(|| Samples::from_vec(longs).percentile(99.0));
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
            long_p99_ms,
            makespan_s,
        }
    }
}

fn row(table: &mut MarkdownTable, head: &[String], run: &ClusterRun, stats: &RunStats) {
    let (min_h, max_h) = (
        run.per_host.iter().min().copied().unwrap_or(0),
        run.per_host.iter().max().copied().unwrap_or(0),
    );
    let mut cells = head.to_vec();
    cells.extend([
        fmt_mean(run.short_mean_ms()),
        fmt_mean(run.long_mean_ms()),
        fmt_mean(stats.long_p99_ms),
        format!("{}", run.cold_starts),
        format!("{min_h}..{max_h}"),
        format!("{:.2}", stats.makespan_s),
    ]);
    table.row(&cells);
}

const COLUMNS: [&str; 6] = [
    "short mean (ms)",
    "long mean (ms)",
    "long p99 (ms)",
    "cold starts",
    "per-host n",
    "makespan (s)",
];

fn workload_for(hosts: usize, n64: usize, load: f64, seed: u64) -> Workload {
    // Scale the request count with the fleet so per-host pressure stays
    // comparable: the 64-host point carries the full budget.
    let n = (n64 * hosts / 64).max(hosts);
    WorkloadSpec::azure_sampled(n, seed)
        .with_load(hosts * CORES_PER_HOST, load)
        .generate()
}

fn main() {
    let flag = sfs_bench::threads_flag("cluster_scale", "host-simulation worker threads");
    let (n64, seed, threads) = sfs_bench::knobs(200_000, flag);
    banner(
        "cluster_scale",
        "hosts x placement x load on the live-dispatch cluster",
        n64,
        seed,
    );
    // Thread count goes to stderr only: stdout must stay byte-identical
    // across `--threads` values.
    eprintln!("[cluster_scale: hosts fan out over {threads} worker thread(s)]");

    // Empty populations are written as empty CSV cells (the table prints
    // `n/a`): absent, never a 0.0 sentinel, and still numerically parseable.
    let csv_mean = |m: Option<f64>| m.map_or_else(String::new, |v| format!("{v}"));
    let mut csv = String::from(
        "sweep,hosts,load,placement,short_mean_ms,long_mean_ms,cold_starts,makespan_s\n",
    );
    let mut push_csv =
        |sweep: &str, hosts: usize, load: f64, run: &ClusterRun, stats: &RunStats| {
            csv.push_str(&format!(
                "{sweep},{hosts},{load},{},{},{},{},{}\n",
                run.placement.name(),
                csv_mean(run.short_mean_ms()),
                csv_mean(run.long_mean_ms()),
                run.cold_starts,
                stats.makespan_s,
            ));
        };

    section("placement x fleet size at 90% cluster load");
    let mut cols = vec!["hosts", "placement"];
    cols.extend_from_slice(&COLUMNS);
    let mut table = MarkdownTable::new(&cols);
    for hosts in [4usize, 16, 64] {
        let w = workload_for(hosts, n64, 0.9, seed);
        let c = cluster(hosts);
        for p in Placement::ALL {
            let run = c.run_with_threads(p, &c.sfs, &w, threads);
            let stats = RunStats::of(&run);
            row(
                &mut table,
                &[format!("{hosts}"), p.name().to_string()],
                &run,
                &stats,
            );
            push_csv("hosts", hosts, 0.9, &run, &stats);
        }
    }
    println!("{}", table.to_markdown());

    section("placement x load on 16 hosts");
    let mut cols = vec!["load", "placement"];
    cols.extend_from_slice(&COLUMNS);
    let mut table = MarkdownTable::new(&cols);
    for load in [0.7f64, 0.9, 1.1] {
        let w = workload_for(16, n64, load, seed);
        let c = cluster(16);
        for p in Placement::ALL {
            let run = c.run_with_threads(p, &c.sfs, &w, threads);
            let stats = RunStats::of(&run);
            row(
                &mut table,
                &[format!("{:.0}%", load * 100.0), p.name().to_string()],
                &run,
                &stats,
            );
            push_csv("load", 16, load, &run, &stats);
        }
    }
    println!("{}", table.to_markdown());

    save("cluster_scale.csv", &csv);
    println!(
        "Reading: join-shortest-queue and least-loaded keep per-host counts\n\
         tight as the fleet grows; long-to-lightest trades a little balance\n\
         for a lighter long tail; consistent-hash pays the fewest cold\n\
         starts (locality) at some balance cost, bounded-load hashing\n\
         keeping the worst host in check. Makespan falling with fleet size\n\
         at fixed per-host pressure is the multi-server scaling the paper's\n\
         §VIII-A sketch asks for."
    );
}
