//! Extension: multi-server offloading of long functions (the paper's
//! stated future work, §VIII-A): a global dispatcher steering predicted
//! long functions across an SFS cluster, with live load feedback and a
//! warm-container affinity model (see `sfs_faas::cluster`).
//!
//! For the full hosts × placement × load scaling study, see the
//! `cluster_scale` harness; this one compares the placement policies at
//! one saturated 4-host operating point.

use sfs_bench::{banner, save, section, Sweep};
use sfs_faas::{Cluster, Placement};
use sfs_metrics::MarkdownTable;
use sfs_simcore::{Samples, SimDuration};
use sfs_workload::{WorkloadSpec, LONG_THRESHOLD_MS};

const HOSTS: usize = 4;
const CORES_PER_HOST: usize = 8;

/// `n/a` when the population is empty (a small run can have no longs).
fn fmt_mean(mean: Option<f64>) -> String {
    mean.map_or_else(|| "n/a".to_string(), |m| format!("{m:.1}"))
}

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(10_000, None);
    banner(
        "Extension: cluster",
        "global long-function offloading across SFS hosts",
        n,
        seed,
    );

    let cluster = Cluster::new(HOSTS, CORES_PER_HOST).with_affinity(
        SimDuration::from_millis(10_000),
        SimDuration::from_millis(50),
    );
    let mut sweep = Sweep::new("extension_cluster", seed);
    for p in Placement::ALL {
        let cluster = cluster.clone();
        sweep.scenario(p.name(), move |_| {
            let w = WorkloadSpec::azure_sampled(n, seed)
                .with_load(HOSTS * CORES_PER_HOST, 1.0)
                .generate();
            // Host parallelism is the sweep's inner dimension; trials
            // here run on one worker each (5 trials × H hosts).
            cluster.run_with_threads(p, &cluster.sfs, &w, 1)
        });
    }
    let results = sweep.run_with_threads(threads);

    let mut table = MarkdownTable::new(&[
        "placement",
        "short mean (ms)",
        "long mean (ms)",
        "long p99 (ms)",
        "cold starts",
        "per-host counts",
    ]);
    for r in &results {
        let run = &r.value;
        let longs: Vec<f64> = run
            .outcomes
            .iter()
            .filter(|o| o.ideal.as_millis_f64() >= LONG_THRESHOLD_MS)
            .map(|o| o.turnaround.as_millis_f64())
            .collect();
        let long_p99 = (!longs.is_empty()).then(|| Samples::from_vec(longs).percentile(99.0));
        table.row(&[
            r.label.clone(),
            fmt_mean(run.short_mean_ms()),
            fmt_mean(run.long_mean_ms()),
            fmt_mean(long_p99),
            format!("{}", run.cold_starts),
            format!("{:?}", run.per_host),
        ]);
    }

    section("placement comparison at 100% cluster load");
    println!("{}", table.to_markdown());
    save("extension_cluster.csv", &table.to_csv());
    println!(
        "Reading: long-to-lightest should trim the long-function mean/p99\n\
         relative to round-robin without hurting the short population —\n\
         the mitigation the paper sketches for SFS's long-function penalty.\n\
         consistent-hash shows the locality/balance trade: far fewer cold\n\
         starts, at some queueing cost next to join-shortest-queue."
    );
}
