//! Table II: SFS's (relative) CPU overhead supporting a 72-core OpenLambda
//! deployment, by polling interval (§IX-B).
//!
//! Two measurements:
//! 1. the *modelled* overhead from the simulator's poll/action counts with
//!    per-operation costs calibrated in `RunOutcome::overhead_fraction`;
//! 2. the *live* cost of one `/proc` status poll on this machine
//!    (`sfs_host::measure_poll_cost`), the real-world analogue of the
//!    paper's gopsutil reads.
//!
//! Expected shape: a few percent, dominated by polling, and only weakly
//! dependent on the polling interval (the paper measures 3.4–3.8% average).

use sfs_bench::{banner, run_sfs, save, section, Sweep};
use sfs_core::SfsConfig;
use sfs_metrics::MarkdownTable;
use sfs_simcore::SimDuration;
use sfs_workload::WorkloadSpec;

const CORES: usize = 72;

fn main() {
    let (n, seed, threads) = sfs_bench::knobs(10_000, None);
    banner(
        "Table II",
        "SFS CPU overhead by polling interval (72 cores)",
        n,
        seed,
    );

    let poll_cost = SimDuration::from_micros(120);
    let action_cost = SimDuration::from_micros(150);

    let mut sweep = Sweep::new("table2", seed);
    for ms in [1u64, 4, 8] {
        sweep.scenario(format!("{ms} ms"), move |_| {
            // I/O-heavy mix so the blocked-set polling is exercised like
            // the OL run.
            let w = WorkloadSpec::openlambda(n, seed)
                .with_load(CORES, 0.9)
                .generate();
            let mut cfg = SfsConfig::new(CORES);
            cfg.poll_interval = SimDuration::from_millis(ms);
            run_sfs(cfg, CORES, &w)
        });
    }
    let results = sweep.run_with_threads(threads);

    let mut t = MarkdownTable::new(&[
        "interval",
        "polls",
        "status reads",
        "sched actions",
        "overhead (avg)",
        "polling share",
    ]);
    for r in &results {
        let f = r.value.overhead_fraction(poll_cost, action_cost);
        let share = r.value.polling_overhead_share(poll_cost, action_cost);
        t.row(&[
            r.label.clone(),
            format!("{}", r.value.telemetry.polls),
            format!("{}", r.value.telemetry.polled_tasks),
            format!("{}", r.value.sched_actions),
            format!("{:.1}%", f * 100.0),
            format!("{:.1}%", share * 100.0),
        ]);
    }
    section("modelled overhead (paper Table II: avg 3.8% / 3.6% / 3.4%; ~74% polling)");
    println!("{}", t.to_markdown());
    save("table2_overhead.csv", &t.to_csv());

    section("live /proc poll cost on this machine");
    #[cfg(all(feature = "host-linux", target_os = "linux"))]
    {
        let live = sfs_host::measure_poll_cost(2_000);
        println!(
            "one status poll: {:.1} us ({} per second per monitored task at 4 ms)",
            live.as_secs_f64() * 1e6,
            250
        );
        println!(
            "implied overhead for 72 monitored tasks at 4 ms: {:.2}% of one core x 72 = {:.2}% of the machine",
            // 72 tasks * 250 polls/s * cost, relative to one core
            72.0 * 250.0 * live.as_secs_f64() * 100.0,
            72.0 * 250.0 * live.as_secs_f64() * 100.0 / 72.0
        );
    }
    #[cfg(not(all(feature = "host-linux", target_os = "linux")))]
    {
        println!(
            "skipped: build with `--features host-linux` on a Linux host to \
             measure the real /proc poll cost"
        );
    }
}
