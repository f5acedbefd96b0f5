//! # sfs-bench — per-figure/table reproduction harnesses
//!
//! One binary per figure and table of the paper's evaluation (see
//! DESIGN.md §4 for the full index). Every binary:
//!
//! 1. describes the experiment as [`sweep::Scenario`]s and runs them on a
//!    [`sweep::Sweep`] — in parallel, with bit-identical results for any
//!    worker-thread count,
//! 2. prints the figure's series as markdown + an ASCII chart,
//! 3. writes CSV under `results/`.
//!
//! Scale knobs come from the environment so CI and laptops can downsize:
//! `SFS_BENCH_REQUESTS` (default figure-specific), `SFS_BENCH_SEED`,
//! `SFS_BENCH_THREADS` (wall-clock only — never the numbers).

#![warn(missing_docs)]

pub mod perf;
pub mod sweep;
pub mod timebench;

pub use sweep::{Scenario, Sweep, SweepResult, Trial};

use sfs_core::{ControllerFactory, RequestOutcome, RunOutcome, SfsConfig, SfsController, Sim};
use sfs_sched::MachineParams;
use sfs_simcore::SimDuration;
use sfs_workload::Workload;

/// Run `w` under SFS (`cfg`) on a default Linux machine with `cores`
/// cores — the shared harness glue for every figure binary.
pub fn run_sfs(cfg: SfsConfig, cores: usize, w: &Workload) -> RunOutcome {
    Sim::on(MachineParams::linux(cores))
        .workload(w)
        .controller(SfsController::new(cfg))
        .run()
}

/// Run `w` under any controller recipe (a [`sfs_core::Baseline`], an
/// [`SfsConfig`], or a custom factory) on `cores` cores.
pub fn run_factory(f: &dyn ControllerFactory, cores: usize, w: &Workload) -> RunOutcome {
    f.run_on(cores, w)
}

/// Parse a scale-knob override, treating an unparsable value as a hard
/// error instead of silently running the default scale. `value` is the raw
/// environment value (`None` = unset → `default`); `name` is only for the
/// error message. Pure in its inputs so tests never race on process-global
/// environment state.
pub fn parse_env_override<T: std::str::FromStr>(name: &str, value: Option<&str>, default: T) -> T {
    let what = format!("a valid {}", std::any::type_name::<T>());
    sfs_simcore::env::parse_override(name, value, default, &what, |_| true)
}

/// Number of requests for a harness, overridable via `SFS_BENCH_REQUESTS`.
/// A malformed override aborts (so a typo can't silently run — and report —
/// the default scale).
pub fn n_requests(default: usize) -> usize {
    let v = std::env::var("SFS_BENCH_REQUESTS").ok();
    parse_env_override("SFS_BENCH_REQUESTS", v.as_deref(), default)
}

/// Experiment seed, overridable via `SFS_BENCH_SEED`. A malformed override
/// aborts rather than silently pinning the default seed.
pub fn seed() -> u64 {
    let v = std::env::var("SFS_BENCH_SEED").ok();
    parse_env_override("SFS_BENCH_SEED", v.as_deref(), 0x5F5_2022)
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where unavailable. The large-run perf
/// scenario prints this so BENCH entries carry a peak-memory note proving
/// streaming runs stay O(1) in request count.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            // Format: "VmHWM:      123456 kB"
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Turnaround values (ms) of a run.
pub fn turnarounds_ms(outcomes: &[RequestOutcome]) -> Vec<f64> {
    outcomes
        .iter()
        .map(|o| o.turnaround.as_millis_f64())
        .collect()
}

/// RTE values of a run.
pub fn rtes(outcomes: &[RequestOutcome]) -> Vec<f64> {
    outcomes.iter().map(|o| o.rte).collect()
}

/// Split turnarounds into (short, long) by ideal duration at the paper's
/// 1550 ms Table-I boundary.
pub fn split_short_long(outcomes: &[RequestOutcome]) -> (Vec<f64>, Vec<f64>) {
    let thr = SimDuration::from_millis(1550);
    let mut short = Vec::new();
    let mut long = Vec::new();
    for o in outcomes {
        if o.ideal < thr {
            short.push(o.turnaround.as_millis_f64());
        } else {
            long.push(o.turnaround.as_millis_f64());
        }
    }
    (short, long)
}

/// Standard banner every harness prints.
pub fn banner(figure: &str, what: &str, n: usize, seed: u64) {
    println!("== {figure}: {what}");
    println!("   requests={n} seed={seed:#x} (SFS_BENCH_REQUESTS / SFS_BENCH_SEED to override)");
    println!();
}

/// Print a section header.
pub fn section(title: &str) {
    println!("\n--- {title} ---");
}

/// Save CSV via sfs-metrics and report the path.
pub fn save(filename: &str, contents: &str) {
    match sfs_metrics::write_results(filename, contents) {
        Ok(p) => println!("[saved {}]", p.display()),
        Err(e) => eprintln!("[warn] could not save {filename}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_simcore::SimTime;

    fn outcome(ideal_ms: u64, turn_ms: u64) -> RequestOutcome {
        RequestOutcome {
            id: 0,
            arrival: SimTime::ZERO,
            finished: SimTime::ZERO + SimDuration::from_millis(turn_ms),
            turnaround: SimDuration::from_millis(turn_ms),
            ideal: SimDuration::from_millis(ideal_ms),
            cpu_demand: SimDuration::from_millis(ideal_ms),
            rte: ideal_ms as f64 / turn_ms as f64,
            ctx_switches: 0,
            migrations: 0,
            queue_delay: SimDuration::ZERO,
            demoted: false,
            offloaded: false,
            filter_rounds: 0,
            io_blocks: 0,
        }
    }

    #[test]
    fn split_uses_table1_boundary() {
        let outs = vec![
            outcome(100, 200),
            outcome(1549, 2000),
            outcome(1550, 1600),
            outcome(3000, 3000),
        ];
        let (s, l) = split_short_long(&outs);
        assert_eq!(s.len(), 2);
        assert_eq!(l.len(), 2);
        assert_eq!(s, vec![200.0, 2000.0]);
    }

    #[test]
    fn env_overrides_parse() {
        // No env set in tests: defaults pass through.
        assert_eq!(n_requests(1234), 1234);
        assert_eq!(seed(), 0x5F5_2022);
    }

    #[test]
    fn env_overrides_accept_valid_values() {
        assert_eq!(
            parse_env_override("SFS_BENCH_REQUESTS", Some("5000"), 1234usize),
            5000
        );
        assert_eq!(
            parse_env_override("SFS_BENCH_SEED", Some("42"), 0x5F5_2022u64),
            42
        );
        assert_eq!(parse_env_override("SFS_BENCH_SEED", None, 7u64), 7);
    }

    #[test]
    fn malformed_requests_override_is_a_hard_error() {
        // Regression: "20O0" (typo'd zero) used to silently run — and
        // banner — the default scale.
        let err = std::panic::catch_unwind(|| {
            parse_env_override("SFS_BENCH_REQUESTS", Some("20O0"), 2000usize)
        })
        .expect_err("malformed SFS_BENCH_REQUESTS must abort");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(
            msg.contains("SFS_BENCH_REQUESTS"),
            "names the variable: {msg}"
        );
        assert!(msg.contains("20O0"), "names the bad value: {msg}");
    }

    #[test]
    fn malformed_seed_override_is_a_hard_error() {
        let err =
            std::panic::catch_unwind(|| parse_env_override("SFS_BENCH_SEED", Some("0xlol"), 0u64))
                .expect_err("malformed SFS_BENCH_SEED must abort");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("SFS_BENCH_SEED"), "names the variable: {msg}");
        assert!(msg.contains("0xlol"), "names the bad value: {msg}");
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            let bytes = rss.expect("VmHWM should parse on linux");
            // A running test process has at least a megabyte resident.
            assert!(bytes > 1 << 20, "implausible peak RSS {bytes}");
        }
    }

    #[test]
    fn extractors_match_fields() {
        let outs = vec![outcome(10, 20), outcome(30, 30)];
        assert_eq!(turnarounds_ms(&outs), vec![20.0, 30.0]);
        assert_eq!(rtes(&outs), vec![0.5, 1.0]);
    }
}
