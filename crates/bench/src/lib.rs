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
//! `SFS_BENCH_THREADS` (wall-clock only — never the numbers). Each binary
//! reads them in `main` ([`knobs`]) and exits 2 naming a malformed one.

#![warn(missing_docs)]

pub mod perf;
pub mod sweep;
pub mod timebench;

pub use sweep::{Scenario, Sweep, SweepResult, Trial};

use sfs_core::RequestOutcome;

/// Seed of every harness unless `SFS_BENCH_SEED` overrides it.
pub const DEFAULT_SEED: u64 = 0x5F5_2022;

/// The rule for a scale knob: `raw`, the setting of the variable `name` as
/// [`std::env::var`] reads it, as any `T` that parses (`default` when
/// unset), else the message naming `name` and the value. Pure in its
/// inputs, so tests never race on the process environment.
pub fn parse_env_override<T: std::str::FromStr>(
    name: &str,
    raw: Result<String, std::env::VarError>,
    default: T,
) -> Result<T, String> {
    let what = format!("a valid {}", std::any::type_name::<T>());
    sfs_simcore::env::parse_override(name, raw, default, &what, |_| true)
}

/// [`parse_env_override`] of the variable `name` in this process's
/// environment.
pub fn env_knob<T: std::str::FromStr>(name: &str, default: T) -> Result<T, String> {
    parse_env_override(name, std::env::var(name), default)
}

/// A harness's scale as `(requests, seed, threads)`: `SFS_BENCH_REQUESTS`
/// (else `requests`), `SFS_BENCH_SEED` (else [`DEFAULT_SEED`]) and the
/// sweep worker count — `threads` from a `--threads` flag, which beats
/// `SFS_BENCH_THREADS` (then not read), which beats the available
/// parallelism; threads buy wall-clock only, never the numbers. A harness
/// reads it in `main`, and a malformed value exits 2 naming the variable
/// and the value ([`usage_exit`]).
pub fn knobs(requests: usize, threads: Option<usize>) -> (usize, u64, usize) {
    let read = || -> Result<_, String> {
        Ok((
            env_knob("SFS_BENCH_REQUESTS", requests)?,
            env_knob("SFS_BENCH_SEED", DEFAULT_SEED)?,
            threads.map_or_else(sfs_simcore::parallel::try_default_threads, Ok)?,
        ))
    };
    read().unwrap_or_else(|e| usage_exit(&e))
}

/// Exit 2 with `msg` on stderr: how a harness reports a malformed flag or
/// `SFS_*` value, as the `sfs` CLI does.
pub fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// The `--threads N` (or `-t N`) flag of a harness whose only argument it
/// is; `--help` prints the usage, naming `what` the threads run, and exits
/// 0. A malformed or unknown argument exits 2 naming it.
pub fn threads_flag(program: &str, what: &str) -> Option<usize> {
    let mut args = std::env::args().skip(1);
    let mut threads = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" | "-t" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<usize>() {
                    Ok(t) if t >= 1 => threads = Some(t),
                    _ => usage_exit(&format!(
                        "{program}: --threads needs a positive integer, got {v:?}"
                    )),
                }
            }
            "--help" | "-h" => {
                println!("usage: {program} [--threads N]");
                println!("  --threads N   {what} (default: autodetect)");
                std::process::exit(0);
            }
            other => usage_exit(&format!(
                "{program}: unknown argument {other:?} (try --help)"
            )),
        }
    }
    threads
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
/// Table-I boundary ([`RequestOutcome::is_long`]).
pub fn split_short_long(outcomes: &[RequestOutcome]) -> (Vec<f64>, Vec<f64>) {
    let mut short = Vec::new();
    let mut long = Vec::new();
    for o in outcomes {
        if o.is_long() {
            long.push(o.turnaround.as_millis_f64());
        } else {
            short.push(o.turnaround.as_millis_f64());
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
    use sfs_simcore::{SimDuration, SimTime};

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
        // No env set in tests: defaults pass through, and a --threads
        // value stands in for SFS_BENCH_THREADS.
        assert_eq!(knobs(1234, Some(3)), (1234, DEFAULT_SEED, 3));
    }

    fn set(v: &str) -> Result<String, std::env::VarError> {
        Ok(v.to_string())
    }

    #[test]
    fn env_overrides_accept_valid_values() {
        assert_eq!(
            parse_env_override("SFS_BENCH_REQUESTS", set("5000"), 1234usize),
            Ok(5000)
        );
        assert_eq!(
            parse_env_override("SFS_BENCH_SEED", set("42"), DEFAULT_SEED),
            Ok(42)
        );
        let unset = Err(std::env::VarError::NotPresent);
        assert_eq!(parse_env_override("SFS_BENCH_SEED", unset, 7u64), Ok(7));
    }

    #[test]
    fn malformed_requests_override_is_a_hard_error() {
        // Regression: "20O0" (typo'd zero) used to silently run — and
        // banner — the default scale.
        let msg = parse_env_override("SFS_BENCH_REQUESTS", set("20O0"), 2000usize)
            .expect_err("malformed SFS_BENCH_REQUESTS must be refused");
        assert!(
            msg.contains("SFS_BENCH_REQUESTS"),
            "names the variable: {msg}"
        );
        assert!(msg.contains("20O0"), "names the bad value: {msg}");
    }

    #[test]
    fn malformed_seed_override_is_a_hard_error() {
        let msg = parse_env_override("SFS_BENCH_SEED", set("0xlol"), 0u64)
            .expect_err("malformed SFS_BENCH_SEED must be refused");
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
