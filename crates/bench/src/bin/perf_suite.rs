//! `perf_suite` — the machine-readable performance trajectory.
//!
//! Runs the fixed perf scenario matrix (`sfs_bench::perf::suite`): the
//! end-to-end simulations (SFS / CFS / 4-host cluster / azure replay /
//! SFS on the SMP-enabled machine) at a pinned seed and request count,
//! plus the hot-loop microbenchmarks (CFS pick, SFS dispatch, SMP balance
//! tick). Prints a human table and writes the schema-versioned
//! `BENCH_sim.json`.
//!
//! ```text
//! perf_suite [--out PATH] [--check BASELINE.json] [--tolerance RATIO]
//!            [--filter SUBSTR]
//! ```
//!
//! * `--out` — where to write the JSON report (default `BENCH_sim.json`).
//! * `--check` — additionally diff this run against a baseline report and
//!   exit non-zero if any scenario's median regressed past the band.
//! * `--tolerance` — the band for `--check` as a ratio (default 2.0; CI
//!   uses the default wide band, the strict local workflow uses ~1.15).
//! * `--filter` — run only scenarios whose name contains the substring
//!   (a filtered run still writes JSON, so it can seed focused diffs). It
//!   requires an explicit `--out`: a partial report must never replace the
//!   full default `BENCH_sim.json`.
//!
//! Scale: `SFS_PERF_REQUESTS` (default 2000) sizes the `sim/` scenarios;
//! `SFS_BENCH_SEED` pins the workloads. Microbenchmarks are fixed-size so
//! their numbers are comparable across scales.

use std::process::ExitCode;

use sfs_bench::perf::{self, BenchReport};
use sfs_bench::timebench::fmt_ns;

/// `SFS_PERF_REQUESTS`, `SFS_PERF_LARGE_REQUESTS` and `SFS_BENCH_SEED`, or
/// the message naming a malformed one.
fn scale() -> Result<(usize, usize, u64), String> {
    Ok((
        sfs_bench::env_knob("SFS_PERF_REQUESTS", 2_000)?,
        sfs_bench::env_knob("SFS_PERF_LARGE_REQUESTS", perf::LARGE_REQUESTS)?,
        sfs_bench::env_knob("SFS_BENCH_SEED", sfs_bench::DEFAULT_SEED)?,
    ))
}

struct Args {
    out: String,
    check: Option<String>,
    tolerance: f64,
    filter: Option<String>,
}

/// Parse the arguments after the program name.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = None;
    let mut args = Args {
        out: String::new(),
        check: None,
        tolerance: 2.0,
        filter: None,
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--out" => out = Some(value("--out")?),
            "--check" => args.check = Some(value("--check")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
                if args.tolerance < 1.0 {
                    return Err("--tolerance is a ratio >= 1.0".into());
                }
            }
            "--filter" => args.filter = Some(value("--filter")?),
            other => return Err(format!("unknown argument {other:?} (see --help in docs)")),
        }
    }
    args.out = match (out, &args.filter) {
        (Some(out), _) => out,
        (None, None) => "BENCH_sim.json".to_string(),
        (None, Some(_)) => {
            return Err("--filter writes a partial report: pass --out PATH as well \
                        (the default BENCH_sim.json holds the full suite)"
                .into())
        }
    };
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (n, large, seed) = scale().unwrap_or_else(|e| sfs_bench::usage_exit(&e));
    println!("== perf_suite: simulator performance matrix");
    println!("   requests={n} seed={seed:#x} (SFS_PERF_REQUESTS / SFS_BENCH_SEED to override)");
    println!("   large-run scale={large} (SFS_PERF_LARGE_REQUESTS to override)");
    println!();
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>16}",
        "scenario", "median/item", "p10", "p90", "throughput"
    );

    let mut scenarios = perf::suite(n, large, seed);
    if let Some(ref pat) = args.filter {
        scenarios.retain(|s| s.name.contains(pat.as_str()));
        if scenarios.is_empty() {
            eprintln!("perf_suite: no scenario matches filter {pat:?}");
            return ExitCode::FAILURE;
        }
    }
    let report = perf::run_suite(scenarios, n, seed, |name, rec| {
        println!(
            "{:<24} {:>12} {:>12} {:>12} {:>13.0}/s",
            name,
            fmt_ns(rec.median_ns_per_req),
            fmt_ns(rec.p10_ns_per_req),
            fmt_ns(rec.p90_ns_per_req),
            rec.throughput_rps,
        );
    });

    if let Some(bytes) = sfs_bench::peak_rss_bytes() {
        // Peak-memory note: the whole matrix, the streaming large-run
        // scenario included, inside one process high-water mark.
        println!(
            "\npeak RSS {:.1} MiB (VmHWM, whole suite incl. sim/sfs_azure_10m)",
            bytes as f64 / (1024.0 * 1024.0)
        );
    }

    match std::fs::write(&args.out, report.to_json()) {
        Ok(()) => println!("\n[saved {}]", args.out),
        Err(e) => {
            eprintln!("perf_suite: cannot write {}: {e}", args.out);
            return ExitCode::FAILURE;
        }
    }

    if let Some(ref baseline_path) = args.check {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perf_suite: cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match BenchReport::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("perf_suite: bad baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if baseline.requests != report.requests {
            println!(
                "[note] baseline ran at requests={}, this run at {} — \
                 sim/ scenarios are compared across scales",
                baseline.requests, report.requests
            );
        }
        if baseline.seed != report.seed {
            println!(
                "[note] baseline ran at seed={}, this run at {} — \
                 sim/ scenarios are compared across different workloads",
                baseline.seed, report.seed
            );
        }
        println!(
            "\n-- check vs {baseline_path} (band {:.2}x) --",
            args.tolerance
        );
        let cmp = perf::compare(&report, &baseline, args.tolerance);
        for line in &cmp.lines {
            println!("{line}");
        }
        if !cmp.regressions.is_empty() {
            eprintln!("\nperf regressions past the {:.2}x band:", args.tolerance);
            for r in &cmp.regressions {
                eprintln!("  {r}");
            }
            return ExitCode::FAILURE;
        }
        println!("\nno regression past the {:.2}x band", args.tolerance);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn filter_without_out_is_an_error_naming_both_flags() {
        let err = parse(&["--filter", "sim/"])
            .err()
            .expect("must be rejected");
        assert!(err.contains("--filter") && err.contains("--out"), "{err}");
    }

    #[test]
    fn out_defaults_only_for_the_full_suite() {
        assert_eq!(parse(&[]).unwrap().out, "BENCH_sim.json");
        let a = parse(&["--filter", "sim/", "--out", "partial.json"]).unwrap();
        assert_eq!(
            (a.out.as_str(), a.filter.as_deref()),
            ("partial.json", Some("sim/"))
        );
        let a = parse(&["--out", "x.json", "--filter", "micro/"]).unwrap();
        assert_eq!(a.out, "x.json", "flag order does not matter");
    }
}
