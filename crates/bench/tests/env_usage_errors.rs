//! A malformed `SFS_*` value is a usage error in every harness binary:
//! exit 2, with the variable and the value named on stderr, and no panic.
//! Each binary reads its knobs in `main` through one reader
//! (`sfs_bench::knobs`, `sfs_bench::env_knob`), so one binary per variable
//! stands for all of them. `perf_suite`'s malformed flags are usage errors
//! too, kept apart from the exit 1 of a `--check` regression.

use std::process::Command;

/// Run `bin` with `args`, the variables in `env` and `var=value`, and check
/// that it refuses `value` as a usage error naming both.
fn refuses(bin: &str, args: &[&str], env: &[(&str, &str)], var: &str, value: &str) {
    let out = Command::new(bin)
        .args(args)
        .envs(env.iter().copied())
        .env(var, value)
        .output()
        .expect("the harness starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let case = format!("{bin} with {var}={value}");
    assert_eq!(out.status.code(), Some(2), "{case} must exit 2: {stderr}");
    assert!(stderr.contains(var), "{case} names the variable: {stderr}");
    assert!(
        stderr.contains(&format!("{value:?}")),
        "{case} names the value: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{case} panicked: {stderr}");
    assert!(out.stdout.is_empty(), "{case} ran anyway");
}

/// Keeps a harness small should it run despite a malformed knob.
const SMALL: (&str, &str) = ("SFS_BENCH_REQUESTS", "50");

#[test]
fn a_figure_harness_refuses_each_malformed_scale_knob() {
    let bin = env!("CARGO_BIN_EXE_fig10_slice_timeline");
    refuses(bin, &[], &[SMALL], "SFS_BENCH_THREADS", "abc");
    refuses(bin, &[], &[SMALL], "SFS_BENCH_THREADS", "0");
    refuses(bin, &[], &[], "SFS_BENCH_REQUESTS", "abc");
    refuses(bin, &[], &[SMALL], "SFS_BENCH_SEED", "x");
}

#[test]
fn harnesses_with_a_threads_flag_refuse_a_malformed_variable_without_it() {
    for bin in [
        env!("CARGO_BIN_EXE_cluster_scale"),
        env!("CARGO_BIN_EXE_repro_all"),
    ] {
        refuses(bin, &[], &[SMALL], "SFS_BENCH_THREADS", "abc");
        refuses(bin, &["--threads", "2"], &[], "SFS_BENCH_SEED", "x");
    }
}

#[test]
fn perf_suite_refuses_malformed_scales() {
    let bin = env!("CARGO_BIN_EXE_perf_suite");
    let out = std::env::temp_dir().join(format!("perf_suite_env_{}.json", std::process::id()));
    let args = ["--out", out.to_str().expect("UTF-8 temp path")];
    let small = [
        ("SFS_PERF_REQUESTS", "50"),
        ("SFS_PERF_LARGE_REQUESTS", "50"),
    ];
    refuses(bin, &args, &small[1..], "SFS_PERF_REQUESTS", "abc");
    refuses(bin, &args, &small[..1], "SFS_PERF_LARGE_REQUESTS", "abc");
    refuses(bin, &args, &small, "SFS_BENCH_SEED", "x");
    assert!(!out.exists(), "a refused run writes no report");
}

/// Run `perf_suite` with `args` and check that it refuses them as a usage
/// error naming `flag`: exit 2 (a `--check` regression is exit 1), nothing
/// on stdout, no panic.
fn perf_suite_refuses(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_suite"))
        .args(args)
        .envs([
            ("SFS_PERF_REQUESTS", "50"),
            ("SFS_PERF_LARGE_REQUESTS", "50"),
        ])
        .output()
        .expect("perf_suite starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let case = format!("perf_suite {args:?}");
    assert_eq!(out.status.code(), Some(2), "{case} must exit 2: {stderr}");
    assert!(stderr.contains(flag), "{case} names {flag}: {stderr}");
    assert!(!stderr.contains("panicked"), "{case} panicked: {stderr}");
    assert!(out.stdout.is_empty(), "{case} ran anyway");
}

#[test]
fn perf_suite_refuses_malformed_flags() {
    perf_suite_refuses(&["--out"], "--out");
    perf_suite_refuses(&["--bogus"], "--bogus");
    perf_suite_refuses(&["--tolerance", "abc"], "--tolerance");
    perf_suite_refuses(&["--tolerance", "nan"], "--tolerance");
    perf_suite_refuses(&["--filter", "x"], "--filter");
    let out = std::env::temp_dir().join(format!("perf_suite_flag_{}.json", std::process::id()));
    let path = out.to_str().expect("UTF-8 temp path");
    perf_suite_refuses(&["--filter", "no-such-scenario", "--out", path], "--filter");
    assert!(!out.exists(), "a refused run writes no report");
}

#[test]
fn perf_suite_help_prints_the_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_suite"))
        .arg("--help")
        .output()
        .expect("perf_suite starts");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for flag in ["--out", "--check", "--tolerance", "--filter"] {
        assert!(stdout.contains(flag), "usage names {flag}: {stdout}");
    }
}
