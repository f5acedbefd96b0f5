//! A malformed `SFS_*` value is a usage error in every harness binary:
//! exit 2, with the variable and the value named on stderr, and no panic.
//! Each binary reads its knobs in `main` through one reader
//! (`sfs_bench::knobs`, `sfs_bench::env_knob`), so one binary per variable
//! stands for all of them.

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
