//! The `sfs` binary over hand-written traces: sparse ids run on every
//! dispatch path, and a repeated id is a named parse error, never a panic.
//! Numeric flags outside their domain are named usage errors too.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const HEADER: &str = "id,arrival_ms,app,duration_ms,injected_io_ms\n";

/// Write `rows` under the trace header to a per-test temp file.
fn trace_file(name: &str, rows: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sfs-cli-{}-{name}.csv", std::process::id()));
    std::fs::write(&path, format!("{HEADER}{rows}")).expect("write temp trace");
    path
}

/// The three dispatch paths a trace can drive.
fn run_spellings(trace: &Path) -> Vec<(&'static str, Output)> {
    let trace = trace.to_str().expect("utf-8 temp path");
    [
        ("--sched sfs", vec!["--sched", "sfs", "--cores", "2"]),
        (
            "--cluster",
            vec!["--cluster", "hosts=2,cores=2,placement=ll"],
        ),
        ("--fleet", vec!["--fleet", "regions=2,hosts=2"]),
    ]
    .into_iter()
    .map(|(what, args)| {
        let out = Command::new(env!("CARGO_BIN_EXE_sfs"))
            .arg("run")
            .args(args)
            .args(["--trace", trace])
            .output()
            .expect("spawn sfs");
        (what, out)
    })
    .collect()
}

#[test]
fn sparse_ids_run_on_every_dispatch_path() {
    let trace = trace_file("sparse", "100,1,fib,5,\n101,2,md,8,\n102,3,sa,20,\n");
    for (what, out) in run_spellings(&trace) {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{what} failed: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    }
    std::fs::remove_file(trace).ok();
}

#[test]
fn duplicate_ids_are_a_named_error_on_every_dispatch_path() {
    let trace = trace_file("dup", "7,1,fib,5,\n8,2,fib,5,\n7,3,md,8,\n");
    for (what, out) in run_spellings(&trace) {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{what} accepted a duplicate id");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
        assert!(
            stderr.contains("line 4: duplicate id 7 (first at line 2)"),
            "{what}: error must name the line: {stderr}"
        );
    }
    std::fs::remove_file(trace).ok();
}

#[test]
fn out_of_domain_numeric_flags_are_named_errors() {
    let fleet = "regions=1,hosts=1,cores=1";
    let cluster = "hosts=1,cores=1";
    let cases: &[(&[&str], &str, &str)] = &[
        (&["run", "--requests", "5", "--load", "0"], "--load", "0"),
        (&["run", "--requests", "5", "--load", "-1"], "--load", "-1"),
        (
            &["run", "--requests", "5", "--load", "nan"],
            "--load",
            "nan",
        ),
        (
            &["run", "--requests", "5", "--load", "inf"],
            "--load",
            "inf",
        ),
        (&["run", "--requests", "5", "--cores", "0"], "--cores", "0"),
        (&["gen", "--requests", "5", "--cores", "0"], "--cores", "0"),
        (
            &["compare", "--requests", "5", "--cores", "0"],
            "--cores",
            "0",
        ),
        (&["slo", "--requests", "5", "--cores", "0"], "--cores", "0"),
        (&["run", "--requests", "0"], "--requests", "0"),
        (&["gen", "--requests", "0"], "--requests", "0"),
        (&["compare", "--requests", "0"], "--requests", "0"),
        (&["slo", "--requests", "0"], "--requests", "0"),
        (&["run", "--requests", "10000001"], "--requests", "10000001"),
        (
            &["run", "--requests", "18446744073709551615"],
            "--requests",
            "18446744073709551615",
        ),
        (
            &["gen", "--requests", "18446744073709551615"],
            "--requests",
            "18446744073709551615",
        ),
        (
            &["run", "--requests", "18446744073709551616"],
            "--requests",
            "18446744073709551616",
        ),
        (
            &["run", "--cluster", cluster, "--requests", "0"],
            "--requests",
            "0",
        ),
        (
            &["run", "--fleet", fleet, "--requests", "5", "--load", "0"],
            "--load",
            "0",
        ),
        (
            &["run", "--fleet", fleet, "--requests", "5", "--threads", "0"],
            "--threads",
            "0",
        ),
        (
            &[
                "run",
                "--cluster",
                cluster,
                "--requests",
                "5",
                "--threads",
                "0",
            ],
            "--threads",
            "0",
        ),
    ];
    for &(args, flag, value) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_sfs"))
            .args(args)
            .output()
            .expect("spawn sfs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = args.join(" ");
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag}: value `{value}`")),
            "{what}: error must name the flag and value: {stderr}"
        );
    }
}

/// A malformed `SFS_BENCH_THREADS` is a usage error naming the variable
/// and the value on the cluster and fleet paths, never a panic. `--threads`
/// beats the variable, as in the harness binaries, so with the flag the
/// variable is not read.
#[test]
fn a_malformed_thread_count_variable_is_a_named_error() {
    let cluster = ["run", "--cluster", "hosts=2,cores=2,placement=ll"];
    let fleet = ["run", "--fleet", "regions=1,hosts=2"];
    for value in ["abc", "0"] {
        let sfs = |args: &[&str], threads: Option<&str>| {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_sfs"));
            cmd.args(args).args(["--requests", "5"]);
            if let Some(t) = threads {
                cmd.args(["--threads", t]);
            }
            let out = cmd
                .env("SFS_BENCH_THREADS", value)
                .output()
                .expect("spawn sfs");
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            let what = format!("SFS_BENCH_THREADS={value} sfs {}", args.join(" "));
            assert!(!stderr.contains("panicked"), "{what}: {stderr}");
            (out.status.code(), stderr, what)
        };
        for args in [&cluster[..], &fleet[..]] {
            let (code, stderr, what) = sfs(args, None);
            assert_eq!(code, Some(2), "{what}: {stderr}");
            assert!(
                stderr.contains("SFS_BENCH_THREADS") && stderr.contains(&format!("{value:?}")),
                "{what}: error must name the variable and value: {stderr}"
            );
            let (code, stderr, what) = sfs(args, Some("2"));
            assert_eq!(code, Some(0), "{what} --threads 2: {stderr}");
        }
    }
}

/// Run `sfs` with `args` (stdout discarded), failing the test if it is
/// still running after `secs` seconds.
fn run_within(args: &[&str], secs: u64) -> (Option<i32>, String) {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_sfs"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sfs");
    let deadline = Instant::now() + Duration::from_secs(secs);
    while child.try_wait().expect("poll sfs").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("`sfs {}` still running after {secs} s", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect sfs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A load so low that generated arrivals pass the simulated-time horizon
/// is a named usage error on every subcommand that generates, never a
/// panic or a hang.
#[test]
fn a_load_that_crosses_the_horizon_is_a_named_error() {
    let cases: &[&[&str]] = &[
        &[
            "run",
            "--sched",
            "sfs",
            "--requests",
            "100",
            "--load",
            "1e-12",
        ],
        &[
            "run",
            "--sched",
            "mlfq",
            "--requests",
            "100",
            "--load",
            "1e-12",
        ],
        &["gen", "--requests", "5", "--cores", "8", "--load", "1e-12"],
        &["compare", "--requests", "100", "--load", "1e-12"],
        &["slo", "--requests", "100", "--load", "1e-12"],
    ];
    for args in cases {
        let (code, stderr) = run_within(args, 20);
        let what = args.join(" ");
        assert_eq!(code, Some(2), "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
        assert!(
            stderr.contains("--load: value `1e-12`") && stderr.contains("horizon"),
            "{what}: error must name the flag, value and horizon: {stderr}"
        );
    }
}

/// One-row traces whose arrival or demand passes the simulated-time
/// horizon are named parse errors, never a panic or a hang.
#[test]
fn traces_that_cross_the_horizon_are_named_errors() {
    let rows = [
        ("arrival", "1,18446744073709.5,fib,5,\n"),
        ("duration", "1,1,fib,1e300,\n"),
        ("injected", "1,1,fib,5,1e300\n"),
    ];
    for (name, row) in rows {
        let trace = trace_file(&format!("horizon-{name}"), row);
        let path = trace.to_str().expect("utf-8 temp path");
        let (code, stderr) = run_within(&["run", "--sched", "sfs", "--trace", path], 20);
        assert!(code.is_some_and(|c| c != 0), "{name}: accepted: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(
            stderr.contains("bad row at line 2") && stderr.contains("horizon"),
            "{name}: error must name the line and the horizon: {stderr}"
        );
        std::fs::remove_file(trace).ok();
    }
}
