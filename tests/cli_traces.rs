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
