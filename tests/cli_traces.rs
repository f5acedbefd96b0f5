//! The `sfs` binary over hand-written traces: sparse ids run on every
//! dispatch path, and a repeated id is a named parse error, never a panic.
//! Numeric flags outside their domain are named usage errors too. A seeded
//! corpus of traces mutated from one `sfs gen` trace, and fixed probes of
//! flags and `SFS_BENCH_THREADS`, each either run (exit 0) or fail cleanly:
//! exit 1 or 2, naming the line, flag or variable, and never a panic or an
//! allocation failure.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use sfs_repro::simcore::SimRng;

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

/// Run `sfs` with `args` and the variables `envs` (stdout discarded),
/// failing the test if it is still running after `secs` seconds.
fn run_within(args: &[&str], envs: &[(&str, &str)], secs: u64) -> (Option<i32>, String) {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_sfs"))
        .args(args)
        .envs(envs.iter().copied())
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
        let (code, stderr) = run_within(args, &[], 20);
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
        let (code, stderr) = run_within(&["run", "--sched", "sfs", "--trace", path], &[], 20);
        assert!(code.is_some_and(|c| c != 0), "{name}: accepted: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(
            stderr.contains("bad row at line 2") && stderr.contains("horizon"),
            "{name}: error must name the line and the horizon: {stderr}"
        );
        std::fs::remove_file(trace).ok();
    }
}

/// What a corpus case must do.
#[derive(Debug)]
enum Expect {
    /// Run, exit 0.
    Accept,
    /// Exit with this code, every needle on stderr.
    Reject(i32, Vec<String>),
}

/// Run one corpus case under the 20 s timeout and check it against
/// `expect`. No case may panic or fail an allocation.
fn check_case(what: &str, args: &[&str], envs: &[(&str, &str)], expect: &Expect) {
    let (code, stderr) = run_within(args, envs, 20);
    for bad in ["panicked", "memory allocation"] {
        assert!(!stderr.contains(bad), "{what}: {stderr}");
    }
    match expect {
        Expect::Accept => assert_eq!(code, Some(0), "{what}: rejected: {stderr}"),
        Expect::Reject(want, needles) => {
            assert_eq!(code, Some(*want), "{what}: {stderr}");
            for needle in needles {
                assert!(
                    stderr.contains(needle.as_str()),
                    "{what}: no {needle:?}: {stderr}"
                );
            }
        }
    }
}

/// A trace's rows as fields, and the text they make under `header`.
fn render(header: &str, rows: &[Vec<String>]) -> String {
    let body: Vec<String> = rows.iter().map(|r| r.join(",") + "\n").collect();
    format!("{header}\n{}", body.concat())
}

/// Values one mutated field takes. Each is refused in every column, as
/// unparseable, not finite, negative or past the simulated-time horizon,
/// except `""` as the optional injected I/O.
const FIELD_VALUES: [&str; 7] = [
    "",
    "abc",
    "NaN",
    "inf",
    "-1",
    "1e300",
    "18446744073709551616",
];

/// One way to break a trace.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    DropColumn,
    AddColumn,
    /// Set this column of one row to this value.
    SetField(usize, &'static str),
    SwapRows,
    RepeatId,
    CutAfterHeader,
}

/// Apply `m` to the generated trace `rows` (header at line 1, row `k` at
/// line `k + 2`), the rows and columns drawn from `rng`, and say what
/// `sfs` must do with the result.
fn mutate(m: Mutation, rng: &mut SimRng, rows: &mut Vec<Vec<String>>, path: &str) -> Expect {
    let line = |k: usize| format!("line {}", k + 2);
    let n = rows.len() as u64;
    let k = rng.uniform_u64(0, n - 1) as usize;
    match m {
        Mutation::DropColumn => {
            rows[k].remove(rng.uniform_u64(0, 4) as usize);
            Expect::Reject(1, vec![line(k)])
        }
        Mutation::AddColumn => {
            rows[k].push("7".into());
            Expect::Reject(1, vec![line(k)])
        }
        Mutation::SetField(col, v) => {
            rows[k][col] = v.into();
            // An empty injected I/O field is a request without I/O.
            if (col, v) == (4, "") {
                Expect::Accept
            } else {
                Expect::Reject(1, vec![line(k)])
            }
        }
        Mutation::SwapRows => {
            rows.swap(k, rng.uniform_u64(0, n - 1) as usize);
            let arrivals: Vec<f64> = (rows.iter())
                .map(|r| r[1].parse().expect("generated arrival"))
                .collect();
            match (1..rows.len()).find(|&p| arrivals[p] < arrivals[p - 1]) {
                Some(p) => Expect::Reject(1, vec![line(p)]),
                None => Expect::Accept,
            }
        }
        Mutation::RepeatId => {
            let j = rng.uniform_u64(1, n - 1) as usize;
            let i = rng.uniform_u64(0, j as u64 - 1) as usize;
            rows[j][0] = rows[i][0].clone();
            let why = format!(
                "{}: duplicate id {} (first at {})",
                line(j),
                rows[i][0],
                line(i)
            );
            Expect::Reject(1, vec![why])
        }
        Mutation::CutAfterHeader => {
            rows.clear();
            Expect::Reject(1, vec![path.to_string(), "no rows".to_string()])
        }
    }
}

/// Traces mutated from one valid `sfs gen` trace: every field set to every
/// value of [`FIELD_VALUES`], and four of each structural mutation, the
/// rows, columns and dispatch path drawn from a fixed-root [`SimRng`].
/// Each runs or is refused naming its line (its file when it has no rows),
/// on the single-host, compare, cluster and fleet paths.
#[test]
fn seeded_corpus_of_malformed_traces_fails_cleanly() {
    let gen = Command::new(env!("CARGO_BIN_EXE_sfs"))
        .args(["gen", "--requests", "8", "--cores", "2", "--load", "0.6"])
        .args(["--mix", "openlambda", "--seed", "11"])
        .output()
        .expect("spawn sfs gen");
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    let text = String::from_utf8(gen.stdout).expect("utf-8 trace");
    let mut lines = text.lines();
    let header = lines.next().expect("trace header");
    let base: Vec<Vec<String>> = lines
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect();
    assert_eq!(base.len(), 8);
    let paths: [&[&str]; 4] = [
        &["run", "--sched", "sfs", "--cores", "2"],
        &["compare", "--cores", "2"],
        &["run", "--cluster", "hosts=2,cores=1", "--threads", "1"],
        &[
            "run",
            "--fleet",
            "regions=2,hosts=1,cores=1",
            "--threads",
            "1",
        ],
    ];
    let trace = trace_file("corpus", "");
    let path = trace.to_str().expect("utf-8 temp path");
    std::fs::write(&trace, &text).expect("write base trace");
    for args in paths {
        let what = format!("the generated trace on {}", args.join(" "));
        check_case(
            &what,
            &[args, &["--trace", path]].concat(),
            &[],
            &Expect::Accept,
        );
    }
    let mut mutations: Vec<Mutation> = (0..5)
        .flat_map(|col| FIELD_VALUES.map(|v| Mutation::SetField(col, v)))
        .collect();
    for _ in 0..4 {
        mutations.extend([
            Mutation::DropColumn,
            Mutation::AddColumn,
            Mutation::SwapRows,
            Mutation::RepeatId,
            Mutation::CutAfterHeader,
        ]);
    }
    let mut rng = SimRng::seed_from_u64(0xC0_4705);
    for (case, m) in mutations.into_iter().enumerate() {
        let mut rows = base.clone();
        let expect = mutate(m, &mut rng, &mut rows, path);
        std::fs::write(&trace, render(header, &rows)).expect("write mutated trace");
        let args = paths[rng.uniform_u64(0, paths.len() as u64 - 1) as usize];
        let what = format!("case {case} ({m:?}) on {}", args.join(" "));
        check_case(&what, &[args, &["--trace", path]].concat(), &[], &expect);
    }
    std::fs::remove_file(trace).ok();
}

/// Every probe of a trace field, a flag, a topology and `SFS_BENCH_THREADS`
/// that once ran silently, panicked or aborted: each now exits 1 or 2
/// naming its input.
#[test]
fn probes_of_flags_traces_and_variables_fail_cleanly() {
    let reject = |code: i32, needles: &[&str]| {
        Expect::Reject(code, needles.iter().map(|n| n.to_string()).collect())
    };
    let empty = trace_file("probe-empty", "");
    let negative_arrival = trace_file("probe-arrival", "1,-1,fib,5,\n");
    let negative_io = trace_file("probe-io", "1,1,fib,5,-3\n");
    let [empty_p, arrival_p, io_p] =
        [&empty, &negative_arrival, &negative_io].map(|p| p.to_str().expect("utf-8 temp path"));
    let few = ["--requests", "3"];
    let cases: Vec<(Vec<&str>, Expect)> = vec![
        (
            vec!["compare", "--trace", empty_p],
            reject(1, &[empty_p, "no rows"]),
        ),
        (
            vec!["run", "--trace", empty_p],
            reject(1, &[empty_p, "no rows"]),
        ),
        (
            vec!["run", "--trace", arrival_p],
            reject(1, &["line 2: arrival must not be negative"]),
        ),
        (
            vec!["run", "--trace", io_p],
            reject(1, &["line 2: injected io must be positive"]),
        ),
        (
            [&["run", "--core", "2"][..], &few].concat(),
            reject(2, &["--core"]),
        ),
        (
            [&["run", "--deadline", "-1"][..], &few].concat(),
            reject(2, &["--deadline"]),
        ),
        (
            [&["run", "--io", "2"][..], &few].concat(),
            reject(2, &["--io"]),
        ),
        (
            [&["run", "--mix", "bogus"][..], &few].concat(),
            reject(2, &["--mix", "bogus"]),
        ),
        (
            [&["gen", "--mix", "bogus"][..], &few].concat(),
            reject(2, &["--mix", "bogus"]),
        ),
        (
            [&["gen", "--mix", "fib"][..], &few].concat(),
            Expect::Accept,
        ),
        (
            [&["gen", "--threads", "2"][..], &few].concat(),
            reject(2, &["--threads"]),
        ),
        (
            [&["compare", "--gantt"][..], &few].concat(),
            reject(2, &["--gantt"]),
        ),
        (
            [&["slo", "--sched", "cfs"][..], &few].concat(),
            reject(2, &["--sched"]),
        ),
        (
            [&["run", "--cluster", "hosts=2", "--cores", "4"][..], &few].concat(),
            reject(2, &["--cores"]),
        ),
        (
            [&["run", "--fleet", "regions=1", "--gantt"][..], &few].concat(),
            reject(2, &["--gantt"]),
        ),
        (
            [&["run", "--cores", "2", "--cores", "4"][..], &few].concat(),
            reject(2, &["--cores"]),
        ),
        (
            [&["run", "--cores", "99999999"][..], &few].concat(),
            reject(2, &["--cores", "99999999"]),
        ),
        (
            [&["run", "--cluster", "hosts=99999999"][..], &few].concat(),
            reject(2, &["--cluster", "99999999"]),
        ),
        (
            [&["run", "--cluster", "cores=99999999"][..], &few].concat(),
            reject(2, &["--cluster", "99999999"]),
        ),
        (
            [&["run", "--fleet", "hosts=99999999"][..], &few].concat(),
            reject(2, &["--fleet", "99999999"]),
        ),
        (
            [&["run", "--fleet", "regions=99999999"][..], &few].concat(),
            reject(2, &["--fleet", "99999999"]),
        ),
    ];
    for (args, expect) in &cases {
        check_case(&args.join(" "), args, &[], expect);
    }
    let cluster = ["run", "--cluster", "hosts=2,cores=1", "--requests", "3"];
    for value in ["", "-1", "1.5", " 2", "2x", "18446744073709551616"] {
        let what = format!("SFS_BENCH_THREADS={value:?} sfs {}", cluster.join(" "));
        let expect = reject(2, &["SFS_BENCH_THREADS", &format!("{value:?}")]);
        check_case(&what, &cluster, &[("SFS_BENCH_THREADS", value)], &expect);
    }
    for p in [empty, negative_arrival, negative_io] {
        std::fs::remove_file(p).ok();
    }
}
