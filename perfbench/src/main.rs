//! `perfbench`: the repository benchmark. It drives the simulator only
//! through its public API, one simulation at a time on one thread.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload per process, so `peak_rss_mib` is that workload's alone;
//! `--workload all` (the default) re-runs this binary once per workload.
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics untraced, or with
//! `--trace 1` the per-layer metrics of separate traced runs. Any failed
//! output check prints `"correct": false` and exits 1. Host times are
//! rescaled to a reference host speed (see `calib`). METRICS.md maps each
//! metric to its layer and to the end-to-end metric it should move.

mod calib;
mod clock;
mod trace;
mod workloads;

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use calib::Speed;
use clock::Clock;
use trace::{Breakdown, Hook, Recorder, Span, Trace};
use workloads::{Kind, Run, Setup};

/// Workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 20_221_114;
/// The run length `BENCHMARK.json` gates at; shorter runs spread wider.
const DEFAULT_SECONDS: u64 = 40;

/// Before every measured run the workload is set up afresh, again and
/// again until this long has passed, and the slice's mean set-up time is
/// one `setup_s` sample. A stream set-up lasts under a microsecond, so a
/// single one would time little but the clock; a materialised one ~25 ms.
const SETUP_SLICE_NS: u64 = 100_000_000;

/// Fewest measured repetitions per mode, whatever `--seconds` says.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed `{v}` is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|&s| (1..=3600).contains(&s))
                    .ok_or_else(|| format!("--seconds `{v}` is not a whole number in 1..=3600"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace `{v}` is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload != "all" && Kind::parse(&args.workload).is_none() {
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        return Err(format!(
            "unknown workload `{}` (expected all or one of {})",
            args.workload,
            names.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let ok = match Kind::parse(&args.workload) {
        Some(kind) => run_workload(kind, &args),
        None => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// How a run aggregates repeated host-time samples, each already rescaled
/// to reference speed.
fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Set workload `kind` up — at least once, and again until
/// `SETUP_SLICE_NS` has passed — and return the last set-up with the
/// slice's mean set-up and `generate()` times in nanoseconds. Each earlier
/// set-up is dropped, untimed, before the next starts, so memory holds one
/// workload at a time.
fn set_up(kind: Kind, seed: u64, clock: &Clock) -> (Setup, f64, f64) {
    let start = clock.now_ns();
    let (mut n, mut setup_ns, mut gen_ns) = (0u64, 0u64, 0u64);
    let mut last = None;
    loop {
        drop(last.take());
        let t0 = clock.now_ns();
        let (s, g) = Setup::new(kind, seed, clock);
        let t1 = clock.now_ns();
        n += 1;
        setup_ns += t1 - t0;
        gen_ns += g;
        last = Some(s);
        if t1 - start >= SETUP_SLICE_NS {
            let n = n as f64;
            let s = last.expect("set up above");
            return (s, setup_ns as f64 / n, gen_ns as f64 / n);
        }
    }
}

/// One traced repetition: its outputs, trace, per-layer split, the
/// set-up slice's mean `generate()` time, and its speed factor.
struct Traced {
    run: Run,
    trace: Trace,
    breakdown: Breakdown,
    generate_ns: f64,
    factor: f64,
}

/// Measure one workload in this process and print its result line.
fn run_workload(kind: Kind, args: &Args) -> bool {
    let clock = Clock::new();
    let mut problems: Vec<String> = Vec::new();

    // The first set-up and run warm caches and the allocator and are not
    // measured; the run's outputs are the reference every later run must
    // reproduce. Peak memory is read here, after one set-up and one run:
    // later set-ups and repetitions add only allocator drift, which grows
    // with how many fit in --seconds.
    let reference = Setup::new(kind, args.seed, &clock).0.run(&clock);
    let peak_rss_mib = clock::peak_rss_mib().unwrap_or(f64::NAN);
    let offered = reference.offered;
    problems.extend(reference.problems.iter().cloned());
    let mut attempted = offered;
    let mut failed = offered - reference.served;
    let mut record = |run: &Run, what: &str, problems: &mut Vec<String>| {
        attempted += run.offered;
        failed += run.offered - run.served;
        problems.extend(run.problems.iter().cloned());
        if run.digest != reference.digest {
            problems.push(format!(
                "{what} run digest {:#018x} differs from the first run's {:#018x}",
                run.digest, reference.digest
            ));
        }
    };

    // Measured repetitions, each a fresh set-up slice then a run (with
    // --trace 1 an untraced and a traced one), until the next would take
    // the process, warm-up included, past --seconds. The calibration loop
    // is read before the first and after every run; each set-up slice and
    // run is rescaled by the readings either side of it.
    let budget_ns = args.seconds * 1_000_000_000;
    let mut speed = Speed::new(clock);
    let mut untraced_ns = Vec::new();
    let mut raw_ns = Vec::new();
    let mut setup_ns = Vec::new();
    // Traced runs keep their counters and breakdown; only the first keeps
    // its spans, which are written out at the end.
    let mut traced: Vec<Traced> = Vec::new();
    let mut first_spans: Vec<Span> = Vec::new();
    let start_timer_ns = if args.trace {
        trace::empty_span_ns(&clock, 100_000)
    } else {
        0.0
    };
    let mut last_rep_ns = 0;
    loop {
        let enough = untraced_ns.len() >= MIN_REPS && (!args.trace || traced.len() >= MIN_REPS);
        if enough && clock.now_ns() + last_rep_ns > budget_ns {
            break;
        }
        let rep_start = clock.now_ns();
        let (setup, slice_ns, _) = set_up(kind, args.seed, &clock);
        let run = setup.run(&clock);
        let factor = speed.factor();
        record(&run, "untraced", &mut problems);
        raw_ns.push(run.wall_ns as f64);
        untraced_ns.push(run.wall_ns as f64 * factor);
        setup_ns.push(slice_ns * factor);
        if args.trace {
            let rec = Recorder::new(clock, args.seed ^ traced.len() as u64);
            let (setup, _, generate_ns) = set_up(kind, args.seed, &clock);
            let (run, mut trace) = setup.run_traced(rec);
            let factor = speed.factor();
            record(&run, "traced", &mut problems);
            let breakdown = trace.breakdown();
            let spans = std::mem::take(&mut trace.spans);
            if traced.is_empty() {
                first_spans = spans;
            }
            traced.push(Traced {
                run,
                trace,
                breakdown,
                generate_ns,
                factor,
            });
        }
        last_rep_ns = clock.now_ns() - rep_start;
    }

    let metrics = if args.trace {
        let first = &traced[0].trace;
        for t in traced[1..].iter().map(|t| &t.trace) {
            if (t.calls, t.notes, t.counts) != (first.calls, first.notes, first.counts) {
                problems.push("traced runs disagree on deterministic counts".into());
            }
        }
        let traced_ns = median(
            traced
                .iter()
                .map(|t| t.run.wall_ns as f64 * t.factor)
                .collect(),
        );
        let overhead = traced_ns / median(untraced_ns.clone()) - 1.0;
        let per_run: Vec<Vec<Metric>> = traced
            .iter()
            .map(|t| layer_metrics(kind, t, overhead))
            .collect();
        report_breakdown(kind, &traced, start_timer_ns);
        write_spans(kind, args.seed, reference.digest, first, &first_spans);
        let mut metrics: Vec<Metric> = (0..per_run[0].len())
            .map(|i| {
                let m = &per_run[0][i];
                metric(
                    m.name.clone(),
                    median(per_run.iter().map(|ms| ms[i].value).collect()),
                    m.unit,
                )
            })
            .collect();
        metrics.extend([
            metric(
                "host.wall_ns_per_req",
                median(raw_ns.clone()) / offered as f64,
                "ns",
            ),
            metric("host.calib_ns", median(speed.readings().to_vec()), "ns"),
        ]);
        metrics
    } else {
        let per_req: Vec<f64> = untraced_ns.iter().map(|ns| ns / offered as f64).collect();
        vec![
            metric("ns_per_req", median(per_req), "ns"),
            metric("setup_s", median(setup_ns) / 1e9, "s"),
            metric("peak_rss_mib", peak_rss_mib, "MiB"),
            metric(
                "served_frac",
                reference.served as f64 / offered as f64,
                "fraction",
            ),
            metric("sim_p50_ms", reference.p50_ms, "ms"),
            metric("sim_p99_ms", reference.p99_ms, "ms"),
            metric("sim_short_p99_ms", reference.short_p99_ms, "ms"),
            metric("sim_rte95_frac", reference.rte95_frac, "fraction"),
        ]
    };
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} is not a finite number", m.name));
        }
    }

    eprintln!(
        "perfbench {}: seed {} digest {:#018x}, {} untraced + {} traced runs",
        kind.name(),
        args.seed,
        reference.digest,
        untraced_ns.len(),
        traced.len()
    );
    for (what, ns) in [("rescaled", &untraced_ns), ("wall-clock", &raw_ns)] {
        let per_req: Vec<String> = ns
            .iter()
            .map(|ns| format!("{:.0}", ns / offered as f64))
            .collect();
        eprintln!(
            "perfbench {}: untraced ns/req by run, {what}: {}",
            kind.name(),
            per_req.join(" ")
        );
    }
    for p in &problems {
        eprintln!("perfbench {}: CHECK FAILED: {p}", kind.name());
    }
    for m in &metrics {
        println!("{:<20} {:<44} {} {}", kind.name(), m.name, m.value, m.unit);
    }
    println!(
        "{}",
        json_line(problems.is_empty(), attempted, failed, &metrics)
    );
    problems.is_empty()
}

/// The per-layer metrics of one traced run. Layers a workload does not
/// have report 0. `overhead` compares traced and untraced runs. Every
/// metric in `ns` is a host time and is rescaled by the run's factor.
fn layer_metrics(kind: Kind, traced: &Traced, overhead: f64) -> Vec<Metric> {
    let (run, t, b) = (&traced.run, &traced.trace, &traced.breakdown);
    let n = run.offered as f64;
    let steps = t.calls(Hook::OnWakeup) as f64;
    let stream = kind == Kind::AzureStream;
    let fleet = kind == Kind::FleetFaults;
    let cluster = kind == Kind::ClusterCfs;
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    let c = t.counts;
    let d = run.dispatch;
    let mut m = vec![
        metric(
            "workload.ns_per_req",
            if stream {
                t.total_ns(Hook::Next) / n
            } else {
                traced.generate_ns / n
            },
            "ns",
        ),
        metric("sim.steps_per_req", steps / n, "count/req"),
        metric("sim.self_ns_per_req", b.sim_self_ns / n, "ns"),
        metric("sim.ns_per_step", b.sim_self_ns / steps.max(1.0), "ns"),
        metric("controller.ns_per_req", b.controller_ns() / n, "ns"),
    ];
    for h in [
        Hook::OnArrival,
        Hook::OnNotification,
        Hook::NextWakeup,
        Hook::OnWakeup,
        Hook::Annotate,
    ] {
        m.push(metric(
            format!("{}.calls_per_req", h.name()),
            t.calls(h) as f64 / n,
            "count/req",
        ));
    }
    for h in [
        Hook::OnArrival,
        Hook::OnNotification,
        Hook::OnWakeup,
        Hook::Annotate,
    ] {
        m.push(metric(
            format!("{}.ns_per_call", h.name()),
            t.ns_per_call(h),
            "ns",
        ));
    }
    m.extend([
        metric("controller.polls_per_req", c.polls as f64 / n, "count/req"),
        metric(
            "controller.polled_tasks_per_req",
            c.polled_tasks as f64 / n,
            "count/req",
        ),
        metric(
            "controller.sched_actions_per_req",
            c.sched_actions as f64 / n,
            "count/req",
        ),
        metric(
            "controller.offloaded_frac",
            c.offloaded as f64 / n,
            "fraction",
        ),
        metric("controller.demoted_frac", c.demoted as f64 / n, "fraction"),
        metric(
            "machine.first_run_per_req",
            t.notes.first_run as f64 / n,
            "count/req",
        ),
        metric(
            "machine.blocked_per_req",
            t.notes.blocked as f64 / n,
            "count/req",
        ),
        metric("machine.woke_per_req", t.notes.woke as f64 / n, "count/req"),
        metric(
            "machine.ctx_switches_per_req",
            c.ctx_switches as f64 / n,
            "count/req",
        ),
        metric(
            "machine.migrations_per_req",
            run.migrations as f64 / n,
            "count/req",
        ),
        metric(
            "stats.ns_per_req",
            only(stream, t.total_ns(Hook::Sink) / n),
            "ns",
        ),
        metric("fleet.route_ns_per_req", only(fleet, b.route_ns / n), "ns"),
        metric("fleet.host_ns_per_req", only(fleet, b.host_ns / n), "ns"),
        metric("fleet.units", only(fleet, c.units as f64), "count"),
        metric(
            "fleet.spilled_frac",
            only(fleet, d.spilled as f64 / n),
            "fraction",
        ),
        metric(
            "fleet.redispatches",
            only(fleet, d.redispatches as f64),
            "count",
        ),
        metric(
            "fleet.cold_starts_per_req",
            only(fleet, d.cold_starts as f64 / n),
            "count/req",
        ),
        metric(
            "cluster.route_ns_per_req",
            only(cluster, b.route_ns / n),
            "ns",
        ),
        metric(
            "cluster.host_ns_per_req",
            only(cluster, b.host_ns / n),
            "ns",
        ),
        metric(
            "cluster.cold_starts_per_req",
            only(cluster, d.cold_starts as f64 / n),
            "count/req",
        ),
        metric(
            "cluster.host_imbalance",
            only(cluster, d.host_imbalance),
            "ratio",
        ),
        metric("trace.overhead_frac", overhead, "fraction"),
        metric("trace.timer_ns", t.timer_ns(), "ns"),
    ]);
    for x in m.iter_mut().filter(|x| x.unit == "ns") {
        x.value *= traced.factor;
    }
    m
}

/// Print the median traced run's split by layer in wall-clock time, and
/// check that the layers account for the traced total.
fn report_breakdown(kind: Kind, traced: &[Traced], start_timer_ns: f64) {
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by_key(|&i| traced[i].run.wall_ns);
    let Traced {
        run,
        trace: t,
        breakdown: b,
        ..
    } = &traced[order[order.len() / 2]];
    let n = run.offered as f64;
    eprintln!(
        "perfbench {}: timer {:.1} ns at start, {:.1} ns in place; median traced run, wall-clock ns/req:",
        kind.name(),
        start_timer_ns,
        t.timer_ns()
    );
    let mut rows = vec![
        ("harness", b.harness_ns),
        ("dispatcher (fleet/cluster route)", b.route_ns),
        ("sim self", b.sim_self_ns),
    ];
    for h in Hook::ALL {
        rows.push((h.name(), b.hooks_ns[h as usize]));
    }
    for (name, ns) in rows {
        eprintln!(
            "    {name:<34} {:>10.1}  {:>5.1} %",
            ns / n,
            100.0 * ns / b.total_ns
        );
    }
    eprintln!(
        "    {:<34} {:>10.1}  (accounted {:.1} %)",
        "traced total",
        b.total_ns / n,
        100.0 * b.accounted_ns() / b.total_ns
    );
}

/// Write the first traced run's spans next to the executable, as TSV.
fn write_spans(kind: Kind, seed: u64, digest: u64, t: &Trace, spans: &[Span]) {
    let write = || -> std::io::Result<std::path::PathBuf> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .unwrap_or(std::path::Path::new("."))
            .join("perfbench-spans");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}-seed{seed}.tsv", kind.name()));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(
            out,
            "# workload={} seed={seed} digest={digest:#018x} timer_ns={:.2}",
            kind.name(),
            t.timer_ns()
        )?;
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.req)
            )?;
        }
        out.flush()?;
        Ok(path)
    };
    match write() {
        Ok(path) => eprintln!("perfbench {}: spans in {}", kind.name(), path.display()),
        Err(e) => eprintln!("perfbench {}: could not write spans: {e}", kind.name()),
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

/// Run every workload, each in a fresh process of this binary.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut per_workload = Vec::new();
    for kind in Kind::ALL {
        let out = Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", kind.name());
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        ok &= out.status.success();
        // The child's line is this binary's own fixed format.
        let field = |key: &str| -> Option<u64> {
            let rest = &last[last.find(key)? + key.len()..];
            rest.split([',', '}']).next()?.trim().parse().ok()
        };
        attempted += field("\"attempted\":").unwrap_or(0);
        failed += field("\"failed\":").unwrap_or(0);
        match last.find("\"metrics\": ") {
            Some(i) if out.status.success() => {
                let body = &last[i + "\"metrics\": ".len()..last.len() - 1];
                per_workload.push(format!("\"{}\": {body}", kind.name()));
            }
            _ => ok = false,
        }
    }
    println!(
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        per_workload.join(", ")
    );
    ok
}
