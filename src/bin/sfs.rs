//! `sfs` — command-line front end for the SFS reproduction.
//!
//! ```text
//! sfs gen      --requests 5000 --cores 16 --load 0.9 [--mix openlambda] [--seed N] [--out trace.csv]
//! sfs run      --sched sfs|slo-sfs|history|mlfq|cfs|fifo|rr|srtf|eevdf|dl|srp|ideal [--trace trace.csv | --requests N --load X] [--gantt]
//! sfs run      --sched ... --smp balance=MS[,migration=US][,affinity=US]   # SMP load balancer + costs
//! sfs run      --sched ... --kpolicy cfs|srtf|eevdf|dl|srp                 # kernel policy on the machine
//! sfs run      --cluster hosts=8,cores=8,placement=jsq[,affinity=10000:50] [--sched sfs] [--threads T]
//! sfs run      --fleet regions=2,hosts=8,placement=jsq[,faults=crash:2+outage:1] [--sched sfs] [--threads T]
//! sfs compare  [--requests N --cores C --load X]         # SFS vs CFS headline
//! sfs slo      [--requests N --cores C --load X]         # paper-SLO attainment
//! ```
//!
//! Every `--sched` value is a `Controller` driven by the same `Sim`
//! runner — adding a scheduler to this CLI is one match arm. `--cluster`
//! lifts any of them onto the multi-host dispatcher (`sfs_faas::Cluster`):
//! `placement` is one of round-robin|least-loaded|long-to-lightest|
//! join-shortest-queue|consistent-hash (or rr|ll|l2l|jsq|hash), the
//! optional `affinity=KEEPMS:COLDMS` key enables the warm-container
//! cold-start model, and hosts run in parallel with bit-identical output
//! at any `--threads` value. `--fleet` lifts the cluster one more level:
//! regions behind a latency-aware front door with autoscaling and
//! deterministic fault injection (`sfs_faas::Fleet`); outcomes are
//! attributed completed / shed / lost and the run stays bit-identical at
//! any `--threads` value. Sub-arg parsing is strict: a malformed value
//! aborts naming the flag, the key, and the offending value
//! (`sfs_repro::cli`).
//!
//! `--kpolicy` swaps the kernel scheduling policy on the simulated
//! machine (`sfs_sched::KernelPolicyKind`): the stock Linux CFS+RT model
//! (default), the SRTF oracle, EEVDF, the CBS deadline class, or the
//! preemption-ceiling (SRP) discipline. The `eevdf`/`dl`/`srp` `--sched`
//! values are shorthand for `--sched cfs --kpolicy <p>`: a kernel-only
//! baseline on that kernel policy.
//!
//! `--smp` turns on the machine's SMP model (periodic load-balance tick
//! plus migration/affinity costs — `sfs_sched::SmpParams`): `balance` is
//! the tick interval in ms, `migration`/`affinity` are the penalties in
//! µs. A bare `--smp` uses the bench suite's standard knobs
//! (4 ms / 30 µs / 15 µs). Without the flag the machine runs the
//! all-zero default, which is bit-exact with the pre-SMP simulator.
//!
//! Argument parsing is deliberately dependency-free (flag pairs only).

use std::collections::BTreeMap;
use std::process::exit;

use sfs_repro::cli::{self, ClusterSpec};
use sfs_repro::faas::Cluster;
use sfs_repro::metrics::{evaluate_slo, headline_claims, MarkdownTable, Paired, SloRule};
use sfs_repro::sched::{KernelPolicyKind, MachineParams};
use sfs_repro::sfs::{
    Baseline, Controller, ControllerFactory, FnFactory, HistoryPriority, Ideal, RequestOutcome,
    RunOutcome, SfsConfig, SfsController, Sim, UserMlfq,
};
use sfs_repro::simcore::SimDuration;
use sfs_repro::simcore::{Samples, SimTime};
use sfs_repro::workload::{self, Workload, WorkloadSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage_and_exit();
    };
    let flags = parse_flags(rest);
    match cmd.as_str() {
        "gen" => cmd_gen(&flags),
        "run" => cmd_run(&flags),
        "compare" => cmd_compare(&flags),
        "slo" => cmd_slo(&flags),
        "-h" | "--help" | "help" => usage_and_exit(),
        other => {
            eprintln!("unknown command: {other}");
            usage_and_exit();
        }
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "sfs — SFS (SC'22) reproduction CLI\n\
         \n\
         USAGE:\n\
           sfs gen     --requests N --cores C --load X [--mix fib|openlambda] [--seed S] [--out FILE]\n\
           sfs run     --sched sfs|slo-sfs|history|mlfq|cfs|fifo|rr|srtf|eevdf|dl|srp|ideal [--trace FILE | --requests N --load X] [--cores C] [--gantt]\n\
                       [--smp balance=MS[,migration=US][,affinity=US]] [--kpolicy cfs|srtf|eevdf|dl|srp]\n\
           sfs run     --cluster hosts=N,cores=M,placement=P[,affinity=KEEPMS:COLDMS] [--sched S] [--threads T] [--requests N --load X]\n\
           sfs run     --fleet regions=R,hosts=N[,cores=M][,placement=P][,affinity=KEEPMS:COLDMS][,faults=crash:A+straggler:B+outage:C][,spill=MS][,shed=MS][,seed=S]\n\
                       [--sched S] [--threads T] [--requests N --load X]\n\
           sfs compare [--requests N] [--cores C] [--load X] [--seed S]\n\
           sfs slo     [--requests N] [--cores C] [--load X] [--seed S]\n\
         \n\
         --requests N is 1 to {MAX_REQUESTS} (default 2000): the CLI holds the\n\
         whole workload and every outcome in memory, ~830 bytes per request."
    );
    exit(2);
}

fn parse_flags(rest: &[String]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut it = rest.iter().peekable();
    while let Some(k) = it.next() {
        if let Some(name) = k.strip_prefix("--") {
            let val = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
                _ => String::from("true"),
            };
            flags.insert(name.to_string(), val);
        } else {
            eprintln!("unexpected argument: {k}");
            usage_and_exit();
        }
    }
    flags
}

/// Fetch a typed flag value, defaulting when absent. A present-but-malformed
/// value aborts naming the flag and the value — it never silently falls back
/// to the default (the same contract the `--cluster`/`--smp`/`--fleet`
/// sub-arg parsers and the `SFS_BENCH_*` env overrides follow).
fn get<T: std::str::FromStr>(flags: &BTreeMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!(
                "--{key}: value `{v}` is not a valid {}",
                std::any::type_name::<T>()
            );
            usage_and_exit();
        }),
    }
}

/// As [`get`], and the value must also satisfy `valid`: one outside the
/// flag's domain aborts naming the flag, the value, and what it must be.
fn get_valid<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
    what: &str,
    valid: impl Fn(&T) -> bool,
) -> T {
    let v = get(flags, key, default);
    if !valid(&v) {
        let raw = flags.get(key).map_or("", String::as_str);
        eprintln!("--{key}: value `{raw}` is not {what}");
        usage_and_exit();
    }
    v
}

/// Most requests `--requests` accepts. The CLI materialises the whole
/// workload and every outcome, about 830 bytes per request at peak
/// (`run --sched sfs`, `compare` and `slo` read 783–794 MiB at 10^6
/// requests on x86-64, linear from 2·10^5), so this ceiling keeps a run
/// under ~8 GiB. A larger run belongs to `Sim::run_streaming`.
const MAX_REQUESTS: usize = 10_000_000;

/// `--cores`: cores of the simulated machine, at least 1.
fn get_cores(flags: &BTreeMap<String, String>) -> usize {
    get_valid(flags, "cores", 16usize, "a count >= 1", |&n| n >= 1)
}

/// `--threads`: worker threads for cluster and fleet hosts, at least 1.
/// Without the flag, `SFS_BENCH_THREADS` or the machine's parallelism; a
/// malformed variable is a usage error naming it and its value, as a bad
/// flag is.
fn get_threads(flags: &BTreeMap<String, String>) -> usize {
    if flags.contains_key("threads") {
        return get_valid(flags, "threads", 1, "a count >= 1", |&n| n >= 1);
    }
    sfs_repro::simcore::parallel::try_default_threads().unwrap_or_else(|e| {
        eprintln!("{e}");
        usage_and_exit();
    })
}

fn build_workload(flags: &BTreeMap<String, String>, cores: usize) -> Workload {
    if let Some(path) = flags.get("trace") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        });
        return workload::from_csv(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            exit(1);
        });
    }
    let n = get_valid(
        flags,
        "requests",
        2_000usize,
        &format!("a count from 1 to {MAX_REQUESTS}"),
        |n| (1..=MAX_REQUESTS).contains(n),
    );
    let seed = get(flags, "seed", 42u64);
    let load = get_valid(flags, "load", 0.9f64, "a finite number > 0", |&x| {
        x.is_finite() && x > 0.0
    });
    let spec = match flags.get("mix").map(String::as_str) {
        Some("openlambda") => WorkloadSpec::openlambda(n, seed),
        Some("replay") => WorkloadSpec::azure_replay(n, seed),
        _ => WorkloadSpec::azure_sampled(n, seed),
    };
    let w = spec.with_load(cores, load).generate();
    if w.crosses_horizon() {
        let raw = flags.get("load").map_or("0.9", String::as_str);
        eprintln!(
            "--load: value `{raw}` spreads the workload's arrivals and demand past the \
             simulated-time horizon (2^62 ns, ~146 years)"
        );
        usage_and_exit();
    }
    w
}

fn cmd_gen(flags: &BTreeMap<String, String>) {
    let cores = get_cores(flags);
    let w = build_workload(flags, cores);
    let csv = workload::to_csv(&w);
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &csv).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            });
            eprintln!(
                "wrote {} requests ({:.1}s of CPU demand, offered load {:.2} on {} cores) to {path}",
                w.len(),
                w.total_cpu_ms() / 1e3,
                w.offered_load(cores),
                cores
            );
        }
        None => print!("{csv}"),
    }
}

/// Run `w` under any controller recipe on `cores` default-Linux cores.
fn run_with(f: &dyn ControllerFactory, cores: usize, w: &Workload) -> RunOutcome {
    f.run_on(cores, w)
}

fn summarise(name: &str, outs: &[RequestOutcome]) {
    let durs: Vec<f64> = outs.iter().map(|o| o.turnaround.as_millis_f64()).collect();
    let mut s = Samples::from_vec(durs.clone());
    let rte95 = outs.iter().filter(|o| o.rte >= 0.95).count() as f64 / outs.len().max(1) as f64;
    println!(
        "{name:>6}: n={} mean={:.1}ms p50={:.1}ms p99={:.1}ms RTE>=0.95: {:.1}%",
        outs.len(),
        durs.iter().sum::<f64>() / durs.len().max(1) as f64,
        s.percentile(50.0),
        s.percentile(99.0),
        rte95 * 100.0
    );
}

/// The controller recipe for a `--sched` name, with its label and machine
/// tweaks: a single host builds one controller from it, and a cluster or
/// fleet one per host.
fn factory_for(sched: &str, cores: usize) -> Option<Box<dyn ControllerFactory + Sync>> {
    Some(match sched {
        "sfs" => Box::new(SfsConfig::new(cores)),
        "slo-sfs" => Box::new(FnFactory::new("SLO", move || {
            Box::new(SfsController::with_slo(
                SfsConfig::new(cores),
                SimDuration::from_millis(250),
            )) as Box<dyn Controller>
        })),
        "history" => Box::new(FnFactory::new("HIST", || {
            Box::new(HistoryPriority::new()) as Box<dyn Controller>
        })),
        "mlfq" => Box::new(FnFactory::new("MLFQ", || {
            Box::new(UserMlfq::default()) as Box<dyn Controller>
        })),
        "ideal" => Box::new(FnFactory::new("IDEAL", || {
            Box::new(Ideal) as Box<dyn Controller>
        })),
        "cfs" => Box::new(Baseline::Cfs),
        "fifo" => Box::new(Baseline::Fifo),
        "rr" => Box::new(Baseline::Rr),
        "srtf" => Box::new(Baseline::Srtf),
        "eevdf" => Box::new(Baseline::Eevdf),
        "dl" => Box::new(Baseline::Deadline),
        "srp" => Box::new(Baseline::Srp),
        _ => return None,
    })
}

fn cmd_run_cluster(flags: &BTreeMap<String, String>, spec: &str) {
    let ClusterSpec {
        hosts,
        cores,
        placement,
        affinity,
    } = cli::parse_cluster_spec(spec).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage_and_exit();
    });
    let sched = flags.get("sched").map(String::as_str).unwrap_or("sfs");
    let Some(factory) = factory_for(sched, cores) else {
        eprintln!("unknown scheduler: {sched}");
        usage_and_exit();
    };
    let threads = get_threads(flags);
    let w = build_workload(flags, hosts * cores);
    let mut cluster = Cluster::new(hosts, cores);
    if let Some((keep_ms, cold_ms)) = affinity {
        cluster = cluster.with_affinity(
            SimDuration::from_millis(keep_ms),
            SimDuration::from_millis(cold_ms),
        );
    }
    let run = cluster.run_with_threads(placement, &*factory, &w, threads);
    summarise(&factory.label(), &run.outcomes);
    let fmt_mean = |m: Option<f64>| m.map_or_else(|| "n/a".into(), |v| format!("{v:.1}ms"));
    println!(
        "        cluster: {hosts} hosts x {cores} cores, placement={} ({threads} thread{})",
        placement.name(),
        if threads == 1 { "" } else { "s" },
    );
    println!(
        "        short mean={} long mean={} cold starts={}",
        fmt_mean(run.short_mean_ms()),
        fmt_mean(run.long_mean_ms()),
        run.cold_starts,
    );
    println!("        per-host requests: {:?}", run.per_host);
}

fn cmd_run_fleet(flags: &BTreeMap<String, String>, spec: &str) {
    let fleet_spec = cli::parse_fleet_spec(spec).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage_and_exit();
    });
    let sched = flags.get("sched").map(String::as_str).unwrap_or("sfs");
    let Some(factory) = factory_for(sched, fleet_spec.cores) else {
        eprintln!("unknown scheduler: {sched}");
        usage_and_exit();
    };
    let threads = get_threads(flags);
    let fleet = fleet_spec.build();
    let w = build_workload(
        flags,
        fleet_spec.regions * fleet_spec.hosts * fleet_spec.cores,
    );
    let run = fleet.run_with_threads(fleet_spec.placement, &*factory, &w, threads);
    summarise(&factory.label(), &run.outcomes);
    println!(
        "        fleet: {} regions x {} hosts x {} cores, placement={} ({threads} thread{})",
        fleet_spec.regions,
        fleet_spec.hosts,
        fleet_spec.cores,
        fleet_spec.placement.name(),
        if threads == 1 { "" } else { "s" },
    );
    println!(
        "        completed={} shed={} lost={} (conservation {})",
        run.outcomes.len(),
        run.shed.len(),
        run.lost.len(),
        if run.conservation_holds() {
            "OK"
        } else {
            "VIOLATED"
        },
    );
    println!(
        "        cold starts={} re-dispatches={} spilled={}",
        run.cold_starts, run.redispatches, run.spilled,
    );
    for (i, stats) in run.per_region.iter().enumerate() {
        println!(
            "        region {i}: placed={} cold={} crashes={} boots={} \
             reactivations={} parks={} releases={} warm-ms={:.0}",
            stats.placed,
            stats.cold_starts,
            stats.crashes,
            stats.boots,
            stats.reactivations,
            stats.parks,
            stats.releases,
            stats.warm_host_ms,
        );
    }
}

fn cmd_run(flags: &BTreeMap<String, String>) {
    if let Some(spec) = flags.get("fleet") {
        return cmd_run_fleet(flags, spec);
    }
    if let Some(spec) = flags.get("cluster") {
        return cmd_run_cluster(flags, spec);
    }
    let cores = get_cores(flags);
    let w = build_workload(flags, cores);
    let sched = flags.get("sched").map(String::as_str).unwrap_or("sfs");
    let gantt = flags.contains_key("gantt");
    let Some(factory) = factory_for(sched, cores) else {
        eprintln!("unknown scheduler: {sched}");
        usage_and_exit();
    };
    let mut params = MachineParams::linux(cores);
    factory.configure_machine(&mut params);
    let smp = flags.get("smp").map(|spec| {
        cli::parse_smp_spec(spec).unwrap_or_else(|e| {
            eprintln!("{e}");
            usage_and_exit();
        })
    });
    if let Some(smp) = smp {
        params = params.with_smp(smp);
    }
    if let Some(spec) = flags.get("kpolicy") {
        let Some(kind) = KernelPolicyKind::parse(spec) else {
            eprintln!("bad --kpolicy value {spec:?} (expected cfs|srtf|eevdf|dl|srp)");
            usage_and_exit();
        };
        params = params.with_kpolicy(kind);
    }
    let mut sim = Sim::on(params)
        .workload(&w)
        .boxed_controller(factory.build());
    if gantt {
        sim = sim.tracing();
    }
    let r = sim.run();
    summarise(&factory.label(), &r.outcomes);
    if smp.is_some() {
        let migrations: u64 = r.outcomes.iter().map(|o| o.migrations).sum();
        println!(
            "        smp: {migrations} migrations ({:.2}/request)",
            migrations as f64 / r.outcomes.len().max(1) as f64
        );
    }
    if sched == "sfs" || sched == "slo-sfs" {
        println!(
            "        demoted={} offloaded={} slice_recalcs={} polls={}",
            r.telemetry.demoted,
            r.telemetry.offloaded,
            r.telemetry.slice_recalcs,
            r.telemetry.polls
        );
    }
    if let Some(trace) = r.schedule_trace {
        let end = r
            .outcomes
            .iter()
            .map(|o| o.finished)
            .max()
            .unwrap_or(SimTime::ZERO);
        println!("{}", trace.render_gantt(SimTime::ZERO, end, 100));
    } else if gantt {
        eprintln!("(--gantt had nothing to render: the IDEAL bound simulates no machine)");
    }
}

fn cmd_compare(flags: &BTreeMap<String, String>) {
    let cores = get_cores(flags);
    let w = build_workload(flags, cores);
    let sfs = run_with(&SfsConfig::new(cores), cores, &w).outcomes;
    let cfs = run_with(&Baseline::Cfs, cores, &w).outcomes;
    summarise("SFS", &sfs);
    summarise("CFS", &cfs);
    let pairs: Vec<Paired> = sfs
        .iter()
        .zip(cfs.iter())
        .map(|(s, c)| Paired {
            ideal_ms: s.ideal.as_millis_f64(),
            treatment_ms: s.turnaround.as_millis_f64(),
            baseline_ms: c.turnaround.as_millis_f64(),
            treatment_ctx: s.ctx_switches,
            baseline_ctx: c.ctx_switches,
        })
        .collect();
    let h = headline_claims(&pairs, 1550.0);
    println!(
        "\nshort ({:.1}% of requests): mean speedup {:.1}x (median {:.1}x)\n\
         long: mean slowdown {:.2}x | improved overall: {:.1}%",
        h.short_fraction * 100.0,
        h.short_mean_speedup,
        h.short_median_speedup,
        h.long_mean_slowdown,
        h.improved_fraction * 100.0
    );
}

fn cmd_slo(flags: &BTreeMap<String, String>) {
    let cores = get_cores(flags);
    let w = build_workload(flags, cores);
    let mut table = MarkdownTable::new(&["scheduler", "soft SLO", "hard SLO"]);
    let mut row = |name: &str, outs: &[RequestOutcome]| {
        let inv: Vec<(f64, f64)> = outs
            .iter()
            .map(|o| (o.ideal.as_millis_f64(), o.turnaround.as_millis_f64()))
            .collect();
        let soft = evaluate_slo(SloRule::soft(), &inv);
        let hard = evaluate_slo(SloRule::hard(), &inv);
        table.row(&[
            name.into(),
            format!(
                "{:.1}% {}",
                soft.attained_fraction * 100.0,
                if soft.met { "MET" } else { "missed" }
            ),
            format!(
                "{:.1}% {}",
                hard.attained_fraction * 100.0,
                if hard.met { "MET" } else { "missed" }
            ),
        ]);
    };
    row("SFS", &run_with(&SfsConfig::new(cores), cores, &w).outcomes);
    for b in [Baseline::Cfs, Baseline::Rr, Baseline::Fifo] {
        row(b.name(), &run_with(&b, cores, &w).outcomes);
    }
    println!("{}", table.to_markdown());
}
