//! Golden-metrics regression suite.
//!
//! Every scenario in `support::SCENARIOS` runs at a fixed seed and its
//! headline metrics (p50/p99/mean latency, throughput, plus a per-request
//! fingerprint) must match the snapshot in `tests/golden/<name>.txt`
//! **exactly** — down to the IEEE-754 bit pattern. Any change to the
//! simulator, the workload generator, the RNG streams, or the event-queue
//! fast paths that shifts a single number in any request fails here.
//!
//! A second snapshot, `tests/golden/fleet_route_matrix.txt`, locks the
//! fleet router's own outputs (per-region counters, shed and lost ids,
//! re-dispatches, spill, cold starts) over a placement × fault × autoscaler
//! × front-door × shape matrix, one line per case.
//!
//! Two more lock the deterministic counters the fingerprints miss:
//! `tests/golden/sfs_telemetry_matrix.txt` holds SFS's `Telemetry` (polls,
//! polled tasks, demotions, offloads, slice recalculations), which feeds
//! Table II's overhead model, plus policy switches, context switches and
//! span over a controller × configuration × workload matrix; and
//! `tests/golden/drive_steps.txt` holds the number of `Sim` drive steps
//! per request, so a return to stepping at instants no hook needs fails
//! here without any timing noise.
//!
//! Scenarios run through the same parallel `Sweep` engine the bench
//! binaries use, so this suite also re-checks thread-count invariance on
//! whatever `SFS_BENCH_THREADS` CI sets.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! SFS_GOLDEN_UPDATE=1 cargo test -p sfs-bench --test golden
//! git diff crates/bench/tests/golden/   # review what moved, then commit
//! ```

mod support;

use std::cell::Cell;
use std::path::PathBuf;

use sfs_bench::Sweep;
use sfs_core::{
    Baseline, Controller, ControllerFactory, RunOutcome, SfsConfig, SfsController, Sim, UserMlfq,
};
use sfs_faas::{FaultSpec, Fleet, FleetRun, Placement};
use sfs_sched::{MachineParams, Phase, Policy, TaskSpec};
use sfs_simcore::{SimDuration, SimRng, SimTime};
use sfs_workload::{AppKind, Request, Workload, WorkloadSpec};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn update_requested() -> bool {
    std::env::var("SFS_GOLDEN_UPDATE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Compare `got` against the snapshot `<label>.txt` (or write it when an
/// update was requested); a mismatch or missing file is returned as a
/// message.
fn check_snapshot(label: &str, got: &str, update: bool) -> Option<String> {
    let dir = golden_dir();
    let path = dir.join(format!("{label}.txt"));
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden snapshot");
        return None;
    }
    match std::fs::read_to_string(&path) {
        Ok(expected) if expected == got => None,
        Ok(expected) => Some(format!(
            "{label}: metrics drifted from snapshot\n--- expected ({})\n{}--- got\n{}",
            path.display(),
            expected,
            got
        )),
        Err(e) => Some(format!(
            "{label}: cannot read {} ({e}); run with SFS_GOLDEN_UPDATE=1 to create it",
            path.display()
        )),
    }
}

fn assert_no_mismatches(mismatches: &[String]) {
    assert!(
        mismatches.is_empty(),
        "golden-metrics regressions:\n{}\n\
         If the change is intentional, regenerate with SFS_GOLDEN_UPDATE=1 and review the diff.",
        mismatches.join("\n")
    );
}

#[test]
fn headline_metrics_match_golden_snapshots() {
    let mut sweep = Sweep::new("golden", support::SEED);
    for &name in support::SCENARIOS {
        sweep.scenario(name, move |_| {
            support::metrics_report(name, &support::run_scenario(name))
        });
    }
    let update = update_requested();
    let mismatches: Vec<String> = sweep
        .run()
        .iter()
        .filter_map(|r| check_snapshot(&r.label, &r.value, update))
        .collect();
    assert_no_mismatches(&mismatches);
}

/// Requests per route-matrix case: enough for spill, shed, crashes and
/// scale events to fire, few enough for the matrix to stay quick in debug.
const ROUTE_N: usize = 300;
const SHED_MS: f64 = 500.0;

/// The fault mixes of the route matrix. The full mix runs a re-dispatch
/// budget of 1 so budget exhaustion (a lost request) is exercised too.
fn route_fault_mixes() -> [(&'static str, Option<FaultSpec>); 4] {
    [
        ("none", None),
        (
            "crash",
            Some(FaultSpec {
                crashes: 2,
                ..FaultSpec::default()
            }),
        ),
        (
            "outage",
            Some(FaultSpec {
                outages: 1,
                ..FaultSpec::default()
            }),
        ),
        (
            "crash+straggler+outage",
            Some(FaultSpec {
                crashes: 2,
                stragglers: 2,
                outages: 1,
                max_redispatch: 1,
            }),
        ),
    ]
}

/// One route-matrix case as one line: the router's own outputs plus an
/// outcome fingerprint.
fn route_line(case: &str, run: &FleetRun) -> String {
    // Sorted ids as runs (`5-30,43`): the shed lists of the tight front
    // door are long but mostly contiguous.
    let ids = |v: &[u64]| {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &id in v {
            match runs.last_mut() {
                Some((_, hi)) if *hi + 1 == id => *hi = id,
                _ => runs.push((id, id)),
            }
        }
        runs.iter()
            .map(|&(lo, hi)| {
                if lo == hi {
                    lo.to_string()
                } else {
                    format!("{lo}-{hi}")
                }
            })
            .collect::<Vec<String>>()
            .join(",")
    };
    let regions: Vec<String> = run
        .per_region
        .iter()
        .map(|s| {
            format!(
                "placed={} per_host={:?} cold={} crashes={} boots={} reactivations={} \
                 parks={} releases={} warm_ms={}",
                s.placed,
                s.placed_per_host,
                s.cold_starts,
                s.crashes,
                s.boots,
                s.reactivations,
                s.parks,
                s.releases,
                s.warm_host_ms
            )
        })
        .collect();
    format!(
        "{case} | completed={} shed=[{}] lost=[{}] redispatches={} spilled={} cold={} \
         fingerprint={:#018x} | {}\n",
        run.outcomes.len(),
        ids(&run.shed),
        ids(&run.lost),
        run.redispatches,
        run.spilled,
        run.cold_starts,
        support::fingerprint(&run.outcomes),
        regions.join(" | ")
    )
}

/// The fleet router's decisions, locked per case: every placement × fault
/// mix × autoscaler on/off × default/tight front door, on a one-region and
/// a three-region fleet. Hosts run FIFO — placement never reads the host
/// policy, and FIFO keeps the matrix fast.
#[test]
fn fleet_route_matrix_matches_golden_snapshot() {
    let mut sweep = Sweep::new("fleet route matrix", support::SEED);
    for (regions, hosts) in [(1usize, 4usize), (3, 3)] {
        for (fault_name, faults) in route_fault_mixes() {
            for autoscale in [true, false] {
                for tight in [false, true] {
                    for p in Placement::ALL {
                        let case = format!(
                            "{regions}x{hosts} {} faults={fault_name} auto={} door={}",
                            p.name(),
                            if autoscale { "on" } else { "off" },
                            if tight { "tight" } else { "default" },
                        );
                        sweep.scenario(case.clone(), move |_| {
                            let mut fleet = Fleet::new(regions, hosts, 2).with_affinity(
                                SimDuration::from_millis(2_000),
                                SimDuration::from_millis(30),
                            );
                            fleet.faults = faults;
                            fleet.autoscale = autoscale;
                            if tight {
                                fleet.front_door.spill_backlog_ms = 40.0;
                                fleet.front_door.shed_backlog_ms = SHED_MS;
                            }
                            let w = WorkloadSpec::azure_sampled(ROUTE_N, support::SEED)
                                .with_load(regions * hosts * 2, 1.0)
                                .generate();
                            let run = fleet.run_with_threads(p, &Baseline::Fifo, &w, 1);
                            assert!(run.conservation_holds(), "{case}: conservation");
                            route_line(&case, &run)
                        });
                    }
                }
            }
        }
    }
    let got: String = sweep.run().into_iter().map(|r| r.value).collect();
    let mismatches: Vec<String> = check_snapshot("fleet_route_matrix", &got, update_requested())
        .into_iter()
        .collect();
    assert_no_mismatches(&mismatches);
}

/// Requests per telemetry-matrix and step-count case: enough for slice
/// recalculations, demotions, offloads and I/O rounds to fire, few enough
/// for the matrix to stay quick in debug.
const HOST_N: usize = 400;
/// Cores of the single-host cases on the sampled workloads.
const HOST_CORES: usize = 4;

/// The workload of one single-host case.
#[derive(Debug, Clone, Copy)]
enum HostLoad {
    Azure,
    Diurnal,
    Correlated,
    /// OpenLambda's fib/md/sa mix (I/O inside functions) with a leading
    /// I/O wait injected into a fifth of the requests.
    OpenLambdaIo,
    /// [`tie_workload`] on this many cores.
    Ties(usize),
}

/// The controller of one single-host case.
#[derive(Debug, Clone, Copy)]
enum HostCtrl {
    Sfs(SfsConfig),
    /// SFS with an SLO deadline of this many milliseconds.
    Slo(SfsConfig, u64),
    Mlfq,
    Cfs,
}

#[derive(Debug, Clone, Copy)]
struct HostCase {
    load: HostLoad,
    smp: bool,
    ctrl: HostCtrl,
}

/// Whole-millisecond arrivals, CPU bursts and I/O waits, run on a machine
/// whose context switches are free: machine events, the 4 ms poll ticks
/// and fixed-slice timers keep landing on the same instants, which is
/// where same-instant ordering shows.
fn tie_workload(cores: usize) -> Workload {
    const BURSTS_MS: [u64; 10] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 40];
    let mut rng = SimRng::seed_from_u64(support::SEED).derive("ties");
    let ms = SimDuration::from_millis;
    let burst = |rng: &mut SimRng| Phase::Cpu(ms(BURSTS_MS[rng.uniform_u64(0, 9) as usize]));
    let io = |rng: &mut SimRng| Phase::Io(ms(2 * rng.uniform_u64(1, 6)));
    let mut arrival = SimTime::ZERO;
    let requests = (0..HOST_N as u64)
        .map(|id| {
            arrival += ms(rng.uniform_u64(0, 24 / cores as u64));
            let mut phases = Vec::new();
            if rng.chance(0.2) {
                phases.push(io(&mut rng));
            }
            phases.push(burst(&mut rng));
            if rng.chance(0.3) {
                phases.push(io(&mut rng));
                phases.push(burst(&mut rng));
            }
            let spec = TaskSpec {
                phases,
                policy: Policy::NORMAL,
                label: id,
            };
            Request {
                id,
                arrival,
                app: AppKind::Fib,
                duration_ms: spec.ideal_duration().as_millis_f64(),
                injected_io_ms: None,
                cold_start_ms: None,
                spec,
            }
        })
        .collect();
    Workload { requests }
}

/// Run one single-host case; returns the run and its drive-step count.
fn run_host_case(case: HostCase) -> (RunOutcome, u64) {
    let sampled = |spec: WorkloadSpec| spec.with_load(HOST_CORES, 0.9).generate();
    let (workload, mut params) = match case.load {
        HostLoad::Azure => (
            sampled(WorkloadSpec::azure_sampled(HOST_N, support::SEED)),
            MachineParams::linux(HOST_CORES),
        ),
        HostLoad::Diurnal => (
            sampled(WorkloadSpec::diurnal(HOST_N, support::SEED)),
            MachineParams::linux(HOST_CORES),
        ),
        HostLoad::Correlated => (
            sampled(WorkloadSpec::correlated_bursts(HOST_N, support::SEED)),
            MachineParams::linux(HOST_CORES),
        ),
        HostLoad::OpenLambdaIo => (
            WorkloadSpec {
                io_fraction: 0.2,
                ..WorkloadSpec::openlambda(HOST_N, support::SEED)
            }
            .with_duration_load(HOST_CORES, 0.9)
            .generate(),
            MachineParams::linux(HOST_CORES),
        ),
        HostLoad::Ties(cores) => (
            tie_workload(cores),
            MachineParams {
                ctx_switch_cost: SimDuration::ZERO,
                ..MachineParams::linux(cores)
            },
        ),
    };
    if case.smp {
        params = params.with_smp(support::smp_on());
    }
    let ctrl: Box<dyn Controller> = match case.ctrl {
        HostCtrl::Sfs(cfg) => Box::new(SfsController::new(cfg)),
        HostCtrl::Slo(cfg, ms) => {
            Box::new(SfsController::with_slo(cfg, SimDuration::from_millis(ms)))
        }
        HostCtrl::Mlfq => Box::new(UserMlfq::default()),
        HostCtrl::Cfs => Baseline::Cfs.build(),
    };
    let steps = Cell::new(0);
    let run = Sim::on(params)
        .workload(&workload)
        .controller(support::StepCounter {
            inner: ctrl,
            steps: &steps,
        })
        .run();
    (run, steps.get())
}

/// The telemetry matrix: SFS's variants on the sampled Azure workload and
/// on OpenLambda with I/O, SFS on the diurnal and correlated-burst
/// workloads, `UserMlfq` and CFS for contrast, and SFS at fixed slices of
/// 2–100 ms on [`tie_workload`] at 1, 2 and 4 cores, with and without an
/// SLO deadline.
fn telemetry_cases() -> Vec<(String, HostCase)> {
    use HostCtrl::{Cfs, Mlfq, Sfs, Slo};
    use HostLoad::{Azure, Correlated, Diurnal, OpenLambdaIo, Ties};
    let sfs = SfsConfig::new(HOST_CORES);
    let plain = |load, ctrl| HostCase {
        load,
        smp: false,
        ctrl,
    };
    let smp = HostCase {
        smp: true,
        ..plain(OpenLambdaIo, Sfs(sfs))
    };
    let mut cases: Vec<(String, HostCase)> = [
        ("azure sfs", plain(Azure, Sfs(sfs))),
        (
            "azure sfs fixed4",
            plain(Azure, Sfs(sfs.with_fixed_slice(4))),
        ),
        (
            "azure sfs fixed8",
            plain(Azure, Sfs(sfs.with_fixed_slice(8))),
        ),
        (
            "azure sfs per-worker",
            plain(Azure, Sfs(sfs.per_worker_queues())),
        ),
        (
            "azure sfs no-hybrid",
            plain(Azure, Sfs(sfs.without_hybrid())),
        ),
        ("azure sfs-slo", plain(Azure, Slo(sfs, 250))),
        ("azure user-mlfq", plain(Azure, Mlfq)),
        ("azure cfs", plain(Azure, Cfs)),
        ("openlambda-io sfs", plain(OpenLambdaIo, Sfs(sfs))),
        ("openlambda-io sfs smp", smp),
        (
            "openlambda-io sfs io-oblivious",
            plain(OpenLambdaIo, Sfs(sfs.io_oblivious())),
        ),
        (
            "openlambda-io sfs fixed4",
            plain(OpenLambdaIo, Sfs(sfs.with_fixed_slice(4))),
        ),
        ("openlambda-io sfs-slo", plain(OpenLambdaIo, Slo(sfs, 250))),
        (
            "openlambda-io sfs per-worker",
            plain(OpenLambdaIo, Sfs(sfs.per_worker_queues())),
        ),
        ("diurnal sfs", plain(Diurnal, Sfs(sfs))),
        ("correlated sfs", plain(Correlated, Sfs(sfs))),
    ]
    .into_iter()
    .map(|(label, c)| (label.to_string(), c))
    .collect();
    for cores in [1, 2, 4] {
        for slice_ms in [2, 4, 8, 12, 100] {
            let cfg = SfsConfig::new(cores).with_fixed_slice(slice_ms);
            for (tag, ctrl) in [("sfs", Sfs(cfg)), ("sfs-slo", Slo(cfg, 50))] {
                let label = format!("ties{cores} {tag} fixed{slice_ms}");
                cases.push((label, plain(Ties(cores), ctrl)));
            }
        }
    }
    cases
}

#[test]
fn sfs_telemetry_matrix_matches_golden_snapshot() {
    let mut sweep = Sweep::new("sfs telemetry matrix", support::SEED);
    for (label, case) in telemetry_cases() {
        sweep.scenario(label.clone(), move |_| {
            let (run, _) = run_host_case(case);
            let t = &run.telemetry;
            format!(
                "{label} | polls={} polled_tasks={} sched_actions={} demoted={} offloaded={} \
                 slice_recalcs={} ctx_switches={} span_ns={} fingerprint={:#018x}\n",
                t.polls,
                t.polled_tasks,
                run.sched_actions,
                t.demoted,
                t.offloaded,
                t.slice_recalcs,
                run.machine_ctx_switches,
                run.sim_span.as_nanos(),
                support::fingerprint(&run.outcomes),
            )
        });
    }
    let got: String = sweep.run().into_iter().map(|r| r.value).collect();
    let mismatches: Vec<String> = check_snapshot("sfs_telemetry_matrix", &got, update_requested())
        .into_iter()
        .collect();
    assert_no_mismatches(&mismatches);
}

/// `on_wakeup` calls per request — one per `Sim` drive step — for the
/// single-host controllers on the sampled Azure workload and SFS on
/// OpenLambda with I/O, plain and on the balancing SMP machine.
#[test]
fn drive_steps_match_golden_snapshot() {
    const STEP_CASES: [&str; 6] = [
        "azure sfs",
        "azure sfs-slo",
        "azure user-mlfq",
        "azure cfs",
        "openlambda-io sfs",
        "openlambda-io sfs smp",
    ];
    let mut sweep = Sweep::new("drive steps", support::SEED);
    let cases = telemetry_cases()
        .into_iter()
        .filter(|(label, _)| STEP_CASES.contains(&label.as_str()));
    for (label, case) in cases {
        sweep.scenario(label.clone(), move |_| {
            let (run, steps) = run_host_case(case);
            let n = run.outcomes.len();
            format!(
                "{label} | requests={n} steps={steps} steps_per_req={:.2}\n",
                steps as f64 / n as f64
            )
        });
    }
    let got: String = sweep.run().into_iter().map(|r| r.value).collect();
    let mismatches: Vec<String> = check_snapshot("drive_steps", &got, update_requested())
        .into_iter()
        .collect();
    assert_no_mismatches(&mismatches);
}
