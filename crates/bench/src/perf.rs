//! The performance-tracking subsystem: a fixed scenario matrix measured
//! with calibrated batches, emitted as a schema-versioned `BENCH_sim.json`.
//!
//! The golden/determinism suites pin *what* the simulator computes; this
//! module pins *how fast*. [`suite`] builds the scenario matrix (end-to-end
//! SFS/CFS/cluster/azure-replay runs at pinned seeds plus hot-loop
//! microbenchmarks), [`run_suite`] measures it with
//! [`timebench::measure_with`](crate::timebench::measure_with)-calibrated
//! batches, and [`BenchReport::to_json`] serialises the result:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "requests": 2000,
//!   "seed": 99950626,
//!   "scenarios": {
//!     "sim/sfs_azure": {
//!       "median_ns_per_req": 4321.0,
//!       "p10_ns_per_req": 4100.2,
//!       "p90_ns_per_req": 4700.9,
//!       "throughput_rps": 231428.5
//!     }
//!   }
//! }
//! ```
//!
//! A baseline lives at `results/BENCH_baseline.json`; [`compare`] diffs a
//! fresh run against it with a tolerance band (CI uses a wide 2x band to
//! absorb runner noise; the strict local workflow is documented in
//! ARCHITECTURE.md). The JSON reader is [`parse_json`], a minimal
//! hand-rolled parser — the workspace builds with no external crates.

// lint: allow-file(K1, the pick-path microbenchmarks construct a runqueue directly to time one operation in isolation)

use std::time::Duration;

use sfs_core::{
    Baseline, Controller, ControllerFactory, MachineView, OutcomeSummary, RequestOutcome,
    SfsConfig, SfsController, Sim,
};
use sfs_faas::{Cluster, FaultSpec, Fleet, Placement};
use sfs_sched::{
    CfsRunqueue, FinishedTask, KernelPolicyKind, Machine, MachineParams, Notification, Phase, Pid,
    Policy, SmpParams, TaskSpec,
};
use sfs_simcore::{SimDuration, SimTime};
use sfs_workload::{AppKind, Request, WorkloadSpec};

use crate::timebench::{measure_with, MeasureConfig, Measurement};

/// Version of the `BENCH_sim.json` schema this module emits and reads.
pub const SCHEMA_VERSION: u64 = 1;

/// One point of the perf matrix: a name, the number of work items one
/// timed iteration performs, and the operation itself.
pub struct PerfScenario {
    /// Scenario name (`sim/...` for end-to-end runs where an item is one
    /// request, `micro/...` for hot-loop benchmarks where an item is one
    /// operation).
    pub name: &'static str,
    /// Work items per timed iteration (divides the per-iteration time).
    pub items: u64,
    /// Measurement tunables for this scenario.
    pub cfg: MeasureConfig,
    body: Box<dyn FnMut()>,
}

/// Measured result of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// Scenario name.
    pub name: String,
    /// Median nanoseconds per work item (request or operation).
    pub median_ns_per_req: f64,
    /// 10th-percentile ns per item across batches.
    pub p10_ns_per_req: f64,
    /// 90th-percentile ns per item across batches.
    pub p90_ns_per_req: f64,
    /// Work items per second at the median (`1e9 / median_ns_per_req`).
    pub throughput_rps: f64,
}

/// A full suite run: the measured matrix plus its provenance knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version of the serialised form.
    pub schema_version: u64,
    /// `SFS_PERF_REQUESTS` scale the `sim/` scenarios ran at.
    pub requests: u64,
    /// Master seed the workloads derive from.
    pub seed: u64,
    /// Per-scenario measurements, in suite order.
    pub scenarios: Vec<PerfRecord>,
}

/// Batch tunables for end-to-end `sim/` scenarios: long batches, fewer of
/// them (one iteration is a whole run).
fn sim_cfg() -> MeasureConfig {
    MeasureConfig {
        batch_target: Duration::from_millis(30),
        batches: 11,
    }
}

/// Cores used by the single-host `sim/` scenarios.
const SIM_CORES: usize = 4;

/// Default scale of the `sim/sfs_azure_10m` streaming scenario, which
/// `SFS_PERF_LARGE_REQUESTS` overrides. CI runs a reduced scale (the
/// scenario's point is that ns/req is flat in the scale).
pub const LARGE_REQUESTS: usize = 10_000_000;
/// Requests per iteration of the `micro/sfs_dispatch` burst (fixed so the
/// microbenchmarks are comparable across `SFS_PERF_REQUESTS` scales).
const DISPATCH_BURST: usize = 512;

/// Cores of the `micro/cfs_preempt` machine.
const PREEMPT_CORES: usize = 4;
/// Fair tasks per core on the `micro/cfs_preempt` machine.
const PREEMPT_BACKLOG: usize = 4;

/// A CFS task that never finishes, at nice `nice`.
fn endless(label: u64, nice: i8) -> TaskSpec {
    TaskSpec {
        phases: vec![Phase::Cpu(SimDuration::from_millis(1 << 30))],
        policy: Policy::Normal { nice },
        label,
    }
}

/// The `micro/cfs_preempt` machine: 4 Linux cores, each time-sharing
/// its own 4 never-ending CFS tasks at nice 0, 1, 2 and 3. Unequal
/// weights keep every core out of a tickless window, so each boundary is
/// one eager preemption. Core `k` starts `k` ms after core 0, so no two
/// cores' slice ends coincide and, once the setup's superseded boundaries
/// are crossed, every machine event is exactly one slice preemption,
/// forever.
fn cfs_preempt_machine() -> Machine {
    let mut m = Machine::new(MachineParams::linux(PREEMPT_CORES));
    for core in 0..PREEMPT_CORES as u64 {
        m.advance_to(SimTime::ZERO + SimDuration::from_millis(core));
        m.spawn(endless(core, 0));
    }
    // Least-loaded placement deals the rest round-robin: the n-th task
    // dealt to a core runs at nice n.
    for label in PREEMPT_CORES..PREEMPT_CORES * PREEMPT_BACKLOG {
        m.spawn(endless(label as u64, (label / PREEMPT_CORES) as i8));
    }
    // Each enqueue shortened its core's slice and left the boundary it
    // replaced queued, no later than the first 24 ms slice's end; cross
    // those before measuring.
    m.advance_to(SimTime::ZERO + SimDuration::from_millis(100));
    m
}

/// The `micro/cfs_window_settle` machine: one Linux core time-sharing 4
/// never-ending nice-0 CFS tasks in 6 ms slices. Once every task has run,
/// the core rotates in tickless windows, and every machine event is one
/// window's end: a settle of its capped run of turns, one eager boundary,
/// and the next window's opening.
fn cfs_window_machine() -> Machine {
    let mut m = Machine::new(MachineParams::linux(1));
    for label in 0..PREEMPT_BACKLOG as u64 {
        m.spawn(endless(label, 0));
    }
    m.advance_to(SimTime::ZERO + SimDuration::from_secs(1));
    // Finish the window open at 1 s, so each operation crosses a whole one.
    m.advance_to(m.next_event_time().expect("the backlog never drains"));
    m
}

/// The fixed scenario matrix at `requests` scale rooted at `seed`, with
/// `large_requests` sizing `sim/sfs_azure_10m`.
///
/// `sim/` scenarios measure whole simulation runs (ns per request);
/// `micro/` scenarios measure the hot loops the PR-5 overhaul targets
/// (ns per operation): the CFS pick path at two occupancies and the SFS
/// dispatch path under an overload burst.
pub fn suite(requests: usize, large_requests: usize, seed: u64) -> Vec<PerfScenario> {
    let mut v: Vec<PerfScenario> = Vec::new();
    // `requests` is shadowed by the dispatch microbenchmark's request pool
    // below; scenarios defined after it use this copy.
    let req_count = requests;

    // -- End-to-end simulation scenarios (one item = one request). ------
    let w_azure = WorkloadSpec::azure_sampled(requests, seed)
        .with_load(SIM_CORES, 0.9)
        .generate();
    let sfs = SfsConfig::new(SIM_CORES);
    v.push(PerfScenario {
        name: "sim/sfs_azure",
        items: requests as u64,
        cfg: sim_cfg(),
        body: Box::new(move || {
            let run = Sim::on(MachineParams::linux(SIM_CORES))
                .workload(&w_azure)
                .controller(SfsController::new(sfs))
                .run();
            std::hint::black_box(run.outcomes.len());
        }),
    });

    let w_cfs = WorkloadSpec::azure_sampled(requests, seed)
        .with_load(SIM_CORES, 0.9)
        .generate();
    v.push(PerfScenario {
        name: "sim/cfs_azure",
        items: requests as u64,
        cfg: sim_cfg(),
        body: Box::new(move || {
            let run = Baseline::Cfs.run_on(SIM_CORES, &w_cfs);
            std::hint::black_box(run.outcomes.len());
        }),
    });

    let w_replay = WorkloadSpec::azure_replay(requests, seed)
        .with_load(SIM_CORES, 0.85)
        .generate();
    v.push(PerfScenario {
        name: "sim/sfs_azure_replay",
        items: requests as u64,
        cfg: sim_cfg(),
        body: Box::new(move || {
            let run = Sim::on(MachineParams::linux(SIM_CORES))
                .workload(&w_replay)
                .controller(SfsController::new(sfs))
                .run();
            std::hint::black_box(run.outcomes.len());
        }),
    });

    let w_cluster = WorkloadSpec::azure_sampled(requests, seed)
        .with_load(4 * SIM_CORES, 0.9)
        .generate();
    let cluster = Cluster::new(4, SIM_CORES);
    v.push(PerfScenario {
        name: "sim/cluster4_ll_sfs",
        items: requests as u64,
        cfg: sim_cfg(),
        body: Box::new(move || {
            // One worker thread: the scenario measures simulator cost, not
            // the host fan-out (which the dispatcher-matrix CI job covers).
            let run = cluster.run_with_threads(Placement::LeastLoaded, &cluster.sfs, &w_cluster, 1);
            std::hint::black_box(run.outcomes.len());
        }),
    });

    // The multi-region fleet end to end — front door, autoscaler, and
    // fault injector over 2 regions x 4 hosts — priced per *offered*
    // request (shed/lost requests still cost routing work).
    let w_fleet = WorkloadSpec::azure_sampled(requests, seed)
        .with_load(2 * 4 * SIM_CORES, 0.9)
        .generate();
    let fleet = Fleet::new(2, 4, SIM_CORES)
        .with_affinity(
            SimDuration::from_millis(10_000),
            SimDuration::from_millis(50),
        )
        .with_faults(FaultSpec::parse("crash:2+straggler:2+outage:1").expect("literal fault spec"));
    v.push(PerfScenario {
        name: "sim/fleet2x4_jsq_sfs",
        items: requests as u64,
        cfg: sim_cfg(),
        body: Box::new(move || {
            // One worker thread, same rationale as the cluster scenario
            // (the dispatcher-matrix CI job covers the fan-out).
            let run = fleet.run_with_threads(Placement::JoinShortestQueue, &fleet.sfs, &w_fleet, 1);
            std::hint::black_box(run.outcomes.len() + run.shed.len() + run.lost.len());
        }),
    });

    // -- Hot-loop microbenchmarks (one item = one operation). -----------
    for &occ in &[64usize, 4096] {
        let name: &'static str = match occ {
            64 => "micro/cfs_pick_64",
            _ => "micro/cfs_pick_4096",
        };
        let mut rq = CfsRunqueue::new();
        for i in 0..occ {
            rq.enqueue(Pid(i as u64), (i as u64) * 1_000, 1024);
        }
        let mut top = (occ as u64) * 1_000;
        v.push(PerfScenario {
            name,
            items: 1,
            cfg: MeasureConfig::default(),
            body: Box::new(move || {
                // Pick the leftmost task, then re-enqueue it at the tail —
                // one pick cycle at constant occupancy.
                let (_, pid) = rq.pop().expect("non-empty");
                top += 1_000;
                rq.enqueue(pid, top, 1024);
                std::hint::black_box(rq.total_weight());
            }),
        });
    }

    // The EEVDF pick path in steady state: one core, a deep runqueue of
    // equal-weight tasks with effectively infinite CPU demand, each timed
    // operation advancing one minimum-granularity slice — so every
    // operation is one charge + eligibility scan + deadline-ordered pick
    // cycle at constant occupancy. Prices the virtual-deadline machinery
    // against micro/cfs_pick_*.
    let mut eevdf_machine = Machine::new(MachineParams {
        cores: 1,
        kpolicy: KernelPolicyKind::Eevdf,
        ..Default::default()
    });
    for i in 0..256u64 {
        eevdf_machine.spawn(TaskSpec {
            phases: vec![Phase::Cpu(SimDuration::from_millis(1 << 30))],
            policy: Policy::NORMAL,
            label: i,
        });
    }
    let eevdf_tick = SimDuration::from_micros(750);
    let mut eevdf_now = SimTime::ZERO;
    v.push(PerfScenario {
        name: "micro/eevdf_pick",
        items: 1,
        cfg: MeasureConfig::default(),
        body: Box::new(move || {
            eevdf_now += eevdf_tick;
            eevdf_machine.advance_to(eevdf_now);
            std::hint::black_box(eevdf_machine.total_ctx_switches());
        }),
    });

    // The deadline-class pick path: admitted CBS servers cycling through
    // budget exhaustion and deadline postponement over a background band.
    // Each timed operation advances one server runtime, so one operation
    // is one budget-exhaust + postpone + earliest-deadline repick.
    let mut dl_machine = Machine::new(MachineParams {
        cores: 1,
        kpolicy: KernelPolicyKind::Deadline,
        ..Default::default()
    });
    for i in 0..64u64 {
        dl_machine.spawn(TaskSpec {
            phases: vec![Phase::Cpu(SimDuration::from_millis(1 << 30))],
            policy: Policy::NORMAL,
            label: i,
        });
    }
    let dl_tick = SimDuration::from_millis(4);
    let mut dl_now = SimTime::ZERO;
    v.push(PerfScenario {
        name: "micro/dl_pick",
        items: 1,
        cfg: MeasureConfig::default(),
        body: Box::new(move || {
            dl_now += dl_tick;
            dl_machine.advance_to(dl_now);
            std::hint::black_box(dl_machine.total_ctx_switches());
        }),
    });

    // The SfsScheduler dispatch path in isolation: one full request
    // lifecycle through the controller's hooks per operation — arrival
    // (enqueue + worker pop + FILTER promotion), completion handling
    // (worker free + queue-membership check), annotation — against a
    // machine holding a fixed pool of live processes with time frozen, so
    // the controller's own bookkeeping is all that's measured.
    let cores = 4;
    let pool = 64u64;
    let mut machine = Machine::new(MachineParams::linux(cores));
    let mut requests: Vec<(Pid, Request)> = Vec::new();
    for i in 0..pool {
        let spec = TaskSpec {
            phases: vec![Phase::Cpu(SimDuration::from_millis(1 << 30))],
            policy: Policy::NORMAL,
            label: i,
        };
        let pid = machine.spawn(spec.clone());
        requests.push((
            pid,
            Request {
                id: i,
                arrival: SimTime::ZERO,
                app: AppKind::Fib,
                duration_ms: 1.0,
                injected_io_ms: None,
                cold_start_ms: None,
                spec,
            },
        ));
    }
    let mut ctl = SfsController::new(SfsConfig::new(cores));
    let mut actions = 0u64;
    let mut i = 0usize;
    let mut now = SimTime::ZERO;
    v.push(PerfScenario {
        name: "micro/sfs_dispatch",
        items: 1,
        cfg: MeasureConfig::default(),
        body: Box::new(move || {
            let (pid, req) = &requests[i % pool as usize];
            let pid = *pid;
            i += 1;
            // Advance a tick (tiny against the pool's day-long CPU phases,
            // so the machine stays quiescent) and fire due controller
            // timers, keeping the cycle stationary: the slice timer the
            // promotion below arms is freed with its worker by the
            // completion, so none is ever due.
            now += SimDuration::from_micros(500);
            machine.advance_to(now);
            let mut view = MachineView::new(&mut machine, &mut actions);
            ctl.on_wakeup(&mut view);
            ctl.on_arrival(&mut view, req, pid);
            let rec = FinishedTask {
                pid,
                label: req.id,
                arrival: SimTime::ZERO,
                first_run: Some(SimTime::ZERO),
                finished: SimTime::ZERO,
                cpu_time: SimDuration::from_millis(1),
                io_time: SimDuration::ZERO,
                cpu_demand: SimDuration::from_millis(1),
                ideal: SimDuration::from_millis(1),
                ctx_switches: 0,
                migrations: 0,
            };
            ctl.on_notification(&mut view, &Notification::Finished(Box::new(rec)));
            let mut outcome = RequestOutcome {
                id: req.id,
                arrival: SimTime::ZERO,
                finished: SimTime::ZERO,
                turnaround: SimDuration::from_millis(1),
                ideal: SimDuration::from_millis(1),
                cpu_demand: SimDuration::from_millis(1),
                rte: 1.0,
                ctx_switches: 0,
                migrations: 0,
                queue_delay: SimDuration::ZERO,
                demoted: false,
                offloaded: false,
                filter_rounds: 0,
                io_blocks: 0,
            };
            ctl.annotate(&mut outcome);
            std::hint::black_box(outcome.queue_delay);
        }),
    });

    // The SMP balance tick in steady state: eight FIFO hogs pin every
    // core (no slice events — FIFO runs to block), a large CFS backlog
    // sits queued, and each timed operation advances exactly one balance
    // interval, firing one Balance event. The backlog equalises within
    // the first few (untimed warm-up irrelevant: calibration batches
    // absorb it) ticks, so the measured cost is the pure per-tick scan —
    // the price every SMP machine pays each interval whether or not it
    // migrates.
    let smp_cores = 8;
    let tick = SimDuration::from_millis(1);
    let mut smp_machine = Machine::new(MachineParams::linux(smp_cores).with_smp(
        SmpParams::balanced(tick, SimDuration::ZERO, SimDuration::ZERO),
    ));
    for i in 0..smp_cores as u64 {
        smp_machine.spawn(TaskSpec {
            phases: vec![Phase::Cpu(SimDuration::from_millis(1 << 30))],
            policy: Policy::Fifo { prio: 50 },
            label: i,
        });
    }
    for i in 0..256u64 {
        smp_machine.spawn(TaskSpec {
            phases: vec![Phase::Cpu(SimDuration::from_millis(1 << 20))],
            policy: Policy::NORMAL,
            label: 1_000 + i,
        });
    }
    let mut smp_now = SimTime::ZERO;
    v.push(PerfScenario {
        name: "micro/smp_balance_tick",
        items: 1,
        cfg: MeasureConfig::default(),
        body: Box::new(move || {
            smp_now += tick;
            smp_machine.advance_to(smp_now);
            std::hint::black_box(smp_machine.balance_migrations());
        }),
    });

    // The price of one CFS slice preemption (charge, requeue, pick,
    // dispatch, re-arm): each operation advances the machine to its next
    // event, which is always one preemption on one core.
    let mut preempt_machine = cfs_preempt_machine();
    v.push(PerfScenario {
        name: "micro/cfs_preempt",
        items: 1,
        cfg: MeasureConfig::default(),
        body: Box::new(move || {
            let next = preempt_machine
                .next_event_time()
                .expect("the backlog never drains");
            preempt_machine.advance_to(next);
            std::hint::black_box(preempt_machine.total_ctx_switches());
        }),
    });

    // The price of settling one tickless window after its capped run of
    // turns on a 4-task core (plus the eager boundary at its end and the
    // next window's opening): each operation advances to the next event.
    let mut window_machine = cfs_window_machine();
    v.push(PerfScenario {
        name: "micro/cfs_window_settle",
        items: 1,
        cfg: MeasureConfig::default(),
        body: Box::new(move || {
            let next = window_machine
                .next_event_time()
                .expect("the backlog never drains");
            window_machine.advance_to(next);
            std::hint::black_box(window_machine.total_ctx_switches());
        }),
    });

    // End-to-end SFS on the SMP-enabled machine (balance tick + migration
    // + affinity costs on), same workload shape as sim/sfs_azure so the
    // two medians directly price the SMP machinery.
    let w_smp = WorkloadSpec::azure_sampled(req_count, seed)
        .with_load(SIM_CORES, 0.9)
        .generate();
    let smp_on = SmpParams::balanced(
        SimDuration::from_millis(4),
        SimDuration::from_micros(30),
        SimDuration::from_micros(15),
    );
    v.push(PerfScenario {
        name: "sim/sfs_azure_smp4",
        items: req_count as u64,
        cfg: sim_cfg(),
        body: Box::new(move || {
            let run = Sim::on(MachineParams::linux(SIM_CORES).with_smp(smp_on))
                .workload(&w_smp)
                .controller(SfsController::new(sfs))
                .run();
            std::hint::black_box(run.outcomes.len());
        }),
    });

    // The same path end-to-end: a deep-backlog burst on 2 cores at 3x
    // load, where most requests travel enqueue -> pop -> overload bypass.
    let w_burst = WorkloadSpec::azure_sampled(DISPATCH_BURST, seed ^ 0xD15)
        .with_load(2, 3.0)
        .generate();
    let burst_cfg = SfsConfig::new(2);
    v.push(PerfScenario {
        name: "sim/sfs_overload_burst",
        items: DISPATCH_BURST as u64,
        cfg: sim_cfg(),
        body: Box::new(move || {
            let run = Sim::on(MachineParams::linux(2))
                .workload(&w_burst)
                .controller(SfsController::new(burst_cfg))
                .run();
            std::hint::black_box(run.telemetry.offloaded);
        }),
    });

    // -- The large-run capstone: streaming end to end. ------------------
    // Lazy workload stream -> Sim::run_streaming -> OutcomeSummary sketch
    // sink: nothing is ever materialised per request, so memory is
    // O(peak concurrency) while the scale climbs to 10M
    // (`SFS_PERF_LARGE_REQUESTS`; CI runs reduced). Unlike the scenarios
    // above, workload generation runs *inside* the timed body — at 10M
    // there is nowhere to precompute it — so its ns/req additionally
    // carries the generator; staying within ~1.3x of sim/sfs_azure is the
    // flat-scaling guarantee this scenario locks. One iteration is a whole
    // run (tens of seconds at full scale), so batches are few.
    let spec_large = WorkloadSpec::azure_sampled(large_requests, seed).with_load(SIM_CORES, 0.9);
    let sfs_stream = SfsConfig::new(SIM_CORES).without_series();
    v.push(PerfScenario {
        name: "sim/sfs_azure_10m",
        items: large_requests as u64,
        cfg: MeasureConfig {
            batch_target: Duration::from_millis(30),
            batches: 3,
        },
        body: Box::new(move || {
            let mut summary = OutcomeSummary::new();
            let run = Sim::on(MachineParams::linux(SIM_CORES))
                .controller(SfsController::new(sfs_stream))
                .run_streaming(spec_large.stream(), |o| summary.observe(&o));
            assert_eq!(run.requests, large_requests as u64);
            std::hint::black_box(summary.turnaround_ms.count());
        }),
    });

    v
}

/// Measure every scenario (in order), reporting progress through
/// `progress` (scenario name, its measurement).
pub fn run_suite(
    scenarios: Vec<PerfScenario>,
    requests: usize,
    seed: u64,
    mut progress: impl FnMut(&str, &PerfRecord),
) -> BenchReport {
    let mut out = Vec::with_capacity(scenarios.len());
    for mut s in scenarios {
        let m: Measurement = measure_with(&mut s.body, &s.cfg);
        let rec = PerfRecord {
            name: s.name.to_string(),
            median_ns_per_req: m.median_ns / s.items as f64,
            p10_ns_per_req: m.p10_ns / s.items as f64,
            p90_ns_per_req: m.p90_ns / s.items as f64,
            throughput_rps: 1e9 * s.items as f64 / m.median_ns.max(1e-9),
        };
        progress(s.name, &rec);
        out.push(rec);
    }
    BenchReport {
        schema_version: SCHEMA_VERSION,
        requests: requests as u64,
        seed,
        scenarios: out,
    }
}

impl BenchReport {
    /// Serialise to the `BENCH_sim.json` schema (stable key order).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        s.push_str(&format!("  \"requests\": {},\n", self.requests));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str("  \"scenarios\": {\n");
        for (i, r) in self.scenarios.iter().enumerate() {
            s.push_str(&format!("    \"{}\": {{\n", r.name));
            s.push_str(&format!(
                "      \"median_ns_per_req\": {:.1},\n",
                r.median_ns_per_req
            ));
            s.push_str(&format!(
                "      \"p10_ns_per_req\": {:.1},\n",
                r.p10_ns_per_req
            ));
            s.push_str(&format!(
                "      \"p90_ns_per_req\": {:.1},\n",
                r.p90_ns_per_req
            ));
            s.push_str(&format!(
                "      \"throughput_rps\": {:.1}\n",
                r.throughput_rps
            ));
            s.push_str(if i + 1 == self.scenarios.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Parse a serialised report, validating the schema version.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let root = parse_json(text)?;
        let version = root
            .get("schema_version")
            .and_then(Json::as_num)
            .ok_or("missing schema_version")? as u64;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} != supported {SCHEMA_VERSION}; \
                 regenerate the file with the current perf_suite"
            ));
        }
        let field = |obj: &Json, key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(Json::as_num)
                .ok_or(format!("missing numeric field {key:?}"))
        };
        let scen_obj = root.get("scenarios").ok_or("missing scenarios")?;
        let Json::Obj(pairs) = scen_obj else {
            return Err("scenarios is not an object".into());
        };
        let mut scenarios = Vec::with_capacity(pairs.len());
        for (name, rec) in pairs {
            scenarios.push(PerfRecord {
                name: name.clone(),
                median_ns_per_req: field(rec, "median_ns_per_req")?,
                p10_ns_per_req: field(rec, "p10_ns_per_req")?,
                p90_ns_per_req: field(rec, "p90_ns_per_req")?,
                throughput_rps: field(rec, "throughput_rps")?,
            });
        }
        Ok(BenchReport {
            schema_version: version,
            requests: root.get("requests").and_then(Json::as_num).unwrap_or(0.0) as u64,
            seed: root.get("seed").and_then(Json::as_num).unwrap_or(0.0) as u64,
            scenarios,
        })
    }
}

/// Result of diffing a fresh run against a baseline.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// One human line per scenario present in both reports.
    pub lines: Vec<String>,
    /// Scenarios whose median regressed past the tolerance band.
    pub regressions: Vec<String>,
}

/// Diff `current` against `baseline`: a scenario regresses when its median
/// exceeds `tolerance x` the baseline's. Scenarios missing on either side
/// are reported but never fail (the matrix may grow between PRs).
pub fn compare(current: &BenchReport, baseline: &BenchReport, tolerance: f64) -> Comparison {
    assert!(tolerance >= 1.0, "tolerance is a ratio >= 1");
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for cur in &current.scenarios {
        let Some(base) = baseline.scenarios.iter().find(|b| b.name == cur.name) else {
            lines.push(format!("{:<24} (new scenario, no baseline)", cur.name));
            continue;
        };
        let ratio = cur.median_ns_per_req / base.median_ns_per_req.max(1e-9);
        let verdict = if ratio > tolerance {
            regressions.push(format!(
                "{}: {:.1} ns/item vs baseline {:.1} ({:.2}x > {:.2}x band)",
                cur.name, cur.median_ns_per_req, base.median_ns_per_req, ratio, tolerance
            ));
            "REGRESSED"
        } else if ratio < 1.0 / tolerance {
            "improved"
        } else {
            "ok"
        };
        lines.push(format!(
            "{:<24} {:>10.1} ns/item  baseline {:>10.1}  ratio {:>5.2}x  {}",
            cur.name, cur.median_ns_per_req, base.median_ns_per_req, ratio, verdict
        ));
    }
    for base in &baseline.scenarios {
        if !current.scenarios.iter().any(|c| c.name == base.name) {
            lines.push(format!("{:<24} (baseline only, not run)", base.name));
        }
    }
    Comparison { lines, regressions }
}

// ----------------------------------------------------------------------
// Minimal JSON reader (objects, strings, numbers) for the BENCH schema.
// ----------------------------------------------------------------------

/// A parsed JSON value — only the shapes the BENCH schema uses.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number (all JSON numbers read as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on an object; `None` on other shapes or a missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse a JSON document (objects / strings / numbers only — the BENCH
/// schema needs nothing else; arrays, booleans and null are rejected).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(c) => Err(format!("unsupported JSON at byte {pos}: {:?}", *c as char)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        pairs.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let start = *pos;
    while *pos < b.len() && b[*pos] != b'"' {
        if b[*pos] == b'\\' {
            return Err("escape sequences unsupported".into());
        }
        *pos += 1;
    }
    if *pos >= b.len() {
        return Err("unterminated string".into());
    }
    let s = std::str::from_utf8(&b[start..*pos])
        .map_err(|e| e.to_string())?
        .to_string();
    *pos += 1;
    Ok(s)
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or(format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            requests: 400,
            seed: 7,
            scenarios: vec![
                PerfRecord {
                    name: "sim/a".into(),
                    median_ns_per_req: 1000.0,
                    p10_ns_per_req: 900.0,
                    p90_ns_per_req: 1100.0,
                    throughput_rps: 1e6,
                },
                PerfRecord {
                    name: "micro/b".into(),
                    median_ns_per_req: 50.5,
                    p10_ns_per_req: 49.5,
                    p90_ns_per_req: 52.5,
                    throughput_rps: 19.8e6,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless_at_emitted_precision() {
        let r = report();
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut r = report();
        r.schema_version = SCHEMA_VERSION + 1;
        let err = BenchReport::from_json(&r.to_json()).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn compare_flags_only_out_of_band_regressions() {
        let base = report();
        let mut cur = report();
        cur.scenarios[0].median_ns_per_req = 1900.0; // 1.9x: inside 2x band
        cur.scenarios[1].median_ns_per_req = 150.0; // ~3x: regression
        let c = compare(&cur, &base, 2.0);
        assert_eq!(c.regressions.len(), 1);
        assert!(c.regressions[0].contains("micro/b"), "{:?}", c.regressions);
        // Scenario drift is reported, never fatal.
        cur.scenarios.push(PerfRecord {
            name: "sim/new".into(),
            median_ns_per_req: 1.0,
            p10_ns_per_req: 1.0,
            p90_ns_per_req: 1.0,
            throughput_rps: 1e9,
        });
        let c = compare(&cur, &base, 2.0);
        assert_eq!(c.regressions.len(), 1);
        assert!(c.lines.iter().any(|l| l.contains("no baseline")));
    }

    #[test]
    fn minimal_parser_handles_the_schema_shapes() {
        let v = parse_json(r#"{"a": 1.5, "b": {"c": -2e3, "d": "x"}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_num), Some(1.5));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_num),
            Some(-2000.0)
        );
        assert!(parse_json("[1, 2]").is_err());
        assert!(parse_json("{\"a\": true}").is_err());
        assert!(parse_json("{\"a\": 1} trailing").is_err());
    }

    #[test]
    fn suite_names_are_unique_and_stable() {
        let s = suite(16, 16, 1);
        let names: Vec<&str> = s.iter().map(|p| p.name).collect();
        let mut uniq = names.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len(), "duplicate scenario names");
        assert!(names.contains(&"micro/cfs_pick_4096"));
        assert!(names.contains(&"micro/sfs_dispatch"));
        assert!(names.contains(&"sim/cluster4_ll_sfs"));
        assert!(names.contains(&"micro/smp_balance_tick"));
        assert!(names.contains(&"micro/cfs_preempt"));
        assert!(names.contains(&"micro/cfs_window_settle"));
        assert!(names.contains(&"micro/eevdf_pick"));
        assert!(names.contains(&"micro/dl_pick"));
        assert!(names.contains(&"sim/sfs_azure_smp4"));
        assert!(names.contains(&"sim/sfs_azure_10m"));
    }

    #[test]
    fn cfs_preempt_op_is_one_slice_preemption() {
        let mut m = cfs_preempt_machine();
        for op in 0..2_000u64 {
            let at = m.next_event_time().expect("the backlog never drains");
            let switches = m.total_ctx_switches();
            m.advance_to(at);
            assert_eq!(m.total_ctx_switches(), switches + 1, "op {op} at {at}");
        }
        assert_eq!(m.live_tasks(), PREEMPT_CORES * PREEMPT_BACKLOG);
        for core in 0..PREEMPT_CORES {
            assert_eq!(m.core_depth(core), PREEMPT_BACKLOG - 1, "core {core}");
        }
    }

    #[test]
    fn cfs_window_settle_op_crosses_one_full_window() {
        let mut m = cfs_window_machine();
        let mut per_op = None;
        for op in 0..200u64 {
            let at = m.next_event_time().expect("the backlog never drains");
            let switches = m.total_ctx_switches();
            m.advance_to(at);
            let crossed = m.total_ctx_switches() - switches;
            assert_eq!(*per_op.get_or_insert(crossed), crossed, "op {op} at {at}");
        }
        let crossed = per_op.expect("ran");
        assert!(
            crossed > 1,
            "each op must settle a window, not one boundary"
        );
        assert_eq!(m.core_depth(0), PREEMPT_BACKLOG - 1);
    }

    #[test]
    fn large_scenario_streams_at_tiny_scale() {
        // The capstone scenario's body at a toy scale: exercises the full
        // stream -> run_streaming -> sketch pipeline inside the perf
        // harness shape without the 10M cost.
        let spec = WorkloadSpec::azure_sampled(300, 5).with_load(4, 0.9);
        let mut summary = OutcomeSummary::new();
        let run = Sim::on(MachineParams::linux(4))
            .controller(SfsController::new(SfsConfig::new(4).without_series()))
            .run_streaming(spec.stream(), |o| summary.observe(&o));
        assert_eq!(run.requests, 300);
        assert_eq!(summary.requests, 300);
        assert!(summary.turnaround_ms.percentile(50.0) > 0.0);
    }
}
