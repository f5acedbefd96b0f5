//! Shared scenario definitions for the golden-metrics and determinism
//! suites: a fixed matrix of small-but-representative experiment points,
//! each a pure function of `(name, n, seed)`.

use std::cell::Cell;

use sfs_core::{
    Baseline, Controller, ControllerFactory, HistoryPriority, MachineView, RequestOutcome,
    SfsConfig, SfsController, Sim, Telemetry, UserMlfq,
};
use sfs_faas::{Cluster, FaultSpec, Fleet, OpenLambda, OpenLambdaParams, Placement};
use sfs_sched::{MachineParams, Notification, Pid, Policy, SmpParams};
use sfs_simcore::{Samples, SimDuration, SimTime};
use sfs_workload::{Request, Workload, WorkloadSpec};

/// Scenario names locked by `tests/golden/*.txt` (one file each).
pub const SCENARIOS: &[&str] = &[
    "azure80_sfs",
    "azure80_cfs",
    "azure100_sfs",
    "replay_sfs",
    "diurnal_sfs",
    "correlated_sfs",
    "coldstart_sfs",
    "openlambda_sfs",
    // Controllers the policy-driven API added (PR 3).
    "azure100_history",
    "azure100_mlfq",
    "replay_slosfs",
    // Multi-host dispatch on the live-feedback cluster (PR 4). The
    // cluster runs its hosts on one worker here — the enclosing sweep
    // already spans the suite's thread matrix, and nested fan-out would
    // not change the (thread-count-invariant) numbers anyway.
    "cluster4_jsq_sfs",
    "cluster4_hash_sfs",
    "cluster4_l2l_cfs",
    // The two remaining placements, locked before `Cluster` became a
    // one-region `Fleet` so the refactor is shown exact on every placement
    // whose ring seeding it did not touch.
    "cluster4_rr_sfs",
    "cluster4_ll_cfs",
    // SMP machine model with the load balancer + migration/affinity costs
    // enabled (PR 6). Every other scenario runs the default (all-off)
    // `SmpParams`, which is what keeps their snapshots byte-identical to
    // the pre-SMP machine.
    "smp2_sfs",
    "smp4_sfs",
    "smp8_sfs",
    "smp4_cfs",
    "smp8_cfs",
    "smp4_burst_sfs",
    "smp4_burst_cfs",
    // Pluggable kernel policies (PR 9): each new policy locked under
    // azure replay and under an SMP overload burst at 4 cores. The CFS
    // machine is *not* re-snapshotted — its bit-exactness against the
    // pre-refactor machine is the refactor's acceptance gate, enforced by
    // every scenario above staying byte-identical.
    "eevdf4_replay",
    "eevdf4_burst",
    "dl4_replay",
    "dl4_burst",
    "srp4_replay",
    "srp4_burst",
    // The SRTF oracle baseline under the same two workloads: no scenario
    // above runs it, so these are what pin its schedules.
    "srtf4_replay",
    "srtf4_burst",
    // Multi-region fleet behind the global front door (PR 10): fault-free
    // autoscaled baseline, the full fault mix (crashes + stragglers +
    // correlated outage, attributably conserved), and consistent-hash
    // placement over a CFS fleet. Units run on one worker here, same
    // rationale as the cluster scenarios.
    "fleet2_jsq_sfs",
    "fleet2_faults_sfs",
    "fleet2_hash_cfs",
];

/// The fleet scenario subset (front door + autoscaler + fault injection).
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub const FLEET_SCENARIOS: &[&str] = &["fleet2_jsq_sfs", "fleet2_faults_sfs", "fleet2_hash_cfs"];

/// Request count: small enough for CI, large enough for stable shapes.
pub const N: usize = 1_200;
/// Fixed master seed for the whole suite.
pub const SEED: u64 = 0x5EED_601D;

fn sfs(cores: usize, w: sfs_workload::Workload) -> Vec<RequestOutcome> {
    Sim::on(MachineParams::linux(cores))
        .workload(&w)
        .controller(SfsController::new(SfsConfig::new(cores)))
        .run()
        .outcomes
}

fn run_factory(
    f: &dyn ControllerFactory,
    cores: usize,
    w: sfs_workload::Workload,
) -> Vec<RequestOutcome> {
    f.run_on(cores, &w).outcomes
}

/// Run one named scenario to completion.
pub fn run_scenario(name: &str) -> Vec<RequestOutcome> {
    match name {
        "azure80_sfs" => sfs(
            8,
            WorkloadSpec::azure_sampled(N, SEED)
                .with_load(8, 0.8)
                .generate(),
        ),
        "azure80_cfs" => run_factory(
            &Baseline::Cfs,
            8,
            WorkloadSpec::azure_sampled(N, SEED)
                .with_load(8, 0.8)
                .generate(),
        ),
        "azure100_sfs" => sfs(
            8,
            WorkloadSpec::azure_sampled(N, SEED)
                .with_load(8, 1.0)
                .generate(),
        ),
        "replay_sfs" => sfs(
            8,
            WorkloadSpec::azure_replay(N, SEED)
                .with_load(8, 0.85)
                .generate(),
        ),
        "diurnal_sfs" => sfs(
            8,
            WorkloadSpec::diurnal(N, SEED).with_load(8, 0.85).generate(),
        ),
        "correlated_sfs" => sfs(
            8,
            WorkloadSpec::correlated_bursts(N, SEED)
                .with_load(8, 0.85)
                .generate(),
        ),
        "coldstart_sfs" => sfs(
            8,
            WorkloadSpec::cold_start_mix(N, SEED)
                .with_load(8, 0.85)
                .generate(),
        ),
        "openlambda_sfs" => {
            let w = WorkloadSpec::openlambda(N, SEED)
                .with_duration_load(24, 0.88)
                .generate();
            OpenLambda::new(OpenLambdaParams::default()).run(&SfsConfig::new(24), 24, &w)
        }
        "azure100_history" => {
            let w = WorkloadSpec::azure_sampled(N, SEED)
                .with_load(8, 1.0)
                .generate();
            Sim::on(MachineParams::linux(8))
                .workload(&w)
                .controller(HistoryPriority::new())
                .run()
                .outcomes
        }
        "azure100_mlfq" => {
            let w = WorkloadSpec::azure_sampled(N, SEED)
                .with_load(8, 1.0)
                .generate();
            Sim::on(MachineParams::linux(8))
                .workload(&w)
                .controller(UserMlfq::default())
                .run()
                .outcomes
        }
        "replay_slosfs" => {
            let w = WorkloadSpec::azure_replay(N, SEED)
                .with_load(8, 0.85)
                .generate();
            Sim::on(MachineParams::linux(8))
                .workload(&w)
                .controller(SfsController::with_slo(
                    SfsConfig::new(8),
                    SimDuration::from_millis(250),
                ))
                .run()
                .outcomes
        }
        "cluster4_jsq_sfs" => cluster_scenario(Placement::JoinShortestQueue, None),
        "cluster4_hash_sfs" => cluster_scenario(Placement::ConsistentHash, None),
        "cluster4_l2l_cfs" => cluster_scenario(Placement::LongToLightest, Some(Baseline::Cfs)),
        "cluster4_rr_sfs" => cluster_scenario(Placement::RoundRobin, None),
        "cluster4_ll_cfs" => cluster_scenario(Placement::LeastLoaded, Some(Baseline::Cfs)),
        "smp2_sfs" => smp_scenario(2, None, false),
        "smp4_sfs" => smp_scenario(4, None, false),
        "smp8_sfs" => smp_scenario(8, None, false),
        "smp4_cfs" => smp_scenario(4, Some(Baseline::Cfs), false),
        "smp8_cfs" => smp_scenario(8, Some(Baseline::Cfs), false),
        "smp4_burst_sfs" => smp_scenario(4, None, true),
        "smp4_burst_cfs" => smp_scenario(4, Some(Baseline::Cfs), true),
        "eevdf4_replay" => kpolicy_scenario(Baseline::Eevdf, false),
        "eevdf4_burst" => kpolicy_scenario(Baseline::Eevdf, true),
        "dl4_replay" => kpolicy_scenario(Baseline::Deadline, false),
        "dl4_burst" => kpolicy_scenario(Baseline::Deadline, true),
        "srp4_replay" => kpolicy_scenario(Baseline::Srp, false),
        "srp4_burst" => kpolicy_scenario(Baseline::Srp, true),
        "srtf4_replay" => kpolicy_scenario(Baseline::Srtf, false),
        "srtf4_burst" => kpolicy_scenario(Baseline::Srtf, true),
        "fleet2_jsq_sfs" | "fleet2_faults_sfs" | "fleet2_hash_cfs" => {
            run_fleet_scenario_threads(name, 1)
        }
        other => panic!("unknown scenario {other:?}"),
    }
}

/// The standard "SMP on" machine: balance every 4ms, 30µs migration
/// penalty, 15µs cross-core resume cost.
pub fn smp_on() -> SmpParams {
    SmpParams::balanced(
        SimDuration::from_millis(4),
        SimDuration::from_micros(30),
        SimDuration::from_micros(15),
    )
}

/// SFS (or a kernel baseline) on a balancing SMP machine: azure replay at
/// 0.85 load, or an overload burst (sampled traces at 1.5× capacity) when
/// `burst` is set.
fn smp_scenario(cores: usize, baseline: Option<Baseline>, burst: bool) -> Vec<RequestOutcome> {
    let w = if burst {
        WorkloadSpec::azure_sampled(N, SEED)
            .with_load(cores, 1.5)
            .generate()
    } else {
        WorkloadSpec::azure_replay(N, SEED)
            .with_load(cores, 0.85)
            .generate()
    };
    let params = MachineParams::linux(cores).with_smp(smp_on());
    let sim = Sim::on(params).workload(&w);
    let run = match baseline {
        Some(b) => sim.boxed_controller(b.build()).run(),
        None => sim
            .controller(SfsController::new(SfsConfig::new(cores)))
            .run(),
    };
    run.outcomes
}

/// A kernel-policy baseline on a 4-core machine: azure replay at 0.85
/// load on the plain machine, or an overload burst (sampled traces at
/// 1.5× capacity) on the balancing SMP machine when `burst` is set.
///
/// The policy is selected by [`Baseline::configure_machine`].
fn kpolicy_scenario(b: Baseline, burst: bool) -> Vec<RequestOutcome> {
    let cores = 4;
    let w = if burst {
        WorkloadSpec::azure_sampled(N, SEED)
            .with_load(cores, 1.5)
            .generate()
    } else {
        WorkloadSpec::azure_replay(N, SEED)
            .with_load(cores, 0.85)
            .generate()
    };
    let mut params = MachineParams::linux(cores);
    if burst {
        params = params.with_smp(smp_on());
    }
    b.configure_machine(&mut params);
    Sim::on(params)
        .workload(&w)
        .boxed_controller(b.build())
        .run()
        .outcomes
}

/// A 2-region × 4-host × 4-core fleet under the warm-container affinity
/// model with the default front door and autoscaler; `faulted` adds the
/// full fault mix (crashes + stragglers + a correlated AZ outage) and the
/// run must still conserve every request. Only completed outcomes feed
/// the fingerprint/metrics lock — shed or lost requests shift the
/// completed count, so conservation drift still trips the snapshot.
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn run_fleet_scenario_threads(name: &str, threads: usize) -> Vec<RequestOutcome> {
    match name {
        "fleet2_jsq_sfs" => fleet_scenario(Placement::JoinShortestQueue, None, false, threads),
        "fleet2_faults_sfs" => fleet_scenario(Placement::JoinShortestQueue, None, true, threads),
        "fleet2_hash_cfs" => fleet_scenario(
            Placement::ConsistentHash,
            Some(Baseline::Cfs),
            false,
            threads,
        ),
        other => panic!("unknown fleet scenario {other:?}"),
    }
}

fn fleet_scenario(
    placement: Placement,
    baseline: Option<Baseline>,
    faulted: bool,
    threads: usize,
) -> Vec<RequestOutcome> {
    let w = WorkloadSpec::azure_sampled(N, SEED)
        .with_load(32, 0.9)
        .generate();
    let mut fleet = Fleet::new(2, 4, 4).with_affinity(
        SimDuration::from_millis(5_000),
        SimDuration::from_millis(40),
    );
    if faulted {
        fleet = fleet.with_faults(
            FaultSpec::parse("crash:3+straggler:2+outage:1").expect("literal fault spec"),
        );
    }
    let run = match baseline {
        Some(b) => fleet.run_with_threads(placement, &b, &w, threads),
        None => fleet.run_with_threads(placement, &fleet.sfs, &w, threads),
    };
    assert!(run.conservation_holds(), "fleet scenario lost requests");
    run.outcomes
}

/// A 4-host × 4-core cluster under the warm-container affinity model;
/// `baseline` swaps the per-host policy from SFS to a kernel baseline.
fn cluster_scenario(placement: Placement, baseline: Option<Baseline>) -> Vec<RequestOutcome> {
    let w = WorkloadSpec::azure_sampled(N, SEED)
        .with_load(16, 0.9)
        .generate();
    let cluster = Cluster::new(4, 4).with_affinity(
        SimDuration::from_millis(5_000),
        SimDuration::from_millis(40),
    );
    let run = match baseline {
        Some(b) => cluster.run_with_threads(placement, &b, &w, 1),
        None => cluster.run_with_threads(placement, &cluster.sfs, &w, 1),
    };
    run.outcomes
}

/// FNV-1a over every outcome's exact fields: any bit-level drift in any
/// request changes the fingerprint.
pub fn fingerprint(outcomes: &[RequestOutcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for o in outcomes {
        mix(o.id);
        mix(o.arrival.as_nanos());
        mix(o.finished.as_nanos());
        mix(o.turnaround.as_nanos());
        mix(o.rte.to_bits());
        mix(o.ctx_switches);
        mix(o.queue_delay.as_nanos());
        mix(o.demoted as u64);
        mix(o.offloaded as u64);
        mix(o.filter_rounds as u64);
        mix(o.io_blocks as u64);
    }
    h
}

/// The headline metrics of a run, exactly formatted: a decimal rendering
/// for humans plus the raw IEEE-754 bits as the machine-checked lock.
pub fn metrics_report(name: &str, outcomes: &[RequestOutcome]) -> String {
    let durs: Vec<f64> = outcomes
        .iter()
        .map(|o| o.turnaround.as_millis_f64())
        .collect();
    let mut samples = Samples::from_vec(durs.clone());
    let p50 = samples.percentile(50.0);
    let p99 = samples.percentile(99.0);
    let mean = durs.iter().sum::<f64>() / durs.len().max(1) as f64;
    let span_s = outcomes
        .iter()
        .map(|o| o.finished.as_nanos())
        .max()
        .unwrap_or(1) as f64
        / 1e9;
    let throughput = outcomes.len() as f64 / span_s;
    let f = |v: f64| format!("{v} bits={:#018x}", v.to_bits());
    format!(
        "scenario={name}\nrequests={}\np50_ms={}\np99_ms={}\nmean_ms={}\nthroughput_rps={}\nfingerprint={:#018x}\n",
        outcomes.len(),
        f(p50),
        f(p99),
        f(mean),
        f(throughput),
        fingerprint(outcomes),
    )
}

/// A delegating [`Controller`] that counts `on_wakeup` calls. `Sim` makes
/// exactly one per drive step, so the count is the run's step count.
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub struct StepCounter<'a, C> {
    pub inner: C,
    pub steps: &'a Cell<u64>,
}

impl<C: Controller> Controller for StepCounter<'_, C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn dispatch_policy(&mut self, req: &Request) -> Policy {
        self.inner.dispatch_policy(req)
    }
    fn on_arrival(&mut self, m: &mut MachineView<'_>, req: &Request, pid: Pid) {
        self.inner.on_arrival(m, req, pid)
    }
    fn on_notification(&mut self, m: &mut MachineView<'_>, note: &Notification) {
        self.inner.on_notification(m, note)
    }
    fn next_wakeup(&self) -> Option<SimTime> {
        self.inner.next_wakeup()
    }
    fn on_wakeup(&mut self, m: &mut MachineView<'_>) {
        self.steps.set(self.steps.get() + 1);
        self.inner.on_wakeup(m)
    }
    fn annotate(&mut self, outcome: &mut RequestOutcome) {
        self.inner.annotate(outcome)
    }
    fn finish(&mut self, telemetry: &mut Telemetry) {
        self.inner.finish(telemetry)
    }
    fn analytic(&self, workload: &Workload) -> Option<Vec<RequestOutcome>> {
        self.inner.analytic(workload)
    }
}
