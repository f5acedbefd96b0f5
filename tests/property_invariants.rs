//! Property-style invariants over randomly generated workloads and
//! scheduler configurations: nothing is lost, time is conserved, and the
//! metrics stay in range, for every scheduling policy. The identities
//! themselves live in `support/audit.rs`; this suite generates the cases.
//!
//! Randomised cases come from the workspace's seeded `SimRng` (no proptest
//! dependency): each test runs a fixed number of cases from a fixed seed,
//! so failures are exactly reproducible.

#[path = "support/audit.rs"]
mod audit;

use audit::MachineAudit;
use sfs_repro::sched::{KernelPolicyKind, Machine, MachineParams, Phase, Policy, TaskSpec};
use sfs_repro::sfs::{Baseline, ControllerFactory, SfsConfig, SfsController, Sim};
use sfs_repro::simcore::{SimDuration, SimRng, SimTime};
use sfs_repro::workload::{DurationDist, IatSpec, WorkloadSpec};

/// Root seed of every case in this suite.
const ROOT: u64 = 0x1AB5;

/// A small random task mix with optional I/O phases.
fn arb_tasks(rng: &mut SimRng) -> Vec<(u64, TaskSpec)> {
    let n = rng.uniform_u64(1, 39) as usize;
    let mut at = 0u64;
    (0..n)
        .map(|i| {
            at += rng.uniform_u64(1, 599);
            let cpu = rng.uniform_u64(1, 399);
            let io = rng.uniform_u64(0, 79);
            let mut phases = Vec::new();
            if io > 0 {
                phases.push(Phase::Io(SimDuration::from_millis(io)));
            }
            phases.push(Phase::Cpu(SimDuration::from_millis(cpu)));
            let policy = match rng.uniform_u64(0, 2) {
                0 => Policy::NORMAL,
                1 => Policy::Fifo { prio: 50 },
                _ => Policy::Rr { prio: 50 },
            };
            (
                at,
                TaskSpec {
                    phases,
                    policy,
                    label: i as u64,
                },
            )
        })
        .collect()
}

#[test]
fn machine_conserves_work_and_loses_nothing() {
    for case in 0..48 {
        let mut rng = audit::case_rng(ROOT, &["machine_conserves", &case.to_string()]);
        let tasks = arb_tasks(&mut rng);
        let cores = rng.uniform_u64(1, 4) as usize;
        let srtf = rng.chance(0.5);
        let ctx = format!("case {case}: cores={cores} srtf={srtf}");
        let params = MachineParams {
            cores,
            ctx_switch_cost: SimDuration::ZERO,
            kpolicy: if srtf {
                KernelPolicyKind::Srtf
            } else {
                KernelPolicyKind::Cfs
            },
            ..Default::default()
        };
        // The open-loop drive: each task spawns at its arrival.
        let mut m = Machine::new(params);
        let mut audit = MachineAudit::default();
        for (ms, spec) in tasks {
            let notes = m.advance_to(SimTime::ZERO + SimDuration::from_millis(ms));
            audit.after_advance(&m, &notes, &ctx);
            audit.spawn(&mut m, spec);
        }
        let notes = m.run_until_quiescent();
        audit.at_quiescence(&m, &notes, &ctx);
    }
}

#[test]
fn sfs_completes_arbitrary_workloads() {
    for case in 0..48 {
        let mut rng = audit::case_rng(ROOT, &["sfs_completes", &case.to_string()]);
        let n = rng.uniform_u64(20, 149) as usize;
        let seed = rng.uniform_u64(0, 999);
        let load = rng.uniform(0.3, 1.1);
        let cores = rng.uniform_u64(2, 6) as usize;
        let io_fraction = rng.uniform(0.0, 0.9);
        let fixed_slice = if rng.chance(0.5) {
            Some(rng.uniform_u64(20, 299))
        } else {
            None
        };
        let mut spec = WorkloadSpec::azure_sampled(n, seed);
        spec.io_fraction = io_fraction;
        let w = spec.with_load(cores, load).generate();
        let mut cfg = SfsConfig::new(cores);
        if let Some(ms) = fixed_slice {
            cfg = cfg.with_fixed_slice(ms);
        }
        let r = Sim::on(MachineParams::linux(cores))
            .workload(&w)
            .controller(SfsController::new(cfg))
            .run();
        let ctx = format!("case {case}: n={n} seed={seed} cores={cores}");
        audit::requests(&w, &r.outcomes, &ctx);
        audit::demand_as_submitted(&w, &r.outcomes, &ctx);
        // Offload + demotion counts can never exceed the request count…
        assert!(r.telemetry.offloaded <= n as u64, "{ctx}");
        // …though a request may be demoted after several I/O rounds.
        assert!(
            r.telemetry.polls == 0 || r.telemetry.polled_tasks > 0 || io_fraction == 0.0,
            "{ctx}"
        );
    }
}

#[test]
fn baselines_agree_on_totals() {
    for case in 0..32 {
        let mut rng = audit::case_rng(ROOT, &["baselines_totals", &case.to_string()]);
        let n = rng.uniform_u64(20, 119) as usize;
        let seed = rng.uniform_u64(0, 499);
        let w = WorkloadSpec {
            durations: DurationDist::LogUniform {
                lo_ms: 2.0,
                hi_ms: 500.0,
            },
            iat: IatSpec::Poisson { mean_ms: 30.0 },
            ..WorkloadSpec::azure_sampled(n, seed)
        }
        .generate();
        for b in [Baseline::Cfs, Baseline::Fifo, Baseline::Rr, Baseline::Srtf] {
            let outs = b.run_on(3, &w).outcomes;
            let ctx = format!("case {case}: {}", b.name());
            audit::requests(&w, &outs, &ctx);
            audit::demand_as_submitted(&w, &outs, &ctx);
        }
    }
}
