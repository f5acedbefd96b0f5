//! The four workloads: what each builds before its first simulated event,
//! one untraced run, one traced run, and the checks on each run's outputs.
//!
//! Every workload is an open loop at 0.9 load: turnaround counts from each
//! request's scheduled arrival, so the generator never runs late in
//! simulated time. One simulation runs at a time, on one thread.

use sfs_core::{Baseline, OutcomeSummary, RequestOutcome, SfsConfig, SfsController, Sim};
use sfs_faas::{Cluster, ClusterRun, FaultSpec, Fleet, FleetRun, Placement};
use sfs_sched::{MachineParams, SmpParams};
use sfs_simcore::{QuantileSketch, Samples, SimDuration};
use sfs_workload::{Workload, WorkloadSpec};

use crate::clock::Clock;
use crate::trace::{
    Hook, Recorder, Trace, TracedController, TracedFactory, TracedIter, CLUSTER_RUN, FLEET_RUN,
    ROOT, SIM_RUN, SIM_STREAM,
};

/// Requests per run. 60k would put 600 beyond the p99; twice that roughly
/// halved the seed-to-seed spread of the p99s on the fleet and cluster,
/// and cut it from 0.21 to 0.12 of the median on `sfs_azure_stream`.
const REQUESTS: usize = 120_000;
/// `sfs_openlambda_smp` stays at 60k: more requests only lengthen its five
/// spikes, and its spread stayed at ~0.1.
const OPENLAMBDA_REQUESTS: usize = 60_000;

/// Table I's short bucket: ideal duration under 1550 ms.
const SHORT: SimDuration = SimDuration::from_millis(1550);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    AzureStream,
    OpenLambdaSmp,
    FleetFaults,
    ClusterCfs,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::AzureStream,
        Kind::OpenLambdaSmp,
        Kind::FleetFaults,
        Kind::ClusterCfs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::AzureStream => "sfs_azure_stream",
            Kind::OpenLambdaSmp => "sfs_openlambda_smp",
            Kind::FleetFaults => "fleet_sfs_faults",
            Kind::ClusterCfs => "cluster_ll_cfs",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Everything a workload does before its first simulated event. One run
/// consumes it.
pub enum Setup {
    Stream {
        spec: WorkloadSpec,
        params: MachineParams,
        ctrl: SfsController,
    },
    Replay {
        workload: Workload,
        params: MachineParams,
        ctrl: SfsController,
    },
    Fleet {
        workload: Workload,
        fleet: Fleet,
    },
    Cluster {
        workload: Workload,
        cluster: Cluster,
    },
}

/// Results of one run: host time, the simulated metrics, the outcome
/// digest, and any failed check.
#[derive(Debug)]
pub struct Run {
    pub wall_ns: u64,
    pub offered: u64,
    pub served: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub short_p99_ms: f64,
    pub rte95_frac: f64,
    pub migrations: u64,
    pub digest: u64,
    pub dispatch: Dispatch,
    pub problems: Vec<String>,
}

/// Deterministic dispatcher counters from `FleetRun` / `ClusterRun`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dispatch {
    pub spilled: u64,
    pub redispatches: u64,
    pub cold_starts: u64,
    pub host_imbalance: f64,
}

impl Setup {
    /// Build workload `kind` at `seed`; also returns the nanoseconds spent
    /// in `WorkloadSpec::generate` (zero for the lazy stream).
    pub fn new(kind: Kind, seed: u64, clock: &Clock) -> (Setup, u64) {
        let timed_generate = |spec: &WorkloadSpec| {
            let t0 = clock.now_ns();
            let w = spec.generate();
            (w, clock.now_ns() - t0)
        };
        let affinity = (SimDuration::from_secs(10), SimDuration::from_millis(50));
        match kind {
            Kind::AzureStream => {
                let setup = Setup::Stream {
                    spec: WorkloadSpec::azure_sampled(REQUESTS, seed).with_load(4, 0.9),
                    params: MachineParams::linux(4),
                    ctrl: SfsController::new(SfsConfig::new(4).without_series()),
                };
                (setup, 0)
            }
            Kind::OpenLambdaSmp => {
                let spec =
                    WorkloadSpec::openlambda(OPENLAMBDA_REQUESTS, seed).with_duration_load(4, 0.9);
                let (workload, gen_ns) = timed_generate(&spec);
                let smp = SmpParams::balanced(
                    SimDuration::from_millis(4),
                    SimDuration::from_micros(30),
                    SimDuration::from_micros(15),
                );
                let setup = Setup::Replay {
                    workload,
                    params: MachineParams::linux(4).with_smp(smp),
                    ctrl: SfsController::new(SfsConfig::new(4)),
                };
                (setup, gen_ns)
            }
            Kind::FleetFaults => {
                let spec = WorkloadSpec::azure_sampled(REQUESTS, seed).with_load(32, 0.9);
                let (workload, gen_ns) = timed_generate(&spec);
                let faults = FaultSpec {
                    crashes: 2,
                    stragglers: 2,
                    outages: 1,
                    ..FaultSpec::default()
                };
                let fleet = Fleet::new(2, 4, 4)
                    .with_affinity(affinity.0, affinity.1)
                    .with_faults(faults);
                (Setup::Fleet { workload, fleet }, gen_ns)
            }
            Kind::ClusterCfs => {
                let spec = WorkloadSpec::azure_sampled(REQUESTS, seed).with_load(32, 0.9);
                let (workload, gen_ns) = timed_generate(&spec);
                let cluster = Cluster::new(16, 2).with_affinity(affinity.0, affinity.1);
                (Setup::Cluster { workload, cluster }, gen_ns)
            }
        }
    }

    pub fn offered(&self) -> u64 {
        match self {
            Setup::Stream { spec, .. } => spec.n_requests as u64,
            Setup::Replay { workload, .. }
            | Setup::Fleet { workload, .. }
            | Setup::Cluster { workload, .. } => workload.len() as u64,
        }
    }

    /// One untraced run: the program's own types, nothing wrapped.
    pub fn run(self, clock: &Clock) -> Run {
        let offered = self.offered();
        match self {
            Setup::Stream { spec, params, ctrl } => {
                let t0 = clock.now_ns();
                let mut sink = StreamSink::new();
                let run = Sim::on(params)
                    .controller(ctrl)
                    .run_streaming(spec.stream(), |o| sink.observe(&o));
                let mut out = sink.finish(offered, &run);
                out.wall_ns = clock.now_ns() - t0;
                out
            }
            Setup::Replay {
                workload,
                params,
                ctrl,
            } => {
                let t0 = clock.now_ns();
                let run = Sim::on(params).workload(&workload).controller(ctrl).run();
                let wall_ns = clock.now_ns() - t0;
                replay_run(wall_ns, offered, &run)
            }
            Setup::Fleet { workload, fleet } => {
                let t0 = clock.now_ns();
                let run =
                    fleet.run_with_threads(Placement::JoinShortestQueue, &fleet.sfs, &workload, 1);
                let wall_ns = clock.now_ns() - t0;
                fleet_run(wall_ns, offered, &run)
            }
            Setup::Cluster { workload, cluster } => {
                let t0 = clock.now_ns();
                let run =
                    cluster.run_with_threads(Placement::LeastLoaded, &Baseline::Cfs, &workload, 1);
                let wall_ns = clock.now_ns() - t0;
                cluster_run(wall_ns, offered, &run)
            }
        }
    }

    /// One traced run over the same inputs; `wall_ns` is the root span,
    /// which covers what [`Setup::run`] times and nothing more.
    pub fn run_traced(self, rec: Recorder) -> (Run, Trace) {
        let offered = self.offered();
        let root = rec.enter(ROOT);
        let (mut out, rec) = match self {
            Setup::Stream { spec, params, ctrl } => {
                let ctrl = TracedController::new(ctrl, &rec);
                let arrivals = TracedIter::new(spec.stream(), &rec);
                let mut sink = StreamSink::new();
                let sim = rec.enter(SIM_STREAM);
                let run = Sim::on(params)
                    .controller(ctrl)
                    .run_streaming(arrivals, |o| {
                        rec.call(Hook::Sink, Some(o.id), || sink.summary.observe(&o));
                        sink.fold(&o);
                    });
                rec.exit(sim);
                let out = sink.finish(offered, &run);
                rec.exit(root);
                rec.absorb(&run.telemetry, run.sched_actions, run.machine_ctx_switches);
                (out, rec)
            }
            Setup::Replay {
                workload,
                params,
                ctrl,
            } => {
                let ctrl = TracedController::new(ctrl, &rec);
                let sim = rec.enter(SIM_RUN);
                let run = Sim::on(params).workload(&workload).controller(ctrl).run();
                rec.exit(sim);
                rec.exit(root);
                rec.absorb(&run.telemetry, run.sched_actions, run.machine_ctx_switches);
                (replay_run(0, offered, &run), rec)
            }
            Setup::Fleet { workload, fleet } => {
                let span = rec.enter(FLEET_RUN);
                let factory = TracedFactory::new(&fleet.sfs, rec);
                let run =
                    fleet.run_with_threads(Placement::JoinShortestQueue, &factory, &workload, 1);
                let rec = factory.into_recorder();
                rec.exit(span);
                rec.exit(root);
                (fleet_run(0, offered, &run), rec)
            }
            Setup::Cluster { workload, cluster } => {
                let span = rec.enter(CLUSTER_RUN);
                let factory = TracedFactory::new(&Baseline::Cfs, rec);
                let run = cluster.run_with_threads(Placement::LeastLoaded, &factory, &workload, 1);
                let rec = factory.into_recorder();
                rec.exit(span);
                rec.exit(root);
                (cluster_run(0, offered, &run), rec)
            }
        };
        let trace = rec.finish();
        out.wall_ns = trace.spans[root].ns();
        (out, trace)
    }
}

/// FNV-1a over outcome fields, as the golden suite's fingerprint.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Per-outcome fold shared by every workload: digest, checks, counts.
#[derive(Debug)]
struct Tally {
    digest: Digest,
    completed: u64,
    rte95: u64,
    migrations: u64,
    bad_rte: u64,
    bad_turnaround: u64,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            digest: Digest::new(),
            completed: 0,
            rte95: 0,
            migrations: 0,
            bad_rte: 0,
            bad_turnaround: 0,
        }
    }

    fn observe(&mut self, o: &RequestOutcome) {
        let d = &mut self.digest;
        for x in [
            o.id,
            o.arrival.as_nanos(),
            o.finished.as_nanos(),
            o.turnaround.as_nanos(),
            o.ideal.as_nanos(),
            o.cpu_demand.as_nanos(),
            o.rte.to_bits(),
            o.ctx_switches,
            o.migrations,
            o.queue_delay.as_nanos(),
            u64::from(o.demoted),
            u64::from(o.offloaded),
            u64::from(o.filter_rounds),
            u64::from(o.io_blocks),
        ] {
            d.mix(x);
        }
        self.completed += 1;
        self.migrations += o.migrations;
        if o.rte >= 0.95 {
            self.rte95 += 1;
        }
        if !(o.rte > 0.0 && o.rte <= 1.0) {
            self.bad_rte += 1;
        }
        if o.turnaround < o.ideal {
            self.bad_turnaround += 1;
        }
    }

    /// The run-level result; quantiles come from the caller.
    fn into_run(self, offered: u64, quantiles: [f64; 3], extra: &[u64]) -> Run {
        let mut digest = self.digest;
        for &x in extra {
            digest.mix(x);
        }
        let mut problems = Vec::new();
        if self.bad_rte > 0 {
            problems.push(format!("{} outcomes with RTE outside (0, 1]", self.bad_rte));
        }
        if self.bad_turnaround > 0 {
            problems.push(format!(
                "{} outcomes with turnaround below ideal",
                self.bad_turnaround
            ));
        }
        let [p50_ms, p99_ms, short_p99_ms] = quantiles;
        Run {
            wall_ns: 0,
            offered,
            served: self.completed,
            p50_ms,
            p99_ms,
            short_p99_ms,
            rte95_frac: self.rte95 as f64 / self.completed.max(1) as f64,
            migrations: self.migrations,
            digest: digest.0,
            dispatch: Dispatch::default(),
            problems,
        }
    }
}

/// The streaming sink: the program's `OutcomeSummary`, a sketch of the
/// short bucket, and the benchmark's per-outcome fold.
struct StreamSink {
    summary: OutcomeSummary,
    short_ms: QuantileSketch,
    tally: Tally,
}

impl StreamSink {
    fn new() -> StreamSink {
        StreamSink {
            summary: OutcomeSummary::new(),
            short_ms: QuantileSketch::new(0.01),
            tally: Tally::new(),
        }
    }

    fn observe(&mut self, o: &RequestOutcome) {
        self.summary.observe(o);
        self.fold(o);
    }

    /// The benchmark's own part of [`StreamSink::observe`]: everything but
    /// the program's `OutcomeSummary`, which the traced run times alone.
    fn fold(&mut self, o: &RequestOutcome) {
        if o.ideal < SHORT {
            self.short_ms.push(o.turnaround.as_millis_f64());
        }
        self.tally.observe(o);
    }

    fn finish(self, offered: u64, run: &sfs_core::StreamRun) -> Run {
        let t = &self.summary.turnaround_ms;
        let quantiles = [
            t.percentile(50.0),
            t.percentile(99.0),
            self.short_ms.percentile(99.0),
        ];
        let extra = [
            run.requests,
            run.sched_actions,
            run.machine_ctx_switches,
            run.sim_span.as_nanos(),
        ];
        let mut out = self.tally.into_run(offered, quantiles, &extra);
        for (what, n) in [
            ("StreamRun::requests", run.requests),
            ("OutcomeSummary::requests", self.summary.requests),
        ] {
            if n != offered {
                out.problems
                    .push(format!("{what} = {n}, offered {offered}"));
            }
        }
        out
    }
}

/// Fold a materialised outcome list (sorted by id) and take exact
/// nearest-rank quantiles.
fn fold_outcomes(outcomes: &[RequestOutcome], offered: u64, extra: &[u64]) -> Run {
    let mut tally = Tally::new();
    let mut all = Vec::with_capacity(outcomes.len());
    let mut short = Vec::new();
    for o in outcomes {
        tally.observe(o);
        let ms = o.turnaround.as_millis_f64();
        all.push(ms);
        if o.ideal < SHORT {
            short.push(ms);
        }
    }
    let mut all = Samples::from_vec(all);
    let mut short = Samples::from_vec(short);
    let quantiles = [
        all.percentile(50.0),
        all.percentile(99.0),
        short.percentile(99.0),
    ];
    tally.into_run(offered, quantiles, extra)
}

/// Exactly one outcome per request id `0..offered`, in id order.
fn one_per_id(outcomes: &[RequestOutcome], offered: u64) -> Option<String> {
    if outcomes.len() as u64 != offered {
        return Some(format!(
            "{} outcomes for {offered} requests",
            outcomes.len()
        ));
    }
    outcomes
        .iter()
        .enumerate()
        .find(|(i, o)| o.id != *i as u64)
        .map(|(i, o)| format!("outcome {i} has id {}", o.id))
}

fn replay_run(wall_ns: u64, offered: u64, run: &sfs_core::RunOutcome) -> Run {
    let extra = [
        run.sched_actions,
        run.machine_ctx_switches,
        run.sim_span.as_nanos(),
    ];
    let mut out = fold_outcomes(&run.outcomes, offered, &extra);
    out.wall_ns = wall_ns;
    out.problems.extend(one_per_id(&run.outcomes, offered));
    out
}

fn fleet_run(wall_ns: u64, offered: u64, run: &FleetRun) -> Run {
    let mut extra: Vec<u64> = vec![run.spilled, run.redispatches, run.cold_starts];
    extra.extend(&run.shed);
    extra.push(u64::MAX);
    extra.extend(&run.lost);
    let mut out = fold_outcomes(&run.outcomes, offered, &extra);
    out.wall_ns = wall_ns;
    out.dispatch = Dispatch {
        spilled: run.spilled,
        redispatches: run.redispatches,
        cold_starts: run.cold_starts,
        host_imbalance: 0.0,
    };
    if !run.conservation_holds() || run.requests as u64 != offered {
        out.problems.push(format!(
            "conservation: {} completed + {} shed + {} lost != {offered}",
            run.outcomes.len(),
            run.shed.len(),
            run.lost.len()
        ));
    }
    if run.outcomes.windows(2).any(|w| w[0].id >= w[1].id) {
        out.problems
            .push("duplicate or unsorted outcome ids".into());
    }
    out
}

fn cluster_run(wall_ns: u64, offered: u64, run: &ClusterRun) -> Run {
    let mut extra: Vec<u64> = run.per_host.iter().map(|&n| n as u64).collect();
    extra.push(run.cold_starts);
    let mut out = fold_outcomes(&run.outcomes, offered, &extra);
    out.wall_ns = wall_ns;
    let max = run.per_host.iter().copied().max().unwrap_or(0) as f64;
    let mean = run.per_host.iter().sum::<usize>() as f64 / run.per_host.len().max(1) as f64;
    out.dispatch = Dispatch {
        cold_starts: run.cold_starts,
        host_imbalance: if mean > 0.0 { max / mean } else { 0.0 },
        ..Dispatch::default()
    };
    out.problems.extend(one_per_id(&run.outcomes, offered));
    out
}
