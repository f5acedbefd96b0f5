//! Region-scale serving: a multi-region fleet of host pools behind one
//! global front door (the paper's §IX composition argument scaled out).
//! This is the repository's one dispatcher loop: a
//! [`Cluster`](crate::Cluster) is its one-region spelling.
//!
//! Three subsystems compose here:
//!
//! * **Front door** — every request enters at a global anycast point and is
//!   routed to a region by *latency-aware* scoring: per-region RTT cost
//!   plus the live backlog-per-core feedback of the region's dispatcher
//!   model (the predicted-completion discipline of [`HostLoad`]).
//!   A region whose backlog crosses the spill threshold stops attracting
//!   traffic (spillover to the next-best region); when every region is
//!   past the shed threshold the request is **shed** at the door.
//! * **Autoscaler** — each region scales its active host count on queue
//!   depth, with warm-pool keep-alive economics extending the PR 4
//!   affinity model: scale-down *parks* a host warm (it drains its queue
//!   and keeps its containers) for a keep-alive window before releasing
//!   it; scale-up prefers reactivating a parked host (instant, warm) over
//!   booting a released one (boot delay, cold warm-pool).
//! * **Fault injection** — deterministic, seed-derived scenarios: host
//!   crashes (in-flight work re-dispatched through the front door),
//!   straggler hosts (a slowdown factor on everything they run), and
//!   correlated AZ outages (a contiguous host group down and back up).
//!   Every request ends in exactly one attributable state — *completed*,
//!   *shed* (front door refused it), or *lost* (a fault victim the fleet
//!   could not re-place) — and [`FleetRun::conservation_holds`] checks the
//!   sum equals the workload size.
//!
//! # Determinism under parallel execution
//!
//! A run has two phases. *Routing* is one sequential event loop — a pure
//! function of `(fleet config, placement, workload)` — over a single event
//! heap ordered by `(time, class, sequence)`; fault plans derive from the
//! fleet seed by pure
//! [`SeedSequencer`] / [`SimRng`] functions before the loop starts.
//! *Execution* fans out over [`sfs_simcore::parallel::run_indexed`], one
//! independent `Sim` per `(region, host, epoch)` unit with results written
//! into index-ordered slots (a host's epoch increments each time a crash
//! or re-provision resets it, so pre- and post-crash placements never
//! share a sim). A 1000-host faulted fleet run is therefore bit-identical
//! at any thread count. All bookkeeping that is ever iterated lives in
//! `BTreeMap`s: iteration order is part of the routing function.
//!
//! Execution maps outcomes back to requests by workload index
//! ([`sfs_core::run_rebased`]), never by request id, so any set of unique
//! ids — sparse, large, out of arrival order — routes and re-bases.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use sfs_core::{run_rebased, ControllerFactory, RequestOutcome, SfsConfig};
use sfs_sched::Phase;
use sfs_simcore::{parallel, SeedSequencer, SimDuration, SimRng, SimTime};
use sfs_workload::{Table1Sampler, Workload};

use crate::cluster::{
    argmin_f64_over, argmin_jsq_over, bounded_load_cap, build_ring, func_key, ring_walk, Affinity,
    HostLoad, Placement,
};

/// One region of the fleet: an RTT cost from the front door plus a pool of
/// host slots the autoscaler moves between active / parked / released.
#[derive(Debug, Clone)]
pub struct RegionConfig {
    /// One-way network cost (ms) from the front door to this region; part
    /// of both the routing score and every request's latency.
    pub rtt_ms: f64,
    /// Hosts active at t = 0.
    pub initial_hosts: usize,
    /// Total provisionable host slots (the autoscaler's ceiling).
    pub max_hosts: usize,
    /// Floor the autoscaler never parks below.
    pub min_hosts: usize,
}

/// Front-door routing thresholds, in modelled backlog milliseconds per
/// active core (the dispatcher's own predicted-completion units).
#[derive(Debug, Clone, Copy)]
pub struct FrontDoor {
    /// A region at/above this backlog stops attracting new work while any
    /// region below it exists (spillover).
    pub spill_backlog_ms: f64,
    /// When every region is at/above this backlog, requests are shed at
    /// the door instead of queued into an already-drowning fleet.
    pub shed_backlog_ms: f64,
}

/// Per-region autoscaler policy with warm-pool keep-alive economics.
#[derive(Debug, Clone, Copy)]
pub struct Autoscaler {
    /// Evaluation period.
    pub tick: SimDuration,
    /// Scale up when mean outstanding depth per active host exceeds this.
    pub up_depth_per_host: f64,
    /// Scale down when mean outstanding depth per active host falls below.
    pub down_depth_per_host: f64,
    /// How long a scaled-down host stays parked warm before release.
    pub warm_park: SimDuration,
    /// Boot delay when scale-up must provision a released (cold) slot.
    pub boot_delay: SimDuration,
}

impl Default for Autoscaler {
    fn default() -> Autoscaler {
        Autoscaler {
            tick: SimDuration::from_millis(500),
            up_depth_per_host: 4.0,
            down_depth_per_host: 0.5,
            warm_park: SimDuration::from_secs(5),
            boot_delay: SimDuration::from_millis(250),
        }
    }
}

/// A deterministic fault scenario: counts per fault kind, expanded into a
/// concrete seed-derived plan by [`Fleet::run_with_threads`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Host crashes (in-flight work re-dispatched; host repairs and
    /// rejoins cold after [`FaultSpec::repair`]).
    pub crashes: usize,
    /// Straggler hosts: everything placed on one after onset runs
    /// [`FaultSpec::straggler_factor`]× slower.
    pub stragglers: usize,
    /// Slowdown multiplier for straggler hosts.
    pub straggler_factor: f64,
    /// Correlated AZ outages: a contiguous half of a region's host slots
    /// goes down and rejoins together.
    pub outages: usize,
    /// How many times one request may be re-dispatched after fault evictions
    /// before it is declared lost.
    pub max_redispatch: u32,
    /// Crash repair time (down → active again, cold).
    pub repair: SimDuration,
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec {
            crashes: 0,
            stragglers: 0,
            straggler_factor: 4.0,
            outages: 0,
            max_redispatch: 3,
            repair: SimDuration::from_millis(500),
        }
    }
}

impl FaultSpec {
    /// Parse the CLI spelling: `+`-separated `kind:count` terms, e.g.
    /// `crash:2+straggler:3+outage:1`. Unknown kinds and malformed counts
    /// are errors naming the offending term (the repo-wide strict-parse
    /// contract).
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for term in s.split('+') {
            let (kind, count) = term
                .split_once(':')
                .ok_or_else(|| format!("fault term `{term}` is not `kind:count`"))?;
            let n: usize = count
                .parse()
                .map_err(|_| format!("fault count `{count}` in `{term}` is not a number"))?;
            match kind {
                "crash" => spec.crashes = n,
                "straggler" => spec.stragglers = n,
                "outage" => spec.outages = n,
                _ => {
                    return Err(format!(
                        "unknown fault kind `{kind}` in `{term}` (expected crash/straggler/outage)"
                    ))
                }
            }
        }
        Ok(spec)
    }

    /// Whether the spec injects anything at all.
    pub fn is_active(&self) -> bool {
        self.crashes > 0 || self.stragglers > 0 || self.outages > 0
    }
}

/// A multi-region fleet of SFS host pools behind one global front door.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The regions, in routing-index order.
    pub regions: Vec<RegionConfig>,
    /// Cores per host (uniform across the fleet).
    pub cores_per_host: usize,
    /// SFS configuration applied on every host by [`Fleet::run`].
    pub sfs: SfsConfig,
    /// Warm-container affinity model; `None` disables cold starts.
    pub affinity: Option<Affinity>,
    /// Front-door spill/shed thresholds.
    pub front_door: FrontDoor,
    /// Autoscaler policy; `None` pins every region at its initial hosts.
    pub autoscaler: Option<Autoscaler>,
    /// Fault scenario; `None` runs fault-free.
    pub faults: Option<FaultSpec>,
    /// EWMA smoothing for per-host turnaround feedback.
    pub ewma_alpha: f64,
    /// Fleet seed: hash rings, fault plans, and every other stochastic
    /// input derive from it by pure functions.
    pub seed: u64,
    /// Virtual nodes per host on each region's hash ring.
    pub vnodes: usize,
}

/// Per-region counters surfaced by [`FleetRun`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionStats {
    /// Requests dispatched into this region (initial and re-dispatched).
    pub placed: u64,
    /// The same dispatches per host slot, indexed by slot.
    pub placed_per_host: Vec<u64>,
    /// Cold starts the affinity model charged here.
    pub cold_starts: u64,
    /// Host-crash events (including outage members).
    pub crashes: u64,
    /// Cold scale-ups (released slot booted).
    pub boots: u64,
    /// Warm scale-ups (parked host reactivated).
    pub reactivations: u64,
    /// Scale-downs (host parked warm).
    pub parks: u64,
    /// Parked hosts whose keep-alive expired (released).
    pub releases: u64,
    /// Host-milliseconds spent parked warm — the keep-alive bill.
    pub warm_host_ms: f64,
}

/// Result of a fleet run: completed outcomes plus the attributable
/// remainder (shed / lost), per-region economics, and fault accounting.
#[derive(Debug)]
pub struct FleetRun {
    /// Outcomes of every completed request, sorted by id, re-based to the
    /// front-door arrival (turnaround includes RTT and re-dispatch time).
    pub outcomes: Vec<RequestOutcome>,
    /// Ids the front door shed on arrival (every region past the shed
    /// threshold or without an active host).
    pub shed: Vec<u64>,
    /// Ids lost to faults: evicted by a crash/outage and either out of
    /// re-dispatch budget or re-routable nowhere.
    pub lost: Vec<u64>,
    /// The intra-region placement used.
    pub placement: Placement,
    /// Per-region counters, indexed like [`Fleet::regions`].
    pub per_region: Vec<RegionStats>,
    /// Total affinity cold starts.
    pub cold_starts: u64,
    /// Fault-driven re-dispatches that were successfully re-placed.
    pub redispatches: u64,
    /// Placements routed away from the request's cheapest-RTT home region
    /// (spillover volume).
    pub spilled: u64,
    /// Workload size the run was asked to serve.
    pub requests: usize,
}

impl FleetRun {
    /// The conservation-under-failure invariant: every request is exactly
    /// one of completed / shed / lost.
    pub fn conservation_holds(&self) -> bool {
        self.outcomes.len() + self.shed.len() + self.lost.len() == self.requests
    }

    /// Mean turnaround (ms) over completed requests, `None` when none
    /// completed.
    pub fn mean_turnaround_ms(&self) -> Option<f64> {
        (!self.outcomes.is_empty()).then(|| {
            self.outcomes
                .iter()
                .map(|o| o.turnaround.as_millis_f64())
                .sum::<f64>()
                / self.outcomes.len() as f64
        })
    }
}

/// Host lifecycle under the autoscaler and fault injector.
#[derive(Debug, Clone, Copy, PartialEq)]
enum HostState {
    /// Serving and eligible for placement.
    Active,
    /// Scaled down: draining its queue, containers warm, not placeable.
    /// Reactivation before `until` is free; at `until` the slot releases.
    ParkedWarm { since: SimTime, until: SimTime },
    /// Cold scale-up in progress; becomes Active at the pending HostUp.
    Booting,
    /// Crashed or in an AZ outage; rejoins at the pending HostUp.
    Down,
    /// Unprovisioned slot.
    Released,
}

/// Event classes: at equal timestamps, completions land before fault /
/// lifecycle transitions, which land before autoscaler ticks, which land
/// before the re-dispatches those transitions queued — so a re-dispatch
/// never targets a host that died in the same instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// Predicted completion of dispatch `seq` on (region, host).
    Completion {
        region: usize,
        host: usize,
        seq: u64,
    },
    /// Host crash (fault plan).
    Crash { region: usize, host: usize },
    /// Straggler onset (fault plan).
    Straggler {
        region: usize,
        host: usize,
        factor_bits: u64,
    },
    /// AZ outage start: `group` = 0 for the low half of the slots, 1 high.
    OutageStart {
        region: usize,
        group: usize,
        until: SimTime,
    },
    /// A booting / repaired / outage-ended host comes (back) up, cold.
    HostUp { region: usize, host: usize },
    /// A parked host's keep-alive window ended (stale if reactivated).
    ParkExpire { region: usize, host: usize },
    /// Autoscaler evaluation for one region.
    ScaleTick { region: usize },
    /// Re-route a fault-evicted request through the front door.
    Redispatch { idx: usize, attempts: u32 },
}

impl EventKind {
    fn class(&self) -> u8 {
        match self {
            EventKind::Completion { .. } => 0,
            EventKind::Crash { .. }
            | EventKind::Straggler { .. }
            | EventKind::OutageStart { .. }
            | EventKind::HostUp { .. }
            | EventKind::ParkExpire { .. } => 1,
            EventKind::ScaleTick { .. } => 2,
            EventKind::Redispatch { .. } => 3,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    at: SimTime,
    class: u8,
    /// Global push sequence: the deterministic final tie-break.
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.class, self.seq).cmp(&(other.at, other.class, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A dispatched request the routing model still considers in flight.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    idx: usize,
    region: usize,
    host: usize,
    service_ms: f64,
    long: bool,
    turnaround_ms: f64,
    attempts: u32,
}

/// One placement the execution phase will realise.
#[derive(Debug, Clone, Copy)]
struct PlacedReq {
    idx: usize,
    at_host: SimTime,
    penalty: SimDuration,
    /// Straggler factor at placement time (1.0 = healthy host).
    slow: f64,
}

/// Mutable per-region routing state.
struct RegionState {
    cfg: RegionConfig,
    hosts: Vec<HostLoad>,
    state: Vec<HostState>,
    /// Current slowdown factor per slot (1.0 = healthy).
    straggle: Vec<f64>,
    /// Reset generation per slot: placements key execution units by it.
    epoch: Vec<u32>,
    /// Timestamp of the latest scheduled HostUp per slot; earlier HostUp
    /// events in the heap are stale and must be ignored.
    pending_up: Vec<Option<SimTime>>,
    ring: Vec<(u64, usize)>,
    /// In-flight count across the region's hosts.
    depth: usize,
    rr: usize,
    stats: RegionStats,
}

impl RegionState {
    fn active_count(&self) -> usize {
        self.state
            .iter()
            .filter(|s| matches!(s, HostState::Active))
            .count()
    }

    /// The front door's load signal: modelled backlog (ms) per active
    /// core. Infinite when the region has no active host.
    fn backlog_per_core_ms(&self, now: SimTime, cores_per_host: usize) -> f64 {
        let active = self.active_count();
        if active == 0 {
            return f64::INFINITY;
        }
        let backlog: f64 = self
            .state
            .iter()
            .zip(self.hosts.iter())
            .filter(|(s, _)| matches!(s, HostState::Active))
            .map(|(_, h)| h.backlog_ms(now))
            .sum();
        backlog / (active * cores_per_host) as f64
    }
}

/// The sequential routing phase's full output.
struct FleetPlan {
    /// Execution units keyed `(region, host, epoch)` — BTreeMap order is
    /// the deterministic fan-out order.
    units: BTreeMap<(usize, usize, u32), Vec<PlacedReq>>,
    shed: Vec<u64>,
    lost: Vec<u64>,
    per_region: Vec<RegionStats>,
    cold_starts: u64,
    redispatches: u64,
    spilled: u64,
}

impl Fleet {
    /// A fleet of `regions` × `initial hosts` × `cores_per_host` with a
    /// deterministic RTT ladder (5 ms + 25 ms per region index), default
    /// front door and autoscaler, no affinity model, and no faults.
    pub fn new(regions: usize, hosts_per_region: usize, cores_per_host: usize) -> Fleet {
        assert!(regions >= 1 && hosts_per_region >= 1 && cores_per_host >= 1);
        let regions = (0..regions)
            .map(|i| RegionConfig {
                rtt_ms: 5.0 + 25.0 * i as f64,
                initial_hosts: hosts_per_region,
                max_hosts: hosts_per_region + (hosts_per_region / 2).max(1),
                min_hosts: 1,
            })
            .collect();
        Fleet {
            regions,
            cores_per_host,
            sfs: SfsConfig::new(cores_per_host),
            affinity: None,
            front_door: FrontDoor {
                spill_backlog_ms: 250.0,
                shed_backlog_ms: 10_000.0,
            },
            autoscaler: Some(Autoscaler::default()),
            faults: None,
            ewma_alpha: 0.2,
            seed: 0xF1EE_7D00,
            vnodes: 64,
        }
    }

    /// Enable the warm-container affinity model fleet-wide.
    pub fn with_affinity(mut self, keep_alive: SimDuration, cold_start: SimDuration) -> Fleet {
        self.affinity = Some(Affinity {
            keep_alive,
            cold_start,
        });
        self
    }

    /// Inject a fault scenario.
    pub fn with_faults(mut self, faults: FaultSpec) -> Fleet {
        self.faults = Some(faults);
        self
    }

    /// Route `workload` through the front door and run every execution
    /// unit to completion under this fleet's SFS configuration.
    pub fn run(&self, placement: Placement, workload: &Workload) -> FleetRun {
        self.run_with(placement, &self.sfs, workload)
    }

    /// As [`Fleet::run`] with any per-host scheduling policy; hosts share
    /// nothing but the routing model. Executes on the default worker count.
    pub fn run_with(
        &self,
        placement: Placement,
        factory: &(dyn ControllerFactory + Sync),
        workload: &Workload,
    ) -> FleetRun {
        self.run_with_threads(placement, factory, workload, parallel::default_threads())
    }

    /// As [`Fleet::run_with`] with an explicit worker-thread count. The
    /// result is bit-identical for every `threads` value ≥ 1.
    pub fn run_with_threads(
        &self,
        placement: Placement,
        factory: &(dyn ControllerFactory + Sync),
        workload: &Workload,
        threads: usize,
    ) -> FleetRun {
        let plan = self.route(placement, workload);
        let units: Vec<&Vec<PlacedReq>> = plan.units.values().collect();
        let unit_outcomes = parallel::run_indexed(units.len(), threads, |u| {
            // Sub-workload: this host-epoch's requests with arrivals moved
            // to host-arrival time, the cold penalty as a leading CPU
            // phase, and every CPU phase stretched by the straggler factor
            // in force at placement. Outcomes are re-based to the
            // front-door arrival, the OpenLambda idiom: RTT, queueing, and
            // re-dispatch delay are part of what the user felt.
            let derived = units[u].iter().map(|p| {
                let mut r = workload.requests[p.idx].clone();
                r.arrival = p.at_host;
                if p.slow != 1.0 {
                    for ph in r.spec.phases.iter_mut() {
                        if let Phase::Cpu(d) = ph {
                            *ph = Phase::Cpu(d.mul_f64(p.slow));
                        }
                    }
                }
                if !p.penalty.is_zero() {
                    r.spec
                        .phases
                        .insert(0, Phase::Cpu(p.penalty.mul_f64(p.slow)));
                }
                (p.idx, r)
            });
            run_rebased(workload, derived, |sub| {
                factory.run_on(self.cores_per_host, sub).outcomes
            })
        });
        let mut outcomes: Vec<RequestOutcome> = unit_outcomes.into_iter().flatten().collect();
        outcomes.sort_by_key(|o| o.id);
        FleetRun {
            outcomes,
            shed: plan.shed,
            lost: plan.lost,
            placement,
            per_region: plan.per_region,
            cold_starts: plan.cold_starts,
            redispatches: plan.redispatches,
            spilled: plan.spilled,
            requests: workload.len(),
        }
    }

    /// The sequential routing phase: front door + autoscaler + fault
    /// injection in one event loop. Pure in `(self, placement, workload)`.
    fn route(&self, placement: Placement, workload: &Workload) -> FleetPlan {
        let t1 = Table1Sampler::new();
        let aff = self.affinity;
        let faults = self.faults.unwrap_or_default();
        let mut regions: Vec<RegionState> = self
            .regions
            .iter()
            .enumerate()
            .map(|(i, cfg)| {
                assert!(
                    cfg.initial_hosts >= 1
                        && cfg.initial_hosts <= cfg.max_hosts
                        && cfg.min_hosts >= 1,
                    "region {i}: need 1 <= min <= initial <= max hosts"
                );
                RegionState {
                    hosts: (0..cfg.max_hosts)
                        .map(|_| HostLoad::new(self.cores_per_host))
                        .collect(),
                    state: (0..cfg.max_hosts)
                        .map(|h| {
                            if h < cfg.initial_hosts {
                                HostState::Active
                            } else {
                                HostState::Released
                            }
                        })
                        .collect(),
                    straggle: vec![1.0; cfg.max_hosts],
                    epoch: vec![0; cfg.max_hosts],
                    pending_up: vec![None; cfg.max_hosts],
                    ring: build_ring(
                        cfg.max_hosts,
                        self.vnodes,
                        SeedSequencer::new(self.seed).seed_for(i as u64),
                    ),
                    depth: 0,
                    rr: 0,
                    stats: RegionStats {
                        placed_per_host: vec![0; cfg.max_hosts],
                        ..RegionStats::default()
                    },
                    cfg: cfg.clone(),
                }
            })
            .collect();
        // The cheapest-RTT region is every request's "home"; placements
        // elsewhere count as spillover.
        let home = argmin_index(self.regions.iter().map(|r| r.rtt_ms)).unwrap_or(0);

        let order = workload.arrival_order();
        let mut heap: BinaryHeap<std::cmp::Reverse<Event>> = BinaryHeap::new();
        let mut event_seq = 0u64;
        let push = |heap: &mut BinaryHeap<std::cmp::Reverse<Event>>,
                    seq: &mut u64,
                    at: SimTime,
                    kind: EventKind| {
            heap.push(std::cmp::Reverse(Event {
                at,
                class: kind.class(),
                seq: *seq,
                kind,
            }));
            *seq += 1;
        };

        // Seed-derived fault plan + first autoscaler ticks, both pinned to
        // the workload's arrival span.
        if let (Some(&first), Some(&last)) = (order.first(), order.last()) {
            let t0 = workload.requests[first].arrival;
            let span_ms = workload.requests[last].arrival.since(t0).as_millis_f64();
            if faults.is_active() && !self.regions.is_empty() {
                let mut rng =
                    SimRng::seed_from_u64(SeedSequencer::new(self.seed).seed_for(0xFA017));
                let at_frac = |rng: &mut SimRng, lo: f64, hi: f64| {
                    t0 + SimDuration::from_millis_f64(rng.uniform(lo, hi) * span_ms.max(1.0))
                };
                for _ in 0..faults.crashes {
                    let at = at_frac(&mut rng, 0.10, 0.80);
                    let region = rng.uniform_u64(0, self.regions.len() as u64 - 1) as usize;
                    let host =
                        rng.uniform_u64(0, self.regions[region].initial_hosts as u64 - 1) as usize;
                    push(
                        &mut heap,
                        &mut event_seq,
                        at,
                        EventKind::Crash { region, host },
                    );
                }
                for _ in 0..faults.stragglers {
                    let at = at_frac(&mut rng, 0.05, 0.40);
                    let region = rng.uniform_u64(0, self.regions.len() as u64 - 1) as usize;
                    let host =
                        rng.uniform_u64(0, self.regions[region].initial_hosts as u64 - 1) as usize;
                    push(
                        &mut heap,
                        &mut event_seq,
                        at,
                        EventKind::Straggler {
                            region,
                            host,
                            factor_bits: faults.straggler_factor.to_bits(),
                        },
                    );
                }
                for _ in 0..faults.outages {
                    let at = at_frac(&mut rng, 0.20, 0.60);
                    let until = at + SimDuration::from_millis_f64(0.20 * span_ms.max(1.0));
                    let region = rng.uniform_u64(0, self.regions.len() as u64 - 1) as usize;
                    let group = rng.uniform_u64(0, 1) as usize;
                    push(
                        &mut heap,
                        &mut event_seq,
                        at,
                        EventKind::OutageStart {
                            region,
                            group,
                            until,
                        },
                    );
                }
            }
            if let Some(auto) = self.autoscaler {
                for r in 0..self.regions.len() {
                    push(
                        &mut heap,
                        &mut event_seq,
                        t0 + auto.tick,
                        EventKind::ScaleTick { region: r },
                    );
                }
            }
        }

        let mut units: BTreeMap<(usize, usize, u32), Vec<PlacedReq>> = BTreeMap::new();
        let mut in_flight: BTreeMap<u64, InFlight> = BTreeMap::new();
        let mut last_seen: BTreeMap<(usize, usize, u64), SimTime> = BTreeMap::new();
        // Shed and lost requests by workload index; ids are looked up once,
        // at the end.
        let mut shed: Vec<usize> = Vec::new();
        let mut lost: Vec<usize> = Vec::new();
        let mut dispatch_seq = 0u64;
        let mut cold_starts = 0u64;
        let mut redispatches = 0u64;
        let mut spilled = 0u64;

        // One dispatch: route the request at the front door, place it in
        // the chosen region, admit it into the dispatcher model.
        macro_rules! dispatch {
            ($idx:expr, $now:expr, $attempts:expr) => {{
                let idx: usize = $idx;
                let now: SimTime = $now;
                let attempts: u32 = $attempts;
                let r = &workload.requests[idx];
                match self.route_region(&regions, now) {
                    None => {
                        if attempts == 0 {
                            shed.push(idx);
                        } else {
                            lost.push(idx);
                        }
                    }
                    Some(region) => {
                        let key = func_key(&t1, r);
                        let long = r.duration_ms >= sfs_workload::LONG_THRESHOLD_MS;
                        let at_host =
                            now + SimDuration::from_millis_f64(regions[region].cfg.rtt_ms);
                        let host = pick_host(placement, &mut regions[region], key, long, at_host);
                        match host {
                            None => {
                                if attempts == 0 {
                                    shed.push(idx);
                                } else {
                                    lost.push(idx);
                                }
                            }
                            Some(host) => {
                                let reg = &mut regions[region];
                                let mut service_ms = r.spec.cpu_demand().as_millis_f64();
                                let mut penalty = SimDuration::ZERO;
                                if let Some(aff) = aff {
                                    let warm = last_seen
                                        .get(&(region, host, key))
                                        .is_some_and(|&t| at_host <= t + aff.keep_alive);
                                    if !warm {
                                        penalty = aff.cold_start;
                                        service_ms += aff.cold_start.as_millis_f64();
                                        cold_starts += 1;
                                        reg.stats.cold_starts += 1;
                                    }
                                }
                                let slow = reg.straggle[host];
                                service_ms *= slow;
                                let finish = reg.hosts[host].admit(at_host, service_ms);
                                reg.hosts[host].depth += 1;
                                reg.depth += 1;
                                if long {
                                    reg.hosts[host].outstanding_long_ms += service_ms;
                                }
                                reg.stats.placed += 1;
                                reg.stats.placed_per_host[host] += 1;
                                if region != home {
                                    spilled += 1;
                                }
                                if attempts > 0 {
                                    redispatches += 1;
                                }
                                last_seen.insert((region, host, key), finish);
                                in_flight.insert(
                                    dispatch_seq,
                                    InFlight {
                                        idx,
                                        region,
                                        host,
                                        service_ms,
                                        long,
                                        turnaround_ms: finish.since(at_host).as_millis_f64(),
                                        attempts,
                                    },
                                );
                                push(
                                    &mut heap,
                                    &mut event_seq,
                                    finish,
                                    EventKind::Completion {
                                        region,
                                        host,
                                        seq: dispatch_seq,
                                    },
                                );
                                dispatch_seq += 1;
                                units
                                    .entry((region, host, reg.epoch[host]))
                                    .or_default()
                                    .push(PlacedReq {
                                        idx,
                                        at_host,
                                        penalty,
                                        slow,
                                    });
                            }
                        }
                    }
                }
            }};
        }

        // One fleet event. `arrivals_done` gates autoscaler re-arming so
        // the post-arrival drain terminates.
        macro_rules! handle {
            ($ev:expr, $arrivals_done:expr) => {{
                let ev: Event = $ev;
                match ev.kind {
                    EventKind::Completion { region, host, seq } => {
                        // Stale if the dispatch was evicted by a crash.
                        if let Some(fl) = in_flight.remove(&seq) {
                            let reg = &mut regions[region];
                            reg.hosts[host].depth -= 1;
                            reg.depth -= 1;
                            if fl.long {
                                reg.hosts[host].outstanding_long_ms =
                                    (reg.hosts[host].outstanding_long_ms - fl.service_ms).max(0.0);
                            }
                            reg.hosts[host].ewma_turnaround_ms =
                                Some(match reg.hosts[host].ewma_turnaround_ms {
                                    Some(e) => {
                                        self.ewma_alpha * fl.turnaround_ms
                                            + (1.0 - self.ewma_alpha) * e
                                    }
                                    None => fl.turnaround_ms,
                                });
                        }
                    }
                    EventKind::Crash { region, host } => {
                        if take_host_down(
                            &mut regions[region],
                            region,
                            host,
                            ev.at,
                            &mut units,
                            &mut in_flight,
                            &mut last_seen,
                            &mut lost,
                            &faults,
                            |at, kind| push(&mut heap, &mut event_seq, at, kind),
                        ) {
                            let up_at = ev.at + faults.repair;
                            regions[region].pending_up[host] = Some(up_at);
                            push(
                                &mut heap,
                                &mut event_seq,
                                up_at,
                                EventKind::HostUp { region, host },
                            );
                        }
                    }
                    EventKind::Straggler {
                        region,
                        host,
                        factor_bits,
                    } => {
                        regions[region].straggle[host] = f64::from_bits(factor_bits);
                    }
                    EventKind::OutageStart {
                        region,
                        group,
                        until,
                    } => {
                        // The whole group goes down now and rejoins
                        // together at the outage end.
                        for h in az_members(regions[region].cfg.max_hosts, group) {
                            if take_host_down(
                                &mut regions[region],
                                region,
                                h,
                                ev.at,
                                &mut units,
                                &mut in_flight,
                                &mut last_seen,
                                &mut lost,
                                &faults,
                                |at, kind| push(&mut heap, &mut event_seq, at, kind),
                            ) {
                                regions[region].pending_up[h] = Some(until);
                                push(
                                    &mut heap,
                                    &mut event_seq,
                                    until,
                                    EventKind::HostUp { region, host: h },
                                );
                            }
                        }
                    }
                    EventKind::HostUp { region, host } => {
                        let reg = &mut regions[region];
                        // Stale unless this is the most recently scheduled
                        // rejoin for the slot (a boot's HostUp must not
                        // revive a host an outage took down in between).
                        if reg.pending_up[host] == Some(ev.at)
                            && matches!(reg.state[host], HostState::Down | HostState::Booting)
                        {
                            reg.pending_up[host] = None;
                            reg.state[host] = HostState::Active;
                            reg.hosts[host].reset(ev.at);
                            reg.epoch[host] += 1;
                            clear_warmth(&mut last_seen, region, host);
                        }
                    }
                    EventKind::ParkExpire { region, host } => {
                        let reg = &mut regions[region];
                        if let HostState::ParkedWarm { since, until } = reg.state[host] {
                            // Stale if the host was reactivated and parked
                            // again with a fresher window.
                            if until == ev.at {
                                if reg.hosts[host].depth > 0 {
                                    // Still draining: a slot cannot release
                                    // with work on it — extend the window
                                    // (the bill keeps running from `since`).
                                    if let Some(auto) = self.autoscaler {
                                        let next = ev.at + auto.warm_park;
                                        reg.state[host] =
                                            HostState::ParkedWarm { since, until: next };
                                        push(
                                            &mut heap,
                                            &mut event_seq,
                                            next,
                                            EventKind::ParkExpire { region, host },
                                        );
                                    }
                                } else {
                                    reg.state[host] = HostState::Released;
                                    reg.stats.warm_host_ms += until.since(since).as_millis_f64();
                                    reg.stats.releases += 1;
                                }
                            }
                        }
                    }
                    EventKind::ScaleTick { region } => {
                        if let Some(auto) = self.autoscaler {
                            scale_region(&mut regions[region], region, &auto, ev.at, |at, kind| {
                                push(&mut heap, &mut event_seq, at, kind)
                            });
                            if !$arrivals_done || !in_flight.is_empty() {
                                push(
                                    &mut heap,
                                    &mut event_seq,
                                    ev.at + auto.tick,
                                    EventKind::ScaleTick { region },
                                );
                            }
                        }
                    }
                    EventKind::Redispatch { idx, attempts } => {
                        dispatch!(idx, ev.at, attempts);
                    }
                }
            }};
        }

        for &idx in &order {
            let now = workload.requests[idx].arrival;
            while let Some(&std::cmp::Reverse(ev)) = heap.peek() {
                if ev.at > now {
                    break;
                }
                heap.pop();
                handle!(ev, false);
            }
            dispatch!(idx, now, 0);
        }
        // Arrivals done: drain the remaining events (late completions,
        // rejoins, park expiries; ticks stop re-arming once idle).
        while let Some(std::cmp::Reverse(ev)) = heap.pop() {
            handle!(ev, true);
        }

        let ids = |idxs: Vec<usize>| {
            let mut ids: Vec<u64> = idxs.into_iter().map(|i| workload.requests[i].id).collect();
            ids.sort_unstable();
            ids
        };
        FleetPlan {
            units,
            shed: ids(shed),
            lost: ids(lost),
            per_region: regions.into_iter().map(|r| r.stats).collect(),
            cold_starts,
            redispatches,
            spilled,
        }
    }

    /// Front-door routing: among regions under the spill threshold, the
    /// lowest `rtt + backlog/core` score wins; if none, any region under
    /// the shed threshold; if none (or no region has an active host), the
    /// request is shed. Ties resolve to the lowest region index.
    fn route_region(&self, regions: &[RegionState], now: SimTime) -> Option<usize> {
        let loads: Vec<f64> = regions
            .iter()
            .map(|r| r.backlog_per_core_ms(now, self.cores_per_host))
            .collect();
        for threshold in [
            self.front_door.spill_backlog_ms,
            self.front_door.shed_backlog_ms,
        ] {
            let best = argmin_index(loads.iter().zip(regions.iter()).map(|(&l, r)| {
                if l < threshold {
                    r.cfg.rtt_ms + l
                } else {
                    f64::INFINITY
                }
            }));
            if let Some(b) = best {
                if loads[b] < threshold {
                    return Some(b);
                }
            }
        }
        None
    }
}

/// Intra-region placement over the active hosts only — the [`Placement`]
/// disciplines, restricted to the slate the autoscaler and fault injector
/// currently allow. `None` when no host is active.
fn pick_host(
    placement: Placement,
    reg: &mut RegionState,
    key: u64,
    long: bool,
    now: SimTime,
) -> Option<usize> {
    let n = reg.cfg.max_hosts;
    let actives = || (0..n).filter(|&h| matches!(reg.state[h], HostState::Active));
    let rr_next = |reg: &mut RegionState| {
        // Rotate over slots, skipping inactive ones; deterministic because
        // the cursor advances exactly to the chosen slot + 1.
        for step in 0..n {
            let h = (reg.rr + step) % n;
            if matches!(reg.state[h], HostState::Active) {
                reg.rr = h + 1;
                return Some(h);
            }
        }
        None
    };
    match placement {
        Placement::RoundRobin => rr_next(reg),
        Placement::LeastLoaded => {
            argmin_f64_over(actives().map(|h| (h, &reg.hosts[h])), |h| h.backlog_ms(now))
        }
        Placement::LongToLightest => {
            if long {
                argmin_f64_over(actives().map(|h| (h, &reg.hosts[h])), |h| {
                    h.outstanding_long_ms
                })
            } else {
                rr_next(reg)
            }
        }
        Placement::JoinShortestQueue => argmin_jsq_over(&reg.hosts, actives()),
        Placement::ConsistentHash => {
            let active_n = reg.active_count();
            if active_n == 0 {
                return None;
            }
            let cap = bounded_load_cap(reg.depth, active_n);
            ring_walk(&reg.ring, &reg.hosts, key, cap, |h| {
                matches!(reg.state[h], HostState::Active)
            })
            .or_else(|| argmin_f64_over(actives().map(|h| (h, &reg.hosts[h])), |h| h.depth as f64))
        }
    }
}

/// Index of the minimum of a float iterator under `total_cmp`, ties to the
/// lowest index; `None` on empty input.
fn argmin_index(scores: impl Iterator<Item = f64>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, v) in scores.enumerate() {
        best = match best {
            Some((_, bv)) if v.total_cmp(&bv).is_lt() => Some((i, v)),
            Some(b) => Some(b),
            None => Some((i, v)),
        };
    }
    best.map(|(i, _)| i)
}

/// The contiguous host slots of AZ `group` (0 = low half, 1 = high half).
fn az_members(max_hosts: usize, group: usize) -> std::ops::Range<usize> {
    let mid = max_hosts / 2;
    if group == 0 {
        0..mid.max(1)
    } else {
        mid.max(1)..max_hosts
    }
}

/// Drop all warm-pool entries of one host (its containers died with it).
fn clear_warmth(
    last_seen: &mut BTreeMap<(usize, usize, u64), SimTime>,
    region: usize,
    host: usize,
) {
    let keys: Vec<(usize, usize, u64)> = last_seen
        .range((region, host, 0)..=(region, host, u64::MAX))
        .map(|(&k, _)| k)
        .collect();
    for k in keys {
        last_seen.remove(&k);
    }
}

/// Take one host down (crash or outage member): evict its in-flight work
/// back through the front door, wipe its model and warm pool. Returns
/// whether the host actually went down (false for slots already down or
/// released — a fault on an unprovisioned slot is a no-op).
#[allow(clippy::too_many_arguments)]
fn take_host_down(
    reg: &mut RegionState,
    region: usize,
    host: usize,
    at: SimTime,
    units: &mut BTreeMap<(usize, usize, u32), Vec<PlacedReq>>,
    in_flight: &mut BTreeMap<u64, InFlight>,
    last_seen: &mut BTreeMap<(usize, usize, u64), SimTime>,
    lost: &mut Vec<usize>,
    faults: &FaultSpec,
    mut push: impl FnMut(SimTime, EventKind),
) -> bool {
    match reg.state[host] {
        HostState::Down | HostState::Released => return false,
        HostState::ParkedWarm { since, .. } => {
            reg.stats.warm_host_ms += at.since(since).as_millis_f64();
        }
        HostState::Active | HostState::Booting => {}
    }
    // Victims in dispatch order (BTreeMap is seq-ordered): still-running
    // requests lose their progress and re-enter the front door now.
    let victims: Vec<(u64, InFlight)> = in_flight
        .iter()
        .filter(|(_, fl)| fl.region == region && fl.host == host)
        .map(|(&s, &fl)| (s, fl))
        .collect();
    if !victims.is_empty() {
        let epoch = reg.epoch[host];
        let unit = units
            .get_mut(&(region, host, epoch))
            .expect("victims imply placements in the current epoch");
        unit.retain(|p| !victims.iter().any(|(_, fl)| fl.idx == p.idx));
        if unit.is_empty() {
            units.remove(&(region, host, epoch));
        }
    }
    for (seq, fl) in victims {
        in_flight.remove(&seq);
        reg.hosts[host].depth -= 1;
        reg.depth -= 1;
        if fl.attempts >= faults.max_redispatch {
            lost.push(fl.idx);
        } else {
            push(
                at,
                EventKind::Redispatch {
                    idx: fl.idx,
                    attempts: fl.attempts + 1,
                },
            );
        }
    }
    reg.state[host] = HostState::Down;
    reg.hosts[host].reset(at);
    clear_warmth(last_seen, region, host);
    reg.stats.crashes += 1;
    true
}

/// One autoscaler evaluation for one region.
fn scale_region(
    reg: &mut RegionState,
    region: usize,
    auto: &Autoscaler,
    now: SimTime,
    mut push: impl FnMut(SimTime, EventKind),
) {
    let active = reg.active_count();
    if active == 0 {
        return;
    }
    let depth_per_host = reg.depth as f64 / active as f64;
    if depth_per_host > auto.up_depth_per_host {
        // Prefer the cheapest capacity: a parked host is warm and instant.
        if let Some(h) =
            (0..reg.cfg.max_hosts).find(|&h| matches!(reg.state[h], HostState::ParkedWarm { .. }))
        {
            if let HostState::ParkedWarm { since, .. } = reg.state[h] {
                reg.stats.warm_host_ms += now.since(since).as_millis_f64();
            }
            reg.state[h] = HostState::Active;
            reg.stats.reactivations += 1;
        } else if let Some(h) =
            (0..reg.cfg.max_hosts).find(|&h| matches!(reg.state[h], HostState::Released))
        {
            reg.state[h] = HostState::Booting;
            reg.stats.boots += 1;
            let up_at = now + auto.boot_delay;
            reg.pending_up[h] = Some(up_at);
            push(up_at, EventKind::HostUp { region, host: h });
        }
    } else if depth_per_host < auto.down_depth_per_host && active > reg.cfg.min_hosts {
        // Park the highest-index active host: it drains its queue warm and
        // releases when the keep-alive window lapses.
        if let Some(h) = (0..reg.cfg.max_hosts)
            .rev()
            .find(|&h| matches!(reg.state[h], HostState::Active))
        {
            let until = now + auto.warm_park;
            reg.state[h] = HostState::ParkedWarm { since: now, until };
            reg.stats.parks += 1;
            push(until, EventKind::ParkExpire { region, host: h });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_workload::WorkloadSpec;

    fn workload(n: usize, cores: usize, load: f64, seed: u64) -> Workload {
        WorkloadSpec::azure_sampled(n, seed)
            .with_load(cores, load)
            .generate()
    }

    /// Every request id appears exactly once across completed / shed /
    /// lost — the conservation-under-failure invariant.
    fn assert_conserved(run: &FleetRun, n: usize) {
        assert!(run.conservation_holds(), "sizes do not sum to {n}");
        let mut ids: Vec<u64> = run.outcomes.iter().map(|o| o.id).collect();
        ids.extend_from_slice(&run.shed);
        ids.extend_from_slice(&run.lost);
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..n as u64).collect::<Vec<u64>>(),
            "every id exactly once across completed/shed/lost"
        );
    }

    #[test]
    fn fault_free_fleet_completes_everything() {
        let fleet = Fleet::new(2, 4, 2);
        let w = workload(600, 16, 0.7, 31);
        for p in Placement::ALL {
            let run = fleet.run(p, &w);
            assert_eq!(run.outcomes.len(), 600, "{}: shed or lost work", p.name());
            assert!(run.shed.is_empty() && run.lost.is_empty(), "{}", p.name());
            assert_conserved(&run, 600);
            for (i, o) in run.outcomes.iter().enumerate() {
                assert_eq!(o.id, i as u64);
                assert!(o.rte > 0.0 && o.rte <= 1.0);
            }
        }
    }

    #[test]
    fn turnaround_includes_rtt() {
        // Every placement pays at least the home region's RTT.
        let fleet = Fleet::new(2, 2, 2);
        let w = workload(200, 8, 0.5, 33);
        let run = fleet.run(Placement::JoinShortestQueue, &w);
        let min_rtt = SimDuration::from_millis_f64(5.0);
        for o in &run.outcomes {
            assert!(
                o.turnaround >= o.ideal + min_rtt,
                "req {} turnaround {} below ideal+RTT",
                o.id,
                o.turnaround
            );
        }
    }

    #[test]
    fn results_identical_for_every_thread_count() {
        // The acceptance gate in miniature: a faulted, autoscaled,
        // affinity-enabled 2-region fleet is bit-identical at any thread
        // count.
        let fleet = Fleet::new(2, 4, 2)
            .with_affinity(
                SimDuration::from_millis(2_000),
                SimDuration::from_millis(25),
            )
            .with_faults(FaultSpec {
                crashes: 2,
                stragglers: 1,
                outages: 1,
                ..FaultSpec::default()
            });
        let w = workload(800, 16, 0.9, 35);
        for p in Placement::ALL {
            let one = fleet.run_with_threads(p, &fleet.sfs, &w, 1);
            assert_conserved(&one, 800);
            for threads in [2, 8] {
                let many = fleet.run_with_threads(p, &fleet.sfs, &w, threads);
                assert_eq!(one.shed, many.shed, "{} t={threads}", p.name());
                assert_eq!(one.lost, many.lost, "{} t={threads}", p.name());
                assert_eq!(one.per_region, many.per_region, "{} t={threads}", p.name());
                assert_eq!(one.outcomes.len(), many.outcomes.len());
                for (a, b) in one.outcomes.iter().zip(many.outcomes.iter()) {
                    assert_eq!(a.id, b.id, "{} t={threads}", p.name());
                    assert_eq!(a.finished, b.finished, "{} t={threads}", p.name());
                    assert_eq!(a.rte.to_bits(), b.rte.to_bits());
                    assert_eq!(a.ctx_switches, b.ctx_switches);
                }
            }
        }
    }

    #[test]
    fn conservation_under_every_fault_mix() {
        let specs = [
            FaultSpec::default(),
            FaultSpec {
                crashes: 3,
                ..FaultSpec::default()
            },
            FaultSpec {
                outages: 2,
                ..FaultSpec::default()
            },
            FaultSpec {
                crashes: 2,
                stragglers: 2,
                outages: 1,
                max_redispatch: 0,
                ..FaultSpec::default()
            },
        ];
        for (si, spec) in specs.iter().enumerate() {
            let mut fleet = Fleet::new(2, 3, 2).with_faults(*spec);
            fleet.seed ^= si as u64;
            let w = workload(400, 12, 0.9, 40 + si as u64);
            for p in [Placement::RoundRobin, Placement::ConsistentHash] {
                let run = fleet.run(p, &w);
                assert_conserved(&run, 400);
            }
        }
    }

    #[test]
    fn crashes_cause_redispatch_and_budget_exhaustion_loses() {
        // With a healthy budget, crash victims are re-placed; with a zero
        // budget, every victim is attributably lost.
        let base = Fleet::new(2, 3, 2);
        let w = workload(500, 12, 1.0, 41);
        let faulted = base.clone().with_faults(FaultSpec {
            crashes: 3,
            ..FaultSpec::default()
        });
        let run = faulted.run(Placement::JoinShortestQueue, &w);
        assert_conserved(&run, 500);
        assert!(
            run.redispatches > 0 || run.lost.is_empty(),
            "crashes at load 1.0 should evict someone"
        );
        let strict = base.with_faults(FaultSpec {
            crashes: 3,
            max_redispatch: 0,
            ..FaultSpec::default()
        });
        let run0 = strict.run(Placement::JoinShortestQueue, &w);
        assert_conserved(&run0, 500);
        assert_eq!(run0.redispatches, 0, "budget 0 re-places nothing");
        assert!(
            run0.lost.len() >= run.lost.len(),
            "a zero budget cannot lose less"
        );
        let crashes: u64 = run0.per_region.iter().map(|r| r.crashes).sum();
        assert!(crashes > 0, "the fault plan must actually land");
    }

    #[test]
    fn outage_takes_group_down_and_brings_it_back() {
        let fleet = Fleet::new(1, 6, 2).with_faults(FaultSpec {
            outages: 1,
            ..FaultSpec::default()
        });
        let w = workload(600, 12, 0.9, 43);
        let run = fleet.run(Placement::LeastLoaded, &w);
        assert_conserved(&run, 600);
        assert!(
            run.per_region[0].crashes >= 2,
            "an AZ outage downs a host group, got {}",
            run.per_region[0].crashes
        );
        // The fleet keeps serving: most of the workload still completes.
        assert!(
            run.outcomes.len() > 400,
            "only {} completed",
            run.outcomes.len()
        );
    }

    #[test]
    fn autoscaler_parks_warm_and_bills_the_keepalive() {
        // A workload that ends leaves the fleet idle: the scaler must park
        // down to min_hosts and the parked time must be billed.
        let mut fleet = Fleet::new(1, 4, 2);
        fleet.autoscaler = Some(Autoscaler {
            down_depth_per_host: 1.5,
            warm_park: SimDuration::from_millis(800),
            ..Autoscaler::default()
        });
        let w = workload(400, 8, 0.4, 47);
        let run = fleet.run(Placement::JoinShortestQueue, &w);
        assert_conserved(&run, 400);
        let s = &run.per_region[0];
        assert!(s.parks > 0, "an underloaded region must scale down");
        assert!(
            s.warm_host_ms > 0.0,
            "parked host time must appear on the warm-pool bill"
        );
        assert!(
            s.releases > 0,
            "keep-alive windows lapse once the run drains"
        );
    }

    #[test]
    fn spillover_routes_past_a_drowning_home_region() {
        // Tiny home region + tight spill threshold: the front door must
        // send overflow to the higher-RTT region rather than queue it.
        let mut fleet = Fleet::new(2, 2, 2);
        fleet.regions[0].initial_hosts = 1;
        fleet.regions[0].max_hosts = 1;
        fleet.autoscaler = None;
        fleet.front_door.spill_backlog_ms = 20.0;
        let w = workload(500, 4, 1.2, 51);
        let run = fleet.run(Placement::JoinShortestQueue, &w);
        assert_conserved(&run, 500);
        assert!(run.spilled > 0, "overflow must spill to region 1");
        assert!(
            run.per_region[1].placed > 0,
            "region 1 must receive spillover"
        );
    }

    #[test]
    fn shed_threshold_rejects_at_the_door() {
        // Shed threshold at the spill threshold: once every region drowns,
        // requests are refused rather than queued without bound.
        let mut fleet = Fleet::new(2, 1, 1);
        fleet.autoscaler = None;
        fleet.front_door.spill_backlog_ms = 30.0;
        fleet.front_door.shed_backlog_ms = 60.0;
        let w = workload(400, 2, 1.5, 53);
        let run = fleet.run(Placement::RoundRobin, &w);
        assert_conserved(&run, 400);
        assert!(!run.shed.is_empty(), "a drowning fleet must shed");
        assert!(run.lost.is_empty(), "shedding is not loss");
    }

    #[test]
    fn affinity_cold_starts_accumulate_per_region() {
        let fleet = Fleet::new(2, 3, 2).with_affinity(
            SimDuration::from_millis(1_500),
            SimDuration::from_millis(30),
        );
        let w = workload(800, 12, 0.8, 57);
        let run = fleet.run(Placement::ConsistentHash, &w);
        assert_conserved(&run, 800);
        assert!(run.cold_starts > 0);
        assert_eq!(
            run.cold_starts,
            run.per_region.iter().map(|r| r.cold_starts).sum::<u64>()
        );
    }

    #[test]
    fn fault_spec_parses_the_cli_spelling() {
        let spec = FaultSpec::parse("crash:2+straggler:3+outage:1").unwrap();
        assert_eq!(
            spec,
            FaultSpec {
                crashes: 2,
                stragglers: 3,
                outages: 1,
                ..FaultSpec::default()
            }
        );
        assert!(spec.is_active());
        assert!(!FaultSpec::default().is_active());
        assert_eq!(FaultSpec::parse("crash:1").unwrap().crashes, 1);
        // Errors name the offending term.
        let e = FaultSpec::parse("crash").unwrap_err();
        assert!(e.contains("`crash`"), "{e}");
        let e = FaultSpec::parse("crash:abc").unwrap_err();
        assert!(e.contains("`abc`"), "{e}");
        let e = FaultSpec::parse("meteor:1").unwrap_err();
        assert!(e.contains("`meteor`"), "{e}");
    }

    #[test]
    fn az_membership_partitions_the_slots() {
        for n in [2usize, 3, 6, 9] {
            let a: Vec<usize> = az_members(n, 0).collect();
            let b: Vec<usize> = az_members(n, 1).collect();
            let mut all = a.clone();
            all.extend_from_slice(&b);
            assert_eq!(all, (0..n).collect::<Vec<usize>>(), "n={n}");
        }
    }

    #[test]
    fn empty_workload_is_a_noop() {
        let fleet = Fleet::new(2, 2, 2).with_faults(FaultSpec {
            crashes: 5,
            ..FaultSpec::default()
        });
        let w = Workload {
            requests: Vec::new(),
        };
        let run = fleet.run(Placement::ConsistentHash, &w);
        assert!(run.outcomes.is_empty() && run.shed.is_empty() && run.lost.is_empty());
        assert_conserved(&run, 0);
    }
}
