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
//!   depth every 500 ms, with warm-pool keep-alive economics extending the
//!   affinity model: scale-down *parks* a host warm (it drains its queue
//!   and keeps its containers) for a 5 s keep-alive window before
//!   releasing it; scale-up prefers reactivating a parked host (instant,
//!   warm) over booting a released one (250 ms, cold warm-pool). The
//!   thresholds and timings are constants; [`Fleet::autoscale`] turns the
//!   autoscaler on or off.
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
//! function of `(fleet config, placement, workload)` — run by a `Router`
//! with one handler per event class. Its events sit on one
//! [`EventQueue`] per class; the loop pops the earliest `(time, class)`
//! head, and each queue is FIFO within an instant, so events run in
//! `(time, class, push order)`. Fault plans derive from the fleet seed by
//! pure [`SeedSequencer`] / [`SimRng`] functions before the loop starts.
//! Everything the router tracks for one host lives on that host's slot:
//! its load model, lifecycle state, in-flight dispatches (in dispatch
//! order), warm pool, and one placement list per epoch (a host's epoch
//! advances each time it rejoins after a crash, an outage or a cold boot,
//! so pre- and post-crash placements never share a sim).
//! *Execution* fans out over [`sfs_simcore::parallel::run_indexed`], one
//! independent `Sim` per non-empty `(region, host, epoch)` unit in that
//! order, with results written into index-ordered slots. A 1000-host
//! faulted fleet run is therefore bit-identical at any thread count.
//!
//! Execution maps outcomes back to requests by workload index
//! ([`sfs_core::run_rebased`]), never by request id, so any set of unique
//! ids — sparse, large, out of arrival order — routes and re-bases. Each
//! unit's outcomes come back sorted by id, and the units' runs are merged
//! by id rather than concatenated and re-sorted.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use sfs_core::{run_rebased, ControllerFactory, RequestOutcome, SfsConfig};
use sfs_sched::Phase;
use sfs_simcore::{parallel, EventQueue, SeedSequencer, SimDuration, SimRng, SimTime};
use sfs_workload::{Table1Sampler, Workload};

use crate::cluster::{
    argmin_f64, argmin_jsq_over, bounded_load_cap, build_ring, func_key, ring_walk, Affinity,
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

/// Autoscaler evaluation period.
const SCALE_TICK: SimDuration = SimDuration::from_millis(500);
/// The autoscaler scales up when mean outstanding depth per active host
/// exceeds this.
const UP_DEPTH_PER_HOST: f64 = 4.0;
/// The autoscaler scales down when mean outstanding depth per active host
/// falls below this.
const DOWN_DEPTH_PER_HOST: f64 = 0.5;
/// How long a scaled-down host stays parked warm before release.
const WARM_PARK: SimDuration = SimDuration::from_secs(5);
/// Boot delay when scale-up must provision a released (cold) slot.
const BOOT_DELAY: SimDuration = SimDuration::from_millis(250);
/// Slowdown multiplier for straggler hosts.
const STRAGGLER_FACTOR: f64 = 4.0;
/// Crash repair time (down → active again, cold).
const REPAIR: SimDuration = SimDuration::from_millis(500);
/// EWMA smoothing factor for per-host turnaround feedback (0 < α ≤ 1).
const EWMA_ALPHA: f64 = 0.2;
/// Virtual nodes per host on each region's hash ring.
const VNODES: usize = 64;

/// A deterministic fault scenario: counts per fault kind, expanded into a
/// concrete seed-derived plan by [`Fleet::run_with_threads`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Host crashes (in-flight work re-dispatched; host repairs and
    /// rejoins cold 500 ms later).
    pub crashes: usize,
    /// Straggler hosts: everything placed on one after onset runs 4×
    /// slower.
    pub stragglers: usize,
    /// Correlated AZ outages: a contiguous half of a region's host slots
    /// goes down and rejoins together.
    pub outages: usize,
    /// How many times one request may be re-dispatched after fault evictions
    /// before it is declared lost.
    pub max_redispatch: u32,
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec {
            crashes: 0,
            stragglers: 0,
            outages: 0,
            max_redispatch: 3,
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
    /// Whether each region's autoscaler runs; `false` pins every region at
    /// its initial hosts.
    pub autoscale: bool,
    /// Fault scenario; `None` runs fault-free.
    pub faults: Option<FaultSpec>,
    /// Fleet seed: hash rings, fault plans, and every other stochastic
    /// input derive from it by pure functions.
    pub seed: u64,
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
    /// Each execution unit returns its outcomes sorted by id, and the
    /// units' runs are merged by id, each record moved once.
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

/// Number of event classes, one queue each (see [`EventKind::class`]).
const CLASSES: usize = 4;

/// A routing event.
#[derive(Debug, Clone, Copy)]
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
    Straggler { region: usize, host: usize },
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
    /// The event's class, which is also its queue index. At equal
    /// timestamps, completions land before fault / lifecycle transitions,
    /// which land before autoscaler ticks, which land before the
    /// re-dispatches those transitions queued — so a re-dispatch never
    /// targets a host that died in the same instant.
    fn class(&self) -> usize {
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

/// A dispatched request the routing model still considers in flight.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// Dispatch sequence number: names the request's Completion event.
    seq: u64,
    idx: usize,
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

/// One host slot: the dispatcher's model of the host plus everything the
/// router tracks for it.
struct Slot {
    load: HostLoad,
    state: HostState,
    /// Current slowdown factor (1.0 = healthy).
    straggle: f64,
    /// Timestamp of the latest scheduled HostUp; earlier HostUp events
    /// still queued are stale and must be ignored.
    pending_up: Option<SimTime>,
    /// Dispatches still running here, in dispatch order.
    in_flight: Vec<InFlight>,
    /// Warm pool: per function key, the predicted finish of its latest
    /// dispatch here, sorted by key.
    warm: Vec<(u64, SimTime)>,
    /// Placements per epoch; the last list is the current epoch. Each
    /// rejoin (after a crash, an outage or a cold boot) starts a new one,
    /// so pre- and post-reset placements never share an execution unit.
    units: Vec<Vec<PlacedReq>>,
}

impl Slot {
    fn new(cores: usize, state: HostState) -> Slot {
        Slot {
            load: HostLoad::new(cores),
            state,
            straggle: 1.0,
            pending_up: None,
            in_flight: Vec::new(),
            warm: Vec::new(),
            units: vec![Vec::new()],
        }
    }
}

/// Mutable per-region routing state.
struct RegionState {
    cfg: RegionConfig,
    slots: Vec<Slot>,
    ring: Vec<(u64, usize)>,
    /// In-flight count across the region's hosts.
    depth: usize,
    rr: usize,
    stats: RegionStats,
}

impl RegionState {
    fn active_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.state == HostState::Active)
            .count()
    }

    /// The front door's load signal: modelled backlog (ms) per active
    /// core, from the exact nanosecond sum over the active hosts, converted
    /// and divided once. Infinite when the region has no active host.
    fn backlog_per_core_ms(&self, now: SimTime, cores_per_host: usize) -> f64 {
        let active = self.active_count();
        if active == 0 {
            return f64::INFINITY;
        }
        let backlog_ns: u128 = self.actives().map(|(_, l)| l.backlog_ns(now)).sum();
        backlog_ns as f64 / (1.0e6 * (active * cores_per_host) as f64)
    }

    /// The active hosts' modelled loads, by slot index.
    fn actives(&self) -> impl Iterator<Item = (usize, &HostLoad)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == HostState::Active)
            .map(|(h, s)| (h, &s.load))
    }

    /// Intra-region placement over the active hosts only — the
    /// [`Placement`] disciplines, restricted to the slate the autoscaler
    /// and fault injector currently allow. `None` when no host is active.
    fn pick_host(
        &mut self,
        placement: Placement,
        key: u64,
        long: bool,
        now: SimTime,
    ) -> Option<usize> {
        match placement {
            Placement::RoundRobin => self.rr_next(),
            // `min_by_key` keeps the first of equal keys: ties go to the
            // lowest slot.
            Placement::LeastLoaded => (self.actives())
                .min_by_key(|(_, l)| l.backlog_ns(now))
                .map(|(h, _)| h),
            Placement::LongToLightest if long => {
                argmin_f64(self.actives().map(|(h, l)| (h, l.outstanding_long_ms)))
            }
            Placement::LongToLightest => self.rr_next(),
            Placement::JoinShortestQueue => argmin_jsq_over(self.actives()),
            Placement::ConsistentHash => {
                let active_n = self.active_count();
                if active_n == 0 {
                    return None;
                }
                let cap = bounded_load_cap(self.depth, active_n);
                ring_walk(&self.ring, key, |h| {
                    let s = &self.slots[h];
                    s.state == HostState::Active && s.load.depth < cap
                })
                .or_else(|| argmin_f64(self.actives().map(|(h, l)| (h, l.depth as f64))))
            }
        }
    }

    /// Rotate over slots, skipping inactive ones; deterministic because
    /// the cursor advances exactly to the chosen slot + 1.
    fn rr_next(&mut self) -> Option<usize> {
        let n = self.slots.len();
        let h = (0..n)
            .map(|step| (self.rr + step) % n)
            .find(|&h| self.slots[h].state == HostState::Active)?;
        self.rr = h + 1;
        Some(h)
    }
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
            autoscale: true,
            faults: None,
            seed: 0xF1EE_7D00,
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
        let (units, mut run) = self.route(placement, workload);
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
        run.outcomes = merge_by_id(unit_outcomes);
        run
    }

    /// The sequential routing phase: front door + autoscaler + fault
    /// injection in one event loop. Pure in `(self, placement, workload)`.
    /// Returns the execution units and the run's routing results, its
    /// outcomes still empty.
    fn route(&self, placement: Placement, workload: &Workload) -> (Vec<Vec<PlacedReq>>, FleetRun) {
        let order = workload.arrival_order();
        let mut router = Router::new(self, placement, workload);
        if let (Some(&first), Some(&last)) = (order.first(), order.last()) {
            router.arm(
                workload.requests[first].arrival,
                workload.requests[last].arrival,
            );
        }
        for &idx in &order {
            let now = workload.requests[idx].arrival;
            router.run_until(now);
            router.dispatch(idx, now, 0);
        }
        // Arrivals done: drain the remaining events (late completions,
        // rejoins, park expiries; ticks stop re-arming once idle).
        router.arrivals_done = true;
        router.run_until(SimTime::MAX);
        router.finish()
    }
}

/// The routing phase's state and its event handlers, one per event class:
/// [`Router::complete`], the fault / lifecycle transitions
/// ([`Router::take_host_down`], [`Router::host_up`],
/// [`Router::park_expire`]), [`Router::scale`], and [`Router::dispatch`]
/// for arrivals and re-dispatches alike.
struct Router<'a> {
    fleet: &'a Fleet,
    workload: &'a Workload,
    placement: Placement,
    t1: Table1Sampler,
    faults: FaultSpec,
    /// The cheapest-RTT region is every request's "home"; placements
    /// elsewhere count as spillover.
    home: usize,
    regions: Vec<RegionState>,
    /// One queue per event class, indexed by [`EventKind::class`].
    queues: [EventQueue<EventKind>; CLASSES],
    /// Set once every arrival is dispatched: autoscaler ticks then re-arm
    /// only while work is in flight, so the drain terminates.
    arrivals_done: bool,
    dispatch_seq: u64,
    /// Shed and lost requests by workload index; ids are looked up once,
    /// at the end.
    shed: Vec<usize>,
    lost: Vec<usize>,
    cold_starts: u64,
    redispatches: u64,
    spilled: u64,
}

impl<'a> Router<'a> {
    fn new(fleet: &'a Fleet, placement: Placement, workload: &'a Workload) -> Router<'a> {
        let regions = fleet
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
                    slots: (0..cfg.max_hosts)
                        .map(|h| {
                            let state = if h < cfg.initial_hosts {
                                HostState::Active
                            } else {
                                HostState::Released
                            };
                            Slot::new(fleet.cores_per_host, state)
                        })
                        .collect(),
                    // Only consistent hashing reads the ring, which
                    // holds `VNODES` entries per host slot.
                    ring: match placement {
                        Placement::ConsistentHash => build_ring(
                            cfg.max_hosts,
                            VNODES,
                            SeedSequencer::new(fleet.seed).seed_for(i as u64),
                        ),
                        _ => Vec::new(),
                    },
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
        Router {
            fleet,
            workload,
            placement,
            t1: Table1Sampler::new(),
            faults: fleet.faults.unwrap_or_default(),
            home: argmin_f64(fleet.regions.iter().map(|r| r.rtt_ms).enumerate()).unwrap_or(0),
            regions,
            queues: Default::default(),
            arrivals_done: false,
            dispatch_seq: 0,
            shed: Vec::new(),
            lost: Vec::new(),
            cold_starts: 0,
            redispatches: 0,
            spilled: 0,
        }
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        self.queues[kind.class()].push(at, kind);
    }

    /// Queue the seed-derived fault plan and the first autoscaler ticks,
    /// both pinned to the workload's arrival span `[t0, last]`.
    fn arm(&mut self, t0: SimTime, last: SimTime) {
        let fleet = self.fleet;
        let faults = self.faults;
        let span_ms = last.since(t0).as_millis_f64();
        if faults.is_active() && !fleet.regions.is_empty() {
            let mut rng = SimRng::seed_from_u64(SeedSequencer::new(fleet.seed).seed_for(0xFA017));
            let target = |rng: &mut SimRng| {
                let region = rng.uniform_u64(0, fleet.regions.len() as u64 - 1) as usize;
                let host = rng.uniform_u64(0, fleet.regions[region].initial_hosts as u64 - 1);
                (region, host as usize)
            };
            let at_frac = |rng: &mut SimRng, lo: f64, hi: f64| {
                t0 + SimDuration::from_millis_f64(rng.uniform(lo, hi) * span_ms.max(1.0))
            };
            for _ in 0..faults.crashes {
                let at = at_frac(&mut rng, 0.10, 0.80);
                let (region, host) = target(&mut rng);
                self.push(at, EventKind::Crash { region, host });
            }
            for _ in 0..faults.stragglers {
                let at = at_frac(&mut rng, 0.05, 0.40);
                let (region, host) = target(&mut rng);
                self.push(at, EventKind::Straggler { region, host });
            }
            for _ in 0..faults.outages {
                let at = at_frac(&mut rng, 0.20, 0.60);
                let until = at + SimDuration::from_millis_f64(0.20 * span_ms.max(1.0));
                let region = rng.uniform_u64(0, fleet.regions.len() as u64 - 1) as usize;
                let group = rng.uniform_u64(0, 1) as usize;
                self.push(
                    at,
                    EventKind::OutageStart {
                        region,
                        group,
                        until,
                    },
                );
            }
        }
        if fleet.autoscale {
            for region in 0..fleet.regions.len() {
                self.push(t0 + SCALE_TICK, EventKind::ScaleTick { region });
            }
        }
    }

    /// Handle every event due at or before `until`, earliest first. The
    /// earliest `(time, class)` head wins, and each class queue is FIFO
    /// within an instant, so events run in `(time, class, push order)`.
    fn run_until(&mut self, until: SimTime) {
        loop {
            let head = self
                .queues
                .iter()
                .enumerate()
                .filter_map(|(class, q)| q.peek_time().map(|at| (at, class)))
                .min();
            let Some((at, ev)) = head.and_then(|(_, class)| self.queues[class].pop_until(until))
            else {
                return;
            };
            match ev {
                EventKind::Completion { region, host, seq } => self.complete(region, host, seq),
                EventKind::Crash { region, host } => {
                    if self.take_host_down(region, host, at) {
                        self.schedule_up(region, host, at + REPAIR);
                    }
                }
                EventKind::Straggler { region, host } => {
                    self.regions[region].slots[host].straggle = STRAGGLER_FACTOR;
                }
                EventKind::OutageStart {
                    region,
                    group,
                    until: end,
                } => {
                    // The whole group goes down now and rejoins together at
                    // the outage end.
                    for h in az_members(self.regions[region].cfg.max_hosts, group) {
                        if self.take_host_down(region, h, at) {
                            self.schedule_up(region, h, end);
                        }
                    }
                }
                EventKind::HostUp { region, host } => self.host_up(region, host, at),
                EventKind::ParkExpire { region, host } => self.park_expire(region, host, at),
                EventKind::ScaleTick { region } => self.scale(region, at),
                EventKind::Redispatch { idx, attempts } => self.dispatch(idx, at, attempts),
            }
        }
    }

    /// One dispatch: route the request at the front door, place it in the
    /// chosen region, admit it into the dispatcher model. A request no
    /// region or host can take is shed on first arrival and lost on
    /// re-dispatch.
    fn dispatch(&mut self, idx: usize, now: SimTime, attempts: u32) {
        let workload = self.workload;
        let r = &workload.requests[idx];
        let placed = self.route_region(now).and_then(|region| {
            let key = func_key(&self.t1, r);
            let long = r.is_long();
            let reg = &mut self.regions[region];
            let at_host = now + SimDuration::from_millis_f64(reg.cfg.rtt_ms);
            let host = reg.pick_host(self.placement, key, long, at_host)?;
            Some((region, host, key, long, at_host))
        });
        let Some((region, host, key, long, at_host)) = placed else {
            if attempts == 0 {
                self.shed.push(idx);
            } else {
                self.lost.push(idx);
            }
            return;
        };
        let reg = &mut self.regions[region];
        let slot = &mut reg.slots[host];
        let mut service_ms = r.spec.cpu_demand().as_millis_f64();
        let mut penalty = SimDuration::ZERO;
        let warm_at = slot.warm.binary_search_by_key(&key, |&(k, _)| k);
        if let Some(aff) = self.fleet.affinity {
            let warm = warm_at.is_ok_and(|i| at_host <= slot.warm[i].1 + aff.keep_alive);
            if !warm {
                penalty = aff.cold_start;
                service_ms += aff.cold_start.as_millis_f64();
                self.cold_starts += 1;
                reg.stats.cold_starts += 1;
            }
        }
        let slow = slot.straggle;
        service_ms *= slow;
        let finish = slot.load.admit(at_host, service_ms);
        slot.load.depth += 1;
        reg.depth += 1;
        if long {
            slot.load.outstanding_long_ms += service_ms;
        }
        reg.stats.placed += 1;
        reg.stats.placed_per_host[host] += 1;
        if region != self.home {
            self.spilled += 1;
        }
        if attempts > 0 {
            self.redispatches += 1;
        }
        match warm_at {
            Ok(i) => slot.warm[i].1 = finish,
            Err(i) => slot.warm.insert(i, (key, finish)),
        }
        let seq = self.dispatch_seq;
        self.dispatch_seq += 1;
        slot.in_flight.push(InFlight {
            seq,
            idx,
            service_ms,
            long,
            turnaround_ms: finish.since(at_host).as_millis_f64(),
            attempts,
        });
        slot.units
            .last_mut()
            .expect("a slot always has a current epoch")
            .push(PlacedReq {
                idx,
                at_host,
                penalty,
                slow,
            });
        self.push(finish, EventKind::Completion { region, host, seq });
    }

    /// Front-door routing: among regions under the spill threshold, the
    /// lowest `rtt + backlog/core` score wins; if none, any region under
    /// the shed threshold; if none (or no region has an active host), the
    /// request is shed. Ties resolve to the lowest region index.
    ///
    /// One pass reads each region's load once and keeps, per threshold,
    /// the [`argmin_f64`] winner over scores that are infinite at or past
    /// the threshold, with its load; the winner must then be under it.
    fn route_region(&self, now: SimTime) -> Option<usize> {
        let door = self.fleet.front_door;
        let thresholds = [door.spill_backlog_ms, door.shed_backlog_ms];
        let mut best: [Option<(usize, f64, f64)>; 2] = [None; 2];
        for (i, r) in self.regions.iter().enumerate() {
            let load = r.backlog_per_core_ms(now, self.fleet.cores_per_host);
            for (b, &threshold) in best.iter_mut().zip(&thresholds) {
                let score = if load < threshold {
                    r.cfg.rtt_ms + load
                } else {
                    f64::INFINITY
                };
                if b.map_or(true, |(_, s, _)| score.total_cmp(&s).is_lt()) {
                    *b = Some((i, score, load));
                }
            }
        }
        (best.into_iter().zip(thresholds))
            .find_map(|(b, threshold)| b.filter(|&(_, _, load)| load < threshold))
            .map(|(i, ..)| i)
    }

    /// A predicted completion: the request leaves the host's model and its
    /// turnaround folds into the host's EWMA. Stale if a crash evicted the
    /// dispatch first.
    fn complete(&mut self, region: usize, host: usize, seq: u64) {
        let reg = &mut self.regions[region];
        let slot = &mut reg.slots[host];
        let Some(i) = slot.in_flight.iter().position(|fl| fl.seq == seq) else {
            return;
        };
        let fl = slot.in_flight.remove(i);
        let load = &mut slot.load;
        load.depth -= 1;
        reg.depth -= 1;
        if fl.long {
            load.outstanding_long_ms = (load.outstanding_long_ms - fl.service_ms).max(0.0);
        }
        load.ewma_turnaround_ms = Some(match load.ewma_turnaround_ms {
            Some(e) => EWMA_ALPHA * fl.turnaround_ms + (1.0 - EWMA_ALPHA) * e,
            None => fl.turnaround_ms,
        });
    }

    /// Take one host down (crash or outage member): evict its in-flight
    /// work back through the front door, wipe its model and warm pool.
    /// Returns whether the host actually went down (false for slots
    /// already down or released — a fault on an unprovisioned slot is a
    /// no-op).
    fn take_host_down(&mut self, region: usize, host: usize, at: SimTime) -> bool {
        let reg = &mut self.regions[region];
        let slot = &mut reg.slots[host];
        match slot.state {
            HostState::Down | HostState::Released => return false,
            HostState::ParkedWarm { since, .. } => {
                reg.stats.warm_host_ms += at.since(since).as_millis_f64();
            }
            HostState::Active | HostState::Booting => {}
        }
        // Victims in dispatch order: still-running requests lose their
        // progress and re-enter the front door now.
        let victims = std::mem::take(&mut slot.in_flight);
        slot.units
            .last_mut()
            .expect("a slot always has a current epoch")
            .retain(|p| !victims.iter().any(|fl| fl.idx == p.idx));
        reg.depth -= victims.len();
        slot.state = HostState::Down;
        slot.load.reset(at);
        slot.warm.clear();
        reg.stats.crashes += 1;
        for fl in victims {
            if fl.attempts >= self.faults.max_redispatch {
                self.lost.push(fl.idx);
            } else {
                self.push(
                    at,
                    EventKind::Redispatch {
                        idx: fl.idx,
                        attempts: fl.attempts + 1,
                    },
                );
            }
        }
        true
    }

    /// Schedule `host`'s rejoin at `at`, superseding any earlier one.
    fn schedule_up(&mut self, region: usize, host: usize, at: SimTime) {
        self.regions[region].slots[host].pending_up = Some(at);
        self.push(at, EventKind::HostUp { region, host });
    }

    /// A booting / repaired / outage-ended host comes up cold, in a new
    /// epoch. Stale unless this is the most recently scheduled rejoin for
    /// the slot (a boot's HostUp must not revive a host an outage took
    /// down in between).
    fn host_up(&mut self, region: usize, host: usize, at: SimTime) {
        let slot = &mut self.regions[region].slots[host];
        if slot.pending_up == Some(at) && matches!(slot.state, HostState::Down | HostState::Booting)
        {
            slot.pending_up = None;
            slot.state = HostState::Active;
            slot.load.reset(at);
            slot.units.push(Vec::new());
            slot.warm.clear();
        }
    }

    /// A parked host's keep-alive window ended: release the slot, or
    /// extend the window while it still drains work.
    fn park_expire(&mut self, region: usize, host: usize, at: SimTime) {
        let reg = &mut self.regions[region];
        let slot = &mut reg.slots[host];
        // Stale if the host was reactivated and parked again with a
        // fresher window.
        let HostState::ParkedWarm { since, until } = slot.state else {
            return;
        };
        if until != at {
            return;
        }
        if slot.load.depth == 0 {
            slot.state = HostState::Released;
            reg.stats.warm_host_ms += until.since(since).as_millis_f64();
            reg.stats.releases += 1;
        } else {
            // A slot cannot release with work on it: extend the window
            // (the bill keeps running from `since`).
            let next = at + WARM_PARK;
            slot.state = HostState::ParkedWarm { since, until: next };
            self.push(next, EventKind::ParkExpire { region, host });
        }
    }

    /// An autoscaler tick: evaluate the region, then re-arm while
    /// arrivals remain or any work is in flight. Ticks are armed only when
    /// [`Fleet::autoscale`] is on.
    fn scale(&mut self, region: usize, at: SimTime) {
        self.scale_region(region, at);
        if !self.arrivals_done || self.regions.iter().any(|r| r.depth > 0) {
            self.push(at + SCALE_TICK, EventKind::ScaleTick { region });
        }
    }

    /// One autoscaler evaluation for one region.
    fn scale_region(&mut self, region: usize, now: SimTime) {
        let reg = &mut self.regions[region];
        let active = reg.active_count();
        if active == 0 {
            return;
        }
        let depth_per_host = reg.depth as f64 / active as f64;
        if depth_per_host > UP_DEPTH_PER_HOST {
            // Prefer the cheapest capacity: a parked host is warm and
            // instant.
            if let Some(slot) = reg
                .slots
                .iter_mut()
                .find(|s| matches!(s.state, HostState::ParkedWarm { .. }))
            {
                if let HostState::ParkedWarm { since, .. } = slot.state {
                    reg.stats.warm_host_ms += now.since(since).as_millis_f64();
                }
                slot.state = HostState::Active;
                reg.stats.reactivations += 1;
            } else if let Some(h) = reg
                .slots
                .iter()
                .position(|s| s.state == HostState::Released)
            {
                reg.slots[h].state = HostState::Booting;
                reg.stats.boots += 1;
                self.schedule_up(region, h, now + BOOT_DELAY);
            }
        } else if depth_per_host < DOWN_DEPTH_PER_HOST && active > reg.cfg.min_hosts {
            // Park the highest-index active host: it drains its queue warm
            // and releases when the keep-alive window lapses.
            if let Some(h) = reg.slots.iter().rposition(|s| s.state == HostState::Active) {
                let until = now + WARM_PARK;
                reg.slots[h].state = HostState::ParkedWarm { since: now, until };
                reg.stats.parks += 1;
                self.push(until, EventKind::ParkExpire { region, host: h });
            }
        }
    }

    /// The routing phase's output: the non-empty execution units in
    /// region → slot → epoch order (the deterministic fan-out order) and
    /// the run's routing results with shed / lost ids sorted.
    fn finish(self) -> (Vec<Vec<PlacedReq>>, FleetRun) {
        let workload = self.workload;
        let ids = |idxs: Vec<usize>| {
            let mut ids: Vec<u64> = idxs.into_iter().map(|i| workload.requests[i].id).collect();
            ids.sort_unstable();
            ids
        };
        let mut units = Vec::new();
        let mut per_region = Vec::with_capacity(self.regions.len());
        for reg in self.regions {
            for slot in reg.slots {
                units.extend(slot.units.into_iter().filter(|u| !u.is_empty()));
            }
            per_region.push(reg.stats);
        }
        let run = FleetRun {
            outcomes: Vec::new(),
            shed: ids(self.shed),
            lost: ids(self.lost),
            placement: self.placement,
            per_region,
            cold_starts: self.cold_starts,
            redispatches: self.redispatches,
            spilled: self.spilled,
            requests: workload.len(),
        };
        (units, run)
    }
}

/// Merge runs that are each sorted by id into one id-sorted vector,
/// moving each record once. A min-heap holds each run's head as
/// `(id, run)`, so equal ids leave in run order: the result equals the
/// runs concatenated and stable-sorted by id.
fn merge_by_id(runs: Vec<Vec<RequestOutcome>>) -> Vec<RequestOutcome> {
    let mut merged = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut runs: Vec<_> = runs.into_iter().map(|r| r.into_iter().peekable()).collect();
    let mut heads: BinaryHeap<Reverse<(u64, usize)>> = (runs.iter_mut().enumerate())
        .filter_map(|(u, r)| r.peek().map(|o| Reverse((o.id, u))))
        .collect();
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((_, u)) = *head;
        merged.push(runs[u].next().expect("a queued run has a head"));
        match runs[u].peek() {
            Some(o) => *head = Reverse((o.id, u)),
            None => {
                PeekMut::pop(head);
            }
        }
    }
    merged
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
        let fleet = Fleet::new(1, 4, 2);
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
        fleet.autoscale = false;
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
        fleet.autoscale = false;
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

    /// An outcome that records where it came from: `ctx_switches` holds
    /// its run in the high half and its position in the low half.
    fn tagged(id: u64, run: usize, pos: usize) -> RequestOutcome {
        RequestOutcome {
            id,
            arrival: SimTime::ZERO,
            finished: SimTime::ZERO,
            turnaround: SimDuration::ZERO,
            ideal: SimDuration::ZERO,
            cpu_demand: SimDuration::ZERO,
            rte: 1.0,
            ctx_switches: ((run as u64) << 32) | pos as u64,
            migrations: 0,
            queue_delay: SimDuration::ZERO,
            demoted: false,
            offloaded: false,
            filter_rounds: 0,
            io_blocks: 0,
        }
    }

    /// Over no runs, empty runs, a single run, round-robin ids and seeded
    /// runs with repeated ids, merging gives the records, in the order,
    /// that concatenating the runs and stable-sorting them by id gives.
    #[test]
    fn merge_by_id_equals_concatenate_and_stable_sort() {
        let mut cases: Vec<Vec<Vec<u64>>> = vec![
            vec![],
            vec![vec![]; 3],
            vec![vec![4, 9, 9, 12]],
            (0..3).map(|u| (u..30).step_by(3).collect()).collect(),
        ];
        let mut rng = SimRng::seed_from_u64(0x3E76);
        for _ in 0..300 {
            let runs = (0..rng.uniform_u64(0, 8))
                .map(|_| {
                    let n = rng.uniform_u64(0, 40);
                    let mut ids: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 60)).collect();
                    ids.sort_unstable();
                    ids
                })
                .collect();
            cases.push(runs);
        }
        let fields = |v: &[RequestOutcome]| -> Vec<(u64, u64)> {
            v.iter().map(|o| (o.id, o.ctx_switches)).collect()
        };
        for (case, ids) in cases.iter().enumerate() {
            let runs: Vec<Vec<RequestOutcome>> = (ids.iter().enumerate())
                .map(|(u, run)| {
                    (run.iter().enumerate())
                        .map(|(p, &id)| tagged(id, u, p))
                        .collect()
                })
                .collect();
            let mut sorted = runs.concat();
            sorted.sort_by_key(|o| o.id);
            assert_eq!(fields(&merge_by_id(runs)), fields(&sorted), "case {case}");
        }
    }

    /// The ring costs `VNODES` sorted entries per host slot, so only the
    /// placement that walks it builds it.
    #[test]
    fn only_consistent_hashing_builds_rings() {
        let fleet = Fleet::new(2, 2, 2);
        let w = workload(10, 4, 0.5, 36);
        for p in Placement::ALL {
            let router = Router::new(&fleet, p, &w);
            let rings: Vec<usize> = router.regions.iter().map(|r| r.ring.len()).collect();
            let want = match p {
                Placement::ConsistentHash => VNODES * fleet.regions[0].max_hosts,
                _ => 0,
            };
            assert_eq!(rings, [want, want], "{}", p.name());
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
