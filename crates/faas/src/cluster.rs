//! Multi-server offloading at cluster scale (the paper's stated future
//! work, §VIII-A): *"Longer functions could be potentially offloaded to
//! relatively lighter-loaded FaaS servers by the global FaaS scheduler to
//! mitigate the performance impact."*
//!
//! A [`Cluster`] of identical hosts behind one global dispatcher. It is a
//! spelling of the region-scale [`Fleet`] with one region: no RTT, a fixed
//! host count, no autoscaler, no faults, and a front door that never spills
//! or sheds. Every placement decision is made by the fleet's event loop,
//! which interleaves request arrivals with predicted host-completion events
//! so each decision sees *live* per-host state ([`HostLoad`]: outstanding
//! queue depth, remaining backlog, and an EWMA of recent turnarounds)
//! rather than a static pre-assignment. The dispatcher's view is its own
//! dispatch log plus the per-function duration statistics SFS already keeps
//! — it never peeks at host internals, matching the paper's architecture.
//!
//! Placement policies ([`Placement`]):
//!
//! * [`RoundRobin`](Placement::RoundRobin) — baseline spreading;
//! * [`LeastLoaded`](Placement::LeastLoaded) — join the host with the
//!   least remaining modelled backlog at the arrival instant;
//! * [`LongToLightest`](Placement::LongToLightest) — the paper's proposal:
//!   short functions rotate (they are latency-critical and any FILTER pool
//!   serves them); functions predicted long are steered to the host with
//!   the least outstanding *long* work, so their demoted-CFS phase faces
//!   the least competition;
//! * [`JoinShortestQueue`](Placement::JoinShortestQueue) — join the host
//!   with the fewest outstanding requests, ties broken by the lower EWMA
//!   of recent turnarounds;
//! * [`ConsistentHash`](Placement::ConsistentHash) — locality-aware: each
//!   function (a FaaSBench `(app, fib-N)` deployment) hashes onto a ring
//!   of host virtual nodes, with Google-style *bounded loads* (a host more
//!   than 25% above the mean outstanding depth is skipped clockwise), so
//!   warm-container affinity composes with live load feedback.
//!
//! Warm-container affinity is modelled cluster-wide via [`Affinity`]: a
//! host that has not served a function within the keep-alive window pays a
//! cold-start CPU penalty (a leading CPU phase, the same idiom
//! `WorkloadSpec::cold_start_mix` uses). Locality-blind placements scatter
//! functions and pay it often; `ConsistentHash` concentrates them.
//!
//! Runs are bit-identical at any thread count: routing is sequential and
//! hosts execute into index-ordered slots (see the [`fleet`](crate::fleet)
//! module docs).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sfs_core::{ControllerFactory, RequestOutcome, SfsConfig};
use sfs_simcore::{parallel, SeedSequencer, SimDuration, SimTime};
use sfs_workload::{AppKind, Request, Table1Sampler, Workload, LONG_THRESHOLD_MS};

use crate::fleet::{Fleet, FrontDoor, RegionConfig};

/// Global dispatcher placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Requests go to hosts in rotation.
    RoundRobin,
    /// Requests join the host with the least remaining modelled backlog.
    LeastLoaded,
    /// Short functions rotate; predicted-long functions go to the host
    /// with the least outstanding *long* work.
    LongToLightest,
    /// Requests join the host with the fewest outstanding requests (ties:
    /// lower EWMA of recent turnarounds).
    JoinShortestQueue,
    /// Functions hash onto a ring of host virtual nodes with bounded
    /// loads, maximising warm-container hits under [`Affinity`].
    ConsistentHash,
}

impl Placement {
    /// Every placement, in presentation order.
    pub const ALL: [Placement; 5] = [
        Placement::RoundRobin,
        Placement::LeastLoaded,
        Placement::LongToLightest,
        Placement::JoinShortestQueue,
        Placement::ConsistentHash,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::LeastLoaded => "least-loaded",
            Placement::LongToLightest => "long-to-lightest",
            Placement::JoinShortestQueue => "join-shortest-queue",
            Placement::ConsistentHash => "consistent-hash",
        }
    }

    /// Parse a CLI spelling (the [`Placement::name`] strings plus the
    /// short aliases `rr`, `ll`, `l2l`, `jsq`, `hash`).
    pub fn parse(s: &str) -> Option<Placement> {
        match s {
            "round-robin" | "rr" => Some(Placement::RoundRobin),
            "least-loaded" | "ll" => Some(Placement::LeastLoaded),
            "long-to-lightest" | "l2l" => Some(Placement::LongToLightest),
            "join-shortest-queue" | "jsq" => Some(Placement::JoinShortestQueue),
            "consistent-hash" | "hash" => Some(Placement::ConsistentHash),
            _ => None,
        }
    }
}

/// Warm-container affinity model: a host that has not served a function
/// within `keep_alive` of a request's arrival pays `cold_start` of extra
/// CPU before the function body (container spin-up).
#[derive(Debug, Clone, Copy)]
pub struct Affinity {
    /// How long a per-function container stays warm after its last use.
    pub keep_alive: SimDuration,
    /// CPU penalty of a cold start.
    pub cold_start: SimDuration,
}

/// Live per-host state as the dispatcher models it — what a placement
/// policy sees at each arrival instant. Updated by the fleet's event loop: depth
/// and long-work fall at predicted completions, the EWMA folds in each
/// completed request's turnaround.
#[derive(Debug, Clone)]
pub struct HostLoad {
    /// Outstanding requests: dispatched, not yet predicted complete.
    pub depth: usize,
    /// Outstanding predicted service (ms) of the *long* population.
    pub outstanding_long_ms: f64,
    /// EWMA of predicted turnarounds (ms) at this host's completions;
    /// `None` until the first completion.
    pub ewma_turnaround_ms: Option<f64>,
    /// Predicted next-free instant of each core: the host as a pool of
    /// FCFS servers, one per core ([`fcfs`]).
    core_free: Servers,
}

impl HostLoad {
    pub(crate) fn new(cores: usize) -> HostLoad {
        HostLoad {
            depth: 0,
            outstanding_long_ms: 0.0,
            ewma_turnaround_ms: None,
            core_free: servers(cores, SimTime::ZERO),
        }
    }

    /// Crash / re-provision hook for the fleet layer: wipe the modelled
    /// state back to an empty host whose cores free up at `now` (a crashed
    /// host loses its queue; a re-provisioned one starts fresh). The EWMA
    /// is dropped too — turnaround history died with the old instance.
    pub(crate) fn reset(&mut self, now: SimTime) {
        self.depth = 0;
        self.outstanding_long_ms = 0.0;
        self.ewma_turnaround_ms = None;
        self.core_free = servers(self.core_free.len(), now);
    }

    /// Remaining modelled backlog at `now` in exact nanoseconds: the sum
    /// over the host's cores of `free − now`, zero for a core already
    /// free. An integer sum does not depend on core order, and two hosts
    /// whose backlogs tie to the nanosecond compare equal.
    pub(crate) fn backlog_ns(&self, now: SimTime) -> u128 {
        (self.core_free.iter())
            .map(|&Reverse(free)| u128::from(free.since(now).as_nanos()))
            .sum()
    }

    /// Remaining modelled backlog (ms) at `now`: how much already-placed
    /// work the host's cores still have ahead of them. The router compares
    /// the exact sum of the cores' nanoseconds; this is that sum converted
    /// to milliseconds once.
    pub fn backlog_ms(&self, now: SimTime) -> f64 {
        self.backlog_ns(now) as f64 / 1.0e6
    }

    /// Dispatch `service_ms` of work at `now`; returns the predicted
    /// completion instant under the host's FCFS core model.
    pub(crate) fn admit(&mut self, now: SimTime, service_ms: f64) -> SimTime {
        let service = SimDuration::from_millis_f64(service_ms);
        fcfs(&mut self.core_free, now, service)
    }
}

/// A pool of identical servers as a min-heap of their next-free instants,
/// the earliest on top. The servers are interchangeable, so the pool is
/// the multiset of instants and keeps no server order.
pub(crate) type Servers = BinaryHeap<Reverse<SimTime>>;

/// A pool of `n` servers, each free from `at`.
pub(crate) fn servers(n: usize, at: SimTime) -> Servers {
    BinaryHeap::from(vec![Reverse(at); n])
}

/// The crate's one first-come-first-served server-pool model: the
/// earliest-free server takes a request arriving at `arrival`, starts it
/// at `max(arrival, free)` and holds it for `service`. Returns the instant
/// the request leaves. A leave instant depends only on the multiset of
/// free instants, so replacing the heap's top costs O(log servers) however
/// large the pool. [`HostLoad`]'s cores and OpenLambda's dispatch hops
/// ([`OpenLambda::dispatch`](crate::OpenLambda::dispatch)) are such pools.
pub(crate) fn fcfs(free: &mut Servers, arrival: SimTime, service: SimDuration) -> SimTime {
    let mut earliest = free
        .peek_mut()
        .expect("a server pool has at least one server");
    let leave = earliest.0.max(arrival) + service;
    *earliest = Reverse(leave);
    leave
}

/// A cluster of identical SFS hosts behind one global dispatcher.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Number of hosts.
    pub hosts: usize,
    /// Cores per host.
    pub cores_per_host: usize,
    /// SFS configuration applied on every host by [`Cluster::run`].
    pub sfs: SfsConfig,
    /// Warm-container affinity model; `None` disables cold starts (every
    /// host serves every function at full speed).
    pub affinity: Option<Affinity>,
    /// EWMA smoothing factor for the turnaround feedback (0 < α ≤ 1).
    pub ewma_alpha: f64,
    /// Seed for the consistent-hash ring (virtual-node positions derive
    /// from it by pure `SeedSequencer` functions, as for the fleet's
    /// region 0).
    pub seed: u64,
    /// Virtual nodes per host on the hash ring.
    pub vnodes: usize,
}

/// Result of a cluster run.
#[derive(Debug)]
pub struct ClusterRun {
    /// Outcomes across all hosts, sorted by request id.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests placed per host.
    pub per_host: Vec<usize>,
    /// The placement used.
    pub placement: Placement,
    /// Cold starts the affinity model charged (0 without [`Affinity`]).
    pub cold_starts: u64,
}

impl Cluster {
    /// A cluster of `hosts` × `cores_per_host` with default SFS settings
    /// and no warm-container affinity model.
    pub fn new(hosts: usize, cores_per_host: usize) -> Cluster {
        assert!(hosts >= 1 && cores_per_host >= 1);
        Cluster {
            hosts,
            cores_per_host,
            sfs: SfsConfig::new(cores_per_host),
            affinity: None,
            ewma_alpha: 0.2,
            seed: 0xC105_7E4D,
            vnodes: 64,
        }
    }

    /// Enable the warm-container affinity model.
    pub fn with_affinity(mut self, keep_alive: SimDuration, cold_start: SimDuration) -> Cluster {
        self.affinity = Some(Affinity {
            keep_alive,
            cold_start,
        });
        self
    }

    /// Dispatch `workload` across the cluster under `placement` and run
    /// every host to completion with this cluster's SFS configuration.
    pub fn run(&self, placement: Placement, workload: &Workload) -> ClusterRun {
        self.run_with(placement, &self.sfs, workload)
    }

    /// As [`Cluster::run`], with any per-host scheduling policy: one fresh
    /// controller is built per host from `factory` (hosts share nothing
    /// but the dispatcher, as in a real FaaS fleet). Hosts execute in
    /// parallel on the default worker count.
    pub fn run_with(
        &self,
        placement: Placement,
        factory: &(dyn ControllerFactory + Sync),
        workload: &Workload,
    ) -> ClusterRun {
        self.run_with_threads(placement, factory, workload, parallel::default_threads())
    }

    /// As [`Cluster::run_with`] with an explicit worker-thread count. The
    /// result is bit-identical for every `threads` value ≥ 1.
    pub fn run_with_threads(
        &self,
        placement: Placement,
        factory: &(dyn ControllerFactory + Sync),
        workload: &Workload,
        threads: usize,
    ) -> ClusterRun {
        let run = self
            .fleet()
            .run_with_threads(placement, factory, workload, threads);
        assert!(
            run.shed.is_empty() && run.lost.is_empty(),
            "a cluster never sheds or loses a request"
        );
        let region = run
            .per_region
            .into_iter()
            .next()
            .expect("a cluster is one region");
        ClusterRun {
            outcomes: run.outcomes,
            per_host: region
                .placed_per_host
                .into_iter()
                .map(|n| n as usize)
                .collect(),
            placement,
            cold_starts: run.cold_starts,
        }
    }

    /// The one-region [`Fleet`] this cluster spells: no RTT, `hosts` fixed
    /// (no autoscaler, no faults), and a front door that never spills or
    /// sheds, so every request is placed and completes.
    fn fleet(&self) -> Fleet {
        Fleet {
            regions: vec![RegionConfig {
                rtt_ms: 0.0,
                initial_hosts: self.hosts,
                max_hosts: self.hosts,
                min_hosts: self.hosts,
            }],
            cores_per_host: self.cores_per_host,
            sfs: self.sfs,
            affinity: self.affinity,
            front_door: FrontDoor {
                spill_backlog_ms: f64::INFINITY,
                shed_backlog_ms: f64::INFINITY,
            },
            autoscaler: None,
            faults: None,
            ewma_alpha: self.ewma_alpha,
            seed: self.seed,
            vnodes: self.vnodes,
        }
    }
}

/// The consistent-hash ring of one region: `vnodes` positions per host,
/// derived from `seed` by a pure function.
pub(crate) fn build_ring(hosts: usize, vnodes: usize, seed: u64) -> Vec<(u64, usize)> {
    let seq = SeedSequencer::new(seed);
    let mut ring: Vec<(u64, usize)> = (0..hosts)
        .flat_map(|h| (0..vnodes).map(move |v| (seq.seed_for((h * vnodes + v) as u64), h)))
        .collect();
    ring.sort_unstable();
    ring
}

/// Google-style bounded-load cap: 25% above the mean outstanding depth,
/// counting the request being placed, never below 1.
pub(crate) fn bounded_load_cap(total_depth: usize, hosts: usize) -> usize {
    let cap = (((total_depth + 1) as f64 / hosts as f64) * 1.25).ceil() as usize;
    cap.max(1)
}

/// The bounded-load clockwise walk: the first host at the key's ring
/// position (or after it) that `admits` — the caller's eligibility and
/// depth-under-cap test. `None` when no host admits — the caller owns the
/// degenerate fallback (the fleet falls back to the shallowest eligible
/// queue).
pub(crate) fn ring_walk(
    ring: &[(u64, usize)],
    key: u64,
    admits: impl Fn(usize) -> bool,
) -> Option<usize> {
    let h = SeedSequencer::new(key).seed_for(0);
    let start = ring.partition_point(|&(pos, _)| pos < h);
    (0..ring.len())
        .map(|i| ring[(start + i) % ring.len()].1)
        .find(|&host| admits(host))
}

/// Index of the minimum score over `(index, score)` pairs — region RTT
/// scores, or host loads over the subset placement may use (it must skip
/// crashed / parked / booting hosts) — ties to the first pair; `None` for
/// an empty input.
///
/// Selection runs over [`f64::total_cmp`], which is total over NaN, so no
/// score value can be silently skipped: a `v < best_v` scan is NaN-blind (a
/// NaN never beats `INFINITY`, so a NaN-scored host would vanish from
/// consideration and an all-NaN slate would fall through to the first host
/// by accident rather than by rule). Under `total_cmp` every input — NaN
/// included — has one deterministic winner.
pub(crate) fn argmin_f64(scored: impl Iterator<Item = (usize, f64)>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, v) in scored {
        best = match best {
            Some((_, bv)) if v.total_cmp(&bv).is_lt() => Some((i, v)),
            Some(b) => Some(b),
            None => Some((i, v)),
        };
    }
    best.map(|(i, _)| i)
}

/// Join-shortest-queue host choice over `(index, load)` candidates:
/// lexicographic min over (outstanding depth, EWMA of recent turnarounds),
/// ties to the first candidate. Returns `None` for an empty slate.
pub(crate) fn argmin_jsq_over<'a>(
    candidates: impl Iterator<Item = (usize, &'a HostLoad)>,
) -> Option<usize> {
    let mut best: Option<(usize, &HostLoad)> = None;
    for (i, h) in candidates {
        let Some((_, b)) = best else {
            best = Some((i, h));
            continue;
        };
        let (he, be) = (
            h.ewma_turnaround_ms.unwrap_or(0.0),
            b.ewma_turnaround_ms.unwrap_or(0.0),
        );
        if h.depth < b.depth || (h.depth == b.depth && he.total_cmp(&be).is_lt()) {
            best = Some((i, h));
        }
    }
    best.map(|(i, _)| i)
}

/// FaaSBench's function identity: the deployed `(app, fib-N)` pair
/// (`fib-35`, `md-28`, ...), recovered from the request's app kind and its
/// Table-I fib mapping.
pub(crate) fn func_key(t1: &Table1Sampler, r: &Request) -> u64 {
    let app = match r.app {
        AppKind::Fib => 0u64,
        AppKind::Md => 1,
        AppKind::Sa => 2,
    };
    pack_func_key(app, t1.fib_n_for(r.duration_ms))
}

/// Pack an `(app id, fib N)` pair into one ring key: `app` in the high
/// bits, N in the low 8. The low field holds every N Table I can currently
/// emit (max 35), but the packing is only injective while N < 256 — a
/// future Table-1 change emitting a wider N would silently alias two
/// functions' ring positions and warm pools, so the bound is asserted here
/// rather than trusted. (Widening the shift would renumber every existing
/// key and shift the consistent-hash goldens; the guard keeps current keys
/// bit-stable while making the failure loud.)
fn pack_func_key(app: u64, fib_n: u32) -> u64 {
    assert!(
        fib_n < 256,
        "func_key packing overflow: fib N {fib_n} needs more than 8 bits; \
         widen the packing (and regenerate the consistent-hash goldens)"
    );
    (app << 8) | fib_n as u64
}

impl ClusterRun {
    /// Mean turnaround (ms) of the long-function population — the quantity
    /// the offloading proposal targets. `None` when the run has no long
    /// requests (an empty population has no mean; a bare `0.0` would be
    /// indistinguishable from a genuinely instant one).
    pub fn long_mean_ms(&self) -> Option<f64> {
        population_mean_ms(&self.outcomes, true)
    }

    /// Mean turnaround (ms) of the short population, `None` when empty.
    pub fn short_mean_ms(&self) -> Option<f64> {
        population_mean_ms(&self.outcomes, false)
    }
}

fn population_mean_ms(outcomes: &[RequestOutcome], long: bool) -> Option<f64> {
    let thr = SimDuration::from_millis_f64(LONG_THRESHOLD_MS);
    let mut sum = 0.0;
    let mut n = 0usize;
    for o in outcomes {
        if (o.ideal >= thr) == long {
            sum += o.turnaround.as_millis_f64();
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_workload::WorkloadSpec;

    fn workload(n: usize, hosts: usize, cores: usize, load: f64) -> Workload {
        WorkloadSpec::azure_sampled(n, 19)
            .with_load(hosts * cores, load)
            .generate()
    }

    #[test]
    fn all_placements_complete_everything() {
        let cluster = Cluster::new(3, 4);
        let w = workload(900, 3, 4, 0.8);
        for p in Placement::ALL {
            let run = cluster.run(p, &w);
            assert_eq!(run.outcomes.len(), 900, "{} lost requests", p.name());
            assert_eq!(run.per_host.iter().sum::<usize>(), 900);
            for (i, o) in run.outcomes.iter().enumerate() {
                assert_eq!(o.id, i as u64);
            }
            assert_eq!(run.cold_starts, 0, "no affinity model configured");
        }
    }

    #[test]
    fn round_robin_balances_counts() {
        let cluster = Cluster::new(4, 2);
        let w = workload(1_000, 4, 2, 0.7);
        let run = cluster.run(Placement::RoundRobin, &w);
        for &c in &run.per_host {
            assert_eq!(c, 250, "rotation places exactly n/hosts each");
        }
    }

    #[test]
    fn long_to_lightest_helps_long_functions() {
        // The future-work claim: steering longs to lighter hosts mitigates
        // their SFS penalty relative to blind round-robin.
        let cluster = Cluster::new(3, 4);
        let w = workload(1_500, 3, 4, 1.0);
        let rr = cluster.run(Placement::RoundRobin, &w);
        let steer = cluster.run(Placement::LongToLightest, &w);
        let (rr_long, steer_long) = (rr.long_mean_ms().unwrap(), steer.long_mean_ms().unwrap());
        assert!(
            steer_long <= rr_long * 1.05,
            "steering longs should not hurt them: {steer_long} vs {rr_long}"
        );
        let (rr_short, steer_short) = (rr.short_mean_ms().unwrap(), steer.short_mean_ms().unwrap());
        assert!(
            steer_short <= rr_short * 1.25,
            "short functions regressed: {steer_short} vs {rr_short}"
        );
    }

    #[test]
    fn any_controller_recipe_runs_per_host() {
        // The dispatcher composes with arbitrary policies: a kernel-only
        // CFS cluster completes the same request set as the SFS cluster,
        // one fresh controller per host, and placement is policy-blind
        // (the dispatcher model only uses the workload's duration labels).
        let cluster = Cluster::new(3, 4);
        let w = workload(600, 3, 4, 0.8);
        let sfs = cluster.run(Placement::JoinShortestQueue, &w);
        let cfs = cluster.run_with(Placement::JoinShortestQueue, &sfs_core::Baseline::Cfs, &w);
        assert_eq!(cfs.outcomes.len(), 600);
        assert_eq!(
            cfs.per_host, sfs.per_host,
            "placement is policy-independent"
        );
        for (a, b) in sfs.outcomes.iter().zip(cfs.outcomes.iter()) {
            assert_eq!(a.id, b.id);
        }
    }

    #[test]
    fn live_feedback_placements_use_every_host() {
        let cluster = Cluster::new(2, 2);
        let w = workload(600, 2, 2, 0.9);
        for p in [Placement::LeastLoaded, Placement::JoinShortestQueue] {
            let run = cluster.run(p, &w);
            assert!(
                run.per_host.iter().all(|&c| c > 100),
                "{}: {:?}",
                p.name(),
                run.per_host
            );
        }
    }

    /// `LeastLoaded` compares exact nanosecond backlogs. Four simultaneous
    /// requests on two 2-core hosts: the first three leave host 0 with
    /// cores busy for +100 µs and +200 µs, host 1 with one core busy for
    /// +300 µs and one idle. The backlogs tie, so the fourth goes to the
    /// lowest slot; a sum of per-core milliseconds reads 0.1 + 0.2 > 0.3
    /// and would send it to host 1.
    #[test]
    fn least_loaded_ties_exact_backlogs_to_the_lowest_slot() {
        let request = |id: u64, us: u64| Request {
            id,
            arrival: SimTime::ZERO,
            app: AppKind::Fib,
            duration_ms: us as f64 / 1e3,
            injected_io_ms: None,
            cold_start_ms: None,
            spec: sfs_sched::TaskSpec::cpu(id, SimDuration::from_micros(us)),
        };
        let w = Workload {
            requests: vec![
                request(0, 100),
                request(1, 300),
                request(2, 200),
                request(3, 50),
            ],
        };
        let run = Cluster::new(2, 2).run(Placement::LeastLoaded, &w);
        assert_eq!(run.per_host, [3, 1], "the tie goes to slot 0");
    }

    #[test]
    fn results_are_identical_for_every_thread_count() {
        let cluster = Cluster::new(4, 2).with_affinity(
            SimDuration::from_millis(2_000),
            SimDuration::from_millis(25),
        );
        let w = workload(800, 4, 2, 0.9);
        for p in Placement::ALL {
            let one = cluster.run_with_threads(p, &cluster.sfs, &w, 1);
            for threads in [2, 4, 8] {
                let many = cluster.run_with_threads(p, &cluster.sfs, &w, threads);
                assert_eq!(one.per_host, many.per_host, "{} t={threads}", p.name());
                assert_eq!(one.cold_starts, many.cold_starts);
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
    fn consistent_hash_maximises_warm_hits() {
        // Locality: under the affinity model, the hash placement must pay
        // far fewer cold starts than the locality-blind queue balancer.
        let cluster = Cluster::new(6, 2).with_affinity(
            SimDuration::from_millis(1_500),
            SimDuration::from_millis(30),
        );
        let w = workload(2_000, 6, 2, 0.8);
        let hash = cluster.run(Placement::ConsistentHash, &w);
        let jsq = cluster.run(Placement::JoinShortestQueue, &w);
        assert!(hash.cold_starts > 0, "some functions must start cold");
        assert!(
            hash.cold_starts * 2 < jsq.cold_starts,
            "consistent-hash cold starts {} should be far below JSQ's {}",
            hash.cold_starts,
            jsq.cold_starts
        );
    }

    #[test]
    fn cold_starts_inflate_measured_work() {
        // The penalty is real CPU: with affinity on, total ideal time
        // grows by the charged cold starts.
        let cluster = Cluster::new(4, 2);
        let warm = cluster.run(Placement::RoundRobin, &workload(500, 4, 2, 0.7));
        let cold_cluster = Cluster::new(4, 2)
            .with_affinity(SimDuration::from_millis(500), SimDuration::from_millis(40));
        let cold = cold_cluster.run(Placement::RoundRobin, &workload(500, 4, 2, 0.7));
        assert_eq!(warm.cold_starts, 0);
        assert!(cold.cold_starts > 0);
        let total_ideal = |r: &ClusterRun| {
            r.outcomes
                .iter()
                .map(|o| o.ideal.as_millis_f64())
                .sum::<f64>()
        };
        assert!(
            total_ideal(&cold) > total_ideal(&warm),
            "cold-start CPU must show up in the executed work"
        );
    }

    #[test]
    fn empty_workload_runs_everywhere() {
        let cluster = Cluster::new(4, 2);
        let w = Workload {
            requests: Vec::new(),
        };
        for p in Placement::ALL {
            let run = cluster.run(p, &w);
            assert!(run.outcomes.is_empty());
            assert_eq!(run.per_host, vec![0; 4]);
            assert_eq!(run.long_mean_ms(), None, "empty population has no mean");
            assert_eq!(run.short_mean_ms(), None);
        }
    }

    #[test]
    fn more_hosts_than_requests() {
        let cluster = Cluster::new(8, 2);
        let w = workload(3, 8, 2, 0.5);
        for p in Placement::ALL {
            let run = cluster.run(p, &w);
            assert_eq!(run.outcomes.len(), 3, "{}", p.name());
            assert_eq!(run.per_host.iter().sum::<usize>(), 3);
            assert_eq!(run.per_host.len(), 8);
        }
    }

    #[test]
    fn empty_population_means_are_none() {
        // Regression: a run whose workload is all-short must report the
        // long mean as absent, not as a (spuriously excellent) 0.0.
        let mut spec = WorkloadSpec::azure_sampled(40, 7);
        spec.durations = sfs_workload::DurationDist::Fixed { ms: 10.0 };
        let w = spec.with_load(4, 0.5).generate();
        let run = Cluster::new(2, 2).run(Placement::RoundRobin, &w);
        assert_eq!(run.long_mean_ms(), None);
        assert!(run.short_mean_ms().is_some());
    }

    #[test]
    fn argmin_prefers_smaller_scores_and_lowest_index_ties() {
        let min = |scores: &[f64]| argmin_f64(scores.iter().copied().enumerate());
        assert_eq!(min(&[0.0, 0.0, -1.0, 0.0]), Some(2));
        assert_eq!(
            min(&[0.0, 0.0, 0.0, 0.0]),
            Some(0),
            "ties resolve to the lowest index"
        );
        assert_eq!(
            argmin_f64([(5, 1.0), (1, 1.0), (3, 2.0)].into_iter()),
            Some(5),
            "over a subset, ties resolve to the first pair"
        );
    }

    #[test]
    fn argmin_is_nan_total() {
        // The regression the old `v < best_v` scan failed: a NaN-scored
        // host must not silently vanish from consideration, and an all-NaN
        // slate must resolve by rule, not by sentinel accident. Under
        // total_cmp, NaN orders *above* every finite value, so a finite
        // score always beats NaN, and an all-NaN slate ties to index 0.
        let by = |s: [f64; 3]| argmin_f64(s.into_iter().enumerate());
        assert_eq!(by([f64::NAN, 7.0, 9.0]), Some(1), "finite beats NaN");
        assert_eq!(by([f64::NAN; 3]), Some(0), "all-NaN ties to index 0");
        assert_eq!(by([f64::NAN, f64::INFINITY, 2.0]), Some(2));
        assert_eq!(
            argmin_f64(std::iter::empty()),
            None,
            "empty slate is None, not a panic"
        );
    }

    #[test]
    fn argmin_jsq_over_subset_skips_excluded_hosts() {
        let mut hosts: Vec<HostLoad> = (0..4).map(|_| HostLoad::new(2)).collect();
        hosts[0].depth = 0; // globally best, but excluded below
        hosts[1].depth = 3;
        hosts[2].depth = 1;
        hosts[3].depth = 1;
        hosts[3].ewma_turnaround_ms = Some(5.0);
        hosts[2].ewma_turnaround_ms = Some(9.0);
        assert_eq!(argmin_jsq_over(hosts.iter().enumerate()), Some(0));
        assert_eq!(
            argmin_jsq_over([1, 2, 3].into_iter().map(|i| (i, &hosts[i]))),
            Some(3),
            "depth tie breaks on the lower EWMA"
        );
        assert_eq!(argmin_jsq_over(std::iter::empty()), None);
    }

    #[test]
    fn func_key_packs_table1_range_unchanged() {
        // The packing is pinned by the consistent-hash goldens: app id in
        // the high bits, fib N in the low 8. Table I's widest N today is
        // 35 — comfortably inside the 8-bit field the guard defends.
        assert_eq!(pack_func_key(2, 35), (2 << 8) | 35);
        assert_eq!(pack_func_key(0, 20), 20);
        assert_eq!(pack_func_key(1, 255), (1 << 8) | 255, "boundary N=255 fits");
        let t1 = Table1Sampler::new();
        for ms in [1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0] {
            assert!(
                t1.fib_n_for(ms) < 256,
                "Table I emits an N the packing cannot hold at {ms}ms"
            );
        }
    }

    #[test]
    #[should_panic(expected = "func_key packing overflow")]
    fn func_key_overflow_is_loud_not_aliased() {
        // Regression for the silent-aliasing hazard: N = 256 would collide
        // with (app+1, 0)'s key. The pack must abort instead.
        let _ = pack_func_key(0, 256);
    }

    #[test]
    fn bounded_load_ring_respects_cap_while_alternatives_exist() {
        // Seeded property sweep over ring shapes, load vectors, and keys:
        // the clockwise walk must never land on a host at/over the cap
        // while any under-cap host exists anywhere on the ring.
        let mut rng = sfs_simcore::SimRng::seed_from_u64(0x51A6_1D0C);
        for case in 0..400 {
            let hosts_n = rng.uniform_u64(2, 9) as usize;
            let vnodes = rng.uniform_u64(1, 32) as usize;
            let ring = build_ring(hosts_n, vnodes, rng.next_u64());
            let mut hosts: Vec<HostLoad> = (0..hosts_n).map(|_| HostLoad::new(2)).collect();
            for h in &mut hosts {
                h.depth = rng.uniform_u64(0, 12) as usize;
            }
            let total: usize = hosts.iter().map(|h| h.depth).sum();
            let cap = bounded_load_cap(total, hosts_n);
            let key = rng.next_u64();
            let under_cap = |h: usize| hosts[h].depth < cap;
            match ring_walk(&ring, key, under_cap) {
                Some(host) => assert!(
                    hosts[host].depth < cap,
                    "case {case}: placed on host {host} at depth {} >= cap {cap}",
                    hosts[host].depth
                ),
                None => assert!(
                    hosts.iter().all(|h| h.depth >= cap),
                    "case {case}: walk gave up while an under-cap host existed"
                ),
            }
            // With the real cluster cap (mean×1.25 counting the newcomer),
            // at least one host sits below the cap, so the walk never
            // falls through when every host is eligible.
            assert!(
                ring_walk(&ring, key, under_cap).is_some(),
                "case {case}: the mean-based cap always leaves headroom"
            );
        }
    }

    #[test]
    fn bounded_load_all_at_cap_fallback_is_reachable_and_deterministic() {
        // The degenerate branch: force every host to the cap (the fleet
        // reaches this state when eligibility shrinks the slate — e.g.
        // every active host saturated during an AZ outage) and check the
        // walk reports it, twice, identically; the fallback then picks the
        // shallowest queue deterministically.
        let ring = build_ring(4, 8, 0xDEAD_BEEF);
        let mut hosts: Vec<HostLoad> = (0..4).map(|_| HostLoad::new(2)).collect();
        for h in &mut hosts {
            h.depth = 5;
        }
        let walk = |hosts: &[HostLoad], eligible: fn(usize) -> bool| {
            ring_walk(&ring, 42, |h| eligible(h) && hosts[h].depth < 5)
        };
        assert_eq!(walk(&hosts, |_| true), None);
        assert_eq!(walk(&hosts, |_| true), None);
        hosts[2].depth = 4; // still >= nothing: under this cap now
        assert_eq!(walk(&hosts, |_| true), Some(2));
        // Eligibility shrinks the slate the same way: only saturated hosts
        // eligible -> None, even though host 2 has headroom.
        assert_eq!(walk(&hosts, |h| h != 2), None);
        // The fallback (shallowest queue) is deterministic.
        let shallowest = || argmin_f64(hosts.iter().map(|h| h.depth as f64).enumerate());
        assert_eq!(shallowest(), Some(2));
        assert_eq!(shallowest(), Some(2));
    }

    #[test]
    fn host_reset_clears_modelled_state() {
        let mut h = HostLoad::new(2);
        let t0 = SimTime::ZERO;
        h.admit(t0, 100.0);
        h.admit(t0, 50.0);
        h.depth = 2;
        h.outstanding_long_ms = 100.0;
        h.ewma_turnaround_ms = Some(75.0);
        assert!(h.backlog_ms(t0) > 0.0);
        let crash_at = t0 + SimDuration::from_millis(30);
        h.reset(crash_at);
        assert_eq!(h.depth, 0);
        assert_eq!(h.outstanding_long_ms, 0.0);
        assert_eq!(h.ewma_turnaround_ms, None);
        assert_eq!(h.backlog_ms(crash_at), 0.0, "cores free up at the reset");
        // And the host admits again from the reset instant.
        let f = h.admit(crash_at, 10.0);
        assert_eq!(f, crash_at + SimDuration::from_millis(10));
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// The leave instant of each of `arrivals` at an `n`-server FCFS
    /// pool that holds every request for `service_ms`.
    fn fcfs_all(n: usize, service_ms: u64, arrivals: &[SimTime]) -> Vec<SimTime> {
        let mut free = servers(n, SimTime::ZERO);
        let service = SimDuration::from_millis(service_ms);
        arrivals
            .iter()
            .map(|&a| fcfs(&mut free, a, service))
            .collect()
    }

    #[test]
    fn fcfs_uncontended_request_leaves_after_its_service() {
        let leaves = fcfs_all(4, 2, &[at(0), at(100), at(200)]);
        assert_eq!(leaves, [at(2), at(102), at(202)]);
    }

    #[test]
    fn fcfs_one_server_serialises_simultaneous_arrivals() {
        assert_eq!(fcfs_all(1, 10, &[at(0); 3]), [at(10), at(20), at(30)]);
    }

    #[test]
    fn fcfs_two_servers_run_in_parallel() {
        let leaves = fcfs_all(2, 10, &[at(0); 4]);
        assert_eq!(leaves, [at(10), at(10), at(20), at(20)]);
    }

    #[test]
    fn fcfs_keeps_exit_order_for_equal_service() {
        let arrivals: Vec<SimTime> = (0..200).map(at).collect();
        let leaves = fcfs_all(3, 5, &arrivals);
        for w in leaves.windows(2) {
            assert!(w[0] <= w[1], "FCFS with equal service must preserve order");
        }
    }

    /// Seeded cases: every request leaves, no earlier than its arrival
    /// plus its service; at most `servers` are in service at any instant;
    /// one server lets them leave in arrival order.
    #[test]
    fn fcfs_respects_capacity_and_causality() {
        for case in 0..48u64 {
            let mut rng = sfs_simcore::SimRng::seed_from_u64(0xFAA5)
                .derive("stage_capacity")
                .derive(&case.to_string());
            let n = rng.uniform_u64(1, 199) as usize;
            let servers = rng.uniform_u64(1, 5) as usize;
            let service_ms = rng.uniform_u64(1, 49);
            let mut ms: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 9_999)).collect();
            ms.sort_unstable();
            let arrivals: Vec<SimTime> = ms.into_iter().map(at).collect();
            let leaves = fcfs_all(servers, service_ms, &arrivals);
            let service = SimDuration::from_millis(service_ms);
            assert_eq!(leaves.len(), n, "case {case}");
            for (&a, &l) in arrivals.iter().zip(&leaves) {
                assert!(l >= a + service, "left before its service (case {case})");
            }
            let mut edges: Vec<(SimTime, bool)> = (leaves.iter())
                .flat_map(|&l| [(l, false), (l - service, true)])
                .collect();
            edges.sort_unstable();
            let mut busy = 0usize;
            for (_, starts) in edges {
                busy = if starts { busy + 1 } else { busy - 1 };
                assert!(busy <= servers, "over capacity (case {case})");
            }
            if servers == 1 {
                for w in leaves.windows(2) {
                    assert!(w[0] <= w[1], "one server left out of order (case {case})");
                }
            }
        }
    }

    /// The heap gives every request the leave instant that a scan of a
    /// slice of free instants (earliest server, lowest index on ties)
    /// gives, over seeded pools up to the gateway's 1,024 servers, with
    /// unordered arrivals and per-request services, as a later dispatch
    /// hop sees them.
    #[test]
    fn fcfs_heap_matches_a_scan_of_server_slots() {
        let mut rng = sfs_simcore::SimRng::seed_from_u64(0xFCF5);
        for case in 0..64 {
            let n = [1, 2, 3, 8, 72, 1_024][case % 6];
            let (mut heap, mut slots) = (servers(n, SimTime::ZERO), vec![SimTime::ZERO; n]);
            for _ in 0..rng.uniform_u64(0, 3_000) {
                let arrival = SimTime::ZERO + SimDuration::from_micros(rng.uniform_u64(0, 50_000));
                let service = SimDuration::from_micros(rng.uniform_u64(0, 2_000));
                let (server, &free) = (slots.iter().enumerate())
                    .min_by_key(|&(_, &t)| t)
                    .expect("the pool has servers");
                slots[server] = free.max(arrival) + service;
                let leave = fcfs(&mut heap, arrival, service);
                assert_eq!(leave, slots[server], "case {case}, {n} servers");
            }
        }
    }

    #[test]
    fn outcome_ids_unique_across_hosts() {
        // Guards the sub-workload construction in run_with against id
        // collisions: every original id appears exactly once in the merge.
        let cluster = Cluster::new(5, 2);
        let w = workload(1_000, 5, 2, 0.9);
        for p in Placement::ALL {
            let run = cluster.run(p, &w);
            let mut ids: Vec<u64> = run.outcomes.iter().map(|o| o.id).collect();
            ids.dedup();
            assert_eq!(ids.len(), 1_000, "{}: duplicate outcome ids", p.name());
            assert_eq!(ids, (0..1_000).collect::<Vec<u64>>());
        }
    }
}
