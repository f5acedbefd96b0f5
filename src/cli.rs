//! Strict parsers for the `sfs` CLI's structured flags, and the examples'
//! one environment knob.
//!
//! The PR 7 contract for `SFS_BENCH_*` environment overrides applies to
//! CLI sub-arguments too: a malformed value **aborts naming the flag and
//! the offending value** — it never falls through to a default or
//! half-parses a spec. Every parser here returns `Err(message)` where the
//! message starts with the flag spelling (`--cluster: ...`), so the binary
//! can print it verbatim; the messages are pinned by unit tests.

use sfs_faas::{FaultSpec, Fleet, Placement};
use sfs_sched::SmpParams;
use sfs_simcore::SimDuration;

/// `SFS_EXAMPLE_REQUESTS`, the examples' downsizing knob so CI can
/// smoke-run each quickly, else `default`. Each example reads it in
/// `main`; a malformed value is a usage error naming the variable and the
/// value (exit 2), as in every binary.
pub fn example_requests(default: usize) -> usize {
    let what = "a request count >= 1";
    sfs_simcore::env::try_env_override("SFS_EXAMPLE_REQUESTS", default, what, |&n| n >= 1)
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
}

/// A parsed `--cluster` spec.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Host count.
    pub hosts: usize,
    /// Cores per host.
    pub cores: usize,
    /// Dispatcher placement policy.
    pub placement: Placement,
    /// `(keep_alive_ms, cold_start_ms)` when `affinity=...` was given.
    pub affinity: Option<(u64, u64)>,
}

/// A parsed `--fleet` spec.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Region count.
    pub regions: usize,
    /// Initial hosts per region.
    pub hosts: usize,
    /// Cores per host.
    pub cores: usize,
    /// Intra-region placement policy.
    pub placement: Placement,
    /// `(keep_alive_ms, cold_start_ms)` when `affinity=...` was given.
    pub affinity: Option<(u64, u64)>,
    /// Fault scenario when `faults=...` was given.
    pub faults: Option<FaultSpec>,
    /// Front-door spill threshold override (ms backlog per core).
    pub spill_ms: Option<f64>,
    /// Front-door shed threshold override (ms backlog per core).
    pub shed_ms: Option<f64>,
    /// Fleet seed override.
    pub seed: Option<u64>,
}

impl FleetSpec {
    /// Materialise the [`Fleet`] this spec describes.
    pub fn build(&self) -> Fleet {
        let mut fleet = Fleet::new(self.regions, self.hosts, self.cores);
        if let Some((keep_ms, cold_ms)) = self.affinity {
            fleet = fleet.with_affinity(
                SimDuration::from_millis(keep_ms),
                SimDuration::from_millis(cold_ms),
            );
        }
        if let Some(f) = self.faults {
            fleet = fleet.with_faults(f);
        }
        if let Some(s) = self.spill_ms {
            fleet.front_door.spill_backlog_ms = s;
        }
        if let Some(s) = self.shed_ms {
            fleet.front_door.shed_backlog_ms = s;
        }
        if let Some(s) = self.seed {
            fleet.seed = s;
        }
        fleet
    }
}

/// Split one `key=value` term of `flag`'s spec, or fail naming the term.
fn key_value<'a>(flag: &str, part: &'a str) -> Result<(&'a str, &'a str), String> {
    part.split_once('=')
        .ok_or_else(|| format!("{flag}: `{part}` is not key=value"))
}

/// Parse a count ≥ 1, or fail naming the flag, key, and offending value.
fn count(flag: &str, key: &str, v: &str) -> Result<usize, String> {
    v.parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{flag}: {key}=`{v}` is not a count >= 1"))
}

/// Parse a non-negative integer (milliseconds / microseconds / seed).
fn num_u64(flag: &str, key: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag}: {key}=`{v}` is not a non-negative integer"))
}

/// Parse a non-negative float (threshold milliseconds).
fn num_ms(flag: &str, key: &str, v: &str) -> Result<f64, String> {
    v.parse()
        .ok()
        .filter(|x: &f64| x.is_finite() && *x >= 0.0)
        .ok_or_else(|| format!("{flag}: {key}=`{v}` is not a non-negative number of ms"))
}

fn placement(flag: &str, v: &str) -> Result<Placement, String> {
    Placement::parse(v).ok_or_else(|| {
        format!(
            "{flag}: placement=`{v}` is not one of round-robin|least-loaded|long-to-lightest|\
             join-shortest-queue|consistent-hash (rr|ll|l2l|jsq|hash)"
        )
    })
}

fn affinity_pair(flag: &str, v: &str) -> Result<(u64, u64), String> {
    let err = || format!("{flag}: affinity=`{v}` is not KEEPMS:COLDMS");
    let (keep, cold) = v.split_once(':').ok_or_else(err)?;
    Ok((
        keep.parse().map_err(|_| err())?,
        cold.parse().map_err(|_| err())?,
    ))
}

/// Parse `--cluster hosts=N,cores=M,placement=P[,affinity=KEEPMS:COLDMS]`
/// (each key optional; defaults 4 hosts × 8 cores, round-robin, no
/// affinity model — a 1-host cluster then matches the plain `--sched` run
/// exactly). A bare `--cluster` (value "true") takes every default.
pub fn parse_cluster_spec(spec: &str) -> Result<ClusterSpec, String> {
    const FLAG: &str = "--cluster";
    let mut parsed = ClusterSpec {
        hosts: 4,
        cores: 8,
        placement: Placement::RoundRobin,
        affinity: None,
    };
    if spec != "true" {
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = key_value(FLAG, part)?;
            match k {
                "hosts" => parsed.hosts = count(FLAG, k, v)?,
                "cores" => parsed.cores = count(FLAG, k, v)?,
                "placement" => parsed.placement = placement(FLAG, v)?,
                "affinity" => parsed.affinity = Some(affinity_pair(FLAG, v)?),
                _ => {
                    return Err(format!(
                        "{FLAG}: unknown key `{k}` (expected hosts, cores, placement, affinity)"
                    ))
                }
            }
        }
    }
    Ok(parsed)
}

/// Parse `--fleet regions=N,hosts=M[,cores=C][,placement=P]
/// [,affinity=KEEPMS:COLDMS][,faults=crash:A+straggler:B+outage:C]
/// [,spill=MS][,shed=MS][,seed=S]`. A bare `--fleet` (value "true") takes
/// every default: 2 regions × 4 hosts × 2 cores, round-robin.
pub fn parse_fleet_spec(spec: &str) -> Result<FleetSpec, String> {
    const FLAG: &str = "--fleet";
    let mut parsed = FleetSpec {
        regions: 2,
        hosts: 4,
        cores: 2,
        placement: Placement::RoundRobin,
        affinity: None,
        faults: None,
        spill_ms: None,
        shed_ms: None,
        seed: None,
    };
    if spec != "true" {
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = key_value(FLAG, part)?;
            match k {
                "regions" => parsed.regions = count(FLAG, k, v)?,
                "hosts" => parsed.hosts = count(FLAG, k, v)?,
                "cores" => parsed.cores = count(FLAG, k, v)?,
                "placement" => parsed.placement = placement(FLAG, v)?,
                "affinity" => parsed.affinity = Some(affinity_pair(FLAG, v)?),
                "faults" => {
                    parsed.faults =
                        Some(FaultSpec::parse(v).map_err(|e| format!("{FLAG}: faults: {e}"))?)
                }
                "spill" => parsed.spill_ms = Some(num_ms(FLAG, k, v)?),
                "shed" => parsed.shed_ms = Some(num_ms(FLAG, k, v)?),
                "seed" => parsed.seed = Some(num_u64(FLAG, k, v)?),
                _ => {
                    return Err(format!(
                        "{FLAG}: unknown key `{k}` (expected regions, hosts, cores, placement, \
                         affinity, faults, spill, shed, seed)"
                    ))
                }
            }
        }
    }
    Ok(parsed)
}

/// Parse `--smp balance=MS[,migration=US][,affinity=US]`. A bare `--smp`
/// (value "true") uses the bench suite's standard knobs: balance every
/// 4 ms, 30 µs migration penalty, 15 µs cross-core resume cost.
pub fn parse_smp_spec(spec: &str) -> Result<SmpParams, String> {
    const FLAG: &str = "--smp";
    let mut balance_ms = 4u64;
    let mut migration_us = 30u64;
    let mut affinity_us = 15u64;
    if spec != "true" {
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = key_value(FLAG, part)?;
            match k {
                "balance" => balance_ms = num_u64(FLAG, k, v)?,
                "migration" => migration_us = num_u64(FLAG, k, v)?,
                "affinity" => affinity_us = num_u64(FLAG, k, v)?,
                _ => {
                    return Err(format!(
                        "{FLAG}: unknown key `{k}` (expected balance, migration, affinity)"
                    ))
                }
            }
        }
    }
    Ok(SmpParams::balanced(
        SimDuration::from_millis(balance_ms),
        SimDuration::from_micros(migration_us),
        SimDuration::from_micros(affinity_us),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_spec_parses_full_and_bare_forms() {
        let c = parse_cluster_spec("hosts=8,cores=4,placement=jsq,affinity=10000:50").unwrap();
        assert_eq!(c.hosts, 8);
        assert_eq!(c.cores, 4);
        assert_eq!(c.placement, Placement::JoinShortestQueue);
        assert_eq!(c.affinity, Some((10_000, 50)));
        let d = parse_cluster_spec("true").unwrap();
        assert_eq!((d.hosts, d.cores), (4, 8));
        assert_eq!(d.placement, Placement::RoundRobin);
        assert!(d.affinity.is_none());
    }

    #[test]
    fn cluster_spec_errors_name_flag_key_and_value() {
        // The satellite-bug regression: these used to collapse into one
        // unspecific message (or half-parse); now each names the flag and
        // the offending value, pinned here verbatim.
        assert_eq!(
            parse_cluster_spec("hosts=abc").unwrap_err(),
            "--cluster: hosts=`abc` is not a count >= 1"
        );
        assert_eq!(
            parse_cluster_spec("hosts=0").unwrap_err(),
            "--cluster: hosts=`0` is not a count >= 1"
        );
        assert_eq!(
            parse_cluster_spec("hosts=4,garbage").unwrap_err(),
            "--cluster: `garbage` is not key=value"
        );
        assert_eq!(
            parse_cluster_spec("hsots=4").unwrap_err(),
            "--cluster: unknown key `hsots` (expected hosts, cores, placement, affinity)"
        );
        assert_eq!(
            parse_cluster_spec("affinity=10").unwrap_err(),
            "--cluster: affinity=`10` is not KEEPMS:COLDMS"
        );
        assert_eq!(
            parse_cluster_spec("affinity=abc:50").unwrap_err(),
            "--cluster: affinity=`abc:50` is not KEEPMS:COLDMS"
        );
        let e = parse_cluster_spec("placement=zigzag").unwrap_err();
        assert!(
            e.starts_with("--cluster: placement=`zigzag` is not one of"),
            "{e}"
        );
    }

    #[test]
    fn smp_spec_parses_and_rejects_strictly() {
        assert!(parse_smp_spec("true").is_ok());
        assert!(parse_smp_spec("balance=8,migration=40,affinity=20").is_ok());
        assert_eq!(
            parse_smp_spec("balance=abc").unwrap_err(),
            "--smp: balance=`abc` is not a non-negative integer"
        );
        assert_eq!(
            parse_smp_spec("balance=4,,junk").unwrap_err(),
            "--smp: `junk` is not key=value"
        );
        assert_eq!(
            parse_smp_spec("tick=4").unwrap_err(),
            "--smp: unknown key `tick` (expected balance, migration, affinity)"
        );
    }

    #[test]
    fn fleet_spec_parses_full_and_bare_forms() {
        let f = parse_fleet_spec(
            "regions=3,hosts=8,cores=4,placement=hash,affinity=5000:40,\
             faults=crash:2+straggler:1+outage:1,spill=100,shed=2000,seed=7",
        )
        .unwrap();
        assert_eq!((f.regions, f.hosts, f.cores), (3, 8, 4));
        assert_eq!(f.placement, Placement::ConsistentHash);
        assert_eq!(f.affinity, Some((5_000, 40)));
        let faults = f.faults.unwrap();
        assert_eq!(
            (faults.crashes, faults.stragglers, faults.outages),
            (2, 1, 1)
        );
        assert_eq!(f.spill_ms, Some(100.0));
        assert_eq!(f.shed_ms, Some(2_000.0));
        assert_eq!(f.seed, Some(7));
        let fleet = f.build();
        assert_eq!(fleet.regions.len(), 3);
        assert_eq!(fleet.front_door.spill_backlog_ms, 100.0);
        assert_eq!(fleet.seed, 7);
        assert!(fleet.affinity.is_some() && fleet.faults.is_some());

        let bare = parse_fleet_spec("true").unwrap();
        assert_eq!((bare.regions, bare.hosts, bare.cores), (2, 4, 2));
        assert!(bare.faults.is_none());
        let fleet = bare.build();
        assert_eq!(fleet.regions.len(), 2);
        assert!(fleet.faults.is_none());
    }

    #[test]
    fn fleet_spec_errors_name_flag_key_and_value() {
        assert_eq!(
            parse_fleet_spec("regions=zero").unwrap_err(),
            "--fleet: regions=`zero` is not a count >= 1"
        );
        assert_eq!(
            parse_fleet_spec("spill=-1").unwrap_err(),
            "--fleet: spill=`-1` is not a non-negative number of ms"
        );
        assert_eq!(
            parse_fleet_spec("seed=x").unwrap_err(),
            "--fleet: seed=`x` is not a non-negative integer"
        );
        assert_eq!(
            parse_fleet_spec("faults=meteor:1").unwrap_err(),
            "--fleet: faults: unknown fault kind `meteor` in `meteor:1` \
             (expected crash/straggler/outage)"
        );
        assert_eq!(
            parse_fleet_spec("faults=crash:x").unwrap_err(),
            "--fleet: faults: fault count `x` in `crash:x` is not a number"
        );
        assert_eq!(
            parse_fleet_spec("warp=9").unwrap_err(),
            "--fleet: unknown key `warp` (expected regions, hosts, cores, placement, \
             affinity, faults, spill, shed, seed)"
        );
    }
}
