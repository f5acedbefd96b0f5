//! Kernel-policy timelines pinned by digests.
//!
//! Each case replays one op timeline on the machine: randomized timelines
//! (mixed CPU/IO phase shapes, mixed `SCHED_NORMAL`/`SCHED_FIFO`/`SCHED_RR`
//! policies, and `set_policy` promotions and demotions at random instants)
//! under CFS and SRTF, and rotation timelines that keep CFS cores rotating.
//! At every op instant it reads each spawned task's `proc_state` and
//! `cpu_time` and the context-switch total, and it keeps every
//! notification, every completion record and the final switch total. One
//! line of `tests/golden/kpolicy_timelines.txt` per case holds an FNV-1a
//! digest of all of it.
//!
//! The lines were recorded while a frozen copy of the machine from before
//! the kernel-policy extraction still replayed every case beside it and
//! agreed on every read, notification and digest. So they lock the CFS,
//! RT and SRTF ports bit for bit, and a deliberate schedule change is a
//! reviewed regeneration, as for every other golden:
//!
//! ```text
//! SFS_GOLDEN_UPDATE=1 cargo test -p sfs-sched --test kpolicy_diff
//! git diff crates/sched/tests/golden/   # review what moved, then commit
//! ```
//!
//! The rotation cases also diff the machine against its own eager path:
//! with tracing on it observes every slice boundary and opens no tickless
//! window, and the windowed run must agree with it read for read.

use std::path::Path;
use std::sync::{Mutex, PoisonError};

use sfs_sched::{
    FinishedTask, KernelPolicyKind, Machine, MachineParams, Notification, Phase, Pid, Policy,
    ProcState, SmpParams, TaskSpec,
};
use sfs_simcore::{SimDuration, SimRng, SimTime};

#[path = "support/open_loop.rs"]
mod open_loop;
use open_loop::completions;

#[path = "support/rotation.rs"]
mod rotation;
use rotation::{rotation_ops, Op};

fn random_policy(rng: &mut SimRng) -> Policy {
    if rng.chance(0.65) {
        Policy::Normal {
            nice: rng.uniform_u64(0, 10) as i8 - 5,
        }
    } else if rng.chance(0.5) {
        Policy::Fifo {
            prio: rng.uniform_u64(1, 99) as u8,
        }
    } else {
        Policy::Rr {
            prio: rng.uniform_u64(1, 99) as u8,
        }
    }
}

fn random_spec(rng: &mut SimRng, label: u64) -> TaskSpec {
    let n_phases = rng.uniform_u64(1, 4) as usize;
    let mut phases = Vec::with_capacity(n_phases);
    for _ in 0..n_phases {
        let d = SimDuration::from_micros(rng.uniform_u64(50, 15_000));
        if rng.chance(0.7) {
            phases.push(Phase::Cpu(d));
        } else {
            phases.push(Phase::Io(d));
        }
    }
    if !phases.iter().any(|p| p.is_cpu()) {
        let d = SimDuration::from_micros(rng.uniform_u64(50, 15_000));
        *phases.last_mut().expect("n_phases >= 1") = Phase::Cpu(d);
    }
    TaskSpec {
        phases,
        policy: random_policy(rng),
        label,
    }
}

/// A randomized op timeline: ~80 spawns with mixed phase shapes and
/// policies, interleaved with policy switches (promotions, demotions,
/// priority changes) at random instants.
fn random_ops(seed: u64) -> Vec<(SimTime, Op)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut t = SimTime::ZERO;
    let mut spawned = 0usize;
    for i in 0..110u64 {
        t += SimDuration::from_micros(rng.uniform_u64(0, 4_000));
        if spawned == 0 || rng.chance(0.72) {
            ops.push((t, Op::Spawn(random_spec(&mut rng, i))));
            spawned += 1;
        } else {
            let target = rng.uniform_u64(0, spawned as u64 - 1) as usize;
            ops.push((t, Op::SetPolicy(target, random_policy(&mut rng))));
        }
    }
    ops
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// One timeline case: the machine it runs on and the seed of its op
/// timeline.
struct Case {
    /// The test that runs the case; its golden lines start with this name.
    test: &'static str,
    params: MachineParams,
    seed: u64,
}

impl Case {
    fn label(&self) -> String {
        let p = &self.params;
        format!(
            "{} kpolicy={} cores={} cost={} beta={} seed={}",
            self.test, p.kpolicy, p.cores, p.ctx_switch_cost, p.contention_beta, self.seed
        )
    }
}

/// One read a controller can make between operations.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Read {
    /// `proc_state` and `cpu_time` of a spawned task at an op instant.
    Task(SimTime, Pid, ProcState, SimDuration),
    /// `total_ctx_switches` at an op instant.
    Switches(SimTime, u64),
}

/// Everything a controller observes of one replayed timeline.
#[derive(Default)]
struct Timeline {
    /// At each op instant, before the op: every spawned task, then the
    /// context-switch total.
    reads: Vec<Read>,
    notes: Vec<Notification>,
    /// Completion records, in completion order.
    finished: Vec<FinishedTask>,
    /// Context-switch total at quiescence.
    ctx_switches: u64,
}

/// Replay `ops` on `m`, reading at each op instant, and run it dry.
fn replay(mut m: Machine, ops: &[(SimTime, Op)]) -> Timeline {
    let mut tl = Timeline::default();
    let mut pids = Vec::new();
    for (t, op) in ops {
        tl.notes.extend(m.advance_to(*t));
        let reads = pids
            .iter()
            .map(|&p| Read::Task(*t, p, m.proc_state(p), m.cpu_time(p)));
        tl.reads.extend(reads);
        tl.reads.push(Read::Switches(*t, m.total_ctx_switches()));
        match op {
            Op::Spawn(spec) => pids.push(m.spawn(spec.clone())),
            Op::SetPolicy(i, p) => m.set_policy(pids[*i], *p),
        }
    }
    tl.notes.extend(m.run_until_quiescent());
    m.assert_conservation();
    tl.finished = completions(&tl.notes);
    tl.ctx_switches = m.total_ctx_switches();
    tl
}

/// FNV-1a over `u64` words, as the bench goldens' `fingerprint`.
struct Fnv(u64);

impl Fnv {
    fn mix(&mut self, words: impl IntoIterator<Item = u64>) {
        for x in words {
            self.0 ^= x;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn record(&mut self, r: &FinishedTask) {
        self.mix([
            r.pid.0,
            r.label,
            r.arrival.as_nanos(),
            u64::from(r.first_run.is_some()),
            r.first_run.map_or(0, SimTime::as_nanos),
            r.finished.as_nanos(),
            r.cpu_time.as_nanos(),
            r.io_time.as_nanos(),
            r.cpu_demand.as_nanos(),
            r.ideal.as_nanos(),
            r.ctx_switches,
            r.migrations,
        ]);
    }
}

impl Timeline {
    /// The case's golden line: counts for a reader, then FNV-1a over an
    /// explicit encoding of every read, notification (a completion's full
    /// record included), completion record and the final switch total.
    fn digest_line(&self, case: &Case) -> String {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for read in &self.reads {
            match *read {
                Read::Task(t, pid, state, cpu) => {
                    let state = match state {
                        ProcState::Running => 0,
                        ProcState::Runnable => 1,
                        ProcState::Sleeping => 2,
                        ProcState::Dead => 3,
                    };
                    h.mix([0, t.as_nanos(), pid.0, state, cpu.as_nanos()]);
                }
                Read::Switches(t, n) => h.mix([1, t.as_nanos(), n]),
            }
        }
        for note in &self.notes {
            match note {
                Notification::FirstRun(p, t) => h.mix([2, p.0, t.as_nanos()]),
                Notification::Blocked(p, t) => h.mix([3, p.0, t.as_nanos()]),
                Notification::Woke(p, t) => h.mix([4, p.0, t.as_nanos()]),
                Notification::Finished(r) => {
                    h.mix([5]);
                    h.record(r);
                }
            }
        }
        for r in &self.finished {
            h.mix([6]);
            h.record(r);
        }
        h.mix([7, self.ctx_switches]);
        format!(
            "{} notes={} done={} reads={} ctx={} fnv={:#018x}",
            case.label(),
            self.notes.len(),
            self.finished.len(),
            self.reads.len(),
            self.ctx_switches,
            h.0
        )
    }
}

fn debug_lines<T: std::fmt::Debug>(xs: &[T]) -> Vec<String> {
    xs.iter().map(|x| format!("{x:?}")).collect()
}

/// `got` and `want` agree read for read, notification for notification,
/// record for record, and on the switch total.
fn assert_same(got: &Timeline, want: &Timeline, ctx: &str) {
    for (i, (g, w)) in got.reads.iter().zip(&want.reads).enumerate() {
        assert_eq!(g, w, "read {i} diverged ({ctx})");
    }
    assert_eq!(got.reads.len(), want.reads.len(), "read count ({ctx})");
    let (g, w) = (debug_lines(&got.notes), debug_lines(&want.notes));
    for (i, (g, w)) in g.iter().zip(&w).enumerate() {
        assert_eq!(g, w, "notification {i} diverged ({ctx})");
    }
    assert_eq!(g.len(), w.len(), "notification count ({ctx})");
    assert_eq!(
        debug_lines(&got.finished),
        debug_lines(&want.finished),
        "completion records ({ctx})"
    );
    assert_eq!(
        got.ctx_switches, want.ctx_switches,
        "context-switch totals ({ctx})"
    );
}

const GOLDEN: &str = "tests/golden/kpolicy_timelines.txt";

fn update_requested() -> bool {
    std::env::var("SFS_GOLDEN_UPDATE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Check `test`'s digest lines against its block of the golden file, or
/// rewrite that block when `SFS_GOLDEN_UPDATE` is set. Blocks sort by test
/// name, so the file does not depend on which test wrote first.
fn check_golden(test: &str, lines: &[String]) {
    // This binary's tests run in parallel and share the file: the lock
    // keeps each update's read-modify-write whole. It guards no data, so
    // a test that failed while holding it leaves nothing to repair.
    static FILE: Mutex<()> = Mutex::new(());
    let _held = FILE.lock().unwrap_or_else(PoisonError::into_inner);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let prefix = format!("{test} ");
    let golden = std::fs::read_to_string(&path);
    if update_requested() {
        let kept = golden.unwrap_or_default();
        let kept = kept.lines().filter(|l| !l.starts_with(&prefix));
        let mut all: Vec<&str> = kept.chain(lines.iter().map(String::as_str)).collect();
        all.sort_by_key(|l| l.split(' ').next());
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, all.join("\n") + "\n").expect("write golden");
        return;
    }
    let golden = golden.unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with SFS_GOLDEN_UPDATE=1 to create it",
            path.display()
        )
    });
    let want: Vec<&str> = golden.lines().filter(|l| l.starts_with(&prefix)).collect();
    assert!(
        want == lines,
        "{test}: timelines drifted from {GOLDEN}\n--- expected\n{}\n--- got\n{}\n\
         If the change is intentional, regenerate with SFS_GOLDEN_UPDATE=1 and review the diff.",
        want.join("\n"),
        lines.join("\n")
    );
}

// ----------------------------------------------------------------------
// Port timelines: the golden lines recorded from the pre-refactor machine
// ----------------------------------------------------------------------

const SEEDS: [u64; 4] = [1, 7, 42, 20_220_215];

/// Replay a random timeline per core count and seed on `params`' machine,
/// and check each digest against the golden lines recorded from the
/// pre-refactor machine.
fn check_ports(test: &'static str, params: MachineParams, cores: &[usize]) {
    let mut lines = Vec::new();
    for &cores in cores {
        for seed in SEEDS {
            let params = MachineParams { cores, ..params };
            let case = Case { test, params, seed };
            let got = replay(Machine::new(params), &random_ops(seed));
            lines.push(got.digest_line(&case));
        }
    }
    check_golden(test, &lines);
}

#[test]
fn cfs_port_matches_prerefactor_machine() {
    let params = MachineParams::default();
    check_ports("cfs_port_matches_prerefactor_machine", params, &[1, 2, 4]);
}

#[test]
fn srtf_port_matches_prerefactor_machine() {
    let params = MachineParams::default().with_kpolicy(KernelPolicyKind::Srtf);
    check_ports("srtf_port_matches_prerefactor_machine", params, &[1, 2, 4]);
}

#[test]
fn cfs_port_matches_with_smp_balancing() {
    let smp = SmpParams::balanced(
        SimDuration::from_millis(1),
        SimDuration::from_micros(500),
        SimDuration::from_micros(200),
    );
    let params = MachineParams::default().with_smp(smp);
    check_ports("cfs_port_matches_with_smp_balancing", params, &[2, 4]);
}

#[test]
fn srtf_port_ignores_smp_balancing_like_prerefactor() {
    // The old machine only armed the balance tick in Linux mode; the new
    // one gates it on `participates_in_balance`, which SRTF declines. The
    // schedules must agree with balancing knobs turned all the way up.
    let smp = SmpParams::balanced(
        SimDuration::from_millis(1),
        SimDuration::from_millis(1),
        SimDuration::from_micros(200),
    );
    let params = MachineParams::default()
        .with_kpolicy(KernelPolicyKind::Srtf)
        .with_smp(smp);
    let test = "srtf_port_ignores_smp_balancing_like_prerefactor";
    check_ports(test, params, &[4]);
}

#[test]
fn cfs_port_matches_under_contention() {
    let params = MachineParams {
        contention_beta: 0.5,
        ..Default::default()
    };
    check_ports("cfs_port_matches_under_contention", params, &[2]);
}

// ----------------------------------------------------------------------
// Rotation timelines: windows against the machine's own eager path
// ----------------------------------------------------------------------

const ROTATION_SEEDS: [u64; 5] = [3, 11, 58, 2_022, 0x5F5];

/// Replay a rotation timeline per core count, switch cost and seed on the
/// machine and on the same machine with tracing on, which observes every
/// slice boundary and so never opens a window. The two must agree read for
/// read (each task's state and CPU time and the context-switch total at
/// every op instant), then on notifications, completion records and
/// totals; and each digest must match its golden line.
fn check_rotations(test: &'static str, smp: SmpParams, cores: &[usize], costs: &[SimDuration]) {
    let mut lines = Vec::new();
    for &cores in cores {
        for &ctx_switch_cost in costs {
            for seed in ROTATION_SEEDS {
                let params = MachineParams {
                    cores,
                    ctx_switch_cost,
                    ..Default::default()
                }
                .with_smp(smp);
                let case = Case { test, params, seed };
                // Enough operations to keep every core of a many-core
                // machine busy.
                let ops = rotation_ops(seed, 48.max(10 * cores as u64));
                let got = replay(Machine::new(params), &ops);
                let mut eager = Machine::new(params);
                eager.enable_tracing();
                assert_same(&got, &replay(eager, &ops), &case.label());
                lines.push(got.digest_line(&case));
            }
        }
    }
    check_golden(test, &lines);
}

#[test]
fn rotating_cores_match_the_eager_machine() {
    let costs = [SimDuration::ZERO, ms(1), SimDuration::from_micros(5)];
    let test = "rotating_cores_match_the_eager_machine";
    check_rotations(test, SmpParams::default(), &[1, 2, 4], &costs);
}

/// With this many cores, enough windows are open at once that the machine
/// looks their boundaries up through its index rather than a scan.
#[test]
fn rotating_many_cores_match_the_eager_machine() {
    let costs = [SimDuration::ZERO, ms(1)];
    let test = "rotating_many_cores_match_the_eager_machine";
    check_rotations(test, SmpParams::default(), &[24], &costs);
}

#[test]
fn rotating_cores_match_the_eager_machine_with_smp_balancing() {
    let smp = SmpParams::balanced(ms(4), SimDuration::from_micros(500), ms(1));
    let costs = [SimDuration::ZERO, ms(1)];
    let test = "rotating_cores_match_the_eager_machine_with_smp_balancing";
    check_rotations(test, smp, &[2, 4], &costs);
}
