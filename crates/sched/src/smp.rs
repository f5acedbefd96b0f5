//! SMP tunables and the periodic load balancer.
//!
//! A real multicore kernel does not leave wakeup placement as the only
//! cross-core mechanism: `scheduler_tick` periodically walks the runqueues
//! and pulls work from the busiest CPU toward the idlest one, paying a
//! migration cost (cache/TLB refill) for every task it moves. SFS coexists
//! with exactly that machinery on a live host, so the simulated
//! [`Machine`](crate::Machine) models it too:
//!
//! * **Balance tick** — every [`SmpParams::balance_interval`] the machine
//!   compares per-core queued depths and migrates one task from the busiest
//!   to the idlest CFS runqueue when the gap reaches two tasks (one
//!   migration per tick, like the kernel's conservative `load_balance`
//!   envelope).
//! * **Migration penalty** — a balance-migrated task pays
//!   [`SmpParams::migration_cost`] of extra dispatch latency the next time
//!   it gets a CPU (its cache footprint is gone).
//! * **Cache-affinity cost** — any task resuming on a different core than
//!   it last executed on pays [`SmpParams::affinity_cost`] at dispatch,
//!   whatever moved it (wakeup placement, idle stealing, or the balancer).
//!
//! All three default to **zero/off**: a default-constructed machine is
//! bit-exact with the pre-SMP model at any core count, which is what the
//! golden suite and `smp_single_core_diff` lock.

use sfs_simcore::SimDuration;

/// SMP behaviour knobs for [`MachineParams`](crate::MachineParams).
///
/// The all-zero [`Default`] disables every SMP mechanism, reproducing the
/// pre-SMP machine exactly; [`SmpParams::balanced`] is the standard "on"
/// configuration the SMP bench scenarios use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmpParams {
    /// Period of the load-balance tick. `ZERO` disables balancing.
    pub balance_interval: SimDuration,
    /// Extra dispatch latency a balance-migrated task pays on its next
    /// dispatch (cold cache after a forced move). Charged once per
    /// migration, on top of the ordinary context-switch cost.
    pub migration_cost: SimDuration,
    /// Extra dispatch latency any task pays when it resumes on a different
    /// core than it last executed on. `ZERO` disables the model. On a
    /// single-core machine this never fires (there is no other core).
    pub affinity_cost: SimDuration,
}

impl Default for SmpParams {
    fn default() -> Self {
        SmpParams {
            balance_interval: SimDuration::ZERO,
            migration_cost: SimDuration::ZERO,
            affinity_cost: SimDuration::ZERO,
        }
    }
}

impl SmpParams {
    /// True iff the periodic balance tick is enabled.
    pub fn balancing(&self) -> bool {
        !self.balance_interval.is_zero()
    }

    /// The standard "SMP on" configuration used by the SMP bench
    /// scenarios: balance every `interval`, with the given migration and
    /// affinity costs.
    pub fn balanced(
        interval: SimDuration,
        migration_cost: SimDuration,
        affinity_cost: SimDuration,
    ) -> SmpParams {
        SmpParams {
            balance_interval: interval,
            migration_cost,
            affinity_cost,
        }
    }
}

/// The queued-depth gap (busiest − idlest CFS runqueue) that triggers a
/// migration; below it the tick is a pure scan. Moving a task across a gap
/// of 1 would only swap which core is the busy one.
const BALANCE_THRESHOLD: u64 = 2;

/// Pick the (busiest, idlest) pair of cores by queued depth, if the gap
/// reaches [`BALANCE_THRESHOLD`]. Ties break on the lowest core index for
/// both ends — the deterministic contract every balance decision relies
/// on. Returns `None` when the load is already balanced.
pub(crate) fn pick_imbalance(depths: &[u64]) -> Option<(usize, usize)> {
    if depths.len() < 2 {
        return None;
    }
    let mut busiest = 0usize;
    let mut idlest = 0usize;
    for (i, &d) in depths.iter().enumerate().skip(1) {
        if d > depths[busiest] {
            busiest = i;
        }
        if d < depths[idlest] {
            idlest = i;
        }
    }
    if depths[busiest] >= depths[idlest] + BALANCE_THRESHOLD {
        Some((busiest, idlest))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_off() {
        let p = SmpParams::default();
        assert!(!p.balancing());
        assert!(p.migration_cost.is_zero());
        assert!(p.affinity_cost.is_zero());
    }

    #[test]
    fn imbalance_requires_threshold_gap() {
        assert_eq!(pick_imbalance(&[3, 1]), Some((0, 1)));
        assert_eq!(pick_imbalance(&[2, 1]), None, "gap of 1 never migrates");
        assert_eq!(pick_imbalance(&[5, 5, 5]), None, "balanced load");
        assert_eq!(pick_imbalance(&[0, 0]), None, "all idle");
        assert_eq!(pick_imbalance(&[7]), None, "single core");
        assert_eq!(pick_imbalance(&[]), None);
    }

    #[test]
    fn ties_break_on_lowest_core_index() {
        assert_eq!(pick_imbalance(&[4, 4, 0, 0]), Some((0, 2)));
        assert_eq!(pick_imbalance(&[0, 4, 4, 0]), Some((1, 0)));
    }
}
