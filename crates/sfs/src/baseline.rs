//! Pure-kernel baseline descriptors (CFS / FIFO / RR / SRTF).
//!
//! These are the comparators of Fig. 2 (motivation) and the "CFS" series in
//! every evaluation figure: the FaaS server dispatches each request straight
//! to the OS and the kernel scheduler does everything. Under the
//! policy-driven API a baseline is just [`KernelOnly`] with the right
//! dispatch policy (plus the right kernel policy on the machine);
//! [`Baseline`] packages that mapping as a [`ControllerFactory`]. The
//! kernel-policy baselines (EEVDF / DL / SRP) exercise the pluggable
//! [`sfs_sched::policy`] layer the same way.

use sfs_sched::{KernelPolicyKind, MachineParams, Policy};

use crate::config::FILTER_PRIO;
use crate::policies::KernelOnly;
use crate::sim::{Controller, ControllerFactory};

/// Which pure-kernel baseline scheduler to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Linux default: every request under `SCHED_NORMAL` nice 0.
    Cfs,
    /// Every request under `SCHED_FIFO` at [`FILTER_PRIO`]
    /// (convoy-prone).
    Fifo,
    /// Every request under `SCHED_RR` at [`FILTER_PRIO`].
    Rr,
    /// The offline oracle.
    Srtf,
    /// Every request under the EEVDF kernel policy (nice 0).
    Eevdf,
    /// Every request under the CBS deadline-class kernel policy.
    Deadline,
    /// Every request under the preemption-ceiling (SRP) kernel policy.
    Srp,
}

impl Baseline {
    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::Cfs => "CFS",
            Baseline::Fifo => "FIFO",
            Baseline::Rr => "RR",
            Baseline::Srtf => "SRTF",
            Baseline::Eevdf => "EEVDF",
            Baseline::Deadline => "DL",
            Baseline::Srp => "SRP",
        }
    }

    /// The dispatch policy this baseline runs every request under.
    pub fn policy(self) -> Policy {
        match self {
            Baseline::Cfs
            | Baseline::Srtf
            | Baseline::Eevdf
            | Baseline::Deadline
            | Baseline::Srp => Policy::NORMAL,
            Baseline::Fifo => Policy::Fifo { prio: FILTER_PRIO },
            Baseline::Rr => Policy::Rr { prio: FILTER_PRIO },
        }
    }

    /// The kernel scheduling policy this baseline needs on the machine.
    pub fn kernel_policy(self) -> KernelPolicyKind {
        match self {
            Baseline::Srtf => KernelPolicyKind::Srtf,
            Baseline::Eevdf => KernelPolicyKind::Eevdf,
            Baseline::Deadline => KernelPolicyKind::Deadline,
            Baseline::Srp => KernelPolicyKind::Srp,
            Baseline::Cfs | Baseline::Fifo | Baseline::Rr => KernelPolicyKind::Cfs,
        }
    }
}

impl ControllerFactory for Baseline {
    fn build(&self) -> Box<dyn Controller> {
        Box::new(KernelOnly(self.policy()))
    }

    fn label(&self) -> String {
        self.name().to_string()
    }

    fn configure_machine(&self, params: &mut MachineParams) {
        params.kpolicy = self.kernel_policy();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RequestOutcome;
    use sfs_simcore::SimDuration;
    use sfs_workload::{Workload, WorkloadSpec};

    /// New-API equivalent of the old `run_baseline` helper.
    fn baseline_outcomes(b: Baseline, cores: usize, w: &Workload) -> Vec<RequestOutcome> {
        b.run_on(cores, w).outcomes
    }

    #[test]
    fn srtf_dominates_cfs_at_high_load() {
        let w = WorkloadSpec::azure_sampled(1_500, 3)
            .with_load(4, 1.0)
            .generate();
        let cfs = baseline_outcomes(Baseline::Cfs, 4, &w);
        let srtf = baseline_outcomes(Baseline::Srtf, 4, &w);
        let mean = |v: &[RequestOutcome]| {
            v.iter().map(|o| o.turnaround.as_millis_f64()).sum::<f64>() / v.len() as f64
        };
        assert!(
            mean(&srtf) < mean(&cfs),
            "SRTF must beat CFS on mean turnaround"
        );
    }

    #[test]
    fn fifo_suffers_convoy_on_short_requests() {
        let w = WorkloadSpec::azure_sampled(1_500, 5)
            .with_load(4, 1.0)
            .generate();
        let fifo = baseline_outcomes(Baseline::Fifo, 4, &w);
        let srtf = baseline_outcomes(Baseline::Srtf, 4, &w);
        // Compare median turnaround of short requests (most of the mass).
        let median_short = |v: &[RequestOutcome]| {
            let mut xs: Vec<f64> = v
                .iter()
                .filter(|o| o.cpu_demand < SimDuration::from_millis(100))
                .map(|o| o.turnaround.as_millis_f64())
                .collect();
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        };
        assert!(
            median_short(&fifo) > 3.0 * median_short(&srtf),
            "FIFO {} vs SRTF {}: convoy effect missing",
            median_short(&fifo),
            median_short(&srtf)
        );
    }
}
