//! The open-loop run the machine's suites share: spawn each task at its
//! arrival, run to quiescence, and read the completion records off the
//! `Finished` notifications, the only way a completion leaves the machine.
//! The including module provides `FinishedTask`, `Machine`,
//! `MachineParams`, `Notification` and `TaskSpec`.

#![allow(dead_code)] // each including suite calls a subset

use sfs_simcore::SimTime;

use super::{FinishedTask, Machine, MachineParams, Notification, TaskSpec};

/// Run a batch of `(arrival_time, spec)` pairs to completion on a fresh
/// machine, spawning each task at its arrival time, and return the
/// completion records in completion order.
pub fn run_open_loop(
    params: MachineParams,
    arrivals: impl IntoIterator<Item = (SimTime, TaskSpec)>,
) -> Vec<FinishedTask> {
    let mut m = Machine::new(params);
    let mut notes = Vec::new();
    for (at, spec) in arrivals {
        notes.extend(m.advance_to(at));
        m.spawn(spec);
    }
    notes.extend(m.run_until_quiescent());
    completions(&notes)
}

/// The completion records among `notes`, in delivery order.
pub fn completions(notes: &[Notification]) -> Vec<FinishedTask> {
    notes
        .iter()
        .filter_map(|n| match n {
            Notification::Finished(rec) => Some((**rec).clone()),
            _ => None,
        })
        .collect()
}
