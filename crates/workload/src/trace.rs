//! Workload trace import/export.
//!
//! FaaSBench workloads can be serialised to a simple CSV trace format and
//! replayed later, so an experiment can be pinned to an exact invocation
//! sequence (as the paper pins its evaluation to a replayed Azure sample)
//! or exchanged with other tools.
//!
//! Format (header required):
//! ```text
//! id,arrival_ms,app,duration_ms,injected_io_ms
//! 0,12.5,fib,34.2,
//! 1,14.1,md,120.0,55.5
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sfs_simcore::{SimDuration, SimTime};

use crate::apps::{build_task, AppKind};
use crate::{Request, Workload};

/// Serialise a workload to the CSV trace format.
pub fn to_csv(workload: &Workload) -> String {
    let mut out = String::from("id,arrival_ms,app,duration_ms,injected_io_ms\n");
    for r in &workload.requests {
        let io = r.injected_io_ms.map(|x| format!("{x}")).unwrap_or_default();
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            r.id,
            r.arrival.as_millis_f64(),
            r.app.name(),
            r.duration_ms,
            io
        );
    }
    out
}

/// Errors from trace parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Missing or wrong header line.
    BadHeader,
    /// A header and no data rows: there is nothing to run.
    Empty,
    /// A data row failed to parse; payload is (line number, reason).
    BadRow(usize, String),
    /// Arrivals must be non-decreasing.
    UnsortedArrivals(usize),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadHeader => write!(f, "bad or missing trace header"),
            TraceError::Empty => write!(f, "the trace has a header but no rows"),
            TraceError::BadRow(n, why) => write!(f, "bad row at line {n}: {why}"),
            TraceError::UnsortedArrivals(n) => {
                write!(f, "arrivals not sorted at line {n}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Parse a CSV trace back into a workload. Ids must be unique: every layer
/// that reports per-request outcomes keys them by id. A trace needs at
/// least one row, arrivals at or after 0, and positive durations and I/O.
pub fn from_csv(text: &str) -> Result<Workload, TraceError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == "id,arrival_ms,app,duration_ms,injected_io_ms" => {}
        _ => return Err(TraceError::BadHeader),
    }
    let mut requests = Vec::new();
    let mut first_line_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut prev_arrival = 0.0f64;
    // CPU and I/O demand of the rows so far, in ms.
    let mut demand_ms = 0.0f64;
    let horizon_ms = SimTime::HORIZON.as_millis_f64();
    for (lineno, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 5 {
            return Err(TraceError::BadRow(
                lineno + 1,
                format!("expected 5 columns, got {}", cols.len()),
            ));
        }
        let parse_f = |s: &str, what: &str| -> Result<f64, TraceError> {
            match s.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(v),
                _ => Err(TraceError::BadRow(lineno + 1, format!("bad {what}: {s:?}"))),
            }
        };
        let id: u64 = cols[0]
            .parse()
            .map_err(|_| TraceError::BadRow(lineno + 1, format!("bad id: {:?}", cols[0])))?;
        if let Some(first) = first_line_of.insert(id, lineno + 1) {
            return Err(TraceError::BadRow(
                lineno + 1,
                format!("duplicate id {id} (first at line {first})"),
            ));
        }
        let arrival_ms = parse_f(cols[1], "arrival")?;
        if arrival_ms < 0.0 {
            return Err(TraceError::BadRow(
                lineno + 1,
                "arrival must not be negative".into(),
            ));
        }
        if arrival_ms < prev_arrival {
            return Err(TraceError::UnsortedArrivals(lineno + 1));
        }
        prev_arrival = arrival_ms;
        let app = match cols[2] {
            "fib" => AppKind::Fib,
            "md" => AppKind::Md,
            "sa" => AppKind::Sa,
            other => {
                return Err(TraceError::BadRow(
                    lineno + 1,
                    format!("unknown app: {other:?}"),
                ))
            }
        };
        let duration_ms = parse_f(cols[3], "duration")?;
        if duration_ms <= 0.0 {
            return Err(TraceError::BadRow(
                lineno + 1,
                "duration must be positive".into(),
            ));
        }
        let injected = if cols[4].is_empty() {
            None
        } else {
            let io = parse_f(cols[4], "injected io")?;
            if io <= 0.0 {
                return Err(TraceError::BadRow(
                    lineno + 1,
                    "injected io must be positive".into(),
                ));
            }
            Some(io)
        };
        demand_ms += duration_ms + injected.unwrap_or(0.0);
        if arrival_ms + demand_ms > horizon_ms {
            return Err(TraceError::BadRow(
                lineno + 1,
                format!(
                    "arrival {} ms plus the trace's CPU and I/O demand so far ({demand_ms:.3e} \
                     ms) crosses the simulated-time horizon ({horizon_ms:.3e} ms)",
                    cols[1]
                ),
            ));
        }
        let spec = build_task(id, app, duration_ms, injected);
        // Spans that round to zero nanoseconds make phases the machine
        // cannot run.
        spec.validate()
            .map_err(|why| TraceError::BadRow(lineno + 1, why))?;
        requests.push(Request {
            id,
            arrival: SimTime::ZERO + SimDuration::from_millis_f64(arrival_ms),
            app,
            duration_ms,
            injected_io_ms: injected,
            // The CSV schema predates cold starts; replayed traces are
            // always warm (matching the paper's pre-warmed setup).
            cold_start_ms: None,
            spec,
        });
    }
    if requests.is_empty() {
        return Err(TraceError::Empty);
    }
    Ok(Workload { requests })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;

    #[test]
    fn roundtrip_preserves_workload() {
        let mut spec = WorkloadSpec::openlambda(200, 9);
        spec.io_fraction = 0.3;
        let w = spec.with_load(4, 0.8).generate();
        let csv = to_csv(&w);
        let back = from_csv(&csv).expect("roundtrip parse");
        assert_eq!(back.len(), w.len());
        for (a, b) in w.requests.iter().zip(back.requests.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.app, b.app);
            assert!((a.arrival.as_millis_f64() - b.arrival.as_millis_f64()).abs() < 1e-6);
            assert!((a.duration_ms - b.duration_ms).abs() < 1e-9);
            assert_eq!(a.injected_io_ms.is_some(), b.injected_io_ms.is_some());
            assert_eq!(a.spec.phases.len(), b.spec.phases.len());
        }
    }

    #[test]
    fn rejects_rows_past_the_horizon_or_not_finite_naming_the_line() {
        let head = "id,arrival_ms,app,duration_ms,injected_io_ms\n1,1,fib,5,\n";
        let bad = |row: &str| match from_csv(&format!("{head}{row}")).unwrap_err() {
            TraceError::BadRow(3, why) => why,
            e => panic!("{row}: expected a bad row at line 3, got {e}"),
        };
        for row in [
            "2,18446744073709.5,fib,5,",
            "2,1,fib,1e300,",
            "2,1,fib,5,1e300",
        ] {
            assert!(bad(row).contains("horizon"), "{row}: {}", bad(row));
        }
        for row in ["2,inf,fib,5,", "2,1,fib,nan,", "2,1,fib,5,-inf"] {
            assert!(bad(row).starts_with("bad "), "{row}: {}", bad(row));
        }
        // An injected wait that rounds to zero nanoseconds cannot run.
        assert!(bad("2,1,fib,5,1e-9").contains("zero duration"));
        // Negative values name their field, before the running demand or
        // the sort order sees them.
        assert_eq!(bad("2,1,fib,5,-3"), "injected io must be positive");
        assert_eq!(bad("2,1,fib,5,0"), "injected io must be positive");
        assert_eq!(
            from_csv("id,arrival_ms,app,duration_ms,injected_io_ms\n1,-1,fib,5,\n").unwrap_err(),
            TraceError::BadRow(2, "arrival must not be negative".into())
        );
        // The horizon counts the demand of every row so far, not one row's.
        let near = SimTime::HORIZON.as_millis_f64() / 2.0;
        let rows = format!("{head}2,2,fib,{near},\n3,3,fib,{near},\n");
        assert!(matches!(from_csv(&rows), Err(TraceError::BadRow(4, _))));
    }

    #[test]
    fn rejects_bad_header() {
        assert_eq!(
            from_csv("nope\n1,2,fib,3,").unwrap_err(),
            TraceError::BadHeader
        );
        assert_eq!(from_csv("").unwrap_err(), TraceError::BadHeader);
        // A header alone is no workload.
        let head = "id,arrival_ms,app,duration_ms,injected_io_ms\n";
        assert_eq!(from_csv(head).unwrap_err(), TraceError::Empty);
        assert_eq!(
            from_csv(&format!("{head}\n\n")).unwrap_err(),
            TraceError::Empty
        );
    }

    #[test]
    fn rejects_malformed_rows() {
        let head = "id,arrival_ms,app,duration_ms,injected_io_ms\n";
        assert!(matches!(
            from_csv(&format!("{head}1,2,fib\n")),
            Err(TraceError::BadRow(2, _))
        ));
        assert!(matches!(
            from_csv(&format!("{head}x,2,fib,3,\n")),
            Err(TraceError::BadRow(2, _))
        ));
        assert!(matches!(
            from_csv(&format!("{head}1,2,python,3,\n")),
            Err(TraceError::BadRow(2, _))
        ));
        assert!(matches!(
            from_csv(&format!("{head}1,2,fib,-3,\n")),
            Err(TraceError::BadRow(2, _))
        ));
    }

    #[test]
    fn rejects_duplicate_ids_naming_both_lines() {
        let csv =
            "id,arrival_ms,app,duration_ms,injected_io_ms\n7,1,fib,5,\n8,2,fib,5,\n7,3,md,8,\n";
        let err = from_csv(csv).unwrap_err();
        assert_eq!(
            err,
            TraceError::BadRow(4, "duplicate id 7 (first at line 2)".into())
        );
        assert_eq!(
            err.to_string(),
            "bad row at line 4: duplicate id 7 (first at line 2)"
        );
        // Sparse, non-contiguous ids are fine.
        let sparse = "id,arrival_ms,app,duration_ms,injected_io_ms\n100,1,fib,5,\n5,2,fib,5,\n";
        assert_eq!(from_csv(sparse).unwrap().len(), 2);
    }

    #[test]
    fn rejects_unsorted_arrivals() {
        let csv = "id,arrival_ms,app,duration_ms,injected_io_ms\n0,10,fib,5,\n1,9,fib,5,\n";
        assert_eq!(from_csv(csv).unwrap_err(), TraceError::UnsortedArrivals(3));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let csv = "id,arrival_ms,app,duration_ms,injected_io_ms\n0,1,fib,5,\n\n1,2,md,8,4.5\n";
        let w = from_csv(csv).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.requests[1].injected_io_ms, Some(4.5));
        // md keeps its segmented phase structure through the trace format.
        assert!(w.requests[1].spec.phases.len() > 2);
    }
}
