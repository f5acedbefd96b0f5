//! Time-series recording for timeline figures.
//!
//! Fig. 10 (adapted time slice vs. IAT over the workload) and Fig. 12a
//! (queuing delay per request submission) are timelines rather than CDFs;
//! this module records `(time, value)` pairs.

use crate::time::SimTime;

/// An append-only `(SimTime, f64)` series.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
    label: String,
}

impl TimeSeries {
    /// An empty series with a human-readable label (used in CSV headers).
    pub fn new(label: impl Into<String>) -> Self {
        TimeSeries {
            points: Vec::new(),
            label: label.into(),
        }
    }

    /// Record one observation. Timestamps need not be strictly increasing
    /// (e.g. per-request series indexed by submission order), but most
    /// producers push monotonically.
    pub fn record(&mut self, t: SimTime, value: f64) {
        self.points.push((t, value));
    }

    /// Series label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff nothing recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Borrow all points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Largest recorded value (0 if empty).
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Mean of recorded values (0 if empty).
    pub fn mean_value(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
        }
    }

    /// Render as CSV `time_ms,<label>` lines.
    pub fn to_csv(&self) -> String {
        let mut out = format!("time_ms,{}\n", self.label);
        for &(t, v) in &self.points {
            out.push_str(&format!("{},{}\n", t.as_millis_f64(), v));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn records_and_summarises() {
        let mut s = TimeSeries::new("queue_delay");
        s.record(at(0), 1.0);
        s.record(at(10), 3.0);
        s.record(at(20), 2.0);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty() && TimeSeries::new("e").is_empty());
        assert_eq!(s.max_value(), 3.0);
        assert!((s.mean_value() - 2.0).abs() < 1e-12);
        assert_eq!(s.label(), "queue_delay");
    }

    #[test]
    fn csv_output_shape() {
        let mut s = TimeSeries::new("v");
        s.record(at(5), 1.25);
        let csv = s.to_csv();
        assert_eq!(csv, "time_ms,v\n5,1.25\n");
    }
}
