//! Multi-series reports: CDFs, percentile tables, CSV/markdown rendering.
//!
//! Every figure harness produces one of these and prints it, so the bench
//! binaries all share the same output conventions:
//!
//! * CDF figures (2, 6, 7, 9, 11, 12b, 13, 14) → [`CdfReport`],
//! * percentile figures (8, 15) → [`PercentileTable`],
//! * tables (I, II) → [`MarkdownTable`].

use sfs_simcore::Samples;

/// Quantile grid used when printing CDFs (dense at the tail, like the
/// paper's log-scale axes).
pub const CDF_FRACTIONS: [f64; 17] = [
    0.01, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95, 0.99, 0.995,
    0.999, 1.0,
];

/// A named empirical distribution.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label ("SFS 80%", "CFS 100%", ...).
    pub label: String,
    /// Raw sample values.
    pub samples: Samples,
}

impl Series {
    /// Build from raw values.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Series {
        Series {
            label: label.into(),
            samples: Samples::from_vec(values),
        }
    }
}

/// A CDF comparison across several series.
#[derive(Debug, Clone, Default)]
pub struct CdfReport {
    series: Vec<Series>,
}

impl CdfReport {
    /// Empty report.
    pub fn new() -> CdfReport {
        CdfReport::default()
    }

    /// Add one series.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        self.series.push(Series::new(label, values));
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True iff no series added.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// CSV: one row per quantile, one column per series.
    pub fn to_csv(&mut self) -> String {
        let mut out = String::from("fraction");
        for s in &self.series {
            out.push_str(&format!(",{}", s.label));
        }
        out.push('\n');
        for &f in CDF_FRACTIONS.iter() {
            out.push_str(&format!("{f}"));
            for s in self.series.iter_mut() {
                out.push_str(&format!(",{:.6}", s.samples.quantile(f)));
            }
            out.push('\n');
        }
        out
    }

    /// Markdown table of quantiles (what the bench binaries print).
    pub fn to_markdown(&mut self) -> String {
        let mut out = format!(
            "| fraction |{}\n|---|{}\n",
            self.series
                .iter()
                .map(|s| format!(" {} |", s.label))
                .collect::<String>(),
            self.series.iter().map(|_| "---|").collect::<String>()
        );
        for &f in CDF_FRACTIONS.iter() {
            out.push_str(&format!("| p{:.5} |", f * 100.0));
            for s in self.series.iter_mut() {
                out.push_str(&format!(" {:.3} |", s.samples.quantile(f)));
            }
            out.push('\n');
        }
        out
    }
}

/// Percentile breakdown table (Fig. 8 / Fig. 15): rows = series, columns =
/// p50/p90/p99/p99.9/p99.99.
#[derive(Debug, Clone, Default)]
pub struct PercentileTable {
    series: Vec<Series>,
}

/// The percentiles the paper reports in Fig. 8/15.
pub const PAPER_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

impl PercentileTable {
    /// Empty table.
    pub fn new() -> PercentileTable {
        PercentileTable::default()
    }

    /// Add one series from raw values (exact percentiles).
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        self.series.push(Series::new(label, values));
    }

    /// Percentile value for a series (by label).
    pub fn value(&mut self, label: &str, pct: f64) -> Option<f64> {
        self.series
            .iter_mut()
            .find(|s| s.label == label)
            .map(|s| s.samples.percentile(pct))
    }

    /// Markdown rendering.
    pub fn to_markdown(&mut self) -> String {
        let mut out = String::from("| series |");
        for p in PAPER_PERCENTILES {
            out.push_str(&format!(" p{p} |"));
        }
        out.push_str("\n|---|");
        for _ in PAPER_PERCENTILES {
            out.push_str("---|");
        }
        out.push('\n');
        for s in self.series.iter_mut() {
            out.push_str(&format!("| {} |", s.label));
            for p in PAPER_PERCENTILES {
                out.push_str(&format!(" {:.1} |", s.samples.percentile(p)));
            }
            out.push('\n');
        }
        out
    }

    /// CSV rendering.
    pub fn to_csv(&mut self) -> String {
        let mut out = String::from("series");
        for p in PAPER_PERCENTILES {
            out.push_str(&format!(",p{p}"));
        }
        out.push('\n');
        for s in self.series.iter_mut() {
            out.push_str(&s.label.to_string());
            for p in PAPER_PERCENTILES {
                out.push_str(&format!(",{:.3}", s.samples.percentile(p)));
            }
            out.push('\n');
        }
        out
    }
}

/// A generic markdown/CSV table for Table I / Table II style output.
#[derive(Debug, Clone)]
pub struct MarkdownTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MarkdownTable {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> MarkdownTable {
        MarkdownTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "| {} |\n|{}\n",
            self.header.join(" | "),
            self.header.iter().map(|_| "---|").collect::<String>()
        );
        for r in &self.rows {
            out.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        out
    }

    /// CSV rendering.
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_report_quantiles_per_series() {
        let mut r = CdfReport::new();
        r.push("A", (1..=100).map(|i| i as f64).collect());
        r.push("B", (1..=100).map(|i| (i * 2) as f64).collect());
        assert_eq!(r.len(), 2);
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "fraction,A,B");
        assert_eq!(lines.len(), 1 + CDF_FRACTIONS.len());
        // p50 row: A=50, B=100.
        let p50 = lines.iter().find(|l| l.starts_with("0.5,")).unwrap();
        assert!(p50.contains("50.000000") && p50.contains("100.000000"));
        let md = r.to_markdown();
        assert!(md.contains("| A |") && md.contains("| B |"));
    }

    #[test]
    fn percentile_table_matches_samples() {
        let mut t = PercentileTable::new();
        t.push("X", (1..=1000).map(|i| i as f64).collect());
        assert_eq!(t.value("X", 50.0), Some(500.0));
        assert_eq!(t.value("X", 99.9), Some(999.0));
        assert_eq!(t.value("missing", 50.0), None);
        let md = t.to_markdown();
        assert!(md.contains("p99.99"));
        let csv = t.to_csv();
        assert!(csv.starts_with("series,p50,p90,p99,p99.9,p99.99"));
    }

    #[test]
    fn markdown_table_rendering() {
        let mut t = MarkdownTable::new(&["interval", "avg"]);
        t.row(&["4 ms".into(), "3.6%".into()]);
        assert_eq!(t.len(), 1);
        let md = t.to_markdown();
        assert!(md.contains("| interval | avg |"));
        assert!(md.contains("| 4 ms | 3.6% |"));
        assert_eq!(t.to_csv(), "interval,avg\n4 ms,3.6%\n");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn markdown_table_rejects_bad_row() {
        let mut t = MarkdownTable::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }
}
