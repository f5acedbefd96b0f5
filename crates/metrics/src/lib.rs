//! # sfs-metrics — experiment reporting
//!
//! Shared reporting machinery for the per-figure bench harnesses:
//!
//! * [`report`] — CDF reports, percentile tables, markdown/CSV tables;
//! * [`compare`] — headline-claim aggregation (83% / 49.6× / 1.29×) and
//!   Fig.-16 context-switch ratios;
//! * [`ascii`] — terminal charts so `cargo run -p sfs-bench --bin figXX`
//!   shows the figure's shape without a plotting stack.

#![warn(missing_docs)]

pub mod ascii;
pub mod compare;
pub mod report;
pub mod slo;

pub use ascii::{cdf_chart, timeline_chart};
pub use compare::{ctx_switch_ratios, headline_claims, HeadlineClaims, Paired};
pub use report::{
    CdfReport, MarkdownTable, PercentileTable, Series, CDF_FRACTIONS, PAPER_PERCENTILES,
};
pub use slo::{evaluate_slo, tightest_bound, SloReport, SloRule};

use std::fs;
use std::path::Path;

/// Write experiment output under `results/` (created if missing), returning
/// the path written. Harnesses call this for every CSV they print.
pub fn write_results(filename: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(filename);
    fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    #[test]
    fn write_results_creates_file() {
        let p = super::write_results("test_metrics_write.csv", "a,b\n1,2\n").unwrap();
        let back = std::fs::read_to_string(&p).unwrap();
        assert_eq!(back, "a,b\n1,2\n");
        std::fs::remove_file(p).unwrap();
    }
}
