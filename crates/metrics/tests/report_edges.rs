//! Edge-case tests for the reporting layer beyond the unit suites.

use sfs_metrics::{
    cdf_chart, ctx_switch_ratios, evaluate_slo, headline_claims, timeline_chart, CdfReport,
    MarkdownTable, Paired, PercentileTable, SloRule,
};

fn pair(ideal: f64, t: f64, b: f64, tc: u64, bc: u64) -> Paired {
    Paired {
        ideal_ms: ideal,
        treatment_ms: t,
        baseline_ms: b,
        treatment_ctx: tc,
        baseline_ctx: bc,
    }
}

#[test]
fn headline_with_all_long_population() {
    // No short requests at all: speedup defaults neutral, slowdown real.
    let pairs = vec![
        pair(2000.0, 2600.0, 2000.0, 5, 5),
        pair(3000.0, 3300.0, 3000.0, 2, 2),
    ];
    let h = headline_claims(&pairs, 1550.0);
    assert_eq!(h.short_fraction, 0.0);
    assert_eq!(h.short_mean_speedup, 1.0);
    assert!((h.long_mean_slowdown - 1.2).abs() < 1e-9);
    assert_eq!(h.improved_fraction, 0.0);
}

#[test]
fn ctx_ratio_distribution_is_complete() {
    let pairs: Vec<Paired> = (0..50)
        .map(|i| pair(10.0, 10.0, 10.0, i % 3, (i % 7) * 4))
        .collect();
    let ratios = ctx_switch_ratios(&pairs);
    assert_eq!(ratios.len(), 50);
    for r in ratios {
        assert!(r > 0.0 && r.is_finite());
    }
}

#[test]
fn single_value_series_render_everywhere() {
    let mut cdf = CdfReport::new();
    cdf.push("only", vec![42.0]);
    let md = cdf.to_markdown();
    assert!(md.contains("42.000"));
    let mut pt = PercentileTable::new();
    pt.push("only", vec![42.0]);
    assert_eq!(pt.value("only", 99.99), Some(42.0));
    let chart = cdf_chart(&[("s", &[42.0][..])], 30, 6);
    assert!(chart.contains('*'));
    let tl = timeline_chart(&[(0.0, 42.0)], 30, 6);
    assert!(tl.contains('*'));
}

#[test]
fn slo_grace_protects_microsecond_functions() {
    // A 0.5ms function that took 8ms: 16x slowdown but within the 10ms
    // grace — the reason the rule has an absolute allowance.
    let rule = SloRule::soft();
    let report = evaluate_slo(rule, &[(0.5, 8.0)]);
    assert!(report.met);
    // Without grace it would fail.
    let strict = SloRule {
        grace_ms: 0.0,
        ..rule
    };
    assert!(!evaluate_slo(strict, &[(0.5, 8.0)]).met);
}

#[test]
fn markdown_table_handles_empty() {
    let t = MarkdownTable::new(&["a", "b"]);
    assert!(t.is_empty());
    let md = t.to_markdown();
    assert!(md.starts_with("| a | b |"));
    assert_eq!(md.lines().count(), 2, "header + separator only");
}
