//! **Figure 12 (§6.7)** — overhead of statistics creation: the time to
//! build the sampled statistics as a percentage of the run-time savings
//! the optimized plan delivers.
//!
//! Paper: 1–9%, shrinking as the dataset grows.

use crate::harness::{
    optimize_timed, paper_constants, session_for, time_plans_interleaved, Report, Scale,
};
use gbmqo_core::prelude::*;
use gbmqo_cost::{IndexSnapshot, OptimizerCostModel};
use gbmqo_datagen::{lineitem, LINEITEM_SC_COLUMNS};
use gbmqo_stats::CardinalitySource;

/// Measured row per (dataset, workload).
#[derive(Debug, Clone)]
pub struct Row {
    /// e.g. "tpch 1g (sc)".
    pub label: String,
    /// Seconds spent creating statistics during optimization.
    pub stats_secs: f64,
    /// Run-time savings (naive − optimized) in seconds.
    pub savings_secs: f64,
}

impl Row {
    /// Overhead as a percentage of savings.
    pub fn overhead_pct(&self) -> f64 {
        100.0 * self.stats_secs / self.savings_secs.max(1e-9)
    }
}

/// Measure one `rows`-row table, its statistics drawn from a
/// `sample_rows`-row sample.
fn measure(label: &str, rows: usize, tc: bool, sample_rows: usize) -> Row {
    let table = lineitem(rows, 0.0, 120);
    let w = if tc {
        Workload::two_columns("lineitem", &table, &LINEITEM_SC_COLUMNS).unwrap()
    } else {
        Workload::single_columns("lineitem", &table, &LINEITEM_SC_COLUMNS).unwrap()
    };
    // The served estimator and seed ([`Stats::default`]) over a fixed size.
    let stats = Stats::Sampled {
        rule: SampleRule::fixed(sample_rows),
        estimator: DistinctEstimator::Hybrid,
        seed: 7,
    };
    let mut model = OptimizerCostModel::new(stats.source(&table), IndexSnapshot::none())
        .with_constants(paper_constants());
    let (plan, _, _) = optimize_timed(&w, &mut model, SearchConfig::pruned());
    let stats_secs = model
        .source()
        .creation_log()
        .expect("sampled source logs creations")
        .total()
        .as_secs_f64();

    let mut session = session_for(table.clone(), "lineitem");
    let reps = if tc { 2 } else { 3 };
    let naive = LogicalPlan::naive(&w);
    let times = time_plans_interleaved(&[&naive, &plan], &w, &mut session, reps);
    let (naive_secs, gbmqo_secs) = (times[0], times[1]);
    Row {
        label: label.to_string(),
        stats_secs,
        savings_secs: naive_secs - gbmqo_secs,
    }
}

/// Run the experiment; returns (report, rows). Both tables are sampled
/// at the size the served rule gives the "1g" one, as the paper samples
/// a fixed size: the overhead then shrinks as savings grow with the data.
pub fn run(scale: &Scale) -> (Report, Vec<Row>) {
    let sample_rows = SampleRule::DEFAULT.rows(scale.base_rows);
    let rows = vec![
        measure("tpch 1g (sc)", scale.base_rows, false, sample_rows),
        measure("tpch 1g (tc)", scale.base_rows, true, sample_rows),
        measure("tpch 10g (sc)", scale.big_rows, false, sample_rows),
        measure("tpch 10g (tc)", scale.big_rows, true, sample_rows),
    ];

    let mut report = Report::new("Figure 12 — Statistics-creation time vs run-time savings");
    report.line(format!(
        "{:<14} {:>12} {:>13} {:>10}   (paper: 1–9%, smaller at 10g)",
        "workload", "stats (s)", "savings (s)", "overhead"
    ));
    for r in &rows {
        report.line(format!(
            "{:<14} {:>12.4} {:>13.3} {:>9.1}%",
            r.label,
            r.stats_secs,
            r.savings_secs,
            r.overhead_pct()
        ));
    }
    (report, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing-sensitive shape test; run with `cargo test --release`"
    )]
    fn overhead_is_a_small_fraction_of_savings() {
        let _guard = crate::harness::timing_lock();
        let scale = Scale::small();
        let (_, rows) = run(&scale);
        for r in &rows {
            assert!(r.savings_secs > 0.0, "{}: no savings", r.label);
            assert!(r.stats_secs.is_finite() && r.stats_secs >= 0.0);
        }
        // The paper's transferable claim: the overhead *shrinks as the
        // dataset grows* (the sample size is fixed while savings scale
        // with the data). Absolute 1–9% figures need the 6M-row scale.
        for wl in ["sc", "tc"] {
            let small = rows
                .iter()
                .find(|r| r.label == format!("tpch 1g ({wl})"))
                .unwrap();
            let big = rows
                .iter()
                .find(|r| r.label == format!("tpch 10g ({wl})"))
                .unwrap();
            assert!(
                big.overhead_pct() <= small.overhead_pct() * 1.2,
                "{wl}: 10g overhead {:.1}% should be below 1g overhead {:.1}%",
                big.overhead_pct(),
                small.overhead_pct()
            );
        }
    }
}
