//! **Figure 10 (§6.4)** — scaling with the number of columns: lineitem's
//! 12 non-float columns are repeated to widen the table to 12/24/36/48
//! columns; the workload is all single-column Group Bys.
//!
//! Paper: (a) optimizer calls grow roughly quadratically (118 → 2607),
//! (b) optimization time stays feasible, (c) the optimized plan keeps a
//! large margin over naive at every width.

use crate::harness::{session_for, time_plans_interleaved, Report, Scale};
use gbmqo_core::prelude::*;
use gbmqo_datagen::widened_lineitem;
use std::time::Instant;

/// Measured row per table width.
#[derive(Debug, Clone)]
pub struct Row {
    /// Number of columns (and therefore queries).
    pub columns: usize,
    /// Optimizer (cost model) calls during the search.
    pub optimizer_calls: u64,
    /// Wall time of the session's first plan, seconds: the search and
    /// the statistics it builds, sample draw included.
    pub optimize_secs: f64,
    /// Naive execution seconds.
    pub naive_secs: f64,
    /// GB-MQO execution seconds.
    pub gbmqo_secs: f64,
}

/// Run the experiment; returns (report, rows).
pub fn run(scale: &Scale) -> (Report, Vec<Row>) {
    // Wider tables multiply both generation and execution cost; scale the
    // row count down so the sweep stays balanced.
    let rows_per_width = (scale.base_rows / 2).max(5_000);
    let mut rows = Vec::new();

    for columns in [12usize, 24, 36, 48] {
        let table = widened_lineitem(rows_per_width, columns, 10 + columns as u64);
        let names: Vec<String> = table
            .schema()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let w = Workload::single_columns("wide", &table, &refs).unwrap();

        let mut session = session_for(&table, "wide")
            .search(SearchConfig::pruned())
            .build()
            .unwrap();
        let start = Instant::now();
        let (plan, stats) = session.plan(&w).unwrap();
        let optimize_secs = start.elapsed().as_secs_f64();

        let naive = LogicalPlan::naive(&w);
        let times = time_plans_interleaved(&[&naive, &plan], &w, &mut session, 3);
        let (naive_secs, gbmqo_secs) = (times[0], times[1]);
        rows.push(Row {
            columns,
            optimizer_calls: stats.optimizer_calls,
            optimize_secs,
            naive_secs,
            gbmqo_secs,
        });
    }

    let mut report = Report::new(format!(
        "Figure 10 — Scaling with number of columns ({} rows per width)",
        rows_per_width
    ));
    report.line(format!(
        "{:>8} {:>16} {:>14} {:>12} {:>12} {:>9}",
        "#cols", "optimizer calls", "opt time (s)", "naive (s)", "GB-MQO (s)", "speedup"
    ));
    for r in &rows {
        report.line(format!(
            "{:>8} {:>16} {:>14.3} {:>12.3} {:>12.3} {:>8.2}×",
            r.columns,
            r.optimizer_calls,
            r.optimize_secs,
            r.naive_secs,
            r.gbmqo_secs,
            r.naive_secs / r.gbmqo_secs
        ));
    }
    report.line("(paper: calls 118→2607 over 12→48 cols; run time ≈ 1/3 of naive)".to_string());
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
    fn calls_grow_subquadratically_and_speedup_holds() {
        let _guard = crate::harness::timing_lock();
        let scale = Scale::small();
        let (_, rows) = run(&scale);
        assert_eq!(rows.len(), 4);
        // calls increase with width
        assert!(rows
            .windows(2)
            .all(|w| w[1].optimizer_calls >= w[0].optimizer_calls));
        // quadratic-ish bound: going 12→48 columns (4×) must grow calls by
        // well under 16× thanks to pruning + caching, and at most ~16×.
        let ratio = rows[3].optimizer_calls as f64 / rows[0].optimizer_calls as f64;
        assert!(
            (1.0..=40.0).contains(&ratio),
            "calls ratio 12→48 cols was {ratio}"
        );
        // the optimized plan keeps beating naive at every width
        for r in &rows {
            assert!(
                r.gbmqo_secs < r.naive_secs,
                "width {}: {} vs naive {}",
                r.columns,
                r.gbmqo_secs,
                r.naive_secs
            );
        }
    }
}
