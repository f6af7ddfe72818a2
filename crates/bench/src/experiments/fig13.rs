//! **Figure 13 (§6.8)** — speedup over the naive plan as Zipf skew
//! increases, `z ∈ {0, 0.5, 1, 1.5, 2, 2.5, 3}` on lineitem SC.
//!
//! Paper: speedup grows with skew (≈2.5× at z=0 to ≈4× at z=3), because
//! skewed columns become sparser and merging gets more attractive.

use crate::harness::{session_for, time_plans_interleaved, Report, Scale};
use gbmqo_core::prelude::*;
use gbmqo_datagen::{lineitem, LINEITEM_SC_COLUMNS};

/// Measured row per skew value.
#[derive(Debug, Clone)]
pub struct Row {
    /// Zipf exponent.
    pub zipf: f64,
    /// Naive seconds.
    pub naive_secs: f64,
    /// GB-MQO seconds.
    pub gbmqo_secs: f64,
}

impl Row {
    /// Speedup over naive.
    pub fn speedup(&self) -> f64 {
        self.naive_secs / self.gbmqo_secs
    }
}

/// Run the experiment; returns (report, rows).
pub fn run(scale: &Scale) -> (Report, Vec<Row>) {
    let mut rows = Vec::new();
    for &z in &[0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0] {
        let table = lineitem(scale.base_rows, z, 130);
        let w = Workload::single_columns("lineitem", &table, &LINEITEM_SC_COLUMNS).unwrap();
        let mut session = session_for(&table, "lineitem")
            .search(SearchConfig::pruned())
            .build()
            .unwrap();
        let (plan, _) = session.plan(&w).unwrap();
        let naive = LogicalPlan::naive(&w);
        let times = time_plans_interleaved(&[&naive, &plan], &w, &mut session, 3);
        let (naive_secs, gbmqo_secs) = (times[0], times[1]);
        rows.push(Row {
            zipf: z,
            naive_secs,
            gbmqo_secs,
        });
    }

    let mut report = Report::new(format!(
        "Figure 13 — Speedup vs Zipf skew (lineitem SC, {} rows)",
        scale.base_rows
    ));
    report.line(format!(
        "{:>6} {:>12} {:>12} {:>9}   (paper: rises from ≈2.5× to ≈4×)",
        "zipf", "naive (s)", "GB-MQO (s)", "speedup"
    ));
    for r in &rows {
        report.line(format!(
            "{:>6.1} {:>12.3} {:>12.3} {:>8.2}×",
            r.zipf,
            r.naive_secs,
            r.gbmqo_secs,
            r.speedup()
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
    fn speedup_grows_with_skew() {
        let _guard = crate::harness::timing_lock();
        let scale = Scale::small();
        let (_, rows) = run(&scale);
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(
                r.speedup() > 1.0,
                "z={}: speedup {:.2} must exceed 1",
                r.zipf,
                r.speedup()
            );
        }
        // trend: the average of the three most-skewed points beats the
        // average of the three least-skewed points (robust to noise).
        let low: f64 = rows[..3].iter().map(Row::speedup).sum::<f64>() / 3.0;
        let high: f64 = rows[4..].iter().map(Row::speedup).sum::<f64>() / 3.0;
        assert!(
            high > low * 0.95,
            "speedup should trend upward with skew: low {low:.2} high {high:.2}"
        );
    }
}
