//! **Table 3 (§6.2)** — speedup over the naive plan on all four datasets,
//! for the SC (all single-column) and TC (all two-column) workloads.
//!
//! Paper speedups: Sales SC 2.2, NREF SC 2.0, 10g SC 3.1, 1g SC 2.9,
//! Sales TC 1.9, NREF TC 2.1, 10g TC 4.5, 1g TC 4.0. The shape: every
//! dataset shows >1× and the TPC-H datasets show the largest TC wins.

use crate::harness::{
    optimize_timed, sampled_optimizer_model, session_for, time_plans_interleaved, Report, Scale,
};
use gbmqo_core::prelude::*;
use gbmqo_cost::IndexSnapshot;
use gbmqo_datagen::{
    lineitem, neighboring_seq, sales, LINEITEM_SC_COLUMNS, NREF_COLUMNS, SALES_COLUMNS,
};
use gbmqo_storage::Table;

/// Measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset + workload label, e.g. "1g (SC)".
    pub label: String,
    /// Number of Group By queries in the workload.
    pub num_queries: usize,
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

fn measure(label: &str, table: &Table, workload: &Workload, reps: usize) -> Row {
    let mut model = sampled_optimizer_model(table, IndexSnapshot::none());
    let (plan, _, _) = optimize_timed(workload, &mut model, SearchConfig::pruned());
    let mut session = session_for(table.clone(), &workload.table);
    let naive = LogicalPlan::naive(workload);
    let times = time_plans_interleaved(&[&naive, &plan], workload, &mut session, reps);
    let (naive_secs, gbmqo_secs) = (times[0], times[1]);
    Row {
        label: label.to_string(),
        num_queries: workload.len(),
        naive_secs,
        gbmqo_secs,
    }
}

/// Run the experiment; returns (report, rows).
pub fn run(scale: &Scale) -> (Report, Vec<Row>) {
    let mut rows = Vec::new();

    let li_1g = lineitem(scale.base_rows, 0.0, 31);
    let li_10g = lineitem(scale.big_rows, 0.0, 32);
    let sales_t = sales(scale.base_rows, 33);
    let nref_t = neighboring_seq(scale.base_rows, 34);

    // SC workloads
    for (label, table, cols) in [
        ("Sales (SC)", &sales_t, &SALES_COLUMNS[..]),
        ("NREF (SC)", &nref_t, &NREF_COLUMNS[..]),
        ("10g (SC)", &li_10g, &LINEITEM_SC_COLUMNS[..]),
        ("1g (SC)", &li_1g, &LINEITEM_SC_COLUMNS[..]),
    ] {
        let w = Workload::single_columns(label, table, cols).unwrap();
        rows.push(measure(label, table, &w, 3));
    }

    // TC workloads (two-column over the same universes)
    for (label, table, cols) in [
        ("Sales (TC)", &sales_t, &SALES_COLUMNS[..]),
        ("NREF (TC)", &nref_t, &NREF_COLUMNS[..]),
        ("10g (TC)", &li_10g, &LINEITEM_SC_COLUMNS[..]),
        ("1g (TC)", &li_1g, &LINEITEM_SC_COLUMNS[..]),
    ] {
        let w = Workload::two_columns(label, table, cols).unwrap();
        rows.push(measure(label, table, &w, 1));
    }

    let mut report = Report::new(format!(
        "Table 3 — Speedup over naive plan (base {} rows, 10g {} rows)",
        scale.base_rows, scale.big_rows
    ));
    report.line(format!(
        "{:<12} {:>8} {:>12} {:>12} {:>9}   paper",
        "Dataset", "#GrBys", "naive (s)", "GB-MQO (s)", "Speedup"
    ));
    let paper = [2.2, 2.0, 3.1, 2.9, 1.9, 2.1, 4.5, 4.0];
    for (r, p) in rows.iter().zip(paper) {
        report.line(format!(
            "{:<12} {:>8} {:>12.3} {:>12.3} {:>8.2}×   {p:.1}×",
            r.label,
            r.num_queries,
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
    fn every_dataset_beats_naive() {
        let _guard = crate::harness::timing_lock();
        let scale = Scale::small();
        let (_, rows) = run(&scale);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(
                r.speedup() > 1.0,
                "{} must beat naive, got {:.2}×",
                r.label,
                r.speedup()
            );
        }
    }
}
