//! **Figure 14 (§6.9)** — impact of the physical database design: start
//! with a clustered index on the primary key, then add non-clustered
//! indexes one per step in the paper's order, re-optimizing and
//! re-executing after each step.
//!
//! Paper: execution time drops as indexes are added (especially for the
//! dense `l_comment` column), and the plans adapt: once `l_receiptdate`
//! is indexed it stays a singleton instead of being merged.

use crate::harness::{session_for, time_plan, Report, Scale};
use gbmqo_core::prelude::*;
use gbmqo_datagen::{lineitem, LINEITEM_SC_COLUMNS};
use gbmqo_storage::IndexKind;

/// The paper's index-addition order.
pub const INDEX_ORDER: [&str; 10] = [
    "l_receiptdate",
    "l_shipdate",
    "l_commitdate",
    "l_partkey",
    "l_suppkey",
    "l_returnflag",
    "l_linestatus",
    "l_shipinstruct",
    "l_shipmode",
    "l_comment",
];

/// Measured row per design step.
#[derive(Debug, Clone)]
pub struct Row {
    /// Design label ("CL" for the clustered-only start, then "NC k").
    pub step: String,
    /// GB-MQO execution seconds under this design.
    pub gbmqo_secs: f64,
    /// Whether `l_receiptdate` is computed as its own sub-plan directly
    /// from `R` (the paper's adaptation signal).
    pub receiptdate_singleton: bool,
}

/// Run the experiment; returns (report, rows).
pub fn run(scale: &Scale) -> (Report, Vec<Row>) {
    let table = lineitem(scale.base_rows, 0.0, 140);
    let w = Workload::single_columns("lineitem", &table, &LINEITEM_SC_COLUMNS).unwrap();
    let receipt_bit = LINEITEM_SC_COLUMNS
        .iter()
        .position(|c| *c == "l_receiptdate")
        .unwrap();

    let mut session = session_for(&table, "lineitem")
        .search(SearchConfig::pruned())
        .build()
        .unwrap();
    // clustered index on the combined primary key
    let pk: Vec<usize> = ["l_orderkey", "l_linenumber"]
        .iter()
        .map(|c| table.schema().index_of(c).unwrap())
        .collect();
    session
        .engine_mut()
        .catalog_mut()
        .create_index("lineitem", "cl_pk", IndexKind::Clustered, pk)
        .unwrap();

    let mut rows = Vec::new();
    let mut step_label = "CL".to_string();
    for added in 0..=INDEX_ORDER.len() {
        if added > 0 {
            let col = INDEX_ORDER[added - 1];
            let ord = table.schema().index_of(col).unwrap();
            session
                .engine_mut()
                .catalog_mut()
                .create_index(
                    "lineitem",
                    format!("nc_{col}"),
                    IndexKind::NonClustered,
                    vec![ord],
                )
                .unwrap();
            step_label = format!("NC {added}");
        }

        // A new index makes the cached plan stale: the session re-plans.
        let (plan, _) = session.plan(&w).unwrap();
        let gbmqo_secs = time_plan(&plan, &w, &mut session, 3);
        let receiptdate_singleton = plan
            .subplans
            .iter()
            .any(|sp| sp.cols == ColSet::single(receipt_bit) && sp.children.is_empty());
        rows.push(Row {
            step: step_label.clone(),
            gbmqo_secs,
            receiptdate_singleton,
        });
    }
    session
        .engine_mut()
        .catalog_mut()
        .drop_indexes("lineitem")
        .unwrap();

    let mut report = Report::new(format!(
        "Figure 14 — Physical-design sweep (lineitem SC, {} rows)",
        scale.base_rows
    ));
    report.line(format!(
        "{:<6} {:>12} {:>24}   (paper: time drops; receiptdate singleton once indexed)",
        "step", "GB-MQO (s)", "receiptdate singleton?"
    ));
    for r in &rows {
        report.line(format!(
            "{:<6} {:>12.3} {:>24}",
            r.step,
            r.gbmqo_secs,
            if r.receiptdate_singleton { "yes" } else { "no" }
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
    fn indexes_speed_up_and_plans_adapt() {
        let _guard = crate::harness::timing_lock();
        let scale = Scale::small();
        let (_, rows) = run(&scale);
        assert_eq!(rows.len(), 11);
        // the fully indexed design beats the unindexed one
        let first = rows.first().unwrap().gbmqo_secs;
        let last = rows.last().unwrap().gbmqo_secs;
        assert!(
            last < first * 1.05,
            "full design ({last:.3}s) should not be slower than none ({first:.3}s)"
        );
        // adaptation: l_receiptdate is indexed at step NC 1 and must be a
        // singleton from then on
        for r in rows.iter().skip(1) {
            assert!(
                r.receiptdate_singleton,
                "step {}: receiptdate should stay a singleton once indexed",
                r.step
            );
        }
    }
}
