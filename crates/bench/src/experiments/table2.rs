//! **Table 2 (§6.1)** — speedup over GROUPING SETS for the SC and CONT
//! inputs (also regenerates Example 1 of the introduction, which is the
//! SC row).
//!
//! Paper: CONT 142s vs 132s (1.07×); SC 537s vs 120s (4.5×). The shape to
//! reproduce: CONT comparable (≈1×), SC a multiple.

use crate::harness::{
    optimize_timed, sampled_optimizer_model, session_for, time_plans_interleaved, Report, Scale,
};
use gbmqo_core::prelude::*;
use gbmqo_core::{grouping_sets_plan, BaselineKind};
use gbmqo_cost::IndexSnapshot;
use gbmqo_datagen::{lineitem, LINEITEM_SC_COLUMNS};

/// Measured row of the table.
#[derive(Debug, Clone)]
pub struct Row {
    /// "CONT" or "SC".
    pub query: &'static str,
    /// GROUPING SETS baseline seconds.
    pub grpset_secs: f64,
    /// GB-MQO seconds.
    pub gbmqo_secs: f64,
}

impl Row {
    /// Speedup factor.
    pub fn speedup(&self) -> f64 {
        self.grpset_secs / self.gbmqo_secs
    }
}

/// Run the experiment; returns (report, rows).
pub fn run(scale: &Scale) -> (Report, Vec<Row>) {
    let table = lineitem(scale.base_rows, 0.0, 2005);
    let mut rows = Vec::new();

    // --- SC: 12 single-column Group Bys (Example 1) ---
    let sc = Workload::single_columns("lineitem", &table, &LINEITEM_SC_COLUMNS).unwrap();
    rows.push(measure("SC", &table, &sc, BaselineKind::UnionTop));

    // --- CONT: containment-heavy date workload ---
    let cont = Workload::new(
        "lineitem",
        &table,
        &["l_shipdate", "l_commitdate", "l_receiptdate"],
        &[
            vec!["l_shipdate"],
            vec!["l_commitdate"],
            vec!["l_receiptdate"],
            vec!["l_shipdate", "l_commitdate"],
            vec!["l_shipdate", "l_receiptdate"],
            vec!["l_commitdate", "l_receiptdate"],
        ],
    )
    .unwrap();
    rows.push(measure("CONT", &table, &cont, BaselineKind::SharedSort));

    let mut report = Report::new(format!(
        "Table 2 — Speedup over GROUPING SETS (lineitem, {} rows)",
        scale.base_rows
    ));
    report.line(format!(
        "{:<6} {:>14} {:>14} {:>9}   {}",
        "Query", "GrpSet (s)", "GB-MQO (s)", "Speedup", "paper: CONT 1.07×, SC 4.5×"
    ));
    for r in rows.iter().rev() {
        report.line(format!(
            "{:<6} {:>14.3} {:>14.3} {:>8.2}×",
            r.query,
            r.grpset_secs,
            r.gbmqo_secs,
            r.speedup()
        ));
    }
    (report, rows)
}

fn measure(
    label: &'static str,
    table: &gbmqo_storage::Table,
    workload: &Workload,
    expected_kind: BaselineKind,
) -> Row {
    let (gs_plan, kind) = grouping_sets_plan(workload);
    assert_eq!(kind, expected_kind, "{label}: unexpected baseline strategy");

    let mut model = sampled_optimizer_model(table, IndexSnapshot::none());
    let (our_plan, _, _) = optimize_timed(workload, &mut model, SearchConfig::pruned());

    let mut session = session_for(table.clone(), "lineitem");
    let times = time_plans_interleaved(&[&gs_plan, &our_plan], workload, &mut session, 4);
    let (grpset_secs, gbmqo_secs) = (times[0], times[1]);
    Row {
        query: label,
        grpset_secs,
        gbmqo_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing-sensitive shape test; run with `cargo test --release`"
    )]
    fn shapes_match_the_paper() {
        let _guard = crate::harness::timing_lock();
        let scale = Scale::small();
        let (_, rows) = run(&scale);
        let sc = rows.iter().find(|r| r.query == "SC").unwrap();
        let cont = rows.iter().find(|r| r.query == "CONT").unwrap();
        assert!(
            sc.speedup() > 1.3,
            "SC must show a clear win over GROUPING SETS, got {:.2}",
            sc.speedup()
        );
        assert!(
            cont.speedup() > 0.6,
            "CONT must be comparable, got {:.2}",
            cont.speedup()
        );
        assert!(sc.speedup() > cont.speedup(), "SC win must exceed CONT win");
    }
}
