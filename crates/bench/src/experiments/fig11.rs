//! **Figure 11 (§6.6)** — impact of the pruning techniques: optimizer
//! calls and plan run time for pruning ∈ {None, M, S, S+M} on TPC-H and
//! Sales, SC and TC workloads.
//!
//! Paper: S+M cuts optimizer calls by up to ~80% on the TC workloads
//! while the plan still reduces naive run time by ≥65%.

use crate::harness::{session_for, time_plans_interleaved, Report, Scale};
use gbmqo_core::prelude::*;
use gbmqo_datagen::{lineitem, sales, LINEITEM_SC_COLUMNS, SALES_COLUMNS};
use gbmqo_storage::Table;

/// Pruning configurations, in the paper's order.
pub const CONFIGS: [(&str, bool, bool); 4] = [
    ("None", false, false),
    ("M", false, true),
    ("S", true, false),
    ("S+M", true, true),
];

/// Measured cell: one (workload, pruning) pair.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload label, e.g. "tpch 1g (sc)".
    pub workload: String,
    /// Pruning label.
    pub pruning: &'static str,
    /// Optimizer calls.
    pub optimizer_calls: u64,
    /// Run-time reduction vs naive, in [0, 1).
    pub reduction_vs_naive: f64,
}

fn measure(label: &str, table: &Table, workload: &Workload, out: &mut Vec<Cell>) {
    let mut sessions = CONFIGS.map(|(_, subsumption_pruning, monotonicity_pruning)| {
        let search = SearchConfig {
            subsumption_pruning,
            monotonicity_pruning,
            ..Default::default()
        };
        session_for(table, &workload.table)
            .search(search)
            .build()
            .unwrap()
    });
    let (plans, calls): (Vec<_>, Vec<_>) = sessions
        .iter_mut()
        .map(|s| {
            let (plan, stats) = s.plan(workload).unwrap();
            (plan, stats.optimizer_calls)
        })
        .unzip();
    let naive = LogicalPlan::naive(workload);
    let mut refs: Vec<&LogicalPlan> = vec![&naive];
    refs.extend(plans.iter());
    let times = time_plans_interleaved(&refs, workload, &mut sessions[0], 2);
    let naive_secs = times[0];
    for (i, (name, _, _)) in CONFIGS.iter().enumerate() {
        out.push(Cell {
            workload: label.to_string(),
            pruning: name,
            optimizer_calls: calls[i],
            reduction_vs_naive: 1.0 - times[i + 1] / naive_secs,
        });
    }
}

/// Run the experiment; returns (report, cells).
pub fn run(scale: &Scale) -> (Report, Vec<Cell>) {
    let li = lineitem(scale.base_rows, 0.0, 111);
    let sa = sales(scale.base_rows, 112);
    let mut cells = Vec::new();

    let li_sc = Workload::single_columns("lineitem", &li, &LINEITEM_SC_COLUMNS).unwrap();
    measure("tpch 1g (sc)", &li, &li_sc, &mut cells);
    let li_tc = Workload::two_columns("lineitem", &li, &LINEITEM_SC_COLUMNS).unwrap();
    measure("tpch 1g (tc)", &li, &li_tc, &mut cells);
    let sa_sc = Workload::single_columns("sales", &sa, &SALES_COLUMNS).unwrap();
    measure("sales (sc)", &sa, &sa_sc, &mut cells);
    let sa_tc = Workload::two_columns("sales", &sa, &SALES_COLUMNS[..10]).unwrap();
    measure("sales (tc)", &sa, &sa_tc, &mut cells);

    let mut report = Report::new(format!(
        "Figure 11 — Pruning techniques ({} rows)",
        scale.base_rows
    ));
    report.line(format!(
        "{:<14} {:>8} {:>16} {:>22}",
        "workload", "pruning", "optimizer calls", "run-time reduction"
    ));
    for c in &cells {
        report.line(format!(
            "{:<14} {:>8} {:>16} {:>21.1}%",
            c.workload,
            c.pruning,
            c.optimizer_calls,
            100.0 * c.reduction_vs_naive
        ));
    }
    report.line("(paper: S+M cuts calls up to ~80% on TC; reduction stays ≥65%)".to_string());
    (report, cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing-sensitive shape test; run with `cargo test --release`"
    )]
    fn pruning_reduces_calls_and_keeps_quality() {
        let _guard = crate::harness::timing_lock();
        let scale = Scale::small();
        let (_, cells) = run(&scale);
        // for each workload: calls(S+M) ≤ calls(None); TC workloads show a
        // strict cut
        for wl in ["tpch 1g (sc)", "tpch 1g (tc)", "sales (sc)", "sales (tc)"] {
            let get = |p: &str| {
                cells
                    .iter()
                    .find(|c| c.workload == wl && c.pruning == p)
                    .unwrap()
            };
            let none = get("None");
            let sm = get("S+M");
            assert!(
                sm.optimizer_calls <= none.optimizer_calls,
                "{wl}: S+M must not increase calls"
            );
            if wl.contains("(tc)") {
                assert!(
                    (sm.optimizer_calls as f64) < none.optimizer_calls as f64 * 0.8,
                    "{wl}: S+M should cut TC calls meaningfully ({} vs {})",
                    sm.optimizer_calls,
                    none.optimizer_calls
                );
            }
            // quality: the pruned plan's run-time reduction stays close to
            // the unpruned plan's (the paper's ≥65% absolute figure needs
            // the full 6M-row scale; the invariant that transfers is that
            // pruning does not degrade plan quality).
            assert!(
                sm.reduction_vs_naive >= none.reduction_vs_naive - 0.2,
                "{wl}: pruned reduction {:.2} far below unpruned {:.2}",
                sm.reduction_vs_naive,
                none.reduction_vs_naive
            );
        }
    }
}
