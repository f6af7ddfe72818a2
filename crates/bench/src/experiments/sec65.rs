//! **§6.5** — impact of restricting the plan space to binary trees
//! (SubPlanMerge type (b) only) when computing all single-column Group
//! Bys over TPC-H and Sales.
//!
//! Paper: ~30% fewer optimizer calls, execution-time difference < 10%.

use crate::harness::{
    optimize_timed, sampled_optimizer_model, session_for, time_plans_interleaved, Report, Scale,
};
use gbmqo_core::prelude::*;
use gbmqo_cost::IndexSnapshot;
use gbmqo_datagen::{lineitem, sales, LINEITEM_SC_COLUMNS, SALES_COLUMNS};
use gbmqo_storage::Table;

/// Measured row per dataset.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Optimizer calls: all four merge types.
    pub calls_all: u64,
    /// Optimizer calls: binary-only.
    pub calls_binary: u64,
    /// Execution seconds: all merge types.
    pub secs_all: f64,
    /// Execution seconds: binary-only.
    pub secs_binary: f64,
}

fn measure(dataset: &'static str, table: &Table, cols: &[&str]) -> Row {
    let w = Workload::single_columns(dataset, table, cols).unwrap();

    let optimize = |binary_only: bool| {
        let mut model = sampled_optimizer_model(table, IndexSnapshot::none());
        optimize_timed(
            &w,
            &mut model,
            SearchConfig {
                binary_only,
                ..Default::default()
            },
        )
    };
    let (plan_all, stats_all, _) = optimize(false);
    let (plan_binary, stats_binary, _) = optimize(true);
    let mut session = session_for(table.clone(), dataset);
    let times = time_plans_interleaved(&[&plan_all, &plan_binary], &w, &mut session, 4);
    let (calls_all, secs_all) = (stats_all.optimizer_calls, times[0]);
    let (calls_binary, secs_binary) = (stats_binary.optimizer_calls, times[1]);
    Row {
        dataset,
        calls_all,
        calls_binary,
        secs_all,
        secs_binary,
    }
}

/// Run the experiment; returns (report, rows).
pub fn run(scale: &Scale) -> (Report, Vec<Row>) {
    let li = lineitem(scale.base_rows, 0.0, 65);
    let sa = sales(scale.base_rows, 66);
    let rows = vec![
        measure("tpch", &li, &LINEITEM_SC_COLUMNS),
        measure("sales", &sa, &SALES_COLUMNS),
    ];

    let mut report = Report::new(format!(
        "§6.5 — Binary-tree restriction (SC, {} rows)",
        scale.base_rows
    ));
    report.line(format!(
        "{:<8} {:>11} {:>13} {:>11} {:>11} {:>13} {:>11}",
        "dataset", "calls(all)", "calls(binary)", "Δcalls", "time(all)", "time(binary)", "Δtime"
    ));
    for r in &rows {
        report.line(format!(
            "{:<8} {:>11} {:>13} {:>10.0}% {:>10.3}s {:>12.3}s {:>10.1}%",
            r.dataset,
            r.calls_all,
            r.calls_binary,
            100.0 * (1.0 - r.calls_binary as f64 / r.calls_all as f64),
            r.secs_all,
            r.secs_binary,
            100.0 * (r.secs_binary - r.secs_all) / r.secs_all
        ));
    }
    report.line("(paper: ~30% fewer calls, <10% execution-time difference)".to_string());
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
    fn binary_restriction_saves_calls_cheaply() {
        let _guard = crate::harness::timing_lock();
        let scale = Scale::small();
        let (_, rows) = run(&scale);
        for r in &rows {
            assert!(
                r.calls_binary <= r.calls_all,
                "{}: binary restriction must not increase calls",
                r.dataset
            );
            // execution-time penalty stays modest (generous bound for CI noise)
            assert!(
                r.secs_binary <= r.secs_all * 1.6,
                "{}: binary plan {}s vs all {}s",
                r.dataset,
                r.secs_binary,
                r.secs_all
            );
        }
    }
}
