//! **Figure 9 (§6.3)** — quality of GB-MQO plans vs the exhaustive
//! optimum: run-time reduction against the naive plan for ten random
//! 7-column single-column workloads Q0..Q9.
//!
//! Paper: the GB-MQO reduction tracks the optimal reduction closely
//! (both between ~10% and ~55%).

use crate::harness::{session_for, time_plans_interleaved, Report, Scale, IO_NS_PER_BYTE};
use gbmqo_core::optimal_plan;
use gbmqo_core::prelude::*;
use gbmqo_cost::{CostConstants, IndexSnapshot, OptimizerCostModel};
use gbmqo_datagen::{lineitem, LINEITEM_SC_COLUMNS};
use gbmqo_stats::ExactSource;
use gbmqo_storage::Table;

/// Measured row for one random query set.
#[derive(Debug, Clone)]
pub struct Row {
    /// Query label Q0..Q9.
    pub label: String,
    /// Run-time reduction of the GB-MQO plan vs naive, in [0, 1).
    pub gbmqo_reduction: f64,
    /// Run-time reduction of the exhaustive-optimal plan vs naive.
    pub optimal_reduction: f64,
}

/// Deterministically pick the 7-column subset for query `q`.
fn columns_for(q: usize) -> Vec<&'static str> {
    // A simple LCG-style shuffle seeded by q keeps this reproducible
    // without pulling in an RNG.
    let mut idx: Vec<usize> = (0..12).collect();
    let mut state = 0x9E3779B9u64.wrapping_mul(q as u64 + 1) | 1;
    for i in (1..12).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        idx.swap(i, j);
    }
    idx[..7].iter().map(|&i| LINEITEM_SC_COLUMNS[i]).collect()
}

/// Seed of the experiment's lineitem table.
const SEED: u64 = 9;

/// Query `q`'s workload over `table`, a session over it, and the two
/// plans compared, each with its estimated cost: GB-MQO's, from the
/// session under exact statistics, and the exhaustive optimum under a
/// reference model priced as the session prices (exact statistics, the
/// harness's emulated I/O). The exhaustive search is no session's, so
/// its model is built here.
fn plans(table: &Table, q: usize) -> (Workload, Session, [(LogicalPlan, f64); 2]) {
    let w = Workload::single_columns("lineitem", table, &columns_for(q)).unwrap();
    let mut session = session_for(table, "lineitem")
        .cost_model(CostModelSpec::Optimizer(Stats::Exact))
        .build()
        .unwrap();
    let (greedy, stats) = session.plan(&w).unwrap();
    let constants = CostConstants {
        io_ns_per_byte: IO_NS_PER_BYTE,
        ..Default::default()
    };
    let mut reference = OptimizerCostModel::new(ExactSource::new(table), IndexSnapshot::none())
        .with_constants(constants);
    let optimal = optimal_plan(&w, &mut reference).unwrap();
    (w, session, [(greedy, stats.final_cost), optimal])
}

/// Run the experiment; returns (report, rows).
pub fn run(scale: &Scale) -> (Report, Vec<Row>) {
    let table = lineitem(scale.base_rows, 0.0, SEED);
    let mut rows = Vec::new();

    for q in 0..10 {
        let (w, mut session, [(greedy_plan, _), (opt_plan, _)]) = plans(&table, q);
        let naive_plan = LogicalPlan::naive(&w);
        let times =
            time_plans_interleaved(&[&naive_plan, &greedy_plan, &opt_plan], &w, &mut session, 4);
        let (naive_secs, greedy_secs, opt_secs) = (times[0], times[1], times[2]);

        rows.push(Row {
            label: format!("Q{q}"),
            gbmqo_reduction: 1.0 - greedy_secs / naive_secs,
            optimal_reduction: 1.0 - opt_secs / naive_secs,
        });
    }

    let mut report = Report::new(format!(
        "Figure 9 — Run-time reduction vs naive: GB-MQO and exhaustive optimal ({} rows)",
        scale.base_rows
    ));
    report.line(format!(
        "{:<4} {:>14} {:>14}   (paper: both 10–55%, close together)",
        "Q", "GB-MQO", "exhaustive"
    ));
    for r in &rows {
        report.line(format!(
            "{:<4} {:>13.1}% {:>13.1}%",
            r.label,
            100.0 * r.gbmqo_reduction,
            100.0 * r.optimal_reduction
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
    fn greedy_tracks_optimal() {
        let _guard = crate::harness::timing_lock();
        let scale = Scale::small();
        let (_, rows) = run(&scale);
        assert_eq!(rows.len(), 10);
        for r in &rows {
            // timing noise allowance: greedy within 25 points of optimal
            assert!(
                r.gbmqo_reduction >= r.optimal_reduction - 0.25,
                "{}: greedy {:.2} far below optimal {:.2}",
                r.label,
                r.gbmqo_reduction,
                r.optimal_reduction
            );
        }
        // at least half the queries should see a real improvement
        let improved = rows.iter().filter(|r| r.gbmqo_reduction > 0.05).count();
        assert!(improved >= 5, "only {improved}/10 queries improved");
    }

    /// The session and the reference model price alike: no GB-MQO plan
    /// costs less than the exhaustive optimum.
    #[test]
    fn greedy_never_undercuts_the_exhaustive_optimum() {
        let table = lineitem(Scale::small().base_rows, 0.0, SEED);
        for q in 0..10 {
            let (_, _, [(_, greedy), (_, optimal)]) = plans(&table, q);
            assert!(
                greedy >= optimal * (1.0 - 1e-9),
                "Q{q}: GB-MQO cost {greedy} below the optimum's {optimal}"
            );
        }
    }

    #[test]
    fn column_picks_are_deterministic_and_distinct() {
        let _guard = crate::harness::timing_lock();
        let a = columns_for(3);
        let b = columns_for(3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 7);
        assert_ne!(columns_for(0), columns_for(1));
    }
}
