//! **§7 ablation** — effect of the §7.1 CUBE/ROLLUP merge alternatives
//! on a containment-chain workload, and of multi-aggregate workloads
//! (§7.2): not a paper figure, but exercises and quantifies the
//! extensions the paper sketches.

use crate::harness::{session_for, time_plans_interleaved, Report, Scale};
use gbmqo_core::prelude::*;
use gbmqo_core::NodeKind;
use gbmqo_cost::{CostConstants, IndexSnapshot, OptimizerCostModel};
use gbmqo_datagen::lineitem;
use gbmqo_exec::AggSpec;
use gbmqo_stats::ExactSource;

/// Measured outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requested sets the ROLLUP node chosen by the search with
    /// `cube_rollup_merges` on covers (0 = no ROLLUP node chosen).
    pub rollup_sets: usize,
    /// Estimated cost of the plain plan (merge alternatives off).
    pub plain_cost: f64,
    /// Estimated cost of the plan searched with CUBE/ROLLUP merges.
    pub rollup_cost: f64,
    /// Plain-plan seconds on the chain workload.
    pub plain_secs: f64,
    /// Seconds of the plan searched with CUBE/ROLLUP merges.
    pub rollup_secs: f64,
    /// Multi-aggregate workload (§7.2): GB-MQO vs naive seconds.
    pub agg_naive_secs: f64,
    /// Multi-aggregate workload: optimized seconds.
    pub agg_gbmqo_secs: f64,
}

/// Run the extension experiments; returns (report, outcome).
pub fn run(scale: &Scale) -> (Report, Outcome) {
    let table = lineitem(scale.base_rows, 0.0, 71);

    // --- §7.1: rollup chain ---
    let chain = Workload::new(
        "lineitem",
        &table,
        &[
            "l_returnflag",
            "l_linestatus",
            "l_shipmode",
            "l_shipinstruct",
        ],
        &[
            vec!["l_returnflag"],
            vec!["l_returnflag", "l_linestatus"],
            vec!["l_returnflag", "l_linestatus", "l_shipmode"],
            vec![
                "l_returnflag",
                "l_linestatus",
                "l_shipmode",
                "l_shipinstruct",
            ],
        ],
    )
    .unwrap();
    // Exaggerate materialization cost so pipelined rollups can pay, as
    // §7.1 suggests, and search with the merge alternatives off and on:
    // a model no session serves, so it is built here.
    let search = |cube_rollup_merges: bool| {
        let mut model = OptimizerCostModel::new(ExactSource::new(&table), IndexSnapshot::none())
            .with_constants(CostConstants {
                byte_write: 25.0,
                ..Default::default()
            });
        let config = SearchConfig {
            cube_rollup_merges,
            ..SearchConfig::pruned()
        };
        GbMqo::with_config(config).plan(&chain, &mut model).unwrap()
    };
    let (plain, plain_stats) = search(false);
    let (rollup, rollup_stats) = search(true);

    let mut session = session_for(&table, "lineitem")
        .search(SearchConfig::pruned())
        .build()
        .unwrap();
    let times = time_plans_interleaved(&[&plain, &rollup], &chain, &mut session, 3);
    let (plain_secs, rollup_secs) = (times[0], times[1]);

    // --- §7.2: multiple aggregates ---
    let aggs = Workload::single_columns(
        "lineitem",
        &table,
        &[
            "l_returnflag",
            "l_linestatus",
            "l_shipmode",
            "l_shipinstruct",
            "l_linenumber",
        ],
    )
    .unwrap()
    .with_aggregates(vec![
        AggSpec::count(),
        AggSpec::min("l_quantity", "min_qty"),
        AggSpec::max("l_quantity", "max_qty"),
        AggSpec::sum("l_extendedprice", "sum_price"),
    ]);
    let (agg_plan, _) = session.plan(&aggs).unwrap();
    let agg_naive = LogicalPlan::naive(&aggs);
    let agg_times = time_plans_interleaved(&[&agg_naive, &agg_plan], &aggs, &mut session, 3);
    let (agg_naive_secs, agg_gbmqo_secs) = (agg_times[0], agg_times[1]);

    let rollup_sets = rollup
        .subplans
        .iter()
        .filter(|sp| sp.kind == NodeKind::Rollup)
        .map(|sp| {
            let mut sets = Vec::new();
            sp.collect_required(&mut sets);
            sets.len()
        })
        .max()
        .unwrap_or(0);
    let outcome = Outcome {
        rollup_sets,
        plain_cost: plain_stats.final_cost,
        rollup_cost: rollup_stats.final_cost,
        plain_secs,
        rollup_secs,
        agg_naive_secs,
        agg_gbmqo_secs,
    };
    let mut report =
        Report::new("§7 extensions — CUBE/ROLLUP merge alternatives and multi-aggregate workloads");
    report.line(format!(
        "§7.1 chain workload: with CUBE/ROLLUP merges the search chose a ROLLUP node \
         covering {} of {} sets",
        outcome.rollup_sets,
        chain.len()
    ));
    report.line(format!(
        "estimated cost plain {:.0} vs with merges {:.0}; measured plain {:.3}s vs with merges {:.3}s",
        outcome.plain_cost, outcome.rollup_cost, outcome.plain_secs, outcome.rollup_secs
    ));
    report.line(format!(
        "§7.2 COUNT+MIN+MAX+SUM workload: naive {:.3}s vs GB-MQO {:.3}s ({:.2}×)",
        outcome.agg_naive_secs,
        outcome.agg_gbmqo_secs,
        outcome.agg_naive_secs / outcome.agg_gbmqo_secs
    ));
    (report, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing-sensitive shape test; run with `cargo test --release`"
    )]
    fn extensions_run_and_multi_aggregates_still_win() {
        let _guard = crate::harness::timing_lock();
        let scale = Scale::small();
        let (_, o) = run(&scale);
        assert_eq!(
            o.rollup_sets, 4,
            "the search should pick ROLLUP over the chain"
        );
        assert!(o.rollup_cost < o.plain_cost);
        // timing parity: the ROLLUP plan must not be drastically worse
        assert!(o.rollup_secs <= o.plain_secs * 2.5 + 0.05);
        assert!(
            o.agg_gbmqo_secs < o.agg_naive_secs,
            "multi-aggregate batch should still benefit from sharing"
        );
    }
}
