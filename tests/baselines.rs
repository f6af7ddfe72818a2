//! Baseline comparisons: naive, simulated commercial GROUPING SETS, and
//! the exhaustive optimum, mirroring the paper's §6.1–§6.3 setups at
//! test scale.

use gbmqo_core::prelude::*;
use gbmqo_core::{grouping_sets_plan, optimal_plan, BaselineKind};
use gbmqo_cost::{CardinalityCostModel, CostModel};
use gbmqo_datagen::{lineitem, widened_lineitem};
use gbmqo_integration::{assert_same_results, session_with};
use gbmqo_stats::ExactSource;

const SC7: [&str; 7] = [
    "l_returnflag",
    "l_linestatus",
    "l_shipmode",
    "l_shipinstruct",
    "l_linenumber",
    "l_commitdate",
    "l_receiptdate",
];

#[test]
fn grouping_sets_baseline_is_correct_but_weaker_on_sc() {
    let t = lineitem(20_000, 0.0, 11);
    let w = Workload::single_columns("lineitem", &t, &SC7).unwrap();

    let (gs_plan, kind) = grouping_sets_plan(&w);
    assert_eq!(kind, BaselineKind::UnionTop);
    gs_plan.validate(&w).unwrap();

    let mut model = CardinalityCostModel::new(ExactSource::new(&t));
    let (our_plan, _) = GbMqo::with_config(SearchConfig::pruned())
        .plan(&w, &mut model)
        .unwrap();

    // cost comparison under one model
    let mut m2 = CardinalityCostModel::new(ExactSource::new(&t));
    let mut coster = gbmqo_core::coster::EdgeCoster::new(&mut m2, w.base_ordinals.clone());
    let gs_cost = gs_plan.cost(&mut coster);
    let our_cost = our_plan.cost(&mut coster);
    assert!(
        our_cost < gs_cost,
        "GB-MQO ({our_cost}) must beat union-top GROUPING SETS ({gs_cost}) on SC"
    );

    // and both must produce the same answers
    let mut session = session_with(t, "lineitem");
    let gs = session.run_plan(&gs_plan, &w).unwrap();
    let ours = session.run_plan(&our_plan, &w).unwrap();
    assert_same_results(&w, &gs, &ours, "GS vs GB-MQO");
}

#[test]
fn grouping_sets_baseline_shared_sort_on_cont() {
    // the paper's CONT workload over the three date columns
    let t = lineitem(20_000, 0.0, 12);
    let w = Workload::new(
        "lineitem",
        &t,
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
    let (gs_plan, kind) = grouping_sets_plan(&w);
    assert_eq!(kind, BaselineKind::SharedSort);
    gs_plan.validate(&w).unwrap();

    let mut model = CardinalityCostModel::new(ExactSource::new(&t));
    let (our_plan, _) = GbMqo::with_config(SearchConfig::pruned())
        .plan(&w, &mut model)
        .unwrap();

    let mut m2 = CardinalityCostModel::new(ExactSource::new(&t));
    let mut coster = gbmqo_core::coster::EdgeCoster::new(&mut m2, w.base_ordinals.clone());
    let gs_cost = gs_plan.cost(&mut coster);
    let our_cost = our_plan.cost(&mut coster);
    // Table 2's CONT row: the two are comparable.
    assert!(
        our_cost <= gs_cost * 1.05,
        "on CONT ours ({our_cost}) should at least match shared sorts ({gs_cost})"
    );

    let mut session = session_with(t, "lineitem");
    let gs = session.run_plan(&gs_plan, &w).unwrap();
    let ours = session.run_plan(&our_plan, &w).unwrap();
    assert_same_results(&w, &gs, &ours, "CONT");
}

#[test]
fn greedy_close_to_optimal_on_seven_columns() {
    // §6.3's experiment shape: 7-column SC instances; the greedy plan's
    // cost must be within a modest factor of the exhaustive optimum.
    for seed in [1u64, 2, 3] {
        let t = lineitem(10_000, 0.0, seed);
        let w = Workload::single_columns("lineitem", &t, &SC7).unwrap();

        let mut m1 = CardinalityCostModel::new(ExactSource::new(&t));
        let (opt_plan, opt_cost) = optimal_plan(&w, &mut m1).unwrap();
        opt_plan.validate(&w).unwrap();

        let mut m2 = CardinalityCostModel::new(ExactSource::new(&t));
        let (greedy_plan, stats) = GbMqo::new().plan(&w, &mut m2).unwrap();
        greedy_plan.validate(&w).unwrap();

        assert!(opt_cost <= stats.final_cost + 1e-6, "seed {seed}");
        assert!(
            stats.final_cost <= opt_cost * 1.25,
            "seed {seed}: greedy {} too far from optimal {opt_cost}",
            stats.final_cost
        );

        // and the optimal plan actually executes correctly
        let mut session = session_with(t, "lineitem");
        let a = session.run_plan(&opt_plan, &w).unwrap();
        let b = session.run_plan(&greedy_plan, &w).unwrap();
        assert_same_results(&w, &a, &b, &format!("optimal vs greedy seed {seed}"));
    }
}

#[test]
fn benefit_greedy_close_to_optimal_on_disjoint_triples() {
    // Twelve disjoint 3-column queries over a 36-column table: the
    // benefit-ordered search stays within 10% of the exhaustive optimum.
    let t = widened_lineitem(1_000, 36, 7);
    let names: Vec<&str> = t.schema().names().to_vec();
    let requests: Vec<Vec<&str>> = names.chunks(3).map(<[&str]>::to_vec).collect();
    let w = Workload::new("wide", &t, &names, &requests).unwrap();

    let mut m1 = CardinalityCostModel::new(ExactSource::new(&t));
    let (_, opt_cost) = optimal_plan(&w, &mut m1).unwrap();
    let mut m2 = CardinalityCostModel::new(ExactSource::new(&t));
    let config = SearchConfig {
        benefit_greedy: true,
        ..SearchConfig::pruned()
    };
    let (plan, stats) = GbMqo::with_config(config).plan(&w, &mut m2).unwrap();
    plan.validate(&w).unwrap();
    assert!(
        stats.final_cost <= opt_cost * 1.10,
        "benefit-greedy {} is over 110% of the optimum {opt_cost}",
        stats.final_cost
    );
}

#[test]
fn pruning_reduces_calls_without_changing_binary_plans() {
    // §4.3 soundness at integration scale: under the cardinality model
    // with binary merges and disjoint inputs, pruning must not change the
    // final cost but must reduce optimizer calls.
    let t = lineitem(10_000, 0.0, 13);
    let w = Workload::single_columns("lineitem", &t, &SC7).unwrap();

    let run = |config: SearchConfig| {
        let mut m = CardinalityCostModel::new(ExactSource::new(&t));
        let (_, stats) = GbMqo::with_config(config).plan(&w, &mut m).unwrap();
        (stats.final_cost, m.calls(), stats)
    };
    let binary = SearchConfig {
        binary_only: true,
        ..Default::default()
    };
    let (cost_plain, calls_plain, _) = run(binary.clone());
    let (cost_pruned, calls_pruned, stats) = run(SearchConfig {
        subsumption_pruning: true,
        monotonicity_pruning: true,
        ..binary
    });
    assert_eq!(cost_plain, cost_pruned, "pruning must be sound here");
    assert!(
        calls_pruned <= calls_plain,
        "pruning must not increase calls ({calls_pruned} vs {calls_plain})"
    );
    assert!(stats.pruned_subsumption + stats.pruned_monotonicity > 0);
}
