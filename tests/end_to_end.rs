//! End-to-end integration: generators → optimizer → executor → results,
//! across cost models, statistics sources and datasets.

use gbmqo_core::prelude::*;
use gbmqo_core::render_sql;
use gbmqo_cost::{CardinalityCostModel, IndexSnapshot, OptimizerCostModel};
use gbmqo_datagen::{
    lineitem, neighboring_seq, sales, LINEITEM_SC_COLUMNS, NREF_COLUMNS, SALES_COLUMNS,
};
use gbmqo_integration::{assert_same_results, session_with};
use gbmqo_stats::{CardinalitySource, DistinctEstimator, ExactSource, SampledSource};
use gbmqo_storage::IndexKind;

#[test]
fn lineitem_sc_exact_cardinality_model() {
    let t = lineitem(20_000, 0.0, 1);
    let w = Workload::single_columns("lineitem", &t, &LINEITEM_SC_COLUMNS).unwrap();
    let mut model = CardinalityCostModel::new(ExactSource::new(&t));
    let (plan, stats) = GbMqo::with_config(SearchConfig::pruned())
        .plan(&w, &mut model)
        .unwrap();
    plan.validate(&w).unwrap();
    assert!(
        stats.final_cost < stats.naive_cost,
        "merging must pay off on lineitem"
    );
    assert!(plan.materialized_count() >= 1);

    let mut session = session_with(t, "lineitem");
    let optimized = session.run_plan(&plan, &w).unwrap();
    let naive = session.run_plan(&LogicalPlan::naive(&w), &w).unwrap();
    assert_same_results(&w, &naive, &optimized, "lineitem SC");
    assert_eq!(optimized.results.len(), 12);
}

#[test]
fn lineitem_sc_sampled_optimizer_model() {
    let t = lineitem(20_000, 0.0, 2);
    let w = Workload::single_columns("lineitem", &t, &LINEITEM_SC_COLUMNS).unwrap();
    let source = SampledSource::new(&t, 2_000, DistinctEstimator::Hybrid, 9);
    let mut model = OptimizerCostModel::new(source, IndexSnapshot::none());
    let (plan, stats) = GbMqo::with_config(SearchConfig::pruned())
        .plan(&w, &mut model)
        .unwrap();
    plan.validate(&w).unwrap();
    assert!(stats.final_cost <= stats.naive_cost);
    // statistics were created lazily and logged
    let log = model.source().creation_log().unwrap();
    assert!(log.count() >= 12, "per-column stats plus merged sets");

    let mut session = session_with(t, "lineitem");
    let optimized = session.run_plan(&plan, &w).unwrap();
    let naive = session.run_plan(&LogicalPlan::naive(&w), &w).unwrap();
    assert_same_results(&w, &naive, &optimized, "lineitem SC sampled");
}

#[test]
fn sales_two_column_workload() {
    let t = sales(10_000, 3);
    let universe: Vec<&str> = SALES_COLUMNS[..8].to_vec();
    let w = Workload::two_columns("sales", &t, &universe).unwrap();
    assert_eq!(w.len(), 28);
    let mut model = CardinalityCostModel::new(ExactSource::new(&t));
    let (plan, stats) = GbMqo::with_config(SearchConfig::pruned())
        .plan(&w, &mut model)
        .unwrap();
    plan.validate(&w).unwrap();
    assert!(stats.final_cost < stats.naive_cost);

    let mut session = session_with(t, "sales");
    let optimized = session.run_plan(&plan, &w).unwrap();
    let naive = session.run_plan(&LogicalPlan::naive(&w), &w).unwrap();
    assert_same_results(&w, &naive, &optimized, "sales TC");
}

#[test]
fn nref_single_columns() {
    let t = neighboring_seq(10_000, 5);
    let w = Workload::single_columns("nref", &t, &NREF_COLUMNS).unwrap();
    let mut model = CardinalityCostModel::new(ExactSource::new(&t));
    let (plan, _) = GbMqo::with_config(SearchConfig::pruned())
        .plan(&w, &mut model)
        .unwrap();
    let mut session = session_with(t, "nref");
    let optimized = session.run_plan(&plan, &w).unwrap();
    let naive = session.run_plan(&LogicalPlan::naive(&w), &w).unwrap();
    assert_same_results(&w, &naive, &optimized, "nref SC");
}

#[test]
fn physical_design_changes_plans_and_stays_correct() {
    let t = lineitem(15_000, 0.0, 4);
    let w = Workload::single_columns("lineitem", &t, &LINEITEM_SC_COLUMNS).unwrap();

    let mut session = session_with(t.clone(), "lineitem");
    // index the high-cardinality comment column
    let comment_ord = t.schema().index_of("l_comment").unwrap();
    session
        .engine_mut()
        .catalog_mut()
        .create_index(
            "lineitem",
            "nc_comment",
            IndexKind::NonClustered,
            vec![comment_ord],
        )
        .unwrap();

    let snap = IndexSnapshot::capture(&session.engine().catalog().snapshot("lineitem").unwrap());
    assert!(snap.serves_grouping(&[comment_ord]));
    let mut model = OptimizerCostModel::new(ExactSource::new(&t), snap);
    let (plan, _) = GbMqo::with_config(SearchConfig::pruned())
        .plan(&w, &mut model)
        .unwrap();
    plan.validate(&w).unwrap();

    let optimized = session.run_plan(&plan, &w).unwrap();
    let naive = session.run_plan(&LogicalPlan::naive(&w), &w).unwrap();
    assert_same_results(&w, &naive, &optimized, "indexed lineitem");
}

#[test]
fn sql_script_matches_plan_shape() {
    let t = lineitem(5_000, 0.0, 6);
    let w = Workload::single_columns("lineitem", &t, &LINEITEM_SC_COLUMNS).unwrap();
    let mut model = CardinalityCostModel::new(ExactSource::new(&t));
    let (plan, _) = GbMqo::with_config(SearchConfig::pruned())
        .plan(&w, &mut model)
        .unwrap();
    let sql = render_sql(&plan, &w);
    let selects = sql.iter().filter(|s| s.starts_with("SELECT")).count();
    let intos = sql.iter().filter(|s| s.contains(" INTO ")).count();
    let drops = sql.iter().filter(|s| s.starts_with("DROP")).count();
    assert_eq!(selects, plan.node_count());
    assert_eq!(intos, plan.materialized_count());
    assert_eq!(drops, intos, "every temp table is dropped");
    // every query over a temp table re-aggregates with SUM(cnt)
    for stmt in &sql {
        if stmt.contains("FROM __gbmqo_tmp_") {
            assert!(stmt.contains("SUM(cnt)"), "{stmt}");
        }
    }
}

#[test]
fn skewed_data_still_correct_and_cheaper() {
    for skew in [0.0, 1.0, 2.5] {
        let t = lineitem(10_000, skew, 8);
        let w = Workload::single_columns("lineitem", &t, &LINEITEM_SC_COLUMNS).unwrap();
        let mut model = CardinalityCostModel::new(ExactSource::new(&t));
        let (plan, stats) = GbMqo::with_config(SearchConfig::pruned())
            .plan(&w, &mut model)
            .unwrap();
        assert!(
            stats.final_cost <= stats.naive_cost,
            "skew {skew}: optimized must not regress"
        );
        let mut session = session_with(t, "lineitem");
        let optimized = session.run_plan(&plan, &w).unwrap();
        let naive = session.run_plan(&LogicalPlan::naive(&w), &w).unwrap();
        assert_same_results(&w, &naive, &optimized, &format!("skew {skew}"));
    }
}

#[test]
fn multi_aggregate_workload_roundtrips() {
    use gbmqo_exec::AggSpec;
    let t = lineitem(8_000, 0.0, 10);
    let w = Workload::single_columns(
        "lineitem",
        &t,
        &["l_returnflag", "l_linestatus", "l_shipmode"],
    )
    .unwrap()
    .with_aggregates(vec![
        AggSpec::count(),
        AggSpec::min("l_quantity", "min_qty"),
        AggSpec::max("l_quantity", "max_qty"),
        AggSpec::sum("l_extendedprice", "sum_price"),
    ]);
    // workload aggregates reference non-universe columns: the merged node
    // carries them (§7.2's union-of-aggregates approach)
    let mut model = CardinalityCostModel::new(ExactSource::new(&t));
    let (plan, _) = GbMqo::with_config(SearchConfig::pruned())
        .plan(&w, &mut model)
        .unwrap();
    let mut session = session_with(t.clone(), "lineitem");
    let optimized = session.run_plan(&plan, &w).unwrap();
    let naive = session.run_plan(&LogicalPlan::naive(&w), &w).unwrap();

    for (set, nt) in &naive.results {
        let names = w.col_names(*set);
        let ot = &optimized.results.iter().find(|(s, _)| s == set).unwrap().1;
        // Compare all columns; float sums only approximately, because
        // re-aggregated partial sums associate differently.
        let norm = |t: &gbmqo_storage::Table| {
            let mut rows: Vec<Vec<gbmqo_storage::Value>> = (0..t.num_rows())
                .map(|r| (0..t.num_columns()).map(|c| t.value(r, c)).collect())
                .collect();
            rows.sort();
            rows
        };
        let (a, b) = (norm(nt), norm(ot));
        assert_eq!(a.len(), b.len(), "row counts differ for {names:?}");
        for (ra, rb) in a.iter().zip(&b) {
            for (va, vb) in ra.iter().zip(rb) {
                match (va, vb) {
                    (gbmqo_storage::Value::Float(x), gbmqo_storage::Value::Float(y)) => {
                        assert!(
                            (x - y).abs() <= 1e-6 * x.abs().max(1.0),
                            "float aggregate differs for {names:?}: {x} vs {y}"
                        );
                    }
                    _ => assert_eq!(va, vb, "aggregates differ for {names:?}"),
                }
            }
        }
    }
}
