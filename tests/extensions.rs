//! Integration tests for the paper's §5.1.1 and §7 extensions.

use gbmqo_core::prelude::*;
use gbmqo_core::{grouping_sets_over_star, NodeKind, StarDim};
use gbmqo_cost::{CostConstants, IndexSnapshot, OptimizerCostModel};
use gbmqo_datagen::{lineitem, sales};
use gbmqo_exec::{hash_join, sort_group_by, AggSpec, ExecMetrics};
use gbmqo_integration::{assert_same_results, normalize, session_with};
use gbmqo_stats::ExactSource;
use gbmqo_storage::{DataType, Field, Schema, TableBuilder, Value};

#[test]
fn search_picks_rollup_and_keeps_semantics() {
    let t = lineitem(10_000, 0.0, 21);
    let w = Workload::new(
        "lineitem",
        &t,
        &["l_returnflag", "l_linestatus", "l_shipmode"],
        &[
            vec!["l_returnflag"],
            vec!["l_returnflag", "l_linestatus"],
            vec!["l_returnflag", "l_linestatus", "l_shipmode"],
        ],
    )
    .unwrap();
    fn has_rollup(n: &gbmqo_core::SubNode) -> bool {
        n.kind == NodeKind::Rollup || n.children.iter().any(has_rollup)
    }
    let mut session = session_with(t.clone(), "lineitem");
    // §7.1 inside the search: once materialization is expensive, one
    // ROLLUP node over the chain beats every Group By tree
    for byte_write in [10.0, 25.0, 50.0] {
        let plan = |cube_rollup_merges: bool| {
            let mut model = OptimizerCostModel::new(ExactSource::new(&t), IndexSnapshot::none())
                .with_constants(CostConstants {
                    byte_write,
                    ..Default::default()
                });
            let config = SearchConfig {
                cube_rollup_merges,
                ..SearchConfig::pruned()
            };
            GbMqo::with_config(config).plan(&w, &mut model).unwrap()
        };
        let (plain, plain_stats) = plan(false);
        let (rollup, rollup_stats) = plan(true);
        assert!(!plain.subplans.iter().any(has_rollup));
        assert!(
            rollup.subplans.iter().any(has_rollup),
            "byte_write {byte_write}: no ROLLUP chosen"
        );
        assert!(rollup_stats.final_cost < plain_stats.final_cost);
        let a = session.run_plan(&plain, &w).unwrap();
        let b = session.run_plan(&rollup, &w).unwrap();
        assert_same_results(&w, &a, &b, "search-chosen rollup");
    }
}

#[test]
fn explicit_rollup_plan_equals_group_bys() {
    let t = sales(8_000, 31);
    let w = Workload::new(
        "sales",
        &t,
        &["region", "city", "channel"],
        &[vec!["region"], vec!["region", "city"]],
    )
    .unwrap();
    let plan = LogicalPlan {
        subplans: vec![gbmqo_core::SubNode {
            cols: ColSet::from_cols([0, 1]),
            required: true,
            kind: NodeKind::Rollup,
            children: vec![gbmqo_core::SubNode::leaf(ColSet::single(0))],
        }],
    };
    plan.validate(&w).unwrap();
    let mut session = session_with(t, "sales");
    let rollup = session.run_plan(&plan, &w).unwrap();
    let naive = session.run_plan(&LogicalPlan::naive(&w), &w).unwrap();
    assert_same_results(&w, &naive, &rollup, "explicit rollup");
}

#[test]
fn explicit_cube_plan_equals_group_bys() {
    let t = sales(8_000, 32);
    let w = Workload::new(
        "sales",
        &t,
        &["region", "channel", "gender"],
        &[
            vec!["region"],
            vec!["channel"],
            vec!["gender"],
            vec!["region", "channel"],
            vec!["region", "channel", "gender"],
        ],
    )
    .unwrap();
    let plan = LogicalPlan {
        subplans: vec![gbmqo_core::SubNode {
            cols: ColSet::from_cols([0, 1, 2]),
            required: true,
            kind: NodeKind::Cube,
            children: vec![
                gbmqo_core::SubNode::leaf(ColSet::single(0)),
                gbmqo_core::SubNode::leaf(ColSet::single(1)),
                gbmqo_core::SubNode::leaf(ColSet::single(2)),
                gbmqo_core::SubNode::leaf(ColSet::from_cols([0, 1])),
            ],
        }],
    };
    plan.validate(&w).unwrap();
    let mut session = session_with(t, "sales");
    let cube = session.run_plan(&plan, &w).unwrap();
    let naive = session.run_plan(&LogicalPlan::naive(&w), &w).unwrap();
    assert_same_results(&w, &naive, &cube, "explicit cube");
}

#[test]
fn join_pushdown_on_generated_data() {
    // sales fact joined with a store dimension keyed by store_id
    let t = sales(20_000, 33);
    let store_ids: std::collections::BTreeSet<i64> = (0..t.num_rows())
        .map(|r| {
            t.value(r, t.schema().index_of("store_id").unwrap())
                .as_int()
                .unwrap()
        })
        .collect();
    let dim_schema = Schema::new(vec![
        Field::new("store_id", DataType::Int64),
        Field::new("manager", DataType::Utf8),
    ])
    .unwrap();
    let mut db = TableBuilder::new(dim_schema);
    for id in &store_ids {
        db.push_row(&[Value::Int(*id), Value::str(&format!("mgr{}", id % 10))])
            .unwrap();
    }
    let dim = db.finish().unwrap();

    let mut session = session_with(t.clone(), "sales");
    session
        .engine_mut()
        .catalog_mut()
        .register("stores", dim.clone())
        .unwrap();

    let requests = [vec!["region"], vec!["channel"], vec!["region", "channel"]];
    let stores = StarDim {
        table: "stores".into(),
        fact_key: "store_id".into(),
        dim_key: "store_id".into(),
        filter: None,
    };
    let out = grouping_sets_over_star(
        &mut session,
        "sales",
        &[stores],
        &requests,
        None,
        &[AggSpec::count()],
        CacheControl::Default,
        &mut QueryCtx::default(),
    )
    .unwrap();
    assert_eq!(out.results.len(), 3);

    // reference computation
    let mut m = ExecMetrics::new();
    let fact_key = t.schema().index_of("store_id").unwrap();
    let joined = hash_join(&t, &dim, &[fact_key], &[0], &mut m).unwrap();
    for (tag, ours) in &out.results {
        let names: Vec<&str> = tag.split(',').collect();
        let cols: Vec<usize> = names
            .iter()
            .map(|c| joined.schema().index_of(c).unwrap())
            .collect();
        let direct = sort_group_by(&joined, &cols, &[AggSpec::count()], &mut m).unwrap();
        assert_eq!(
            normalize(ours, &names),
            normalize(&direct, &names),
            "set {tag}"
        );
    }
}

#[test]
fn reaggregation_of_min_max_sum_is_lossless_through_three_levels() {
    // R → (flag,status,mode) → (flag,status) → (flag), carrying
    // COUNT/MIN/MAX/SUM all the way (§7.2).
    let t = lineitem(5_000, 0.0, 34);
    let w = Workload::new(
        "lineitem",
        &t,
        &["l_returnflag", "l_linestatus", "l_shipmode"],
        &[vec!["l_returnflag"]],
    )
    .unwrap()
    .with_aggregates(vec![
        AggSpec::count(),
        AggSpec::min("l_quantity", "min_q"),
        AggSpec::max("l_quantity", "max_q"),
        AggSpec::sum("l_extendedprice", "sum_p"),
    ]);
    let plan = LogicalPlan {
        subplans: vec![gbmqo_core::SubNode {
            cols: ColSet::from_cols([0, 1, 2]),
            required: false,
            kind: NodeKind::GroupBy,
            children: vec![gbmqo_core::SubNode {
                cols: ColSet::from_cols([0, 1]),
                required: false,
                kind: NodeKind::GroupBy,
                children: vec![gbmqo_core::SubNode::leaf(ColSet::single(0))],
            }],
        }],
    };
    plan.validate(&w).unwrap();
    let mut session = session_with(t, "lineitem");
    let deep = session.run_plan(&plan, &w).unwrap();
    let naive = session.run_plan(&LogicalPlan::naive(&w), &w).unwrap();
    let full = |t: &gbmqo_storage::Table| {
        let mut rows: Vec<Vec<Value>> = (0..t.num_rows())
            .map(|r| (0..t.num_columns()).map(|c| t.value(r, c)).collect())
            .collect();
        rows.sort();
        rows
    };
    let (a, b) = (full(&naive.results[0].1), full(&deep.results[0].1));
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        for (va, vb) in ra.iter().zip(rb) {
            match (va, vb) {
                // float sums associate differently across levels
                (Value::Float(x), Value::Float(y)) => {
                    assert!((x - y).abs() <= 1e-6 * x.abs().max(1.0), "{x} vs {y}")
                }
                _ => assert_eq!(va, vb),
            }
        }
    }
}
