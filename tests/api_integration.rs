//! Cross-crate integration tests for the GROUPING SETS facade (§5.1/§5.2),
//! the spec parser, shared scans, and sort-based aggregation.

use gbmqo_core::prelude::*;
use gbmqo_core::ExecutionMode;
use gbmqo_cost::CardinalityCostModel;
use gbmqo_datagen::{lineitem, sales};
use gbmqo_exec::{radix_group_by, sort_group_by, AggSpec, ExecMetrics, Input};
use gbmqo_integration::engine_with;
use gbmqo_stats::ExactSource;
use gbmqo_storage::{Table, Value};

/// Normalize a tagged union-all: per row, keep only the columns named in
/// its own `grp_tag` (the union's column order differs between execution
/// modes; NULL-padded columns are irrelevant to the member result).
fn tagged_norm(t: &Table) -> Vec<(String, Vec<Value>, i64)> {
    let tag_col = t.schema().index_of("grp_tag").unwrap();
    let cnt_col = t.schema().index_of("cnt").unwrap();
    let mut rows: Vec<(String, Vec<Value>, i64)> = (0..t.num_rows())
        .map(|r| {
            let tag = t.value(r, tag_col).as_str().unwrap().to_string();
            let keys: Vec<Value> = tag
                .split(',')
                .map(|name| t.value(r, t.schema().index_of(name).unwrap()))
                .collect();
            (tag, keys, t.value(r, cnt_col).as_int().unwrap())
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn parsed_spec_to_tagged_result_end_to_end() {
    let table = lineitem(8_000, 0.0, 51);
    let sets = gbmqo_sqlfe::parse_group_spec(
        "GROUPING SETS ((l_returnflag), (l_linestatus), (l_returnflag, l_linestatus))",
    )
    .unwrap();
    let request_refs: Vec<Vec<&str>> = sets
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let w = Workload::new(
        "lineitem",
        &table,
        &["l_returnflag", "l_linestatus"],
        &request_refs,
    )
    .unwrap();
    let mut session = Session::builder()
        .table("lineitem", table.clone())
        .search(SearchConfig::pruned())
        .mode(ExecutionMode::ClientSide)
        .build()
        .unwrap();
    let out = session.grouping_sets(&w).unwrap();
    // three grouping sets: 3 + 2 + 6 rows
    assert_eq!(out.table.num_rows(), 3 + 2 + 6);
    // grand-total check per tag
    let rows = tagged_norm(&out.table);
    for tag in ["l_returnflag", "l_linestatus", "l_returnflag,l_linestatus"] {
        let total: i64 = rows
            .iter()
            .filter(|(t, _, _)| t == tag)
            .map(|(_, _, c)| c)
            .sum();
        assert_eq!(total, 8_000, "tag {tag}");
    }
}

#[test]
fn client_and_server_modes_agree_on_lineitem() {
    let table = lineitem(10_000, 0.0, 52);
    let w = Workload::single_columns(
        "lineitem",
        &table,
        &[
            "l_returnflag",
            "l_linestatus",
            "l_shipmode",
            "l_shipinstruct",
            "l_linenumber",
            "l_commitdate",
            "l_receiptdate",
        ],
    )
    .unwrap();
    let mut session = Session::builder()
        .table("lineitem", table.clone())
        .search(SearchConfig::pruned())
        .mode(ExecutionMode::ClientSide)
        .build()
        .unwrap();
    let client = session.grouping_sets(&w).unwrap();
    session.set_mode(ExecutionMode::ServerSide);
    let server = session.grouping_sets(&w).unwrap();
    assert_eq!(tagged_norm(&client.table), tagged_norm(&server.table));
    // the server side shares scans: it must not scan more rows than the
    // client side (which re-scans per query)
    assert!(server.metrics.rows_scanned <= client.metrics.rows_scanned);
}

#[test]
fn shared_scan_engine_api_matches_per_query_execution() {
    let table = sales(6_000, 53);
    let mut engine = engine_with(table.clone(), "sales");
    let groupings: Vec<Vec<String>> = vec![
        vec!["region".into()],
        vec!["gender".into()],
        vec!["region".into(), "channel".into()],
    ];
    let shared = engine
        .run_shared_group_bys(
            &Input::Catalog("sales".into()),
            &groupings,
            &[AggSpec::count()],
            &[],
        )
        .unwrap();
    let mut m = ExecMetrics::new();
    for (cols, out) in groupings.iter().zip(&shared) {
        let ords: Vec<usize> = cols
            .iter()
            .map(|c| table.schema().index_of(c).unwrap())
            .collect();
        let direct = sort_group_by(&table, &ords, &[AggSpec::count()], &mut m).unwrap();
        assert_eq!(out.num_rows(), direct.num_rows(), "grouping {cols:?}");
        let sum = |t: &Table| -> i64 {
            (0..t.num_rows())
                .map(|r| t.value(r, t.num_columns() - 1).as_int().unwrap())
                .sum()
        };
        assert_eq!(sum(out), sum(&direct));
    }
}

#[test]
fn sort_based_aggregation_is_equivalent_and_ordered() {
    let table = lineitem(5_000, 1.0, 54);
    let ship = table.schema().index_of("l_shipdate").unwrap();
    let mut m = ExecMetrics::new();
    let sorted = sort_group_by(&table, &[ship], &[AggSpec::count()], &mut m).unwrap();
    let hashed =
        radix_group_by(&table, &[ship], &[AggSpec::count()], 1, None, None, &mut m).unwrap();
    assert_eq!(sorted.num_rows(), hashed.num_rows());
    for w in 0..sorted.num_rows() - 1 {
        assert!(sorted.value(w, 0) <= sorted.value(w + 1, 0), "row {w}");
    }
}

#[test]
fn dot_rendering_of_an_optimized_plan() {
    let table = lineitem(5_000, 0.0, 55);
    let w = Workload::single_columns(
        "lineitem",
        &table,
        &["l_returnflag", "l_linestatus", "l_shipmode"],
    )
    .unwrap();
    let mut model = CardinalityCostModel::new(ExactSource::new(&table));
    let (plan, _) = GbMqo::new().plan(&w, &mut model).unwrap();
    let dot = plan.render_dot(&w.column_names);
    assert!(dot.contains("digraph plan"));
    assert_eq!(dot.matches(" -> ").count(), plan.node_count());
}
