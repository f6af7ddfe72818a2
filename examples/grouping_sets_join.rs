//! GROUPING SETS over a join (§5.1.1 / Figure 8 of the paper), run as
//! one GB-MQO workload over the fact rows the join keeps.
//!
//! ```sh
//! cargo run --release -p gbmqo-examples --bin grouping_sets_join
//! ```
//!
//! A lineitem-like fact table joins a small supplier dimension on the
//! supplier key. The analyst asks for GROUPING SETS over fact columns.
//! The join adds no column and matches each fact row at most once, so it
//! is a semi-join: a selection of the fact. The session resolves it
//! into the request's base relation and plans the grouping sets over it
//! as one GB-MQO workload (its plan cache, statistics and aggregate
//! cache apply). The example verifies every set against the
//! join-then-group plan.

use gbmqo_core::prelude::*;
use gbmqo_datagen::{ColumnGen, TableSpec};
use gbmqo_exec::{hash_join, radix_group_by, AggSpec, ExecMetrics};
use gbmqo_sqlfe::{compile, execute};
use gbmqo_storage::{DataType, Field, Schema, Table, TableBuilder, Value};
use std::time::Instant;

fn fact(rows: usize) -> Table {
    TableSpec::new(
        vec![
            ("suppkey".into(), ColumnGen::IntCat { distinct: 100 }),
            (
                "returnflag".into(),
                ColumnGen::Text {
                    distinct: 3,
                    avg_len: 1,
                },
            ),
            (
                "shipmode".into(),
                ColumnGen::Text {
                    distinct: 7,
                    avg_len: 5,
                },
            ),
            (
                "linestatus".into(),
                ColumnGen::Text {
                    distinct: 2,
                    avg_len: 1,
                },
            ),
        ],
        11,
    )
    .generate(rows)
}

fn dimension() -> Table {
    let schema = Schema::new(vec![
        Field::new("suppkey", DataType::Int64),
        Field::new("nation", DataType::Utf8),
    ])
    .unwrap();
    let mut tb = TableBuilder::new(schema);
    for i in 0..100i64 {
        tb.push_row(&[Value::Int(i), Value::str(&format!("nation{}", i % 25))])
            .unwrap();
    }
    tb.finish().unwrap()
}

/// Sorted `(group values…, count)` rows of the set `names` of `t`.
fn norm(t: &Table, names: &[&str]) -> Vec<(Vec<Value>, i64)> {
    let cols: Vec<usize> = names
        .iter()
        .map(|n| t.schema().index_of(n).unwrap())
        .collect();
    let count = t.num_columns() - 1;
    let mut v: Vec<(Vec<Value>, i64)> = (0..t.num_rows())
        .map(|r| {
            let keys = cols.iter().map(|&c| t.value(r, c)).collect();
            (keys, t.value(r, count).as_int().unwrap())
        })
        .collect();
    v.sort();
    v
}

fn main() {
    let rows = 150_000;
    let mut session = Session::builder()
        .table("fact", fact(rows))
        .table("supplier", dimension())
        .build()
        .unwrap();
    println!("fact: {rows} rows; supplier: 100 rows (keyed by suppkey)\n");

    let sql = "SELECT COUNT(*) FROM fact JOIN supplier ON fact.suppkey = supplier.suppkey \
               WHERE nation <= 'nation19' \
               GROUP BY GROUPING SETS ((returnflag), (shipmode), (linestatus), \
                                       (returnflag, shipmode))";
    println!("sql> {sql}\n");
    let lowered = compile(sql, session.engine().catalog()).unwrap();
    let start = Instant::now();
    let results = execute(
        &lowered,
        &mut session,
        CacheControl::Default,
        &mut QueryCtx::default(),
    )
    .unwrap();
    let t_session = start.elapsed().as_secs_f64();

    let kept: i64 = norm(&results[0].1, &["returnflag"])
        .iter()
        .map(|(_, n)| n)
        .sum();
    println!("semi-join selection: {kept} of {rows} fact rows kept, grouped once per set");
    for (tag, result) in &results {
        println!("  GROUPING SET ({tag:<22}) → {} groups", result.num_rows());
    }

    // Reference: join first, filter the dimension side, then one Group
    // By per set.
    let catalog = session.engine().catalog();
    let fact_t = catalog.table("fact").unwrap().clone();
    let supp_t = catalog.table("supplier").unwrap().clone();
    let mut m = ExecMetrics::new();
    let start = Instant::now();
    let joined = hash_join(&fact_t, &supp_t, &[0], &[0], &mut m).unwrap();
    let nation = joined.schema().index_of("nation").unwrap();
    let keep: Vec<u32> = (0..joined.num_rows() as u32)
        .filter(|&r| joined.value(r as usize, nation) <= Value::str("nation19"))
        .collect();
    let joined = joined.gather(&keep);
    let mut direct = Vec::new();
    for (tag, _) in &results {
        let cols: Vec<usize> = tag
            .split(',')
            .map(|c| joined.schema().index_of(c).unwrap())
            .collect();
        direct.push(
            radix_group_by(&joined, &cols, &[AggSpec::count()], 1, None, None, &mut m).unwrap(),
        );
    }
    let t_direct = start.elapsed().as_secs_f64();

    println!(
        "\nsession: {t_session:.3}s   join-then-group: {t_direct:.3}s   ({:.2}×)",
        t_direct / t_session
    );
    for ((tag, ours), direct) in results.iter().zip(&direct) {
        let names: Vec<&str> = tag.split(',').collect();
        assert_eq!(norm(ours, &names), norm(direct, &names), "set {tag}");
    }
    assert_eq!(kept as usize, joined.num_rows());
    println!("verified: every set matches join-then-group ✓");
}
