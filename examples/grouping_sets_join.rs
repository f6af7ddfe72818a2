//! GROUPING SETS over a join, with Group By pushdown and `Grp-Tag`
//! (§5.1.1 / Figure 8 of the paper).
//!
//! ```sh
//! cargo run --release -p gbmqo-examples --bin grouping_sets_join
//! ```
//!
//! A lineitem-like fact table joins a small supplier dimension. The
//! analyst asks for GROUPING SETS over fact columns; the example pushes
//! the grouping below the join (sharing work across the pushed-down
//! Group Bys: the session plans them as one GB-MQO workload), tags and
//! unions the partial results, joins once, and verifies against the
//! join-then-group plan.

use gbmqo_core::prelude::*;
use gbmqo_core::{grouping_sets_over_star, StarDim};
use gbmqo_datagen::{ColumnGen, TableSpec};
use gbmqo_exec::{hash_join, radix_group_by, AggSpec, ExecMetrics};
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

fn main() {
    let rows = 150_000;
    let mut session = Session::builder()
        .table("fact", fact(rows))
        .table("supplier", dimension())
        .build()
        .unwrap();
    println!("fact: {rows} rows; supplier: 100 rows (keyed by suppkey)\n");

    let requests = [
        vec!["returnflag"],
        vec!["shipmode"],
        vec!["linestatus"],
        vec!["returnflag", "shipmode"],
    ];

    let supplier = StarDim {
        table: "supplier".into(),
        fact_key: "suppkey".into(),
        dim_key: "suppkey".into(),
        filter: None,
    };
    let start = Instant::now();
    let pushed = grouping_sets_over_star(
        &mut session,
        "fact",
        &[supplier],
        &requests,
        None,
        &[AggSpec::count()],
        CacheControl::Default,
        &mut QueryCtx::default(),
    )
    .unwrap();
    let t_pushed = start.elapsed().as_secs_f64();

    println!("pushed-down plan (§5.1.1):");
    println!(
        "  tagged UNION ALL below the join: {} rows (vs {} fact rows)",
        pushed.tagged_union_rows, rows
    );
    for (tag, result) in &pushed.results {
        println!("  GROUPING SET ({tag:<22}) → {} groups", result.num_rows());
    }

    // Reference: join first, then one Group By per set.
    let fact_t = session.engine().catalog().table("fact").unwrap().clone();
    let supp_t = session
        .engine()
        .catalog()
        .table("supplier")
        .unwrap()
        .clone();
    let mut m = ExecMetrics::new();
    let start = Instant::now();
    let joined = hash_join(&fact_t, &supp_t, &[0], &[0], &mut m).unwrap();
    for req in &requests {
        let cols: Vec<usize> = req
            .iter()
            .map(|c| joined.schema().index_of(c).unwrap())
            .collect();
        let _ = radix_group_by(&joined, &cols, &[AggSpec::count()], 1, None, None, &mut m).unwrap();
    }
    let t_direct = start.elapsed().as_secs_f64();

    println!(
        "\npushed-down: {t_pushed:.3}s   join-then-group: {t_direct:.3}s   ({:.2}×)",
        t_direct / t_pushed
    );

    // Verify one set end-to-end.
    let cols = vec![joined.schema().index_of("returnflag").unwrap()];
    let direct =
        radix_group_by(&joined, &cols, &[AggSpec::count()], 1, None, None, &mut m).unwrap();
    let ours = &pushed
        .results
        .iter()
        .find(|(t, _)| t == "returnflag")
        .unwrap()
        .1;
    let norm = |t: &Table| {
        let mut v: Vec<(Value, i64)> = (0..t.num_rows())
            .map(|r| {
                (
                    t.value(r, 0),
                    t.value(r, t.num_columns() - 1).as_int().unwrap(),
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(norm(ours), norm(&direct));
    println!("verified: pushed-down results match join-then-group ✓");
}
