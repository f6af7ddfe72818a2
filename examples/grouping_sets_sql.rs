//! The SQL front end end to end: CUBE and star-join GROUPING SETS
//! statements compiled by `gbmqo-sqlfe` and executed through a
//! `Session`.
//!
//! ```sh
//! cargo run --release -p gbmqo-examples --bin grouping_sets_sql
//! ```
//!
//! Two statements over a generated retail star schema
//! (`sales ⋈ product ⋈ store`):
//!
//! 1. `GROUP BY CUBE (qty, channel, promo)` on the fact table alone —
//!    lowers to a 7-set GB-MQO workload that the greedy optimizer
//!    shares (one scan, pipelined Group Bys), exactly the paper's
//!    multiple-group-by setting.
//! 2. `GROUP BY GROUPING SETS` over the three-table star join with a
//!    dimension filter — the front end pushes fact-side grouping below
//!    the join (§5), so the join and filter run once for all sets.

use gbmqo_core::prelude::*;
use gbmqo_datagen::star;
use gbmqo_sqlfe::{compile, execute, LoweredQuery};

const ROWS: usize = 50_000;

fn run(sql: &str, session: &mut Session, preview: usize) {
    println!("sql> {sql}");
    let lowered = match compile(sql, session.engine().catalog()) {
        Ok(q) => q,
        Err(e) => {
            // Compile errors carry spans; render() draws the caret.
            eprintln!("{}", e.render(sql));
            std::process::exit(1);
        }
    };
    let shape = match &lowered {
        LoweredQuery::Workload { workload, .. } if workload.filter.is_some() => {
            "filtered single-table workload"
        }
        LoweredQuery::Workload { .. } => "single-table workload",
        LoweredQuery::Star { .. } => "star join with its grouping pushed below the joins",
    };
    println!(
        "  lowered to a {shape}, {} grouping set(s)",
        lowered.sets().len()
    );
    let out = execute(
        &lowered,
        session,
        CacheControl::Default,
        &mut QueryCtx::default(),
    )
    .expect("execute");
    for (tag, table) in &out {
        println!("  GROUP BY ({tag}): {} rows", table.num_rows());
    }
    let (tag, first) = &out[0];
    println!("  first set ({tag}):");
    for line in first.display(preview).lines() {
        println!("    {line}");
    }
    println!();
}

fn main() {
    println!("generating a {ROWS}-row star schema (sales, product, store) ...\n");
    let schema = star(ROWS, 7);
    let mut builder = Session::builder();
    for (name, table) in schema.tables() {
        builder = builder.table(name, table.clone());
    }
    let mut session = builder
        .mode(ExecutionMode::Parallel)
        .search(SearchConfig::pruned())
        .build()
        .expect("session");

    // 1. A CUBE over low-cardinality fact columns: 2^3 - 1 = 7 sets,
    //    optimized and executed as one shared GB-MQO plan.
    run(
        "SELECT qty, channel, promo, COUNT(*) AS n \
         FROM sales GROUP BY CUBE (qty, channel, promo)",
        &mut session,
        4,
    );

    // 2. GROUPING SETS over the star join, filtered on a dimension
    //    attribute. Grouping columns are fact-side, so the Group Bys
    //    run below the join; the filter and join happen once.
    run(
        "SELECT COUNT(*) AS n FROM sales \
         JOIN product ON sales.prod_key = product.prod_key \
         JOIN store ON sales.store_key = store.store_key \
         WHERE qty >= 5 \
         GROUP BY GROUPING SETS ((prod_key), (store_key), (prod_key, store_key))",
        &mut session,
        4,
    );
}
