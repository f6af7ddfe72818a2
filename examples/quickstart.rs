//! Quickstart: optimize and execute a batch of Group By queries.
//!
//! ```sh
//! cargo run --release -p gbmqo-examples --bin quickstart
//! ```
//!
//! Builds a small TPC-H-like `lineitem`, asks for every single-column
//! Group By (the paper's data-profiling scenario), optimizes the batch
//! with the GB-MQO algorithm through a [`Session`], prints the chosen
//! plan and the equivalent SQL script, executes it with the
//! dependency-parallel executor, and cross-checks the result row counts.

use gbmqo_core::prelude::*;
use gbmqo_core::render_sql;
use gbmqo_datagen::{lineitem, LINEITEM_SC_COLUMNS};

fn main() {
    // 1. A scaled lineitem (the paper uses 6M rows; 50k keeps this demo
    //    instant while preserving the column correlations that matter).
    let table = lineitem(50_000, 0.0, 42);
    println!(
        "lineitem: {} rows × {} columns",
        table.num_rows(),
        table.num_columns()
    );

    // 2. The workload: one Group By per non-float column (12 queries).
    let workload = Workload::single_columns("lineitem", &table, &LINEITEM_SC_COLUMNS).unwrap();
    println!(
        "workload: {} single-column Group By queries\n",
        workload.len()
    );

    // 3. A session: the optimizer cost model over a sample (the
    //    default), §4.3 pruning, dependency-parallel execution, and a
    //    plan cache for repeated workloads.
    let mut session = Session::builder()
        .table("lineitem", table.clone())
        .search(SearchConfig::pruned())
        .mode(ExecutionMode::Parallel)
        .plan_cache(8)
        .build()
        .unwrap();

    let (plan, stats) = session.plan(&workload).unwrap();
    println!("chosen logical plan (* = requested query):");
    println!("{}", plan.render(&workload.column_names));
    println!(
        "estimated cost: naive {:.0} → optimized {:.0}  ({:.2}× better, {} optimizer calls)\n",
        stats.naive_cost,
        stats.final_cost,
        stats.naive_cost / stats.final_cost,
        stats.optimizer_calls
    );

    // 4. The client-side SQL script (§5.2 of the paper).
    println!("equivalent SQL script:");
    for stmt in render_sql(&plan, &workload) {
        println!("  {stmt}");
    }
    println!();

    // 5. Execute and cross-check.
    let report = session.run_plan(&plan, &workload).unwrap();
    println!("results:");
    for (set, result) in &report.results {
        let names = workload.col_names(*set).join(", ");
        println!("  GROUP BY {names:<16} → {} groups", result.num_rows());
    }
    println!(
        "\nexecuted {} queries, scanned {} rows, peak temp storage {} bytes",
        report.metrics.queries_executed, report.metrics.rows_scanned, report.peak_temp_bytes
    );

    // Sanity: each result's counts must sum to the table size.
    for (set, result) in &report.results {
        let cnt_col = result.num_columns() - 1;
        let total: i64 = (0..result.num_rows())
            .map(|r| result.value(r, cnt_col).as_int().unwrap())
            .sum();
        assert_eq!(total, 50_000, "counts for {set:?} must cover every row");
    }
    println!("verified: every result's counts sum to the row count ✓");

    // 6. The same workload again: the session serves the plan from its
    //    cache, with zero optimizer calls.
    let again = session.grouping_sets(&workload).unwrap();
    assert!(again.stats.cache_hit && again.stats.optimizer_calls == 0);
    let cache = session.cache_stats();
    println!(
        "repeat request: plan served from cache ({} hit / {} miss), {} union rows",
        cache.hits,
        cache.misses,
        again.table.num_rows()
    );
}
