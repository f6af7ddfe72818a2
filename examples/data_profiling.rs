//! Data-quality profiling — the paper's §1 motivating scenario.
//!
//! ```sh
//! cargo run --release -p gbmqo-examples --bin data_profiling
//! ```
//!
//! An analyst wants the value distribution of every column of a sales
//! warehouse (plus a couple of joint distributions to check a suspected
//! key). The example runs the batch three ways — naive, simulated
//! commercial GROUPING SETS, and GB-MQO — and reports wall-clock times
//! and the distribution summaries an analyst would look at.

use gbmqo_core::prelude::*;
use gbmqo_core::{grouping_sets_plan, BaselineKind};
use gbmqo_datagen::{sales, SALES_COLUMNS};
use gbmqo_storage::{Table, Value};
use std::time::Instant;

fn run(
    label: &str,
    plan: &LogicalPlan,
    workload: &Workload,
    session: &mut Session,
) -> (f64, Vec<(ColSet, Table)>) {
    let start = Instant::now();
    let report = session.run_plan(plan, workload).unwrap();
    let secs = start.elapsed().as_secs_f64();
    println!(
        "  {label:<22} {secs:>8.3}s   ({} queries, {} temp tables, peak {} KiB)",
        report.metrics.queries_executed,
        report.metrics.tables_materialized,
        report.peak_temp_bytes / 1024
    );
    (secs, report.results)
}

fn main() {
    let rows = 200_000;
    let table = sales(rows, 7);
    println!(
        "sales warehouse: {rows} rows × {} columns\n",
        table.num_columns()
    );

    // Profile every column, plus joint distributions for a candidate key.
    let mut requests: Vec<Vec<&str>> = SALES_COLUMNS.iter().map(|c| vec![*c]).collect();
    requests.push(vec!["store_id", "product_id"]);
    requests.push(vec!["sale_date", "ship_date"]);
    let workload = Workload::new("sales", &table, &SALES_COLUMNS, &requests).unwrap();

    // Optimize with the realistic setup: sampled statistics + the
    // simulated query-optimizer cost model, wired up once by the session.
    let mut session = Session::builder()
        .table("sales", table)
        .cost_model(CostModelSpec::Optimizer(Stats::Sampled {
            rule: SampleRule::fixed(5_000),
            estimator: DistinctEstimator::Hybrid,
            seed: 1,
        }))
        .search(SearchConfig::pruned())
        .build()
        .unwrap();
    let (plan, stats) = session.plan(&workload).unwrap();

    println!("GB-MQO plan:");
    println!("{}", plan.render(&workload.column_names));

    let naive = LogicalPlan::naive(&workload);
    let (gs_plan, gs_kind) = grouping_sets_plan(&workload);
    println!("timings over {} requested Group Bys:", workload.len());
    let (t_naive, reference) = run("naive (one per query)", &naive, &workload, &mut session);
    let gs_label = match gs_kind {
        BaselineKind::UnionTop => "GROUPING SETS (union)",
        BaselineKind::SharedSort => "GROUPING SETS (sorts)",
    };
    let (t_gs, _) = run(gs_label, &gs_plan, &workload, &mut session);
    let (t_opt, results) = run("GB-MQO", &plan, &workload, &mut session);
    println!(
        "\nspeedup vs naive: {:.2}×;  vs GROUPING SETS: {:.2}×",
        t_naive / t_opt,
        t_gs / t_opt
    );
    println!(
        "(optimization itself issued {} cost-model calls)\n",
        stats.optimizer_calls
    );

    // The analyst's view: distinct counts + top value per column.
    println!("profile:");
    for (set, result) in &results {
        if set.len() != 1 {
            continue;
        }
        let name = workload.col_names(*set)[0];
        let cnt_col = result.num_columns() - 1;
        let mut top_row = 0;
        for r in 0..result.num_rows() {
            if result.value(r, cnt_col).as_int() > result.value(top_row, cnt_col).as_int() {
                top_row = r;
            }
        }
        let top_val = result.value(top_row, 0);
        let top_cnt = result.value(top_row, cnt_col).as_int().unwrap();
        println!(
            "  {name:<14} {:>7} distinct   mode = {} ({:.1}% of rows)",
            result.num_rows(),
            match top_val {
                Value::Null => "NULL".to_string(),
                v => v.to_string(),
            },
            100.0 * top_cnt as f64 / rows as f64
        );
    }

    // Key check: is (store_id, product_id) almost a key? (It shouldn't be.)
    let key_set = workload
        .requests
        .iter()
        .find(|s| s.len() == 2 && workload.col_names(**s).contains(&"store_id"))
        .copied()
        .unwrap();
    let key_groups = results
        .iter()
        .find(|(s, _)| *s == key_set)
        .unwrap()
        .1
        .num_rows();
    println!(
        "\nkey check: (store_id, product_id) has {key_groups} distinct pairs over {rows} rows → {}",
        if key_groups == rows {
            "a key"
        } else {
            "NOT a key"
        }
    );

    // cross-check against the naive reference
    for (set, t) in &results {
        let r = &reference.iter().find(|(s, _)| s == set).unwrap().1;
        assert_eq!(t.num_rows(), r.num_rows(), "row count mismatch for {set:?}");
    }
}
