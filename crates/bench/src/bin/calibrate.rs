//! Calibration tool: measures the engine's per-row and per-group hash
//! aggregation costs that back `gbmqo_cost::CostConstants`'s defaults.
//!
//! ```sh
//! cargo run --release -p gbmqo-bench --bin calibrate
//! ```
//!
//! Each grouping runs the way the plan executor runs an edge: on one
//! thread, with its exact group count as the estimate (the executor
//! always passes the optimizer's).

use gbmqo_datagen::lineitem;
use gbmqo_exec::{radix_group_by, AggSpec, ExecMetrics};
use std::time::Instant;

fn main() {
    let rows = 500_000;
    let t = lineitem(rows, 0.0, 1);
    let idx = |n: &str| t.schema().index_of(n).unwrap();
    let mut m = ExecMetrics::new();
    // Time one run with the exact group count as its estimate; an untimed
    // run before it counts the groups and warms the caches.
    let serial = |cols: &[usize], m: &mut ExecMetrics| {
        let groups = radix_group_by(&t, cols, &[AggSpec::count()], 1, None, None, m)
            .unwrap()
            .num_rows() as u64;
        let start = Instant::now();
        let r = radix_group_by(&t, cols, &[AggSpec::count()], 1, Some(groups), None, m).unwrap();
        (r, start.elapsed())
    };
    println!("hash Group By over {rows} rows:");
    for (label, cols) in [
        ("1 col low-card", vec![idx("l_returnflag")]),
        ("1 col date", vec![idx("l_shipdate")]),
        ("1 col high-card", vec![idx("l_comment")]),
        (
            "2 col dates",
            vec![idx("l_commitdate"), idx("l_receiptdate")],
        ),
        (
            "5 col low-card",
            vec![
                idx("l_linenumber"),
                idx("l_returnflag"),
                idx("l_linestatus"),
                idx("l_shipinstruct"),
                idx("l_shipmode"),
            ],
        ),
    ] {
        let (r, elapsed) = serial(&cols, &mut m);
        let ns = elapsed.as_nanos() as f64 / rows as f64;
        println!("  {label:<16} {:>8} groups  {ns:>6.1} ns/row", r.num_rows());
    }
    println!(
        "\nfit: cost ≈ rows × (row_scan + hash_agg_row + key_bytes × byte_scan) \
         + groups × row_output\n     see gbmqo_cost::CostConstants::default()"
    );
}
