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
//!
//! Two more tables sweep one factor, the key domain, at 20,000 rows (a
//! base-table read) and at 2,000 (a re-aggregation): a domain of 0.5×
//! to 16× the rows, each grouping timed through the
//! one-pass kernel twice — its gids by direct address (a slot per code,
//! cleared up front) and hashed. It is the sweep that fixes how many
//! slots per input row the kernel's direct-address rule admits.

use gbmqo_datagen::lineitem;
use gbmqo_exec::shared::one_pass_probe;
use gbmqo_exec::{radix_group_by, AggSpec, ExecMetrics};
use gbmqo_storage::{Column, DataType, Field, Schema, Table};
use std::time::{Duration, Instant};

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
    domain_sweep();
}

/// Rows of the domain sweep: a base-table read at the benchmark's
/// scale, and a re-aggregation of an intermediate.
const SWEEP_ROWS: [usize; 2] = [20_000, 2_000];

/// Timed runs per cell of the sweep; the median is printed.
const SWEEP_RUNS: usize = 101;

/// Direct address against hashing, one factor at a time: the key
/// domain, as a multiple of the rows. Each cell is the median of
/// [`SWEEP_RUNS`] runs of the one-pass kernel over one `Int64` key drawn
/// uniformly from `factor × rows` values, so the packed domain holds
/// the next power of two of that many slots.
fn domain_sweep() {
    for rows in SWEEP_ROWS {
        domain_sweep_at(rows);
    }
}

/// [`domain_sweep`] at `rows` rows.
fn domain_sweep_at(rows: usize) {
    println!("\ndirect address vs hashed, one key, {rows} rows (median of {SWEEP_RUNS}):");
    println!("  domain   slots/row   groups   direct ns/row   hashed ns/row   direct/hashed");
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    for factor in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let values = (factor * rows as f64) as u64;
        let keys = (0..rows)
            .map(|_| {
                // xorshift64: a fixed, dependency-free draw
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed % values) as i64
            })
            .collect();
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]).unwrap();
        let t = Table::new(schema, vec![Column::from_i64(keys)]).unwrap();
        let slots = (values + 1).next_power_of_two();
        let aggs = [AggSpec::count()];
        let run = |direct: bool| {
            let groups = one_pass_probe(&t, &[0], &aggs, 0, direct)
                .unwrap()
                .num_rows() as u64;
            let mut times: Vec<Duration> = (0..SWEEP_RUNS)
                .map(|_| {
                    let start = Instant::now();
                    one_pass_probe(&t, &[0], &aggs, groups, direct).unwrap();
                    start.elapsed()
                })
                .collect();
            times.sort_unstable();
            let ns = times[SWEEP_RUNS / 2].as_nanos() as f64 / rows as f64;
            (groups, ns)
        };
        let (groups, direct) = run(true);
        let (_, hashed) = run(false);
        println!(
            "  {factor:>5}×   {:>9.2}   {groups:>6}   {direct:>13.1}   {hashed:>13.1}   {:>13.2}",
            slots as f64 / rows as f64,
            direct / hashed
        );
    }
}
