//! Sort-order streaming aggregation, and what it shares with the hash
//! kernel ([`crate::radix`]): result assembly and the scan counters.
//!
//! Both produce the same logical result: one row per distinct combination
//! of the group columns (NULL is a value; empty input ⇒ empty output),
//! group columns first, aggregate outputs after.

use crate::agg::{Accumulator, AggSpec};
use crate::engine::Rows;
use crate::error::Result;
use crate::metrics::ExecMetrics;
use gbmqo_storage::{Column, Field, Schema, Table};
use std::time::Instant;

/// Assemble a group-by result: group columns gathered from the
/// representative row of each group, aggregate columns finished from
/// their accumulators. Shared by every group-by kernel in this crate.
pub(crate) fn output_table(
    input: &Table,
    group_cols: &[usize],
    aggs: &[AggSpec],
    representatives: Vec<u32>,
    accumulators: Vec<Accumulator>,
) -> Result<Table> {
    let num_groups = representatives.len();
    let mut fields: Vec<Field> = Vec::with_capacity(group_cols.len() + aggs.len());
    let mut columns: Vec<Column> = Vec::with_capacity(group_cols.len() + aggs.len());
    for &c in group_cols {
        fields.push(input.schema().field(c).clone());
        columns.push(input.column(c).gather(&representatives));
    }
    for (acc, spec) in accumulators.into_iter().zip(aggs) {
        let (field, col) = acc.finish(spec, input, num_groups);
        fields.push(field);
        columns.push(col);
    }
    Ok(Table::new(Schema::new(fields)?, columns)?)
}

/// Streaming Group By over rows visited in `order`, which must sort (or at
/// least cluster) `input` by `group_cols` — e.g. an index permutation.
/// Runs without a hash table; this is what makes indexed single-column
/// Group By queries cheap in the §6.9 physical-design experiment.
pub fn stream_group_by(
    input: &Table,
    group_cols: &[usize],
    aggs: &[AggSpec],
    order: &[u32],
    metrics: &mut ExecMetrics,
) -> Result<Table> {
    let start = Instant::now();
    if order.len() != input.num_rows() {
        return Err(crate::error::ExecError::Invalid(format!(
            "order has {} entries for {} input rows",
            order.len(),
            input.num_rows()
        )));
    }
    let key_cols: Vec<&Column> = group_cols.iter().map(|&c| input.column(c)).collect();
    let mut representatives: Vec<u32> = Vec::new();
    let mut accumulators: Vec<Accumulator> = aggs
        .iter()
        .map(|a| Accumulator::build(a, input))
        .collect::<Result<_>>()?;

    let mut prev: Option<u32> = None;
    for &row in order {
        let row_usize = row as usize;
        let new_group = match prev {
            None => true,
            Some(p) => !key_cols.iter().all(|c| c.rows_equal(p as usize, row_usize)),
        };
        if new_group {
            representatives.push(row);
        }
        let gid = representatives.len() - 1;
        for acc in &mut accumulators {
            acc.ensure_group(gid);
            acc.update(input, gid, row_usize);
        }
        prev = Some(row);
    }

    let result = output_table(input, group_cols, aggs, representatives, accumulators)?;
    record(metrics, input.into(), group_cols, &result, start);
    Ok(result)
}

/// Record the standard scan/output counters for one group-by execution
/// over the rows `input` reads.
pub(crate) fn record(
    metrics: &mut ExecMetrics,
    input: Rows<'_>,
    group_cols: &[usize],
    result: &Table,
    start: Instant,
) {
    let rows = input.len();
    metrics.rows_scanned += rows as u64;
    metrics.rows_output += result.num_rows() as u64;
    metrics.bytes_scanned += (rows as f64 * input.table.avg_row_width(group_cols)) as u64;
    metrics.add_elapsed(start.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, GroupByQuery, QueryCtx};
    use crate::radix::{group_by_with_strategy, radix_group_by};
    use gbmqo_storage::DataType;
    use gbmqo_storage::{sort_permutation, TableBuilder, Value};

    fn input() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Utf8),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let mut tb = TableBuilder::new(schema);
        for (a, b) in [
            (Value::str("x"), Value::Int(1)),
            (Value::str("y"), Value::Int(2)),
            (Value::str("x"), Value::Int(1)),
            (Value::Null, Value::Int(3)),
            (Value::str("x"), Value::Int(9)),
            (Value::Null, Value::Int(4)),
        ] {
            tb.push_row(&[a, b]).unwrap();
        }
        tb.finish().unwrap()
    }

    /// The hash kernel on the calling thread.
    fn hashed(t: &Table, cols: &[usize], aggs: &[AggSpec], m: &mut ExecMetrics) -> Table {
        radix_group_by(t, cols, aggs, 1, None, None, m).unwrap()
    }

    fn counts_by_key(t: &Table) -> Vec<(Value, i64)> {
        let mut v: Vec<(Value, i64)> = (0..t.num_rows())
            .map(|r| (t.value(r, 0), t.value(r, 1).as_int().unwrap()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn hash_kernel_counts() {
        let t = input();
        let mut m = ExecMetrics::new();
        let r = hashed(&t, &[0], &[AggSpec::count()], &mut m);
        assert_eq!(r.num_rows(), 3);
        assert_eq!(
            counts_by_key(&r),
            vec![(Value::Null, 2), (Value::str("x"), 3), (Value::str("y"), 1)]
        );
        assert_eq!(m.rows_scanned, 6);
        assert_eq!(m.rows_output, 3);
        assert!(m.elapsed_nanos > 0);
    }

    #[test]
    fn stream_group_by_matches_hash() {
        let t = input();
        let mut m = ExecMetrics::new();
        let by_hash = hashed(&t, &[0], &[AggSpec::count()], &mut m);
        let order = sort_permutation(&t, &[0]);
        let streamed = stream_group_by(&t, &[0], &[AggSpec::count()], &order, &mut m).unwrap();
        assert_eq!(counts_by_key(&by_hash), counts_by_key(&streamed));
    }

    #[test]
    fn multi_column_grouping() {
        let t = input();
        let mut m = ExecMetrics::new();
        let r = hashed(&t, &[0, 1], &[AggSpec::count()], &mut m);
        // distinct (a,b) pairs: (x,1) x2, (y,2), (NULL,3), (x,9), (NULL,4)
        assert_eq!(r.num_rows(), 5);
        let total: i64 = (0..r.num_rows())
            .map(|i| r.value(i, 2).as_int().unwrap())
            .sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn empty_group_cols_single_group() {
        let t = input();
        let mut m = ExecMetrics::new();
        let r = hashed(&t, &[], &[AggSpec::count()], &mut m);
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.value(0, 0), Value::Int(6));
    }

    #[test]
    fn empty_input_empty_output() {
        let t = Table::empty(input().schema().clone());
        let mut m = ExecMetrics::new();
        let r = hashed(&t, &[0], &[AggSpec::count()], &mut m);
        assert_eq!(r.num_rows(), 0);
        let r = hashed(&t, &[], &[AggSpec::count()], &mut m);
        assert_eq!(r.num_rows(), 0);
    }

    #[test]
    fn reaggregation_from_intermediate_equals_direct() {
        let t = input();
        let mut m = ExecMetrics::new();
        // direct: group by b
        let direct = hashed(&t, &[1], &[AggSpec::count()], &mut m);
        // two-step: group by (a,b) then re-aggregate on b with SUM(cnt)
        let ab = hashed(&t, &[0, 1], &[AggSpec::count()], &mut m);
        let b_col = ab.schema().index_of("b").unwrap();
        let two_step = hashed(&ab, &[b_col], &[AggSpec::sum_count()], &mut m);
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
        assert_eq!(norm(&direct), norm(&two_step));
    }

    #[test]
    fn stream_rejects_wrong_length_order() {
        let t = input();
        let mut m = ExecMetrics::new();
        let err = stream_group_by(&t, &[0], &[AggSpec::count()], &[0, 1], &mut m);
        assert!(err.is_err());
    }

    #[test]
    fn dispatcher_picks_stream_with_order() {
        // The engine's dispatch: an index that serves the grouping streams.
        let engine = || {
            let mut catalog = gbmqo_storage::Catalog::new();
            catalog.register("r", input()).unwrap();
            Engine::new(catalog)
        };
        let (hashing, mut streaming) = (engine(), engine());
        streaming
            .catalog_mut()
            .create_index("r", "ix_b", gbmqo_storage::IndexKind::NonClustered, vec![1])
            .unwrap();
        let q = GroupByQuery::count_star("r", &["b"]);
        let (mut streamed, mut hashed) = (QueryCtx::default(), QueryCtx::default());
        let a = streaming.run_group_by(&q, &mut streamed).unwrap();
        assert_eq!(streamed.metrics.radix_partitions, 0, "an order streams");
        let b = hashing.run_group_by(&q, &mut hashed).unwrap();
        assert_eq!(hashed.metrics.radix_partitions, 1, "no order hashes");
        assert_eq!(counts_by_key(&a), counts_by_key(&b));

        // The same dispatch under the signature kept for external callers.
        let t = input();
        let aggs = [AggSpec::count()];
        let order = sort_permutation(&t, &[1]);
        let strategy = Default::default();
        let mut m = ExecMetrics::new();
        let c = group_by_with_strategy(
            &t,
            &[1],
            &aggs,
            Some(&order),
            strategy,
            1,
            None,
            None,
            &mut m,
        );
        assert_eq!(m.radix_partitions, 0);
        let d = group_by_with_strategy(&t, &[1], &aggs, None, strategy, 1, None, None, &mut m);
        assert_eq!(m.radix_partitions, 1);
        assert_eq!(counts_by_key(&c.unwrap()), counts_by_key(&a));
        assert_eq!(counts_by_key(&d.unwrap()), counts_by_key(&a));
    }

    #[test]
    fn extended_aggregates_through_group_by() {
        let t = input();
        let mut m = ExecMetrics::new();
        let r = hashed(
            &t,
            &[0],
            &[
                AggSpec::count(),
                AggSpec::sum("b", "sum_b"),
                AggSpec::min("b", "min_b"),
                AggSpec::max("b", "max_b"),
            ],
            &mut m,
        );
        let row_x = (0..r.num_rows())
            .find(|&i| r.value(i, 0) == Value::str("x"))
            .unwrap();
        assert_eq!(r.value(row_x, 1), Value::Int(3)); // cnt
        assert_eq!(r.value(row_x, 2), Value::Int(11)); // sum 1+1+9
        assert_eq!(r.value(row_x, 3), Value::Int(1));
        assert_eq!(r.value(row_x, 4), Value::Int(9));
    }
}
