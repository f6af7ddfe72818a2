//! Sort-based aggregation: sort, then stream.
//!
//! The classic alternative to hash aggregation (the paper's plans can use
//! "the standard Sort and Hash operators", §5.1). Sorting costs
//! `O(n log n)` but the subsequent aggregation is a single streaming pass
//! with no hash table, and the output comes out *ordered* — which is what
//! shared-sort GROUPING SETS implementations exploit for subsumed sets.

use crate::agg::AggSpec;
use crate::error::Result;
use crate::group_by::stream_group_by;
use crate::metrics::ExecMetrics;
use gbmqo_storage::{sort_permutation, Table};

/// Group `input` by `group_cols` using sort + streaming aggregation.
///
/// Produces the same multiset of rows as [`crate::radix_group_by`], but
/// ordered ascending by the grouping columns (NULLS FIRST).
pub fn sort_group_by(
    input: &Table,
    group_cols: &[usize],
    aggs: &[AggSpec],
    metrics: &mut ExecMetrics,
) -> Result<Table> {
    let order = sort_permutation(input, group_cols);
    stream_group_by(input, group_cols, aggs, &order, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::radix_group_by;
    use gbmqo_storage::{DataType, Field, Schema, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Utf8),
        ])
        .unwrap();
        let mut tb = gbmqo_storage::TableBuilder::new(schema);
        for i in (0..100i64).rev() {
            tb.push_row(&[
                Value::Int(i % 7),
                Value::str(if i % 2 == 0 { "x" } else { "y" }),
            ])
            .unwrap();
        }
        tb.finish().unwrap()
    }

    #[test]
    fn matches_hash_kernel() {
        let t = table();
        let mut m = ExecMetrics::new();
        let sorted = sort_group_by(&t, &[0, 1], &[AggSpec::count()], &mut m).unwrap();
        let hashed =
            radix_group_by(&t, &[0, 1], &[AggSpec::count()], 1, None, None, &mut m).unwrap();
        let norm = |t: &Table| {
            let mut v: Vec<(Value, Value, i64)> = (0..t.num_rows())
                .map(|r| {
                    (
                        t.value(r, 0),
                        t.value(r, 1),
                        t.value(r, 2).as_int().unwrap(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(norm(&sorted), norm(&hashed));
    }

    #[test]
    fn output_is_ordered() {
        let t = table();
        let mut m = ExecMetrics::new();
        let sorted = sort_group_by(&t, &[0], &[AggSpec::count()], &mut m).unwrap();
        for w in 0..sorted.num_rows() - 1 {
            assert!(sorted.value(w, 0) <= sorted.value(w + 1, 0));
        }
    }
}
