//! Hash inner join: the reference that GROUPING SETS over a star join
//! (§5.1.1), answered as a selection of the fact, is checked against —
//! join first, then group.

use crate::error::{ExecError, Result};
use crate::metrics::ExecMetrics;
use gbmqo_storage::{Column, Field, Schema, Table, Value};
use rustc_hash::FxHashMap;
use std::time::Instant;

/// Inner equi-join of `left` and `right` on the given key columns.
///
/// Keys compare by value — strings by their text, whatever dictionary
/// each side interned them in — and NULL keys never join (SQL
/// semantics). Output columns are all of `left`'s
/// followed by all of `right`'s; a right column whose name collides with a
/// left column is prefixed with `right_`.
pub fn hash_join(
    left: &Table,
    right: &Table,
    left_keys: &[usize],
    right_keys: &[usize],
    metrics: &mut ExecMetrics,
) -> Result<Table> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(ExecError::Invalid(
            "join requires equally many (≥1) key columns on both sides".to_string(),
        ));
    }
    let start = Instant::now();

    // The key of `row`: its values in `cols`, or `None` when one is NULL.
    fn key(cols: &[&Column], row: usize) -> Option<Vec<Value>> {
        cols.iter()
            .map(|c| Some(c.value(row)).filter(|v| !v.is_null()))
            .collect()
    }

    // Build side: right.
    let right_cols: Vec<&Column> = right_keys.iter().map(|&c| right.column(c)).collect();
    let mut build: FxHashMap<Vec<Value>, Vec<u32>> = FxHashMap::default();
    for row in 0..right.num_rows() {
        if let Some(k) = key(&right_cols, row) {
            build.entry(k).or_default().push(row as u32);
        }
    }

    // Probe side: left.
    let left_cols: Vec<&Column> = left_keys.iter().map(|&c| left.column(c)).collect();
    let mut left_rows: Vec<u32> = Vec::new();
    let mut right_rows: Vec<u32> = Vec::new();
    for row in 0..left.num_rows() {
        if let Some(matches) = key(&left_cols, row).and_then(|k| build.get(&k)) {
            for &r in matches {
                left_rows.push(row as u32);
                right_rows.push(r);
            }
        }
    }

    let mut fields: Vec<Field> = left.schema().fields().to_vec();
    let mut columns: Vec<Column> = left
        .columns()
        .iter()
        .map(|c| c.gather(&left_rows))
        .collect();
    for (i, f) in right.schema().fields().iter().enumerate() {
        let name = if left.schema().index_of(&f.name).is_ok() {
            format!("right_{}", f.name)
        } else {
            f.name.clone()
        };
        fields.push(Field {
            name,
            data_type: f.data_type,
            nullable: f.nullable,
        });
        columns.push(right.column(i).gather(&right_rows));
    }

    let out = Table::new(Schema::new(fields)?, columns)?;
    metrics.rows_scanned += (left.num_rows() + right.num_rows()) as u64;
    metrics.rows_output += out.num_rows() as u64;
    metrics.add_elapsed(start.elapsed());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{DataType, TableBuilder, Value};

    fn t(rows: &[(Value, Value)], names: (&str, &str)) -> Table {
        let schema = Schema::new(vec![
            Field::new(names.0, DataType::Int64),
            Field::new(names.1, DataType::Utf8),
        ])
        .unwrap();
        let mut tb = TableBuilder::new(schema);
        for (a, b) in rows {
            tb.push_row(&[a.clone(), b.clone()]).unwrap();
        }
        tb.finish().unwrap()
    }

    #[test]
    fn inner_join_matches_keys() {
        let left = t(
            &[
                (Value::Int(1), Value::str("l1")),
                (Value::Int(2), Value::str("l2")),
                (Value::Int(3), Value::str("l3")),
            ],
            ("k", "lv"),
        );
        let right = t(
            &[
                (Value::Int(2), Value::str("r2")),
                (Value::Int(2), Value::str("r2b")),
                (Value::Int(3), Value::str("r3")),
                (Value::Int(9), Value::str("r9")),
            ],
            ("k", "rv"),
        );
        let mut m = ExecMetrics::new();
        let out = hash_join(&left, &right, &[0], &[0], &mut m).unwrap();
        assert_eq!(out.num_rows(), 3); // 2×2 matches + 3×1
                                       // name collision handled
        assert!(out.schema().index_of("right_k").is_ok());
        assert!(out.schema().index_of("rv").is_ok());
        let mut pairs: Vec<(i64, String)> = (0..out.num_rows())
            .map(|r| {
                (
                    out.value(r, 0).as_int().unwrap(),
                    out.value(r, 3).as_str().unwrap().to_string(),
                )
            })
            .collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                (2, "r2".to_string()),
                (2, "r2b".to_string()),
                (3, "r3".to_string())
            ]
        );
    }

    #[test]
    fn string_keys_join_by_value_across_dictionaries() {
        // Each side interns its own strings: "b" is code 1 on the left
        // and code 0 on the right, and code 1 on the right is "c".
        let left = t(
            &[
                (Value::Int(1), Value::str("a")),
                (Value::Int(2), Value::str("b")),
            ],
            ("lk", "s"),
        );
        let right = t(
            &[
                (Value::Int(10), Value::str("b")),
                (Value::Int(20), Value::str("c")),
            ],
            ("rk", "s"),
        );
        let mut m = ExecMetrics::new();
        let out = hash_join(&left, &right, &[1], &[1], &mut m).unwrap();
        let pairs: Vec<(Value, Value)> = (0..out.num_rows())
            .map(|r| (out.value(r, 1), out.value(r, 3)))
            .collect();
        assert_eq!(pairs, vec![(Value::str("b"), Value::str("b"))]);
        assert_eq!(out.value(0, 0), Value::Int(2));
        assert_eq!(out.value(0, 2), Value::Int(10));
    }

    #[test]
    fn null_keys_do_not_join() {
        let left = t(&[(Value::Null, Value::str("l"))], ("k", "lv"));
        let right = t(&[(Value::Null, Value::str("r"))], ("k", "rv"));
        let mut m = ExecMetrics::new();
        let out = hash_join(&left, &right, &[0], &[0], &mut m).unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn key_arity_checked() {
        let left = t(&[(Value::Int(1), Value::str("l"))], ("k", "lv"));
        let right = t(&[(Value::Int(1), Value::str("r"))], ("k", "rv"));
        let mut m = ExecMetrics::new();
        assert!(hash_join(&left, &right, &[0], &[], &mut m).is_err());
        assert!(hash_join(&left, &right, &[], &[], &mut m).is_err());
    }
}
