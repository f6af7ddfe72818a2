//! Row filters (selections).
//!
//! §5.1.1 pushes selections below GROUPING SETS; this operator provides
//! the selection node for those plans and for filtering tagged union-all
//! outputs by `Grp-Tag`.

use crate::error::Result;
use crate::metrics::ExecMetrics;
use gbmqo_storage::{Table, Value};
use std::time::Instant;

/// A simple predicate over one column, with conjunction.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `col = value` (NULL never matches, like SQL `=`).
    Eq(String, Value),
    /// `col <= value`.
    Le(String, Value),
    /// `col >= value`.
    Ge(String, Value),
    /// `col IS NULL`.
    IsNull(String),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// `a AND b`.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// The predicate's conjuncts, sorted and deduplicated, as one text:
    /// two predicates that select the same rows through reordered or
    /// repeated conjuncts read the same, and two that differ in a column,
    /// an operator or a literal (its type included) do not.
    pub fn canonical(&self) -> String {
        fn conjuncts(p: &Predicate, out: &mut Vec<String>) {
            match p {
                Predicate::Eq(col, v) => out.push(format!("{col:?} = {v:?}")),
                Predicate::Le(col, v) => out.push(format!("{col:?} <= {v:?}")),
                Predicate::Ge(col, v) => out.push(format!("{col:?} >= {v:?}")),
                Predicate::IsNull(col) => out.push(format!("{col:?} IS NULL")),
                Predicate::And(a, b) => {
                    conjuncts(a, out);
                    conjuncts(b, out);
                }
            }
        }
        let mut out = Vec::new();
        conjuncts(self, &mut out);
        out.sort_unstable();
        out.dedup();
        out.join(" AND ")
    }

    fn matches(&self, table: &Table, row: usize) -> Result<bool> {
        Ok(match self {
            Predicate::Eq(col, v) => {
                let cv = table.column_by_name(col)?.value(row);
                !cv.is_null() && !v.is_null() && cv == *v
            }
            Predicate::Le(col, v) => {
                let cv = table.column_by_name(col)?.value(row);
                !cv.is_null() && !v.is_null() && cv <= *v
            }
            Predicate::Ge(col, v) => {
                let cv = table.column_by_name(col)?.value(row);
                !cv.is_null() && !v.is_null() && cv >= *v
            }
            Predicate::IsNull(col) => table.column_by_name(col)?.value(row).is_null(),
            Predicate::And(a, b) => a.matches(table, row)? && b.matches(table, row)?,
        })
    }
}

/// Filter `input` by `predicate`, producing a new table.
pub fn filter(input: &Table, predicate: &Predicate, metrics: &mut ExecMetrics) -> Result<Table> {
    let start = Instant::now();
    let mut keep: Vec<u32> = Vec::new();
    for row in 0..input.num_rows() {
        if predicate.matches(input, row)? {
            keep.push(row as u32);
        }
    }
    let out = input.gather(&keep);
    metrics.rows_scanned += input.num_rows() as u64;
    metrics.rows_output += out.num_rows() as u64;
    metrics.add_elapsed(start.elapsed());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{DataType, Field, Schema, TableBuilder};

    fn input() -> Table {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int64),
            Field::new("tag", DataType::Utf8),
        ])
        .unwrap();
        let mut tb = TableBuilder::new(schema);
        for (x, t) in [
            (Value::Int(1), Value::str("a")),
            (Value::Int(2), Value::str("b")),
            (Value::Null, Value::str("a")),
            (Value::Int(4), Value::str("a")),
        ] {
            tb.push_row(&[x, t]).unwrap();
        }
        tb.finish().unwrap()
    }

    #[test]
    fn eq_filter_selects_matching_rows() {
        let t = input();
        let mut m = ExecMetrics::new();
        let out = filter(&t, &Predicate::Eq("tag".into(), Value::str("a")), &mut m).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(m.rows_scanned, 4);
        assert_eq!(m.rows_output, 3);
    }

    #[test]
    fn range_filters_ignore_nulls() {
        let t = input();
        let mut m = ExecMetrics::new();
        let out = filter(&t, &Predicate::Ge("x".into(), Value::Int(2)), &mut m).unwrap();
        assert_eq!(out.num_rows(), 2); // 2 and 4; NULL excluded
        let out = filter(&t, &Predicate::Le("x".into(), Value::Int(1)), &mut m).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn is_null_and_conjunction() {
        let t = input();
        let mut m = ExecMetrics::new();
        let out = filter(&t, &Predicate::IsNull("x".into()), &mut m).unwrap();
        assert_eq!(out.num_rows(), 1);
        let p = Predicate::Eq("tag".into(), Value::str("a"))
            .and(Predicate::Ge("x".into(), Value::Int(2)));
        let out = filter(&t, &p, &mut m).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, 0), Value::Int(4));
    }

    #[test]
    fn missing_column_errors() {
        let t = input();
        let mut m = ExecMetrics::new();
        assert!(filter(&t, &Predicate::IsNull("nope".into()), &mut m).is_err());
    }

    #[test]
    fn canonical_text_ignores_conjunct_order_and_repeats_only() {
        let a = || Predicate::Eq("tag".into(), Value::str("a"));
        let x = |v: Value| Predicate::Ge("x".into(), v);
        let ax = a().and(x(Value::Int(2)));
        assert_eq!(ax.canonical(), x(Value::Int(2)).and(a()).canonical());
        assert_eq!(ax.canonical(), a().and(ax.clone()).canonical());
        assert_ne!(ax.canonical(), a().and(x(Value::Int(3))).canonical());
        assert_ne!(ax.canonical(), a().and(x(Value::str("2"))).canonical());
        assert_ne!(ax.canonical(), a().canonical());
    }
}
