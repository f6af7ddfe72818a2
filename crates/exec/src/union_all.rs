//! UNION ALL with a `Grp-Tag` column.
//!
//! A GROUPING SETS query returns the union-all of its member Group Bys in
//! one result set. §5.1.1 introduces a `Grp-Tag` column "with each tuple
//! that denotes which Group By query it is a result of". This operator
//! builds exactly that result: the schema is the union of all input
//! schemas (missing columns padded with NULL) plus the tag column.

use crate::error::{ExecError, Result};
use crate::metrics::ExecMetrics;
use gbmqo_storage::{ColumnBuilder, DataType, Field, Schema, Table};
use std::time::Instant;

/// Union-all the `(tag, table)` pairs into one tagged result.
pub fn union_all_tagged(
    inputs: &[(&str, &Table)],
    tag_col: &str,
    metrics: &mut ExecMetrics,
) -> Result<Table> {
    let start = Instant::now();

    // Output columns: union of input column names, first-seen order.
    let mut fields: Vec<Field> = Vec::new();
    for (_, t) in inputs {
        for f in t.schema().fields() {
            match fields.iter().find(|g| g.name == f.name) {
                None => fields.push(Field::new(&f.name, f.data_type)),
                Some(g) if g.data_type != f.data_type => {
                    return Err(ExecError::Invalid(format!(
                        "column {} has conflicting types {:?} vs {:?}",
                        f.name, g.data_type, f.data_type
                    )))
                }
                Some(_) => {}
            }
        }
    }
    if fields.iter().any(|f| f.name == tag_col) {
        return Err(ExecError::Invalid(format!(
            "tag column {tag_col} collides with an input column"
        )));
    }

    let total_rows: usize = inputs.iter().map(|(_, t)| t.num_rows()).sum();
    let mut builders: Vec<ColumnBuilder> = fields
        .iter()
        .map(|f| ColumnBuilder::with_capacity(f.data_type, total_rows))
        .collect();
    let mut tag_builder = ColumnBuilder::with_capacity(DataType::Utf8, total_rows);

    for (tag, t) in inputs {
        let mapping: Vec<Option<usize>> = fields
            .iter()
            .map(|f| t.schema().index_of(&f.name).ok())
            .collect();
        for row in 0..t.num_rows() {
            for (b, src) in builders.iter_mut().zip(&mapping) {
                match src {
                    Some(c) => b.push(&t.value(row, *c))?,
                    None => b.push_null(),
                }
            }
            tag_builder.push_str(tag);
        }
    }

    fields.push(Field::not_null(tag_col, DataType::Utf8));
    let mut columns: Vec<_> = builders.into_iter().map(ColumnBuilder::finish).collect();
    columns.push(tag_builder.finish());
    let out = Table::new(Schema::new(fields)?, columns)?;
    metrics.rows_output += out.num_rows() as u64;
    metrics.add_elapsed(start.elapsed());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{TableBuilder, Value};

    fn one_col(name: &str, vals: &[i64]) -> Table {
        let schema = Schema::new(vec![Field::new(name, DataType::Int64)]).unwrap();
        let mut tb = TableBuilder::new(schema);
        for &v in vals {
            tb.push_row(&[Value::Int(v)]).unwrap();
        }
        tb.finish().unwrap()
    }

    #[test]
    fn union_pads_missing_columns_with_null() {
        let a = one_col("a", &[1, 2]);
        let b = one_col("b", &[9]);
        let mut m = ExecMetrics::new();
        let u = union_all_tagged(&[("ga", &a), ("gb", &b)], "grp_tag", &mut m).unwrap();
        assert_eq!(u.num_rows(), 3);
        assert_eq!(u.schema().names(), vec!["a", "b", "grp_tag"]);
        assert_eq!(u.value(0, 0), Value::Int(1));
        assert_eq!(u.value(0, 1), Value::Null);
        assert_eq!(u.value(2, 0), Value::Null);
        assert_eq!(u.value(2, 1), Value::Int(9));
        assert_eq!(u.value(2, 2), Value::str("gb"));
    }

    #[test]
    fn shared_columns_align() {
        let a = one_col("k", &[1]);
        let b = one_col("k", &[2]);
        let mut m = ExecMetrics::new();
        let u = union_all_tagged(&[("x", &a), ("y", &b)], "tag", &mut m).unwrap();
        assert_eq!(u.num_columns(), 2);
        assert_eq!(u.value(1, 0), Value::Int(2));
        assert_eq!(u.value(1, 1), Value::str("y"));
    }

    #[test]
    fn conflicting_types_rejected() {
        let a = one_col("k", &[1]);
        let schema = Schema::new(vec![Field::new("k", DataType::Utf8)]).unwrap();
        let mut tb = TableBuilder::new(schema);
        tb.push_row(&[Value::str("s")]).unwrap();
        let b = tb.finish().unwrap();
        let mut m = ExecMetrics::new();
        assert!(union_all_tagged(&[("x", &a), ("y", &b)], "tag", &mut m).is_err());
    }

    #[test]
    fn tag_collision_rejected() {
        let a = one_col("tag", &[1]);
        let mut m = ExecMetrics::new();
        assert!(union_all_tagged(&[("x", &a)], "tag", &mut m).is_err());
    }

    #[test]
    fn empty_inputs() {
        let mut m = ExecMetrics::new();
        let u = union_all_tagged(&[], "tag", &mut m).unwrap();
        assert_eq!(u.num_rows(), 0);
        assert_eq!(u.schema().names(), vec!["tag"]);
    }
}
