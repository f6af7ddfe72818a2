//! Tables: a schema plus equally-long columns.

use crate::column::{Column, ColumnBuilder};
use crate::error::{Result, StorageError};
use crate::schema::Schema;
use crate::value::Value;
use std::fmt::Write as _;
use std::sync::Arc;

/// An in-memory, columnar table: shared immutably, grown copy-on-write
/// by the catalog that owns it. A clone shares the columns; the one
/// mutation, [`Table::append`], writes in place only while no other
/// handle shares them, so a clone is a snapshot.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Arc<[Column]>,
    num_rows: usize,
}

impl Table {
    /// Create a table; all columns must match the schema arity/type and
    /// share one length.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(StorageError::Malformed(format!(
                "schema has {} fields but {} columns given",
                schema.len(),
                columns.len()
            )));
        }
        let num_rows = columns.first().map_or(0, Column::len);
        for (i, col) in columns.iter().enumerate() {
            if col.len() != num_rows {
                return Err(StorageError::Malformed(format!(
                    "column {i} has {} rows, expected {num_rows}",
                    col.len()
                )));
            }
            if col.data_type() != schema.field(i).data_type {
                return Err(StorageError::Malformed(format!(
                    "column {i} ({}) has type {:?}, schema says {:?}",
                    schema.field(i).name,
                    col.data_type(),
                    schema.field(i).data_type
                )));
            }
        }
        Ok(Table {
            schema,
            columns: columns.into(),
            num_rows,
        })
    }

    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns: Vec<Column> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type).finish())
            .collect();
        Table::new(schema, columns).expect("empty table is consistent")
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column at ordinal `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(self.column(self.schema.index_of(name)?))
    }

    /// Read a single cell.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Total bytes held by the table's columns.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(Column::byte_size).sum()
    }

    /// Average materialized row width in bytes over the given column
    /// ordinals (all columns when `cols` is empty is *not* implied — pass
    /// explicit ordinals).
    pub fn avg_row_width(&self, cols: &[usize]) -> f64 {
        cols.iter()
            .map(|&c| self.columns[c].avg_value_width())
            .sum()
    }

    /// Stored (columnar) row width in bytes over the given column
    /// ordinals — see [`Column::stored_value_width`].
    pub fn stored_row_width(&self, cols: &[usize]) -> f64 {
        cols.iter()
            .map(|&c| self.columns[c].stored_value_width())
            .sum()
    }

    /// Stored (columnar) row width over all columns.
    pub fn stored_total_row_width(&self) -> f64 {
        (0..self.num_columns())
            .map(|c| self.columns[c].stored_value_width())
            .sum()
    }

    /// New table with only the columns at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Table {
        let schema = self.schema.project(indices);
        let columns: Vec<Column> = indices.iter().map(|&i| self.columns[i].clone()).collect();
        Table::new(schema, columns).expect("projection is consistent")
    }

    /// New table with rows selected by `indices`, in order.
    pub fn gather(&self, indices: &[u32]) -> Table {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.gather(indices)).collect();
        Table::new(self.schema.clone(), columns).expect("gather is consistent")
    }

    /// New table holding rows `[start, start + len)` of this one, gathered
    /// in O(len) (string dictionaries are shared, not copied). Errors if
    /// the range exceeds the table.
    pub fn slice_rows(&self, start: usize, len: usize) -> Result<Table> {
        if start + len > self.num_rows {
            return Err(StorageError::Malformed(format!(
                "slice_rows [{start}, {}) exceeds table of {} rows",
                start + len,
                self.num_rows
            )));
        }
        Ok(self.gather(&(start as u32..(start + len) as u32).collect::<Vec<_>>()))
    }

    /// Append `rows` (same schema) to this table. While no clone shares
    /// the columns they grow in place, in O(`rows`) amortised
    /// ([`Column::append`]); otherwise the sharers keep the old columns
    /// untouched and this table pays one copy, made with room for the
    /// delta. A schema mismatch is the only error and leaves the table
    /// unchanged.
    pub fn append(&mut self, rows: &Table) -> Result<()> {
        if self.schema != rows.schema {
            return Err(StorageError::Malformed(format!(
                "append schema mismatch: {:?} vs {:?}",
                rows.schema.names(),
                self.schema.names()
            )));
        }
        match Arc::get_mut(&mut self.columns) {
            Some(columns) => {
                for (column, delta) in columns.iter_mut().zip(rows.columns()) {
                    column.append(delta);
                }
            }
            None => {
                self.columns = self
                    .columns
                    .iter()
                    .zip(rows.columns())
                    .map(|(column, delta)| Column::concat(&[column, delta]))
                    .collect::<Result<_>>()?;
            }
        }
        self.num_rows += rows.num_rows;
        Ok(())
    }

    /// Concatenate same-schema tables into one (the row-wise union of
    /// the parts, in order). This is the columnar fast path shard merges
    /// use instead of rebuilding row by row.
    pub fn concat(parts: &[&Table]) -> Result<Table> {
        let first = parts
            .first()
            .ok_or_else(|| StorageError::Malformed("concat of zero tables".into()))?;
        if let Some(bad) = parts.iter().find(|p| p.schema() != first.schema()) {
            return Err(StorageError::Malformed(format!(
                "concat schema mismatch: {:?} vs {:?}",
                bad.schema().names(),
                first.schema().names()
            )));
        }
        let columns: Vec<Column> = (0..first.num_columns())
            .map(|c| {
                let cols: Vec<&Column> = parts.iter().map(|p| p.column(c)).collect();
                Column::concat(&cols)
            })
            .collect::<Result<_>>()?;
        Table::new(first.schema().clone(), columns)
    }

    /// Render the first `limit` rows as an aligned text block (debugging).
    pub fn display(&self, limit: usize) -> String {
        let mut out = String::new();
        let names = self.schema.names();
        let _ = writeln!(out, "{}", names.join(" | "));
        for row in 0..self.num_rows.min(limit) {
            let cells: Vec<String> = (0..self.num_columns())
                .map(|c| self.value(row, c).to_string())
                .collect();
            let _ = writeln!(out, "{}", cells.join(" | "));
        }
        if self.num_rows > limit {
            let _ = writeln!(out, "... ({} rows total)", self.num_rows);
        }
        out
    }
}

/// A row-at-a-time table builder used by tests, examples and generators.
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    builders: Vec<ColumnBuilder>,
}

impl TableBuilder {
    /// Create a builder for the given schema.
    pub fn new(schema: Schema) -> Self {
        let builders = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type))
            .collect();
        TableBuilder { schema, builders }
    }

    /// Create a builder with per-column capacity reserved.
    pub fn with_capacity(schema: Schema, capacity: usize) -> Self {
        let builders = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::with_capacity(f.data_type, capacity))
            .collect();
        TableBuilder { schema, builders }
    }

    /// Append one row. The slice length must equal the schema arity.
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.builders.len() {
            return Err(StorageError::Malformed(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.builders.len()
            )));
        }
        for (b, v) in self.builders.iter_mut().zip(row) {
            b.push(v)?;
        }
        Ok(())
    }

    /// Mutable access to the builder for column `i` (fast typed pushes).
    pub fn column_builder(&mut self, i: usize) -> &mut ColumnBuilder {
        &mut self.builders[i]
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.builders.first().map_or(0, ColumnBuilder::len)
    }

    /// True if no rows were pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish and produce the table.
    pub fn finish(self) -> Result<Table> {
        let columns: Vec<Column> = self
            .builders
            .into_iter()
            .map(ColumnBuilder::finish)
            .collect();
        Table::new(self.schema, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn sample() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("day", DataType::Date32),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(&[Value::Int(1), Value::str("alice"), Value::Date(10)])
            .unwrap();
        b.push_row(&[Value::Int(2), Value::Null, Value::Date(11)])
            .unwrap();
        b.push_row(&[Value::Int(3), Value::str("bob"), Value::Date(10)])
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn build_and_read_back() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.value(0, 1), Value::str("alice"));
        assert_eq!(t.value(1, 1), Value::Null);
        assert_eq!(t.column_by_name("day").unwrap().value(2), Value::Date(10));
    }

    #[test]
    fn row_arity_checked() {
        let t = sample();
        let mut b = TableBuilder::new(t.schema().clone());
        assert!(b.push_row(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn schema_column_count_checked() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int64)]).unwrap();
        let err = Table::new(schema, vec![]).unwrap_err();
        assert!(matches!(err, StorageError::Malformed(_)));
    }

    #[test]
    fn column_type_checked() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int64)]).unwrap();
        let err = Table::new(schema, vec![Column::from_strs(&["x"])]).unwrap_err();
        assert!(matches!(err, StorageError::Malformed(_)));
    }

    #[test]
    fn ragged_columns_rejected() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let err = Table::new(
            schema,
            vec![Column::from_i64(vec![1, 2]), Column::from_i64(vec![1])],
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::Malformed(_)));
    }

    #[test]
    fn project_and_gather() {
        let t = sample();
        let p = t.project(&[2, 0]);
        assert_eq!(p.schema().names(), vec!["day", "id"]);
        assert_eq!(p.value(0, 0), Value::Date(10));
        let g = t.gather(&[2, 0]);
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.value(0, 0), Value::Int(3));
        assert_eq!(g.value(1, 1), Value::str("alice"));
    }

    #[test]
    fn concat_round_trips_split_rows() {
        let t = sample();
        let a = t.gather(&[0]);
        let b = t.gather(&[1, 2]);
        let c = Table::concat(&[&a, &b]).unwrap();
        assert_eq!(c.num_rows(), 3);
        for r in 0..3 {
            for col in 0..3 {
                assert_eq!(c.value(r, col), t.value(r, col), "row {r} col {col}");
            }
        }
        // schema mismatch is rejected
        let other = Table::empty(Schema::new(vec![Field::new("zzz", DataType::Int64)]).unwrap());
        assert!(Table::concat(&[&t, &other]).is_err());
        assert!(Table::concat(&[]).is_err());
    }

    #[test]
    fn append_grows_in_place_unless_a_clone_shares_the_columns() {
        let mut t = sample();
        let delta = sample().gather(&[2, 1]);
        let columns_at = |t: &Table| t.columns().as_ptr();

        // a clone is a snapshot: the append copies and leaves it alone
        let snapshot = t.clone();
        let shared = columns_at(&t);
        t.append(&delta).unwrap();
        assert_ne!(columns_at(&t), shared);
        assert_eq!(columns_at(&snapshot), shared);
        assert_eq!(snapshot.num_rows(), 3);
        assert_eq!(t.num_rows(), 5);

        // once the holder is gone the columns grow where they are
        drop(snapshot);
        let own = columns_at(&t);
        t.append(&delta).unwrap();
        t.append(&delta).unwrap();
        assert_eq!(columns_at(&t), own);
        assert_eq!(t.num_rows(), 9);
        let want = Table::concat(&[&sample(), &delta, &delta, &delta]).unwrap();
        for r in 0..9 {
            for c in 0..3 {
                assert_eq!(t.value(r, c), want.value(r, c), "row {r} col {c}");
            }
        }

        // a schema mismatch changes nothing
        let other = Table::empty(Schema::new(vec![Field::new("zzz", DataType::Int64)]).unwrap());
        assert!(t.append(&other).is_err());
        assert_eq!(t.num_rows(), 9);
        assert_eq!(columns_at(&t), own);
    }

    #[test]
    fn slice_rows_matches_gather_and_shares_dictionaries() {
        let t = sample();
        let s = t.slice_rows(1, 2).unwrap();
        assert_eq!(s.num_rows(), 2);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(s.value(r, c), t.value(r + 1, c), "row {r} col {c}");
            }
        }
        // nulls survive the slice
        assert_eq!(s.value(0, 1), Value::Null);
        // string slice shares the dictionary with its source
        use crate::column::ColumnData;
        if let (ColumnData::Utf8 { dict: d0, .. }, ColumnData::Utf8 { dict: d1, .. }) =
            (t.column(1).data(), s.column(1).data())
        {
            assert!(std::sync::Arc::ptr_eq(d0, d1));
        } else {
            panic!("expected Utf8 columns");
        }
        // empty and full slices work; out-of-range is rejected
        assert_eq!(t.slice_rows(3, 0).unwrap().num_rows(), 0);
        assert_eq!(t.slice_rows(0, 3).unwrap().num_rows(), 3);
        assert!(t.slice_rows(2, 2).is_err());
    }

    #[test]
    fn empty_table() {
        let t = Table::empty(sample().schema().clone());
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 3);
    }

    #[test]
    fn byte_size_and_width_positive() {
        let t = sample();
        assert!(t.byte_size() > 0);
        assert!(t.avg_row_width(&[0, 2]) > 8.0);
    }

    #[test]
    fn display_truncates() {
        let t = sample();
        let s = t.display(2);
        assert!(s.contains("id | name | day"));
        assert!(s.contains("3 rows total"));
    }
}
