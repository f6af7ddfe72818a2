//! Selections (§5.1.1 pushes them below GROUPING SETS): conjunctions
//! of column predicates ([`Predicate`]) and of key-membership tests
//! against keyed dimensions ([`SemiJoin`]). A star join whose every
//! dimension is joined on its key and contributes no column keeps each
//! fact row at most once and adds nothing to it: it is such a selection
//! of the fact, and [`select`] evaluates it in one pass.

use crate::error::{ExecError, Result};
use crate::metrics::ExecMetrics;
use gbmqo_storage::column::ColumnData;
use gbmqo_storage::{Bitmap, Column, Snapshot, Table, Value};
use rustc_hash::FxHashSet;
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

/// A semi-join with a keyed dimension as a selection conjunct: a row
/// passes when its value in `column` equals a non-NULL `key` value of
/// the dimension rows `filter` keeps. The key may not repeat among them.
#[derive(Debug, Clone, Copy)]
pub struct SemiJoin<'a> {
    /// The selected table's join column.
    pub column: &'a str,
    /// The dimension.
    pub dim: &'a Snapshot,
    /// The dimension's key column.
    pub key: &'a str,
    /// The dimension's own selection, applied before its keys are read.
    pub filter: Option<&'a Predicate>,
}

/// The rows of `input`, ascending, that pass `predicate` (every row
/// when `None`) and every semi-join in `joins`, or `None` when every row
/// passes. A join whose two columns differ in type, or whose dimension
/// repeats a key, is [`ExecError::Invalid`].
pub fn select(
    input: &Table,
    predicate: Option<&Predicate>,
    joins: &[SemiJoin],
    metrics: &mut ExecMetrics,
) -> Result<Option<Vec<u32>>> {
    let start = Instant::now();
    let mut rows = matching(input, predicate)?;
    for join in joins {
        let column = input.column_by_name(join.column)?;
        rows = Keys::of(join, column)?.keep(column, rows);
    }
    let rows = rows.filter(|rows| rows.len() < input.num_rows());
    metrics.rows_scanned += input.num_rows() as u64;
    metrics.rows_output += rows.as_ref().map_or(input.num_rows(), Vec::len) as u64;
    metrics.add_elapsed(start.elapsed());
    Ok(rows)
}

/// Filter `input` by `predicate`, producing a new table.
pub fn filter(input: &Table, predicate: &Predicate, metrics: &mut ExecMetrics) -> Result<Table> {
    Ok(match select(input, Some(predicate), &[], metrics)? {
        Some(rows) => input.gather(&rows),
        None => input.clone(),
    })
}

/// The rows of `table` that pass `predicate`; `None` (every row) when
/// there is no predicate.
fn matching(table: &Table, predicate: Option<&Predicate>) -> Result<Option<Vec<u32>>> {
    let Some(predicate) = predicate else {
        return Ok(None);
    };
    let mut keep = Vec::new();
    for row in 0..table.num_rows() {
        if predicate.matches(table, row)? {
            keep.push(row as u32);
        }
    }
    Ok(Some(keep))
}

/// Bits a dense key set may spend per key before a hash set is cheaper.
/// On a dense 100-key dimension the bit set's test beats the hash set's
/// by more than their spread (EXPERIMENTS.md, "A star join is a
/// semi-join": 5.2 against 8.8 ms for a 1M-row repeat request on a
/// 2-core VM).
const DENSE_BITS_PER_KEY: i128 = 64;

/// A dimension's keys, typed for the membership test: integers, dates
/// and floats as [`int_key`]s, in a bit set over their range when it is
/// dense and in a hash set otherwise; strings by value.
enum Keys<'a> {
    Dense { min: i64, bits: Bitmap },
    Hashed(FxHashSet<i64>),
    Strs(FxHashSet<&'a str>),
}

impl<'a> Keys<'a> {
    /// The keys `join` tests `column` against.
    fn of(join: &SemiJoin<'a>, column: &Column) -> Result<Self> {
        let dim = join.dim.table.as_ref();
        let keys = dim.column_by_name(join.key)?;
        let named = |what: &str| {
            let (dim, key) = (&join.dim.name, join.key);
            ExecError::Invalid(format!("join column {key} {what} {dim}"))
        };
        if keys.data_type() != column.data_type() {
            return Err(named(&format!("differs in type from {} in", join.column)));
        }
        let rows = matching(dim, join.filter)?;
        let rows = rows.unwrap_or_else(|| (0..dim.num_rows() as u32).collect());
        let valid = rows.into_iter().map(|r| r as usize);
        let valid = valid.filter(|&r| !keys.is_null(r));
        if let ColumnData::Utf8 { codes, dict } = keys.data() {
            let mut set = FxHashSet::default();
            for r in valid {
                if !set.insert(&**dict.get(codes[r])) {
                    return Err(named("is not a key of"));
                }
            }
            return Ok(Keys::Strs(set));
        }
        let ints: Vec<i64> = valid.map(|r| int_key(keys.data(), r)).collect();
        let (Some(&min), Some(&max)) = (ints.iter().min(), ints.iter().max()) else {
            return Ok(Keys::Hashed(FxHashSet::default()));
        };
        let span = i128::from(max) - i128::from(min) + 1;
        if span <= DENSE_BITS_PER_KEY * ints.len() as i128 {
            let mut bits = Bitmap::filled(span as usize, false);
            for k in ints {
                let i = k.wrapping_sub(min) as u64 as usize;
                if bits.get(i) {
                    return Err(named("is not a key of"));
                }
                bits.set(i, true);
            }
            return Ok(Keys::Dense { min, bits });
        }
        let mut set = FxHashSet::with_capacity_and_hasher(ints.len(), Default::default());
        for k in ints {
            if !set.insert(k) {
                return Err(named("is not a key of"));
            }
        }
        Ok(Keys::Hashed(set))
    }

    /// The `rows` (every row when `None`) whose `column` value is one of
    /// the keys; its type is the keys' type, checked by [`Keys::of`].
    fn keep(&self, column: &Column, rows: Option<Vec<u32>>) -> Option<Vec<u32>> {
        match (self, column.data()) {
            (Keys::Strs(keys), ColumnData::Utf8 { codes, dict }) => {
                let mut member = vec![false; dict.len()];
                for code in keys.iter().filter_map(|k| dict.code_of(k)) {
                    member[code as usize] = true;
                }
                keep_valid(column, rows, |r| member[codes[r] as usize])
            }
            (_, ColumnData::Int64(v)) => self.keep_ints(column, rows, |r| v[r]),
            (_, ColumnData::Date32(v)) => self.keep_ints(column, rows, |r| i64::from(v[r])),
            (_, data) => self.keep_ints(column, rows, |r| int_key(data, r)),
        }
    }

    fn keep_ints(
        &self,
        column: &Column,
        rows: Option<Vec<u32>>,
        key: impl Fn(usize) -> i64,
    ) -> Option<Vec<u32>> {
        match self {
            Keys::Dense { min, bits } => keep_valid(column, rows, |r| {
                let i = key(r).wrapping_sub(*min) as u64;
                i < bits.len() as u64 && bits.get(i as usize)
            }),
            Keys::Hashed(set) => keep_valid(column, rows, |r| set.contains(&key(r))),
            Keys::Strs(_) => unreachable!("string keys meet only string columns"),
        }
    }
}

/// The `rows` of `column` (every row when `None`) that are non-NULL
/// `member`s, or `None` when that is every row. Nothing is written until
/// the first row fails.
fn keep_valid(
    column: &Column,
    rows: Option<Vec<u32>>,
    member: impl Fn(usize) -> bool,
) -> Option<Vec<u32>> {
    let valid = column.validity();
    let member = |r: usize| valid.is_none_or(|v| v.get(r)) && member(r);
    let Some(mut rows) = rows else {
        let n = column.len() as u32;
        let first_out = (0..n).find(|&r| !member(r as usize))?;
        let mut rows: Vec<u32> = (0..first_out).collect();
        rows.extend((first_out + 1..n).filter(|&r| member(r as usize)));
        return Some(rows);
    };
    rows.retain(|&r| member(r as usize));
    Some(rows)
}

/// A non-string key as an `i64`: the integer, the date's day number, or
/// the float's bits with -0.0 read as 0.0 — the equality
/// [`Column::encode_key`] gives [`crate::hash_join`].
fn int_key(data: &ColumnData, row: usize) -> i64 {
    match data {
        ColumnData::Int64(v) => v[row],
        ColumnData::Date32(v) => i64::from(v[row]),
        ColumnData::Float64(v) if v[row] == 0.0 => 0,
        ColumnData::Float64(v) => v[row].to_bits() as i64,
        ColumnData::Utf8 { .. } => unreachable!("strings are keyed by value"),
    }
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

    /// A one-column table `k` holding `values`.
    fn keys(data_type: DataType, values: &[Value]) -> Table {
        let mut tb = TableBuilder::new(Schema::new(vec![Field::new("k", data_type)]).unwrap());
        for v in values {
            tb.push_row(std::slice::from_ref(v)).unwrap();
        }
        tb.finish().unwrap()
    }

    fn dim(table: Table) -> Snapshot {
        Snapshot::derived("dim".into(), 1, table, vec![("dim".into(), 1)])
    }

    fn semi_join(fact: &Table, dim: &Snapshot, filter: Option<&Predicate>) -> Result<Vec<u32>> {
        let join = SemiJoin {
            column: "k",
            dim,
            key: "k",
            filter,
        };
        let rows = select(fact, None, &[join], &mut ExecMetrics::new())?;
        Ok(rows.unwrap_or_else(|| (0..fact.num_rows() as u32).collect()))
    }

    #[test]
    fn a_semi_join_keeps_the_rows_whose_key_the_dimension_holds() {
        let ints = |v: &[Option<i64>]| -> Vec<Value> {
            v.iter()
                .map(|x| x.map_or(Value::Null, Value::Int))
                .collect()
        };
        let fact = keys(
            DataType::Int64,
            &ints(&[Some(3), None, Some(7), Some(-2), Some(3)]),
        );
        // Dense (a bit set over -2..=3) and sparse (a hash set) key sets
        // agree; a NULL key matches nothing on either side.
        for dim_keys in [
            ints(&[Some(3), Some(-2), None]),
            ints(&[Some(3), Some(-2), Some(i64::MAX)]),
        ] {
            let d = dim(keys(DataType::Int64, &dim_keys));
            assert_eq!(semi_join(&fact, &d, None).unwrap(), [0, 3, 4]);
        }
        let empty = dim(keys(DataType::Int64, &[]));
        assert!(semi_join(&fact, &empty, None).unwrap().is_empty());
        // A selection that keeps every row says so instead of listing them.
        let all = dim(keys(DataType::Int64, &ints(&[Some(3), Some(7), Some(-2)])));
        let join = SemiJoin {
            column: "k",
            dim: &all,
            key: "k",
            filter: None,
        };
        let no_nulls = filter(
            &fact,
            &Predicate::Ge("k".into(), Value::Int(-9)),
            &mut ExecMetrics::new(),
        );
        let rows = select(&no_nulls.unwrap(), None, &[join], &mut ExecMetrics::new());
        assert_eq!(rows.unwrap(), None);
        // The dimension's filter applies before its keys are read.
        let d = dim(keys(DataType::Int64, &ints(&[Some(3), Some(7)])));
        let from_5 = Predicate::Ge("k".into(), Value::Int(5));
        assert_eq!(semi_join(&fact, &d, Some(&from_5)).unwrap(), [2]);
    }

    #[test]
    fn strings_floats_and_dates_match_by_value() {
        // Two tables, two dictionaries: strings match by text.
        let fact = keys(
            DataType::Utf8,
            &[Value::str("b"), Value::str("a"), Value::Null],
        );
        let d = dim(keys(DataType::Utf8, &[Value::str("a"), Value::str("z")]));
        assert_eq!(semi_join(&fact, &d, None).unwrap(), [1]);
        let fact = keys(DataType::Float64, &[Value::Float(-0.0), Value::Float(1.5)]);
        let d = dim(keys(DataType::Float64, &[Value::Float(0.0)]));
        assert_eq!(semi_join(&fact, &d, None).unwrap(), [0]);
        let fact = keys(DataType::Date32, &[Value::Date(9), Value::Date(10)]);
        let d = dim(keys(DataType::Date32, &[Value::Date(10)]));
        assert_eq!(semi_join(&fact, &d, None).unwrap(), [1]);
    }

    #[test]
    fn a_repeated_key_or_a_type_mismatch_is_invalid() {
        let fact = keys(DataType::Int64, &[Value::Int(1)]);
        for repeated in [
            keys(DataType::Int64, &[Value::Int(1), Value::Int(1)]),
            keys(
                DataType::Int64,
                &[Value::Int(1), Value::Int(1 << 40), Value::Int(1)],
            ),
        ] {
            let err = semi_join(&fact, &dim(repeated), None).unwrap_err();
            assert!(err.to_string().contains("is not a key of dim"), "{err}");
        }
        let strs = keys(DataType::Utf8, &[Value::str("x"), Value::str("x")]);
        let err = semi_join(&keys(DataType::Utf8, &[]), &dim(strs), None);
        assert!(matches!(err, Err(ExecError::Invalid(_))));
        let floats = dim(keys(DataType::Float64, &[Value::Float(1.0)]));
        let err = semi_join(&fact, &floats, None).unwrap_err();
        assert!(err.to_string().contains("differs in type"), "{err}");
    }
}
