//! Aggregate functions and their accumulators.
//!
//! The paper's core problem uses only `COUNT(*)`, re-aggregated as
//! `SUM(cnt)` when a Group By is computed from a materialized intermediate
//! (§5.2). §7.2 extends to `MIN`/`MAX`/`SUM`; all four are implemented,
//! and each re-aggregates correctly from intermediates (`SUM` of sums,
//! `MIN` of mins, `MAX` of maxes).

use crate::error::{ExecError, Result};
use gbmqo_storage::column::ColumnData;
use gbmqo_storage::{Column, ColumnBuilder, DataType, Field, Table};

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows, no input column.
    Count,
    /// `SUM(col)` — also used as `SUM(cnt)` for count re-aggregation.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
}

/// An aggregate specification: function, input column (by name), output
/// column name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input column name; `None` only for `Count`.
    pub input: Option<String>,
    /// Output column name.
    pub output: String,
}

impl AggSpec {
    /// `COUNT(*) AS cnt` — the workhorse of the paper.
    pub fn count() -> Self {
        AggSpec {
            func: AggFunc::Count,
            input: None,
            output: "cnt".to_string(),
        }
    }

    /// `SUM(cnt) AS cnt` — count re-aggregation from an intermediate.
    pub fn sum_count() -> Self {
        AggSpec {
            func: AggFunc::Sum,
            input: Some("cnt".to_string()),
            output: "cnt".to_string(),
        }
    }

    /// `SUM(input) AS output`.
    pub fn sum(input: &str, output: &str) -> Self {
        AggSpec {
            func: AggFunc::Sum,
            input: Some(input.to_string()),
            output: output.to_string(),
        }
    }

    /// `MIN(input) AS output`.
    pub fn min(input: &str, output: &str) -> Self {
        AggSpec {
            func: AggFunc::Min,
            input: Some(input.to_string()),
            output: output.to_string(),
        }
    }

    /// `MAX(input) AS output`.
    pub fn max(input: &str, output: &str) -> Self {
        AggSpec {
            func: AggFunc::Max,
            input: Some(input.to_string()),
            output: output.to_string(),
        }
    }

    /// The re-aggregation spec to use when this aggregate's output is
    /// computed from an intermediate that already holds it:
    /// COUNT → SUM(out), SUM → SUM(out), MIN → MIN(out), MAX → MAX(out).
    pub fn reaggregate(&self) -> AggSpec {
        let func = match self.func {
            AggFunc::Count | AggFunc::Sum => AggFunc::Sum,
            AggFunc::Min => AggFunc::Min,
            AggFunc::Max => AggFunc::Max,
        };
        AggSpec {
            func,
            input: Some(self.output.clone()),
            output: self.output.clone(),
        }
    }
}

/// A running accumulator over group slots.
#[derive(Debug)]
pub(crate) enum Accumulator {
    Count {
        counts: Vec<i64>,
    },
    SumInt {
        col: usize,
        sums: Vec<i64>,
        seen: Vec<bool>,
    },
    SumFloat {
        col: usize,
        sums: Vec<f64>,
        seen: Vec<bool>,
    },
    /// MIN/MAX track the row id of the current best value; output gathers.
    Extreme {
        col: usize,
        is_min: bool,
        best_rows: Vec<Option<u32>>,
    },
}

impl Accumulator {
    /// Resolve a spec against the input table.
    pub(crate) fn build(spec: &AggSpec, input: &Table) -> Result<Self> {
        match spec.func {
            AggFunc::Count => Ok(Accumulator::Count { counts: Vec::new() }),
            AggFunc::Sum => {
                let name = spec.input.as_deref().ok_or_else(|| {
                    ExecError::Invalid("SUM requires an input column".to_string())
                })?;
                let col = input.schema().index_of(name)?;
                match input.column(col).data_type() {
                    DataType::Int64 => Ok(Accumulator::SumInt {
                        col,
                        sums: Vec::new(),
                        seen: Vec::new(),
                    }),
                    DataType::Float64 => Ok(Accumulator::SumFloat {
                        col,
                        sums: Vec::new(),
                        seen: Vec::new(),
                    }),
                    other => Err(ExecError::Invalid(format!(
                        "SUM over non-numeric column {name} ({other:?})"
                    ))),
                }
            }
            AggFunc::Min | AggFunc::Max => {
                let name = spec.input.as_deref().ok_or_else(|| {
                    ExecError::Invalid("MIN/MAX requires an input column".to_string())
                })?;
                let col = input.schema().index_of(name)?;
                Ok(Accumulator::Extreme {
                    col,
                    is_min: spec.func == AggFunc::Min,
                    best_rows: Vec::new(),
                })
            }
        }
    }

    /// Ensure group slot `gid` exists.
    #[inline]
    pub(crate) fn ensure_group(&mut self, gid: usize) {
        match self {
            Accumulator::Count { counts } => {
                if counts.len() <= gid {
                    counts.resize(gid + 1, 0);
                }
            }
            Accumulator::SumInt { sums, seen, .. } => {
                if sums.len() <= gid {
                    sums.resize(gid + 1, 0);
                    seen.resize(gid + 1, false);
                }
            }
            Accumulator::SumFloat { sums, seen, .. } => {
                if sums.len() <= gid {
                    sums.resize(gid + 1, 0.0);
                    seen.resize(gid + 1, false);
                }
            }
            Accumulator::Extreme { best_rows, .. } => {
                if best_rows.len() <= gid {
                    best_rows.resize(gid + 1, None);
                }
            }
        }
    }

    /// Fold row `row` of `input` into group `gid`.
    #[inline]
    pub(crate) fn update(&mut self, input: &Table, gid: usize, row: usize) {
        match self {
            Accumulator::Count { counts } => counts[gid] += 1,
            Accumulator::SumInt { col, sums, seen } => {
                let c = input.column(*col);
                if !c.is_null(row) {
                    if let ColumnData::Int64(v) = c.data() {
                        // saturate instead of wrapping/panicking on overflow
                        sums[gid] = sums[gid].saturating_add(v[row]);
                        seen[gid] = true;
                    }
                }
            }
            Accumulator::SumFloat { col, sums, seen } => {
                let c = input.column(*col);
                if !c.is_null(row) {
                    if let ColumnData::Float64(v) = c.data() {
                        sums[gid] += v[row];
                        seen[gid] = true;
                    }
                }
            }
            Accumulator::Extreme {
                col,
                is_min,
                best_rows,
            } => {
                let c = input.column(*col);
                if c.is_null(row) {
                    return; // SQL MIN/MAX ignore NULLs
                }
                match best_rows[gid] {
                    None => best_rows[gid] = Some(row as u32),
                    Some(best) => {
                        let ord = c.cmp_rows(row, best as usize);
                        let better = if *is_min {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        };
                        if better {
                            best_rows[gid] = Some(row as u32);
                        }
                    }
                }
            }
        }
    }

    /// Resize every group slot vector to exactly `n` groups, creating
    /// empty slots as needed. Batch kernels size the accumulator once
    /// per morsel/partition instead of calling [`Self::ensure_group`]
    /// per row.
    pub(crate) fn resize_groups(&mut self, n: usize) {
        match self {
            Accumulator::Count { counts } => counts.resize(n, 0),
            Accumulator::SumInt { sums, seen, .. } => {
                sums.resize(n, 0);
                seen.resize(n, false);
            }
            Accumulator::SumFloat { sums, seen, .. } => {
                sums.resize(n, 0.0);
                seen.resize(n, false);
            }
            Accumulator::Extreme { best_rows, .. } => best_rows.resize(n, None),
        }
    }

    /// Fold a whole morsel at once: row `rows[i]` of `input` goes to
    /// group `gids[i]`. Semantically `update` in a loop, but the
    /// aggregate kind and input column are resolved **once** and the
    /// inner loops run over typed slices — this is the vectorized path
    /// the radix kernel uses. Callers must have sized the group slots
    /// (e.g. via [`Self::resize_groups`]) to cover every gid.
    pub(crate) fn update_batch(&mut self, input: &Table, rows: &[u32], gids: &[u32]) {
        debug_assert_eq!(rows.len(), gids.len());
        match self {
            Accumulator::Count { counts } => {
                for &gid in gids {
                    counts[gid as usize] += 1;
                }
            }
            Accumulator::SumInt { col, sums, seen } => {
                let c = input.column(*col);
                if let ColumnData::Int64(v) = c.data() {
                    match c.validity() {
                        None => {
                            for (&row, &gid) in rows.iter().zip(gids.iter()) {
                                let g = gid as usize;
                                sums[g] = sums[g].saturating_add(v[row as usize]);
                                seen[g] = true;
                            }
                        }
                        Some(valid) => {
                            for (&row, &gid) in rows.iter().zip(gids.iter()) {
                                if valid.get(row as usize) {
                                    let g = gid as usize;
                                    sums[g] = sums[g].saturating_add(v[row as usize]);
                                    seen[g] = true;
                                }
                            }
                        }
                    }
                }
            }
            Accumulator::SumFloat { col, sums, seen } => {
                let c = input.column(*col);
                if let ColumnData::Float64(v) = c.data() {
                    match c.validity() {
                        None => {
                            for (&row, &gid) in rows.iter().zip(gids.iter()) {
                                let g = gid as usize;
                                sums[g] += v[row as usize];
                                seen[g] = true;
                            }
                        }
                        Some(valid) => {
                            for (&row, &gid) in rows.iter().zip(gids.iter()) {
                                if valid.get(row as usize) {
                                    let g = gid as usize;
                                    sums[g] += v[row as usize];
                                    seen[g] = true;
                                }
                            }
                        }
                    }
                }
            }
            Accumulator::Extreme {
                col,
                is_min,
                best_rows,
            } => {
                let c = input.column(*col);
                let valid = c.validity();
                let is_min = *is_min;
                // `lt(a, b)` = "a orders strictly before b"; MIN replaces
                // when the candidate is less, MAX when the incumbent is.
                macro_rules! extreme_scan {
                    ($vals:expr, $lt:expr) => {{
                        let vals = $vals;
                        let lt = $lt;
                        for (&row, &gid) in rows.iter().zip(gids.iter()) {
                            let r = row as usize;
                            if valid.is_some_and(|b| !b.get(r)) {
                                continue; // SQL MIN/MAX ignore NULLs
                            }
                            let slot = &mut best_rows[gid as usize];
                            match *slot {
                                None => *slot = Some(row),
                                Some(best) => {
                                    let b = best as usize;
                                    let replace = if is_min {
                                        lt(r, b, vals)
                                    } else {
                                        lt(b, r, vals)
                                    };
                                    if replace {
                                        *slot = Some(row);
                                    }
                                }
                            }
                        }
                    }};
                }
                match c.data() {
                    ColumnData::Int64(v) => {
                        extreme_scan!(v.as_slice(), |i: usize, j: usize, v: &[i64]| v[i] < v[j])
                    }
                    ColumnData::Date32(v) => {
                        extreme_scan!(v.as_slice(), |i: usize, j: usize, v: &[i32]| v[i] < v[j])
                    }
                    ColumnData::Float64(v) => {
                        extreme_scan!(v.as_slice(), |i: usize, j: usize, v: &[f64]| v[i]
                            .total_cmp(&v[j])
                            == std::cmp::Ordering::Less)
                    }
                    ColumnData::Utf8 { codes, dict } => {
                        extreme_scan!(codes.as_slice(), |i: usize, j: usize, v: &[u32]| {
                            v[i] != v[j] && dict.get(v[i]) < dict.get(v[j])
                        })
                    }
                }
            }
        }
    }

    /// Append `other`'s group slots after this accumulator's own.
    ///
    /// Valid only when the two accumulators hold **disjoint** group sets
    /// (e.g. different radix partitions of the same input): merging is
    /// then pure concatenation, gid `g` of `other` becoming
    /// `self.len + g`. Both sides must be exactly sized (see
    /// [`Self::resize_groups`]).
    pub(crate) fn merge_disjoint(&mut self, other: Accumulator) {
        match (self, other) {
            (Accumulator::Count { counts }, Accumulator::Count { counts: o }) => counts.extend(o),
            (
                Accumulator::SumInt { sums, seen, .. },
                Accumulator::SumInt {
                    sums: os,
                    seen: osn,
                    ..
                },
            ) => {
                sums.extend(os);
                seen.extend(osn);
            }
            (
                Accumulator::SumFloat { sums, seen, .. },
                Accumulator::SumFloat {
                    sums: os,
                    seen: osn,
                    ..
                },
            ) => {
                sums.extend(os);
                seen.extend(osn);
            }
            (Accumulator::Extreme { best_rows, .. }, Accumulator::Extreme { best_rows: o, .. }) => {
                best_rows.extend(o)
            }
            _ => unreachable!("merge_disjoint across different accumulator kinds"),
        }
    }

    /// Produce the output column (and its field) for `num_groups` groups.
    pub(crate) fn finish(
        self,
        spec: &AggSpec,
        input: &Table,
        num_groups: usize,
    ) -> (Field, Column) {
        match self {
            Accumulator::Count { mut counts } => {
                counts.resize(num_groups, 0);
                (
                    Field::not_null(&spec.output, DataType::Int64),
                    Column::from_i64(counts),
                )
            }
            Accumulator::SumInt {
                mut sums, mut seen, ..
            } => {
                sums.resize(num_groups, 0);
                seen.resize(num_groups, false);
                if seen.iter().all(|&s| s) {
                    (
                        Field::not_null(&spec.output, DataType::Int64),
                        Column::from_i64(sums),
                    )
                } else {
                    let mut b = ColumnBuilder::new(DataType::Int64);
                    for (s, ok) in sums.into_iter().zip(seen) {
                        if ok {
                            b.push_i64(s);
                        } else {
                            b.push_null();
                        }
                    }
                    (Field::new(&spec.output, DataType::Int64), b.finish())
                }
            }
            Accumulator::SumFloat {
                mut sums, mut seen, ..
            } => {
                sums.resize(num_groups, 0.0);
                seen.resize(num_groups, false);
                let mut b = ColumnBuilder::new(DataType::Float64);
                for (s, ok) in sums.into_iter().zip(seen) {
                    if ok {
                        b.push_f64(s);
                    } else {
                        b.push_null();
                    }
                }
                (Field::new(&spec.output, DataType::Float64), b.finish())
            }
            Accumulator::Extreme {
                col, mut best_rows, ..
            } => {
                best_rows.resize(num_groups, None);
                let c = input.column(col);
                let dt = c.data_type();
                let mut b = ColumnBuilder::new(dt);
                for best in best_rows {
                    match best {
                        Some(r) => {
                            let v = c.value(r as usize);
                            b.push(&v).expect("same column type");
                        }
                        None => b.push_null(),
                    }
                }
                (Field::new(&spec.output, dt), b.finish())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{Schema, Value};

    fn input() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("x", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ])
        .unwrap();
        let mut tb = gbmqo_storage::TableBuilder::new(schema);
        for (k, x, f, s) in [
            (1i64, 10i64, 1.5f64, "b"),
            (1, 20, 2.5, "a"),
            (2, 5, 0.5, "z"),
        ] {
            tb.push_row(&[Value::Int(k), Value::Int(x), Value::Float(f), Value::str(s)])
                .unwrap();
        }
        tb.finish().unwrap()
    }

    fn run(spec: AggSpec, t: &Table, groups: &[(usize, &[usize])]) -> Column {
        let mut acc = Accumulator::build(&spec, t).unwrap();
        for (gid, rows) in groups {
            acc.ensure_group(*gid);
            for &r in *rows {
                acc.update(t, *gid, r);
            }
        }
        let n = groups.len();
        acc.finish(&spec, t, n).1
    }

    #[test]
    fn count_counts() {
        let t = input();
        let c = run(AggSpec::count(), &t, &[(0, &[0, 1]), (1, &[2])]);
        assert_eq!(c.value(0), Value::Int(2));
        assert_eq!(c.value(1), Value::Int(1));
    }

    #[test]
    fn sum_int_and_float() {
        let t = input();
        let c = run(AggSpec::sum("x", "sx"), &t, &[(0, &[0, 1]), (1, &[2])]);
        assert_eq!(c.value(0), Value::Int(30));
        assert_eq!(c.value(1), Value::Int(5));
        let c = run(AggSpec::sum("f", "sf"), &t, &[(0, &[0, 1]), (1, &[2])]);
        assert_eq!(c.value(0), Value::Float(4.0));
        assert_eq!(c.value(1), Value::Float(0.5));
    }

    #[test]
    fn min_max_including_strings() {
        let t = input();
        let c = run(AggSpec::min("s", "m"), &t, &[(0, &[0, 1]), (1, &[2])]);
        assert_eq!(c.value(0), Value::str("a"));
        assert_eq!(c.value(1), Value::str("z"));
        let c = run(AggSpec::max("x", "m"), &t, &[(0, &[0, 1]), (1, &[2])]);
        assert_eq!(c.value(0), Value::Int(20));
    }

    #[test]
    fn sum_over_strings_rejected() {
        let t = input();
        assert!(Accumulator::build(&AggSpec::sum("s", "bad"), &t).is_err());
        assert!(Accumulator::build(&AggSpec::sum("missing", "bad"), &t).is_err());
    }

    #[test]
    fn null_handling() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
        let mut tb = gbmqo_storage::TableBuilder::new(schema);
        tb.push_row(&[Value::Null]).unwrap();
        tb.push_row(&[Value::Int(3)]).unwrap();
        let t = tb.finish().unwrap();
        // group 0: only NULL → SUM is NULL, MIN is NULL; group 1: 3
        let c = run(AggSpec::sum("x", "s"), &t, &[(0, &[0]), (1, &[1])]);
        assert_eq!(c.value(0), Value::Null);
        assert_eq!(c.value(1), Value::Int(3));
        let c = run(AggSpec::min("x", "m"), &t, &[(0, &[0]), (1, &[1])]);
        assert_eq!(c.value(0), Value::Null);
        assert_eq!(c.value(1), Value::Int(3));
    }

    #[test]
    fn sum_saturates_instead_of_overflowing() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
        let mut tb = gbmqo_storage::TableBuilder::new(schema);
        tb.push_row(&[Value::Int(i64::MAX)]).unwrap();
        tb.push_row(&[Value::Int(i64::MAX)]).unwrap();
        let t = tb.finish().unwrap();
        let c = run(AggSpec::sum("x", "s"), &t, &[(0, &[0, 1])]);
        assert_eq!(c.value(0), Value::Int(i64::MAX));
    }

    #[test]
    fn reaggregation_specs() {
        assert_eq!(AggSpec::count().reaggregate(), AggSpec::sum_count());
        assert_eq!(
            AggSpec::sum("x", "sx").reaggregate(),
            AggSpec::sum("sx", "sx")
        );
        assert_eq!(AggSpec::min("x", "m").reaggregate(), AggSpec::min("m", "m"));
        assert_eq!(AggSpec::max("x", "m").reaggregate(), AggSpec::max("m", "m"));
    }
}
