//! CUBE: all 2^k Group Bys over k columns, computed by lattice descent.
//!
//! §7.1 of the paper considers replacing a merged node `(v1 ∪ v2)` with a
//! CUBE query. We compute the full cube the classic way (cf. the partial
//! cube literature the paper cites \[2, 14, 16\]): the finest Group By is
//! computed from the input, and every coarser one is re-aggregated from a
//! smallest already-computed parent one column larger.

use crate::agg::AggSpec;
use crate::engine::{Engine, QueryCtx, Rows};
use crate::error::{ExecError, Result};
use gbmqo_storage::Table;
use rustc_hash::FxHashMap;

/// Maximum cube dimensionality (2^k results are materialized).
pub const MAX_CUBE_COLS: usize = 16;

/// Compute `CUBE(cols)` over `input`: a table, or the rows a
/// selection keeps of it ([`Rows`]).
///
/// Returns one `(mask, table)` pair per subset of `cols`, where bit `i` of
/// `mask` selects `cols[i]`; sorted by descending popcount then ascending
/// mask. The full-set table is computed from `input`; every other subset is
/// re-aggregated from a minimum-cardinality parent. Every Group By of
/// the descent goes through [`Engine::aggregate_table`]: the engine's
/// kernel threads and the request's token and counters.
pub fn cube<'t>(
    engine: &Engine,
    input: impl Into<Rows<'t>>,
    cols: &[usize],
    aggs: &[AggSpec],
    ctx: &mut QueryCtx,
) -> Result<Vec<(u32, Table)>> {
    let k = cols.len();
    if k > MAX_CUBE_COLS {
        return Err(ExecError::Invalid(format!(
            "cube over {k} columns exceeds the {MAX_CUBE_COLS}-column limit"
        )));
    }
    let full: u32 = if k == 32 { u32::MAX } else { (1u32 << k) - 1 };
    let mut results: FxHashMap<u32, Table> = FxHashMap::default();

    let finest = engine.aggregate_table(input, cols, aggs, None, ctx)?;
    results.insert(full, finest);

    let reaggs: Vec<AggSpec> = aggs.iter().map(AggSpec::reaggregate).collect();

    // Visit subsets by decreasing popcount so every parent exists.
    let mut masks: Vec<u32> = (0..=full).collect();
    masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
    for &mask in &masks {
        if mask == full {
            continue;
        }
        // Candidate parents: mask with one extra bit set.
        let mut best: Option<(u32, usize)> = None;
        for bit in 0..k {
            let parent = mask | (1u32 << bit);
            if parent == mask {
                continue;
            }
            if let Some(pt) = results.get(&parent) {
                let rows = pt.num_rows();
                if best.is_none_or(|(_, r)| rows < r) {
                    best = Some((parent, rows));
                }
            }
        }
        let (parent_mask, _) = best.expect("a parent always exists in descent order");
        let parent = &results[&parent_mask];
        // Columns of `mask` within the parent: group columns were laid out
        // in the order of set bits of `parent_mask` over `cols`.
        let parent_positions: Vec<usize> = (0..k).filter(|b| parent_mask >> b & 1 == 1).collect();
        let keep: Vec<usize> = parent_positions
            .iter()
            .enumerate()
            .filter(|(_, &b)| mask >> b & 1 == 1)
            .map(|(i, _)| i)
            .collect();
        let table = engine.aggregate_table(parent, &keep, &reaggs, None, ctx)?;
        results.insert(mask, table);
    }

    let mut out: Vec<(u32, Table)> = results.into_iter().collect();
    out.sort_by_key(|(m, _)| (std::cmp::Reverse(m.count_ones()), *m));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use crate::sort_agg::sort_group_by;
    use gbmqo_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};

    fn engine() -> Engine {
        Engine::new(Catalog::new())
    }

    fn input() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Int64),
        ])
        .unwrap();
        let mut tb = TableBuilder::new(schema);
        for (a, b, c) in [(1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2), (2, 2, 2)] {
            tb.push_row(&[Value::Int(a), Value::Int(b), Value::Int(c)])
                .unwrap();
        }
        tb.finish().unwrap()
    }

    fn norm(t: &Table) -> Vec<(Vec<Value>, i64)> {
        let n = t.num_columns();
        let mut v: Vec<(Vec<Value>, i64)> = (0..t.num_rows())
            .map(|r| {
                (
                    (0..n - 1).map(|c| t.value(r, c)).collect(),
                    t.value(r, n - 1).as_int().unwrap(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn cube_has_all_subsets() {
        let t = input();
        let c = cube(
            &engine(),
            &t,
            &[0, 1, 2],
            &[AggSpec::count()],
            &mut QueryCtx::default(),
        )
        .unwrap();
        assert_eq!(c.len(), 8);
        let masks: Vec<u32> = c.iter().map(|(m, _)| *m).collect();
        let mut sorted = masks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        // first entry is the full set
        assert_eq!(c[0].0, 0b111);
    }

    #[test]
    fn cube_subsets_match_direct_group_bys() {
        let t = input();
        let mut m = ExecMetrics::new();
        let c = cube(
            &engine(),
            &t,
            &[0, 1, 2],
            &[AggSpec::count()],
            &mut QueryCtx::default(),
        )
        .unwrap();
        for (mask, table) in &c {
            let cols: Vec<usize> = (0..3).filter(|b| mask >> b & 1 == 1).collect();
            let direct = sort_group_by(&t, &cols, &[AggSpec::count()], &mut m).unwrap();
            assert_eq!(norm(table), norm(&direct), "mask {mask:b}");
        }
    }

    #[test]
    fn cube_apex_is_grand_total() {
        let t = input();
        let c = cube(
            &engine(),
            &t,
            &[0, 1],
            &[AggSpec::count()],
            &mut QueryCtx::default(),
        )
        .unwrap();
        let apex = &c.iter().find(|(m, _)| *m == 0).unwrap().1;
        assert_eq!(apex.num_rows(), 1);
        assert_eq!(apex.value(0, 0), Value::Int(5));
    }

    #[test]
    fn oversized_cube_rejected() {
        let t = input();
        let cols: Vec<usize> = (0..MAX_CUBE_COLS + 1).map(|i| i % 3).collect();
        assert!(cube(
            &engine(),
            &t,
            &cols,
            &[AggSpec::count()],
            &mut QueryCtx::default()
        )
        .is_err());
    }
}
