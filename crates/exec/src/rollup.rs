//! ROLLUP: the hierarchy of Group Bys `(c1..ck), (c1..ck-1), …, ()`.
//!
//! §7.1 of the paper considers replacing a merged node with a ROLLUP query.
//! Each level is computed by re-aggregating the previous (finer) level, so
//! the whole hierarchy costs little more than the finest Group By.

use crate::agg::AggSpec;
use crate::engine::{Engine, QueryCtx, Rows};
use crate::error::Result;
use gbmqo_storage::Table;

/// Compute `ROLLUP(cols)` over `input`: a table, or the rows a
/// selection keeps of it ([`Rows`]).
///
/// Returns one table per level, finest first: index 0 groups by all of
/// `cols`, index `k` by `cols[..cols.len()-k]`, and the last entry is the
/// grand total (empty grouping). Aggregates in levels below the finest are
/// the re-aggregations of `aggs`. Every level, the finest one over the
/// whole input included, goes through [`Engine::aggregate_table`]: the
/// engine's kernel threads and the request's token and counters.
///
/// Follows this engine's GROUP BY convention that an empty input produces
/// empty results at every level — including the grand total, where SQL's
/// `ROLLUP` would emit a single `COUNT(*) = 0` row.
pub fn rollup<'t>(
    engine: &Engine,
    input: impl Into<Rows<'t>>,
    cols: &[usize],
    aggs: &[AggSpec],
    ctx: &mut QueryCtx,
) -> Result<Vec<Table>> {
    let mut levels = Vec::with_capacity(cols.len() + 1);
    let finest = engine.aggregate_table(input, cols, aggs, None, ctx)?;
    levels.push(finest);

    let reaggs: Vec<AggSpec> = aggs.iter().map(AggSpec::reaggregate).collect();
    for level in (0..cols.len()).rev() {
        let prev = levels.last().expect("at least the finest level");
        // The previous level's schema lays out group columns first, in the
        // order of `cols`; the next level keeps the first `level` of them.
        let keep: Vec<usize> = (0..level).collect();
        let next = engine.aggregate_table(prev, &keep, &reaggs, None, ctx)?;
        levels.push(next);
    }
    Ok(levels)
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
        ])
        .unwrap();
        let mut tb = TableBuilder::new(schema);
        for (a, b) in [(1, 1), (1, 2), (2, 1), (1, 1)] {
            tb.push_row(&[Value::Int(a), Value::Int(b)]).unwrap();
        }
        tb.finish().unwrap()
    }

    #[test]
    fn rollup_levels_have_expected_shapes() {
        let t = input();
        let levels = rollup(
            &engine(),
            &t,
            &[0, 1],
            &[AggSpec::count()],
            &mut QueryCtx::default(),
        )
        .unwrap();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0].num_rows(), 3); // (1,1),(1,2),(2,1)
        assert_eq!(levels[1].num_rows(), 2); // a=1, a=2
        assert_eq!(levels[2].num_rows(), 1); // grand total
        assert_eq!(levels[2].value(0, 0), Value::Int(4));
    }

    #[test]
    fn rollup_counts_match_direct_group_bys() {
        let t = input();
        let mut m = ExecMetrics::new();
        let levels = rollup(
            &engine(),
            &t,
            &[0, 1],
            &[AggSpec::count()],
            &mut QueryCtx::default(),
        )
        .unwrap();
        let direct_a = sort_group_by(&t, &[0], &[AggSpec::count()], &mut m).unwrap();
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
        assert_eq!(norm(&levels[1]), norm(&direct_a));
    }

    #[test]
    fn rollup_single_column() {
        let t = input();
        let levels = rollup(
            &engine(),
            &t,
            &[1],
            &[AggSpec::count()],
            &mut QueryCtx::default(),
        )
        .unwrap();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].num_rows(), 2);
        assert_eq!(levels[1].num_rows(), 1);
    }
}
