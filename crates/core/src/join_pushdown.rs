//! §5.1.1: GROUPING SETS over a join, with Group By pushdown and the
//! `Grp-Tag` column.
//!
//! For a GROUPING SETS query over `Join(R, S)` on `R.a = S.a` whose
//! grouping columns live in `R`, the paper pushes the grouping below the
//! join: each requested set `s` is computed as `GROUP BY s ∪ {a}` over
//! `R` (our optimizer shares work across those pushed-down queries), the
//! results are UNION ALL'ed with a `Grp-Tag`, joined once with `S`, and
//! the final per-set aggregation above the join filters on the tag.
//!
//! As in the coalescing-grouping transformation the paper cites \[7\],
//! correctness of the final `SUM(cnt)` requires each pushed-down row to
//! match at most one `S` row, i.e. the join column must be a key of `S`
//! (validated here).

use crate::error::{CoreError, Result};
use crate::executor::execute_plan;
use crate::greedy::{GbMqo, SearchConfig};
use crate::physicalize::{physicalize, Layout, Run};
use crate::workload::Workload;
use gbmqo_cost::CardinalityCostModel;
use gbmqo_exec::{filter, union_all_tagged, AggSpec, Engine, Input, Predicate, QueryCtx};
use gbmqo_stats::ExactSource;
use gbmqo_storage::{Table, Value};
use std::sync::Arc;

/// Result of a pushed-down GROUPING SETS over a join: one table per
/// requested grouping set, tagged by the request's column list. The
/// work performed is in the caller's [`QueryCtx`].
#[derive(Debug)]
pub struct JoinGroupingSets {
    /// `(tag, result)` pairs, tag = comma-joined column names.
    pub results: Vec<(String, Table)>,
    /// The tagged union-all below the join (diagnostics; §5.1.1 Figure 8).
    pub tagged_union_rows: usize,
}

/// One dimension of a star join: `fact.fact_key = table.dim_key`, with
/// an optional selection over the dimension (applied *before* the join —
/// for an inner join against a keyed dimension that is equivalent to
/// filtering afterwards, and far cheaper).
#[derive(Debug, Clone, PartialEq)]
pub struct StarDim {
    /// Dimension table name.
    pub table: String,
    /// Join key column on the fact side.
    pub fact_key: String,
    /// Join key column on the dimension side (must be a key — validated).
    pub dim_key: String,
    /// ANDed WHERE conjuncts over this dimension's columns.
    pub filter: Option<Predicate>,
}

/// Where the pushed-down workload reads its fact: the `filtered` fact as
/// one unsharded relation, or the catalog's fact in its shard layout.
fn fact_layout(engine: &Engine, workload: &Workload, filtered: Option<Arc<Table>>) -> Layout {
    match filtered {
        Some(table) => Layout::handed(Input::Table(table)),
        None => Layout::of(engine.catalog(), workload, Default::default()),
    }
}

/// Execute GROUPING SETS `requests` (columns of `left`) over
/// `Join(left, right)` on `left.join_col = right.join_col`, using the
/// GB-MQO optimizer for the pushed-down Group Bys.
pub fn grouping_sets_over_join(
    engine: &Engine,
    left: &str,
    right: &str,
    join_col: &str,
    requests: &[Vec<&str>],
    ctx: &mut QueryCtx,
) -> Result<JoinGroupingSets> {
    let dim = StarDim {
        table: right.to_string(),
        fact_key: join_col.to_string(),
        dim_key: join_col.to_string(),
        filter: None,
    };
    let count = [AggSpec::count()];
    grouping_sets_over_star(engine, left, &[dim], requests, None, &count, ctx)
}

/// The §5.1.1 rewrite generalized to a star: GROUPING SETS `requests`
/// (columns of `fact`) over `fact ⋈ dims[0] ⋈ dims[1] ⋈ …`, each join an
/// equi-join on a key of its dimension.
///
/// Each request `s` is pushed below the joins as
/// `GROUP BY s ∪ {all fact keys}` over the (optionally filtered) fact
/// table — one GB-MQO workload, so the optimizer shares work across the
/// pushed-down queries. The per-set aggregates are UNION ALL'ed with a
/// `Grp-Tag`, joined once per dimension, and re-aggregated per set above
/// the joins with the tag as the selector.
///
/// `aggregates` are the per-set aggregates; over a non-empty `dims` list
/// they must all re-aggregate losslessly through the join (COUNT/SUM —
/// the callers' binder enforces COUNT-only), and the final aggregation
/// applies [`AggSpec::reaggregate`] to each. Every step's work is
/// charged to `ctx`.
pub fn grouping_sets_over_star(
    engine: &Engine,
    fact: &str,
    dims: &[StarDim],
    requests: &[Vec<&str>],
    fact_filter: Option<&Predicate>,
    aggregates: &[AggSpec],
    ctx: &mut QueryCtx,
) -> Result<JoinGroupingSets> {
    // Resolve and validate every dimension before the fact is touched.
    // Arc clones, not deep copies of the tables' columns.
    let mut dim_tables: Vec<Table> = Vec::with_capacity(dims.len());
    for dim in dims {
        let table = engine.catalog().table_arc(&dim.table)?;
        let table = match &dim.filter {
            Some(pred) => filter(&table, pred, &mut ctx.metrics)?,
            None => (*table).clone(),
        };
        let dim_key = table
            .schema()
            .index_of(&dim.dim_key)
            .map_err(CoreError::Storage)?;
        // Key requirement on every dimension (see module docs).
        let keys = engine.aggregate_table(&table, &[dim_key], &[AggSpec::count()], None, ctx)?;
        if keys.num_rows() != table.num_rows() {
            return Err(CoreError::InvalidWorkload(format!(
                "join column {} is not a key of {}",
                dim.dim_key, dim.table
            )));
        }
        dim_tables.push(table);
    }

    // Optionally push the fact-side selection below everything: the
    // filtered fact is materialized once and handed to the pushed-down
    // workload as its base relation.
    let filtered = match fact_filter {
        Some(pred) => {
            let filtered = engine.run_filter(fact, pred, ctx)?;
            engine.materialize(&filtered, ctx);
            Some(Arc::new(filtered))
        }
        None => None,
    };
    let base_table = match &filtered {
        Some(table) => Arc::clone(table),
        None => engine.catalog().table_arc(fact)?,
    };

    // Push down: each request becomes s ∪ {fact keys} over the fact.
    let mut universe: Vec<&str> = Vec::new();
    for dim in dims {
        if !universe.contains(&dim.fact_key.as_str()) {
            universe.push(&dim.fact_key);
        }
    }
    for req in requests {
        for c in req {
            if !universe.contains(c) {
                universe.push(c);
            }
        }
    }
    let pushed: Vec<Vec<&str>> = requests
        .iter()
        .map(|req| {
            let mut v = req.clone();
            for dim in dims {
                if !v.contains(&dim.fact_key.as_str()) {
                    v.push(&dim.fact_key);
                }
            }
            v
        })
        .collect();
    let workload =
        Workload::new(fact, &base_table, &universe, &pushed)?.with_aggregates(aggregates.to_vec());

    // Optimize and execute the pushed-down Group Bys (work sharing!).
    let mut model = CardinalityCostModel::new(ExactSource::new(&base_table));
    let (plan, _) = GbMqo::with_config(SearchConfig::pruned()).plan(&workload, &mut model)?;
    let layout = fact_layout(engine, &workload, filtered);
    let est = Default::default();
    let physical = physicalize(&plan, &workload, &est, &layout, Run::SERIAL, &mut |_| 1.0)?;
    let report = execute_plan(physical, &workload, engine, ctx, &mut Default::default())?;

    let tag_of = |req: &Vec<&str>| req.join(",");
    let find_result = |pushed_req: &Vec<&str>| {
        report
            .results
            .iter()
            .find(|(s, _)| {
                let names = workload.col_names(*s);
                pushed_req.iter().all(|c| names.contains(c)) && names.len() == pushed_req.len()
            })
            .map(|(_, t)| t)
            .expect("result for pushed request")
    };

    // With no dimensions the pushed sets *are* the requests: nothing to
    // join, the per-set aggregates stream out directly.
    if dims.is_empty() {
        let results = requests
            .iter()
            .zip(&pushed)
            .map(|(req, p)| (tag_of(req), find_result(p).clone()))
            .collect();
        return Ok(JoinGroupingSets {
            results,
            tagged_union_rows: 0,
        });
    }

    // Tag + union-all (Figure 8's Union-All below the join).
    let mut tagged: Vec<(String, &Table)> = Vec::new();
    for (req, pushed_req) in requests.iter().zip(&pushed) {
        tagged.push((tag_of(req), find_result(pushed_req)));
    }
    let tagged_refs: Vec<(&str, &Table)> = tagged.iter().map(|(t, tb)| (t.as_str(), *tb)).collect();
    let union = union_all_tagged(&tagged_refs, "grp_tag", &mut ctx.metrics)?;
    let tagged_union_rows = union.num_rows();

    // One join per dimension (each a key join, so row counts only drop).
    let mut joined = union;
    for (dim, dim_table) in dims.iter().zip(&dim_tables) {
        let left_key = joined
            .schema()
            .index_of(&dim.fact_key)
            .map_err(CoreError::Storage)?;
        let right_key = dim_table
            .schema()
            .index_of(&dim.dim_key)
            .map_err(CoreError::Storage)?;
        joined = gbmqo_exec::hash_join(
            &joined,
            dim_table,
            &[left_key],
            &[right_key],
            &mut ctx.metrics,
        )?;
    }

    // Final per-set aggregation above the joins, filtered by Grp-Tag.
    // Each aggregate re-aggregates from its pushed-down partial.
    let final_aggs: Vec<AggSpec> = aggregates.iter().map(AggSpec::reaggregate).collect();
    let mut results = Vec::with_capacity(requests.len());
    for req in requests {
        let tag = tag_of(req);
        let relevant = filter(
            &joined,
            &Predicate::Eq("grp_tag".into(), Value::str(&tag)),
            &mut ctx.metrics,
        )?;
        let cols: Vec<usize> = req
            .iter()
            .map(|c| relevant.schema().index_of(c))
            .collect::<gbmqo_storage::Result<_>>()?;
        let out = engine.aggregate_table(&relevant, &cols, &final_aggs, None, ctx)?;
        results.push((tag, out));
    }

    Ok(JoinGroupingSets {
        results,
        tagged_union_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physicalize::Read;
    use gbmqo_exec::{sort_group_by, ExecMetrics};
    use gbmqo_storage::{Catalog, Column, DataType, Field, Schema, TableBuilder};

    fn setup() -> Engine {
        // R(a, b, c): fact rows; S(a, s): dimension keyed by a.
        let r_schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Int64),
        ])
        .unwrap();
        let r = Table::new(
            r_schema,
            vec![
                Column::from_i64((0..90).map(|i| i % 3).collect()),
                Column::from_i64((0..90).map(|i| i % 5).collect()),
                Column::from_i64((0..90).map(|i| i % 2).collect()),
            ],
        )
        .unwrap();
        let s_schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("s", DataType::Utf8),
        ])
        .unwrap();
        let mut sb = TableBuilder::new(s_schema);
        for i in 0..3i64 {
            sb.push_row(&[Value::Int(i), Value::str(&format!("dim{i}"))])
                .unwrap();
        }
        let s = sb.finish().unwrap();
        let mut cat = Catalog::new();
        cat.register("r", r).unwrap();
        cat.register("s", s).unwrap();
        Engine::new(cat)
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
    fn pushdown_matches_join_then_group() {
        let engine = setup();
        let out = grouping_sets_over_join(
            &engine,
            "r",
            "s",
            "a",
            &[vec!["b"], vec!["c"], vec!["b", "c"]],
            &mut QueryCtx::default(),
        )
        .unwrap();
        assert_eq!(out.results.len(), 3);
        assert!(out.tagged_union_rows > 0);

        // Reference: join first, then group directly.
        let r = engine.catalog().table("r").unwrap().clone();
        let s = engine.catalog().table("s").unwrap().clone();
        let mut m = ExecMetrics::new();
        let joined = gbmqo_exec::hash_join(&r, &s, &[0], &[0], &mut m).unwrap();
        for (tag, table) in &out.results {
            let cols: Vec<usize> = tag
                .split(',')
                .map(|c| joined.schema().index_of(c).unwrap())
                .collect();
            let direct = sort_group_by(&joined, &cols, &[AggSpec::count()], &mut m).unwrap();
            // column order: pushed results group by request order; align by sorting
            assert_eq!(norm(table), norm(&direct), "grouping set {tag}");
        }
    }

    #[test]
    fn non_key_join_column_rejected() {
        let engine = setup();
        // use r as both sides: r.a is not unique
        let err = grouping_sets_over_join(
            &engine,
            "r",
            "r",
            "a",
            &[vec!["b"]],
            &mut QueryCtx::default(),
        );
        assert!(matches!(err, Err(CoreError::InvalidWorkload(_))));
    }

    #[test]
    fn missing_tables_error() {
        let engine = setup();
        assert!(grouping_sets_over_join(
            &engine,
            "ghost",
            "s",
            "a",
            &[vec!["b"]],
            &mut QueryCtx::default()
        )
        .is_err());
    }

    /// R(a, b, c) fact plus two keyed dimensions S(a, s) and D(b, d).
    fn star_setup() -> Engine {
        let mut engine = setup();
        let d_schema = Schema::new(vec![
            Field::new("b", DataType::Int64),
            Field::new("d", DataType::Utf8),
        ])
        .unwrap();
        let mut db = TableBuilder::new(d_schema);
        for i in 0..5i64 {
            db.push_row(&[Value::Int(i), Value::str(&format!("d{i}"))])
                .unwrap();
        }
        engine
            .catalog_mut()
            .register("d", db.finish().unwrap())
            .unwrap();
        engine
    }

    fn star_dims() -> Vec<StarDim> {
        vec![
            StarDim {
                table: "s".into(),
                fact_key: "a".into(),
                dim_key: "a".into(),
                filter: None,
            },
            StarDim {
                table: "d".into(),
                fact_key: "b".into(),
                dim_key: "b".into(),
                filter: None,
            },
        ]
    }

    #[test]
    fn two_dim_star_matches_join_then_group() {
        let engine = star_setup();
        let out = grouping_sets_over_star(
            &engine,
            "r",
            &star_dims(),
            &[vec!["c"], vec!["a", "c"]],
            None,
            &[AggSpec::count()],
            &mut QueryCtx::default(),
        )
        .unwrap();
        assert_eq!(out.results.len(), 2);

        // Reference: join both dims first, then group directly.
        let r = engine.catalog().table("r").unwrap().clone();
        let s = engine.catalog().table("s").unwrap().clone();
        let d = engine.catalog().table("d").unwrap().clone();
        let mut m = ExecMetrics::new();
        let j1 = gbmqo_exec::hash_join(&r, &s, &[0], &[0], &mut m).unwrap();
        let bk = j1.schema().index_of("b").unwrap();
        let joined = gbmqo_exec::hash_join(&j1, &d, &[bk], &[0], &mut m).unwrap();
        for (tag, table) in &out.results {
            let cols: Vec<usize> = tag
                .split(',')
                .map(|c| joined.schema().index_of(c).unwrap())
                .collect();
            let direct = sort_group_by(&joined, &cols, &[AggSpec::count()], &mut m).unwrap();
            assert_eq!(norm(table), norm(&direct), "grouping set {tag}");
        }
    }

    #[test]
    fn fact_filter_pushes_below_the_joins() {
        let engine = star_setup();
        let pred = Predicate::Eq("c".into(), Value::Int(1));
        let out = grouping_sets_over_star(
            &engine,
            "r",
            &star_dims(),
            &[vec!["b"]],
            Some(&pred),
            &[AggSpec::count()],
            &mut QueryCtx::default(),
        )
        .unwrap();

        // Reference: filter, join, group.
        let r = engine.catalog().table("r").unwrap().clone();
        let s = engine.catalog().table("s").unwrap().clone();
        let d = engine.catalog().table("d").unwrap().clone();
        let mut m = ExecMetrics::new();
        let filtered = filter(&r, &pred, &mut m).unwrap();
        let j1 = gbmqo_exec::hash_join(&filtered, &s, &[0], &[0], &mut m).unwrap();
        let bk = j1.schema().index_of("b").unwrap();
        let joined = gbmqo_exec::hash_join(&j1, &d, &[bk], &[0], &mut m).unwrap();
        let direct = sort_group_by(&joined, &[bk], &[AggSpec::count()], &mut m).unwrap();
        assert_eq!(norm(&out.results[0].1), norm(&direct));
        // The filtered fact was the execution's own: nothing was registered.
        assert_eq!(engine.catalog().entries().count(), 3);
    }

    #[test]
    fn dim_filter_applies_before_the_join() {
        let engine = star_setup();
        let dims = vec![StarDim {
            table: "s".into(),
            fact_key: "a".into(),
            dim_key: "a".into(),
            filter: Some(Predicate::Eq("s".into(), Value::str("dim1"))),
        }];
        let out = grouping_sets_over_star(
            &engine,
            "r",
            &dims,
            &[vec!["b"]],
            None,
            &[AggSpec::count()],
            &mut QueryCtx::default(),
        )
        .unwrap();
        // Only fact rows with a = 1 survive the keyed inner join: 30 of
        // 90 rows, spread over the 5 values of b.
        let total: i64 = (0..out.results[0].1.num_rows())
            .map(|r| out.results[0].1.value(r, 1).as_int().unwrap())
            .sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn zero_dims_is_plain_grouping_sets_with_filter() {
        let engine = star_setup();
        let pred = Predicate::Ge("c".into(), Value::Int(1));
        let out = grouping_sets_over_star(
            &engine,
            "r",
            &[],
            &[vec!["a"], vec!["a", "b"]],
            Some(&pred),
            &[AggSpec::count()],
            &mut QueryCtx::default(),
        )
        .unwrap();
        assert_eq!(out.results.len(), 2);
        assert_eq!(out.tagged_union_rows, 0);
        let r = engine.catalog().table("r").unwrap().clone();
        let mut m = ExecMetrics::new();
        let filtered = filter(&r, &pred, &mut m).unwrap();
        let direct = sort_group_by(&filtered, &[0], &[AggSpec::count()], &mut m).unwrap();
        assert_eq!(norm(&out.results[0].1), norm(&direct));
    }

    #[test]
    fn a_filtered_fact_is_one_unsharded_read_of_a_sharded_fact() {
        let r = setup().catalog().table_arc("r").unwrap();
        let mut cat = Catalog::new();
        cat.register_sharded("r", (*r).clone(), 4, Some(vec!["a".into()]))
            .unwrap();
        let engine = Engine::new(cat);
        let w = Workload::single_columns("r", &r, &["a", "b"]).unwrap();
        let plan = crate::plan::LogicalPlan::naive(&w);
        let reads = |filtered: Option<Arc<Table>>| {
            let layout = fact_layout(&engine, &w, filtered);
            let est = Default::default();
            let p = physicalize(&plan, &w, &est, &layout, Run::SERIAL, &mut |_| 1.0).unwrap();
            p.edges().map(|e| e.reads.clone()).collect::<Vec<_>>()
        };
        let filtered = Arc::new(
            filter(
                &r,
                &Predicate::Ge("c".into(), Value::Int(1)),
                &mut ExecMetrics::new(),
            )
            .unwrap(),
        );
        for edge in reads(Some(Arc::clone(&filtered))) {
            assert!(
                matches!(&edge[..], [Read::Base(Input::Table(t))] if Arc::ptr_eq(t, &filtered))
            );
        }
        // Unfiltered, the catalog's fact keeps its shards.
        for edge in reads(None) {
            assert_eq!(edge.len(), 4);
            assert!(edge.iter().all(|read| matches!(read, Read::Shard(_))));
        }
    }
}
