//! §5.1.1: GROUPING SETS over a join, with Group By pushdown and the
//! `Grp-Tag` column.
//!
//! For a GROUPING SETS query over `Join(R, S)` on `R.a = S.a` whose
//! grouping columns live in `R`, the paper pushes the grouping below the
//! join: each requested set `s` is computed as `GROUP BY s ∪ {a}` over
//! `R`, the results are UNION ALL'ed with a `Grp-Tag`, joined once with
//! `S`, and the final per-set aggregation above the join filters on the
//! tag. The pushed-down Group Bys are one GB-MQO workload, which the
//! [`Session`] plans and runs like any other: its plan cache, statistics
//! and aggregate cache apply.
//!
//! As in the coalescing-grouping transformation the paper cites \[7\],
//! correctness of the final `SUM(cnt)` requires each pushed-down row to
//! match at most one `S` row, i.e. the join column must be a key of `S`
//! (validated here).

use crate::error::{CoreError, Result};
use crate::greedy::SearchStats;
use crate::session::Session;
use crate::workload::Workload;
use gbmqo_exec::{filter, union_all_tagged, AggSpec, Predicate, QueryCtx};
use gbmqo_matcache::CacheControl;
use gbmqo_storage::{Table, Value};

/// Result of a pushed-down GROUPING SETS over a join: one table per
/// requested grouping set, tagged by the request's column list. The
/// work performed is in the caller's [`QueryCtx`].
#[derive(Debug)]
pub struct JoinGroupingSets {
    /// `(tag, result)` pairs, tag = comma-joined column names.
    pub results: Vec<(String, Table)>,
    /// The tagged union-all below the join (diagnostics; §5.1.1 Figure 8).
    pub tagged_union_rows: usize,
    /// How the session planned the pushed-down workload (a plan-cache
    /// hit makes no optimizer call).
    pub stats: SearchStats,
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

/// The §5.1.1 rewrite generalized to a star: GROUPING SETS `requests`
/// (columns of `fact`) over `fact ⋈ dims[0] ⋈ dims[1] ⋈ …`, each join an
/// equi-join on a key of its dimension.
///
/// Each request `s` is pushed below the joins as
/// `GROUP BY s ∪ {all fact keys}` over the fact table, filtered by
/// `fact_filter` — one GB-MQO workload that `session` runs under `cache`,
/// so the optimizer shares work across the pushed-down queries and a
/// repeat is served from the plan and aggregate caches. The per-set
/// aggregates are UNION ALL'ed with a `Grp-Tag`, joined once per
/// dimension, and re-aggregated per set above the joins with the tag as
/// the selector.
///
/// `aggregates` are the per-set aggregates; they must all re-aggregate
/// losslessly through the join (COUNT/SUM — the callers' binder enforces
/// COUNT-only), and the final aggregation applies
/// [`AggSpec::reaggregate`] to each. Every step's work is charged to
/// `ctx`.
#[allow(clippy::too_many_arguments)]
pub fn grouping_sets_over_star(
    session: &mut Session,
    fact: &str,
    dims: &[StarDim],
    requests: &[Vec<&str>],
    fact_filter: Option<&Predicate>,
    aggregates: &[AggSpec],
    cache: CacheControl,
    ctx: &mut QueryCtx,
) -> Result<JoinGroupingSets> {
    let engine = session.engine();
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
    let workload = Workload::new(fact, engine.catalog().table(fact)?, &universe, &pushed)?
        .with_aggregates(aggregates.to_vec())
        .with_filter(fact_filter.cloned());

    // Plan and execute the pushed-down Group Bys (work sharing!).
    let out = session.run_workload_in(&workload, cache, ctx)?;

    // Tag + union-all (Figure 8's Union-All below the join).
    let mut tagged: Vec<(String, &Table)> = Vec::with_capacity(requests.len());
    for (req, pushed_req) in requests.iter().zip(&pushed) {
        tagged.push((req.join(","), out.report.result_of(&workload, pushed_req)?));
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
    for (req, (tag, _)) in requests.iter().zip(tagged) {
        let relevant = filter(
            &joined,
            &Predicate::Eq("grp_tag".into(), Value::str(&tag)),
            &mut ctx.metrics,
        )?;
        let cols: Vec<usize> = req
            .iter()
            .map(|c| relevant.schema().index_of(c))
            .collect::<gbmqo_storage::Result<_>>()?;
        let engine = session.engine();
        let result = engine.aggregate_table(&relevant, &cols, &final_aggs, None, ctx)?;
        results.push((tag, result));
    }

    Ok(JoinGroupingSets {
        results,
        tagged_union_rows,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::SearchConfig;
    use gbmqo_exec::{sort_group_by, Engine, ExecMetrics};
    use gbmqo_storage::{Catalog, Column, DataType, Field, Schema, TableBuilder};

    fn setup() -> Session {
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
        Session::builder()
            .engine(Engine::new(cat))
            .search(SearchConfig::pruned())
            .build()
            .unwrap()
    }

    /// GROUPING SETS `requests` of `fact` over its join with `s` on `a`,
    /// counting rows.
    fn over_s(
        session: &mut Session,
        fact: &str,
        requests: &[Vec<&str>],
    ) -> Result<JoinGroupingSets> {
        let dim = StarDim {
            table: "s".into(),
            fact_key: "a".into(),
            dim_key: "a".into(),
            filter: None,
        };
        let (count, cache) = ([AggSpec::count()], CacheControl::Default);
        let ctx = &mut QueryCtx::default();
        grouping_sets_over_star(session, fact, &[dim], requests, None, &count, cache, ctx)
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
        let mut session = setup();
        let out = over_s(&mut session, "r", &[vec!["b"], vec!["c"], vec!["b", "c"]]).unwrap();
        assert_eq!(out.results.len(), 3);
        assert!(out.tagged_union_rows > 0);

        // Reference: join first, then group directly.
        let r = session.engine().catalog().table("r").unwrap().clone();
        let s = session.engine().catalog().table("s").unwrap().clone();
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
        let mut session = setup();
        // use r as both sides: r.a is not unique
        let dim = StarDim {
            table: "r".into(),
            fact_key: "a".into(),
            dim_key: "a".into(),
            filter: None,
        };
        let (count, cache) = ([AggSpec::count()], CacheControl::Default);
        let ctx = &mut QueryCtx::default();
        let err = grouping_sets_over_star(
            &mut session,
            "r",
            &[dim],
            &[vec!["b"]],
            None,
            &count,
            cache,
            ctx,
        );
        assert!(matches!(err, Err(CoreError::InvalidWorkload(_))));
    }

    #[test]
    fn missing_tables_error() {
        let mut session = setup();
        assert!(over_s(&mut session, "ghost", &[vec!["b"]]).is_err());
    }

    /// R(a, b, c) fact plus two keyed dimensions S(a, s) and D(b, d).
    fn star_setup() -> Session {
        let mut session = setup();
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
        session.register_table("d", db.finish().unwrap()).unwrap();
        session
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
        let mut session = star_setup();
        let out = grouping_sets_over_star(
            &mut session,
            "r",
            &star_dims(),
            &[vec!["c"], vec!["a", "c"]],
            None,
            &[AggSpec::count()],
            CacheControl::Default,
            &mut QueryCtx::default(),
        )
        .unwrap();
        assert_eq!(out.results.len(), 2);

        // Reference: join both dims first, then group directly.
        let catalog = session.engine().catalog();
        let r = catalog.table("r").unwrap().clone();
        let s = catalog.table("s").unwrap().clone();
        let d = catalog.table("d").unwrap().clone();
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
        let mut session = star_setup();
        let pred = Predicate::Eq("c".into(), Value::Int(1));
        let out = grouping_sets_over_star(
            &mut session,
            "r",
            &star_dims(),
            &[vec!["b"]],
            Some(&pred),
            &[AggSpec::count()],
            CacheControl::Default,
            &mut QueryCtx::default(),
        )
        .unwrap();

        // Reference: filter, join, group.
        let catalog = session.engine().catalog();
        let r = catalog.table("r").unwrap().clone();
        let s = catalog.table("s").unwrap().clone();
        let d = catalog.table("d").unwrap().clone();
        let mut m = ExecMetrics::new();
        let filtered = filter(&r, &pred, &mut m).unwrap();
        let j1 = gbmqo_exec::hash_join(&filtered, &s, &[0], &[0], &mut m).unwrap();
        let bk = j1.schema().index_of("b").unwrap();
        let joined = gbmqo_exec::hash_join(&j1, &d, &[bk], &[0], &mut m).unwrap();
        let direct = sort_group_by(&joined, &[bk], &[AggSpec::count()], &mut m).unwrap();
        assert_eq!(norm(&out.results[0].1), norm(&direct));
        // The filtered fact was the request's own: nothing was registered.
        assert_eq!(catalog.entries().count(), 3);
    }

    #[test]
    fn dim_filter_applies_before_the_join() {
        let mut session = star_setup();
        let dims = vec![StarDim {
            table: "s".into(),
            fact_key: "a".into(),
            dim_key: "a".into(),
            filter: Some(Predicate::Eq("s".into(), Value::str("dim1"))),
        }];
        let out = grouping_sets_over_star(
            &mut session,
            "r",
            &dims,
            &[vec!["b"]],
            None,
            &[AggSpec::count()],
            CacheControl::Default,
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
}
