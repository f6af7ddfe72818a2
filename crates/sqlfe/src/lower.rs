//! Lowering: a [`BoundQuery`] becomes a GB-MQO workload, or a §5.1.1
//! star pushdown ([`gbmqo_core::grouping_sets_over_star`]) whose pushed
//! Group Bys are one; [`execute`] runs either against a [`Session`].
//! Both run through [`Session::run_workload_in`], so the plan cache, the
//! statistics, the materialized aggregate cache and sharded execution
//! apply to every statement:
//!
//! * **No joins** → [`LoweredQuery::Workload`]: the statement's WHERE,
//!   if any, is the workload's filter ([`Workload::filter`]).
//! * **Joins** → [`LoweredQuery::Star`]: grouping below the joins over
//!   the filtered fact, a `Grp-Tag` union, one join per dimension.
//!   Filters are pushed to the table they constrain.

use crate::binder::BoundQuery;
use crate::error::{Result, SqlError, SqlErrorKind};
use gbmqo_core::{grouping_sets_over_star, CacheControl, Session, StarDim, Workload};
use gbmqo_exec::{AggSpec, Predicate, QueryCtx};
use gbmqo_storage::{Catalog, Table};

/// An executable lowering of one SQL statement.
#[derive(Debug, Clone)]
pub enum LoweredQuery {
    /// Single-table GROUPING SETS, filtered or not: one GB-MQO workload.
    Workload {
        /// The workload (universe = union of all grouping sets).
        workload: Workload,
        /// The grouping sets in statement order (for result tags).
        sets: Vec<Vec<String>>,
    },
    /// Star join: the §5.1.1 pushdown.
    Star {
        /// Fact table name.
        fact: String,
        /// Dimension joins.
        dims: Vec<StarDim>,
        /// The grouping sets in statement order.
        sets: Vec<Vec<String>>,
        /// ANDed fact-side WHERE conjuncts.
        fact_filter: Option<Predicate>,
        /// Aggregates each set computes.
        aggregates: Vec<AggSpec>,
    },
}

impl LoweredQuery {
    /// The grouping sets this query computes, in statement order.
    pub fn sets(&self) -> &[Vec<String>] {
        match self {
            LoweredQuery::Workload { sets, .. } => sets,
            LoweredQuery::Star { sets, .. } => sets,
        }
    }

    /// The result tag of grouping set `i` (comma-joined column names —
    /// the same convention as the engine's GROUPING SETS facade).
    pub fn tag(&self, i: usize) -> String {
        self.sets()[i].join(",")
    }
}

/// Lower a bound query. `catalog` is only read (schema lookups).
pub fn lower(bound: &BoundQuery, catalog: &Catalog) -> Result<LoweredQuery> {
    if bound.dims.is_empty() {
        let table = catalog.table(&bound.fact).map_err(internal)?;
        let mut universe: Vec<&str> = Vec::new();
        for set in &bound.sets {
            for c in set {
                if !universe.contains(&c.as_str()) {
                    universe.push(c);
                }
            }
        }
        let requests: Vec<Vec<&str>> = bound
            .sets
            .iter()
            .map(|s| s.iter().map(String::as_str).collect())
            .collect();
        let workload = Workload::new(&bound.fact, table, &universe, &requests)
            .map_err(internal)?
            .with_aggregates(bound.aggregates.clone())
            .with_filter(bound.fact_filter.clone());
        Ok(LoweredQuery::Workload {
            workload,
            sets: bound.sets.clone(),
        })
    } else {
        Ok(LoweredQuery::Star {
            fact: bound.fact.clone(),
            dims: bound
                .dims
                .iter()
                .map(|d| StarDim {
                    table: d.table.clone(),
                    fact_key: d.fact_key.clone(),
                    dim_key: d.dim_key.clone(),
                    filter: d.filter.clone(),
                })
                .collect(),
            sets: bound.sets.clone(),
            fact_filter: bound.fact_filter.clone(),
            aggregates: bound.aggregates.clone(),
        })
    }
}

/// The binder validated everything lowering relies on, so an error here
/// is an internal inconsistency, not bad user input.
fn internal(e: impl std::fmt::Display) -> SqlError {
    SqlError::spanless(SqlErrorKind::Bind, e.to_string())
}

/// Execute a lowered query against a session for the request `ctx`
/// describes (its token bounds the run, its counters collect the work),
/// returning `(tag, table)` per grouping set in statement order; a tag
/// is the set's comma-joined grouping columns.
pub fn execute(
    lowered: &LoweredQuery,
    session: &mut Session,
    cache: CacheControl,
    ctx: &mut QueryCtx,
) -> gbmqo_core::Result<Vec<(String, Table)>> {
    match lowered {
        LoweredQuery::Workload { workload, sets } => {
            let out = session.run_workload_in(workload, cache, ctx)?;
            sets.iter()
                .map(|set| Ok((set.join(","), out.report.result_of(workload, set)?.clone())))
                .collect()
        }
        LoweredQuery::Star {
            fact,
            dims,
            sets,
            fact_filter,
            aggregates,
        } => {
            let requests: Vec<Vec<&str>> = sets
                .iter()
                .map(|s| s.iter().map(String::as_str).collect())
                .collect();
            let filter = fact_filter.as_ref();
            let out = grouping_sets_over_star(
                session, fact, dims, &requests, filter, aggregates, cache, ctx,
            )?;
            Ok(out.results)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind;
    use crate::parser::parse;
    use gbmqo_storage::{Column, DataType, Field, Schema};

    fn catalog() -> Catalog {
        let fact = Table::new(
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64),
            ])
            .unwrap(),
            vec![
                Column::from_i64((0..60).map(|i| i % 3).collect()),
                Column::from_i64((0..60).map(|i| i % 4).collect()),
            ],
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.register("t", fact).unwrap();
        cat
    }

    fn lower_sql(sql: &str) -> LoweredQuery {
        let cat = catalog();
        lower(&bind(&parse(sql).unwrap(), &cat).unwrap(), &cat).unwrap()
    }

    #[test]
    fn single_table_lowers_to_workload() {
        let q = lower_sql("SELECT a, COUNT(*) FROM t GROUP BY GROUPING SETS ((a), (a, b))");
        match &q {
            LoweredQuery::Workload { workload, sets } => {
                assert_eq!(workload.requests.len(), 2);
                assert_eq!(sets.len(), 2);
                assert_eq!(q.tag(1), "a,b");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn filter_lowers_to_a_filtered_workload() {
        let q = lower_sql("SELECT COUNT(*) FROM t WHERE a = 1 GROUP BY b");
        match q {
            LoweredQuery::Workload { workload, sets } => {
                assert_eq!(sets, [vec!["b".to_string()]]);
                assert_eq!(workload.table, "t");
                let a_is_1 = gbmqo_exec::Predicate::Eq("a".into(), gbmqo_storage::Value::Int(1));
                assert_eq!(workload.filter, Some(a_is_1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn executes_workload_path() {
        let cat = catalog();
        let mut session = gbmqo_core::Session::builder()
            .engine(gbmqo_exec::Engine::new(cat))
            .build()
            .unwrap();
        let q = lower_sql("SELECT a, COUNT(*) FROM t GROUP BY CUBE (a, b)");
        let out = execute(
            &q,
            &mut session,
            CacheControl::Default,
            &mut QueryCtx::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        // the (a) set has 3 groups of 20 rows each
        let (tag, t) = &out.iter().find(|(t, _)| t == "a").unwrap();
        assert_eq!(*tag, "a");
        assert_eq!(t.num_rows(), 3);
    }
}
