//! Lowering: a [`BoundQuery`] becomes one GB-MQO workload, and
//! [`execute`] runs it through [`Session::run_workload_in`], so the plan
//! cache, the statistics, the materialized aggregate cache and sharded
//! execution apply to every statement. The statement's WHERE is the
//! workload's filter ([`Workload::filter`]) and its star joins are the
//! workload's joins ([`Workload::joins`]): the session resolves both, as
//! one selection of the fact, into the request's base relation.

use crate::binder::BoundQuery;
use crate::error::{Result, SqlError, SqlErrorKind};
use gbmqo_core::{CacheControl, Session, Workload};
use gbmqo_exec::QueryCtx;
use gbmqo_storage::{Catalog, Table};

/// An executable lowering of one SQL statement.
#[derive(Debug, Clone)]
pub enum LoweredQuery {
    /// GROUPING SETS over the fact rows the statement selects: one
    /// GB-MQO workload.
    Workload {
        /// The workload (universe = union of all grouping sets).
        workload: Workload,
        /// The grouping sets in statement order (for result tags).
        sets: Vec<Vec<String>>,
    },
}

impl LoweredQuery {
    /// The grouping sets this query computes, in statement order.
    pub fn sets(&self) -> &[Vec<String>] {
        let LoweredQuery::Workload { sets, .. } = self;
        sets
    }

    /// The result tag of grouping set `i` (comma-joined column names —
    /// the same convention as the engine's GROUPING SETS facade).
    pub fn tag(&self, i: usize) -> String {
        self.sets()[i].join(",")
    }
}

/// Lower a bound query. `catalog` is only read (schema lookups).
pub fn lower(bound: &BoundQuery, catalog: &Catalog) -> Result<LoweredQuery> {
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
        workload: Workload {
            joins: bound.dims.clone(),
            ..workload
        },
        sets: bound.sets.clone(),
    })
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
    let LoweredQuery::Workload { workload, sets } = lowered;
    let out = session.run_workload_in(workload, cache, ctx)?;
    sets.iter()
        .map(|set| Ok((set.join(","), out.report.result_of(workload, set)?.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind;
    use crate::parser::parse;
    use gbmqo_core::StarDim;
    use gbmqo_exec::Predicate;
    use gbmqo_storage::{Column, DataType, Field, Schema, Value};

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
        let dim = Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("s", DataType::Utf8),
            ])
            .unwrap(),
            vec![
                Column::from_i64(vec![0, 1, 2]),
                Column::from_strs(&["x", "y", "x"]),
            ],
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.register("t", fact).unwrap();
        cat.register("d", dim).unwrap();
        cat
    }

    fn lower_sql(sql: &str) -> LoweredQuery {
        let cat = catalog();
        lower(&bind(&parse(sql).unwrap(), &cat).unwrap(), &cat).unwrap()
    }

    #[test]
    fn single_table_lowers_to_workload() {
        let q = lower_sql("SELECT a, COUNT(*) FROM t GROUP BY GROUPING SETS ((a), (a, b))");
        let LoweredQuery::Workload { workload, sets } = &q;
        assert_eq!(workload.requests.len(), 2);
        assert_eq!(sets.len(), 2);
        assert_eq!(q.tag(1), "a,b");
        assert!(workload.filter.is_none() && workload.joins.is_empty());
    }

    #[test]
    fn filter_lowers_to_a_filtered_workload() {
        let q = lower_sql("SELECT COUNT(*) FROM t WHERE a = 1 GROUP BY b");
        let LoweredQuery::Workload { workload, sets } = q;
        assert_eq!(sets, [vec!["b".to_string()]]);
        assert_eq!(workload.table, "t");
        let a_is_1 = Predicate::Eq("a".into(), Value::Int(1));
        assert_eq!(workload.filter, Some(a_is_1));
    }

    #[test]
    fn a_star_join_lowers_to_the_workload_of_its_fact() {
        let q = lower_sql(
            "SELECT COUNT(*), SUM(b) FROM t JOIN d ON t.a = d.k \
             WHERE s = 'x' AND b >= 1 GROUP BY b",
        );
        let LoweredQuery::Workload { workload, .. } = q;
        assert_eq!(workload.table, "t");
        assert_eq!(
            workload.filter,
            Some(Predicate::Ge("b".into(), Value::Int(1)))
        );
        let on_d = StarDim {
            table: "d".into(),
            fact_key: "a".into(),
            dim_key: "k".into(),
            filter: Some(Predicate::Eq("s".into(), Value::str("x"))),
        };
        assert_eq!(workload.joins, [on_d]);
        assert_eq!(workload.aggregates.len(), 2);
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
