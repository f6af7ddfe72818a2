//! # gbmqo-sqlfe
//!
//! A SQL-ish front end for the GB-MQO engine: a hand-written lexer and
//! recursive-descent parser for the subset
//!
//! ```text
//! SELECT <cols & aggs>
//! FROM <fact>
//! [JOIN <dim> ON fact.k = dim.k]*
//! [WHERE <col (=|<=|>=) literal [AND …]>]
//! GROUP BY GROUPING SETS ((…), …) | CUBE (…) | ROLLUP (…) | <cols>
//! ```
//!
//! a binder that resolves names against the engine's
//! [`gbmqo_storage::Catalog`] with byte-accurate error spans,
//! and a lowering pass that emits GB-MQO workloads — applying the
//! paper's §5 join-pushdown rewrite when grouping columns live on the
//! fact side of a star join, and expanding CUBE/ROLLUP/GROUPING SETS
//! specs into explicit column-set requests.
//!
//! The pipeline is `parse → bind → lower → execute`:
//!
//! ```
//! use gbmqo_sqlfe::compile;
//! use gbmqo_core::{CacheControl, QueryCtx, Session};
//! use gbmqo_storage::{Column, DataType, Field, Schema, Table};
//!
//! let table = Table::new(
//!     Schema::new(vec![
//!         Field::new("a", DataType::Int64),
//!         Field::new("b", DataType::Int64),
//!     ]).unwrap(),
//!     vec![
//!         Column::from_i64((0..100).map(|i| i % 4).collect()),
//!         Column::from_i64((0..100).map(|i| i % 5).collect()),
//!     ],
//! ).unwrap();
//! let mut session = Session::builder().table("t", table).build().unwrap();
//!
//! let lowered = compile(
//!     "SELECT a, b, COUNT(*) AS cnt FROM t GROUP BY CUBE (a, b)",
//!     session.engine().catalog(),
//! ).unwrap();
//! let mut ctx = QueryCtx::default();
//! let out = gbmqo_sqlfe::execute(&lowered, &mut session, CacheControl::Default, &mut ctx).unwrap();
//! assert_eq!(out.len(), 3); // (a), (b), (a,b)
//! ```
//!
//! Scope notes (each rejected with a spanned
//! [`SqlErrorKind::Unsupported`]): grouping columns must live on the
//! fact table (the §5 rewrite groups *below* the join); the grand-total
//! (empty) grouping set is not representable as a GB-MQO request; over a
//! join only `COUNT(*)` is available (the `Grp-Tag` union re-aggregates
//! counts); CUBE is capped at [`binder::MAX_CUBE_COLUMNS`] columns.

#![warn(missing_docs)]

pub mod ast;
pub mod binder;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use ast::Query;
pub use binder::{bind, BoundDim, BoundQuery, MAX_CUBE_COLUMNS};
pub use error::{Result, Span, SqlError, SqlErrorKind};
pub use lower::{execute, lower, LoweredQuery};
pub use parser::parse;

use gbmqo_storage::Catalog;

/// Parse, bind, and lower one statement in a single call.
pub fn compile(sql: &str, catalog: &Catalog) -> Result<LoweredQuery> {
    let query = parse(sql)?;
    let bound = bind(&query, catalog)?;
    lower(&bound, catalog)
}

/// Parse a lone GROUP BY spec — `GROUPING SETS ((a), (a, b))`,
/// `CUBE (a, b)`, `ROLLUP (a, b)` or a plain column list — and expand it
/// into its grouping sets, the way a statement's GROUP BY clause is
/// expanded, but with no catalog: names are kept as written (`t.a`
/// stays `t.a`).
///
/// ```
/// let sets = gbmqo_sqlfe::parse_group_spec("ROLLUP (a, b)").unwrap();
/// assert_eq!(sets, vec![vec!["a", "b"], vec!["a"]]);
/// ```
pub fn parse_group_spec(spec: &str) -> Result<Vec<Vec<String>>> {
    let group = parser::parse_group_spec(spec)?;
    binder::expand_groups(&group, &|col| {
        Ok(match &col.table {
            Some(t) => format!("{}.{}", t.name, col.column.name),
            None => col.column.name.clone(),
        })
    })
}
