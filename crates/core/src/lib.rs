//! # gbmqo-core
//!
//! A from-scratch Rust reproduction of **"Efficient Computation of
//! Multiple Group By Queries"** (Zhimin Chen & Vivek Narasayya, SIGMOD
//! 2005): cost-based multi-query optimization for sets of Group By
//! queries over one relation (the **GB-MQO** problem).
//!
//! The problem: given a relation `R` and requested Group Bys
//! `S = {s1..sn}`, find a tree of Group By queries rooted at `R`
//! (intermediate results materialized as temp tables) that computes all
//! of `S` at minimum cost. Even the all-single-column case is
//! NP-complete, and the search DAG is exponential — so the paper's
//! algorithm climbs bottom-up from the naive plan by greedily merging
//! sub-plans, never building the full lattice.
//!
//! Map of the crate (paper section → module):
//!
//! * §3.1 search DAG nodes → [`colset`], problem input → [`workload`],
//!   logical plans → [`plan`]
//! * §3.2 cost models → the `gbmqo-cost` crate, adapted via [`coster`]
//! * §4.1 SubPlanMerge → [`merge`]
//! * §4.2 greedy algorithm → [`greedy`] ([`GbMqo`])
//! * §4.3 pruning → [`greedy::SearchConfig`] flags
//! * §4.4 storage-minimizing scheduling → [`schedule`]
//! * §5.1 / §5.2 server-side (shared scans) and client-side execution →
//!   [`physicalize`], then one interpreter, [`executor`]; the mode switch
//!   and the GROUPING SETS union-all facade → [`api`]; SQL rendering →
//!   [`sql`]
//! * §5.1.1 GROUPING SETS over joins (Grp-Tag) → [`join_pushdown`]
//! * §6.1 commercial GROUPING SETS baseline → [`grouping_sets`]
//! * §6.3 exhaustive optimum → [`exhaustive`]
//! * §7.1 CUBE/ROLLUP nodes → [`greedy::SearchConfig::cube_rollup_merges`]
//! * §7.2 other aggregates → [`workload::Workload::with_aggregates`]
//!
//! ## Quickstart
//!
//! The entry point is a [`Session`]: it owns the engine, optimizes each
//! workload under the configured cost model, caches plans for repeated
//! workloads, and executes serially, via shared scans, or in
//! dependency-parallel waves.
//!
//! ```
//! use gbmqo_core::prelude::*;
//! use gbmqo_storage::{Column, DataType, Field, Schema, Table};
//!
//! // a tiny relation R(a, b, c)
//! let schema = Schema::new(vec![
//!     Field::new("a", DataType::Int64),
//!     Field::new("b", DataType::Int64),
//!     Field::new("c", DataType::Int64),
//! ]).unwrap();
//! let table = Table::new(schema, vec![
//!     Column::from_i64((0..100).map(|i| i % 4).collect()),
//!     Column::from_i64((0..100).map(|i| (i % 4) * 10).collect()),
//!     Column::from_i64((0..100).collect()),
//! ]).unwrap();
//!
//! let mut session = Session::builder()
//!     .table("r", table.clone())
//!     .search(SearchConfig::pruned())      // §4.3 pruning on
//!     .mode(ExecutionMode::Parallel)       // dependency-parallel waves
//!     .plan_cache(16)                      // LRU workload→plan cache
//!     .build()
//!     .unwrap();
//!
//! // ask for every single-column Group By (the paper's SC workload)
//! let workload = Workload::single_columns("r", &table, &["a", "b", "c"]).unwrap();
//! let out = session.grouping_sets(&workload).unwrap();
//! assert!(out.stats.final_cost <= out.stats.naive_cost);
//! assert_eq!(out.grouping_set_count(), 3);
//!
//! // the same workload again skips the merge search entirely
//! let again = session.grouping_sets(&workload).unwrap();
//! assert!(again.stats.cache_hit);
//! assert_eq!(again.stats.optimizer_calls, 0);
//! ```

#![warn(missing_docs)]

pub mod advisor;
pub mod api;
mod cache;
pub mod colset;
pub mod coster;
pub mod error;
pub mod executor;
pub mod exhaustive;
pub mod explain;
pub mod greedy;
pub mod grouping_sets;
pub mod join_pushdown;
pub mod merge;
pub mod physicalize;
pub mod plan;
mod planner;
pub mod schedule;
pub mod serialize;
pub mod session;
pub mod sql;
pub mod workload;

pub use advisor::{recommend_indexes, IndexRecommendation};
pub use api::{ExecutionMode, GroupingSetsResult};
pub use cache::CacheStats;
pub use colset::ColSet;
pub use error::{CoreError, Result};
pub use executor::{ExecutionReport, GroupEstimates};
pub use exhaustive::optimal_plan;
pub use explain::{explain, render_explain, ExplainedEdge};
pub use gbmqo_exec::{CancelToken, QueryCtx};
pub use gbmqo_matcache::{CacheControl, MatCacheStats, RefreshPolicy, DEFAULT_MAX_DELTA_FRACTION};
pub use greedy::{GbMqo, SearchConfig, SearchStats};
pub use grouping_sets::{grouping_sets_plan, BaselineKind};
pub use join_pushdown::{grouping_sets_over_star, StarDim};
pub use physicalize::{Merge, PhysicalEdge, PhysicalPlan, Read};
pub use plan::{LogicalPlan, NodeKind, SubNode};
pub use planner::{CostModelSpec, NodeCardReport, Stats};
pub use serialize::{plan_from_text, plan_to_text};
pub use session::{
    AppendOutcome, Session, SessionBuilder, WorkloadOutcome, RESHARD_SKEW_THRESHOLD,
};
pub use sql::{quote_sql_ident, render_sql};
pub use workload::Workload;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::api::{ExecutionMode, GroupingSetsResult};
    pub use crate::cache::CacheStats;
    pub use crate::colset::ColSet;
    pub use crate::error::{CoreError, Result};
    pub use crate::executor::ExecutionReport;
    pub use crate::greedy::{GbMqo, SearchConfig, SearchStats};
    pub use crate::plan::{LogicalPlan, SubNode};
    pub use crate::planner::{CostModelSpec, NodeCardReport, Stats};
    pub use crate::session::{
        AppendOutcome, Session, SessionBuilder, WorkloadOutcome, RESHARD_SKEW_THRESHOLD,
    };
    pub use crate::workload::Workload;
    pub use gbmqo_exec::{CancelToken, QueryCtx};
    pub use gbmqo_matcache::{
        CacheControl, MatCacheStats, RefreshPolicy, DEFAULT_MAX_DELTA_FRACTION,
    };
    pub use gbmqo_stats::{DistinctEstimator, SampleRule};
}
