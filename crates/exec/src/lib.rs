//! # gbmqo-exec
//!
//! The relational execution engine underneath the GB-MQO optimizer — the
//! role Microsoft SQL Server's executor plays in the SIGMOD 2005 paper.
//!
//! Operators:
//!
//! * [`radix_group_by`] — hash aggregation, one kernel for every input
//!   size: radix-partitioned, morsel-driven, packed `u64`/`u128` key
//!   codes, with COUNT(\*), SUM(cnt) re-aggregation, SUM/MIN/MAX (§7.2).
//!   The partition and worker counts are its only size-dependent
//!   decisions; a small input is one partition on the calling thread,
//! * [`stream_group_by`] — sort-order streaming aggregation, taken when
//!   an index order serves the grouping; [`sort_group_by`] sorts first
//!   and is the independent reference the tests compare the kernel with,
//! * [`rollup()`] and [`cube()`] — §7.1's alternative plan nodes, computed by
//!   lattice descent (each level re-aggregated from the previous),
//! * [`filter()`], [`join`], [`union_all`] — the relational plumbing for
//!   §5.1.1's GROUPING SETS over selections and joins with `Grp-Tag`,
//! * [`engine::Engine`] — runs Group By queries over a
//!   [`gbmqo_storage::Catalog`] table or a table handed to it (one
//!   [`engine::Input`] type); [`Engine::aggregate_table`] is the same
//!   kernel dispatch for an in-memory table (shard merges, delta
//!   refreshes, lattice levels). The engine holds only its catalog and
//!   configuration, so every query takes `&self`: a request's
//!   [`CancelToken`] and [`metrics::ExecMetrics`] travel in the
//!   [`QueryCtx`] its caller builds and passes down to the kernels.

#![warn(missing_docs)]

pub mod agg;
pub mod cancel;
pub mod cube;
mod driver;
pub mod engine;
pub mod error;
pub mod filter;
pub mod group_by;
pub mod join;
pub mod metrics;
pub mod radix;
pub mod rollup;
pub mod rowstore;
pub mod shared;
pub mod sort_agg;
pub mod union_all;

pub use agg::{AggFunc, AggSpec};
pub use cancel::CancelToken;
pub use cube::cube;
pub use engine::{Engine, GroupByQuery, Input, QueryCtx};
pub use error::{ExecError, Result};
pub use filter::{filter, Predicate};
pub use group_by::stream_group_by;
pub use join::hash_join;
pub use metrics::ExecMetrics;
pub use radix::{group_by_with_strategy, radix_group_by, GroupByStrategy};
pub use rollup::rollup;
pub use rowstore::full_scan_tax;
pub use shared::shared_scan_group_by;
pub use sort_agg::sort_group_by;
pub use union_all::union_all_tagged;
