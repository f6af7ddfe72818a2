//! # gbmqo-stats
//!
//! The statistics subsystem standing in for a commercial DBMS's statistics
//! and what-if analysis machinery, which the paper's query-optimizer cost
//! model (§3.2.2) depends on:
//!
//! * [`sample`] — reservoir sampling of row ids (one shared sample per
//!   table; the paper notes "the optimizer can create multiple statistics
//!   from one sample"), sized by the one [`SampleRule`] every sampled
//!   statistic uses,
//! * [`freq`] — sample frequency profiles (`f_i` = number of values seen
//!   exactly `i` times),
//! * [`distinct`] — sampling-based distinct-value estimators (GEE,
//!   Shlosser, first-order jackknife, and the Haas et al. hybrid the paper
//!   cites as \[3\]), plus exact counting,
//! * [`store`] — a [`store::StatsStore`] caching per-column-set cardinality
//!   estimates with creation-cost accounting (experiment §6.7 / Figure 12),
//! * [`source`] — the [`source::CardinalitySource`] trait (the what-if API
//!   analog) with sampled and exact implementations,
//! * [`catalog`] — a [`catalog::StatsCatalog`] keeping all of the above per
//!   table *contents version*, so statistics are built once and reused
//!   across optimizations until the table changes, beside the group counts
//!   execution observed over each table.

#![warn(missing_docs)]

pub mod catalog;
pub mod distinct;
pub mod error;
pub mod freq;
pub mod sample;
pub mod source;
pub mod store;

pub use catalog::{SampleStats, StatsCatalog, TableStats};
pub use distinct::{exact_distinct, DistinctEstimator};
pub use error::{Result, StatsError};
pub use freq::FrequencyProfile;
pub use sample::{reservoir_sample, SampleRule};
pub use source::{CardinalitySource, ExactSource, SampledSource};
pub use store::{StatsCreationLog, StatsStore};
