//! # gbmqo-storage
//!
//! A small columnar, in-memory storage engine that plays the role Microsoft
//! SQL Server's storage layer plays in the SIGMOD 2005 paper *"Efficient
//! Computation of Multiple Group By Queries"* (Chen & Narasayya).
//!
//! It provides:
//!
//! * typed [`Column`]s (`Int64`, `Float64`, dictionary-encoded `Utf8`,
//!   `Date32`) with validity bitmaps,
//! * [`Table`]s with [`Schema`]s and builders,
//! * a [`Catalog`] of named base tables, each resident once — a shard
//!   is a row selection of its table — with versions and append logs
//!   (plan intermediates are owned by the execution that computes them,
//!   never by the catalog),
//! * clustered / non-clustered [`Index`]es, modeled as sort permutations
//!   (needed for the paper's §6.9 physical-design experiment),
//! * compact per-row [`RowKey`] encodings used by hash aggregation, plus
//!   bit-[`packed`] `u64`/`u128` key codes for the fast group-by path.

#![warn(missing_docs)]

pub mod bitmap;
pub mod catalog;
pub mod column;
pub mod dictionary;
pub mod error;
pub mod index;
pub mod key;
pub mod packed;
pub mod schema;
pub mod shard;
pub mod sort;
pub mod table;
pub mod value;

pub use bitmap::Bitmap;
pub use catalog::{Catalog, DeltaDesc, DeltaRange, Snapshot, TableEntry, MAX_DELTA_LOG};
pub use column::{Column, ColumnBuilder};
pub use dictionary::Dictionary;
pub use error::{Result, StorageError};
pub use index::{Index, IndexKind};
pub use key::{KeyEncoder, RowKey};
pub use packed::{KeyCode, PackedKeySpec};
pub use schema::{Field, Schema};
// All of it, the gathered split kept for callers that time one included.
pub use shard::*;
pub use sort::sort_permutation;
pub use table::{Table, TableBuilder};
pub use value::{DataType, Value};
