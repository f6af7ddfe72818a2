//! Hash-disjoint sharding of base tables.
//!
//! A sharded table is stored once. Each shard is a row selection of it:
//! the ascending ids of the rows a salted hash of their *values* in the
//! shard-key columns routes to it ([`shard_rows`]). Rows that agree on
//! the key columns always land in the same shard, so the shards hold
//! disjoint group sets for any grouping that covers the shard key: Group
//! By results over such groupings concatenate across shards with no
//! re-aggregation (the merge-elision rule), and every other grouping
//! merges by re-aggregating per-shard partials — the paper's §7
//! aggregate-union argument applied across shards.
//!
//! Routing hashes resolved values, never dictionary codes: a delta
//! appended later carries its own dictionary, and the same string must
//! route to the same shard as the base rows it joins.

use crate::column::{Column, ColumnData};
use crate::error::{Result, StorageError};
use crate::table::Table;
use rustc_hash::{FxHashSet, FxHasher};
use std::hash::Hasher;
use std::sync::Arc;

/// How a sharded table is split: the catalog keeps one per sharded table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDesc {
    /// Names of the columns whose values route rows to shards.
    pub key_cols: Vec<String>,
    /// Number of hash-disjoint shards (a power of two ≥ 2).
    pub shard_count: u32,
}

/// Salt folded into every routing hash so shard routing stays
/// uncorrelated with the unsalted row-key hash the radix group-by
/// kernel uses to scatter rows *within* a shard (identical bits would
/// collapse the kernel's partitions to one per shard).
const SHARD_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// One shard of a sharded table, as the catalog holds it and a
/// [`crate::Snapshot`] hands it out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Ascending ids of the table's rows routed to this shard. A clone
    /// of this `Arc` never changes: an append extends the catalog's list
    /// in place only while no clone is alive, and copies it otherwise.
    pub rows: Arc<Vec<u32>>,
    /// Contents version of the shard, from the catalog's one counter: an
    /// append bumps it only on the shards that received rows, so cached
    /// per-shard aggregates of the others stay current.
    pub version: u64,
}

/// splitmix64 finalizer: FxHasher's output is weak in its high bits for
/// short inputs, and routing reads only the top `log2(shards)` bits.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hash_row(key_cols: &[&Column], row: usize) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(SHARD_SALT);
    for col in key_cols {
        if col.is_null(row) {
            h.write_u8(0);
            continue;
        }
        h.write_u8(1);
        match col.data() {
            ColumnData::Int64(v) => h.write_i64(v[row]),
            ColumnData::Float64(v) => {
                // normalize -0.0 so SQL-equal values route identically
                let bits = if v[row] == 0.0 { 0 } else { v[row].to_bits() };
                h.write_u64(bits);
            }
            ColumnData::Utf8 { codes, dict } => {
                let s = dict.get(codes[row]);
                h.write_usize(s.len());
                h.write(s.as_bytes());
            }
            ColumnData::Date32(v) => h.write_i32(v[row]),
        }
    }
    mix(h.finish())
}

/// Shard assignment per row: the top `log2(shards)` bits of a salted
/// value hash over the key columns. `shards` must be a power of two;
/// `shards <= 1` routes every row to shard 0.
pub fn route_rows(key_cols: &[&Column], num_rows: usize, shards: u32) -> Vec<u32> {
    debug_assert!(shards.is_power_of_two(), "shard count must be 2^k");
    if shards <= 1 {
        return vec![0; num_rows];
    }
    let shift = 64 - shards.trailing_zeros();
    (0..num_rows)
        .map(|r| (hash_row(key_cols, r) >> shift) as u32)
        .collect()
}

/// The rows of `table` each of `shards` hash-disjoint shards routed by
/// `key_cols` holds: ascending row ids, in shard order. One shard holds
/// every row. Fails on a shard count that is not a power of two or an
/// unknown key column.
pub fn shard_rows(table: &Table, key_cols: &[String], shards: u32) -> Result<Vec<Vec<u32>>> {
    if !shards.is_power_of_two() {
        return Err(StorageError::Malformed(format!(
            "shard count must be a power of two, got {shards}"
        )));
    }
    let cols: Vec<&Column> = key_cols
        .iter()
        .map(|n| table.schema().index_of(n).map(|o| table.column(o)))
        .collect::<Result<_>>()?;
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); shards as usize];
    for (row, s) in route_rows(&cols, table.num_rows(), shards)
        .into_iter()
        .enumerate()
    {
        rows[s as usize].push(row as u32);
    }
    Ok(rows)
}

/// Split `table` into `shards` hash-disjoint tables routed by
/// `key_cols`, each a gathered copy of its [`shard_rows`]; parts come
/// back in shard order, empty shards as empty tables. The catalog keeps
/// the row ids instead; this copy is what a split costs a system that
/// stores shards apart.
pub fn split_table(table: &Table, key_cols: &[String], shards: u32) -> Result<Vec<Table>> {
    if shards == 1 {
        return Ok(vec![table.clone()]);
    }
    let rows = shard_rows(table, key_cols, shards)?;
    Ok(rows.iter().map(|idx| table.gather(idx)).collect())
}

/// Default shard key: the column with the most distinct values over a
/// strided sample of at most 64Ki rows (ties break to the lowest
/// ordinal). High cardinality spreads groups evenly across shards and
/// keeps the merge-elision rule applicable to the groupings most likely
/// to dominate result sizes.
pub fn select_shard_key(table: &Table) -> Option<String> {
    if table.num_columns() == 0 {
        return None;
    }
    let rows = table.num_rows();
    let step = (rows / 65_536).max(1);
    let mut best_ord = 0;
    let mut best_distinct = 0usize;
    for c in 0..table.num_columns() {
        let col = [table.column(c)];
        let mut seen = FxHashSet::default();
        let mut r = 0;
        while r < rows {
            seen.insert(hash_row(&col, r));
            r += step;
        }
        if seen.len() > best_distinct {
            best_distinct = seen.len();
            best_ord = c;
        }
    }
    Some(table.schema().field(best_ord).name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};

    fn sample() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ])
        .unwrap();
        let names: Vec<String> = (0..500).map(|i| format!("user-{}", i % 40)).collect();
        Table::new(
            schema,
            vec![
                Column::from_i64((0..500).collect()),
                Column::from_strs(&names),
            ],
        )
        .unwrap()
    }

    #[test]
    fn split_partitions_all_rows_disjointly() {
        let t = sample();
        let parts = split_table(&t, &["name".into()], 4).unwrap();
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(Table::num_rows).sum();
        assert_eq!(total, t.num_rows());
        // every row of shard s routes back to s
        for (s, part) in parts.iter().enumerate() {
            let col = [part.column_by_name("name").unwrap()];
            for &r in &route_rows(&col, part.num_rows(), 4) {
                assert_eq!(r as usize, s);
            }
        }
        // no shard hogs everything: 40 names over 4 shards should spread
        assert!(parts.iter().all(|p| p.num_rows() > 0));
    }

    #[test]
    fn routing_hashes_string_values_not_codes() {
        // Same values interned in a different order get different codes;
        // routing must agree anyway (append deltas carry fresh dicts).
        let base = Column::from_strs(&["alpha", "beta", "gamma"]);
        let delta = Column::from_strs(&["gamma", "beta", "alpha"]);
        let rb = route_rows(&[&base], 3, 8);
        let rd = route_rows(&[&delta], 3, 8);
        assert_eq!(rb[0], rd[2]);
        assert_eq!(rb[1], rd[1]);
        assert_eq!(rb[2], rd[0]);
    }

    #[test]
    fn one_shard_is_identity_and_non_power_of_two_rejected() {
        let t = sample();
        let one = split_table(&t, &["id".into()], 1).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].num_rows(), t.num_rows());
        assert!(split_table(&t, &["id".into()], 3).is_err());
        assert!(split_table(&t, &["ghost".into()], 4).is_err());
    }

    #[test]
    fn nulls_route_consistently() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]).unwrap();
        let mut b = crate::table::TableBuilder::new(schema);
        for i in 0..100 {
            let v = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int(i % 11)
            };
            b.push_row(&[v]).unwrap();
        }
        let t = b.finish().unwrap();
        let parts = split_table(&t, &["k".into()], 4).unwrap();
        // all NULL rows share one shard (NULL is one group key)
        let null_shards: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.column(0).null_count() > 0)
            .map(|(s, _)| s)
            .collect();
        assert_eq!(null_shards.len(), 1);
        let total: usize = parts.iter().map(Table::num_rows).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn select_shard_key_prefers_high_cardinality() {
        let t = sample(); // id: 500 distinct, name: 40 distinct
        assert_eq!(select_shard_key(&t).as_deref(), Some("id"));
        let empty = Table::empty(t.schema().clone());
        assert_eq!(select_shard_key(&empty).as_deref(), Some("id"));
    }
}
