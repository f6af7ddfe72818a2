//! The catalog: named base tables, their shard entries and indexes,
//! contents versions and append logs. It holds nothing a query computes —
//! plan intermediates belong to the execution that scheduled them — so
//! only registration, append and resharding write it.

use crate::error::{Result, StorageError};
use crate::index::{Index, IndexKind};
use crate::shard::{select_shard_key, shard_table_name, split_table, ShardDesc};
use crate::table::Table;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// A catalog entry: a table plus its indexes.
///
/// The table lives behind an [`Arc`] so operators that need an owned
/// handle (e.g. to keep a table alive across a scoped-thread region or
/// past a catalog mutation) clone a pointer, not the data.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// The table data. A clone of this `Arc` is a snapshot: it never
    /// changes, and [`Catalog::append`] grows the catalog's copy in place
    /// only while no such clone is alive (it copies once otherwise).
    pub table: Arc<Table>,
    /// Indexes built over the table.
    pub indexes: Vec<Index>,
    /// Monotonic identity of this table's *contents*, unique across the
    /// whole catalog lifetime: every register/replace/append assigns a
    /// fresh version, so anything keyed by `(name, version)` — cached
    /// aggregates, plan-cache fingerprints — can never confuse two
    /// generations of a same-named table.
    pub version: u64,
}

/// One append's footprint on a table: which contiguous row range the
/// delta occupies and which version interval it spans. The catalog keeps
/// a bounded log of these per base table (and per shard entry of a
/// sharded table — the shard router supplies per-shard deltas), so
/// consumers holding an aggregate computed at an older version can
/// re-aggregate *only the appended rows* and merge, instead of
/// recomputing from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaDesc {
    /// Version of the table immediately before the append.
    pub from_version: u64,
    /// Version assigned by the append.
    pub to_version: u64,
    /// Rows the table held before the append — the delta's first row.
    pub base_rows: usize,
    /// Rows the append added.
    pub delta_rows: usize,
}

/// A resolved chain of [`DeltaDesc`]s: the contiguous row range that was
/// appended between a consumer's snapshot version and the table's
/// current version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRange {
    /// First appended row (row offset of the consumer's snapshot end).
    pub start_row: usize,
    /// Total appended rows across the chain.
    pub rows: usize,
    /// The version the chain catches the consumer up to (the table's
    /// current version).
    pub to_version: u64,
}

/// A base relation as one request reads it, resolved once: what the plan
/// cache keys on, what the planner prices, what the aggregate cache
/// serves and what the execution reads. A catalog table's snapshot is
/// [`Catalog::snapshot`]; a relation derived from catalog tables (a
/// selection of one) is [`Snapshot::derived`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The catalog name, or the key of a derived relation.
    pub name: String,
    /// The contents version: the catalog's, or for a derived relation
    /// its source's, so it goes stale exactly when the source changes
    /// (the versions of the other tables it reads are in its key).
    pub version: u64,
    /// The contents.
    pub table: Arc<Table>,
    /// Key column ordinals and kind of each index.
    pub indexes: Vec<(Vec<usize>, IndexKind)>,
    /// The shard-key columns; empty when unsharded.
    pub shard_key: Vec<String>,
    /// Each shard entry as `(name, contents version, rows)`, in shard
    /// order; empty when unsharded.
    pub shards: Vec<(String, u64, usize)>,
    /// The catalog tables a derived relation was computed from; empty
    /// for a catalog table's own snapshot.
    pub reads: Vec<String>,
}

impl Snapshot {
    /// A relation computed for one request from the catalog tables
    /// `reads`: keyed by `name`, valid at its source's contents
    /// `version`, unsharded and index-free.
    pub fn derived(name: String, version: u64, table: Table, reads: Vec<String>) -> Self {
        Snapshot {
            name,
            version,
            table: Arc::new(table),
            indexes: Vec::new(),
            shard_key: Vec::new(),
            shards: Vec::new(),
            reads,
        }
    }

    /// True for a relation derived for one request: reads take `table`
    /// as handed over, with no index, not the catalog's entry.
    pub fn is_derived(&self) -> bool {
        !self.reads.is_empty()
    }

    /// Rows of the relation.
    pub fn rows(&self) -> usize {
        self.table.num_rows()
    }
}

/// Delta descriptors retained per table before the oldest is compacted
/// away. A consumer further behind than this many appends falls back to
/// recomputation — the chain no longer reaches its snapshot version.
pub const MAX_DELTA_LOG: usize = 64;

/// A named collection of base tables.
///
/// A catalog holds only plain owned data, so `&Catalog` is `Sync`: the
/// parallel plan executor hands shared references to catalog tables out
/// to scoped worker threads, while all mutation (registration, appends,
/// index management) stays on the coordinating thread.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: FxHashMap<String, TableEntry>,
    /// Source of [`TableEntry::version`] values; starts at 1 so version
    /// 0 can mean "no such table" in callers that want a sentinel.
    next_version: u64,
    /// Sharding metadata per sharded base table. A sharded table keeps
    /// its full contiguous entry under its own name (statistics, plan
    /// models and serial paths read it unchanged) plus one hidden base
    /// entry per shard (`__gbmqo_shard_{name}_{i}`), each with its own
    /// monotonic version so per-shard cached aggregates invalidate
    /// independently.
    shard_descs: FxHashMap<String, ShardDesc>,
    /// Append history per table (see [`DeltaDesc`]). Bounded at
    /// [`MAX_DELTA_LOG`] entries; replace/remove clear the log because
    /// the new contents share no row prefix with the old.
    delta_logs: FxHashMap<String, Vec<DeltaDesc>>,
}

// Compile-time guarantee for the parallel executor: worker threads borrow
// `&Catalog` (and `&Table`s inside it) across a `thread::scope`.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Catalog>()
};

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    fn bump_version(&mut self) -> u64 {
        self.next_version += 1;
        self.next_version
    }

    /// Register a base table under `name`.
    pub fn register(&mut self, name: impl Into<String>, table: Table) -> Result<()> {
        self.register_arc(name, Arc::new(table))
    }

    /// [`Catalog::register`] from an [`Arc`] handle — no row data is
    /// copied.
    pub fn register_arc(&mut self, name: impl Into<String>, table: Arc<Table>) -> Result<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(StorageError::TableExists(name));
        }
        self.insert(name, table);
        Ok(())
    }

    /// (Re)place the entry `name` with a fresh version of `table`, no
    /// indexes and no append history; returns the version.
    fn insert(&mut self, name: String, table: Arc<Table>) -> u64 {
        let version = self.bump_version();
        self.delta_logs.remove(&name);
        self.tables.insert(
            name,
            TableEntry {
                table,
                indexes: Vec::new(),
                version,
            },
        );
        version
    }

    /// Register `table` under `name`, replacing any existing table of
    /// that name. The old entry's indexes are dropped: they describe the
    /// old data. A previously sharded entry is unsharded — its shard
    /// entries and descriptor go away. Returns the new version.
    pub fn replace(&mut self, name: impl Into<String>, table: Table) -> Result<u64> {
        let name = name.into();
        self.drop_shards(&name);
        Ok(self.insert(name, Arc::new(table)))
    }

    /// Register a base table split into `shards` hash-disjoint parts
    /// (see [`crate::shard`]). The full contiguous table is registered
    /// under `name` as usual; each part becomes a hidden base entry with
    /// its own version. `key_cols` picks the routing columns; `None`
    /// selects the highest-cardinality column automatically. A shard
    /// count of 0 or 1 degrades to a plain [`Catalog::register`].
    pub fn register_sharded(
        &mut self,
        name: impl Into<String>,
        table: Table,
        shards: u32,
        key_cols: Option<Vec<String>>,
    ) -> Result<()> {
        let name = name.into();
        if shards <= 1 {
            return self.register(name, table);
        }
        if self.tables.contains_key(&name) {
            return Err(StorageError::TableExists(name));
        }
        let (key_cols, parts) = self.shard_parts(&name, &table, shards, key_cols)?;
        self.attach_shards(&name, key_cols, parts);
        self.register(name, table)
    }

    /// [`Catalog::register_sharded`] with replace semantics: any
    /// existing base entry (sharded or not) of this name is superseded.
    /// Returns the new version of the logical table. The key is picked
    /// and the table split before anything is removed, so an error
    /// leaves every entry as it was.
    pub fn replace_sharded(
        &mut self,
        name: &str,
        table: Table,
        shards: u32,
        key_cols: Option<Vec<String>>,
    ) -> Result<u64> {
        let sharded = if shards > 1 {
            Some(self.shard_parts(name, &table, shards, key_cols)?)
        } else {
            None
        };
        self.drop_shards(name);
        if let Some((key_cols, parts)) = sharded {
            self.attach_shards(name, key_cols, parts);
        }
        Ok(self.insert(name.to_string(), Arc::new(table)))
    }

    /// Sharding metadata for `name`, if it was registered sharded.
    pub fn shard_desc(&self, name: &str) -> Option<&ShardDesc> {
        self.shard_descs.get(name)
    }

    /// Pick `name`'s shard key and split `table` into its shard parts,
    /// changing nothing. Fails on an unknown key column, a shard count
    /// that is not a power of two, a zero-column table, or a shard name
    /// held by an entry that is not one of `name`'s own shards.
    fn shard_parts(
        &self,
        name: &str,
        table: &Table,
        shards: u32,
        key_cols: Option<Vec<String>>,
    ) -> Result<(Vec<String>, Vec<Table>)> {
        let key_cols = match key_cols {
            Some(k) if !k.is_empty() => k,
            _ => vec![select_shard_key(table).ok_or_else(|| {
                StorageError::Malformed(format!("cannot shard zero-column table {name}"))
            })?],
        };
        let own = self.shard_descs.get(name).map_or(0, |d| d.shard_count);
        for s in own..shards {
            let shard_name = shard_table_name(name, s);
            if self.tables.contains_key(&shard_name) {
                return Err(StorageError::TableExists(shard_name));
            }
        }
        let parts = split_table(table, &key_cols, shards)?;
        Ok((key_cols, parts))
    }

    /// Register the parts [`Catalog::shard_parts`] made as shard entries
    /// and record the descriptor. The logical entry itself is the
    /// caller's business.
    fn attach_shards(&mut self, name: &str, key_cols: Vec<String>, parts: Vec<Table>) {
        let shard_count = parts.len() as u32;
        for (s, part) in parts.into_iter().enumerate() {
            self.insert(shard_table_name(name, s as u32), Arc::new(part));
        }
        self.shard_descs.insert(
            name.to_string(),
            ShardDesc {
                key_cols,
                shard_count,
            },
        );
    }

    /// Remove `name`'s shard entries and descriptor, if any.
    fn drop_shards(&mut self, name: &str) {
        if let Some(desc) = self.shard_descs.remove(name) {
            for s in 0..desc.shard_count {
                let sname = shard_table_name(name, s);
                self.tables.remove(&sname);
                self.delta_logs.remove(&sname);
            }
        }
    }

    /// Append `rows` (same schema) to base table `name`, producing a new
    /// generation: the catalog's own columns grow in place, the version
    /// bumps, a [`DeltaDesc`] is logged and existing indexes are dropped
    /// (they describe the old rows). The cost is the delta's size, not
    /// the table's — unless someone still holds the pre-append table (an
    /// `Arc` from [`Catalog::table_arc`], or a `Table` clone sharing its
    /// columns): that holder keeps seeing exactly the old rows, and this
    /// append pays one copy of the table to leave them alone. On a
    /// sharded table the delta is routed by the shard key and appended
    /// to the receiving shard entries only — shards no delta row landed
    /// in keep their version, so their cached aggregates stay warm.
    /// Everything that can fail is checked before the first row is
    /// written, so an error leaves every entry as it was. Returns the new
    /// version of the logical table.
    pub fn append(&mut self, name: &str, rows: Table) -> Result<u64> {
        self.check_append(name, &rows)?;
        let parts = match self.shard_descs.get(name) {
            Some(desc) => {
                for s in 0..desc.shard_count {
                    self.check_append(&shard_table_name(name, s), &rows)?;
                }
                split_table(&rows, &desc.key_cols, desc.shard_count)?
            }
            None => Vec::new(),
        };
        for (s, part) in parts.iter().enumerate() {
            if part.num_rows() > 0 {
                self.grow(&shard_table_name(name, s as u32), part);
            }
        }
        Ok(self.grow(name, &rows))
    }

    /// The checks of [`Catalog::append`] for one entry: `name` is a table
    /// with `rows`' schema.
    fn check_append(&self, name: &str, rows: &Table) -> Result<()> {
        if self.get(name)?.table.schema() != rows.schema() {
            return Err(StorageError::Malformed(format!(
                "append to {name}: schema mismatch"
            )));
        }
        Ok(())
    }

    /// Grow one entry that passed [`Catalog::check_append`] by `rows`;
    /// returns its new version.
    fn grow(&mut self, name: &str, rows: &Table) -> u64 {
        let version = self.bump_version();
        let entry = self.tables.get_mut(name).expect("checked by check_append");
        let desc = DeltaDesc {
            from_version: entry.version,
            to_version: version,
            base_rows: entry.table.num_rows(),
            delta_rows: rows.num_rows(),
        };
        Arc::make_mut(&mut entry.table)
            .append(rows)
            .expect("schema checked by check_append");
        entry.indexes.clear();
        entry.version = version;
        let log = self.delta_logs.entry(name.to_string()).or_default();
        log.push(desc);
        // Compaction: drop the oldest descriptors once the log outgrows
        // its bound. Consumers behind the surviving chain head can no
        // longer catch up incrementally and fall back to recompute.
        if log.len() > MAX_DELTA_LOG {
            let excess = log.len() - MAX_DELTA_LOG;
            log.drain(..excess);
        }
        version
    }

    /// The append history of `name` still retained (oldest first). Empty
    /// for tables that were never appended to (or whose log was cleared
    /// by replace/remove).
    pub fn delta_log(&self, name: &str) -> &[DeltaDesc] {
        self.delta_logs.get(name).map_or(&[], |v| v.as_slice())
    }

    /// Resolve the contiguous appended row range between `since_version`
    /// (a consumer's snapshot of table `name`) and the table's current
    /// version. Returns `None` when the consumer cannot catch up
    /// incrementally: its version precedes the retained log (compacted
    /// away), the table was replaced (log cleared), or the chain does
    /// not link up to the current version. A consumer already at the
    /// current version gets an empty range.
    pub fn delta_chain(&self, name: &str, since_version: u64) -> Option<DeltaRange> {
        let current = self.tables.get(name)?.version;
        if since_version == current {
            return Some(DeltaRange {
                start_row: self.tables[name].table.num_rows(),
                rows: 0,
                to_version: current,
            });
        }
        let log = self.delta_logs.get(name)?;
        let first = log.iter().position(|d| d.from_version == since_version)?;
        let mut rows = 0usize;
        let mut at = since_version;
        for d in &log[first..] {
            if d.from_version != at {
                return None; // chain broken (should not happen in practice)
            }
            rows += d.delta_rows;
            at = d.to_version;
        }
        if at != current {
            return None;
        }
        Some(DeltaRange {
            start_row: log[first].base_rows,
            rows,
            to_version: current,
        })
    }

    /// Remove a table, with its shard entries and append history.
    pub fn remove(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))?;
        self.delta_logs.remove(name);
        self.drop_shards(name);
        Ok(())
    }

    /// The version of table `name` (see [`TableEntry::version`]).
    pub fn table_version(&self, name: &str) -> Result<u64> {
        Ok(self.get(name)?.version)
    }

    /// Every entry by name — base tables and the shard entries of
    /// sharded ones — in no particular order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &TableEntry)> {
        self.tables
            .iter()
            .map(|(name, entry)| (name.as_str(), entry))
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Result<&TableEntry> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// Table `name` as the catalog holds it now, with its indexes and
    /// shard entries.
    pub fn snapshot(&self, name: &str) -> Result<Snapshot> {
        let entry = self.get(name)?;
        let (shard_key, shards) = match self.shard_descs.get(name) {
            Some(desc) => {
                let shards = (0..desc.shard_count)
                    .map(|s| {
                        let shard = shard_table_name(name, s);
                        let e = self.get(&shard)?;
                        Ok((shard, e.version, e.table.num_rows()))
                    })
                    .collect::<Result<_>>()?;
                (desc.key_cols.clone(), shards)
            }
            None => Default::default(),
        };
        Ok(Snapshot {
            name: name.to_string(),
            version: entry.version,
            table: Arc::clone(&entry.table),
            indexes: entry
                .indexes
                .iter()
                .map(|i| (i.key_cols.clone(), i.kind))
                .collect(),
            shard_key,
            shards,
            reads: Vec::new(),
        })
    }

    /// Look up just the table data.
    pub fn table(&self, name: &str) -> Result<&Table> {
        Ok(self.get(name)?.table.as_ref())
    }

    /// Look up a table as a cheap owned handle (an [`Arc`] clone — no
    /// row data is copied). Use this instead of `table(..)?.clone()`
    /// when an operator needs ownership, e.g. to outlive a later
    /// catalog mutation.
    pub fn table_arc(&self, name: &str) -> Result<Arc<Table>> {
        Ok(Arc::clone(&self.get(name)?.table))
    }

    /// True if `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Build and attach an index to table `name`.
    pub fn create_index(
        &mut self,
        table_name: &str,
        index_name: impl Into<String>,
        kind: IndexKind,
        key_cols: Vec<usize>,
    ) -> Result<()> {
        let index_name = index_name.into();
        let entry = self
            .tables
            .get_mut(table_name)
            .ok_or_else(|| StorageError::TableNotFound(table_name.to_string()))?;
        if entry.indexes.iter().any(|i| i.name == index_name) {
            return Err(StorageError::Malformed(format!(
                "index {index_name} already exists on {table_name}"
            )));
        }
        let index = Index::build(index_name, kind, &entry.table, key_cols);
        entry.indexes.push(index);
        Ok(())
    }

    /// Drop all indexes from a table.
    pub fn drop_indexes(&mut self, table_name: &str) -> Result<()> {
        let entry = self
            .tables
            .get_mut(table_name)
            .ok_or_else(|| StorageError::TableNotFound(table_name.to_string()))?;
        entry.indexes.clear();
        Ok(())
    }

    /// The best index of `table_name` whose order serves a grouping on
    /// `cols` (non-clustered preferred — it is narrower).
    pub fn index_serving(&self, table_name: &str, cols: &[usize]) -> Option<&Index> {
        let entry = self.tables.get(table_name)?;
        let mut best: Option<&Index> = None;
        for idx in &entry.indexes {
            if idx.serves_grouping(cols) {
                match (best, idx.kind) {
                    (None, _) => best = Some(idx),
                    (Some(b), IndexKind::NonClustered) if b.kind == IndexKind::Clustered => {
                        best = Some(idx)
                    }
                    _ => {}
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, ColumnData};
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};

    fn tiny(n: i64) -> Table {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
        Table::new(schema, vec![Column::from_i64((0..n).collect())]).unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register("t", tiny(3)).unwrap();
        assert!(c.contains("t"));
        assert_eq!(c.table("t").unwrap().num_rows(), 3);
        assert!(matches!(
            c.table("missing"),
            Err(StorageError::TableNotFound(_))
        ));
        assert!(matches!(
            c.register("t", tiny(1)),
            Err(StorageError::TableExists(_))
        ));
    }

    #[test]
    fn versions_are_monotonic_across_register_replace_append() {
        let mut c = Catalog::new();
        c.register("t", tiny(3)).unwrap();
        let v1 = c.table_version("t").unwrap();
        assert!(v1 > 0, "versions start above the 0 sentinel");

        let v2 = c.replace("t", tiny(5)).unwrap();
        assert!(v2 > v1, "replace must bump the version");
        assert_eq!(c.table_version("t").unwrap(), v2);
        assert_eq!(c.table("t").unwrap().num_rows(), 5);

        let v3 = c.append("t", tiny(2)).unwrap();
        assert!(v3 > v2, "append must bump the version");
        assert_eq!(c.table("t").unwrap().num_rows(), 7);

        // distinct tables never share a version
        c.register("u", tiny(1)).unwrap();
        assert_ne!(c.table_version("u").unwrap(), v3);
        assert!(c.table_version("ghost").is_err());
    }

    #[test]
    fn replace_drops_stale_indexes() {
        let mut c = Catalog::new();
        c.register("t", tiny(4)).unwrap();
        c.create_index("t", "ix", IndexKind::Clustered, vec![0])
            .unwrap();
        c.replace("t", tiny(6)).unwrap();
        assert!(
            c.index_serving("t", &[0]).is_none(),
            "indexes describe the old data and must not survive a replace"
        );
        // replace also works as plain registration of a new name
        c.replace("fresh", tiny(1)).unwrap();
        assert!(c.contains("fresh"));
    }

    #[test]
    fn append_requires_matching_schema() {
        let mut c = Catalog::new();
        c.register("t", tiny(2)).unwrap();
        let other = Table::new(
            Schema::new(vec![Field::new("y", DataType::Int64)]).unwrap(),
            vec![Column::from_i64(vec![1])],
        )
        .unwrap();
        assert!(c.append("t", other).is_err());
        assert!(c.append("ghost", tiny(1)).is_err());
    }

    /// `x` (Int64), `s` (Utf8 over `alphabet` strings, NULL every fifth
    /// row) for `x` in `rows`.
    fn mixed(rows: std::ops::Range<i64>, alphabet: i64) -> Table {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int64),
            Field::new("s", DataType::Utf8),
        ])
        .unwrap();
        let mut b = crate::table::TableBuilder::new(schema);
        for x in rows {
            let s = if x % 5 == 4 {
                Value::Null
            } else {
                Value::str(&format!("s{}", x % alphabet))
            };
            b.push_row(&[Value::Int(x), s]).unwrap();
        }
        b.finish().unwrap()
    }

    fn cells(t: &Table) -> Vec<Vec<Value>> {
        (0..t.num_rows())
            .map(|r| (0..t.num_columns()).map(|c| t.value(r, c)).collect())
            .collect()
    }

    /// The dictionary of [`mixed`]'s string column.
    fn dict_of(t: &Table) -> &Arc<crate::dictionary::Dictionary> {
        match t.column(1).data() {
            ColumnData::Utf8 { dict, .. } => dict,
            other => panic!("expected Utf8, got {other:?}"),
        }
    }

    #[test]
    fn failed_append_changes_nothing() {
        let mut c = Catalog::new();
        c.register_sharded("t", mixed(0..40, 3), 4, Some(vec!["x".into()]))
            .unwrap();
        c.register("u", mixed(0..3, 3)).unwrap();
        c.append("t", mixed(40..48, 5)).unwrap();
        let mut names: Vec<String> = (0..4).map(|s| shard_table_name("t", s)).collect();
        names.push("t".into());
        names.push("u".into());
        let state =
            |c: &Catalog, names: &[String]| -> Vec<(u64, Vec<Vec<Value>>, Vec<DeltaDesc>)> {
                names
                    .iter()
                    .map(|n| {
                        let e = c.get(n).unwrap();
                        (e.version, cells(&e.table), c.delta_log(n).to_vec())
                    })
                    .collect()
            };
        let before = state(&c, &names);

        // wrong schema, unknown target
        assert!(c.append("t", tiny(2)).is_err());
        assert!(c.append("u", tiny(2)).is_err());
        assert!(matches!(
            c.append("ghost", mixed(0..2, 3)),
            Err(StorageError::TableNotFound(_))
        ));
        assert_eq!(state(&c, &names), before);

        // a shard entry gone missing: refused before the shards that do
        // exist, or the logical entry, take a row
        c.remove(&names[3]).unwrap();
        names.remove(3);
        let before = state(&c, &names);
        assert!(matches!(
            c.append("t", mixed(48..80, 5)),
            Err(StorageError::TableNotFound(_))
        ));
        assert_eq!(state(&c, &names), before);
    }

    #[test]
    fn failed_replace_changes_nothing() {
        let mut c = Catalog::new();
        c.register_sharded("t", mixed(0..40, 3), 4, Some(vec!["x".into()]))
            .unwrap();
        c.append("t", mixed(40..48, 5)).unwrap();
        let mut names: Vec<String> = (0..4).map(|s| shard_table_name("t", s)).collect();
        names.push("t".into());
        let state = |c: &Catalog| {
            let entries: Vec<(u64, Vec<Vec<Value>>, Vec<DeltaDesc>)> = names
                .iter()
                .map(|n| {
                    let e = c.get(n).unwrap();
                    (e.version, cells(&e.table), c.delta_log(n).to_vec())
                })
                .collect();
            (entries, c.shard_desc("t").cloned())
        };
        let before = state(&c);
        assert!(before.1.is_some());

        let no_columns = Table::new(Schema::new(vec![]).unwrap(), vec![]).unwrap();
        for (table, shards, key) in [
            (mixed(0..9, 3), 4, Some(vec!["nope".to_string()])),
            (mixed(0..9, 3), 3, Some(vec!["x".to_string()])),
            (no_columns, 4, None),
        ] {
            assert!(c.replace_sharded("t", table, shards, key).is_err());
            assert_eq!(state(&c), before);
        }
    }

    #[test]
    fn append_leaves_snapshots_alone_and_then_grows_in_place() {
        let mut c = Catalog::new();
        let base = mixed(0..20, 3);
        c.register("t", base.clone()).unwrap(); // a clone shares the columns
        let arc = c.table_arc("t").unwrap();
        let v0 = c.table_version("t").unwrap();
        let old_cells = cells(&base);

        // a delta with its own dictionary and strings the base lacks
        let d1 = mixed(20..27, 7);
        c.append("t", d1.clone()).unwrap();
        for held in [&base, arc.as_ref()] {
            assert_eq!(held.num_rows(), 20);
            assert_eq!(cells(held), old_cells);
            assert_eq!(dict_of(held).len(), 3);
        }
        assert_eq!(c.table("t").unwrap().num_rows(), 27);
        assert_eq!(dict_of(c.table("t").unwrap()).len(), 6);

        // holders gone: appends of known strings write where the columns
        // are and leave the dictionary alone
        drop((base, arc));
        let own = c.table("t").unwrap().columns().as_ptr();
        let dict = Arc::clone(dict_of(c.table("t").unwrap()));
        let d2 = mixed(27..30, 7);
        let d3 = mixed(30..41, 3);
        c.append("t", d2.clone()).unwrap();
        c.append("t", d3.clone()).unwrap();
        let t = c.table("t").unwrap();
        assert_eq!(t.columns().as_ptr(), own);
        assert!(Arc::ptr_eq(dict_of(t), &dict));
        assert_eq!(c.delta_log("t").len(), 3);

        // the chain over the grown table is exactly the appended rows
        let r = c.delta_chain("t", v0).unwrap();
        assert_eq!((r.start_row, r.rows), (20, 21));
        let appended = t.slice_rows(r.start_row, r.rows).unwrap();
        let want = Table::concat(&[&d1, &d2, &d3]).unwrap();
        assert_eq!(cells(&appended), cells(&want));
        assert_eq!(cells(t)[..20], old_cells[..]);
    }

    #[test]
    fn register_arc_and_remove() {
        let mut c = Catalog::new();
        let shared = Arc::new(tiny(9));
        c.register_arc("pin", Arc::clone(&shared)).unwrap();
        assert_eq!(c.table("pin").unwrap().num_rows(), 9);
        // no deep copy: same allocation
        assert!(Arc::ptr_eq(&c.table_arc("pin").unwrap(), &shared));
        assert!(matches!(
            c.register_arc("pin", shared),
            Err(StorageError::TableExists(_))
        ));
        assert_eq!(c.entries().count(), 1);
        c.remove("pin").unwrap();
        assert!(!c.contains("pin"));
        assert!(c.remove("pin").is_err());
        assert_eq!(c.entries().count(), 0);
    }

    #[test]
    fn index_creation_and_selection() {
        let mut c = Catalog::new();
        c.register("t", tiny(5)).unwrap();
        c.create_index("t", "cx", IndexKind::Clustered, vec![0])
            .unwrap();
        assert!(c.index_serving("t", &[0]).is_some());
        assert_eq!(
            c.index_serving("t", &[0]).unwrap().kind,
            IndexKind::Clustered
        );
        // non-clustered on same column is preferred (narrower)
        c.create_index("t", "ncx", IndexKind::NonClustered, vec![0])
            .unwrap();
        assert_eq!(
            c.index_serving("t", &[0]).unwrap().kind,
            IndexKind::NonClustered
        );
        assert!(c.index_serving("t", &[1]).is_none());
        assert!(c
            .create_index("t", "cx", IndexKind::Clustered, vec![0])
            .is_err());
        c.drop_indexes("t").unwrap();
        assert!(c.index_serving("t", &[0]).is_none());
    }

    #[test]
    fn sharded_register_append_and_cleanup() {
        let mut c = Catalog::new();
        c.register_sharded("t", tiny(64), 4, None).unwrap();
        assert_eq!(c.entries().count(), 5, "the logical entry and four shards");
        let desc = c.shard_desc("t").unwrap().clone();
        assert_eq!(desc.shard_count, 4);
        assert_eq!(desc.key_cols, vec!["x".to_string()]);
        let total: usize = (0..4)
            .map(|s| {
                c.table(&crate::shard::shard_table_name("t", s))
                    .unwrap()
                    .num_rows()
            })
            .sum();
        assert_eq!(total, 64);

        // append a narrow delta: only receiving shards bump
        let before: Vec<u64> = (0..4)
            .map(|s| {
                c.table_version(&crate::shard::shard_table_name("t", s))
                    .unwrap()
            })
            .collect();
        let logical_before = c.table_version("t").unwrap();
        c.append("t", tiny(1)).unwrap(); // single row: exactly one shard receives it
        assert!(c.table_version("t").unwrap() > logical_before);
        assert_eq!(c.table("t").unwrap().num_rows(), 65);
        let bumped: Vec<u32> = (0..4)
            .filter(|&s| {
                c.table_version(&crate::shard::shard_table_name("t", s))
                    .unwrap()
                    > before[s as usize]
            })
            .collect();
        assert_eq!(bumped.len(), 1, "one-row delta must touch one shard");
        let total: usize = (0..4)
            .map(|s| {
                c.table(&crate::shard::shard_table_name("t", s))
                    .unwrap()
                    .num_rows()
            })
            .sum();
        assert_eq!(total, 65);

        // remove cleans up shard entries and the descriptor
        c.remove("t").unwrap();
        assert!(c.shard_desc("t").is_none());
        for s in 0..4 {
            assert!(!c.contains(&crate::shard::shard_table_name("t", s)));
        }
    }

    #[test]
    fn replace_sharded_and_unshard() {
        let mut c = Catalog::new();
        c.register("t", tiny(8)).unwrap();
        let v = c.replace_sharded("t", tiny(32), 2, None).unwrap();
        assert_eq!(c.table_version("t").unwrap(), v);
        assert!(c.shard_desc("t").is_some());
        assert!(c.contains(&crate::shard::shard_table_name("t", 0)));
        // plain replace unshards
        c.replace("t", tiny(4)).unwrap();
        assert!(c.shard_desc("t").is_none());
        assert!(!c.contains(&crate::shard::shard_table_name("t", 0)));
        // shards <= 1 degrades to plain registration
        c.register_sharded("u", tiny(4), 1, None).unwrap();
        assert!(c.shard_desc("u").is_none());
        // non-power-of-two rejected
        assert!(c.register_sharded("w", tiny(4), 6, None).is_err());
    }

    #[test]
    fn delta_chain_resolves_append_ranges() {
        let mut c = Catalog::new();
        c.register("t", tiny(10)).unwrap();
        let v0 = c.table_version("t").unwrap();
        assert_eq!(c.delta_log("t").len(), 0);
        // caught-up consumer: empty range at the current end
        let r = c.delta_chain("t", v0).unwrap();
        assert_eq!((r.start_row, r.rows, r.to_version), (10, 0, v0));

        let v1 = c.append("t", tiny(4)).unwrap();
        let v2 = c.append("t", tiny(6)).unwrap();
        assert_eq!(c.delta_log("t").len(), 2);

        // from v0: both appends combine into one contiguous range
        let r = c.delta_chain("t", v0).unwrap();
        assert_eq!((r.start_row, r.rows, r.to_version), (10, 10, v2));
        // from v1: only the second append
        let r = c.delta_chain("t", v1).unwrap();
        assert_eq!((r.start_row, r.rows, r.to_version), (14, 6, v2));
        // unknown / pre-history versions cannot catch up
        assert!(c.delta_chain("t", 0).is_none());
        assert!(c.delta_chain("t", v2 + 1).is_none());
        assert!(c.delta_chain("ghost", v0).is_none());

        // replace severs the chain entirely
        let v3 = c.replace("t", tiny(3)).unwrap();
        assert!(c.delta_chain("t", v0).is_none());
        assert!(c.delta_chain("t", v2).is_none());
        assert_eq!(c.delta_log("t").len(), 0);
        assert_eq!(c.delta_chain("t", v3).unwrap().rows, 0);
    }

    #[test]
    fn delta_log_compacts_past_the_bound() {
        let mut c = Catalog::new();
        c.register("t", tiny(1)).unwrap();
        let v0 = c.table_version("t").unwrap();
        let mut mid = 0;
        for i in 0..(MAX_DELTA_LOG + 8) {
            if i == 8 {
                mid = c.table_version("t").unwrap();
            }
            c.append("t", tiny(1)).unwrap();
        }
        assert_eq!(c.delta_log("t").len(), MAX_DELTA_LOG);
        // the oldest chain head was compacted away; a recent one survives
        assert!(c.delta_chain("t", v0).is_none());
        let r = c.delta_chain("t", mid).unwrap();
        assert_eq!(r.rows, MAX_DELTA_LOG);
        assert_eq!(r.start_row, 1 + 8);
    }

    /// The exact compaction boundary: the log retains precisely
    /// [`MAX_DELTA_LOG`] descriptors, so the 64th append still resolves
    /// from the original registration version and the 65th is the first
    /// that compacts the oldest descriptor away.
    #[test]
    fn delta_log_boundary_at_exactly_max_entries() {
        let mut c = Catalog::new();
        c.register("t", tiny(2)).unwrap();
        let v0 = c.table_version("t").unwrap();
        for _ in 0..MAX_DELTA_LOG {
            c.append("t", tiny(1)).unwrap();
        }
        // exactly at the bound: nothing compacted, the whole history
        // folds into one contiguous range from the registration version
        assert_eq!(c.delta_log("t").len(), MAX_DELTA_LOG);
        let current = c.table_version("t").unwrap();
        let r = c.delta_chain("t", v0).unwrap();
        assert_eq!(
            (r.start_row, r.rows, r.to_version),
            (2, MAX_DELTA_LOG, current)
        );

        // one more append crosses the bound: the oldest descriptor is
        // dropped, so the pre-compaction consumer can no longer catch up
        // incrementally, while a consumer at the new chain head can
        let v1 = c.delta_log("t")[0].to_version;
        c.append("t", tiny(1)).unwrap();
        assert_eq!(c.delta_log("t").len(), MAX_DELTA_LOG);
        assert!(
            c.delta_chain("t", v0).is_none(),
            "compacted-away chain head must force a recompute"
        );
        let r = c.delta_chain("t", v1).unwrap();
        assert_eq!(r.rows, MAX_DELTA_LOG);
        assert_eq!(r.start_row, 3, "range starts after base + first delta");
    }

    #[test]
    fn sharded_append_logs_per_shard_deltas() {
        let mut c = Catalog::new();
        c.register_sharded("t", tiny(64), 4, None).unwrap();
        let before: Vec<u64> = (0..4)
            .map(|s| {
                c.table_version(&crate::shard::shard_table_name("t", s))
                    .unwrap()
            })
            .collect();
        c.append("t", tiny(1)).unwrap();
        // exactly the receiving shard gained a delta descriptor whose
        // range matches its pre-append row count
        let mut logged = 0;
        for s in 0..4u32 {
            let sname = crate::shard::shard_table_name("t", s);
            let log = c.delta_log(&sname);
            if log.is_empty() {
                continue;
            }
            logged += 1;
            let r = c.delta_chain(&sname, before[s as usize]).unwrap();
            assert_eq!(r.rows, 1);
            assert_eq!(
                r.start_row + 1,
                c.table(&sname).unwrap().num_rows(),
                "delta range must sit at the shard's tail"
            );
        }
        assert_eq!(logged, 1);
        // remove clears shard logs too
        c.remove("t").unwrap();
        assert_eq!(
            c.delta_log(&crate::shard::shard_table_name("t", 0)).len(),
            0
        );
    }
}
