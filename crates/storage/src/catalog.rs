//! The catalog: named base tables with their indexes, contents versions
//! and append logs, and for a sharded table the row selection of each
//! shard. Every table is resident once. It holds nothing a query
//! computes — plan intermediates belong to the execution that scheduled
//! them — so only registration, append and resharding write it.

use crate::error::{Result, StorageError};
use crate::index::{Index, IndexKind};
use crate::shard::{select_shard_key, shard_rows, Shard, ShardDesc};
use crate::table::Table;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// A catalog entry: a table plus its indexes, its append history and,
/// when sharded, its shards — each a row selection of the table, which
/// is resident once.
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
    /// Append history (see [`DeltaDesc`]), bounded at [`MAX_DELTA_LOG`];
    /// a replacement starts a new entry, whose contents share no row
    /// prefix with the old.
    log: Vec<DeltaDesc>,
    /// How the table is split; `None` when unsharded.
    sharding: Option<Sharding>,
}

/// One append's footprint on a table: which contiguous row range the
/// delta occupies and which version interval it spans. The catalog keeps
/// a bounded log of these per base table, and per shard of a sharded
/// table in the shard's own row coordinates (positions in its row-id
/// list: a shard's delta is the tail of its list), so consumers holding
/// an aggregate computed at an older version can re-aggregate *only the
/// appended rows* and merge, instead of recomputing from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaDesc {
    /// Version of the table immediately before the append.
    pub from_version: u64,
    /// Version assigned by the append.
    pub to_version: u64,
    /// Rows the table (or shard) held before the append — the delta's
    /// first row.
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
    /// Each shard's rows of `table` and version, in shard order; empty
    /// when unsharded.
    pub shards: Vec<Shard>,
    /// The catalog tables a derived relation was computed from, each
    /// with the contents version it was read at; empty for a catalog
    /// table's own snapshot.
    pub reads: Vec<(String, u64)>,
}

impl Snapshot {
    /// A relation computed for one request from the catalog tables
    /// `reads`: keyed by `name`, valid at its source's contents
    /// `version`, unsharded and index-free.
    pub fn derived(name: String, version: u64, table: Table, reads: Vec<(String, u64)>) -> Self {
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
    /// Source of [`TableEntry::version`] and [`Shard::version`] values;
    /// starts at 1 so version 0 can mean "no such table" in callers that
    /// want a sentinel.
    next_version: u64,
}

/// A sharded table's split: its descriptor, and per shard its rows with
/// their own version (so per-shard cached aggregates invalidate
/// independently) and append history in the shard's row coordinates.
#[derive(Debug, Clone)]
struct Sharding {
    desc: ShardDesc,
    shards: Vec<Shard>,
    logs: Vec<Vec<DeltaDesc>>,
}

/// Log an append of `delta_rows` rows to `base_rows` that moved a table
/// or shard from version `from_version` to `to_version`, dropping the
/// oldest descriptors once the log outgrows [`MAX_DELTA_LOG`]: consumers
/// behind the surviving chain head can no longer catch up incrementally
/// and fall back to recompute.
fn log_append(
    log: &mut Vec<DeltaDesc>,
    from_version: u64,
    to_version: u64,
    base_rows: usize,
    delta_rows: usize,
) {
    log.push(DeltaDesc {
        from_version,
        to_version,
        base_rows,
        delta_rows,
    });
    if log.len() > MAX_DELTA_LOG {
        let excess = log.len() - MAX_DELTA_LOG;
        log.drain(..excess);
    }
}

/// The contiguous appended range `log` records between `since` and
/// `current`, the version of a table or shard now holding `rows` rows;
/// see [`Catalog::delta_chain`].
fn chain(log: &[DeltaDesc], since: u64, current: u64, rows: usize) -> Option<DeltaRange> {
    if since == current {
        return Some(DeltaRange {
            start_row: rows,
            rows: 0,
            to_version: current,
        });
    }
    let first = log.iter().position(|d| d.from_version == since)?;
    let mut appended = 0usize;
    let mut at = since;
    for d in &log[first..] {
        if d.from_version != at {
            return None; // chain broken (should not happen in practice)
        }
        appended += d.delta_rows;
        at = d.to_version;
    }
    (at == current).then_some(DeltaRange {
        start_row: log[first].base_rows,
        rows: appended,
        to_version: current,
    })
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
        self.insert(name, table, None);
        Ok(())
    }

    /// (Re)place the entry `name` with a fresh version of `table`, split
    /// as `sharding` says, with no indexes and no append history; returns
    /// the version.
    fn insert(&mut self, name: String, table: Arc<Table>, sharding: Option<Sharding>) -> u64 {
        let version = self.bump_version();
        let entry = TableEntry {
            table,
            indexes: Vec::new(),
            version,
            log: Vec::new(),
            sharding,
        };
        self.tables.insert(name, entry);
        version
    }

    /// Register `table` under `name`, replacing any existing table of
    /// that name. The old entry's indexes are dropped: they describe the
    /// old data. A previously sharded table is unsharded. Returns the new
    /// version.
    pub fn replace(&mut self, name: impl Into<String>, table: Table) -> Result<u64> {
        self.replace_sharded(&name.into(), table, 1, None)
    }

    /// Register a base table split into `shards` hash-disjoint shards
    /// (see [`crate::shard`]). The table is registered under `name` as
    /// usual; each shard is the list of its rows' ids, with its own
    /// version. `key_cols` picks the routing columns; `None` selects the
    /// highest-cardinality column automatically. A shard count of 0 or 1
    /// degrades to a plain [`Catalog::register`].
    pub fn register_sharded(
        &mut self,
        name: impl Into<String>,
        table: Table,
        shards: u32,
        key_cols: Option<Vec<String>>,
    ) -> Result<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(StorageError::TableExists(name));
        }
        self.replace_sharded(&name, table, shards, key_cols)
            .map(drop)
    }

    /// [`Catalog::register_sharded`] with replace semantics: any
    /// existing base entry (sharded or not) of this name is superseded.
    /// Returns the new version of the table. The key is picked and the
    /// rows routed before anything is removed, so an error leaves every
    /// entry as it was.
    pub fn replace_sharded(
        &mut self,
        name: &str,
        table: Table,
        shards: u32,
        key_cols: Option<Vec<String>>,
    ) -> Result<u64> {
        let sharding = self.split(name, &table, shards, key_cols)?;
        Ok(self.insert(name.to_string(), Arc::new(table), sharding))
    }

    /// Sharding metadata for `name`, if it was registered sharded.
    pub fn shard_desc(&self, name: &str) -> Option<&ShardDesc> {
        Some(&self.tables.get(name)?.sharding.as_ref()?.desc)
    }

    /// `table` split into `shards` shards under `name`'s key — `None` at
    /// a shard count of 0 or 1 — each with a fresh version and an empty
    /// append history. Writes nothing else; fails on an unknown key
    /// column, a shard count that is not a power of two, or a zero-column
    /// table.
    fn split(
        &mut self,
        name: &str,
        table: &Table,
        shards: u32,
        key_cols: Option<Vec<String>>,
    ) -> Result<Option<Sharding>> {
        if shards <= 1 {
            return Ok(None);
        }
        let key_cols = match key_cols {
            Some(k) if !k.is_empty() => k,
            _ => vec![select_shard_key(table).ok_or_else(|| {
                StorageError::Malformed(format!("cannot shard zero-column table {name}"))
            })?],
        };
        let shards: Vec<Shard> = (shard_rows(table, &key_cols, shards)?.into_iter())
            .map(|rows| Shard {
                rows: Arc::new(rows),
                version: self.bump_version(),
            })
            .collect();
        let shard_count = shards.len() as u32;
        Ok(Some(Sharding {
            desc: ShardDesc {
                key_cols,
                shard_count,
            },
            logs: vec![Vec::new(); shards.len()],
            shards,
        }))
    }

    /// Append `rows` (same schema) to base table `name`, producing a new
    /// generation: the catalog's own columns grow in place, the version
    /// bumps, a [`DeltaDesc`] is logged and existing indexes are dropped
    /// (they describe the old rows). The cost is the delta's size, not
    /// the table's — unless someone still holds the pre-append table (an
    /// `Arc` from [`Catalog::table_arc`], or a `Table` clone sharing its
    /// columns): that holder keeps seeing exactly the old rows, and this
    /// append pays one copy of the table to leave them alone. On a
    /// sharded table the delta is routed by the shard key, and each
    /// receiving shard's row-id list grows by the ids its rows took (with
    /// the same copy-on-write rule) and logs its own delta; shards no
    /// delta row landed in keep their version, so their cached aggregates
    /// stay warm. Every row is written once, into the table. Everything
    /// that can fail is checked before the first row is written, so an
    /// error leaves every entry as it was. Returns the new version of the
    /// table.
    pub fn append(&mut self, name: &str, rows: Table) -> Result<u64> {
        let entry = self.get(name)?;
        if entry.table.schema() != rows.schema() {
            return Err(StorageError::Malformed(format!(
                "append to {name}: schema mismatch"
            )));
        }
        let routed = match &entry.sharding {
            Some(s) => shard_rows(&rows, &s.desc.key_cols, s.desc.shard_count)?,
            None => Vec::new(),
        };
        let version = self.bump_version();
        let next = &mut self.next_version;
        let entry = self.tables.get_mut(name).expect("checked above");
        let first = entry.table.num_rows();
        if let Some(sharding) = &mut entry.sharding {
            let parts = sharding.shards.iter_mut().zip(&mut sharding.logs);
            for ((shard, log), delta) in parts.zip(routed).filter(|(_, d)| !d.is_empty()) {
                *next += 1;
                log_append(log, shard.version, *next, shard.rows.len(), delta.len());
                Arc::make_mut(&mut shard.rows).extend(delta.iter().map(|&r| first as u32 + r));
                shard.version = *next;
            }
        }
        log_append(
            &mut entry.log,
            entry.version,
            version,
            first,
            rows.num_rows(),
        );
        Arc::make_mut(&mut entry.table)
            .append(&rows)
            .expect("schema checked above");
        entry.indexes.clear();
        entry.version = version;
        Ok(version)
    }

    /// The append history of `name` still retained (oldest first). Empty
    /// for tables that were never appended to (or whose log was cleared
    /// by replace/remove).
    pub fn delta_log(&self, name: &str) -> &[DeltaDesc] {
        self.tables.get(name).map_or(&[], |e| e.log.as_slice())
    }

    /// Resolve the contiguous appended row range between `since_version`
    /// (a consumer's snapshot of table `name`, or with `shard` of that
    /// shard of it) and the current version — a shard's range in its own
    /// row coordinates, positions in its row-id list. Returns `None` when
    /// the consumer cannot catch up incrementally: its version precedes
    /// the retained log (compacted away), the table was replaced (log
    /// cleared), or the chain does not link up to the current version. A
    /// consumer already at the current version gets an empty range.
    pub fn delta_chain(
        &self,
        name: &str,
        shard: Option<u32>,
        since_version: u64,
    ) -> Option<DeltaRange> {
        let entry = self.tables.get(name)?;
        let Some(s) = shard else {
            let rows = entry.table.num_rows();
            return chain(&entry.log, since_version, entry.version, rows);
        };
        let sharding = entry.sharding.as_ref()?;
        let shard = sharding.shards.get(s as usize)?;
        let log = &sharding.logs[s as usize];
        chain(log, since_version, shard.version, shard.rows.len())
    }

    /// Remove a table, with its shards and append history.
    pub fn remove(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))?;
        Ok(())
    }

    /// The version of table `name` (see [`TableEntry::version`]).
    pub fn table_version(&self, name: &str) -> Result<u64> {
        Ok(self.get(name)?.version)
    }

    /// Every table by name, in no particular order: one entry per
    /// table, sharded or not.
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
    /// shards.
    pub fn snapshot(&self, name: &str) -> Result<Snapshot> {
        let entry = self.get(name)?;
        let (shard_key, shards) = match &entry.sharding {
            Some(s) => (s.desc.key_cols.clone(), s.shards.clone()),
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
    use crate::shard::route_rows;
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

    /// Each named table's version, cells and append log, and `t`'s
    /// shards.
    type State = (Vec<(u64, Vec<Vec<Value>>, Vec<DeltaDesc>)>, Vec<Shard>);

    /// What a failed write must leave alone.
    fn state(c: &Catalog, names: &[&str]) -> State {
        let entries = names
            .iter()
            .map(|n| {
                let e = c.get(n).unwrap();
                (e.version, cells(&e.table), c.delta_log(n).to_vec())
            })
            .collect();
        (entries, c.snapshot("t").unwrap().shards)
    }

    #[test]
    fn failed_append_changes_nothing() {
        let mut c = Catalog::new();
        c.register_sharded("t", mixed(0..40, 3), 4, Some(vec!["x".into()]))
            .unwrap();
        c.register("u", mixed(0..3, 3)).unwrap();
        c.append("t", mixed(40..48, 5)).unwrap();
        let before = state(&c, &["t", "u"]);

        // wrong schema, unknown target
        assert!(c.append("t", tiny(2)).is_err());
        assert!(c.append("u", tiny(2)).is_err());
        assert!(matches!(
            c.append("ghost", mixed(0..2, 3)),
            Err(StorageError::TableNotFound(_))
        ));
        assert_eq!(state(&c, &["t", "u"]), before);
    }

    #[test]
    fn failed_replace_changes_nothing() {
        let mut c = Catalog::new();
        c.register_sharded("t", mixed(0..40, 3), 4, Some(vec!["x".into()]))
            .unwrap();
        c.append("t", mixed(40..48, 5)).unwrap();
        let before = (state(&c, &["t"]), c.shard_desc("t").cloned());
        assert!(before.1.is_some());

        let no_columns = Table::new(Schema::new(vec![]).unwrap(), vec![]).unwrap();
        for (table, shards, key) in [
            (mixed(0..9, 3), 4, Some(vec!["nope".to_string()])),
            (mixed(0..9, 3), 3, Some(vec!["x".to_string()])),
            (no_columns, 4, None),
        ] {
            assert!(c.replace_sharded("t", table, shards, key).is_err());
            assert_eq!((state(&c, &["t"]), c.shard_desc("t").cloned()), before);
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
        let r = c.delta_chain("t", None, v0).unwrap();
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
        assert_eq!(c.entries().count(), 1, "the table, and no shard copies");
        let desc = c.shard_desc("t").unwrap().clone();
        assert_eq!(desc.shard_count, 4);
        assert_eq!(desc.key_cols, vec!["x".to_string()]);
        let total = |c: &Catalog| -> usize {
            let snap = c.snapshot("t").unwrap();
            snap.shards.iter().map(|s| s.rows.len()).sum()
        };
        assert_eq!(total(&c), 64);

        // append a narrow delta: only receiving shards bump
        let before = c.snapshot("t").unwrap();
        c.append("t", tiny(1)).unwrap(); // single row: exactly one shard receives it
        let after = c.snapshot("t").unwrap();
        assert!(after.version > before.version);
        assert_eq!(after.rows(), 65);
        let bumped = (before.shards.iter().zip(&after.shards))
            .filter(|(b, a)| a.version > b.version)
            .count();
        assert_eq!(bumped, 1, "one-row delta must touch one shard");
        assert_eq!(total(&c), 65);

        // remove cleans up the shards and the descriptor
        c.remove("t").unwrap();
        assert!(c.shard_desc("t").is_none());
        assert!(c.snapshot("t").is_err());
    }

    /// Shard `s`'s rows in `snap`.
    fn shard_ids(snap: &Snapshot, s: usize) -> &[u32] {
        snap.shards[s].rows.as_slice()
    }

    #[test]
    fn a_sharded_table_is_resident_once() {
        let mut c = Catalog::new();
        c.register_sharded("t", mixed(0..300, 7), 4, Some(vec!["s".into()]))
            .unwrap();
        assert_eq!(c.entries().count(), 1, "one entry: the table");
        let before = c.snapshot("t").unwrap();
        assert_eq!(before.shards.len(), 4);

        // Ascending, disjoint, covering, and where routing sends each row.
        let route = |t: &Table| route_rows(&[t.column_by_name("s").unwrap()], t.num_rows(), 4);
        let routes = route(&before.table);
        let mut seen = vec![false; 300];
        for s in 0..4 {
            let ids = shard_ids(&before, s);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "shard {s} ascends");
            for &r in ids {
                assert!(
                    !std::mem::replace(&mut seen[r as usize], true),
                    "row {r} twice"
                );
                assert_eq!(routes[r as usize] as usize, s);
            }
        }
        assert!(seen.iter().all(|&s| s), "every row is in a shard");

        // An append of k rows grows the one table by k and each shard's
        // list by the ids of the delta rows routed to it.
        let delta = mixed(300..340, 11);
        let delta_routes = route(&delta);
        c.append("t", delta.clone()).unwrap();
        assert_eq!(c.entries().count(), 1);
        let after = c.snapshot("t").unwrap();
        assert_eq!(after.rows(), 340);
        for s in 0..4 {
            let grown: Vec<u32> = (0..40u32)
                .filter(|&r| delta_routes[r as usize] as usize == s)
                .map(|r| 300 + r)
                .collect();
            let old = shard_ids(&before, s);
            assert_eq!(
                shard_ids(&after, s),
                [old, &grown[..]].concat(),
                "shard {s}"
            );
            let bumped = after.shards[s].version != before.shards[s].version;
            assert_eq!(
                bumped,
                !grown.is_empty(),
                "shard {s} bumps iff it received rows"
            );
        }
        assert_eq!(cells(&after.table)[300..], cells(&delta)[..]);

        // The snapshot taken before still reads the old rows and lists.
        assert_eq!(before.rows(), 300);
        assert_eq!(cells(&before.table)[..], cells(&after.table)[..300]);
        let total: usize = before.shards.iter().map(|s| s.rows.len()).sum();
        assert_eq!(total, 300);

        // remove drops the table and its shards
        c.remove("t").unwrap();
        assert!(c.shard_desc("t").is_none());
        assert_eq!(c.entries().count(), 0);
    }

    #[test]
    fn replace_sharded_and_unshard() {
        let mut c = Catalog::new();
        c.register("t", tiny(8)).unwrap();
        let v = c.replace_sharded("t", tiny(32), 2, None).unwrap();
        assert_eq!(c.table_version("t").unwrap(), v);
        assert!(c.shard_desc("t").is_some());
        assert_eq!(c.snapshot("t").unwrap().shards.len(), 2);
        // plain replace unshards
        c.replace("t", tiny(4)).unwrap();
        assert!(c.shard_desc("t").is_none());
        assert!(c.snapshot("t").unwrap().shards.is_empty());
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
        let r = c.delta_chain("t", None, v0).unwrap();
        assert_eq!((r.start_row, r.rows, r.to_version), (10, 0, v0));

        let v1 = c.append("t", tiny(4)).unwrap();
        let v2 = c.append("t", tiny(6)).unwrap();
        assert_eq!(c.delta_log("t").len(), 2);

        // from v0: both appends combine into one contiguous range
        let r = c.delta_chain("t", None, v0).unwrap();
        assert_eq!((r.start_row, r.rows, r.to_version), (10, 10, v2));
        // from v1: only the second append
        let r = c.delta_chain("t", None, v1).unwrap();
        assert_eq!((r.start_row, r.rows, r.to_version), (14, 6, v2));
        // unknown / pre-history versions cannot catch up
        assert!(c.delta_chain("t", None, 0).is_none());
        assert!(c.delta_chain("t", None, v2 + 1).is_none());
        assert!(c.delta_chain("ghost", None, v0).is_none());

        // replace severs the chain entirely
        let v3 = c.replace("t", tiny(3)).unwrap();
        assert!(c.delta_chain("t", None, v0).is_none());
        assert!(c.delta_chain("t", None, v2).is_none());
        assert_eq!(c.delta_log("t").len(), 0);
        assert_eq!(c.delta_chain("t", None, v3).unwrap().rows, 0);
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
        assert!(c.delta_chain("t", None, v0).is_none());
        let r = c.delta_chain("t", None, mid).unwrap();
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
        let r = c.delta_chain("t", None, v0).unwrap();
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
            c.delta_chain("t", None, v0).is_none(),
            "compacted-away chain head must force a recompute"
        );
        let r = c.delta_chain("t", None, v1).unwrap();
        assert_eq!(r.rows, MAX_DELTA_LOG);
        assert_eq!(r.start_row, 3, "range starts after base + first delta");
    }

    #[test]
    fn sharded_append_logs_per_shard_deltas() {
        let mut c = Catalog::new();
        c.register_sharded("t", tiny(64), 4, None).unwrap();
        let before = c.snapshot("t").unwrap();
        c.append("t", tiny(1)).unwrap();
        let after = c.snapshot("t").unwrap();
        // exactly the receiving shard gained a delta: the tail of its
        // list, in its own row coordinates, naming the appended row
        let mut logged = 0;
        for (s, shard) in before.shards.iter().enumerate() {
            let range = c.delta_chain("t", Some(s as u32), shard.version).unwrap();
            if range.rows == 0 {
                continue;
            }
            logged += 1;
            assert_eq!((range.start_row, range.rows), (shard.rows.len(), 1));
            assert_eq!(after.shards[s].rows[range.start_row..], [64]);
        }
        assert_eq!(logged, 1);
        assert!(c.delta_chain("t", Some(4), before.version).is_none());
        // remove clears the shards and their logs
        c.remove("t").unwrap();
        assert!(c
            .delta_chain("t", Some(0), before.shards[0].version)
            .is_none());
    }
}
