//! `gbmqo-matcache`: a cross-request cache of materialized group-by
//! results the optimizer plans from.
//!
//! The paper's central identity — a Group By on a superset of columns
//! answers any Group By on a subset by re-aggregation (§5.2) — is
//! exploited *within* one plan by SubPlanMerge. This crate exploits it
//! *across* requests: aggregates materialized while answering one
//! workload are retained (under a byte budget) and offered to the
//! planner as virtual roots for later workloads, so a query on `{a}`
//! can be computed from a cached `{a,b}` instead of the base table.
//! Roy et al. and Kathuria & Sudarshan frame the same
//! benefit-vs-storage tradeoff for multi-query optimization; the
//! eviction policy here mirrors the advisor's per-node benefit math:
//! an entry's benefit is the estimated rows of base-table scanning it
//! saves, refreshed on every hit and decayed as the cache churns, and
//! eviction removes the lowest benefit-per-byte entry first.
//!
//! Keying is `(relation, shard, column set, aggregate signature)`, and
//! every entry records the *version* (the [`gbmqo_storage::Catalog`]'s
//! monotonic contents counter) of the table or shard it was computed at,
//! together with the aggregate specs needed to merge more rows into it.
//! A sharded table's partials are keyed by their shard, whose version
//! moves only when an append routes rows to it, so an append to one
//! shard leaves its siblings warm. Entries
//! are **version-interval-valid**, not snapshot-valid: a lookup at the
//! current version serves only entries computed at that version, but an
//! entry left behind by an append is *not* purged — the cache
//! aggregates just the appended row range and merges it into the entry
//! (the paper's §7 aggregate-union identity: a group-by over a union of
//! disjoint partitions is the merge of per-partition aggregates). Only
//! when a delta chain is unavailable or uneconomic does it fall back to
//! dropping the stale entries. [`RefreshPolicy`] says when that happens.
//! A relation derived from catalog tables for one request (a selection,
//! see [`gbmqo_storage::Snapshot::derived`]) is keyed by its own name at
//! its source's version; it has no delta chain, so an append to, or a
//! replacement of, any table it reads drops its aggregates — and so does
//! the admission of a relation that reads one of its tables at a newer
//! version, which is how a change made behind the cache shows.
//!
//! Callers drive the cache by stages, in column names, the request's
//! base-relation [`Snapshot`] and shard ordinals — [`MatCache::request`],
//! [`MatCache::cover`], [`MatCache::admit`], [`MatCache::appended`],
//! [`MatCache::replaced`] — so which entry serves, and when a stale one
//! is refreshed or dropped, is decided here alone.

#![warn(missing_docs)]

use gbmqo_exec::{AggFunc, AggSpec, Engine, ExecError, ExecMetrics, GroupByQuery, Input, QueryCtx};
use gbmqo_storage::{Snapshot, Table};
use rustc_hash::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Per-request cache policy, carried on server `Query` frames and the
/// Session's workload entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheControl {
    /// Consult the cache for covering aggregates and admit new results.
    #[default]
    Default,
    /// Neither consult nor populate the cache (cold execution).
    Bypass,
    /// Recompute from base, then admit the fresh results (overwriting
    /// same-key entries). Use after out-of-band data changes or to
    /// deliberately warm the cache.
    Refresh,
}

impl CacheControl {
    /// Whether lookups may serve cached aggregates.
    pub fn allows_lookup(self) -> bool {
        self == CacheControl::Default
    }

    /// Whether freshly computed aggregates may be admitted.
    pub fn allows_admit(self) -> bool {
        self != CacheControl::Bypass
    }
}

/// When stale cached aggregates are brought current after an append.
/// Refreshing aggregates only the appended row range (the delta) and
/// merges it into the cached result under the paper's §7
/// aggregate-union identity, instead of discarding the cache and
/// rescanning the whole base table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshPolicy {
    /// Refresh a stale covering entry when a lookup first wants it (the
    /// default): appends stay cheap, the first post-append request pays
    /// the (delta-sized) merge.
    #[default]
    Lazy,
    /// Refresh every stale entry synchronously inside the append
    /// ([`MatCache::appended`]): appends pay the merges, requests always
    /// see a warm cache.
    Eager,
    /// Never refresh: a stale entry is dropped the first time a lookup
    /// misses over it — the old invalidate-everything behaviour.
    Disabled,
}

/// Default largest refreshable delta: refresh is abandoned (stale
/// entries dropped) when the unmerged delta exceeds this fraction of the
/// base table.
pub const DEFAULT_MAX_DELTA_FRACTION: f64 = 0.5;

/// A cache hit: a materialized aggregate whose column set covers the
/// requested one.
#[derive(Debug, Clone)]
pub struct CachedAggregate {
    /// Base-table column names of the cached aggregate, sorted.
    pub cols: Vec<String>,
    /// The materialized result (group columns + aggregate outputs).
    pub table: Arc<Table>,
    /// Row count of the cached aggregate.
    pub rows: usize,
    /// True when the cached column set equals the requested set (the
    /// answer verbatim, modulo column order), not a strict superset.
    pub exact: bool,
}

/// A request a cached aggregate covers (see [`MatCache::cover`]).
#[derive(Debug, Clone)]
pub struct Cover {
    /// Position of the request in the list handed to the cover stage.
    pub request: usize,
    /// The shard whose partial the hit is; `None` for the logical table.
    pub shard: Option<u32>,
    /// The covering aggregate.
    pub hit: CachedAggregate,
}

/// Counters exposed through `ExecMetrics` / the server `Stats` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no covering entry.
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Entries evicted to stay under budget.
    pub evictions: u64,
    /// Admissions rejected (no benefit, oversized, or outscored).
    pub rejected: u64,
    /// Estimated base-table rows whose scan was avoided by hits.
    pub rows_saved: u64,
    /// Bytes currently held.
    pub bytes: u64,
    /// Entries currently held.
    pub entries: u64,
    /// Stale entries brought current by a delta merge.
    pub refreshes: u64,
    /// Stale entries dropped because a delta merge was unavailable or
    /// uneconomic.
    pub stale_drops: u64,
}

/// What the cache keys aggregates by, as one request reads it: a
/// relation — a catalog table, or one derived from catalog tables for a
/// request — or one shard of a catalog table, with that part's contents
/// version and rows.
#[derive(Debug, Clone)]
struct Rel {
    name: String,
    /// The shard; `None` for the whole relation.
    shard: Option<u32>,
    version: u64,
    rows: usize,
}

impl Rel {
    /// The parts of `base` as the cache keys them: the whole relation,
    /// then each shard in order.
    fn parts(base: &Snapshot) -> (Rel, Vec<Rel>) {
        let rel = |shard, version, rows| Rel {
            name: base.name.clone(),
            shard,
            version,
            rows,
        };
        let shards = (base.shards.iter().enumerate())
            .map(|(s, shard)| rel(Some(s as u32), shard.version, shard.rows.len()))
            .collect();
        (rel(None, base.version, base.rows()), shards)
    }
}

/// One request as the cache's stages read it: the base relation, whole
/// and per shard, the aggregates' signature, and what the request lets
/// the cache do.
#[derive(Debug)]
pub struct CacheRequest {
    logical: Rel,
    /// The catalog tables a derived base relation reads, each at the
    /// version it read; empty otherwise.
    reads: Vec<(String, u64)>,
    shards: Vec<Rel>,
    agg_sig: u64,
    lookup: bool,
    admit: bool,
}

impl CacheRequest {
    /// Whether the execution should hand its intermediates to
    /// [`MatCache::admit`].
    pub fn admits(&self) -> bool {
        self.admit
    }
}

/// One cached aggregate of a relation; a stale one is cloned out to be
/// refreshed.
#[derive(Debug, Clone)]
struct Entry {
    /// The shard whose partial this is; `None` for the whole relation.
    shard: Option<u32>,
    /// Sorted base column names.
    cols: Vec<String>,
    agg_sig: u64,
    table: Arc<Table>,
    rows: usize,
    bytes: usize,
    /// Version of the table or shard the payload reflects. Entries
    /// behind its current version are stale-but-refreshable, not
    /// garbage.
    version: u64,
    /// Original aggregate specs, kept so a delta aggregate over the
    /// appended rows can be merged into the payload.
    specs: Vec<AggSpec>,
    /// Estimated base rows saved per serve; refreshed on hits, decayed
    /// on admissions, so entries that stop earning fade out.
    benefit: f64,
}

impl Entry {
    /// Benefit per byte — the eviction order.
    fn density(&self) -> f64 {
        self.benefit / self.bytes.max(1) as f64
    }
}

/// A bounded, benefit-weighted cache of materialized group-by results.
///
/// A budget of zero disables the cache entirely: every lookup misses
/// without recording a miss, every admission is rejected silently.
#[derive(Debug)]
pub struct MatCache {
    budget_bytes: usize,
    total_bytes: usize,
    /// Each relation's aggregates, whole and per shard.
    slots: FxHashMap<String, Vec<Entry>>,
    /// The catalog tables each derived relation with a slot reads, each
    /// at the version it read.
    derived: FxHashMap<String, Vec<(String, u64)>>,
    stats: MatCacheStats,
    /// When stale entries are delta-refreshed.
    refresh: RefreshPolicy,
    /// Largest refreshable delta, as a fraction of base-table rows.
    max_delta_fraction: f64,
}

/// Fraction of an entry's benefit that survives each admission round.
const DECAY: f64 = 0.95;

impl MatCache {
    /// Create a cache holding at most `budget_bytes` of materialized
    /// aggregates (zero disables it), refreshing stale entries under
    /// `refresh` as long as the delta is at most `max_delta_fraction`
    /// of the base table's rows. A fraction outside `[0, 1]` is
    /// rejected.
    pub fn new(
        budget_bytes: usize,
        refresh: RefreshPolicy,
        max_delta_fraction: f64,
    ) -> Result<Self, String> {
        if !(0.0..=1.0).contains(&max_delta_fraction) {
            return Err(format!(
                "max_delta_fraction must be within [0, 1], got {max_delta_fraction}"
            ));
        }
        Ok(MatCache {
            budget_bytes,
            total_bytes: 0,
            slots: FxHashMap::default(),
            derived: FxHashMap::default(),
            stats: MatCacheStats::default(),
            refresh,
            max_delta_fraction,
        })
    }

    /// Whether the cache can ever hold anything.
    pub fn enabled(&self) -> bool {
        self.budget_bytes > 0
    }

    /// Current counters.
    pub fn stats(&self) -> MatCacheStats {
        let mut s = self.stats;
        s.bytes = self.total_bytes as u64;
        s.entries = self.slots.values().map(|s| s.len() as u64).sum();
        s
    }

    /// A request over the base relation `base` computing `aggs`, under
    /// `control`, as the later stages read it.
    pub fn request(
        &self,
        base: &Snapshot,
        aggs: &[AggSpec],
        control: CacheControl,
    ) -> CacheRequest {
        let (logical, shards) = Rel::parts(base);
        CacheRequest {
            logical,
            reads: base.reads.clone(),
            shards,
            agg_sig: agg_signature(aggs),
            lookup: self.enabled() && control.allows_lookup(),
            admit: self.enabled() && control.allows_admit(),
        }
    }

    /// Cover stage: which of `requests` (each a list of base column
    /// names) does a cached (same table contents, same aggregates)
    /// superset aggregate cover — first at the logical level, then, for
    /// a request still uncovered, shard by shard: every warm shard serves
    /// its cached partial, cold shards scan their rows and the plan
    /// merges partials at delivery. Under the lazy refresh policy a
    /// miss over a *stale* covering entry first tries to bring it current
    /// by aggregating only the appended row range and merging; only when
    /// that is impossible or uneconomic do stale entries get dropped —
    /// never because `ctx` was cancelled, which propagates instead.
    /// Logical hits come first. `requests` is read only when the request
    /// may consult the cache.
    pub fn cover(
        &mut self,
        engine: &Engine,
        req: &CacheRequest,
        requests: impl IntoIterator<Item = Vec<String>>,
        ctx: &mut QueryCtx,
    ) -> Result<Vec<Cover>, ExecError> {
        let mut covers: Vec<Cover> = Vec::new();
        if !req.lookup {
            return Ok(covers);
        }
        let names: Vec<Vec<String>> = requests.into_iter().collect();
        for (request, names) in names.iter().enumerate() {
            if let Some(hit) = self.covering(engine, &req.logical, names, req.agg_sig, ctx)? {
                covers.push(Cover {
                    request,
                    shard: None,
                    hit,
                });
            }
        }
        for (request, names) in names.iter().enumerate() {
            if covers.iter().any(|c| c.request == request) {
                continue;
            }
            for (s, shard) in req.shards.iter().enumerate() {
                if let Some(hit) = self.covering(engine, shard, names, req.agg_sig, ctx)? {
                    covers.push(Cover {
                        request,
                        shard: Some(s as u32),
                        hit,
                    });
                }
            }
        }
        Ok(covers)
    }

    /// Admit stage: offer an execution's materialized intermediates —
    /// `(base column names, shard or None, result)`, per-shard partials
    /// under their shard, the granularity that survives appends to
    /// sibling shards — and the request `results` themselves, all
    /// computing `aggs`. Results answered verbatim by one of `covers`
    /// are not re-admitted. A derived relation's admission first drops
    /// the aggregates of every other derived relation that read one of
    /// its tables at an older version: that table changed, so no request
    /// can key them again.
    pub fn admit<'t>(
        &mut self,
        req: &CacheRequest,
        covers: &[Cover],
        aggs: &[AggSpec],
        harvest: impl IntoIterator<Item = (Vec<String>, Option<u32>, Arc<Table>)>,
        results: impl IntoIterator<Item = (Vec<String>, &'t Table)>,
    ) {
        if !req.admit {
            return;
        }
        if !req.reads.is_empty() {
            let slots = &self.slots;
            self.derived.retain(|name, _| slots.contains_key(name));
            let older = |(table, version): &(String, u64)| {
                (req.reads.iter()).any(|(t, v)| t == table && v > version)
            };
            self.drop_derived(|reads| reads.iter().any(older));
            self.derived
                .insert(req.logical.name.clone(), req.reads.clone());
        }
        let mut offer = |rel: &Rel, cols: &[String], table| {
            self.offer(rel, cols, req.agg_sig, aggs, table);
        };
        let mut admitted: Vec<Vec<String>> = Vec::new();
        for (cols, shard, table) in harvest {
            match shard {
                None => {
                    offer(&req.logical, &cols, table);
                    admitted.push(cols);
                }
                Some(s) => {
                    if let Some(shard) = req.shards.get(s as usize) {
                        offer(shard, &cols, table);
                    }
                }
            }
        }
        for (cols, table) in results {
            let mut sorted = cols.clone();
            sorted.sort_unstable();
            let served_exact = covers
                .iter()
                .any(|c| c.shard.is_none() && c.hit.exact && c.hit.cols == sorted);
            if !served_exact && !admitted.contains(&cols) {
                offer(&req.logical, &cols, Arc::new(table.clone()));
            }
        }
    }

    /// Follow an append to base table `table`: drop the aggregates of
    /// every relation derived from it and, under the eager policy, bring
    /// every stale aggregate of it (whole and per shard alike) current,
    /// with no deadline. Returns the work done.
    pub fn appended(&mut self, engine: &Engine, table: &str) -> Result<ExecMetrics, ExecError> {
        self.drop_derived(|reads| reads.iter().any(|(t, _)| t == table));
        let mut ctx = QueryCtx::default();
        if self.refresh == RefreshPolicy::Eager && self.enabled() {
            let (whole, shards) = Rel::parts(&engine.catalog().snapshot(table)?);
            for rel in std::iter::once(&whole).chain(&shards) {
                let stale: Vec<Entry> = self.stale(rel).cloned().collect();
                for stale in stale {
                    self.refresh_stale_entry(engine, rel, stale, &mut ctx)?;
                }
            }
        }
        Ok(ctx.metrics)
    }

    /// Follow a replacement or re-split of base table `name`: drop every
    /// aggregate of it, whole and per shard, and of every relation
    /// derived from it. Nothing cached over the old contents can be
    /// refreshed.
    pub fn replaced(&mut self, name: &str) {
        self.invalidate_table(name);
        self.drop_derived(|reads| reads.iter().any(|(t, _)| t == name));
    }

    /// Drop the aggregates of every derived relation whose reads match
    /// `stale`, counting them as stale drops: no delta chain brings a
    /// derived relation current.
    fn drop_derived(&mut self, stale: impl Fn(&[(String, u64)]) -> bool) {
        let stale: Vec<String> = self
            .derived
            .iter()
            .filter(|(_, reads)| stale(reads))
            .map(|(name, _)| name.clone())
            .collect();
        for name in stale {
            self.derived.remove(&name);
            self.stats.stale_drops += self.invalidate_table(&name) as u64;
        }
    }

    /// A cached aggregate of `rel` covering the columns `names`. On a
    /// miss the lazy refresh policy first brings the best stale covering
    /// entry current (the next lookup then hits it); the other policies
    /// drop the part's stale aggregates (under the eager one, an append
    /// left stale only what it could not refresh: a derived relation's).
    fn covering(
        &mut self,
        engine: &Engine,
        rel: &Rel,
        names: &[String],
        agg_sig: u64,
        ctx: &mut QueryCtx,
    ) -> Result<Option<CachedAggregate>, ExecError> {
        let hit = self.lookup_covering(rel, names, agg_sig);
        if hit.is_some() {
            return Ok(hit);
        }
        if self.refresh != RefreshPolicy::Lazy {
            self.drop_stale(rel);
            return Ok(None);
        }
        let Some(stale) = self.lookup_stale(rel, names, agg_sig) else {
            return Ok(None);
        };
        let refreshed = self.refresh_stale_entry(engine, rel, stale, ctx)?;
        Ok(refreshed
            .then(|| self.lookup_covering(rel, names, agg_sig))
            .flatten())
    }

    /// Bring one stale cached aggregate of `rel` current at its version:
    /// aggregate only the rows appended to it since — a selection of the
    /// table's rows — with the entry's original specs, concatenate with
    /// the cached partial, and re-aggregate under the §7.2 lossless merge
    /// rules ([`AggSpec::reaggregate`] — `SUM(cnt)`-style). Falls back to
    /// dropping the part's stale entries when the delta chain is broken
    /// (compacted or replaced), an aggregate is not mergeable, the delta
    /// exceeds `max_delta_fraction` of the part's rows, or its
    /// aggregation fails — unless it failed because `ctx` was
    /// cancelled: that error propagates and the stale entries stay.
    fn refresh_stale_entry(
        &mut self,
        engine: &Engine,
        rel: &Rel,
        stale: Entry,
        ctx: &mut QueryCtx,
    ) -> Result<bool, ExecError> {
        let fallback = |mc: &mut MatCache, metrics: &mut ExecMetrics| {
            mc.drop_stale(rel);
            metrics.delta_fallbacks += 1;
            Ok(false)
        };
        let catalog = engine.catalog();
        let chain = match catalog.delta_chain(&rel.name, rel.shard, stale.version) {
            Some(c) if c.to_version == rel.version && specs_mergeable(&stale.specs) => c,
            _ => return fallback(self, &mut ctx.metrics),
        };
        if (chain.rows as f64) > self.max_delta_fraction * rel.rows as f64 {
            return fallback(self, &mut ctx.metrics);
        }
        // The cached payload's schema is its group columns followed by
        // one output per spec; aggregating the delta with the same
        // specs in that column order makes the two concat-compatible.
        let ngroup = stale.table.schema().fields().len() - stale.specs.len();
        let group_cols: Vec<String> = stale.table.schema().fields()[..ngroup]
            .iter()
            .map(|f| f.name.clone())
            .collect();
        // Both aggregations are sized from rows they already know: the
        // delta has at most its rows as groups, the merge at most stale
        // rows + delta rows.
        // The appended rows, as ids of the table: a run of them, or a
        // shard's tail.
        let base = catalog.snapshot(&rel.name)?;
        let range = chain.start_row..chain.start_row + chain.rows;
        let appended: Vec<u32> = match rel.shard {
            None => range.map(|r| r as u32).collect(),
            Some(s) => base.shards[s as usize].rows[range].to_vec(),
        };
        let q = GroupByQuery {
            input: Input::Table(base.table, Some(Arc::new(appended))),
            group_cols,
            aggs: stale.specs.clone(),
            estimated_groups: Some(chain.rows as u64),
        };
        let merged = engine.run_group_by(&q, ctx).and_then(|delta| {
            let combined = Table::concat(&[stale.table.as_ref(), &delta])?;
            let reagg: Vec<AggSpec> = stale.specs.iter().map(AggSpec::reaggregate).collect();
            let idx: Vec<usize> = (0..ngroup).collect();
            let groups = Some(combined.num_rows() as u64);
            engine.aggregate_table(&combined, &idx, &reagg, groups, ctx)
        });
        let merged = match merged {
            Ok(merged) => merged,
            Err(e @ ExecError::Cancelled { .. }) => return Err(e),
            Err(_) => return fallback(self, &mut ctx.metrics),
        };
        ctx.metrics.delta_rows += chain.rows as u64;
        if self.refresh(
            rel,
            &stale.cols,
            stale.agg_sig,
            stale.version,
            Arc::new(merged),
        ) {
            ctx.metrics.delta_refreshes += 1;
            // Rows *not* rescanned: everything before the delta range.
            ctx.metrics.refresh_rows_saved += chain.start_row as u64;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Find the cheapest cached aggregate of `rel` (at its current
    /// version, under aggregate signature `agg_sig`) whose column set
    /// covers `want_cols`. "Cheapest" is fewest rows — the paper's cost
    /// model charges re-aggregation by input cardinality. Entries
    /// cached under an older version are skipped, never served — but
    /// they stay resident as refresh candidates.
    fn lookup_covering(
        &mut self,
        rel: &Rel,
        want_cols: &[String],
        agg_sig: u64,
    ) -> Option<CachedAggregate> {
        if !self.enabled() {
            return None;
        }
        let Some(slot) = self.slots.get_mut(&rel.name) else {
            self.stats.misses += 1;
            return None;
        };
        let mut want = want_cols.to_vec();
        want.sort_unstable();
        let Some(hit) = slot
            .iter_mut()
            .filter(|e| {
                e.shard == rel.shard
                    && e.version == rel.version
                    && e.agg_sig == agg_sig
                    && covers(&e.cols, &want)
            })
            .min_by_key(|e| e.rows)
        else {
            self.stats.misses += 1;
            return None;
        };
        let saved = rel.rows.saturating_sub(hit.rows) as u64;
        self.stats.hits += 1;
        self.stats.rows_saved += saved;
        hit.benefit += saved as f64;
        Some(CachedAggregate {
            cols: hit.cols.clone(),
            table: Arc::clone(&hit.table),
            rows: hit.rows,
            exact: hit.cols == want,
        })
    }

    /// The entries of `rel` cached at a version older than its current
    /// one, whatever their columns or aggregates.
    fn stale<'r>(&'r self, rel: &'r Rel) -> impl Iterator<Item = &'r Entry> {
        let slot = self.slots.get(&rel.name).into_iter().flatten();
        slot.filter(move |e| e.shard == rel.shard && e.version < rel.version)
    }

    /// Find the best *stale* covering aggregate of `rel`, whose column
    /// set covers `want_cols`, for a delta merge to bring current. The
    /// most recent qualifying version wins (shortest delta chain), fewest
    /// rows breaking ties. Does not touch hit/miss counters — the fresh
    /// lookup already recorded the miss.
    fn lookup_stale(&self, rel: &Rel, want_cols: &[String], agg_sig: u64) -> Option<Entry> {
        let mut want = want_cols.to_vec();
        want.sort_unstable();
        self.stale(rel)
            .filter(|e| e.agg_sig == agg_sig && covers(&e.cols, &want))
            .max_by(|a, b| a.version.cmp(&b.version).then(b.rows.cmp(&a.rows)))
            .cloned()
    }

    /// Replace the payload of `rel`'s stale entry `(cols, agg_sig)`
    /// cached at `from_version` with `result` computed at its current
    /// version — the commit step of a delta refresh. Benefit carries over
    /// (the entry keeps its earned standing; it answered this request
    /// too). If the refreshed payload grew past the budget, lower-density
    /// *other* entries are evicted. Returns false if no such entry exists
    /// (it was evicted in the meantime).
    fn refresh(
        &mut self,
        rel: &Rel,
        cols: &[String],
        agg_sig: u64,
        from_version: u64,
        result: Arc<Table>,
    ) -> bool {
        let mut cols = cols.to_vec();
        cols.sort_unstable();
        let Some(slot) = self.slots.get_mut(&rel.name) else {
            return false;
        };
        let Some(idx) = slot.iter().position(|e| {
            e.shard == rel.shard
                && e.version == from_version
                && e.agg_sig == agg_sig
                && e.cols == cols
        }) else {
            return false;
        };
        let rows = result.num_rows();
        let bytes = result.byte_size();
        {
            let e = &mut slot[idx];
            self.total_bytes = self.total_bytes - e.bytes + bytes;
            e.table = result;
            e.rows = rows;
            e.bytes = bytes;
            e.version = rel.version;
            e.benefit = e.benefit.max(rel.rows.saturating_sub(rows) as f64);
        }
        self.stats.refreshes += 1;
        self.evict_over_budget(Some((rel, &cols, agg_sig)));
        true
    }

    /// Drop every entry of `rel` cached at a version other than its
    /// current one — the invalidation fallback for deltas that cannot (or
    /// should not) be merged. Returns how many entries were dropped.
    fn drop_stale(&mut self, rel: &Rel) -> usize {
        let Some(slot) = self.slots.get_mut(&rel.name) else {
            return 0;
        };
        let before = slot.len();
        let mut freed = 0usize;
        slot.retain(|e| {
            if e.shard != rel.shard || e.version == rel.version {
                true
            } else {
                freed += e.bytes;
                false
            }
        });
        let dropped = before - slot.len();
        if slot.is_empty() {
            self.slots.remove(&rel.name);
        }
        self.total_bytes -= freed;
        self.stats.stale_drops += dropped as u64;
        dropped
    }

    /// Evict lowest-density entries until the cache fits its budget,
    /// never touching `keep` (the entry just refreshed: its part, columns
    /// and aggregate signature, at the part's version).
    fn evict_over_budget(&mut self, keep: Option<(&Rel, &[String], u64)>) {
        while self.total_bytes > self.budget_bytes {
            let victim = self
                .slots
                .iter()
                .flat_map(|(t, s)| s.iter().enumerate().map(move |(i, e)| (t, i, e)))
                .filter(|(t, _, e)| {
                    keep.is_none_or(|(rel, cols, sig)| {
                        !(**t == rel.name
                            && e.shard == rel.shard
                            && e.cols == cols
                            && e.agg_sig == sig
                            && e.version == rel.version)
                    })
                })
                .min_by(|a, b| a.2.density().total_cmp(&b.2.density()));
            let Some((vt, vi, _)) = victim else { break };
            let (vt, vi) = (vt.clone(), vi);
            let removed = self.slots.get_mut(&vt).expect("victim slot").remove(vi);
            self.total_bytes -= removed.bytes;
            self.stats.evictions += 1;
            if self.slots[&vt].is_empty() {
                self.slots.remove(&vt);
            }
        }
    }

    /// Offer a freshly materialized aggregate of `rel` (at its current
    /// version) on `cols` for admission, carrying the workload's
    /// aggregate `specs` so the entry can later be delta-refreshed.
    /// Returns whether it was kept. Rejects aggregates no smaller than
    /// the part's rows (no re-aggregation benefit) and aggregates that
    /// cannot fit the budget without evicting entries of higher benefit
    /// density.
    fn offer(
        &mut self,
        rel: &Rel,
        cols: &[String],
        agg_sig: u64,
        specs: &[AggSpec],
        result: Arc<Table>,
    ) -> bool {
        if !self.enabled() {
            return false;
        }
        let (version, base_rows) = (rel.version, rel.rows);
        let rows = result.num_rows();
        let bytes = result.byte_size();
        if rows >= base_rows || bytes > self.budget_bytes {
            self.stats.rejected += 1;
            return false;
        }
        // Each admission round ages everything a little, so benefit
        // reflects recent traffic rather than one ancient hot streak.
        for slot in self.slots.values_mut() {
            for e in slot.iter_mut() {
                e.benefit *= DECAY;
            }
        }
        let mut cols = cols.to_vec();
        cols.sort_unstable();
        let benefit = base_rows.saturating_sub(rows) as f64;

        let slot = self.slots.entry(rel.name.clone()).or_default();
        if let Some(e) = slot
            .iter_mut()
            .find(|e| e.shard == rel.shard && e.agg_sig == agg_sig && e.cols == cols)
        {
            // Same key: one entry per (cols, sig) — the cache keeps the
            // newest version of each aggregate, never two generations.
            if version < e.version {
                // A late admission from an older snapshot must not roll
                // a fresher payload backwards.
                self.stats.rejected += 1;
                return false;
            }
            self.total_bytes = self.total_bytes - e.bytes + bytes;
            e.table = result;
            e.rows = rows;
            e.bytes = bytes;
            e.version = version;
            e.specs = specs.to_vec();
            e.benefit = e.benefit.max(benefit);
            return true;
        }
        let density = benefit / bytes.max(1) as f64;
        while self.total_bytes + bytes > self.budget_bytes {
            let victim = self
                .slots
                .iter()
                .flat_map(|(t, s)| s.iter().enumerate().map(move |(i, e)| (t, i, e)))
                .min_by(|a, b| a.2.density().total_cmp(&b.2.density()));
            let Some((vt, vi, ve)) = victim else { break };
            if ve.density() >= density {
                // Everything resident earns more per byte than the
                // candidate would; keep the incumbents.
                self.stats.rejected += 1;
                return false;
            }
            let (vt, vi) = (vt.clone(), vi);
            let removed = self.slots.get_mut(&vt).expect("victim slot").remove(vi);
            self.total_bytes -= removed.bytes;
            self.stats.evictions += 1;
            if self.slots[&vt].is_empty() {
                self.slots.remove(&vt);
            }
        }
        self.total_bytes += bytes;
        self.stats.insertions += 1;
        self.slots.entry(rel.name.clone()).or_default().push(Entry {
            shard: rel.shard,
            cols,
            agg_sig,
            table: result,
            rows,
            bytes,
            version,
            specs: specs.to_vec(),
            benefit,
        });
        true
    }

    /// Drop every cached aggregate of `table` (whole and per shard, any
    /// version); returns how many there were.
    fn invalidate_table(&mut self, table: &str) -> usize {
        let slot = self.slots.remove(table).unwrap_or_default();
        self.total_bytes -= slot.iter().map(|e| e.bytes).sum::<usize>();
        slot.len()
    }
}

/// `sup` ⊇ `sub`, both sorted.
fn covers(sup: &[String], sub: &[String]) -> bool {
    let mut it = sup.iter();
    sub.iter().all(|c| it.any(|s| s == c))
}

/// A stable signature of a workload's aggregate list, used so cached
/// results are only reused by workloads computing the same aggregates.
fn agg_signature(aggs: &[AggSpec]) -> u64 {
    let mut h = FxHasher::default();
    aggs.hash(&mut h);
    h.finish()
}

/// Whether every aggregate merges losslessly under append-only ingest
/// (§7.2's merge rules): COUNT, SUM, MIN and MAX all do. The exhaustive
/// match forces a decision here if a non-mergeable function (AVG,
/// DISTINCT, …) ever lands.
fn specs_mergeable(specs: &[AggSpec]) -> bool {
    specs.iter().all(|s| {
        matches!(
            s.func,
            AggFunc::Count | AggFunc::Sum | AggFunc::Min | AggFunc::Max
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{Catalog, Column, DataType, Field, Schema};

    fn agg_table(cols: &[&str], rows: i64) -> Arc<Table> {
        let mut fields: Vec<Field> = cols
            .iter()
            .map(|c| Field::new(*c, DataType::Int64))
            .collect();
        fields.push(Field::not_null("cnt", DataType::Int64));
        let data = (0..=cols.len())
            .map(|_| Column::from_i64((0..rows).collect()))
            .collect();
        Arc::new(Table::new(Schema::new(fields).unwrap(), data).unwrap())
    }

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn specs() -> Vec<AggSpec> {
        vec![AggSpec::count()]
    }

    const SIG: u64 = 7;
    const BASE: usize = 1_000_000;

    /// The whole relation `name` at `version`, of `rows` rows.
    fn rel(name: &str, version: u64, rows: usize) -> Rel {
        Rel {
            name: name.to_string(),
            shard: None,
            version,
            rows,
        }
    }

    fn cache(budget_bytes: usize) -> MatCache {
        MatCache::new(
            budget_bytes,
            RefreshPolicy::Lazy,
            DEFAULT_MAX_DELTA_FRACTION,
        )
        .unwrap()
    }

    #[test]
    fn lookup_prefers_the_smallest_covering_superset() {
        let mut mc = cache(1 << 20);
        assert!(mc.offer(
            &rel("r", 1, BASE),
            &cols(&["a", "b", "c"]),
            SIG,
            &specs(),
            agg_table(&["a", "b", "c"], 500)
        ));
        assert!(mc.offer(
            &rel("r", 1, BASE),
            &cols(&["a", "b"]),
            SIG,
            &specs(),
            agg_table(&["a", "b"], 100)
        ));

        let hit = mc
            .lookup_covering(&rel("r", 1, BASE), &cols(&["a"]), SIG)
            .unwrap();
        assert_eq!(hit.cols, cols(&["a", "b"]));
        assert_eq!(hit.rows, 100);
        assert!(!hit.exact);

        let exact = mc
            .lookup_covering(&rel("r", 1, BASE), &cols(&["b", "a"]), SIG)
            .unwrap();
        assert!(exact.exact, "set equality ignores order");

        assert!(mc
            .lookup_covering(&rel("r", 1, BASE), &cols(&["z"]), SIG)
            .is_none());
        assert!(mc
            .lookup_covering(&rel("r", 1, BASE), &cols(&["a"]), SIG + 1)
            .is_none());
        let s = mc.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (2, 2, 2));
        assert!(s.rows_saved >= 2 * (BASE as u64 - 100));
    }

    #[test]
    fn stale_entries_survive_misses_and_refresh_forward() {
        let mut mc = cache(1 << 20);
        mc.offer(
            &rel("r", 1, BASE),
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 10),
        );
        // A lookup at a newer version misses — but the entry survives.
        assert!(mc
            .lookup_covering(&rel("r", 2, BASE), &cols(&["a"]), SIG)
            .is_none());
        assert_eq!(mc.stats().entries, 1);

        // The surviving entry is surfaced as a refresh candidate, with
        // its merge specs intact.
        let stale = mc
            .lookup_stale(&rel("r", 2, BASE), &cols(&["a"]), SIG)
            .unwrap();
        assert_eq!(stale.version, 1);
        assert_eq!(stale.rows, 10);
        assert_eq!(stale.specs, specs());
        // Entries at the current version are not "stale".
        assert!(mc
            .lookup_stale(&rel("r", 1, BASE), &cols(&["a"]), SIG)
            .is_none());

        // Committing a delta merge brings it current; it serves again.
        assert!(mc.refresh(
            &rel("r", 2, BASE),
            &cols(&["a"]),
            SIG,
            1,
            agg_table(&["a"], 12)
        ));
        let hit = mc
            .lookup_covering(&rel("r", 2, BASE), &cols(&["a"]), SIG)
            .unwrap();
        assert_eq!(hit.rows, 12);
        assert_eq!(mc.stats().refreshes, 1);
        // Refreshing an entry that no longer exists at that version fails.
        assert!(!mc.refresh(
            &rel("r", 3, BASE),
            &cols(&["a"]),
            SIG,
            1,
            agg_table(&["a"], 12)
        ));
    }

    #[test]
    fn lookup_stale_prefers_the_most_recent_version() {
        let mut mc = cache(1 << 20);
        mc.offer(
            &rel("r", 1, BASE),
            &cols(&["a", "b"]),
            SIG,
            &specs(),
            agg_table(&["a", "b"], 50),
        );
        mc.offer(
            &rel("r", 3, BASE),
            &cols(&["a", "c"]),
            SIG,
            &specs(),
            agg_table(&["a", "c"], 90),
        );
        // Both cover {a}; the version-3 entry needs the shortest delta
        // chain even though it has more rows.
        let stale = mc
            .lookup_stale(&rel("r", 5, BASE), &cols(&["a"]), SIG)
            .unwrap();
        assert_eq!(stale.version, 3);
        assert_eq!(stale.cols, cols(&["a", "c"]));
    }

    #[test]
    fn drop_stale_removes_only_old_versions() {
        let mut mc = cache(1 << 20);
        mc.offer(
            &rel("r", 1, BASE),
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 10),
        );
        mc.offer(
            &rel("r", 4, BASE),
            &cols(&["b"]),
            SIG,
            &specs(),
            agg_table(&["b"], 10),
        );
        assert_eq!(mc.drop_stale(&rel("r", 4, BASE)), 1);
        assert!(mc
            .lookup_covering(&rel("r", 4, BASE), &cols(&["b"]), SIG)
            .is_some());
        assert!(mc
            .lookup_stale(&rel("r", 4, BASE), &cols(&["a"]), SIG)
            .is_none());
        assert_eq!(mc.stats().stale_drops, 1);
        assert_eq!(mc.stats().entries, 1);
    }

    #[test]
    fn same_key_admission_is_version_guarded() {
        let mut mc = cache(1 << 20);
        assert!(mc.offer(
            &rel("r", 3, BASE),
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 10)
        ));
        // A same-key admit from an older snapshot must not roll the
        // payload backwards.
        assert!(!mc.offer(
            &rel("r", 2, BASE),
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 9)
        ));
        // A newer-version admit overwrites in place.
        assert!(mc.offer(
            &rel("r", 5, BASE),
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 11)
        ));
        assert_eq!(mc.stats().entries, 1);
        let hit = mc
            .lookup_covering(&rel("r", 5, BASE), &cols(&["a"]), SIG)
            .unwrap();
        assert_eq!(hit.rows, 11);
    }

    #[test]
    fn invalidate_table_frees_bytes() {
        let mut mc = cache(1 << 20);
        mc.offer(
            &rel("r", 1, BASE),
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 10),
        );
        mc.offer(
            &rel("s", 1, BASE),
            &cols(&["x"]),
            SIG,
            &specs(),
            agg_table(&["x"], 10),
        );
        let before = mc.stats().bytes;
        mc.invalidate_table("r");
        assert!(mc.stats().bytes < before);
        assert!(mc
            .lookup_covering(&rel("r", 1, BASE), &cols(&["a"]), SIG)
            .is_none());
        assert!(mc
            .lookup_covering(&rel("s", 1, BASE), &cols(&["x"]), SIG)
            .is_some());
    }

    #[test]
    fn budget_is_enforced_by_density_eviction() {
        let small = agg_table(&["a"], 64);
        let unit = small.byte_size();
        // Room for exactly two entries.
        let mut mc = cache(2 * unit);
        assert!(mc.offer(
            &rel("r", 1, BASE),
            &cols(&["a"]),
            SIG,
            &specs(),
            Arc::clone(&small)
        ));
        assert!(mc.offer(
            &rel("r", 1, BASE),
            &cols(&["b"]),
            SIG,
            &specs(),
            agg_table(&["b"], 64)
        ));
        assert!(mc.stats().bytes <= 2 * unit as u64);

        // Make {a} clearly the most valuable resident.
        for _ in 0..5 {
            mc.lookup_covering(&rel("r", 1, BASE), &cols(&["a"]), SIG)
                .unwrap();
        }
        // A third entry must evict the colder {b}, not {a}.
        assert!(mc.offer(
            &rel("r", 1, BASE),
            &cols(&["c"]),
            SIG,
            &specs(),
            agg_table(&["c"], 64)
        ));
        assert!(mc.stats().bytes <= 2 * unit as u64);
        assert_eq!(mc.stats().evictions, 1);
        assert!(mc
            .lookup_covering(&rel("r", 1, BASE), &cols(&["a"]), SIG)
            .is_some());
        assert!(mc
            .lookup_covering(&rel("r", 1, BASE), &cols(&["b"]), SIG)
            .is_none());
    }

    #[test]
    fn admission_rejects_no_benefit_oversized_and_outscored() {
        let mut mc = cache(1 << 20);
        // As many rows as the base table: re-aggregation saves nothing.
        assert!(!mc.offer(
            &rel("r", 1, 100),
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 100)
        ));
        // Larger than the whole budget.
        let mut tiny = cache(8);
        assert!(!tiny.offer(
            &rel("r", 1, BASE),
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 100)
        ));
        // Disabled cache: no lookups, no admissions, no counters.
        let mut off = cache(0);
        assert!(!off.enabled());
        assert!(!off.offer(
            &rel("r", 1, BASE),
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 10)
        ));
        assert!(off
            .lookup_covering(&rel("r", 1, BASE), &cols(&["a"]), SIG)
            .is_none());
        assert_eq!(off.stats(), MatCacheStats::default());

        // An incumbent with far higher benefit density is not evicted
        // for a low-benefit candidate.
        let small = agg_table(&["a"], 64);
        let mut mc = cache(small.byte_size());
        assert!(mc.offer(&rel("r", 1, BASE), &cols(&["a"]), SIG, &specs(), small));
        for _ in 0..10 {
            mc.lookup_covering(&rel("r", 1, BASE), &cols(&["a"]), SIG)
                .unwrap();
        }
        // Nearly as many rows as base: minuscule benefit.
        assert!(!mc.offer(
            &rel("r", 1, 65),
            &cols(&["b"]),
            SIG,
            &specs(),
            agg_table(&["b"], 64)
        ));
        assert!(mc
            .lookup_covering(&rel("r", 1, BASE), &cols(&["a"]), SIG)
            .is_some());
    }

    #[test]
    fn same_key_admission_refreshes_in_place() {
        let mut mc = cache(1 << 20);
        assert!(mc.offer(
            &rel("r", 1, BASE),
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 50)
        ));
        assert!(mc.offer(
            &rel("r", 1, BASE),
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 40)
        ));
        assert_eq!(mc.stats().entries, 1);
        let hit = mc
            .lookup_covering(&rel("r", 1, BASE), &cols(&["a"]), SIG)
            .unwrap();
        assert_eq!(hit.rows, 40);
    }

    /// The stages over a real catalog: a miss, an admission, a hit, an
    /// append the lazy cover stage merges, and a replacement that leaves
    /// nothing to serve.
    #[test]
    fn stages_cover_admit_refresh_and_forget() {
        let table = |rows: i64| {
            let fields = vec![Field::new("a", DataType::Int64)];
            let a = Column::from_i64((0..rows).map(|i| i % 3).collect());
            Table::new(Schema::new(fields).unwrap(), vec![a]).unwrap()
        };
        let mut catalog = Catalog::new();
        catalog.register("r", table(60)).unwrap();
        let mut engine = Engine::new(catalog);
        let (aggs, mut mc, ctx) = (specs(), cache(1 << 20), &mut QueryCtx::default());
        let a = || [cols(&["a"])];
        let request = |mc: &MatCache, engine: &Engine| {
            let base = engine.catalog().snapshot("r").unwrap();
            mc.request(&base, &aggs, CacheControl::Default)
        };
        let req = request(&mc, &engine);
        assert!(req.admits());
        assert!(mc.cover(&engine, &req, a(), ctx).unwrap().is_empty());
        let base = engine.catalog().table("r").unwrap();
        let result = engine
            .aggregate_table(base, &[0], &aggs, None, ctx)
            .unwrap();
        mc.admit(
            &req,
            &[],
            &aggs,
            std::iter::empty(),
            [(cols(&["a"]), &result)],
        );
        let covers = mc.cover(&engine, &req, a(), ctx).unwrap();
        assert_eq!(
            (covers.len(), covers[0].request, covers[0].shard),
            (1, 0, None)
        );
        assert!(covers[0].hit.exact);

        engine.catalog_mut().append("r", table(30)).unwrap();
        assert_eq!(mc.appended(&engine, "r").unwrap().delta_refreshes, 0);
        let req = request(&mc, &engine);
        let covers = mc.cover(&engine, &req, a(), ctx).unwrap();
        assert_eq!(ctx.metrics.delta_refreshes, 1);
        let hit = &covers[0].hit.table;
        let counted: i64 = (0..hit.num_rows())
            .map(|r| hit.value(r, 1).as_int().unwrap())
            .sum();
        assert_eq!(counted, 90, "the refreshed counts cover the appended rows");

        mc.replaced("r");
        assert!(mc.cover(&engine, &req, a(), ctx).unwrap().is_empty());
    }

    /// A shard's cached partial is brought current from the rows
    /// appended to that shard alone, read as a selection of the table.
    #[test]
    fn a_shard_partial_refreshes_from_the_rows_its_shard_received() {
        let table = |keys: &[i64]| {
            let fields = vec![
                Field::new("k", DataType::Int64),
                Field::new("a", DataType::Int64),
            ];
            let k = Column::from_i64(keys.to_vec());
            let a = Column::from_i64(keys.iter().map(|i| i % 3).collect());
            Table::new(Schema::new(fields).unwrap(), vec![k, a]).unwrap()
        };
        let keys: Vec<i64> = (0..64).collect();
        let mut catalog = Catalog::new();
        catalog
            .register_sharded("r", table(&keys), 4, Some(cols(&["k"])))
            .unwrap();
        let mut engine = Engine::new(catalog);
        let (aggs, mut mc, ctx) = (specs(), cache(1 << 20), &mut QueryCtx::default());
        let partial = |engine: &Engine, snap: &Snapshot, s: usize| {
            let q = GroupByQuery {
                input: Input::Table(
                    Arc::clone(&snap.table),
                    Some(Arc::clone(&snap.shards[s].rows)),
                ),
                group_cols: cols(&["a"]),
                aggs: specs(),
                estimated_groups: None,
            };
            engine.run_group_by(&q, &mut QueryCtx::default()).unwrap()
        };
        // Admit every shard's partial of (a), as an execution's harvest
        // would.
        let before = engine.catalog().snapshot("r").unwrap();
        let req = mc.request(&before, &aggs, CacheControl::Default);
        let harvest = (0..4).map(|s| {
            (
                cols(&["a"]),
                Some(s as u32),
                Arc::new(partial(&engine, &before, s)),
            )
        });
        mc.admit(&req, &[], &aggs, harvest, std::iter::empty());
        assert_eq!(mc.stats().entries, 4);

        // Ten rows of one key value: they all route to one shard.
        engine
            .catalog_mut()
            .append("r", table(&[1000; 10]))
            .unwrap();
        let after = engine.catalog().snapshot("r").unwrap();
        let received: Vec<usize> = (0..4)
            .map(|s| after.shards[s].rows.len() - before.shards[s].rows.len())
            .collect();
        let touched = received.iter().position(|&n| n > 0).unwrap();
        assert_eq!(received[touched], 10);

        let req = mc.request(&after, &aggs, CacheControl::Default);
        let covers = mc.cover(&engine, &req, [cols(&["a"])], ctx).unwrap();
        assert_eq!(covers.len(), 4, "every shard serves its partial");
        assert_eq!(ctx.metrics.delta_refreshes, 1);
        assert_eq!(ctx.metrics.delta_rows, received[touched] as u64);
        let refreshed = covers.iter().find(|c| c.shard == Some(touched as u32));
        let norm = |t: &Table| {
            let mut rows: Vec<(i64, i64)> = (0..t.num_rows())
                .map(|r| {
                    (
                        t.value(r, 0).as_int().unwrap(),
                        t.value(r, 1).as_int().unwrap(),
                    )
                })
                .collect();
            rows.sort_unstable();
            rows
        };
        assert_eq!(
            norm(&refreshed.unwrap().hit.table),
            norm(&partial(&engine, &after, touched))
        );
    }

    #[test]
    fn cache_control_policies() {
        assert!(CacheControl::Default.allows_lookup());
        assert!(CacheControl::Default.allows_admit());
        assert!(!CacheControl::Bypass.allows_lookup());
        assert!(!CacheControl::Bypass.allows_admit());
        assert!(!CacheControl::Refresh.allows_lookup());
        assert!(CacheControl::Refresh.allows_admit());
    }

    #[test]
    fn agg_signature_distinguishes_specs() {
        let count = vec![AggSpec::count()];
        let sum = vec![AggSpec::sum("x", "sx")];
        assert_eq!(agg_signature(&count), agg_signature(&[AggSpec::count()]));
        assert_ne!(agg_signature(&count), agg_signature(&sum));
    }
}
