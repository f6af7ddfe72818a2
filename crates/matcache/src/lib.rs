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
//! Keying is `(table name, column set, aggregate signature)`, and every
//! entry records the table *version* (the [`gbmqo_storage::Catalog`]'s
//! monotonic contents counter) it was computed at, together with the
//! aggregate specs needed to merge more rows into it. Entries are
//! **version-interval-valid**, not snapshot-valid: a lookup at the
//! current version serves only entries computed at that version, but an
//! entry left behind by an append is *not* purged — it is surfaced
//! through [`MatCache::lookup_stale`] so the session can aggregate just
//! the appended row range and [`MatCache::refresh`] the entry forward
//! (the paper's §7 aggregate-union identity: a group-by over a union of
//! disjoint partitions is the merge of per-partition aggregates). Only
//! when a delta chain is unavailable or uneconomic does the caller fall
//! back to [`MatCache::drop_stale`] — the old invalidate-everything
//! behaviour, now the exception instead of the rule.

#![warn(missing_docs)]

use gbmqo_exec::AggSpec;
use gbmqo_storage::Table;
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

/// A stale cache entry eligible for delta refresh: the aggregate as of
/// an older table version, plus everything needed to merge the appended
/// rows into it.
#[derive(Debug, Clone)]
pub struct StaleAggregate {
    /// Base-table column names of the cached aggregate, sorted.
    pub cols: Vec<String>,
    /// The materialized result at `version`.
    pub table: Arc<Table>,
    /// Row count of the cached aggregate.
    pub rows: usize,
    /// Table version the aggregate was computed at.
    pub version: u64,
    /// Aggregate signature the entry was cached under.
    pub agg_sig: u64,
    /// The workload's original aggregate specs (the merge specs: their
    /// [`AggSpec::reaggregate`] forms combine partial aggregates
    /// losslessly for COUNT/SUM/MIN/MAX under append-only ingest).
    pub specs: Vec<AggSpec>,
}

/// One cached aggregate for a table.
#[derive(Debug)]
struct Entry {
    /// Sorted base column names.
    cols: Vec<String>,
    agg_sig: u64,
    table: Arc<Table>,
    rows: usize,
    bytes: usize,
    /// Table version the payload reflects. Entries behind the table's
    /// current version are stale-but-refreshable, not garbage.
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
    slots: FxHashMap<String, Vec<Entry>>,
    stats: MatCacheStats,
}

/// Fraction of an entry's benefit that survives each admission round.
const DECAY: f64 = 0.95;

impl MatCache {
    /// Create a cache holding at most `budget_bytes` of materialized
    /// aggregates. Zero disables the cache.
    pub fn new(budget_bytes: usize) -> Self {
        MatCache {
            budget_bytes,
            total_bytes: 0,
            slots: FxHashMap::default(),
            stats: MatCacheStats::default(),
        }
    }

    /// Whether the cache can ever hold anything.
    pub fn enabled(&self) -> bool {
        self.budget_bytes > 0
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Current counters.
    pub fn stats(&self) -> MatCacheStats {
        let mut s = self.stats;
        s.bytes = self.total_bytes as u64;
        s.entries = self.slots.values().map(|s| s.len() as u64).sum();
        s
    }

    /// Find the cheapest cached aggregate of `table` (at contents
    /// `version`, under aggregate signature `agg_sig`) whose column set
    /// covers `want_cols`. "Cheapest" is fewest rows — the paper's cost
    /// model charges re-aggregation by input cardinality. Entries
    /// cached under an older version are skipped, never served — but
    /// they stay resident as refresh candidates (see
    /// [`MatCache::lookup_stale`]).
    pub fn lookup_covering(
        &mut self,
        table: &str,
        version: u64,
        want_cols: &[String],
        agg_sig: u64,
        base_rows: usize,
    ) -> Option<CachedAggregate> {
        if !self.enabled() {
            return None;
        }
        let Some(slot) = self.slots.get_mut(table) else {
            self.stats.misses += 1;
            return None;
        };
        let mut want = want_cols.to_vec();
        want.sort_unstable();
        let Some(hit) = slot
            .iter_mut()
            .filter(|e| e.version == version && e.agg_sig == agg_sig && covers(&e.cols, &want))
            .min_by_key(|e| e.rows)
        else {
            self.stats.misses += 1;
            return None;
        };
        let saved = base_rows.saturating_sub(hit.rows) as u64;
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

    /// Find the best *stale* covering aggregate of `table`: one cached
    /// at a version older than `version` (the table's current one)
    /// whose column set covers `want_cols`. The caller decides whether
    /// to bring it current via a delta merge ([`MatCache::refresh`]) or
    /// drop it ([`MatCache::drop_stale`]). The most recent qualifying
    /// version wins (shortest delta chain), fewest rows breaking ties.
    /// Does not touch hit/miss counters — the fresh lookup already
    /// recorded the miss.
    pub fn lookup_stale(
        &mut self,
        table: &str,
        version: u64,
        want_cols: &[String],
        agg_sig: u64,
    ) -> Option<StaleAggregate> {
        if !self.enabled() {
            return None;
        }
        let slot = self.slots.get(table)?;
        let mut want = want_cols.to_vec();
        want.sort_unstable();
        let hit = slot
            .iter()
            .filter(|e| e.version < version && e.agg_sig == agg_sig && covers(&e.cols, &want))
            .max_by(|a, b| a.version.cmp(&b.version).then(b.rows.cmp(&a.rows)))?;
        Some(StaleAggregate {
            cols: hit.cols.clone(),
            table: Arc::clone(&hit.table),
            rows: hit.rows,
            version: hit.version,
            agg_sig: hit.agg_sig,
            specs: hit.specs.clone(),
        })
    }

    /// Every stale entry of `table` (cached at a version older than
    /// `version`), regardless of column set or aggregate signature.
    /// The eager refresh policy walks this list right after an append.
    pub fn stale_entries(&self, table: &str, version: u64) -> Vec<StaleAggregate> {
        let Some(slot) = self.slots.get(table) else {
            return Vec::new();
        };
        slot.iter()
            .filter(|e| e.version < version)
            .map(|e| StaleAggregate {
                cols: e.cols.clone(),
                table: Arc::clone(&e.table),
                rows: e.rows,
                version: e.version,
                agg_sig: e.agg_sig,
                specs: e.specs.clone(),
            })
            .collect()
    }

    /// Replace the payload of the stale entry `(cols, agg_sig)` cached
    /// at `from_version` with `result` computed at `to_version` — the
    /// commit step of a delta refresh. Benefit carries over (the entry
    /// keeps its earned standing; it answered this request too). If the
    /// refreshed payload grew past the budget, lower-density *other*
    /// entries are evicted. Returns false if no such entry exists (it
    /// was evicted in the meantime) or the cache is disabled.
    #[allow(clippy::too_many_arguments)]
    pub fn refresh(
        &mut self,
        table: &str,
        cols: &[String],
        agg_sig: u64,
        from_version: u64,
        to_version: u64,
        result: Arc<Table>,
        base_rows: usize,
    ) -> bool {
        if !self.enabled() {
            return false;
        }
        let mut cols = cols.to_vec();
        cols.sort_unstable();
        let Some(slot) = self.slots.get_mut(table) else {
            return false;
        };
        let Some(idx) = slot
            .iter()
            .position(|e| e.version == from_version && e.agg_sig == agg_sig && e.cols == cols)
        else {
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
            e.version = to_version;
            e.benefit = e.benefit.max(base_rows.saturating_sub(rows) as f64);
        }
        self.stats.refreshes += 1;
        self.evict_over_budget(Some((table, &cols, agg_sig, to_version)));
        true
    }

    /// Drop every entry of `table` cached at a version other than
    /// `version` — the invalidation fallback for deltas that cannot (or
    /// should not) be merged. Returns how many entries were dropped.
    pub fn drop_stale(&mut self, table: &str, version: u64) -> usize {
        let Some(slot) = self.slots.get_mut(table) else {
            return 0;
        };
        let before = slot.len();
        let mut freed = 0usize;
        slot.retain(|e| {
            if e.version == version {
                true
            } else {
                freed += e.bytes;
                false
            }
        });
        let dropped = before - slot.len();
        if slot.is_empty() {
            self.slots.remove(table);
        }
        self.total_bytes -= freed;
        self.stats.stale_drops += dropped as u64;
        dropped
    }

    /// Evict lowest-density entries until the cache fits its budget,
    /// never touching `keep` (the entry just refreshed).
    fn evict_over_budget(&mut self, keep: Option<(&str, &[String], u64, u64)>) {
        while self.total_bytes > self.budget_bytes {
            let victim = self
                .slots
                .iter()
                .flat_map(|(t, s)| s.iter().enumerate().map(move |(i, e)| (t, i, e)))
                .filter(|(t, _, e)| {
                    keep.is_none_or(|(kt, kc, ks, kv)| {
                        !(*t == kt && e.cols == kc && e.agg_sig == ks && e.version == kv)
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

    /// Offer a freshly materialized aggregate of `table` (at contents
    /// `version`) on `cols` for admission, carrying the workload's
    /// aggregate `specs` so the entry can later be delta-refreshed.
    /// Returns whether it was kept. Rejects aggregates no smaller than
    /// the base table (no re-aggregation benefit) and aggregates that
    /// cannot fit the budget without evicting entries of higher benefit
    /// density.
    #[allow(clippy::too_many_arguments)]
    pub fn admit(
        &mut self,
        table: &str,
        version: u64,
        cols: &[String],
        agg_sig: u64,
        specs: &[AggSpec],
        result: Arc<Table>,
        base_rows: usize,
    ) -> bool {
        if !self.enabled() {
            return false;
        }
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

        let slot = self.slots.entry(table.to_string()).or_default();
        if let Some(e) = slot
            .iter_mut()
            .find(|e| e.agg_sig == agg_sig && e.cols == cols)
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
        self.slots
            .entry(table.to_string())
            .or_default()
            .push(Entry {
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

    /// Drop every cached aggregate of `table` (any version). Called
    /// when the table is replaced or mutated out of band.
    pub fn invalidate_table(&mut self, table: &str) {
        if let Some(slot) = self.slots.remove(table) {
            let freed: usize = slot.iter().map(|e| e.bytes).sum();
            self.total_bytes -= freed;
        }
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.total_bytes = 0;
    }
}

/// `sup` ⊇ `sub`, both sorted.
fn covers(sup: &[String], sub: &[String]) -> bool {
    let mut it = sup.iter();
    sub.iter().all(|c| it.any(|s| s == c))
}

/// A stable signature of a workload's aggregate list, used so cached
/// results are only reused by workloads computing the same aggregates.
pub fn agg_signature(aggs: &[AggSpec]) -> u64 {
    let mut h = FxHasher::default();
    aggs.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{Column, DataType, Field, Schema};

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

    #[test]
    fn lookup_prefers_the_smallest_covering_superset() {
        let mut mc = MatCache::new(1 << 20);
        assert!(mc.admit(
            "r",
            1,
            &cols(&["a", "b", "c"]),
            SIG,
            &specs(),
            agg_table(&["a", "b", "c"], 500),
            BASE
        ));
        assert!(mc.admit(
            "r",
            1,
            &cols(&["a", "b"]),
            SIG,
            &specs(),
            agg_table(&["a", "b"], 100),
            BASE
        ));

        let hit = mc
            .lookup_covering("r", 1, &cols(&["a"]), SIG, BASE)
            .unwrap();
        assert_eq!(hit.cols, cols(&["a", "b"]));
        assert_eq!(hit.rows, 100);
        assert!(!hit.exact);

        let exact = mc
            .lookup_covering("r", 1, &cols(&["b", "a"]), SIG, BASE)
            .unwrap();
        assert!(exact.exact, "set equality ignores order");

        assert!(mc
            .lookup_covering("r", 1, &cols(&["z"]), SIG, BASE)
            .is_none());
        assert!(mc
            .lookup_covering("r", 1, &cols(&["a"]), SIG + 1, BASE)
            .is_none());
        let s = mc.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (2, 2, 2));
        assert!(s.rows_saved >= 2 * (BASE as u64 - 100));
    }

    #[test]
    fn stale_entries_survive_misses_and_refresh_forward() {
        let mut mc = MatCache::new(1 << 20);
        mc.admit(
            "r",
            1,
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 10),
            BASE,
        );
        // A lookup at a newer version misses — but the entry survives.
        assert!(mc
            .lookup_covering("r", 2, &cols(&["a"]), SIG, BASE)
            .is_none());
        assert_eq!(mc.stats().entries, 1);

        // The surviving entry is surfaced as a refresh candidate, with
        // its merge specs intact.
        let stale = mc.lookup_stale("r", 2, &cols(&["a"]), SIG).unwrap();
        assert_eq!(stale.version, 1);
        assert_eq!(stale.rows, 10);
        assert_eq!(stale.specs, specs());
        // Entries at the current version are not "stale".
        assert!(mc.lookup_stale("r", 1, &cols(&["a"]), SIG).is_none());

        // Committing a delta merge brings it current; it serves again.
        assert!(mc.refresh("r", &cols(&["a"]), SIG, 1, 2, agg_table(&["a"], 12), BASE));
        let hit = mc
            .lookup_covering("r", 2, &cols(&["a"]), SIG, BASE)
            .unwrap();
        assert_eq!(hit.rows, 12);
        assert_eq!(mc.stats().refreshes, 1);
        // Refreshing an entry that no longer exists at that version fails.
        assert!(!mc.refresh("r", &cols(&["a"]), SIG, 1, 3, agg_table(&["a"], 12), BASE));
    }

    #[test]
    fn lookup_stale_prefers_the_most_recent_version() {
        let mut mc = MatCache::new(1 << 20);
        mc.admit(
            "r",
            1,
            &cols(&["a", "b"]),
            SIG,
            &specs(),
            agg_table(&["a", "b"], 50),
            BASE,
        );
        mc.admit(
            "r",
            3,
            &cols(&["a", "c"]),
            SIG,
            &specs(),
            agg_table(&["a", "c"], 90),
            BASE,
        );
        // Both cover {a}; the version-3 entry needs the shortest delta
        // chain even though it has more rows.
        let stale = mc.lookup_stale("r", 5, &cols(&["a"]), SIG).unwrap();
        assert_eq!(stale.version, 3);
        assert_eq!(stale.cols, cols(&["a", "c"]));
    }

    #[test]
    fn drop_stale_removes_only_old_versions() {
        let mut mc = MatCache::new(1 << 20);
        mc.admit(
            "r",
            1,
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 10),
            BASE,
        );
        mc.admit(
            "r",
            4,
            &cols(&["b"]),
            SIG,
            &specs(),
            agg_table(&["b"], 10),
            BASE,
        );
        assert_eq!(mc.drop_stale("r", 4), 1);
        assert!(mc
            .lookup_covering("r", 4, &cols(&["b"]), SIG, BASE)
            .is_some());
        assert!(mc.lookup_stale("r", 4, &cols(&["a"]), SIG).is_none());
        assert_eq!(mc.stats().stale_drops, 1);
        assert_eq!(mc.stats().entries, 1);
    }

    #[test]
    fn same_key_admission_is_version_guarded() {
        let mut mc = MatCache::new(1 << 20);
        assert!(mc.admit(
            "r",
            3,
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 10),
            BASE
        ));
        // A same-key admit from an older snapshot must not roll the
        // payload backwards.
        assert!(!mc.admit(
            "r",
            2,
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 9),
            BASE
        ));
        // A newer-version admit overwrites in place.
        assert!(mc.admit(
            "r",
            5,
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 11),
            BASE
        ));
        assert_eq!(mc.stats().entries, 1);
        let hit = mc
            .lookup_covering("r", 5, &cols(&["a"]), SIG, BASE)
            .unwrap();
        assert_eq!(hit.rows, 11);
    }

    #[test]
    fn invalidate_table_frees_bytes() {
        let mut mc = MatCache::new(1 << 20);
        mc.admit(
            "r",
            1,
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 10),
            BASE,
        );
        mc.admit(
            "s",
            1,
            &cols(&["x"]),
            SIG,
            &specs(),
            agg_table(&["x"], 10),
            BASE,
        );
        let before = mc.stats().bytes;
        mc.invalidate_table("r");
        assert!(mc.stats().bytes < before);
        assert!(mc
            .lookup_covering("r", 1, &cols(&["a"]), SIG, BASE)
            .is_none());
        assert!(mc
            .lookup_covering("s", 1, &cols(&["x"]), SIG, BASE)
            .is_some());
    }

    #[test]
    fn budget_is_enforced_by_density_eviction() {
        let small = agg_table(&["a"], 64);
        let unit = small.byte_size();
        // Room for exactly two entries.
        let mut mc = MatCache::new(2 * unit);
        assert!(mc.admit(
            "r",
            1,
            &cols(&["a"]),
            SIG,
            &specs(),
            Arc::clone(&small),
            BASE
        ));
        assert!(mc.admit(
            "r",
            1,
            &cols(&["b"]),
            SIG,
            &specs(),
            agg_table(&["b"], 64),
            BASE
        ));
        assert!(mc.stats().bytes <= 2 * unit as u64);

        // Make {a} clearly the most valuable resident.
        for _ in 0..5 {
            mc.lookup_covering("r", 1, &cols(&["a"]), SIG, BASE)
                .unwrap();
        }
        // A third entry must evict the colder {b}, not {a}.
        assert!(mc.admit(
            "r",
            1,
            &cols(&["c"]),
            SIG,
            &specs(),
            agg_table(&["c"], 64),
            BASE
        ));
        assert!(mc.stats().bytes <= 2 * unit as u64);
        assert_eq!(mc.stats().evictions, 1);
        assert!(mc
            .lookup_covering("r", 1, &cols(&["a"]), SIG, BASE)
            .is_some());
        assert!(mc
            .lookup_covering("r", 1, &cols(&["b"]), SIG, BASE)
            .is_none());
    }

    #[test]
    fn admission_rejects_no_benefit_oversized_and_outscored() {
        let mut mc = MatCache::new(1 << 20);
        // As many rows as the base table: re-aggregation saves nothing.
        assert!(!mc.admit(
            "r",
            1,
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 100),
            100
        ));
        // Larger than the whole budget.
        let mut tiny = MatCache::new(8);
        assert!(!tiny.admit(
            "r",
            1,
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 100),
            BASE
        ));
        // Disabled cache: no lookups, no admissions, no counters.
        let mut off = MatCache::new(0);
        assert!(!off.enabled());
        assert!(!off.admit(
            "r",
            1,
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 10),
            BASE
        ));
        assert!(off
            .lookup_covering("r", 1, &cols(&["a"]), SIG, BASE)
            .is_none());
        assert_eq!(off.stats(), MatCacheStats::default());

        // An incumbent with far higher benefit density is not evicted
        // for a low-benefit candidate.
        let small = agg_table(&["a"], 64);
        let mut mc = MatCache::new(small.byte_size());
        assert!(mc.admit("r", 1, &cols(&["a"]), SIG, &specs(), small, BASE));
        for _ in 0..10 {
            mc.lookup_covering("r", 1, &cols(&["a"]), SIG, BASE)
                .unwrap();
        }
        // Nearly as many rows as base: minuscule benefit.
        assert!(!mc.admit(
            "r",
            1,
            &cols(&["b"]),
            SIG,
            &specs(),
            agg_table(&["b"], 64),
            65
        ));
        assert!(mc
            .lookup_covering("r", 1, &cols(&["a"]), SIG, BASE)
            .is_some());
    }

    #[test]
    fn same_key_admission_refreshes_in_place() {
        let mut mc = MatCache::new(1 << 20);
        assert!(mc.admit(
            "r",
            1,
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 50),
            BASE
        ));
        assert!(mc.admit(
            "r",
            1,
            &cols(&["a"]),
            SIG,
            &specs(),
            agg_table(&["a"], 40),
            BASE
        ));
        assert_eq!(mc.stats().entries, 1);
        let hit = mc
            .lookup_covering("r", 1, &cols(&["a"]), SIG, BASE)
            .unwrap();
        assert_eq!(hit.rows, 40);
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
