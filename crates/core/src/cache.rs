//! Workload plan cache: skip the O(n²)-per-round merge search when the
//! same GROUPING SETS request comes back.
//!
//! A serving system sees the same analytic workloads again and again
//! (dashboards re-issuing the same CUBE, report suites re-running the
//! same batch of Group Bys). The search of §4.2 is cheap next to
//! execution but not free — it issues one cost-model ("query optimizer")
//! call per candidate edge — so [`PlanCache`] memoizes finished plans
//! under a canonical [`WorkloadFingerprint`]. A hit returns the plan
//! with zero optimizer calls and [`SearchStats::cache_hit`] set.
//!
//! The fingerprint covers everything the search result depends on:
//!
//! * the base table name and its column universe (in order — column
//!   sets are bitmasks over it),
//! * the requested column sets, sorted (request order cannot change
//!   which plans are valid, so it must not change the key),
//! * the aggregate list,
//! * the [`SearchConfig`] (pruning flags change the search trajectory),
//! * a caller-supplied *cost-model tag*, so plans are invalidated when
//!   the model they were optimized under changes,
//! * the request's base relation as resolved for it (a catalog table, or
//!   a selection of one keyed by its source and conjuncts): its *contents
//!   version*, so replacing or appending to a table can never reuse a
//!   plan optimized for (and estimated against) the old data, and its
//!   *indexes*, which the optimizer model prices.
//!
//! Statistics need no key of their own: they are a function of the
//! contents version and the cost-model spec.

use crate::executor::GroupEstimates;
use crate::greedy::{SearchConfig, SearchStats};
use crate::plan::LogicalPlan;
use crate::workload::Workload;
use gbmqo_storage::{IndexKind, Snapshot};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// Canonical identity of a (workload, configuration, base table) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadFingerprint(u64);

impl WorkloadFingerprint {
    /// Compute the fingerprint of `workload` optimized under `config`
    /// and the cost model identified by `cost_model_tag`, over its base
    /// relation `base`.
    pub fn compute(
        workload: &Workload,
        config: &SearchConfig,
        cost_model_tag: u64,
        base: &Snapshot,
    ) -> Self {
        let mut h = rustc_hash::FxHasher::default();
        base.name.hash(&mut h);
        // The column universe in order: ColSet bits index into it.
        workload.column_names.hash(&mut h);
        workload.base_ordinals.hash(&mut h);
        // Requests normalized by sorting — {a}, {b} and {b}, {a} are the
        // same GROUPING SETS.
        let mut requests: Vec<u128> = workload.requests.iter().map(|s| s.0).collect();
        requests.sort_unstable();
        requests.hash(&mut h);
        workload.aggregates.hash(&mut h);
        config.binary_only.hash(&mut h);
        config.subsumption_pruning.hash(&mut h);
        config.monotonicity_pruning.hash(&mut h);
        config.cube_rollup_merges.hash(&mut h);
        config.benefit_greedy.hash(&mut h);
        config.max_intermediate_bytes.map(f64::to_bits).hash(&mut h);
        config.epsilon.to_bits().hash(&mut h);
        cost_model_tag.hash(&mut h);
        base.version.hash(&mut h);
        for (key_cols, kind) in &base.indexes {
            key_cols.hash(&mut h);
            (*kind == IndexKind::Clustered).hash(&mut h);
        }
        WorkloadFingerprint(h.finish())
    }
}

/// Hit/miss/eviction counters of a session's plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a plan.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
}

struct CachedPlan {
    plan: LogicalPlan,
    stats: SearchStats,
    /// Optimizer distinct-group estimates per plan node, cached alongside
    /// the plan so a hit skips the cost-model calls too.
    estimates: GroupEstimates,
}

/// An LRU cache of optimized plans keyed by [`WorkloadFingerprint`].
///
/// Capacity 0 disables caching (every lookup is a miss and inserts are
/// dropped), so a `PlanCache` can be carried unconditionally.
pub struct PlanCache {
    capacity: usize,
    map: FxHashMap<u64, CachedPlan>,
    /// Keys from least- to most-recently used.
    order: VecDeque<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl PlanCache {
    /// A cache holding up to `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            map: FxHashMap::default(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up a plan. A hit refreshes the entry's recency and returns
    /// the cached plan and its per-node group estimates, with the search
    /// stats rewritten to report the skip: `cache_hit = true`,
    /// `optimizer_calls = 0` and no statistics created (no cost-model
    /// call is made on a hit).
    pub fn get(
        &mut self,
        key: WorkloadFingerprint,
    ) -> Option<(LogicalPlan, SearchStats, GroupEstimates)> {
        match self.map.get(&key.0) {
            Some(entry) => {
                let hit = (
                    entry.plan.clone(),
                    SearchStats {
                        optimizer_calls: 0,
                        stats_created: 0,
                        stats_create_us: 0,
                        cache_hit: true,
                        ..entry.stats
                    },
                    entry.estimates.clone(),
                );
                self.hits += 1;
                self.touch(key.0);
                Some(hit)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Cache `plan` under `key`, evicting the least-recently-used entry
    /// if the cache is full. No-op at capacity 0.
    pub fn insert(
        &mut self,
        key: WorkloadFingerprint,
        plan: LogicalPlan,
        stats: SearchStats,
        estimates: GroupEstimates,
    ) {
        if self.capacity == 0 {
            return;
        }
        if self
            .map
            .insert(
                key.0,
                CachedPlan {
                    plan,
                    stats,
                    estimates,
                },
            )
            .is_some()
        {
            self.touch(key.0);
            return;
        }
        self.order.push_back(key.0);
        if self.map.len() > self.capacity {
            if let Some(lru) = self.order.pop_front() {
                self.map.remove(&lru);
                self.evictions += 1;
            }
        }
    }

    /// Drop the entry cached under `key`, if any, so the next lookup
    /// misses and re-runs the search. This is the feedback loop's
    /// re-optimization hook: when group counts observed under sampled
    /// statistics shift a cached plan's cost past the session's
    /// threshold, the entry is invalidated rather than served stale.
    /// Returns true when an entry was removed.
    pub fn invalidate(&mut self, key: WorkloadFingerprint) -> bool {
        if self.map.remove(&key.0).is_some() {
            if let Some(pos) = self.order.iter().position(|&k| k == key.0) {
                self.order.remove(pos);
            }
            true
        } else {
            false
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
        }
    }

    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
            self.order.push_back(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SubNode;
    use gbmqo_storage::{Catalog, Column, DataType, Field, Schema, Table};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_i64((0..10).collect()),
                Column::from_i64((0..10).map(|i| i % 2).collect()),
            ],
        )
        .unwrap()
    }

    fn workload(requests: &[Vec<&str>]) -> Workload {
        Workload::new("r", &table(), &["a", "b"], requests).unwrap()
    }

    fn plan_of(w: &Workload) -> LogicalPlan {
        LogicalPlan {
            subplans: w.requests.iter().map(|&c| SubNode::leaf(c)).collect(),
        }
    }

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.register("r", table()).unwrap();
        catalog
    }

    fn snapshot() -> Snapshot {
        catalog().snapshot("r").unwrap()
    }

    fn key_of(w: &Workload) -> WorkloadFingerprint {
        WorkloadFingerprint::compute(w, &SearchConfig::default(), 0, &snapshot())
    }

    #[test]
    fn fingerprint_is_stable_and_order_insensitive() {
        let w1 = workload(&[vec!["a"], vec!["b"]]);
        let w2 = workload(&[vec!["b"], vec!["a"]]);
        assert_eq!(key_of(&w1), key_of(&w1), "same input, same key");
        assert_eq!(
            key_of(&w1),
            key_of(&w2),
            "request order must not change the key"
        );
    }

    #[test]
    fn fingerprint_distinguishes_inputs() {
        let w = workload(&[vec!["a"], vec!["b"]]);
        let base = key_of(&w);
        let other = workload(&[vec!["a"], vec!["a", "b"]]);
        assert_ne!(base, key_of(&other), "different requests");
        let key = |config: &SearchConfig, tag: u64, catalog: &Catalog| {
            WorkloadFingerprint::compute(&w, config, tag, &catalog.snapshot("r").unwrap())
        };
        let (default, mut catalog) = (SearchConfig::default(), catalog());
        assert_ne!(
            base,
            key(&SearchConfig::pruned(), 0, &catalog),
            "different search config"
        );
        assert_ne!(base, key(&default, 1, &catalog), "different cost model");
        catalog.replace("r", table()).unwrap();
        let replaced = key(&default, 0, &catalog);
        assert_ne!(
            base, replaced,
            "different table version: a replaced table must miss"
        );
        catalog
            .create_index("r", "nc_a", IndexKind::NonClustered, vec![0])
            .unwrap();
        assert_ne!(
            replaced,
            key(&default, 0, &catalog),
            "different indexes: a new index must miss"
        );
    }

    #[test]
    fn hit_miss_counters_and_stats_rewrite() {
        let w = workload(&[vec!["a"]]);
        let mut cache = PlanCache::new(4);
        let key = key_of(&w);
        assert!(cache.get(key).is_none());
        let stats = SearchStats {
            optimizer_calls: 17,
            stats_created: 5,
            stats_create_us: 900,
            rounds: 2,
            ..Default::default()
        };
        cache.insert(key, plan_of(&w), stats, Default::default());
        let (plan, hit_stats, _) = cache.get(key).unwrap();
        assert_eq!(plan.subplans.len(), 1);
        assert!(hit_stats.cache_hit);
        assert_eq!(
            hit_stats.optimizer_calls, 0,
            "a hit makes no optimizer calls"
        );
        assert_eq!(
            (hit_stats.stats_created, hit_stats.stats_create_us),
            (0, 0),
            "nor creates statistics"
        );
        assert_eq!(hit_stats.rounds, 2, "other stats are preserved");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                entries: 1
            }
        );
    }

    #[test]
    fn lru_eviction_prefers_least_recently_used() {
        let workloads: Vec<Workload> = vec![
            workload(&[vec!["a"]]),
            workload(&[vec!["b"]]),
            workload(&[vec!["a", "b"]]),
        ];
        let keys: Vec<WorkloadFingerprint> = workloads.iter().map(key_of).collect();
        let mut cache = PlanCache::new(2);
        cache.insert(
            keys[0],
            plan_of(&workloads[0]),
            SearchStats::default(),
            Default::default(),
        );
        cache.insert(
            keys[1],
            plan_of(&workloads[1]),
            SearchStats::default(),
            Default::default(),
        );
        // touch key 0 so key 1 becomes the LRU
        assert!(cache.get(keys[0]).is_some());
        cache.insert(
            keys[2],
            plan_of(&workloads[2]),
            SearchStats::default(),
            Default::default(),
        );
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
        assert!(cache.get(keys[1]).is_none(), "LRU entry was evicted");
        assert!(cache.get(keys[0]).is_some());
        assert!(cache.get(keys[2]).is_some());
    }

    #[test]
    fn fingerprint_covers_merge_variant_flags() {
        let w = workload(&[vec!["a"], vec!["b"]]);
        let base = key_of(&w);
        assert_ne!(
            base,
            WorkloadFingerprint::compute(
                &w,
                &SearchConfig {
                    cube_rollup_merges: true,
                    ..Default::default()
                },
                0,
                &snapshot()
            ),
            "cube/rollup merge alternatives change the search trajectory"
        );
        assert_ne!(
            base,
            WorkloadFingerprint::compute(
                &w,
                &SearchConfig {
                    benefit_greedy: true,
                    ..Default::default()
                },
                0,
                &snapshot()
            ),
            "benefit-greedy ordering changes the search trajectory"
        );
    }

    #[test]
    fn invalidate_forces_reoptimization() {
        let w = workload(&[vec!["a"]]);
        let mut cache = PlanCache::new(4);
        let key = key_of(&w);
        assert!(!cache.invalidate(key), "nothing cached yet");
        cache.insert(key, plan_of(&w), SearchStats::default(), Default::default());
        assert!(cache.invalidate(key));
        assert!(cache.get(key).is_none(), "invalidated entry must miss");
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let w = workload(&[vec!["a"]]);
        let mut cache = PlanCache::new(0);
        cache.insert(
            key_of(&w),
            plan_of(&w),
            SearchStats::default(),
            Default::default(),
        );
        assert!(cache.get(key_of(&w)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
