//! Caching of per-column-set cardinality estimates and accounting for the
//! cost of creating statistics (experiment §6.7 / Figure 12).

use rustc_hash::FxHashMap;
use std::time::{Duration, Instant};

/// One statistics-creation event: which column set, and how long building
/// the statistic took.
#[derive(Debug, Clone)]
pub struct StatsCreationEvent {
    /// Sorted column ordinals the statistic covers.
    pub cols: Vec<usize>,
    /// Wall time spent building it.
    pub elapsed: Duration,
    /// Rows of the table, or of its sample, that building it read.
    pub rows: usize,
}

/// Log of statistics created so far. It lives and dies with its store: in
/// a [`crate::StatsCatalog`] that is one contents version of one table, and
/// every event stands for one pass over the table or its sample.
#[derive(Debug, Clone, Default)]
pub struct StatsCreationLog {
    /// All creation events in order.
    pub events: Vec<StatsCreationEvent>,
}

impl StatsCreationLog {
    /// Total time spent creating statistics.
    pub fn total(&self) -> Duration {
        self.events.iter().map(|e| e.elapsed).sum()
    }

    /// Number of statistics created.
    pub fn count(&self) -> usize {
        self.events.len()
    }

    /// Rows read to create them.
    pub fn rows(&self) -> u64 {
        self.events.iter().map(|e| e.rows as u64).sum()
    }
}

/// A column set as a map key. Sets whose ordinals are all below 128 — every
/// set the optimizer's `ColSet` can express — are a bitmask, so building
/// the key for a lookup allocates nothing; wider ordinals fall back to a
/// sorted, deduplicated slice.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ColKey {
    Mask(u128),
    Wide(Box<[usize]>),
}

impl ColKey {
    fn new(cols: &[usize]) -> Self {
        if cols.iter().all(|&c| c < 128) {
            ColKey::Mask(cols.iter().fold(0, |m, &c| m | 1u128 << c))
        } else {
            ColKey::Wide(sorted(cols).into())
        }
    }
}

fn sorted(cols: &[usize]) -> Vec<usize> {
    let mut v = cols.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

#[derive(Debug)]
struct Entry {
    value: f64,
    /// Value of the store's clock at the entry's last use.
    stamp: u64,
}

/// A cache of column-set → distinct-count estimates for one table.
///
/// The paper amortizes statistics: a statistic is created the first time a
/// Group By over its columns is encountered and reused afterwards. The
/// store mirrors that behaviour and records what each creation cost.
///
/// With [`StatsStore::with_capacity`] the store is bounded: once full, the
/// least-recently-used column set is evicted, and re-creating an evicted
/// statistic re-charges its cost to the creation log (the charge is for
/// *work done*, not for entries alive). Recency is a per-entry stamp of a
/// store-wide clock, so a hit costs one hash lookup and one store; only an
/// insert into a full store — which has just paid for building a statistic
/// — scans for the oldest stamp.
#[derive(Debug, Default)]
pub struct StatsStore {
    cache: FxHashMap<ColKey, Entry>,
    log: StatsCreationLog,
    capacity: Option<usize>,
    clock: u64,
    evictions: u64,
}

impl StatsStore {
    /// Create an empty, unbounded store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty store that holds at most `capacity` column sets,
    /// evicting the least recently used once full. A capacity of zero
    /// means unbounded.
    pub fn with_capacity(capacity: usize) -> Self {
        StatsStore {
            capacity: (capacity > 0).then_some(capacity),
            ..Self::default()
        }
    }

    /// Fetch the cached estimate for `cols` (order and duplicates are
    /// ignored), or build it with `build`, which reads `rows` rows, and
    /// record the creation cost.
    pub fn get_or_create(
        &mut self,
        cols: &[usize],
        rows: usize,
        build: impl FnOnce() -> f64,
    ) -> f64 {
        let key = ColKey::new(cols);
        self.clock += 1;
        if let Some(e) = self.cache.get_mut(&key) {
            e.stamp = self.clock;
            return e.value;
        }
        let start = Instant::now();
        let v = build();
        self.log.events.push(StatsCreationEvent {
            cols: sorted(cols),
            elapsed: start.elapsed(),
            rows,
        });
        self.insert(key, v);
        v
    }

    /// Peek without creating.
    pub fn get(&self, cols: &[usize]) -> Option<f64> {
        self.cache.get(&ColKey::new(cols)).map(|e| e.value)
    }

    /// Insert or overwrite an estimate without logging a creation.
    pub fn put(&mut self, cols: &[usize], value: f64) {
        self.clock += 1;
        self.insert(ColKey::new(cols), value);
    }

    fn insert(&mut self, key: ColKey, value: f64) {
        let stamp = self.clock;
        self.cache.insert(key, Entry { value, stamp });
        if self.capacity.is_some_and(|cap| self.cache.len() > cap) {
            // The entry just inserted carries the newest stamp, so it is
            // never its own victim.
            let oldest = self.cache.iter().min_by_key(|(_, e)| e.stamp);
            if let Some(victim) = oldest.map(|(k, _)| k.clone()) {
                self.cache.remove(&victim);
                self.evictions += 1;
            }
        }
    }

    /// Multiply every held value by `factor`, capping it at `max`; logs
    /// nothing.
    pub fn scale(&mut self, factor: f64, max: f64) {
        for e in self.cache.values_mut() {
            e.value = (e.value * factor).min(max);
        }
    }

    /// Number of entries evicted so far (always zero for unbounded stores).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The creation log.
    pub fn creation_log(&self) -> &StatsCreationLog {
        &self.log
    }

    /// Number of cached column sets.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_caches() {
        let mut s = StatsStore::new();
        let mut builds = 0;
        for _ in 0..3 {
            let v = s.get_or_create(&[2, 1], 0, || {
                builds += 1;
                42.0
            });
            assert_eq!(v, 42.0);
        }
        assert_eq!(builds, 1);
        assert_eq!(s.creation_log().count(), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn key_is_order_insensitive() {
        let mut s = StatsStore::new();
        s.get_or_create(&[3, 1], 0, || 7.0);
        assert_eq!(s.get(&[1, 3]), Some(7.0));
        assert_eq!(s.get(&[3, 1, 1]), Some(7.0)); // dedup
        assert_eq!(s.get(&[1]), None);
    }

    #[test]
    fn scale_multiplies_within_the_cap() {
        let mut s = StatsStore::new();
        s.put(&[0], 3.0);
        s.put(&[1], 90.0);
        s.scale(1.5, 100.0);
        assert_eq!((s.get(&[0]), s.get(&[1])), (Some(4.5), Some(100.0)));
        assert_eq!(s.creation_log().count(), 0);
    }

    #[test]
    fn put_does_not_log() {
        let mut s = StatsStore::new();
        s.put(&[0], 5.0);
        assert_eq!(s.get(&[0]), Some(5.0));
        assert_eq!(s.creation_log().count(), 0);
        assert!(!s.is_empty());
    }

    #[test]
    fn bounded_store_evicts_lru() {
        let mut s = StatsStore::with_capacity(2);
        s.get_or_create(&[0], 0, || 1.0);
        s.get_or_create(&[1], 0, || 2.0);
        // Touch [0] so [1] becomes the LRU victim.
        assert_eq!(s.get_or_create(&[0], 0, || panic!("cached")), 1.0);
        s.get_or_create(&[2], 0, || 3.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.evictions(), 1);
        assert_eq!(s.get(&[0]), Some(1.0));
        assert_eq!(s.get(&[1]), None); // evicted
        assert_eq!(s.get(&[2]), Some(3.0));
    }

    #[test]
    fn recreation_after_eviction_recharges_cost() {
        let mut s = StatsStore::with_capacity(1);
        let mut builds = 0;
        let mut build = |store: &mut StatsStore, cols: &[usize]| {
            store.get_or_create(cols, 0, || {
                builds += 1;
                builds as f64
            })
        };
        build(&mut s, &[0]); // created: 1 event
        build(&mut s, &[1]); // evicts [0]: 2 events
        assert_eq!(s.evictions(), 1);
        // Re-creating the evicted [0] must run the builder again and log a
        // fresh creation event — the cost is re-charged, not reused.
        let v = build(&mut s, &[0]);
        assert_eq!(v, 3.0, "builder must re-run after eviction");
        assert_eq!(builds, 3);
        let log = s.creation_log();
        assert_eq!(log.count(), 3);
        assert_eq!(log.events[0].cols, vec![0]);
        assert_eq!(log.events[2].cols, vec![0]);
        // Both [0] creations carry their own (non-negative) charge.
        assert!(log.total() >= log.events[2].elapsed);
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let mut s = StatsStore::with_capacity(0);
        for i in 0..100 {
            s.get_or_create(&[i], 0, || i as f64);
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.evictions(), 0);
    }

    #[test]
    fn creation_log_totals() {
        let mut s = StatsStore::new();
        s.get_or_create(&[0], 0, || 1.0);
        s.get_or_create(&[1], 0, || 2.0);
        let log = s.creation_log();
        assert_eq!(log.count(), 2);
        assert!(log.total() >= Duration::ZERO);
        assert_eq!(log.events[0].cols, vec![0]);
    }

    #[test]
    fn many_hits_keep_exact_lru_order() {
        // Many hits on a full store: the victim is still the one entry
        // that was never touched again.
        let mut s = StatsStore::with_capacity(3);
        for c in 0..3 {
            s.get_or_create(&[c], 0, || c as f64);
        }
        for _ in 0..100 {
            s.get_or_create(&[0], 0, || unreachable!("cached"));
            s.get_or_create(&[2], 0, || unreachable!("cached"));
        }
        s.get_or_create(&[3], 0, || 3.0);
        assert_eq!(s.get(&[1]), None);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn wide_ordinals_share_the_lookup_path() {
        let mut s = StatsStore::new();
        s.get_or_create(&[300, 2], 0, || 9.0);
        assert_eq!(s.get(&[2, 300, 300]), Some(9.0));
        assert_eq!(s.get(&[2]), None);
    }
}
