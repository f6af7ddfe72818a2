//! # gbmqo-feedback
//!
//! The adaptive statistics and plan-feedback subsystem: closing the loop
//! the paper's cost model (§3.2.2) leaves open. Static sample-based
//! estimates are never corrected by what execution actually observed;
//! this crate records per-plan-node observations and overlays them — and
//! online-maintained distinct sketches — on top of any existing
//! [`CardinalitySource`], so both cost models benefit with no API change.
//!
//! The loop has three parts:
//!
//! * **Observe** — the executor records [`NodeObservation`]s (column
//!   set, input rows → output groups) into a bounded, decay-weighted
//!   [`FeedbackStore`].
//! * **Correct** — [`AdaptiveCardinalitySource`] answers `distinct()`
//!   preferring (1) a true observation, (2) an online sketch estimate
//!   kept fresh from delta rows, (3) the wrapped static estimate.
//! * **Re-optimize** — the session compares a cached plan's cost under
//!   corrected estimates against its recorded cost and invalidates the
//!   cache entry when the shift exceeds a threshold (see `gbmqo-core`).
//!
//! Feedback changes *plans*, never *answers*: the overlay only alters
//! cardinality estimates consumed by the optimizer.

#![warn(missing_docs)]

use gbmqo_stats::{CardinalitySource, StatsCreationLog, TableSketches};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

/// One per-plan-node execution observation.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeObservation {
    /// Base-table catalog entry the plan ran over.
    pub table: String,
    /// Base-table column ordinals the node grouped by (any order).
    pub cols: Vec<usize>,
    /// Rows the node consumed.
    pub input_rows: u64,
    /// Groups the node produced — the *true* distinct count of `cols`
    /// within the node's input (for whole-table inputs, within `R`).
    pub output_groups: u64,
    /// Table version the observation was taken at.
    pub table_version: u64,
}

/// Decay-weighted state for one (table, column-set) key.
#[derive(Debug, Clone)]
struct FeedbackEntry {
    groups: f64,
    input_rows: f64,
    hits: u64,
    last_version: u64,
}

/// Tuning knobs for the [`FeedbackStore`].
#[derive(Debug, Clone, Copy)]
pub struct FeedbackConfig {
    /// Maximum distinct (table, column-set) keys retained; least recently
    /// *updated* keys are evicted beyond this. Zero means unbounded.
    pub capacity: usize,
    /// EWMA weight of the newest observation in `[0, 1]`:
    /// `new = decay·observed + (1 − decay)·old`. 1.0 keeps only the
    /// latest observation.
    pub decay: f64,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            capacity: 1024,
            decay: 0.5,
        }
    }
}

/// A bounded, decay-weighted store of observed Group By cardinalities.
///
/// Keys are (table entry, sorted column ordinals). Each `record` blends
/// the new observation into the existing entry with EWMA weight
/// [`FeedbackConfig::decay`], so drifting data walks estimates toward
/// recent truth without letting one anomalous run dominate.
#[derive(Debug, Default)]
pub struct FeedbackStore {
    config: FeedbackConfig,
    entries: FxHashMap<(String, Vec<usize>), FeedbackEntry>,
    lru: VecDeque<(String, Vec<usize>)>,
    observations: u64,
    evictions: u64,
    generation: u64,
}

impl FeedbackStore {
    /// Create a store with default config (1024 entries, decay 0.5).
    pub fn new() -> Self {
        Self::with_config(FeedbackConfig::default())
    }

    /// Create a store with explicit config.
    pub fn with_config(config: FeedbackConfig) -> Self {
        FeedbackStore {
            config: FeedbackConfig {
                capacity: config.capacity,
                decay: config.decay.clamp(0.0, 1.0),
            },
            ..Self::default()
        }
    }

    /// Record one observation, blending it into any existing entry.
    /// Observations with zero input rows are ignored (nothing ran).
    pub fn record(&mut self, obs: &NodeObservation) {
        if obs.input_rows == 0 {
            return;
        }
        self.observations += 1;
        self.generation += 1;
        let key = (obs.table.clone(), sorted(&obs.cols));
        let decay = self.config.decay;
        match self.entries.get_mut(&key) {
            Some(e) => {
                // An observation at a newer table version supersedes the
                // blend: the old groups count describes a smaller table.
                if obs.table_version > e.last_version {
                    e.groups = obs.output_groups as f64;
                    e.input_rows = obs.input_rows as f64;
                    e.last_version = obs.table_version;
                } else {
                    e.groups = decay * obs.output_groups as f64 + (1.0 - decay) * e.groups;
                    e.input_rows = decay * obs.input_rows as f64 + (1.0 - decay) * e.input_rows;
                }
                e.hits += 1;
                self.touch(&key);
            }
            None => {
                self.entries.insert(
                    key.clone(),
                    FeedbackEntry {
                        groups: obs.output_groups as f64,
                        input_rows: obs.input_rows as f64,
                        hits: 1,
                        last_version: obs.table_version,
                    },
                );
                self.lru.push_back(key);
                if self.config.capacity > 0 {
                    while self.entries.len() > self.config.capacity {
                        match self.lru.pop_front() {
                            Some(victim) => {
                                self.entries.remove(&victim);
                                self.evictions += 1;
                            }
                            None => break,
                        }
                    }
                }
            }
        }
    }

    fn touch(&mut self, key: &(String, Vec<usize>)) {
        if self.config.capacity == 0 {
            return;
        }
        if let Some(pos) = self.lru.iter().position(|k| k == key) {
            let k = self.lru.remove(pos).unwrap();
            self.lru.push_back(k);
        }
    }

    /// Decay-weighted observed group count for (table, cols), if any.
    pub fn observed_groups(&self, table: &str, cols: &[usize]) -> Option<f64> {
        self.lookup(table, cols).map(|e| e.groups)
    }

    fn lookup(&self, table: &str, cols: &[usize]) -> Option<&FeedbackEntry> {
        self.entries.get(&(table.to_string(), sorted(cols)))
    }

    /// Total observations recorded (including blends into existing keys).
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Entries evicted by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of live (table, column-set) keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no observations are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Monotone counter bumped by every `record`; cheap staleness probe
    /// for cached plans ("has anything been learned since I was costed?").
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Drop every fact recorded for `table`. For wholesale replacement
    /// (re-registration): old observations describe data that no longer
    /// exists, and unlike appends there is no version ordering to let
    /// `record` supersede them naturally before the next plan.
    pub fn forget_table(&mut self, table: &str) {
        self.entries.retain(|(t, _), _| t != table);
        self.lru.retain(|(t, _)| t != table);
        self.generation += 1;
    }
}

fn sorted(cols: &[usize]) -> Vec<usize> {
    let mut v = cols.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// The q-error of an estimate against an observation:
/// `max(est/obs, obs/est)`, with both clamped to ≥ 1 so empty results
/// do not divide by zero. Always ≥ 1; 1 means exact.
pub fn q_error(estimated: f64, observed: f64) -> f64 {
    let est = estimated.max(1.0);
    let obs = observed.max(1.0);
    (est / obs).max(obs / est)
}

/// A [`CardinalitySource`] that overlays feedback on a static source.
///
/// Answer preference for `distinct(cols)`:
/// 1. a decay-weighted *observation* of exactly this column set,
/// 2. an online *sketch* estimate (fresh across appends without
///    re-sampling) — per-column sketches directly for singles, and as a
///    product-of-singles cap for joint sets,
/// 3. the wrapped static estimate.
///
/// Everything else (row widths, base rows, creation log) delegates to the
/// wrapped source, so the existing cost models work unchanged.
#[derive(Debug)]
pub struct AdaptiveCardinalitySource<'f, S> {
    inner: S,
    table: &'f str,
    feedback: &'f FeedbackStore,
    sketches: Option<&'f TableSketches>,
}

impl<'f, S: CardinalitySource> AdaptiveCardinalitySource<'f, S> {
    /// Wrap `inner`, consulting `feedback` (and optionally `sketches`)
    /// for the base-table entry named `table`.
    pub fn new(
        inner: S,
        table: &'f str,
        feedback: &'f FeedbackStore,
        sketches: Option<&'f TableSketches>,
    ) -> Self {
        AdaptiveCardinalitySource {
            inner,
            table,
            feedback,
            sketches,
        }
    }

    /// Unwrap the static source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: CardinalitySource> CardinalitySource for AdaptiveCardinalitySource<'_, S> {
    fn base_rows(&self) -> usize {
        self.inner.base_rows()
    }

    fn distinct(&mut self, cols: &[usize]) -> f64 {
        if cols.is_empty() {
            return 1.0;
        }
        let rows = self.inner.base_rows() as f64;
        if let Some(obs) = self.feedback.observed_groups(self.table, cols) {
            return obs.clamp(1.0, rows.max(1.0));
        }
        if let Some(sk) = self.sketches {
            if cols.len() == 1 {
                if let Some(est) = sk.column_estimate(cols[0]) {
                    return est.clamp(1.0, rows.max(1.0));
                }
            } else if let Some(cap) = sk.joint_estimate(cols) {
                // Joint sets: the sketch product caps the static joint
                // estimate (sampling overshoots wide sets), and keeps it
                // fresh when the static sample predates recent appends.
                return self.inner.distinct(cols).min(cap).clamp(1.0, rows.max(1.0));
            }
        }
        self.inner.distinct(cols)
    }

    fn row_width(&self, cols: &[usize]) -> f64 {
        self.inner.row_width(cols)
    }

    fn full_row_width(&self) -> f64 {
        self.inner.full_row_width()
    }

    fn creation_log(&self) -> Option<&StatsCreationLog> {
        self.inner.creation_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_stats::ExactSource;
    use gbmqo_storage::{Column, DataType, Field, Schema, Table};

    fn obs(table: &str, cols: &[usize], rows: u64, groups: u64, version: u64) -> NodeObservation {
        NodeObservation {
            table: table.into(),
            cols: cols.to_vec(),
            input_rows: rows,
            output_groups: groups,
            table_version: version,
        }
    }

    #[test]
    fn record_and_blend() {
        let mut fs = FeedbackStore::with_config(FeedbackConfig {
            capacity: 8,
            decay: 0.5,
        });
        fs.record(&obs("r", &[1, 0], 100, 40, 1));
        assert_eq!(fs.observed_groups("r", &[0, 1]), Some(40.0));
        fs.record(&obs("r", &[0, 1], 100, 80, 1));
        assert_eq!(fs.observed_groups("r", &[1, 0]), Some(60.0)); // EWMA blend
        assert_eq!(fs.observations(), 2);
        assert!(fs.generation() >= 2);
        assert_eq!(fs.observed_groups("r", &[0]), None);
        assert_eq!(fs.observed_groups("other", &[0, 1]), None);
    }

    #[test]
    fn newer_version_supersedes_blend() {
        let mut fs = FeedbackStore::new();
        fs.record(&obs("r", &[0], 100, 10, 1));
        fs.record(&obs("r", &[0], 200, 90, 2)); // table grew: reset, no blend
        assert_eq!(fs.observed_groups("r", &[0]), Some(90.0));
    }

    #[test]
    fn zero_input_rows_ignored() {
        let mut fs = FeedbackStore::new();
        fs.record(&obs("r", &[0], 0, 0, 1));
        assert!(fs.is_empty());
        assert_eq!(fs.observations(), 0);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_updated() {
        let mut fs = FeedbackStore::with_config(FeedbackConfig {
            capacity: 2,
            decay: 1.0,
        });
        fs.record(&obs("r", &[0], 10, 1, 1));
        fs.record(&obs("r", &[1], 10, 2, 1));
        fs.record(&obs("r", &[0], 10, 3, 1)); // refresh [0]; [1] is now LRU
        fs.record(&obs("r", &[2], 10, 4, 1));
        assert_eq!(fs.len(), 2);
        assert_eq!(fs.evictions(), 1);
        assert_eq!(fs.observed_groups("r", &[1]), None);
        assert_eq!(fs.observed_groups("r", &[0]), Some(3.0));
        assert_eq!(fs.observed_groups("r", &[2]), Some(4.0));
    }

    #[test]
    fn q_error_basics() {
        assert_eq!(q_error(100.0, 100.0), 1.0);
        assert_eq!(q_error(200.0, 100.0), 2.0);
        assert_eq!(q_error(50.0, 100.0), 2.0);
        assert_eq!(q_error(0.0, 0.0), 1.0); // clamped, no NaN
    }

    fn three_col_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Int64),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_i64((0..1000).map(|i| i % 10).collect()),
                Column::from_i64((0..1000).map(|i| i % 20).collect()),
                Column::from_i64((0..1000).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn adaptive_source_prefers_observation_then_sketch_then_inner() {
        let t = three_col_table();
        let mut fs = FeedbackStore::new();
        fs.record(&obs("r", &[0], 1000, 7, 1)); // lie on purpose: truth is 10
        let sketches = TableSketches::build(&t);

        let mut src =
            AdaptiveCardinalitySource::new(ExactSource::new(&t), "r", &fs, Some(&sketches));
        // Observation wins for [0] even though the inner source is exact.
        assert_eq!(src.distinct(&[0]), 7.0);
        // No observation for [1]: the sketch answers (close to truth 20).
        let d1 = src.distinct(&[1]);
        assert!((15.0..=25.0).contains(&d1), "sketch estimate {d1}");
        // Empty set is always 1.
        assert_eq!(src.distinct(&[]), 1.0);
        // Widths and base rows delegate.
        assert_eq!(src.base_rows(), 1000);
        assert_eq!(src.row_width(&[0]), 16.0);
    }

    #[test]
    fn adaptive_without_sketches_falls_back_to_inner() {
        let t = three_col_table();
        let fs = FeedbackStore::new();
        let mut src = AdaptiveCardinalitySource::new(ExactSource::new(&t), "r", &fs, None);
        assert_eq!(src.distinct(&[0]), 10.0);
        assert_eq!(src.distinct(&[1]), 20.0);
    }

    #[test]
    fn observation_clamped_to_base_rows() {
        let t = three_col_table();
        let mut fs = FeedbackStore::new();
        fs.record(&obs("r", &[2], 1000, 5_000_000, 1)); // bogus: more groups than rows
        let mut src = AdaptiveCardinalitySource::new(ExactSource::new(&t), "r", &fs, None);
        assert_eq!(src.distinct(&[2]), 1000.0);
    }
}
