//! The statistics catalog: statistics that outlive one optimization.
//!
//! The paper prices plans with statistics that are created once and reused
//! (§3.2.2), and reports their creation as a separate, amortised cost
//! (§6.7 / Figure 12). A [`StatsCatalog`] holds, per base table, one
//! [`TableStats`] tied to a single *contents version* of that table: the
//! exact-distinct memo, the reservoir sample for the `(sample_size, seed)`
//! in use, and the sampled-estimate memo per estimator. [`crate::ExactSource`] and
//! [`crate::SampledSource`] borrow these instead of building their own, so
//! a column set is scanned once per table version, not once per search.
//!
//! Nothing is computed until a source asks for it, and nothing here needs
//! to be told about a mutation: [`StatsCatalog::table`] compares the version
//! it is handed with the one the statistics were built at and starts over
//! on a mismatch. Beside each table's statistics the catalog keeps the
//! group counts execution observed over it, which correct sampled
//! estimates, so a table's statistics and observations leave together.

use crate::distinct::DistinctEstimator;
use crate::freq::FrequencyProfile;
use crate::sample::reservoir_sample;
use crate::store::{StatsCreationEvent, StatsCreationLog, StatsStore};
use gbmqo_storage::{Column, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rustc_hash::FxHashMap;
use std::time::{Duration, Instant};

/// Column sets each memo of a [`TableStats`] keeps before evicting the
/// least recently used (an entry is a few dozen bytes).
pub const MAX_COLUMN_SETS: usize = 4096;

/// One reservoir sample of a table and the estimates made from it.
#[derive(Debug)]
pub struct SampleStats {
    sample_size: usize,
    seed: u64,
    rows: Vec<u32>,
    /// The sampled values of each column an estimate has read, gathered
    /// once: "the optimizer can create multiple statistics from one
    /// sample" (§3.2.2).
    columns: FxHashMap<usize, Column>,
    /// Estimate memo per estimator, made on the estimator's first use.
    estimates: FxHashMap<DistinctEstimator, StatsStore>,
}

impl SampleStats {
    /// Draw `sample_size` of `num_rows` row ids (deterministic for a given
    /// `seed`).
    pub fn draw(num_rows: usize, sample_size: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        SampleStats {
            sample_size,
            seed,
            rows: reservoir_sample(num_rows, sample_size, &mut rng),
            columns: FxHashMap::default(),
            estimates: FxHashMap::default(),
        }
    }

    /// The sampled row ids.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// `estimator`'s distinct count of `cols` in `table`, which this
    /// sample was drawn from: memoized, or made from the sample's
    /// frequency profile, which reads the sampled rows of `cols` only.
    pub(crate) fn estimate(
        &mut self,
        table: &Table,
        cols: &[usize],
        estimator: DistinctEstimator,
    ) -> f64 {
        let SampleStats {
            rows,
            columns,
            estimates,
            ..
        } = self;
        let memo = estimates
            .entry(estimator)
            .or_insert_with(|| StatsStore::with_capacity(MAX_COLUMN_SETS));
        memo.get_or_create(cols, rows.len(), || {
            for &c in cols {
                columns
                    .entry(c)
                    .or_insert_with(|| table.column(c).gather(rows));
            }
            let key_cols: Vec<&Column> = cols.iter().map(|c| &columns[c]).collect();
            estimator.estimate(&FrequencyProfile::of_columns(&key_cols), table.num_rows())
        })
    }

    /// The estimate memo of `estimator`, if it has estimated anything.
    pub(crate) fn estimates(&self, estimator: DistinctEstimator) -> Option<&StatsStore> {
        self.estimates.get(&estimator)
    }
}

/// Every statistic held about one contents version of one table.
#[derive(Debug)]
pub struct TableStats {
    exact: StatsStore,
    /// The one sample in use: a session's cost model, and with it the
    /// `(sample_size, seed)` it samples with, is fixed when it is built.
    sample: Option<SampleStats>,
    /// Sample draws; a draw covers no particular column set.
    draws: StatsCreationLog,
}

impl Default for TableStats {
    fn default() -> Self {
        TableStats {
            exact: StatsStore::with_capacity(MAX_COLUMN_SETS),
            sample: None,
            draws: StatsCreationLog::default(),
        }
    }
}

impl TableStats {
    /// The exact-distinct memo.
    pub fn exact(&mut self) -> &mut StatsStore {
        &mut self.exact
    }

    /// The sample drawn with `(sample_size, seed)` from a table of
    /// `num_rows` rows. It is drawn (one O(`num_rows`) pass over row ids,
    /// charged to the creation log as reading no rows) on first use, and
    /// again — dropping the estimates made from the previous one —
    /// whenever `(sample_size, seed)` differs.
    pub fn sample(&mut self, num_rows: usize, sample_size: usize, seed: u64) -> &mut SampleStats {
        let current = self
            .sample
            .take()
            .filter(|s| s.sample_size == sample_size && s.seed == seed);
        self.sample.insert(current.unwrap_or_else(|| {
            let start = Instant::now();
            let drawn = SampleStats::draw(num_rows, sample_size, seed);
            self.draws.events.push(StatsCreationEvent {
                cols: Vec::new(),
                elapsed: start.elapsed(),
                rows: 0,
            });
            drawn
        }))
    }

    /// How many statistics this table version has had created so far —
    /// exact counts, sample draws and the current sample's estimates
    /// together — and the time that took.
    pub fn created(&self) -> (usize, Duration) {
        (
            self.logs().map(StatsCreationLog::count).sum(),
            self.logs().map(StatsCreationLog::total).sum(),
        )
    }

    /// Rows this table version's statistics have read so far: the table's
    /// rows for each exact count, the sample's rows for each estimate.
    pub fn rows_read(&self) -> u64 {
        self.logs().map(StatsCreationLog::rows).sum()
    }

    fn logs(&self) -> impl Iterator<Item = &StatsCreationLog> {
        let estimates = self.sample.iter().flat_map(|s| s.estimates.values());
        [self.exact.creation_log(), &self.draws]
            .into_iter()
            .chain(estimates.map(StatsStore::creation_log))
    }
}

/// Per-table statistics, each valid for one contents version, and the
/// group counts execution observed over each table. Both leave together
/// ([`StatsCatalog::retain`]).
#[derive(Debug, Default)]
pub struct StatsCatalog {
    tables: FxHashMap<String, Held>,
}

/// What the catalog holds about one table.
#[derive(Debug, Default)]
struct Held {
    /// The contents version `stats` describe.
    built_at: u64,
    stats: TableStats,
    /// Observed group counts and the contents version they describe.
    observed: (u64, StatsStore),
}

impl StatsCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The statistics of table `name` at contents version `version`,
    /// and the group counts observed over it with the version they
    /// describe (`0`: none), which their owner keeps current. Statistics
    /// built at any other version are discarded here, so a caller that
    /// passes the table's current version never reads stale ones.
    pub fn table(&mut self, name: &str, version: u64) -> (&mut TableStats, &mut (u64, StatsStore)) {
        if !self.tables.contains_key(name) {
            self.tables.insert(name.to_string(), Held::default());
        }
        let held = self.tables.get_mut(name).expect("just ensured");
        if held.built_at != version {
            held.built_at = version;
            held.stats = TableStats::default();
        }
        (&mut held.stats, &mut held.observed)
    }

    /// Observed group counts held, over every table.
    pub fn observed_len(&self) -> usize {
        self.tables.values().map(|h| h.observed.1.len()).sum()
    }

    /// Drop the statistics and observed counts of every table `keep`
    /// rejects (tables that no longer exist).
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.tables.retain(|name, _| keep(name));
    }

    /// Drop every statistic; observed counts stay.
    pub fn clear(&mut self) {
        for held in self.tables.values_mut() {
            held.stats = TableStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_change_discards_statistics() {
        let mut cat = StatsCatalog::new();
        cat.table("r", 1).0.exact().put(&[0], 7.0);
        assert_eq!(cat.table("r", 1).0.exact().get(&[0]), Some(7.0));
        assert_eq!(cat.table("s", 1).0.exact().get(&[0]), None, "per table");
        assert_eq!(cat.table("r", 2).0.exact().get(&[0]), None);
        // Going back does not resurrect anything either.
        assert_eq!(cat.table("r", 1).0.exact().get(&[0]), None);
    }

    #[test]
    fn retain_and_clear() {
        let mut cat = StatsCatalog::new();
        cat.table("r", 1).0.exact().put(&[0], 7.0);
        cat.table("s", 1).0.exact().put(&[0], 8.0);
        cat.retain(|name| name == "s");
        assert_eq!(cat.table("r", 1).0.exact().get(&[0]), None);
        assert_eq!(cat.table("s", 1).0.exact().get(&[0]), Some(8.0));
        cat.clear();
        assert_eq!(cat.table("s", 1).0.exact().get(&[0]), None);
    }

    #[test]
    fn the_sample_is_drawn_once_per_size_and_seed() {
        let table = Table::new(
            gbmqo_storage::Schema::new(vec![gbmqo_storage::Field::new(
                "x",
                gbmqo_storage::DataType::Int64,
            )])
            .unwrap(),
            vec![Column::from_i64((0..1000).map(|i| i % 7).collect())],
        )
        .unwrap();
        let mut stats = TableStats::default();
        let first = stats.sample(1000, 100, 7).rows().to_vec();
        assert_eq!(stats.created().0, 1);
        assert_eq!(stats.rows_read(), 0, "a draw reads row ids, not rows");
        let estimate = stats
            .sample(1000, 100, 7)
            .estimate(&table, &[0], DistinctEstimator::Gee);
        assert_eq!(estimate, 7.0);
        assert_eq!(stats.sample(1000, 100, 7).rows(), &first[..]);
        assert_eq!(stats.created().0, 2, "second use draws nothing");
        assert_eq!(stats.rows_read(), 100, "an estimate reads the sample");
        stats.exact().get_or_create(&[0], 1000, || 7.0);
        assert_eq!(stats.rows_read(), 1100, "an exact count reads the table");

        // Another seed is another sample, with no estimates yet.
        assert_ne!(stats.sample(1000, 100, 8).rows(), &first[..]);
        assert!(stats
            .sample(1000, 100, 8)
            .estimates(DistinctEstimator::Gee)
            .is_none());
    }
}
