//! Cardinality sources: the what-if-API analog the cost models consume.
//!
//! The paper's query-optimizer cost model (§3.2.2) costs queries over
//! tables that do not exist yet by registering hypothetical tables with a
//! cardinality and statistics through the DBMS's what-if APIs \[5, 25\].
//! In this reproduction the optimizer needs, for any column set `G` of the
//! base relation `R`:
//!
//! * `|G|` — the number of distinct combinations (the cardinality of the
//!   Group By result, and hence of the hypothetical table), and
//! * the average materialized row width of `G` plus the count column.
//!
//! Because every node in a logical plan is a Group By over `R`, the
//! distinct count of a subset of a node's columns within that node equals
//! its distinct count in `R` — so a single source over `R` prices every
//! hypothetical edge `u → v`.

use crate::catalog::SampleStats;
use crate::distinct::{exact_distinct, DistinctEstimator};
use crate::store::{StatsCreationLog, StatsStore};
use gbmqo_storage::Table;
use std::borrow::BorrowMut;

/// Supplies cardinality and width information about column sets of one
/// base relation.
pub trait CardinalitySource {
    /// Rows in the base relation.
    fn base_rows(&self) -> usize;

    /// Estimated distinct combinations of `cols` in the base relation.
    /// An empty set has cardinality 1 (the single global group).
    fn distinct(&mut self, cols: &[usize]) -> f64;

    /// Average row width in bytes of a materialized Group By result on
    /// `cols` (includes the 8-byte count column).
    fn row_width(&self, cols: &[usize]) -> f64;

    /// Average full-row width of the base relation in bytes — what a
    /// row-store scan of `R` reads per row regardless of the grouping
    /// columns (used by the simulated optimizer cost model).
    fn full_row_width(&self) -> f64;

    /// Statistics-creation log, if the source builds statistics lazily.
    fn creation_log(&self) -> Option<&StatsCreationLog> {
        None
    }
}

impl<S: CardinalitySource + ?Sized> CardinalitySource for Box<S> {
    fn base_rows(&self) -> usize {
        (**self).base_rows()
    }

    fn distinct(&mut self, cols: &[usize]) -> f64 {
        (**self).distinct(cols)
    }

    fn row_width(&self, cols: &[usize]) -> f64 {
        (**self).row_width(cols)
    }

    fn full_row_width(&self) -> f64 {
        (**self).full_row_width()
    }

    fn creation_log(&self) -> Option<&StatsCreationLog> {
        (**self).creation_log()
    }
}

/// Exact cardinalities computed by scanning the table; an oracle used by
/// tests and by experiments that isolate search quality from estimation
/// error, and the session's default.
///
/// The counts are memoized in a [`StatsStore`] the source either owns
/// ([`ExactSource::new`]) or borrows from a longer-lived
/// [`crate::TableStats`] ([`ExactSource::with_store`]) — one lookup path
/// either way.
#[derive(Debug)]
pub struct ExactSource<'a, S = StatsStore> {
    table: &'a Table,
    store: S,
}

impl<'a> ExactSource<'a> {
    /// Create an exact source over `table` with a memo of its own.
    pub fn new(table: &'a Table) -> Self {
        ExactSource {
            table,
            store: StatsStore::new(),
        }
    }
}

impl<'a> ExactSource<'a, &'a mut StatsStore> {
    /// Create an exact source over `table` that reads and fills `store`,
    /// which must hold counts of this `table`'s current contents only.
    pub fn with_store(table: &'a Table, store: &'a mut StatsStore) -> Self {
        ExactSource { table, store }
    }
}

impl<S: BorrowMut<StatsStore>> CardinalitySource for ExactSource<'_, S> {
    fn base_rows(&self) -> usize {
        self.table.num_rows()
    }

    fn distinct(&mut self, cols: &[usize]) -> f64 {
        if cols.is_empty() {
            return 1.0;
        }
        let table = self.table;
        let store: &mut StatsStore = self.store.borrow_mut();
        store.get_or_create(cols, table.num_rows(), || {
            exact_distinct(table, cols) as f64
        })
    }

    fn row_width(&self, cols: &[usize]) -> f64 {
        self.table.stored_row_width(cols) + 8.0
    }

    fn full_row_width(&self) -> f64 {
        self.table.stored_total_row_width()
    }

    fn creation_log(&self) -> Option<&StatsCreationLog> {
        Some(self.store.borrow().creation_log())
    }
}

/// Sampling-based cardinalities, the realistic counterpart of DBMS
/// statistics: one shared row sample, per-column-set estimates built on
/// first use (and their build time logged — Figure 12; there is no log
/// before the first estimate).
///
/// Sample and estimates live in a [`SampleStats`] the source either owns
/// ([`SampledSource::new`]) or borrows from a longer-lived
/// [`crate::TableStats`] ([`SampledSource::with_sample`]).
#[derive(Debug)]
pub struct SampledSource<'a, S = SampleStats> {
    table: &'a Table,
    sample: S,
    estimator: DistinctEstimator,
}

impl<'a> SampledSource<'a> {
    /// Create a source with a fresh reservoir sample of `sample_size` rows
    /// (deterministic for a given `seed`).
    pub fn new(
        table: &'a Table,
        sample_size: usize,
        estimator: DistinctEstimator,
        seed: u64,
    ) -> Self {
        SampledSource {
            table,
            sample: SampleStats::draw(table.num_rows(), sample_size, seed),
            estimator,
        }
    }
}

impl<'a> SampledSource<'a, &'a mut SampleStats> {
    /// Create a source over `sample`, which must have been drawn from this
    /// `table`'s current contents.
    pub fn with_sample(
        table: &'a Table,
        sample: &'a mut SampleStats,
        estimator: DistinctEstimator,
    ) -> Self {
        SampledSource {
            table,
            sample,
            estimator,
        }
    }
}

impl<S: BorrowMut<SampleStats>> SampledSource<'_, S> {
    /// The sampled row ids.
    pub fn sample_rows(&self) -> &[u32] {
        self.sample.borrow().rows()
    }

    fn estimate(&mut self, cols: &[usize]) -> f64 {
        let sample: &mut SampleStats = self.sample.borrow_mut();
        sample.estimate(self.table, cols, self.estimator)
    }
}

impl<S: BorrowMut<SampleStats>> CardinalitySource for SampledSource<'_, S> {
    fn base_rows(&self) -> usize {
        self.table.num_rows()
    }

    fn distinct(&mut self, cols: &[usize]) -> f64 {
        if cols.is_empty() {
            return 1.0;
        }
        let joint = self.estimate(cols);
        if cols.len() == 1 {
            return joint;
        }
        // Cap the joint estimate by the product of per-column distincts
        // (an upper bound that sampling can overshoot for wide sets) and
        // by the table size.
        let mut product = 1.0f64;
        for &c in cols {
            product *= self.estimate(&[c]).max(1.0);
            if product >= self.table.num_rows() as f64 {
                product = self.table.num_rows() as f64;
                break;
            }
        }
        joint.min(product).min(self.table.num_rows() as f64)
    }

    fn row_width(&self, cols: &[usize]) -> f64 {
        self.table.stored_row_width(cols) + 8.0
    }

    fn full_row_width(&self) -> f64 {
        self.table.stored_total_row_width()
    }

    fn creation_log(&self) -> Option<&StatsCreationLog> {
        let sample: &SampleStats = self.sample.borrow();
        sample
            .estimates(self.estimator)
            .map(StatsStore::creation_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{Column, DataType, Field, Schema};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn two_col_table(rows: usize, d1: i64, d2: i64, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..d1)).collect();
        let b: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..d2)).collect();
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        Table::new(schema, vec![Column::from_i64(a), Column::from_i64(b)]).unwrap()
    }

    #[test]
    fn exact_source_is_exact() {
        let t = two_col_table(1000, 10, 20, 1);
        let mut s = ExactSource::new(&t);
        assert_eq!(s.base_rows(), 1000);
        assert_eq!(s.distinct(&[0]), 10.0);
        assert_eq!(s.distinct(&[1]), 20.0);
        assert_eq!(s.distinct(&[]), 1.0);
        let joint = s.distinct(&[0, 1]);
        assert!(joint <= 200.0 && joint > 20.0);
        assert_eq!(s.row_width(&[0]), 16.0);
    }

    #[test]
    fn exact_source_shares_a_borrowed_store() {
        let t = two_col_table(1000, 10, 20, 1);
        let mut store = StatsStore::new();
        let first = ExactSource::with_store(&t, &mut store).distinct(&[0, 1]);
        assert_eq!(store.creation_log().count(), 1);
        // A second source over the same store scans nothing.
        let mut again = ExactSource::with_store(&t, &mut store);
        assert_eq!(again.distinct(&[1, 0]), first);
        assert_eq!(again.creation_log().unwrap().count(), 1);
        assert_eq!(first, ExactSource::new(&t).distinct(&[0, 1]));
    }

    #[test]
    fn sampled_source_tracks_creation_and_caches() {
        let t = two_col_table(10_000, 50, 50, 2);
        let mut s = SampledSource::new(&t, 1000, DistinctEstimator::Hybrid, 42);
        let d1 = s.distinct(&[0]);
        assert!((30.0..=80.0).contains(&d1), "estimate {d1} for true 50");
        let before = s.creation_log().unwrap().count();
        let _ = s.distinct(&[0]);
        assert_eq!(s.creation_log().unwrap().count(), before, "cache hit");
        // joint estimate touches singles too
        let joint = s.distinct(&[0, 1]);
        assert!(joint <= 2500.0 + 1e-9);
        assert!(joint <= 10_000.0);
        assert!(s.creation_log().unwrap().count() >= 3);
    }

    #[test]
    fn sampled_is_deterministic_per_seed() {
        let t = two_col_table(5000, 30, 30, 3);
        let mut a = SampledSource::new(&t, 500, DistinctEstimator::Gee, 7);
        let mut b = SampledSource::new(&t, 500, DistinctEstimator::Gee, 7);
        assert_eq!(a.distinct(&[0]), b.distinct(&[0]));
        assert_eq!(a.sample_rows(), b.sample_rows());
    }

    #[test]
    fn joint_capped_by_product_of_singles() {
        // Perfectly correlated columns: joint distinct = single distinct.
        let rows = 4000;
        let vals: Vec<i64> = (0..rows).map(|i| (i % 7) as i64).collect();
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![Column::from_i64(vals.clone()), Column::from_i64(vals)],
        )
        .unwrap();
        let mut s = SampledSource::new(&t, 400, DistinctEstimator::Hybrid, 5);
        let joint = s.distinct(&[0, 1]);
        assert!(joint <= 49.0 + 1e-9, "joint {joint} must be ≤ 7*7");
    }
}
