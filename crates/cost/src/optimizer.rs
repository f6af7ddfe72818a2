//! The simulated query-optimizer cost model (§3.2.2).
//!
//! The paper uses the DBMS's own optimizer to price each SQL query of a
//! logical plan, registering hypothetical tables through what-if APIs so
//! that queries over not-yet-materialized intermediates can be costed. We
//! simulate the equivalent System-R-style estimate over our own engine:
//!
//! * **scan**: rows × (per-row cost + per-byte cost over the columns the
//!   columnar engine actually reads),
//! * **aggregation**: hash aggregation per input row, or the cheaper
//!   streaming aggregation when an index order serves the grouping
//!   (capturing the physical design, §6.9),
//! * **output/materialization**: per output row, plus per byte written
//!   when the query is a `SELECT … INTO` (the paper prices temp-table
//!   materialization through the same optimizer call).
//!
//! Cardinalities come from a [`CardinalitySource`] — exact or sampled —
//! which is precisely the role of `CREATE STATISTICS` + what-if in §6.7.

use crate::model::{CostModel, CostNode, EdgeQuery};
use crate::physical::IndexSnapshot;
use gbmqo_stats::CardinalitySource;

/// Tunable constants of the simulated optimizer (abstract cost units;
/// think "microseconds per unit of work" for intuition).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConstants {
    /// Per input row scanned.
    pub row_scan: f64,
    /// Per byte scanned.
    pub byte_scan: f64,
    /// Per input row hashed during hash aggregation.
    pub hash_agg_row: f64,
    /// Per input row during index-order streaming aggregation.
    pub stream_agg_row: f64,
    /// Per output row produced.
    pub row_output: f64,
    /// Per byte written when materializing a temp table.
    pub byte_write: f64,
    /// Simulated disk I/O in ns/byte: when > 0, un-indexed scans pay
    /// `rows × full_width × io_ns_per_byte`, index-served scans pay it on
    /// the key columns only, and materialization pays write I/O (pair
    /// with the engine's `set_io_ns_per_byte`). 0 = in-memory columnar.
    pub io_ns_per_byte: f64,
}

impl CostConstants {
    /// Check every constant is finite and non-negative.
    pub fn validate(&self) -> crate::error::Result<()> {
        let named = [
            ("row_scan", self.row_scan),
            ("byte_scan", self.byte_scan),
            ("hash_agg_row", self.hash_agg_row),
            ("stream_agg_row", self.stream_agg_row),
            ("row_output", self.row_output),
            ("byte_write", self.byte_write),
            ("io_ns_per_byte", self.io_ns_per_byte),
        ];
        for (name, v) in named {
            if !v.is_finite() || v < 0.0 {
                return Err(crate::error::CostError::InvalidConstants(format!(
                    "{name} = {v} (must be finite and >= 0)"
                )));
            }
        }
        Ok(())
    }
}

impl Default for CostConstants {
    /// A Group By costs rows × (row_scan + hash_agg_row + key bytes ×
    /// byte_scan) plus row_output per produced group; the per-group term
    /// is what makes merging high-cardinality columns unattractive,
    /// exactly as in the paper. The values were fitted to an earlier
    /// `gbmqo-exec` kernel and are not refitted to the current one. What
    /// that kernel pays is the `calibrate` binary's table in
    /// EXPERIMENTS.md ("Plans that pay on their own kernel"): at 500k
    /// rows on one thread, 2–6 ns/row for low-cardinality keys addressed
    /// directly, about 12 ns/row for a hashed two-date key, and about
    /// 20 ns/row at close to one group per row.
    fn default() -> Self {
        CostConstants {
            row_scan: 10.0,
            byte_scan: 1.2,
            hash_agg_row: 23.0,
            stream_agg_row: 9.0,
            row_output: 400.0,
            byte_write: 4.0,
            io_ns_per_byte: 0.0,
        }
    }
}

/// §3.2.2's cost model: sums per-query optimizer estimates.
#[derive(Debug)]
pub struct OptimizerCostModel<S> {
    source: S,
    indexes: IndexSnapshot,
    constants: CostConstants,
    calls: u64,
}

impl<S: CardinalitySource> OptimizerCostModel<S> {
    /// Create a model over a cardinality source and a physical-design
    /// snapshot.
    pub fn new(source: S, indexes: IndexSnapshot) -> Self {
        OptimizerCostModel {
            source,
            indexes,
            constants: CostConstants::default(),
            calls: 0,
        }
    }

    /// Override the cost constants.
    pub fn with_constants(mut self, constants: CostConstants) -> Self {
        self.constants = constants;
        self
    }

    /// Like [`OptimizerCostModel::with_constants`], but validates the
    /// constants first (they must all be finite and non-negative).
    pub fn try_with_constants(self, constants: CostConstants) -> crate::error::Result<Self> {
        constants.validate()?;
        Ok(self.with_constants(constants))
    }

    /// Borrow the cardinality source.
    pub fn source(&self) -> &S {
        &self.source
    }

    fn key_width(&mut self, cols: &[usize]) -> f64 {
        // `row_width` includes the 8-byte count column.
        (self.source.row_width(cols) - 8.0).max(1.0)
    }
}

impl<S: CardinalitySource> CostModel for OptimizerCostModel<S> {
    fn edge_cost(&mut self, q: &EdgeQuery<'_>) -> f64 {
        self.calls += 1;
        let c = self.constants;
        let (rows_in, scanned_width, index_streams, io_width) = match q.source {
            CostNode::Base => {
                // An index whose order serves the grouping replaces hash
                // aggregation with streaming aggregation (§6.9) and, under
                // row-store semantics, also narrows the scan to the index
                // keys instead of the full row.
                let indexed = self.indexes.serves_grouping(q.target_cols);
                let io_width = if indexed {
                    self.key_width(q.target_cols)
                } else {
                    self.source.full_row_width()
                };
                (
                    self.source.base_rows() as f64,
                    self.key_width(q.target_cols),
                    indexed,
                    io_width,
                )
            }
            CostNode::GroupBy(cols) => {
                let rows = self.source.distinct(cols);
                // CPU cost reads the target columns plus the carried count
                // column; I/O (if emulated) reads the temp's full width.
                (
                    rows,
                    self.key_width(q.target_cols) + 8.0,
                    false,
                    self.source.row_width(cols),
                )
            }
        };
        let rows_out = self.source.distinct(q.target_cols);

        let mut scan = rows_in * (c.row_scan + scanned_width * c.byte_scan);
        if c.io_ns_per_byte > 0.0 {
            scan += rows_in * io_width * c.io_ns_per_byte;
        }
        let agg = if index_streams {
            rows_in * c.stream_agg_row
        } else {
            rows_in * c.hash_agg_row
        };
        let mut cost = scan + agg + rows_out * c.row_output;
        if q.materialize {
            let width = self.source.row_width(q.target_cols);
            cost += rows_out * width * (c.byte_write + c.io_ns_per_byte);
        }
        cost
    }

    fn cardinality(&mut self, cols: &[usize]) -> f64 {
        self.source.distinct(cols)
    }

    fn result_bytes(&mut self, cols: &[usize]) -> f64 {
        self.source.distinct(cols) * self.source.row_width(cols)
    }

    fn base_rows(&self) -> f64 {
        self.source.base_rows() as f64
    }

    fn calls(&self) -> u64 {
        self.calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_stats::ExactSource;
    use gbmqo_storage::{Column, DataType, Field, IndexKind, Schema, Table};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_i64((0..1000).map(|i| i % 10).collect()),
                Column::from_i64((0..1000).map(|i| i % 100).collect()),
            ],
        )
        .unwrap()
    }

    fn edge<'a>(source: CostNode<'a>, cols: &'a [usize], mat: bool) -> EdgeQuery<'a> {
        EdgeQuery {
            source,
            target_cols: cols,
            materialize: mat,
        }
    }

    #[test]
    fn smaller_source_is_cheaper() {
        let t = table();
        let mut m = OptimizerCostModel::new(ExactSource::new(&t), IndexSnapshot::none());
        let cols_a = [0usize];
        let from_base = m.edge_cost(&edge(CostNode::Base, &cols_a, false));
        let ab = [0usize, 1];
        let from_ab = m.edge_cost(&edge(CostNode::GroupBy(&ab), &cols_a, false));
        assert!(
            from_ab < from_base,
            "computing (a) from (a,b) [≤1000 rows] must beat from base: {from_ab} vs {from_base}"
        );
    }

    #[test]
    fn materialization_adds_cost() {
        let t = table();
        let mut m = OptimizerCostModel::new(ExactSource::new(&t), IndexSnapshot::none());
        let cols = [1usize];
        let plain = m.edge_cost(&edge(CostNode::Base, &cols, false));
        let mat = m.edge_cost(&edge(CostNode::Base, &cols, true));
        assert!(mat > plain);
    }

    #[test]
    fn index_makes_base_grouping_cheaper() {
        let t = table();
        let snap = IndexSnapshot::from_keys(vec![(vec![0], IndexKind::NonClustered)]);
        let mut with_ix = OptimizerCostModel::new(ExactSource::new(&t), snap);
        let mut without = OptimizerCostModel::new(ExactSource::new(&t), IndexSnapshot::none());
        let cols = [0usize];
        let a = with_ix.edge_cost(&edge(CostNode::Base, &cols, false));
        let b = without.edge_cost(&edge(CostNode::Base, &cols, false));
        assert!(a < b, "indexed {a} should be < unindexed {b}");
        // the index on (a) does not help grouping on (b)
        let cols_b = [1usize];
        let c = with_ix.edge_cost(&edge(CostNode::Base, &cols_b, false));
        let d = without.edge_cost(&edge(CostNode::Base, &cols_b, false));
        assert_eq!(c, d);
    }

    #[test]
    fn calls_are_counted() {
        let t = table();
        let mut m = OptimizerCostModel::new(ExactSource::new(&t), IndexSnapshot::none());
        assert_eq!(m.calls(), 0);
        let cols = [0usize];
        m.edge_cost(&edge(CostNode::Base, &cols, false));
        m.edge_cost(&edge(CostNode::Base, &cols, true));
        assert_eq!(m.calls(), 2);
    }

    #[test]
    fn wider_results_cost_more_to_materialize() {
        let t = table();
        let mut m = OptimizerCostModel::new(ExactSource::new(&t), IndexSnapshot::none());
        let a = [0usize];
        let ab = [0usize, 1];
        assert!(m.result_bytes(&ab) > m.result_bytes(&a));
        assert_eq!(m.base_rows(), 1000.0);
        assert_eq!(m.cardinality(&a), 10.0);
    }
}
