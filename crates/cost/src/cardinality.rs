//! The Cardinality cost model (§3.2.1): `cost(u → v) = |u|`.

use crate::model::{CostModel, CostNode, EdgeQuery};
use gbmqo_stats::CardinalitySource;

/// §3.2.1's model: the cost of an edge from `u` to `v` is the number of
/// rows of `u` — "the cost of scanning the relation u". Materialization is
/// not priced separately, matching the algebra used in the paper's
/// soundness proofs (§4.3) and hardness reduction (Appendix A).
#[derive(Debug)]
pub struct CardinalityCostModel<S> {
    source: S,
    calls: u64,
}

impl<S: CardinalitySource> CardinalityCostModel<S> {
    /// Wrap a cardinality source.
    pub fn new(source: S) -> Self {
        CardinalityCostModel { source, calls: 0 }
    }

    /// Borrow the source.
    pub fn source(&self) -> &S {
        &self.source
    }
}

impl<S: CardinalitySource> CostModel for CardinalityCostModel<S> {
    fn edge_cost(&mut self, q: &EdgeQuery<'_>) -> f64 {
        self.calls += 1;
        match q.source {
            CostNode::Base => self.source.base_rows() as f64,
            CostNode::GroupBy(cols) => self.source.distinct(cols),
        }
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
    use gbmqo_storage::{Column, DataType, Field, Schema, Table};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_i64(vec![1, 1, 2, 2, 3]),
                Column::from_i64(vec![1, 1, 1, 1, 1]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn edge_cost_is_source_rows() {
        let t = table();
        let mut m = CardinalityCostModel::new(ExactSource::new(&t));
        let base_edge = EdgeQuery {
            source: CostNode::Base,
            target_cols: &[0],
            materialize: true,
        };
        assert_eq!(m.edge_cost(&base_edge), 5.0);
        let from_a = EdgeQuery {
            source: CostNode::GroupBy(&[0]),
            target_cols: &[1],
            materialize: false,
        };
        assert_eq!(m.edge_cost(&from_a), 3.0); // |{1,2,3}|
        assert_eq!(m.calls(), 2);
    }

    #[test]
    fn materialize_flag_does_not_change_cost() {
        let t = table();
        let mut m = CardinalityCostModel::new(ExactSource::new(&t));
        let cols = [0usize];
        let a = m.edge_cost(&EdgeQuery {
            source: CostNode::Base,
            target_cols: &cols,
            materialize: true,
        });
        let b = m.edge_cost(&EdgeQuery {
            source: CostNode::Base,
            target_cols: &cols,
            materialize: false,
        });
        assert_eq!(a, b);
    }

    #[test]
    fn cardinality_and_bytes() {
        let t = table();
        let mut m = CardinalityCostModel::new(ExactSource::new(&t));
        assert_eq!(m.cardinality(&[0]), 3.0);
        assert_eq!(m.base_rows(), 5.0);
        // 3 rows × (8 bytes col + 8 bytes cnt)
        assert_eq!(m.result_bytes(&[0]), 48.0);
    }
}
