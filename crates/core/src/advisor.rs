//! A small what-if index advisor for GB-MQO workloads.
//!
//! §6.9 shows the optimizer's plans adapt to whatever physical design
//! exists; this module closes the loop the authors' AutoAdmin line of
//! work (\[5\], \[25\] in the paper) is about: *given* a workload, which
//! single-column indexes would help it most? The advisor greedily picks
//! indexes by re-optimizing the workload under hypothetical designs —
//! what-if analysis built from the same cost model the optimizer uses.

use crate::greedy::{GbMqo, SearchConfig};
use crate::workload::Workload;
use gbmqo_cost::{CostConstants, IndexSnapshot, OptimizerCostModel};
use gbmqo_stats::CardinalitySource;
use gbmqo_storage::IndexKind;

/// One advisor recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexRecommendation {
    /// Universe bit of the recommended index's column.
    pub column_bit: usize,
    /// Base-table ordinal of the column.
    pub base_ordinal: usize,
    /// Estimated workload cost before adding this index.
    pub cost_before: f64,
    /// Estimated workload cost after adding it.
    pub cost_after: f64,
}

impl IndexRecommendation {
    /// Estimated benefit of this index (model units).
    pub fn benefit(&self) -> f64 {
        self.cost_before - self.cost_after
    }
}

/// Greedily recommend up to `k` single-column non-clustered indexes for
/// `workload`, using what-if re-optimization under `source`'s statistics.
///
/// Returns recommendations in pick order (highest marginal benefit
/// first); stops early when no candidate improves the plan by more than
/// `min_improvement` (a fraction of the current cost, e.g. `0.01`).
pub fn recommend_indexes<S: CardinalitySource>(
    workload: &Workload,
    mut make_source: impl FnMut() -> S,
    constants: CostConstants,
    k: usize,
    min_improvement: f64,
) -> crate::error::Result<Vec<IndexRecommendation>> {
    let mut chosen: Vec<usize> = Vec::new(); // universe bits
    let mut recommendations = Vec::new();

    let cost_with = |bits: &[usize], source: S| -> crate::error::Result<f64> {
        let keys: Vec<(Vec<usize>, IndexKind)> = bits
            .iter()
            .map(|&b| (vec![workload.base_ordinals[b]], IndexKind::NonClustered))
            .collect();
        let mut model = OptimizerCostModel::new(source, IndexSnapshot::from_keys(keys))
            .with_constants(constants);
        let (_, stats) = GbMqo::with_config(SearchConfig::pruned()).plan(workload, &mut model)?;
        Ok(stats.final_cost)
    };

    let mut current = cost_with(&chosen, make_source())?;
    for _round in 0..k.min(workload.column_names.len()) {
        let mut best: Option<(usize, f64)> = None;
        for bit in 0..workload.column_names.len() {
            if chosen.contains(&bit) {
                continue;
            }
            let mut trial = chosen.clone();
            trial.push(bit);
            let cost = cost_with(&trial, make_source())?;
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((bit, cost));
            }
        }
        match best {
            Some((bit, cost)) if current - cost > min_improvement * current => {
                recommendations.push(IndexRecommendation {
                    column_bit: bit,
                    base_ordinal: workload.base_ordinals[bit],
                    cost_before: current,
                    cost_after: cost,
                });
                chosen.push(bit);
                current = cost;
            }
            _ => break,
        }
    }
    Ok(recommendations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_stats::ExactSource;
    use gbmqo_storage::{Column, DataType, Field, Schema, Table};

    /// Table with one dense column (indexing it pays) and two tiny ones.
    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("dense", DataType::Int64),
            Field::new("flag", DataType::Int64),
            Field::new("status", DataType::Int64),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_i64((0..3000).collect()),
                Column::from_i64((0..3000).map(|i| i % 2).collect()),
                Column::from_i64((0..3000).map(|i| i % 3).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn advisor_prefers_the_dense_column() {
        let t = table();
        let w = Workload::single_columns("r", &t, &["dense", "flag", "status"]).unwrap();
        let recs = recommend_indexes(
            &w,
            || ExactSource::new(&t),
            CostConstants::default(),
            2,
            0.001,
        )
        .unwrap();
        assert!(!recs.is_empty(), "indexing the dense column must pay");
        assert_eq!(
            recs[0].column_bit, 0,
            "the dense column should be picked first: {recs:?}"
        );
        // benefits are positive and monotone in pick order
        for r in &recs {
            assert!(r.benefit() > 0.0);
            assert!(r.cost_after < r.cost_before);
        }
        for pair in recs.windows(2) {
            assert!(pair[0].benefit() >= pair[1].benefit() * 0.5);
        }
    }

    #[test]
    fn advisor_stops_when_nothing_helps() {
        let t = table();
        let w = Workload::single_columns("r", &t, &["flag", "status"]).unwrap();
        // demanding 50% improvement per index: nothing qualifies
        let recs = recommend_indexes(
            &w,
            || ExactSource::new(&t),
            CostConstants::default(),
            3,
            0.5,
        )
        .unwrap();
        assert!(recs.len() <= 1);
    }

    #[test]
    fn k_zero_returns_nothing() {
        let t = table();
        let w = Workload::single_columns("r", &t, &["dense"]).unwrap();
        let recs = recommend_indexes(
            &w,
            || ExactSource::new(&t),
            CostConstants::default(),
            0,
            0.01,
        )
        .unwrap();
        assert!(recs.is_empty());
    }
}
