//! The GB-MQO search algorithm (§4.2, Figure 5): greedy hill-climbing
//! over sub-plan merges, with memoized pair evaluations and the two
//! pruning techniques of §4.3.

use crate::colset::ColSet;
use crate::coster::EdgeCoster;
use crate::error::Result;
use crate::merge::sub_plan_merge;
use crate::plan::{LogicalPlan, NodeKind, SubNode};
use crate::schedule::min_storage;
use crate::workload::Workload;
use gbmqo_cost::CostModel;
use rustc_hash::FxHashMap;

/// Maximum node width for which a CUBE merge alternative is proposed
/// (costing a cube enumerates all 2^k subsets); see
/// [`SearchConfig::cube_rollup_merges`].
const MAX_CUBE_WIDTH: usize = 10;

/// Knobs of the search (each maps to a paper section/experiment).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Restrict SubPlanMerge to type (b) — binary trees (§4.2, §6.5).
    pub binary_only: bool,
    /// Subsumption-based pruning (§4.3.1).
    pub subsumption_pruning: bool,
    /// Monotonicity-based pruning (§4.3.2).
    pub monotonicity_pruning: bool,
    /// §7.1 in-search extension: besides the Group By tree shapes of
    /// SubPlanMerge, propose a single native `CUBE(v1 ∪ v2)` /
    /// `ROLLUP(v1 ∪ v2)` node covering *every* required set of both
    /// sub-plans as a merge alternative. One accepted CUBE can thereby
    /// replace a whole subtree of earlier pairwise merges. Off by
    /// default (the paper's core algorithm).
    pub cube_rollup_merges: bool,
    /// Benefit-greedy candidate ordering (after Kathuria & Sudarshan's
    /// greedy view-selection heuristic): rank uncached pairs by a merge
    /// benefit estimated from cardinality probes — which are free in the
    /// optimizer-call metric — and evaluate them best-first, stopping as
    /// soon as the next estimate cannot beat the best improvement already
    /// found this round. Cuts cost-model calls on wide workloads at a
    /// bounded plan-quality loss. Off by default.
    pub benefit_greedy: bool,
    /// Reject merges whose sub-plan needs more intermediate storage than
    /// this many bytes (§4.4.2's constrained search).
    pub max_intermediate_bytes: Option<f64>,
    /// Minimum cost improvement to accept a merge.
    pub epsilon: f64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            binary_only: false,
            subsumption_pruning: false,
            monotonicity_pruning: false,
            cube_rollup_merges: false,
            benefit_greedy: false,
            max_intermediate_bytes: None,
            epsilon: 1e-9,
        }
    }
}

impl SearchConfig {
    /// The configuration the paper's main experiments run with: all merge
    /// types, both pruning techniques on.
    pub fn pruned() -> Self {
        SearchConfig {
            subsumption_pruning: true,
            monotonicity_pruning: true,
            ..Default::default()
        }
    }
}

/// Counters describing one optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// Hill-climbing rounds until the local minimum.
    pub rounds: u64,
    /// Pair merges actually evaluated (cache misses).
    pub merges_evaluated: u64,
    /// Pairs skipped by subsumption pruning.
    pub pruned_subsumption: u64,
    /// Pairs skipped by monotonicity pruning.
    pub pruned_monotonicity: u64,
    /// Pair evaluations skipped by the benefit-ordered early cutoff
    /// ([`SearchConfig::benefit_greedy`]).
    pub pruned_benefit: u64,
    /// Calls issued to the underlying cost model — the paper's "number of
    /// calls to the query optimizer".
    pub optimizer_calls: u64,
    /// Statistics (per-column-set counts or estimates, sample draws) this
    /// search had to create because no earlier search over the same table
    /// contents had — the paper's Figure-12 "statistics creation", kept
    /// apart from the search itself. Filled in by [`crate::Session`];
    /// zero for a search run directly against a caller's cost model.
    pub stats_created: u64,
    /// Wall time spent creating those statistics, in microseconds.
    pub stats_create_us: u64,
    /// Cost of the naive plan.
    pub naive_cost: f64,
    /// Cost of the returned plan.
    pub final_cost: f64,
    /// True when the plan came out of a session's plan cache and the
    /// search (and all its optimizer calls) was skipped entirely. A
    /// fresh search always reports `false`.
    pub cache_hit: bool,
}

struct Entry {
    id: u64,
    node: SubNode,
    cost: f64,
}

/// The best merge one hill-climbing round has found so far.
struct Round {
    best: Option<(usize, usize, SubNode, f64)>,
    improvement: f64,
}

impl Round {
    /// Keep `(node, cost)` as the merge of pair `(i, j)` if it improves
    /// on the pair's cost by more than anything seen this round (step 5
    /// of Figure 5 picks the lowest-cost plan in MP, which is the same
    /// thing).
    fn offer(
        &mut self,
        entries: &[Entry],
        (i, j): (usize, usize),
        cand: &(SubNode, f64),
        epsilon: f64,
    ) {
        let improvement = (entries[i].cost + entries[j].cost) - cand.1;
        if improvement > epsilon && improvement > self.improvement {
            self.improvement = improvement;
            self.best = Some((i, j, cand.0.clone(), cand.1));
        }
    }
}

/// The GB-MQO optimizer.
#[derive(Debug, Clone, Default)]
pub struct GbMqo {
    config: SearchConfig,
}

impl GbMqo {
    /// Optimizer with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Optimizer with an explicit configuration.
    pub fn with_config(config: SearchConfig) -> Self {
        GbMqo { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Run the search of Figure 5: start from the naive plan and keep
    /// applying the best cost-improving SubPlanMerge until none improves.
    pub fn plan(
        &self,
        workload: &Workload,
        model: &mut dyn CostModel,
    ) -> Result<(LogicalPlan, SearchStats)> {
        let mut coster = EdgeCoster::new(model, workload.base_ordinals.clone());
        let mut stats = SearchStats::default();

        let mut next_id: u64 = 0;
        let mut alloc_id = || {
            let id = next_id;
            next_id += 1;
            id
        };

        // Step 1-2: the naive plan and its cost.
        let mut entries: Vec<Entry> = workload
            .requests
            .iter()
            .map(|&cols| {
                let node = SubNode::leaf(cols);
                let cost = node.subtree_cost(None, &mut coster);
                Entry {
                    id: alloc_id(),
                    node,
                    cost,
                }
            })
            .collect();
        stats.naive_cost = entries.iter().map(|e| e.cost).sum();

        // Memo: best merge candidate per (id, id) pair. `None` = the pair
        // has no admissible candidate.
        let mut pair_cache: FxHashMap<(u64, u64), Option<(SubNode, f64)>> = FxHashMap::default();
        // Monotonicity state: unions whose merge failed to improve.
        let mut failed_unions: Vec<ColSet> = Vec::new();

        loop {
            stats.rounds += 1;
            let unions: Vec<Vec<ColSet>> = if self.config.subsumption_pruning {
                // For pruning we need all live pair unions.
                let mut per_i = Vec::with_capacity(entries.len());
                for i in 0..entries.len() {
                    let mut row = Vec::with_capacity(entries.len());
                    for j in 0..entries.len() {
                        row.push(entries[i].node.cols.union(entries[j].node.cols));
                    }
                    per_i.push(row);
                }
                per_i
            } else {
                Vec::new()
            };

            let mut round = Round {
                best: None,
                improvement: f64::NEG_INFINITY,
            };
            // Candidate pairs surviving the pruning checks but not yet
            // evaluated, with their benefit estimates (benefit-greedy only).
            let mut pending: Vec<(usize, usize, f64)> = Vec::new();
            for i in 0..entries.len() {
                for j in i + 1..entries.len() {
                    let key = pair_key(entries[i].id, entries[j].id);
                    if let Some(cached) = pair_cache.get(&key) {
                        if let Some(cand) = cached {
                            round.offer(&entries, (i, j), cand, self.config.epsilon);
                        }
                        continue;
                    }
                    let union = entries[i].node.cols.union(entries[j].node.cols);
                    // Both pruning techniques reason about *introduced*
                    // union nodes; a subsumption pair (one root contains
                    // the other) introduces no new node and is always
                    // evaluated (its merge is the CONT-style rewrite the
                    // paper's §6.1 relies on).
                    let subsuming = entries[i].node.cols.is_subset_of(entries[j].node.cols)
                        || entries[j].node.cols.is_subset_of(entries[i].node.cols);
                    if !subsuming {
                        if self.config.monotonicity_pruning
                            && failed_unions.iter().any(|f| f.is_subset_of(union))
                        {
                            stats.pruned_monotonicity += 1;
                            continue;
                        }
                        if self.config.subsumption_pruning
                            && dominated(&unions, i, j, union, entries.len())
                        {
                            stats.pruned_subsumption += 1;
                            continue;
                        }
                    }
                    if self.config.benefit_greedy {
                        // Defer the (expensive) pair evaluation; rank by
                        // the benefit a merge through the union node
                        // would yield under the cardinality model. The
                        // probes are free in the optimizer-call metric.
                        // Non-subsuming leaves: two base scans become one
                        // base scan plus two scans of the union result,
                        // saving base − 2·d(∪). Subsuming pairs skip one
                        // base scan outright, saving base − d(∪).
                        let d_union = coster.cardinality(union);
                        let estimate = if subsuming {
                            coster.base_rows() - d_union
                        } else {
                            coster.base_rows() - 2.0 * d_union
                        };
                        pending.push((i, j, estimate));
                        continue;
                    }
                    let cand = self.evaluate_entries(
                        &entries,
                        (i, j),
                        &mut coster,
                        &mut stats,
                        &mut failed_unions,
                        &mut round,
                    );
                    pair_cache.insert(key, cand);
                }
            }

            // Benefit-greedy round completion: evaluate deferred pairs in
            // descending estimated-benefit order, stopping once the next
            // estimate can no longer beat the best improvement found.
            pending.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
            for (rank, &(i, j, estimate)) in pending.iter().enumerate() {
                if estimate <= round.improvement.max(self.config.epsilon) {
                    stats.pruned_benefit += (pending.len() - rank) as u64;
                    break;
                }
                let cand = self.evaluate_entries(
                    &entries,
                    (i, j),
                    &mut coster,
                    &mut stats,
                    &mut failed_unions,
                    &mut round,
                );
                pair_cache.insert(pair_key(entries[i].id, entries[j].id), cand);
            }

            match round.best {
                None => break,
                Some((i, j, node, cost)) => {
                    // Replace entries i and j with the merged sub-plan.
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    entries.swap_remove(hi);
                    entries.swap_remove(lo);
                    entries.push(Entry {
                        id: alloc_id(),
                        node,
                        cost,
                    });
                }
            }
        }

        let plan = LogicalPlan {
            subplans: entries.into_iter().map(|e| e.node).collect(),
        };
        // Edge costs are cached, so this recomputation issues no new
        // optimizer calls.
        stats.final_cost = plan.cost(&mut coster);
        stats.optimizer_calls = coster.model_calls();
        plan.validate(workload)?;
        Ok((plan, stats))
    }

    /// Evaluate the live pair `(i, j)`: price its merge candidates,
    /// remember a union that failed to improve for monotonicity pruning
    /// (§4.3.2), and offer the winner to this round's best. Returns the
    /// winner for the pair memo.
    fn evaluate_entries(
        &self,
        entries: &[Entry],
        (i, j): (usize, usize),
        coster: &mut EdgeCoster<'_>,
        stats: &mut SearchStats,
        failed_unions: &mut Vec<ColSet>,
        round: &mut Round,
    ) -> Option<(SubNode, f64)> {
        let (a, b) = (&entries[i], &entries[j]);
        let cand = self.evaluate_pair(&a.node, &b.node, coster, stats);
        let subsuming =
            a.node.cols.is_subset_of(b.node.cols) || b.node.cols.is_subset_of(a.node.cols);
        if self.config.monotonicity_pruning && !subsuming {
            let improves = cand
                .as_ref()
                .is_some_and(|(_, cost)| *cost < a.cost + b.cost - self.config.epsilon);
            if !improves {
                failed_unions.push(a.node.cols.union(b.node.cols));
            }
        }
        if let Some(c) = &cand {
            round.offer(entries, (i, j), c, self.config.epsilon);
        }
        cand
    }

    /// Evaluate all merge candidates for a pair, returning the cheapest
    /// admissible one and its cost.
    fn evaluate_pair(
        &self,
        a: &SubNode,
        b: &SubNode,
        coster: &mut EdgeCoster<'_>,
        stats: &mut SearchStats,
    ) -> Option<(SubNode, f64)> {
        stats.merges_evaluated += 1;
        let mut candidates = sub_plan_merge(a, b, self.config.binary_only);
        if self.config.cube_rollup_merges {
            candidates.extend(cube_rollup_candidates(a, b));
        }
        let mut best: Option<(SubNode, f64)> = None;
        for cand in candidates {
            if let Some(limit) = self.config.max_intermediate_bytes {
                let mut d = |s: ColSet| coster.result_bytes(s);
                if min_storage(&cand, &mut d) > limit {
                    continue;
                }
            }
            let cost = cand.subtree_cost(None, coster);
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((cand, cost));
            }
        }
        best
    }
}

/// §7.1's in-search merge alternatives: one native CUBE (and, when the
/// required sets nest, ROLLUP) node over `a.cols ∪ b.cols` whose
/// children are *all* required sets of both sub-plans, flattened to
/// leaves. Because the node absorbs every required set at once, a single
/// accepted candidate can replace a whole subtree of pairwise Group By
/// merges accumulated in earlier rounds.
fn cube_rollup_candidates(a: &SubNode, b: &SubNode) -> Vec<SubNode> {
    let union = a.cols.union(b.cols);
    let mut required: Vec<ColSet> = Vec::new();
    a.collect_required(&mut required);
    b.collect_required(&mut required);
    let root_required = required.contains(&union);
    let children: Vec<SubNode> = required
        .iter()
        .filter(|&&r| r != union)
        .map(|&r| SubNode::leaf(r))
        .collect();
    if children.is_empty() {
        // Only the union itself is required: a plain Group By already
        // covers it, and CUBE/ROLLUP would pay for unneeded subsets.
        return Vec::new();
    }

    let mut out = Vec::new();
    if union.len() <= MAX_CUBE_WIDTH {
        out.push(SubNode {
            cols: union,
            required: root_required,
            kind: NodeKind::Cube,
            children: children.clone(),
        });
    }
    let mut chain: Vec<ColSet> = children.iter().map(|c| c.cols).collect();
    chain.sort_by_key(|s| std::cmp::Reverse(s.len()));
    let nested = {
        let mut prev = union;
        chain.iter().all(|&s| {
            let ok = s.is_strict_subset_of(prev);
            prev = s;
            ok
        })
    };
    if nested {
        out.push(SubNode {
            cols: union,
            required: root_required,
            kind: NodeKind::Rollup,
            children,
        });
    }
    out
}

fn pair_key(a: u64, b: u64) -> (u64, u64) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Subsumption pruning (§4.3.1): pair (i,j) is dominated if some other
/// live pair's union is a strict subset of (i,j)'s union.
#[allow(clippy::needless_range_loop)] // index pairs are the clearer idiom here
fn dominated(unions: &[Vec<ColSet>], i: usize, j: usize, union_ij: ColSet, n: usize) -> bool {
    for x in 0..n {
        for y in x + 1..n {
            if (x, y) == (i, j) {
                continue;
            }
            if unions[x][y].is_strict_subset_of(union_ij) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_cost::CardinalityCostModel;
    use gbmqo_stats::ExactSource;
    use gbmqo_storage::{Column, DataType, Field, Schema, Table};

    /// 100 rows; a,b correlated (joint distinct 5), c independent dense.
    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Int64),
        ])
        .unwrap();
        let a: Vec<i64> = (0..100).map(|i| i % 5).collect();
        let b: Vec<i64> = (0..100).map(|i| (i % 5) * 2).collect();
        let c: Vec<i64> = (0..100).collect();
        Table::new(
            schema,
            vec![
                Column::from_i64(a),
                Column::from_i64(b),
                Column::from_i64(c),
            ],
        )
        .unwrap()
    }

    fn optimize(config: SearchConfig) -> (LogicalPlan, SearchStats, Workload) {
        let t = table();
        let w = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
        let mut model = CardinalityCostModel::new(ExactSource::new(&t));
        let (plan, stats) = GbMqo::with_config(config).plan(&w, &mut model).unwrap();
        (plan, stats, w)
    }

    #[test]
    fn merges_correlated_columns_and_leaves_dense_alone() {
        let (plan, stats, w) = optimize(SearchConfig::default());
        plan.validate(&w).unwrap();
        // Expected: (a,b) merged (joint 5 ≪ 100), c computed from R.
        assert!(stats.final_cost < stats.naive_cost);
        let merged = plan
            .subplans
            .iter()
            .find(|sp| sp.cols == ColSet::from_cols([0, 1]))
            .expect("a,b should merge: {plan:?}");
        assert_eq!(merged.children.len(), 2);
        assert!(plan
            .subplans
            .iter()
            .any(|sp| sp.cols == ColSet::single(2) && sp.children.is_empty()));
        // naive = 300 (3 scans); merged = 100 + 5 + 5 + 100 = 210
        assert_eq!(stats.naive_cost, 300.0);
        assert_eq!(stats.final_cost, 210.0);
    }

    #[test]
    fn local_minimum_terminates() {
        let (plan, stats, _) = optimize(SearchConfig::default());
        assert!(stats.rounds >= 2);
        assert!(plan.node_count() >= 3);
    }

    #[test]
    fn binary_only_still_finds_the_merge() {
        let (plan, stats, w) = optimize(SearchConfig {
            binary_only: true,
            ..Default::default()
        });
        plan.validate(&w).unwrap();
        assert_eq!(stats.final_cost, 210.0);
    }

    #[test]
    fn pruning_preserves_result_on_disjoint_single_columns() {
        // §4.3 soundness: with the cardinality model and binary merges,
        // pruning must not change the found plan's cost.
        let base = SearchConfig {
            binary_only: true,
            ..Default::default()
        };
        let (_, stats_plain, _) = optimize(base.clone());
        let (_, stats_pruned, _) = optimize(SearchConfig {
            subsumption_pruning: true,
            monotonicity_pruning: true,
            ..base
        });
        assert_eq!(stats_plain.final_cost, stats_pruned.final_cost);
        assert!(stats_pruned.merges_evaluated <= stats_plain.merges_evaluated);
    }

    #[test]
    fn optimizer_call_counting() {
        let (_, stats, _) = optimize(SearchConfig::default());
        assert!(stats.optimizer_calls > 0);
        assert!(stats.merges_evaluated > 0);
    }

    #[test]
    fn storage_constraint_forbids_merging() {
        // With a zero-byte budget no intermediate can be materialized:
        // the search must return the naive plan.
        let (plan, stats, w) = optimize(SearchConfig {
            max_intermediate_bytes: Some(0.0),
            ..Default::default()
        });
        plan.validate(&w).unwrap();
        assert_eq!(plan.node_count(), 3);
        assert_eq!(stats.final_cost, stats.naive_cost);
    }

    #[test]
    fn subsumption_inputs_collapse() {
        // requests: (a), (a,b) → optimizer should compute (a) from (a,b)
        let t = table();
        let w = Workload::new("r", &t, &["a", "b"], &[vec!["a"], vec!["a", "b"]]).unwrap();
        let mut model = CardinalityCostModel::new(ExactSource::new(&t));
        let (plan, stats) = GbMqo::new().plan(&w, &mut model).unwrap();
        plan.validate(&w).unwrap();
        assert_eq!(plan.subplans.len(), 1);
        let root = &plan.subplans[0];
        assert_eq!(root.cols, ColSet::from_cols([0, 1]));
        assert!(root.required);
        assert_eq!(root.children.len(), 1);
        // naive: 200; merged: R→ab (100) + ab→a (5) = 105
        assert_eq!(stats.final_cost, 105.0);
    }

    /// An [`gbmqo_cost::OptimizerCostModel`] where materializing
    /// intermediates is expensive — the regime where a pipelined
    /// CUBE/ROLLUP beats a forest of materialized Group Bys.
    fn expensive_write_model(t: &Table) -> gbmqo_cost::OptimizerCostModel<ExactSource<'_>> {
        let constants = gbmqo_cost::CostConstants {
            byte_write: 50.0,
            ..Default::default()
        };
        gbmqo_cost::OptimizerCostModel::new(ExactSource::new(t), gbmqo_cost::IndexSnapshot::none())
            .with_constants(constants)
    }

    #[test]
    fn cube_merge_replaces_pairwise_subtree() {
        // All non-empty subsets of {a,b,c} — the workload a SQL `CUBE
        // (a, b, c)` expands to: seven required sets. A Group By forest
        // covering them needs ≥ 3 pairwise merges with materialized
        // intermediates; one CUBE(a,b,c) node computes all seven
        // pipelined. With materialization priced high, the in-search
        // CUBE alternative must absorb the whole subtree. All three
        // columns are low-cardinality so every cube level stays small.
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Int64),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![
                Column::from_i64((0..600).map(|i| i % 4).collect()),
                Column::from_i64((0..600).map(|i| i % 5).collect()),
                Column::from_i64((0..600).map(|i| i % 3).collect()),
            ],
        )
        .unwrap();
        let w = Workload::up_to_k_columns("r", &t, &["a", "b", "c"], 3).unwrap();
        assert_eq!(w.requests.len(), 7);

        let mut model = expensive_write_model(&t);
        let (baseline, base_stats) = GbMqo::new().plan(&w, &mut model).unwrap();
        baseline.validate(&w).unwrap();
        assert!(!baseline
            .subplans
            .iter()
            .any(|sp| sp.kind == NodeKind::Cube || sp.kind == NodeKind::Rollup));

        let mut model = expensive_write_model(&t);
        let config = SearchConfig {
            cube_rollup_merges: true,
            ..Default::default()
        };
        let (plan, stats) = GbMqo::with_config(config).plan(&w, &mut model).unwrap();
        plan.validate(&w).unwrap();

        let cube = plan
            .subplans
            .iter()
            .find(|sp| sp.kind == NodeKind::Cube)
            .expect("a CUBE node should be accepted: {plan:?}");
        let mut covered = Vec::new();
        cube.collect_required(&mut covered);
        // Covering ≥ 4 required sets means the node stands in for ≥ 3
        // pairwise merges' worth of tree.
        assert!(covered.len() >= 4, "cube covers {covered:?}");
        assert!(stats.final_cost <= base_stats.final_cost);
        assert!(stats.final_cost < stats.naive_cost);
    }

    #[test]
    fn cube_merges_beat_exhaustive_group_by_forest() {
        // Disjoint single columns admit the exhaustive harness. Under the
        // expensive-write model the accepted CUBE must cost no more than
        // the *optimal* Group By forest (the exhaustive search cannot
        // propose CUBE nodes).
        let t = table();
        let w = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
        let mut model = expensive_write_model(&t);
        let (_, optimal_cost) = crate::exhaustive::optimal_plan(&w, &mut model).unwrap();

        let mut model = expensive_write_model(&t);
        let config = SearchConfig {
            cube_rollup_merges: true,
            ..Default::default()
        };
        let (plan, stats) = GbMqo::with_config(config).plan(&w, &mut model).unwrap();
        plan.validate(&w).unwrap();
        assert!(
            stats.final_cost <= optimal_cost + 1e-6,
            "cube search {} vs exhaustive {}",
            stats.final_cost,
            optimal_cost
        );
    }

    #[test]
    fn rollup_merge_accepted_on_nested_chain() {
        // (a) ⊂ (a,b): the union's required sets form a chain, so the
        // ROLLUP alternative is proposed alongside CUBE and plain merges.
        let t = table();
        let w = Workload::new("r", &t, &["a", "b"], &[vec!["a"], vec!["a", "b"]]).unwrap();
        let mut model = expensive_write_model(&t);
        let config = SearchConfig {
            cube_rollup_merges: true,
            ..Default::default()
        };
        let (plan, stats) = GbMqo::with_config(config).plan(&w, &mut model).unwrap();
        plan.validate(&w).unwrap();
        assert_eq!(plan.subplans.len(), 1);
        assert!(matches!(
            plan.subplans[0].kind,
            NodeKind::Rollup | NodeKind::Cube
        ));
        assert!(stats.final_cost < stats.naive_cost);
    }

    #[test]
    fn benefit_greedy_matches_plain_greedy_on_single_columns() {
        // With leaf entries the benefit estimate is exact under the
        // cardinality model, so the merge trajectory — and the final
        // cost — must match the paper's greedy.
        let (plan, stats, w) = optimize(SearchConfig {
            benefit_greedy: true,
            ..Default::default()
        });
        plan.validate(&w).unwrap();
        assert_eq!(stats.final_cost, 210.0);
        assert!(
            stats.pruned_benefit > 0,
            "the cutoff should skip some evaluations: {stats:?}"
        );
    }

    #[test]
    fn benefit_greedy_saves_optimizer_calls() {
        let (_, plain, _) = optimize(SearchConfig::default());
        let (_, benefit, _) = optimize(SearchConfig {
            benefit_greedy: true,
            ..Default::default()
        });
        assert!(
            benefit.optimizer_calls < plain.optimizer_calls,
            "benefit {} vs plain {}",
            benefit.optimizer_calls,
            plain.optimizer_calls
        );
        assert!(benefit.merges_evaluated <= plain.merges_evaluated);
    }

    #[test]
    fn benefit_greedy_composes_with_pruning() {
        let (plan, stats, w) = optimize(SearchConfig {
            benefit_greedy: true,
            subsumption_pruning: true,
            monotonicity_pruning: true,
            binary_only: true,
            ..Default::default()
        });
        plan.validate(&w).unwrap();
        assert_eq!(stats.final_cost, 210.0);
    }

    #[test]
    fn cube_merges_off_by_default_keeps_pinned_costs() {
        // The flag must not perturb the paper-pinned default behavior.
        assert!(!SearchConfig::default().cube_rollup_merges);
        let (plan, stats, w) = optimize(SearchConfig::default());
        plan.validate(&w).unwrap();
        assert_eq!(stats.final_cost, 210.0);
        assert!(plan.subplans.iter().all(|sp| sp.kind == NodeKind::GroupBy));
    }
}
