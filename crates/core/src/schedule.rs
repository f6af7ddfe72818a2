//! Intermediate-storage-aware execution scheduling (§4.4).
//!
//! Each intermediate node of a logical plan is materialized as a temp
//! table and can be dropped once all its children are computed. Whether a
//! node's subtree is executed breadth-first (compute all children, drop
//! the node, then descend) or depth-first (finish one child's subtree
//! before computing the next child) changes the peak storage. The paper's
//! recursion
//!
//! ```text
//! Storage(u) = min( d(u) + Σᵢ d(vᵢ),  d(u) + maxᵢ Storage(vᵢ) )
//! ```
//!
//! picks the cheaper traversal per node; this module computes the marking
//! and emits the corresponding query/drop schedule.
//!
//! Like the paper's, the recursion is a *per-node* bound: under a
//! breadth-first node whose children themselves materialize grandchildren,
//! the true peak can exceed the node's breadth-first term (siblings stay
//! live while one child's subtree runs). The executor therefore tracks
//! the actual peak via catalog accounting; [`simulate_peak`] checks any
//! emitted schedule directly.

use crate::colset::ColSet;
use crate::plan::{LogicalPlan, NodeKind, SubNode};

/// Per-node traversal choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traversal {
    /// Compute all children, drop this node, then descend into children.
    BreadthFirst,
    /// Fully finish each child's subtree in turn, then drop this node.
    DepthFirst,
}

/// One Group By (or ROLLUP/CUBE) of a plan: compute `target` from
/// `source`. The unit both schedules are made of — the serial §4.4
/// order ([`schedule_plan`]) and the dependency waves ([`level_plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEdge {
    /// Source node (temp table) or `None` for the base relation.
    pub source: Option<ColSet>,
    /// The node computed by this edge.
    pub target: ColSet,
    /// Whether the target is materialized as a temp table (it has
    /// Group By children that re-aggregate from it).
    pub materialize: bool,
    /// Whether the target is a requested result.
    pub required: bool,
    /// Evaluation strategy of the target node.
    pub kind: NodeKind,
}

impl PlanEdge {
    fn new(source: Option<ColSet>, node: &SubNode) -> Self {
        PlanEdge {
            source,
            target: node.cols,
            materialize: node.is_materialized() && node.kind == NodeKind::GroupBy,
            required: node.required,
            kind: node.kind,
        }
    }
}

/// One scheduled action.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Run the edge's query.
    Query(PlanEdge),
    /// Drop the temp table of `node`.
    Drop(ColSet),
}

/// Storage needed by the subtree rooted at `node` per the §4.4.1
/// recursion. `d` estimates the materialized size of a node (0 is used
/// automatically for nodes that are never materialized).
pub fn min_storage(node: &SubNode, d: &mut dyn FnMut(ColSet) -> f64) -> f64 {
    storage_and_mark(node, d).0
}

fn node_bytes(node: &SubNode, d: &mut dyn FnMut(ColSet) -> f64) -> f64 {
    if node.is_materialized() && node.kind == NodeKind::GroupBy {
        d(node.cols)
    } else {
        0.0
    }
}

/// Returns `(Storage(node), marking)` where `marking` is the traversal
/// choice for this node (leaves get `DepthFirst`, vacuously).
fn storage_and_mark(node: &SubNode, d: &mut dyn FnMut(ColSet) -> f64) -> (f64, Traversal) {
    let du = node_bytes(node, d);
    if node.children.is_empty() || node.kind != NodeKind::GroupBy {
        return (du, Traversal::DepthFirst);
    }
    let breadth: f64 = du + node.children.iter().map(|c| node_bytes(c, d)).sum::<f64>();
    let depth: f64 = du
        + node
            .children
            .iter()
            .map(|c| storage_and_mark(c, d).0)
            .fold(0.0, f64::max);
    if breadth <= depth {
        (breadth, Traversal::BreadthFirst)
    } else {
        (depth, Traversal::DepthFirst)
    }
}

/// Peak intermediate storage of the whole plan: sub-plans execute one
/// after another, so the peak is the maximum over sub-plans.
pub fn plan_min_storage(plan: &LogicalPlan, d: &mut dyn FnMut(ColSet) -> f64) -> f64 {
    plan.subplans
        .iter()
        .map(|sp| min_storage(sp, d))
        .fold(0.0, f64::max)
}

/// Emit the execution schedule for `plan`, ordering queries per the
/// storage-minimizing marking and interleaving `Drop`s as early as
/// possible.
pub fn schedule_plan(plan: &LogicalPlan, d: &mut dyn FnMut(ColSet) -> f64) -> Vec<Step> {
    let mut steps = Vec::new();
    for sp in &plan.subplans {
        emit_query(sp, None, &mut steps);
        emit_body(sp, d, &mut steps);
    }
    steps
}

fn emit_query(node: &SubNode, source: Option<ColSet>, steps: &mut Vec<Step>) {
    steps.push(Step::Query(PlanEdge::new(source, node)));
}

/// Steps after `node` itself has been computed (and materialized if it is
/// an intermediate).
fn emit_body(node: &SubNode, d: &mut dyn FnMut(ColSet) -> f64, steps: &mut Vec<Step>) {
    if node.children.is_empty() {
        return;
    }
    if node.kind != NodeKind::GroupBy {
        // ROLLUP/CUBE produce all their children in the same pass; nothing
        // further to schedule.
        return;
    }
    let (_, mark) = storage_and_mark(node, d);
    match mark {
        Traversal::BreadthFirst => {
            for c in &node.children {
                emit_query(c, Some(node.cols), steps);
            }
            steps.push(Step::Drop(node.cols));
            for c in &node.children {
                emit_body(c, d, steps);
            }
        }
        Traversal::DepthFirst => {
            for c in &node.children {
                emit_query(c, Some(node.cols), steps);
                emit_body(c, d, steps);
            }
            steps.push(Step::Drop(node.cols));
        }
    }
}

/// The §4.4 order as the scheduler consumes it: one singleton wave per
/// query of [`schedule_plan`]. The `Drop`s are not carried over — the
/// scheduler retires a temp when its last reader has run, which is
/// where `schedule_plan` drops it or earlier, so the §4.4 peak bound
/// holds for the executed order too.
pub(crate) fn serial_waves(
    plan: &LogicalPlan,
    d: &mut dyn FnMut(ColSet) -> f64,
) -> Vec<Vec<PlanEdge>> {
    schedule_plan(plan, d)
        .into_iter()
        .filter_map(|s| match s {
            Step::Query(edge) => Some(vec![edge]),
            Step::Drop(_) => None,
        })
        .collect()
}

/// Topologically level `plan` into dependency waves: wave 0 holds the
/// sub-plan roots (they read the base relation), wave `k` holds the
/// children of nodes materialized in wave `k-1`. All edges within a wave
/// are independent — their sources were produced by earlier waves — so a
/// wave can execute concurrently.
///
/// ROLLUP/CUBE nodes are emitted as single edges; their children are
/// delivered by the node's own lattice descent, not as separate edges.
pub fn level_plan(plan: &LogicalPlan) -> Vec<Vec<PlanEdge>> {
    let mut waves: Vec<Vec<PlanEdge>> = Vec::new();
    let mut frontier: Vec<(Option<ColSet>, &SubNode)> =
        plan.subplans.iter().map(|n| (None, n)).collect();
    while !frontier.is_empty() {
        let mut next: Vec<(Option<ColSet>, &SubNode)> = Vec::new();
        let mut wave: Vec<PlanEdge> = Vec::with_capacity(frontier.len());
        for (source, node) in frontier {
            wave.push(PlanEdge::new(source, node));
            if node.kind == NodeKind::GroupBy {
                for child in &node.children {
                    next.push((Some(node.cols), child));
                }
            }
        }
        waves.push(wave);
        frontier = next;
    }
    waves
}

/// Simulate a schedule's peak storage given per-node sizes (testing aid
/// and sanity check for the recursion).
pub fn simulate_peak(steps: &[Step], d: &mut dyn FnMut(ColSet) -> f64) -> f64 {
    let mut live = 0.0f64;
    let mut peak = 0.0f64;
    for s in steps {
        match s {
            Step::Query(edge) => {
                if edge.materialize {
                    live += d(edge.target);
                    peak = peak.max(live);
                }
            }
            Step::Drop(cols) => {
                live -= d(*cols);
            }
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SubNode;
    use rustc_hash::FxHashMap;

    /// Figure 6 of the paper: sizes ABCD=10, ABC=6, BCD=2, AB=4, BC=1,
    /// AC=2 (leaf), A/B/C are required leaves under AB/BC, etc. We model
    /// the exact sub-tree shown: ABCD → {ABC → {AB → {A,B}, BC? ...}}.
    /// The paper's point: at ABCD, breadth-first gives 10+6+2 = 18,
    /// depth-first gives 10+max(Storage(ABC), Storage(BCD)).
    fn figure6() -> (SubNode, FxHashMap<u128, f64>) {
        let a = ColSet::single(0);
        let b = ColSet::single(1);
        let c = ColSet::single(2);
        let dd = ColSet::single(3);
        let ab = a.union(b);
        let bc = b.union(c);
        let bd = b.union(dd);
        let cd = c.union(dd);
        let ac = a.union(c);
        let abc = ab.union(c);
        let bcd = bc.union(dd);
        let abcd = abc.union(dd);

        let mut sizes: FxHashMap<u128, f64> = FxHashMap::default();
        for (s, v) in [
            (abcd, 10.0),
            (abc, 6.0),
            (bcd, 2.0),
            (ab, 4.0),
            (bc, 1.0),
            (ac, 2.0),
            (bd, 4.0),
            (cd, 1.0),
            (a, 1.0),
            (b, 1.0),
            (c, 1.0),
        ] {
            sizes.insert(s.0, v);
        }

        let tree = SubNode::internal(
            abcd,
            vec![
                SubNode::internal(
                    abc,
                    vec![
                        SubNode::internal(ab, vec![SubNode::leaf(a), SubNode::leaf(b)]),
                        SubNode::leaf(bc),
                        SubNode::leaf(ac),
                    ],
                ),
                SubNode::internal(bcd, vec![SubNode::leaf(bd), SubNode::leaf(cd)]),
            ],
        );
        (tree, sizes)
    }

    #[test]
    fn figure6_breadth_first_wins_at_root() {
        let (tree, sizes) = figure6();
        let mut d = |s: ColSet| sizes.get(&s.0).copied().unwrap_or(0.0);
        // BF at root: 10 + 6 + 2 = 18 (leaf children of ABCD contribute 0).
        // DF at root: 10 + max(Storage(ABC), Storage(BCD))
        //   Storage(ABC) = min(6+4, 6+Storage(AB)=6+4) = 10 (AB's leaves take 0)
        //   Storage(BCD) = min(2+0, 2+0) = 2
        // → DF = 10 + 10 = 20 > BF = 18.
        let s = min_storage(&tree, &mut d);
        assert_eq!(s, 18.0);
    }

    #[test]
    fn schedule_respects_predicted_peak() {
        let (tree, sizes) = figure6();
        let plan = LogicalPlan {
            subplans: vec![tree],
        };
        let mut d = |s: ColSet| sizes.get(&s.0).copied().unwrap_or(0.0);
        let predicted = plan_min_storage(&plan, &mut d);
        let steps = schedule_plan(&plan, &mut d);
        let simulated = simulate_peak(&steps, &mut d);
        assert!(
            simulated <= predicted + 1e-9,
            "simulated {simulated} > predicted {predicted}"
        );
    }

    #[test]
    fn schedule_covers_all_nodes_and_drops_all_temps() {
        let (tree, sizes) = figure6();
        let plan = LogicalPlan {
            subplans: vec![tree],
        };
        let mut d = |s: ColSet| sizes.get(&s.0).copied().unwrap_or(0.0);
        let steps = schedule_plan(&plan, &mut d);
        let queries = steps.iter().filter(|s| matches!(s, Step::Query(_))).count();
        assert_eq!(queries, plan.node_count());
        let mats = steps
            .iter()
            .filter(|s| matches!(s, Step::Query(e) if e.materialize))
            .count();
        let drops = steps.iter().filter(|s| matches!(s, Step::Drop(_))).count();
        assert_eq!(mats, drops, "every materialized temp is dropped");
        // every query's source must have been materialized and not yet dropped
        let mut live: Vec<ColSet> = Vec::new();
        for s in &steps {
            match s {
                Step::Query(e) => {
                    if let Some(src) = &e.source {
                        assert!(
                            live.contains(src),
                            "query {:?} from dropped {src:?}",
                            e.target
                        );
                    }
                    if e.materialize {
                        live.push(e.target);
                    }
                }
                Step::Drop(c) => {
                    let pos = live.iter().position(|x| x == c).expect("drop of non-live");
                    live.remove(pos);
                }
            }
        }
        assert!(live.is_empty());
    }

    #[test]
    fn depth_first_wins_when_children_are_large() {
        // root (3 cols) with two large intermediate children: BF stores
        // both children at once, DF only one at a time.
        let ab = ColSet::from_cols([0, 1]);
        let bc = ColSet::from_cols([1, 2]);
        let root = ColSet::from_cols([0, 1, 2]);
        let tree = SubNode::internal(
            root,
            vec![
                SubNode::internal(ab, vec![SubNode::leaf(ColSet::single(0))]),
                SubNode::internal(bc, vec![SubNode::leaf(ColSet::single(2))]),
            ],
        );
        let mut d = |s: ColSet| {
            if s == root {
                1.0
            } else {
                100.0
            }
        };
        // BF: 1 + 200 = 201; DF: 1 + max(100, 100) = 101
        assert_eq!(min_storage(&tree, &mut d), 101.0);
        let plan = LogicalPlan {
            subplans: vec![tree],
        };
        let steps = schedule_plan(&plan, &mut d);
        assert!(simulate_peak(&steps, &mut d) <= 101.0);
    }

    #[test]
    fn level_plan_groups_edges_into_dependency_waves() {
        // (a,b) → {a, b} plus a direct c leaf: wave 0 = {(a,b), c} off
        // the base relation, wave 1 = {a, b} off the (a,b) temp.
        let ab = ColSet::from_cols([0, 1]);
        let plan = LogicalPlan {
            subplans: vec![
                SubNode::internal(
                    ab,
                    vec![
                        SubNode::leaf(ColSet::single(0)),
                        SubNode::leaf(ColSet::single(1)),
                    ],
                ),
                SubNode::leaf(ColSet::single(2)),
            ],
        };
        let waves = level_plan(&plan);
        assert_eq!(waves.len(), 2);
        assert_eq!(waves[0].len(), 2);
        assert!(waves[0].iter().all(|e| e.source.is_none()));
        let ab_edge = waves[0].iter().find(|e| e.target == ab).unwrap();
        assert!(ab_edge.materialize);
        assert_eq!(waves[1].len(), 2);
        assert!(waves[1].iter().all(|e| e.source == Some(ab)));
        assert!(waves[1].iter().all(|e| !e.materialize && e.required));
    }

    #[test]
    fn level_plan_keeps_special_nodes_atomic() {
        let plan = LogicalPlan {
            subplans: vec![SubNode {
                cols: ColSet::from_cols([0, 1]),
                required: true,
                kind: NodeKind::Rollup,
                children: vec![SubNode::leaf(ColSet::single(0))],
            }],
        };
        let waves = level_plan(&plan);
        assert_eq!(waves.len(), 1, "rollup children are delivered inline");
        assert_eq!(waves[0].len(), 1);
        assert!(!waves[0][0].materialize);
    }

    #[test]
    fn leaves_and_naive_plans_take_no_storage() {
        let plan = LogicalPlan {
            subplans: vec![
                SubNode::leaf(ColSet::single(0)),
                SubNode::leaf(ColSet::single(1)),
            ],
        };
        let mut d = |_: ColSet| 1000.0;
        assert_eq!(plan_min_storage(&plan, &mut d), 0.0);
        let steps = schedule_plan(&plan, &mut d);
        assert_eq!(steps.len(), 2);
        assert!(steps
            .iter()
            .all(|s| matches!(s, Step::Query(e) if !e.materialize)));
    }
}
