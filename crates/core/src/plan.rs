//! Logical plans: trees of Group By queries rooted at the base relation
//! (§3.1).
//!
//! A [`LogicalPlan`] is a forest of [`SubNode`] trees whose roots are
//! "directly pointed to by R" — the paper's *sub-plans*. An edge `u → v`
//! means `v` is computed as a Group By over (the materialization of) `u`;
//! a node with children is an intermediate node and is materialized as a
//! temporary table.

use crate::colset::ColSet;
use crate::coster::EdgeCoster;
use crate::error::{CoreError, Result};
use crate::workload::Workload;
use std::fmt::Write as _;

/// How an internal node is evaluated (§7.1 extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeKind {
    /// A plain Group By query.
    #[default]
    GroupBy,
    /// A ROLLUP query: the node's children must form a nested chain of
    /// prefixes of the node's columns; all are produced by one rollup.
    Rollup,
    /// A CUBE query: every subset of the node's columns is produced; the
    /// node's children must be subsets.
    Cube,
}

/// A node of a logical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubNode {
    /// The node's grouping columns (universe bits).
    pub cols: ColSet,
    /// True if this node is one of the workload's requested queries.
    pub required: bool,
    /// Evaluation strategy.
    pub kind: NodeKind,
    /// Children, each computed from this node.
    pub children: Vec<SubNode>,
}

impl SubNode {
    /// A required leaf (the naive plan's building block).
    pub fn leaf(cols: ColSet) -> Self {
        SubNode {
            cols,
            required: true,
            kind: NodeKind::GroupBy,
            children: Vec::new(),
        }
    }

    /// An intermediate (not required) node with children.
    pub fn internal(cols: ColSet, children: Vec<SubNode>) -> Self {
        SubNode {
            cols,
            required: false,
            kind: NodeKind::GroupBy,
            children,
        }
    }

    /// True if the node's result is materialized as a temp table
    /// (any node with children; required leaves stream to the client).
    pub fn is_materialized(&self) -> bool {
        !self.children.is_empty()
    }

    /// Nodes in this subtree (including self).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SubNode::size).sum::<usize>()
    }

    /// Cost of this subtree when computed from `source`
    /// (`None` = base relation), per the model wrapped by `coster`.
    pub fn subtree_cost(&self, source: Option<ColSet>, coster: &mut EdgeCoster<'_>) -> f64 {
        match self.kind {
            NodeKind::GroupBy => {
                let mut c = coster.edge(source, self.cols, self.is_materialized());
                for ch in &self.children {
                    c += ch.subtree_cost(Some(self.cols), coster);
                }
                c
            }
            NodeKind::Rollup => {
                // One pass computes the node plus re-aggregations down a
                // chain of its children (sorted descending by size).
                let mut c = coster.edge(source, self.cols, false);
                let mut chain: Vec<ColSet> = self.children.iter().map(|c| c.cols).collect();
                chain.sort_by_key(|s| std::cmp::Reverse(s.len()));
                let mut prev = self.cols;
                for s in chain {
                    c += coster.edge(Some(prev), s, false);
                    prev = s;
                }
                c
            }
            NodeKind::Cube => {
                // The cube produces every subset; price the finest Group By
                // plus one re-aggregation per proper subset. Wide cubes are
                // rejected by validate(); clamp here too so costing a
                // not-yet-validated node cannot overflow the shift below.
                let mut c = coster.edge(source, self.cols, false);
                let bits: Vec<usize> = self.cols.iter().collect();
                let k = bits.len().min(16);
                for mask in 0..(1u32 << k) {
                    if mask == (1u32 << k) - 1 {
                        continue;
                    }
                    let sub =
                        ColSet::from_cols((0..k).filter(|b| mask >> b & 1 == 1).map(|b| bits[b]));
                    c += coster.edge(Some(self.cols), sub, false);
                }
                c
            }
        }
    }

    /// All required column sets in this subtree.
    pub fn collect_required(&self, out: &mut Vec<ColSet>) {
        if self.required {
            out.push(self.cols);
        }
        for ch in &self.children {
            ch.collect_required(out);
        }
    }

    fn validate(&self, parent: Option<ColSet>) -> Result<()> {
        if self.cols.is_empty() {
            return Err(CoreError::InvalidPlan("empty node column set".into()));
        }
        if let Some(p) = parent {
            if !self.cols.is_strict_subset_of(p) {
                return Err(CoreError::InvalidPlan(format!(
                    "child {:?} is not a strict subset of parent {:?}",
                    self.cols, p
                )));
            }
        }
        match self.kind {
            NodeKind::GroupBy => {}
            NodeKind::Rollup => {
                let mut chain: Vec<ColSet> = self.children.iter().map(|c| c.cols).collect();
                chain.sort_by_key(|s| std::cmp::Reverse(s.len()));
                let mut prev = self.cols;
                for s in &chain {
                    if !s.is_strict_subset_of(prev) {
                        return Err(CoreError::InvalidPlan(
                            "rollup children must form a nested chain".into(),
                        ));
                    }
                    prev = *s;
                }
                if self.children.iter().any(|c| !c.children.is_empty()) {
                    return Err(CoreError::InvalidPlan(
                        "rollup children must be leaves".into(),
                    ));
                }
            }
            NodeKind::Cube => {
                if self.cols.len() > 16 {
                    return Err(CoreError::InvalidPlan("cube wider than 16 columns".into()));
                }
                if self.children.iter().any(|c| !c.children.is_empty()) {
                    return Err(CoreError::InvalidPlan(
                        "cube children must be leaves".into(),
                    ));
                }
            }
        }
        for ch in &self.children {
            ch.validate(Some(self.cols))?;
        }
        Ok(())
    }

    fn render(&self, names: &[String], indent: usize, out: &mut String) {
        let _ = writeln!(
            out,
            "{}{}{}{}",
            "  ".repeat(indent),
            match self.kind {
                NodeKind::GroupBy => "",
                NodeKind::Rollup => "ROLLUP ",
                NodeKind::Cube => "CUBE ",
            },
            self.cols.display(names),
            if self.required { " *" } else { "" },
        );
        for ch in &self.children {
            ch.render(names, indent + 1, out);
        }
    }
}

/// A logical plan: a forest of sub-plans hanging off the base relation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogicalPlan {
    /// The sub-plan roots (children of `R`).
    pub subplans: Vec<SubNode>,
}

impl LogicalPlan {
    /// The naive plan: every requested query computed directly from `R`
    /// (step 1 of the paper's algorithm, Figure 5).
    pub fn naive(workload: &Workload) -> Self {
        LogicalPlan {
            subplans: workload
                .requests
                .iter()
                .map(|&s| SubNode::leaf(s))
                .collect(),
        }
    }

    /// Total plan cost under the model wrapped by `coster`.
    pub fn cost(&self, coster: &mut EdgeCoster<'_>) -> f64 {
        self.subplans
            .iter()
            .map(|sp| sp.subtree_cost(None, coster))
            .sum()
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.subplans.iter().map(SubNode::size).sum()
    }

    /// Number of intermediate (materialized) nodes.
    pub fn materialized_count(&self) -> usize {
        fn walk(n: &SubNode) -> usize {
            usize::from(n.is_materialized()) + n.children.iter().map(walk).sum::<usize>()
        }
        self.subplans.iter().map(walk).sum()
    }

    /// Check structural invariants and that every workload request appears
    /// as a required node exactly once.
    pub fn validate(&self, workload: &Workload) -> Result<()> {
        for sp in &self.subplans {
            sp.validate(None)?;
        }
        let mut required: Vec<ColSet> = Vec::new();
        for sp in &self.subplans {
            sp.collect_required(&mut required);
        }
        required.sort();
        let mut expected: Vec<ColSet> = workload.requests.clone();
        expected.sort();
        if required != expected {
            return Err(CoreError::InvalidPlan(format!(
                "plan covers {} required nodes, workload has {}",
                required.len(),
                expected.len()
            )));
        }
        Ok(())
    }

    /// Render the plan as an indented tree; `*` marks required nodes.
    pub fn render(&self, names: &[String]) -> String {
        let mut out = String::from("R\n");
        for sp in &self.subplans {
            sp.render(names, 1, &mut out);
        }
        out
    }

    /// Render the plan as Graphviz DOT (for docs and debugging):
    /// `dot -Tsvg plan.dot -o plan.svg`. Required nodes are doubly
    /// outlined; materialized intermediates are shaded.
    pub fn render_dot(&self, names: &[String]) -> String {
        fn node_id(cols: ColSet) -> String {
            format!("n{:x}", cols.0)
        }
        fn emit(n: &SubNode, parent: &str, names: &[String], out: &mut String) {
            let id = node_id(n.cols);
            let label = format!(
                "{}{}",
                match n.kind {
                    NodeKind::GroupBy => "",
                    NodeKind::Rollup => "ROLLUP ",
                    NodeKind::Cube => "CUBE ",
                },
                n.cols.display(names)
            );
            let mut attrs = vec![format!("label=\"{label}\"")];
            if n.required {
                attrs.push("peripheries=2".to_string());
            }
            if n.is_materialized() {
                attrs.push("style=filled".to_string());
                attrs.push("fillcolor=lightgrey".to_string());
            }
            let _ = writeln!(out, "  {id} [{}];", attrs.join(", "));
            let _ = writeln!(out, "  {parent} -> {id};");
            for c in &n.children {
                emit(c, &id, names, out);
            }
        }
        let mut out = String::from("digraph plan {\n  rankdir=TB;\n  node [shape=box];\n");
        let _ = writeln!(out, "  R [shape=ellipse, label=\"R\"];");
        for sp in &self.subplans {
            emit(sp, "R", names, &mut out);
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_cost::CardinalityCostModel;
    use gbmqo_stats::ExactSource;
    use gbmqo_storage::{Column, DataType, Field, Schema, Table};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Int64),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_i64(vec![1, 1, 2, 2, 3, 3]),
                Column::from_i64(vec![1, 1, 1, 2, 2, 2]),
                Column::from_i64(vec![1, 2, 1, 2, 1, 2]),
            ],
        )
        .unwrap()
    }

    fn workload() -> Workload {
        Workload::single_columns("r", &table(), &["a", "b", "c"]).unwrap()
    }

    #[test]
    fn naive_plan_shape_and_cost() {
        let w = workload();
        let t = table();
        let plan = LogicalPlan::naive(&w);
        assert_eq!(plan.subplans.len(), 3);
        assert_eq!(plan.node_count(), 3);
        assert_eq!(plan.materialized_count(), 0);
        plan.validate(&w).unwrap();

        let mut model = CardinalityCostModel::new(ExactSource::new(&t));
        let mut coster = EdgeCoster::new(&mut model, w.base_ordinals.clone());
        // three scans of R (6 rows each)
        assert_eq!(plan.cost(&mut coster), 18.0);
    }

    #[test]
    fn merged_plan_costs_less_under_cardinality_model() {
        let w = workload();
        let t = table();
        // plan: (a,b) materialized from R; a,b from it; c from R
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
        plan.validate(&w).unwrap();
        assert_eq!(plan.materialized_count(), 1);

        let mut model = CardinalityCostModel::new(ExactSource::new(&t));
        let mut coster = EdgeCoster::new(&mut model, w.base_ordinals.clone());
        // R→ab: 6, ab→a: |ab|=4, ab→b: 4, R→c: 6 → 20 > naive 18 here
        assert_eq!(plan.cost(&mut coster), 20.0);
    }

    #[test]
    fn validate_rejects_broken_plans() {
        let w = workload();
        // child not strict subset
        let bad = LogicalPlan {
            subplans: vec![SubNode::internal(
                ColSet::single(0),
                vec![SubNode::leaf(ColSet::single(0))],
            )],
        };
        assert!(bad.validate(&w).is_err());
        // missing required node
        let missing = LogicalPlan {
            subplans: vec![SubNode::leaf(ColSet::single(0))],
        };
        assert!(missing.validate(&w).is_err());
        // duplicated required node
        let dup = LogicalPlan {
            subplans: vec![
                SubNode::leaf(ColSet::single(0)),
                SubNode::leaf(ColSet::single(0)),
                SubNode::leaf(ColSet::single(1)),
                SubNode::leaf(ColSet::single(2)),
            ],
        };
        assert!(dup.validate(&w).is_err());
    }

    #[test]
    fn rollup_validation() {
        let node = SubNode {
            cols: ColSet::from_cols([0, 1, 2]),
            required: false,
            kind: NodeKind::Rollup,
            children: vec![
                SubNode::leaf(ColSet::from_cols([0, 1])),
                SubNode::leaf(ColSet::single(0)),
            ],
        };
        node.validate(None).unwrap();
        let broken = SubNode {
            cols: ColSet::from_cols([0, 1, 2]),
            required: false,
            kind: NodeKind::Rollup,
            children: vec![
                SubNode::leaf(ColSet::single(0)),
                SubNode::leaf(ColSet::single(1)), // not nested
            ],
        };
        assert!(broken.validate(None).is_err());
    }

    #[test]
    fn render_is_readable() {
        let w = workload();
        let plan = LogicalPlan {
            subplans: vec![SubNode::internal(
                ColSet::from_cols([0, 1]),
                vec![
                    SubNode::leaf(ColSet::single(0)),
                    SubNode::leaf(ColSet::single(1)),
                ],
            )],
        };
        let s = plan.render(&w.column_names);
        assert!(s.contains("(a, b)"));
        assert!(s.contains("(a) *"));
    }

    #[test]
    fn dot_rendering_has_all_nodes_and_edges() {
        let w = workload();
        let plan = LogicalPlan {
            subplans: vec![
                SubNode::internal(
                    ColSet::from_cols([0, 1]),
                    vec![
                        SubNode::leaf(ColSet::single(0)),
                        SubNode::leaf(ColSet::single(1)),
                    ],
                ),
                SubNode::leaf(ColSet::single(2)),
            ],
        };
        let dot = plan.render_dot(&w.column_names);
        assert!(dot.starts_with("digraph plan {"));
        assert_eq!(dot.matches(" -> ").count(), 4, "{dot}");
        assert!(dot.contains("peripheries=2")); // required nodes marked
        assert!(dot.contains("fillcolor=lightgrey")); // materialized node
        assert!(dot.contains("label=\"(a, b)\""));
    }

    #[test]
    fn rollup_and_cube_costs_are_finite() {
        let w = workload();
        let t = table();
        let mut model = CardinalityCostModel::new(ExactSource::new(&t));
        let mut coster = EdgeCoster::new(&mut model, w.base_ordinals.clone());
        for kind in [NodeKind::Rollup, NodeKind::Cube] {
            let node = SubNode {
                cols: ColSet::from_cols([0, 1]),
                required: false,
                kind,
                children: vec![SubNode::leaf(ColSet::single(0))],
            };
            let c = node.subtree_cost(None, &mut coster);
            assert!(c.is_finite() && c > 0.0);
        }
    }
}
