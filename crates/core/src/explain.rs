//! EXPLAIN-style rendering: the plan annotated with per-edge cost-model
//! estimates and the physical decisions it ran with, the way a DBMS
//! explains its query plans.

use crate::colset::ColSet;
use crate::coster::EdgeCoster;
use crate::physicalize::{Merge, PhysicalPlan, Read};
use crate::plan::{LogicalPlan, NodeKind, SubNode};
use crate::workload::Workload;
use gbmqo_cost::CostModel;
use std::fmt::Write as _;

/// One explained plan edge.
#[derive(Debug, Clone)]
pub struct ExplainedEdge {
    /// Source column set (`None` = the base relation).
    pub source: Option<ColSet>,
    /// Target column set.
    pub target: ColSet,
    /// Whether the target is materialized.
    pub materialize: bool,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated cost of this query (model units).
    pub est_cost: f64,
}

/// Explain `plan` under `model`: per-edge estimates plus the total.
pub fn explain(
    plan: &LogicalPlan,
    workload: &Workload,
    model: &mut dyn CostModel,
) -> (Vec<ExplainedEdge>, f64) {
    let mut coster = EdgeCoster::new(model, workload.base_ordinals.clone());
    let mut edges = Vec::new();
    fn walk(
        n: &SubNode,
        source: Option<ColSet>,
        coster: &mut EdgeCoster<'_>,
        edges: &mut Vec<ExplainedEdge>,
    ) {
        // CUBE/ROLLUP nodes price their whole pass on the incoming edge.
        let est_cost = match n.kind {
            NodeKind::GroupBy => coster.edge(source, n.cols, n.is_materialized()),
            _ => n.subtree_cost(source, coster),
        };
        edges.push(ExplainedEdge {
            source,
            target: n.cols,
            materialize: n.is_materialized() && n.kind == NodeKind::GroupBy,
            est_rows: coster.cardinality(n.cols),
            est_cost,
        });
        if n.kind == NodeKind::GroupBy {
            for c in &n.children {
                walk(c, Some(n.cols), coster, edges);
            }
        }
    }
    for sp in &plan.subplans {
        walk(sp, None, &mut coster, &mut edges);
    }
    let total = edges.iter().map(|e| e.est_cost).sum();
    (edges, total)
}

/// Render an EXPLAIN table of the plan `physical` ran: per edge the
/// wave it ran in, its reads (`R` the base relation, `cache` a cached
/// aggregate, `temp` an intermediate, `×n` one per shard), how its
/// per-shard results merged, the shared scan it took part in, and the
/// cost model's estimates.
pub fn render_explain(
    physical: &PhysicalPlan,
    workload: &Workload,
    model: &mut dyn CostModel,
) -> String {
    let (edges, total) = explain(&physical.plan, workload, model);
    let names = &workload.column_names;
    let mut out = String::new();
    let shards = match physical.shard_rows.len() {
        0 => "none".to_string(),
        n => n.to_string(),
    };
    let (waves, threads) = (physical.waves.len(), physical.threads);
    let _ = writeln!(
        out,
        "physical plan: waves {waves}, threads {threads}, shards {shards}"
    );
    let _ = writeln!(
        out,
        "{:<36} {:>4}  {:<10} {:<12} {:<8} {:>12} {:>14}  notes",
        "query", "wave", "reads", "merge", "scan", "est. rows", "est. cost"
    );
    for e in &edges {
        let (wave, ran) = (0..physical.waves.len())
            .flat_map(|i| physical.waves[i].iter().map(move |p| (i, p)))
            .find(|(_, p)| p.edge.source == e.source && p.edge.target == e.target)
            .expect("the physical plan runs every edge of its plan");
        let src = e
            .source
            .map_or("R".into(), |s| s.display(names).to_string());
        let scans: Vec<String> = ran
            .scans
            .iter()
            .flatten()
            .map(|i| format!("#{i}"))
            .collect();
        let _ = writeln!(
            out,
            "{:<36} {:>4}  {:<10} {:<12} {:<8} {:>12.0} {:>14.0}  {}",
            format!("{src} → {}", e.target.display(names)),
            wave,
            reads_label(&ran.reads),
            match ran.merge {
                Merge::None => "none",
                Merge::Concat => "concat",
                Merge::Reaggregate => "re-aggregate",
            },
            if scans.is_empty() {
                "-".into()
            } else {
                scans.join(",")
            },
            e.est_rows,
            e.est_cost,
            if e.materialize { "INTO temp" } else { "" }
        );
    }
    let _ = writeln!(out, "{:<36} {:>52} {:>14.0}", "TOTAL", "", total);
    out
}

/// `R`, `R×4`, `cache`, `temp×4`, …: runs of one kind of read, joined
/// by `+` (a partially cached fan-out reads `cache+R×3`).
fn reads_label(reads: &[Read]) -> String {
    let mut runs: Vec<(&str, usize)> = Vec::new();
    for read in reads {
        let kind = match read {
            Read::Base(_) | Read::Shard(_) => "R",
            Read::Cached(_) => "cache",
            Read::Temp(_) => "temp",
        };
        match runs.last_mut() {
            Some((k, n)) if *k == kind => *n += 1,
            _ => runs.push((kind, 1)),
        }
    }
    let label = |&(kind, n): &(&str, usize)| match n {
        1 => kind.to_string(),
        n => format!("{kind}×{n}"),
    };
    runs.iter().map(label).collect::<Vec<_>>().join("+")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ExecutionMode;
    use crate::physicalize::{physicalize, Layout, Run};
    use gbmqo_cost::CardinalityCostModel;
    use gbmqo_exec::Input;
    use gbmqo_stats::ExactSource;
    use gbmqo_storage::{Catalog, Column, DataType, Field, Schema, Table};

    fn setup() -> (Table, Workload) {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![
                Column::from_i64((0..100).map(|i| i % 4).collect()),
                Column::from_i64((0..100).map(|i| (i % 4) * 2).collect()),
            ],
        )
        .unwrap();
        let w = Workload::single_columns("r", &t, &["a", "b"]).unwrap();
        (t, w)
    }

    #[test]
    fn explain_covers_every_edge_and_sums() {
        let (t, w) = setup();
        let plan = LogicalPlan {
            subplans: vec![SubNode::internal(
                ColSet::from_cols([0, 1]),
                vec![
                    SubNode::leaf(ColSet::single(0)),
                    SubNode::leaf(ColSet::single(1)),
                ],
            )],
        };
        let mut model = CardinalityCostModel::new(ExactSource::new(&t));
        let (edges, total) = explain(&plan, &w, &mut model);
        assert_eq!(edges.len(), 3);
        assert_eq!(total, edges.iter().map(|e| e.est_cost).sum::<f64>());
        // cardinality model: R→ab = 100, ab→a = 4, ab→b = 4
        assert_eq!(total, 108.0);
        assert!(edges[0].materialize);
        assert_eq!(edges[0].est_rows, 4.0);

        let layout = Layout::handed(Input::Catalog("r".into()));
        let est = Default::default();
        let physical = physicalize(&plan, &w, &est, &layout, Run::SERIAL, &mut |_| 1.0).unwrap();
        let text = render_explain(&physical, &w, &mut model);
        assert!(text.contains("R → (a, b)"));
        assert!(text.contains("INTO temp"));
        assert!(text.contains("TOTAL"));
    }

    #[test]
    fn explain_total_matches_plan_cost() {
        let (t, w) = setup();
        let plan = LogicalPlan::naive(&w);
        let mut m1 = CardinalityCostModel::new(ExactSource::new(&t));
        let (_, total) = explain(&plan, &w, &mut m1);
        let mut m2 = CardinalityCostModel::new(ExactSource::new(&t));
        let mut coster = EdgeCoster::new(&mut m2, w.base_ordinals.clone());
        assert_eq!(total, plan.cost(&mut coster));
    }

    #[test]
    fn explain_shows_the_physical_decisions() {
        let (t, w) = setup();
        let mut catalog = Catalog::new();
        catalog
            .register_sharded("r", t.clone(), 4, Some(vec!["a".into()]))
            .unwrap();
        let plan = LogicalPlan::naive(&w);
        let run = Run {
            mode: ExecutionMode::ServerSide,
            threads: 2,
        };
        let layout = Layout::of(&catalog, &w, Default::default());
        let est = Default::default();
        let physical = physicalize(&plan, &w, &est, &layout, run, &mut |_| 1.0).unwrap();
        let mut model = CardinalityCostModel::new(ExactSource::new(&t));
        let text = render_explain(&physical, &w, &mut model);
        assert!(text.contains("waves 1, threads 2, shards 4"), "{text}");
        // (a) is the shard key: its partials concatenate; (b)'s re-aggregate.
        let line = |q: &str| text.lines().find(|l| l.starts_with(q)).unwrap().to_string();
        let a = line("R → (a)");
        assert!(a.contains("R×4") && a.contains("concat"), "{a}");
        let b = line("R → (b)");
        assert!(b.contains("R×4") && b.contains("re-aggregate"), "{b}");
        // Both read every shard in one shared scan per shard.
        assert!(
            a.contains("#0,#1,#2,#3") && b.contains("#0,#1,#2,#3"),
            "{text}"
        );
    }
}
