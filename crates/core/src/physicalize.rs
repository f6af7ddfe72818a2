//! The physical plan: how a [`LogicalPlan`] runs, fixed before its first
//! query does, as the statements of the paper's client-side script are
//! (§5.2). `physicalize` decides the wave order, the thread budget and,
//! per edge, what each query instance reads, how per-shard results merge
//! and which instances share a scan; [`crate::executor`] interprets the
//! result and `explain` prints it.

use crate::api::ExecutionMode;
use crate::colset::ColSet;
use crate::error::Result;
use crate::executor::{GroupEstimates, RootSources, WHOLE_TABLE_PIN};
use crate::plan::{LogicalPlan, NodeKind};
use crate::schedule::{level_plan, serial_waves, PlanEdge};
use crate::workload::Workload;
use gbmqo_exec::{Engine, Input};
use gbmqo_storage::{Snapshot, Table};
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// What one query instance of an edge reads.
#[derive(Debug, Clone)]
pub enum Read {
    /// The whole base relation: the catalog table, or the table a
    /// filtered workload selected from it for this request.
    Base(Input),
    /// One shard entry of the base table.
    Shard(Input),
    /// A cached aggregate, served as a virtual root.
    Cached(Arc<Table>),
    /// Part `i` of the edge's source intermediate: shard `i`'s partial
    /// when the source fanned out, else the whole table (`0`).
    Temp(usize),
}

/// How the results of an edge's query instances become its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Nothing merges: one instance, or per-shard partials kept as an
    /// intermediate for the edges below.
    None,
    /// The partials of a grouping that covers the shard key hold
    /// disjoint groups: they concatenate.
    Concat,
    /// The partials may share groups: their concatenation re-aggregates
    /// (`SUM(cnt)`-style; a ROLLUP/CUBE descent does it itself).
    Reaggregate,
}

/// One plan edge with its physical decisions.
#[derive(Debug, Clone)]
pub struct PhysicalEdge {
    /// The logical edge.
    pub edge: PlanEdge,
    /// One read per query instance: one per shard when the edge fans
    /// out, else one. A ROLLUP/CUBE edge concatenates its reads into
    /// the one input it descends from.
    pub reads: Vec<Read>,
    /// The shared scan of each read, numbered across the plan; `None`
    /// when it scans its input alone.
    pub scans: Vec<Option<usize>>,
    /// The group estimate each instance, and a re-aggregating merge, is
    /// sized for.
    pub groups: Option<u64>,
    /// How the instances' results combine.
    pub merge: Merge,
}

/// A plan as it runs.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The logical plan.
    pub plan: LogicalPlan,
    /// The edges in execution order. The edges of one wave are
    /// independent and run as one batch.
    pub waves: Vec<Vec<PhysicalEdge>>,
    /// Worker threads of a wave; a narrower wave hands the spare threads
    /// to its queries' kernels. Merges, ROLLUP/CUBE descents and delta
    /// refreshes run on the same budget.
    pub threads: usize,
    /// Rows of each shard of the base table; empty when unsharded.
    pub shard_rows: Vec<u64>,
}

impl PhysicalPlan {
    /// Every edge, in execution order.
    pub fn edges(&self) -> impl Iterator<Item = &PhysicalEdge> {
        self.waves.iter().flatten()
    }
}

/// An execution mode with the thread budget it implies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    pub mode: ExecutionMode,
    pub threads: usize,
}

impl Run {
    /// Decide the thread budget under `mode` and hand it to `engine`'s
    /// kernels: `parallelism` when set, else one thread per CPU under
    /// [`ExecutionMode::Parallel`] and one otherwise.
    pub fn new(engine: &mut Engine, mode: ExecutionMode, parallelism: usize) -> Self {
        let threads = match (parallelism, mode) {
            (0, ExecutionMode::Parallel) => {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            }
            (0, _) => 1,
            (n, _) => n,
        };
        engine.set_kernel_threads(threads);
        Run { mode, threads }
    }
}

/// Where an execution's base-relation reads come from.
#[derive(Debug)]
pub(crate) struct Layout {
    base: Input,
    /// Cache-served virtual roots, read instead of the base relation.
    roots: RootSources,
    /// The base table's shard entries and their rows, in shard order.
    shards: Vec<Input>,
    shard_rows: Vec<u64>,
    /// Shard-key columns as workload bits; `None` when a key column is
    /// outside the workload universe.
    key_set: Option<ColSet>,
}

impl Layout {
    /// The layout of `workload`'s base relation `base`, with `roots`
    /// served from the aggregate cache. A derived relation is read as
    /// the one table handed over.
    pub fn of(base: &Snapshot, workload: &Workload, roots: RootSources) -> Self {
        let key_set = base.shard_key.iter().try_fold(ColSet::EMPTY, |bits, key| {
            let i = workload.column_names.iter().position(|c| c == key)?;
            Some(bits.union(ColSet::single(i)))
        });
        Layout {
            base: if base.derived {
                Input::Table(Arc::clone(&base.table))
            } else {
                Input::Catalog(base.name.clone())
            },
            roots,
            shards: base
                .shards
                .iter()
                .map(|(name, _, _)| Input::Catalog(name.clone()))
                .collect(),
            shard_rows: base
                .shards
                .iter()
                .map(|&(_, _, rows)| rows as u64)
                .collect(),
            key_set,
        }
    }

    /// True when grouping by `target` keeps shards hash-disjoint: the
    /// target contains every shard-key column, so per-shard partials
    /// concatenate into the final result without re-aggregation.
    fn covers_key(&self, target: ColSet) -> bool {
        self.key_set.is_some_and(|k| (target.0 & k.0) == k.0)
    }

    /// Whether computing `target` from the base relation as one query
    /// per shard beats one query over the logical table: when nothing
    /// has to merge the partials (the target covers the shard key) or
    /// they are smaller than the rows they summarise. A non-covering
    /// grouping can repeat each of its `groups` in every shard, so at
    /// `groups × shards ≥ rows` the merge would re-read as many rows as
    /// the shards did, and a cached partial would save a later request
    /// nothing over its shard. Without an estimate (a hand-built plan)
    /// the edge fans out.
    fn fan_out_pays(&self, target: ColSet, groups: Option<u64>) -> bool {
        let rows: u64 = self.shard_rows.iter().sum();
        let shards = self.shards.len() as u64;
        self.covers_key(target) || groups.is_none_or(|g| g.saturating_mul(shards) < rows)
    }

    /// The base-relation read of `target` in `slot`: its cached root if
    /// it has one, else the slot's shard entry or the whole relation.
    fn read(&self, target: ColSet, slot: u32) -> Read {
        if let Some(root) = self.roots.get(&(target.0, slot)) {
            return Read::Cached(Arc::clone(root));
        }
        match self.shards.get(slot as usize) {
            Some(shard) => Read::Shard(shard.clone()),
            None => Read::Base(self.base.clone()),
        }
    }
}

/// Fix every physical decision of running `plan` for `workload`:
///
/// * `run`'s mode orders the edges: §4.4's storage-minimizing serial
///   order (weighing traversals with `sizes`) under
///   [`ExecutionMode::ClientSide`], dependency waves otherwise; under
///   [`ExecutionMode::ServerSide`] the instances of a wave that read one
///   input share a scan (§5.1), a cached aggregate serving two requests
///   included;
/// * an edge over the sharded base relation fans out into one query per
///   shard where that pays ([`Layout::fan_out_pays`]) or a shard's
///   partial is a cached root, and reads the logical table otherwise;
///   below a fanned-out node intermediates stay per-shard partials, and
///   a required result merges at delivery;
/// * each instance is sized for the plan's estimate of its target, a
///   shard's share of it when a fanned-out grouping covers the shard key.
pub(crate) fn physicalize(
    plan: &LogicalPlan,
    workload: &Workload,
    estimates: &GroupEstimates,
    layout: &Layout,
    run: Run,
    sizes: &mut dyn FnMut(ColSet) -> f64,
) -> Result<PhysicalPlan> {
    plan.validate(workload)?;
    let order = match run.mode {
        ExecutionMode::ClientSide => serial_waves(plan, sizes),
        ExecutionMode::ServerSide | ExecutionMode::Parallel => level_plan(plan),
    };
    let nshards = layout.shards.len();
    let all_shards = 0..nshards as u32;
    // Parts of every intermediate.
    let mut parts: FxHashMap<u128, usize> = FxHashMap::default();
    let mut next_scan = 0;
    let mut waves = Vec::with_capacity(order.len());
    for wave in order {
        let mut edges: Vec<PhysicalEdge> = Vec::with_capacity(wave.len());
        for edge in wave {
            let est = estimates.get(&edge.target.0).copied();
            let cached = |slot: u32| layout.roots.contains_key(&(edge.target.0, slot));
            let reads: Vec<Read> = match edge.source {
                Some(s) => (0..parts[&s.0]).map(Read::Temp).collect(),
                None if edge.kind == NodeKind::GroupBy
                    && nshards > 0
                    && !cached(WHOLE_TABLE_PIN)
                    && (layout.fan_out_pays(edge.target, est)
                        || all_shards.clone().any(cached)) =>
                {
                    let read = |s| layout.read(edge.target, s);
                    all_shards.clone().map(read).collect()
                }
                None => vec![layout.read(edge.target, WHOLE_TABLE_PIN)],
            };
            let fans_out = reads.len() > 1;
            let covers_key = layout.covers_key(edge.target);
            let groups = match edge.kind {
                // A grouping that covers the shard key splits its groups
                // across shards; any other may repeat each in every one.
                NodeKind::GroupBy if fans_out && covers_key => {
                    est.map(|e| (e / nshards as u64).max(1))
                }
                NodeKind::GroupBy => est,
                // The descent sizes its own levels.
                NodeKind::Rollup | NodeKind::Cube => None,
            };
            let merge = match (edge.kind, fans_out, edge.required) {
                (_, false, _) | (NodeKind::GroupBy, true, false) => Merge::None,
                (NodeKind::GroupBy, true, true) if covers_key => Merge::Concat,
                _ => Merge::Reaggregate,
            };
            if edge.materialize {
                parts.insert(edge.target.0, reads.len());
            }
            edges.push(PhysicalEdge {
                scans: vec![None; reads.len()],
                edge,
                reads,
                groups,
                merge,
            });
        }
        if run.mode == ExecutionMode::ServerSide {
            share_scans(&mut edges, &mut next_scan);
        }
        waves.push(edges);
    }
    Ok(PhysicalPlan {
        plan: plan.clone(),
        waves,
        threads: run.threads,
        shard_rows: layout.shard_rows.clone(),
    })
}

/// Number the Group By instances of one wave that read the same input
/// as one shared scan each, from `next` on.
fn share_scans(wave: &mut [PhysicalEdge], next: &mut usize) {
    let same = |(e, r): (usize, usize), (f, s): (usize, usize)| match (
        &wave[e].reads[r],
        &wave[f].reads[s],
    ) {
        (Read::Base(a), Read::Base(b)) | (Read::Shard(a), Read::Shard(b)) => a == b,
        (Read::Cached(a), Read::Cached(b)) => Arc::ptr_eq(a, b),
        (Read::Temp(a), Read::Temp(b)) => a == b && wave[e].edge.source == wave[f].edge.source,
        _ => false,
    };
    let mut groups: Vec<Vec<(usize, usize)>> = Vec::new();
    for (e, edge) in wave.iter().enumerate() {
        for r in (0..edge.reads.len()).filter(|_| edge.edge.kind == NodeKind::GroupBy) {
            match groups.iter_mut().find(|g| same(g[0], (e, r))) {
                Some(group) => group.push((e, r)),
                None => groups.push(vec![(e, r)]),
            }
        }
    }
    for group in groups.into_iter().filter(|g| g.len() > 1) {
        for (e, r) in group {
            wave[e].scans[r] = Some(*next);
        }
        *next += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SubNode;
    use gbmqo_storage::{Catalog, Column, DataType, Field, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_i64((0..40).map(|i| i % 4).collect()),
                Column::from_i64((0..40).map(|i| i % 5).collect()),
            ],
        )
        .unwrap()
    }

    fn run(mode: ExecutionMode) -> Run {
        Run { mode, threads: 1 }
    }

    #[test]
    fn two_requests_served_from_one_cached_aggregate_share_its_scan() {
        let t = table();
        let w = Workload::single_columns("r", &t, &["a", "b"]).unwrap();
        let plan = LogicalPlan::naive(&w);
        let mut catalog = Catalog::new();
        catalog.register("r", t.clone()).unwrap();
        let cached = Arc::new(t.clone());
        let served_by = |a: &Arc<Table>, b: &Arc<Table>| -> RootSources {
            [
                ((ColSet::single(0).0, WHOLE_TABLE_PIN), Arc::clone(a)),
                ((ColSet::single(1).0, WHOLE_TABLE_PIN), Arc::clone(b)),
            ]
            .into_iter()
            .collect()
        };
        let scans = |roots: &RootSources, mode| -> Vec<Vec<Option<usize>>> {
            let layout = Layout::of(&catalog.snapshot("r").unwrap(), &w, roots.clone());
            let est = GroupEstimates::default();
            let p = physicalize(&plan, &w, &est, &layout, run(mode), &mut |_| 1.0).unwrap();
            assert!(p.edges().all(|e| matches!(e.reads[..], [Read::Cached(_)])));
            p.edges().map(|e| e.scans.clone()).collect()
        };
        let one = served_by(&cached, &cached);
        assert_eq!(
            scans(&one, ExecutionMode::ServerSide),
            [[Some(0)], [Some(0)]]
        );
        for mode in [ExecutionMode::ClientSide, ExecutionMode::Parallel] {
            assert_eq!(scans(&one, mode), [[None], [None]], "{mode:?}");
        }
        // Two cached tables are two inputs, even with equal contents.
        let two = served_by(&cached, &Arc::new(t.clone()));
        assert_eq!(scans(&two, ExecutionMode::ServerSide), [[None], [None]]);
    }

    #[test]
    fn intermediates_stay_per_shard_below_a_fanned_out_edge() {
        let mut catalog = Catalog::new();
        catalog
            .register_sharded("r", table(), 2, Some(vec!["a".into()]))
            .unwrap();
        let w = Workload::single_columns("r", &table(), &["a", "b"]).unwrap();
        let plan = LogicalPlan {
            subplans: vec![SubNode::internal(
                ColSet::from_cols([0, 1]),
                vec![
                    SubNode::leaf(ColSet::single(0)),
                    SubNode::leaf(ColSet::single(1)),
                ],
            )],
        };
        let layout = Layout::of(&catalog.snapshot("r").unwrap(), &w, RootSources::default());
        let (est, mode) = (GroupEstimates::default(), run(ExecutionMode::Parallel));
        let p = physicalize(&plan, &w, &est, &layout, mode, &mut |_| 1.0).unwrap();
        assert_eq!(p.shard_rows.iter().sum::<u64>(), 40);
        let [root, children] = &p.waves[..] else {
            panic!("two waves: {p:?}");
        };
        assert!(matches!(
            root[0].reads[..],
            [Read::Shard(_), Read::Shard(_)]
        ));
        // (a, b) covers the key `a` but is an intermediate: nothing merges.
        assert_eq!(root[0].merge, Merge::None);
        for child in children {
            assert!(matches!(child.reads[..], [Read::Temp(0), Read::Temp(1)]));
        }
        let merges: Vec<Merge> = children.iter().map(|e| e.merge).collect();
        assert_eq!(merges, [Merge::Concat, Merge::Reaggregate]);
    }
}
