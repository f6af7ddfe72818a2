//! Plan execution: turning a [`LogicalPlan`] into Group By queries against
//! the engine, as the paper's client-side implementation does (§5.2):
//! intermediates are materialized (`SELECT … INTO tmp`), queries over
//! intermediates replace `COUNT(*)` with `SUM(cnt)`, and an intermediate
//! is released once its last child is computed (§4.4).
//!
//! `execute_plan` is an interpreter of a [`PhysicalPlan`]: the wave
//! order, the thread budget, every read, merge and shared scan were fixed
//! by [`crate::physicalize`] before it starts, and it decides none of
//! them. It retires intermediates by reader count, harvests them for the
//! aggregate cache, records observed group counts and polls for
//! cancellation. The execution owns what it computes: live
//! intermediates and the §4.4 byte count are locals of `execute_plan`,
//! which only reads the catalog — a failed or cancelled execution drops
//! them and leaves nothing behind.

use crate::colset::ColSet;
use crate::error::{CoreError, Result};
use crate::physicalize::{Merge, PhysicalEdge, PhysicalPlan, Read};
use crate::plan::{LogicalPlan, NodeKind, SubNode};
use crate::workload::Workload;
use gbmqo_cost::CostModel;
use gbmqo_exec::{cube, rollup, AggSpec, Engine, ExecMetrics, GroupByQuery, Input, QueryCtx};
use gbmqo_storage::Table;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// Optimizer distinct-group estimates per plan node, keyed by the node's
/// column-set bits ([`ColSet::0`]). The executor forwards them to the
/// engine so the radix group-by kernel can size its partition fan-out
/// from the same cardinalities the plan search already computed.
pub type GroupEstimates = FxHashMap<u128, u64>;

/// Estimate the distinct-group count of every node in `plan` with
/// `model` (one [`CostModel::cardinality`] call per distinct node).
pub(crate) fn plan_group_estimates(
    plan: &LogicalPlan,
    workload: &Workload,
    model: &mut dyn CostModel,
) -> GroupEstimates {
    fn walk(n: &SubNode, workload: &Workload, model: &mut dyn CostModel, out: &mut GroupEstimates) {
        out.entry(n.cols.0)
            .or_insert_with(|| model.cardinality(&workload.base_cols(n.cols)).max(1.0) as u64);
        for c in &n.children {
            walk(c, workload, model, out);
        }
    }
    let mut out = GroupEstimates::default();
    for sp in &plan.subplans {
        walk(sp, workload, model, &mut out);
    }
    out
}

/// The outcome of executing a plan.
#[derive(Debug)]
pub struct ExecutionReport {
    /// One result table per requested query.
    pub results: Vec<(ColSet, Table)>,
    /// Work performed: the request's counters as the execution left
    /// them ([`QueryCtx::metrics`]).
    pub metrics: ExecMetrics,
    /// Peak bytes held in materialized intermediates during execution.
    pub peak_temp_bytes: usize,
    /// The physical plan that ran.
    pub physical: PhysicalPlan,
}

impl ExecutionReport {
    /// The result of the requested set that groups exactly the columns
    /// `names` (in any order) of `workload`.
    pub fn result_of<S: AsRef<str>>(&self, workload: &Workload, names: &[S]) -> Result<&Table> {
        self.results
            .iter()
            .find(|(cols, _)| {
                let got = workload.col_names(*cols);
                got.len() == names.len() && names.iter().all(|n| got.contains(&n.as_ref()))
            })
            .map(|(_, table)| table)
            .ok_or_else(|| {
                let names: Vec<&str> = names.iter().map(AsRef::as_ref).collect();
                CoreError::InvalidPlan(format!("no result for grouping set ({})", names.join(", ")))
            })
    }
}

/// Name of the temp table materializing a node in the paper's
/// `SELECT … INTO` script (see [`crate::render_sql`]). Executions hold
/// their intermediates by value and name none.
pub fn temp_name(cols: ColSet) -> String {
    format!("__gbmqo_tmp_{:x}", cols.0)
}

/// Shard slot meaning "the whole logical table" in [`RootSources`] and
/// [`Harvest`] entries: whatever is not a per-shard partial — everything
/// over an unsharded table, and logical-level cache hits over a sharded
/// one — uses this sentinel instead of a real shard ordinal.
pub(crate) const WHOLE_TABLE_PIN: u32 = u32::MAX;

/// Virtual-root sources for cache-served nodes: (node column-set bits,
/// shard ordinal or [`WHOLE_TABLE_PIN`]) → the cached covering aggregate
/// that node's base-relation read in that slot reads instead, so a
/// partially warm cache still serves the shards it covers.
pub(crate) type RootSources = FxHashMap<(u128, u32), Arc<Table>>;

/// Intermediates harvested for cache admission: the column set, shard
/// ordinal ([`WHOLE_TABLE_PIN`] for whole-table intermediates) and the
/// materialized result of every intermediate an execution produced,
/// moved out when its last reader has run.
pub(crate) type Harvest = Vec<(ColSet, u32, Arc<Table>)>;

/// One whole-table Group By observed during plan execution. Every
/// GroupBy plan node — whether it reads the base relation, an
/// intermediate, or a cached aggregate — computes the *complete*
/// distinct-group set of its target columns over the logical table, so
/// its output row count is the true cardinality the optimizer estimated.
/// (Per-shard partials of a fanned-out intermediate are the one
/// exception and are never observed; see [`execute_plan`].)
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanObservation {
    /// The node's target column set.
    pub cols: ColSet,
    /// Rows of the node's result — the true distinct-group count.
    pub output_groups: u64,
}

/// What an execution hands back besides its results. The default (no
/// harvest, no observations) collects nothing.
#[derive(Debug, Default)]
pub(crate) struct CacheHooks {
    /// `Some` collects every materialized intermediate for admission.
    pub harvest: Option<Harvest>,
    /// `Some` collects per-node cardinality observations for the
    /// q-error report (and, under sampled statistics, the feedback loop).
    pub observations: Option<Vec<PlanObservation>>,
}

impl CacheHooks {
    /// Record one whole-table Group By outcome (no-op without a sink).
    fn observe(&mut self, cols: ColSet, output_groups: u64) {
        if let Some(o) = self.observations.as_mut() {
            o.push(PlanObservation {
                cols,
                output_groups,
            });
        }
    }
}

/// Rows of `input`, 0 when it names no catalog table. Sizes a
/// re-aggregation's estimate and counts per-shard reads; an unregistered
/// input only happens on error paths, which fail the execution anyway.
fn input_rows_of(engine: &Engine, input: &Input) -> u64 {
    input
        .resolve(engine.catalog())
        .map_or(0, |t| t.num_rows() as u64)
}

/// Largest shard as a percentage of the mean shard size (100 = perfectly
/// balanced, 0 for an empty table).
pub(crate) fn shard_skew(shard_rows: &[u64]) -> u64 {
    let largest = shard_rows.iter().copied().max().unwrap_or(0);
    (largest * 100 * shard_rows.len() as u64)
        .checked_div(shard_rows.iter().sum())
        .unwrap_or(0)
}

/// A materialized node awaiting its readers.
#[derive(Debug)]
struct LiveTemp {
    /// Edges that have yet to read it.
    readers: usize,
    /// The node's result: one part per shard when its edge fanned out,
    /// else one.
    parts: Vec<Arc<Table>>,
}

/// The table `read` names for an instance of an edge over `source`.
fn input_of(read: &Read, source: Option<ColSet>, live: &FxHashMap<u128, LiveTemp>) -> Input {
    match read {
        Read::Base(input) | Read::Shard(input) => input.clone(),
        Read::Cached(table) => Input::Table(Arc::clone(table)),
        Read::Temp(part) => {
            let source = source.expect("a temp read has a source");
            Input::Table(Arc::clone(&live[&source.0].parts[*part]))
        }
    }
}

/// Run one wave's query instances: those `scans` puts in one shared
/// scan go through [`Engine::run_shared_group_bys`] (they read one input
/// and so share its aggregate list), the rest as one batch on `threads`
/// workers. Results come back in instance order.
fn run_queries(
    engine: &Engine,
    ctx: &mut QueryCtx,
    queries: Vec<GroupByQuery>,
    scans: &[Option<usize>],
    threads: usize,
) -> Result<Vec<Table>> {
    let mut shared: Vec<usize> = scans.iter().flatten().copied().collect();
    if shared.is_empty() {
        return Ok(engine.run_group_bys_parallel(&queries, threads, ctx)?);
    }
    shared.sort_unstable();
    shared.dedup();
    let mut out: Vec<Option<Table>> = vec![None; queries.len()];
    for id in shared {
        let members: Vec<usize> = (0..scans.len()).filter(|&i| scans[i] == Some(id)).collect();
        let groupings: Vec<Vec<String>> = members
            .iter()
            .map(|&i| queries[i].group_cols.clone())
            .collect();
        let estimates: Vec<Option<u64>> = members
            .iter()
            .map(|&i| queries[i].estimated_groups)
            .collect();
        let first = &queries[members[0]];
        let tables =
            engine.run_shared_group_bys(&first.input, &groupings, &first.aggs, &estimates, ctx)?;
        for (i, t) in members.into_iter().zip(tables) {
            out[i] = Some(t);
        }
    }
    let solo: Vec<usize> = (0..scans.len()).filter(|&i| scans[i].is_none()).collect();
    let solo_queries: Vec<GroupByQuery> = solo.iter().map(|&i| queries[i].clone()).collect();
    let tables = engine.run_group_bys_parallel(&solo_queries, threads, ctx)?;
    for (i, t) in solo.into_iter().zip(tables) {
        out[i] = Some(t);
    }
    Ok(out
        .into_iter()
        .map(|t| t.expect("every instance ran in exactly one group"))
        .collect())
}

/// Interpret `physical`: each wave's Group By instances run as one
/// engine batch, ROLLUP/CUBE edges descend their lattice, per-shard
/// results merge as each edge says, and an intermediate is offered to
/// the aggregate cache and released the moment its last reader has run
/// — where §4.4's schedule drops it, or earlier. What is left to run
/// time is what only running shows: reader counts, the observed group
/// counts, cancellation, and the size of a re-aggregation the plan has
/// no estimate for, taken from its input's rows. Work is charged to
/// `ctx`, whose token is polled between waves. Results and metric
/// counters (other than elapsed time) are the same for every wave order
/// and thread budget up to row order.
pub(crate) fn execute_plan(
    physical: PhysicalPlan,
    workload: &Workload,
    engine: &Engine,
    ctx: &mut QueryCtx,
    hooks: &mut CacheHooks,
) -> Result<ExecutionReport> {
    // The workload's aggregates re-aggregated (`SUM(cnt)`-style): what
    // any input other than the base relation is read with.
    let reagg: Vec<AggSpec> = workload
        .aggregates
        .iter()
        .map(AggSpec::reaggregate)
        .collect();
    // ROLLUP/CUBE nodes by column set: their single edge delivers all
    // child results via lattice descent.
    let special = collect_special(&physical.plan);
    // Edges that read each node — the initial reader count of its
    // intermediate.
    let mut fan_in: FxHashMap<u128, usize> = FxHashMap::default();
    for source in physical.edges().filter_map(|e| e.edge.source) {
        *fan_in.entry(source.0).or_default() += 1;
    }

    let mut results: Vec<(ColSet, Table)> = Vec::new();
    // Shard fan-out and skew are plan-independent facts of the layout.
    ctx.metrics += ExecMetrics {
        shards: physical.shard_rows.len() as u64,
        shard_skew: shard_skew(&physical.shard_rows),
        ..ExecMetrics::new()
    };
    let mut live: FxHashMap<u128, LiveTemp> = FxHashMap::default();
    // Bytes held by live intermediates and their high-water mark: the
    // quantity §4.4's `Storage(u)` recursion minimizes.
    let (mut temp_bytes, mut peak_temp_bytes) = (0usize, 0usize);

    for wave in &physical.waves {
        // Cancellation boundary between waves: small queries never poll
        // internally, so the interpreter polls for them.
        ctx.check_cancelled()?;
        let (batch, lattices): (Vec<&PhysicalEdge>, Vec<&PhysicalEdge>) =
            wave.iter().partition(|e| e.edge.kind == NodeKind::GroupBy);

        // One query per read of each Group By edge; all instances of a
        // wave run as one batch.
        let mut queries: Vec<GroupByQuery> = Vec::new();
        let mut scans: Vec<Option<usize>> = Vec::new();
        for e in &batch {
            for (read, scan) in e.reads.iter().zip(&e.scans) {
                let input = input_of(read, e.edge.source, &live);
                let rows = input_rows_of(engine, &input);
                // Any input but the base relation holds aggregate
                // outputs: it re-aggregates, and without an estimate it
                // is sized from its rows — re-grouping `u` yields at
                // most `|u|` groups (§3).
                let (aggs, estimated_groups) = match read {
                    Read::Base(_) | Read::Shard(_) => (workload.aggregates.clone(), e.groups),
                    _ => (reagg.clone(), e.groups.or(Some(rows))),
                };
                if let Read::Shard(_) = read {
                    ctx.metrics.shard_rows += rows;
                }
                queries.push(GroupByQuery {
                    input,
                    group_cols: workload.col_strings(e.edge.target),
                    aggs,
                    estimated_groups,
                });
                scans.push(*scan);
            }
        }
        let tables = run_queries(engine, ctx, queries, &scans, physical.threads)?;
        let mut outputs = tables.into_iter();

        for e in &batch {
            let edge = e.edge;
            let parts: Vec<Table> = outputs.by_ref().take(e.reads.len()).collect();
            // A whole-table result is a complete group count, hence an
            // observation. Per-shard partials kept as an intermediate
            // can repeat a group across shards, so their row counts are
            // NOT whole-table observations and are skipped.
            let whole = match e.merge {
                Merge::None => (parts.len() == 1).then(|| parts[0].clone()),
                Merge::Concat => Some(Table::concat(&parts.iter().collect::<Vec<_>>())?),
                Merge::Reaggregate => {
                    let combined = Table::concat(&parts.iter().collect::<Vec<_>>())?;
                    ctx.metrics.merge_rows += combined.num_rows() as u64;
                    let cols: Vec<usize> = workload
                        .col_names(edge.target)
                        .iter()
                        .map(|n| combined.schema().index_of(n))
                        .collect::<gbmqo_storage::Result<_>>()?;
                    let groups = e.groups.or(Some(combined.num_rows() as u64));
                    Some(engine.aggregate_table(&combined, &cols, &reagg, groups, ctx)?)
                }
            };
            if let Some(table) = whole {
                hooks.observe(edge.target, table.num_rows() as u64);
                if edge.required {
                    results.push((edge.target, table));
                }
            }
            if edge.materialize {
                parts.iter().for_each(|part| engine.materialize(part, ctx));
                temp_bytes += parts.iter().map(Table::byte_size).sum::<usize>();
                peak_temp_bytes = peak_temp_bytes.max(temp_bytes);
                live.insert(
                    edge.target.0,
                    LiveTemp {
                        readers: fan_in[&edge.target.0],
                        parts: parts.into_iter().map(Arc::new).collect(),
                    },
                );
            }
        }

        // ROLLUP/CUBE nodes descend a lattice over one input, serially
        // (the descent already re-aggregates level by level): several
        // reads — a per-shard source — concatenate into a scratch
        // intermediate first, whose overlapping groups the descent's own
        // re-aggregation absorbs.
        for e in &lattices {
            let node = special
                .get(&e.edge.target.0)
                .ok_or_else(|| CoreError::InvalidPlan("unknown rollup/cube node".into()))?;
            // `scratch`: bytes of the concatenated scratch, 0 when none.
            let (input, aggs, scratch) = match &e.reads[..] {
                [read @ (Read::Base(_) | Read::Shard(_))] => {
                    let input = input_of(read, e.edge.source, &live);
                    (input, workload.aggregates.clone(), 0)
                }
                [read] => (input_of(read, e.edge.source, &live), reagg.clone(), 0),
                _ => {
                    let source = e.edge.source.expect("several reads are a source's parts");
                    let parts = &live[&source.0].parts;
                    let combined =
                        Table::concat(&parts.iter().map(Arc::as_ref).collect::<Vec<_>>())?;
                    ctx.metrics.merge_rows += combined.num_rows() as u64;
                    engine.materialize(&combined, ctx);
                    let bytes = combined.byte_size();
                    temp_bytes += bytes;
                    peak_temp_bytes = peak_temp_bytes.max(temp_bytes);
                    (Input::Table(Arc::new(combined)), reagg.clone(), bytes)
                }
            };
            let delivered = run_lattice(node, &input, workload, engine, ctx, &aggs)?;
            // The descent materializes each delivered level as a complete
            // whole-table aggregate, so every one is an observation.
            for (cols, table) in &delivered {
                hooks.observe(*cols, table.num_rows() as u64);
            }
            results.extend(delivered);
            temp_bytes -= scratch;
        }

        // Every edge of this wave has read its source once: decrement
        // reader counts and release intermediates nobody will read
        // again, each offered to the aggregate cache first (under its
        // own shard ordinal) so a later workload asking for exactly this
        // set, or a subset, is served instead of recomputed.
        for source in batch.iter().chain(&lattices).filter_map(|e| e.edge.source) {
            let temp = live.get_mut(&source.0).expect("source temp is live");
            temp.readers -= 1;
            if temp.readers > 0 {
                continue;
            }
            let temp = live.remove(&source.0).expect("source temp is live");
            let fanned = temp.parts.len() > 1;
            for (slot, part) in temp.parts.into_iter().enumerate() {
                temp_bytes -= part.byte_size();
                if let Some(harvest) = hooks.harvest.as_mut() {
                    let slot = if fanned { slot as u32 } else { WHOLE_TABLE_PIN };
                    harvest.push((source, slot, part));
                }
            }
        }
    }
    debug_assert!(live.is_empty(), "intermediates outlived their readers");

    Ok(ExecutionReport {
        results,
        metrics: ctx.metrics,
        peak_temp_bytes,
        physical,
    })
}

/// ROLLUP/CUBE nodes of a plan, keyed by column set.
fn collect_special(plan: &LogicalPlan) -> FxHashMap<u128, &SubNode> {
    fn walk<'p>(n: &'p SubNode, out: &mut FxHashMap<u128, &'p SubNode>) {
        if n.kind != NodeKind::GroupBy {
            out.insert(n.cols.0, n);
        }
        for c in &n.children {
            walk(c, out);
        }
    }
    let mut special = FxHashMap::default();
    for sp in &plan.subplans {
        walk(sp, &mut special);
    }
    special
}

/// Column order over `node.cols` such that every child is a prefix
/// (children must form a nested chain — validated by the plan).
fn rollup_order(node: &SubNode) -> Vec<usize> {
    let mut chain: Vec<ColSet> = node.children.iter().map(|c| c.cols).collect();
    chain.sort_by_key(|s| s.len());
    let mut order: Vec<usize> = Vec::with_capacity(node.cols.len());
    let mut covered = ColSet::EMPTY;
    for s in chain {
        for b in s.difference(covered).iter() {
            order.push(b);
        }
        covered = covered.union(s);
    }
    for b in node.cols.difference(covered).iter() {
        order.push(b);
    }
    order
}

/// Run the ROLLUP/CUBE `node` over `input`: one lattice descent computes
/// the node and every child. Returns what the node delivers — itself
/// when required, then each child.
fn run_lattice(
    node: &SubNode,
    input: &Input,
    workload: &Workload,
    engine: &Engine,
    ctx: &mut QueryCtx,
    aggs: &[AggSpec],
) -> Result<Vec<(ColSet, Table)>> {
    let bits: Vec<usize> = match node.kind {
        NodeKind::Rollup => rollup_order(node),
        _ => node.cols.iter().collect(),
    };
    let table = input.resolve(engine.catalog())?;
    let cols: Vec<usize> = bits
        .iter()
        .map(|&b| table.schema().index_of(&workload.column_names[b]))
        .collect::<gbmqo_storage::Result<_>>()?;
    let wanted = node
        .required
        .then_some(node.cols)
        .into_iter()
        .chain(node.children.iter().map(|c| c.cols));
    let delivered = if node.kind == NodeKind::Rollup {
        // Level i groups by bits[.. len - i], and every child is such a
        // prefix.
        let levels = rollup(engine, &table, &cols, aggs, ctx)?;
        wanted
            .map(|set| {
                debug_assert_eq!(ColSet::from_cols(bits[..set.len()].iter().copied()), set);
                (set, levels[bits.len() - set.len()].clone())
            })
            .collect()
    } else {
        // Bit i of a subset's mask selects bits[i].
        let subsets = cube(engine, &table, &cols, aggs, ctx)?;
        wanted
            .map(|set| {
                let mask = (0..bits.len())
                    .filter(|&i| set.contains(bits[i]))
                    .fold(0u32, |m, i| m | 1 << i);
                let (_, t) = subsets
                    .iter()
                    .find(|(m, _)| *m == mask)
                    .expect("cube computes every subset");
                (set, t.clone())
            })
            .collect()
    };
    ctx.metrics.queries_executed += 1;
    Ok(delivered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ExecutionMode;
    use crate::physicalize::{physicalize, Layout, Run};
    use crate::plan::SubNode;
    use gbmqo_storage::{shard_table_name, Catalog, Column, DataType, Field, Schema, Value};

    fn base_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Int64),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_i64((0..60).map(|i| i % 3).collect()),
                Column::from_i64((0..60).map(|i| i % 6).collect()),
                Column::from_i64((0..60).map(|i| i % 4).collect()),
            ],
        )
        .unwrap()
    }

    fn setup() -> (Engine, Workload) {
        let t = base_table();
        let w = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
        let mut cat = Catalog::new();
        cat.register("r", t).unwrap();
        (Engine::new(cat), w)
    }

    /// The mode-shaped parameterizations of the one interpreter.
    #[derive(Debug, Clone, Copy)]
    enum Order {
        /// §4.4 order, one query at a time.
        Serial,
        /// Dependency waves on `threads` workers.
        Leveled { threads: usize },
        /// Dependency waves with same-input edges sharing a scan.
        Fused,
    }

    const ORDERS: [Order; 5] = [
        Order::Serial,
        Order::Leveled { threads: 1 },
        Order::Leveled { threads: 2 },
        Order::Leveled { threads: 4 },
        Order::Fused,
    ];

    fn run(
        plan: &LogicalPlan,
        w: &Workload,
        engine: &Engine,
        order: Order,
    ) -> Result<ExecutionReport> {
        let estimates = GroupEstimates::default();
        let mut ctx = QueryCtx::default();
        run_with(
            plan,
            w,
            engine,
            order,
            &estimates,
            RootSources::default(),
            &mut ctx,
        )
    }

    fn run_with(
        plan: &LogicalPlan,
        w: &Workload,
        engine: &Engine,
        order: Order,
        estimates: &GroupEstimates,
        roots: RootSources,
        ctx: &mut QueryCtx,
    ) -> Result<ExecutionReport> {
        let (mode, threads) = match order {
            Order::Serial => (ExecutionMode::ClientSide, 1),
            Order::Leveled { threads } => (ExecutionMode::Parallel, threads),
            Order::Fused => (ExecutionMode::ServerSide, 1),
        };
        let layout = Layout::of(&engine.catalog().snapshot(&w.table)?, w, roots);
        let run = Run { mode, threads };
        let physical = physicalize(plan, w, estimates, &layout, run, &mut |_| 1.0)?;
        execute_plan(physical, w, engine, ctx, &mut CacheHooks::default())
    }

    /// Run the one-leaf plan for `w`'s single request with the
    /// optimizer's estimate `groups` for it, if any.
    fn run_leaf(
        w: &Workload,
        engine: &Engine,
        order: Order,
        groups: Option<u64>,
        roots: RootSources,
    ) -> ExecutionReport {
        let cols = w.requests[0];
        let plan = LogicalPlan {
            subplans: vec![SubNode::leaf(cols)],
        };
        let estimates: GroupEstimates = groups.map(|g| (cols.0, g)).into_iter().collect();
        let mut ctx = QueryCtx::default();
        run_with(&plan, w, engine, order, &estimates, roots, &mut ctx).unwrap()
    }

    fn run_serial(plan: &LogicalPlan, w: &Workload, engine: &Engine) -> ExecutionReport {
        run(plan, w, engine, Order::Serial).unwrap()
    }

    fn norm(t: &Table) -> Vec<(Vec<Value>, i64)> {
        let n = t.num_columns();
        let mut v: Vec<(Vec<Value>, i64)> = (0..t.num_rows())
            .map(|r| {
                (
                    (0..n - 1).map(|c| t.value(r, c)).collect(),
                    t.value(r, n - 1).as_int().unwrap(),
                )
            })
            .collect();
        v.sort();
        v
    }

    fn assert_same(expected: &ExecutionReport, got: &ExecutionReport, what: &str) {
        assert_eq!(got.results.len(), expected.results.len(), "{what}");
        for (set, et) in &expected.results {
            let gt = &got
                .results
                .iter()
                .find(|(s, _)| s == set)
                .expect("result present")
                .1;
            assert_eq!(norm(et), norm(gt), "{what}: results differ for {set:?}");
        }
    }

    #[test]
    fn naive_plan_produces_all_results() {
        let (engine, w) = setup();
        let plan = LogicalPlan::naive(&w);
        let report = run_serial(&plan, &w, &engine);
        assert_eq!(report.results.len(), 3);
        assert_eq!(report.peak_temp_bytes, 0);
        // counts of (a): 3 groups of 20
        let (_, ta) = report
            .results
            .iter()
            .find(|(s, _)| *s == ColSet::single(0))
            .unwrap();
        assert_eq!(ta.num_rows(), 3);
        assert_eq!(ta.value(0, 1), Value::Int(20));
    }

    /// (a,b) → {a, b}; c direct.
    fn merged_plan() -> LogicalPlan {
        LogicalPlan {
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
        }
    }

    #[test]
    fn merged_plan_matches_naive_results() {
        let (engine, w) = setup();
        let nr = run_serial(&LogicalPlan::naive(&w), &w, &engine);
        let mr = run_serial(&merged_plan(), &w, &engine);
        assert!(mr.peak_temp_bytes > 0);
        assert_same(&nr, &mr, "merged vs naive");
    }

    /// ROLLUP(a,b,c) delivering (a,b) and (a).
    fn rollup_case(engine: &Engine) -> (Workload, LogicalPlan) {
        let w = Workload::new(
            "r",
            engine.catalog().table("r").unwrap(),
            &["a", "b", "c"],
            &[vec!["a"], vec!["a", "b"], vec!["a", "b", "c"]],
        )
        .unwrap();
        let plan = LogicalPlan {
            subplans: vec![SubNode {
                cols: ColSet::from_cols([0, 1, 2]),
                required: true,
                kind: NodeKind::Rollup,
                children: vec![
                    SubNode::leaf(ColSet::from_cols([0, 1])),
                    SubNode::leaf(ColSet::single(0)),
                ],
            }],
        };
        (w, plan)
    }

    #[test]
    fn rollup_node_delivers_chain_results() {
        let (engine, _) = setup();
        let (w, plan) = rollup_case(&engine);
        let report = run_serial(&plan, &w, &engine);
        assert_eq!(report.results.len(), 3);
        let naive = run_serial(&LogicalPlan::naive(&w), &w, &engine);
        assert_same(&naive, &report, "rollup vs naive");
    }

    #[test]
    fn every_order_handles_rollup_nodes() {
        let (engine, _) = setup();
        let (w, plan) = rollup_case(&engine);
        let serial = run_serial(&plan, &w, &engine);
        for order in ORDERS {
            let report = run(&plan, &w, &engine, order).unwrap();
            assert_same(&serial, &report, &format!("rollup under {order:?}"));
        }
    }

    #[test]
    fn cube_node_delivers_subset_results() {
        let (engine, _) = setup();
        let w = Workload::new(
            "r",
            engine.catalog().table("r").unwrap(),
            &["a", "b"],
            &[vec!["a"], vec!["b"], vec!["a", "b"]],
        )
        .unwrap();
        let plan = LogicalPlan {
            subplans: vec![SubNode {
                cols: ColSet::from_cols([0, 1]),
                required: true,
                kind: NodeKind::Cube,
                children: vec![
                    SubNode::leaf(ColSet::single(0)),
                    SubNode::leaf(ColSet::single(1)),
                ],
            }],
        };
        let report = run_serial(&plan, &w, &engine);
        let naive = run_serial(&LogicalPlan::naive(&w), &w, &engine);
        assert_same(&naive, &report, "cube vs naive");
    }

    /// R → (a,b,c)* → (a,b) → (a): a chain of re-aggregations.
    fn deep_case(engine: &Engine) -> (Workload, LogicalPlan) {
        let w = Workload::new(
            "r",
            engine.catalog().table("r").unwrap(),
            &["a", "b", "c"],
            &[vec!["a"], vec!["a", "b", "c"]],
        )
        .unwrap();
        let plan = LogicalPlan {
            subplans: vec![SubNode {
                cols: ColSet::from_cols([0, 1, 2]),
                required: true,
                kind: NodeKind::GroupBy,
                children: vec![SubNode::internal(
                    ColSet::from_cols([0, 1]),
                    vec![SubNode::leaf(ColSet::single(0))],
                )],
            }],
        };
        (w, plan)
    }

    #[test]
    fn deep_plans_reaggregate_transitively() {
        // checks SUM(cnt) chains
        let (engine, _) = setup();
        let (w, plan) = deep_case(&engine);
        let report = run_serial(&plan, &w, &engine);
        let (_, ta) = report
            .results
            .iter()
            .find(|(s, _)| *s == ColSet::single(0))
            .unwrap();
        let total: i64 = (0..ta.num_rows())
            .map(|r| ta.value(r, ta.num_columns() - 1).as_int().unwrap())
            .sum();
        assert_eq!(total, 60, "counts must sum to the table size");
    }

    #[test]
    fn invalid_plan_is_rejected_before_execution() {
        let (engine, w) = setup();
        let bad = LogicalPlan {
            subplans: vec![SubNode::leaf(ColSet::single(0))],
        };
        for order in ORDERS {
            assert!(run(&bad, &w, &engine, order).is_err());
        }
    }

    #[test]
    fn every_order_matches_serial() {
        let (engine, w) = setup();
        let plan = merged_plan();
        let sr = run_serial(&plan, &w, &engine);
        for order in ORDERS {
            let pr = run(&plan, &w, &engine, order).unwrap();
            assert_same(&sr, &pr, &format!("{order:?} vs serial"));
            assert_eq!(pr.metrics.queries_executed, sr.metrics.queries_executed);
            match order {
                // (a,b) and c share one scan of R; a and b one of the temp.
                Order::Fused => assert_eq!(pr.metrics.rows_scanned * 2, sr.metrics.rows_scanned),
                _ => assert_eq!(pr.metrics.rows_scanned, sr.metrics.rows_scanned),
            }
            assert!(pr.peak_temp_bytes > 0);
        }
    }

    #[test]
    fn fused_groupings_are_sized_from_their_estimates() {
        let (mut engine, w) = setup();
        let plan = merged_plan();
        let client = run_serial(&plan, &w, &engine);
        // Every node's true group count: (a, b) 6, a 3, b 6, c 4.
        let estimates: GroupEstimates = [
            (ColSet::from_cols([0, 1]), 6),
            (ColSet::single(0), 3),
            (ColSet::single(1), 6),
            (ColSet::single(2), 4),
        ]
        .into_iter()
        .map(|(cols, groups)| (cols.0, groups))
        .collect();
        let roots = RootSources::default();
        let mut ctx = QueryCtx::default();
        let server = run_with(
            &plan,
            &w,
            &engine,
            Order::Fused,
            &estimates,
            roots,
            &mut ctx,
        )
        .unwrap();
        assert_same(&client, &server, "fused with estimates vs serial");
        assert_eq!(server.metrics.hash_resizes, 0, "{:?}", server.metrics);
        // Every grouping here has a domain of at most 32 codes, addressed
        // directly: without estimates nothing grows either.
        let unsized_run = run(&plan, &w, &engine, Order::Fused).unwrap();
        assert_eq!(unsized_run.metrics.hash_resizes, 0);
        // A `c` of 60 values spread over 2^16 codes is hashed: without an
        // estimate its base-scan table starts empty and grows.
        let mut wide = base_table().columns().to_vec();
        wide[2] = Column::from_i64((0..60).map(|i| i * 1_000).collect());
        let wide = Table::new(base_table().schema().clone(), wide).unwrap();
        engine.catalog_mut().replace("r", wide).unwrap();
        let unsized_run = run(&plan, &w, &engine, Order::Fused).unwrap();
        assert!(unsized_run.metrics.hash_resizes > 0);
    }

    /// Every catalog entry as `(name, version, rows)`, sorted.
    fn catalog_state(engine: &Engine) -> Vec<(String, u64, usize)> {
        let mut state: Vec<_> = engine
            .catalog()
            .entries()
            .map(|(name, e)| (name.to_string(), e.version, e.table.num_rows()))
            .collect();
        state.sort();
        state
    }

    #[test]
    fn cancelled_run_leaves_the_catalog_unchanged() {
        for shards in [0, 2] {
            let engine = sharded_engine(shards);
            let w = Workload::single_columns("r", &base_table(), &["a", "b", "c"]).unwrap();
            let plan = merged_plan();
            let before = catalog_state(&engine);
            for order in ORDERS {
                let token = gbmqo_exec::CancelToken::new();
                token.cancel();
                let mut ctx = QueryCtx {
                    cancel: Some(token),
                    ..QueryCtx::default()
                };
                let (est, roots) = (GroupEstimates::default(), RootSources::default());
                let err = run_with(&plan, &w, &engine, order, &est, roots, &mut ctx).unwrap_err();
                assert!(matches!(
                    err,
                    CoreError::Exec(gbmqo_exec::ExecError::Cancelled { .. })
                ));
                assert_eq!(catalog_state(&engine), before, "{shards} shards, {order:?}");
            }
            // Without a token the same plan runs to completion, and a
            // finished run leaves the catalog as it found it too.
            assert_eq!(run_serial(&plan, &w, &engine).results.len(), 3);
            assert_eq!(catalog_state(&engine), before);
        }
    }

    fn sharded_engine(shards: u32) -> Engine {
        let mut cat = Catalog::new();
        cat.register_sharded("r", base_table(), shards, Some(vec!["a".into()]))
            .unwrap();
        Engine::new(cat)
    }

    #[test]
    fn sharded_execution_matches_unsharded() {
        let (plain, w) = setup();
        let plan = merged_plan();
        let sr = run_serial(&plan, &w, &plain);
        assert_eq!(sr.metrics.shards, 0, "an unsharded table reports no shards");
        for shards in [2u32, 4] {
            let engine = sharded_engine(shards);
            for order in ORDERS {
                let report = run(&plan, &w, &engine, order).unwrap();
                assert_same(&sr, &report, &format!("{shards} shards, {order:?}"));
                assert_eq!(report.metrics.shards, u64::from(shards));
                // Two base-reading edges ((a,b) and c), 60 rows each.
                assert_eq!(report.metrics.shard_rows, 120);
                assert!(report.metrics.shard_skew >= 100);
            }
        }
    }

    #[test]
    fn sharded_merge_elides_reaggregation_when_key_is_covered() {
        let engine = sharded_engine(4);
        let t = base_table();
        let order = Order::Leveled { threads: 2 };

        // Grouping by the shard key: hash-disjoint shards concatenate.
        let w = Workload::single_columns("r", &t, &["a"]).unwrap();
        let plan = LogicalPlan {
            subplans: vec![SubNode::leaf(ColSet::single(0))],
        };
        let report = run(&plan, &w, &engine, order).unwrap();
        assert_eq!(
            report.metrics.merge_rows, 0,
            "covered key must elide the merge"
        );
        assert_eq!(report.results[0].1.num_rows(), 3);

        // Grouping that misses the key: partials overlap, merge
        // re-aggregates and the combined rows are counted.
        let w2 = Workload::new("r", &t, &["a", "c"], &[vec!["c"]]).unwrap();
        let plan2 = LogicalPlan {
            subplans: vec![SubNode::leaf(ColSet::single(1))],
        };
        let report2 = run(&plan2, &w2, &engine, order).unwrap();
        assert!(
            report2.metrics.merge_rows > 0,
            "uncovered key must re-aggregate"
        );
        assert_eq!(report2.results[0].1.num_rows(), 4);
    }

    /// 60 rows: `a` (3 values, the shard key), `b` (6 values), `u`
    /// (unique). Over 4 shards `b`'s partials are 24 rows at most — less
    /// than the table — and `u`'s are the table itself.
    fn priced_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("u", DataType::Int64),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_i64((0..60).map(|i| i % 3).collect()),
                Column::from_i64((0..60).map(|i| i % 6).collect()),
                Column::from_i64((0..60).collect()),
            ],
        )
        .unwrap()
    }

    fn priced_engines() -> (Engine, Engine) {
        let mut plain = Catalog::new();
        plain.register("r", priced_table()).unwrap();
        let mut sharded = Catalog::new();
        sharded
            .register_sharded("r", priced_table(), 4, Some(vec!["a".into()]))
            .unwrap();
        (Engine::new(plain), Engine::new(sharded))
    }

    fn leaf_workload(col: &str) -> Workload {
        Workload::new("r", &priced_table(), &["a", "b", "u"], &[vec![col]]).unwrap()
    }

    #[test]
    fn base_edges_fan_out_only_where_partials_reduce() {
        let (plain, sharded) = priced_engines();
        for order in ORDERS {
            let run = |col: &str, groups: Option<u64>| {
                let w = leaf_workload(col);
                let expected = run_leaf(&w, &plain, order, groups, RootSources::default());
                let got = run_leaf(&w, &sharded, order, groups, RootSources::default());
                assert_same(
                    &expected,
                    &got,
                    &format!("{col} {groups:?} under {order:?}"),
                );
                got.metrics
            };

            // Covers the shard key: one query per shard, nothing to merge.
            let m = run("a", Some(3));
            assert_eq!((m.queries_executed, m.shard_rows, m.merge_rows), (4, 60, 0));

            // 6 groups x 4 shards < 60 rows: partials reduce, so the edge
            // fans out and the (at most 24) partial rows re-aggregate.
            let m = run("b", Some(6));
            assert_eq!((m.queries_executed, m.shard_rows), (4, 60));
            assert!(m.merge_rows > 0 && m.merge_rows <= 24, "{order:?}: {m:?}");

            // 60 groups x 4 shards >= 60 rows: each partial is its shard,
            // so the edge is one query over the logical table.
            let m = run("u", Some(60));
            assert_eq!((m.queries_executed, m.shard_rows, m.merge_rows), (1, 0, 0));
            assert_eq!(m.rows_scanned, 60, "no partial is read twice");

            // Nothing to price with: fan out, as a hand-built plan always did.
            let m = run("u", None);
            assert_eq!(
                (m.queries_executed, m.shard_rows, m.merge_rows),
                (4, 60, 60)
            );
        }
    }

    #[test]
    fn pinned_shard_partial_keeps_its_edge_fanned_out() {
        let (plain, sharded) = priced_engines();
        let w = leaf_workload("u");
        // One non-empty shard's partial of (u), as the aggregate cache
        // would pin it (three key values leave a fourth shard empty).
        let (slot, shard, pinned_rows) = (0..4u32)
            .map(|s| (s, shard_table_name("r", s)))
            .map(|(s, name)| {
                (
                    s,
                    input_rows_of(&sharded, &Input::Catalog(name.clone())),
                    name,
                )
            })
            .find_map(|(s, rows, name)| (rows > 0).then_some((s, name, rows)))
            .unwrap();
        let partial = Arc::new(
            sharded
                .run_group_by(
                    &GroupByQuery::count_star(&shard, &["u"]),
                    &mut QueryCtx::default(),
                )
                .unwrap(),
        );
        for order in ORDERS {
            let expected = run_leaf(&w, &plain, order, Some(60), RootSources::default());
            let roots: RootSources = [((w.requests[0].0, slot), Arc::clone(&partial))]
                .into_iter()
                .collect();
            let got = run_leaf(&w, &sharded, order, Some(60), roots);
            assert_same(&expected, &got, &format!("pinned shard under {order:?}"));
            // Near-unique, so unpinned it would be one logical query; the
            // pin makes it four, and the pinned shard is not rescanned.
            assert_eq!(got.metrics.queries_executed, 4);
            assert_eq!(got.metrics.shard_rows, 60 - pinned_rows);
            assert_eq!(got.metrics.merge_rows, 60);
        }
    }
}
