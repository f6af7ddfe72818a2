//! Plan execution: turning a [`LogicalPlan`] into Group By queries against
//! the engine, as the paper's client-side implementation does (§5.2):
//! intermediates are materialized (`SELECT … INTO tmp`), queries over
//! intermediates replace `COUNT(*)` with `SUM(cnt)`, and an intermediate
//! is released once its last child is computed (§4.4).
//!
//! There is one scheduler, `execute_plan`. It consumes an ordered list
//! of waves of [`PlanEdge`]s and retires intermediates by reader count;
//! serial, dependency-parallel, sharded and shared-scan execution are
//! values of its `Schedule` and of the base table's shard layout, not
//! code paths. The execution owns what it computes: live intermediates,
//! the cached aggregates it was handed and the §4.4 byte count are
//! locals of `execute_plan`, which only reads the catalog — a failed or
//! cancelled execution drops them and leaves nothing behind.

use crate::colset::ColSet;
use crate::error::{CoreError, Result};
use crate::plan::{LogicalPlan, NodeKind, SubNode};
use crate::schedule::PlanEdge;
use crate::workload::Workload;
use gbmqo_cost::CostModel;
use gbmqo_exec::{cube, rollup, AggSpec, Engine, ExecMetrics, GroupByQuery, Input};
use gbmqo_storage::{shard_table_name, Table};
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// Optimizer distinct-group estimates per plan node, keyed by the node's
/// column-set bits ([`ColSet::0`]). The executor forwards them to the
/// engine so the radix group-by kernel can size its partition fan-out
/// from the same cardinalities the plan search already computed.
pub type GroupEstimates = FxHashMap<u128, u64>;

/// Estimate the distinct-group count of every node in `plan` with
/// `model` (one [`CostModel::cardinality`] call per distinct node).
pub fn plan_group_estimates(
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
    /// Work performed.
    pub metrics: ExecMetrics,
    /// Peak bytes held in materialized intermediates during execution.
    pub peak_temp_bytes: usize,
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
/// shard ordinal) → a cached covering aggregate. An edge that would read
/// the base relation reads the cached table (with re-aggregation)
/// instead when its target is listed here: under [`WHOLE_TABLE_PIN`] the
/// whole edge does, under a shard ordinal that shard's instance of a
/// fanned-out edge does — so a partially warm cache still serves the
/// shards it covers.
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
    /// Rows of the node's immediate input (base, intermediate, or
    /// cached root).
    pub input_rows: u64,
    /// Rows of the node's result — the true distinct-group count.
    pub output_groups: u64,
}

/// Materialized-aggregate-cache integration handles threaded through
/// plan execution. The default (no roots, no harvest, no observations)
/// is a plain cache-less run.
#[derive(Debug, Default)]
pub(crate) struct CacheHooks {
    /// Nodes served from cached aggregates instead of the base relation.
    pub roots: RootSources,
    /// `Some` collects every materialized intermediate for admission.
    pub harvest: Option<Harvest>,
    /// `Some` collects per-node cardinality observations for the
    /// adaptive feedback loop (and the q-error report).
    pub observations: Option<Vec<PlanObservation>>,
}

impl CacheHooks {
    /// Record one whole-table Group By outcome (no-op without a sink).
    fn observe(&mut self, cols: ColSet, input_rows: u64, output_groups: u64) {
        if let Some(o) = self.observations.as_mut() {
            o.push(PlanObservation {
                cols,
                input_rows,
                output_groups,
            });
        }
    }
}

/// Rows of `input`, 0 when it names no catalog table. Feeds
/// [`PlanObservation::input_rows`]; an unregistered input only happens on
/// error paths, where the observation is discarded with the execution.
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

/// How [`execute_plan`] runs a plan. Every execution mode is a value of
/// this struct (see `Session::execute`).
#[derive(Debug)]
pub(crate) struct Schedule<'a> {
    /// The plan's edges in execution order. Edges of one wave are
    /// independent — each source was materialized by an earlier wave —
    /// and run as one batch: [`crate::schedule::serial_waves`] for the
    /// §4.4 storage-minimizing order, [`crate::schedule::level_plan`]
    /// for the widest batches.
    pub waves: Vec<Vec<PlanEdge>>,
    /// Worker threads per wave; a wave narrower than this hands the
    /// spare threads to its queries' kernels.
    pub threads: usize,
    /// Compute the Group Bys of a wave that read the same input in one
    /// shared scan (§5.1) instead of one query each.
    pub fuse: bool,
    /// Cap on live intermediate bytes. When materializing a node would
    /// exceed the cap, the node is left unmaterialized and its children
    /// re-read the node's own source — more work, bounded storage (the
    /// §4.4.2 trade, applied at run time).
    pub memory_budget: Option<usize>,
    /// Optimizer distinct-group estimates forwarded to the engine's
    /// radix kernel (empty when no cost model planned the plan).
    pub estimates: &'a GroupEstimates,
    /// The base relation handed in — the star pushdown's filtered fact —
    /// instead of read from the catalog as `workload.table`. A handed
    /// base is one unsharded input.
    pub base: Option<Arc<Table>>,
}

/// Shard layout of a workload's base table as one execution sees it.
/// The default is an unsharded table: no shard entries, so nothing fans
/// out.
#[derive(Debug, Default)]
struct Layout {
    /// The base table's shard entries, in shard order.
    shards: Vec<Input>,
    /// Rows of each shard entry.
    shard_rows: Vec<u64>,
    /// Shard-key columns as workload bits. `None` when a key column is
    /// outside the workload universe — merge elision is then impossible
    /// and every cross-shard merge re-aggregates.
    key_set: Option<ColSet>,
}

impl Layout {
    fn of(engine: &Engine, workload: &Workload) -> Self {
        let Some(desc) = engine.catalog().shard_desc(&workload.table) else {
            return Layout::default();
        };
        let shards: Vec<Input> = (0..desc.shard_count)
            .map(|s| Input::Catalog(shard_table_name(&workload.table, s)))
            .collect();
        Layout {
            shard_rows: shards.iter().map(|s| input_rows_of(engine, s)).collect(),
            shards,
            key_set: desc.key_cols.iter().try_fold(ColSet::EMPTY, |bits, key| {
                let i = workload.column_names.iter().position(|c| c == key)?;
                Some(bits.union(ColSet::single(i)))
            }),
        }
    }

    /// True when grouping by `target` keeps shards hash-disjoint: the
    /// target contains every shard-key column, so no group can span two
    /// shards and per-shard partials concatenate into the final result
    /// without re-aggregation.
    fn covers_key(&self, target: ColSet) -> bool {
        self.key_set.is_some_and(|k| (target.0 & k.0) == k.0)
    }

    /// Whether computing `target` from the base relation as one query
    /// per shard beats one query over the logical table. Per-shard
    /// partials pay when nothing has to merge them (the target covers
    /// the shard key) or when they are smaller than the rows they
    /// summarise. A non-covering grouping can repeat each of its
    /// `groups` in every shard, so at `groups × shards ≥ rows` the
    /// partials together are as large as the table: the merge would
    /// re-read every row the shards just read, and a cached partial
    /// would save a later request nothing over its shard. Without an
    /// estimate (a hand-built plan) there is nothing to price with and
    /// the edge fans out.
    fn fan_out_pays(&self, target: ColSet, groups: Option<u64>) -> bool {
        let rows: u64 = self.shard_rows.iter().sum();
        let shards = self.shards.len() as u64;
        self.covers_key(target) || groups.is_none_or(|g| g.saturating_mul(shards) < rows)
    }
}

/// A materialized node awaiting its readers.
#[derive(Debug)]
struct LiveTemp {
    /// Edges that have yet to read it.
    readers: usize,
    /// Whether it is held as per-shard partials or as one whole table.
    fan_out: bool,
    /// The node's result: one part per shard when fanned out, else one.
    parts: Vec<Arc<Table>>,
}

impl LiveTemp {
    /// The part a query instance in `slot` reads.
    fn part(&self, slot: u32) -> &Arc<Table> {
        &self.parts[if slot == WHOLE_TABLE_PIN {
            0
        } else {
            slot as usize
        }]
    }
}

/// Bytes held by live intermediates and their high-water mark: the
/// quantity §4.4's `Storage(u)` recursion minimizes.
#[derive(Debug, Default)]
struct TempBytes {
    current: usize,
    peak: usize,
}

impl TempBytes {
    fn add(&mut self, bytes: usize) {
        self.current += bytes;
        self.peak = self.peak.max(self.current);
    }

    fn sub(&mut self, bytes: usize) {
        self.current -= bytes;
    }
}

/// Everything that decides which table a query instance reads.
struct Sources<'a> {
    workload: &'a Workload,
    layout: &'a Layout,
    /// The whole base relation.
    base: Input,
    /// Cache-served roots of this execution.
    roots: RootSources,
    /// The workload's aggregates re-aggregated (`SUM(cnt)`-style): what
    /// any input other than the base relation is read with.
    reagg: Vec<AggSpec>,
}

/// Groups to size the re-aggregation of an aggregate `table` for: the
/// plan's estimate `est` where it has one, else `table`'s rows —
/// re-grouping `u` yields at most `|u|` groups (§3).
fn reaggregation_groups(table: &Table, est: Option<u64>) -> Option<u64> {
    est.or(Some(table.num_rows() as u64))
}

impl Sources<'_> {
    /// Input, aggregate list and group estimate of slot `slot` of the
    /// edge `source → target` (`None` = the base relation), whose target
    /// the plan estimates at `est` groups. A base-relation read whose
    /// `(target, slot)` has a cached root reads that root instead — the
    /// cached table already holds the aggregate outputs, so it
    /// re-aggregates exactly like an intermediate and is sized like one
    /// ([`reaggregation_groups`]): without an estimate, from its rows —
    /// an exact hit has exactly that many groups, a covering hit at
    /// most. Base rows read through a shard entry are counted into
    /// `extra.shard_rows`.
    fn io(
        &self,
        live: &FxHashMap<u128, LiveTemp>,
        source: Option<ColSet>,
        target: ColSet,
        slot: u32,
        est: Option<u64>,
        extra: &mut ExecMetrics,
    ) -> (Input, Vec<AggSpec>, Option<u64>) {
        if let Some(s) = source {
            let part = live[&s.0].part(slot);
            let groups = reaggregation_groups(part, est);
            return (Input::Table(Arc::clone(part)), self.reagg.clone(), groups);
        }
        if let Some(root) = self.roots.get(&(target.0, slot)) {
            let groups = reaggregation_groups(root, est);
            return (Input::Table(Arc::clone(root)), self.reagg.clone(), groups);
        }
        let base = match self.layout.shards.get(slot as usize) {
            Some(shard) => {
                extra.shard_rows += self.layout.shard_rows[slot as usize];
                shard.clone()
            }
            None => self.base.clone(),
        };
        (base, self.workload.aggregates.clone(), est)
    }

    /// Combine per-shard partial aggregates of `target` into the final
    /// result. Shards are hash-disjoint on the shard key, so a grouping
    /// that covers the key concatenates directly; any other grouping may
    /// hold the same group in several shards and re-aggregates the
    /// concatenation (`SUM(cnt)`-style, per §7.2's lossless merge rules)
    /// as the engine runs any Group By: its kernel choice sized by the
    /// plan's estimate `groups` of the target (the concatenation's rows
    /// without one), under its cancel token.
    fn merge_shards(
        &self,
        engine: &mut Engine,
        target: ColSet,
        groups: Option<u64>,
        parts: &[Table],
        extra: &mut ExecMetrics,
    ) -> Result<Table> {
        let refs: Vec<&Table> = parts.iter().collect();
        let combined = Table::concat(&refs)?;
        if self.layout.covers_key(target) {
            return Ok(combined);
        }
        extra.merge_rows += combined.num_rows() as u64;
        let group_cols: Vec<usize> = self
            .workload
            .col_names(target)
            .iter()
            .map(|n| combined.schema().index_of(n))
            .collect::<gbmqo_storage::Result<_>>()?;
        let groups = reaggregation_groups(&combined, groups);
        Ok(engine.aggregate_table(&combined, &group_cols, &self.reagg, groups)?)
    }
}

/// Run one wave's query instances. With `fuse`, instances that read the
/// same input share one scan of it (they then also share their
/// aggregate list, which the input determines); an instance that shares
/// its input with nobody goes through the ordinary batch either way.
fn run_queries(
    engine: &mut Engine,
    queries: &[GroupByQuery],
    threads: usize,
    fuse: bool,
) -> Result<Vec<Table>> {
    if !fuse {
        return Ok(engine.run_group_bys_parallel(queries, threads)?);
    }
    let mut by_input: Vec<(&Input, Vec<usize>)> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        match by_input.iter_mut().find(|(input, _)| **input == q.input) {
            Some((_, members)) => members.push(i),
            None => by_input.push((&q.input, vec![i])),
        }
    }
    let mut out: Vec<Option<Table>> = vec![None; queries.len()];
    let mut solo: Vec<usize> = Vec::new();
    for (input, members) in by_input {
        if let [only] = members[..] {
            solo.push(only);
            continue;
        }
        let groupings: Vec<Vec<String>> = members
            .iter()
            .map(|&i| queries[i].group_cols.clone())
            .collect();
        let estimates: Vec<Option<u64>> = members
            .iter()
            .map(|&i| queries[i].estimated_groups)
            .collect();
        let aggs = &queries[members[0]].aggs;
        let tables = engine.run_shared_group_bys(input, &groupings, aggs, &estimates)?;
        for (i, t) in members.into_iter().zip(tables) {
            out[i] = Some(t);
        }
    }
    let solo_queries: Vec<GroupByQuery> = solo.iter().map(|&i| queries[i].clone()).collect();
    let tables = engine.run_group_bys_parallel(&solo_queries, threads)?;
    for (i, t) in solo.into_iter().zip(tables) {
        out[i] = Some(t);
    }
    Ok(out
        .into_iter()
        .map(|t| t.expect("every instance ran in exactly one group"))
        .collect())
}

/// Execute `plan` as `sched` orders: each wave's Group By edges run as
/// one engine batch, ROLLUP/CUBE edges descend their lattice, and an
/// intermediate is offered to the aggregate cache and released the
/// moment its last reader has run — where §4.4's schedule drops it, or
/// earlier.
///
/// Over a radix-sharded base table an edge that reads the base relation
/// fans out into one query per shard entry where that pays
/// ([`Layout::fan_out_pays`]) and reads the logical table otherwise;
/// below a fanned-out node intermediates stay per-shard partials all the
/// way down, and required results merge at delivery
/// ([`Sources::merge_shards`]). An unsharded table is the layout in
/// which nothing fans out. Results and metric counters (other than
/// elapsed time) are the same for every `sched` up to row order.
pub(crate) fn execute_plan(
    plan: &LogicalPlan,
    workload: &Workload,
    engine: &mut Engine,
    sched: &Schedule<'_>,
    hooks: &mut CacheHooks,
) -> Result<ExecutionReport> {
    plan.validate(workload)?;
    engine.reset_metrics();
    let (base, layout) = match &sched.base {
        Some(table) => (Input::Table(Arc::clone(table)), Layout::default()),
        None => (
            Input::Catalog(workload.table.clone()),
            Layout::of(engine, workload),
        ),
    };
    let sources = Sources {
        workload,
        layout: &layout,
        base,
        roots: std::mem::take(&mut hooks.roots),
        reagg: workload
            .aggregates
            .iter()
            .map(AggSpec::reaggregate)
            .collect(),
    };
    let nshards = layout.shards.len() as u32;
    let all_shards: Vec<u32> = (0..nshards).collect();
    // The slots a node occupies: one per shard when fanned out, the
    // whole-table slot otherwise.
    let slots_of = |fan_out: bool| -> &[u32] {
        if fan_out {
            &all_shards
        } else {
            &[WHOLE_TABLE_PIN]
        }
    };

    // ROLLUP/CUBE nodes by column set: their single edge delivers all
    // child results via lattice descent.
    let special = collect_special(plan);
    // Edges that read each node — the initial reader count of its
    // intermediate.
    let mut fan_in: FxHashMap<u128, usize> = FxHashMap::default();
    for source in sched.waves.iter().flatten().filter_map(|e| e.source) {
        *fan_in.entry(source.0).or_default() += 1;
    }

    let mut results: Vec<(ColSet, Table)> = Vec::new();
    let mut extra = ExecMetrics::new();
    // Shard fan-out and skew are plan-independent facts of the layout.
    extra.shards = u64::from(nshards);
    extra.shard_skew = shard_skew(&layout.shard_rows);
    let mut live: FxHashMap<u128, LiveTemp> = FxHashMap::default();
    let mut temp_bytes = TempBytes::default();
    // Nodes the budget left unmaterialized → the source their children
    // read instead.
    let mut evicted: FxHashMap<u128, Option<ColSet>> = FxHashMap::default();

    for wave in &sched.waves {
        // Cancellation boundary between waves: small queries never poll
        // internally, so the scheduler polls for them.
        engine.check_cancelled()?;
        let (batch, specials): (Vec<_>, Vec<_>) = wave
            .iter()
            .map(|e| {
                let src = e
                    .source
                    .and_then(|s| evicted.get(&s.0).copied().unwrap_or(Some(s)));
                (*e, src)
            })
            .partition(|(e, _)| e.kind == NodeKind::GroupBy);

        // Expand each Group By edge into its query instances: one per
        // shard when its source is per-shard, a single query otherwise
        // (an unsharded table, or a node served whole from a cached
        // aggregate). An edge that reads the sharded base relation fans
        // out where per-shard partials pay ([`Layout::fan_out_pays`]) or
        // some shard's partial is a cached root; otherwise it is one
        // query over the logical table, and the wave's thread budget
        // goes to that query's kernel instead. All instances of a wave
        // run as one batch.
        let mut queries: Vec<GroupByQuery> = Vec::new();
        let mut fan_outs: Vec<bool> = Vec::new();
        for (edge, src) in &batch {
            let mut est = sched.estimates.get(&edge.target.0).copied();
            let cached = |slot: u32| sources.roots.contains_key(&(edge.target.0, slot));
            let fan_out = match src {
                Some(s) => live[&s.0].fan_out,
                None => {
                    nshards > 0
                        && !cached(WHOLE_TABLE_PIN)
                        && (layout.fan_out_pays(edge.target, est)
                            || all_shards.iter().any(|&s| cached(s)))
                }
            };
            fan_outs.push(fan_out);
            // A grouping that covers the shard key splits its groups
            // across shards; any other grouping may repeat every group
            // in every shard.
            if fan_out && layout.covers_key(edge.target) {
                est = est.map(|e| (e / u64::from(nshards)).max(1));
            }
            for &slot in slots_of(fan_out) {
                let (input, aggs, estimated_groups) =
                    sources.io(&live, *src, edge.target, slot, est, &mut extra);
                queries.push(GroupByQuery {
                    input,
                    group_cols: workload
                        .col_names(edge.target)
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                    aggs,
                    estimated_groups,
                });
            }
        }
        let input_rows: Vec<u64> = queries
            .iter()
            .map(|q| input_rows_of(engine, &q.input))
            .collect();
        let tables = run_queries(engine, &queries, sched.threads, sched.fuse)?;
        let mut outputs = input_rows.into_iter().zip(tables);

        for ((edge, src), fan_out) in batch.iter().zip(fan_outs) {
            let slots = slots_of(fan_out);
            // Whole-logical-table input of this node: the sum over its
            // query instances.
            let (in_rows, parts): (Vec<u64>, Vec<Table>) =
                outputs.by_ref().take(slots.len()).unzip();
            let in_rows: u64 = in_rows.iter().sum();
            // A whole-table result is a complete group count, hence an
            // observation. Fanned-out intermediates stay per-shard
            // partials — a group can repeat across shards, so their row
            // counts are NOT whole-table observations and are skipped.
            let whole = if !fan_out {
                Some(parts[0].clone())
            } else if edge.required {
                let groups = sched.estimates.get(&edge.target.0).copied();
                Some(sources.merge_shards(engine, edge.target, groups, &parts, &mut extra)?)
            } else {
                None
            };
            if let Some(table) = whole {
                hooks.observe(edge.target, in_rows, table.num_rows() as u64);
                if edge.required {
                    results.push((edge.target, table));
                }
            }
            if !edge.materialize {
                continue;
            }
            let readers = fan_in[&edge.target.0];
            let bytes: usize = parts.iter().map(Table::byte_size).sum();
            if sched
                .memory_budget
                .is_none_or(|b| temp_bytes.current + bytes <= b)
            {
                parts.iter().for_each(|part| engine.materialize(part));
                temp_bytes.add(bytes);
                let parts = parts.into_iter().map(Arc::new).collect();
                live.insert(
                    edge.target.0,
                    LiveTemp {
                        readers,
                        fan_out,
                        parts,
                    },
                );
            } else {
                // The children re-read this edge's own source; if that
                // source is an intermediate, it gains their reads and
                // must stay live accordingly.
                evicted.insert(edge.target.0, *src);
                if let Some(s) = src {
                    live.get_mut(&s.0).expect("source temp is live").readers += readers;
                }
            }
        }

        // ROLLUP/CUBE nodes descend a lattice over one combined input,
        // serially (the descent already re-aggregates level by level):
        // a per-shard source concatenates into a scratch intermediate
        // first (the descent's own re-aggregation absorbs overlapping
        // groups); a base-relation source reads the logical table, which
        // the dual-resident layout keeps registered alongside the shards.
        for (edge, src) in &specials {
            let node = special
                .get(&edge.target.0)
                .ok_or_else(|| CoreError::InvalidPlan("unknown rollup/cube node".into()))?;
            // `scratch`: bytes of the concatenated scratch, 0 when none.
            let (input, aggs, scratch) = match src {
                Some(cols) if live[&cols.0].fan_out => {
                    let refs: Vec<&Table> = live[&cols.0].parts.iter().map(Arc::as_ref).collect();
                    let combined = Table::concat(&refs)?;
                    extra.merge_rows += combined.num_rows() as u64;
                    engine.materialize(&combined);
                    let bytes = combined.byte_size();
                    temp_bytes.add(bytes);
                    let input = Input::Table(Arc::new(combined));
                    (input, sources.reagg.clone(), bytes)
                }
                _ => {
                    let (input, aggs, _) =
                        sources.io(&live, *src, edge.target, WHOLE_TABLE_PIN, None, &mut extra);
                    (input, aggs, 0)
                }
            };
            let in_rows = input_rows_of(engine, &input);
            let delivered = run_lattice(node, &input, workload, engine, &aggs, &mut extra)?;
            // The descent materializes each delivered level as a complete
            // whole-table aggregate, so every one is an observation.
            for (cols, table) in &delivered {
                hooks.observe(*cols, in_rows, table.num_rows() as u64);
            }
            results.extend(delivered);
            temp_bytes.sub(scratch);
        }

        // Every edge of this wave has read its source once: decrement
        // reader counts and release intermediates nobody will read
        // again, each offered to the aggregate cache first (under its
        // own shard ordinal) so a later workload asking for exactly this
        // set, or a subset, is served instead of recomputed. This runs
        // after the reparenting above so an intermediate that just
        // inherited readers is not released in between.
        for source in batch.iter().chain(&specials).filter_map(|(_, src)| *src) {
            let temp = live.get_mut(&source.0).expect("source temp is live");
            temp.readers -= 1;
            if temp.readers > 0 {
                continue;
            }
            let temp = live.remove(&source.0).expect("source temp is live");
            for (&slot, part) in slots_of(temp.fan_out).iter().zip(temp.parts) {
                temp_bytes.sub(part.byte_size());
                if let Some(harvest) = hooks.harvest.as_mut() {
                    harvest.push((source, slot, part));
                }
            }
        }
    }
    debug_assert!(live.is_empty(), "intermediates outlived their readers");

    let mut metrics = engine.metrics();
    metrics += extra;
    Ok(ExecutionReport {
        results,
        metrics,
        peak_temp_bytes: temp_bytes.peak,
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
    engine: &mut Engine,
    aggs: &[AggSpec],
    extra: &mut ExecMetrics,
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
        let levels = rollup(engine, &table, &cols, aggs)?;
        wanted
            .map(|set| {
                debug_assert_eq!(ColSet::from_cols(bits[..set.len()].iter().copied()), set);
                (set, levels[bits.len() - set.len()].clone())
            })
            .collect()
    } else {
        // Bit i of a subset's mask selects bits[i].
        let subsets = cube(engine, &table, &cols, aggs)?;
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
    extra.queries_executed += 1;
    Ok(delivered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SubNode;
    use crate::schedule::{level_plan, serial_waves};
    use gbmqo_storage::{Catalog, Column, DataType, Field, Schema, Value};

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

    /// The three mode-shaped parameterizations of the one scheduler.
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
        engine: &mut Engine,
        order: Order,
        memory_budget: Option<usize>,
    ) -> Result<ExecutionReport> {
        let estimates = GroupEstimates::default();
        let hooks = &mut CacheHooks::default();
        run_with(plan, w, engine, order, memory_budget, &estimates, hooks)
    }

    fn run_with(
        plan: &LogicalPlan,
        w: &Workload,
        engine: &mut Engine,
        order: Order,
        memory_budget: Option<usize>,
        estimates: &GroupEstimates,
        hooks: &mut CacheHooks,
    ) -> Result<ExecutionReport> {
        let (waves, threads, fuse) = match order {
            Order::Serial => (serial_waves(plan, &mut |_| 1.0), 1, false),
            Order::Leveled { threads } => (level_plan(plan), threads, false),
            Order::Fused => (level_plan(plan), 1, true),
        };
        let sched = Schedule {
            waves,
            threads,
            fuse,
            memory_budget,
            estimates,
            base: None,
        };
        execute_plan(plan, w, engine, &sched, hooks)
    }

    /// Run the one-leaf plan for `w`'s single request with the
    /// optimizer's estimate `groups` for it, if any.
    fn run_leaf(
        w: &Workload,
        engine: &mut Engine,
        order: Order,
        groups: Option<u64>,
        hooks: &mut CacheHooks,
    ) -> ExecutionReport {
        let cols = w.requests[0];
        let plan = LogicalPlan {
            subplans: vec![SubNode::leaf(cols)],
        };
        let estimates: GroupEstimates = groups.map(|g| (cols.0, g)).into_iter().collect();
        run_with(&plan, w, engine, order, None, &estimates, hooks).unwrap()
    }

    fn run_serial(plan: &LogicalPlan, w: &Workload, engine: &mut Engine) -> ExecutionReport {
        run(plan, w, engine, Order::Serial, None).unwrap()
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
        let (mut engine, w) = setup();
        let plan = LogicalPlan::naive(&w);
        let report = run_serial(&plan, &w, &mut engine);
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
        let (mut engine, w) = setup();
        let nr = run_serial(&LogicalPlan::naive(&w), &w, &mut engine);
        let mr = run_serial(&merged_plan(), &w, &mut engine);
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
        let (mut engine, _) = setup();
        let (w, plan) = rollup_case(&engine);
        let report = run_serial(&plan, &w, &mut engine);
        assert_eq!(report.results.len(), 3);
        let naive = run_serial(&LogicalPlan::naive(&w), &w, &mut engine);
        assert_same(&naive, &report, "rollup vs naive");
    }

    #[test]
    fn every_order_handles_rollup_nodes() {
        let (mut engine, _) = setup();
        let (w, plan) = rollup_case(&engine);
        let serial = run_serial(&plan, &w, &mut engine);
        for order in ORDERS {
            let report = run(&plan, &w, &mut engine, order, None).unwrap();
            assert_same(&serial, &report, &format!("rollup under {order:?}"));
        }
    }

    #[test]
    fn cube_node_delivers_subset_results() {
        let (mut engine, _) = setup();
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
        let report = run_serial(&plan, &w, &mut engine);
        let naive = run_serial(&LogicalPlan::naive(&w), &w, &mut engine);
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
        let (mut engine, _) = setup();
        let (w, plan) = deep_case(&engine);
        let report = run_serial(&plan, &w, &mut engine);
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
        let (mut engine, w) = setup();
        let bad = LogicalPlan {
            subplans: vec![SubNode::leaf(ColSet::single(0))],
        };
        for order in ORDERS {
            assert!(run(&bad, &w, &mut engine, order, None).is_err());
        }
    }

    #[test]
    fn every_order_matches_serial() {
        let (mut engine, w) = setup();
        let plan = merged_plan();
        let sr = run_serial(&plan, &w, &mut engine);
        for order in ORDERS {
            let pr = run(&plan, &w, &mut engine, order, None).unwrap();
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
        let client = run_serial(&plan, &w, &mut engine);
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
        let hooks = &mut CacheHooks::default();
        let server = run_with(
            &plan,
            &w,
            &mut engine,
            Order::Fused,
            None,
            &estimates,
            hooks,
        )
        .unwrap();
        assert_same(&client, &server, "fused with estimates vs serial");
        assert_eq!(server.metrics.hash_resizes, 0, "{:?}", server.metrics);
        // Every grouping here has a domain of at most 32 codes, addressed
        // directly: without estimates nothing grows either.
        let unsized_run = run(&plan, &w, &mut engine, Order::Fused, None).unwrap();
        assert_eq!(unsized_run.metrics.hash_resizes, 0);
        // A `c` of 60 values spread over 2^16 codes is hashed: without an
        // estimate its base-scan table starts empty and grows.
        let mut wide = base_table().columns().to_vec();
        wide[2] = Column::from_i64((0..60).map(|i| i * 1_000).collect());
        let wide = Table::new(base_table().schema().clone(), wide).unwrap();
        engine.catalog_mut().replace("r", wide).unwrap();
        let unsized_run = run(&plan, &w, &mut engine, Order::Fused, None).unwrap();
        assert!(unsized_run.metrics.hash_resizes > 0);
    }

    #[test]
    fn budget_skips_materialization_and_reparents() {
        let plan = merged_plan();
        for order in ORDERS {
            let (mut engine, w) = setup();
            let unbounded = run(&plan, &w, &mut engine, order, None).unwrap();
            let bounded = run(&plan, &w, &mut engine, order, Some(0)).unwrap();
            assert_eq!(
                bounded.peak_temp_bytes, 0,
                "budget 0 must materialize nothing"
            );
            // reparented children re-read the base relation: strictly more work
            assert!(bounded.metrics.rows_scanned > unbounded.metrics.rows_scanned);
            assert_same(&unbounded, &bounded, &format!("budgeted {order:?}"));
        }
    }

    #[test]
    fn budget_reparents_across_deep_chains() {
        // With budget 0 every node re-reads the base relation,
        // exercising transitive reparenting.
        let (mut engine, _) = setup();
        let (w, plan) = deep_case(&engine);
        let serial = run_serial(&plan, &w, &mut engine);
        for order in ORDERS {
            let bounded = run(&plan, &w, &mut engine, order, Some(0)).unwrap();
            assert_eq!(bounded.peak_temp_bytes, 0);
            assert_same(&serial, &bounded, &format!("deep budgeted {order:?}"));
        }
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
            let mut engine = sharded_engine(shards);
            let w = Workload::single_columns("r", &base_table(), &["a", "b", "c"]).unwrap();
            let plan = merged_plan();
            let before = catalog_state(&engine);
            for order in ORDERS {
                let token = gbmqo_exec::CancelToken::new();
                token.cancel();
                engine.set_cancel_token(Some(token));
                let err = run(&plan, &w, &mut engine, order, None).unwrap_err();
                assert!(matches!(
                    err,
                    CoreError::Exec(gbmqo_exec::ExecError::Cancelled { .. })
                ));
                engine.set_cancel_token(None);
                assert_eq!(catalog_state(&engine), before, "{shards} shards, {order:?}");
            }
            // With the token detached the same plan runs to completion,
            // and a finished run leaves the catalog as it found it too.
            assert_eq!(run_serial(&plan, &w, &mut engine).results.len(), 3);
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
        let (mut plain, w) = setup();
        let plan = merged_plan();
        let sr = run_serial(&plan, &w, &mut plain);
        assert_eq!(sr.metrics.shards, 0, "an unsharded table reports no shards");
        for shards in [2u32, 4] {
            let mut engine = sharded_engine(shards);
            for order in ORDERS {
                let report = run(&plan, &w, &mut engine, order, None).unwrap();
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
        let mut engine = sharded_engine(4);
        let t = base_table();
        let order = Order::Leveled { threads: 2 };

        // Grouping by the shard key: hash-disjoint shards concatenate.
        let w = Workload::single_columns("r", &t, &["a"]).unwrap();
        let plan = LogicalPlan {
            subplans: vec![SubNode::leaf(ColSet::single(0))],
        };
        let report = run(&plan, &w, &mut engine, order, None).unwrap();
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
        let report2 = run(&plan2, &w2, &mut engine, order, None).unwrap();
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
        let (mut plain, mut sharded) = priced_engines();
        for order in ORDERS {
            let mut run = |col: &str, groups: Option<u64>| {
                let w = leaf_workload(col);
                let hooks = &mut CacheHooks::default();
                let expected = run_leaf(&w, &mut plain, order, groups, hooks);
                let got = run_leaf(&w, &mut sharded, order, groups, hooks);
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
        let (mut plain, mut sharded) = priced_engines();
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
                .run_group_by(&GroupByQuery::count_star(&shard, &["u"]))
                .unwrap(),
        );
        for order in ORDERS {
            let expected = run_leaf(&w, &mut plain, order, Some(60), &mut CacheHooks::default());
            let mut hooks = CacheHooks::default();
            hooks
                .roots
                .insert((w.requests[0].0, slot), Arc::clone(&partial));
            let got = run_leaf(&w, &mut sharded, order, Some(60), &mut hooks);
            assert_same(&expected, &got, &format!("pinned shard under {order:?}"));
            // Near-unique, so unpinned it would be one logical query; the
            // pin makes it four, and the pinned shard is not rescanned.
            assert_eq!(got.metrics.queries_executed, 4);
            assert_eq!(got.metrics.shard_rows, 60 - pinned_rows);
            assert_eq!(got.metrics.merge_rows, 60);
        }
    }
}
