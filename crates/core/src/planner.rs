//! The planner: which statistics price a plan (§3.2), when a cached plan
//! is stale, and how execution corrects the statistics.
//!
//! A [`Planner`] owns the cost-model spec, the search configuration, the
//! [`PlanCache`] and the [`StatsCatalog`]: per base relation, statistics
//! of its current contents version beside the group counts execution
//! observed over it. It reads the base relation from the request's
//! [`Snapshot`]: a catalog table, or a selection of one keyed by its
//! source and conjuncts at the source's version, whose statistics are held for
//! at most [`MAX_DERIVED_STATS`] such relations at once. A cached plan is
//! served while the base relation is the same — contents version and
//! indexes — and the engine emulates the same I/O
//! ([`WorkloadFingerprint`]). Under sampled statistics,
//! [`Planner::observe`] closes the observe → correct → re-plan loop
//! ("Online Sketch-based Query Optimization", PAPERS.md).

use crate::cache::{CacheStats, PlanCache, WorkloadFingerprint};
use crate::colset::ColSet;
use crate::error::{CoreError, Result};
use crate::executor::{plan_group_estimates, GroupEstimates, PlanObservation};
use crate::greedy::{GbMqo, SearchConfig, SearchStats};
use crate::plan::{LogicalPlan, SubNode};
use crate::workload::Workload;
use gbmqo_cost::{
    CardinalityCostModel, CostConstants, CostModel, IndexSnapshot, OptimizerCostModel,
};
use gbmqo_exec::{Engine, ExecMetrics};
use gbmqo_stats::catalog::MAX_COLUMN_SETS;
use gbmqo_stats::{
    CardinalitySource, DistinctEstimator, ExactSource, SampleRule, SampledSource, StatsCatalog,
    StatsCreationLog, StatsStore, TableStats,
};
use gbmqo_storage::{Catalog, Snapshot, Table};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// Which cost model a session optimizes under, over which statistics.
/// Plain data: each search assembles a model from it over the planner's
/// statistics catalog, which is what carries column-set statistics (and
/// the reservoir sample) from one search to the next.
///
/// The default is [`CostModelSpec::Optimizer`] over the default
/// [`Stats`], a sample: §3.2.2 prices the groups an edge produces, which
/// the engine pays for and §3.2.1's `|u|` does not see, from statistics
/// built on a sample, as the paper does.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CostModelSpec {
    /// §3.2.1's cardinality model: `cost(u → v) = |u|`.
    Cardinality(Stats),
    /// §3.2.2's simulated query-optimizer model with the default
    /// `CostConstants` but the engine's `io_ns_per_byte`: scan, hash and
    /// per-group output costs, plus physical-design awareness (the
    /// planner snapshots the base table's indexes and reads the engine's
    /// emulated I/O at search time).
    Optimizer(Stats),
}

impl Default for CostModelSpec {
    fn default() -> Self {
        CostModelSpec::Optimizer(Stats::default())
    }
}

/// The statistics a [`CostModelSpec`]'s model reads its cardinalities
/// from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stats {
    /// Exact distinct counts, memoized per table contents version: the
    /// oracle, which scans the whole table once per column set.
    Exact,
    /// Estimates from a reservoir sample, corrected by the group counts
    /// execution observes.
    Sampled {
        /// How many rows to sample from a table of a given size.
        rule: SampleRule,
        /// Distinct-value estimator run over the sample.
        estimator: DistinctEstimator,
        /// Sampling seed (fixed for reproducible plans).
        seed: u64,
    },
}

/// The served statistics: [`SampleRule::DEFAULT`] read by the hybrid
/// estimator, seed 7.
impl Default for Stats {
    fn default() -> Self {
        Stats::Sampled {
            rule: SampleRule::DEFAULT,
            estimator: DistinctEstimator::Hybrid,
            seed: 7,
        }
    }
}

impl Stats {
    /// A cardinality source over `table` under these statistics, with
    /// memos of its own: what one search outside a session reads.
    pub fn source<'t>(&self, table: &'t Table) -> Box<dyn CardinalitySource + 't> {
        match *self {
            Stats::Exact => Box::new(ExactSource::new(table)),
            Stats::Sampled {
                rule,
                estimator,
                seed,
            } => Box::new(SampledSource::new(
                table,
                rule.rows(table.num_rows()),
                estimator,
                seed,
            )),
        }
    }
}

impl CostModelSpec {
    /// The statistics the spec's model reads.
    fn stats(&self) -> &Stats {
        match self {
            CostModelSpec::Cardinality(stats) | CostModelSpec::Optimizer(stats) => stats,
        }
    }

    /// A stable tag for plan-cache fingerprints of the spec pricing
    /// `io_ns_per_byte`: two specs with the same tag produce the same
    /// plans over the same base table.
    pub(crate) fn tag(&self, io_ns_per_byte: f64) -> u64 {
        let mut h = rustc_hash::FxHasher::default();
        self.hash(&mut h);
        io_ns_per_byte.to_bits().hash(&mut h);
        h.finish()
    }
}

/// Relations derived from a table for one request (a selection) whose
/// statistics the planner holds at once: each distinct selection is
/// one, so beyond this many the least recently used one's are dropped.
pub(crate) const MAX_DERIVED_STATS: usize = 16;

/// Under sampled statistics the planner invalidates a cached plan for
/// re-optimization when observed group counts shift its estimated cost
/// by more than this relative fraction, or a planned node's q-error
/// exceeds one plus it.
const REOPT_THRESHOLD: f64 = 0.3;

/// The q-error of an estimate against an observation:
/// `max(est/obs, obs/est)`, with both clamped to ≥ 1 so empty results
/// do not divide by zero. Always ≥ 1; 1 means exact.
pub(crate) fn q_error(estimated: f64, observed: f64) -> f64 {
    let est = estimated.max(1.0);
    let obs = observed.max(1.0);
    (est / obs).max(obs / est)
}

/// A sampled source corrected by execution: `distinct` answers from the
/// group count a plan node observed for the same column set, clamped to
/// `[1, rows]`, before asking the sample. Only sampled statistics are
/// wrapped — exact ones have nothing to correct.
pub(crate) struct Observed<'a, S> {
    pub(crate) sample: S,
    pub(crate) counts: &'a StatsStore,
}

impl<S: CardinalitySource> CardinalitySource for Observed<'_, S> {
    fn base_rows(&self) -> usize {
        self.sample.base_rows()
    }

    fn distinct(&mut self, cols: &[usize]) -> f64 {
        let rows = self.sample.base_rows().max(1) as f64;
        match self.counts.get(cols) {
            Some(groups) => groups.clamp(1.0, rows),
            None => self.sample.distinct(cols),
        }
    }

    fn row_width(&self, cols: &[usize]) -> f64 {
        self.sample.row_width(cols)
    }

    fn full_row_width(&self) -> f64 {
        self.sample.full_row_width()
    }

    fn creation_log(&self) -> Option<&StatsCreationLog> {
        self.sample.creation_log()
    }
}

/// Estimated vs. observed distinct-group count of one executed plan
/// node; see [`crate::Session::last_node_cards`]. Produced for every
/// node the optimizer estimated, under every statistics spec — this is
/// the q-error report `gbmqo profile` prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeCardReport {
    /// Group-by column names of the node.
    pub cols: Vec<String>,
    /// The optimizer's distinct-group estimate going in.
    pub estimated: u64,
    /// The distinct-group count execution actually produced.
    pub observed: u64,
}

impl NodeCardReport {
    /// The node's q-error: `max(est/obs, obs/est)` with both clamped to
    /// at least 1. Perfect estimates score 1.0.
    pub fn q_error(&self) -> f64 {
        q_error(self.estimated as f64, self.observed as f64)
    }
}

/// Total scan cost of `plan` under the §3.2.1 cardinality model with
/// node cardinalities supplied by `d` (keyed by column-set bits): each
/// root reads the `base` relation, each child reads its parent's
/// result.
fn plan_scan_cost(plan: &LogicalPlan, base: f64, d: &mut dyn FnMut(u128) -> f64) -> f64 {
    fn walk(n: &SubNode, source_rows: f64, d: &mut dyn FnMut(u128) -> f64) -> f64 {
        let mut cost = source_rows;
        if !n.children.is_empty() {
            let own = d(n.cols.0);
            for child in &n.children {
                cost += walk(child, own, d);
            }
        }
        cost
    }
    plan.subplans.iter().map(|sp| walk(sp, base, d)).sum()
}

/// A plan, its search statistics, its per-node group estimates and the
/// plan-cache key it is cached under.
pub(crate) type Keyed = (
    LogicalPlan,
    SearchStats,
    GroupEstimates,
    WorkloadFingerprint,
);

/// Plans workloads over a catalog; see the module docs.
#[derive(Debug)]
pub(crate) struct Planner {
    pub(crate) cost_model: CostModelSpec,
    search: SearchConfig,
    plans: PlanCache,
    /// Statistics and observed group counts per base relation, built by
    /// searches and executions, dropped when the table leaves the catalog
    /// or the derived relation falls out of `derived`.
    pub(crate) stats: StatsCatalog,
    /// The derived relations whose statistics are held, least recently
    /// used first; at most [`MAX_DERIVED_STATS`].
    derived: VecDeque<String>,
    /// Estimated-vs-observed group counts of the last observed execution.
    last_node_cards: Vec<NodeCardReport>,
}

impl Planner {
    /// A planner under `cost_model` and `search`, caching up to
    /// `plan_cache` plans. A sample rule that samples nothing is
    /// rejected.
    pub(crate) fn new(
        cost_model: CostModelSpec,
        search: SearchConfig,
        plan_cache: usize,
    ) -> Result<Self> {
        if let Stats::Sampled { rule, .. } = cost_model.stats() {
            rule.validate()
                .map_err(|e| CoreError::InvalidSession(format!("sampled cost model: {e}")))?;
        }
        Ok(Planner {
            cost_model,
            search,
            plans: PlanCache::new(plan_cache),
            stats: StatsCatalog::new(),
            derived: VecDeque::new(),
            last_node_cards: Vec::new(),
        })
    }

    /// Optimize `workload` over its base relation `base`, pricing the
    /// I/O `engine` emulates, or fetch the cached plan, with the
    /// optimizer's group estimate per node (cached alongside, so a hit
    /// costs no model call) and the key [`Planner::observe`] invalidates
    /// when observed counts drift.
    pub(crate) fn plan(
        &mut self,
        engine: &Engine,
        workload: &Workload,
        base: &Snapshot,
    ) -> Result<Keyed> {
        let (catalog, io_ns_per_byte) = (engine.catalog(), engine.io_ns_per_byte());
        // Observed group counts are deliberately NOT hashed into the key —
        // that would turn every repeat of a workload into a miss and
        // defeat the cache; instead the post-execution recost invalidates
        // entries whose corrected cost drifts (see `Planner::observe`).
        let tag = self.cost_model.tag(io_ns_per_byte);
        let key = WorkloadFingerprint::compute(workload, &self.search, tag, base);
        if let Some((plan, stats, estimates)) = self.plans.get(key) {
            return Ok((plan, stats, estimates, key));
        }
        let table = base.table.as_ref();
        // Statistics outlive the search: whatever an earlier search over
        // these contents counted or estimated is reused, and only column
        // sets never seen at this version are built (and charged to this
        // search's `stats_created`).
        self.hold(catalog, base);
        let (table_stats, counts) = current(&mut self.stats, catalog, &base.name, base.version);
        let (created_before, create_time_before) = table_stats.created();
        let (plan, mut stats, estimates) = {
            let source: Box<dyn CardinalitySource + '_> = match *self.cost_model.stats() {
                Stats::Exact => Box::new(ExactSource::with_store(table, table_stats.exact())),
                Stats::Sampled {
                    rule,
                    estimator,
                    seed,
                } => Box::new(Observed {
                    sample: SampledSource::with_sample(
                        table,
                        table_stats.sample(table.num_rows(), rule.rows(table.num_rows()), seed),
                        estimator,
                    ),
                    counts,
                }),
            };
            let mut model: Box<dyn CostModel + '_> = match self.cost_model {
                CostModelSpec::Optimizer(_) => {
                    let indexes = IndexSnapshot::capture(base);
                    let constants = CostConstants {
                        io_ns_per_byte,
                        ..Default::default()
                    };
                    Box::new(OptimizerCostModel::new(source, indexes).with_constants(constants))
                }
                CostModelSpec::Cardinality(_) => Box::new(CardinalityCostModel::new(source)),
            };
            let gbmqo = GbMqo::with_config(self.search.clone());
            let (plan, stats) = gbmqo.plan(workload, model.as_mut())?;
            let estimates = plan_group_estimates(&plan, workload, model.as_mut());
            (plan, stats, estimates)
        };
        let (created, create_time) = table_stats.created();
        stats.stats_created = created.saturating_sub(created_before) as u64;
        stats.stats_create_us = create_time.saturating_sub(create_time_before).as_micros() as u64;
        self.plans
            .insert(key, plan.clone(), stats, estimates.clone());
        Ok((plan, stats, estimates, key))
    }

    /// Observe stage — observe → correct → re-optimize: turn an
    /// execution's raw per-node observations of `plan` into (a) the
    /// always-on estimated-vs-observed q-error report and, under sampled
    /// statistics only, (b) observed group counts that correct the
    /// sample in later searches and (c) an invalidation of the plan
    /// cached under `planned` when the corrected cost of the planned
    /// subtree drifts past the re-optimization threshold or a planned
    /// node's q-error exceeds `1 + threshold`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn observe(
        &mut self,
        catalog: &Catalog,
        base: &Snapshot,
        workload: &Workload,
        planned: Option<WorkloadFingerprint>,
        plan: &LogicalPlan,
        estimates: &GroupEstimates,
        observations: &[PlanObservation],
        metrics: &mut ExecMetrics,
    ) -> Result<()> {
        self.last_node_cards.clear();
        let mut max_qe = 1.0f64;
        for obs in observations {
            // Nodes the optimizer never estimated (cache-served virtual
            // roots) have no q-error to report.
            let Some(&est) = estimates.get(&obs.cols.0) else {
                continue;
            };
            let qe = q_error(est as f64, obs.output_groups as f64);
            max_qe = max_qe.max(qe);
            let x100 = (qe * 100.0).round() as u64;
            metrics.qerror_nodes += 1;
            metrics.qerror_sum_x100 += x100;
            metrics.qerror_max_x100 = metrics.qerror_max_x100.max(x100);
            self.last_node_cards.push(NodeCardReport {
                cols: workload.col_strings(obs.cols),
                estimated: est,
                observed: obs.output_groups,
            });
        }

        if !matches!(self.cost_model.stats(), Stats::Sampled { .. }) {
            return Ok(());
        }
        self.hold(catalog, base);
        let (_, counts) = current(&mut self.stats, catalog, &base.name, base.version);
        // A node that read at least one row produced at least one group:
        // an empty result means nothing ran.
        for obs in observations.iter().filter(|o| o.output_groups > 0) {
            counts.put(&workload.base_cols(obs.cols), obs.output_groups as f64);
        }
        metrics.feedback_observations += observations.len() as u64;

        // Re-cost the planned subtree under corrected cardinalities:
        // root edges scan the base relation, child edges scan their
        // parent's result (the §3.2.1 cardinality model). Column sets
        // without feedback keep their original estimates, so the shift
        // isolates what was actually learned. Cache-served leaf roots
        // price identically on both sides and cancel out of the ratio's
        // numerator.
        let Some(key) = planned else {
            return Ok(());
        };
        let rows = base.rows() as f64;
        let old = plan_scan_cost(plan, rows, &mut |bits| {
            estimates.get(&bits).map_or(rows, |&e| e as f64)
        });
        let corrected = plan_scan_cost(plan, rows, &mut |bits| {
            counts
                .get(&workload.base_cols(ColSet(bits)))
                .unwrap_or_else(|| estimates.get(&bits).map_or(rows, |&e| e as f64))
        });
        // Two re-plan triggers. Scan-cost drift catches estimates whose
        // error changes what the plan *costs*; the q-error gate catches
        // nodes that are badly estimated but cheap in absolute scan
        // terms — without it the loop can settle on a suboptimal plan
        // whose mispriced nodes are too small to move the total. Every
        // executed node's count is recorded, so each re-plan
        // runs with strictly more observed column sets and the loop
        // terminates once the search picks a fully-observed plan
        // (q-error 1.0).
        let drifted = (corrected - old).abs() > REOPT_THRESHOLD * old.max(1.0);
        let misestimated = max_qe > 1.0 + REOPT_THRESHOLD;
        if (drifted || misestimated) && self.plans.invalidate(key) {
            metrics.plan_reopts += 1;
        }
        Ok(())
    }

    /// Make room for the statistics of `base`: drop those of tables
    /// that left the catalog and, when `base` is derived, mark it most
    /// recently used and drop the derived relations beyond
    /// [`MAX_DERIVED_STATS`].
    fn hold(&mut self, catalog: &Catalog, base: &Snapshot) {
        if base.is_derived() {
            self.derived.retain(|name| *name != base.name);
            self.derived.push_back(base.name.clone());
            if self.derived.len() > MAX_DERIVED_STATS {
                self.derived.pop_front();
            }
        }
        let derived = &self.derived;
        self.stats
            .retain(|name| catalog.contains(name) || derived.iter().any(|d| d == name));
    }

    /// Plan-cache counters.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.plans.stats()
    }

    /// Per-node estimated vs. observed group counts of the last observed
    /// execution.
    pub(crate) fn last_node_cards(&self) -> &[NodeCardReport] {
        &self.last_node_cards
    }

    /// Observed group counts held, over every table.
    pub(crate) fn feedback_len(&self) -> usize {
        self.stats.observed_len()
    }
}

/// The statistics of table `name` at its contents version `version`,
/// and the group counts observed over it brought to that version. Counts
/// observed before appends are scaled by the rows the table grew by
/// since, capped at its rows: a near-unique column set's count grows
/// with the table, and a low-cardinality one's, overstated, is corrected
/// the next time a plan executes it. Counts of contents the append log
/// does not link to the current ones — before a replacement or a
/// reshard — are dropped.
pub(crate) fn current<'s>(
    stats: &'s mut StatsCatalog,
    catalog: &Catalog,
    name: &str,
    version: u64,
) -> (&'s mut TableStats, &'s mut StatsStore) {
    let (table_stats, (at, counts)) = stats.table(name, version);
    if *at != version {
        match catalog.delta_chain(name, None, *at) {
            Some(chain) if chain.to_version == version => {
                let rows = (chain.start_row + chain.rows) as f64;
                counts.scale(rows / chain.start_row.max(1) as f64, rows);
            }
            _ => *counts = StatsStore::with_capacity(MAX_COLUMN_SETS),
        }
        *at = version;
    }
    (table_stats, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutionReport;
    use crate::serialize::plan_to_text;
    use crate::session::Session;
    use gbmqo_matcache::CacheControl;
    use gbmqo_storage::{Column, DataType, Field, Schema, Value};
    use proptest::prelude::*;

    /// Column `i` is `c{i}` and holds `(row * (i + 1)) % cards[i]`.
    fn modular_table(rows: usize, cards: &[usize]) -> Table {
        let fields = (0..cards.len())
            .map(|i| Field::new(format!("c{i}"), DataType::Int64))
            .collect();
        let columns = cards
            .iter()
            .enumerate()
            .map(|(i, &card)| {
                Column::from_i64((0..rows).map(|r| ((r * (i + 1)) % card) as i64).collect())
            })
            .collect();
        Table::new(Schema::new(fields).unwrap(), columns).unwrap()
    }

    fn workload_of(table: &Table, requests: &[Vec<usize>]) -> Workload {
        let names: Vec<String> = (0..table.num_columns()).map(|i| format!("c{i}")).collect();
        let reqs: Vec<Vec<&str>> = requests
            .iter()
            .map(|r| r.iter().map(|&c| names[c].as_str()).collect())
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        Workload::new("t", table, &refs, &reqs).unwrap()
    }

    /// 2–5 columns with assorted cardinalities plus a random request
    /// list mixing single- and multi-column sets.
    fn workload_strategy() -> impl Strategy<Value = (Vec<usize>, Vec<Vec<usize>>)> {
        prop::collection::vec(prop::sample::select(vec![2usize, 3, 5, 11, 60, 300]), 2..=5)
            .prop_flat_map(|cards| {
                let n = cards.len();
                let requests =
                    prop::collection::vec(prop::collection::vec(0..n, 1..=n.min(3)), 1..=(n + 2));
                (Just(cards), requests)
            })
    }

    /// Every [`CostModelSpec`]: each model over each kind of statistics.
    fn cost_model_specs() -> Vec<CostModelSpec> {
        let sampled = Stats::Sampled {
            rule: SampleRule::fixed(200),
            estimator: DistinctEstimator::Hybrid,
            seed: 5,
        };
        vec![
            CostModelSpec::Cardinality(Stats::Exact),
            CostModelSpec::Cardinality(sampled.clone()),
            CostModelSpec::Optimizer(Stats::Exact),
            CostModelSpec::Optimizer(sampled),
        ]
    }

    /// What a planner chose before it kept statistics: a pruned search
    /// over a cardinality source built for this one search.
    fn plan_from_scratch(table: &Table, w: &Workload, spec: &CostModelSpec) -> LogicalPlan {
        let gbmqo = GbMqo::with_config(SearchConfig::pruned());
        let (plan, _) = match spec {
            CostModelSpec::Cardinality(stats) => {
                gbmqo.plan(w, &mut CardinalityCostModel::new(stats.source(table)))
            }
            CostModelSpec::Optimizer(stats) => gbmqo.plan(
                w,
                &mut OptimizerCostModel::new(stats.source(table), IndexSnapshot::none()),
            ),
        }
        .unwrap();
        plan
    }

    /// Two reports agree on every requested set, up to row and column
    /// order.
    fn assert_same_results(w: &Workload, a: &ExecutionReport, b: &ExecutionReport, ctx: &str) {
        let sets = |report: &ExecutionReport| {
            let mut sets: Vec<(u128, Vec<Vec<Value>>)> = report
                .results
                .iter()
                .map(|(set, t)| {
                    let schema = t.schema();
                    let keys = w.col_names(*set).into_iter();
                    let cols: Vec<usize> = keys
                        .map(|n| schema.index_of(n).unwrap())
                        .chain([t.num_columns() - 1])
                        .collect();
                    let mut rows: Vec<Vec<Value>> = (0..t.num_rows())
                        .map(|r| cols.iter().map(|&c| t.value(r, c)).collect())
                        .collect();
                    rows.sort();
                    (set.0, rows)
                })
                .collect();
            sets.sort();
            sets
        };
        assert_eq!(sets(a), sets(b), "{ctx}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The planner's statistics catalog changes when statistics are
        /// built, never what they say: a long-lived session plans and
        /// answers exactly like one whose planner drops its statistics
        /// before every search — and exactly like a search over a source
        /// built from scratch whenever no observed group count corrects
        /// the statistics (under exact statistics always, under sampled
        /// ones before the first execution) — for every cost-model spec,
        /// sharded or not, across an append.
        #[test]
        fn shared_statistics_plan_like_fresh_ones(
            (cards, raw_requests) in workload_strategy(),
            spec in 0usize..4,
            sharded in any::<bool>(),
        ) {
            let mut requests: Vec<Vec<usize>> = raw_requests
                .into_iter()
                .map(|mut r| { r.sort_unstable(); r.dedup(); r })
                .collect();
            requests.sort();
            requests.dedup();
            let table = modular_table(600, &cards);
            let spec = cost_model_specs().swap_remove(spec);
            // No plan cache: both sessions search anew on every request.
            let build = || {
                Session::builder()
                    .table("t", table.clone())
                    .search(SearchConfig::pruned())
                    .cost_model(spec.clone())
                    .shards(if sharded { 2 } else { 0 })
                    .plan_cache(0)
                    .build()
                    .unwrap()
            };
            let (mut shared, mut fresh) = (build(), build());

            // Two overlapping workloads, before and after an append that
            // changes every cardinality the statistics describe.
            let all = workload_of(&table, &requests);
            let head = workload_of(&table, &requests[..requests.len().div_ceil(2)]);
            let mut contents = table.clone();
            for step in 0..6 {
                if step == 3 {
                    let delta = modular_table(150, &cards.iter().map(|c| c + 3).collect::<Vec<_>>());
                    shared.append("t", delta.clone()).unwrap();
                    fresh.append("t", delta.clone()).unwrap();
                    contents = Table::concat(&[&contents, &delta]).unwrap();
                }
                let w = if step % 2 == 0 { &all } else { &head };
                // Only `fresh` forgets its statistics (observed group
                // counts survive on both sides).
                fresh.planner.stats.clear();

                let (plan_shared, stats_shared) = shared.plan(w).unwrap();
                let (plan_fresh, stats_fresh) = fresh.plan(w).unwrap();
                prop_assert_eq!(plan_to_text(&plan_shared), plan_to_text(&plan_fresh), "step {}", step);
                prop_assert_eq!(stats_shared.optimizer_calls, stats_fresh.optimizer_calls);
                prop_assert_eq!(stats_shared.final_cost, stats_fresh.final_cost);
                let exact = matches!(
                    spec,
                    CostModelSpec::Cardinality(Stats::Exact) | CostModelSpec::Optimizer(Stats::Exact)
                );
                if exact || step == 0 {
                    let scratch = plan_from_scratch(&contents, w, &spec);
                    prop_assert_eq!(plan_to_text(&plan_shared), plan_to_text(&scratch), "step {}", step);
                }

                let out_shared = shared.run_workload(w, CacheControl::Default).unwrap();
                let out_fresh = fresh.run_workload(w, CacheControl::Default).unwrap();
                assert_same_results(w, &out_shared.report, &out_fresh.report, "shared vs fresh");
                let naive = fresh.run_plan(&LogicalPlan::naive(w), w).unwrap();
                assert_same_results(w, &out_shared.report, &naive, "shared vs naive");
            }
        }
    }
}
