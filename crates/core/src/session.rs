//! The serving-oriented entry point: a [`Session`] owns an engine, a
//! search configuration, a cost-model specification, and a
//! [`PlanCache`], and answers GROUPING SETS requests through one method.
//! It wires the optimizer, cost model, engine and executor together once,
//! and skips the merge search for a workload it has planned before:
//!
//! ```
//! use gbmqo_core::prelude::*;
//! use gbmqo_storage::{Column, DataType, Field, Schema, Table};
//!
//! let schema = Schema::new(vec![
//!     Field::new("a", DataType::Int64),
//!     Field::new("b", DataType::Int64),
//! ]).unwrap();
//! let table = Table::new(schema, vec![
//!     Column::from_i64((0..100).map(|i| i % 4).collect()),
//!     Column::from_i64((0..100).map(|i| i % 10).collect()),
//! ]).unwrap();
//!
//! let mut session = Session::builder()
//!     .table("r", table.clone())
//!     .search(SearchConfig::pruned())
//!     .mode(ExecutionMode::Parallel)
//!     .plan_cache(16)
//!     .build()
//!     .unwrap();
//!
//! let workload = Workload::single_columns("r", &table, &["a", "b"]).unwrap();
//! let first = session.grouping_sets(&workload).unwrap();
//! assert!(!first.stats.cache_hit);
//! let again = session.grouping_sets(&workload).unwrap();
//! assert!(again.stats.cache_hit, "second request reuses the cached plan");
//! ```

use crate::api::{assemble_union, ExecutionMode, GroupingSetsResult};
use crate::cache::{CacheStats, PlanCache, WorkloadFingerprint};
use crate::colset::ColSet;
use crate::error::{CoreError, Result};
use crate::executor::{
    execute_plan, plan_group_estimates, shard_skew, CacheHooks, ExecutionReport, GroupEstimates,
    Harvest, PlanObservation, RootSources, WHOLE_TABLE_PIN,
};
use crate::greedy::{GbMqo, SearchConfig, SearchStats};
use crate::physicalize::{physicalize, Layout, Run};
use crate::plan::{LogicalPlan, SubNode};
use crate::workload::Workload;
use gbmqo_cost::{CardinalityCostModel, CostModel, IndexSnapshot, OptimizerCostModel};
use gbmqo_exec::{AggFunc, AggSpec, Engine, ExecError, ExecMetrics, GroupByQuery, Input, QueryCtx};
use gbmqo_matcache::{
    agg_signature, CacheControl, CachedAggregate, MatCache, MatCacheStats, StaleAggregate,
};
use gbmqo_stats::catalog::MAX_COLUMN_SETS;
use gbmqo_stats::{
    CardinalitySource, DistinctEstimator, ExactSource, SampleRule, SampledSource, StatsCatalog,
    StatsCreationLog, StatsStore,
};
use gbmqo_storage::{shard_table_name, Catalog, Table};
use rustc_hash::FxHashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Which cost model a [`Session`] optimizes under, over which
/// statistics. Plain data: each search assembles a model from it over the
/// session's statistics catalog, which is what carries column-set
/// statistics (and the reservoir sample) from one search to the next.
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
    /// `CostConstants`: scan, hash and per-group output costs, plus
    /// physical-design awareness (the session snapshots the base table's
    /// indexes at search time).
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
    /// memos of its own: what one search outside a [`Session`] reads.
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

    /// A stable tag for plan-cache fingerprints: two specs with the same
    /// tag produce the same plans (given the same statistics version).
    fn tag(&self) -> u64 {
        let mut h = rustc_hash::FxHasher::default();
        self.hash(&mut h);
        h.finish()
    }
}

/// When stale materialized aggregates are brought current after an
/// append (see [`Session::append`]). Refreshing aggregates only the
/// appended row range (the delta) and merges it into the cached result
/// under the paper's §7 aggregate-union identity, instead of discarding
/// the cache and rescanning the whole base table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshPolicy {
    /// Refresh a stale covering entry when a lookup first wants it (the
    /// default): appends stay cheap, the first post-append request pays
    /// the (delta-sized) merge.
    #[default]
    Lazy,
    /// Refresh every stale entry synchronously inside
    /// [`Session::append`]: appends pay the merges, requests always see
    /// a warm cache.
    Eager,
    /// Never refresh: a stale entry is dropped the first time a lookup
    /// misses over it — the old invalidate-everything behaviour.
    Disabled,
}

/// What an [`Session::append`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Rows appended.
    pub rows: usize,
    /// The logical table's new contents version.
    pub version: u64,
    /// True when the append left shard sizes skewed enough (largest
    /// shard at least [`RESHARD_SKEW_THRESHOLD`]% of fair share) that
    /// [`Session::reshard`] is advisable. Appends route rows with the
    /// shard key chosen at registration time; a delta with shifted
    /// cardinalities can concentrate on few shards, and nothing
    /// re-evaluates the key automatically.
    pub reshard_hint: bool,
}

/// Shard skew (largest shard as a percentage of the mean; 100 =
/// perfectly balanced) at or above which [`Session::append`] raises
/// [`AppendOutcome::reshard_hint`] and counts an
/// [`ExecMetrics::reshard_hints`].
pub const RESHARD_SKEW_THRESHOLD: u64 = 200;

/// Default [`SessionBuilder::max_delta_fraction`]: refresh is abandoned
/// (stale entries dropped) when the unmerged delta exceeds this
/// fraction of the base table.
pub const DEFAULT_MAX_DELTA_FRACTION: f64 = 0.5;

/// Under sampled statistics the session invalidates a cached plan for
/// re-optimization when observed group counts shift its estimated cost
/// by more than this relative fraction, or a planned node's q-error
/// exceeds one plus it.
const REOPT_THRESHOLD: f64 = 0.3;

/// The q-error of an estimate against an observation:
/// `max(est/obs, obs/est)`, with both clamped to ≥ 1 so empty results
/// do not divide by zero. Always ≥ 1; 1 means exact.
fn q_error(estimated: f64, observed: f64) -> f64 {
    let est = estimated.max(1.0);
    let obs = observed.max(1.0);
    (est / obs).max(obs / est)
}

/// A sampled source corrected by execution: `distinct` answers from the
/// group count a plan node observed for the same column set, clamped to
/// `[1, rows]`, before asking the sample. Only sampled statistics are
/// wrapped — exact ones have nothing to correct.
struct Observed<'a, S> {
    sample: S,
    counts: Option<&'a StatsStore>,
}

impl<S: CardinalitySource> CardinalitySource for Observed<'_, S> {
    fn base_rows(&self) -> usize {
        self.sample.base_rows()
    }

    fn distinct(&mut self, cols: &[usize]) -> f64 {
        let rows = self.sample.base_rows().max(1) as f64;
        match self.counts.and_then(|c| c.get(cols)) {
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
/// node; see [`Session::last_node_cards`]. Produced for every node the
/// optimizer estimated, under every statistics spec — this is the
/// q-error report `gbmqo profile` prints.
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

/// Whether every aggregate merges losslessly under append-only ingest
/// (§7.2's merge rules): COUNT, SUM, MIN and MAX all do. The exhaustive
/// match forces a decision here if a non-mergeable function (AVG,
/// DISTINCT, …) ever lands.
fn specs_mergeable(specs: &[AggSpec]) -> bool {
    specs.iter().all(|s| {
        matches!(
            s.func,
            AggFunc::Count | AggFunc::Sum | AggFunc::Min | AggFunc::Max
        )
    })
}

/// Run the merge search and per-node estimation with `model`.
fn search_and_estimate(
    gbmqo: &GbMqo,
    workload: &Workload,
    model: &mut dyn CostModel,
) -> Result<(LogicalPlan, SearchStats, GroupEstimates)> {
    let (plan, stats) = gbmqo.plan(workload, model)?;
    let est = plan_group_estimates(&plan, workload, model);
    Ok((plan, stats, est))
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

/// A catalog entry as the aggregate cache keys its aggregates — name,
/// contents version, rows: the logical table or one of its shard entries.
type CacheEntry = (String, u64, usize);

/// A request a cached aggregate covers: `(request, slot, hit)`, the slot
/// a shard ordinal or [`WHOLE_TABLE_PIN`].
type Cover = (ColSet, u32, CachedAggregate);

/// The plan of a workload's uncovered requests, its search statistics,
/// its per-node estimates and its plan-cache key (`None`: no search ran).
type Planned = (
    LogicalPlan,
    SearchStats,
    GroupEstimates,
    Option<WorkloadFingerprint>,
);

/// One [`Session::run_workload_in`] request as its stages read it: the
/// base table's aggregate-cache entries — the logical one and, per
/// shard, one keyed by that shard's own version, so an append to one
/// shard leaves the others warm — and the aggregates' cache signature.
struct Request<'w> {
    workload: &'w Workload,
    cache: CacheControl,
    logical: CacheEntry,
    shards: Vec<CacheEntry>,
    agg_sig: u64,
}

/// Builder for [`Session`]; see the module docs for a walkthrough.
#[derive(Debug, Default)]
pub struct SessionBuilder {
    tables: Vec<(String, Table)>,
    engine: Option<Engine>,
    cost_model: CostModelSpec,
    search: SearchConfig,
    mode: ExecutionMode,
    parallelism: usize,
    plan_cache: usize,
    io_ns_per_byte: f64,
    mat_cache_budget_bytes: usize,
    shards: u32,
    refresh_policy: RefreshPolicy,
    max_delta_fraction: Option<f64>,
}

impl SessionBuilder {
    /// Register a base table (may be called repeatedly).
    pub fn table(mut self, name: impl Into<String>, table: Table) -> Self {
        self.tables.push((name.into(), table));
        self
    }

    /// Use a pre-built engine (e.g. one with indexes or I/O emulation
    /// already configured) instead of building one from `table` calls.
    /// Tables added via [`SessionBuilder::table`] are registered on top.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Cost model to optimize under (default: [`CostModelSpec::default`],
    /// the optimizer model over a sample).
    pub fn cost_model(mut self, spec: CostModelSpec) -> Self {
        self.cost_model = spec;
        self
    }

    /// Search configuration (default: [`SearchConfig::default`]; the
    /// paper's experiments use [`SearchConfig::pruned`]).
    pub fn search(mut self, config: SearchConfig) -> Self {
        self.search = config;
        self
    }

    /// Execution mode (default: [`ExecutionMode::ClientSide`]).
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Thread budget of an execution, in every mode: the queries of a
    /// wave run on up to this many workers, and a wave narrower than
    /// that (every wave of the one-query-at-a-time modes) hands the
    /// spare threads to its queries' kernels. `0` (the default) means
    /// one per available CPU under [`ExecutionMode::Parallel`] and a
    /// single thread under the other modes.
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads;
        self
    }

    /// Plans to keep in the LRU plan cache (default 16; `0` disables
    /// caching).
    pub fn plan_cache(mut self, capacity: usize) -> Self {
        self.plan_cache = capacity;
        self
    }

    /// Enable the engine's disk row-store emulation
    /// (see [`Engine::set_io_ns_per_byte`]).
    pub fn io_ns_per_byte(mut self, ns_per_byte: f64) -> Self {
        self.io_ns_per_byte = ns_per_byte;
        self
    }

    /// Byte budget of the cross-request materialized aggregate cache
    /// (default `0` = disabled). With a budget, the session retains
    /// aggregates computed while answering workloads and plans later
    /// workloads from them: a request covered by a cached superset is
    /// answered by re-aggregating the cached table instead of scanning
    /// the base relation. See `gbmqo-matcache` for keying, versioning
    /// and eviction.
    pub fn mat_cache_budget_bytes(mut self, bytes: usize) -> Self {
        self.mat_cache_budget_bytes = bytes;
        self
    }

    /// Radix-partition every base table registered through this session
    /// into `shards` hash-disjoint shards (power of two; `0`/`1` keeps
    /// tables unsharded, the default). Plans over sharded tables
    /// execute shard-parallel with per-shard intermediates and a final
    /// re-aggregation merge; the shard key defaults to each table's
    /// highest-cardinality column. Applies to builder-registered tables
    /// and to [`Session::register_table`] uploads alike.
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// When stale cached aggregates are delta-refreshed after appends
    /// (default [`RefreshPolicy::Lazy`]). Only meaningful with a
    /// materialized aggregate cache budget.
    pub fn refresh_policy(mut self, policy: RefreshPolicy) -> Self {
        self.refresh_policy = policy;
        self
    }

    /// Largest delta (as a fraction of the base table's rows) a refresh
    /// will merge; beyond it stale entries are dropped and recomputed
    /// cold (default [`DEFAULT_MAX_DELTA_FRACTION`]). At that size the
    /// delta scan approaches a full rescan and merging on top of it
    /// stops paying.
    pub fn max_delta_fraction(mut self, fraction: f64) -> Self {
        self.max_delta_fraction = Some(fraction);
        self
    }

    /// Build the session.
    pub fn build(self) -> Result<Session> {
        let mut engine = self.engine.unwrap_or_else(|| Engine::new(Catalog::new()));
        for (name, table) in self.tables {
            engine
                .catalog_mut()
                .register_sharded(name, table, self.shards, None)?;
        }
        if self.io_ns_per_byte > 0.0 {
            engine.set_io_ns_per_byte(self.io_ns_per_byte);
        }
        let run = Run::new(&mut engine, self.mode, self.parallelism);
        if let Stats::Sampled { rule, .. } = self.cost_model.stats() {
            rule.validate()
                .map_err(|e| CoreError::InvalidSession(format!("sampled cost model: {e}")))?;
        }
        let max_delta_fraction = self
            .max_delta_fraction
            .unwrap_or(DEFAULT_MAX_DELTA_FRACTION);
        if !(0.0..=1.0).contains(&max_delta_fraction) {
            return Err(CoreError::InvalidSession(format!(
                "max_delta_fraction must be within [0, 1], got {max_delta_fraction}"
            )));
        }
        Ok(Session {
            engine,
            cost_model: self.cost_model,
            search: self.search,
            run,
            parallelism: self.parallelism,
            cache: PlanCache::new(self.plan_cache),
            mat_cache: MatCache::new(self.mat_cache_budget_bytes),
            stats_version: 0,
            stats: StatsCatalog::new(),
            shards: self.shards,
            refresh_policy: self.refresh_policy,
            max_delta_fraction,
            pending: ExecMetrics::default(),
            observed: FxHashMap::default(),
            last_node_cards: Vec::new(),
        })
    }
}

/// The planned-and-executed outcome of [`Session::run_workload`].
#[derive(Debug)]
pub struct WorkloadOutcome {
    /// The executed plan, including any cache-served virtual roots.
    pub plan: LogicalPlan,
    /// Search statistics of the uncovered remainder (default when every
    /// request was served from the cache — no search ran at all).
    pub stats: SearchStats,
    /// Per-set results and execution metrics.
    pub report: ExecutionReport,
}

/// A long-lived GB-MQO serving session: one entry point
/// ([`Session::grouping_sets`]) over an owned engine, with plan caching
/// and a choice of serial, shared-scan, or dependency-parallel
/// execution.
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    cost_model: CostModelSpec,
    search: SearchConfig,
    /// The execution mode and the one thread budget it implies.
    run: Run,
    /// The builder's thread budget (`0` = the mode's default).
    parallelism: usize,
    cache: PlanCache,
    /// Cross-request materialized aggregate cache (disabled at budget 0).
    mat_cache: MatCache,
    /// Bumped whenever registered tables change; part of the plan-cache
    /// fingerprint so stale plans are not reused.
    stats_version: u64,
    /// Column-set statistics per base table, each tied to the contents
    /// version it was computed at and discarded when a lookup finds the
    /// catalog at another — built lazily by searches, never by
    /// registration or append.
    stats: StatsCatalog,
    /// Default shard count applied to tables registered through the
    /// session (`0`/`1` = unsharded).
    shards: u32,
    /// When stale cached aggregates are delta-refreshed.
    refresh_policy: RefreshPolicy,
    /// Largest refreshable delta, as a fraction of base-table rows.
    max_delta_fraction: f64,
    /// Ingest-side counters (eager refreshes, reshard hints) accrued
    /// outside any request; drained into the next workload's metrics.
    pending: ExecMetrics,
    /// Group counts execution observed, per base table and column set,
    /// the newest winning, and the table contents version they describe.
    /// Recorded and read only under sampled statistics, which they
    /// correct, and never at another version: see
    /// [`Session::current_observations`].
    observed: FxHashMap<String, (u64, StatsStore)>,
    /// Estimated-vs-observed group counts of the last executed workload
    /// (see [`Session::last_node_cards`]).
    last_node_cards: Vec<NodeCardReport>,
}

// A session is plain owned data (tables are `Arc`-shared, and a shared one
// is never written: the catalog's append copies on write), so it can move
// between threads — the server wraps one in a mutex and
// serves it from a worker pool. Compile-time audit; `Sync` is *not*
// claimed: all the interesting methods take `&mut self` anyway.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session>();
    assert_send::<SessionBuilder>();
};

impl Session {
    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder {
            plan_cache: 16,
            ..Default::default()
        }
    }

    /// Optimize and execute `workload` as one GROUPING SETS query,
    /// returning the tagged UNION ALL plus plan, search stats, and
    /// execution metrics. Repeated workloads skip the search via the
    /// plan cache ([`SearchStats::cache_hit`]); with a materialized
    /// aggregate cache enabled, requests covered by cached supersets
    /// skip the base-table scan too.
    pub fn grouping_sets(&mut self, workload: &Workload) -> Result<GroupingSetsResult> {
        let out = self.run_workload(workload, CacheControl::Default)?;
        assemble_union(
            workload,
            out.plan,
            out.stats,
            out.report.results,
            out.report.metrics,
        )
    }

    /// [`Session::run_workload_in`] with no deadline.
    pub fn run_workload(
        &mut self,
        workload: &Workload,
        cache: CacheControl,
    ) -> Result<WorkloadOutcome> {
        self.run_workload_in(workload, cache, &mut QueryCtx::default())
    }

    /// Optimize (consulting the materialized aggregate cache) and
    /// execute `workload` for the request `ctx` describes, returning the
    /// per-set result tables plus the executed plan and search stats.
    /// This is the server's entry point; [`Session::grouping_sets`] adds
    /// the UNION ALL on top. Six stages run — cover, plan, execute,
    /// observe, admit, account — and `ctx` is polled before each: a
    /// request whose token trips fails at the next stage boundary, and
    /// one tripped before it starts leaves the caches untouched. Work is
    /// charged to `ctx.metrics`, which the report's metrics copy.
    pub fn run_workload_in(
        &mut self,
        workload: &Workload,
        cache: CacheControl,
        ctx: &mut QueryCtx,
    ) -> Result<WorkloadOutcome> {
        ctx.check_cancelled()?;
        let req = self.request(workload, cache)?;
        let before = self.mat_cache.stats();
        let covers = self.cover(&req, ctx)?;
        ctx.check_cancelled()?;
        let (mut plan, stats, estimates, planned_key) = self.plan_uncovered(&req, &covers)?;
        ctx.check_cancelled()?;
        let (mut report, mut hooks) =
            self.execute_covered(&req, &mut plan, &estimates, &covers, ctx)?;
        ctx.check_cancelled()?;
        let observations = hooks.observations.as_deref().unwrap_or_default();
        self.observe(&req, planned_key, &plan, &estimates, observations, ctx);
        ctx.check_cancelled()?;
        self.admit(&req, &covers, hooks.harvest.take(), &report.results);
        ctx.check_cancelled()?;
        self.account(before, ctx);
        report.metrics = ctx.metrics;
        Ok(WorkloadOutcome {
            plan,
            stats,
            report,
        })
    }

    /// `workload` under `cache` as the stages read it.
    fn request<'w>(&self, workload: &'w Workload, cache: CacheControl) -> Result<Request<'w>> {
        let (logical, shards) = self.cache_entries(&workload.table)?;
        Ok(Request {
            workload,
            cache,
            logical,
            shards,
            agg_sig: agg_signature(&workload.aggregates),
        })
    }

    /// Cover stage: consult the cache — which requests does a cached
    /// (same table contents, same aggregates) superset aggregate cover —
    /// first at the logical level, then, for a request still uncovered,
    /// shard by shard: every warm shard serves its cached partial, cold
    /// shards scan their shard entry and the plan merges partials at
    /// delivery. Under the lazy refresh policy a miss over a *stale*
    /// covering entry first tries to bring it current by aggregating
    /// only the appended row range and merging (§7's aggregate-union
    /// identity); only when that is impossible or uneconomic do stale
    /// entries get dropped — never because the request was cancelled,
    /// which propagates instead. Returns `(request, slot, hit)`,
    /// logical hits first.
    fn cover(&mut self, req: &Request, ctx: &mut QueryCtx) -> Result<Vec<Cover>> {
        let mut covers: Vec<Cover> = Vec::new();
        if !(self.mat_cache.enabled() && req.cache.allows_lookup()) {
            return Ok(covers);
        }
        let workload = req.workload;
        let names: Vec<Vec<String>> = workload
            .requests
            .iter()
            .map(|&r| workload.col_strings(r))
            .collect();
        for (&r, names) in workload.requests.iter().zip(&names) {
            if let Some(hit) = self.covering(&req.logical, names, req.agg_sig, ctx)? {
                covers.push((r, WHOLE_TABLE_PIN, hit));
            }
        }
        for (&r, names) in workload.requests.iter().zip(&names) {
            if covers.iter().any(|(c, _, _)| *c == r) {
                continue;
            }
            for (s, entry) in req.shards.iter().enumerate() {
                if let Some(hit) = self.covering(entry, names, req.agg_sig, ctx)? {
                    covers.push((r, s as u32, hit));
                }
            }
        }
        Ok(covers)
    }

    /// Plan stage: run the merge search only over the requests `covers`
    /// leaves uncovered (the plan cache applies to it; cache-dependent
    /// parts of the plan are never memoized, so a later request with a
    /// colder cache cannot reuse a plan that assumes warm state).
    fn plan_uncovered(&mut self, req: &Request, covers: &[Cover]) -> Result<Planned> {
        let workload = req.workload;
        let uncovered: Vec<ColSet> = workload
            .requests
            .iter()
            .copied()
            .filter(|r| !covers.iter().any(|(c, _, _)| c == r))
            .collect();
        if uncovered.is_empty() {
            return Ok(Default::default());
        }
        let (p, s, e, k) = if uncovered.len() == workload.requests.len() {
            self.plan_with_estimates_keyed(workload)?
        } else {
            self.plan_with_estimates_keyed(&Workload {
                requests: uncovered,
                ..workload.clone()
            })?
        };
        Ok((p, s, e, Some(k)))
    }

    /// Execute stage: seed `plan` with the covered requests as virtual
    /// roots — each a leaf whose input is the cached aggregate itself
    /// (per shard for a shard-served request) — and execute it,
    /// harvesting intermediates for admission when the request may
    /// admit, and always collecting per-node observations: the q-error
    /// report is produced under every statistics spec.
    fn execute_covered(
        &self,
        req: &Request,
        plan: &mut LogicalPlan,
        estimates: &GroupEstimates,
        covers: &[Cover],
        ctx: &mut QueryCtx,
    ) -> Result<(ExecutionReport, CacheHooks)> {
        let mut roots = RootSources::default();
        for (cols, slot, hit) in covers {
            if !roots.keys().any(|(c, _)| *c == cols.0) {
                plan.subplans.push(SubNode::leaf(*cols));
            }
            roots.insert((cols.0, *slot), Arc::clone(&hit.table));
        }
        let mut hooks = CacheHooks {
            harvest: (self.mat_cache.enabled() && req.cache.allows_admit()).then(Vec::new),
            observations: Some(Vec::new()),
        };
        let report = self.interpret(plan, req.workload, estimates, roots, &mut hooks, ctx)?;
        Ok((report, hooks))
    }

    /// Admit stage: offer the execution's materialized intermediates —
    /// per-shard partials under their shard entry, the granularity that
    /// survives appends to sibling shards — and the request results
    /// themselves. Requests answered verbatim from the cache are not
    /// re-admitted.
    fn admit(
        &mut self,
        req: &Request,
        covers: &[Cover],
        harvest: Option<Harvest>,
        results: &[(ColSet, Table)],
    ) {
        let Some(harvest) = harvest else {
            return;
        };
        let (workload, cache) = (req.workload, &mut self.mat_cache);
        let mut offer = |(entry, version, rows): &CacheEntry, cols, table| {
            let names = workload.col_strings(cols);
            let aggs = &workload.aggregates;
            cache.admit(entry, *version, &names, req.agg_sig, aggs, table, *rows);
        };
        let mut admitted: Vec<ColSet> = Vec::new();
        for (cols, slot, table) in harvest {
            let entry = match slot {
                WHOLE_TABLE_PIN => {
                    admitted.push(cols);
                    Some(&req.logical)
                }
                s => req.shards.get(s as usize),
            };
            if let Some(entry) = entry {
                offer(entry, cols, table);
            }
        }
        for (cols, table) in results {
            let served_exact = covers
                .iter()
                .any(|(c, slot, h)| c == cols && *slot == WHOLE_TABLE_PIN && h.exact);
            if !served_exact && !admitted.contains(cols) {
                offer(&req.logical, *cols, Arc::new(table.clone()));
            }
        }
    }

    /// Account stage: surface this request's cache and ingest activity
    /// in its metrics (delta counters sum; gauges take the max) —
    /// whatever appends accrued since the last request (eager
    /// refreshes, reshard hints) drains into this one.
    fn account(&mut self, before: MatCacheStats, ctx: &mut QueryCtx) {
        ctx.metrics += std::mem::take(&mut self.pending);
        if self.mat_cache.enabled() {
            let after = self.mat_cache.stats();
            let metrics = &mut ctx.metrics;
            metrics.matcache_hits = after.hits - before.hits;
            metrics.matcache_evictions = after.evictions - before.evictions;
            metrics.matcache_rows_saved = after.rows_saved - before.rows_saved;
            metrics.matcache_bytes = after.bytes;
        }
    }

    /// The aggregate-cache entries of table `name`: the logical entry,
    /// then one per shard entry in shard order (none when unsharded).
    fn cache_entries(&self, name: &str) -> Result<(CacheEntry, Vec<CacheEntry>)> {
        let catalog = self.engine.catalog();
        let entry = |name: String| -> Result<CacheEntry> {
            let e = catalog.get(&name)?;
            Ok((name, e.version, e.table.num_rows()))
        };
        let shards = match catalog.shard_desc(name) {
            Some(desc) => (0..desc.shard_count)
                .map(|s| entry(shard_table_name(name, s)))
                .collect::<Result<_>>()?,
            None => Vec::new(),
        };
        Ok((entry(name.to_string())?, shards))
    }

    /// A cached aggregate of `entry` covering the columns `names`. On a
    /// miss the lazy refresh policy first brings the best stale covering
    /// entry current (the next lookup then hits it); the disabled policy
    /// drops the entry's stale aggregates.
    fn covering(
        &mut self,
        (entry, version, rows): &CacheEntry,
        names: &[String],
        agg_sig: u64,
        ctx: &mut QueryCtx,
    ) -> Result<Option<CachedAggregate>> {
        let lookup = |mc: &mut MatCache| mc.lookup_covering(entry, *version, names, agg_sig, *rows);
        let hit = lookup(&mut self.mat_cache);
        if hit.is_some() {
            return Ok(hit);
        }
        match self.refresh_policy {
            RefreshPolicy::Lazy => {}
            RefreshPolicy::Eager => return Ok(None), // nothing stale survives an append
            RefreshPolicy::Disabled => {
                self.mat_cache.drop_stale(entry, *version);
                return Ok(None);
            }
        }
        let Some(stale) = self.mat_cache.lookup_stale(entry, *version, names, agg_sig) else {
            return Ok(None);
        };
        let refreshed = self.refresh_stale_entry(entry, *version, *rows, stale, ctx)?;
        Ok(refreshed.then(|| lookup(&mut self.mat_cache)).flatten())
    }

    /// Optimize `workload` (or fetch the cached plan) without executing.
    pub fn plan(&mut self, workload: &Workload) -> Result<(LogicalPlan, SearchStats)> {
        let (plan, stats, _, _) = self.plan_with_estimates_keyed(workload)?;
        Ok((plan, stats))
    }

    /// [`Session::plan`] plus the optimizer's distinct-group estimate per
    /// plan node, which execution forwards to the engine's radix kernel,
    /// and the plan-cache fingerprint the result is cached under, so the
    /// feedback loop can invalidate exactly this entry when observed
    /// group counts drift. The estimates are cached alongside the plan,
    /// so a hit costs zero model calls.
    fn plan_with_estimates_keyed(
        &mut self,
        workload: &Workload,
    ) -> Result<(
        LogicalPlan,
        SearchStats,
        GroupEstimates,
        WorkloadFingerprint,
    )> {
        // The base table's contents version is part of the key: a
        // replaced or appended-to table can never reuse a stale plan.
        // Observed group counts are deliberately NOT hashed in — that
        // would turn every repeat of a workload into a miss and defeat
        // the cache; instead the post-execution recost invalidates
        // entries whose corrected cost drifts (see `Session::observe`).
        let table_version = self
            .engine
            .catalog()
            .table_version(&workload.table)
            .unwrap_or(0);
        let key = WorkloadFingerprint::compute(
            workload,
            &self.search,
            self.stats_version,
            self.cost_model.tag(),
            table_version,
        );
        if let Some((plan, stats, estimates)) = self.cache.get(key) {
            return Ok((plan, stats, estimates, key));
        }
        if matches!(self.cost_model.stats(), Stats::Sampled { .. }) {
            self.current_observations(&workload.table, table_version);
        }
        let catalog = self.engine.catalog();
        let table = catalog.table(&workload.table)?;
        // Statistics outlive the search: whatever an earlier search over
        // these table contents counted or estimated is reused, and only
        // column sets never seen at this version are built (and charged
        // to this search's `stats_created`).
        self.stats.retain(|name| catalog.contains(name));
        let table_stats = self.stats.table(&workload.table, table_version);
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
                    counts: self.observed.get(&workload.table).map(|(_, counts)| counts),
                }),
            };
            let gbmqo = GbMqo::with_config(self.search.clone());
            match self.cost_model {
                CostModelSpec::Optimizer(_) => {
                    let indexes = IndexSnapshot::capture(catalog, &workload.table);
                    search_and_estimate(
                        &gbmqo,
                        workload,
                        &mut OptimizerCostModel::new(source, indexes),
                    )?
                }
                CostModelSpec::Cardinality(_) => {
                    search_and_estimate(&gbmqo, workload, &mut CardinalityCostModel::new(source))?
                }
            }
        };
        let (created, create_time) = table_stats.created();
        stats.stats_created = created.saturating_sub(created_before) as u64;
        stats.stats_create_us = create_time.saturating_sub(create_time_before).as_micros() as u64;
        self.cache
            .insert(key, plan.clone(), stats, estimates.clone());
        Ok((plan, stats, estimates, key))
    }

    /// Observe stage — observe → correct → re-optimize: turn the
    /// execution's raw per-node observations into (a) the always-on
    /// estimated-vs-observed q-error report and, under sampled
    /// statistics only, (b) observed group counts that correct the
    /// sample in later searches and (c) a plan-cache invalidation when
    /// the corrected cost of the planned subtree drifts past the
    /// re-optimization threshold or a planned node's q-error exceeds
    /// `1 + threshold`.
    fn observe(
        &mut self,
        req: &Request,
        planned_key: Option<WorkloadFingerprint>,
        plan: &LogicalPlan,
        estimates: &GroupEstimates,
        observations: &[PlanObservation],
        ctx: &mut QueryCtx,
    ) {
        let (workload, base_rows) = (req.workload, req.logical.2);
        let metrics = &mut ctx.metrics;
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
            return;
        }
        let counts = self.current_observations(&workload.table, req.logical.1);
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
        let Some(key) = planned_key else {
            return;
        };
        let base = base_rows as f64;
        let old = plan_scan_cost(plan, base, &mut |bits| {
            estimates.get(&bits).map_or(base, |&e| e as f64)
        });
        let corrected = plan_scan_cost(plan, base, &mut |bits| {
            counts
                .get(&workload.base_cols(ColSet(bits)))
                .unwrap_or_else(|| estimates.get(&bits).map_or(base, |&e| e as f64))
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
        if (drifted || misestimated) && self.cache.invalidate(key) {
            metrics.plan_reopts += 1;
        }
    }

    /// The group counts observed over table `name`, brought to its
    /// contents version `version`. Counts observed before appends are
    /// scaled by the rows the table grew by since, capped at its rows: a
    /// near-unique column set's count grows with the table, and a
    /// low-cardinality one's, overstated, is corrected the next time a
    /// plan executes it. Counts of contents the append log does not link
    /// to the current ones — before a replacement or a reshard — are
    /// dropped.
    fn current_observations(&mut self, name: &str, version: u64) -> &mut StatsStore {
        if !self.observed.contains_key(name) {
            let fresh = StatsStore::with_capacity(MAX_COLUMN_SETS);
            self.observed.insert(name.to_string(), (version, fresh));
        }
        let (at, counts) = self.observed.get_mut(name).expect("just ensured");
        if *at != version {
            match self.engine.catalog().delta_chain(name, *at) {
                Some(chain) if chain.to_version == version => {
                    let rows = (chain.start_row + chain.rows) as f64;
                    counts.scale(rows / chain.start_row.max(1) as f64, rows);
                }
                _ => *counts = StatsStore::with_capacity(MAX_COLUMN_SETS),
            }
            *at = version;
        }
        counts
    }

    /// Execute an explicit plan for `workload` under the session's
    /// execution mode, returning the per-set result tables (no UNION
    /// ALL). For pre-built or deserialized plans; `Session::grouping_sets`
    /// is the usual path.
    pub fn run_plan(&mut self, plan: &LogicalPlan, workload: &Workload) -> Result<ExecutionReport> {
        let (estimates, hooks) = (GroupEstimates::default(), &mut CacheHooks::default());
        let ctx = &mut QueryCtx::default();
        self.interpret(
            plan,
            workload,
            &estimates,
            RootSources::default(),
            hooks,
            ctx,
        )
    }

    /// Physicalize `plan` under the session's mode and thread budget,
    /// with `roots` served from the aggregate cache, and interpret it on
    /// behalf of `ctx`.
    fn interpret(
        &self,
        plan: &LogicalPlan,
        workload: &Workload,
        estimates: &GroupEstimates,
        roots: RootSources,
        hooks: &mut CacheHooks,
        ctx: &mut QueryCtx,
    ) -> Result<ExecutionReport> {
        let layout = Layout::of(self.engine.catalog(), workload, roots);
        let physical = physicalize(plan, workload, estimates, &layout, self.run, &mut |_| 1.0)?;
        execute_plan(physical, workload, &self.engine, ctx, hooks)
    }

    /// Execute an explicit plan one query at a time in the §4.4
    /// storage-minimizing order, with `size_estimate` guiding the
    /// breadth-first/depth-first choice (pass a cost model's
    /// `result_bytes` for faithful behaviour). Ignores the session's
    /// execution mode, not its thread budget: the storage schedule is
    /// inherently sequential.
    pub fn run_plan_scheduled(
        &mut self,
        plan: &LogicalPlan,
        workload: &Workload,
        size_estimate: &mut dyn FnMut(ColSet) -> f64,
    ) -> Result<ExecutionReport> {
        let layout = Layout::of(self.engine.catalog(), workload, RootSources::default());
        let run = Run {
            mode: ExecutionMode::ClientSide,
            ..self.run
        };
        let (est, hooks) = (GroupEstimates::default(), &mut CacheHooks::default());
        let physical = physicalize(plan, workload, &est, &layout, run, size_estimate)?;
        execute_plan(
            physical,
            workload,
            &self.engine,
            &mut QueryCtx::default(),
            hooks,
        )
    }

    /// Register a base table, replacing any same-named table (upsert
    /// semantics: a serving session accepts re-uploads). Replacement
    /// invalidates everything derived from the old contents: cached
    /// plans (the statistics version and the table's catalog version
    /// are both part of the fingerprint) and every cached materialized
    /// aggregate of the table.
    pub fn register_table(&mut self, name: impl Into<String>, table: Table) -> Result<()> {
        let name = name.into();
        let old_shards = self
            .engine
            .catalog()
            .shard_desc(&name)
            .map_or(0, |d| d.shard_count);
        self.engine
            .catalog_mut()
            .replace_sharded(&name, table, self.shards, None)?;
        self.mat_cache.invalidate_table(&name);
        for s in 0..old_shards.max(self.shards) {
            self.mat_cache.invalidate_table(&shard_table_name(&name, s));
        }
        self.stats_version += 1;
        Ok(())
    }

    /// Append `rows` to base table `name` (schemas must match). The
    /// catalog records a delta descriptor per touched entry — for a
    /// sharded table the rows route through the existing shard key and
    /// each receiving shard logs its own delta — so cached aggregates
    /// are *refreshed* from just the appended range instead of being
    /// invalidated (per the session's [`RefreshPolicy`]). Cached plans
    /// stop matching automatically: the table's contents version is
    /// part of the plan fingerprint.
    ///
    /// Appends never re-evaluate the shard key. When the delta's value
    /// distribution differs from the registration-time contents, rows
    /// can concentrate on few shards; the post-append skew is measured
    /// here and surfaced as [`AppendOutcome::reshard_hint`] plus an
    /// [`ExecMetrics::reshard_hints`] count — [`Session::reshard`] is
    /// the escape hatch.
    pub fn append(&mut self, name: &str, rows: Table) -> Result<AppendOutcome> {
        let appended = rows.num_rows();
        let version = self.engine.catalog_mut().append(name, rows)?;
        let mut reshard_hint = false;
        if let Some(desc) = self.engine.catalog().shard_desc(name).cloned() {
            let sizes: Vec<u64> = (0..desc.shard_count)
                .map(|s| {
                    let sname = shard_table_name(name, s);
                    self.engine
                        .catalog()
                        .table(&sname)
                        .map_or(0, |t| t.num_rows() as u64)
                })
                .collect();
            let skew = shard_skew(&sizes);
            self.pending.shard_skew = self.pending.shard_skew.max(skew);
            if skew >= RESHARD_SKEW_THRESHOLD {
                reshard_hint = true;
                self.pending.reshard_hints += 1;
            }
        }
        if self.refresh_policy == RefreshPolicy::Eager && self.mat_cache.enabled() {
            self.refresh_all_stale(name)?;
        }
        Ok(AppendOutcome {
            rows: appended,
            version,
            reshard_hint,
        })
    }

    /// Re-split `name` into the session's shard count with a freshly
    /// selected shard key — the escape hatch when appends have skewed
    /// the layout (see [`AppendOutcome::reshard_hint`]). Resharding
    /// rewrites every shard entry, so it invalidates the table's cached
    /// aggregates and plans; use it like a (rare) re-registration.
    pub fn reshard(&mut self, name: &str) -> Result<()> {
        let table = self.engine.catalog().table(name)?.clone();
        let old_shards = self
            .engine
            .catalog()
            .shard_desc(name)
            .map_or(0, |d| d.shard_count);
        self.engine
            .catalog_mut()
            .replace_sharded(name, table, self.shards, None)?;
        self.mat_cache.invalidate_table(name);
        for s in 0..old_shards.max(self.shards) {
            self.mat_cache.invalidate_table(&shard_table_name(name, s));
        }
        self.stats_version += 1;
        Ok(())
    }

    /// Eagerly bring every stale cached aggregate of `name` (logical
    /// entry and shard entries alike) current, with no deadline.
    /// Counters accrue in `self.pending` and drain into the next
    /// request's metrics.
    fn refresh_all_stale(&mut self, name: &str) -> Result<()> {
        let (logical, shards) = self.cache_entries(name)?;
        let mut ctx = QueryCtx::default();
        for (ename, version, rows) in std::iter::once(logical).chain(shards) {
            for stale in self.mat_cache.stale_entries(&ename, version) {
                self.refresh_stale_entry(&ename, version, rows, stale, &mut ctx)?;
            }
        }
        self.pending += ctx.metrics;
        Ok(())
    }

    /// Bring one stale cached aggregate of catalog entry `entry`
    /// current at `version`: aggregate only the delta row range with
    /// the entry's original specs, concatenate with the cached partial,
    /// and re-aggregate under the §7.2 lossless merge rules
    /// ([`AggSpec::reaggregate`] — `SUM(cnt)`-style). Falls back to
    /// dropping the table's stale entries when the delta chain is
    /// broken (compacted or replaced), an aggregate is not mergeable,
    /// the delta exceeds `max_delta_fraction` of the base, or its
    /// aggregation fails — unless it failed because `ctx` was
    /// cancelled: that error propagates and the stale entries stay.
    fn refresh_stale_entry(
        &mut self,
        entry: &str,
        version: u64,
        base_rows: usize,
        stale: StaleAggregate,
        ctx: &mut QueryCtx,
    ) -> Result<bool> {
        let fallback = |mc: &mut MatCache, metrics: &mut ExecMetrics| {
            mc.drop_stale(entry, version);
            metrics.delta_fallbacks += 1;
            Ok(false)
        };
        let chain = match self.engine.catalog().delta_chain(entry, stale.version) {
            Some(c) if c.to_version == version && specs_mergeable(&stale.specs) => c,
            _ => return fallback(&mut self.mat_cache, &mut ctx.metrics),
        };
        if (chain.rows as f64) > self.max_delta_fraction * base_rows as f64 {
            return fallback(&mut self.mat_cache, &mut ctx.metrics);
        }
        // The cached payload's schema is its group columns followed by
        // one output per spec; aggregating the delta with the same
        // specs in that column order makes the two concat-compatible.
        let ngroup = stale.table.schema().fields().len() - stale.specs.len();
        let group_cols: Vec<String> = stale.table.schema().fields()[..ngroup]
            .iter()
            .map(|f| f.name.clone())
            .collect();
        // Both aggregations are sized from rows they already know: the
        // delta has at most its rows as groups, the merge at most stale
        // rows + delta rows.
        let q = GroupByQuery {
            input: Input::Catalog(entry.to_string()),
            group_cols,
            aggs: stale.specs.clone(),
            estimated_groups: Some(chain.rows as u64),
        };
        let merged = self
            .engine
            .run_group_by_range(&q, chain.start_row, chain.rows, ctx)
            .and_then(|delta| {
                let combined = Table::concat(&[stale.table.as_ref(), &delta])?;
                let reagg: Vec<AggSpec> = stale.specs.iter().map(AggSpec::reaggregate).collect();
                let idx: Vec<usize> = (0..ngroup).collect();
                let groups = Some(combined.num_rows() as u64);
                self.engine
                    .aggregate_table(&combined, &idx, &reagg, groups, ctx)
            });
        let merged = match merged {
            Ok(merged) => merged,
            Err(e @ ExecError::Cancelled { .. }) => return Err(e.into()),
            Err(_) => return fallback(&mut self.mat_cache, &mut ctx.metrics),
        };
        if self.mat_cache.refresh(
            entry,
            &stale.cols,
            stale.agg_sig,
            stale.version,
            version,
            Arc::new(merged),
            base_rows,
        ) {
            ctx.metrics.delta_refreshes += 1;
            // Rows *not* rescanned: everything before the delta range.
            ctx.metrics.refresh_rows_saved += chain.start_row as u64;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// The session's default shard count for registered tables
    /// (`0`/`1` = unsharded).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Declare that table statistics changed (data refreshed in place,
    /// indexes rebuilt, …): cached plans stop matching from now on and
    /// every column-set statistic is rebuilt on next use.
    pub fn bump_stats_version(&mut self) {
        self.stats_version += 1;
        self.stats.clear();
    }

    /// Current statistics version (see [`Session::bump_stats_version`]).
    pub fn stats_version(&self) -> u64 {
        self.stats_version
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Materialized-aggregate-cache counters (all zero when disabled).
    pub fn mat_cache_stats(&self) -> MatCacheStats {
        self.mat_cache.stats()
    }

    /// Per-node estimated vs. observed group counts from the most
    /// recent [`Session::run_workload`], in execution order — the
    /// q-error report `gbmqo profile` prints. Populated under every
    /// statistics spec; empty before the first request.
    pub fn last_node_cards(&self) -> &[NodeCardReport] {
        &self.last_node_cards
    }

    /// Number of distinct (table, column-set) group counts held to
    /// correct sampled statistics. Zero under exact statistics.
    pub fn feedback_len(&self) -> usize {
        self.observed.values().map(|(_, counts)| counts.len()).sum()
    }

    /// Drop all cached plans.
    pub fn clear_plan_cache(&mut self) {
        self.cache.clear();
    }

    /// Switch execution mode, and with it the thread budget of waves,
    /// merges and refreshes alike (plans are mode-independent, so the
    /// cache survives).
    pub fn set_mode(&mut self, mode: ExecutionMode) {
        self.run = Run::new(&mut self.engine, mode, self.parallelism);
    }

    /// Borrow the engine (metrics, catalog inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutably borrow the engine. If you change table data or physical
    /// design through it, call [`Session::bump_stats_version`] so cached
    /// plans are invalidated.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{Column, DataType, Field, Schema};

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
                Column::from_i64((0..240).map(|i| i % 3).collect()),
                Column::from_i64((0..240).map(|i| (i % 3) * 10).collect()),
                Column::from_i64((0..240).map(|i| i % 5).collect()),
            ],
        )
        .unwrap()
    }

    fn session(mode: ExecutionMode) -> (Session, Workload) {
        let t = table();
        let w = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
        let s = Session::builder()
            .table("r", t)
            .search(SearchConfig::pruned())
            .mode(mode)
            .plan_cache(4)
            .build()
            .unwrap();
        (s, w)
    }

    fn tag_counts(table: &Table) -> Vec<(String, usize)> {
        let tag_col = table.schema().index_of("grp_tag").unwrap();
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for r in 0..table.num_rows() {
            *counts
                .entry(table.value(r, tag_col).as_str().unwrap().to_string())
                .or_default() += 1;
        }
        counts.into_iter().collect()
    }

    #[test]
    fn all_modes_agree() {
        let (mut client, w) = session(ExecutionMode::ClientSide);
        let (mut server, _) = session(ExecutionMode::ServerSide);
        let (mut parallel, _) = session(ExecutionMode::Parallel);
        let c = client.grouping_sets(&w).unwrap();
        let s = server.grouping_sets(&w).unwrap();
        let p = parallel.grouping_sets(&w).unwrap();
        assert_eq!(tag_counts(&c.table), tag_counts(&s.table));
        assert_eq!(tag_counts(&c.table), tag_counts(&p.table));
    }

    #[test]
    fn set_mode_moves_the_one_thread_budget() {
        use ExecutionMode::{ClientSide, Parallel};
        for (built, switched) in [(Parallel, ClientSide), (ClientSide, Parallel)] {
            let (mut moved, w) = session(built);
            moved.set_mode(switched);
            let (mut direct, _) = session(switched);
            let a = moved.run_workload(&w, CacheControl::Default).unwrap();
            let b = direct.run_workload(&w, CacheControl::Default).unwrap();
            assert_eq!(a.report.physical.threads, b.report.physical.threads);
            assert_eq!(
                moved.engine().kernel_threads(),
                direct.engine().kernel_threads()
            );
            assert_eq!(moved.engine().kernel_threads(), a.report.physical.threads);
        }
        let (client, _) = session(ClientSide);
        assert_eq!(client.engine().kernel_threads(), 1);
    }

    #[test]
    fn repeated_workloads_hit_the_plan_cache() {
        let (mut s, w) = session(ExecutionMode::ClientSide);
        let first = s.grouping_sets(&w).unwrap();
        assert!(!first.stats.cache_hit);
        assert!(first.stats.optimizer_calls > 0);
        let second = s.grouping_sets(&w).unwrap();
        assert!(second.stats.cache_hit, "same workload must hit the cache");
        assert_eq!(
            second.stats.optimizer_calls, 0,
            "a cache hit performs zero optimizer cost calls"
        );
        assert_eq!(
            second.plan.render(&w.column_names),
            first.plan.render(&w.column_names)
        );
        assert_eq!(tag_counts(&second.table), tag_counts(&first.table));
        let cs = s.cache_stats();
        assert_eq!((cs.hits, cs.misses), (1, 1));
    }

    #[test]
    fn stats_version_invalidates_cached_plans() {
        let (mut s, w) = session(ExecutionMode::ClientSide);
        s.grouping_sets(&w).unwrap();
        s.bump_stats_version();
        let after = s.grouping_sets(&w).unwrap();
        assert!(!after.stats.cache_hit, "bumped stats version must miss");
        assert_eq!(s.cache_stats().misses, 2);
    }

    fn sampled(sample_size: usize) -> Stats {
        Stats::Sampled {
            rule: SampleRule::fixed(sample_size),
            estimator: DistinctEstimator::Hybrid,
            seed: 7,
        }
    }

    #[test]
    fn sampled_and_optimizer_cost_models_work() {
        let t = table();
        let w = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
        for spec in [
            CostModelSpec::Cardinality(sampled(64)),
            CostModelSpec::Optimizer(sampled(64)),
        ] {
            let mut s = Session::builder()
                .table("r", t.clone())
                .cost_model(spec)
                .build()
                .unwrap();
            let out = s.grouping_sets(&w).unwrap();
            assert_eq!(tag_counts(&out.table).len(), 3);
        }
    }

    #[test]
    fn the_default_prices_groups_and_each_spec_keys_its_own_plans() {
        let s = Session::builder().table("r", table()).build().unwrap();
        let served = Stats::Sampled {
            rule: SampleRule::DEFAULT,
            estimator: DistinctEstimator::Hybrid,
            seed: 7,
        };
        assert_eq!(s.cost_model, CostModelSpec::Optimizer(served));
        assert_eq!(s.cost_model, CostModelSpec::default());

        let w = Workload::single_columns("r", &table(), &["a", "b", "c"]).unwrap();
        let specs = [
            CostModelSpec::Cardinality(Stats::Exact),
            CostModelSpec::Cardinality(sampled(64)),
            CostModelSpec::Optimizer(Stats::Exact),
            CostModelSpec::Optimizer(sampled(64)),
        ];
        let keys: std::collections::HashSet<WorkloadFingerprint> = specs
            .iter()
            .map(|spec| WorkloadFingerprint::compute(&w, &SearchConfig::pruned(), 0, spec.tag(), 0))
            .collect();
        assert_eq!(
            keys.len(),
            specs.len(),
            "the plan cache tells the specs apart"
        );
    }

    #[test]
    fn a_rule_that_samples_nothing_is_rejected_at_build() {
        let valid = SampleRule::DEFAULT;
        for rule in [
            SampleRule::fixed(0),
            SampleRule { min: 0, ..valid },
            SampleRule { min: 2, max: 1 },
        ] {
            let stats = Stats::Sampled {
                rule,
                estimator: DistinctEstimator::Hybrid,
                seed: 7,
            };
            for spec in [
                CostModelSpec::Cardinality(stats.clone()),
                CostModelSpec::Optimizer(stats),
            ] {
                let err = Session::builder()
                    .table("r", table())
                    .cost_model(spec)
                    .build()
                    .unwrap_err();
                assert!(matches!(err, CoreError::InvalidSession(_)), "{rule:?}");
            }
        }
    }

    /// A fresh session's first plan reads at most the sample once per
    /// column set it estimates; exact statistics read the whole table
    /// once per column set.
    #[test]
    fn a_fresh_sessions_first_plan_reads_at_most_the_sample() {
        let rows = 100_000;
        let t = Table::new(
            table().schema().clone(),
            vec![
                Column::from_i64((0..rows).map(|i| i % 3).collect()),
                Column::from_i64((0..rows).map(|i| (i * 7) % 1_000).collect()),
                Column::from_i64((0..rows).map(|i| (i * 13) % 40_000).collect()),
            ],
        )
        .unwrap();
        let w = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
        let sample = SampleRule::DEFAULT.rows(rows as usize) as u64;
        assert!(sample < rows as u64 / 10, "well above the clamp minimum");
        for spec in [
            CostModelSpec::default(),
            CostModelSpec::Optimizer(Stats::Exact),
        ] {
            let mut s = Session::builder()
                .table("r", t.clone())
                .cost_model(spec.clone())
                .build()
                .unwrap();
            let (_, stats) = s.plan(&w).unwrap();
            let version = s.engine().catalog().table_version("r").unwrap();
            let table_stats = s.stats.table("r", version);
            let (created, _) = table_stats.created();
            let read = table_stats.rows_read();
            assert_eq!(created as u64, stats.stats_created);
            if spec == CostModelSpec::default() {
                // One of the statistics created is the draw, which reads
                // row ids and no rows.
                let estimated = created as u64 - 1;
                assert!(estimated >= 3, "{spec:?}: {created} statistics");
                assert!(read <= sample * estimated, "{spec:?}: {read} rows read");
            } else {
                assert_eq!(read, rows as u64 * created as u64, "{spec:?}");
            }
        }
    }

    /// Rows as order-independent `name=value` strings (the UNION ALL's
    /// column order varies with the plan; only the cell values matter).
    fn rows_sorted(t: &Table) -> Vec<String> {
        let names = t.schema().names();
        let mut v: Vec<String> = (0..t.num_rows())
            .map(|r| {
                let mut cells: Vec<String> = (0..t.num_columns())
                    .map(|c| format!("{}={:?}", names[c], t.value(r, c)))
                    .filter(|s| !s.ends_with("=Null"))
                    .collect();
                cells.sort();
                cells.join("|")
            })
            .collect();
        v.sort();
        v
    }

    fn cached_session(shards: u32, policy: RefreshPolicy) -> (Session, Workload) {
        let t = table();
        let w = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
        let s = Session::builder()
            .table("r", t)
            .mat_cache_budget_bytes(1 << 20)
            .shards(shards)
            .refresh_policy(policy)
            .build()
            .unwrap();
        (s, w)
    }

    #[test]
    fn append_then_lazy_refresh_matches_cold_recompute() {
        for shards in [0u32, 4] {
            let (mut s, w) = cached_session(shards, RefreshPolicy::Lazy);
            s.grouping_sets(&w).unwrap(); // warm the cache
            let out = s.append("r", table()).unwrap();
            assert_eq!(out.rows, 240);
            let warm = s.grouping_sets(&w).unwrap();
            assert!(
                warm.metrics.delta_refreshes >= 1,
                "shards={shards}: expected delta refreshes, got {:?}",
                warm.metrics
            );
            assert_eq!(warm.metrics.delta_fallbacks, 0, "shards={shards}");
            assert!(warm.metrics.delta_rows >= 240, "shards={shards}");
            assert!(warm.metrics.refresh_rows_saved >= 240, "shards={shards}");

            let doubled = Table::concat(&[&table(), &table()]).unwrap();
            let mut cold = Session::builder().table("r", doubled).build().unwrap();
            let cold_out = cold.grouping_sets(&w).unwrap();
            assert_eq!(
                rows_sorted(&warm.table),
                rows_sorted(&cold_out.table),
                "shards={shards}: refreshed cache must equal cold recompute"
            );
        }
    }

    #[test]
    fn eager_policy_refreshes_inside_append() {
        let (mut s, w) = cached_session(0, RefreshPolicy::Eager);
        s.grouping_sets(&w).unwrap();
        s.append("r", table()).unwrap();
        assert!(
            s.mat_cache_stats().refreshes >= 1,
            "append itself refreshes"
        );
        let warm = s.grouping_sets(&w).unwrap();
        // Pending append-side counters drain into the next request.
        assert!(warm.metrics.delta_refreshes >= 1);
        assert!(warm.metrics.matcache_hits >= 1, "cache is warm post-append");
    }

    #[test]
    fn a_cancelled_cover_stage_keeps_the_stale_entries() {
        let (mut s, w) = cached_session(0, RefreshPolicy::Lazy);
        s.grouping_sets(&w).unwrap();
        s.append("r", table()).unwrap();
        let req = s.request(&w, CacheControl::Default).unwrap();
        let token = gbmqo_exec::CancelToken::new();
        token.cancel();
        let mut cancelled = QueryCtx {
            cancel: Some(token),
            ..QueryCtx::default()
        };
        // The lazy refresh's delta scan is cancelled: the error
        // propagates instead of taking the fallback that drops.
        let err = s.cover(&req, &mut cancelled).unwrap_err();
        assert!(matches!(err, CoreError::Exec(ExecError::Cancelled { .. })));
        assert_eq!(cancelled.metrics.delta_fallbacks, 0);
        assert_eq!(s.mat_cache_stats().stale_drops, 0);
        // So an uncancelled cover still refreshes what it needs.
        let mut ctx = QueryCtx::default();
        let covers = s.cover(&req, &mut ctx).unwrap();
        assert_eq!(covers.len(), w.requests.len());
        assert!(ctx.metrics.delta_refreshes >= 1, "{:?}", ctx.metrics);
    }

    #[test]
    fn disabled_policy_drops_stale_entries() {
        let (mut s, w) = cached_session(0, RefreshPolicy::Disabled);
        s.grouping_sets(&w).unwrap();
        s.append("r", table()).unwrap();
        let after = s.grouping_sets(&w).unwrap();
        assert_eq!(after.metrics.delta_refreshes, 0);
        assert!(s.mat_cache_stats().stale_drops >= 1);
    }

    #[test]
    fn oversized_delta_falls_back_to_invalidation() {
        let t = table();
        let w = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
        let mut s = Session::builder()
            .table("r", t)
            .mat_cache_budget_bytes(1 << 20)
            .max_delta_fraction(0.1)
            .build()
            .unwrap();
        s.grouping_sets(&w).unwrap();
        // Doubling the table is far beyond a 10% delta budget.
        s.append("r", table()).unwrap();
        let after = s.grouping_sets(&w).unwrap();
        assert_eq!(after.metrics.delta_refreshes, 0);
        assert!(after.metrics.delta_fallbacks >= 1);
    }

    #[test]
    fn skewed_append_hints_reshard_and_reshard_recovers() {
        let (mut s, w) = cached_session(4, RefreshPolicy::Lazy);
        s.grouping_sets(&w).unwrap();
        // A constant-key delta routes every row to one shard.
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Int64),
        ])
        .unwrap();
        let skewed = Table::new(
            schema,
            vec![
                Column::from_i64(vec![1; 2000]),
                Column::from_i64(vec![2; 2000]),
                Column::from_i64(vec![3; 2000]),
            ],
        )
        .unwrap();
        let out = s.append("r", skewed).unwrap();
        assert!(out.reshard_hint, "one-shard delta must flag skew");
        let report = s.grouping_sets(&w).unwrap();
        assert_eq!(report.metrics.reshard_hints, 1);
        assert!(report.metrics.shard_skew >= RESHARD_SKEW_THRESHOLD);

        s.reshard("r").unwrap();
        let again = s.grouping_sets(&w).unwrap();
        assert_eq!(again.metrics.reshard_hints, 0);
        assert_eq!(rows_sorted(&again.table), rows_sorted(&report.table));
    }

    #[test]
    fn register_table_and_run_plan() {
        let (mut s, w) = session(ExecutionMode::Parallel);
        let (plan, _) = s.plan(&w).unwrap();
        let report = s.run_plan(&plan, &w).unwrap();
        assert_eq!(report.results.len(), 3);

        s.register_table("r2", table()).unwrap();
        assert!(s.engine().catalog().contains("r2"));
        assert_eq!(s.stats_version(), 1);
    }

    /// Exact statistics have nothing to correct: the q-error report is
    /// produced, but no group count is recorded or overlaid — also after
    /// an append of values the table does not hold yet, which changes
    /// every group count the first run observed.
    #[test]
    fn exact_statistics_are_never_overlaid() {
        let w = Workload::single_columns("r", &table(), &["a", "b", "c"]).unwrap();
        let mut s = Session::builder()
            .table("r", table())
            .cost_model(CostModelSpec::Optimizer(Stats::Exact))
            .search(SearchConfig::pruned())
            .plan_cache(4)
            .build()
            .unwrap();
        assert!(s.last_node_cards().is_empty(), "empty before first run");
        let fresh_values = Table::new(
            table().schema().clone(),
            vec![
                Column::from_i64((0..60).map(|i| 3 + i % 4).collect()),
                Column::from_i64((0..60).map(|i| 1 + (i % 4) * 10).collect()),
                Column::from_i64((0..60).map(|i| 5 + i % 6).collect()),
            ],
        )
        .unwrap();
        for run in 0..2 {
            if run == 1 {
                s.append("r", fresh_values.clone()).unwrap();
            }
            let out = s.grouping_sets(&w).unwrap();
            let cards = s.last_node_cards();
            assert!(cards.len() >= 3, "every executed plan node is reported");
            for card in cards {
                // The exact statistics estimate perfectly, so every
                // node's q-error is exactly 1.
                assert_eq!(card.estimated, card.observed, "run {run}: {:?}", card.cols);
                assert_eq!(card.q_error(), 1.0);
            }
            assert_eq!(out.metrics.qerror_nodes, cards.len() as u64);
            assert_eq!(out.metrics.qerror_sum_x100, 100 * cards.len() as u64);
            assert_eq!(out.metrics.qerror_max_x100, 100);
            // No feedback loop under exact statistics.
            assert_eq!(out.metrics.feedback_observations, 0);
            assert_eq!(s.feedback_len(), 0);
        }
    }

    #[test]
    fn adaptive_results_match_static_across_modes() {
        for mode in [
            ExecutionMode::ClientSide,
            ExecutionMode::ServerSide,
            ExecutionMode::Parallel,
        ] {
            for shards in [0u32, 4] {
                let t = table();
                let w = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
                let build = |stats: Stats| {
                    Session::builder()
                        .table("r", t.clone())
                        .cost_model(CostModelSpec::Optimizer(stats))
                        .search(SearchConfig::pruned())
                        .mode(mode)
                        .shards(shards)
                        .build()
                        .unwrap()
                };
                let (mut plain, mut adaptive) = (build(Stats::Exact), build(sampled(64)));
                let expect = plain.grouping_sets(&w).unwrap();
                let got = adaptive.grouping_sets(&w).unwrap();
                assert_eq!(
                    rows_sorted(&got.table),
                    rows_sorted(&expect.table),
                    "mode={mode:?} shards={shards}: adaptive must not change results"
                );
                assert!(got.metrics.feedback_observations > 0);
                assert!(adaptive.feedback_len() > 0);
            }
        }
    }

    #[test]
    fn q_error_basics() {
        assert_eq!(q_error(100.0, 100.0), 1.0);
        assert_eq!(q_error(200.0, 100.0), 2.0);
        assert_eq!(q_error(50.0, 100.0), 2.0);
        assert_eq!(q_error(0.0, 0.0), 1.0); // clamped, no NaN
    }

    /// A 16-row sample of `t`.
    fn sample_of(t: &Table) -> SampledSource<'_> {
        SampledSource::new(t, 16, DistinctEstimator::Hybrid, 7)
    }

    #[test]
    fn overlay_prefers_observation_then_sample() {
        let t = table();
        let mut counts = StatsStore::new();
        counts.put(&[0], 7.0); // lie on purpose: the truth is 3
        let mut overlay = Observed {
            sample: sample_of(&t),
            counts: Some(&counts),
        };
        assert_eq!(overlay.distinct(&[0]), 7.0);
        // No observation for [1]: the sample answers.
        assert_eq!(overlay.distinct(&[1]), sample_of(&t).distinct(&[1]));
        assert_eq!(overlay.distinct(&[]), 1.0);
        // Widths and base rows delegate.
        assert_eq!(overlay.base_rows(), 240);
        assert_eq!(overlay.row_width(&[0]), sample_of(&t).row_width(&[0]));
    }

    #[test]
    fn overlay_without_observations_falls_back_to_sample() {
        let t = table();
        let mut bare = Observed {
            sample: sample_of(&t),
            counts: None,
        };
        assert_eq!(bare.distinct(&[0]), sample_of(&t).distinct(&[0]));
        assert_eq!(bare.distinct(&[1]), sample_of(&t).distinct(&[1]));
    }

    #[test]
    fn observation_clamped_to_base_rows() {
        let t = table();
        let mut counts = StatsStore::new();
        counts.put(&[2], 5_000_000.0); // bogus: more groups than rows
        let mut overlay = Observed {
            sample: sample_of(&t),
            counts: Some(&counts),
        };
        assert_eq!(overlay.distinct(&[2]), 240.0);
    }

    /// One count per (table, column set): a later run's count replaces
    /// an earlier one.
    #[test]
    fn newest_observation_wins() {
        let t = table();
        let w = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
        let mut s = Session::builder()
            .table("r", t)
            .cost_model(CostModelSpec::Cardinality(sampled(16)))
            .build()
            .unwrap();
        s.grouping_sets(&w).unwrap();
        let a = w.base_cols(w.requests[0]);
        assert_eq!(s.observed["r"].1.get(&a), Some(3.0));
        let held = s.feedback_len();
        // Four new values of `a`: its count moves from 3 to 7.
        let delta = Table::new(
            table().schema().clone(),
            vec![
                Column::from_i64((0..240).map(|i| 3 + i % 4).collect()),
                Column::from_i64(vec![0; 240]),
                Column::from_i64(vec![0; 240]),
            ],
        )
        .unwrap();
        s.append("r", delta).unwrap();
        s.grouping_sets(&w).unwrap();
        assert_eq!(s.observed["r"].1.get(&a), Some(7.0));
        assert!(s.feedback_len() >= held);
    }

    /// A count is held with the table version it was observed at. An
    /// append scales it by the rows the table grew by, until execution
    /// observes the column set again; a replacement drops it.
    #[test]
    fn observed_counts_follow_their_table_version() {
        let t = table();
        let w = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
        let mut s = Session::builder()
            .table("r", t)
            .cost_model(CostModelSpec::Cardinality(sampled(16)))
            .build()
            .unwrap();
        s.grouping_sets(&w).unwrap();
        let a = w.base_cols(w.requests[0]);
        let version = |s: &Session| s.engine().catalog().table_version("r").unwrap();
        assert_eq!(s.observed["r"].0, version(&s));
        assert_eq!(s.observed["r"].1.get(&a), Some(3.0));
        s.append("r", table()).unwrap();
        let doubled = version(&s);
        assert_eq!(s.current_observations("r", doubled).get(&a), Some(6.0));
        s.grouping_sets(&w).unwrap();
        assert_eq!(s.observed["r"].0, doubled);
        assert_eq!(s.observed["r"].1.get(&a), Some(3.0), "observed again");

        s.register_table("r", table()).unwrap();
        let replaced = version(&s);
        assert!(s.current_observations("r", replaced).is_empty());
    }

    /// Replacing a table drops its counts, and a run over an empty
    /// table observes its nodes but records nothing.
    #[test]
    fn empty_results_are_not_recorded() {
        let t = table();
        let w = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
        let mut s = Session::builder()
            .table("r", t)
            .cost_model(CostModelSpec::Cardinality(sampled(16)))
            .build()
            .unwrap();
        s.grouping_sets(&w).unwrap();
        assert!(s.feedback_len() > 0);

        let empty = Table::new(
            table().schema().clone(),
            vec![
                Column::from_i64(vec![]),
                Column::from_i64(vec![]),
                Column::from_i64(vec![]),
            ],
        )
        .unwrap();
        s.register_table("r", empty).unwrap();
        let out = s.grouping_sets(&w).unwrap();
        assert!(out.metrics.feedback_observations > 0);
        assert_eq!(
            s.feedback_len(),
            0,
            "replacing drops, empty nodes add nothing"
        );
    }

    /// The full observe → correct → re-optimize loop. Half the rows
    /// share one (a, b) pair and the rest are distinct pairs — the
    /// classic skew that makes a sample-based joint estimate collapse
    /// (the reservoir is full of the heavy pair). The optimizer merges
    /// on the bogus cheap union, execution observes the true
    /// cardinality, the corrected cost drifts past the threshold, the
    /// cached plan is invalidated, and the re-planned workload stops
    /// drifting.
    #[test]
    fn observed_drift_invalidates_and_replans() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let heavy_or = |i: i64, rare: i64| if i % 2 == 0 { 0 } else { rare };
        let t = Table::new(
            schema,
            vec![
                Column::from_i64((0..2000).map(|i| heavy_or(i, i)).collect()),
                Column::from_i64((0..2000).map(|i| heavy_or(i, i + 10_000)).collect()),
            ],
        )
        .unwrap();
        let w = Workload::single_columns("u", &t, &["a", "b"]).unwrap();
        let mut s = Session::builder()
            .table("u", t)
            .cost_model(CostModelSpec::Cardinality(sampled(32)))
            .plan_cache(4)
            .build()
            .unwrap();

        let first = s.grouping_sets(&w).unwrap();
        assert!(
            first.metrics.plan_reopts >= 1,
            "observed cardinalities must invalidate the drifted plan: {:?}",
            first.metrics
        );
        let second = s.grouping_sets(&w).unwrap();
        assert!(
            !second.stats.cache_hit,
            "the invalidated plan must be re-optimized"
        );
        assert!(
            second.metrics.qerror_max_x100 <= first.metrics.qerror_max_x100,
            "corrected estimates must not get worse: {} -> {}",
            first.metrics.qerror_max_x100,
            second.metrics.qerror_max_x100
        );
        assert_eq!(
            second.metrics.plan_reopts, 0,
            "the corrected plan does not drift again"
        );
        let third = s.grouping_sets(&w).unwrap();
        assert!(third.stats.cache_hit, "the loop converges to a cache hit");
        assert_eq!(rows_sorted(&second.table), rows_sorted(&first.table));
        assert_eq!(rows_sorted(&third.table), rows_sorted(&first.table));
    }
}
