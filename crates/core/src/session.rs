//! The serving-oriented entry point. A [`Session`] answers GROUPING
//! SETS requests through one method: it holds the builder's policies and
//! runs a request's six stages — cover, plan, execute, observe, admit,
//! account — over three owners: the engine and its catalog, the planner
//! (statistics, cost model, search and plan cache) and the aggregate
//! cache (`gbmqo-matcache`). A workload planned before skips the search:
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
use crate::cache::CacheStats;
use crate::colset::ColSet;
use crate::error::{CoreError, Result};
use crate::executor::{
    execute_plan, shard_skew, CacheHooks, ExecutionReport, GroupEstimates, RootSources,
    WHOLE_TABLE_PIN,
};
use crate::greedy::{SearchConfig, SearchStats};
use crate::physicalize::{physicalize, Layout, Run};
use crate::plan::{LogicalPlan, SubNode};
use crate::planner::{CostModelSpec, Keyed, NodeCardReport, Planner};
use crate::workload::Workload;
use gbmqo_exec::{Engine, ExecMetrics, QueryCtx};
use gbmqo_matcache::{
    CacheControl, CacheRequest, Cover, MatCache, MatCacheStats, RefreshPolicy,
    DEFAULT_MAX_DELTA_FRACTION,
};
use gbmqo_storage::{Catalog, Snapshot, Table};
use std::sync::Arc;

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

/// Builder for [`Session`]; see the module docs for a walkthrough.
/// `SessionBuilder::default()` is [`Session::builder`].
#[derive(Debug)]
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

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            tables: Vec::new(),
            engine: None,
            cost_model: CostModelSpec::default(),
            search: SearchConfig::default(),
            mode: ExecutionMode::default(),
            parallelism: 0,
            plan_cache: 16,
            io_ns_per_byte: 0.0,
            mat_cache_budget_bytes: 0,
            shards: 0,
            refresh_policy: RefreshPolicy::default(),
            max_delta_fraction: None,
        }
    }
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

    /// Emulate a disk row store at `ns_per_byte`: the engine waits out
    /// the transfer time of what it scans and writes
    /// (see [`Engine::set_io_ns_per_byte`]), and the optimizer cost model
    /// prices that I/O, reading the engine's value at every search.
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
        let planner = Planner::new(self.cost_model, self.search, self.plan_cache)?;
        let budget = self.mat_cache_budget_bytes;
        let fraction = self
            .max_delta_fraction
            .unwrap_or(DEFAULT_MAX_DELTA_FRACTION);
        let mat_cache = MatCache::new(budget, self.refresh_policy, fraction)
            .map_err(CoreError::InvalidSession)?;
        Ok(Session {
            engine,
            run,
            planner,
            mat_cache,
            shards: self.shards,
            pending: ExecMetrics::default(),
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
    /// The execution mode and the one thread budget it implies.
    run: Run,
    pub(crate) planner: Planner,
    /// Cross-request materialized aggregate cache (disabled at budget 0).
    mat_cache: MatCache,
    /// Default shard count applied to tables registered through the
    /// session (`0`/`1` = unsharded).
    shards: u32,
    /// Ingest-side counters (eager refreshes, reshard hints) accrued
    /// outside any request; drained into the next workload's metrics.
    pending: ExecMetrics,
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
        SessionBuilder::default()
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
    /// the UNION ALL on top. The request's base relation is resolved
    /// once (the workload's table, or the rows its filter selects), and
    /// six stages read it — cover, plan, execute, observe, admit,
    /// account; `ctx` is polled before each: a request whose token trips
    /// fails at the next stage boundary, and one tripped before it starts
    /// leaves the caches untouched. Work is charged to `ctx.metrics`,
    /// which the report's metrics copy.
    pub fn run_workload_in(
        &mut self,
        workload: &Workload,
        cache: CacheControl,
        ctx: &mut QueryCtx,
    ) -> Result<WorkloadOutcome> {
        let w = workload;
        ctx.check_cancelled()?;
        let base = self.base(w, ctx)?;
        let req = self.mat_cache.request(&base, &w.aggregates, cache);
        let before = self.mat_cache.stats();
        let names = w.requests.iter().map(|&r| w.col_strings(r));
        let covers = self.mat_cache.cover(&self.engine, &req, names, ctx)?;
        ctx.check_cancelled()?;
        let (mut plan, stats, estimates, planned) = match self.plan_uncovered(w, &base, &covers)? {
            Some((plan, stats, estimates, key)) => (plan, stats, estimates, Some(key)),
            None => Default::default(),
        };
        ctx.check_cancelled()?;
        let (mut report, mut hooks) =
            self.execute_covered(&req, w, &base, &mut plan, &estimates, &covers, ctx)?;
        ctx.check_cancelled()?;
        let obs = hooks.observations.as_deref().unwrap_or_default();
        let (catalog, metrics) = (self.engine.catalog(), &mut ctx.metrics);
        self.planner
            .observe(catalog, &base, w, planned, &plan, &estimates, obs, metrics)?;
        ctx.check_cancelled()?;
        if let Some(harvest) = hooks.harvest.take() {
            let harvest = harvest.into_iter().map(|(cols, slot, table)| {
                let shard = (slot != WHOLE_TABLE_PIN).then_some(slot);
                (w.col_strings(cols), shard, table)
            });
            let results = report.results.iter().map(|(c, t)| (w.col_strings(*c), t));
            self.mat_cache
                .admit(&req, &covers, &w.aggregates, harvest, results);
        }
        ctx.check_cancelled()?;
        self.account(before, ctx);
        report.metrics = ctx.metrics;
        Ok(WorkloadOutcome {
            plan,
            stats,
            report,
        })
    }

    /// The base relation `workload` groups, resolved once for a request:
    /// its table as the catalog holds it now, or, under a filter, the
    /// selected rows materialized for this request (charged to `ctx` like
    /// the paper's pushed-down selection, §5.1.1) and keyed by the table
    /// and the canonical predicate at the table's version — so repeats
    /// share plans, statistics and cached aggregates, and all of them go
    /// stale when the table changes. Nothing is registered.
    fn base(&self, workload: &Workload, ctx: &mut QueryCtx) -> Result<Snapshot> {
        let source = self.engine.catalog().snapshot(&workload.table)?;
        let Some(filter) = &workload.filter else {
            return Ok(source);
        };
        let selected = self.engine.run_filter(&source.table, filter, ctx)?;
        self.engine.materialize(&selected, ctx);
        let name = format!("σ[{}]({})", filter.canonical(), source.name);
        Ok(Snapshot::derived(name, source.version, selected))
    }

    /// Plan stage: run the merge search only over the requests `covers`
    /// leaves uncovered (the plan cache applies to it; cache-dependent
    /// parts of the plan are never memoized, so a later request with a
    /// colder cache cannot reuse a plan that assumes warm state). `None`
    /// when every request is covered: no search runs.
    fn plan_uncovered(
        &mut self,
        workload: &Workload,
        base: &Snapshot,
        covers: &[Cover],
    ) -> Result<Option<Keyed>> {
        let uncovered: Vec<ColSet> = workload
            .requests
            .iter()
            .enumerate()
            .filter(|(i, _)| !covers.iter().any(|c| c.request == *i))
            .map(|(_, &r)| r)
            .collect();
        if uncovered.is_empty() {
            return Ok(None);
        }
        let planned = if uncovered.len() == workload.requests.len() {
            self.planner.plan(&self.engine, workload, base)?
        } else {
            let rest = Workload {
                requests: uncovered,
                ..workload.clone()
            };
            self.planner.plan(&self.engine, &rest, base)?
        };
        Ok(Some(planned))
    }

    /// Execute stage: seed `plan` with the covered requests as virtual
    /// roots — each a leaf whose input is the cached aggregate itself
    /// (per shard for a shard-served request) — and execute it,
    /// harvesting intermediates for admission when the request may
    /// admit, and always collecting per-node observations: the q-error
    /// report is produced under every statistics spec.
    #[allow(clippy::too_many_arguments)]
    fn execute_covered(
        &self,
        req: &CacheRequest,
        workload: &Workload,
        base: &Snapshot,
        plan: &mut LogicalPlan,
        estimates: &GroupEstimates,
        covers: &[Cover],
        ctx: &mut QueryCtx,
    ) -> Result<(ExecutionReport, CacheHooks)> {
        let mut roots = RootSources::default();
        for cover in covers {
            let cols = workload.requests[cover.request];
            if !roots.keys().any(|(c, _)| *c == cols.0) {
                plan.subplans.push(SubNode::leaf(cols));
            }
            let slot = cover.shard.unwrap_or(WHOLE_TABLE_PIN);
            roots.insert((cols.0, slot), Arc::clone(&cover.hit.table));
        }
        let mut hooks = CacheHooks {
            harvest: req.admits().then(Vec::new),
            observations: Some(Vec::new()),
        };
        let layout = Layout::of(base, workload, roots);
        let physical = physicalize(plan, workload, estimates, &layout, self.run, &mut |_| 1.0)?;
        let report = execute_plan(physical, workload, &self.engine, ctx, &mut hooks)?;
        Ok((report, hooks))
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

    /// Optimize `workload` (or fetch the cached plan) without executing.
    pub fn plan(&mut self, workload: &Workload) -> Result<(LogicalPlan, SearchStats)> {
        let base = self.base(workload, &mut QueryCtx::default())?;
        let (plan, stats, _, _) = self.planner.plan(&self.engine, workload, &base)?;
        Ok((plan, stats))
    }

    /// Execute an explicit plan for `workload` under the session's
    /// execution mode, returning the per-set result tables (no UNION
    /// ALL). For pre-built or deserialized plans; `Session::grouping_sets`
    /// is the usual path.
    pub fn run_plan(&mut self, plan: &LogicalPlan, workload: &Workload) -> Result<ExecutionReport> {
        self.execute(plan, workload, self.run, &mut |_| 1.0)
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
        let run = Run {
            mode: ExecutionMode::ClientSide,
            ..self.run
        };
        self.execute(plan, workload, run, size_estimate)
    }

    /// Physicalize an explicit plan under `run` and interpret it, with
    /// no cache and no deadline.
    fn execute(
        &self,
        plan: &LogicalPlan,
        workload: &Workload,
        run: Run,
        size_estimate: &mut dyn FnMut(ColSet) -> f64,
    ) -> Result<ExecutionReport> {
        let (ctx, hooks) = (&mut QueryCtx::default(), &mut CacheHooks::default());
        let base = self.base(workload, ctx)?;
        let layout = Layout::of(&base, workload, RootSources::default());
        let est = GroupEstimates::default();
        let physical = physicalize(plan, workload, &est, &layout, run, size_estimate)?;
        execute_plan(physical, workload, &self.engine, ctx, hooks)
    }

    /// Register a base table, replacing any same-named table (upsert
    /// semantics: a serving session accepts re-uploads). Replacement
    /// invalidates everything derived from the old contents: cached
    /// plans and statistics (both are keyed by the table's catalog
    /// version) and every cached materialized aggregate of the table.
    pub fn register_table(&mut self, name: impl Into<String>, table: Table) -> Result<()> {
        self.replace(&name.into(), table)
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
        let shards = self.engine.catalog().snapshot(name)?.shards;
        if !shards.is_empty() {
            let sizes: Vec<u64> = shards.iter().map(|&(_, _, rows)| rows as u64).collect();
            let skew = shard_skew(&sizes);
            self.pending.shard_skew = self.pending.shard_skew.max(skew);
            if skew >= RESHARD_SKEW_THRESHOLD {
                reshard_hint = true;
                self.pending.reshard_hints += 1;
            }
        }
        self.pending += self.mat_cache.appended(&self.engine, name)?;
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
        self.replace(name, table)
    }

    /// Replace (or register) `name` with `table`, split into the
    /// session's shard count, and drop every aggregate cached over the
    /// old entries.
    fn replace(&mut self, name: &str, table: Table) -> Result<()> {
        let catalog = self.engine.catalog();
        let old_shards = catalog.shard_desc(name).map_or(0, |d| d.shard_count);
        self.engine
            .catalog_mut()
            .replace_sharded(name, table, self.shards, None)?;
        self.mat_cache.replaced(name, old_shards.max(self.shards));
        Ok(())
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.planner.cache_stats()
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
        self.planner.last_node_cards()
    }

    /// Number of distinct (table, column-set) group counts held to
    /// correct sampled statistics. Zero under exact statistics.
    pub fn feedback_len(&self) -> usize {
        self.planner.feedback_len()
    }

    /// Borrow the engine (metrics, catalog inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutably borrow the engine, e.g. to create or drop indexes. Plans
    /// and statistics follow what the engine then holds: a cached plan
    /// is keyed by the base table's contents version and indexes and by
    /// the engine's emulated I/O, and statistics by the contents version.
    /// Cached aggregates of a table replaced here are dropped the first
    /// time a lookup finds them stale and their delta chain broken.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

#[cfg(test)]
mod tests;
