//! The session's unit tests: the stages it composes, and what its
//! owners — the planner and the aggregate cache — hold after a request.

use super::*;
use crate::cache::WorkloadFingerprint;
use crate::physicalize::Read;
use crate::planner::{current, q_error, Observed, Stats, MAX_DERIVED_STATS};
use gbmqo_exec::{AggSpec, CancelToken, ExecError, Input, Predicate};
use gbmqo_stats::{CardinalitySource, DistinctEstimator, SampleRule, SampledSource, StatsStore};
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
fn the_mode_sets_the_one_thread_budget() {
    use ExecutionMode::{ClientSide, Parallel};
    for mode in [Parallel, ClientSide] {
        let (mut s, w) = session(mode);
        let out = s.run_workload(&w, CacheControl::Default).unwrap();
        assert_eq!(s.engine().kernel_threads(), out.report.physical.threads);
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
    assert_eq!(s.planner.cost_model, CostModelSpec::Optimizer(served));
    assert_eq!(s.planner.cost_model, CostModelSpec::default());

    let w = Workload::single_columns("r", &table(), &["a", "b", "c"]).unwrap();
    let specs = [
        CostModelSpec::Cardinality(Stats::Exact),
        CostModelSpec::Cardinality(sampled(64)),
        CostModelSpec::Optimizer(Stats::Exact),
        CostModelSpec::Optimizer(sampled(64)),
    ];
    let keys: std::collections::HashSet<WorkloadFingerprint> = specs
        .iter()
        .map(|spec| {
            let base = s.engine().catalog().snapshot("r").unwrap();
            WorkloadFingerprint::compute(&w, &SearchConfig::pruned(), spec.tag(0.0), &base)
        })
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
        let (table_stats, _) = s.planner.stats.table("r", version);
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
    let base = s.engine.catalog().snapshot("r").unwrap();
    let req = s
        .mat_cache
        .request(&base, &w.aggregates, CacheControl::Default);
    let names = || w.requests.iter().map(|&r| w.col_strings(r));
    let token = CancelToken::new();
    token.cancel();
    let mut cancelled = QueryCtx {
        cancel: Some(token),
        ..QueryCtx::default()
    };
    // The lazy refresh's delta scan is cancelled: the error
    // propagates instead of taking the fallback that drops.
    let err = s.mat_cache.cover(&s.engine, &req, names(), &mut cancelled);
    assert!(matches!(err.unwrap_err(), ExecError::Cancelled { .. }));
    assert_eq!(cancelled.metrics.delta_fallbacks, 0);
    assert_eq!(s.mat_cache_stats().stale_drops, 0);
    // So an uncancelled cover still refreshes what it needs.
    let mut ctx = QueryCtx::default();
    let covers = s.mat_cache.cover(&s.engine, &req, names(), &mut ctx);
    let covers = covers.unwrap();
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
        counts: &counts,
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
    let none = StatsStore::new();
    let mut bare = Observed {
        sample: sample_of(&t),
        counts: &none,
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
        counts: &counts,
    };
    assert_eq!(overlay.distinct(&[2]), 240.0);
}

/// The group counts `s` holds over table `r`, with the version they
/// describe, as last written.
fn observed(s: &mut Session) -> &(u64, StatsStore) {
    let version = s.engine().catalog().table_version("r").unwrap();
    s.planner.stats.table("r", version).1
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
    assert_eq!(observed(&mut s).1.get(&a), Some(3.0));
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
    assert_eq!(observed(&mut s).1.get(&a), Some(7.0));
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
    let first = version(&s);
    assert_eq!(observed(&mut s).0, first);
    assert_eq!(observed(&mut s).1.get(&a), Some(3.0));
    s.append("r", table()).unwrap();
    let doubled = version(&s);
    let counts = current(&mut s.planner.stats, s.engine.catalog(), "r", doubled).1;
    assert_eq!(counts.get(&a), Some(6.0));
    s.grouping_sets(&w).unwrap();
    assert_eq!(observed(&mut s).0, doubled);
    assert_eq!(observed(&mut s).1.get(&a), Some(3.0), "observed again");

    s.register_table("r", table()).unwrap();
    let replaced = version(&s);
    let counts = current(&mut s.planner.stats, s.engine.catalog(), "r", replaced).1;
    assert!(counts.is_empty());
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

#[test]
fn the_default_builder_is_the_documented_builder() {
    // 17 distinct workloads through a 16-plan cache: one eviction.
    let sets: [&[&str]; 7] = [
        &["a"],
        &["b"],
        &["c"],
        &["a", "b"],
        &["a", "c"],
        &["b", "c"],
        &["a", "b", "c"],
    ];
    let t = table();
    let mut stats = Vec::new();
    for builder in [SessionBuilder::default(), Session::builder()] {
        let mut s = builder.table("r", t.clone()).build().unwrap();
        for mask in 1..=17usize {
            let requests: Vec<Vec<&str>> = (0..sets.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| sets[i].to_vec())
                .collect();
            let w = Workload::new("r", &t, &["a", "b", "c"], &requests).unwrap();
            s.grouping_sets(&w).unwrap();
        }
        let cache = s.cache_stats();
        stats.push((cache.entries, cache.evictions, cache.misses));
    }
    assert_eq!(stats[0], (16, 1, 17));
    assert_eq!(stats[0], stats[1]);
}

/// Sorted `(group values, count)` rows of a result whose last column
/// counts.
fn counted_rows(t: &Table) -> Vec<(Vec<gbmqo_storage::Value>, i64)> {
    let n = t.num_columns();
    let mut rows: Vec<_> = (0..t.num_rows())
        .map(|r| {
            let keys = (0..n - 1).map(|c| t.value(r, c)).collect();
            (keys, t.value(r, n - 1).as_int().unwrap())
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn a_filtered_workload_groups_the_selected_rows() {
    let (mut s, _) = session(ExecutionMode::ClientSide);
    let t = table();
    let pred = Predicate::Ge("c".into(), gbmqo_storage::Value::Int(1));
    let w = Workload::new("r", &t, &["a", "b"], &[vec!["a"], vec!["a", "b"]])
        .unwrap()
        .with_filter(Some(pred.clone()));
    let out = s.run_workload(&w, CacheControl::Default).unwrap();
    // One result per requested set, straight from the plan: no union.
    assert_eq!(out.report.results.len(), 2);
    let mut m = ExecMetrics::new();
    let filtered = gbmqo_exec::filter(&t, &pred, &mut m).unwrap();
    let direct = gbmqo_exec::sort_group_by(&filtered, &[0], &[AggSpec::count()], &mut m).unwrap();
    let by_a = out.report.result_of(&w, &["a"]).unwrap();
    assert_eq!(counted_rows(by_a), counted_rows(&direct));
    let total: i64 = counted_rows(by_a).iter().map(|(_, n)| n).sum();
    assert_eq!(total as usize, filtered.num_rows());
    assert!(filtered.num_rows() < t.num_rows());
}

#[test]
fn a_filtered_fact_is_one_unsharded_read_of_a_sharded_fact() {
    let t = table();
    let mut s = Session::builder().build().unwrap();
    s.engine_mut()
        .catalog_mut()
        .register_sharded("r", t.clone(), 4, Some(vec!["a".into()]))
        .unwrap();
    let index = gbmqo_storage::IndexKind::NonClustered;
    s.engine_mut()
        .catalog_mut()
        .create_index("r", "ix_a", index, vec![0])
        .unwrap();
    let w = Workload::single_columns("r", &t, &["a", "b"]).unwrap();
    let plan = LogicalPlan::naive(&w);
    let reads = |base: &Snapshot| {
        let layout = Layout::of(base, &w, RootSources::default());
        let est = GroupEstimates::default();
        let p = physicalize(&plan, &w, &est, &layout, s.run, &mut |_| 1.0).unwrap();
        p.edges().map(|e| e.reads.clone()).collect::<Vec<_>>()
    };
    let pred = Predicate::Ge("c".into(), gbmqo_storage::Value::Int(1));
    let filtered = w.clone().with_filter(Some(pred));
    let base = s.base(&filtered, &mut QueryCtx::default()).unwrap();
    assert!(base.derived && base.shards.is_empty() && base.indexes.is_empty());
    for edge in reads(&base) {
        assert!(matches!(&edge[..], [Read::Base(Input::Table(t))] if Arc::ptr_eq(t, &base.table)));
    }
    // Unfiltered, the catalog's fact keeps its shards and its index.
    let source = s.base(&w, &mut QueryCtx::default()).unwrap();
    assert!(!source.derived && source.indexes.len() == 1);
    for edge in reads(&source) {
        assert_eq!(edge.len(), 4);
        assert!(edge.iter().all(|read| matches!(read, Read::Shard(_))));
    }
    // Resolving a filtered base registered nothing.
    assert_eq!(s.engine().catalog().entries().count(), 5);
}

/// Statistics held for relations the catalog does not hold.
fn derived_stats_held(s: &mut Session) -> usize {
    let catalog = s.engine.catalog();
    let mut held = 0;
    s.planner.stats.retain(|name| {
        held += usize::from(!catalog.contains(name));
        true
    });
    held
}

#[test]
fn statistics_of_filtered_relations_stay_within_their_cap() {
    let (mut s, w) = session(ExecutionMode::ClientSide);
    for i in 0..MAX_DERIVED_STATS as i64 + 4 {
        let pred = Predicate::Eq("c".into(), gbmqo_storage::Value::Int(i));
        let filtered = w.clone().with_filter(Some(pred));
        s.run_workload(&filtered, CacheControl::Default).unwrap();
        assert!(derived_stats_held(&mut s) <= MAX_DERIVED_STATS);
    }
    assert_eq!(derived_stats_held(&mut s), MAX_DERIVED_STATS);
    // Planning the catalog's own table drops none of them.
    s.run_workload(&w, CacheControl::Default).unwrap();
    assert_eq!(derived_stats_held(&mut s), MAX_DERIVED_STATS);
}

#[test]
fn an_append_drops_a_filtered_relations_aggregates_under_every_policy() {
    for policy in [
        RefreshPolicy::Lazy,
        RefreshPolicy::Eager,
        RefreshPolicy::Disabled,
    ] {
        let (mut s, w) = cached_session(0, policy);
        let pred = Predicate::Ge("c".into(), gbmqo_storage::Value::Int(1));
        let filtered = w.with_filter(Some(pred));
        s.run_workload(&filtered, CacheControl::Default).unwrap();
        let held = s.mat_cache_stats().entries;
        assert!(held > 0, "{policy:?}");
        s.append("r", table()).unwrap();
        let out = s.run_workload(&filtered, CacheControl::Default).unwrap();
        assert_eq!(out.report.metrics.delta_refreshes, 0, "{policy:?}");
        let stats = s.mat_cache_stats();
        assert_eq!(
            (stats.stale_drops, stats.entries),
            (held, held),
            "{policy:?}"
        );
        let by_a = out.report.result_of(&filtered, &["a"]).unwrap();
        let total: i64 = counted_rows(by_a).iter().map(|(_, n)| n).sum();
        assert_eq!(total, 2 * 192, "{policy:?}: both copies' rows with c >= 1");
    }
}
