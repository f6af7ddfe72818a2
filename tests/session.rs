//! Integration tests for the `Session` API: dependency-parallel
//! execution equivalence, the workload plan cache, and the unified
//! error type.

use gbmqo_core::plan_to_text;
use gbmqo_core::prelude::*;
use gbmqo_cost::{CardinalityCostModel, IndexSnapshot, OptimizerCostModel};
use gbmqo_datagen::lineitem;
use gbmqo_integration::{assert_same_results, col_names, modular_table};
use gbmqo_stats::{CardinalitySource, DistinctEstimator, ExactSource, SampledSource};
use gbmqo_storage::{Column, DataType, Field, Schema, Table};
use proptest::prelude::*;

fn workload_of(table: &gbmqo_storage::Table, requests: &[Vec<usize>]) -> Workload {
    let names = col_names(table.num_columns());
    let reqs: Vec<Vec<&str>> = requests
        .iter()
        .map(|r| r.iter().map(|&c| names[c].as_str()).collect())
        .collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    Workload::new("t", table, &refs, &reqs).unwrap()
}

fn session_with(table: &gbmqo_storage::Table, mode: ExecutionMode, threads: usize) -> Session {
    Session::builder()
        .table("t", table.clone())
        .search(SearchConfig::pruned())
        .mode(mode)
        .parallelism(threads)
        .build()
        .unwrap()
}

/// Strategy: 2–5 columns with assorted cardinalities plus a random
/// request list mixing single- and multi-column sets.
fn workload_strategy() -> impl Strategy<Value = (Vec<usize>, Vec<Vec<usize>>)> {
    prop::collection::vec(prop::sample::select(vec![2usize, 3, 5, 11, 60, 300]), 2..=5)
        .prop_flat_map(|cards| {
            let n = cards.len();
            let requests =
                prop::collection::vec(prop::collection::vec(0..n, 1..=n.min(3)), 1..=(n + 2));
            (Just(cards), requests)
        })
}

/// Every catalog entry of `s` as `(name, version, rows)`, sorted.
fn catalog_state(s: &Session) -> Vec<(String, u64, usize)> {
    let mut state: Vec<_> = s
        .engine()
        .catalog()
        .entries()
        .map(|(name, e)| (name.to_string(), e.version, e.table.num_rows()))
        .collect();
    state.sort();
    state
}

/// Every [`CostModelSpec`]: each model over each kind of statistics.
fn cost_model_specs() -> Vec<CostModelSpec> {
    let sampled = Stats::Sampled {
        sample_size: 200,
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

/// What `Session::plan` chose before sessions kept statistics: a pruned
/// search over a cardinality source built for this one search.
fn plan_from_scratch(table: &Table, w: &Workload, spec: &CostModelSpec) -> LogicalPlan {
    let source = |stats: &Stats| -> Box<dyn CardinalitySource + '_> {
        match *stats {
            Stats::Exact => Box::new(ExactSource::new(table)),
            Stats::Sampled {
                sample_size,
                estimator,
                seed,
            } => Box::new(SampledSource::new(table, sample_size, estimator, seed)),
        }
    };
    let gbmqo = GbMqo::with_config(SearchConfig::pruned());
    let (plan, _) = match spec {
        CostModelSpec::Cardinality(stats) => {
            gbmqo.plan(w, &mut CardinalityCostModel::new(source(stats)))
        }
        CostModelSpec::Optimizer(stats) => gbmqo.plan(
            w,
            &mut OptimizerCostModel::new(source(stats), IndexSnapshot::none()),
        ),
    }
    .unwrap();
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The dependency-parallel executor computes exactly what the serial
    /// client-side driver computes, on arbitrary workloads and thread
    /// counts, up to row order.
    #[test]
    fn parallel_session_matches_serial(
        (cards, raw_requests) in workload_strategy(),
        threads in 1usize..=4,
    ) {
        // Dedup column indices inside each request; drop dup requests.
        let mut requests: Vec<Vec<usize>> = raw_requests
            .into_iter()
            .map(|mut r| { r.sort_unstable(); r.dedup(); r })
            .collect();
        requests.sort();
        requests.dedup();

        let table = modular_table(600, &cards);
        let w = workload_of(&table, &requests);

        let mut serial = session_with(&table, ExecutionMode::ClientSide, 1);
        let mut parallel = session_with(&table, ExecutionMode::Parallel, threads);

        let (plan_s, _) = serial.plan(&w).unwrap();
        let (plan_p, _) = parallel.plan(&w).unwrap();
        prop_assert_eq!(
            plan_s.render(&w.column_names),
            plan_p.render(&w.column_names),
            "identical sessions must choose identical plans"
        );

        let rep_s = serial.run_plan(&plan_s, &w).unwrap();
        let rep_p = parallel.run_plan(&plan_p, &w).unwrap();
        assert_same_results(&w, &rep_s, &rep_p, "parallel vs serial");
    }

    /// The session's statistics catalog changes when statistics are
    /// built, never what they say: a long-lived session plans and answers
    /// exactly like one whose statistics are thrown away before every
    /// search — and, with the feedback overlay off, exactly like a search
    /// over a source built from scratch — for every cost-model spec,
    /// adaptive or not, sharded or not, across an append.
    #[test]
    fn shared_statistics_plan_like_fresh_ones(
        (cards, raw_requests) in workload_strategy(),
        spec in 0usize..4,
        adaptive in any::<bool>(),
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
        let build = || {
            Session::builder()
                .table("t", table.clone())
                .search(SearchConfig::pruned())
                .cost_model(spec.clone())
                .adaptive(adaptive)
                .shards(if sharded { 2 } else { 0 })
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
            // Both sessions search anew; only `fresh` also forgets its
            // statistics (feedback and sketches survive on both sides).
            shared.clear_plan_cache();
            fresh.bump_stats_version();

            let (plan_shared, stats_shared) = shared.plan(w).unwrap();
            let (plan_fresh, stats_fresh) = fresh.plan(w).unwrap();
            prop_assert_eq!(plan_to_text(&plan_shared), plan_to_text(&plan_fresh), "step {}", step);
            prop_assert_eq!(stats_shared.optimizer_calls, stats_fresh.optimizer_calls);
            prop_assert_eq!(stats_shared.final_cost, stats_fresh.final_cost);
            if !adaptive {
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

    /// A read writes nothing shared. Whatever a workload, a hand-built
    /// plan or a SQL star query with a fact filter computes — in every
    /// mode, over 1, 2 or 4 shards, with the aggregate cache cold, warm
    /// or bypassed, or cancelled before it starts — the catalog holds the
    /// same entries at the same versions and sizes afterwards.
    #[test]
    fn a_read_leaves_the_catalog_as_it_found_it(
        (cards, raw_requests) in workload_strategy(),
        cancelled in any::<bool>(),
    ) {
        let mut requests: Vec<Vec<usize>> = raw_requests
            .into_iter()
            .map(|mut r| { r.sort_unstable(); r.dedup(); r })
            .collect();
        requests.sort();
        requests.dedup();
        let table = modular_table(600, &cards);
        let w = workload_of(&table, &requests);
        // A dimension keyed by every value of the fact's c0.
        let keys = cards[0] as i64;
        let dim = Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("label", DataType::Int64),
            ])
            .unwrap(),
            vec![
                Column::from_i64((0..keys).collect()),
                Column::from_i64((0..keys).map(|k| k % 2).collect()),
            ],
        )
        .unwrap();
        let star = "SELECT COUNT(*) FROM t JOIN d ON t.c0 = d.k WHERE c1 >= 1 \
                    GROUP BY GROUPING SETS ((c0), (c1), (c0, c1))";

        for mode in [ExecutionMode::ClientSide, ExecutionMode::ServerSide, ExecutionMode::Parallel] {
            for shards in [1u32, 2, 4] {
                for cache in ["cold", "warm", "bypass"] {
                    let mut s = Session::builder()
                        .table("t", table.clone())
                        .table("d", dim.clone())
                        .search(SearchConfig::pruned())
                        .mode(mode)
                        .parallelism(2)
                        .shards(shards)
                        .mat_cache_budget_bytes(1 << 20)
                        .build()
                        .unwrap();
                    let context = format!("{mode:?}, {shards} shards, {cache}, cancelled {cancelled}");
                    if cache == "warm" {
                        s.run_workload(&w, CacheControl::Default).unwrap();
                    }
                    let control = match cache {
                        "bypass" => CacheControl::Bypass,
                        _ => CacheControl::Default,
                    };
                    let before = catalog_state(&s);
                    if cancelled {
                        let token = CancelToken::new();
                        token.cancel();
                        s.set_cancel_token(Some(token));
                    }

                    let out = s.run_workload(&w, control);
                    prop_assert_eq!(out.is_err(), cancelled, "run_workload, {}", &context);
                    let naive = s.run_plan(&LogicalPlan::naive(&w), &w);
                    prop_assert_eq!(naive.is_err(), cancelled, "run_plan, {}", &context);
                    let lowered = gbmqo_sqlfe::compile(star, s.engine().catalog()).unwrap();
                    let sql = gbmqo_sqlfe::execute(&lowered, &mut s, control);
                    prop_assert!(cancelled || sql.is_ok(), "star query, {}: {:?}", &context, sql.err());
                    prop_assert_eq!(catalog_state(&s), before, "{}", &context);
                }
            }
        }
    }
}

/// A dashboard repeats its grouping sets over a skewed table while the
/// optimizer plans from a 128-row sample. Fed each round's observed
/// group counts, the adaptive loop stops re-optimizing, and the plan it
/// settles on costs no more under exact statistics than its first plan.
#[test]
fn adaptive_loop_settles_on_a_plan_no_worse_than_its_first() {
    let t = lineitem(20_000, 1.0, 42);
    let requests = [
        vec!["l_returnflag"],
        vec!["l_linestatus"],
        vec!["l_shipmode"],
        vec!["l_linenumber"],
        vec!["l_partkey", "l_linenumber"],
        vec!["l_suppkey", "l_shipmode"],
        vec!["l_partkey", "l_shipinstruct"],
        vec!["l_returnflag", "l_linestatus"],
    ];
    let mut universe: Vec<&str> = requests.concat();
    universe.sort_unstable();
    universe.dedup();
    let w = Workload::new("lineitem", &t, &universe, &requests).unwrap();
    let mut s = Session::builder()
        .table("lineitem", t.clone())
        .cost_model(CostModelSpec::Cardinality(Stats::Sampled {
            sample_size: 128,
            estimator: DistinctEstimator::Hybrid,
            seed: 7,
        }))
        .search(SearchConfig::pruned())
        .plan_cache(32)
        .adaptive(true)
        .build()
        .unwrap();
    let rounds: Vec<(f64, u64)> = (0..6)
        .map(|_| {
            let out = s.run_workload(&w, CacheControl::Default).unwrap();
            let mut exact = CardinalityCostModel::new(ExactSource::new(&t));
            let cost = gbmqo_core::explain(&out.plan, &w, &mut exact).1;
            (cost, out.report.metrics.plan_reopts)
        })
        .collect();
    let (first, last) = (rounds[0], rounds[rounds.len() - 1]);
    assert_eq!(
        last.1, 0,
        "still re-optimizing in the last round: {rounds:?}"
    );
    assert!(
        last.0 <= first.0,
        "(exact cost, re-opts) per round: {rounds:?}"
    );
}

#[test]
fn repeated_workload_skips_the_optimizer() {
    let table = modular_table(500, &[3, 7, 40]);
    let w = workload_of(&table, &[vec![0], vec![1], vec![2], vec![0, 1]]);
    let mut s = session_with(&table, ExecutionMode::Parallel, 2);

    let first = s.grouping_sets(&w).unwrap();
    assert!(!first.stats.cache_hit);
    assert!(first.stats.optimizer_calls > 0);

    let second = s.grouping_sets(&w).unwrap();
    assert!(second.stats.cache_hit);
    assert_eq!(
        second.stats.optimizer_calls, 0,
        "cache hits must issue zero optimizer cost calls"
    );
    assert_eq!(first.table.num_rows(), second.table.num_rows());
    let stats = s.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

#[test]
fn grouping_sets_union_matches_across_modes() {
    let table = modular_table(500, &[4, 6, 25]);
    let w = workload_of(&table, &[vec![0], vec![1], vec![2]]);
    let mut rows = Vec::new();
    for mode in [
        ExecutionMode::ClientSide,
        ExecutionMode::ServerSide,
        ExecutionMode::Parallel,
    ] {
        let mut s = session_with(&table, mode, 2);
        let out = s.grouping_sets(&w).unwrap();
        assert_eq!(out.grouping_set_count(), 3, "{mode:?}");
        rows.push(out.table.num_rows());
    }
    assert!(
        rows.windows(2).all(|w| w[0] == w[1]),
        "union sizes: {rows:?}"
    );
}

#[test]
fn unified_error_type_spans_subsystems() {
    // Storage errors surface as CoreError::Storage through the prelude
    // Result, stats errors as CoreError::Stats — one result type for the
    // whole public API.
    let table = modular_table(100, &[3]);
    let w = workload_of(&table, &[vec![0]]);
    let mut s = Session::builder().build().unwrap(); // no tables registered
    let err = s.grouping_sets(&w).unwrap_err();
    assert!(matches!(err, CoreError::Storage(_)), "got {err:?}");
    assert!(err.to_string().contains("table"));

    let err = Session::builder()
        .table("t", table)
        .cost_model(CostModelSpec::Cardinality(Stats::Sampled {
            sample_size: 0,
            estimator: gbmqo_stats::DistinctEstimator::Hybrid,
            seed: 1,
        }))
        .build()
        .unwrap_err();
    assert!(matches!(err, CoreError::InvalidSession(_)), "got {err:?}");
}

/// Plan and run `w`, asserting the search ran and that every node's
/// estimate — exact statistics — equals what execution then observed,
/// i.e. the statistics describe the table's current contents. Returns
/// the search stats.
fn assert_statistics_current(s: &mut Session, w: &Workload, context: &str) -> SearchStats {
    let out = s.run_workload(w, CacheControl::Default).unwrap();
    assert!(!out.stats.cache_hit, "{context}: expected a fresh search");
    assert!(!s.last_node_cards().is_empty(), "{context}");
    for card in s.last_node_cards() {
        assert_eq!(
            card.estimated, card.observed,
            "{context}: stale statistic for {:?}",
            card.cols
        );
    }
    out.stats
}

#[test]
fn statistics_are_created_once_per_table_version() {
    // c0, c1 are tiny, so both searches merge them first and then weigh
    // the same second-round merges.
    let table = modular_table(600, &[2, 3, 50, 200]);
    let mut s = Session::builder()
        .table("t", table.clone())
        .build()
        .unwrap();
    let four = workload_of(&table, &[vec![0], vec![1], vec![2], vec![3]]);
    let first = s.plan(&four).unwrap().1;
    assert!(first.stats_created >= 4, "singles and merges: {first:?}");

    // A different workload whose search only meets column sets the
    // first one already counted: it searches, and builds nothing.
    let three = workload_of(&table, &[vec![0], vec![1], vec![2]]);
    let second = s.plan(&three).unwrap().1;
    assert!(!second.cache_hit && second.optimizer_calls > 0);
    assert_eq!((second.stats_created, second.stats_create_us), (0, 0));

    // Same plan as a session meeting the workload cold.
    let mut cold = Session::builder().table("t", table).build().unwrap();
    let (cold_plan, cold_stats) = cold.plan(&three).unwrap();
    assert!(cold_stats.stats_created > 0);
    assert_eq!(cold_stats.optimizer_calls, second.optimizer_calls);
    assert_eq!(
        plan_to_text(&cold_plan),
        plan_to_text(&s.plan(&three).unwrap().0)
    );
}

#[test]
fn every_table_mutation_invalidates_statistics() {
    for shards in [0, 2] {
        let cards = [3, 7, 40];
        let table = modular_table(500, &cards);
        let w = workload_of(&table, &[vec![0], vec![1], vec![2], vec![0, 1]]);
        let mut s = Session::builder()
            .table("t", table.clone())
            .shards(shards)
            .build()
            .unwrap();
        let built = assert_statistics_current(&mut s, &w, "initial");
        assert!(built.stats_created > 0);

        // Each mutation brings values no earlier contents had, so a
        // statistic kept from before would under-count.
        let grown = |extra: usize| {
            let cards: Vec<usize> = cards.iter().map(|c| c + extra).collect();
            modular_table(500, &cards)
        };
        s.append("t", grown(2)).unwrap();
        let rebuilt = assert_statistics_current(&mut s, &w, "append");
        assert!(rebuilt.stats_created > 0);

        s.register_table("t", grown(4)).unwrap();
        assert_statistics_current(&mut s, &w, "register_table");

        s.append("t", grown(6)).unwrap();
        s.reshard("t").unwrap();
        assert_statistics_current(&mut s, &w, "append + reshard");

        // Behind the session's back, and without bump_stats_version.
        s.engine_mut().catalog_mut().replace("t", grown(8)).unwrap();
        assert_statistics_current(&mut s, &w, "Catalog::replace");
        s.engine_mut().catalog_mut().append("t", grown(10)).unwrap();
        assert_statistics_current(&mut s, &w, "Catalog::append");

        // Same contents, declared changed: everything is rebuilt.
        s.bump_stats_version();
        let declared = assert_statistics_current(&mut s, &w, "bump_stats_version");
        assert!(declared.stats_created > 0);
    }
}
