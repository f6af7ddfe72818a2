//! Property-based tests over the optimizer's core invariants.

use gbmqo_core::prelude::*;
use gbmqo_core::schedule::{plan_min_storage, schedule_plan, simulate_peak};
use gbmqo_core::{optimal_plan, render_sql};
use gbmqo_cost::CardinalityCostModel;
use gbmqo_integration::{assert_same_results, col_names, modular_table, session_with};
use gbmqo_stats::{DistinctEstimator, ExactSource};
use gbmqo_storage::Table;
use proptest::prelude::*;

/// Strategy: 2–6 columns with cardinalities from tiny to row count.
fn cards_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(
        prop::sample::select(vec![2usize, 3, 7, 20, 100, 400]),
        2..=6,
    )
}

fn workload_of(table: &gbmqo_storage::Table, n: usize) -> Workload {
    let names = col_names(n);
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    Workload::single_columns("t", table, &refs).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any plan the greedy search returns (any configuration) computes
    /// exactly the same results as the naive plan.
    #[test]
    fn optimized_plan_is_semantically_equivalent(
        cards in cards_strategy(),
        binary in any::<bool>(),
        sub in any::<bool>(),
        mono in any::<bool>(),
    ) {
        let table = modular_table(400, &cards);
        let w = workload_of(&table, cards.len());
        let config = SearchConfig {
            binary_only: binary,
            subsumption_pruning: sub,
            monotonicity_pruning: mono,
            ..Default::default()
        };
        let mut model = CardinalityCostModel::new(ExactSource::new(&table));
        let (plan, stats) = GbMqo::with_config(config).plan(&w, &mut model).unwrap();
        plan.validate(&w).unwrap();
        prop_assert!(stats.final_cost <= stats.naive_cost + 1e-9);

        let mut session = session_with(table, "t");
        let optimized = session.run_plan(&plan, &w).unwrap();
        let naive = session.run_plan(&LogicalPlan::naive(&w), &w).unwrap();
        assert_same_results(&w, &naive, &optimized, "prop");
        // counts in every result sum to the row count
        for (_, t) in &optimized.results {
            let cnt = t.num_columns() - 1;
            let total: i64 = (0..t.num_rows()).map(|r| t.value(r, cnt).as_int().unwrap()).sum();
            prop_assert_eq!(total, 400);
        }
    }

    /// The exhaustive optimum never costs more than the greedy plan, and
    /// the greedy plan never costs more than naive.
    #[test]
    fn cost_ordering_optimal_greedy_naive(cards in cards_strategy()) {
        let table = modular_table(300, &cards);
        let w = workload_of(&table, cards.len());
        let mut m1 = CardinalityCostModel::new(ExactSource::new(&table));
        let (_, opt_cost) = optimal_plan(&w, &mut m1).unwrap();
        let mut m2 = CardinalityCostModel::new(ExactSource::new(&table));
        let (_, stats) = GbMqo::new().plan(&w, &mut m2).unwrap();
        prop_assert!(opt_cost <= stats.final_cost + 1e-6);
        prop_assert!(stats.final_cost <= stats.naive_cost + 1e-6);
    }

    /// §4.3 soundness: with the cardinality model, binary merges, and
    /// disjoint single-column inputs, pruning does not change the final
    /// plan cost.
    #[test]
    fn pruning_soundness_under_cardinality_model(cards in cards_strategy()) {
        let table = modular_table(500, &cards);
        let w = workload_of(&table, cards.len());
        let binary = SearchConfig { binary_only: true, ..Default::default() };
        let run = |cfg: SearchConfig| {
            let mut m = CardinalityCostModel::new(ExactSource::new(&table));
            GbMqo::with_config(cfg).plan(&w, &mut m).unwrap().1.final_cost
        };
        let plain = run(binary.clone());
        let pruned = run(SearchConfig {
            subsumption_pruning: true,
            monotonicity_pruning: true,
            ..binary
        });
        prop_assert!((plain - pruned).abs() < 1e-6, "plain {} pruned {}", plain, pruned);
    }

    /// The storage recursion is an upper bound the emitted schedule meets:
    /// simulating the schedule never exceeds the predicted peak.
    #[test]
    fn schedule_peak_matches_recursion(cards in cards_strategy()) {
        let table = modular_table(300, &cards);
        let w = workload_of(&table, cards.len());
        let mut model = CardinalityCostModel::new(ExactSource::new(&table));
        let (plan, _) = GbMqo::new().plan(&w, &mut model).unwrap();
        let mut m2 = CardinalityCostModel::new(ExactSource::new(&table));
        let mut coster = gbmqo_core::coster::EdgeCoster::new(&mut m2, w.base_ordinals.clone());
        let mut d = |s: ColSet| coster.result_bytes(s);
        let predicted = plan_min_storage(&plan, &mut d);
        let steps = schedule_plan(&plan, &mut d);
        let simulated = simulate_peak(&steps, &mut d);
        prop_assert!(simulated <= predicted + 1e-6,
            "simulated {} > predicted {}", simulated, predicted);
    }

    /// A storage constraint is respected by the chosen plan's predicted
    /// peak (and zero budget forces the naive plan).
    #[test]
    fn storage_constraint_is_respected(cards in cards_strategy(), budget in 0.0f64..50_000.0) {
        let table = modular_table(300, &cards);
        let w = workload_of(&table, cards.len());
        let mut model = CardinalityCostModel::new(ExactSource::new(&table));
        let (plan, _) = GbMqo::with_config(SearchConfig {
            max_intermediate_bytes: Some(budget),
            ..Default::default()
        })
        .plan(&w, &mut model)
        .unwrap();
        let mut m2 = CardinalityCostModel::new(ExactSource::new(&table));
        let mut coster = gbmqo_core::coster::EdgeCoster::new(&mut m2, w.base_ordinals.clone());
        let mut d = |s: ColSet| coster.result_bytes(s);
        let predicted = plan_min_storage(&plan, &mut d);
        prop_assert!(predicted <= budget + 1e-6,
            "plan needs {} bytes over budget {}", predicted, budget);
    }

    /// The compact plan text format roundtrips every plan the optimizer
    /// can produce.
    #[test]
    fn plan_text_roundtrip(cards in cards_strategy(), binary in any::<bool>()) {
        let table = modular_table(250, &cards);
        let w = workload_of(&table, cards.len());
        let mut model = CardinalityCostModel::new(ExactSource::new(&table));
        let (plan, _) = GbMqo::with_config(SearchConfig {
            binary_only: binary,
            ..Default::default()
        })
        .plan(&w, &mut model)
        .unwrap();
        let text = gbmqo_core::plan_to_text(&plan);
        let back = gbmqo_core::plan_from_text(&text).unwrap();
        prop_assert_eq!(&plan, &back);
        // and the deserialized plan still validates + executes identically
        back.validate(&w).unwrap();
        let mut session = session_with(table, "t");
        let a = session.run_plan(&plan, &w).unwrap();
        let b = session.run_plan(&back, &w).unwrap();
        assert_same_results(&w, &a, &b, "roundtrip");
    }

    /// SQL rendering is structurally consistent for arbitrary plans.
    #[test]
    fn sql_script_is_consistent(cards in cards_strategy()) {
        let table = modular_table(200, &cards);
        let w = workload_of(&table, cards.len());
        let mut model = CardinalityCostModel::new(ExactSource::new(&table));
        let (plan, _) = GbMqo::new().plan(&w, &mut model).unwrap();
        let sql = render_sql(&plan, &w);
        let selects = sql.iter().filter(|s| s.starts_with("SELECT")).count();
        let intos = sql.iter().filter(|s| s.contains(" INTO ")).count();
        let drops = sql.iter().filter(|s| s.starts_with("DROP")).count();
        prop_assert_eq!(selects, plan.node_count());
        prop_assert_eq!(intos, drops);
        prop_assert_eq!(intos, plan.materialized_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The serial executor's *actual* peak temp storage never exceeds
    /// the peak simulated for the schedule it runs, when the schedule
    /// is derived from exact materialized sizes. This ties the §4.4
    /// scheduling model to the catalog's byte-accurate accounting.
    #[test]
    fn executor_peak_never_exceeds_simulated_peak(cards in cards_strategy()) {
        let table = modular_table(300, &cards);
        let w = workload_of(&table, cards.len());
        let mut model = CardinalityCostModel::new(ExactSource::new(&table));
        let (plan, _) = GbMqo::new().plan(&w, &mut model).unwrap();

        // Exact size of a node's materialization: run the Group By and
        // measure the result (count-only workloads make a set's result
        // identical whichever ancestor it is computed from).
        let base = table.clone();
        let ords_of = |s: ColSet| w.base_cols(s);
        let mut exact = move |s: ColSet| -> f64 {
            let mut m = gbmqo_exec::ExecMetrics::new();
            let t = gbmqo_exec::sort_group_by(
                &base, &ords_of(s), &[gbmqo_exec::AggSpec::count()], &mut m,
            ).unwrap();
            t.byte_size() as f64
        };

        let steps = schedule_plan(&plan, &mut exact);
        let simulated = simulate_peak(&steps, &mut exact);

        let mut session = Session::builder().table("t", table).build().unwrap();
        let report = session.run_plan_scheduled(&plan, &w, &mut exact).unwrap();
        prop_assert!(
            report.peak_temp_bytes as f64 <= simulated + 1e-6,
            "actual peak {} > simulated peak {}",
            report.peak_temp_bytes, simulated
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Delta-propagation invariant: under any append schedule, a warm
    /// session whose cached aggregates are delta-refreshed returns
    /// exactly what a cold session computes from scratch over the full
    /// table — in every execution mode, sharded and unsharded,
    /// count-only and SUM/MIN/MAX workloads alike.
    #[test]
    fn refreshed_cache_equals_cold_recompute(
        cards in prop::collection::vec(prop::sample::select(vec![3usize, 7, 20, 400]), 2..=4),
        appends in prop::collection::vec(20usize..150, 1..=3),
        shards in prop::sample::select(vec![0u32, 4]),
        mode in prop::sample::select(vec![
            ExecutionMode::ClientSide,
            ExecutionMode::ServerSide,
            ExecutionMode::Parallel,
        ]),
        rich_aggs in any::<bool>(),
    ) {
        let base_rows = 300usize;
        let base = modular_table(base_rows, &cards);
        let names = col_names(cards.len());
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut w = Workload::single_columns("t", &base, &refs).unwrap();
        if rich_aggs {
            // every mergeable aggregate kind rides along with the count
            w = w.with_aggregates(vec![
                gbmqo_exec::AggSpec::count(),
                gbmqo_exec::AggSpec::sum("c0", "sum_c0"),
                gbmqo_exec::AggSpec::min("c1", "min_c1"),
                gbmqo_exec::AggSpec::max("c0", "max_c0"),
            ]);
        }

        let mut warm = Session::builder()
            .table("t", base.clone())
            .search(SearchConfig::pruned())
            .mode(mode)
            .shards(shards)
            .mat_cache_budget_bytes(1 << 20)
            .build()
            .unwrap();
        warm.run_workload(&w, CacheControl::Default).unwrap();

        let mut parts: Vec<Table> = vec![base];
        let mut offset = base_rows;
        for (i, &n) in appends.iter().enumerate() {
            // Slice past the rows generated so far, so high-cardinality
            // columns introduce group keys the cached aggregate has
            // never seen.
            let delta = modular_table(offset + n, &cards)
                .slice_rows(offset, n)
                .unwrap();
            offset += n;
            warm.append("t", delta.clone()).unwrap();
            parts.push(delta);

            let warm_out = warm.run_workload(&w, CacheControl::Default).unwrap();

            let all: Vec<&Table> = parts.iter().collect();
            let mut cold = Session::builder()
                .table("t", Table::concat(&all).unwrap())
                .search(SearchConfig::pruned())
                .mode(mode)
                .shards(shards)
                .build()
                .unwrap();
            let cold_out = cold.run_workload(&w, CacheControl::Default).unwrap();
            // Full-column comparison (not just keys + count): SUM/MIN/MAX
            // payloads must survive the delta merge bit-for-bit.
            for (set, warm_t) in &warm_out.report.results {
                let cold_t = &cold_out
                    .report
                    .results
                    .iter()
                    .find(|(s, _)| s == set)
                    .unwrap_or_else(|| panic!("append {i}: cold run missing a set"))
                    .1;
                prop_assert_eq!(
                    rows_by_name(warm_t),
                    rows_by_name(cold_t),
                    "append {} (shards {}, {:?}, set {:?})",
                    i, shards, mode, w.col_names(*set)
                );
            }
        }
    }
}

/// One part (the base or a delta) of an append schedule over the
/// four-typed table `k` Int64 · `s` Utf8 · `f` Float64 · `d` Date32.
#[derive(Debug, Clone)]
struct AppendPart {
    /// Per row: a NULL mask over the four columns and the value seed.
    rows: Vec<(u8, i64)>,
    /// Whether the NULL masks apply — off, the part has no NULL.
    nulls: bool,
    /// The part's `s` column is NULL in every row.
    all_null_strs: bool,
    /// Distinct strings the part draws from; more than the base's means
    /// strings the table has never seen.
    alphabet: i64,
    /// Take the rows from the base (a gather, sharing its dictionary)
    /// instead of building them with a dictionary of their own.
    from_base: bool,
}

fn append_part(max_rows: usize) -> impl Strategy<Value = AppendPart> {
    (
        prop::collection::vec((0u8..16, 0i64..10_000), 0..=max_rows),
        (
            any::<bool>(),
            0u8..5,
            prop::sample::select(vec![2i64, 5, 9]),
            0u8..3,
        ),
    )
        .prop_map(
            |(rows, (nulls, all_null_strs, alphabet, from_base))| AppendPart {
                rows,
                nulls,
                all_null_strs: all_null_strs == 0,
                alphabet,
                from_base: from_base == 0,
            },
        )
}

fn build_part(part: &AppendPart, base: Option<&Table>) -> Table {
    use gbmqo_storage::{DataType, Field, Schema, TableBuilder, Value};
    if let Some(base) = base.filter(|b| part.from_base && b.num_rows() > 0) {
        let picks: Vec<u32> = part
            .rows
            .iter()
            .map(|&(_, v)| (v as usize % base.num_rows()) as u32)
            .collect();
        return base.gather(&picks);
    }
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("s", DataType::Utf8),
        Field::new("f", DataType::Float64),
        Field::new("d", DataType::Date32),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    for &(mask, v) in &part.rows {
        let null = |bit: u8| part.nulls && mask & (1 << bit) != 0;
        let cell = |is_null: bool, value: Value| if is_null { Value::Null } else { value };
        b.push_row(&[
            cell(null(0), Value::Int(v % 13)),
            cell(
                null(1) || part.all_null_strs,
                Value::str(&format!("s{}", v % part.alphabet)),
            ),
            cell(null(2), Value::Float((v % 7) as f64 * 0.5)),
            cell(null(3), Value::Date((v % 11) as i32)),
        ])
        .unwrap();
    }
    b.finish().unwrap()
}

fn cells(t: &Table) -> Vec<Vec<gbmqo_storage::Value>> {
    (0..t.num_rows())
        .map(|r| (0..t.num_columns()).map(|c| t.value(r, c)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In-place growth is invisible: any schedule of appends through
    /// `Catalog::append` leaves exactly `Table::concat` of base + deltas,
    /// cell for cell — NULLs on either side, both or neither, all-NULL
    /// string parts, deltas that bring new strings, share the base's
    /// dictionary or are empty, an empty base, every column type — and
    /// `delta_chain` + `slice_rows` over the grown table hand back
    /// exactly the appended rows.
    #[test]
    fn catalog_appends_equal_concat(
        base in append_part(40),
        deltas in prop::collection::vec(append_part(30), 1..=5),
    ) {
        let base = build_part(&base, None);
        let deltas: Vec<Table> = deltas.iter().map(|d| build_part(d, Some(&base))).collect();
        let mut catalog = gbmqo_storage::Catalog::new();
        catalog.register("t", base.clone()).unwrap();
        let v0 = catalog.table_version("t").unwrap();
        let base_cells = cells(&base);
        let mut parts: Vec<&Table> = vec![&base];
        for delta in &deltas {
            catalog.append("t", delta.clone()).unwrap();
            parts.push(delta);
            let want = Table::concat(&parts).unwrap();
            prop_assert_eq!(cells(catalog.table("t").unwrap()), cells(&want));
        }
        let range = catalog.delta_chain("t", None, v0).unwrap();
        prop_assert_eq!(range.start_row, base.num_rows());
        let appended = catalog
            .table("t")
            .unwrap()
            .slice_rows(range.start_row, range.rows)
            .unwrap();
        prop_assert_eq!(cells(&appended), cells(&Table::concat(&parts[1..]).unwrap()));
        // the registered clone shared `base`'s columns: still the base
        prop_assert_eq!(cells(&base), base_cells);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The same schedules through `Session::append`, at 1 / 2 / 4 shards
    /// under lazy and eager refresh: the logical table is the concat of
    /// its parts, the shards' rows partition it, and a warm session's
    /// answers equal a cold session's over base + deltas.
    #[test]
    fn session_appends_equal_concat_and_cold_recompute(
        base in append_part(40).prop_filter("sessions start from rows", |p| !p.rows.is_empty()),
        deltas in prop::collection::vec(append_part(30), 1..=3),
    ) {
        let base = build_part(&base, None);
        let deltas: Vec<Table> = deltas.iter().map(|d| build_part(d, Some(&base))).collect();
        let w = Workload::single_columns("t", &base, &["k", "s", "d"]).unwrap();
        for shards in [1u32, 2, 4] {
            for policy in [RefreshPolicy::Lazy, RefreshPolicy::Eager] {
                let mut warm = Session::builder()
                    .table("t", base.clone())
                    .shards(shards)
                    .refresh_policy(policy)
                    .mat_cache_budget_bytes(1 << 20)
                    .build()
                    .unwrap();
                warm.run_workload(&w, CacheControl::Default).unwrap();
                let mut parts: Vec<&Table> = vec![&base];
                for delta in &deltas {
                    warm.append("t", delta.clone()).unwrap();
                    parts.push(delta);
                }
                let want = Table::concat(&parts).unwrap();
                let catalog = warm.engine().catalog();
                prop_assert_eq!(cells(catalog.table("t").unwrap()), cells(&want));
                let snap = catalog.snapshot("t").unwrap();
                if !snap.shards.is_empty() {
                    let shard_tables: Vec<Table> =
                        snap.shards.iter().map(|s| snap.table.gather(&s.rows)).collect();
                    prop_assert_eq!(
                        rows_by_name(&Table::concat(&shard_tables.iter().collect::<Vec<_>>()).unwrap()),
                        rows_by_name(&want)
                    );
                }
                let warm_out = warm.run_workload(&w, CacheControl::Default).unwrap();
                let mut cold = Session::builder()
                    .table("t", want)
                    .shards(shards)
                    .build()
                    .unwrap();
                let cold_out = cold.run_workload(&w, CacheControl::Default).unwrap();
                for (set, warm_t) in &warm_out.report.results {
                    let (_, cold_t) = cold_out
                        .report
                        .results
                        .iter()
                        .find(|(s, _)| s == set)
                        .expect("cold run answers every set");
                    prop_assert_eq!(
                        rows_by_name(warm_t),
                        rows_by_name(cold_t),
                        "shards {} {:?} set {:?}",
                        shards, policy, w.col_names(*set)
                    );
                }
            }
        }
    }
}

/// Every row of `t` as sorted `name=value` cells, with rows sorted —
/// equality independent of row and column order.
fn rows_by_name(t: &Table) -> Vec<Vec<String>> {
    let names = t.schema().names();
    let mut rows: Vec<Vec<String>> = (0..t.num_rows())
        .map(|r| {
            let mut cells: Vec<String> = (0..t.num_columns())
                .map(|c| format!("{}={:?}", names[c], t.value(r, c)))
                .collect();
            cells.sort();
            cells
        })
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Feedback only changes *estimates* — a session planning from a
    /// sample corrected by observed group counts produces results
    /// identical to the same session under exact statistics in every
    /// mode, including the second round where corrected estimates (and
    /// possibly a re-optimized plan) are in effect.
    #[test]
    fn adaptive_execution_matches_static(
        cards in cards_strategy(),
        mode in prop::sample::select(vec![
            ExecutionMode::ClientSide,
            ExecutionMode::ServerSide,
            ExecutionMode::Parallel,
        ]),
        shards in prop::sample::select(vec![0u32, 4]),
    ) {
        let table = modular_table(400, &cards);
        let w = workload_of(&table, cards.len());
        let build = |stats: Stats| {
            Session::builder()
                .table("t", table.clone())
                .cost_model(CostModelSpec::Cardinality(stats))
                .mode(mode)
                .shards(shards)
                .build()
                .unwrap()
        };
        let (mut stat, mut adap) = (
            build(Stats::Exact),
            build(Stats::Sampled {
                rule: SampleRule::fixed(32),
                estimator: DistinctEstimator::Hybrid,
                seed: 3,
            }),
        );
        for round in 0..2 {
            let expect = stat.run_workload(&w, CacheControl::Default).unwrap();
            let got = adap.run_workload(&w, CacheControl::Default).unwrap();
            assert_same_results(
                &w,
                &expect.report,
                &got.report,
                &format!("mode {mode:?} shards {shards} round {round}"),
            );
        }
        prop_assert!(adap.feedback_len() > 0, "feedback store stayed empty");
    }
}

/// Non-proptest regression: overlapping (TC-style) workloads also satisfy
/// the semantic-equivalence invariant.
#[test]
fn overlapping_workloads_equivalent() {
    let table = modular_table(400, &[3, 5, 8, 13]);
    let names = col_names(4);
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let w = Workload::two_columns("t", &table, &refs).unwrap();
    let mut model = CardinalityCostModel::new(ExactSource::new(&table));
    let (plan, _) = GbMqo::with_config(SearchConfig::pruned())
        .plan(&w, &mut model)
        .unwrap();
    plan.validate(&w).unwrap();
    let mut session = session_with(table, "t");
    let optimized = session.run_plan(&plan, &w).unwrap();
    let naive = session.run_plan(&LogicalPlan::naive(&w), &w).unwrap();
    assert_same_results(&w, &naive, &optimized, "TC overlap");
}
