//! Integration tests for the materialized aggregate cache: warm-cache
//! answers must be row-identical to cold execution (serial and
//! parallel), stale versions must never be served after a table is
//! replaced, eviction must respect the byte budget, and the per-request
//! `CacheControl` knob must bypass or refresh as advertised.

use gbmqo_core::prelude::*;
use gbmqo_integration::{assert_same_results, col_names, modular_table};
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

fn session_with(table: &gbmqo_storage::Table, mode: ExecutionMode, cache_budget: usize) -> Session {
    Session::builder()
        .table("t", table.clone())
        .search(SearchConfig::pruned())
        .mode(mode)
        .parallelism(2)
        .mat_cache_budget_bytes(cache_budget)
        .build()
        .unwrap()
}

const BUDGET: usize = 8 << 20;

fn dedup(raw: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    let mut requests: Vec<Vec<usize>> = raw
        .into_iter()
        .map(|mut r| {
            r.sort_unstable();
            r.dedup();
            r
        })
        .collect();
    requests.sort();
    requests.dedup();
    requests
}

/// Strategy: 2–4 columns with assorted cardinalities plus two request
/// lists — one to warm the cache, one to answer from it.
#[allow(clippy::type_complexity)]
fn two_phase_strategy() -> impl Strategy<Value = (Vec<usize>, Vec<Vec<usize>>, Vec<Vec<usize>>)> {
    prop::collection::vec(prop::sample::select(vec![2usize, 3, 5, 11, 60]), 2..=4).prop_flat_map(
        |cards| {
            let n = cards.len();
            let reqs = || prop::collection::vec(prop::collection::vec(0..n, 1..=n.min(3)), 1..=n);
            (Just(cards), reqs(), reqs())
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever state the cache is in after the warm-up workload, the
    /// follow-up workload's results are row-identical to a cold
    /// cacheless session's — in every execution mode.
    #[test]
    fn warm_cache_answers_match_cold(
        (cards, warm_raw, query_raw) in two_phase_strategy(),
        mode in prop::sample::select(vec![
            ExecutionMode::ClientSide,
            ExecutionMode::ServerSide,
            ExecutionMode::Parallel,
        ]),
    ) {
        let warm_requests = dedup(warm_raw);
        let query_requests = dedup(query_raw);

        let table = modular_table(600, &cards);
        let mut cold = session_with(&table, mode, 0);
        let mut warm = session_with(&table, mode, BUDGET);

        let warm_w = workload_of(&table, &warm_requests);
        warm.run_workload(&warm_w, CacheControl::Default).unwrap();

        let query_w = workload_of(&table, &query_requests);
        let cold_out = cold.run_workload(&query_w, CacheControl::Default).unwrap();
        let warm_out = warm.run_workload(&query_w, CacheControl::Default).unwrap();
        assert_same_results(&query_w, &cold_out.report, &warm_out.report, "warm vs cold");
        let mc = warm.mat_cache_stats();
        prop_assert!(mc.bytes <= BUDGET as u64, "cache over budget: {mc:?}");
    }
}

#[test]
fn repeat_run_is_served_from_the_cache() {
    let table = modular_table(2_000, &[4, 10, 25]);
    let mut session = session_with(&table, ExecutionMode::ClientSide, BUDGET);
    let w = workload_of(&table, &[vec![0], vec![1], vec![0, 1]]);

    let first = session.run_workload(&w, CacheControl::Default).unwrap();
    assert_eq!(first.report.metrics.matcache_hits, 0, "cold start");

    let second = session.run_workload(&w, CacheControl::Default).unwrap();
    assert_eq!(
        second.report.metrics.matcache_hits, 3,
        "every repeated request is covered"
    );
    // Scans touch only the small cached aggregates, never the base.
    assert!(
        second.report.metrics.rows_scanned < table.num_rows() as u64,
        "a fully covered workload must not rescan the base table: {}",
        second.report.metrics.rows_scanned
    );
    assert_same_results(&w, &first.report, &second.report, "repeat vs first");
}

#[test]
fn subset_queries_reaggregate_from_a_cached_superset() {
    let table = modular_table(2_000, &[4, 10, 25]);
    let mut session = session_with(&table, ExecutionMode::ClientSide, BUDGET);

    // Warm with the superset only.
    let warm = workload_of(&table, &[vec![0, 1, 2]]);
    session.run_workload(&warm, CacheControl::Default).unwrap();

    // Strict subsets are answered by re-aggregating the cached
    // superset — never by scanning the base table.
    let query = workload_of(&table, &[vec![0], vec![1, 2]]);
    let out = session.run_workload(&query, CacheControl::Default).unwrap();
    assert_eq!(out.report.metrics.matcache_hits, 2);
    assert!(
        out.report.metrics.rows_scanned < table.num_rows() as u64,
        "subsets re-aggregate the cached superset, not the base table"
    );

    let mut cold = session_with(&table, ExecutionMode::ClientSide, 0);
    let reference = cold.run_workload(&query, CacheControl::Default).unwrap();
    assert_same_results(&query, &reference.report, &out.report, "subset vs cold");
}

/// A cached aggregate is re-aggregated with hash tables sized from its
/// rows, so serving it never grows one — whether the hit is exact,
/// covering, or just brought current by a lazy delta refresh (whose delta
/// scan and merge are sized from their rows too).
#[test]
fn cache_served_reaggregations_never_resize() {
    let cards = [6, 40, 25];
    let table = modular_table(3_000, &cards);
    let mut session = session_with(&table, ExecutionMode::ClientSide, BUDGET);
    let warm = workload_of(&table, &[vec![0, 1], vec![2]]);
    session.run_workload(&warm, CacheControl::Default).unwrap();

    let serve =
        |session: &mut Session, table: &gbmqo_storage::Table, what: &str, req: Vec<usize>| {
            let w = workload_of(table, &[req]);
            let out = session.run_workload(&w, CacheControl::Default).unwrap();
            let m = &out.report.metrics;
            assert_eq!(m.matcache_hits, 1, "{what}: {m:?}");
            assert_eq!(m.hash_resizes, 0, "{what}: {m:?}");
            let mut cold = session_with(table, ExecutionMode::ClientSide, 0);
            let reference = cold.run_workload(&w, CacheControl::Default).unwrap();
            assert_same_results(&w, &reference.report, &out.report, what);
            out.report.metrics
        };
    serve(&mut session, &table, "exact hit", vec![0, 1]);
    serve(&mut session, &table, "covering hit", vec![1]);

    let grown = modular_table(3_500, &cards);
    let delta = grown.slice_rows(3_000, 500).unwrap();
    session.append("t", delta).unwrap();
    let m = serve(&mut session, &grown, "lazy delta refresh", vec![0, 1]);
    assert_eq!(m.delta_refreshes, 1, "{m:?}");
}

/// A time-series append: the delta (over 8,192 rows, so its scan is
/// partitioned) brings five times more new keys than the cached
/// aggregate has rows. Its scan is sized from the delta's rows, not the
/// cached aggregate's, so the refresh still grows no hash table.
#[test]
fn a_delta_of_new_keys_refreshes_without_resizing() {
    use gbmqo_storage::{Column, DataType, Field, Schema, Table};
    // `day` = row / `per_day` + `first_day`; `v` = row mod 7.
    let series = |rows: usize, per_day: usize, first_day: usize| {
        let schema = Schema::new(vec![
            Field::new("day", DataType::Int64),
            Field::new("v", DataType::Int64),
        ])
        .unwrap();
        let day = (0..rows)
            .map(|r| (first_day + r / per_day) as i64)
            .collect();
        let v = (0..rows).map(|r| (r % 7) as i64).collect();
        Table::new(schema, vec![Column::from_i64(day), Column::from_i64(v)]).unwrap()
    };
    // 200 days of 100 rows, then 1,000 new days of 10 rows.
    let base = series(20_000, 100, 0);
    let delta = series(10_000, 10, 200);
    let grown = Table::concat(&[&base, &delta]).unwrap();

    let names = ["day", "v"];
    let by_day = |t: &Table| Workload::new("t", t, &names, &[vec!["day"]]).unwrap();
    let mut session = session_with(&base, ExecutionMode::ClientSide, BUDGET);
    session
        .run_workload(&by_day(&base), CacheControl::Default)
        .unwrap();
    session.append("t", delta).unwrap();

    let w = by_day(&grown);
    let out = session.run_workload(&w, CacheControl::Default).unwrap();
    let m = &out.report.metrics;
    assert_eq!((m.delta_refreshes, m.matcache_hits), (1, 1), "{m:?}");
    assert_eq!(m.hash_resizes, 0, "{m:?}");
    let mut cold = session_with(&grown, ExecutionMode::ClientSide, 0);
    let reference = cold.run_workload(&w, CacheControl::Default).unwrap();
    assert_same_results(&w, &reference.report, &out.report, "new-key delta vs cold");
    assert_eq!(out.report.results[0].1.num_rows(), 1_200);
}

/// A request whose token tripped before it started fails without side
/// effects: after an append it neither drops the stale aggregates nor
/// runs the search, so the next request still refreshes every one of
/// them from the delta instead of rescanning the base table.
#[test]
fn a_cancelled_request_leaves_both_caches_as_it_found_them() {
    let cards = [5, 12, 60];
    let base = modular_table(20_000, &cards);
    let delta = modular_table(200, &cards);
    let grown = gbmqo_storage::Table::concat(&[&base, &delta]).unwrap();
    let requests = [vec![0], vec![1], vec![0, 2]];
    let mut session = session_with(&base, ExecutionMode::ClientSide, BUDGET);
    session
        .run_workload(&workload_of(&base, &requests), CacheControl::Default)
        .unwrap();
    session.append("t", delta).unwrap();

    let w = workload_of(&grown, &requests);
    let (aggregates, plans) = (session.mat_cache_stats(), session.cache_stats());
    let token = CancelToken::new();
    token.cancel();
    let mut cancelled = QueryCtx {
        cancel: Some(token),
        ..QueryCtx::default()
    };
    let err = session
        .run_workload_in(&w, CacheControl::Default, &mut cancelled)
        .unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Exec(gbmqo_exec::ExecError::Cancelled { .. })
        ),
        "{err:?}"
    );
    assert_eq!(session.mat_cache_stats(), aggregates);
    assert_eq!(session.cache_stats(), plans);

    let out = session.run_workload(&w, CacheControl::Default).unwrap();
    let m = &out.report.metrics;
    assert_eq!(m.matcache_hits, w.requests.len() as u64, "{m:?}");
    assert!(m.rows_scanned < base.num_rows() as u64, "{m:?}");
}

#[test]
fn replacing_the_table_invalidates_cached_aggregates() {
    let old = modular_table(1_000, &[4, 10]);
    let mut session = session_with(&old, ExecutionMode::ClientSide, BUDGET);
    let w = workload_of(&old, &[vec![0], vec![0, 1]]);
    session.run_workload(&w, CacheControl::Default).unwrap();
    assert!(session.mat_cache_stats().entries > 0);

    // Same schema, different contents: every cached aggregate is stale.
    let new = modular_table(1_500, &[7, 13]);
    session.register_table("t", new.clone()).unwrap();

    let out = session.run_workload(&w, CacheControl::Default).unwrap();
    assert_eq!(
        out.report.metrics.matcache_hits, 0,
        "stale aggregates must never be served"
    );
    let mut fresh = session_with(&new, ExecutionMode::ClientSide, 0);
    let reference = fresh.run_workload(&w, CacheControl::Default).unwrap();
    assert_same_results(&w, &reference.report, &out.report, "replaced vs fresh");
}

#[test]
fn bypass_ignores_and_refresh_recomputes() {
    let table = modular_table(1_000, &[4, 10]);
    let mut session = session_with(&table, ExecutionMode::ClientSide, BUDGET);
    let w = workload_of(&table, &[vec![0], vec![1]]);
    session.run_workload(&w, CacheControl::Default).unwrap();

    // Bypass: no lookups, no admissions.
    let stats_before = session.mat_cache_stats();
    let bypass = session.run_workload(&w, CacheControl::Bypass).unwrap();
    assert_eq!(bypass.report.metrics.matcache_hits, 0);
    let stats_after = session.mat_cache_stats();
    assert_eq!(stats_before.hits, stats_after.hits);
    assert_eq!(stats_before.insertions, stats_after.insertions);

    // Refresh: recomputes (no hit) and replaces the cached payloads in
    // place — entry and insertion counts stay flat.
    let refresh = session.run_workload(&w, CacheControl::Refresh).unwrap();
    assert_eq!(refresh.report.metrics.matcache_hits, 0);
    assert!(refresh.report.metrics.rows_scanned > 0);
    assert_eq!(session.mat_cache_stats().insertions, stats_after.insertions);
    assert_eq!(session.mat_cache_stats().entries, stats_after.entries);

    // And the refreshed entries serve the next default-mode run.
    let warm = session.run_workload(&w, CacheControl::Default).unwrap();
    assert_eq!(warm.report.metrics.matcache_hits, 2);
}

#[test]
fn tiny_budget_evicts_rather_than_overflows() {
    let table = modular_table(4_000, &[64, 101, 57]);
    let budget = 4 << 10; // 4 KiB: far too small for every aggregate
    let mut session = session_with(&table, ExecutionMode::ClientSide, budget);

    for reqs in [
        vec![vec![0], vec![0, 1]],
        vec![vec![1], vec![1, 2]],
        vec![vec![2], vec![0, 2]],
    ] {
        let w = workload_of(&table, &reqs);
        session.run_workload(&w, CacheControl::Default).unwrap();
        let mc = session.mat_cache_stats();
        assert!(mc.bytes <= budget as u64, "over budget: {mc:?}");
    }
    let mc = session.mat_cache_stats();
    assert!(
        mc.evictions > 0 || mc.rejected > 0,
        "a 4 KiB budget must evict or reject: {mc:?}"
    );
}

#[test]
fn parallel_intermediates_are_admitted_before_recycling() {
    let table = modular_table(3_000, &[3, 40, 90]);
    let mut session = session_with(&table, ExecutionMode::Parallel, BUDGET);

    // A workload whose plan materializes intermediates; the scheduler's
    // temps are offered to the cache at reader-count zero instead of
    // being dropped outright.
    let warm = workload_of(
        &table,
        &[
            vec![0],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![1, 2],
            vec![0, 1, 2],
        ],
    );
    session.run_workload(&warm, CacheControl::Default).unwrap();
    assert!(session.mat_cache_stats().insertions > 0);

    // Everything the warm run computed now answers without a scan.
    let query = workload_of(&table, &[vec![0, 1], vec![2]]);
    let out = session.run_workload(&query, CacheControl::Default).unwrap();
    assert_eq!(out.report.metrics.matcache_hits, 2);
    assert!(
        out.report.metrics.rows_scanned < table.num_rows() as u64,
        "covered sets must not rescan the base table"
    );

    let mut cold = session_with(&table, ExecutionMode::ClientSide, 0);
    let reference = cold.run_workload(&query, CacheControl::Default).unwrap();
    assert_same_results(
        &query,
        &reference.report,
        &out.report,
        "parallel warm vs cold",
    );
}

#[test]
fn partially_covered_workloads_merge_cached_and_fresh_subplans() {
    let table = modular_table(2_500, &[5, 12, 33]);
    let mut session = session_with(&table, ExecutionMode::ClientSide, BUDGET);

    let warm = workload_of(&table, &[vec![0, 1]]);
    session.run_workload(&warm, CacheControl::Default).unwrap();

    // {0} is covered by the cached {0,1}; {2} and {1,2} are not and go
    // through the ordinary merge search.
    let mixed = workload_of(&table, &[vec![0], vec![2], vec![1, 2]]);
    let out = session.run_workload(&mixed, CacheControl::Default).unwrap();
    assert_eq!(out.report.metrics.matcache_hits, 1);
    assert!(
        out.report.metrics.rows_scanned > 0,
        "uncovered sets still scan"
    );
    assert_eq!(out.report.results.len(), 3);

    let mut cold = session_with(&table, ExecutionMode::ClientSide, 0);
    let reference = cold.run_workload(&mixed, CacheControl::Default).unwrap();
    assert_same_results(&mixed, &reference.report, &out.report, "mixed vs cold");
}
