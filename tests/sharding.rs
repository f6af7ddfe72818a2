//! Sharded execution invariants: radix-partitioned base tables must be
//! observationally identical to unsharded ones, and the aggregate
//! cache's per-shard entries must survive appends to sibling shards.

use gbmqo_core::prelude::*;
use gbmqo_core::{Merge, NodeKind};
use gbmqo_exec::Engine;
use gbmqo_integration::{assert_same_results, col_names, modular_table, session_with};
use gbmqo_storage::{route_rows, shard_table_name, Catalog, Column, Schema, Table};
use proptest::prelude::*;

/// Strategy: 2–6 columns with cardinalities from tiny to row count,
/// then two columns of 19 and 23 values. Each of the two is small on its
/// own, but the moduli are coprime (to each other and to every column
/// stride [`modular_table`] uses here), so over 400 rows their *pair* is
/// unique. A workload that asks for the pair therefore has edges on both
/// sides of the fan-out rule: per-shard partials of the pair are as
/// large as the shards (one logical query), partials of the small
/// columns are not (one query per shard).
fn cards_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(
        prop::sample::select(vec![2usize, 3, 7, 20, 100, 400]),
        2..=6,
    )
    .prop_map(|mut cards| {
        cards.extend([19, 23]);
        cards
    })
}

/// Every column on its own, plus the unique pair of the last two.
fn workload_of(table: &Table, n: usize) -> Workload {
    let names = col_names(n);
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let mut requests: Vec<Vec<&str>> = refs.iter().map(|c| vec![*c]).collect();
    requests.push(refs[n - 2..].to_vec());
    Workload::new("t", table, &refs, &requests).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any shard count, in every execution mode, with the aggregate
    /// cache cold or warm, computes exactly what the unsharded session
    /// computes — and runs the physical plan it reports: one query per
    /// read of a Group By edge (a ROLLUP/CUBE edge is one), and merge
    /// rows exactly when some edge re-aggregates its partials.
    #[test]
    fn sharded_matches_unsharded(cards in cards_strategy()) {
        let table = modular_table(400, &cards);
        let w = workload_of(&table, cards.len());
        let mut reference = session_with(table.clone(), "t");
        let baseline = reference.run_workload(&w, CacheControl::Default).unwrap();

        for shards in [1u32, 2, 4, 8] {
            for mode in [
                ExecutionMode::ClientSide,
                ExecutionMode::ServerSide,
                ExecutionMode::Parallel,
            ] {
                let mut s = Session::builder()
                    .table("t", table.clone())
                    .shards(shards)
                    .mode(mode)
                    .mat_cache_budget_bytes(1 << 22)
                    .build()
                    .unwrap();
                for cache in ["cold", "warm"] {
                    let out = s.run_workload(&w, CacheControl::Default).unwrap();
                    let context = format!("{shards} shards, {mode:?}, {cache}");
                    assert_same_results(&w, &baseline.report, &out.report, &context);
                    // `shards(1)` registers an unsharded table; real shard
                    // layouts surface in the metrics.
                    let expected = if shards > 1 { u64::from(shards) } else { 0 };
                    prop_assert_eq!(out.report.metrics.shards, expected);
                    prop_assert_eq!(out.report.metrics.matcache_hits > 0, cache == "warm");

                    let physical = &out.report.physical;
                    let instances: usize = physical
                        .edges()
                        .map(|e| if e.edge.kind == NodeKind::GroupBy { e.reads.len() } else { 1 })
                        .sum();
                    prop_assert_eq!(out.report.metrics.queries_executed, instances as u64, "{}", &context);
                    let reaggregates = physical
                        .edges()
                        .any(|e| matches!(e.merge, Merge::Reaggregate));
                    prop_assert_eq!(out.report.metrics.merge_rows > 0, reaggregates, "{}", &context);
                }
            }
        }
    }
}

/// A grouping that covers the shard key needs no re-aggregation merge
/// (hash-disjoint shards hold disjoint group sets); any other grouping
/// re-aggregates the concatenated partials.
#[test]
fn merge_elided_only_when_grouping_covers_shard_key() {
    let t = modular_table(4000, &[3, 7]);
    let mut catalog = Catalog::new();
    catalog
        .register_sharded("t", t.clone(), 4, Some(vec!["c0".to_string()]))
        .unwrap();
    let mut s = Session::builder()
        .engine(Engine::new(catalog))
        .mode(ExecutionMode::ClientSide)
        .build()
        .unwrap();
    let mut plain = session_with(t.clone(), "t");

    let covering = Workload::single_columns("t", &t, &["c0"]).unwrap();
    let out = s.run_workload(&covering, CacheControl::Default).unwrap();
    assert_eq!(out.report.metrics.shards, 4);
    assert_eq!(
        out.report.metrics.merge_rows, 0,
        "grouping by the shard key must concatenate without re-aggregating"
    );
    let base = plain
        .run_workload(&covering, CacheControl::Default)
        .unwrap();
    assert_same_results(&covering, &base.report, &out.report, "covering");

    let other = Workload::single_columns("t", &t, &["c1"]).unwrap();
    let out = s.run_workload(&other, CacheControl::Default).unwrap();
    assert!(
        out.report.metrics.merge_rows > 0,
        "a non-covering grouping must merge per-shard partials"
    );
    let base = plain.run_workload(&other, CacheControl::Default).unwrap();
    assert_same_results(&other, &base.report, &out.report, "non-covering");
}

/// Build a delta table whose rows all share one shard-key value (and
/// so all hash to one shard), returning `(delta, shard)`.
fn delta_for_one_shard(schema: &Schema, key_col: usize, shards: u32, rows: usize) -> (Table, u32) {
    let value = 0i64;
    let shard = route_rows(&[&Column::from_i64(vec![value])], 1, shards)[0];
    let columns: Vec<Column> = (0..schema.fields().len())
        .map(|c| {
            let v = if c == key_col { value } else { 1 };
            Column::from_i64(vec![v; rows])
        })
        .collect();
    (Table::new(schema.clone(), columns).unwrap(), shard)
}

/// The acceptance property from the issue: appending to one shard
/// invalidates only that shard's cached aggregates; the sibling
/// shards' entries stay warm and keep serving. Refresh is disabled so
/// the logical-level entries die with the append and the per-shard
/// path is what serves — under the default lazy policy the logical
/// entry would be delta-refreshed instead and cover both requests
/// outright (see `refreshed_cache_equals_cold_recompute`).
#[test]
fn single_shard_append_keeps_sibling_shards_warm() {
    let t = modular_table(4000, &[3, 7]);
    let w = Workload::single_columns("t", &t, &["c0", "c1"]).unwrap();
    let mut s = Session::builder()
        .table("t", t)
        .shards(4)
        .mode(ExecutionMode::ClientSide)
        .mat_cache_budget_bytes(1 << 20)
        .refresh_policy(RefreshPolicy::Disabled)
        .build()
        .unwrap();
    assert_eq!(s.engine().catalog().shard_desc("t").unwrap().shard_count, 4);

    // Cold run: the optimizer shares a (c0, c1) parent between the two
    // requests; its per-shard partials are admitted under each shard
    // entry's own name and version when the temps retire.
    let cold = s.run_workload(&w, CacheControl::Default).unwrap();
    assert_eq!(cold.report.metrics.matcache_hits, 0);
    assert!(
        s.mat_cache_stats().insertions >= 4,
        "per-shard partials should be admitted on the cold run"
    );

    // Append rows that all route to a single shard.
    let desc = s.engine().catalog().shard_desc("t").unwrap().clone();
    let schema = s.engine().catalog().table("t").unwrap().schema().clone();
    let key_col = schema.index_of(&desc.key_cols[0]).unwrap();
    let (delta, touched) = delta_for_one_shard(&schema, key_col, desc.shard_count, 8);
    s.engine_mut().catalog_mut().append("t", delta).unwrap();
    let touched_rows = s
        .engine()
        .catalog()
        .table(&shard_table_name("t", touched))
        .unwrap()
        .num_rows() as u64;

    // Warm run: the logical-level entries died with the logical table
    // version, but three of the four shards kept their versions — both
    // requests are served per-shard: 3 warm hits each, and only the
    // touched shard's base entry is rescanned.
    let warm = s.run_workload(&w, CacheControl::Default).unwrap();
    assert_eq!(
        warm.report.metrics.matcache_hits, 6,
        "2 requests x 3 untouched shards must hit the cache"
    );
    assert_eq!(
        warm.report.metrics.shard_rows,
        2 * touched_rows,
        "only the appended shard recomputes from its base entry"
    );

    // And the mixed warm/cold merge is still correct.
    let after = s.engine().catalog().table("t").unwrap().clone();
    let mut fresh = session_with(after, "t");
    let expected = fresh.run_workload(&w, CacheControl::Default).unwrap();
    assert_same_results(&w, &expected.report, &warm.report, "post-append");
}

/// The same single-shard append, for a grouping the fan-out rule runs
/// as one logical query: a pair with more than a quarter as many groups
/// as the table has rows, so that its four per-shard partials together
/// would be no smaller than the table. Nothing per-shard is ever
/// computed or cached for it, so what keeps it warm is the logical
/// entry — under the default lazy policy the first request after the
/// append refreshes that entry from the logical table's own delta chain
/// (the 8 appended rows) and scans no shard.
#[test]
fn unfanned_grouping_refreshes_from_the_logical_delta_chain() {
    // c1 and c2 have coprime moduli, so (c1, c2) has 31 x 37 = 1147
    // groups; c0 is the shard key and outside the grouping.
    let t = modular_table(4000, &[3, 31, 37]);
    let w = Workload::new("t", &t, &["c0", "c1", "c2"], &[vec!["c1", "c2"]]).unwrap();
    let mut catalog = Catalog::new();
    catalog
        .register_sharded("t", t, 4, Some(vec!["c0".to_string()]))
        .unwrap();
    let mut s = Session::builder()
        .engine(Engine::new(catalog))
        .shards(4)
        .mode(ExecutionMode::ClientSide)
        .mat_cache_budget_bytes(1 << 20)
        .build()
        .unwrap();

    let cold = s.run_workload(&w, CacheControl::Default).unwrap();
    let m = cold.report.metrics;
    assert_eq!(m.shards, 4);
    assert_eq!(
        (m.queries_executed, m.shard_rows, m.merge_rows),
        (1, 0, 0),
        "1147 groups x 4 shards >= 4000 rows: one query over the logical table"
    );
    assert_eq!(cold.report.results[0].1.num_rows(), 1147);

    let schema = s.engine().catalog().table("t").unwrap().schema().clone();
    let (delta, _) = delta_for_one_shard(&schema, 0, 4, 8);
    s.append("t", delta).unwrap();

    let warm = s.run_workload(&w, CacheControl::Default).unwrap();
    let m = warm.report.metrics;
    assert_eq!(m.matcache_hits, 1, "the refreshed logical entry serves");
    assert_eq!((m.delta_refreshes, m.delta_fallbacks), (1, 0));
    assert_eq!(m.delta_rows, 8, "only the appended rows are aggregated");
    assert_eq!(m.shard_rows, 0, "no shard is rescanned");

    let after = s.engine().catalog().table("t").unwrap().clone();
    let mut fresh = session_with(after, "t");
    let expected = fresh.run_workload(&w, CacheControl::Default).unwrap();
    assert_same_results(&w, &expected.report, &warm.report, "post-append");
}

/// `register_table` on a sharded session re-shards the replacement and
/// drops stale per-shard cache entries.
#[test]
fn register_table_reshards_replacement() {
    let t = modular_table(1000, &[5, 11]);
    let w = Workload::single_columns("t", &t, &["c0", "c1"]).unwrap();
    let mut s = Session::builder()
        .table("t", t.clone())
        .shards(4)
        .mode(ExecutionMode::Parallel)
        .mat_cache_budget_bytes(1 << 20)
        .build()
        .unwrap();
    s.run_workload(&w, CacheControl::Default).unwrap();

    // Replace with different contents: every cached aggregate (logical
    // and per-shard) must be invalidated, and the new table re-sharded.
    let t2 = modular_table(1200, &[5, 11]);
    s.register_table("t", t2.clone()).unwrap();
    let desc = s.engine().catalog().shard_desc("t").unwrap();
    assert_eq!(desc.shard_count, 4);

    let out = s.run_workload(&w, CacheControl::Default).unwrap();
    assert_eq!(
        out.report.metrics.matcache_hits, 0,
        "stale entries must not serve the replaced table"
    );
    let mut fresh = session_with(t2, "t");
    let expected = fresh.run_workload(&w, CacheControl::Default).unwrap();
    assert_same_results(&w, &expected.report, &out.report, "replaced");
}
