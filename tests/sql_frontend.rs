//! The SQL front end, end to end: parser round-trip and never-panic
//! properties, equivalence of SQL-lowered execution with hand-built
//! workloads across every execution mode, and hostile `SqlQuery`
//! frames over the wire.

use gbmqo_core::grouping_sets_over_star;
use gbmqo_core::prelude::*;
use gbmqo_exec::{filter, hash_join, sort_group_by, AggSpec, ExecMetrics, Predicate};
use gbmqo_integration::{modular_table, normalize};
use gbmqo_server::protocol::{
    decode_response, encode_frame, encode_request, read_frame, write_frame, Request, Response,
    MAX_SQL_LEN, OP_SQL,
};
use gbmqo_server::{codec, Client, ErrorCode, Server, ServerConfig, ServerError, ServerHandle};
use gbmqo_sqlfe::ast::{
    AggCall, AggFuncName, ColumnRef, GroupSpec, Ident, Join, Literal, Query, SelectItem, WherePred,
};
use gbmqo_sqlfe::{compile, execute, parse, LoweredQuery, Span, SqlErrorKind};
use gbmqo_storage::{Catalog, DataType, Field, Schema, Table, TableBuilder, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// AST strategies: names that exercise quoting (keywords, mixed case,
// spaces, embedded quotes), every aggregate, every grouping spec.
// ---------------------------------------------------------------------

/// `Some`/`None` with equal weight — the vendored proptest shim has no
/// `prop::option` module.
fn opt<V: Clone + 'static>(s: impl Strategy<Value = V> + 'static) -> BoxedStrategy<Option<V>> {
    prop_oneof![Just(None), s.prop_map(Some)].boxed()
}

fn ident_name() -> impl Strategy<Value = String> {
    // A plain `[a-z_][a-z0-9_]{0,5}` name, built from a seed (the shim
    // has no regex strategies).
    let plain = (any::<u64>(), 0usize..6).prop_map(|(seed, extra)| {
        const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyz_";
        const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        let mut x = seed;
        let mut s = String::new();
        s.push(HEAD[(x % HEAD.len() as u64) as usize] as char);
        for _ in 0..extra {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s.push(TAIL[((x >> 33) % TAIL.len() as u64) as usize] as char);
        }
        s
    });
    prop_oneof![
        4 => plain,
        1 => prop::sample::select(vec!["select", "group", "cube", "from", "sets", "where"])
            .prop_map(String::from),
        1 => prop::sample::select(vec!["Mixed", "we ird", "qu\"ote", "1digit"])
            .prop_map(String::from),
    ]
}

fn ident() -> impl Strategy<Value = Ident> {
    ident_name().prop_map(Ident::synth)
}

fn colref() -> impl Strategy<Value = ColumnRef> {
    (opt(ident()), ident()).prop_map(|(table, column)| ColumnRef { table, column })
}

fn agg() -> impl Strategy<Value = AggCall> {
    let func = prop::sample::select(vec![AggFuncName::Sum, AggFuncName::Min, AggFuncName::Max]);
    prop_oneof![
        opt(ident()).prop_map(|alias| AggCall {
            func: AggFuncName::Count,
            arg: None,
            alias,
            span: Span::default(),
        }),
        (func, colref(), opt(ident())).prop_map(|(func, arg, alias)| AggCall {
            func,
            arg: Some(arg),
            alias,
            span: Span::default(),
        }),
    ]
}

fn select_item() -> impl Strategy<Value = SelectItem> {
    prop_oneof![
        colref().prop_map(SelectItem::Column),
        agg().prop_map(SelectItem::Agg),
    ]
}

fn join() -> impl Strategy<Value = Join> {
    (ident(), colref(), colref()).prop_map(|(table, left, right)| Join { table, left, right })
}

fn literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        (0i64..1_000_000).prop_map(Literal::Int),
        (0i32..1000).prop_map(|i| Literal::Float(f64::from(i) + 0.5)),
        prop::sample::select(vec!["", "abc", "o'brien", "''", "it s", "a'b'c"])
            .prop_map(|s| Literal::Str(s.to_string())),
    ]
}

fn where_pred() -> impl Strategy<Value = WherePred> {
    let op = prop::sample::select(vec![
        gbmqo_sqlfe::ast::CmpOp::Eq,
        gbmqo_sqlfe::ast::CmpOp::Le,
        gbmqo_sqlfe::ast::CmpOp::Ge,
    ]);
    (colref(), op, literal()).prop_map(|(col, op, value)| WherePred {
        col,
        op,
        value,
        value_span: Span::default(),
    })
}

fn group_spec() -> impl Strategy<Value = GroupSpec> {
    let cols = || prop::collection::vec(colref(), 1..4);
    prop_oneof![
        cols().prop_map(GroupSpec::Plain),
        cols().prop_map(GroupSpec::Cube),
        cols().prop_map(GroupSpec::Rollup),
        prop::collection::vec(prop::collection::vec(colref(), 1..3), 1..4)
            .prop_map(GroupSpec::GroupingSets),
    ]
}

fn query() -> impl Strategy<Value = Query> {
    // Nested tuples: the shim only implements tuple strategies up to 4.
    (
        (prop::collection::vec(select_item(), 1..4), ident()),
        (
            prop::collection::vec(join(), 0..3),
            prop::collection::vec(where_pred(), 0..3),
        ),
        group_spec(),
    )
        .prop_map(|((select, from), (joins, predicates), group)| Query {
            select,
            from,
            joins,
            predicates,
            group,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pretty-printing any AST and re-parsing the text yields the same
    /// tree — identifier quoting, literal escaping, and every grouping
    /// spec survive the round trip.
    #[test]
    fn pretty_printed_query_reparses(q in query()) {
        let sql = q.to_string();
        let parsed = match parse(&sql) {
            Ok(p) => p,
            Err(e) => panic!("{}", e.render(&sql)),
        };
        prop_assert_eq!(parsed.strip_spans(), q.strip_spans());
    }

    /// The parser never panics on arbitrary input, printable or not.
    #[test]
    fn arbitrary_input_never_panics(
        s in prop::collection::vec(any::<u8>(), 0..200)
            .prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
    ) {
        let _ = parse(&s);
    }

    /// Truncating or splicing junk into a valid statement never panics
    /// the parser or the full compile pipeline.
    #[test]
    fn mutated_statement_never_panics(
        q in query(),
        frac in 0.0f64..1.0,
        junk in prop::sample::select(vec!['\0', '(', ')', '\'', '"', ';', '\u{20ac}', 'x']),
    ) {
        let sql = q.to_string();
        let boundaries: Vec<usize> = sql
            .char_indices()
            .map(|(i, _)| i)
            .chain(std::iter::once(sql.len()))
            .collect();
        let cut = boundaries[(frac * (boundaries.len() - 1) as f64) as usize];
        let _ = parse(&sql[..cut]);
        let mut spliced = sql[..cut].to_string();
        spliced.push(junk);
        spliced.push_str(&sql[cut..]);
        let _ = parse(&spliced);
        let _ = compile(&spliced, &small_catalog());
    }
}

fn small_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.register("t", modular_table(40, &[4, 3, 5, 2])).unwrap();
    cat
}

/// A fixed corpus of hostile statements: none may panic, and the
/// invalid ones must come back as structured errors with the right
/// kind.
#[test]
fn malformed_corpus_is_rejected_not_panicked() {
    let cat = small_catalog();
    let corpus: Vec<String> = vec![
        String::new(),
        "\0\0\0".into(),
        "SELECT".into(),
        "SELECT FROM GROUP BY".into(),
        "SELECT * FROM t GROUP BY c0".into(),
        "SELECT COUNT(* FROM t GROUP BY c0".into(),
        "SELECT COUNT(*) FROM t GROUP BY GROUPING SETS ((".into(),
        "SELECT COUNT(*) FROM t GROUP BY CUBE".into(),
        "SELECT COUNT(*) FROM t WHERE c0 = GROUP BY c0".into(),
        "SELECT COUNT(*) FROM t GROUP BY c0; DROP TABLE t".into(),
        "SELECT COUNT(*) FROM t GROUP BY \"unterminated".into(),
        "SELECT COUNT(*) FROM t WHERE c0 = 'unterminated".into(),
        format!(
            "SELECT COUNT(*) FROM t GROUP BY {}",
            "c0, ".repeat(5000) + "c0"
        ),
        format!(
            "SELECT COUNT(*) FROM t GROUP BY CUBE ({})",
            (0..16)
                .map(|i| format!("c{i}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        "(".repeat(10_000),
        format!("SELECT COUNT(*) FROM t GROUP BY {}", "x".repeat(100_000)),
    ];
    for sql in &corpus {
        let _ = compile(sql, &cat); // must return, never panic
    }
    // A couple of targeted kinds.
    let err = compile("SELECT COUNT(*) FROM t GROUP BY", &cat).unwrap_err();
    assert_eq!(err.kind, SqlErrorKind::Parse);
    let err = compile("SELECT COUNT(*) FROM ghost GROUP BY c0", &cat).unwrap_err();
    assert_eq!(err.kind, SqlErrorKind::Unresolved);
    assert!(err
        .render("SELECT COUNT(*) FROM ghost GROUP BY c0")
        .contains('^'));
}

// ---------------------------------------------------------------------
// Acceptance: SQL-lowered execution == hand-built workload execution,
// in every execution mode and on a sharded session.
// ---------------------------------------------------------------------

fn sets_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    // Sorted-deduped column index sets (the shim has no btree_set
    // strategy); len >= 1 survives dedup since every draw is non-empty.
    prop::collection::vec(prop::collection::vec(0usize..4, 1..4), 1..5).prop_map(|sets| {
        sets.into_iter()
            .map(|mut s| {
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect()
    })
}

fn session_in(table: &Table, mode: ExecutionMode, shards: u32) -> Session {
    Session::builder()
        .table("t", table.clone())
        .mode(mode)
        .shards(shards)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random grouping-set workloads, compiling the equivalent SQL
    /// and executing it produces exactly the rows of the hand-built
    /// workload path — under serial, server-side, parallel, and
    /// sharded execution.
    #[test]
    fn sql_matches_hand_built_workload_in_every_mode(
        raw_sets in sets_strategy(),
        rows in 60usize..240,
    ) {
        let table = modular_table(rows, &[4, 3, 5, 2]);
        // dedup whole sets, as the binder does
        let mut sets: Vec<Vec<String>> = Vec::new();
        for s in &raw_sets {
            let named: Vec<String> = s.iter().map(|i| format!("c{i}")).collect();
            if !sets.contains(&named) {
                sets.push(named);
            }
        }
        let sql = format!(
            "SELECT COUNT(*) AS cnt FROM t GROUP BY GROUPING SETS ({})",
            sets.iter()
                .map(|s| format!("({})", s.join(", ")))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let mut universe: Vec<&str> = Vec::new();
        for s in &sets {
            for c in s {
                if !universe.contains(&c.as_str()) {
                    universe.push(c);
                }
            }
        }
        let requests: Vec<Vec<&str>> = sets
            .iter()
            .map(|s| s.iter().map(String::as_str).collect())
            .collect();
        let workload = Workload::new("t", &table, &universe, &requests).unwrap();

        for (mode, shards) in [
            (ExecutionMode::ClientSide, 1),
            (ExecutionMode::ServerSide, 1),
            (ExecutionMode::Parallel, 1),
            (ExecutionMode::Parallel, 4),
        ] {
            let mut sql_session = session_in(&table, mode, shards);
            let lowered = compile(&sql, sql_session.engine().catalog())
                .unwrap_or_else(|e| panic!("{}", e.render(&sql)));
            prop_assert!(matches!(lowered, LoweredQuery::Workload { .. }));
            let sql_out = execute(&lowered, &mut sql_session, CacheControl::Default, &mut QueryCtx::default()).unwrap();

            let mut raw_session = session_in(&table, mode, shards);
            let raw_out = raw_session
                .run_workload(&workload, CacheControl::Default)
                .unwrap();

            prop_assert_eq!(sql_out.len(), sets.len());
            for (set, (tag, sql_table)) in sets.iter().zip(&sql_out) {
                prop_assert_eq!(tag.clone(), set.join(","));
                let names: Vec<&str> = set.iter().map(String::as_str).collect();
                let raw_table = raw_out
                    .report
                    .results
                    .iter()
                    .find(|(cols, _)| {
                        let got = workload.col_names(*cols);
                        got.len() == names.len() && names.iter().all(|n| got.contains(n))
                    })
                    .map(|(_, t)| t)
                    .unwrap_or_else(|| panic!("no raw result for {names:?}"));
                prop_assert_eq!(
                    normalize(sql_table, &names),
                    normalize(raw_table, &names),
                    "mode {:?} shards {}: set {:?}",
                    mode,
                    shards,
                    names
                );
            }
        }
    }
}

/// One GROUPING SETS statement over a two-join star with a dimension
/// filter computes, cell for cell, what one statement per grouping set
/// computes: the §5 rewrite filters and joins once without changing any
/// answer.
#[test]
fn star_grouping_sets_equal_per_set_statements() {
    let schema = gbmqo_datagen::star(4_000, 42);
    let region_col = schema.store.schema().index_of("region").unwrap();
    let region = schema.store.value(0, region_col);
    let region = region.as_str().expect("region is text");
    let mut session = Session::builder()
        .table("sales", schema.sales.clone())
        .table("product", schema.product.clone())
        .table("store", schema.store.clone())
        .search(SearchConfig::pruned())
        .build()
        .unwrap();
    let statement = |group_by: &str| {
        format!(
            "SELECT COUNT(*) AS n FROM sales \
             JOIN product ON sales.prod_key = product.prod_key \
             JOIN store ON sales.store_key = store.store_key \
             WHERE region = '{region}' GROUP BY {group_by}"
        )
    };
    let mut run = |sql: &str| {
        let lowered = compile(sql, session.engine().catalog())
            .unwrap_or_else(|e| panic!("{}", e.render(sql)));
        execute(
            &lowered,
            &mut session,
            CacheControl::Bypass,
            &mut QueryCtx::default(),
        )
        .unwrap()
    };
    let combined = run(&statement(
        "GROUPING SETS ((prod_key), (store_key), (prod_key, store_key))",
    ));
    assert_eq!(combined.len(), 3);
    for (tag, table) in &combined {
        let per_set = run(&statement(&tag.replace(',', ", ")));
        assert_eq!(per_set.len(), 1);
        assert_eq!(&per_set[0].0, tag);
        let names: Vec<&str> = tag.split(',').collect();
        assert!(table.num_rows() > 0, "set {tag} is empty");
        assert_eq!(
            normalize(table, &names),
            normalize(&per_set[0].1, &names),
            "set {tag}"
        );
    }
}

// ---------------------------------------------------------------------
// Star and filtered statements run through the session: its plan cache
// and aggregate cache serve their repeats, and both go stale exactly
// when the fact changes.
// ---------------------------------------------------------------------

const FILTERED: &str = "SELECT COUNT(*) AS n FROM sales WHERE qty = 3 \
                        GROUP BY GROUPING SETS ((channel), (promo), (channel, promo))";

const STAR: &str = "SELECT COUNT(*) AS n FROM sales \
                    JOIN product ON sales.prod_key = product.prod_key \
                    JOIN store ON sales.store_key = store.store_key \
                    WHERE qty >= 5 \
                    GROUP BY GROUPING SETS ((channel), (promo), (channel, promo))";

/// A session over `gbmqo_datagen::star(4_000, 42)` with an aggregate
/// cache of `budget` bytes, and its fact table.
fn star_session(budget: usize) -> (Session, Table) {
    let schema = gbmqo_datagen::star(4_000, 42);
    let mut builder = Session::builder().mat_cache_budget_bytes(budget);
    for (name, table) in schema.tables() {
        builder = builder.table(name, table.clone());
    }
    (builder.build().unwrap(), schema.sales)
}

fn run_sql(session: &mut Session, sql: &str, cache: CacheControl) -> Vec<(String, Table)> {
    let lowered =
        compile(sql, session.engine().catalog()).unwrap_or_else(|e| panic!("{}", e.render(sql)));
    execute(&lowered, session, cache, &mut QueryCtx::default()).unwrap()
}

/// Rows counted over every grouping set of an answer.
fn counted(results: &[(String, Table)]) -> i64 {
    let total = |t: &Table| -> i64 {
        let n = t.num_columns() - 1;
        (0..t.num_rows())
            .map(|r| t.value(r, n).as_int().unwrap())
            .sum()
    };
    results.iter().map(|(_, t)| total(t)).sum()
}

/// `FILTERED` with `qty = literal`, answered from `fact` directly:
/// filter, then one Group By per set.
fn filtered_reference(fact: &Table, literal: i64) -> Vec<(String, Table)> {
    let mut m = ExecMetrics::new();
    let pred = Predicate::Eq("qty".into(), Value::Int(literal));
    let selected = filter(fact, &pred, &mut m).unwrap();
    [vec!["channel"], vec!["promo"], vec!["channel", "promo"]]
        .iter()
        .map(|set| {
            let cols: Vec<usize> = set
                .iter()
                .map(|c| fact.schema().index_of(c).unwrap())
                .collect();
            let t = sort_group_by(&selected, &cols, &[AggSpec::count()], &mut m).unwrap();
            (set.join(","), t)
        })
        .collect()
}

fn assert_same_answer(a: &[(String, Table)], b: &[(String, Table)], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}");
    for ((tag, x), (other, y)) in a.iter().zip(b) {
        assert_eq!(tag, other, "{context}");
        let names: Vec<&str> = tag.split(',').collect();
        assert_eq!(
            normalize(x, &names),
            normalize(y, &names),
            "{context}: set {tag}"
        );
    }
}

#[test]
fn a_repeated_star_statement_is_a_plan_cache_hit() {
    let (mut session, _) = star_session(0);
    let lowered = compile(STAR, session.engine().catalog()).unwrap();
    let LoweredQuery::Star {
        fact,
        dims,
        sets,
        fact_filter,
        aggregates,
    } = &lowered
    else {
        panic!("a JOIN lowers to the star pushdown: {lowered:?}");
    };
    let requests: Vec<Vec<&str>> = sets
        .iter()
        .map(|s| s.iter().map(String::as_str).collect())
        .collect();
    let run = |session: &mut Session| {
        let ctx = &mut QueryCtx::default();
        let filter = fact_filter.as_ref();
        let cache = CacheControl::Default;
        grouping_sets_over_star(
            session, fact, dims, &requests, filter, aggregates, cache, ctx,
        )
        .unwrap()
    };
    let first = run(&mut session);
    assert!(!first.stats.cache_hit && first.stats.optimizer_calls > 0);
    let before = session.cache_stats();
    let again = run(&mut session);
    let after = session.cache_stats();
    assert!(again.stats.cache_hit);
    assert_eq!(again.stats.optimizer_calls, 0, "a repeat runs no search");
    assert_eq!((after.hits, after.misses), (before.hits + 1, before.misses));
    assert_same_answer(&first.results, &again.results, "repeat");
}

#[test]
fn a_repeated_filtered_statement_is_served_from_the_aggregate_cache() {
    let (mut session, fact) = star_session(1 << 22);
    let first = run_sql(&mut session, FILTERED, CacheControl::Default);
    let before = session.mat_cache_stats();
    let again = run_sql(&mut session, FILTERED, CacheControl::Default);
    assert!(session.mat_cache_stats().hits > before.hits);
    assert_same_answer(&first, &again, "repeat");
    assert_same_answer(&again, &filtered_reference(&fact, 3), "reference");
}

#[test]
fn predicates_differing_in_one_literal_share_no_plan_and_no_aggregate() {
    let (mut session, fact) = star_session(1 << 22);
    for _ in 0..2 {
        run_sql(&mut session, FILTERED, CacheControl::Default);
    }
    let (plans, aggregates) = (session.cache_stats(), session.mat_cache_stats());
    let other = run_sql(
        &mut session,
        &FILTERED.replace("qty = 3", "qty = 4"),
        CacheControl::Default,
    );
    let after = session.cache_stats();
    assert_eq!((after.hits, after.misses), (plans.hits, plans.misses + 1));
    assert_eq!(session.mat_cache_stats().hits, aggregates.hits);
    assert_same_answer(&other, &filtered_reference(&fact, 4), "qty = 4");
}

#[test]
fn appends_reach_the_next_filtered_and_star_answers() {
    let (mut session, fact) = star_session(1 << 22);
    let before = (
        counted(&run_sql(&mut session, FILTERED, CacheControl::Default)),
        counted(&run_sql(&mut session, STAR, CacheControl::Default)),
    );
    let delta = fact.gather(&(0..600).collect::<Vec<u32>>());
    session.append("sales", delta.clone()).unwrap();
    let grown = Table::concat(&[&fact, &delta]).unwrap();
    let filtered = run_sql(&mut session, FILTERED, CacheControl::Default);
    assert_same_answer(
        &filtered,
        &filtered_reference(&grown, 3),
        "filtered after append",
    );
    let star = run_sql(&mut session, STAR, CacheControl::Default);
    let qualifying = |t: &Table| {
        let mut m = ExecMetrics::new();
        let pred = Predicate::Ge("qty".into(), Value::Int(5));
        filter(t, &pred, &mut m).unwrap().num_rows() as i64
    };
    // Every fact row finds its product and store: each set counts every
    // qualifying row once.
    assert_eq!(counted(&star), 3 * qualifying(&grown));
    assert!(counted(&filtered) > before.0 && counted(&star) > before.1);
}

// ---------------------------------------------------------------------
// Star == join-then-group, per set: NULL fact keys, an empty dimension,
// a fact filter that keeps nothing, a dimension filter, an append
// between two requests, 1/2/4 shards, a cold, warm or bypassed cache.
// ---------------------------------------------------------------------

/// `f(k1, k2, x, y)`: `k1` is NULL on every `null_every`-th row and
/// otherwise ranges one past `d1`'s keys, `k2` one past `d2`'s.
fn star_fact(rows: usize, seed: u64, null_every: usize, d1: i64, d2: i64) -> Table {
    let schema = Schema::new(vec![
        Field::new("k1", DataType::Int64),
        Field::new("k2", DataType::Int64),
        Field::new("x", DataType::Int64),
        Field::new("y", DataType::Int64),
    ])
    .unwrap();
    let mut tb = TableBuilder::new(schema);
    let mut h = seed | 1;
    for i in 0..rows {
        h = h
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = (h >> 33) as i64;
        let k1 = match i % null_every {
            0 => Value::Null,
            _ => Value::Int(r % (d1 + 1)),
        };
        let row = [
            k1,
            Value::Int((r >> 7) % (d2 + 1)),
            Value::Int(r % 5),
            Value::Int((r >> 3) % 3),
        ];
        tb.push_row(&row).unwrap();
    }
    tb.finish().unwrap()
}

/// A dimension `(key, label)` keyed by `0..keys`, labels `v0`/`v1`.
fn star_dim(key: &str, label: &str, keys: i64) -> Table {
    let schema = Schema::new(vec![
        Field::new(key, DataType::Int64),
        Field::new(label, DataType::Utf8),
    ])
    .unwrap();
    let mut tb = TableBuilder::new(schema);
    for k in 0..keys {
        tb.push_row(&[Value::Int(k), Value::str(&format!("v{}", k % 2))])
            .unwrap();
    }
    tb.finish().unwrap()
}

const STAR_SETS: [&[&str]; 5] = [&["x"], &["y"], &["x", "y"], &["k1"], &["k1", "y"]];

/// The statement's answer computed the other way round: join the whole
/// fact with both dimensions, apply the WHERE, then group each set.
fn join_then_group(
    fact: &Table,
    d1: &Table,
    d2: &Table,
    where_: &[Predicate],
) -> Vec<(String, Table)> {
    let mut m = ExecMetrics::new();
    let j1 = hash_join(fact, d1, &[0], &[0], &mut m).unwrap();
    let k2 = j1.schema().index_of("k2").unwrap();
    let mut joined = hash_join(&j1, d2, &[k2], &[0], &mut m).unwrap();
    for pred in where_ {
        joined = filter(&joined, pred, &mut m).unwrap();
    }
    STAR_SETS
        .iter()
        .map(|set| {
            let cols: Vec<usize> = set
                .iter()
                .map(|c| joined.schema().index_of(c).unwrap())
                .collect();
            let t = sort_group_by(&joined, &cols, &[AggSpec::count()], &mut m).unwrap();
            (set.join(","), t)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn star_results_equal_join_then_group_per_set(
        rows in 20usize..160,
        seed in any::<u64>(),
        null_every in 2usize..7,
        d1_keys in 0i64..5,
        d2_keys in 1i64..4,
        fact_filter in 0usize..3,
        dim_filter in any::<bool>(),
        shards in prop::sample::select(vec![1u32, 2, 4]),
    ) {
        let fact = star_fact(rows, seed, null_every, d1_keys, d2_keys);
        let delta = star_fact(rows / 2 + 1, seed ^ 0x5eed, null_every, d1_keys, d2_keys);
        let (d1, d2) = (star_dim("dk1", "l1", d1_keys), star_dim("dk2", "l2", d2_keys));
        let mut where_: Vec<Predicate> = Vec::new();
        let mut conjuncts: Vec<String> = Vec::new();
        // 0: no fact filter; 1: one that keeps some rows; 2: one that keeps nothing.
        let x_from = [None, Some(2), Some(99)][fact_filter];
        if let Some(v) = x_from {
            where_.push(Predicate::Ge("x".into(), Value::Int(v)));
            conjuncts.push(format!("x >= {v}"));
        }
        if dim_filter {
            where_.push(Predicate::Eq("l1".into(), Value::str("v1")));
            conjuncts.push("l1 = 'v1'".into());
        }
        let sql = format!(
            "SELECT COUNT(*) FROM f JOIN d1 ON f.k1 = d1.dk1 JOIN d2 ON f.k2 = d2.dk2{} \
             GROUP BY GROUPING SETS ({})",
            if conjuncts.is_empty() { String::new() } else { format!(" WHERE {}", conjuncts.join(" AND ")) },
            STAR_SETS.iter().map(|s| format!("({})", s.join(", "))).collect::<Vec<_>>().join(", "),
        );
        for cache in ["cold", "warm", "bypass"] {
            let mut session = Session::builder()
                .table("f", fact.clone())
                .table("d1", d1.clone())
                .table("d2", d2.clone())
                .shards(shards)
                .mat_cache_budget_bytes(1 << 20)
                .build()
                .unwrap();
            let control = match cache {
                "bypass" => CacheControl::Bypass,
                _ => CacheControl::Default,
            };
            if cache == "warm" {
                run_sql(&mut session, &sql, CacheControl::Default);
            }
            let context = format!("{sql}; {shards} shards, {cache}");
            let first = run_sql(&mut session, &sql, control);
            assert_same_answer(&first, &join_then_group(&fact, &d1, &d2, &where_), &context);
            session.append("f", delta.clone()).unwrap();
            let grown = Table::concat(&[&fact, &delta]).unwrap();
            let again = run_sql(&mut session, &sql, control);
            let context = format!("{context}, after an append");
            assert_same_answer(&again, &join_then_group(&grown, &d1, &d2, &where_), &context);
        }
    }
}

// ---------------------------------------------------------------------
// Wire: SqlQuery over a live server — the happy path matches the
// workload opcode, and hostile frames get structured errors without
// killing the connection.
// ---------------------------------------------------------------------

fn serve(table: Table) -> ServerHandle {
    let session = Session::builder().table("t", table).build().unwrap();
    Server::bind(
        "127.0.0.1:0",
        session,
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn sql_over_wire_matches_workload_opcode() {
    let table = modular_table(300, &[4, 3, 5, 2]);
    let handle = serve(table);
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let sql_results = client
        .sql(
            "SELECT COUNT(*) AS cnt FROM t \
             GROUP BY GROUPING SETS ((c0), (c1), (c0, c2))",
            0,
        )
        .unwrap();
    let raw_results = client
        .submit_workload(
            "t",
            &["c0", "c1", "c2"],
            &[vec!["c0"], vec!["c1"], vec!["c0", "c2"]],
            0,
        )
        .unwrap();
    assert_eq!(sql_results.len(), 3);
    assert_eq!(raw_results.len(), 3);
    // The workload opcode reports sets in plan order, the SQL opcode in
    // statement order — match by tag.
    for (tag, ta) in &sql_results {
        let tb = raw_results
            .iter()
            .find(|(t, _)| t == tag)
            .map(|(_, t)| t)
            .unwrap_or_else(|| panic!("no workload result tagged {tag}"));
        let names: Vec<&str> = tag.split(',').collect();
        assert_eq!(normalize(ta, &names), normalize(tb, &names), "set {tag}");
    }
    handle.shutdown();
}

#[test]
fn oversized_sql_statement_gets_structured_error_and_connection_survives() {
    let handle = serve(modular_table(50, &[4, 3]));
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let huge = format!(
        "SELECT COUNT(*) FROM t GROUP BY {}",
        "c".repeat(MAX_SQL_LEN + 1)
    );
    match client.sql(&huge, 0) {
        Err(ServerError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("byte limit"), "{message}");
        }
        other => panic!("expected a BadRequest error, got {other:?}"),
    }
    // Same connection keeps working.
    client.ping().unwrap();
    let results = client.sql("SELECT COUNT(*) FROM t GROUP BY c0", 0).unwrap();
    assert_eq!(results.len(), 1);
    handle.shutdown();
}

#[test]
fn unknown_names_in_sql_map_to_not_found_with_diagnostics() {
    let handle = serve(modular_table(50, &[4, 3]));
    let mut client = Client::connect(handle.local_addr()).unwrap();

    for (sql, needle) in [
        ("SELECT COUNT(*) FROM ghost GROUP BY c0", "unknown table"),
        ("SELECT COUNT(*) FROM t GROUP BY ghost", "unknown column"),
    ] {
        match client.sql(sql, 0) {
            Err(ServerError::Remote { code, message }) => {
                assert_eq!(code, ErrorCode::NotFound, "{sql}");
                assert!(message.contains(needle), "{sql}: {message}");
                // the rendered diagnostic carries the caret line
                assert!(message.contains('^'), "{sql}: {message}");
            }
            other => panic!("{sql}: expected NotFound, got {other:?}"),
        }
    }
    // Parse errors are BadRequest, not NotFound.
    match client.sql("SELECT COUNT(*) FROM t GROUP", 0) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // The connection survived all of it.
    let results = client.sql("SELECT COUNT(*) FROM t GROUP BY c1", 0).unwrap();
    assert_eq!(results.len(), 1);
    handle.shutdown();
}

/// Re-attach the length prefix [`read_frame`] strips, giving the full
/// frame [`decode_response`] expects.
fn reframe(payload: Vec<u8>) -> Vec<u8> {
    let mut full = Vec::with_capacity(payload.len() + 4);
    codec::put_u32(&mut full, payload.len() as u32);
    full.extend_from_slice(&payload);
    full
}

/// A raw `SqlQuery` frame whose statement bytes are not UTF-8: the
/// decode must fail into a structured error frame, and the connection
/// must keep serving.
#[test]
fn invalid_utf8_sql_frame_is_rejected_cleanly() {
    let handle = serve(modular_table(50, &[4, 3]));
    let mut sock = std::net::TcpStream::connect(handle.local_addr()).unwrap();

    // Handshake exactly as the real client does.
    write_frame(
        &mut sock,
        &encode_request(1, &Request::Hello { features: 0 }, 0),
    )
    .unwrap();
    let frame = reframe(read_frame(&mut sock).unwrap().expect("hello ack"));
    let (id, resp) = decode_response(&frame, 0).unwrap();
    assert_eq!(id, 1);
    assert!(matches!(resp, Response::HelloAck { .. }));

    // SqlQuery body: length-prefixed "string" holding invalid UTF-8,
    // then deadline_ms and the cache-control byte.
    let mut body = Vec::new();
    codec::put_u32(&mut body, 4);
    body.extend_from_slice(&[0xff, 0xfe, 0x80, 0x81]);
    codec::put_u32(&mut body, 0); // deadline_ms
    body.push(0); // CacheControl::Default
    write_frame(&mut sock, &encode_frame(2, OP_SQL, &body, 0)).unwrap();

    let frame = reframe(read_frame(&mut sock).unwrap().expect("error reply"));
    let (id, resp) = decode_response(&frame, 0).unwrap();
    assert_eq!(id, 2);
    match resp {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("utf-8"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }

    // The connection still answers.
    write_frame(&mut sock, &encode_request(3, &Request::Ping, 0)).unwrap();
    let frame = reframe(read_frame(&mut sock).unwrap().expect("pong"));
    let (id, resp) = decode_response(&frame, 0).unwrap();
    assert_eq!(id, 3);
    assert!(matches!(resp, Response::Pong));
    handle.shutdown();
}
