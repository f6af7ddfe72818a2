//! Kernel-equivalence properties: the hash kernel, hashed or direct
//! address, must agree with sort-based aggregation — which shares no
//! key → gid code with it — on every input: NULL keys, dictionary
//! strings, float keys, a full-range `i64` key (a 65-bit `u128` code) and
//! keys too wide for packed codes (`RowKey` fallback, inline and heap),
//! the empty input, the empty grouping, a single group, input sizes on
//! both sides of every partition/worker threshold, key domains on both
//! sides of the direct-address bound, and any thread count.

use gbmqo_exec::{radix_group_by, sort_group_by, AggSpec, ExecMetrics};
use gbmqo_storage::{DataType, Field, Schema, Table, TableBuilder, Value};
use proptest::prelude::*;

/// Row = (small int key, word key, wide int key, value). `None` = NULL.
type Row = (Option<i64>, Option<&'static str>, Option<i64>, Option<i64>);

/// Schema: g_small (packable), g_str (dict-coded, one word longer than
/// 23 bytes so row-key fallbacks heap-allocate), g_wide (up to the full
/// i64 range: one column needs 65 bits, two overflow u128), v
/// (aggregated), g_float (derived from v; a float key is never
/// packable), g_dom (16 × the row's position, the last row's raised to
/// `16 × rows - 2`: with NULL's code, a domain of exactly `16 × rows`
/// codes — 16 codes a row being the kernel's direct-address bound — so
/// addressed directly at `2^k` rows up to 4,096 and hashed at `2^k - 1`),
/// g_over (g_dom with one code more: hashed at every size), g_cap (the
/// row's position modulo `rows - 1`: a domain of `2^k` codes at `2^k`
/// rows, so of 2^16 codes, the largest direct-address table, at 65,536
/// rows and of 2^17 at 65,537).
fn build(rows: &[Row]) -> Table {
    let schema = Schema::new(vec![
        Field::new("g_small", DataType::Int64),
        Field::new("g_str", DataType::Utf8),
        Field::new("g_wide", DataType::Int64),
        Field::new("v", DataType::Int64),
        Field::new("g_float", DataType::Float64),
        Field::new("g_dom", DataType::Int64),
        Field::new("g_over", DataType::Int64),
        Field::new("g_cap", DataType::Int64),
    ])
    .unwrap();
    let mut tb = TableBuilder::new(schema);
    let val = |o: Option<i64>| o.map(Value::Int).unwrap_or(Value::Null);
    let n = rows.len() as i64;
    let span = (n - 1).max(1);
    for ((a, s, w, v), i) in rows.iter().zip(0i64..) {
        let last = i + 1 == n;
        tb.push_row(&[
            val(*a),
            s.map(Value::str).unwrap_or(Value::Null),
            val(*w),
            val(*v),
            v.map(|v| Value::Float((v % 7) as f64 * 0.5))
                .unwrap_or(Value::Null),
            Value::Int(if last { 16 * n - 2 } else { 16 * i }),
            Value::Int(if last { 16 * n - 1 } else { 16 * i }),
            Value::Int(i % span),
        ])
        .unwrap();
    }
    tb.finish().unwrap()
}

/// One grouping per key representation — packed u64 (g_small, g_str,
/// g_dom, g_over, g_cap), 65-bit u128 (g_wide), byte row keys (g_float) — their
/// mixes, the all-columns key and the empty grouping. At one thread, the
/// packed u64 ones whose domain is within the direct-address bound are
/// addressed directly.
fn groupings() -> Vec<Vec<usize>> {
    vec![
        vec![],
        vec![0],
        vec![1],
        vec![2],
        vec![4],
        vec![5],
        vec![0, 1],
        vec![2, 0],
        vec![4, 1],
        vec![5, 1],
        vec![6],
        vec![7],
        vec![0, 1, 2],
    ]
}

fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    let small = prop_oneof![1 => Just(None), 7 => (-3i64..4).prop_map(Some)];
    let word = prop_oneof![
        1 => Just(None),
        7 => prop::sample::select(vec![
            "x",
            "y",
            "zzz",
            "a-string-well-beyond-twenty-three-bytes",
        ]).prop_map(Some),
    ];
    let wide = prop_oneof![
        1 => Just(None),
        4 => any::<i64>().prop_map(Some),
        3 => (0i64..3).prop_map(Some),
        1 => prop::sample::select(vec![i64::MIN, i64::MAX]).prop_map(Some),
    ];
    let value = prop_oneof![1 => Just(None), 7 => (-100i64..100).prop_map(Some)];
    prop::collection::vec((small, word, wide, value), 0..300)
}

/// Input sizes on both sides of where the kernel's fan-out changes:
/// 4,096 rows per partition, 8,192 (a second partition), 16,384 (more
/// than one worker, more than one morsel), 32,768 (pass 1 on more than
/// one worker; a second morsel of the one-partition pass on one). At
/// 1,024 and 4,096 rows g_dom's domain is exactly 16 codes a row (direct
/// address; at 4,096 also the 2^16 cap) and g_over's one code more
/// (hashed); at 1,023 and 4,095 rows both are hashed. 65,536 and 65,537
/// rows put g_cap at 16 bits (the largest direct-address table) and 17.
fn straddling_size() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![
        1_023usize, 1_024, 4_095, 4_096, 4_097, 8_191, 8_192, 8_193, 16_383, 16_384, 16_385,
        32_767, 32_768, 32_769, 65_536, 65_537,
    ])
}

fn aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::count(),
        AggSpec::sum("v", "sum_v"),
        AggSpec::min("v", "min_v"),
        AggSpec::max("g_str", "max_s"),
    ]
}

/// Sorted row-strings: order-insensitive table comparison.
fn norm(t: &Table) -> Vec<Vec<String>> {
    let mut v: Vec<Vec<String>> = (0..t.num_rows())
        .map(|r| {
            (0..t.num_columns())
                .map(|c| t.value(r, c).to_string())
                .collect()
        })
        .collect();
    v.sort();
    v
}

/// hash == direct-address == sort at 1, 2 and 4 threads (a small domain
/// is addressed directly wherever the kernel has one aggregate worker),
/// without an estimate and with an exact, a minimal and a
/// one-group-per-row one.
fn assert_kernels_agree(table: &Table, group_cols: &[usize]) {
    let mut m = ExecMetrics::new();
    let sorted = sort_group_by(table, group_cols, &aggs(), &mut m).unwrap();
    let (groups, rows) = (sorted.num_rows() as u64, table.num_rows() as u64);
    let reference = norm(&sorted);
    for threads in [1usize, 2, 4] {
        for est in [None, Some(groups), Some(1), Some(rows)] {
            let hashed =
                radix_group_by(table, group_cols, &aggs(), threads, est, None, &mut m).unwrap();
            assert_eq!(
                reference,
                norm(&hashed),
                "hash kernel diverged ({rows} rows, threads {threads}, estimate {est:?}, \
                 cols {group_cols:?})",
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// hash == sort for every grouping over mixed-type keys with NULLs,
    /// at 1, 2 and 4 threads.
    #[test]
    fn kernels_agree_on_arbitrary_tables(rows in rows_strategy()) {
        let table = build(&rows);
        for cols in groupings() {
            assert_kernels_agree(&table, &cols);
        }
    }

    /// The same at sizes where the partition and worker counts change:
    /// the generated rows, cycled up to the size (no rows stay no rows).
    #[test]
    fn kernels_agree_across_fanout_thresholds(
        rows in rows_strategy(),
        size in straddling_size(),
    ) {
        let cycled: Vec<Row> = rows.iter().cycle().take(size).copied().collect();
        let table = build(&cycled);
        for cols in groupings() {
            assert_kernels_agree(&table, &cols);
        }
    }

    /// Two full-range i64 columns overflow the u128 code; the kernel must
    /// fall back to row keys and still agree with the sort kernel.
    #[test]
    fn wide_keys_fall_back_to_row_keys(
        rows in prop::collection::vec((any::<i64>(), any::<i64>(), 0i64..50), 1..200),
    ) {
        let schema = Schema::new(vec![
            Field::new("w1", DataType::Int64),
            Field::new("w2", DataType::Int64),
            Field::new("v", DataType::Int64),
        ])
        .unwrap();
        let mut tb = TableBuilder::new(schema);
        for (a, b, v) in &rows {
            tb.push_row(&[Value::Int(*a), Value::Int(*b), Value::Int(*v)]).unwrap();
        }
        let table = tb.finish().unwrap();
        let mut m = ExecMetrics::new();
        let reference = sort_group_by(&table, &[0, 1], &[AggSpec::count()], &mut m).unwrap();
        let radix = radix_group_by(&table, &[0, 1], &[AggSpec::count()], 4, None, None, &mut m).unwrap();
        prop_assert_eq!(norm(&reference), norm(&radix));
    }
}

#[test]
fn empty_input_yields_empty_result() {
    let table = build(&[]);
    for cols in groupings() {
        assert_kernels_agree(&table, &cols);
        let mut m = ExecMetrics::new();
        let out = radix_group_by(&table, &cols, &aggs(), 4, None, None, &mut m).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.num_columns(), cols.len() + aggs().len());
    }
}

#[test]
fn single_group_input() {
    let rows: Vec<Row> = (0..5000)
        .map(|i| (Some(7), Some("x"), Some(42), Some(i % 10)))
        .collect();
    let table = build(&rows);
    assert_kernels_agree(&table, &[0, 1, 2]);
    let mut m = ExecMetrics::new();
    let out = radix_group_by(&table, &[0], &[AggSpec::count()], 4, None, None, &mut m).unwrap();
    assert_eq!(out.num_rows(), 1);
    assert_eq!(out.value(0, 1), Value::Int(5000));
}

#[test]
fn metrics_track_packed_and_fallback_rows() {
    let rows: Vec<Row> = (0..1000)
        .map(|i| (Some(i % 5), Some("x"), Some(i64::MIN + i), Some(1)))
        .collect();
    let table = build(&rows);

    // g_small packs into a u64 code.
    let mut m = ExecMetrics::new();
    radix_group_by(&table, &[0], &[AggSpec::count()], 2, None, None, &mut m).unwrap();
    assert_eq!(m.packed_key_rows, 1000);
    assert_eq!(m.fallback_key_rows, 0);
    assert!(m.radix_partitions >= 1);

    // g_wide twice (65 bits each) overflows u128 → row-key fallback.
    let mut m = ExecMetrics::new();
    let wide = {
        let schema = Schema::new(vec![
            Field::new("w1", DataType::Int64),
            Field::new("w2", DataType::Int64),
        ])
        .unwrap();
        let mut tb = TableBuilder::new(schema);
        for i in 0..1000i64 {
            // Packing is range-based: a column spanning exactly
            // i64::MIN..=i64::MAX needs 65 bits, so two such columns
            // overflow u128 and force the row-key fallback.
            let w1 = match i % 3 {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => i,
            };
            let w2 = match i % 3 {
                0 => i64::MAX,
                1 => i64::MIN,
                _ => -i,
            };
            tb.push_row(&[Value::Int(w1), Value::Int(w2)]).unwrap();
        }
        tb.finish().unwrap()
    };
    radix_group_by(&wide, &[0, 1], &[AggSpec::count()], 2, None, None, &mut m).unwrap();
    assert_eq!(m.fallback_key_rows, 1000);
    assert_eq!(m.packed_key_rows, 0);
}

/// The direct-address bound sits where the kernel's documentation puts
/// it: at 1,024 rows g_dom's domain of 16 codes a row is addressed
/// directly and g_over's one code more is hashed, and at 65,536 rows
/// g_cap's 2^16 codes are addressed directly and at 65,537 its 2^17 are
/// hashed. A hashed grouping under-estimated at one group grows its
/// table; a directly addressed one never resizes.
#[test]
fn direct_address_bound_is_sixteen_codes_a_row_up_to_two_to_the_sixteen() {
    let resizes = |rows: usize, col: usize| {
        let rows: Vec<Row> = (0..rows)
            .map(|_| (Some(1), Some("x"), Some(0), Some(1)))
            .collect();
        let table = build(&rows);
        assert_kernels_agree(&table, &[col]);
        let mut m = ExecMetrics::new();
        radix_group_by(&table, &[col], &aggs(), 1, Some(1), None, &mut m).unwrap();
        m.hash_resizes
    };
    assert_eq!(resizes(1_024, 5), 0, "g_dom: 16 codes a row, direct");
    assert!(resizes(1_024, 6) > 0, "g_over: one code more, hashed");
    assert!(resizes(1_023, 5) > 0, "g_dom at 2^k - 1 rows, hashed");
    assert_eq!(resizes(65_536, 7), 0, "g_cap: 2^16 codes, direct");
    assert!(resizes(65_537, 7) > 0, "g_cap: 2^17 codes, hashed");
}

#[test]
fn estimated_groups_steers_partition_count() {
    let rows: Vec<Row> = (0..40_000)
        .map(|i| (Some(i % 97), Some("x"), Some(i % 3), Some(1)))
        .collect();
    let table = build(&rows);
    let mut m_small = ExecMetrics::new();
    radix_group_by(
        &table,
        &[0],
        &[AggSpec::count()],
        4,
        Some(97),
        None,
        &mut m_small,
    )
    .unwrap();
    let mut m_big = ExecMetrics::new();
    radix_group_by(
        &table,
        &[0],
        &[AggSpec::count()],
        4,
        Some(2_000_000),
        None,
        &mut m_big,
    )
    .unwrap();
    assert!(
        m_big.radix_partitions > m_small.radix_partitions,
        "a larger estimate must fan out wider ({} vs {})",
        m_big.radix_partitions,
        m_small.radix_partitions
    );
}
