//! Property-based tests over the statistics subsystem.

use gbmqo_stats::{
    exact_distinct, reservoir_sample, CardinalitySource, DistinctEstimator, ExactSource,
    FrequencyProfile, SampledSource, TableStats,
};
use gbmqo_storage::{
    Column, ColumnBuilder, DataType, Field, KeyEncoder, RowKey, Schema, Table, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn int_table(vals: Vec<i64>) -> Table {
    let schema = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
    Table::new(schema, vec![Column::from_i64(vals)]).unwrap()
}

/// A table exercising every key encoding: a narrow int and a dictionary
/// string, both with NULLs (`u64` codes), two full-range ints (65 bits
/// each: one needs `u128` codes, both together exceed 128 bits and fall
/// back to byte keys) and a float (never packable). `vals[i]` drives row
/// `i`; a value divisible by 7 is NULL where NULLs are allowed.
fn mixed_table(vals: &[i64]) -> Table {
    let schema = Schema::new(vec![
        Field::new("narrow", DataType::Int64),
        Field::new("name", DataType::Utf8),
        Field::new("wide_a", DataType::Int64),
        Field::new("wide_b", DataType::Int64),
        Field::new("ratio", DataType::Float64),
    ])
    .unwrap();
    let mut cols: Vec<ColumnBuilder> = schema
        .fields()
        .iter()
        .map(|f| ColumnBuilder::new(f.data_type))
        .collect();
    for &v in vals {
        let null = v % 7 == 0;
        let cells = [
            if null { Value::Null } else { Value::Int(v % 5) },
            if null {
                Value::Null
            } else {
                Value::Str(format!("s{}", v % 4).into())
            },
            Value::Int([i64::MIN, -1, i64::MAX][(v % 3) as usize]),
            Value::Int([i64::MAX, i64::MIN][(v % 2) as usize]),
            Value::Float((v % 3) as f64 / 2.0),
        ];
        for (col, cell) in cols.iter_mut().zip(&cells) {
            col.push(cell).unwrap();
        }
    }
    Table::new(
        schema,
        cols.into_iter().map(ColumnBuilder::finish).collect(),
    )
    .unwrap()
}

/// The byte-key reference both packed paths must agree with: occurrences
/// of each distinct key among `rows` of `table` projected on `cols`.
fn reference_occurrences(table: &Table, cols: &[usize], rows: &[u32]) -> HashMap<RowKey, usize> {
    let key_cols: Vec<&Column> = cols.iter().map(|&c| table.column(c)).collect();
    let mut enc = KeyEncoder::new();
    let mut seen = HashMap::new();
    for &row in rows {
        *seen.entry(enc.encode(&key_cols, row as usize)).or_insert(0) += 1;
    }
    seen
}

const ESTIMATORS: [DistinctEstimator; 4] = [
    DistinctEstimator::Gee,
    DistinctEstimator::Shlosser,
    DistinctEstimator::Jackknife,
    DistinctEstimator::Hybrid,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packed-key counting (`u64`, `u128`) and the byte-key fallback all
    /// count what the byte-key reference counts — over NULLs, dictionary
    /// strings (including a slice whose dictionary has codes the slice
    /// never uses), empty tables, floats and key sets wider than 128 bits
    /// — and `ExactSource` memoizes the same counts.
    #[test]
    fn exact_distinct_matches_byte_key_reference(
        vals in prop::collection::vec(0i64..60, 0..120),
        skip in 0usize..40,
    ) {
        let full = mixed_table(&vals);
        let skip = skip.min(full.num_rows());
        let tail = full.slice_rows(skip, full.num_rows() - skip).unwrap();
        for table in [&full, &tail] {
            let all: Vec<u32> = (0..table.num_rows() as u32).collect();
            let mut source = ExactSource::new(table);
            for cols in [
                vec![], vec![0], vec![1], vec![2], vec![4], vec![0, 1], vec![1, 0],
                vec![2, 0], vec![2, 3], vec![1, 4], vec![0, 1, 2], vec![0, 1, 2, 3],
            ] {
                let expected = reference_occurrences(table, &cols, &all).len();
                prop_assert_eq!(exact_distinct(table, &cols), expected, "cols {:?}", &cols);
                if !cols.is_empty() {
                    prop_assert_eq!(source.distinct(&cols), expected as f64, "cols {:?}", &cols);
                }
            }
        }
    }

    /// The packed frequency profile is the byte-key profile, and a sample
    /// held by a `TableStats` is the sample — and yields the estimates —
    /// that a source drawing its own would get.
    #[test]
    fn sampled_statistics_match_byte_key_reference(
        vals in prop::collection::vec(0i64..60, 1..120),
        sample_size in 1usize..150,
        seed in 0u64..50,
    ) {
        let table = mixed_table(&vals);
        let n = table.num_rows();
        let expected_rows = reservoir_sample(n, sample_size, &mut StdRng::seed_from_u64(seed));
        let mut stats = TableStats::default();
        prop_assert_eq!(stats.sample(n, sample_size, seed).rows(), &expected_rows[..]);

        for est in ESTIMATORS {
            let mut owned = SampledSource::new(&table, sample_size, est, seed);
            prop_assert_eq!(owned.sample_rows(), &expected_rows[..]);
            for cols in [vec![0], vec![1], vec![2], vec![0, 1], vec![2, 3], vec![1, 4]] {
                let reference = reference_occurrences(&table, &cols, &expected_rows);
                let gathered: Vec<Column> =
                    cols.iter().map(|&c| table.column(c).gather(&expected_rows)).collect();
                let profile = FrequencyProfile::of_columns(&gathered.iter().collect::<Vec<_>>());
                prop_assert_eq!(profile.distinct_in_sample(), reference.len());
                for i in 1..=sample_size {
                    let f_i = reference.values().filter(|&&c| c == i).count();
                    prop_assert_eq!(profile.f(i), f_i, "f_{} of {:?}", i, &cols);
                }
                // Twice through the shared sample: built, then memoized.
                for _ in 0..2 {
                    let shared = stats.sample(n, sample_size, seed);
                    let mut borrowed = SampledSource::with_sample(&table, shared, est);
                    prop_assert_eq!(borrowed.distinct(&cols), owned.distinct(&cols));
                }
            }
        }
    }

    /// Every estimator's output lies in [distinct-in-sample, table rows].
    #[test]
    fn estimates_are_bounded(
        vals in prop::collection::vec(0i64..40, 1..300),
        sample_frac in 0.1f64..1.0,
        seed in 0u64..100,
    ) {
        let n = vals.len();
        let table = int_table(vals);
        let mut rng = StdRng::seed_from_u64(seed);
        let k = ((n as f64 * sample_frac) as usize).max(1);
        let sample = reservoir_sample(n, k, &mut rng);
        let profile = FrequencyProfile::of_columns(&[&table.column(0).gather(&sample)]);
        let d_sample = profile.distinct_in_sample() as f64;
        for est in [
            DistinctEstimator::Gee,
            DistinctEstimator::Shlosser,
            DistinctEstimator::Jackknife,
            DistinctEstimator::Hybrid,
        ] {
            let e = est.estimate(&profile, n);
            prop_assert!(e >= d_sample - 1e-9, "{est:?}: {e} < sample distinct {d_sample}");
            prop_assert!(e <= n as f64 + 1e-9, "{est:?}: {e} > n {n}");
        }
    }

    /// The frequency profile is a partition of the sample:
    /// Σ i·f_i = sample size and Σ f_i = distinct-in-sample.
    #[test]
    fn frequency_profile_sums(
        vals in prop::collection::vec(0i64..20, 1..200),
        k in 1usize..200,
    ) {
        let n = vals.len();
        let table = int_table(vals);
        let mut rng = StdRng::seed_from_u64(1);
        let sample = reservoir_sample(n, k.min(n), &mut rng);
        let p = FrequencyProfile::of_columns(&[&table.column(0).gather(&sample)]);
        let total: usize = (1..=p.max_frequency()).map(|i| i * p.f(i)).sum();
        prop_assert_eq!(total, p.sample_size());
        let distinct: usize = (1..=p.max_frequency()).map(|i| p.f(i)).sum();
        prop_assert_eq!(distinct, p.distinct_in_sample());
    }

    /// Exact distinct of a subset of columns never exceeds the joint
    /// distinct, and the joint never exceeds the row count.
    #[test]
    fn distinct_monotonicity(
        a in prop::collection::vec(0i64..10, 1..150),
    ) {
        let n = a.len();
        let b: Vec<i64> = (0..n as i64).map(|i| i % 7).collect();
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let t = Table::new(schema, vec![Column::from_i64(a), Column::from_i64(b)]).unwrap();
        let da = exact_distinct(&t, &[0]);
        let db = exact_distinct(&t, &[1]);
        let dab = exact_distinct(&t, &[0, 1]);
        prop_assert!(dab >= da.max(db));
        prop_assert!(dab <= da * db);
        prop_assert!(dab <= n);
    }

    /// SampledSource respects the cap: joint ≤ min(n, Π singles),
    /// and ExactSource agrees with exact_distinct.
    #[test]
    fn sources_respect_caps(vals in prop::collection::vec(0i64..6, 10..200)) {
        let n = vals.len();
        let doubled: Vec<i64> = vals.iter().map(|v| v * 3).collect();
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![Column::from_i64(vals), Column::from_i64(doubled)],
        )
        .unwrap();

        let mut exact = ExactSource::new(&t);
        prop_assert_eq!(exact.distinct(&[0]), exact_distinct(&t, &[0]) as f64);

        let mut sampled = SampledSource::new(&t, n / 2 + 1, DistinctEstimator::Hybrid, 3);
        let ja = sampled.distinct(&[0]);
        let jb = sampled.distinct(&[1]);
        let joint = sampled.distinct(&[0, 1]);
        prop_assert!(joint <= ja * jb + 1e-6);
        prop_assert!(joint <= n as f64 + 1e-6);
    }

    /// Reservoir samples are uniform-without-replacement draws: right
    /// size, no duplicates, in range.
    #[test]
    fn reservoir_is_sane(n in 0usize..500, k in 0usize..600, seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = reservoir_sample(n, k, &mut rng);
        prop_assert_eq!(s.len(), k.min(n));
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), s.len());
        prop_assert!(s.iter().all(|&r| (r as usize) < n));
    }
}
