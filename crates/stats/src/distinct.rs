//! Distinct-value estimation.
//!
//! The paper's cardinality cost model (§3.2.1) "assume\[s\] that known
//! techniques for estimating number of distinct values such as \[3\] may be
//! used" — \[3\] being Haas, Naughton, Seshadri & Stokes, *Sampling-based
//! estimation of the number of distinct values of an attribute*, VLDB 1995.
//! This module implements the standard estimators from that line of work:
//!
//! * **GEE** (Guaranteed-Error Estimator): `D = sqrt(n/r)·f₁ + Σ_{i≥2} fᵢ`
//! * **Shlosser's estimator** (good under skew)
//! * **First-order jackknife** (good for near-uniform data)
//! * **Hybrid** (Haas et al.): pick jackknife vs Shlosser based on the
//!   squared coefficient of variation of the frequency distribution.
//!
//! All estimates are clamped to `[d, n]` where `d` is the distinct count in
//! the sample and `n` the table size.

use crate::freq::FrequencyProfile;
use gbmqo_storage::{Column, KeyCode, KeyEncoder, PackedKeySpec, RowKey, Table};
use rustc_hash::FxHashSet;

/// Which estimator to apply to a sample frequency profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DistinctEstimator {
    /// Guaranteed-Error Estimator (Charikar et al.): robust default.
    #[default]
    Gee,
    /// Shlosser's estimator: accurate for skewed data.
    Shlosser,
    /// Smoothed first-order jackknife: accurate for near-uniform data.
    Jackknife,
    /// Haas et al. hybrid: switches between jackknife and Shlosser on an
    /// estimated skew statistic.
    Hybrid,
}

impl DistinctEstimator {
    /// Estimate the number of distinct values in a table of `table_rows`
    /// rows from the sample profile `p`.
    pub fn estimate(&self, p: &FrequencyProfile, table_rows: usize) -> f64 {
        let n = table_rows as f64;
        let r = p.sample_size() as f64;
        let d = p.distinct_in_sample() as f64;
        if p.sample_size() == 0 || table_rows == 0 {
            // No information: report 0 (callers that need a usable
            // cardinality must sample at least one row).
            return 0.0;
        }
        if p.sample_size() >= table_rows {
            return d; // the "sample" is the full table
        }
        let est = match self {
            DistinctEstimator::Gee => gee(p, n, r),
            DistinctEstimator::Shlosser => shlosser(p, n, r),
            DistinctEstimator::Jackknife => jackknife(p, n, r),
            DistinctEstimator::Hybrid => hybrid(p, n, r),
        };
        est.clamp(d, n)
    }
}

fn gee(p: &FrequencyProfile, n: f64, r: f64) -> f64 {
    let f1 = p.f(1) as f64;
    let rest: f64 = (2..=p.max_frequency()).map(|i| p.f(i) as f64).sum();
    (n / r).sqrt() * f1 + rest
}

fn shlosser(p: &FrequencyProfile, n: f64, r: f64) -> f64 {
    let q = r / n;
    let f1 = p.f(1) as f64;
    if f1 == 0.0 {
        return p.distinct_in_sample() as f64;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 1..=p.max_frequency() {
        let fi = p.f(i) as f64;
        if fi == 0.0 {
            continue;
        }
        num += (1.0 - q).powi(i as i32) * fi;
        den += (i as f64) * q * (1.0 - q).powi(i as i32 - 1) * fi;
    }
    if den <= 0.0 {
        return p.distinct_in_sample() as f64;
    }
    p.distinct_in_sample() as f64 + f1 * num / den
}

fn jackknife(p: &FrequencyProfile, n: f64, r: f64) -> f64 {
    // Unsmoothed first-order jackknife (Duj1):
    //   D = d / (1 - (1 - q) * f1 / r),  q = r/n
    let d = p.distinct_in_sample() as f64;
    let f1 = p.f(1) as f64;
    let q = r / n;
    let denom = 1.0 - (1.0 - q) * f1 / r;
    if denom <= 0.0 {
        n
    } else {
        d / denom
    }
}

/// Squared coefficient of variation of class sizes, method-of-moments
/// estimate (Haas et al. eq. for gamma²), floored at 0.
fn gamma_squared(p: &FrequencyProfile, n: f64, r: f64, d_hat: f64) -> f64 {
    let sum_i2: f64 = (1..=p.max_frequency())
        .map(|i| (i as f64) * (i as f64 - 1.0) * p.f(i) as f64)
        .sum();
    let g = (d_hat / n) * (n / r) * (n / r) * sum_i2 / n + d_hat / n - 1.0;
    g.max(0.0)
}

fn hybrid(p: &FrequencyProfile, n: f64, r: f64) -> f64 {
    let duj1 = jackknife(p, n, r);
    let g2 = gamma_squared(p, n, r, duj1);
    // Low skew: jackknife; otherwise Shlosser. The cutoff follows the
    // spirit of Haas et al.'s hybrid estimator.
    if g2 < 1.0 {
        duj1
    } else {
        shlosser(p, n, r)
    }
}

/// Rows packed per [`PackedKeySpec::encode_into`] call: the code buffer
/// stays in L1 while each column's field is OR-ed into it.
const MORSEL: usize = 1024;

/// Feed the packed key code of each of the first `rows` rows of `cols`
/// to `f`, in row order. `spec` must have been built from `cols` and fit
/// `K`.
pub(crate) fn for_each_packed_key<K: KeyCode>(
    spec: &PackedKeySpec,
    cols: &[&Column],
    rows: usize,
    mut f: impl FnMut(K),
) {
    let mut buf = vec![K::default(); MORSEL.min(rows)];
    let mut start = 0;
    while start < rows {
        let out = &mut buf[..MORSEL.min(rows - start)];
        out.fill(K::default());
        spec.encode_into(cols, start, out);
        out.iter().for_each(|&k| f(k));
        start += out.len();
    }
}

fn distinct_packed<K: KeyCode>(spec: &PackedKeySpec, cols: &[&Column], rows: usize) -> usize {
    let mut seen: FxHashSet<K> = FxHashSet::default();
    for_each_packed_key(spec, cols, rows, |k: K| {
        seen.insert(k);
    });
    seen.len()
}

/// Exactly count the distinct value combinations of `cols` in `table`
/// (NULL is a value of its own).
///
/// Keys are bit-packed into `u64`/`u128` codes where the columns allow
/// ([`PackedKeySpec`]; byte [`RowKey`]s only for `Float64` columns and
/// layouts over 128 bits).
pub fn exact_distinct(table: &Table, cols: &[usize]) -> usize {
    let key_cols: Vec<&Column> = cols.iter().map(|&c| table.column(c)).collect();
    let rows = table.num_rows();
    let Some(spec) = PackedKeySpec::build(&key_cols) else {
        let mut enc = KeyEncoder::new();
        let mut seen: FxHashSet<RowKey> = FxHashSet::default();
        for row in 0..rows {
            seen.insert(enc.encode(&key_cols, row));
        }
        return seen.len();
    };
    if spec.fits_u64() {
        distinct_packed::<u64>(&spec, &key_cols, rows)
    } else {
        distinct_packed::<u128>(&spec, &key_cols, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{Column, DataType, Field, Schema, Table};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table(vals: Vec<i64>) -> Table {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
        Table::new(schema, vec![Column::from_i64(vals)]).unwrap()
    }

    fn profile(vals: &[i64], sample: &[u32]) -> FrequencyProfile {
        FrequencyProfile::of_columns(&[&table(vals.to_vec()).column(0).gather(sample)])
    }

    #[test]
    fn exact_distinct_counts() {
        let t = table(vec![1, 2, 2, 3, 3, 3]);
        assert_eq!(exact_distinct(&t, &[0]), 3);
        assert_eq!(exact_distinct(&Table::empty(t.schema().clone()), &[0]), 0);
    }

    #[test]
    fn exact_distinct_multi_column() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![
                Column::from_i64(vec![1, 1, 2, 2]),
                Column::from_i64(vec![1, 2, 1, 1]),
            ],
        )
        .unwrap();
        assert_eq!(exact_distinct(&t, &[0]), 2);
        assert_eq!(exact_distinct(&t, &[1]), 2);
        assert_eq!(exact_distinct(&t, &[0, 1]), 3);
    }

    #[test]
    fn full_sample_returns_sample_distinct() {
        let vals = vec![1, 2, 2, 3];
        let p = profile(&vals, &[0, 1, 2, 3]);
        for est in [
            DistinctEstimator::Gee,
            DistinctEstimator::Shlosser,
            DistinctEstimator::Jackknife,
            DistinctEstimator::Hybrid,
        ] {
            assert_eq!(est.estimate(&p, 4), 3.0, "{est:?}");
        }
    }

    #[test]
    fn estimates_are_clamped() {
        let vals: Vec<i64> = (0..100).collect();
        let p = profile(&vals, &(0..10).collect::<Vec<u32>>());
        for est in [
            DistinctEstimator::Gee,
            DistinctEstimator::Shlosser,
            DistinctEstimator::Jackknife,
            DistinctEstimator::Hybrid,
        ] {
            let e = est.estimate(&p, 100);
            assert!((10.0..=100.0).contains(&e), "{est:?} gave {e}");
        }
    }

    #[test]
    fn gee_formula_matches_hand_computation() {
        // sample: 1,1,2 → f1=1, f2=1; n=30, r=3 → sqrt(10)*1 + 1
        let p = profile(&[1, 1, 2], &[0, 1, 2]);
        let e = DistinctEstimator::Gee.estimate(&p, 30);
        assert!((e - (10f64.sqrt() + 1.0)).abs() < 1e-9, "got {e}");
    }

    #[test]
    fn estimators_recover_uniform_distinct_roughly() {
        // 10_000 rows, 100 distinct values uniform; sample 1_000.
        let mut rng = StdRng::seed_from_u64(7);
        let vals: Vec<i64> = (0..10_000).map(|_| rng.gen_range(0..100)).collect();
        let t = table(vals);
        let sample: Vec<u32> = crate::sample::reservoir_sample(10_000, 1_000, &mut rng);
        let p = FrequencyProfile::of_columns(&[&t.column(0).gather(&sample)]);
        for est in [
            DistinctEstimator::Jackknife,
            DistinctEstimator::Hybrid,
            DistinctEstimator::Shlosser,
        ] {
            let e = est.estimate(&p, 10_000);
            assert!(
                (80.0..=140.0).contains(&e),
                "{est:?} estimated {e}, true 100"
            );
        }
    }

    #[test]
    fn estimators_handle_skew_without_blowup() {
        // Heavily skewed: one value 9_900 times, 100 singletons.
        let mut vals = vec![0i64; 9_900];
        vals.extend(1..=100);
        let t = table(vals);
        let mut rng = StdRng::seed_from_u64(8);
        let sample = crate::sample::reservoir_sample(10_000, 1_000, &mut rng);
        let p = FrequencyProfile::of_columns(&[&t.column(0).gather(&sample)]);
        let e = DistinctEstimator::Hybrid.estimate(&p, 10_000);
        // True 101. Anything within an order of magnitude is fine for a
        // cost model; mainly assert it does not explode toward n.
        assert!(e < 2_500.0, "hybrid estimated {e}, true 101");
    }

    #[test]
    fn zero_sample_estimates_zero() {
        let p = profile(&[1, 2, 3], &[]);
        assert_eq!(DistinctEstimator::Gee.estimate(&p, 3), 0.0);
    }
}
