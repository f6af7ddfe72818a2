//! Sample frequency profiles: the `f_i` statistics that distinct-value
//! estimators consume.

use crate::distinct::for_each_packed_key;
use gbmqo_storage::{Column, KeyCode, KeyEncoder, PackedKeySpec, RowKey};
use rustc_hash::FxHashMap;

/// Frequency profile of a sample of rows projected on a set of columns.
///
/// `f[i]` (1-based, exposed through [`FrequencyProfile::f`]) is the number
/// of distinct values that occur exactly `i` times in the sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequencyProfile {
    counts: Vec<usize>, // counts[i-1] = f_i
    sample_size: usize,
    distinct_in_sample: usize,
}

/// Occurrence count of each distinct packed key among the first `rows`
/// rows of `cols`, in no particular order. A key space at most four times
/// the rows is counted in a directly addressed array; a wider one in a
/// hash map sized for the worst case, one key per row.
fn packed_occurrences<K: KeyCode>(
    spec: &PackedKeySpec,
    cols: &[&Column],
    rows: usize,
) -> Vec<usize> {
    if spec.total_bits() < usize::BITS - 2 && 1usize << spec.total_bits() <= 4 * rows {
        let mut slots = vec![0usize; 1 << spec.total_bits()];
        for_each_packed_key(spec, cols, rows, |k: u64| slots[k as usize] += 1);
        return slots.into_iter().filter(|&c| c > 0).collect();
    }
    let mut per_value: FxHashMap<K, usize> =
        FxHashMap::with_capacity_and_hasher(rows, Default::default());
    for_each_packed_key(spec, cols, rows, |k: K| {
        *per_value.entry(k).or_insert(0) += 1;
    });
    per_value.into_values().collect()
}

impl FrequencyProfile {
    /// Build a profile of every row of `key_cols` — the sampled rows of
    /// the key columns, already gathered, so the packed key layout
    /// ([`PackedKeySpec`]) is sized from, and its range scan reads, the
    /// sample and never the whole table.
    pub fn of_columns(key_cols: &[&Column]) -> Self {
        let rows = key_cols.first().map_or(0, |c| c.len());
        let per_value: Vec<usize> = match PackedKeySpec::build(key_cols) {
            Some(spec) if spec.fits_u64() => packed_occurrences::<u64>(&spec, key_cols, rows),
            Some(spec) => packed_occurrences::<u128>(&spec, key_cols, rows),
            None => {
                let mut enc = KeyEncoder::new();
                let mut per_value: FxHashMap<RowKey, usize> = FxHashMap::default();
                for row in 0..rows {
                    *per_value.entry(enc.encode(key_cols, row)).or_insert(0) += 1;
                }
                per_value.into_values().collect()
            }
        };
        let mut counts: Vec<usize> = Vec::new();
        for &c in &per_value {
            if c > counts.len() {
                counts.resize(c, 0);
            }
            counts[c - 1] += 1;
        }
        FrequencyProfile {
            counts,
            sample_size: rows,
            distinct_in_sample: per_value.len(),
        }
    }

    /// `f_i`: distinct values occurring exactly `i` times (i ≥ 1).
    pub fn f(&self, i: usize) -> usize {
        if i == 0 || i > self.counts.len() {
            0
        } else {
            self.counts[i - 1]
        }
    }

    /// Highest frequency observed.
    pub fn max_frequency(&self) -> usize {
        self.counts.len()
    }

    /// Sample size `r`.
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// Distinct values in the sample, `d = Σ f_i`.
    pub fn distinct_in_sample(&self) -> usize {
        self.distinct_in_sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::DataType;
    use gbmqo_storage::{Column, Field, Schema, Table};

    fn table(vals: Vec<i64>) -> Table {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
        Table::new(schema, vec![Column::from_i64(vals)]).unwrap()
    }

    /// The profile of `rows` of `t`, projected on `cols`.
    fn profile(t: &Table, cols: &[usize], rows: &[u32]) -> FrequencyProfile {
        let gathered: Vec<Column> = cols.iter().map(|&c| t.column(c).gather(rows)).collect();
        FrequencyProfile::of_columns(&gathered.iter().collect::<Vec<_>>())
    }

    #[test]
    fn profile_counts_frequencies() {
        // values: 1,1,1,2,2,3 → f1=1 (3), f2=1 (2), f3=1 (1)
        let t = table(vec![1, 1, 1, 2, 2, 3]);
        let rows: Vec<u32> = (0..6).collect();
        let p = profile(&t, &[0], &rows);
        assert_eq!(p.sample_size(), 6);
        assert_eq!(p.distinct_in_sample(), 3);
        assert_eq!(p.f(1), 1);
        assert_eq!(p.f(2), 1);
        assert_eq!(p.f(3), 1);
        assert_eq!(p.f(4), 0);
        assert_eq!(p.f(0), 0);
        assert_eq!(p.max_frequency(), 3);
    }

    #[test]
    fn profile_respects_sample_subset() {
        let t = table(vec![1, 1, 2, 3, 3, 3]);
        let p = profile(&t, &[0], &[0, 2, 3]);
        // sampled values: 1,2,3 → all singletons
        assert_eq!(p.distinct_in_sample(), 3);
        assert_eq!(p.f(1), 3);
    }

    #[test]
    fn multi_column_profile() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![
                Column::from_i64(vec![1, 1, 1, 2]),
                Column::from_i64(vec![5, 5, 6, 5]),
            ],
        )
        .unwrap();
        let rows: Vec<u32> = (0..4).collect();
        let p = profile(&t, &[0, 1], &rows);
        // pairs: (1,5)x2, (1,6), (2,5)
        assert_eq!(p.distinct_in_sample(), 3);
        assert_eq!(p.f(1), 2);
        assert_eq!(p.f(2), 1);
    }

    #[test]
    fn empty_sample() {
        let t = table(vec![1, 2, 3]);
        let p = profile(&t, &[0], &[]);
        assert_eq!(p.sample_size(), 0);
        assert_eq!(p.distinct_in_sample(), 0);
        assert_eq!(p.max_frequency(), 0);
    }
}
