//! Reservoir sampling of row ids, and the rule that sizes the sample.

use crate::error::{Result, StatsError};
use rand::Rng;

/// The share of a table's rows a sample takes before [`SampleRule`]'s
/// clamp: one row in `SAMPLE_ONE_IN`.
const SAMPLE_ONE_IN: usize = 20;

/// How many rows statistics sample from a table: one row in twenty,
/// clamped to `[min, max]` (and never more than the table holds). One
/// rule serves tables of any size; a fixed sample size is the rule with
/// `min == max` ([`SampleRule::fixed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleRule {
    /// Fewest rows sampled.
    pub min: usize,
    /// Most rows sampled.
    pub max: usize,
}

impl SampleRule {
    /// One row in twenty, clamped to `[1_000, 20_000]`: the served
    /// default. Below 20,000 rows the 1,000-row floor keeps estimates
    /// close for under a millisecond of statistics, where one row in
    /// twenty alone misses by half again (EXPERIMENTS.md, "Plan from a
    /// sample"); above 400,000 rows the ceiling bounds what a first
    /// contact costs.
    pub const DEFAULT: SampleRule = SampleRule {
        min: 1_000,
        max: 20_000,
    };

    /// The rule that samples `rows` rows from any table that large.
    pub const fn fixed(rows: usize) -> Self {
        SampleRule {
            min: rows,
            max: rows,
        }
    }

    /// Rows to sample from a table of `table_rows` rows.
    pub fn rows(&self, table_rows: usize) -> usize {
        (table_rows / SAMPLE_ONE_IN)
            .max(self.min)
            .min(self.max)
            .min(table_rows)
    }

    /// Reject a rule that samples nothing or whose clamp is empty: a zero
    /// bound or `min > max`.
    pub fn validate(&self) -> Result<()> {
        let problem = if self.min == 0 || self.max == 0 {
            "the sample size bounds must be at least 1"
        } else if self.min > self.max {
            "the sample size minimum exceeds its maximum"
        } else {
            return Ok(());
        };
        Err(StatsError::InvalidSample(format!("{problem}: {self:?}")))
    }
}

/// Draw a uniform random sample (without replacement) of `sample_size` row
/// ids from `0..num_rows` using Algorithm R. If `sample_size >= num_rows`
/// the full range is returned (in order).
pub fn reservoir_sample<R: Rng>(num_rows: usize, sample_size: usize, rng: &mut R) -> Vec<u32> {
    if sample_size >= num_rows {
        return (0..num_rows as u32).collect();
    }
    let mut reservoir: Vec<u32> = (0..sample_size as u32).collect();
    for i in sample_size..num_rows {
        let j = rng.gen_range(0..=i);
        if j < sample_size {
            reservoir[j] = i as u32;
        }
    }
    reservoir
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_sample_when_small() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = reservoir_sample(5, 10, &mut rng);
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
        let s = reservoir_sample(5, 5, &mut rng);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn sample_is_without_replacement() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = reservoir_sample(10_000, 500, &mut rng);
        assert_eq!(s.len(), 500);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 500, "sample contains duplicates");
        assert!(sorted.iter().all(|&r| (r as usize) < 10_000));
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // Each row id should appear with probability k/n; check the mean of
        // sampled ids is near n/2 over repetitions.
        let mut rng = StdRng::seed_from_u64(3);
        let mut total: f64 = 0.0;
        let reps = 50;
        for _ in 0..reps {
            let s = reservoir_sample(1000, 100, &mut rng);
            total += s.iter().map(|&x| x as f64).sum::<f64>() / s.len() as f64;
        }
        let mean = total / reps as f64;
        assert!((mean - 499.5).abs() < 40.0, "mean {mean} not near 499.5");
    }

    #[test]
    fn the_rule_takes_its_fraction_within_its_clamp() {
        let rule = SampleRule::DEFAULT;
        assert_eq!(rule.rows(300_000), 15_000);
        assert_eq!(rule.rows(20_000), 1_000, "the floor");
        assert_eq!(rule.rows(10_000_000), 20_000, "the ceiling");
        assert_eq!(rule.rows(400), 400, "never more than the table");
        for n in [0, 19, 20_000, 123_457, 399_999] {
            assert_eq!(rule.rows(n), (n / 20).clamp(1_000, 20_000).min(n));
        }
        assert_eq!(SampleRule::fixed(64).rows(240), 64);
        assert_eq!(SampleRule::fixed(64).rows(1 << 40), 64);
        assert!(rule.validate().is_ok() && SampleRule::fixed(1).validate().is_ok());
    }

    #[test]
    fn a_rule_that_samples_nothing_is_invalid() {
        let valid = SampleRule::DEFAULT;
        for rule in [
            SampleRule::fixed(0),
            SampleRule { min: 0, ..valid },
            SampleRule { min: 5, max: 4 },
        ] {
            assert!(
                matches!(rule.validate(), Err(StatsError::InvalidSample(_))),
                "{rule:?}"
            );
        }
    }

    #[test]
    fn zero_rows_and_zero_sample() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(reservoir_sample(0, 10, &mut rng).is_empty());
        assert!(reservoir_sample(10, 0, &mut rng).is_empty());
    }
}
