//! The few statistics the benchmark reports.

/// Median as Python's `statistics.median` computes it (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `samples` (0 when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method). Zero with fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = median(&v);
    if n < 2 || m == 0.0 {
        return 0.0;
    }
    let quantile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
    };
    (quantile(3) - quantile(1)) / m.abs()
}
