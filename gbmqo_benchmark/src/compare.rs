//! `--compare a.json b.json`: is `b` no worse than `a`?
//!
//! One row per (workload, end-to-end metric): both medians, the ratio
//! `b / a` with `a` named as its base, the bound from `BENCHMARK.json`,
//! the wider of the two run-to-run spreads, and a verdict. A metric whose
//! spread exceeds its bound cannot be judged and is `unresolved`, never
//! `ok`. Per-layer metrics are listed without a verdict: they explain a
//! change, they do not gate it.

use crate::report::{Report, Series, Spec};
use crate::stats::{median, spread};
use std::fmt::Write as _;

/// The comparison's outcome.
#[derive(Debug)]
pub struct Comparison {
    /// The printed table.
    pub text: String,
    /// Rows judged `REGRESSION`, plus one if `b` failed more requests.
    pub regressions: usize,
    /// Rows judged `unresolved`.
    pub unresolved: usize,
}

fn series<'a>(report: &'a Report, workload: &str, metric: &str) -> Option<&'a Series> {
    let (_, metrics) = report.workloads.iter().find(|(w, _)| w == workload)?;
    metrics.iter().find(|(m, _)| m == metric).map(|(_, s)| s)
}

/// Compare report `b` against baseline `a` under `spec`'s bounds.
pub fn compare(spec: &Spec, a: &Report, b: &Report) -> Comparison {
    let mut text = String::new();
    let (mut regressions, mut unresolved) = (0, 0);
    let _ = writeln!(
        text,
        "{:<20} {:<34} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound", "spread"
    );
    for workload in &spec.workloads {
        for declared in spec.end_to_end.iter().chain(&spec.per_layer) {
            let (Some(sa), Some(sb)) = (
                series(a, workload, &declared.name),
                series(b, workload, &declared.name),
            ) else {
                continue;
            };
            let (ma, mb) = (median(&sa.values), median(&sb.values));
            let ratio = if ma != 0.0 { mb / ma } else { f64::NAN };
            let wide = spread(&sa.values).max(spread(&sb.values));
            let verdict = match declared.bound {
                None => "",
                Some(bound) if wide > bound => {
                    unresolved += 1;
                    "unresolved"
                }
                Some(bound) => {
                    let worse = if declared.higher_is_better {
                        (ma - mb) / ma
                    } else {
                        (mb - ma) / ma
                    };
                    if worse > bound {
                        regressions += 1;
                        "REGRESSION"
                    } else {
                        "ok"
                    }
                }
            };
            let _ = writeln!(
                text,
                "{:<20} {:<34} {:>14.4} {:>14.4} {:>8.3} {:>7} {:>6.1}%  {verdict}",
                workload,
                declared.name,
                ma,
                mb,
                ratio,
                declared
                    .bound
                    .map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
                wide * 100.0,
            );
        }
    }
    let rate = |r: &Report| r.failed as f64 / r.attempted.max(1) as f64;
    let _ = writeln!(
        text,
        "error rate: a {}/{} b {}/{}",
        a.failed, a.attempted, b.failed, b.attempted
    );
    if rate(b) > rate(a) {
        regressions += 1;
        let _ = writeln!(text, "REGRESSION: b fails more requests than a");
    }
    let _ = writeln!(
        text,
        "{regressions} regression(s), {unresolved} unresolved; ratios are b / a, base a"
    );
    Comparison {
        text,
        regressions,
        unresolved,
    }
}
