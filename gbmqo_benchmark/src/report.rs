//! What `BENCHMARK.json` declares, and the benchmark's printed and
//! machine-readable output.

use crate::json::{number, quote, Json};
use crate::run::{Metric, Run};
use crate::script::{Kind, Script};
use crate::stats::median;
use std::fmt::Write as _;
use std::process::Command;

/// The repository's `BENCHMARK.json`, compiled in so the binary and the
/// declaration cannot drift apart unnoticed.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    /// `run_seconds`.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// `end_to_end`.
    pub end_to_end: Vec<Declared>,
    /// `per_layer`.
    pub per_layer: Vec<Declared>,
}

impl Spec {
    /// Parse the compiled-in `BENCHMARK.json`.
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let declared = |key: &str| -> Vec<Declared> {
            doc.get(key)
                .map_or(&[][..], Json::items)
                .iter()
                .map(|m| Declared {
                    name: m.get("name").and_then(Json::str).unwrap_or_default().into(),
                    unit: m.get("unit").and_then(Json::str).unwrap_or_default().into(),
                    higher_is_better: m.get("better").and_then(Json::str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::num),
                })
                .collect()
        };
        Spec {
            run_seconds: doc.get("run_seconds").and_then(Json::num).unwrap_or(10.0),
            workloads: doc
                .get("workloads")
                .map_or(&[][..], Json::items)
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::str).map(String::from))
                .collect(),
            end_to_end: declared("end_to_end"),
            per_layer: declared("per_layer"),
        }
    }
}

/// The line the benchmark contract asks for: the run's verdict and every
/// metric of its mode, as one JSON object.
pub fn result_line(run: &Run) -> String {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        metrics.join(", ")
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and with what a run was made: `(key, value)` pairs.
pub fn environment() -> Vec<(&'static str, String)> {
    vec![
        (
            "git_rev",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        ),
        ("rustc", command_line("rustc", &["--version"])),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
    ]
}

/// Every metric of `run` by name, with unit and sample count.
pub fn describe(script: &Script, seconds: f64, traced: bool, run: &Run) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} seconds {seconds} trace {}{}",
        script.kind.name(),
        script.seed,
        traced as u8,
        if script.scale.smoke {
            " SMOKE SCALE: CI only, numbers comparable with nothing"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "  rows {} requests {} failed {} script_hash {:016x}",
        run.rows, run.attempted, run.failed, run.script_hash
    );
    let line = |out: &mut String, m: &Metric| {
        let _ = writeln!(
            out,
            "  {:<36} {:>16.4} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    };
    run.metrics.iter().for_each(|m| line(&mut out, m));
    run.diagnostics.iter().for_each(|m| line(&mut out, m));
    for failure in &run.failures {
        let _ = writeln!(out, "  FAILED {failure}");
    }
    out
}

/// Values of one metric across a suite's runs.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Unit.
    pub unit: String,
    /// One value per run.
    pub values: Vec<f64>,
}

/// A suite report: per workload, per metric, the values of every run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Environment and settings, `(key, value)`.
    pub meta: Vec<(String, String)>,
    /// `(workload, [(metric, series)])`, in run order.
    pub workloads: Vec<(String, Vec<(String, Series)>)>,
    /// Failed requests across all runs.
    pub failed: u64,
    /// Requests attempted across all runs.
    pub attempted: u64,
}

impl Report {
    /// Add one run's metrics under `kind`.
    pub fn record(&mut self, kind: Kind, run_metrics: &[(String, f64, String)]) {
        let name = kind.name();
        if !self.workloads.iter().any(|(w, _)| w == name) {
            self.workloads.push((name.to_string(), Vec::new()));
        }
        let (_, metrics) = self
            .workloads
            .iter_mut()
            .find(|(w, _)| w == name)
            .expect("just inserted");
        for (metric, value, unit) in run_metrics {
            match metrics.iter_mut().find(|(m, _)| m == metric) {
                Some((_, series)) => series.values.push(*value),
                None => metrics.push((
                    metric.clone(),
                    Series {
                        unit: unit.clone(),
                        values: vec![*value],
                    },
                )),
            }
        }
    }

    /// Serialize for `--json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"meta\": {");
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect();
        out.push_str(&meta.join(", "));
        let _ = write!(
            out,
            "}},\n  \"attempted\": {},\n  \"failed\": {},\n  \"workloads\": {{\n",
            self.attempted, self.failed
        );
        for (w, (workload, metrics)) in self.workloads.iter().enumerate() {
            let _ = writeln!(out, "    {}: {{", quote(workload));
            for (m, (metric, series)) in metrics.iter().enumerate() {
                let values: Vec<String> = series.values.iter().map(|v| number(*v)).collect();
                let _ = writeln!(
                    out,
                    "      {}: {{\"unit\": {}, \"median\": {}, \"values\": [{}]}}{}",
                    quote(metric),
                    quote(&series.unit),
                    number(median(&series.values)),
                    values.join(", "),
                    if m + 1 < metrics.len() { "," } else { "" }
                );
            }
            let _ = writeln!(
                out,
                "    }}{}",
                if w + 1 < self.workloads.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parse a report written by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Report, String> {
        let doc = Json::parse(text)?;
        let mut report = Report {
            failed: doc.get("failed").and_then(Json::num).unwrap_or(0.0) as u64,
            attempted: doc.get("attempted").and_then(Json::num).unwrap_or(0.0) as u64,
            ..Report::default()
        };
        for (key, value) in doc.get("meta").map_or(&[][..], Json::members) {
            report
                .meta
                .push((key.clone(), value.str().unwrap_or_default().to_string()));
        }
        for (workload, metrics) in doc
            .get("workloads")
            .ok_or("report has no workloads")?
            .members()
        {
            let metrics = metrics
                .members()
                .iter()
                .map(|(metric, series)| {
                    let series = Series {
                        unit: series
                            .get("unit")
                            .and_then(Json::str)
                            .unwrap_or_default()
                            .into(),
                        values: series
                            .get("values")
                            .map_or(&[][..], Json::items)
                            .iter()
                            .filter_map(Json::num)
                            .collect(),
                    };
                    (metric.clone(), series)
                })
                .collect();
            report.workloads.push((workload.clone(), metrics));
        }
        Ok(report)
    }
}
