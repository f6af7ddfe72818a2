//! The benchmark's own tests: scripts repeat, span arithmetic holds, the
//! comparer judges by the declared bounds, and a smoke run of the binary
//! emits everything `BENCHMARK.json` declares.

use gbmqo_benchmark::compare::compare;
use gbmqo_benchmark::load::{Sample, Window};
use gbmqo_benchmark::report::{Report, Spec};
use gbmqo_benchmark::script::{Kind, Scale, Script};
use gbmqo_benchmark::setup::Data;
use gbmqo_benchmark::stats::spread;
use gbmqo_benchmark::trace::{Span, Trace};
use std::process::Command;

fn script_bytes(kind: Kind, seed: u64) -> Vec<u8> {
    let script = Script {
        kind,
        seed,
        scale: Scale { smoke: true },
    };
    let data = Data::generate(kind, seed, script.scale);
    script.bytes(&data.deltas, 60)
}

#[test]
fn same_seed_same_script_and_other_seed_other_script() {
    for kind in Kind::ALL {
        let first = script_bytes(kind, 7);
        assert!(!first.is_empty());
        assert_eq!(
            first,
            script_bytes(kind, 7),
            "{}: seed 7 twice",
            kind.name()
        );
        assert_ne!(first, script_bytes(kind, 8), "{}: seed 7 vs 8", kind.name());
    }
}

#[test]
fn cold_mqo_requests_are_distinct_and_sized_four_to_eight() {
    let script = Script {
        kind: Kind::ColdMqo,
        seed: 3,
        scale: Scale { smoke: false },
    };
    let mut seen = std::collections::HashSet::new();
    for client in 0..2 {
        for index in 0..200 {
            let op = script.op(client, index);
            assert!((4..=8).contains(&op.sets().len()), "{op:?}");
            assert!(op.sets().iter().all(|s| (1..=2).contains(&s.len())));
            seen.insert(op);
        }
    }
    // More shapes than the 64-entry plan cache holds, by a wide margin.
    assert!(seen.len() > 390, "{} distinct of 400", seen.len());
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_is_duration_minus_children() {
    let trace = Trace::from_spans(vec![
        span("request", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("a.inner", 15, 25, Some(1)),
        span("b", 50, 70, Some(0)),
        span("b", 70, 75, Some(0)),
    ]);
    assert_eq!(trace.self_ns(), vec![45, 20, 10, 20, 5]);
    // Spans of one name within one request add up.
    assert_eq!(trace.per_request_ns("b"), vec![25]);
    assert_eq!(trace.per_request_ns("absent"), Vec::<u64>::new());
    let json = trace.to_json();
    assert!(json.contains("\"name\":\"a.inner\"") && json.contains("\"self_ns\":45"));
}

#[test]
fn live_spans_nest_and_close_in_order() {
    let mut trace = Trace::new();
    let root = trace.enter("request", 4);
    let answer = trace.call("leaf", 4, || 6 * 7);
    trace.exit(root);
    assert_eq!(answer, 42);
    assert_eq!(trace.spans[1].parent, Some(root));
    assert!(trace.spans[0].duration_ns() >= trace.spans[1].duration_ns());
    assert_eq!(trace.last_ns(), trace.spans[1].duration_ns());
}

#[test]
fn spread_matches_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((spread(&values) - 1.0).abs() < 1e-12);
    assert_eq!(spread(&[3.0]), 0.0);
}

#[test]
fn quiet_quarter_pools_the_fastest_slices() {
    // Eight one-second slices: the third and the sixth complete ten 1 ms
    // requests, the others five 2 ms requests.
    let mut window = Window::default();
    for second in 0..8 {
        let fast = second == 2 || second == 5;
        let n = if fast { 10 } else { 5 };
        for i in 1..=n {
            window.samples.push(Sample {
                end_s: f64::from(second) + f64::from(i) / f64::from(n + 1),
                ms: if fast { 1.0 } else { 2.0 },
                rows: 3,
                append: false,
            });
        }
    }
    let quiet = window.quiet(8.0);
    assert_eq!(quiet.samples.len(), 20);
    assert!(quiet.read_ms().iter().all(|ms| *ms == 1.0));
    // Each kept slice runs from the last completion before it to its own.
    let span = 2.0 * (10.0 / 11.0 + 1.0 / 6.0);
    assert!((quiet.span_s - span).abs() < 1e-9, "{}", quiet.span_s);
    assert!((quiet.rate(20.0) - 20.0 / span).abs() < 1e-9);
}

fn report_with(values: &[(&str, &[f64])], failed: u64) -> Report {
    let mut report = Report {
        attempted: 1000,
        failed,
        ..Report::default()
    };
    for (metric, runs) in values {
        for v in *runs {
            report.record(Kind::ColdMqo, &[(metric.to_string(), *v, "x".to_string())]);
        }
    }
    report
}

#[test]
fn comparer_applies_bounds_and_marks_noisy_metrics_unresolved() {
    let spec = Spec::load();
    let base = report_with(
        &[
            ("throughput_rps", &[100.0, 101.0, 99.0]),
            ("latency_p50_ms", &[10.0, 10.1, 9.9]),
            ("latency_p95_ms", &[20.0, 30.0, 10.0]),
        ],
        0,
    );
    // Round trip through the file format first.
    let base = Report::from_json(&base.to_json()).unwrap();

    let same = compare(&spec, &base, &base);
    assert_eq!(same.regressions, 0, "{}", same.text);
    // p95 swings by far more than its bound: never "ok".
    assert_eq!(same.unresolved, 1, "{}", same.text);
    assert!(same.text.contains("base"));

    // Throughput worse than the base by its bound and a bit more.
    let bound = spec.end_to_end.iter().find(|d| d.name == "throughput_rps");
    let worse = 100.0 * (1.0 - bound.unwrap().bound.unwrap() - 0.05);
    let slower = report_with(
        &[
            ("throughput_rps", &[worse, worse + 1.0, worse - 1.0]),
            ("latency_p50_ms", &[10.0, 10.1, 9.9]),
        ],
        0,
    );
    let outcome = compare(&spec, &base, &slower);
    assert_eq!(outcome.regressions, 1, "{}", outcome.text);
    assert!(outcome.text.contains("REGRESSION"));

    // A higher error rate is a regression whatever the timings say.
    let failing = report_with(&[("throughput_rps", &[100.0])], 3);
    assert_eq!(compare(&spec, &base, &failing).regressions, 1);
}

#[test]
fn smoke_suite_emits_every_declared_workload_and_metric() {
    let json = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_report.json");
    let output = Command::new(env!("CARGO_BIN_EXE_gbmqo_benchmark"))
        .arg("--smoke")
        .arg("--json")
        .arg(&json)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("SMOKE SCALE"), "smoke output is labelled");

    let report = Report::from_json(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    let spec = Spec::load();
    assert_eq!(
        report
            .workloads
            .iter()
            .map(|(w, _)| w.clone())
            .collect::<Vec<_>>(),
        spec.workloads
    );
    for (workload, metrics) in &report.workloads {
        let names: Vec<&str> = metrics.iter().map(|(m, _)| m.as_str()).collect();
        let declared: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(names, declared, "{workload}");
        for (metric, series) in metrics {
            let declared = spec
                .end_to_end
                .iter()
                .chain(&spec.per_layer)
                .find(|d| d.name == *metric)
                .unwrap();
            assert_eq!(series.unit, declared.unit, "{workload} {metric}");
            assert!(
                series.values.iter().all(|v| v.is_finite()),
                "{workload} {metric}"
            );
            if declared.bound.is_some() {
                assert!(
                    series.values.iter().all(|v| *v > 0.0),
                    "{workload} {metric}"
                );
            }
        }
    }
    let (_, cold) = &report.workloads[0];
    let coverage = cold
        .iter()
        .find(|(m, _)| m == "trace.coverage")
        .unwrap()
        .1
        .values[0];
    assert!(
        (0.5..=1.05).contains(&coverage),
        "cold_mqo coverage {coverage}"
    );
}
