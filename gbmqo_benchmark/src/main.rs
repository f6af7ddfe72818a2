//! `gbmqo_benchmark` — see `BENCHMARK.md` beside this crate's manifest.
//!
//! ```text
//! gbmqo_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--trace-out <file>] [--smoke]       one run; last line is its JSON result
//! gbmqo_benchmark [--seed <n>] [--seconds <s>] [--runs <r>] [--json <file>] [--smoke]
//!                                                      every workload, both modes
//! gbmqo_benchmark --compare <a.json> <b.json>          judge b against a
//! ```

use gbmqo_benchmark::compare::compare;
use gbmqo_benchmark::json::Json;
use gbmqo_benchmark::report::{self, Report, Spec};
use gbmqo_benchmark::run::{end_to_end, traced};
use gbmqo_benchmark::script::{Kind, Scale, Script};
use gbmqo_benchmark::setup::pin_to_one_cpu;
use gbmqo_benchmark::stats::{median, spread};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The suite's seed when `--seed` is absent. `BENCHMARK.json` has no
/// field for it, so it is fixed here.
const DEFAULT_SEED: u64 = 11;

#[derive(Debug)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    smoke: bool,
    trace_out: Option<PathBuf>,
    json: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        trace: false,
        runs: 1,
        smoke: false,
        trace_out: None,
        json: None,
        compare: None,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Kind::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--json" => args.json = Some(value()?.into()),
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) || args.runs == 0 {
        return Err("--seconds and --runs must be positive".into());
    }
    if args.smoke && !seconds_given {
        args.seconds = 1.0;
    }
    Ok(args)
}

/// One run in this process; its JSON result is the last line printed.
fn single(args: &Args, kind: Kind) -> ExitCode {
    // Before any thread exists, so server and clients inherit it.
    match pin_to_one_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => println!("NOT PINNED: expect run-to-run spreads of 10-25%"),
    }
    let script = Script {
        kind,
        seed: args.seed,
        scale: Scale { smoke: args.smoke },
    };
    let run = if args.trace {
        traced(script, args.seconds, args.trace_out.as_deref())
    } else {
        end_to_end(script, args.seconds)
    };
    print!(
        "{}",
        report::describe(&script, args.seconds, args.trace, &run)
    );
    println!("{}", report::result_line(&run));
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Run one (workload, seed, mode) in a child process, as the benchmark's
/// driver does, so `peak_rss_mb` is one run's and not the suite's.
fn child(args: &Args, kind: Kind, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    if let (true, Some(path)) = (trace, &args.trace_out) {
        command.arg("--trace-out").arg(path);
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (rest, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or("run printed no result")?;
    println!("{rest}");
    Json::parse(last).map_err(|e| format!("result line: {e}"))
}

/// Every workload: `--runs` end-to-end runs on consecutive seeds, then one
/// traced run.
fn suite(args: &Args, spec: &Spec) -> ExitCode {
    let mut out = Report::default();
    for (key, value) in report::environment() {
        println!("{key} {value}");
        out.meta.push((key.to_string(), value));
    }
    for (key, value) in [
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("runs", args.runs.to_string()),
        (
            "scale",
            if args.smoke {
                "smoke (CI only)"
            } else {
                "full"
            }
            .to_string(),
        ),
    ] {
        println!("{key} {value}");
        out.meta.push((key.to_string(), value));
    }
    for kind in Kind::ALL {
        let modes = (0..args.runs).map(|i| (args.seed + i, false));
        for (seed, trace) in modes.chain([(args.seed, true)]) {
            match child(args, kind, seed, trace) {
                Ok(result) => {
                    let num = |key| result.get(key).and_then(Json::num).unwrap_or(0.0) as u64;
                    out.attempted += num("attempted");
                    out.failed += num("failed");
                    let metrics: Vec<(String, f64, String)> = result
                        .get("metrics")
                        .map_or(&[][..], Json::members)
                        .iter()
                        .map(|(name, m)| {
                            (
                                name.clone(),
                                m.get("value").and_then(Json::num).unwrap_or(f64::NAN),
                                m.get("unit").and_then(Json::str).unwrap_or_default().into(),
                            )
                        })
                        .collect();
                    out.record(kind, &metrics);
                }
                Err(e) => {
                    eprintln!("{} seed {seed}: {e}", kind.name());
                    out.attempted += 1;
                    out.failed += 1;
                }
            }
        }
    }
    println!(
        "\nmedians over {} run(s); spread = (Q3 - Q1) / median",
        args.runs
    );
    for (workload, metrics) in &out.workloads {
        for declared in &spec.end_to_end {
            if let Some((_, series)) = metrics.iter().find(|(m, _)| *m == declared.name) {
                println!(
                    "{workload:<20} {:<20} {:>14.4} {:<7} spread {:>5.1}% of bound {:.0}%",
                    declared.name,
                    median(&series.values),
                    series.unit,
                    spread(&series.values) * 100.0,
                    declared.bound.unwrap_or(0.0) * 100.0
                );
            }
        }
    }
    println!("error rate {}/{}", out.failed, out.attempted);
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, out.to_json()) {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args = match parse_args(&spec) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gbmqo_benchmark: {e}");
            return ExitCode::from(64);
        }
    };
    if let Some((a, b)) = &args.compare {
        let load = |path: &PathBuf| {
            std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| Report::from_json(&text))
                .map_err(|e| format!("{}: {e}", path.display()))
        };
        return match (load(a), load(b)) {
            (Ok(a), Ok(b)) => {
                let outcome = compare(&spec, &a, &b);
                print!("{}", outcome.text);
                if outcome.regressions == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("gbmqo_benchmark: {e}");
                ExitCode::from(64)
            }
        };
    }
    match args.workload {
        Some(kind) => single(&args, kind),
        None => suite(&args, &spec),
    }
}
