//! Regenerate the paper's evaluation tables and figures.
//!
//! ```sh
//! cargo run --release -p gbmqo-bench --bin experiments            # all
//! cargo run --release -p gbmqo-bench --bin experiments table2 fig13
//! GBMQO_ROWS=400000 cargo run --release -p gbmqo-bench --bin experiments
//! ```
//!
//! Each experiment prints a `##`-titled block mirroring one paper table
//! or figure; `EXPERIMENTS.md` records a full run.

use gbmqo_bench::{experiments, Report, Scale};
use gbmqo_core::prelude::Stats;
use std::time::Instant;

type Runner = fn(&Scale) -> Report;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);
    let scale = Scale::from_env();

    println!(
        "# GB-MQO experiment suite (base {} rows, '10g' {} rows, statistics {:?})\n",
        scale.base_rows,
        scale.big_rows,
        Stats::default()
    );

    let runners: Vec<(&str, Runner)> = vec![
        ("table2", |s| experiments::table2::run(s).0),
        ("table3", |s| experiments::table3::run(s).0),
        ("fig9", |s| experiments::fig9::run(s).0),
        ("fig10", |s| experiments::fig10::run(s).0),
        ("sec65", |s| experiments::sec65::run(s).0),
        ("fig11", |s| experiments::fig11::run(s).0),
        ("fig12", |s| experiments::fig12::run(s).0),
        ("first_contact", |s| experiments::first_contact::run(s).0),
        ("fig13", |s| experiments::fig13::run(s).0),
        ("fig14", |s| experiments::fig14::run(s).0),
        ("storage", |s| experiments::storage_ablation::run(s).0),
        ("extensions", |s| experiments::extensions::run(s).0),
    ];

    let suite_start = Instant::now();
    let mut ran = 0;
    for (name, runner) in runners {
        if !want(name) {
            continue;
        }
        let start = Instant::now();
        let report = runner(&scale);
        println!("{}", report.render());
        println!("({name} took {:.1}s)\n", start.elapsed().as_secs_f64());
        ran += 1;
    }
    if ran == 0 {
        eprintln!(
            "unknown experiment(s) {args:?}; choose from: table2 table3 fig9 fig10 sec65 fig11 fig12 first_contact fig13 fig14 storage extensions"
        );
        std::process::exit(2);
    }
    println!(
        "suite complete: {ran} experiment(s) in {:.1}s",
        suite_start.elapsed().as_secs_f64()
    );
}
