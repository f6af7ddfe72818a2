//! The `profile` subcommand: load a CSV, optimize the batch of Group By
//! queries, execute, and print distribution summaries.

use crate::csv::table_from_csv;
use gbmqo_core::prelude::*;
use gbmqo_core::{render_explain, render_sql};
use gbmqo_cost::{IndexSnapshot, OptimizerCostModel};
use gbmqo_stats::{DistinctEstimator, SampledSource};
use gbmqo_storage::Table;
use std::fmt::Write as _;
use std::time::Instant;

/// Parsed command-line options.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// CSV file path.
    pub file: String,
    /// GROUPING SETS spec (None = all single columns).
    pub sets: Option<String>,
    /// Print SQL and exit.
    pub sql: bool,
    /// Execute the naive plan.
    pub naive: bool,
    /// Print the logical plan.
    pub plan: bool,
    /// Most-frequent values shown per set.
    pub top: usize,
    /// Save the chosen plan to this path (compact text format).
    pub save_plan: Option<String>,
    /// Load a previously saved plan instead of optimizing.
    pub load_plan: Option<String>,
    /// Print per-query cost estimates.
    pub explain: bool,
    /// Emit machine-readable execution metrics instead of summaries.
    pub json: bool,
    /// Execute the workload this many times (metrics accumulate).
    pub repeat: usize,
    /// Materialized-aggregate-cache budget in MiB (0 disables it).
    pub cache_budget_mb: usize,
    /// Radix-partition the loaded table into this many hash-disjoint
    /// shards (power of two; 0/1 = unsharded).
    pub shards: u32,
    /// Append this many rows (resampled from the file) between repeat
    /// iterations, exercising the delta-refresh ingest path.
    pub append_rows: usize,
    /// How cached aggregates react to those appends.
    pub refresh: RefreshPolicy,
    /// Run the adaptive feedback loop: observed cardinalities correct
    /// the optimizer's estimates and drifted cached plans re-optimize.
    pub adaptive: bool,
}

impl Options {
    /// Parse `profile` arguments.
    pub fn parse(args: &[String]) -> std::result::Result<Self, String> {
        let mut opts = Options {
            top: 3,
            repeat: 1,
            ..Options::default()
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--sets" => opts.sets = Some(value(&mut it, a)?),
                "--sql" => opts.sql = true,
                "--adaptive" => opts.adaptive = true,
                "--json" => opts.json = true,
                "--explain" => opts.explain = true,
                "--naive" => opts.naive = true,
                "--plan" => opts.plan = true,
                "--save-plan" => opts.save_plan = Some(value(&mut it, a)?),
                "--load-plan" => opts.load_plan = Some(value(&mut it, a)?),
                "--top" => opts.top = value(&mut it, a)?,
                "--repeat" => opts.repeat = value(&mut it, a)?,
                "--cache-budget-mb" => opts.cache_budget_mb = value(&mut it, a)?,
                "--shards" => opts.shards = value(&mut it, a)?,
                "--append-rows" => opts.append_rows = value(&mut it, a)?,
                "--refresh" => {
                    opts.refresh = crate::serve::parse_refresh(&value::<String>(&mut it, a)?)?
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown option {flag}"));
                }
                path if opts.file.is_empty() => opts.file = path.to_string(),
                extra => return Err(format!("unexpected argument {extra:?}")),
            }
        }
        if opts.file.is_empty() {
            return Err("missing <file.csv>".to_string());
        }
        Ok(opts)
    }
}

/// The value following `flag`, parsed.
fn value<T>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> std::result::Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parse a `--sets` value into grouping sets. It is a GROUP BY spec
/// (`GROUPING SETS ((a), (b, c))`, `CUBE (a, b)`, `ROLLUP (a, b)`), or
/// one of two shorthands: a bare set list `((a), (b, c))`, or bare names
/// `a, b, c` for one single-column set each. Errors carry a caret
/// diagnostic against the GROUP BY spec the value was read as.
pub fn parse_sets(spec: &str) -> std::result::Result<Vec<Vec<String>>, String> {
    let spec = spec.trim();
    let spec = if spec.starts_with('(') {
        format!("GROUPING SETS {spec}")
    } else if !spec.contains('(') {
        let sets: Vec<String> = spec.split(',').map(|name| format!("({name})")).collect();
        format!("GROUPING SETS ({})", sets.join(", "))
    } else {
        spec.to_string()
    };
    gbmqo_sqlfe::parse_group_spec(&spec).map_err(|e| e.render(&spec))
}

/// Build the workload for a table from an optional `--sets` spec.
pub fn build_workload(table: &Table, sets: Option<&str>) -> std::result::Result<Workload, String> {
    let all_names: Vec<String> = table
        .schema()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let requests: Vec<Vec<String>> = match sets {
        Some(spec) => parse_sets(spec)?,
        None => all_names.iter().map(|n| vec![n.clone()]).collect(),
    };
    // universe = columns mentioned, in table order
    let mentioned: Vec<&str> = all_names
        .iter()
        .map(String::as_str)
        .filter(|n| requests.iter().any(|r| r.iter().any(|c| c == n)))
        .collect();
    let request_refs: Vec<Vec<&str>> = requests
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    Workload::new("data", table, &mentioned, &request_refs).map_err(|e| e.to_string())
}

/// Render one result's summary line(s).
pub fn summarize(set_names: &[&str], result: &Table, total_rows: usize, top: usize) -> String {
    let cnt_col = result.num_columns() - 1;
    let mut rows: Vec<usize> = (0..result.num_rows()).collect();
    rows.sort_by_key(|&r| std::cmp::Reverse(result.value(r, cnt_col).as_int().unwrap_or(0)));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "GROUP BY ({}): {} distinct",
        set_names.join(", "),
        result.num_rows()
    );
    for &r in rows.iter().take(top) {
        let key: Vec<String> = (0..cnt_col)
            .map(|c| result.value(r, c).to_string())
            .collect();
        let cnt = result.value(r, cnt_col).as_int().unwrap_or(0);
        let _ = writeln!(
            out,
            "    {:<40} {:>10}  ({:.1}%)",
            key.join(", "),
            cnt,
            100.0 * cnt as f64 / total_rows.max(1) as f64
        );
    }
    out
}

/// Run the subcommand.
pub fn run(opts: &Options) -> std::result::Result<(), String> {
    let content =
        std::fs::read_to_string(&opts.file).map_err(|e| format!("reading {}: {e}", opts.file))?;
    let table = table_from_csv(&content).map_err(|e| e.to_string())?;
    let rows = table.num_rows();
    if !opts.json {
        println!(
            "{}: {} rows × {} columns",
            opts.file,
            rows,
            table.num_columns()
        );
    }

    let workload = build_workload(&table, opts.sets.as_deref())?;
    if !opts.json {
        println!("{} Group By queries requested\n", workload.len());
    }

    let sample = (rows / 20).clamp(100, 20_000);
    let mut session = Session::builder()
        .table("data", table.clone())
        .cost_model(CostModelSpec::Optimizer(Stats::Sampled {
            sample_size: sample,
            estimator: DistinctEstimator::Hybrid,
            seed: 7,
        }))
        .search(SearchConfig::pruned())
        .mat_cache_budget_bytes(opts.cache_budget_mb << 20)
        .shards(opts.shards)
        .refresh_policy(opts.refresh)
        .adaptive(opts.adaptive)
        .build()
        .map_err(|e| e.to_string())?;

    let plan = if let Some(path) = &opts.load_plan {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let plan = gbmqo_core::plan_from_text(&text).map_err(|e| e.to_string())?;
        plan.validate(&workload)
            .map_err(|e| format!("saved plan does not fit this workload: {e}"))?;
        plan
    } else if opts.naive {
        LogicalPlan::naive(&workload)
    } else {
        let (plan, stats) = session.plan(&workload).map_err(|e| e.to_string())?;
        if stats.final_cost < stats.naive_cost && !opts.json {
            println!(
                "optimizer: estimated {:.2}× cheaper than naive ({} cost-model calls; \
                 {} statistics created in {} µs)",
                stats.naive_cost / stats.final_cost,
                stats.optimizer_calls,
                stats.stats_created,
                stats.stats_create_us
            );
        }
        plan
    };
    if let Some(path) = &opts.save_plan {
        std::fs::write(path, gbmqo_core::plan_to_text(&plan))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("plan saved to {path}");
    }
    if opts.plan {
        println!("{}", plan.render(&workload.column_names));
    }
    if opts.sql {
        for stmt in render_sql(&plan, &workload) {
            println!("{stmt}");
        }
        return Ok(());
    }

    // An explicit plan (loaded or naive) executes as-is; otherwise the
    // session's workload path runs, which consults the materialized
    // aggregate cache — with `--repeat`, later iterations are answered
    // from aggregates the first one admitted.
    let explicit_plan = opts.load_plan.is_some() || opts.naive;
    let start = Instant::now();
    let mut metrics = gbmqo_exec::ExecMetrics::new();
    let mut last = None;
    for iter in 0..opts.repeat.max(1) {
        // Churn between iterations: append a resampled slice so warm
        // repeats exercise the delta-refresh path instead of pure hits.
        if iter > 0 && opts.append_rows > 0 {
            let delta = table
                .slice_rows(0, opts.append_rows.min(rows))
                .map_err(|e| e.to_string())?;
            session.append("data", delta).map_err(|e| e.to_string())?;
        }
        let report = if explicit_plan {
            session.run_plan(&plan, &workload)
        } else {
            session
                .run_workload(&workload, CacheControl::Default)
                .map(|o| o.report)
        }
        .map_err(|e| e.to_string())?;
        // The physical plan the first run executed, next to the cost
        // model's estimates.
        if iter == 0 && opts.explain {
            let source = SampledSource::new(&table, sample, DistinctEstimator::Hybrid, 7);
            let mut model = OptimizerCostModel::new(source, IndexSnapshot::none());
            let text = render_explain(&report.physical, &workload, &mut model);
            println!("{text}");
        }
        metrics += report.metrics;
        last = Some(report);
    }
    let report = last.expect("at least one execution");
    let secs = start.elapsed().as_secs_f64();

    if opts.json {
        // The same flat serialization the server's Stats response embeds,
        // so downstream tooling parses one format.
        println!("{}", metrics.to_json());
        return Ok(());
    }

    for (set, result) in &report.results {
        let names = workload.col_names(*set);
        print!("{}", summarize(&names, result, rows, opts.top));
        // data-quality flags the paper's intro motivates
        for (c, name) in names.iter().enumerate() {
            let nulls = result.column(c).null_count();
            if nulls > 0 {
                println!("    note: column {name} has NULL values");
            }
        }
        if result.num_rows() == rows && names.len() > 1 {
            println!("    note: ({}) is a key", names.join(", "));
        }
    }
    println!(
        "\nexecuted {} queries in {:.3}s (peak temp storage {} KiB)",
        metrics.queries_executed,
        secs,
        report.peak_temp_bytes / 1024
    );
    let m = &metrics;
    println!(
        "kernel: {:.0} rows/s, {} radix partitions, {} packed-key rows, \
         {} fallback-key rows, {} hash resizes",
        m.rows_per_sec(),
        m.radix_partitions,
        m.packed_key_rows,
        m.fallback_key_rows,
        m.hash_resizes
    );
    if opts.cache_budget_mb > 0 {
        println!(
            "matcache: {} hits, {} rows saved, {} evictions, {} KiB resident",
            m.matcache_hits,
            m.matcache_rows_saved,
            m.matcache_evictions,
            m.matcache_bytes / 1024
        );
    }
    if m.shards > 0 {
        println!(
            "sharding: {} shards, {} shard rows scanned, {} merge rows, skew {}%",
            m.shards, m.shard_rows, m.merge_rows, m.shard_skew
        );
    }
    if opts.append_rows > 0 {
        println!(
            "ingest: {} delta refreshes ({} delta rows scanned, {} base rows saved), \
             {} fallbacks to invalidation, {} reshard hints",
            m.delta_refreshes,
            m.delta_rows,
            m.refresh_rows_saved,
            m.delta_fallbacks,
            m.reshard_hints
        );
    }
    // The q-error report: estimated vs. observed distinct groups for
    // every plan node of the last iteration. Printed with or without
    // --adaptive — the observations are always collected.
    let cards = session.last_node_cards();
    if !cards.is_empty() {
        println!("\ncardinality estimates (last iteration):");
        for card in cards {
            println!(
                "    ({:<30}) est {:>10}  observed {:>10}  q-error {:.2}",
                card.cols.join(", "),
                card.estimated,
                card.observed,
                card.q_error()
            );
        }
    }
    if opts.adaptive {
        println!(
            "adaptive: {} observations over {} column sets, \
             {} plan re-optimizations, {} sketch refreshes",
            m.feedback_observations,
            session.feedback_len(),
            m.plan_reopts,
            m.sketch_refreshes
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_flags() {
        let args: Vec<String> = ["data.csv", "--sql", "--top", "5", "--sets", "a,b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!(o.file, "data.csv");
        assert!(o.sql);
        assert_eq!(o.top, 5);
        assert_eq!(o.sets.as_deref(), Some("a,b"));
        let sharded = Options::parse(&["f.csv".into(), "--shards".into(), "4".into()]).unwrap();
        assert_eq!(sharded.shards, 4);
        let churn = Options::parse(&[
            "f.csv".into(),
            "--append-rows".into(),
            "500".into(),
            "--refresh".into(),
            "off".into(),
        ])
        .unwrap();
        assert_eq!(churn.append_rows, 500);
        assert_eq!(churn.refresh, RefreshPolicy::Disabled);
        let adaptive = Options::parse(&["f.csv".into(), "--adaptive".into()]).unwrap();
        assert!(adaptive.adaptive);
        assert!(Options::parse(&["f.csv".into(), "--shards".into(), "x".into()]).is_err());
        assert!(Options::parse(&[]).is_err());
        assert!(Options::parse(&["f.csv".into(), "--bogus".into()]).is_err());
        assert!(Options::parse(&["f.csv".into(), "--top".into()]).is_err());
    }

    fn owned(sets: &[&[&str]]) -> Vec<Vec<String>> {
        sets.iter()
            .map(|s| s.iter().map(|c| c.to_string()).collect())
            .collect()
    }

    #[test]
    fn parses_full_grouping_sets_syntax() {
        let got = parse_sets("GROUPING SETS ((a), (b), (c), (a, c))").unwrap();
        assert_eq!(got, owned(&[&["a"], &["b"], &["c"], &["a", "c"]]));
        let got = parse_sets("ROLLUP (a, b)").unwrap();
        assert_eq!(got, owned(&[&["a", "b"], &["a"]]));
        assert_eq!(parse_sets("cube (a, b)").unwrap().len(), 3);
    }

    #[test]
    fn parses_bare_set_list_and_keyword_case() {
        let got = parse_sets("grouping sets ((x,y))").unwrap();
        assert_eq!(got, owned(&[&["x", "y"]]));
        let got = parse_sets("((a),(b))").unwrap();
        assert_eq!(got, owned(&[&["a"], &["b"]]));
    }

    #[test]
    fn parses_bare_column_shorthand() {
        let got = parse_sets("a, b, l_shipdate").unwrap();
        assert_eq!(got, owned(&[&["a"], &["b"], &["l_shipdate"]]));
    }

    #[test]
    fn whitespace_is_irrelevant() {
        let got = parse_sets("  (( a ,b ) , ( c ))  ").unwrap();
        assert_eq!(got, owned(&[&["a", "b"], &["c"]]));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "GROUPING ((a))",
            "((a)",
            "((a)))",
            "(())",
            "((a,(b)))",
            "((a)) extra",
            "((1abc))",
            "((a b))",
            "a,,b",
        ] {
            let err = parse_sets(bad).expect_err(bad);
            assert!(err.contains('^'), "{bad:?}: no caret diagnostic in {err}");
        }
    }

    #[test]
    fn identifier_rules() {
        assert_eq!(parse_sets("l_shipdate").unwrap(), owned(&[&["l_shipdate"]]));
        assert_eq!(parse_sets("t.col").unwrap(), owned(&[&["t.col"]]));
        for bad in ["1col", "a b"] {
            assert!(parse_sets(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn workload_from_spec() {
        let csv = "a,b,c\n1,2,3\n4,5,6\n";
        let t = table_from_csv(csv).unwrap();
        let w = build_workload(&t, None).unwrap();
        assert_eq!(w.len(), 3);
        let w = build_workload(&t, Some("((a),(a,c))")).unwrap();
        assert_eq!(w.len(), 2);
        assert!(build_workload(&t, Some("((zz))")).is_err());
    }

    #[test]
    fn summarize_orders_by_frequency() {
        let csv = "a\nx\nx\ny\n";
        let t = table_from_csv(csv).unwrap();
        let mut m = gbmqo_exec::ExecMetrics::new();
        let r =
            gbmqo_exec::sort_group_by(&t, &[0], &[gbmqo_exec::AggSpec::count()], &mut m).unwrap();
        let s = summarize(&["a"], &r, 3, 2);
        assert!(s.contains("2 distinct"));
        let x_pos = s.find('x').unwrap();
        let y_pos = s.find('y').unwrap();
        assert!(x_pos < y_pos, "most frequent value first:\n{s}");
    }

    #[test]
    fn end_to_end_profile_run() {
        let dir = std::env::temp_dir().join("gbmqo_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let mut csv = String::from("region,flag,id\n");
        for i in 0..200 {
            csv.push_str(&format!("r{},{},{}\n", i % 4, i % 2, i));
        }
        std::fs::write(&path, csv).unwrap();
        let opts = Options {
            file: path.to_string_lossy().to_string(),
            sets: None,
            sql: false,
            naive: false,
            plan: true,
            top: 2,
            save_plan: Some(dir.join("plan.txt").to_string_lossy().to_string()),
            load_plan: None,
            explain: true,
            json: false,
            repeat: 1,
            cache_budget_mb: 0,
            shards: 0,
            append_rows: 0,
            refresh: RefreshPolicy::Lazy,
            adaptive: false,
        };
        run(&opts).unwrap();
        // machine-readable metrics parse back into ExecMetrics
        run(&Options {
            json: true,
            save_plan: None,
            ..opts.clone()
        })
        .unwrap();
        // a warm repeat under a cache budget answers from the cache
        run(&Options {
            save_plan: None,
            explain: false,
            plan: false,
            repeat: 3,
            cache_budget_mb: 8,
            ..opts.clone()
        })
        .unwrap();
        // the SQL path
        run(&Options {
            sql: true,
            save_plan: None,
            ..opts.clone()
        })
        .unwrap();
        // a sharded run: same pipeline, shard-parallel execution, and
        // the JSON metrics carry the per-shard counters
        run(&Options {
            save_plan: None,
            explain: false,
            plan: false,
            shards: 4,
            json: true,
            ..opts.clone()
        })
        .unwrap();
        // churn: appends between warm repeats go through delta refresh
        run(&Options {
            save_plan: None,
            explain: false,
            plan: false,
            repeat: 3,
            cache_budget_mb: 8,
            append_rows: 20,
            ..opts.clone()
        })
        .unwrap();
        // the adaptive loop under churn: observations correct estimates
        // between the warm repeats
        run(&Options {
            save_plan: None,
            explain: false,
            plan: false,
            repeat: 3,
            append_rows: 20,
            adaptive: true,
            ..opts.clone()
        })
        .unwrap();
        // replay the saved plan
        run(&Options {
            save_plan: None,
            load_plan: Some(dir.join("plan.txt").to_string_lossy().to_string()),
            ..opts
        })
        .unwrap();
    }
}
