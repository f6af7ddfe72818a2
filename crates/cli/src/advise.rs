//! The `advise` subcommand: what-if index recommendations for a
//! profiling workload over a CSV dataset (see `gbmqo_core::advisor`).

use crate::csv::table_from_csv;
use crate::profile::build_workload;
use gbmqo_core::prelude::Stats;
use gbmqo_core::recommend_indexes;
use gbmqo_cost::CostConstants;

/// Parsed `advise` options.
#[derive(Debug, Clone)]
pub struct Options {
    /// CSV file path.
    pub file: String,
    /// GROUPING SETS spec (None = all single columns).
    pub sets: Option<String>,
    /// Maximum indexes to recommend.
    pub max_indexes: usize,
}

impl Options {
    /// Parse `advise` arguments.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Options {
            file: String::new(),
            sets: None,
            max_indexes: 3,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--sets" => {
                    opts.sets = Some(
                        it.next()
                            .ok_or_else(|| "--sets needs a value".to_string())?
                            .clone(),
                    )
                }
                "--max" => {
                    opts.max_indexes = it
                        .next()
                        .ok_or_else(|| "--max needs a value".to_string())?
                        .parse()
                        .map_err(|e| format!("--max: {e}"))?
                }
                flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
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

/// Run the subcommand.
pub fn run(opts: &Options) -> Result<(), String> {
    let content =
        std::fs::read_to_string(&opts.file).map_err(|e| format!("reading {}: {e}", opts.file))?;
    let table = table_from_csv(&content).map_err(|e| e.to_string())?;
    let workload = build_workload(&table, opts.sets.as_deref())?;
    println!(
        "{}: {} rows, {} Group By queries; evaluating single-column indexes…\n",
        opts.file,
        table.num_rows(),
        workload.len()
    );

    let recs = recommend_indexes(
        &workload,
        || Stats::default().source(&table),
        CostConstants::default(),
        opts.max_indexes,
        0.01,
    )
    .map_err(|e| e.to_string())?;

    if recs.is_empty() {
        println!("no single-column index improves this workload by ≥1%.");
        return Ok(());
    }
    println!(
        "{:<24} {:>16} {:>14}",
        "CREATE INDEX ON", "est. benefit", "Δcost"
    );
    for r in &recs {
        println!(
            "{:<24} {:>15.1}% {:>14.0}",
            format!("({})", workload.column_names[r.column_bit]),
            100.0 * r.benefit() / r.cost_before,
            -r.benefit()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse() {
        let args: Vec<String> = ["d.csv", "--max", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!(o.max_indexes, 2);
        assert!(Options::parse(&["--max".into()]).is_err());
        assert!(Options::parse(&[]).is_err());
    }

    #[test]
    fn end_to_end_advise() {
        let dir = std::env::temp_dir().join("gbmqo_cli_advise");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let mut csv = String::from("dense,flag\n");
        for i in 0..1000 {
            csv.push_str(&format!("{},{}\n", i, i % 2));
        }
        std::fs::write(&path, csv).unwrap();
        run(&Options {
            file: path.to_string_lossy().to_string(),
            sets: None,
            max_indexes: 2,
        })
        .unwrap();
    }
}
