//! The `client` subcommand: talk to a running `gbmqo serve` instance.

use crate::csv::table_from_csv;
use gbmqo_server::{Client, ClientOptions, ResultStream};

/// What to ask the server.
#[derive(Debug, Clone)]
pub enum Command {
    /// Liveness probe.
    Ping,
    /// Register a CSV file as a table.
    Register {
        /// Catalog name.
        name: String,
        /// CSV path.
        file: String,
    },
    /// Append CSV rows to a registered table.
    Append {
        /// Catalog name.
        name: String,
        /// CSV path (same schema as the registered table).
        file: String,
    },
    /// One Group By.
    Query {
        /// Table name.
        table: String,
        /// Comma-separated grouping columns.
        cols: Vec<String>,
    },
    /// A multi-query workload from a `--sets` spec.
    Workload {
        /// Table name.
        table: String,
        /// GROUPING SETS spec, e.g. `((a),(b),(a,c))`.
        sets: String,
    },
    /// Server counters.
    Stats,
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Server address.
    pub addr: String,
    /// The request to issue.
    pub command: Command,
    /// Per-request deadline in milliseconds (0 = none).
    pub deadline_ms: u32,
    /// Rows to print per result table.
    pub limit: usize,
    /// Offer LZ4-style frame compression during the handshake.
    pub compress: bool,
    /// Print result chunks as they stream in instead of collecting.
    pub stream: bool,
}

impl Options {
    /// Parse `client` arguments: `<addr> <command> [args] [flags]`.
    pub fn parse(args: &[String]) -> std::result::Result<Self, String> {
        let mut positional: Vec<&String> = Vec::new();
        let mut deadline_ms = 0u32;
        let mut limit = 10usize;
        let mut compress = false;
        let mut stream = false;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--compress" => compress = true,
                "--stream" => stream = true,
                "--deadline-ms" => {
                    deadline_ms = it
                        .next()
                        .ok_or_else(|| "--deadline-ms needs a value".to_string())?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?
                }
                "--limit" => {
                    limit = it
                        .next()
                        .ok_or_else(|| "--limit needs a value".to_string())?
                        .parse()
                        .map_err(|e| format!("--limit: {e}"))?
                }
                flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
                _ => positional.push(a),
            }
        }
        let [addr, rest @ ..] = positional.as_slice() else {
            return Err("missing <addr>".to_string());
        };
        let command = match rest {
            [c] if c.as_str() == "ping" => Command::Ping,
            [c] if c.as_str() == "stats" => Command::Stats,
            [c, name, file] if c.as_str() == "register" => Command::Register {
                name: name.to_string(),
                file: file.to_string(),
            },
            [c, name, file] if c.as_str() == "append" => Command::Append {
                name: name.to_string(),
                file: file.to_string(),
            },
            [c, table, cols] if c.as_str() == "query" => Command::Query {
                table: table.to_string(),
                cols: cols.split(',').map(|s| s.trim().to_string()).collect(),
            },
            [c, table, sets] if c.as_str() == "workload" => Command::Workload {
                table: table.to_string(),
                sets: sets.to_string(),
            },
            _ => {
                return Err("expected: ping | stats | register <name> <file.csv> | \
                     append <name> <file.csv> | query <table> <cols> | \
                     workload <table> <sets>"
                    .to_string())
            }
        };
        Ok(Options {
            addr: addr.to_string(),
            command,
            deadline_ms,
            limit,
            compress,
            stream,
        })
    }
}

/// Print a chunk stream as it arrives: a header per grouping set, up to
/// `limit` rows per set, then the stream summary. Shared with the
/// `query` (SQL) subcommand.
pub(crate) fn print_stream(
    mut stream: ResultStream<'_>,
    limit: usize,
) -> std::result::Result<(), String> {
    let mut current: Option<String> = None;
    let mut printed = 0usize;
    for batch in &mut stream {
        let batch = batch.map_err(|e| e.to_string())?;
        if current.as_deref() != Some(batch.set_tag.as_str()) {
            if !batch.set_tag.is_empty() {
                println!("GROUP BY ({}):", batch.set_tag);
            }
            current = Some(batch.set_tag.clone());
            printed = 0;
        }
        if printed < limit {
            let take = (limit - printed).min(batch.rows.num_rows());
            print!("{}", batch.rows.display(take));
            printed += take;
        }
    }
    let summary = stream
        .summary()
        .cloned()
        .ok_or_else(|| "stream ended without a summary".to_string())?;
    println!(
        "{} rows in {} chunks",
        summary.total_rows, summary.total_chunks
    );
    Ok(())
}

/// Run the subcommand.
pub fn run(opts: &Options) -> std::result::Result<(), String> {
    let mut client = Client::connect_with(
        opts.addr.as_str(),
        ClientOptions {
            compress: opts.compress,
        },
    )
    .map_err(|e| format!("connecting to {}: {e}", opts.addr))?;
    match &opts.command {
        Command::Ping => {
            client.ping().map_err(|e| e.to_string())?;
            println!("pong");
        }
        Command::Register { name, file } => {
            let content =
                std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
            let table = table_from_csv(&content).map_err(|e| e.to_string())?;
            client
                .register_table(name, &table)
                .map_err(|e| e.to_string())?;
            println!("registered {name}: {} rows", table.num_rows());
        }
        Command::Append { name, file } => {
            let content =
                std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
            let rows = table_from_csv(&content).map_err(|e| e.to_string())?;
            client.append(name, &rows).map_err(|e| e.to_string())?;
            println!("appended {} rows to {name}", rows.num_rows());
        }
        Command::Query { table, cols } => {
            let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            if opts.stream {
                let stream = client
                    .stream_query(table, &col_refs, opts.deadline_ms)
                    .map_err(|e| e.to_string())?;
                print_stream(stream, opts.limit)?;
            } else {
                let result = client
                    .query(table, &col_refs, opts.deadline_ms)
                    .map_err(|e| e.to_string())?;
                print!("{}", result.display(opts.limit));
            }
        }
        Command::Workload { table, sets } => {
            let requests = crate::profile::parse_sets(sets)?;
            // universe: columns mentioned, in first-mention order
            let mut universe: Vec<&str> = Vec::new();
            for r in &requests {
                for c in r {
                    if !universe.contains(&c.as_str()) {
                        universe.push(c);
                    }
                }
            }
            let request_refs: Vec<Vec<&str>> = requests
                .iter()
                .map(|r| r.iter().map(String::as_str).collect())
                .collect();
            if opts.stream {
                let stream = client
                    .stream_workload(table, &universe, &request_refs, opts.deadline_ms)
                    .map_err(|e| e.to_string())?;
                print_stream(stream, opts.limit)?;
            } else {
                let results = client
                    .submit_workload(table, &universe, &request_refs, opts.deadline_ms)
                    .map_err(|e| e.to_string())?;
                for (tag, result) in results {
                    println!("GROUP BY ({tag}): {} rows", result.num_rows());
                    print!("{}", result.display(opts.limit));
                }
            }
        }
        Command::Stats => {
            println!("{}", client.stats().map_err(|e| e.to_string())?);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parse_commands() {
        let o = Options::parse(&strs(&["localhost:4816", "ping"])).unwrap();
        assert!(matches!(o.command, Command::Ping));
        let o = Options::parse(&strs(&[
            "localhost:4816",
            "query",
            "data",
            "a,b",
            "--deadline-ms",
            "500",
        ]))
        .unwrap();
        assert_eq!(o.deadline_ms, 500);
        match o.command {
            Command::Query { table, cols } => {
                assert_eq!(table, "data");
                assert_eq!(cols, vec!["a", "b"]);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let o = Options::parse(&strs(&["h:1", "append", "data", "more.csv"])).unwrap();
        match o.command {
            Command::Append { name, file } => {
                assert_eq!(name, "data");
                assert_eq!(file, "more.csv");
            }
            other => panic!("wrong command: {other:?}"),
        }
        let o = Options::parse(&strs(&["h:1", "workload", "data", "((a),(b))"])).unwrap();
        assert!(matches!(o.command, Command::Workload { .. }));
        assert!(!o.compress && !o.stream);
        let o = Options::parse(&strs(&[
            "h:1",
            "query",
            "data",
            "a",
            "--compress",
            "--stream",
        ]))
        .unwrap();
        assert!(o.compress && o.stream);
        assert!(Options::parse(&[]).is_err());
        assert!(Options::parse(&strs(&["h:1", "frobnicate"])).is_err());
        assert!(Options::parse(&strs(&["h:1", "query", "data"])).is_err());
    }
}
