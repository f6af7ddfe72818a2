//! `gbmqo` — profile a CSV dataset with optimized multi-Group-By
//! execution (the paper's §1 data-quality scenario as a tool).
//!
//! ```text
//! gbmqo profile data.csv                      # all single-column distributions
//! gbmqo profile data.csv --sets "((a),(b),(a,c))"
//! gbmqo profile data.csv --sql                # print the plan's SQL script
//! gbmqo profile data.csv --naive              # skip optimization (comparison)
//! ```

mod advise;
mod csv;
mod profile;
mod query;
mod remote;
mod serve;

use std::process::ExitCode;

const USAGE: &str = "\
gbmqo — optimized multi-Group-By data profiling

USAGE:
    gbmqo profile <file.csv> [OPTIONS]
    gbmqo advise  <file.csv> [--sets <spec>] [--max <n>]
    gbmqo serve   [file.csv] [--table <name>] [--addr <host:port>]
                  [--workers <n>] [--queue <n>] [--deadline-ms <n>]
                  [--chunk-rows <n>] [--chunk-kb <n>] [--outbound-kb <n>]
                  [--cache-budget-mb <n>] [--shards <n>]
                  [--refresh <lazy|eager|off>] [--max-delta-fraction <f>]
    gbmqo client  <addr> <ping|stats|register <name> <file.csv>|
                  query <table> <cols>|workload <table> <sets>>
                  [--deadline-ms <n>] [--limit <n>] [--compress] [--stream]
    gbmqo query   <addr> <sql>
                  [--deadline-ms <n>] [--limit <n>] [--compress] [--stream]

OPTIONS:
    --sets <spec>    GROUP BY spec to compute, e.g. \"ROLLUP (a, b)\",
                     \"GROUPING SETS ((a),(a,c))\", \"((a),(b),(a,c))\" or
                     \"a,b,c\" (one set per column); default: every column
                     as a single-column set
    --sql            print the optimized plan's SQL script and exit
    --json           print machine-readable execution metrics (JSON)
    --naive          execute the naive plan instead of optimizing
    --plan           print the chosen logical plan
    --top <n>        show the n most frequent values per set (default 3)
    --save-plan <f>  write the chosen logical plan to a file
    --load-plan <f>  replay a previously saved plan instead of optimizing
    --explain        print the physical plan the first run executed, with
                     per-query cost estimates (EXPLAIN)
    --repeat <n>     run the workload n times (default 1); with a cache
                     budget, later runs are answered from cached aggregates
    --cache-budget-mb <n>
                     aggregate-cache budget in MiB (default 0: off)
    --shards <n>     radix-partition the table into n shards (power of
                     two; 0/1 = unsharded)
    --append-rows <n>
                     append n rows resampled from the file between
                     repeats, exercising the delta-refresh path
    --refresh <lazy|eager|off>
                     how cached aggregates react to those appends
                     (default lazy)

`profile` plans from a sample (one row in twenty, 1,000 to 20,000 rows,
as `serve` does) and prints each plan node's estimated vs. observed
group count; observed counts correct the sample on later repeats, and a
drifted cached plan re-optimizes.

`advise` recommends single-column indexes for the workload via what-if
re-optimization (--max: number of indexes, default 3).

`serve` exposes the session over a binary TCP protocol, preloading
file.csv as table --table (default \"data\"); clients share its
aggregate cache (--cache-budget-mb, default 64). --shards, --refresh
and --max-delta-fraction (default 0.5) set sharding and how cached
aggregates react to appends. Results stream back as bounded chunk
frames (--chunk-rows/--chunk-kb caps each chunk, --outbound-kb caps
per-connection send credit).
`client` issues one request against a running server; --stream prints
chunks as they arrive and --compress negotiates LZ4-style frames.
`query` runs one SQL statement (aggregates over a fact table with
optional star joins and GROUP BY GROUPING SETS | CUBE | ROLLUP) on a
running server.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("profile") => match profile::Options::parse(&args[1..]) {
            Ok(opts) => match profile::run(&opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("advise") => match advise::Options::parse(&args[1..]) {
            Ok(opts) => match advise::run(&opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("serve") => match serve::Options::parse(&args[1..]) {
            Ok(opts) => match serve::run(&opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("client") => match remote::Options::parse(&args[1..]) {
            Ok(opts) => match remote::run(&opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("query") => match query::Options::parse(&args[1..]) {
            Ok(opts) => match query::run(&opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
