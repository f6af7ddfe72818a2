//! The `serve` subcommand: expose a Session over the binary protocol.

use crate::csv::table_from_csv;
use gbmqo_core::prelude::*;
use gbmqo_server::{Server, ServerConfig};
use std::time::Duration;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// CSV file to preload (optional; clients can register tables too).
    pub file: Option<String>,
    /// Catalog name for the preloaded table.
    pub table: String,
    /// Listen address.
    pub addr: String,
    /// Worker threads.
    pub workers: usize,
    /// Admission queue depth.
    pub queue: usize,
    /// Default per-request deadline in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Materialized-aggregate-cache budget in MiB (0 disables it).
    pub cache_budget_mb: usize,
    /// Row cap per streamed result chunk.
    pub chunk_rows: usize,
    /// Approximate byte cap per streamed result chunk, in KiB.
    pub chunk_kb: usize,
    /// Per-connection outbound credit budget, in KiB.
    pub outbound_kb: usize,
    /// Radix-partition registered tables into this many hash-disjoint
    /// shards (power of two; 0/1 = unsharded). Applies to the preloaded
    /// table and to tables clients register over the wire.
    pub shards: u32,
    /// How cached aggregates react to appends: `lazy` delta-refreshes
    /// stale entries on lookup, `eager` refreshes inside the append,
    /// `off` falls back to invalidate-everything.
    pub refresh: RefreshPolicy,
    /// Delta-refresh cutoff: when the pending delta exceeds this
    /// fraction of the base table, invalidate instead of refreshing.
    pub max_delta_fraction: f64,
}

/// Parse a `--refresh` value.
pub(crate) fn parse_refresh(s: &str) -> std::result::Result<RefreshPolicy, String> {
    match s {
        "lazy" => Ok(RefreshPolicy::Lazy),
        "eager" => Ok(RefreshPolicy::Eager),
        "off" => Ok(RefreshPolicy::Disabled),
        other => Err(format!("--refresh: expected lazy|eager|off, got {other:?}")),
    }
}

impl Options {
    /// Parse `serve` arguments.
    pub fn parse(args: &[String]) -> std::result::Result<Self, String> {
        let mut opts = Options {
            file: None,
            table: "data".to_string(),
            addr: "127.0.0.1:4816".to_string(),
            workers: 2,
            queue: 64,
            deadline_ms: 0,
            cache_budget_mb: 64,
            chunk_rows: ServerConfig::default().chunk_rows,
            chunk_kb: ServerConfig::default().chunk_bytes >> 10,
            outbound_kb: ServerConfig::default().outbound_budget >> 10,
            shards: 0,
            refresh: RefreshPolicy::Lazy,
            max_delta_fraction: DEFAULT_MAX_DELTA_FRACTION,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match a.as_str() {
                "--addr" => opts.addr = value("--addr")?,
                "--table" => opts.table = value("--table")?,
                "--workers" => {
                    opts.workers = value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?
                }
                "--queue" => {
                    opts.queue = value("--queue")?
                        .parse()
                        .map_err(|e| format!("--queue: {e}"))?
                }
                "--deadline-ms" => {
                    opts.deadline_ms = value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?
                }
                "--cache-budget-mb" => {
                    opts.cache_budget_mb = value("--cache-budget-mb")?
                        .parse()
                        .map_err(|e| format!("--cache-budget-mb: {e}"))?
                }
                "--chunk-rows" => {
                    opts.chunk_rows = value("--chunk-rows")?
                        .parse()
                        .map_err(|e| format!("--chunk-rows: {e}"))?
                }
                "--chunk-kb" => {
                    opts.chunk_kb = value("--chunk-kb")?
                        .parse()
                        .map_err(|e| format!("--chunk-kb: {e}"))?
                }
                "--outbound-kb" => {
                    opts.outbound_kb = value("--outbound-kb")?
                        .parse()
                        .map_err(|e| format!("--outbound-kb: {e}"))?
                }
                "--shards" => {
                    opts.shards = value("--shards")?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?
                }
                "--refresh" => opts.refresh = parse_refresh(&value("--refresh")?)?,
                "--max-delta-fraction" => {
                    opts.max_delta_fraction = value("--max-delta-fraction")?
                        .parse()
                        .map_err(|e| format!("--max-delta-fraction: {e}"))?
                }
                flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
                path if opts.file.is_none() => opts.file = Some(path.to_string()),
                extra => return Err(format!("unexpected argument {extra:?}")),
            }
        }
        Ok(opts)
    }

    /// The server configuration these options ask for.
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            workers: self.workers.max(1),
            queue_capacity: self.queue.max(1),
            default_deadline: (self.deadline_ms > 0)
                .then(|| Duration::from_millis(self.deadline_ms)),
            chunk_rows: self.chunk_rows.max(1),
            chunk_bytes: (self.chunk_kb << 10).max(1 << 10),
            outbound_budget: (self.outbound_kb << 10).max(64 << 10),
        }
    }
}

/// Run the subcommand: bind, print the address, serve until killed.
pub fn run(opts: &Options) -> std::result::Result<(), String> {
    let mut builder = Session::builder()
        .search(SearchConfig::pruned())
        .plan_cache(64)
        .mat_cache_budget_bytes(opts.cache_budget_mb << 20)
        .shards(opts.shards)
        .refresh_policy(opts.refresh)
        .max_delta_fraction(opts.max_delta_fraction);
    if let Some(file) = &opts.file {
        let content = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
        let table = table_from_csv(&content).map_err(|e| e.to_string())?;
        println!(
            "loaded {file} as table {:?}: {} rows × {} columns",
            opts.table,
            table.num_rows(),
            table.num_columns()
        );
        builder = builder.table(opts.table.clone(), table);
    }
    let session = builder.build().map_err(|e| e.to_string())?;

    let config = opts.server_config();
    let handle = Server::bind(opts.addr.as_str(), session, config.clone())
        .map_err(|e| format!("binding {}: {e}", opts.addr))?;
    println!(
        "listening on {} ({} workers, queue {}, aggregate cache {})",
        handle.local_addr(),
        config.workers,
        config.queue_capacity,
        if opts.cache_budget_mb > 0 {
            format!("{} MiB", opts.cache_budget_mb)
        } else {
            "off".to_string()
        }
    );
    println!(
        "streaming: {} rows / {} KiB per chunk, {} KiB outbound budget per connection",
        config.chunk_rows,
        config.chunk_bytes >> 10,
        config.outbound_budget >> 10
    );
    if opts.shards > 1 {
        println!(
            "sharding: registered tables radix-partition into {} hash-disjoint shards",
            opts.shards
        );
    }
    println!(
        "ingest: {} refresh of cached aggregates on append (delta cutoff {:.0}% of base)",
        match opts.refresh {
            RefreshPolicy::Lazy => "lazy",
            RefreshPolicy::Eager => "eager",
            RefreshPolicy::Disabled => "no",
        },
        opts.max_delta_fraction * 100.0
    );
    // Serve until the process is killed; the handle's Drop drains
    // in-flight requests if we ever get here.
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_flags() {
        let args: Vec<String> = [
            "data.csv",
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "4",
            "--cache-budget-mb",
            "16",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!(o.file.as_deref(), Some("data.csv"));
        assert_eq!(o.addr, "0.0.0.0:9000");
        assert_eq!(o.workers, 4);
        assert_eq!(o.cache_budget_mb, 16);
        assert!(Options::parse(&["--workers".into()]).is_err());
        assert!(Options::parse(&["--bogus".into()]).is_err());
        let args: Vec<String> = [
            "--chunk-rows",
            "1024",
            "--chunk-kb",
            "256",
            "--outbound-kb",
            "2048",
            "--shards",
            "4",
            "--refresh",
            "eager",
            "--max-delta-fraction",
            "0.25",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!(o.chunk_rows, 1024);
        assert_eq!(o.chunk_kb, 256);
        assert_eq!(o.outbound_kb, 2048);
        assert_eq!(o.shards, 4);
        assert_eq!(o.refresh, RefreshPolicy::Eager);
        assert!((o.max_delta_fraction - 0.25).abs() < 1e-9);
        // no file is fine: clients register tables over the wire
        assert!(Options::parse(&[]).is_ok());
    }

    #[test]
    fn serve_without_flags_serves_the_default_config() {
        // The benchmark measures `ServerConfig::default()`; a bare
        // `gbmqo serve` must ship exactly that.
        let opts = Options::parse(&[]).unwrap();
        assert_eq!(opts.server_config(), ServerConfig::default());
    }

    #[test]
    fn refresh_values_parse() {
        assert_eq!(parse_refresh("lazy").unwrap(), RefreshPolicy::Lazy);
        assert_eq!(parse_refresh("eager").unwrap(), RefreshPolicy::Eager);
        assert_eq!(parse_refresh("off").unwrap(), RefreshPolicy::Disabled);
        assert!(parse_refresh("sometimes").is_err());
    }
}
