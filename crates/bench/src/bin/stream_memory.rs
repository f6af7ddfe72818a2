//! Peak-memory measurement for streamed multi-million-group results.
//!
//! A v1-style server buffers the entire encoded `Results` response per
//! request before the socket drains it, so a 2M-group result costs tens
//! of megabytes of outbound queue per connection. The v2 chunked stream
//! bounds that queue by `ServerConfig::outbound_budget`: the producing
//! worker blocks once that many encoded-but-unwritten bytes are queued,
//! so peak server memory per connection is independent of result size.
//!
//! This binary streams a Group By whose result has `GBMQO_STREAM_ROWS/2`
//! groups (default 2,000,000) through a server configured with a small
//! chunk/budget, then compares the monolithic encoded-response size
//! against the server's measured `outbound_peak_bytes`. The "monolithic
//! encoding" line is the result in the codec's packed layout (protocol
//! v3: frame-of-reference bit-packed integer columns) — what a
//! buffering server would queue today, not the 16 bytes a row these two
//! `Int64` columns cost at fixed width. Output feeds EXPERIMENTS.md.

use gbmqo_core::prelude::*;
use gbmqo_server::codec;
use gbmqo_server::{stats_field, Client, Server, ServerConfig};
use gbmqo_storage::{Column, DataType, Field, Schema, Table};
use std::time::Instant;

const CHUNK_ROWS: usize = 8_192;
const CHUNK_BYTES: usize = 256 << 10;
const OUTBOUND_BUDGET: usize = 1 << 20;

fn rows() -> usize {
    std::env::var("GBMQO_STREAM_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000_000)
}

fn main() {
    let rows = rows();
    let groups = (rows / 2).max(1);
    eprintln!("building {rows}-row table with {groups} distinct group keys ...");
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ])
    .unwrap();
    let table = Table::new(
        schema,
        vec![
            Column::from_i64((0..rows).map(|i| (i % groups) as i64).collect()),
            Column::from_i64((0..rows as i64).collect()),
        ],
    )
    .unwrap();

    let session = Session::builder()
        .table("t", table)
        .search(SearchConfig::pruned())
        .build()
        .unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        session,
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            chunk_rows: CHUNK_ROWS,
            chunk_bytes: CHUNK_BYTES,
            outbound_budget: OUTBOUND_BUDGET,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    let start = Instant::now();
    let stream = client.stream_query("t", &["k"], 0).unwrap();
    let (results, summary) = stream.collect_tables().unwrap();
    let secs = start.elapsed().as_secs_f64();

    // What a buffer-the-whole-response server would have queued for this
    // one request: the full result table in wire encoding.
    let mut monolithic = Vec::new();
    for (_, t) in &results {
        codec::put_table(&mut monolithic, t);
    }
    let stats = client.stats().unwrap();
    let peak = stats_field(&stats, "outbound_peak_bytes").unwrap_or(0);
    let chunks = summary.total_chunks;

    println!("## Streaming memory — {groups} groups over {rows} rows");
    println!();
    println!(
        "result rows            {:>12}  (chunks: {chunks}, {:.2}s wall)",
        summary.total_rows, secs
    );
    println!(
        "monolithic encoding    {:>12}  bytes ({:.1} MiB) — v1-style per-request queue",
        monolithic.len(),
        monolithic.len() as f64 / (1024.0 * 1024.0)
    );
    println!(
        "server outbound peak   {:>12}  bytes ({:.0} KiB) — v2 measured, budget {} KiB",
        peak,
        peak as f64 / 1024.0,
        OUTBOUND_BUDGET / 1024
    );
    println!(
        "reduction              {:>11.0}x  (chunk caps: {CHUNK_ROWS} rows / {} KiB)",
        monolithic.len() as f64 / (peak.max(1) as f64),
        CHUNK_BYTES / 1024
    );
    assert!(
        peak as usize <= OUTBOUND_BUDGET + CHUNK_BYTES,
        "outbound peak {peak} exceeded budget {OUTBOUND_BUDGET} + one chunk {CHUNK_BYTES}"
    );

    drop(client);
    server.shutdown();
}
