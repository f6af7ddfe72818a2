//! End-to-end tests of the TCP server: concurrent clients, admission
//! control, deadlines, micro-batching, and graceful shutdown.

use gbmqo_core::prelude::*;
use gbmqo_exec::{sort_group_by, AggSpec, ExecMetrics};
use gbmqo_integration::{col_names, modular_table, normalize};
use gbmqo_server::{
    stats_field, CacheControl, Client, ClientOptions, ErrorCode, Server, ServerConfig, ServerError,
    FEATURE_LZ4,
};
use gbmqo_storage::Table;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

fn serve(table: Table, config: ServerConfig) -> gbmqo_server::ServerHandle {
    let session = Session::builder()
        .table("r", table)
        .search(SearchConfig::pruned())
        .plan_cache(32)
        .build()
        .unwrap();
    Server::bind("127.0.0.1:0", session, config).unwrap()
}

/// Compute the expected Group By result locally.
fn expected(table: &Table, cols: &[&str]) -> Table {
    let ords: Vec<usize> = cols
        .iter()
        .map(|c| table.schema().index_of(c).unwrap())
        .collect();
    let mut m = ExecMetrics::new();
    sort_group_by(table, &ords, &[AggSpec::count()], &mut m).unwrap()
}

fn assert_result(table: &Table, cols: &[&str], got: &Table, context: &str) {
    let want = expected(table, cols);
    assert_eq!(
        normalize(got, cols),
        normalize(&want, cols),
        "{context}: wrong result for {cols:?}"
    );
}

#[test]
fn sixteen_concurrent_clients_mixed_requests() {
    let cards = [4usize, 7, 10, 13];
    let table = modular_table(5_000, &cards);
    let handle = serve(
        table.clone(),
        ServerConfig {
            workers: 4,
            queue_capacity: 256,
            batch_window: Some(Duration::from_millis(2)),
            default_deadline: None,
            ..ServerConfig::default()
        },
    );
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let catalog_tables = stats_field(&client.stats().unwrap(), "catalog_tables").unwrap();
    let names = col_names(cards.len());
    let table = Arc::new(table);
    let names = Arc::new(names);

    let n_clients = 16;
    let barrier = Arc::new(Barrier::new(n_clients));
    let joins: Vec<_> = (0..n_clients)
        .map(|i| {
            let table = Arc::clone(&table);
            let names = Arc::clone(&names);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                client.ping().unwrap();

                // a single query (goes through the batcher)
                let col = names[i % names.len()].as_str();
                let result = client.query("r", &[col], 0).unwrap();
                assert_result(&table, &[col], &result, "client query");

                // a full workload (worker path), two sets incl. a pair
                let a = names[i % names.len()].as_str();
                let b = names[(i + 1) % names.len()].as_str();
                let results = client
                    .submit_workload("r", &[a, b], &[vec![a], vec![a, b]], 0)
                    .unwrap();
                assert_eq!(results.len(), 2, "workload returns both sets");
                for (tag, got) in &results {
                    let cols: Vec<&str> = tag.split(',').collect();
                    assert_result(&table, &cols, got, "client workload");
                }

                // stats always parses
                let json = client.stats().unwrap();
                assert!(
                    stats_field(&json, "requests").is_some(),
                    "bad stats: {json}"
                );
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }

    let json = client.stats().unwrap();
    // 16 queries + 16 workloads + 16 stats + the stats requests before
    // and after them
    assert_eq!(stats_field(&json, "requests"), Some(50), "stats: {json}");
    assert_eq!(
        stats_field(&json, "catalog_tables"),
        Some(catalog_tables),
        "stats: {json}"
    );
    drop(client);
    handle.shutdown();
}

#[test]
fn full_admission_queue_sheds_load_with_server_busy() {
    // One worker and a depth-2 queue: a slow request occupies the
    // worker, two more fill the queue, the rest must be rejected
    // immediately with ServerBusy instead of hanging.
    let table = modular_table(400_000, &[101, 97, 89]);
    let handle = serve(
        table,
        ServerConfig {
            workers: 1,
            queue_capacity: 2,
            batch_window: None,
            default_deadline: None,
            ..ServerConfig::default()
        },
    );
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // Pipelined: the heavy workload first, then a beat for the worker
    // to pick it up, then four quick queries.
    let heavy = client
        .send_workload(
            "r",
            &["c0", "c1", "c2"],
            &[
                vec!["c0", "c1", "c2"],
                vec!["c0", "c1"],
                vec!["c1", "c2"],
                vec!["c0", "c2"],
            ],
            0,
        )
        .unwrap();
    thread::sleep(Duration::from_millis(150));
    let quick: Vec<u64> = (0..4)
        .map(|_| client.send_query("r", &["c0"], 0).unwrap())
        .collect();

    let mut ok = 0;
    let mut busy = 0;
    for id in quick {
        match client.wait(id) {
            Ok(_) => ok += 1,
            Err(ServerError::Remote {
                code: ErrorCode::ServerBusy,
                ..
            }) => busy += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(
        busy >= 1,
        "queue depth 2 must shed some of 4 queued queries"
    );
    assert_eq!(ok + busy, 4, "every request gets a terminal response");
    // the heavy request itself completes fine
    client.wait(heavy).unwrap();

    let json = client.stats().unwrap();
    assert!(
        stats_field(&json, "busy_rejections").unwrap() >= busy,
        "stats: {json}"
    );
    drop(client);
    handle.shutdown();
}

#[test]
fn expired_deadline_times_out_and_drops_temps() {
    let table = modular_table(400_000, &[101, 97, 89]);
    let handle = serve(
        table,
        ServerConfig {
            workers: 1,
            queue_capacity: 16,
            batch_window: None,
            default_deadline: None,
            ..ServerConfig::default()
        },
    );
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let catalog_tables = stats_field(&client.stats().unwrap(), "catalog_tables").unwrap();

    let err = client
        .submit_workload(
            "r",
            &["c0", "c1", "c2"],
            &[
                vec!["c0", "c1", "c2"],
                vec!["c0", "c1"],
                vec!["c1", "c2"],
                vec!["c0"],
                vec!["c1"],
                vec!["c2"],
            ],
            1, // 1 ms: cannot possibly finish
        )
        .unwrap_err();
    match err {
        ServerError::Remote {
            code: ErrorCode::Timeout,
            ..
        } => {}
        other => panic!("expected Timeout, got {other}"),
    }

    // The cancelled execution leaves the catalog as it found it, and the
    // server keeps serving normally afterwards.
    let json = client.stats().unwrap();
    assert_eq!(
        stats_field(&json, "catalog_tables"),
        Some(catalog_tables),
        "stats: {json}"
    );
    assert!(
        stats_field(&json, "timeouts").unwrap() >= 1,
        "stats: {json}"
    );
    let result = client.query("r", &["c0"], 0).unwrap();
    assert_eq!(result.num_rows(), 101);
    drop(client);
    handle.shutdown();
}

/// A deadline reaches every operator of a sharded request — the
/// per-shard queries, the one logical query a near-unique grouping is
/// priced into, and the cross-shard merge all run under the request's
/// token. A request it interrupts reports `Timeout`, leaves the catalog
/// unchanged and no poisoned session lock behind, and the connection it
/// came in on answers the next query.
#[test]
fn deadline_interrupts_a_sharded_near_unique_grouping() {
    // 631 x 641 > 400,000 with coprime moduli: (c1, c2) is unique per
    // row. c0 is the shard key, so the pair does not cover it.
    let table = modular_table(400_000, &[3, 631, 641]);
    let mut catalog = gbmqo_storage::Catalog::new();
    catalog
        .register_sharded("r", table, 4, Some(vec!["c0".to_string()]))
        .unwrap();
    let session = Session::builder()
        .engine(gbmqo_exec::Engine::new(catalog))
        .shards(4)
        .search(SearchConfig::pruned())
        .build()
        .unwrap();
    let handle = Server::bind(
        "127.0.0.1:0",
        session,
        ServerConfig {
            workers: 1,
            queue_capacity: 16,
            batch_window: None,
            default_deadline: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let catalog_tables = stats_field(&client.stats().unwrap(), "catalog_tables").unwrap();

    for cols in [&["c1", "c2"][..], &["c1"][..]] {
        // 2 ms: expires while the 400,000 rows are being grouped.
        match client.query_with("r", cols, 2, CacheControl::Bypass) {
            Err(ServerError::Remote {
                code: ErrorCode::Timeout,
                ..
            }) => {}
            other => panic!("{cols:?}: expected Timeout, got {other:?}"),
        }
    }

    // Reading the stats takes the session lock: it is not poisoned, and
    // the interrupted executions left the catalog as they found it.
    let json = client.stats().unwrap();
    assert_eq!(
        stats_field(&json, "catalog_tables"),
        Some(catalog_tables),
        "stats: {json}"
    );
    assert_eq!(stats_field(&json, "timeouts"), Some(2), "stats: {json}");
    let result = client.query("r", &["c0"], 0).unwrap();
    assert_eq!(result.num_rows(), 3);
    drop(client);
    handle.shutdown();
}

#[test]
fn micro_batching_merges_concurrent_queries_into_one_plan() {
    let cards = [6usize, 10, 15];
    let table = modular_table(20_000, &cards);
    let sets: [&str; 3] = ["c0", "c1", "c2"];

    // Baseline: batching disabled, two clients issue three queries each.
    let unbatched = {
        let handle = serve(
            table.clone(),
            ServerConfig {
                workers: 2,
                queue_capacity: 64,
                batch_window: None,
                default_deadline: None,
                ..ServerConfig::default()
            },
        );
        let addr = handle.local_addr();
        let barrier = Arc::new(Barrier::new(2));
        let joins: Vec<_> = (0..2)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    barrier.wait();
                    for set in sets {
                        client.query("r", &[set], 0).unwrap();
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let mut client = Client::connect(addr).unwrap();
        let json = client.stats().unwrap();
        let q = stats_field(&json, "queries_executed").unwrap();
        drop(client);
        handle.shutdown();
        q
    };

    // Batched: same six queries inside one 300 ms window.
    let (batched, batches, batched_queries) = {
        let handle = serve(
            table.clone(),
            ServerConfig {
                workers: 2,
                queue_capacity: 64,
                batch_window: Some(Duration::from_millis(300)),
                default_deadline: None,
                ..ServerConfig::default()
            },
        );
        let addr = handle.local_addr();
        let barrier = Arc::new(Barrier::new(2));
        let table = Arc::new(table);
        let joins: Vec<_> = (0..2)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let table = Arc::clone(&table);
                thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    barrier.wait();
                    // pipelined so all six queries land in one window
                    let ids: Vec<u64> = sets
                        .iter()
                        .map(|s| client.send_query("r", &[s], 0).unwrap())
                        .collect();
                    for (set, id) in sets.iter().zip(ids) {
                        match client.wait(id).unwrap() {
                            gbmqo_server::Reply::Results(mut r) => {
                                assert_eq!(r.len(), 1);
                                let (_, got) = r.pop().unwrap();
                                assert_result(&table, &[set], &got, "batched query");
                            }
                            other => panic!("unexpected reply: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let mut client = Client::connect(addr).unwrap();
        let json = client.stats().unwrap();
        let out = (
            stats_field(&json, "queries_executed").unwrap(),
            stats_field(&json, "batches").unwrap(),
            stats_field(&json, "batched_queries").unwrap(),
        );
        drop(client);
        handle.shutdown();
        out
    };

    assert!(batches >= 1, "the batcher must have merged a window");
    assert_eq!(batched_queries, 6, "all six queries went through batching");
    assert!(
        batched < unbatched,
        "micro-batching must execute fewer queries: batched {batched} vs unbatched {unbatched}"
    );
    // Numbers land in EXPERIMENTS.md; print for easy refresh.
    println!("micro-batching: unbatched={unbatched} batched={batched} batches={batches}");
}

/// Two constituents of one merged batch request the same column *set*
/// in different orders; each must get its columns back in the order it
/// asked for (the merged plan computes the set once, in one order).
#[test]
fn batched_results_preserve_each_clients_column_order() {
    let table = modular_table(5_000, &[6, 10]);
    let handle = serve(
        table,
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            batch_window: Some(Duration::from_millis(200)),
            default_deadline: None,
            ..ServerConfig::default()
        },
    );
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    // Pipelined so both land in one batch window.
    let id_ab = client.send_query("r", &["c0", "c1"], 0).unwrap();
    let id_ba = client.send_query("r", &["c1", "c0"], 0).unwrap();
    for (id, want) in [(id_ab, ["c0", "c1"]), (id_ba, ["c1", "c0"])] {
        match client.wait(id).unwrap() {
            gbmqo_server::Reply::Results(mut r) => {
                assert_eq!(r.len(), 1);
                let (tag, got) = r.pop().unwrap();
                assert_eq!(tag, want.join(","));
                assert_eq!(&got.schema().names()[..2], &want[..], "columns for {tag}");
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    drop(client);
    handle.shutdown();
}

/// A client that sends a frame header and then stalls mid-payload must
/// not pin its reader thread: shutdown still completes.
#[test]
fn shutdown_completes_with_a_client_stalled_mid_frame() {
    use std::io::Write;
    let table = modular_table(1_000, &[5]);
    let handle = serve(table, ServerConfig::default());
    let addr = handle.local_addr();

    let mut stalled = std::net::TcpStream::connect(addr).unwrap();
    stalled.write_all(&100u32.to_le_bytes()).unwrap(); // frame claims 100 bytes...
    stalled.write_all(&[0u8; 10]).unwrap(); // ...but only 10 arrive
    stalled.flush().unwrap();
    thread::sleep(Duration::from_millis(50)); // let the reader enter the payload loop

    let done = thread::spawn(move || handle.shutdown());
    let start = std::time::Instant::now();
    while !done.is_finished() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "shutdown hung on a client stalled mid-frame"
        );
        thread::sleep(Duration::from_millis(20));
    }
    done.join().unwrap();
    drop(stalled);
}

#[test]
fn graceful_shutdown_drains_and_rejects_new_requests() {
    let table = modular_table(2_000, &[5, 8]);
    let handle = serve(
        table.clone(),
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            batch_window: None,
            default_deadline: None,
            ..ServerConfig::default()
        },
    );
    let addr = handle.local_addr();

    // An idle connected client must not block shutdown.
    let mut idle = Client::connect(addr).unwrap();
    idle.ping().unwrap();

    let mut client = Client::connect(addr).unwrap();
    let result = client.query("r", &["c0"], 0).unwrap();
    assert_result(&table, &["c0"], &result, "pre-shutdown query");

    handle.shutdown(); // joins every thread; hangs the test if draining breaks

    // The listener is gone: new connections or requests fail cleanly.
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.ping().is_err(),
    };
    assert!(refused, "server must stop serving after shutdown");
}

#[test]
fn shared_cache_serves_repeat_queries_across_connections() {
    let cards = [4usize, 9, 15];
    let table = modular_table(4_000, &cards);
    let session = Session::builder()
        .table("r", table.clone())
        .search(SearchConfig::pruned())
        .plan_cache(32)
        .mat_cache_budget_bytes(8 << 20)
        .build()
        .unwrap();
    let handle = Server::bind("127.0.0.1:0", session, ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    // First client warms the cache with the superset.
    let mut warmer = Client::connect(addr).unwrap();
    let warm = warmer.query("r", &["c0", "c1"], 0).unwrap();
    assert_result(&table, &["c0", "c1"], &warm, "warming query");

    // A different connection is served from the same cache — both the
    // exact repeat and a strict subset.
    let mut reader = Client::connect(addr).unwrap();
    let repeat = reader.query("r", &["c0", "c1"], 0).unwrap();
    assert_result(&table, &["c0", "c1"], &repeat, "warm repeat");
    let subset = reader.query("r", &["c1"], 0).unwrap();
    assert_result(&table, &["c1"], &subset, "subset of cached superset");

    let json = reader.stats().unwrap();
    assert!(
        stats_field(&json, "matcache_hits").unwrap() >= 2,
        "stats: {json}"
    );
    assert!(
        stats_field(&json, "matcache_entries").unwrap() >= 1,
        "stats: {json}"
    );
    assert!(
        stats_field(&json, "matcache_hit_pct").unwrap() > 0,
        "stats: {json}"
    );

    // Bypass must recompute — the hit counter stays flat.
    let hits_before = stats_field(&json, "matcache_hits").unwrap();
    let bypassed = reader
        .query_with("r", &["c0", "c1"], 0, CacheControl::Bypass)
        .unwrap();
    assert_result(&table, &["c0", "c1"], &bypassed, "bypass");
    let json = reader.stats().unwrap();
    assert_eq!(
        stats_field(&json, "matcache_hits").unwrap(),
        hits_before,
        "stats: {json}"
    );

    // Re-registering the table invalidates every cached aggregate.
    let table2 = modular_table(3_000, &cards);
    warmer.register_table("r", &table2).unwrap();
    let fresh = reader.query("r", &["c0", "c1"], 0).unwrap();
    assert_result(&table2, &["c0", "c1"], &fresh, "after replace");

    handle.shutdown();
}

#[test]
fn wire_append_refreshes_cached_aggregates() {
    let cards = [4usize, 9];
    let table = modular_table(4_000, &cards);
    let delta = modular_table(1_000, &cards);
    let session = Session::builder()
        .table("r", table.clone())
        .search(SearchConfig::pruned())
        .plan_cache(32)
        .mat_cache_budget_bytes(8 << 20)
        .build()
        .unwrap();
    let handle = Server::bind("127.0.0.1:0", session, ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // Warm the cache, then append rows over the wire.
    let warm = client.query("r", &["c0", "c1"], 0).unwrap();
    assert_result(&table, &["c0", "c1"], &warm, "warming query");
    client.append("r", &delta).unwrap();

    // The repeat query must reflect the appended rows; under the lazy
    // refresh policy the stale entry is delta-refreshed, not recomputed.
    let combined = Table::concat(&[&table, &delta]).unwrap();
    let after = client.query("r", &["c0", "c1"], 0).unwrap();
    assert_result(&combined, &["c0", "c1"], &after, "post-append query");

    let json = client.stats().unwrap();
    assert_eq!(stats_field(&json, "appends"), Some(1), "stats: {json}");
    assert_eq!(
        stats_field(&json, "appended_rows"),
        Some(1_000),
        "stats: {json}"
    );
    assert!(
        stats_field(&json, "delta_refreshes").unwrap() >= 1,
        "stats: {json}"
    );
    assert_eq!(
        stats_field(&json, "delta_fallbacks"),
        Some(0),
        "stats: {json}"
    );

    // A mismatched schema is the client's fault, not a server error.
    let bad = modular_table(10, &[4]);
    match client.append("r", &bad).unwrap_err() {
        ServerError::Remote {
            code: ErrorCode::BadRequest,
            ..
        } => {}
        other => panic!("expected BadRequest, got {other}"),
    }

    drop(client);
    handle.shutdown();
}

#[test]
fn streaming_large_result_arrives_in_bounded_chunks() {
    let table = modular_table(30_000, &[9_973]);
    let handle = serve(
        table.clone(),
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            chunk_rows: 512,
            chunk_bytes: 64 << 10,
            ..ServerConfig::default()
        },
    );
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();

    let mut chunks = 0u32;
    let mut rows = 0u64;
    {
        let mut stream = client.stream_query("r", &["c0"], 0).unwrap();
        for batch in &mut stream {
            let batch = batch.unwrap();
            assert_eq!(batch.set_tag, "c0");
            assert!(
                batch.rows.num_rows() <= 512,
                "chunk of {} rows exceeds the configured cap",
                batch.rows.num_rows()
            );
            chunks += 1;
            rows += batch.rows.num_rows() as u64;
        }
        let summary = stream.summary().expect("stream ends with a summary");
        assert_eq!(summary.total_chunks, chunks, "summary chunk count");
        assert_eq!(summary.total_rows, rows, "summary row count");
    }
    assert!(chunks > 1, "9973 groups over 512-row chunks must split");
    assert_eq!(rows, 9_973);

    // The collect-style API sees the same data reassembled.
    let got = client.query("r", &["c0"], 0).unwrap();
    assert_result(&table, &["c0"], &got, "collected stream");
    drop(client);
    handle.shutdown();
}

#[test]
fn abandoned_stream_leaves_the_connection_usable() {
    let table = modular_table(30_000, &[9_973, 7]);
    let handle = serve(
        table.clone(),
        ServerConfig {
            chunk_rows: 256,
            ..ServerConfig::default()
        },
    );
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();

    let mut stream = client.stream_query("r", &["c0"], 0).unwrap();
    let first = stream.next().unwrap().unwrap();
    assert!(first.rows.num_rows() > 0);
    drop(stream); // walk away mid-stream

    // Later traffic on the same connection drains the leftovers and
    // gets clean responses.
    let got = client.query("r", &["c1"], 0).unwrap();
    assert_result(&table, &["c1"], &got, "query after abandoned stream");
    drop(client);
    handle.shutdown();
}

#[test]
fn lz4_negotiation_and_compressed_results_roundtrip() {
    let table = modular_table(20_000, &[4_001, 7]);
    let handle = serve(table.clone(), ServerConfig::default());
    let addr = handle.local_addr();

    let mut plain = Client::connect(addr).unwrap();
    assert_eq!(plain.negotiated_features(), 0, "compression is opt-in");
    let mut lz = Client::connect_with(addr, ClientOptions { compress: true }).unwrap();
    assert_eq!(
        lz.negotiated_features() & FEATURE_LZ4,
        FEATURE_LZ4,
        "server accepts the offered feature"
    );

    let a = plain.query("r", &["c0"], 0).unwrap();
    let b = lz.query("r", &["c0"], 0).unwrap();
    assert_eq!(
        normalize(&a, &["c0"]),
        normalize(&b, &["c0"]),
        "compressed and plain connections agree"
    );
    drop((plain, lz));
    handle.shutdown();
}

/// Read one length-prefixed frame off a raw socket.
fn read_raw_frame(sock: &mut std::net::TcpStream) -> Vec<u8> {
    use std::io::Read;
    let mut len = [0u8; 4];
    sock.read_exact(&mut len).unwrap();
    let mut frame = len.to_vec();
    frame.resize(4 + u32::from_le_bytes(len) as usize, 0);
    sock.read_exact(&mut frame[4..]).unwrap();
    frame
}

fn raw_frame(version: u8, flags: u8, request_id: u64, opcode: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = vec![version, flags];
    payload.extend_from_slice(&request_id.to_le_bytes());
    payload.push(opcode);
    payload.extend_from_slice(body);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

#[test]
fn unknown_version_gets_unsupported_and_a_hangup() {
    use std::io::{Read, Write};
    let table = modular_table(1_000, &[5]);
    let handle = serve(table, ServerConfig::default());
    let addr = handle.local_addr();

    let mut sock = std::net::TcpStream::connect(addr).unwrap();
    sock.write_all(&raw_frame(0x7F, 0, 42, 0x00, &[])).unwrap();
    let frame = read_raw_frame(&mut sock);
    let (rid, resp) = gbmqo_server::protocol::decode_response(&frame, 0).unwrap();
    assert_eq!(rid, 0, "nothing after a bad version byte can be trusted");
    match resp {
        gbmqo_server::Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Unsupported);
            assert!(message.contains("version"), "{message}");
        }
        other => panic!("expected Unsupported error, got {other:?}"),
    }
    // ... and the connection is closed.
    let mut rest = Vec::new();
    sock.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no garbage after the error frame");
    handle.shutdown();
}

#[test]
fn unknown_flag_bits_get_unsupported_but_keep_the_connection() {
    use std::io::Write;
    let table = modular_table(1_000, &[5]);
    let handle = serve(table, ServerConfig::default());
    let addr = handle.local_addr();

    let mut sock = std::net::TcpStream::connect(addr).unwrap();
    // Valid version, undefined flag bit: the header parses, so the
    // error echoes the real request id and the connection survives.
    sock.write_all(&raw_frame(
        gbmqo_server::PROTOCOL_VERSION,
        0x80,
        7,
        0x00,
        &[],
    ))
    .unwrap();
    let frame = read_raw_frame(&mut sock);
    let (rid, resp) = gbmqo_server::protocol::decode_response(&frame, 0).unwrap();
    assert_eq!(rid, 7, "the parsed request id is echoed");
    match resp {
        gbmqo_server::Response::Error { code, .. } => {
            assert_eq!(code, ErrorCode::Unsupported)
        }
        other => panic!("expected Unsupported error, got {other:?}"),
    }
    // A well-formed ping on the same socket still works.
    sock.write_all(&raw_frame(gbmqo_server::PROTOCOL_VERSION, 0, 8, 0x00, &[]))
        .unwrap();
    let frame = read_raw_frame(&mut sock);
    let (rid, resp) = gbmqo_server::protocol::decode_response(&frame, 0).unwrap();
    assert_eq!(rid, 8);
    assert!(matches!(resp, gbmqo_server::Response::Pong));
    handle.shutdown();
}

#[test]
fn compressed_frame_without_negotiation_is_rejected() {
    use std::io::Write;
    let table = modular_table(1_000, &[5]);
    let handle = serve(table, ServerConfig::default());
    let addr = handle.local_addr();

    let mut sock = std::net::TcpStream::connect(addr).unwrap();
    // FLAG_COMPRESSED (0x01) without a Hello that negotiated it.
    sock.write_all(&raw_frame(
        gbmqo_server::PROTOCOL_VERSION,
        0x01,
        9,
        0x00,
        &[0, 0, 0, 0],
    ))
    .unwrap();
    let frame = read_raw_frame(&mut sock);
    let (rid, resp) = gbmqo_server::protocol::decode_response(&frame, 0).unwrap();
    assert_eq!(rid, 9);
    match resp {
        gbmqo_server::Response::Error { code, .. } => {
            assert_eq!(code, ErrorCode::Unsupported)
        }
        other => panic!("expected Unsupported error, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn oversized_declared_length_closes_the_connection() {
    use std::io::{Read, Write};
    let table = modular_table(1_000, &[5]);
    let handle = serve(table, ServerConfig::default());
    let addr = handle.local_addr();

    let mut sock = std::net::TcpStream::connect(addr).unwrap();
    sock.write_all(&u32::MAX.to_le_bytes()).unwrap();
    // The server must hang up rather than try to buffer 4 GiB.
    let mut buf = Vec::new();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let got = sock.read_to_end(&mut buf);
    assert!(
        got.is_ok(),
        "connection should be closed cleanly, not left hanging"
    );
    handle.shutdown();
}
