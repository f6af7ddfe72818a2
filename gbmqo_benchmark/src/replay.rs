//! The traced replay: where a request's time goes, layer by layer.
//!
//! The end-to-end numbers come from the wire with tracing off. This module
//! gives the per-layer numbers: it replays the first requests of the same
//! script in-process and single-threaded against an identically built
//! [`Session`], making the calls `server.rs` makes for each opcode in the
//! order it makes them — decode, compile, run, encode chunks — plus the
//! client's encode and decode, and wraps each call into a layer's *public*
//! function in a [`Span`](crate::trace::Span). Nothing inside the other
//! crates is instrumented. Counts come from the public outputs of those
//! calls (`SearchStats`, `ExecMetrics`, cache statistics); single-threaded
//! and seeded, they repeat exactly.
//!
//! A second, cache-less session splits `run_workload` into `Session::plan`
//! and `Session::run_plan` for the requests whose search or execution ran.

use crate::script::{Kind, Op, Script, CLIENTS};
use crate::setup::{build_session, server_config, Data};
use crate::trace::Trace;
use gbmqo_core::prelude::*;
use gbmqo_core::{CacheStats, ColSet, MatCacheStats};
use gbmqo_exec::{group_by_with_strategy, AggSpec, ExecMetrics, GroupByStrategy};
use gbmqo_server::codec::{self, Cursor};
use gbmqo_server::protocol::{self, Request, Response};
use gbmqo_server::{compress, FEATURE_LZ4};
use gbmqo_sqlfe::LoweredQuery;
use gbmqo_storage::{select_shard_key, split_table, Catalog, Table};
use std::time::{Duration, Instant};

/// What the replay learned about one request.
#[derive(Debug, Default, Clone)]
pub struct Record {
    /// Sent before the measured part of the script.
    pub warmup: bool,
    /// An `Append`.
    pub append: bool,
    /// Grouping sets requested.
    pub sets: u64,
    /// Search statistics of the replayed `run_workload`.
    pub search: SearchStats,
    /// Execution metrics of the replayed `run_workload`.
    pub metrics: ExecMetrics,
    /// `Session::run_workload` (or `Session::append`) time.
    pub serve_ns: u64,
    /// Sum of the request's top-level spans.
    pub covered_ns: u64,
    /// `Session::plan` on the cache-less session, when the search ran.
    pub plan_ns: Option<u64>,
    /// Cost-model calls of that plan.
    pub plan_calls: u64,
    /// `Session::run_plan` on the cache-less session, when a plan ran.
    pub execute_ns: Option<u64>,
    /// Result rows.
    pub rows: u64,
    /// Bytes of the encoded chunk frames.
    pub wire_bytes: u64,
    /// Probe: the chunk bodies, uncompressed.
    pub raw_bytes: u64,
    /// Probe: `codec::put_table_slice` over the chunks.
    pub encode_ns: u64,
    /// Probe: `codec::get_table` over the chunks.
    pub decode_ns: u64,
    /// Probe: `compress::compress` over the chunk bodies (LZ4 only).
    pub compress_ns: u64,
    /// Probe: `compress::decompress` of the same blocks.
    pub decompress_ns: u64,
    /// Probe: bytes of the compressed blocks.
    pub packed_bytes: u64,
}

impl Record {
    /// The merge search ran (not a plan-cache hit, not fully covered).
    pub fn searched(&self) -> bool {
        !self.search.cache_hit && self.search.naive_cost > 0.0
    }

    /// Some requested set was not served from the aggregate cache.
    fn planned(&self) -> bool {
        self.search.cache_hit || self.search.naive_cost > 0.0
    }
}

/// Everything the traced replay produced.
#[derive(Debug)]
pub struct Replay {
    /// Spans of the measured requests.
    pub trace: Trace,
    /// One record per request, warm-up first.
    pub records: Vec<Record>,
    /// Plan-cache activity over the measured requests.
    pub plan_cache: CacheStats,
    /// Aggregate-cache activity over the measured requests.
    pub mat_cache: MatCacheStats,
    /// Aggregate-cache bytes held at the end.
    pub resident_bytes: u64,
}

struct Replayer<'a> {
    script: Script,
    data: &'a Data,
    features: u32,
    /// Built exactly as the server's.
    session: Session,
    /// Same data, no plan cache, no aggregate cache.
    cold: Session,
}

/// Replay the warm-up of every client, then the first `count` measured
/// requests of client 0 — the requests the one-client wire window sent, so
/// wire latency and replayed spans describe the same work — stopping
/// early once `budget` is spent.
pub fn replay(script: Script, data: &Data, count: usize, budget: Duration) -> Replay {
    let kind = script.kind;
    let cold = Session::builder()
        .search(SearchConfig::pruned())
        .plan_cache(0)
        .shards(kind.shards())
        .table(kind.table(), data.base.clone())
        .build()
        .expect("cache-less session builds");
    let mut r = Replayer {
        script,
        data,
        features: if kind.compress() { FEATURE_LZ4 } else { 0 },
        session: build_session(kind, &data.base),
        cold,
    };
    let mut records = Vec::new();
    let warmup = script.scale.warmup_ops(kind);
    let mut scratch = Trace::new();
    for index in 0..warmup {
        for client in 0..CLIENTS {
            let mut record = r.one(&mut scratch, 0, &script.op(client, index));
            record.warmup = true;
            records.push(record);
        }
    }
    let plan_before = r.session.cache_stats();
    let mat_before = r.session.mat_cache_stats();
    let mut trace = Trace::new();
    let started = Instant::now();
    for request in 0..count {
        if started.elapsed() > budget {
            break;
        }
        let op = script.op(0, warmup + request as u64);
        records.push(r.one(&mut trace, request as u64, &op));
    }
    let (plan_after, mat_after) = (r.session.cache_stats(), r.session.mat_cache_stats());
    Replay {
        trace,
        records,
        plan_cache: CacheStats {
            hits: plan_after.hits - plan_before.hits,
            misses: plan_after.misses - plan_before.misses,
            ..plan_after
        },
        mat_cache: MatCacheStats {
            hits: mat_after.hits - mat_before.hits,
            misses: mat_after.misses - mat_before.misses,
            evictions: mat_after.evictions - mat_before.evictions,
            ..mat_after
        },
        resident_bytes: mat_after.bytes,
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as u64)
}

impl Replayer<'_> {
    /// Replay one request end to end; spans go to `trace`.
    fn one(&mut self, trace: &mut Trace, request: u64, op: &Op) -> Record {
        let table_name = self.script.kind.table();
        let features = self.features;
        let wire_request = self.script.request(op, &self.data.deltas);
        let mut record = Record {
            append: op.is_append(),
            sets: op.set_count() as u64,
            ..Record::default()
        };

        let root = trace.enter("request", request);
        let frame = trace.call("protocol.encode_request", request, || {
            protocol::encode_request(request + 1, &wire_request, features)
        });
        let (id, decoded) = trace
            .call("protocol.decode_request", request, || {
                protocol::decode_request(&frame, features)
            })
            .expect("own frame decodes");

        // server.rs: `run_sql` / `run_workload` / the append arm of
        // `process_job`, minus the lock and the deadline token.
        let mut workload = None;
        let mut results: Vec<(String, Table)> = Vec::new();
        match decoded {
            Request::Append { name, rows } => {
                trace
                    .call("core.append", request, || self.session.append(&name, rows))
                    .expect("scripted append applies");
                record.serve_ns = trace.last_ns();
            }
            Request::SqlQuery { sql, cache, .. } => {
                let query = trace
                    .call("sqlfe.parse", request, || gbmqo_sqlfe::parse(&sql))
                    .expect("scripted statement parses");
                let catalog = self.session.engine().catalog();
                let bound = trace
                    .call("sqlfe.bind", request, || gbmqo_sqlfe::bind(&query, catalog))
                    .expect("scripted statement binds");
                let lowered = trace
                    .call("sqlfe.lower", request, || {
                        gbmqo_sqlfe::lower(&bound, catalog)
                    })
                    .expect("scripted statement lowers");
                let LoweredQuery::Workload { workload: w, sets } = lowered else {
                    panic!("scripted statements are single-table and unfiltered");
                };
                // `sqlfe::execute`, spelled out so the search statistics
                // it drops stay readable: run, then tag in statement order.
                let by_set = self.run_workload(trace, request, &mut record, &w, cache);
                results = sets
                    .iter()
                    .map(|set| {
                        let (_, table) = by_set
                            .iter()
                            .find(|(cols, _)| {
                                let got = w.col_names(*cols);
                                got.len() == set.len()
                                    && set.iter().all(|n| got.contains(&n.as_str()))
                            })
                            .expect("one result per set");
                        (set.join(","), table.clone())
                    })
                    .collect();
                workload = Some(w);
            }
            Request::SubmitWorkload {
                table,
                universe,
                requests,
                cache,
                ..
            } => {
                (workload, results) = self.run(
                    trace,
                    request,
                    &mut record,
                    &table,
                    &universe,
                    &requests,
                    cache,
                );
            }
            Request::Query {
                table,
                group_cols,
                cache,
                ..
            } => {
                // Batching is off, so `admit` turns a Query into a
                // one-set workload.
                let requests = vec![group_cols.clone()];
                (workload, results) = self.run(
                    trace,
                    request,
                    &mut record,
                    &table,
                    &group_cols,
                    &requests,
                    cache,
                );
            }
            other => panic!("the script never sends {other:?}"),
        }

        // server.rs `stream_results`, then the client's decode.
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut slices: Vec<(usize, u32, bool, usize, usize)> = Vec::new();
        let config = server_config();
        if record.append {
            frames.push(trace.call("server.encode_reply", request, || {
                protocol::encode_response(id, &Response::Ack, features)
            }));
        } else {
            let (mut chunks, mut rows) = (0u32, 0u64);
            for (set, (tag, table)) in results.iter().enumerate() {
                let (mut start, mut index, mut cap) = (0usize, 0u32, config.chunk_rows);
                loop {
                    let end = (start + cap).min(table.num_rows());
                    let last = end == table.num_rows();
                    let frame = trace.call("server.encode_chunk", request, || {
                        protocol::encode_chunk_frame(
                            id, tag, index, last, table, start, end, features,
                        )
                    });
                    if frame.len() > config.chunk_bytes && end - start > 1 {
                        cap = ((end - start) / 2).max(1);
                        continue;
                    }
                    slices.push((set, index, last, start, end));
                    record.wire_bytes += frame.len() as u64;
                    frames.push(frame);
                    chunks += 1;
                    rows += (end - start) as u64;
                    index += 1;
                    start = end;
                    if last {
                        break;
                    }
                }
            }
            record.rows = rows;
            let finish = Response::Finish {
                total_chunks: chunks,
                total_rows: rows,
                metrics_json: record.metrics.to_json(),
            };
            frames.push(trace.call("server.encode_reply", request, || {
                protocol::encode_response(id, &finish, features)
            }));
        }
        for frame in &frames {
            trace
                .call("client.decode_reply", request, || {
                    protocol::decode_response(frame, features)
                })
                .expect("own frame decodes");
        }
        trace.exit(root);
        record.covered_ns = trace.spans[root + 1..]
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.duration_ns())
            .sum();
        for (set, index, last, start, end) in slices {
            let (tag, table) = &results[set];
            self.probe_chunk(&mut record, tag, index, last, table, start, end);
        }

        // The plan / execute split on the cache-less session.
        if let Some(w) = &workload {
            if record.planned() {
                let ((plan, stats), plan_ns) =
                    timed(|| self.cold.plan(w).expect("cache-less plan"));
                if record.searched() {
                    record.plan_ns = Some(plan_ns);
                    record.plan_calls = stats.optimizer_calls;
                }
                let (report, execute_ns) = timed(|| self.cold.run_plan(&plan, w));
                report.expect("cache-less execution");
                record.execute_ns = Some(execute_ns);
            }
        } else if let Op::Append(i) = op {
            // Keep the cache-less session's table in step.
            self.cold
                .append(table_name, self.data.deltas[*i].clone())
                .expect("scripted append applies");
        }
        record
    }

    /// `Session::run_workload` under a span; its statistics go to `record`.
    fn run_workload(
        &mut self,
        trace: &mut Trace,
        request: u64,
        record: &mut Record,
        workload: &Workload,
        cache: CacheControl,
    ) -> Vec<(ColSet, Table)> {
        let out = trace
            .call("core.run_workload", request, || {
                self.session.run_workload(workload, cache)
            })
            .expect("scripted workload executes");
        record.serve_ns = trace.last_ns();
        record.search = out.stats;
        record.metrics = out.report.metrics;
        out.report.results
    }

    /// server.rs `run_workload`: build the workload from the request's
    /// column names, then optimize and execute it.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        trace: &mut Trace,
        request: u64,
        record: &mut Record,
        table: &str,
        universe: &[String],
        requests: &[Vec<String>],
        cache: CacheControl,
    ) -> (Option<Workload>, Vec<(String, Table)>) {
        let workload = trace
            .call("core.workload_new", request, || {
                let base = self.session.engine().catalog().table(table)?.clone();
                let universe: Vec<&str> = universe.iter().map(String::as_str).collect();
                let requests: Vec<Vec<&str>> = requests
                    .iter()
                    .map(|r| r.iter().map(String::as_str).collect())
                    .collect();
                Workload::new(table, &base, &universe, &requests)
            })
            .expect("scripted workload is valid");
        let results = self
            .run_workload(trace, request, record, &workload, cache)
            .into_iter()
            .map(|(set, t)| (workload.col_names(set).join(","), t))
            .collect();
        (Some(workload), results)
    }

    /// Time the codec and the compressor on one chunk by calling them
    /// directly: `encode_chunk_frame` and `decode_response` run both
    /// inside one call, so their split needs its own measurement.
    #[allow(clippy::too_many_arguments)]
    fn probe_chunk(
        &self,
        record: &mut Record,
        tag: &str,
        index: u32,
        last: bool,
        table: &Table,
        start: usize,
        end: usize,
    ) {
        let mut body = Vec::new();
        codec::put_str(&mut body, tag);
        codec::put_u32(&mut body, index);
        body.push(last as u8);
        let header = body.len();
        let ((), ns) = timed(|| codec::put_table_slice(&mut body, table, start, end));
        record.encode_ns += ns;
        record.raw_bytes += body.len() as u64;
        let (decoded, ns) = timed(|| codec::get_table(&mut Cursor::new(&body[header..])));
        decoded.expect("own chunk decodes");
        record.decode_ns += ns;
        if self.features & FEATURE_LZ4 != 0 {
            let (packed, ns) = timed(|| compress::compress(&body));
            record.compress_ns += ns;
            record.packed_bytes += packed.len() as u64;
            let (raw, ns) = timed(|| compress::decompress(&packed, body.len()));
            raw.expect("own block expands");
            record.decompress_ns += ns;
        } else {
            record.packed_bytes += body.len() as u64;
        }
    }
}

/// Direct probes of single layers, outside any request.
#[derive(Debug, Default)]
pub struct Probes {
    /// `group_by_with_strategy`, few groups: ns per input row.
    pub kernel_low_ns_per_row: f64,
    /// `group_by_with_strategy`, about one group per few rows.
    pub kernel_high_ns_per_row: f64,
    /// `Catalog::append` of one delta onto the base table.
    pub storage_append_us: f64,
    /// `split_table` into the session's shards (0 when unsharded).
    pub shard_split_us: f64,
}

fn median_of(mut samples: Vec<u64>) -> f64 {
    samples.sort_unstable();
    samples.get(samples.len() / 2).map_or(0.0, |v| *v as f64)
}

/// Run the layer probes on `kind`'s base table.
pub fn probes(kind: Kind, data: &Data) -> Probes {
    // Two fixed column sets per table: a handful of groups, and the
    // widest key the table's workload groups by.
    let (low, high): (&[&str], &[&str]) = match kind.table() {
        "lineitem" => (
            &["l_returnflag", "l_linestatus"],
            &["l_partkey", "l_suppkey"],
        ),
        _ => (&["channel", "promo"], &["prod_key", "store_key"]),
    };
    let kernel = |cols: &[&str]| {
        let ordinals: Vec<usize> = cols
            .iter()
            .map(|c| data.base.schema().index_of(c).expect("probe column exists"))
            .collect();
        let runs = (0..3)
            .map(|_| {
                timed(|| {
                    group_by_with_strategy(
                        &data.base,
                        &ordinals,
                        &[AggSpec::count()],
                        None,
                        GroupByStrategy::Auto,
                        1,
                        None,
                        None,
                        &mut ExecMetrics::new(),
                    )
                    .expect("probe group-by runs")
                })
                .1
            })
            .collect();
        median_of(runs) / data.base.num_rows() as f64
    };
    let delta = match data.deltas.first() {
        Some(delta) => delta.clone(),
        None => data
            .base
            .slice_rows(0, data.base.num_rows().min(2_000))
            .expect("slice within table"),
    };
    let appends = (0..3)
        .map(|_| {
            let mut catalog = Catalog::new();
            catalog
                .register(kind.table(), data.base.clone())
                .expect("fresh catalog");
            timed(|| catalog.append(kind.table(), delta.clone()).expect("append")).1
        })
        .collect();
    let shard_split_us = if kind.shards() > 1 {
        let key = select_shard_key(&data.base).expect("table has columns");
        timed(|| split_table(&data.base, &[key], kind.shards()).expect("split")).1 as f64 / 1e3
    } else {
        0.0
    };
    Probes {
        kernel_low_ns_per_row: kernel(low),
        kernel_high_ns_per_row: kernel(high),
        storage_append_us: median_of(appends) / 1e3,
        shard_split_us,
    }
}
