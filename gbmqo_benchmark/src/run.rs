//! One benchmark run: set up, load, check, and turn samples into metrics.
//!
//! [`end_to_end`] measures what a client sees, with no tracing anywhere.
//! [`traced`] is the separate per-layer run: a one-client and a two-client
//! wire window (for the wire latency the layers must sum to, and for how
//! throughput scales with clients), then the in-process traced replay and
//! the single-layer probes.

use crate::check::{compare, Reference, Reply};
use crate::load::{self, Conn, Seen, Until, Window};
use crate::replay::{self, Probes, Record, Replay};
use crate::script::{Kind, Op, Script, CLIENTS, STATEMENTS};
use crate::setup::Bench;
use crate::stats::{median, percentile};
use gbmqo_server::stats_field;
use gbmqo_storage::Table;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median, so one slow
/// page-fault storm does not decide it.
pub const SETUP_REPEATS: usize = 5;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (requests, runs, or 1 for a gauge).
    pub samples: u64,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Run {
    /// The metrics the run's mode declares (`end_to_end` or `per_layer`).
    pub metrics: Vec<Metric>,
    /// Printed beside them; not part of `BENCHMARK.json`.
    pub diagnostics: Vec<Metric>,
    /// Requests sent, warm-up and checks included.
    pub attempted: u64,
    /// Requests that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Base-table rows.
    pub rows: usize,
    /// Hash of the generated script.
    pub script_hash: u64,
}

impl Run {
    fn absorb(&mut self, window: &Window) {
        self.attempted += window.attempted;
        self.failed += window.failed;
        self.failures.extend(window.failures.iter().cloned());
        self.failures.truncate(5);
    }

    fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Generate, build, bind, connect and warm up.
fn set_up(script: Script) -> (Bench, Vec<Conn>, Window) {
    let bench = Bench::start(script);
    let mut conns: Vec<Conn> = (0..CLIENTS)
        .map(|id| Conn::open(script.kind, bench.server.local_addr(), id))
        .collect();
    let warmup = Until::Count(script.scale.warmup_ops(script.kind));
    let window = load::run(&bench, &mut conns, warmup, None);
    (bench, conns, window)
}

/// Check the kept first occurrences against the naive reference.
fn check_kept(run: &mut Run, kind: Kind, base: &Table, kept: &[(Op, Reply)]) {
    let mut reference = Reference::new(kind, base.clone());
    for (op, reply) in kept {
        if let Err(e) = compare(reply, &reference.answer(op)) {
            run.mismatch(format!("{op:?}: {e}"));
        }
    }
}

/// `ingest_refresh`: after all appends, every statement once more, against
/// the naive plan over the base plus every appended delta.
fn check_final_state(run: &mut Run, bench: &Bench, conns: &mut [Conn]) {
    let script = &bench.script;
    let mut parts: Vec<&Table> = vec![&bench.data.base];
    for conn in conns.iter() {
        for index in 0..conn.next {
            if let Op::Append(i) = script.op(conn.id, index) {
                parts.push(&bench.data.deltas[i]);
            }
        }
    }
    let all = Table::concat(&parts).expect("deltas share the base schema");
    let mut reference = Reference::new(script.kind, all);
    for statement in 0..STATEMENTS.len() {
        let op = Op::Sql(statement);
        run.attempted += 1;
        let checked = load::read_once(&mut conns[0], bench, &op)
            .and_then(|reply| compare(&reply, &reference.answer(&op)));
        if let Err(e) = checked {
            run.mismatch(format!("final state, {op:?}: {e}"));
        }
    }
}

/// The end-to-end run: tracing off, `seconds` of closed-loop load from
/// [`CLIENTS`] clients, replies checked outside the timed window.
pub fn end_to_end(script: Script, seconds: f64) -> Run {
    let mut run = Run::default();
    let mut setups = Vec::new();
    let mut live: Option<(Bench, Vec<Conn>, Window)> = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous set-up down first: two live copies would
        // double the peak memory.
        if let Some((bench, conns, _)) = live.take() {
            drop(conns);
            bench.shutdown();
        }
        let started = Instant::now();
        live = Some(set_up(script));
        setups.push(started.elapsed().as_secs_f64());
    }
    let (bench, mut conns, warmup) = live.expect("at least one set-up");
    run.absorb(&warmup);
    run.rows = bench.data.base.num_rows();
    run.script_hash = script.hash(&bench.data.deltas);

    // Appends change the answers under the readers, so `ingest_refresh`
    // checks its final state instead of first occurrences.
    let seen = Seen::default();
    let keep = (script.kind != Kind::IngestRefresh).then_some(&seen);
    let window = load::run(
        &bench,
        &mut conns,
        Until::Time(Duration::from_secs_f64(seconds)),
        keep,
    );
    let peak_rss = peak_rss_mb();
    run.absorb(&window);

    check_kept(&mut run, script.kind, &bench.data.base, &window.kept);
    if script.kind == Kind::IngestRefresh {
        check_final_state(&mut run, &bench, &mut conns);
    }
    drop(conns);
    let build_s = bench.build_s;
    bench.shutdown();

    // Rates and percentiles come from the quiet quarter of the window.
    let quiet = window.quiet(seconds);
    let quiet_ms = quiet.read_ms();
    let quiet_reads = quiet_ms.len() as u64;
    let quiet_rows: u64 = quiet.samples.iter().map(|s| s.rows).sum();
    let read_ms = window.read_ms();
    let reads = read_ms.len() as u64;
    run.metrics = vec![
        metric("setup_s", median(&setups), "s", SETUP_REPEATS as u64),
        metric(
            "throughput_rps",
            quiet.rate(quiet.samples.len() as f64),
            "1/s",
            quiet.samples.len() as u64,
        ),
        metric("latency_p50_ms", median(&quiet_ms), "ms", quiet_reads),
        metric(
            "latency_p95_ms",
            percentile(&quiet_ms, 0.95),
            "ms",
            quiet_reads,
        ),
        metric(
            "result_rows_per_s",
            quiet.rate(quiet_rows as f64),
            "rows/s",
            quiet_rows,
        ),
        metric("peak_rss_mb", peak_rss, "MiB", 1),
    ];
    let append_ms = window.append_ms();
    run.diagnostics = vec![
        metric(
            "client.throughput_whole_rps",
            window.throughput(),
            "1/s",
            reads,
        ),
        metric("client.latency_whole_p50_ms", median(&read_ms), "ms", reads),
        metric(
            "client.latency_whole_p95_ms",
            percentile(&read_ms, 0.95),
            "ms",
            reads,
        ),
        metric(
            "client.latency_p99_ms",
            percentile(&read_ms, 0.99),
            "ms",
            reads,
        ),
        metric(
            "client.latency_max_ms",
            percentile(&read_ms, 1.0),
            "ms",
            reads,
        ),
        metric(
            "client.append_latency_p50_ms",
            median(&append_ms),
            "ms",
            append_ms.len() as u64,
        ),
        metric("client.measured_s", window.wall_s, "s", 1),
        metric("client.quiet_s", quiet.span_s, "s", 1),
        metric(
            "client.checked_replies",
            window.kept.len() as f64,
            "count",
            1,
        ),
        metric("setup.build_s", build_s, "s", 1),
    ];
    run
}

/// The traced run: per-layer metrics.
pub fn traced(script: Script, seconds: f64, trace_out: Option<&Path>) -> Run {
    let mut run = Run::default();
    let (bench, mut conns, warmup) = set_up(script);
    run.absorb(&warmup);
    run.rows = bench.data.base.num_rows();
    run.script_hash = script.hash(&bench.data.deltas);

    let share = Duration::from_secs_f64(seconds * 0.3);
    let before = conns[0].stats();
    let one = load::run(&bench, &mut conns[..1], Until::Time(share), None);
    let two = load::run(&bench, &mut conns, Until::Time(share), None);
    let after = conns[0].stats();
    run.absorb(&one);
    run.absorb(&two);
    drop(conns);
    let data = bench.shutdown();

    // Replay what the one-client window sent, and take the wire latency
    // over those same requests, so the two are like for like.
    let replay = replay::replay(
        script,
        &data,
        (one.attempted as usize).min(script.scale.replay_requests(script.kind)),
        Duration::from_secs_f64(seconds * 0.4),
    );
    let warmup = script.scale.warmup_ops(script.kind);
    let replayed = replay.records.iter().filter(|r| !r.warmup).count() as u64;
    let wire_reads = (0..replayed)
        .filter(|k| !script.op(0, warmup + k).is_append())
        .count();
    let one_reads = one.read_ms();
    let wire_p50_us = median(&one_reads[..wire_reads.min(one_reads.len())]) * 1e3;
    let probes = replay::probes(script.kind, &data);
    let wire = |key: &str| {
        stats_field(&after, key).unwrap_or(0) as f64 - stats_field(&before, key).unwrap_or(0) as f64
    };
    let window_reads = (one_reads.len() + two.read_ms().len()).max(1) as f64;
    run.metrics = layer_metrics(script.kind, &replay, &probes, wire_p50_us, &one, &two);
    run.metrics.extend([
        metric(
            "server.busy_rejections",
            wire("busy_rejections"),
            "count",
            1,
        ),
        metric("server.timeouts", wire("timeouts"), "count", 1),
        metric(
            "server.streamed_chunks",
            wire("streamed_chunks") / window_reads,
            "count/req",
            window_reads as u64,
        ),
        metric(
            "server.outbound_peak_bytes",
            stats_field(&after, "outbound_peak_bytes").unwrap_or(0) as f64,
            "bytes",
            1,
        ),
    ]);
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, replay.trace.to_json()) {
            run.mismatch(format!("writing {}: {e}", path.display()));
        }
    }
    run
}

/// Per-request medians, means and ratios over the replay's records.
fn layer_metrics(
    kind: Kind,
    replay: &Replay,
    probes: &Probes,
    wire_p50_us: f64,
    one: &Window,
    two: &Window,
) -> Vec<Metric> {
    let measured: Vec<&Record> = replay.records.iter().filter(|r| !r.warmup).collect();
    let reads: Vec<&Record> = measured.iter().copied().filter(|r| !r.append).collect();
    let n = reads.len().max(1) as f64;
    let us = |ns: Vec<u64>| -> (f64, u64) {
        let samples: Vec<f64> = ns.iter().map(|v| *v as f64 / 1e3).collect();
        (median(&samples), samples.len() as u64)
    };
    let span = |name: &'static str, span_name: &str| {
        let (value, samples) = us(replay.trace.per_request_ns(span_name));
        metric(name, value, "us", samples)
    };
    let picked = |name: &'static str, pick: &dyn Fn(&Record) -> Option<u64>| {
        let (value, samples) = us(reads.iter().filter_map(|r| pick(r)).collect());
        metric(name, value, "us", samples)
    };
    let mean = |name: &'static str, pick: &dyn Fn(&Record) -> u64| {
        let total: u64 = reads.iter().map(|r| pick(r)).sum();
        metric(name, total as f64 / n, "count/req", reads.len() as u64)
    };
    let total = |pick: &dyn Fn(&Record) -> u64| reads.iter().map(|r| pick(r)).sum::<u64>() as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let searched: Vec<&Record> = reads.iter().copied().filter(|r| r.searched()).collect();
    let plan_ns: u64 = searched.iter().filter_map(|r| r.plan_ns).sum();
    let plan_calls: u64 = searched.iter().map(|r| r.plan_calls).sum();
    // A full miss on a session with the aggregate cache on: the first
    // pass of the warm-up, before anything is cached.
    let miss_overhead = us(replay
        .records
        .iter()
        .filter(|r| kind.cache_mb() > 0 && r.searched() && r.metrics.matcache_hits == 0)
        .filter_map(|r| Some(r.serve_ns.saturating_sub(r.plan_ns? + r.execute_ns?)))
        .collect());

    let covered_us = median(
        &reads
            .iter()
            .map(|r| r.covered_ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let lookups = (replay.mat_cache.hits + replay.mat_cache.misses) as f64;
    let plan_lookups = (replay.plan_cache.hits + replay.plan_cache.misses) as f64;
    let packed = total(&|r| r.metrics.packed_key_rows);
    let append_ms = two.append_ms();
    let encode_ns = total(&|r| r.encode_ns);

    vec![
        span("protocol.encode_request_us", "protocol.encode_request"),
        span("protocol.decode_request_us", "protocol.decode_request"),
        span("sqlfe.parse_us", "sqlfe.parse"),
        span("sqlfe.bind_us", "sqlfe.bind"),
        span("sqlfe.lower_us", "sqlfe.lower"),
        span("core.run_workload_us", "core.run_workload"),
        span("core.append_us", "core.append"),
        metric(
            "plancache.hit_pct",
            100.0 * ratio(replay.plan_cache.hits as f64, plan_lookups),
            "pct",
            plan_lookups as u64,
        ),
        mean("greedy.optimizer_calls", &|r| r.search.optimizer_calls),
        mean("greedy.merges_evaluated", &|r| r.search.merges_evaluated),
        mean("greedy.pruned_pairs", &|r| {
            r.search.pruned_subsumption + r.search.pruned_monotonicity + r.search.pruned_benefit
        }),
        metric(
            "greedy.cost_vs_naive",
            ratio(
                searched.iter().map(|r| r.search.final_cost).sum(),
                searched.iter().map(|r| r.search.naive_cost).sum(),
            ),
            "ratio",
            searched.len() as u64,
        ),
        picked("core.plan_us", &|r| r.plan_ns),
        metric(
            "cost.call_us",
            ratio(plan_ns as f64 / 1e3, plan_calls as f64),
            "us",
            plan_calls,
        ),
        picked("core.execute_us", &|r| r.execute_ns),
        mean("exec.queries_executed", &|r| r.metrics.queries_executed),
        mean("exec.tables_materialized", &|r| {
            r.metrics.tables_materialized
        }),
        picked("exec.operator_us", &|r| Some(r.metrics.elapsed_nanos)),
        mean("exec.rows_scanned", &|r| r.metrics.rows_scanned),
        metric(
            "exec.rows_scanned_per_result_row",
            ratio(total(&|r| r.metrics.rows_scanned), total(&|r| r.rows)),
            "ratio",
            reads.len() as u64,
        ),
        metric(
            "exec.packed_key_share",
            ratio(packed, packed + total(&|r| r.metrics.fallback_key_rows)),
            "ratio",
            reads.len() as u64,
        ),
        mean("exec.hash_resizes", &|r| r.metrics.hash_resizes),
        metric(
            "exec.kernel_low_card_ns_per_row",
            probes.kernel_low_ns_per_row,
            "ns/row",
            3,
        ),
        metric(
            "exec.kernel_high_card_ns_per_row",
            probes.kernel_high_ns_per_row,
            "ns/row",
            3,
        ),
        metric(
            "matcache.hit_pct",
            100.0 * ratio(replay.mat_cache.hits as f64, lookups),
            "pct",
            lookups as u64,
        ),
        picked("matcache.hit_serve_us", &|r| {
            (r.metrics.matcache_hits >= r.sets && r.metrics.delta_refreshes == 0 && !r.searched())
                .then_some(r.serve_ns)
        }),
        picked("matcache.refresh_serve_us", &|r| {
            (r.metrics.delta_refreshes > 0).then_some(r.serve_ns)
        }),
        metric(
            "matcache.miss_overhead_us",
            miss_overhead.0,
            "us",
            miss_overhead.1,
        ),
        mean("matcache.delta_refreshes", &|r| r.metrics.delta_refreshes),
        mean("matcache.delta_fallbacks", &|r| r.metrics.delta_fallbacks),
        mean("matcache.evictions", &|r| r.metrics.matcache_evictions),
        metric(
            "matcache.resident_bytes",
            replay.resident_bytes as f64,
            "bytes",
            1,
        ),
        metric("storage.append_us", probes.storage_append_us, "us", 3),
        metric("shard.split_us", probes.shard_split_us, "us", 1),
        metric(
            "shard.fanout",
            reads.iter().map(|r| r.metrics.shards).max().unwrap_or(0) as f64,
            "count",
            reads.len() as u64,
        ),
        mean("shard.merge_rows", &|r| r.metrics.merge_rows),
        metric(
            "shard.skew_pct",
            reads
                .iter()
                .map(|r| r.metrics.shard_skew)
                .max()
                .unwrap_or(0) as f64,
            "pct",
            reads.len() as u64,
        ),
        picked("codec.encode_us", &|r| Some(r.encode_ns)),
        metric(
            "codec.encode_mb_per_s",
            ratio(total(&|r| r.raw_bytes) / (1 << 20) as f64, encode_ns / 1e9),
            "MiB/s",
            reads.len() as u64,
        ),
        picked("codec.decode_us", &|r| Some(r.decode_ns)),
        metric(
            "codec.bytes_per_result_row",
            ratio(total(&|r| r.wire_bytes), total(&|r| r.rows)),
            "B/row",
            reads.len() as u64,
        ),
        picked("compress.compress_us", &|r| Some(r.compress_ns)),
        picked("compress.decompress_us", &|r| Some(r.decompress_ns)),
        metric(
            "compress.ratio",
            ratio(total(&|r| r.raw_bytes), total(&|r| r.packed_bytes)),
            "ratio",
            reads.len() as u64,
        ),
        metric(
            "client.wire_p50_1c_us",
            wire_p50_us,
            "us",
            reads.len() as u64,
        ),
        metric(
            "server.residual_us",
            wire_p50_us - covered_us,
            "us",
            reads.len() as u64,
        ),
        metric(
            "server.scaling_2c",
            ratio(two.throughput(), one.throughput()),
            "ratio",
            two.samples.len() as u64,
        ),
        metric(
            "trace.coverage",
            ratio(covered_us, wire_p50_us),
            "ratio",
            reads.len() as u64,
        ),
        metric("trace.replay_requests", measured.len() as f64, "count", 1),
        metric(
            "client.append_latency_p50_ms",
            median(&append_ms),
            "ms",
            append_ms.len() as u64,
        ),
    ]
}
