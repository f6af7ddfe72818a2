//! The closed-loop load generator: client threads over loopback sockets,
//! one request in flight each, the next sent when the last reply is fully
//! decoded.

use crate::check::Reply;
use crate::script::{Kind, Op, Script, STATEMENTS, WIDE_PAIRS};
use crate::setup::{connect, Bench};
use gbmqo_core::CacheControl;
use gbmqo_server::{Client, ServerError};
use gbmqo_storage::column::ColumnData;
use gbmqo_storage::Table;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Full replies kept per window for the cell-for-cell check. Rotating
/// workloads have at most eight distinct requests; `cold_mqo` sends only
/// distinct ones, and keeping every reply would make the benchmark's own
/// memory, not the server's, the peak.
pub const MAX_KEPT_REPLIES: usize = 64;

/// One client connection and its position in the script.
pub struct Conn {
    client: Client,
    /// Which client's script this connection walks.
    pub id: usize,
    /// Index of the next request.
    pub next: u64,
}

impl Conn {
    /// Connect client `id`.
    pub fn open(kind: Kind, addr: SocketAddr, id: usize) -> Conn {
        Conn {
            client: connect(kind, addr).expect("connect to the benchmark server"),
            id,
            next: 0,
        }
    }

    /// The server's stats JSON.
    pub fn stats(&mut self) -> String {
        self.client.stats().expect("stats request")
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Seconds from the window's start to the reply's last byte decoded.
    pub end_s: f64,
    /// Client-observed latency: send to last chunk decoded (a read) or to
    /// the acknowledgement (an append).
    pub ms: f64,
    /// Result rows decoded.
    pub rows: u64,
    /// True for an `Append`.
    pub append: bool,
}

/// The requests that completed in one stretch of a window.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Seconds the slice's requests took.
    pub span_s: f64,
    /// The requests, by completion time.
    pub samples: Vec<Sample>,
}

impl Slice {
    /// `total` per second of the slice's span (0 for an empty slice).
    pub fn rate(&self, total: f64) -> f64 {
        if self.span_s > 0.0 {
            total / self.span_s
        } else {
            0.0
        }
    }

    /// Read latencies in milliseconds.
    pub fn read_ms(&self) -> Vec<f64> {
        let reads = self.samples.iter().filter(|s| !s.append);
        reads.map(|s| s.ms).collect()
    }
}

/// What one window of load measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Every completed request; one client's samples are in send order.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, were refused, or failed a reply check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Seconds from the common start to the last client's last reply.
    pub wall_s: f64,
    /// First occurrence of each distinct read, kept for the full check.
    pub kept: Vec<(Op, Reply)>,
}

impl Window {
    /// Read latencies in milliseconds.
    pub fn read_ms(&self) -> Vec<f64> {
        self.latencies(false)
    }

    /// `Append` round trips in milliseconds.
    pub fn append_ms(&self) -> Vec<f64> {
        self.latencies(true)
    }

    fn latencies(&self, append: bool) -> Vec<f64> {
        let of_kind = self.samples.iter().filter(|s| s.append == append);
        of_kind.map(|s| s.ms).collect()
    }

    /// Requests completed per second over the whole window.
    pub fn throughput(&self) -> f64 {
        self.samples.len() as f64 / self.wall_s
    }

    /// Cut the first `seconds` of the window into `n` slices of equal
    /// length by completion time. A slice's span runs from the last
    /// completion before it to its own last completion, so requests ÷ span
    /// is a rate in whole requests over the time they actually took.
    pub fn slices(&self, seconds: f64, n: usize) -> Vec<Slice> {
        let mut ordered = self.samples.clone();
        ordered.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
        let mut slices: Vec<Slice> = Vec::new();
        let mut previous_end = 0.0;
        for i in 0..n {
            let upto = seconds * (i + 1) as f64 / n as f64;
            let taken = ordered.iter().take_while(|s| s.end_s < upto).count();
            let samples: Vec<Sample> = ordered.drain(..taken).collect();
            let end = samples.last().map_or(previous_end, |s| s.end_s);
            slices.push(Slice {
                span_s: end - previous_end,
                samples,
            });
            previous_end = end;
        }
        slices
    }

    /// The quiet quarter of the window: cut its first `seconds` into
    /// slices of about a second, keep the quarter of them that completed
    /// requests fastest, and return their requests and spans as one
    /// [`Slice`]. The box shares its host, and for seconds at a time a
    /// neighbour slows it by a tenth to a half; those slices lose, so the
    /// metrics describe the machine when the benchmark had it to itself.
    /// Every end-to-end rate and percentile of a run is taken over this one
    /// selection, so they describe the same stretches of time.
    pub fn quiet(&self, seconds: f64) -> Slice {
        let n = (seconds.round() as usize).max(4);
        let mut slices = self.slices(seconds, n);
        slices.retain(|s| s.span_s > 0.0);
        slices.sort_by(|a, b| {
            let rate = |s: &Slice| s.rate(s.samples.len() as f64);
            rate(b).total_cmp(&rate(a))
        });
        slices.truncate(n.div_ceil(4));
        Slice {
            span_s: slices.iter().map(|s| s.span_s).sum(),
            samples: slices.into_iter().flat_map(|s| s.samples).collect(),
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    fn merge(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
        self.wall_s = self.wall_s.max(other.wall_s);
        self.kept.extend(other.kept);
    }
}

/// How a window ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Each client sends this many requests (the warm-up).
    Count(u64),
    /// Each client sends until the clock passes this (the measurement).
    Time(Duration),
}

/// Reads already kept for the cell-for-cell check, shared by the clients.
pub type Seen = Mutex<HashSet<Op>>;

/// Send `op` and read its reply. Returns the latency and, for a read, the
/// decoded chunks.
fn exchange(
    conn: &mut Conn,
    script: &Script,
    deltas: &[Table],
    op: &Op,
) -> Result<(f64, Vec<(String, Table)>), ServerError> {
    let table = script.kind.table();
    let started = Instant::now();
    let id = match op {
        Op::Workload { universe, sets } => {
            conn.client
                .send_workload_with(table, universe, sets, 0, CacheControl::Default)?
        }
        Op::Sql(i) => conn.client.send_sql(STATEMENTS[*i].sql, 0)?,
        Op::Query(i) => {
            conn.client
                .send_query_with(table, &WIDE_PAIRS[*i], 0, CacheControl::Bypass)?
        }
        Op::Append(i) => {
            let id = conn.client.send_append(table, &deltas[*i])?;
            conn.client.wait(id)?;
            return Ok((started.elapsed().as_secs_f64() * 1e3, Vec::new()));
        }
    };
    let mut chunks = Vec::new();
    let mut stream = conn.client.stream_wait(id);
    for batch in &mut stream {
        let batch = batch?;
        chunks.push((batch.set_tag, batch.rows));
    }
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    let summary = stream
        .summary()
        .ok_or_else(|| ServerError::Protocol("stream ended without a summary".into()))?;
    let rows: usize = chunks.iter().map(|(_, t)| t.num_rows()).sum();
    if summary.total_rows != rows as u64 || summary.total_chunks as usize != chunks.len() {
        return Err(ServerError::Protocol(format!(
            "summary promises {} rows in {} chunks, got {rows} in {}",
            summary.total_rows,
            summary.total_chunks,
            chunks.len()
        )));
    }
    Ok((latency_ms, chunks))
}

/// The cheap check every reply gets: one result set per requested set,
/// and each set's counts add up to a row count the table can have had
/// (grouping partitions the table, so `SUM(cnt)` is its row count).
fn plausible(
    script: &Script,
    base_rows: usize,
    op: &Op,
    chunks: &[(String, Table)],
) -> Result<(), String> {
    let mut totals: Vec<(&str, i64)> = Vec::new();
    for (tag, table) in chunks {
        let cnt = table
            .column_by_name("cnt")
            .map_err(|_| format!("set ({tag}) has no cnt column"))?;
        let sum: i64 = match cnt.data() {
            ColumnData::Int64(v) => v.iter().sum(),
            _ => return Err(format!("set ({tag}): cnt is not an integer column")),
        };
        match totals.iter_mut().find(|(t, _)| t == tag) {
            Some((_, total)) => *total += sum,
            None => totals.push((tag, sum)),
        }
    }
    if totals.len() != op.set_count() {
        return Err(format!(
            "{} result sets for {} requested",
            totals.len(),
            op.set_count()
        ));
    }
    for (tag, total) in &totals {
        let extra = total - base_rows as i64;
        let ok = if script.kind == Kind::IngestRefresh {
            extra >= 0 && extra % script.scale.append_rows() as i64 == 0
        } else {
            extra == 0
        };
        if !ok {
            return Err(format!(
                "set ({tag}): counts sum to {total}, table started with {base_rows} rows"
            ));
        }
    }
    Ok(())
}

/// Stitch a reply's chunks back into one table per set.
fn assemble(chunks: Vec<(String, Table)>) -> Result<Reply, String> {
    let mut sets: Vec<(String, Vec<Table>)> = Vec::new();
    for (tag, rows) in chunks {
        match sets.iter_mut().find(|(t, _)| *t == tag) {
            Some((_, parts)) => parts.push(rows),
            None => sets.push((tag, vec![rows])),
        }
    }
    sets.into_iter()
        .map(|(tag, parts)| {
            let refs: Vec<&Table> = parts.iter().collect();
            Table::concat(&refs)
                .map(|t| (tag, t))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// One read outside any window, assembled (the final-state check).
pub fn read_once(conn: &mut Conn, bench: &Bench, op: &Op) -> Result<Reply, String> {
    let (_, chunks) =
        exchange(conn, &bench.script, &bench.data.deltas, op).map_err(|e| e.to_string())?;
    assemble(chunks)
}

fn client_loop(
    conn: &mut Conn,
    bench: &Bench,
    until: Until,
    start: Instant,
    keep: Option<&Seen>,
) -> Window {
    let script = &bench.script;
    let base_rows = bench.data.base.num_rows();
    let mut w = Window::default();
    loop {
        match until {
            Until::Count(n) if w.attempted >= n => break,
            Until::Time(d) if start.elapsed() >= d => break,
            _ => {}
        }
        let op = script.op(conn.id, conn.next);
        conn.next += 1;
        w.attempted += 1;
        let exchanged = exchange(conn, script, &bench.data.deltas, &op);
        let mut sample = Sample {
            end_s: start.elapsed().as_secs_f64(),
            ms: 0.0,
            rows: 0,
            append: op.is_append(),
        };
        match exchanged {
            Ok((ms, _)) if op.is_append() => w.samples.push(Sample { ms, ..sample }),
            // Everything in this arm happens after the latency was taken.
            Ok((ms, chunks)) => match plausible(script, base_rows, &op, &chunks) {
                Ok(()) => {
                    sample.ms = ms;
                    sample.rows = chunks.iter().map(|(_, t)| t.num_rows() as u64).sum();
                    w.samples.push(sample);
                    let first = keep.is_some_and(|k| {
                        let mut seen = k.lock().expect("seen set lock");
                        seen.len() < MAX_KEPT_REPLIES && seen.insert(op.clone())
                    });
                    if first {
                        match assemble(chunks) {
                            Ok(reply) => w.kept.push((op, reply)),
                            Err(e) => w.fail(format!("{op:?}: {e}")),
                        }
                    }
                }
                Err(e) => w.fail(format!("{op:?}: {e}")),
            },
            Err(e) => {
                w.fail(format!("{op:?}: {e}"));
                // A failed exchange may leave the stream mid-frame; a
                // fresh connection keeps later requests meaningful.
                match connect(script.kind, bench.server.local_addr()) {
                    Ok(client) => conn.client = client,
                    Err(e) => {
                        w.fail(format!("reconnect: {e}"));
                        break;
                    }
                }
            }
        }
        w.wall_s = start.elapsed().as_secs_f64();
    }
    w
}

/// Drive `conns` concurrently, one thread each, until `until`.
pub fn run(bench: &Bench, conns: &mut [Conn], until: Until, keep: Option<&Seen>) -> Window {
    let start = Instant::now();
    let mut total = Window::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| scope.spawn(move || client_loop(conn, bench, until, start, keep)))
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("client thread panicked"));
        }
    });
    total
}
