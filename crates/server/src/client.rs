//! Blocking client for the gbmqo wire protocol (v3).
//!
//! [`Client`] negotiates features on connect (a `Hello`/`HelloAck`
//! exchange; LZ4-style frame compression is opt-in via
//! [`ClientOptions`]) and then supports **pipelining**: the `send_*`
//! methods write a request and return its id immediately, and
//! [`Client::wait`] blocks until that id's response arrives —
//! buffering any other responses that show up first, since a
//! multi-worker server may complete requests out of submission order.
//!
//! Results arrive as a stream of bounded [`RowBatch`] chunks. Two ways
//! to consume them:
//!
//! * [`Client::stream_query`] / [`Client::stream_workload`] return a
//!   [`ResultStream`] iterator that yields chunks as they arrive, so a
//!   multi-million-group result never has to exist in client memory at
//!   once. After the iterator is exhausted, [`ResultStream::summary`]
//!   has the server's [`StreamSummary`] (chunk/row totals and the
//!   execution metrics JSON).
//! * The one-shot helpers ([`Client::query`],
//!   [`Client::submit_workload`], ...) collect the chunks back into
//!   whole tables, preserving the pre-streaming API shape.

use crate::codec::{FrameStatus, RecvBuf};
use crate::error::{ServerError, ServerResult};
use crate::protocol::{self, Request, Response, FEATURE_LZ4, MAX_FRAME_LEN};
use gbmqo_core::CacheControl;
use gbmqo_storage::{Table, TableBuilder};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

/// Connection-time options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientOptions {
    /// Offer LZ4-style frame compression during negotiation. Large
    /// frames in both directions are compressed only if the server
    /// accepts the feature (older servers simply leave it off).
    pub compress: bool,
}

/// A completed response, as returned by [`Client::wait`].
#[derive(Debug)]
pub enum Reply {
    /// Reply to a ping.
    Pong,
    /// Reply to a table registration.
    Ack,
    /// Collected result: `(set_tag, table)` per grouping set.
    Results(Vec<(String, Table)>),
    /// Stats JSON.
    Stats(String),
}

/// One streamed chunk of a result set.
#[derive(Debug)]
pub struct RowBatch {
    /// Comma-joined grouping columns identifying the result set.
    pub set_tag: String,
    /// Position of this chunk within its set, starting at 0.
    pub chunk_index: u32,
    /// Whether this is the set's final chunk.
    pub last_in_set: bool,
    /// The rows carried by this chunk.
    pub rows: Table,
}

/// The terminal frame of a streamed response.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Chunks the server sent for this request.
    pub total_chunks: u32,
    /// Rows across all chunks.
    pub total_rows: u64,
    /// Execution metrics as JSON (see `gbmqo_exec::ExecMetrics`).
    pub metrics_json: String,
}

/// An event buffered for one in-flight request id.
enum StreamEvent {
    /// A terminal non-streaming outcome (pong, ack, stats, error).
    Simple(ServerResult<Reply>),
    /// One result chunk.
    Chunk(RowBatch),
    /// The stream's terminal summary.
    Finish(StreamSummary),
}

#[derive(Default)]
struct PendingEntry {
    events: VecDeque<StreamEvent>,
    /// A terminal event was buffered; any further frame for this id is
    /// a protocol violation.
    finished: bool,
    /// The consumer abandoned its [`ResultStream`]; swallow the rest
    /// of the stream so the connection stays usable.
    discard: bool,
}

/// A blocking connection to a gbmqo server.
pub struct Client {
    stream: TcpStream,
    recv: RecvBuf,
    /// Features accepted by the server during negotiation.
    features: u32,
    next_id: u64,
    pending: HashMap<u64, PendingEntry>,
}

impl Client {
    /// Connect to a server with default options (no compression).
    pub fn connect(addr: impl ToSocketAddrs) -> ServerResult<Client> {
        Client::connect_with(addr, ClientOptions::default())
    }

    /// Connect and negotiate the given options.
    pub fn connect_with(addr: impl ToSocketAddrs, opts: ClientOptions) -> ServerResult<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            recv: RecvBuf::new(),
            features: 0,
            next_id: 1,
            pending: HashMap::new(),
        };
        let offered = if opts.compress { FEATURE_LZ4 } else { 0 };
        let hello_id = client.next_id;
        client.next_id += 1;
        let frame = protocol::encode_request(hello_id, &Request::Hello { features: offered }, 0);
        client.stream.write_all(&frame)?;
        let (rid, resp) = client.read_one()?;
        match resp {
            Response::HelloAck { features } if rid == hello_id => {
                // Trust only features we offered, whatever the server
                // claims to have accepted.
                client.features = features & offered;
                Ok(client)
            }
            Response::Error { code, message } => Err(ServerError::Remote { code, message }),
            other => Err(ServerError::Protocol(format!(
                "expected hello-ack, got {other:?}"
            ))),
        }
    }

    /// The feature set negotiated at connect time (a subset of what
    /// [`ClientOptions`] offered).
    pub fn negotiated_features(&self) -> u32 {
        self.features
    }

    fn send(&mut self, req: &Request) -> ServerResult<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = protocol::encode_request(id, req, self.features);
        self.stream.write_all(&frame)?;
        self.pending.insert(id, PendingEntry::default());
        Ok(id)
    }

    /// Pipelined send: append `rows` to the table registered under
    /// `name`. The rows must match the registered schema; the server
    /// refreshes or invalidates cached aggregates per its refresh
    /// policy.
    pub fn send_append(&mut self, name: &str, rows: &Table) -> ServerResult<u64> {
        self.send(&Request::Append {
            name: name.to_string(),
            rows: rows.clone(),
        })
    }

    /// Pipelined send: one Group By. `deadline_ms` of `0` means no
    /// deadline.
    pub fn send_query(
        &mut self,
        table: &str,
        group_cols: &[&str],
        deadline_ms: u32,
    ) -> ServerResult<u64> {
        self.send_query_with(table, group_cols, deadline_ms, CacheControl::Default)
    }

    /// Like [`Client::send_query`] with explicit control over the
    /// server's materialized aggregate cache for this request.
    pub fn send_query_with(
        &mut self,
        table: &str,
        group_cols: &[&str],
        deadline_ms: u32,
        cache: CacheControl,
    ) -> ServerResult<u64> {
        self.send(&Request::Query {
            table: table.to_string(),
            group_cols: group_cols.iter().map(|s| s.to_string()).collect(),
            deadline_ms,
            cache,
        })
    }

    /// Pipelined send: a full multi-query workload.
    pub fn send_workload(
        &mut self,
        table: &str,
        universe: &[&str],
        requests: &[Vec<&str>],
        deadline_ms: u32,
    ) -> ServerResult<u64> {
        self.send_workload_with(
            table,
            universe,
            requests,
            deadline_ms,
            CacheControl::Default,
        )
    }

    /// Like [`Client::send_workload`] with explicit control over the
    /// server's materialized aggregate cache for this request.
    pub fn send_workload_with(
        &mut self,
        table: &str,
        universe: &[&str],
        requests: &[Vec<&str>],
        deadline_ms: u32,
        cache: CacheControl,
    ) -> ServerResult<u64> {
        self.send(&Request::SubmitWorkload {
            table: table.to_string(),
            universe: universe.iter().map(|s| s.to_string()).collect(),
            requests: requests
                .iter()
                .map(|r| r.iter().map(|s| s.to_string()).collect())
                .collect(),
            deadline_ms,
            cache,
        })
    }

    /// Pipelined send: one SQL statement (the server's `gbmqo-sqlfe`
    /// subset — GROUPING SETS/CUBE/ROLLUP over a star join).
    /// `deadline_ms` of `0` means no deadline.
    pub fn send_sql(&mut self, sql: &str, deadline_ms: u32) -> ServerResult<u64> {
        self.send(&Request::SqlQuery {
            sql: sql.to_string(),
            deadline_ms,
            cache: CacheControl::Default,
        })
    }

    /// Read exactly one response frame off the socket, reusing the
    /// connection's receive buffer.
    fn read_one(&mut self) -> ServerResult<(u64, Response)> {
        loop {
            if let FrameStatus::Ready(start, end) = self.recv.try_frame(MAX_FRAME_LEN)? {
                let payload = self.recv.payload(start, end);
                let frame = protocol::parse_frame(payload, self.features)
                    .map_err(protocol::FrameError::into_server_error)?;
                let resp = protocol::decode_response_body(frame.opcode, &frame.body)?;
                return Ok((frame.request_id, resp));
            }
            if self.recv.fill(&mut &self.stream)? == 0 {
                return Err(ServerError::Protocol("server closed the connection".into()));
            }
        }
    }

    /// Route one decoded response into the right pending queue.
    fn dispatch(&mut self, rid: u64, resp: Response) -> ServerResult<()> {
        if rid == 0 {
            // Request id 0 is reserved for connection-level failures
            // (bad version, malformed frame) that precede a parsable
            // id; surface them to whoever is reading.
            return match resp {
                Response::Error { code, message } => Err(ServerError::Remote { code, message }),
                other => Err(ServerError::Protocol(format!(
                    "frame with reserved id 0: {other:?}"
                ))),
            };
        }
        let Some(entry) = self.pending.get_mut(&rid) else {
            return Err(ServerError::Protocol(format!(
                "frame for unknown or already-completed request {rid}"
            )));
        };
        if entry.discard {
            match resp {
                Response::Chunk { .. } => {}
                _ => {
                    // Terminal (or bogus) frame: the abandoned stream
                    // is fully drained.
                    self.pending.remove(&rid);
                }
            }
            return Ok(());
        }
        if entry.finished {
            return Err(ServerError::Protocol(format!(
                "frame after terminal response for request {rid}"
            )));
        }
        let event = match resp {
            Response::Pong => StreamEvent::Simple(Ok(Reply::Pong)),
            Response::Ack => StreamEvent::Simple(Ok(Reply::Ack)),
            Response::StatsReply { json } => StreamEvent::Simple(Ok(Reply::Stats(json))),
            Response::Error { code, message } => {
                StreamEvent::Simple(Err(ServerError::Remote { code, message }))
            }
            Response::Chunk {
                set_tag,
                chunk_index,
                last_in_set,
                table,
            } => StreamEvent::Chunk(RowBatch {
                set_tag,
                chunk_index,
                last_in_set,
                rows: table,
            }),
            Response::Finish {
                total_chunks,
                total_rows,
                metrics_json,
            } => StreamEvent::Finish(StreamSummary {
                total_chunks,
                total_rows,
                metrics_json,
            }),
            Response::HelloAck { .. } => {
                return Err(ServerError::Protocol(
                    "hello-ack outside connection setup".into(),
                ))
            }
        };
        if matches!(event, StreamEvent::Simple(_) | StreamEvent::Finish(_)) {
            entry.finished = true;
        }
        entry.events.push_back(event);
        Ok(())
    }

    /// Block until the next event for `id` is available, buffering
    /// events for other in-flight requests as they arrive.
    fn next_event(&mut self, id: u64) -> ServerResult<StreamEvent> {
        loop {
            match self.pending.get_mut(&id) {
                None => {
                    return Err(ServerError::Protocol(format!(
                        "request {id} is not in flight"
                    )))
                }
                Some(entry) => {
                    if let Some(event) = entry.events.pop_front() {
                        if matches!(event, StreamEvent::Simple(_) | StreamEvent::Finish(_)) {
                            self.pending.remove(&id);
                        }
                        return Ok(event);
                    }
                }
            }
            let (rid, resp) = self.read_one()?;
            self.dispatch(rid, resp)?;
        }
    }

    /// Block until request `id` completes, collecting any streamed
    /// chunks back into whole tables.
    pub fn wait(&mut self, id: u64) -> ServerResult<Reply> {
        let mut sets: Vec<(String, Vec<Table>)> = Vec::new();
        loop {
            match self.next_event(id)? {
                StreamEvent::Simple(done) => return done,
                StreamEvent::Chunk(batch) => {
                    match sets.iter_mut().find(|(tag, _)| *tag == batch.set_tag) {
                        Some((_, chunks)) => chunks.push(batch.rows),
                        None => sets.push((batch.set_tag, vec![batch.rows])),
                    }
                }
                StreamEvent::Finish(summary) => {
                    let chunks: usize = sets.iter().map(|(_, c)| c.len()).sum();
                    if chunks != summary.total_chunks as usize {
                        return Err(ServerError::Protocol(format!(
                            "expected {} chunks, got {chunks}",
                            summary.total_chunks
                        )));
                    }
                    let rows: u64 = sets
                        .iter()
                        .flat_map(|(_, c)| c.iter())
                        .map(|t| t.num_rows() as u64)
                        .sum();
                    if rows != summary.total_rows {
                        return Err(ServerError::Protocol(format!(
                            "expected {} rows, got {rows}",
                            summary.total_rows
                        )));
                    }
                    let mut results = Vec::with_capacity(sets.len());
                    for (tag, chunks) in sets {
                        results.push((tag, concat_chunks(&chunks)?));
                    }
                    return Ok(Reply::Results(results));
                }
            }
        }
    }

    /// Consume request `id`'s response as a chunk stream instead of
    /// collecting it. Useful after a pipelined `send_query` /
    /// `send_workload`.
    pub fn stream_wait(&mut self, id: u64) -> ResultStream<'_> {
        ResultStream {
            client: self,
            id,
            summary: None,
            failed: false,
        }
    }

    /// Run one Group By, streaming the result chunk by chunk.
    pub fn stream_query(
        &mut self,
        table: &str,
        group_cols: &[&str],
        deadline_ms: u32,
    ) -> ServerResult<ResultStream<'_>> {
        let id = self.send_query(table, group_cols, deadline_ms)?;
        Ok(self.stream_wait(id))
    }

    /// Run one SQL statement, streaming all grouping sets' chunks in
    /// arrival order (each chunk's tag is its set's comma-joined
    /// grouping columns).
    pub fn stream_sql(&mut self, sql: &str, deadline_ms: u32) -> ServerResult<ResultStream<'_>> {
        let id = self.send_sql(sql, deadline_ms)?;
        Ok(self.stream_wait(id))
    }

    /// Run a multi-query workload, streaming all result sets' chunks
    /// in arrival order (each chunk carries its set tag).
    pub fn stream_workload(
        &mut self,
        table: &str,
        universe: &[&str],
        requests: &[Vec<&str>],
        deadline_ms: u32,
    ) -> ServerResult<ResultStream<'_>> {
        let id = self.send_workload(table, universe, requests, deadline_ms)?;
        Ok(self.stream_wait(id))
    }

    /// Ping the server.
    pub fn ping(&mut self) -> ServerResult<()> {
        let id = self.send(&Request::Ping)?;
        match self.wait(id)? {
            Reply::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Register a table.
    pub fn register_table(&mut self, name: &str, table: &Table) -> ServerResult<()> {
        let id = self.send(&Request::RegisterTable {
            name: name.to_string(),
            table: table.clone(),
        })?;
        match self.wait(id)? {
            Reply::Ack => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Append rows to a registered table (streaming ingest).
    pub fn append(&mut self, name: &str, rows: &Table) -> ServerResult<()> {
        let id = self.send_append(name, rows)?;
        match self.wait(id)? {
            Reply::Ack => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Run one Group By and return its result table.
    pub fn query(
        &mut self,
        table: &str,
        group_cols: &[&str],
        deadline_ms: u32,
    ) -> ServerResult<Table> {
        self.query_with(table, group_cols, deadline_ms, CacheControl::Default)
    }

    /// Like [`Client::query`] with explicit cache control: `Bypass`
    /// ignores the server's materialized aggregate cache, `Refresh`
    /// recomputes and re-admits even on a hit.
    pub fn query_with(
        &mut self,
        table: &str,
        group_cols: &[&str],
        deadline_ms: u32,
        cache: CacheControl,
    ) -> ServerResult<Table> {
        let id = self.send_query_with(table, group_cols, deadline_ms, cache)?;
        match self.wait(id)? {
            Reply::Results(mut r) if r.len() == 1 => Ok(r.pop().unwrap().1),
            Reply::Results(r) => Err(ServerError::Protocol(format!(
                "expected one result table, got {}",
                r.len()
            ))),
            other => Err(unexpected(&other)),
        }
    }

    /// Run a multi-query workload; returns `(set_tag, table)` pairs.
    pub fn submit_workload(
        &mut self,
        table: &str,
        universe: &[&str],
        requests: &[Vec<&str>],
        deadline_ms: u32,
    ) -> ServerResult<Vec<(String, Table)>> {
        let id = self.send_workload(table, universe, requests, deadline_ms)?;
        match self.wait(id)? {
            Reply::Results(r) => Ok(r),
            other => Err(unexpected(&other)),
        }
    }

    /// Run one SQL statement; returns `(set_tag, table)` pairs, one
    /// per grouping set the statement expands to.
    pub fn sql(&mut self, sql: &str, deadline_ms: u32) -> ServerResult<Vec<(String, Table)>> {
        let id = self.send_sql(sql, deadline_ms)?;
        match self.wait(id)? {
            Reply::Results(r) => Ok(r),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the server's stats JSON.
    pub fn stats(&mut self) -> ServerResult<String> {
        let id = self.send(&Request::Stats)?;
        match self.wait(id)? {
            Reply::Stats(json) => Ok(json),
            other => Err(unexpected(&other)),
        }
    }
}

/// An iterator over one request's streamed result chunks.
///
/// Yields `ServerResult<RowBatch>` until the server's terminal frame,
/// after which [`ResultStream::summary`] returns the totals and
/// metrics. Dropping the stream early is safe: the remaining chunks
/// are silently drained as the connection is used further.
pub struct ResultStream<'c> {
    client: &'c mut Client,
    id: u64,
    summary: Option<StreamSummary>,
    failed: bool,
}

impl ResultStream<'_> {
    /// The request id this stream consumes.
    pub fn request_id(&self) -> u64 {
        self.id
    }

    /// The terminal summary; `Some` once the iterator has returned
    /// `None` without an error.
    pub fn summary(&self) -> Option<&StreamSummary> {
        self.summary.as_ref()
    }
}

impl Iterator for ResultStream<'_> {
    type Item = ServerResult<RowBatch>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.summary.is_some() || self.failed {
            return None;
        }
        match self.client.next_event(self.id) {
            Ok(StreamEvent::Chunk(batch)) => Some(Ok(batch)),
            Ok(StreamEvent::Finish(summary)) => {
                self.summary = Some(summary);
                None
            }
            Ok(StreamEvent::Simple(Ok(reply))) => {
                self.failed = true;
                Some(Err(unexpected(&reply)))
            }
            Ok(StreamEvent::Simple(Err(e))) => {
                self.failed = true;
                Some(Err(e))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

impl Drop for ResultStream<'_> {
    fn drop(&mut self) {
        if self.summary.is_none() && !self.failed {
            // Abandoned mid-stream: remember to swallow the rest of
            // this id's chunks so later requests can be read past them.
            if let Some(entry) = self.client.pending.get_mut(&self.id) {
                entry.events.clear();
                entry.discard = true;
            }
        }
    }
}

/// Stitch a set's chunks back into one table.
fn concat_chunks(chunks: &[Table]) -> ServerResult<Table> {
    match chunks {
        [] => Err(ServerError::Protocol("result set with no chunks".into())),
        [only] => Ok(only.clone()),
        [first, rest @ ..] => {
            for chunk in rest {
                if chunk.schema() != first.schema() {
                    return Err(ServerError::Protocol(
                        "chunk schema changed mid-stream".into(),
                    ));
                }
            }
            let total = chunks.iter().map(Table::num_rows).sum();
            let mut builder = TableBuilder::with_capacity(first.schema().clone(), total);
            for chunk in chunks {
                for col in 0..chunk.num_columns() {
                    let cb = builder.column_builder(col);
                    for value in chunk.column(col).iter_values() {
                        cb.push(&value)
                            .map_err(|e| ServerError::Protocol(format!("chunk concat: {e}")))?;
                    }
                }
            }
            builder
                .finish()
                .map_err(|e| ServerError::Protocol(format!("chunk concat: {e}")))
        }
    }
}

fn unexpected(got: &Reply) -> ServerError {
    ServerError::Protocol(format!("unexpected response: {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{Column, DataType, Field, Schema};

    fn chunk(values: Vec<i64>) -> Table {
        let schema = Schema::new(vec![Field::new("a", DataType::Int64)]).unwrap();
        Table::new(schema, vec![Column::from_i64(values)]).unwrap()
    }

    #[test]
    fn chunks_concatenate_in_order() {
        let glued = concat_chunks(&[chunk(vec![1, 2]), chunk(vec![3]), chunk(vec![4, 5])]).unwrap();
        assert_eq!(glued.num_rows(), 5);
        let got: Vec<_> = (0..5).map(|r| glued.value(r, 0)).collect();
        assert_eq!(
            format!("{got:?}"),
            format!(
                "{:?}",
                (1..=5).map(gbmqo_storage::Value::Int).collect::<Vec<_>>()
            )
        );
    }

    #[test]
    fn schema_changes_mid_stream_are_rejected() {
        let other = Table::new(
            Schema::new(vec![Field::new("b", DataType::Int64)]).unwrap(),
            vec![Column::from_i64(vec![9])],
        )
        .unwrap();
        assert!(concat_chunks(&[chunk(vec![1]), other]).is_err());
        assert!(concat_chunks(&[]).is_err());
    }
}
