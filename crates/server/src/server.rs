//! The server runtime: a readiness-driven connection core feeding a
//! worker pool, with bounded admission and credit-based streaming.
//!
//! ## Threading model
//!
//! One **event-loop** thread owns every socket: it accepts
//! connections, reads frames into per-connection reusable buffers
//! ([`crate::codec::RecvBuf`]), answers `Ping`/`Hello` inline, admits
//! everything else onto a bounded queue, and writes queued response
//! frames back out — all over nonblocking sockets driven by
//! [`crate::reactor`] readiness (`epoll` on Linux). A connection costs
//! a few hundred bytes of state, not two OS threads, so one process
//! holds tens of thousands of open connections. A fixed pool of
//! **worker** threads drains the admission queue and executes requests
//! against the shared [`Session`]. Every operational request is one job
//! on that queue; a single-set `Query` runs as a one-set workload.
//!
//! ## Streaming and backpressure
//!
//! Workers never touch sockets. They hand encoded frames to the loop
//! through a `ReplyHandle`, which enforces a per-connection credit
//! budget ([`ServerConfig::outbound_budget`]): a worker streaming a
//! huge result blocks once the connection has that many bytes queued
//! and unwritten, and resumes as the loop drains them to the socket.
//!
//! Each hand-off is one *send* — one channel push, one loop wake-up,
//! one socket `write` — so a reply's frames are encoded in place into
//! one outgoing buffer that is sent right after a chunk that filled its
//! row cap ([`ServerConfig::chunk_rows`]) and before a frame that would
//! push it past [`ServerConfig::chunk_bytes`]. Set tails, small sets and
//! the `Finish` frame ride in the next full chunk's send or in the
//! final one: a reply smaller than a chunk is a single send, and a
//! large result still leaves one full chunk at a time. The bytes a
//! client receives do not depend on where one send ends. A send is at
//! most `chunk_bytes` unless it is a single frame, so server memory per
//! connection is bounded by the budget plus one send, no matter how
//! many rows a result has. A client that stops reading for too long is
//! declared dead and its stream is abandoned rather than pinning a
//! worker forever.
//!
//! ## Admission and load shedding
//!
//! The admission queue is a `sync_channel` of depth
//! [`ServerConfig::queue_capacity`]. The loop uses `try_send`: when
//! the queue is full the request is rejected *immediately* with a
//! typed [`ErrorCode::ServerBusy`] error rather than queueing
//! unboundedly — the client decides whether to back off and retry.
//!
//! ## Deadlines and cancellation
//!
//! A request's deadline clock starts at admission, so time spent
//! queued counts against it. A worker builds the request its own
//! [`QueryCtx`] — a [`CancelToken`] tripping at the deadline, and fresh
//! counters — and passes it down the call chain; nothing is installed
//! on the shared session. The session polls it between the stages of
//! a request and the engine at morsel boundaries, so an expired request
//! aborts at the next stage boundary or mid-kernel, its intermediates
//! are dropped with the execution, and the client receives
//! [`ErrorCode::Timeout`]. A request whose deadline passed while it
//! was queued fails before it touches the caches.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] sets the flag and wakes the loop, which
//! closes the listener and drops its queue senders (new requests get
//! [`ErrorCode::ShuttingDown`], in-flight ones drain). Once the workers
//! are joined, the loop flushes every outstanding write queue under a
//! deadline, closes all connections, and exits.

use crate::codec::{FrameStatus, RecvBuf};
use crate::error::ErrorCode;
use crate::protocol::{self, FrameError, Request, Response};
use crate::reactor::{Event, Poller, Waker};
use gbmqo_core::{CacheControl, CancelToken, CoreError, QueryCtx, Session, Workload};
use gbmqo_exec::{ExecError, ExecMetrics};
use gbmqo_storage::{StorageError, Table};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Worker threads executing admitted requests.
    pub workers: usize,
    /// Depth of the bounded admission queue; a full queue sheds load
    /// with [`ErrorCode::ServerBusy`].
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Row cap per `ResultChunk` frame. A chunk that fills its row cap
    /// is sent as soon as it is encoded, together with whatever smaller
    /// frames of the reply preceded it.
    pub chunk_rows: usize,
    /// Encoded-byte cap per `ResultChunk` frame and per send: a chunk
    /// exceeding it is re-sliced with fewer rows, and a reply's frames
    /// share one send until the next would take it past this cap. Only
    /// a single frame (one giant row) may exceed it.
    pub chunk_bytes: usize,
    /// Per-connection credit budget: the most response bytes that may
    /// sit queued (encoded but unwritten) for one connection before
    /// the producing worker blocks. A connection's queued bytes stay
    /// within the budget plus one send.
    pub outbound_budget: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: None,
            chunk_rows: 8192,
            chunk_bytes: 1 << 20,
            outbound_budget: 4 << 20,
        }
    }
}

/// Server-wide counters, exposed via the `Stats` request.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Execution metrics accumulated across every plan run (the
    /// engine's own counters reset per run).
    pub total: ExecMetrics,
    /// Requests processed (everything except `Ping`/`Hello`).
    pub requests: u64,
    /// Requests shed because the admission queue was full.
    pub busy_rejections: u64,
    /// Requests that hit their deadline.
    pub timeouts: u64,
    /// `Append` requests applied.
    pub appends: u64,
    /// Rows ingested across all appends.
    pub appended_rows: u64,
    /// `SqlQuery` requests executed (successfully or not).
    pub sql_queries: u64,
}

/// State shared by every thread of a running server.
pub(crate) struct Shared {
    pub session: Mutex<Session>,
    pub counters: Mutex<Counters>,
    /// Set once by [`ServerHandle::shutdown`]; never cleared. `Arc`d
    /// separately so [`ReplyHandle`]s can hold it without the session.
    pub shutdown: Arc<AtomicBool>,
    /// Set by the handle after the workers are joined; tells the loop
    /// no more outbound frames can appear.
    pub workers_done: AtomicBool,
    /// Row cap per streamed chunk (from [`ServerConfig::chunk_rows`]).
    pub chunk_rows: usize,
    /// Byte cap per streamed chunk (from [`ServerConfig::chunk_bytes`]).
    pub chunk_bytes: usize,
    /// Result chunks streamed since startup.
    pub streamed_chunks: AtomicU64,
    /// High-water mark of any single connection's queued-but-unwritten
    /// response bytes — the observable for "streaming stays within the
    /// budget plus one send".
    pub outbound_peak: Arc<AtomicU64>,
    /// Currently open client connections.
    pub open_conns: AtomicU64,
}

impl Shared {
    /// Lock the session, surviving a poisoned mutex (a panicking
    /// worker must not wedge the whole server).
    pub fn session(&self) -> MutexGuard<'_, Session> {
        self.session.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lock the counters (same poisoning policy).
    pub fn counters(&self) -> MutexGuard<'_, Counters> {
        self.counters.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Loop-side token of the listener socket.
const TOKEN_LISTENER: usize = 0;
/// Loop-side token of the cross-thread waker.
const TOKEN_WAKER: usize = 1;
/// First token handed to a client connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// How long a worker will wait on a full outbound budget before
/// declaring the connection dead (the client stopped reading).
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(30);
/// The same wait while the server is draining for shutdown.
const DRAIN_STALL_TIMEOUT: Duration = Duration::from_secs(1);
/// How long the exiting loop keeps flushing write queues.
const FINAL_FLUSH_DEADLINE: Duration = Duration::from_secs(5);

/// Per-connection state shared between the loop and workers.
pub(crate) struct ConnShared {
    /// Connection id == poll token.
    id: u64,
    /// The loop closed (or doomed) this connection; senders give up.
    dead: AtomicBool,
    /// Negotiated feature bits (see [`protocol::FEATURE_LZ4`]).
    features: AtomicU32,
    /// Response bytes currently queued (credit taken, not yet written).
    pending: Mutex<usize>,
    /// Signalled whenever `pending` shrinks or `dead` flips.
    cv: Condvar,
}

/// A worker's way to reply to a connection: encoded frames — one or
/// several back to back per send — go through the outbound channel to
/// the event loop, gated by the connection's credit budget so a slow
/// client applies backpressure instead of growing an unbounded queue.
pub(crate) struct ReplyHandle {
    conn: Arc<ConnShared>,
    out_tx: Sender<(u64, Vec<u8>)>,
    waker: Arc<Waker>,
    budget: usize,
    shutdown: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
}

impl Clone for ReplyHandle {
    fn clone(&self) -> Self {
        ReplyHandle {
            conn: Arc::clone(&self.conn),
            out_tx: self.out_tx.clone(),
            waker: Arc::clone(&self.waker),
            budget: self.budget,
            shutdown: Arc::clone(&self.shutdown),
            peak: Arc::clone(&self.peak),
        }
    }
}

impl ReplyHandle {
    /// The connection's negotiated feature bits.
    pub(crate) fn features(&self) -> u32 {
        self.conn.features.load(Ordering::Acquire)
    }

    /// Queue one send — one or more complete encoded frames — blocking
    /// while the connection's credit budget is exhausted. Returns
    /// `false` when the connection is gone (or declared dead after a
    /// write stall) — the caller should abandon the rest of its stream.
    pub(crate) fn send_frame(&self, frame: Vec<u8>) -> bool {
        if self.conn.dead.load(Ordering::Acquire) {
            return false;
        }
        let len = frame.len();
        {
            let mut pending = self.conn.pending.lock().unwrap_or_else(|e| e.into_inner());
            let started = Instant::now();
            // A single send larger than the whole budget may still go
            // out alone (`*pending == 0`); otherwise wait for credit.
            while *pending > 0 && *pending + len > self.budget {
                if self.conn.dead.load(Ordering::Acquire) {
                    return false;
                }
                let stall = if self.shutdown.load(Ordering::SeqCst) {
                    DRAIN_STALL_TIMEOUT
                } else {
                    WRITE_STALL_TIMEOUT
                };
                if started.elapsed() > stall {
                    // The client has not drained anything for the full
                    // stall window: declare it dead so this worker (and
                    // shutdown) cannot be pinned forever.
                    self.conn.dead.store(true, Ordering::Release);
                    self.conn.cv.notify_all();
                    return false;
                }
                let (guard, _) = self
                    .conn
                    .cv
                    .wait_timeout(pending, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                pending = guard;
            }
            *pending += len;
            self.peak.fetch_max(*pending as u64, Ordering::Relaxed);
        }
        if self.out_tx.send((self.conn.id, frame)).is_err() {
            return false;
        }
        self.waker.wake();
        true
    }

    /// Encode (with the negotiated features) and send one response.
    pub(crate) fn send_response(&self, request_id: u64, resp: &Response) -> bool {
        self.send_frame(protocol::encode_response(request_id, resp, self.features()))
    }
}

/// Build a detached [`ReplyHandle`] whose frames land on the returned
/// receiver — for unit tests that exercise reply paths without a
/// running event loop.
#[cfg(test)]
pub(crate) fn test_reply_handle(budget: usize) -> (ReplyHandle, Receiver<(u64, Vec<u8>)>) {
    let poller = Poller::new().expect("poller");
    let waker = poller.add_waker(TOKEN_WAKER).expect("waker");
    let (out_tx, out_rx) = mpsc::channel();
    let handle = ReplyHandle {
        conn: Arc::new(ConnShared {
            id: 1,
            dead: AtomicBool::new(false),
            features: AtomicU32::new(0),
            pending: Mutex::new(0),
            cv: Condvar::new(),
        }),
        out_tx,
        waker: Arc::new(waker),
        budget,
        shutdown: Arc::new(AtomicBool::new(false)),
        peak: Arc::new(AtomicU64::new(0)),
    };
    (handle, out_rx)
}

/// A unit of admitted work.
pub(crate) struct Job {
    pub request_id: u64,
    pub deadline: Option<Instant>,
    pub reply: ReplyHandle,
    pub kind: JobKind,
}

/// What an admitted request asks for.
pub(crate) enum JobKind {
    /// A `RegisterTable` body, copied raw off the loop thread so the
    /// (potentially huge) table decode happens on a worker.
    RegisterRaw {
        body: Vec<u8>,
    },
    /// An `Append` body, decoded on a worker for the same reason.
    AppendRaw {
        body: Vec<u8>,
    },
    Workload {
        table: String,
        universe: Vec<String>,
        requests: Vec<Vec<String>>,
        cache: CacheControl,
    },
    /// A SQL statement, compiled and executed on the worker.
    Sql {
        sql: String,
        cache: CacheControl,
    },
    Stats,
}

/// Entry point: bind and serve.
pub struct Server;

impl Server {
    /// Bind `addr`, spawn the runtime threads, and return a handle.
    /// Pass port `0` to let the OS pick an ephemeral port (see
    /// [`ServerHandle::local_addr`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        session: Session,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            session: Mutex::new(session),
            counters: Mutex::new(Counters::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
            workers_done: AtomicBool::new(false),
            chunk_rows: config.chunk_rows.max(1),
            chunk_bytes: config.chunk_bytes.max(1024),
            streamed_chunks: AtomicU64::new(0),
            outbound_peak: Arc::new(AtomicU64::new(0)),
            open_conns: AtomicU64::new(0),
        });

        let workers = config.workers.max(1);
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.queue_capacity.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));
        let worker_joins: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&job_rx);
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("gbmqo-worker-{i}"))
                    .spawn(move || worker_loop(rx, shared))
                    .expect("spawn worker")
            })
            .collect();

        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        let waker = Arc::new(poller.add_waker(TOKEN_WAKER)?);
        let (out_tx, out_rx) = mpsc::channel::<(u64, Vec<u8>)>();

        let loop_join = {
            let shared = Arc::clone(&shared);
            let waker = Arc::clone(&waker);
            let config = config.clone();
            let job_tx = job_tx.clone();
            thread::Builder::new()
                .name("gbmqo-event-loop".into())
                .spawn(move || {
                    event_loop(
                        poller, waker, listener, shared, config, out_tx, out_rx, job_tx,
                    )
                })
                .expect("spawn event loop")
        };

        Ok(ServerHandle {
            local_addr,
            shared,
            waker,
            job_tx: Some(job_tx),
            loop_join: Some(loop_join),
            worker_joins,
        })
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    local_addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    waker: Arc<Waker>,
    job_tx: Option<SyncSender<Job>>,
    loop_join: Option<JoinHandle<()>>,
    worker_joins: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Gracefully shut down: stop accepting, drain admitted requests,
    /// flush responses, join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(loop_join) = self.loop_join.take() else {
            return;
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        // The loop drops its queue senders on seeing the flag; once we
        // drop ours the workers drain what remains and exit.
        self.job_tx = None;
        for j in self.worker_joins.drain(..) {
            let _ = j.join();
        }
        // No producer remains: tell the loop to flush and exit.
        self.shared.workers_done.store(true, Ordering::SeqCst);
        self.waker.wake();
        let _ = loop_join.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One queued outbound frame: bytes, write offset, and whether its
/// bytes hold credit that must be returned when written or dropped.
struct OutFrame {
    bytes: Vec<u8>,
    offset: usize,
    credited: bool,
}

/// Loop-side connection state.
struct Conn {
    stream: std::net::TcpStream,
    recv: RecvBuf,
    write_q: VecDeque<OutFrame>,
    shared: Arc<ConnShared>,
    /// Currently registered (read, write) interest.
    interest: (bool, bool),
    /// Reads are done (EOF, protocol violation, or doomed); close once
    /// the write queue flushes.
    closing: bool,
}

impl Conn {
    fn new(id: u64, stream: std::net::TcpStream) -> Conn {
        Conn {
            stream,
            recv: RecvBuf::new(),
            write_q: VecDeque::new(),
            shared: Arc::new(ConnShared {
                id,
                dead: AtomicBool::new(false),
                features: AtomicU32::new(0),
                pending: Mutex::new(0),
                cv: Condvar::new(),
            }),
            interest: (true, false),
            closing: false,
        }
    }
}

fn return_credit(cshared: &ConnShared, amount: usize) {
    let mut pending = cshared.pending.lock().unwrap_or_else(|e| e.into_inner());
    *pending = pending.saturating_sub(amount);
    drop(pending);
    cshared.cv.notify_all();
}

/// Write as much of the queue as the socket accepts, returning credit
/// per completed frame. `Err` means the connection is broken.
fn flush_conn(conn: &mut Conn) -> io::Result<()> {
    while let Some(front) = conn.write_q.front_mut() {
        match conn.stream.write(&front.bytes[front.offset..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                front.offset += n;
                if front.offset == front.bytes.len() {
                    let done = conn.write_q.pop_front().expect("front exists");
                    if done.credited {
                        return_credit(&conn.shared, done.bytes.len());
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Sync the poller's interest set with the connection's state.
fn update_interest(poller: &Poller, conn: &mut Conn, id: u64) {
    let want = (!conn.closing, !conn.write_q.is_empty());
    if want != conn.interest
        && poller
            .reregister(conn.stream.as_raw_fd(), id as usize, want.0, want.1)
            .is_ok()
    {
        conn.interest = want;
    }
}

/// Remove a connection: unregister, return outstanding credit, mark it
/// dead so blocked workers give up immediately.
fn close_conn(conns: &mut HashMap<u64, Conn>, poller: &Poller, shared: &Shared, id: u64) {
    let Some(conn) = conns.remove(&id) else {
        return;
    };
    let _ = poller.deregister(conn.stream.as_raw_fd());
    conn.shared.dead.store(true, Ordering::Release);
    let credit: usize = conn
        .write_q
        .iter()
        .filter(|f| f.credited)
        .map(|f| f.bytes.len())
        .sum();
    return_credit(&conn.shared, credit);
    let _ = conn.stream.shutdown(Shutdown::Both);
    shared.open_conns.fetch_sub(1, Ordering::Relaxed);
}

/// Everything [`handle_payload`] needs besides the connection itself.
struct LoopCtx<'a> {
    shared: &'a Arc<Shared>,
    config: &'a ServerConfig,
    out_tx: &'a Sender<(u64, Vec<u8>)>,
    waker: &'a Arc<Waker>,
    job_tx: Option<&'a SyncSender<Job>>,
}

#[derive(PartialEq)]
enum FrameAction {
    Continue,
    /// Stop reading; flush queued replies, then close.
    CloseAfterFlush,
}

fn error_frame(request_id: u64, code: ErrorCode, message: String) -> Vec<u8> {
    protocol::encode_response(request_id, &Response::Error { code, message }, 0)
}

/// Interpret one complete payload on the loop thread. Scalar replies
/// (Pong, HelloAck, typed errors) are pushed onto `replies` for the
/// caller to queue; operational requests are admitted to the worker
/// queue.
fn handle_payload(
    payload: &[u8],
    cshared: &Arc<ConnShared>,
    replies: &mut Vec<Vec<u8>>,
    ctx: &LoopCtx<'_>,
) -> FrameAction {
    let features = cshared.features.load(Ordering::Acquire);
    let frame = match protocol::parse_frame(payload, features) {
        Ok(f) => f,
        Err(FrameError::BadVersion(v)) => {
            // Nothing after the version byte can be trusted — not even
            // the request id. Reply on id 0 and hang up.
            replies.push(error_frame(
                0,
                ErrorCode::Unsupported,
                format!(
                    "unsupported protocol version {v} (this server speaks {})",
                    protocol::PROTOCOL_VERSION
                ),
            ));
            return FrameAction::CloseAfterFlush;
        }
        Err(FrameError::Unsupported {
            request_id,
            message,
        }) => {
            // The header parsed; the connection survives.
            replies.push(error_frame(request_id, ErrorCode::Unsupported, message));
            return FrameAction::Continue;
        }
        Err(FrameError::Malformed(e)) => {
            replies.push(error_frame(0, ErrorCode::BadRequest, e.to_string()));
            return FrameAction::CloseAfterFlush;
        }
    };
    let request_id = frame.request_id;
    match frame.opcode {
        protocol::OP_PING => {
            replies.push(protocol::encode_response(request_id, &Response::Pong, 0));
            FrameAction::Continue
        }
        protocol::OP_HELLO => match protocol::decode_request_body(frame.opcode, &frame.body) {
            Ok(Request::Hello { features: offered }) => {
                let accepted = offered & protocol::SUPPORTED_FEATURES;
                cshared.features.store(accepted, Ordering::Release);
                replies.push(protocol::encode_response(
                    request_id,
                    &Response::HelloAck { features: accepted },
                    0,
                ));
                FrameAction::Continue
            }
            _ => {
                replies.push(error_frame(
                    request_id,
                    ErrorCode::BadRequest,
                    "malformed hello".into(),
                ));
                FrameAction::CloseAfterFlush
            }
        },
        opcode => {
            if ctx.job_tx.is_none() || ctx.shared.shutdown.load(Ordering::SeqCst) {
                replies.push(error_frame(
                    request_id,
                    ErrorCode::ShuttingDown,
                    "server is shutting down".into(),
                ));
                return FrameAction::Continue;
            }
            admit(request_id, opcode, frame.body, cshared, replies, ctx)
        }
    }
}

/// Admit one operational request onto the worker queue, shedding load
/// when the queue is full.
fn admit(
    request_id: u64,
    opcode: u8,
    body: std::borrow::Cow<'_, [u8]>,
    cshared: &Arc<ConnShared>,
    replies: &mut Vec<Vec<u8>>,
    ctx: &LoopCtx<'_>,
) -> FrameAction {
    let reply = ReplyHandle {
        conn: Arc::clone(cshared),
        out_tx: ctx.out_tx.clone(),
        waker: Arc::clone(ctx.waker),
        budget: ctx.config.outbound_budget.max(64 * 1024),
        shutdown: Arc::clone(&ctx.shared.shutdown),
        peak: Arc::clone(&ctx.shared.outbound_peak),
    };
    let deadline_of = |ms: u32| -> Option<Instant> {
        if ms > 0 {
            Some(Instant::now() + Duration::from_millis(ms as u64))
        } else {
            ctx.config.default_deadline.map(|d| Instant::now() + d)
        }
    };
    let (deadline, kind) = match opcode {
        // Decoding a large table is worker business; copy the raw body
        // out of the receive buffer and move on.
        protocol::OP_REGISTER => (
            None,
            JobKind::RegisterRaw {
                body: body.into_owned(),
            },
        ),
        protocol::OP_APPEND => (
            None,
            JobKind::AppendRaw {
                body: body.into_owned(),
            },
        ),
        _ => match protocol::decode_request_body(opcode, &body) {
            Ok(Request::Query {
                table,
                group_cols,
                deadline_ms,
                cache,
            }) => (
                deadline_of(deadline_ms),
                JobKind::Workload {
                    table,
                    universe: group_cols.clone(),
                    requests: vec![group_cols],
                    cache,
                },
            ),
            Ok(Request::SubmitWorkload {
                table,
                universe,
                requests,
                deadline_ms,
                cache,
            }) => (
                deadline_of(deadline_ms),
                JobKind::Workload {
                    table,
                    universe,
                    requests,
                    cache,
                },
            ),
            Ok(Request::SqlQuery {
                sql,
                deadline_ms,
                cache,
            }) => (deadline_of(deadline_ms), JobKind::Sql { sql, cache }),
            Ok(Request::Stats) => (None, JobKind::Stats),
            Err(e) => {
                // A body that does not parse: the framing itself is
                // intact, so reply with the decode diagnostic and
                // carry on.
                replies.push(error_frame(
                    request_id,
                    ErrorCode::BadRequest,
                    format!("malformed request (opcode {opcode:#04x}): {e}"),
                ));
                return FrameAction::Continue;
            }
            Ok(_) => {
                // A request this frame path never routes (e.g. a
                // second Hello): framing intact, reply and carry on.
                replies.push(error_frame(
                    request_id,
                    ErrorCode::BadRequest,
                    format!("malformed request (opcode {opcode:#04x})"),
                ));
                return FrameAction::Continue;
            }
        },
    };
    let job = Job {
        request_id,
        deadline,
        reply,
        kind,
    };
    match ctx.job_tx.expect("checked by caller").try_send(job) {
        Ok(()) => {}
        // Queue full: shed load, the client decides whether to retry.
        Err(TrySendError::Full(_)) => {
            ctx.shared.counters().busy_rejections += 1;
            replies.push(error_frame(
                request_id,
                ErrorCode::ServerBusy,
                "admission queue full; retry later".into(),
            ));
        }
        // Receiver gone: every worker has exited. Dropping the request
        // silently would hang the client's wait, so reply with a
        // terminal error instead.
        Err(TrySendError::Disconnected(_)) => {
            let (code, message) = if ctx.shared.shutdown.load(Ordering::SeqCst) {
                (
                    ErrorCode::ShuttingDown,
                    "server is shutting down".to_string(),
                )
            } else {
                (
                    ErrorCode::Internal,
                    "request queue is closed (no workers available)".to_string(),
                )
            };
            replies.push(error_frame(request_id, code, message));
        }
    }
    FrameAction::Continue
}

fn queue_frame(conn: &mut Conn, bytes: Vec<u8>, credited: bool) {
    conn.write_q.push_back(OutFrame {
        bytes,
        offset: 0,
        credited,
    });
}

#[derive(PartialEq)]
enum ConnVerdict {
    Alive,
    Broken,
}

/// Drain the socket: read until `WouldBlock`, handling every complete
/// frame as it surfaces.
fn handle_readable(conn: &mut Conn, ctx: &LoopCtx<'_>) -> ConnVerdict {
    loop {
        // Surface buffered frames before (and between) reads.
        loop {
            match conn.recv.try_frame(protocol::MAX_FRAME_LEN) {
                Ok(FrameStatus::Partial) => break,
                Ok(FrameStatus::Ready(s, e)) => {
                    let mut replies = Vec::new();
                    let action = {
                        let payload = conn.recv.payload(s, e);
                        handle_payload(payload, &conn.shared, &mut replies, ctx)
                    };
                    for frame in replies {
                        queue_frame(conn, frame, false);
                    }
                    if action == FrameAction::CloseAfterFlush {
                        conn.closing = true;
                        return ConnVerdict::Alive;
                    }
                }
                Err(e) => {
                    // Framing is unrecoverable (oversized declared
                    // length); reply and doom the connection.
                    queue_frame(
                        conn,
                        error_frame(0, ErrorCode::BadRequest, e.to_string()),
                        false,
                    );
                    conn.closing = true;
                    return ConnVerdict::Alive;
                }
            }
        }
        match conn.recv.fill(&mut conn.stream) {
            Ok(0) => {
                // Clean EOF; flush whatever is queued, then close.
                conn.closing = true;
                return ConnVerdict::Alive;
            }
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ConnVerdict::Alive,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ConnVerdict::Broken,
        }
    }
}

/// The connection core: every socket, one thread.
#[allow(clippy::too_many_arguments)]
fn event_loop(
    poller: Poller,
    waker: Arc<Waker>,
    listener: TcpListener,
    shared: Arc<Shared>,
    config: ServerConfig,
    out_tx: Sender<(u64, Vec<u8>)>,
    out_rx: Receiver<(u64, Vec<u8>)>,
    job_tx: SyncSender<Job>,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = FIRST_CONN_TOKEN;
    let mut listener = Some(listener);
    let mut job_tx = Some(job_tx);
    let mut events: Vec<Event> = Vec::new();
    let mut to_close: Vec<u64> = Vec::new();

    loop {
        events.clear();
        if poller.wait(&mut events, 200).is_err() {
            thread::sleep(Duration::from_millis(10));
        }

        if shared.shutdown.load(Ordering::SeqCst) {
            if let Some(l) = listener.take() {
                let _ = poller.deregister(l.as_raw_fd());
                // Dropping closes the listening socket.
            }
            // Dropping our senders lets workers drain and exit once
            // the handle drops its clones too.
            job_tx = None;
        }

        let ctx = LoopCtx {
            shared: &shared,
            config: &config,
            out_tx: &out_tx,
            waker: &waker,
            job_tx: job_tx.as_ref(),
        };

        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    let Some(l) = listener.as_ref() else { continue };
                    loop {
                        match l.accept() {
                            Ok((stream, _)) => {
                                let _ = stream.set_nodelay(true);
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                let id = next_id;
                                next_id += 1;
                                if poller
                                    .register(stream.as_raw_fd(), id as usize, true, false)
                                    .is_err()
                                {
                                    continue;
                                }
                                conns.insert(id, Conn::new(id, stream));
                                shared.open_conns.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => break,
                        }
                    }
                }
                TOKEN_WAKER => waker.drain(),
                token => {
                    let id = token as u64;
                    let Some(conn) = conns.get_mut(&id) else {
                        continue;
                    };
                    let mut broken = false;
                    if ev.readable && !conn.closing {
                        broken = handle_readable(conn, &ctx) == ConnVerdict::Broken;
                    }
                    if !broken && (ev.writable || !conn.write_q.is_empty()) {
                        broken = flush_conn(conn).is_err();
                    }
                    if !broken && ev.hangup && conn.write_q.is_empty() {
                        broken = true;
                    }
                    if broken || (conn.closing && conn.write_q.is_empty()) {
                        to_close.push(id);
                    } else {
                        update_interest(&poller, conn, id);
                    }
                }
            }
        }
        for id in to_close.drain(..) {
            close_conn(&mut conns, &poller, &shared, id);
        }

        // Frames queued by workers since the last pass.
        while let Ok((id, frame)) = out_rx.try_recv() {
            let Some(conn) = conns.get_mut(&id) else {
                // Connection already closed; its ConnShared is marked
                // dead, so the producer has stopped (or will, at its
                // next send). The credit died with the connection.
                continue;
            };
            queue_frame(conn, frame, true);
            if flush_conn(conn).is_err() || (conn.closing && conn.write_q.is_empty()) {
                to_close.push(id);
            } else {
                update_interest(&poller, conn, id);
            }
        }
        for id in to_close.drain(..) {
            close_conn(&mut conns, &poller, &shared, id);
        }

        if shared.shutdown.load(Ordering::SeqCst) && shared.workers_done.load(Ordering::SeqCst) {
            break;
        }
    }

    // Final drain: workers are gone, so out_rx holds the last frames.
    while let Ok((id, frame)) = out_rx.try_recv() {
        if let Some(conn) = conns.get_mut(&id) {
            queue_frame(conn, frame, true);
        }
    }
    let deadline = Instant::now() + FINAL_FLUSH_DEADLINE;
    while Instant::now() < deadline && conns.values().any(|c| !c.write_q.is_empty()) {
        events.clear();
        let _ = poller.wait(&mut events, 50);
        to_close.clear();
        for (&id, conn) in conns.iter_mut() {
            if conn.write_q.is_empty() {
                continue;
            }
            if flush_conn(conn).is_err() {
                to_close.push(id);
            } else {
                update_interest(&poller, conn, id);
            }
        }
        for id in to_close.drain(..) {
            close_conn(&mut conns, &poller, &shared, id);
        }
    }
    let ids: Vec<u64> = conns.keys().copied().collect();
    for id in ids {
        close_conn(&mut conns, &poller, &shared, id);
    }
}

fn worker_loop(rx: Arc<Mutex<Receiver<Job>>>, shared: Arc<Shared>) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        let Ok(job) = job else { break };
        process_job(job, &shared);
    }
}

/// Map an engine error to a wire error code.
fn error_code_for(e: &CoreError) -> ErrorCode {
    match e {
        CoreError::Exec(ExecError::Cancelled { .. }) => ErrorCode::Timeout,
        CoreError::Storage(StorageError::TableNotFound(_)) => ErrorCode::NotFound,
        // Schema mismatches on append/register are the client's doing.
        CoreError::Storage(StorageError::Malformed(_)) => ErrorCode::BadRequest,
        CoreError::InvalidWorkload(_) | CoreError::InvalidPlan(_) => ErrorCode::BadRequest,
        _ => ErrorCode::Internal,
    }
}

/// Reply to `job` with a typed error, counting a timeout as one.
fn reply_error(job: &Job, shared: &Shared, code: ErrorCode, message: String) {
    if code == ErrorCode::Timeout {
        shared.counters().timeouts += 1;
    }
    job.reply
        .send_response(job.request_id, &Response::Error { code, message });
}

fn process_job(job: Job, shared: &Shared) {
    shared.counters().requests += 1;
    match &job.kind {
        JobKind::RegisterRaw { body } => {
            match protocol::decode_request_body(protocol::OP_REGISTER, body) {
                Ok(Request::RegisterTable { name, table }) => {
                    // Bind before matching, so the session lock is released
                    // before the reply is sent.
                    let result = shared.session().register_table(name, table);
                    match result {
                        Ok(()) => {
                            job.reply.send_response(job.request_id, &Response::Ack);
                        }
                        Err(e) => reply_error(&job, shared, error_code_for(&e), e.to_string()),
                    }
                }
                _ => {
                    let message = "malformed register payload".into();
                    reply_error(&job, shared, ErrorCode::BadRequest, message);
                }
            }
        }
        JobKind::AppendRaw { body } => {
            match protocol::decode_request_body(protocol::OP_APPEND, body) {
                Ok(Request::Append { name, rows }) => {
                    let appended = rows.num_rows() as u64;
                    let result = shared.session().append(&name, rows);
                    match result {
                        Ok(_) => {
                            let mut counters = shared.counters();
                            counters.appends += 1;
                            counters.appended_rows += appended;
                            drop(counters);
                            job.reply.send_response(job.request_id, &Response::Ack);
                        }
                        Err(e) => reply_error(&job, shared, error_code_for(&e), e.to_string()),
                    }
                }
                _ => {
                    let message = "malformed append payload".into();
                    reply_error(&job, shared, ErrorCode::BadRequest, message);
                }
            }
        }
        JobKind::Workload {
            table,
            universe,
            requests,
            cache,
        } => {
            let mut ctx = request_ctx(job.deadline);
            match run_workload(shared, table, universe, requests, *cache, &mut ctx) {
                Ok(results) => {
                    stream_results(shared, &job.reply, job.request_id, &results, &ctx.metrics);
                }
                Err(e) => reply_error(&job, shared, error_code_for(&e), e.to_string()),
            }
        }
        JobKind::Sql { sql, cache } => {
            shared.counters().sql_queries += 1;
            let mut ctx = request_ctx(job.deadline);
            match run_sql(shared, sql, *cache, &mut ctx) {
                Ok(results) => {
                    stream_results(shared, &job.reply, job.request_id, &results, &ctx.metrics);
                }
                Err(SqlJobError::Sql(e)) => {
                    // A compile-time failure: the statement never ran.
                    // Unknown tables/columns are NotFound; everything
                    // else (syntax, types, unsupported shapes) is the
                    // client's request.
                    let code = match e.kind {
                        gbmqo_sqlfe::SqlErrorKind::Unresolved => ErrorCode::NotFound,
                        _ => ErrorCode::BadRequest,
                    };
                    reply_error(&job, shared, code, e.render(sql));
                }
                Err(SqlJobError::Core(e)) => {
                    reply_error(&job, shared, error_code_for(&e), e.to_string());
                }
            }
        }
        JobKind::Stats => {
            let json = stats_json(shared);
            job.reply
                .send_response(job.request_id, &Response::StatsReply { json });
        }
    }
}

/// A request's own execution state: a token tripping at its deadline
/// (which started at admission) and fresh counters.
fn request_ctx(deadline: Option<Instant>) -> QueryCtx {
    QueryCtx {
        cancel: deadline.map(CancelToken::with_deadline_at),
        ..QueryCtx::default()
    }
}

/// Why a SQL job failed: at compile time (parse/bind/lower — mapped to
/// `BadRequest`/`NotFound` with a caret diagnostic) or at run time
/// (mapped like any workload error).
enum SqlJobError {
    Sql(gbmqo_sqlfe::SqlError),
    Core(CoreError),
}

/// Compile and execute one SQL statement under the shared session on
/// behalf of `ctx` — the SQL sibling of [`run_workload`]. Every
/// statement, filtered or joined, runs its Group Bys through
/// `Session::run_workload_in`, so it shares the plan cache and
/// materialized aggregates with every other client.
fn run_sql(
    shared: &Shared,
    sql: &str,
    cache: CacheControl,
    ctx: &mut QueryCtx,
) -> Result<Vec<(String, Table)>, SqlJobError> {
    let mut session = shared.session();
    let lowered =
        gbmqo_sqlfe::compile(sql, session.engine().catalog()).map_err(SqlJobError::Sql)?;
    let out = gbmqo_sqlfe::execute(&lowered, &mut session, cache, ctx);
    drop(session);
    let results = out.map_err(SqlJobError::Core)?;
    shared.counters().total += ctx.metrics;
    Ok(results)
}

/// Stream one request's result tables as bounded chunks terminated by
/// a `Finish` frame. Returns `false` if the connection died mid-stream
/// (the rest of the result is abandoned).
///
/// Frames are encoded in place into one outgoing buffer, sent right
/// after a chunk that filled its row cap (every chunk but its set's
/// last) and before a frame that would push it past `chunk_bytes` (see
/// the module docs, "Streaming and backpressure").
fn stream_results(
    shared: &Shared,
    reply: &ReplyHandle,
    request_id: u64,
    results: &[(String, Table)],
    metrics: &ExecMetrics,
) -> bool {
    let features = reply.features();
    let mut out = Vec::new();
    let mut total_chunks: u32 = 0;
    let mut total_rows: u64 = 0;
    for (set_tag, table) in results {
        let rows = table.num_rows();
        let mut start = 0usize;
        let mut index: u32 = 0;
        let mut cap = shared.chunk_rows;
        loop {
            let end = (start + cap).min(rows);
            let last = end == rows;
            let mark = out.len();
            protocol::encode_chunk_frame_into(
                &mut out, request_id, set_tag, index, last, table, start, end, features,
            );
            // Over the byte cap with more than one row: take the frame
            // back and re-slice smaller. (A single giant row must go
            // out regardless.)
            if out.len() - mark > shared.chunk_bytes && end - start > 1 {
                out.truncate(mark);
                cap = ((end - start) / 2).max(1);
                continue;
            }
            if !send_before(shared, reply, &mut out, mark) {
                return false;
            }
            shared.streamed_chunks.fetch_add(1, Ordering::Relaxed);
            total_chunks += 1;
            total_rows += (end - start) as u64;
            index += 1;
            start = end;
            if last {
                break;
            }
            if !reply.send_frame(std::mem::take(&mut out)) {
                return false;
            }
        }
    }
    let mark = out.len();
    let finish = Response::Finish {
        total_chunks,
        total_rows,
        metrics_json: metrics.to_json(),
    };
    protocol::encode_response_into(&mut out, request_id, &finish, features);
    send_before(shared, reply, &mut out, mark) && reply.send_frame(out)
}

/// If the frame appended to `out` at `mark` took it past `chunk_bytes`,
/// send what preceded the frame on its own and keep the frame. Returns
/// `false` if the connection is gone.
fn send_before(shared: &Shared, reply: &ReplyHandle, out: &mut Vec<u8>, mark: usize) -> bool {
    if mark == 0 || out.len() <= shared.chunk_bytes {
        return true;
    }
    let frame = out.split_off(mark);
    reply.send_frame(std::mem::replace(out, frame))
}

/// Optimize and execute one workload under the shared session on
/// behalf of `ctx`. Because the session — and with it the materialized
/// aggregate cache — is shared by every connection, one client's
/// workload can be answered from supersets another client materialized
/// moments earlier.
fn run_workload(
    shared: &Shared,
    table: &str,
    universe: &[String],
    requests: &[Vec<String>],
    cache: CacheControl,
    ctx: &mut QueryCtx,
) -> gbmqo_core::Result<Vec<(String, Table)>> {
    let mut session = shared.session();
    let workload = {
        let base = session.engine().catalog().table(table)?.clone();
        let universe_refs: Vec<&str> = universe.iter().map(String::as_str).collect();
        let request_refs: Vec<Vec<&str>> = requests
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        Workload::new(table, &base, &universe_refs, &request_refs)?
    };
    let outcome = session.run_workload_in(&workload, cache, ctx);
    drop(session);
    let outcome = outcome?;
    shared.counters().total += ctx.metrics;
    Ok(outcome
        .report
        .results
        .into_iter()
        .map(|(set, t)| (workload.col_names(set).join(","), t))
        .collect())
}

/// Render the server-wide stats JSON: admission/streaming
/// counters, plan-cache statistics, materialized-aggregate-cache
/// statistics, catalog-entry and connection counts, and the
/// accumulated [`ExecMetrics`] (same field names as
/// `gbmqo profile --json`).
fn stats_json(shared: &Shared) -> String {
    let (cache, mat, catalog_tables) = {
        let session = shared.session();
        (
            session.cache_stats(),
            session.mat_cache_stats(),
            session.engine().catalog().entries().count(),
        )
    };
    // Integer percentage so `stats_field` (digits-only) can read it.
    let mat_hit_pct = (mat.hits * 100)
        .checked_div(mat.hits + mat.misses)
        .unwrap_or(0);
    let counters = shared.counters();
    let mut fields: Vec<(&str, u64)> = vec![
        ("requests", counters.requests),
        ("busy_rejections", counters.busy_rejections),
        ("timeouts", counters.timeouts),
        ("appends", counters.appends),
        ("appended_rows", counters.appended_rows),
        ("sql_queries", counters.sql_queries),
        (
            "open_connections",
            shared.open_conns.load(Ordering::Relaxed),
        ),
        (
            "streamed_chunks",
            shared.streamed_chunks.load(Ordering::Relaxed),
        ),
        (
            "outbound_peak_bytes",
            shared.outbound_peak.load(Ordering::Relaxed),
        ),
        ("catalog_tables", catalog_tables as u64),
        ("cache_hits", cache.hits),
        ("cache_misses", cache.misses),
        ("matcache_entries", mat.entries),
        ("matcache_hit_pct", mat_hit_pct),
    ];
    fields.extend(counters.total.fields());
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Extract an integer field from a stats JSON object (the flat format
/// produced by the server; not a general JSON parser).
pub fn stats_field(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{Column, DataType, Field, Schema};

    #[test]
    fn stats_field_parses_flat_json() {
        let json = "{\"requests\":12,\"timeouts\":0,\"rows_scanned\":34567}";
        assert_eq!(stats_field(json, "requests"), Some(12));
        assert_eq!(stats_field(json, "timeouts"), Some(0));
        assert_eq!(stats_field(json, "rows_scanned"), Some(34567));
        assert_eq!(stats_field(json, "absent"), None);
    }

    #[test]
    fn error_codes_map_from_core_errors() {
        assert_eq!(
            error_code_for(&CoreError::Exec(ExecError::Cancelled { timed_out: true })),
            ErrorCode::Timeout
        );
        assert_eq!(
            error_code_for(&CoreError::Storage(StorageError::TableNotFound("x".into()))),
            ErrorCode::NotFound
        );
        assert_eq!(
            error_code_for(&CoreError::InvalidWorkload("no".into())),
            ErrorCode::BadRequest
        );
        assert_eq!(
            error_code_for(&CoreError::InvalidSession("odd".into())),
            ErrorCode::Internal
        );
    }

    #[test]
    fn reply_handle_blocks_on_budget_and_resumes_on_credit() {
        let (handle, rx) = test_reply_handle(1000);
        // First frame takes the whole budget.
        assert!(handle.send_frame(vec![0u8; 900]));
        // Second would exceed it; unblock by returning credit from
        // another thread (what the loop does as bytes hit the socket).
        let conn = Arc::clone(&handle.conn);
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(60));
            return_credit(&conn, 900);
        });
        let started = Instant::now();
        assert!(handle.send_frame(vec![0u8; 900]));
        assert!(
            started.elapsed() >= Duration::from_millis(40),
            "second send must have waited for credit"
        );
        t.join().unwrap();
        assert_eq!(rx.try_iter().count(), 2);
    }

    #[test]
    fn reply_handle_gives_up_on_dead_connection() {
        let (handle, _rx) = test_reply_handle(1000);
        handle.conn.dead.store(true, Ordering::Release);
        assert!(!handle.send_frame(vec![0u8; 10]));
    }

    /// Server state for driving `stream_results` without a running loop.
    fn test_shared(chunk_rows: usize, chunk_bytes: usize) -> Shared {
        Shared {
            session: Mutex::new(Session::builder().build().expect("empty session")),
            counters: Mutex::new(Counters::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
            workers_done: AtomicBool::new(false),
            chunk_rows,
            chunk_bytes,
            streamed_chunks: AtomicU64::new(0),
            outbound_peak: Arc::new(AtomicU64::new(0)),
            open_conns: AtomicU64::new(0),
        }
    }

    /// A result set of `rows` rows whose string column is `width` bytes
    /// a row, distinct per row.
    fn result_set(tag: &str, rows: usize, width: usize) -> (String, Table) {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Utf8),
        ])
        .unwrap();
        let strs: Vec<String> = (0..rows).map(|i| format!("{i:0width$}")).collect();
        let table = Table::new(
            schema,
            vec![
                Column::from_i64((0..rows as i64).collect()),
                Column::from_strs(&strs),
            ],
        )
        .unwrap();
        (tag.to_string(), table)
    }

    /// Split one send into its complete frames.
    fn frames_of(send: &[u8]) -> Vec<&[u8]> {
        let mut frames = Vec::new();
        let mut rest = send;
        while !rest.is_empty() {
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            frames.push(&rest[..4 + len]);
            rest = &rest[4 + len..];
        }
        frames
    }

    /// The frames a reply is made of, one `encode_*` call each: the
    /// bytes a client must receive, however the sends cut them.
    fn reference_frames(shared: &Shared, results: &[(String, Table)]) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let mut total_rows = 0u64;
        for (tag, table) in results {
            let (mut start, mut index, mut cap) = (0usize, 0u32, shared.chunk_rows);
            loop {
                let end = (start + cap).min(table.num_rows());
                let last = end == table.num_rows();
                let frame = protocol::encode_chunk_frame(7, tag, index, last, table, start, end, 0);
                if frame.len() > shared.chunk_bytes && end - start > 1 {
                    cap = ((end - start) / 2).max(1);
                    continue;
                }
                frames.push(frame);
                total_rows += (end - start) as u64;
                index += 1;
                start = end;
                if last {
                    break;
                }
            }
        }
        let finish = Response::Finish {
            total_chunks: frames.len() as u32,
            total_rows,
            metrics_json: ExecMetrics::new().to_json(),
        };
        frames.push(protocol::encode_response(7, &finish, 0));
        frames
    }

    /// Stream `results` through a detached handle; return the sends.
    fn sends_of(shared: &Shared, results: &[(String, Table)]) -> Vec<Vec<u8>> {
        let (handle, rx) = test_reply_handle(usize::MAX);
        assert!(stream_results(
            shared,
            &handle,
            7,
            results,
            &ExecMetrics::new()
        ));
        let sends: Vec<Vec<u8>> = rx.try_iter().map(|(_, bytes)| bytes).collect();
        let wire: Vec<u8> = sends.concat();
        assert_eq!(
            wire,
            reference_frames(shared, results).concat(),
            "the sends must carry the reply's frames byte for byte"
        );
        sends
    }

    fn chunk_rows_of(frame: &[u8]) -> (String, usize) {
        match protocol::decode_response(frame, 0).unwrap().1 {
            Response::Chunk { set_tag, table, .. } => (set_tag, table.num_rows()),
            other => panic!("expected a chunk, got {other:?}"),
        }
    }

    #[test]
    fn a_reply_under_one_chunk_is_one_send() {
        let shared = test_shared(100, 1 << 20);
        let results = vec![
            result_set("a", 3, 4),
            result_set("b", 0, 4),
            result_set("a,b", 7, 4),
        ];
        let sends = sends_of(&shared, &results);
        assert_eq!(sends.len(), 1, "one reply, one send");
        let frames = frames_of(&sends[0]);
        assert_eq!(frames.len(), 4);
        let chunks: Vec<(String, usize)> = frames[..3].iter().map(|f| chunk_rows_of(f)).collect();
        assert_eq!(
            chunks,
            [("a".into(), 3), ("b".into(), 0), ("a,b".into(), 7)]
        );
        match protocol::decode_response(frames[3], 0).unwrap() {
            (
                7,
                Response::Finish {
                    total_chunks: 3,
                    total_rows: 10,
                    ..
                },
            ) => {}
            other => panic!("expected the Finish totals, got {other:?}"),
        }
        assert_eq!(shared.streamed_chunks.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn full_chunks_go_out_as_they_are_made() {
        // A small set, then k = 3 full chunks of 10 rows and a 4-row
        // tail: the small set rides in the first full chunk's send, and
        // the tail and the `Finish` share the last of k + 1 sends.
        let shared = test_shared(10, 1 << 20);
        let results = vec![result_set("s", 2, 4), result_set("b", 34, 4)];
        let sends = sends_of(&shared, &results);
        assert_eq!(sends.len(), 4);
        let first = frames_of(&sends[0]);
        assert_eq!(first.len(), 2);
        assert_eq!(chunk_rows_of(first[0]), ("s".into(), 2));
        assert_eq!(chunk_rows_of(first[1]), ("b".into(), 10));
        for send in &sends[1..3] {
            let frames = frames_of(send);
            assert_eq!(frames.len(), 1);
            assert_eq!(chunk_rows_of(frames[0]), ("b".into(), 10));
        }
        let last = frames_of(&sends[3]);
        assert_eq!(last.len(), 2);
        assert_eq!(chunk_rows_of(last[0]), ("b".into(), 4));
        assert!(matches!(
            protocol::decode_response(last[1], 0).unwrap().1,
            Response::Finish {
                total_chunks: 5,
                total_rows: 36,
                ..
            }
        ));
    }

    #[test]
    fn re_sliced_sends_stay_within_chunk_bytes() {
        // Rows of ~200 bytes against a 2 KiB cap: 100-row chunks are
        // re-sliced, small sets pile up until the next frame would
        // overflow the cap, and a single 5 KB row goes out alone.
        let shared = test_shared(100, 2048);
        let mut results = vec![result_set("wide", 60, 200)];
        results.extend((0..12).map(|i| result_set(&format!("small{i}"), 2, 150)));
        results.push(result_set("giant", 1, 5000));
        results.push(result_set("after", 3, 150));
        let sends = sends_of(&shared, &results);
        assert!(sends.len() > 3);
        for send in &sends {
            assert!(
                send.len() <= shared.chunk_bytes || frames_of(send).len() == 1,
                "a send of {} bytes and {} frames",
                send.len(),
                frames_of(send).len()
            );
        }
        assert!(sends.iter().any(|s| s.len() > shared.chunk_bytes));
        assert!(sends.iter().any(|s| frames_of(s).len() > 1));
    }

    #[test]
    fn a_dead_connection_stops_the_stream() {
        // One byte of budget: the first send goes out, the second waits
        // for credit; the connection dies while it waits.
        let shared = test_shared(10, 1 << 20);
        let results = vec![result_set("b", 45, 4)];
        let (handle, rx) = test_reply_handle(1);
        let conn = Arc::clone(&handle.conn);
        let reader = thread::spawn(move || {
            let first = rx.recv().expect("the first send arrives");
            conn.dead.store(true, Ordering::Release);
            conn.cv.notify_all();
            (first, rx)
        });
        assert!(!stream_results(
            &shared,
            &handle,
            7,
            &results,
            &ExecMetrics::new()
        ));
        let (first, rx) = reader.join().unwrap();
        assert_eq!(frames_of(&first.1).len(), 1);
        assert_eq!(
            rx.try_iter().count(),
            0,
            "nothing follows a dead connection"
        );
    }
}
