//! Wire protocol **v3**: versioned frames, negotiated features,
//! streamed chunked results.
//!
//! Every frame is `u32 payload_len (LE)` followed by the payload. The
//! payload starts with an 11-byte header that is never compressed:
//!
//! ```text
//! u8 version  -- PROTOCOL_VERSION (3)
//! u8 flags    -- FLAG_COMPRESSED is the only assigned bit
//! u64 id (LE) -- client-chosen request id, echoed in every response
//! u8 opcode
//! ```
//!
//! followed by an opcode-specific body. With [`FLAG_COMPRESSED`] set,
//! the body is `u32 raw_len (LE)` followed by an LZ4-style block (see
//! [`crate::compress`]); the flag is only legal after both ends
//! negotiated [`FEATURE_LZ4`] via `Hello`/`HelloAck`.
//!
//! Version handling is strict so that failures are *clean*: a frame
//! whose first byte is not the known version is answered with an
//! `Unsupported` error (id 0 — the header cannot be trusted) and the
//! connection is closed; unknown flag bits or an un-negotiated
//! compressed frame get an `Unsupported` error echoing the parsed id,
//! and the connection survives. A v1 client's first payload byte was
//! the low byte of its request id, so stale clients surface as an
//! unsupported *version*, never as a garbage decode.
//!
//! Version 3 has version 2's frames, opcodes and features; what moved
//! is the table layout inside `RegisterTable`, `Append` and `Chunk`
//! bodies. Integer, date and dictionary-code columns are frame-of-
//! reference bit-packed at the width each chunk's values need (see
//! [`crate::codec`]), where version 2 wrote 8, 4 and 4 bytes a row and
//! left it to LZ4 to find the slack. There is one table layout, not a
//! negotiated second one, so a version 2 peer could not tell a packed
//! run from fixed-width values: the version byte moved, and that peer
//! gets the clean `Unsupported` above.
//!
//! A streaming response to one request is a sequence of bounded
//! [`Response::Chunk`] frames terminated by one [`Response::Finish`]
//! carrying totals and execution metrics (or cut short by a single
//! [`Response::Error`]). Scalar responses (`Pong`, `Ack`, `HelloAck`,
//! `StatsReply`) are single frames.

use crate::codec::{self, Cursor};
use crate::compress;
use crate::error::{ErrorCode, ServerError, ServerResult};
use gbmqo_core::CacheControl;
use gbmqo_storage::Table;
use std::borrow::Cow;
use std::io::{Read, Write};

/// The one protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 3;

/// Frame flag: the body (not the header) is an LZ4-style block.
pub const FLAG_COMPRESSED: u8 = 0x01;

/// Feature bit (in `Hello`/`HelloAck` masks): LZ4-style body
/// compression may be used by either side.
pub const FEATURE_LZ4: u32 = 0x01;

/// All feature bits this build understands; `HelloAck` carries the
/// intersection of the client's offer with this mask.
pub const SUPPORTED_FEATURES: u32 = FEATURE_LZ4;

/// Bytes of uncompressed header at the start of every payload.
pub const HEADER_LEN: usize = 11;

/// Upper bound on a single frame's payload. Large enough for a
/// multi-million-row table registration, small enough to bound a
/// hostile length prefix.
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// Bodies smaller than this are never worth compressing.
const COMPRESS_MIN: usize = 512;

/// A client-to-server message.
#[derive(Debug)]
pub enum Request {
    /// Feature negotiation; by convention the first frame on a
    /// connection. Answered inline with [`Response::HelloAck`].
    Hello {
        /// Feature bits the client offers (see [`FEATURE_LZ4`]).
        features: u32,
    },
    /// Liveness / latency probe; answered inline by the connection
    /// core without touching the admission queue.
    Ping,
    /// Register (or replace) a base table under `name`.
    RegisterTable {
        /// Catalog name for the table.
        name: String,
        /// The table payload.
        table: Table,
    },
    /// One Group By over a registered table, run as a one-set workload.
    Query {
        /// Source table name.
        table: String,
        /// Grouping columns (the requested grouping set).
        group_cols: Vec<String>,
        /// Per-request deadline in milliseconds; `0` means none.
        deadline_ms: u32,
        /// Materialized-aggregate-cache behavior for this request.
        cache: CacheControl,
    },
    /// A full multi-query workload, optimized and executed as one plan.
    SubmitWorkload {
        /// Source table name.
        table: String,
        /// Column universe the grouping sets draw from.
        universe: Vec<String>,
        /// The requested grouping sets.
        requests: Vec<Vec<String>>,
        /// Per-request deadline in milliseconds; `0` means none.
        deadline_ms: u32,
        /// Materialized-aggregate-cache behavior for this request.
        cache: CacheControl,
    },
    /// Fetch server-wide counters and accumulated execution metrics.
    Stats,
    /// Stream rows onto an existing base table. The appended range is
    /// recorded as a delta, so cached aggregates of the table refresh
    /// incrementally instead of being invalidated (the session's
    /// [`gbmqo_core::RefreshPolicy`] decides when). Schemas must match
    /// the registered table's.
    Append {
        /// Catalog name of the table to extend.
        name: String,
        /// The rows to append.
        rows: Table,
    },
    /// One SQL statement (the `gbmqo-sqlfe` subset: GROUPING
    /// SETS/CUBE/ROLLUP over a star join). The text is parsed, bound
    /// against the server catalog, lowered, and executed; results
    /// stream back as the standard [`Response::Chunk`] sequence with
    /// one `set_tag` per grouping set. Parse/bind errors come back as
    /// a single structured [`Response::Error`].
    SqlQuery {
        /// UTF-8 statement text (at most [`MAX_SQL_LEN`] bytes).
        sql: String,
        /// Per-request deadline in milliseconds; `0` means none.
        deadline_ms: u32,
        /// Materialized-aggregate-cache behavior for this request.
        cache: CacheControl,
    },
}

/// Upper bound on the byte length of one [`Request::SqlQuery`]
/// statement. Generous for any handwritten query, small enough that a
/// hostile length prefix cannot balloon the decode.
pub const MAX_SQL_LEN: usize = 1 << 20;

/// Request opcode: [`Request::Ping`].
pub const OP_PING: u8 = 0x00;
/// Request opcode: [`Request::RegisterTable`].
pub const OP_REGISTER: u8 = 0x01;
/// Request opcode: [`Request::Query`].
pub const OP_QUERY: u8 = 0x02;
/// Request opcode: [`Request::SubmitWorkload`].
pub const OP_WORKLOAD: u8 = 0x03;
/// Request opcode: [`Request::Stats`].
pub const OP_STATS: u8 = 0x04;
/// Request opcode: [`Request::Hello`].
pub const OP_HELLO: u8 = 0x05;
/// Request opcode: [`Request::Append`].
pub const OP_APPEND: u8 = 0x06;
/// Request opcode: [`Request::SqlQuery`].
pub const OP_SQL: u8 = 0x07;

/// A server-to-client message.
#[derive(Debug)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Acknowledges a [`Request::RegisterTable`].
    Ack,
    /// Reply to [`Request::Hello`]: the accepted feature intersection.
    HelloAck {
        /// Feature bits both sides will honor from now on.
        features: u32,
    },
    /// One bounded slice of a streaming result. A grouping set's rows
    /// arrive as `chunk_index = 0, 1, ...` with `last_in_set` on the
    /// final slice; each chunk is a self-contained columnar table.
    Chunk {
        /// Which grouping set this chunk answers (comma-joined column
        /// list, or `""` for a single-query response).
        set_tag: String,
        /// Position of this chunk within its grouping set.
        chunk_index: u32,
        /// Whether this is the final chunk of its grouping set.
        last_in_set: bool,
        /// The rows of this chunk.
        table: Table,
    },
    /// Terminates a streaming response.
    Finish {
        /// Number of [`Response::Chunk`] frames that preceded it.
        total_chunks: u32,
        /// Total rows across all chunks, for integrity checking.
        total_rows: u64,
        /// Execution metrics for the request, as flat JSON.
        metrics_json: String,
    },
    /// Reply to [`Request::Stats`]: a flat JSON object.
    StatsReply {
        /// JSON text (see `stats_json` in the server).
        json: String,
    },
    /// The request failed; no further frames follow for this id.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Response opcode: [`Response::Pong`].
pub const OP_PONG: u8 = 0x80;
/// Response opcode: [`Response::Ack`].
pub const OP_ACK: u8 = 0x81;
/// Response opcode: [`Response::Chunk`].
pub const OP_RESULT_CHUNK: u8 = 0x82;
/// Response opcode: [`Response::Finish`].
pub const OP_FINISH: u8 = 0x83;
/// Response opcode: [`Response::StatsReply`].
pub const OP_STATS_REPLY: u8 = 0x84;
/// Response opcode: [`Response::HelloAck`].
pub const OP_HELLO_ACK: u8 = 0x85;
/// Response opcode: [`Response::Error`].
pub const OP_ERROR: u8 = 0xFF;

fn cache_code(cache: CacheControl) -> u8 {
    match cache {
        CacheControl::Default => 0,
        CacheControl::Bypass => 1,
        CacheControl::Refresh => 2,
    }
}

fn cache_from_code(code: u8) -> ServerResult<CacheControl> {
    match code {
        0 => Ok(CacheControl::Default),
        1 => Ok(CacheControl::Bypass),
        2 => Ok(CacheControl::Refresh),
        other => Err(ServerError::Protocol(format!(
            "unknown cache-control code {other:#04x}"
        ))),
    }
}

/// Assemble a complete wire frame — length prefix, header, body — ready
/// to hand to `write_all` (or the connection core's write queue)
/// verbatim. The body is compressed when `features` allows it and
/// compression actually pays.
pub fn encode_frame(request_id: u64, opcode: u8, body: &[u8], features: u32) -> Vec<u8> {
    let mut flags = 0u8;
    let mut wire_body: Cow<'_, [u8]> = Cow::Borrowed(body);
    if features & FEATURE_LZ4 != 0 && body.len() >= COMPRESS_MIN {
        let packed = compress::compress(body);
        if packed.len() + 4 < body.len() {
            let mut framed = Vec::with_capacity(packed.len() + 4);
            codec::put_u32(&mut framed, body.len() as u32);
            framed.extend_from_slice(&packed);
            flags |= FLAG_COMPRESSED;
            wire_body = Cow::Owned(framed);
        }
    }
    let payload_len = HEADER_LEN + wire_body.len();
    let mut buf = Vec::with_capacity(4 + payload_len);
    codec::put_u32(&mut buf, payload_len as u32);
    buf.push(PROTOCOL_VERSION);
    buf.push(flags);
    codec::put_u64(&mut buf, request_id);
    buf.push(opcode);
    buf.extend_from_slice(&wire_body);
    buf
}

/// Strip a full frame's length prefix, validating that the declared
/// length matches what follows. The returned slice is what
/// [`parse_frame`] expects (and what [`codec::RecvBuf`] yields).
pub fn frame_payload(frame: &[u8]) -> ServerResult<&[u8]> {
    if frame.len() < 4 {
        return Err(ServerError::Protocol(
            "frame shorter than its prefix".into(),
        ));
    }
    let declared = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    let payload = &frame[4..];
    if declared != payload.len() {
        return Err(ServerError::Protocol(format!(
            "frame length prefix {declared} does not match payload length {}",
            payload.len()
        )));
    }
    Ok(payload)
}

/// Why a payload could not be accepted. The three cases demand
/// different connection-level handling, so they are distinct.
#[derive(Debug)]
pub enum FrameError {
    /// Unknown version byte: nothing after it can be trusted. Reply
    /// `Unsupported` with id 0 and close the connection.
    BadVersion(u8),
    /// The header parsed (so `request_id` is real) but the frame uses
    /// flag bits or features this connection cannot honor. Reply
    /// `Unsupported` echoing the id; the connection survives.
    Unsupported {
        /// The parsed request id, safe to echo.
        request_id: u64,
        /// Human-readable reason.
        message: String,
    },
    /// The payload is structurally broken (truncated, bad lengths, a
    /// compressed block that does not decode, ...).
    Malformed(ServerError),
}

impl From<ServerError> for FrameError {
    fn from(e: ServerError) -> Self {
        FrameError::Malformed(e)
    }
}

impl FrameError {
    /// Collapse into a plain [`ServerError`] for callers (like the
    /// client) that do not branch on the category.
    pub fn into_server_error(self) -> ServerError {
        match self {
            FrameError::BadVersion(v) => {
                ServerError::Protocol(format!("unsupported protocol version {v}"))
            }
            FrameError::Unsupported { message, .. } => ServerError::Protocol(message),
            FrameError::Malformed(e) => e,
        }
    }
}

/// A parsed frame header plus its (decompressed, if needed) body.
#[derive(Debug)]
pub struct FrameIn<'a> {
    /// Echoed request id.
    pub request_id: u64,
    /// The opcode byte; interpret with `decode_request_body` /
    /// `decode_response_body`.
    pub opcode: u8,
    /// Opcode-specific body: borrowed straight from the receive buffer
    /// for plain frames, owned only when a compressed block had to be
    /// expanded.
    pub body: Cow<'a, [u8]>,
}

/// Parse a payload's version, flags, and header, expanding a
/// compressed body. `features` is this connection's negotiated set;
/// a compressed frame without [`FEATURE_LZ4`] negotiated is
/// [`FrameError::Unsupported`], not a decode attempt.
pub fn parse_frame(payload: &[u8], features: u32) -> Result<FrameIn<'_>, FrameError> {
    if payload.is_empty() {
        return Err(ServerError::Protocol("empty frame".into()).into());
    }
    let version = payload[0];
    if version != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    if payload.len() < HEADER_LEN {
        return Err(ServerError::Protocol("truncated frame header".into()).into());
    }
    let flags = payload[1];
    let request_id = u64::from_le_bytes(payload[2..10].try_into().unwrap());
    let opcode = payload[10];
    if flags & !FLAG_COMPRESSED != 0 {
        return Err(FrameError::Unsupported {
            request_id,
            message: format!("unknown flag bits {:#04x}", flags & !FLAG_COMPRESSED),
        });
    }
    let raw = &payload[HEADER_LEN..];
    let body = if flags & FLAG_COMPRESSED != 0 {
        if features & FEATURE_LZ4 == 0 {
            return Err(FrameError::Unsupported {
                request_id,
                message: "compressed frame without negotiated compression".into(),
            });
        }
        let mut cur = Cursor::new(raw);
        let raw_len = cur.u32()? as usize;
        if raw_len > MAX_FRAME_LEN {
            return Err(
                ServerError::Protocol("declared decompressed size out of bounds".into()).into(),
            );
        }
        Cow::Owned(compress::decompress(&raw[4..], raw_len)?)
    } else {
        Cow::Borrowed(raw)
    };
    Ok(FrameIn {
        request_id,
        opcode,
        body,
    })
}

fn encode_request_body(req: &Request) -> (u8, Vec<u8>) {
    let mut buf = Vec::new();
    let opcode = match req {
        Request::Hello { features } => {
            codec::put_u32(&mut buf, *features);
            OP_HELLO
        }
        Request::Ping => OP_PING,
        Request::RegisterTable { name, table } => {
            codec::put_str(&mut buf, name);
            codec::put_table(&mut buf, table);
            OP_REGISTER
        }
        Request::Query {
            table,
            group_cols,
            deadline_ms,
            cache,
        } => {
            codec::put_str(&mut buf, table);
            codec::put_str_list(&mut buf, group_cols);
            codec::put_u32(&mut buf, *deadline_ms);
            buf.push(cache_code(*cache));
            OP_QUERY
        }
        Request::SubmitWorkload {
            table,
            universe,
            requests,
            deadline_ms,
            cache,
        } => {
            codec::put_str(&mut buf, table);
            codec::put_str_list(&mut buf, universe);
            codec::put_u32(&mut buf, requests.len() as u32);
            for r in requests {
                codec::put_str_list(&mut buf, r);
            }
            codec::put_u32(&mut buf, *deadline_ms);
            buf.push(cache_code(*cache));
            OP_WORKLOAD
        }
        Request::Stats => OP_STATS,
        Request::Append { name, rows } => {
            codec::put_str(&mut buf, name);
            codec::put_table(&mut buf, rows);
            OP_APPEND
        }
        Request::SqlQuery {
            sql,
            deadline_ms,
            cache,
        } => {
            codec::put_str(&mut buf, sql);
            codec::put_u32(&mut buf, *deadline_ms);
            buf.push(cache_code(*cache));
            OP_SQL
        }
    };
    (opcode, buf)
}

/// Serialize a request payload (without the frame length prefix).
/// `features` is the negotiated set; pass `0` before `HelloAck`.
pub fn encode_request(request_id: u64, req: &Request, features: u32) -> Vec<u8> {
    let (opcode, body) = encode_request_body(req);
    encode_frame(request_id, opcode, &body, features)
}

/// Interpret a request body for a known opcode.
pub fn decode_request_body(opcode: u8, body: &[u8]) -> ServerResult<Request> {
    let mut cur = Cursor::new(body);
    let req = match opcode {
        OP_HELLO => Request::Hello {
            features: cur.u32()?,
        },
        OP_PING => Request::Ping,
        OP_REGISTER => Request::RegisterTable {
            name: cur.str()?,
            table: codec::get_table(&mut cur)?,
        },
        OP_QUERY => Request::Query {
            table: cur.str()?,
            group_cols: cur.str_list()?,
            deadline_ms: cur.u32()?,
            cache: cache_from_code(cur.u8()?)?,
        },
        OP_WORKLOAD => {
            let table = cur.str()?;
            let universe = cur.str_list()?;
            let n = cur.u32()? as usize;
            if n > codec::MAX_WIRE_LEN {
                return Err(ServerError::Protocol("request count out of bounds".into()));
            }
            let requests = (0..n)
                .map(|_| cur.str_list())
                .collect::<ServerResult<Vec<_>>>()?;
            Request::SubmitWorkload {
                table,
                universe,
                requests,
                deadline_ms: cur.u32()?,
                cache: cache_from_code(cur.u8()?)?,
            }
        }
        OP_STATS => Request::Stats,
        OP_APPEND => Request::Append {
            name: cur.str()?,
            rows: codec::get_table(&mut cur)?,
        },
        OP_SQL => {
            let sql = cur.str()?;
            if sql.len() > MAX_SQL_LEN {
                return Err(ServerError::Protocol(format!(
                    "SQL statement of {} bytes exceeds the {} byte limit",
                    sql.len(),
                    MAX_SQL_LEN
                )));
            }
            Request::SqlQuery {
                sql,
                deadline_ms: cur.u32()?,
                cache: cache_from_code(cur.u8()?)?,
            }
        }
        other => {
            return Err(ServerError::Protocol(format!(
                "unknown request opcode {other:#04x}"
            )))
        }
    };
    cur.finish()?;
    Ok(req)
}

/// Parse a full wire frame (as produced by [`encode_request`]) back
/// into `(request_id, request)`. Callers that must distinguish
/// version/flag failures (the server core) use [`parse_frame`] +
/// [`decode_request_body`] instead.
pub fn decode_request(frame: &[u8], features: u32) -> ServerResult<(u64, Request)> {
    let payload = frame_payload(frame)?;
    let frame = parse_frame(payload, features).map_err(FrameError::into_server_error)?;
    let req = decode_request_body(frame.opcode, &frame.body)?;
    Ok((frame.request_id, req))
}

fn encode_response_body(resp: &Response) -> (u8, Vec<u8>) {
    let mut buf = Vec::new();
    let opcode = match resp {
        Response::Pong => OP_PONG,
        Response::Ack => OP_ACK,
        Response::HelloAck { features } => {
            codec::put_u32(&mut buf, *features);
            OP_HELLO_ACK
        }
        Response::Chunk {
            set_tag,
            chunk_index,
            last_in_set,
            table,
        } => {
            codec::put_str(&mut buf, set_tag);
            codec::put_u32(&mut buf, *chunk_index);
            buf.push(*last_in_set as u8);
            codec::put_table(&mut buf, table);
            OP_RESULT_CHUNK
        }
        Response::Finish {
            total_chunks,
            total_rows,
            metrics_json,
        } => {
            codec::put_u32(&mut buf, *total_chunks);
            codec::put_u64(&mut buf, *total_rows);
            codec::put_str(&mut buf, metrics_json);
            OP_FINISH
        }
        Response::StatsReply { json } => {
            codec::put_str(&mut buf, json);
            OP_STATS_REPLY
        }
        Response::Error { code, message } => {
            buf.push(*code as u8);
            codec::put_str(&mut buf, message);
            OP_ERROR
        }
    };
    (opcode, buf)
}

/// Serialize a response into a complete wire frame.
pub fn encode_response(request_id: u64, resp: &Response, features: u32) -> Vec<u8> {
    let (opcode, body) = encode_response_body(resp);
    encode_frame(request_id, opcode, &body, features)
}

/// Serialize one `Chunk` response directly from a row range of a
/// result table — the streaming hot path. Equivalent to building
/// [`Response::Chunk`] with a sliced table, minus the copy.
#[allow(clippy::too_many_arguments)]
pub fn encode_chunk_frame(
    request_id: u64,
    set_tag: &str,
    chunk_index: u32,
    last_in_set: bool,
    table: &Table,
    start: usize,
    end: usize,
    features: u32,
) -> Vec<u8> {
    let mut body = Vec::new();
    codec::put_str(&mut body, set_tag);
    codec::put_u32(&mut body, chunk_index);
    body.push(last_in_set as u8);
    codec::put_table_slice(&mut body, table, start, end);
    encode_frame(request_id, OP_RESULT_CHUNK, &body, features)
}

/// Interpret a response body for a known opcode.
pub fn decode_response_body(opcode: u8, body: &[u8]) -> ServerResult<Response> {
    let mut cur = Cursor::new(body);
    let resp = match opcode {
        OP_PONG => Response::Pong,
        OP_ACK => Response::Ack,
        OP_HELLO_ACK => Response::HelloAck {
            features: cur.u32()?,
        },
        OP_RESULT_CHUNK => Response::Chunk {
            set_tag: cur.str()?,
            chunk_index: cur.u32()?,
            last_in_set: cur.u8()? != 0,
            table: codec::get_table(&mut cur)?,
        },
        OP_FINISH => Response::Finish {
            total_chunks: cur.u32()?,
            total_rows: cur.u64()?,
            metrics_json: cur.str()?,
        },
        OP_STATS_REPLY => Response::StatsReply { json: cur.str()? },
        OP_ERROR => {
            let code = ErrorCode::from_u8(cur.u8()?)
                .ok_or_else(|| ServerError::Protocol("unknown error code".into()))?;
            Response::Error {
                code,
                message: cur.str()?,
            }
        }
        other => {
            return Err(ServerError::Protocol(format!(
                "unknown response opcode {other:#04x}"
            )))
        }
    };
    cur.finish()?;
    Ok(resp)
}

/// Parse a full wire frame (as produced by [`encode_response`]) back
/// into `(request_id, response)`.
pub fn decode_response(frame: &[u8], features: u32) -> ServerResult<(u64, Response)> {
    let payload = frame_payload(frame)?;
    let frame = parse_frame(payload, features).map_err(FrameError::into_server_error)?;
    let resp = decode_response_body(frame.opcode, &frame.body)?;
    Ok((frame.request_id, resp))
}

/// Write one complete wire frame (as produced by the `encode_*`
/// family) to a stream.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> ServerResult<()> {
    frame_payload(frame)?;
    w.write_all(frame)?;
    Ok(())
}

/// Read one frame's payload from a stream. Returns `Ok(None)` on a
/// clean EOF at a frame boundary (the peer closed the connection).
///
/// This is the simple blocking reader; the connection core and client
/// use [`codec::RecvBuf`] to avoid the per-frame allocation.
pub fn read_frame(r: &mut impl Read) -> ServerResult<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ServerError::Protocol("connection closed mid-frame".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ServerError::Protocol(format!(
            "frame too large: {len} bytes"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{Column, DataType, Field, Schema};

    fn tiny_table() -> Table {
        let schema = Schema::new(vec![Field::new("a", DataType::Int64)]).unwrap();
        Table::new(schema, vec![Column::from_i64(vec![1, 2, 3])]).unwrap()
    }

    fn wide_table(rows: i64) -> Table {
        let schema = Schema::new(vec![Field::new("a", DataType::Int64)]).unwrap();
        Table::new(
            schema,
            vec![Column::from_i64((0..rows).map(|i| i % 4).collect())],
        )
        .unwrap()
    }

    #[test]
    fn requests_roundtrip() {
        let cases = [
            Request::Hello {
                features: FEATURE_LZ4,
            },
            Request::Ping,
            Request::RegisterTable {
                name: "r".into(),
                table: tiny_table(),
            },
            Request::Query {
                table: "r".into(),
                group_cols: vec!["a".into(), "b".into()],
                deadline_ms: 250,
                cache: CacheControl::Default,
            },
            Request::Query {
                table: "r".into(),
                group_cols: vec!["a".into()],
                deadline_ms: 0,
                cache: CacheControl::Bypass,
            },
            Request::SubmitWorkload {
                table: "r".into(),
                universe: vec!["a".into(), "b".into(), "c".into()],
                requests: vec![vec!["a".into()], vec!["b".into(), "c".into()]],
                deadline_ms: 0,
                cache: CacheControl::Refresh,
            },
            Request::Stats,
            Request::Append {
                name: "r".into(),
                rows: tiny_table(),
            },
            Request::SqlQuery {
                sql: "SELECT a, COUNT(*) FROM r GROUP BY CUBE (a, b)".into(),
                deadline_ms: 100,
                cache: CacheControl::Default,
            },
        ];
        for (i, req) in cases.iter().enumerate() {
            let id = 1000 + i as u64;
            let buf = encode_request(id, req, 0);
            let (back_id, back) = decode_request(&buf, 0).unwrap();
            assert_eq!(back_id, id);
            assert_eq!(format!("{back:?}"), format!("{req:?}"));
        }
    }

    #[test]
    fn responses_roundtrip() {
        let cases = [
            Response::Pong,
            Response::Ack,
            Response::HelloAck {
                features: SUPPORTED_FEATURES,
            },
            Response::Chunk {
                set_tag: "a,b".into(),
                chunk_index: 3,
                last_in_set: true,
                table: tiny_table(),
            },
            Response::Finish {
                total_chunks: 4,
                total_rows: 1234,
                metrics_json: "{\"scans\":1}".into(),
            },
            Response::StatsReply {
                json: "{\"requests\":3}".into(),
            },
            Response::Error {
                code: ErrorCode::Unsupported,
                message: "no".into(),
            },
        ];
        for (i, resp) in cases.iter().enumerate() {
            let id = 2000 + i as u64;
            let buf = encode_response(id, resp, 0);
            let (back_id, back) = decode_response(&buf, 0).unwrap();
            assert_eq!(back_id, id);
            assert_eq!(format!("{back:?}"), format!("{resp:?}"));
        }
    }

    #[test]
    fn compressed_frames_roundtrip_and_shrink() {
        let req = Request::RegisterTable {
            name: "big".into(),
            table: wide_table(10_000),
        };
        let plain = encode_request(5, &req, 0);
        let packed = encode_request(5, &req, FEATURE_LZ4);
        assert!(packed[5] & FLAG_COMPRESSED != 0, "flag must be set");
        assert!(
            packed.len() < plain.len() / 2,
            "repetitive table must compress: {} vs {}",
            packed.len(),
            plain.len()
        );
        let (id, back) = decode_request(&packed, FEATURE_LZ4).unwrap();
        assert_eq!(id, 5);
        match back {
            Request::RegisterTable { table, .. } => assert_eq!(table.num_rows(), 10_000),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn tiny_bodies_stay_plain_even_when_negotiated() {
        let buf = encode_request(1, &Request::Ping, FEATURE_LZ4);
        assert_eq!(buf[5] & FLAG_COMPRESSED, 0);
    }

    #[test]
    fn chunk_frame_matches_chunk_response() {
        let t = wide_table(10);
        let direct = encode_chunk_frame(9, "a", 0, true, &t, 0, 10, 0);
        let (id, resp) = decode_response(&direct, 0).unwrap();
        assert_eq!(id, 9);
        match resp {
            Response::Chunk {
                set_tag,
                chunk_index,
                last_in_set,
                table,
            } => {
                assert_eq!(set_tag, "a");
                assert_eq!(chunk_index, 0);
                assert!(last_in_set);
                assert_eq!(table.num_rows(), 10);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn unknown_version_is_its_own_error() {
        let mut buf = encode_request(1, &Request::Ping, 0);
        buf[4] = 1; // a v1 client's first payload byte is its id's low byte
        match parse_frame(&buf[4..], 0) {
            Err(FrameError::BadVersion(1)) => {}
            other => panic!("expected BadVersion, got {other:?}"),
        }
        assert!(decode_request(&buf, 0).is_err());
    }

    #[test]
    fn unknown_flag_bits_echo_the_request_id() {
        let mut buf = encode_request(42, &Request::Ping, 0);
        buf[5] |= 0x40;
        match parse_frame(&buf[4..], 0) {
            Err(FrameError::Unsupported { request_id, .. }) => assert_eq!(request_id, 42),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn compressed_without_negotiation_is_unsupported() {
        let req = Request::RegisterTable {
            name: "big".into(),
            table: wide_table(10_000),
        };
        let packed = encode_request(17, &req, FEATURE_LZ4);
        assert!(packed[5] & FLAG_COMPRESSED != 0);
        match parse_frame(&packed[4..], 0) {
            Err(FrameError::Unsupported { request_id, .. }) => assert_eq!(request_id, 17),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_compressed_body_is_malformed() {
        let req = Request::RegisterTable {
            name: "big".into(),
            table: wide_table(10_000),
        };
        let mut packed = encode_request(17, &req, FEATURE_LZ4);
        let end = packed.len();
        packed.truncate(end - 5);
        match parse_frame(&packed[4..], FEATURE_LZ4) {
            Err(FrameError::Malformed(_)) => {}
            other => panic!("expected Malformed, got {:?}", other.err()),
        }
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let frame = encode_request(7, &Request::Ping, 0);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        write_frame(&mut wire, &frame).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), &frame[4..]);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), &frame[4..]);
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn mismatched_length_prefix_is_rejected() {
        let mut frame = encode_request(7, &Request::Ping, 0);
        frame[0] = frame[0].wrapping_add(1);
        assert!(frame_payload(&frame).is_err());
        assert!(write_frame(&mut Vec::new(), &frame).is_err());
        assert!(frame_payload(&[1, 2, 3]).is_err());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &wire[..]).is_err());
    }

    #[test]
    fn unknown_cache_code_is_rejected() {
        let mut buf = encode_request(
            1,
            &Request::Query {
                table: "r".into(),
                group_cols: vec!["a".into()],
                deadline_ms: 0,
                cache: CacheControl::Default,
            },
            0,
        );
        // The cache-control code is the final payload byte.
        *buf.last_mut().unwrap() = 9;
        assert!(decode_request(&buf, 0).is_err());
    }

    #[test]
    fn oversized_sql_statement_is_rejected() {
        let req = Request::SqlQuery {
            sql: "x".repeat(MAX_SQL_LEN + 1),
            deadline_ms: 0,
            cache: CacheControl::Default,
        };
        let buf = encode_request(3, &req, 0);
        let err = decode_request(&buf, 0).unwrap_err();
        assert!(err.to_string().contains("byte limit"), "{err}");
        // One byte under the limit decodes fine.
        let req = Request::SqlQuery {
            sql: "x".repeat(MAX_SQL_LEN),
            deadline_ms: 0,
            cache: CacheControl::Default,
        };
        let buf = encode_request(3, &req, 0);
        assert!(decode_request(&buf, 0).is_ok());
    }

    #[test]
    fn garbage_payload_is_rejected() {
        assert!(decode_request(&[], 0).is_err());
        assert!(decode_request(&[2, 0, 3], 0).is_err());
        let mut buf = encode_request(1, &Request::Ping, 0);
        buf.push(99);
        assert!(decode_request(&buf, 0).is_err());
        buf.pop();
        buf[14] = 0x55; // unknown opcode
        assert!(decode_request(&buf, 0).is_err());
    }
}
