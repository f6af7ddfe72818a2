//! Property-based and adversarial tests for wire protocol v3: chunked
//! table encode/decode round-trips (including null bitmaps and packed
//! fields split across chunk boundaries, and columns at every interesting
//! bit width), compressed frames, and hostile inputs — truncated chunks,
//! frames after the terminal response, oversized declared lengths.

use gbmqo_server::codec::{self, Cursor, FrameStatus, RecvBuf};
use gbmqo_server::protocol::{
    decode_response, encode_chunk_frame, encode_frame, encode_response, frame_payload, parse_frame,
    FrameError, Response, FEATURE_LZ4, FLAG_COMPRESSED, MAX_FRAME_LEN, OP_PING, PROTOCOL_VERSION,
};
use gbmqo_server::{Client, ServerError};
use gbmqo_storage::{DataType, Field, Schema, Table, TableBuilder, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Build a value of the given type; `v` seeds the payload, `null`
/// makes it a NULL regardless of type.
fn value_of(dt: DataType, v: i64, null: bool) -> Value {
    if null {
        return Value::Null;
    }
    match dt {
        DataType::Int64 => Value::Int(v),
        DataType::Float64 => Value::Float(v as f64 * 0.25),
        DataType::Utf8 => Value::Str(Arc::from(format!("s{}", v % 50))),
        DataType::Date32 => Value::Date(v as i32),
    }
}

/// Strategy: a table of 1–4 mixed-type columns and 0–120 rows, with
/// per-cell null flags so null bitmaps land on arbitrary chunk edges.
fn table_strategy() -> impl Strategy<Value = Table> {
    let dtypes = prop::collection::vec(
        prop::sample::select(vec![
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Date32,
        ]),
        1..=4,
    );
    (dtypes, 0usize..120).prop_flat_map(|(dts, rows)| {
        // the second tuple element picks NULL with probability 1/4
        let cells = prop::collection::vec(
            prop::collection::vec((any::<i16>(), 0u8..4), dts.len()),
            rows..=rows,
        );
        cells.prop_map(move |rows_data| {
            let schema = Schema::new(
                dts.iter()
                    .enumerate()
                    .map(|(i, dt)| Field::new(format!("c{i}"), *dt))
                    .collect(),
            )
            .unwrap();
            let mut b = TableBuilder::new(schema);
            for row in &rows_data {
                let vals: Vec<Value> = row
                    .iter()
                    .zip(&dts)
                    .map(|((v, nz), dt)| value_of(*dt, *v as i64, *nz == 0))
                    .collect();
                b.push_row(&vals).unwrap();
            }
            b.finish().unwrap()
        })
    })
}

/// A column of the shaped table: its name, its type, and the cell a
/// uniform `u64` maps to.
type Shape = (&'static str, DataType, fn(u64) -> Value);

/// One column per shape the packed layout treats differently.
const SHAPES: [Shape; 12] = [
    // the frame of reference at both ends of the type: `max - min`
    // needs all 64 bits and `value - min` wraps
    ("extremes", DataType::Int64, |raw| {
        Value::Int([i64::MIN, i64::MAX, -1, 0, 1][(raw % 5) as usize])
    }),
    ("all_null", DataType::Int64, |_| Value::Null),
    ("constant", DataType::Int64, |_| Value::Int(42)),
    ("neg_dates", DataType::Date32, |raw| {
        Value::Date(-20_000 + (raw % 1_000) as i32)
    }),
    ("date_extremes", DataType::Date32, |raw| {
        Value::Date([i32::MIN, i32::MAX, 0][(raw % 3) as usize])
    }),
    ("range_1", DataType::Int64, |raw| {
        Value::Int(-7 + (raw % 2) as i64)
    }),
    ("range_2", DataType::Int64, |raw| {
        Value::Int(1_000 + (raw % 4) as i64)
    }),
    ("range_31", DataType::Int64, |raw| {
        Value::Int(-(1 << 30) + (raw % (1 << 31)) as i64)
    }),
    ("range_33", DataType::Int64, |raw| {
        Value::Int(-(1 << 32) + (raw % (1 << 33)) as i64)
    }),
    ("range_63", DataType::Int64, |raw| {
        Value::Int(-(1 << 62) + (raw % (1 << 63)) as i64)
    }),
    ("range_64", DataType::Int64, |raw| Value::Int(raw as i64)),
    ("strings", DataType::Utf8, |raw| {
        Value::Str(Arc::from(format!("s{}", raw % 9)))
    }),
];

/// Strategy: 1–40 rows of [`SHAPES`], each cell NULL with probability
/// 1/4 (so every column also meets null slots and all-valid chunks).
fn shaped_table_strategy() -> impl Strategy<Value = Table> {
    (1usize..=40).prop_flat_map(|rows| {
        let row = prop::collection::vec((any::<u64>(), 0u8..4), SHAPES.len());
        prop::collection::vec(row, rows..=rows).prop_map(|cells| {
            let schema = Schema::new(
                SHAPES
                    .iter()
                    .map(|(name, dt, _)| Field::new(*name, *dt))
                    .collect(),
            )
            .unwrap();
            let mut b = TableBuilder::new(schema);
            for row in &cells {
                let vals: Vec<Value> = row
                    .iter()
                    .zip(&SHAPES)
                    .map(
                        |(&(raw, nz), (_, _, shape))| {
                            if nz == 0 {
                                Value::Null
                            } else {
                                shape(raw)
                            }
                        },
                    )
                    .collect();
                b.push_row(&vals).unwrap();
            }
            b.finish().unwrap()
        })
    })
}

fn rows_of(t: &Table) -> Vec<Vec<Value>> {
    (0..t.num_rows())
        .map(|r| (0..t.num_columns()).map(|c| t.value(r, c)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Slicing a table into arbitrary-size chunk frames and decoding
    /// them back yields exactly the original rows, whatever the chunk
    /// size does to null-bitmap and dictionary boundaries.
    #[test]
    fn chunked_table_roundtrip(table in table_strategy(), chunk in 1usize..40, compress in any::<bool>()) {
        let features = if compress { FEATURE_LZ4 } else { 0 };
        let total = table.num_rows();
        let mut reassembled: Vec<Vec<Value>> = Vec::new();
        let mut start = 0usize;
        let mut index = 0u32;
        while start < total || (total == 0 && index == 0) {
            let end = (start + chunk).min(total);
            let frame = encode_chunk_frame(
                9, "tag", index, end == total, &table, start, end, features,
            );
            let (rid, resp) = decode_response(&frame, features).unwrap();
            prop_assert_eq!(rid, 9);
            match resp {
                Response::Chunk { set_tag, chunk_index, last_in_set, table: slice } => {
                    prop_assert_eq!(set_tag.as_str(), "tag");
                    prop_assert_eq!(chunk_index, index);
                    prop_assert_eq!(last_in_set, end == total);
                    prop_assert_eq!(slice.num_rows(), end - start);
                    reassembled.extend(rows_of(&slice));
                }
                other => panic!("not a chunk: {other:?}"),
            }
            index += 1;
            if end == total { break; }
            start = end;
        }
        prop_assert_eq!(reassembled, rows_of(&table));
    }

    /// Every cell of every column shape survives the packed layout, read
    /// through the zero-copy view and through the materialized table,
    /// whole and in 7-row chunks (fields and bitmaps split mid-byte).
    #[test]
    fn packed_columns_roundtrip_cell_for_cell(table in shaped_table_strategy()) {
        let total = table.num_rows();
        for chunk in [7, total] {
            for start in (0..total).step_by(chunk) {
                let end = (start + chunk).min(total);
                let mut buf = Vec::new();
                codec::put_table_slice(&mut buf, &table, start, end);
                let mut cur = Cursor::new(&buf);
                let view = codec::TableView::parse(&mut cur).unwrap();
                cur.finish().unwrap();
                let owned = view.to_table().unwrap();
                prop_assert_eq!(view.num_rows(), end - start);
                prop_assert_eq!(owned.num_rows(), end - start);
                for r in 0..end - start {
                    for (c, (name, _, _)) in SHAPES.iter().enumerate() {
                        let want = table.value(start + r, c);
                        prop_assert_eq!(&view.value(r, c), &want, "view {} row {}", name, start + r);
                        prop_assert_eq!(&owned.value(r, c), &want, "table {} row {}", name, start + r);
                    }
                }
            }
        }
    }

    /// One overwritten byte anywhere in an encoded table — a width, a
    /// frame of reference, a row count, a dictionary length, a field —
    /// is either refused or decodes to *some* table; no cell of the view
    /// or the table can panic.
    #[test]
    fn corrupted_table_never_panics(table in shaped_table_strategy(), at in any::<u32>(), byte in any::<u8>()) {
        let mut buf = Vec::new();
        codec::put_table(&mut buf, &table);
        let at = at as usize % buf.len();
        buf[at] = byte;
        let mut cur = Cursor::new(&buf);
        if let Ok(view) = codec::TableView::parse(&mut cur) {
            let owned = view.to_table();
            for r in 0..view.num_rows() {
                for c in 0..view.num_columns() {
                    let cell = view.value(r, c);
                    if let Ok(owned) = &owned {
                        prop_assert_eq!(cell, owned.value(r, c));
                    }
                }
            }
        }
    }

    /// Any frame body survives encode → parse under any feature set,
    /// and a frame truncated anywhere is rejected, never mis-decoded.
    #[test]
    fn frame_roundtrip_and_truncation(body in prop::collection::vec(any::<u8>(), 0..2048),
                                      compress in any::<bool>(),
                                      cut in 0usize..2048) {
        let features = if compress { FEATURE_LZ4 } else { 0 };
        let frame = encode_frame(77, OP_PING, &body, features);
        let payload = frame_payload(&frame).unwrap();
        let parsed = parse_frame(payload, features).unwrap();
        prop_assert_eq!(parsed.request_id, 77);
        prop_assert_eq!(parsed.opcode, OP_PING);
        prop_assert_eq!(parsed.body.as_ref(), &body[..]);

        // Truncation: cutting the frame anywhere short of full length
        // must fail the length check, not decode garbage.
        let cut = cut.min(frame.len().saturating_sub(1));
        prop_assert!(frame_payload(&frame[..cut]).is_err());
    }

    /// Compressible bodies round-trip through the compressed encoding;
    /// the peer that never negotiated the feature rejects the flag.
    #[test]
    fn compressed_frames_roundtrip(seed in any::<u8>(), len in 512usize..8192) {
        let body: Vec<u8> = (0..len).map(|i| seed.wrapping_add((i / 97) as u8)).collect();
        let frame = encode_frame(5, OP_PING, &body, FEATURE_LZ4);
        prop_assert_eq!(frame[4], PROTOCOL_VERSION);
        // this body is highly repetitive, so compression must win
        prop_assert_eq!(frame[5] & FLAG_COMPRESSED, FLAG_COMPRESSED);

        let payload = frame_payload(&frame).unwrap();
        let parsed = parse_frame(payload, FEATURE_LZ4).unwrap();
        prop_assert_eq!(parsed.body.as_ref(), &body[..]);

        // without the negotiated feature the flag is Unsupported
        match parse_frame(payload, 0) {
            Err(FrameError::Unsupported { request_id, .. }) => prop_assert_eq!(request_id, 5),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    /// A truncated chunk body fails decode cleanly (no panic, no
    /// partial table).
    #[test]
    fn truncated_chunk_body_is_rejected(table in table_strategy(), cut_seed in any::<u32>()) {
        if table.num_rows() > 0 {
            let frame = encode_chunk_frame(3, "t", 0, true, &table, 0, table.num_rows(), 0);
            let payload = frame_payload(&frame).unwrap();
            let f = parse_frame(payload, 0).unwrap();
            let cut = cut_seed as usize % f.body.len();
            let mut cur = Cursor::new(&f.body[..cut]);
            // decoding the truncated body must error, never panic
            let decoded = gbmqo_server::protocol::decode_response_body(f.opcode, &f.body[..cut]);
            prop_assert!(decoded.is_err());
            let _ = codec::get_table(&mut cur); // same guarantee at the codec layer
        }
    }
}

#[test]
fn oversized_declared_length_is_rejected_by_recvbuf() {
    let mut rb = RecvBuf::new();
    let mut data: &[u8] = &u32::MAX.to_le_bytes();
    rb.fill(&mut data).unwrap();
    assert!(
        rb.try_frame(MAX_FRAME_LEN).is_err(),
        "a 4 GiB declared length must be refused up front"
    );
}

#[test]
fn zero_length_frame_is_rejected_not_looped() {
    let mut rb = RecvBuf::new();
    let mut data: &[u8] = &0u32.to_le_bytes();
    rb.fill(&mut data).unwrap();
    // A zero-length payload can't hold the 11-byte header.
    match rb.try_frame(MAX_FRAME_LEN) {
        Ok(FrameStatus::Ready(s, e)) => {
            assert!(parse_frame(rb.payload(s, e), 0).is_err());
        }
        Ok(FrameStatus::Partial) => panic!("zero-length frame reported as partial"),
        Err(_) => {}
    }
}

/// A hostile server that sends a chunk frame *after* the terminal
/// `Finish` for the same request id: the client must flag a protocol
/// error instead of decoding it into anybody's result.
#[test]
fn chunk_after_terminal_frame_is_a_protocol_error() {
    use std::io::Write;
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let tiny = {
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]).unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(&[Value::Int(1)]).unwrap();
        b.finish().unwrap()
    };

    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut rb = RecvBuf::new();
        let next_frame = |sock: &mut std::net::TcpStream, rb: &mut RecvBuf| -> u64 {
            loop {
                match rb.try_frame(MAX_FRAME_LEN).unwrap() {
                    FrameStatus::Ready(s, e) => {
                        let f = parse_frame(rb.payload(s, e), 0).unwrap();
                        return f.request_id;
                    }
                    FrameStatus::Partial => {
                        assert!(rb.fill(sock).unwrap() > 0, "client hung up early");
                    }
                }
            }
        };
        // answer the handshake
        let hello_id = next_frame(&mut sock, &mut rb);
        sock.write_all(&encode_response(
            hello_id,
            &Response::HelloAck { features: 0 },
            0,
        ))
        .unwrap();
        // read the query, terminate it, then keep talking about it
        let query_id = next_frame(&mut sock, &mut rb);
        sock.write_all(&encode_response(
            query_id,
            &Response::Finish {
                total_chunks: 0,
                total_rows: 0,
                metrics_json: "{}".into(),
            },
            0,
        ))
        .unwrap();
        sock.write_all(&encode_chunk_frame(query_id, "", 0, true, &tiny, 0, 1, 0))
            .unwrap();
        sock.flush().unwrap();
        // hold the socket open long enough for the client to read both
        std::thread::sleep(std::time::Duration::from_millis(300));
    });

    let mut client = Client::connect(addr).unwrap();
    let id = client.send_query("t", &["c"], 0).unwrap();
    // the Finish itself is a clean (empty) terminal response
    client.wait(id).unwrap();
    // the trailing chunk for the completed id surfaces as a protocol
    // error on the next interaction, not as silent data
    match client.ping() {
        Err(ServerError::Protocol(msg)) => {
            assert!(
                msg.contains("unknown") || msg.contains("completed") || msg.contains("terminal"),
                "unexpected message: {msg}"
            );
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    server.join().unwrap();
}
