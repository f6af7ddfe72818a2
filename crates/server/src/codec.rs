//! Byte-level encoding for the wire protocol: little-endian scalar
//! helpers, length-prefixed strings, a columnar table format with
//! row-range (chunk) encoding, borrowed zero-copy decode views, and a
//! reusable receive buffer.
//!
//! Tables go over the wire column by column, each column at the width
//! its values need rather than the width its type allows. A table (or
//! a *chunk*: rows `[start, end)` of one) is
//!
//! ```text
//! u32 ncols, then per column: str name · u8 type code · u8 nullable
//! u64 rows
//! per column:
//!   u8 validity flag -- 0: every row of the chunk is valid
//!                       1: ceil(rows / 8) bytes follow, bit i (LSB
//!                          first) set = row i valid
//!   payload by type:
//!     Int64, Date32  i64 min · u8 width · packed run
//!     Utf8           u32 dict_len · dict_len strings · u8 width · packed run
//!     Float64        rows × 8 bytes, IEEE bits little-endian
//! ```
//!
//! A *packed run* is `ceil(rows × width / 8)` bytes holding one
//! `width`-bit field per row, LSB first, the last byte zero-padded.
//! Integer and date columns are frame-of-reference coded: `min` is the
//! smallest valid value of the chunk, a row's field is `value − min`,
//! and `width` is the bit length of `max − min` — at most 64 for
//! `Int64`, 32 for `Date32`. Width 0 is a constant column and has no
//! payload at all; the native width is the plain little-endian layout.
//! Null rows carry field 0. A string column ships a chunk-local
//! dictionary — only the entries its rows reference, in first-seen
//! order — so a bounded row range is a bounded number of bytes
//! regardless of the full column's dictionary size, and its rows are
//! codes into that dictionary at `width` = the bit length of
//! `dict_len − 1` (at most 32).
//!
//! Decoding is two-phase. [`TableView::parse`] walks a payload once,
//! validating every length, type code, field width and dictionary
//! code, and producing a *view* whose columns are borrowed slices of
//! the frame buffer — no row data is copied, [`TableView::value`]
//! reads one field by bit offset. Callers that need an owned [`Table`]
//! call [`TableView::to_table`] (or the [`get_table`] convenience),
//! which unpacks a word at a time. A frame's size no longer bounds what
//! it decodes to (a constant column of any length is ten bytes), so
//! `parse` bounds `rows × native row width` by [`MAX_WIRE_LEN`] before
//! anything is allocated. `min + field` wraps: every well-formed run
//! decodes to *some* value and none can panic. Paired with
//! [`RecvBuf`], a connection decodes every frame out of one reusable
//! allocation.

use crate::error::{ServerError, ServerResult};
use gbmqo_storage::column::ColumnData;
use gbmqo_storage::packed::{bits_for, value_range};
use gbmqo_storage::{Bitmap, Column, DataType, Dictionary, Field, Schema, Table, Value};
use rustc_hash::FxHashMap;
use std::collections::HashSet;
use std::io::Read;
use std::ops::Range;
use std::sync::Arc;

/// Hard cap on any length field read from the wire (strings, vectors,
/// row counts). Bounds allocation from a malformed or hostile frame.
pub const MAX_WIRE_LEN: usize = 1 << 28;

fn malformed(what: &str) -> ServerError {
    ServerError::Protocol(format!("malformed frame: {what}"))
}

/// Append a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append a length-prefixed list of strings.
pub fn put_str_list(buf: &mut Vec<u8>, items: &[String]) {
    put_u32(buf, items.len() as u32);
    for s in items {
        put_str(buf, s);
    }
}

/// Sequential reader over a received payload.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wrap a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the payload was consumed exactly.
    pub fn finish(&self) -> ServerResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(malformed("trailing bytes"))
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> ServerResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(malformed("truncated payload"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> ServerResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32` little-endian.
    pub fn u32(&mut self) -> ServerResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64` little-endian.
    pub fn u64(&mut self) -> ServerResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length field, rejecting absurd values.
    pub(crate) fn len(&mut self) -> ServerResult<usize> {
        let n = self.u32()? as usize;
        if n > MAX_WIRE_LEN || n > self.remaining().max(8) * 64 {
            return Err(malformed("length out of bounds"));
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string as a borrowed slice of the
    /// payload (the zero-copy variant of [`Cursor::str`]).
    pub fn str_ref(&mut self) -> ServerResult<&'a str> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| malformed("invalid utf-8"))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> ServerResult<String> {
        Ok(self.str_ref()?.to_string())
    }

    /// Read a length-prefixed list of strings.
    pub fn str_list(&mut self) -> ServerResult<Vec<String>> {
        let n = self.len()?;
        (0..n).map(|_| self.str()).collect()
    }
}

fn dtype_code(t: DataType) -> u8 {
    match t {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Utf8 => 2,
        DataType::Date32 => 3,
    }
}

fn dtype_from(code: u8) -> ServerResult<DataType> {
    Ok(match code {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Utf8,
        3 => DataType::Date32,
        _ => return Err(malformed("unknown data type")),
    })
}

/// Bytes one value of type `t` occupies once decoded; for `Utf8`, its
/// `u32` dictionary code.
fn native_width(t: DataType) -> usize {
    t.fixed_width().unwrap_or(4)
}

/// Bit `i` of an LSB-first validity run.
#[inline]
fn bit(bits: &[u8], i: usize) -> bool {
    bits[i / 8] & (1 << (i % 8)) != 0
}

/// Append `fields` as a packed run: `width` bits each, LSB first, the
/// last byte zero-padded. Every field must fit `width` bits.
#[inline]
fn pack_bits(buf: &mut Vec<u8>, width: u32, fields: impl ExactSizeIterator<Item = u64>) {
    if width == 0 {
        return;
    }
    buf.reserve((fields.len() * width as usize).div_ceil(8) + 8);
    let (mut acc, mut nbits) = (0u64, 0u32);
    for field in fields {
        acc |= field << nbits;
        nbits += width;
        if nbits >= 64 {
            buf.extend_from_slice(&acc.to_le_bytes());
            nbits -= 64;
            // What of `field` the flushed word had no room for.
            acc = if nbits == 0 {
                0
            } else {
                field >> (width - nbits)
            };
        }
    }
    buf.extend_from_slice(&acc.to_le_bytes()[..nbits.div_ceil(8) as usize]);
}

/// The all-ones value of a `width`-bit field.
#[inline]
fn field_mask(width: u32) -> u64 {
    u64::MAX.checked_shr(64 - width).unwrap_or(0)
}

/// Field `i` of a packed run, by bit offset: the nine bytes it can lie
/// in, shifted and masked. Reads past the end of `run` as zeros.
#[inline]
fn field_at(run: &[u8], width: u32, i: usize) -> u64 {
    let start = i * width as usize;
    let (byte, shift) = (start / 8, (start % 8) as u32);
    let mut padded = [0u8; 9];
    let window: &[u8; 9] = match run.get(byte..byte + 9) {
        Some(window) => window.try_into().unwrap(),
        None => {
            let tail = run.get(byte..).unwrap_or_default();
            padded[..tail.len()].copy_from_slice(tail);
            &padded
        }
    };
    let low = u64::from_le_bytes(window[..8].try_into().unwrap()) >> shift;
    let high = u64::from(window[8]).checked_shl(64 - shift).unwrap_or(0);
    (low | high) & field_mask(width)
}

/// Call `f(row, field)` for the first `rows` fields of a packed run, in
/// row order.
///
/// Eight `width`-bit fields are exactly `width` bytes, so the run is
/// walked a group of eight at a time: within a group, field `j` sits at
/// a byte offset and shift that depend only on `j` and `width` — loop
/// invariants once the inner loop is unrolled — and is one unaligned
/// 64-bit load, a shift and a mask. Fields of 57 to 63 bits can spill
/// into a ninth byte, and the last groups' loads would run past the
/// run; both go field by field through [`field_at`].
#[inline]
fn for_each_field(run: &[u8], width: u32, rows: usize, mut f: impl FnMut(usize, u64)) {
    let mut done = 0;
    if width == 0 {
        (0..rows).for_each(|row| f(row, 0));
        return;
    }
    if width <= 56 || width == 64 {
        let w = width as usize;
        let mask = field_mask(width);
        let span = 7 * w / 8 + 8; // bytes a group's eight loads touch
        while done + 8 <= rows {
            let from = done / 8 * w;
            let Some(group) = run.get(from..from + span) else {
                break;
            };
            for j in 0..8 {
                let at = j * w / 8;
                let word = u64::from_le_bytes(group[at..at + 8].try_into().unwrap());
                f(done + j, (word >> (j * w % 8)) & mask);
            }
            done += 8;
        }
    }
    (done..rows).for_each(|row| f(row, field_at(run, width, row)));
}

/// The first `rows` fields of a packed run, each through
/// `decode(row, field)`.
#[inline]
fn unpack<T: Copy + Default>(
    run: &[u8],
    width: u32,
    rows: usize,
    decode: impl Fn(usize, u64) -> T,
) -> Vec<T> {
    let mut out = vec![T::default(); rows];
    for_each_field(run, width, rows, |row, field| out[row] = decode(row, field));
    out
}

/// Append an integer column's rows as `i64 min · u8 width · packed run`.
/// `valid` is the chunk's own validity run (`None`: every row valid).
fn put_packed_ints<T: Copy + Into<i64>>(
    buf: &mut Vec<u8>,
    values: &[T],
    col: &Column,
    rows: Range<usize>,
    valid: Option<&[u8]>,
) {
    let validity = valid.and(col.validity());
    let (min, max) = value_range(values, validity, rows.clone()).unwrap_or((0, 0));
    let width = bits_for(max.wrapping_sub(min) as u64 as u128);
    buf.extend_from_slice(&min.to_le_bytes());
    buf.push(width as u8);
    let deltas = values[rows]
        .iter()
        .map(|&v| v.into().wrapping_sub(min) as u64);
    match valid {
        None => pack_bits(buf, width, deltas),
        Some(valid) => pack_bits(
            buf,
            width,
            // A null slot holds anything; its field is 0.
            deltas
                .enumerate()
                .map(|(i, d)| if bit(valid, i) { d } else { 0 }),
        ),
    }
}

/// Serialize the full table: equivalent to one chunk spanning every
/// row.
pub fn put_table(buf: &mut Vec<u8>, table: &Table) {
    put_table_slice(buf, table, 0, table.num_rows());
}

/// Serialize rows `[start, end)` of `table` as a self-contained chunk
/// in the layout the [module docs](self) give: schema header, chunk row
/// count, then per column validity and a payload sized by the range's
/// own values, so the encoded size is bounded by the range, not the
/// table.
pub fn put_table_slice(buf: &mut Vec<u8>, table: &Table, start: usize, end: usize) {
    debug_assert!(start <= end && end <= table.num_rows());
    let schema = table.schema();
    put_u32(buf, schema.fields().len() as u32);
    for f in schema.fields() {
        put_str(buf, &f.name);
        buf.push(dtype_code(f.data_type));
        buf.push(f.nullable as u8);
    }
    let rows = end - start;
    put_u64(buf, rows as u64);
    for col in table.columns() {
        // A bitmap with no null in this range is not worth its bytes.
        let valid = col
            .validity()
            .map(|v| v.to_le_bytes(start..end))
            .filter(|run| run.iter().map(|b| b.count_ones() as usize).sum::<usize>() < rows);
        match &valid {
            None => buf.push(0),
            Some(run) => {
                buf.push(1);
                buf.extend_from_slice(run);
            }
        }
        let valid = valid.as_deref();
        match col.data() {
            ColumnData::Int64(vals) => put_packed_ints(buf, vals, col, start..end, valid),
            ColumnData::Date32(vals) => put_packed_ints(buf, vals, col, start..end, valid),
            ColumnData::Float64(vals) => {
                for v in &vals[start..end] {
                    buf.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            ColumnData::Utf8 { codes, dict } => {
                // Chunk-local dictionary: entries referenced by this
                // range, remapped to dense codes in first-seen order.
                // The keys are the engine's own codes, not outside
                // input, so the map needs no keyed hash.
                let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
                let mut entries: Vec<u32> = Vec::new();
                let chunk_codes: Vec<u32> = codes[start..end]
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| {
                        if c == u32::MAX || valid.is_some_and(|run| !bit(run, i)) {
                            return 0; // a null row's field
                        }
                        *remap.entry(c).or_insert_with(|| {
                            entries.push(c);
                            entries.len() as u32 - 1
                        })
                    })
                    .collect();
                put_u32(buf, entries.len() as u32);
                for &code in &entries {
                    put_str(buf, dict.get(code));
                }
                let width = bits_for(entries.len().saturating_sub(1) as u128);
                buf.push(width as u8);
                pack_bits(buf, width, chunk_codes.iter().map(|&c| u64::from(c)));
            }
        }
    }
}

/// One column of a [`TableView`]: borrowed slices of the frame buffer.
enum ColView<'a> {
    /// `Float64`: raw little-endian IEEE bits.
    Float64(&'a [u8]),
    /// `Int64` / `Date32`: frame of reference plus a packed run of
    /// `value − min` fields.
    Packed { min: i64, width: u32, run: &'a [u8] },
    /// Dictionary entries (in code order) plus a packed run of codes.
    Utf8 {
        dict: Vec<&'a str>,
        width: u32,
        run: &'a [u8],
    },
}

/// A borrowed, validated decode of one encoded table (or table chunk).
///
/// Parsing performs every hostility check the owned decoder does —
/// bounded lengths and decoded size, known type codes, field widths the
/// column type can hold, dictionary codes in range on valid rows — but
/// copies nothing: columns are slices into the frame buffer. Use
/// [`TableView::value`] to inspect, or [`TableView::to_table`] to
/// materialize.
pub struct TableView<'a> {
    fields: Vec<(&'a str, DataType, bool)>,
    rows: usize,
    validity: Vec<Option<&'a [u8]>>,
    cols: Vec<ColView<'a>>,
}

/// Read `u8 width` and the `rows`-field packed run it sizes.
fn take_run<'a>(
    cur: &mut Cursor<'a>,
    rows: usize,
    max_width: u32,
) -> ServerResult<(u32, &'a [u8])> {
    let width = u32::from(cur.u8()?);
    if width > max_width {
        return Err(malformed("field width exceeds the column type"));
    }
    let bits = rows
        .checked_mul(width as usize)
        .ok_or_else(|| malformed("packed run length overflows"))?;
    Ok((width, cur.take(bits.div_ceil(8))?))
}

impl<'a> TableView<'a> {
    /// Parse and validate an encoded table starting at `cur`.
    pub fn parse(cur: &mut Cursor<'a>) -> ServerResult<TableView<'a>> {
        let ncols = cur.len()?;
        let mut fields = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let name = cur.str_ref()?;
            let data_type = dtype_from(cur.u8()?)?;
            let nullable = cur.u8()? != 0;
            fields.push((name, data_type, nullable));
        }
        let rows = cur.u64()? as usize;
        if rows > MAX_WIRE_LEN {
            return Err(malformed("row count out of bounds"));
        }
        // A packed run's length says nothing about its row count (a
        // constant column has none), so bound what the table decodes
        // to, not what it arrived as.
        let row_width: usize = fields.iter().map(|&(_, t, _)| native_width(t)).sum();
        if rows
            .checked_mul(row_width)
            .is_none_or(|decoded| decoded > MAX_WIRE_LEN)
        {
            return Err(malformed("decoded size out of bounds"));
        }
        let mut validity = Vec::with_capacity(ncols);
        let mut cols = Vec::with_capacity(ncols);
        for &(_, data_type, _) in &fields {
            let v = match cur.u8()? {
                0 => None,
                1 => Some(cur.take(rows.div_ceil(8))?),
                _ => return Err(malformed("bad validity flag")),
            };
            let col = match data_type {
                // `rows * 8` is within the decoded-size bound just checked.
                DataType::Float64 => ColView::Float64(cur.take(rows * 8)?),
                DataType::Int64 | DataType::Date32 => {
                    let min = cur.u64()? as i64;
                    let (width, run) = take_run(cur, rows, native_width(data_type) as u32 * 8)?;
                    ColView::Packed { min, width, run }
                }
                DataType::Utf8 => {
                    let dict_len = cur.len()?;
                    let mut dict = Vec::with_capacity(dict_len);
                    // Entries are outside input: the set keeps std's
                    // keyed hash.
                    let mut seen: HashSet<&str> = HashSet::with_capacity(dict_len);
                    for _ in 0..dict_len {
                        let s = cur.str_ref()?;
                        // Re-interning on materialization must reproduce
                        // these codes exactly, so entries must be unique.
                        if !seen.insert(s) {
                            return Err(malformed("duplicate dictionary entry"));
                        }
                        dict.push(s);
                    }
                    let (width, run) = take_run(cur, rows, 32)?;
                    // Every valid row must index the dictionary — with
                    // an empty dictionary no valid row is acceptable.
                    // Null rows may carry any code; materialization
                    // normalizes them to the engine's null sentinel.
                    let mut codes_end = 0; // one past the largest valid row's code
                    match v {
                        None => for_each_field(run, width, rows, |_, code| {
                            codes_end = codes_end.max(code + 1);
                        }),
                        Some(valid) => for_each_field(run, width, rows, |row, code| {
                            if bit(valid, row) {
                                codes_end = codes_end.max(code + 1);
                            }
                        }),
                    }
                    if codes_end > dict_len as u64 {
                        return Err(malformed("dictionary code out of range"));
                    }
                    ColView::Utf8 { dict, width, run }
                }
            };
            validity.push(v);
            cols.push(col);
        }
        Ok(TableView {
            fields,
            rows,
            validity,
            cols,
        })
    }

    /// Rows in this view.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Columns in this view.
    pub fn num_columns(&self) -> usize {
        self.fields.len()
    }

    /// Column names, in order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|&(name, _, _)| name)
    }

    fn is_valid(&self, row: usize, col: usize) -> bool {
        self.validity[col].is_none_or(|valid| bit(valid, row))
    }

    /// Read one value without materializing the column.
    pub fn value(&self, row: usize, col: usize) -> Value {
        assert!(row < self.rows && col < self.fields.len());
        if !self.is_valid(row, col) {
            return Value::Null;
        }
        match &self.cols[col] {
            ColView::Float64(bytes) => Value::Float(f64::from_bits(u64::from_le_bytes(
                bytes[row * 8..row * 8 + 8].try_into().unwrap(),
            ))),
            &ColView::Packed { min, width, run } => {
                let v = min.wrapping_add(field_at(run, width, row) as i64);
                match self.fields[col].1 {
                    DataType::Date32 => Value::Date(v as i32),
                    _ => Value::Int(v),
                }
            }
            ColView::Utf8 { dict, width, run } => {
                Value::str(dict[field_at(run, *width, row) as usize])
            }
        }
    }

    /// Materialize the view into an owned [`Table`].
    pub fn to_table(&self) -> ServerResult<Table> {
        let fields: Vec<Field> = self
            .fields
            .iter()
            .map(|&(name, data_type, nullable)| {
                if nullable {
                    Field::new(name, data_type)
                } else {
                    Field::not_null(name, data_type)
                }
            })
            .collect();
        let mut columns = Vec::with_capacity(fields.len());
        for (c, col) in self.cols.iter().enumerate() {
            let valid = self.validity[c];
            let validity = valid
                .map(|run| Bitmap::from_le_bytes(run, self.rows))
                .transpose()
                .map_err(|e| malformed(&format!("bad validity: {e}")))?;
            let data = match *col {
                ColView::Float64(bytes) => ColumnData::Float64(
                    bytes
                        .chunks_exact(8)
                        .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().unwrap())))
                        .collect(),
                ),
                ColView::Packed { min, width, run } => {
                    let rows = self.rows;
                    match self.fields[c].1 {
                        DataType::Date32 => ColumnData::Date32(unpack(run, width, rows, |_, d| {
                            min.wrapping_add(d as i64) as i32
                        })),
                        _ => ColumnData::Int64(unpack(run, width, rows, |_, d| {
                            min.wrapping_add(d as i64)
                        })),
                    }
                }
                ColView::Utf8 {
                    ref dict,
                    width,
                    run,
                } => {
                    let mut owned = Dictionary::new();
                    for entry in dict {
                        owned.intern(entry);
                    }
                    let codes = match valid {
                        None => unpack(run, width, self.rows, |_, code| code as u32),
                        // `u32::MAX` is the engine's null sentinel.
                        Some(valid) => unpack(run, width, self.rows, |row, code| {
                            if bit(valid, row) {
                                code as u32
                            } else {
                                u32::MAX
                            }
                        }),
                    };
                    ColumnData::Utf8 {
                        codes,
                        dict: Arc::new(owned),
                    }
                }
            };
            columns.push(
                Column::new(data, validity).map_err(|e| malformed(&format!("bad column: {e}")))?,
            );
        }
        let schema = Schema::new(fields).map_err(|e| malformed(&format!("bad schema: {e}")))?;
        Table::new(schema, columns).map_err(|e| malformed(&format!("bad table: {e}")))
    }
}

/// Deserialize an owned table written by [`put_table`] /
/// [`put_table_slice`] (parse + materialize in one step).
pub fn get_table(cur: &mut Cursor<'_>) -> ServerResult<Table> {
    TableView::parse(cur)?.to_table()
}

/// A reusable frame-receive buffer: bytes are read into one growing
/// allocation and complete frames are handed out as borrowed slices,
/// so steady-state frame traffic performs no per-frame allocation.
///
/// Unlike a `read_exact` into `vec![0; declared_len]`, the buffer only
/// grows as bytes actually arrive — a hostile length prefix cannot
/// force a large allocation up front (the declared length is still
/// capped by the caller-supplied maximum).
#[derive(Default)]
pub struct RecvBuf {
    buf: Vec<u8>,
    /// Start of unconsumed bytes.
    start: usize,
    /// End of received bytes.
    end: usize,
}

/// What [`RecvBuf::try_frame`] found in the buffered bytes.
pub enum FrameStatus {
    /// A complete frame: `(payload_start, payload_end)` into the
    /// buffer (resolve with [`RecvBuf::payload`]).
    Ready(usize, usize),
    /// More bytes are needed before the next frame completes.
    Partial,
}

impl RecvBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        RecvBuf::default()
    }

    /// Buffered-but-unconsumed byte count.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Drop consumed bytes and reclaim space when the live region has
    /// drifted to the back of the allocation.
    fn compact(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Read once from `r`, appending to the buffer. Returns the byte
    /// count (0 = EOF). `WouldBlock` and friends surface as `Err`, as
    /// do all other I/O errors — nonblocking callers match on the kind.
    pub fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        self.compact();
        // Always keep a readable tail of at least 16 KiB.
        if self.buf.len() - self.end < 4096 {
            self.buf.resize((self.buf.len() * 2).max(16 * 1024), 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Try to extract the next complete frame from buffered bytes.
    /// `max_len` bounds the declared payload length.
    pub fn try_frame(&mut self, max_len: usize) -> ServerResult<FrameStatus> {
        if self.pending() < 4 {
            return Ok(FrameStatus::Partial);
        }
        let len =
            u32::from_le_bytes(self.buf[self.start..self.start + 4].try_into().unwrap()) as usize;
        if len > max_len {
            return Err(malformed(&format!("frame too large: {len} bytes")));
        }
        if self.pending() < 4 + len {
            return Ok(FrameStatus::Partial);
        }
        let payload_start = self.start + 4;
        self.start += 4 + len;
        Ok(FrameStatus::Ready(payload_start, payload_start + len))
    }

    /// Resolve a [`FrameStatus::Ready`] range into the payload bytes.
    pub fn payload(&self, start: usize, end: usize) -> &[u8] {
        &self.buf[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{TableBuilder, Value};

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Utf8),
            Field::not_null("f", DataType::Float64),
            Field::new("d", DataType::Date32),
        ])
        .unwrap();
        let mut tb = TableBuilder::new(schema);
        for i in 0..100i64 {
            tb.push_row(&[
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                },
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::str(["red", "green", "blue"][(i % 3) as usize])
                },
                Value::Float(i as f64 * 0.5),
                Value::Date(i as i32),
            ])
            .unwrap();
        }
        tb.finish().unwrap()
    }

    #[test]
    fn table_roundtrip_preserves_everything() {
        let t = sample_table();
        let mut buf = Vec::new();
        put_table(&mut buf, &t);
        let mut cur = Cursor::new(&buf);
        let back = get_table(&mut cur).unwrap();
        cur.finish().unwrap();

        assert_eq!(back.num_rows(), t.num_rows());
        assert_eq!(back.num_columns(), t.num_columns());
        for (a, b) in t.schema().fields().iter().zip(back.schema().fields()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.data_type, b.data_type);
            assert_eq!(a.nullable, b.nullable);
        }
        for r in 0..t.num_rows() {
            for c in 0..t.num_columns() {
                assert_eq!(t.value(r, c), back.value(r, c), "row {r} col {c}");
            }
        }
    }

    #[test]
    fn chunked_slices_reassemble_the_table() {
        let t = sample_table();
        let chunk = 7; // deliberately not a multiple of 8: bitmaps split mid-byte
        let mut start = 0;
        let mut row = 0;
        while start < t.num_rows() {
            let end = (start + chunk).min(t.num_rows());
            let mut buf = Vec::new();
            put_table_slice(&mut buf, &t, start, end);
            let mut cur = Cursor::new(&buf);
            let view = TableView::parse(&mut cur).unwrap();
            cur.finish().unwrap();
            assert_eq!(view.num_rows(), end - start);
            let owned = view.to_table().unwrap();
            for r in 0..owned.num_rows() {
                for c in 0..owned.num_columns() {
                    assert_eq!(t.value(row + r, c), owned.value(r, c), "row {row}+{r}");
                    assert_eq!(t.value(row + r, c), view.value(r, c), "view row {row}+{r}");
                }
            }
            row += end - start;
            start = end;
        }
    }

    #[test]
    fn chunk_local_dictionary_is_bounded_by_the_range() {
        // 1000 distinct strings, but each 10-row chunk references ≤ 10.
        let schema = Schema::new(vec![Field::new("s", DataType::Utf8)]).unwrap();
        let mut tb = TableBuilder::new(schema);
        for i in 0..1000 {
            tb.push_row(&[Value::str(&format!("value-{i:04}"))])
                .unwrap();
        }
        let t = tb.finish().unwrap();
        let mut whole = Vec::new();
        put_table(&mut whole, &t);
        let mut chunk = Vec::new();
        put_table_slice(&mut chunk, &t, 500, 510);
        assert!(
            chunk.len() < whole.len() / 20,
            "10-row chunk ({} B) must not ship the 1000-entry dictionary ({} B)",
            chunk.len(),
            whole.len()
        );
        let view = TableView::parse(&mut Cursor::new(&chunk)).unwrap();
        assert_eq!(view.value(0, 0), Value::str("value-0500"));
        assert_eq!(view.value(9, 0), Value::str("value-0509"));
    }

    #[test]
    fn empty_table_roundtrips() {
        let schema = Schema::new(vec![Field::new("x", DataType::Utf8)]).unwrap();
        let t = Table::new(schema, vec![Column::from_strs::<&str>(&[])]).unwrap();
        let mut buf = Vec::new();
        put_table(&mut buf, &t);
        let back = get_table(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.num_columns(), 1);
    }

    #[test]
    fn scalars_and_strings_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "héllo");
        put_str_list(&mut buf, &["a".into(), "bb".into()]);
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.u32().unwrap(), 7);
        assert_eq!(cur.u64().unwrap(), u64::MAX - 1);
        assert_eq!(cur.str().unwrap(), "héllo");
        assert_eq!(cur.str_list().unwrap(), vec!["a", "bb"]);
        cur.finish().unwrap();
    }

    #[test]
    fn truncated_and_trailing_inputs_are_rejected() {
        let mut buf = Vec::new();
        put_str(&mut buf, "abc");
        assert!(Cursor::new(&buf[..buf.len() - 1]).str().is_err());
        let mut cur = Cursor::new(&buf);
        cur.str().unwrap();
        assert!(cur.finish().is_ok());
        let mut with_garbage = buf.clone();
        with_garbage.push(0);
        let mut cur = Cursor::new(&with_garbage);
        cur.str().unwrap();
        assert!(cur.finish().is_err());
    }

    /// A hand-assembled table of one nullable column `x`, up to the
    /// point where the column's validity flag goes.
    fn one_column(type_code: u8, rows: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        put_str(&mut buf, "x");
        buf.push(type_code);
        buf.push(1); // nullable
        put_u64(&mut buf, rows);
        buf
    }

    const INT64: u8 = 0;
    const UTF8: u8 = 2;
    const DATE32: u8 = 3;

    /// The error a frame is refused with; panics if it decodes.
    fn refusal(buf: &[u8]) -> String {
        let mut cur = Cursor::new(buf);
        match TableView::parse(&mut cur).and_then(|view| {
            cur.finish()?;
            view.to_table()
        }) {
            Ok(_) => panic!("hostile frame decoded"),
            Err(e) => e.to_string(),
        }
    }

    /// A Utf8 column header claiming rows but an empty dictionary must
    /// be rejected: accepting it would let any later query panic in
    /// `Dictionary::get` and kill a worker thread.
    #[test]
    fn empty_dictionary_with_rows_is_rejected() {
        let mut buf = one_column(UTF8, 2);
        buf.push(0); // no validity bitmap: every row is valid
        put_u32(&mut buf, 0); // dict_len = 0
        buf.push(0); // width 0: both rows are code 0, no payload
        assert!(refusal(&buf).contains("dictionary code out of range"));
    }

    /// Out-of-range codes on *valid* rows are rejected even when the
    /// dictionary is non-empty; null rows may carry any code (the
    /// decoder normalizes them to the null sentinel).
    #[test]
    fn out_of_range_code_on_valid_row_is_rejected() {
        let mut buf = one_column(UTF8, 2);
        buf.push(1); // validity bitmap present
        buf.push(0b01); // row 0 valid, row 1 null
        put_u32(&mut buf, 1); // dict_len = 1
        put_str(&mut buf, "only");
        buf.push(3); // 3-bit codes
        buf.push(0b111_001); // row 0 (valid): code 1 out of range; row 1 (null): 7
        assert!(refusal(&buf).contains("dictionary code out of range"));

        // Same frame with row 0's code in range decodes, and the null
        // row's junk code is normalized away.
        *buf.last_mut().unwrap() = 0b111_000;
        let t = get_table(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(t.value(0, 0), Value::str("only"));
        assert_eq!(t.value(1, 0), Value::Null);
    }

    #[test]
    fn duplicate_dictionary_entries_are_rejected() {
        let mut buf = one_column(UTF8, 1);
        buf.push(0); // no validity
        put_u32(&mut buf, 2); // two dictionary entries...
        put_str(&mut buf, "dup");
        put_str(&mut buf, "dup"); // ...that collide on re-intern
        buf.push(1); // 1-bit codes
        buf.push(1); // row 0: code 1, in range
        assert!(refusal(&buf).contains("duplicate dictionary entry"));
    }

    /// Each frame is well-formed but for the one defect it is named
    /// after, and is refused for that defect.
    #[test]
    fn hostile_packed_runs_are_rejected() {
        let packed = |type_code: u8, rows: u64, width: u8, run: &[u8]| {
            let mut buf = one_column(type_code, rows);
            buf.push(0); // no validity
            if type_code == UTF8 {
                put_u32(&mut buf, 1);
                put_str(&mut buf, "a");
            } else {
                put_u64(&mut buf, 0); // min
            }
            buf.push(width);
            buf.extend_from_slice(run);
            buf
        };
        // Fields wider than the column type: the run is as long as the
        // width claims, so only the width itself is wrong.
        for (type_code, width) in [(INT64, 65), (DATE32, 33), (UTF8, 33)] {
            let run = vec![0u8; 2 * width as usize];
            assert!(
                refusal(&packed(type_code, 16, width, &run)).contains("field width"),
                "type {type_code} width {width}"
            );
        }
        // The native widths themselves are fine.
        for (type_code, width) in [(INT64, 64), (DATE32, 32)] {
            let run = vec![0u8; 2 * width as usize];
            get_table(&mut Cursor::new(&packed(type_code, 16, width, &run))).unwrap();
        }
        // 5 rows × 13 bits = 65 bits = 9 bytes; 8 is one short, 10 one over.
        assert!(refusal(&packed(INT64, 5, 13, &[0; 8])).contains("truncated"));
        assert!(refusal(&packed(INT64, 5, 13, &[0; 10])).contains("trailing"));
        get_table(&mut Cursor::new(&packed(INT64, 5, 13, &[0; 9]))).unwrap();
        // A row count whose packed length cannot be computed, let alone held.
        assert!(refusal(&packed(INT64, u64::MAX / 8, 64, &[])).contains("out of bounds"));
        let overflow = take_run(&mut Cursor::new(&[64]), usize::MAX / 8, 64);
        assert!(overflow.unwrap_err().to_string().contains("overflows"));
    }

    /// A constant column costs no payload, so a frame of a few dozen
    /// bytes can claim any row count: it must be refused by what it
    /// would decode to, before anything is allocated for it.
    #[test]
    fn width_zero_column_cannot_demand_a_huge_allocation() {
        let mut buf = one_column(INT64, MAX_WIRE_LEN as u64);
        buf.push(0); // no validity
        put_u64(&mut buf, 1); // min: COUNT(*) = 1 ...
        buf.push(0); // ... on every row
        assert!(buf.len() < 40);
        // `parse` allocates per column, never per row: refusing here is
        // refusing before the 2 GiB `Vec`.
        let err = TableView::parse(&mut Cursor::new(&buf)).err().unwrap();
        assert!(err.to_string().contains("decoded size out of bounds"));

        // The same column at a size the bound admits decodes to the constant.
        let mut buf = one_column(INT64, 1000);
        buf.push(0);
        put_u64(&mut buf, 1);
        buf.push(0);
        let t = get_table(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(t.num_rows(), 1000);
        assert!((0..1000).all(|r| t.value(r, 0) == Value::Int(1)));
    }

    /// `min + field` wraps rather than panics, at both ends of both
    /// integer types, and honest extremes round-trip exactly.
    #[test]
    fn frame_of_reference_wraps_at_the_type_bounds() {
        let framed = |type_code: u8, min: i64, width: u8, field: u64| {
            let mut buf = one_column(type_code, 1);
            buf.push(0);
            put_u64(&mut buf, min as u64);
            buf.push(width);
            buf.extend_from_slice(&field.to_le_bytes()[..(width as usize).div_ceil(8)]);
            let view = TableView::parse(&mut Cursor::new(&buf)).unwrap();
            let owned = view.to_table().unwrap();
            assert_eq!(view.value(0, 0), owned.value(0, 0));
            owned.value(0, 0)
        };
        assert_eq!(framed(INT64, i64::MAX, 1, 1), Value::Int(i64::MIN));
        assert_eq!(framed(INT64, i64::MIN, 64, u64::MAX), Value::Int(i64::MAX));
        assert_eq!(framed(INT64, i64::MIN, 0, 0), Value::Int(i64::MIN));
        assert_eq!(
            framed(DATE32, i64::from(i32::MAX), 1, 1),
            Value::Date(i32::MIN)
        );
        assert_eq!(framed(DATE32, -5, 32, 3), Value::Date(-2));
        // A frame of reference outside the date type wraps into it.
        assert_eq!(framed(DATE32, i64::MIN, 32, 7), Value::Date(7));

        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("d", DataType::Date32),
        ])
        .unwrap();
        let mut tb = TableBuilder::new(schema);
        for (i, d) in [(i64::MIN, i32::MIN), (i64::MAX, i32::MAX), (0, -1)] {
            tb.push_row(&[Value::Int(i), Value::Date(d)]).unwrap();
        }
        let t = tb.finish().unwrap();
        let mut buf = Vec::new();
        put_table(&mut buf, &t);
        let back = get_table(&mut Cursor::new(&buf)).unwrap();
        for r in 0..3 {
            assert_eq!(t.value(r, 0), back.value(r, 0));
            assert_eq!(t.value(r, 1), back.value(r, 1));
        }
    }

    /// What the last byte of a run holds past its final field is
    /// padding: a decoder ignores it.
    #[test]
    fn padding_bits_of_a_packed_run_are_ignored() {
        let schema = Schema::new(vec![Field::not_null("k", DataType::Int64)]).unwrap();
        let t = Table::new(schema, vec![Column::from_i64(vec![10, 15, 12])]).unwrap();
        let mut buf = Vec::new();
        put_table(&mut buf, &t); // 3 rows × 3 bits: 7 padding bits
        *buf.last_mut().unwrap() |= 0b1111_1110;
        let view = TableView::parse(&mut Cursor::new(&buf)).unwrap();
        let back = view.to_table().unwrap();
        for r in 0..3 {
            assert_eq!(back.value(r, 0), t.value(r, 0));
            assert_eq!(view.value(r, 0), t.value(r, 0));
        }
    }

    /// The layout's sizes, as the module docs give them.
    #[test]
    fn columns_cost_what_their_values_need() {
        // Bytes rows `[start, end)` add to an empty chunk of the same
        // table: validity bitmap plus packed run.
        let payload = |col: &Column, dt: DataType, start: usize, end: usize| {
            let schema = Schema::new(vec![Field::new("c", dt)]).unwrap();
            let t = Table::new(schema, vec![col.clone()]).unwrap();
            let (mut empty, mut buf) = (Vec::new(), Vec::new());
            put_table_slice(&mut empty, &t, 0, 0);
            put_table_slice(&mut buf, &t, start, end);
            buf.len() - empty.len()
        };
        let ints = |v: Vec<i64>| payload(&Column::from_i64(v), DataType::Int64, 0, 1000);
        assert_eq!(ints(vec![1; 1000]), 0, "a constant column has no payload");
        assert_eq!(ints((0..1000).collect()), 1250, "10 bits a row");
        assert_eq!(
            ints((5000..6000).collect()),
            1250,
            "the range, not the values"
        );
        let extremes = Column::from_i64(vec![i64::MIN, i64::MAX]);
        assert_eq!(
            payload(&extremes, DataType::Int64, 0, 2),
            16,
            "native width"
        );
        let dates = Column::from_dates((0..1000).collect());
        assert_eq!(payload(&dates, DataType::Date32, 0, 1000), 1250);

        // 0..16 then a null: the bitmap goes out only with the chunk
        // that holds the null.
        let mut b = gbmqo_storage::ColumnBuilder::new(DataType::Int64);
        (0..16).for_each(|i| b.push_i64(i));
        b.push_null();
        let col = b.finish();
        assert_eq!(payload(&col, DataType::Int64, 0, 16), 8, "16 × 4 bits");
        assert_eq!(
            payload(&col, DataType::Int64, 8, 17),
            2 + 4,
            "bitmap + 9 × 3 bits"
        );
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // a 4-byte payload claiming a 200 MB string
        let mut buf = Vec::new();
        put_u32(&mut buf, 200_000_000);
        assert!(Cursor::new(&buf).str().is_err());
    }

    #[test]
    fn recv_buf_extracts_frames_across_split_reads() {
        let mut wire = Vec::new();
        for payload in [b"abc".as_slice(), b"defgh", b""] {
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(payload);
        }
        // Feed the wire bytes 2 at a time through a throttled reader.
        struct Trickle<'a>(&'a [u8]);
        impl Read for Trickle<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.len().min(2).min(out.len());
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let mut r = Trickle(&wire);
        let mut rb = RecvBuf::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        while got.len() < 3 {
            match rb.try_frame(1024).unwrap() {
                FrameStatus::Ready(s, e) => got.push(rb.payload(s, e).to_vec()),
                FrameStatus::Partial => {
                    assert!(rb.fill(&mut r).unwrap() > 0, "unexpected EOF");
                }
            }
        }
        assert_eq!(got, vec![b"abc".to_vec(), b"defgh".to_vec(), Vec::new()]);
    }

    #[test]
    fn recv_buf_rejects_oversized_declared_length() {
        let mut rb = RecvBuf::new();
        let mut r = &(u32::MAX).to_le_bytes()[..];
        rb.fill(&mut r).unwrap();
        assert!(rb.try_frame(1 << 20).is_err());
    }
}
