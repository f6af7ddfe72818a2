//! Typed columns with validity bitmaps.

use crate::bitmap::Bitmap;
use crate::dictionary::Dictionary;
use crate::error::{Result, StorageError};
use crate::packed::value_range;
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The typed payload of a column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// Dictionary-encoded strings: per-row codes plus a shared dictionary.
    Utf8 {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// The shared dictionary.
        dict: Arc<Dictionary>,
    },
    /// Days since epoch.
    Date32(Vec<i32>),
}

/// A column: typed data plus an optional validity bitmap
/// (`None` means every row is valid).
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    validity: Option<Bitmap>,
    /// [`Column::range`] once a caller has asked for it: set by one scan
    /// on first use, extended by [`Column::append`]. A column shared
    /// behind a table's `Arc` is scanned once for all its holders.
    range: OnceLock<Option<(i64, i64)>>,
}

impl Column {
    /// Create a column from data and an optional validity mask.
    ///
    /// A mask in which every bit is set is normalized away to `None`.
    pub fn new(data: ColumnData, validity: Option<Bitmap>) -> Result<Self> {
        if let Some(v) = &validity {
            let len = data_len(&data);
            if v.len() != len {
                return Err(StorageError::Malformed(format!(
                    "validity length {} != data length {len}",
                    v.len()
                )));
            }
        }
        let validity = validity.filter(|v| !v.all_set());
        Ok(Column::unchecked(data, validity))
    }

    /// A column of `data` and `validity`, whose lengths the caller has
    /// matched, with no range kept yet.
    fn unchecked(data: ColumnData, validity: Option<Bitmap>) -> Self {
        Column {
            data,
            validity,
            range: OnceLock::new(),
        }
    }

    /// Build an `Int64` column with no nulls.
    pub fn from_i64(values: Vec<i64>) -> Self {
        Column::unchecked(ColumnData::Int64(values), None)
    }

    /// Build a `Float64` column with no nulls.
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column::unchecked(ColumnData::Float64(values), None)
    }

    /// Build a `Date32` column with no nulls.
    pub fn from_dates(values: Vec<i32>) -> Self {
        Column::unchecked(ColumnData::Date32(values), None)
    }

    /// Build a `Utf8` column from string slices (dictionary created here).
    pub fn from_strs<S: AsRef<str>>(values: &[S]) -> Self {
        let mut dict = Dictionary::new();
        let codes = values.iter().map(|s| dict.intern(s.as_ref())).collect();
        let dict = Arc::new(dict);
        Column::unchecked(ColumnData::Utf8 { codes, dict }, None)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        data_len(&self.data)
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match &self.data {
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Utf8 { .. } => DataType::Utf8,
            ColumnData::Date32(_) => DataType::Date32,
        }
    }

    /// Borrow the typed payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Borrow the validity bitmap, if any row is null.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// True if row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.validity {
            Some(v) => !v.get(i),
            None => false,
        }
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.validity.as_ref().map_or(0, |v| v.count_zeros())
    }

    /// The minimum and maximum of the non-null values of an `Int64` or
    /// `Date32` column, widened to `i64`; `None` for any other type or
    /// when no row holds a value. The first call scans the column
    /// ([`value_range`]) and keeps the result, which every holder of the
    /// column then reads in O(1); [`Column::append`] extends a kept range
    /// by scanning only the appended rows. A gathered, concatenated or
    /// newly built column keeps none until it is asked.
    pub fn range(&self) -> Option<(i64, i64)> {
        *self.range.get_or_init(|| self.scan_range(0..self.len()))
    }

    /// [`Column::range`] over the rows `rows`, scanned.
    fn scan_range(&self, rows: Range<usize>) -> Option<(i64, i64)> {
        match &self.data {
            ColumnData::Int64(v) => value_range(v, self.validity(), rows),
            ColumnData::Date32(v) => value_range(v, self.validity(), rows),
            ColumnData::Float64(_) | ColumnData::Utf8 { .. } => None,
        }
    }

    /// Read row `i` as a dynamic [`Value`].
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int64(v) => Value::Int(v[i]),
            ColumnData::Float64(v) => Value::Float(v[i]),
            ColumnData::Utf8 { codes, dict } => Value::Str(dict.get(codes[i]).clone()),
            ColumnData::Date32(v) => Value::Date(v[i]),
        }
    }

    /// Compare rows `i` and `j` of this column with SQL `NULLS FIRST`
    /// semantics and value order for strings.
    #[inline]
    pub fn cmp_rows(&self, i: usize, j: usize) -> Ordering {
        match (self.is_null(i), self.is_null(j)) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {}
        }
        match &self.data {
            ColumnData::Int64(v) => v[i].cmp(&v[j]),
            ColumnData::Float64(v) => v[i].total_cmp(&v[j]),
            ColumnData::Utf8 { codes, dict } => {
                if codes[i] == codes[j] {
                    Ordering::Equal
                } else {
                    dict.get(codes[i]).cmp(dict.get(codes[j]))
                }
            }
            ColumnData::Date32(v) => v[i].cmp(&v[j]),
        }
    }

    /// True if rows `i` and `j` hold the same value (NULL equals NULL,
    /// matching GROUP BY semantics).
    #[inline]
    pub fn rows_equal(&self, i: usize, j: usize) -> bool {
        match (self.is_null(i), self.is_null(j)) {
            (true, true) => return true,
            (false, false) => {}
            _ => return false,
        }
        match &self.data {
            ColumnData::Int64(v) => v[i] == v[j],
            ColumnData::Float64(v) => {
                v[i].to_bits() == v[j].to_bits() || (v[i] == 0.0 && v[j] == 0.0)
            }
            ColumnData::Utf8 { codes, .. } => codes[i] == codes[j],
            ColumnData::Date32(v) => v[i] == v[j],
        }
    }

    /// Append a fixed-width, order-preserving-enough encoding of row `i`
    /// to `buf`, suitable as part of a hash/equality group key.
    ///
    /// Encodings are unique per value within one column (strings encode
    /// their dictionary code), which is all hash aggregation needs.
    #[inline]
    pub fn encode_key(&self, i: usize, buf: &mut Vec<u8>) {
        if self.is_null(i) {
            buf.push(0);
            return;
        }
        buf.push(1);
        match &self.data {
            ColumnData::Int64(v) => buf.extend_from_slice(&v[i].to_le_bytes()),
            ColumnData::Float64(v) => {
                // normalize -0.0 to 0.0 so SQL-equal values share a group
                let bits = if v[i] == 0.0 { 0u64 } else { v[i].to_bits() };
                buf.extend_from_slice(&bits.to_le_bytes());
            }
            ColumnData::Utf8 { codes, .. } => buf.extend_from_slice(&codes[i].to_le_bytes()),
            ColumnData::Date32(v) => buf.extend_from_slice(&v[i].to_le_bytes()),
        }
    }

    /// Width in bytes of this column's key encoding (including null byte).
    pub fn key_width(&self) -> usize {
        1 + match &self.data {
            ColumnData::Int64(_) | ColumnData::Float64(_) => 8,
            ColumnData::Utf8 { .. } => 4,
            ColumnData::Date32(_) => 4,
        }
    }

    /// Average width in bytes of one value when materialized in a row store.
    /// Strings use their dictionary's average string length (at least 1).
    pub fn avg_value_width(&self) -> f64 {
        match &self.data {
            ColumnData::Int64(_) | ColumnData::Float64(_) => 8.0,
            ColumnData::Date32(_) => 4.0,
            ColumnData::Utf8 { dict, .. } => dict.avg_len().max(1.0),
        }
    }

    /// Bytes one value occupies in this engine's columnar storage
    /// (strings store 4-byte dictionary codes). This is the width cost
    /// models should use to predict scan and materialization costs.
    pub fn stored_value_width(&self) -> f64 {
        match &self.data {
            ColumnData::Int64(_) | ColumnData::Float64(_) => 8.0,
            ColumnData::Date32(_) | ColumnData::Utf8 { .. } => 4.0,
        }
    }

    /// Bytes held by this column (payload + validity). A shared
    /// dictionary's payload is charged at most once per *row* of this
    /// column (`rows × avg string length`), so a small gathered result
    /// referencing a huge base-table dictionary is not billed for the
    /// whole dictionary — this keeps temp-table storage accounting
    /// (§4.4 of the paper) proportional to what the temp actually adds.
    pub fn byte_size(&self) -> usize {
        self.byte_size_of(self.len())
    }

    /// [`Column::byte_size`] of a column holding `rows` of this column's
    /// rows: what a read of a selection of them covers.
    pub fn byte_size_of(&self, rows: usize) -> usize {
        let payload = match &self.data {
            ColumnData::Int64(_) | ColumnData::Float64(_) => rows * 8,
            ColumnData::Utf8 { dict, .. } => {
                let string_share = ((rows as f64) * dict.avg_len()).ceil() as usize;
                rows * 4 + dict.byte_size().min(string_share)
            }
            ColumnData::Date32(_) => rows * 4,
        };
        payload + self.validity.as_ref().map_or(0, |_| rows.div_ceil(64) * 8)
    }

    /// Build a new column from the rows selected by `indices`, in order.
    pub fn gather(&self, indices: &[u32]) -> Column {
        let data = match &self.data {
            ColumnData::Int64(v) => {
                ColumnData::Int64(indices.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Float64(v) => {
                ColumnData::Float64(indices.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Utf8 { codes, dict } => ColumnData::Utf8 {
                codes: indices.iter().map(|&i| codes[i as usize]).collect(),
                dict: Arc::clone(dict),
            },
            ColumnData::Date32(v) => {
                ColumnData::Date32(indices.iter().map(|&i| v[i as usize]).collect())
            }
        };
        let validity = self
            .validity
            .as_ref()
            .map(|v| indices.iter().map(|&i| v.get(i as usize)).collect());
        Column::new(data, validity).expect("gather preserves lengths")
    }

    /// Iterate all values (allocating `Value`s; for tests and result reads).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// An empty column of `data_type` with room for `capacity` rows.
    fn with_capacity(data_type: DataType, capacity: usize) -> Column {
        let data = match data_type {
            DataType::Int64 => ColumnData::Int64(Vec::with_capacity(capacity)),
            DataType::Float64 => ColumnData::Float64(Vec::with_capacity(capacity)),
            DataType::Date32 => ColumnData::Date32(Vec::with_capacity(capacity)),
            DataType::Utf8 => ColumnData::Utf8 {
                codes: Vec::with_capacity(capacity),
                dict: Arc::default(),
            },
        };
        Column::unchecked(data, None)
    }

    /// Append `other`'s rows to this column in place, in O(`other`)
    /// amortised. A string delta that shares this column's dictionary
    /// adds its codes as they are; one with its own dictionary is
    /// remapped through a per-code table (O(its dictionary + its rows),
    /// never per-row hashing of string bytes), and only a string this
    /// column has never seen interns — copy-on-write, so whoever shares
    /// the old `Arc<Dictionary>` keeps it and the codes already stored
    /// never change. A column with no rows adopts the delta's dictionary.
    /// Validity appears, all ones, when the first NULL arrives. A kept
    /// [`Column::range`] is widened by the appended rows' range.
    ///
    /// Panics if the data types differ.
    pub fn append(&mut self, other: &Column) {
        let old_len = self.len();
        match (&mut self.data, &other.data) {
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend_from_slice(b),
            (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend_from_slice(b),
            (ColumnData::Date32(a), ColumnData::Date32(b)) => a.extend_from_slice(b),
            (
                ColumnData::Utf8 { codes, dict },
                ColumnData::Utf8 {
                    codes: other_codes,
                    dict: other_dict,
                },
            ) => {
                if codes.is_empty() {
                    *dict = Arc::clone(other_dict);
                }
                if Arc::ptr_eq(dict, other_dict) {
                    codes.extend_from_slice(other_codes);
                } else {
                    let remap: Vec<u32> = (0..other_dict.len() as u32)
                        .map(|c| {
                            let s = other_dict.get(c);
                            match dict.code_of(s) {
                                Some(code) => code,
                                None => Arc::make_mut(dict).intern(s),
                            }
                        })
                        .collect();
                    // A NULL slot may carry any code; it lands on code 0.
                    codes.extend(
                        other_codes
                            .iter()
                            .map(|&c| remap.get(c as usize).copied().unwrap_or(0)),
                    );
                }
                if dict.is_empty() && !codes.is_empty() {
                    // all-null parts carry empty dicts; keep code 0 valid
                    Arc::make_mut(dict).intern("");
                }
            }
            _ => panic!(
                "append across column types: {:?} onto {:?}",
                other.data_type(),
                self.data_type()
            ),
        }
        if let Some(o) = &other.validity {
            self.validity
                .get_or_insert_with(|| Bitmap::filled(old_len, true))
                .extend_from(o);
        } else if let Some(v) = &mut self.validity {
            v.extend_ones(other.len());
        }
        if let Some(&kept) = self.range.get() {
            let delta = self.scan_range(old_len..self.len());
            self.range = OnceLock::from(widen(kept, delta));
        }
    }

    /// Concatenate same-typed columns into one: [`Column::append`]
    /// folded over the parts into a column reserved for the total. String
    /// parts that share one dictionary (the common case: shards gathered
    /// from one base table) keep sharing it.
    pub fn concat(parts: &[&Column]) -> Result<Column> {
        let first = parts
            .first()
            .ok_or_else(|| StorageError::Malformed("concat of zero columns".into()))?;
        let dt = first.data_type();
        if let Some(bad) = parts.iter().find(|p| p.data_type() != dt) {
            return Err(StorageError::TypeMismatch {
                expected: dt,
                got: format!("{:?}", bad.data_type()),
            });
        }
        let mut out = Column::with_capacity(dt, parts.iter().map(|p| p.len()).sum());
        for part in parts {
            out.append(part);
        }
        Ok(out)
    }
}

/// The smallest range holding both `a` and `b` (`None`: no value).
fn widen(a: Option<(i64, i64)>, b: Option<(i64, i64)>) -> Option<(i64, i64)> {
    match (a, b) {
        (Some((min_a, max_a)), Some((min_b, max_b))) => Some((min_a.min(min_b), max_a.max(max_b))),
        (a, b) => a.or(b),
    }
}

fn data_len(data: &ColumnData) -> usize {
    match data {
        ColumnData::Int64(v) => v.len(),
        ColumnData::Float64(v) => v.len(),
        ColumnData::Utf8 { codes, .. } => codes.len(),
        ColumnData::Date32(v) => v.len(),
    }
}

/// An incremental, typed column builder that accepts dynamic [`Value`]s.
#[derive(Debug)]
pub struct ColumnBuilder {
    data_type: DataType,
    ints: Vec<i64>,
    floats: Vec<f64>,
    codes: Vec<u32>,
    dates: Vec<i32>,
    dict: Dictionary,
    validity: Bitmap,
    has_null: bool,
}

impl ColumnBuilder {
    /// Create a builder for the given type.
    pub fn new(data_type: DataType) -> Self {
        ColumnBuilder {
            data_type,
            ints: Vec::new(),
            floats: Vec::new(),
            codes: Vec::new(),
            dates: Vec::new(),
            dict: Dictionary::new(),
            validity: Bitmap::new(),
            has_null: false,
        }
    }

    /// Create a builder with pre-reserved capacity.
    pub fn with_capacity(data_type: DataType, capacity: usize) -> Self {
        let mut b = Self::new(data_type);
        match data_type {
            DataType::Int64 => b.ints.reserve(capacity),
            DataType::Float64 => b.floats.reserve(capacity),
            DataType::Utf8 => b.codes.reserve(capacity),
            DataType::Date32 => b.dates.reserve(capacity),
        }
        b
    }

    /// Number of values pushed so far.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True if nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a value; must be NULL or match the builder's type.
    pub fn push(&mut self, value: &Value) -> Result<()> {
        match (self.data_type, value) {
            (_, Value::Null) => {
                self.push_null();
                Ok(())
            }
            (DataType::Int64, Value::Int(v)) => {
                self.push_i64(*v);
                Ok(())
            }
            (DataType::Float64, Value::Float(v)) => {
                self.push_f64(*v);
                Ok(())
            }
            (DataType::Utf8, Value::Str(s)) => {
                self.push_str(s);
                Ok(())
            }
            (DataType::Date32, Value::Date(d)) => {
                self.push_date(*d);
                Ok(())
            }
            _ => Err(StorageError::TypeMismatch {
                expected: self.data_type,
                got: format!("{value:?}"),
            }),
        }
    }

    /// Append an i64 (builder must be `Int64`).
    pub fn push_i64(&mut self, v: i64) {
        debug_assert_eq!(self.data_type, DataType::Int64);
        self.ints.push(v);
        self.validity.push(true);
    }

    /// Append an f64 (builder must be `Float64`).
    pub fn push_f64(&mut self, v: f64) {
        debug_assert_eq!(self.data_type, DataType::Float64);
        self.floats.push(v);
        self.validity.push(true);
    }

    /// Append a string (builder must be `Utf8`).
    pub fn push_str(&mut self, s: &str) {
        debug_assert_eq!(self.data_type, DataType::Utf8);
        let code = self.dict.intern(s);
        self.codes.push(code);
        self.validity.push(true);
    }

    /// Append a date (builder must be `Date32`).
    pub fn push_date(&mut self, d: i32) {
        debug_assert_eq!(self.data_type, DataType::Date32);
        self.dates.push(d);
        self.validity.push(true);
    }

    /// Append a NULL.
    pub fn push_null(&mut self) {
        self.has_null = true;
        match self.data_type {
            DataType::Int64 => self.ints.push(0),
            DataType::Float64 => self.floats.push(0.0),
            DataType::Utf8 => self.codes.push(u32::MAX),
            DataType::Date32 => self.dates.push(0),
        }
        self.validity.push(false);
    }

    /// Finish and produce the column.
    pub fn finish(self) -> Column {
        let ColumnBuilder {
            data_type,
            ints,
            floats,
            mut codes,
            dates,
            dict,
            validity,
            has_null,
        } = self;
        // NULL string slots were marked with u32::MAX; repoint them at a
        // valid (arbitrary) code so downstream gathers never index out of
        // the dictionary. Validity masks them anyway.
        if has_null && data_type == DataType::Utf8 {
            for code in codes.iter_mut() {
                if *code == u32::MAX {
                    *code = 0;
                }
            }
        }
        let data = match data_type {
            DataType::Int64 => ColumnData::Int64(ints),
            DataType::Float64 => ColumnData::Float64(floats),
            DataType::Utf8 => {
                let mut dict = dict;
                if has_null && dict.is_empty() {
                    // All-null string column still needs code 0 resolvable.
                    dict.intern("");
                }
                ColumnData::Utf8 {
                    codes,
                    dict: Arc::new(dict),
                }
            }
            DataType::Date32 => ColumnData::Date32(dates),
        };
        let validity = if has_null { Some(validity) } else { None };
        Column::new(data, validity).expect("builder produces consistent lengths")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_roundtrip_values() {
        for (dt, vals) in [
            (
                DataType::Int64,
                vec![Value::Int(1), Value::Null, Value::Int(-5)],
            ),
            (
                DataType::Float64,
                vec![Value::Float(0.5), Value::Float(-1.0), Value::Null],
            ),
            (
                DataType::Utf8,
                vec![
                    Value::str("a"),
                    Value::Null,
                    Value::str("a"),
                    Value::str("b"),
                ],
            ),
            (DataType::Date32, vec![Value::Date(100), Value::Null]),
        ] {
            let mut b = ColumnBuilder::new(dt);
            for v in &vals {
                b.push(v).unwrap();
            }
            let col = b.finish();
            assert_eq!(col.len(), vals.len());
            assert_eq!(col.data_type(), dt);
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(&col.value(i), v, "type {dt:?} row {i}");
            }
        }
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut b = ColumnBuilder::new(DataType::Int64);
        let err = b.push(&Value::str("oops")).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn all_valid_mask_is_normalized_away() {
        let col = Column::new(
            ColumnData::Int64(vec![1, 2, 3]),
            Some(Bitmap::filled(3, true)),
        )
        .unwrap();
        assert!(col.validity().is_none());
        assert_eq!(col.null_count(), 0);
    }

    #[test]
    fn mismatched_validity_length_rejected() {
        let err = Column::new(
            ColumnData::Int64(vec![1, 2, 3]),
            Some(Bitmap::filled(2, true)),
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::Malformed(_)));
    }

    #[test]
    fn cmp_rows_nulls_first_and_string_order() {
        let mut b = ColumnBuilder::new(DataType::Utf8);
        b.push_str("banana");
        b.push_null();
        b.push_str("apple");
        b.push_str("banana");
        let col = b.finish();
        assert_eq!(col.cmp_rows(1, 0), Ordering::Less); // NULL < banana
        assert_eq!(col.cmp_rows(2, 0), Ordering::Less); // apple < banana
        assert_eq!(col.cmp_rows(0, 3), Ordering::Equal);
        assert!(col.rows_equal(0, 3));
        assert!(!col.rows_equal(0, 1));
        assert!(col.rows_equal(1, 1));
    }

    #[test]
    fn gather_preserves_values_and_nulls() {
        let mut b = ColumnBuilder::new(DataType::Int64);
        for v in [Value::Int(10), Value::Null, Value::Int(30)] {
            b.push(&v).unwrap();
        }
        let col = b.finish();
        let g = col.gather(&[2, 1, 0, 2]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.value(0), Value::Int(30));
        assert_eq!(g.value(1), Value::Null);
        assert_eq!(g.value(2), Value::Int(10));
        assert_eq!(g.value(3), Value::Int(30));
    }

    #[test]
    fn gather_string_column_shares_dictionary() {
        let col = Column::from_strs(&["x", "y", "x"]);
        let g = col.gather(&[1, 1]);
        assert_eq!(g.value(0), Value::str("y"));
        if let (ColumnData::Utf8 { dict: d1, .. }, ColumnData::Utf8 { dict: d2, .. }) =
            (col.data(), g.data())
        {
            assert!(Arc::ptr_eq(d1, d2));
        } else {
            panic!("expected Utf8");
        }
    }

    #[test]
    fn key_encoding_distinguishes_values_and_nulls() {
        let mut b = ColumnBuilder::new(DataType::Int64);
        for v in [Value::Int(0), Value::Null, Value::Int(1)] {
            b.push(&v).unwrap();
        }
        let col = b.finish();
        let enc = |i: usize| {
            let mut buf = Vec::new();
            col.encode_key(i, &mut buf);
            buf
        };
        assert_ne!(enc(0), enc(1)); // 0 vs NULL
        assert_ne!(enc(0), enc(2));
        assert_ne!(enc(1), enc(2));
        assert_eq!(enc(0).len(), col.key_width());
        assert_eq!(enc(1).len(), 1); // null short-circuit
    }

    #[test]
    fn widths_and_sizes() {
        let c = Column::from_i64(vec![1, 2, 3, 4]);
        assert_eq!(c.byte_size(), 32);
        assert_eq!(c.avg_value_width(), 8.0);
        let s = Column::from_strs(&["abcd", "ef", "abcd"]);
        assert!((s.avg_value_width() - 3.0).abs() < 1e-9);
        assert_eq!(s.byte_size(), 3 * 4 + 6);
        let d = Column::from_dates(vec![1, 2]);
        assert_eq!(d.byte_size(), 8);
        assert_eq!(d.key_width(), 5);
    }

    #[test]
    fn negative_zero_groups_with_zero() {
        let col = Column::from_f64(vec![0.0, -0.0, 1.0]);
        assert!(col.rows_equal(0, 1));
        assert!(!col.rows_equal(0, 2));
        let enc = |i: usize| {
            let mut buf = Vec::new();
            col.encode_key(i, &mut buf);
            buf
        };
        assert_eq!(enc(0), enc(1));
        assert_ne!(enc(0), enc(2));
    }

    #[test]
    fn concat_shares_dictionary_on_common_ancestor() {
        let base = Column::from_strs(&["x", "y", "z", "x"]);
        let a = base.gather(&[0, 2]);
        let b = base.gather(&[1, 3]);
        let c = Column::concat(&[&a, &b]).unwrap();
        assert_eq!(c.len(), 4);
        let vals: Vec<Value> = c.iter_values().collect();
        assert_eq!(
            vals,
            vec![
                Value::str("x"),
                Value::str("z"),
                Value::str("y"),
                Value::str("x")
            ]
        );
        if let (ColumnData::Utf8 { dict: d0, .. }, ColumnData::Utf8 { dict: dc, .. }) =
            (base.data(), c.data())
        {
            assert!(Arc::ptr_eq(d0, dc), "shared-ancestor concat must not copy");
        } else {
            panic!("expected Utf8");
        }
    }

    #[test]
    fn concat_remaps_distinct_dictionaries() {
        let a = Column::from_strs(&["alpha", "beta"]);
        let b = Column::from_strs(&["beta", "gamma"]);
        let c = Column::concat(&[&a, &b]).unwrap();
        let vals: Vec<Value> = c.iter_values().collect();
        assert_eq!(
            vals,
            vec![
                Value::str("alpha"),
                Value::str("beta"),
                Value::str("beta"),
                Value::str("gamma")
            ]
        );
    }

    #[test]
    fn concat_preserves_nulls_and_checks_types() {
        let mut b = ColumnBuilder::new(DataType::Int64);
        b.push_i64(1);
        b.push_null();
        let with_null = b.finish();
        let plain = Column::from_i64(vec![7]);
        let c = Column::concat(&[&with_null, &plain]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Int(7));
        assert_eq!(c.null_count(), 1);
        let err = Column::concat(&[&plain, &Column::from_dates(vec![1])]).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        assert!(Column::concat(&[]).is_err());
    }

    fn dict_of(col: &Column) -> &Arc<Dictionary> {
        match col.data() {
            ColumnData::Utf8 { dict, .. } => dict,
            other => panic!("expected Utf8, got {other:?}"),
        }
    }

    #[test]
    fn append_of_known_strings_never_touches_the_dictionary() {
        let mut base = Column::from_strs(&["a", "b", "c"]);
        // what a cached aggregate over the column holds
        let shared = Arc::clone(dict_of(&base));
        // an independently built delta (a decoded wire `Append`): its own
        // dictionary, its own code order
        let delta = Column::from_strs(&["c", "a", "c"]);
        base.append(&delta);
        assert!(Arc::ptr_eq(dict_of(&base), &shared));
        assert_eq!(shared.len(), 3);
        let vals: Vec<Value> = base.iter_values().collect();
        let want = ["a", "b", "c", "c", "a", "c"].map(Value::str);
        assert_eq!(vals, want);
        // a delta gathered from the column shares the Arc and adds its codes
        let tail = base.gather(&[1, 2]);
        base.append(&tail);
        assert!(Arc::ptr_eq(dict_of(&base), &shared));
        assert_eq!(base.value(7), Value::str("c"));
    }

    #[test]
    fn append_of_a_new_string_copies_a_shared_dictionary_once() {
        let mut base = Column::from_strs(&["a", "b"]);
        let snapshot = base.clone(); // shares the dictionary
        base.append(&Column::from_strs(&["z", "a"]));
        // the sharer keeps the old dictionary; base codes did not move
        assert_eq!(dict_of(&snapshot).len(), 2);
        assert!(!Arc::ptr_eq(dict_of(&base), dict_of(&snapshot)));
        assert_eq!(dict_of(&base).len(), 3);
        let vals: Vec<Value> = base.iter_values().collect();
        assert_eq!(vals, ["a", "b", "z", "a"].map(Value::str));
        for code in 0..2 {
            assert_eq!(dict_of(&base).get(code), dict_of(&snapshot).get(code));
        }
        // now unshared: the next new string interns in place
        let own = Arc::as_ptr(dict_of(&base));
        base.append(&Column::from_strs(&["y"]));
        assert_eq!(Arc::as_ptr(dict_of(&base)), own);
        assert_eq!(dict_of(&base).len(), 4);
    }

    #[test]
    fn append_creates_validity_when_the_first_null_arrives() {
        let mut nulls = ColumnBuilder::new(DataType::Date32);
        nulls.push_date(5);
        nulls.push_null();
        let nulls = nulls.finish();
        // 70 valid rows put the first NULL past a word boundary
        let mut col = Column::from_dates((0..70).collect());
        col.append(&Column::from_dates(vec![70]));
        assert!(col.validity().is_none());
        col.append(&nulls);
        col.append(&Column::from_dates(vec![9, 9, 9]));
        assert_eq!(col.len(), 76);
        assert_eq!(col.null_count(), 1);
        assert_eq!(col.validity().unwrap().len(), 76);
        for i in 0..76 {
            assert_eq!(col.is_null(i), i == 72, "row {i}");
        }
        assert_eq!(col.value(71), Value::Date(5));
        assert_eq!(col.value(75), Value::Date(9));
    }

    #[test]
    fn append_remap_tolerates_any_code_in_a_null_slot() {
        // The wire decoder leaves `u32::MAX` in NULL string slots.
        let mut dict = Dictionary::new();
        dict.intern("only");
        let delta = Column::new(
            ColumnData::Utf8 {
                codes: vec![0, u32::MAX],
                dict: Arc::new(dict),
            },
            Some([true, false].into_iter().collect()),
        )
        .unwrap();
        let mut base = Column::from_strs(&["x"]);
        base.append(&delta);
        let vals: Vec<Value> = base.iter_values().collect();
        assert_eq!(vals, vec![Value::str("x"), Value::str("only"), Value::Null]);
        // the placeholder is a resolvable code: gathers stay in range
        assert_eq!(base.gather(&[2, 1]).value(0), Value::Null);
    }

    #[test]
    #[should_panic(expected = "append across column types")]
    fn append_across_types_panics() {
        Column::from_i64(vec![1]).append(&Column::from_dates(vec![1]));
    }

    #[test]
    fn all_null_string_column_is_safe() {
        let mut b = ColumnBuilder::new(DataType::Utf8);
        b.push_null();
        b.push_null();
        let col = b.finish();
        assert_eq!(col.value(0), Value::Null);
        assert_eq!(col.null_count(), 2);
        // gather must not panic on the placeholder codes
        let g = col.gather(&[1, 0]);
        assert_eq!(g.value(0), Value::Null);
    }

    #[test]
    fn concat_remap_preserves_nulls_in_divergent_dictionaries() {
        // Two independently built string columns: disjoint dictionaries
        // *and* null slots whose normalized placeholder codes must not
        // leak a dictionary value through the remap.
        let mut a = ColumnBuilder::new(DataType::Utf8);
        a.push_str("alpha");
        a.push_null();
        a.push_str("beta");
        let mut b = ColumnBuilder::new(DataType::Utf8);
        b.push_null();
        b.push_str("beta");
        b.push_str("gamma");
        let c = Column::concat(&[&a.finish(), &b.finish()]).unwrap();
        let vals: Vec<Value> = c.iter_values().collect();
        assert_eq!(
            vals,
            vec![
                Value::str("alpha"),
                Value::Null,
                Value::str("beta"),
                Value::Null,
                Value::str("beta"),
                Value::str("gamma"),
            ]
        );
        assert_eq!(c.null_count(), 2);
    }

    #[test]
    fn concat_remap_handles_an_empty_dictionary_side() {
        // A zero-row string column carries an empty dictionary; an
        // all-null column carries the placeholder-only dictionary. Both
        // must remap cleanly against a populated side, in either order.
        let empty = Column::from_strs::<&str>(&[]);
        let mut b = ColumnBuilder::new(DataType::Utf8);
        b.push_null();
        b.push_null();
        let all_null = b.finish();
        let full = Column::from_strs(&["x", "y"]);

        let c = Column::concat(&[&empty, &full]).unwrap();
        assert_eq!(
            c.iter_values().collect::<Vec<_>>(),
            vec![Value::str("x"), Value::str("y")]
        );
        let c = Column::concat(&[&full, &empty, &all_null]).unwrap();
        assert_eq!(
            c.iter_values().collect::<Vec<_>>(),
            vec![Value::str("x"), Value::str("y"), Value::Null, Value::Null]
        );
        assert_eq!(c.null_count(), 2);
        // nothing but empties/nulls: the merged dictionary still
        // resolves every code
        let c = Column::concat(&[&all_null, &empty]).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.null_count(), 2);
        assert_eq!(c.value(0), Value::Null);
    }
}

#[cfg(test)]
mod concat_properties {
    use super::*;
    use proptest::prelude::*;

    /// Map one generated payload onto every column type, so a single
    /// generator drives ints, floats, dates, and strings (whose small
    /// alphabet forces both overlapping and divergent dictionaries).
    /// The leading bool marks a NULL slot.
    fn to_value(dt: DataType, x: (bool, i64)) -> Value {
        let (null, v) = x;
        if null {
            return Value::Null;
        }
        match dt {
            DataType::Int64 => Value::Int(v),
            DataType::Float64 => Value::Float(v as f64 * 0.5),
            DataType::Date32 => Value::Date((v % 50_000) as i32),
            DataType::Utf8 => Value::str(&format!("s{}", v.rem_euclid(7))),
        }
    }

    fn column_of(dt: DataType, xs: &[(bool, i64)]) -> Column {
        let mut b = ColumnBuilder::new(dt);
        for x in xs {
            b.push(&to_value(dt, *x)).unwrap();
        }
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn concat_row_equals_parts_for_every_type(
            a in prop::collection::vec((any::<bool>(), any::<i64>()), 0..24),
            b in prop::collection::vec((any::<bool>(), any::<i64>()), 0..24),
        ) {
            for dt in [
                DataType::Int64,
                DataType::Float64,
                DataType::Date32,
                DataType::Utf8,
            ] {
                let ca = column_of(dt, &a);
                let cb = column_of(dt, &b);
                let c = Column::concat(&[&ca, &cb]).unwrap();
                prop_assert_eq!(c.len(), a.len() + b.len());
                for (i, x) in a.iter().chain(b.iter()).enumerate() {
                    prop_assert_eq!(c.value(i), to_value(dt, *x));
                }
                prop_assert_eq!(
                    c.null_count(),
                    a.iter().chain(b.iter()).filter(|(n, _)| *n).count()
                );
                // growing `ca` in place by a delta that shares its
                // dictionary (a slice of itself) or brings its own
                let mut grown = ca.clone();
                grown.append(&ca.gather(&(0..(a.len() / 2) as u32).collect::<Vec<_>>()));
                grown.append(&cb);
                let want = a[..a.len() / 2].iter().chain(b.iter());
                prop_assert_eq!(grown.len(), a.len() + a.len() / 2 + b.len());
                for (i, x) in a.iter().chain(want).enumerate() {
                    prop_assert_eq!(grown.value(i), to_value(dt, *x));
                }
            }
        }
    }
}

#[cfg(test)]
mod range_properties {
    use super::*;
    use crate::packed::PackedKeySpec;
    use crate::schema::{Field, Schema};
    use crate::table::Table;
    use proptest::prelude::*;

    /// A NULL or a value, the extremes of both key types included.
    fn value() -> impl Strategy<Value = Option<i64>> {
        let extremes = vec![i64::MIN, i64::MAX, i32::MIN.into(), i32::MAX.into()];
        prop_oneof![
            1 => Just(None),
            1 => prop::sample::select(extremes).prop_map(Some),
            4 => (-50i64..50).prop_map(Some),
        ]
    }

    /// A one-column table of `xs` (`Date32` keeps the low 32 bits).
    fn table_of(dt: DataType, xs: &[Option<i64>]) -> Table {
        let mut b = ColumnBuilder::new(dt);
        for x in xs {
            match (dt, x) {
                (_, None) => b.push_null(),
                (DataType::Int64, Some(v)) => b.push_i64(*v),
                (_, Some(v)) => b.push_date(*v as i32),
            }
        }
        Table::new(
            Schema::new(vec![Field::new("k", dt)]).unwrap(),
            vec![b.finish()],
        )
        .unwrap()
    }

    /// A fresh scan of the whole column, bypassing what it keeps.
    fn scanned(col: &Column) -> Option<(i64, i64)> {
        col.scan_range(0..col.len())
    }

    /// The column's kept range and its reported range both equal a fresh
    /// scan, and its whole-column packing equals the one a scan of every
    /// row as a selection builds. (The vendored `prop_assert*` panic, so
    /// plain helpers can use them.)
    fn assert_true(col: &Column, what: &str) {
        let all: Vec<u32> = (0..col.len() as u32).collect();
        prop_assert_eq!(col.range(), scanned(col), "{}", what);
        prop_assert_eq!(col.range.get().copied(), Some(scanned(col)), "{}", what);
        prop_assert_eq!(
            PackedKeySpec::build(&[col], None),
            PackedKeySpec::build(&[col], Some(&all)),
            "{}",
            what
        );
    }

    /// A derived column keeps no range until asked, then reports a scan.
    fn assert_derived(col: &Column, what: &str) {
        assert!(col.range.get().is_none(), "{what} kept a range");
        assert_true(col, what);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Steps: 0 an in-place append, 1 an append through a held clone
        /// (copy-on-write: the copy keeps no range, the clone its own), 2
        /// a NULL-only delta, 3 the range asked for between appends, 4 two
        /// threads asking a fresh gather at once.
        #[test]
        fn a_kept_range_stays_true_under_any_append_schedule(
            start in prop::collection::vec(value(), 0..12),
            steps in prop::collection::vec((0u8..5, prop::collection::vec(value(), 0..12)), 0..10),
        ) {
            for dt in [DataType::Int64, DataType::Date32] {
                let mut table = table_of(dt, &start);
                for (step, xs) in &steps {
                    let nulls = vec![None; xs.len()];
                    let delta = table_of(dt, if *step == 2 { &nulls } else { xs });
                    let kept = table.column(0).range.get().is_some();
                    match step {
                        1 => {
                            let held = table.clone();
                            let before = held.column(0).range.get().copied();
                            table.append(&delta).unwrap();
                            prop_assert_eq!(held.column(0).range.get().copied(), before);
                            prop_assert_eq!(held.column(0).range(), scanned(held.column(0)));
                        }
                        3 => {
                            table.column(0).range();
                        }
                        4 => {
                            let ids: Vec<u32> = (0..table.num_rows() as u32).step_by(2).collect();
                            let fresh = table.column(0).gather(&ids);
                            let [a, b] = std::thread::scope(|s| {
                                let ask = || s.spawn(|| fresh.range());
                                [ask(), ask()].map(|h| h.join().unwrap())
                            });
                            prop_assert_eq!(a, b);
                            assert_true(&fresh, "a gather asked from two threads");
                        }
                        _ => table.append(&delta).unwrap(),
                    }
                    let col = table.column(0);
                    let what = format!("{dt:?} after step {step}");
                    match step {
                        1 => assert_derived(col, &what),
                        3 => assert_true(col, &what),
                        _ if kept => assert_true(col, &what),
                        _ => prop_assert!(col.range.get().is_none(), "an append computed a range"),
                    }
                    let ids: Vec<u32> = (0..col.len() as u32).rev().step_by(3).collect();
                    assert_derived(&col.gather(&ids), "a gather");
                    assert_derived(&Column::concat(&[col, delta.column(0)]).unwrap(), "a concat");
                    let tail = table.slice_rows(col.len() / 2, col.len() - col.len() / 2).unwrap();
                    assert_derived(tail.column(0), "a slice");
                }
            }
        }
    }

    #[test]
    fn only_integer_and_date_columns_have_a_range() {
        assert_eq!(Column::from_i64(vec![4, -2]).range(), Some((-2, 4)));
        assert_eq!(Column::from_dates(vec![9]).range(), Some((9, 9)));
        assert_eq!(Column::from_i64(vec![]).range(), None);
        assert_eq!(Column::from_f64(vec![1.0]).range(), None);
        assert_eq!(Column::from_strs(&["a"]).range(), None);
        let mut grown = Column::from_i64(vec![]);
        grown.range();
        grown.append(&Column::from_i64(vec![7, 3]));
        assert_eq!(grown.range.get().copied(), Some(Some((3, 7))));
    }
}
