//! Packed group-key codes: bit-pack a row's group-by key into one
//! `u64`/`u128` integer instead of a variable-length byte [`RowKey`].
//!
//! All fixed-width column types (`Int64`, `Date32`, dictionary-coded
//! `Utf8`) can be packed: a build-time scan finds each column's value
//! range, assigns it `ceil(log2(range + 2))` bits, and lays the columns
//! out side by side from bit 0 upward. Within a column's field, code `0`
//! is the NULL sentinel and a non-null value `v` maps to `v - min + 1`,
//! so NULL forms its own group exactly like the byte encoding's null
//! tag. `Float64` columns and layouts wider than 128 bits are not
//! packable; callers fall back to [`crate::key::KeyEncoder`].
//!
//! Packing exists for speed: a packed code is built with a shift and an
//! OR per column in a tight per-column loop (no per-row type dispatch,
//! no byte buffers), compares with one integer comparison, and hashes
//! with one multiply.
//!
//! [`RowKey`]: crate::key::RowKey

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData};
use std::ops::Range;

/// An integer type that can hold a packed group key: `u64` or `u128`.
///
/// The two widths share one generic kernel; `u64` stays on the fast
/// single-word path while `u128` covers layouts up to 128 bits.
pub trait KeyCode:
    Copy + Default + Eq + std::hash::Hash + Send + Sync + std::fmt::Debug + 'static
{
    /// Bits this code type can hold.
    const BITS: u32;

    /// OR the field of a non-null value into this code at bit offset
    /// `shift`: `offset` is the value minus its column's minimum, and the
    /// field holds `offset + 1` (0 being NULL). The `u64` code adds in
    /// `u64`, exact because a layout that fits it has no 65-bit field;
    /// the `u128` code widens first.
    fn or_offset(self, offset: u64, shift: u32) -> Self;

    /// A well-mixed 64-bit hash of the code. Radix partitioning takes
    /// the *top* bits, so the mix must avalanche into the high half.
    fn partition_hash(self) -> u64;
}

#[inline]
fn mix64(x: u64) -> u64 {
    // Fibonacci multiply puts entropy in the high bits; the xor-shift
    // folds the low half back in so sequential codes spread.
    let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

impl KeyCode for u64 {
    const BITS: u32 = 64;

    #[inline]
    fn or_offset(self, offset: u64, shift: u32) -> Self {
        self | ((offset + 1) << shift)
    }

    #[inline]
    fn partition_hash(self) -> u64 {
        mix64(self)
    }
}

impl KeyCode for u128 {
    const BITS: u32 = 128;

    #[inline]
    fn or_offset(self, offset: u64, shift: u32) -> Self {
        self | ((u128::from(offset) + 1) << shift)
    }

    #[inline]
    fn partition_hash(self) -> u64 {
        mix64((self as u64) ^ ((self >> 64) as u64))
    }
}

/// Per-column packing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedColumn {
    /// Minimum non-null value (as i64; dates widened, strings use 0).
    base: i64,
    /// Bit offset of this column's field within the packed code.
    shift: u32,
    /// Field width in bits.
    bits: u32,
}

/// A bit-packing layout for one group-column set, built by scanning the
/// columns' value ranges. See the [module docs](self) for the format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedKeySpec {
    cols: Vec<PackedColumn>,
    total_bits: u32,
}

impl PackedKeySpec {
    /// Build a packing layout for the rows `rows` of `cols` (ascending
    /// row ids; `None`: every row), or `None` if the columns are not
    /// packable (any `Float64`, or more than 128 bits total). The value
    /// ranges are scanned over those rows alone, in time proportional to
    /// them.
    pub fn build(cols: &[&Column], rows: Option<&[u32]>) -> Option<Self> {
        let mut packed = Vec::with_capacity(cols.len());
        let mut total = 0u32;
        for col in cols {
            let (base, max_code) = match col.data() {
                ColumnData::Float64(_) => return None,
                ColumnData::Int64(v) => code_range(range_over(v, col.validity(), rows)),
                ColumnData::Date32(v) => code_range(range_over(v, col.validity(), rows)),
                // Dictionary codes are dense in 0..len, no scan needed;
                // the packed value is code + 1.
                ColumnData::Utf8 { dict, .. } => (0i64, dict.len() as u128),
            };
            let bits = bits_for(max_code).max(1);
            packed.push(PackedColumn {
                base,
                shift: total,
                bits,
            });
            total += bits;
            if total > 128 {
                return None;
            }
        }
        Some(PackedKeySpec {
            cols: packed,
            total_bits: total,
        })
    }

    /// Total bits the packed code occupies.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// True if the layout fits a single `u64` code.
    pub fn fits_u64(&self) -> bool {
        self.total_bits <= 64
    }

    /// Encode rows `start .. start + out.len()` of `cols` into `out`, or
    /// with `ids` the rows it lists (ascending row ids, as many as `out`
    /// holds).
    ///
    /// `cols` must be the same columns (in the same order) the spec was
    /// built from, and `out` must be zero-initialized. The loop order is
    /// column-major: each column's field is OR-ed into the whole morsel
    /// before the next column, so the per-row work is a subtract, a
    /// shift and an OR with no type dispatch.
    pub fn encode_into<K: KeyCode>(
        &self,
        cols: &[&Column],
        start: usize,
        ids: Option<&[u32]>,
        out: &mut [K],
    ) {
        debug_assert_eq!(cols.len(), self.cols.len());
        debug_assert!(self.total_bits <= K::BITS);
        for (pc, col) in self.cols.iter().zip(cols) {
            let (base, valid) = (pc.base, col.validity());
            let at = (start, ids, pc.shift);
            match col.data() {
                ColumnData::Int64(v) => {
                    or_column(out, v, valid, at, |x| x.wrapping_sub(base) as u64)
                }
                ColumnData::Date32(v) => or_column(out, v, valid, at, |x| {
                    i64::from(x).wrapping_sub(base) as u64
                }),
                ColumnData::Utf8 { codes, .. } => or_column(out, codes, valid, at, u64::from),
                ColumnData::Float64(_) => {
                    unreachable!("Float64 columns are rejected by PackedKeySpec::build")
                }
            }
        }
    }
}

/// OR one column's field, at bit offset `shift`, into `out`: the codes
/// of rows `start .. start + out.len()`, or of the rows `ids` when given.
/// `offset` maps a stored value to its distance from the column's
/// minimum, and a NULL row keeps field 0. The no-NULL loop over a row
/// range runs over zipped slices with no index and no branch, so it
/// vectorizes.
fn or_column<K: KeyCode, T: Copy>(
    out: &mut [K],
    values: &[T],
    validity: Option<&Bitmap>,
    (start, ids, shift): (usize, Option<&[u32]>, u32),
    offset: impl Fn(T) -> u64,
) {
    if let Some(ids) = ids {
        return or_rows(out, values, validity, ids, shift, offset);
    }
    let values = &values[start..start + out.len()];
    match validity {
        None => {
            for (slot, &v) in out.iter_mut().zip(values) {
                *slot = slot.or_offset(offset(v), shift);
            }
        }
        Some(valid) => {
            for (row, (slot, &v)) in (start..).zip(out.iter_mut().zip(values)) {
                if valid.get(row) {
                    *slot = slot.or_offset(offset(v), shift);
                }
            }
        }
    }
}

/// [`or_column`] over the rows `ids`, gathering each value. Kept out of
/// line: inlined into `or_column`, it slowed the row-range loop that
/// every whole-table read takes.
#[inline(never)]
fn or_rows<K: KeyCode, T: Copy>(
    out: &mut [K],
    values: &[T],
    validity: Option<&Bitmap>,
    ids: &[u32],
    shift: u32,
    offset: impl Fn(T) -> u64,
) {
    for (slot, &row) in out.iter_mut().zip(ids) {
        if validity.is_none_or(|valid| valid.get(row as usize)) {
            *slot = slot.or_offset(offset(values[row as usize]), shift);
        }
    }
}

/// Bits needed to represent the values `0..=max` (`0` for `max == 0`).
pub fn bits_for(max: u128) -> u32 {
    128 - max.leading_zeros()
}

/// `(min, max)` over the non-null rows among `values[rows]`, widened to
/// `i64`, or `None` when that range holds no non-null row. `validity`
/// is the column's bitmap, indexed like `values`.
///
/// This is the one range scan behind every bit-width decision: the
/// packed group keys above take it over a whole column, the wire codec
/// over one chunk's rows.
pub fn value_range<T: Copy + Into<i64>>(
    values: &[T],
    validity: Option<&Bitmap>,
    rows: Range<usize>,
) -> Option<(i64, i64)> {
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    let mut any = false;
    match validity {
        None => {
            any = !rows.is_empty();
            for &v in &values[rows] {
                let v = v.into();
                min = min.min(v);
                max = max.max(v);
            }
        }
        Some(valid) => {
            for row in rows {
                if valid.get(row) {
                    let v = values[row].into();
                    min = min.min(v);
                    max = max.max(v);
                    any = true;
                }
            }
        }
    }
    any.then_some((min, max))
}

/// [`value_range`] over the rows `rows` (ascending row ids), or over
/// every row when `None`.
fn range_over<T: Copy + Into<i64>>(
    values: &[T],
    validity: Option<&Bitmap>,
    rows: Option<&[u32]>,
) -> Option<(i64, i64)> {
    let Some(rows) = rows else {
        return value_range(values, validity, 0..values.len());
    };
    let valid = rows
        .iter()
        .filter(|&&row| validity.is_none_or(|v| v.get(row as usize)));
    valid.fold(None, |range, &row| {
        let v = values[row as usize].into();
        Some(range.map_or((v, v), |(min, max): (i64, i64)| (min.min(v), max.max(v))))
    })
}

/// (min, largest packed value) for a key column whose non-null rows
/// span `range`: codes `1..=max - min + 1`, `0` being NULL.
fn code_range(range: Option<(i64, i64)>) -> (i64, u128) {
    match range {
        None => (0, 0),
        Some((min, max)) => (min, (max as i128 - min as i128) as u128 + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::value::{DataType, Value};

    fn encode_all_u64(spec: &PackedKeySpec, cols: &[&Column]) -> Vec<u64> {
        let n = cols.first().map_or(0, |c| c.len());
        let mut out = vec![0u64; n];
        spec.encode_into(cols, 0, None, &mut out);
        out
    }

    #[test]
    fn small_int_column_packs_tightly() {
        let c = Column::from_i64(vec![3, 4, 5, 3]);
        let spec = PackedKeySpec::build(&[&c], None).unwrap();
        // range 3..=5 plus NULL sentinel -> 4 codes -> 2 bits
        assert_eq!(spec.total_bits(), 2);
        let codes = encode_all_u64(&spec, &[&c]);
        assert_eq!(codes, vec![1, 2, 3, 1]);
    }

    #[test]
    fn nulls_get_code_zero_and_their_own_group() {
        let mut b = ColumnBuilder::new(DataType::Int64);
        for v in [Value::Int(7), Value::Null, Value::Int(7), Value::Int(8)] {
            b.push(&v).unwrap();
        }
        let c = b.finish();
        let spec = PackedKeySpec::build(&[&c], None).unwrap();
        let codes = encode_all_u64(&spec, &[&c]);
        assert_eq!(codes[0], codes[2]);
        assert_eq!(codes[1], 0);
        assert_ne!(codes[0], codes[1]);
        assert_ne!(codes[0], codes[3]);
    }

    #[test]
    fn multi_column_fields_are_disjoint() {
        let a = Column::from_i64(vec![0, 1, 0, 1]);
        let b = Column::from_strs(&["x", "x", "y", "y"]);
        let spec = PackedKeySpec::build(&[&a, &b], None).unwrap();
        let codes = encode_all_u64(&spec, &[&a, &b]);
        // all four (a, b) combinations are distinct codes
        let mut uniq = codes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4);
    }

    #[test]
    fn float_columns_are_not_packable() {
        let f = Column::from_f64(vec![1.0, 2.0]);
        assert!(PackedKeySpec::build(&[&f], None).is_none());
        let i = Column::from_i64(vec![1, 2]);
        assert!(PackedKeySpec::build(&[&i, &f], None).is_none());
    }

    #[test]
    fn full_range_int_needs_u128() {
        let wide = Column::from_i64(vec![i64::MIN, i64::MAX]);
        let spec = PackedKeySpec::build(&[&wide], None).unwrap();
        assert_eq!(spec.total_bits(), 65);
        assert!(!spec.fits_u64());
        let mut out = vec![0u128; 2];
        spec.encode_into(&[&wide], 0, None, &mut out);
        assert_eq!(out[0], 1);
        assert_eq!(out[1], u64::MAX as u128 + 1);
    }

    #[test]
    fn too_wide_layout_is_rejected() {
        let wide = Column::from_i64(vec![i64::MIN, i64::MAX]);
        // 65 + 65 = 130 bits > 128
        assert!(PackedKeySpec::build(&[&wide, &wide], None).is_none());
    }

    #[test]
    fn empty_and_all_null_columns_build() {
        let empty = Column::from_i64(vec![]);
        let spec = PackedKeySpec::build(&[&empty], None).unwrap();
        assert_eq!(spec.total_bits(), 1);

        let mut b = ColumnBuilder::new(DataType::Int64);
        b.push_null();
        b.push_null();
        let nulls = b.finish();
        let spec = PackedKeySpec::build(&[&nulls], None).unwrap();
        let codes = encode_all_u64(&spec, &[&nulls]);
        assert_eq!(codes, vec![0, 0]);
    }

    #[test]
    fn offset_encoding_matches_full_encoding() {
        let c = Column::from_i64((0..100).map(|i| i % 9).collect());
        let spec = PackedKeySpec::build(&[&c], None).unwrap();
        let full = encode_all_u64(&spec, &[&c]);
        let mut tail = vec![0u64; 40];
        spec.encode_into(&[&c], 60, None, &mut tail);
        assert_eq!(&full[60..], &tail[..]);
    }

    #[test]
    fn a_selection_packs_and_encodes_only_its_rows() {
        let mut b = ColumnBuilder::new(DataType::Int64);
        for v in [100, 5, 7, 100, 6, 9] {
            b.push(&Value::Int(v)).unwrap();
        }
        b.push_null();
        let c = b.finish();
        // rows 1, 2, 4 hold 5, 7, 6: a 2-bit field, not the 7 bits of 5..=100
        let rows = [1u32, 2, 4];
        let spec = PackedKeySpec::build(&[&c], Some(&rows)).unwrap();
        assert_eq!(spec.total_bits(), 2);
        let mut out = vec![0u64; 3];
        spec.encode_into(&[&c], 0, Some(&rows), &mut out);
        assert_eq!(out, vec![1, 3, 2]);
        // gathered rows encode as the whole column does, NULL included
        let whole = PackedKeySpec::build(&[&c], None).unwrap();
        let full = encode_all_u64(&whole, &[&c]);
        let sparse = [0u32, 5, 6];
        let mut gathered = vec![0u64; 3];
        whole.encode_into(&[&c], 0, Some(&sparse), &mut gathered);
        assert_eq!(gathered, vec![full[0], full[5], full[6]]);
        assert_eq!(gathered[2], 0);
    }

    #[test]
    fn value_range_sees_only_the_valid_rows_of_its_slice() {
        let mut b = ColumnBuilder::new(DataType::Int64);
        for v in [Value::Int(-50), Value::Int(7), Value::Null, Value::Int(9)] {
            b.push(&v).unwrap();
        }
        let c = b.finish();
        let ColumnData::Int64(vals) = c.data() else {
            unreachable!()
        };
        assert_eq!(value_range(vals, c.validity(), 0..4), Some((-50, 9)));
        // the null slot's stored 0 is not a value
        assert_eq!(value_range(vals, c.validity(), 1..4), Some((7, 9)));
        assert_eq!(value_range(vals, c.validity(), 2..3), None);
        assert_eq!(value_range(vals, None, 1..1), None);
        assert_eq!(value_range(&[3i32, -4], None, 0..2), Some((-4, 3)));
        assert_eq!((bits_for(0), bits_for(1), bits_for(16)), (0, 1, 5));
        assert_eq!(bits_for(u64::MAX as u128), 64);
    }

    #[test]
    fn date_columns_pack() {
        let d = Column::from_dates(vec![-10, 0, 10, -10]);
        let spec = PackedKeySpec::build(&[&d], None).unwrap();
        let codes = encode_all_u64(&spec, &[&d]);
        assert_eq!(codes[0], codes[3]);
        assert_eq!(codes[0], 1); // min maps to 1
        let mut uniq = codes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 3);
    }

    #[test]
    fn partition_hash_spreads_top_bits() {
        let mut tops = std::collections::HashSet::new();
        for code in 0u64..64 {
            tops.insert(code.partition_hash() >> 58);
        }
        // 64 sequential codes should land in many of the 64 top buckets
        assert!(tops.len() > 16, "only {} distinct top buckets", tops.len());
    }
}
