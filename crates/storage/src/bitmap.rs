//! A packed validity bitmap (1 = valid, 0 = null).

use crate::error::{Result, StorageError};
use std::ops::Range;

/// A simple packed bitmap used as a column validity mask.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Create an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a bitmap of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let word = if value { u64::MAX } else { 0 };
        let mut bm = Bitmap {
            words: vec![word; len.div_ceil(64)],
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Build a bitmap of `len` bits from LSB-first packed bytes (bit `i`
    /// is bit `i % 8` of `bytes[i / 8]`), a word at a time. `bytes` must
    /// be exactly `ceil(len / 8)` long; what the last byte holds past
    /// `len` is ignored.
    pub fn from_le_bytes(bytes: &[u8], len: usize) -> Result<Self> {
        if len.checked_add(7).map(|n| n / 8) != Some(bytes.len()) {
            return Err(StorageError::Malformed(format!(
                "{} bitmap bytes cannot hold exactly {len} bits",
                bytes.len()
            )));
        }
        let words = bytes
            .chunks(8)
            .map(|chunk| {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(word)
            })
            .collect();
        let mut bm = Bitmap { words, len };
        bm.mask_tail();
        Ok(bm)
    }

    /// Bits `range` as LSB-first packed bytes, zero-padded to a whole
    /// byte: the inverse of [`Bitmap::from_le_bytes`], a word at a time.
    /// Panics if the range reaches past the bitmap.
    pub fn to_le_bytes(&self, range: Range<usize>) -> Vec<u8> {
        let bits = range.len();
        let mut out: Vec<u8> = self.range_words(range).flat_map(u64::to_le_bytes).collect();
        out.truncate(bits.div_ceil(8));
        if let (Some(last), tail @ 1..) = (out.last_mut(), bits % 8) {
            *last &= (1u8 << tail) - 1;
        }
        out
    }

    /// Bits `range` as a bitmap of their own, a word at a time. Panics
    /// if the range reaches past the bitmap.
    pub fn slice(&self, range: Range<usize>) -> Bitmap {
        let len = range.len();
        let mut bm = Bitmap {
            words: self.range_words(range).collect(),
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Bits `range` realigned to start at bit 0, one `u64` per 64 bits
    /// (the last word may carry bits past the range's end).
    fn range_words(&self, range: Range<usize>) -> impl Iterator<Item = u64> + '_ {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "bitmap range {range:?} out of range {}",
            self.len
        );
        let first = range.start / 64;
        let shift = range.start % 64;
        (first..first + range.len().div_ceil(64)).map(move |i| {
            // The top of an output word comes from the next source word
            // unless the range starts on a word boundary.
            let high = match self.words.get(i + 1) {
                Some(next) if shift > 0 => next << (64 - shift),
                _ => 0,
            };
            (self.words[i] >> shift) | high
        })
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a bit.
    pub fn push(&mut self, value: bool) {
        let bit = self.len;
        self.len += 1;
        if self.words.len() * 64 < self.len {
            self.words.push(0);
        }
        if value {
            self.words[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    /// Append every bit of `other`, a word at a time: whole words are
    /// copied when this bitmap ends on a word boundary, otherwise each
    /// source word is split across the current tail word and the next.
    pub fn extend_from(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            // Bits past `len` are kept zero, so the tail can be OR-ed into.
            self.words.reserve(other.words.len());
            for &word in &other.words {
                *self.words.last_mut().expect("unaligned tail has a word") |= word << shift;
                self.words.push(word >> (64 - shift));
            }
        }
        self.len += other.len;
        self.words.truncate(self.len.div_ceil(64));
        self.mask_tail();
    }

    /// Append `n` set bits, a word at a time.
    pub fn extend_ones(&mut self, n: usize) {
        let shift = self.len % 64;
        if shift != 0 {
            *self.words.last_mut().expect("unaligned tail has a word") |= u64::MAX << shift;
        }
        self.len += n;
        self.words.resize(self.len.div_ceil(64), u64::MAX);
        self.mask_tail();
    }

    /// Read bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to `value`. Panics if out of range.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        if value {
            self.words[i / 64] |= 1u64 << (i % 64);
        } else {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Number of set (valid) bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of unset (null) bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// True if every bit is set (no nulls).
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Bytes used by the bitmap's backing store.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }

    fn mask_tail(&mut self) {
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut bm = Bitmap::new();
        for b in iter {
            bm.push(b);
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut bm = Bitmap::new();
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 200);
        for i in 0..200 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bm.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
        assert_eq!(bm.count_zeros(), 200 - bm.count_ones());
    }

    #[test]
    fn filled_true_and_false() {
        let t = Bitmap::filled(70, true);
        assert_eq!(t.count_ones(), 70);
        assert!(t.all_set());
        let f = Bitmap::filled(70, false);
        assert_eq!(f.count_ones(), 0);
        assert!(!f.all_set());
    }

    #[test]
    fn filled_true_masks_tail_bits() {
        // count_ones must not count garbage beyond `len`.
        let t = Bitmap::filled(1, true);
        assert_eq!(t.count_ones(), 1);
        let t = Bitmap::filled(65, true);
        assert_eq!(t.count_ones(), 65);
    }

    #[test]
    fn set_flips_bits() {
        let mut bm = Bitmap::filled(10, false);
        bm.set(3, true);
        bm.set(9, true);
        assert!(bm.get(3) && bm.get(9));
        bm.set(3, false);
        assert!(!bm.get(3));
        assert_eq!(bm.count_ones(), 1);
    }

    #[test]
    fn le_bytes_roundtrip_any_range() {
        let bm: Bitmap = (0..300).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        for (start, end) in [
            (0, 300),
            (0, 0),
            (5, 5),
            (3, 10),
            (7, 200),
            (64, 128),
            (63, 300),
        ] {
            let bytes = bm.to_le_bytes(start..end);
            assert_eq!(bytes.len(), (end - start).div_ceil(8));
            let back = Bitmap::from_le_bytes(&bytes, end - start).unwrap();
            let want: Bitmap = (start..end).map(|i| bm.get(i)).collect();
            assert_eq!(back, want, "range {start}..{end}");
            // Bits of the following rows never leak into the padding.
            let tail = (end - start) % 8;
            if tail > 0 {
                assert_eq!(bytes.last().unwrap() >> tail, 0, "range {start}..{end}");
            }
        }
    }

    #[test]
    fn from_le_bytes_checks_length_and_masks_padding() {
        assert!(Bitmap::from_le_bytes(&[0xFF], 9).is_err());
        assert!(Bitmap::from_le_bytes(&[0xFF, 0xFF], 8).is_err());
        assert!(Bitmap::from_le_bytes(&[], usize::MAX).is_err());
        let bm = Bitmap::from_le_bytes(&[0xFF, 0xFF], 9).unwrap();
        assert_eq!(bm.count_ones(), 9);
        assert!(bm.all_set());
        assert_eq!(bm, Bitmap::filled(9, true));
    }

    #[test]
    fn extend_matches_per_bit_push_at_every_alignment() {
        let bit = |i: usize| i % 3 == 1 || i % 11 == 4;
        for head in 0..=130usize {
            let base: Bitmap = (0..head).map(bit).collect();
            for tail in 0..=130usize {
                let other: Bitmap = (0..tail).map(|i| bit(i + 1_000)).collect();
                let mut want = base.clone();
                (0..tail).for_each(|i| want.push(other.get(i)));
                let mut got = base.clone();
                got.extend_from(&other);
                assert_eq!(got, want, "extend_from {head} + {tail}");

                let mut want = base.clone();
                (0..tail).for_each(|_| want.push(true));
                let mut got = base.clone();
                got.extend_ones(tail);
                assert_eq!(got, want, "extend_ones {head} + {tail}");
                assert_eq!(got.count_ones(), base.count_ones() + tail);

                // The same alignments read back: `tail` bits from `head`.
                let whole: Bitmap = (0..head + tail + 70).map(bit).collect();
                let want: Bitmap = (head..head + tail).map(bit).collect();
                assert_eq!(whole.slice(head..head + tail), want, "slice {head}, {tail}");
            }
        }
    }

    #[test]
    fn from_iterator() {
        let bm: Bitmap = [true, false, true].into_iter().collect();
        assert_eq!(bm.len(), 3);
        assert!(bm.get(0) && !bm.get(1) && bm.get(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::filled(4, true).get(4);
    }

    #[test]
    fn byte_size_rounds_up() {
        assert_eq!(Bitmap::filled(1, true).byte_size(), 8);
        assert_eq!(Bitmap::filled(64, true).byte_size(), 8);
        assert_eq!(Bitmap::filled(65, true).byte_size(), 16);
        assert_eq!(Bitmap::new().byte_size(), 0);
    }
}
