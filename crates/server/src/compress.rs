//! LZ4-style block compression for the wire protocol's negotiated
//! compressed encoding.
//!
//! The build environment vendors no compression crate, so this is a
//! small self-contained implementation of the LZ4 block idea: a
//! greedy byte-level LZ77 with a fixed-size hash table, emitting
//! `token | literals | offset | match` sequences. The format is
//! self-consistent (both ends of the wire run this module) rather than
//! interoperable with external LZ4 tooling.
//!
//! The decoder treats its input as hostile: every length is checked
//! against the remaining input and the declared output size before any
//! copy, offsets must point inside the already-produced output, and
//! the declared size is an exact obligation — a block that produces
//! too few or too many bytes is rejected. Decompression can therefore
//! never allocate more than the declared size, which the caller bounds
//! by the frame cap.

use crate::error::{ServerError, ServerResult};

/// Sequence token layout: high nibble literal count, low nibble
/// `match_len - MIN_MATCH`, both extended by 255-bytes when saturated.
const MIN_MATCH: usize = 4;
/// Match window: offsets are encoded as `u16`, so a match can reach at
/// most this far back.
const MAX_OFFSET: usize = u16::MAX as usize;
/// Hash-table slots for the 4-byte-sequence index (2^13).
const HASH_BITS: u32 = 13;

fn malformed(what: &str) -> ServerError {
    ServerError::Protocol(format!("bad compressed block: {what}"))
}

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn read_u32(src: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(src[i..i + 4].try_into().unwrap())
}

/// Append a 255-extended count (the amount beyond a saturated nibble).
fn put_ext_len(out: &mut Vec<u8>, mut n: usize) {
    while n >= 255 {
        out.push(255);
        n -= 255;
    }
    out.push(n as u8);
}

fn put_sequence(out: &mut Vec<u8>, literals: &[u8], match_len: usize, offset: usize) {
    let lit_nibble = literals.len().min(15);
    let match_nibble = match_len.saturating_sub(MIN_MATCH).min(15);
    out.push(((lit_nibble << 4) | match_nibble) as u8);
    if literals.len() >= 15 {
        put_ext_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if match_len > 0 {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if match_len - MIN_MATCH >= 15 {
            put_ext_len(out, match_len - MIN_MATCH - 15);
        }
    }
}

/// Compress `src` into a block decodable by [`decompress`]. Always
/// succeeds; incompressible input degrades to a literal-only block a
/// few bytes larger than the input.
pub fn compress(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    // Too short to ever contain a profitable match.
    if src.len() <= MIN_MATCH + 1 {
        put_sequence(&mut out, src, 0, 0);
        return out;
    }
    let mut table = vec![0u32; 1 << HASH_BITS];
    let mut anchor = 0usize; // first literal not yet emitted
    let mut cur = 0usize;
    // Leave room so `read_u32` and match extension never overrun.
    let limit = src.len() - MIN_MATCH;
    while cur <= limit {
        let h = hash4(read_u32(src, cur));
        let cand = table[h] as usize;
        table[h] = cur as u32;
        let usable =
            cand < cur && cur - cand <= MAX_OFFSET && read_u32(src, cand) == read_u32(src, cur);
        if !usable {
            cur += 1;
            continue;
        }
        // Extend the match as far as the input allows.
        let mut len = MIN_MATCH;
        while cur + len < src.len() && src[cand + len] == src[cur + len] {
            len += 1;
        }
        put_sequence(&mut out, &src[anchor..cur], len, cur - cand);
        cur += len;
        anchor = cur;
    }
    // Trailing literals close the block with a match-less sequence.
    put_sequence(&mut out, &src[anchor..], 0, 0);
    out
}

/// Decompress a block produced by [`compress`], which declared
/// `expected_len` output bytes. Rejects any block that is truncated,
/// overruns its declared size, references data before the start of the
/// output, or produces a different number of bytes than declared.
pub fn decompress(src: &[u8], expected_len: usize) -> ServerResult<Vec<u8>> {
    let mut out: Vec<u8> = Vec::with_capacity(expected_len);
    let mut pos = 0usize;
    loop {
        let Some(&token) = src.get(pos) else {
            return Err(malformed("missing sequence token"));
        };
        pos += 1;
        // Literal run.
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += take_ext_len(src, &mut pos, expected_len)?;
        }
        if pos + lit_len > src.len() {
            return Err(malformed("literal run past end of input"));
        }
        if out.len() + lit_len > expected_len {
            return Err(malformed("output larger than declared"));
        }
        out.extend_from_slice(&src[pos..pos + lit_len]);
        pos += lit_len;
        // A block ends with a literal-only sequence at end of input.
        if pos == src.len() {
            break;
        }
        // Match copy.
        if pos + 2 > src.len() {
            return Err(malformed("truncated match offset"));
        }
        let offset = u16::from_le_bytes(src[pos..pos + 2].try_into().unwrap()) as usize;
        pos += 2;
        if offset == 0 || offset > out.len() {
            return Err(malformed("match offset outside produced output"));
        }
        let mut match_len = (token & 0x0F) as usize + MIN_MATCH;
        if match_len == 15 + MIN_MATCH {
            match_len += take_ext_len(src, &mut pos, expected_len)?;
        }
        if out.len() + match_len > expected_len {
            return Err(malformed("output larger than declared"));
        }
        // A match that reaches into its own output (`offset <
        // match_len`, the RLE case) repeats the `offset`-byte pattern.
        // `out[start..]` is whole periods of that pattern before every
        // pass, so copying all of it doubles the run; a match that does
        // not overlap is the single-pass case.
        let start = out.len() - offset;
        let end = out.len() + match_len;
        while out.len() < end {
            let run = (out.len() - start).min(end - out.len());
            out.extend_from_within(start..start + run);
        }
    }
    if out.len() != expected_len {
        return Err(malformed("output smaller than declared"));
    }
    Ok(out)
}

/// Read a 255-extended count, bounding it by the declared output size
/// so hostile input cannot spin or overflow.
fn take_ext_len(src: &[u8], pos: &mut usize, expected_len: usize) -> ServerResult<usize> {
    let mut extra = 0usize;
    loop {
        let Some(&b) = src.get(*pos) else {
            return Err(malformed("truncated extended length"));
        };
        *pos += 1;
        extra += b as usize;
        if extra > expected_len {
            return Err(malformed("extended length exceeds declared size"));
        }
        if b != 255 {
            return Ok(extra);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let packed = compress(data);
        let back = decompress(&packed, data.len()).unwrap();
        assert_eq!(back, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn roundtrips_edge_shapes() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcd");
        roundtrip(b"abcdabcdabcdabcdabcdabcd");
        roundtrip(&vec![0u8; 10_000]);
        roundtrip("the quick brown fox jumps over the lazy dog".as_bytes());
        // long literal run (exercises extended literal lengths)
        let incompressible: Vec<u8> = (0..5_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        roundtrip(&incompressible);
    }

    #[test]
    fn repetitive_data_actually_shrinks() {
        let data: Vec<u8> = std::iter::repeat_n(b"columnar!".as_slice(), 500)
            .flatten()
            .copied()
            .collect();
        let packed = compress(&data);
        assert!(
            packed.len() * 4 < data.len(),
            "{} bytes compressed to only {}",
            data.len(),
            packed.len()
        );
        assert_eq!(decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn matches_shorter_and_longer_than_their_offset_copy_correctly() {
        for offset in 1..=8usize {
            let pattern: Vec<u8> = (0..offset as u8).map(|i| b'a' + i).collect();
            let lens = [
                MIN_MATCH,
                offset.saturating_sub(1),
                offset,
                offset + 1,
                2 * offset + 3,
                1_000,
            ];
            for match_len in lens.into_iter().filter(|&l| l >= MIN_MATCH) {
                // The pattern as literals, then a match `offset` back:
                // the output repeats the pattern for `match_len` bytes.
                let mut block = Vec::new();
                put_sequence(&mut block, &pattern, match_len, offset);
                put_sequence(&mut block, b"tail", 0, 0);
                let mut expected: Vec<u8> = pattern
                    .iter()
                    .copied()
                    .cycle()
                    .take(offset + match_len)
                    .collect();
                expected.extend_from_slice(b"tail");
                assert_eq!(
                    decompress(&block, expected.len()).unwrap(),
                    expected,
                    "offset {offset}, match length {match_len}"
                );
                // The declared size stays an exact obligation.
                assert!(decompress(&block, expected.len() - 1).is_err());
                assert!(decompress(&block, expected.len() + 1).is_err());
                // And the compressor's own choice of sequences round-trips.
                roundtrip(&expected);
            }
        }
    }

    #[test]
    fn hostile_blocks_are_rejected() {
        // empty input: no token
        assert!(decompress(&[], 4).is_err());
        // literal run claiming more bytes than the input holds
        assert!(decompress(&[0xF0, 200], 300).is_err());
        // offset pointing before the start of the output
        assert!(decompress(&[0x10, b'x', 9, 0, 0x00], 10).is_err());
        // zero offset
        assert!(decompress(&[0x10, b'x', 0, 0, 0x00], 10).is_err());
        // declared size smaller than the block produces
        let packed = compress(b"hello world hello world");
        assert!(decompress(&packed, 5).is_err());
        // declared size larger than the block produces
        assert!(decompress(&packed, 1_000).is_err());
        // truncated block
        assert!(decompress(&packed[..packed.len() - 3], 23).is_err());
    }

    #[test]
    fn extended_lengths_cannot_overflow() {
        // a stream of 255s tries to build an absurd literal length
        let mut evil = vec![0xF0u8];
        evil.extend(std::iter::repeat_n(255, 10_000));
        assert!(decompress(&evil, 100).is_err());
    }
}
