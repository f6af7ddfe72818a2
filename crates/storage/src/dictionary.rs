//! Dictionary for dictionary-encoded string columns.

use rustc_hash::FxHashMap;
use std::sync::Arc;

/// An append-only string dictionary mapping `u32` codes to strings.
///
/// String columns store a `Vec<u32>` of codes plus an `Arc<Dictionary>`;
/// grouping and comparison within one column operate on codes, which is why
/// hash aggregation on text columns is as cheap as on integers.
///
/// Codes are never reassigned, so a clone that goes on to intern more
/// strings (an append meeting a string the table has not seen, while
/// cached aggregates still share the old `Arc`) agrees with the original
/// on every code the original holds.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    values: Vec<Arc<str>>,
    lookup: FxHashMap<Arc<str>, u32>,
    /// Total bytes of all distinct strings (for width estimation).
    total_bytes: usize,
}

impl Dictionary {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its code.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.lookup.get(s) {
            return code;
        }
        let code = u32::try_from(self.values.len()).expect("dictionary overflow");
        let arc: Arc<str> = Arc::from(s);
        self.values.push(arc.clone());
        self.lookup.insert(arc, code);
        self.total_bytes += s.len();
        code
    }

    /// Resolve a code back to its string. Panics on an unknown code.
    #[inline]
    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.values[code as usize]
    }

    /// Look up the code for `s` without interning.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the dictionary holds no strings.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Average string length over distinct values (0 when empty).
    pub fn avg_len(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.total_bytes as f64 / self.values.len() as f64
        }
    }

    /// Bytes held by distinct string payloads.
    pub fn byte_size(&self) -> usize {
        self.total_bytes
    }

    /// Codes sorted by their string values, as a permutation of `0..len`.
    ///
    /// Used to give dictionary columns a value-ordered sort key even though
    /// codes are assigned in insertion order.
    pub fn sorted_codes(&self) -> Vec<u32> {
        let mut codes: Vec<u32> = (0..self.values.len() as u32).collect();
        codes.sort_unstable_by(|&a, &b| self.values[a as usize].cmp(&self.values[b as usize]));
        codes
    }

    /// Rank of each code in value order: `rank[code]` is the position of
    /// `code`'s string among all distinct strings sorted ascending.
    pub fn value_ranks(&self) -> Vec<u32> {
        let sorted = self.sorted_codes();
        let mut ranks = vec![0u32; sorted.len()];
        for (rank, &code) in sorted.iter().enumerate() {
            ranks[code as usize] = rank as u32;
        }
        ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("apple");
        let b = d.intern("banana");
        assert_ne!(a, b);
        assert_eq!(d.intern("apple"), a);
        assert_eq!(d.len(), 2);
        assert_eq!(&**d.get(a), "apple");
        assert_eq!(d.code_of("banana"), Some(b));
        assert_eq!(d.code_of("cherry"), None);
    }

    #[test]
    fn avg_len_counts_distinct_only() {
        let mut d = Dictionary::new();
        d.intern("ab");
        d.intern("ab");
        d.intern("abcd");
        assert_eq!(d.len(), 2);
        assert!((d.avg_len() - 3.0).abs() < 1e-9);
        assert_eq!(d.byte_size(), 6);
    }

    #[test]
    fn sorted_codes_and_ranks() {
        let mut d = Dictionary::new();
        let c_b = d.intern("b");
        let c_a = d.intern("a");
        let c_c = d.intern("c");
        assert_eq!(d.sorted_codes(), vec![c_a, c_b, c_c]);
        let ranks = d.value_ranks();
        assert_eq!(ranks[c_a as usize], 0);
        assert_eq!(ranks[c_b as usize], 1);
        assert_eq!(ranks[c_c as usize], 2);
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.avg_len(), 0.0);
        assert!(d.sorted_codes().is_empty());
    }
}
