//! Disk-based row-store emulation.
//!
//! The paper's experiments run on a 2005 disk-based row store, where
//! *every* Group By query reads the full width of its input table from
//! disk at ~50–500 MB/s — which is precisely why sharing scans across
//! queries pays off so handsomely there. Our engine is an in-memory
//! columnar engine (a Group By touches only its grouping columns at RAM
//! speed), so the same plans win by smaller factors.
//!
//! This module provides an opt-in emulation of that environment
//! (`DESIGN.md` documents it as a substitution): when enabled via
//! [`crate::engine::Engine::set_io_ns_per_byte`], every un-indexed scan
//! first touches all input bytes once ([`full_scan_tax`], exercising the
//! real memory path) and then waits out a simulated transfer time of
//! `bytes × ns_per_byte` ([`simulated_io_wait`]); materializing a temp
//! table likewise pays write I/O. The optimizer cost model has a matching
//! `io_ns_per_byte` constant, so predicted and executed costs agree. The
//! library default is off (honest columnar behaviour).

use crate::engine::Rows;
use gbmqo_storage::column::ColumnData;

/// Read every byte of every column payload of the rows `input` reads,
/// returning a checksum that the caller should [`std::hint::black_box`]
/// so the traversal cannot be optimized away. A whole table is read in
/// 8-byte words, so its cost is proportional to the table's *byte* size
/// — matching how the row-store cost model prices scans per byte; a
/// selection reads each selected value, in time proportional to the rows
/// it selects.
pub fn full_scan_tax<'a>(input: impl Into<Rows<'a>>) -> u64 {
    #[inline]
    fn sum_words<T>(values: &[T]) -> u64 {
        // Safety-free reinterpretation: sum aligned u64 words, then fold
        // in the unaligned prefix/suffix bytes.
        let bytes = unsafe {
            std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
        };
        let (head, words, tail) = unsafe { bytes.align_to::<u64>() };
        let mut acc: u64 = 0;
        for &w in words {
            acc = acc.wrapping_add(w);
        }
        for &b in head.iter().chain(tail) {
            acc = acc.wrapping_add(u64::from(b));
        }
        acc
    }
    /// The values at `rows`, each widened to a word, summed.
    fn sum_selected<T: Copy>(values: &[T], rows: &[u32], word: impl Fn(T) -> u64) -> u64 {
        rows.iter()
            .fold(0u64, |acc, &r| acc.wrapping_add(word(values[r as usize])))
    }
    let input = input.into();
    let mut acc: u64 = 0;
    for col in input.table.columns() {
        acc = acc.wrapping_add(match (col.data(), input.selection) {
            (ColumnData::Int64(v), None) => sum_words(v),
            (ColumnData::Float64(v), None) => sum_words(v),
            (ColumnData::Utf8 { codes, .. }, None) => sum_words(codes),
            (ColumnData::Date32(v), None) => sum_words(v),
            (ColumnData::Int64(v), Some(rows)) => sum_selected(v, rows, |x| x as u64),
            (ColumnData::Float64(v), Some(rows)) => sum_selected(v, rows, f64::to_bits),
            (ColumnData::Utf8 { codes, .. }, Some(rows)) => sum_selected(codes, rows, u64::from),
            (ColumnData::Date32(v), Some(rows)) => sum_selected(v, rows, |x| x as u32 as u64),
        });
    }
    acc
}

/// Busy-wait for `bytes × ns_per_byte` nanoseconds, simulating a
/// sequential disk transfer of `bytes` at `1/ns_per_byte` GB/s.
pub fn simulated_io_wait(bytes: u64, ns_per_byte: f64) {
    if ns_per_byte <= 0.0 || bytes == 0 {
        return;
    }
    let target = std::time::Duration::from_nanos((bytes as f64 * ns_per_byte) as u64);
    let start = std::time::Instant::now();
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{Column, DataType, Field, Schema, Table};

    #[test]
    fn tax_touches_all_columns() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("s", DataType::Utf8),
            Field::new("d", DataType::Date32),
            Field::new("f", DataType::Float64),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![
                Column::from_i64(vec![1, 2]),
                Column::from_strs(&["x", "y"]),
                Column::from_dates(vec![3, 4]),
                Column::from_f64(vec![0.5, 1.5]),
            ],
        )
        .unwrap();
        let a = full_scan_tax(&t);
        // deterministic and value-sensitive
        assert_eq!(a, full_scan_tax(&t));
        let t2 = t.gather(&[0, 0]);
        assert_ne!(full_scan_tax(&t2), a);
        // a selection reads its rows' values
        let second = Rows {
            table: &t,
            selection: Some(&[1]),
        };
        assert_ne!(full_scan_tax(second), full_scan_tax(&t2));
        let none = Rows {
            table: &t,
            selection: Some(&[]),
        };
        assert_eq!(full_scan_tax(none), 0);
    }

    #[test]
    fn io_wait_times_are_proportional() {
        let start = std::time::Instant::now();
        simulated_io_wait(1_000_000, 2.0); // 2 ms
        let t = start.elapsed();
        assert!(t >= std::time::Duration::from_millis(2), "{t:?}");
        assert!(t < std::time::Duration::from_millis(50), "{t:?}");
        // disabled modes return instantly
        simulated_io_wait(0, 2.0);
        simulated_io_wait(1_000_000, 0.0);
    }

    #[test]
    fn empty_table_tax_is_zero() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int64)]).unwrap();
        let t = Table::empty(schema);
        assert_eq!(full_scan_tax(&t), 0);
    }
}
