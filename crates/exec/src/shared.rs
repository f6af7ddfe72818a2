//! Shared-scan multi-aggregation, and the fused morsel loop under it.
//!
//! The partial-cube literature the paper builds on (PipeHash/PipeSort
//! \[2\], and the shared scans of \[8, 15, 16, 21\]) executes *several*
//! Group Bys in a single pass over their common input: one scan feeds one
//! hash table per grouping. The paper notes these physical operators are
//! orthogonal to its logical optimization and "can be leveraged by our
//! solution as well" — this module is that operator. The plan executor
//! uses it when a breadth-first schedule computes all children of a node
//! back-to-back from the same materialized parent.
//!
//! Its loop, `fused_pass`, is also the hash kernel's one-pass form: an
//! input with nothing to scatter (one partition, or a key domain small
//! enough to address directly on one worker) is a shared scan of one
//! grouping to [`crate::radix_group_by`].

use crate::agg::{Accumulator, AggSpec};
use crate::cancel::CancelToken;
use crate::engine::Rows;
use crate::error::Result;
use crate::group_by::output_table;
use crate::metrics::ExecMetrics;
use crate::radix::{
    dense_slots, packed_spec, Aggregated, ByteKeys, GidMap, GroupTable, KeyRepr, SlotTable,
    MORSEL_ROWS,
};
use gbmqo_storage::{Column, PackedKeySpec, Table};
use std::time::Instant;

/// One grouping's state during the scan, generic over how its keys are
/// represented (packed integer codes when every group column is
/// fixed-width — the same fast path as the hash kernel — byte `RowKey`s
/// otherwise) and how a key finds its gid (a hash table, or a slot
/// array for a small packed domain).
struct Grouping<'t, K, R, T> {
    repr: R,
    key_cols: Vec<&'t Column>,
    table: T,
    accumulators: Vec<Accumulator>,
    /// Per-morsel key and gid buffers, reused across morsels.
    keys: Vec<K>,
    gids: Vec<u32>,
}

/// What the scan loop asks of a grouping, whatever its key type.
pub(crate) trait MorselSink {
    /// Fold one morsel of `input`: the rows `rows` (ascending ids) —
    /// consecutive from `start` on unless `selected`.
    fn consume(&mut self, input: &Table, start: usize, rows: &[u32], selected: bool);

    fn finish(self: Box<Self>) -> Aggregated;
}

impl<K, R: KeyRepr<K>, T: GidMap<K>> MorselSink for Grouping<'_, K, R, T> {
    fn consume(&mut self, input: &Table, start: usize, rows: &[u32], selected: bool) {
        let ids = selected.then_some(rows);
        (self.repr).encode(&self.key_cols, start, ids, rows.len(), &mut self.keys);
        self.gids.clear();
        self.table.assign::<R>(&self.keys, rows, &mut self.gids);
        for acc in &mut self.accumulators {
            acc.resize_groups(self.table.num_groups());
            acc.update_batch(input, rows, &self.gids);
        }
    }

    fn finish(self: Box<Self>) -> Aggregated {
        self.table.finish(self.accumulators)
    }
}

/// The scan state of one grouping of `input` by `key_cols`, keyed by the
/// layout `spec` [`packed_spec`] built for them (`None`: byte keys). A
/// packed domain [`dense_slots`] admits for the rows `input` reads gets a
/// direct-address table; any other grouping a hash table with room for
/// `groups` groups, never more than there are rows.
pub(crate) fn grouping<'t>(
    input: Rows<'t>,
    key_cols: Vec<&'t Column>,
    spec: Option<PackedKeySpec>,
    aggs: &[AggSpec],
    groups: u64,
) -> Result<Box<dyn MorselSink + 't>> {
    fn sink<'t, K: 't, R: KeyRepr<K> + 't, T: GidMap<K> + 't>(
        repr: R,
        key_cols: Vec<&'t Column>,
        table: T,
        accumulators: Vec<Accumulator>,
    ) -> Box<dyn MorselSink + 't> {
        Box::new(Grouping {
            repr,
            key_cols,
            table,
            accumulators,
            keys: Vec::new(),
            gids: Vec::new(),
        })
    }

    let n = input.len();
    let groups = groups.min(n as u64) as usize;
    let accumulators = aggs
        .iter()
        .map(|a| Accumulator::build(a, input.table))
        .collect::<Result<_>>()?;
    Ok(match spec {
        Some(spec) => match dense_slots(&spec, n) {
            Some(slots) => sink(spec, key_cols, SlotTable::new(slots, groups), accumulators),
            None if spec.fits_u64() => sink::<u64, _, _>(
                spec,
                key_cols,
                GroupTable::with_capacity(groups),
                accumulators,
            ),
            None => sink::<u128, _, _>(
                spec,
                key_cols,
                GroupTable::with_capacity(groups),
                accumulators,
            ),
        },
        None => sink(
            ByteKeys,
            key_cols,
            GroupTable::with_capacity(groups),
            accumulators,
        ),
    })
}

/// Aggregate `input` by every grouping in `groupings` in one pass: each
/// morsel's keys are encoded per grouping (packed codes where possible),
/// resolved to a gid vector against that grouping's table, and fed to
/// its accumulators in one columnar [`Accumulator::update_batch`] call —
/// the hash kernel's pass 2, amortized across all groupings.
/// Cancellation is polled once per morsel.
pub(crate) fn fused_pass(
    input: Rows<'_>,
    mut groupings: Vec<Box<dyn MorselSink + '_>>,
    cancel: Option<&CancelToken>,
) -> Result<Vec<Aggregated>> {
    let n = input.len();
    let mut buf: Vec<u32> = Vec::with_capacity(MORSEL_ROWS.min(n));
    let mut pos = 0;
    while pos < n {
        crate::cancel::check(cancel)?;
        let len = MORSEL_ROWS.min(n - pos);
        let rows = input.ids(pos, len, &mut buf);
        for grouping in &mut groupings {
            grouping.consume(input.table, pos, rows, input.selection.is_some());
        }
        pos += len;
    }
    Ok(groupings.into_iter().map(|g| g.finish()).collect())
}

/// Compute several Group Bys over `input` — a table, or the rows a
/// selection keeps of it ([`Rows`]) — in one shared scan.
///
/// `groupings` lists the grouping-column ordinals of each output; all
/// outputs compute the same `aggs`. `estimated_groups[i]`, when given,
/// is the number of groups grouping `i`'s hash table reserves up front;
/// without one (`None`, or a missing entry) the table starts empty and
/// grows. A grouping whose packed domain is small enough is addressed
/// directly and never grows. Returns one table per grouping, in order —
/// each identical to what [`crate::radix_group_by`] would produce.
pub fn shared_scan_group_by<'a>(
    input: impl Into<Rows<'a>>,
    groupings: &[Vec<usize>],
    aggs: &[AggSpec],
    estimated_groups: &[Option<u64>],
    cancel: Option<&CancelToken>,
    metrics: &mut ExecMetrics,
) -> Result<Vec<Table>> {
    let start = Instant::now();
    let input = input.into();
    let sinks = groupings
        .iter()
        .enumerate()
        .map(|(i, cols)| {
            let key_cols: Vec<&Column> = cols.iter().map(|&c| input.table.column(c)).collect();
            let spec = packed_spec(&key_cols, input, metrics);
            let groups = estimated_groups.get(i).copied().flatten().unwrap_or(0);
            grouping(input, key_cols, spec, aggs, groups)
        })
        .collect::<Result<_>>()?;
    let aggregated = fused_pass(input, sinks, cancel)?;
    let mut outputs = Vec::with_capacity(groupings.len());
    for ((representatives, accumulators, resizes), cols) in aggregated.into_iter().zip(groupings) {
        let out = output_table(input.table, cols, aggs, representatives, accumulators)?;
        metrics.hash_resizes += resizes;
        metrics.rows_output += out.num_rows() as u64;
        outputs.push(out);
    }
    // One shared scan of the input, not one per grouping.
    metrics.rows_scanned += input.len() as u64;
    metrics.add_elapsed(start.elapsed());
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort_agg::sort_group_by;
    use gbmqo_storage::{DataType, Field, Schema, Value};

    fn input() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Utf8),
            Field::new("d", DataType::Int64),
        ])
        .unwrap();
        let mut tb = gbmqo_storage::TableBuilder::new(schema);
        for i in 0..200i64 {
            tb.push_row(&[
                Value::Int(i % 4),
                Value::Int(i % 7),
                Value::str(if i % 2 == 0 { "x" } else { "y" }),
                Value::Int(i * 1_000),
            ])
            .unwrap();
        }
        tb.finish().unwrap()
    }

    fn norm(t: &Table) -> Vec<(Vec<Value>, i64)> {
        let n = t.num_columns();
        let mut v: Vec<(Vec<Value>, i64)> = (0..t.num_rows())
            .map(|r| {
                (
                    (0..n - 1).map(|c| t.value(r, c)).collect(),
                    t.value(r, n - 1).as_int().unwrap(),
                )
            })
            .collect();
        v.sort();
        v
    }

    /// The shared scan without estimates or a token.
    fn scan(
        t: &Table,
        groupings: &[Vec<usize>],
        aggs: &[AggSpec],
        m: &mut ExecMetrics,
    ) -> Vec<Table> {
        shared_scan_group_by(t, groupings, aggs, &[], None, m).unwrap()
    }

    #[test]
    fn shared_scan_matches_individual_group_bys() {
        let t = input();
        let mut m = ExecMetrics::new();
        let groupings = vec![vec![0], vec![1], vec![2], vec![0, 2]];
        let shared = scan(&t, &groupings, &[AggSpec::count()], &mut m);
        assert_eq!(shared.len(), 4);
        for (cols, out) in groupings.iter().zip(&shared) {
            let direct = sort_group_by(&t, cols, &[AggSpec::count()], &mut m).unwrap();
            assert_eq!(norm(out), norm(&direct), "grouping {cols:?}");
        }
    }

    #[test]
    fn shared_scan_counts_one_scan() {
        let t = input();
        let mut m = ExecMetrics::new();
        let _ = scan(&t, &[vec![0], vec![1]], &[AggSpec::count()], &mut m);
        assert_eq!(m.rows_scanned, 200, "one shared scan, not two");
    }

    #[test]
    fn estimates_size_each_grouping_and_a_token_stops_the_scan() {
        let t = input();
        let aggs = [AggSpec::count()];
        // (a) has 4 groups, (b) 7, (a, b) 28, in domains of 8 to 64 codes:
        // addressed directly, so under-estimates grow nothing.
        let dense = vec![vec![0], vec![1], vec![0, 1]];
        let mut m = ExecMetrics::new();
        shared_scan_group_by(&t, &dense, &aggs, &[Some(1); 3], None, &mut m).unwrap();
        assert_eq!(m.hash_resizes, 0);
        // (d) has 200 groups in a domain of 2^18 codes: hashed, and an
        // under-estimate grows.
        let hashed = vec![vec![3]];
        shared_scan_group_by(&t, &hashed, &aggs, &[Some(1)], None, &mut m).unwrap();
        assert!(m.hash_resizes > 0);
        let groupings = [dense, hashed].concat();
        let mut m = ExecMetrics::new();
        let exact = [Some(4), Some(7), Some(28), Some(200)];
        let sized = shared_scan_group_by(&t, &groupings, &aggs, &exact, None, &mut m).unwrap();
        assert_eq!(m.hash_resizes, 0, "exact estimates never resize");
        for (got, want) in sized.iter().zip(scan(&t, &groupings, &aggs, &mut m)) {
            assert_eq!(norm(got), norm(&want));
        }

        let token = CancelToken::new();
        token.cancel();
        let err = shared_scan_group_by(&t, &groupings, &aggs, &[], Some(&token), &mut m);
        assert_eq!(
            err.unwrap_err(),
            crate::error::ExecError::Cancelled { timed_out: false }
        );
    }

    #[test]
    fn empty_groupings_and_inputs() {
        let t = input();
        let mut m = ExecMetrics::new();
        let none = scan(&t, &[], &[AggSpec::count()], &mut m);
        assert!(none.is_empty());
        let empty = Table::empty(t.schema().clone());
        let r = scan(&empty, &[vec![0]], &[AggSpec::count()], &mut m);
        assert_eq!(r[0].num_rows(), 0);
    }

    #[test]
    fn shared_scan_with_extended_aggregates() {
        let t = input();
        let mut m = ExecMetrics::new();
        let aggs = [
            AggSpec::count(),
            AggSpec::min("b", "min_b"),
            AggSpec::max("b", "max_b"),
        ];
        let shared = scan(&t, &[vec![0]], &aggs, &mut m);
        let direct = sort_group_by(&t, &[0], &aggs, &mut m).unwrap();
        let all = |t: &Table| {
            let mut v: Vec<Vec<Value>> = (0..t.num_rows())
                .map(|r| (0..t.num_columns()).map(|c| t.value(r, c)).collect())
                .collect();
            v.sort();
            v
        };
        assert_eq!(all(&shared[0]), all(&direct));
    }
}
