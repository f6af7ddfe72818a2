//! Batch execution of independent Group By queries on scoped threads.
//!
//! The GB-MQO plan tree is a DAG of Group By edges; all edges whose
//! source table is already materialized are independent and can run
//! concurrently (the paper's §5.1 server-side integration leaves this
//! to the host DBMS's scheduler — here we are the scheduler). The
//! driver runs one wave of such edges: every worker owns a disjoint
//! subset of the queries, reads its input tables through shared handles
//! resolved up front, and accumulates private [`ExecMetrics`] that the
//! coordinator merges after the join, so no locks are taken anywhere.
//!
//! When a wave has fewer queries than available threads, every query is
//! handed an equal share of them for intra-query parallelism (the hash
//! kernel's partitioned passes), so a single large edge still uses the
//! whole machine; whether an input is large enough to use its share is
//! the kernel's decision, not the driver's.

use crate::agg::AggSpec;
use crate::cancel::CancelToken;
use crate::engine::{GroupByQuery, Input};
use crate::error::Result;
use crate::group_by::stream_group_by;
use crate::metrics::ExecMetrics;
use crate::radix::radix_group_by;
use gbmqo_storage::{Catalog, Table};
use std::sync::Arc;

/// A query with its input resolved up front, so workers never touch the
/// catalog.
struct Resolved<'a> {
    table: Arc<Table>,
    cols: Vec<usize>,
    aggs: &'a [AggSpec],
    /// Index order serving the grouping, if any.
    order: Option<&'a [u32]>,
    /// Simulated scan I/O to pay (row-store emulation), 0 when off.
    io_bytes: u64,
    io_ns_per_byte: f64,
    /// Threads this query may use internally.
    inner_threads: usize,
    /// Optimizer distinct-group estimate, threaded to the hash kernel.
    estimated_groups: Option<u64>,
}

impl Resolved<'_> {
    fn run(&self, cancel: Option<&CancelToken>, metrics: &mut ExecMetrics) -> Result<Table> {
        // Per-query cancellation boundary: a worker draining its strided
        // queue stops picking up new queries once the token trips.
        crate::cancel::check(cancel)?;
        if self.io_ns_per_byte > 0.0 {
            if self.order.is_none() {
                std::hint::black_box(crate::rowstore::full_scan_tax(&self.table));
            }
            crate::rowstore::simulated_io_wait(self.io_bytes, self.io_ns_per_byte);
            metrics.bytes_scanned += self.io_bytes;
        }
        match self.order {
            // An index order serves the grouping: stream, no hash table.
            Some(order) => stream_group_by(&self.table, &self.cols, self.aggs, order, metrics),
            // Intra-query partition parallelism uses `inner_threads` — the
            // share of the wave's thread budget this edge was handed — so
            // plan-level wave parallelism and in-kernel parallelism draw
            // from one pool instead of oversubscribing the machine.
            None => radix_group_by(
                &self.table,
                &self.cols,
                self.aggs,
                self.inner_threads,
                self.estimated_groups,
                cancel,
                metrics,
            ),
        }
    }
}

/// Run `queries` concurrently on up to `threads` workers, returning the
/// result tables in query order plus the merged worker metrics.
///
/// The queries must be independent: none may read another one's result.
/// A catalog input whose index serves the grouping is streamed in index
/// order; a handed table has no indexes.
///
/// The merged metrics carry summed counters but `elapsed_nanos = 0`:
/// summing per-worker wall time would double-count overlapping work, so
/// the caller records the batch's wall-clock time instead.
pub(crate) fn run_batch(
    catalog: &Catalog,
    io_ns_per_byte: f64,
    queries: &[GroupByQuery],
    threads: usize,
    cancel: Option<&CancelToken>,
) -> Result<(Vec<Table>, ExecMetrics)> {
    let threads = threads.max(1);
    let mut resolved: Vec<Resolved<'_>> = Vec::with_capacity(queries.len());
    // Spare threads flow into intra-query partitioning when the wave is
    // narrower than the machine.
    let inner = if queries.is_empty() {
        1
    } else {
        (threads / queries.len()).max(1)
    };
    for q in queries {
        let table = q.input.resolve(catalog)?;
        let cols: Vec<usize> = q
            .group_cols
            .iter()
            .map(|n| table.schema().index_of(n))
            .collect::<gbmqo_storage::Result<_>>()?;
        let index = match &q.input {
            Input::Catalog(name) => catalog.index_serving(name, &cols),
            Input::Table(_) => None,
        };
        let io_bytes = if io_ns_per_byte > 0.0 {
            match index {
                Some(idx) => idx
                    .key_cols
                    .iter()
                    .map(|&c| table.column(c).byte_size() as u64)
                    .sum(),
                None => table.byte_size() as u64,
            }
        } else {
            0
        };
        resolved.push(Resolved {
            table,
            cols,
            aggs: &q.aggs,
            order: index.map(|idx| idx.perm.as_slice()),
            io_bytes,
            io_ns_per_byte,
            inner_threads: inner,
            estimated_groups: q.estimated_groups,
        });
    }

    // Per-worker output: its metrics plus the (query index, result) pairs
    // it owned under the strided assignment.
    type WorkerOutput = (ExecMetrics, Vec<(usize, Result<Table>)>);
    let workers = threads.min(resolved.len()).max(1);
    let outputs: Vec<WorkerOutput> = if workers <= 1 {
        // Serial fallback: no reason to pay thread spawn for one worker.
        let mut m = ExecMetrics::new();
        let out = resolved
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.run(cancel, &mut m)))
            .collect();
        vec![(m, out)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|wid| {
                    let resolved = &resolved;
                    scope.spawn(move || {
                        let mut m = ExecMetrics::new();
                        let mut out = Vec::new();
                        // Strided ownership: worker w takes queries
                        // w, w+W, w+2W, … — deterministic and disjoint.
                        let mut i = wid;
                        while i < resolved.len() {
                            out.push((i, resolved[i].run(cancel, &mut m)));
                            i += workers;
                        }
                        (m, out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker panicked"))
                .collect()
        })
    };

    let mut metrics = ExecMetrics::new();
    let mut slots: Vec<Option<Table>> = (0..resolved.len()).map(|_| None).collect();
    let mut first_err = None;
    for (m, out) in outputs {
        metrics += m;
        for (i, r) in out {
            match r {
                Ok(t) => slots[i] = Some(t),
                // Keep the error from the earliest query for determinism.
                Err(e) => match first_err {
                    Some((j, _)) if j < i => {}
                    _ => first_err = Some((i, e)),
                },
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    metrics.elapsed_nanos = 0;
    let tables = slots
        .into_iter()
        .map(|t| t.expect("no error, so every slot filled"))
        .collect();
    Ok((tables, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort_agg::sort_group_by;
    use gbmqo_storage::{Column, DataType, Field, Schema, Value};

    fn catalog(rows: i64) -> Catalog {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![
                Column::from_i64((0..rows).map(|i| i % 7).collect()),
                Column::from_i64((0..rows).map(|i| i % 11).collect()),
            ],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.register("r", t).unwrap();
        c
    }

    fn norm(t: &Table) -> Vec<Vec<Value>> {
        let mut v: Vec<Vec<Value>> = (0..t.num_rows())
            .map(|r| (0..t.num_columns()).map(|c| t.value(r, c)).collect())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn batch_matches_serial_per_query() {
        let cat = catalog(5_000);
        let queries = vec![
            GroupByQuery::count_star("r", &["a"]),
            GroupByQuery::count_star("r", &["b"]),
            GroupByQuery::count_star("r", &["a", "b"]),
        ];
        let (tables, metrics) = run_batch(&cat, 0.0, &queries, 4, None).unwrap();
        assert_eq!(tables.len(), 3);
        assert_eq!(metrics.rows_scanned, 3 * 5_000);
        assert_eq!(metrics.elapsed_nanos, 0);
        for (q, t) in queries.iter().zip(&tables) {
            let mut m = ExecMetrics::new();
            let table = cat.table("r").unwrap();
            let cols: Vec<usize> = q
                .group_cols
                .iter()
                .map(|n| table.schema().index_of(n).unwrap())
                .collect();
            let serial = sort_group_by(table, &cols, &q.aggs, &mut m).unwrap();
            assert_eq!(norm(t), norm(&serial), "{:?}", q.group_cols);
        }
    }

    #[test]
    fn single_query_uses_inner_parallelism() {
        let cat = catalog(40_000);
        let queries = vec![GroupByQuery::count_star("r", &["a", "b"])];
        let (tables, _) = run_batch(&cat, 0.0, &queries, 8, None).unwrap();
        assert_eq!(tables[0].num_rows(), 77);
    }

    #[test]
    fn missing_table_errors_cleanly() {
        let cat = catalog(10);
        let queries = vec![GroupByQuery::count_star("ghost", &["a"])];
        assert!(run_batch(&cat, 0.0, &queries, 4, None).is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        let cat = catalog(10);
        let (tables, _) = run_batch(&cat, 0.0, &[], 4, None).unwrap();
        assert!(tables.is_empty());
    }
}
