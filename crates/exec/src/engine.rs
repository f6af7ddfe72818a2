//! The engine: runs Group By queries over catalog tables or over tables
//! handed to it, the way the paper's client-side implementation (§5.2)
//! issues `SELECT … GROUP BY …` statements against a DBMS. Results go
//! back to the caller; whoever keeps one as an intermediate (the paper's
//! `SELECT … INTO tmp`) owns it and hands it to the queries that read it.

use crate::agg::AggSpec;
use crate::cancel::CancelToken;
use crate::error::Result;
use crate::metrics::ExecMetrics;
use crate::radix::radix_group_by;
use gbmqo_storage::{Catalog, Table};
use std::sync::Arc;
use std::time::Instant;

/// What a query reads.
#[derive(Debug, Clone)]
pub enum Input {
    /// A catalog table by name. An index whose order serves the grouping
    /// is streamed instead of hashed, and row-store emulation charges the
    /// index's key columns or else the table's full width.
    Catalog(String),
    /// A table handed over by whoever owns it — a plan intermediate, a
    /// cached aggregate, a filtered fact. It has no indexes, so under
    /// row-store emulation it pays a full-width scan.
    Table(Arc<Table>),
}

impl Input {
    /// The table read: a shared handle, not a copy.
    pub fn resolve(&self, catalog: &Catalog) -> Result<Arc<Table>> {
        match self {
            Input::Catalog(name) => Ok(catalog.table_arc(name)?),
            Input::Table(table) => Ok(Arc::clone(table)),
        }
    }
}

/// Two inputs are the same when they name the same catalog table or hand
/// over the same allocation: what a fused wave shares one scan of.
impl PartialEq for Input {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Input::Catalog(a), Input::Catalog(b)) => a == b,
            (Input::Table(a), Input::Table(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for Input {}

/// A Group By query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupByQuery {
    /// The table read.
    pub input: Input,
    /// Grouping column names.
    pub group_cols: Vec<String>,
    /// Aggregates to compute.
    pub aggs: Vec<AggSpec>,
    /// Optimizer cardinality estimate for this grouping (distinct
    /// groups), when the planner has one. Kernels use it to size radix
    /// partition fan-out; `None` falls back to rows-based heuristics.
    pub estimated_groups: Option<u64>,
}

impl GroupByQuery {
    /// `SELECT cols, COUNT(*) FROM input GROUP BY cols` over a catalog table.
    pub fn count_star(input: &str, group_cols: &[&str]) -> Self {
        GroupByQuery {
            input: Input::Catalog(input.to_string()),
            group_cols: group_cols.iter().map(|s| s.to_string()).collect(),
            aggs: vec![AggSpec::count()],
            estimated_groups: None,
        }
    }
}

/// Executes queries against a [`Catalog`], accumulating [`ExecMetrics`].
#[derive(Debug)]
pub struct Engine {
    catalog: Catalog,
    metrics: ExecMetrics,
    io_ns_per_byte: f64,
    kernel_threads: usize,
    cancel: Option<CancelToken>,
}

impl Engine {
    /// Wrap a catalog.
    pub fn new(catalog: Catalog) -> Self {
        Engine {
            catalog,
            metrics: ExecMetrics::new(),
            io_ns_per_byte: 0.0,
            kernel_threads: 1,
            cancel: None,
        }
    }

    /// Attach a [`CancelToken`] that every subsequent query polls at its
    /// morsel boundaries (and the plan executors poll between steps).
    /// `None` detaches — queries run to completion again. Callers running
    /// per-request deadlines attach a fresh token per request.
    pub fn set_cancel_token(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// Fail fast if the attached token (if any) has tripped. Plan
    /// executors call this between steps/waves so cancellation is
    /// observed even when individual queries are too small to poll.
    pub fn check_cancelled(&self) -> Result<()> {
        crate::cancel::check(self.cancel.as_ref())
    }

    /// Threads a *single* query run through [`Engine::run_group_by`] may
    /// use inside its kernel (default 1 — fully serial). Batch execution
    /// via [`Engine::run_group_bys_parallel`] manages its own budget and
    /// ignores this.
    pub fn set_kernel_threads(&mut self, threads: usize) {
        self.kernel_threads = threads.max(1);
    }

    /// The per-query kernel thread budget.
    pub fn kernel_threads(&self) -> usize {
        self.kernel_threads
    }

    /// Configure disk-based row-store emulation (see [`crate::rowstore`]):
    /// when `ns_per_byte > 0`, un-indexed scans read the full width of
    /// their input table and pay a simulated transfer time of
    /// `bytes × ns_per_byte`; index-served scans pay I/O only for the key
    /// columns; materializing an intermediate pays write I/O. `0.0` (the
    /// default) disables the emulation.
    pub fn set_io_ns_per_byte(&mut self, ns_per_byte: f64) {
        self.io_ns_per_byte = ns_per_byte;
    }

    /// Current simulated I/O cost (0 = off).
    pub fn io_ns_per_byte(&self) -> f64 {
        self.io_ns_per_byte
    }

    /// Borrow the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutably borrow the catalog (index management, table registration).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> ExecMetrics {
        self.metrics
    }

    /// Zero the metrics.
    pub fn reset_metrics(&mut self) {
        self.metrics = ExecMetrics::new();
    }

    /// Run one Group By query — a one-query batch
    /// ([`Engine::run_group_bys_parallel`]) on the engine's kernel
    /// threads.
    ///
    /// If the input table has an index whose order serves the grouping,
    /// the engine streams over it instead of hashing — the executor-level
    /// counterpart of the paper's observation that its plans "automatically
    /// benefit from the addition of indices" (§6.9).
    pub fn run_group_by(&mut self, q: &GroupByQuery) -> Result<Table> {
        let mut tables =
            self.run_group_bys_parallel(std::slice::from_ref(q), self.kernel_threads)?;
        Ok(tables.pop().expect("one query, one result"))
    }

    /// Run one Group By over only rows `[start, start + rows)` of the
    /// input — the delta-scan node of the ingest pipeline. It feeds the
    /// same hash kernel as [`Engine::run_group_by`], but over a
    /// cheap O(rows) slice of the table, so refreshing a cached
    /// aggregate after an append costs work proportional to the delta
    /// rather than the base. Indexes are ignored (they describe the
    /// pre-append ordering) and under row-store emulation only the
    /// slice's bytes are charged.
    pub fn run_group_by_range(
        &mut self,
        q: &GroupByQuery,
        start: usize,
        rows: usize,
    ) -> Result<Table> {
        let t0 = Instant::now();
        let table = q.input.resolve(&self.catalog)?;
        let cols: Vec<usize> = q
            .group_cols
            .iter()
            .map(|n| table.schema().index_of(n))
            .collect::<gbmqo_storage::Result<_>>()?;
        let slice = table.slice_rows(start, rows)?;
        if self.io_ns_per_byte > 0.0 {
            let bytes = slice.byte_size() as u64;
            crate::rowstore::simulated_io_wait(bytes, self.io_ns_per_byte);
            self.metrics.bytes_scanned += bytes;
        }
        let result = self.aggregate_table(&slice, &cols, &q.aggs, q.estimated_groups)?;
        self.metrics.queries_executed += 1;
        self.metrics.delta_rows += rows as u64;
        self.metrics.add_elapsed(t0.elapsed());
        Ok(result)
    }

    /// Group an in-memory `table` that is not a catalog entry — the
    /// concatenated per-shard partials of a cross-shard merge, a cached
    /// aggregate plus its delta, one level of a ROLLUP/CUBE descent —
    /// through the same hash kernel as a catalog query
    /// ([`radix_group_by`]), with the engine's kernel threads,
    /// cancel token and metrics. `estimated_groups` sizes the radix
    /// fan-out as [`GroupByQuery::estimated_groups`] does. Rows and
    /// kernel time are counted; a query is not (the caller's operator
    /// decides what one query is), and no simulated I/O is charged — the
    /// input is already in memory.
    pub fn aggregate_table(
        &mut self,
        table: &Table,
        group_cols: &[usize],
        aggs: &[AggSpec],
        estimated_groups: Option<u64>,
    ) -> Result<Table> {
        radix_group_by(
            table,
            group_cols,
            aggs,
            self.kernel_threads,
            estimated_groups,
            self.cancel.as_ref(),
            &mut self.metrics,
        )
    }

    /// Run a batch of **independent** Group By queries concurrently on up
    /// to `threads` scoped worker threads (one wave of the dependency-
    /// parallel plan executor). Results come back in query order.
    ///
    /// Workers read their inputs through shared borrows and keep private
    /// metrics, merged race-free after the join; `elapsed_nanos` advances
    /// by the batch's wall-clock time, not the summed worker time. No
    /// query in the batch may read another one's result — that
    /// dependency belongs in the next wave.
    ///
    /// When the batch is narrower than `threads`, the spare threads are
    /// each query's budget *inside* the kernel, which uses them once its
    /// input is large enough.
    pub fn run_group_bys_parallel(
        &mut self,
        queries: &[GroupByQuery],
        threads: usize,
    ) -> Result<Vec<Table>> {
        let start = Instant::now();
        let (tables, batch_metrics) = crate::driver::run_batch(
            &self.catalog,
            self.io_ns_per_byte,
            queries,
            threads,
            self.cancel.as_ref(),
        )?;
        self.metrics += batch_metrics;
        self.metrics.queries_executed += queries.len() as u64;
        self.metrics.add_elapsed(start.elapsed());
        Ok(tables)
    }

    /// Run several Group Bys over the same input in **one shared scan**
    /// (the server-side execution style of §5.1: PipeHash-like shared
    /// scans across the members of a GROUPING SETS). Under row-store
    /// emulation the input's scan I/O is paid once, not once per query.
    /// `estimated_groups[i]`, when given, is grouping `i`'s
    /// [`GroupByQuery::estimated_groups`] and sizes its hash table.
    /// Results are returned in order.
    pub fn run_shared_group_bys(
        &mut self,
        input: &Input,
        groupings: &[Vec<String>],
        aggs: &[crate::agg::AggSpec],
        estimated_groups: &[Option<u64>],
    ) -> Result<Vec<Table>> {
        self.check_cancelled()?;
        let start = Instant::now();
        let table = input.resolve(&self.catalog)?;
        let ords: Vec<Vec<usize>> = groupings
            .iter()
            .map(|cols| {
                cols.iter()
                    .map(|n| table.schema().index_of(n))
                    .collect::<gbmqo_storage::Result<_>>()
            })
            .collect::<gbmqo_storage::Result<_>>()?;
        if self.io_ns_per_byte > 0.0 {
            std::hint::black_box(crate::rowstore::full_scan_tax(&table));
            let bytes = table.byte_size() as u64;
            crate::rowstore::simulated_io_wait(bytes, self.io_ns_per_byte);
            self.metrics.bytes_scanned += bytes;
        }
        let results = crate::shared::shared_scan_group_by(
            &table,
            &ords,
            aggs,
            estimated_groups,
            self.cancel.as_ref(),
            &mut self.metrics,
        )?;
        self.metrics.queries_executed += groupings.len() as u64;
        self.metrics.add_elapsed(start.elapsed());
        Ok(results)
    }

    /// Account for the caller keeping `table` as an intermediate (the
    /// paper's `SELECT … INTO`): one more table materialized, plus
    /// simulated write I/O when row-store emulation is active.
    pub fn materialize(&mut self, table: &Table) {
        if self.io_ns_per_byte > 0.0 {
            crate::rowstore::simulated_io_wait(table.byte_size() as u64, self.io_ns_per_byte);
        }
        self.metrics.tables_materialized += 1;
    }

    /// Run a selection over catalog table `input` (§5.1.1's pushed-down
    /// selection). Charges scan I/O under row-store emulation.
    pub fn run_filter(
        &mut self,
        input: &str,
        predicate: &crate::filter::Predicate,
    ) -> Result<Table> {
        let start = Instant::now();
        let table = self.catalog.table(input)?;
        if self.io_ns_per_byte > 0.0 {
            std::hint::black_box(crate::rowstore::full_scan_tax(table));
            let bytes = table.byte_size() as u64;
            crate::rowstore::simulated_io_wait(bytes, self.io_ns_per_byte);
            self.metrics.bytes_scanned += bytes;
        }
        let result = crate::filter::filter(table, predicate, &mut self.metrics)?;
        self.metrics.queries_executed += 1;
        self.metrics.add_elapsed(start.elapsed());
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{Column, DataType, Field, IndexKind, Schema, Value};

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![
                Column::from_i64(vec![1, 1, 2, 2, 2]),
                Column::from_i64(vec![7, 8, 7, 7, 9]),
            ],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.register("r", t).unwrap();
        c
    }

    /// `(key, count)` rows of a one-column Group By result, sorted.
    fn norm(t: &Table) -> Vec<(Value, i64)> {
        let mut v: Vec<(Value, i64)> = (0..t.num_rows())
            .map(|i| (t.value(i, 0), t.value(i, 1).as_int().unwrap()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn run_returns_results() {
        let mut e = Engine::new(catalog());
        let r = e
            .run_group_by(&GroupByQuery::count_star("r", &["a"]))
            .unwrap();
        assert_eq!(r.num_rows(), 2);
        assert_eq!(e.metrics().queries_executed, 1);
        assert_eq!(e.metrics().tables_materialized, 0);
    }

    #[test]
    fn into_materializes_temp_table() {
        let mut e = Engine::new(catalog());
        let t_ab = e
            .run_group_by(&GroupByQuery::count_star("r", &["a", "b"]))
            .unwrap();
        e.materialize(&t_ab);
        assert_eq!(e.metrics().tables_materialized, 1);

        // re-aggregate from the intermediate its owner hands back
        let r = e
            .run_group_by(&GroupByQuery {
                input: Input::Table(Arc::new(t_ab)),
                group_cols: vec!["b".into()],
                aggs: vec![AggSpec::sum_count()],
                estimated_groups: None,
            })
            .unwrap();
        let direct = e
            .run_group_by(&GroupByQuery::count_star("r", &["b"]))
            .unwrap();
        assert_eq!(norm(&r), norm(&direct));
        assert_eq!(e.catalog().entries().count(), 1, "the catalog holds only r");
    }

    #[test]
    fn index_is_used_when_it_serves() {
        let mut e = Engine::new(catalog());
        e.catalog_mut()
            .create_index("r", "ix_a", IndexKind::NonClustered, vec![0])
            .unwrap();
        let with_index = e
            .run_group_by(&GroupByQuery::count_star("r", &["a"]))
            .unwrap();
        let mut v: Vec<(i64, i64)> = (0..with_index.num_rows())
            .map(|i| {
                (
                    with_index.value(i, 0).as_int().unwrap(),
                    with_index.value(i, 1).as_int().unwrap(),
                )
            })
            .collect();
        v.sort();
        assert_eq!(v, vec![(1, 2), (2, 3)]);
    }

    #[test]
    fn parallel_batch_matches_serial_and_materializes() {
        let mut serial = Engine::new(catalog());
        let mut par = Engine::new(catalog());
        let handed = Input::Table(serial.catalog().table_arc("r").unwrap());
        let queries = vec![
            GroupByQuery::count_star("r", &["a"]),
            GroupByQuery {
                input: handed.clone(),
                ..GroupByQuery::count_star("r", &["b"])
            },
            GroupByQuery::count_star("r", &["a", "b"]),
        ];
        let par_tables = par.run_group_bys_parallel(&queries, 4).unwrap();
        let norm = |t: &Table| {
            let mut v: Vec<Vec<Value>> = (0..t.num_rows())
                .map(|r| (0..t.num_columns()).map(|c| t.value(r, c)).collect())
                .collect();
            v.sort();
            v
        };
        for (q, pt) in queries.iter().zip(&par_tables) {
            let st = serial.run_group_by(q).unwrap();
            assert_eq!(norm(&st), norm(pt));
        }
        par.materialize(&par_tables[1]);
        assert_eq!(par.metrics().queries_executed, 3);
        assert_eq!(par.metrics().tables_materialized, 1);
        assert_eq!(par.metrics().rows_scanned, serial.metrics().rows_scanned);
        // Same allocation, same input; a catalog name is another input.
        assert_eq!(queries[1].input, handed);
        assert_ne!(queries[0].input, handed);
    }

    #[test]
    fn range_scan_aggregates_only_the_slice() {
        let mut e = Engine::new(catalog());
        // full table: a=1 ×2, a=2 ×3. Tail slice [2,5): a=2 ×3.
        let r = e
            .run_group_by_range(&GroupByQuery::count_star("r", &["a"]), 2, 3)
            .unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.value(0, 0), Value::Int(2));
        assert_eq!(r.value(0, 1), Value::Int(3));
        assert_eq!(e.metrics().delta_rows, 3);
        assert_eq!(e.metrics().queries_executed, 1);
        // empty range: zero groups, still counted as a query
        let empty = e
            .run_group_by_range(&GroupByQuery::count_star("r", &["a"]), 5, 0)
            .unwrap();
        assert_eq!(empty.num_rows(), 0);
        // out-of-range rejected
        assert!(e
            .run_group_by_range(&GroupByQuery::count_star("r", &["a"]), 4, 5)
            .is_err());
    }

    #[test]
    fn aggregate_table_is_the_query_kernel_without_the_catalog() {
        let mut e = Engine::new(catalog());
        let by_name = e
            .run_group_by(&GroupByQuery::count_star("r", &["b"]))
            .unwrap();
        let before = e.metrics();
        let table = e.catalog().table_arc("r").unwrap();
        let direct = e
            .aggregate_table(&table, &[1], &[AggSpec::count()], Some(3))
            .unwrap();
        assert_eq!(norm(&direct), norm(&by_name));
        // Rows are counted, a query is not.
        assert_eq!(e.metrics().rows_scanned, before.rows_scanned + 5);
        assert_eq!(e.metrics().queries_executed, before.queries_executed);

        // It runs under the engine's token like any query.
        let token = CancelToken::new();
        token.cancel();
        e.set_cancel_token(Some(token));
        let err = e
            .aggregate_table(&table, &[1], &[AggSpec::count()], None)
            .unwrap_err();
        assert_eq!(err, crate::ExecError::Cancelled { timed_out: false });
    }

    #[test]
    fn missing_table_and_column_error() {
        let mut e = Engine::new(catalog());
        assert!(e
            .run_group_by(&GroupByQuery::count_star("ghost", &["a"]))
            .is_err());
        assert!(e
            .run_group_by(&GroupByQuery::count_star("r", &["ghost"]))
            .is_err());
    }

    #[test]
    fn attached_token_cancels_queries() {
        let mut e = Engine::new(catalog());
        let token = CancelToken::new();
        e.set_cancel_token(Some(token.clone()));
        assert!(e.check_cancelled().is_ok());
        // not tripped yet: queries run normally
        e.run_group_by(&GroupByQuery::count_star("r", &["a"]))
            .unwrap();
        token.cancel();
        assert!(e.check_cancelled().is_err());
        let err = e
            .run_group_by(&GroupByQuery::count_star("r", &["a"]))
            .unwrap_err();
        assert_eq!(err, crate::ExecError::Cancelled { timed_out: false });
        // detach: back to normal
        e.set_cancel_token(None);
        e.run_group_by(&GroupByQuery::count_star("r", &["a"]))
            .unwrap();
    }

    #[test]
    fn reset_metrics_clears_counters() {
        let mut e = Engine::new(catalog());
        e.run_group_by(&GroupByQuery::count_star("r", &["a"]))
            .unwrap();
        assert!(e.metrics().queries_executed > 0);
        e.reset_metrics();
        assert_eq!(e.metrics(), ExecMetrics::new());
    }
}
