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

/// The ascending ids of the rows a query reads of its table, shared.
pub type RowIds = Arc<Vec<u32>>;

/// What a query reads.
#[derive(Debug, Clone)]
pub enum Input {
    /// A catalog table by name. An index whose order serves the grouping
    /// is streamed instead of hashed, and row-store emulation charges the
    /// index's key columns or else the table's full width.
    Catalog(String),
    /// A table handed over by whoever owns it — a plan intermediate, a
    /// cached aggregate, a filtered fact — or, with a list of ascending
    /// row ids, the rows of it the list selects: a shard of a catalog
    /// table, an appended delta. It has no indexes, so under row-store
    /// emulation it pays a full-width scan of the rows it reads.
    Table(Arc<Table>, Option<RowIds>),
}

impl Input {
    /// The table read and the rows of it selected (`None`: all of them):
    /// shared handles, not copies. A selection reaching past the table is
    /// refused.
    pub fn resolve(&self, catalog: &Catalog) -> Result<(Arc<Table>, Option<RowIds>)> {
        match self {
            Input::Catalog(name) => Ok((catalog.table_arc(name)?, None)),
            Input::Table(table, Some(rows))
                if rows.last().is_some_and(|&r| r as usize >= table.num_rows()) =>
            {
                Err(crate::ExecError::Invalid(format!(
                    "row selection reaches past a table of {} rows",
                    table.num_rows()
                )))
            }
            Input::Table(table, rows) => Ok((Arc::clone(table), rows.clone())),
        }
    }
}

/// What a kernel reads: every row of `table`, or the ascending row ids
/// `selection` keeps of it. The ids index `table` itself, so the kernels
/// fold, gather and assemble results from it as they would from a whole
/// table; the per-read passes — the packed key layout's value ranges,
/// the row-store scan tax and its byte charge — and the row loops read
/// the selection, and each costs time in proportion to the rows read.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    /// The table the row ids index.
    pub table: &'a Table,
    /// The rows read, ascending; `None` reads every row.
    pub selection: Option<&'a [u32]>,
}

impl<'a> From<&'a Table> for Rows<'a> {
    fn from(table: &'a Table) -> Self {
        Rows {
            table,
            selection: None,
        }
    }
}

impl<'a> Rows<'a> {
    /// The rows of `table` that `selection` keeps, as a resolved
    /// [`Input`] hands them over.
    pub fn of(table: &'a Table, selection: &'a Option<RowIds>) -> Self {
        Rows {
            table,
            selection: selection.as_deref().map(Vec::as_slice),
        }
    }

    /// Rows read.
    pub fn len(&self) -> usize {
        self.selection.map_or(self.table.num_rows(), <[u32]>::len)
    }

    /// True when no row is read.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes a full-width scan of the rows read covers: what row-store
    /// emulation charges.
    pub fn byte_size(&self) -> usize {
        match self.selection {
            None => self.table.byte_size(),
            Some(rows) => (self.table.columns().iter())
                .map(|c| c.byte_size_of(rows.len()))
                .sum(),
        }
    }

    /// The ids of read rows `pos .. pos + len`: a slice of the selection,
    /// or consecutive ids written to `buf`.
    pub(crate) fn ids<'b>(&self, pos: usize, len: usize, buf: &'b mut Vec<u32>) -> &'b [u32]
    where
        'a: 'b,
    {
        match self.selection {
            Some(rows) => &rows[pos..pos + len],
            None => {
                buf.clear();
                buf.extend(pos as u32..(pos + len) as u32);
                buf
            }
        }
    }
}

/// Two inputs are the same when they name the same catalog table or hand
/// over the same allocations, table and selection: what a fused wave
/// shares one scan of.
impl PartialEq for Input {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Input::Catalog(a), Input::Catalog(b)) => a == b,
            (Input::Table(a, ra), Input::Table(b, rb)) => {
                Arc::ptr_eq(a, b)
                    && match (ra, rb) {
                        (None, None) => true,
                        (Some(ra), Some(rb)) => Arc::ptr_eq(ra, rb),
                        _ => false,
                    }
            }
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

/// One request's execution state: the token its deadline trips and the
/// counters its work accrues. Whoever runs a request builds one and
/// passes it by `&mut` down to every engine call and kernel; no
/// long-lived object holds one, so requests sharing an [`Engine`] never
/// see each other's deadline or counters.
#[derive(Debug, Default)]
pub struct QueryCtx {
    /// Polled at morsel boundaries by the kernels and between stages and
    /// waves by the plan executors; `None` never trips.
    pub cancel: Option<CancelToken>,
    /// Work performed so far on the request's behalf.
    pub metrics: ExecMetrics,
}

impl QueryCtx {
    /// Fail fast if the request's token has tripped. Plan executors call
    /// this between stages and waves, so cancellation is observed even
    /// when individual queries are too small to poll.
    pub fn check_cancelled(&self) -> Result<()> {
        crate::cancel::check(self.cancel.as_ref())
    }
}

/// Executes queries against a [`Catalog`]. It holds only the catalog
/// and its configuration: every query takes `&self` and charges its
/// work to the caller's [`QueryCtx`]. A shard read and a delta scan —
/// the rows appended to a table, or to one of its shards, since a
/// cached aggregate was computed — are one kind of query: an
/// [`Input::Table`] with the ascending ids of the rows it reads, whose
/// cost follows those rows, not the table's.
#[derive(Debug)]
pub struct Engine {
    catalog: Catalog,
    io_ns_per_byte: f64,
    kernel_threads: usize,
}

impl Engine {
    /// Wrap a catalog.
    pub fn new(catalog: Catalog) -> Self {
        Engine {
            catalog,
            io_ns_per_byte: 0.0,
            kernel_threads: 1,
        }
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

    /// Run one Group By query — a one-query batch
    /// ([`Engine::run_group_bys_parallel`]) on the engine's kernel
    /// threads.
    ///
    /// If the input table has an index whose order serves the grouping,
    /// the engine streams over it instead of hashing — the executor-level
    /// counterpart of the paper's observation that its plans "automatically
    /// benefit from the addition of indices" (§6.9).
    pub fn run_group_by(&self, q: &GroupByQuery, ctx: &mut QueryCtx) -> Result<Table> {
        let mut tables =
            self.run_group_bys_parallel(std::slice::from_ref(q), self.kernel_threads, ctx)?;
        Ok(tables.pop().expect("one query, one result"))
    }

    /// Group an in-memory table, or a selection of one, that is not a
    /// catalog entry — the concatenated per-shard partials of a
    /// cross-shard merge, a cached aggregate plus its delta, one level of
    /// a ROLLUP/CUBE descent — through the same hash kernel as a catalog
    /// query ([`radix_group_by`]), with the engine's kernel threads and
    /// the request's token and counters. `estimated_groups` sizes the
    /// radix fan-out as [`GroupByQuery::estimated_groups`] does. Rows and
    /// kernel time are counted; a query is not (the caller's operator
    /// decides what one query is), and no simulated I/O is charged — the
    /// input is already in memory.
    pub fn aggregate_table<'t>(
        &self,
        table: impl Into<Rows<'t>>,
        group_cols: &[usize],
        aggs: &[AggSpec],
        estimated_groups: Option<u64>,
        ctx: &mut QueryCtx,
    ) -> Result<Table> {
        radix_group_by(
            table,
            group_cols,
            aggs,
            self.kernel_threads,
            estimated_groups,
            ctx.cancel.as_ref(),
            &mut ctx.metrics,
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
        &self,
        queries: &[GroupByQuery],
        threads: usize,
        ctx: &mut QueryCtx,
    ) -> Result<Vec<Table>> {
        let start = Instant::now();
        let (tables, batch_metrics) = crate::driver::run_batch(
            &self.catalog,
            self.io_ns_per_byte,
            queries,
            threads,
            ctx.cancel.as_ref(),
        )?;
        ctx.metrics += batch_metrics;
        ctx.metrics.queries_executed += queries.len() as u64;
        ctx.metrics.add_elapsed(start.elapsed());
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
        &self,
        input: &Input,
        groupings: &[Vec<String>],
        aggs: &[crate::agg::AggSpec],
        estimated_groups: &[Option<u64>],
        ctx: &mut QueryCtx,
    ) -> Result<Vec<Table>> {
        ctx.check_cancelled()?;
        let start = Instant::now();
        let (table, selection) = input.resolve(&self.catalog)?;
        let rows = Rows::of(&table, &selection);
        let ords: Vec<Vec<usize>> = groupings
            .iter()
            .map(|cols| {
                cols.iter()
                    .map(|n| table.schema().index_of(n))
                    .collect::<gbmqo_storage::Result<_>>()
            })
            .collect::<gbmqo_storage::Result<_>>()?;
        if self.io_ns_per_byte > 0.0 {
            std::hint::black_box(crate::rowstore::full_scan_tax(rows));
            let bytes = rows.byte_size() as u64;
            crate::rowstore::simulated_io_wait(bytes, self.io_ns_per_byte);
            ctx.metrics.bytes_scanned += bytes;
        }
        let results = crate::shared::shared_scan_group_by(
            rows,
            &ords,
            aggs,
            estimated_groups,
            ctx.cancel.as_ref(),
            &mut ctx.metrics,
        )?;
        ctx.metrics.queries_executed += groupings.len() as u64;
        ctx.metrics.add_elapsed(start.elapsed());
        Ok(results)
    }

    /// Account for the caller keeping `table` as an intermediate (the
    /// paper's `SELECT … INTO`): one more table materialized, plus
    /// simulated write I/O when row-store emulation is active.
    pub fn materialize(&self, table: &Table, ctx: &mut QueryCtx) {
        if self.io_ns_per_byte > 0.0 {
            crate::rowstore::simulated_io_wait(table.byte_size() as u64, self.io_ns_per_byte);
        }
        ctx.metrics.tables_materialized += 1;
    }

    /// Run a selection over `table` (§5.1.1's pushed-down selection):
    /// the rows, ascending, that pass `predicate` and every semi-join in
    /// `joins`, or `None` when every row does (see [`crate::select`]).
    /// Charges the scans of the table and of each dimension under
    /// row-store emulation.
    pub fn run_filter(
        &self,
        table: &Table,
        predicate: Option<&crate::filter::Predicate>,
        joins: &[crate::filter::SemiJoin],
        ctx: &mut QueryCtx,
    ) -> Result<Option<Vec<u32>>> {
        let start = Instant::now();
        if self.io_ns_per_byte > 0.0 {
            for scanned in std::iter::once(table).chain(joins.iter().map(|j| &*j.dim.table)) {
                std::hint::black_box(crate::rowstore::full_scan_tax(scanned));
                let bytes = scanned.byte_size() as u64;
                crate::rowstore::simulated_io_wait(bytes, self.io_ns_per_byte);
                ctx.metrics.bytes_scanned += bytes;
            }
        }
        ctx.metrics.add_elapsed(start.elapsed());
        let rows = crate::filter::select(table, predicate, joins, &mut ctx.metrics)?;
        ctx.metrics.queries_executed += 1;
        Ok(rows)
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
        let e = Engine::new(catalog());
        let mut ctx = QueryCtx::default();
        let r = e
            .run_group_by(&GroupByQuery::count_star("r", &["a"]), &mut ctx)
            .unwrap();
        assert_eq!(r.num_rows(), 2);
        assert_eq!(ctx.metrics.queries_executed, 1);
        assert_eq!(ctx.metrics.tables_materialized, 0);
    }

    #[test]
    fn into_materializes_temp_table() {
        let e = Engine::new(catalog());
        let mut ctx = QueryCtx::default();
        let t_ab = e
            .run_group_by(&GroupByQuery::count_star("r", &["a", "b"]), &mut ctx)
            .unwrap();
        e.materialize(&t_ab, &mut ctx);
        assert_eq!(ctx.metrics.tables_materialized, 1);

        // re-aggregate from the intermediate its owner hands back
        let r = e
            .run_group_by(
                &GroupByQuery {
                    input: Input::Table(Arc::new(t_ab), None),
                    group_cols: vec!["b".into()],
                    aggs: vec![AggSpec::sum_count()],
                    estimated_groups: None,
                },
                &mut ctx,
            )
            .unwrap();
        let direct = e
            .run_group_by(&GroupByQuery::count_star("r", &["b"]), &mut ctx)
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
            .run_group_by(
                &GroupByQuery::count_star("r", &["a"]),
                &mut QueryCtx::default(),
            )
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
        let e = Engine::new(catalog());
        let (mut serial, mut par) = (QueryCtx::default(), QueryCtx::default());
        let handed = Input::Table(e.catalog().table_arc("r").unwrap(), None);
        let queries = vec![
            GroupByQuery::count_star("r", &["a"]),
            GroupByQuery {
                input: handed.clone(),
                ..GroupByQuery::count_star("r", &["b"])
            },
            GroupByQuery::count_star("r", &["a", "b"]),
        ];
        let par_tables = e.run_group_bys_parallel(&queries, 4, &mut par).unwrap();
        let norm = |t: &Table| {
            let mut v: Vec<Vec<Value>> = (0..t.num_rows())
                .map(|r| (0..t.num_columns()).map(|c| t.value(r, c)).collect())
                .collect();
            v.sort();
            v
        };
        for (q, pt) in queries.iter().zip(&par_tables) {
            let st = e.run_group_by(q, &mut serial).unwrap();
            assert_eq!(norm(&st), norm(pt));
        }
        e.materialize(&par_tables[1], &mut par);
        assert_eq!(par.metrics.queries_executed, 3);
        assert_eq!(par.metrics.tables_materialized, 1);
        assert_eq!(par.metrics.rows_scanned, serial.metrics.rows_scanned);
        // Same allocation, same input; a catalog name is another input.
        assert_eq!(queries[1].input, handed);
        assert_ne!(queries[0].input, handed);
    }

    #[test]
    fn range_scan_aggregates_only_the_slice() {
        let e = Engine::new(catalog());
        let mut ctx = QueryCtx::default();
        let table = e.catalog().table_arc("r").unwrap();
        let tail = |rows: std::ops::Range<u32>| GroupByQuery {
            input: Input::Table(Arc::clone(&table), Some(Arc::new(rows.collect()))),
            ..GroupByQuery::count_star("r", &["a"])
        };
        // full table: a=1 ×2, a=2 ×3. Tail rows [2,5): a=2 ×3.
        let r = e.run_group_by(&tail(2..5), &mut ctx).unwrap();
        assert_eq!(norm(&r), vec![(Value::Int(2), 3)]);
        assert_eq!(ctx.metrics.rows_scanned, 3);
        assert_eq!(ctx.metrics.queries_executed, 1);
        // empty range: zero groups, still counted as a query
        let empty = e.run_group_by(&tail(5..5), &mut ctx).unwrap();
        assert_eq!(empty.num_rows(), 0);
        assert_eq!(ctx.metrics.queries_executed, 2);
        // out-of-range rejected
        assert!(e.run_group_by(&tail(4..9), &mut ctx).is_err());
    }

    #[test]
    fn a_selection_reads_only_its_rows() {
        let e = Engine::new(catalog());
        let table = e.catalog().table_arc("r").unwrap();
        let q = |rows: Vec<u32>| GroupByQuery {
            input: Input::Table(Arc::clone(&table), Some(Arc::new(rows))),
            ..GroupByQuery::count_star("r", &["a"])
        };
        // a: 1 1 2 2 2 and b: 7 8 7 7 9 — rows {1, 2, 4} hold a=1 once
        // and a=2 twice, and b = 8, 7, 9
        let mut ctx = QueryCtx::default();
        let r = e.run_group_by(&q(vec![1, 2, 4]), &mut ctx).unwrap();
        assert_eq!(norm(&r), vec![(Value::Int(1), 1), (Value::Int(2), 2)]);
        assert_eq!(ctx.metrics.rows_scanned, 3);
        assert_eq!(ctx.metrics.queries_executed, 1);
        // an empty selection has no groups
        let empty = e.run_group_by(&q(Vec::new()), &mut ctx).unwrap();
        assert_eq!(empty.num_rows(), 0);
        // the same rows through a shared scan
        let shared = e
            .run_shared_group_bys(
                &q(vec![1, 2, 4]).input,
                &[vec!["a".into()], vec!["b".into()]],
                &[AggSpec::count()],
                &[None, None],
                &mut ctx,
            )
            .unwrap();
        assert_eq!(norm(&shared[0]), norm(&r));
        let once = |b| (Value::Int(b), 1);
        assert_eq!(norm(&shared[1]), vec![once(7), once(8), once(9)]);
        // selections are equal inputs only as the same allocation
        let (one, same) = (q(vec![0]).input, q(vec![0]).input);
        assert_ne!(one, same);
        assert_eq!(one, one.clone());
        assert_ne!(one, Input::Table(Arc::clone(&table), None));
    }

    #[test]
    fn aggregate_table_is_the_query_kernel_without_the_catalog() {
        let e = Engine::new(catalog());
        let mut ctx = QueryCtx::default();
        let by_name = e
            .run_group_by(&GroupByQuery::count_star("r", &["b"]), &mut ctx)
            .unwrap();
        let before = ctx.metrics;
        let table = e.catalog().table_arc("r").unwrap();
        let direct = e
            .aggregate_table(table.as_ref(), &[1], &[AggSpec::count()], Some(3), &mut ctx)
            .unwrap();
        assert_eq!(norm(&direct), norm(&by_name));
        // Rows are counted, a query is not.
        assert_eq!(ctx.metrics.rows_scanned, before.rows_scanned + 5);
        assert_eq!(ctx.metrics.queries_executed, before.queries_executed);

        // It runs under the request's token like any query.
        let token = CancelToken::new();
        token.cancel();
        ctx.cancel = Some(token);
        let err = e
            .aggregate_table(table.as_ref(), &[1], &[AggSpec::count()], None, &mut ctx)
            .unwrap_err();
        assert_eq!(err, crate::ExecError::Cancelled { timed_out: false });
    }

    #[test]
    fn missing_table_and_column_error() {
        let e = Engine::new(catalog());
        let mut ctx = QueryCtx::default();
        assert!(e
            .run_group_by(&GroupByQuery::count_star("ghost", &["a"]), &mut ctx)
            .is_err());
        assert!(e
            .run_group_by(&GroupByQuery::count_star("r", &["ghost"]), &mut ctx)
            .is_err());
    }

    #[test]
    fn attached_token_cancels_queries() {
        let e = Engine::new(catalog());
        let token = CancelToken::new();
        let mut ctx = QueryCtx {
            cancel: Some(token.clone()),
            ..QueryCtx::default()
        };
        let q = GroupByQuery::count_star("r", &["a"]);
        assert!(ctx.check_cancelled().is_ok());
        // not tripped yet: queries run normally
        e.run_group_by(&q, &mut ctx).unwrap();
        token.cancel();
        assert!(ctx.check_cancelled().is_err());
        let err = e.run_group_by(&q, &mut ctx).unwrap_err();
        assert_eq!(err, crate::ExecError::Cancelled { timed_out: false });
        // a request without a token runs to completion
        e.run_group_by(&q, &mut QueryCtx::default()).unwrap();
    }

    #[test]
    fn requests_sharing_an_engine_keep_their_own_deadline_and_counters() {
        let e = Engine::new(catalog());
        let q = GroupByQuery::count_star("r", &["b"]);
        let tripped = CancelToken::new();
        tripped.cancel();
        let (cancelled, (result, ctx)) = std::thread::scope(|s| {
            let cancelled = s.spawn(|| {
                let mut ctx = QueryCtx {
                    cancel: Some(tripped),
                    ..QueryCtx::default()
                };
                e.run_group_by(&q, &mut ctx)
            });
            let running = s.spawn(|| {
                let mut ctx = QueryCtx::default();
                (e.run_group_by(&q, &mut ctx), ctx)
            });
            (cancelled.join().unwrap(), running.join().unwrap())
        });
        assert_eq!(
            cancelled.unwrap_err(),
            crate::ExecError::Cancelled { timed_out: false }
        );
        let r = e.catalog().table("r").unwrap();
        let mut m = ExecMetrics::new();
        let expected = crate::sort_group_by(r, &[1], &[AggSpec::count()], &mut m).unwrap();
        assert_eq!(norm(&result.unwrap()), norm(&expected));
        assert_eq!(ctx.metrics.rows_scanned, r.num_rows() as u64);
        assert_eq!(ctx.metrics.queries_executed, 1);
    }
}
