//! High-level GROUPING SETS API: the execution-mode switch and the
//! union-all result (§5's two integration paths).
//!
//! A `GROUPING SETS` query returns one result set — the UNION ALL of its
//! member Group Bys, distinguishable by a `Grp-Tag` (§5.1.1). This module
//! provides that semantics on top of the optimizer. Every mode runs the
//! same interpreter ([`crate::executor`]); a mode only picks, in
//! [`crate::physicalize`], the order the plan's edges run in, how many
//! threads a wave gets, and whether edges reading one input share a scan:
//!
//! * [`ExecutionMode::ClientSide`] — §5.2: the plan runs as a sequence of
//!   separate SQL-like queries (`SELECT … INTO`, `SUM(cnt)`), exactly
//!   what an application can do against a stock DBMS, in §4.4's
//!   storage-minimizing order.
//! * [`ExecutionMode::ServerSide`] — §5.1: the plan runs inside the
//!   engine, where queries that read the same table can share one scan
//!   (PipeHash-style; the paper: "when implemented inside the server our
//!   approach can also potentially benefit from shared sorts … even
//!   greater speedup").
//! * [`ExecutionMode::Parallel`] — independent edges run concurrently.

use crate::colset::ColSet;
use crate::error::Result;
use crate::greedy::SearchStats;
use crate::plan::LogicalPlan;
use crate::workload::Workload;
use gbmqo_exec::{union_all_tagged, ExecMetrics};
use gbmqo_storage::Table;

/// How the optimized plan is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// One engine query per plan edge, one at a time (§5.2).
    #[default]
    ClientSide,
    /// Shared scans across queries reading the same table (§5.1).
    ServerSide,
    /// Dependency-parallel waves: independent plan edges run
    /// concurrently on scoped threads.
    Parallel,
}

/// The result of a GROUPING SETS execution.
#[derive(Debug)]
pub struct GroupingSetsResult {
    /// The UNION ALL of all member results, tagged by `grp_tag`
    /// (comma-joined column names of the member set).
    pub table: Table,
    /// The logical plan that was executed.
    pub plan: LogicalPlan,
    /// Search statistics.
    pub stats: SearchStats,
    /// Execution metrics.
    pub metrics: ExecMetrics,
}

impl GroupingSetsResult {
    /// Number of distinct grouping sets present in the union (the
    /// distinct `grp_tag` values).
    pub fn grouping_set_count(&self) -> usize {
        let Ok(tag_col) = self.table.schema().index_of("grp_tag") else {
            return 0;
        };
        let mut tags = std::collections::BTreeSet::new();
        for r in 0..self.table.num_rows() {
            if let Some(s) = self.table.value(r, tag_col).as_str() {
                tags.insert(s.to_string());
            }
        }
        tags.len()
    }
}

/// Tag each member result with its grouping columns and UNION ALL them
/// into the single GROUPING SETS result table (§5.1.1's `Grp-Tag`).
pub(crate) fn assemble_union(
    workload: &Workload,
    plan: LogicalPlan,
    stats: SearchStats,
    results: Vec<(ColSet, Table)>,
    metrics: ExecMetrics,
) -> Result<GroupingSetsResult> {
    let mut tagged: Vec<(String, Table)> = Vec::with_capacity(results.len());
    for (set, table) in results {
        tagged.push((workload.col_names(set).join(","), table));
    }
    let refs: Vec<(&str, &Table)> = tagged.iter().map(|(t, tb)| (t.as_str(), tb)).collect();
    let mut m2 = metrics;
    let table = union_all_tagged(&refs, "grp_tag", &mut m2)?;
    Ok(GroupingSetsResult {
        table,
        plan,
        stats,
        metrics: m2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::SearchConfig;
    use crate::session::Session;
    use gbmqo_exec::Engine;
    use gbmqo_storage::{Catalog, Column, DataType, Field, Schema, Value};

    fn setup() -> (Engine, Table) {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Int64),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![
                Column::from_i64((0..120).map(|i| i % 3).collect()),
                Column::from_i64((0..120).map(|i| (i % 3) * 10).collect()),
                Column::from_i64((0..120).map(|i| i % 5).collect()),
            ],
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.register("r", t.clone()).unwrap();
        (Engine::new(cat), t)
    }

    fn tag_counts(table: &Table) -> Vec<(String, usize)> {
        let tag_col = table.schema().index_of("grp_tag").unwrap();
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for r in 0..table.num_rows() {
            *counts
                .entry(table.value(r, tag_col).as_str().unwrap().to_string())
                .or_default() += 1;
        }
        counts.into_iter().collect()
    }

    #[test]
    fn client_and_server_side_agree() {
        let (_, t) = setup();
        let w = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
        let run = |mode| {
            let mut session = Session::builder()
                .engine(setup().0)
                .search(SearchConfig::pruned())
                .mode(mode)
                .build()
                .unwrap();
            session.grouping_sets(&w).unwrap()
        };
        let client = run(ExecutionMode::ClientSide);
        let server = run(ExecutionMode::ServerSide);
        assert_eq!(tag_counts(&client.table), tag_counts(&server.table));
        // a and b are perfectly correlated (3 groups each), c has 5
        assert_eq!(
            tag_counts(&client.table),
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 3),
                ("c".to_string(), 5)
            ]
        );
    }

    #[test]
    fn server_side_shares_scans() {
        let (engine, t) = setup();
        let w = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
        let mut session = Session::builder()
            .engine(engine)
            .search(SearchConfig::pruned())
            .mode(ExecutionMode::ServerSide)
            .build()
            .unwrap();
        let server = session.grouping_sets(&w).unwrap();
        // With the plan (a,b) merged: one shared scan of R computes the
        // (a,b) node and the c leaf; one scan of the temp computes a and b.
        assert!(
            server.metrics.rows_scanned <= 120 * 2 + 10,
            "rows scanned {} suggests scans were not shared",
            server.metrics.rows_scanned
        );
    }

    #[test]
    fn grouping_sets_result_has_union_all_shape() {
        let (engine, t) = setup();
        let w = Workload::new("r", &t, &["a", "c"], &[vec!["a"], vec!["a", "c"]]).unwrap();
        let mut session = Session::builder().engine(engine).build().unwrap();
        let out = session.grouping_sets(&w).unwrap();
        // columns: a, c, cnt, grp_tag — with NULL-padded c for the (a) rows
        assert_eq!(out.table.num_columns(), 4);
        let tags = tag_counts(&out.table);
        assert_eq!(tags.len(), 2);
        let a_rows = tags.iter().find(|(t, _)| t == "a").unwrap().1;
        assert_eq!(a_rows, 3);
        // the (a)-tagged rows have NULL in the c column
        let c_col = out.table.schema().index_of("c").unwrap();
        let tag_col = out.table.schema().index_of("grp_tag").unwrap();
        for r in 0..out.table.num_rows() {
            if out.table.value(r, tag_col) == Value::str("a") {
                assert!(out.table.value(r, c_col).is_null());
            }
        }
    }

    #[test]
    fn selection_pushdown_via_run_filter() {
        use gbmqo_exec::Predicate;
        let (engine, _) = setup();
        let mut session = Session::builder().engine(engine).build().unwrap();
        // §5.1.1: push the selection below GROUPING SETS by materializing
        // the filtered relation once.
        let r = session.engine().catalog().table("r").unwrap();
        let c_from_2 = Predicate::Ge("c".into(), Value::Int(2));
        let ctx = &mut gbmqo_exec::QueryCtx::default();
        let rows = session.engine().run_filter(r, Some(&c_from_2), &[], ctx);
        let filtered = r.gather(&rows.unwrap().expect("c >= 2 drops rows"));
        assert!(filtered.num_rows() < 120);
        session
            .register_table("r_filtered", filtered.clone())
            .unwrap();
        let w = Workload::single_columns("r_filtered", &filtered, &["a", "c"]).unwrap();
        let out = session.grouping_sets(&w).unwrap();
        // counts reflect only the filtered rows
        let cnt_col = out.table.schema().index_of("cnt").unwrap();
        let tag_col = out.table.schema().index_of("grp_tag").unwrap();
        let total_a: i64 = (0..out.table.num_rows())
            .filter(|&r| out.table.value(r, tag_col) == Value::str("a"))
            .map(|r| out.table.value(r, cnt_col).as_int().unwrap())
            .sum();
        assert_eq!(total_a as usize, filtered.num_rows());
    }
}
