//! The correctness check: replies against a deliberately plain reference.
//!
//! The reference is the paper's naive plan — one Group By per requested
//! set, straight off the base table — on a separate client-side session
//! with no plan cache, no aggregate cache and no shards. It shares nothing
//! with the serving path beyond the kernel.

use crate::script::{Kind, Op, STATEMENTS};
use gbmqo_core::prelude::*;
use gbmqo_exec::AggSpec;
use gbmqo_storage::{Table, Value};

/// One reply: `(set tag, rows)` per grouping set.
pub type Reply = Vec<(String, Table)>;

/// The reference evaluator over one table state.
pub struct Reference {
    kind: Kind,
    table: Table,
    session: Session,
}

impl Reference {
    /// A reference over `table` (the base, or the base plus appends).
    pub fn new(kind: Kind, table: Table) -> Reference {
        let session = Session::builder()
            .mode(ExecutionMode::ClientSide)
            .plan_cache(0)
            .table(kind.table(), table.clone())
            .build()
            .expect("reference session builds");
        Reference {
            kind,
            table,
            session,
        }
    }

    /// The naive plan's answer to `op`.
    pub fn answer(&mut self, op: &Op) -> Reply {
        let sets = op.sets();
        let mut universe: Vec<&str> = Vec::new();
        for col in sets.iter().flatten() {
            if !universe.contains(col) {
                universe.push(col);
            }
        }
        let aggregates = match op {
            Op::Sql(i) => STATEMENTS[*i].aggregates(),
            _ => vec![AggSpec::count()],
        };
        let workload = Workload::new(self.kind.table(), &self.table, &universe, &sets)
            .expect("scripted sets name table columns")
            .with_aggregates(aggregates);
        let plan = LogicalPlan::naive(&workload);
        let report = self
            .session
            .run_plan(&plan, &workload)
            .expect("naive plan executes");
        report
            .results
            .into_iter()
            .map(|(set, table)| (workload.col_names(set).join(","), table))
            .collect()
    }
}

/// A table as a sorted list of rows, columns ordered by name, so two
/// tables with the same cells compare equal whatever their row and
/// column order.
fn canonical(table: &Table) -> (Vec<String>, Vec<Vec<Value>>) {
    let mut order: Vec<usize> = (0..table.num_columns()).collect();
    order.sort_by(|a, b| {
        table
            .schema()
            .field(*a)
            .name
            .cmp(&table.schema().field(*b).name)
    });
    let names = order
        .iter()
        .map(|c| table.schema().field(*c).name.clone())
        .collect();
    let columns: Vec<Vec<Value>> = order
        .iter()
        .map(|c| table.column(*c).iter_values().collect())
        .collect();
    let mut rows: Vec<Vec<Value>> = (0..table.num_rows())
        .map(|r| columns.iter().map(|col| col[r].clone()).collect())
        .collect();
    rows.sort();
    (names, rows)
}

/// A set tag with its columns sorted: the wire tags SQL results in
/// statement order and workload results in universe order.
fn canonical_tag(tag: &str) -> String {
    let mut cols: Vec<&str> = tag.split(',').collect();
    cols.sort_unstable();
    cols.join(",")
}

/// Compare a reply with the reference cell for cell, order-insensitively.
/// `Err` names the first difference.
pub fn compare(got: &Reply, want: &Reply) -> std::result::Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} result sets, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for (tag, expected) in want {
        let key = canonical_tag(tag);
        let Some((_, table)) = got.iter().find(|(t, _)| canonical_tag(t) == key) else {
            return Err(format!("no result set for ({tag})"));
        };
        if table.num_rows() != expected.num_rows() {
            return Err(format!(
                "set ({tag}): {} rows, reference has {}",
                table.num_rows(),
                expected.num_rows()
            ));
        }
        if canonical(table) != canonical(expected) {
            return Err(format!("set ({tag}): cells differ from the reference"));
        }
    }
    Ok(())
}
