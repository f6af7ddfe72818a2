//! Workloads: the input `S = {s1..sn}` of the GB-MQO problem (§3.3).

use crate::colset::ColSet;
use crate::error::{CoreError, Result};
use gbmqo_exec::{AggSpec, Predicate};
use gbmqo_storage::Table;

/// One dimension of a star join: `fact.fact_key = table.dim_key`, with
/// an optional selection over the dimension. The dimension key must be a
/// key of the rows the selection keeps, so the join keeps each fact row
/// at most once: it is a semi-join, a selection of the fact.
#[derive(Debug, Clone, PartialEq)]
pub struct StarDim {
    /// Dimension table name.
    pub table: String,
    /// Join key column on the fact side.
    pub fact_key: String,
    /// Join key column on the dimension side.
    pub dim_key: String,
    /// ANDed WHERE conjuncts over this dimension's columns.
    pub filter: Option<Predicate>,
}

/// A GB-MQO problem instance: a base relation, the universe of columns the
/// requests draw from, and the requested Group By queries.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Catalog name of the table the base relation `R` selects from.
    pub table: String,
    /// The selection that makes `R` from `table` (a statement's WHERE),
    /// together with `joins`: `R` is `σ(table)`, or the whole table when
    /// both are empty.
    pub filter: Option<Predicate>,
    /// The star joins of a statement: `R` keeps the rows of `table`
    /// whose `fact_key` each dimension holds (see [`StarDim`]).
    pub joins: Vec<StarDim>,
    /// Universe column names; bit `i` of every [`ColSet`] refers to
    /// `column_names[i]`.
    pub column_names: Vec<String>,
    /// Base-table schema ordinal for each universe column.
    pub base_ordinals: Vec<usize>,
    /// The requested Group By queries (deduplicated, non-empty).
    pub requests: Vec<ColSet>,
    /// Aggregates every query computes (§7.2 extension; the paper's core
    /// setting is a single `COUNT(*)`). Merged nodes carry the union of
    /// aggregates so every descendant can be re-aggregated from them.
    pub aggregates: Vec<AggSpec>,
}

impl Workload {
    /// Build a workload with explicit requests, given as lists of column
    /// names drawn from `universe`.
    pub fn new(
        table_name: &str,
        table: &Table,
        universe: &[&str],
        requests: &[Vec<&str>],
    ) -> Result<Self> {
        let base_ordinals = universe
            .iter()
            .map(|n| table.schema().index_of(n))
            .collect::<gbmqo_storage::Result<Vec<_>>>()
            .map_err(CoreError::Storage)?;
        let column_names: Vec<String> = universe.iter().map(|s| s.to_string()).collect();
        let mut sets: Vec<ColSet> = Vec::new();
        for req in requests {
            if req.is_empty() {
                return Err(CoreError::InvalidWorkload(
                    "empty grouping set requested".to_string(),
                ));
            }
            let mut s = ColSet::EMPTY;
            for name in req {
                let bit = column_names.iter().position(|n| n == name).ok_or_else(|| {
                    CoreError::InvalidWorkload(format!(
                        "requested column {name} not in the workload universe"
                    ))
                })?;
                s = s.insert(bit);
            }
            if !sets.contains(&s) {
                sets.push(s);
            }
        }
        if sets.is_empty() {
            return Err(CoreError::InvalidWorkload("no queries requested".into()));
        }
        Ok(Workload {
            table: table_name.to_string(),
            filter: None,
            joins: Vec::new(),
            column_names,
            base_ordinals,
            requests: sets,
            aggregates: vec![AggSpec::count()],
        })
    }

    /// The paper's SC workload: one single-column Group By per universe
    /// column.
    pub fn single_columns(table_name: &str, table: &Table, universe: &[&str]) -> Result<Self> {
        let requests: Vec<Vec<&str>> = universe.iter().map(|c| vec![*c]).collect();
        Workload::new(table_name, table, universe, &requests)
    }

    /// The paper's TC workload: one Group By per unordered pair of
    /// universe columns.
    pub fn two_columns(table_name: &str, table: &Table, universe: &[&str]) -> Result<Self> {
        let mut requests: Vec<Vec<&str>> = Vec::new();
        for i in 0..universe.len() {
            for j in i + 1..universe.len() {
                requests.push(vec![universe[i], universe[j]]);
            }
        }
        Workload::new(table_name, table, universe, &requests)
    }

    /// The Combi-operator workload (the syntactic extension of the
    /// paper's related work \[15\] that it calls "useful for the kinds of
    /// data analysis scenarios presented in this paper"): **all** subsets
    /// of the universe of size 1..=`k`.
    pub fn up_to_k_columns(
        table_name: &str,
        table: &Table,
        universe: &[&str],
        k: usize,
    ) -> Result<Self> {
        if k == 0 || k > universe.len() {
            return Err(CoreError::InvalidWorkload(format!(
                "subset size {k} out of range 1..={}",
                universe.len()
            )));
        }
        if universe.len() > 20 {
            return Err(CoreError::InvalidWorkload(
                "combi workloads over more than 20 columns are intractable".to_string(),
            ));
        }
        let mut requests: Vec<Vec<&str>> = Vec::new();
        let n = universe.len();
        for mask in 1u32..(1 << n) {
            let size = mask.count_ones() as usize;
            if size <= k {
                requests.push(
                    (0..n)
                        .filter(|b| mask >> b & 1 == 1)
                        .map(|b| universe[b])
                        .collect(),
                );
            }
        }
        Workload::new(table_name, table, universe, &requests)
    }

    /// Replace the aggregate list (§7.2).
    pub fn with_aggregates(mut self, aggregates: Vec<AggSpec>) -> Self {
        self.aggregates = aggregates;
        self
    }

    /// Group the rows of the table that `filter` selects.
    pub fn with_filter(mut self, filter: Option<Predicate>) -> Self {
        self.filter = filter;
        self
    }

    /// Number of requested queries.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if there are no requests (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Map a column set to base-table schema ordinals (ascending bit
    /// order).
    pub fn base_cols(&self, set: ColSet) -> Vec<usize> {
        set.iter().map(|b| self.base_ordinals[b]).collect()
    }

    /// Map a column set to universe column names.
    pub fn col_names(&self, set: ColSet) -> Vec<&str> {
        set.iter().map(|b| self.column_names[b].as_str()).collect()
    }

    /// [`Workload::col_names`], owned.
    pub(crate) fn col_strings(&self, set: ColSet) -> Vec<String> {
        set.iter().map(|b| self.column_names[b].clone()).collect()
    }

    /// True if all requests are pairwise disjoint (the common
    /// data-analysis case the paper highlights, e.g. SC workloads).
    pub fn is_non_overlapping(&self) -> bool {
        for i in 0..self.requests.len() {
            for j in i + 1..self.requests.len() {
                if !self.requests[i].is_disjoint(self.requests[j]) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{Column, DataType, Field, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Int64),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_i64(vec![1]),
                Column::from_i64(vec![2]),
                Column::from_i64(vec![3]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn explicit_requests_resolve_and_dedup() {
        let t = table();
        let w = Workload::new(
            "r",
            &t,
            &["a", "b", "c"],
            &[vec!["a"], vec!["b", "a"], vec!["a", "b"], vec!["c"]],
        )
        .unwrap();
        assert_eq!(w.len(), 3); // (a), (a,b), (c)
        assert_eq!(w.col_names(w.requests[1]), vec!["a", "b"]);
        assert_eq!(w.base_cols(w.requests[2]), vec![2]);
    }

    #[test]
    fn sc_and_tc_builders() {
        let t = table();
        let sc = Workload::single_columns("r", &t, &["a", "b", "c"]).unwrap();
        assert_eq!(sc.len(), 3);
        assert!(sc.is_non_overlapping());
        let tc = Workload::two_columns("r", &t, &["a", "b", "c"]).unwrap();
        assert_eq!(tc.len(), 3); // ab, ac, bc
        assert!(!tc.is_non_overlapping());
    }

    #[test]
    fn universe_subset_of_table() {
        let t = table();
        let w = Workload::single_columns("r", &t, &["c", "a"]).unwrap();
        // bit 0 = c → base ordinal 2
        assert_eq!(w.base_cols(ColSet::single(0)), vec![2]);
    }

    #[test]
    fn combi_builder_enumerates_subsets() {
        let t = table();
        let w = Workload::up_to_k_columns("r", &t, &["a", "b", "c"], 2).unwrap();
        // C(3,1) + C(3,2) = 3 + 3
        assert_eq!(w.len(), 6);
        let w = Workload::up_to_k_columns("r", &t, &["a", "b", "c"], 3).unwrap();
        assert_eq!(w.len(), 7);
        assert!(Workload::up_to_k_columns("r", &t, &["a"], 0).is_err());
        assert!(Workload::up_to_k_columns("r", &t, &["a"], 2).is_err());
    }

    #[test]
    fn errors_on_bad_input() {
        let t = table();
        assert!(Workload::new("r", &t, &["a"], &[vec![]]).is_err());
        assert!(Workload::new("r", &t, &["a"], &[vec!["zz"]]).is_err());
        assert!(Workload::new("r", &t, &["zz"], &[vec!["zz"]]).is_err());
        assert!(Workload::new("r", &t, &["a"], &[]).is_err());
    }
}
