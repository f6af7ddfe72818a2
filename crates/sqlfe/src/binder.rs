//! Name resolution against the catalog (with real error spans) and
//! grouping-set expansion.
//!
//! The binder turns a parsed [`Query`] into a [`BoundQuery`]: every
//! column resolved to the fact or a dimension table, grouping specs
//! expanded into explicit column-name sets, literals converted to typed
//! [`Value`]s, and per-table filter predicates assembled. Everything the
//! lowering pass consumes is validated here, so lowering itself cannot
//! fail on user input.

use crate::ast::*;
use crate::error::{Result, Span, SqlError, SqlErrorKind};
use gbmqo_core::StarDim;
use gbmqo_exec::{AggSpec, Predicate};
use gbmqo_storage::{Catalog, DataType, Schema, Value};

/// Widest CUBE the front end will expand (2^k − 1 grouping sets).
pub const MAX_CUBE_COLUMNS: usize = 10;

/// A fully resolved query, ready for lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundQuery {
    /// Fact table name.
    pub fact: String,
    /// Dimension joins in statement order.
    pub dims: Vec<StarDim>,
    /// Expanded grouping sets as fact column names (each non-empty,
    /// deduplicated, order-preserving).
    pub sets: Vec<Vec<String>>,
    /// The aggregates every grouping set computes.
    pub aggregates: Vec<AggSpec>,
    /// ANDed WHERE conjuncts over fact columns.
    pub fact_filter: Option<Predicate>,
}

/// Where a column reference landed.
enum Resolved {
    Fact(String),
    Dim(usize, String),
}

struct Binder<'a> {
    catalog: &'a Catalog,
    fact: String,
    fact_schema: Schema,
    dims: Vec<(String, Schema)>,
}

/// Bind `query` against `catalog`.
pub fn bind(query: &Query, catalog: &Catalog) -> Result<BoundQuery> {
    let fact = query.from.name.clone();
    let fact_schema = schema_of(catalog, &query.from)?;

    let mut b = Binder {
        catalog,
        fact,
        fact_schema,
        dims: Vec::new(),
    };

    // Joins first: later clauses may reference dimension columns.
    let mut bound_dims = Vec::new();
    for join in &query.joins {
        bound_dims.push(b.bind_join(join)?);
    }

    let sets = expand_groups(&query.group, &|col| b.grouping_column(col))?;
    let aggregates = b.bind_select(&query.select, &sets)?;

    // WHERE conjuncts, split by the table they constrain.
    let mut fact_preds: Vec<Predicate> = Vec::new();
    let mut dim_preds: Vec<Vec<Predicate>> = vec![Vec::new(); bound_dims.len()];
    for pred in &query.predicates {
        let (target, p) = b.bind_predicate(pred)?;
        match target {
            Resolved::Fact(_) => fact_preds.push(p),
            Resolved::Dim(i, _) => dim_preds[i].push(p),
        }
    }
    for (dim, preds) in bound_dims.iter_mut().zip(dim_preds) {
        dim.filter = conjoin(preds);
    }

    Ok(BoundQuery {
        fact: b.fact,
        dims: bound_dims,
        sets,
        aggregates,
        fact_filter: conjoin(fact_preds),
    })
}

fn conjoin(mut preds: Vec<Predicate>) -> Option<Predicate> {
    let first = if preds.is_empty() {
        return None;
    } else {
        preds.remove(0)
    };
    Some(preds.into_iter().fold(first, |acc, p| acc.and(p)))
}

fn schema_of(catalog: &Catalog, table: &Ident) -> Result<Schema> {
    catalog
        .table(&table.name)
        .map(|t| t.schema().clone())
        .map_err(|_| {
            SqlError::new(
                SqlErrorKind::Unresolved,
                format!("unknown table `{}`", table.name),
                table.span,
            )
        })
}

impl Binder<'_> {
    /// Resolve a column reference to the fact table or one of the bound
    /// dimensions. Unqualified names prefer the fact table.
    fn resolve(&self, col: &ColumnRef) -> Result<Resolved> {
        let name = &col.column.name;
        if let Some(qualifier) = &col.table {
            if qualifier.name == self.fact {
                return self.require_fact_column(col);
            }
            if let Some(i) = self.dims.iter().position(|(t, _)| *t == qualifier.name) {
                return self.require_dim_column(i, col);
            }
            return Err(SqlError::new(
                SqlErrorKind::Unresolved,
                format!(
                    "unknown table `{}` (not the FROM table or a joined dimension)",
                    qualifier.name
                ),
                qualifier.span,
            ));
        }
        if self.fact_schema.index_of(name).is_ok() {
            return Ok(Resolved::Fact(name.clone()));
        }
        for (i, (_, schema)) in self.dims.iter().enumerate() {
            if schema.index_of(name).is_ok() {
                return Ok(Resolved::Dim(i, name.clone()));
            }
        }
        Err(SqlError::new(
            SqlErrorKind::Unresolved,
            format!("unknown column `{name}`"),
            col.span(),
        ))
    }

    fn require_fact_column(&self, col: &ColumnRef) -> Result<Resolved> {
        let name = &col.column.name;
        self.fact_schema.index_of(name).map_err(|_| {
            SqlError::new(
                SqlErrorKind::Unresolved,
                format!("unknown column `{name}` in table `{}`", self.fact),
                col.span(),
            )
        })?;
        Ok(Resolved::Fact(name.clone()))
    }

    fn require_dim_column(&self, dim: usize, col: &ColumnRef) -> Result<Resolved> {
        let name = &col.column.name;
        let (table, schema) = &self.dims[dim];
        schema.index_of(name).map_err(|_| {
            SqlError::new(
                SqlErrorKind::Unresolved,
                format!("unknown column `{name}` in table `{table}`"),
                col.span(),
            )
        })?;
        Ok(Resolved::Dim(dim, name.clone()))
    }

    fn bind_join(&mut self, join: &Join) -> Result<StarDim> {
        let dim_schema = schema_of(self.catalog, &join.table)?;
        self.dims.push((join.table.name.clone(), dim_schema));
        let dim_idx = self.dims.len() - 1;

        let mut fact_key = None;
        let mut dim_key = None;
        for side in [&join.left, &join.right] {
            // Resolve against the fact and *this* dimension only; using
            // an earlier dimension's column in a join condition is not
            // the star shape we lower.
            let resolved = match &side.table {
                Some(q) if q.name == self.fact => self.require_fact_column(side)?,
                Some(q) if q.name == join.table.name => self.require_dim_column(dim_idx, side)?,
                Some(q) => {
                    return Err(SqlError::new(
                        SqlErrorKind::Bind,
                        format!(
                            "join condition must reference `{}` and `{}`, not `{}`",
                            self.fact, join.table.name, q.name
                        ),
                        q.span,
                    ))
                }
                None => {
                    if self.fact_schema.index_of(&side.column.name).is_ok() {
                        Resolved::Fact(side.column.name.clone())
                    } else if self.dims[dim_idx].1.index_of(&side.column.name).is_ok() {
                        Resolved::Dim(dim_idx, side.column.name.clone())
                    } else {
                        return Err(SqlError::new(
                            SqlErrorKind::Unresolved,
                            format!(
                                "unknown column `{}` in `{}` or `{}`",
                                side.column.name, self.fact, join.table.name
                            ),
                            side.span(),
                        ));
                    }
                }
            };
            match resolved {
                Resolved::Fact(name) => fact_key = Some(name),
                Resolved::Dim(_, name) => dim_key = Some(name),
            }
        }
        match (fact_key, dim_key) {
            (Some(fact_key), Some(dim_key)) => Ok(StarDim {
                table: join.table.name.clone(),
                fact_key,
                dim_key,
                filter: None,
            }),
            _ => Err(SqlError::new(
                SqlErrorKind::Bind,
                format!(
                    "join condition must equate one `{}` column with one `{}` column",
                    self.fact, join.table.name
                ),
                join.left.span().to(join.right.span()),
            )),
        }
    }

    /// A grouping column must live on the fact side: then a join on a
    /// dimension key adds no column and only selects fact rows (a
    /// semi-join). Dimension-side grouping is reported as unsupported
    /// rather than unresolved.
    fn grouping_column(&self, col: &ColumnRef) -> Result<String> {
        match self.resolve(col)? {
            Resolved::Fact(name) => Ok(name),
            Resolved::Dim(_, name) => Err(SqlError::new(
                SqlErrorKind::Unsupported,
                format!(
                    "grouping by dimension column `{name}` is not supported; \
                     group by the fact-side join key instead"
                ),
                col.span(),
            )),
        }
    }

    fn bind_select(&self, select: &[SelectItem], sets: &[Vec<String>]) -> Result<Vec<AggSpec>> {
        let mut aggs: Vec<AggSpec> = Vec::new();
        for item in select {
            match item {
                SelectItem::Column(col) => {
                    let name = self.grouping_column(col)?;
                    if !sets.iter().any(|s| s.contains(&name)) {
                        return Err(SqlError::new(
                            SqlErrorKind::Bind,
                            format!("column `{name}` is selected but appears in no grouping set"),
                            col.span(),
                        ));
                    }
                }
                SelectItem::Agg(call) => {
                    let spec = match (call.func, &call.arg) {
                        (AggFuncName::Count, _) => {
                            let output = call.alias.as_ref().map_or("cnt", |a| a.name.as_str());
                            AggSpec {
                                output: output.to_string(),
                                ..AggSpec::count()
                            }
                        }
                        (func, Some(arg)) => {
                            let input = match self.resolve(arg)? {
                                Resolved::Fact(name) => name,
                                Resolved::Dim(_, name) => {
                                    return Err(SqlError::new(
                                        SqlErrorKind::Unsupported,
                                        format!("cannot aggregate dimension column `{name}`"),
                                        arg.span(),
                                    ))
                                }
                            };
                            let default = format!(
                                "{}_{input}",
                                match func {
                                    AggFuncName::Sum => "sum",
                                    AggFuncName::Min => "min",
                                    AggFuncName::Max => "max",
                                    AggFuncName::Count => unreachable!(),
                                }
                            );
                            let output = call.alias.as_ref().map_or(default, |a| a.name.clone());
                            match func {
                                AggFuncName::Sum => AggSpec::sum(&input, &output),
                                AggFuncName::Min => AggSpec::min(&input, &output),
                                AggFuncName::Max => AggSpec::max(&input, &output),
                                AggFuncName::Count => unreachable!(),
                            }
                        }
                        (_, None) => unreachable!("parser guarantees an argument"),
                    };
                    if aggs.iter().any(|a| a.output == spec.output) {
                        return Err(SqlError::new(
                            SqlErrorKind::Bind,
                            format!("duplicate aggregate output name `{}`", spec.output),
                            call.span,
                        ));
                    }
                    aggs.push(spec);
                }
            }
        }
        if aggs.is_empty() {
            // An implicit COUNT(*) AS cnt, the paper's workhorse.
            aggs.push(AggSpec::count());
        }
        Ok(aggs)
    }

    fn bind_predicate(&self, pred: &WherePred) -> Result<(Resolved, Predicate)> {
        let resolved = self.resolve(&pred.col)?;
        let (schema, column) = match &resolved {
            Resolved::Fact(name) => (&self.fact_schema, name.clone()),
            Resolved::Dim(i, name) => (&self.dims[*i].1, name.clone()),
        };
        let dtype = schema.field(schema.index_of(&column).unwrap()).data_type;
        let value = literal_value(&pred.value, dtype, pred.value_span)?;
        let p = match pred.op {
            CmpOp::Eq => Predicate::Eq(column, value),
            CmpOp::Le => Predicate::Le(column, value),
            CmpOp::Ge => Predicate::Ge(column, value),
        };
        Ok((resolved, p))
    }
}

fn column_list(
    cols: &[ColumnRef],
    clause_span: Span,
    column: &dyn Fn(&ColumnRef) -> Result<String>,
) -> Result<Vec<String>> {
    if cols.is_empty() {
        return Err(SqlError::new(
            SqlErrorKind::Unsupported,
            "the grand-total (empty) grouping set is not supported",
            clause_span,
        ));
    }
    let mut out: Vec<String> = Vec::with_capacity(cols.len());
    for c in cols {
        let name = column(c)?;
        if !out.contains(&name) {
            out.push(name);
        }
    }
    Ok(out)
}

/// Expand a GROUP BY spec into explicit, deduplicated column-name sets:
/// CUBE into every non-empty subset, ROLLUP into its non-empty prefixes.
/// `column` names one grouping column (the binder resolves it against
/// the catalog; [`crate::parse_group_spec`] takes it as written).
pub(crate) fn expand_groups(
    group: &GroupSpec,
    column: &dyn Fn(&ColumnRef) -> Result<String>,
) -> Result<Vec<Vec<String>>> {
    let span_of = |cols: &[ColumnRef]| {
        cols.iter()
            .map(ColumnRef::span)
            .reduce(Span::to)
            .unwrap_or_default()
    };
    let sets = match group {
        GroupSpec::Plain(cols) => vec![column_list(cols, span_of(cols), column)?],
        GroupSpec::GroupingSets(sets) => {
            let mut out = Vec::new();
            for set in sets {
                out.push(column_list(set, span_of(set), column)?);
            }
            out
        }
        GroupSpec::Rollup(cols) => {
            let names = column_list(cols, span_of(cols), column)?;
            // Prefixes, longest first, excluding the empty set.
            (1..=names.len())
                .rev()
                .map(|k| names[..k].to_vec())
                .collect()
        }
        GroupSpec::Cube(cols) => {
            let names = column_list(cols, span_of(cols), column)?;
            if names.len() > MAX_CUBE_COLUMNS {
                return Err(SqlError::new(
                    SqlErrorKind::Unsupported,
                    format!(
                        "CUBE over {} columns expands to {} grouping sets; \
                         the limit is {MAX_CUBE_COLUMNS} columns",
                        names.len(),
                        (1u64 << names.len()) - 1
                    ),
                    span_of(cols),
                ));
            }
            // All non-empty subsets, in subset-mask order.
            let n = names.len();
            (1u32..(1 << n))
                .map(|mask| {
                    (0..n)
                        .filter(|b| mask >> b & 1 == 1)
                        .map(|b| names[b].clone())
                        .collect()
                })
                .collect()
        }
    };
    // Deduplicate whole sets (GROUPING SETS may repeat one).
    let mut out: Vec<Vec<String>> = Vec::new();
    for set in sets {
        let mut sorted = set.clone();
        sorted.sort();
        if !out.iter().any(|s| {
            let mut t = s.clone();
            t.sort();
            t == sorted
        }) {
            out.push(set);
        }
    }
    Ok(out)
}

fn literal_value(lit: &Literal, dtype: DataType, span: Span) -> Result<Value> {
    let mismatch = |want: &str| {
        SqlError::new(
            SqlErrorKind::Bind,
            format!("literal type does not match the {want} column"),
            span,
        )
    };
    Ok(match (lit, dtype) {
        (Literal::Int(i), DataType::Int64) => Value::Int(*i),
        (Literal::Int(i), DataType::Float64) => Value::Float(*i as f64),
        (Literal::Int(i), DataType::Date32) => {
            let d = i32::try_from(*i).map_err(|_| mismatch("Date32"))?;
            Value::Date(d)
        }
        (Literal::Float(x), DataType::Float64) => Value::Float(*x),
        (Literal::Str(s), DataType::Utf8) => Value::str(s),
        (Literal::Int(_), DataType::Utf8) | (Literal::Float(_), DataType::Utf8) => {
            return Err(mismatch("Utf8"))
        }
        (Literal::Float(_), _) => return Err(mismatch("integer")),
        (Literal::Str(_), _) => return Err(mismatch("non-string")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use gbmqo_storage::{Column, Field, Table};

    fn catalog() -> Catalog {
        let fact = Table::new(
            Schema::new(vec![
                Field::new("prod_key", DataType::Int64),
                Field::new("store_key", DataType::Int64),
                Field::new("qty", DataType::Int64),
                Field::new("price", DataType::Float64),
            ])
            .unwrap(),
            vec![
                Column::from_i64((0..40).map(|i| i % 4).collect()),
                Column::from_i64((0..40).map(|i| i % 2).collect()),
                Column::from_i64((0..40).map(|i| i % 7).collect()),
                Column::from_f64((0..40).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        let product = Table::new(
            Schema::new(vec![
                Field::new("prod_key", DataType::Int64),
                Field::new("brand", DataType::Utf8),
            ])
            .unwrap(),
            vec![
                Column::from_i64((0..4).collect()),
                Column::from_strs(&(0..4).map(|i| format!("b{i}")).collect::<Vec<_>>()),
            ],
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.register("sales", fact).unwrap();
        cat.register("product", product).unwrap();
        cat
    }

    fn bind_sql(sql: &str) -> Result<BoundQuery> {
        bind(&parse(sql).unwrap(), &catalog())
    }

    #[test]
    fn binds_star_query() {
        let b = bind_sql(
            "SELECT prod_key, COUNT(*) FROM sales \
             JOIN product ON sales.prod_key = product.prod_key \
             WHERE qty <= 3 AND brand = 'b1' \
             GROUP BY GROUPING SETS ((prod_key), (prod_key, store_key))",
        )
        .unwrap();
        assert_eq!(b.fact, "sales");
        assert_eq!(b.dims.len(), 1);
        assert_eq!(b.dims[0].fact_key, "prod_key");
        assert_eq!(b.dims[0].dim_key, "prod_key");
        assert!(b.dims[0].filter.is_some());
        assert!(b.fact_filter.is_some());
        assert_eq!(
            b.sets,
            vec![
                vec!["prod_key".to_string()],
                vec!["prod_key".to_string(), "store_key".to_string()],
            ]
        );
    }

    #[test]
    fn cube_and_rollup_expand() {
        let b = bind_sql("SELECT COUNT(*) FROM sales GROUP BY CUBE (qty, store_key)").unwrap();
        assert_eq!(b.sets.len(), 3);
        let b = bind_sql("SELECT COUNT(*) FROM sales GROUP BY ROLLUP (prod_key, store_key, qty)")
            .unwrap();
        assert_eq!(
            b.sets,
            vec![
                vec![
                    "prod_key".to_string(),
                    "store_key".to_string(),
                    "qty".to_string()
                ],
                vec!["prod_key".to_string(), "store_key".to_string()],
                vec!["prod_key".to_string()],
            ]
        );
    }

    #[test]
    fn unknown_names_are_unresolved_with_spans() {
        for (sql, needle) in [
            ("SELECT COUNT(*) FROM ghost GROUP BY a", "unknown table"),
            (
                "SELECT COUNT(*) FROM sales GROUP BY ghost",
                "unknown column",
            ),
            (
                "SELECT COUNT(*) FROM sales JOIN ghost ON sales.prod_key = ghost.k GROUP BY qty",
                "unknown table",
            ),
            (
                "SELECT COUNT(*) FROM sales WHERE sales.ghost = 1 GROUP BY qty",
                "unknown column",
            ),
        ] {
            let err = bind_sql(sql).unwrap_err();
            assert_eq!(err.kind, SqlErrorKind::Unresolved, "{sql}: {err}");
            assert!(err.message.contains(needle), "{sql}: {err}");
            assert!(err.span.is_some(), "{sql}");
        }
    }

    #[test]
    fn unsupported_shapes_are_reported() {
        for sql in [
            // dimension-side grouping
            "SELECT COUNT(*) FROM sales JOIN product ON sales.prod_key = product.prod_key \
             GROUP BY brand",
            // grand-total set
            "SELECT COUNT(*) FROM sales GROUP BY GROUPING SETS ((), (qty))",
        ] {
            let err = bind_sql(sql).unwrap_err();
            assert_eq!(err.kind, SqlErrorKind::Unsupported, "{sql}: {err}");
        }
    }

    #[test]
    fn aggregates_and_aliases() {
        let b = bind_sql(
            "SELECT qty, COUNT(*) AS n, SUM(price) AS total, MIN(price) \
             FROM sales GROUP BY qty",
        )
        .unwrap();
        assert_eq!(b.aggregates.len(), 3);
        assert_eq!(b.aggregates[0].output, "n");
        assert_eq!(b.aggregates[1], AggSpec::sum("price", "total"));
        assert_eq!(b.aggregates[2], AggSpec::min("price", "min_price"));
        // implicit count when the select list has no aggregate
        let b = bind_sql("SELECT qty FROM sales GROUP BY qty").unwrap();
        assert_eq!(b.aggregates, vec![AggSpec::count()]);
    }

    #[test]
    fn type_mismatch_in_where() {
        let err = bind_sql("SELECT COUNT(*) FROM sales WHERE qty = 'three' GROUP BY qty");
        assert_eq!(err.unwrap_err().kind, SqlErrorKind::Bind);
        let err = bind_sql("SELECT COUNT(*) FROM sales WHERE price = 'x' GROUP BY qty");
        assert_eq!(err.unwrap_err().kind, SqlErrorKind::Bind);
        // int literal against a float column is fine
        bind_sql("SELECT COUNT(*) FROM sales WHERE price >= 3 GROUP BY qty").unwrap();
    }

    #[test]
    fn selected_column_must_be_grouped() {
        let err = bind_sql("SELECT price, COUNT(*) FROM sales GROUP BY qty").unwrap_err();
        assert_eq!(err.kind, SqlErrorKind::Bind);
    }
}
