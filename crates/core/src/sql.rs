//! SQL-script rendering — the client-side implementation of §5.2.
//!
//! Any logical plan can be executed against a stock SQL DBMS by issuing
//! one statement per plan edge: intermediates become
//! `SELECT … INTO tmp`, queries over intermediates replace `COUNT(*)`
//! with `SUM(cnt)`, and temp tables are dropped as soon as all their
//! children are computed.

use crate::colset::ColSet;
use crate::executor::temp_name;
use crate::plan::{LogicalPlan, NodeKind};
use crate::schedule::{schedule_plan, Step};
use crate::workload::Workload;

/// SQL keywords that force quoting when used as an identifier. Covers
/// everything the rendered scripts themselves use plus the usual
/// query-clause words a grouping column is likely to collide with.
const SQL_KEYWORDS: &[&str] = &[
    "all", "and", "as", "asc", "by", "count", "cross", "cube", "desc", "distinct", "drop", "from",
    "group", "grouping", "having", "inner", "into", "join", "left", "limit", "max", "min", "not",
    "null", "on", "or", "order", "outer", "right", "rollup", "select", "sets", "sum", "table",
    "union", "where",
];

/// Quote `name` for use as a SQL identifier when necessary: plain
/// lower-case identifiers that are not keywords render bare; anything
/// else is double-quoted with embedded `"` doubled.
pub fn quote_sql_ident(name: &str) -> String {
    let mut chars = name.chars();
    let plain = matches!(chars.next(), Some('a'..='z' | '_'))
        && chars.all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_'))
        && !SQL_KEYWORDS.contains(&name);
    if plain {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

/// Render `plan` as an ordered SQL script (one statement per entry).
pub fn render_sql(plan: &LogicalPlan, workload: &Workload) -> Vec<String> {
    let mut d = |_: ColSet| 1.0;
    let steps = schedule_plan(plan, &mut d);
    steps
        .iter()
        .map(|s| match s {
            Step::Drop(cols) => format!("DROP TABLE {};", temp_name(*cols)),
            Step::Query(edge) => {
                let cols = workload
                    .col_names(edge.target)
                    .iter()
                    .map(|c| quote_sql_ident(c))
                    .collect::<Vec<_>>()
                    .join(", ");
                let (from, agg) = match edge.source {
                    None => (quote_sql_ident(&workload.table), "COUNT(*)".to_string()),
                    Some(s) => (temp_name(s), "SUM(cnt)".to_string()),
                };
                let into = match edge.materialize {
                    true => format!(" INTO {}", temp_name(edge.target)),
                    false => String::new(),
                };
                let grouping = match edge.kind {
                    NodeKind::GroupBy => format!("GROUP BY {cols}"),
                    NodeKind::Rollup => format!("GROUP BY ROLLUP ({cols})"),
                    NodeKind::Cube => format!("GROUP BY CUBE ({cols})"),
                };
                format!("SELECT {cols}, {agg} AS cnt{into} FROM {from} {grouping};")
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SubNode;
    use gbmqo_storage::{Column, DataType, Field, Schema, Table};

    fn workload() -> Workload {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![Column::from_i64(vec![1]), Column::from_i64(vec![2])],
        )
        .unwrap();
        Workload::single_columns("lineitem", &t, &["a", "b"]).unwrap()
    }

    #[test]
    fn naive_plan_renders_plain_queries() {
        let w = workload();
        let sql = render_sql(&LogicalPlan::naive(&w), &w);
        assert_eq!(sql.len(), 2);
        assert_eq!(
            sql[0],
            "SELECT a, COUNT(*) AS cnt FROM lineitem GROUP BY a;"
        );
    }

    #[test]
    fn merged_plan_renders_into_sum_cnt_and_drop() {
        let w = workload();
        let plan = LogicalPlan {
            subplans: vec![SubNode::internal(
                ColSet::from_cols([0, 1]),
                vec![
                    SubNode::leaf(ColSet::single(0)),
                    SubNode::leaf(ColSet::single(1)),
                ],
            )],
        };
        let sql = render_sql(&plan, &w);
        assert_eq!(sql.len(), 4);
        assert!(sql[0].contains("INTO"));
        assert!(sql[0].contains("COUNT(*)"));
        assert!(sql[1].contains("SUM(cnt)"), "{}", sql[1]);
        assert!(sql.iter().any(|s| s.starts_with("DROP TABLE")));
        // drop comes only after both children are computed
        let drop_pos = sql.iter().position(|s| s.starts_with("DROP")).unwrap();
        assert!(drop_pos >= 3 || sql[..drop_pos].iter().filter(|s| s.contains("SUM")).count() == 2);
    }

    #[test]
    fn rollup_node_renders_rollup_syntax() {
        let w = workload();
        let plan = LogicalPlan {
            subplans: vec![SubNode {
                cols: ColSet::from_cols([0, 1]),
                required: true,
                kind: NodeKind::Rollup,
                children: vec![SubNode::leaf(ColSet::single(0))],
            }],
        };
        let w2 = Workload::new(
            "lineitem",
            &Table::new(
                Schema::new(vec![
                    Field::new("a", DataType::Int64),
                    Field::new("b", DataType::Int64),
                ])
                .unwrap(),
                vec![Column::from_i64(vec![1]), Column::from_i64(vec![2])],
            )
            .unwrap(),
            &["a", "b"],
            &[vec!["a"], vec!["a", "b"]],
        )
        .unwrap();
        drop(w);
        let sql = render_sql(&plan, &w2);
        assert!(sql[0].contains("GROUP BY ROLLUP"), "{}", sql[0]);
    }

    #[test]
    fn keyword_identifiers_are_quoted() {
        // Columns named after SQL keywords (and mixed-case names) must be
        // quoted; plain names must stay bare.
        let schema = Schema::new(vec![
            Field::new("order", DataType::Int64),
            Field::new("Group", DataType::Int64),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![Column::from_i64(vec![1]), Column::from_i64(vec![2])],
        )
        .unwrap();
        let w = Workload::single_columns("select", &t, &["order", "Group"]).unwrap();
        let sql = render_sql(&LogicalPlan::naive(&w), &w);
        assert_eq!(
            sql[0],
            "SELECT \"order\", COUNT(*) AS cnt FROM \"select\" GROUP BY \"order\";"
        );
        assert_eq!(
            sql[1],
            "SELECT \"Group\", COUNT(*) AS cnt FROM \"select\" GROUP BY \"Group\";"
        );
    }

    #[test]
    fn quote_sql_ident_rules() {
        assert_eq!(quote_sql_ident("lineitem"), "lineitem");
        assert_eq!(quote_sql_ident("l_returnflag"), "l_returnflag");
        assert_eq!(quote_sql_ident("from"), "\"from\"");
        assert_eq!(quote_sql_ident("Cap"), "\"Cap\"");
        assert_eq!(quote_sql_ident("1col"), "\"1col\"");
        assert_eq!(quote_sql_ident("odd name"), "\"odd name\"");
        assert_eq!(quote_sql_ident("has\"quote"), "\"has\"\"quote\"");
    }
}
