//! Recursive-descent parser over the token stream.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query     := SELECT select_list FROM ident join*
//!              [WHERE pred (AND pred)*] GROUP BY group_spec [';'] EOF
//! select_list := item (',' item)*
//! item      := agg_call | column_ref
//! agg_call  := COUNT '(' '*' ')' [AS ident]
//!            | (SUM|MIN|MAX) '(' column_ref ')' [AS ident]
//! join      := [INNER] JOIN ident ON column_ref '=' column_ref
//! pred      := column_ref ('='|'<='|'>=') literal
//! group_spec := GROUPING SETS '(' set (',' set)* ')'
//!             | CUBE '(' cols ')' | ROLLUP '(' cols ')' | cols
//! set       := '(' cols ')'
//! cols      := column_ref (',' column_ref)*
//! column_ref := ident ['.' ident]
//! ```

use crate::ast::*;
use crate::error::{Result, Span, SqlError, SqlErrorKind};
use crate::lexer::{lex, Tok, Token};

/// Parse one statement.
pub fn parse(sql: &str) -> Result<Query> {
    let mut p = Parser::new(sql)?;
    let q = p.query()?;
    p.finish()?;
    Ok(q)
}

/// Parse a lone `group_spec`, e.g. `CUBE (a, b)`.
pub(crate) fn parse_group_spec(spec: &str) -> Result<GroupSpec> {
    let mut p = Parser::new(spec)?;
    let group = p.group_spec()?;
    p.finish()?;
    Ok(group)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    end: usize,
}

impl Parser {
    fn new(text: &str) -> Result<Self> {
        Ok(Parser {
            tokens: lex(text)?,
            pos: 0,
            end: text.len(),
        })
    }

    /// An optional `;`, then the end of the input.
    fn finish(&mut self) -> Result<()> {
        if self.peek().is_some_and(|t| t.tok == Tok::Semi) {
            self.bump();
        }
        match self.peek() {
            Some(t) => Err(SqlError::new(
                SqlErrorKind::Parse,
                "unexpected trailing input after the statement",
                t.span,
            )),
            None => Ok(()),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn here(&self) -> Span {
        self.peek()
            .map_or(Span::new(self.end, self.end), |t| t.span)
    }

    fn err(&self, msg: impl Into<String>) -> SqlError {
        SqlError::new(SqlErrorKind::Parse, msg, self.here())
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_keyword(&self, kw: &str) -> bool {
        self.peek()
            .and_then(Token::keyword)
            .is_some_and(|k| k == kw)
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<Span> {
        if self.at_keyword(kw) {
            Ok(self.bump().unwrap().span)
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        let hit = self.at_keyword(kw);
        if hit {
            self.bump();
        }
        hit
    }

    fn expect_tok(&mut self, tok: Tok, what: &str) -> Result<Span> {
        match self.peek() {
            Some(t) if t.tok == tok => Ok(self.bump().unwrap().span),
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    /// An identifier usable as a name (bare, but not a reserved
    /// clause-starting keyword, or quoted).
    fn ident(&mut self, what: &str) -> Result<Ident> {
        match self.peek().cloned() {
            Some(Token {
                tok: Tok::Ident(name),
                span,
            }) => {
                let upper = name.to_ascii_uppercase();
                if RESERVED.contains(&upper.as_str()) {
                    return Err(self.err(format!(
                        "expected {what}, found keyword {upper} (quote it to use as a name)"
                    )));
                }
                self.bump();
                Ok(Ident { name, span })
            }
            Some(Token {
                tok: Tok::QuotedIdent(name),
                span,
            }) => {
                self.bump();
                Ok(Ident { name, span })
            }
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.ident("a column name")?;
        if self.peek().is_some_and(|t| t.tok == Tok::Dot) {
            self.bump();
            let column = self.ident("a column name after `.`")?;
            Ok(ColumnRef {
                table: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
            })
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.expect_keyword("SELECT")?;
        let mut select = vec![self.select_item()?];
        while self.peek().is_some_and(|t| t.tok == Tok::Comma) {
            self.bump();
            select.push(self.select_item()?);
        }
        self.expect_keyword("FROM")?;
        let from = self.ident("a table name")?;

        let mut joins = Vec::new();
        loop {
            let inner = self.at_keyword("INNER");
            if inner {
                self.bump();
                self.expect_keyword("JOIN")?;
            } else if !self.eat_keyword("JOIN") {
                break;
            }
            let table = self.ident("a table name")?;
            self.expect_keyword("ON")?;
            let left = self.column_ref()?;
            self.expect_tok(Tok::Eq, "`=` in the join condition")?;
            let right = self.column_ref()?;
            joins.push(Join { table, left, right });
        }

        let mut predicates = Vec::new();
        if self.eat_keyword("WHERE") {
            predicates.push(self.predicate()?);
            while self.eat_keyword("AND") {
                predicates.push(self.predicate()?);
            }
        }

        self.expect_keyword("GROUP")?;
        self.expect_keyword("BY")?;
        let group = self.group_spec()?;
        Ok(Query {
            select,
            from,
            joins,
            predicates,
            group,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let func = self
            .peek()
            .and_then(Token::keyword)
            .and_then(|k| match k.as_str() {
                "COUNT" => Some(AggFuncName::Count),
                "SUM" => Some(AggFuncName::Sum),
                "MIN" => Some(AggFuncName::Min),
                "MAX" => Some(AggFuncName::Max),
                _ => None,
            });
        // `COUNT(...)` is an aggregate call; a bare `count` column name
        // is still allowed because it is not followed by `(`.
        let is_call = func.is_some()
            && self
                .tokens
                .get(self.pos + 1)
                .is_some_and(|t| t.tok == Tok::LParen);
        if let (Some(func), true) = (func, is_call) {
            let start = self.bump().unwrap().span;
            self.expect_tok(Tok::LParen, "`(`")?;
            let arg = match func {
                AggFuncName::Count => {
                    self.expect_tok(Tok::Star, "`*` (only COUNT(*) is supported)")?;
                    None
                }
                _ => Some(self.column_ref()?),
            };
            let rp = self.expect_tok(Tok::RParen, "`)`")?;
            let mut span = start.to(rp);
            let alias = if self.eat_keyword("AS") {
                let a = self.ident("an alias")?;
                span = span.to(a.span);
                Some(a)
            } else {
                None
            };
            Ok(SelectItem::Agg(AggCall {
                func,
                arg,
                alias,
                span,
            }))
        } else {
            Ok(SelectItem::Column(self.column_ref()?))
        }
    }

    fn predicate(&mut self) -> Result<WherePred> {
        let col = self.column_ref()?;
        let op = match self.peek().map(|t| &t.tok) {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Ge) => CmpOp::Ge,
            _ => return Err(self.err("expected `=`, `<=`, or `>=`")),
        };
        self.bump();
        let (value, value_span) = match self.bump() {
            Some(Token {
                tok: Tok::Int(i),
                span,
            }) => (Literal::Int(i), span),
            Some(Token {
                tok: Tok::Float(x),
                span,
            }) => (Literal::Float(x), span),
            Some(Token {
                tok: Tok::Str(s),
                span,
            }) => (Literal::Str(s), span),
            Some(t) => {
                return Err(SqlError::new(
                    SqlErrorKind::Parse,
                    "expected a literal (integer, float, or 'string')",
                    t.span,
                ))
            }
            None => {
                return Err(SqlError::new(
                    SqlErrorKind::Parse,
                    "expected a literal, found end of input",
                    Span::new(self.end, self.end),
                ))
            }
        };
        Ok(WherePred {
            col,
            op,
            value,
            value_span,
        })
    }

    fn cols(&mut self) -> Result<Vec<ColumnRef>> {
        let mut cols = vec![self.column_ref()?];
        while self.peek().is_some_and(|t| t.tok == Tok::Comma) {
            self.bump();
            cols.push(self.column_ref()?);
        }
        Ok(cols)
    }

    fn paren_cols(&mut self) -> Result<Vec<ColumnRef>> {
        self.expect_tok(Tok::LParen, "`(`")?;
        if self.peek().is_some_and(|t| t.tok == Tok::RParen) {
            // () — the grand-total set; represent as empty and let the
            // binder reject it with a proper span.
            self.bump();
            return Ok(Vec::new());
        }
        let cols = self.cols()?;
        self.expect_tok(Tok::RParen, "`)`")?;
        Ok(cols)
    }

    fn group_spec(&mut self) -> Result<GroupSpec> {
        if self.eat_keyword("GROUPING") {
            self.expect_keyword("SETS")?;
            self.expect_tok(Tok::LParen, "`(`")?;
            let mut sets = vec![self.paren_cols()?];
            while self.peek().is_some_and(|t| t.tok == Tok::Comma) {
                self.bump();
                sets.push(self.paren_cols()?);
            }
            self.expect_tok(Tok::RParen, "`)` closing GROUPING SETS")?;
            Ok(GroupSpec::GroupingSets(sets))
        } else if self.eat_keyword("CUBE") {
            let cols = self.paren_cols()?;
            Ok(GroupSpec::Cube(cols))
        } else if self.eat_keyword("ROLLUP") {
            let cols = self.paren_cols()?;
            Ok(GroupSpec::Rollup(cols))
        } else {
            Ok(GroupSpec::Plain(self.cols()?))
        }
    }
}

/// Keywords that cannot be used as bare names (they start or separate
/// clauses, so accepting them as identifiers would make the grammar
/// ambiguous). Quoting always works.
const RESERVED: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "GROUPING", "SETS", "CUBE", "ROLLUP", "JOIN",
    "INNER", "ON", "AND", "AS",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_shape() {
        let q = parse(
            "SELECT brand, region, COUNT(*) AS cnt FROM sales \
             JOIN product ON sales.prod_key = product.prod_key \
             INNER JOIN store ON sales.store_key = store.store_key \
             WHERE qty <= 5 AND region = 'west' \
             GROUP BY GROUPING SETS ((brand), (brand, region));",
        )
        .unwrap();
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.predicates.len(), 2);
        match &q.group {
            GroupSpec::GroupingSets(sets) => assert_eq!(sets.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn round_trips_through_display() {
        let texts = [
            "SELECT a, COUNT(*) FROM t GROUP BY a",
            "SELECT a, b, COUNT(*) AS n FROM t GROUP BY CUBE (a, b)",
            "SELECT a, SUM(x) AS s FROM t WHERE a = 3 GROUP BY ROLLUP (a, b)",
            "SELECT t.a FROM t JOIN d ON t.k = d.k GROUP BY GROUPING SETS ((t.a), (t.a, t.b))",
            "SELECT \"group\" FROM \"from\" GROUP BY \"group\"",
        ];
        for text in texts {
            let q = parse(text).unwrap();
            let printed = q.to_string();
            let q2 = parse(&printed).unwrap_or_else(|e| panic!("{printed}: {e}"));
            assert_eq!(q.strip_spans(), q2.strip_spans(), "{text}");
        }
    }

    #[test]
    fn count_as_column_name_still_works() {
        let q = parse("SELECT count FROM t GROUP BY count").unwrap();
        assert!(matches!(q.select[0], SelectItem::Column(_)));
    }

    #[test]
    fn malformed_inputs_yield_spanned_parse_errors() {
        let bad = [
            "",
            "SELECT",
            "SELECT FROM t GROUP BY a",
            "SELECT a FROM GROUP BY a",
            "SELECT a FROM t",
            "SELECT a FROM t GROUP a",
            "SELECT a FROM t GROUP BY",
            "SELECT a FROM t GROUP BY GROUPING (a)",
            "SELECT a FROM t GROUP BY CUBE a",
            "SELECT a FROM t JOIN d GROUP BY a",
            "SELECT a FROM t JOIN d ON a GROUP BY a",
            "SELECT COUNT(a) FROM t GROUP BY a",
            "SELECT SUM(*) FROM t GROUP BY a",
            "SELECT a FROM t WHERE GROUP BY a",
            "SELECT a FROM t WHERE a = GROUP BY a",
            "SELECT a FROM t GROUP BY a extra",
            "SELECT a FROM t GROUP BY a; extra",
            "SELECT select FROM t GROUP BY a",
        ];
        for text in bad {
            let err = parse(text).unwrap_err();
            assert!(
                matches!(err.kind, SqlErrorKind::Parse | SqlErrorKind::Lex),
                "{text}: {err}"
            );
        }
    }

    #[test]
    fn empty_grouping_set_is_parsed_not_crashed() {
        // Accepted by the parser; the binder rejects it with a span.
        let q = parse("SELECT COUNT(*) FROM t GROUP BY GROUPING SETS ((), (a))").unwrap();
        match &q.group {
            GroupSpec::GroupingSets(sets) => {
                assert!(sets[0].is_empty());
                assert_eq!(sets[1].len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }
}
