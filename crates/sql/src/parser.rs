//! Recursive-descent parser for the supported SQL subset.
//!
//! The subset covers the statements used by the paper's example workloads
//! (Figure 2, Figure 3, and the TPC-W prepared statements): parameterised
//! SELECT with joins in the FROM/WHERE style, GROUP BY/HAVING, ORDER BY,
//! LIMIT and DISTINCT, plus INSERT / UPDATE / DELETE.

use crate::ast::{
    OrderByItem, SelectItem, SelectStatement, Statement, TableRef, AGG_REF_QUALIFIER,
};
use crate::token::{tokenize, Token};
use shareddb_common::agg::AggregateFunction;
use shareddb_common::{BinaryOp, Error, Expr, Result, UnaryOp, Value};

/// Parses one SQL statement.
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        params: 0,
        agg_refs: Vec::new(),
    };
    let statement = parser.statement()?;
    if parser.pos != parser.tokens.len() {
        return Err(Error::Parse(format!(
            "trailing tokens after statement: {:?}",
            &parser.tokens[parser.pos..]
        )));
    }
    // select() drains the aggregate references it owns; anything left came
    // from an INSERT / UPDATE / DELETE expression, where aggregates have no
    // meaning — reject them here instead of leaking a placeholder column
    // into resolution.
    if !parser.agg_refs.is_empty() {
        return Err(Error::Parse(
            "aggregate calls are only allowed in SELECT statements".into(),
        ));
    }
    Ok(statement)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Number of `?` parameters seen so far (assigns positional indices).
    params: usize,
    /// Aggregate calls seen inside scalar expressions (HAVING / ORDER BY),
    /// in placeholder order; moved into the SELECT statement when it closes.
    agg_refs: Vec<(AggregateFunction, Expr)>,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, expected: &Token) -> Result<()> {
        match self.next() {
            Some(t) if t == *expected => Ok(()),
            other => Err(Error::Parse(format!(
                "expected {expected:?}, found {other:?}"
            ))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek().map(|t| t.is_keyword(kw)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn identifier(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s.to_ascii_uppercase()),
            other => Err(Error::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_keyword("SELECT") {
            Ok(Statement::Select(self.select()?))
        } else if self.eat_keyword("INSERT") {
            self.insert()
        } else if self.eat_keyword("UPDATE") {
            self.update()
        } else if self.eat_keyword("DELETE") {
            self.delete()
        } else {
            Err(Error::Parse(format!(
                "expected SELECT/INSERT/UPDATE/DELETE, found {:?}",
                self.peek()
            )))
        }
    }

    fn select(&mut self) -> Result<SelectStatement> {
        let mut stmt = SelectStatement {
            distinct: self.eat_keyword("DISTINCT"),
            ..Default::default()
        };
        // Projection list.
        loop {
            stmt.items.push(self.select_item()?);
            if !matches!(self.peek(), Some(Token::Comma)) {
                break;
            }
            self.pos += 1;
        }
        self.expect_keyword("FROM")?;
        loop {
            let name = self.identifier()?;
            let alias = match self.peek() {
                Some(Token::Ident(s)) if !is_clause_keyword(s) => Some(self.identifier()?),
                _ => None,
            };
            let table = TableRef { name, alias };
            if stmt
                .from
                .iter()
                .any(|t| t.effective_name() == table.effective_name())
            {
                return Err(Error::Parse(format!(
                    "duplicate table alias {} in FROM: each table needs a distinct alias",
                    table.effective_name()
                )));
            }
            stmt.from.push(table);
            if !matches!(self.peek(), Some(Token::Comma)) {
                break;
            }
            self.pos += 1;
        }
        if self.eat_keyword("WHERE") {
            stmt.where_clause = Some(self.expr()?);
        }
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                stmt.group_by.push(self.expr()?);
                if !matches!(self.peek(), Some(Token::Comma)) {
                    break;
                }
                self.pos += 1;
            }
        }
        if self.eat_keyword("HAVING") {
            stmt.having = Some(self.expr()?);
        }
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let descending = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                stmt.order_by.push(OrderByItem { expr, descending });
                if !matches!(self.peek(), Some(Token::Comma)) {
                    break;
                }
                self.pos += 1;
            }
        }
        if self.eat_keyword("LIMIT") {
            match self.next() {
                Some(Token::Number(n)) => {
                    stmt.limit = Some(
                        n.parse()
                            .map_err(|_| Error::Parse(format!("invalid LIMIT value {n}")))?,
                    )
                }
                other => {
                    return Err(Error::Parse(format!(
                        "expected LIMIT count, found {other:?}"
                    )))
                }
            }
        }
        stmt.agg_refs = std::mem::take(&mut self.agg_refs);
        Ok(stmt)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if matches!(self.peek(), Some(Token::Star)) {
            self.pos += 1;
            return Ok(SelectItem::Wildcard);
        }
        // Aggregate call?
        if let Some(Token::Ident(name)) = self.peek() {
            if let Some(function) = AggregateFunction::from_name(name) {
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    self.pos += 2;
                    let argument = if matches!(self.peek(), Some(Token::Star)) {
                        self.pos += 1;
                        Expr::lit(1i64)
                    } else {
                        self.expr()?
                    };
                    self.expect(&Token::RParen)?;
                    return Ok(SelectItem::Aggregate { function, argument });
                }
            }
        }
        Ok(SelectItem::Expr(self.expr()?))
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword("INTO")?;
        let table = self.identifier()?;
        let mut columns = Vec::new();
        if matches!(self.peek(), Some(Token::LParen)) {
            self.pos += 1;
            loop {
                columns.push(self.identifier()?);
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        self.expect_keyword("VALUES")?;
        self.expect(&Token::LParen)?;
        let mut values = Vec::new();
        loop {
            values.push(self.expr()?);
            if matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::Insert {
            table,
            columns,
            values,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.identifier()?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let column = self.identifier()?;
            self.expect(&Token::Eq)?;
            let value = self.expr()?;
            assignments.push((column, value));
            if matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            where_clause,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_keyword("FROM")?;
        let table = self.identifier()?;
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            where_clause,
        })
    }

    // ---- expressions --------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("OR") {
            let right = self.and_expr()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("AND") {
            let right = self.not_expr()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword("NOT") {
            Ok(self.not_expr()?.not())
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::Unary {
                op: if negated {
                    UnaryOp::IsNotNull
                } else {
                    UnaryOp::IsNull
                },
                expr: Box::new(left),
            });
        }
        let negated = self.eat_keyword("NOT");
        if self.eat_keyword("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_keyword("IN") {
            self.expect(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_keyword("BETWEEN") {
            let low = self.additive()?;
            self.expect_keyword("AND")?;
            let high = self.additive()?;
            let between = Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
            };
            return Ok(if negated { between.not() } else { between });
        }
        if negated {
            return Err(Error::Parse("dangling NOT".into()));
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinaryOp::Eq),
            Some(Token::NotEq) => Some(BinaryOp::NotEq),
            Some(Token::Lt) => Some(BinaryOp::Lt),
            Some(Token::LtEq) => Some(BinaryOp::LtEq),
            Some(Token::Gt) => Some(BinaryOp::Gt),
            Some(Token::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(left.binary(op, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = left.binary(op, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.primary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.primary()?;
            left = left.binary(op, right);
        }
        Ok(left)
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Token::Param) => {
                let idx = self.params;
                self.params += 1;
                Ok(Expr::param(idx))
            }
            Some(Token::Number(n)) => {
                if n.contains('.') {
                    Ok(Expr::lit(n.parse::<f64>().map_err(|_| {
                        Error::Parse(format!("invalid number {n}"))
                    })?))
                } else {
                    Ok(Expr::lit(n.parse::<i64>().map_err(|_| {
                        Error::Parse(format!("invalid number {n}"))
                    })?))
                }
            }
            Some(Token::StringLit(s)) => Ok(Expr::lit(Value::text(s))),
            Some(Token::Minus) => {
                let inner = self.primary()?;
                Ok(Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(inner),
                })
            }
            Some(Token::LParen) => {
                let inner = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Ident(name)) => {
                if name.eq_ignore_ascii_case("TRUE") {
                    return Ok(Expr::lit(true));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    return Ok(Expr::lit(false));
                }
                if name.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Literal(Value::Null));
                }
                // Aggregate call inside HAVING / ORDER BY, e.g.
                // `HAVING SUM(QTY) > 1`: the (function, argument) pair is
                // recorded on the statement and the expression keeps a
                // placeholder column; the compiler maps it to the matching
                // output column of the shared group-by operator (appending a
                // hidden aggregate when the SELECT list does not compute it).
                if let Some(function) = AggregateFunction::from_name(&name) {
                    if matches!(self.peek(), Some(Token::LParen)) {
                        self.pos += 1; // consume '('
                        let argument = if matches!(self.peek(), Some(Token::Star)) {
                            self.pos += 1;
                            Expr::lit(1i64)
                        } else {
                            self.expr()?
                        };
                        self.expect(&Token::RParen)?;
                        let idx = self.agg_refs.len();
                        self.agg_refs.push((function, argument));
                        return Ok(Expr::NamedColumn {
                            qualifier: Some(AGG_REF_QUALIFIER.to_string()),
                            name: idx.to_string(),
                        });
                    }
                }
                // Qualified column reference?
                if matches!(self.peek(), Some(Token::Dot)) {
                    self.pos += 1;
                    let column = self.identifier()?;
                    Ok(Expr::NamedColumn {
                        qualifier: Some(name.to_ascii_uppercase()),
                        name: column,
                    })
                } else {
                    Ok(Expr::NamedColumn {
                        qualifier: None,
                        name: name.to_ascii_uppercase(),
                    })
                }
            }
            other => Err(Error::Parse(format!("unexpected token {other:?}"))),
        }
    }
}

fn is_clause_keyword(word: &str) -> bool {
    const CLAUSES: [&str; 12] = [
        "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "FROM", "ON", "AND", "OR", "SET", "VALUES",
        "INTO",
    ];
    CLAUSES.iter().any(|c| word.eq_ignore_ascii_case(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_figure2_q1_group_by() {
        // Q1 of Figure 2.
        let stmt = parse("SELECT COUNTRY, SUM(USER_ID) FROM USERS GROUP BY COUNTRY").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.items.len(), 2);
        assert!(matches!(s.items[1], SelectItem::Aggregate { .. }));
        assert_eq!(s.from[0].name, "USERS");
        assert_eq!(s.group_by.len(), 1);
    }

    #[test]
    fn parse_negative_and_escaped_literals() {
        // `-5` parses as unary negation over the literal.
        let stmt = parse("SELECT * FROM USERS WHERE ACCOUNT < -5").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let predicate = s.where_clause.unwrap();
        let mut found_neg = false;
        predicate.visit(&mut |e| {
            if let Expr::Unary { op, expr } = e {
                assert!(matches!(op, shareddb_common::expr::UnaryOp::Neg));
                assert!(matches!(**expr, Expr::Literal(Value::Int(5))));
                found_neg = true;
            }
        });
        assert!(found_neg, "no unary negation in {predicate:?}");

        // Escaped quotes inside string literals survive into the AST.
        let stmt = parse("INSERT INTO USERS VALUES (-1, 'O''Brien')").unwrap();
        let Statement::Insert { values, .. } = stmt else {
            panic!()
        };
        let mut found_text = false;
        for value in &values {
            value.visit(&mut |e| {
                if let Expr::Literal(Value::Text(s)) = e {
                    assert_eq!(&**s, "O'Brien");
                    found_text = true;
                }
            });
        }
        assert!(found_text, "no string literal in {values:?}");
    }

    #[test]
    fn parse_figure2_q2_join_with_params() {
        let stmt = parse(
            "SELECT * FROM USERS U, ORDERS O \
             WHERE U.USER_ID = O.USER_ID AND U.USERNAME = ? AND O.STATUS = 'OK'",
        )
        .unwrap();
        let Statement::Select(s) = stmt.clone() else {
            panic!()
        };
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[0].alias.as_deref(), Some("U"));
        assert_eq!(stmt.parameter_count(), 1);
        let w = s.where_clause.unwrap();
        assert_eq!(w.split_conjuncts().len(), 3);
    }

    #[test]
    fn parse_figure2_q4_order_by() {
        let stmt = parse(
            "SELECT * FROM ORDERS O, ITEMS I \
             WHERE O.ITEM_ID = I.ITEM_ID AND O.DATE > ? ORDER BY I.PRICE",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.order_by.len(), 1);
        assert!(!s.order_by[0].descending);
    }

    #[test]
    fn parse_best_sellers_like_query() {
        let stmt = parse(
            "SELECT I.I_ID, I.I_TITLE, SUM(OL.OL_QTY) FROM ITEM I, ORDER_LINE OL \
             WHERE I.I_ID = OL.OL_I_ID AND I.I_SUBJECT = ? AND OL.OL_O_ID >= ? \
             GROUP BY I.I_ID, I.I_TITLE HAVING SUM(OL.OL_QTY) > 1 \
             ORDER BY 3 DESC LIMIT 50",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.group_by.len(), 2);
        assert!(s.having.is_some());
        assert_eq!(s.limit, Some(50));
        assert!(s.order_by[0].descending);
    }

    #[test]
    fn parse_like_between_in_distinct() {
        let stmt = parse(
            "SELECT DISTINCT NAME FROM ITEM WHERE TITLE LIKE ? AND COST BETWEEN 1 AND 10 \
             AND SUBJECT IN ('ARTS', 'HISTORY') AND STOCK IS NOT NULL ORDER BY NAME DESC",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert!(s.distinct);
        let w = s.where_clause.unwrap();
        assert_eq!(w.split_conjuncts().len(), 4);
    }

    #[test]
    fn parse_insert_update_delete() {
        let insert =
            parse("INSERT INTO ORDERS (O_ID, O_C_ID, O_TOTAL) VALUES (?, ?, 12.5)").unwrap();
        match insert {
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                assert_eq!(table, "ORDERS");
                assert_eq!(columns.len(), 3);
                assert_eq!(values.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        let update =
            parse("UPDATE ITEM SET I_COST = ?, I_STOCK = I_STOCK - 1 WHERE I_ID = ?").unwrap();
        match &update {
            Statement::Update { assignments, .. } => assert_eq!(assignments.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(update.parameter_count(), 2);
        let delete = parse("DELETE FROM SHOPPING_CART_LINE WHERE SCL_SC_ID = ?").unwrap();
        assert!(matches!(delete, Statement::Delete { .. }));
    }

    #[test]
    fn parameters_are_numbered_in_order() {
        let stmt = parse("SELECT * FROM T WHERE A = ? AND B = ? AND C = ?").unwrap();
        assert_eq!(stmt.parameter_count(), 3);
        let Statement::Select(s) = stmt else { panic!() };
        let conjuncts = s.where_clause.as_ref().unwrap().split_conjuncts().len();
        assert_eq!(conjuncts, 3);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("SELEC * FROM T").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM T WHERE").is_err());
        assert!(parse("INSERT INTO T VALUES (1").is_err());
        assert!(parse("SELECT * FROM T LIMIT abc").is_err());
        assert!(parse("SELECT * FROM T extra garbage ,").is_err());
    }

    #[test]
    fn having_and_order_by_aggregates_parse_to_placeholders() {
        let stmt = parse(
            "SELECT COUNTRY, SUM(ACCOUNT) FROM USERS GROUP BY COUNTRY \
             HAVING SUM(ACCOUNT) > ? ORDER BY COUNT(*) DESC",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.agg_refs.len(), 2);
        assert_eq!(s.agg_refs[0].0, AggregateFunction::Sum);
        assert_eq!(s.agg_refs[1].0, AggregateFunction::Count);
        let mut placeholders = 0;
        s.having.as_ref().unwrap().visit(&mut |e| {
            if let Expr::NamedColumn {
                qualifier: Some(q), ..
            } = e
            {
                if q == crate::ast::AGG_REF_QUALIFIER {
                    placeholders += 1;
                }
            }
        });
        assert_eq!(placeholders, 1);
    }

    #[test]
    fn aggregates_outside_select_are_rejected() {
        assert!(parse("UPDATE T SET A = 1 WHERE COUNT(*) > 1").is_err());
        assert!(parse("DELETE FROM T WHERE SUM(A) > 2").is_err());
        assert!(parse("INSERT INTO T VALUES (MAX(B))").is_err());
    }

    #[test]
    fn duplicate_from_aliases_are_a_parse_error() {
        assert!(parse("SELECT * FROM T, T").is_err());
        assert!(parse("SELECT * FROM A X, B X").is_err());
        // Distinct aliases of one base table are fine (self-join).
        assert!(parse("SELECT * FROM T A, T B WHERE A.X = B.Y").is_ok());
    }

    #[test]
    fn not_and_parentheses() {
        let stmt = parse("SELECT * FROM T WHERE NOT (A = 1 OR B = 2) AND C > -3").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert!(s.where_clause.is_some());
    }
}
