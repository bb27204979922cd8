//! Per-query logical plans with predicate push-down.
//!
//! This is the first step of the two-step compilation of Figure 3: every query
//! is optimised *individually*, pushing selection predicates down to the base
//! tables and extracting the equi-join conditions between tables. The result
//! is a [`LogicalPlan`]: per-table selections, join edges, residual
//! predicates, and the query-level operations (group-by, order-by, limit,
//! distinct).

use crate::ast::{SelectItem, SelectStatement, AGG_REF_QUALIFIER};
use shareddb_common::agg::AggregateFunction;
use shareddb_common::{BinaryOp, Error, Expr, Result};
use std::collections::BTreeMap;

/// An equi-join edge between two tables.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct JoinEdge {
    /// Left table (effective name).
    pub left_table: String,
    /// Column of the left table.
    pub left_column: String,
    /// Right table (effective name).
    pub right_table: String,
    /// Column of the right table.
    pub right_column: String,
}

impl JoinEdge {
    /// Canonical form: table names ordered lexicographically, so that
    /// `R.id = S.id` and `S.id = R.id` produce the same edge.
    pub fn canonical(mut self) -> JoinEdge {
        if self.left_table > self.right_table {
            std::mem::swap(&mut self.left_table, &mut self.right_table);
            std::mem::swap(&mut self.left_column, &mut self.right_column);
        }
        self
    }

    /// The column the edge joins on in `table`, when it is one of its ends.
    pub fn side(&self, table: &str) -> Option<&str> {
        if self.left_table == table {
            Some(&self.left_column)
        } else if self.right_table == table {
            Some(&self.right_column)
        } else {
            None
        }
    }
}

/// The logical plan of one SELECT query after per-query optimisation.
#[derive(Debug, Clone, Default)]
pub struct LogicalPlan {
    /// Tables of the query (effective name -> base table name).
    pub tables: BTreeMap<String, String>,
    /// Selection predicates pushed down to each table (conjunctions).
    pub table_predicates: BTreeMap<String, Vec<Expr>>,
    /// Equi-join edges between tables.
    pub joins: Vec<JoinEdge>,
    /// Predicates that could not be pushed down (reference several tables or
    /// no table at all).
    pub residual: Vec<Expr>,
    /// Grouping expressions.
    pub group_by: Vec<Expr>,
    /// Aggregates of the projection.
    pub aggregates: Vec<(AggregateFunction, Expr)>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// Aggregate calls referenced inside HAVING / ORDER BY expressions
    /// ([`crate::ast::AGG_REF_QUALIFIER`] placeholders), in placeholder
    /// order.
    pub agg_refs: Vec<(AggregateFunction, Expr)>,
    /// ORDER BY keys (expression, descending).
    pub order_by: Vec<(Expr, bool)>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// DISTINCT flag.
    pub distinct: bool,
}

impl LogicalPlan {
    /// Builds the logical plan for one SELECT statement (step 1 of Figure 3:
    /// per-query optimisation with predicate push-down).
    pub fn from_select(select: &SelectStatement) -> Result<LogicalPlan> {
        if select.from.is_empty() {
            return Err(Error::Parse("SELECT without FROM".into()));
        }
        let mut plan = LogicalPlan {
            distinct: select.distinct,
            limit: select.limit,
            group_by: select.group_by.clone(),
            having: select.having.clone(),
            agg_refs: select.agg_refs.clone(),
            order_by: select
                .order_by
                .iter()
                .map(|o| (o.expr.clone(), o.descending))
                .collect(),
            ..Default::default()
        };
        for table in &select.from {
            if plan
                .tables
                .insert(table.effective_name().to_string(), table.name.clone())
                .is_some()
            {
                // The parser rejects this too; the check here covers
                // hand-built ASTs, where a silent overwrite would misattribute
                // every predicate of the shadowed table.
                return Err(Error::Parse(format!(
                    "duplicate table alias {} in FROM: each table needs a distinct alias",
                    table.effective_name()
                )));
            }
            plan.table_predicates
                .insert(table.effective_name().to_string(), Vec::new());
        }
        for item in &select.items {
            if let SelectItem::Aggregate { function, argument } = item {
                plan.aggregates.push((*function, argument.clone()));
            }
        }

        // Classify the WHERE conjuncts.
        if let Some(where_clause) = &select.where_clause {
            let mut has_aggregate = false;
            where_clause.visit(&mut |e| {
                if let Expr::NamedColumn {
                    qualifier: Some(q), ..
                } = e
                {
                    has_aggregate |= q == AGG_REF_QUALIFIER;
                }
            });
            if has_aggregate {
                return Err(Error::Unsupported(
                    "aggregates are not allowed in WHERE; filter groups with HAVING".into(),
                ));
            }
            for conjunct in where_clause.split_conjuncts() {
                match classify(conjunct, &plan) {
                    Classification::Join(edge) => plan.joins.push(edge.canonical()),
                    Classification::Table(table) => plan
                        .table_predicates
                        .get_mut(&table)
                        .expect("classified table exists")
                        .push(conjunct.clone()),
                    Classification::Residual => plan.residual.push(conjunct.clone()),
                }
            }
        }
        plan.joins.sort();
        Ok(plan)
    }

    /// The pushed-down predicate of one table as a single conjunction
    /// (`TRUE` when the query has no predicate on that table).
    pub fn table_predicate(&self, table: &str) -> Expr {
        match self.table_predicates.get(table) {
            Some(preds) if !preds.is_empty() => Expr::conjunction(preds.clone()),
            _ => Expr::lit(true),
        }
    }
}

enum Classification {
    Join(JoinEdge),
    Table(String),
    Residual,
}

/// Resolves which table an expression references: `Some(table)` when exactly
/// one, `None` when zero or several.
fn referenced_table(expr: &Expr, plan: &LogicalPlan) -> Option<String> {
    let mut tables: Vec<String> = Vec::new();
    let single_table = plan.tables.len() == 1;
    let only_table = plan.tables.keys().next().cloned();
    expr.visit(&mut |e| {
        if let Expr::NamedColumn { qualifier, .. } = e {
            match qualifier {
                Some(q) => {
                    if !tables.contains(q) {
                        tables.push(q.clone());
                    }
                }
                None => {
                    // Unqualified references are only attributable when the
                    // query reads a single table.
                    if single_table {
                        if let Some(t) = &only_table {
                            if !tables.contains(t) {
                                tables.push(t.clone());
                            }
                        }
                    } else {
                        tables.push("<ambiguous>".to_string());
                    }
                }
            }
        }
    });
    tables.retain(|t| t != "<ambiguous>" || plan.tables.len() != 1);
    if tables.len() == 1 && plan.tables.contains_key(&tables[0]) {
        Some(tables[0].clone())
    } else {
        None
    }
}

fn classify(conjunct: &Expr, plan: &LogicalPlan) -> Classification {
    // Join edge: qualified column = qualified column over two different tables.
    if let Expr::Binary {
        op: BinaryOp::Eq,
        left,
        right,
    } = conjunct
    {
        if let (
            Expr::NamedColumn {
                qualifier: Some(lq),
                name: ln,
            },
            Expr::NamedColumn {
                qualifier: Some(rq),
                name: rn,
            },
        ) = (left.as_ref(), right.as_ref())
        {
            if lq != rq && plan.tables.contains_key(lq) && plan.tables.contains_key(rq) {
                return Classification::Join(JoinEdge {
                    left_table: lq.clone(),
                    left_column: ln.clone(),
                    right_table: rq.clone(),
                    right_column: rn.clone(),
                });
            }
        }
    }
    match referenced_table(conjunct, plan) {
        Some(table) => Classification::Table(table),
        None => Classification::Residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;

    fn edge(left: (&str, &str), right: (&str, &str)) -> JoinEdge {
        JoinEdge {
            left_table: left.0.into(),
            left_column: left.1.into(),
            right_table: right.0.into(),
            right_column: right.1.into(),
        }
    }

    fn plan_of(sql: &str) -> LogicalPlan {
        match parse(sql).unwrap() {
            Statement::Select(s) => LogicalPlan::from_select(&s).unwrap(),
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn pushdown_on_figure3_query() {
        let plan = plan_of("SELECT * FROM R, S WHERE R.ID = S.ID AND R.CITY = ? AND S.PRICE < ?");
        assert_eq!(plan.joins.len(), 1);
        assert_eq!(plan.joins[0], edge(("R", "ID"), ("S", "ID")));
        assert_eq!(plan.table_predicates["R"].len(), 1);
        assert_eq!(plan.table_predicates["S"].len(), 1);
        assert!(plan.residual.is_empty());
        let pushed: usize = plan.table_predicates.values().map(Vec::len).sum();
        assert_eq!(pushed, 2);
    }

    #[test]
    fn join_edges_are_canonical() {
        let a = plan_of("SELECT * FROM R, S WHERE R.ID = S.ID");
        let b = plan_of("SELECT * FROM R, S WHERE S.ID = R.ID");
        assert_eq!(a.joins, b.joins);
    }

    #[test]
    fn aliases_are_respected() {
        let plan = plan_of(
            "SELECT * FROM USERS U, ORDERS O WHERE U.USER_ID = O.USER_ID AND U.USERNAME = ?",
        );
        assert_eq!(plan.tables["U"], "USERS");
        assert_eq!(plan.tables["O"], "ORDERS");
        assert_eq!(plan.joins[0], edge(("O", "USER_ID"), ("U", "USER_ID")));
        assert_eq!(plan.table_predicates["U"].len(), 1);
    }

    #[test]
    fn single_table_unqualified_predicates_push_down() {
        let plan = plan_of(
            "SELECT * FROM ITEM WHERE I_SUBJECT = ? AND I_COST < 10 ORDER BY I_TITLE LIMIT 50",
        );
        assert_eq!(plan.table_predicates["ITEM"].len(), 2);
        assert_eq!(plan.order_by.len(), 1);
        assert_eq!(plan.limit, Some(50));
        assert_eq!(plan.table_predicate("ITEM").split_conjuncts().len(), 2);
        assert_eq!(plan.table_predicate("MISSING"), Expr::lit(true));
    }

    #[test]
    fn cross_table_disjunction_is_residual() {
        let plan = plan_of("SELECT * FROM R, S WHERE R.ID = S.ID AND (R.A = 1 OR S.B = 2)");
        assert_eq!(plan.joins.len(), 1);
        assert_eq!(plan.residual.len(), 1);
    }

    #[test]
    fn group_by_and_aggregates_are_captured() {
        let plan = plan_of("SELECT COUNTRY, SUM(USER_ID) FROM USERS GROUP BY COUNTRY");
        assert_eq!(plan.group_by.len(), 1);
        assert_eq!(plan.aggregates.len(), 1);
        assert_eq!(plan.aggregates[0].0, AggregateFunction::Sum);
    }

    #[test]
    fn aggregates_in_where_are_rejected() {
        let Statement::Select(s) = parse("SELECT * FROM T WHERE SUM(A) > 1").unwrap() else {
            panic!()
        };
        let err = LogicalPlan::from_select(&s).unwrap_err();
        assert!(err.to_string().contains("HAVING"), "{err}");
    }

    /// Cycle-closing edges classify as join edges like any other; the
    /// compiler decides which span the tree and which turn residual.
    #[test]
    fn cyclic_join_graphs_keep_all_edges() {
        let plan = plan_of("SELECT * FROM R, S, T WHERE R.A = S.A AND S.C = T.C AND T.B = R.B");
        assert_eq!(plan.joins.len(), 3);
        assert!(plan.residual.is_empty());
    }

    #[test]
    fn having_aggregate_refs_are_carried() {
        let plan = plan_of("SELECT COUNTRY FROM USERS GROUP BY COUNTRY HAVING COUNT(*) > 3");
        assert_eq!(plan.agg_refs.len(), 1);
        assert_eq!(plan.agg_refs[0].0, AggregateFunction::Count);
        assert!(plan.having.is_some());
    }
}
