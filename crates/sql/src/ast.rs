//! Abstract syntax tree of the supported SQL subset.
//!
//! Scalar expressions reuse [`shareddb_common::Expr`] (with
//! `Expr::NamedColumn` references and positional `Expr::Param` parameters), so
//! that parsed predicates can be bound and evaluated by the rest of the
//! system without conversion.

use shareddb_common::agg::AggregateFunction;
use shareddb_common::Expr;

/// Qualifier marking a placeholder reference to an aggregate output inside a
/// scalar expression (HAVING, ORDER BY). The placeholder's column *name* is
/// the decimal index into [`SelectStatement::agg_refs`]; the compiler maps it
/// to the matching output column of the shared group-by operator. `$` cannot
/// appear in a real SQL identifier, so the marker can never collide with a
/// table alias.
pub const AGG_REF_QUALIFIER: &str = "$AGG";

/// A table reference in a FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name (upper-cased).
    pub name: String,
    /// Optional alias (upper-cased).
    pub alias: Option<String>,
}

impl TableRef {
    /// The name the table is referred to by in column qualifiers.
    pub fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// A plain expression (usually a column reference).
    Expr(Expr),
    /// An aggregate call, e.g. `SUM(USER_ID)`.
    Aggregate {
        /// The aggregate function.
        function: AggregateFunction,
        /// Argument expression (`COUNT(*)` uses a literal `1`).
        argument: Expr,
    },
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// The ordering expression (usually a column reference).
    pub expr: Expr,
    /// True for DESC.
    pub descending: bool,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStatement {
    /// SELECT DISTINCT?
    pub distinct: bool,
    /// The projection list.
    pub items: Vec<SelectItem>,
    /// FROM tables (comma joins; join predicates live in WHERE, as in the
    /// paper's example queries).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderByItem>,
    /// LIMIT row count.
    pub limit: Option<usize>,
    /// Aggregate calls referenced *inside expressions* (HAVING, ORDER BY),
    /// in placeholder order: `HAVING SUM(QTY) > ?` parses the aggregate into
    /// this list and leaves an [`AGG_REF_QUALIFIER`] placeholder column in
    /// the expression tree.
    pub agg_refs: Vec<(AggregateFunction, Expr)>,
}

/// Any parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT.
    Select(SelectStatement),
    /// INSERT INTO t [(cols)] VALUES (...)
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Vec<String>,
        /// Value expressions.
        values: Vec<Expr>,
    },
    /// UPDATE t SET c = e, ... [WHERE ...]
    Update {
        /// Target table.
        table: String,
        /// Assignments (column name, value expression).
        assignments: Vec<(String, Expr)>,
        /// WHERE predicate.
        where_clause: Option<Expr>,
    },
    /// DELETE FROM t [WHERE ...]
    Delete {
        /// Target table.
        table: String,
        /// WHERE predicate.
        where_clause: Option<Expr>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ref_effective_name() {
        let t = TableRef {
            name: "USERS".into(),
            alias: Some("U".into()),
        };
        assert_eq!(t.effective_name(), "U");
        let t = TableRef {
            name: "USERS".into(),
            alias: None,
        };
        assert_eq!(t.effective_name(), "USERS");
    }
}
