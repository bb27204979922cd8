//! Scalar expressions and predicates.
//!
//! Expressions are shared between the SQL front end, the storage layer's
//! predicate index (ClockScan indexes *query predicates* instead of data,
//! Section 4.4) and the shared operators. They support prepared-statement
//! parameters (`?`), which is how SharedDB models workloads: the TPC-W
//! implementation is "about thirty different JDBC PreparedStatements executed
//! with different parameter settings" (Section 2).

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinaryOp {
    /// True for comparison operators that yield booleans.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// Mirror of a comparison: `a op b` is equivalent to `b op.flip() a`.
    pub fn flip(self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            other => other,
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Logical NOT.
    Not,
    /// Numeric negation.
    Neg,
    /// `IS NULL`
    IsNull,
    /// `IS NOT NULL`
    IsNotNull,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A column resolved to an index into the input tuple.
    Column(usize),
    /// A column referenced by (optional qualifier, name); must be resolved
    /// against a [`Schema`] before evaluation.
    NamedColumn {
        /// Table name or alias, if written.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// A literal value.
    Literal(Value),
    /// A prepared-statement parameter (`?`), identified by its position.
    Param(usize),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// SQL `LIKE` with `%` and `_` wildcards.
    Like {
        /// The string expression being matched.
        expr: Box<Expr>,
        /// The pattern (typically a literal or parameter).
        pattern: Box<Expr>,
        /// Negation flag for `NOT LIKE`.
        negated: bool,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// The probe expression.
        expr: Box<Expr>,
        /// The candidate list.
        list: Vec<Expr>,
        /// Negation flag for `NOT IN`.
        negated: bool,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        /// The probe expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
    },
}

impl Expr {
    /// Shorthand for a resolved column reference.
    pub fn col(idx: usize) -> Expr {
        Expr::Column(idx)
    }

    /// Shorthand for a named column reference (`"O.DATE"` or `"DATE"`).
    pub fn named(path: &str) -> Expr {
        match path.split_once('.') {
            Some((q, n)) => Expr::NamedColumn {
                qualifier: Some(q.to_ascii_uppercase()),
                name: n.to_ascii_uppercase(),
            },
            None => Expr::NamedColumn {
                qualifier: None,
                name: path.to_ascii_uppercase(),
            },
        }
    }

    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Shorthand for a parameter.
    pub fn param(idx: usize) -> Expr {
        Expr::Param(idx)
    }

    /// Builds `self op other`.
    pub fn binary(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Builds `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Eq, other)
    }
    /// Builds `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Lt, other)
    }
    /// Builds `self <= other`.
    pub fn lt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::LtEq, other)
    }
    /// Builds `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Gt, other)
    }
    /// Builds `self >= other`.
    pub fn gt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::GtEq, other)
    }
    /// Builds `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinaryOp::And, other)
    }
    /// Builds `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Or, other)
    }
    /// Builds `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(self),
        }
    }
    /// Builds `self LIKE pattern`.
    pub fn like(self, pattern: Expr) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: Box::new(pattern),
            negated: false,
        }
    }

    /// Conjunction of a list of predicates; `TRUE` when the list is empty.
    pub fn conjunction(preds: Vec<Expr>) -> Expr {
        let mut iter = preds.into_iter();
        match iter.next() {
            None => Expr::Literal(Value::Bool(true)),
            Some(first) => iter.fold(first, |acc, p| acc.and(p)),
        }
    }

    /// Splits a predicate into its top-level conjuncts.
    pub fn split_conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary {
                    op: BinaryOp::And,
                    left,
                    right,
                } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Resolves all [`Expr::NamedColumn`] references against a schema,
    /// returning a copy that only contains [`Expr::Column`] references.
    pub fn resolve(&self, schema: &Schema) -> Result<Expr> {
        Ok(match self {
            Expr::NamedColumn { qualifier, name } => {
                Expr::Column(schema.resolve(qualifier.as_deref(), name)?)
            }
            Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) => self.clone(),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.resolve(schema)?),
                right: Box::new(right.resolve(schema)?),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.resolve(schema)?),
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.resolve(schema)?),
                pattern: Box::new(pattern.resolve(schema)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.resolve(schema)?),
                list: list
                    .iter()
                    .map(|e| e.resolve(schema))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::Between { expr, low, high } => Expr::Between {
                expr: Box::new(expr.resolve(schema)?),
                low: Box::new(low.resolve(schema)?),
                high: Box::new(high.resolve(schema)?),
            },
        })
    }

    /// Substitutes parameters with concrete values, producing a *bound*
    /// expression. This is what happens when a client executes a prepared
    /// statement with a parameter vector.
    pub fn bind(&self, params: &[Value]) -> Result<Expr> {
        Ok(match self {
            Expr::Param(i) => Expr::Literal(
                params
                    .get(*i)
                    .cloned()
                    .ok_or_else(|| Error::InvalidParameter(format!("missing parameter ${i}")))?,
            ),
            Expr::Column(_) | Expr::NamedColumn { .. } | Expr::Literal(_) => self.clone(),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.bind(params)?),
                right: Box::new(right.bind(params)?),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.bind(params)?),
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.bind(params)?),
                pattern: Box::new(pattern.bind(params)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.bind(params)?),
                list: list.iter().map(|e| e.bind(params)).collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::Between { expr, low, high } => Expr::Between {
                expr: Box::new(expr.bind(params)?),
                low: Box::new(low.bind(params)?),
                high: Box::new(high.bind(params)?),
            },
        })
    }

    /// Returns all column indices referenced by this expression.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Column(i) = e {
                cols.push(*i);
            }
        });
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// True when the expression contains no parameter placeholders.
    pub fn is_bound(&self) -> bool {
        let mut bound = true;
        self.visit(&mut |e| {
            if matches!(e, Expr::Param(_)) {
                bound = false;
            }
        });
        bound
    }

    /// Visits every node of the expression tree.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Unary { expr, .. } => expr.visit(f),
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::Between { expr, low, high } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::Column(_) | Expr::NamedColumn { .. } | Expr::Literal(_) | Expr::Param(_) => {}
        }
    }

    /// If the expression is a simple `column <op> literal` (or the mirrored
    /// `literal <op> column`) comparison, returns `(column, op, literal)`
    /// normalised so the column is on the left. This is the shape the
    /// ClockScan predicate index understands.
    pub fn as_column_literal_cmp(&self) -> Option<(usize, BinaryOp, &Value)> {
        if let Expr::Binary { op, left, right } = self {
            if !op.is_comparison() {
                return None;
            }
            match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) => Some((*c, *op, v)),
                (Expr::Literal(v), Expr::Column(c)) => Some((*c, op.flip(), v)),
                _ => None,
            }
        } else {
            None
        }
    }

    /// Evaluates the expression against a tuple. Operands are borrowed where
    /// they lie (`Expr::operand`): only a value that is computed, and the
    /// result, is ever owned.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value> {
        match self {
            Expr::Column(_) | Expr::Literal(_) => self.operand(tuple).map(Cow::into_owned),
            Expr::NamedColumn { qualifier, name } => Err(Error::Internal(format!(
                "unresolved column reference {}{name}",
                qualifier
                    .as_deref()
                    .map(|q| format!("{q}."))
                    .unwrap_or_default()
            ))),
            Expr::Param(i) => Err(Error::InvalidParameter(format!("unbound parameter ${i}"))),
            Expr::Binary { op, left, right } => {
                eval_binary(*op, &*left.operand(tuple)?, &*right.operand(tuple)?)
            }
            Expr::Unary { op, expr } => {
                let v = expr.operand(tuple)?;
                match op {
                    UnaryOp::Not => match &*v {
                        Value::Null => Ok(Value::Null),
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        other => Err(Error::TypeMismatch {
                            expected: "Bool".into(),
                            found: format!("{other:?}"),
                        }),
                    },
                    UnaryOp::Neg => match &*v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(Error::TypeMismatch {
                            expected: "numeric".into(),
                            found: format!("{other:?}"),
                        }),
                    },
                    UnaryOp::IsNull => Ok(Value::Bool(v.is_null())),
                    UnaryOp::IsNotNull => Ok(Value::Bool(!v.is_null())),
                }
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.operand(tuple)?;
                let p = pattern.operand(tuple)?;
                match (&*v, &*p) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Text(s), Value::Text(pat)) => Ok(Value::Bool(like(s, pat) != *negated)),
                    _ => Err(Error::TypeMismatch {
                        expected: "Text LIKE Text".into(),
                        found: format!("{v:?} LIKE {p:?}"),
                    }),
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.operand(tuple)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut found = false;
                for item in list {
                    if v.sql_eq(&*item.operand(tuple)?) {
                        found = true;
                        break;
                    }
                }
                Ok(Value::Bool(found != *negated))
            }
            Expr::Between { expr, low, high } => {
                let v = expr.operand(tuple)?;
                let lo = low.operand(tuple)?;
                let hi = high.operand(tuple)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        Ok(Value::Bool(a != Ordering::Less && b != Ordering::Greater))
                    }
                    _ => Ok(Value::Null),
                }
            }
        }
    }

    /// The value of this expression as an operand of its parent: a column of
    /// the tuple and a literal (which is what a bound parameter is) are
    /// borrowed where they lie, anything else is computed and owned.
    #[inline]
    fn operand<'a>(&'a self, tuple: &'a Tuple) -> Result<Cow<'a, Value>> {
        match self {
            Expr::Column(i) => tuple
                .get(*i)
                .map(Cow::Borrowed)
                .ok_or_else(|| Error::Internal(format!("column index {i} out of bounds"))),
            Expr::Literal(v) => Ok(Cow::Borrowed(v)),
            computed => computed.eval(tuple).map(Cow::Owned),
        }
    }

    /// Evaluates the expression as a predicate: NULL and FALSE both reject the
    /// tuple (SQL WHERE semantics).
    pub fn eval_predicate(&self, tuple: &Tuple) -> Result<bool> {
        match self.eval(tuple)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(Error::TypeMismatch {
                expected: "Bool".into(),
                found: format!("{other:?}"),
            }),
        }
    }
}

fn eval_binary(op: BinaryOp, left: &Value, right: &Value) -> Result<Value> {
    use BinaryOp::*;
    match op {
        And => match (left, right) {
            (Value::Bool(false), _) | (_, Value::Bool(false)) => Ok(Value::Bool(false)),
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(*a && *b)),
            _ => Err(Error::TypeMismatch {
                expected: "Bool AND Bool".into(),
                found: format!("{left:?} AND {right:?}"),
            }),
        },
        Or => match (left, right) {
            (Value::Bool(true), _) | (_, Value::Bool(true)) => Ok(Value::Bool(true)),
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(*a || *b)),
            _ => Err(Error::TypeMismatch {
                expected: "Bool OR Bool".into(),
                found: format!("{left:?} OR {right:?}"),
            }),
        },
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let cmp = left.sql_cmp(right);
            Ok(match cmp {
                None => Value::Null,
                Some(ord) => Value::Bool(match op {
                    Eq => ord == Ordering::Equal,
                    NotEq => ord != Ordering::Equal,
                    Lt => ord == Ordering::Less,
                    LtEq => ord != Ordering::Greater,
                    Gt => ord == Ordering::Greater,
                    GtEq => ord != Ordering::Less,
                    _ => unreachable!(),
                }),
            })
        }
        Add | Sub | Mul | Div => {
            if left.is_null() || right.is_null() {
                return Ok(Value::Null);
            }
            // Integer arithmetic when both sides are integers, float otherwise.
            match (left, right) {
                (Value::Int(a), Value::Int(b)) => Ok(match op {
                    Add => Value::Int(a.wrapping_add(*b)),
                    Sub => Value::Int(a.wrapping_sub(*b)),
                    Mul => Value::Int(a.wrapping_mul(*b)),
                    Div => {
                        if *b == 0 {
                            Value::Null
                        } else {
                            Value::Int(a / b)
                        }
                    }
                    _ => unreachable!(),
                }),
                _ => {
                    let a = left.as_float()?;
                    let b = right.as_float()?;
                    Ok(match op {
                        Add => Value::Float(a + b),
                        Sub => Value::Float(a - b),
                        Mul => Value::Float(a * b),
                        Div => {
                            if b == 0.0 {
                                Value::Null
                            } else {
                                Value::Float(a / b)
                            }
                        }
                        _ => unreachable!(),
                    })
                }
            }
        }
    }
}

/// SQL `LIKE`: `%` stands for any run of characters (none included), `_` for
/// exactly one *character*, everything else for itself — case-sensitive, as
/// in the TPC-W reference implementation, and with no escape character.
///
/// One loop over the bytes of value and pattern with a single backtrack
/// point, the latest `%`: when the pattern stops matching, the run after that
/// `%` is tried again one character further on — at the next place its first
/// byte occurs, if it starts with a literal — and an earlier `%` is never
/// revisited, because a later start for its run cannot help the runs behind
/// it. Nothing is allocated and nothing recurses: `%x%`, `x%` and `%x` cost
/// about one substring search, and the worst case (a run that keeps almost
/// matching) is `O(|s| · |pattern|)`. Comparing bytes is comparing
/// characters, since both strings are UTF-8 and `%` and `_` are ASCII; only
/// `_` and the backtrack step move by a whole character.
fn like(s: &str, pattern: &str) -> bool {
    // Whenever `p` is on a character boundary of the pattern, `at` is on one
    // of `s`.
    let (s, pattern) = (s.as_bytes(), pattern.as_bytes());
    let char_len = |lead: u8| match lead {
        0x00..=0x7F => 1,
        0x80..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    };
    let (mut at, mut p) = (0, 0);
    // Where the pattern resumes after the latest `%`, and the earliest
    // place in `s` its run has not been tried at yet.
    let mut retry: Option<(usize, usize)> = None;
    while at < s.len() {
        match pattern.get(p) {
            Some(b'%') => {
                p += 1;
                retry = Some((p, at));
            }
            Some(b'_') => {
                at += char_len(s[at]);
                p += 1;
            }
            Some(&literal) if literal == s[at] => {
                at += 1;
                p += 1;
            }
            _ => {
                let Some((run, tried)) = retry else {
                    return false;
                };
                let mut next = tried + char_len(s[tried]);
                if let Some(first) = pattern.get(run).filter(|&&b| b != b'_' && b != b'%') {
                    match s[next..].iter().position(|b| b == first) {
                        Some(skipped) => next += skipped,
                        None => return false,
                    }
                }
                retry = Some((run, next));
                (at, p) = (next, run);
            }
        }
    }
    pattern[p..].iter().all(|&b| b == b'%')
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(i) => write!(f, "#{i}"),
            Expr::NamedColumn { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Param(i) => write!(f, "${i}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Neg => write!(f, "(-{expr})"),
                UnaryOp::IsNull => write!(f, "({expr} IS NULL)"),
                UnaryOp::IsNotNull => write!(f, "({expr} IS NOT NULL)"),
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            Expr::Between { expr, low, high } => write!(f, "({expr} BETWEEN {low} AND {high})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::tuple;
    use proptest::prelude::*;
    use proptest::TestRng;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("ID", crate::DataType::Int).with_qualifier("R"),
            Column::new("NAME", crate::DataType::Text).with_qualifier("R"),
            Column::nullable("PRICE", crate::DataType::Float).with_qualifier("R"),
        ])
    }

    #[test]
    fn comparisons() {
        let t = tuple![5i64, "abc", 10.5f64];
        assert!(Expr::col(0).gt(Expr::lit(3i64)).eval_predicate(&t).unwrap());
        assert!(!Expr::col(0).gt(Expr::lit(5i64)).eval_predicate(&t).unwrap());
        assert!(Expr::col(0)
            .gt_eq(Expr::lit(5i64))
            .eval_predicate(&t)
            .unwrap());
        assert!(Expr::col(1)
            .eq(Expr::lit("abc"))
            .eval_predicate(&t)
            .unwrap());
        assert!(Expr::col(2)
            .lt(Expr::lit(11i64))
            .eval_predicate(&t)
            .unwrap());
    }

    #[test]
    fn null_comparisons_reject() {
        let t = tuple![5i64, "abc"];
        let null_cmp = Expr::col(0).eq(Expr::lit(Value::Null));
        assert_eq!(null_cmp.eval(&t).unwrap(), Value::Null);
        assert!(!null_cmp.eval_predicate(&t).unwrap());
    }

    #[test]
    fn boolean_logic_three_valued() {
        let t = tuple![1i64];
        let tru = Expr::lit(true);
        let fls = Expr::lit(false);
        let nul = Expr::lit(Value::Null);
        assert!(tru.clone().and(tru.clone()).eval_predicate(&t).unwrap());
        assert!(!tru.clone().and(fls.clone()).eval_predicate(&t).unwrap());
        // NULL AND FALSE = FALSE, NULL AND TRUE = NULL.
        assert_eq!(
            nul.clone().and(fls.clone()).eval(&t).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(nul.clone().and(tru.clone()).eval(&t).unwrap(), Value::Null);
        assert_eq!(
            nul.clone().or(tru.clone()).eval(&t).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(nul.clone().or(fls).eval(&t).unwrap(), Value::Null);
        assert_eq!(nul.not().eval(&t).unwrap(), Value::Null);
        assert!(!tru.not().eval_predicate(&t).unwrap());
    }

    #[test]
    fn arithmetic() {
        let t = tuple![7i64, "x", 2.5f64];
        assert_eq!(
            Expr::col(0)
                .binary(BinaryOp::Add, Expr::lit(3i64))
                .eval(&t)
                .unwrap(),
            Value::Int(10)
        );
        assert_eq!(
            Expr::col(0)
                .binary(BinaryOp::Mul, Expr::col(2))
                .eval(&t)
                .unwrap(),
            Value::Float(17.5)
        );
        assert_eq!(
            Expr::col(0)
                .binary(BinaryOp::Div, Expr::lit(0i64))
                .eval(&t)
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            Expr::lit(1i64)
                .binary(BinaryOp::Sub, Expr::lit(Value::Null))
                .eval(&t)
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn like_matching() {
        assert!(like("SharedDB", "Shared%"));
        assert!(like("SharedDB", "%DB"));
        assert!(like("SharedDB", "%are%"));
        assert!(like("SharedDB", "S_aredDB"));
        assert!(like("", "%"));
        assert!(!like("SharedDB", "shared%")); // case sensitive
        assert!(!like("SharedDB", "_"));
        assert!(like("a%b", "a\u{25}b")); // literal percent matches itself via %
                                          // The last segment is anchored at the end, the ones before it are not.
        assert!(like("abcabc", "%b_"));
        assert!(!like("abcabc", "%b"));
        assert!(like("abcabc", "a%c"));
        assert!(!like("abc", "abc_%"));
        assert!(like("aXbXc", "%X_X%"));
    }

    /// `_` is one character, however many bytes it takes.
    #[test]
    fn like_underscore_is_one_character() {
        assert!(like("é", "_"));
        assert!(!like("é", "__"));
        assert!(like("日本", "_本"));
        assert!(like("日本語", "%_語"));
        assert!(!like("日", "_%_"));
    }

    /// A pattern of many `%` against one value that almost matches: the
    /// recursive matcher this one replaced tried every split of the value at
    /// every `%` and did not return.
    #[test]
    fn like_with_many_wildcards_is_not_exponential() {
        let title = tuple!["a".repeat(64)];
        let almost = Expr::col(0).like(Expr::lit(format!("{}b", "%a".repeat(12))));
        let started = std::time::Instant::now();
        assert!(!almost.eval_predicate(&title).unwrap());
        assert!(
            started.elapsed() < std::time::Duration::from_millis(50),
            "{:?}",
            started.elapsed()
        );
    }

    #[test]
    fn like_expression_and_negation() {
        let t = tuple![1i64, "THE TITLE OF A BOOK"];
        let e = Expr::col(1).like(Expr::lit("%TITLE%"));
        assert!(e.eval_predicate(&t).unwrap());
        let ne = Expr::Like {
            expr: Box::new(Expr::col(1)),
            pattern: Box::new(Expr::lit("%TITLE%")),
            negated: true,
        };
        assert!(!ne.eval_predicate(&t).unwrap());
    }

    #[test]
    fn in_list_and_between() {
        let t = tuple![5i64];
        let e = Expr::InList {
            expr: Box::new(Expr::col(0)),
            list: vec![Expr::lit(1i64), Expr::lit(5i64)],
            negated: false,
        };
        assert!(e.eval_predicate(&t).unwrap());
        let e = Expr::Between {
            expr: Box::new(Expr::col(0)),
            low: Box::new(Expr::lit(1i64)),
            high: Box::new(Expr::lit(5i64)),
        };
        assert!(e.eval_predicate(&t).unwrap());
        let e = Expr::Between {
            expr: Box::new(Expr::col(0)),
            low: Box::new(Expr::lit(6i64)),
            high: Box::new(Expr::lit(9i64)),
        };
        assert!(!e.eval_predicate(&t).unwrap());
    }

    #[test]
    fn is_null_checks() {
        let t = tuple![Value::Null, Value::Int(1)];
        let isnull = Expr::Unary {
            op: UnaryOp::IsNull,
            expr: Box::new(Expr::col(0)),
        };
        assert!(isnull.eval_predicate(&t).unwrap());
        let notnull = Expr::Unary {
            op: UnaryOp::IsNotNull,
            expr: Box::new(Expr::col(1)),
        };
        assert!(notnull.eval_predicate(&t).unwrap());
    }

    #[test]
    fn bind_parameters() {
        let e = Expr::col(0)
            .eq(Expr::param(0))
            .and(Expr::col(1).like(Expr::param(1)));
        assert!(!e.is_bound());
        let bound = e.bind(&[Value::Int(3), Value::text("%x%")]).unwrap();
        assert!(bound.is_bound());
        assert!(bound.eval_predicate(&tuple![3i64, "axb"]).unwrap());
        assert!(!bound.eval_predicate(&tuple![4i64, "axb"]).unwrap());
        // Missing parameter is an error.
        assert!(e.bind(&[Value::Int(3)]).is_err());
        // Evaluating an unbound parameter is an error.
        assert!(Expr::param(0).eval(&tuple![1i64]).is_err());
    }

    #[test]
    fn resolve_named_columns() {
        let s = schema();
        let e = Expr::named("R.PRICE").gt(Expr::named("ID"));
        let r = e.resolve(&s).unwrap();
        assert_eq!(r, Expr::col(2).gt(Expr::col(0)));
        assert!(Expr::named("MISSING").resolve(&s).is_err());
        // Unresolved named column cannot be evaluated.
        assert!(e.eval(&tuple![1i64, "a", 2.0f64]).is_err());
    }

    #[test]
    fn split_and_rebuild_conjuncts() {
        let e = Expr::col(0)
            .eq(Expr::lit(1i64))
            .and(Expr::col(1).gt(Expr::lit(2i64)))
            .and(Expr::col(2).lt(Expr::lit(3i64)));
        assert_eq!(e.split_conjuncts().len(), 3);
        let rebuilt = Expr::conjunction(e.split_conjuncts().into_iter().cloned().collect());
        assert_eq!(rebuilt, e);
        assert_eq!(Expr::conjunction(vec![]), Expr::Literal(Value::Bool(true)));
    }

    #[test]
    fn column_literal_extraction_normalises() {
        let e = Expr::col(3).gt(Expr::lit(10i64));
        assert_eq!(
            e.as_column_literal_cmp(),
            Some((3, BinaryOp::Gt, &Value::Int(10)))
        );
        let mirrored = Expr::lit(10i64).gt(Expr::col(3));
        assert_eq!(
            mirrored.as_column_literal_cmp(),
            Some((3, BinaryOp::Lt, &Value::Int(10)))
        );
        let not_simple = Expr::col(1).eq(Expr::col(2));
        assert_eq!(not_simple.as_column_literal_cmp(), None);
    }

    #[test]
    fn referenced_columns_are_sorted_unique() {
        let e = Expr::col(3)
            .gt(Expr::col(1))
            .and(Expr::col(3).eq(Expr::lit(1i64)));
        assert_eq!(e.referenced_columns(), vec![1, 3]);
    }

    #[test]
    fn display_renders_sql_like_text() {
        let e = Expr::named("O.DATE").gt(Expr::param(0));
        assert_eq!(e.to_string(), "(O.DATE > $0)");
    }
    // -- the differential properties ----------------------------------------

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (0..n).generate(rng)
    }

    /// The reference matcher: character by character, every split of the
    /// value at every `%` considered, memoised in a table — `matches[i][j]`
    /// says whether `s[i..]` matches `pattern[j..]`.
    fn like_reference(s: &str, pattern: &str) -> bool {
        let (s, p): (Vec<char>, Vec<char>) = (s.chars().collect(), pattern.chars().collect());
        let mut matches = vec![vec![false; p.len() + 1]; s.len() + 1];
        for i in (0..=s.len()).rev() {
            for j in (0..=p.len()).rev() {
                matches[i][j] = match p.get(j) {
                    None => i == s.len(),
                    Some('%') => matches[i][j + 1] || (i < s.len() && matches[i + 1][j]),
                    Some(&c) => i < s.len() && (c == '_' || c == s[i]) && matches[i + 1][j + 1],
                };
            }
        }
        matches[0][0]
    }

    /// Three ASCII letters, one character of two bytes, one of three.
    const ALPHABET: [&str; 5] = ["a", "b", "c", "é", "日"];

    fn letters(rng: &mut TestRng, at_most: usize) -> String {
        (0..pick(rng, at_most + 1))
            .map(|_| ALPHABET[pick(rng, ALPHABET.len())])
            .collect()
    }

    /// Literals, `_`, `%` and `%%` in any order — so also patterns of
    /// wildcards only, with wildcards at either end, and the empty one.
    fn like_pattern(rng: &mut TestRng) -> String {
        (0..pick(rng, 7))
            .map(|_| match pick(rng, 8) {
                0 | 1 => "%",
                2 => "%%",
                3 | 4 => "_",
                _ => ALPHABET[pick(rng, ALPHABET.len())],
            })
            .collect()
    }

    #[derive(Debug)]
    struct LikeCase {
        value: Value,
        pattern: Value,
        negated: bool,
    }

    struct LikeCases;

    impl Strategy for LikeCases {
        type Value = LikeCase;
        fn generate(&self, rng: &mut TestRng) -> LikeCase {
            let or_null = |rng: &mut TestRng, text: String| match pick(rng, 12) {
                0 => Value::Null,
                _ => Value::text(text),
            };
            let value = letters(rng, 8);
            let pattern = like_pattern(rng);
            LikeCase {
                value: or_null(rng, value),
                pattern: or_null(rng, pattern),
                negated: pick(rng, 4) == 0,
            }
        }
    }

    /// What `Expr::eval` did before operands were borrowed: every operand
    /// evaluated into a value of its own, cloned out of the tuple or the
    /// tree. Kept as the reference of `borrowed_eval_equals_owned_eval`.
    fn owned_eval(expr: &Expr, tuple: &Tuple) -> Result<Value> {
        match expr {
            Expr::Column(i) => tuple
                .get(*i)
                .cloned()
                .ok_or_else(|| Error::Internal(format!("column index {i} out of bounds"))),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::NamedColumn { .. } | Expr::Param(_) => expr.eval(tuple),
            Expr::Binary { op, left, right } => {
                eval_binary(*op, &owned_eval(left, tuple)?, &owned_eval(right, tuple)?)
            }
            Expr::Unary { op, expr } => {
                let v = owned_eval(expr, tuple)?;
                match op {
                    UnaryOp::Not => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        other => Err(Error::TypeMismatch {
                            expected: "Bool".into(),
                            found: format!("{other:?}"),
                        }),
                    },
                    UnaryOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(Error::TypeMismatch {
                            expected: "numeric".into(),
                            found: format!("{other:?}"),
                        }),
                    },
                    UnaryOp::IsNull => Ok(Value::Bool(v.is_null())),
                    UnaryOp::IsNotNull => Ok(Value::Bool(!v.is_null())),
                }
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = owned_eval(expr, tuple)?;
                let p = owned_eval(pattern, tuple)?;
                match (&v, &p) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Text(s), Value::Text(pat)) => {
                        let m = like_reference(s, pat);
                        Ok(Value::Bool(if *negated { !m } else { m }))
                    }
                    _ => Err(Error::TypeMismatch {
                        expected: "Text LIKE Text".into(),
                        found: format!("{v:?} LIKE {p:?}"),
                    }),
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = owned_eval(expr, tuple)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut found = false;
                for item in list {
                    let iv = owned_eval(item, tuple)?;
                    if v.sql_eq(&iv) {
                        found = true;
                        break;
                    }
                }
                Ok(Value::Bool(if *negated { !found } else { found }))
            }
            Expr::Between { expr, low, high } => {
                let v = owned_eval(expr, tuple)?;
                let lo = owned_eval(low, tuple)?;
                let hi = owned_eval(high, tuple)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        Ok(Value::Bool(a != Ordering::Less && b != Ordering::Greater))
                    }
                    _ => Ok(Value::Null),
                }
            }
        }
    }

    /// A value of any family, NULL among them, from a domain small enough
    /// for comparisons to come out every way.
    fn any_value(rng: &mut TestRng) -> Value {
        let n = pick(rng, 4) as i64 - 1;
        match pick(rng, 8) {
            0 => Value::Null,
            1 => Value::Int(n),
            2 => Value::Float(n as f64 + 0.5),
            3 => Value::Float(n as f64),
            4 => Value::Date(n),
            5 => Value::Bool(n > 0),
            6 => Value::text(like_pattern(rng)),
            _ => Value::text(letters(rng, 3)),
        }
    }

    const COLUMNS: usize = 4;

    fn any_expr(rng: &mut TestRng, depth: usize) -> Expr {
        const OPS: [BinaryOp; 12] = [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
            BinaryOp::And,
            BinaryOp::Or,
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
        ];
        const UNARY: [UnaryOp; 4] = [
            UnaryOp::Not,
            UnaryOp::Neg,
            UnaryOp::IsNull,
            UnaryOp::IsNotNull,
        ];
        let leaf = depth == 0 || pick(rng, 3) == 0;
        let sub = |rng: &mut TestRng| Box::new(any_expr(rng, depth.saturating_sub(1)));
        match (leaf, pick(rng, 16)) {
            // One column past the end, an unbound parameter and an unresolved
            // name: the operands that fail to evaluate.
            (true, 0) => Expr::param(0),
            (true, 1) => Expr::named("T.MISSING"),
            (true, 2..=9) => Expr::col(pick(rng, COLUMNS + 1)),
            (true, _) => Expr::Literal(any_value(rng)),
            (false, 0..=6) => Expr::Binary {
                op: OPS[pick(rng, OPS.len())],
                left: sub(rng),
                right: sub(rng),
            },
            (false, 7..=9) => Expr::Unary {
                op: UNARY[pick(rng, UNARY.len())],
                expr: sub(rng),
            },
            (false, 10 | 11) => Expr::Like {
                expr: sub(rng),
                pattern: sub(rng),
                negated: pick(rng, 2) == 0,
            },
            (false, 12 | 13) => Expr::InList {
                expr: sub(rng),
                list: (0..pick(rng, 4)).map(|_| *sub(rng)).collect(),
                negated: pick(rng, 2) == 0,
            },
            (false, _) => Expr::Between {
                expr: sub(rng),
                low: sub(rng),
                high: sub(rng),
            },
        }
    }

    #[derive(Debug)]
    struct EvalCase {
        expr: Expr,
        rows: Vec<Tuple>,
    }

    struct EvalCases;

    impl Strategy for EvalCases {
        type Value = EvalCase;
        fn generate(&self, rng: &mut TestRng) -> EvalCase {
            let row =
                |rng: &mut TestRng| Tuple::new((0..COLUMNS).map(|_| any_value(rng)).collect());
            EvalCase {
                expr: any_expr(rng, 3),
                rows: (0..1 + pick(rng, 4)).map(|_| row(rng)).collect(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The matcher is the reference — through `Expr::eval`, so with NULL
        /// on either side and NOT LIKE as well.
        #[test]
        fn like_equals_reference(case in LikeCases) {
            let expr = Expr::Like {
                expr: Box::new(Expr::col(0)),
                pattern: Box::new(Expr::Literal(case.pattern.clone())),
                negated: case.negated,
            };
            let expected = match (&case.value, &case.pattern) {
                (Value::Text(s), Value::Text(p)) => Value::Bool(like_reference(s, p) != case.negated),
                _ => Value::Null,
            };
            let got = expr.eval(&Tuple::new(vec![case.value.clone()])).unwrap();
            prop_assert!(
                format!("{got:?}") == format!("{expected:?}"),
                "{got:?}, the reference {expected:?}, in {case:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Borrowing an operand never changes what an expression evaluates
        /// to: the same value, spelled the same, or the same error.
        #[test]
        fn borrowed_eval_equals_owned_eval(case in EvalCases) {
            for row in &case.rows {
                let (got, expected) = (case.expr.eval(row), owned_eval(&case.expr, row));
                prop_assert!(
                    format!("{got:?}") == format!("{expected:?}"),
                    "{row}: {got:?}, owned {expected:?}\nin {case:#?}"
                );
            }
        }
    }
}
