//! A classical per-query executor (Volcano-style, but materialising batches
//! between operators for simplicity).
//!
//! Each query is described by a small [`QueryPlan`] tree and executed in
//! isolation against a snapshot of the shared storage layer. This is the
//! "query-at-a-time" model the paper contrasts with SharedDB's shared
//! execution: predicates are aggressively pushed down per query, each join
//! only sees the tuples of its own query, and nothing is shared between
//! concurrent queries.

use shareddb_common::agg::AggregateFunction;
use shareddb_common::sort::compare_tuples;
use shareddb_common::SortKey;
use shareddb_common::{Error, Expr, Result, Tuple, Value};
use shareddb_storage::mvcc::Snapshot;
use shareddb_storage::{AccessPath, Catalog, UpdateOp};
use std::collections::HashMap;
use std::ops::Bound;

/// A per-query execution plan.
#[derive(Debug, Clone)]
pub enum QueryPlan {
    /// Table scan with an optional pushed-down predicate, read through an
    /// index when the bound predicate names one ([`AccessPath::choose`]).
    Scan {
        /// Table name.
        table: String,
        /// Selection predicate (may contain parameters).
        predicate: Option<Expr>,
    },
    /// Index (or primary-key) look-up.
    IndexLookup {
        /// Table name.
        table: String,
        /// Indexed column.
        column: usize,
        /// Key expression (parameter or literal).
        key: Expr,
        /// Residual predicate on fetched rows.
        residual: Option<Expr>,
    },
    /// Index range scan.
    IndexRange {
        /// Table name.
        table: String,
        /// Indexed column.
        column: usize,
        /// Lower bound expression and inclusive flag.
        low: Option<(Expr, bool)>,
        /// Upper bound expression and inclusive flag.
        high: Option<(Expr, bool)>,
        /// Residual predicate on fetched rows.
        residual: Option<Expr>,
    },
    /// Filter over an input.
    Filter {
        /// Input plan.
        input: Box<QueryPlan>,
        /// Predicate.
        predicate: Expr,
    },
    /// In-memory hash join.
    HashJoin {
        /// Build side.
        build: Box<QueryPlan>,
        /// Probe side.
        probe: Box<QueryPlan>,
        /// Join column in the build output.
        build_key: usize,
        /// Join column in the probe output.
        probe_key: usize,
    },
    /// Nested-loops join probing the inner table through an index for every
    /// outer row (the classical OLTP join).
    IndexNlJoin {
        /// Outer input.
        outer: Box<QueryPlan>,
        /// Inner table.
        table: String,
        /// Join column in the outer output.
        outer_key: usize,
        /// Indexed column of the inner table.
        inner_column: usize,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Box<QueryPlan>,
        /// Sort keys.
        keys: Vec<SortKey>,
    },
    /// Group-by with aggregates.
    GroupBy {
        /// Input plan.
        input: Box<QueryPlan>,
        /// Grouping columns.
        group_columns: Vec<usize>,
        /// `(function, input column)` aggregates.
        aggregates: Vec<(AggregateFunction, usize)>,
        /// Optional HAVING predicate over the output row.
        having: Option<Expr>,
    },
    /// Duplicate elimination over the whole row.
    Distinct {
        /// Input plan.
        input: Box<QueryPlan>,
    },
    /// Column projection.
    Project {
        /// Input plan.
        input: Box<QueryPlan>,
        /// Retained columns.
        columns: Vec<usize>,
    },
    /// Row limit.
    Limit {
        /// Input plan.
        input: Box<QueryPlan>,
        /// Maximum number of rows.
        limit: usize,
    },
}

/// Result of one baseline query.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Result rows.
    pub rows: Vec<Tuple>,
}

impl QueryPlan {
    /// Convenience constructor for a full scan.
    pub fn scan(table: &str) -> Self {
        QueryPlan::Scan {
            table: table.to_string(),
            predicate: None,
        }
    }

    /// Convenience constructor for a scan with a predicate.
    pub fn scan_where(table: &str, predicate: Expr) -> Self {
        QueryPlan::Scan {
            table: table.to_string(),
            predicate: Some(predicate),
        }
    }

    /// Wraps the plan in a sort.
    pub fn sorted(self, keys: Vec<SortKey>) -> Self {
        QueryPlan::Sort {
            input: Box::new(self),
            keys,
        }
    }

    /// Wraps the plan in a limit.
    pub fn limited(self, limit: usize) -> Self {
        QueryPlan::Limit {
            input: Box::new(self),
            limit,
        }
    }

    /// Wraps the plan in a projection.
    pub fn projected(self, columns: Vec<usize>) -> Self {
        QueryPlan::Project {
            input: Box::new(self),
            columns,
        }
    }
}

/// Executes one query plan against a snapshot with the given parameters.
pub fn execute_plan(
    catalog: &Catalog,
    plan: &QueryPlan,
    params: &[Value],
    snapshot: Snapshot,
) -> Result<QueryResult> {
    Ok(QueryResult {
        rows: exec(catalog, plan, params, snapshot)?,
    })
}

/// Applies one parameterised update in a single-statement transaction.
pub fn execute_update(
    catalog: &Catalog,
    table: &str,
    op_template: &UpdateOp,
    params: &[Value],
) -> Result<usize> {
    let bound = bind_update_op(op_template, params)?;
    Ok(catalog.apply(table, bound)?.rows_affected)
}

/// Binds the parameters of an update operation.
pub fn bind_update_op(op: &UpdateOp, params: &[Value]) -> Result<UpdateOp> {
    Ok(match op {
        UpdateOp::Insert { values } => UpdateOp::Insert {
            values: values.clone(),
        },
        UpdateOp::Update {
            assignments,
            predicate,
        } => UpdateOp::Update {
            assignments: assignments
                .iter()
                .map(|(c, e)| Ok((*c, e.bind(params)?)))
                .collect::<Result<_>>()?,
            predicate: predicate.bind(params)?,
        },
        UpdateOp::Delete { predicate } => UpdateOp::Delete {
            predicate: predicate.bind(params)?,
        },
    })
}

fn exec(
    catalog: &Catalog,
    plan: &QueryPlan,
    params: &[Value],
    snapshot: Snapshot,
) -> Result<Vec<Tuple>> {
    match plan {
        QueryPlan::Scan { table, predicate } => {
            let handle = catalog.table(table)?;
            let table = handle.read();
            let predicate = predicate.as_ref().map(|p| p.bind(params)).transpose()?;
            // The rule the shared engine's scans and writes find rows by:
            // an index when the bound predicate names one, else the pass —
            // either way in arena order, against the whole predicate.
            let path = predicate.as_ref().map(|p| AccessPath::choose(&table, p));
            let mut out = Vec::new();
            let mut select = |row: &Tuple| -> Result<()> {
                if predicate
                    .as_ref()
                    .map_or(Ok(true), |p| p.eval_predicate(row))?
                {
                    out.push(row.clone());
                }
                Ok(())
            };
            match &path {
                Some(path) if *path != AccessPath::Scan => {
                    let mut fetched: Vec<_> = path.visible_rows(&table, snapshot).collect();
                    fetched.sort_unstable_by_key(|(rid, _)| *rid);
                    fetched.into_iter().try_for_each(|(_, row)| select(row))?
                }
                _ => table.scan(snapshot).try_for_each(|(_, row)| select(row))?,
            }
            Ok(out)
        }
        QueryPlan::IndexLookup {
            table,
            column,
            key,
            residual,
        } => {
            let handle = catalog.table(table)?;
            let table = handle.read();
            let key = key.bind(params)?.eval(&Tuple::empty())?;
            let residual = residual.as_ref().map(|p| p.bind(params)).transpose()?;
            let rows: Vec<Tuple> = table
                .eq_lookup(*column)
                .rows(&key, snapshot)
                .map(|(_, r)| r.clone())
                .collect();
            Ok(filter_rows(rows, &residual)?)
        }
        QueryPlan::IndexRange {
            table,
            column,
            low,
            high,
            residual,
        } => {
            let handle = catalog.table(table)?;
            let table = handle.read();
            let eval_bound = |b: &Option<(Expr, bool)>| -> Result<Bound<Value>> {
                Ok(match b {
                    None => Bound::Unbounded,
                    Some((e, inclusive)) => {
                        let v = e.bind(params)?.eval(&Tuple::empty())?;
                        if *inclusive {
                            Bound::Included(v)
                        } else {
                            Bound::Excluded(v)
                        }
                    }
                })
            };
            let low = eval_bound(low)?;
            let high = eval_bound(high)?;
            let residual = residual.as_ref().map(|p| p.bind(params)).transpose()?;
            let rows: Vec<Tuple> = if table.has_index_on(*column) {
                table
                    .index_range(*column, as_ref_bound(&low), as_ref_bound(&high), snapshot)
                    .into_iter()
                    .map(|(_, r)| r.clone())
                    .collect()
            } else {
                table
                    .scan(snapshot)
                    .filter(|(_, r)| bound_contains(&low, &high, &r[*column]))
                    .map(|(_, r)| r.clone())
                    .collect()
            };
            Ok(filter_rows(rows, &residual)?)
        }
        QueryPlan::Filter { input, predicate } => {
            let rows = exec(catalog, input, params, snapshot)?;
            let predicate = predicate.bind(params)?;
            rows.into_iter()
                .filter_map(|r| match predicate.eval_predicate(&r) {
                    Ok(true) => Some(Ok(r)),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                })
                .collect()
        }
        QueryPlan::HashJoin {
            build,
            probe,
            build_key,
            probe_key,
        } => {
            let build_rows = exec(catalog, build, params, snapshot)?;
            let probe_rows = exec(catalog, probe, params, snapshot)?;
            let mut table: HashMap<Value, Vec<&Tuple>> = HashMap::new();
            for row in &build_rows {
                let key = row[*build_key].clone();
                if !key.is_null() {
                    table.entry(key).or_default().push(row);
                }
            }
            let mut out = Vec::new();
            for probe_row in &probe_rows {
                let key = &probe_row[*probe_key];
                if key.is_null() {
                    continue;
                }
                if let Some(matches) = table.get(key) {
                    for build_row in matches {
                        out.push(build_row.concat(probe_row));
                    }
                }
            }
            Ok(out)
        }
        QueryPlan::IndexNlJoin {
            outer,
            table,
            outer_key,
            inner_column,
        } => {
            let outer_rows = exec(catalog, outer, params, snapshot)?;
            let handle = catalog.table(table)?;
            let inner = handle.read();
            let lookup = inner.eq_lookup(*inner_column);
            let mut out = Vec::new();
            for outer_row in &outer_rows {
                let key = &outer_row[*outer_key];
                if key.is_null() {
                    continue;
                }
                for (_, inner_row) in lookup.rows(key, snapshot) {
                    out.push(outer_row.concat(inner_row));
                }
            }
            Ok(out)
        }
        QueryPlan::Sort { input, keys } => {
            let mut rows = exec(catalog, input, params, snapshot)?;
            rows.sort_by(|a, b| compare_tuples(a, b, keys));
            Ok(rows)
        }
        QueryPlan::GroupBy {
            input,
            group_columns,
            aggregates,
            having,
        } => {
            let rows = exec(catalog, input, params, snapshot)?;
            let having = having.as_ref().map(|p| p.bind(params)).transpose()?;
            let mut groups: HashMap<Vec<Value>, Vec<shareddb_common::agg::Accumulator>> =
                HashMap::new();
            let mut order: Vec<Vec<Value>> = Vec::new();
            for row in &rows {
                let key: Vec<Value> = group_columns.iter().map(|&c| row[c].clone()).collect();
                let accs = match groups.get_mut(&key) {
                    Some(accs) => accs,
                    None => {
                        order.push(key.clone());
                        groups.entry(key.clone()).or_insert_with(|| {
                            aggregates.iter().map(|(f, _)| f.accumulator()).collect()
                        })
                    }
                };
                for (acc, (_, col)) in accs.iter_mut().zip(aggregates) {
                    acc.update(&row[*col])?;
                }
            }
            let mut out = Vec::new();
            for key in order {
                let accs = &groups[&key];
                let mut values = key.clone();
                values.extend(accs.iter().map(|a| a.finish()));
                let row = Tuple::new(values);
                if let Some(p) = &having {
                    if !p.eval_predicate(&row)? {
                        continue;
                    }
                }
                out.push(row);
            }
            Ok(out)
        }
        QueryPlan::Distinct { input } => {
            let rows = exec(catalog, input, params, snapshot)?;
            let mut seen = std::collections::HashSet::new();
            Ok(rows
                .into_iter()
                .filter(|r| seen.insert(r.clone()))
                .collect())
        }
        QueryPlan::Project { input, columns } => {
            let rows = exec(catalog, input, params, snapshot)?;
            Ok(rows.into_iter().map(|r| r.project(columns)).collect())
        }
        QueryPlan::Limit { input, limit } => {
            let mut rows = exec(catalog, input, params, snapshot)?;
            rows.truncate(*limit);
            Ok(rows)
        }
    }
}

fn filter_rows(rows: Vec<Tuple>, residual: &Option<Expr>) -> Result<Vec<Tuple>> {
    match residual {
        None => Ok(rows),
        Some(p) => rows
            .into_iter()
            .filter_map(|r| match p.eval_predicate(&r) {
                Ok(true) => Some(Ok(r)),
                Ok(false) => None,
                Err(e) => Some(Err(e)),
            })
            .collect(),
    }
}

fn as_ref_bound(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
        Bound::Unbounded => Bound::Unbounded,
    }
}

fn bound_contains(low: &Bound<Value>, high: &Bound<Value>, v: &Value) -> bool {
    let low_ok = match low {
        Bound::Unbounded => true,
        Bound::Included(l) => v >= l,
        Bound::Excluded(l) => v > l,
    };
    let high_ok = match high {
        Bound::Unbounded => true,
        Bound::Included(h) => v <= h,
        Bound::Excluded(h) => v < h,
    };
    low_ok && high_ok
}

/// Binding of a missing parameter in an INSERT template: the baseline engine
/// materialises insert values at submission time, so templates with
/// parameters must be bound by the caller (see [`crate::engine`]).
pub fn bind_insert_values(values: &[Expr], params: &[Value]) -> Result<Tuple> {
    let empty = Tuple::empty();
    let bound: Vec<Value> = values
        .iter()
        .map(|e| e.bind(params)?.eval(&empty))
        .collect::<Result<_>>()?;
    if bound.is_empty() {
        return Err(Error::InvalidParameter("empty insert row".into()));
    }
    Ok(Tuple::new(bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::{tuple, DataType};
    use shareddb_storage::{IndexDef, IndexKind, TableDef};

    fn catalog() -> Catalog {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("ITEM")
                    .column("I_ID", DataType::Int)
                    .column("I_SUBJECT", DataType::Text)
                    .column("I_COST", DataType::Float)
                    .primary_key(&["I_ID"]),
            )
            .unwrap();
        catalog
            .create_table(
                TableDef::new("ORDER_LINE")
                    .column("OL_ID", DataType::Int)
                    .column("OL_I_ID", DataType::Int)
                    .column("OL_QTY", DataType::Int)
                    .primary_key(&["OL_ID"]),
            )
            .unwrap();
        catalog
            .create_index(IndexDef {
                name: "ITEM_PK".into(),
                table: "ITEM".into(),
                column: "I_ID".into(),
                kind: IndexKind::Values,
            })
            .unwrap();
        catalog
            .bulk_load(
                "ITEM",
                (0..100i64)
                    .map(|i| {
                        tuple![
                            i,
                            if i % 4 == 0 { "HISTORY" } else { "FICTION" },
                            (i % 10) as f64
                        ]
                    })
                    .collect(),
            )
            .unwrap();
        catalog
            .bulk_load(
                "ORDER_LINE",
                (0..300i64).map(|i| tuple![i, i % 100, i % 7]).collect(),
            )
            .unwrap();
        catalog
    }

    fn run(catalog: &Catalog, plan: &QueryPlan, params: &[Value]) -> Vec<Tuple> {
        execute_plan(catalog, plan, params, catalog.oracle().read_ts())
            .unwrap()
            .rows
    }

    #[test]
    fn scan_with_predicate() {
        let c = catalog();
        let plan = QueryPlan::scan_where("ITEM", Expr::col(1).eq(Expr::param(0)));
        let rows = run(&c, &plan, &[Value::text("HISTORY")]);
        assert_eq!(rows.len(), 25);
    }

    #[test]
    fn index_lookup_and_residual() {
        let c = catalog();
        let plan = QueryPlan::IndexLookup {
            table: "ITEM".into(),
            column: 0,
            key: Expr::param(0),
            residual: Some(Expr::col(2).gt(Expr::lit(100.0f64))),
        };
        assert_eq!(run(&c, &plan, &[Value::Int(42)]).len(), 0);
        let plan = QueryPlan::IndexLookup {
            table: "ITEM".into(),
            column: 0,
            key: Expr::param(0),
            residual: None,
        };
        let rows = run(&c, &plan, &[Value::Int(42)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(42));
    }

    #[test]
    fn index_range_scan() {
        let c = catalog();
        let plan = QueryPlan::IndexRange {
            table: "ITEM".into(),
            column: 0,
            low: Some((Expr::lit(10i64), true)),
            high: Some((Expr::lit(14i64), true)),
            residual: None,
        };
        assert_eq!(run(&c, &plan, &[]).len(), 5);
    }

    #[test]
    fn hash_join_and_nl_join_agree() {
        let c = catalog();
        let hash = QueryPlan::HashJoin {
            build: Box::new(QueryPlan::scan_where(
                "ITEM",
                Expr::col(1).eq(Expr::lit("HISTORY")),
            )),
            probe: Box::new(QueryPlan::scan("ORDER_LINE")),
            build_key: 0,
            probe_key: 1,
        };
        let nl = QueryPlan::IndexNlJoin {
            outer: Box::new(QueryPlan::Filter {
                input: Box::new(QueryPlan::scan("ORDER_LINE")),
                predicate: Expr::lit(true),
            }),
            table: "ITEM".into(),
            outer_key: 1,
            inner_column: 0,
        };
        let hash_rows = run(&c, &hash, &[]);
        let nl_rows = run(&c, &nl, &[]);
        // The NL join returns all 300 pairs; the hash join only HISTORY items.
        assert_eq!(nl_rows.len(), 300);
        assert_eq!(hash_rows.len(), 75);
    }

    #[test]
    fn group_by_sort_limit() {
        let c = catalog();
        let plan = QueryPlan::GroupBy {
            input: Box::new(QueryPlan::scan("ORDER_LINE")),
            group_columns: vec![1],
            aggregates: vec![(AggregateFunction::Sum, 2), (AggregateFunction::Count, 0)],
            having: Some(Expr::col(2).gt(Expr::lit(1i64))),
        }
        .sorted(vec![SortKey::desc(1)])
        .limited(5)
        .projected(vec![0, 1]);
        let rows = run(&c, &plan, &[]);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].len(), 2);
        // Sorted descending by the SUM column.
        let sums: Vec<i64> = rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        assert!(sums.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn distinct_removes_duplicates() {
        let c = catalog();
        let plan = QueryPlan::Distinct {
            input: Box::new(QueryPlan::scan("ITEM").projected(vec![1])),
        };
        assert_eq!(run(&c, &plan, &[]).len(), 2);
    }

    #[test]
    fn update_execution() {
        let c = catalog();
        let affected = execute_update(
            &c,
            "ITEM",
            &UpdateOp::Delete {
                predicate: Expr::col(0).lt(Expr::param(0)),
            },
            &[Value::Int(10)],
        )
        .unwrap();
        assert_eq!(affected, 10);
        let rows = run(&c, &QueryPlan::scan("ITEM"), &[]);
        assert_eq!(rows.len(), 90);
    }

    #[test]
    fn bind_insert_values_evaluates_parameters() {
        let t = bind_insert_values(
            &[Expr::param(0), Expr::lit("x"), Expr::param(1)],
            &[Value::Int(1), Value::Float(2.0)],
        )
        .unwrap();
        assert_eq!(t, tuple![1i64, "x", 2.0f64]);
        assert!(bind_insert_values(&[Expr::param(3)], &[]).is_err());
        assert!(bind_insert_values(&[], &[]).is_err());
    }
}
