//! Output verification: an oracle comparison against the query-at-a-time
//! baseline before load, and cheap per-reply invariants during load.

use shareddb_baseline::{ClassicEngine, EngineProfile};
use shareddb_client::{Connection, Outcome, Prepared};
use shareddb_common::{Tuple, Value};
use shareddb_tpcw::{
    build_catalog, register_baseline_statements, StatementCall, TpcwScale, PAGE_SIZE,
};
use std::collections::HashMap;
use std::sync::Arc;

/// What a reply to one statement must look like whatever the data are.
enum Shape {
    /// Exactly one row whose `column` equals parameter 0.
    OneRow { column: usize },
    /// Any number of rows, each with `column` equal to parameter 0, in
    /// `order` (empty = unordered).
    Matching {
        column: usize,
        order: &'static [SortKey],
    },
    /// At most `PAGE_SIZE` rows in `order`; when `column` is given, each
    /// row's value there equals parameter 0.
    Page {
        column: Option<usize>,
        order: &'static [SortKey],
    },
    /// An update touching exactly this many rows (`None` = any number).
    Update { rows: Option<u64> },
}

/// One sort key of a reply: column and direction.
type SortKey = (usize, Direction);

#[derive(Clone, Copy, PartialEq)]
enum Direction {
    Asc,
    Desc,
}
use Direction::{Asc, Desc};

fn shape_of(statement: &str) -> Shape {
    match statement {
        "getItemById" | "getCustomerById" | "getBook" => Shape::OneRow { column: 0 },
        "getCustomerByUname" => Shape::OneRow { column: 1 },
        "getCart" => Shape::Matching {
            column: 1,
            order: &[],
        },
        "getCustomerOrder" => Shape::Matching {
            column: 1,
            order: &[(2, Desc), (0, Desc)],
        },
        "doSubjectSearch" => Shape::Page {
            column: Some(3),
            order: &[(1, Asc)],
        },
        "getNewProducts" => Shape::Page {
            column: Some(3),
            order: &[(5, Desc), (1, Asc)],
        },
        "doTitleSearch" => Shape::Page {
            column: None,
            order: &[(1, Asc)],
        },
        "doAuthorSearch" => Shape::Page {
            column: None,
            order: &[(4, Asc)],
        },
        "getBestSellers" => Shape::Page {
            column: None,
            order: &[(2, Desc), (0, Asc)],
        },
        "clearCart" | "refreshCart" => Shape::Update { rows: None },
        _ => Shape::Update { rows: Some(1) },
    }
}

/// The sort keys a statement's reply is ordered by (empty = unordered).
fn order_of(statement: &str) -> &'static [SortKey] {
    match shape_of(statement) {
        Shape::Matching { order, .. } | Shape::Page { order, .. } => order,
        _ => &[],
    }
}

fn key_of(row: &[Value], order: &[SortKey]) -> Vec<Value> {
    order
        .iter()
        .map(|(column, _)| row[*column].clone())
        .collect()
}

fn in_order(rows: &[Vec<Value>], order: &[SortKey]) -> bool {
    rows.windows(2).all(|pair| {
        for (column, direction) in order {
            let ordering = pair[0][*column].cmp(&pair[1][*column]);
            let ordering = if *direction == Desc {
                ordering.reverse()
            } else {
                ordering
            };
            if ordering.is_ne() {
                return ordering.is_lt();
            }
        }
        true
    })
}

/// Checks one reply against its statement's shape.
pub fn check_reply(call: &StatementCall, outcome: &Outcome) -> Result<(), String> {
    let fail = |what: String| Err(format!("{}{:?}: {what}", call.statement, call.params));
    let (rows, wanted_column, order) = match (shape_of(call.statement), outcome) {
        (Shape::Update { rows }, Outcome::Updated { rows_affected }) => {
            return match rows {
                Some(expected) if expected != *rows_affected => fail(format!(
                    "{rows_affected} rows affected, expected {expected}"
                )),
                _ => Ok(()),
            };
        }
        (Shape::Update { .. }, Outcome::Rows(_)) => return fail("rows for an update".into()),
        (_, Outcome::Updated { .. }) => return fail("update ack for a query".into()),
        (Shape::OneRow { column }, Outcome::Rows(rs)) => {
            if rs.rows.len() != 1 {
                return fail(format!("{} rows, expected 1", rs.rows.len()));
            }
            (&rs.rows, Some(column), &[][..])
        }
        (Shape::Matching { column, order }, Outcome::Rows(rs)) => (&rs.rows, Some(column), order),
        (Shape::Page { column, order }, Outcome::Rows(rs)) => {
            if rs.rows.len() > PAGE_SIZE {
                return fail(format!("{} rows exceed the page size", rs.rows.len()));
            }
            (&rs.rows, column, order)
        }
    };
    if let Some(column) = wanted_column {
        if let Some(row) = rows.iter().find(|row| row[column] != call.params[0]) {
            return fail(format!("row {row:?} does not match the requested key"));
        }
    }
    if !in_order(rows, order) {
        return fail("rows out of key order".into());
    }
    Ok(())
}

/// What the server answered to the first statements of the workload, taken
/// one statement at a time so that the order of effects is defined.
pub fn server_answers(
    conn: &mut Connection,
    prepared: &HashMap<&'static str, Prepared>,
    calls: &[StatementCall],
) -> Vec<Result<Outcome, String>> {
    calls
        .iter()
        .map(|call| {
            conn.execute(&prepared[call.statement], &call.params)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Replays `calls` on a query-at-a-time engine over an identically built
/// catalog and compares every answer: as multisets, and in the order of the
/// sort keys where the statement sorts (rows that tie on the keys may come
/// in either order). Returns one line per mismatch.
pub fn compare_with_baseline(
    scale: &TpcwScale,
    calls: &[StatementCall],
    answers: &[Result<Outcome, String>],
) -> Vec<String> {
    let catalog = Arc::new(build_catalog(scale).expect("baseline catalog"));
    let baseline = ClassicEngine::start(catalog, EngineProfile::Tuned, 1);
    register_baseline_statements(&baseline);
    let mut mismatches = Vec::new();
    for (call, answer) in calls.iter().zip(answers) {
        let label = format!("{}{:?}", call.statement, call.params);
        let expected: Vec<Tuple> = match baseline.execute_sync(call.statement, &call.params) {
            Ok(rows) => rows,
            Err(e) => {
                mismatches.push(format!("{label}: baseline failed: {e}"));
                continue;
            }
        };
        let outcome = match answer {
            Ok(outcome) => outcome,
            Err(e) => {
                mismatches.push(format!("{label}: server failed: {e}"));
                continue;
            }
        };
        if let Err(e) = check_reply(call, outcome) {
            mismatches.push(e);
            continue;
        }
        let Outcome::Rows(rs) = outcome else {
            continue; // the baseline reports no row counts for updates
        };
        let order = order_of(call.statement);
        let expected: Vec<Vec<Value>> = expected.into_iter().map(Tuple::into_values).collect();
        let keys = |rows: &[Vec<Value>]| rows.iter().map(|r| key_of(r, order)).collect::<Vec<_>>();
        let multiset = |rows: &[Vec<Value>]| {
            let mut sorted = rows.to_vec();
            sorted.sort();
            sorted
        };
        if keys(&rs.rows) != keys(&expected) || multiset(&rs.rows) != multiset(&expected) {
            mismatches.push(format!(
                "{label}: server returned {} rows, baseline {}; first server row {:?}, \
                 first baseline row {:?}",
                rs.rows.len(),
                expected.len(),
                rs.rows.first(),
                expected.first()
            ));
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_client::RemoteResultSet;

    fn rows(rows: Vec<Vec<Value>>) -> Outcome {
        Outcome::Rows(RemoteResultSet {
            columns: Vec::new(),
            rows,
        })
    }

    fn call(statement: &'static str, params: Vec<Value>) -> StatementCall {
        StatementCall { statement, params }
    }

    #[test]
    fn point_lookup_must_return_the_requested_row() {
        let get = call("getItemById", vec![Value::Int(7)]);
        assert!(check_reply(&get, &rows(vec![vec![Value::Int(7), Value::text("t")]])).is_ok());
        assert!(check_reply(&get, &rows(vec![vec![Value::Int(8), Value::text("t")]])).is_err());
        assert!(check_reply(&get, &rows(vec![])).is_err());
        assert!(check_reply(&get, &Outcome::Updated { rows_affected: 1 }).is_err());
    }

    #[test]
    fn pages_are_bounded_and_ordered() {
        let search = call("doTitleSearch", vec![Value::text("%x%")]);
        let row = |title: &str| vec![Value::Int(1), Value::text(title)];
        assert!(check_reply(&search, &rows(vec![row("a"), row("a"), row("b")])).is_ok());
        assert!(check_reply(&search, &rows(vec![row("b"), row("a")])).is_err());
        let too_many = (0..=PAGE_SIZE).map(|_| row("a")).collect();
        assert!(check_reply(&search, &rows(too_many)).is_err());
    }

    #[test]
    fn updates_report_their_row_count() {
        let insert = call("addOrderLine", vec![Value::Int(1)]);
        assert!(check_reply(&insert, &Outcome::Updated { rows_affected: 1 }).is_ok());
        assert!(check_reply(&insert, &Outcome::Updated { rows_affected: 0 }).is_err());
        let clear = call("clearCart", vec![Value::Int(1)]);
        assert!(check_reply(&clear, &Outcome::Updated { rows_affected: 0 }).is_ok());
    }
}
