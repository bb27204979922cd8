//! The TPC-W statements as SQL, compiled into the global query plan of
//! Figure 6, and the equivalent per-query plans for the query-at-a-time
//! baselines.
//!
//! All statements of the workload are registered under the same names
//! against both engines, so the workload driver can run the identical
//! interaction stream against SharedDB and the baselines. The baselines'
//! plans are written by hand on purpose: they are the independent reference
//! the compiled plan is checked against.

use shareddb_baseline::{BaselineStatement, ClassicEngine, QueryPlan};
use shareddb_common::agg::AggregateFunction;
use shareddb_common::{Expr, Result, SortKey};
use shareddb_core::plan::{GlobalPlan, StatementRegistry};
use shareddb_sql::compile_workload;
use shareddb_storage::{Catalog, UpdateOp};

/// Default result-page size of the search / best-seller statements.
pub const PAGE_SIZE: usize = 50;

/// The 21 TPC-W statements as `(name, sql)`. Compiled together they are
/// Figure 6: a key look-up reads through its table's shared index probe, a
/// table joined on its key through a shared index-NL join, a page of fifty
/// through a shared Top-N. `getCustomerOrder` comes before `getCart` so that
/// the order display's item join is the first `IndexNlJoin(ITEM)` over a
/// join. Updates called with the key first number their parameters.
pub const SQL: &[(&str, &str)] = &[
    (
        "getCustomerByUname",
        "SELECT * FROM CUSTOMER WHERE C_UNAME = ?",
    ),
    ("getCustomerById", "SELECT * FROM CUSTOMER WHERE C_ID = ?"),
    ("getItemById", "SELECT * FROM ITEM WHERE I_ID = ?"),
    (
        "getBook",
        "SELECT * FROM ITEM, AUTHOR WHERE ITEM.I_ID = ? AND ITEM.I_A_ID = AUTHOR.A_ID",
    ),
    (
        "doSubjectSearch",
        "SELECT * FROM ITEM, AUTHOR WHERE ITEM.I_SUBJECT = ? AND ITEM.I_A_ID = AUTHOR.A_ID \
         ORDER BY ITEM.I_TITLE LIMIT 50",
    ),
    (
        "doTitleSearch",
        "SELECT * FROM ITEM, AUTHOR WHERE ITEM.I_TITLE LIKE ? AND ITEM.I_A_ID = AUTHOR.A_ID \
         ORDER BY ITEM.I_TITLE LIMIT 50",
    ),
    (
        "doAuthorSearch",
        "SELECT * FROM AUTHOR, ITEM WHERE AUTHOR.A_LNAME LIKE ? AND AUTHOR.A_ID = ITEM.I_A_ID \
         ORDER BY ITEM.I_TITLE LIMIT 50",
    ),
    (
        "getNewProducts",
        "SELECT * FROM ITEM, AUTHOR WHERE ITEM.I_SUBJECT = ? AND ITEM.I_A_ID = AUTHOR.A_ID \
         ORDER BY ITEM.I_PUB_DATE DESC, ITEM.I_TITLE LIMIT 50",
    ),
    // The order lines of the recent orders (the second parameter is the
    // smallest order id considered) for one subject (the first).
    (
        "getBestSellers",
        "SELECT ITEM.I_ID, ITEM.I_TITLE, SUM(ORDER_LINE.OL_QTY) FROM ITEM, ORDER_LINE \
         WHERE ITEM.I_SUBJECT = ? AND ORDER_LINE.OL_O_ID >= ? \
         AND ITEM.I_ID = ORDER_LINE.OL_I_ID GROUP BY ITEM.I_ID, ITEM.I_TITLE \
         ORDER BY SUM(ORDER_LINE.OL_QTY) DESC, ITEM.I_ID LIMIT 50",
    ),
    (
        "getCustomerOrder",
        "SELECT * FROM ORDERS, ORDER_LINE, ITEM WHERE ORDERS.O_C_ID = ? \
         AND ORDERS.O_ID = ORDER_LINE.OL_O_ID AND ORDER_LINE.OL_I_ID = ITEM.I_ID \
         ORDER BY ORDERS.O_DATE DESC, ORDERS.O_ID DESC",
    ),
    (
        "getCart",
        "SELECT * FROM SHOPPING_CART_LINE, ITEM WHERE SHOPPING_CART_LINE.SCL_SC_ID = ? \
         AND SHOPPING_CART_LINE.SCL_I_ID = ITEM.I_ID",
    ),
    ("createCart", "INSERT INTO SHOPPING_CART VALUES (?, ?)"),
    (
        "addToCart",
        "INSERT INTO SHOPPING_CART_LINE VALUES (?, ?, ?, ?)",
    ),
    (
        "refreshCart",
        "UPDATE SHOPPING_CART_LINE SET SCL_QTY = ?3 WHERE SCL_SC_ID = ?1 AND SCL_I_ID = ?2",
    ),
    (
        "clearCart",
        "DELETE FROM SHOPPING_CART_LINE WHERE SCL_SC_ID = ?",
    ),
    (
        "createOrder",
        "INSERT INTO ORDERS VALUES (?, ?, ?, ?, 'PENDING')",
    ),
    ("addOrderLine", "INSERT INTO ORDER_LINE VALUES (?, ?, ?, ?)"),
    ("addCCXact", "INSERT INTO CC_XACTS VALUES (?, 'VISA', ?, ?)"),
    (
        "adminUpdateItem",
        "UPDATE ITEM SET I_COST = ?2, I_PUB_DATE = ?3 WHERE I_ID = ?1",
    ),
    (
        "updateCustomerLogin",
        "UPDATE CUSTOMER SET C_LAST_LOGIN = ?2 WHERE C_ID = ?1",
    ),
    (
        "createCustomer",
        "INSERT INTO CUSTOMER VALUES (?, ?, ?, ?, ?, 0.0, ?)",
    ),
];

/// Compiles [`SQL`] into the SharedDB global plan and statement registry.
pub fn build_shared_plan(catalog: &Catalog) -> Result<(GlobalPlan, StatementRegistry)> {
    compile_workload(catalog, SQL)
}

/// Registers the equivalent per-query plans with a query-at-a-time baseline
/// engine. The statement names and parameter conventions are identical to
/// [`build_shared_plan`], so the same workload driver can run against both.
pub fn register_baseline_statements(engine: &ClassicEngine) {
    use QueryPlan as P;

    engine.register(
        "getCustomerByUname",
        BaselineStatement::Query(P::IndexLookup {
            table: "CUSTOMER".into(),
            column: 1,
            key: Expr::param(0),
            residual: None,
        }),
    );
    engine.register(
        "getCustomerById",
        BaselineStatement::Query(P::IndexLookup {
            table: "CUSTOMER".into(),
            column: 0,
            key: Expr::param(0),
            residual: None,
        }),
    );
    engine.register(
        "getItemById",
        BaselineStatement::Query(P::IndexLookup {
            table: "ITEM".into(),
            column: 0,
            key: Expr::param(0),
            residual: None,
        }),
    );
    engine.register(
        "getBook",
        BaselineStatement::Query(P::IndexNlJoin {
            outer: Box::new(P::IndexLookup {
                table: "ITEM".into(),
                column: 0,
                key: Expr::param(0),
                residual: None,
            }),
            table: "AUTHOR".into(),
            outer_key: 2,
            inner_column: 0,
        }),
    );
    engine.register(
        "doSubjectSearch",
        BaselineStatement::Query(
            P::IndexNlJoin {
                outer: Box::new(P::IndexLookup {
                    table: "ITEM".into(),
                    column: 3,
                    key: Expr::param(0),
                    residual: None,
                }),
                table: "AUTHOR".into(),
                outer_key: 2,
                inner_column: 0,
            }
            .sorted(vec![SortKey::asc(1)])
            .limited(PAGE_SIZE),
        ),
    );
    engine.register(
        "doTitleSearch",
        BaselineStatement::Query(
            P::IndexNlJoin {
                outer: Box::new(P::scan_where("ITEM", Expr::col(1).like(Expr::param(0)))),
                table: "AUTHOR".into(),
                outer_key: 2,
                inner_column: 0,
            }
            .sorted(vec![SortKey::asc(1)])
            .limited(PAGE_SIZE),
        ),
    );
    engine.register(
        "doAuthorSearch",
        BaselineStatement::Query(
            P::IndexNlJoin {
                outer: Box::new(P::scan_where("AUTHOR", Expr::col(2).like(Expr::param(0)))),
                table: "ITEM".into(),
                outer_key: 0,
                inner_column: 2,
            }
            .sorted(vec![SortKey::asc(4)])
            .limited(PAGE_SIZE),
        ),
    );
    engine.register(
        "getNewProducts",
        BaselineStatement::Query(
            P::IndexNlJoin {
                outer: Box::new(P::IndexLookup {
                    table: "ITEM".into(),
                    column: 3,
                    key: Expr::param(0),
                    residual: None,
                }),
                table: "AUTHOR".into(),
                outer_key: 2,
                inner_column: 0,
            }
            .sorted(vec![SortKey::desc(5), SortKey::asc(1)])
            .limited(PAGE_SIZE),
        ),
    );
    engine.register(
        "getBestSellers",
        BaselineStatement::Query(
            P::GroupBy {
                input: Box::new(P::HashJoin {
                    build: Box::new(P::IndexLookup {
                        table: "ITEM".into(),
                        column: 3,
                        key: Expr::param(0),
                        residual: None,
                    }),
                    probe: Box::new(P::scan_where(
                        "ORDER_LINE",
                        Expr::col(1).gt_eq(Expr::param(1)),
                    )),
                    build_key: 0,
                    probe_key: 2,
                }),
                group_columns: vec![0, 1],
                aggregates: vec![(AggregateFunction::Sum, 11)],
                having: None,
            }
            .sorted(vec![SortKey::desc(2), SortKey::asc(0)])
            .limited(PAGE_SIZE),
        ),
    );
    engine.register(
        "getCart",
        BaselineStatement::Query(P::IndexNlJoin {
            outer: Box::new(P::IndexLookup {
                table: "SHOPPING_CART_LINE".into(),
                column: 1,
                key: Expr::param(0),
                residual: None,
            }),
            table: "ITEM".into(),
            outer_key: 2,
            inner_column: 0,
        }),
    );
    engine.register(
        "getCustomerOrder",
        BaselineStatement::Query(
            P::IndexNlJoin {
                outer: Box::new(P::IndexNlJoin {
                    outer: Box::new(P::IndexLookup {
                        table: "ORDERS".into(),
                        column: 1,
                        key: Expr::param(0),
                        residual: None,
                    }),
                    table: "ORDER_LINE".into(),
                    outer_key: 0,
                    inner_column: 1,
                }),
                table: "ITEM".into(),
                outer_key: 7,
                inner_column: 0,
            }
            .sorted(vec![SortKey::desc(2), SortKey::desc(0)]),
        ),
    );

    // Updates.
    engine.register(
        "createCart",
        BaselineStatement::Insert {
            table: "SHOPPING_CART".into(),
            values: vec![Expr::param(0), Expr::param(1)],
        },
    );
    engine.register(
        "addToCart",
        BaselineStatement::Insert {
            table: "SHOPPING_CART_LINE".into(),
            values: vec![
                Expr::param(0),
                Expr::param(1),
                Expr::param(2),
                Expr::param(3),
            ],
        },
    );
    engine.register(
        "refreshCart",
        BaselineStatement::Mutation {
            table: "SHOPPING_CART_LINE".into(),
            op: UpdateOp::Update {
                assignments: vec![(3, Expr::param(2))],
                predicate: Expr::col(1)
                    .eq(Expr::param(0))
                    .and(Expr::col(2).eq(Expr::param(1))),
            },
        },
    );
    engine.register(
        "clearCart",
        BaselineStatement::Mutation {
            table: "SHOPPING_CART_LINE".into(),
            op: UpdateOp::Delete {
                predicate: Expr::col(1).eq(Expr::param(0)),
            },
        },
    );
    engine.register(
        "createOrder",
        BaselineStatement::Insert {
            table: "ORDERS".into(),
            values: vec![
                Expr::param(0),
                Expr::param(1),
                Expr::param(2),
                Expr::param(3),
                Expr::lit("PENDING"),
            ],
        },
    );
    engine.register(
        "addOrderLine",
        BaselineStatement::Insert {
            table: "ORDER_LINE".into(),
            values: vec![
                Expr::param(0),
                Expr::param(1),
                Expr::param(2),
                Expr::param(3),
            ],
        },
    );
    engine.register(
        "addCCXact",
        BaselineStatement::Insert {
            table: "CC_XACTS".into(),
            values: vec![
                Expr::param(0),
                Expr::lit("VISA"),
                Expr::param(1),
                Expr::param(2),
            ],
        },
    );
    engine.register(
        "adminUpdateItem",
        BaselineStatement::Mutation {
            table: "ITEM".into(),
            op: UpdateOp::Update {
                assignments: vec![(4, Expr::param(1)), (5, Expr::param(2))],
                predicate: Expr::col(0).eq(Expr::param(0)),
            },
        },
    );
    engine.register(
        "updateCustomerLogin",
        BaselineStatement::Mutation {
            table: "CUSTOMER".into(),
            op: UpdateOp::Update {
                assignments: vec![(6, Expr::param(1))],
                predicate: Expr::col(0).eq(Expr::param(0)),
            },
        },
    );
    engine.register(
        "createCustomer",
        BaselineStatement::Insert {
            table: "CUSTOMER".into(),
            values: vec![
                Expr::param(0),
                Expr::param(1),
                Expr::param(2),
                Expr::param(3),
                Expr::param(4),
                Expr::lit(0.0f64),
                Expr::param(5),
            ],
        },
    );
}

/// All statement names registered by [`build_shared_plan`] /
/// [`register_baseline_statements`], in [`SQL`] order.
pub fn statement_names() -> Vec<&'static str> {
    SQL.iter().map(|(name, _)| *name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{build_catalog, customer_uname, TpcwScale, SUBJECTS};
    use shareddb_baseline::EngineProfile;
    use shareddb_common::{Tuple, Value};
    use shareddb_core::plan::{ActivationTemplate, OperatorSpec};
    use shareddb_core::{Engine, EngineConfig};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn setup() -> (Arc<Catalog>, Engine, ClassicEngine) {
        let catalog = Arc::new(build_catalog(&TpcwScale::tiny()).unwrap());
        let (plan, registry) = build_shared_plan(&catalog).unwrap();
        let engine = Engine::start(
            Arc::clone(&catalog),
            plan,
            registry,
            EngineConfig::default(),
        )
        .unwrap();
        let baseline = ClassicEngine::start(Arc::clone(&catalog), EngineProfile::Tuned, 4);
        register_baseline_statements(&baseline);
        (catalog, engine, baseline)
    }

    /// The compiled plan is Figure 6's: 20 operators for 21 statement types,
    /// the ITEM scan shared by four statements, the best-seller join run
    /// inside its group-by. `getCart` reads its cart's lines through
    /// `Probe(SHOPPING_CART_LINE)`.
    #[test]
    fn the_compiled_plan_is_figure6() {
        let catalog = build_catalog(&TpcwScale::tiny()).unwrap();
        let (plan, registry) = build_shared_plan(&catalog).unwrap();
        assert_eq!(registry.len(), 21);
        assert_eq!(statement_names().len(), 21);
        let census: BTreeMap<String, usize> = plan.operator_census().into_iter().collect();
        let expected = [
            ("GroupBy", 1),
            ("HashJoin", 1),
            ("IndexNlJoin(AUTHOR)", 2),
            ("IndexNlJoin(ITEM)", 3),
            ("IndexNlJoin(ORDER_LINE)", 1),
            ("Probe(CUSTOMER)", 1),
            ("Probe(ITEM)", 1),
            ("Probe(ORDERS)", 1),
            ("Probe(SHOPPING_CART_LINE)", 1),
            ("Scan(AUTHOR)", 1),
            ("Scan(ITEM)", 1),
            ("Scan(ORDER_LINE)", 1),
            ("Sort", 1),
            ("TopN", 4),
        ];
        let expected: BTreeMap<String, usize> =
            expected.iter().map(|(k, n)| (k.to_string(), *n)).collect();
        assert_eq!(census, expected, "plan:\n{plan}");
        assert_eq!(plan.len(), 20);
        let item_scan = plan
            .nodes()
            .iter()
            .find(|n| n.name.starts_with("Scan(ITEM)"));
        let item_scan = item_scan.unwrap().id;
        let readers = registry
            .iter()
            .filter(|s| s.activations.iter().any(|(op, _)| *op == item_scan))
            .count();
        assert_eq!(readers, 4);
        let group_by = plan.nodes().iter().find(|n| n.name.starts_with("GroupBy"));
        let group_by = group_by.unwrap();
        let join = plan.group_join_of(group_by.id).map(|j| &plan.node(j).name);
        assert_eq!(join.map(String::as_str), Some("HashJoin#11"));
    }

    /// The five operators the ledger's per-layer benchmark picks out of the
    /// plan (the first node of each shape) are the Figure 6 roles they time.
    #[test]
    fn the_ledgers_operator_selectors_pick_their_figure6_roles() {
        let catalog = build_catalog(&TpcwScale::tiny()).unwrap();
        let (plan, _) = build_shared_plan(&catalog).unwrap();
        let find = |wanted: &dyn Fn(&OperatorSpec, &[usize]) -> bool| {
            let node = plan.nodes().iter().find(|n| wanted(&n.spec, &n.inputs));
            let node = node.expect("the TPC-W plan has this operator");
            let inputs: Vec<&str> = node
                .inputs
                .iter()
                .map(|&i| plan.node(i).name.as_str())
                .collect();
            format!("{} over {}", node.name, inputs.join(", "))
        };
        let is_scan_of = |id: usize, wanted: &str| matches!(&plan.node(id).spec, OperatorSpec::TableScan { table } if table == wanted);
        assert_eq!(
            find(&|s, _| matches!(s, OperatorSpec::HashJoin { .. })),
            "HashJoin#11 over Scan(ITEM)#3, Scan(ORDER_LINE)#10"
        );
        assert_eq!(
            find(&|s, _| matches!(s, OperatorSpec::GroupBy { .. })),
            "GroupBy#12 over HashJoin#11"
        );
        assert_eq!(
            find(&|s, inputs| {
                matches!(s, OperatorSpec::TopN { .. })
                    && matches!(plan.node(inputs[0]).spec, OperatorSpec::GroupBy { .. })
            }),
            "TopN#13 over GroupBy#12"
        );
        assert_eq!(
            find(&|s, inputs| {
                matches!(s, OperatorSpec::IndexNlJoin { table, .. } if table == "AUTHOR")
                    && is_scan_of(inputs[0], "ITEM")
            }),
            "IndexNlJoin(AUTHOR)#4 over Scan(ITEM)#3"
        );
        let order_display = |table: &str| {
            find(&|s, inputs| {
                matches!(s, OperatorSpec::IndexNlJoin { table: t, .. } if t == table)
                    && !is_scan_of(inputs[0], "SHOPPING_CART_LINE")
                    && !is_scan_of(inputs[0], "AUTHOR")
            })
        };
        assert_eq!(
            order_display("ORDER_LINE"),
            "IndexNlJoin(ORDER_LINE)#15 over Probe(ORDERS)#14"
        );
        assert_eq!(
            order_display("ITEM"),
            "IndexNlJoin(ITEM)#16 over IndexNlJoin(ORDER_LINE)#15"
        );
        assert_eq!(
            find(&|s, _| matches!(s, OperatorSpec::Sort { .. })),
            "Sort#17 over IndexNlJoin(ITEM)#16"
        );
    }

    /// The pages of fifty say so to what feeds them: the searches to the
    /// AUTHOR join under their Top-N, the best-seller page to the group-by.
    /// An author search ranks by a column the look-up fetches, the look-ups
    /// and the order display are cut nowhere: no demand.
    #[test]
    fn pages_demand_their_rows_of_the_join_and_the_group_by() {
        use shareddb_core::demand::push_down;
        let catalog = build_catalog(&TpcwScale::tiny()).unwrap();
        let (plan, mut registry) = build_shared_plan(&catalog).unwrap();
        push_down(&plan, &mut registry);
        registry.validate(&plan).unwrap();
        let demands = |statement: &str| -> Vec<String> {
            let (_, spec) = registry.get(statement).unwrap();
            let demanded = spec.activations.iter().filter_map(|(op, t)| match t {
                ActivationTemplate::Demand {
                    keys,
                    limit,
                    consumer,
                    ..
                } => {
                    let (at, to) = (&plan.node(*op).name, &plan.node(*consumer).name);
                    let columns: Vec<usize> = keys.iter().map(|k| k.column).collect();
                    Some(format!("{at} {limit} {columns:?} {to}"))
                }
                _ => None,
            });
            demanded.collect()
        };
        let join = "IndexNlJoin(AUTHOR)#4 50";
        assert_eq!(demands("doSubjectSearch"), [format!("{join} [1] TopN#5")]);
        assert_eq!(demands("doTitleSearch"), [format!("{join} [1] TopN#5")]);
        assert_eq!(demands("getNewProducts"), [format!("{join} [5, 1] TopN#9")]);
        assert_eq!(demands("getBestSellers"), ["GroupBy#12 50 [2, 0] TopN#13"]);
        for statement in ["doAuthorSearch", "getBook", "getCart", "getCustomerOrder"] {
            assert!(demands(statement).is_empty(), "{statement}");
        }
    }

    /// Every query statement returns the hand-written baseline's rows: the
    /// same multiset, and the same sequence of sort keys where it orders
    /// them (rows that tie on the keys may come in either order).
    #[test]
    fn every_query_returns_the_baselines_rows() {
        let (_, engine, baseline) = setup();
        let ints = |ids: &[i64]| ids.iter().map(|&i| vec![Value::Int(i)]).collect::<Vec<_>>();
        let texts = |texts: &[String]| {
            let texts = texts.iter().map(|t| vec![Value::text(t.as_str())]);
            texts.collect::<Vec<_>>()
        };
        let subjects: Vec<String> = SUBJECTS.iter().map(|s| s.to_string()).collect();
        let best_sellers = SUBJECTS
            .iter()
            .flat_map(|s| [0, 200].map(|threshold| vec![Value::text(*s), Value::Int(threshold)]));
        let unames: Vec<String> = [0, 7, 287, 9_999].map(customer_uname).to_vec();
        let titles = ["%BOOK 1%", "%OF BOOK 7%", "TITLE 1%", "%no such title%"];
        let authors = ["ALAST1%", "ALAST2%", "%AST3%", "NOBODY%"];
        // (statement, the keys it orders its rows by, the parameters tried)
        type Case = (&'static str, Vec<SortKey>, Vec<Vec<Value>>);
        let cases: Vec<Case> = vec![
            ("getCustomerByUname", vec![], texts(&unames)),
            ("getCustomerById", vec![], ints(&[0, 7, 287, 9_999])),
            ("getItemById", vec![], ints(&[0, 5, 17, 99, 1_000])),
            ("getBook", vec![], ints(&[0, 5, 17, 99, 1_000])),
            ("doSubjectSearch", vec![SortKey::asc(1)], texts(&subjects)),
            (
                "doTitleSearch",
                vec![SortKey::asc(1)],
                texts(&titles.map(String::from)),
            ),
            (
                "doAuthorSearch",
                vec![SortKey::asc(4)],
                texts(&authors.map(String::from)),
            ),
            (
                "getNewProducts",
                vec![SortKey::desc(5), SortKey::asc(1)],
                texts(&subjects),
            ),
            (
                "getBestSellers",
                vec![SortKey::desc(2), SortKey::asc(0)],
                best_sellers.collect(),
            ),
            (
                "getCustomerOrder",
                vec![SortKey::desc(2), SortKey::desc(0)],
                ints(&(0..24).collect::<Vec<_>>()),
            ),
            ("getCart", vec![], ints(&[0, 3, 17, 49, 500])),
        ];
        let queries = registry_queries(&engine);
        let covered: Vec<&str> = cases.iter().map(|(name, ..)| *name).collect();
        assert_eq!(covered, queries, "every query statement, in SQL order");
        for (statement, keys, calls) in &cases {
            let mut answered = 0;
            for params in calls {
                let shared = engine.execute_sync(statement, params).unwrap();
                let shared: Vec<Tuple> = shared.rows().to_vec();
                let base = baseline.execute_sync(statement, params).unwrap();
                let key_of = |row: &Tuple| -> Vec<Value> {
                    keys.iter().map(|k| row[k.column].clone()).collect()
                };
                let in_order = |rows: &[Tuple]| rows.iter().map(key_of).collect::<Vec<_>>();
                let multiset = |rows: &[Tuple]| {
                    let mut rows: Vec<Vec<Value>> =
                        rows.iter().map(|r| r.values().into_owned()).collect();
                    rows.sort();
                    rows
                };
                assert_eq!(in_order(&shared), in_order(&base), "{statement}{params:?}");
                assert_eq!(multiset(&shared), multiset(&base), "{statement}{params:?}");
                answered += usize::from(!base.is_empty());
            }
            assert!(
                answered * 2 >= calls.len(),
                "{statement}: {answered} answered"
            );
        }
    }

    /// The query statements of the compiled registry, in registration order.
    fn registry_queries(engine: &Engine) -> Vec<&'static str> {
        let queries = SQL.iter().map(|(name, _)| *name);
        let queries = queries.filter(|name| {
            let (_, spec) = engine.registry().get(name).unwrap();
            !spec.is_update()
        });
        queries.collect()
    }

    #[test]
    fn update_statements_roundtrip() {
        let (_, engine, _) = setup();
        // Create a cart, add a line, read it, clear it.
        engine
            .execute_sync("createCart", &[Value::Int(90_000), Value::Date(15_400)])
            .unwrap();
        engine
            .execute_sync(
                "addToCart",
                &[
                    Value::Int(90_001),
                    Value::Int(90_000),
                    Value::Int(5),
                    Value::Int(2),
                ],
            )
            .unwrap();
        let cart = engine
            .execute_sync("getCart", &[Value::Int(90_000)])
            .unwrap();
        assert_eq!(cart.rows().len(), 1);
        let cleared = engine
            .execute_sync("clearCart", &[Value::Int(90_000)])
            .unwrap();
        assert_eq!(cleared.rows_affected(), 1);
        let cart = engine
            .execute_sync("getCart", &[Value::Int(90_000)])
            .unwrap();
        assert!(cart.rows().is_empty());
    }
}
