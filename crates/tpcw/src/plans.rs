//! The TPC-W global query plan (Figure 6 of the paper) and the equivalent
//! per-query plans for the query-at-a-time baselines.
//!
//! All prepared statements of the workload are registered under the same
//! names against both engines, so the workload driver can run the identical
//! interaction stream against SharedDB and the baselines.

use shareddb_baseline::{BaselineStatement, ClassicEngine, QueryPlan};
use shareddb_common::agg::AggregateFunction;
use shareddb_common::{Expr, Result, SortKey};
use shareddb_core::plan::{
    ActivationTemplate, GlobalPlan, PlanBuilder, ProbeTemplate, StatementRegistry, StatementSpec,
    UpdateTemplate,
};
use shareddb_storage::{Catalog, UpdateOp};

/// Default result-page size of the search / best-seller statements.
pub const PAGE_SIZE: usize = 50;

/// Builds the SharedDB global plan and statement registry for TPC-W.
///
/// The plan contains the shared scans and index probes of the base tables
/// plus the shared joins, group-by, sorts and Top-N operators that serve all
/// fourteen web interactions — the reproduction of Figure 6.
pub fn build_shared_plan(catalog: &Catalog) -> Result<(GlobalPlan, StatementRegistry)> {
    let mut b = PlanBuilder::new(catalog);

    // Storage access paths.
    let item_scan = b.table_scan("ITEM")?;
    let author_scan = b.table_scan("AUTHOR")?;
    let orderline_scan = b.table_scan("ORDER_LINE")?;
    let scl_scan = b.table_scan("SHOPPING_CART_LINE")?;
    let item_probe = b.index_probe("ITEM")?;
    let customer_probe = b.index_probe("CUSTOMER")?;
    let orders_probe = b.index_probe("ORDERS")?;

    // Search pipeline: ITEM scan -> join AUTHOR -> Top-N (by title / by date).
    let item_author_nl = b.index_nl_join(item_scan, "AUTHOR", "ITEM.I_A_ID", "A_ID")?;
    let search_topn = b.top_n(
        item_author_nl,
        vec![SortKey::asc(1)], // ITEM.I_TITLE
    )?;
    let newprod_topn = b.top_n(
        item_author_nl,
        vec![SortKey::desc(5), SortKey::asc(1)], // ITEM.I_PUB_DATE desc
    )?;

    // Author search pipeline: AUTHOR scan -> join ITEM -> Top-N by title.
    let author_items_nl = b.index_nl_join(author_scan, "ITEM", "AUTHOR.A_ID", "I_A_ID")?;
    let author_topn = b.top_n(
        author_items_nl,
        vec![SortKey::asc(4)], // ITEM.I_TITLE after the 3 AUTHOR columns
    )?;

    // Best sellers pipeline: ITEM scan ⨝ ORDER_LINE scan -> Γ -> Top-N.
    let bestseller_join =
        b.hash_join(item_scan, orderline_scan, "ITEM.I_ID", "ORDER_LINE.OL_I_ID")?;
    let bestseller_group = b.group_by(
        bestseller_join,
        vec!["ITEM.I_ID", "ITEM.I_TITLE"],
        vec![(AggregateFunction::Sum, "ORDER_LINE.OL_QTY", "TOTAL_SOLD")],
    )?;
    let bestseller_topn = b.top_n(bestseller_group, vec![SortKey::desc(2), SortKey::asc(0)])?;

    // Product detail / admin pipeline: ITEM probe -> join AUTHOR.
    let detail_nl = b.index_nl_join(item_probe, "AUTHOR", "ITEM.I_A_ID", "A_ID")?;

    // Order display pipeline: ORDERS probe -> ORDER_LINE -> ITEM -> sort.
    let order_lines_nl = b.index_nl_join(orders_probe, "ORDER_LINE", "ORDERS.O_ID", "OL_O_ID")?;
    let order_items_nl = b.index_nl_join(order_lines_nl, "ITEM", "ORDER_LINE.OL_I_ID", "I_ID")?;
    let order_sort = b.sort(order_items_nl, vec![SortKey::desc(2), SortKey::desc(0)])?;

    // Shopping cart pipeline: SHOPPING_CART_LINE scan -> join ITEM.
    let cart_items_nl = b.index_nl_join(scl_scan, "ITEM", "SHOPPING_CART_LINE.SCL_I_ID", "I_ID")?;

    let plan = b.build();

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------
    let mut registry = StatementRegistry::new();

    // Point look-ups.
    registry.register(
        StatementSpec::query("getCustomerByUname", customer_probe).activate(
            customer_probe,
            ActivationTemplate::Probe {
                column: 1,
                range: ProbeTemplate::Key(Expr::param(0)),
                residual: None,
            },
        ),
    )?;
    registry.register(
        StatementSpec::query("getCustomerById", customer_probe).activate(
            customer_probe,
            ActivationTemplate::Probe {
                column: 0,
                range: ProbeTemplate::Key(Expr::param(0)),
                residual: None,
            },
        ),
    )?;
    registry.register(StatementSpec::query("getItemById", item_probe).activate(
        item_probe,
        ActivationTemplate::Probe {
            column: 0,
            range: ProbeTemplate::Key(Expr::param(0)),
            residual: None,
        },
    ))?;
    registry.register(
        StatementSpec::query("getBook", detail_nl)
            .activate(
                item_probe,
                ActivationTemplate::Probe {
                    column: 0,
                    range: ProbeTemplate::Key(Expr::param(0)),
                    residual: None,
                },
            )
            .activate(detail_nl, ActivationTemplate::Participate),
    )?;

    // Searches.
    registry.register(
        StatementSpec::query("doSubjectSearch", search_topn)
            .activate(
                item_scan,
                ActivationTemplate::Scan {
                    predicate: Expr::col(3).eq(Expr::param(0)),
                },
            )
            .activate(item_author_nl, ActivationTemplate::Participate)
            .activate(search_topn, ActivationTemplate::TopN { limit: PAGE_SIZE }),
    )?;
    registry.register(
        StatementSpec::query("doTitleSearch", search_topn)
            .activate(
                item_scan,
                ActivationTemplate::Scan {
                    predicate: Expr::col(1).like(Expr::param(0)),
                },
            )
            .activate(item_author_nl, ActivationTemplate::Participate)
            .activate(search_topn, ActivationTemplate::TopN { limit: PAGE_SIZE }),
    )?;
    registry.register(
        StatementSpec::query("doAuthorSearch", author_topn)
            .activate(
                author_scan,
                ActivationTemplate::Scan {
                    predicate: Expr::col(2).like(Expr::param(0)),
                },
            )
            .activate(author_items_nl, ActivationTemplate::Participate)
            .activate(author_topn, ActivationTemplate::TopN { limit: PAGE_SIZE }),
    )?;
    registry.register(
        StatementSpec::query("getNewProducts", newprod_topn)
            .activate(
                item_scan,
                ActivationTemplate::Scan {
                    predicate: Expr::col(3).eq(Expr::param(0)),
                },
            )
            .activate(item_author_nl, ActivationTemplate::Participate)
            .activate(newprod_topn, ActivationTemplate::TopN { limit: PAGE_SIZE }),
    )?;

    // Best sellers: analyse order lines of the most recent orders
    // (param 1 = smallest order id considered) for one subject (param 0).
    registry.register(
        StatementSpec::query("getBestSellers", bestseller_topn)
            .activate(
                item_scan,
                ActivationTemplate::Scan {
                    predicate: Expr::col(3).eq(Expr::param(0)),
                },
            )
            .activate(
                orderline_scan,
                ActivationTemplate::Scan {
                    predicate: Expr::col(1).gt_eq(Expr::param(1)),
                },
            )
            .activate(bestseller_join, ActivationTemplate::Participate)
            .activate(
                bestseller_group,
                ActivationTemplate::Having { predicate: None },
            )
            .activate(
                bestseller_topn,
                ActivationTemplate::TopN { limit: PAGE_SIZE },
            ),
    )?;

    // Shopping cart and orders.
    registry.register(
        StatementSpec::query("getCart", cart_items_nl)
            .activate(
                scl_scan,
                ActivationTemplate::Scan {
                    predicate: Expr::col(1).eq(Expr::param(0)),
                },
            )
            .activate(cart_items_nl, ActivationTemplate::Participate),
    )?;
    registry.register(
        StatementSpec::query("getCustomerOrder", order_sort)
            .activate(
                orders_probe,
                ActivationTemplate::Probe {
                    column: 1,
                    range: ProbeTemplate::Key(Expr::param(0)),
                    residual: None,
                },
            )
            .activate(order_lines_nl, ActivationTemplate::Participate)
            .activate(order_items_nl, ActivationTemplate::Participate)
            .activate(order_sort, ActivationTemplate::Participate),
    )?;

    // Updates.
    registry.register(StatementSpec::update(
        "createCart",
        "SHOPPING_CART",
        UpdateTemplate::Insert {
            values: vec![Expr::param(0), Expr::param(1)],
        },
    ))?;
    registry.register(StatementSpec::update(
        "addToCart",
        "SHOPPING_CART_LINE",
        UpdateTemplate::Insert {
            values: vec![
                Expr::param(0),
                Expr::param(1),
                Expr::param(2),
                Expr::param(3),
            ],
        },
    ))?;
    registry.register(StatementSpec::update(
        "refreshCart",
        "SHOPPING_CART_LINE",
        UpdateTemplate::Update {
            assignments: vec![(3, Expr::param(2))],
            predicate: Expr::col(1)
                .eq(Expr::param(0))
                .and(Expr::col(2).eq(Expr::param(1))),
        },
    ))?;
    registry.register(StatementSpec::update(
        "clearCart",
        "SHOPPING_CART_LINE",
        UpdateTemplate::Delete {
            predicate: Expr::col(1).eq(Expr::param(0)),
        },
    ))?;
    registry.register(StatementSpec::update(
        "createOrder",
        "ORDERS",
        UpdateTemplate::Insert {
            values: vec![
                Expr::param(0),
                Expr::param(1),
                Expr::param(2),
                Expr::param(3),
                Expr::lit("PENDING"),
            ],
        },
    ))?;
    registry.register(StatementSpec::update(
        "addOrderLine",
        "ORDER_LINE",
        UpdateTemplate::Insert {
            values: vec![
                Expr::param(0),
                Expr::param(1),
                Expr::param(2),
                Expr::param(3),
            ],
        },
    ))?;
    registry.register(StatementSpec::update(
        "addCCXact",
        "CC_XACTS",
        UpdateTemplate::Insert {
            values: vec![
                Expr::param(0),
                Expr::lit("VISA"),
                Expr::param(1),
                Expr::param(2),
            ],
        },
    ))?;
    registry.register(StatementSpec::update(
        "adminUpdateItem",
        "ITEM",
        UpdateTemplate::Update {
            assignments: vec![(4, Expr::param(1)), (5, Expr::param(2))],
            predicate: Expr::col(0).eq(Expr::param(0)),
        },
    ))?;
    registry.register(StatementSpec::update(
        "updateCustomerLogin",
        "CUSTOMER",
        UpdateTemplate::Update {
            assignments: vec![(6, Expr::param(1))],
            predicate: Expr::col(0).eq(Expr::param(0)),
        },
    ))?;
    registry.register(StatementSpec::update(
        "createCustomer",
        "CUSTOMER",
        UpdateTemplate::Insert {
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
    ))?;

    registry.validate(&plan)?;
    Ok((plan, registry))
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
/// [`register_baseline_statements`]; used by tests to verify parity.
pub fn statement_names() -> Vec<&'static str> {
    vec![
        "getCustomerByUname",
        "getCustomerById",
        "getItemById",
        "getBook",
        "doSubjectSearch",
        "doTitleSearch",
        "doAuthorSearch",
        "getNewProducts",
        "getBestSellers",
        "getCart",
        "getCustomerOrder",
        "createCart",
        "addToCart",
        "refreshCart",
        "clearCart",
        "createOrder",
        "addOrderLine",
        "addCCXact",
        "adminUpdateItem",
        "updateCustomerLogin",
        "createCustomer",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{build_catalog, TpcwScale, SUBJECTS};
    use shareddb_baseline::EngineProfile;
    use shareddb_common::Value;
    use shareddb_core::{Engine, EngineConfig};
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

    #[test]
    fn plan_has_figure6_scale() {
        let catalog = build_catalog(&TpcwScale::tiny()).unwrap();
        let (plan, registry) = build_shared_plan(&catalog).unwrap();
        // The paper's TPC-W plan has 26 operators plus storage access paths;
        // ours is in the same ballpark and covers all statement types.
        assert!(plan.len() >= 18, "plan has {} operators", plan.len());
        assert_eq!(registry.len(), statement_names().len());
        let census = plan.operator_census();
        assert!(census.keys().any(|k| k.starts_with("HashJoin")));
        assert!(census.keys().any(|k| k.starts_with("GroupBy")));
        assert!(census.keys().any(|k| k.starts_with("TopN")));
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
        let join = "IndexNlJoin(AUTHOR)#7 50";
        assert_eq!(demands("doSubjectSearch"), [format!("{join} [1] TopN#8")]);
        assert_eq!(demands("doTitleSearch"), [format!("{join} [1] TopN#8")]);
        assert_eq!(demands("getNewProducts"), [format!("{join} [5, 1] TopN#9")]);
        assert_eq!(demands("getBestSellers"), ["GroupBy#13 50 [2, 0] TopN#14"]);
        for statement in ["doAuthorSearch", "getBook", "getCart", "getCustomerOrder"] {
            assert!(demands(statement).is_empty(), "{statement}");
        }
    }

    #[test]
    fn shared_and_baseline_agree_on_point_queries() {
        let (_, engine, baseline) = setup();
        for id in [0i64, 5, 17] {
            let shared = engine
                .execute_sync("getItemById", &[Value::Int(id)])
                .unwrap();
            let base = baseline
                .execute_sync("getItemById", &[Value::Int(id)])
                .unwrap();
            assert_eq!(shared.rows().len(), 1);
            assert_eq!(base.len(), 1);
            assert_eq!(shared.rows()[0], base[0]);
        }
        let shared = engine
            .execute_sync("getCustomerByUname", &[Value::text("UNAME7")])
            .unwrap();
        let base = baseline
            .execute_sync("getCustomerByUname", &[Value::text("UNAME7")])
            .unwrap();
        assert_eq!(shared.rows()[0], base[0]);
    }

    #[test]
    fn shared_and_baseline_agree_on_searches() {
        let (_, engine, baseline) = setup();
        let subject = Value::text(SUBJECTS[3]);
        let shared = engine
            .execute_sync("doSubjectSearch", std::slice::from_ref(&subject))
            .unwrap();
        let base = baseline
            .execute_sync("doSubjectSearch", std::slice::from_ref(&subject))
            .unwrap();
        assert_eq!(shared.rows().len(), base.len());
        assert!(!shared.rows().is_empty());
        // Both sorted by title ascending.
        assert_eq!(shared.rows()[0][1], base[0][1]);

        let shared = engine
            .execute_sync("doTitleSearch", &[Value::text("%BOOK 1%")])
            .unwrap();
        let base = baseline
            .execute_sync("doTitleSearch", &[Value::text("%BOOK 1%")])
            .unwrap();
        assert_eq!(shared.rows().len(), base.len());
    }

    #[test]
    fn best_sellers_agree_and_are_ranked() {
        let (_, engine, baseline) = setup();
        let params = [Value::text(SUBJECTS[0]), Value::Int(0)];
        let shared = engine.execute_sync("getBestSellers", &params).unwrap();
        let base = baseline.execute_sync("getBestSellers", &params).unwrap();
        assert_eq!(shared.rows().len(), base.len());
        if shared.rows().len() >= 2 {
            // Ranked by total sold, descending.
            assert!(shared.rows()[0][2] >= shared.rows()[1][2]);
        }
        // Row sets agree (same items and totals).
        assert_eq!(shared.rows().to_vec(), base);
    }

    #[test]
    fn order_display_and_cart_queries() {
        let (_, engine, baseline) = setup();
        let shared = engine
            .execute_sync("getCustomerOrder", &[Value::Int(1)])
            .unwrap();
        let base = baseline
            .execute_sync("getCustomerOrder", &[Value::Int(1)])
            .unwrap();
        assert_eq!(shared.rows().len(), base.len());

        let shared = engine.execute_sync("getCart", &[Value::Int(3)]).unwrap();
        let base = baseline.execute_sync("getCart", &[Value::Int(3)]).unwrap();
        assert_eq!(shared.rows().len(), base.len());
        assert_eq!(shared.rows().len(), 1);
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
