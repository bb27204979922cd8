//! Quickstart: create tables, build a global plan, register prepared
//! statements, start the engine, and run many concurrent parameterised
//! queries through one shared plan.
//!
//! Run with: `cargo run --release --example quickstart`

use shareddb::common::agg::AggregateFunction;
use shareddb::common::metrics::HistogramSnapshot;
use shareddb::common::{tuple, DataType, Expr, SortKey, Value};
use shareddb::core::plan::{ActivationTemplate, PlanBuilder, StatementSpec, UpdateTemplate};
use shareddb::core::{Engine, EngineConfig, Phase, StatementRegistry};
use shareddb::storage::{Catalog, TableDef};
use std::sync::Arc;

fn main() -> shareddb::Result<()> {
    // 1. Create the schema and load some data.
    let catalog = Arc::new(Catalog::new());
    catalog.create_table(
        TableDef::new("USERS")
            .column("USER_ID", DataType::Int)
            .column("USERNAME", DataType::Text)
            .column("COUNTRY", DataType::Text)
            .column("ACCOUNT", DataType::Int)
            .primary_key(&["USER_ID"]),
    )?;
    catalog.create_table(
        TableDef::new("ORDERS")
            .column("ORDER_ID", DataType::Int)
            .column("USER_ID", DataType::Int)
            .column("STATUS", DataType::Text)
            .primary_key(&["ORDER_ID"]),
    )?;
    catalog.bulk_load(
        "USERS",
        (0..1_000i64)
            .map(|i| {
                tuple![
                    i,
                    format!("user{i}"),
                    if i % 3 == 0 { "CH" } else { "DE" },
                    i * 7
                ]
            })
            .collect(),
    )?;
    catalog.bulk_load(
        "ORDERS",
        (0..5_000i64)
            .map(|i| tuple![i, i % 1_000, if i % 4 == 0 { "OK" } else { "PENDING" }])
            .collect(),
    )?;

    // 2. Compile the workload into ONE global plan (Figure 2 of the paper):
    //    shared scans, one shared join, one shared group-by.
    let mut builder = PlanBuilder::new(&catalog);
    let users = builder.table_scan("USERS")?;
    let orders = builder.table_scan("ORDERS")?;
    let join = builder.hash_join(users, orders, "USERS.USER_ID", "ORDERS.USER_ID")?;
    let join_sorted = builder.sort(join, vec![SortKey::asc(4)])?;
    let by_country = builder.group_by(
        users,
        vec!["USERS.COUNTRY"],
        vec![(AggregateFunction::Sum, "USERS.ACCOUNT", "TOTAL_ACCOUNT")],
    )?;
    let plan = builder.build();
    println!("Global plan:\n{}", plan.render());

    // 3. Register the prepared statements of the application.
    let mut registry = StatementRegistry::new();
    registry.register(
        StatementSpec::query("ordersOfUser", join_sorted)
            .activate(
                users,
                ActivationTemplate::Scan {
                    predicate: Expr::named("USERNAME")
                        .eq(Expr::param(0))
                        .resolve(&plan.node(users).schema)?,
                },
            )
            .activate(
                orders,
                ActivationTemplate::Scan {
                    predicate: Expr::col(2).eq(Expr::lit("OK")),
                },
            )
            .activate(join, ActivationTemplate::Participate)
            .activate(join_sorted, ActivationTemplate::Participate),
    )?;
    registry.register(
        StatementSpec::query("accountsByCountry", by_country)
            .activate(
                users,
                ActivationTemplate::Scan {
                    predicate: Expr::lit(true),
                },
            )
            .activate(by_country, ActivationTemplate::Having { predicate: None }),
    )?;
    registry.register(StatementSpec::update(
        "placeOrder",
        "ORDERS",
        UpdateTemplate::Insert {
            values: vec![Expr::param(0), Expr::param(1), Expr::lit("OK")],
        },
    ))?;

    // 4. Start the engine and fire hundreds of concurrent queries: they are
    //    batched and answered by ONE shared join, ONE shared sort and ONE
    //    shared group-by per batch.
    let engine = Engine::start(catalog, plan, registry, EngineConfig::default())?;
    let handles: Vec<_> = (0..500)
        .map(|i| {
            engine
                .execute("ordersOfUser", &[Value::text(format!("user{}", i % 1_000))])
                .expect("submit query")
        })
        .collect();
    let mut total_rows = 0;
    for handle in handles {
        total_rows += handle.wait()?.rows().len();
    }
    println!("500 concurrent ordersOfUser queries returned {total_rows} rows in total");

    let outcome = engine.execute_sync("placeOrder", &[Value::Int(10_000), Value::Int(7)])?;
    println!("placeOrder affected {} row(s)", outcome.rows_affected());

    let report = engine.execute_sync("accountsByCountry", &[])?;
    for row in report.rows() {
        println!("country {} -> total account {}", row[0], row[1]);
    }

    // Every statement's end-to-end latency is its `Total` phase.
    let stats = engine.stats();
    let mut latency = HistogramSnapshot::default();
    for statement in &stats.phases {
        latency.merge_from(statement.phase(Phase::Total));
    }
    println!(
        "engine processed {} queries / {} updates in {} batches (mean latency {:.0} µs)",
        stats.queries,
        stats.updates,
        stats.batches,
        latency.mean_us()
    );
    Ok(())
}
