//! The shared-join example of Section 1 and Figure 3 of the paper.
//!
//! Two query types over CUSTOMER ⨝ ORDERS:
//!   Q1: orders of German customers
//!   Q2: orders of Swiss customers placed in 2011
//!
//! SharedDB executes one big join over the union of German and Swiss
//! customers and routes results by query id; this example shows that the
//! per-query answers are identical to executing each query on its own, while
//! the join itself ran only once (visible in the operator statistics).
//!
//! Run with: `cargo run --release --example shared_join`

use shareddb::common::{tuple, DataType, Expr, Value};
use shareddb::core::plan::{ActivationTemplate, PlanBuilder, StatementSpec};
use shareddb::core::{Engine, EngineConfig, StatementRegistry};
use shareddb::storage::{Catalog, TableDef};
use std::sync::Arc;

fn main() -> shareddb::Result<()> {
    let catalog = Arc::new(Catalog::new());
    catalog.create_table(
        TableDef::new("CUSTOMER")
            .column("C_ID", DataType::Int)
            .column("C_NAME", DataType::Text)
            .column("C_COUNTRY", DataType::Text)
            .primary_key(&["C_ID"]),
    )?;
    catalog.create_table(
        TableDef::new("ORDERS")
            .column("O_ID", DataType::Int)
            .column("O_C_ID", DataType::Int)
            .column("O_YEAR", DataType::Int)
            .primary_key(&["O_ID"]),
    )?;
    let countries = ["DE", "CH", "FR", "IT", "AT"];
    catalog.bulk_load(
        "CUSTOMER",
        (0..500i64)
            .map(|i| {
                tuple![
                    i,
                    format!("customer{i}"),
                    countries[i as usize % countries.len()]
                ]
            })
            .collect(),
    )?;
    catalog.bulk_load(
        "ORDERS",
        (0..3_000i64)
            .map(|i| tuple![i, i % 500, 2008 + (i % 5)])
            .collect(),
    )?;

    // One shared customer-order join for both query types.
    let mut b = PlanBuilder::new(&catalog);
    let customers = b.table_scan("CUSTOMER")?;
    let orders = b.table_scan("ORDERS")?;
    let join = b.hash_join(customers, orders, "CUSTOMER.C_ID", "ORDERS.O_C_ID")?;
    let plan = b.build();

    let mut registry = StatementRegistry::new();
    // Q1: all orders of customers from country ?0.
    registry.register(
        StatementSpec::query("ordersByCountry", join)
            .activate(
                customers,
                ActivationTemplate::Scan {
                    predicate: Expr::col(2).eq(Expr::param(0)),
                },
            )
            .activate(
                orders,
                ActivationTemplate::Scan {
                    predicate: Expr::lit(true),
                },
            )
            .activate(join, ActivationTemplate::Participate),
    )?;
    // Q2: orders of customers from country ?0 placed in year ?1.
    registry.register(
        StatementSpec::query("ordersByCountryAndYear", join)
            .activate(
                customers,
                ActivationTemplate::Scan {
                    predicate: Expr::col(2).eq(Expr::param(0)),
                },
            )
            .activate(
                orders,
                ActivationTemplate::Scan {
                    predicate: Expr::col(2).eq(Expr::param(1)),
                },
            )
            .activate(join, ActivationTemplate::Participate),
    )?;

    let engine = Engine::start(
        Arc::clone(&catalog),
        plan,
        registry,
        EngineConfig::default(),
    )?;

    // Submit both query types (plus many concurrent instances) at once: they
    // are answered by a single shared join per batch.
    let q1 = engine.execute("ordersByCountry", &[Value::text("DE")])?;
    let q2 = engine.execute(
        "ordersByCountryAndYear",
        &[Value::text("CH"), Value::Int(2011)],
    )?;
    let more: Vec<_> = (0..200)
        .map(|i| {
            engine
                .execute(
                    "ordersByCountryAndYear",
                    &[
                        Value::text(countries[i % countries.len()]),
                        Value::Int(2008 + (i as i64 % 5)),
                    ],
                )
                .unwrap()
        })
        .collect();

    let q1_rows = q1.wait()?.rows().len();
    let q2_rows = q2.wait()?.rows().len();
    let mut other_rows = 0;
    for h in more {
        other_rows += h.wait()?.rows().len();
    }
    println!("Q1 (orders of German customers):            {q1_rows} rows");
    println!("Q2 (orders of Swiss customers in 2011):     {q2_rows} rows");
    println!("200 further concurrent join queries:        {other_rows} rows");

    println!("\nPer-operator statistics (note: ONE join operator served everything):");
    for op in engine.stats().operators {
        if op.active_cycles > 0 {
            println!(
                "  {:<22} cycles={} tuples_out={} busy={:?}",
                op.name, op.active_cycles, op.tuples_out, op.busy
            );
        }
    }
    Ok(())
}
