//! Network quickstart: start a SharedDB server from a SQL workload, connect a
//! few clients over TCP, and watch many concurrent statements being answered
//! by a handful of shared batches.
//!
//! Run with: `cargo run --example network_quickstart`

use shareddb::client::Connection;
use shareddb::common::{tuple, DataType, Value};
use shareddb::core::EngineConfig;
use shareddb::server::{Server, ServerConfig};
use shareddb::storage::{Catalog, TableDef};
use std::sync::Arc;

fn main() {
    // 1. A catalog with one table of books.
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("BOOK")
                .column("B_ID", DataType::Int)
                .column("B_TITLE", DataType::Text)
                .column("B_PRICE", DataType::Float)
                .primary_key(&["B_ID"]),
        )
        .unwrap();
    catalog
        .bulk_load(
            "BOOK",
            (0..1_000i64)
                .map(|i| tuple![i, format!("Book #{i}"), (i % 90) as f64 + 9.99])
                .collect(),
        )
        .unwrap();

    // 2. The workload: recurring statement types, compiled into ONE shared
    //    global plan. Ad-hoc SQL sent by clients is matched against these.
    let workload: &[(&str, &str)] = &[
        ("bookById", "SELECT * FROM BOOK WHERE B_ID = ?"),
        (
            "cheapBooks",
            "SELECT * FROM BOOK WHERE B_PRICE < ? ORDER BY B_PRICE LIMIT 5",
        ),
        ("addBook", "INSERT INTO BOOK VALUES (?, ?, ?)"),
    ];

    // 3. Start the network frontend (an ephemeral local port).
    let mut server = Server::start_sql(
        Arc::new(catalog),
        workload,
        EngineConfig::default(),
        ServerConfig {
            // Allow deep pipelines; requests beyond this are rejected with a
            // retryable "overloaded" error (admission control).
            max_inflight_per_session: 256,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    println!("server listening on {addr}");

    // 4. A pipelining client: 200 look-ups in flight on one connection.
    let mut conn = Connection::connect(addr).unwrap();
    let book_by_id = conn.prepare("bookById").unwrap();
    let tickets: Vec<_> = (0..200)
        .map(|i| conn.submit(&book_by_id, &[Value::Int(i)]).unwrap())
        .collect();
    let mut rows = 0;
    for ticket in tickets {
        rows += conn.wait(ticket).unwrap().rows().len();
    }
    println!("pipelined 200 look-ups -> {rows} rows");

    // 5. Ad-hoc SQL is auto-parameterised onto the compiled statement types.
    let outcome = conn.query("SELECT * FROM BOOK WHERE B_ID = 42").unwrap();
    println!("ad-hoc query -> {:?}", outcome.rows()[0][1]);
    let outcome = conn
        .query("INSERT INTO BOOK VALUES (5000, 'Network Book', 19.99)")
        .unwrap();
    println!("ad-hoc insert -> {} row(s)", outcome.rows_affected());

    // 6. More connections, all funnelled into the same shared batches.
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                let mut conn = Connection::connect(addr).unwrap();
                let cheap = conn.prepare("cheapBooks").unwrap();
                for i in 0..50 {
                    let max = 10.0 + (t * 50 + i) as f64 / 10.0;
                    conn.execute(&cheap, &[Value::Float(max)]).unwrap();
                }
                conn.close().unwrap();
            });
        }
    });

    let stats = server.engine_stats().unwrap();
    println!(
        "server answered {} queries + {} updates in {} shared batches",
        stats.queries, stats.updates, stats.batches
    );
    conn.close().unwrap();
    server.shutdown();
}
