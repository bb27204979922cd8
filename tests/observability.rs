//! End-to-end observability tests: the `/metrics` Prometheus endpoint served
//! on the binary-protocol port against what the engines report in process,
//! the shape of the exposition, the slow-query log, and stats reset.

use shareddb::client::{Connection, Outcome};
use shareddb::common::{tuple, DataType, Value};
use shareddb::core::stats::{Phase, StatementPhaseSnapshot};
use shareddb::core::EngineConfig;
use shareddb::server::{Server, ServerConfig};
use shareddb::storage::{Catalog, TableDef};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn catalog() -> Arc<Catalog> {
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("ITEM")
                .column("I_ID", DataType::Int)
                .column("I_TITLE", DataType::Text)
                .column("I_COST", DataType::Float)
                .primary_key(&["I_ID"]),
        )
        .unwrap();
    catalog
        .bulk_load(
            "ITEM",
            (0..200i64)
                .map(|i| tuple![i, format!("title{i}"), (i % 50) as f64])
                .collect(),
        )
        .unwrap();
    Arc::new(catalog)
}

const WORKLOAD: &[(&str, &str)] = &[
    ("getItem", "SELECT * FROM ITEM WHERE I_ID = ?"),
    ("addItem", "INSERT INTO ITEM VALUES (?, ?, ?)"),
];

fn start_server(engine_config: EngineConfig) -> Server {
    Server::start_sql(catalog(), WORKLOAD, engine_config, ServerConfig::default()).unwrap()
}

/// One raw HTTP exchange against the server's wire port; returns the full
/// response (status line, headers, body).
fn http_exchange(addr: std::net::SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// Waits until the server's engine holds `n` statements queued: what a
/// client sent has been read and submitted behind a held batch.
fn queued(server: &Server, n: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.queued() != n {
        assert!(std::time::Instant::now() < deadline, "never {n} queued");
        std::thread::yield_now();
    }
}

/// The phase histograms of one statement type, read from the engine that
/// recorded them.
fn engine_phases(server: &Server, statement: &str) -> StatementPhaseSnapshot {
    let phases = server.with_engine(|e| e.stats().phases);
    let mut phases = phases.unwrap().into_iter();
    phases.find(|s| s.statement == statement).unwrap()
}

/// The wire port answers plain HTTP GETs with a well-formed Prometheus text
/// exposition carrying nonzero phase histograms, while binary-protocol
/// sessions stay connected; the engine's own phase tables say the same.
#[test]
fn metrics_endpoint_serves_phase_histograms() {
    const QUERIES: usize = 32;
    let mut server = start_server(EngineConfig::default());
    let addr = server.local_addr();

    let mut conn = Connection::connect(addr).unwrap();
    let prepared = conn.prepare("getItem").unwrap();
    for i in 0..QUERIES {
        let outcome = conn
            .execute(&prepared, &[Value::Int(i as i64 % 200)])
            .unwrap();
        assert_eq!(outcome.rows().len(), 1);
    }

    let response = http_exchange(addr, b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(
        response.starts_with("HTTP/1.1 200 OK"),
        "unexpected status: {}",
        response.lines().next().unwrap_or("")
    );
    let body = response.split_once("\r\n\r\n").unwrap().1;

    // Well-formed exposition: every line is a comment or `name[{labels}] value`
    // with a parseable numeric value.
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("malformed exposition line: {line:?}");
        });
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample in line: {line:?}"
        );
        assert!(
            series.chars().next().unwrap().is_ascii_alphabetic(),
            "bad series name in line: {line:?}"
        );
    }
    // The phase histograms for the exercised statement are present and
    // nonzero, and the frontend flush phase exists.
    let count_of = |needle: &str| -> u64 {
        body.lines()
            .find(|l| l.contains(needle) && l.contains("_count"))
            .and_then(|l| l.rsplit_once(' '))
            .and_then(|(_, v)| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("missing series {needle}"))
    };
    for phase in ["admission", "batch_wait", "execute", "total"] {
        let series = format!("{{statement=\"getItem\",phase=\"{phase}\"}}");
        assert_eq!(count_of(&series), QUERIES as u64, "phase {phase}");
    }
    assert_eq!(
        count_of("{statement=\"getItem\",phase=\"flush\"}"),
        QUERIES as u64
    );
    assert!(body.contains("shareddb_metrics_scrapes 1"));

    // The still-open binary session keeps working after the scrape, and the
    // engine's and the frontend's phase tables agree with the exposition.
    let outcome = conn.execute(&prepared, &[Value::Int(7)]).unwrap();
    assert_eq!(outcome.rows().len(), 1);
    let phases = engine_phases(&server, "getItem");
    let execute = phases.phase(Phase::Execute);
    assert_eq!(execute.count, QUERIES as u64 + 1);
    let [p50, p95, p99] = [0.50, 0.95, 0.99].map(|p| execute.percentile_us(p));
    assert!(p50 <= p95 && p95 <= p99 && p99 <= execute.max_us);
    assert!(execute.mean_us() <= execute.max_us as f64);
    assert!(phases.phase(Phase::Flush).count >= QUERIES as u64);
    assert!(!body.contains("replica="));

    let _ = conn.close();
    server.shutdown();
}

/// A coordinator books a batch (count, occupancy) after it has handed out
/// the replies: a scrape that wants the last reply's batch waits for it.
/// Statements sent one at a time are one batch each.
fn wait_for_batches(server: &Server, batches: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.engine_stats().unwrap().batches < batches {
        assert!(
            std::time::Instant::now() < deadline,
            "a batch went unbooked"
        );
        std::thread::yield_now();
    }
}

/// The value of one sample of a `/metrics` scrape.
fn scrape_sample(addr: std::net::SocketAddr, series: &str) -> Option<u64> {
    let response = http_exchange(addr, b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    let (series, value) = response
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .find(|(name, _)| *name == series)?;
    Some(value.parse().unwrap_or_else(|_| panic!("{series} {value}")))
}

/// `shareddb_engine_failed` and the engine's own counter count a statement
/// failed by its batch once.
#[test]
fn engine_failed_counts_one_per_failed_statement() {
    use shareddb::common::Expr;
    use shareddb::core::plan::{ActivationTemplate, PlanBuilder, StatementSpec};
    use shareddb::core::StatementRegistry;

    let catalog = catalog();
    let mut b = PlanBuilder::new(&catalog);
    let scan = b.table_scan("ITEM").unwrap();
    let filter = b.filter(scan).unwrap();
    let plan = b.build();
    let mut registry = StatementRegistry::new();
    // The filter's predicate is a text column, not a boolean.
    let broken = StatementSpec::query("broken", filter)
        .activate(
            scan,
            ActivationTemplate::Scan {
                predicate: Expr::lit(true),
            },
        )
        .activate(
            filter,
            ActivationTemplate::Filter {
                predicate: Expr::col(1),
            },
        );
    registry.register(broken).unwrap();
    let engine_config = EngineConfig::default();
    let server_config = ServerConfig::default();
    let mut server = Server::start(catalog, plan, registry, engine_config, server_config).unwrap();
    let addr = server.local_addr();
    let mut conn = Connection::connect(addr).unwrap();
    let broken = conn.prepare("broken").unwrap();
    for _ in 0..3 {
        conn.execute(&broken, &[]).unwrap_err();
    }
    assert_eq!(scrape_sample(addr, "shareddb_engine_failed"), Some(3));
    assert_eq!(server.engine_stats().unwrap().failed, 3);
    let _ = conn.close();
    server.shutdown();
}

/// Malformed HTTP on the shared port gets clean error responses without
/// disturbing binary sessions: 404 unknown path, 405 non-GET, 400 garbled
/// request line, 400 oversized header block.
#[test]
fn metrics_endpoint_rejects_malformed_http() {
    let mut server = start_server(EngineConfig::default());
    let addr = server.local_addr();

    // A live binary session that must survive all the HTTP noise below.
    let mut conn = Connection::connect(addr).unwrap();
    let prepared = conn.prepare("getItem").unwrap();

    let not_found = http_exchange(addr, b"GET /other HTTP/1.1\r\n\r\n");
    assert!(not_found.starts_with("HTTP/1.1 404"), "{not_found}");

    let bad_method = http_exchange(addr, b"POST /metrics HTTP/1.1\r\n\r\n");
    assert!(bad_method.starts_with("HTTP/1.1 405"), "{bad_method}");

    let garbled = http_exchange(addr, b"GET /metrics BADPROTO\r\n\r\n");
    assert!(garbled.starts_with("HTTP/1.1 400"), "{garbled}");

    let no_slash = http_exchange(addr, b"GET metrics HTTP/1.1\r\n\r\n");
    assert!(no_slash.starts_with("HTTP/1.1 400"), "{no_slash}");

    // Header block larger than the 8 KiB cap, never terminated: the server
    // answers 400 instead of buffering forever.
    let mut oversized = b"GET /metrics HTTP/1.1\r\n".to_vec();
    while oversized.len() <= 9 * 1024 {
        oversized.extend_from_slice(b"X-Filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    let too_large = http_exchange(addr, &oversized);
    assert!(too_large.starts_with("HTTP/1.1 400"), "{too_large}");

    // HEAD is allowed and returns headers only.
    let head = http_exchange(addr, b"HEAD /metrics HTTP/1.1\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(head.split_once("\r\n\r\n").unwrap().1, "");

    let outcome = conn.execute(&prepared, &[Value::Int(3)]).unwrap();
    assert_eq!(outcome.rows().len(), 1);
    let _ = conn.close();
    server.shutdown();
}

/// The slow-query log fires exactly once per offending statement — every
/// execution with a sub-microsecond threshold, none with a huge one — and
/// each record carries the full phase breakdown.
#[test]
fn slow_query_log_fires_exactly_for_offenders() {
    const QUERIES: usize = 12;

    // Threshold below any possible latency: every statement is an offender.
    let mut server =
        start_server(EngineConfig::default().slow_query(Some(Duration::from_nanos(1))));
    let addr = server.local_addr();
    let mut conn = Connection::connect(addr).unwrap();
    let prepared = conn.prepare("getItem").unwrap();
    for i in 0..QUERIES {
        conn.execute(&prepared, &[Value::Int(i as i64)]).unwrap();
    }
    let slow_log = |e: &shareddb::core::Engine| (e.slow_query_count(), e.slow_queries());
    let (count, records) = server.with_engine(slow_log).unwrap();
    assert_eq!(count, QUERIES as u64);
    assert_eq!(records.len(), QUERIES);
    let name = |index| server.with_engine(|e| e.registry().by_index(index).name.clone());
    for record in &records {
        assert_eq!(name(record.statement).unwrap(), "getItem");
        assert!(record.total >= record.batch_wait);
        assert!(record.total >= record.execute);
        assert!(record.total >= Duration::from_nanos(1));
    }
    // The exposition carries the counter.
    let response = http_exchange(addr, b"GET /metrics HTTP/1.1\r\n\r\n");
    assert!(response.contains(&format!("shareddb_slow_queries {QUERIES}")));
    let _ = conn.close();
    server.shutdown();

    // Threshold far above anything this test can produce: log stays empty.
    let mut server =
        start_server(EngineConfig::default().slow_query(Some(Duration::from_secs(3600))));
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let prepared = conn.prepare("getItem").unwrap();
    for i in 0..QUERIES {
        conn.execute(&prepared, &[Value::Int(i as i64)]).unwrap();
    }
    let (count, records) = server.with_engine(slow_log).unwrap();
    assert_eq!(count, 0);
    assert!(records.is_empty());
    let _ = conn.close();
    server.shutdown();
}

/// `EXPLAIN [ANALYZE] <target>` sent as a query: the reply is one text
/// `PLAN` column, one row per line of the rendered plan; the lines are joined
/// back into the text the server rendered.
fn explain(conn: &mut Connection, sql: &str) -> String {
    match conn.query(sql).unwrap() {
        Outcome::Rows(result) => {
            assert_eq!(result.columns, vec![("PLAN".to_string(), DataType::Text)]);
            let lines = result.rows.iter().map(|row| match &row[..] {
                [Value::Text(line)] => format!("{line}\n"),
                other => panic!("a PLAN row is one text cell: {other:?}"),
            });
            lines.collect()
        }
        other => panic!("{sql}: {other:?}"),
    }
}

/// The lines EXPLAIN prints for one operator: its own line (`name [shared by
/// N: …]`), then its predicate, counter and attribution lines.
fn operator_lines<'a>(text: &'a str, name: &str) -> Vec<&'a str> {
    let mut lines = text.lines().map(str::trim_start);
    let head = lines.find(|l| l.starts_with(&format!("{name} [shared by ")));
    let head = head.unwrap_or_else(|| panic!("no operator {name} in {text}"));
    let tail = lines.take_while(|l| l.starts_with("· ") || l.starts_with("predicate: "));
    std::iter::once(head).chain(tail).collect()
}

/// The number after `key=` in an EXPLAIN ANALYZE line (`busy=` drops its `us`).
fn field(line: &str, key: &str) -> u64 {
    let at = line
        .find(&format!(" {key}="))
        .unwrap_or_else(|| panic!("{key} in {line}"));
    let value = &line[at + key.len() + 2..];
    let digits = value.split(|c: char| !c.is_ascii_digit()).next().unwrap();
    digits.parse().unwrap_or_else(|_| panic!("{key} in {line}"))
}

/// EXPLAIN / EXPLAIN ANALYZE over the wire, through the ordinary query path:
/// the statement's slice of the live global plan with sharing sets, and under
/// ANALYZE the runtime counters plus per-statement-type cost attribution of
/// each operator, resolved by statement name or by ad-hoc SQL.
#[test]
fn explain_analyze_shows_shared_scan_with_attributed_costs() {
    const SHARED: &[(&str, &str)] = &[
        ("getItem", "SELECT * FROM ITEM WHERE I_ID = ?"),
        ("cheapItems", "SELECT * FROM ITEM WHERE I_COST < ?"),
        ("titledItems", "SELECT * FROM ITEM WHERE I_TITLE = ?"),
    ];
    let mut server = Server::start_sql(
        catalog(),
        SHARED,
        EngineConfig::default(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let cheap = conn.prepare("cheapItems").unwrap();
    let titled = conn.prepare("titledItems").unwrap();
    for i in 0..12i64 {
        conn.execute(&cheap, &[Value::Float(5.0)]).unwrap();
        conn.execute(&titled, &[Value::text(format!("title{i}"))])
            .unwrap();
    }

    // Static EXPLAIN by statement name: plan shape + sharing sets, no
    // runtime lines.
    let text = explain(&mut conn, "EXPLAIN cheapItems");
    assert_eq!(text.lines().next(), Some("statement cheapItems: query"));
    assert!(text.lines().count() > 1, "no operator in {text}");
    let runtime = text.lines().any(|l| l.trim_start().starts_with("· "));
    assert!(!runtime, "runtime lines without ANALYZE: {text}");
    // Both full-scan statement types share ITEM's scan operator.
    let shared = text.lines().map(str::trim_start).find(|l| {
        let sharing = l.split_once(" [shared by ").map(|(_, s)| s);
        sharing.is_some_and(|s| s.contains("titledItems"))
    });
    let shared = shared.unwrap_or_else(|| panic!("no operator shared with titledItems in {text}"));
    let (scan_op, sharing) = shared.split_once(" [shared by ").unwrap();
    let factor: usize = sharing.split(':').next().unwrap().parse().unwrap();
    assert!(factor >= 2, "{shared}");

    // EXPLAIN ANALYZE: live counters and attribution on the same operator.
    let text = explain(&mut conn, "EXPLAIN ANALYZE cheapItems");
    let scan = operator_lines(&text, scan_op);
    let counters = scan.iter().find(|l| l.starts_with("· cycles="));
    let counters = counters.unwrap_or_else(|| panic!("no counters for {scan_op} in {text}"));
    assert!(
        field(counters, "cycles") > 0,
        "no operator cycles recorded: {counters}"
    );
    assert!(
        field(counters, "rows") > 0,
        "shared scan produced no tuples: {counters}"
    );
    let attributed: Vec<&str> = scan
        .iter()
        .copied()
        .filter(|l| l.starts_with("· attributed "))
        .collect();
    for statement in ["cheapItems", "titledItems"] {
        let prefix = format!("· attributed {statement}: ");
        let cost = attributed.iter().find(|l| l.starts_with(&prefix));
        let cost = cost.unwrap_or_else(|| panic!("no attribution for {statement} in {text}"));
        assert!(field(cost, "activations") >= 12, "{cost}");
        assert!(field(cost, "rows") > 0, "{cost}");
    }
    // Attribution is a decomposition of the operator's busy time: the
    // per-statement parts (plus idle) sum back to the total. The two
    // snapshots are taken microseconds apart, so allow a small skew on top
    // of per-entry truncation.
    let attributed_total: u64 = attributed.iter().map(|l| field(l, "busy")).sum();
    let busy = field(counters, "busy");
    assert!(
        attributed_total.abs_diff(busy) <= 5_000,
        "attributed busy {attributed_total}us drifted from operator busy {busy}us: {text}"
    );
    // Ad-hoc SQL text resolves to the statement type it canonicalises onto,
    // with or without ANALYZE.
    let adhoc = explain(
        &mut conn,
        "EXPLAIN ANALYZE SELECT * FROM ITEM WHERE I_COST < 3.5",
    );
    assert_eq!(adhoc.lines().next(), Some("statement cheapItems: query"));
    assert!(adhoc.contains("· attributed cheapItems: "), "{adhoc}");
    let adhoc = explain(&mut conn, "EXPLAIN SELECT * FROM ITEM WHERE I_ID = 13");
    assert_eq!(adhoc.lines().next(), Some("statement getItem: query"));
    // Unknown text is a clean error, not a wedge.
    assert!(conn.query("EXPLAIN doesNotExist").is_err());
    let outcome = conn.query("SELECT * FROM ITEM WHERE I_ID = 7").unwrap();
    assert_eq!(
        outcome.rows().len(),
        1,
        "session broken after EXPLAIN error"
    );

    let _ = conn.close();
    server.shutdown();
}

/// Statement names carrying quotes and backslashes must be escaped in every
/// label of the exposition — a raw `"` inside a label value breaks the whole
/// scrape for the collector.
#[test]
fn metrics_escape_labels_with_quotes_and_backslashes() {
    const NAME: &str = "weird\"stmt\\name";
    let mut server = Server::start_sql(
        catalog(),
        &[(NAME, "SELECT * FROM ITEM WHERE I_ID = ?")],
        EngineConfig::default(),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let mut conn = Connection::connect(addr).unwrap();
    let prepared = conn.prepare(NAME).unwrap();
    for i in 0..4 {
        conn.execute(&prepared, &[Value::Int(i)]).unwrap();
    }
    let response = http_exchange(addr, b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    let body = response.split_once("\r\n\r\n").unwrap().1;
    let escaped = "statement=\"weird\\\"stmt\\\\name\"";
    assert!(
        body.contains(escaped),
        "escaped statement label missing from exposition"
    );
    assert!(
        !body.contains(NAME),
        "raw unescaped statement name leaked into the exposition"
    );
    let _ = conn.close();
    server.shutdown();
}

/// The PR's acceptance shape on `/metrics`: with two statement types sharing
/// one scan, the exposition carries the sharing factor, a per-type attributed
/// busy series for both types on that operator, and the attributed parts sum
/// back to `shareddb_operator_busy_us` within snapshot skew; the batch
/// occupancy summary is present and counted.
#[test]
fn attributed_busy_sums_to_operator_busy_in_metrics() {
    const SHARED: &[(&str, &str)] = &[
        ("cheapItems", "SELECT * FROM ITEM WHERE I_COST < ?"),
        ("titledItems", "SELECT * FROM ITEM WHERE I_TITLE = ?"),
    ];
    let mut server = Server::start_sql(
        catalog(),
        SHARED,
        EngineConfig::default(),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let mut conn = Connection::connect(addr).unwrap();
    let cheap = conn.prepare("cheapItems").unwrap();
    let titled = conn.prepare("titledItems").unwrap();
    for i in 0..24i64 {
        conn.execute(&cheap, &[Value::Float(10.0)]).unwrap();
        conn.execute(&titled, &[Value::text(format!("title{i}"))])
            .unwrap();
    }
    wait_for_batches(&server, 48);

    let response = http_exchange(addr, b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    let body = response.split_once("\r\n\r\n").unwrap().1;

    // Pull a label value out of a series line (no escaping in this fixture).
    fn label<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let start = line.find(&format!("{key}=\""))? + key.len() + 2;
        let end = start + line[start..].find('"')?;
        Some(&line[start..end])
    }
    fn value(line: &str) -> u64 {
        line.rsplit_once(' ')
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("bad sample line {line:?}"))
    }

    use std::collections::HashMap;
    let mut busy: HashMap<String, u64> = HashMap::new();
    let mut attributed: HashMap<String, u64> = HashMap::new();
    let mut types_on: HashMap<String, Vec<String>> = HashMap::new();
    let mut sharing: HashMap<String, u64> = HashMap::new();
    for line in body.lines() {
        if line.starts_with("shareddb_operator_busy_us{") {
            *busy
                .entry(label(line, "operator").unwrap().into())
                .or_default() += value(line);
        } else if line.starts_with("shareddb_attributed_busy_us{") {
            let op: String = label(line, "operator").unwrap().into();
            *attributed.entry(op.clone()).or_default() += value(line);
            types_on
                .entry(op)
                .or_default()
                .push(label(line, "stmt_type").unwrap().into());
        } else if line.starts_with("shareddb_operator_sharing_factor{") {
            sharing.insert(label(line, "operator").unwrap().into(), value(line));
        }
    }

    // At least one operator is shared by both statement types with nonzero
    // per-type attributed busy time — the scan they both activate.
    let shared_scan = types_on
        .iter()
        .find(|(_, types)| {
            types.contains(&"cheapItems".to_string()) && types.contains(&"titledItems".to_string())
        })
        .map(|(op, _)| op.clone())
        .unwrap_or_else(|| panic!("no operator attributed to both types: {types_on:?}"));
    assert!(
        sharing.get(&shared_scan).copied().unwrap_or(0) >= 2,
        "sharing factor missing for {shared_scan}: {sharing:?}"
    );
    for line in body.lines() {
        if line.starts_with("shareddb_attributed_busy_us{")
            && label(line, "operator") == Some(&shared_scan)
        {
            assert!(value(line) > 0, "zero attributed busy: {line}");
        }
    }

    // Decomposition: per operator, attributed parts sum back to the
    // operator's busy counter (truncation + the µs-scale gap between the
    // two snapshots inside one scrape).
    assert!(!attributed.is_empty());
    for (op, total) in &attributed {
        let operator_busy = *busy
            .get(op)
            .unwrap_or_else(|| panic!("attributed {op} has no busy series"));
        assert!(
            total.abs_diff(operator_busy) <= 5_000,
            "{op}: attributed {total}us vs operator busy {operator_busy}us"
        );
    }

    // Batch occupancy summary: present, counted, and a plausible mean.
    let occupancy_count = body
        .lines()
        .find(|l| l.starts_with("shareddb_batch_occupancy_count "))
        .map(value)
        .expect("batch occupancy count missing");
    assert!(occupancy_count > 0);
    let occupancy_sum = body
        .lines()
        .find(|l| l.starts_with("shareddb_batch_occupancy_sum "))
        .map(value)
        .expect("batch occupancy sum missing");
    assert!(occupancy_sum >= 48, "48 statements ran: {occupancy_sum}");

    let _ = conn.close();
    server.shutdown();
}

/// `reset_stats` zeroes engine counters and phase histograms, the reactor's
/// flush phase among them, so bench sweep points measure only their own
/// window.
#[test]
fn reset_stats_clears_every_surface() {
    let mut server =
        start_server(EngineConfig::default().slow_query(Some(Duration::from_nanos(1))));
    let addr = server.local_addr();
    let mut conn = Connection::connect(addr).unwrap();
    let prepared = conn.prepare("getItem").unwrap();
    for i in 0..8 {
        conn.execute(&prepared, &[Value::Int(i)]).unwrap();
    }
    assert!(server.engine_stats().unwrap().queries >= 8);
    assert!(engine_phases(&server, "getItem").phase(Phase::Flush).count > 0);

    server.reset_stats();

    let stats = server.engine_stats().unwrap();
    assert_eq!(stats.queries, 0);
    assert_eq!(stats.batches, 0);
    assert_eq!(server.with_engine(|e| e.slow_query_count()), Some(0));
    let phases = server.with_engine(|e| e.stats().phases);
    assert!(phases.unwrap().is_empty());

    // The engine keeps serving after a reset, and new work is counted fresh.
    conn.execute(&prepared, &[Value::Int(1)]).unwrap();
    assert_eq!(server.engine_stats().unwrap().queries, 1);
    let _ = conn.close();
    server.shutdown();
}

/// The write path's useful-work ratio, read back from `/metrics`: on the
/// TPC-W catalog every single-row UPDATE examines exactly the row it changes,
/// a cart's DELETE exactly the cart's lines, and `EXPLAIN` names the access
/// path that makes it so.
#[test]
fn update_row_counters_and_access_paths_on_tpcw() {
    use shareddb::tpcw::{build_catalog, build_shared_plan, TpcwScale};

    let catalog = Arc::new(build_catalog(&TpcwScale::with_items(1_000)).unwrap());
    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    let mut server = Server::start(
        catalog,
        plan,
        registry,
        EngineConfig::default(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let mut run = |statement: &str, params: &[Value]| {
        let prepared = conn.prepare(statement).unwrap();
        conn.execute(&prepared, params).unwrap().rows_affected()
    };
    for i in 0..25i64 {
        let item = [Value::Int(i * 7), Value::Float(9.5), Value::Date(15_403)];
        assert_eq!(run("adminUpdateItem", &item), 1);
        // The same item again: its superseded version is not examined.
        assert_eq!(run("adminUpdateItem", &item), 1);
        let login = [Value::Int(i * 13), Value::Date(15_500)];
        assert_eq!(run("updateCustomerLogin", &login), 1);
    }
    // Cart 3 is loaded with one line; two more, one of them refreshed.
    for (line, item) in [(900_001i64, 11i64), (900_002, 12)] {
        let params = [line, 3, item, 1].map(Value::Int);
        assert_eq!(run("addToCart", &params), 1);
    }
    assert_eq!(run("refreshCart", &[3, 12, 5].map(Value::Int)), 1);
    assert_eq!(run("clearCart", &[Value::Int(3)]), 3);
    assert_eq!(run("clearCart", &[Value::Int(3)]), 0);

    let metrics = server.metrics_text();
    let counter = |name: &str, statement: &str| -> u64 {
        let series = format!("shareddb_update_rows_{name}_total{{statement=\"{statement}\"}} ");
        let line = metrics.lines().find(|l| l.starts_with(&series));
        let line = line.unwrap_or_else(|| panic!("no series {series} in /metrics"));
        line[series.len()..].parse().unwrap()
    };
    for (statement, examined, affected) in [
        ("adminUpdateItem", 50, 50),
        ("updateCustomerLogin", 25, 25),
        ("addToCart", 0, 2),
        ("refreshCart", 3, 1),
        ("clearCart", 3, 3),
    ] {
        assert_eq!(counter("examined", statement), examined, "{statement}");
        assert_eq!(counter("affected", statement), affected, "{statement}");
    }
    assert!(metrics.contains("# TYPE shareddb_update_rows_examined_total counter"));
    assert!(metrics.contains("# TYPE shareddb_update_rows_affected_total counter"));

    for (statement, path) in [
        ("adminUpdateItem", "pk(I_ID)"),
        ("updateCustomerLogin", "pk(C_ID)"),
        ("refreshCart", "index(SCL_CART)"),
        ("clearCart", "index(SCL_CART)"),
    ] {
        let text = explain(&mut conn, &format!("EXPLAIN {statement}"));
        assert!(
            text.ends_with(&format!("  rows found by: {path}\n")),
            "{statement}: {text}"
        );
    }
    assert!(!explain(&mut conn, "EXPLAIN addToCart").contains("rows found by"));

    server.reset_stats();
    assert!(!server
        .metrics_text()
        .contains("shareddb_update_rows_examined_total{"));
    let _ = conn.close();
    server.shutdown();
}

/// The read path's useful-work ratio, read back from `/metrics`: every scan
/// cycle probes each visible row of the chunks some query of it can match
/// once, counts the versions of the chunks it left out, emits exactly the
/// rows some query selected, and files each query under the predicate class
/// that `EXPLAIN` names for its statement type.
#[test]
fn scan_row_counters_and_predicate_classes_on_tpcw() {
    use shareddb::baseline::{ClassicEngine, EngineProfile};
    use shareddb::storage::Zone;
    use shareddb::tpcw::{build_catalog, build_shared_plan, register_baseline_statements};
    use shareddb::tpcw::{TpcwScale, SUBJECTS};

    let catalog = Arc::new(build_catalog(&TpcwScale::with_items(1_000)).unwrap());
    let rows_of = |table: &str| catalog.table(table).unwrap().read().version_count() as u64;
    let (items, lines) = (rows_of("ITEM"), rows_of("ORDER_LINE"));
    let rows_of_author = rows_of("AUTHOR");
    let (arts, an_art) = {
        let item = catalog.table("ITEM").unwrap();
        let item = item.read();
        let of_subject =
            |(_, row): &(_, &shareddb::common::Tuple)| row[3] == Value::text(SUBJECTS[0]);
        let mut arts = item.scan_live().filter(of_subject);
        let an_art = arts.next().unwrap().1[0].clone();
        (1 + arts.count() as u64, an_art)
    };
    // The titles ITEM_TITLE files under the gram `K 1` ("… OF BOOK 1…").
    let first_ones = {
        let item = catalog.table("ITEM").unwrap();
        let item = item.read();
        let titled = |(_, row): &(_, &shareddb::common::Tuple)| {
            row[1].as_text().is_ok_and(|title| title.contains("K 1"))
        };
        item.scan_live().filter(titled).count() as u64
    };
    assert!(0 < first_ones && first_ones < items / 4);
    // ORDER_LINE is appended in OL_O_ID order: what each chunk holds of it.
    let line_table = catalog.table("ORDER_LINE").unwrap();
    let order_zones = || -> Vec<Zone> {
        let chunks = line_table.read();
        chunks.chunks().map(|chunk| chunk.zones.zone(1)).collect()
    };
    let loaded_zones = order_zones();
    let Some(&Zone::Int(_, newest)) = loaded_zones.last() else {
        panic!("ORDER_LINE's tail chunk holds integers: {loaded_zones:?}")
    };
    // TPC-W's best sellers look at the latest orders only; the chunks whose
    // orders are all older hold this many versions.
    let threshold = newest - 333;
    let old: u64 = {
        let chunks = line_table.read();
        let old = chunks.chunks().filter(|chunk| match chunk.zones.zone(1) {
            Zone::Int(_, max) => max < threshold,
            _ => false,
        });
        old.map(|chunk| chunk.rows.len() as u64).sum()
    };
    assert!(old > lines / 2, "{old} of {lines} versions in old chunks");
    let classic = ClassicEngine::start(Arc::clone(&catalog), EngineProfile::Tuned, 1);
    register_baseline_statements(&classic);

    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    let customer = catalog.table("CUSTOMER").unwrap();
    let mut server = Server::start(
        catalog,
        plan,
        registry,
        EngineConfig::default(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    // One statement at a time: each is a batch, and a scan cycle, of its own.
    fn run(conn: &mut Connection, statement: &str, params: &[Value]) -> Vec<Vec<Value>> {
        let prepared = conn.prepare(statement).unwrap();
        conn.execute(&prepared, params).unwrap().rows().to_vec()
    }
    // Whatever path serves a statement, its reply is the query-at-a-time
    // engine's.
    let same_as_classic = |statement: &str, params: &[Value], rows: &[Vec<Value>]| {
        let classic = classic.execute_sync(statement, params).unwrap();
        assert!(
            rows.iter()
                .zip(&classic)
                .all(|(row, classic)| row.iter().eq(classic))
                && rows.len() == classic.len(),
            "{statement}"
        );
    };
    let subject = Value::text(SUBJECTS[0]);
    for _ in 0..3 {
        let found = run(&mut conn, "doSubjectSearch", std::slice::from_ref(&subject));
        assert!(!found.is_empty());
        same_as_classic("doSubjectSearch", std::slice::from_ref(&subject), &found);
    }
    for _ in 0..2 {
        run(
            &mut conn,
            "getBestSellers",
            &[subject.clone(), Value::Int(0)],
        );
    }
    let none = run(
        &mut conn,
        "doTitleSearch",
        &[Value::text("%no such title%")],
    );
    assert!(none.is_empty());

    let counter = |metrics: &str, series: &str| -> u64 {
        let line = metrics.lines().find(|l| l.starts_with(series));
        let line = line.unwrap_or_else(|| panic!("no series {series} in /metrics"));
        line[series.len()..].trim().parse().unwrap()
    };
    let scan_rows = |metrics: &str, table: &str| {
        let rows = |kind: &str| format!("shareddb_scan_rows_{kind}_total{{table=\"{table}\"}}");
        ["examined", "emitted", "skipped"].map(|kind| counter(metrics, &rows(kind)))
    };
    // Cycles served by a pass over the table and through its indexes.
    let scan_cycles = |metrics: &str, table: &str| {
        ["scan", "index"].map(|path| {
            let series = format!("shareddb_scan_cycles_total{{table=\"{table}\",path=\"{path}\"}}");
            counter(metrics, &series)
        })
    };
    let metrics = server.metrics_text();
    for (table, rows, classes, cycles) in [
        // A lone `I_SUBJECT = ?` is served from ITEM_SUBJECT — what is
        // examined is the subject's posting list — and an infix LIKE from
        // ITEM_TITLE: the shortest posting list among the pattern's grams,
        // here one no title holds.
        ("ITEM", [5 * arts, 5 * arts, 0], [5, 0, 1], [0, 6]),
        // Every order is at or above 0: no chunk is left out.
        ("ORDER_LINE", [2 * lines, 2 * lines, 0], [0, 2, 0], [2, 0]),
    ] {
        assert_eq!(scan_rows(&metrics, table), rows, "{table}");
        assert_eq!(scan_cycles(&metrics, table), cycles, "{table}");
        for (class, served) in ["equality", "range", "residual"].iter().zip(classes) {
            let series =
                format!("shareddb_scan_queries_total{{table=\"{table}\",class=\"{class}\"}}");
            assert_eq!(counter(&metrics, &series), served, "{table} {class}");
        }
    }
    assert!(metrics.contains("# TYPE shareddb_scan_rows_examined_total counter"));
    assert!(metrics.contains("# TYPE shareddb_scan_rows_skipped_total counter"));
    assert!(metrics.contains("# TYPE shareddb_scan_queries_total counter"));
    assert!(metrics.contains("# TYPE shareddb_scan_cycles_total counter"));

    // An author search is a prefix, a range of AUTHOR_LNAME: AUTHOR is never
    // walked for it — the names filed under the range are what is examined —
    // unless the pattern is no prefix.
    let authors = rows_of_author;
    let prefix = [Value::text("ALAST7%")];
    let by_prefix = run(&mut conn, "doAuthorSearch", &prefix);
    assert!(!by_prefix.is_empty());
    same_as_classic("doAuthorSearch", &prefix, &by_prefix);
    let metrics = server.metrics_text();
    assert_eq!(scan_cycles(&metrics, "AUTHOR"), [0, 1]);
    let [examined, emitted, skipped] = scan_rows(&metrics, "AUTHOR");
    assert!(
        0 < emitted && emitted < authors / 10,
        "{emitted} of {authors}"
    );
    assert_eq!([examined, skipped], [emitted, 0]);
    let infix = [Value::text("%LAST7%")];
    let by_infix = run(&mut conn, "doAuthorSearch", &infix);
    same_as_classic("doAuthorSearch", &infix, &by_infix);
    let metrics = server.metrics_text();
    assert_eq!(scan_cycles(&metrics, "AUTHOR"), [1, 1]);
    assert_eq!(scan_rows(&metrics, "AUTHOR")[0], emitted + authors);

    // A cart's lines are looked up by the shared probe on SCL_CART:
    // SHOPPING_CART_LINE has no scan to walk for them.
    let cart = [Value::Int(3)];
    let in_cart = run(&mut conn, "getCart", &cart);
    assert_eq!(in_cart.len(), 1);
    same_as_classic("getCart", &cart, &in_cart);
    let metrics = server.metrics_text();
    assert!(metrics.contains("operator=\"Probe(SHOPPING_CART_LINE)#18\""));
    assert!(!metrics.contains("table=\"SHOPPING_CART_LINE\",path="));

    // The latest orders only: the old chunks are left out, their versions
    // counted, and the reply is the query-at-a-time engine's.
    let latest = [subject.clone(), Value::Int(threshold)];
    let best = run(&mut conn, "getBestSellers", &latest);
    assert!(!best.is_empty());
    same_as_classic("getBestSellers", &latest, &best);
    let [examined, emitted, skipped] = scan_rows(&server.metrics_text(), "ORDER_LINE");
    assert_eq!([examined, skipped], [3 * lines - old, old]);
    assert!(emitted < 2 * lines + (lines - old));

    // A title search (an infix LIKE) in the cycle of a best-sellers query:
    // the ITEM cycle they share is served from the indexes still — the
    // subject's posting list and that of the pattern's rarest gram, `K 1`,
    // are what is examined — and the ORDER_LINE scan leaves out what it left
    // out before. The two share a batch for certain: they queue behind a
    // look-up of a customer whose batch waits for CUSTOMER, held here.
    // (Cycles so far: none a pass over ITEM, seven served from its indexes —
    // six of them a subject's posting list — and three passes over
    // ORDER_LINE, of which the first two left nothing out.)
    let title = [Value::text("%BOOK 1%")];
    let best = conn.prepare("getBestSellers").unwrap();
    let search = conn.prepare("doTitleSearch").unwrap();
    let hold = customer.write();
    let ahead = server.with_engine(|e| e.execute("getCustomerById", &[Value::Int(1)]));
    let ahead = ahead.unwrap().unwrap();
    queued(&server, 0);
    let best = conn.submit(&best, &latest).unwrap();
    let search = conn.submit(&search, &title).unwrap();
    queued(&server, 2);
    drop(hold);
    assert_eq!(ahead.wait().unwrap().rows().len(), 1);
    same_as_classic("getBestSellers", &latest, conn.wait(best).unwrap().rows());
    let found = conn.wait(search).unwrap();
    assert!(!found.rows().is_empty());
    same_as_classic("doTitleSearch", &title, found.rows());
    let (item_probes, mut item_fetched, line_passes) = (8, 7 * arts + first_ones, 4);
    let metrics = server.metrics_text();
    assert_eq!(scan_cycles(&metrics, "ITEM"), [0, item_probes]);
    let [examined, _, skipped] = scan_rows(&metrics, "ITEM");
    assert_eq!([examined, skipped], [item_fetched, 0]);
    // A pattern whose every gram is in every title names the whole table:
    // the pass costs no more, and no gram at all leaves nothing else.
    for (pattern, found) in [("%OF BOOK%", 50), ("%_K_1_", 10)] {
        let everywhere = [Value::text(pattern)];
        let rows = run(&mut conn, "doTitleSearch", &everywhere);
        assert_eq!(rows.len(), found, "{pattern}");
        same_as_classic("doTitleSearch", &everywhere, &rows);
        item_fetched += items;
    }
    let metrics = server.metrics_text();
    assert_eq!(scan_cycles(&metrics, "ITEM"), [2, item_probes]);
    assert_eq!(scan_rows(&metrics, "ITEM")[0], item_fetched);
    let [examined, _, skipped] = scan_rows(&metrics, "ORDER_LINE");
    let skipping_passes = line_passes - 2;
    assert_eq!(skipped, skipping_passes * old);
    assert_eq!(examined, line_passes * lines - skipped);
    assert_eq!(scan_cycles(&metrics, "ORDER_LINE"), [line_passes, 0]);

    // A line that arrives late for an old order lands in the tail chunk and
    // widens that chunk's zone alone; the next best-sellers query leaves out
    // what it left out before and finds the line.
    let late = [lines as i64, threshold, an_art.as_int().unwrap(), 1_000_000];
    let add_line = conn.prepare("addOrderLine").unwrap();
    let added = conn.execute(&add_line, &late.map(Value::Int)).unwrap();
    assert_eq!(added.rows_affected(), 1);
    let mut widened = loaded_zones.clone();
    *widened.last_mut().unwrap() = Zone::Int(threshold, newest);
    assert_ne!(widened, loaded_zones);
    assert_eq!(order_zones(), widened);
    let best = run(&mut conn, "getBestSellers", &latest);
    assert_eq!(best[0][0], an_art);
    same_as_classic("getBestSellers", &latest, &best);
    let [examined, _, skipped] = scan_rows(&server.metrics_text(), "ORDER_LINE");
    assert_eq!(skipped, (skipping_passes + 1) * old);
    assert_eq!(examined, (line_passes + 1) * lines + 1 - skipped);

    for (statement, classes) in [
        (
            "getBestSellers",
            &[
                "eq(I_SUBJECT) · index(ITEM_SUBJECT) when the cycle allows",
                "range(OL_O_ID) · scan",
            ][..],
        ),
        (
            "doSubjectSearch",
            &["eq(I_SUBJECT) · index(ITEM_SUBJECT) when the cycle allows"][..],
        ),
        (
            "doTitleSearch",
            &["residual · index(ITEM_TITLE) grams when the cycle allows"][..],
        ),
        (
            "doAuthorSearch",
            &["residual · index(AUTHOR_LNAME) range for a prefix pattern when the cycle allows"][..],
        ),
        // A key look-up through the shared probe: no scan, no predicate.
        ("getCart", &[][..]),
    ] {
        let text = explain(&mut conn, &format!("EXPLAIN {statement}"));
        let shown: Vec<&str> = text
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("predicate: "))
            .collect();
        assert_eq!(shown, classes, "{statement}: {text}");
    }

    server.reset_stats();
    let series = "shareddb_scan_rows_examined_total{table=\"ITEM\"}";
    assert_eq!(counter(&server.metrics_text(), series), 0);
    let _ = conn.close();
    server.shutdown();
}

/// The footprint as a scrape: a table's versions move by exactly the writes
/// that append, every B-tree over a column's values holds an entry per
/// version of its table, the gram index one per distinct gram of each, and
/// no B-tree repeats a primary key — the key map is its only index. A price
/// change committed with nothing pinned is written over its version in
/// place; under a pin it appends, and a commit after the pin is gone gives
/// the superseded payloads back. No pin outlives its reader.
#[test]
fn table_versions_and_index_entries_on_tpcw() {
    use shareddb::tpcw::{build_catalog, build_shared_plan, TpcwScale};

    let catalog = Arc::new(build_catalog(&TpcwScale::with_items(1_000)).unwrap());
    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    let mut server = Server::start(
        Arc::clone(&catalog),
        plan,
        registry,
        EngineConfig::default(),
        ServerConfig::default(),
    )
    .unwrap();
    let gauge = |metrics: &str, series: &str| -> u64 {
        let line = metrics.lines().find(|l| l.starts_with(series));
        let line = line.unwrap_or_else(|| panic!("no series {series} in /metrics"));
        line[series.len()..].trim().parse().unwrap()
    };
    let versions = |metrics: &str, table: &str| {
        gauge(
            metrics,
            &format!("shareddb_table_versions{{table=\"{table}\"}}"),
        )
    };
    let entries = |metrics: &str, table: &str, index: &str| {
        let labels = format!("table=\"{table}\",index=\"{index}\"");
        gauge(
            metrics,
            &format!("shareddb_table_index_entries{{{labels}}}"),
        )
    };
    let fresh = server.metrics_text();
    assert!(fresh.contains("# TYPE shareddb_table_versions gauge"));
    assert!(fresh.contains("# TYPE shareddb_table_index_entries gauge"));
    let index_series: Vec<&str> = fresh
        .lines()
        .filter(|l| l.starts_with("shareddb_table_index_entries{"))
        .collect();
    assert_eq!(index_series.len(), 9, "{index_series:?}");
    assert!(index_series.iter().all(|series| !series.contains("_PK")));
    for table in catalog.table_names() {
        let held = catalog.table(&table).unwrap().read().version_count() as u64;
        assert_eq!(versions(&fresh, &table), held, "{table}");
    }
    assert_eq!(versions(&fresh, "ITEM"), 1_000);
    assert_eq!(entries(&fresh, "ITEM", "ITEM_SUBJECT"), 1_000);
    // ITEM_TITLE holds an entry per distinct gram of each version's title.
    let grams_of = |items: &mut dyn Iterator<Item = i64>| -> u64 {
        let distinct = |id: i64| {
            let title = shareddb::tpcw::schema::item_title(id);
            let grams: std::collections::BTreeSet<&[u8]> = title.as_bytes().windows(3).collect();
            grams.len() as u64
        };
        items.map(distinct).sum()
    };
    let titles = grams_of(&mut (0..1_000));
    assert!(titles > 15 * 1_000);
    assert_eq!(entries(&fresh, "ITEM", "ITEM_TITLE"), titles);

    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let mut run = |statement: &str, params: &[Value]| {
        let prepared = conn.prepare(statement).unwrap();
        conn.execute(&prepared, params).unwrap().rows_affected()
    };
    type Run<'a> = dyn FnMut(&str, &[Value]) -> u64 + 'a;
    let update_items = |run: &mut Run, items: std::ops::Range<i64>, cost: f64| {
        for i in items {
            let item = [Value::Int(i * 3), Value::Float(cost), Value::Date(15_403)];
            assert_eq!(run("adminUpdateItem", &item), 1);
        }
    };
    update_items(&mut run, 0..7, 9.5);
    let lines = versions(&fresh, "SHOPPING_CART_LINE");
    for line in 0..3i64 {
        let params = [900_001 + line, 3, 11 + line, 1].map(Value::Int);
        assert_eq!(run("addToCart", &params), 1);
    }
    // A delete ends versions and writes none.
    assert_eq!(run("clearCart", &[Value::Int(3)]), 4);
    let written = server.metrics_text();
    let of_table = |family: &str, table: &str| format!("{family}{{table=\"{table}\"}}");
    let counts = |metrics: &str, table: &str| {
        [
            "shareddb_table_payloads",
            "shareddb_gc_versions_reclaimed_total",
            "shareddb_updates_in_place_total",
        ]
        .map(|family| gauge(metrics, &of_table(family, table)))
    };
    // Nothing was pinned at the price changes: each was written over its
    // version, and ITEM and its B-trees hold what they held.
    assert_eq!(versions(&written, "ITEM"), 1_000);
    for index in ["ITEM_SUBJECT", "ITEM_AUTHOR"] {
        assert_eq!(entries(&written, "ITEM", index), 1_000, "{index}");
    }
    assert_eq!(entries(&written, "ITEM", "ITEM_TITLE"), titles);
    assert_eq!(counts(&written, "ITEM"), [1_000, 0, 7]);
    assert_eq!(versions(&written, "SHOPPING_CART_LINE"), lines + 3);
    assert_eq!(
        entries(&written, "SHOPPING_CART_LINE", "SCL_CART"),
        lines + 3
    );
    assert_eq!(versions(&written, "AUTHOR"), versions(&fresh, "AUTHOR"));
    // A deleted cart line keeps its payload: the key map reads its key from
    // it.
    let cart_lines = versions(&written, "SHOPPING_CART_LINE");
    assert_eq!(counts(&written, "SHOPPING_CART_LINE"), [cart_lines, 0, 0]);

    // Under a pin each price change appends a version, posted under every
    // gram of its title again; the first commit after the pin is dropped
    // gives the superseded payloads back.
    let pin = catalog.pin();
    update_items(&mut run, 0..7, 10.5);
    let pinned = server.metrics_text();
    assert_eq!(versions(&pinned, "ITEM"), 1_007);
    assert_eq!(entries(&pinned, "ITEM", "ITEM_SUBJECT"), 1_007);
    assert_eq!(entries(&pinned, "ITEM", "ITEM_AUTHOR"), 1_007);
    let rewritten = grams_of(&mut (0..7).map(|i| i * 3));
    assert_eq!(entries(&pinned, "ITEM", "ITEM_TITLE"), titles + rewritten);
    assert_eq!(counts(&pinned, "ITEM"), [1_007, 0, 7]);
    assert_eq!(gauge(&pinned, "shareddb_snapshot_pins "), 1);
    drop(pin);
    update_items(&mut run, 7..8, 10.5);
    let released = server.metrics_text();
    assert_eq!(counts(&released, "ITEM"), [1_000, 7, 8]);
    assert_eq!(
        gauge(&released, "shareddb_snapshot_pins "),
        0,
        "a leaked pin"
    );
    let _ = conn.close();
    server.shutdown();
}

/// Always-on accounting on shared cores: after N lone look-ups every operator
/// of the TPC-W plan has counted N cycles, but only the ITEM probe has had a
/// task — nothing else was busy, nobody was woken — and `/metrics` says so.
#[test]
fn lone_lookups_cycle_every_operator_and_run_one_task() {
    use shareddb::core::Engine;
    use shareddb::tpcw::{build_catalog, build_shared_plan, TpcwScale};
    const N: u64 = 40;

    let catalog = Arc::new(build_catalog(&TpcwScale::tiny()).unwrap());
    let deployment = || {
        let (plan, registry) = build_shared_plan(&catalog).unwrap();
        (Arc::clone(&catalog), plan, registry)
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (catalog_, plan, registry) = deployment();
    let engine = Engine::start(catalog_, plan, registry, EngineConfig::default()).unwrap();
    for i in 0..N as i64 {
        let rows = engine
            .execute_sync("getItemById", &[Value::Int(i)])
            .unwrap();
        assert_eq!(rows.rows().len(), 1);
    }
    for op in engine.stats().operators {
        assert_eq!(op.cycles, N, "{}", op.name);
        if op.name.starts_with("Probe(ITEM)") {
            assert_eq!(op.active_cycles, N);
            assert!(!op.busy.is_zero());
        } else {
            assert_eq!(
                (op.active_cycles, op.busy),
                (0, Duration::ZERO),
                "{}",
                op.name
            );
        }
    }
    let stats = engine.stats();
    let lookups = stats
        .attribution
        .iter()
        .filter(|e| e.statement == "getItemById");
    let activations: u64 = lookups.map(|e| e.activations).sum();
    assert_eq!(activations, N, "every look-up is attributed once");
    assert_eq!(stats.tasks_run_by_coordinator, N, "{stats:?}");
    assert_eq!((stats.tasks_run_by_workers, stats.worker_wakeups), (0, 0));
    assert_eq!(stats.executor_threads, threads);

    let (catalog_, plan, registry) = deployment();
    let config = EngineConfig::default();
    let mut server =
        Server::start(catalog_, plan, registry, config, ServerConfig::default()).unwrap();
    let series = |metrics: &str, series: &str| -> u64 {
        let line = metrics.lines().find(|l| l.starts_with(series));
        let line = line.unwrap_or_else(|| panic!("no series {series} in /metrics"));
        line[series.len()..].trim().parse().unwrap()
    };
    let tasks = |metrics: &str| {
        series(
            metrics,
            "shareddb_executor_tasks_total{ran_on=\"coordinator\"}",
        ) + series(metrics, "shareddb_executor_tasks_total{ran_on=\"worker\"}")
    };
    let before = server.metrics_text();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let lookup = conn.prepare("getItemById").unwrap();
    for i in 0..N as i64 {
        conn.execute(&lookup, &[Value::Int(i)]).unwrap();
    }
    let after = server.metrics_text();
    assert_eq!(tasks(&after) - tasks(&before), N);
    assert_eq!(series(&after, "shareddb_executor_worker_wakeups_total"), 0);
    assert_eq!(series(&after, "shareddb_executor_threads"), threads as u64);
    for kind in ["executor_tasks_total counter", "executor_threads gauge"] {
        assert!(after.contains(&format!("# TYPE shareddb_{kind}")), "{kind}");
    }
    for line in after
        .lines()
        .filter(|l| l.starts_with("shareddb_operator_busy_us{"))
    {
        let busy: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
        assert_eq!(busy > 0, line.contains("operator=\"Probe(ITEM)"), "{line}");
    }
    server.shutdown();
}

/// What a row demand saves is a number: after a `getBook` — its AUTHOR join
/// fed by one probed row, nothing to cut — no operator has pruned anything;
/// after a `doSubjectSearch` the AUTHOR join under the ITEM scan has skipped
/// the outer rows its page of fifty did not need, and `EXPLAIN`, `EXPLAIN
/// ANALYZE` and `/metrics` all say so.
#[test]
fn a_search_prunes_the_author_join_and_a_lookup_nothing() {
    use shareddb::tpcw::{build_catalog, build_shared_plan, TpcwScale, PAGE_SIZE, SUBJECTS};

    let scale = TpcwScale::with_items(4_000);
    let catalog = Arc::new(build_catalog(&scale).unwrap());
    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    let config = EngineConfig::default();
    let mut server =
        Server::start(catalog, plan, registry, config, ServerConfig::default()).unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let pruned = |metrics: &str| -> Vec<(String, u64)> {
        let series = "shareddb_operator_rows_pruned_total{operator=\"";
        let lines = metrics.lines().filter_map(|l| l.strip_prefix(series));
        lines
            .map(|l| {
                let (operator, count) = l.split_once("\"} ").unwrap();
                (operator.to_string(), count.parse().unwrap())
            })
            .collect()
    };

    let book = conn.prepare("getBook").unwrap();
    assert_eq!(
        conn.execute(&book, &[Value::Int(7)]).unwrap().rows().len(),
        1
    );
    let after_lookup = pruned(&server.metrics_text());
    assert!(after_lookup.len() > 10, "{after_lookup:?}");
    assert!(
        after_lookup.iter().all(|(_, count)| *count == 0),
        "{after_lookup:?}"
    );

    let search = conn.prepare("doSubjectSearch").unwrap();
    let page = conn.execute(&search, &[Value::text(SUBJECTS[2])]).unwrap();
    assert_eq!(page.rows().len(), PAGE_SIZE);
    let metrics = server.metrics_text();
    assert!(metrics.contains("# TYPE shareddb_operator_rows_pruned_total counter"));
    // One subject of twenty-four: some 166 items, fifty of them looked up.
    let of_subject = scale.items as u64 / SUBJECTS.len() as u64;
    for (operator, count) in pruned(&metrics) {
        match operator.as_str() {
            "IndexNlJoin(AUTHOR)#4" => {
                assert!((of_subject / 2..of_subject * 2).contains(&(count + PAGE_SIZE as u64)))
            }
            _ => assert_eq!(count, 0, "{operator}"),
        }
    }
    let explained = explain(&mut conn, "EXPLAIN ANALYZE doSubjectSearch");
    let join = explained
        .lines()
        .position(|l| l.contains("IndexNlJoin(AUTHOR)#4"));
    let join = join.unwrap_or_else(|| panic!("{explained}"));
    let lines: Vec<&str> = explained.lines().collect();
    assert!(
        lines[join].ends_with("(activated) top 50 by [I_TITLE] for TopN#5"),
        "{explained}"
    );
    assert!(
        lines[join + 1].contains(" rows=50 pruned=") && !lines[join + 1].contains("pruned=0 "),
        "{explained}"
    );
    let static_text = explain(&mut conn, "EXPLAIN getNewProducts");
    assert!(
        static_text.contains("top 50 by [I_PUB_DATE desc, I_TITLE] for TopN#9"),
        "{static_text}"
    );
    assert!(!explain(&mut conn, "EXPLAIN getBook").contains(" top "));
    let _ = conn.close();
    server.shutdown();
}

/// One series of an exposition (a sample line less its value), split into
/// its name and the sorted keys of its labels (`quantile`, which a summary adds to its
/// percentile lines only, left out).
fn series_of(series: &str) -> (&str, Vec<&str>) {
    let Some((name, mut labels)) = series.split_once('{') else {
        return (series, Vec::new());
    };
    let mut keys = Vec::new();
    while let Some((key, rest)) = labels.split_once("=\"") {
        // The value ends at the first quote that no backslash escapes.
        let mut escaped = false;
        let end = rest.find(|c| {
            let closes = c == '"' && !escaped;
            escaped = c == '\\' && !escaped;
            closes
        });
        labels = rest[end.unwrap() + 1..].trim_start_matches(',');
        if key != "quantile" {
            keys.push(key);
        }
    }
    assert_eq!(labels, "}", "{series}");
    keys.sort_unstable();
    (name, keys)
}

/// The exposition is well formed by construction, and what it carries is
/// what the engine counts: after a mixed read / write load on a TPC-W
/// server, every family of the scrape has one `# TYPE` line
/// ahead of its samples, its samples stand in one group, the set of
/// `(family, label keys)` is the checked-in `tests/metrics_families.txt` —
/// taken from the scrape of this load at the commit before the engines were
/// read directly, and extended on purpose by whoever adds a series — and the
/// engine counters and phase counts equal what the engine and the frontend
/// report.
#[test]
fn exposition_is_grouped_by_family_and_carries_the_engines_numbers() {
    use shareddb::tpcw::{build_catalog, build_shared_plan, TpcwScale, SUBJECTS};
    use std::collections::{BTreeSet, HashMap};

    let catalog = Arc::new(build_catalog(&TpcwScale::with_items(1_000)).unwrap());
    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    let engine_config = EngineConfig::default();
    let server_config = ServerConfig::default();
    let mut server = Server::start(catalog, plan, registry, engine_config, server_config).unwrap();
    let addr = server.local_addr();
    let mut conn = Connection::connect(addr).unwrap();
    let mut run = |statement: &str, params: &[Value]| {
        let prepared = conn.prepare(statement).unwrap();
        conn.execute(&prepared, params).unwrap()
    };
    for i in 0..24i64 {
        assert_eq!(run("getItemById", &[Value::Int(i * 7)]).rows().len(), 1);
        let subject = Value::text(SUBJECTS[i as usize % SUBJECTS.len()]);
        run("doSubjectSearch", std::slice::from_ref(&subject));
        run("getBestSellers", &[subject, Value::Int(0)]);
        let item = [Value::Int(i * 3), Value::Float(9.5), Value::Date(15_403)];
        assert_eq!(run("adminUpdateItem", &item).rows_affected(), 1);
    }
    wait_for_batches(&server, 96);

    let response = http_exchange(addr, b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    let body = response.split_once("\r\n\r\n").unwrap().1;

    // (i) + (ii): one `# TYPE` line per family, and every sample line belongs
    // to the family declared above it — so a family's samples stand in one
    // group, behind its declaration. A summary's `_sum` and `_count` lines
    // belong to the summary, and nothing else does.
    let mut kinds: HashMap<&str, &str> = HashMap::new();
    let mut declared = "";
    let mut shape: BTreeSet<String> = BTreeSet::new();
    let mut samples: HashMap<&str, u64> = HashMap::new();
    for line in body.lines() {
        if let Some(declaration) = line.strip_prefix("# TYPE ") {
            let (family, kind) = declaration.split_once(' ').unwrap();
            assert!(
                kinds.insert(family, kind).is_none(),
                "{family} declared twice"
            );
            declared = family;
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap();
        let (name, keys) = series_of(series);
        let of_summary = kinds[declared] == "summary";
        let family = ["_sum", "_count"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix).filter(|_| of_summary))
            .unwrap_or(name);
        assert_eq!(family, declared, "{line} stands under # TYPE {declared}");
        let shaped = format!("{family} {}", keys.join(","));
        shape.insert(shaped.trim_end().to_string());
        if let Ok(value) = value.parse() {
            samples.insert(series, value);
        }
    }
    // The largest value a summary has seen is a gauge of its own.
    assert_eq!(kinds["shareddb_phase_latency_us"], "summary");
    assert_eq!(kinds["shareddb_phase_latency_us_max"], "gauge");

    // (iii): the families and their label keys are the checked-in list.
    let listed: Vec<&str> = include_str!("metrics_families.txt").lines().collect();
    let shape: Vec<&String> = shape.iter().collect();
    assert_eq!(
        shape, listed,
        "left: scraped, right: tests/metrics_families.txt"
    );

    // The numbers are the engine's: nothing ran since the scrape.
    let total = server.engine_stats().unwrap();
    assert_eq!((total.queries, total.updates, total.failed), (72, 24, 0));
    assert_eq!(total.batches, 96);
    assert_eq!(samples["shareddb_engine_batches"], total.batches);
    assert_eq!(samples["shareddb_engine_queries"], total.queries);
    assert_eq!(samples["shareddb_engine_updates"], total.updates);
    assert_eq!(samples["shareddb_engine_failed"], total.failed);
    // The engine's phases, the reactor's flush phase among them, are one
    // family: a series for each histogram that holds a sample, and no other.
    let mut phase_counts = 0;
    for snap in &total.phases {
        for phase in Phase::ALL {
            let count = snap.phase(phase).count;
            if count == 0 {
                continue;
            }
            let series = format!(
                "shareddb_phase_latency_us_count{{statement=\"{}\",phase=\"{}\"}}",
                snap.statement,
                phase.name()
            );
            assert_eq!(samples.get(series.as_str()), Some(&count), "{series}");
            phase_counts += 1;
        }
    }
    let scraped = samples
        .keys()
        .filter(|s| s.starts_with("shareddb_phase_latency_us_count{"));
    assert_eq!(scraped.count(), phase_counts);

    let _ = conn.close();
    server.shutdown();
}

/// The health number of the hand-off back, `completion_wakes ÷ (queries +
/// updates)`: statements that come one at a time each find the queue their
/// outcome goes to empty and its reader asleep — one wake each, a ratio of
/// exactly 1 — while the outcomes of a batch reach a reader that is woken
/// for the first and finds the others when it looks.
#[test]
fn completion_wakes_are_one_per_lone_statement_and_few_per_batch() {
    let mut server = start_server(EngineConfig::default());
    let counts = |server: &Server| {
        let metrics = server.metrics_text();
        let series = |name: &str| -> u64 {
            let line = metrics.lines().find(|l| l.starts_with(name));
            let line = line.unwrap_or_else(|| panic!("no series {name} in /metrics"));
            line[name.len()..].trim().parse().unwrap()
        };
        (
            series("shareddb_engine_completion_wakes_total "),
            series("shareddb_engine_queries ") + series("shareddb_engine_updates "),
        )
    };
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let get_item = conn.prepare("getItem").unwrap();
    let add_item = conn.prepare("addItem").unwrap();
    for i in 0..20 {
        if i % 4 == 0 {
            let row = [Value::Int(1_000 + i), Value::text("new"), Value::Float(1.0)];
            assert_eq!(conn.execute(&add_item, &row).unwrap().rows_affected(), 1);
        } else {
            assert_eq!(
                conn.execute(&get_item, &[Value::Int(i)])
                    .unwrap()
                    .rows()
                    .len(),
                1
            );
        }
    }
    // The coordinator books a wake once it has woken the reader — who may
    // have answered, and the scrape come, a moment before.
    let settled = |server: &Server| {
        let started = std::time::Instant::now();
        while counts(server).0 < 20 && started.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        counts(server)
    };
    assert_eq!(settled(&server), (20, 20));

    let item = server.with_engine(|e| e.catalog().table("ITEM").unwrap());
    let item = item.unwrap();
    for _ in 0..10 {
        // What the client pipelines is one batch: it queues behind a look-up
        // whose batch waits for ITEM, held here.
        let hold = item.write();
        let ahead = server.with_engine(|e| e.execute("getItem", &[Value::Int(0)]));
        let ahead = ahead.unwrap().unwrap();
        queued(&server, 0);
        let tickets: Vec<_> = (0..60)
            .map(|i| conn.submit(&get_item, &[Value::Int(i)]).unwrap())
            .collect();
        queued(&server, 60);
        drop(hold);
        assert_eq!(ahead.wait().unwrap().rows().len(), 1);
        for ticket in tickets {
            assert_eq!(conn.wait(ticket).unwrap().rows().len(), 1);
        }
    }
    let (wakes, answered) = counts(&server);
    assert_eq!(answered, 630);
    // Each look-up ahead was answered alone: a wake of its own.
    let ratio = (wakes - 20 - 10) as f64 / 600.0;
    assert!(ratio < 0.5, "{wakes} wakes for {answered} statements");
    let _ = conn.close();
    server.shutdown();
}
