//! Network-frontend integration tests: concurrent client connections sharing
//! one `QueryBatch`, client pipelining, admission-control backpressure and
//! graceful drain — the socket → session → admission queue → batch →
//! Γ(query_id) path end to end.

use shareddb::client::{Connection, Outcome};
use shareddb::common::{tuple, DataType, Error, Value};
use shareddb::core::EngineConfig;
use shareddb::server::protocol::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
use shareddb::server::{Server, ServerConfig};
use shareddb::storage::{Catalog, TableDef};
use shareddb::tpcw::DriverConfig;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

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
    (
        "itemsCheaperThan",
        "SELECT * FROM ITEM WHERE I_COST < ? ORDER BY I_COST LIMIT 10",
    ),
    ("addItem", "INSERT INTO ITEM VALUES (?, ?, ?)"),
    (
        "itemValue",
        "SELECT I_ID, I_COST * 2 FROM ITEM WHERE I_ID = ?",
    ),
];

fn start_server(engine_config: EngineConfig, server_config: ServerConfig) -> Server {
    Server::start_sql(catalog(), WORKLOAD, engine_config, server_config).unwrap()
}

/// A batch held in flight: a thread of the test takes a table's write lock
/// and keeps it, and a look-up of that table is submitted to the engine, so
/// the coordinator waits in the look-up's batch and what clients send
/// meanwhile stays queued behind it. Dropping the hold lets the batch go.
struct Hold(mpsc::Sender<Duration>);

impl Hold {
    /// Holds `table` and runs `statement(0)`, which reads it, into a batch.
    fn new(server: &Server, table: &str, statement: &str) -> Hold {
        let table = server.with_engine(|e| e.catalog().table(table).unwrap());
        let table = table.unwrap();
        let (release, released) = mpsc::channel();
        let (taken, held) = mpsc::channel();
        std::thread::spawn(move || {
            let _hold = table.write();
            taken.send(()).unwrap();
            // A dropped hold lets go at once.
            std::thread::sleep(released.recv().unwrap_or(Duration::ZERO));
        });
        held.recv().unwrap();
        let ahead = server.with_engine(|e| e.execute(statement, &[Value::Int(0)]));
        ahead.unwrap().unwrap();
        queued(server, 0);
        Hold(release)
    }

    /// Lets the batch go `after` from now, from the holding thread: for a
    /// test about to block in `Server::shutdown`, whose engine shutdown
    /// waits for the batch. A release after the drain timeout meets the
    /// engine shutting down; an earlier one only answers what is queued
    /// from an ordinary batch.
    fn release_after(self, after: Duration) {
        self.0.send(after).unwrap();
    }
}

/// Waits until the server's engine holds `n` statements queued: what the
/// clients sent has been read and submitted behind a held batch.
fn queued(server: &Server, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.queued() != n {
        assert!(Instant::now() < deadline, "never {n} queued");
        std::thread::yield_now();
    }
}

/// Acceptance criterion: concurrent connections issuing queries while a
/// batch runs are answered from the next `QueryBatch`, one for all of them,
/// observable in the engine's trace.
#[test]
fn concurrent_connections_share_one_batch() {
    use shareddb::core::TraceEvent;
    const CLIENTS: usize = 8;
    let mut server = start_server(EngineConfig::default(), ServerConfig::default());
    let addr = server.local_addr();

    // Warm up every connection (prepares the statement, completes one batch)
    // so the measured phase contains nothing but the concurrent queries.
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let mut threads = Vec::new();
    for i in 0..CLIENTS {
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            let mut conn = Connection::connect(addr).unwrap();
            let get_item = conn.prepare("getItem").unwrap();
            let warmup = conn.execute(&get_item, &[Value::Int(0)]).unwrap();
            assert_eq!(warmup.rows().len(), 1);
            barrier.wait(); // all warmed up
            barrier.wait(); // measured phase begins
            let outcome = conn.execute(&get_item, &[Value::Int(i as i64)]).unwrap();
            assert_eq!(outcome.rows().len(), 1);
            assert_eq!(outcome.rows()[0][0], Value::Int(i as i64));
            conn.close().unwrap();
        }));
    }
    barrier.wait(); // warmups done
    let before = server.engine_stats().unwrap();
    let hold = Hold::new(&server, "ITEM", "getItem");
    barrier.wait(); // go
    queued(&server, CLIENTS);
    drop(hold);
    for t in threads {
        t.join().unwrap();
    }
    let after = server.engine_stats().unwrap();
    let queries = after.queries - before.queries;
    let batches = after.batches - before.batches;
    // The look-up held in flight, then the eight sockets' queries as one.
    assert_eq!((queries, batches), (CLIENTS as u64 + 1, 2));
    let trace = server.with_engine(|e| e.trace()).unwrap();
    let last = trace.iter().rev().find_map(|record| match record.event {
        TraceEvent::Batch { queries, .. } => Some(queries),
        _ => None,
    });
    assert_eq!(last, Some(CLIENTS), "one batch for every socket");
    server.shutdown();
}

/// One connection pipelines many statements; responses come back in order and
/// far fewer batches than statements are executed.
#[test]
fn pipelined_submissions_batch_and_preserve_order() {
    const PIPELINE: usize = 100;
    let server_config = ServerConfig {
        max_inflight_per_session: PIPELINE + 1,
        ..ServerConfig::default()
    };
    let mut server = start_server(EngineConfig::default(), server_config);
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let get_item = conn.prepare("getItem").unwrap();
    assert_eq!(get_item.param_count, 1);

    let tickets: Vec<_> = (0..PIPELINE)
        .map(|i| conn.submit(&get_item, &[Value::Int(i as i64)]).unwrap())
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = conn.wait(ticket).unwrap();
        match outcome {
            Outcome::Rows(rs) => {
                assert_eq!(rs.rows.len(), 1);
                assert_eq!(rs.rows[0][0], Value::Int(i as i64));
                assert_eq!(rs.columns[0].1, DataType::Int);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    let stats = server.engine_stats().unwrap();
    assert_eq!(stats.queries, PIPELINE as u64);
    assert!(
        stats.batches < PIPELINE as u64,
        "pipelined statements did not batch: {stats:?}"
    );
    conn.close().unwrap();
    server.shutdown();
}

/// Acceptance criterion: backpressure rejects cleanly (retryable error) at the
/// configured limits, and graceful drain fails in-flight work with a clean
/// shutdown error instead of dropping the socket.
#[test]
fn backpressure_rejects_with_retryable_error() {
    let server_config = ServerConfig {
        max_inflight_per_session: 4,
        drain_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let mut server = start_server(EngineConfig::default(), server_config);
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let get_item = conn.prepare("getItem").unwrap();
    // Everything submitted from here on stays queued until the shutdown.
    let hold = Hold::new(&server, "ITEM", "getItem");

    // 4 admitted + 2 rejected by the per-session in-flight cap.
    let tickets: Vec<_> = (0..6)
        .map(|i| conn.submit(&get_item, &[Value::Int(i)]).unwrap())
        .collect();
    // Rejections are counted server-side without waiting for the batch.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().rejected < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.stats();
    assert_eq!(stats.rejected, 2, "stats: {stats:?}");
    assert_eq!(stats.requests, 6, "stats: {stats:?}");

    // Graceful drain: the admitted statements are *executed* as the engine's
    // final batch, the rejected ones fail with the retryable overload error —
    // all delivered in submission order over the still-open socket.
    hold.release_after(Duration::from_millis(400));
    server.shutdown();
    let mut outcomes = Vec::new();
    for ticket in tickets {
        outcomes.push(conn.wait(ticket));
    }
    for outcome in &outcomes[..4] {
        match outcome {
            Ok(o) => assert_eq!(o.rows().len(), 1),
            Err(e) => panic!("drain should answer admitted work, got {e:?}"),
        }
    }
    for outcome in &outcomes[4..] {
        match outcome {
            Err(e) => {
                assert!(e.is_retryable(), "expected retryable rejection, got {e:?}");
                assert!(matches!(e, Error::Overloaded(_)));
            }
            Ok(o) => panic!("expected rejection, got {o:?}"),
        }
    }
}

/// Global queue-depth backpressure (as opposed to the per-session cap).
#[test]
fn queue_depth_backpressure_rejects() {
    let server_config = ServerConfig {
        max_queue_depth: 2,
        max_inflight_per_session: 1024,
        drain_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let mut server = start_server(EngineConfig::default(), server_config);
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let get_item = conn.prepare("getItem").unwrap();
    // Everything submitted from here on stays queued until the shutdown.
    let hold = Hold::new(&server, "ITEM", "getItem");
    for i in 0..8 {
        conn.submit(&get_item, &[Value::Int(i)]).unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().rejected == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        server.stats().rejected >= 1,
        "queue-depth limit never rejected: {:?}",
        server.stats()
    );
    hold.release_after(Duration::from_millis(400));
    server.shutdown();
}

/// Ad-hoc SQL over the wire: auto-parameterised against the compiled
/// statement types; unknown types are rejected.
#[test]
fn adhoc_sql_matches_compiled_statement_types() {
    let mut server = start_server(EngineConfig::default(), ServerConfig::default());
    let mut conn = Connection::connect(server.local_addr()).unwrap();

    let outcome = conn.query("SELECT * FROM ITEM WHERE I_ID = 17").unwrap();
    assert_eq!(outcome.rows().len(), 1);
    assert_eq!(outcome.rows()[0][1], Value::text("title17"));

    // Same type, different constant, different spelling.
    let outcome = conn.query("select * from item where i_id = 23").unwrap();
    assert_eq!(outcome.rows()[0][0], Value::Int(23));

    // Updates run through the same path.
    let outcome = conn
        .query("INSERT INTO ITEM VALUES (900, 'net book', 5.0)")
        .unwrap();
    assert_eq!(outcome.rows_affected(), 1);
    let outcome = conn.query("SELECT * FROM ITEM WHERE I_ID = 900").unwrap();
    assert_eq!(outcome.rows()[0][1], Value::text("net book"));

    // Expression projections match their statement type over the wire and
    // evaluate per row.
    let outcome = conn
        .query("select i_id, i_cost * 2 from item where i_id = 30")
        .unwrap();
    assert_eq!(outcome.rows().len(), 1);
    assert_eq!(outcome.rows()[0][1], Value::Int(60)); // cost 30 % 50 = 30

    // A statement type that is not part of the plan is rejected.
    let err = conn
        .query("SELECT * FROM ITEM WHERE I_TITLE = 'title1'")
        .unwrap_err();
    assert!(matches!(err, Error::UnknownStatement(_)), "{err:?}");

    // Unknown prepared statements are rejected too.
    assert!(matches!(
        conn.prepare("noSuchStatement"),
        Err(Error::UnknownStatement(_))
    ));
    conn.close().unwrap();
    server.shutdown();
}

/// TPC-W over ad-hoc SQL: a server started from `tpcw::SQL` answers the
/// literal texts of its statements exactly as it answers the prepared
/// statements — a look-up, a best-seller page and an update whose SQL
/// numbers its parameters because it is called with the key first.
#[test]
fn tpcw_answers_adhoc_sql_as_its_prepared_statements() {
    use shareddb::tpcw::{build_catalog, TpcwScale, SQL, SUBJECTS};

    /// The statement's text with each `?` / `?N` replaced by its literal.
    fn adhoc(name: &str, literals: &[&str]) -> String {
        let (_, sql) = SQL.iter().find(|(n, _)| *n == name).unwrap();
        let (mut text, mut next) = (String::new(), 0);
        let mut chars = sql.chars().peekable();
        while let Some(c) = chars.next() {
            if c != '?' {
                text.push(c);
                continue;
            }
            let slot = match chars.peek().and_then(|d| d.to_digit(10)) {
                Some(n) => {
                    chars.next();
                    n as usize - 1
                }
                None => {
                    next += 1;
                    next - 1
                }
            };
            text.push_str(literals[slot]);
        }
        text
    }

    let catalog = Arc::new(build_catalog(&TpcwScale::tiny()).unwrap());
    let mut server = Server::start_sql(
        catalog,
        SQL,
        EngineConfig::default(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let get_item = conn.prepare("getItemById").unwrap();
    for id in [0i64, 17, 99] {
        let text = adhoc("getItemById", &[&id.to_string()]);
        let by_text = conn.query(&text).unwrap();
        let prepared = conn.execute(&get_item, &[Value::Int(id)]).unwrap();
        assert_eq!(by_text.rows().len(), 1, "{text}");
        assert_eq!(by_text.rows(), prepared.rows(), "{text}");
    }
    let best_sellers = conn.prepare("getBestSellers").unwrap();
    for subject in &SUBJECTS[..4] {
        let text = adhoc("getBestSellers", &[&format!("'{subject}'"), "100"]);
        let by_text = conn.query(&text).unwrap();
        let params = [Value::text(*subject), Value::Int(100)];
        let prepared = conn.execute(&best_sellers, &params).unwrap();
        assert!(!by_text.rows().is_empty(), "{text}");
        assert_eq!(by_text.rows(), prepared.rows(), "{text}");
    }
    let update = conn.prepare("adminUpdateItem").unwrap();
    let text = adhoc("adminUpdateItem", &["7", "12.5", "15403"]);
    assert!(text.ends_with("WHERE I_ID = 7"), "{text}");
    let by_text = conn.query(&text).unwrap();
    let params = [Value::Int(8), Value::Float(12.5), Value::Int(15_403)];
    let prepared = conn.execute(&update, &params).unwrap();
    assert_eq!(by_text.rows_affected(), 1);
    assert_eq!(prepared.rows_affected(), 1);
    let mut item = |id: i64| conn.execute(&get_item, &[Value::Int(id)]).unwrap().rows()[0].clone();
    let (seven, eight) = (item(7), item(8));
    assert_eq!(seven[4..6], [Value::Float(12.5), Value::Int(15_403)]);
    assert_eq!(seven[4..6], eight[4..6]);
    conn.close().unwrap();
    server.shutdown();
}

/// Regression test for the admission TOCTOU: the queue-depth check and the
/// enqueue used to be separate steps, so N concurrent sessions could overshoot
/// the bound by N−1. The bound is now enforced under the engine's queue lock;
/// hammering it from many connections must never push the queue past the
/// limit — observed continuously by a sampler while the hammer runs.
#[test]
fn admission_queue_bound_is_never_exceeded() {
    const CONNS: usize = 8;
    const PER_CONN: i64 = 16;
    const DEPTH: usize = 4;
    let server_config = ServerConfig {
        max_queue_depth: DEPTH,
        max_inflight_per_session: 1024,
        drain_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let mut server = start_server(EngineConfig::default(), server_config);
    let addr = server.local_addr();
    // Everything submitted from here on stays queued until the shutdown.
    let hold = Hold::new(&server, "ITEM", "getItem");

    let submitted = Arc::new(Barrier::new(CONNS + 1));
    let observed = std::thread::scope(|scope| {
        // Hammer: every connection fires its whole pipeline as fast as it
        // can, racing the others for the DEPTH admission slots.
        let go = Arc::new(Barrier::new(CONNS));
        for _ in 0..CONNS {
            let go = Arc::clone(&go);
            let submitted = Arc::clone(&submitted);
            scope.spawn(move || {
                let mut conn = Connection::connect(addr).unwrap();
                let get_item = conn.prepare("getItem").unwrap();
                go.wait();
                let tickets: Vec<_> = (0..PER_CONN)
                    .map(|i| conn.submit(&get_item, &[Value::Int(i)]).unwrap())
                    .collect();
                submitted.wait();
                // Redeem after the drain delivers: admitted statements come
                // back as rows (final batch), the rest as retryable
                // rejections — never anything else.
                for ticket in tickets {
                    match conn.wait(ticket) {
                        Ok(outcome) => assert_eq!(outcome.rows().len(), 1),
                        Err(e) => {
                            assert!(matches!(e, Error::Overloaded(_)), "unexpected {e:?}")
                        }
                    }
                }
            });
        }
        // Sampler: watches the queue depth for the whole hammer phase, until
        // the server has processed all 128 submissions.
        let mut max_queued = 0;
        let expected_requests = (CONNS as u64) * (PER_CONN as u64);
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().requests < expected_requests && Instant::now() < deadline {
            max_queued = max_queued.max(server.queued());
            std::thread::yield_now();
        }
        submitted.wait();
        // Capture now, assert after shutdown: a failed assert inside the
        // scope would leave the submitters blocked on their tickets forever.
        let queued_at_peak = server.queued();
        let stats = server.stats();
        hold.release_after(Duration::from_millis(500));
        server.shutdown();
        (queued_at_peak, max_queued, stats)
    });
    let (queued_at_peak, max_queued, stats) = observed;
    // All 128 submissions were in and nothing had drained (a held batch):
    // the queue must hold exactly DEPTH, every submission beyond that must
    // have been rejected, and no sampled instant may ever have seen the
    // queue above the bound.
    assert_eq!(stats.requests, (CONNS as u64) * (PER_CONN as u64));
    assert_eq!(queued_at_peak, DEPTH, "bound overshot: {stats:?}");
    assert_eq!(
        stats.rejected,
        (CONNS as u64) * (PER_CONN as u64) - DEPTH as u64,
        "stats: {stats:?}"
    );
    assert!(
        max_queued <= DEPTH,
        "sampler saw the queue above the bound: {max_queued} > {DEPTH}"
    );
}

/// Graceful shutdown under load: a client with queries in flight is drained
/// (its admitted work is answered by the final batch) and a client stalled
/// mid-frame is cleanly disconnected — neither can make shutdown hang.
#[test]
fn shutdown_drains_inflight_and_closes_stalled_clients() {
    let server_config = ServerConfig {
        drain_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let mut server = start_server(EngineConfig::default(), server_config);
    let addr = server.local_addr();

    // Client A: pipelined queries queued behind a held batch until the
    // shutdown.
    let mut a = Connection::connect(addr).unwrap();
    let get_item = a.prepare("getItem").unwrap();
    let hold = Hold::new(&server, "ITEM", "getItem");
    let tickets: Vec<_> = (1..4)
        .map(|i| a.submit(&get_item, &[Value::Int(i)]).unwrap())
        .collect();

    // Client B: greets, then stalls in the middle of a frame forever.
    let mut b = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut b,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            client_name: "staller".into(),
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut b).unwrap().unwrap(),
        Frame::HelloOk { .. }
    ));
    // Length prefix announcing 32 body bytes, then only 3 of them.
    b.write_all(&[32, 0, 0, 0, 0x02, 0xab, 0xcd]).unwrap();
    b.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the server read it

    let started = Instant::now();
    hold.release_after(Duration::from_millis(500));
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "shutdown hung for {elapsed:?}"
    );

    // A's admitted work was executed as the engine's final batch and
    // delivered over the still-open socket.
    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = a.wait(ticket).unwrap();
        assert_eq!(outcome.rows().len(), 1);
        assert_eq!(outcome.rows()[0][0], Value::Int(i as i64 + 1));
    }

    // B was cleanly disconnected (EOF or reset), not left hanging.
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match read_frame(&mut b) {
        Ok(None) | Err(_) => {}
        Ok(Some(frame)) => panic!("stalled client got a frame: {frame:?}"),
    }
}

/// The reactor's incremental decoder reassembles frames that arrive one byte
/// at a time, and the keepalive no-op round-trips both raw and through the
/// client library.
#[test]
fn byte_dribbled_frames_reassemble_and_ping_round_trips() {
    let mut server = start_server(EngineConfig::default(), ServerConfig::default());
    let addr = server.local_addr();

    // Client-library keepalive.
    let mut conn = Connection::connect(addr).unwrap();
    conn.ping().unwrap();
    conn.close().unwrap();

    // Raw socket, frames dribbled byte by byte (every write is its own TCP
    // segment thanks to TCP_NODELAY, so the server sees partial frames).
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let frames = [
        Frame::Hello {
            version: PROTOCOL_VERSION,
            client_name: "dribble".into(),
        },
        Frame::Ping { request_id: 1 },
        Frame::Query {
            request_id: 2,
            sql: "SELECT * FROM ITEM WHERE I_ID = 11".into(),
        },
    ];
    for frame in &frames {
        for byte in frame.encode() {
            stream.write_all(&[byte]).unwrap();
            stream.flush().unwrap();
        }
    }
    assert!(matches!(
        read_frame(&mut stream).unwrap().unwrap(),
        Frame::HelloOk { .. }
    ));
    assert!(matches!(
        read_frame(&mut stream).unwrap().unwrap(),
        Frame::Pong { request_id: 1 }
    ));
    match read_frame(&mut stream).unwrap().unwrap() {
        Frame::ResultChunk { rows, .. } => {
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0][0], Value::Int(11));
        }
        other => panic!("unexpected {other:?}"),
    }
    write_frame(&mut stream, &Frame::Goodbye).unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap().unwrap(),
        Frame::GoodbyeOk
    ));
    server.shutdown();
}

/// Hostile or broken peers are dropped cleanly and never destabilise the
/// reactor: garbage bytes, an absurd declared frame length, a foreign
/// protocol version, a retired opcode — a session opened before them keeps
/// answering, and so does one opened after.
#[test]
fn hostile_clients_are_dropped_cleanly() {
    let mut server = start_server(EngineConfig::default(), ServerConfig::default());
    let addr = server.local_addr();
    let mut bystander = Connection::connect(addr).unwrap();

    let expect_dropped = |mut s: TcpStream| {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match read_frame(&mut s) {
            Ok(None) | Err(_) => {}
            Ok(Some(frame)) => panic!("hostile client got a frame: {frame:?}"),
        }
    };

    // Garbage bytes instead of a frame (first 4 bytes declare a bogus
    // 0x21626d6f-byte length — far past MAX_FRAME_LEN).
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"ombo jumbo!").unwrap();
    expect_dropped(s);

    // An explicit 0xFFFFFFFF declared frame length.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&[0xff, 0xff, 0xff, 0xff, 0x06]).unwrap();
    expect_dropped(s);

    // A frame that is valid wire format but not a legal first frame.
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, &Frame::Ping { request_id: 1 }).unwrap();
    expect_dropped(s);

    // A foreign protocol version — the last one that carried the explain
    // frames, or one from the future — gets an UNSUPPORTED error naming both
    // versions, then the close.
    for version in [PROTOCOL_VERSION - 1, 99] {
        let mut s = TcpStream::connect(addr).unwrap();
        let client_name = "from-another-time".into();
        let hello = Frame::Hello {
            version,
            client_name,
        };
        write_frame(&mut s, &hello).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match read_frame(&mut s).unwrap().unwrap() {
            Frame::Error {
                code,
                retryable,
                message,
                ..
            } => {
                assert_eq!(code, 13); // UNSUPPORTED
                assert!(!retryable);
                let named = format!(
                    "version {version} is not supported (server speaks {PROTOCOL_VERSION})"
                );
                assert!(message.contains(&named), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        expect_dropped(s);
    }

    // Opcode 0x05 was the statistics request until v5, 0x08 / 0x88 the
    // explain request and reply until v6: a greeted session that sends one
    // is closed like any malformed frame, and the session beside it goes on.
    let old_explain = [21, 0, 0, 0, 0x08, 1, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0];
    let retired: [&[u8]; 3] = [
        // length 9 | opcode | u64 request id
        &[9, 0, 0, 0, 0x05, 1, 0, 0, 0, 0, 0, 0, 0],
        // length 21 | opcode | u64 request id | u8 analyze | string "getItem"
        &[&old_explain[..], b"getItem"].concat(),
        &[9, 0, 0, 0, 0x88, 1, 0, 0, 0, 0, 0, 0, 0],
    ];
    for frame in retired {
        let mut s = TcpStream::connect(addr).unwrap();
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            client_name: "speaks-a-retired-frame".into(),
        };
        write_frame(&mut s, &hello).unwrap();
        assert!(matches!(
            read_frame(&mut s).unwrap().unwrap(),
            Frame::HelloOk { .. }
        ));
        s.write_all(frame).unwrap();
        expect_dropped(s);
    }
    let outcome = bystander
        .query("SELECT * FROM ITEM WHERE I_ID = 5")
        .unwrap();
    assert_eq!(outcome.rows().len(), 1);
    bystander.close().unwrap();

    // The server is still healthy for well-behaved clients.
    let mut conn = Connection::connect(addr).unwrap();
    let outcome = conn.query("SELECT * FROM ITEM WHERE I_ID = 3").unwrap();
    assert_eq!(outcome.rows().len(), 1);
    conn.close().unwrap();
    // The reactor reaps the closed connections asynchronously; none of the
    // hostile ones may leak a session slot.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().sessions_active > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = server.stats();
    assert_eq!(stats.sessions_active, 0, "leaked sessions: {stats:?}");
    server.shutdown();
}

/// A refused connection is an I/O error from `connect`, not a panic.
#[test]
fn a_refused_connection_is_an_io_error() {
    // Reserve a free port, then close it so that nobody listens there.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    match Connection::connect(addr) {
        Err(Error::Io(_)) => {}
        Err(other) => panic!("expected an I/O error, got {other:?}"),
        Ok(_) => panic!("connect to a closed port succeeded"),
    }
}

/// An idle server parks in the poller with no timers armed: it must burn
/// (almost) no CPU. Ignored by default because it measures process-wide CPU
/// time and would be perturbed by concurrently running tests — run it alone:
/// `cargo test --test network -- --ignored idle_server`.
#[test]
#[ignore]
fn idle_server_uses_no_cpu() {
    fn process_cpu() -> Duration {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        // utime and stime are fields 14 and 15 (1-based); counting from the
        // closing paren of the comm field they are at offsets 11 and 12.
        let after_comm = stat.rsplit(')').next().unwrap();
        let fields: Vec<&str> = after_comm.split_whitespace().collect();
        let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        Duration::from_millis(ticks * 10) // 100 Hz clock
    }

    let mut server = start_server(EngineConfig::default(), ServerConfig::default());
    // A connected but idle session keeps the reactor's conn map non-empty.
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    conn.ping().unwrap();

    let before = process_cpu();
    std::thread::sleep(Duration::from_secs(2));
    let used = process_cpu() - before;
    assert!(
        used < Duration::from_millis(100),
        "idle server burned {used:?} of CPU in 2s"
    );
    conn.close().unwrap();
    server.shutdown();
}

/// The ORDER BY / LIMIT path works over the wire with typed decoding.
#[test]
fn sorted_limited_results_decode_with_schema() {
    let mut server = start_server(EngineConfig::default(), ServerConfig::default());
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let cheaper = conn.prepare("itemsCheaperThan").unwrap();
    let outcome = conn.execute(&cheaper, &[Value::Float(10.0)]).unwrap();
    match outcome {
        Outcome::Rows(rs) => {
            assert_eq!(rs.len(), 10);
            assert_eq!(rs.columns.len(), 3);
            assert_eq!(rs.columns[2].1, DataType::Float);
            let costs: Vec<f64> = rs.rows.iter().map(|r| r[2].as_float().unwrap()).collect();
            assert!(costs.windows(2).all(|w| w[0] <= w[1]));
        }
        other => panic!("unexpected {other:?}"),
    }
    conn.close().unwrap();
    server.shutdown();
}

/// A result longer than one `ResultChunk` (512 rows) arrives as ⌈rows / 512⌉
/// frames of one request: the first alone carries `FIRST` and the schema,
/// the last alone `LAST`, and the rows concatenate to the engine's, in order.
#[test]
fn a_long_result_arrives_in_chunks() {
    use shareddb::server::protocol::chunk_flags;
    const CHUNK_ROWS: usize = 512;
    const ITEMS: i64 = 1_300;
    let catalog = catalog();
    catalog
        .bulk_load(
            "ITEM",
            (200..ITEMS)
                .map(|i| tuple![i, format!("title{i}"), (i % 50) as f64])
                .collect(),
        )
        .unwrap();
    let sql = "SELECT * FROM ITEM";
    let mut server = Server::start_sql(
        catalog,
        &[("allItems", sql)],
        EngineConfig::default(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        client_name: "chunks".into(),
    };
    write_frame(&mut stream, &hello).unwrap();
    let greeting = read_frame(&mut stream).unwrap().unwrap();
    assert!(matches!(greeting, Frame::HelloOk { .. }));
    let query = Frame::Query {
        request_id: 7,
        sql: sql.into(),
    };
    write_frame(&mut stream, &query).unwrap();

    let mut chunks = Vec::new();
    loop {
        let frame = read_frame(&mut stream).unwrap().unwrap();
        let Frame::ResultChunk {
            request_id,
            flags,
            schema,
            rows,
            ..
        } = frame
        else {
            panic!("{frame:?}");
        };
        assert_eq!(request_id, 7);
        chunks.push((flags, schema, rows));
        if flags & chunk_flags::LAST != 0 {
            break;
        }
    }
    let expected = server
        .with_engine(|e| e.execute_sync("allItems", &[]))
        .unwrap()
        .unwrap();
    let expected = expected.rows();
    assert_eq!(expected.len(), ITEMS as usize);
    assert_eq!(chunks.len(), expected.len().div_ceil(CHUNK_ROWS));
    for (i, (flags, schema, rows)) in chunks.iter().enumerate() {
        let (first, last) = (i == 0, i + 1 == chunks.len());
        assert_eq!(flags & chunk_flags::FIRST != 0, first, "chunk {i}");
        assert_eq!(flags & chunk_flags::LAST != 0, last, "chunk {i}");
        assert_eq!(!schema.is_empty(), first, "chunk {i}: {schema:?}");
        let full = if last {
            expected.len() % CHUNK_ROWS
        } else {
            CHUNK_ROWS
        };
        assert_eq!(rows.len(), full, "chunk {i}");
    }
    assert_eq!(chunks[0].1.len(), 3);
    let received: Vec<_> = chunks.into_iter().flat_map(|(_, _, rows)| rows).collect();
    let expected: Vec<Vec<Value>> = expected
        .iter()
        .map(|row| row.values().into_owned())
        .collect();
    assert_eq!(received, expected);
    server.shutdown();
}

/// One hostile title pattern must not stall the batch it rides in: twelve
/// `%` against a title that almost matches took the recursive matcher longer
/// than anyone waited; now the look-up sent behind it is answered within the
/// `point_lookup` SLO.
#[test]
fn a_many_wildcard_title_search_does_not_stall_a_lookup() {
    use shareddb::common::Expr;
    use shareddb::storage::UpdateOp;
    use shareddb::tpcw::{build_catalog, build_shared_plan, TpcwScale};

    let catalog = Arc::new(build_catalog(&TpcwScale::with_items(200)).unwrap());
    let almost = UpdateOp::Update {
        assignments: vec![(1, Expr::lit("a".repeat(64)))],
        predicate: Expr::col(0).eq(Expr::lit(0i64)),
    };
    catalog.apply_batch(&[("ITEM".into(), almost)]).unwrap();
    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    let (engine, frontend) = (EngineConfig::default(), ServerConfig::default());
    let mut server = Server::start(catalog, plan, registry, engine, frontend).unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let search = conn.prepare("doTitleSearch").unwrap();
    let lookup = conn.prepare("getItemById").unwrap();
    conn.execute(&lookup, &[Value::Int(1)]).unwrap();
    let pattern = Value::text(format!("{}b", "%a".repeat(12)));
    // The bound is the SLO, not a scheduler's mood: the best of three rounds.
    let mut fastest = Duration::MAX;
    for _ in 0..3 {
        let started = Instant::now();
        let search = conn
            .submit(&search, std::slice::from_ref(&pattern))
            .unwrap();
        let lookup = conn.submit(&lookup, &[Value::Int(5)]).unwrap();
        assert!(conn.wait(search).unwrap().rows().is_empty());
        assert_eq!(conn.wait(lookup).unwrap().rows().len(), 1);
        fastest = fastest.min(started.elapsed());
    }
    assert!(fastest < Duration::from_millis(50), "{fastest:?}");
    let _ = conn.close();
    server.shutdown();
}

/// Every reply is one snapshot: a writer connection keeps bumping every
/// row's generation column — one UPDATE per generation, atomic under group
/// commit — while another connection reads the whole table. Each result holds
/// every row, in order, with one generation value throughout.
#[test]
fn reads_under_a_whole_table_writer_see_one_snapshot() {
    const ROWS: i64 = 256;
    let catalog = Catalog::new();
    let table = TableDef::new("G")
        .column("ID", DataType::Int)
        .column("GEN", DataType::Int)
        .primary_key(&["ID"]);
    catalog.create_table(table).unwrap();
    catalog
        .bulk_load("G", (0..ROWS).map(|i| tuple![i, 0i64]).collect())
        .unwrap();
    let mut server = Server::start_sql(
        Arc::new(catalog),
        &[
            ("snap", "SELECT * FROM G ORDER BY ID"),
            ("tick", "UPDATE G SET GEN = ? WHERE ID >= 0"),
        ],
        EngineConfig::default(),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut conn = Connection::connect(addr).unwrap();
            let tick = conn.prepare("tick").unwrap();
            let mut generation = 0i64;
            while !stop.load(Ordering::Relaxed) {
                generation += 1;
                let outcome = conn.execute(&tick, &[Value::Int(generation)]).unwrap();
                assert_eq!(outcome.rows_affected(), ROWS as u64);
            }
            let _ = conn.close();
            generation
        })
    };

    let mut conn = Connection::connect(addr).unwrap();
    let snap = conn.prepare("snap").unwrap();
    let mut generations_seen = std::collections::HashSet::new();
    for round in 0..80 {
        let outcome = conn.execute(&snap, &[]).unwrap();
        let rows = outcome.rows();
        assert_eq!(rows.len(), ROWS as usize, "round {round}: torn row set");
        let generation = rows[0][1].clone();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], Value::Int(i as i64), "round {round}: order broken");
            assert_eq!(
                row[1], generation,
                "round {round}: rows from different snapshots in one result (row {i} vs row 0)"
            );
        }
        generations_seen.insert(format!("{generation:?}"));
    }
    stop.store(true, Ordering::Relaxed);
    let last = writer.join().unwrap();
    assert!(
        generations_seen.len() > 1,
        "updates never interleaved with the reads (last generation {last})"
    );
    conn.close().unwrap();
    server.shutdown();
}

/// Read-your-writes over the wire: one connection pipelines an INSERT and
/// then a look-up of its row — another statement type — behind a held
/// batch, so that both wait in the admission queue for one batch, and every
/// round's read holds its row: the queue is FIFO and a batch applies its
/// updates before its reads run.
#[test]
fn a_pipelined_read_sees_its_sessions_write() {
    let mut server = start_server(EngineConfig::default(), ServerConfig::default());
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let (add_item, get_item) = (
        conn.prepare("addItem").unwrap(),
        conn.prepare("getItem").unwrap(),
    );
    for round in 0..8i64 {
        let id = 10_000 + round;
        let row = [Value::Int(id), Value::text("fresh"), Value::Float(1.0)];
        let hold = Hold::new(&server, "ITEM", "getItem");
        let write = conn.submit(&add_item, &row).unwrap();
        let read = conn.submit(&get_item, &[Value::Int(id)]).unwrap();
        queued(&server, 2);
        drop(hold);
        assert_eq!(conn.wait(write).unwrap().rows_affected(), 1);
        let rows = conn.wait(read).unwrap();
        assert_eq!(
            rows.rows().len(),
            1,
            "round {round}: the read missed its session's write"
        );
    }
    conn.close().unwrap();
    server.shutdown();
}

/// A multi-megabyte reply does not stall another connection: while one
/// connection reads a 2 MB sorted table back to back, another's pings keep
/// completing — the reactor only ships bytes the coordinator has finished.
#[test]
fn a_multi_megabyte_reply_does_not_stall_a_ping() {
    const ROWS: i64 = 8_000;
    let catalog = Catalog::new();
    let table = TableDef::new("BIG")
        .column("ID", DataType::Int)
        .column("PAD", DataType::Text)
        .primary_key(&["ID"]);
    catalog.create_table(table).unwrap();
    let pad = "x".repeat(256);
    catalog
        .bulk_load("BIG", (0..ROWS).map(|i| tuple![i, pad.clone()]).collect())
        .unwrap();
    let mut server = Server::start_sql(
        Arc::new(catalog),
        &[("bigSort", "SELECT * FROM BIG ORDER BY ID")],
        EngineConfig::default(),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let heavy = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut conn = Connection::connect(addr).unwrap();
            let big = conn.prepare("bigSort").unwrap();
            let mut replies = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let outcome = conn.execute(&big, &[]).unwrap();
                assert_eq!(outcome.rows().len(), ROWS as usize);
                replies += 1;
            }
            let _ = conn.close();
            replies
        })
    };

    // The bound is deliberately generous (a loaded host): the failure this
    // guards against is a reactor wedged for the whole encode of the big
    // reply, which showed as multi-second stalls.
    let mut conn = Connection::connect(addr).unwrap();
    let mut worst = Duration::ZERO;
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut pings = 0u32;
    while Instant::now() < deadline {
        let begun = Instant::now();
        conn.ping().unwrap();
        worst = worst.max(begun.elapsed());
        pings += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    let replies = heavy.join().unwrap();
    assert!(replies > 0, "no big reply ever completed");
    assert!(pings > 50, "ping loop starved entirely ({pings} pings)");
    assert!(
        worst < Duration::from_secs(2),
        "ping stalled {worst:?} behind {replies} big replies"
    );
    conn.close().unwrap();
    server.shutdown();
}

/// How a run of [`pipelined_replies`] ends, once the server has read every
/// request.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Ending {
    /// Every statement is answered, then the server is shut down.
    AllAnswered,
    /// `Server::shutdown` with statements still in flight: the drain
    /// delivers them from the batches still to come.
    Drain,
    /// The same behind a batch held until the drain has timed out: what the
    /// reactor submitted is still queued in the engine when
    /// `Engine::shutdown` finds it.
    EngineShutdown,
}

/// Eight connections pipeline 2 000 statements each — updates, which complete
/// in phase 1 of their batch, before the reads submitted ahead of them;
/// look-ups; best-seller pages, which keep a batch busy longest — and read their
/// replies as they come. Every request is answered exactly once, in
/// submission order, with its own rows (a look-up names its item), whether
/// the answer comes from a batch of its time, from one formed during the
/// drain or from the last batch of an engine shutting down.
fn pipelined_replies(ending: Ending) {
    use shareddb::server::protocol::chunk_flags;
    use shareddb::tpcw::{build_catalog, build_shared_plan, TpcwScale, SUBJECTS};
    const CONNECTIONS: u64 = 8;
    const EACH: u64 = 2_000;
    let label = format!("{ending:?}");

    let catalog = Arc::new(build_catalog(&TpcwScale::tiny()).unwrap());
    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    let id = |name: &str| registry.get(name).unwrap().0 as u32;
    let (update, lookup, page) = (
        id("adminUpdateItem"),
        id("getItemById"),
        id("getBestSellers"),
    );
    let request = move |request_id: u64| {
        let item = Value::Int((request_id * 7 % 100) as i64);
        let (statement_id, params) = match request_id % 5 {
            0 => (update, vec![item, Value::Float(9.5), Value::Date(15_403)]),
            4 => (page, vec![Value::text(SUBJECTS[0]), Value::Int(0)]),
            _ => (lookup, vec![item]),
        };
        Frame::ExecutePrepared {
            request_id,
            statement_id,
            params,
        }
    };
    let server_config = ServerConfig {
        max_inflight_per_session: EACH as usize,
        max_queue_depth: (CONNECTIONS * EACH) as usize,
        // What an engine shutting down finds queued it answers from one
        // batch, which has as long again (and two seconds) to reach the
        // clients before the reactor gives up on them.
        drain_timeout: Duration::from_secs(1),
        ..ServerConfig::default()
    };
    let drain_timeout = server_config.drain_timeout;
    let engine_config = EngineConfig::default();
    let mut server = Server::start(catalog, plan, registry, engine_config, server_config).unwrap();
    let addr = server.local_addr();
    // EngineShutdown: everything the clients send stays queued until the
    // drain has timed out.
    let hold =
        (ending == Ending::EngineShutdown).then(|| Hold::new(&server, "ITEM", "getItemById"));

    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|_| {
            let label = label.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                let timeout = Some(Duration::from_secs(60));
                stream.set_read_timeout(timeout).unwrap();
                let hello = Frame::Hello {
                    version: PROTOCOL_VERSION,
                    client_name: "pipeliner".into(),
                };
                write_frame(&mut stream, &hello).unwrap();
                let greeting = read_frame(&mut stream).unwrap().unwrap();
                assert!(matches!(greeting, Frame::HelloOk { .. }));
                let mut writer = stream.try_clone().unwrap();
                let sender = std::thread::spawn(move || {
                    (1..=EACH).for_each(|id| write_frame(&mut writer, &request(id)).unwrap())
                });
                for next in 1..=EACH {
                    loop {
                        let frame = read_frame(&mut stream);
                        let Ok(Some(Frame::ResultChunk {
                            request_id,
                            flags,
                            rows_affected,
                            rows,
                            ..
                        })) = frame
                        else {
                            panic!("{label}: {frame:?} for request {next}");
                        };
                        assert_eq!(request_id, next, "{label}: reply out of order");
                        match request_id % 5 {
                            0 => assert_eq!((flags, rows_affected), (7, 1), "{label}"),
                            4 => assert!(rows.len() <= 50, "{label}"),
                            _ => {
                                let item = Value::Int((request_id * 7 % 100) as i64);
                                assert_eq!(rows.len(), 1, "{label}");
                                assert_eq!(rows[0][0], item, "{label}: another's rows");
                            }
                        }
                        if flags & chunk_flags::LAST != 0 {
                            break;
                        }
                    }
                }
                sender.join().unwrap();
                // Nothing follows the last reply: no request is answered twice.
                stream
            })
        })
        .collect();

    // Shut down once the server has read every request: what is tested is
    // what becomes of the requests it has (a client still sending through a
    // drain is `a_drain_delivers_every_reply_to_a_client_still_pipelining`).
    let started = Instant::now();
    let submitted = |server: &Server| match ending {
        Ending::AllAnswered => {
            let stats = server.engine_stats().unwrap();
            assert_eq!(stats.failed, 0, "{label}");
            stats.queries + stats.updates
        }
        _ => server.stats().requests,
    };
    while submitted(&server) < CONNECTIONS * EACH {
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "{label}: hung"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    if let Some(hold) = hold {
        hold.release_after(drain_timeout + Duration::from_millis(300));
    }
    server.shutdown();
    for client in clients {
        let mut stream = client.join().unwrap();
        let after = read_frame(&mut stream);
        assert!(!matches!(after, Ok(Some(_))), "{label}: {after:?}");
    }
    assert_eq!(server.stats().requests, CONNECTIONS * EACH, "{label}");
}

#[test]
fn pipelined_replies_arrive_once_and_in_order() {
    pipelined_replies(Ending::AllAnswered);
}

#[test]
fn pipelined_replies_survive_a_drain() {
    pipelined_replies(Ending::Drain);
}

#[test]
fn pipelined_replies_survive_an_engine_shutdown_with_statements_queued() {
    pipelined_replies(Ending::EngineShutdown);
}

/// A client that keeps pipelining through `Server::shutdown` reads every
/// reply the server wrote, then a clean EOF. A close that finds unread
/// requests on a socket resets it, and the reset throws away whatever of the
/// replies the kernel has not sent yet; the drain half-closes the socket once
/// the last owed reply is flushed and reads what still comes until the
/// client's EOF.
#[test]
fn a_drain_delivers_every_reply_to_a_client_still_pipelining() {
    use shareddb::server::protocol::chunk_flags;
    use std::net::Shutdown;
    let mut server = start_server(EngineConfig::default(), ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        client_name: "pipeliner".into(),
    };
    write_frame(&mut stream, &hello).unwrap();
    let greeting = read_frame(&mut stream).unwrap().unwrap();
    assert!(matches!(greeting, Frame::HelloOk { .. }));
    let prepare = Frame::Prepare {
        request_id: 0,
        name: "itemsCheaperThan".into(),
    };
    write_frame(&mut stream, &prepare).unwrap();
    let Some(Frame::Prepared { statement_id, .. }) = read_frame(&mut stream).unwrap() else {
        panic!("no statement id");
    };

    // The sender pipelines (ten rows a reply; past 64 in flight a reply is
    // a retryable rejection) until the reader has met the end of the replies.
    let stop = Arc::new(AtomicBool::new(false));
    let mut writer = stream.try_clone().unwrap();
    let sender = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for request_id in 1.. {
                if stop.load(Ordering::Relaxed) {
                    let _ = writer.shutdown(Shutdown::Write);
                    return;
                }
                let frame = Frame::ExecutePrepared {
                    request_id,
                    statement_id,
                    params: vec![Value::Float(25.0)],
                };
                if write_frame(&mut writer, &frame).is_err() {
                    return;
                }
            }
        })
    };
    // The reader takes its time, so that replies wait in the server's send
    // queue when its last one is flushed.
    let reader = std::thread::spawn(move || {
        let mut replies = 0u64;
        let end = loop {
            match read_frame(&mut stream) {
                Ok(Some(Frame::ResultChunk { flags, .. })) if flags & chunk_flags::LAST == 0 => {
                    continue
                }
                Ok(Some(Frame::ResultChunk { .. } | Frame::Error { .. })) => replies += 1,
                end => break end,
            }
            if replies.is_multiple_of(64) {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        stop.store(true, Ordering::Relaxed);
        (replies, end)
    });

    let started = Instant::now();
    while server.stats().requests < 20_000 {
        assert!(started.elapsed() < Duration::from_secs(60), "hung");
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown();
    let (replies, end) = reader.join().unwrap();
    sender.join().unwrap();
    assert!(matches!(end, Ok(None)), "{end:?} after {replies} replies");
    assert_eq!(replies, server.stats().requests);
}

/// `docs/OPERATIONS.md`'s *Wire protocol* section against the protocol: the
/// version it names is `PROTOCOL_VERSION`, every opcode of a live row is the
/// frame its row names and decodes, every frame is in the table, and every
/// opcode of a retired row is refused.
#[test]
fn operations_doc_wire_table_matches_the_protocol() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/OPERATIONS.md");
    let doc = std::fs::read_to_string(path).expect("docs/OPERATIONS.md must exist");
    let section = doc
        .split("## Wire protocol")
        .nth(1)
        .expect("a Wire protocol section");
    let section = section.split("\n## ").next().unwrap();
    let prose = section.split_whitespace().collect::<Vec<_>>().join(" ");
    assert!(
        prose.contains(&format!("protocol **v{PROTOCOL_VERSION}**")),
        "the section must name protocol v{PROTOCOL_VERSION}"
    );
    assert!(
        prose.contains(&format!("any version but {PROTOCOL_VERSION} is answered")),
        "the handshake row must name v{PROTOCOL_VERSION}"
    );

    // One frame of every kind, by its opcode.
    let frames = [
        Frame::Hello {
            version: PROTOCOL_VERSION,
            client_name: "doc".into(),
        },
        Frame::Query {
            request_id: 1,
            sql: "EXPLAIN getItem".into(),
        },
        Frame::Prepare {
            request_id: 2,
            name: "getItem".into(),
        },
        Frame::ExecutePrepared {
            request_id: 3,
            statement_id: 0,
            params: vec![Value::Int(5)],
        },
        Frame::Goodbye,
        Frame::Ping { request_id: 4 },
        Frame::HelloOk {
            version: PROTOCOL_VERSION,
            server_name: "doc".into(),
            statement_count: 1,
        },
        Frame::Prepared {
            request_id: 2,
            statement_id: 0,
            param_count: 1,
            is_update: false,
        },
        Frame::ResultChunk {
            request_id: 1,
            flags: 3,
            rows_affected: 0,
            schema: vec![("PLAN".into(), DataType::Text)],
            rows: vec![vec![Value::text("statement getItem: query")]],
        },
        Frame::Error {
            request_id: 5,
            code: 6,
            retryable: false,
            message: "unknown".into(),
        },
        Frame::GoodbyeOk,
        Frame::Pong { request_id: 4 },
    ];
    let by_opcode = |opcode: u8| frames.iter().find(|f| f.encode()[4] == opcode);

    let mut documented = Vec::new();
    for row in section.lines().filter(|l| l.starts_with("| `0x")) {
        // | opcodes | direction | frames |
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let opcodes = cells[1].split(" / ");
        let opcodes: Vec<u8> = opcodes
            .map(|op| u8::from_str_radix(op.trim_matches('`').trim_start_matches("0x"), 16))
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("{row}: {e}"));
        if let Some(retired) = cells[3].strip_prefix("**retired in v") {
            let version: u16 = retired.split("**").next().unwrap().parse().unwrap();
            assert!(version <= PROTOCOL_VERSION, "{row}");
            for opcode in opcodes {
                assert!(
                    by_opcode(opcode).is_none(),
                    "{opcode:#x} is retired and live"
                );
                // Whatever body follows it: none, or a request id.
                assert!(Frame::decode(&[opcode]).is_err(), "{opcode:#x} decodes");
                let with_id = [opcode, 1, 0, 0, 0, 0, 0, 0, 0];
                assert!(Frame::decode(&with_id).is_err(), "{opcode:#x} decodes");
            }
            continue;
        }
        let names = cells[3].split(" — ").next().unwrap().split(" / ");
        let names: Vec<&str> = names.map(|n| n.trim().trim_matches('`')).collect();
        assert_eq!(names.len(), opcodes.len(), "{row}");
        for (opcode, name) in opcodes.into_iter().zip(names) {
            let frame = by_opcode(opcode).unwrap_or_else(|| panic!("no frame has {opcode:#x}"));
            let variant = format!("{frame:?}");
            assert!(
                variant.starts_with(name),
                "{opcode:#x} is {variant}, not {name}"
            );
            let encoded = frame.encode();
            assert_eq!(Frame::decode(&encoded[4..]).unwrap(), *frame, "{name}");
            documented.push(opcode);
        }
    }
    for frame in &frames {
        let opcode = frame.encode()[4];
        assert!(
            documented.contains(&opcode),
            "{frame:?} ({opcode:#x}) is not in the table"
        );
    }
}

/// Every `EngineConfig::x`, `ServerConfig::x` and `DriverConfig::x` that
/// `README.md` or `docs/*.md` names is a field of that type (read from the
/// `Debug` output of its default) or one of its constructors and builder
/// methods: a knob that went may not live on in the documents.
#[test]
fn config_fields_the_docs_name_exist() {
    // Naming the constructors keeps the lists below honest: one that goes
    // fails to compile here.
    let _ = (
        EngineConfig::default,
        EngineConfig::with_cores,
        EngineConfig::slow_query,
        ServerConfig::default,
        DriverConfig::default,
    );
    let types = [
        (
            "EngineConfig",
            format!("{:?}", EngineConfig::default()),
            &["default", "with_cores", "slow_query"][..],
        ),
        (
            "ServerConfig",
            format!("{:?}", ServerConfig::default()),
            &["default"][..],
        ),
        (
            "DriverConfig",
            format!("{:?}", DriverConfig::default()),
            &["default"][..],
        ),
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = vec![root.join("README.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "md") {
            paths.push(path);
        }
    }
    let mut checked = 0;
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap();
        for (name, debug, constructors) in &types {
            let fields = debug_fields(debug);
            let prefix = format!("{name}::");
            for (at, _) in text.match_indices(&prefix) {
                if text[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                    continue; // a longer type name ending in this one
                }
                let rest = &text[at + prefix.len()..];
                let end = rest
                    .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                let member = &rest[..end];
                assert!(
                    fields.contains(&member) || constructors.contains(&member),
                    "{} names {name}::{member}, which is neither a field of {debug} \
                     nor a constructor",
                    path.display()
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "the documents name no config field");
}

/// The top-level field names of a struct's `Debug` output.
fn debug_fields(debug: &str) -> Vec<&str> {
    let body = &debug[debug.find('{').expect("a struct") + 1..];
    let (mut depth, mut quoted, mut start) = (0i32, false, 0);
    let mut fields = Vec::new();
    for (i, c) in body.char_indices() {
        match c {
            '"' => quoted = !quoted,
            _ if quoted => {}
            '{' | '[' | '(' => depth += 1,
            '}' | ']' | ')' if depth > 0 => depth -= 1,
            ':' if depth == 0 && start <= i => {
                fields.push(body[start..i].trim());
                start = usize::MAX;
            }
            ',' if depth == 0 => start = i + 1,
            _ => {}
        }
    }
    fields
}
