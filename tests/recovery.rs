//! Durability integration tests: framed-WAL recovery, checkpointing, torn-tail
//! truncation, and crash-consistent restart of the always-on plan (Crescando
//! keeps all data in main memory but supports full recovery by checkpointing
//! and logging, Section 4.4).

use proptest::prelude::*;
use shareddb::common::{tuple, DataType, Expr, Value};
use shareddb::server::{Server, ServerConfig};
use shareddb::sql::compile_workload;
use shareddb::storage::wal::{
    committed_ops, FaultConfig, FaultSink, FileSink, MemorySink, SyncPolicy, Wal, FRAME_HEADER_LEN,
    FRAME_MAGIC, WAL_FORMAT_VERSION,
};
use shareddb::storage::{Catalog, TableDef, UpdateOp, WAL_FILE};
use std::path::PathBuf;
use std::sync::Arc;

fn item_def() -> TableDef {
    TableDef::new("ITEM")
        .column("I_ID", DataType::Int)
        .column("I_TITLE", DataType::Text)
        .column("I_COST", DataType::Float)
        .primary_key(&["I_ID"])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "shareddb-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// All live rows of a table at the latest snapshot, sorted for multiset
/// comparison.
fn live_rows(catalog: &Catalog, table: &str) -> Vec<Vec<Value>> {
    let handle = catalog.table(table).unwrap();
    let t = handle.read();
    let mut rows: Vec<Vec<Value>> = t
        .scan(catalog.snapshot())
        .map(|(_, r)| r.values().to_vec())
        .collect();
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

#[test]
fn checkpoint_then_recover_matches_original_state() {
    let dir = temp_dir("recovery");

    let catalog = Catalog::new();
    catalog.create_table(item_def()).unwrap();
    catalog
        .bulk_load(
            "ITEM",
            (0..500i64)
                .map(|i| tuple![i, format!("t{i}"), i as f64])
                .collect(),
        )
        .unwrap();
    // Mutate: delete cheap items, reprice one.
    catalog
        .apply_batch(&[
            (
                "ITEM".into(),
                UpdateOp::Delete {
                    predicate: Expr::col(2).lt(Expr::lit(100.0f64)),
                },
            ),
            (
                "ITEM".into(),
                UpdateOp::Update {
                    assignments: vec![(2, Expr::lit(999.0f64))],
                    predicate: Expr::col(0).eq(Expr::lit(400i64)),
                },
            ),
        ])
        .unwrap();
    let live_before = catalog.table("ITEM").unwrap().read().live_count();
    let info = catalog.checkpoint(&dir).unwrap();
    assert_eq!(info.rows, live_before);

    // "Crash" and recover into a fresh catalog.
    let recovered = Catalog::new();
    recovered.create_table(item_def()).unwrap();
    let report = recovered.recover(&dir).unwrap();
    assert_eq!(report.checkpoint_rows, live_before);
    assert_eq!(report.replayed_batches, 0);

    let table = recovered.table("ITEM").unwrap();
    let snapshot = recovered.oracle().read_ts();
    let t = table.read();
    assert_eq!(t.live_count(), 400);
    let repriced = t
        .scan(snapshot)
        .find(|(_, r)| r[0] == Value::Int(400))
        .map(|(_, r)| r[2].clone())
        .unwrap();
    assert_eq!(repriced, Value::Float(999.0));
    drop(t);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_records_batches_in_commit_order() {
    let catalog = Catalog::with_wal(Wal::new(Box::new(MemorySink::new())));
    catalog.create_table(item_def()).unwrap();
    for i in 0..5i64 {
        catalog
            .apply_batch(&[(
                "ITEM".into(),
                UpdateOp::Insert {
                    values: tuple![i, format!("t{i}"), 1.0f64],
                },
            )])
            .unwrap();
    }
    let dir = temp_dir("wal-order");
    let path = dir.join("replay.wal");
    let file_catalog = Catalog::with_wal(Wal::new(Box::new(FileSink::create(&path).unwrap())));
    file_catalog.create_table(item_def()).unwrap();
    for i in 0..5i64 {
        file_catalog
            .apply_batch(&[(
                "ITEM".into(),
                UpdateOp::Insert {
                    values: tuple![i, format!("t{i}"), 1.0f64],
                },
            )])
            .unwrap();
    }
    file_catalog.wal().sync().unwrap();
    let records = FileSink::read_all(&path).unwrap();
    // 5 batches × (BEGIN + 1 op + COMMIT).
    assert_eq!(records.len(), 15);
    let committed = committed_ops(&records);
    assert_eq!(committed.len(), 5);
    assert!(committed.windows(2).all(|w| w[0].0 < w[1].0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: `FileSink::read_all` used to fail hard when the final record
/// was truncated mid-write. A torn tail is the *normal* crash outcome; it
/// must read as "the log ends here", never as an error.
#[test]
fn read_all_survives_mid_record_truncation() {
    let dir = temp_dir("torn-read");
    let path = dir.join(WAL_FILE);

    let catalog = Catalog::with_wal(Wal::new(Box::new(FileSink::create(&path).unwrap())));
    catalog.create_table(item_def()).unwrap();
    for i in 0..4i64 {
        catalog
            .apply_batch(&[(
                "ITEM".into(),
                UpdateOp::Insert {
                    values: tuple![i, format!("title-{i}"), i as f64],
                },
            )])
            .unwrap();
    }
    catalog.wal().sync().unwrap();
    let full = FileSink::read_all(&path).unwrap();
    assert_eq!(full.len(), 12);

    // Truncate mid-way through the final frame, as a crash during a write
    // would. Every prefix length must still read cleanly.
    let len = std::fs::metadata(&path).unwrap().len();
    for cut in [len - 3, len - FRAME_HEADER_LEN as u64 / 2, len / 2] {
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);
        let records = FileSink::read_all(&path).unwrap();
        assert!(records.len() < full.len());
        // Only whole committed batches survive.
        for (_, ops) in committed_ops(&records) {
            assert!(!ops.is_empty());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped bit in a record body must be caught by the CRC and cut the log
/// there — the batches before it recover, the corrupt one never half-applies.
#[test]
fn recover_cuts_log_at_crc_corruption() {
    let dir = temp_dir("crc-cut");

    let catalog = Catalog::new();
    catalog.create_table(item_def()).unwrap();
    catalog.recover(&dir).unwrap();
    for i in 0..6i64 {
        catalog
            .apply_batch(&[(
                "ITEM".into(),
                UpdateOp::Insert {
                    values: tuple![i, format!("t{i}"), i as f64],
                },
            )])
            .unwrap();
    }
    drop(catalog);

    // Flip one bit in the last quarter of the log.
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let victim = bytes.len() - bytes.len() / 8;
    bytes[victim] ^= 0x10;
    std::fs::write(&wal_path, &bytes).unwrap();

    let reborn = Catalog::new();
    reborn.create_table(item_def()).unwrap();
    let report = reborn.recover(&dir).unwrap();
    let torn = report.torn_tail.expect("corruption must be detected");
    assert!(torn.offset <= victim as u64);
    assert!(report.replayed_batches < 6);
    let live = reborn.table("ITEM").unwrap().read().live_count();
    assert_eq!(live, report.replayed_batches);
    // The file was physically truncated back to the valid prefix, so a
    // second recovery sees a clean log and the same state.
    assert!(std::fs::metadata(&wal_path).unwrap().len() <= victim as u64);
    let again = Catalog::new();
    again.create_table(item_def()).unwrap();
    let second = again.recover(&dir).unwrap();
    assert!(second.torn_tail.is_none());
    assert_eq!(second.replayed_batches, report.replayed_batches);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fault-injecting sink drops everything past a byte cut, exactly like a
/// kernel that never saw the tail of a buffered write.
#[test]
fn fault_sink_partial_write_recovers_prefix() {
    let dir = temp_dir("fault-sink");
    let path = dir.join(WAL_FILE);

    // First find the healthy log length for this op sequence.
    let healthy = {
        let catalog = Catalog::with_wal(Wal::new(Box::new(FileSink::create(&path).unwrap())));
        catalog.create_table(item_def()).unwrap();
        for i in 0..5i64 {
            catalog
                .apply_batch(&[(
                    "ITEM".into(),
                    UpdateOp::Insert {
                        values: tuple![i, "x", 0.0f64],
                    },
                )])
                .unwrap();
        }
        catalog.wal().sync().unwrap();
        std::fs::metadata(&path).unwrap().len()
    };
    std::fs::remove_file(&path).unwrap();

    // Re-run the same sequence through a sink that drops the last 40%.
    let cut = healthy - healthy * 2 / 5;
    let sink = FaultSink::new(
        Box::new(FileSink::create(&path).unwrap()),
        FaultConfig {
            drop_after: Some(cut),
            flip_bit_at: None,
        },
    );
    let catalog = Catalog::with_wal(Wal::new(Box::new(sink)));
    catalog.create_table(item_def()).unwrap();
    for i in 0..5i64 {
        catalog
            .apply_batch(&[(
                "ITEM".into(),
                UpdateOp::Insert {
                    values: tuple![i, "x", 0.0f64],
                },
            )])
            .unwrap();
    }
    catalog.wal().sync().unwrap();
    drop(catalog);

    let reborn = Catalog::new();
    reborn.create_table(item_def()).unwrap();
    let report = reborn.recover(&dir).unwrap();
    assert!(report.replayed_batches < 5);
    assert_eq!(
        reborn.table("ITEM").unwrap().read().live_count(),
        report.replayed_batches
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Property: recovery always lands on a committed-batch prefix
// ---------------------------------------------------------------------------

/// One randomly generated update batch. `target` indexes previously inserted
/// ids so updates/deletes hit real rows about half the time.
fn build_batch(kind: u8, target: u8, value: i32, next_id: &mut i64) -> Vec<(String, UpdateOp)> {
    let op = match kind % 3 {
        0 => {
            let id = *next_id;
            *next_id += 1;
            UpdateOp::Insert {
                values: tuple![id, format!("r{id}"), value as f64],
            }
        }
        1 => UpdateOp::Update {
            assignments: vec![(2, Expr::lit(value as f64))],
            predicate: Expr::col(0).eq(Expr::lit(target as i64)),
        },
        _ => UpdateOp::Delete {
            predicate: Expr::col(0).eq(Expr::lit(target as i64)),
        },
    };
    vec![("ITEM".into(), op)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random op batches → checkpoint at a random position → random tail
    /// corruption (none / truncate / bit flip) → recover. The recovered
    /// state must equal the in-memory oracle that applied exactly the first
    /// `checkpoint + replayed` batches: recovery never invents rows, never
    /// applies half a batch, never reorders.
    #[test]
    fn recovery_is_a_committed_prefix(
        ops in proptest::collection::vec((0u8..255, 0u8..30, -100i32..100), 4..28),
        ckpt_frac in 0u8..101,
        corruption in 0u8..3,
        cut_frac in 50u8..100,
    ) {
        let dir = temp_dir("prop");

        // Durable life: apply every batch, checkpointing part-way through.
        let durable = Catalog::new();
        durable.create_table(item_def()).unwrap();
        durable.recover(&dir).unwrap();
        let ckpt_at = ops.len() * ckpt_frac as usize / 100;
        let mut next_id = 1000i64;
        let mut batches = Vec::new();
        for (i, (kind, target, value)) in ops.iter().enumerate() {
            if i == ckpt_at {
                durable.checkpoint(&dir).unwrap();
            }
            let batch = build_batch(*kind, *target, *value, &mut next_id);
            durable.apply_batch(&batch).unwrap();
            batches.push(batch);
        }
        durable.wal().sync().unwrap();
        drop(durable);

        // Corrupt the tail.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        let cut = bytes.len() * cut_frac as usize / 100;
        match corruption {
            1 if cut < bytes.len() => {
                let file = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
                file.set_len(cut as u64).unwrap();
            }
            2 if cut < bytes.len() => {
                let mut mutated = bytes.clone();
                mutated[cut] ^= 0x04;
                std::fs::write(&wal_path, &mutated).unwrap();
            }
            _ => {}
        }

        // Recover and compare against the oracle prefix.
        let recovered = Catalog::new();
        recovered.create_table(item_def()).unwrap();
        let report = recovered.recover(&dir).unwrap();
        // `ckpt_at == ops.len()` means the checkpoint was never written (the
        // loop finished first), so the whole prefix comes from replay.
        let ckpt_batches = if ckpt_at < batches.len() { ckpt_at } else { 0 };
        let prefix = ckpt_batches + report.replayed_batches;
        prop_assert!(prefix <= batches.len());

        let oracle = Catalog::new();
        oracle.create_table(item_def()).unwrap();
        let mut oracle_next = 1000i64;
        for (kind, target, value) in ops.iter().take(prefix) {
            oracle.apply_batch(&build_batch(*kind, *target, *value, &mut oracle_next)).unwrap();
        }
        prop_assert_eq!(live_rows(&recovered, "ITEM"), live_rows(&oracle, "ITEM"));

        // Uncorrupted logs must recover everything.
        if corruption == 0 {
            prop_assert_eq!(prefix, batches.len());
            prop_assert!(report.torn_tail.is_none());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Recovery × the always-on plan
// ---------------------------------------------------------------------------

/// Recovery restores data, not plans — the global plan is recompiled from
/// the workload and must come out identical: same operators, same sharing
/// sets, same EXPLAIN rendering.
#[test]
fn recovery_preserves_explain_output() {
    let dir = temp_dir("explain");
    let statements: Vec<(&str, &str)> = vec![
        ("getItem", "SELECT * FROM ITEM WHERE I_ID = ?"),
        ("listCheap", "SELECT * FROM ITEM WHERE I_COST < ?"),
        ("addItem", "INSERT INTO ITEM VALUES (?, ?, ?)"),
    ];

    let catalog = Arc::new(Catalog::new());
    catalog.create_table(item_def()).unwrap();
    catalog.recover(&dir).unwrap();
    catalog
        .apply_batch(&[(
            "ITEM".into(),
            UpdateOp::Insert {
                values: tuple![7i64, "x", 1.0f64],
            },
        )])
        .unwrap();
    let (plan, registry) = compile_workload(&catalog, &statements).unwrap();
    let before: Vec<String> = (0..statements.len())
        .map(|i| shareddb::core::render_explain_text(&catalog, &plan, &registry, i, None))
        .collect();
    drop(plan);
    drop(registry);

    let reborn = Arc::new(Catalog::new());
    reborn.create_table(item_def()).unwrap();
    reborn.recover(&dir).unwrap();
    let (plan2, registry2) = compile_workload(&reborn, &statements).unwrap();
    let after: Vec<String> = (0..statements.len())
        .map(|i| shareddb::core::render_explain_text(&reborn, &plan2, &registry2, i, None))
        .collect();
    assert_eq!(before, after);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Full-stack restart: a durable server is shut down, a new process-worth of
/// state is rebuilt from the data directory, and the re-warmed global plan
/// answers queries over the recovered rows.
#[test]
fn durable_server_restart_serves_recovered_data() {
    let dir = temp_dir("server-restart");
    let statements: Vec<(&str, &str)> = vec![
        ("getItem", "SELECT * FROM ITEM WHERE I_ID = ?"),
        ("addItem", "INSERT INTO ITEM VALUES (?, ?, ?)"),
    ];
    let durable_config = || ServerConfig {
        data_dir: Some(dir.clone()),
        wal_sync: SyncPolicy::Always,
        ..ServerConfig::default()
    };

    // First life: seed via bulk load (unlogged), insert via the wire.
    {
        let catalog = Catalog::new();
        catalog.create_table(item_def()).unwrap();
        catalog
            .bulk_load("ITEM", vec![tuple![1i64, "seed", 1.0f64]])
            .unwrap();
        let mut server = Server::start_sql(
            Arc::new(catalog),
            &statements,
            Default::default(),
            durable_config(),
        )
        .unwrap();
        let mut conn = shareddb::client::Connection::connect(server.local_addr()).unwrap();
        let add = conn.prepare("addItem").unwrap();
        for i in 2..10i64 {
            conn.execute(
                &add,
                &[Value::Int(i), Value::text("wire"), Value::Float(i as f64)],
            )
            .unwrap();
        }
        conn.close().unwrap();
        server.shutdown();
    }

    // Second life: fresh catalog, same schema, same data dir.
    {
        let catalog = Catalog::new();
        catalog.create_table(item_def()).unwrap();
        let mut server = Server::start_sql(
            Arc::new(catalog),
            &statements,
            Default::default(),
            durable_config(),
        )
        .unwrap();
        let report = server.recovery_report().expect("durable server");
        // The startup compaction of the first life checkpointed the seed, so
        // it is back even though bulk loads never hit the WAL.
        assert!(report.checkpoint_rows + report.replayed_ops >= 9);
        let metrics = server.metrics_text();
        assert!(metrics.contains("shareddb_wal_last_lsn"));
        assert!(metrics.contains("shareddb_recovery_checkpoint_rows"));

        let mut conn = shareddb::client::Connection::connect(server.local_addr()).unwrap();
        let get = conn.prepare("getItem").unwrap();
        for i in 1..10i64 {
            let outcome = conn.execute(&get, &[Value::Int(i)]).unwrap();
            assert_eq!(outcome.rows().len(), 1, "row {i} lost across restart");
        }
        // And the recovered server still accepts new writes.
        let add = conn.prepare("addItem").unwrap();
        conn.execute(
            &add,
            &[Value::Int(99), Value::text("new"), Value::Float(9.0)],
        )
        .unwrap();
        let outcome = conn.execute(&get, &[Value::Int(99)]).unwrap();
        assert_eq!(outcome.rows().len(), 1);
        conn.close().unwrap();
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two connections whose writes share one batch: the duplicate-key insert
/// fails alone, its batch-mate commits, is visible at once and is still
/// there — without the failed row — after a restart from the data directory.
#[test]
fn batch_mates_fail_alone_over_the_wire() {
    use shareddb::client::Connection;
    use shareddb::core::EngineConfig;

    let dir = temp_dir("batch-mates");
    let statements: Vec<(&str, &str)> = vec![
        ("getItem", "SELECT * FROM ITEM WHERE I_ID = ?"),
        ("addItem", "INSERT INTO ITEM VALUES (?, ?, ?)"),
    ];
    let start = || {
        let catalog = Catalog::new();
        catalog.create_table(item_def()).unwrap();
        // Gathers the statements sent within 300 ms into one batch.
        let engine_config = EngineConfig {
            heartbeat: std::time::Duration::from_millis(300),
            ..EngineConfig::default()
        };
        let server_config = ServerConfig {
            data_dir: Some(dir.clone()),
            wal_sync: SyncPolicy::Always,
            ..ServerConfig::default()
        };
        Server::start_sql(Arc::new(catalog), &statements, engine_config, server_config).unwrap()
    };
    let titles = |conn: &mut Connection, id: i64| -> Vec<Value> {
        let get = conn.prepare("getItem").unwrap();
        let outcome = conn.execute(&get, &[Value::Int(id)]).unwrap();
        outcome.rows().iter().map(|row| row[1].clone()).collect()
    };
    let item = |id: i64, title: &str| [Value::Int(id), Value::text(title), Value::Float(1.0)];

    let mut good_id = 1; // ids 2..=good_id are the good batch-mates
    {
        let mut server = start();
        let mut a = Connection::connect(server.local_addr()).unwrap();
        let mut b = Connection::connect(server.local_addr()).unwrap();
        let (add_a, add_b) = (a.prepare("addItem").unwrap(), b.prepare("addItem").unwrap());
        // Also the warm-up: the engine's first batch runs at once.
        a.execute(&add_a, &item(1, "first")).unwrap();
        // The heartbeat makes sharing a batch all but certain, the batch
        // counter makes it known; a round that did not share is run again.
        let shared = (0..5).any(|_| {
            good_id += 1;
            let batches = server.engine_stats().unwrap().batches;
            let duplicate = a.submit(&add_a, &item(1, "duplicate")).unwrap();
            let good = b.submit(&add_b, &item(good_id, "good")).unwrap();
            let (duplicate, good) = (a.wait(duplicate), b.wait(good));
            let error = duplicate.expect_err("the duplicate key must be refused");
            assert!(
                error.to_string().contains("duplicate primary key"),
                "{error}"
            );
            assert_eq!(good.unwrap().rows_affected(), 1);
            server.engine_stats().unwrap().batches == batches + 1
        });
        assert!(shared, "the two writes never shared a batch");
        assert_eq!(titles(&mut a, 1), [Value::text("first")]);
        assert_eq!(titles(&mut b, good_id), [Value::text("good")]);
        let (_, _) = (a.close(), b.close());
        server.shutdown();
    }
    {
        let mut server = start();
        let mut conn = Connection::connect(server.local_addr()).unwrap();
        assert_eq!(titles(&mut conn, 1), [Value::text("first")]);
        for id in 2..=good_id {
            assert_eq!(titles(&mut conn, id), [Value::text("good")]);
        }
        let _ = conn.close();
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The documented format is the implemented format
// ---------------------------------------------------------------------------

/// Spot-checks `docs/WAL_FORMAT.md` against the implementation constants so
/// the spec cannot silently drift: magic, version, header length, CRC check
/// value.
#[test]
fn wal_format_doc_matches_implementation() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/WAL_FORMAT.md"))
        .expect("docs/WAL_FORMAT.md must exist");

    assert_eq!(&FRAME_MAGIC, b"SDBW");
    assert!(doc.contains("`SDBW`"), "doc must state the magic bytes");
    assert!(
        doc.contains("0x53 0x44 0x42 0x57"),
        "doc must spell the magic out in hex"
    );
    assert_eq!(WAL_FORMAT_VERSION, 1);
    assert!(
        doc.contains(&format!("version is `{WAL_FORMAT_VERSION}`")),
        "doc must state the current format version"
    );
    assert_eq!(FRAME_HEADER_LEN, 22);
    assert!(
        doc.contains(&format!("{FRAME_HEADER_LEN}-byte header")),
        "doc must state the header length"
    );
    // The CRC variant is pinned by its check value.
    assert_eq!(shareddb::common::crc32(b"123456789"), 0xCBF4_3926);
    assert!(
        doc.contains("0xCBF43926"),
        "doc must pin the CRC-32 check value"
    );
}
