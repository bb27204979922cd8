//! Durability integration tests: framed-WAL recovery, checkpointing, torn-tail
//! truncation, and crash-consistent restart of the always-on plan (Crescando
//! keeps all data in main memory but supports full recovery by checkpointing
//! and logging, Section 4.4).

use proptest::prelude::*;
use shareddb::common::ids::Timestamp;
use shareddb::common::{tuple, DataType, Expr, Value};
use shareddb::server::{Server, ServerConfig};
use shareddb::sql::compile_workload;
use shareddb::storage::wal::{
    committed_batches, encode_frame, scan_frames, FaultConfig, FaultSink, FileSink, LogRecord,
    MemorySink, SyncPolicy, Wal, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_EXPR_DEPTH, WAL_FORMAT_VERSION,
};
use shareddb::storage::{Catalog, TableDef, UpdateOp, CHECKPOINT_FILE, WAL_FILE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Counts the live heap bytes of each thread and their high-water mark.
struct Live;

thread_local! {
    /// `(live bytes, most live bytes since the last reset)` of this thread.
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn count(delta: isize) {
    // Const-initialised and without a destructor: touching it allocates
    // nothing.
    let _ = LIVE.try_with(|live| {
        let (now, peak) = live.get();
        live.set((now + delta, peak.max(now + delta)));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the count is a statistic.
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block are both live while the bytes move.
        count(new_size as isize);
        count(-(layout.size() as isize));
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Live = Live;

/// `work`'s result and its transient heap on this thread: the most bytes it
/// held live at once beyond those it leaves live.
fn transient_heap<R>(work: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.with(|live| {
        let (now, _) = live.get();
        live.set((now, now));
        now
    });
    let result = work();
    let (end, peak) = LIVE.with(Cell::get);
    assert!(end >= start, "the work freed what it did not allocate");
    (result, (peak - end) as usize)
}

fn item_def() -> TableDef {
    TableDef::new("ITEM")
        .column("I_ID", DataType::Int)
        .column("I_TITLE", DataType::Text)
        .column("I_COST", DataType::Float)
        .primary_key(&["I_ID"])
}

/// The records of the valid prefix of a log file.
fn read_records(path: &Path) -> Vec<LogRecord> {
    let mut records = Vec::new();
    let bytes = std::fs::read(path).unwrap();
    let scan = scan_frames(&bytes[..], |_, record| {
        records.push(record);
        Ok(())
    });
    scan.unwrap();
    records
}

/// The committed batches of a log file, as recovery replays them.
fn committed(path: &Path) -> Vec<(Timestamp, Vec<(String, UpdateOp)>)> {
    let mut batches = Vec::new();
    let bytes = std::fs::read(path).unwrap();
    let visit = committed_batches(|ts, ops| {
        batches.push((ts, ops));
        Ok(())
    });
    scan_frames(&bytes[..], visit).unwrap();
    batches
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

/// Restoring a checkpoint reads one frame at a time, not the file: what the
/// restore allocates beyond the rows it leaves — the read buffers, the runs
/// of decoded rows waiting for the whole file to check out, the tables
/// growing — stays under one and a half times the length of the file, at
/// two sizes of the TPC-W catalog.
#[test]
fn restore_holds_a_frame_not_the_file() {
    use shareddb::tpcw::schema::create_schema;
    use shareddb::tpcw::{build_catalog, TpcwScale};
    for items in [200, 1_000] {
        let dir = temp_dir(&format!("transient-{items}"));
        let info = build_catalog(&TpcwScale::with_items(items))
            .unwrap()
            .checkpoint(&dir)
            .unwrap();
        let file_len = std::fs::metadata(&info.path).unwrap().len() as usize;
        let fresh = Catalog::new();
        create_schema(&fresh).unwrap();
        let (restored, transient) = transient_heap(|| fresh.restore_checkpoint(&info.path));
        assert_eq!(restored.unwrap().rows, info.rows);
        assert!(
            transient * 2 < file_len * 3,
            "{items} items: restoring {file_len} bytes held {transient} bytes beyond its rows"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A checkpoint file is its records' frames and nothing else, LSNs from 1:
/// the metadata, the begin marker, one insert per live row (tables in name
/// order, each in scan order), the commit marker — byte for byte what
/// `encode_frame` makes of them. The 1 000-item TPC-W catalog is ≈ 2 MB, so
/// the writer's buffer goes out mid-file as well as at its end; a table of
/// NULL, Float, Date and Text values rides along.
#[test]
fn checkpoint_file_is_its_frames() {
    use shareddb::tpcw::{build_catalog, TpcwScale};
    let dir = temp_dir("checkpoint-bytes");
    let catalog = build_catalog(&TpcwScale::with_items(1_000)).unwrap();
    catalog
        .create_table(
            TableDef::new("MIXED")
                .column("M_ID", DataType::Int)
                .nullable_column("M_NOTE", DataType::Text)
                .nullable_column("M_PRICE", DataType::Float)
                .nullable_column("M_DAY", DataType::Date)
                .primary_key(&["M_ID"]),
        )
        .unwrap();
    let day = Value::date_from_ymd(2024, 2, 29);
    catalog
        .bulk_load(
            "MIXED",
            vec![
                tuple![1i64, Value::Null, -0.0f64, day.clone()],
                tuple![2i64, "façade — ü", f64::MAX, Value::Null],
                tuple![3i64, "", Value::Null, day],
            ],
        )
        .unwrap();
    let info = catalog.checkpoint(&dir).unwrap();

    let mut records = vec![
        LogRecord::CheckpointMeta {
            ts: info.ts,
            wal_lsn: info.wal_lsn,
        },
        LogRecord::BeginBatch(info.ts),
    ];
    let mut names = catalog.table_names();
    names.sort();
    for name in names {
        let handle = catalog.table(&name).unwrap();
        let table = handle.read();
        records.extend(
            table
                .scan(catalog.snapshot())
                .map(|(_, row)| LogRecord::Apply {
                    table: name.clone(),
                    op: UpdateOp::Insert {
                        values: row.clone(),
                    },
                }),
        );
    }
    records.push(LogRecord::CommitBatch(info.ts));
    let expected: Vec<u8> = (1..)
        .zip(&records)
        .flat_map(|(lsn, record)| encode_frame(lsn, record))
        .collect();

    let file = std::fs::read(&info.path).unwrap();
    assert!(
        file.len() > 1 << 20,
        "{} bytes: one block or less",
        file.len()
    );
    assert_eq!(info.rows, records.len() - 3);
    assert_eq!(file.len(), expected.len(), "the file's length");
    let first_difference = file.iter().zip(&expected).position(|(a, b)| a != b);
    assert_eq!(first_difference, None, "the first byte that differs");
    let _ = std::fs::remove_dir_all(&dir);
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
    let records = read_records(&path);
    // 5 batches × (BEGIN + 1 op + COMMIT).
    assert_eq!(records.len(), 15);
    let committed = committed(&path);
    assert_eq!(committed.len(), 5);
    assert!(committed.windows(2).all(|w| w[0].0 < w[1].0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: reading the log back used to fail hard when the final record
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
    let full = read_records(&path);
    assert_eq!(full.len(), 12);

    // Truncate mid-way through the final frame, as a crash during a write
    // would. Every prefix length must still read cleanly.
    let len = std::fs::metadata(&path).unwrap().len();
    for cut in [len - 3, len - FRAME_HEADER_LEN as u64 / 2, len / 2] {
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);
        let records = read_records(&path);
        assert!(records.len() < full.len());
        // Only whole committed batches survive.
        for (_, ops) in committed(&path) {
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
        let recovery_us: u64 = metrics
            .lines()
            .find_map(|line| line.strip_prefix("shareddb_recovery_us "))
            .expect("the restart time is exported")
            .parse()
            .unwrap();
        assert!(
            recovery_us > 0,
            "recovery and compaction took {recovery_us} us"
        );

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

/// A data directory another format version wrote — a WAL alone, or a
/// checkpoint and a WAL — is refused with both versions named, and its
/// files are left byte for byte as they were: a torn tail is cut, another
/// build's log is not. The frames are version 1's: the same header around a
/// text payload.
#[test]
fn a_data_dir_of_another_format_version_is_refused_untouched() {
    let v1_frame = |lsn: u64, payload: &str| {
        let mut header = FRAME_MAGIC.to_vec();
        header.extend(1u16.to_le_bytes());
        header.extend((payload.len() as u32).to_le_bytes());
        header.extend(lsn.to_le_bytes());
        let crc = shareddb::common::crc32(&[&header[4..], payload.as_bytes()].concat());
        [&header[..], &crc.to_le_bytes(), payload.as_bytes()].concat()
    };
    let row = "INSERT ITEM (I1,T5:first,F4607182418800017408)";
    let wal = [
        v1_frame(1, "BEGIN 2"),
        v1_frame(2, row),
        v1_frame(3, "COMMIT 2"),
    ]
    .concat();
    let checkpoint = [
        v1_frame(1, "CKPT 1 0"),
        v1_frame(2, "BEGIN 1"),
        v1_frame(3, row),
        v1_frame(4, "COMMIT 1"),
    ]
    .concat();
    for with_checkpoint in [false, true] {
        let dir = temp_dir(&format!("v1-{with_checkpoint}"));
        std::fs::write(dir.join(WAL_FILE), &wal).unwrap();
        if with_checkpoint {
            std::fs::write(dir.join(CHECKPOINT_FILE), &checkpoint).unwrap();
        }
        let catalog = Catalog::new();
        catalog.create_table(item_def()).unwrap();
        let error = catalog
            .recover(&dir)
            .expect_err("a version-1 data dir must be refused");
        let message = error.to_string();
        let current = format!("version {WAL_FORMAT_VERSION}");
        assert!(
            message.contains("version 1") && message.contains(&current),
            "{message}"
        );
        assert_eq!(std::fs::read(dir.join(WAL_FILE)).unwrap(), wal);
        if with_checkpoint {
            let kept = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
            assert_eq!(kept, checkpoint);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The `| `0xNN` | `NAME` |` rows of the doc's tag tables, by name.
fn doc_tags(doc: &str) -> BTreeMap<String, u8> {
    doc.lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let byte = cells.get(1)?.strip_prefix("`0x")?.strip_suffix('`')?;
            let name = cells.get(2)?.split_whitespace().next()?.trim_matches('`');
            Some((name.to_string(), u8::from_str_radix(byte, 16).ok()?))
        })
        .collect()
}

/// The tag byte the encoder writes for each named variant, read off the
/// payloads of real frames: a record's tag opens its payload; a `DELETE`
/// of table `T` puts its predicate's tag at payload byte 6 and an
/// operator's at 7; an `INSERT` into `T` its first value's tag at 10.
fn encoder_tags() -> BTreeMap<String, u8> {
    use shareddb::common::ids::Timestamp;
    use shareddb::common::{BinaryOp, Tuple, UnaryOp};
    let payload = |record: &LogRecord| encode_frame(1, record)[FRAME_HEADER_LEN..].to_vec();
    let apply = |op| LogRecord::Apply {
        table: "T".into(),
        op,
    };
    let delete = |predicate| payload(&apply(UpdateOp::Delete { predicate }));
    let insert = |value| {
        let values = Tuple::new(vec![value]);
        payload(&apply(UpdateOp::Insert { values }))
    };
    let c = || Box::new(Expr::col(0));
    let ts = Timestamp(1);
    let records = [
        ("BEGIN", LogRecord::BeginBatch(ts)),
        ("COMMIT", LogRecord::CommitBatch(ts)),
        ("CKPT", LogRecord::CheckpointMeta { ts, wal_lsn: 0 }),
        (
            "INSERT",
            apply(UpdateOp::Insert {
                values: tuple![1i64],
            }),
        ),
        (
            "UPDATE",
            apply(UpdateOp::Update {
                assignments: vec![],
                predicate: Expr::lit(true),
            }),
        ),
        (
            "DELETE",
            apply(UpdateOp::Delete {
                predicate: Expr::lit(true),
            }),
        ),
    ];
    let values = [
        ("NULL", Value::Null),
        ("INT", Value::Int(1)),
        ("FLOAT", Value::Float(1.0)),
        ("TEXT", Value::text("x")),
        ("BOOL", Value::Bool(true)),
        ("DATE", Value::Date(1)),
    ];
    let exprs = [
        ("COLUMN", Expr::col(0)),
        (
            "NAMED_COLUMN",
            Expr::NamedColumn {
                qualifier: None,
                name: "A".into(),
            },
        ),
        ("LITERAL", Expr::lit(1i64)),
        ("PARAM", Expr::param(0)),
        ("BINARY", Expr::col(0).eq(Expr::col(1))),
        ("UNARY", Expr::col(0).not()),
        ("LIKE", Expr::col(0).like(Expr::lit("a%"))),
        (
            "IN_LIST",
            Expr::InList {
                expr: c(),
                list: vec![],
                negated: false,
            },
        ),
        (
            "BETWEEN",
            Expr::Between {
                expr: c(),
                low: c(),
                high: c(),
            },
        ),
    ];
    use BinaryOp::*;
    let binary = [
        ("EQ", Eq),
        ("NE", NotEq),
        ("LT", Lt),
        ("LE", LtEq),
        ("GT", Gt),
        ("GE", GtEq),
        ("AND", And),
        ("OR", Or),
        ("ADD", Add),
        ("SUB", Sub),
        ("MUL", Mul),
        ("DIV", Div),
    ];
    let unary = [
        ("NOT", UnaryOp::Not),
        ("NEG", UnaryOp::Neg),
        ("IS_NULL", UnaryOp::IsNull),
        ("IS_NOT_NULL", UnaryOp::IsNotNull),
    ];
    let mut tags = Vec::new();
    tags.extend(records.map(|(name, r)| (name, payload(&r)[0])));
    tags.extend(values.map(|(name, v)| (name, insert(v)[10])));
    tags.extend(exprs.map(|(name, e)| (name, delete(e)[6])));
    tags.extend(binary.map(|(name, op)| {
        let (left, right) = (c(), c());
        (name, delete(Expr::Binary { op, left, right })[7])
    }));
    tags.extend(unary.map(|(name, op)| (name, delete(Expr::Unary { op, expr: c() })[7])));
    let by_name: BTreeMap<String, u8> = tags.iter().map(|(n, b)| (n.to_string(), *b)).collect();
    assert_eq!(by_name.len(), tags.len(), "a name listed twice");
    by_name
}

/// Spot-checks `docs/WAL_FORMAT.md` against the implementation so the spec
/// cannot silently drift: magic, version, header length, CRC check value,
/// the nesting bound, every tag byte of its record, value, expression and
/// operator tables (each the byte the encoder writes for that variant, and
/// every variant listed), and its worked expression example.
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
    assert_eq!(WAL_FORMAT_VERSION, 2);
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
    assert!(
        doc.contains(&format!("nesting bound is `{MAX_EXPR_DEPTH}`")),
        "doc must state the expression nesting bound"
    );
    assert_eq!(doc_tags(&doc), encoder_tags());
    // The worked example: the hex pairs opening each line of its block.
    let example = doc
        .split("Example: `I_COST < 100.0 AND I_ID = 7`")
        .nth(1)
        .and_then(|rest| rest.split("```text").nth(1))
        .and_then(|block| block.split("```").next())
        .expect("doc must carry the worked expression example");
    let documented: Vec<u8> = example
        .lines()
        .flat_map(|line| {
            line.split_whitespace().map_while(|pair| {
                (pair.len() == 2)
                    .then(|| u8::from_str_radix(pair, 16).ok())
                    .flatten()
            })
        })
        .collect();
    let predicate = Expr::col(2)
        .lt(Expr::lit(100.0f64))
        .and(Expr::col(0).eq(Expr::lit(7i64)));
    let frame = encode_frame(
        1,
        &LogRecord::Apply {
            table: "T".into(),
            op: UpdateOp::Delete { predicate },
        },
    );
    assert_eq!(documented, frame[FRAME_HEADER_LEN + 6..]);
}
