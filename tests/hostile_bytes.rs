//! Hostile bytes never panic: what a damaged disk or a hostile peer hands
//! the readers — the WAL and checkpoint scan, a checkpoint load, a recovery
//! replay, the wire's incremental frame decoder — is decoded, refused or cut
//! as a torn tail, and never brings the process down. Every input is random
//! bytes or a valid encoding with bytes flipped, cut or appended; on disk
//! the frame's CRC is recomputed around a damaged payload, so the payload
//! decoder is reached rather than stopped at the checksum. No read may
//! allocate more than its declared caps: a value list reserves at most
//! 4 096 values whatever count it declares.

use proptest::prelude::*;
use proptest::TestRng;
use shareddb::common::{crc32, tuple, BinaryOp, DataType, Expr, UnaryOp, Value};
use shareddb::server::protocol::{Frame, FrameDecoder};
use shareddb::storage::wal::{
    encode_frame, scan_frames, LogRecord, FRAME_HEADER_LEN, FRAME_MAGIC, WAL_FORMAT_VERSION,
};
use shareddb::storage::{Catalog, IndexDef, IndexKind, TableDef, UpdateOp, WAL_FILE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

/// Notes the largest single allocation of each thread.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // Const-initialised and without a destructor: touching it allocates
    // nothing.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the note is a statistic.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// `work`'s result and the largest single allocation it made on this thread.
fn largest_allocation<R>(work: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|largest| largest.set(0));
    let result = work();
    (result, LARGEST.with(Cell::get))
}

/// What a reader may reserve for a list whatever count it declares (the
/// larger of a value list's 4 096 values and a result's 4 096 rows), or
/// for the bytes it was handed — twice them, for a buffer that doubles.
fn allocation_cap(input_len: usize) -> usize {
    let values = 4096 * std::mem::size_of::<Value>();
    let rows = 4096 * std::mem::size_of::<Vec<Value>>();
    values.max(rows).max(2 * input_len)
}

/// `valid` with a few bytes flipped or overwritten, cut short, or with
/// random bytes appended.
fn damage(rng: &mut TestRng, valid: &[u8]) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    match (0..4u8).generate(rng) {
        0 if !bytes.is_empty() => {
            for _ in 0..(1..4u8).generate(rng) {
                let at = (0..bytes.len()).generate(rng);
                bytes[at] ^= 1 << (0..8u8).generate(rng);
            }
        }
        1 if !bytes.is_empty() => {
            let at = (0..bytes.len()).generate(rng);
            bytes[at] = [0, 1, 0x7F, 0x80, 0xFF][(0..5usize).generate(rng)];
        }
        2 => bytes.truncate((0..bytes.len() + 1).generate(rng)),
        _ => {
            let extra = (1..16usize).generate(rng);
            bytes.extend((0..extra).map(|_| rng.next_u64() as u8));
        }
    }
    bytes
}

fn random_bytes(rng: &mut TestRng, max: usize) -> Vec<u8> {
    let len = (0..max).generate(rng);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

// ---------------------------------------------------------------------------
// Disk: the frame scan, a checkpoint load, a recovery replay
// ---------------------------------------------------------------------------

/// A frame of `version` around any payload bytes, its CRC right.
fn frame(version: u16, lsn: u64, payload: &[u8]) -> Vec<u8> {
    let mut header = FRAME_MAGIC.to_vec();
    header.extend(version.to_le_bytes());
    header.extend((payload.len() as u32).to_le_bytes());
    header.extend(lsn.to_le_bytes());
    let crc = crc32(&[&header[4..], payload].concat());
    [&header[..], &crc.to_le_bytes(), payload].concat()
}

/// A checkpoint's records (CKPT, BEGIN, rows, COMMIT), or a log's: one
/// batch of inserts, updates and deletes with expressions of every kind a
/// bound operation holds.
fn valid_records(checkpoint: bool) -> Vec<LogRecord> {
    use shareddb::common::ids::Timestamp;
    let apply = |op| LogRecord::Apply {
        table: "ITEM".into(),
        op,
    };
    let rows = [
        apply(UpdateOp::Insert {
            values: tuple![1i64, "first", 1.5f64],
        }),
        apply(UpdateOp::Insert {
            values: tuple![2i64, "é second", -0.0f64],
        }),
    ];
    if checkpoint {
        let meta = LogRecord::CheckpointMeta {
            ts: Timestamp(1),
            wal_lsn: 0,
        };
        let (begin, commit) = (
            LogRecord::BeginBatch(Timestamp(1)),
            LogRecord::CommitBatch(Timestamp(1)),
        );
        return [vec![meta, begin], rows.to_vec(), vec![commit]].concat();
    }
    let ops = [
        apply(UpdateOp::Update {
            assignments: vec![(2, Expr::col(2).binary(BinaryOp::Mul, Expr::lit(2.0f64)))],
            predicate: Expr::col(0)
                .eq(Expr::lit(1i64))
                .or(Expr::col(1).like(Expr::lit("%sec%"))),
        }),
        apply(UpdateOp::Update {
            assignments: vec![(1, Expr::lit("renamed"))],
            predicate: Expr::Between {
                expr: Box::new(Expr::col(2)),
                low: Box::new(Expr::lit(0i64)),
                high: Box::new(Expr::lit(9i64)),
            },
        }),
        apply(UpdateOp::Delete {
            predicate: Expr::InList {
                expr: Box::new(Expr::col(0)),
                list: vec![Expr::lit(7i64), Expr::lit(Value::Null)],
                negated: false,
            }
            .and(Expr::Unary {
                op: UnaryOp::IsNotNull,
                expr: Box::new(Expr::col(1)),
            }),
        }),
    ];
    let (begin, commit) = (
        LogRecord::BeginBatch(Timestamp(2)),
        LogRecord::CommitBatch(Timestamp(2)),
    );
    [vec![begin], rows.to_vec(), ops.to_vec(), vec![commit]].concat()
}

/// A file's bytes: random, or a valid checkpoint or log with one frame's
/// payload damaged (its CRC recomputed), or damaged anywhere (the CRC as it
/// was).
fn disk_input(rng: &mut TestRng) -> Vec<u8> {
    let records = valid_records((0..2u8).generate(rng) == 0);
    let mut frames: Vec<Vec<u8>> = (1..)
        .zip(&records)
        .map(|(lsn, record)| encode_frame(lsn, record))
        .collect();
    match (0..4u8).generate(rng) {
        0 => random_bytes(rng, 512),
        1 | 2 => {
            let victim = (0..frames.len()).generate(rng);
            let payload = damage(rng, &frames[victim][FRAME_HEADER_LEN..]);
            frames[victim] = frame(WAL_FORMAT_VERSION, victim as u64 + 1, &payload);
            frames.concat()
        }
        _ => damage(rng, &frames.concat()),
    }
}

fn item_catalog() -> Catalog {
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("ITEM")
                .column("I_ID", DataType::Int)
                .nullable_column("I_TITLE", DataType::Text)
                .column("I_COST", DataType::Float)
                .primary_key(&["I_ID"]),
        )
        .unwrap();
    for (name, column, kind) in [
        ("ITEM_COST", "I_COST", IndexKind::Values),
        ("ITEM_TITLE", "I_TITLE", IndexKind::Grams),
    ] {
        catalog
            .create_index(IndexDef {
                name: name.into(),
                table: "ITEM".into(),
                column: column.into(),
                kind,
            })
            .unwrap();
    }
    catalog
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "shareddb-hostile-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Hands `bytes` to every disk reader: the scan (within the allocation
/// cap), a checkpoint load and a recovery that replays them as the log.
/// Any outcome but a panic is allowed; what comes back is checked for
/// consistency.
fn read_from_disk(dir: &std::path::Path, bytes: &[u8]) {
    let (scan, largest) = largest_allocation(|| scan_frames(bytes, |_, _| Ok(())));
    assert!(
        largest <= allocation_cap(bytes.len()),
        "the scan of {} bytes allocated {largest} at once",
        bytes.len()
    );
    if let Ok(scan) = scan {
        assert!(scan.valid_len <= bytes.len() as u64);
        assert_eq!(scan.torn.is_none(), scan.valid_len == bytes.len() as u64);
    }
    let path = dir.join("checkpoint.sdb");
    std::fs::write(&path, bytes).unwrap();
    let _ = item_catalog().restore_checkpoint(&path);
    std::fs::remove_file(&path).unwrap();
    std::fs::write(dir.join(WAL_FILE), bytes).unwrap();
    let _ = item_catalog().recover(dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Random and damaged disk bytes give records, a torn tail or an error,
    /// never a panic or an allocation past the caps.
    #[test]
    fn hostile_disk_bytes_never_panic(seed in any::<u64>()) {
        let dir = scratch_dir();
        let mut rng = TestRng::for_test(&seed.to_string());
        read_from_disk(&dir, &disk_input(&mut rng));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Two frames whose CRC holds around a payload the old text decoder could
/// not survive: a table name followed by a two-byte character (it sliced
/// the text inside the character), and a predicate of 2 000 000 nested
/// NOTs (it recursed once per node, off its stack). Both are undecodable,
/// so a torn tail — and a refused checkpoint.
#[test]
fn hostile_disk_regressions_are_torn_tails() {
    let dir = scratch_dir();
    let not = [5u8, 0]; // UNARY, operator 0 (NOT)
    let mut nested = vec![6u8, 1, 0, 0, 0, b'T']; // DELETE, table "T"
    nested.extend(not.iter().cycle().take(2 * 2_000_000));
    nested.extend([0u8, 0, 0, 0, 0]); // COLUMN 0
    for payload in ["DELETE T é".as_bytes(), &nested] {
        let bytes = frame(WAL_FORMAT_VERSION, 1, payload);
        let scan = scan_frames(&bytes[..], |_, _| Ok(()));
        let torn = scan.unwrap().torn.expect("a torn tail");
        assert_eq!(
            (torn.offset, torn.reason.as_str()),
            (0, "undecodable record payload")
        );
        read_from_disk(&dir, &bytes);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Socket: the incremental frame decoder and `Frame::decode`
// ---------------------------------------------------------------------------

/// One frame of each kind the protocol has, values of every type among
/// them.
fn every_frame() -> Vec<Frame> {
    let values = vec![
        Value::Null,
        Value::Int(-5),
        Value::Float(2.75),
        Value::text("BOOKS é"),
        Value::Bool(true),
        Value::Date(20_000),
    ];
    let frames = vec![
        Frame::Hello {
            version: 6,
            client_name: "fuzz".into(),
        },
        Frame::Query {
            request_id: 7,
            sql: "SELECT * FROM ITEM WHERE I_ID = 3".into(),
        },
        Frame::Prepare {
            request_id: 8,
            name: "getBestSellers".into(),
        },
        Frame::ExecutePrepared {
            request_id: 9,
            statement_id: 4,
            params: values.clone(),
        },
        Frame::Goodbye,
        Frame::Ping { request_id: 77 },
        Frame::HelloOk {
            version: 6,
            server_name: "shareddb".into(),
            statement_count: 28,
        },
        Frame::Prepared {
            request_id: 8,
            statement_id: 4,
            param_count: 2,
            is_update: true,
        },
        Frame::ResultChunk {
            request_id: 9,
            flags: 3,
            rows_affected: 0,
            schema: vec![("I_ID".into(), DataType::Int), ("V".into(), DataType::Text)],
            rows: vec![values.clone(), vec![Value::Int(2), Value::Null]],
        },
        Frame::Error {
            request_id: 12,
            code: 14,
            retryable: true,
            message: "queue full".into(),
        },
        Frame::GoodbyeOk,
        Frame::Pong { request_id: 77 },
    ];
    // A new kind of frame fails to compile here until it is listed above.
    for frame in &frames {
        match frame {
            Frame::Hello { .. }
            | Frame::Query { .. }
            | Frame::Prepare { .. }
            | Frame::ExecutePrepared { .. }
            | Frame::Goodbye
            | Frame::Ping { .. }
            | Frame::HelloOk { .. }
            | Frame::Prepared { .. }
            | Frame::ResultChunk { .. }
            | Frame::Error { .. }
            | Frame::GoodbyeOk
            | Frame::Pong { .. } => {}
        }
    }
    frames
}

/// A connection's bytes: random, or a run of valid frames damaged anywhere
/// — length prefixes included.
fn socket_input(rng: &mut TestRng) -> Vec<u8> {
    let frames = every_frame();
    if (0..4u8).generate(rng) == 0 {
        return random_bytes(rng, 512);
    }
    let run: Vec<u8> = (0..(1..4usize).generate(rng))
        .flat_map(|_| frames[(0..frames.len()).generate(rng)].encode())
        .collect();
    damage(rng, &run)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Random and damaged socket bytes, pushed in random pieces, give
    /// frames, an error (after which the connection is dropped) or "more
    /// bytes needed", never a panic or an allocation past the caps; a
    /// frame always advances the decoder. `Frame::decode` over the same
    /// bytes as a body answers too.
    #[test]
    fn hostile_socket_bytes_never_panic(seed in any::<u64>()) {
        let mut rng = TestRng::for_test(&seed.to_string());
        let bytes = socket_input(&mut rng);
        let ((), largest) = largest_allocation(|| {
            let mut decoder = FrameDecoder::new();
            let mut fed = 0;
            'connection: while fed < bytes.len() {
                let piece = (1..bytes.len() - fed + 1).generate(&mut rng);
                decoder.push(&bytes[fed..fed + piece]);
                fed += piece;
                loop {
                    let before = decoder.buffered();
                    match decoder.poll_frame() {
                        Ok(Some(_)) => assert!(decoder.buffered() < before),
                        Ok(None) => break,
                        Err(_) => break 'connection,
                    }
                }
            }
            let _ = Frame::decode(&bytes);
            if bytes.len() > 4 {
                let _ = Frame::decode(&bytes[4..]);
            }
        });
        prop_assert!(
            largest <= allocation_cap(bytes.len()),
            "{} bytes allocated {} at once",
            bytes.len(),
            largest
        );
    }
}
