//! Write-ahead logging and checkpointing.
//!
//! Crescando "keeps all data in main memory, but it also supports full
//! recovery by checkpointing and logging all data to disk" (Section 4.4).
//! SharedDB group-commits one log record batch per heartbeat, which keeps the
//! logging cost per query constant regardless of batch size.
//!
//! The log is *logical*: it records the applied [`UpdateOp`]s per table in
//! commit order. Recovery replays the log on top of the latest checkpoint.
//!
//! ## On-disk format
//!
//! Every record is a **frame**: a 22-byte header (magic `SDBW`, format
//! version, payload length, LSN, CRC-32 — the reflected IEEE CRC of
//! [`shareddb_common::crc32`](mod@shareddb_common::crc32) over the version,
//! length, LSN and payload), then the payload: a record tag byte and the
//! record's fields in the value codec the wire protocol speaks too
//! ([`shareddb_common::codec`]), expressions a tag byte per node in prefix
//! order. A reader scans frames sequentially and **truncates at the first
//! torn or corrupt frame** (short header, bad magic, short payload, CRC
//! mismatch, non-monotone LSN, undecodable payload): everything before that
//! offset is valid, everything after is discarded — recovery never errors
//! on a tail the crash tore. An intact frame of another format version is
//! refused instead: another build wrote the file, and cutting it would
//! throw its log away. A scan hands its records to a visitor one frame at a
//! time; [`committed_batches`] applies each batch when its `COMMIT` marker
//! arrives, so a partially-framed group commit is never replayed.
//!
//! The byte-level specification (field and tag tables, the nesting bound,
//! durability matrix) lives in `docs/WAL_FORMAT.md`; its constants and tag
//! bytes are asserted against the encoder by `tests/recovery.rs`.

use crate::update::UpdateOp;
use shareddb_common::codec::{
    encode_value, malformed, put_string, put_u16, put_u32, put_u64, put_u8, put_values, Cursor,
};
use shareddb_common::crc32::Crc32;
use shareddb_common::ids::Timestamp;
use shareddb_common::metrics::{Counter, Histogram, HistogramSnapshot};
use shareddb_common::sync::Mutex;
use shareddb_common::{BinaryOp, Error, Expr, Result, Tuple, UnaryOp};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Magic bytes opening every frame: `SDBW`.
pub const FRAME_MAGIC: [u8; 4] = *b"SDBW";
/// Current frame format version: 2 since the payload became binary.
pub const WAL_FORMAT_VERSION: u16 = 2;
/// Fixed frame-header size in bytes (magic + version + length + LSN + CRC).
pub const FRAME_HEADER_LEN: usize = 22;
/// Upper bound on a single frame payload; larger declared lengths are treated
/// as corruption (a bit flip in the length field must not make the reader
/// attempt a multi-gigabyte allocation).
pub const MAX_FRAME_PAYLOAD: u32 = 64 * 1024 * 1024;
/// Deepest expression a record may hold, counted in nodes from the root to
/// a leaf: the decoder refuses anything deeper, so hostile bytes cannot
/// recurse it off its stack, and an UPDATE or DELETE nesting deeper fails
/// before it writes or is logged, so the log never holds what it cannot
/// read back.
pub const MAX_EXPR_DEPTH: usize = 256;

/// One record of the write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// Start of a committed batch with its commit timestamp.
    BeginBatch(Timestamp),
    /// One applied operation: inserts log the full row, updates and deletes
    /// log their (bound) predicates and assignments. All of them replay
    /// deterministically because batches apply serially in commit order.
    Apply {
        /// Target table name.
        table: String,
        /// The operation.
        op: UpdateOp,
    },
    /// End of a committed batch.
    CommitBatch(Timestamp),
    /// Checkpoint metadata: the pinned snapshot timestamp the checkpoint's
    /// rows were read at and the WAL LSN that was current when the
    /// checkpoint started. Recovery replays only committed batches with a
    /// commit timestamp greater than `ts`.
    CheckpointMeta {
        /// Snapshot timestamp of the checkpointed rows.
        ts: Timestamp,
        /// WAL LSN at checkpoint time.
        wal_lsn: u64,
    },
}

// ---------------------------------------------------------------------------
// Frame encoding / scanning
// ---------------------------------------------------------------------------

/// Encodes one record as a self-checking frame.
pub fn encode_frame(lsn: u64, record: &LogRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    put_frame(&mut buf, lsn, |buf| put_record(buf, record));
    buf
}

/// Appends the self-checking frame of one record to `buf`: the header is
/// reserved, `payload` writes the record in place behind it, then the
/// payload's length and the CRC are patched in.
pub(crate) fn put_frame(buf: &mut Vec<u8>, lsn: u64, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&FRAME_MAGIC);
    put_u16(buf, WAL_FORMAT_VERSION);
    put_u32(buf, 0); // the length, once it is known
    put_u64(buf, lsn);
    put_u32(buf, 0); // the CRC, once the payload is written
    payload(buf);
    let len = (buf.len() - start - FRAME_HEADER_LEN) as u32;
    buf[start + 6..start + 10].copy_from_slice(&len.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&buf[start + 4..start + 18]);
    crc.update(&buf[start + FRAME_HEADER_LEN..]);
    buf[start + 18..start + FRAME_HEADER_LEN].copy_from_slice(&crc.finish().to_le_bytes());
}

/// Where and why a frame scan stopped before the end of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first invalid frame.
    pub offset: u64,
    /// Human-readable reason (torn header, CRC mismatch, ...).
    pub reason: String,
}

/// How far a frame scan got: the records themselves went to its visitor.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Length in bytes of the valid prefix.
    pub valid_len: u64,
    /// LSN of the last record of the valid prefix (0 when it is empty).
    pub last_lsn: u64,
    /// `Some` when the scan stopped at a torn or corrupt frame.
    pub torn: Option<TornTail>,
}

/// Reads frames from `source` one at a time and hands each record of the
/// valid prefix to `visit`, `(lsn, record)` in file order, stopping at the
/// first torn or corrupt frame. This is the torn-tail truncation primitive:
/// recovery keeps the first `valid_len` bytes and discards the rest. Only
/// one frame is held at a time, whatever the length of the input. The
/// errors end the scan where they arise: a read failure, what `visit`
/// returns, and an intact frame of another format version — another build
/// wrote the file, and nothing may be cut then. Every version shares the
/// header and its CRC coverage, so a damaged version field is a CRC
/// mismatch, a torn tail.
pub fn scan_frames(
    mut source: impl Read,
    mut visit: impl FnMut(u64, LogRecord) -> Result<()>,
) -> Result<WalScan> {
    let mut frame = Vec::new();
    let (mut offset, mut last_lsn) = (0u64, 0u64);
    let torn = loop {
        let cut = |reason: &str| {
            Some(TornTail {
                offset,
                reason: reason.to_string(),
            })
        };
        frame.clear();
        read_up_to(&mut source, &mut frame, FRAME_HEADER_LEN)?;
        if frame.is_empty() {
            break None;
        }
        if frame.len() < FRAME_HEADER_LEN {
            break cut("torn frame header (short read)");
        }
        if frame[0..4] != FRAME_MAGIC {
            break cut("bad frame magic");
        }
        let len = u32::from_le_bytes([frame[6], frame[7], frame[8], frame[9]]);
        if len > MAX_FRAME_PAYLOAD {
            break cut("implausible payload length");
        }
        let len = len as usize;
        read_up_to(&mut source, &mut frame, len)?;
        if frame.len() < FRAME_HEADER_LEN + len {
            break cut("torn frame payload (short read)");
        }
        let lsn = u64::from_le_bytes(frame[10..18].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(frame[18..22].try_into().unwrap());
        let payload = &frame[FRAME_HEADER_LEN..];
        let mut crc = Crc32::new();
        crc.update(&frame[4..18]);
        crc.update(payload);
        if crc.finish() != stored_crc {
            break cut("CRC mismatch");
        }
        // Intact by its CRC, which covers the version: another build wrote it.
        let version = u16::from_le_bytes([frame[4], frame[5]]);
        if version != WAL_FORMAT_VERSION {
            return Err(Error::Recovery(format!(
                "the frame at byte {offset} is of format version {version}; this build reads \
                 version {WAL_FORMAT_VERSION} only"
            )));
        }
        if lsn <= last_lsn {
            break cut("non-monotone LSN");
        }
        let record = match get_record(&mut Cursor::new(payload)) {
            Ok(r) => r,
            Err(_) => break cut("undecodable record payload"),
        };
        last_lsn = lsn;
        visit(lsn, record)?;
        offset += (FRAME_HEADER_LEN + len) as u64;
    };
    Ok(WalScan {
        valid_len: offset,
        last_lsn,
        torn,
    })
}

/// Appends up to `n` bytes of `source` to `buf`, fewer only where the
/// source ends. `buf` grows as the bytes arrive, not by what a damaged
/// length field declares.
fn read_up_to(source: &mut impl Read, buf: &mut Vec<u8>, n: usize) -> Result<()> {
    source.take(n as u64).read_to_end(buf)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Destination of encoded log frames. Implementations must persist frames in
/// append order. `flush` hands buffered bytes to the OS; `sync` additionally
/// makes them durable (fsync) — the default implementation just flushes,
/// which is correct for sinks without a durability boundary (memory).
pub trait WalSink: Send {
    /// Appends one encoded frame.
    fn append(&mut self, frame: &[u8]) -> Result<()>;
    /// Pushes buffered bytes to the underlying destination.
    fn flush(&mut self) -> Result<()>;
    /// Makes all appended frames durable (fsync for file sinks).
    fn sync(&mut self) -> Result<()> {
        self.flush()
    }
    /// Bytes of appended frames the sink holds in memory.
    fn retained_bytes(&self) -> usize {
        0
    }
}

/// A sink that counts what passes through it and keeps none of it: the log
/// of a catalog without a data directory, which nothing will ever replay. A
/// server left running on it pays the encoding of every frame — so the write
/// path costs what it costs with a disk behind it — and not a byte of memory.
#[derive(Debug, Default)]
pub struct CountingSink {
    bytes: u64,
}

impl CountingSink {
    /// Frame bytes appended so far.
    pub fn appended_bytes(&self) -> u64 {
        self.bytes
    }
}

impl WalSink for CountingSink {
    fn append(&mut self, frame: &[u8]) -> Result<()> {
        self.bytes += frame.len() as u64;
        Ok(())
    }
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }
}

/// A sink that keeps frames in memory, for ever: for tests and benchmarks
/// that read the bytes back, not for a server (see [`CountingSink`]).
#[derive(Debug, Default)]
pub struct MemorySink {
    bytes: Vec<u8>,
}

impl MemorySink {
    /// Creates an empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The raw frame bytes appended so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl WalSink for MemorySink {
    fn append(&mut self, frame: &[u8]) -> Result<()> {
        self.bytes.extend_from_slice(frame);
        Ok(())
    }
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }
    fn retained_bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// A sink that appends frames to a file, with real fsync on [`WalSink::sync`].
pub struct FileSink {
    path: PathBuf,
    writer: BufWriter<File>,
}

impl FileSink {
    /// Creates (or appends to) a log file.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(FileSink {
            path,
            writer: BufWriter::new(file),
        })
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Recovery open: scans the file, handing each record of its valid
    /// prefix to `visit` ([`scan_frames`]), then **physically truncates** it
    /// at the first torn/corrupt frame so later appends continue from a
    /// clean tail; the next LSN to append with is `last_lsn + 1`. A missing
    /// file is an empty log. A frame of another format version, or an error
    /// of `visit`, fails it with the file untouched.
    pub fn recover(
        path: impl AsRef<Path>,
        visit: impl FnMut(u64, LogRecord) -> Result<()>,
    ) -> Result<WalScan> {
        let path = path.as_ref();
        let file = match File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
            Err(e) => return Err(e.into()),
        };
        let len = file.metadata()?.len();
        let scan = scan_frames(BufReader::new(file), visit)?;
        if scan.valid_len < len {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(scan.valid_len)?;
            file.sync_data()?;
        }
        Ok(scan)
    }
}

impl WalSink for FileSink {
    fn append(&mut self, frame: &[u8]) -> Result<()> {
        self.writer.write_all(frame)?;
        Ok(())
    }
    fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }
    fn sync(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }
    fn retained_bytes(&self) -> usize {
        self.writer.buffer().len()
    }
}

/// Write-side fault injection for recovery tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Torn write: bytes at absolute sink offsets `>= n` are silently
    /// dropped, as if the process was killed mid-`write(2)`.
    pub drop_after: Option<u64>,
    /// Bit flip: the lowest bit of the byte at this absolute sink offset is
    /// inverted as it passes through (silent media corruption).
    pub flip_bit_at: Option<u64>,
}

/// A [`WalSink`] wrapper that injects write faults (partial write, bit flip)
/// into the frame stream before it reaches the inner sink.
pub struct FaultSink {
    inner: Box<dyn WalSink>,
    config: FaultConfig,
    written: u64,
}

impl FaultSink {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: Box<dyn WalSink>, config: FaultConfig) -> FaultSink {
        FaultSink {
            inner,
            config,
            written: 0,
        }
    }
}

impl WalSink for FaultSink {
    fn append(&mut self, frame: &[u8]) -> Result<()> {
        let mut frame = frame.to_vec();
        let start = self.written;
        self.written += frame.len() as u64;
        if let Some(flip) = self.config.flip_bit_at {
            if flip >= start && flip < start + frame.len() as u64 {
                frame[(flip - start) as usize] ^= 1;
            }
        }
        if let Some(cut) = self.config.drop_after {
            if start >= cut {
                return Ok(()); // everything past the tear vanishes
            }
            let keep = ((cut - start) as usize).min(frame.len());
            frame.truncate(keep);
        }
        self.inner.append(&frame)
    }
    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }
    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
    fn retained_bytes(&self) -> usize {
        self.inner.retained_bytes()
    }
}

// ---------------------------------------------------------------------------
// The WAL
// ---------------------------------------------------------------------------

/// When group commits are made durable (fsync'd). See the durability matrix
/// in `docs/WAL_FORMAT.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync before every group commit acknowledges: an acknowledged write
    /// survives `kill -9` *and* power loss.
    Always,
    /// Write + flush to the OS per batch, no fsync: acknowledged writes
    /// survive a process crash (`kill -9`) but the tail may be lost on
    /// kernel panic or power loss.
    EveryBatch,
}

/// Point-in-time view of the WAL's counters and histograms, rendered at
/// `/metrics` as `shareddb_wal_*`.
#[derive(Debug, Clone)]
pub struct WalStatsSnapshot {
    /// fsync latency distribution (microseconds).
    pub fsync_us: HistogramSnapshot,
    /// Encoded frame bytes appended.
    pub appended_bytes: u64,
    /// Operations per group commit (batch size distribution).
    pub group_commit_size: HistogramSnapshot,
    /// Group commits logged.
    pub batches: u64,
    /// fsyncs issued.
    pub syncs: u64,
    /// Last LSN handed out (0 = nothing logged yet).
    pub last_lsn: u64,
}

#[derive(Debug, Default)]
struct WalStats {
    fsync_us: Histogram,
    appended_bytes: Counter,
    group_commit_size: Histogram,
    batches: Counter,
    syncs: Counter,
}

struct WalInner {
    sink: Box<dyn WalSink>,
    next_lsn: u64,
    sync_policy: SyncPolicy,
}

/// The write-ahead log: wraps a sink and provides batch-granular appends
/// (group commit per heartbeat) under a configurable fsync policy.
pub struct Wal {
    inner: Mutex<WalInner>,
    stats: WalStats,
}

impl Wal {
    /// Creates a WAL over the given sink, syncing per
    /// [`SyncPolicy::EveryBatch`] until [`Wal::set_sync_policy`] says otherwise.
    pub fn new(sink: Box<dyn WalSink>) -> Self {
        Wal {
            inner: Mutex::new(WalInner {
                sink,
                next_lsn: 1,
                sync_policy: SyncPolicy::EveryBatch,
            }),
            stats: WalStats::default(),
        }
    }

    /// A WAL that discards nothing but keeps everything in memory.
    pub fn in_memory() -> Self {
        Wal::new(Box::new(MemorySink::new()))
    }

    /// A WAL that encodes and counts every frame and keeps none.
    pub fn counting() -> Self {
        Wal::new(Box::new(CountingSink::default()))
    }

    /// Replaces the sync policy (takes effect from the next group commit).
    pub fn set_sync_policy(&self, policy: SyncPolicy) {
        self.inner.lock().sync_policy = policy;
    }

    /// Replaces the sink and LSN counter — used by recovery to attach the
    /// truncated on-disk log tail after replaying it.
    pub fn install_sink(&self, sink: Box<dyn WalSink>, next_lsn: u64) {
        let mut inner = self.inner.lock();
        inner.sink = sink;
        inner.next_lsn = next_lsn;
    }

    /// Logs one committed batch: begin marker, all operations, commit marker,
    /// followed by one flush and — per [`SyncPolicy`] — one fsync (group
    /// commit). Returns only after the batch is as durable as the policy
    /// promises, so callers may acknowledge afterwards.
    pub fn log_batch(&self, ts: Timestamp, ops: &[(String, UpdateOp)]) -> Result<()> {
        self.log_ops(ts, ops.iter().map(|(table, op)| (table.as_str(), op)))
    }

    /// [`Wal::log_batch`] over `(table, operation)` pairs wherever they lie:
    /// each is encoded from there, straight into the batch's frames — a
    /// [`LogRecord::Apply`] would own a copy of the table's name and of the
    /// operation.
    pub(crate) fn log_ops<'a>(
        &self,
        ts: Timestamp,
        ops: impl Iterator<Item = (&'a str, &'a UpdateOp)>,
    ) -> Result<()> {
        let mut inner = self.inner.lock();
        let mut frames = Vec::new();
        let mut lsn = inner.next_lsn;
        put_frame(&mut frames, lsn, |buf| {
            put_record(buf, &LogRecord::BeginBatch(ts))
        });
        let mut logged = 0;
        for (table, op) in ops {
            lsn += 1;
            put_frame(&mut frames, lsn, |buf| put_apply(buf, table, op));
            logged += 1;
        }
        lsn += 1;
        put_frame(&mut frames, lsn, |buf| {
            put_record(buf, &LogRecord::CommitBatch(ts))
        });
        inner.sink.append(&frames)?;
        inner.next_lsn = lsn + 1;
        inner.sink.flush()?;
        if inner.sync_policy == SyncPolicy::Always {
            let started = Instant::now();
            inner.sink.sync()?;
            self.stats.fsync_us.record(started.elapsed());
            self.stats.syncs.inc();
        }
        self.stats.appended_bytes.add(frames.len() as u64);
        self.stats.group_commit_size.record_us(logged);
        self.stats.batches.inc();
        Ok(())
    }

    /// Forces an fsync of everything appended so far (shutdown, checkpoint).
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let started = Instant::now();
        inner.sink.sync()?;
        self.stats.fsync_us.record(started.elapsed());
        self.stats.syncs.inc();
        Ok(())
    }

    /// Next LSN that would be assigned (1 = empty log).
    pub fn next_lsn(&self) -> u64 {
        self.inner.lock().next_lsn
    }

    /// Current counters and histograms.
    pub fn stats_snapshot(&self) -> WalStatsSnapshot {
        WalStatsSnapshot {
            fsync_us: self.stats.fsync_us.snapshot(),
            appended_bytes: self.stats.appended_bytes.get(),
            group_commit_size: self.stats.group_commit_size.snapshot(),
            batches: self.stats.batches.get(),
            syncs: self.stats.syncs.get(),
            last_lsn: self.inner.lock().next_lsn - 1,
        }
    }

    /// Runs a closure against the underlying sink (test hook).
    pub fn with_sink<R>(&self, f: impl FnOnce(&mut dyn WalSink) -> R) -> R {
        let mut inner = self.inner.lock();
        f(inner.sink.as_mut())
    }
}

/// A visitor for [`scan_frames`] that gathers the operations of one batch
/// and hands the batch to `apply` when its commit marker arrives: a batch
/// without one — torn writes at the tail of the log — is never handed over,
/// and checkpoint metadata is skipped. The operations move from the decoder
/// to `apply`; nothing is cloned.
pub fn committed_batches(
    mut apply: impl FnMut(Timestamp, Vec<(String, UpdateOp)>) -> Result<()>,
) -> impl FnMut(u64, LogRecord) -> Result<()> {
    let mut current: Option<(Timestamp, Vec<(String, UpdateOp)>)> = None;
    move |_, record| {
        match record {
            LogRecord::BeginBatch(ts) => current = Some((ts, Vec::new())),
            LogRecord::Apply { table, op } => {
                if let Some((_, ops)) = current.as_mut() {
                    ops.push((table, op));
                }
            }
            LogRecord::CommitBatch(ts) => match current.take() {
                Some((begin_ts, ops)) if begin_ts == ts => return apply(ts, ops),
                _ => {}
            },
            LogRecord::CheckpointMeta { .. } => {}
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Binary payload encoding
// ---------------------------------------------------------------------------

/// Record tags: the first byte of a payload.
const BEGIN: u8 = 1;
const COMMIT: u8 = 2;
const CHECKPOINT: u8 = 3;
const INSERT: u8 = 4;
const UPDATE: u8 = 5;
const DELETE: u8 = 6;

/// Expression node tags: the first byte of every node.
const COLUMN: u8 = 0;
const NAMED_COLUMN: u8 = 1;
const LITERAL: u8 = 2;
const PARAM: u8 = 3;
const BINARY: u8 = 4;
const UNARY: u8 = 5;
const LIKE: u8 = 6;
const IN_LIST: u8 = 7;
const BETWEEN: u8 = 8;

/// A binary operator is logged as its index here.
const BINARY_OPS: [BinaryOp; 12] = {
    use BinaryOp::*;
    [Eq, NotEq, Lt, LtEq, Gt, GtEq, And, Or, Add, Sub, Mul, Div]
};

/// A unary operator is logged as its index here.
const UNARY_OPS: [UnaryOp; 4] = {
    use UnaryOp::*;
    [Not, Neg, IsNull, IsNotNull]
};

/// The index of `op` in `table`, as the byte that logs it.
fn op_byte<T: PartialEq>(table: &[T], op: &T) -> u8 {
    table
        .iter()
        .position(|o| o == op)
        .expect("every operator is in its table") as u8
}

/// The operator a logged byte names.
fn op_of<T: Copy>(table: &[T], byte: u8) -> Result<T> {
    table
        .get(byte as usize)
        .copied()
        .ok_or_else(|| malformed(format!("bad operator {byte}")))
}

/// Appends one record's payload.
pub(crate) fn put_record(buf: &mut Vec<u8>, record: &LogRecord) {
    match record {
        LogRecord::BeginBatch(ts) => {
            put_u8(buf, BEGIN);
            put_u64(buf, ts.0);
        }
        LogRecord::CommitBatch(ts) => {
            put_u8(buf, COMMIT);
            put_u64(buf, ts.0);
        }
        LogRecord::CheckpointMeta { ts, wal_lsn } => {
            put_u8(buf, CHECKPOINT);
            put_u64(buf, ts.0);
            put_u64(buf, *wal_lsn);
        }
        LogRecord::Apply { table, op } => put_apply(buf, table, op),
    }
}

/// Appends the payload of a [`LogRecord::Apply`], from the operation where
/// it lies.
fn put_apply(buf: &mut Vec<u8>, table: &str, op: &UpdateOp) {
    match op {
        UpdateOp::Insert { values } => put_insert(buf, table, values),
        UpdateOp::Update {
            assignments,
            predicate,
        } => {
            put_u8(buf, UPDATE);
            put_string(buf, table);
            put_u32(buf, assignments.len() as u32);
            for (column, expr) in assignments {
                put_u32(buf, *column as u32);
                put_expr(buf, expr);
            }
            put_expr(buf, predicate);
        }
        UpdateOp::Delete { predicate } => {
            put_u8(buf, DELETE);
            put_string(buf, table);
            put_expr(buf, predicate);
        }
    }
}

/// Appends the payload of an insert of `values` into `table`, from the row
/// where it lies.
pub(crate) fn put_insert(buf: &mut Vec<u8>, table: &str, values: &Tuple) {
    put_u8(buf, INSERT);
    put_string(buf, table);
    put_values(buf, values.iter());
}

/// Appends an expression in prefix form: each node's tag and fields, then
/// its children.
fn put_expr(buf: &mut Vec<u8>, expr: &Expr) {
    match expr {
        Expr::Column(i) => {
            put_u8(buf, COLUMN);
            put_u32(buf, *i as u32);
        }
        Expr::NamedColumn { qualifier, name } => {
            put_u8(buf, NAMED_COLUMN);
            put_u8(buf, qualifier.is_some() as u8);
            if let Some(qualifier) = qualifier {
                put_string(buf, qualifier);
            }
            put_string(buf, name);
        }
        Expr::Literal(v) => {
            put_u8(buf, LITERAL);
            encode_value(buf, v);
        }
        Expr::Param(i) => {
            put_u8(buf, PARAM);
            put_u32(buf, *i as u32);
        }
        Expr::Binary { op, left, right } => {
            put_u8(buf, BINARY);
            put_u8(buf, op_byte(&BINARY_OPS, op));
            put_expr(buf, left);
            put_expr(buf, right);
        }
        Expr::Unary { op, expr } => {
            put_u8(buf, UNARY);
            put_u8(buf, op_byte(&UNARY_OPS, op));
            put_expr(buf, expr);
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            put_u8(buf, LIKE);
            put_u8(buf, *negated as u8);
            put_expr(buf, expr);
            put_expr(buf, pattern);
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            put_u8(buf, IN_LIST);
            put_u8(buf, *negated as u8);
            put_u32(buf, list.len() as u32);
            put_expr(buf, expr);
            list.iter().for_each(|item| put_expr(buf, item));
        }
        Expr::Between { expr, low, high } => {
            put_u8(buf, BETWEEN);
            put_expr(buf, expr);
            put_expr(buf, low);
            put_expr(buf, high);
        }
    }
}

/// True when no path from `expr` to a leaf is longer than `depth` nodes:
/// what the decoder reads back. Recurses no deeper than `depth`.
pub(crate) fn nests_within(expr: &Expr, depth: usize) -> bool {
    let Some(depth) = depth.checked_sub(1) else {
        return false;
    };
    let within = |e: &Expr| nests_within(e, depth);
    match expr {
        Expr::Column(_) | Expr::NamedColumn { .. } | Expr::Literal(_) | Expr::Param(_) => true,
        Expr::Binary { left, right, .. } => within(left) && within(right),
        Expr::Unary { expr, .. } => within(expr),
        Expr::Like { expr, pattern, .. } => within(expr) && within(pattern),
        Expr::InList { expr, list, .. } => within(expr) && list.iter().all(within),
        Expr::Between { expr, low, high } => within(expr) && within(low) && within(high),
    }
}

/// Reads one record's payload; every byte of it must belong to the record.
fn get_record(c: &mut Cursor<'_>) -> Result<LogRecord> {
    let record = match c.u8()? {
        BEGIN => LogRecord::BeginBatch(Timestamp(c.u64()?)),
        COMMIT => LogRecord::CommitBatch(Timestamp(c.u64()?)),
        CHECKPOINT => LogRecord::CheckpointMeta {
            ts: Timestamp(c.u64()?),
            wal_lsn: c.u64()?,
        },
        tag @ (INSERT | UPDATE | DELETE) => {
            let table = c.string()?;
            let op = match tag {
                INSERT => UpdateOp::Insert {
                    values: Tuple::new(c.values()?),
                },
                UPDATE => {
                    let assignments = (0..c.u32()?)
                        .map(|_| Ok((c.u32()? as usize, get_expr(c, MAX_EXPR_DEPTH)?)))
                        .collect::<Result<_>>()?;
                    UpdateOp::Update {
                        assignments,
                        predicate: get_expr(c, MAX_EXPR_DEPTH)?,
                    }
                }
                _ => UpdateOp::Delete {
                    predicate: get_expr(c, MAX_EXPR_DEPTH)?,
                },
            };
            LogRecord::Apply { table, op }
        }
        other => return Err(malformed(format!("unknown record tag {other}"))),
    };
    c.done()?;
    Ok(record)
}

/// Reads one expression of at most `depth` levels. Inverse of [`put_expr`].
fn get_expr(c: &mut Cursor<'_>, depth: usize) -> Result<Expr> {
    let Some(depth) = depth.checked_sub(1) else {
        return Err(malformed(format!(
            "expression nested deeper than {MAX_EXPR_DEPTH} levels"
        )));
    };
    let sub = |c: &mut Cursor<'_>| get_expr(c, depth).map(Box::new);
    Ok(match c.u8()? {
        COLUMN => Expr::Column(c.u32()? as usize),
        NAMED_COLUMN => Expr::NamedColumn {
            qualifier: match c.u8()? {
                0 => None,
                _ => Some(c.string()?),
            },
            name: c.string()?,
        },
        LITERAL => Expr::Literal(c.value()?),
        PARAM => Expr::Param(c.u32()? as usize),
        BINARY => Expr::Binary {
            op: op_of(&BINARY_OPS, c.u8()?)?,
            left: sub(c)?,
            right: sub(c)?,
        },
        UNARY => Expr::Unary {
            op: op_of(&UNARY_OPS, c.u8()?)?,
            expr: sub(c)?,
        },
        LIKE => {
            let negated = c.u8()? != 0;
            Expr::Like {
                expr: sub(c)?,
                pattern: sub(c)?,
                negated,
            }
        }
        IN_LIST => {
            let negated = c.u8()? != 0;
            let items = c.u32()?;
            Expr::InList {
                expr: sub(c)?,
                list: (0..items)
                    .map(|_| get_expr(c, depth))
                    .collect::<Result<_>>()?,
                negated,
            }
        }
        BETWEEN => Expr::Between {
            expr: sub(c)?,
            low: sub(c)?,
            high: sub(c)?,
        },
        other => return Err(malformed(format!("unknown expression tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::tuple;

    /// The temporary directory of one test, removed with what it holds when
    /// the test ends, passed or failed.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(test: &str) -> Self {
            let pid = std::process::id();
            let dir = std::env::temp_dir().join(format!("shareddb-wal-test-{pid}-{test}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn memory_sink_group_commit_flushes_once() {
        let wal = Wal::in_memory();
        wal.log_batch(
            Timestamp(3),
            &[
                (
                    "ITEM".into(),
                    UpdateOp::Insert {
                        values: tuple![1i64, "x"],
                    },
                ),
                (
                    "ITEM".into(),
                    UpdateOp::Insert {
                        values: tuple![2i64, "y"],
                    },
                ),
            ],
        )
        .unwrap();
        let stats = wal.stats_snapshot();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.last_lsn, 4); // BEGIN + 2 ops + COMMIT
        assert!(stats.appended_bytes > 0);
        assert_eq!(stats.group_commit_size.count, 1);
    }

    /// Fed the same frames, the sink that keeps nothing counts what the sink
    /// that keeps everything holds.
    #[test]
    fn counting_sink_counts_what_a_memory_sink_keeps() {
        let (mut counting, mut memory) = (CountingSink::default(), MemorySink::new());
        for lsn in 1..=100u64 {
            let frame = encode_frame(lsn, &LogRecord::BeginBatch(Timestamp(lsn)));
            counting.append(&frame).unwrap();
            memory.append(&frame).unwrap();
        }
        assert_eq!(counting.appended_bytes(), memory.bytes().len() as u64);
        assert_eq!(
            (counting.retained_bytes(), memory.retained_bytes()),
            (0, memory.bytes().len())
        );
    }

    #[test]
    fn sync_policy_always_fsyncs_per_batch() {
        let wal = Wal::in_memory();
        wal.set_sync_policy(SyncPolicy::Always);
        for i in 0..3i64 {
            wal.log_batch(
                Timestamp(i as u64 + 1),
                &[("T".into(), UpdateOp::Insert { values: tuple![i] })],
            )
            .unwrap();
        }
        assert_eq!(wal.stats_snapshot().syncs, 3);
        let wal = Wal::in_memory(); // EveryBatch default
        wal.log_batch(
            Timestamp(1),
            &[(
                "T".into(),
                UpdateOp::Insert {
                    values: tuple![1i64],
                },
            )],
        )
        .unwrap();
        assert_eq!(wal.stats_snapshot().syncs, 0);
    }

    #[test]
    fn expr_encoding_roundtrip() {
        let exprs = vec![
            Expr::col(3),
            Expr::lit(42i64),
            Expr::lit("te;xt with spaces"),
            Expr::param(1),
            Expr::col(0).eq(Expr::lit(7i64)),
            Expr::col(1)
                .gt(Expr::lit(1.5f64))
                .and(Expr::col(2).lt_eq(Expr::lit(9i64)).or(Expr::col(3).not())),
            Expr::col(2).like(Expr::lit("%x_y%")),
            Expr::Like {
                expr: Box::new(Expr::col(1)),
                pattern: Box::new(Expr::lit("a%")),
                negated: true,
            },
            Expr::InList {
                expr: Box::new(Expr::col(0)),
                list: vec![Expr::lit(1i64), Expr::lit(2i64), Expr::lit(3i64)],
                negated: true,
            },
            Expr::Between {
                expr: Box::new(Expr::col(4)),
                low: Box::new(Expr::lit(-2i64)),
                high: Box::new(Expr::lit(-1i64)),
            },
            Expr::Unary {
                op: UnaryOp::IsNull,
                expr: Box::new(Expr::col(5)),
            },
            Expr::NamedColumn {
                qualifier: Some("ITEM".into()),
                name: "I_ID".into(),
            },
            Expr::NamedColumn {
                qualifier: None,
                name: "A".into(),
            },
            Expr::col(1).binary(BinaryOp::Add, Expr::col(2)).binary(
                BinaryOp::Mul,
                Expr::col(3).binary(BinaryOp::Sub, Expr::lit(1i64)),
            ),
        ];
        for e in exprs {
            let mut buf = Vec::new();
            put_expr(&mut buf, &e);
            let mut c = Cursor::new(&buf);
            assert_eq!(get_expr(&mut c, MAX_EXPR_DEPTH).unwrap(), e);
            c.done().unwrap();
            for cut in 0..buf.len() {
                assert!(get_expr(&mut Cursor::new(&buf[..cut]), MAX_EXPR_DEPTH).is_err());
            }
        }
        // Every operator, by the byte its table gives it.
        for op in BINARY_OPS {
            let e = Expr::col(0).binary(op, Expr::col(1));
            let mut buf = Vec::new();
            put_expr(&mut buf, &e);
            assert_eq!(get_expr(&mut Cursor::new(&buf), 2).unwrap(), e);
        }
        for op in UNARY_OPS {
            let e = Expr::Unary {
                op,
                expr: Box::new(Expr::col(0)),
            };
            let mut buf = Vec::new();
            put_expr(&mut buf, &e);
            assert_eq!(get_expr(&mut Cursor::new(&buf), 2).unwrap(), e);
        }
    }

    /// An expression as deep as the bound reads back; one node deeper is
    /// refused by the reader and by [`nests_within`], which the write path
    /// asks — over every child position, an IN list's items included.
    #[test]
    fn expressions_nest_to_the_bound_and_no_deeper() {
        let nest = |depth: usize, wrap: &dyn Fn(Expr) -> Expr| {
            (1..depth).fold(Expr::col(0), |e, _| wrap(e))
        };
        let wraps: [&dyn Fn(Expr) -> Expr; 4] = [
            &|e| e.not(),
            &|e| Expr::lit(1i64).binary(BinaryOp::Add, e),
            &|e| Expr::Between {
                expr: Box::new(Expr::col(1)),
                low: Box::new(Expr::lit(0i64)),
                high: Box::new(e),
            },
            &|e| Expr::InList {
                expr: Box::new(Expr::col(1)),
                list: vec![Expr::lit(0i64), e],
                negated: false,
            },
        ];
        for wrap in wraps {
            for (depth, fits) in [(MAX_EXPR_DEPTH, true), (MAX_EXPR_DEPTH + 1, false)] {
                let e = nest(depth, wrap);
                assert_eq!(nests_within(&e, MAX_EXPR_DEPTH), fits, "{depth}");
                let mut buf = Vec::new();
                put_expr(&mut buf, &e);
                let read = get_expr(&mut Cursor::new(&buf), MAX_EXPR_DEPTH);
                assert_eq!(read.ok(), fits.then_some(e), "{depth}");
            }
        }
    }

    /// Every kind of record comes back from its frame as it went; a payload
    /// with an unknown tag, a trailing byte or a cut anywhere is a torn tail.
    #[test]
    fn record_roundtrip_all_kinds() {
        let records = vec![
            LogRecord::BeginBatch(Timestamp(17)),
            LogRecord::CommitBatch(Timestamp(17)),
            LogRecord::CheckpointMeta {
                ts: Timestamp(9),
                wal_lsn: 1234,
            },
            LogRecord::Apply {
                table: "ORDERS".into(),
                op: UpdateOp::Insert {
                    values: tuple![7i64, "2011-01-01", 99.5f64],
                },
            },
            LogRecord::Apply {
                table: "ITEM".into(),
                op: UpdateOp::Update {
                    assignments: vec![
                        (2, Expr::lit(9.0f64)),
                        (1, Expr::col(1).binary(BinaryOp::Add, Expr::lit(1i64))),
                    ],
                    predicate: Expr::col(0).eq(Expr::lit(1i64)).and(Expr::col(2).not()),
                },
            },
            LogRecord::Apply {
                table: "ITEM".into(),
                op: UpdateOp::Delete {
                    predicate: Expr::col(1).like(Expr::lit("obsolete%")),
                },
            },
        ];
        for rec in records {
            let frame = encode_frame(1, &rec);
            let (records, scan) = scanned(&frame);
            assert!(scan.torn.is_none(), "{rec:?}");
            assert_eq!(records, [(1, rec.clone())]);
            let payload = &frame[FRAME_HEADER_LEN..];
            for len in 0..payload.len() {
                let (records, _) = scanned(&reframe(&payload[..len]));
                assert!(records.is_empty(), "{rec:?} cut to {len}");
            }
            let longer = reframe(&[payload, &[0]].concat());
            assert!(scanned(&longer).0.is_empty(), "{rec:?}");
        }
        for garbage in [&b"GARBAGE"[..], &[0], &[7, 0, 0, 0, 0, 0, 0, 0, 0]] {
            let (_, scan) = scanned(&reframe(garbage));
            assert_eq!(scan.torn.unwrap().reason, "undecodable record payload");
        }
    }

    /// The records of `bytes`, and how far the scan got.
    fn scanned(bytes: &[u8]) -> (Vec<(u64, LogRecord)>, WalScan) {
        let mut records = Vec::new();
        let scan = scan_frames(bytes, |lsn, record| {
            records.push((lsn, record));
            Ok(())
        });
        (records, scan.unwrap())
    }

    /// The committed batches of `bytes`.
    fn committed(bytes: &[u8]) -> Vec<(Timestamp, Vec<(String, UpdateOp)>)> {
        let mut batches = Vec::new();
        let visit = committed_batches(|ts, ops| {
            batches.push((ts, ops));
            Ok(())
        });
        scan_frames(bytes, visit).unwrap();
        batches
    }

    /// A frame at LSN 1 around any payload bytes, its CRC right.
    fn reframe(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_frame(&mut buf, 1, |buf| buf.extend_from_slice(payload));
        buf
    }

    #[test]
    fn frame_roundtrip_and_scan() {
        let rec = LogRecord::Apply {
            table: "T".into(),
            op: UpdateOp::Insert {
                values: tuple![5i64, "row"],
            },
        };
        let mut bytes = encode_frame(1, &LogRecord::BeginBatch(Timestamp(1)));
        bytes.extend(encode_frame(2, &rec));
        bytes.extend(encode_frame(3, &LogRecord::CommitBatch(Timestamp(1))));
        let (records, scan) = scanned(&bytes);
        assert!(scan.torn.is_none());
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(records.len(), 3);
        assert_eq!(records[1], (2, rec));
        assert_eq!(records[2].0, 3);
    }

    #[test]
    fn scan_truncates_on_torn_tail_and_crc_corruption() {
        let mut bytes = encode_frame(1, &LogRecord::BeginBatch(Timestamp(1)));
        let first = bytes.len();
        bytes.extend(encode_frame(
            2,
            &LogRecord::Apply {
                table: "T".into(),
                op: UpdateOp::Insert {
                    values: tuple![1i64, "hello world"],
                },
            },
        ));

        // Torn mid-record: cut the second frame short.
        let torn = &bytes[..first + 10];
        let (records, scan) = scanned(torn);
        assert_eq!(records.len(), 1);
        assert_eq!(scan.valid_len, first as u64);
        let tail = scan.torn.unwrap();
        assert_eq!(tail.offset, first as u64);
        assert!(tail.reason.contains("torn"), "{}", tail.reason);

        // Bit flip in the second frame's payload: CRC catches it.
        let mut flipped = bytes.clone();
        let n = flipped.len();
        flipped[n - 3] ^= 0x40;
        let (records, scan) = scanned(&flipped);
        assert_eq!(records.len(), 1);
        assert_eq!(scan.torn.unwrap().reason, "CRC mismatch");

        // Bit flip in the length field: implausible length or CRC, never a
        // panic or huge allocation.
        let mut flipped = bytes.clone();
        flipped[first + 8] ^= 0xFF; // high byte of the payload length
        let (records, scan) = scanned(&flipped);
        assert_eq!(records.len(), 1);
        assert!(scan.torn.is_some());

        // Garbage magic after a valid prefix.
        let mut garbage = bytes[..first].to_vec();
        garbage.extend_from_slice(b"not a frame at all........");
        let (records, scan) = scanned(&garbage);
        assert_eq!(records.len(), 1);
        assert_eq!(scan.torn.unwrap().reason, "bad frame magic");
    }

    #[test]
    fn scan_rejects_non_monotone_lsn() {
        let mut bytes = encode_frame(5, &LogRecord::BeginBatch(Timestamp(1)));
        bytes.extend(encode_frame(5, &LogRecord::CommitBatch(Timestamp(1))));
        let (records, scan) = scanned(&bytes);
        assert_eq!(records.len(), 1);
        assert_eq!(scan.torn.unwrap().reason, "non-monotone LSN");
    }

    #[test]
    fn file_sink_roundtrip_and_recover() {
        let dir = TempDir::new("roundtrip");
        let path = dir.path("roundtrip.wal");
        let wal = Wal::new(Box::new(FileSink::create(&path).unwrap()));
        wal.log_batch(
            Timestamp(1),
            &[(
                "T".into(),
                UpdateOp::Insert {
                    values: tuple![5i64, "row"],
                },
            )],
        )
        .unwrap();
        wal.sync().unwrap();
        let (records, _) = scanned(&std::fs::read(&path).unwrap());
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].1, LogRecord::BeginBatch(Timestamp(1)));
        let mut visited = 0;
        let scan = FileSink::recover(&path, |_, _| {
            visited += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(visited, 3);
        assert_eq!(scan.last_lsn + 1, 4);
        assert!(scan.torn.is_none());
        // Recovering a missing file is an empty log, not an error.
        let scan = FileSink::recover(dir.path("missing.wal"), |_, _| panic!("a record")).unwrap();
        assert_eq!(scan.last_lsn + 1, 1);
        assert!(scan.torn.is_none());
    }

    #[test]
    fn recover_truncates_torn_file_for_clean_appends() {
        let dir = TempDir::new("torn-append");
        let path = dir.path("torn-append.wal");
        {
            let wal = Wal::new(Box::new(FileSink::create(&path).unwrap()));
            wal.log_batch(
                Timestamp(1),
                &[(
                    "T".into(),
                    UpdateOp::Insert {
                        values: tuple![1i64],
                    },
                )],
            )
            .unwrap();
            wal.sync().unwrap();
        }
        let full = std::fs::metadata(&path).unwrap().len();
        // Tear the file mid-final-record.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 3).unwrap();
        drop(file);
        let mut visited = 0;
        let scan = FileSink::recover(&path, |_, _| {
            visited += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(visited, 2); // BEGIN + INSERT survive, COMMIT torn
        assert!(scan.torn.is_some());
        let next_lsn = scan.last_lsn + 1;
        // The file was physically truncated: appends resume cleanly.
        let wal = Wal::new(Box::new(FileSink::create(&path).unwrap()));
        wal.install_sink(Box::new(FileSink::create(&path).unwrap()), next_lsn);
        wal.log_batch(
            Timestamp(2),
            &[(
                "T".into(),
                UpdateOp::Insert {
                    values: tuple![2i64],
                },
            )],
        )
        .unwrap();
        wal.sync().unwrap();
        // Torn batch 1 has no COMMIT; batch 2 is complete.
        let committed = committed(&std::fs::read(&path).unwrap());
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, Timestamp(2));
    }

    #[test]
    fn fault_sink_partial_write_and_bit_flip() {
        // Partial write: the tail past the cut never reaches the file.
        let dir = TempDir::new("fault");
        let path = dir.path("fault-partial.wal");
        {
            let inner = Box::new(FileSink::create(&path).unwrap());
            let mut sink = FaultSink::new(
                inner,
                FaultConfig {
                    drop_after: Some(40),
                    ..FaultConfig::default()
                },
            );
            for lsn in 1..=4u64 {
                sink.append(&encode_frame(lsn, &LogRecord::BeginBatch(Timestamp(lsn))))
                    .unwrap();
            }
            sink.sync().unwrap();
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 40);
        let (records, scan) = scanned(&std::fs::read(&path).unwrap());
        assert!(scan.torn.is_some());
        assert!(records.len() < 4);

        // Bit flip: CRC detects, scan cuts at the flipped frame.
        let path2 = dir.path("fault-flip.wal");
        {
            let inner = Box::new(FileSink::create(&path2).unwrap());
            let frame1 = encode_frame(1, &LogRecord::BeginBatch(Timestamp(1)));
            let flip_at = frame1.len() as u64 + FRAME_HEADER_LEN as u64 + 1;
            let mut sink = FaultSink::new(
                inner,
                FaultConfig {
                    flip_bit_at: Some(flip_at),
                    ..FaultConfig::default()
                },
            );
            sink.append(&frame1).unwrap();
            sink.append(&encode_frame(2, &LogRecord::CommitBatch(Timestamp(1))))
                .unwrap();
            sink.sync().unwrap();
        }
        let (records, scan) = scanned(&std::fs::read(&path2).unwrap());
        assert_eq!(records.len(), 1);
        assert_eq!(scan.torn.unwrap().reason, "CRC mismatch");

        // Short read: only a prefix of the file is visible.
        let (records, scan) = scanned(&std::fs::read(&path2).unwrap()[..10]);
        assert!(records.is_empty());
        assert!(scan.torn.is_some());
    }

    #[test]
    fn committed_batches_drop_torn_tail() {
        let records = vec![
            LogRecord::BeginBatch(Timestamp(1)),
            LogRecord::Apply {
                table: "T".into(),
                op: UpdateOp::Insert {
                    values: tuple![1i64],
                },
            },
            LogRecord::CommitBatch(Timestamp(1)),
            LogRecord::CheckpointMeta {
                ts: Timestamp(1),
                wal_lsn: 3,
            },
            LogRecord::BeginBatch(Timestamp(2)),
            LogRecord::Apply {
                table: "T".into(),
                op: UpdateOp::Insert {
                    values: tuple![2i64],
                },
            },
            // no commit for batch 2 (crash)
        ];
        let bytes: Vec<u8> = (1..)
            .zip(&records)
            .flat_map(|(lsn, record)| encode_frame(lsn, record))
            .collect();
        let committed = committed(&bytes);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, Timestamp(1));
        assert_eq!(committed[0].1.len(), 1);
    }
}
