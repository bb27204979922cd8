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
//! Every record is wrapped in a **frame** (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic          b"SDBW" (0x53 0x44 0x42 0x57)
//! 4       2     format version u16, currently 1
//! 6       4     payload length u32
//! 10      8     LSN            u64, strictly monotone within a file
//! 18      4     CRC-32         over bytes 4..18 and the payload
//! 22      n     payload        UTF-8 record encoding (see below)
//! ```
//!
//! The CRC is the reflected IEEE CRC-32 from [`shareddb_common::crc32`].
//! A reader scans frames sequentially and **truncates at the first torn or
//! corrupt frame** (short header, bad magic, unknown version, short payload,
//! CRC mismatch, undecodable payload, or non-monotone LSN): everything before
//! that offset is valid, everything after is discarded — recovery never
//! errors on a tail the crash tore. [`committed_ops`] then additionally drops
//! the last batch if its `COMMIT` marker is missing, so a partially-framed
//! group commit is never replayed.
//!
//! The byte-level specification (field tables, CRC coverage, payload
//! grammar, durability matrix) lives in `docs/WAL_FORMAT.md`; the constants
//! there are asserted against [`FRAME_MAGIC`] / [`WAL_FORMAT_VERSION`] by
//! `tests/recovery.rs`.

use crate::update::UpdateOp;
use parking_lot::Mutex;
use shareddb_common::crc32::Crc32;
use shareddb_common::ids::Timestamp;
use shareddb_common::metrics::{Counter, Histogram, HistogramSnapshot};
use shareddb_common::{BinaryOp, Error, Expr, Result, Tuple, UnaryOp, Value};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Magic bytes opening every frame: `SDBW`.
pub const FRAME_MAGIC: [u8; 4] = *b"SDBW";
/// Current frame format version.
pub const WAL_FORMAT_VERSION: u16 = 1;
/// Fixed frame-header size in bytes (magic + version + length + LSN + CRC).
pub const FRAME_HEADER_LEN: usize = 22;
/// Upper bound on a single frame payload; larger declared lengths are treated
/// as corruption (a bit flip in the length field must not make the reader
/// attempt a multi-gigabyte allocation).
pub const MAX_FRAME_PAYLOAD: u32 = 64 * 1024 * 1024;

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
    frame(lsn, &encode_record(record))
}

/// The self-checking frame around one record's payload text.
fn frame(lsn: u64, payload: &str) -> Vec<u8> {
    let payload = payload.as_bytes();
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&WAL_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&lsn.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&out[4..18]);
    crc.update(payload);
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// What [`FileSink::recover`] hands back: the valid `(lsn, record)` prefix,
/// the next LSN to append with, and the torn tail it truncated (if any).
pub type RecoveredLog = (Vec<(u64, LogRecord)>, u64, Option<TornTail>);

/// Where and why a frame scan stopped before the end of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first invalid frame.
    pub offset: u64,
    /// Human-readable reason (torn header, CRC mismatch, ...).
    pub reason: String,
}

/// Result of scanning a byte stream of frames.
#[derive(Debug)]
pub struct WalScan {
    /// Decoded `(lsn, record)` pairs of the valid prefix, in file order.
    pub records: Vec<(u64, LogRecord)>,
    /// Length in bytes of the valid prefix.
    pub valid_len: u64,
    /// `Some` when the scan stopped at a torn or corrupt frame.
    pub torn: Option<TornTail>,
}

impl WalScan {
    /// The records without their LSNs.
    pub fn into_records(self) -> Vec<LogRecord> {
        self.records.into_iter().map(|(_, r)| r).collect()
    }

    /// The next LSN to append with (one past the largest valid LSN).
    pub fn next_lsn(&self) -> u64 {
        self.records.last().map_or(1, |(lsn, _)| lsn + 1)
    }
}

/// Scans a byte slice of frames, stopping (never erroring) at the first torn
/// or corrupt frame. This is the torn-tail truncation primitive: recovery
/// keeps `bytes[..valid_len]` and discards the rest.
pub fn scan_frames(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut last_lsn = 0u64;
    let torn = loop {
        if offset == bytes.len() {
            break None;
        }
        let cut = |reason: &str| TornTail {
            offset: offset as u64,
            reason: reason.to_string(),
        };
        let rest = &bytes[offset..];
        if rest.len() < FRAME_HEADER_LEN {
            break Some(cut("torn frame header (short read)"));
        }
        if rest[0..4] != FRAME_MAGIC {
            break Some(cut("bad frame magic"));
        }
        let version = u16::from_le_bytes([rest[4], rest[5]]);
        if version != WAL_FORMAT_VERSION {
            break Some(cut("unknown frame format version"));
        }
        let len = u32::from_le_bytes([rest[6], rest[7], rest[8], rest[9]]);
        if len > MAX_FRAME_PAYLOAD {
            break Some(cut("implausible payload length"));
        }
        let len = len as usize;
        if rest.len() < FRAME_HEADER_LEN + len {
            break Some(cut("torn frame payload (short read)"));
        }
        let lsn = u64::from_le_bytes(rest[10..18].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(rest[18..22].try_into().unwrap());
        let payload = &rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        let mut crc = Crc32::new();
        crc.update(&rest[4..18]);
        crc.update(payload);
        if crc.finish() != stored_crc {
            break Some(cut("CRC mismatch"));
        }
        if lsn <= last_lsn {
            break Some(cut("non-monotone LSN"));
        }
        let text = match std::str::from_utf8(payload) {
            Ok(t) => t,
            Err(_) => break Some(cut("payload is not UTF-8")),
        };
        let record = match decode_record(text) {
            Ok(r) => r,
            Err(_) => break Some(cut("undecodable record payload")),
        };
        last_lsn = lsn;
        records.push((lsn, record));
        offset += FRAME_HEADER_LEN + len;
    };
    WalScan {
        records,
        valid_len: offset as u64,
        torn,
    }
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
    flushes: usize,
    syncs: usize,
}

impl CountingSink {
    /// Frame bytes appended so far.
    pub fn appended_bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of flush calls.
    pub fn flush_count(&self) -> usize {
        self.flushes
    }

    /// Number of sync calls.
    pub fn sync_count(&self) -> usize {
        self.syncs
    }
}

impl WalSink for CountingSink {
    fn append(&mut self, frame: &[u8]) -> Result<()> {
        self.bytes += frame.len() as u64;
        Ok(())
    }
    fn flush(&mut self) -> Result<()> {
        self.flushes += 1;
        Ok(())
    }
    fn sync(&mut self) -> Result<()> {
        self.flushes += 1;
        self.syncs += 1;
        Ok(())
    }
}

/// A sink that keeps frames in memory, for ever: for tests and benchmarks
/// that read the records back, not for a server (see [`CountingSink`]).
#[derive(Debug, Default)]
pub struct MemorySink {
    bytes: Vec<u8>,
    flushes: usize,
    syncs: usize,
}

impl MemorySink {
    /// Creates an empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes the records appended so far.
    pub fn records(&self) -> Vec<LogRecord> {
        scan_frames(&self.bytes).into_records()
    }

    /// The raw frame bytes appended so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of flush calls (used to test group commit).
    pub fn flush_count(&self) -> usize {
        self.flushes
    }

    /// Number of sync calls (used to test sync policies).
    pub fn sync_count(&self) -> usize {
        self.syncs
    }
}

impl WalSink for MemorySink {
    fn append(&mut self, frame: &[u8]) -> Result<()> {
        self.bytes.extend_from_slice(frame);
        Ok(())
    }
    fn flush(&mut self) -> Result<()> {
        self.flushes += 1;
        Ok(())
    }
    fn sync(&mut self) -> Result<()> {
        self.flushes += 1;
        self.syncs += 1;
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

    /// Reads all valid records back from a log file. A torn or corrupt tail
    /// is silently dropped (the truncation rule); only real I/O failures
    /// (missing file, permission) error.
    pub fn read_all(path: impl AsRef<Path>) -> Result<Vec<LogRecord>> {
        let bytes = std::fs::read(path.as_ref())?;
        Ok(scan_frames(&bytes).into_records())
    }

    /// Recovery open: scans the file, **physically truncates** it at the
    /// first torn/corrupt frame so later appends continue from a clean tail,
    /// and returns the valid records plus the next LSN to append with.
    pub fn recover(path: impl AsRef<Path>) -> Result<RecoveredLog> {
        let path = path.as_ref();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let scan = scan_frames(&bytes);
        if scan.valid_len < bytes.len() as u64 {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(scan.valid_len)?;
            file.sync_data()?;
        }
        let next_lsn = scan.next_lsn();
        Ok((scan.records, next_lsn, scan.torn))
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
/// into the frame stream before it reaches the inner sink. The read-side
/// fault — a short read — is modelled by [`FaultSink::short_read`], which
/// scans only a prefix of a log file.
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

    /// Scans at most `limit` bytes of a log file — a short read of the tail.
    pub fn short_read(path: impl AsRef<Path>, limit: u64) -> Result<WalScan> {
        let mut bytes = std::fs::read(path.as_ref())?;
        bytes.truncate(limit as usize);
        Ok(scan_frames(&bytes))
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
    /// Like `EveryBatch`, plus an fsync at most once per interval: bounds
    /// power-loss exposure to the interval without paying an fsync per
    /// heartbeat.
    Interval {
        /// Maximum milliseconds between fsyncs.
        ms: u64,
    },
}

/// WAL configuration.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Group-commit durability policy.
    pub sync_policy: SyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            sync_policy: SyncPolicy::EveryBatch,
        }
    }
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
    last_sync: Instant,
}

/// The write-ahead log: wraps a sink and provides batch-granular appends
/// (group commit per heartbeat) under a configurable fsync policy.
pub struct Wal {
    inner: Mutex<WalInner>,
    config: Mutex<WalConfig>,
    stats: WalStats,
}

impl Wal {
    /// Creates a WAL over the given sink with the default config.
    pub fn new(sink: Box<dyn WalSink>) -> Self {
        Wal::with_config(sink, WalConfig::default())
    }

    /// Creates a WAL over the given sink and config.
    pub fn with_config(sink: Box<dyn WalSink>, config: WalConfig) -> Self {
        Wal {
            inner: Mutex::new(WalInner {
                sink,
                next_lsn: 1,
                last_sync: Instant::now(),
            }),
            config: Mutex::new(config),
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

    /// The current configuration.
    pub fn config(&self) -> WalConfig {
        *self.config.lock()
    }

    /// Replaces the sync policy (takes effect from the next group commit).
    pub fn set_sync_policy(&self, policy: SyncPolicy) {
        self.config.lock().sync_policy = policy;
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
    /// each is encoded from there — a [`LogRecord::Apply`] would own a copy
    /// of the table's name and of the operation.
    pub(crate) fn log_ops<'a>(
        &self,
        ts: Timestamp,
        ops: impl Iterator<Item = (&'a str, &'a UpdateOp)>,
    ) -> Result<()> {
        let policy = self.config.lock().sync_policy;
        let mut inner = self.inner.lock();
        let mut bytes = 0u64;
        let mut append = |inner: &mut WalInner, payload: String| -> Result<()> {
            let lsn = inner.next_lsn;
            let frame = frame(lsn, &payload);
            inner.sink.append(&frame)?;
            inner.next_lsn = lsn + 1;
            bytes += frame.len() as u64;
            Ok(())
        };
        append(&mut inner, encode_record(&LogRecord::BeginBatch(ts)))?;
        let mut logged = 0;
        for (table, op) in ops {
            append(&mut inner, encode_apply(table, op))?;
            logged += 1;
        }
        append(&mut inner, encode_record(&LogRecord::CommitBatch(ts)))?;
        inner.sink.flush()?;
        let need_sync = match policy {
            SyncPolicy::Always => true,
            SyncPolicy::EveryBatch => false,
            SyncPolicy::Interval { ms } => {
                inner.last_sync.elapsed() >= std::time::Duration::from_millis(ms)
            }
        };
        if need_sync {
            let started = Instant::now();
            inner.sink.sync()?;
            inner.last_sync = Instant::now();
            self.stats.fsync_us.record(started.elapsed());
            self.stats.syncs.inc();
        }
        self.stats.appended_bytes.add(bytes);
        self.stats.group_commit_size.record_us(logged);
        self.stats.batches.inc();
        Ok(())
    }

    /// Forces an fsync of everything appended so far (shutdown, checkpoint).
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let started = Instant::now();
        inner.sink.sync()?;
        inner.last_sync = Instant::now();
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

/// Extracts the committed operations of a record stream, dropping batches
/// without a commit marker (torn writes at the tail of the log) and
/// checkpoint metadata records.
pub fn committed_ops(records: &[LogRecord]) -> Vec<(Timestamp, Vec<(String, UpdateOp)>)> {
    let mut out = Vec::new();
    let mut current: Option<(Timestamp, Vec<(String, UpdateOp)>)> = None;
    for record in records {
        match record {
            LogRecord::BeginBatch(ts) => current = Some((*ts, Vec::new())),
            LogRecord::Apply { table, op } => {
                if let Some((_, ops)) = current.as_mut() {
                    ops.push((table.clone(), op.clone()));
                }
            }
            LogRecord::CommitBatch(ts) => {
                if let Some((begin_ts, ops)) = current.take() {
                    if begin_ts == *ts {
                        out.push((begin_ts, ops));
                    }
                }
            }
            LogRecord::CheckpointMeta { .. } => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Textual payload encoding
// ---------------------------------------------------------------------------

fn encode_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push('N'),
        Value::Int(i) => {
            let _ = write!(out, "I{i}");
        }
        Value::Float(f) => {
            let _ = write!(out, "F{}", f.to_bits());
        }
        Value::Bool(b) => {
            let _ = write!(out, "B{}", if *b { 1 } else { 0 });
        }
        Value::Date(d) => {
            let _ = write!(out, "D{d}");
        }
        Value::Text(s) => {
            // Length-prefixed to avoid any escaping concerns.
            let _ = write!(out, "T{}:{s}", s.len());
        }
    }
}

fn decode_value(s: &str) -> Result<(Value, &str)> {
    let bad = || Error::Recovery(format!("malformed value encoding: {s}"));
    let mut chars = s.char_indices();
    let (_, tag) = chars.next().ok_or_else(bad)?;
    let rest = &s[1..];
    match tag {
        'N' => Ok((Value::Null, rest)),
        'I' | 'D' | 'B' | 'F' => {
            let end = rest.find([',', ')', ';', ' ']).unwrap_or(rest.len());
            let (num, remainder) = rest.split_at(end);
            let v = match tag {
                'I' => Value::Int(num.parse().map_err(|_| bad())?),
                'D' => Value::Date(num.parse().map_err(|_| bad())?),
                'B' => Value::Bool(num == "1"),
                'F' => Value::Float(f64::from_bits(num.parse().map_err(|_| bad())?)),
                _ => unreachable!(),
            };
            Ok((v, remainder))
        }
        'T' => {
            let colon = rest.find(':').ok_or_else(bad)?;
            let len: usize = rest[..colon].parse().map_err(|_| bad())?;
            let start = colon + 1;
            if rest.len() < start + len || !rest.is_char_boundary(start + len) {
                return Err(bad());
            }
            let text = &rest[start..start + len];
            Ok((Value::text(text), &rest[start + len..]))
        }
        _ => Err(bad()),
    }
}

fn encode_tuple(t: &Tuple, out: &mut String) {
    out.push('(');
    for (i, v) in t.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_value(v, out);
    }
    out.push(')');
}

fn decode_tuple(s: &str) -> Result<(Tuple, &str)> {
    let bad = || Error::Recovery(format!("malformed tuple encoding: {s}"));
    let mut rest = s.strip_prefix('(').ok_or_else(bad)?;
    let mut values = Vec::new();
    loop {
        if let Some(r) = rest.strip_prefix(')') {
            return Ok((Tuple::new(values), r));
        }
        if !values.is_empty() {
            rest = rest.strip_prefix(',').ok_or_else(bad)?;
        }
        let (v, r) = decode_value(rest)?;
        values.push(v);
        rest = r;
    }
}

// --- expression codec: prefix form, every node self-delimiting -------------

fn binary_op_tag(op: BinaryOp) -> &'static str {
    match op {
        BinaryOp::Eq => "EQ",
        BinaryOp::NotEq => "NE",
        BinaryOp::Lt => "LT",
        BinaryOp::LtEq => "LE",
        BinaryOp::Gt => "GT",
        BinaryOp::GtEq => "GE",
        BinaryOp::And => "AND",
        BinaryOp::Or => "OR",
        BinaryOp::Add => "ADD",
        BinaryOp::Sub => "SUB",
        BinaryOp::Mul => "MUL",
        BinaryOp::Div => "DIV",
    }
}

fn binary_op_from_tag(tag: &str) -> Option<BinaryOp> {
    Some(match tag {
        "EQ" => BinaryOp::Eq,
        "NE" => BinaryOp::NotEq,
        "LT" => BinaryOp::Lt,
        "LE" => BinaryOp::LtEq,
        "GT" => BinaryOp::Gt,
        "GE" => BinaryOp::GtEq,
        "AND" => BinaryOp::And,
        "OR" => BinaryOp::Or,
        "ADD" => BinaryOp::Add,
        "SUB" => BinaryOp::Sub,
        "MUL" => BinaryOp::Mul,
        "DIV" => BinaryOp::Div,
        _ => return None,
    })
}

fn unary_op_tag(op: UnaryOp) -> &'static str {
    match op {
        UnaryOp::Not => "NOT",
        UnaryOp::Neg => "NEG",
        UnaryOp::IsNull => "ISN",
        UnaryOp::IsNotNull => "INN",
    }
}

fn unary_op_from_tag(tag: &str) -> Option<UnaryOp> {
    Some(match tag {
        "NOT" => UnaryOp::Not,
        "NEG" => UnaryOp::Neg,
        "ISN" => UnaryOp::IsNull,
        "INN" => UnaryOp::IsNotNull,
        _ => return None,
    })
}

/// Encodes a (bound) expression in a self-delimiting prefix form; see
/// `docs/WAL_FORMAT.md` for the grammar. Inverse of [`decode_expr`].
fn encode_expr(expr: &Expr, out: &mut String) {
    match expr {
        Expr::Column(i) => {
            let _ = write!(out, "C{i};");
        }
        Expr::NamedColumn { qualifier, name } => {
            out.push('M');
            match qualifier {
                Some(q) => {
                    let _ = write!(out, "T{}:{q}", q.len());
                }
                None => out.push('N'),
            }
            let _ = write!(out, ";T{}:{name};", name.len());
        }
        Expr::Literal(v) => {
            out.push('V');
            encode_value(v, out);
            out.push(';');
        }
        Expr::Param(i) => {
            let _ = write!(out, "P{i};");
        }
        Expr::Binary { op, left, right } => {
            let _ = write!(out, "B{};", binary_op_tag(*op));
            encode_expr(left, out);
            encode_expr(right, out);
        }
        Expr::Unary { op, expr } => {
            let _ = write!(out, "U{};", unary_op_tag(*op));
            encode_expr(expr, out);
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let _ = write!(out, "K{};", if *negated { 1 } else { 0 });
            encode_expr(expr, out);
            encode_expr(pattern, out);
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let _ = write!(out, "I{},{};", if *negated { 1 } else { 0 }, list.len());
            encode_expr(expr, out);
            for item in list {
                encode_expr(item, out);
            }
        }
        Expr::Between { expr, low, high } => {
            out.push_str("W;");
            encode_expr(expr, out);
            encode_expr(low, out);
            encode_expr(high, out);
        }
    }
}

/// Decodes one expression from the head of `s`, returning the remainder.
fn decode_expr(s: &str) -> Result<(Expr, &str)> {
    let bad = || Error::Recovery(format!("malformed expr encoding: {s}"));
    let tag = s.chars().next().ok_or_else(bad)?;
    let rest = &s[1..];
    // Splits `rest` at the next ';', yielding the head token and the number
    // of bytes consumed including the separator.
    let split_head = |rest: &str| -> Result<(String, usize)> {
        let semi = rest.find(';').ok_or_else(bad)?;
        Ok((rest[..semi].to_string(), semi + 1))
    };
    match tag {
        'C' => {
            let (tok, used) = split_head(rest)?;
            Ok((Expr::Column(tok.parse().map_err(|_| bad())?), &rest[used..]))
        }
        'P' => {
            let (tok, used) = split_head(rest)?;
            Ok((Expr::Param(tok.parse().map_err(|_| bad())?), &rest[used..]))
        }
        'V' => {
            let (v, r) = decode_value(rest)?;
            let r = r.strip_prefix(';').ok_or_else(bad)?;
            Ok((Expr::Literal(v), r))
        }
        'M' => {
            let (qualifier, r) = match rest.chars().next() {
                Some('N') => (None, &rest[1..]),
                Some('T') => {
                    let (v, r) = decode_value(rest)?;
                    match v {
                        Value::Text(q) => (Some(q.to_string()), r),
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(bad()),
            };
            let r = r.strip_prefix(';').ok_or_else(bad)?;
            let (v, r) = decode_value(r)?;
            let name = match v {
                Value::Text(n) => n.to_string(),
                _ => return Err(bad()),
            };
            let r = r.strip_prefix(';').ok_or_else(bad)?;
            Ok((Expr::NamedColumn { qualifier, name }, r))
        }
        'B' => {
            let (tok, used) = split_head(rest)?;
            let op = binary_op_from_tag(&tok).ok_or_else(bad)?;
            let (left, r) = decode_expr(&rest[used..])?;
            let (right, r) = decode_expr(r)?;
            Ok((
                Expr::Binary {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                },
                r,
            ))
        }
        'U' => {
            let (tok, used) = split_head(rest)?;
            let op = unary_op_from_tag(&tok).ok_or_else(bad)?;
            let (expr, r) = decode_expr(&rest[used..])?;
            Ok((
                Expr::Unary {
                    op,
                    expr: Box::new(expr),
                },
                r,
            ))
        }
        'K' => {
            let (tok, used) = split_head(rest)?;
            let negated = tok == "1";
            let (expr, r) = decode_expr(&rest[used..])?;
            let (pattern, r) = decode_expr(r)?;
            Ok((
                Expr::Like {
                    expr: Box::new(expr),
                    pattern: Box::new(pattern),
                    negated,
                },
                r,
            ))
        }
        'I' => {
            let (tok, used) = split_head(rest)?;
            let (neg, count) = tok.split_once(',').ok_or_else(bad)?;
            let negated = neg == "1";
            let count: usize = count.parse().map_err(|_| bad())?;
            let (expr, mut r) = decode_expr(&rest[used..])?;
            let mut list = Vec::with_capacity(count);
            for _ in 0..count {
                let (item, r2) = decode_expr(r)?;
                list.push(item);
                r = r2;
            }
            Ok((
                Expr::InList {
                    expr: Box::new(expr),
                    list,
                    negated,
                },
                r,
            ))
        }
        'W' => {
            let r = rest.strip_prefix(';').ok_or_else(bad)?;
            let (expr, r) = decode_expr(r)?;
            let (low, r) = decode_expr(r)?;
            let (high, r) = decode_expr(r)?;
            Ok((
                Expr::Between {
                    expr: Box::new(expr),
                    low: Box::new(low),
                    high: Box::new(high),
                },
                r,
            ))
        }
        _ => Err(bad()),
    }
}

/// Encodes one record's payload text. Inverse of [`decode_record`].
pub fn encode_record(record: &LogRecord) -> String {
    match record {
        LogRecord::BeginBatch(ts) => format!("BEGIN {}", ts.0),
        LogRecord::CommitBatch(ts) => format!("COMMIT {}", ts.0),
        LogRecord::CheckpointMeta { ts, wal_lsn } => format!("CKPT {} {}", ts.0, wal_lsn),
        LogRecord::Apply { table, op } => encode_apply(table, op),
    }
}

/// The payload text of a [`LogRecord::Apply`], from the operation where it
/// lies.
fn encode_apply(table: &str, op: &UpdateOp) -> String {
    let mut out = String::new();
    match op {
        UpdateOp::Insert { values } => {
            let _ = write!(out, "INSERT {table} ");
            encode_tuple(values, &mut out);
        }
        UpdateOp::Update {
            assignments,
            predicate,
        } => {
            let _ = write!(out, "UPDATE {table} {};", assignments.len());
            for (col, expr) in assignments {
                let _ = write!(out, "{col};");
                encode_expr(expr, &mut out);
            }
            encode_expr(predicate, &mut out);
        }
        UpdateOp::Delete { predicate } => {
            let _ = write!(out, "DELETE {table} ");
            encode_expr(predicate, &mut out);
        }
    }
    out
}

/// Decodes one record payload.
pub fn decode_record(line: &str) -> Result<LogRecord> {
    let bad = || Error::Recovery(format!("malformed log record: {line}"));
    if let Some(ts) = line.strip_prefix("BEGIN ") {
        return Ok(LogRecord::BeginBatch(Timestamp(
            ts.trim().parse().map_err(|_| bad())?,
        )));
    }
    if let Some(ts) = line.strip_prefix("COMMIT ") {
        return Ok(LogRecord::CommitBatch(Timestamp(
            ts.trim().parse().map_err(|_| bad())?,
        )));
    }
    if let Some(rest) = line.strip_prefix("CKPT ") {
        let (ts, lsn) = rest.split_once(' ').ok_or_else(bad)?;
        return Ok(LogRecord::CheckpointMeta {
            ts: Timestamp(ts.parse().map_err(|_| bad())?),
            wal_lsn: lsn.trim().parse().map_err(|_| bad())?,
        });
    }
    if let Some(rest) = line.strip_prefix("INSERT ") {
        let (table, tuple_text) = rest.split_once(' ').ok_or_else(bad)?;
        let (values, trailing) = decode_tuple(tuple_text)?;
        if !trailing.is_empty() {
            return Err(bad());
        }
        return Ok(LogRecord::Apply {
            table: table.to_string(),
            op: UpdateOp::Insert { values },
        });
    }
    if let Some(rest) = line.strip_prefix("UPDATE ") {
        let (table, rest) = rest.split_once(' ').ok_or_else(bad)?;
        let (count, rest) = rest.split_once(';').ok_or_else(bad)?;
        let count: usize = count.parse().map_err(|_| bad())?;
        let mut assignments = Vec::with_capacity(count);
        let mut rest = rest;
        for _ in 0..count {
            let (col, r) = rest.split_once(';').ok_or_else(bad)?;
            let col: usize = col.parse().map_err(|_| bad())?;
            let (expr, r) = decode_expr(r)?;
            assignments.push((col, expr));
            rest = r;
        }
        let (predicate, trailing) = decode_expr(rest)?;
        if !trailing.is_empty() {
            return Err(bad());
        }
        return Ok(LogRecord::Apply {
            table: table.to_string(),
            op: UpdateOp::Update {
                assignments,
                predicate,
            },
        });
    }
    if let Some(rest) = line.strip_prefix("DELETE ") {
        let (table, rest) = rest.split_once(' ').ok_or_else(bad)?;
        let (predicate, trailing) = decode_expr(rest)?;
        if !trailing.is_empty() {
            return Err(bad());
        }
        return Ok(LogRecord::Apply {
            table: table.to_string(),
            op: UpdateOp::Delete { predicate },
        });
    }
    Err(bad())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::tuple;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("shareddb-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
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
            if lsn % 10 == 0 {
                counting.flush().unwrap();
                memory.flush().unwrap();
            }
        }
        counting.sync().unwrap();
        memory.sync().unwrap();
        assert_eq!(counting.appended_bytes(), memory.bytes().len() as u64);
        assert_eq!(counting.flush_count(), memory.flush_count());
        assert_eq!(counting.sync_count(), memory.sync_count());
        assert_eq!(
            (counting.retained_bytes(), memory.retained_bytes()),
            (0, memory.bytes().len())
        );
    }

    #[test]
    fn sync_policy_always_fsyncs_per_batch() {
        let wal = Wal::with_config(
            Box::new(MemorySink::new()),
            WalConfig {
                sync_policy: SyncPolicy::Always,
            },
        );
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
    fn value_encoding_roundtrip() {
        for v in [
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Bool(true),
            Value::Date(15000),
            Value::text("hello, world"),
            Value::text("with)paren,and:colon; and space"),
            Value::text(""),
        ] {
            let mut s = String::new();
            encode_value(&v, &mut s);
            let (decoded, rest) = decode_value(&s).unwrap();
            assert!(rest.is_empty());
            // NaN != NaN under PartialEq for floats, compare via total order.
            assert_eq!(decoded.cmp(&v), std::cmp::Ordering::Equal);
        }
    }

    #[test]
    fn tuple_encoding_roundtrip() {
        let t = tuple![1i64, "a,b)c", 2.5f64, Value::Null];
        let mut s = String::new();
        encode_tuple(&t, &mut s);
        let (decoded, rest) = decode_tuple(&s).unwrap();
        assert!(rest.is_empty());
        assert_eq!(decoded, t);
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
            let mut s = String::new();
            encode_expr(&e, &mut s);
            let (decoded, rest) = decode_expr(&s).unwrap_or_else(|err| panic!("{s}: {err}"));
            assert!(rest.is_empty(), "{s} left {rest}");
            assert_eq!(decoded, e, "{s}");
        }
    }

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
            let encoded = encode_record(&rec);
            let decoded = decode_record(&encoded).unwrap_or_else(|e| panic!("{encoded}: {e}"));
            assert_eq!(decoded, rec, "{encoded}");
        }
        assert!(decode_record("GARBAGE").is_err());
        assert!(decode_record("INSERT T (I1) tail").is_err());
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
        let scan = scan_frames(&bytes);
        assert!(scan.torn.is_none());
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[1], (2, rec));
        assert_eq!(scan.next_lsn(), 4);
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
        let scan = scan_frames(torn);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, first as u64);
        let tail = scan.torn.unwrap();
        assert_eq!(tail.offset, first as u64);
        assert!(tail.reason.contains("torn"), "{}", tail.reason);

        // Bit flip in the second frame's payload: CRC catches it.
        let mut flipped = bytes.clone();
        let n = flipped.len();
        flipped[n - 3] ^= 0x40;
        let scan = scan_frames(&flipped);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.torn.unwrap().reason, "CRC mismatch");

        // Bit flip in the length field: implausible length or CRC, never a
        // panic or huge allocation.
        let mut flipped = bytes.clone();
        flipped[first + 8] ^= 0xFF; // high byte of the payload length
        let scan = scan_frames(&flipped);
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn.is_some());

        // Garbage magic after a valid prefix.
        let mut garbage = bytes[..first].to_vec();
        garbage.extend_from_slice(b"not a frame at all........");
        let scan = scan_frames(&garbage);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.torn.unwrap().reason, "bad frame magic");
    }

    #[test]
    fn scan_rejects_non_monotone_lsn() {
        let mut bytes = encode_frame(5, &LogRecord::BeginBatch(Timestamp(1)));
        bytes.extend(encode_frame(5, &LogRecord::CommitBatch(Timestamp(1))));
        let scan = scan_frames(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.torn.unwrap().reason, "non-monotone LSN");
    }

    #[test]
    fn file_sink_roundtrip_and_recover() {
        let path = temp_path("roundtrip.wal");
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
        let records = FileSink::read_all(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], LogRecord::BeginBatch(Timestamp(1)));
        let (records, next_lsn, torn) = FileSink::recover(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(next_lsn, 4);
        assert!(torn.is_none());
        // Recovering a missing file is an empty log, not an error.
        let (records, next_lsn, torn) = FileSink::recover(temp_path("missing.wal")).unwrap();
        assert!(records.is_empty());
        assert_eq!(next_lsn, 1);
        assert!(torn.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recover_truncates_torn_file_for_clean_appends() {
        let path = temp_path("torn-append.wal");
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
        let (records, next_lsn, torn) = FileSink::recover(&path).unwrap();
        assert_eq!(records.len(), 2); // BEGIN + INSERT survive, COMMIT torn
        assert!(torn.is_some());
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
        let records = FileSink::read_all(&path).unwrap();
        // Torn batch 1 has no COMMIT; batch 2 is complete.
        let committed = committed_ops(&records);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, Timestamp(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fault_sink_partial_write_and_bit_flip() {
        // Partial write: the tail past the cut never reaches the file.
        let path = temp_path("fault-partial.wal");
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
        let scan = scan_frames(&std::fs::read(&path).unwrap());
        assert!(scan.torn.is_some());
        assert!(scan.records.len() < 4);

        // Bit flip: CRC detects, scan cuts at the flipped frame.
        let path2 = temp_path("fault-flip.wal");
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
        let scan = scan_frames(&std::fs::read(&path2).unwrap());
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.torn.unwrap().reason, "CRC mismatch");

        // Short read: only a prefix of the file is visible.
        let scan = FaultSink::short_read(&path2, 10).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.torn.is_some());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
    }

    #[test]
    fn committed_ops_drops_torn_tail() {
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
        let committed = committed_ops(&records);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, Timestamp(1));
        assert_eq!(committed[0].1.len(), 1);
    }
}
