//! # shareddb-storage
//!
//! The storage substrate of SharedDB, modelled on the **Crescando** storage
//! manager the paper builds on (Section 4.4):
//!
//! * Main-memory, multi-versioned tables with snapshot-consistent reads
//!   ([`table`], [`mvcc`]), their version arena summarised chunk by chunk
//!   in a directory of per-column value ranges.
//! * **ClockScan** shared table scans ([`clockscan`]): the queries of a batch
//!   are executed within a single pass over the data; query predicates are
//!   indexed (a query-data join) instead of the data, and the pass leaves out
//!   the chunks no query of its cycle can match.
//! * B-tree indexes — the standard library's ordered map from a key to its
//!   posting list ([`btree`]) — and **shared index probes**
//!   ([`index_probe`]): look-ups of a whole batch of queries are executed in
//!   one cycle, so that all selects of the cycle read a consistent snapshot.
//! * The updates of a batch commit in arrival order under one timestamp
//!   ([`Catalog::apply_batch`]) before its scans and probes run, which read a
//!   snapshot that includes them.
//! * A write-ahead log and checkpointing for durability ([`wal`]).
//! * A catalog of tables and indexes ([`catalog`]).
//!
//! The scan and probe operators produce tuples in the *data-query model*
//! (tuples annotated with the set of interested queries) which is the format
//! consumed by the shared operators in `shareddb-core`.

pub mod btree;
pub mod catalog;
pub mod clockscan;
pub mod index_probe;
mod keymap;
pub mod mvcc;
pub mod predicate_index;
pub mod table;
pub mod update;
pub mod wal;

pub use btree::BTreeIndex;
pub use catalog::{
    Catalog, CheckpointInfo, IndexDef, RecoveryReport, TableDef, CHECKPOINT_FILE, WAL_FILE,
};
pub use clockscan::{ClockScan, ScanCycleResult, ScanQuery};
pub use index_probe::{IndexProbe, ProbeQuery};
pub use mvcc::{Snapshot, SnapshotPin, TimestampOracle};
pub use predicate_index::PredicateClass;
pub use table::{
    Chunk, ChunkZones, EqLookup, IndexKind, RowId, StoredRow, Table, Zone, CHUNK_ROWS,
};
pub use update::{AccessPath, UpdateOp, UpdateResult};
pub use wal::{
    scan_frames, CountingSink, FaultConfig, FaultSink, FileSink, LogRecord, MemorySink, SyncPolicy,
    TornTail, Wal, WalScan, WalSink, WalStatsSnapshot, FRAME_HEADER_LEN, FRAME_MAGIC,
    MAX_EXPR_DEPTH, WAL_FORMAT_VERSION,
};
