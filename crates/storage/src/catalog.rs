//! The table catalog: table and index definitions, bulk loading, durability.
//!
//! The catalog is the shared entry point of the storage layer: the SharedDB
//! engine, the query-at-a-time baselines and the benchmark drivers all operate
//! on the same [`Catalog`] so that performance comparisons run against the
//! identical data structures.

use crate::mvcc::{Snapshot, SnapshotPin, TimestampOracle};
use crate::table::{IndexKind, Table};
use crate::update::{apply_update, UpdateOp, UpdateResult};
use crate::wal::{
    committed_batches, put_frame, put_insert, put_record, scan_frames, FileSink, LogRecord,
    TornTail, Wal,
};
use shareddb_common::ids::Timestamp;
use shareddb_common::sync::RwLock;
use shareddb_common::{Column, DataType, Error, Result, Schema, Tuple};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the write-ahead log inside a data directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the current checkpoint inside a data directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.sdb";
/// Scratch name a checkpoint is written under before the atomic rename.
pub const CHECKPOINT_TMP_FILE: &str = "checkpoint.tmp";
/// Bytes of frames [`Catalog::checkpoint`] gathers before one `write`.
const CHECKPOINT_BLOCK: usize = 1 << 20;

/// Definition of a table to create.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name (upper-cased on creation).
    pub name: String,
    /// Columns.
    pub columns: Vec<Column>,
    /// Primary-key column names.
    pub primary_key: Vec<String>,
}

impl TableDef {
    /// Starts a builder-style definition.
    pub fn new(name: impl Into<String>) -> Self {
        TableDef {
            name: name.into().to_ascii_uppercase(),
            columns: Vec::new(),
            primary_key: Vec::new(),
        }
    }

    /// Adds a non-nullable column.
    pub fn column(mut self, name: &str, data_type: DataType) -> Self {
        self.columns
            .push(Column::new(name, data_type).with_qualifier(self.name.clone()));
        self
    }

    /// Adds a nullable column.
    pub fn nullable_column(mut self, name: &str, data_type: DataType) -> Self {
        self.columns
            .push(Column::nullable(name, data_type).with_qualifier(self.name.clone()));
        self
    }

    /// Declares the primary key.
    pub fn primary_key(mut self, columns: &[&str]) -> Self {
        self.primary_key = columns.iter().map(|c| c.to_ascii_uppercase()).collect();
        self
    }
}

/// Definition of a secondary index.
#[derive(Debug, Clone)]
pub struct IndexDef {
    /// Index name.
    pub name: String,
    /// Table the index belongs to.
    pub table: String,
    /// Indexed column name.
    pub column: String,
    /// What the index files a version under.
    pub kind: IndexKind,
}

/// The catalog of all tables, plus the shared timestamp oracle and WAL.
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<RwLock<Table>>>>,
    oracle: Arc<TimestampOracle>,
    wal: Arc<Wal>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// Creates an empty catalog whose WAL counts what is logged and keeps
    /// none of it, until [`Catalog::recover`] puts a file behind it.
    pub fn new() -> Self {
        Self::with_wal(Wal::counting())
    }

    /// Creates a catalog that logs to the given WAL.
    pub fn with_wal(wal: Wal) -> Self {
        Catalog {
            tables: RwLock::new(HashMap::new()),
            oracle: Arc::new(TimestampOracle::new()),
            wal: Arc::new(wal),
        }
    }

    /// The shared timestamp oracle.
    pub fn oracle(&self) -> Arc<TimestampOracle> {
        Arc::clone(&self.oracle)
    }

    /// The latest committed state, unpinned: for a reader that reads before
    /// anyone writes again (a catalog nobody writes, a test between its
    /// writes). A commit reclaims what only unpinned readers see; a reader
    /// that a writer may overtake takes [`Catalog::pin`].
    pub fn snapshot(&self) -> Snapshot {
        self.oracle.read_ts()
    }

    /// Pins the latest committed state: a read at it sees the version set
    /// committed when it was taken, whatever commits meanwhile, until the pin
    /// and its clones are dropped — across the threads and engines sharing
    /// this catalog (a batch of `shareddb-core` reads under one).
    pub fn pin(&self) -> SnapshotPin {
        self.oracle.pin()
    }

    /// The write-ahead log.
    pub fn wal(&self) -> Arc<Wal> {
        Arc::clone(&self.wal)
    }

    /// Creates a table.
    pub fn create_table(&self, def: TableDef) -> Result<Arc<RwLock<Table>>> {
        let name = def.name.to_ascii_uppercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(Error::ConstraintViolation(format!(
                "table {name} already exists"
            )));
        }
        let schema = Schema::new(def.columns.clone());
        let mut pk = Vec::new();
        for key_col in &def.primary_key {
            pk.push(schema.resolve(None, key_col).map_err(|_| {
                Error::UnknownColumn(format!("primary key column {key_col} of table {name}"))
            })?);
        }
        let table = Arc::new(RwLock::new(Table::new(name.clone(), schema, pk)));
        tables.insert(name, Arc::clone(&table));
        Ok(table)
    }

    /// Creates a secondary index.
    pub fn create_index(&self, def: IndexDef) -> Result<()> {
        let table = self.table(&def.table)?;
        let mut table = table.write();
        let column = table.schema().resolve(None, &def.column)?;
        table.create_index(def.name, column, def.kind)
    }

    /// Returns a handle to a table.
    pub fn table(&self, name: &str) -> Result<Arc<RwLock<Table>>> {
        self.tables
            .read()
            .get(&name.to_ascii_uppercase())
            .cloned()
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Bulk-loads rows into a table with timestamp 0 (visible to every
    /// snapshot); used by data generators and checkpoint restore. One run
    /// under one lock (`Table::load`): the value indexes are filed from
    /// one sort of the run. A row the table refuses ends the load with its
    /// error, the rows before it loaded. Bulk loads are not logged — they
    /// are covered by checkpoints.
    pub fn bulk_load(&self, table: &str, rows: Vec<Tuple>) -> Result<usize> {
        self.table(table)?.write().load(rows, Timestamp(0))
    }

    /// Applies a batch of update operations in arrival order under one
    /// commit timestamp and logs it to the WAL as one group commit.
    ///
    /// Each operation succeeds or fails **alone**: the returned vector holds
    /// one `Result` per operation, a failed one (constraint violation,
    /// unknown table, predicate that does not evaluate) leaves its table
    /// untouched, and only the successful ones are logged — so what a client
    /// was told, what later snapshots see and what recovery replays agree.
    /// The outer `Err` is a failure of the log itself; the commit is
    /// published all the same, as its writes are in the tables already (the
    /// next commit would show them).
    ///
    /// A commit that starts while nothing is pinned writes an update that
    /// leaves its row's key and indexed columns as they were over the
    /// version in place ([`Table::update_rows`]), and no snapshot is pinned
    /// until it is published (`TimestampOracle::begin_commit`). Once it is,
    /// each table it wrote reclaims what no pinned snapshot sees any more
    /// ([`Table::reclaim`]): work bounded by what earlier commits retired.
    pub fn apply_batch(&self, ops: &[(String, UpdateOp)]) -> Result<Vec<Result<UpdateResult>>> {
        self.apply_ops(ops.iter().map(|(table, op)| (table.as_str(), op)))
    }

    /// [`Catalog::apply_batch`] over `(table, operation)` pairs wherever they
    /// lie: nothing is copied on the way to the tables or to the log.
    pub fn apply_ops<'a>(
        &self,
        ops: impl Iterator<Item = (&'a str, &'a UpdateOp)> + Clone,
    ) -> Result<Vec<Result<UpdateResult>>> {
        if ops.clone().next().is_none() {
            return Ok(Vec::new());
        }
        // Unpinned, the commit keeps pinners out until it is published and
        // may overwrite in place; it is published however it ends, a failed
        // log included, as its writes are in the tables already.
        let commit = self.oracle.begin_commit();
        let mut written: Vec<Arc<RwLock<Table>>> = Vec::new();
        let results: Vec<Result<UpdateResult>> = ops
            .clone()
            .map(|(table_name, op)| {
                let handle = self.table(table_name)?;
                let applied = apply_update(&mut handle.write(), op, commit.ts, commit.pinned);
                if !written.iter().any(|t| Arc::ptr_eq(t, &handle)) {
                    written.push(handle);
                }
                applied
            })
            .collect();
        let applied = ops.zip(&results).filter(|(_, result)| result.is_ok());
        let mut applied = applied.map(|(op, _)| op).peekable();
        if applied.peek().is_some() {
            self.wal.log_ops(commit.ts, applied)?;
        }
        let low_water = commit.publish();
        for table in written {
            table.write().reclaim(low_water);
        }
        Ok(results)
    }

    /// Applies one operation as a batch of its own; its failure is the `Err`.
    pub fn apply(&self, table: &str, op: UpdateOp) -> Result<UpdateResult> {
        self.apply_batch(&[(table.to_string(), op)])?.remove(0)
    }

    /// Writes a checkpoint of all live rows into `dir`: a CRC-framed snapshot
    /// file opening with a [`LogRecord::CheckpointMeta`] (the pinned MVCC
    /// snapshot timestamp and the WAL LSN current at checkpoint start),
    /// followed by one `INSERT` record per live row, bracketed by a
    /// begin/commit pair. The frames are encoded into one buffer that goes
    /// to `checkpoint.tmp` a block of 1 MiB at a time; the file is then
    /// fsync'd and atomically renamed to `checkpoint.sdb` — a crash
    /// mid-checkpoint leaves the previous checkpoint intact. A checkpoint
    /// plus the WAL tail (committed batches with `ts > checkpoint.ts`)
    /// suffices to recover.
    ///
    /// Safe under concurrent writers: rows are read at one pinned snapshot
    /// and the WAL is left untouched.
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<CheckpointInfo> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let snapshot = self.pin();
        let wal_lsn = self.wal.next_lsn().saturating_sub(1);
        let tmp = dir.join(CHECKPOINT_TMP_FILE);
        let mut file = File::create(&tmp)?;
        // Room for a block plus the frame that carries it past the mark,
        // so the buffer is not reallocated for any frame up to a block.
        let mut block = Vec::with_capacity(2 * CHECKPOINT_BLOCK);
        let (mut lsn, mut rows) = (0u64, 0usize);
        let mut append = |payload: &dyn Fn(&mut Vec<u8>)| -> Result<()> {
            lsn += 1;
            put_frame(&mut block, lsn, payload);
            if block.len() >= CHECKPOINT_BLOCK {
                file.write_all(&block)?;
                block.clear();
            }
            Ok(())
        };
        let ts = snapshot.ts;
        append(&|buf| put_record(buf, &LogRecord::CheckpointMeta { ts, wal_lsn }))?;
        append(&|buf| put_record(buf, &LogRecord::BeginBatch(ts)))?;
        for name in self.table_names() {
            let handle = self.table(&name)?;
            let table = handle.read();
            for (_, row) in table.scan(*snapshot) {
                append(&|buf| put_insert(buf, &name, row))?;
                rows += 1;
            }
        }
        append(&|buf| put_record(buf, &LogRecord::CommitBatch(ts)))?;
        file.write_all(&block)?;
        file.sync_data()?;
        drop(file);
        let path = dir.join(CHECKPOINT_FILE);
        std::fs::rename(&tmp, &path)?;
        sync_dir(dir);
        Ok(CheckpointInfo {
            rows,
            ts: snapshot.ts,
            wal_lsn,
            path,
        })
    }

    /// Rebuilds table contents from a checkpoint file. Tables and indexes
    /// must already be (re-)created with the same definitions. Unlike the
    /// WAL, a checkpoint is written atomically, so corruption here is an
    /// error, never silently truncated. Rows restore at timestamp 0 (visible
    /// to every snapshot); the returned info carries the checkpoint's
    /// snapshot timestamp for WAL-tail filtering. A checkpoint of another
    /// format version is refused as such.
    pub fn restore_checkpoint(&self, path: impl AsRef<Path>) -> Result<CheckpointInfo> {
        let path = path.as_ref();
        let refuse = |what: &str| Error::Recovery(format!("checkpoint {} {what}", path.display()));
        // The file is read a frame at a time, and nothing is inserted before
        // all of it is read: it must be intact, open with its metadata, hold
        // nothing but inserts and close with its commit marker. Its rows
        // wait in runs of one table each; they are the tables' rows to be,
        // moved in, not copied.
        let (mut meta, mut last_commit, mut others, mut frames) = (None, None, false, 0);
        let mut runs: Vec<(String, Vec<Tuple>)> = Vec::new();
        let scan = scan_frames(BufReader::new(File::open(path)?), |_, record| {
            last_commit = None;
            match record {
                LogRecord::CheckpointMeta { ts, wal_lsn } if frames == 0 => {
                    meta = Some((ts, wal_lsn))
                }
                LogRecord::Apply {
                    table,
                    op: UpdateOp::Insert { values },
                } => match runs.last_mut() {
                    Some((run, rows)) if *run == table => rows.push(values),
                    _ => runs.push((table, vec![values])),
                },
                LogRecord::BeginBatch(_) => {}
                LogRecord::CommitBatch(ts) => last_commit = Some(ts),
                _ => others = true,
            }
            frames += 1;
            Ok(())
        })?;
        if let Some(torn) = scan.torn {
            return Err(Error::Recovery(format!(
                "corrupt checkpoint {} at byte {}: {}",
                path.display(),
                torn.offset,
                torn.reason
            )));
        }
        let Some((ts, wal_lsn)) = meta else {
            return Err(refuse("does not start with checkpoint metadata"));
        };
        if last_commit != Some(ts) {
            return Err(refuse("is missing its commit marker"));
        }
        if others {
            return Err(refuse("contains non-insert records"));
        }
        // One lock per run of rows of one table.
        let mut restored = 0;
        for (table, rows) in runs {
            restored += self.bulk_load(&table, rows)?;
        }
        Ok(CheckpointInfo {
            rows: restored,
            ts,
            wal_lsn,
            path: path.to_path_buf(),
        })
    }

    /// Recovers this catalog from a data directory and attaches durable
    /// logging to it: loads `checkpoint.sdb` (if present), replays the
    /// committed WAL tail (`wal.log`) — truncating the log at the first torn
    /// or corrupt record — restores the timestamp oracle, and installs a
    /// file sink so subsequent [`Catalog::apply_batch`] commits append to
    /// the recovered log. Tables and indexes must already be created with
    /// the same definitions (the schema is code, the data is disk).
    ///
    /// An empty or missing directory recovers to an empty state, so this is
    /// also how a fresh durable catalog is opened. Note that
    /// [`Catalog::bulk_load`] is *not* logged: seed data loaded after the
    /// last checkpoint is covered only once the next checkpoint runs (see
    /// [`Catalog::compact`]).
    pub fn recover(&self, dir: impl AsRef<Path>) -> Result<RecoveryReport> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let (checkpoint_rows, checkpoint_ts) = if ckpt_path.exists() {
            let info = self.restore_checkpoint(&ckpt_path)?;
            (info.rows, info.ts)
        } else {
            (0, Timestamp(0))
        };
        let wal_path = dir.join(WAL_FILE);
        let (mut replayed_batches, mut replayed_ops, mut max_ts) = (0, 0, checkpoint_ts);
        // Each committed batch is applied as its commit marker is read, a run
        // of operations on one table under one lock; nothing reads yet, so
        // no pin keeps an update from overwriting in place.
        let replay = committed_batches(|ts, ops| {
            if ts <= checkpoint_ts {
                return Ok(()); // already inside the checkpoint snapshot
            }
            let mut run = ops.iter().peekable();
            while let Some((name, op)) = run.next() {
                let handle = self.table(name)?;
                let mut table = handle.write();
                apply_update(&mut table, op, ts, false)?;
                while let Some((_, op)) = run.next_if(|(next, _)| next == name) {
                    apply_update(&mut table, op, ts, false)?;
                }
            }
            max_ts = max_ts.max(ts);
            replayed_batches += 1;
            replayed_ops += ops.len();
            Ok(())
        });
        let scan = FileSink::recover(&wal_path, replay)?;
        let (next_lsn, torn_tail) = (scan.last_lsn + 1, scan.torn);
        self.oracle.restore(max_ts);
        // Nothing reads yet: what the replay retired goes before anyone can.
        let low_water = self.oracle.low_water();
        for name in self.table_names() {
            self.table(&name)?.write().reclaim(low_water);
        }
        self.wal
            .install_sink(Box::new(FileSink::create(&wal_path)?), next_lsn);
        Ok(RecoveryReport {
            checkpoint_rows,
            checkpoint_ts,
            replayed_batches,
            replayed_ops,
            torn_tail,
            next_lsn,
        })
    }

    /// Checkpoint + log truncation. **Quiescent callers only** (recovery,
    /// startup, shutdown): a batch that commits between the checkpoint's
    /// snapshot pin and the truncation would be lost. Where writers are
    /// live, use [`Catalog::checkpoint`] — replay filters batches the
    /// checkpoint already covers, so an untruncated log is always safe.
    pub fn compact(&self, dir: impl AsRef<Path>) -> Result<CheckpointInfo> {
        let info = self.checkpoint(&dir)?;
        let wal_path = dir.as_ref().join(WAL_FILE);
        std::fs::File::create(&wal_path)?.sync_data()?; // truncate to empty
        let next_lsn = self.wal.next_lsn(); // LSNs stay monotone across rotation
        self.wal
            .install_sink(Box::new(FileSink::create(&wal_path)?), next_lsn);
        sync_dir(dir.as_ref());
        Ok(info)
    }
}

/// Outcome of [`Catalog::checkpoint`] / [`Catalog::restore_checkpoint`].
#[derive(Debug, Clone)]
pub struct CheckpointInfo {
    /// Live rows written to / restored from the snapshot.
    pub rows: usize,
    /// The pinned snapshot timestamp the rows were read at.
    pub ts: Timestamp,
    /// WAL LSN current when the checkpoint started.
    pub wal_lsn: u64,
    /// Path of the checkpoint file.
    pub path: PathBuf,
}

/// Outcome of [`Catalog::recover`].
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Rows restored from the checkpoint (0 when none existed).
    pub checkpoint_rows: usize,
    /// Snapshot timestamp of the restored checkpoint.
    pub checkpoint_ts: Timestamp,
    /// Committed WAL batches replayed on top of the checkpoint.
    pub replayed_batches: usize,
    /// Operations inside those batches.
    pub replayed_ops: usize,
    /// `Some` when the WAL had a torn/corrupt tail that was truncated.
    pub torn_tail: Option<TornTail>,
    /// Next LSN the attached WAL will append with.
    pub next_lsn: u64,
}

/// Best-effort directory fsync so a rename survives power loss (Linux
/// requires fsyncing the parent directory to persist the new directory
/// entry; other platforms may not support opening directories).
fn sync_dir(dir: &Path) {
    if let Ok(handle) = std::fs::File::open(dir) {
        let _ = handle.sync_all();
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("tables", &self.table_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::AccessPath;
    use crate::wal::MAX_EXPR_DEPTH;
    use proptest::prelude::*;
    use proptest::TestRng;
    use shareddb_common::{tuple, Expr, Value};

    fn item_def() -> TableDef {
        TableDef::new("ITEM")
            .column("I_ID", DataType::Int)
            .column("I_TITLE", DataType::Text)
            .column("I_COST", DataType::Float)
            .primary_key(&["I_ID"])
    }

    #[test]
    fn create_table_and_duplicate_rejected() {
        let catalog = Catalog::new();
        catalog.create_table(item_def()).unwrap();
        assert!(catalog.create_table(item_def()).is_err());
        assert_eq!(catalog.table_names(), vec!["ITEM".to_string()]);
        assert!(catalog.table("item").is_ok());
        assert!(catalog.table("MISSING").is_err());
    }

    #[test]
    fn create_table_with_bad_pk_fails() {
        let catalog = Catalog::new();
        let def = TableDef::new("X")
            .column("A", DataType::Int)
            .primary_key(&["NOPE"]);
        assert!(catalog.create_table(def).is_err());
    }

    #[test]
    fn bulk_load_and_index() {
        let catalog = Catalog::new();
        catalog.create_table(item_def()).unwrap();
        catalog
            .bulk_load(
                "ITEM",
                (0..50i64)
                    .map(|i| tuple![i, format!("t{i}"), i as f64])
                    .collect(),
            )
            .unwrap();
        catalog
            .create_index(IndexDef {
                name: "ITEM_COST".into(),
                table: "ITEM".into(),
                column: "I_COST".into(),
                kind: IndexKind::Values,
            })
            .unwrap();
        let table = catalog.table("ITEM").unwrap();
        let t = table.read();
        assert_eq!(t.live_count(), 50);
        assert!(t.has_index_on(2));
    }

    #[test]
    fn apply_batch_commits_atomically_and_logs() {
        let catalog = Catalog::new();
        catalog.create_table(item_def()).unwrap();
        let before = catalog.oracle().read_ts();
        let results = catalog
            .apply_batch(&[
                (
                    "ITEM".into(),
                    UpdateOp::Insert {
                        values: tuple![1i64, "a", 1.0f64],
                    },
                ),
                (
                    "ITEM".into(),
                    UpdateOp::Insert {
                        values: tuple![2i64, "b", 2.0f64],
                    },
                ),
                (
                    "ITEM".into(),
                    UpdateOp::Update {
                        assignments: vec![(2, Expr::lit(9.0f64))],
                        predicate: Expr::col(0).eq(Expr::lit(1i64)),
                    },
                ),
            ])
            .unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[2].as_ref().unwrap().rows_affected, 1);
        let table = catalog.table("ITEM").unwrap();
        // Nothing visible at the pre-batch snapshot; everything after.
        assert_eq!(table.read().scan(before).count(), 0);
        assert_eq!(table.read().scan(catalog.oracle().read_ts()).count(), 2);
    }

    /// One bad write fails alone: its batch-mates commit, become visible with
    /// the batch's own timestamp, are the only ops in the WAL, and nothing of
    /// the failed op surfaces later or after a restart. Bad includes what the
    /// log could not replay: an assignment to a column the table lacks, a
    /// predicate nested one level past the log's bound (one at the bound is
    /// logged and replayed).
    #[test]
    fn failed_op_neither_poisons_nor_leaks() {
        let dir = temp_data_dir("poison");
        let catalog = Catalog::new();
        catalog.create_table(item_def()).unwrap();
        catalog.recover(&dir).unwrap();
        let insert = |id: i64, title: &str| {
            let values = tuple![id, title, 1.0f64];
            ("ITEM".to_string(), UpdateOp::Insert { values })
        };
        // `I_ID = -1` under an even number of NOTs: `depth` nodes deep,
        // matching no row.
        let delete_nested = |depth: usize| {
            let no_row = Expr::col(0).eq(Expr::lit(-1i64));
            let predicate = (2..depth).fold(no_row, |e, _| e.not());
            ("ITEM".to_string(), UpdateOp::Delete { predicate })
        };
        let set_column_9 = UpdateOp::Update {
            assignments: vec![(9, Expr::lit(0i64))],
            predicate: Expr::lit(true),
        };
        let results = catalog
            .apply_batch(&[
                insert(1, "first"),
                insert(1, "duplicate"),
                ("NOPE".into(), insert(5, "x").1),
                (
                    "ITEM".into(),
                    UpdateOp::Delete {
                        predicate: Expr::col(1).like(Expr::col(0)),
                    },
                ),
                ("ITEM".into(), set_column_9),
                delete_nested(MAX_EXPR_DEPTH + 1),
                delete_nested(MAX_EXPR_DEPTH),
                insert(2, "second"),
            ])
            .unwrap();
        let ok: Vec<bool> = results.iter().map(Result::is_ok).collect();
        assert_eq!(ok, [true, false, false, false, false, false, true, true]);
        assert!(matches!(results[1], Err(Error::ConstraintViolation(_))));
        assert!(matches!(results[2], Err(Error::UnknownTable(_))));
        assert!(matches!(results[4], Err(Error::InvalidParameter(_))));
        assert!(matches!(results[5], Err(Error::Unsupported(_))));
        let visible = |c: &Catalog| {
            let table = c.table("ITEM").unwrap();
            let t = table.read();
            let mut titles: Vec<String> = t
                .scan(c.snapshot())
                .map(|(_, r)| r[1].as_text().unwrap().to_string())
                .collect();
            titles.sort();
            (titles, t.version_count())
        };
        let expected = (vec!["first".to_string(), "second".to_string()], 2);
        assert_eq!(visible(&catalog), expected);
        // A later batch publishes a later timestamp: still nothing leaks.
        catalog.apply_batch(&[insert(1, "again")]).unwrap()[0]
            .as_ref()
            .unwrap_err();
        assert_eq!(visible(&catalog), expected);
        // A batch in which nothing succeeds logs nothing.
        let lsn = catalog.wal().next_lsn();
        assert!(catalog.apply_batch(&[insert(2, "dup")]).unwrap()[0].is_err());
        assert_eq!(catalog.wal().next_lsn(), lsn);

        let reborn = Catalog::new();
        reborn.create_table(item_def()).unwrap();
        let report = reborn.recover(&dir).unwrap();
        assert_eq!(report.replayed_ops, 3);
        assert_eq!(visible(&reborn), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn temp_data_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "shareddb-catalog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_and_restore_roundtrip() {
        let dir = temp_data_dir("roundtrip");

        let catalog = Catalog::new();
        catalog.create_table(item_def()).unwrap();
        catalog
            .bulk_load(
                "ITEM",
                (0..20i64)
                    .map(|i| tuple![i, format!("t{i}"), i as f64])
                    .collect(),
            )
            .unwrap();
        // Delete some rows so the checkpoint reflects the live state only.
        catalog
            .apply_batch(&[(
                "ITEM".into(),
                UpdateOp::Delete {
                    predicate: Expr::col(0).lt(Expr::lit(5i64)),
                },
            )])
            .unwrap();
        let info = catalog.checkpoint(&dir).unwrap();
        assert_eq!(info.rows, 15);
        assert_eq!(info.path, dir.join(CHECKPOINT_FILE));
        assert!(!dir.join(CHECKPOINT_TMP_FILE).exists());

        let recovered = Catalog::new();
        recovered.create_table(item_def()).unwrap();
        let restored = recovered.restore_checkpoint(info.path).unwrap();
        assert_eq!(restored.rows, 15);
        assert_eq!(restored.ts, info.ts);
        let table = recovered.table("ITEM").unwrap();
        assert_eq!(table.read().live_count(), 15);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_replays_wal_tail_after_checkpoint() {
        let dir = temp_data_dir("replay");

        // First life: durable catalog, some committed batches, a checkpoint,
        // then more batches that only live in the WAL.
        let catalog = Catalog::new();
        catalog.create_table(item_def()).unwrap();
        catalog.recover(&dir).unwrap(); // attach file WAL to empty dir
        catalog
            .apply_batch(&[(
                "ITEM".into(),
                UpdateOp::Insert {
                    values: tuple![1i64, "a", 1.0f64],
                },
            )])
            .unwrap();
        catalog.checkpoint(&dir).unwrap();
        catalog
            .apply_batch(&[
                (
                    "ITEM".into(),
                    UpdateOp::Insert {
                        values: tuple![2i64, "b", 2.0f64],
                    },
                ),
                (
                    "ITEM".into(),
                    UpdateOp::Update {
                        assignments: vec![(2, Expr::lit(9.0f64))],
                        predicate: Expr::col(0).eq(Expr::lit(1i64)),
                    },
                ),
            ])
            .unwrap();
        let next_lsn = catalog.wal().next_lsn();

        // Second life: recover from disk.
        let reborn = Catalog::new();
        reborn.create_table(item_def()).unwrap();
        let report = reborn.recover(&dir).unwrap();
        assert_eq!(report.checkpoint_rows, 1);
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(report.replayed_ops, 2);
        assert!(report.torn_tail.is_none());
        assert_eq!(report.next_lsn, next_lsn);
        let table = reborn.table("ITEM").unwrap();
        {
            let t = table.read();
            let snap = reborn.snapshot();
            let rows: Vec<_> = t.scan(snap).map(|(_, r)| r.clone()).collect();
            assert_eq!(rows.len(), 2);
        }
        // The update replayed: item 1's cost is 9.0.
        let snap = reborn.snapshot();
        let t = table.read();
        let cost: Vec<f64> = t
            .scan(snap)
            .filter(|(_, r)| r[0] == shareddb_common::Value::Int(1))
            .map(|(_, r)| match r[2] {
                shareddb_common::Value::Float(f) => f,
                _ => panic!("expected float"),
            })
            .collect();
        assert_eq!(cost, vec![9.0]);
        drop(t);

        // New commits after recovery order strictly after replayed ones and
        // keep appending to the same log.
        reborn
            .apply_batch(&[(
                "ITEM".into(),
                UpdateOp::Insert {
                    values: tuple![3i64, "c", 3.0f64],
                },
            )])
            .unwrap();
        assert!(reborn.wal().next_lsn() > next_lsn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_truncates_torn_wal_tail() {
        let dir = temp_data_dir("torn");

        let catalog = Catalog::new();
        catalog.create_table(item_def()).unwrap();
        catalog.recover(&dir).unwrap();
        for i in 0..3i64 {
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

        // Tear the last record mid-frame.
        let wal_path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);

        let reborn = Catalog::new();
        reborn.create_table(item_def()).unwrap();
        let report = reborn.recover(&dir).unwrap();
        // The torn COMMIT frame drops the whole third batch (never a partial
        // batch), and the file is physically truncated back to valid frames.
        assert!(report.torn_tail.is_some());
        assert_eq!(report.replayed_batches, 2);
        let table = reborn.table("ITEM").unwrap();
        assert_eq!(table.read().live_count(), 2);
        assert!(std::fs::metadata(&wal_path).unwrap().len() < len - 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_truncates_wal_and_preserves_state() {
        let dir = temp_data_dir("compact");

        let catalog = Catalog::new();
        catalog.create_table(item_def()).unwrap();
        catalog.recover(&dir).unwrap();
        // Bulk loads are unlogged; compact captures them in the checkpoint.
        catalog
            .bulk_load("ITEM", vec![tuple![1i64, "seed", 0.5f64]])
            .unwrap();
        catalog
            .apply_batch(&[(
                "ITEM".into(),
                UpdateOp::Insert {
                    values: tuple![2i64, "live", 2.0f64],
                },
            )])
            .unwrap();
        let lsn_before = catalog.wal().next_lsn();
        let info = catalog.compact(&dir).unwrap();
        assert_eq!(info.rows, 2);
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        // LSNs stay monotone across the rotation.
        assert_eq!(catalog.wal().next_lsn(), lsn_before);

        let reborn = Catalog::new();
        reborn.create_table(item_def()).unwrap();
        let report = reborn.recover(&dir).unwrap();
        assert_eq!(report.checkpoint_rows, 2);
        assert_eq!(report.replayed_batches, 0);
        assert_eq!(reborn.table("ITEM").unwrap().read().live_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_checkpoint_rejects_corruption() {
        let dir = temp_data_dir("badckpt");

        let catalog = Catalog::new();
        catalog.create_table(item_def()).unwrap();
        catalog
            .bulk_load("ITEM", vec![tuple![1i64, "x", 1.0f64]])
            .unwrap();
        let info = catalog.checkpoint(&dir).unwrap();

        // Flip one payload byte: checkpoints fail hard, never truncate.
        let mut bytes = std::fs::read(&info.path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&info.path, &bytes).unwrap();

        let reborn = Catalog::new();
        reborn.create_table(item_def()).unwrap();
        assert!(reborn.restore_checkpoint(&info.path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A catalog without a data directory logs into a sink that counts and
    /// keeps nothing: after 10 000 operations it holds not a byte of log and
    /// reports what a log kept in memory reports of the same operations.
    #[test]
    fn the_default_log_counts_and_keeps_nothing() {
        let (counted, kept) = (Catalog::new(), Catalog::with_wal(Wal::in_memory()));
        for catalog in [&counted, &kept] {
            catalog.create_table(item_def()).unwrap();
            for batch in 0..2_500i64 {
                let ops: Vec<(String, UpdateOp)> = (0..4)
                    .map(|i| {
                        let values = tuple![batch * 4 + i, "title", 1.0f64];
                        ("ITEM".to_string(), UpdateOp::Insert { values })
                    })
                    .collect();
                let applied = catalog.apply_batch(&ops).unwrap();
                assert!(applied.iter().all(Result::is_ok));
            }
            catalog.wal().sync().unwrap();
        }
        let stats = |catalog: &Catalog| {
            let stats = catalog.wal().stats_snapshot();
            let sizes = stats.group_commit_size;
            (
                stats.appended_bytes,
                stats.batches,
                stats.syncs,
                stats.last_lsn,
                sizes.count,
            )
        };
        assert_eq!(stats(&counted), stats(&kept));
        assert_eq!(stats(&counted).1, 2_500);
        let retained = |catalog: &Catalog| catalog.wal().with_sink(|sink| sink.retained_bytes());
        assert_eq!(retained(&counted), 0);
        assert_eq!(retained(&kept) as u64, stats(&kept).0);
    }

    #[test]
    fn empty_batch_is_noop() {
        let catalog = Catalog::new();
        assert!(catalog.apply_batch(&[]).unwrap().is_empty());
    }

    // -- version GC under pinned snapshots ----------------------------------

    /// `T(K key, V, TITLE)`: V indexed by value, TITLE by gram.
    fn gc_catalog() -> Catalog {
        let catalog = Catalog::new();
        let def = TableDef::new("T")
            .column("K", DataType::Int)
            .column("V", DataType::Int)
            .column("TITLE", DataType::Text)
            .primary_key(&["K"]);
        catalog.create_table(def).unwrap();
        for (name, column, kind) in [
            ("T_V", "V", IndexKind::Values),
            ("T_TITLE", "TITLE", IndexKind::Grams),
        ] {
            let (name, table, column) = (name.into(), "T".into(), column.into());
            catalog
                .create_index(IndexDef {
                    name,
                    table,
                    column,
                    kind,
                })
                .unwrap();
        }
        catalog
    }

    /// An update of the row under key `key`.
    fn set(assignments: Vec<(usize, Value)>, key: i64) -> UpdateOp {
        let assignments = assignments
            .into_iter()
            .map(|(c, v)| (c, Expr::Literal(v)))
            .collect();
        let predicate = Expr::col(0).eq(Expr::lit(key));
        UpdateOp::Update {
            assignments,
            predicate,
        }
    }

    /// One write of a GC history, over keys `0..6`.
    #[derive(Debug, Clone, Copy)]
    enum GcWrite {
        Insert(i64, i64),
        /// A new V and TITLE under the key.
        Update(i64, i64),
        /// A new TITLE for every row of one V: through the value index.
        Retitle(i64, i64),
        Delete(i64),
        /// The row under the first key moves to the second.
        Move(i64, i64),
    }

    #[derive(Debug, Clone)]
    enum GcStep {
        /// One to three writes in one commit.
        Commit(Vec<GcWrite>),
        /// A snapshot of the latest commit is pinned.
        Pin,
        /// The pin at this position (modulo those held) is dropped.
        Unpin(usize),
    }

    struct GcHistories;

    impl Strategy for GcHistories {
        type Value = Vec<GcStep>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let pick = |rng: &mut TestRng, n: usize| (0..n).generate(rng);
            let write = |rng: &mut TestRng| {
                let (key, x) = (pick(rng, 6) as i64, pick(rng, 6) as i64);
                match pick(rng, 7) {
                    0 => GcWrite::Insert(key, x),
                    1 | 2 => GcWrite::Update(key, x),
                    3 => GcWrite::Retitle(key % 3, x),
                    4 => GcWrite::Delete(key),
                    _ => GcWrite::Move(key, x),
                }
            };
            let steps = 1 + pick(rng, 40);
            let step = |rng: &mut TestRng| match pick(rng, 6) {
                0 => GcStep::Pin,
                1 => GcStep::Unpin(pick(rng, 8)),
                _ => GcStep::Commit((0..1 + pick(rng, 3)).map(|_| write(rng)).collect()),
            };
            (0..steps).map(|_| step(rng)).collect()
        }
    }

    /// The table as the model holds it: key → (V, TITLE).
    type GcState = std::collections::BTreeMap<i64, (i64, String)>;

    /// Applies one write to the model the way the table applies it — each
    /// alone, a taken key failing the write — and returns the operation.
    fn gc_apply(state: &mut GcState, write: GcWrite, serial: usize) -> UpdateOp {
        let title = |x: i64| format!("TITLE {x} NO {serial}");
        match write {
            GcWrite::Insert(key, x) => {
                state.entry(key).or_insert_with(|| (x % 3, title(x)));
                let values = tuple![key, x % 3, title(x)];
                UpdateOp::Insert { values }
            }
            GcWrite::Update(key, x) => {
                if let Some(row) = state.get_mut(&key) {
                    *row = (x % 3, title(x));
                }
                set(
                    vec![(1, Value::Int(x % 3)), (2, Value::text(title(x)))],
                    key,
                )
            }
            GcWrite::Retitle(v, x) => {
                let rows = state.values_mut().filter(|(value, _)| *value == v);
                rows.for_each(|(_, old)| *old = title(x));
                let assignments = vec![(2, Expr::lit(title(x)))];
                let predicate = Expr::col(1).eq(Expr::lit(v));
                UpdateOp::Update {
                    assignments,
                    predicate,
                }
            }
            GcWrite::Delete(key) => {
                state.remove(&key);
                UpdateOp::Delete {
                    predicate: Expr::col(0).eq(Expr::lit(key)),
                }
            }
            GcWrite::Move(key, to) => {
                if to == key || !state.contains_key(&to) {
                    if let Some(row) = state.remove(&key) {
                        state.insert(to, row);
                    }
                }
                set(vec![(0, Value::Int(to))], key)
            }
        }
    }

    /// What `snapshot` reads of the table, three ways against the model at
    /// it: the pass, the key map for every key, and a fetch through each
    /// index — an equality on V, and two infix `LIKE`s on TITLE through the
    /// grams — each re-checked by its predicate.
    fn gc_check(
        table: &Table,
        snapshot: crate::mvcc::Snapshot,
        state: &GcState,
    ) -> std::result::Result<(), String> {
        type Row = (i64, i64, String);
        let row = |t: &Tuple| {
            (
                t[0].as_int().unwrap(),
                t[1].as_int().unwrap(),
                t[2].to_string(),
            )
        };
        let model = |keep: &dyn Fn(&Row) -> bool| -> Vec<Row> {
            let rows = state
                .iter()
                .map(|(k, (v, title))| (*k, *v, format!("'{title}'")));
            rows.filter(|r| keep(r)).collect()
        };
        let sorted = |mut rows: Vec<Row>| {
            rows.sort();
            rows
        };
        let scanned = sorted(table.scan(snapshot).map(|(_, t)| row(t)).collect());
        if scanned != model(&|_| true) {
            return Err(format!("the pass read {scanned:?}"));
        }
        for key in 0..7 {
            let found = table
                .lookup_pk(&[Value::Int(key)], snapshot)
                .map(|(_, t)| row(t));
            if found != model(&|r| r.0 == key).pop() {
                return Err(format!("key {key} read {found:?}"));
            }
        }
        let by_value = (0..3).map(|v| (Expr::col(1).eq(Expr::lit(v)), format!("V = {v}")));
        let infixes = ["TLE 1 ", "NO 1"].map(|infix| {
            (
                Expr::col(2).like(Expr::lit(format!("%{infix}%"))),
                infix.to_string(),
            )
        });
        for (predicate, said) in by_value.chain(infixes) {
            let path = AccessPath::choose(table, &predicate);
            if path == AccessPath::Scan {
                return Err(format!("{said} took the pass"));
            }
            let fetched = path.visible_rows(table, snapshot);
            let kept = fetched.filter(|(_, t)| predicate.eval_predicate(t).unwrap());
            let fetched = sorted(kept.map(|(_, t)| row(t)).collect());
            let wanted = model(&|r: &Row| match said.strip_prefix("V = ") {
                Some(v) => r.1.to_string() == v,
                None => r.2.contains(&said),
            });
            if fetched != wanted {
                return Err(format!("{said} fetched {fetched:?}, the model {wanted:?}"));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Version GC never takes what a pin sees: random inserts, updates
        /// (by key and through the value index), deletes and key moves
        /// commit through `apply_ops`, each commit reclaiming below the
        /// low-water mark, while pins are taken and dropped at random; after
        /// every commit every pin still held reads, through the pass, the
        /// key map and the value and gram indexes, exactly the model's table
        /// at its timestamp.
        #[test]
        fn a_pin_reads_its_history_while_commits_reclaim(history in GcHistories) {
            let catalog = gc_catalog();
            catalog.bulk_load("T", (0..4i64).map(|k| tuple![k, k % 3, format!("TITLE {k} NO 0")]).collect()).unwrap();
            let mut state: GcState = (0..4).map(|k| (k, (k % 3, format!("TITLE {k} NO 0")))).collect();
            let mut states = vec![state.clone()];
            let mut pins: Vec<(SnapshotPin, usize)> = Vec::new();
            let mut serial = 0;
            for step in &history {
                match step {
                    GcStep::Pin => pins.push((catalog.pin(), states.len() - 1)),
                    GcStep::Unpin(at) if !pins.is_empty() => drop(pins.remove(at % pins.len())),
                    GcStep::Unpin(_) => {}
                    GcStep::Commit(writes) => {
                        let ops: Vec<UpdateOp> = writes.iter().map(|&write| {
                            serial += 1;
                            gc_apply(&mut state, write, serial)
                        }).collect();
                        catalog.apply_ops(ops.iter().map(|op| ("T", op))).unwrap();
                        states.push(state.clone());
                        let table = catalog.table("T").unwrap();
                        let table = table.read();
                        for (pin, at) in &pins {
                            let checked = gc_check(&table, **pin, &states[*at]);
                            prop_assert!(checked.is_ok(), "pin at {:?}: {checked:?}\nin {history:?}", pin.ts);
                        }
                    }
                }
            }
        }
    }

    /// K keys updated N times each: with no pin held, every superseded
    /// version gives its payload back at the commit after its own, so one a
    /// key is left; with a pin held from the start nothing is reclaimed, and
    /// the first commit after it drops reclaims everything.
    #[test]
    fn updates_under_no_pin_leave_one_payload_a_key() {
        const KEYS: i64 = 16;
        const ROUNDS: i64 = 5;
        let catalog = gc_catalog();
        let rows = (0..KEYS)
            .map(|k| tuple![k, 0i64, format!("TITLE {k}")])
            .collect();
        catalog.bulk_load("T", rows).unwrap();
        let table = catalog.table("T").unwrap();
        let update_all = |round: i64| {
            let ops: Vec<(String, UpdateOp)> = (0..KEYS)
                .map(|k| ("T".into(), set(vec![(1, Value::Int(round))], k)))
                .collect();
            let applied = catalog.apply_batch(&ops).unwrap();
            assert!(applied
                .iter()
                .all(|r| r.as_ref().is_ok_and(|r| r.rows_affected == 1)));
        };
        let counts = || {
            let table = table.read();
            (
                table.version_count(),
                table.payload_count(),
                table.reclaimed_count(),
            )
        };
        for round in 1..=ROUNDS {
            update_all(round);
        }
        let versions = (KEYS * (ROUNDS + 1)) as usize;
        assert_eq!(
            counts(),
            (versions, KEYS as usize, versions - KEYS as usize)
        );
        assert_eq!(catalog.oracle().pin_count(), 0);

        let pin = catalog.pin();
        for round in 1..=ROUNDS {
            update_all(ROUNDS + round);
        }
        let held = (KEYS * (ROUNDS + 1)) as usize;
        assert_eq!(
            counts(),
            (
                versions + held - KEYS as usize,
                held,
                versions - KEYS as usize
            )
        );
        // What the pin sees is all there: the first round's values.
        let seen: Vec<Value> = table.read().scan(*pin).map(|(_, t)| t[1].clone()).collect();
        assert_eq!(seen, vec![Value::Int(ROUNDS); KEYS as usize]);
        drop(pin);
        update_all(3 * ROUNDS);
        let versions = versions + held;
        assert_eq!(
            counts(),
            (versions, KEYS as usize, versions - KEYS as usize)
        );
    }

    /// A log whose every append fails.
    struct FailingSink;

    impl crate::wal::WalSink for FailingSink {
        fn append(&mut self, _frame: &[u8]) -> Result<()> {
            Err(Error::Internal("the disk is full".into()))
        }
        fn flush(&mut self) -> Result<()> {
            Ok(())
        }
    }

    /// A commit whose log fails is published all the same: an update
    /// written over its version in place, or appended under a pin, is read
    /// by every snapshot pinned after it, and the pin held through it still
    /// reads the old version. No row goes missing.
    #[test]
    fn a_commit_whose_log_fails_leaves_no_row_unseen() {
        let catalog = Catalog::new();
        catalog.create_table(item_def()).unwrap();
        catalog
            .bulk_load("ITEM", vec![tuple![1i64, "a", 1.0f64]])
            .unwrap();
        catalog.wal().install_sink(Box::new(FailingSink), 1);
        let set_cost = |cost: f64| {
            let op = UpdateOp::Update {
                assignments: vec![(2, Expr::lit(cost))],
                predicate: Expr::col(0).eq(Expr::lit(1i64)),
            };
            assert!(catalog.apply("ITEM", op).is_err(), "the log failed");
        };
        let table = catalog.table("ITEM").unwrap();
        let cost = |snapshot: Snapshot| {
            let table = table.read();
            let found = table.lookup_pk(&[Value::Int(1)], snapshot);
            let costs = table.scan(snapshot).map(|(_, row)| row[2].clone());
            (
                found.map(|(_, row)| row[2].clone()),
                costs.collect::<Vec<_>>(),
            )
        };
        let read = |want: f64| (Some(Value::Float(want)), vec![Value::Float(want)]);
        set_cost(2.0);
        assert_eq!(table.read().in_place_count(), 1);
        assert_eq!(cost(*catalog.pin()), read(2.0));
        let held = catalog.pin();
        set_cost(3.0);
        assert_eq!(table.read().in_place_count(), 1, "a pin is held");
        assert_eq!((cost(*held), cost(*catalog.pin())), (read(2.0), read(3.0)));
    }

    // -- overwriting in place against the append-only path ------------------

    /// One write of an in-place history, over keys `0..6`: `U(K key, V,
    /// TITLE, N)`, V indexed by value, TITLE by gram, N by nothing.
    #[derive(Debug, Clone, Copy)]
    enum InPlaceWrite {
        Insert(i64, i64),
        /// A new N under the key: unkeyed and unindexed.
        SetN(i64, i64),
        /// V assigned its own value and a new N: unindexed all the same.
        KeepV(i64, i64),
        /// A new N for every row of one V, found through the value index.
        SetNByV(i64, i64),
        /// A new V under the key: an indexed column.
        SetV(i64, i64),
        /// A new TITLE under the key: a column indexed by gram.
        Retitle(i64, i64),
        Delete(i64),
        /// The row under the first key moves to the second.
        Move(i64, i64),
    }

    impl InPlaceWrite {
        /// True for a write that changes neither a key nor an indexed column.
        fn unindexed(self) -> bool {
            use InPlaceWrite::*;
            matches!(self, SetN(..) | KeepV(..) | SetNByV(..))
        }

        fn op(self, serial: usize) -> UpdateOp {
            use InPlaceWrite::*;
            let by_key = |key: i64| Expr::col(0).eq(Expr::lit(key));
            let update = |assignments: Vec<(usize, Expr)>, predicate| UpdateOp::Update {
                assignments,
                predicate,
            };
            let title = |x: i64| Expr::lit(format!("TITLE {x} NO {serial}"));
            match self {
                Insert(key, x) => UpdateOp::Insert {
                    values: tuple![key, x % 3, format!("TITLE {x} NO {serial}"), x],
                },
                SetN(key, x) => update(vec![(3, Expr::lit(x))], by_key(key)),
                KeepV(key, x) => update(vec![(1, Expr::col(1)), (3, Expr::lit(x))], by_key(key)),
                SetNByV(v, x) => update(vec![(3, Expr::lit(x))], Expr::col(1).eq(Expr::lit(v))),
                SetV(key, x) => update(vec![(1, Expr::lit(x % 3))], by_key(key)),
                Retitle(key, x) => update(vec![(2, title(x))], by_key(key)),
                Delete(key) => UpdateOp::Delete {
                    predicate: by_key(key),
                },
                Move(key, to) => update(vec![(0, Expr::lit(to))], by_key(key)),
            }
        }
    }

    struct InPlaceHistories;

    impl Strategy for InPlaceHistories {
        type Value = Vec<(Vec<InPlaceWrite>, bool, Option<usize>)>;
        /// Commits of one to three writes, each after a pin taken or not and
        /// a pin (modulo those held) dropped or not.
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            use InPlaceWrite::*;
            let pick = |rng: &mut TestRng, n: usize| (0..n).generate(rng);
            let write = |rng: &mut TestRng| {
                let (key, x) = (pick(rng, 6) as i64, pick(rng, 6) as i64);
                match pick(rng, 10) {
                    0 => Insert(key, x),
                    1 | 2 => SetN(key, x),
                    3 => KeepV(key, x),
                    4 => SetNByV(key % 3, x),
                    5 => SetV(key, x),
                    6 => Retitle(key, x),
                    7 => Delete(key),
                    _ => Move(key, x),
                }
            };
            let commits = 1 + pick(rng, 30);
            let commit = |rng: &mut TestRng| {
                let writes = (0..1 + pick(rng, 3)).map(|_| write(rng)).collect();
                let unpin = (pick(rng, 3) == 0).then(|| pick(rng, 8));
                (writes, pick(rng, 3) == 0, unpin)
            };
            (0..commits).map(|_| commit(rng)).collect()
        }
    }

    /// What `snapshot` reads of `U`, labelled: the pass, the key map for
    /// every key, a fetch through the value index for every V and through
    /// the gram index for two infixes, each re-checked by its predicate —
    /// rows spelled out exactly, in order.
    fn in_place_reads(table: &Table, snapshot: crate::mvcc::Snapshot) -> Vec<String> {
        let sorted = |rows: &mut dyn Iterator<Item = &Tuple>| {
            let mut rows: Vec<String> = rows.map(|row| format!("{row:?}")).collect();
            rows.sort();
            rows
        };
        let mut reads = vec![format!(
            "pass {:?}",
            sorted(&mut table.scan(snapshot).map(|r| r.1))
        )];
        for key in 0..7 {
            let found = table.lookup_pk(&[Value::Int(key)], snapshot);
            reads.push(format!("key {key}: {:?}", found.map(|(_, row)| row)));
        }
        let by_value = (0..3).map(|v| Expr::col(1).eq(Expr::lit(v)));
        let infixes =
            ["TLE 1 ", "NO 1"].map(|infix| Expr::col(2).like(Expr::lit(format!("%{infix}%"))));
        for predicate in by_value.chain(infixes) {
            let path = AccessPath::choose(table, &predicate);
            assert_ne!(path, AccessPath::Scan, "{predicate} took the pass");
            let fetched = path.visible_rows(table, snapshot);
            let mut kept = fetched
                .map(|(_, row)| row)
                .filter(|row| predicate.eval_predicate(row).unwrap());
            reads.push(format!("{predicate}: {:?}", sorted(&mut kept)));
        }
        reads
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Overwriting in place changes nothing a pin can read: random
        /// updates of unindexed columns, of indexed ones, key moves, inserts
        /// and deletes commit through `apply_ops` while pins are taken and
        /// dropped at random, beside a model table that appends every
        /// update. After every commit the latest state, and each pin still
        /// held, read through the pass, the key map and the value and gram
        /// indexes exactly what the model read as its latest state at that
        /// commit. A commit of unindexed updates with nothing pinned grows
        /// neither the arena nor any index.
        #[test]
        fn in_place_updates_read_as_the_append_only_model(history in InPlaceHistories) {
            let catalog = Catalog::new();
            let def = TableDef::new("U")
                .column("K", DataType::Int)
                .column("V", DataType::Int)
                .column("TITLE", DataType::Text)
                .column("N", DataType::Int)
                .primary_key(&["K"]);
            catalog.create_table(def).unwrap();
            let mut model = Table::new("U", catalog.table("U").unwrap().read().schema().clone(), vec![0]);
            for (name, column, kind) in [("U_V", 1, IndexKind::Values), ("U_TITLE", 2, IndexKind::Grams)] {
                let (table, column_name) = ("U".to_string(), ["K", "V", "TITLE", "N"][column].to_string());
                catalog.create_index(IndexDef { name: name.into(), table, column: column_name, kind }).unwrap();
                model.create_index(name, column, kind).unwrap();
            }
            let rows: Vec<Tuple> = (0..4i64).map(|k| tuple![k, k % 3, format!("TITLE {k} NO 0"), k]).collect();
            catalog.bulk_load("U", rows.clone()).unwrap();
            model.load(rows, Timestamp(0)).unwrap();
            let table = catalog.table("U").unwrap();
            let footprint = |table: &Table| {
                let entries: Vec<usize> = table.index_entry_counts().map(|(_, n)| n).collect();
                (table.version_count(), entries)
            };
            let mut states = std::collections::BTreeMap::new();
            states.insert(Timestamp(0), in_place_reads(&model, crate::mvcc::Snapshot::default()));
            let mut pins: Vec<SnapshotPin> = Vec::new();
            let mut serial = 0;
            for (writes, pin, unpin) in &history {
                if *pin {
                    pins.push(catalog.pin());
                }
                if let Some(at) = unpin.filter(|_| !pins.is_empty()) {
                    drop(pins.remove(at % pins.len()));
                }
                let ops: Vec<UpdateOp> = writes.iter().map(|write| {
                    serial += 1;
                    write.op(serial)
                }).collect();
                let before = footprint(&table.read());
                let quiet = pins.is_empty() && writes.iter().all(|w| w.unindexed());
                let results = catalog.apply_ops(ops.iter().map(|op| ("U", op))).unwrap();
                let commit = catalog.snapshot().ts;
                for (op, result) in ops.iter().zip(results) {
                    let modelled = apply_update(&mut model, op, commit, true);
                    prop_assert_eq!(result.map(|r| r.rows_affected).ok(), modelled.map(|r| r.rows_affected).ok());
                }
                let table = table.read();
                if quiet {
                    prop_assert_eq!(footprint(&table), before, "{:?} grew the table", writes);
                }
                // The model's latest state is what a pin taken now must read
                // for as long as it is held, whatever is written meanwhile.
                let latest = in_place_reads(&model, crate::mvcc::Snapshot::at(commit));
                states.insert(commit, latest);
                let held = pins.iter().map(|pin| pin.ts).chain([commit]);
                for ts in held {
                    prop_assert_eq!(
                        &in_place_reads(&table, crate::mvcc::Snapshot::at(ts)),
                        &states[&ts],
                        "at {:?}\nin {:?}", ts, history
                    );
                }
            }
        }
    }
}
