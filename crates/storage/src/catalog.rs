//! The table catalog: table and index definitions, bulk loading, durability.
//!
//! The catalog is the shared entry point of the storage layer: the SharedDB
//! engine, the query-at-a-time baselines and the benchmark drivers all operate
//! on the same [`Catalog`] so that performance comparisons run against the
//! identical data structures.

use crate::mvcc::TimestampOracle;
use crate::table::{IndexKind, Table};
use crate::update::{apply_update, UpdateOp, UpdateResult};
use crate::wal::{
    committed_ops, encode_frame, scan_frames, FileSink, LogRecord, TornTail, Wal, WalSink as _,
};
use parking_lot::RwLock;
use shareddb_common::ids::Timestamp;
use shareddb_common::{Column, DataType, Error, Result, Schema, Tuple};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the write-ahead log inside a data directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the current checkpoint inside a data directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.sdb";
/// Scratch name a checkpoint is written under before the atomic rename.
pub const CHECKPOINT_TMP_FILE: &str = "checkpoint.tmp";

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

    /// Captures the current read snapshot (the latest committed state).
    ///
    /// The handle can be carried across threads and engines that share this
    /// catalog: every scan or probe executed with the pinned snapshot reads
    /// exactly the version set that was committed when the snapshot was
    /// taken. Differential tests use this to run one query on two engines
    /// against one version set under a concurrent writer (see
    /// `SubmitOptions::pinned_snapshot` in `shareddb-core`).
    pub fn snapshot(&self) -> crate::mvcc::Snapshot {
        self.oracle.read_ts()
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
    /// snapshot); used by data generators. Bulk loads are not logged — they
    /// are covered by checkpoints.
    pub fn bulk_load(&self, table: &str, rows: Vec<Tuple>) -> Result<usize> {
        let handle = self.table(table)?;
        let mut t = handle.write();
        let n = rows.len();
        for row in rows {
            t.insert(row, Timestamp(0))?;
        }
        Ok(n)
    }

    /// Applies a batch of update operations in arrival order under one
    /// commit timestamp and logs it to the WAL as one group commit.
    ///
    /// Each operation succeeds or fails **alone**: the returned vector holds
    /// one `Result` per operation, a failed one (constraint violation,
    /// unknown table, predicate that does not evaluate) leaves its table
    /// untouched, and only the successful ones are logged — so what a client
    /// was told, what later snapshots see and what recovery replays agree.
    /// The outer `Err` is a failure of the log itself.
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
        let commit_ts = self.oracle.next_commit_ts();
        let results: Vec<Result<UpdateResult>> = ops
            .clone()
            .map(|(table_name, op)| {
                let handle = self.table(table_name)?;
                let mut table = handle.write();
                apply_update(&mut table, op, commit_ts)
            })
            .collect();
        let applied = ops.zip(&results).filter(|(_, result)| result.is_ok());
        let mut applied = applied.map(|(op, _)| op).peekable();
        if applied.peek().is_some() {
            self.wal.log_ops(commit_ts, applied)?;
        }
        self.oracle.publish(commit_ts);
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
    /// begin/commit pair. The file is written to `checkpoint.tmp`, fsync'd,
    /// and atomically renamed to `checkpoint.sdb` — a crash mid-checkpoint
    /// leaves the previous checkpoint intact. A checkpoint plus the WAL tail
    /// (committed batches with `ts > checkpoint.ts`) suffices to recover.
    ///
    /// Safe under concurrent writers: rows are read at one pinned snapshot
    /// and the WAL is left untouched.
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<CheckpointInfo> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let snapshot = self.oracle.read_ts();
        let wal_lsn = self.wal.next_lsn().saturating_sub(1);
        let tmp = dir.join(CHECKPOINT_TMP_FILE);
        let _ = std::fs::remove_file(&tmp); // FileSink appends; start clean
        let mut rows = 0usize;
        {
            let mut sink = FileSink::create(&tmp)?;
            let mut lsn = 0u64;
            let mut append = |sink: &mut FileSink, record: &LogRecord| -> Result<()> {
                lsn += 1;
                sink.append(&encode_frame(lsn, record))
            };
            append(
                &mut sink,
                &LogRecord::CheckpointMeta {
                    ts: snapshot.ts,
                    wal_lsn,
                },
            )?;
            append(&mut sink, &LogRecord::BeginBatch(snapshot.ts))?;
            for name in self.table_names() {
                let handle = self.table(&name)?;
                let table = handle.read();
                for (_, row) in table.scan(snapshot) {
                    append(
                        &mut sink,
                        &LogRecord::Apply {
                            table: name.clone(),
                            op: UpdateOp::Insert {
                                values: row.clone(),
                            },
                        },
                    )?;
                    rows += 1;
                }
            }
            append(&mut sink, &LogRecord::CommitBatch(snapshot.ts))?;
            sink.sync()?;
        }
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
    /// snapshot timestamp for WAL-tail filtering.
    pub fn restore_checkpoint(&self, path: impl AsRef<Path>) -> Result<CheckpointInfo> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        let scan = scan_frames(&bytes);
        if let Some(torn) = scan.torn {
            return Err(Error::Recovery(format!(
                "corrupt checkpoint {} at byte {}: {}",
                path.display(),
                torn.offset,
                torn.reason
            )));
        }
        let records = scan.into_records();
        let (ts, wal_lsn) = match records.first() {
            Some(LogRecord::CheckpointMeta { ts, wal_lsn }) => (*ts, *wal_lsn),
            _ => {
                return Err(Error::Recovery(format!(
                    "checkpoint {} does not start with checkpoint metadata",
                    path.display()
                )))
            }
        };
        match records.last() {
            Some(LogRecord::CommitBatch(commit_ts)) if *commit_ts == ts => {}
            _ => {
                return Err(Error::Recovery(format!(
                    "checkpoint {} is missing its commit marker",
                    path.display()
                )))
            }
        }
        let mut restored = 0usize;
        for record in &records[1..] {
            match record {
                LogRecord::Apply {
                    table: table_name,
                    op: UpdateOp::Insert { values },
                } => {
                    let handle = self.table(table_name)?;
                    let mut table = handle.write();
                    table.insert(values.clone(), Timestamp(0))?;
                    restored += 1;
                }
                LogRecord::BeginBatch(_) | LogRecord::CommitBatch(_) => {}
                _ => {
                    return Err(Error::Recovery(
                        "checkpoint contains non-insert records".into(),
                    ));
                }
            }
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
        let (records, next_lsn, torn_tail) = FileSink::recover(&wal_path)?;
        let records: Vec<LogRecord> = records.into_iter().map(|(_, r)| r).collect();
        let mut replayed_batches = 0usize;
        let mut replayed_ops = 0usize;
        let mut max_ts = checkpoint_ts;
        for (ts, ops) in committed_ops(&records) {
            if ts <= checkpoint_ts {
                continue; // already inside the checkpoint snapshot
            }
            for (table_name, op) in &ops {
                let handle = self.table(table_name)?;
                let mut table = handle.write();
                apply_update(&mut table, op, ts)?;
            }
            if ts > max_ts {
                max_ts = ts;
            }
            replayed_batches += 1;
            replayed_ops += ops.len();
        }
        self.oracle.restore(max_ts);
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
    use shareddb_common::tuple;
    use shareddb_common::Expr;

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
    /// the failed op surfaces later or after a restart.
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
                insert(2, "second"),
            ])
            .unwrap();
        let ok: Vec<bool> = results.iter().map(Result::is_ok).collect();
        assert_eq!(ok, [true, false, false, false, true]);
        assert!(matches!(results[1], Err(Error::ConstraintViolation(_))));
        assert!(matches!(results[2], Err(Error::UnknownTable(_))));
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
        assert_eq!(report.replayed_ops, 2);
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
}
