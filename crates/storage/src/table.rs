//! Multi-versioned, main-memory tables.
//!
//! Tables store every row version in an arena of versions. A version carries
//! a `[begin, end)` timestamp interval; reads at a snapshot only observe
//! versions whose interval contains the snapshot timestamp (snapshot
//! isolation, Section 4.4). An update committed while a snapshot is pinned
//! ends the old version and appends a new one, which keeps readers of the
//! older snapshot consistent without any locking during the scan itself.
//! One committed while nothing is pinned, that leaves its key and every
//! indexed column as they were, is written over the version **in place**
//! ([`Table::update_rows`]): the history it would have appended is history
//! no reader needs.
//!
//! Over the arena sits a **chunk directory**: one entry per run of
//! [`CHUNK_ROWS`] versions holding, for every numeric column, a [`Zone`] —
//! the smallest and largest value ever written to that chunk. It is widened
//! where versions are pushed or overwritten and never narrows, so it covers
//! dead versions and overwritten payloads as well as live ones and holds
//! under every snapshot; a shared scan walks the arena through
//! [`Table::chunks`] and passes over a chunk whose zones no query of its
//! cycle can meet.
//!
//! A version that ended with a successor filed under its key is **retired**;
//! [`Table::reclaim`] gives its payload back once it ended at or before the
//! low-water mark of pinned snapshots ([`crate::mvcc`]). It keeps its slot,
//! back-link, index postings and zones: no id moves, so the back-link walk
//! and the ascending posting lists stay exact.

use crate::btree::BTreeIndex;
use crate::keymap::KeyMap;
use crate::mvcc::{Snapshot, TS_INFINITY};
use shareddb_common::ids::Timestamp;
use shareddb_common::{DataType, Error, Result, Schema, Tuple, Value};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::ops::Bound;
use std::sync::LazyLock;

/// Index of a row *version* in the table's version arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

impl RowId {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }

    /// The 32 bits an index posts the row id as ([`crate::btree`]).
    pub(crate) fn posting(self) -> u32 {
        u32::try_from(self.0).expect("a table holds fewer than 2^32 row versions")
    }
}

/// A row id as an index posts it ([`crate::btree`]).
impl From<u32> for RowId {
    #[inline]
    fn from(posting: u32) -> Self {
        RowId(u64::from(posting))
    }
}

/// One stored row version.
#[derive(Debug, Clone)]
pub struct StoredRow {
    /// The row payload, or [`RECLAIMED`] once given back.
    values: Tuple,
    /// Commit timestamp of the write that created this version, or that
    /// last overwrote it in place.
    pub begin: Timestamp,
    /// Commit timestamp of the write that superseded / deleted this version
    /// (`TS_INFINITY` while live).
    pub end: Timestamp,
    /// The back-link: the version the key map's entry for this row's primary
    /// key pointed at when this one was filed — the version written under
    /// the same key before it — or [`NO_VERSION`] for the first.
    previous: u32,
}

/// A back-link that leads nowhere (the key map refuses this row id).
const NO_VERSION: u32 = u32::MAX;

/// The payload of every reclaimed version: one shared empty tuple, so giving
/// a payload back allocates nothing.
static RECLAIMED: LazyLock<Tuple> = LazyLock::new(Tuple::empty);

impl StoredRow {
    /// The row payload. Only a version no reader can see is reclaimed, and
    /// every read checks visibility first: a reclaimed payload is never read.
    #[inline]
    pub fn values(&self) -> &Tuple {
        debug_assert!(self.holds_payload(), "read of a reclaimed version");
        &self.values
    }

    /// False once [`Table::reclaim`] gave the payload back.
    #[inline]
    pub fn holds_payload(&self) -> bool {
        !self.values.ptr_eq(&RECLAIMED)
    }

    /// True when the version is visible in the given snapshot.
    #[inline]
    pub fn visible(&self, snapshot: Snapshot) -> bool {
        snapshot.sees(self.begin, self.end)
    }

    /// True when the version has not been superseded by any write.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.end == TS_INFINITY
    }
}

/// Versions per entry of the chunk directory.
pub const CHUNK_ROWS: usize = 1024;

/// The version arena: slots are only ever appended, a chunk of
/// [`CHUNK_ROWS`] versions allocated at a time and never moved. One vector
/// would double by copying itself, the old copy and the new resident at
/// once: a step of the table's whole arena in the peak resident set, which a
/// run took or not depending on how many rows it wrote.
#[derive(Default)]
struct Versions(Vec<Vec<StoredRow>>);

impl Versions {
    fn len(&self) -> usize {
        self.0
            .last()
            .map_or(0, |last| (self.0.len() - 1) * CHUNK_ROWS + last.len())
    }

    fn push(&mut self, version: StoredRow) {
        match self.0.last_mut() {
            Some(last) if last.len() < CHUNK_ROWS => last.push(version),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_ROWS);
                chunk.push(version);
                self.0.push(chunk);
            }
        }
    }

    #[inline]
    fn get(&self, at: usize) -> Option<&StoredRow> {
        self.0.get(at / CHUNK_ROWS)?.get(at % CHUNK_ROWS)
    }

    fn get_mut(&mut self, at: usize) -> Option<&mut StoredRow> {
        self.0.get_mut(at / CHUNK_ROWS)?.get_mut(at % CHUNK_ROWS)
    }

    /// The chunks, in order: every one full but the last.
    fn chunks(&self) -> impl Iterator<Item = &[StoredRow]> {
        self.0.iter().map(Vec::as_slice)
    }

    fn iter(&self) -> impl Iterator<Item = &StoredRow> {
        self.0.iter().flatten()
    }

    /// The versions from `first` on, each with its id.
    fn iter_from(&self, first: usize) -> impl Iterator<Item = (RowId, &StoredRow)> {
        let chunks = self.0.get(first / CHUNK_ROWS..).unwrap_or_default();
        let rows = chunks.iter().flatten().skip(first % CHUNK_ROWS);
        rows.zip(first..).map(|(row, at)| (RowId(at as u64), row))
    }
}

impl std::ops::Index<usize> for Versions {
    type Output = StoredRow;

    #[inline]
    fn index(&self, at: usize) -> &StoredRow {
        &self.0[at / CHUNK_ROWS][at % CHUNK_ROWS]
    }
}

impl std::ops::IndexMut<usize> for Versions {
    fn index_mut(&mut self, at: usize) -> &mut StoredRow {
        &mut self.0[at / CHUNK_ROWS][at % CHUNK_ROWS]
    }
}

impl fmt::Debug for Versions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What one chunk holds in one column, NULLs aside. A zone is widened by
/// every version appended to its chunk and by nothing else: ending a version
/// leaves it alone, so it bounds dead and live versions alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Zone {
    /// No value yet (an empty chunk, or NULLs only): no comparison holds.
    Empty,
    /// Integers and dates only, all within `[min, max]`.
    Int(i64, i64),
    /// Floats only, none NaN, all within `[min, max]` by `total_cmp`.
    Float(f64, f64),
    /// Values of more than one family, a NaN, or a column zones are not kept
    /// for: anything may be in the chunk.
    Unknown,
}

impl Zone {
    fn widen(&mut self, value: &Value) {
        *self = match (*self, value) {
            (zone, Value::Null) => zone,
            (Zone::Empty, Value::Int(v) | Value::Date(v)) => Zone::Int(*v, *v),
            (Zone::Int(min, max), Value::Int(v) | Value::Date(v)) => {
                Zone::Int(min.min(*v), max.max(*v))
            }
            (Zone::Empty, Value::Float(v)) if !v.is_nan() => Zone::Float(*v, *v),
            (Zone::Float(min, max), Value::Float(v)) if !v.is_nan() => Zone::Float(
                if v.total_cmp(&min).is_lt() { *v } else { min },
                if v.total_cmp(&max).is_gt() { *v } else { max },
            ),
            _ => Zone::Unknown,
        };
    }
}

/// The zones of one chunk, by column.
#[derive(Debug, Clone, Copy)]
pub struct ChunkZones<'t> {
    /// The columns zones are kept for, ascending; `zones[i]` is of
    /// `columns[i]`.
    columns: &'t [usize],
    zones: &'t [Zone],
}

impl ChunkZones<'_> {
    /// The zone of `column` ([`Zone::Unknown`] for a column of a type no zone
    /// is kept for).
    pub fn zone(&self, column: usize) -> Zone {
        let slot = self.columns.iter().position(|&c| c == column);
        slot.map_or(Zone::Unknown, |slot| self.zones[slot])
    }
}

/// One run of up to [`CHUNK_ROWS`] consecutive versions of the arena.
#[derive(Debug, Clone, Copy)]
pub struct Chunk<'t> {
    /// The versions, dead ones included, in arena order.
    pub rows: &'t [StoredRow],
    /// What they hold, per column.
    pub zones: ChunkZones<'t>,
}

/// What a secondary index files a version under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// The value of the column: equalities, ranges and prefixes.
    Values,
    /// Every distinct 3-byte window of a text column's value (nothing for a
    /// NULL, or a string shorter than that): a `LIKE` pattern's literal
    /// segments name the grams a matching value must hold.
    Grams,
}

/// The grams of a string — its 3-byte windows, each packed into an integer
/// key — in order, repeats included. Bytes, not characters: a pattern segment
/// occurs in a value as a run of bytes, whatever characters they spell.
pub(crate) fn grams(text: &str) -> impl Iterator<Item = Value> + '_ {
    let windows = text.as_bytes().windows(3);
    windows.map(|w| Value::Int(i64::from(w[0]) << 16 | i64::from(w[1]) << 8 | i64::from(w[2])))
}

/// A secondary index maintained by the table.
struct SecondaryIndex {
    name: String,
    column: usize,
    kind: IndexKind,
    tree: BTreeIndex,
}

impl SecondaryIndex {
    /// Files the version `row_id`, whose indexed column holds `value`. A
    /// gram that occurs twice in the value finds `row_id` the last id under
    /// it the second time, which the tree ignores.
    fn file(&mut self, value: &Value, row_id: RowId) {
        match (self.kind, value) {
            (IndexKind::Values, value) => self.tree.insert(value.clone(), row_id),
            (IndexKind::Grams, Value::Text(text)) => {
                grams(text).for_each(|gram| self.tree.insert(gram, row_id))
            }
            (IndexKind::Grams, _) => {}
        }
    }

    /// Files a run of versions, ids ascending and above every id filed yet:
    /// what [`SecondaryIndex::file`] leaves after filing them one by one. A
    /// value index sorts the run's values once — stably, so the ids under a
    /// key stay ascending — and is built bottom up from them when it holds
    /// nothing yet; a gram index files version by version.
    fn file_run<'a>(&mut self, run: impl Iterator<Item = (RowId, &'a Tuple)>) {
        let column = self.column;
        if self.kind == IndexKind::Grams {
            return run.for_each(|(row_id, row)| self.file(&row[column], row_id));
        }
        let mut pairs: Vec<(&Value, u32)> = run
            .map(|(row_id, row)| (&row[column], row_id.posting()))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        if self.tree.is_empty() {
            self.tree = BTreeIndex::from_sorted(&pairs);
        } else {
            for (value, row) in pairs {
                self.tree.insert(value.clone(), RowId::from(row));
            }
        }
    }
}

/// A main-memory, multi-versioned table with an optional primary key and any
/// number of secondary B-tree indexes.
pub struct Table {
    name: String,
    schema: Schema,
    /// Columns forming the primary key (empty = no primary key).
    primary_key: Vec<usize>,
    /// The arena of row versions: slots are appended, never moved.
    rows: Versions,
    /// Maps a primary key to the row id of its *latest* version, dead or
    /// alive; the versions before it hang off that one by their back-links.
    pk_index: KeyMap,
    /// Secondary indexes. Indexes contain entries for every version; probes
    /// filter by visibility.
    indexes: Vec<SecondaryIndex>,
    /// The integer, date and float columns, ascending: the ones the chunk
    /// directory keeps a zone for.
    zoned: Vec<usize>,
    /// The chunk directory: `zoned.len()` zones per chunk, chunk after chunk.
    zones: Vec<Zone>,
    /// Versions whose payload nothing will read once no snapshot sees them,
    /// in the order they ended: ended with a successor filed under the same
    /// key, or ended at all in a table without a primary key. A version still
    /// its key's newest (a delete, a key move) is not here: the key map
    /// reads its key from its payload.
    retired: VecDeque<RowId>,
    /// Versions whose payload [`Table::reclaim`] gave back.
    reclaimed: usize,
    /// Updates [`Table::update_rows`] wrote over their version in place.
    overwritten: usize,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema, primary_key: Vec<usize>) -> Self {
        let numeric = |column: &usize| {
            let data_type = schema.columns()[*column].data_type;
            matches!(data_type, DataType::Int | DataType::Date | DataType::Float)
        };
        Table {
            name: name.into(),
            zoned: (0..schema.len()).filter(numeric).collect(),
            zones: Vec::new(),
            schema,
            primary_key,
            rows: Versions::default(),
            pk_index: KeyMap::new(),
            indexes: Vec::new(),
            retired: VecDeque::new(),
            reclaimed: 0,
            overwritten: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The primary-key column indices.
    pub fn primary_key(&self) -> &[usize] {
        &self.primary_key
    }

    /// Number of row versions stored (including superseded ones).
    pub fn version_count(&self) -> usize {
        self.rows.len()
    }

    /// Versions that still hold their payload: the live ones, and the dead
    /// ones not reclaimed yet.
    pub fn payload_count(&self) -> usize {
        self.rows.len() - self.reclaimed
    }

    /// Versions whose payload was given back, since the table was created.
    pub fn reclaimed_count(&self) -> usize {
        self.reclaimed
    }

    /// Updates written over their version in place, since the table was
    /// created: each one a version and its postings not appended.
    pub fn in_place_count(&self) -> usize {
        self.overwritten
    }

    /// Number of live rows. Costs one pass over the whole version arena —
    /// O(versions), dead ones included — so it is for tests, reports and
    /// checkpoints, never for a per-statement path.
    pub fn live_count(&self) -> usize {
        self.rows.iter().filter(|r| r.is_live()).count()
    }

    /// Creates a secondary index of `kind` over a single column — grams are
    /// a text column's — and backfills it with all existing versions.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        column: usize,
        kind: IndexKind,
    ) -> Result<()> {
        let Some(indexed) = self.schema.columns().get(column) else {
            return Err(Error::UnknownColumn(format!("column #{column}")));
        };
        if kind == IndexKind::Grams && indexed.data_type != DataType::Text {
            return Err(Error::TypeMismatch {
                expected: "a Text column under a gram index".into(),
                found: format!("{} {}", indexed.name, indexed.data_type),
            });
        }
        let mut index = SecondaryIndex {
            name: name.into(),
            column,
            kind,
            tree: BTreeIndex::new(),
        };
        let held = self
            .rows
            .iter_from(0)
            .filter(|(_, row)| row.holds_payload());
        index.file_run(held.map(|(row_id, row)| (row_id, &row.values)));
        self.indexes.push(index);
        Ok(())
    }

    /// Every secondary index with the `(key, version)` entries it holds —
    /// one per version ever written, dead ones included (one per distinct
    /// gram of each, under a gram index). O(indexes).
    pub fn index_entry_counts(&self) -> impl Iterator<Item = (&str, usize)> + '_ {
        let counts = self.indexes.iter();
        counts.map(|i| (i.name.as_str(), i.tree.entry_count()))
    }

    /// The index of `kind` on `column`.
    fn index_on(&self, column: usize, kind: IndexKind) -> Option<&SecondaryIndex> {
        let mut indexes = self.indexes.iter();
        indexes.find(|i| i.column == column && i.kind == kind)
    }

    /// The name of the index of `kind` on `column`.
    pub fn index_name(&self, column: usize, kind: IndexKind) -> Option<&str> {
        self.index_on(column, kind).map(|i| i.name.as_str())
    }

    /// True when an index files `column` by its values: equalities, ranges
    /// and prefixes on it have a B-tree to go through.
    pub fn has_index_on(&self, column: usize) -> bool {
        self.index_on(column, IndexKind::Values).is_some()
    }

    fn pk_values(&self, values: &Tuple) -> Vec<Value> {
        self.primary_key
            .iter()
            .map(|&i| values[i].clone())
            .collect()
    }

    /// Inserts a new row with the given commit timestamp.
    ///
    /// Fails when the tuple does not match the schema or when a live row with
    /// the same primary key already exists.
    pub fn insert(&mut self, values: Tuple, ts: Timestamp) -> Result<RowId> {
        let row_id = self.add_version(values, ts)?;
        self.index_version(row_id);
        Ok(row_id)
    }

    /// Inserts a run of new rows with the given commit timestamp, in order,
    /// and returns how many. Ends at the first row [`Table::insert`] would
    /// refuse, with its error, leaving the rows before it inserted: the
    /// table then holds what inserting row after row until that error
    /// leaves. Each row is checked and filed under its key as it comes; the
    /// secondary indexes file the run's versions at its end, a value index
    /// from one sorted pass (`SecondaryIndex::file_run`).
    pub(crate) fn load(&mut self, rows: Vec<Tuple>, ts: Timestamp) -> Result<usize> {
        let first = self.rows.len();
        let added = rows
            .into_iter()
            .try_for_each(|row| self.add_version(row, ts).map(drop));
        for index in &mut self.indexes {
            let run = self.rows.iter_from(first);
            index.file_run(run.map(|(row_id, row)| (row_id, &row.values)));
        }
        added.map(|()| self.rows.len() - first)
    }

    /// Checks a new row — its schema, and under a primary key that no live
    /// row holds the key — appends it and files it under its key, the key
    /// hashed once, from the row's own columns. The secondary indexes are
    /// the caller's to file it in.
    fn add_version(&mut self, values: Tuple, ts: Timestamp) -> Result<RowId> {
        self.schema.check_tuple(&values.values())?;
        if self.primary_key.is_empty() {
            return Ok(self.push_version(values, ts));
        }
        let (rows, columns) = (&self.rows, &self.primary_key);
        let key = || columns.iter().map(|&c| &values[c]);
        let hash = KeyMap::hash(key());
        let newest = self
            .pk_index
            .get(hash, |row| Self::holds_key(rows, columns, row, key()));
        if newest.is_some_and(|row| rows[row.idx()].is_live()) {
            return Err(self.duplicate_key(&self.pk_values(&values)));
        }
        // The key map reads keys from the arena: the version goes in first.
        let row_id = self.push_version(values, ts);
        self.file_key(hash, row_id);
        Ok(row_id)
    }

    /// True when the version `row_id` was written under the primary key whose
    /// values, in key-column order, `key` yields.
    fn holds_key<'k>(
        rows: &Versions,
        primary_key: &[usize],
        row_id: RowId,
        mut key: impl ExactSizeIterator<Item = &'k Value>,
    ) -> bool {
        let row = rows[row_id.idx()].values();
        key.len() == primary_key.len() && primary_key.iter().all(|&c| key.next() == Some(&row[c]))
    }

    /// Points the key map's entry for the key of `row_id` — a version in the
    /// arena, its key hashing to `hash` — at it, and links it back to the
    /// version the entry pointed at.
    fn file_key(&mut self, hash: u64, row_id: RowId) {
        let (rows, columns) = (&self.rows, &self.primary_key);
        let filed = rows[row_id.idx()].values();
        let is_key = |row| Self::holds_key(rows, columns, row, columns.iter().map(|&c| &filed[c]));
        let previous = self.pk_index.insert(hash, row_id, is_key);
        self.rows[row_id.idx()].previous = previous.map_or(NO_VERSION, |row| row.0 as u32);
    }

    /// The newest version written under `key`, dead or alive.
    fn newest_version(&self, key: &[Value]) -> Option<RowId> {
        let is_key = |row| Self::holds_key(&self.rows, &self.primary_key, row, key.iter());
        self.pk_index.get(KeyMap::hash(key), is_key)
    }

    /// Files the version `row_id` in every secondary index.
    fn index_version(&mut self, row_id: RowId) {
        let row = &self.rows[row_id.idx()].values;
        for index in &mut self.indexes {
            index.file(&row[index.column], row_id);
        }
    }

    /// Appends a version to the arena — the one place that does — widening
    /// the zones of the tail chunk. Filing it in the secondary indexes is
    /// the caller's ([`Table::index_version`], or a run's `file_run`).
    fn push_version(&mut self, values: Tuple, begin: Timestamp) -> RowId {
        let row_id = RowId(self.rows.len() as u64);
        if self.rows.len().is_multiple_of(CHUNK_ROWS) {
            let directory = self.zones.len() + self.zoned.len();
            self.zones.resize(directory, Zone::Empty);
        }
        self.widen_zones(row_id, &values);
        self.rows.push(StoredRow {
            values,
            begin,
            end: TS_INFINITY,
            previous: NO_VERSION,
        });
        row_id
    }

    /// Widens the zones of the chunk of `row_id` — an entry the directory
    /// holds — by `values`.
    fn widen_zones(&mut self, row_id: RowId, values: &Tuple) {
        let first = row_id.idx() / CHUNK_ROWS * self.zoned.len();
        let zones = &mut self.zones[first..first + self.zoned.len()];
        for (zone, &column) in zones.iter_mut().zip(&self.zoned) {
            zone.widen(&values[column]);
        }
    }

    /// True when `new` leaves every column `old` is filed under — the primary
    /// key's and each secondary index's — as it was: the same value of the
    /// same variant, so the key map and every posting list file it where
    /// they file `old`.
    fn files_alike(&self, old: &Tuple, new: &Tuple) -> bool {
        let same = |c: usize| {
            std::mem::discriminant(&old[c]) == std::mem::discriminant(&new[c]) && old[c] == new[c]
        };
        let indexed = self.indexes.iter().map(|index| index.column);
        self.primary_key.iter().copied().chain(indexed).all(same)
    }

    /// Replaces each listed live version (ascending `RowId`) with its new
    /// tuple at timestamp `ts`, **all or nothing**: every new version is
    /// validated — schema, liveness, primary-key uniqueness against the
    /// table *and* against the earlier rows of this call, exactly as applying
    /// them one by one would see it — before the first version is changed,
    /// so an error leaves the table untouched.
    ///
    /// `pinned` says whether a reader may hold a snapshot older than `ts`
    /// (false: none is held, nor will one be taken before `ts` is
    /// published). Unpinned, a version whose update leaves its key and
    /// indexed columns as they were (the same value of the same variant) is
    /// **overwritten in place**: it keeps its `RowId` and back-link, takes the new payload
    /// and `begin` = `ts`, and widens its chunk's zones; the key map, the
    /// posting lists and the retired versions are left alone, and the old
    /// payload is dropped (a reader holding it keeps its reference). Every
    /// other version is ended and its successor appended, in the order
    /// given.
    pub fn update_rows(
        &mut self,
        updates: Vec<(RowId, Tuple)>,
        ts: Timestamp,
        pinned: bool,
    ) -> Result<()> {
        // Keys vacated / taken by earlier pk-changing rows of this call.
        let mut freed: HashSet<Vec<Value>> = HashSet::new();
        let mut claimed: HashSet<Vec<Value>> = HashSet::new();
        let mut keys = Vec::with_capacity(updates.len());
        let mut previous = None;
        for (row_id, new_values) in &updates {
            self.schema.check_tuple(&new_values.values())?;
            let old = self
                .rows
                .get(row_id.idx())
                .ok_or_else(|| Error::Internal(format!("invalid row id {row_id:?}")))?;
            if !old.is_live() {
                return Err(Error::Internal(format!(
                    "update of non-live row version {row_id:?} in table {}",
                    self.name
                )));
            }
            if previous.replace(*row_id).is_some_and(|p| p >= *row_id) {
                return Err(Error::Internal(format!(
                    "row versions to update are not in ascending order at {row_id:?}"
                )));
            }
            if !pinned && self.files_alike(&old.values, new_values) {
                keys.push(None);
                continue;
            }
            let old_key = self.pk_values(&old.values);
            let new_key = self.pk_values(new_values);
            let moved = old_key != new_key;
            if moved {
                // Primary-key update: treat as delete + insert, enforcing
                // uniqueness of the new key.
                let taken = claimed.contains(&new_key)
                    || (!freed.contains(&new_key) && self.lookup_pk_live(&new_key).is_some());
                if taken {
                    return Err(self.duplicate_key(&new_key));
                }
                freed.insert(old_key);
                claimed.insert(new_key.clone());
            }
            keys.push(Some((new_key, moved)));
        }
        // Overwrite, or end the old versions and append the new ones.
        for ((row_id, new_values), filed) in updates.into_iter().zip(keys) {
            let Some((new_key, moved)) = filed else {
                self.widen_zones(row_id, &new_values);
                let version = &mut self.rows[row_id.idx()];
                (version.values, version.begin) = (new_values, ts);
                self.overwritten += 1;
                continue;
            };
            self.rows[row_id.idx()].end = ts;
            let new_id = self.push_version(new_values, ts);
            self.index_version(new_id);
            // A row moved to another key leaves the old key's entry where it
            // is, pointing at the version just ended: older snapshots find it
            // there, the live look-up sees it is dead, and a later insert
            // under the old key chains onto it. So it keeps its payload.
            if !moved {
                self.retired.push_back(row_id);
            }
            if !self.primary_key.is_empty() {
                self.file_key(KeyMap::hash(&new_key), new_id);
            }
        }
        Ok(())
    }

    /// Gives back the payload of every retired version that ended at or
    /// before `low_water` (a snapshot at or after it sees none of them), in
    /// the order they ended, stopping at the first that ended later: one
    /// retired out of order by interleaved commits waits, never goes early.
    pub fn reclaim(&mut self, low_water: Timestamp) {
        while let Some(&row_id) = self.retired.front() {
            let row = &mut self.rows[row_id.idx()];
            if row.end > low_water {
                break;
            }
            row.values = RECLAIMED.clone();
            self.retired.pop_front();
            self.reclaimed += 1;
        }
    }

    fn duplicate_key(&self, key: &[Value]) -> Error {
        Error::ConstraintViolation(format!(
            "duplicate primary key in table {}: {:?}",
            self.name, key
        ))
    }

    /// Deletes the row version `row_id` at timestamp `ts`.
    pub fn delete_row(&mut self, row_id: RowId, ts: Timestamp) -> Result<()> {
        let row = self
            .rows
            .get_mut(row_id.idx())
            .ok_or_else(|| Error::Internal(format!("invalid row id {row_id:?}")))?;
        if !row.is_live() {
            return Err(Error::Internal(format!(
                "delete of non-live row version {row_id:?} in table {}",
                self.name
            )));
        }
        row.end = ts;
        // Under a primary key the version stays its key's newest.
        if self.primary_key.is_empty() {
            self.retired.push_back(row_id);
        }
        Ok(())
    }

    /// Returns the stored row for a version id.
    pub fn row(&self, row_id: RowId) -> Option<&StoredRow> {
        self.rows.get(row_id.idx())
    }

    /// Returns the visible tuple for a version id under a snapshot.
    pub fn read(&self, row_id: RowId, snapshot: Snapshot) -> Option<&Tuple> {
        self.rows
            .get(row_id.idx())
            .filter(|r| r.visible(snapshot))
            .map(StoredRow::values)
    }

    /// Iterates over all row versions visible in the snapshot.
    pub fn scan(&self, snapshot: Snapshot) -> impl Iterator<Item = (RowId, &Tuple)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter(move |(_, r)| r.visible(snapshot))
            .map(|(i, r)| (RowId(i as u64), r.values()))
    }

    /// The version arena chunk by chunk, in order, each with its zones: the
    /// cursor of the shared scan. Visibility is the caller's to check, per
    /// version.
    pub fn chunks(&self) -> impl Iterator<Item = Chunk<'_>> + '_ {
        let width = self.zoned.len();
        self.rows.chunks().enumerate().map(move |(i, rows)| Chunk {
            rows,
            zones: ChunkZones {
                columns: &self.zoned,
                zones: &self.zones[i * width..(i + 1) * width],
            },
        })
    }

    /// Iterates over all *live* row versions (the newest state), regardless of
    /// snapshots. Updates and deletes act on live versions because updates are
    /// applied in arrival order against the latest state (Section 4.4).
    pub fn scan_live(&self) -> impl Iterator<Item = (RowId, &Tuple)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_live())
            .map(|(i, r)| (RowId(i as u64), r.values()))
    }

    /// The version of a primary key that `snapshot` sees, if any — exact
    /// under every snapshot. The walk starts at the newest version written
    /// under the key and follows the back-links to the first one that began
    /// at or before the snapshot; that version decides, visible or not: the
    /// ones after it began too late, and the ones before it had ended by the
    /// time it began (a key has one live version at a time). The latest
    /// snapshot stops at the first version it looks at.
    pub fn lookup_pk(&self, key: &[Value], snapshot: Snapshot) -> Option<(RowId, &Tuple)> {
        let mut row_id = self.newest_version(key)?;
        loop {
            let version = &self.rows[row_id.idx()];
            if version.begin <= snapshot.ts {
                return version
                    .visible(snapshot)
                    .then(|| (row_id, version.values()));
            }
            if version.previous == NO_VERSION {
                return None;
            }
            row_id = RowId(u64::from(version.previous));
        }
    }

    /// Looks up the latest *live* version for a primary key regardless of
    /// snapshots (used by updates, which always act on the newest state).
    pub fn lookup_pk_live(&self, key: &[Value]) -> Option<RowId> {
        let row_id = self.newest_version(key)?;
        self.rows[row_id.idx()].is_live().then_some(row_id)
    }

    /// The posting list of `key` in the index of `kind` on `column`: every
    /// version ever written with that key — that value, or a value holding
    /// that gram — dead ones included, ascending (none when the column has
    /// no such index). `O(log n)`, and its length is what fetching through
    /// it will cost.
    pub fn index_postings(
        &self,
        column: usize,
        kind: IndexKind,
        key: &Value,
    ) -> impl ExactSizeIterator<Item = RowId> + '_ {
        let postings = self
            .index_on(column, kind)
            .map_or(&[][..], |i| i.tree.get(key));
        postings.iter().map(|&row| RowId::from(row))
    }

    /// The *live* versions of [`Table::index_postings`], in posting-list
    /// order: O(versions with the key).
    pub fn index_lookup_live<'a>(
        &'a self,
        column: usize,
        kind: IndexKind,
        key: &Value,
    ) -> impl Iterator<Item = RowId> + 'a {
        let postings = self.index_postings(column, kind, key);
        postings.filter(|rid| self.rows[rid.idx()].is_live())
    }

    /// Resolves how rows with `column = key` are found — the primary-key map
    /// when `column` alone is the key (an index declared on such a column
    /// serves ranges only), else the column's secondary index, else a scan —
    /// once, for any number of keys.
    pub fn eq_lookup(&self, column: usize) -> EqLookup<'_> {
        let by_key = self.primary_key == [column];
        let index = self.index_on(column, IndexKind::Values);
        EqLookup {
            table: self,
            column,
            data_type: self.schema.columns()[column].data_type,
            index: index.filter(|_| !by_key).map(|i| &i.tree),
            by_key,
        }
    }

    /// Probes a value index for a key range, returning all visible rows in
    /// key order. SQL comparisons with NULL are never true: rows whose key is
    /// NULL are in no range (the index orders NULL before every value, so an
    /// open lower end stops above it), and a NULL bound selects nothing.
    pub fn index_range(
        &self,
        column: usize,
        low: Bound<&Value>,
        high: Bound<&Value>,
        snapshot: Snapshot,
    ) -> Vec<(RowId, &Tuple)> {
        self.index_range_versions(column, low, high)
            .into_iter()
            .filter_map(|rid| self.read(rid, snapshot).map(|t| (rid, t)))
            .collect()
    }

    /// Every version — dead ones included — the index on `column` files
    /// under a key of the range, in key order (none without an index).
    pub fn index_range_versions(
        &self,
        column: usize,
        low: Bound<&Value>,
        high: Bound<&Value>,
    ) -> Vec<RowId> {
        let ranged = self.ranged(column, low, high);
        ranged.map_or(Vec::new(), |(tree, low, high)| tree.range_rows(low, high))
    }

    /// The length of [`Table::index_range_versions`], read off the index
    /// before a version is fetched: what fetching through the range costs.
    pub fn index_range_len(&self, column: usize, low: Bound<&Value>, high: Bound<&Value>) -> usize {
        let ranged = self.ranged(column, low, high);
        ranged.map_or(0, |(tree, low, high)| tree.range_len(low, high))
    }

    /// The index on `column` and the range to ask it for, NULL keys left
    /// out; `None` when nothing is in the range whatever the index holds.
    fn ranged<'a>(
        &'a self,
        column: usize,
        low: Bound<&'a Value>,
        high: Bound<&'a Value>,
    ) -> Option<(&'a BTreeIndex, Bound<&'a Value>, Bound<&'a Value>)> {
        let index = self.index_on(column, IndexKind::Values)?;
        let null_bound =
            |b: &Bound<&Value>| matches!(b, Bound::Included(v) | Bound::Excluded(v) if v.is_null());
        if null_bound(&low) || null_bound(&high) {
            return None;
        }
        let low = match low {
            Bound::Unbounded => Bound::Excluded(&Value::Null),
            bounded => bounded,
        };
        Some((&index.tree, low, high))
    }

    /// Approximate memory footprint in bytes: the payloads not reclaimed,
    /// each with the header of its shared allocation, and the chunk
    /// directory.
    pub fn heap_size(&self) -> usize {
        let held = self.rows.iter().filter(|r| r.holds_payload());
        let payloads: usize = held.map(|r| r.values.heap_size()).sum();
        payloads + self.zones.len() * std::mem::size_of::<Zone>()
    }
}

/// The index keys under which every stored value that is `sql_eq` to
/// `literal` is filed — the literal itself and, for some, a second spelling —
/// or `None` when the index cannot answer the equality exactly and a scan
/// must. An index may only be probed with a literal of the column's own type
/// family, because `Value::sql_cmp` equates values the index's total order
/// (`Value::cmp`, and the hash behind the key map) keeps apart: `Int(5) =
/// Date(5)` and `Date(5) = Float(5.0)`. `Int` and `Date` columns admit each
/// other's values (`Column::check_value`), so they are probed under both
/// spellings; a `Float` literal against them, `NULL`, and any literal of a
/// foreign family are left to the scan. Reads ([`EqLookup`]) and writes
/// (`AccessPath::choose`) spell their keys here and nowhere else.
pub(crate) fn index_keys(column: DataType, literal: &Value) -> Option<(&Value, Option<Value>)> {
    match (column, literal) {
        (DataType::Text, Value::Text(_))
        | (DataType::Bool, Value::Bool(_))
        | (DataType::Float, Value::Int(_) | Value::Float(_)) => Some((literal, None)),
        (DataType::Int | DataType::Date, Value::Int(n)) => Some((literal, Some(Value::Date(*n)))),
        (DataType::Int | DataType::Date, Value::Date(n)) => Some((literal, Some(Value::Int(*n)))),
        _ => None,
    }
}

/// The access path for `column = key` look-ups on one table, resolved by
/// [`Table::eq_lookup`].
pub struct EqLookup<'t> {
    table: &'t Table,
    column: usize,
    data_type: DataType,
    index: Option<&'t BTreeIndex>,
    by_key: bool,
}

impl<'t> EqLookup<'t> {
    /// The visible rows whose column is `sql_eq` to `key` — under whichever
    /// spelling they were stored (`index_keys`). Nothing is allocated; the
    /// rows are the table's own versions. A NULL key equals nothing.
    pub fn rows<'k>(
        &'k self,
        key: &'k Value,
        snapshot: Snapshot,
    ) -> impl Iterator<Item = (RowId, &'t Tuple)> + 'k {
        let (table, column) = (self.table, self.column);
        let spelled =
            index_keys(self.data_type, key).filter(|_| self.index.is_some() || self.by_key);
        let (first, second) = match &spelled {
            Some((key, twin)) => (Some(*key), twin.as_ref()),
            None => (None, None),
        };
        let postings = |key: Option<&Value>| match (self.index, key) {
            (Some(tree), Some(key)) => tree.get(key),
            _ => &[],
        };
        let keyed = |key: Option<&Value>| {
            key.filter(|_| self.by_key)
                .and_then(|key| table.lookup_pk(std::slice::from_ref(key), snapshot))
        };
        let fetched = postings(first)
            .iter()
            .chain(postings(second))
            .filter_map(move |&rid| {
                let rid = RowId::from(rid);
                table.read(rid, snapshot).map(|row| (rid, row))
            })
            .chain(keyed(first))
            .chain(keyed(second));
        // The fallback — no index on the column, or a key no index can be
        // trusted with: correct, but the planner should have avoided it.
        let scanned = (spelled.is_none() && !key.is_null())
            .then(|| table.scan(snapshot))
            .into_iter()
            .flatten()
            .filter(move |(_, row)| row[column].sql_eq(key));
        fetched.chain(scanned)
    }
}

#[cfg(test)]
impl Table {
    /// Everything a write can change, spelled out exactly (`Debug` keeps
    /// `Int(1)` and `Float(1.0)` apart where `==` does not): the version
    /// arena in order, the key map and every secondary index.
    pub(crate) fn dump(&self) -> String {
        let mut keys: Vec<String> = self
            .pk_index
            .rows()
            .map(|row| {
                format!(
                    "{:?} -> {row:?}",
                    self.pk_values(self.rows[row.idx()].values())
                )
            })
            .collect();
        keys.sort();
        let indexes: Vec<_> = self.indexes.iter().map(|i| (&i.name, &i.tree)).collect();
        format!("{:#?}\n{keys:#?}\n{indexes:?}", self.rows)
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("columns", &self.schema.len())
            .field("versions", &self.rows.len())
            .field("indexes", &self.indexes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use shareddb_common::{tuple, Column, DataType};

    fn items_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("ITEM_ID", DataType::Int).with_qualifier("ITEM"),
            Column::new("TITLE", DataType::Text).with_qualifier("ITEM"),
            Column::new("PRICE", DataType::Float).with_qualifier("ITEM"),
        ]);
        Table::new("ITEM", schema, vec![0])
    }

    #[test]
    fn insert_and_snapshot_scan() {
        let mut t = items_table();
        t.insert(tuple![1i64, "Book A", 10.0f64], Timestamp(1))
            .unwrap();
        t.insert(tuple![2i64, "Book B", 20.0f64], Timestamp(2))
            .unwrap();
        // A snapshot at ts=1 sees only the first row.
        assert_eq!(t.scan(Snapshot::at(Timestamp(1))).count(), 1);
        assert_eq!(t.scan(Snapshot::at(Timestamp(2))).count(), 2);
        assert_eq!(t.live_count(), 2);
    }

    #[test]
    fn primary_key_uniqueness() {
        let mut t = items_table();
        t.insert(tuple![1i64, "A", 1.0f64], Timestamp(1)).unwrap();
        let err = t
            .insert(tuple![1i64, "B", 2.0f64], Timestamp(2))
            .unwrap_err();
        assert!(matches!(err, Error::ConstraintViolation(_)));
    }

    #[test]
    fn update_creates_new_version_old_snapshot_unaffected() {
        let mut t = items_table();
        let r1 = t.insert(tuple![1i64, "A", 1.0f64], Timestamp(1)).unwrap();
        // A snapshot is pinned: the update appends.
        t.update_rows(vec![(r1, tuple![1i64, "A", 9.0f64])], Timestamp(5), true)
            .unwrap();
        let r2 = t.lookup_pk_live(&[Value::Int(1)]).unwrap();
        assert_ne!(r1, r2);
        // Old snapshot still reads the old price.
        let old = t.read(r1, Snapshot::at(Timestamp(3))).unwrap();
        assert_eq!(old[2], Value::Float(1.0));
        assert!(t.read(r2, Snapshot::at(Timestamp(3))).is_none());
        // New snapshot reads the new price and exactly one visible version.
        let snap = Snapshot::at(Timestamp(5));
        let visible: Vec<_> = t.scan(snap).collect();
        assert_eq!(visible.len(), 1);
        assert_eq!(visible[0].1[2], Value::Float(9.0));
        // Updating a superseded version is a bug.
        assert!(t
            .update_rows(vec![(r1, tuple![1i64, "A", 2.0f64])], Timestamp(6), false)
            .is_err());
    }

    /// An update committed while nothing is pinned is written over its
    /// version: the same id and back-link, the new payload from the commit
    /// on, no posting or key filed again, its own chunk's zones widened. One
    /// that changes an indexed column, or is committed under a pin, appends.
    #[test]
    fn an_update_no_pin_sees_is_written_over_its_version() {
        let mut t = items_table();
        t.create_index("ITEM_TITLE", 1, IndexKind::Values).unwrap();
        for i in 0..=CHUNK_ROWS as i64 {
            t.insert(tuple![i, format!("Book {i}"), 1.0f64], Timestamp(1))
                .unwrap();
        }
        let seven = t.lookup_pk_live(&[Value::Int(7)]).unwrap();
        t.update_rows(
            vec![(seven, tuple![7i64, "Book 7", 2.0f64])],
            Timestamp(2),
            false,
        )
        .unwrap();
        t.update_rows(
            vec![(seven, tuple![7i64, "Book 7", 3.0f64])],
            Timestamp(3),
            false,
        )
        .unwrap();
        assert_eq!((t.version_count(), t.in_place_count()), (CHUNK_ROWS + 1, 2));
        assert_eq!(t.lookup_pk_live(&[Value::Int(7)]), Some(seven));
        let row = t.row(seven).unwrap();
        assert_eq!(
            (row.begin, row.previous, row.is_live()),
            (Timestamp(3), NO_VERSION, true)
        );
        assert_eq!(row.values()[2], Value::Float(3.0));
        assert_eq!(
            t.index_entry_counts().collect::<Vec<_>>(),
            [("ITEM_TITLE", CHUNK_ROWS + 1)]
        );
        let zones = |t: &Table| t.chunks().map(|c| c.zones.zone(2)).collect::<Vec<_>>();
        assert_eq!(zones(&t), [Zone::Float(1.0, 3.0), Zone::Float(1.0, 1.0)]);
        // A snapshot at 3 is pinned: the next update of the row appends.
        t.update_rows(
            vec![(seven, tuple![7i64, "Book 7", 4.0f64])],
            Timestamp(4),
            true,
        )
        .unwrap();
        let eighth = t.lookup_pk_live(&[Value::Int(7)]).unwrap();
        assert_eq!(eighth, RowId(CHUNK_ROWS as u64 + 1));
        assert_eq!(
            t.read(seven, Snapshot::at(Timestamp(3))).unwrap()[2],
            Value::Float(3.0)
        );
        // A new title is filed under its own key: appended, pinned or not.
        let retitled = tuple![7i64, "Book seven", 4.0f64];
        t.update_rows(vec![(eighth, retitled)], Timestamp(5), false)
            .unwrap();
        assert_eq!((t.version_count(), t.in_place_count()), (CHUNK_ROWS + 3, 2));
        // So is a key spelled as another variant, equal as it is.
        let one = t.lookup_pk_live(&[Value::Int(1)]).unwrap();
        let spelled = tuple![Value::Float(1.0), "Book 1", 1.0f64];
        t.update_rows(vec![(one, spelled)], Timestamp(6), false)
            .unwrap();
        assert_eq!((t.version_count(), t.in_place_count()), (CHUNK_ROWS + 4, 2));
    }

    #[test]
    fn delete_hides_row_from_later_snapshots() {
        let mut t = items_table();
        let r = t.insert(tuple![1i64, "A", 1.0f64], Timestamp(1)).unwrap();
        t.delete_row(r, Timestamp(4)).unwrap();
        assert_eq!(t.scan(Snapshot::at(Timestamp(3))).count(), 1);
        assert_eq!(t.scan(Snapshot::at(Timestamp(4))).count(), 0);
        assert_eq!(t.live_count(), 0);
        assert!(t.delete_row(r, Timestamp(5)).is_err());
    }

    #[test]
    fn pk_lookup_follows_versions() {
        let mut t = items_table();
        let r1 = t.insert(tuple![7i64, "A", 1.0f64], Timestamp(1)).unwrap();
        t.update_rows(vec![(r1, tuple![7i64, "A", 2.0f64])], Timestamp(3), true)
            .unwrap();
        let (rid, row) = t
            .lookup_pk(&[Value::Int(7)], Snapshot::at(Timestamp(3)))
            .unwrap();
        assert_eq!(row[2], Value::Float(2.0));
        assert!(rid != r1);
        // An old snapshot is led back to the version it sees, and a snapshot
        // older than the key to nothing.
        let old = t.lookup_pk(&[Value::Int(7)], Snapshot::at(Timestamp(2)));
        assert_eq!(
            old.map(|(rid, row)| (rid, &row[2])),
            Some((r1, &Value::Float(1.0)))
        );
        assert!(t
            .lookup_pk(&[Value::Int(7)], Snapshot::at(Timestamp(0)))
            .is_none());
        assert!(t.lookup_pk_live(&[Value::Int(7)]).is_some());
        assert!(t
            .lookup_pk(&[Value::Int(99)], Snapshot::at(Timestamp(9)))
            .is_none());
    }

    /// The key map reads keys back from the arena: a key is its columns in
    /// full, a row moved to another key leaves the old one free — and, for
    /// the snapshots that saw it there, still answering — and a key written
    /// again after a delete points at the new version.
    #[test]
    fn pk_lookup_reads_the_key_from_the_newest_version() {
        let schema = Schema::new(vec![
            Column::new("OL_O_ID", DataType::Int),
            Column::new("OL_ID", DataType::Int),
            Column::new("OL_QTY", DataType::Int),
        ]);
        let mut t = Table::new("ORDER_LINE", schema, vec![0, 1]);
        for order in 0..200i64 {
            for line in 0..3i64 {
                t.insert(tuple![order, line, 1i64], Timestamp(1)).unwrap();
            }
        }
        let key = |order, line| [Value::Int(order), Value::Int(line)];
        assert_eq!(t.lookup_pk_live(&key(7, 2)), Some(RowId(23)));
        assert_eq!(t.lookup_pk_live(&key(7, 3)), None);
        // Neither a prefix of the key nor the key with a column to spare.
        assert_eq!(t.lookup_pk_live(&[Value::Int(7)]), None);
        let long = [Value::Int(7), Value::Int(2), Value::Int(1)];
        assert_eq!(t.lookup_pk_live(&long), None);
        // (7, 2) moves to (7, 9): the old key is free, the new one taken.
        let moved = RowId(t.version_count() as u64);
        t.update_rows(
            vec![(RowId(23), tuple![7i64, 9i64, 1i64])],
            Timestamp(2),
            false,
        )
        .unwrap();
        assert_eq!(t.lookup_pk_live(&key(7, 2)), None);
        assert_eq!(t.lookup_pk_live(&key(7, 9)), Some(moved));
        let at = |ts| Snapshot::at(Timestamp(ts));
        let found = |t: &Table, key: &[Value], ts| t.lookup_pk(key, at(ts)).map(|(rid, _)| rid);
        assert_eq!(found(&t, &key(7, 2), 1), Some(RowId(23)));
        assert_eq!(found(&t, &key(7, 2), 2), None);
        assert_eq!(found(&t, &key(7, 9), 1), None);
        assert_eq!(found(&t, &key(7, 9), 2), Some(moved));
        let again = t.insert(tuple![7i64, 2i64, 5i64], Timestamp(3)).unwrap();
        assert_eq!(t.lookup_pk_live(&key(7, 2)), Some(again));
        // A deleted key stays on the map, dead, until it is written again.
        t.delete_row(again, Timestamp(4)).unwrap();
        assert_eq!(t.lookup_pk_live(&key(7, 2)), None);
        let reborn = t.insert(tuple![7i64, 2i64, 6i64], Timestamp(5)).unwrap();
        assert_eq!(t.lookup_pk_live(&key(7, 2)), Some(reborn));
        assert!(t.insert(tuple![7i64, 2i64, 7i64], Timestamp(6)).is_err());
        let seen: Vec<_> = (1..=5).map(|ts| found(&t, &key(7, 2), ts)).collect();
        let expected = [Some(RowId(23)), None, Some(again), None, Some(reborn)];
        assert_eq!(seen, expected);
        assert_eq!(t.live_count(), 601);
    }

    // -- the key map under every snapshot -----------------------------------

    /// One write to a table keyed by its first column, over six keys.
    #[derive(Debug, Clone, Copy)]
    enum Write {
        Insert(i64),
        Update(i64),
        /// Two updates of one row inside one commit timestamp: the version
        /// between them begins and ends at once.
        UpdateTwice(i64),
        Delete(i64),
        /// Delete, and insert again at the next timestamp.
        Reinsert(i64),
        Move(i64, i64),
        /// Move, and move back at the next timestamp.
        MoveAndBack(i64, i64),
    }

    struct Histories;

    impl Strategy for Histories {
        /// Each write with whether it commits at a timestamp of its own
        /// (else at the one before it).
        type Value = Vec<(Write, bool)>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let pick = |rng: &mut TestRng, n: usize| (0..n).generate(rng);
            let steps = 1 + pick(rng, 40);
            let writes = (0..steps).map(|_| {
                let (key, other) = (pick(rng, 6) as i64, pick(rng, 6) as i64);
                let write = match pick(rng, 10) {
                    0..=2 => Write::Insert(key),
                    3 => Write::Update(key),
                    4 => Write::UpdateTwice(key),
                    5 => Write::Delete(key),
                    6 => Write::Reinsert(key),
                    7 | 8 => Write::Move(key, other),
                    _ => Write::MoveAndBack(key, other),
                };
                (write, pick(rng, 3) != 0)
            });
            writes.collect()
        }
    }

    /// Applies a history (a write that cannot be — a taken key, a row that
    /// is not there — writes nothing) and returns the last timestamp used.
    fn apply_history(t: &mut Table, history: &[(Write, bool)]) -> u64 {
        let mut ts = 1;
        let mut serial = 0i64;
        let live = |t: &Table, key: i64| t.lookup_pk_live(&[Value::Int(key)]);
        let mut put = |t: &mut Table, from: i64, to: i64, ts: u64| {
            serial += 1;
            if let Some(row) = live(t, from) {
                let _ = t.update_rows(vec![(row, tuple![to, serial])], Timestamp(ts), true);
            }
        };
        for (write, own_timestamp) in history {
            ts += *own_timestamp as u64;
            match *write {
                Write::Insert(key) => put_new(t, key, ts),
                Write::Update(key) => put(t, key, key, ts),
                Write::UpdateTwice(key) => {
                    put(t, key, key, ts);
                    put(t, key, key, ts);
                }
                Write::Delete(key) => drop_key(t, key, ts),
                Write::Reinsert(key) => {
                    drop_key(t, key, ts);
                    ts += 1;
                    put_new(t, key, ts);
                }
                Write::Move(from, to) => put(t, from, to, ts),
                Write::MoveAndBack(from, to) => {
                    put(t, from, to, ts);
                    ts += 1;
                    put(t, to, from, ts);
                }
            }
        }
        ts
    }

    fn put_new(t: &mut Table, key: i64, ts: u64) {
        let _ = t.insert(tuple![key, -(ts as i64)], Timestamp(ts));
    }

    fn drop_key(t: &mut Table, key: i64, ts: u64) {
        if let Some(row) = t.lookup_pk_live(&[Value::Int(key)]) {
            t.delete_row(row, Timestamp(ts)).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The key map is exact under every snapshot: for every key and every
        /// timestamp from before the first write to the last, the look-up
        /// returns the one version of the key a walk over the whole arena
        /// sees — through updates, several of them inside one commit,
        /// deletes, keys written again, rows moved to another key and back.
        #[test]
        fn pk_lookup_equals_the_full_walk_under_every_snapshot(history in Histories) {
            let schema = Schema::new(vec![
                Column::new("K", DataType::Int),
                Column::new("V", DataType::Int),
            ]);
            let mut t = Table::new("T", schema, vec![0]);
            let last = apply_history(&mut t, &history);
            for ts in 0..=last {
                let snapshot = Snapshot::at(Timestamp(ts));
                for key in 0..7i64 {
                    let key = Value::Int(key);
                    let walked: Vec<_> = t.scan(snapshot).filter(|(_, row)| row[0] == key).collect();
                    prop_assert!(walked.len() <= 1, "{walked:?} share a key at {ts}");
                    let found = t.lookup_pk(std::slice::from_ref(&key), snapshot);
                    prop_assert!(
                        found == walked.first().copied(),
                        "key {key} at {ts}: found {found:?}, the walk {walked:?}\nin {history:?}\n{:#?}",
                        t.rows
                    );
                }
            }
        }
    }

    #[test]
    fn secondary_index_lookup_and_range() {
        let mut t = items_table();
        t.create_index("ITEM_PRICE", 2, IndexKind::Values).unwrap();
        for i in 0..100i64 {
            t.insert(
                tuple![i, format!("Book {i}"), (i % 10) as f64],
                Timestamp(1),
            )
            .unwrap();
        }
        let snap = Snapshot::at(Timestamp(1));
        let hits: Vec<_> = t.eq_lookup(2).rows(&Value::Float(3.0), snap).collect();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|(_, r)| r[2] == Value::Float(3.0)));
        let ranged = t.index_range(
            2,
            Bound::Included(&Value::Float(8.0)),
            Bound::Unbounded,
            snap,
        );
        assert_eq!(ranged.len(), 20); // prices 8 and 9
        assert!(t.has_index_on(2));
        assert!(!t.has_index_on(1));
    }

    #[test]
    fn index_respects_visibility() {
        let mut t = items_table();
        t.create_index("ITEM_PRICE", 2, IndexKind::Values).unwrap();
        let r = t.insert(tuple![1i64, "A", 5.0f64], Timestamp(1)).unwrap();
        t.update_rows(vec![(r, tuple![1i64, "A", 6.0f64])], Timestamp(5), false)
            .unwrap();
        // At ts=2, only the old version (price 5.0) is visible.
        let snap = Snapshot::at(Timestamp(2));
        assert_eq!(t.eq_lookup(2).rows(&Value::Float(5.0), snap).count(), 1);
        assert_eq!(t.eq_lookup(2).rows(&Value::Float(6.0), snap).count(), 0);
        // At ts=5 the situation flips.
        let snap = Snapshot::at(Timestamp(5));
        assert_eq!(t.eq_lookup(2).rows(&Value::Float(5.0), snap).count(), 0);
        assert_eq!(t.eq_lookup(2).rows(&Value::Float(6.0), snap).count(), 1);
    }

    /// The chunk directory follows the arena: a zone per numeric column and
    /// run of `CHUNK_ROWS` versions, widened by inserts and updates alike,
    /// never narrowed, NULLs aside, and unknown once a value is of another
    /// family or no number at all.
    #[test]
    fn chunk_directory_follows_the_arena() {
        let schema = Schema::new(vec![
            Column::new("ID", DataType::Int),
            Column::new("NAME", DataType::Text),
            Column::nullable("PRICE", DataType::Float),
        ]);
        let mut t = Table::new("T", schema, vec![0]);
        let payloads = |t: &Table| t.rows.iter().map(|r| r.values.heap_size()).sum::<usize>();
        assert_eq!((t.chunks().count(), t.heap_size()), (0, 0));
        for i in 0..=CHUNK_ROWS as i64 {
            let price = Value::Float((i % 10) as f64 + 0.5);
            let price = if i == 7 { Value::Null } else { price };
            t.insert(tuple![i, "x", price], Timestamp(1)).unwrap();
        }
        let zones =
            |t: &Table, column| t.chunks().map(|c| c.zones.zone(column)).collect::<Vec<_>>();
        let last = CHUNK_ROWS as i64;
        assert_eq!(
            zones(&t, 0),
            [Zone::Int(0, last - 1), Zone::Int(last, last)]
        );
        assert_eq!(zones(&t, 1), [Zone::Unknown, Zone::Unknown]);
        assert_eq!(zones(&t, 2), [Zone::Float(0.5, 9.5), Zone::Float(4.5, 4.5)]);
        assert_eq!(
            t.chunks().map(|c| c.rows.len()).collect::<Vec<_>>(),
            [CHUNK_ROWS, 1]
        );
        // Two chunks of two zoned columns.
        assert_eq!(
            t.heap_size(),
            payloads(&t) + 4 * std::mem::size_of::<Zone>()
        );
        // An update appends to the tail chunk and widens it; the chunk of the
        // version it ended, and of one deleted, keep what they held.
        let updates = vec![
            (RowId(3), tuple![3i64, "x", Value::Null]),
            (RowId(4), tuple![-4i64, "x", 99.0f64]),
        ];
        t.update_rows(updates, Timestamp(2), true).unwrap();
        t.delete_row(RowId(0), Timestamp(2)).unwrap();
        assert_eq!(zones(&t, 0), [Zone::Int(0, last - 1), Zone::Int(-4, last)]);
        assert_eq!(
            zones(&t, 2),
            [Zone::Float(0.5, 9.5), Zone::Float(4.5, 99.0)]
        );
        // An integer among floats, or a NaN: anything may be in the chunk.
        t.insert(tuple![-1i64, "x", 3i64], Timestamp(3)).unwrap();
        assert_eq!(zones(&t, 2)[1], Zone::Unknown);
        let mut nan = Zone::Float(1.0, 2.0);
        nan.widen(&Value::Float(f64::NAN));
        assert_eq!(nan, Zone::Unknown);
    }

    #[test]
    fn index_on_unknown_column_fails() {
        let mut t = items_table();
        assert!(t.create_index("BAD", 17, IndexKind::Values).is_err());
    }

    #[test]
    fn schema_validation_on_insert() {
        let mut t = items_table();
        assert!(t.insert(tuple!["oops", "A", 1.0f64], Timestamp(1)).is_err());
        assert!(t.insert(tuple![1i64], Timestamp(1)).is_err());
    }

    /// A second run into a loaded table files a key deleted since under it
    /// again, linked back to the version deleted, and indexes the run beside
    /// the first: every snapshot finds the version of its time.
    #[test]
    fn a_second_load_links_a_reloaded_key_back() {
        let mut t = items_table();
        t.create_index("ITEM_PRICE", 2, IndexKind::Values).unwrap();
        let books = (0..100i64).map(|i| tuple![i, format!("Book {i}"), (i % 10) as f64]);
        let books = books.collect();
        assert_eq!(t.load(books, Timestamp(1)).unwrap(), 100);
        let old = t.lookup_pk_live(&[Value::Int(7)]).unwrap();
        t.delete_row(old, Timestamp(2)).unwrap();
        let again = vec![
            tuple![7i64, "Book 7", 3.5f64],
            tuple![100i64, "Book 100", 3.5f64],
        ];
        assert_eq!(t.load(again, Timestamp(3)).unwrap(), 2);
        let found = |ts| t.lookup_pk(&[Value::Int(7)], Snapshot::at(Timestamp(ts)));
        let found: Vec<_> = (1..=3).map(|ts| found(ts).map(|(rid, _)| rid)).collect();
        assert_eq!(found, [Some(old), None, Some(RowId(100))]);
        let priced: Vec<_> = t
            .index_postings(2, IndexKind::Values, &Value::Float(3.5))
            .collect();
        assert_eq!(priced, [RowId(100), RowId(101)]);
        assert_eq!(
            t.index_postings(2, IndexKind::Values, &Value::Float(7.0))
                .len(),
            10
        );
        let taken = t.load(vec![tuple![100i64, "Book 100", 1.0f64]], Timestamp(4));
        assert!(matches!(taken, Err(Error::ConstraintViolation(_))));
    }

    // -- a run loaded at once against the same rows inserted one by one ------

    /// One step of a load history.
    #[derive(Debug, Clone)]
    enum LoadStep {
        /// A run of rows `(key, value)`; `None` is a row the schema refuses.
        Load(Vec<Option<(i64, i64)>>),
        /// Deletes the live row of a key.
        Delete(i64),
        /// Gives the live row of a key another value.
        Update(i64, i64),
    }

    struct LoadHistories;

    impl Strategy for LoadHistories {
        /// Whether the table has a primary key, and the steps.
        type Value = (bool, Vec<LoadStep>);
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let pick = |rng: &mut TestRng, n: usize| (0..n).generate(rng);
            // Few keys: runs that repeat a key, in themselves or against a
            // live row; many: runs that load whole.
            let keys = [8, 1000][pick(rng, 2)];
            let mut steps = Vec::new();
            for _ in 0..1 + pick(rng, 6) {
                steps.push(match pick(rng, 4) {
                    0 => LoadStep::Delete(pick(rng, keys) as i64),
                    1 => LoadStep::Update(pick(rng, keys) as i64, pick(rng, 5) as i64),
                    _ => {
                        let mut rows = Vec::new();
                        for _ in 0..pick(rng, 30) {
                            let refused = pick(rng, 20) == 0;
                            let row = (pick(rng, keys) as i64, pick(rng, 5) as i64);
                            rows.push((!refused).then_some(row));
                        }
                        LoadStep::Load(rows)
                    }
                });
            }
            (pick(rng, 4) != 0, steps)
        }
    }

    /// The row of `key` with `value`: NULL for value 0, and a title whose
    /// grams the value and the key decide.
    fn load_row(key: i64, value: i64) -> Tuple {
        let value_or_null = if value == 0 {
            Value::Null
        } else {
            Value::Int(value)
        };
        tuple![key, value_or_null, format!("TITLE {value} NO {key}")]
    }

    /// A table of `(K, V, T)` — keyed by `K` or not — with an index by value
    /// on `V` and by gram on `T`, and by value on `T` unless `late`.
    fn load_table(keyed: bool, late: bool) -> Table {
        let schema = Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::nullable("V", DataType::Int),
            Column::new("T", DataType::Text),
        ]);
        let mut t = Table::new("T", schema, if keyed { vec![0] } else { vec![] });
        t.create_index("T_V", 1, IndexKind::Values).unwrap();
        t.create_index("T_GRAMS", 2, IndexKind::Grams).unwrap();
        if !late {
            t.create_index("T_T", 2, IndexKind::Values).unwrap();
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Table::load` leaves what `Table::insert` leaves row after row,
        /// stopping at the first error: the same result or error, and then
        /// the same arena, back-links, key map and index entries — runs that
        /// fail part way (a row the schema refuses, a key live in the table
        /// or earlier in the run) with their prefix keyed and indexed, runs
        /// into a loaded table, keys deleted and loaded again. The value
        /// index on `T` is built by `create_index` over the whole arena at
        /// the end on the loaded side, row by row on the other.
        #[test]
        fn a_load_equals_its_rows_inserted_one_by_one(history in LoadHistories) {
            let (keyed, steps) = history;
            let (mut loaded, mut inserted) = (load_table(keyed, true), load_table(keyed, false));
            let live = |t: &Table, key: i64| {
                let mut rows = t.scan_live();
                rows.find(|(_, row)| row[0] == Value::Int(key)).map(|(row_id, _)| row_id)
            };
            for (ts, step) in (1..).map(Timestamp).zip(&steps) {
                match step {
                    LoadStep::Load(rows) => {
                        let rows = rows.iter().map(|row| match *row {
                            Some((key, value)) => load_row(key, value),
                            None => tuple!["refused", 1i64, "T"],
                        });
                        let mut one_by_one = Ok(0);
                        for row in rows.clone() {
                            match inserted.insert(row, ts) {
                                Ok(_) => one_by_one = one_by_one.map(|n| n + 1),
                                Err(error) => {
                                    one_by_one = Err(error);
                                    break;
                                }
                            }
                        }
                        let at_once = loaded.load(rows.collect(), ts);
                        prop_assert_eq!(format!("{at_once:?}"), format!("{one_by_one:?}"));
                    }
                    LoadStep::Delete(key) => {
                        for t in [&mut loaded, &mut inserted] {
                            if let Some(row_id) = live(t, *key) {
                                t.delete_row(row_id, ts).unwrap();
                            }
                        }
                    }
                    LoadStep::Update(key, value) => {
                        for t in [&mut loaded, &mut inserted] {
                            if let Some(row_id) = live(t, *key) {
                                t.update_rows(vec![(row_id, load_row(*key, *value))], ts, true).unwrap();
                            }
                        }
                    }
                }
            }
            loaded.create_index("T_T", 2, IndexKind::Values).unwrap();
            prop_assert_eq!(loaded.dump(), inserted.dump(), "{:?}", steps);
            let mut keys: Vec<(usize, IndexKind, Value)> = Vec::new();
            for (_, row) in inserted.rows.iter_from(0) {
                let (value, title) = (&row.values()[1], &row.values()[2]);
                keys.push((1, IndexKind::Values, value.clone()));
                keys.push((2, IndexKind::Values, title.clone()));
                if let Value::Text(title) = title {
                    keys.extend(grams(title).map(|gram| (2, IndexKind::Grams, gram)));
                }
            }
            for (column, kind, key) in &keys {
                let postings = |t: &Table| t.index_postings(*column, *kind, key).collect::<Vec<_>>();
                prop_assert_eq!(postings(&loaded), postings(&inserted), "{:?} {}", kind, key);
            }
        }
    }
}
