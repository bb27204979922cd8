//! The ClockScan shared table scan.
//!
//! ClockScan (Unterbrunner et al., "Predictable Performance for Unpredictable
//! Workloads", VLDB 2009 — reference \[28\] of the SharedDB paper) batches
//! queries *and* updates and processes a whole batch within a single pass over
//! the table. SharedDB uses it as its shared-scan access path (Section 4.4):
//!
//! * Queries that arrive while a cycle is running are queued — by the engine,
//!   which hands each cycle its batch — and form the next cycle's batch,
//!   exactly the batching model of the rest of SharedDB.
//! * Query predicates are indexed (see [`crate::predicate_index`]) and the
//!   scan performs a *query-data join* between rows and queries.
//! * Updates are executed in arrival order before the cycle — through
//!   [`Catalog::apply_batch`](crate::Catalog::apply_batch), under one commit
//!   timestamp — and all select queries of the cycle read one consistent
//!   snapshot that includes them.
//! * A cycle does what its queries need and no more: when every query of
//!   the cycle holds an equality, a `LIKE 'prefix%'` — or, on a column
//!   indexed by gram, any `LIKE` whose pattern spells three bytes in a row
//!   (`'%BOOK 12%'`) — an index of the table answers, and the posting lists
//!   they name are together shorter than the table, the cycle is served
//!   through those indexes — the same rows, in the same order, as the pass
//!   would have emitted (`ClockScan::serve_from_indexes`).
//!
//! The scan produces tuples in the data-query model ([`QTuple`]): each emitted
//! row carries the set of queries that selected it.

use crate::index_probe::Hits;
use crate::mvcc::{Snapshot, TimestampOracle};
use crate::predicate_index::{PredicateClass, PredicateIndex};
use crate::table::Table;
use crate::update::{refuse_cycle_updates, AccessPath, UpdateOp};
use shareddb_common::queryset::Union;
use shareddb_common::sync::RwLock;
use shareddb_common::{Expr, QTuple, QueryId, QuerySet, Result, Schema, WordTable};
use std::sync::Arc;

/// A query registered with a ClockScan operator for one cycle.
#[derive(Debug, Clone)]
pub struct ScanQuery {
    /// Id of the active query.
    pub query_id: QueryId,
    /// Bound selection predicate on the scanned table (use
    /// `Expr::lit(true)` for a full scan).
    pub predicate: Expr,
}

impl ScanQuery {
    /// Creates a scan query.
    pub fn new(query_id: QueryId, predicate: Expr) -> Self {
        ScanQuery {
            query_id,
            predicate,
        }
    }
}

/// Result of one ClockScan cycle.
#[derive(Debug, Default)]
pub struct ScanCycleResult {
    /// All rows selected by at least one query of the batch, annotated with
    /// the queries that selected them.
    pub tuples: Vec<QTuple>,
    /// Visible rows of the table probed against the predicate index
    /// (`tuples.len() / rows_examined` is the scan's useful-work ratio); for
    /// a cycle served from the indexes, the versions fetched through their
    /// posting lists and the key map.
    pub rows_examined: usize,
    /// Versions, visible or not, in the chunks the pass left out because no
    /// query of the cycle could match anything in them.
    pub rows_skipped: usize,
    /// Queries served per predicate class, in the order of
    /// [`PredicateClass::NAMES`](crate::predicate_index::PredicateClass::NAMES).
    pub query_classes: [usize; 3],
    /// Whether the table's indexes served the cycle rather than the pass
    /// (`false` too for a cycle with no queries).
    pub by_index: bool,
}

impl ScanCycleResult {
    /// The two ways a cycle is served, by name (`PATHS[by_index as usize]`):
    /// the pass over the version arena, or the table's indexes.
    pub const PATHS: [&'static str; 2] = ["scan", "index"];
}

/// The shared-scan operator for one table.
pub struct ClockScan {
    table: Arc<RwLock<Table>>,
    oracle: Arc<TimestampOracle>,
}

impl ClockScan {
    /// Creates a ClockScan operator over a table.
    pub fn new(table: Arc<RwLock<Table>>, oracle: Arc<TimestampOracle>) -> Self {
        ClockScan { table, oracle }
    }

    /// Schema of the scanned table.
    pub fn schema(&self) -> Schema {
        self.table.read().schema().clone()
    }

    /// Executes one cycle over an explicit batch (the engine owns the
    /// queueing) at the latest committed state — which includes the batch's
    /// own updates, as the engine commits them through the catalog first.
    /// `updates` must be empty (the cycle writes nothing): a non-empty slice
    /// is an [`Error::Internal`](shareddb_common::Error::Internal).
    pub fn execute_batch(
        &self,
        queries: &[ScanQuery],
        updates: &[UpdateOp],
    ) -> Result<ScanCycleResult> {
        refuse_cycle_updates(updates)?;
        self.execute_at(queries, self.oracle.read_ts())
    }

    /// Executes one cycle in which every query reads `snapshot` — a
    /// timestamp the caller keeps pinned ([`crate::Catalog::pin`]) while the
    /// cycle runs, or one nobody commits past.
    pub fn execute_at(&self, queries: &[ScanQuery], snapshot: Snapshot) -> Result<ScanCycleResult> {
        let mut result = ScanCycleResult::default();
        if !queries.is_empty() {
            let table = self.table.read();
            result.by_index = Self::serve_from_indexes(&table, snapshot, queries, &mut result)?;
            if !result.by_index {
                Self::scan(&table, snapshot, queries, &mut result)?;
            }
        }
        Ok(result)
    }

    /// One pass: walks the version arena chunk by chunk, leaving out every
    /// chunk whose zones no query of the cycle can meet (a cycle holding a
    /// LIKE or a text comparison meets all of them), and probes each visible
    /// row against the cycle's predicate index.
    fn scan(
        table: &Table,
        snapshot: Snapshot,
        members: &[ScanQuery],
        result: &mut ScanCycleResult,
    ) -> Result<()> {
        let index = PredicateIndex::over(members.iter().map(|q| (q.query_id, &q.predicate)));
        for (total, served) in result.query_classes.iter_mut().zip(index.class_counts()) {
            *total += served;
        }
        let mut matches = Union::default();
        for chunk in table.chunks() {
            if !index.may_match(&chunk.zones) {
                result.rows_skipped += chunk.rows.len();
                continue;
            }
            for version in chunk.rows.iter().filter(|v| v.visible(snapshot)) {
                let row = version.values();
                result.rows_examined += 1;
                index.matches_into(row, &mut matches)?;
                if !matches.is_empty() {
                    // The emitted tuple *is* the stored version: a reference,
                    // not a copy.
                    let queries = matches.take();
                    result.tuples.push(QTuple::new(row.clone(), queries));
                }
            }
        }
        Ok(())
    }

    /// Serves the cycle through the table's indexes instead of a pass, if
    /// that is possible and cheaper, and says whether it did.
    ///
    /// Possible: [`AccessPath::choose`] — the rule writes find their rows by
    /// — names the key map or a secondary index for *every* query of the
    /// cycle (one query without an indexed equality, prefix or gram needs the
    /// pass anyway, and the pass serves the others for the price of a probe per
    /// row); the key map answers for whichever snapshot the cycle reads.
    /// Cheaper: the versions to fetch — the lengths of the posting lists,
    /// read off the B-tree before anything is fetched, and one per key of the
    /// key map, of every *distinct* path: queries that ask the same thing
    /// share one fetch — are fewer than the versions a pass walks. Both sides of that
    /// comparison are exact counts of the same unit, so there is nothing to
    /// tune, and a cycle never costs more than the pass that bounds it.
    ///
    /// The same rows leave as the pass would emit, in the same order, with
    /// the same query sets: a path only narrows, so each fetched row is
    /// checked against the full predicate — unless that *is* the
    /// equality probed — and the hits leave through the routine an index
    /// probe's do, one tuple per row in ascending `RowId`.
    fn serve_from_indexes(
        table: &Table,
        snapshot: Snapshot,
        members: &[ScanQuery],
        result: &mut ScanCycleResult,
    ) -> Result<bool> {
        // What the cycle fetches: each distinct `(path, residual)` once,
        // with the queries that carry it — the sixteen subject searches of
        // a batch name a dozen subjects.
        let mut fetches: Vec<(AccessPath, Option<&Expr>, QuerySet)> = Vec::new();
        let mut places = WordTable::with_room(members.len());
        let mut to_fetch = 0;
        for query in members {
            let path = AccessPath::choose(table, &query.predicate);
            // A range or a gram narrows a pattern, it does not decide it.
            let narrowed = matches!(
                path,
                AccessPath::IndexRange { .. } | AccessPath::IndexGrams { .. }
            );
            let decided = !narrowed && query.predicate.split_conjuncts().len() == 1;
            let residual = (!decided).then_some(&query.predicate);
            let same = |at: u32| {
                let (fetched, held_against, _) = &fetches[at as usize];
                *fetched == path && *held_against == residual
            };
            let at = *places.entry(path.word(), fetches.len() as u32, same) as usize;
            if at == fetches.len() {
                let Some(versions) = path.fetch_cost(table) else {
                    return Ok(false);
                };
                to_fetch += versions;
                fetches.push((path, residual, QuerySet::new()));
            }
            fetches[at].2.insert(query.query_id);
        }
        if to_fetch >= table.version_count() {
            return Ok(false);
        }
        let mut hits = Hits::default();
        for (path, residual, queries) in &fetches {
            let fetched = path.visible_rows(table, snapshot);
            hits.collect(queries, fetched, *residual)?;
        }
        for query in members {
            // The class the pass would have filed the query in.
            result.query_classes[PredicateClass::of(&query.predicate).slot()] += 1;
        }
        hits.emit(table, &mut result.tuples);
        result.rows_examined += to_fetch;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, TableDef};
    use crate::table::{IndexKind, CHUNK_ROWS};
    use proptest::prelude::*;
    use proptest::TestRng;
    use shareddb_common::ids::Timestamp;
    use shareddb_common::{tuple, BinaryOp, Column, DataType, Error, Tuple, Value};

    fn setup() -> (Catalog, ClockScan) {
        let catalog = Catalog::new();
        let def = TableDef::new("T")
            .column("ID", DataType::Int)
            .column("CATEGORY", DataType::Text)
            .column("PRICE", DataType::Float)
            .primary_key(&["ID"]);
        let table = catalog.create_table(def).unwrap();
        let rows = (0..100i64).map(|i| {
            let category = if i % 2 == 0 { "EVEN" } else { "ODD" };
            tuple![i, category, (i % 10) as f64]
        });
        catalog.bulk_load("T", rows.collect()).unwrap();
        let scan = ClockScan::new(table, catalog.oracle());
        (catalog, scan)
    }

    #[test]
    fn queries_are_batched_and_share_the_pass() {
        let (_, scan) = setup();
        let queries = [
            ScanQuery::new(QueryId(1), Expr::col(1).eq(Expr::lit("EVEN"))),
            ScanQuery::new(QueryId(2), Expr::col(2).gt_eq(Expr::lit(8.0f64))),
        ];
        let result = scan.execute_batch(&queries, &[]).unwrap();

        // 50 even rows, 20 rows with price >= 8 (10 of which are even).
        let q1_rows: usize = result
            .tuples
            .iter()
            .filter(|t| t.queries.contains(QueryId(1)))
            .count();
        let q2_rows: usize = result
            .tuples
            .iter()
            .filter(|t| t.queries.contains(QueryId(2)))
            .count();
        assert_eq!(q1_rows, 50);
        assert_eq!(q2_rows, 20);
        // Shared representation: total emitted tuples is the size of the
        // union, not the sum.
        assert_eq!(result.tuples.len(), 50 + 20 - 10);
    }

    /// Updates commit through the catalog in arrival order; the next cycle
    /// reads the state they left.
    #[test]
    fn updates_apply_in_arrival_order() {
        let (catalog, scan) = setup();
        // Set price to 100 for ID 1, then delete ID 1: the delete wins.
        let update = UpdateOp::Update {
            assignments: vec![(2, Expr::lit(100.0f64))],
            predicate: Expr::col(0).eq(Expr::lit(1i64)),
        };
        assert_eq!(catalog.apply("T", update).unwrap().rows_affected, 1);
        let delete = UpdateOp::Delete {
            predicate: Expr::col(0).eq(Expr::lit(1i64)),
        };
        assert_eq!(catalog.apply("T", delete).unwrap().rows_affected, 1);
        let query = ScanQuery::new(QueryId(9), Expr::col(0).eq(Expr::lit(1i64)));
        let result = scan.execute_batch(&[query], &[]).unwrap();
        assert!(result.tuples.is_empty());
    }

    #[test]
    fn inserts_visible_to_the_next_cycle() {
        let (catalog, scan) = setup();
        let insert = UpdateOp::Insert {
            values: tuple![1000i64, "NEW", 1.0f64],
        };
        catalog.apply("T", insert).unwrap();
        let query = ScanQuery::new(QueryId(3), Expr::col(1).eq(Expr::lit("NEW")));
        let result = scan.execute_batch(&[query], &[]).unwrap();
        assert_eq!(result.tuples.len(), 1);
        assert_eq!(result.tuples[0].tuple[0], Value::Int(1000));
    }

    /// A storage cycle writes nothing: updates handed to one are refused,
    /// not committed past the log.
    #[test]
    fn a_cycle_refuses_updates() {
        let (catalog, scan) = setup();
        let insert = UpdateOp::Insert {
            values: tuple![1000i64, "NEW", 1.0f64],
        };
        let full = [ScanQuery::new(QueryId(1), Expr::lit(true))];
        let refused = scan.execute_batch(&full, std::slice::from_ref(&insert));
        assert!(matches!(refused, Err(Error::Internal(_))), "{refused:?}");
        let probe = crate::IndexProbe::new(catalog.table("T").unwrap(), catalog.oracle());
        let refused = probe.execute_batch(&[], &[insert]);
        assert!(matches!(refused, Err(Error::Internal(_))), "{refused:?}");
        assert_eq!(scan.execute_batch(&full, &[]).unwrap().tuples.len(), 100);
    }

    #[test]
    fn an_empty_cycle_serves_nothing() {
        let (_, scan) = setup();
        let empty = scan.execute_batch(&[], &[]).unwrap();
        assert!(empty.tuples.is_empty());
        assert_eq!((empty.rows_examined, empty.by_index), (0, false));
        let full = [ScanQuery::new(QueryId(2), Expr::lit(true))];
        let second = scan.execute_batch(&full, &[]).unwrap();
        assert_eq!(second.tuples.len(), 100);
    }

    #[test]
    fn hundreds_of_concurrent_queries_bounded_output() {
        let (_, scan) = setup();
        // 500 concurrent queries, each with a different predicate on PRICE.
        let queries: Vec<ScanQuery> = (0..500u32)
            .map(|i| {
                let predicate = Expr::col(2).gt_eq(Expr::lit((i % 10) as f64));
                ScanQuery::new(QueryId(i + 1), predicate)
            })
            .collect();
        let result = scan.execute_batch(&queries, &[]).unwrap();
        // The number of emitted tuples is bounded by the table size (100),
        // independent of the number of queries — the core SharedDB claim.
        assert_eq!(result.tuples.len(), 100);
        // Every tuple is annotated with all queries that want it.
        let total_subscriptions: usize = result.tuples.iter().map(|t| t.queries.len()).sum();
        assert!(total_subscriptions >= 500);
    }

    /// A cycle reads the snapshot it is handed: one pinned before a delete
    /// reads the old version set after the commit, as the next cycle at
    /// the latest state reads none of it.
    #[test]
    fn snapshot_isolation_across_cycles() {
        let (catalog, scan) = setup();
        let before = catalog.pin();
        let delete_all = UpdateOp::Delete {
            predicate: Expr::lit(true),
        };
        assert_eq!(catalog.apply("T", delete_all).unwrap().rows_affected, 100);
        let full = [ScanQuery::new(QueryId(1), Expr::lit(true))];
        let at = |snapshot: Snapshot| scan.execute_at(&full, snapshot).unwrap().tuples.len();
        assert_eq!(
            at(*before),
            100,
            "the pinned cycle lost the old version set"
        );
        assert_eq!(at(catalog.snapshot()), 0);
        assert_eq!(scan.execute_batch(&full, &[]).unwrap().tuples.len(), 0);
    }

    /// A range on a column that grows with arrival order leaves out every
    /// chunk below it — counted, versions and all — and one LIKE in the
    /// cycle makes every chunk a candidate again.
    #[test]
    fn chunks_no_query_can_match_are_left_out() {
        let (catalog, scan) = setup();
        let table = catalog.table("T").unwrap();
        let rows = 3 * CHUNK_ROWS as i64;
        for i in 100..rows {
            let row = tuple![i, "LATE", 0.5f64];
            table.write().insert(row, Timestamp(0)).unwrap();
        }
        let recent = |id| ScanQuery::new(QueryId(id), Expr::col(0).gt_eq(Expr::lit(rows - 10)));
        let counts = |queries: &[ScanQuery]| {
            let cycle = scan.execute_batch(queries, &[]).unwrap();
            (cycle.tuples.len(), cycle.rows_examined, cycle.rows_skipped)
        };
        assert_eq!(counts(&[recent(1)]), (10, CHUNK_ROWS, 2 * CHUNK_ROWS));
        let like = ScanQuery::new(QueryId(2), Expr::col(1).like(Expr::lit("EV%")));
        assert_eq!(counts(&[recent(1), like]), (60, 3 * CHUNK_ROWS, 0));
        // A late arrival with an old value widens the tail chunk and no other.
        let old = UpdateOp::Insert {
            values: tuple![-1i64, "OLD", 0.5f64],
        };
        catalog.apply("T", old).unwrap();
        let early = ScanQuery::new(QueryId(3), Expr::col(0).lt(Expr::lit(0i64)));
        assert_eq!(counts(&[early]), (1, 1, 3 * CHUNK_ROWS));
    }

    // -- the differential property ------------------------------------------

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (0..n).generate(rng)
    }

    /// Where a float stops telling neighbouring integers apart.
    const BIG: i64 = 1 << 53;

    /// How the values of a numeric column lie in the arena.
    #[derive(Debug, Clone, Copy)]
    enum Layout {
        /// Growing with arrival order: chunks hold disjoint ranges.
        Clustered,
        /// No order: every chunk spans the domain.
        Shuffled,
        /// NULL in every row.
        Null,
        /// Clustered, but NULL throughout one chunk.
        NullChunk(usize),
        /// One value per chunk, neighbours around 2^53.
        Big,
    }

    impl Layout {
        fn any(rng: &mut TestRng) -> Layout {
            match pick(rng, 6) {
                0 | 1 => Layout::Clustered,
                2 => Layout::Shuffled,
                3 => Layout::Null,
                4 => Layout::NullChunk(pick(rng, 4)),
                _ => Layout::Big,
            }
        }

        fn number(self, i: usize) -> Option<i64> {
            let (i, chunk) = (i as i64, i / CHUNK_ROWS);
            match self {
                Layout::Clustered => Some(i / 8),
                Layout::Shuffled => Some(i * 7919 % 640),
                Layout::Null => None,
                Layout::NullChunk(c) => (c != chunk).then_some(i / 8),
                Layout::Big => Some(BIG - 1 + chunk as i64),
            }
        }
    }

    /// Columns: ID (key), an Int, a Date, a Float, a Text.
    const NUMERIC: [usize; 3] = [1, 2, 3];

    fn spell(column: usize, n: Option<i64>) -> Value {
        match (column, n) {
            (_, None) => Value::Null,
            (1, Some(n)) => Value::Int(n),
            (2, Some(n)) => Value::Date(n),
            (_, Some(n)) => Value::Float(n as f64),
        }
    }

    /// A value the column admits that is not of its own type: a float (a NaN
    /// at times) among integers and an integer among floats leave the zone
    /// unknown, an integer among dates is one more date.
    fn odd_value(rng: &mut TestRng, column: usize) -> Value {
        match (column, pick(rng, 2)) {
            (1, 0) => Value::Float(2.5),
            (2, _) | (3, 0) => Value::Int(3),
            _ => Value::Float(f64::NAN),
        }
    }

    /// A number near something the layouts hold: a chunk's first or last
    /// clustered value, the neighbours of 2^53, or far outside.
    fn landmark(rng: &mut TestRng) -> i64 {
        let chunk = pick(rng, 6) as i64;
        let near = pick(rng, 3) as i64 - 1;
        match pick(rng, 8) {
            0..=2 => chunk * (CHUNK_ROWS as i64 / 8) + near,
            3 => (chunk + 1) * (CHUNK_ROWS as i64 / 8) - 1 + near,
            4 | 5 => BIG - 2 + chunk,
            6 => pick(rng, 640) as i64,
            _ => [-5, 10_000][pick(rng, 2)],
        }
    }

    fn literal(rng: &mut TestRng) -> Value {
        let n = landmark(rng);
        match pick(rng, 6) {
            0 | 1 => Value::Int(n),
            2 => Value::Date(n),
            3 => Value::Float(n as f64),
            _ => Value::Float(n as f64 + 0.5),
        }
    }

    fn comparison(rng: &mut TestRng) -> Expr {
        const OPS: [BinaryOp; 5] = [
            BinaryOp::GtEq,
            BinaryOp::Gt,
            BinaryOp::Eq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
        ];
        let column = Expr::col(pick(rng, 4));
        column.binary(OPS[pick(rng, OPS.len())], Expr::Literal(literal(rng)))
    }

    fn predicate(rng: &mut TestRng) -> Expr {
        let like =
            |rng: &mut TestRng| Expr::col(4).like(Expr::lit(["a%", "%b", "%"][pick(rng, 3)]));
        match pick(rng, 12) {
            0..=6 => comparison(rng),
            7 => comparison(rng).and(comparison(rng)),
            8 => comparison(rng).and(like(rng)),
            9 => like(rng).and(comparison(rng)),
            10 => comparison(rng).or(comparison(rng)),
            _ => like(rng),
        }
    }

    /// A write after the load, each at its own timestamp.
    fn write(rng: &mut TestRng, rows: usize) -> UpdateOp {
        let row = Expr::col(0).eq(Expr::lit(pick(rng, rows) as i64));
        let column = NUMERIC[pick(rng, 3)];
        match pick(rng, 5) {
            0 => UpdateOp::Delete { predicate: row },
            // A new version in the tail chunk, far from what it held.
            1 => UpdateOp::Update {
                assignments: vec![(column, Expr::Literal(spell(column, Some(landmark(rng)))))],
                predicate: row,
            },
            2 => UpdateOp::Update {
                assignments: vec![(column, Expr::Literal(odd_value(rng, column)))],
                predicate: row,
            },
            // Moves the key: the old version dies, the new one is elsewhere.
            3 => UpdateOp::Update {
                assignments: vec![(0, Expr::col(0).binary(BinaryOp::Add, Expr::lit(100_000i64)))],
                predicate: row,
            },
            // A late arrival with old values.
            _ => {
                let mut row = vec![Value::Int((200_000 + pick(rng, 1_000)) as i64)];
                row.extend(NUMERIC.map(|c| spell(c, Some(landmark(rng)))));
                row.push(Value::text("ab"));
                UpdateOp::Insert {
                    values: Tuple::new(row),
                }
            }
        }
    }

    #[derive(Debug)]
    struct Case {
        rows: usize,
        layouts: [Layout; 3],
        /// `(row, column, value)`: one loaded value replaced by an odd one.
        odd: Option<(usize, usize, Value)>,
        writes: Vec<UpdateOp>,
        cycles: Vec<Cycle>,
    }

    /// The timestamp one cycle reads (`None`: the latest) and its
    /// predicates.
    type Cycle = (Option<u64>, Vec<Expr>);

    /// A past timestamp one time in five, else the latest.
    fn pinned(rng: &mut TestRng, last_write: usize) -> Option<u64> {
        (pick(rng, 5) == 0).then(|| 1 + pick(rng, 1 + last_write) as u64)
    }

    fn cycle(rng: &mut TestRng, last_write: usize) -> Cycle {
        // Mostly few: the fewer a cycle holds, the more it leaves out.
        let mut queries: Vec<Expr> = (0..[1, 1, 2, 4][pick(rng, 4)])
            .map(|_| predicate(rng))
            .collect();
        // Duplicates of one comparison collapse into one entry.
        if pick(rng, 3) == 0 {
            queries.push(queries[0].clone());
        }
        (pinned(rng, last_write), queries)
    }

    struct Cases;

    impl Strategy for Cases {
        type Value = Case;
        fn generate(&self, rng: &mut TestRng) -> Case {
            // Three to five chunks, the last one partly filled.
            let rows = (2 + pick(rng, 3)) * CHUNK_ROWS + 1 + pick(rng, CHUNK_ROWS);
            let layouts = [Layout::any(rng), Layout::any(rng), Layout::any(rng)];
            let odd = (pick(rng, 4) == 0).then(|| {
                let column = NUMERIC[pick(rng, 3)];
                (pick(rng, rows), column, odd_value(rng, column))
            });
            let writes: Vec<UpdateOp> = (0..pick(rng, 5)).map(|_| write(rng, rows)).collect();
            // The table is the expensive part of a case: several cycles scan it.
            let cycles = (0..1 + pick(rng, 6))
                .map(|_| cycle(rng, writes.len()))
                .collect();
            Case {
                rows,
                layouts,
                odd,
                writes,
                cycles,
            }
        }
    }

    impl Case {
        /// The table loaded at timestamp 1 and written at 2, 3, …
        fn table(&self) -> Table {
            let schema = Schema::new(vec![
                Column::new("ID", DataType::Int),
                Column::nullable("N", DataType::Int),
                Column::nullable("D", DataType::Date),
                Column::nullable("F", DataType::Float),
                Column::new("S", DataType::Text),
            ]);
            let mut table = Table::new("T", schema, vec![0]);
            for i in 0..self.rows {
                let mut row = vec![Value::Int(i as i64)];
                row.extend(NUMERIC.map(|c| match &self.odd {
                    Some((at, column, odd)) if (*at, *column) == (i, c) => odd.clone(),
                    _ => spell(c, self.layouts[c - 1].number(i)),
                }));
                row.push(Value::text(["a", "b", "ab"][i % 3]));
                table.insert(Tuple::new(row), Timestamp(1)).unwrap();
            }
            for (i, op) in self.writes.iter().enumerate() {
                // A write that fails (a taken key, a dead row) writes nothing.
                let _ = crate::update::apply_update(&mut table, op, Timestamp(2 + i as u64));
            }
            table
        }
    }

    /// What the cycle must emit, from a walk that leaves nothing out and
    /// evaluates every predicate on every visible row.
    fn full_walk(
        table: &Table,
        queries: &[ScanQuery],
        snapshot: Snapshot,
    ) -> Vec<(Tuple, Vec<QueryId>)> {
        let mut emitted = Vec::new();
        for (_, row) in table.scan(snapshot) {
            let selecting = queries
                .iter()
                .filter(|q| q.predicate.eval_predicate(row).unwrap());
            let mut ids: Vec<QueryId> = selecting.map(|q| q.query_id).collect();
            ids.sort();
            if !ids.is_empty() {
                emitted.push((row.clone(), ids));
            }
        }
        emitted
    }

    /// Runs `cycles` over `table`, written up to timestamp `last_write`, and
    /// holds what each emits — rows, query sets, order — against the full
    /// walk.
    fn assert_cycles_equal_full_walk(
        table: Table,
        last_write: u64,
        cycles: &[Cycle],
        case: &dyn std::fmt::Debug,
    ) {
        let table = Arc::new(RwLock::new(table));
        let oracle = Arc::new(TimestampOracle::new());
        oracle.restore(Timestamp(last_write));
        let scan = ClockScan::new(Arc::clone(&table), Arc::clone(&oracle));
        for (pinned, predicates) in cycles {
            let queries: Vec<ScanQuery> = predicates
                .iter()
                .enumerate()
                .map(|(i, predicate)| ScanQuery::new(QueryId(i as u32), predicate.clone()))
                .collect();
            let (cycle, snapshot) = match pinned {
                Some(ts) => {
                    let snapshot = Snapshot::at(Timestamp(*ts));
                    (scan.execute_at(&queries, snapshot).unwrap(), snapshot)
                }
                None => (scan.execute_batch(&queries, &[]).unwrap(), oracle.read_ts()),
            };
            let emitted: Vec<(Tuple, Vec<QueryId>)> = cycle
                .tuples
                .iter()
                .map(|t| (t.tuple.clone(), t.queries.iter().collect()))
                .collect();
            let expected = full_walk(&table.read(), &queries, snapshot);
            prop_assert!(
                emitted == expected,
                "{queries:?} at {snapshot:?}: {} rows, the full walk {} ({} versions left out, by index {})\nin {case:#?}",
                emitted.len(),
                expected.len(),
                cycle.rows_skipped,
                cycle.by_index
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Leaving chunks out never changes what a cycle emits: the same rows
        /// with the same query sets in the same order as the full walk —
        /// whatever lies in the chunks (dead versions, NULLs, odd values,
        /// late arrivals), whatever the cycle asks, pinned or not.
        #[test]
        fn zone_skipping_scan_equals_full_scan(case in Cases) {
            let last_write = 1 + case.writes.len() as u64;
            assert_cycles_equal_full_walk(case.table(), last_write, &case.cycles, &case);
        }
    }

    // -- cycles served from the indexes ---------------------------------------

    /// ID (the key), N (integers, indexed), D (dates, indexed), S (text,
    /// indexed by value and by gram), X (integers, no index), G (text or
    /// NULL, indexed by gram only).
    fn indexed_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("ID", DataType::Int),
            Column::nullable("N", DataType::Int),
            Column::nullable("D", DataType::Date),
            Column::new("S", DataType::Text),
            Column::new("X", DataType::Int),
            Column::nullable("G", DataType::Text),
        ]);
        let mut table = Table::new("T", schema, vec![0]);
        for (name, column) in [("T_N", 1), ("T_D", 2), ("T_S", 3)] {
            table.create_index(name, column, IndexKind::Values).unwrap();
        }
        for (name, column) in [("T_S_GRAMS", 3), ("T_G", 5)] {
            table.create_index(name, column, IndexKind::Grams).unwrap();
        }
        table
    }

    /// An equality-only cycle costs its posting lists, not the table — as
    /// long as they are shorter than the table and every query has one —
    /// whichever snapshot it reads.
    #[test]
    fn equality_only_cycles_are_served_from_the_indexes() {
        let mut table = indexed_table();
        for i in 0..100i64 {
            let row = tuple![
                i,
                i % 10,
                Value::Date(i % 4),
                ["a", "b"][(i % 2) as usize],
                i,
                format!("BOOK {i} of {}", i % 7)
            ];
            table.insert(row, Timestamp(0)).unwrap();
        }
        let table = Arc::new(RwLock::new(table));
        let oracle = Arc::new(TimestampOracle::new());
        let scan = ClockScan::new(Arc::clone(&table), Arc::clone(&oracle));
        let eq = |column: usize, literal: Value| Expr::col(column).eq(Expr::Literal(literal));
        let counts = |predicates: Vec<Expr>, pinned: Option<Snapshot>| {
            let queries = predicates.into_iter().enumerate();
            let queries: Vec<ScanQuery> = queries
                .map(|(i, p)| ScanQuery::new(QueryId(i as u32), p))
                .collect();
            let snapshot = pinned.unwrap_or_else(|| oracle.read_ts());
            let cycle = scan.execute_at(&queries, snapshot).unwrap();
            let expected = full_walk(&table.read(), &queries, snapshot);
            let emitted = cycle.tuples.iter();
            assert!(emitted
                .map(|t| (t.tuple.clone(), t.queries.iter().collect()))
                .eq(expected));
            (cycle.by_index, cycle.rows_examined, cycle.tuples.len())
        };
        // Ten versions hold N = 3; the second spelling's list is empty.
        assert_eq!(counts(vec![eq(1, Value::Int(3))], None), (true, 10, 10));
        assert_eq!(counts(vec![eq(1, Value::Date(3))], None), (true, 10, 10));
        // Fetched rows are held against the rest of the predicate.
        let and_small = eq(1, Value::Int(3)).and(Expr::col(4).lt(Expr::lit(50i64)));
        assert_eq!(counts(vec![and_small], None), (true, 10, 5));
        // Two queries, five rows in common: 10 + 25 fetched, 30 emitted.
        let two = vec![eq(1, Value::Int(3)), eq(2, Value::Date(3))];
        assert_eq!(counts(two, None), (true, 35, 30));
        // One key of the key map, under either spelling.
        assert_eq!(counts(vec![eq(0, Value::Int(7))], None), (true, 2, 1));
        // A prefix is a range of the index: the entries in it are the cost,
        // and the pattern is held against every row fetched.
        let like = |pattern: &str| Expr::col(3).like(Expr::lit(pattern));
        assert_eq!(counts(vec![like("a%")], None), (true, 50, 50));
        let both = vec![eq(1, Value::Int(3)), like("a%")];
        assert_eq!(counts(both, None), (true, 60, 60));
        // An infix is the shortest posting list among the pattern's grams —
        // `K 7`, ` 7 `, `7 o`: eleven titles hold the first, one all three —
        // and the pattern is held against every row fetched.
        let title = |pattern: &str| Expr::col(5).like(Expr::lit(pattern));
        assert_eq!(counts(vec![title("%K 7 o%")], None), (true, 1, 1));
        assert_eq!(counts(vec![title("%OK 7%")], None), (true, 11, 11));
        assert_eq!(counts(vec![title("%K 7_ of%")], None), (true, 11, 10));
        // Two segments: `K 3` of the first (11 titles) is rarer than `f 3`
        // of the second (14).
        assert_eq!(counts(vec![title("BOOK 3%of 3")], None), (true, 11, 3));
        assert_eq!(counts(vec![title("%no such%")], None), (true, 0, 0));
        let beside = vec![eq(1, Value::Int(3)), title("%K 7 o%")];
        assert_eq!(counts(beside, None), (true, 11, 11));
        // A gram every title holds names the whole table: the pass is as
        // cheap; and so is it when no segment is three bytes long.
        for (pattern, selected) in [("%BOOK%", 100), ("%7_ o%", 10), ("_O%", 100)] {
            assert_eq!(counts(vec![title(pattern)], None), (false, 100, selected));
        }
        let negated = Expr::Like {
            expr: Box::new(Expr::col(5)),
            pattern: Box::new(Expr::lit("%K 7 o%")),
            negated: true,
        };
        assert_eq!(counts(vec![negated], None), (false, 100, 99));
        // A query no index answers takes the cycle to the pass …
        for (pattern, selected) in [("%a", 60), ("%", 100), ("a_%", 10), ("a%a%", 10)] {
            let beside = vec![eq(1, Value::Int(3)), like(pattern)];
            assert_eq!(counts(beside, None), (false, 100, selected), "{pattern}");
        }
        let by_float = vec![eq(1, Value::Float(3.0))];
        assert_eq!(counts(by_float, None), (false, 100, 10));
        // … and so do posting lists as long as the table: 50 + 50.
        let halves = vec![eq(3, Value::text("a")), eq(3, Value::text("b"))];
        assert_eq!(counts(halves, None), (false, 100, 100));
        // Queries that ask the same thing share one fetch, and it is the
        // fetches that are held against the pass: the same half three times
        // is 50 versions, not 150 — beside a residual of its own, 50 more.
        let thrice = vec![eq(3, Value::text("a")); 3];
        assert_eq!(counts(thrice, None), (true, 50, 50));
        let twice = vec![
            eq(1, Value::Int(3)),
            eq(2, Value::Date(3)),
            eq(1, Value::Int(3)),
        ];
        assert_eq!(counts(twice, None), (true, 35, 30));
        let and_odd = eq(3, Value::text("a")).and(Expr::col(4).lt(Expr::lit(50i64)));
        let held = vec![eq(3, Value::text("a")), and_odd.clone(), and_odd];
        assert_eq!(counts(held, None), (false, 100, 50));
        // After a write the key map leads a pinned query back to the version
        // it sees; the secondary indexes hold every version anyway.
        let before = oracle.read_ts();
        let delete = UpdateOp::Delete {
            predicate: eq(0, Value::Int(7)),
        };
        let commit = oracle.next_commit_ts();
        crate::update::apply_update(&mut table.write(), &delete, commit).unwrap();
        oracle.publish(commit);
        let by_key = || vec![eq(0, Value::Int(7))];
        assert_eq!(counts(by_key(), None), (true, 2, 0));
        assert_eq!(counts(by_key(), Some(before)), (true, 2, 1));
        let sevens = || vec![eq(1, Value::Int(7))];
        assert_eq!(counts(sevens(), None), (true, 10, 9));
        assert_eq!(counts(sevens(), Some(before)), (true, 10, 10));
    }

    /// An integer or a date under either spelling, now and then the float
    /// the integer column admits as well.
    fn spelled(rng: &mut TestRng, below: usize) -> Value {
        let n = pick(rng, below) as i64;
        match pick(rng, 8) {
            0..=3 => Value::Int(n),
            4..=6 => Value::Date(n),
            _ => Value::Float(n as f64),
        }
    }

    const TEXTS: [&str; 4] = ["all", "a", "b", "ab"];

    /// Strings whose last character is where a prefix's successor is hard:
    /// two and four bytes long, either side of the surrogate gap, the last
    /// character there is — alone, twice, and with a character behind it.
    const EDGES: [&str; 9] = [
        "a\u{e9}",
        "a\u{ff}",
        "a\u{ff}b",
        "a\u{d7ff}",
        "a\u{e000}",
        "a\u{10ffff}",
        "a\u{10ffff}b",
        "\u{10ffff}",
        "\u{10ffff}\u{10ffff}",
    ];

    fn text(rng: &mut TestRng) -> &'static str {
        match pick(rng, 6) {
            0 => EDGES[pick(rng, EDGES.len())],
            _ => TEXTS[pick(rng, TEXTS.len())],
        }
    }

    /// `S LIKE pattern`: mostly a prefix of something the column holds (a
    /// range of its index), now and then a pattern that is none — no prefix
    /// before the `%`, or a second wildcard — and has to take the pass.
    fn prefix_like(rng: &mut TestRng) -> Expr {
        let pattern = match pick(rng, 8) {
            0 => ["%", "a_%", "%a", "a%l%", "al"][pick(rng, 5)].to_string(),
            1 => format!("{}%", ["al", "all", "none", "b"][pick(rng, 4)]),
            _ => format!("{}%", text(rng)),
        };
        Expr::col(3).like(Expr::lit(pattern))
    }

    /// What a gram-indexed column holds: nothing, less than a gram, one gram,
    /// a gram twice, segments a pattern names in and out of order, and two-,
    /// three- and four-byte characters in the middle of a window.
    const TITLES: [&str; 14] = [
        "",
        "ab",
        "abc",
        "abcabc",
        "xabcdex",
        "ab cde",
        "cde ab",
        "abXcde",
        "a\u{e9}bc",
        "a\u{20ac}bc",
        "a\u{1f600}bc",
        "\u{e9}\u{20ac}",
        "BOOK 12",
        "BOOK 123",
    ];

    /// `G LIKE pattern` — on S at times, whose values an index files as well:
    /// an infix, several segments, `_` inside a segment and between two,
    /// segments too short to hold a gram, a pattern that is one gram, a
    /// prefix (a range on S, grams on G), characters of several bytes, the
    /// empty pattern; negated now and then, which no index answers.
    fn gram_like(rng: &mut TestRng) -> Expr {
        const PATTERNS: [&str; 30] = [
            "%abc%",
            "abc",
            "%ab%cde%",
            "%cde%ab%",
            "%ab_cde%",
            "%a_c%",
            "a_c",
            "%ab%",
            "_b%",
            "%",
            "",
            "%bcd",
            "abc%",
            "%bca%",
            "%a\u{e9}%",
            "%a\u{e9}b%",
            "%\u{e9}bc",
            "%\u{20ac}%",
            "%a\u{20ac}b%",
            "%\u{1f600}%",
            "%a\u{1f600}b%",
            "a_bc",
            "%_\u{20ac}",
            "%BOOK 1%",
            "%OK 12_",
            "%K 123%",
            "%all%",
            "%ll",
            "a%l",
            "%a\u{10ffff}b%",
        ];
        let column = [5, 5, 5, 3][pick(rng, 4)];
        Expr::Like {
            expr: Box::new(Expr::col(column)),
            pattern: Box::new(Expr::lit(PATTERNS[pick(rng, PATTERNS.len())])),
            negated: pick(rng, 10) == 0,
        }
    }

    fn indexed_row(rng: &mut TestRng, id: i64) -> Tuple {
        let n = match pick(rng, 10) {
            0 => Value::Null,
            _ => spelled(rng, 5),
        };
        let d = match (pick(rng, 10), pick(rng, 4) as i64) {
            (0, _) => Value::Null,
            (1 | 2, d) => Value::Int(d),
            (_, d) => Value::Date(d),
        };
        // Most rows hold 'all': a posting list nearly as long as the table.
        let s = match pick(rng, 8) {
            0..=4 => "all",
            _ => text(rng),
        };
        let g = match pick(rng, 12) {
            0 => Value::Null,
            _ => Value::text(TITLES[pick(rng, TITLES.len())]),
        };
        Tuple::new(vec![
            Value::Int(id),
            n,
            d,
            Value::text(s),
            Value::Int(pick(rng, 7) as i64),
            g,
        ])
    }

    /// `column = literal` with an index (or the key map) behind it: under
    /// either spelling of a number, and for a value no row holds.
    fn probed_equality(rng: &mut TestRng, rows: usize) -> Expr {
        let number = |rng: &mut TestRng, n: usize| match pick(rng, 2) {
            0 => Value::Int(pick(rng, n) as i64),
            _ => Value::Date(pick(rng, n) as i64),
        };
        let (column, literal) = match pick(rng, 8) {
            0 | 1 => (0, number(rng, rows + 2)),
            2 | 3 => (1, number(rng, 6)),
            4 | 5 => (2, number(rng, 5)),
            _ => (
                3,
                Value::text(["all", "a", "b", "ab", "none"][pick(rng, 5)]),
            ),
        };
        match pick(rng, 4) {
            0 => Expr::Literal(literal).eq(Expr::col(column)),
            _ => Expr::col(column).eq(Expr::Literal(literal)),
        }
    }

    /// A predicate no index of the table answers.
    fn unprobed(rng: &mut TestRng) -> Expr {
        match pick(rng, 6) {
            0 => Expr::col(4).eq(Expr::lit(pick(rng, 7) as i64)),
            1 => Expr::col(1).gt(Expr::lit(pick(rng, 5) as i64)),
            2 => Expr::col(3).like(Expr::lit(["%a", "%b", "_ll"][pick(rng, 3)])),
            3 => Expr::col(1).eq(Expr::lit(pick(rng, 5) as f64)),
            4 => Expr::col(1).eq(Expr::Literal(Value::Null)),
            _ => Expr::col(1)
                .eq(Expr::lit(1i64))
                .or(Expr::col(2).eq(Expr::lit(1i64))),
        }
    }

    fn indexed_predicate(rng: &mut TestRng, rows: usize) -> Expr {
        match pick(rng, 22) {
            0..=5 => probed_equality(rng, rows),
            6 | 7 => probed_equality(rng, rows).and(unprobed(rng)),
            8 => unprobed(rng).and(probed_equality(rng, rows)),
            9 => probed_equality(rng, rows).and(probed_equality(rng, rows)),
            10 | 11 => prefix_like(rng),
            12 => prefix_like(rng).and(unprobed(rng)),
            13 => prefix_like(rng).and(probed_equality(rng, rows)),
            14..=17 => gram_like(rng),
            18 => gram_like(rng).and(unprobed(rng)),
            19 => gram_like(rng).and(gram_like(rng)),
            20 => gram_like(rng).and(probed_equality(rng, rows)),
            _ => unprobed(rng),
        }
    }

    /// A write after the load, each at its own timestamp: versions die, keys
    /// move, rows arrive late.
    fn indexed_write(rng: &mut TestRng, rows: usize) -> UpdateOp {
        let row = Expr::col(0).eq(Expr::lit(pick(rng, rows) as i64));
        let set = |column: usize, value: Value, predicate: Expr| UpdateOp::Update {
            assignments: vec![(column, Expr::Literal(value))],
            predicate,
        };
        match pick(rng, 9) {
            0 => UpdateOp::Delete { predicate: row },
            1 => set(1, spelled(rng, 5), row),
            2 => set(2, Value::Date(pick(rng, 4) as i64), row),
            3 => set(3, Value::text(text(rng)), row),
            // The title changes; every other update keeps it.
            7 => set(5, Value::text(TITLES[pick(rng, TITLES.len())]), row),
            // A key written again, if a delete has freed it.
            8 => {
                let id = pick(rng, rows) as i64;
                UpdateOp::Insert {
                    values: indexed_row(rng, id),
                }
            }
            // Every row of one value at once.
            4 => set(
                4,
                Value::Int(9),
                Expr::col(1).eq(Expr::lit(pick(rng, 5) as i64)),
            ),
            5 => UpdateOp::Update {
                assignments: vec![(0, Expr::col(0).binary(BinaryOp::Add, Expr::lit(1_000i64)))],
                predicate: row,
            },
            _ => {
                let id = (2_000 + pick(rng, 100)) as i64;
                UpdateOp::Insert {
                    values: indexed_row(rng, id),
                }
            }
        }
    }

    #[derive(Debug)]
    struct IndexedCase {
        rows: Vec<Tuple>,
        writes: Vec<UpdateOp>,
        cycles: Vec<Cycle>,
    }

    struct IndexedCases;

    impl Strategy for IndexedCases {
        type Value = IndexedCase;
        fn generate(&self, rng: &mut TestRng) -> IndexedCase {
            let rows: Vec<Tuple> = (0..8 + pick(rng, 40))
                .map(|id| indexed_row(rng, id as i64))
                .collect();
            let writes: Vec<UpdateOp> = (0..pick(rng, 10))
                .map(|_| indexed_write(rng, rows.len()))
                .collect();
            let cycles = (0..1 + pick(rng, 6)).map(|_| {
                // Few queries: the fewer, the shorter their posting lists.
                let mut queries: Vec<Expr> = (0..[1, 1, 2, 3][pick(rng, 4)])
                    .map(|_| indexed_predicate(rng, rows.len()))
                    .collect();
                // The same question more than once: one fetch, filed under
                // every query that asks it.
                for _ in 0..[0, 0, 1, 3][pick(rng, 4)] {
                    queries.push(queries[pick(rng, queries.len())].clone());
                }
                (pinned(rng, writes.len()), queries)
            });
            IndexedCase {
                cycles: cycles.collect(),
                rows,
                writes,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Serving a cycle from the indexes never changes what a cycle emits:
        /// the same rows with the same query sets in the same order as the
        /// full walk — over dead versions and moved keys, numbers stored and
        /// asked for under either spelling, equalities, prefixes and patterns
        /// with a gram in them alone, with a residual conjunct, twice in a
        /// cycle, beside a query no index answers, naming most of the table,
        /// pinned to the past — the key map included, titles changed, kept,
        /// deleted and written again since.
        #[test]
        fn index_served_cycle_equals_scanned_cycle(case in IndexedCases) {
            let mut table = indexed_table();
            for row in &case.rows {
                table.insert(row.clone(), Timestamp(1)).unwrap();
            }
            for (i, op) in case.writes.iter().enumerate() {
                // A write that fails (a taken key, a dead row) writes nothing.
                let _ = crate::update::apply_update(&mut table, op, Timestamp(2 + i as u64));
            }
            let last_write = 1 + case.writes.len() as u64;
            assert_cycles_equal_full_walk(table, last_write, &case.cycles, &case);
        }
    }
}
