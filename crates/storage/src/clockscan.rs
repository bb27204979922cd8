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
//! * A cycle does what its queries need and no more: when every query of a
//!   snapshot group holds an equality, a `LIKE 'prefix%'` — or, on a column
//!   indexed by gram, any `LIKE` whose pattern spells three bytes in a row
//!   (`'%BOOK 12%'`) — an index of the table answers, and the posting lists
//!   they name are together shorter than the table, the group is served
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
use parking_lot::RwLock;
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
    /// Optional pinned read snapshot. `None` (the default) reads the cycle's
    /// own snapshot — the latest committed state.
    /// A pinned snapshot lets a caller that runs one logical query in
    /// several scan cycles (a differential test comparing two engines) give
    /// every run the same consistent view.
    pub snapshot: Option<Snapshot>,
}

impl ScanQuery {
    /// Creates a scan query.
    pub fn new(query_id: QueryId, predicate: Expr) -> Self {
        ScanQuery {
            query_id,
            predicate,
            snapshot: None,
        }
    }

    /// A full-table scan for the given query.
    pub fn full_scan(query_id: QueryId) -> Self {
        ScanQuery::new(query_id, Expr::lit(true))
    }

    /// Pins the query to a fixed read snapshot.
    pub fn at_snapshot(mut self, snapshot: Option<Snapshot>) -> Self {
        self.snapshot = snapshot;
        self
    }
}

/// Result of one ClockScan cycle.
#[derive(Debug, Default)]
pub struct ScanCycleResult {
    /// All rows selected by at least one query of the batch, annotated with
    /// the queries that selected them.
    pub tuples: Vec<QTuple>,
    /// The ids of the queries that were served by this cycle.
    pub served_queries: Vec<QueryId>,
    /// The snapshot the queries of this cycle read.
    pub snapshot: Snapshot,
    /// Visible rows of the table probed against the predicate index
    /// (`tuples.len() / rows_examined` is the scan's useful-work ratio); for
    /// a group served from the indexes, the versions fetched through their
    /// posting lists and the key map.
    pub rows_examined: usize,
    /// Versions, visible or not, in the chunks the pass left out because no
    /// query of the cycle could match anything in them.
    pub rows_skipped: usize,
    /// Queries served per predicate class, in the order of
    /// [`PredicateClass::NAMES`](crate::predicate_index::PredicateClass::NAMES).
    pub query_classes: [usize; 3],
    /// Snapshot groups of the cycle (one, unless queries are pinned) served
    /// by each path, in the order of [`ScanCycleResult::PATHS`].
    pub groups_served: [usize; 2],
}

impl ScanCycleResult {
    /// How a snapshot group is served: by the pass over the version arena,
    /// or through the table's indexes.
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
    /// queueing): evaluates all queries against one consistent snapshot, the
    /// latest committed state — which includes the batch's own updates, as
    /// the engine commits them through the catalog first. `updates` must be
    /// empty (the cycle writes nothing): a non-empty slice is an
    /// [`Error::Internal`](shareddb_common::Error::Internal).
    pub fn execute_batch(
        &self,
        queries: &[ScanQuery],
        updates: &[UpdateOp],
    ) -> Result<ScanCycleResult> {
        refuse_cycle_updates(updates)?;
        // Queries pinned to an explicit snapshot read that version set
        // instead; queries are grouped by effective snapshot so each group
        // still shares one table scan (with no pinned queries — the common
        // case — this is exactly one group).
        let snapshot = self.oracle.read_ts();
        let mut result = ScanCycleResult {
            served_queries: queries.iter().map(|q| q.query_id).collect(),
            snapshot,
            ..ScanCycleResult::default()
        };
        if !queries.is_empty() {
            let groups = crate::mvcc::group_by_snapshot(queries, snapshot, |q| q.snapshot);
            let table = self.table.read();
            for (snapshot, members) in groups {
                let by_index = Self::serve_from_indexes(&table, snapshot, &members, &mut result)?;
                if !by_index {
                    Self::scan(&table, snapshot, &members, &mut result)?;
                }
                result.groups_served[by_index as usize] += 1;
            }
        }
        Ok(result)
    }

    /// One pass for one snapshot group: walks the version arena chunk by
    /// chunk, leaving out every chunk whose zones no query of the group can
    /// meet (a group holding a LIKE or a text comparison meets all of them),
    /// and probes each visible row against the group's predicate index.
    fn scan(
        table: &Table,
        snapshot: Snapshot,
        members: &[&ScanQuery],
        result: &mut ScanCycleResult,
    ) -> Result<()> {
        let index = PredicateIndex::over(members.iter().map(|q| (q.query_id, &q.predicate)));
        for (total, served) in result.query_classes.iter_mut().zip(index.class_counts()) {
            *total += served;
        }
        let mut matches = Vec::new();
        // Neighbouring rows mostly interest the same queries: a set too long
        // to live inline is the previous row's, shared, when it is equal.
        let mut previous = QuerySet::new();
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
                    previous = QuerySet::from_ids_like(&mut matches, &previous);
                    matches.clear();
                    result
                        .tuples
                        .push(QTuple::new(row.clone(), previous.clone()));
                }
            }
        }
        Ok(())
    }

    /// Serves one snapshot group through the table's indexes instead of a
    /// pass, if that is possible and cheaper, and says whether it did.
    ///
    /// Possible: [`AccessPath::choose`] — the rule writes find their rows by
    /// — names the key map or a secondary index for *every* query of the
    /// group (one query without an indexed equality, prefix or gram needs the
    /// pass anyway, and the pass serves the others for the price of a probe per
    /// row); the key map answers for whichever snapshot the group reads.
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
        members: &[&ScanQuery],
        result: &mut ScanCycleResult,
    ) -> Result<bool> {
        // What the group fetches: each distinct `(path, residual)` once,
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
            hits.collect(queries.as_slice(), fetched, *residual)?;
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
        assert_eq!(result.served_queries.len(), 2);

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
        let full = [ScanQuery::full_scan(QueryId(1))];
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
        assert!(empty.served_queries.is_empty());
        assert!(empty.tuples.is_empty());
        let full = [ScanQuery::full_scan(QueryId(2))];
        let second = scan.execute_batch(&full, &[]).unwrap();
        assert_eq!(second.served_queries, vec![QueryId(2)]);
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

    /// A query pinned to an older snapshot reads that version set even when
    /// the cycle's own snapshot has moved on; unpinned queries of the same
    /// batch read the current state.
    #[test]
    fn pinned_snapshot_reads_older_version_set() {
        let (catalog, scan) = setup();
        let pinned = catalog.pin();
        let delete_all = UpdateOp::Delete {
            predicate: Expr::lit(true),
        };
        catalog.apply("T", delete_all).unwrap();
        let res = scan
            .execute_batch(
                &[
                    ScanQuery::full_scan(QueryId(1)).at_snapshot(Some(*pinned)),
                    ScanQuery::full_scan(QueryId(2)),
                ],
                &[],
            )
            .unwrap();
        let count = |q: u32| {
            res.tuples
                .iter()
                .filter(|t| t.queries.contains(QueryId(q)))
                .count()
        };
        assert_eq!(count(1), 100, "pinned query lost the old version set");
        assert_eq!(count(2), 0, "unpinned query saw resurrected rows");
    }

    #[test]
    fn snapshot_isolation_across_cycles() {
        let (catalog, scan) = setup();
        let before = catalog.pin();
        let delete_all = UpdateOp::Delete {
            predicate: Expr::lit(true),
        };
        assert_eq!(catalog.apply("T", delete_all).unwrap().rows_affected, 100);
        let count = |snapshot: Option<Snapshot>| {
            let full = [ScanQuery::full_scan(QueryId(1)).at_snapshot(snapshot)];
            scan.execute_batch(&full, &[]).unwrap().tuples.len()
        };
        // The old snapshot still sees all 100 rows.
        assert_eq!(count(Some(*before)), 100);
        // A new snapshot sees none.
        assert_eq!(count(None), 0);
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

    /// The predicates of one cycle, each with the timestamp it is pinned to.
    type Cycle = Vec<(Expr, Option<u64>)>;

    fn cycle(rng: &mut TestRng, last_write: usize) -> Cycle {
        // Mostly few: the fewer a cycle holds, the more it leaves out.
        let mut queries: Vec<(Expr, Option<u64>)> = (0..[1, 1, 2, 4][pick(rng, 4)])
            .map(|_| {
                let pinned = (pick(rng, 5) == 0).then(|| 1 + pick(rng, 1 + last_write) as u64);
                (predicate(rng), pinned)
            })
            .collect();
        // Duplicates of one comparison collapse into one entry.
        if pick(rng, 3) == 0 {
            queries.push(queries[0].clone());
        }
        queries
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
        latest: Snapshot,
    ) -> Vec<(Tuple, Vec<QueryId>)> {
        let mut emitted = Vec::new();
        for (snapshot, members) in crate::mvcc::group_by_snapshot(queries, latest, |q| q.snapshot) {
            for (_, row) in table.scan(snapshot) {
                let selecting = members
                    .iter()
                    .filter(|q| q.predicate.eval_predicate(row).unwrap());
                let mut ids: Vec<QueryId> = selecting.map(|q| q.query_id).collect();
                ids.sort();
                if !ids.is_empty() {
                    emitted.push((row.clone(), ids));
                }
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
        for queries in cycles {
            let queries: Vec<ScanQuery> = queries
                .iter()
                .enumerate()
                .map(|(i, (predicate, pinned))| {
                    let pinned = pinned.map(|ts| Snapshot::at(Timestamp(ts)));
                    ScanQuery::new(QueryId(i as u32), predicate.clone()).at_snapshot(pinned)
                })
                .collect();
            let cycle = scan.execute_batch(&queries, &[]).unwrap();
            let emitted: Vec<(Tuple, Vec<QueryId>)> = cycle
                .tuples
                .iter()
                .map(|t| (t.tuple.clone(), t.queries.iter().collect()))
                .collect();
            let expected = full_walk(&table.read(), &queries, oracle.read_ts());
            prop_assert!(
                emitted == expected,
                "{queries:?}: {} rows, the full walk {} ({} versions left out, groups served {:?})\nin {case:#?}",
                emitted.len(),
                expected.len(),
                cycle.rows_skipped,
                cycle.groups_served
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
                .map(|(i, p)| ScanQuery::new(QueryId(i as u32), p).at_snapshot(pinned))
                .collect();
            let cycle = scan.execute_batch(&queries, &[]).unwrap();
            let expected = full_walk(&table.read(), &queries, oracle.read_ts());
            let emitted = cycle.tuples.iter();
            assert!(emitted
                .map(|t| (t.tuple.clone(), t.queries.iter().collect()))
                .eq(expected));
            (cycle.groups_served, cycle.rows_examined, cycle.tuples.len())
        };
        // Ten versions hold N = 3; the second spelling's list is empty.
        assert_eq!(counts(vec![eq(1, Value::Int(3))], None), ([0, 1], 10, 10));
        assert_eq!(counts(vec![eq(1, Value::Date(3))], None), ([0, 1], 10, 10));
        // Fetched rows are held against the rest of the predicate.
        let and_small = eq(1, Value::Int(3)).and(Expr::col(4).lt(Expr::lit(50i64)));
        assert_eq!(counts(vec![and_small], None), ([0, 1], 10, 5));
        // Two queries, five rows in common: 10 + 25 fetched, 30 emitted.
        let two = vec![eq(1, Value::Int(3)), eq(2, Value::Date(3))];
        assert_eq!(counts(two, None), ([0, 1], 35, 30));
        // One key of the key map, under either spelling.
        assert_eq!(counts(vec![eq(0, Value::Int(7))], None), ([0, 1], 2, 1));
        // A prefix is a range of the index: the entries in it are the cost,
        // and the pattern is held against every row fetched.
        let like = |pattern: &str| Expr::col(3).like(Expr::lit(pattern));
        assert_eq!(counts(vec![like("a%")], None), ([0, 1], 50, 50));
        let both = vec![eq(1, Value::Int(3)), like("a%")];
        assert_eq!(counts(both, None), ([0, 1], 60, 60));
        // An infix is the shortest posting list among the pattern's grams —
        // `K 7`, ` 7 `, `7 o`: eleven titles hold the first, one all three —
        // and the pattern is held against every row fetched.
        let title = |pattern: &str| Expr::col(5).like(Expr::lit(pattern));
        assert_eq!(counts(vec![title("%K 7 o%")], None), ([0, 1], 1, 1));
        assert_eq!(counts(vec![title("%OK 7%")], None), ([0, 1], 11, 11));
        assert_eq!(counts(vec![title("%K 7_ of%")], None), ([0, 1], 11, 10));
        // Two segments: `K 3` of the first (11 titles) is rarer than `f 3`
        // of the second (14).
        assert_eq!(counts(vec![title("BOOK 3%of 3")], None), ([0, 1], 11, 3));
        assert_eq!(counts(vec![title("%no such%")], None), ([0, 1], 0, 0));
        let beside = vec![eq(1, Value::Int(3)), title("%K 7 o%")];
        assert_eq!(counts(beside, None), ([0, 1], 11, 11));
        // A gram every title holds names the whole table: the pass is as
        // cheap; and so is it when no segment is three bytes long.
        for (pattern, selected) in [("%BOOK%", 100), ("%7_ o%", 10), ("_O%", 100)] {
            assert_eq!(counts(vec![title(pattern)], None), ([1, 0], 100, selected));
        }
        let negated = Expr::Like {
            expr: Box::new(Expr::col(5)),
            pattern: Box::new(Expr::lit("%K 7 o%")),
            negated: true,
        };
        assert_eq!(counts(vec![negated], None), ([1, 0], 100, 99));
        // A query no index answers takes the group to the pass …
        for (pattern, selected) in [("%a", 60), ("%", 100), ("a_%", 10), ("a%a%", 10)] {
            let beside = vec![eq(1, Value::Int(3)), like(pattern)];
            assert_eq!(counts(beside, None), ([1, 0], 100, selected), "{pattern}");
        }
        let by_float = vec![eq(1, Value::Float(3.0))];
        assert_eq!(counts(by_float, None), ([1, 0], 100, 10));
        // … and so do posting lists as long as the table: 50 + 50.
        let halves = vec![eq(3, Value::text("a")), eq(3, Value::text("b"))];
        assert_eq!(counts(halves, None), ([1, 0], 100, 100));
        // Queries that ask the same thing share one fetch, and it is the
        // fetches that are held against the pass: the same half three times
        // is 50 versions, not 150 — beside a residual of its own, 50 more.
        let thrice = vec![eq(3, Value::text("a")); 3];
        assert_eq!(counts(thrice, None), ([0, 1], 50, 50));
        let twice = vec![
            eq(1, Value::Int(3)),
            eq(2, Value::Date(3)),
            eq(1, Value::Int(3)),
        ];
        assert_eq!(counts(twice, None), ([0, 1], 35, 30));
        let and_odd = eq(3, Value::text("a")).and(Expr::col(4).lt(Expr::lit(50i64)));
        let held = vec![eq(3, Value::text("a")), and_odd.clone(), and_odd];
        assert_eq!(counts(held, None), ([1, 0], 100, 50));
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
        assert_eq!(counts(by_key(), None), ([0, 1], 2, 0));
        assert_eq!(counts(by_key(), Some(before)), ([0, 1], 2, 1));
        let sevens = || vec![eq(1, Value::Int(7))];
        assert_eq!(counts(sevens(), None), ([0, 1], 10, 9));
        assert_eq!(counts(sevens(), Some(before)), ([0, 1], 10, 10));
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
                let mut queries: Vec<(Expr, Option<u64>)> = (0..[1, 1, 2, 3][pick(rng, 4)])
                    .map(|_| {
                        let pinned =
                            (pick(rng, 5) == 0).then(|| 1 + pick(rng, 1 + writes.len()) as u64);
                        (indexed_predicate(rng, rows.len()), pinned)
                    })
                    .collect();
                // The same question more than once: one fetch, filed under
                // every query that asks it, pinned elsewhere or not.
                for _ in 0..[0, 0, 1, 3][pick(rng, 4)] {
                    let (predicate, _) = queries[pick(rng, queries.len())].clone();
                    let pinned =
                        (pick(rng, 5) == 0).then(|| 1 + pick(rng, 1 + writes.len()) as u64);
                    queries.push((predicate, pinned));
                }
                queries
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

        /// Serving a group from the indexes never changes what a cycle emits:
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
