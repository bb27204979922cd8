//! The ClockScan shared table scan.
//!
//! ClockScan (Unterbrunner et al., "Predictable Performance for Unpredictable
//! Workloads", VLDB 2009 — reference [28] of the SharedDB paper) batches
//! queries *and* updates and processes a whole batch within a single pass over
//! the table. SharedDB uses it as its shared-scan access path (Section 4.4):
//!
//! * Queries that arrive while a cycle is running are queued and form the next
//!   cycle's batch — exactly the batching model of the rest of SharedDB.
//! * Query predicates are indexed (see [`crate::predicate_index`]) and the
//!   scan performs a *query-data join* between rows and queries.
//! * Updates are executed in arrival order as part of the same cycle, and all
//!   select queries of the cycle read one consistent snapshot.
//!
//! The scan produces tuples in the data-query model ([`QTuple`]): each emitted
//! row carries the set of queries that selected it.

use crate::mvcc::{Snapshot, TimestampOracle};
use crate::predicate_index::PredicateIndex;
use crate::table::Table;
use crate::update::{apply_update, UpdateOp, UpdateResult};
use parking_lot::{Mutex, RwLock};
use shareddb_common::{tuple_partition, Expr, QTuple, QueryId, QuerySet, Result, Schema, Tuple};
use std::collections::VecDeque;
use std::sync::Arc;

/// A segment-view cursor over the table: restricts one scan pass to the rows
/// of one stable hash segment (`tuple_partition(row, key_columns, of) ==
/// index`). The engine's intra-engine segment parallelism runs one pass per
/// segment concurrently; filtering here — *before* the predicate index
/// evaluates a row against the whole query batch — means each segment pass
/// pays the query-data join only for its own slice of the table, which is
/// what makes N segment passes over 1/N of the rows each add up to roughly
/// one unsegmented pass of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentView {
    /// Segment index in `0..of`.
    pub index: u32,
    /// Total number of segments.
    pub of: u32,
    /// Columns hashed to place a row (empty = whole tuple).
    pub key_columns: Vec<usize>,
}

impl SegmentView {
    /// True when `row` belongs to this segment.
    pub fn contains(&self, row: &Tuple) -> bool {
        tuple_partition(row, &self.key_columns, self.of) == self.index
    }
}

/// A query registered with a ClockScan operator for one cycle.
#[derive(Debug, Clone)]
pub struct ScanQuery {
    /// Id of the active query.
    pub query_id: QueryId,
    /// Bound selection predicate on the scanned table (use
    /// `Expr::lit(true)` for a full scan).
    pub predicate: Expr,
    /// Optional pinned read snapshot. `None` (the default) reads the cycle's
    /// own snapshot — the latest committed state after the cycle's updates.
    /// A pinned snapshot lets a caller that spreads one logical query over
    /// several scan cycles (e.g. the cluster fanout) give every part the same
    /// consistent view.
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
    /// Per-update results, in arrival order.
    pub update_results: Vec<UpdateResult>,
    /// The ids of the queries that were served by this cycle.
    pub served_queries: Vec<QueryId>,
    /// The snapshot the queries of this cycle read.
    pub snapshot: Snapshot,
    /// Visible rows of the scanned view probed against the predicate index
    /// (`tuples.len() / rows_examined` is the scan's useful-work ratio).
    pub rows_examined: usize,
    /// Queries served per predicate class, in the order of
    /// [`PredicateClass::NAMES`](crate::predicate_index::PredicateClass::NAMES).
    pub query_classes: [usize; 3],
}

/// The shared-scan operator for one table.
pub struct ClockScan {
    table: Arc<RwLock<Table>>,
    oracle: Arc<TimestampOracle>,
    pending_queries: Mutex<VecDeque<ScanQuery>>,
    pending_updates: Mutex<VecDeque<UpdateOp>>,
}

impl ClockScan {
    /// Creates a ClockScan operator over a table.
    pub fn new(table: Arc<RwLock<Table>>, oracle: Arc<TimestampOracle>) -> Self {
        ClockScan {
            table,
            oracle,
            pending_queries: Mutex::new(VecDeque::new()),
            pending_updates: Mutex::new(VecDeque::new()),
        }
    }

    /// Schema of the scanned table.
    pub fn schema(&self) -> Schema {
        self.table.read().schema().clone()
    }

    /// Queues a query for the next cycle.
    pub fn enqueue_query(&self, query: ScanQuery) {
        self.pending_queries.lock().push_back(query);
    }

    /// Queues an update for the next cycle.
    pub fn enqueue_update(&self, update: UpdateOp) {
        self.pending_updates.lock().push_back(update);
    }

    /// Number of queries waiting for the next cycle.
    pub fn pending_query_count(&self) -> usize {
        self.pending_queries.lock().len()
    }

    /// Number of updates waiting for the next cycle.
    pub fn pending_update_count(&self) -> usize {
        self.pending_updates.lock().len()
    }

    /// Runs one cycle: dequeues all pending queries and updates, applies the
    /// updates in arrival order, and evaluates all queries against one
    /// consistent snapshot that includes those updates.
    pub fn run_cycle(&self) -> Result<ScanCycleResult> {
        // Drain the queues; anything arriving from here on belongs to the
        // next cycle ("while one batch is processed, newly arriving queries
        // and updates are queued", Section 3.2).
        let queries: Vec<ScanQuery> = self.pending_queries.lock().drain(..).collect();
        let updates: Vec<UpdateOp> = self.pending_updates.lock().drain(..).collect();
        self.execute_batch(&queries, &updates)
    }

    /// Executes an explicit batch (used by the engine when it manages the
    /// queueing itself, and by tests).
    pub fn execute_batch(
        &self,
        queries: &[ScanQuery],
        updates: &[UpdateOp],
    ) -> Result<ScanCycleResult> {
        self.execute_batch_segmented(queries, updates, None)
    }

    /// Executes an explicit batch over one segment view of the table (`None`
    /// scans every row — identical to [`ClockScan::execute_batch`]). Updates
    /// are **never** segmented: they apply to the whole table exactly as in
    /// the unsegmented path, preserving the single-writer group-commit
    /// ordering; only the read pass is restricted to the view.
    pub fn execute_batch_segmented(
        &self,
        queries: &[ScanQuery],
        updates: &[UpdateOp],
        view: Option<&SegmentView>,
    ) -> Result<ScanCycleResult> {
        let mut result = ScanCycleResult::default();

        // Phase 1: apply updates in arrival order under a write lock.
        if !updates.is_empty() {
            let commit_ts = self.oracle.next_commit_ts();
            let mut table = self.table.write();
            for update in updates {
                let applied = apply_update(&mut table, update, commit_ts)?;
                result.update_results.push(applied);
            }
            drop(table);
            self.oracle.publish(commit_ts);
        }

        // Phase 2: evaluate all queries against one consistent snapshot that
        // includes the updates applied above. Queries pinned to an explicit
        // snapshot read that version set instead; the pass groups queries by
        // effective snapshot so each group still shares one table scan
        // (with no pinned queries — the common case — this is exactly one
        // pass).
        let snapshot = self.oracle.read_ts();
        result.snapshot = snapshot;
        result.served_queries = queries.iter().map(|q| q.query_id).collect();
        if !queries.is_empty() {
            let groups = crate::mvcc::group_by_snapshot(queries, snapshot, |q| q.snapshot);
            let table = self.table.read();
            for (snapshot, members) in groups {
                let index =
                    PredicateIndex::over(members.iter().map(|q| (q.query_id, &q.predicate)));
                for (total, served) in result.query_classes.iter_mut().zip(index.class_counts()) {
                    *total += served;
                }
                let mut matches = Vec::new();
                for (_, row) in table.scan(snapshot) {
                    // The segment-view cursor: rows outside the view are
                    // skipped before the query-data join even looks at them.
                    if view.is_some_and(|view| !view.contains(row)) {
                        continue;
                    }
                    result.rows_examined += 1;
                    index.matches_into(row, &mut matches)?;
                    if !matches.is_empty() {
                        // The emitted tuple *is* the stored version: a
                        // reference, not a copy.
                        let queries = QuerySet::from_ids(matches.drain(..));
                        result.tuples.push(QTuple::new(row.clone(), queries));
                    }
                }
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::{tuple, Column, DataType, Value};

    fn setup() -> (Arc<RwLock<Table>>, Arc<TimestampOracle>, ClockScan) {
        let schema = Schema::new(vec![
            Column::new("ID", DataType::Int).with_qualifier("T"),
            Column::new("CATEGORY", DataType::Text).with_qualifier("T"),
            Column::new("PRICE", DataType::Float).with_qualifier("T"),
        ]);
        let table = Arc::new(RwLock::new(Table::new("T", schema, vec![0])));
        let oracle = Arc::new(TimestampOracle::new());
        {
            let mut t = table.write();
            for i in 0..100i64 {
                t.insert(
                    tuple![i, if i % 2 == 0 { "EVEN" } else { "ODD" }, (i % 10) as f64],
                    shareddb_common::ids::Timestamp(0),
                )
                .unwrap();
            }
        }
        let scan = ClockScan::new(Arc::clone(&table), Arc::clone(&oracle));
        (table, oracle, scan)
    }

    #[test]
    fn queries_are_batched_and_share_the_pass() {
        let (_, _, scan) = setup();
        scan.enqueue_query(ScanQuery::new(
            QueryId(1),
            Expr::col(1).eq(Expr::lit("EVEN")),
        ));
        scan.enqueue_query(ScanQuery::new(
            QueryId(2),
            Expr::col(2).gt_eq(Expr::lit(8.0f64)),
        ));
        assert_eq!(scan.pending_query_count(), 2);
        let result = scan.run_cycle().unwrap();
        assert_eq!(scan.pending_query_count(), 0);
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

    #[test]
    fn updates_apply_in_arrival_order() {
        let (_, _, scan) = setup();
        // Set price to 100 for ID 1, then delete ID 1: the delete wins.
        scan.enqueue_update(UpdateOp::Update {
            assignments: vec![(2, Expr::lit(100.0f64))],
            predicate: Expr::col(0).eq(Expr::lit(1i64)),
        });
        scan.enqueue_update(UpdateOp::Delete {
            predicate: Expr::col(0).eq(Expr::lit(1i64)),
        });
        scan.enqueue_query(ScanQuery::new(QueryId(9), Expr::col(0).eq(Expr::lit(1i64))));
        let result = scan.run_cycle().unwrap();
        assert_eq!(result.update_results[0].rows_affected, 1);
        assert_eq!(result.update_results[1].rows_affected, 1);
        // The query of the same batch reads the post-update snapshot: row gone.
        assert!(result.tuples.is_empty());
    }

    #[test]
    fn inserts_visible_to_same_cycle_queries() {
        let (_, _, scan) = setup();
        scan.enqueue_update(UpdateOp::Insert {
            values: tuple![1000i64, "NEW", 1.0f64],
        });
        scan.enqueue_query(ScanQuery::new(
            QueryId(3),
            Expr::col(1).eq(Expr::lit("NEW")),
        ));
        let result = scan.run_cycle().unwrap();
        assert_eq!(result.tuples.len(), 1);
        assert_eq!(result.tuples[0].tuple[0], Value::Int(1000));
    }

    #[test]
    fn queries_arriving_later_form_next_batch() {
        let (_, _, scan) = setup();
        scan.enqueue_query(ScanQuery::full_scan(QueryId(1)));
        let first = scan.run_cycle().unwrap();
        assert_eq!(first.served_queries, vec![QueryId(1)]);
        // Nothing queued: an empty cycle serves no queries.
        let empty = scan.run_cycle().unwrap();
        assert!(empty.served_queries.is_empty());
        assert!(empty.tuples.is_empty());
        scan.enqueue_query(ScanQuery::full_scan(QueryId(2)));
        let second = scan.run_cycle().unwrap();
        assert_eq!(second.served_queries, vec![QueryId(2)]);
        assert_eq!(second.tuples.len(), 100);
    }

    #[test]
    fn hundreds_of_concurrent_queries_bounded_output() {
        let (_, _, scan) = setup();
        // 500 concurrent queries, each with a different predicate on PRICE.
        for i in 0..500u32 {
            scan.enqueue_query(ScanQuery::new(
                QueryId(i + 1),
                Expr::col(2).gt_eq(Expr::lit((i % 10) as f64)),
            ));
        }
        let result = scan.run_cycle().unwrap();
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
        let (_, oracle, scan) = setup();
        let pinned = oracle.read_ts();
        scan.enqueue_update(UpdateOp::Delete {
            predicate: Expr::lit(true),
        });
        scan.run_cycle().unwrap();
        let res = scan
            .execute_batch(
                &[
                    ScanQuery::full_scan(QueryId(1)).at_snapshot(Some(pinned)),
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

    /// Segment views split one scan pass into disjoint, complete slices of
    /// the table, and updates of a segmented batch still apply to the whole
    /// table (they are never segmented).
    #[test]
    fn segment_views_are_disjoint_and_complete() {
        let (_, _, scan) = setup();
        const OF: u32 = 4;
        let mut seen = std::collections::HashSet::new();
        for index in 0..OF {
            let view = SegmentView {
                index,
                of: OF,
                key_columns: vec![0],
            };
            let res = scan
                .execute_batch_segmented(&[ScanQuery::full_scan(QueryId(1))], &[], Some(&view))
                .unwrap();
            for t in &res.tuples {
                assert!(view.contains(&t.tuple));
                assert!(seen.insert(t.tuple[0].clone()), "row in two segments");
            }
        }
        assert_eq!(seen.len(), 100, "segments did not cover the table");
        // An update in a segmented batch is whole-table: deleting through a
        // one-segment view still removes every row.
        let res = scan
            .execute_batch_segmented(
                &[ScanQuery::full_scan(QueryId(2))],
                &[UpdateOp::Delete {
                    predicate: Expr::lit(true),
                }],
                Some(&SegmentView {
                    index: 0,
                    of: OF,
                    key_columns: vec![0],
                }),
            )
            .unwrap();
        assert_eq!(res.update_results[0].rows_affected, 100);
        assert!(res.tuples.is_empty());
    }

    #[test]
    fn snapshot_isolation_across_cycles() {
        let (table, oracle, scan) = setup();
        let before = oracle.read_ts();
        scan.enqueue_update(UpdateOp::Delete {
            predicate: Expr::lit(true),
        });
        let res = scan.run_cycle().unwrap();
        assert_eq!(res.update_results[0].rows_affected, 100);
        // The old snapshot still sees all 100 rows.
        assert_eq!(table.read().scan(before).count(), 100);
        // A new snapshot sees none.
        assert_eq!(table.read().scan(oracle.read_ts()).count(), 0);
    }
}
