//! Shared index probes.
//!
//! For point accesses a full ClockScan cycle is wasteful, so
//! SharedDB extends Crescando with B-tree indexes and a *shared index probe*
//! operator (Section 4.4): "look-ups are enqueued in the pending query queue
//! which is emptied at the beginning of each cycle. During the cycle, the
//! updates are executed in the arrival order and multiple B-tree look-ups are
//! used to evaluate all the select queries. [...] Just as the (shared) full
//! table scan, the index probe operator guarantees that all select queries
//! will read a consistent snapshot." Here the updates of a batch commit
//! through [`Catalog::apply_batch`](crate::Catalog::apply_batch) just before
//! its cycles, in arrival order.
//!
//! Executing many look-ups per cycle gives the instruction- and data-cache
//! locality benefits of batched information filters (Fischer & Kossmann,
//! ICDE 2005 — reference \[12\] of the paper).
//!
//! A probe is a key look-up (`col = key`); a range is read by a scan served
//! from the indexes ([`crate::clockscan`]).

use crate::mvcc::TimestampOracle;
use crate::table::{RowId, Table};
use crate::update::{refuse_cycle_updates, UpdateOp};
use shareddb_common::queryset::Union;
use shareddb_common::sync::RwLock;
use shareddb_common::{Expr, QTuple, QueryId, QuerySet, Result, Schema, Tuple, Value};
use std::sync::Arc;

/// One index look-up registered for a probe cycle.
#[derive(Debug, Clone)]
pub struct ProbeQuery {
    /// Id of the active query.
    pub query_id: QueryId,
    /// The indexed column to probe.
    pub column: usize,
    /// The key to look up.
    pub key: Value,
    /// Optional residual predicate evaluated on the fetched rows.
    pub residual: Option<Expr>,
    /// Optional pinned read snapshot (`None` = the cycle's own snapshot; see
    /// [`crate::clockscan::ScanQuery::snapshot`]).
    pub snapshot: Option<crate::mvcc::Snapshot>,
}

impl ProbeQuery {
    /// An exact-match probe.
    pub fn key(query_id: QueryId, column: usize, key: Value) -> Self {
        ProbeQuery {
            query_id,
            column,
            key,
            residual: None,
            snapshot: None,
        }
    }

    /// Attaches a residual predicate.
    pub fn with_residual(mut self, residual: Expr) -> Self {
        self.residual = Some(residual);
        self
    }

    /// Pins the probe to a fixed read snapshot.
    pub fn at_snapshot(mut self, snapshot: Option<crate::mvcc::Snapshot>) -> Self {
        self.snapshot = snapshot;
        self
    }
}

/// Result of one index-probe cycle.
#[derive(Debug, Default)]
pub struct ProbeCycleResult {
    /// Fetched rows, annotated with the queries that selected them. Rows
    /// fetched by several probes of the batch are emitted once (NF² sharing).
    pub tuples: Vec<QTuple>,
    /// Ids of the queries served by this cycle.
    pub served_queries: Vec<QueryId>,
}

/// The shared index-probe operator for one table.
pub struct IndexProbe {
    table: Arc<RwLock<Table>>,
    oracle: Arc<TimestampOracle>,
}

impl IndexProbe {
    /// Creates an index-probe operator over a table. Probed columns must have
    /// a secondary index or be the primary key; otherwise the probe falls
    /// back to a (correct but slow) scan of the table.
    pub fn new(table: Arc<RwLock<Table>>, oracle: Arc<TimestampOracle>) -> Self {
        IndexProbe { table, oracle }
    }

    /// Schema of the probed table.
    pub fn schema(&self) -> Schema {
        self.table.read().schema().clone()
    }

    /// Executes one cycle over an explicit batch (the engine owns the
    /// queueing): executes all look-ups against one consistent snapshot, the
    /// latest committed state. `updates` must be empty, as for
    /// [`ClockScan::execute_batch`](crate::ClockScan::execute_batch): a
    /// non-empty slice is an [`Error::Internal`](shareddb_common::Error::Internal).
    pub fn execute_batch(
        &self,
        queries: &[ProbeQuery],
        updates: &[UpdateOp],
    ) -> Result<ProbeCycleResult> {
        refuse_cycle_updates(updates)?;
        let mut result = ProbeCycleResult::default();
        let default_snapshot = self.oracle.read_ts();
        result.served_queries = queries.iter().map(|q| q.query_id).collect();
        if queries.is_empty() {
            return Ok(result);
        }

        // Group probes by their effective snapshot (pinned probes read their
        // own version set); within each group the fetched rows deduplicate as
        // before.
        let groups = crate::mvcc::group_by_snapshot(queries, default_snapshot, |q| q.snapshot);
        let table = self.table.read();
        for (snapshot, members) in groups {
            self.probe_group(&table, snapshot, &members, &mut result)?;
        }
        Ok(result)
    }

    /// Executes one snapshot group of probes: every look-up reads `snapshot`,
    /// and rows fetched by several probes of the group are emitted once.
    fn probe_group(
        &self,
        table: &Table,
        snapshot: crate::mvcc::Snapshot,
        queries: &[&ProbeQuery],
        result: &mut ProbeCycleResult,
    ) -> Result<()> {
        let mut hits = Hits::default();
        for q in queries {
            let fetched = table.eq_lookup(q.column);
            hits.collect(
                &QuerySet::singleton(q.query_id),
                fetched.rows(&q.key, snapshot),
                q.residual.as_ref(),
            )?
        }
        hits.emit(table, &mut result.tuples);
        Ok(())
    }
}

/// The `(row, queries)` hits of one snapshot group of look-ups, however the
/// rows were reached: by the probes of an [`IndexProbe`] cycle, or by the
/// access paths of a scan cycle served from the indexes
/// ([`crate::clockscan`]).
#[derive(Default)]
pub(crate) struct Hits(Vec<(RowId, QuerySet)>);

impl Hits {
    /// Files under `queries` — which fetch the same rows and hold them
    /// against the same `residual` — those of the fetched rows, versions
    /// their snapshot sees, that it admits.
    pub(crate) fn collect<'t>(
        &mut self,
        queries: &QuerySet,
        fetched: impl Iterator<Item = (RowId, &'t Tuple)>,
        residual: Option<&Expr>,
    ) -> Result<()> {
        for (rid, row) in fetched {
            if residual.map_or(Ok(true), |r| r.eval_predicate(row))? {
                self.0.push((rid, queries.clone()));
            }
        }
        Ok(())
    }

    /// Emits every hit row once, in ascending `RowId` — the order a scan
    /// meets them in — with the union of the queries that hit it: the NF²
    /// data-query model stores a row once with all its interested queries.
    /// The emitted tuple *is* the stored version, not a copy.
    pub(crate) fn emit(mut self, table: &Table, out: &mut Vec<QTuple>) {
        // Sorted, the hits of one row are neighbours. Every fetch filed its
        // rows in ascending order: the hits are a few long runs, which the
        // stable sort merges and the unstable one would sort from scratch.
        self.0.sort_by_key(|(rid, _)| *rid);
        let mut queries = Union::default();
        for of_row in self.0.chunk_by(|a, b| a.0 == b.0) {
            let row = table
                .row(of_row[0].0)
                .expect("a hit is a fetched row")
                .values();
            of_row.iter().for_each(|(_, of)| queries.add(of));
            out.push(QTuple::new(row.clone(), queries.take()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, IndexDef, TableDef};
    use crate::table::IndexKind;
    use shareddb_common::{tuple, Column, DataType};

    fn setup() -> (Catalog, IndexProbe) {
        let catalog = Catalog::new();
        let def = TableDef::new("T")
            .column("ID", DataType::Int)
            .column("NAME", DataType::Text)
            .column("QTY", DataType::Int)
            .primary_key(&["ID"]);
        let table = catalog.create_table(def).unwrap();
        for (name, column) in [("T_ID", "ID"), ("T_QTY", "QTY")] {
            let def = IndexDef {
                name: name.into(),
                table: "T".into(),
                column: column.into(),
                kind: IndexKind::Values,
            };
            catalog.create_index(def).unwrap();
        }
        let rows = (0..200i64).map(|i| tuple![i, format!("row{i}"), i % 20]);
        catalog.bulk_load("T", rows.collect()).unwrap();
        let probe = IndexProbe::new(table, catalog.oracle());
        (catalog, probe)
    }

    #[test]
    fn batched_point_lookups_share_rows() {
        let (_, probe) = setup();
        // Three queries, two of which ask for the same key.
        let queries = [
            ProbeQuery::key(QueryId(1), 0, Value::Int(5)),
            ProbeQuery::key(QueryId(2), 0, Value::Int(5)),
            ProbeQuery::key(QueryId(3), 0, Value::Int(7)),
        ];
        let res = probe.execute_batch(&queries, &[]).unwrap();
        assert_eq!(res.served_queries.len(), 3);
        // Row 5 appears once, subscribed by queries 1 and 2.
        assert_eq!(res.tuples.len(), 2);
        let row5 = res
            .tuples
            .iter()
            .find(|t| t.tuple[0] == Value::Int(5))
            .unwrap();
        assert_eq!(row5.queries.len(), 2);
    }

    #[test]
    fn key_probe_and_residual() {
        let (_, probe) = setup();
        let query = ProbeQuery::key(QueryId(1), 2, Value::Int(18))
            .with_residual(Expr::col(0).lt(Expr::lit(100i64)));
        let res = probe.execute_batch(&[query], &[]).unwrap();
        // QTY 18 occurs for 10 rows; residual keeps ids < 100 → 5.
        assert_eq!(res.tuples.len(), 5);
        assert!(res
            .tuples
            .iter()
            .all(|t| t.tuple[2] == Value::Int(18) && t.tuple[0] < Value::Int(100)));
    }

    #[test]
    fn a_committed_update_is_what_the_next_lookup_reads() {
        let (catalog, probe) = setup();
        let update = UpdateOp::Update {
            assignments: vec![(2, Expr::lit(999i64))],
            predicate: Expr::col(0).eq(Expr::lit(3i64)),
        };
        assert_eq!(catalog.apply("T", update).unwrap().rows_affected, 1);
        let query = ProbeQuery::key(QueryId(1), 0, Value::Int(3));
        let res = probe.execute_batch(&[query], &[]).unwrap();
        assert_eq!(res.tuples.len(), 1);
        assert_eq!(res.tuples[0].tuple[2], Value::Int(999));
    }

    #[test]
    fn probe_on_unindexed_column_falls_back_to_scan() {
        let (_, probe) = setup();
        let query = ProbeQuery::key(QueryId(1), 1, Value::text("row42"));
        let res = probe.execute_batch(&[query], &[]).unwrap();
        assert_eq!(res.tuples.len(), 1);
        assert_eq!(res.tuples[0].tuple[0], Value::Int(42));
    }

    /// SQL comparisons with NULL are never true: a NULL key matches nothing,
    /// not even a stored NULL — on the indexed path and on the scan fallback
    /// alike — and a probe emits the table's own row, not a copy.
    #[test]
    fn a_null_key_matches_nothing() {
        let schema = Schema::new(vec![
            Column::new("ID", DataType::Int),
            Column::nullable("INDEXED", DataType::Int),
            Column::nullable("PLAIN", DataType::Int),
        ]);
        let mut t = Table::new("T", schema, vec![0]);
        t.create_index("T_INDEXED", 1, IndexKind::Values).unwrap();
        for (id, key) in [
            (1, Value::Null),
            (2, 3.into()),
            (3, 4.into()),
            (4, 7.into()),
        ] {
            let row = tuple![id as i64, key.clone(), key];
            t.insert(row, shareddb_common::ids::Timestamp(0)).unwrap();
        }
        let table = Arc::new(RwLock::new(t));
        let probe = IndexProbe::new(Arc::clone(&table), Arc::new(TimestampOracle::new()));
        for column in [1, 2] {
            for (key, expected) in [(Value::Int(4), vec![3]), (Value::Null, vec![])] {
                let query = ProbeQuery::key(QueryId(1), column, key.clone());
                let res = probe.execute_batch(&[query], &[]).unwrap();
                let ids: Vec<i64> = res
                    .tuples
                    .iter()
                    .map(|t| t.tuple[0].as_int().unwrap())
                    .collect();
                assert_eq!(ids, expected, "column {column}, {key:?}");
                let table = table.read();
                let stored = |id: i64| table.row(RowId(id as u64 - 1)).unwrap().values();
                assert!(res
                    .tuples
                    .iter()
                    .zip(ids)
                    .all(|(t, id)| t.tuple.ptr_eq(stored(id))));
            }
        }
    }

    #[test]
    fn deleted_rows_not_returned() {
        let (catalog, probe) = setup();
        let delete = UpdateOp::Delete {
            predicate: Expr::col(0).eq(Expr::lit(10i64)),
        };
        catalog.apply("T", delete).unwrap();
        let query = ProbeQuery::key(QueryId(1), 0, Value::Int(10));
        let res = probe.execute_batch(&[query], &[]).unwrap();
        assert!(res.tuples.is_empty());
    }
}
