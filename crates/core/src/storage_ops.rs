//! Storage-backed plan operators: shared scans and shared index probes.
//!
//! These adapt the activations of the current batch to the batch interfaces of
//! the `shareddb-storage` operators ([`ClockScan`] and [`IndexProbe`]) and
//! return tuples in the data-query model. Updates are *not* routed through
//! these adapters: the engine applies the updates of a batch through
//! [`Catalog::apply_batch`] (one commit timestamp per heartbeat, group commit
//! into the WAL) before any storage read of the batch runs, which gives every
//! query of the batch a snapshot that includes the batch's own updates — the
//! same ordering ClockScan implements internally.

use crate::batch::{Activation, RowSlice};
use crate::stats::ScanCounters;
use shareddb_common::{tuple_partition, Error, QTuple, QueryId, Result};
use shareddb_storage::{Catalog, ClockScan, IndexProbe, ProbeQuery, ScanQuery, SegmentView};
use std::sync::Arc;

/// A storage operator instance owned by one plan node.
pub enum StorageOperator {
    /// Shared full-table scan (with the table's primary-key columns, the
    /// stable identity rows are partitioned by).
    Scan {
        /// The shared scan.
        scan: ClockScan,
        /// Primary-key column indices (empty = no primary key).
        key_columns: Vec<usize>,
        /// Scanned table, and what the scan did since the last reset.
        table: String,
        /// Rows examined / emitted / skipped, queries per predicate class and
        /// cycles per path.
        counters: ScanCounters,
    },
    /// Shared index probe.
    Probe(IndexProbe),
}

impl StorageOperator {
    /// Creates the storage operator for a `TableScan` plan node.
    pub fn scan(catalog: &Catalog, table: &str) -> Result<Self> {
        let handle = catalog.table(table)?;
        let key_columns = handle.read().primary_key().to_vec();
        Ok(StorageOperator::Scan {
            scan: ClockScan::new(handle, catalog.oracle()),
            key_columns,
            table: table.to_string(),
            counters: ScanCounters::default(),
        })
    }

    /// Creates the storage operator for an `IndexProbe` plan node.
    pub fn probe(catalog: &Catalog, table: &str) -> Result<Self> {
        Ok(StorageOperator::Probe(IndexProbe::new(
            catalog.table(table)?,
            catalog.oracle(),
        )))
    }

    /// Executes the storage operator for one batch of activations.
    pub fn execute(&self, activations: &[(QueryId, Activation)]) -> Result<Vec<QTuple>> {
        match self {
            StorageOperator::Scan {
                scan,
                key_columns,
                counters,
                ..
            } => {
                let mut sliced: Vec<(QueryId, &RowSlice)> = Vec::new();
                let queries: Vec<ScanQuery> = activations
                    .iter()
                    .map(|(q, a)| match a {
                        Activation::Scan {
                            predicate,
                            slice,
                            snapshot,
                        } => {
                            if let Some(slice) = slice {
                                sliced.push((*q, slice));
                            }
                            Ok(ScanQuery::new(*q, predicate.clone()).at_snapshot(*snapshot))
                        }
                        other => Err(Error::Internal(format!(
                            "scan operator received a non-scan activation: {other:?}"
                        ))),
                    })
                    .collect::<Result<_>>()?;
                // When every activation of the call reads the same slice over
                // the same hash columns (a segment lane's do, unless two
                // statements hash one table by different columns), the
                // restriction becomes a segment-view cursor — rows outside
                // the slice are skipped before the predicate index evaluates
                // them.
                let view = uniform_view(&sliced, activations.len(), key_columns);
                let cycle = scan.execute_batch_segmented(&queries, &[], view.as_ref())?;
                let mut tuples = cycle.tuples;
                // Mixed slices: unsubscribe each sliced query from the rows
                // outside its slice and drop tuples no query is interested in
                // any more.
                if view.is_none() && !sliced.is_empty() {
                    tuples.retain_mut(|t| {
                        for (q, slice) in &sliced {
                            let columns = hash_columns(slice, key_columns);
                            if t.queries.contains(*q)
                                && tuple_partition(&t.tuple, columns, slice.of) != slice.index
                            {
                                t.queries.remove(*q);
                            }
                        }
                        !t.queries.is_empty()
                    });
                }
                let rows = [cycle.rows_examined, tuples.len(), cycle.rows_skipped];
                counters.record(rows, cycle.query_classes, cycle.groups_served);
                Ok(tuples)
            }
            StorageOperator::Probe(probe) => {
                let queries: Vec<ProbeQuery> = activations
                    .iter()
                    .map(|(q, a)| match a {
                        Activation::Probe {
                            column,
                            range,
                            residual,
                            snapshot,
                        } => {
                            let mut pq = ProbeQuery::range(*q, *column, range.clone())
                                .at_snapshot(*snapshot);
                            if let Some(residual) = residual {
                                pq = pq.with_residual(residual.clone());
                            }
                            Ok(pq)
                        }
                        other => Err(Error::Internal(format!(
                            "probe operator received a non-probe activation: {other:?}"
                        ))),
                    })
                    .collect::<Result<_>>()?;
                Ok(probe.execute_batch(&queries, &[])?.tuples)
            }
        }
    }
}

/// The shared [`SegmentView`] when *all* activations of a scan call restrict
/// to one identical slice, `None` otherwise (then the per-query retain pass
/// applies the restrictions).
fn uniform_view(
    sliced: &[(QueryId, &RowSlice)],
    total_activations: usize,
    key_columns: &[usize],
) -> Option<SegmentView> {
    let (_, first) = sliced.first()?;
    let uniform = sliced.len() == total_activations
        && sliced.iter().all(|(_, slice)| {
            (slice.index, slice.of) == (first.index, first.of)
                && hash_columns(slice, key_columns) == hash_columns(first, key_columns)
        });
    uniform.then(|| SegmentView {
        index: first.index,
        of: first.of,
        key_columns: hash_columns(first, key_columns).to_vec(),
    })
}

/// The columns a slice hashes: its own, else the table's primary key.
fn hash_columns<'a>(slice: &'a RowSlice, key_columns: &'a [usize]) -> &'a [usize] {
    slice.columns.as_deref().unwrap_or(key_columns)
}

/// Builds the storage operator instances for every storage node of a plan.
pub fn build_storage_operators(
    catalog: &Arc<Catalog>,
    plan: &crate::plan::GlobalPlan,
) -> Result<Vec<Option<StorageOperator>>> {
    plan.nodes()
        .iter()
        .map(|node| match &node.spec {
            crate::plan::OperatorSpec::TableScan { table } => {
                StorageOperator::scan(catalog, table).map(Some)
            }
            crate::plan::OperatorSpec::IndexProbe { table } => {
                StorageOperator::probe(catalog, table).map(Some)
            }
            _ => Ok(None),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::{tuple, DataType, Expr, Value};
    use shareddb_storage::{ProbeRange, TableDef};

    fn catalog() -> Arc<Catalog> {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("ITEM")
                    .column("I_ID", DataType::Int)
                    .column("I_SUBJECT", DataType::Text)
                    .primary_key(&["I_ID"]),
            )
            .unwrap();
        catalog
            .bulk_load(
                "ITEM",
                (0..50i64)
                    .map(|i| tuple![i, if i % 5 == 0 { "HISTORY" } else { "FICTION" }])
                    .collect(),
            )
            .unwrap();
        Arc::new(catalog)
    }

    /// A scan activation over slice `(index, of)` of the primary-key hash.
    fn scan_act(predicate: Expr, slice: Option<(u32, u32)>) -> Activation {
        let slice = slice.map(|(index, of)| RowSlice {
            index,
            of,
            columns: None,
        });
        Activation::Scan {
            predicate,
            slice,
            snapshot: None,
        }
    }

    #[test]
    fn scan_operator_executes_activations() {
        let catalog = catalog();
        let scan = StorageOperator::scan(&catalog, "ITEM").unwrap();
        let out = scan
            .execute(&[
                (
                    QueryId(1),
                    scan_act(Expr::col(1).eq(Expr::lit("HISTORY")), None),
                ),
                (QueryId(2), scan_act(Expr::col(0).lt(Expr::lit(3i64)), None)),
            ])
            .unwrap();
        let q1 = out
            .iter()
            .filter(|t| t.queries.contains(QueryId(1)))
            .count();
        let q2 = out
            .iter()
            .filter(|t| t.queries.contains(QueryId(2)))
            .count();
        assert_eq!(q1, 10);
        assert_eq!(q2, 3);
        // Wrong activation kind is rejected.
        assert!(scan
            .execute(&[(QueryId(1), Activation::Participate)])
            .is_err());
    }

    #[test]
    fn probe_operator_executes_activations() {
        let catalog = catalog();
        let probe = StorageOperator::probe(&catalog, "ITEM").unwrap();
        let out = probe
            .execute(&[(
                QueryId(7),
                Activation::Probe {
                    column: 0,
                    range: ProbeRange::Key(Value::Int(10)),
                    residual: None,
                    snapshot: None,
                },
            )])
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple[0], Value::Int(10));
        assert!(probe
            .execute(&[(QueryId(1), Activation::Participate)])
            .is_err());
    }

    /// Sliced scan activations split a table into disjoint, complete slices:
    /// the union over all slices equals the whole scan and no row lands in
    /// two slices.
    #[test]
    fn sliced_scans_are_disjoint_and_complete() {
        let catalog = catalog();
        let scan = StorageOperator::scan(&catalog, "ITEM").unwrap();
        const OF: u32 = 4;
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        for index in 0..OF {
            let out = scan
                .execute(&[(QueryId(1), scan_act(Expr::lit(true), Some((index, OF))))])
                .unwrap();
            for t in &out {
                assert_eq!(tuple_partition(&t.tuple, &[0], OF), index);
                assert!(seen.insert(t.tuple[0].clone()), "row in two slices");
                total += 1;
            }
        }
        assert_eq!(total, 50);
        // A mixed call (the retain pass): one sliced and one whole query
        // share the scan; the whole one still sees every row.
        let out = scan
            .execute(&[
                (QueryId(1), scan_act(Expr::lit(true), Some((0, OF)))),
                (QueryId(2), scan_act(Expr::lit(true), None)),
            ])
            .unwrap();
        let q2: usize = out
            .iter()
            .filter(|t| t.queries.contains(QueryId(2)))
            .count();
        assert_eq!(q2, 50);
        let q1: usize = out
            .iter()
            .filter(|t| t.queries.contains(QueryId(1)))
            .count();
        assert!(q1 < 50, "slice 0 of 4 held the whole table");
    }

    /// A slice with its own columns hashes those instead of the primary key,
    /// and the slices stay disjoint and complete — this is what co-partitions
    /// the probe side of a scattered equi-join by the join key.
    #[test]
    fn slice_columns_are_disjoint_and_complete() {
        let catalog = catalog();
        let scan = StorageOperator::scan(&catalog, "ITEM").unwrap();
        const OF: u32 = 3;
        let by_subject = vec![1usize]; // hash I_SUBJECT, not the pk
        let slice = |index| Activation::Scan {
            predicate: Expr::lit(true),
            slice: Some(RowSlice {
                index,
                of: OF,
                columns: Some(by_subject.clone()),
            }),
            snapshot: None,
        };
        let mut total = 0usize;
        for index in 0..OF {
            let out = scan.execute(&[(QueryId(1), slice(index))]).unwrap();
            for t in &out {
                assert_eq!(tuple_partition(&t.tuple, &by_subject, OF), index);
                total += 1;
            }
        }
        assert_eq!(total, 50);
        // All rows with the same hashed value land in one slice — also when
        // another query of the call hashes the primary key (mixed columns:
        // the retain pass instead of the segment view).
        let history = tuple_partition(&tuple![0i64, "HISTORY"], &by_subject, OF);
        let out = scan
            .execute(&[
                (QueryId(1), slice(history)),
                (QueryId(2), scan_act(Expr::lit(true), Some((history, OF)))),
            ])
            .unwrap();
        assert_eq!(
            out.iter()
                .filter(|t| t.queries.contains(QueryId(1)))
                .filter(|t| t.tuple[1] == Value::text("HISTORY"))
                .count(),
            10,
            "co-partitioning split a key group across slices"
        );
        for t in out.iter().filter(|t| t.queries.contains(QueryId(2))) {
            assert_eq!(tuple_partition(&t.tuple, &[0], OF), history);
        }
    }

    /// A pinned snapshot flows through the scan adapter: the query reads the
    /// pinned version set even after later commits.
    #[test]
    fn pinned_snapshot_flows_through_scan() {
        let catalog = catalog();
        let scan = StorageOperator::scan(&catalog, "ITEM").unwrap();
        let pinned = catalog.snapshot();
        catalog
            .apply_batch(&[(
                "ITEM".into(),
                shareddb_storage::UpdateOp::Delete {
                    predicate: Expr::lit(true),
                },
            )])
            .unwrap();
        let out = scan
            .execute(&[
                (
                    QueryId(1),
                    Activation::Scan {
                        predicate: Expr::lit(true),
                        slice: None,
                        snapshot: Some(pinned),
                    },
                ),
                (QueryId(2), scan_act(Expr::lit(true), None)),
            ])
            .unwrap();
        let count = |q: u32| {
            out.iter()
                .filter(|t| t.queries.contains(QueryId(q)))
                .count()
        };
        assert_eq!(count(1), 50, "pinned query lost the old version set");
        assert_eq!(count(2), 0);
    }

    #[test]
    fn partition_of_one_is_identity() {
        let t = shareddb_common::tuple![1i64, "x"];
        assert_eq!(tuple_partition(&t, &[0], 0), 0);
        assert_eq!(tuple_partition(&t, &[0], 1), 0);
        // Stable across calls, and key-based: updating a non-key column
        // never moves the row to another partition.
        assert_eq!(tuple_partition(&t, &[0], 7), tuple_partition(&t, &[0], 7));
        let updated = shareddb_common::tuple![1i64, "y"];
        assert_eq!(
            tuple_partition(&t, &[0], 7),
            tuple_partition(&updated, &[0], 7)
        );
        // Without a primary key the whole tuple is the identity.
        assert_ne!(
            tuple_partition(&t, &[], 1 << 30),
            tuple_partition(&updated, &[], 1 << 30)
        );
    }

    #[test]
    fn build_for_plan_nodes() {
        let catalog = catalog();
        let mut b = crate::plan::PlanBuilder::new(&catalog);
        let scan = b.table_scan("ITEM").unwrap();
        let probe = b.index_probe("ITEM").unwrap();
        let filter = b.filter(scan).unwrap();
        let plan = b.build();
        let ops = build_storage_operators(&catalog, &plan).unwrap();
        assert!(ops[scan].is_some());
        assert!(ops[probe].is_some());
        assert!(ops[filter].is_none());
    }
}
