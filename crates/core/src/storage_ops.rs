//! Storage-backed plan operators: shared scans and shared index probes.
//!
//! These adapt the activations of the current batch to the batch interfaces of
//! the `shareddb-storage` operators ([`ClockScan`] and [`IndexProbe`]) and
//! return tuples in the data-query model, read at the snapshot the batch
//! hands over (its own, or a query's pinned one). Updates are *not* routed through
//! these adapters: the engine applies the updates of a batch through
//! [`Catalog::apply_batch`] (one commit timestamp per heartbeat, group commit
//! into the WAL) before any storage read of the batch runs, which gives every
//! query of the batch a snapshot that includes the batch's own updates — the
//! same ordering ClockScan implements internally.

use crate::batch::Activation;
use crate::stats::ScanCounters;
use shareddb_common::{Error, QTuple, QueryId, Result};
use shareddb_storage::{Catalog, ClockScan, IndexProbe, ProbeQuery, ScanQuery, Snapshot};
use std::sync::Arc;

/// A storage operator instance owned by one plan node.
pub enum StorageOperator {
    /// Shared full-table scan.
    Scan {
        /// The shared scan.
        scan: ClockScan,
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
        Ok(StorageOperator::Scan {
            scan: ClockScan::new(catalog.table(table)?, catalog.oracle()),
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

    /// Executes the storage operator for one batch of activations: a query
    /// without a pinned snapshot reads the batch's `snapshot`.
    pub fn execute(
        &self,
        activations: &[(QueryId, Activation)],
        snapshot: Snapshot,
    ) -> Result<Vec<QTuple>> {
        let at = |pinned: &Option<Snapshot>| Some(pinned.unwrap_or(snapshot));
        match self {
            StorageOperator::Scan { scan, counters, .. } => {
                let queries: Vec<ScanQuery> = activations
                    .iter()
                    .map(|(q, a)| match a {
                        Activation::Scan {
                            predicate,
                            snapshot: pinned,
                        } => Ok(ScanQuery::new(*q, predicate.clone()).at_snapshot(at(pinned))),
                        other => Err(Error::Internal(format!(
                            "scan operator received a non-scan activation: {other:?}"
                        ))),
                    })
                    .collect::<Result<_>>()?;
                let cycle = scan.execute_batch(&queries, &[])?;
                let rows = [cycle.rows_examined, cycle.tuples.len(), cycle.rows_skipped];
                counters.record(rows, cycle.query_classes, cycle.groups_served);
                Ok(cycle.tuples)
            }
            StorageOperator::Probe(probe) => {
                let queries: Vec<ProbeQuery> = activations
                    .iter()
                    .map(|(q, a)| match a {
                        Activation::Probe {
                            column,
                            key,
                            residual,
                            snapshot: pinned,
                        } => {
                            let mut pq =
                                ProbeQuery::key(*q, *column, key.clone()).at_snapshot(at(pinned));
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
    use crate::executor::{Executor, NodeRun, Run};
    use crate::stats::EngineStats;
    use shareddb_common::{tuple, DataType, Expr, Value};
    use shareddb_storage::{TableDef, UpdateOp};

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

    fn scan_act(predicate: Expr) -> Activation {
        Activation::Scan {
            predicate,
            snapshot: None,
        }
    }

    fn key_act(key: i64) -> Activation {
        Activation::Probe {
            column: 0,
            key: Value::Int(key),
            residual: None,
            snapshot: None,
        }
    }

    #[test]
    fn scan_operator_executes_activations() {
        let catalog = catalog();
        let scan = StorageOperator::scan(&catalog, "ITEM").unwrap();
        let out = scan
            .execute(
                &[
                    (QueryId(1), scan_act(Expr::col(1).eq(Expr::lit("HISTORY")))),
                    (QueryId(2), scan_act(Expr::col(0).lt(Expr::lit(3i64)))),
                ],
                catalog.snapshot(),
            )
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
            .execute(&[(QueryId(1), Activation::Participate)], catalog.snapshot())
            .is_err());
    }

    #[test]
    fn probe_operator_executes_activations() {
        let catalog = catalog();
        let probe = StorageOperator::probe(&catalog, "ITEM").unwrap();
        let out = probe
            .execute(&[(QueryId(7), key_act(10))], catalog.snapshot())
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple[0], Value::Int(10));
        assert!(probe
            .execute(&[(QueryId(1), Activation::Participate)], catalog.snapshot())
            .is_err());
    }

    /// A pinned snapshot flows through the scan adapter: the query reads the
    /// pinned version set even after later commits, beside one that reads
    /// the batch's.
    #[test]
    fn pinned_snapshot_flows_through_scan() {
        let catalog = catalog();
        let scan = StorageOperator::scan(&catalog, "ITEM").unwrap();
        let pinned = catalog.pin();
        catalog
            .apply_batch(&[(
                "ITEM".into(),
                UpdateOp::Delete {
                    predicate: Expr::lit(true),
                },
            )])
            .unwrap();
        let out = scan
            .execute(
                &[
                    (
                        QueryId(1),
                        Activation::Scan {
                            predicate: Expr::lit(true),
                            snapshot: Some(*pinned),
                        },
                    ),
                    (QueryId(2), scan_act(Expr::lit(true))),
                ],
                catalog.snapshot(),
            )
            .unwrap();
        let count = |q: u32| {
            out.iter()
                .filter(|t| t.queries.contains(QueryId(q)))
                .count()
        };
        assert_eq!(count(1), 50, "pinned query lost the old version set");
        assert_eq!(count(2), 0);
    }

    /// One run reads one snapshot: a run pinned at S and executed after the
    /// catalog committed S+1 — as another replica's group commit lands
    /// between the tasks of a batch — returns the rows of S from its scan,
    /// its probe and the look-ups of its join alike.
    #[test]
    fn a_run_reads_its_own_snapshot_after_a_later_commit() {
        let catalog = catalog();
        let mut b = crate::plan::PlanBuilder::new(&catalog);
        let scan = b.table_scan("ITEM").unwrap();
        let probe = b.index_probe("ITEM").unwrap();
        let join = b.index_nl_join(scan, "ITEM", "ITEM.I_ID", "I_ID").unwrap();
        let plan = b.build();
        let storage = Arc::new(build_storage_operators(&catalog, &plan).unwrap());
        let stats = Arc::new(EngineStats::with_statements(Vec::new()));
        let executor = Executor::start(plan, storage, Arc::clone(&catalog), stats, 1).unwrap();
        let history = || Expr::col(1).eq(Expr::lit("HISTORY"));
        let mut nodes: Vec<NodeRun> = (0..3).map(|_| NodeRun::default()).collect();
        nodes[scan].activations = vec![(QueryId(1), scan_act(history()))];
        nodes[probe].activations = vec![(QueryId(2), key_act(10))];
        nodes[join].activations = vec![(QueryId(1), Activation::Participate)];
        let run = Run {
            pin: catalog.pin(),
            nodes,
        };
        // Another replica deletes the ten HISTORY items, item 10 among them.
        let delete = UpdateOp::Delete {
            predicate: history(),
        };
        catalog.apply_batch(&[("ITEM".into(), delete)]).unwrap();
        let run = executor.run(run);
        let rows = |node: usize| run.nodes[node].done.get().unwrap().output.len();
        assert_eq!((rows(scan), rows(probe), rows(join)), (10, 1, 10));
        executor.shutdown();
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
