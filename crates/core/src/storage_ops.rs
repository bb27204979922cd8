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

use crate::batch::Activation;
use crate::stats::ScanCounters;
use shareddb_common::{Error, QTuple, QueryId, Result};
use shareddb_storage::{Catalog, ClockScan, IndexProbe, ProbeQuery, ScanQuery};
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

    /// Executes the storage operator for one batch of activations.
    pub fn execute(&self, activations: &[(QueryId, Activation)]) -> Result<Vec<QTuple>> {
        match self {
            StorageOperator::Scan { scan, counters, .. } => {
                let queries: Vec<ScanQuery> = activations
                    .iter()
                    .map(|(q, a)| match a {
                        Activation::Scan {
                            predicate,
                            snapshot,
                        } => Ok(ScanQuery::new(*q, predicate.clone()).at_snapshot(*snapshot)),
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

    fn scan_act(predicate: Expr) -> Activation {
        Activation::Scan {
            predicate,
            snapshot: None,
        }
    }

    #[test]
    fn scan_operator_executes_activations() {
        let catalog = catalog();
        let scan = StorageOperator::scan(&catalog, "ITEM").unwrap();
        let out = scan
            .execute(&[
                (QueryId(1), scan_act(Expr::col(1).eq(Expr::lit("HISTORY")))),
                (QueryId(2), scan_act(Expr::col(0).lt(Expr::lit(3i64)))),
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
                        snapshot: Some(pinned),
                    },
                ),
                (QueryId(2), scan_act(Expr::lit(true))),
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
