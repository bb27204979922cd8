//! Query activations and batches.
//!
//! A client executes a registered statement with a parameter vector. The
//! engine *binds* the statement's activation templates with those parameters,
//! producing an [`ActiveQuery`] (or [`ActiveUpdate`]); active queries queue up
//! and are grouped into a [`QueryBatch`] at the next heartbeat (Section 3.2).

use crate::completions::Completions;
use crate::engine::SubmitOptions;
use crate::plan::OperatorId;
use crate::plan::{
    ActivationTemplate, ComputedColumn, StatementKind, StatementSpec, UpdateTemplate,
};
use shareddb_common::ids::{BatchId, TicketId};
use shareddb_common::{Error, Expr, QueryId, Result, SortKey, Tuple, Value};
use shareddb_storage::mvcc::Snapshot;
use shareddb_storage::{SnapshotPin, UpdateOp};
use std::sync::Arc;
use std::time::Instant;

/// A bound (parameter-free) activation of one operator for one query.
#[derive(Debug, Clone)]
pub enum Activation {
    /// Selection predicate for a shared scan.
    Scan {
        /// Bound predicate.
        predicate: Expr,
        /// Pinned MVCC read snapshot ([`SubmitOptions::pinned_snapshot`]);
        /// `None` reads the executing batch's own snapshot.
        snapshot: Option<Snapshot>,
    },
    /// Key look-up for a shared index probe.
    Probe {
        /// Probed column.
        column: usize,
        /// Concrete key.
        key: Value,
        /// Residual predicate on fetched rows.
        residual: Option<Expr>,
        /// Pinned MVCC read snapshot ([`SubmitOptions::pinned_snapshot`]).
        snapshot: Option<Snapshot>,
    },
    /// Residual predicate for a shared filter.
    Filter {
        /// Bound predicate.
        predicate: Expr,
    },
    /// Participation without per-query configuration.
    Participate,
    /// Per-query limit of a shared Top-N.
    TopN {
        /// Row limit.
        limit: usize,
    },
    /// Per-query HAVING predicate of a shared group-by.
    Having {
        /// Bound predicate (over the group-by output schema).
        predicate: Option<Expr>,
        /// Ship mergeable partials instead of final values: HAVING is not
        /// applied, the AVG output column carries the partial sum and one
        /// hidden count column per AVG is appended to the row. [`bind_query`]
        /// never sets it; it stays because the ledger's per-layer bench names
        /// the field, until that bench drops it.
        partial: bool,
    },
    /// `base`, of whose output rows the query needs only its first `limit`
    /// under `(keys, arrival position)` — see
    /// [`ActivationTemplate::Demand`].
    Demand {
        /// The activation the operator would have without the demand.
        base: Box<Activation>,
        /// Sort keys over the operator's output schema.
        keys: Arc<[SortKey]>,
        /// Rows the query keeps.
        limit: usize,
    },
}

impl Activation {
    /// The activation without a row demand it may carry, and that demand as
    /// `(keys, limit)`.
    pub fn split_demand(&self) -> (&Activation, Option<(&[SortKey], usize)>) {
        match self {
            Activation::Demand { base, keys, limit } => (base, Some((keys, *limit))),
            plain => (plain, None),
        }
    }
}

/// What every admitted statement carries from its submission to its
/// completion.
#[derive(Debug, Clone)]
pub struct Admitted {
    /// Index of the statement in the registry.
    pub statement_index: usize,
    /// Ticket of this execution ([`crate::engine::QueryHandle::ticket`]).
    pub ticket: TicketId,
    /// When it was submitted: [`crate::Engine::submit`] sets its own entry
    /// time, a bare [`bind_query`] the time of binding.
    pub submitted: Instant,
    /// When it was bound and enqueued (start of the batch-wait phase).
    pub enqueued: Instant,
    /// Where the outcome goes, under which tag
    /// ([`SubmitOptions::completions`]); `None` answers nobody.
    pub completion: Option<(Arc<Completions>, u64)>,
}

impl Admitted {
    fn now(statement_index: usize, ticket: TicketId, opts: &SubmitOptions) -> Admitted {
        let now = Instant::now();
        Admitted {
            statement_index,
            ticket,
            submitted: now,
            enqueued: now,
            completion: opts.completions.clone(),
        }
    }
}

/// One admitted query: an activation of a registered statement with concrete
/// parameters.
#[derive(Debug, Clone)]
pub struct ActiveQuery {
    /// Statement, times and target.
    pub admitted: Admitted,
    /// Id of this activation, the value that travels through the
    /// data-query model: its place in its batch, numbered when the batch
    /// forms, so that the ids of a run lie in one short span and a query set
    /// is one word ([`QuerySet`](shareddb_common::QuerySet)).
    pub query_id: QueryId,
    /// Operator whose output is this query's result.
    pub root: OperatorId,
    /// Output projection (empty = all columns of the root schema).
    pub projection: Vec<usize>,
    /// Computed output columns (bound); non-empty replaces `projection`.
    pub compute: Vec<ComputedColumn>,
    /// Optional row limit applied during routing.
    pub limit: Option<usize>,
    /// Re-deduplicate the projected output rows (SELECT DISTINCT).
    pub distinct: bool,
    /// Bound activations per operator.
    pub activations: Vec<(OperatorId, Activation)>,
    /// The snapshot its scans and probes read ([`SubmitOptions::pinned_snapshot`]),
    /// held until the query completes.
    pub pin: Option<SnapshotPin>,
}

/// One admitted update.
#[derive(Debug, Clone)]
pub struct ActiveUpdate {
    /// Statement, times and target.
    pub admitted: Admitted,
    /// Target table.
    pub table: String,
    /// The bound update operation.
    pub op: UpdateOp,
}

/// One batch ("generation") of queries and updates processed by a heartbeat.
#[derive(Debug, Clone, Default)]
pub struct QueryBatch {
    /// Batch sequence number.
    pub id: BatchId,
    /// Queries of the batch.
    pub queries: Vec<ActiveQuery>,
    /// Updates of the batch, in arrival order.
    pub updates: Vec<ActiveUpdate>,
}

impl QueryBatch {
    /// True when the batch contains no work.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty() && self.updates.is_empty()
    }

    /// Number of queries plus updates.
    pub fn len(&self) -> usize {
        self.queries.len() + self.updates.len()
    }

    /// The activations of all queries of the batch for one operator.
    pub fn activations_for(&self, operator: OperatorId) -> Vec<(QueryId, Activation)> {
        let mut out = Vec::new();
        for q in &self.queries {
            for (op, activation) in &q.activations {
                if *op == operator {
                    out.push((q.query_id, activation.clone()));
                }
            }
        }
        out
    }
}

/// Binds a query statement: substitutes parameters into every activation
/// template and attaches the submission's snapshot.
pub fn bind_query(
    spec: &StatementSpec,
    statement_index: usize,
    query_id: QueryId,
    ticket: TicketId,
    params: &[Value],
    opts: &SubmitOptions,
) -> Result<ActiveQuery> {
    let StatementKind::Query {
        root,
        projection,
        compute,
        limit,
        distinct,
    } = &spec.kind
    else {
        return Err(Error::Internal(format!(
            "statement {} is not a query",
            spec.name
        )));
    };
    let activations = spec
        .activations
        .iter()
        .map(|(op, template)| Ok((*op, bind_activation(template, params, opts)?)))
        .collect::<Result<Vec<_>>>()?;
    let compute = compute
        .iter()
        .map(|c| {
            Ok(ComputedColumn {
                name: c.name.clone(),
                data_type: c.data_type,
                expr: c.expr.bind(params)?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(ActiveQuery {
        admitted: Admitted::now(statement_index, ticket, opts),
        query_id,
        root: *root,
        projection: projection.clone(),
        compute,
        limit: *limit,
        distinct: *distinct,
        activations,
        pin: opts.pinned_snapshot.clone(),
    })
}

fn bind_activation(
    template: &ActivationTemplate,
    params: &[Value],
    opts: &SubmitOptions,
) -> Result<Activation> {
    Ok(match template {
        ActivationTemplate::Scan { predicate } => Activation::Scan {
            predicate: predicate.bind(params)?,
            snapshot: opts.pinned_snapshot.as_deref().copied(),
        },
        ActivationTemplate::Probe {
            column,
            key,
            residual,
        } => Activation::Probe {
            column: *column,
            key: key.bind(params)?.eval(&Tuple::empty())?,
            residual: residual.as_ref().map(|e| e.bind(params)).transpose()?,
            snapshot: opts.pinned_snapshot.as_deref().copied(),
        },
        ActivationTemplate::Filter { predicate } => Activation::Filter {
            predicate: predicate.bind(params)?,
        },
        ActivationTemplate::Participate => Activation::Participate,
        ActivationTemplate::TopN { limit } => Activation::TopN { limit: *limit },
        ActivationTemplate::Having { predicate } => Activation::Having {
            predicate: predicate.as_ref().map(|e| e.bind(params)).transpose()?,
            partial: false,
        },
        ActivationTemplate::Demand {
            base, keys, limit, ..
        } => Activation::Demand {
            base: Box::new(bind_activation(base, params, opts)?),
            keys: Arc::clone(keys),
            limit: *limit,
        },
    })
}

/// Binds an update statement into a storage [`UpdateOp`] and attaches the
/// submission's completion target.
pub fn bind_update(
    spec: &StatementSpec,
    statement_index: usize,
    ticket: TicketId,
    params: &[Value],
    opts: &SubmitOptions,
) -> Result<ActiveUpdate> {
    let StatementKind::Update { table, template } = &spec.kind else {
        return Err(Error::Internal(format!(
            "statement {} is not an update",
            spec.name
        )));
    };
    let op = match template {
        UpdateTemplate::Insert { values } => {
            let empty = Tuple::empty();
            let values: Vec<Value> = values
                .iter()
                .map(|e| e.bind(params)?.eval(&empty))
                .collect::<Result<_>>()?;
            UpdateOp::Insert {
                values: Tuple::new(values),
            }
        }
        UpdateTemplate::Update {
            assignments,
            predicate,
        } => UpdateOp::Update {
            assignments: assignments
                .iter()
                .map(|(col, e)| Ok((*col, e.bind(params)?)))
                .collect::<Result<_>>()?,
            predicate: predicate.bind(params)?,
        },
        UpdateTemplate::Delete { predicate } => UpdateOp::Delete {
            predicate: predicate.bind(params)?,
        },
    };
    Ok(ActiveUpdate {
        admitted: Admitted::now(statement_index, ticket, opts),
        table: table.clone(),
        op,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StatementSpec;

    #[test]
    fn bind_query_substitutes_parameters() {
        let spec = StatementSpec::query("q", 3)
            .activate(
                0,
                ActivationTemplate::Scan {
                    predicate: Expr::col(1).eq(Expr::param(0)),
                },
            )
            .activate(
                2,
                ActivationTemplate::Probe {
                    column: 0,
                    key: Expr::param(1),
                    residual: None,
                },
            )
            .activate(3, ActivationTemplate::TopN { limit: 5 })
            .project(vec![0, 1])
            .limit(10);
        let q = bind_query(
            &spec,
            7,
            QueryId(42),
            TicketId(9),
            &[Value::text("CH"), Value::Int(11)],
            &SubmitOptions::default(),
        )
        .unwrap();
        assert_eq!(q.query_id, QueryId(42));
        assert_eq!(q.root, 3);
        assert_eq!(q.projection, vec![0, 1]);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.activations.len(), 3);
        match &q.activations[0].1 {
            Activation::Scan { predicate, .. } => assert!(predicate.is_bound()),
            other => panic!("unexpected {other:?}"),
        }
        match &q.activations[1].1 {
            Activation::Probe { key, .. } => assert_eq!(*key, Value::Int(11)),
            other => panic!("unexpected {other:?}"),
        }
        // Missing parameters are an error.
        assert!(bind_query(
            &spec,
            7,
            QueryId(1),
            TicketId(1),
            &[],
            &SubmitOptions::default()
        )
        .is_err());
        // Binding it as an update is an error.
        assert!(bind_update(&spec, 7, TicketId(1), &[], &SubmitOptions::default()).is_err());
    }

    #[test]
    fn bind_update_insert_and_delete() {
        let spec = StatementSpec::update(
            "addOrder",
            "ORDERS",
            UpdateTemplate::Insert {
                values: vec![Expr::param(0), Expr::param(1), Expr::lit("OK")],
            },
        );
        let opts = SubmitOptions::default();
        let u = bind_update(
            &spec,
            0,
            TicketId(1),
            &[Value::Int(1), Value::Int(2)],
            &opts,
        )
        .unwrap();
        assert_eq!(u.table, "ORDERS");
        match u.op {
            UpdateOp::Insert { values } => {
                assert_eq!(values.values().len(), 3);
                assert_eq!(values[2], Value::text("OK"));
            }
            other => panic!("unexpected {other:?}"),
        }

        let spec = StatementSpec::update(
            "dropOrder",
            "orders",
            UpdateTemplate::Delete {
                predicate: Expr::col(0).eq(Expr::param(0)),
            },
        );
        let u = bind_update(&spec, 0, TicketId(2), &[Value::Int(5)], &opts).unwrap();
        match u.op {
            UpdateOp::Delete { predicate } => assert!(predicate.is_bound()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(bind_query(
            &spec,
            0,
            QueryId(1),
            TicketId(1),
            &[],
            &SubmitOptions::default()
        )
        .is_err());
    }

    #[test]
    fn batch_activation_grouping() {
        let spec = StatementSpec::query("q", 1).activate(
            0,
            ActivationTemplate::Scan {
                predicate: Expr::lit(true),
            },
        );
        let q1 = bind_query(
            &spec,
            0,
            QueryId(1),
            TicketId(1),
            &[],
            &SubmitOptions::default(),
        )
        .unwrap();
        let q2 = bind_query(
            &spec,
            0,
            QueryId(2),
            TicketId(2),
            &[],
            &SubmitOptions::default(),
        )
        .unwrap();
        let batch = QueryBatch {
            id: BatchId(1),
            queries: vec![q1, q2],
            updates: vec![],
        };
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.activations_for(0).len(), 2);
        assert_eq!(batch.activations_for(5).len(), 0);
    }
}
