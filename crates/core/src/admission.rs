//! Admission: from a caller's `submit` to a statement waiting, bound, for
//! the next batch.
//!
//! One queue under one mutex: a submission binds its parameters, checks the
//! depth bound and enqueues under the lock, and wakes the coordinator iff it
//! found the queue empty.

use crate::batch::{bind_query, bind_update, ActiveQuery, ActiveUpdate};
use crate::completions::Completions;
use crate::engine::{Engine, QueryHandle, QueryOutcome, SubmitOptions};
use crate::plan::{ActivationTemplate, GlobalPlan, OperatorId, OperatorSpec, StatementSpec};
use crate::stats::Phase;
use shareddb_common::ids::TicketGenerator;
use shareddb_common::sync::{Condvar, Mutex};
use shareddb_common::{Error, QueryId, Result, Value};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

pub(crate) enum Submission {
    Query(ActiveQuery),
    Update(ActiveUpdate),
}

/// Class of a statement type (see [`Engine::statement_lane`]). Every
/// statement waits in the one queue; the class only orders a batch's
/// answers: a batch holds its light queries first.
///
/// The classification falls out of the plan shape: a query whose activations
/// touch only index probes and filters is a point lookup (*light*); anything
/// driving a table scan, join, sort, top-N, group-by or distinct is
/// *heavy*. Updates are light: group-commit appends a session's next read
/// may wait behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Latency-critical: point lookups and updates.
    Light,
    /// Throughput-bound: scans, joins, aggregates.
    Heavy,
}

pub(crate) fn classify_statement(spec: &StatementSpec, plan: &GlobalPlan) -> Lane {
    let probe_or_filter = |(op, _): &(OperatorId, ActivationTemplate)| {
        let spec = &plan.node(*op).spec;
        matches!(spec, OperatorSpec::IndexProbe { .. } | OperatorSpec::Filter)
    };
    if spec.is_update() || spec.activations.iter().all(probe_or_filter) {
        Lane::Light
    } else {
        Lane::Heavy
    }
}

/// Everything a submission writes — the queue, the coordinator's wake-up
/// and the id counters — on cache lines of its own (128 bytes: a line and the
/// neighbour the prefetcher pulls with it). Engine state the other thread
/// reads must not share a line with it, or every submission evicts that
/// state from the coordinator's cache: where the field layout happened to
/// put them together, the ledger's workloads spent 2–5 % more CPU a
/// statement on a 2-vCPU host.
#[repr(align(128))]
pub(crate) struct Admission {
    /// Statements in arrival order, waiting for the next batch.
    pub queue: Mutex<VecDeque<Submission>>,
    pub signal: Condvar,
    pub tickets: Tickets,
}

/// The ticket counter on a line apart from the queue's lock and condition
/// variable: a submitter bumps it before it takes the lock, which the
/// coordinator may hold meanwhile. Beside them, `tpcw_ordering` and
/// `heavy_light` spent 1.3–2.5 % more CPU a statement.
#[repr(align(64))]
pub(crate) struct Tickets(pub TicketGenerator);

impl Default for Admission {
    fn default() -> Self {
        Admission {
            queue: Mutex::default(),
            signal: Condvar::new(),
            tickets: Tickets(TicketGenerator::new()),
        }
    }
}

impl Engine {
    /// Submits a statement execution; returns a handle to wait on.
    pub fn execute(&self, statement: &str, params: &[Value]) -> Result<QueryHandle> {
        self.submit(statement, params, SubmitOptions::default())
    }

    /// Submits a statement execution with admission options; returns a handle
    /// to wait on (or poll via [`QueryHandle::try_wait`]).
    pub fn submit(
        &self,
        statement: &str,
        params: &[Value],
        opts: SubmitOptions,
    ) -> Result<QueryHandle> {
        let (index, _) = self.inner.registry.get(statement)?;
        self.submit_prepared(index, params, opts)
    }

    /// [`Engine::submit`] of the statement at `index` of the registry (as
    /// [`crate::StatementRegistry::get`] returned it), without the look-up
    /// by name.
    pub fn submit_prepared(
        &self,
        index: usize,
        params: &[Value],
        mut opts: SubmitOptions,
    ) -> Result<QueryHandle> {
        // `shutdown` takes the engine exclusively, so what is queued was
        // queued before it: all of it is in the coordinator's last batch at
        // the latest, and nothing is queued that nobody will answer.
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(Error::EngineShutdown);
        }
        // The admission phase spans binding and the queue push — everything
        // between the caller's submit call and the statement waiting for its
        // batch.
        let submitted = Instant::now();
        let spec = self.inner.registry.by_index(index);
        let ticket = self.inner.admission.tickets.0.next_id();
        let slot = opts.completions.is_none().then(|| {
            let slot = Arc::new(Completions::new(None));
            opts.completions = Some((Arc::clone(&slot), 0));
            slot
        });
        let submission = if spec.is_update() {
            let mut update = bind_update(spec, index, ticket, params, &opts)?;
            update.admitted.submitted = submitted;
            Submission::Update(update)
        } else {
            // Its id is its place in the batch it joins, numbered there.
            let mut query = bind_query(spec, index, QueryId(0), ticket, params, &opts)?;
            query.admitted.submitted = submitted;
            Submission::Query(query)
        };
        let mut queue = self.inner.admission.queue.lock();
        // Checked and enqueued under the one lock: the bound is exact.
        if let Some(max) = opts.max_queue_depth {
            if queue.len() >= max {
                return Err(Error::Overloaded(format!(
                    "admission queue depth limit of {max} reached"
                )));
            }
        }
        // The coordinator parks without a timeout only over an empty queue,
        // and drains the queue whole: whoever fills it wakes it, and what is
        // pushed behind rides along.
        let wake = queue.is_empty();
        queue.push_back(submission);
        drop(queue);
        if wake {
            self.inner.admission.signal.notify_one();
        }
        let stats = &self.inner.stats;
        stats.record_phase(index, Phase::Admission, submitted.elapsed());
        Ok(QueryHandle { ticket, slot })
    }

    /// Submits a statement and blocks until its result is available.
    pub fn execute_sync(&self, statement: &str, params: &[Value]) -> Result<QueryOutcome> {
        self.execute(statement, params)?.wait()
    }

    /// Number of statements queued but not yet admitted into a batch.
    pub fn queued(&self) -> usize {
        self.inner.admission.queue.lock().len()
    }

    /// The class of the statement at registry `index`: point lookups and
    /// updates light, scans/joins/aggregates heavy.
    pub fn statement_lane(&self, index: usize) -> Lane {
        let lane = self.inner.lane_of.get(index);
        lane.copied().unwrap_or(Lane::Heavy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::tests::build_engine;

    /// Fixture registration order: usersByCountry=0, ordersOfUser=1,
    /// userById=2, topOrders=3, addOrder=4, cancelOrders=5.
    #[test]
    fn lane_classification_follows_plan_shape() {
        let engine = build_engine(EngineConfig::default());
        // Probe-only shape is light; scans/joins/aggregates are heavy;
        // updates are always light (group-commit appends).
        assert!(matches!(engine.statement_lane(0), Lane::Heavy)); // group-by
        assert!(matches!(engine.statement_lane(1), Lane::Heavy)); // join+sort
        assert!(matches!(engine.statement_lane(2), Lane::Light)); // point probe
        assert!(matches!(engine.statement_lane(3), Lane::Heavy)); // top-N scan
        assert!(matches!(engine.statement_lane(4), Lane::Light)); // insert
        assert!(matches!(engine.statement_lane(5), Lane::Light)); // delete
    }

    #[test]
    fn unknown_statement_and_missing_params_fail_fast() {
        let engine = build_engine(EngineConfig::default());
        assert!(matches!(
            engine.execute("noSuchStatement", &[]),
            Err(Error::UnknownStatement(_))
        ));
        assert!(matches!(
            engine.execute("ordersOfUser", &[]),
            Err(Error::InvalidParameter(_))
        ));
    }
}
