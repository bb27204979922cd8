//! The coordinator thread: one batch after another.
//!
//! [`coordinator_loop`] waits for work, drains the admission queue whole
//! (whatever queued while the last batch ran) and hands it to
//! [`process_batch`] — a sequence of named steps over one
//! [`BatchCtx`]: apply the updates (group commit), build the run, run it on
//! the executor, fold the done records into the counters, Γ-route the roots'
//! outputs, and complete every query. A second batch in flight is a change
//! to one of these steps.

use crate::admission::{Lane, Submission};
use crate::batch::{Admitted, QueryBatch};
use crate::engine::{EngineInner, QueryOutcome};
use crate::executor::{NodeRun, Run};
use crate::routing::{finalize_query_result, QueryRows, RoutingTable};
use crate::stats::Phase;
use crate::trace::{StatementRecord, TraceEvent};
use shareddb_common::ids::BatchId;
use shareddb_common::{Error, QueryId, Result};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

pub(crate) fn coordinator_loop(inner: Arc<EngineInner>) {
    let mut batch_seq: u64 = 0;
    loop {
        // Park over an empty queue, with no timeout: whoever fills the queue
        // or sets the shutdown flag does so under the queue lock and
        // notifies, so an idle engine's coordinator sleeps until then. A
        // shutdown still answers what it finds queued, from one last batch.
        let submissions: Vec<Submission> = {
            let mut queue = inner.admission.queue.lock();
            while queue.is_empty() {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = inner.admission.signal.wait(queue);
            }
            queue.drain(..).collect()
        };

        batch_seq += 1;
        let mut batch = QueryBatch {
            id: BatchId(batch_seq),
            ..Default::default()
        };
        // Light queries first, each class in arrival order: the batch
        // answers in this order, so a look-up's reply does not wait for the
        // heavy pages to be finished (arrival order cost `heavy_light` 7 %
        // of its light statements/s).
        let mut heavy = Vec::new();
        for submission in submissions {
            match submission {
                Submission::Query(q)
                    if inner.lane_of[q.admitted.statement_index] == Lane::Heavy =>
                {
                    heavy.push(q)
                }
                Submission::Query(q) => batch.queries.push(q),
                Submission::Update(u) => batch.updates.push(u),
            }
        }
        batch.queries.append(&mut heavy);
        // A query's id is its place in the batch: the ids of a run lie in
        // one short span, and the query set of every row is one word.
        for (place, query) in batch.queries.iter_mut().enumerate() {
            query.query_id = QueryId(place as u32);
        }
        // Counted before it is answered: whoever holds a reply of the batch
        // finds the batch in the counters.
        inner.stats.record_batch(batch.len());
        process_batch(&inner, &batch);
    }
}

/// What every step of one batch reads.
struct BatchCtx<'a> {
    inner: &'a EngineInner,
    batch: &'a QueryBatch,
    /// When the coordinator took the batch up: the end of its statements'
    /// batch wait, the start of their execute phase.
    started: Instant,
}

fn process_batch(inner: &EngineInner, batch: &QueryBatch) {
    let ctx = BatchCtx {
        inner,
        batch,
        started: Instant::now(),
    };
    ctx.apply_updates();
    if batch.queries.is_empty() {
        return;
    }
    // Always-on plan, on shared cores: every operator counts the cycle, only
    // those with an activation get a task, worked off here beside the pool.
    let run = inner.executor.run(ctx.build_run());
    let error = ctx.fold_counters(&run);
    let routed = ctx.route(&run);
    ctx.complete_queries(error.as_ref(), routed);
}

impl BatchCtx<'_> {
    /// Applies the batch's updates in arrival order (one commit timestamp
    /// for the whole batch, group commit into the WAL) and completes them.
    /// Each costs O(rows it touches) when its WHERE clause has an indexed
    /// equality.
    fn apply_updates(&self) {
        let (inner, updates) = (self.inner, &self.batch.updates);
        if updates.is_empty() {
            return;
        }
        let ops = updates.iter().map(|u| (u.table.as_str(), &u.op));
        let applied = inner.catalog.apply_ops(ops);
        // Each update completes with its own result; only a failure of the
        // log itself fails them all.
        let results = applied.unwrap_or_else(|e| vec![Err(e); updates.len()]);
        for (update, result) in updates.iter().zip(results) {
            let outcome = result.map(|applied| {
                inner.stats.record_update_rows(
                    update.admitted.statement_index,
                    applied.rows_examined,
                    applied.rows_affected,
                );
                QueryOutcome::Updated {
                    rows_affected: applied.rows_affected,
                }
            });
            self.complete(&update.admitted, outcome);
        }
    }

    /// The run state of the batch's queries: per plan node, the activations
    /// of the queries that run there, and the batch's snapshot, pinned here,
    /// after the updates, for the life of the run.
    fn build_run(&self) -> Run {
        let inner = self.inner;
        let mut nodes: Vec<NodeRun> = (0..inner.plan.len()).map(|_| NodeRun::default()).collect();
        for q in &self.batch.queries {
            for (op, activation) in &q.activations {
                nodes[*op]
                    .activations
                    .push((q.query_id, activation.clone()));
            }
        }
        let pin = inner.catalog.pin();
        Run { pin, nodes }
    }

    /// Records the run — a cycle of every operator — and the cycle of each
    /// node that ran in the attribution table, the batch, the snapshot it
    /// read and its active operators in the trace, and returns the first
    /// failure of a node: a batch fails as one.
    fn fold_counters(&self, run: &Run) -> Option<Error> {
        let (inner, batch) = (self.inner, self.batch);
        let mut error = None;
        inner.attribution.record_run();
        // `(statement, activations)` of one node, ascending by statement.
        let mut counts: Vec<(usize, u64)> = Vec::new();
        let mut fired = Vec::new();
        for (id, node) in run.nodes.iter().enumerate() {
            let Some(done) = node.done.get() else {
                continue;
            };
            let pruned = match &done.pruned {
                Ok(pruned) => *pruned,
                Err(e) => {
                    error.get_or_insert_with(|| e.clone());
                    0
                }
            };
            counts.clear();
            for (query, _) in &node.activations {
                let statement = batch.queries[query.0 as usize].admitted.statement_index;
                match counts.iter_mut().find(|(s, _)| *s == statement) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((statement, 1)),
                }
            }
            counts.sort_unstable();
            let rows = done.rows as u64;
            inner
                .attribution
                .record_cycle(id, &counts, rows, pruned as u64, done.busy);
            fired.push((id, done.rows, done.busy));
        }
        inner.trace.push(TraceEvent::Batch {
            batch: batch.id.0,
            queries: batch.queries.len(),
            updates: batch.updates.len(),
            snapshot: run.pin.ts,
            operators: fired,
        });
        error
    }

    /// Γ by query id: every root a query of the batch reads is exploded
    /// once, whatever the number of queries — and all of them before the
    /// first outcome is handed over: a reader woken between two roots drains
    /// one reply, parks and is woken again.
    fn route(&self, run: &Run) -> RoutingTable {
        let nodes = self.inner.plan.len();
        let mut routed: RoutingTable = (0..nodes).map(|_| None).collect();
        let queries = self.batch.queries.len();
        for q in &self.batch.queries {
            routed[q.root].get_or_insert_with(|| {
                let done = run.nodes[q.root].done.get();
                let output = done.map_or(&[][..], |done| done.output.as_slice());
                QueryRows::explode(output, queries)
            });
        }
        routed
    }

    /// Finishes every query — its rows out of the routing table, then
    /// limit, projection and DISTINCT — and hands each outcome over as it is
    /// finished, in batch order. When a node failed, every query gets its
    /// error.
    fn complete_queries(&self, error: Option<&Error>, mut routed: RoutingTable) {
        let (inner, batch) = (self.inner, self.batch);
        for q in &batch.queries {
            let outcome = match error {
                Some(error) => Err(error.clone()),
                None => {
                    let of_root = routed[q.root].as_mut();
                    let rows = of_root.map_or_else(Vec::new, |rows| rows.take(q.query_id));
                    finalize_query_result(inner, q, rows)
                }
            };
            self.complete(&q.admitted, outcome);
        }
    }

    /// Books one statement of the batch — counters, phase histograms, its
    /// trace record and, past the threshold, the slow-query log — and hands
    /// its outcome over, while the batch's intermediates are still alive: a
    /// reader woken here works beside the coordinator freeing them, not
    /// after it.
    fn complete(&self, statement: &Admitted, outcome: Result<QueryOutcome>) {
        let (inner, stats, started) = (self.inner, &self.inner.stats, self.started);
        // One completion timestamp for every span, so total >= execute and
        // total >= batch_wait hold exactly (two elapsed() calls would let
        // the later-measured span overshoot the earlier one).
        let now = Instant::now();
        let latency = now.duration_since(statement.submitted);
        match &outcome {
            Ok(QueryOutcome::Rows(rs)) => stats.record_query(rs.len()),
            Ok(QueryOutcome::Updated { .. }) => stats.record_update(),
            Err(_) => stats.record_failure(),
        }
        let batch_wait = started.duration_since(statement.enqueued);
        let execute = now.duration_since(started);
        let index = statement.statement_index;
        stats.record_phase(index, Phase::BatchWait, batch_wait);
        stats.record_phase(index, Phase::Execute, execute);
        stats.record_phase(index, Phase::Total, latency);
        let record = StatementRecord {
            batch: self.batch.id.0,
            statement: index,
            ticket: statement.ticket.0,
            rows: outcome.as_ref().map_or(0, |o| o.rows().len()),
            ok: outcome.is_ok(),
            admission: statement.enqueued.duration_since(statement.submitted),
            batch_wait,
            execute,
            total: latency,
        };
        inner.trace.push(TraceEvent::Statement(record));
        let slow = inner.config.slow_query_threshold;
        if slow.is_some_and(|threshold| latency >= threshold) {
            inner.slow.push(record);
        }
        if let Some((queue, tag)) = &statement.completion {
            if queue.push(*tag, outcome) {
                stats.record_completion_wake();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::tests::build_engine;
    use shareddb_common::Value;
    use std::time::Duration;

    /// One batch holding `broken` and a healthy look-up: both get `broken`'s
    /// error (a batch fails as one), `failed` counts each failed handle once,
    /// the next batch on the same engine answers, and shutdown joins every
    /// thread.
    fn broken_statement_fails_its_batch_only(broken: &str, expected: fn(&Error) -> bool) {
        for cores in [1, 2, 8] {
            let mut engine = build_engine(EngineConfig::with_cores(cores));
            // Gathers the two statements into one batch: the look-up ahead
            // of them waits for USERS, held here, and they queue behind it.
            let users = engine.catalog().table("USERS").unwrap();
            let hold = users.write();
            let ahead = engine.execute("userById", &[Value::Int(1)]).unwrap();
            while engine.queued() > 0 {
                std::thread::yield_now();
            }
            let bystander = engine.execute("userById", &[Value::Int(2)]).unwrap();
            let failing = engine.execute(broken, &[]).unwrap();
            drop(hold);
            ahead.wait().unwrap();
            let error = failing.wait().unwrap_err();
            assert!(expected(&error), "{cores} cores: unexpected {error:?}");
            let error = bystander.wait().unwrap_err();
            assert!(expected(&error), "{cores} cores: a batch fails as one");
            let shared = engine.trace().iter().any(|record| {
                matches!(
                    record.event,
                    TraceEvent::Batch {
                        batch: 2,
                        queries: 2,
                        ..
                    }
                )
            });
            assert!(shared, "{cores} cores: the two statements shared batch 2");
            assert_eq!(
                engine.stats().failed,
                2,
                "{cores} cores: one failure per failed handle"
            );
            let rows = engine.execute_sync("userById", &[Value::Int(33)]).unwrap();
            assert_eq!(rows.rows()[0][1], Value::text("user33"));
            let rows = engine.execute_sync("usersByCountry", &[]).unwrap();
            assert_eq!(rows.rows().len(), 2);
            engine.shutdown();
        }
    }

    #[test]
    fn panicking_operator_fails_its_batch_only() {
        broken_statement_fails_its_batch_only(
            "brokenSort",
            |e| matches!(e, Error::Internal(m) if m.starts_with("operator Sort") && m.contains("panicked: index out of bounds")),
        );
    }

    #[test]
    fn failing_operator_fails_its_batch_only() {
        broken_statement_fails_its_batch_only(
            "brokenFilter",
            |e| matches!(e, Error::TypeMismatch { expected, .. } if expected == "Bool"),
        );
    }

    #[test]
    fn attribution_sums_to_operator_busy_exactly() {
        // What queues behind the first batch shares the next.
        let engine = build_engine(EngineConfig::default());
        // A mixed workload: four query types sharing the USERS/ORDERS scans,
        // one of them a group-join.
        let mut handles = Vec::new();
        for i in 0..20i64 {
            handles.push(engine.execute("usersByCountry", &[]).unwrap());
            handles.push(
                engine
                    .execute("ordersOfUser", &[Value::text(format!("user{i}"))])
                    .unwrap(),
            );
            handles.push(engine.execute("topOrders", &[Value::Float(0.0)]).unwrap());
            let country = Value::text(["CH", "DE"][i as usize % 2]);
            handles.push(engine.execute("salesByUser", &[country]).unwrap());
        }
        for h in handles {
            h.wait().unwrap();
        }
        let stats = engine.stats();
        let operators = &stats.operators;
        // The group-join's join ran inside its group-by every time: it counts
        // the pairs it matched, the group-by the time of both.
        let (join, group_by) = (&operators[11], &operators[12]);
        assert_eq!(
            (&join.name[..], &group_by.name[..]),
            ("HashJoin#11", "GroupBy#12")
        );
        assert_eq!(join.active_cycles, group_by.active_cycles);
        assert!(join.tuples_out > 0 && group_by.busy > Duration::ZERO);
        assert_eq!(join.busy, Duration::ZERO);
        let attribution = &stats.attribution;
        // The invariant the whole attribution design hangs on: per operator,
        // the attributed busy times and rows sum EXACTLY to the operator's
        // own counters.
        for op in operators {
            let busy: Duration = attribution
                .iter()
                .filter(|e| e.operator == op.name)
                .map(|e| e.busy)
                .sum();
            assert_eq!(busy, op.busy, "busy mismatch for operator {}", op.name);
            let rows: u64 = attribution
                .iter()
                .filter(|e| e.operator == op.name)
                .map(|e| e.rows)
                .sum();
            assert_eq!(rows, op.tuples_out, "row mismatch for operator {}", op.name);
        }
        // The USERS scan is genuinely shared: at least two statement types
        // recorded activations on it.
        let users_scan = operators
            .iter()
            .find(|o| o.name.starts_with("Scan(USERS)"))
            .unwrap();
        let sharers: Vec<&str> = attribution
            .iter()
            .filter(|e| e.operator == users_scan.name && e.activations > 0)
            .map(|e| e.statement.as_str())
            .collect();
        assert!(
            sharers.len() >= 2,
            "expected a shared scan, got {sharers:?}"
        );
        engine.reset_stats();
        assert!(engine.stats().attribution.is_empty());
    }
}
