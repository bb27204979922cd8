//! The coordinator thread: one heartbeat after another, each one batch.
//!
//! [`coordinator_loop`] waits for work, drains the admission queue whole,
//! holds back reads whose session fence is not covered yet — parking
//! until a submission or a commit when it held back every one — and hands
//! what is left to [`process_batch`] — a sequence of named steps over one
//! [`BatchCtx`]: apply the updates (group commit), build the run, run it on
//! the executor, fold the done records into the counters, Γ-route the roots'
//! outputs, and complete every query. A second batch in flight is a change
//! to one of these steps.

use crate::admission::{Lane, Submission};
use crate::batch::{Admitted, QueryBatch};
use crate::engine::{EngineInner, QueryOutcome, WriteFence};
use crate::executor::{NodeRun, Run};
use crate::routing::{finalize_query_result, QueryRows, RoutingTable};
use crate::stats::Phase;
use crate::trace::{StatementRecord, TraceEvent};
use shareddb_common::ids::BatchId;
use shareddb_common::{Error, QueryId, Result};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a read defers on an unresolved (or uncovered) session write
/// fence before being admitted anyway — a wedged writer must not hang
/// readers forever.
const FENCE_WAIT_CAP: Duration = Duration::from_secs(1);

/// Left by a drain that held back every read it took: until the queue grows,
/// a commit is counted ([`crate::admission::Queue::commits`]) or the oldest
/// held read's cap runs out, draining again would hold back the same reads.
struct FencePark {
    /// Statements queued once the held reads went back.
    queued: usize,
    /// Commits counted when they were drained.
    commits: u64,
    /// When the oldest of them is admitted whatever its fence.
    due: Instant,
}

pub(crate) fn coordinator_loop(inner: Arc<EngineInner>) {
    let heartbeat = inner.config.heartbeat;
    let mut batch_seq: u64 = 0;
    // `None` until the first batch, which never waits for the heartbeat.
    let mut last_batch_start: Option<Instant> = None;
    let mut parked: Option<FencePark> = None;
    loop {
        // Wait for work (or shutdown), then for the heartbeat's spacing since
        // the last batch started. Over an empty queue the wait has no
        // timeout: whoever fills the queue or sets the shutdown flag does so
        // under the queue lock and notifies, so an idle engine's coordinator
        // sleeps until then; the spacing is one timed wait that only the
        // shutdown cuts short.
        let (submissions, commits, shutting_down) = {
            let mut queue = inner.admission.queue.lock();
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                if let Some(park) = parked.take() {
                    // The held reads' writes commit on some *other* replica:
                    // sleep until a commit, a submission or a cap, if none yet.
                    let unchanged =
                        queue.statements.len() == park.queued && queue.commits == park.commits;
                    let timeout = park.due.saturating_duration_since(Instant::now());
                    if unchanged && !timeout.is_zero() {
                        queue.fence_parked = true;
                        queue = inner.admission.signal.wait_timeout(queue, timeout).0;
                        queue.fence_parked = false;
                    }
                    continue;
                }
                if queue.statements.is_empty() {
                    queue = inner.admission.signal.wait(queue);
                    continue;
                }
                let since = last_batch_start.map_or(heartbeat, |start| start.elapsed());
                if since >= heartbeat {
                    break;
                }
                let spacing = heartbeat - since;
                queue = inner.admission.signal.wait_timeout(queue, spacing).0;
            }
            let shutting_down = inner.shutdown.load(Ordering::Acquire);
            if shutting_down && queue.statements.is_empty() {
                break;
            }
            let drained: Vec<Submission> = queue.statements.drain(..).collect();
            (drained, queue.commits, shutting_down)
        };

        let (admitted, deferred) = if shutting_down {
            (submissions, Vec::new())
        } else {
            hold_fenced_reads(&inner, submissions)
        };
        if admitted.is_empty() && !deferred.is_empty() {
            let oldest = deferred.iter().map(|s| s.admitted().enqueued).min();
            parked = oldest.map(|oldest| FencePark {
                queued: deferred.len(),
                commits,
                due: oldest + FENCE_WAIT_CAP,
            });
        }
        if !deferred.is_empty() {
            // Deferred queries go back to the *front* of the queue in
            // reverse drain order, preserving FIFO.
            let mut queue = inner.admission.queue.lock();
            for submission in deferred.into_iter().rev() {
                queue.statements.push_front(submission);
            }
        }
        if admitted.is_empty() {
            continue;
        }

        last_batch_start = Some(Instant::now());
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
        for submission in admitted {
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

/// Read-your-writes: splits what a drain took into what its batch
/// admits and the queries it holds back — those whose session fence is not
/// yet covered by the committed watermark, unless the covering update rides
/// in this very batch (updates group-commit before the batch's snapshot is
/// taken) or the fence has been pending past [`FENCE_WAIT_CAP`].
fn hold_fenced_reads(
    inner: &EngineInner,
    submissions: Vec<Submission>,
) -> (Vec<Submission>, Vec<Submission>) {
    let fenced = |s: &Submission| matches!(s, Submission::Query(q) if q.read_after.is_some());
    if !submissions.iter().any(fenced) {
        return (submissions, Vec::new());
    }
    let watermark = inner.catalog.oracle().read_ts().ts.0;
    let batch_fences: Vec<Arc<WriteFence>> = submissions
        .iter()
        .filter_map(|s| match s {
            Submission::Update(u) => u.write_fence.clone(),
            _ => None,
        })
        .collect();
    let admit = |submission: &Submission| {
        let Submission::Query(query) = submission else {
            return true;
        };
        query.read_after.as_ref().is_none_or(|fence| {
            let covered = fence.committed_ts().is_some_and(|ts| ts <= watermark);
            let in_batch = batch_fences.iter().any(|f| Arc::ptr_eq(f, fence));
            covered || in_batch || query.admitted.enqueued.elapsed() >= FENCE_WAIT_CAP
        })
    };
    // The usual case holds nothing back: the drained list is the batch as it is.
    if submissions.iter().all(admit) {
        return (submissions, Vec::new());
    }
    submissions.into_iter().partition(admit)
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
        // Resolve session write fences at the watermark now covering this
        // group commit — in the error path too: a failed write constrains no
        // read, and a session must not block on it.
        let oracle = inner.catalog.oracle();
        let watermark = oracle.read_ts().ts.0;
        let mut fenced = false;
        for fence in updates.iter().filter_map(|u| u.write_fence.as_ref()) {
            fence.resolve(watermark);
            fenced = true;
        }
        if fenced {
            // The publish woke the replicas holding reads back before the
            // fences it covers were resolved: once more, now that they are.
            oracle.wake_subscribers();
        }
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
    /// node that ran in the attribution table, the batch and its active
    /// operators in the trace, and returns the first failure of a node: a
    /// batch fails as one.
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
            replica: 0,
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
    use crate::engine::{Engine, SubmitOptions};
    use crate::plan::StatementRegistry;
    use shareddb_common::Value;

    /// One batch holding `broken` and a healthy look-up: both get `broken`'s
    /// error (a batch fails as one), `failed` counts each failed handle once,
    /// the next batch on the same engine answers, and shutdown joins every
    /// thread.
    fn broken_statement_fails_its_batch_only(broken: &str, expected: fn(&Error) -> bool) {
        for cores in [1, 2, 8] {
            // Gathers the two statements into the second batch.
            let mut engine = build_engine(EngineConfig {
                heartbeat: Duration::from_millis(30),
                ..EngineConfig::with_cores(cores)
            });
            engine.execute_sync("userById", &[Value::Int(1)]).unwrap();
            let bystander = engine.execute("userById", &[Value::Int(2)]).unwrap();
            let failing = engine.execute(broken, &[]).unwrap();
            let error = failing.wait().unwrap_err();
            assert!(expected(&error), "{cores} cores: unexpected {error:?}");
            let bystander = bystander.wait();
            let shared_a_batch = engine
                .trace()
                .iter()
                .any(|record| matches!(record.event, TraceEvent::Batch { queries: 2, .. }));
            if shared_a_batch {
                assert!(
                    expected(bystander.as_ref().unwrap_err()),
                    "a batch fails as one"
                );
            }
            assert_eq!(
                engine.stats().failed,
                1 + bystander.is_err() as u64,
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
        // No heartbeat: what queues behind the first batch shares the next.
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

    // -- read-your-writes session fences ------------------------------------

    /// Engines over one shared catalog emulate replicas: a slow writer
    /// (a 50 ms heartbeat) and two fast readers, taking turns. A read
    /// carrying the session's write fence observes the write on every round;
    /// the unfenced negative control reads stale data.
    #[test]
    fn read_your_writes_fence_blocks_stale_reads() {
        // Holds each write queued for up to 50 ms after the last batch.
        let writer = build_engine(EngineConfig {
            heartbeat: Duration::from_millis(50),
            ..EngineConfig::default()
        });
        let readers = [0, 1].map(|_| {
            Engine::start(
                writer.catalog(),
                writer.plan().clone(),
                registry_like(&writer),
                EngineConfig::default(),
            )
            .unwrap()
        });
        // Warm-up batch: the first batch never waits for the heartbeat, so
        // the first submission would commit immediately; consume that slot.
        writer.execute_sync("userById", &[Value::Int(0)]).unwrap();
        // Negative control first (on pristine data): pipelined write → read
        // without a fence races the writer's 50ms pacing and loses.
        let handle = writer
            .execute(
                "addOrder",
                &[Value::Int(20_000), Value::Int(1), Value::Float(1.0)],
            )
            .unwrap();
        let rows = readers[0]
            .execute_sync("ordersOfUser", &[Value::text("user1")])
            .unwrap();
        assert!(
            !rows.rows().iter().any(|r| r[4] == Value::Int(20_000)),
            "unfenced pipelined read should miss the still-uncommitted write"
        );
        handle.wait().unwrap();
        // Fenced rounds: 100% of N pipelined write→read pairs observe the
        // session's write, whichever replica executes the read.
        for round in 0..10i64 {
            let fence = Arc::new(WriteFence::new());
            let write = writer
                .submit(
                    "addOrder",
                    &[Value::Int(30_000 + round), Value::Int(2), Value::Float(1.0)],
                    SubmitOptions {
                        write_fence: Some(Arc::clone(&fence)),
                        ..SubmitOptions::default()
                    },
                )
                .unwrap();
            let rows = readers[round as usize % 2]
                .submit(
                    "ordersOfUser",
                    &[Value::text("user2")],
                    SubmitOptions {
                        read_after: Some(Arc::clone(&fence)),
                        ..SubmitOptions::default()
                    },
                )
                .unwrap()
                .wait()
                .unwrap();
            assert!(
                rows.rows()
                    .iter()
                    .any(|r| r[4] == Value::Int(30_000 + round)),
                "round {round}: fenced read missed the session's write"
            );
            write.wait().unwrap();
        }
    }

    /// Rebuilds the writer fixture's registry for a second engine over the
    /// same catalog and plan (registries are not cloneable through the
    /// engine, so re-register the same statement specs).
    fn registry_like(engine: &Engine) -> StatementRegistry {
        let mut registry = StatementRegistry::new();
        for spec in engine.registry().iter() {
            registry.register(spec.clone()).unwrap();
        }
        registry
    }
}
