//! Admission: from a caller's `submit` to a statement waiting, bound, for
//! its heartbeat.
//!
//! Two queues under one mutex. A statement type's queue — its [`Lane`] —
//! falls out of the plan shape once, at engine start; a submission binds its
//! parameters, checks the depth bound and enqueues under the one lock, and
//! wakes the coordinator iff it filled an empty lane.

use crate::batch::{bind_query, bind_update, ActiveQuery, ActiveUpdate, Admitted};
use crate::completions::Completions;
use crate::engine::{Engine, QueryHandle, QueryOutcome, SubmitOptions};
use crate::plan::{ActivationTemplate, GlobalPlan, OperatorId, OperatorSpec, StatementSpec};
use crate::stats::Phase;
use parking_lot::{Condvar, Mutex};
use shareddb_common::ids::{QueryIdGenerator, TicketGenerator};
use shareddb_common::{Error, Result, Value};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

pub(crate) enum Submission {
    Query(ActiveQuery),
    Update(ActiveUpdate),
}

impl Submission {
    pub(crate) fn admitted(&self) -> &Admitted {
        match self {
            Submission::Query(q) => &q.admitted,
            Submission::Update(u) => &u.admitted,
        }
    }
}

/// Admission lane of a statement type (see [`Engine::statement_lane`]).
///
/// The classification falls out of the plan shape: a query whose activations
/// touch only index probes and filters is a point lookup (*light*); anything
/// driving a table scan, join, sort, top-N, group-by, distinct or union is
/// *heavy*. Updates always ride the light lane — they are group-commit
/// appends whose latency gates read-your-writes fences, and keeping every
/// update in one lane preserves their arrival order within a batch (Phase 1
/// applies updates in batch order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Latency-critical: point lookups and updates.
    Light,
    /// Throughput-bound: scans, joins, aggregates.
    Heavy,
}

impl Lane {
    /// Prometheus-friendly label value.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Light => "light",
            Lane::Heavy => "heavy",
        }
    }
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

/// The two admission queues, one per [`Lane`], under one mutex: the depth
/// bound spans them exactly and a drain sees one consistent picture.
#[derive(Default)]
pub(crate) struct Queues {
    pub light: VecDeque<Submission>,
    pub heavy: VecDeque<Submission>,
    /// Commits (of any engine on the catalog) and fence resolutions seen:
    /// what a read held back on its session fence waits for.
    pub commits: u64,
    /// The coordinator is parked over reads held back on their fences: a
    /// submission or a commit wakes it, whatever the lanes hold.
    pub fence_parked: bool,
}

impl Queues {
    pub fn len(&self) -> usize {
        self.light.len() + self.heavy.len()
    }

    pub fn is_empty(&self) -> bool {
        self.light.is_empty() && self.heavy.is_empty()
    }

    pub fn of(&mut self, lane: Lane) -> &mut VecDeque<Submission> {
        match lane {
            Lane::Light => &mut self.light,
            Lane::Heavy => &mut self.heavy,
        }
    }
}

/// Everything a submission writes — the queues, the coordinator's wake-up
/// and the id counters — on cache lines of its own (128 bytes: a line and the
/// neighbour the prefetcher pulls with it). Engine state the other thread
/// reads must not share a line with it, or every submission evicts that
/// state from the coordinator's cache: where the field layout happened to
/// put them together, the ledger's workloads spent 2–5 % more CPU a
/// statement on a 2-vCPU host.
#[repr(align(128))]
pub(crate) struct Admission {
    pub queue: Mutex<Queues>,
    pub signal: Condvar,
    pub query_ids: QueryIdGenerator,
    pub tickets: TicketGenerator,
}

impl Admission {
    /// Counts a commit or a resolved fence, and wakes a coordinator parked
    /// over held reads.
    pub fn committed(&self) {
        let mut queue = self.queue.lock();
        queue.commits += 1;
        if queue.fence_parked {
            self.signal.notify_one();
        }
    }
}

impl Default for Admission {
    fn default() -> Self {
        Admission {
            queue: Mutex::default(),
            signal: Condvar::new(),
            query_ids: QueryIdGenerator::new(),
            tickets: TicketGenerator::new(),
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
        // heartbeat.
        let submitted = Instant::now();
        let spec = self.inner.registry.by_index(index);
        let ticket = self.inner.admission.tickets.next_id();
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
            let query_id = self.inner.admission.query_ids.next_id();
            let mut query = bind_query(spec, index, query_id, ticket, params, &opts)?;
            query.admitted.submitted = submitted;
            Submission::Query(query)
        };
        let mut queue = self.inner.admission.queue.lock();
        // The depth bound spans BOTH lanes, checked and enqueued under the
        // one queue lock — adding lanes must not soften the exact admission
        // bound.
        if let Some(max) = opts.max_queue_depth {
            if queue.len() >= max {
                return Err(Error::Overloaded(format!(
                    "admission queue depth limit of {max} reached"
                )));
            }
        }
        let lane = self.inner.lane_of[index];
        // The coordinator parks only over an empty lane (the light one, or
        // both) or over held reads, and drains a lane whole: whoever fills
        // an empty lane, or finds it parked over held reads, wakes it, and
        // what is pushed behind rides along.
        let wake = queue.of(lane).is_empty() || queue.fence_parked;
        queue.of(lane).push_back(submission);
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

    /// Number of statements queued but not yet admitted into a batch
    /// (both lanes).
    pub fn queued(&self) -> usize {
        self.inner.admission.queue.lock().len()
    }

    /// Depth of the two admission lanes as `(light, heavy)`.
    pub fn lane_depths(&self) -> (usize, usize) {
        let queue = self.inner.admission.queue.lock();
        (queue.light.len(), queue.heavy.len())
    }

    /// The admission lane the statement at registry `index` is classified
    /// into: point lookups and updates light, scans/joins/aggregates heavy.
    pub fn statement_lane(&self, index: usize) -> Lane {
        let lane = self.inner.lane_of.get(index);
        lane.copied().unwrap_or(Lane::Heavy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, HeartbeatPolicy};
    use crate::engine::tests::build_engine;
    use std::time::Duration;

    // -- priority admission lanes -------------------------------------------

    /// Fixture registration order: usersByCountry=0, ordersOfUser=1,
    /// userById=2, topOrders=3, addOrder=4, cancelOrders=5.
    #[test]
    fn lane_classification_follows_plan_shape() {
        let engine = build_engine(EngineConfig::default());
        // Probe-only shape is light; scans/joins/aggregates are heavy;
        // updates are always light (group-commit appends that gate RYW).
        assert!(matches!(engine.statement_lane(0), Lane::Heavy)); // group-by
        assert!(matches!(engine.statement_lane(1), Lane::Heavy)); // join+sort
        assert!(matches!(engine.statement_lane(2), Lane::Light)); // point probe
        assert!(matches!(engine.statement_lane(3), Lane::Heavy)); // top-N scan
        assert!(matches!(engine.statement_lane(4), Lane::Light)); // insert
        assert!(matches!(engine.statement_lane(5), Lane::Light)); // delete
    }

    /// A saturated heavy lane must not block light admissions — and the
    /// exact queue-depth bound still spans both lanes.
    #[test]
    fn heavy_backlog_never_starves_light_admissions() {
        // min == max pins the adaptive interval: heavy batches are admitted
        // at most once per 300ms, light batches immediately.
        let policy = HeartbeatPolicy::Adaptive {
            min: Duration::from_millis(300),
            max: Duration::from_millis(300),
            target_light_p99: Duration::from_millis(50),
        };
        let engine = build_engine(EngineConfig::default().heartbeat_policy(policy));
        // Burn the initially-eligible heavy admission slot.
        engine
            .execute_sync("topOrders", &[Value::Float(0.0)])
            .unwrap();
        // Saturate the heavy lane; these wait for the next heavy admission.
        let heavy: Vec<_> = (0..16)
            .map(|_| engine.execute("topOrders", &[Value::Float(0.0)]).unwrap())
            .collect();
        // Light queries sail past the heavy backlog.
        let light_started = Instant::now();
        for i in 0..10 {
            let rows = engine.execute_sync("userById", &[Value::Int(i)]).unwrap();
            assert_eq!(rows.rows().len(), 1);
        }
        assert!(
            light_started.elapsed() < Duration::from_millis(250),
            "light queries waited behind the gated heavy lane: {:?}",
            light_started.elapsed()
        );
        let (_, heavy_depth) = engine.lane_depths();
        assert!(
            heavy_depth > 0,
            "heavy lane should still be gated while light queries completed"
        );
        // The heavy lane drains once its interval elapses — no lost work.
        for h in heavy {
            h.wait().unwrap();
        }

        // Exact bound across both lanes: block the coordinator with a pinned
        // heavy interval, fill the bound with heavy work, and watch a light
        // submission be rejected with the same bound.
        let policy = HeartbeatPolicy::Adaptive {
            min: Duration::from_millis(400),
            max: Duration::from_millis(400),
            target_light_p99: Duration::from_millis(50),
        };
        let engine = build_engine(EngineConfig::default().heartbeat_policy(policy));
        engine
            .execute_sync("topOrders", &[Value::Float(0.0)])
            .unwrap();
        let opts = |_i: usize| SubmitOptions {
            max_queue_depth: Some(4),
            ..SubmitOptions::default()
        };
        let mut held = Vec::new();
        for i in 0..4 {
            held.push(
                engine
                    .submit("topOrders", &[Value::Float(0.0)], opts(i))
                    .unwrap(),
            );
        }
        assert!(matches!(
            engine.submit("userById", &[Value::Int(1)], opts(4)),
            Err(Error::Overloaded(_))
        ));
        for h in held {
            h.wait().unwrap();
        }
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
