//! The batched, push-based SharedDB runtime.
//!
//! The engine owns:
//!
//! * an **admission queue** where freshly submitted queries and updates wait
//!   while the current batch is processed (Section 3.2),
//! * a **coordinator thread** that drains the admission queue at every
//!   heartbeat, forms a [`QueryBatch`], applies the batch's updates (group
//!   commit), hands the batch's operator cycles to the executor and works
//!   them off beside its pool, routes the roots' outputs back to the waiting
//!   clients (the Γ(query_id) step) and records statistics,
//! * the **executor** ([`crate::executor`]): one operator cycle is one task,
//!   one thread is one core (Section 4.3: "when fewer cores than operators
//!   are available, operators share cores"). Only the operators a batch
//!   activates get a task; statements complete when the batch's last task
//!   has finished,
//! * with `EngineConfig::scan_segments > 1`, a **segment lane**: queries
//!   whose statement shape has a [`crate::scatter::ScatterSpec`] are
//!   rewritten into one activation set per row segment, each segment is one
//!   more task of the batch (a walk of the plan over that segment), and the
//!   partial results recombine through [`crate::merge::merge_results`]
//!   before routing. Updates are never segmented (single-writer group
//!   commit), and every segment of a batch reads the batch's one snapshot.
//!
//! Clients interact through [`Engine::execute`] (asynchronous, returns a
//! [`QueryHandle`]) or [`Engine::execute_sync`].

use crate::batch::{
    bind_query, bind_update, Activation, ActiveQuery, ActiveUpdate, Admitted, QueryBatch, RowSlice,
};
use crate::completions::Completions;
use crate::config::{EngineConfig, HeartbeatPolicy};
use crate::executor::{Activations, Executor, NodeRun, Run};
use crate::merge::{merge_results, MergeSpec};
use crate::plan::{GlobalPlan, OperatorId, OperatorSpec, StatementKind, StatementRegistry};
use crate::scatter::{scatter_spec, ScatterSpec};
use crate::stats::{
    AttributionEntry, AttributionTable, EngineStats, EngineStatsSnapshot, OperatorStats,
    OperatorStatsSnapshot, Phase, ScanCounters, ScanRowsSnapshot, SegmentStats,
    SegmentStatsSnapshot, SlowQueryRecord, StatementPhaseSnapshot, UpdateRowsSnapshot,
};
use crate::storage_ops::{build_storage_operators, StorageOperator};
use crate::trace::{TraceEvent, TraceJournal, TraceRecord};
use parking_lot::{Condvar, Mutex};
use shareddb_common::ids::{BatchId, QueryIdGenerator, TicketGenerator, TicketId};
use shareddb_common::metrics::HistogramSnapshot;
use shareddb_common::{Error, QTuple, QueryId, Result, Schema, Tuple, Value};
use shareddb_storage::mvcc::Snapshot;
use shareddb_storage::Catalog;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The rows produced for one query.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Schema of the rows (after projection).
    pub schema: Schema,
    /// The result rows, in the order produced by the query's root operator.
    pub rows: Vec<Tuple>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Outcome of one statement execution.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// A query returning rows.
    Rows(ResultSet),
    /// An update reporting its affected row count.
    Updated {
        /// Number of rows inserted / modified / deleted.
        rows_affected: usize,
    },
}

impl QueryOutcome {
    /// Convenience accessor: the rows of a query outcome (empty for updates).
    pub fn rows(&self) -> &[Tuple] {
        match self {
            QueryOutcome::Rows(rs) => &rs.rows,
            QueryOutcome::Updated { .. } => &[],
        }
    }

    /// Convenience accessor: rows affected by an update (0 for queries).
    pub fn rows_affected(&self) -> usize {
        match self {
            QueryOutcome::Rows(_) => 0,
            QueryOutcome::Updated { rows_affected } => *rows_affected,
        }
    }
}

/// Handle to a submitted statement execution.
#[derive(Debug)]
pub struct QueryHandle {
    ticket: TicketId,
    /// The statement's private target. `None`: it was submitted with
    /// [`SubmitOptions::completions`] and is answered there.
    slot: Option<Arc<Completions>>,
}

impl QueryHandle {
    /// The ticket identifying this execution.
    pub fn ticket(&self) -> TicketId {
        self.ticket
    }

    /// Blocks until the result is available.
    pub fn wait(self) -> Result<QueryOutcome> {
        self.outcome(None)
            .expect("a wait without deadline ends with an outcome")
    }

    /// Non-blocking poll: `None` while the statement is still in flight,
    /// `Some(outcome)` exactly once when it completes.
    pub fn try_wait(&self) -> Option<Result<QueryOutcome>> {
        self.outcome(Some(Instant::now()))
    }

    /// Blocks until the result is available or the deadline passes.
    pub fn wait_timeout(self, timeout: Duration) -> Result<QueryOutcome> {
        self.outcome(Some(Instant::now() + timeout))
            .unwrap_or(Err(Error::DeadlineExceeded))
    }

    /// Every statement is pushed one outcome — by its batch, or by the
    /// shutdown that finds it queued — so a wait without deadline returns.
    fn outcome(&self, deadline: Option<Instant>) -> Option<Result<QueryOutcome>> {
        match &self.slot {
            Some(slot) => slot.wait(deadline),
            None => Some(Err(Error::InvalidParameter(
                "the statement is answered through its submitter's completion queue".into(),
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Internal messages
// ---------------------------------------------------------------------------

/// Γ routing table of one lane: root operator → query → that query's rows.
type RoutingTable = HashMap<OperatorId, HashMap<QueryId, Vec<Tuple>>>;

enum Submission {
    Query(ActiveQuery),
    Update(ActiveUpdate),
}

impl Submission {
    fn admitted(&self) -> &Admitted {
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
/// applies updates in batch order). [`EngineConfig::light_statements`] /
/// [`EngineConfig::heavy_statements`] override the classification for query
/// statements.
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

fn classify_statement(
    spec: &crate::plan::StatementSpec,
    plan: &GlobalPlan,
    config: &EngineConfig,
) -> Lane {
    if matches!(spec.kind, StatementKind::Update { .. }) {
        return Lane::Light;
    }
    if config.heavy_statements.iter().any(|n| n == &spec.name) {
        return Lane::Heavy;
    }
    if config.light_statements.iter().any(|n| n == &spec.name) {
        return Lane::Light;
    }
    let probe_only = spec.activations.iter().all(|(op, _)| {
        matches!(
            plan.node(*op).spec,
            OperatorSpec::IndexProbe { .. } | OperatorSpec::Filter
        )
    });
    if probe_only {
        Lane::Light
    } else {
        Lane::Heavy
    }
}

/// A session's last-write fence, the carrier of read-your-writes guarantees
/// across engine replicas.
///
/// The submitter of an update attaches a fresh fence via
/// [`SubmitOptions::write_fence`]; the engine resolves it to the committed
/// MVCC watermark once the update's batch has group-committed (or failed —
/// a failed write constrains no read). A later read in the same session
/// carries the fence as [`SubmitOptions::read_after`]: any replica's
/// coordinator holds the read out of its batch until the shared committed
/// watermark covers the write, so a pipelined UPDATE → SELECT pair observes
/// the write no matter which replica serves the read.
#[derive(Debug, Default)]
pub struct WriteFence {
    /// Committed watermark covering the write, stored off by one so `0` can
    /// mean "not yet resolved" even when the watermark itself is 0 (a write
    /// that failed before anything ever committed constrains no read).
    ts_plus_one: AtomicU64,
}

impl WriteFence {
    /// An unresolved fence.
    pub fn new() -> WriteFence {
        WriteFence::default()
    }

    /// Marks the fence resolved at `ts` (the committed watermark covering
    /// the write). Monotonic; resolving twice keeps the larger watermark.
    pub fn resolve(&self, ts: u64) {
        self.ts_plus_one
            .fetch_max(ts.saturating_add(1), Ordering::Release);
    }

    /// The committed watermark covering the write, once resolved.
    pub fn committed_ts(&self) -> Option<u64> {
        match self.ts_plus_one.load(Ordering::Acquire) {
            0 => None,
            v => Some(v - 1),
        }
    }
}

/// Options for [`Engine::submit`].
#[derive(Clone, Default)]
pub struct SubmitOptions {
    /// Reject the submission with [`Error::Overloaded`] when the admission
    /// queue already holds this many statements. The check and the enqueue
    /// happen under the queue lock, so the bound is exact even with many
    /// concurrent submitters (no check-then-enqueue TOCTOU).
    pub max_queue_depth: Option<usize>,
    /// Where the outcome goes, under which tag (including the failure of a
    /// statement an engine shutdown finds queued): one reader serves any
    /// number of statements and engines and is woken once per drain, not per
    /// statement. `None` answers through the returned [`QueryHandle`].
    pub completions: Option<(Arc<Completions>, u64)>,
    /// Pin every storage read (shared scan / index probe) of this query to a
    /// fixed MVCC snapshot instead of the executing batch's own snapshot
    /// ([`Catalog::snapshot`]). Two executions pinned to one snapshot read
    /// one version set whatever commits between them — the hook the
    /// differential tests compare a segmented engine to an unsegmented one
    /// through, under a concurrent writer.
    pub pinned_snapshot: Option<Snapshot>,
    /// For updates: the session fence the engine resolves once this write's
    /// batch has group-committed. The submitter keeps the [`Arc`] and
    /// threads it into later reads of the same session as
    /// [`SubmitOptions::read_after`].
    pub write_fence: Option<Arc<WriteFence>>,
    /// For queries: hold this read out of any batch until the session's last
    /// write (the fence) is covered by the committed MVCC watermark — the
    /// read-your-writes session guarantee. A read whose write rides in the
    /// same batch is admitted directly (updates commit in Phase 1, before
    /// the batch's snapshot is taken).
    pub read_after: Option<Arc<WriteFence>>,
}

/// The two admission lanes. One mutex guards both, so the queue-depth bound
/// spans the lanes exactly and a drain sees one consistent picture.
#[derive(Default)]
struct Lanes {
    light: VecDeque<Submission>,
    heavy: VecDeque<Submission>,
}

impl Lanes {
    fn len(&self) -> usize {
        self.light.len() + self.heavy.len()
    }

    fn is_empty(&self) -> bool {
        self.light.is_empty() && self.heavy.is_empty()
    }
}

struct Admission {
    queue: Mutex<Lanes>,
    signal: Condvar,
}

struct EngineInner {
    catalog: Arc<Catalog>,
    plan: GlobalPlan,
    registry: StatementRegistry,
    config: EngineConfig,
    admission: Admission,
    /// Admission lane per statement (registry index), precomputed at start.
    lanes: Vec<Lane>,
    /// Statement indices currently classified light — the set whose merged
    /// `Total`-phase histogram the adaptive controller reads its p99 from.
    light_indices: Vec<usize>,
    /// Heartbeat interval currently in effect, µs: the adaptive controller's
    /// latest decision, or the configured constant under a fixed policy.
    heartbeat_us: AtomicU64,
    /// Number of interval changes the adaptive controller has made.
    heartbeat_adjustments: AtomicU64,
    query_ids: QueryIdGenerator,
    tickets: TicketGenerator,
    shutdown: AtomicBool,
    stats: Arc<EngineStats>,
    /// Start of the current statistics window (engine start, or the last
    /// [`Engine::reset_stats`]); the wall clock for busy-fraction numbers.
    stats_epoch: Mutex<Instant>,
    operator_stats: Vec<OperatorStats>,
    /// Per-operator × per-statement-type cost attribution, recorded alongside
    /// `operator_stats` from the same folded per-batch numbers (so attributed
    /// busy times sum exactly to the per-operator busy counters).
    attribution: AttributionTable,
    /// Runs each batch's operator cycles and segment jobs as tasks.
    executor: Arc<Executor>,
    /// The scan and probe operators of the plan (shared with the executor);
    /// held here for their counters.
    storage_ops: Arc<Vec<Option<StorageOperator>>>,
    trace: TraceJournal,
    /// Per-statement partitionability analysis, precomputed at start; `None`
    /// for updates and shapes the walker does not recognise. Only populated
    /// when `config.scan_segments > 1`.
    scatter_specs: Vec<Option<ScatterSpec>>,
    /// One counter slot per segment lane (empty when segmenting is off).
    segment_stats: Vec<SegmentStats>,
}

/// The SharedDB engine: an always-on global plan plus the batching runtime.
pub struct Engine {
    inner: Arc<EngineInner>,
    coordinator: Option<JoinHandle<()>>,
}

impl Engine {
    /// Starts the engine: spawns the coordinator thread and the executor's
    /// pool — `core_budget − 1` threads when a budget is set, else one fewer
    /// than the machine's cores — whatever the size of the plan.
    pub fn start(
        catalog: Arc<Catalog>,
        plan: GlobalPlan,
        mut registry: StatementRegistry,
        config: EngineConfig,
    ) -> Result<Engine> {
        registry.validate(&plan)?;
        crate::demand::push_down(&plan, &mut registry);
        if config.scan_segments == 0 {
            return Err(Error::InvalidParameter(
                "scan_segments must be >= 1 (1 disables segment parallelism)".into(),
            ));
        }
        let storage_ops = Arc::new(build_storage_operators(&catalog, &plan)?);

        // Which statement shapes may run segment-parallel, and how their
        // partial results recombine. The analysis is per statement type, so
        // it runs once here instead of per submission.
        let scatter_specs: Vec<Option<ScatterSpec>> = if config.scan_segments > 1 {
            registry
                .iter()
                .map(|s| scatter_spec(&catalog, &plan, s))
                .collect()
        } else {
            registry.iter().map(|_| None).collect()
        };

        let segment_stats: Vec<SegmentStats> = if config.scan_segments > 1 {
            (0..config.scan_segments)
                .map(|_| SegmentStats::default())
                .collect()
        } else {
            Vec::new()
        };

        let statement_names: Vec<String> = registry.iter().map(|s| s.name.clone()).collect();
        let trace = TraceJournal::new(config.trace_capacity);
        // Lane classification is per statement type, precomputed once.
        let lanes: Vec<Lane> = registry
            .iter()
            .map(|s| classify_statement(s, &plan, &config))
            .collect();
        let light_indices: Vec<usize> = lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| **l == Lane::Light)
            .map(|(i, _)| i)
            .collect();
        let initial_heartbeat_us = config.heartbeat.initial_interval().as_micros() as u64;
        let stats = Arc::new(EngineStats::with_statements(statement_names.clone()));
        let workers = if config.core_budget == usize::MAX {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.core_budget
        };
        let executor = Executor::start(
            plan.clone(),
            Arc::clone(&storage_ops),
            Arc::clone(&catalog),
            Arc::clone(&stats),
            workers,
        )?;
        let inner = Arc::new(EngineInner {
            catalog: Arc::clone(&catalog),
            plan: plan.clone(),
            registry,
            config,
            admission: Admission {
                queue: Mutex::new(Lanes::default()),
                signal: Condvar::new(),
            },
            lanes,
            light_indices,
            heartbeat_us: AtomicU64::new(initial_heartbeat_us),
            heartbeat_adjustments: AtomicU64::new(0),
            query_ids: QueryIdGenerator::new(),
            tickets: TicketGenerator::new(),
            shutdown: AtomicBool::new(false),
            stats,
            stats_epoch: Mutex::new(Instant::now()),
            operator_stats: (0..plan.len()).map(|_| OperatorStats::default()).collect(),
            attribution: AttributionTable::new(
                plan.nodes().iter().map(|n| n.name.clone()).collect(),
                statement_names,
            ),
            executor,
            storage_ops,
            trace,
            scatter_specs,
            segment_stats,
        });

        // Coordinator thread.
        let coordinator_inner = Arc::clone(&inner);
        let coordinator = std::thread::Builder::new()
            .name("shareddb-coordinator".to_string())
            .spawn(move || coordinator_loop(coordinator_inner))
            .map_err(|e| {
                inner.executor.shutdown();
                Error::Internal(format!("failed to spawn coordinator: {e}"))
            })?;

        Ok(Engine {
            inner,
            coordinator: Some(coordinator),
        })
    }

    /// The catalog the engine runs on.
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.inner.catalog)
    }

    /// The global plan.
    pub fn plan(&self) -> &GlobalPlan {
        &self.inner.plan
    }

    /// The statement registry the engine executes from.
    pub fn registry(&self) -> &StatementRegistry {
        &self.inner.registry
    }

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
    /// [`StatementRegistry::get`] returned it), without the look-up by name.
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
        let ticket = self.inner.tickets.next_id();
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
            let query_id = self.inner.query_ids.next_id();
            let mut query = bind_query(spec, index, query_id, ticket, params, &opts)?;
            query.admitted.submitted = submitted;
            // Segment eligibility: the shape must have a scatter spec, and
            // parameterised executions qualify only when the shape scatters
            // with parameters.
            if let Some(scatter) = &self.inner.scatter_specs[index] {
                query.segment_ok = params.is_empty() || scatter.scatter_with_params;
            }
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
        let lane = match self.inner.lanes[index] {
            Lane::Light => &mut queue.light,
            Lane::Heavy => &mut queue.heavy,
        };
        // The coordinator parks only over an empty lane (the light one, or
        // both) and drains a lane whole: whoever fills an empty lane wakes
        // it, and what is pushed behind rides along.
        let wake = lane.is_empty();
        lane.push_back(submission);
        drop(queue);
        if wake {
            self.inner.admission.signal.notify_one();
        }
        self.inner
            .stats
            .record_phase(index, Phase::Admission, submitted.elapsed());
        Ok(QueryHandle { ticket, slot })
    }

    /// Submits a statement and blocks until its result is available.
    pub fn execute_sync(&self, statement: &str, params: &[Value]) -> Result<QueryOutcome> {
        self.execute(statement, params)?.wait()
    }

    /// Engine-level statistics.
    pub fn stats(&self) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            executor_threads: self.inner.executor.threads(),
            ..self.inner.stats.snapshot()
        }
    }

    /// Per-operator statistics.
    pub fn operator_stats(&self) -> Vec<OperatorStatsSnapshot> {
        self.inner
            .plan
            .nodes()
            .iter()
            .map(|n| self.inner.operator_stats[n.id].snapshot(&n.name))
            .collect()
    }

    /// Per-operator × per-statement-type cost attribution: for every
    /// operator, who (which statement type) the busy time and output rows
    /// were spent on, split by each batch's activation mix. The entries for
    /// one operator — including the `_idle` residual — sum exactly to that
    /// operator's totals in [`Engine::operator_stats`].
    pub fn attribution_stats(&self) -> Vec<AttributionEntry> {
        self.inner.attribution.snapshot()
    }

    /// Per-segment-lane statistics (empty when `scan_segments <= 1`): busy
    /// time, contributed rows and the per-batch execute-time histogram of
    /// each segment of the intra-engine parallel scan path.
    pub fn segment_stats(&self) -> Vec<SegmentStatsSnapshot> {
        self.inner
            .segment_stats
            .iter()
            .enumerate()
            .map(|(i, s)| s.snapshot(i))
            .collect()
    }

    /// Per-statement-type, per-phase latency histograms.
    pub fn phase_snapshot(&self) -> Vec<StatementPhaseSnapshot> {
        self.inner.stats.phase_snapshot()
    }

    /// Rows examined, emitted and skipped, and queries served per predicate
    /// class, by every shared scan of the plan since the last reset.
    pub fn scan_row_stats(&self) -> Vec<ScanRowsSnapshot> {
        self.scan_counters()
            .map(|(table, counters)| counters.snapshot(table))
            .collect()
    }

    fn scan_counters(&self) -> impl Iterator<Item = (&String, &ScanCounters)> {
        self.inner.storage_ops.iter().filter_map(|op| match op {
            Some(StorageOperator::Scan {
                table, counters, ..
            }) => Some((table, counters)),
            _ => None,
        })
    }

    /// Rows examined and affected per update statement type.
    pub fn update_row_stats(&self) -> Vec<UpdateRowsSnapshot> {
        self.inner.stats.update_rows_snapshot()
    }

    /// Total slow-query offenders plus the retained tail of the log.
    pub fn slow_queries(&self) -> (u64, Vec<SlowQueryRecord>) {
        self.inner.stats.slow_queries()
    }

    /// The retained batch-lifecycle trace, oldest first.
    pub fn trace(&self) -> Vec<TraceRecord> {
        self.inner.trace.snapshot()
    }

    /// Wall-clock length of the current statistics window (time since engine
    /// start or the last [`Engine::reset_stats`]); the denominator for
    /// per-operator busy fractions.
    pub fn stats_wall(&self) -> Duration {
        self.inner.stats_epoch.lock().elapsed()
    }

    /// Zeroes the engine-level statistics, phase histograms, slow-query log
    /// and per-operator counters, and restarts the busy-fraction wall clock.
    /// Bench harnesses call this after warm-up so reported numbers cover only
    /// the measured window.
    pub fn reset_stats(&self) {
        self.inner.stats.reset();
        for op in &self.inner.operator_stats {
            op.reset();
        }
        self.inner.attribution.reset();
        for seg in &self.inner.segment_stats {
            seg.reset();
        }
        self.scan_counters()
            .for_each(|(_, counters)| counters.reset());
        *self.inner.stats_epoch.lock() = Instant::now();
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
    /// into (point lookups and updates light, scans/joins/aggregates heavy,
    /// overridable via [`EngineConfig::light_statements`] /
    /// [`EngineConfig::heavy_statements`]).
    pub fn statement_lane(&self, index: usize) -> Lane {
        self.inner.lanes.get(index).copied().unwrap_or(Lane::Heavy)
    }

    /// The heartbeat interval currently in effect: the configured constant
    /// under a fixed policy, or the adaptive controller's latest decision.
    pub fn heartbeat_interval(&self) -> Duration {
        Duration::from_micros(self.inner.heartbeat_us.load(Ordering::Relaxed))
    }

    /// Number of interval changes the adaptive heartbeat controller has made
    /// (0 under a fixed policy).
    pub fn heartbeat_adjustments(&self) -> u64 {
        self.inner.heartbeat_adjustments.load(Ordering::Relaxed)
    }

    /// Stops the engine: admits nothing further ([`Error::EngineShutdown`]),
    /// answers what is queued from one last batch and joins all threads.
    pub fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.admission.signal.notify_all();
        if let Some(handle) = self.coordinator.take() {
            let _ = handle.join();
        }
        // The coordinator is the only source of runs: with it gone the pool
        // is idle.
        self.inner.executor.shutdown();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Rewrites one bound activation for one row segment: scans restrict to
/// slice `index` of `of` — hashing the walker's join-key columns when the
/// shape co-partitions a join, else the table's primary key — and a group-by
/// root switches to partial mode when the shape merges partial aggregates.
fn segment_activation(
    activation: &Activation,
    op: OperatorId,
    index: u32,
    of: u32,
    spec: &ScatterSpec,
) -> Activation {
    match activation {
        Activation::Scan {
            predicate,
            slice: _,
            snapshot,
        } => Activation::Scan {
            predicate: predicate.clone(),
            slice: Some(RowSlice {
                index,
                of,
                columns: spec
                    .partition_columns
                    .as_ref()
                    .and_then(|m| m.get(&op).cloned()),
            }),
            snapshot: *snapshot,
        },
        Activation::Having {
            predicate,
            partial: _,
        } => Activation::Having {
            predicate: predicate.clone(),
            partial: spec.partial_aggregation,
        },
        // A segment's best rows contain its share of the best rows overall.
        Activation::Demand { base, keys, limit } => Activation::Demand {
            base: Box::new(segment_activation(base, op, index, of, spec)),
            keys: Arc::clone(keys),
            limit: *limit,
        },
        other => other.clone(),
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Multiplicative steps of the adaptive heartbeat controller. Shrinking is
/// stronger than growth and a dead band separates the two pressure
/// thresholds, so the interval converges instead of oscillating.
const HEARTBEAT_SHRINK: f64 = 0.75;
const HEARTBEAT_GROW: f64 = 1.25;
/// Queue pressure (admitted + still queued) at or above which the interval
/// grows — a longer heavy cycle amortizes shared work over more queries.
const GROW_PRESSURE: usize = 16;
/// Queue pressure at or below which the interval shrinks back toward `min`.
const SHRINK_PRESSURE: usize = 4;
/// Fresh light-lane completions required before the controller rolls its
/// p99 observation window.
const WINDOW_MIN_SAMPLES: u64 = 8;
/// How long a read defers on an unresolved (or uncovered) session write
/// fence before being admitted anyway — a wedged writer must not hang
/// readers forever.
const FENCE_WAIT_CAP: Duration = Duration::from_secs(1);
/// Pause between fence re-checks when every drained submission deferred.
const FENCE_POLL: Duration = Duration::from_micros(100);

/// The per-replica adaptive heartbeat controller (runs on the coordinator
/// thread, one `step` per batch).
///
/// The control signal is the light lane's windowed p99 (diff of the
/// cumulative Total-phase histogram over the light statement types) plus the
/// admission-queue pressure; the actuator is the heavy-lane admission
/// interval (the light lane is never gated, so a longer interval only
/// *spaces out* heavy cycles). Light p99 over target or a standing backlog →
/// grow: heavy batches run less often, each one amortizes the shared
/// operators over more of the backlog, and fewer light queries land behind
/// an in-flight heavy cycle. Near-idle with latency headroom → shrink back
/// toward `min`, keeping heavy admission latency low when there is nothing
/// to protect. Anything between the thresholds holds the interval
/// (hysteresis), and the asymmetric step sizes bias toward meeting the SLO.
struct HeartbeatController {
    policy: HeartbeatPolicy,
    /// Cumulative light-lane Total-phase histogram at the last window
    /// rollover; diffed against the live histogram to get a windowed p99.
    window_base: HistogramSnapshot,
    /// When the current observation window opened.
    window_started: Instant,
    /// Largest admission pressure (batch size + remaining backlog) seen
    /// during the current window.
    peak_pressure: usize,
    /// Light p99 of the last completed window, µs (0 until the first window
    /// fills — the controller only grows once it has evidence of headroom).
    light_p99_us: u64,
}

impl HeartbeatController {
    fn new(policy: HeartbeatPolicy) -> HeartbeatController {
        HeartbeatController {
            policy,
            window_base: HistogramSnapshot::default(),
            window_started: Instant::now(),
            peak_pressure: 0,
            light_p99_us: 0,
        }
    }

    /// One control step after a batch: `admitted` submissions were drained
    /// into it and `backlog` remained queued. Returns the interval for the
    /// next cycle and publishes it (and the adjustment counter) on `inner`.
    ///
    /// A decision is made at most once per observation window, and a window
    /// closes only after spanning at least two heavy cycles at the current
    /// interval — a shorter window mostly samples the gaps *between* heavy
    /// admissions, reads a calm p99, and shrinks the interval right before
    /// the next heavy cycle proves it wrong (the oscillation this rule
    /// exists to prevent). Between rollovers the interval holds.
    fn step(&mut self, inner: &EngineInner, admitted: usize, backlog: usize) -> Duration {
        let HeartbeatPolicy::Adaptive {
            min,
            max,
            target_light_p99,
        } = self.policy
        else {
            return self.policy.initial_interval();
        };
        let interval = Duration::from_micros(inner.heartbeat_us.load(Ordering::Relaxed));
        self.peak_pressure = self.peak_pressure.max(admitted + backlog);
        if self.window_started.elapsed() < interval * 2 {
            return interval;
        }
        let live = inner.stats.merged_phase(&inner.light_indices, Phase::Total);
        let window = live.diff(&self.window_base);
        let have_samples = window.count >= WINDOW_MIN_SAMPLES;
        if !have_samples && self.peak_pressure < GROW_PRESSURE {
            // Not enough light completions to judge the tail and no heavy
            // backlog to react to: keep accumulating.
            return interval;
        }
        if have_samples {
            self.light_p99_us = window.percentile_us(0.99);
        }
        let target_us = target_light_p99.as_micros() as u64;
        let proposed = if self.light_p99_us > target_us || self.peak_pressure >= GROW_PRESSURE {
            interval.mul_f64(HEARTBEAT_GROW)
        } else if self.peak_pressure <= SHRINK_PRESSURE && self.light_p99_us <= target_us / 2 {
            interval.mul_f64(HEARTBEAT_SHRINK)
        } else {
            interval
        };
        self.window_base = live;
        self.window_started = Instant::now();
        self.peak_pressure = 0;
        let next = Duration::from_micros(proposed.clamp(min, max).as_micros() as u64);
        if next != interval {
            inner
                .heartbeat_us
                .store(next.as_micros() as u64, Ordering::Relaxed);
            inner.heartbeat_adjustments.fetch_add(1, Ordering::Relaxed);
        }
        next
    }
}

fn coordinator_loop(inner: Arc<EngineInner>) {
    let mut batch_seq: u64 = 0;
    let adaptive = inner.config.heartbeat.is_adaptive();
    let mut heartbeat = inner.config.heartbeat.initial_interval();
    let mut controller = HeartbeatController::new(inner.config.heartbeat);
    let mut last_batch_start = Instant::now() - heartbeat;
    // The heavy lane has its own admission clock: gating it on
    // `last_batch_start` would let continuous light traffic (which resets
    // that clock every batch) postpone heavy work forever. This way a heavy
    // batch is admitted at least once per interval no matter how busy the
    // light lane is.
    let mut last_heavy_admit = last_batch_start;
    loop {
        // Wait for work (or shutdown). Under an adaptive policy the interval
        // gates only the *heavy* lane: light submissions open a batch
        // immediately, heavy ones wait out the remainder of the interval so
        // each shared heavy cycle amortizes over more of the backlog.
        let (submissions, backlog, shutting_down) = {
            let mut queue = inner.admission.queue.lock();
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                if adaptive {
                    if !queue.light.is_empty() {
                        break;
                    }
                    if !queue.heavy.is_empty() {
                        let since = last_heavy_admit.elapsed();
                        if since >= heartbeat {
                            break;
                        }
                        inner
                            .admission
                            .signal
                            .wait_for(&mut queue, heartbeat - since);
                        continue;
                    }
                } else if !queue.is_empty() {
                    break;
                }
                inner.admission.signal.wait_for(&mut queue, heartbeat);
            }
            let shutting_down = inner.shutdown.load(Ordering::Acquire);
            if shutting_down && queue.is_empty() {
                break;
            }
            // Heartbeat pacing (fixed policy): in non-eager mode a new batch
            // starts at most once per heartbeat interval, letting more work
            // accumulate. Adaptive pacing happened in the wait loop above and
            // ignores the eager flag.
            if !adaptive && !inner.config.eager_heartbeat {
                let since = last_batch_start.elapsed();
                if since < heartbeat {
                    let mut wait = heartbeat - since;
                    drop(queue);
                    // Sleep in small slices so a shutdown (graceful drain)
                    // is observed promptly even with long heartbeats.
                    while !wait.is_zero() && !inner.shutdown.load(Ordering::Acquire) {
                        let slice = wait.min(Duration::from_millis(10));
                        std::thread::sleep(slice);
                        wait = wait.saturating_sub(slice);
                    }
                    queue = inner.admission.queue.lock();
                }
            }
            // Light-first drain: the light lane drains whole, so light
            // admissions never wait behind heavy backlog. The heavy lane
            // joins, whole too, when the policy allows it (fixed: always;
            // adaptive: interval elapsed or draining for shutdown). Adaptive
            // eligibility is purely clock-based: under a continuous light
            // stream the light queue still empties at most drain instants,
            // so an "admit heavy when no light is waiting" shortcut would
            // defeat the pacing exactly when the SLO needs it.
            let heavy_eligible =
                !adaptive || shutting_down || last_heavy_admit.elapsed() >= heartbeat;
            let mut drained: Vec<Submission> = queue.light.drain(..).collect();
            if heavy_eligible && !queue.heavy.is_empty() {
                last_heavy_admit = Instant::now();
                drained.extend(queue.heavy.drain(..));
            }
            let backlog = queue.len();
            (drained, backlog, shutting_down)
        };

        // Read-your-writes: hold back any query whose session fence is not
        // yet covered by the committed watermark — unless the covering
        // update rides in this very batch (updates group-commit in Phase 1,
        // before the batch snapshot is taken), the fence has been pending
        // past `FENCE_WAIT_CAP`, or the engine is draining for shutdown.
        let mut admitted: Vec<Submission> = Vec::with_capacity(submissions.len());
        let mut deferred: Vec<Submission> = Vec::new();
        let any_fenced = submissions
            .iter()
            .any(|s| matches!(s, Submission::Query(q) if q.read_after.is_some()));
        if any_fenced && !shutting_down {
            let watermark = inner.catalog.oracle().read_ts().ts.0;
            let batch_fences: Vec<Arc<WriteFence>> = submissions
                .iter()
                .filter_map(|s| match s {
                    Submission::Update(u) => u.write_fence.clone(),
                    _ => None,
                })
                .collect();
            for submission in submissions {
                let held = match &submission {
                    Submission::Query(q) => match &q.read_after {
                        Some(fence) => {
                            let covered = fence.committed_ts().is_some_and(|ts| ts <= watermark);
                            let in_batch = batch_fences.iter().any(|f| Arc::ptr_eq(f, fence));
                            !covered && !in_batch && q.admitted.enqueued.elapsed() < FENCE_WAIT_CAP
                        }
                        None => false,
                    },
                    Submission::Update(_) => false,
                };
                if held {
                    deferred.push(submission);
                } else {
                    admitted.push(submission);
                }
            }
        } else {
            admitted = submissions;
        }
        let deferred_only = admitted.is_empty() && !deferred.is_empty();
        if !deferred.is_empty() {
            // Deferred queries go back to the *front* of their lanes in
            // reverse drain order, preserving FIFO within each lane.
            let mut queue = inner.admission.queue.lock();
            for submission in deferred.into_iter().rev() {
                match inner.lanes[submission.admitted().statement_index] {
                    Lane::Light => queue.light.push_front(submission),
                    Lane::Heavy => queue.heavy.push_front(submission),
                }
            }
        }
        if admitted.is_empty() {
            if deferred_only {
                // Only fenced reads are queued: their writes commit on some
                // *other* replica, so briefly sleep instead of spinning on
                // the watermark.
                std::thread::sleep(FENCE_POLL);
            }
            continue;
        }

        last_batch_start = Instant::now();
        batch_seq += 1;
        let admitted_count = admitted.len();
        let mut batch = QueryBatch {
            id: BatchId(batch_seq),
            ..Default::default()
        };
        for submission in admitted {
            match submission {
                Submission::Query(q) => batch.queries.push(q),
                Submission::Update(u) => batch.updates.push(u),
            }
        }
        // Counted before it is answered: whoever holds a reply of the batch
        // finds the batch in the counters.
        inner.stats.record_batch(batch.len());
        process_batch(&inner, &batch, heartbeat);
        heartbeat = controller.step(&inner, admitted_count, backlog);
    }
}

fn process_batch(inner: &Arc<EngineInner>, batch: &QueryBatch, heartbeat: Duration) {
    let started = Instant::now();
    let heartbeat_us = heartbeat.as_micros() as u64;
    // The statement-type mix (computed only when tracing is on — it
    // allocates) is what the attribution table splits operator busy time by.
    let mix = if inner.trace.capacity() > 0 {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for q in &batch.queries {
            *counts.entry(q.admitted.statement_index).or_default() += 1;
        }
        for u in &batch.updates {
            *counts.entry(u.admitted.statement_index).or_default() += 1;
        }
        let mut mix: Vec<(usize, usize)> = counts.into_iter().collect();
        mix.sort_unstable();
        mix
    } else {
        Vec::new()
    };
    inner.trace.push(TraceEvent::BatchFormed {
        batch: batch.id.0,
        queries: batch.queries.len(),
        updates: batch.updates.len(),
        mix,
        heartbeat_us,
    });

    // Phase 1: apply the batch's updates in arrival order (one commit
    // timestamp for the whole batch, group commit into the WAL). Each costs
    // O(rows it touches) when its WHERE clause has an indexed equality.
    if !batch.updates.is_empty() {
        let ops: Vec<(String, shareddb_storage::UpdateOp)> = batch
            .updates
            .iter()
            .map(|u| (u.table.clone(), u.op.clone()))
            .collect();
        let applied = inner.catalog.apply_batch(&ops);
        // Resolve session write fences at the watermark now covering this
        // group commit — in the error path too: a failed write constrains no
        // read, and a session must not block on it.
        let watermark = inner.catalog.oracle().read_ts().ts.0;
        for update in &batch.updates {
            if let Some(fence) = &update.write_fence {
                fence.resolve(watermark);
            }
        }
        // Each update completes with its own result; only a failure of the
        // log itself fails them all.
        let results = applied.unwrap_or_else(|e| vec![Err(e); batch.updates.len()]);
        for (update, result) in batch.updates.iter().zip(results) {
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
            complete(inner, &update.admitted, outcome, started, heartbeat_us, 1);
        }
    }

    if batch.queries.is_empty() {
        return;
    }

    // Phase 2: run the shared operators of the plan for this batch.
    let snapshot = inner.catalog.oracle().read_ts();
    let plan = &inner.plan;
    let segments = inner.config.scan_segments as u32;

    // Lane split. Queries whose statement shape is partitionable run once
    // per row segment, each segment one task (segment lane); everything else
    // — and everything, when segmenting is off — runs one task per active
    // operator (whole lane). Both lanes execute against this batch's single
    // snapshot, so the split is invisible to MVCC, and updates were already
    // applied in Phase 1, never segmented.
    let mut whole_lane: Vec<&ActiveQuery> = Vec::new();
    let mut seg_lane: Vec<&ActiveQuery> = Vec::new();
    for q in &batch.queries {
        if segments > 1 && q.segment_ok {
            seg_lane.push(q);
        } else {
            whole_lane.push(q);
        }
    }

    // Whole lane: per-operator activations.
    let mut nodes: Vec<NodeRun> = (0..plan.len()).map(|_| NodeRun::default()).collect();
    for q in &whole_lane {
        for (op, activation) in &q.activations {
            nodes[*op]
                .activations
                .push((q.query_id, activation.clone()));
        }
    }

    // Segment lane: rewrite each eligible query's activations per row
    // segment; each segment is one more task of the run.
    let mut segment_roots: Vec<bool> = vec![false; plan.len()];
    let mut segment_runs = Vec::new();
    if !seg_lane.is_empty() {
        for q in &seg_lane {
            segment_roots[q.root] = true;
        }
        for s in 0..segments {
            let mut activations: Vec<Activations> = vec![Vec::new(); plan.len()];
            for q in &seg_lane {
                let spec = inner.scatter_specs[q.admitted.statement_index]
                    .as_ref()
                    .expect("segment_ok implies a scatter spec");
                for (op, activation) in &q.activations {
                    activations[*op].push((
                        q.query_id,
                        segment_activation(activation, *op, s, segments, spec),
                    ));
                }
            }
            segment_runs.push((activations, Default::default()));
        }
    }

    // Always-on plan, on shared cores: every operator counts the cycle, but
    // only those with an activation get a task. The coordinator works the
    // tasks off beside the pool and comes back when the last has finished.
    let run = inner.executor.run(Run {
        snapshot,
        nodes,
        segments: segment_runs,
        segment_roots,
    });

    // Per-operator counters are recorded exactly ONCE per operator per
    // batch, folding both lanes: tuples are SUMMED (the lanes' row sets are
    // disjoint), busy is the MAXIMUM across lanes. The lanes run
    // concurrently, so the max approximates the wall-clock busy union;
    // summing would let N parallel segments multiply the reported
    // busy-fraction and deflate tuples-per-active-cycle.
    let mut batch_error: Option<Error> = None;
    let mut active_operators = 0usize;
    let mut total_busy = Duration::ZERO;
    let mut op_tuples: Vec<usize> = vec![0; plan.len()];
    let mut op_pruned: Vec<usize> = vec![0; plan.len()];
    let mut op_busy: Vec<Duration> = vec![Duration::ZERO; plan.len()];
    let mut op_active: Vec<bool> = vec![false; plan.len()];
    for (id, node) in run.nodes.iter().enumerate() {
        let Some((result, busy)) = node.done.get() else {
            continue;
        };
        let (tuples, pruned) = match result {
            Ok(counts) => *counts,
            Err(e) => {
                batch_error.get_or_insert_with(|| e.clone());
                (0, 0)
            }
        };
        op_tuples[id] = tuples;
        op_pruned[id] = pruned;
        op_busy[id] = *busy;
        op_active[id] = true;
        total_busy += *busy;
        active_operators += 1;
        inner.trace.push(TraceEvent::OperatorFired {
            batch: batch.id.0,
            operator: id,
            tuples,
            busy_us: busy.as_micros() as u64,
        });
    }

    // The segment lane's share. A failed segment fails only the segment
    // lane's queries; the whole lane is unaffected (and vice versa).
    let mut seg_error: Option<Error> = None;
    for (s, (_, done)) in run.segments.iter().enumerate() {
        let done = done.get().expect("the run returns after its last task");
        total_busy += done.busy;
        for (id, stats) in done.node_stats.iter().enumerate() {
            if let Some((tuples, pruned, busy)) = stats {
                op_tuples[id] += tuples;
                op_pruned[id] += pruned;
                op_busy[id] = op_busy[id].max(*busy);
                op_active[id] = true;
            }
        }
        let rows = match &done.outputs {
            Ok(outputs) => outputs.values().map(|o| o.len()).sum(),
            Err(e) => {
                seg_error.get_or_insert_with(|| e.clone());
                0
            }
        };
        inner.segment_stats[s].record(rows, done.busy);
    }

    for node in plan.nodes() {
        inner.operator_stats[node.id].record_cycle(
            op_active[node.id],
            op_tuples[node.id],
            op_pruned[node.id],
            op_busy[node.id],
        );
    }
    // Attribution: split every operator's folded cycle across the batch's
    // activation mix. Counting from the pre-rewrite activations covers both
    // lanes uniformly (a segmented query still has exactly one activation
    // per operator per execution), and feeding the same folded `op_busy` /
    // `op_tuples` that record_cycle just consumed is what makes the
    // attributed sums match the per-operator totals exactly.
    let n_stmts = inner.attribution.statement_count();
    let mut act_counts: Vec<u64> = vec![0; plan.len() * n_stmts];
    for q in &batch.queries {
        for (op, _) in &q.activations {
            act_counts[*op * n_stmts + q.admitted.statement_index] += 1;
        }
    }
    for node in plan.nodes() {
        inner.attribution.record_cycle(
            node.id,
            &act_counts[node.id * n_stmts..(node.id + 1) * n_stmts],
            op_tuples[node.id] as u64,
            op_busy[node.id],
        );
    }
    inner.trace.push(TraceEvent::OperatorsFired {
        batch: batch.id.0,
        fired: plan.len(),
        active: active_operators,
        total_busy_us: total_busy.as_micros() as u64,
    });

    // Phase 3: route results back to the clients (Γ by query_id). The root
    // outputs are exploded into per-query row lists in ONE pass per root
    // operator, so routing cost is O(results), not O(results × queries).
    let mut routed: RoutingTable = HashMap::new();
    if batch_error.is_none() {
        for q in &whole_lane {
            routed.entry(q.root).or_insert_with(|| {
                let output = run.nodes[q.root].output.get();
                explode_by_query(output.map_or(&[], |tuples| tuples.as_slice()))
            });
        }
    }
    // Segment lane: the same Γ step, once per segment; each query's
    // per-segment partial rows then recombine through its statement's merge
    // spec before finalisation.
    let mut seg_routed: Vec<RoutingTable> =
        (0..run.segments.len()).map(|_| HashMap::new()).collect();
    if seg_error.is_none() {
        for ((_, done), routed) in run.segments.iter().zip(&mut seg_routed) {
            let Some(Ok(outputs)) = done.get().map(|done| &done.outputs) else {
                continue;
            };
            for (root, output) in outputs {
                routed.insert(*root, explode_by_query(output));
            }
        }
    }
    for q in &batch.queries {
        let index = q.admitted.statement_index;
        let segmented = segments > 1 && q.segment_ok;
        let lane_error = if segmented { &seg_error } else { &batch_error };
        let outcome = if let Some(error) = lane_error {
            Err(error.clone())
        } else if segmented {
            let merge_started = Instant::now();
            let merged = merge_segment_partials(inner, q, &mut seg_routed);
            inner
                .stats
                .record_phase(index, Phase::Merge, merge_started.elapsed());
            merged.and_then(|rows| finalize_query_result(inner, q, rows))
        } else {
            let rows = routed
                .get_mut(&q.root)
                .and_then(|per_query| per_query.remove(&q.query_id))
                .unwrap_or_default();
            finalize_query_result(inner, q, rows)
        };
        inner.trace.push(TraceEvent::QueryRouted {
            batch: batch.id.0,
            statement: index,
            ticket: q.admitted.ticket.0,
            rows: outcome.as_ref().map(|o| o.rows().len()).unwrap_or(0),
            ok: outcome.is_ok(),
        });
        let lanes = if segmented { segments } else { 1 };
        complete(inner, &q.admitted, outcome, started, heartbeat_us, lanes);
    }
}

/// The Γ step over one root's output: each query's rows, in output order.
fn explode_by_query(output: &[QTuple]) -> HashMap<QueryId, Vec<Tuple>> {
    let mut per_query: HashMap<QueryId, Vec<Tuple>> = HashMap::new();
    for tuple in output {
        for query_id in tuple.queries.iter() {
            per_query
                .entry(query_id)
                .or_default()
                .push(tuple.tuple.clone());
        }
    }
    per_query
}

/// Recombines one segment-lane query's per-segment partial rows into the
/// single row list [`finalize_query_result`] expects, using the statement's
/// [`MergeSpec`]. A grouped merge yields final values: AVG sum/count partials
/// are recombined exactly and the query's own bound HAVING predicate is
/// applied per merged group (a segment must not filter a partial group
/// another segment may complete).
fn merge_segment_partials(
    inner: &Arc<EngineInner>,
    query: &ActiveQuery,
    seg_routed: &mut [RoutingTable],
) -> Result<Vec<Tuple>> {
    let spec = inner.scatter_specs[query.admitted.statement_index]
        .as_ref()
        .ok_or_else(|| Error::Internal("segment-lane query without scatter spec".into()))?;
    let effective = match &spec.merge {
        MergeSpec::Grouped {
            group_width,
            functions,
            avg_partials,
            having: _,
        } => MergeSpec::Grouped {
            group_width: *group_width,
            functions: functions.clone(),
            avg_partials: *avg_partials,
            // The bound HAVING lives in the query's own root activation.
            having: query.activations.iter().find_map(|(op, a)| match a {
                Activation::Having { predicate, .. } if *op == query.root => predicate.clone(),
                _ => None,
            }),
        },
        other => other.clone(),
    };
    let schema = inner.plan.node(query.root).schema.clone();
    let parts: Vec<crate::engine::ResultSet> = seg_routed
        .iter_mut()
        .map(|routed| ResultSet {
            schema: schema.clone(),
            rows: routed
                .get_mut(&query.root)
                .and_then(|per_query| per_query.remove(&query.query_id))
                .unwrap_or_default(),
        })
        .collect();
    merge_results(&effective, parts).map(|rs| rs.rows)
}

fn finalize_query_result(
    inner: &Arc<EngineInner>,
    query: &ActiveQuery,
    mut rows: Vec<Tuple>,
) -> Result<QueryOutcome> {
    // DISTINCT statements dedup the *projected* rows, and their limit counts
    // deduplicated rows — so the truncate-early fast path only runs for
    // non-distinct statements.
    if !query.distinct {
        if let Some(limit) = query.limit {
            rows.truncate(limit);
        }
    }
    // Computed output columns (expression projections) replace the plain
    // index projection: each result row is the evaluation of the bound
    // expressions over the root row.
    if !query.compute.is_empty() {
        let schema = Schema::new(
            query
                .compute
                .iter()
                .map(|c| shareddb_common::Column::nullable(c.name.clone(), c.data_type))
                .collect(),
        );
        let rows = rows
            .into_iter()
            .map(|r| {
                Ok(Tuple::new(
                    query
                        .compute
                        .iter()
                        .map(|c| c.expr.eval(&r))
                        .collect::<Result<Vec<Value>>>()?,
                ))
            })
            .collect::<Result<Vec<Tuple>>>()?;
        return Ok(QueryOutcome::Rows(ResultSet {
            schema,
            rows: finish_output_rows(query, rows),
        }));
    }
    let root_schema = inner.plan.node(query.root).schema.clone();
    let schema = if query.projection.is_empty() {
        root_schema
    } else {
        root_schema.project(&query.projection)
    };
    if !query.projection.is_empty() {
        rows = rows
            .into_iter()
            .map(|r| r.project(&query.projection))
            .collect();
    }
    Ok(QueryOutcome::Rows(ResultSet {
        schema,
        rows: finish_output_rows(query, rows),
    }))
}

/// Applies the statement's post-projection DISTINCT (keeping the first
/// occurrence, which preserves any ORDER BY) and the deferred limit.
fn finish_output_rows(query: &ActiveQuery, mut rows: Vec<Tuple>) -> Vec<Tuple> {
    if query.distinct {
        let mut seen = std::collections::HashSet::with_capacity(rows.len());
        rows.retain(|row| seen.insert(row.clone()));
        if let Some(limit) = query.limit {
            rows.truncate(limit);
        }
    }
    rows
}

/// Books one statement of the batch that started at `started` under
/// a heartbeat of `heartbeat_us` µs, executed on `segments` segment lanes
/// (1 = whole lane), and hands its outcome over — while the batch's
/// intermediates are still alive: a reader woken here works beside the
/// coordinator freeing them, not after it.
fn complete(
    inner: &EngineInner,
    statement: &Admitted,
    outcome: Result<QueryOutcome>,
    started: Instant,
    heartbeat_us: u64,
    segments: u32,
) {
    // One completion timestamp for every span, so total >= execute and
    // total >= batch_wait hold exactly (two elapsed() calls would let
    // the later-measured span overshoot the earlier one).
    let now = Instant::now();
    let latency = now.duration_since(statement.submitted);
    match &outcome {
        Ok(QueryOutcome::Rows(rs)) => inner.stats.record_query(rs.len(), latency),
        Ok(QueryOutcome::Updated { .. }) => inner.stats.record_update(latency),
        Err(_) => inner.stats.record_failure(),
    }
    let batch_wait = started.duration_since(statement.enqueued);
    let execute = now.duration_since(started);
    let index = statement.statement_index;
    inner
        .stats
        .record_phase(index, Phase::BatchWait, batch_wait);
    inner.stats.record_phase(index, Phase::Execute, execute);
    inner.stats.record_phase(index, Phase::Total, latency);
    if inner
        .config
        .slow_query_threshold
        .is_some_and(|threshold| latency >= threshold)
    {
        inner.stats.record_slow(SlowQueryRecord {
            statement: inner.registry.by_index(index).name.clone(),
            // The engine does not know its replica id; the cluster layer
            // stamps it when concatenating logs.
            replica: 0,
            segments,
            total: latency,
            admission: statement.enqueued.duration_since(statement.submitted),
            batch_wait,
            execute,
            heartbeat_us,
        });
    }
    if let Some((queue, tag)) = &statement.completion {
        if queue.push(*tag, outcome) {
            inner.stats.record_completion_wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{
        ActivationTemplate, PlanBuilder, ProbeTemplate, StatementSpec, UpdateTemplate,
    };
    use shareddb_common::agg::AggregateFunction;
    use shareddb_common::{tuple, DataType, Expr, SortKey};
    use shareddb_storage::{IndexDef, IndexKind, TableDef};

    /// Builds a small catalog + plan resembling Figure 2 of the paper:
    /// USERS and ORDERS scans, a shared hash join, a group-by over USERS and
    /// a sort over the join output.
    fn build_engine(config: EngineConfig) -> Engine {
        let catalog = Arc::new(Catalog::new());
        catalog
            .create_table(
                TableDef::new("USERS")
                    .column("USER_ID", DataType::Int)
                    .column("USERNAME", DataType::Text)
                    .column("COUNTRY", DataType::Text)
                    .column("ACCOUNT", DataType::Int)
                    .primary_key(&["USER_ID"]),
            )
            .unwrap();
        catalog
            .create_table(
                TableDef::new("ORDERS")
                    .column("ORDER_ID", DataType::Int)
                    .column("USER_ID", DataType::Int)
                    .column("STATUS", DataType::Text)
                    .column("TOTAL", DataType::Float)
                    .primary_key(&["ORDER_ID"]),
            )
            .unwrap();
        catalog
            .create_index(IndexDef {
                name: "USERS_PK".into(),
                table: "USERS".into(),
                column: "USER_ID".into(),
                kind: IndexKind::Values,
            })
            .unwrap();
        let users: Vec<_> = (0..100i64)
            .map(|i| {
                tuple![
                    i,
                    format!("user{i}"),
                    if i % 2 == 0 { "CH" } else { "DE" },
                    i * 10
                ]
            })
            .collect();
        let orders: Vec<_> = (0..300i64)
            .map(|i| {
                tuple![
                    i,
                    i % 100,
                    if i % 3 == 0 { "OK" } else { "PENDING" },
                    (i % 50) as f64
                ]
            })
            .collect();
        catalog.bulk_load("USERS", users).unwrap();
        catalog.bulk_load("ORDERS", orders).unwrap();

        let mut b = PlanBuilder::new(&catalog);
        let users_scan = b.table_scan("USERS").unwrap();
        let orders_scan = b.table_scan("ORDERS").unwrap();
        let users_probe = b.index_probe("USERS").unwrap();
        let join = b
            .hash_join(users_scan, orders_scan, "USERS.USER_ID", "ORDERS.USER_ID")
            .unwrap();
        let join_sort = b.sort(join, vec![SortKey::asc(4)]).unwrap();
        let gamma = b
            .group_by(
                users_scan,
                vec!["USERS.COUNTRY"],
                vec![(AggregateFunction::Sum, "USERS.ACCOUNT", "SUM_ACCOUNT")],
            )
            .unwrap();
        let top = b.top_n(orders_scan, vec![SortKey::desc(3)]).unwrap();
        // Two operators that cannot run: a sort on a column the rows do not
        // have (its comparator panics), and a filter the statement below
        // gives a text column as predicate (it returns a type error) with a
        // sort and a top-n downstream of it.
        let bad_sort = b.sort(users_scan, vec![SortKey::asc(99)]).unwrap();
        let bad_filter = b.filter(orders_scan).unwrap();
        let after_bad_filter = b.sort(bad_filter, vec![SortKey::asc(0)]).unwrap();
        let top_after_bad_filter = b.top_n(after_bad_filter, vec![SortKey::asc(0)]).unwrap();
        let plan = b.build();

        let mut registry = StatementRegistry::new();
        // Q1: SELECT COUNTRY, SUM(ACCOUNT) FROM USERS GROUP BY COUNTRY
        registry
            .register(
                StatementSpec::query("usersByCountry", gamma)
                    .activate(
                        users_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(gamma, ActivationTemplate::Having { predicate: None }),
            )
            .unwrap();
        // Q2: SELECT * FROM USERS U, ORDERS O WHERE U.USER_ID = O.USER_ID
        //     AND U.USERNAME = ? AND O.STATUS = 'OK', sorted by order id.
        registry
            .register(
                StatementSpec::query("ordersOfUser", join_sort)
                    .activate(
                        users_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::col(1).eq(Expr::param(0)),
                        },
                    )
                    .activate(
                        orders_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::col(2).eq(Expr::lit("OK")),
                        },
                    )
                    .activate(join, ActivationTemplate::Participate)
                    .activate(join_sort, ActivationTemplate::Participate),
            )
            .unwrap();
        // Q3: point look-up of one user through the shared index probe.
        registry
            .register(StatementSpec::query("userById", users_probe).activate(
                users_probe,
                ActivationTemplate::Probe {
                    column: 0,
                    range: ProbeTemplate::Key(Expr::param(0)),
                    residual: None,
                },
            ))
            .unwrap();
        // Q4: top-N most expensive orders.
        registry
            .register(
                StatementSpec::query("topOrders", top)
                    .activate(
                        orders_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::col(3).gt_eq(Expr::param(0)),
                        },
                    )
                    .activate(top, ActivationTemplate::TopN { limit: 5 }),
            )
            .unwrap();
        // U1: register a new order.
        registry
            .register(StatementSpec::update(
                "addOrder",
                "ORDERS",
                UpdateTemplate::Insert {
                    values: vec![
                        Expr::param(0),
                        Expr::param(1),
                        Expr::lit("OK"),
                        Expr::param(2),
                    ],
                },
            ))
            .unwrap();
        // U2: cancel the orders of one user.
        registry
            .register(StatementSpec::update(
                "cancelOrders",
                "ORDERS",
                UpdateTemplate::Delete {
                    predicate: Expr::col(1).eq(Expr::param(0)),
                },
            ))
            .unwrap();

        // B1: every user, through the sort that panics.
        registry
            .register(
                StatementSpec::query("brokenSort", bad_sort)
                    .activate(
                        users_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(bad_sort, ActivationTemplate::Participate),
            )
            .unwrap();
        // B2: the filter fails; its consumers two hops down must still end.
        registry
            .register(
                StatementSpec::query("brokenFilter", top_after_bad_filter)
                    .activate(
                        orders_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(
                        bad_filter,
                        ActivationTemplate::Filter {
                            predicate: Expr::col(2),
                        },
                    )
                    .activate(after_bad_filter, ActivationTemplate::Participate)
                    .activate(top_after_bad_filter, ActivationTemplate::TopN { limit: 3 }),
            )
            .unwrap();

        Engine::start(catalog, plan, registry, config).unwrap()
    }

    /// One batch holding `broken` and a healthy look-up: both get `broken`'s
    /// error (a batch fails as one — when `broken` is `segmentable` and takes
    /// the segment lane, a lane fails as one and the look-up answers),
    /// `failed` counts each failed handle once, the next batch on the same
    /// engine answers, and shutdown joins every thread.
    fn broken_statement_fails_its_batch_only(
        broken: &str,
        segmentable: bool,
        expected: fn(&Error) -> bool,
    ) {
        for (cores, segments) in [(1, 1), (2, 1), (8, 1), (2, 2)] {
            // Paced, so that the two statements share the second batch.
            let mut engine = build_engine(EngineConfig {
                heartbeat: HeartbeatPolicy::Fixed(Duration::from_millis(30)),
                eager_heartbeat: false,
                scan_segments: segments,
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
                .any(|record| matches!(record.event, TraceEvent::BatchFormed { queries: 2, .. }));
            if segments > 1 && segmentable {
                assert_eq!(engine.segment_stats()[0].batches, 1, "{broken} ran whole");
                assert!(bystander.is_ok(), "a segment failed the whole lane");
            } else if shared_a_batch {
                assert!(
                    expected(bystander.as_ref().unwrap_err()),
                    "a batch fails as one"
                );
            }
            assert_eq!(
                engine.stats().failed,
                1 + bystander.is_err() as u64,
                "{cores} cores, {segments} segments: one failure per failed handle"
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
            true,
            |e| matches!(e, Error::Internal(m) if m.starts_with("operator Sort") && m.contains("panicked: index out of bounds")),
        );
    }

    #[test]
    fn failing_operator_fails_its_batch_only() {
        broken_statement_fails_its_batch_only(
            "brokenFilter",
            false,
            |e| matches!(e, Error::TypeMismatch { expected, .. } if expected == "Bool"),
        );
    }

    #[test]
    fn group_by_query_end_to_end() {
        let engine = build_engine(EngineConfig::default());
        let outcome = engine.execute_sync("usersByCountry", &[]).unwrap();
        let rows = outcome.rows();
        assert_eq!(rows.len(), 2);
        // 50 even users (CH) with accounts 0,20,..,980 -> 24500.
        let ch = rows.iter().find(|r| r[0] == Value::text("CH")).unwrap();
        assert_eq!(
            ch[1],
            Value::Int((0..100).filter(|i| i % 2 == 0).map(|i| i * 10).sum())
        );
    }

    #[test]
    fn join_query_with_parameters() {
        let engine = build_engine(EngineConfig::default());
        let outcome = engine
            .execute_sync("ordersOfUser", &[Value::text("user7")])
            .unwrap();
        let rows = outcome.rows();
        // User 7 has orders 7, 107, 207; status OK only for multiples of 3 -> 207.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][4], Value::Int(207));
        assert_eq!(rows[0][1], Value::text("user7"));
    }

    #[test]
    fn concurrent_queries_share_one_batch() {
        let engine = build_engine(EngineConfig::default().heartbeat(Duration::from_millis(20)));
        let handles: Vec<_> = (0..50)
            .map(|i| {
                engine
                    .execute("ordersOfUser", &[Value::text(format!("user{}", i % 100))])
                    .unwrap()
            })
            .collect();
        for h in handles {
            let outcome = h.wait().unwrap();
            assert!(outcome.rows().len() <= 3);
        }
        let stats = engine.stats();
        assert_eq!(stats.queries, 50);
        // Batching must have grouped many queries into few batches.
        assert!(stats.batches < 50, "batches = {}", stats.batches);
    }

    #[test]
    fn index_probe_point_query() {
        let engine = build_engine(EngineConfig::default());
        let outcome = engine.execute_sync("userById", &[Value::Int(33)]).unwrap();
        assert_eq!(outcome.rows().len(), 1);
        assert_eq!(outcome.rows()[0][1], Value::text("user33"));
    }

    #[test]
    fn attribution_sums_to_operator_busy_exactly() {
        let engine = build_engine(EngineConfig::default().heartbeat(Duration::from_millis(5)));
        // A mixed workload: three query types sharing the USERS/ORDERS scans.
        let mut handles = Vec::new();
        for i in 0..20i64 {
            handles.push(engine.execute("usersByCountry", &[]).unwrap());
            handles.push(
                engine
                    .execute("ordersOfUser", &[Value::text(format!("user{i}"))])
                    .unwrap(),
            );
            handles.push(engine.execute("topOrders", &[Value::Float(0.0)]).unwrap());
        }
        for h in handles {
            h.wait().unwrap();
        }
        let operators = engine.operator_stats();
        let attribution = engine.attribution_stats();
        // The invariant the whole attribution design hangs on: per operator,
        // the attributed busy times and rows — including the `_idle`
        // residual — sum EXACTLY to the operator's own counters.
        for op in &operators {
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
        assert!(engine.attribution_stats().is_empty());
    }

    #[test]
    fn top_n_query_respects_limit() {
        let engine = build_engine(EngineConfig::default());
        let outcome = engine
            .execute_sync("topOrders", &[Value::Float(0.0)])
            .unwrap();
        assert_eq!(outcome.rows().len(), 5);
        // Descending by TOTAL.
        let totals: Vec<f64> = outcome
            .rows()
            .iter()
            .map(|r| r[3].as_float().unwrap())
            .collect();
        assert!(totals.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn updates_and_queries_interleave() {
        let engine = build_engine(EngineConfig::default());
        // Insert a new order for user 1 and then read it back via the join.
        let outcome = engine
            .execute_sync(
                "addOrder",
                &[Value::Int(10_000), Value::Int(1), Value::Float(99.0)],
            )
            .unwrap();
        assert_eq!(outcome.rows_affected(), 1);
        let rows = engine
            .execute_sync("ordersOfUser", &[Value::text("user1")])
            .unwrap();
        assert!(rows.rows().iter().any(|r| r[4] == Value::Int(10_000)));
        // Delete the user's orders and observe the effect.
        let outcome = engine
            .execute_sync("cancelOrders", &[Value::Int(1)])
            .unwrap();
        assert!(outcome.rows_affected() >= 1);
        let rows = engine
            .execute_sync("ordersOfUser", &[Value::text("user1")])
            .unwrap();
        assert!(rows.rows().is_empty());
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

    #[test]
    fn core_budget_one_still_completes() {
        let engine = build_engine(EngineConfig::with_cores(1));
        let handles: Vec<_> = (0..10)
            .map(|_| engine.execute("usersByCountry", &[]).unwrap())
            .collect();
        for h in handles {
            assert_eq!(h.wait().unwrap().rows().len(), 2);
        }
    }

    /// A shutdown answers what it finds queued — here a thousand statements
    /// behind a heartbeat that never comes, a failing one among them, all
    /// bound for one queue nobody reads meanwhile — from one last batch:
    /// every tag once, a failed statement counted once, the reader woken
    /// once for the lot; and admits nothing after.
    #[test]
    fn shutdown_answers_what_is_queued_exactly_once() {
        let mut engine = build_engine(EngineConfig {
            heartbeat: HeartbeatPolicy::Fixed(Duration::from_secs(30)),
            eager_heartbeat: false,
            ..EngineConfig::default()
        });
        engine.execute_sync("userById", &[Value::Int(1)]).unwrap();
        let queue = Arc::new(Completions::new(Some(Arc::new(|| {}))));
        for tag in 0..1_000u64 {
            let (statement, params) = match tag {
                500 => ("brokenFilter", vec![]),
                _ => ("userById", vec![Value::Int(tag as i64 % 100)]),
            };
            let opts = SubmitOptions {
                completions: Some((Arc::clone(&queue), tag)),
                ..SubmitOptions::default()
            };
            let handle = engine.submit(statement, &params, opts).unwrap();
            assert!(matches!(handle.try_wait(), Some(Err(_))), "answered there");
        }
        let mut outcomes = Vec::new();
        queue.take(&mut outcomes);
        assert!(outcomes.is_empty(), "a batch before its heartbeat");
        engine.shutdown();
        queue.take(&mut outcomes);
        outcomes.sort_by_key(|(tag, _)| *tag);
        let tags: Vec<u64> = outcomes.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, (0..1_000).collect::<Vec<u64>>());
        // A batch fails as one.
        let failed = outcomes.iter().filter(|(_, o)| o.is_err()).count() as u64;
        let stats = engine.stats();
        assert_eq!((failed, stats.failed), (1_000, 1_000), "{stats:?}");
        // The warm-up's private slot, and the queue once.
        assert_eq!(stats.completion_wakes, 2);
        assert!(matches!(
            engine.execute("usersByCountry", &[]),
            Err(Error::EngineShutdown)
        ));
        queue.take(&mut outcomes);
        assert_eq!(outcomes.len(), 1_000);
    }

    #[test]
    fn operator_stats_are_recorded() {
        let engine = build_engine(EngineConfig::default());
        engine.execute_sync("usersByCountry", &[]).unwrap();
        let stats = engine.operator_stats();
        assert_eq!(stats.len(), engine.plan().len());
        // The USERS scan must have processed at least one active cycle.
        let users_scan = stats
            .iter()
            .find(|s| s.name.starts_with("Scan(USERS)"))
            .unwrap();
        assert!(users_scan.active_cycles >= 1);
        assert!(users_scan.tuples_out >= 100);
    }

    #[test]
    fn scan_segments_zero_is_rejected() {
        let engine = build_engine(EngineConfig::default());
        let catalog = engine.catalog();
        let plan = engine.plan().clone();
        let registry = StatementRegistry::new();
        assert!(matches!(
            Engine::start(
                catalog,
                plan,
                registry,
                EngineConfig::default().scan_segments(0),
            ),
            Err(Error::InvalidParameter(_))
        ));
    }

    /// 1-segment vs N-segment result equality over every statement shape of
    /// the fixture: group-by (partial-aggregate merge), parameterised join →
    /// sort (ordered merge over co-partitioned scans), Top-N (ordered merge)
    /// and the probe-rooted point query (not eligible — whole lane).
    #[test]
    fn segmented_results_match_single_segment() {
        let baseline = build_engine(EngineConfig::default());
        let segmented = build_engine(EngineConfig::default().scan_segments(4));
        let cases: Vec<(&str, Vec<Value>)> = vec![
            ("usersByCountry", vec![]),
            ("ordersOfUser", vec![Value::text("user7")]),
            ("ordersOfUser", vec![Value::text("user42")]),
            ("topOrders", vec![Value::Float(0.0)]),
            ("userById", vec![Value::Int(33)]),
        ];
        for (statement, params) in &cases {
            let want = baseline.execute_sync(statement, params).unwrap();
            let got = segmented.execute_sync(statement, params).unwrap();
            if *statement == "topOrders" {
                // The fixture's totals are full of ties, so WHICH tied rows
                // make the top 5 is unspecified;
                // the ordering-key values must match exactly.
                let totals = |o: &QueryOutcome| -> Vec<Value> {
                    o.rows().iter().map(|r| r[3].clone()).collect()
                };
                assert_eq!(totals(&want), totals(&got), "topOrders keys diverged");
                continue;
            }
            let mut want_rows = want.rows().to_vec();
            let mut got_rows = got.rows().to_vec();
            // Grouped results have no guaranteed group order; ordered shapes
            // are already deterministic, so sorting is harmless there.
            want_rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            got_rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            assert_eq!(want_rows, got_rows, "statement {statement} diverged");
        }
        // The segment lane actually ran: every segment recorded work for the
        // eligible statements.
        let seg_stats = segmented.segment_stats();
        assert_eq!(seg_stats.len(), 4);
        for s in &seg_stats {
            assert!(s.batches >= 1, "segment {} never executed", s.segment);
        }
        assert!(baseline.segment_stats().is_empty());
    }

    /// Satellite regression: with N segments executing one batch
    /// concurrently, per-operator busy must not be the sum over segment
    /// lanes — the busy fraction of a scan must stay <= 1 relative to the
    /// engine's wall clock even at high segment counts.
    #[test]
    fn segment_busy_is_not_double_counted() {
        let engine = build_engine(EngineConfig::default().scan_segments(8));
        for _ in 0..5 {
            engine.execute_sync("usersByCountry", &[]).unwrap();
        }
        let wall = engine.stats_wall();
        for op in engine.operator_stats() {
            let fraction = op.busy_fraction(wall);
            assert!(
                fraction <= 1.0,
                "operator {} reports busy fraction {fraction} > 1",
                op.name
            );
        }
        // One logical execution per call: per-segment partial rows must not
        // inflate the delivered result-row count.
        assert_eq!(engine.stats().result_rows, 10);
    }

    /// Updates stay unsegmented and group-committed: a delete submitted
    /// between segmented reads is observed atomically by the next batch.
    #[test]
    fn segmented_reads_observe_unsegmented_updates() {
        let engine = build_engine(EngineConfig::default().scan_segments(3));
        engine
            .execute_sync(
                "addOrder",
                &[Value::Int(10_000), Value::Int(1), Value::Float(99.0)],
            )
            .unwrap();
        let rows = engine
            .execute_sync("ordersOfUser", &[Value::text("user1")])
            .unwrap();
        assert!(rows.rows().iter().any(|r| r[4] == Value::Int(10_000)));
        engine
            .execute_sync("cancelOrders", &[Value::Int(1)])
            .unwrap();
        let rows = engine
            .execute_sync("ordersOfUser", &[Value::text("user1")])
            .unwrap();
        assert!(rows.rows().is_empty());
    }

    #[test]
    fn wait_timeout_reports_deadline() {
        let engine = build_engine(EngineConfig::default());
        // A timeout of zero cannot be met.
        let handle = engine.execute("usersByCountry", &[]).unwrap();
        match handle.wait_timeout(Duration::from_nanos(1)) {
            Err(Error::DeadlineExceeded) | Ok(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    // -- priority admission lanes -------------------------------------------

    /// Fixture registration order: usersByCountry=0, ordersOfUser=1,
    /// userById=2, topOrders=3, addOrder=4, cancelOrders=5.
    #[test]
    fn lane_classification_follows_plan_shape_and_overrides() {
        let engine = build_engine(EngineConfig::default());
        // Probe-only shape is light; scans/joins/aggregates are heavy;
        // updates are always light (group-commit appends that gate RYW).
        assert!(matches!(engine.statement_lane(0), Lane::Heavy)); // group-by
        assert!(matches!(engine.statement_lane(1), Lane::Heavy)); // join+sort
        assert!(matches!(engine.statement_lane(2), Lane::Light)); // point probe
        assert!(matches!(engine.statement_lane(3), Lane::Heavy)); // top-N scan
        assert!(matches!(engine.statement_lane(4), Lane::Light)); // insert
        assert!(matches!(engine.statement_lane(5), Lane::Light)); // delete

        let engine = build_engine(
            EngineConfig::default()
                .heavy_statements(["userById"])
                .light_statements(["topOrders"]),
        );
        assert!(matches!(engine.statement_lane(2), Lane::Heavy)); // overridden
        assert!(matches!(engine.statement_lane(3), Lane::Light)); // overridden
                                                                  // Updates ignore the overrides.
        let engine = build_engine(EngineConfig::default().heavy_statements(["addOrder"]));
        assert!(matches!(engine.statement_lane(4), Lane::Light));
    }

    /// A saturated heavy lane must not block light admissions — and the
    /// exact queue-depth bound still spans both lanes.
    #[test]
    fn heavy_backlog_never_starves_light_admissions() {
        // min == max pins the adaptive interval: heavy batches are admitted
        // at most once per 300ms, light batches immediately.
        let policy = HeartbeatPolicy::parse("adaptive:300,300,50").unwrap();
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
        let policy = HeartbeatPolicy::parse("adaptive:400,400,50").unwrap();
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

    // -- adaptive heartbeat controller --------------------------------------

    /// Heavy backlog with latency headroom grows the interval toward `max`;
    /// a subsequent light-only phase drifts it back down to `min`.
    #[test]
    fn adaptive_interval_tracks_load() {
        // Generous 50ms target: the tiny fixture never exceeds it, so the
        // only active control rules are grow-under-pressure and
        // drift-when-idle.
        let policy = HeartbeatPolicy::parse("adaptive:0.5,20,50").unwrap();
        let min = Duration::from_micros(500);
        let engine = build_engine(EngineConfig::default().heartbeat_policy(policy));
        assert_eq!(engine.heartbeat_interval(), min);
        // Waves of concurrent heavy queries: pressure >= GROW_PRESSURE per
        // batch, light p99 far under target/2.
        for _ in 0..6 {
            let wave: Vec<_> = (0..24)
                .map(|_| engine.execute("topOrders", &[Value::Float(0.0)]).unwrap())
                .collect();
            for h in wave {
                h.wait().unwrap();
            }
        }
        let grown = engine.heartbeat_interval();
        assert!(
            grown > min,
            "interval should grow under heavy backlog, still at {grown:?}"
        );
        assert!(engine.heartbeat_adjustments() > 0);
        // Light-only phase: single-statement batches keep pressure under
        // SHRINK_PRESSURE, so the interval decays back to the floor — one
        // shrink step per observation window (each spanning twice the
        // current interval), hence the deadline loop.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut i = 0i64;
        while engine.heartbeat_interval() > min && Instant::now() < deadline {
            engine
                .execute_sync("userById", &[Value::Int(i % 100)])
                .unwrap();
            i += 1;
        }
        assert_eq!(
            engine.heartbeat_interval(),
            min,
            "interval should drift back to min in a light phase"
        );
    }

    /// The adaptive policy keeps light p99 under the target where a fixed
    /// interval pinned at the adaptive `max` (the negative control)
    /// violates it: light queries there wait out the full batch pacing.
    #[test]
    fn adaptive_meets_light_slo_where_fixed_max_does_not() {
        let target = Duration::from_millis(5);
        let light_p99 = |engine: &Engine| {
            let light: Vec<usize> = (0..6)
                .filter(|&i| matches!(engine.statement_lane(i), Lane::Light))
                .collect();
            engine
                .inner
                .stats
                .merged_phase(&light, Phase::Total)
                .percentile_us(0.99)
        };
        // Negative control: fixed interval at the adaptive max, non-eager,
        // so every light query waits for the 10ms pacing.
        let fixed = build_engine(EngineConfig {
            heartbeat: HeartbeatPolicy::Fixed(Duration::from_millis(10)),
            eager_heartbeat: false,
            ..EngineConfig::default()
        });
        for i in 0..20 {
            fixed
                .execute_sync("userById", &[Value::Int(i % 100)])
                .unwrap();
        }
        let fixed_p99 = light_p99(&fixed);
        assert!(
            fixed_p99 > target.as_micros() as u64,
            "negative control: fixed-max pacing should violate the {target:?} target, p99 {fixed_p99}us"
        );
        // Adaptive with the same max admits light immediately.
        let policy = HeartbeatPolicy::parse("adaptive:0.5,10,5").unwrap();
        let adaptive = build_engine(EngineConfig::default().heartbeat_policy(policy));
        for i in 0..20 {
            adaptive
                .execute_sync("userById", &[Value::Int(i % 100)])
                .unwrap();
        }
        let adaptive_p99 = light_p99(&adaptive);
        assert!(
            adaptive_p99 <= target.as_micros() as u64,
            "adaptive policy should keep light p99 under {target:?}, got {adaptive_p99}us"
        );
    }

    // -- read-your-writes session fences ------------------------------------

    /// Two engines over one shared catalog emulate two replicas: a slow
    /// writer (50ms paced heartbeat) and a fast reader — every other round a
    /// segmented one, whose read is a join over two sliced scans. A read
    /// carrying the session's write fence observes the write on every round;
    /// the unfenced negative control reads stale data.
    #[test]
    fn read_your_writes_fence_blocks_stale_reads() {
        let writer = build_engine(EngineConfig {
            heartbeat: HeartbeatPolicy::Fixed(Duration::from_millis(50)),
            eager_heartbeat: false,
            ..EngineConfig::default()
        });
        let readers = [1, 2].map(|segments| {
            Engine::start(
                writer.catalog(),
                writer.plan().clone(),
                registry_like(&writer),
                EngineConfig::default().scan_segments(segments),
            )
            .unwrap()
        });
        // Warm-up batch: the pacing clock starts already-elapsed, so the
        // first submission would commit immediately; consume that slot.
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
        assert_eq!(readers[1].segment_stats()[0].batches, 5);
    }

    /// A fence resolved by a *failed* write must not wedge fenced readers.
    #[test]
    fn failed_write_releases_its_fence() {
        let fence = WriteFence::new();
        assert_eq!(fence.committed_ts(), None);
        fence.resolve(0); // watermark 0: nothing ever committed
        assert_eq!(fence.committed_ts(), Some(0));
        fence.resolve(7);
        assert_eq!(fence.committed_ts(), Some(7));
        fence.resolve(3); // monotonic
        assert_eq!(fence.committed_ts(), Some(7));
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
