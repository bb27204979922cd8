//! Engine and operator statistics.
//!
//! SharedDB's value proposition is *predictability*: the engine therefore
//! keeps cheap, always-on counters — per-operator cycle counts and busy time,
//! engine-level batch/query/latency counters, and **phase-tagged latency
//! histograms** that break a statement's life into admission → batch-wait →
//! execute → flush at the network layer. All hot-path recording is lock-free
//! ([`shareddb_common::metrics::Histogram`]); the benchmark harnesses and the
//! server's metrics endpoint read the same counters.

use shareddb_common::metrics::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Point-in-time snapshot of one operator's counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperatorStatsSnapshot {
    /// Operator name.
    pub name: String,
    /// Number of cycles (batches) processed.
    pub cycles: u64,
    /// Number of cycles that had at least one active query.
    pub active_cycles: u64,
    /// Total tuples emitted.
    pub tuples_out: u64,
    /// Total work row demands let the operator skip
    /// ([`crate::operators::Emitted::pruned`]).
    pub rows_pruned: u64,
    /// Total busy time across cycles.
    pub busy: Duration,
}

impl OperatorStatsSnapshot {
    /// Fraction of `wall` this operator spent busy (0.0 when `wall` is zero).
    ///
    /// Computed against a caller-supplied wall-clock window (engine uptime,
    /// or time since the last stats reset) so the number stays meaningful
    /// after [`EngineStats::reset`] — snapshots taken against a stale wall
    /// clock were how replica imbalance used to hide.
    pub fn busy_fraction(&self, wall: Duration) -> f64 {
        if wall.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / wall.as_secs_f64()
        }
    }

    /// Mean tuples emitted per cycle that actually had active queries.
    pub fn tuples_per_active_cycle(&self) -> f64 {
        if self.active_cycles == 0 {
            0.0
        } else {
            self.tuples_out as f64 / self.active_cycles as f64
        }
    }
}

/// Mutable per-operator counters (owned by the engine, updated by operator
/// threads).
#[derive(Debug, Default)]
pub struct OperatorStats {
    cycles: AtomicU64,
    active_cycles: AtomicU64,
    tuples_out: AtomicU64,
    rows_pruned: AtomicU64,
    busy_nanos: AtomicU64,
}

impl OperatorStats {
    /// Records one processed cycle.
    pub fn record_cycle(
        &self,
        had_queries: bool,
        tuples_out: usize,
        rows_pruned: usize,
        busy: Duration,
    ) {
        self.cycles.fetch_add(1, Ordering::Relaxed);
        if had_queries {
            self.active_cycles.fetch_add(1, Ordering::Relaxed);
        }
        self.tuples_out
            .fetch_add(tuples_out as u64, Ordering::Relaxed);
        self.rows_pruned
            .fetch_add(rows_pruned as u64, Ordering::Relaxed);
        self.busy_nanos
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Takes a snapshot.
    pub fn snapshot(&self, name: &str) -> OperatorStatsSnapshot {
        OperatorStatsSnapshot {
            name: name.to_string(),
            cycles: self.cycles.load(Ordering::Relaxed),
            active_cycles: self.active_cycles.load(Ordering::Relaxed),
            tuples_out: self.tuples_out.load(Ordering::Relaxed),
            rows_pruned: self.rows_pruned.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
        }
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        self.cycles.store(0, Ordering::Relaxed);
        self.active_cycles.store(0, Ordering::Relaxed);
        self.tuples_out.store(0, Ordering::Relaxed);
        self.rows_pruned.store(0, Ordering::Relaxed);
        self.busy_nanos.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Per-operator × per-statement-type cost attribution
// ---------------------------------------------------------------------------

/// The reserved attribution column for operator cycles in which no registered
/// statement type had an activation (e.g. a shared scan revolving for a batch
/// whose queries all target other operators). Keeping this residual explicit
/// is what makes the attribution *exact*: for every operator, the attributed
/// busy times across all columns — including `_idle` — sum to the operator's
/// total busy time in [`OperatorStats`].
pub const IDLE_STATEMENT: &str = "_idle";

/// One cell of the attribution matrix (lock-free, updated by the coordinator
/// once per operator per batch).
#[derive(Debug, Default)]
struct AttributionCell {
    activations: AtomicU64,
    rows: AtomicU64,
    busy_nanos: AtomicU64,
}

/// One nonzero cell of the attribution matrix (plain-data snapshot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionEntry {
    /// Operator name (`GlobalPlan` node name, e.g. `ClockScan#0`).
    pub operator: String,
    /// Statement type name, or [`IDLE_STATEMENT`] for the residual column.
    pub statement: String,
    /// Batches in which this statement type activated this operator, summed
    /// over the statement's queries (two pipelined `getItem`s in one batch
    /// count as two activations).
    pub activations: u64,
    /// Tuples of the operator's output attributed to this statement type.
    pub rows: u64,
    /// Operator busy time attributed to this statement type.
    pub busy: Duration,
}

/// Per-operator × per-statement-type cost attribution.
///
/// SharedDB executes *one* shared cycle per operator per batch, so a plain
/// per-operator counter cannot say **who** paid for a heavy cycle. This table
/// splits each cycle's busy time and output rows across the batch's
/// *activation mix*: if a `ClockScan` cycle served 3 `getItem` activations
/// and 1 `allItems` activation, `getItem` is attributed 3/4 of the cycle's
/// busy time and `allItems` 1/4. The split is proportional-by-activation
/// (the engine has no per-activation timer inside a shared cycle — that is
/// the whole point of sharing), with the integer-division remainder assigned
/// to the last active statement so per-batch sums are exact, not rounded.
///
/// Storage is a flat `operators × (statements + 1)` matrix of atomics sized
/// once at engine start — recording is alloc-free and lock-free, same
/// discipline as [`shareddb_common::metrics::Histogram`]. The extra column is
/// [`IDLE_STATEMENT`].
#[derive(Debug, Default)]
pub struct AttributionTable {
    operators: Vec<String>,
    statements: Vec<String>,
    cells: Vec<AttributionCell>,
}

impl AttributionTable {
    /// A matrix with one row per operator (plan order) and one column per
    /// statement (registry order) plus the `_idle` residual column.
    pub fn new(operators: Vec<String>, statements: Vec<String>) -> AttributionTable {
        let cells = (0..operators.len() * (statements.len() + 1))
            .map(|_| AttributionCell::default())
            .collect();
        AttributionTable {
            operators,
            statements,
            cells,
        }
    }

    /// Number of statement columns (excluding the `_idle` residual).
    pub fn statement_count(&self) -> usize {
        self.statements.len()
    }

    /// Records one operator cycle: `counts[i]` activations of statement `i`
    /// in this batch, and the cycle's total output tuples and busy time.
    /// `counts.len()` must equal [`AttributionTable::statement_count`].
    ///
    /// Busy time and rows are split proportionally to the activation counts;
    /// the division remainder goes to the last active statement, so the
    /// row-sum invariant (`Σ attributed busy == operator busy`) holds
    /// exactly. A cycle with no activations lands entirely in `_idle`.
    pub fn record_cycle(&self, operator: usize, counts: &[u64], tuples: u64, busy: Duration) {
        debug_assert_eq!(counts.len(), self.statements.len());
        let cols = self.statements.len() + 1;
        let base = operator * cols;
        let total: u64 = counts.iter().sum();
        let busy_nanos = busy.as_nanos() as u64;
        if total == 0 {
            let idle = &self.cells[base + self.statements.len()];
            idle.rows.fetch_add(tuples, Ordering::Relaxed);
            idle.busy_nanos.fetch_add(busy_nanos, Ordering::Relaxed);
            return;
        }
        let last = counts
            .iter()
            .rposition(|&c| c > 0)
            .expect("total > 0 implies a nonzero count");
        let mut given_busy = 0u64;
        let mut given_rows = 0u64;
        for (i, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let (share_busy, share_rows) = if i == last {
                (busy_nanos - given_busy, tuples - given_rows)
            } else {
                let b = (busy_nanos as u128 * count as u128 / total as u128) as u64;
                let r = (tuples as u128 * count as u128 / total as u128) as u64;
                (b, r)
            };
            given_busy += share_busy;
            given_rows += share_rows;
            let cell = &self.cells[base + i];
            cell.activations.fetch_add(count, Ordering::Relaxed);
            cell.rows.fetch_add(share_rows, Ordering::Relaxed);
            cell.busy_nanos.fetch_add(share_busy, Ordering::Relaxed);
        }
    }

    /// Every nonzero cell, operator-major, statement columns in registry
    /// order with `_idle` last.
    pub fn snapshot(&self) -> Vec<AttributionEntry> {
        let cols = self.statements.len() + 1;
        let mut out = Vec::new();
        for (op, operator) in self.operators.iter().enumerate() {
            for col in 0..cols {
                let cell = &self.cells[op * cols + col];
                let activations = cell.activations.load(Ordering::Relaxed);
                let rows = cell.rows.load(Ordering::Relaxed);
                let busy_nanos = cell.busy_nanos.load(Ordering::Relaxed);
                if activations == 0 && rows == 0 && busy_nanos == 0 {
                    continue;
                }
                out.push(AttributionEntry {
                    operator: operator.clone(),
                    statement: self
                        .statements
                        .get(col)
                        .cloned()
                        .unwrap_or_else(|| IDLE_STATEMENT.to_string()),
                    activations,
                    rows,
                    busy: Duration::from_nanos(busy_nanos),
                });
            }
        }
        out
    }

    /// Zeroes every cell.
    pub fn reset(&self) {
        for cell in &self.cells {
            cell.activations.store(0, Ordering::Relaxed);
            cell.rows.store(0, Ordering::Relaxed);
            cell.busy_nanos.store(0, Ordering::Relaxed);
        }
    }
}

/// Merges per-replica attribution snapshots by `(operator, statement)` key,
/// summing counters. Order is first-seen, which for replicas of one shared
/// plan (identical operator/statement universes) reproduces the single-
/// replica order — cell-exact, the same property the phase histograms get
/// from bucket-wise merging.
pub fn merge_attribution(per_replica: &[Vec<AttributionEntry>]) -> Vec<AttributionEntry> {
    let mut index: std::collections::HashMap<(String, String), usize> =
        std::collections::HashMap::new();
    let mut out: Vec<AttributionEntry> = Vec::new();
    for part in per_replica {
        for entry in part {
            let key = (entry.operator.clone(), entry.statement.clone());
            match index.get(&key) {
                Some(&slot) => {
                    let merged = &mut out[slot];
                    merged.activations += entry.activations;
                    merged.rows += entry.rows;
                    merged.busy += entry.busy;
                }
                None => {
                    index.insert(key, out.len());
                    out.push(entry.clone());
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Phase-tagged latency histograms
// ---------------------------------------------------------------------------

/// The phases of a statement's life, in order. The engine records the first
/// three plus `Total`; the network reactor records `Flush`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Submit call → enqueued on the admission queue (binding + lock wait).
    Admission,
    /// Admission queue → drained into a batch at a heartbeat.
    BatchWait,
    /// Batch formation → this statement's result routed (shared-cycle time).
    Execute,
    /// Outcome ready at the reactor → reply bytes flushed to the socket.
    Flush,
    /// Submission → outcome delivered (end-to-end, per statement type).
    Total,
}

/// Number of phases (length of [`Phase::ALL`]).
pub const NUM_PHASES: usize = 5;

impl Phase {
    /// Every phase, in lifecycle order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Admission,
        Phase::BatchWait,
        Phase::Execute,
        Phase::Flush,
        Phase::Total,
    ];

    /// Stable lower-case name (used as the `phase` metric label).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::BatchWait => "batch_wait",
            Phase::Execute => "execute",
            Phase::Flush => "flush",
            Phase::Total => "total",
        }
    }

    /// Position in [`Phase::ALL`]: the index of this phase's histogram.
    fn slot(self) -> usize {
        self as usize
    }
}

/// One histogram per phase.
#[derive(Debug, Default)]
pub struct PhaseHistograms {
    per_phase: [Histogram; NUM_PHASES],
}

impl PhaseHistograms {
    /// Records one observation for `phase`.
    pub fn record(&self, phase: Phase, d: Duration) {
        self.per_phase[phase.slot()].record(d);
    }

    /// Snapshots every phase histogram.
    pub fn snapshot(&self) -> [HistogramSnapshot; NUM_PHASES] {
        std::array::from_fn(|i| self.per_phase[i].snapshot())
    }

    /// True when no phase recorded anything.
    pub fn is_empty(&self) -> bool {
        self.per_phase.iter().all(|h| h.count() == 0)
    }

    fn reset(&self) {
        for h in &self.per_phase {
            h.reset();
        }
    }
}

/// Per-phase histograms of one statement type (plain-data snapshot).
#[derive(Debug, Clone)]
pub struct StatementPhaseSnapshot {
    /// Statement name (registry name, or `_other` for untracked statements).
    pub statement: String,
    /// One histogram snapshot per [`Phase`], in [`Phase::ALL`] order.
    pub phases: [HistogramSnapshot; NUM_PHASES],
}

impl StatementPhaseSnapshot {
    /// The snapshot of one phase.
    pub fn phase(&self, phase: Phase) -> &HistogramSnapshot {
        &self.phases[phase.slot()]
    }
}

/// Per-statement-type phase histograms, keyed by registry index.
///
/// Slots are allocated once at engine start from the statement registry, so
/// the hot path is a bounds-checked index — no lock, no hashing. Statements
/// outside the registry range (none today) fall into a shared `_other` slot.
#[derive(Debug, Default)]
pub struct PhaseTable {
    slots: Vec<(String, PhaseHistograms)>,
    other: PhaseHistograms,
}

impl PhaseTable {
    /// A table with one slot per statement name, in registry order.
    pub fn new(statement_names: Vec<String>) -> PhaseTable {
        PhaseTable {
            slots: statement_names
                .into_iter()
                .map(|n| (n, PhaseHistograms::default()))
                .collect(),
            other: PhaseHistograms::default(),
        }
    }

    /// Records one phase observation for the statement at `index`.
    pub fn record(&self, index: usize, phase: Phase, d: Duration) {
        match self.slots.get(index) {
            Some((_, h)) => h.record(phase, d),
            None => self.other.record(phase, d),
        }
    }

    /// Snapshots every statement that has recorded at least one observation.
    pub fn snapshot(&self) -> Vec<StatementPhaseSnapshot> {
        let mut out = Vec::new();
        for (name, hist) in &self.slots {
            if !hist.is_empty() {
                out.push(StatementPhaseSnapshot {
                    statement: name.clone(),
                    phases: hist.snapshot(),
                });
            }
        }
        if !self.other.is_empty() {
            out.push(StatementPhaseSnapshot {
                statement: "_other".to_string(),
                phases: self.other.snapshot(),
            });
        }
        out
    }

    /// Zeroes every histogram.
    pub fn reset(&self) {
        for (_, h) in &self.slots {
            h.reset();
        }
        self.other.reset();
    }
}

// ---------------------------------------------------------------------------
// Engine-level statistics
// ---------------------------------------------------------------------------

/// Engine-level statistics.
#[derive(Debug, Default)]
pub struct EngineStats {
    batches: AtomicU64,
    queries: AtomicU64,
    updates: AtomicU64,
    failed: AtomicU64,
    result_rows: AtomicU64,
    /// End-to-end latency histogram over all statement types (submission to
    /// completion); every latency of the snapshot is read from it.
    histogram: Histogram,
    /// Batch-occupancy histogram: statements per processed batch. The shape
    /// of this distribution *is* the sharing opportunity — a p50 of 1 means
    /// the heartbeat mostly forms singleton batches and shared cycles are
    /// wasted revolutions.
    occupancy: Histogram,
    /// Per-statement-type, per-phase latency histograms.
    phases: PhaseTable,
    /// `[rows examined, rows affected]` per update statement type, by registry
    /// index (the names are the phase table's).
    update_rows: Vec<[AtomicU64; 2]>,
    /// Executor tasks run on the coordinator thread / on a pool thread.
    tasks_run: [AtomicU64; 2],
    /// Notifications sent to parked pool threads.
    worker_wakeups: AtomicU64,
    /// Wakes of the readers of completion queues.
    completion_wakes: AtomicU64,
}

/// Rows one update statement type examined and affected — the write path's
/// useful-work ratio. `examined` far above `affected` means the statement's
/// WHERE clause has no usable index and every execution scans its table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateRowsSnapshot {
    /// Statement name.
    pub statement: String,
    /// Live row versions the WHERE clause was evaluated on.
    pub examined: u64,
    /// Rows modified or deleted (and inserted: an insert examines nothing).
    pub affected: u64,
}

/// What the shared scan of one table did — the read path's useful-work
/// ratio. `emitted` far below `examined` is the normal shape of a selective
/// batch; a large `residual` count says how many queries took the un-shared
/// path (full expression evaluated per row). `skipped ÷ (skipped +
/// examined)` is the share of the table the chunk directory spared the
/// scan; `cycles` says how often the pass ran at all — `index ÷ (index +
/// scan)` is the share of cycles whose queries were served from the table's
/// indexes, which examine what they fetch and skip nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRowsSnapshot {
    /// Scanned table.
    pub table: String,
    /// Visible rows probed against the predicate index, and versions fetched
    /// through posting lists by the cycles served from the indexes.
    pub examined: u64,
    /// Rows that left the operator (selected by at least one query).
    pub emitted: u64,
    /// Versions in the chunks a pass left out because no query of its cycle
    /// could match anything in them.
    pub skipped: u64,
    /// Queries served per predicate class, in the order of
    /// `shareddb_storage::PredicateClass::NAMES`.
    pub queries: [u64; 3],
    /// Cycles (snapshot groups of them) served per path, in the order of
    /// `shareddb_storage::ScanCycleResult::PATHS`.
    pub cycles: [u64; 2],
}

/// Live counters behind a [`ScanRowsSnapshot`], owned by one scan operator:
/// rows examined, emitted and skipped, then the queries of each predicate
/// class, then the cycles of each path.
#[derive(Debug, Default)]
pub struct ScanCounters([AtomicU64; 8]);

impl ScanCounters {
    /// Adds one scan cycle: `rows` are the examined, emitted and skipped.
    pub fn record(&self, rows: [usize; 3], queries: [usize; 3], paths: [usize; 2]) {
        let cycle = rows.into_iter().chain(queries).chain(paths);
        for (total, counted) in self.0.iter().zip(cycle) {
            total.fetch_add(counted as u64, Ordering::Relaxed);
        }
    }

    /// The counts since the last reset.
    pub fn snapshot(&self, table: &str) -> ScanRowsSnapshot {
        let [examined, emitted, skipped, equality, range, residual, scan, index] =
            [0, 1, 2, 3, 4, 5, 6, 7].map(|i| self.0[i].load(Ordering::Relaxed));
        ScanRowsSnapshot {
            table: table.to_string(),
            examined,
            emitted,
            skipped,
            queries: [equality, range, residual],
            cycles: [scan, index],
        }
    }

    /// Zeroes the counters.
    pub fn reset(&self) {
        self.0.iter().for_each(|c| c.store(0, Ordering::Relaxed));
    }
}

/// Point-in-time snapshot of the engine counters.
#[derive(Debug, Clone, Default)]
pub struct EngineStatsSnapshot {
    /// Number of processed batches (heartbeats with work).
    pub batches: u64,
    /// Number of completed queries.
    pub queries: u64,
    /// Number of completed updates.
    pub updates: u64,
    /// Number of failed queries/updates.
    pub failed: u64,
    /// Total result rows delivered.
    pub result_rows: u64,
    /// Mean statement latency (µs resolution, like every latency here: all
    /// are read from `histogram`).
    pub mean_latency: Duration,
    /// Maximum statement latency.
    pub max_latency: Duration,
    /// Median latency upper bound.
    pub p50_latency: Duration,
    /// 95th-percentile latency upper bound.
    pub p95_latency: Duration,
    /// 99th-percentile latency upper bound.
    pub p99_latency: Duration,
    /// The full end-to-end latency histogram the percentiles were read from;
    /// merging these across replicas reproduces the cluster-wide percentiles
    /// exactly instead of approximating them from per-replica numbers.
    pub histogram: HistogramSnapshot,
    /// Statements-per-batch occupancy histogram (recorded in "microsecond"
    /// units: one unit = one statement), merged bucket-wise across replicas
    /// like the latency histograms.
    pub occupancy: HistogramSnapshot,
    /// Executor tasks (operator cycles, one per active node of a batch) the
    /// coordinator ran itself.
    pub tasks_run_by_coordinator: u64,
    /// Executor tasks run on a pool thread.
    pub tasks_run_by_workers: u64,
    /// Notifications the executor sent to parked pool threads. Divided by
    /// `batches`: the cross-thread hand-offs a batch pays for.
    pub worker_wakeups: u64,
    /// Outcomes that found their completion queue empty and woke its reader.
    /// Divided by `queries + updates + failed`: 1 when statements come one
    /// at a time, far below it when the reader is handed batches.
    pub completion_wakes: u64,
    /// Threads that run executor tasks: the coordinator and its pool (a
    /// gauge; summed over the replicas of a cluster).
    pub executor_threads: usize,
}

impl EngineStatsSnapshot {
    /// Sets the mean, the maximum and the percentiles from `histogram` — of
    /// one engine, or merged over replicas.
    pub fn read_latencies(&mut self) {
        let h = &self.histogram;
        let mean_ns = (h.sum_us * 1_000).checked_div(h.count).unwrap_or(0);
        self.mean_latency = Duration::from_nanos(mean_ns);
        self.max_latency = Duration::from_micros(h.max_us);
        self.p50_latency = Duration::from_micros(h.percentile_us(0.50));
        self.p95_latency = Duration::from_micros(h.percentile_us(0.95));
        self.p99_latency = Duration::from_micros(h.percentile_us(0.99));
    }
}

impl EngineStats {
    /// Statistics with one phase-table slot per registered statement.
    pub fn with_statements(statement_names: Vec<String>) -> EngineStats {
        EngineStats {
            update_rows: statement_names.iter().map(|_| Default::default()).collect(),
            phases: PhaseTable::new(statement_names),
            ..EngineStats::default()
        }
    }

    /// Records a batch, as it forms, and its occupancy (statements it
    /// carries).
    pub fn record_batch(&self, statements: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.occupancy
            .record(Duration::from_micros(statements as u64));
    }

    /// Records one executor task, run by the coordinator or by a pool thread.
    pub fn record_task(&self, by_coordinator: bool) {
        self.tasks_run[usize::from(!by_coordinator)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records notifications sent to parked pool threads.
    pub fn record_worker_wakeups(&self, woken: usize) {
        self.worker_wakeups
            .fetch_add(woken as u64, Ordering::Relaxed);
    }

    /// Records one wake of a completion queue's reader.
    pub fn record_completion_wake(&self) {
        self.completion_wakes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed query with its end-to-end latency.
    pub fn record_query(&self, rows: usize, latency: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.result_rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.histogram.record(latency);
    }

    /// Records a completed update with its end-to-end latency.
    pub fn record_update(&self, latency: Duration) {
        self.updates.fetch_add(1, Ordering::Relaxed);
        self.histogram.record(latency);
    }

    /// Records a failed query or update.
    pub fn record_failure(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one phase observation for the statement at `statement_index`.
    pub fn record_phase(&self, statement_index: usize, phase: Phase, d: Duration) {
        self.phases.record(statement_index, phase, d);
    }

    /// Adds one applied update's row counts to its statement type.
    pub fn record_update_rows(&self, statement_index: usize, examined: usize, affected: usize) {
        if let Some([e, a]) = self.update_rows.get(statement_index) {
            e.fetch_add(examined as u64, Ordering::Relaxed);
            a.fetch_add(affected as u64, Ordering::Relaxed);
        }
    }

    /// Row counts of every update statement type that has applied at least
    /// one operation since the last reset.
    pub fn update_rows_snapshot(&self) -> Vec<UpdateRowsSnapshot> {
        let names = self.phases.slots.iter().map(|(name, _)| name);
        names
            .zip(&self.update_rows)
            .map(|(name, [e, a])| UpdateRowsSnapshot {
                statement: name.clone(),
                examined: e.load(Ordering::Relaxed),
                affected: a.load(Ordering::Relaxed),
            })
            .filter(|snap| snap.examined + snap.affected > 0)
            .collect()
    }

    /// Per-statement per-phase histograms (statements with observations only).
    pub fn phase_snapshot(&self) -> Vec<StatementPhaseSnapshot> {
        self.phases.snapshot()
    }

    /// Zeroes every counter and histogram, so multi-phase
    /// bench harnesses can measure without warm-up contamination.
    pub fn reset(&self) {
        self.batches.store(0, Ordering::Relaxed);
        self.queries.store(0, Ordering::Relaxed);
        self.updates.store(0, Ordering::Relaxed);
        self.failed.store(0, Ordering::Relaxed);
        self.result_rows.store(0, Ordering::Relaxed);
        self.histogram.reset();
        self.occupancy.reset();
        self.phases.reset();
        for counter in self.update_rows.iter().flatten() {
            counter.store(0, Ordering::Relaxed);
        }
        let wakes = [&self.worker_wakeups, &self.completion_wakes];
        for counter in self.tasks_run.iter().chain(wakes) {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// Takes a snapshot.
    pub fn snapshot(&self) -> EngineStatsSnapshot {
        let mut snapshot = EngineStatsSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            result_rows: self.result_rows.load(Ordering::Relaxed),
            histogram: self.histogram.snapshot(),
            occupancy: self.occupancy.snapshot(),
            tasks_run_by_coordinator: self.tasks_run[0].load(Ordering::Relaxed),
            tasks_run_by_workers: self.tasks_run[1].load(Ordering::Relaxed),
            worker_wakeups: self.worker_wakeups.load(Ordering::Relaxed),
            completion_wakes: self.completion_wakes.load(Ordering::Relaxed),
            // Not a counter: the engine that owns the executor fills it in.
            executor_threads: 0,
            ..EngineStatsSnapshot::default()
        };
        snapshot.read_latencies();
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_stats_accumulate() {
        let stats = OperatorStats::default();
        stats.record_cycle(true, 10, 3, Duration::from_millis(2));
        stats.record_cycle(false, 0, 0, Duration::from_millis(1));
        let snap = stats.snapshot("HashJoin#3");
        assert_eq!(snap.cycles, 2);
        assert_eq!(snap.active_cycles, 1);
        assert_eq!(snap.tuples_out, 10);
        assert_eq!(snap.rows_pruned, 3);
        assert_eq!(snap.busy, Duration::from_millis(3));
        assert_eq!(snap.name, "HashJoin#3");
        assert_eq!(snap.tuples_per_active_cycle(), 10.0);
        let frac = snap.busy_fraction(Duration::from_millis(6));
        assert!((frac - 0.5).abs() < 1e-9);
        stats.reset();
        assert_eq!(stats.snapshot("HashJoin#3").cycles, 0);
    }

    #[test]
    fn engine_stats_latencies() {
        let stats = EngineStats::default();
        stats.record_query(5, Duration::from_millis(1));
        stats.record_query(5, Duration::from_millis(3));
        stats.record_update(Duration::from_millis(2));
        stats.record_failure();
        stats.record_batch(3);
        let snap = stats.snapshot();
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.occupancy.count, 1);
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.updates, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.result_rows, 10);
        assert_eq!(snap.mean_latency, Duration::from_millis(2));
        assert_eq!(snap.max_latency, Duration::from_millis(3));
        assert!(snap.p99_latency >= Duration::from_millis(3));
        assert!(snap.p50_latency <= snap.p95_latency);
        assert!(snap.p95_latency <= snap.p99_latency);
        assert_eq!(snap.histogram.count, 3);
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 0);
        assert_eq!(snap.histogram.count, 0);
        assert_eq!(snap.p99_latency, Duration::ZERO);
    }

    #[test]
    fn phase_table_records_per_statement_and_phase() {
        let table = PhaseTable::new(vec!["light".into(), "heavy".into()]);
        table.record(0, Phase::Execute, Duration::from_micros(100));
        table.record(0, Phase::Execute, Duration::from_micros(200));
        table.record(1, Phase::BatchWait, Duration::from_millis(5));
        // Out-of-range indexes land in the `_other` slot.
        table.record(99, Phase::Total, Duration::from_micros(1));
        let snap = table.snapshot();
        assert_eq!(snap.len(), 3);
        let light = snap.iter().find(|s| s.statement == "light").unwrap();
        assert_eq!(light.phase(Phase::Execute).count, 2);
        assert_eq!(light.phase(Phase::BatchWait).count, 0);
        let heavy = snap.iter().find(|s| s.statement == "heavy").unwrap();
        assert_eq!(heavy.phase(Phase::BatchWait).count, 1);
        assert!(snap.iter().any(|s| s.statement == "_other"));
        table.reset();
        assert!(table.snapshot().is_empty());
    }

    #[test]
    fn attribution_splits_are_exact() {
        let table = AttributionTable::new(
            vec!["Scan#0".into(), "Join#1".into()],
            vec!["light".into(), "heavy".into()],
        );
        // A batch where Scan#0 serves 3 light + 1 heavy activations; the
        // 1000ns cycle does not divide evenly (750 / 250 does, so use 999).
        table.record_cycle(0, &[3, 1], 10, Duration::from_nanos(999));
        // A cycle with no activations lands in _idle.
        table.record_cycle(1, &[0, 0], 2, Duration::from_nanos(77));
        let snap = table.snapshot();
        let cell = |op: &str, stmt: &str| {
            snap.iter()
                .find(|e| e.operator == op && e.statement == stmt)
                .unwrap()
                .clone()
        };
        let light = cell("Scan#0", "light");
        let heavy = cell("Scan#0", "heavy");
        assert_eq!(light.activations, 3);
        assert_eq!(heavy.activations, 1);
        // Proportional split with the remainder on the last active column:
        // exact sum back to the cycle totals.
        assert_eq!(
            light.busy + heavy.busy,
            Duration::from_nanos(999),
            "attributed busy must sum exactly to the cycle's busy time"
        );
        assert_eq!(light.rows + heavy.rows, 10);
        assert!(light.busy > heavy.busy);
        let idle = cell("Join#1", IDLE_STATEMENT);
        assert_eq!(idle.activations, 0);
        assert_eq!(idle.rows, 2);
        assert_eq!(idle.busy, Duration::from_nanos(77));
        table.reset();
        assert!(table.snapshot().is_empty());
    }

    #[test]
    fn attribution_merge_sums_by_key() {
        let make = |busy: u64| {
            let t = AttributionTable::new(vec!["Scan#0".into()], vec!["light".into()]);
            t.record_cycle(0, &[2], 5, Duration::from_nanos(busy));
            t.snapshot()
        };
        let merged = merge_attribution(&[make(100), make(300)]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].operator, "Scan#0");
        assert_eq!(merged[0].statement, "light");
        assert_eq!(merged[0].activations, 4);
        assert_eq!(merged[0].rows, 10);
        assert_eq!(merged[0].busy, Duration::from_nanos(400));
        // Merging one snapshot is the identity.
        assert_eq!(merge_attribution(&[make(100)]), make(100));
    }

    #[test]
    fn phases_index_their_own_histogram() {
        for phase in Phase::ALL {
            assert_eq!(Phase::ALL[phase.slot()], phase);
            assert!(!phase.name().is_empty());
        }
    }
}
