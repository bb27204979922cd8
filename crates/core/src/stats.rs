//! Engine and operator statistics.
//!
//! SharedDB's value proposition is *predictability*: the engine therefore
//! keeps cheap, always-on counters — one record of every operator cycle (its
//! busy time and rows split by the statement types it served), engine-level
//! batch/query counters, and **phase-tagged latency histograms** that
//! break a statement's life into admission → batch-wait → execute → flush at
//! the network layer. All hot-path recording is lock-free
//! ([`shareddb_common::metrics::Histogram`]); an engine hands all of it out
//! as one [`EngineStatsSnapshot`], which the benchmark harnesses and the
//! server's metrics endpoint read.

use shareddb_common::metrics::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Point-in-time snapshot of one operator's counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperatorStatsSnapshot {
    /// Operator name.
    pub name: String,
    /// Number of cycles: the batches that ran the plan, which every
    /// operator counts, active or not.
    pub cycles: u64,
    /// Number of cycles in which the operator ran (had at least one
    /// activation).
    pub active_cycles: u64,
    /// Total tuples emitted: the sum of the operator's attributed rows.
    pub tuples_out: u64,
    /// Total work row demands let the operator skip
    /// ([`crate::operators::Emitted::pruned`]).
    pub rows_pruned: u64,
    /// Total busy time across cycles: the sum of the operator's attributed
    /// busy time.
    pub busy: Duration,
}

impl OperatorStatsSnapshot {
    /// Fraction of `wall` this operator spent busy (0.0 when `wall` is zero).
    ///
    /// Computed against a caller-supplied wall-clock window (engine uptime,
    /// or time since the last stats reset: [`EngineStatsSnapshot::wall`]) so
    /// the number stays meaningful after a reset.
    pub fn busy_fraction(&self, wall: Duration) -> f64 {
        if wall.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / wall.as_secs_f64()
        }
    }
}

// ---------------------------------------------------------------------------
// Per-operator × per-statement-type cost attribution
// ---------------------------------------------------------------------------

/// A statement name no attribution cell carries: an operator runs only for
/// its activations (see [`AttributionTable::record_cycle`]), so every cycle
/// is booked to the statements it served. Readers that filter the name out
/// still compile.
pub const IDLE_STATEMENT: &str = "_idle";

/// One cell of the attribution matrix (lock-free, updated by the coordinator
/// once per operator that ran, per batch).
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
    /// Statement type name.
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

/// The engine's one record of operator cycles: per operator × per statement
/// type cost attribution, plus what belongs to the operator alone.
///
/// SharedDB executes *one* shared cycle per operator per batch, so a plain
/// per-operator counter cannot say **who** paid for a heavy cycle. This table
/// splits each cycle's busy time and output rows across the batch's
/// *activation mix*: if a `ClockScan` cycle served 3 `getItem` activations
/// and 1 `allItems` activation, `getItem` is attributed 3/4 of the cycle's
/// busy time and `allItems` 1/4. The split is proportional-by-activation
/// (the engine has no per-activation timer inside a shared cycle — that is
/// the whole point of sharing), with the integer-division remainder assigned
/// to the last active statement so per-batch sums are exact, not rounded. An
/// operator's busy time and rows are read back as its row's sums; beside the
/// cells it keeps only its active cycles and pruned rows, and the table one
/// count of the batches that ran the plan — every operator's cycles.
///
/// Storage is a flat `operators × statements` matrix of atomics sized once
/// at engine start — recording is alloc-free and lock-free, same discipline
/// as [`shareddb_common::metrics::Histogram`].
#[derive(Debug, Default)]
pub struct AttributionTable {
    operators: Vec<String>,
    statements: Vec<String>,
    cells: Vec<AttributionCell>,
    /// `[active cycles, rows pruned]` per operator.
    ran: Vec<[AtomicU64; 2]>,
    /// Batches that ran the plan.
    runs: AtomicU64,
}

impl AttributionTable {
    /// A matrix with one row per operator (plan order) and one column per
    /// statement (registry order).
    pub fn new(operators: Vec<String>, statements: Vec<String>) -> AttributionTable {
        let cells = (0..operators.len() * statements.len())
            .map(|_| AttributionCell::default())
            .collect();
        AttributionTable {
            ran: operators.iter().map(|_| Default::default()).collect(),
            operators,
            statements,
            cells,
            runs: AtomicU64::new(0),
        }
    }

    /// Records one batch that ran the plan: a cycle of every operator.
    pub fn record_run(&self) {
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the cycle of one operator that ran: `counts` holds
    /// `(statement index, activations)` pairs in ascending statement order,
    /// at least one and each count nonzero — an operator runs only for its
    /// activations; `tuples`, `pruned` and `busy` are the cycle's.
    ///
    /// Busy time and rows are split proportionally to the activation counts;
    /// the division remainder goes to the last active statement, so the
    /// row-sum invariant (`Σ attributed busy == operator busy`) holds
    /// exactly.
    pub fn record_cycle(
        &self,
        operator: usize,
        counts: &[(usize, u64)],
        tuples: u64,
        pruned: u64,
        busy: Duration,
    ) {
        let [active, rows_pruned] = &self.ran[operator];
        active.fetch_add(1, Ordering::Relaxed);
        rows_pruned.fetch_add(pruned, Ordering::Relaxed);
        debug_assert!(!counts.is_empty(), "a cycle that ran had no activation");
        let base = operator * self.statements.len();
        let total: u64 = counts.iter().map(|(_, count)| count).sum();
        let busy_nanos = busy.as_nanos() as u64;
        let mut given_busy = 0u64;
        let mut given_rows = 0u64;
        for (i, &(statement, count)) in counts.iter().enumerate() {
            let (share_busy, share_rows) = if i + 1 == counts.len() {
                (busy_nanos - given_busy, tuples - given_rows)
            } else {
                let b = (busy_nanos as u128 * count as u128 / total as u128) as u64;
                let r = (tuples as u128 * count as u128 / total as u128) as u64;
                (b, r)
            };
            given_busy += share_busy;
            given_rows += share_rows;
            let cell = &self.cells[base + statement];
            cell.activations.fetch_add(count, Ordering::Relaxed);
            cell.rows.fetch_add(share_rows, Ordering::Relaxed);
            cell.busy_nanos.fetch_add(share_busy, Ordering::Relaxed);
        }
    }

    /// Every operator's counters, in plan order, and every nonzero cell,
    /// operator-major, statement columns in registry order.
    pub fn snapshot(&self) -> (Vec<OperatorStatsSnapshot>, Vec<AttributionEntry>) {
        let cols = self.statements.len();
        let cycles = self.runs.load(Ordering::Relaxed);
        let mut operators = Vec::with_capacity(self.operators.len());
        let mut attribution = Vec::new();
        for (op, (operator, [active, pruned])) in self.operators.iter().zip(&self.ran).enumerate() {
            let mut counters = OperatorStatsSnapshot {
                name: operator.clone(),
                cycles,
                active_cycles: active.load(Ordering::Relaxed),
                rows_pruned: pruned.load(Ordering::Relaxed),
                ..OperatorStatsSnapshot::default()
            };
            for (col, statement) in self.statements.iter().enumerate() {
                let cell = &self.cells[op * cols + col];
                let activations = cell.activations.load(Ordering::Relaxed);
                let rows = cell.rows.load(Ordering::Relaxed);
                let busy = Duration::from_nanos(cell.busy_nanos.load(Ordering::Relaxed));
                if activations == 0 && rows == 0 && busy.is_zero() {
                    continue;
                }
                counters.tuples_out += rows;
                counters.busy += busy;
                attribution.push(AttributionEntry {
                    operator: operator.clone(),
                    statement: statement.clone(),
                    activations,
                    rows,
                    busy,
                });
            }
            operators.push(counters);
        }
        (operators, attribution)
    }

    /// Zeroes every cell and counter.
    pub fn reset(&self) {
        let cells = self.cells.iter();
        let counters = cells.flat_map(|c| [&c.activations, &c.rows, &c.busy_nanos]);
        let counters = counters
            .chain(self.ran.iter().flatten())
            .chain([&self.runs]);
        counters.for_each(|c| c.store(0, Ordering::Relaxed));
    }
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
    /// Admission queue → drained into the next batch.
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
#[derive(Debug, Clone, PartialEq)]
pub struct StatementPhaseSnapshot {
    /// Statement name (registry name).
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
/// the hot path is a bounds-checked index — no lock, no hashing.
#[derive(Debug, Default)]
pub struct PhaseTable {
    slots: Vec<(String, PhaseHistograms)>,
}

impl PhaseTable {
    /// A table with one slot per statement name, in registry order.
    pub fn new(statement_names: Vec<String>) -> PhaseTable {
        PhaseTable {
            slots: statement_names
                .into_iter()
                .map(|n| (n, PhaseHistograms::default()))
                .collect(),
        }
    }

    /// Records one phase observation for the statement at registry `index`.
    pub fn record(&self, index: usize, phase: Phase, d: Duration) {
        self.slots[index].1.record(phase, d);
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
        out
    }

    /// Zeroes every histogram.
    pub fn reset(&self) {
        for (_, h) in &self.slots {
            h.reset();
        }
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
    /// Batch-occupancy histogram: statements per processed batch. The shape
    /// of this distribution *is* the sharing opportunity — a p50 of 1 means
    /// batches are mostly singletons and shared cycles are wasted
    /// revolutions.
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
    /// Cycles served per path, in the order of
    /// `shareddb_storage::ScanCycleResult::PATHS`.
    pub cycles: [u64; 2],
}

/// Live counters behind a [`ScanRowsSnapshot`], owned by one scan operator:
/// rows examined, emitted and skipped, then the queries of each predicate
/// class, then the cycles of each path.
#[derive(Debug, Default)]
pub struct ScanCounters([AtomicU64; 8]);

impl ScanCounters {
    /// Adds one scan cycle: `rows` are the examined, emitted and skipped;
    /// `by_index` says which path served it.
    pub fn record(&self, rows: [usize; 3], queries: [usize; 3], by_index: bool) {
        let paths = [usize::from(!by_index), usize::from(by_index)];
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

/// Point-in-time snapshot of everything an engine records — the one
/// snapshot it hands out ([`crate::Engine::stats`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStatsSnapshot {
    /// Number of processed batches.
    pub batches: u64,
    /// Number of completed queries.
    pub queries: u64,
    /// Number of completed updates.
    pub updates: u64,
    /// Number of failed queries/updates.
    pub failed: u64,
    /// Total result rows delivered.
    pub result_rows: u64,
    /// Statements-per-batch occupancy histogram (recorded in "microsecond"
    /// units: one unit = one statement).
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
    /// gauge).
    pub executor_threads: usize,
    /// Wall-clock length of the statistics window (time since engine start
    /// or the last reset): the denominator of busy fractions.
    pub wall: Duration,
    /// Per-operator counters, in plan order.
    pub operators: Vec<OperatorStatsSnapshot>,
    /// Nonzero attribution cells (operator × statement type): per operator,
    /// they sum to its `busy` and `tuples_out` exactly.
    pub attribution: Vec<AttributionEntry>,
    /// Per-statement-type, per-phase latency histograms (statements with
    /// observations only).
    pub phases: Vec<StatementPhaseSnapshot>,
    /// What every shared scan did, per table.
    pub scans: Vec<ScanRowsSnapshot>,
    /// Rows examined and affected per update statement type (those that
    /// applied at least one operation).
    pub update_rows: Vec<UpdateRowsSnapshot>,
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

    /// Records a completed query.
    pub fn record_query(&self, rows: usize) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.result_rows.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Records a completed update.
    pub fn record_update(&self) {
        self.updates.fetch_add(1, Ordering::Relaxed);
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
    fn update_rows_snapshot(&self) -> Vec<UpdateRowsSnapshot> {
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

    /// Zeroes every counter and histogram, so multi-phase
    /// bench harnesses can measure without warm-up contamination.
    pub fn reset(&self) {
        self.batches.store(0, Ordering::Relaxed);
        self.queries.store(0, Ordering::Relaxed);
        self.updates.store(0, Ordering::Relaxed);
        self.failed.store(0, Ordering::Relaxed);
        self.result_rows.store(0, Ordering::Relaxed);
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

    /// Takes a snapshot of the counters, histograms and update row counts.
    pub fn snapshot(&self) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            result_rows: self.result_rows.load(Ordering::Relaxed),
            occupancy: self.occupancy.snapshot(),
            tasks_run_by_coordinator: self.tasks_run[0].load(Ordering::Relaxed),
            tasks_run_by_workers: self.tasks_run[1].load(Ordering::Relaxed),
            worker_wakeups: self.worker_wakeups.load(Ordering::Relaxed),
            completion_wakes: self.completion_wakes.load(Ordering::Relaxed),
            phases: self.phases.snapshot(),
            update_rows: self.update_rows_snapshot(),
            // What the engine alone knows — its executor, its operators, its
            // scans and its window — the engine fills in.
            ..EngineStatsSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_counters_are_their_cells_sums() {
        let table = AttributionTable::new(vec!["HashJoin#3".into()], vec!["light".into()]);
        table.record_run();
        table.record_cycle(0, &[(0, 1)], 10, 3, Duration::from_millis(2));
        table.record_run();
        let (operators, _) = table.snapshot();
        let snap = &operators[0];
        assert_eq!(snap.cycles, 2);
        assert_eq!(snap.active_cycles, 1);
        assert_eq!(snap.tuples_out, 10);
        assert_eq!(snap.rows_pruned, 3);
        assert_eq!(snap.busy, Duration::from_millis(2));
        assert_eq!(snap.name, "HashJoin#3");
        let frac = snap.busy_fraction(Duration::from_millis(4));
        assert!((frac - 0.5).abs() < 1e-9);
        table.reset();
        assert_eq!(table.snapshot().0[0].cycles, 0);
    }

    #[test]
    fn engine_stats_count_and_reset() {
        let stats = EngineStats::default();
        stats.record_query(5);
        stats.record_query(5);
        stats.record_update();
        stats.record_failure();
        stats.record_batch(3);
        let snap = stats.snapshot();
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.occupancy.count, 1);
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.updates, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.result_rows, 10);
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 0);
        assert_eq!(snap.occupancy.count, 0);
    }

    #[test]
    fn phase_table_records_per_statement_and_phase() {
        let table = PhaseTable::new(vec!["light".into(), "heavy".into()]);
        table.record(0, Phase::Execute, Duration::from_micros(100));
        table.record(0, Phase::Execute, Duration::from_micros(200));
        table.record(1, Phase::BatchWait, Duration::from_millis(5));
        let snap = table.snapshot();
        assert_eq!(snap.len(), 2);
        let light = snap.iter().find(|s| s.statement == "light").unwrap();
        assert_eq!(light.phase(Phase::Execute).count, 2);
        assert_eq!(light.phase(Phase::BatchWait).count, 0);
        let heavy = snap.iter().find(|s| s.statement == "heavy").unwrap();
        assert_eq!(heavy.phase(Phase::BatchWait).count, 1);
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
        table.record_cycle(0, &[(0, 3), (1, 1)], 10, 0, Duration::from_nanos(999));
        let (_, snap) = table.snapshot();
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
        table.reset();
        assert!(table.snapshot().1.is_empty());
    }

    #[test]
    fn phases_index_their_own_histogram() {
        for phase in Phase::ALL {
            assert_eq!(Phase::ALL[phase.slot()], phase);
            assert!(!phase.name().is_empty());
        }
    }
}
