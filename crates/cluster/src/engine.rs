//! The clustered engine: N replicas of the shared-operator runtime behind one
//! submit interface.

use crate::fanout::{FanoutState, MergePool};
use crate::router::{Route, Router};
use crate::ClusterConfig;
use shareddb_common::{Result, Value};
use shareddb_core::demand::push_down;
use shareddb_core::engine::{QueryHandle, QueryOutcome};
use shareddb_core::scatter::{scatter_spec, ScatterSpec};
use shareddb_core::stats::{
    merge_attribution, AttributionEntry, EngineStatsSnapshot, OperatorStatsSnapshot, Phase,
    PhaseTable, ScanRowsSnapshot, SegmentStatsSnapshot, SlowQueryRecord, StatementPhaseSnapshot,
    UpdateRowsSnapshot,
};
use shareddb_core::trace::TraceRecord;
use shareddb_core::{Engine, EngineConfig, GlobalPlan, StatementRegistry, SubmitOptions};
use shareddb_storage::Catalog;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a fanned-out read waits for its session's write fence to
/// resolve before pinning the fanout snapshot anyway (mirrors the engine
/// coordinator's cap — a wedged writer must not hang readers).
const FENCE_WAIT_CAP: Duration = Duration::from_secs(1);

/// N engine replicas over one shared [`Catalog`], fronted by a [`Router`]
/// that dispatches each admitted statement by type (see the crate docs).
pub struct ClusterEngine {
    engines: Vec<Engine>,
    router: Router,
    registry: StatementRegistry,
    plan: GlobalPlan,
    fanout: Vec<Option<ScatterSpec>>,
    catalog: Arc<Catalog>,
    merge_pool: MergePool,
    merge_workers: Vec<JoinHandle<()>>,
    /// Cluster-level phase histograms (scatter + merge of fanned-out
    /// statements), keyed by statement index like the per-engine tables.
    phases: Arc<PhaseTable>,
}

impl ClusterEngine {
    /// Starts `config.replicas` engines over one shared catalog and global
    /// plan. With `replicas == 1` the cluster behaves exactly like a single
    /// [`Engine`] (everything pinned to replica 0, no fanout).
    pub fn start(
        catalog: Arc<Catalog>,
        plan: GlobalPlan,
        mut registry: StatementRegistry,
        engine_config: EngineConfig,
        config: ClusterConfig,
    ) -> Result<ClusterEngine> {
        // What every replica derives for itself, so that `registry()` —
        // EXPLAIN's source — shows the statements as they execute.
        registry.validate(&plan)?;
        push_down(&plan, &mut registry);
        let replicas = config.replicas.max(1);
        let mut engines = Vec::with_capacity(replicas);
        for _ in 0..replicas {
            engines.push(Engine::start(
                Arc::clone(&catalog),
                plan.clone(),
                registry.clone(),
                engine_config.clone(),
            )?);
        }
        let router = Router::new(&registry, &config);
        let fanout = registry
            .iter()
            .map(|spec| scatter_spec(&catalog, &plan, spec))
            .collect();
        let (merge_pool, merge_workers) = MergePool::start(config.merge_threads);
        let phases = Arc::new(PhaseTable::new(
            registry.iter().map(|s| s.name.clone()).collect(),
        ));
        Ok(ClusterEngine {
            engines,
            router,
            registry,
            plan,
            fanout,
            catalog,
            merge_pool,
            merge_workers,
            phases,
        })
    }

    /// The shared catalog.
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog)
    }

    /// The global plan every replica deploys (replicas share one shape).
    pub fn plan(&self) -> &GlobalPlan {
        &self.plan
    }

    /// The statement registry the cluster routes by.
    pub fn registry(&self) -> &StatementRegistry {
        &self.registry
    }

    /// Number of engine replicas.
    pub fn replicas(&self) -> usize {
        self.engines.len()
    }

    /// Submits a statement; the router picks the replica (or fans the query
    /// out over all replicas with partitioned scans).
    pub fn submit(
        &self,
        statement: &str,
        params: &[Value],
        opts: SubmitOptions,
    ) -> Result<ClusterHandle> {
        let (index, spec) = self.registry.get(statement)?;
        self.router.note_submit(index);
        self.router
            .maybe_refresh(|| self.engines.iter().map(|e| e.queued()).collect());
        if !spec.is_update()
            && self.engines.len() > 1
            && matches!(self.router.route(index), Route::Replicated)
        {
            if let Some(fanout) = &self.fanout[index] {
                if params.is_empty() || fanout.scatter_with_params {
                    return self.submit_fanout(statement, index, params, opts, fanout);
                }
            }
        }
        let replica = self.router.pick_replica(index, params);
        let handle = self.engines[replica].submit(statement, params, opts)?;
        Ok(ClusterHandle::Single { replica, handle })
    }

    fn submit_fanout(
        &self,
        statement: &str,
        index: usize,
        params: &[Value],
        opts: SubmitOptions,
        fanout: &ScatterSpec,
    ) -> Result<ClusterHandle> {
        let of = self.engines.len() as u32;
        let scatter_started = Instant::now();
        // Read-your-writes: a fanned-out execution pins one snapshot for
        // every partition, so that snapshot itself must already cover the
        // session's last write — the per-engine fence deferral cannot help a
        // query that brings its own (older) snapshot. The wait is bounded,
        // matching the engine coordinator's fence cap: at the cap the read
        // proceeds on the current snapshot, as an unfenced read would — a
        // wedged writer must not hang the submitting session forever.
        if let Some(fence) = &opts.read_after {
            let _ = fence.wait_resolved(FENCE_WAIT_CAP);
        }
        // One MVCC snapshot per fanned-out execution: every partition reads
        // the same version set, so the merged result is indistinguishable
        // from a single-engine execution at that snapshot even under
        // concurrent writes (and co-partitioning by non-key join columns
        // stays exactly-once: a row version cannot move between partitions
        // within one pinned snapshot).
        let snapshot = self.catalog.snapshot();
        // Bind statement parameters into the merge spec: the deferred HAVING
        // of a grouped merge may carry `?` placeholders.
        let state = FanoutState::new(
            self.engines.len(),
            fanout.merge.bind(params)?,
            fanout.limit,
            opts.completion_waker.clone(),
        );
        state.tag_phases(Arc::clone(&self.phases), index);
        for (part_index, engine) in self.engines.iter().enumerate() {
            let mut part_opts = opts.clone();
            part_opts.scan_partition = Some((part_index as u32, of));
            part_opts.partition_columns = fanout.partition_columns.clone();
            part_opts.pinned_snapshot = Some(snapshot);
            part_opts.partial_aggregation = fanout.partial_aggregation;
            // Partitions wake the cluster, not the caller: the last one
            // dispatches the merge to the worker pool, and the caller's own
            // waker fires once the merged result is posted.
            part_opts.completion_waker = Some(state.partition_waker(&self.merge_pool));
            match engine.submit(statement, params, part_opts) {
                Ok(handle) => state.push_part(handle),
                Err(e) => {
                    // Partial-admission failure: the already-submitted
                    // partitions complete into an abandoned merge job
                    // (harmless discarded work) and the caller sees the
                    // rejection.
                    state.abandon(self.engines.len() - part_index, &self.merge_pool);
                    return Err(e);
                }
            }
        }
        state.arm(&self.merge_pool);
        // Scatter phase: snapshot capture, merge binding and the submission
        // of every partition to its replica.
        self.phases
            .record(index, Phase::Scatter, scatter_started.elapsed());
        Ok(ClusterHandle::Fanout { state })
    }

    /// Submits and returns the handle (default options).
    pub fn execute(&self, statement: &str, params: &[Value]) -> Result<ClusterHandle> {
        self.submit(statement, params, SubmitOptions::default())
    }

    /// Submits and blocks until the (merged) result is available.
    pub fn execute_sync(&self, statement: &str, params: &[Value]) -> Result<QueryOutcome> {
        self.execute(statement, params)?.wait()
    }

    /// Aggregated statistics over all replicas. Latency percentiles are
    /// computed from the **merged** per-replica histograms, so they are the
    /// same numbers a single engine seeing all the traffic would report —
    /// not a max-of-p99s approximation.
    pub fn stats(&self) -> EngineStatsSnapshot {
        let mut total = EngineStatsSnapshot::default();
        let mut weighted_latency_nanos: u128 = 0;
        for stats in self.engines.iter().map(|e| e.stats()) {
            let completed = stats.queries + stats.updates;
            weighted_latency_nanos += stats.mean_latency.as_nanos() * completed as u128;
            total.batches += stats.batches;
            total.queries += stats.queries;
            total.updates += stats.updates;
            total.failed += stats.failed;
            total.result_rows += stats.result_rows;
            total.tasks_run_by_coordinator += stats.tasks_run_by_coordinator;
            total.tasks_run_by_workers += stats.tasks_run_by_workers;
            total.worker_wakeups += stats.worker_wakeups;
            total.executor_threads += stats.executor_threads;
            total.max_latency = total.max_latency.max(stats.max_latency);
            total.histogram.merge_from(&stats.histogram);
            total.occupancy.merge_from(&stats.occupancy);
        }
        let completed = (total.queries + total.updates) as u128;
        if let Some(mean) = weighted_latency_nanos.checked_div(completed) {
            total.mean_latency = std::time::Duration::from_nanos(mean as u64);
        }
        total.p50_latency = Duration::from_micros(total.histogram.percentile_us(0.50));
        total.p95_latency = Duration::from_micros(total.histogram.percentile_us(0.95));
        total.p99_latency = Duration::from_micros(total.histogram.percentile_us(0.99));
        total
    }

    /// Per-replica statistics snapshots, in replica order.
    pub fn replica_stats(&self) -> Vec<EngineStatsSnapshot> {
        self.engines.iter().map(|e| e.stats()).collect()
    }

    /// Per-replica, per-statement, per-phase latency histograms (admission /
    /// batch-wait / execute / total recorded by each engine).
    pub fn replica_phase_stats(&self) -> Vec<Vec<StatementPhaseSnapshot>> {
        self.engines.iter().map(|e| e.phase_snapshot()).collect()
    }

    /// Rows examined and affected per update statement type, summed over
    /// replicas (every replica applies its own batches' writes to the one
    /// shared catalog).
    pub fn update_row_stats(&self) -> Vec<UpdateRowsSnapshot> {
        let mut merged: Vec<UpdateRowsSnapshot> = Vec::new();
        for snap in self.engines.iter().flat_map(|e| e.update_row_stats()) {
            match merged.iter_mut().find(|m| m.statement == snap.statement) {
                Some(total) => {
                    total.examined += snap.examined;
                    total.affected += snap.affected;
                }
                None => merged.push(snap),
            }
        }
        merged
    }

    /// What the shared scans did, per table, summed over replicas (and over
    /// the scan operators of one table, should a plan have several).
    pub fn scan_row_stats(&self) -> Vec<ScanRowsSnapshot> {
        let mut merged: Vec<ScanRowsSnapshot> = Vec::new();
        for snap in self.engines.iter().flat_map(|e| e.scan_row_stats()) {
            match merged.iter_mut().find(|m| m.table == snap.table) {
                Some(total) => {
                    total.examined += snap.examined;
                    total.emitted += snap.emitted;
                    total.skipped += snap.skipped;
                    let sums = total.queries.iter_mut().chain(&mut total.cycles);
                    for (sum, served) in sums.zip(snap.queries.into_iter().chain(snap.cycles)) {
                        *sum += served;
                    }
                }
                None => merged.push(snap),
            }
        }
        merged
    }

    /// Cluster-level phase histograms (scatter + merge of fanned-out
    /// statements).
    pub fn cluster_phase_stats(&self) -> Vec<StatementPhaseSnapshot> {
        self.phases.snapshot()
    }

    /// Per-replica operator statistics with the wall-clock length of each
    /// replica's statistics window (the busy-fraction denominator).
    pub fn replica_operator_stats(&self) -> Vec<(Duration, Vec<OperatorStatsSnapshot>)> {
        self.engines
            .iter()
            .map(|e| (e.stats_wall(), e.operator_stats()))
            .collect()
    }

    /// Per-replica segment-lane statistics (`EngineConfig::scan_segments`):
    /// empty inner vectors when segment parallelism is off. Cluster fanout
    /// and segment parallelism compose — a fanned-out partition may itself
    /// run segmented — so segment skew is reported per replica.
    pub fn replica_segment_stats(&self) -> Vec<(Duration, Vec<SegmentStatsSnapshot>)> {
        self.engines
            .iter()
            .map(|e| (e.stats_wall(), e.segment_stats()))
            .collect()
    }

    /// Slow-query offenders summed over replicas: total count plus the
    /// retained records, each stamped with the replica that executed it
    /// (replica order preserved within the concatenation).
    pub fn slow_queries(&self) -> (u64, Vec<SlowQueryRecord>) {
        let mut total = 0;
        let mut records = Vec::new();
        for (replica, engine) in self.engines.iter().enumerate() {
            let (count, tail) = engine.slow_queries();
            total += count;
            records.extend(tail.into_iter().map(|mut record| {
                record.replica = replica;
                record
            }));
        }
        (total, records)
    }

    /// Per-replica per-operator × per-statement-type cost attribution
    /// snapshots, in replica order.
    pub fn replica_attribution_stats(&self) -> Vec<Vec<AttributionEntry>> {
        self.engines.iter().map(|e| e.attribution_stats()).collect()
    }

    /// Cluster-wide cost attribution: per-replica tables summed by
    /// `(operator, statement)` key. Because every replica deploys the same
    /// plan, the merged table reads exactly like a single engine that saw
    /// all the traffic.
    pub fn attribution_stats(&self) -> Vec<AttributionEntry> {
        merge_attribution(&self.replica_attribution_stats())
    }

    /// The batch-lifecycle trace journal of one replica, oldest first.
    pub fn replica_trace(&self, replica: usize) -> Vec<TraceRecord> {
        self.engines
            .get(replica)
            .map(|e| e.trace())
            .unwrap_or_default()
    }

    /// Zeroes every replica's statistics (counters, histograms, slow-query
    /// logs, operator counters) and the cluster-level scatter/merge
    /// histograms. Bench harnesses call this after warm-up.
    pub fn reset_stats(&self) {
        for engine in &self.engines {
            engine.reset_stats();
        }
        self.phases.reset();
    }

    /// Statements queued but not yet batched, summed over replicas.
    pub fn queued(&self) -> usize {
        self.engines.iter().map(|e| e.queued()).sum()
    }

    /// Per-replica admission-queue depths.
    pub fn queued_per_replica(&self) -> Vec<usize> {
        self.engines.iter().map(|e| e.queued()).collect()
    }

    /// Per-replica admission-lane depths, `(light, heavy)` per replica.
    pub fn lane_depths_per_replica(&self) -> Vec<(usize, usize)> {
        self.engines.iter().map(|e| e.lane_depths()).collect()
    }

    /// Per-replica heartbeat interval currently in effect (equals the
    /// configured interval under a fixed policy; moves within `[min, max]`
    /// under an adaptive one).
    pub fn replica_heartbeats(&self) -> Vec<Duration> {
        self.engines
            .iter()
            .map(|e| e.heartbeat_interval())
            .collect()
    }

    /// Per-replica count of adaptive heartbeat adjustments (0 under a fixed
    /// policy).
    pub fn replica_heartbeat_adjustments(&self) -> Vec<u64> {
        self.engines
            .iter()
            .map(|e| e.heartbeat_adjustments())
            .collect()
    }

    /// Current route per statement type (name, route).
    pub fn routes(&self) -> Vec<(String, Route)> {
        self.registry
            .iter()
            .map(|s| s.name.clone())
            .zip(self.router.routes())
            .collect()
    }

    /// Stops every replica, then drains and joins the merge workers.
    pub fn shutdown(&mut self) {
        // Engines first: their shutdown fails in-flight work and fires the
        // partition wakers, so every outstanding fanout dispatches its merge
        // job before the pool closes.
        for engine in &mut self.engines {
            engine.shutdown();
        }
        self.merge_pool.shutdown();
        for worker in self.merge_workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ClusterEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// Handle to a statement submitted to the cluster. Like
/// [`shareddb_core::engine::QueryHandle`] it supports blocking
/// ([`ClusterHandle::wait`]) and event-driven polling
/// ([`ClusterHandle::try_wait`], paired with
/// [`SubmitOptions::completion_waker`]). For fanned-out executions the
/// caller's waker fires exactly **once**, after the merge worker posted the
/// recombined result — polling never runs the merge on the caller's thread.
pub enum ClusterHandle {
    /// The statement runs wholly on one replica.
    Single {
        /// Executing replica.
        replica: usize,
        /// The replica's handle.
        handle: QueryHandle,
    },
    /// The statement was scattered over all replicas with partitioned scans;
    /// the shared state tracks the partitions and receives the merged
    /// outcome from the merge pool.
    Fanout {
        /// Shared state of the fanned-out execution.
        state: Arc<FanoutState>,
    },
}

impl ClusterHandle {
    /// The executing replica for single-replica submissions (fanned-out
    /// executions run everywhere).
    pub fn replica(&self) -> Option<usize> {
        match self {
            ClusterHandle::Single { replica, .. } => Some(*replica),
            ClusterHandle::Fanout { .. } => None,
        }
    }

    /// Blocks until the (merged) outcome is available.
    pub fn wait(self) -> Result<QueryOutcome> {
        match self {
            ClusterHandle::Single { handle, .. } => handle.wait(),
            ClusterHandle::Fanout { state } => state.wait(),
        }
    }

    /// Non-blocking poll: `None` while any partition is in flight or the
    /// merge has not been posted yet, `Some(outcome)` exactly once when the
    /// merged result is ready.
    pub fn try_wait(&mut self) -> Option<Result<QueryOutcome>> {
        match self {
            ClusterHandle::Single { handle, .. } => handle.try_wait(),
            ClusterHandle::Fanout { state } => state.try_take(),
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::agg::AggregateFunction;
    use shareddb_common::tuple;
    use shareddb_common::DataType;
    use shareddb_common::Error;
    use shareddb_core::plan::ActivationTemplate;
    use shareddb_sql::compile_workload;
    use shareddb_storage::TableDef;
    use std::time::Duration;

    fn catalog() -> Arc<Catalog> {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("ITEM")
                    .column("I_ID", DataType::Int)
                    .column("I_SUBJECT", DataType::Text)
                    .column("I_COST", DataType::Float)
                    .primary_key(&["I_ID"]),
            )
            .unwrap();
        catalog
            .bulk_load(
                "ITEM",
                (0..200i64)
                    .map(|i| {
                        tuple![
                            i,
                            if i % 4 == 0 { "HISTORY" } else { "FICTION" },
                            (i % 50) as f64
                        ]
                    })
                    .collect(),
            )
            .unwrap();
        Arc::new(catalog)
    }

    const WORKLOAD: &[(&str, &str)] = &[
        ("getItem", "SELECT * FROM ITEM WHERE I_ID = ?"),
        ("allItems", "SELECT * FROM ITEM ORDER BY I_ID"),
        (
            "costBySubject",
            "SELECT I_SUBJECT, SUM(I_COST), COUNT(*), MIN(I_COST), MAX(I_COST) \
             FROM ITEM GROUP BY I_SUBJECT",
        ),
        ("addItem", "INSERT INTO ITEM VALUES (?, ?, ?)"),
    ];

    fn start(replicas: usize, config: ClusterConfig) -> ClusterEngine {
        let catalog = catalog();
        let (plan, registry) = compile_workload(&catalog, WORKLOAD).unwrap();
        ClusterEngine::start(
            catalog,
            plan,
            registry,
            EngineConfig::default(),
            ClusterConfig { replicas, ..config },
        )
        .unwrap()
    }

    #[test]
    fn single_replica_behaves_like_one_engine() {
        let cluster = start(1, ClusterConfig::default());
        assert_eq!(cluster.replicas(), 1);
        let outcome = cluster.execute_sync("getItem", &[Value::Int(7)]).unwrap();
        assert_eq!(outcome.rows().len(), 1);
        assert_eq!(outcome.rows()[0][0], Value::Int(7));
        for (_, route) in cluster.routes() {
            assert_eq!(route, Route::Pinned(0));
        }
    }

    #[test]
    fn cold_types_pin_to_one_replica() {
        let cluster = start(4, ClusterConfig::default());
        for i in 0..20 {
            let outcome = cluster.execute_sync("getItem", &[Value::Int(i)]).unwrap();
            assert_eq!(outcome.rows().len(), 1);
        }
        let active: Vec<usize> = cluster
            .replica_stats()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.queries > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(active.len(), 1, "cold type ran on replicas {active:?}");
    }

    #[test]
    fn replicated_type_spreads_by_parameter_hash() {
        let config = ClusterConfig {
            replicate_statements: vec!["getItem".into()],
            ..ClusterConfig::default()
        };
        let cluster = start(4, config);
        // Same key → same replica (twice); across keys the load spreads.
        let h1 = cluster.execute("getItem", &[Value::Int(1)]).unwrap();
        let h2 = cluster.execute("getItem", &[Value::Int(1)]).unwrap();
        assert_eq!(h1.replica(), h2.replica());
        h1.wait().unwrap();
        h2.wait().unwrap();
        for i in 0..64 {
            let outcome = cluster.execute_sync("getItem", &[Value::Int(i)]).unwrap();
            assert_eq!(outcome.rows().len(), 1, "item {i}");
        }
        let active = cluster
            .replica_stats()
            .iter()
            .filter(|s| s.queries > 0)
            .count();
        assert!(active > 1, "hot type never left one replica");
    }

    #[test]
    fn updates_pin_to_the_write_replica_and_are_visible_everywhere() {
        let cluster = start(3, ClusterConfig::default());
        // getItem (query type 0) homes on replica 0, allItems on replica 1 —
        // read the insert back through a statement pinned elsewhere.
        let outcome = cluster
            .execute_sync(
                "addItem",
                &[Value::Int(9_000), Value::text("HISTORY"), Value::Float(1.0)],
            )
            .unwrap();
        assert_eq!(outcome.rows_affected(), 1);
        let all = cluster.execute_sync("allItems", &[]).unwrap();
        assert_eq!(all.rows().len(), 201);
        // Updates stay on replica 0 regardless of load.
        assert_eq!(cluster.replica_stats()[0].updates, 1);
        assert!(cluster.replica_stats()[1..].iter().all(|s| s.updates == 0));
    }

    /// The merge step: a parameterless ordered statement on a hot route
    /// scatters over all replicas with disjoint scan partitions and the
    /// ordered merge reassembles the exact single-engine result.
    #[test]
    fn fanout_ordered_merge_matches_single_engine() {
        let config = ClusterConfig {
            replicate_statements: vec!["allItems".into()],
            ..ClusterConfig::default()
        };
        let cluster = start(4, config);
        let outcome = cluster.execute_sync("allItems", &[]).unwrap();
        let rows = outcome.rows();
        assert_eq!(rows.len(), 200);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], Value::Int(i as i64), "order broken at {i}");
        }
        // Every replica executed its partition.
        assert!(
            cluster.replica_stats().iter().all(|s| s.queries == 1),
            "scatter did not reach all replicas: {:?}",
            cluster.replica_stats()
        );
    }

    #[test]
    fn fanout_grouped_merge_recombines_partial_aggregates() {
        let config = ClusterConfig {
            replicate_statements: vec!["costBySubject".into()],
            ..ClusterConfig::default()
        };
        let cluster = start(4, config);
        let outcome = cluster.execute_sync("costBySubject", &[]).unwrap();
        let rows = outcome.rows();
        assert_eq!(rows.len(), 2);
        let history = rows
            .iter()
            .find(|r| r[0] == Value::text("HISTORY"))
            .unwrap();
        // 50 HISTORY items, ids 0,4,..,196; costs id % 50.
        let expected_sum: f64 = (0..200i64)
            .filter(|i| i % 4 == 0)
            .map(|i| (i % 50) as f64)
            .sum();
        assert_eq!(history[1], Value::Float(expected_sum));
        assert_eq!(history[2], Value::Int(50));
        assert_eq!(history[3], Value::Float(0.0));
        assert_eq!(history[4], Value::Float(48.0));
    }

    /// Observability satellite: under concurrent fanout the cluster-level
    /// latency histogram must be the exact bucket-wise sum of the per-replica
    /// histograms (lossless merge), its percentiles must be monotone, and
    /// the scatter/merge phase histograms must have seen every fanout.
    #[test]
    fn fanout_histograms_merge_losslessly() {
        let config = ClusterConfig {
            replicate_statements: vec!["allItems".into()],
            ..ClusterConfig::default()
        };
        let cluster = start(4, config);
        const FANOUTS: usize = 16;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..FANOUTS / 4 {
                        let outcome = cluster.execute_sync("allItems", &[]).unwrap();
                        assert_eq!(outcome.rows().len(), 200);
                    }
                });
            }
        });

        let total = cluster.stats();
        let replicas = cluster.replica_stats();
        // Each fanout scattered one partition per replica.
        assert_eq!(total.queries, (FANOUTS * cluster.replicas()) as u64);
        // Lossless merge: bucket-wise the cluster histogram is the sum of
        // the replica histograms, as if one engine had seen all the traffic.
        let mut merged = shareddb_common::metrics::HistogramSnapshot::default();
        for replica in &replicas {
            merged.merge_from(&replica.histogram);
        }
        assert_eq!(total.histogram.counts, merged.counts);
        assert_eq!(total.histogram.count, merged.count);
        assert_eq!(total.histogram.sum_us, merged.sum_us);
        assert_eq!(total.histogram.max_us, merged.max_us);
        // Percentiles monotone and bounded by the exact max.
        let p50 = total.histogram.percentile_us(0.50);
        let p95 = total.histogram.percentile_us(0.95);
        let p99 = total.histogram.percentile_us(0.99);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= total.histogram.max_us);
        assert_eq!(total.p99_latency.as_micros() as u64, p99);

        // The cluster phase table saw every scatter and every merge.
        let phases = cluster.cluster_phase_stats();
        let all_items = phases.iter().find(|s| s.statement == "allItems").unwrap();
        assert_eq!(all_items.phase(Phase::Scatter).count, FANOUTS as u64);
        assert_eq!(all_items.phase(Phase::Merge).count, FANOUTS as u64);
        // Each replica recorded execute/total phases for its partitions.
        for replica in cluster.replica_phase_stats() {
            let snap = replica.iter().find(|s| s.statement == "allItems").unwrap();
            assert_eq!(snap.phase(Phase::Execute).count, FANOUTS as u64);
            assert_eq!(snap.phase(Phase::Total).count, FANOUTS as u64);
        }

        // reset_stats zeroes replicas and the cluster phase table.
        cluster.reset_stats();
        assert_eq!(cluster.stats().queries, 0);
        assert!(cluster.stats().histogram.is_empty());
        assert!(cluster.cluster_phase_stats().is_empty());
    }

    /// Dynamic promotion: a statement type whose submission rate crosses the
    /// threshold is promoted to replicated routing by the stats-driven
    /// refresh, without any static configuration.
    #[test]
    fn hot_types_are_promoted_from_engine_stats() {
        let config = ClusterConfig {
            hot_rate_per_s: 50.0,
            refresh_interval: Duration::from_millis(10),
            ..ClusterConfig::default()
        };
        let cluster = start(2, config);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut promoted = false;
        while std::time::Instant::now() < deadline {
            for i in 0..64 {
                cluster.execute_sync("getItem", &[Value::Int(i)]).unwrap();
            }
            if cluster
                .routes()
                .iter()
                .any(|(name, route)| name == "getItem" && *route == Route::Replicated)
            {
                promoted = true;
                break;
            }
        }
        assert!(
            promoted,
            "hot type was never promoted: {:?}",
            cluster.routes()
        );
        // Updates are never promoted, whatever their rate looks like.
        assert!(cluster
            .routes()
            .iter()
            .any(|(name, route)| name == "addItem" && *route == Route::Pinned(0)));
    }

    // -- join fanout -------------------------------------------------------

    use shareddb_common::{Expr, SortKey};
    use shareddb_core::plan::{PlanBuilder, StatementSpec as Spec};

    /// ITEM ⨝ ORDER_LINE catalog (the `getBestSellers` shape): ITEM's pk is
    /// the join key, ORDER_LINE joins on a non-key column.
    fn join_catalog() -> Arc<Catalog> {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("ITEM")
                    .column("I_ID", DataType::Int)
                    .column("I_SUBJECT", DataType::Text)
                    .column("I_COST", DataType::Float)
                    .primary_key(&["I_ID"]),
            )
            .unwrap();
        catalog
            .create_table(
                TableDef::new("ORDER_LINE")
                    .column("OL_ID", DataType::Int)
                    .column("OL_I_ID", DataType::Int)
                    .column("OL_QTY", DataType::Int)
                    .column("OL_WEIGHT", DataType::Float)
                    .primary_key(&["OL_ID"]),
            )
            .unwrap();
        catalog
            .bulk_load(
                "ITEM",
                (0..40i64)
                    .map(|i| tuple![i, format!("S{}", i % 3), (i % 7) as f64])
                    .collect(),
            )
            .unwrap();
        catalog
            .bulk_load(
                "ORDER_LINE",
                (0..200i64)
                    .map(|ol| tuple![ol, (ol * 13) % 40, 1 + ol % 5, ((ol * 13) % 40) as f64])
                    .collect(),
            )
            .unwrap();
        Arc::new(catalog)
    }

    /// Builds the bestsellers-style plan: two scans, a hash equi-join on the
    /// ITEM pk, a group-by whose key contains the join key, a Top-N root;
    /// plus a plain join root, an AVG group-by root and a non-key join.
    fn join_cluster(replicas: usize, replicate: &[&str]) -> ClusterEngine {
        let catalog = join_catalog();
        let mut b = PlanBuilder::new(&catalog);
        let item_scan = b.table_scan("ITEM").unwrap();
        let ol_scan = b.table_scan("ORDER_LINE").unwrap();
        let join = b
            .hash_join(item_scan, ol_scan, "ITEM.I_ID", "ORDER_LINE.OL_I_ID")
            .unwrap();
        let group = b
            .group_by(
                join,
                vec!["ITEM.I_ID", "ITEM.I_SUBJECT"],
                vec![(AggregateFunction::Sum, "ORDER_LINE.OL_QTY", "TOTAL")],
            )
            .unwrap();
        let topn = b
            .top_n(group, vec![SortKey::desc(2), SortKey::asc(0)])
            .unwrap();
        let avg_group = b
            .group_by(
                item_scan,
                vec!["ITEM.I_SUBJECT"],
                vec![
                    (AggregateFunction::Avg, "ITEM.I_COST", "AVG_COST"),
                    (AggregateFunction::Count, "ITEM.I_ID", "CNT"),
                ],
            )
            .unwrap();
        // Non-key equi-join: neither side joins on its primary key.
        let nonkey_join = b
            .hash_join(item_scan, ol_scan, "ITEM.I_COST", "ORDER_LINE.OL_QTY")
            .unwrap();
        // Cross-type equi-join: keyed on the ITEM pk, but Int joins Float —
        // join equality is numeric-normalizing while the partition hash is
        // type-tagged, so this shape must never scatter.
        let crosstype_join = b
            .hash_join(item_scan, ol_scan, "ITEM.I_ID", "ORDER_LINE.OL_WEIGHT")
            .unwrap();
        let plan = b.build();

        let mut registry = StatementRegistry::new();
        registry
            .register(
                Spec::query("bestsellers", topn)
                    .activate(
                        item_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(
                        ol_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::col(0).gt_eq(Expr::param(0)),
                        },
                    )
                    .activate(join, ActivationTemplate::Participate)
                    .activate(group, ActivationTemplate::Having { predicate: None })
                    .activate(topn, ActivationTemplate::TopN { limit: 10 }),
            )
            .unwrap();
        // Same shape with a HAVING under the Top-N: the grouping key contains
        // the join (= partition) key, so every group is complete within its
        // partition and the HAVING filters locally on final values.
        registry
            .register(
                Spec::query("bestsellersHaving", topn)
                    .activate(
                        item_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(
                        ol_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::col(0).gt_eq(Expr::param(0)),
                        },
                    )
                    .activate(join, ActivationTemplate::Participate)
                    .activate(
                        group,
                        ActivationTemplate::Having {
                            predicate: Some(Expr::col(2).gt(Expr::param(1))),
                        },
                    )
                    .activate(topn, ActivationTemplate::TopN { limit: 10 }),
            )
            .unwrap();
        registry
            .register(
                Spec::query("joinAll", join)
                    .activate(
                        item_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(
                        ol_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(join, ActivationTemplate::Participate),
            )
            .unwrap();
        registry
            .register(
                Spec::query("avgCost", avg_group)
                    .activate(
                        item_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(avg_group, ActivationTemplate::Having { predicate: None }),
            )
            .unwrap();
        registry
            .register(
                Spec::query("nonKeyJoin", nonkey_join)
                    .activate(
                        item_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(
                        ol_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(nonkey_join, ActivationTemplate::Participate),
            )
            .unwrap();
        registry
            .register(
                Spec::query("crossTypeJoin", crosstype_join)
                    .activate(
                        item_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(
                        ol_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(crosstype_join, ActivationTemplate::Participate),
            )
            .unwrap();
        ClusterEngine::start(
            catalog,
            plan,
            registry,
            EngineConfig::default(),
            ClusterConfig {
                replicas,
                replicate_statements: replicate.iter().map(|s| s.to_string()).collect(),
                ..ClusterConfig::default()
            },
        )
        .unwrap()
    }

    fn sorted_rows(outcome: &QueryOutcome) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> =
            outcome.rows().iter().map(|r| r.values().to_vec()).collect();
        rows.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        rows
    }

    /// The tentpole shape: a parameterised equi-join on the partitioning key
    /// (ITEM pk ⨝ ORDER_LINE.OL_I_ID) with group-by and Top-N scatters over
    /// all replicas and merges to exactly the single-replica result.
    #[test]
    fn join_fanout_matches_single_replica() {
        let single = join_cluster(1, &[]);
        let fanned = join_cluster(4, &["bestsellers", "joinAll"]);
        let params = [Value::Int(20)];
        let expect = single.execute_sync("bestsellers", &params).unwrap();
        let got = fanned.execute_sync("bestsellers", &params).unwrap();
        assert_eq!(
            expect.rows(),
            got.rows(),
            "fanned-out join result diverged from single engine"
        );
        assert!(!got.rows().is_empty());
        // The scatter really used every replica.
        assert!(
            fanned.replica_stats().iter().all(|s| s.queries >= 1),
            "join fanout did not reach all replicas: {:?}",
            fanned.replica_stats()
        );
        // A join root without blocking operators concat-merges completely.
        let expect = sorted_rows(&single.execute_sync("joinAll", &[]).unwrap());
        let got = sorted_rows(&fanned.execute_sync("joinAll", &[]).unwrap());
        assert_eq!(expect.len(), 200);
        assert_eq!(expect, got, "concat join merge lost or duplicated rows");
    }

    /// HAVING below a Top-N root (the real `getBestSellers` shape): groups
    /// are partition-complete, the HAVING filters locally, and the fanned
    /// result matches the single engine exactly.
    #[test]
    fn having_under_topn_fanout_matches_single_replica() {
        let single = join_cluster(1, &[]);
        let fanned = join_cluster(4, &["bestsellersHaving"]);
        let params = [Value::Int(0), Value::Int(20)];
        let expect = single.execute_sync("bestsellersHaving", &params).unwrap();
        let got = fanned.execute_sync("bestsellersHaving", &params).unwrap();
        assert!(!expect.rows().is_empty(), "threshold filtered everything");
        assert!(expect.rows().len() < 10, "threshold filtered nothing");
        assert_eq!(expect.rows(), got.rows());
        assert!(
            fanned.replica_stats().iter().all(|s| s.queries >= 1),
            "HAVING-under-TopN did not scatter: {:?}",
            fanned.replica_stats()
        );
    }

    /// AVG fanout: partial (sum, count) shipping recombines to the exact
    /// single-engine average.
    #[test]
    fn avg_fanout_recombines_exactly() {
        let single = join_cluster(1, &[]);
        let fanned = join_cluster(4, &["avgCost"]);
        let expect = single.execute_sync("avgCost", &[]).unwrap();
        let got = fanned.execute_sync("avgCost", &[]).unwrap();
        assert_eq!(got.rows().len(), 3);
        let find = |o: &QueryOutcome, key: &Value| {
            o.rows()
                .iter()
                .find(|r| &r[0] == key)
                .map(|r| r.values().to_vec())
                .unwrap()
        };
        for row in expect.rows() {
            assert_eq!(
                find(&got, &row[0]),
                row.values().to_vec(),
                "AVG diverged for group {:?}",
                row[0]
            );
        }
        assert!(
            fanned.replica_stats().iter().all(|s| s.queries >= 1),
            "AVG fanout did not scatter: {:?}",
            fanned.replica_stats()
        );
    }

    /// A cross-type equi-join (Int pk = Float column) must NOT fan out even
    /// though it is keyed on a primary key: `Int(5)` joins `Float(5.0)` under
    /// SQL equality, but the type-tagged partition hash would send the two
    /// rows to different partitions and silently drop the match. The result
    /// must equal the single-replica execution AND run whole on one replica.
    #[test]
    fn cross_type_join_stays_whole_and_exact() {
        let single = join_cluster(1, &[]);
        let cluster = join_cluster(4, &["crossTypeJoin"]);
        let expect = sorted_rows(&single.execute_sync("crossTypeJoin", &[]).unwrap());
        let got = sorted_rows(&cluster.execute_sync("crossTypeJoin", &[]).unwrap());
        assert!(!expect.is_empty(), "cross-type join matched nothing");
        assert_eq!(expect, got, "cross-type join lost matches");
        let active = cluster
            .replica_stats()
            .iter()
            .filter(|s| s.queries > 0)
            .count();
        assert_eq!(
            active,
            1,
            "cross-type join was scattered: {:?}",
            cluster.replica_stats()
        );
    }

    /// A join keyed on neither side's primary key must NOT fan out: it runs
    /// whole on one replica (round-robin of the replicated route).
    #[test]
    fn non_key_join_stays_whole() {
        let cluster = join_cluster(4, &["nonKeyJoin"]);
        cluster.execute_sync("nonKeyJoin", &[]).unwrap();
        let active = cluster
            .replica_stats()
            .iter()
            .filter(|s| s.queries > 0)
            .count();
        assert_eq!(
            active,
            1,
            "non-key join was scattered: {:?}",
            cluster.replica_stats()
        );
    }

    // -- multi-join chains & HAVING fanout (SQL-compiled) -------------------

    /// ITEM / ORDER_LINE / STOCK catalog: both ITEM and STOCK key their pk
    /// on the chain's join class; ORDER_LINE joins on a non-key column.
    fn chain_catalog() -> Arc<Catalog> {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("ITEM")
                    .column("I_ID", DataType::Int)
                    .column("I_SUBJECT", DataType::Text)
                    .column("I_COST", DataType::Float)
                    .primary_key(&["I_ID"]),
            )
            .unwrap();
        catalog
            .create_table(
                TableDef::new("ORDER_LINE")
                    .column("OL_ID", DataType::Int)
                    .column("OL_I_ID", DataType::Int)
                    .column("OL_QTY", DataType::Int)
                    .primary_key(&["OL_ID"]),
            )
            .unwrap();
        catalog
            .create_table(
                TableDef::new("STOCK")
                    .column("ST_I_ID", DataType::Int)
                    .column("ST_QTY", DataType::Int)
                    .primary_key(&["ST_I_ID"]),
            )
            .unwrap();
        catalog
            .bulk_load(
                "ITEM",
                (0..40i64)
                    .map(|i| tuple![i, format!("S{}", i % 3), (i % 7) as f64])
                    .collect(),
            )
            .unwrap();
        catalog
            .bulk_load(
                "ORDER_LINE",
                (0..200i64)
                    .map(|ol| tuple![ol, (ol * 13) % 40, 1 + ol % 5])
                    .collect(),
            )
            .unwrap();
        catalog
            .bulk_load(
                "STOCK",
                (0..40i64).map(|i| tuple![i, (i * 3) % 11]).collect(),
            )
            .unwrap();
        Arc::new(catalog)
    }

    const CHAIN_WORKLOAD: &[(&str, &str)] = &[
        // Two-join chain, every join keyed on the I_ID equivalence class
        // (ITEM pk and STOCK pk are both members) → co-partitionable.
        (
            "chainAll",
            "SELECT * FROM ITEM I, ORDER_LINE OL, STOCK S \
             WHERE I.I_ID = OL.OL_I_ID AND I.I_ID = S.ST_I_ID",
        ),
        // The second join leaves the partition-key class (OL_QTY is not in
        // it) → must stay pinned whole.
        (
            "offClassChain",
            "SELECT * FROM ITEM I, ORDER_LINE OL, STOCK S \
             WHERE I.I_ID = OL.OL_I_ID AND OL.OL_QTY = S.ST_QTY",
        ),
        // Group-by root with HAVING: groups span partitions, so HAVING is
        // deferred to the merge (partial mode).
        (
            "bigSubjects",
            "SELECT I_SUBJECT, SUM(I_COST) FROM ITEM GROUP BY I_SUBJECT \
             HAVING SUM(I_COST) > ?",
        ),
        // SQL-compiled AVG fanout: the compiler emits an *identity*
        // projection, which must not strip the hidden AVG count columns the
        // partial rows ship to the merge.
        (
            "avgBySubject",
            "SELECT I_SUBJECT, AVG(I_COST) FROM ITEM GROUP BY I_SUBJECT",
        ),
        (
            "avgHaving",
            "SELECT I_SUBJECT, AVG(I_COST) FROM ITEM GROUP BY I_SUBJECT \
             HAVING AVG(I_COST) > ?",
        ),
    ];

    fn chain_cluster(replicas: usize, replicate: &[&str]) -> ClusterEngine {
        let catalog = chain_catalog();
        let (plan, registry) = compile_workload(&catalog, CHAIN_WORKLOAD).unwrap();
        ClusterEngine::start(
            catalog,
            plan,
            registry,
            EngineConfig::default(),
            ClusterConfig {
                replicas,
                replicate_statements: replicate.iter().map(|s| s.to_string()).collect(),
                ..ClusterConfig::default()
            },
        )
        .unwrap()
    }

    /// A two-join chain keyed on the partition-key class end to end scatters
    /// over all replicas and concat-merges to exactly the single-engine
    /// result.
    #[test]
    fn multi_join_chain_fanout_matches_single_replica() {
        let single = chain_cluster(1, &[]);
        let fanned = chain_cluster(4, &["chainAll"]);
        let expect = sorted_rows(&single.execute_sync("chainAll", &[]).unwrap());
        let got = sorted_rows(&fanned.execute_sync("chainAll", &[]).unwrap());
        assert_eq!(expect.len(), 200); // every ORDER_LINE matches one item + stock
        assert_eq!(expect, got, "chain fanout lost or duplicated rows");
        assert!(
            fanned.replica_stats().iter().all(|s| s.queries >= 1),
            "chain fanout did not reach all replicas: {:?}",
            fanned.replica_stats()
        );
    }

    /// A chain whose second join leaves the partition-key class must not
    /// scatter: co-location would break at the second join.
    #[test]
    fn off_class_chain_stays_whole() {
        let single = chain_cluster(1, &[]);
        let cluster = chain_cluster(4, &["offClassChain"]);
        let expect = sorted_rows(&single.execute_sync("offClassChain", &[]).unwrap());
        let got = sorted_rows(&cluster.execute_sync("offClassChain", &[]).unwrap());
        assert!(!expect.is_empty());
        assert_eq!(expect, got);
        let active = cluster
            .replica_stats()
            .iter()
            .filter(|s| s.queries > 0)
            .count();
        assert_eq!(
            active,
            1,
            "off-class chain was scattered: {:?}",
            cluster.replica_stats()
        );
    }

    /// HAVING on a fanned-out group-by root: the predicate must see the
    /// recombined totals, not per-partition partials. Thresholds are picked
    /// around one group's exact total, so a partition-local HAVING (which
    /// would drop every partial of that group) cannot pass the test.
    #[test]
    fn having_fanout_filters_on_recombined_groups() {
        let single = chain_cluster(1, &[]);
        let fanned = chain_cluster(4, &["bigSubjects"]);
        // All groups with their totals.
        let all = single
            .execute_sync("bigSubjects", &[Value::Float(-1.0)])
            .unwrap();
        assert_eq!(all.rows().len(), 3);
        let top_total = all
            .rows()
            .iter()
            .map(|r| r[1].as_float().unwrap())
            .fold(f64::MIN, f64::max);
        for threshold in [top_total - 0.5, top_total, -1.0] {
            let params = [Value::Float(threshold)];
            let expect = sorted_rows(&single.execute_sync("bigSubjects", &params).unwrap());
            let got = sorted_rows(&fanned.execute_sync("bigSubjects", &params).unwrap());
            assert_eq!(expect, got, "HAVING fanout diverged at {threshold}");
        }
        assert!(
            fanned.replica_stats().iter().all(|s| s.queries >= 1),
            "HAVING fanout did not scatter: {:?}",
            fanned.replica_stats()
        );
        // The strictest threshold keeps exactly the top group.
        let got = fanned
            .execute_sync("bigSubjects", &[Value::Float(top_total - 0.5)])
            .unwrap();
        assert_eq!(got.rows().len(), 1);
    }

    /// SQL-compiled AVG statements fan out correctly despite their identity
    /// projection: partial-mode executions skip the projection so the hidden
    /// (sum, count) columns reach the merge, and the recombined average is
    /// exact. Regression test for a merge-width crash found in review.
    #[test]
    fn sql_compiled_avg_fanout_matches_single_replica() {
        let single = chain_cluster(1, &[]);
        let fanned = chain_cluster(4, &["avgBySubject", "avgHaving"]);
        let expect = sorted_rows(&single.execute_sync("avgBySubject", &[]).unwrap());
        let got = sorted_rows(&fanned.execute_sync("avgBySubject", &[]).unwrap());
        assert_eq!(expect.len(), 3);
        assert_eq!(expect, got, "SQL-compiled AVG fanout diverged");
        // Deferred HAVING over the *finalized* average.
        let all = single
            .execute_sync("avgHaving", &[Value::Float(-1.0)])
            .unwrap();
        let top_avg = all
            .rows()
            .iter()
            .map(|r| r[1].as_float().unwrap())
            .fold(f64::MIN, f64::max);
        for threshold in [top_avg - 0.01, -1.0] {
            let params = [Value::Float(threshold)];
            let expect = sorted_rows(&single.execute_sync("avgHaving", &params).unwrap());
            let got = sorted_rows(&fanned.execute_sync("avgHaving", &params).unwrap());
            assert_eq!(expect, got, "AVG HAVING fanout diverged at {threshold}");
        }
        assert!(
            fanned.replica_stats().iter().all(|s| s.queries >= 1),
            "AVG statements did not scatter: {:?}",
            fanned.replica_stats()
        );
    }

    /// The admission bound is accounted per replica: saturating one replica's
    /// queue rejects retryably without touching the others.
    #[test]
    fn queue_depth_is_per_replica() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(&catalog, WORKLOAD).unwrap();
        let cluster = ClusterEngine::start(
            catalog,
            plan,
            registry,
            EngineConfig {
                eager_heartbeat: false,
                heartbeat: shareddb_core::HeartbeatPolicy::Fixed(Duration::from_secs(30)),
                ..EngineConfig::default()
            },
            ClusterConfig::with_replicas(2),
        )
        .unwrap();
        // Arm the heartbeat pacing of the home replica of getItem.
        cluster.execute_sync("getItem", &[Value::Int(0)]).unwrap();
        let opts = SubmitOptions {
            max_queue_depth: Some(2),
            ..SubmitOptions::default()
        };
        let mut handles = Vec::new();
        let mut rejected = 0;
        for i in 0..6 {
            match cluster.submit("getItem", &[Value::Int(i)], opts.clone()) {
                Ok(h) => handles.push(h),
                Err(Error::Overloaded(_)) => rejected += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(rejected, 4, "per-replica bound of 2 not enforced");
        // The other replica's queue is untouched: a statement pinned there
        // is admitted under the same bound.
        cluster
            .submit("allItems", &[], opts)
            .expect("other replica should admit");
        drop(handles);
    }

    /// Read-your-writes across 4 replicas: a pipelined INSERT → SELECT on
    /// the same session observes the write on every round when the read
    /// carries the session's write fence, and provably reads stale without
    /// it (the negative control routes to a replica whose batch forms before
    /// the write replica's paced group commit).
    #[test]
    fn read_your_writes_across_replicas() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(&catalog, WORKLOAD).unwrap();
        let cluster = ClusterEngine::start(
            catalog,
            plan,
            registry,
            EngineConfig {
                eager_heartbeat: false,
                heartbeat: shareddb_core::HeartbeatPolicy::Fixed(Duration::from_millis(60)),
                ..EngineConfig::default()
            },
            ClusterConfig::with_replicas(4),
        )
        .unwrap();
        // Heat the write replica's pacing clock (updates pin to replica 0,
        // like getItem) so the negative-control insert waits out the full
        // 60ms pacing. The read statement's home replica stays cold — its
        // first batch forms immediately.
        cluster.execute_sync("getItem", &[Value::Int(0)]).unwrap();
        // Negative control: unfenced pipelined write → read loses the race.
        let write = cluster
            .execute(
                "addItem",
                &[Value::Int(9_000), Value::text("HISTORY"), Value::Float(1.0)],
            )
            .unwrap();
        let stale = cluster.execute_sync("allItems", &[]).unwrap();
        assert_eq!(
            stale.rows().len(),
            200,
            "unfenced pipelined read should miss the still-uncommitted insert"
        );
        write.wait().unwrap();
        // Fenced rounds: 100% of N pipelined write→read pairs observe the
        // session's write, whichever replica (or fanout) serves the read.
        for round in 0..8i64 {
            let fence = Arc::new(shareddb_core::WriteFence::new());
            let write = cluster
                .submit(
                    "addItem",
                    &[
                        Value::Int(10_000 + round),
                        Value::text("FICTION"),
                        Value::Float(2.0),
                    ],
                    SubmitOptions {
                        write_fence: Some(Arc::clone(&fence)),
                        ..SubmitOptions::default()
                    },
                )
                .unwrap();
            let rows = cluster
                .submit(
                    "allItems",
                    &[],
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
                    .any(|r| r[0] == Value::Int(10_000 + round)),
                "round {round}: fenced read missed the session's write"
            );
            write.wait().unwrap();
        }
    }

    /// A fan-out read whose session fence is unresolved blocks in `submit`
    /// until the fence resolves — woken by the resolve, not by a poll or by
    /// the one-second cap.
    #[test]
    fn fanout_read_returns_when_its_fence_resolves() {
        let config = ClusterConfig {
            replicate_statements: vec!["allItems".into()],
            ..ClusterConfig::default()
        };
        let cluster = start(2, config);
        cluster.execute_sync("allItems", &[]).unwrap();
        let fence = Arc::new(shareddb_core::WriteFence::new());
        let watermark = cluster.catalog().oracle().read_ts().ts.0;
        let resolver = {
            let fence = Arc::clone(&fence);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                let about_to_resolve = Instant::now();
                fence.resolve(watermark);
                about_to_resolve
            })
        };
        let handle = cluster
            .submit(
                "allItems",
                &[],
                SubmitOptions {
                    read_after: Some(fence),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        let submitted = Instant::now();
        let about_to_resolve = resolver.join().unwrap();
        assert!(
            submitted >= about_to_resolve,
            "the fenced fan-out read was submitted before its fence resolved"
        );
        let late = submitted - about_to_resolve;
        assert!(
            late < Duration::from_millis(100),
            "submit returned {late:?} after the resolve: it slept through it"
        );
        assert_eq!(handle.wait().unwrap().rows().len(), 200);
    }
}
