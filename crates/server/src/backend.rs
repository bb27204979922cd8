//! The engine backend of the network frontend: an engine cluster behind the
//! reactor.
//!
//! The reactor does not talk to a [`shareddb_core::Engine`] directly any
//! more; it submits through a [`ClusterBackend`], which owns a
//! [`ClusterEngine`] of N replicas over one shared catalog (1 by default —
//! exactly the old single-engine behaviour). The backend is what ties the
//! wire protocol's admission control to the cluster:
//!
//! * the queue-depth bound is enforced **per replica**, under each replica's
//!   own admission-queue lock (the cluster router picks the replica first,
//!   then the bound applies to that queue — so N replicas admit up to
//!   N × `max_queue_depth` in total, each queue individually exact);
//! * completion wakers pass through to the executing replica: a statement
//!   wakes the reactor once, when its outcome — merged on that replica's
//!   coordinator if it ran segmented — is delivered; the reactor never runs
//!   a merge on its event loop (the reply pump treats spurious wakes as
//!   no-ops either way);
//! * per-replica statistics feed the `Stats` wire frame.

use shareddb_cluster::{ClusterConfig, ClusterEngine, ClusterHandle};
use shareddb_common::{Result, Value};
use shareddb_core::stats::{
    AttributionEntry, EngineStatsSnapshot, OperatorStatsSnapshot, ScanRowsSnapshot,
    SegmentStatsSnapshot, StatementPhaseSnapshot, UpdateRowsSnapshot,
};
use shareddb_core::trace::TraceRecord;
use shareddb_core::{EngineConfig, GlobalPlan, SlowQueryRecord, StatementRegistry, SubmitOptions};
use shareddb_storage::Catalog;
use std::sync::Arc;
use std::time::Duration;

/// The server's engine backend: a cluster of engine replicas.
pub struct ClusterBackend {
    cluster: ClusterEngine,
}

impl ClusterBackend {
    /// Starts the backend (`cluster.replicas` engines over one catalog).
    pub fn start(
        catalog: Arc<Catalog>,
        plan: GlobalPlan,
        registry: StatementRegistry,
        engine_config: EngineConfig,
        cluster_config: ClusterConfig,
    ) -> Result<ClusterBackend> {
        Ok(ClusterBackend {
            cluster: ClusterEngine::start(catalog, plan, registry, engine_config, cluster_config)?,
        })
    }

    /// Submits one statement through the router.
    pub fn submit(
        &self,
        statement: &str,
        params: &[Value],
        opts: SubmitOptions,
    ) -> Result<ClusterHandle> {
        self.cluster.submit(statement, params, opts)
    }

    /// Number of engine replicas.
    pub fn replicas(&self) -> usize {
        self.cluster.replicas()
    }

    /// The catalog all replicas share (and with it the WAL and oracle).
    pub fn catalog(&self) -> Arc<Catalog> {
        self.cluster.catalog()
    }

    /// The global plan every replica deploys.
    pub fn plan(&self) -> &GlobalPlan {
        self.cluster.plan()
    }

    /// The statement registry the cluster routes by.
    pub fn registry(&self) -> &StatementRegistry {
        self.cluster.registry()
    }

    /// Aggregated engine statistics.
    pub fn stats(&self) -> EngineStatsSnapshot {
        self.cluster.stats()
    }

    /// Per-replica statistics, in replica order.
    pub fn replica_stats(&self) -> Vec<EngineStatsSnapshot> {
        self.cluster.replica_stats()
    }

    /// Statements queued but not yet batched, summed over replicas.
    pub fn queued(&self) -> usize {
        self.cluster.queued()
    }

    /// Per-replica admission-queue depths.
    pub fn queued_per_replica(&self) -> Vec<usize> {
        self.cluster.queued_per_replica()
    }

    /// Per-replica admission-lane depths, `(light, heavy)`.
    pub fn lane_depths_per_replica(&self) -> Vec<(usize, usize)> {
        self.cluster.lane_depths_per_replica()
    }

    /// Per-replica heartbeat interval currently in effect.
    pub fn replica_heartbeats(&self) -> Vec<Duration> {
        self.cluster.replica_heartbeats()
    }

    /// Per-replica adaptive-heartbeat adjustment counts.
    pub fn replica_heartbeat_adjustments(&self) -> Vec<u64> {
        self.cluster.replica_heartbeat_adjustments()
    }

    /// Per-replica, per-statement phase histograms.
    pub fn replica_phase_stats(&self) -> Vec<Vec<StatementPhaseSnapshot>> {
        self.cluster.replica_phase_stats()
    }

    /// Rows examined and affected per update statement type, summed over
    /// replicas.
    pub fn update_row_stats(&self) -> Vec<UpdateRowsSnapshot> {
        self.cluster.update_row_stats()
    }

    /// Rows examined, emitted and skipped and queries per predicate class, per
    /// scanned table, summed over replicas.
    pub fn scan_row_stats(&self) -> Vec<ScanRowsSnapshot> {
        self.cluster.scan_row_stats()
    }

    /// Per-replica operator statistics with each replica's stats-window wall
    /// clock.
    pub fn replica_operator_stats(&self) -> Vec<(Duration, Vec<OperatorStatsSnapshot>)> {
        self.cluster.replica_operator_stats()
    }

    /// Per-replica scan-segment statistics with each replica's stats-window
    /// wall clock (empty inner vectors when `scan_segments == 1`).
    pub fn replica_segment_stats(&self) -> Vec<(Duration, Vec<SegmentStatsSnapshot>)> {
        self.cluster.replica_segment_stats()
    }

    /// Slow-query count and retained offender records, summed over replicas
    /// (each record stamped with its executing replica).
    pub fn slow_queries(&self) -> (u64, Vec<SlowQueryRecord>) {
        self.cluster.slow_queries()
    }

    /// Per-replica per-operator × per-statement-type cost attribution.
    pub fn replica_attribution_stats(&self) -> Vec<Vec<AttributionEntry>> {
        self.cluster.replica_attribution_stats()
    }

    /// Cluster-wide cost attribution, merged by `(operator, statement)` key.
    pub fn attribution_stats(&self) -> Vec<AttributionEntry> {
        self.cluster.attribution_stats()
    }

    /// One replica's batch-lifecycle trace journal.
    pub fn replica_trace(&self, replica: usize) -> Vec<TraceRecord> {
        self.cluster.replica_trace(replica)
    }

    /// Zeroes all statistics across replicas and the cluster phase table.
    pub fn reset_stats(&self) {
        self.cluster.reset_stats();
    }

    /// Current route of every statement type.
    pub fn routes(&self) -> Vec<(String, shareddb_cluster::Route)> {
        self.cluster.routes()
    }

    /// Stops every replica (completes or cleanly fails queued work).
    pub fn shutdown(&mut self) {
        self.cluster.shutdown();
    }
}
