//! # shareddb-cluster
//!
//! Replicated SharedDB engines behind one endpoint (paper §4.5: "hot
//! operators that saturate a core are replicated or partitioned").
//!
//! A [`ClusterEngine`] owns N [`shareddb_core::Engine`] replicas over **one
//! shared [`shareddb_storage::Catalog`]** — every replica runs the same
//! always-on global plan, so any replica can answer any statement. A
//! [`router::Route`] per statement type decides where executions go:
//!
//! * **cold types stay pinned** to one home replica, so all executions of a
//!   type keep batching through the same shared scans (the whole point of
//!   SharedDB);
//! * **hot types are replicated**: the router watches per-type submission
//!   throughput and per-replica admission-queue depth (the engines'
//!   [`shareddb_core::stats::EngineStats`]) and promotes a type once it
//!   saturates its home engine. Fanout-eligible statements — single-scan
//!   shapes *and* equi-joins keyed on a partitioning key, see
//!   [`engine::ClusterEngine`] — then **scatter** over all replicas with
//!   disjoint scan partitions
//!   ([`shareddb_core::SubmitOptions::scan_partition`]) and their partial
//!   results recombine in a [`shareddb_core::merge::MergeSpec`] merge step
//!   (ordered merge, partial-aggregate recombination incl. exact AVG from
//!   sum/count partials, re-deduplication). Other parameterised executions
//!   route by a hash of the parameter vector (hash-partitioned input
//!   routing);
//! * **fanned-out executions are snapshot-pinned**: the cluster captures one
//!   [`shareddb_storage::Catalog::snapshot`] per execution and every
//!   partition reads exactly that version set
//!   ([`shareddb_core::SubmitOptions::pinned_snapshot`]), so a scattered
//!   query is transactionally indistinguishable from a single-engine
//!   execution even under concurrent writes;
//! * **merges run off the caller's thread**: the last-completing partition
//!   dispatches the recombination to a small merge worker pool
//!   ([`ClusterConfig::merge_threads`]), and the submitter's completion
//!   waker fires once with the finished result — the network reactor never
//!   merges on its event loop;
//! * **updates always pin to replica 0**, keeping the shared catalog's group
//!   commit single-writer; MVCC snapshots make the writes visible to every
//!   replica's next batch.
//!
//! With `replicas == 1` the cluster degenerates to exactly the single-engine
//! behaviour, which is how the network server embeds it by default.

pub mod engine;
pub mod fanout;
pub mod router;

pub use engine::{ClusterEngine, ClusterHandle};
pub use router::Route;

use std::time::Duration;

/// Configuration of a [`ClusterEngine`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of engine replicas (1 = single-engine behaviour).
    pub replicas: usize,
    /// Submission rate (statements/s of one type) above which the type is
    /// promoted to replicated routing at the next refresh.
    pub hot_rate_per_s: f64,
    /// Admission-queue depth at which a home replica counts as saturated;
    /// its dominant statement type is then promoted even below the rate
    /// threshold.
    pub hot_queue_depth: usize,
    /// How often the router re-evaluates routes from the engine statistics.
    pub refresh_interval: Duration,
    /// Statement types that are replicated from the start (no detection
    /// delay); used by benchmarks and tests.
    pub replicate_statements: Vec<String>,
    /// Size of the worker pool that recombines fanned-out partial results
    /// (at least 1). Merges run here instead of on the polling caller (the
    /// network reactor), so huge merged results cannot stall the event loop.
    pub merge_threads: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 1,
            hot_rate_per_s: 2_000.0,
            hot_queue_depth: 128,
            refresh_interval: Duration::from_millis(200),
            replicate_statements: Vec::new(),
            merge_threads: 2,
        }
    }
}

impl ClusterConfig {
    /// Configuration with `replicas` engines and default thresholds.
    pub fn with_replicas(replicas: usize) -> Self {
        ClusterConfig {
            replicas: replicas.max(1),
            ..ClusterConfig::default()
        }
    }
}
