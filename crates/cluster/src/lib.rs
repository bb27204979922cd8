//! # shareddb-cluster
//!
//! Replicated SharedDB engines behind one endpoint (paper §4.5: "hot
//! operators that saturate a core are replicated or partitioned"). This
//! crate is the *replicated* half — routing and session fences. A replica
//! partitions **statements**, and nothing partitions rows: every statement
//! runs whole, in one batch on one snapshot, on the replica it is routed to
//! (`docs/ARCHITECTURE.md`, *Replicas partition statements*).
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
//!   saturates its home engine. Its executions then spread over all
//!   replicas — by a hash of the parameter vector (the same key always hits
//!   the same replica), round-robin when parameterless;
//! * **updates always pin to replica 0**, keeping the shared catalog's group
//!   commit single-writer; MVCC snapshots make the writes visible to every
//!   replica's next batch;
//! * **read-your-writes crosses replicas** through
//!   [`shareddb_core::WriteFence`]: a read carrying its session's fence is
//!   held out of any replica's batch until the committed watermark covers
//!   the write.
//!
//! With `replicas == 1` the cluster degenerates to exactly the single-engine
//! behaviour, which is how the network server embeds it by default.

pub mod engine;
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
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 1,
            hot_rate_per_s: 2_000.0,
            hot_queue_depth: 128,
            refresh_interval: Duration::from_millis(200),
            replicate_statements: Vec::new(),
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
