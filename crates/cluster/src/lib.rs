//! # shareddb-cluster
//!
//! Replicated SharedDB engines behind one endpoint (paper §4.5: "hot
//! operators that saturate a core are replicated or partitioned"). This
//! crate is the *replicated* half — routing. A replica
//! partitions **statements**, and nothing partitions rows: every statement
//! runs whole, in one batch on one snapshot, on the replica it is routed to
//! (`docs/ARCHITECTURE.md`, *Replicas partition statements*).
//!
//! A [`ClusterEngine`] owns N [`shareddb_core::Engine`] replicas over **one
//! shared [`shareddb_storage::Catalog`]** — every replica runs the same
//! always-on global plan, so any replica can answer any statement. A
//! [`router::Route`] per statement type, fixed at start from the
//! configuration and the registry alone, decides where executions go:
//!
//! * **query types stay pinned** to one home replica, however hot they run,
//!   so all executions of a type keep batching through the same shared scans
//!   (the whole point of SharedDB);
//! * **the query types named in [`ClusterConfig::replicate_statements`] are
//!   replicated** instead: their executions spread over all replicas — by a hash of
//!   the parameter vector (the same key always hits the same replica),
//!   round-robin when parameterless;
//! * **updates always pin to replica 0**, keeping the shared catalog's group
//!   commit single-writer; a write's commit is published before it is
//!   answered, so every replica's next batch sees an answered write.
//!
//! Read-your-writes is a route, not a wait: a session's read submitted
//! behind its own unanswered write goes to the write's replica
//! ([`ClusterHandle::replica`], then [`ClusterEngine::engines`]), whose FIFO
//! queue and updates-first batches show it the write. The network server's
//! reactor keeps that rule per connection.
//!
//! With `replicas == 1` the cluster degenerates to exactly the single-engine
//! behaviour, which is how the network server embeds it by default.

pub mod engine;
pub mod router;

pub use engine::{ClusterEngine, ClusterHandle};
pub use router::Route;

/// Configuration of a [`ClusterEngine`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of engine replicas (1 = single-engine behaviour).
    pub replicas: usize,
    /// Query statement types that run on every replica; every other query
    /// type stays on its home replica. [`ClusterEngine::start`] refuses an
    /// unregistered name and an update.
    pub replicate_statements: Vec<String>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 1,
            replicate_statements: Vec::new(),
        }
    }
}

impl ClusterConfig {
    /// Configuration with `replicas` engines and no replicated type.
    pub fn with_replicas(replicas: usize) -> Self {
        ClusterConfig {
            replicas: replicas.max(1),
            ..ClusterConfig::default()
        }
    }
}
