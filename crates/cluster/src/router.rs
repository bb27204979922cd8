//! Statement-type routing across engine replicas.
//!
//! Every registered statement type has a *route*, fixed when the cluster
//! starts from its configuration and the registry alone:
//!
//! * **Pinned(r)** — all executions go to replica `r` (its *home*). This is
//!   the default: executions of one type land in the same engine's admission
//!   queue, so they keep forming shared batches exactly as in the
//!   single-engine system. Query types take their homes round-robin; updates
//!   always pin to replica 0 (the write replica), which keeps group commit
//!   single-writer over the shared catalog.
//! * **Replicated** — the type runs on all replicas ("replicating the shared
//!   operators it activates", paper §4.5); the types named in
//!   [`ClusterConfig::replicate_statements`]. Parameterised executions are
//!   routed by a hash of their parameter vector (hash-partitioned input
//!   routing: the same key always hits the same replica, preserving
//!   batch-locality per key range); parameterless executions round-robin.
//!   Either way one execution runs whole on one replica.

use crate::ClusterConfig;
use shareddb_common::{hash_words, Error, Result, Value};
use shareddb_core::StatementRegistry;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Route of one statement type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// All executions go to one replica.
    Pinned(usize),
    /// Executions spread over all replicas (a type named in
    /// [`ClusterConfig::replicate_statements`]).
    Replicated,
}

pub(crate) struct Router {
    replicas: usize,
    /// Route per statement, by registry index; never changes.
    routes: Vec<Route>,
    round_robin: AtomicUsize,
}

impl Router {
    /// Fixes every statement type's route. A name in
    /// [`ClusterConfig::replicate_statements`] that is not registered is
    /// [`Error::UnknownStatement`]; one that names an update is
    /// [`Error::InvalidParameter`].
    pub(crate) fn new(registry: &StatementRegistry, config: &ClusterConfig) -> Result<Router> {
        let replicas = config.replicas.max(1);
        // Query types spread their homes round-robin so cold load is
        // balanced without breaking per-type batching.
        let mut next_home = 0usize;
        let mut routes: Vec<Route> = registry
            .iter()
            .map(|spec| {
                if spec.is_update() {
                    Route::Pinned(0)
                } else {
                    next_home += 1;
                    Route::Pinned((next_home - 1) % replicas)
                }
            })
            .collect();
        for name in &config.replicate_statements {
            let (index, spec) = registry.get(name)?;
            if spec.is_update() {
                return Err(Error::InvalidParameter(format!(
                    "update statement {name} cannot be replicated: updates run on replica 0"
                )));
            }
            routes[index] = Route::Replicated;
        }
        Ok(Router {
            replicas,
            routes,
            round_robin: AtomicUsize::new(0),
        })
    }

    /// All routes, by registry index.
    pub(crate) fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// Picks the executing replica for one submission.
    pub(crate) fn pick_replica(&self, index: usize, params: &[Value]) -> usize {
        match self.routes[index] {
            Route::Pinned(r) => r,
            Route::Replicated => {
                if params.is_empty() {
                    self.round_robin.fetch_add(1, Ordering::Relaxed) % self.replicas
                } else {
                    (hash_params(index, params) % self.replicas as u64) as usize
                }
            }
        }
    }
}

/// Hash of a parameter vector ([`hash_words`], the statement index folded
/// in first so two replicated types with the same keys still spread
/// differently). Stable within the process, which is all routing needs.
fn hash_params(index: usize, params: &[Value]) -> u64 {
    hash_words([&Value::Int(index as i64)].into_iter().chain(params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_hash_is_stable_and_spreads() {
        let a = hash_params(0, &[Value::Int(1)]);
        assert_eq!(a, hash_params(0, &[Value::Int(1)]));
        assert_ne!(a, hash_params(0, &[Value::Int(2)]));
        assert_ne!(a, hash_params(1, &[Value::Int(1)]));
        let hits: std::collections::HashSet<u64> = (0..64)
            .map(|i| hash_params(0, &[Value::Int(i)]) % 4)
            .collect();
        assert!(hits.len() > 1, "all parameters hashed to one replica");
    }
}
