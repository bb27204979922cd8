//! Statement-type routing across engine replicas.
//!
//! Every registered statement type has a *route*:
//!
//! * **Pinned(r)** — all executions go to replica `r` (its *home*). This is
//!   the default: executions of one type land in the same engine's admission
//!   queue, so they keep forming shared batches exactly as in the
//!   single-engine system. Updates are always pinned to replica 0 (the write
//!   replica), which keeps group commit single-writer over the shared
//!   catalog.
//! * **Replicated** — the type runs on all replicas ("replicating the shared
//!   operators it activates", paper §4.5). Parameterised executions are
//!   routed by a hash of their parameter vector (hash-partitioned input
//!   routing: the same key always hits the same replica, preserving
//!   batch-locality per key range); parameterless executions round-robin.
//!   Either way one execution runs whole on one replica.
//!
//! Promotion is driven by the engines' own statistics: the router samples
//! per-type submission throughput and per-replica admission-queue depth at a
//! fixed refresh interval, promotes a type to `Replicated` when its rate
//! crosses [`ClusterConfig::hot_rate_per_s`] — or when its home replica's
//! queue is saturated and the type dominates that replica's load — and
//! demotes it (with hysteresis) when the load subsides.

use crate::ClusterConfig;
use parking_lot::Mutex;
use shareddb_common::{hash_values, Value};
use shareddb_core::StatementRegistry;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Route of one statement type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// All executions go to one replica.
    Pinned(usize),
    /// Executions spread over all replicas (hot type).
    Replicated,
}

/// Encoding of [`Route`] in an atomic: `usize::MAX` = replicated.
const REPLICATED: usize = usize::MAX;

pub(crate) struct Router {
    replicas: usize,
    hot_rate_per_s: f64,
    hot_queue_depth: usize,
    refresh_interval: std::time::Duration,
    routes: Vec<AtomicUsize>,
    /// Home replica per statement (the pin target, also after demotion).
    homes: Vec<usize>,
    /// Statically-hot types ([`ClusterConfig::replicate_statements`]).
    forced: Vec<bool>,
    is_update: Vec<bool>,
    /// Submissions per type since the last refresh.
    counts: Vec<AtomicU64>,
    round_robin: AtomicUsize,
    last_refresh: Mutex<Instant>,
}

impl Router {
    pub(crate) fn new(registry: &StatementRegistry, config: &ClusterConfig) -> Router {
        let replicas = config.replicas.max(1);
        let mut routes = Vec::new();
        let mut homes = Vec::new();
        let mut forced = Vec::new();
        let mut is_update = Vec::new();
        let mut next_home = 0usize;
        for spec in registry.iter() {
            let update = spec.is_update();
            // Updates pin to the write replica; query types spread their
            // homes round-robin so cold load is balanced without breaking
            // per-type batching.
            let home = if update {
                0
            } else {
                let h = next_home % replicas;
                next_home += 1;
                h
            };
            let force = !update
                && config
                    .replicate_statements
                    .iter()
                    .any(|name| name == &spec.name);
            routes.push(AtomicUsize::new(if force { REPLICATED } else { home }));
            homes.push(home);
            forced.push(force);
            is_update.push(update);
        }
        Router {
            replicas,
            hot_rate_per_s: config.hot_rate_per_s,
            hot_queue_depth: config.hot_queue_depth.max(1),
            refresh_interval: config.refresh_interval,
            routes,
            homes,
            forced,
            is_update,
            counts: (0..registry.len()).map(|_| AtomicU64::new(0)).collect(),
            round_robin: AtomicUsize::new(0),
            last_refresh: Mutex::new(Instant::now()),
        }
    }

    /// Current route of one statement type.
    pub(crate) fn route(&self, index: usize) -> Route {
        match self.routes[index].load(Ordering::Relaxed) {
            REPLICATED => Route::Replicated,
            r => Route::Pinned(r),
        }
    }

    /// All routes, for statistics and tests.
    pub(crate) fn routes(&self) -> Vec<Route> {
        (0..self.routes.len()).map(|i| self.route(i)).collect()
    }

    /// Records one submission of `index` for the rate statistics.
    pub(crate) fn note_submit(&self, index: usize) {
        self.counts[index].fetch_add(1, Ordering::Relaxed);
    }

    /// Picks the executing replica for one submission.
    pub(crate) fn pick_replica(&self, index: usize, params: &[Value]) -> usize {
        match self.route(index) {
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

    /// Re-evaluates routes when the refresh interval has elapsed.
    /// `queue_depths` is only invoked when a refresh actually runs.
    pub(crate) fn maybe_refresh(&self, queue_depths: impl FnOnce() -> Vec<usize>) {
        if self.replicas <= 1 {
            return;
        }
        let Some(mut last) = self.last_refresh.try_lock() else {
            return; // another submitter is refreshing
        };
        let now = Instant::now();
        let elapsed = now.duration_since(*last);
        if elapsed < self.refresh_interval {
            return;
        }
        *last = now;
        let secs = elapsed.as_secs_f64().max(1e-9);
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.swap(0, Ordering::Relaxed))
            .collect();
        let depths = queue_depths();

        // The dominant pinned query type per saturated home replica is
        // promoted even below the absolute rate threshold: a backed-up
        // admission queue is the paper's signal that the shared operators of
        // that type saturate their engine.
        let mut dominant: Vec<Option<usize>> = vec![None; self.replicas];
        for (idx, &count) in counts.iter().enumerate() {
            if self.is_update[idx] || count == 0 {
                continue;
            }
            if let Route::Pinned(home) = self.route(idx) {
                if dominant[home].is_none_or(|best| counts[best] < count) {
                    dominant[home] = Some(idx);
                }
            }
        }

        for (idx, &count) in counts.iter().enumerate() {
            if self.is_update[idx] || self.forced[idx] {
                continue;
            }
            let rate = count as f64 / secs;
            match self.route(idx) {
                Route::Pinned(home) => {
                    let saturated = depths.get(home).copied().unwrap_or(0) >= self.hot_queue_depth
                        && dominant[home] == Some(idx);
                    if rate >= self.hot_rate_per_s || saturated {
                        self.routes[idx].store(REPLICATED, Ordering::Relaxed);
                    }
                }
                Route::Replicated => {
                    // Hysteresis: only demote once the type has clearly
                    // cooled down, so routes do not flap at the threshold.
                    if rate < self.hot_rate_per_s / 4.0 {
                        self.routes[idx].store(self.homes[idx], Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// Stable hash of a parameter vector ([`shareddb_common::hash_values`],
/// seeded by the statement index so two hot types with the same keys still
/// spread differently).
fn hash_params(index: usize, params: &[Value]) -> u64 {
    hash_values(index as u64, params)
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
