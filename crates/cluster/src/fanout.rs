//! Off-thread recombination of fanned-out executions.
//!
//! PR 3 ran the scatter/merge step of a fanned-out statement inside whoever
//! polled the handle — for the network server that was the reactor thread,
//! so a huge merged result could stall accepts and reads. The merge now runs
//! on a small worker pool owned by the [`crate::ClusterEngine`]:
//!
//! * every partition of a fanned-out execution gets a cluster-internal
//!   completion waker; the waker that observes the **last** partition
//!   completing dispatches the execution to the pool;
//! * a pool worker collects the partial results, runs the
//!   [`shareddb_core::merge::MergeSpec`] merge, stores the merged outcome in the
//!   shared [`FanoutState`], and only then fires the caller's own completion
//!   waker — so an event-driven caller (the reactor) is woken exactly once,
//!   with the finished result already posted to its reply queue;
//! * if the pool is already shut down the dispatching waker runs the merge
//!   inline (the engines are joined before the pool, so this fallback only
//!   covers stragglers during teardown — nothing can deadlock on a
//!   never-merged handle).

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use shareddb_common::{Error, Result};
use shareddb_core::engine::{QueryHandle, QueryOutcome, ResultSet};
use shareddb_core::merge::{merge_results, MergeSpec};
use shareddb_core::stats::{Phase, PhaseTable};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Shared state of one fanned-out execution: the per-partition handles, the
/// completion countdown, and the merged outcome once a pool worker produced
/// it.
pub struct FanoutState {
    /// Per-partition handles, consumed by the merging worker.
    parts: Mutex<Vec<QueryHandle>>,
    /// Completion countdown. Starts at the fanout width **plus one guard
    /// token held by the submitter**: each partition waker decrements once,
    /// and the submitter releases the guard only after every handle is
    /// registered (or compensates for never-submitted partitions on
    /// failure) — so the merge cannot dispatch while handles are still being
    /// pushed, even if a partition completes before its `submit` call
    /// returns. Exactly one decrement observes zero and dispatches.
    remaining: AtomicUsize,
    /// Set when the submission failed partway: the merge job only drains the
    /// already-submitted partitions (discarded work) and produces no result.
    abandoned: AtomicBool,
    /// How the partial results recombine.
    merge: MergeSpec,
    /// Statement-level LIMIT re-applied after the merge.
    limit: Option<usize>,
    /// The merged outcome; `Some` exactly once, taken by the handle.
    result: Mutex<Option<Result<QueryOutcome>>>,
    /// Signalled when `result` is posted (for blocking waiters).
    done: Condvar,
    /// The submitting caller's own completion waker, fired once after the
    /// merge.
    waker: Option<Arc<dyn Fn() + Send + Sync>>,
    /// Cluster phase table + statement index for the Merge histogram; set
    /// once by the submitter before `arm` releases the guard token.
    phases: Mutex<Option<(Arc<PhaseTable>, usize)>>,
}

impl FanoutState {
    /// Creates the state for a fanout of `width` partitions.
    pub(crate) fn new(
        width: usize,
        merge: MergeSpec,
        limit: Option<usize>,
        waker: Option<Arc<dyn Fn() + Send + Sync>>,
    ) -> Arc<FanoutState> {
        Arc::new(FanoutState {
            parts: Mutex::new(Vec::with_capacity(width)),
            remaining: AtomicUsize::new(width + 1),
            abandoned: AtomicBool::new(false),
            merge,
            limit,
            result: Mutex::new(None),
            done: Condvar::new(),
            waker,
            phases: Mutex::new(None),
        })
    }

    /// Points the merge at the cluster's phase histograms: `run_merge` will
    /// record its duration under `Phase::Merge` for statement `index`.
    pub(crate) fn tag_phases(&self, table: Arc<PhaseTable>, index: usize) {
        *self.phases.lock() = Some((table, index));
    }

    /// Registers one successfully submitted partition handle.
    pub(crate) fn push_part(&self, handle: QueryHandle) {
        self.parts.lock().push(handle);
    }

    /// The per-partition completion waker: counts the partition down and
    /// dispatches the merge when it was the last one.
    pub(crate) fn partition_waker(
        self: &Arc<FanoutState>,
        pool: &MergePool,
    ) -> Arc<dyn Fn() + Send + Sync> {
        let state = Arc::clone(self);
        let pool = pool.clone();
        Arc::new(move || {
            if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                pool.dispatch(Arc::clone(&state));
            }
        })
    }

    /// Releases the submitter's guard token once every partition handle is
    /// registered; from here on the last-completing partition dispatches the
    /// merge (or it dispatches right here if all partitions already
    /// completed).
    pub(crate) fn arm(self: &Arc<FanoutState>, pool: &MergePool) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            pool.dispatch(Arc::clone(self));
        }
    }

    /// Balances the countdown after a partial-admission failure: `unsubmitted`
    /// partitions will never fire a waker, and the guard token is released
    /// too. If everything already-submitted has completed, the (abandoned)
    /// merge job is dispatched here.
    pub(crate) fn abandon(self: &Arc<FanoutState>, unsubmitted: usize, pool: &MergePool) {
        self.abandoned.store(true, Ordering::Release);
        if self.remaining.fetch_sub(unsubmitted + 1, Ordering::AcqRel) == unsubmitted + 1 {
            pool.dispatch(Arc::clone(self));
        }
    }

    /// Non-blocking poll: `Some(outcome)` exactly once after the merge ran.
    pub(crate) fn try_take(&self) -> Option<Result<QueryOutcome>> {
        self.result.lock().take()
    }

    /// Blocks until the merged outcome is available.
    pub(crate) fn wait(&self) -> Result<QueryOutcome> {
        let mut result = self.result.lock();
        loop {
            if let Some(outcome) = result.take() {
                return outcome;
            }
            self.done.wait(&mut result);
        }
    }

    /// Runs the merge: collects every partition's outcome, recombines, posts
    /// the result and fires the caller waker. Runs on a pool worker (or
    /// inline in the last partition waker during teardown).
    fn run_merge(&self) {
        let parts: Vec<QueryHandle> = std::mem::take(&mut *self.parts.lock());
        if self.abandoned.load(Ordering::Acquire) {
            // Discarded work of a failed submission: drain and drop.
            for part in parts {
                let _ = part.wait();
            }
            return;
        }
        let merge_started = Instant::now();
        let outcome = merge_parts(&self.merge, self.limit, parts);
        if let Some((table, index)) = self.phases.lock().as_ref() {
            table.record(*index, Phase::Merge, merge_started.elapsed());
        }
        *self.result.lock() = Some(outcome);
        self.done.notify_all();
        if let Some(waker) = &self.waker {
            waker();
        }
    }
}

fn merge_parts(
    merge: &MergeSpec,
    limit: Option<usize>,
    parts: Vec<QueryHandle>,
) -> Result<QueryOutcome> {
    let mut partials = Vec::with_capacity(parts.len());
    for part in parts {
        // Every partition has completed (the countdown reached zero), so
        // these waits return immediately.
        partials.push(expect_rows(part.wait()?)?);
    }
    let mut merged = merge_results(merge, partials)?;
    if let Some(limit) = limit {
        merged.rows.truncate(limit);
    }
    Ok(QueryOutcome::Rows(merged))
}

pub(crate) fn expect_rows(outcome: QueryOutcome) -> Result<ResultSet> {
    match outcome {
        QueryOutcome::Rows(rows) => Ok(rows),
        QueryOutcome::Updated { .. } => Err(Error::Internal(
            "fanned-out statement produced an update outcome".into(),
        )),
    }
}

// ---------------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------------

/// Cloneable dispatch half of the merge pool.
pub(crate) struct MergePool {
    tx: Arc<Mutex<Option<Sender<Arc<FanoutState>>>>>,
}

impl Clone for MergePool {
    fn clone(&self) -> Self {
        MergePool {
            tx: Arc::clone(&self.tx),
        }
    }
}

impl MergePool {
    /// Spawns `threads` merge workers (at least one).
    pub(crate) fn start(threads: usize) -> (MergePool, Vec<JoinHandle<()>>) {
        let (tx, rx) = unbounded::<Arc<FanoutState>>();
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx: Receiver<Arc<FanoutState>> = rx.clone();
                std::thread::Builder::new()
                    .name(format!("shareddb-merge-{i}"))
                    .spawn(move || {
                        while let Ok(state) = rx.recv() {
                            state.run_merge();
                        }
                    })
                    .expect("failed to spawn merge worker")
            })
            .collect();
        (
            MergePool {
                tx: Arc::new(Mutex::new(Some(tx))),
            },
            workers,
        )
    }

    /// Hands a completed fanout to a worker; merges inline when the pool is
    /// already torn down.
    pub(crate) fn dispatch(&self, state: Arc<FanoutState>) {
        let sent = match &*self.tx.lock() {
            Some(tx) => tx.send(Arc::clone(&state)).is_ok(),
            None => false,
        };
        if !sent {
            state.run_merge();
        }
    }

    /// Closes the job channel; queued merges still drain before the workers
    /// exit (join the returned handles after calling this).
    pub(crate) fn shutdown(&self) {
        self.tx.lock().take();
    }
}
