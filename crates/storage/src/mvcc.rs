//! Multi-version concurrency control primitives.
//!
//! SharedDB favours optimistic / multi-version concurrency control because
//! "any kind of locking would result in unpredictable response times due to
//! lock contention and blocking" (Section 4.4). The storage layer provides
//! **snapshot isolation**: every batch of queries reads the snapshot that was
//! current when its cycle started; updates of the cycle are applied in arrival
//! order and become visible to the *next* cycle.
//!
//! A reader that may outlive the next commit **pins** its snapshot
//! ([`TimestampOracle::pin`]): the oldest pin is the **low-water mark**
//! ([`TimestampOracle::low_water`]), and a version that ended at or before it
//! is seen by no reader that is or will be — the storage layer gives its
//! payload back (`Table::reclaim`).

use shareddb_common::ids::Timestamp;
use shareddb_common::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A read snapshot: all row versions with `begin <= ts < end` are visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Snapshot {
    /// The logical read timestamp.
    pub ts: Timestamp,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot { ts: Timestamp(0) }
    }
}

impl Snapshot {
    /// Creates a snapshot at the given timestamp.
    pub fn at(ts: Timestamp) -> Self {
        Snapshot { ts }
    }

    /// True when a version `[begin, end)` is visible in this snapshot.
    #[inline]
    pub fn sees(&self, begin: Timestamp, end: Timestamp) -> bool {
        begin <= self.ts && self.ts < end
    }
}

/// Timestamp value used for "still live" row versions.
pub const TS_INFINITY: Timestamp = Timestamp(u64::MAX);

/// Monotonic logical-clock source shared by the storage layer and the engine.
///
/// * `read_ts()` returns the timestamp of the latest committed state; a
///   reader that a later commit could overtake takes it through `pin()`.
/// * `next_commit_ts()` allocates a fresh commit timestamp for a batch of
///   updates; once the batch finished applying its updates the engine calls
///   `publish()` so that subsequent snapshots observe them.
pub struct TimestampOracle {
    /// Latest committed (visible) timestamp.
    committed: AtomicU64,
    /// Next commit timestamp to hand out.
    next: AtomicU64,
    /// The pinned snapshots: how many pins hold each timestamp. Pinning and
    /// the low-water mark read `committed` under this lock, so no reader
    /// reads a timestamp the mark has already passed.
    pins: Mutex<BTreeMap<u64, usize>>,
}

impl Default for TimestampOracle {
    fn default() -> Self {
        Self::new()
    }
}

impl TimestampOracle {
    /// Creates an oracle with committed timestamp 0 (bulk-loaded data uses
    /// timestamp 0 so it is visible to every snapshot).
    pub fn new() -> Self {
        TimestampOracle {
            committed: AtomicU64::new(0),
            next: AtomicU64::new(1),
            pins: Mutex::default(),
        }
    }

    /// Timestamp of the latest committed state. Unpinned: a version it sees
    /// may be reclaimed after the next commit — read through [`Self::pin`]
    /// unless nothing is written meanwhile.
    pub fn read_ts(&self) -> Snapshot {
        Snapshot::at(Timestamp(self.committed.load(Ordering::Acquire)))
    }

    /// Pins the latest committed state: every version it sees keeps its
    /// payload until the returned guard — and every clone of it — is dropped.
    pub fn pin(self: &Arc<Self>) -> SnapshotPin {
        let mut pins = self.pins.lock();
        let snapshot = self.read_ts();
        *pins.entry(snapshot.ts.0).or_default() += 1;
        SnapshotPin {
            oracle: Arc::clone(self),
            snapshot,
        }
    }

    /// The low-water mark: the oldest pinned snapshot, or the committed
    /// timestamp when nothing is pinned. No reader sees, or will see, a
    /// version that ended at or before it.
    pub fn low_water(&self) -> Timestamp {
        let pins = self.pins.lock();
        let oldest = pins.keys().next().copied();
        Timestamp(oldest.unwrap_or_else(|| self.committed.load(Ordering::Acquire)))
    }

    /// Pins held now: a count that never falls back to 0 on an idle server
    /// is a leaked pin.
    pub fn pin_count(&self) -> usize {
        self.pins.lock().values().sum()
    }

    /// Allocates a fresh commit timestamp (strictly increasing).
    pub fn next_commit_ts(&self) -> Timestamp {
        Timestamp(self.next.fetch_add(1, Ordering::AcqRel))
    }

    /// Restores the oracle after recovery: the committed watermark jumps to
    /// `ts` (the largest replayed commit timestamp) and subsequent
    /// [`TimestampOracle::next_commit_ts`] calls allocate strictly after it,
    /// so post-recovery commits order after everything the log replayed.
    pub fn restore(&self, ts: Timestamp) {
        self.publish(ts);
        self.next.fetch_max(ts.0 + 1, Ordering::AcqRel);
    }

    /// Publishes a commit timestamp: snapshots taken afterwards will see all
    /// versions written with timestamps `<= ts`. Monotonic: publishing an
    /// older timestamp changes nothing.
    pub fn publish(&self, ts: Timestamp) {
        self.committed.fetch_max(ts.0, Ordering::AcqRel);
    }
}

/// A pinned read snapshot ([`TimestampOracle::pin`]): derefs to the
/// [`Snapshot`] and holds the low-water mark at or below it until dropped. A
/// clone is one more pin of the same snapshot.
pub struct SnapshotPin {
    oracle: Arc<TimestampOracle>,
    snapshot: Snapshot,
}

impl Deref for SnapshotPin {
    type Target = Snapshot;
    fn deref(&self) -> &Snapshot {
        &self.snapshot
    }
}

impl Clone for SnapshotPin {
    fn clone(&self) -> Self {
        let mut pins = self.oracle.pins.lock();
        *pins.entry(self.snapshot.ts.0).or_default() += 1;
        SnapshotPin {
            oracle: Arc::clone(&self.oracle),
            snapshot: self.snapshot,
        }
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        let (mut pins, ts) = (self.oracle.pins.lock(), self.snapshot.ts.0);
        let count = pins.get_mut(&ts).expect("a pin is registered");
        *count -= 1;
        if *count == 0 {
            pins.remove(&ts);
        }
    }
}

impl fmt::Debug for SnapshotPin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SnapshotPin")
            .field(&self.snapshot.ts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_visibility_window() {
        let snap = Snapshot::at(Timestamp(5));
        assert!(snap.sees(Timestamp(0), TS_INFINITY));
        assert!(snap.sees(Timestamp(5), TS_INFINITY));
        assert!(!snap.sees(Timestamp(6), TS_INFINITY));
        assert!(!snap.sees(Timestamp(0), Timestamp(5))); // deleted at 5
        assert!(snap.sees(Timestamp(0), Timestamp(6)));
    }

    #[test]
    fn oracle_monotonic_commit_timestamps() {
        let oracle = TimestampOracle::new();
        let a = oracle.next_commit_ts();
        let b = oracle.next_commit_ts();
        assert!(b > a);
    }

    #[test]
    fn publish_makes_writes_visible() {
        let oracle = TimestampOracle::new();
        assert_eq!(oracle.read_ts(), Snapshot::at(Timestamp(0)));
        let ts = oracle.next_commit_ts();
        // Not yet visible.
        assert!(oracle.read_ts().ts < ts);
        oracle.publish(ts);
        assert_eq!(oracle.read_ts().ts, ts);
        // Publishing an older timestamp does not move the snapshot backwards.
        oracle.publish(Timestamp(0));
        assert_eq!(oracle.read_ts().ts, ts);
    }

    #[test]
    fn publish_is_thread_safe_max() {
        use std::sync::Arc;
        let oracle = Arc::new(TimestampOracle::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let o = Arc::clone(&oracle);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let ts = o.next_commit_ts();
                    o.publish(ts);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(oracle.read_ts().ts, Timestamp(4000));
    }

    /// The low-water mark is the oldest pin, or the committed timestamp
    /// when nothing is pinned; a clone is a pin of its own.
    #[test]
    fn the_low_water_mark_is_the_oldest_pin() {
        let oracle = Arc::new(TimestampOracle::new());
        let commit = |oracle: &TimestampOracle| oracle.publish(oracle.next_commit_ts());
        commit(&oracle);
        let first = oracle.pin();
        assert_eq!(first.ts, Timestamp(1));
        commit(&oracle);
        commit(&oracle);
        let second = oracle.pin();
        let copy = first.clone();
        assert_eq!((oracle.low_water(), oracle.pin_count()), (Timestamp(1), 3));
        drop(first);
        assert_eq!(oracle.low_water(), Timestamp(1), "the clone still pins it");
        drop(copy);
        assert_eq!(oracle.low_water(), Timestamp(3));
        drop(second);
        commit(&oracle);
        assert_eq!((oracle.low_water(), oracle.pin_count()), (Timestamp(4), 0));
    }

    #[test]
    fn restore_resumes_strictly_after_replayed_commits() {
        let oracle = TimestampOracle::new();
        oracle.restore(Timestamp(42));
        assert_eq!(oracle.read_ts().ts, Timestamp(42));
        assert!(oracle.next_commit_ts() > Timestamp(42));
        // Restoring backwards is a no-op.
        oracle.restore(Timestamp(3));
        assert_eq!(oracle.read_ts().ts, Timestamp(42));
        assert!(oracle.next_commit_ts() > Timestamp(43));
    }
}
