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
//! payload back (`Table::reclaim`). A commit that starts while nothing is
//! pinned may write an update over its version in place
//! (`Table::update_rows`): no reader sees the version it replaces. No
//! snapshot is pinned from its start until it is published
//! (`TimestampOracle::begin_commit`), so none can miss the row.

use shareddb_common::ids::Timestamp;
use shareddb_common::sync::{Condvar, Mutex};
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
    /// The pinned snapshots and the commits that keep pinners out. Pinning
    /// and the low-water mark read `committed` under this lock, so no reader
    /// reads a timestamp the mark has already passed.
    pins: Mutex<Pins>,
    /// Notified when the last commit that started unpinned is published.
    unpinned_done: Condvar,
}

/// The pin registry of a [`TimestampOracle`].
#[derive(Default)]
struct Pins {
    /// How many pins hold each timestamp.
    held: BTreeMap<u64, usize>,
    /// Commits in flight that started while nothing was pinned: each may
    /// overwrite versions in place, so no snapshot is pinned until the last
    /// of them is published.
    unpinned_commits: usize,
    /// Pinners waiting for those commits. A commit that starts while one
    /// waits counts as pinned, so a pinner waits only for the commits
    /// already in flight when it came.
    waiting: usize,
}

impl Pins {
    fn add(&mut self, ts: Timestamp) {
        *self.held.entry(ts.0).or_default() += 1;
    }
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
            unpinned_done: Condvar::new(),
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
    /// Waits for the commits in flight that started while nothing was pinned
    /// (`begin_commit`); hold no table lock while pinning, as those
    /// commits may wait for it.
    pub fn pin(self: &Arc<Self>) -> SnapshotPin {
        let mut pins = self.pins.lock();
        if pins.unpinned_commits > 0 {
            pins.waiting += 1;
            while pins.unpinned_commits > 0 {
                pins = self.unpinned_done.wait(pins);
            }
            pins.waiting -= 1;
        }
        let snapshot = self.read_ts();
        pins.add(snapshot.ts);
        SnapshotPin {
            oracle: Arc::clone(self),
            snapshot,
        }
    }

    /// The low-water mark: the oldest pinned snapshot, or the committed
    /// timestamp when nothing is pinned. No reader sees, or will see, a
    /// version that ended at or before it.
    pub fn low_water(&self) -> Timestamp {
        self.low_water_of(&self.pins.lock())
    }

    /// [`Self::low_water`] of the pin registry, held by the caller.
    fn low_water_of(&self, pins: &Pins) -> Timestamp {
        let oldest = pins.held.keys().next().copied();
        Timestamp(oldest.unwrap_or_else(|| self.committed.load(Ordering::Acquire)))
    }

    /// Pins held now: a count that never falls back to 0 on an idle server
    /// is a leaked pin.
    pub fn pin_count(&self) -> usize {
        self.pins.lock().held.values().sum()
    }

    /// Allocates a fresh commit timestamp (strictly increasing).
    pub fn next_commit_ts(&self) -> Timestamp {
        Timestamp(self.next.fetch_add(1, Ordering::AcqRel))
    }

    /// Opens a commit: allocates its timestamp and tells it whether a
    /// snapshot is pinned ([`Commit::pinned`]). One that starts while
    /// nothing is pinned keeps pinners out until it is published, so no
    /// snapshot taken meanwhile can miss a version it overwrote in place.
    /// Only [`Self::pin`] waits, and only for the commits in flight when it
    /// came.
    pub(crate) fn begin_commit(&self) -> Commit<'_> {
        let mut pins = self.pins.lock();
        let pinned = !pins.held.is_empty() || pins.waiting > 0;
        if !pinned {
            pins.unpinned_commits += 1;
        }
        Commit {
            oracle: self,
            ts: self.next_commit_ts(),
            pinned,
        }
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

/// A commit in progress ([`TimestampOracle::begin_commit`]). It is
/// published when dropped, however it ends: a commit whose log failed has
/// written its tables all the same, and the next commit would show them.
pub(crate) struct Commit<'o> {
    oracle: &'o TimestampOracle,
    /// The commit timestamp.
    pub(crate) ts: Timestamp,
    /// True when a snapshot was pinned, or a pinner waited, as the commit
    /// started: it may see any version the commit writes over, so every
    /// update appends. False: none is pinned until the commit is published.
    pub(crate) pinned: bool,
}

impl Commit<'_> {
    /// Publishes the commit and returns the low-water mark after it
    /// ([`TimestampOracle::low_water`]).
    pub(crate) fn publish(self) -> Timestamp {
        let oracle = self.oracle;
        drop(self);
        oracle.low_water()
    }
}

impl Drop for Commit<'_> {
    fn drop(&mut self) {
        self.oracle.publish(self.ts);
        if !self.pinned {
            let mut pins = self.oracle.pins.lock();
            pins.unpinned_commits -= 1;
            if pins.unpinned_commits == 0 {
                self.oracle.unpinned_done.notify_all();
            }
        }
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
        self.oracle.pins.lock().add(self.snapshot.ts);
        SnapshotPin {
            oracle: Arc::clone(&self.oracle),
            snapshot: self.snapshot,
        }
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        let (mut pins, ts) = (self.oracle.pins.lock(), self.snapshot.ts.0);
        let count = pins.held.get_mut(&ts).expect("a pin is registered");
        *count -= 1;
        if *count == 0 {
            pins.held.remove(&ts);
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

    /// A commit that starts while nothing is pinned keeps pinners out until
    /// it is published; the low-water mark does not wait for it. One that
    /// starts while a pinner waits counts as pinned and keeps no one out,
    /// and a commit dropped unpublished — its log failed — is published all
    /// the same.
    #[test]
    fn an_unpinned_commit_keeps_pinners_out_until_it_is_published() {
        let oracle = Arc::new(TimestampOracle::new());
        let first = oracle.begin_commit();
        assert_eq!((first.ts, first.pinned), (Timestamp(1), false));
        assert_eq!(oracle.low_water(), Timestamp(0));
        let pinner = std::thread::spawn({
            let oracle = Arc::clone(&oracle);
            move || oracle.pin()
        });
        while oracle.pins.lock().waiting == 0 && !pinner.is_finished() {
            std::thread::yield_now();
        }
        let second = oracle.begin_commit();
        assert!(second.pinned, "a pinner waits");
        assert!(!pinner.is_finished(), "a pin was taken inside a commit");
        assert_eq!(first.publish(), Timestamp(1));
        let pin = pinner.join().unwrap();
        assert_eq!(pin.ts, Timestamp(1));
        assert_eq!(oracle.pin().ts, Timestamp(1), "the second commit is pinned");
        drop(second);
        assert_eq!(oracle.read_ts().ts, Timestamp(2));
        drop(pin);
        assert!(!oracle.begin_commit().pinned);
        assert_eq!((oracle.pin().ts, oracle.pin_count()), (Timestamp(3), 1));
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
