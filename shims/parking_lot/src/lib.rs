//! Minimal in-repo stand-in for the `parking_lot` API, implemented over
//! `std::sync`. The build environment has no network access to crates.io, so
//! the workspace vendors the small slice of the API SharedDB uses: panic-free
//! (poison-ignoring) `Mutex` / `RwLock` guards and a `Condvar` whose
//! `wait`/`wait_for` take the guard by `&mut` reference.

use std::sync;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A mutex whose `lock` never returns a poison error.
#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`].
///
/// Holds the inner std guard in an `Option` so [`Condvar`] can temporarily
/// take it out while waiting and put it back afterwards.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.0.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Mutable access without locking (requires exclusive access).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

/// A reader-writer lock whose guards never report poisoning.
#[derive(Default, Debug)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

/// Shared guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// Exclusive guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Creates a new lock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive access).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// Result of a timed wait: reports whether the wait timed out.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait returned because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable working on [`MutexGuard`]s by `&mut` reference.
///
/// Like the real crate's, a notify that finds nobody waiting is a load and a
/// return: `std`'s condition variable makes its `futex` call either way, and
/// the callers here notify once per statement with a waiter once per batch.
#[derive(Default, Debug)]
pub struct Condvar {
    inner: sync::Condvar,
    /// Threads between the start of a wait and their return from it. A
    /// waiter counts itself while it still holds the caller's mutex, so a
    /// notifier that changed the awaited state under that mutex either was
    /// seen by the waiter's check or sees the waiter here.
    waiters: AtomicUsize,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Blocks until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard taken");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
    }

    /// Blocks until notified or until `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard taken");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_one();
        }
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_notification_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }

    /// Two threads hand a turn back and forth, each notifying after it let
    /// go of the mutex: every notify either meets a counted waiter or was
    /// seen by the other side's check. A lost wake hangs a player; the timed
    /// receive turns that into a failure.
    #[test]
    fn ping_pong_loses_no_wake() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let (done, finished) = std::sync::mpsc::channel();
        for me in 0..2 {
            let (pair, done) = (Arc::clone(&pair), done.clone());
            std::thread::spawn(move || {
                let (turn, cv) = &*pair;
                for _ in 0..100_000 {
                    let mut turn = turn.lock();
                    while *turn % 2 != me {
                        cv.wait(&mut turn);
                    }
                    *turn += 1;
                    drop(turn);
                    cv.notify_one();
                }
                done.send(()).unwrap();
            });
        }
        for _ in 0..2 {
            let player = finished.recv_timeout(Duration::from_secs(120));
            player.expect("a wake was lost");
        }
        assert_eq!(*pair.0.lock(), 200_000);
    }

    #[test]
    fn notify_without_a_waiter_is_not_remembered() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        cv.notify_one();
        cv.notify_all();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(10)).timed_out());
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }
}
