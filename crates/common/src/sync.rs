//! The locks every SharedDB thread shares state through: `std::sync`'s, with
//! poisoning ignored and a condition variable that skips its system call
//! when nobody waits.
//!
//! A thread that panics while it holds a guard leaves the value as the panic
//! found it; the next `lock`, `read` or `write` hands it out anyway, so one
//! panic does not become a panic of every later caller of the same lock (the
//! server's shutdown, its `/metrics` and every statement read its engine
//! through one `RwLock`).
//!
//! [`Condvar`] counts its waiters. The callers notify once per statement and
//! have a waiter parked at most once per batch, and `std`'s notify makes its
//! `futex` call whether or not anyone waits; here a notify that finds no
//! waiter is one load and a return.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{
    self, MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};
use std::time::Duration;

/// A mutex whose [`Mutex::lock`] ignores poisoning.
#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the mutex is free, then holds it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose guards ignore poisoning.
#[derive(Debug)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until no writer holds the lock, then shares it.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until nobody holds the lock, then holds it alone.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable over [`Mutex`]'s guards, taken and returned by
/// value as `std`'s are.
///
/// The contract: a notifier changes the awaited state under the waiter's
/// mutex before it notifies (holding the mutex or after letting it go). A
/// waiter counts itself while it still holds that mutex, so the notifier
/// either changed the state before the waiter's check, which then sees it,
/// or finds the waiter counted.
#[derive(Default, Debug)]
pub struct Condvar {
    inner: sync::Condvar,
    /// Threads between the start of a wait and their return from it.
    waiters: AtomicUsize,
}

impl Condvar {
    /// A condition variable nobody waits on.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Lets go of `guard`'s mutex until notified (or woken spuriously),
    /// and returns holding it again.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let guard = self
            .inner
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard
    }

    /// [`Condvar::wait`] for at most `timeout`.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let woken = self
            .inner
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        woken
    }

    /// Wakes one waiter, if any waits.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_one();
        }
    }

    /// Wakes every waiter, if any waits.
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
    fn a_notify_wakes_the_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                done = cv.wait(done);
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
                        turn = cv.wait(turn);
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
        let (_guard, woken) = cv.wait_timeout(m.lock(), Duration::from_millis(10));
        assert!(woken.timed_out());
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    /// A thread that panics holding a guard poisons the `std` lock under
    /// it; every later `lock`, `read` and `write` still hands out the value
    /// the panicking thread left.
    #[test]
    fn a_panic_under_a_guard_does_not_lock_the_value_away() {
        let mutex = Arc::new(Mutex::new(1));
        let rwlock = Arc::new(RwLock::new(vec![1]));
        let (m, r) = (Arc::clone(&mutex), Arc::clone(&rwlock));
        let panicked = std::thread::spawn(move || {
            let mut held = m.lock();
            *held += 1;
            panic!("while holding the mutex");
        })
        .join();
        assert!(panicked.is_err() && mutex.0.is_poisoned());
        assert_eq!(*mutex.lock(), 2);
        *mutex.lock() += 1;
        assert_eq!(*mutex.lock(), 3);

        let panicked = std::thread::spawn(move || {
            let mut held = r.write();
            held.push(2);
            panic!("while holding the write guard");
        })
        .join();
        assert!(panicked.is_err() && rwlock.0.is_poisoned());
        assert_eq!(*rwlock.read(), [1, 2]);
        rwlock.write().push(3);
        assert_eq!(*rwlock.read(), [1, 2, 3]);

        let r = Arc::clone(&rwlock);
        let panicked = std::thread::spawn(move || {
            let _held = r.read();
            panic!("while holding a read guard");
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(rwlock.write().len(), 3);
    }
}
