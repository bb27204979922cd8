//! Minimal in-repo stand-in for the `crossbeam-channel` API: an unbounded
//! multi-producer **multi-consumer** FIFO channel built on a mutex-protected
//! queue and a condition variable. The build environment has no network access
//! to crates.io, so the workspace vendors the slice of the API SharedDB uses:
//! `unbounded`, clonable `Sender`/`Receiver`, `send`, `recv`, `recv_timeout`
//! and `try_recv` with crossbeam's disconnect semantics (a channel is
//! disconnected when all peers on the other side dropped; a disconnected
//! channel still drains buffered messages).

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    signal: Condvar,
}

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers blocked on `signal`. `std`'s condition variable makes its
    /// `futex` call whether or not anyone waits; like the real crate, `send`
    /// and the last `Sender`'s drop notify only when someone does.
    waiting: usize,
}

/// Error returned by [`Sender::send`] when all receivers dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and all
/// senders dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty and disconnected channel")
    }
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed before a message arrived.
    Timeout,
    /// The channel is empty and all senders dropped.
    Disconnected,
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and all senders dropped.
    Disconnected,
}

/// The sending half of a channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a channel. Clonable: clones compete for messages.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

/// Creates an unbounded mpmc channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            waiting: 0,
        }),
        signal: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueues a message; fails when every receiver dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.receivers == 0 {
            return Err(SendError(value));
        }
        inner.queue.push_back(value);
        let waiting = inner.waiting > 0;
        drop(inner);
        if waiting {
            self.shared.signal.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.senders -= 1;
        let wake = inner.senders == 0 && inner.waiting > 0;
        drop(inner);
        if wake {
            // Wake blocked receivers so they observe the disconnect.
            self.shared.signal.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message is available or all senders dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(value) = inner.queue.pop_front() {
                return Ok(value);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner.waiting += 1;
            inner = self
                .shared
                .signal
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
            inner.waiting -= 1;
        }
    }

    /// Blocks until a message is available, all senders dropped, or `timeout`
    /// elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(value) = inner.queue.pop_front() {
                return Ok(value);
            }
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            inner.waiting += 1;
            let (guard, _) = self
                .shared
                .signal
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
            inner.waiting -= 1;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(value) = inner.queue.pop_front() {
            return Ok(value);
        }
        if inner.senders == 0 {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// True when no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .receivers += 1;
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn drained_after_sender_drop_then_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn recv_timeout_times_out() {
        let (tx, rx) = unbounded::<i32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_to_dropped_receiver_fails() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }

    #[test]
    fn cloned_receivers_compete() {
        let (tx, rx1) = unbounded();
        let rx2 = rx1.clone();
        let t1 = std::thread::spawn(move || rx1.recv().ok());
        let t2 = std::thread::spawn(move || rx2.recv().ok());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let mut got = vec![t1.join().unwrap(), t2.join().unwrap()];
        got.sort();
        assert_eq!(got, vec![Some(1), Some(2)]);
    }

    /// Two threads bounce one message over two channels: every `send` either
    /// finds its receiver counted as waiting or was seen by its check of the
    /// queue. A lost wake hangs both; the timed receive fails the test.
    #[test]
    fn ping_pong_loses_no_wake() {
        const ROUNDS: u32 = 100_000;
        let (ping_tx, ping_rx) = unbounded::<u32>();
        let (pong_tx, pong_rx) = unbounded::<u32>();
        let echo = std::thread::spawn(move || {
            while let Ok(n) = ping_rx.recv() {
                pong_tx.send(n).unwrap();
            }
        });
        for n in 0..ROUNDS {
            ping_tx.send(n).unwrap();
            let back = pong_rx.recv_timeout(Duration::from_secs(60));
            assert_eq!(back, Ok(n), "a wake was lost");
        }
        // The last sender's drop wakes the receiver blocked in `recv`.
        drop(ping_tx);
        echo.join().unwrap();
    }

    #[test]
    fn send_without_a_waiter_is_still_received() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(1));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        assert_eq!(rx.shared.inner.lock().unwrap().waiting, 0);
    }
}
