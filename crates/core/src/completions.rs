//! The hand-off of outcomes from coordinators to whoever reads them: a
//! statement names a queue and a tag ([`crate::SubmitOptions::completions`]),
//! its coordinator pushes the outcome there at the batch barrier, one reader
//! takes what has gathered. A push wakes the reader **iff it found the queue
//! empty** — a reader that was woken and has not looked yet finds everything
//! pushed since — so a batch of outcomes costs one wake per drain of the
//! reader, a lone outcome exactly one, and no threshold or timer is needed:
//! the reader's own pace sets how much one wake carries.

use crate::engine::QueryOutcome;
use shareddb_common::sync::{Condvar, Mutex};
use shareddb_common::Result;
use std::sync::Arc;
use std::time::Instant;

/// One completed statement: the tag its submitter chose, and the outcome.
pub type Completion = (u64, Result<QueryOutcome>);

/// The multi-producer, wake-on-empty queue of [`Completion`]s.
pub struct Completions {
    /// The oldest outcome, held in place — a queue that never holds more (a
    /// statement's private target) never allocates — and those behind it.
    queue: Mutex<(Option<Completion>, Vec<Completion>)>,
    /// Where a blocking reader parks ([`crate::engine::QueryHandle::wait`]);
    /// notifying it is a load while nobody is parked.
    parked: Condvar,
    /// How a reader that sleeps elsewhere (an event loop in its poll) is
    /// woken.
    wake: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl std::fmt::Debug for Completions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completions").finish_non_exhaustive()
    }
}

impl Completions {
    /// A queue whose reader is woken by calling `wake` (on the pushing
    /// thread) and then collects with [`Completions::take`]. Without one it
    /// is the private target of a statement submitted without a queue.
    pub fn new(wake: Option<Arc<dyn Fn() + Send + Sync>>) -> Completions {
        Completions {
            queue: Mutex::new((None, Vec::new())),
            parked: Condvar::new(),
            wake,
        }
    }

    /// Queues one outcome. Returns whether the reader was woken, which it is
    /// iff the queue was empty.
    pub fn push(&self, tag: u64, outcome: Result<QueryOutcome>) -> bool {
        let mut queue = self.queue.lock();
        let was_empty = queue.0.is_none();
        if was_empty {
            queue.0 = Some((tag, outcome));
        } else {
            queue.1.push((tag, outcome));
        }
        drop(queue);
        if was_empty {
            self.parked.notify_all();
            if let Some(wake) = &self.wake {
                wake();
            }
        }
        was_empty
    }

    /// Moves everything queued to the end of `into`, in push order.
    pub fn take(&self, into: &mut Vec<Completion>) {
        let mut queue = self.queue.lock();
        into.extend(queue.0.take());
        into.append(&mut queue.1);
    }

    /// Removes one outcome, parking until `deadline` (forever without one)
    /// while there is none. `None`: the deadline passed.
    pub(crate) fn wait(&self, deadline: Option<Instant>) -> Option<Result<QueryOutcome>> {
        let mut queue = self.queue.lock();
        loop {
            if let Some((_, outcome)) = queue.0.take() {
                queue.0 = queue.1.pop();
                return Some(outcome);
            }
            match deadline {
                None => queue = self.parked.wait(queue),
                Some(deadline) => {
                    let left = deadline.checked_duration_since(Instant::now())?;
                    queue = self.parked.wait_timeout(queue, left).0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryOutcome;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn updated(rows_affected: usize) -> Result<QueryOutcome> {
        Ok(QueryOutcome::Updated { rows_affected })
    }

    fn counted() -> (Arc<AtomicU64>, Completions) {
        let wakes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&wakes);
        let wake = move || {
            counter.fetch_add(1, Ordering::SeqCst);
        };
        (wakes, Completions::new(Some(Arc::new(wake))))
    }

    #[test]
    fn only_a_push_into_an_empty_queue_wakes() {
        let (wakes, queue) = counted();
        let woke: Vec<bool> = (0..5).map(|tag| queue.push(tag, updated(0))).collect();
        assert_eq!(woke, [true, false, false, false, false]);
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        let mut taken = Vec::new();
        queue.take(&mut taken);
        let tags: Vec<u64> = taken.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, [0, 1, 2, 3, 4]);
        assert!(queue.push(5, updated(0)));
        assert!(!queue.push(6, updated(0)));
        assert_eq!(wakes.load(Ordering::SeqCst), 2);
        // `take` appends: what the reader had not worked off stays.
        queue.take(&mut taken);
        assert_eq!(taken.len(), 7);
    }

    #[test]
    fn a_slot_parks_its_reader_until_the_outcome_or_the_deadline() {
        let slot = Arc::new(Completions::new(None));
        let soon = Instant::now() + Duration::from_millis(10);
        assert!(slot.wait(Some(soon)).is_none());
        let pusher = Arc::clone(&slot);
        let pushing = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            pusher.push(0, updated(7))
        });
        let outcome = slot.wait(None).unwrap().unwrap();
        assert_eq!(outcome.rows_affected(), 7);
        assert!(pushing.join().unwrap());
        assert!(slot.wait(Some(Instant::now())).is_none());
    }

    /// Four producers against a reader that looks only when woken and
    /// dawdles before it does: every outcome arrives once, and a queue that
    /// holds something has always a wake on its way — a wake skipped or lost
    /// leaves the reader asleep over a non-empty queue, and the timed wait
    /// fails the test.
    #[test]
    fn concurrent_producers_lose_nothing_and_strand_nothing() {
        const PRODUCERS: u64 = 4;
        const EACH: u64 = 50_000;
        let signal = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let waker = Arc::clone(&signal);
        let queue = Arc::new(Completions::new(Some(Arc::new(move || {
            *waker.0.lock().unwrap() = true;
            waker.1.notify_one();
        }))));
        let wakes = Arc::new(AtomicU64::new(0));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (queue, wakes) = (Arc::clone(&queue), Arc::clone(&wakes));
                std::thread::spawn(move || {
                    for i in 0..EACH {
                        if queue.push(p * EACH + i, updated(0)) {
                            wakes.fetch_add(1, Ordering::Relaxed);
                        }
                        // In bursts, as batches end: the queue runs empty
                        // between them, so the rule is exercised often.
                        if i % 64 == 63 {
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                })
            })
            .collect();
        let mut seen = vec![false; (PRODUCERS * EACH) as usize];
        let (mut received, mut drains, mut taken) = (0, 0u64, Vec::new());
        let mut dawdle = 0x9E37_79B9_7F4A_7C15u64;
        while received < PRODUCERS * EACH {
            let (woken, signalled) = &*signal;
            let guard = woken.lock().unwrap();
            let (mut guard, timeout) = signalled
                .wait_timeout_while(guard, Duration::from_secs(60), |woken| !*woken)
                .unwrap();
            assert!(!timeout.timed_out(), "asleep with {received} received");
            *guard = false;
            drop(guard);
            dawdle ^= dawdle << 13;
            dawdle ^= dawdle >> 7;
            dawdle ^= dawdle << 17;
            std::thread::sleep(Duration::from_micros(dawdle % 200));
            queue.take(&mut taken);
            drains += 1;
            for (tag, _) in taken.drain(..) {
                assert!(!std::mem::replace(&mut seen[tag as usize], true), "{tag}");
                received += 1;
            }
        }
        producers.into_iter().for_each(|p| p.join().unwrap());
        queue.take(&mut taken);
        assert!(taken.is_empty() && seen.iter().all(|s| *s));
        // One wake per drain that found something, at most.
        let wakes = wakes.load(Ordering::Relaxed);
        assert!(
            100 < wakes && wakes <= drains,
            "{wakes} wakes, {drains} drains"
        );
    }
}
