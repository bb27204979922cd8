//! Batch-lifecycle trace: two records and the bounded ring that holds them.
//!
//! The coordinator pushes one [`TraceEvent::Batch`] per batch that runs
//! queries — its statement counts and each active operator's tuples and
//! busy time — and one [`TraceEvent::Statement`] per answered statement,
//! query or update: its batch, its rows and its phase breakdown. A
//! batch's statement-type mix is its `Statement` records; Γ routing is
//! their rows. The ring has a fixed capacity (records beyond it evict the
//! oldest), so tracing is always on with a hard memory bound; `seq` numbers
//! are monotonic, which makes evicted gaps visible to a consumer.
//!
//! The slow-query log is a second, smaller [`Ring`] of the same
//! [`StatementRecord`]s, those whose latency crossed the engine's
//! threshold. Records carry registry and plan indexes; names are resolved
//! where records are read ([`TraceEvent::describe`], the `trace_dump` bench
//! bin).

use shareddb_common::ids::Timestamp;
use shareddb_common::sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Records an engine's trace ring retains.
pub(crate) const TRACE_CAPACITY: usize = 1024;

/// Records an engine's slow-query log retains.
pub(crate) const SLOW_LOG_CAPACITY: usize = 128;

/// One answered statement: where it ran and where its time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatementRecord {
    /// Sequence number of the batch that answered it.
    pub batch: u64,
    /// Statement registry index.
    pub statement: usize,
    /// Ticket of the execution.
    pub ticket: u64,
    /// Rows routed to the client (0 for failures and updates).
    pub rows: usize,
    /// Whether the statement completed successfully.
    pub ok: bool,
    /// Submission → enqueued: binding and enqueueing.
    pub admission: Duration,
    /// Enqueued → the batch taken up: waiting for the batch ahead.
    pub batch_wait: Duration,
    /// The batch taken up → answered: the shared execution cycle.
    pub execute: Duration,
    /// End-to-end latency (submission → answered).
    pub total: Duration,
}

/// One record of the trace ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A batch's cycle, recorded once its operators are done.
    Batch {
        /// Batch sequence number.
        batch: u64,
        /// Queries in the batch.
        queries: usize,
        /// Updates in the batch.
        updates: usize,
        /// The commit timestamp every read of the batch saw: its snapshot,
        /// taken after its own updates.
        snapshot: Timestamp,
        /// `(operator id, tuples emitted, busy time)` of every operator that
        /// had a task this cycle, ids ascending (resolve names via the plan).
        operators: Vec<(usize, usize, Duration)>,
    },
    /// A statement of a batch was answered.
    Statement(StatementRecord),
}

/// One retained record: its place in the ring's history, when it was
/// pushed, and the record.
#[derive(Debug, Clone)]
pub struct Stamped<T> {
    /// Monotonic sequence number (gaps = evicted records).
    pub seq: u64,
    /// Time since the ring was created.
    pub at: Duration,
    /// The record.
    pub event: T,
}

/// One record of the trace ring, stamped.
pub type TraceRecord = Stamped<TraceEvent>;

/// A bounded ring of stamped records: the oldest is evicted at capacity.
///
/// The coordinator writes an engine's rings once per statement, so each
/// sits on cache lines of its own, as [`crate::Engine`]'s admission state
/// does: a field another thread reads beside it would be evicted from that
/// thread's cache by every push.
#[derive(Debug)]
#[repr(align(128))]
pub struct Ring<T> {
    start: Instant,
    capacity: usize,
    pushed: AtomicU64,
    records: Mutex<VecDeque<Stamped<T>>>,
}

impl<T: Clone> Ring<T> {
    /// A ring retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            start: Instant::now(),
            capacity,
            pushed: AtomicU64::new(0),
            records: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Appends one record, evicting the oldest at capacity.
    pub fn push(&self, event: T) {
        let record = Stamped {
            seq: self.pushed.fetch_add(1, Ordering::Relaxed),
            at: self.start.elapsed(),
            event,
        };
        let mut records = self.records.lock();
        if records.len() >= self.capacity {
            records.pop_front();
        }
        records.push_back(record);
    }

    /// Copies the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<Stamped<T>> {
        self.records.lock().iter().cloned().collect()
    }

    /// Records ever pushed (retained or evicted) since creation or the last
    /// [`Ring::reset`].
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Drops every retained record and zeroes the pushed count.
    pub fn reset(&self) {
        let mut records = self.records.lock();
        records.clear();
        self.pushed.store(0, Ordering::Relaxed);
    }
}

impl TraceEvent {
    /// One line for humans, operator and statement names resolved by index
    /// (`?` for an index out of range).
    pub fn describe(&self, operators: &[String], statements: &[String]) -> String {
        fn name(names: &[String], i: usize) -> &str {
            names.get(i).map_or("?", String::as_str)
        }
        match self {
            TraceEvent::Batch {
                batch,
                queries,
                updates,
                snapshot,
                operators: fired,
            } => {
                let fired: Vec<String> = fired
                    .iter()
                    .map(|&(id, tuples, busy)| {
                        format!(
                            "{} {tuples} tuples {}us",
                            name(operators, id),
                            busy.as_micros()
                        )
                    })
                    .collect();
                format!(
                    "batch {batch}: {queries} queries, {updates} updates at ts {}; {}",
                    snapshot.0,
                    fired.join(", ")
                )
            }
            TraceEvent::Statement(s) => format!(
                "statement {}: batch {}, ticket {}, {} rows, ok={}; admission {}us, \
                 batch wait {}us, execute {}us, total {}us",
                name(statements, s.statement),
                s.batch,
                s.ticket,
                s.rows,
                s.ok,
                s.admission.as_micros(),
                s.batch_wait.as_micros(),
                s.execute.as_micros(),
                s.total.as_micros(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(batch: u64) -> TraceEvent {
        TraceEvent::Batch {
            batch,
            queries: 1,
            updates: 0,
            snapshot: Timestamp(12),
            operators: vec![(0, 3, Duration::from_micros(5))],
        }
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let ring = Ring::new(4);
        for i in 0..10u64 {
            ring.push(batch(i));
        }
        let records = ring.snapshot();
        assert_eq!(records.len(), 4);
        assert_eq!(ring.pushed(), 10);
        // Oldest evicted, order preserved, seq numbers contiguous at the tail.
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert!(records.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(records[0].event, batch(6));
        ring.reset();
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.pushed(), 0);
    }

    #[test]
    fn slow_query_log_is_bounded() {
        let slow = Ring::new(SLOW_LOG_CAPACITY);
        for i in 0..(SLOW_LOG_CAPACITY + 10) {
            slow.push(StatementRecord {
                batch: 1,
                statement: i,
                ticket: i as u64,
                rows: 0,
                ok: true,
                admission: Duration::ZERO,
                batch_wait: Duration::ZERO,
                execute: Duration::ZERO,
                total: Duration::from_millis(i as u64),
            });
        }
        let tail = slow.snapshot();
        assert_eq!(slow.pushed(), (SLOW_LOG_CAPACITY + 10) as u64);
        assert_eq!(tail.len(), SLOW_LOG_CAPACITY);
        // The oldest entries were dropped.
        assert_eq!(tail[0].event.statement, 10);
    }

    #[test]
    fn events_render_for_humans() {
        let operators = ["Scan(ITEM)#0".to_string()];
        let statements = ["a".to_string(), "getItem".to_string()];
        let s = batch(7).describe(&operators, &statements);
        assert!(s.contains("batch 7: 1 queries, 0 updates at ts 12; "));
        assert!(s.contains("Scan(ITEM)#0 3 tuples 5us"));
        let statement = TraceEvent::Statement(StatementRecord {
            batch: 9,
            statement: 1,
            ticket: 99,
            rows: 3,
            ok: true,
            admission: Duration::ZERO,
            batch_wait: Duration::from_micros(2),
            execute: Duration::from_micros(4),
            total: Duration::from_micros(6),
        });
        let s = statement.describe(&operators, &statements);
        assert!(s.contains("statement getItem: batch 9, ticket 99, 3 rows"));
        assert!(s.contains("total 6us"));
        let unknown = TraceEvent::Batch {
            batch: 1,
            queries: 0,
            updates: 0,
            snapshot: Timestamp(1),
            operators: vec![(5, 0, Duration::ZERO)],
        };
        assert!(unknown
            .describe(&operators, &statements)
            .contains("? 0 tuples"));
    }
}
