//! Batch-lifecycle trace journal.
//!
//! A bounded ring buffer of lifecycle events — batch formed → operators
//! fired → queries routed — recorded by the coordinator thread as it drives
//! each batch. The ring
//! has a fixed capacity (events beyond it evict the oldest), so tracing is
//! always-on with a hard memory bound; `seq` numbers are global and
//! monotonic, which makes evicted gaps visible to a consumer.
//!
//! The journal answers the question percentiles cannot: *what did this
//! particular batch do* — how many statements it carried, which operators
//! actually fired and for how long, and where each query's rows went. The
//! `trace_dump` bench bin prints a captured journal in lifecycle order.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One batch-lifecycle event.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// The coordinator drained the admission queue into a batch.
    BatchFormed {
        /// Batch sequence number.
        batch: u64,
        /// Queries admitted into the batch.
        queries: usize,
        /// Updates admitted into the batch.
        updates: usize,
        /// Statement-type mix of the batch: `(statement registry index,
        /// count)` over queries **and** updates, indexes ascending, zero
        /// counts omitted. This is the activation mix operator busy time is
        /// attributed by.
        mix: Vec<(usize, usize)>,
    },
    /// All operators of one cycle completed (one event per batch).
    OperatorsFired {
        /// Batch sequence number.
        batch: u64,
        /// Operators that ran the cycle (always the full plan).
        fired: usize,
        /// Operators that had at least one active query this cycle.
        active: usize,
        /// Sum of per-operator busy time this cycle, µs.
        total_busy_us: u64,
    },
    /// One operator's share of a cycle (recorded for active operators only).
    OperatorFired {
        /// Batch sequence number.
        batch: u64,
        /// Operator id (index into the plan; resolve names via the plan).
        operator: usize,
        /// Tuples the operator emitted.
        tuples: usize,
        /// Busy time, µs.
        busy_us: u64,
    },
    /// One query's rows were routed back to its client (Γ step).
    QueryRouted {
        /// Batch sequence number.
        batch: u64,
        /// Statement registry index.
        statement: usize,
        /// Ticket of the execution.
        ticket: u64,
        /// Rows routed (0 for failures and updates).
        rows: usize,
        /// Whether the statement completed successfully.
        ok: bool,
    },
}

/// One journal entry: a sequence number, an offset from journal start, and
/// the event.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Global monotonic sequence number (gaps = evicted events).
    pub seq: u64,
    /// Time since the journal was created.
    pub at: Duration,
    /// The event.
    pub event: TraceEvent,
}

/// Bounded ring buffer of [`TraceRecord`]s.
///
/// The coordinator writes it once per statement, so it sits on cache lines
/// of its own, as [`crate::Engine`]'s admission state does: a field another
/// thread reads beside it would be evicted from that thread's cache by every
/// push.
#[derive(Debug)]
#[repr(align(128))]
pub struct TraceJournal {
    start: Instant,
    capacity: usize,
    seq: AtomicU64,
    ring: Mutex<VecDeque<TraceRecord>>,
}

impl TraceJournal {
    /// A journal retaining at most `capacity` events (0 = tracing disabled,
    /// every push is a no-op).
    pub fn new(capacity: usize) -> TraceJournal {
        TraceJournal {
            start: Instant::now(),
            capacity,
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one event, evicting the oldest at capacity.
    pub fn push(&self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        let record = TraceRecord {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            at: self.start.elapsed(),
            event,
        };
        let mut ring = self.ring.lock();
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Copies the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Total events ever pushed (retained or evicted).
    pub fn pushed(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Drops every retained event (sequence numbers keep counting).
    pub fn clear(&self) {
        self.ring.lock().clear();
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::BatchFormed {
                batch,
                queries,
                updates,
                mix,
            } => {
                write!(
                    f,
                    "batch {batch} formed: {queries} queries, {updates} updates"
                )?;
                if !mix.is_empty() {
                    write!(f, ", mix [")?;
                    for (i, (statement, count)) in mix.iter().enumerate() {
                        let sep = if i == 0 { "" } else { ", " };
                        write!(f, "{sep}#{statement}\u{00d7}{count}")?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
            TraceEvent::OperatorsFired {
                batch,
                fired,
                active,
                total_busy_us,
            } => write!(
                f,
                "batch {batch} operators fired: {fired} total, {active} active, {total_busy_us}us busy"
            ),
            TraceEvent::OperatorFired {
                batch,
                operator,
                tuples,
                busy_us,
            } => write!(
                f,
                "batch {batch} operator #{operator}: {tuples} tuples, {busy_us}us"
            ),
            TraceEvent::QueryRouted {
                batch,
                statement,
                ticket,
                rows,
                ok,
            } => write!(
                f,
                "batch {batch} routed statement #{statement} ticket {ticket}: {rows} rows, ok={ok}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_is_bounded_and_ordered() {
        let journal = TraceJournal::new(4);
        for i in 0..10u64 {
            journal.push(TraceEvent::BatchFormed {
                batch: i,
                queries: 1,
                updates: 0,
                mix: vec![(0, 1)],
            });
        }
        let records = journal.snapshot();
        assert_eq!(records.len(), 4);
        assert_eq!(journal.pushed(), 10);
        // Oldest evicted, order preserved, seq numbers contiguous at the tail.
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert!(records.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn zero_capacity_disables_tracing() {
        let journal = TraceJournal::new(0);
        journal.push(TraceEvent::BatchFormed {
            batch: 1,
            queries: 0,
            updates: 0,
            mix: Vec::new(),
        });
        assert!(journal.snapshot().is_empty());
        assert_eq!(journal.pushed(), 0);
    }

    #[test]
    fn events_render_for_humans() {
        let e = TraceEvent::QueryRouted {
            batch: 7,
            statement: 2,
            ticket: 99,
            rows: 3,
            ok: true,
        };
        let s = format!("{e}");
        assert!(s.contains("batch 7"));
        assert!(s.contains("3 rows"));
        let formed = TraceEvent::BatchFormed {
            batch: 9,
            queries: 6,
            updates: 1,
            mix: vec![(0, 4), (2, 3)],
        };
        let s = format!("{formed}");
        assert!(s.contains("mix [#0\u{00d7}4, #2\u{00d7}3]"));
    }
}
