//! # shareddb-common
//!
//! Foundational types shared by every SharedDB crate:
//!
//! * [`value`] — typed SQL values and data types.
//! * [`schema`] — columns, schemas and name resolution.
//! * [`tuple`](mod@tuple) — row representation.
//! * [`queryset`] — the NF² set-valued `query_id` attribute of the paper's
//!   *data-query model* (Section 3.1), implemented as a sorted list.
//! * [`qtuple`] — a tuple annotated with the set of interested queries.
//! * [`expr`] — scalar expressions and predicates, with parameter binding.
//! * [`agg`] — aggregate functions and accumulators.
//! * [`sort`] — sort specifications and comparators.
//! * [`wordtable`] — the hash table of the row path, over the hash words of
//!   [`value`].
//! * [`ids`] — strongly-typed identifiers (queries, tables, clients, ...).
//! * [`metrics`] — lock-free histograms, counters, gauges and registries.
//! * [`codec`] — the byte codec of values, shared by the wire protocol and
//!   the write-ahead log.
//! * [`crc32`](mod@crc32) — hand-rolled CRC-32 for the WAL / checkpoint on-disk framing.
//! * [`sync`] — the locks: poison-ignoring `Mutex` / `RwLock` and a
//!   `Condvar` that makes no system call while nobody waits.
//! * [`error`] — the common error type.

pub mod agg;
pub mod codec;
pub mod crc32;
pub mod error;
pub mod expr;
pub mod ids;
pub mod metrics;
pub mod qtuple;
pub mod queryset;
pub mod schema;
pub mod sort;
pub mod sync;
pub mod tuple;
pub mod value;
pub mod wordtable;

pub use crc32::{crc32, Crc32};
pub use error::{Error, Result};
pub use expr::{BinaryOp, Expr, UnaryOp};
pub use ids::{ClientId, ColumnId, QueryId, StatementId, TableId, TicketId};
pub use qtuple::QTuple;
pub use queryset::QuerySet;
pub use schema::{Column, Schema};
pub use sort::{SortKey, SortOrder};
pub use tuple::Tuple;
pub use value::{hash_words, DataType, Text, Value};
pub use wordtable::WordTable;
