//! Strongly-typed identifiers.
//!
//! SharedDB turns *queries into data* (Section 3.3 of the paper): the id of an
//! active query travels through the data flow just like any other attribute.
//! Giving ids their own newtypes keeps the code honest about which kind of id
//! is which.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $inner:ty) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw integer value.
            #[inline]
            pub fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }
    };
}

id_newtype!(
    /// Identifier of one *active query* (one activation of a prepared
    /// statement with concrete parameters). This is the value stored in the
    /// NF² `query_id` column of the data-query model.
    QueryId,
    u32
);

id_newtype!(
    /// Identifier of a *query type* (prepared statement) registered with the
    /// global plan. Hundreds of concurrent [`QueryId`]s may map to the same
    /// `StatementId`.
    StatementId,
    u32
);

id_newtype!(
    /// Identifier of a base table in the catalog.
    TableId,
    u32
);

id_newtype!(
    /// Index of a column within a schema.
    ColumnId,
    u32
);

id_newtype!(
    /// Identifier of a connected client / session.
    ClientId,
    u64
);

id_newtype!(
    /// Ticket handed to a client when a query is admitted; used to collect the
    /// result set once the batch containing the query has been processed.
    TicketId,
    u64
);

id_newtype!(
    /// Identifier of an operator node in the global query plan.
    OperatorId,
    u32
);

id_newtype!(
    /// Monotonically increasing batch ("heartbeat") sequence number of a
    /// shared operator or of the storage layer.
    BatchId,
    u64
);

id_newtype!(
    /// Logical commit timestamp used by the MVCC storage layer (snapshot
    /// isolation). Timestamp 0 means "visible to everyone" (bulk-loaded data).
    Timestamp,
    u64
);

/// Thread-safe generator for [`TicketId`]s.
#[derive(Debug, Default)]
pub struct TicketGenerator {
    next: AtomicU64,
}

impl TicketGenerator {
    /// Creates a generator starting at ticket 1.
    pub fn new() -> Self {
        Self {
            next: AtomicU64::new(1),
        }
    }

    /// Allocates the next ticket.
    pub fn next_id(&self) -> TicketId {
        TicketId(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtypes_are_distinct_types_and_roundtrip() {
        let q = QueryId(7);
        assert_eq!(q.raw(), 7);
        assert_eq!(QueryId::from(7u32), q);
        assert_eq!(format!("{q}"), "QueryId(7)");
    }

    #[test]
    fn ordering_follows_inner_value() {
        assert!(QueryId(1) < QueryId(2));
        assert!(Timestamp(10) > Timestamp(9));
    }

    #[test]
    fn ticket_generator_monotonic() {
        let gen = TicketGenerator::new();
        let a = gen.next_id();
        let b = gen.next_id();
        assert!(b > a);
    }
}
