//! The data-query model tuple: a relational tuple plus the set of queries
//! interested in it (Section 3.1, Figure 1 of the paper — the "Compact Result
//! Set (NF²)" representation).

use crate::queryset::QuerySet;
use crate::tuple::Tuple;
use crate::QueryId;
use std::fmt;

/// A tuple annotated with its subscribed queries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QTuple {
    /// The relational payload (the "normal" attributes `R_a .. R_n`).
    pub tuple: Tuple,
    /// The set-valued `query_id` attribute.
    pub queries: QuerySet,
}

impl QTuple {
    /// Creates a data-query tuple.
    pub fn new(tuple: Tuple, queries: QuerySet) -> Self {
        QTuple { tuple, queries }
    }

    /// Creates a tuple subscribed to a single query.
    pub fn for_query(tuple: Tuple, query: QueryId) -> Self {
        QTuple {
            tuple,
            queries: QuerySet::singleton(query),
        }
    }

    /// Expands the compact NF² representation into the redundant
    /// first-normal-form representation shown on the left of Figure 1 —
    /// one `(tuple, query)` pair per subscribed query. Only used at the edge
    /// of the system when routing results to clients and in tests.
    pub fn explode(&self) -> impl Iterator<Item = (QueryId, &Tuple)> + '_ {
        self.queries.iter().map(move |q| (q, &self.tuple))
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        self.tuple.heap_size() + self.queries.heap_size()
    }
}

impl fmt::Display for QTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.tuple, self.queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn explode_matches_figure_1() {
        // Row 143 "John Smith" is interesting for queries 1, 2 and 3: the NF²
        // representation stores it once, exploding yields three pairs.
        let t = QTuple::new(
            tuple![143i64, "John Smith"],
            [1u32, 2, 3].into_iter().collect(),
        );
        let pairs: Vec<_> = t.explode().map(|(q, _)| q.raw()).collect();
        assert_eq!(pairs, vec![1, 2, 3]);
    }
}
