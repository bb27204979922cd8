//! The NF² set-valued `query_id` attribute (Section 3.1 of the paper).
//!
//! Every intermediate tuple of SharedDB carries the set of queries that are
//! potentially interested in it. The paper evaluates two representations —
//! bitmaps and lists — and chooses **lists** because they were more space- and
//! time-efficient in all their experiments; so does [`QuerySet`]: a sorted
//! vector of [`QueryId`]s (most tuples are interesting to only a handful of
//! queries).

use crate::ids::QueryId;
use std::fmt;

/// List-based set of query ids, kept sorted and deduplicated.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct QuerySet {
    ids: Vec<QueryId>,
}

impl QuerySet {
    /// Creates an empty set.
    pub fn new() -> Self {
        QuerySet { ids: Vec::new() }
    }

    /// Creates a set containing a single query.
    pub fn singleton(id: QueryId) -> Self {
        QuerySet { ids: vec![id] }
    }

    /// Creates a set from an arbitrary iterator of ids (sorted + deduplicated).
    pub fn from_ids<I: IntoIterator<Item = QueryId>>(ids: I) -> Self {
        let mut ids: Vec<QueryId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        QuerySet { ids }
    }

    /// Number of queries in the set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no query subscribed to the tuple.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// True when `id` is a member.
    pub fn contains(&self, id: QueryId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Inserts a query id; returns `true` when it was not already present.
    pub fn insert(&mut self, id: QueryId) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                true
            }
        }
    }

    /// Removes a query id; returns `true` when it was present.
    pub fn remove(&mut self, id: QueryId) -> bool {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                self.ids.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates over the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.ids.iter().copied()
    }

    /// The members as a slice (always sorted).
    pub fn as_slice(&self) -> &[QueryId] {
        &self.ids
    }

    /// Set union. Linear merge of the two sorted lists.
    pub fn union(&self, other: &QuerySet) -> QuerySet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.ids[i..]);
        out.extend_from_slice(&other.ids[j..]);
        QuerySet { ids: out }
    }

    /// In-place union (used by operators that accumulate subscriptions).
    pub fn union_in_place(&mut self, other: &QuerySet) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.ids = other.ids.clone();
            return;
        }
        *self = self.union(other);
    }

    /// Set intersection. This is the heart of the *shared join*: amending the
    /// join predicate with `R.query_id = S.query_id` (Section 3.3) is
    /// implemented by intersecting the query sets of the two sides and only
    /// emitting a joined tuple when the intersection is non-empty.
    pub fn intersect(&self, other: &QuerySet) -> QuerySet {
        // Iterate over the smaller side and binary-search the larger one when
        // the sizes are lopsided; otherwise do a linear merge. The output is
        // allocated at the first common id, sized for what can still follow,
        // so an empty intersection — the common outcome when an operator
        // restricts a tuple to its own queries — allocates nothing.
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Vec::new();
        if large.len() > 16 * small.len().max(1) {
            for (i, &id) in small.ids.iter().enumerate() {
                if large.contains(id) {
                    if out.is_empty() {
                        out.reserve_exact(small.len() - i);
                    }
                    out.push(id);
                }
            }
            return QuerySet { ids: out };
        }
        let (mut i, mut j) = (0, 0);
        while i < small.ids.len() && j < large.ids.len() {
            match small.ids[i].cmp(&large.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if out.is_empty() {
                        out.reserve_exact(small.len() - i);
                    }
                    out.push(small.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        QuerySet { ids: out }
    }

    /// True when the two sets share at least one query id. Cheaper than
    /// computing the full intersection when only the boolean answer matters.
    pub fn intersects(&self, other: &QuerySet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Returns the members that also appear in `keep`, dropping the rest.
    /// Used when routing a shared result back to the queries of one consumer.
    pub fn retain_in(&mut self, keep: &QuerySet) {
        self.ids.retain(|id| keep.contains(*id));
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<QueryId>()
    }
}

impl FromIterator<QueryId> for QuerySet {
    fn from_iter<T: IntoIterator<Item = QueryId>>(iter: T) -> Self {
        QuerySet::from_ids(iter)
    }
}

impl FromIterator<u32> for QuerySet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        QuerySet::from_ids(iter.into_iter().map(QueryId))
    }
}

impl fmt::Display for QuerySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.ids.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", id.raw())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qs(ids: &[u32]) -> QuerySet {
        ids.iter().copied().collect()
    }

    #[test]
    fn insert_keeps_sorted_and_deduplicated() {
        let mut s = QuerySet::new();
        assert!(s.insert(QueryId(5)));
        assert!(s.insert(QueryId(1)));
        assert!(s.insert(QueryId(3)));
        assert!(!s.insert(QueryId(3)));
        assert_eq!(s.as_slice(), &[QueryId(1), QueryId(3), QueryId(5)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn remove_and_contains() {
        let mut s = qs(&[1, 2, 3]);
        assert!(s.contains(QueryId(2)));
        assert!(s.remove(QueryId(2)));
        assert!(!s.remove(QueryId(2)));
        assert!(!s.contains(QueryId(2)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_merges() {
        let a = qs(&[1, 3, 5]);
        let b = qs(&[2, 3, 6]);
        assert_eq!(a.union(&b), qs(&[1, 2, 3, 5, 6]));
        let mut c = a.clone();
        c.union_in_place(&b);
        assert_eq!(c, qs(&[1, 2, 3, 5, 6]));
    }

    #[test]
    fn union_with_empty() {
        let a = qs(&[1, 2]);
        assert_eq!(a.union(&QuerySet::new()), a);
        assert_eq!(QuerySet::new().union(&a), a);
    }

    #[test]
    fn intersect_shared_join_semantics() {
        // An R tuple relevant only for Q1 must not match an S tuple relevant
        // only for Q2 (Figure 3 of the paper).
        let r = qs(&[1]);
        let s = qs(&[2]);
        assert!(r.intersect(&s).is_empty());
        assert!(!r.intersects(&s));

        let r = qs(&[1, 2, 3]);
        let s = qs(&[2, 3, 4]);
        assert_eq!(r.intersect(&s), qs(&[2, 3]));
        assert!(r.intersects(&s));
    }

    #[test]
    fn intersect_lopsided_uses_binary_search_path() {
        let small = qs(&[100, 5000]);
        let large: QuerySet = (0u32..4096).collect();
        assert_eq!(small.intersect(&large), qs(&[100]));
        assert_eq!(large.intersect(&small), qs(&[100]));
    }

    #[test]
    fn retain_in_filters() {
        let mut s = qs(&[1, 2, 3, 4]);
        s.retain_in(&qs(&[2, 4, 9]));
        assert_eq!(s, qs(&[2, 4]));
    }

    #[test]
    fn from_ids_deduplicates_unsorted_input() {
        let s = QuerySet::from_ids([QueryId(9), QueryId(1), QueryId(9), QueryId(4)]);
        assert_eq!(s.as_slice(), &[QueryId(1), QueryId(4), QueryId(9)]);
    }

    #[test]
    fn display_format() {
        assert_eq!(qs(&[1, 2]).to_string(), "{1, 2}");
        assert_eq!(QuerySet::new().to_string(), "{}");
    }
}
