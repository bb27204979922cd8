//! The NF² set-valued `query_id` attribute (Section 3.1 of the paper).
//!
//! Every intermediate tuple of SharedDB carries the set of queries that are
//! potentially interested in it. The paper evaluates two representations —
//! bitmaps and lists — and chooses **lists** because they were more space- and
//! time-efficient in all their experiments. We implement both:
//!
//! * [`QuerySet`] — the list-based representation used by the engine: a sorted
//!   vector of [`QueryId`]s with small inline capacity semantics (most tuples
//!   are interesting to only a handful of queries).
//! * [`BitmapQuerySet`] — a dense bitmap keyed by an offset; only used by the
//!   `queryset` ablation benchmark to reproduce the paper's design decision.

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

/// Dense bitmap representation of a query set.
///
/// The bitmap covers ids in `[base, base + capacity)`. This mirrors the
/// alternative the paper rejected; it is kept only for the ablation benchmark
/// (`crates/bench/benches/queryset.rs`) that reproduces the "lists beat
/// bitmaps" design decision.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitmapQuerySet {
    base: u32,
    words: Vec<u64>,
}

impl BitmapQuerySet {
    /// Creates an empty bitmap covering ids `[base, base + capacity)`.
    pub fn with_capacity(base: u32, capacity: u32) -> Self {
        BitmapQuerySet {
            base,
            words: vec![0; capacity.div_ceil(64) as usize],
        }
    }

    /// Inserts an id; ids outside the covered range grow the bitmap.
    pub fn insert(&mut self, id: QueryId) {
        let raw = id.raw();
        if raw < self.base {
            // Rebase: shift existing bits up. Rare; simple implementation.
            let shift = (self.base - raw) as usize;
            let mut fresh =
                BitmapQuerySet::with_capacity(raw, (self.words.len() * 64 + shift) as u32);
            for existing in self.iter() {
                fresh.insert(existing);
            }
            *self = fresh;
        }
        let offset = (id.raw() - self.base) as usize;
        let word = offset / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (offset % 64);
    }

    /// True when `id` is a member.
    pub fn contains(&self, id: QueryId) -> bool {
        if id.raw() < self.base {
            return false;
        }
        let offset = (id.raw() - self.base) as usize;
        let word = offset / 64;
        word < self.words.len() && (self.words[word] >> (offset % 64)) & 1 == 1
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            (0..64u32).filter_map(move |bit| {
                if (w >> bit) & 1 == 1 {
                    Some(QueryId(self.base + wi as u32 * 64 + bit))
                } else {
                    None
                }
            })
        })
    }

    /// Bitmap intersection (both bitmaps must share the same base to use the
    /// fast path; otherwise falls back to iteration).
    pub fn intersect(&self, other: &BitmapQuerySet) -> BitmapQuerySet {
        if self.base == other.base {
            let n = self.words.len().min(other.words.len());
            let mut words = Vec::with_capacity(n);
            for i in 0..n {
                words.push(self.words[i] & other.words[i]);
            }
            return BitmapQuerySet {
                base: self.base,
                words,
            };
        }
        let mut out = BitmapQuerySet::with_capacity(self.base.min(other.base), 64);
        for id in self.iter() {
            if other.contains(id) {
                out.insert(id);
            }
        }
        out
    }

    /// Converts to the list representation.
    pub fn to_query_set(&self) -> QuerySet {
        QuerySet::from_ids(self.iter())
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        self.words.capacity() * 8
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

    #[test]
    fn bitmap_basic_ops() {
        let mut b = BitmapQuerySet::with_capacity(0, 128);
        assert!(b.is_empty());
        b.insert(QueryId(3));
        b.insert(QueryId(64));
        b.insert(QueryId(200)); // forces growth
        assert!(b.contains(QueryId(3)));
        assert!(b.contains(QueryId(200)));
        assert!(!b.contains(QueryId(4)));
        assert_eq!(b.len(), 3);
        assert_eq!(b.to_query_set(), qs(&[3, 64, 200]));
    }

    #[test]
    fn bitmap_rebase_below_base() {
        let mut b = BitmapQuerySet::with_capacity(100, 64);
        b.insert(QueryId(150));
        b.insert(QueryId(10));
        assert!(b.contains(QueryId(150)));
        assert!(b.contains(QueryId(10)));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn bitmap_intersect_matches_list_semantics() {
        let mut a = BitmapQuerySet::with_capacity(0, 256);
        let mut b = BitmapQuerySet::with_capacity(0, 256);
        for id in [1u32, 5, 9, 200] {
            a.insert(QueryId(id));
        }
        for id in [5u32, 200, 201] {
            b.insert(QueryId(id));
        }
        assert_eq!(a.intersect(&b).to_query_set(), qs(&[5, 200]));
    }

    #[test]
    fn list_and_bitmap_agree_randomised() {
        // Deterministic pseudo-random check without external crates.
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 512) as u32
        };
        for _ in 0..50 {
            let xs: Vec<u32> = (0..40).map(|_| next()).collect();
            let ys: Vec<u32> = (0..40).map(|_| next()).collect();
            let la: QuerySet = xs.iter().copied().collect();
            let lb: QuerySet = ys.iter().copied().collect();
            let mut ba = BitmapQuerySet::with_capacity(0, 512);
            let mut bb = BitmapQuerySet::with_capacity(0, 512);
            for &x in &xs {
                ba.insert(QueryId(x));
            }
            for &y in &ys {
                bb.insert(QueryId(y));
            }
            assert_eq!(la.intersect(&lb), ba.intersect(&bb).to_query_set());
            assert_eq!(la.union(&lb), {
                let mut u = ba.clone();
                for id in bb.iter() {
                    u.insert(id);
                }
                u.to_query_set()
            });
        }
    }
}
