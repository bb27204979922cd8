//! The NF² set-valued `query_id` attribute (Section 3.1 of the paper).
//!
//! Every intermediate tuple of SharedDB carries the set of queries that are
//! potentially interested in it. The paper evaluates two representations —
//! bitmaps and lists — and chooses **lists** because they were more space- and
//! time-efficient in all their experiments, "most tuples are interesting to
//! only a handful of queries"; so does [`QuerySet`]: a sorted list of
//! [`QueryId`]s. The handful — up to `INLINE` ids — lives in the set itself
//! and costs no allocation; a longer list is one *shared* slice, so handing it
//! on (`clone`, an intersection that keeps all of it, the next row of a scan
//! that interests the same queries) bumps a counter.

use crate::ids::QueryId;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Ids a set holds without allocating.
const INLINE: usize = 5;

/// List-based set of query ids, kept sorted and deduplicated.
#[derive(Clone)]
pub struct QuerySet(Repr);

/// Canonical: a set of at most [`INLINE`] ids is `Inline`, a longer one
/// `Shared`; the ids past an inline set's length are not part of it.
#[derive(Clone)]
enum Repr {
    Inline(u8, [QueryId; INLINE]),
    Shared(Arc<[QueryId]>),
}

/// A set under construction from ascending, distinct ids: inline while it
/// fits, a vector once it does not.
struct Builder {
    len: usize,
    inline: [QueryId; INLINE],
    spill: Vec<QueryId>,
    /// What the set can grow to, reserved when it spills.
    at_most: usize,
}

impl Builder {
    fn new(at_most: usize) -> Self {
        Builder {
            len: 0,
            inline: [QueryId(0); INLINE],
            spill: Vec::new(),
            at_most,
        }
    }

    #[inline]
    fn push(&mut self, id: QueryId) {
        if self.len < INLINE {
            self.inline[self.len] = id;
        } else {
            if self.len == INLINE {
                self.spill.reserve_exact(self.at_most.max(INLINE + 1));
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(id);
        }
        self.len += 1;
    }

    fn extend(&mut self, ids: &[QueryId]) {
        ids.iter().for_each(|&id| self.push(id));
    }

    fn finish(self) -> QuerySet {
        if self.len <= INLINE {
            QuerySet(Repr::Inline(self.len as u8, self.inline))
        } else {
            QuerySet(Repr::Shared(self.spill.into()))
        }
    }
}

impl QuerySet {
    /// The empty set, as a constant: put together at run time, the array
    /// of a handful is built on the side and copied in.
    const EMPTY: QuerySet = QuerySet(Repr::Inline(0, [QueryId(0); INLINE]));

    /// Creates an empty set.
    #[inline]
    pub fn new() -> Self {
        QuerySet::EMPTY
    }

    /// Creates a set containing a single query.
    pub fn singleton(id: QueryId) -> Self {
        let mut ids = [QueryId(0); INLINE];
        ids[0] = id;
        QuerySet(Repr::Inline(1, ids))
    }

    /// Creates a set from an arbitrary iterator of ids (sorted + deduplicated).
    pub fn from_ids<I: IntoIterator<Item = QueryId>>(ids: I) -> Self {
        let mut ids = ids.into_iter();
        let mut first = [QueryId(0); INLINE];
        let mut len = 0;
        for id in ids.by_ref().take(INLINE) {
            first[len] = id;
            len += 1;
        }
        let Some(next) = ids.next() else {
            // A handful: sorted where it lies, no allocation.
            let first = &mut first[..len];
            first.sort_unstable();
            let mut set = Builder::new(len);
            for (i, &id) in first.iter().enumerate() {
                if i == 0 || first[i - 1] != id {
                    set.push(id);
                }
            }
            return set.finish();
        };
        let mut all = first.to_vec();
        all.push(next);
        all.extend(ids);
        QuerySet::from_ids_like(&mut all, &QuerySet::new())
    }

    /// The set of `ids` — sorted and deduplicated in place, so one scratch
    /// buffer serves every row of a cycle — sharing `like`'s slice when that
    /// holds the same ids: a scan's neighbouring rows mostly interest the
    /// same queries, and a set the previous row spilled is handed on instead
    /// of allocated again.
    pub fn from_ids_like(ids: &mut Vec<QueryId>, like: &QuerySet) -> Self {
        ids.sort_unstable();
        ids.dedup();
        match &like.0 {
            Repr::Shared(shared) if **shared == **ids => like.clone(),
            _ => QuerySet::from_sorted(ids),
        }
    }

    /// The set of ascending, distinct `ids`.
    fn from_sorted(ids: &[QueryId]) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        if ids.len() <= INLINE {
            let mut inline = [QueryId(0); INLINE];
            inline[..ids.len()].copy_from_slice(ids);
            QuerySet(Repr::Inline(ids.len() as u8, inline))
        } else {
            QuerySet(Repr::Shared(ids.into()))
        }
    }

    /// Number of queries in the set.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline(len, _) => *len as usize,
            Repr::Shared(ids) => ids.len(),
        }
    }

    /// True when no query subscribed to the tuple.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `id` is a member.
    pub fn contains(&self, id: QueryId) -> bool {
        match &self.0 {
            Repr::Inline(len, ids) => ids[..*len as usize].contains(&id),
            Repr::Shared(ids) => ids.binary_search(&id).is_ok(),
        }
    }

    /// Inserts a query id; returns `true` when it was not already present.
    pub fn insert(&mut self, id: QueryId) -> bool {
        let Err(at) = self.as_slice().binary_search(&id) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline(len, ids) if (*len as usize) < INLINE => {
                ids.copy_within(at..*len as usize, at + 1);
                ids[at] = id;
                *len += 1;
            }
            _ => {
                let ids = self.as_slice();
                let grown = ids[..at].iter().chain([&id]).chain(&ids[at..]);
                self.0 = Repr::Shared(grown.copied().collect());
            }
        }
        true
    }

    /// Removes a query id; returns `true` when it was present.
    pub fn remove(&mut self, id: QueryId) -> bool {
        let Ok(at) = self.as_slice().binary_search(&id) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline(len, ids) => {
                ids.copy_within(at + 1..*len as usize, at);
                *len -= 1;
            }
            Repr::Shared(ids) => {
                let mut rest = Builder::new(ids.len() - 1);
                rest.extend(&ids[..at]);
                rest.extend(&ids[at + 1..]);
                *self = rest.finish();
            }
        }
        true
    }

    /// Iterates over the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.as_slice().iter().copied()
    }

    /// The members as a slice (always sorted).
    #[inline]
    pub fn as_slice(&self) -> &[QueryId] {
        match &self.0 {
            Repr::Inline(len, ids) => &ids[..*len as usize],
            Repr::Shared(ids) => ids,
        }
    }

    /// Set union. Linear merge of the two sorted lists; a union with the
    /// empty set is the other set itself.
    pub fn union(&self, other: &QuerySet) -> QuerySet {
        if other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = Builder::new(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend(&a[i..]);
        out.extend(&b[j..]);
        out.finish()
    }

    /// In-place union (used by operators that accumulate subscriptions).
    pub fn union_in_place(&mut self, other: &QuerySet) {
        if !other.is_empty() {
            *self = self.union(other);
        }
    }

    /// The members `keep` admits, asked in ascending order. Allocates only
    /// when more than [`INLINE`] members stay and at least one goes: a set
    /// that keeps all of itself is handed on as it is.
    #[inline]
    fn filtered(&self, mut keep: impl FnMut(QueryId) -> bool) -> QuerySet {
        let ids = match &self.0 {
            // What is left of a handful is a handful, built where it will
            // lie: a set put together on the side and moved in is copied in
            // pieces that do not line up with the pieces it was written in.
            Repr::Inline(len, ids) => {
                let mut out = QuerySet::new();
                if let Repr::Inline(left, kept) = &mut out.0 {
                    for &id in &ids[..*len as usize] {
                        // No branch on the answer: which rows interest which
                        // queries is what a processor cannot guess.
                        kept[*left as usize] = id;
                        *left += u8::from(keep(id));
                    }
                }
                return out;
            }
            Repr::Shared(ids) => &ids[..],
        };
        let Some(dropped) = ids.iter().position(|&id| !keep(id)) else {
            return self.clone();
        };
        let mut out = Builder::new(ids.len() - 1);
        out.extend(&ids[..dropped]);
        for &id in &ids[dropped + 1..] {
            if keep(id) {
                out.push(id);
            }
        }
        out.finish()
    }

    /// Set intersection. This is the heart of the *shared join*: amending the
    /// join predicate with `R.query_id = S.query_id` (Section 3.3) is
    /// implemented by intersecting the query sets of the two sides and only
    /// emitting a joined tuple when the intersection is non-empty.
    pub fn intersect(&self, other: &QuerySet) -> QuerySet {
        // The result is the smaller side without what the larger one lacks:
        // binary-search the larger one when the sizes are lopsided, walk it
        // in step otherwise. An empty intersection — the common outcome when
        // an operator restricts a tuple to its own queries —, one that fits
        // inline and one that keeps the whole smaller side allocate nothing.
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        if large.len() > 16 * small.len().max(1) {
            return small.filtered(|id| large.contains(id));
        }
        let large = large.as_slice();
        let mut j = 0;
        small.filtered(|id| {
            while j < large.len() && large[j] < id {
                j += 1;
            }
            j < large.len() && large[j] == id
        })
    }

    /// True when the two sets share at least one query id. Cheaper than
    /// computing the full intersection when only the boolean answer matters.
    pub fn intersects(&self, other: &QuerySet) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
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
        *self = self.filtered(|id| keep.contains(id));
    }

    /// Approximate heap footprint in bytes: nothing for an inline set, the
    /// shared slice and its two reference counts otherwise.
    pub fn heap_size(&self) -> usize {
        match &self.0 {
            Repr::Inline(..) => 0,
            Repr::Shared(ids) => {
                2 * std::mem::size_of::<usize>() + std::mem::size_of_val::<[QueryId]>(ids)
            }
        }
    }
}

/// The query sets of a cycle's rows, each cut down to the queries active at
/// one operator — the query-set half of an operator's gather pass, which
/// meets every input row. Two things make a row cheap. The queries of a
/// batch were numbered in a row, so the active ones are mostly a bitmap over
/// a short span of ids, and whether a row's handful is among them is a shift
/// and a mask each, without a branch. And a set too long to live inline is
/// one slice shared by the rows that carry it — a scan hands the previous
/// row's on —, so what is left of it is worked out once per run of rows that
/// share it, not once per row.
pub struct Restriction<'a> {
    active: &'a QuerySet,
    /// Bit `i` of `bitmap`: the query `first + i` is active. `None` when the
    /// active ids span more than the bitmap holds.
    first: u32,
    bitmap: Option<[u64; Restriction::WORDS]>,
    /// Per word of the bitmap, the active queries before it.
    before: [u16; Restriction::WORDS],
    /// The last shared slice met and what `active` leaves of it.
    last: Option<(Arc<[QueryId]>, QuerySet)>,
}

impl<'a> Restriction<'a> {
    const WORDS: usize = 16;

    /// Restricts to `active`.
    pub fn to(active: &'a QuerySet) -> Self {
        let ids = active.as_slice();
        let first = ids.first().map_or(0, |id| id.0);
        let spanned = ids
            .last()
            .is_some_and(|last| ((last.0 - first) as usize) < 64 * Self::WORDS);
        let bitmap = spanned.then(|| {
            let mut bitmap = [0u64; Self::WORDS];
            for id in ids {
                let at = (id.0 - first) as usize;
                bitmap[at / 64] |= 1 << (at % 64);
            }
            bitmap
        });
        let mut before = [0; Self::WORDS];
        for word in 1..Self::WORDS {
            let bits = bitmap.map_or(0, |bitmap| bitmap[word - 1].count_ones());
            before[word] = before[word - 1] + bits as u16;
        }
        Restriction {
            active,
            first,
            bitmap,
            before,
            last: None,
        }
    }

    /// The place of `id` among the active queries, in ascending order, if it
    /// is one of them.
    #[inline]
    fn place_of(&self, id: QueryId) -> Option<usize> {
        let Some(bitmap) = &self.bitmap else {
            return self.active.as_slice().binary_search(&id).ok();
        };
        let at = id.0.wrapping_sub(self.first) as usize;
        let (word, bit) = (at / 64, at % 64);
        let bits = *bitmap.get(word)?;
        let below = (bits & ((1 << bit) - 1)).count_ones() as usize;
        (bits >> bit & 1 == 1).then_some(self.before[word] as usize + below)
    }

    /// Calls `each` with the place among the active queries, in ascending
    /// order, of every query in `queries ∩ active`, ascending.
    #[inline]
    pub fn places_of(&mut self, queries: &QuerySet, mut each: impl FnMut(usize)) {
        match &queries.0 {
            Repr::Inline(len, ids) => ids[..*len as usize]
                .iter()
                .filter_map(|id| self.place_of(*id))
                .for_each(each),
            Repr::Shared(_) => {
                let left = self.of(queries);
                let places = left.iter().map(|id| self.place_of(id));
                places.for_each(|place| each(place.expect("an active query has a place")));
            }
        }
    }

    /// `queries ∩ active`.
    #[inline]
    pub fn of(&mut self, queries: &QuerySet) -> QuerySet {
        let Repr::Shared(slice) = &queries.0 else {
            return queries.filtered(|id| self.place_of(id).is_some());
        };
        match &self.last {
            Some((seen, left)) if Arc::ptr_eq(seen, slice) => left.clone(),
            _ => {
                let left = queries.intersect(self.active);
                self.last = Some((Arc::clone(slice), left.clone()));
                left
            }
        }
    }
}

impl Default for QuerySet {
    fn default() -> Self {
        QuerySet::new()
    }
}

impl PartialEq for QuerySet {
    fn eq(&self, other: &QuerySet) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for QuerySet {}

impl Hash for QuerySet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for QuerySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuerySet")
            .field("ids", &self.as_slice())
            .finish()
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
        for (i, id) in self.iter().enumerate() {
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

    /// Up to five ids live in the set; a longer list is one slice that
    /// clones, full intersections and a scan's next row share.
    #[test]
    fn the_handful_is_inline_and_a_longer_list_is_shared() {
        assert!(std::mem::size_of::<QuerySet>() <= 24);
        let five = qs(&[5, 4, 3, 2, 1, 3]);
        assert_eq!((five.len(), five.heap_size()), (5, 0));
        let mut six = five.clone();
        assert!(six.insert(QueryId(0)));
        assert_eq!(six, qs(&[0, 1, 2, 3, 4, 5]));
        assert_eq!(six.heap_size(), 16 + 6 * 4);
        let shared = |a: &QuerySet, b: &QuerySet| std::ptr::eq(a.as_slice(), b.as_slice());
        assert!(shared(&six, &six.clone()));
        assert!(shared(&six, &six.intersect(&(0u32..64).collect())));
        assert!(shared(
            &six,
            &(0u32..64).collect::<QuerySet>().intersect(&six)
        ));
        assert!(shared(&six, &six.union(&QuerySet::new())));
        let mut scratch = vec![QueryId(5), QueryId(0), QueryId(2), QueryId(1), QueryId(4)];
        scratch.extend([QueryId(3), QueryId(3)]);
        assert!(shared(&six, &QuerySet::from_ids_like(&mut scratch, &six)));
        assert_eq!(
            QuerySet::from_ids_like(&mut vec![QueryId(7)], &six),
            qs(&[7])
        );
        // Back under the boundary the set is inline again.
        assert!(six.remove(QueryId(3)));
        assert_eq!((six.as_slice().len(), six.heap_size()), (5, 0));
        assert_eq!(six, qs(&[0, 1, 2, 4, 5]));
        assert_eq!(
            format!("{:?}", qs(&[2, 1])),
            "QuerySet { ids: [QueryId(1), QueryId(2)] }"
        );
    }

    #[test]
    fn display_format() {
        assert_eq!(qs(&[1, 2]).to_string(), "{1, 2}");
        assert_eq!(QuerySet::new().to_string(), "{}");
    }
}
