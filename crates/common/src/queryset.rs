//! The NF² set-valued `query_id` attribute (Section 3.1 of the paper).
//!
//! Every intermediate tuple of SharedDB carries the set of queries that are
//! potentially interested in it. The paper weighs two representations —
//! bitmaps and lists — and keeps lists, because "most tuples are interesting
//! to only a handful of queries". Here a [`QuerySet`] is a **bitmap**: a base
//! id and one `u64` word while its ids span at most 64, and beyond that the
//! set's non-zero words, shared. What makes the bitmap pay is where the ids
//! come from: the engine numbers a batch's queries by their place in the
//! batch, so the ids of a run lie in one short span and, in a batch of at
//! most 64 queries, every set of the run is one word, whatever the number of
//! queries it holds. Building a row's set is then setting bits, restricting
//! it to an operator's queries one shift and one AND, and nothing is sorted,
//! merged or allocated per row; only the routing Γ at the top of the plan
//! expands a set back to its ids. The ablation, against the sorted lists
//! this module held before, is in `docs/REPRODUCTION.md`.
//!
//! A larger batch, or arbitrary ids, make some sets wider: such a set keeps
//! only the words that hold one of its ids, so it costs at most what a list
//! of them would. A one-word set restricted by a wide one is still two ANDs
//! at most, with nothing allocated; a wide set within the other is itself,
//! shared; and a [`Union`] builds a row's wide set once, from a buffer the
//! next row reuses, sharing it with the row before when the two are equal.

use crate::ids::QueryId;
use std::fmt;
use std::sync::Arc;

/// A set of query ids, as bits.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct QuerySet(Repr);

/// Canonical — equal sets are equal values, and hash alike: a set whose ids
/// span at most 64 is a `Word` based at its least member (bit 0 is set), the
/// empty set `Word { base: 0, bits: 0 }`, and a wider set `Words`.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// The id `base + i` for every bit `i` of `bits`.
    Word { base: u32, bits: u64 },
    /// The id `64 w + i` for every bit `i` of `bits` of every `(w, bits)`:
    /// the words that are not zero, ascending by `w`.
    Words(Arc<Box<[Aligned]>>),
}

/// The bits of the ids `64 w .. 64 w + 64`: `(w, bits)`.
type Aligned = (u32, u64);

/// The bits of word `word` in `words` — ascending, none of them zero —: first
/// where it lies if the words run without a gap, as those of a wide batch
/// do, then by binary search.
#[inline]
fn bits_of(words: &[Aligned], word: u32) -> u64 {
    let guess = word.wrapping_sub(words[0].0) as usize;
    match words.get(guess) {
        Some(&(at, bits)) if at == word => bits,
        _ => words
            .binary_search_by_key(&word, |(w, _)| *w)
            .map_or(0, |at| words[at].1),
    }
}

/// Sorts aligned words by `w` and ORs those of the same `w` into one.
fn or_alike(words: &mut Vec<Aligned>) {
    words.sort_unstable_by_key(|(word, _)| *word);
    words.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 |= next.1;
        }
        same
    });
}

/// The aligned words of the ids `base + i`, bit `i` of `bits`: one or two.
fn aligned(base: u32, bits: u64) -> [Aligned; 2] {
    let (word, shift) = (base / 64, base % 64);
    let high = bits.checked_shr(64 - shift).unwrap_or(0);
    [(word, bits << shift), (word + u32::from(high != 0), high)]
}

impl QuerySet {
    /// The empty set.
    const EMPTY: QuerySet = QuerySet(Repr::Word { base: 0, bits: 0 });

    /// Creates an empty set.
    #[inline]
    pub fn new() -> Self {
        QuerySet::EMPTY
    }

    /// Creates a set containing a single query.
    #[inline]
    pub fn singleton(id: QueryId) -> Self {
        QuerySet(Repr::Word {
            base: id.0,
            bits: 1,
        })
    }

    /// Creates a set from an arbitrary iterator of ids, in any order and
    /// with repeats.
    pub fn from_ids<I: IntoIterator<Item = QueryId>>(ids: I) -> Self {
        let mut set = QuerySet::new();
        // The words of the ids the word cannot take: none, unless they span
        // more than 64.
        let mut far: Vec<Aligned> = Vec::new();
        for id in ids {
            if !set.insert_in_word(id) {
                far.push((id.0 / 64, 1 << (id.0 % 64)));
            }
        }
        if far.is_empty() {
            return set;
        }
        far.extend(set.words());
        QuerySet::merge(&mut far)
    }

    /// The set of the ids `words` holds, ascending by word; a word may be
    /// zero. Nothing is allocated unless the set is wider than a word: the
    /// first two words that are not zero are looked at on the stack.
    fn from_aligned(words: impl IntoIterator<Item = Aligned>) -> Self {
        let mut words = words.into_iter().filter(|(_, bits)| *bits != 0);
        let Some((first, low)) = words.next() else {
            return QuerySet::EMPTY;
        };
        let second = words.next();
        let third = second.and_then(|_| words.next());
        let least = u64::from(first) * 64 + u64::from(low.trailing_zeros());
        let (last, high) = second.unwrap_or((first, low));
        let most = u64::from(last) * 64 + 63 - u64::from(high.leading_zeros());
        if third.is_none() && most - least < 64 {
            // One word, or the end of one and the start of the next.
            let shift = least % 64;
            let next = second.map_or(0, |(_, bits)| bits);
            let bits = low >> shift | next.checked_shl(64 - shift as u32).unwrap_or(0);
            return QuerySet(Repr::Word {
                base: least as u32,
                bits,
            });
        }
        let head = [Some((first, low)), second, third].into_iter().flatten();
        QuerySet(Repr::Words(Arc::new(head.chain(words).collect())))
    }

    /// The set's aligned words, ascending, none of them zero.
    fn words(&self) -> impl Iterator<Item = Aligned> + '_ {
        let (word, words) = match &self.0 {
            Repr::Word { base, bits } => (Some(aligned(*base, *bits)), &[][..]),
            Repr::Words(words) => (None, &words[..]),
        };
        let word = word.into_iter().flatten().filter(|(_, bits)| *bits != 0);
        word.chain(words.iter().copied())
    }

    /// Sets `id`'s bit if the set is one word and stays one: true when `id`
    /// is a member afterwards.
    #[inline]
    fn insert_in_word(&mut self, id: QueryId) -> bool {
        let Repr::Word { base, bits } = &mut self.0 else {
            return false;
        };
        let id = id.0;
        if *bits == 0 {
            (*base, *bits) = (id, 1);
        } else if id >= *base && id - *base < 64 {
            *bits |= 1 << (id - *base);
        } else if id < *base && *base - id <= bits.leading_zeros() {
            (*base, *bits) = (id, *bits << (*base - id) | 1);
        } else {
            return false;
        }
        true
    }

    /// Number of queries in the set.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Word { bits, .. } => bits.count_ones() as usize,
            Repr::Words(words) => words.iter().map(|(_, b)| b.count_ones() as usize).sum(),
        }
    }

    /// True when no query subscribed to the tuple.
    #[inline]
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Repr::Word { bits: 0, .. })
    }

    /// True when `id` is a member.
    #[inline]
    pub fn contains(&self, id: QueryId) -> bool {
        match &self.0 {
            Repr::Word { base, bits } => {
                id.0.checked_sub(*base)
                    .is_some_and(|at| at < 64 && bits >> at & 1 == 1)
            }
            Repr::Words(words) => bits_of(words, id.0 / 64) >> (id.0 % 64) & 1 == 1,
        }
    }

    /// Inserts a query id; returns `true` when it was not already present.
    pub fn insert(&mut self, id: QueryId) -> bool {
        if self.contains(id) {
            return false;
        }
        if !self.insert_in_word(id) {
            *self = self.union(&QuerySet::singleton(id));
        }
        true
    }

    /// Removes a query id; returns `true` when it was present.
    pub fn remove(&mut self, id: QueryId) -> bool {
        if !self.contains(id) {
            return false;
        }
        let (word, bit) = (id.0 / 64, id.0 % 64);
        let clear = |(w, bits): Aligned| (w, if w == word { bits & !(1 << bit) } else { bits });
        *self = QuerySet::from_aligned(self.words().map(clear));
        true
    }

    /// Iterates over the members in ascending order.
    pub fn iter(&self) -> Ids<'_> {
        match &self.0 {
            Repr::Word { base, bits } => Ids {
                base: *base,
                bits: *bits,
                rest: [].iter(),
            },
            Repr::Words(words) => Ids {
                base: 0,
                bits: 0,
                rest: words.iter(),
            },
        }
    }

    /// Set union: of two words that span at most 64 ids together, one OR; a
    /// union with the empty set is the other set itself.
    pub fn union(&self, other: &QuerySet) -> QuerySet {
        if other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        if let Some(word) = self.union_in_word(other) {
            return word;
        }
        let mut words: Vec<Aligned> = self.words().chain(other.words()).collect();
        QuerySet::merge(&mut words)
    }

    /// The union of two sets of one word each, if it is one word too.
    #[inline]
    fn union_in_word(&self, other: &QuerySet) -> Option<QuerySet> {
        let (Repr::Word { base: a, bits: x }, Repr::Word { base: b, bits: y }) =
            (&self.0, &other.0)
        else {
            return None;
        };
        let ((low, under), (high, over)) = if a <= b {
            ((*a, *x), (*b, *y))
        } else {
            ((*b, *y), (*a, *x))
        };
        let shift = high - low;
        (shift < 64 && over.leading_zeros() >= shift).then(|| {
            let bits = under | over << shift;
            QuerySet(Repr::Word { base: low, bits })
        })
    }

    /// The set of the ids of aligned words in any order, some of them for
    /// the same ids; `words` is left empty.
    fn merge(words: &mut Vec<Aligned>) -> QuerySet {
        or_alike(words);
        QuerySet::from_aligned(words.drain(..))
    }

    /// In-place union (used by operators that accumulate subscriptions).
    #[inline]
    pub fn union_in_place(&mut self, other: &QuerySet) {
        if !other.is_empty() {
            *self = self.union(other);
        }
    }

    /// Set intersection. This is the heart of the *shared join*: amending the
    /// join predicate with `R.query_id = S.query_id` (Section 3.3) is
    /// implemented by intersecting the query sets of the two sides and only
    /// emitting a joined tuple when the intersection is non-empty — and of
    /// every operator's restriction of its input to its own queries. Of two
    /// words it is a shift and an AND.
    #[inline]
    pub fn intersect(&self, other: &QuerySet) -> QuerySet {
        let (Repr::Word { base: a, bits: x }, Repr::Word { base: b, bits: y }) =
            (&self.0, &other.0)
        else {
            return self.intersect_words(other);
        };
        let bits = if a <= b {
            x.checked_shr(b - a).unwrap_or(0) & y
        } else {
            y.checked_shr(a - b).unwrap_or(0) & x
        };
        if bits == 0 {
            return QuerySet::EMPTY;
        }
        QuerySet(Repr::Word {
            base: a.max(b) + bits.trailing_zeros(),
            bits: bits >> bits.trailing_zeros(),
        })
    }

    /// [`QuerySet::intersect`] when one side is wider than a word: the
    /// aligned words both hold, each of the other side's looked up in the
    /// wider one. Of a word and a wider set, those are at most two, and
    /// nothing is allocated; of two wider sets, only a wide result is.
    fn intersect_words(&self, other: &QuerySet) -> QuerySet {
        let (narrow, Repr::Words(wide)) = (self, &other.0) else {
            return other.intersect_words(self);
        };
        let of_wide = |(word, bits): Aligned| (word, bits & bits_of(wide, word));
        // A row's queries within those an operator restricts to — the
        // common case — are the row's set itself, shared.
        if let Repr::Words(words) = &narrow.0 {
            if words.iter().all(|&word| of_wide(word) == word) {
                return narrow.clone();
            }
        }
        QuerySet::from_aligned(narrow.words().map(of_wide))
    }

    /// True when the two sets share at least one query id.
    #[inline]
    pub fn intersects(&self, other: &QuerySet) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Keeps the members that also appear in `keep`, dropping the rest.
    pub fn retain_in(&mut self, keep: &QuerySet) {
        *self = self.intersect(keep);
    }

    /// Approximate heap footprint in bytes: nothing for a set of one word;
    /// the shared words, their box and their two reference counts otherwise.
    pub fn heap_size(&self) -> usize {
        match &self.0 {
            Repr::Word { .. } => 0,
            Repr::Words(words) => {
                2 * std::mem::size_of::<usize>()
                    + std::mem::size_of::<Box<[Aligned]>>()
                    + std::mem::size_of_val::<[Aligned]>(words)
            }
        }
    }
}

/// The union of many sets, made at once: the queries of a row, OR-ed in
/// set by set. While it is one word each set is one OR; once it is wider,
/// the sets' words pile up in a buffer the next union reuses and are merged
/// when the union is taken, so no set is built between. A wide union equal
/// to the last one taken is that one, shared: neighbouring rows of a scan
/// mostly interest the same queries.
#[derive(Default)]
pub struct Union {
    /// The union so far, while the buffer is empty.
    set: QuerySet,
    /// The aligned words of the union so far, in any order, once it is
    /// wider than a word.
    words: Vec<Aligned>,
    /// The last union taken that was wider than a word.
    last: QuerySet,
}

impl Union {
    /// Adds the members of `set`.
    #[inline]
    pub fn add(&mut self, set: &QuerySet) {
        if set.is_empty() {
            return;
        }
        if self.words.is_empty() {
            if self.set.is_empty() {
                self.set = set.clone();
                return;
            }
            if let Some(word) = self.set.union_in_word(set) {
                self.set = word;
                return;
            }
            self.words.extend(std::mem::take(&mut self.set).words());
        }
        self.words.extend(set.words());
    }

    /// Adds one query.
    #[inline]
    pub fn insert(&mut self, id: QueryId) {
        self.add(&QuerySet::singleton(id));
    }

    /// True when nothing was added since the union was last taken.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.set.is_empty() && self.words.is_empty()
    }

    /// The union, leaving this one empty.
    #[inline]
    pub fn take(&mut self) -> QuerySet {
        if self.words.is_empty() {
            return std::mem::take(&mut self.set);
        }
        or_alike(&mut self.words);
        if let Repr::Words(last) = &self.last.0 {
            if last[..] == self.words[..] {
                self.words.clear();
                return self.last.clone();
            }
        }
        let set = QuerySet::from_aligned(self.words.drain(..));
        if matches!(set.0, Repr::Words(_)) {
            self.last = set.clone();
        }
        set
    }
}

/// The members of a [`QuerySet`], ascending.
pub struct Ids<'a> {
    /// The id of bit 0 of `bits`.
    base: u32,
    /// The bits of the current word not yet handed out.
    bits: u64,
    rest: std::slice::Iter<'a, Aligned>,
}

impl Iterator for Ids<'_> {
    type Item = QueryId;

    #[inline]
    fn next(&mut self) -> Option<QueryId> {
        while self.bits == 0 {
            let &(word, bits) = self.rest.next()?;
            (self.base, self.bits) = (word * 64, bits);
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(QueryId(self.base + bit))
    }
}

impl Default for QuerySet {
    fn default() -> Self {
        QuerySet::new()
    }
}

impl fmt::Debug for QuerySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuerySet")
            .field("ids", &self.iter().collect::<Vec<_>>())
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

    fn raw(set: &QuerySet) -> Vec<u32> {
        set.iter().map(QueryId::raw).collect()
    }

    #[test]
    fn insert_keeps_sorted_and_deduplicated() {
        let mut s = QuerySet::new();
        assert!(s.insert(QueryId(5)));
        assert!(s.insert(QueryId(1)));
        assert!(s.insert(QueryId(3)));
        assert!(!s.insert(QueryId(3)));
        assert_eq!(raw(&s), [1, 3, 5]);
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
    fn intersect_a_word_with_many() {
        let small = qs(&[100, 5000]);
        let large: QuerySet = (0u32..4096).collect();
        assert_eq!(small.intersect(&large), qs(&[100]));
        assert_eq!(large.intersect(&small), qs(&[100]));
        assert_eq!(qs(&[4000, 4050]).intersect(&large), qs(&[4000, 4050]));
    }

    #[test]
    fn a_union_takes_each_set_once() {
        let mut union = Union::default();
        for set in [qs(&[3]), qs(&[]), qs(&[1, 60]), qs(&[2])] {
            union.add(&set);
        }
        assert_eq!(union.take(), qs(&[1, 2, 3, 60]));
        assert!(union.is_empty());
        union.add(&qs(&[5, 6]));
        union.insert(QueryId(500));
        union.add(&qs(&[7, 7000]));
        union.insert(QueryId(5));
        let wide = union.take();
        assert_eq!(wide, qs(&[5, 6, 7, 500, 7000]));
        assert!(union.is_empty());
        union.add(&qs(&[5, 6, 7]));
        union.add(&qs(&[500, 7000]));
        let again = union.take();
        assert_eq!(again, wide);
        assert!(
            matches!((&wide.0, &again.0), (Repr::Words(a), Repr::Words(b)) if Arc::ptr_eq(a, b))
        );
        assert_eq!(union.take(), QuerySet::new());
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
        assert_eq!(raw(&s), [1, 4, 9]);
        let wide = QuerySet::from_ids([QueryId(300), QueryId(2), QueryId(300), QueryId(70)]);
        assert_eq!(raw(&wide), [2, 70, 300]);
    }

    /// Ids within 64 of each other are one word, wherever they start; a
    /// wider set holds the words of its span, shared by its clones, and is
    /// one word again once it narrows.
    #[test]
    fn a_span_of_64_is_one_word_and_a_wider_one_is_shared() {
        assert_eq!(std::mem::size_of::<QuerySet>(), 16);
        let word = qs(&[1_000_063, 1_000_000, 1_000_017]);
        assert_eq!((word.len(), word.heap_size()), (3, 0));
        let mut wide = word.clone();
        assert!(wide.insert(QueryId(1_000_064)));
        assert_eq!(wide.heap_size(), 32 + 2 * 16);
        assert_eq!(raw(&wide), [1_000_000, 1_000_017, 1_000_063, 1_000_064]);
        let words = |s: &QuerySet| match &s.0 {
            Repr::Words(words) => Arc::as_ptr(words),
            Repr::Word { .. } => std::ptr::null(),
        };
        assert_eq!(words(&wide), words(&wide.clone()));
        assert!(wide.remove(QueryId(1_000_000)));
        assert_eq!((wide.len(), wide.heap_size()), (3, 0));
        assert_eq!(wide, qs(&[1_000_064, 1_000_063, 1_000_017]));
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
