//! An in-memory ordered index.
//!
//! The original Crescando storage manager only supported full table scans via
//! ClockScan; for SharedDB the authors "extended Crescando and implemented
//! B-Tree indexes and index probe operators as an additional access path"
//! (Section 4.4). This module is that extension: the standard library's
//! B-tree, [`BTreeMap`], mapping a key [`Value`] to a posting list of row
//! ids. Keys may be duplicated across rows (secondary indexes), so each
//! entry carries the full posting list for its key.
//!
//! A posting is the 32 bits a row id fits in (the key map and the back-links
//! already bound a table to 2³² − 1 versions): a key's only posting lies in
//! the map's entry, a `Vec<u32>` takes over from the second on. A table's
//! arena only grows, so the ids filed under a key arrive ascending and a list
//! stays sorted; "is it filed already" is a look at the list's last id.
//!
//! A bulk load does not insert at all: [`BTreeIndex::from_sorted`] groups the
//! run's sorted `(key, row)` pairs per key, each posting list allocated once
//! at its length, and the map is collected from the groups bottom up.
//!
//! The index is single-writer / multi-reader; the owning [`crate::Table`]
//! wraps it in the appropriate lock. Visibility (MVCC) is *not* handled here
//! — the probe operators filter row ids against their snapshot after the
//! lookup.

use crate::table::RowId;
use shareddb_common::Value;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;

/// An ordered index from key values to posting lists of row ids.
#[derive(Debug, Default)]
pub struct BTreeIndex {
    map: BTreeMap<Value, Postings>,
    /// `(key, row)` entries: the postings of every key.
    entries: usize,
}

/// The row ids filed under one key, ascending and never none.
#[derive(Debug)]
enum Postings {
    One(u32),
    Many(Vec<u32>),
}

impl Postings {
    fn as_slice(&self) -> &[u32] {
        match self {
            Postings::One(row) => std::slice::from_ref(row),
            Postings::Many(rows) => rows,
        }
    }

    /// Files `row` behind the others; `false` when it is the last one filed.
    fn push(&mut self, row: u32) -> bool {
        let last = *self
            .as_slice()
            .last()
            .expect("a posting list is never empty");
        debug_assert!(last <= row, "row ids are filed ascending");
        if last == row {
            return false;
        }
        match self {
            Postings::One(first) => *self = Postings::Many(vec![*first, row]),
            Postings::Many(rows) => rows.push(row),
        }
        true
    }
}

impl BTreeIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the index of `(key, row)` pairs sorted by key, the rows of a
    /// key ascending — what [`BTreeIndex::insert`] would hold after filing
    /// them in that order, a pair repeated back to back filed once — each
    /// posting list allocated once at its length. Of keys equal under
    /// `Value::cmp` the first spelling is kept, as by the insert that files
    /// it first.
    pub fn from_sorted(pairs: &[(&Value, u32)]) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0] <= w[1]),
            "pairs sorted by key, the rows of a key ascending"
        );
        let mut entries = 0;
        let groups = pairs.chunk_by(|a, b| a.0 == b.0).map(|group| {
            let distinct = 1 + group.windows(2).filter(|w| w[0].1 != w[1].1).count();
            entries += distinct;
            let postings = if distinct == 1 {
                Postings::One(group[0].1)
            } else {
                let mut rows = Vec::with_capacity(distinct);
                for &(_, row) in group {
                    if rows.last() != Some(&row) {
                        rows.push(row);
                    }
                }
                Postings::Many(rows)
            };
            (group[0].0.clone(), postings)
        });
        // Sorted input: the collect's sort is one pass, and the tree is
        // built bottom up.
        let map = groups.collect();
        BTreeIndex { map, entries }
    }

    /// Number of `(key, row)` entries.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// True when the index contains no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Inserts a `(key, row)` pair. The rows of a key arrive ascending; the
    /// one filed last under the key is ignored when it arrives again.
    pub fn insert(&mut self, key: Value, row: RowId) {
        let row = row.posting();
        let added = match self.map.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(Postings::One(row));
                true
            }
            Entry::Occupied(mut slot) => slot.get_mut().push(row),
        };
        self.entries += usize::from(added);
    }

    /// Returns the posting list for an exact key, ascending (empty slice
    /// when absent): each the 32 bits of a [`RowId`].
    pub fn get(&self, key: &Value) -> &[u32] {
        self.map.get(key).map_or(&[], Postings::as_slice)
    }

    /// Returns all row ids with keys in the given range, in key order.
    pub fn range_rows(&self, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId> {
        let rows = self.postings(low, high).flatten();
        rows.map(|&row| RowId::from(row)).collect()
    }

    /// Number of `(key, row)` entries with keys in the given range: what
    /// [`BTreeIndex::range_rows`] would return, counted off the posting
    /// lists without reading one.
    pub fn range_len(&self, low: Bound<&Value>, high: Bound<&Value>) -> usize {
        self.postings(low, high).map(<[u32]>::len).sum()
    }

    /// The posting lists of the keys in the given range, in key order; none
    /// when the range is empty by its bounds — the start above the end, or
    /// both excluding the same key — where [`BTreeMap::range`] would panic.
    fn postings(&self, low: Bound<&Value>, high: Bound<&Value>) -> impl Iterator<Item = &[u32]> {
        let empty = match (low, high) {
            (Bound::Excluded(l), Bound::Excluded(h)) => l >= h,
            (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) => {
                l > h
            }
            _ => false,
        };
        let range = (!empty).then(|| self.map.range::<Value, _>((low, high)));
        range.into_iter().flatten().map(|(_, rows)| rows.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    fn row(i: u64) -> RowId {
        RowId(i)
    }

    #[test]
    fn insert_and_get() {
        let mut idx = BTreeIndex::new();
        idx.insert(Value::Int(5), row(50));
        idx.insert(Value::Int(3), row(30));
        idx.insert(Value::Int(5), row(51));
        assert_eq!(idx.get(&Value::Int(5)), &[50, 51]);
        assert_eq!(idx.get(&Value::Int(3)), &[30]);
        assert!(idx.get(&Value::Int(99)).is_empty());
        assert_eq!(idx.map.len(), 2);
        assert_eq!(idx.entry_count(), 3);
    }

    #[test]
    fn duplicate_pair_ignored() {
        let mut idx = BTreeIndex::new();
        idx.insert(Value::Int(1), row(1));
        idx.insert(Value::Int(1), row(1));
        assert_eq!(idx.entry_count(), 1);
    }

    #[test]
    fn scattered_keys_are_all_found() {
        let mut idx = BTreeIndex::new();
        let n = 5_000i64;
        for i in 0..n {
            idx.insert(Value::Int((i * 7919) % n), row(i as u64));
        }
        assert_eq!(idx.entry_count(), n as usize);
        for i in 0..n {
            let key = Value::Int((i * 7919) % n);
            assert!(
                idx.get(&key).contains(&(i as u32)),
                "missing entry for key {key}"
            );
        }
    }

    #[test]
    fn range_queries() {
        let mut idx = BTreeIndex::new();
        for i in 0..1000i64 {
            idx.insert(Value::Int(i), row(i as u64));
        }
        let rows = idx.range_rows(
            Bound::Included(&Value::Int(10)),
            Bound::Excluded(&Value::Int(15)),
        );
        assert_eq!(rows, vec![row(10), row(11), row(12), row(13), row(14)]);
        let rows = idx.range_rows(Bound::Excluded(&Value::Int(995)), Bound::Unbounded);
        assert_eq!(rows, vec![row(996), row(997), row(998), row(999)]);
        let rows = idx.range_rows(Bound::Unbounded, Bound::Included(&Value::Int(2)));
        assert_eq!(rows, vec![row(0), row(1), row(2)]);
        // Range results are in key order.
        let all = idx.range_rows(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all, (0..1000).map(row).collect::<Vec<_>>());
    }

    #[test]
    fn range_on_text_keys() {
        let mut idx = BTreeIndex::new();
        for (i, name) in ["ADAMS", "BAKER", "CLARK", "DAVIS", "EVANS"]
            .iter()
            .enumerate()
        {
            idx.insert(Value::text(*name), row(i as u64));
        }
        let (low, high) = (Value::text("B"), Value::text("D"));
        let rows = idx.range_rows(Bound::Included(&low), Bound::Excluded(&high));
        assert_eq!(rows, vec![row(1), row(2)]);
        assert_eq!(
            idx.range_len(Bound::Included(&low), Bound::Excluded(&high)),
            2
        );
        assert_eq!(idx.range_len(Bound::Included(&low), Bound::Unbounded), 4);
    }

    /// A range whose start lies above its end, or whose ends both exclude
    /// the same key, holds nothing — and reading it does not panic.
    #[test]
    fn an_empty_range_by_its_bounds_returns_nothing() {
        let mut idx = BTreeIndex::new();
        for i in 0..100i64 {
            idx.insert(Value::Int(i), row(i as u64));
        }
        let (five, nine) = (Value::Int(5), Value::Int(9));
        let empty = [
            (Bound::Included(&nine), Bound::Included(&five)),
            (Bound::Excluded(&nine), Bound::Excluded(&five)),
            (Bound::Included(&nine), Bound::Excluded(&five)),
            (Bound::Excluded(&five), Bound::Excluded(&five)),
            (Bound::Excluded(&five), Bound::Included(&five)),
            (Bound::Included(&five), Bound::Excluded(&five)),
        ];
        for (low, high) in empty {
            assert_eq!(idx.range_rows(low, high), vec![], "{low:?}..{high:?}");
            assert_eq!(idx.range_len(low, high), 0, "{low:?}..{high:?}");
        }
        let only = (Bound::Included(&five), Bound::Included(&five));
        assert_eq!(idx.range_rows(only.0, only.1), vec![row(5)]);
    }

    #[test]
    fn mixed_type_keys_follow_total_order() {
        let mut idx = BTreeIndex::new();
        idx.insert(Value::Int(1), row(1));
        idx.insert(Value::text("a"), row(2));
        idx.insert(Value::Null, row(3));
        // NULL sorts first in the total order.
        let all = idx.range_rows(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all[0], row(3));
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn repeated_keys_hold_every_row() {
        let mut idx = BTreeIndex::new();
        for i in 0..500i64 {
            idx.insert(Value::Int(i % 50), row(i as u64));
        }
        assert_eq!(idx.map.len(), 50);
        assert_eq!(idx.entry_count(), 500);
        assert_eq!(idx.range_len(Bound::Unbounded, Bound::Unbounded), 500);
    }

    /// A key's only posting lies in its entry; a list takes over from the
    /// second.
    #[test]
    fn a_lone_posting_lies_in_its_entry() {
        let mut idx = BTreeIndex::new();
        idx.insert(Value::Int(3), row(3));
        assert!(matches!(idx.map[&Value::Int(3)], Postings::One(3)));
        idx.insert(Value::Int(3), row(40));
        assert!(matches!(&idx.map[&Value::Int(3)], Postings::Many(rows) if rows == &[3, 40]));
        assert_eq!(idx.get(&Value::Int(3)), &[3, 40]);
    }

    // -- the index against a model --------------------------------------------

    /// One insert: a key, and whether its row id is a new one (else the last
    /// one again — a repeated pair when the key is the same too).
    #[derive(Debug, Clone, Copy)]
    struct Step {
        key: i64,
        fresh: bool,
    }

    struct AnySteps;

    impl Strategy for AnySteps {
        type Value = Vec<Step>;
        fn generate(&self, rng: &mut TestRng) -> Vec<Step> {
            let pick = |rng: &mut TestRng, n: usize| (0..n).generate(rng);
            let ascending = pick(rng, 3) == 0;
            let mut next_key = 0;
            let steps = (0..1 + pick(rng, 600)).map(|_| {
                // Ascending keys repeat now and then, as an id handed out in
                // order is posted under for each of its rows.
                next_key += (pick(rng, 3) != 0) as i64;
                let key = if ascending {
                    next_key
                } else {
                    pick(rng, 300) as i64
                };
                let fresh = pick(rng, 8) != 0;
                Step { key, fresh }
            });
            steps.collect()
        }
    }

    /// The index as a model: every key's rows, in the order filed.
    type Model = BTreeMap<i64, Vec<u32>>;

    /// Applies `steps` to the index and the model, `next_row` the last row
    /// id handed out, checking the counts after each.
    fn apply_steps(tree: &mut BTreeIndex, model: &mut Model, steps: &[Step], next_row: &mut u32) {
        for &Step { key, fresh } in steps {
            *next_row += fresh as u32;
            tree.insert(Value::Int(key), RowId::from(*next_row));
            let rows = model.entry(key).or_default();
            if rows.last() != Some(next_row) {
                rows.push(*next_row);
            }
            assert_counts(tree, model);
        }
    }

    /// The counts are the model's.
    fn assert_counts(tree: &BTreeIndex, model: &Model) {
        prop_assert_eq!(tree.map.len(), model.len());
        prop_assert_eq!(
            tree.entry_count(),
            model.values().map(Vec::len).sum::<usize>()
        );
    }

    /// A bound of kind `kind` — included, excluded or none — at `at`.
    fn bound(kind: usize, at: &Value) -> Bound<&Value> {
        match kind {
            0 => Bound::Included(at),
            1 => Bound::Excluded(at),
            _ => Bound::Unbounded,
        }
    }

    /// The index holds the model: each key's postings, every key in order,
    /// and the range from `lo` to `hi` under the bound kinds `kinds` — an
    /// inverted one included — with its length.
    fn assert_holds(tree: &BTreeIndex, model: &Model, (lo, hi): (i64, i64), kinds: (usize, usize)) {
        assert_counts(tree, model);
        for (key, rows) in model {
            prop_assert_eq!(tree.get(&Value::Int(*key)), &rows[..]);
        }
        let all: Vec<(i64, Vec<u32>)> = tree
            .map
            .iter()
            .map(|(key, rows)| (key.as_int().unwrap(), rows.as_slice().to_vec()))
            .collect();
        prop_assert_eq!(all, model.clone().into_iter().collect::<Vec<_>>());
        let (low, high) = (Value::Int(lo), Value::Int(hi));
        let (low, high) = (bound(kinds.0, &low), bound(kinds.1, &high));
        let within = |key: &i64| {
            let key = Value::Int(*key);
            let above = match low {
                Bound::Included(l) => key >= *l,
                Bound::Excluded(l) => key > *l,
                Bound::Unbounded => true,
            };
            let below = match high {
                Bound::Included(h) => key <= *h,
                Bound::Excluded(h) => key < *h,
                Bound::Unbounded => true,
            };
            above && below
        };
        let expect: Vec<u64> = model
            .iter()
            .filter(|(key, _)| within(key))
            .flat_map(|(_, rows)| rows.iter().map(|&row| u64::from(row)))
            .collect();
        let got: Vec<u64> = tree.range_rows(low, high).iter().map(|r| r.0).collect();
        prop_assert_eq!(tree.range_len(low, high), expect.len());
        prop_assert_eq!(got, expect);
    }

    /// `(key, row)` pairs sorted, as a bulk load hands them over: none, one,
    /// as many as fill a node of the std map and one more, or a thousand
    /// and more, under keys that repeat often, seldom, or never, now and
    /// then the pair before again.
    struct SortedPairs;

    impl Strategy for SortedPairs {
        type Value = Vec<(i64, u32)>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            const SIZES: [usize; 6] = [0, 1, 11, 12, 1_056, 1_057];
            let pick = |rng: &mut TestRng, n: usize| (0..n).generate(rng);
            let n = SIZES[pick(rng, SIZES.len())];
            let keys = [1 + n / 8, 1 + 10 * n, 0][pick(rng, 3)];
            let mut pairs: Vec<(i64, u32)> = Vec::with_capacity(n);
            while pairs.len() < n {
                let pair = match pairs.last() {
                    Some(&last) if keys > 0 && pick(rng, 8) == 0 => last,
                    // No key space: every key its own.
                    _ if keys == 0 => (3 * pairs.len() as i64, pick(rng, 2 * n) as u32),
                    _ => (pick(rng, keys) as i64, pick(rng, 2 * n) as u32),
                };
                pairs.push(pair);
            }
            pairs.sort();
            pairs
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The index is a `BTreeMap<key, Vec<row>>` that ignores a pair filed
        /// last under its key: after every insert it holds the model's
        /// counts, and after all of them its keys, postings — in the order
        /// filed — and ranges.
        #[test]
        fn btree_matches_model(steps in AnySteps, lo in 0i64..300, len in -50i64..100, kinds in (0usize..3, 0usize..3)) {
            let (mut tree, mut model) = (BTreeIndex::new(), Model::new());
            apply_steps(&mut tree, &mut model, &steps, &mut 0);
            assert_holds(&tree, &model, (lo, lo + len), kinds);
        }

        /// An index built from sorted pairs is the index their inserts
        /// build: the model's keys, postings, counts and ranges — and it
        /// stays the model through random inserts after.
        #[test]
        fn btree_from_sorted_matches_model(pairs in SortedPairs, steps in AnySteps, lo in 0i64..300, len in -50i64..100, kinds in (0usize..3, 0usize..3)) {
            let values: Vec<Value> = pairs.iter().map(|&(key, _)| Value::Int(key)).collect();
            let sorted: Vec<(&Value, u32)> = values.iter().zip(&pairs).map(|(key, &(_, row))| (key, row)).collect();
            let mut tree = BTreeIndex::from_sorted(&sorted);
            let mut model = Model::new();
            for &(key, row) in &pairs {
                let rows = model.entry(key).or_default();
                if rows.last() != Some(&row) {
                    rows.push(row);
                }
            }
            assert_holds(&tree, &model, (lo, lo + len), kinds);
            let mut next_row = pairs.iter().map(|&(_, row)| row).max().unwrap_or(0);
            apply_steps(&mut tree, &mut model, &steps, &mut next_row);
            assert_holds(&tree, &model, (lo, lo + len), kinds);
        }
    }
}
