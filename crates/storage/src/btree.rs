//! An in-memory B+-tree index.
//!
//! The original Crescando storage manager only supported full table scans via
//! ClockScan; for SharedDB the authors "extended Crescando and implemented
//! B-Tree indexes and index probe operators as an additional access path"
//! (Section 4.4). This module is that extension: a classic order-`B` B+-tree
//! mapping a key [`Value`] to a posting list of row ids. Keys may be
//! duplicated across rows (secondary indexes), so each leaf entry carries the
//! full posting list for its key.
//!
//! A posting is the 32 bits a row id fits in (the key map and the back-links
//! already bound a table to 2³² − 1 versions): a key's only posting lies in
//! the leaf, a `Vec<u32>` takes over from the second on. A table's arena only
//! grows, so the ids filed under a key arrive ascending and a list stays
//! sorted; "is it filed already" is a look at the list's last id. Leaves are
//! allocated once, at the size a split finds them at, and a key appended past
//! the end of a full leaf starts the next leaf alone: keys that arrive
//! ascending — ids handed out in order — leave every leaf behind them full,
//! not half empty for good.
//!
//! A bulk load does not insert at all: [`BTreeIndex::from_sorted`] builds an
//! empty index bottom up from the run's `(key, row)` pairs sorted once —
//! leaves of `MAX_KEYS` keys, all full but the last, each posting list
//! allocated once at its length, and each level above packed from the one
//! below — in one pass and without a descent, whatever order the keys came
//! in. Inserts into it later split its full leaves as any other.
//!
//! The tree is single-writer / multi-reader; the owning [`crate::Table`] wraps
//! it in the appropriate lock. Visibility (MVCC) is *not* handled here — the
//! probe operators filter row ids against their snapshot after the lookup.

use crate::table::RowId;
use shareddb_common::Value;
use std::fmt;
use std::ops::Bound;

/// Maximum number of keys per node. 2*B children for internal nodes.
const MAX_KEYS: usize = 32;
/// Minimum number of keys per node after deletion rebalancing.
const MIN_KEYS: usize = MAX_KEYS / 2;

/// A B+-tree index from key values to posting lists of row ids.
pub struct BTreeIndex {
    root: Node,
    len: usize,
    entries: usize,
}

enum Node {
    Leaf(LeafNode),
    Internal(InternalNode),
}

struct LeafNode {
    keys: Vec<Value>,
    /// Posting list per key: the row ids of all row versions with this key.
    postings: Vec<Postings>,
}

/// The row ids filed under one key, ascending and never none.
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

struct InternalNode {
    /// Separator keys; `children[i]` holds keys `< keys[i]`,
    /// `children[i+1]` holds keys `>= keys[i]`.
    keys: Vec<Value>,
    children: Vec<Node>,
}

enum InsertResult {
    /// No structural change.
    Done,
    /// The child split; the new right sibling and its first key bubble up.
    Split(Value, Node),
}

impl Default for BTreeIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl BTreeIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        BTreeIndex {
            root: Node::Leaf(LeafNode::new()),
            len: 0,
            entries: 0,
        }
    }

    /// Builds the index of `(key, row)` pairs sorted by key, the rows of a
    /// key ascending — what [`BTreeIndex::insert`] would hold after filing
    /// them in that order, a pair repeated back to back filed once — bottom
    /// up: leaves of `MAX_KEYS` keys, all full but the last, each posting
    /// list allocated once at its length, and the levels above them of as
    /// few nodes as hold them, children spread evenly. Of keys equal under
    /// `Value::cmp` the first spelling is kept, as by the insert that files
    /// it first.
    pub fn from_sorted(pairs: &[(&Value, u32)]) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0] <= w[1]),
            "pairs sorted by key, the rows of a key ascending"
        );
        let (mut len, mut entries) = (0, 0);
        let mut leaves: Vec<(Value, Node)> = Vec::new();
        let mut leaf = LeafNode::new();
        let mut rest = pairs;
        while let Some(&(key, _)) = rest.first() {
            let run = rest.iter().take_while(|(k, _)| *k == key).count();
            let (group, after) = rest.split_at(run);
            rest = after;
            let distinct = 1 + group.windows(2).filter(|w| w[0].1 != w[1].1).count();
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
            if leaf.keys.len() == MAX_KEYS {
                let full = std::mem::replace(&mut leaf, LeafNode::new());
                leaves.push((full.keys[0].clone(), Node::Leaf(full)));
            }
            leaf.keys.push(key.clone());
            leaf.postings.push(postings);
            len += 1;
            entries += distinct;
        }
        // The last leaf; an empty tree's only one, whose least key no
        // separator ever takes.
        let least = leaf.keys.first().cloned().unwrap_or(Value::Null);
        leaves.push((least, Node::Leaf(leaf)));
        // Each level above: nodes of up to MAX_KEYS + 1 children, spread
        // evenly, each known by its least key — its separator in the parent.
        let mut level = leaves;
        while level.len() > 1 {
            let parents = level.len().div_ceil(MAX_KEYS + 1);
            let (fanout, wider) = (level.len() / parents, level.len() % parents);
            let mut children = level.into_iter();
            level = (0..parents)
                .map(|p| {
                    let fanout = fanout + usize::from(p < wider);
                    let (least, first) = children.next().expect("a child per slot");
                    let mut node = InternalNode {
                        keys: Vec::with_capacity(fanout - 1),
                        children: Vec::with_capacity(fanout),
                    };
                    node.children.push(first);
                    for (sep, child) in children.by_ref().take(fanout - 1) {
                        node.keys.push(sep);
                        node.children.push(child);
                    }
                    (least, Node::Internal(node))
                })
                .collect();
        }
        let (_, root) = level.pop().expect("a level of one node");
        BTreeIndex { root, len, entries }
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.len
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
        let (added_key, added_entry, result) = self.root.insert(key, row.posting());
        if added_key {
            self.len += 1;
        }
        if added_entry {
            self.entries += 1;
        }
        if let InsertResult::Split(sep, right) = result {
            // Grow the tree by one level.
            let old_root = std::mem::replace(
                &mut self.root,
                Node::Internal(InternalNode {
                    keys: Vec::new(),
                    children: Vec::new(),
                }),
            );
            if let Node::Internal(new_root) = &mut self.root {
                new_root.keys.push(sep);
                new_root.children.push(old_root);
                new_root.children.push(right);
            }
        }
    }

    /// Removes a `(key, row)` pair. Returns `true` when the pair was present.
    ///
    /// Removal uses lazy deletion for simplicity and predictable latency: the
    /// row id is removed from the posting list and empty posting lists are
    /// dropped from their leaf, but underfull leaves are only merged when a
    /// later insert splits through them. This keeps removals O(log n) without
    /// the full rebalancing machinery; the tree never returns wrong results.
    pub fn remove(&mut self, key: &Value, row: RowId) -> bool {
        let Ok(row) = u32::try_from(row.0) else {
            return false;
        };
        let (removed, removed_key) = self.root.remove(key, row);
        if removed {
            self.entries -= 1;
        }
        if removed_key {
            self.len -= 1;
        }
        removed
    }

    /// Returns the posting list for an exact key, ascending (empty slice
    /// when absent): each the 32 bits of a [`RowId`].
    pub fn get(&self, key: &Value) -> &[u32] {
        self.root.get(key).unwrap_or(&[])
    }

    /// Returns all `(key, row)` pairs with keys in the given range, in key
    /// order.
    pub fn range(&self, low: Bound<&Value>, high: Bound<&Value>) -> Vec<(Value, RowId)> {
        let mut out = Vec::new();
        self.root.visit_range(&low, &high, &mut |key, posting| {
            out.extend(posting.iter().map(|&row| (key.clone(), RowId::from(row))));
        });
        out
    }

    /// Returns all row ids with keys in the given range, in key order.
    pub fn range_rows(&self, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId> {
        let mut out = Vec::new();
        self.root.visit_range(&low, &high, &mut |_, posting| {
            out.extend(posting.iter().map(|&row| RowId::from(row)))
        });
        out
    }

    /// Number of `(key, row)` entries with keys in the given range: what
    /// [`BTreeIndex::range_rows`] would return, counted off the posting
    /// lists without reading one.
    pub fn range_len(&self, low: Bound<&Value>, high: Bound<&Value>) -> usize {
        let mut entries = 0;
        self.root
            .visit_range(&low, &high, &mut |_, posting| entries += posting.len());
        entries
    }

    /// Iterates over every `(key, posting list)` pair in key order. Intended
    /// for tests and for rebuilding indexes after recovery.
    pub fn iter_all(&self) -> Vec<(Value, Vec<RowId>)> {
        let mut out = Vec::new();
        self.root
            .visit_range(&Bound::Unbounded, &Bound::Unbounded, &mut |key, posting| {
                let rows = posting.iter().map(|&row| RowId::from(row));
                out.push((key.clone(), rows.collect()));
            });
        out
    }

    /// Bytes the tree holds on the heap: nodes and posting lists at their
    /// capacity, text keys aside.
    pub fn heap_size(&self) -> usize {
        self.root.heap_size()
    }

    /// Depth of the tree (1 for a single leaf). Exposed for tests that verify
    /// the tree actually splits.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Verifies structural invariants (key ordering, separator correctness,
    /// fanout bounds, ascending posting lists). Used by tests and
    /// property-based checks.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.root.check(None, None, true)?;
        Ok(())
    }
}

impl Node {
    fn depth(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Internal(n) => 1 + n.children[0].depth(),
        }
    }

    fn get(&self, key: &Value) -> Option<&[u32]> {
        match self {
            Node::Leaf(leaf) => leaf
                .keys
                .binary_search(key)
                .ok()
                .map(|i| leaf.postings[i].as_slice()),
            Node::Internal(node) => {
                let idx = node.child_index(key);
                node.children[idx].get(key)
            }
        }
    }

    /// Returns (added_new_key, added_new_entry, split_result).
    fn insert(&mut self, key: Value, row: u32) -> (bool, bool, InsertResult) {
        match self {
            Node::Leaf(leaf) => match leaf.keys.binary_search(&key) {
                Ok(i) => (false, leaf.postings[i].push(row), InsertResult::Done),
                Err(pos) => {
                    leaf.keys.insert(pos, key);
                    leaf.postings.insert(pos, Postings::One(row));
                    if leaf.keys.len() > MAX_KEYS {
                        // Appended past the end of a full leaf: more of the
                        // same is likely to follow, so the leaf stays full
                        // and the key starts the next one.
                        let mid = if pos == MAX_KEYS {
                            pos
                        } else {
                            leaf.keys.len() / 2
                        };
                        let (sep, right) = leaf.split(mid);
                        (true, true, InsertResult::Split(sep, right))
                    } else {
                        (true, true, InsertResult::Done)
                    }
                }
            },
            Node::Internal(node) => {
                let idx = node.child_index(&key);
                let (added_key, added_entry, result) = node.children[idx].insert(key, row);
                if let InsertResult::Split(sep, right) = result {
                    node.keys.insert(idx, sep);
                    node.children.insert(idx + 1, right);
                    if node.keys.len() > MAX_KEYS {
                        let (sep, right) = node.split();
                        return (added_key, added_entry, InsertResult::Split(sep, right));
                    }
                }
                (added_key, added_entry, InsertResult::Done)
            }
        }
    }

    /// Returns (removed_entry, removed_whole_key).
    fn remove(&mut self, key: &Value, row: u32) -> (bool, bool) {
        match self {
            Node::Leaf(leaf) => {
                let Ok(i) = leaf.keys.binary_search(key) else {
                    return (false, false);
                };
                match &mut leaf.postings[i] {
                    Postings::One(only) if *only == row => {
                        leaf.keys.remove(i);
                        leaf.postings.remove(i);
                        (true, true)
                    }
                    Postings::One(_) => (false, false),
                    Postings::Many(rows) => {
                        let Ok(at) = rows.binary_search(&row) else {
                            return (false, false);
                        };
                        // In place: the rows behind it stay in order.
                        rows.remove(at);
                        if let [only] = rows[..] {
                            leaf.postings[i] = Postings::One(only);
                        }
                        (true, false)
                    }
                }
            }
            Node::Internal(node) => {
                let idx = node.child_index(key);
                node.children[idx].remove(key, row)
            }
        }
    }

    /// Calls `visit` with every key in the range and its posting list, in
    /// key order.
    fn visit_range(
        &self,
        low: &Bound<&Value>,
        high: &Bound<&Value>,
        visit: &mut impl FnMut(&Value, &[u32]),
    ) {
        match self {
            Node::Leaf(leaf) => {
                for (k, posting) in leaf.keys.iter().zip(&leaf.postings) {
                    if bound_contains(low, high, k) {
                        visit(k, posting.as_slice());
                    }
                }
            }
            Node::Internal(node) => {
                // Child i covers keys in [keys[i-1], keys[i]); prune children
                // whose interval cannot intersect the requested bounds.
                for (i, child) in node.children.iter().enumerate() {
                    let lower_sep = i.checked_sub(1).map(|j| &node.keys[j]);
                    let upper_sep = node.keys.get(i);
                    // Skip when every key of the child is above the high bound.
                    let above_high = match (lower_sep, high) {
                        (Some(sep), Bound::Included(h)) => *h < sep,
                        (Some(sep), Bound::Excluded(h)) => *h <= sep,
                        _ => false,
                    };
                    // Skip when every key of the child is below the low bound.
                    let below_low = match (upper_sep, low) {
                        (Some(sep), Bound::Included(l)) => *l >= sep,
                        (Some(sep), Bound::Excluded(l)) => *l >= sep,
                        _ => false,
                    };
                    if !above_high && !below_low {
                        child.visit_range(low, high, visit);
                    }
                }
            }
        }
    }

    fn heap_size(&self) -> usize {
        use std::mem::size_of;
        match self {
            Node::Leaf(leaf) => {
                let lists = leaf.postings.iter().map(|p| match p {
                    Postings::One(_) => 0,
                    Postings::Many(rows) => rows.capacity() * size_of::<u32>(),
                });
                leaf.keys.capacity() * size_of::<Value>()
                    + leaf.postings.capacity() * size_of::<Postings>()
                    + lists.sum::<usize>()
            }
            Node::Internal(node) => {
                node.keys.capacity() * size_of::<Value>()
                    + node.children.capacity() * size_of::<Node>()
                    + node.children.iter().map(Node::heap_size).sum::<usize>()
            }
        }
    }

    fn check(
        &self,
        lower: Option<&Value>,
        upper: Option<&Value>,
        is_root: bool,
    ) -> Result<(), String> {
        match self {
            Node::Leaf(leaf) => {
                if leaf.keys.len() != leaf.postings.len() {
                    return Err("leaf keys/postings length mismatch".into());
                }
                if leaf.keys.len() > MAX_KEYS {
                    return Err(format!("a leaf of {} keys", leaf.keys.len()));
                }
                for w in leaf.keys.windows(2) {
                    if w[0] >= w[1] {
                        return Err(format!("leaf keys out of order: {} >= {}", w[0], w[1]));
                    }
                }
                for k in &leaf.keys {
                    if let Some(lo) = lower {
                        if k < lo {
                            return Err(format!("leaf key {k} below lower bound {lo}"));
                        }
                    }
                    if let Some(hi) = upper {
                        if k >= hi {
                            return Err(format!("leaf key {k} not below upper bound {hi}"));
                        }
                    }
                }
                for (key, posting) in leaf.keys.iter().zip(&leaf.postings) {
                    let rows = posting.as_slice();
                    let lone_list = matches!(posting, Postings::Many(rows) if rows.len() < 2);
                    if rows.is_empty() || lone_list {
                        return Err(format!("{} postings under {key} in a list", rows.len()));
                    }
                    if rows.windows(2).any(|w| w[0] >= w[1]) {
                        return Err(format!("postings of {key} out of order: {rows:?}"));
                    }
                }
                Ok(())
            }
            Node::Internal(node) => {
                if node.children.len() != node.keys.len() + 1 {
                    return Err("internal fanout mismatch".into());
                }
                if !is_root && node.keys.len() < MIN_KEYS / 2 {
                    // Lazy deletion means we only guarantee a loose lower
                    // bound; the important invariants are ordering ones.
                }
                for w in node.keys.windows(2) {
                    if w[0] >= w[1] {
                        return Err("internal keys out of order".into());
                    }
                }
                for (i, child) in node.children.iter().enumerate() {
                    let lo = if i == 0 {
                        lower
                    } else {
                        Some(&node.keys[i - 1])
                    };
                    let hi = if i == node.keys.len() {
                        upper
                    } else {
                        Some(&node.keys[i])
                    };
                    child.check(lo, hi, false)?;
                }
                Ok(())
            }
        }
    }
}

impl LeafNode {
    /// An empty leaf with room for the key that makes it split: a leaf is
    /// allocated once.
    fn new() -> Self {
        LeafNode {
            keys: Vec::with_capacity(MAX_KEYS + 1),
            postings: Vec::with_capacity(MAX_KEYS + 1),
        }
    }

    /// Moves the keys from `mid` on to a new right sibling.
    fn split(&mut self, mid: usize) -> (Value, Node) {
        let mut right = LeafNode::new();
        right.keys.extend(self.keys.drain(mid..));
        right.postings.extend(self.postings.drain(mid..));
        (right.keys[0].clone(), Node::Leaf(right))
    }
}

impl InternalNode {
    fn child_index(&self, key: &Value) -> usize {
        // First separator strictly greater than key determines the child.
        match self.keys.binary_search(key) {
            Ok(i) => i + 1, // equal keys go right (keys >= sep live right)
            Err(i) => i,
        }
    }

    fn split(&mut self) -> (Value, Node) {
        let mid = self.keys.len() / 2;
        let sep = self.keys[mid].clone();
        let right_keys = self.keys.split_off(mid + 1);
        self.keys.pop(); // remove the separator itself
        let right_children = self.children.split_off(mid + 1);
        (
            sep,
            Node::Internal(InternalNode {
                keys: right_keys,
                children: right_children,
            }),
        )
    }
}

fn bound_contains(low: &Bound<&Value>, high: &Bound<&Value>, key: &Value) -> bool {
    let low_ok = match low {
        Bound::Unbounded => true,
        Bound::Included(l) => key >= *l,
        Bound::Excluded(l) => key > *l,
    };
    let high_ok = match high {
        Bound::Unbounded => true,
        Bound::Included(h) => key <= *h,
        Bound::Excluded(h) => key < *h,
    };
    low_ok && high_ok
}

impl fmt::Debug for BTreeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BTreeIndex")
            .field("keys", &self.len)
            .field("entries", &self.entries)
            .field("depth", &self.depth())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::BTreeMap;

    fn row(i: u64) -> RowId {
        RowId(i)
    }

    impl BTreeIndex {
        /// Keys per leaf, left to right.
        fn leaf_fill(&self) -> Vec<usize> {
            fn walk(node: &Node, fill: &mut Vec<usize>) {
                match node {
                    Node::Leaf(leaf) => fill.push(leaf.keys.len()),
                    Node::Internal(node) => node.children.iter().for_each(|c| walk(c, fill)),
                }
            }
            let mut fill = Vec::new();
            walk(&self.root, &mut fill);
            fill
        }
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
        assert_eq!(idx.key_count(), 2);
        assert_eq!(idx.entry_count(), 3);
        idx.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_pair_ignored() {
        let mut idx = BTreeIndex::new();
        idx.insert(Value::Int(1), row(1));
        idx.insert(Value::Int(1), row(1));
        assert_eq!(idx.entry_count(), 1);
    }

    #[test]
    fn splits_preserve_all_keys() {
        let mut idx = BTreeIndex::new();
        let n = 5_000i64;
        for i in 0..n {
            idx.insert(Value::Int((i * 7919) % n), row(i as u64));
        }
        assert!(idx.depth() > 1, "tree should have split");
        idx.check_invariants().unwrap();
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
        let all = idx.range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 1000);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
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

    #[test]
    fn remove_entries_and_keys() {
        let mut idx = BTreeIndex::new();
        idx.insert(Value::Int(1), row(10));
        idx.insert(Value::Int(1), row(11));
        idx.insert(Value::Int(2), row(20));
        assert!(idx.remove(&Value::Int(1), row(10)));
        assert!(!idx.remove(&Value::Int(1), row(10)));
        assert_eq!(idx.get(&Value::Int(1)), &[11]);
        assert!(idx.remove(&Value::Int(1), row(11)));
        assert!(idx.get(&Value::Int(1)).is_empty());
        assert_eq!(idx.key_count(), 1);
        assert_eq!(idx.entry_count(), 1);
        assert!(!idx.remove(&Value::Int(42), row(1)));
        idx.check_invariants().unwrap();
    }

    #[test]
    fn remove_across_splits() {
        let mut idx = BTreeIndex::new();
        for i in 0..2000i64 {
            idx.insert(Value::Int(i), row(i as u64));
        }
        for i in (0..2000i64).step_by(2) {
            assert!(idx.remove(&Value::Int(i), row(i as u64)));
        }
        idx.check_invariants().unwrap();
        assert_eq!(idx.entry_count(), 1000);
        for i in 0..2000i64 {
            let present = !idx.get(&Value::Int(i)).is_empty();
            assert_eq!(present, i % 2 == 1, "key {i}");
        }
    }

    #[test]
    fn mixed_type_keys_follow_total_order() {
        let mut idx = BTreeIndex::new();
        idx.insert(Value::Int(1), row(1));
        idx.insert(Value::text("a"), row(2));
        idx.insert(Value::Null, row(3));
        idx.check_invariants().unwrap();
        let all = idx.iter_all();
        assert_eq!(all.len(), 3);
        // NULL sorts first in the total order.
        assert_eq!(all[0].0, Value::Null);
    }

    #[test]
    fn iter_all_matches_inserted_content() {
        let mut idx = BTreeIndex::new();
        for i in 0..500i64 {
            idx.insert(Value::Int(i % 50), row(i as u64));
        }
        let all = idx.iter_all();
        assert_eq!(all.len(), 50);
        assert_eq!(all.iter().map(|(_, p)| p.len()).sum::<usize>(), 500);
    }

    /// A key's only posting lies in the leaf; a list takes over from the
    /// second and gives way again when one is left.
    #[test]
    fn a_lone_posting_lies_in_the_leaf() {
        let mut idx = BTreeIndex::new();
        let empty = idx.heap_size();
        for key in 0..MAX_KEYS as i64 {
            idx.insert(Value::Int(key), row(key as u64));
        }
        assert_eq!(idx.heap_size(), empty, "a leaf is allocated once");
        idx.insert(Value::Int(3), row(40));
        assert!(idx.heap_size() > empty);
        assert_eq!(idx.get(&Value::Int(3)), &[3, 40]);
        assert!(idx.remove(&Value::Int(3), row(3)));
        assert_eq!(idx.get(&Value::Int(3)), &[40]);
        idx.check_invariants().unwrap();
    }

    /// Keys that arrive ascending leave every leaf behind them full.
    #[test]
    fn ascending_keys_fill_their_leaves() {
        let mut idx = BTreeIndex::new();
        for key in 0..10 * MAX_KEYS as i64 + 5 {
            idx.insert(Value::Int(key), row(key as u64));
        }
        let fill = idx.leaf_fill();
        let (last, full) = fill.split_last().unwrap();
        assert!(full.iter().all(|&keys| keys == MAX_KEYS), "{fill:?}");
        assert_eq!(*last, 5);
    }

    // -- the tree against a model ---------------------------------------------

    /// One step: a key, whether the next row id is a new one (else the last
    /// one again — a repeated pair when the key is the same too), and what
    /// to do with them.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Insert {
            key: i64,
            fresh: bool,
        },
        /// Removes the `nth` row (modulo their number) filed under the key.
        Remove {
            key: i64,
            nth: usize,
        },
    }

    #[derive(Debug)]
    struct Steps {
        ascending: bool,
        steps: Vec<Step>,
    }

    struct AnySteps;

    impl Strategy for AnySteps {
        type Value = Steps;
        fn generate(&self, rng: &mut TestRng) -> Steps {
            let pick = |rng: &mut TestRng, n: usize| (0..n).generate(rng);
            let ascending = pick(rng, 3) == 0;
            let mut next_key = 0;
            let steps = (0..1 + pick(rng, 600)).map(|_| {
                if pick(rng, 5) == 0 {
                    let (key, nth) = (pick(rng, 300) as i64, pick(rng, 4));
                    return Step::Remove { key, nth };
                }
                // Ascending keys repeat now and then, as an id handed out in
                // order is posted under for each of its rows.
                next_key += (pick(rng, 3) != 0) as i64;
                let key = if ascending {
                    next_key
                } else {
                    pick(rng, 300) as i64
                };
                let fresh = pick(rng, 8) != 0;
                Step::Insert { key, fresh }
            });
            Steps {
                ascending,
                steps: steps.collect(),
            }
        }
    }

    /// The tree as a model: every key's rows, in the order filed.
    type Model = BTreeMap<i64, Vec<u32>>;

    /// Applies `steps` to the tree and the model, `next_row` the last row id
    /// handed out, checking the invariants and counts after each; returns
    /// whether a pair was removed.
    fn apply_steps(
        tree: &mut BTreeIndex,
        model: &mut Model,
        steps: &[Step],
        next_row: &mut u32,
    ) -> bool {
        let mut removed = false;
        for step in steps {
            match *step {
                Step::Insert { key, fresh } => {
                    *next_row += fresh as u32;
                    tree.insert(Value::Int(key), RowId::from(*next_row));
                    let rows = model.entry(key).or_default();
                    if rows.last() != Some(next_row) {
                        rows.push(*next_row);
                    }
                }
                Step::Remove { key, nth } => {
                    let rows = model.get(&key).cloned().unwrap_or_default();
                    let row = if rows.is_empty() {
                        7
                    } else {
                        rows[nth % rows.len()]
                    };
                    let was_there = tree.remove(&Value::Int(key), RowId::from(row));
                    prop_assert_eq!(was_there, !rows.is_empty());
                    removed |= was_there;
                    if let Some(rows) = model.get_mut(&key) {
                        rows.retain(|r| *r != row);
                        if rows.is_empty() {
                            model.remove(&key);
                        }
                    }
                }
            }
            assert_counts(tree, model);
        }
        removed
    }

    /// The invariants hold and the counts are the model's.
    fn assert_counts(tree: &BTreeIndex, model: &Model) {
        tree.check_invariants().unwrap();
        prop_assert_eq!(tree.key_count(), model.len());
        prop_assert_eq!(
            tree.entry_count(),
            model.values().map(Vec::len).sum::<usize>()
        );
    }

    /// The tree holds the model: each key's postings, every key in order,
    /// and the range `[lo, lo + len)` with its length.
    fn assert_holds(tree: &BTreeIndex, model: &Model, lo: i64, len: i64) {
        assert_counts(tree, model);
        for (key, rows) in model {
            prop_assert_eq!(tree.get(&Value::Int(*key)), &rows[..]);
        }
        let all: Vec<(i64, Vec<u32>)> = tree
            .iter_all()
            .into_iter()
            .map(|(key, rows)| {
                (
                    key.as_int().unwrap(),
                    rows.iter().map(|r| r.0 as u32).collect(),
                )
            })
            .collect();
        prop_assert_eq!(all, model.clone().into_iter().collect::<Vec<_>>());
        let hi = lo + len;
        let (low, high) = (Value::Int(lo), Value::Int(hi));
        let got: Vec<(i64, u64)> = tree
            .range(Bound::Included(&low), Bound::Excluded(&high))
            .into_iter()
            .map(|(k, row)| (k.as_int().unwrap(), row.0))
            .collect();
        let expect: Vec<(i64, u64)> = model
            .range(lo..hi)
            .flat_map(|(k, rows)| rows.iter().map(|row| (*k, u64::from(*row))))
            .collect();
        prop_assert_eq!(
            tree.range_len(Bound::Included(&low), Bound::Excluded(&high)),
            expect.len()
        );
        prop_assert_eq!(got, expect);
    }

    /// `(key, row)` pairs sorted, as a bulk load hands them over: as many as
    /// fill a leaf, a leaf and one, a full node of full leaves and one more
    /// (or none, or one), under keys that repeat often, seldom, or never,
    /// now and then the pair before again.
    struct SortedPairs;

    impl Strategy for SortedPairs {
        type Value = Vec<(i64, u32)>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            const FULL: usize = MAX_KEYS * (MAX_KEYS + 1);
            const SIZES: [usize; 6] = [0, 1, MAX_KEYS, MAX_KEYS + 1, FULL, FULL + 1];
            let pick = |rng: &mut TestRng, n: usize| (0..n).generate(rng);
            let n = SIZES[pick(rng, SIZES.len())];
            let keys = [1 + n / 8, 1 + 10 * n, 0][pick(rng, 3)];
            let mut pairs: Vec<(i64, u32)> = Vec::with_capacity(n);
            while pairs.len() < n {
                let pair = match pairs.last() {
                    Some(&last) if keys > 0 && pick(rng, 8) == 0 => last,
                    // No key space: every key its own, so the sizes are
                    // the key counts the leaves and nodes fill at.
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

        /// The tree is a `BTreeMap<key, Vec<row>>` that ignores a pair filed
        /// last under its key: after every step it holds the model's keys,
        /// postings — in the order filed — counts and ranges, its invariants
        /// hold, and keys that only ever arrived ascending left every leaf
        /// but the last full.
        #[test]
        fn btree_matches_model(case in AnySteps, lo in 0i64..300, len in 0i64..100) {
            let (mut tree, mut model) = (BTreeIndex::new(), Model::new());
            let removed = apply_steps(&mut tree, &mut model, &case.steps, &mut 0);
            assert_holds(&tree, &model, lo, len);
            if case.ascending && !removed {
                let fill = tree.leaf_fill();
                let full = &fill[..fill.len() - 1];
                prop_assert!(full.iter().all(|&keys| keys == MAX_KEYS), "{:?}", fill);
            }
        }

        /// A tree built bottom up from sorted pairs is the tree their inserts
        /// build: the model's keys, postings, counts and ranges, every leaf
        /// but the last full — and it stays the model through random inserts
        /// and removals after, which split its full leaves and nodes.
        #[test]
        fn btree_from_sorted_matches_model(pairs in SortedPairs, steps in AnySteps, lo in 0i64..300, len in 0i64..100) {
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
            assert_holds(&tree, &model, lo, len);
            let fill = tree.leaf_fill();
            let full = &fill[..fill.len() - 1];
            prop_assert!(full.iter().all(|&keys| keys == MAX_KEYS), "{:?}", fill);
            let mut next_row = pairs.iter().map(|&(_, row)| row).max().unwrap_or(0);
            apply_steps(&mut tree, &mut model, &steps.steps, &mut next_row);
            assert_holds(&tree, &model, lo, len);
        }
    }
}
