//! An in-memory B+-tree index.
//!
//! The original Crescando storage manager only supported full table scans via
//! ClockScan; for SharedDB the authors "extended Crescando and implemented
//! B-Tree indexes and index probe operators as an additional access path"
//! (Section 4.4). This module is that extension: a classic order-`B` B+-tree
//! mapping a key [`Value`] to a posting list of [`RowId`]s. Keys may be
//! duplicated across rows (secondary indexes), so each leaf entry carries the
//! full posting list for its key.
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
    postings: Vec<Vec<RowId>>,
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
            root: Node::Leaf(LeafNode {
                keys: Vec::new(),
                postings: Vec::new(),
            }),
            len: 0,
            entries: 0,
        }
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

    /// Inserts a `(key, row)` pair. Duplicate `(key, row)` pairs are ignored.
    pub fn insert(&mut self, key: Value, row: RowId) {
        let (added_key, added_entry, result) = self.root.insert(key, row);
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
        let (removed, removed_key) = self.root.remove(key, row);
        if removed {
            self.entries -= 1;
        }
        if removed_key {
            self.len -= 1;
        }
        removed
    }

    /// Returns the posting list for an exact key (empty slice when absent).
    pub fn get(&self, key: &Value) -> &[RowId] {
        self.root.get(key).unwrap_or(&[])
    }

    /// Returns all `(key, row)` pairs with keys in the given range, in key
    /// order.
    pub fn range(&self, low: Bound<&Value>, high: Bound<&Value>) -> Vec<(Value, RowId)> {
        let mut out = Vec::new();
        self.root.visit_range(&low, &high, &mut |key, posting| {
            out.extend(posting.iter().map(|&row| (key.clone(), row)));
        });
        out
    }

    /// Returns all row ids with keys in the given range, in key order.
    pub fn range_rows(&self, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId> {
        let mut out = Vec::new();
        self.root
            .visit_range(&low, &high, &mut |_, posting| out.extend(posting));
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
        self.root.collect_all(&mut out);
        out
    }

    /// Depth of the tree (1 for a single leaf). Exposed for tests that verify
    /// the tree actually splits.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Verifies structural invariants (key ordering, separator correctness,
    /// fanout bounds). Used by tests and property-based checks.
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

    fn get(&self, key: &Value) -> Option<&[RowId]> {
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
    fn insert(&mut self, key: Value, row: RowId) -> (bool, bool, InsertResult) {
        match self {
            Node::Leaf(leaf) => match leaf.keys.binary_search(&key) {
                Ok(i) => {
                    if leaf.postings[i].contains(&row) {
                        (false, false, InsertResult::Done)
                    } else {
                        leaf.postings[i].push(row);
                        (false, true, InsertResult::Done)
                    }
                }
                Err(pos) => {
                    leaf.keys.insert(pos, key);
                    leaf.postings.insert(pos, vec![row]);
                    if leaf.keys.len() > MAX_KEYS {
                        let (sep, right) = leaf.split();
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
    fn remove(&mut self, key: &Value, row: RowId) -> (bool, bool) {
        match self {
            Node::Leaf(leaf) => match leaf.keys.binary_search(key) {
                Ok(i) => {
                    let posting = &mut leaf.postings[i];
                    match posting.iter().position(|r| *r == row) {
                        Some(p) => {
                            posting.swap_remove(p);
                            if posting.is_empty() {
                                leaf.keys.remove(i);
                                leaf.postings.remove(i);
                                (true, true)
                            } else {
                                (true, false)
                            }
                        }
                        None => (false, false),
                    }
                }
                Err(_) => (false, false),
            },
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
        visit: &mut impl FnMut(&Value, &[RowId]),
    ) {
        match self {
            Node::Leaf(leaf) => {
                for (k, posting) in leaf.keys.iter().zip(&leaf.postings) {
                    if bound_contains(low, high, k) {
                        visit(k, posting);
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

    fn collect_all(&self, out: &mut Vec<(Value, Vec<RowId>)>) {
        match self {
            Node::Leaf(leaf) => {
                for (k, p) in leaf.keys.iter().zip(&leaf.postings) {
                    out.push((k.clone(), p.clone()));
                }
            }
            Node::Internal(node) => {
                for child in &node.children {
                    child.collect_all(out);
                }
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
                if leaf.postings.iter().any(|p| p.is_empty()) {
                    return Err("empty posting list".into());
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
    fn split(&mut self) -> (Value, Node) {
        let mid = self.keys.len() / 2;
        let right_keys = self.keys.split_off(mid);
        let right_postings = self.postings.split_off(mid);
        let sep = right_keys[0].clone();
        (
            sep,
            Node::Leaf(LeafNode {
                keys: right_keys,
                postings: right_postings,
            }),
        )
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

    fn row(i: u64) -> RowId {
        RowId(i)
    }

    #[test]
    fn insert_and_get() {
        let mut idx = BTreeIndex::new();
        idx.insert(Value::Int(5), row(50));
        idx.insert(Value::Int(3), row(30));
        idx.insert(Value::Int(5), row(51));
        assert_eq!(idx.get(&Value::Int(5)), &[row(50), row(51)]);
        assert_eq!(idx.get(&Value::Int(3)), &[row(30)]);
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
                idx.get(&key).contains(&row(i as u64)),
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
        assert_eq!(idx.get(&Value::Int(1)), &[row(11)]);
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
}
