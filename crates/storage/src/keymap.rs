//! The primary-key map of a table: key → newest version, without the key.
//!
//! A version arena never forgets a row, so the map need not own a copy of
//! every key: an entry is 8 bytes — 32 bits of the key's hash and the id of
//! the newest version written under the key — and a look-up reads the key
//! back from that version. The table is open-addressed (linear probing from
//! `hash & mask`, at most three quarters full) and doubles by re-filing the
//! entries themselves, which carry their hash. Nothing is ever removed: a
//! key whose row was deleted, or moved to another key, keeps its entry,
//! pointing at the version that ended — the head of the chain of back-links
//! (`StoredRow::previous`) an older snapshot is answered from.
//!
//! Why not a `HashMap<Vec<Value>, RowId>`: it costs a 32-byte bucket and a
//! heap-allocated key per row, and every doubling touches a new table of four
//! times the bytes while the old one is still mapped. On the TPC-W Ordering
//! mix the key maps of `ORDERS` and `CC_XACTS` double at 57 344 rows; as hash
//! maps that was a step of 8.6 MiB in the peak resident set, which a
//! benchmark run took or not depending on how many orders it placed.

use crate::table::RowId;
use shareddb_common::Value;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};

const EMPTY: u64 = u64::MAX;

/// See the module docs. Every method that looks for a key is given its
/// [`KeyMap::hash`] and `is_key`, which says whether the version a candidate
/// entry points at was written under that key.
pub(crate) struct KeyMap {
    hasher: RandomState,
    /// [`EMPTY`], or `hash << 32 | row id`. The length is a power of two.
    slots: Vec<u64>,
    len: usize,
}

impl KeyMap {
    pub fn new() -> Self {
        KeyMap {
            hasher: RandomState::new(),
            slots: Vec::new(),
            len: 0,
        }
    }

    /// The hash of a key given as its values in key-column order.
    pub fn hash<'a>(&self, key: impl IntoIterator<Item = &'a Value>) -> u32 {
        let mut state = self.hasher.build_hasher();
        key.into_iter().for_each(|value| value.hash(&mut state));
        let hash = state.finish();
        (hash ^ (hash >> 32)) as u32
    }

    /// The newest version written under the key, dead or alive.
    pub fn get(&self, hash: u32, is_key: impl Fn(RowId) -> bool) -> Option<RowId> {
        self.find(hash, is_key).map(|slot| row_of(self.slots[slot]))
    }

    /// Points the key at `row_id`, a version already in the arena, and
    /// returns the version it pointed at before.
    pub fn insert(
        &mut self,
        hash: u32,
        row_id: RowId,
        is_key: impl Fn(RowId) -> bool,
    ) -> Option<RowId> {
        // `u32::MAX` would spell `EMPTY` under the hash `u32::MAX` (and "no
        // version" in a back-link).
        let row = u32::try_from(row_id.0).ok().filter(|r| *r != u32::MAX);
        let row = row.expect("a table holds fewer than 2^32 - 1 row versions");
        let entry = u64::from(hash) << 32 | u64::from(row);
        if let Some(slot) = self.find(hash, is_key) {
            let previous = row_of(self.slots[slot]);
            self.slots[slot] = entry;
            return Some(previous);
        }
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let doubled = (self.slots.len() * 2).max(8);
            let old = std::mem::replace(&mut self.slots, vec![EMPTY; doubled]);
            old.into_iter()
                .filter(|entry| *entry != EMPTY)
                .for_each(|entry| self.file(entry));
        }
        self.file(entry);
        self.len += 1;
        None
    }

    /// The newest version of every key, in no order.
    #[cfg(test)]
    pub fn rows(&self) -> impl Iterator<Item = RowId> + '_ {
        let entries = self.slots.iter().filter(|entry| **entry != EMPTY);
        entries.map(|entry| row_of(*entry))
    }

    fn find(&self, hash: u32, is_key: impl Fn(RowId) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let entry = self.slots[slot];
            if entry == EMPTY {
                return None;
            }
            if (entry >> 32) as u32 == hash && is_key(row_of(entry)) {
                return Some(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Files an entry of a key the table does not hold; there is room.
    fn file(&mut self, entry: u64) {
        let mask = self.slots.len() - 1;
        let mut slot = home_of(entry) & mask;
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = entry;
    }
}

fn row_of(entry: u64) -> RowId {
    RowId(entry & u64::from(u32::MAX))
}

/// The hash of an entry; `& mask` gives the slot its probe run starts at.
fn home_of(entry: u64) -> usize {
    (entry >> 32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Keys are small integers and every version of the "arena" is its key,
    /// so a few hundred keys share eight home slots and every probe run is
    /// long. Checked against a `HashMap` after every step, absent keys
    /// included; an insert hands back what the key pointed at before.
    #[test]
    fn agrees_with_a_hash_map_through_inserts_and_replacements() {
        let mut arena: Vec<i64> = Vec::new();
        let mut map = KeyMap::new();
        let mut model: HashMap<i64, RowId> = HashMap::new();
        // Only the low three bits of the hash vary.
        let hash = |map: &KeyMap, key: i64| map.hash([&Value::Int(key)]) & 7;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |below: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % below
        };
        for step in 0..4_000 {
            let key = draw(300) as i64;
            let h = hash(&map, key);
            let row = RowId(arena.len() as u64);
            arena.push(key);
            let previous = map.insert(h, row, |row| arena[row.0 as usize] == key);
            assert_eq!(previous, model.insert(key, row), "key {key}, step {step}");
            assert_eq!(map.len, model.len());
            for probe in 0..300 {
                let found = map.get(hash(&map, probe), |row| arena[row.0 as usize] == probe);
                assert_eq!(
                    found,
                    model.get(&probe).copied(),
                    "key {probe}, step {step}"
                );
            }
        }
        let mut rows: Vec<RowId> = map.rows().collect();
        let mut expected: Vec<RowId> = model.values().copied().collect();
        rows.sort();
        expected.sort();
        assert_eq!(rows, expected);
        assert!(map.slots.len().is_power_of_two() && map.len * 4 <= map.slots.len() * 3);
    }
}
