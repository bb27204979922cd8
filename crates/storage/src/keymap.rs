//! The primary-key map of a table: key → newest version, without the key.
//!
//! A version arena never forgets a row, so the map need not own a copy of
//! every key: an entry is 8 bytes — 32 bits of the key's hash word and the id
//! of the newest version written under the key — and a look-up reads the key
//! back from that version. The table is the row path's
//! [`WordTable`](shareddb_common::WordTable) (open-addressed, at most three
//! quarters full, doubling by re-filing the entries themselves), hashed like
//! every operator table by [`hash_words`]. Nothing is ever removed: a key
//! whose row was deleted, or moved to another key, keeps its entry, pointing
//! at the version that ended — the head of the chain of back-links
//! (`StoredRow::previous`) an older snapshot is answered from.
//!
//! Why not a `HashMap<Vec<Value>, RowId>`: it costs a 32-byte bucket and a
//! heap-allocated key per row, and every doubling touches a new table of four
//! times the bytes while the old one is still mapped. On the TPC-W Ordering
//! mix the key maps of `ORDERS` and `CC_XACTS` double at 57 344 rows; as hash
//! maps that was a step of 8.6 MiB in the peak resident set, which a
//! benchmark run took or not depending on how many orders it placed.

use crate::table::RowId;
use shareddb_common::{hash_words, Value, WordTable};

/// See the module docs. Every method that looks for a key is given its
/// [`KeyMap::hash`] and `is_key`, which says whether the version a candidate
/// entry points at was written under that key.
#[derive(Default)]
pub(crate) struct KeyMap(WordTable);

impl KeyMap {
    pub fn new() -> Self {
        KeyMap::default()
    }

    /// The hash word of a key given as its values in key-column order.
    pub fn hash<'a>(key: impl IntoIterator<Item = &'a Value>) -> u64 {
        hash_words(key)
    }

    /// The newest version written under the key, dead or alive.
    pub fn get(&self, hash: u64, is_key: impl Fn(RowId) -> bool) -> Option<RowId> {
        let row = self.0.get(hash, |row| is_key(RowId(u64::from(row))));
        row.map(|row| RowId(u64::from(row)))
    }

    /// Points the key at `row_id`, a version already in the arena and not
    /// yet in the map, and returns the version it pointed at before.
    pub fn insert(
        &mut self,
        hash: u64,
        row_id: RowId,
        is_key: impl Fn(RowId) -> bool,
    ) -> Option<RowId> {
        // `u32::MAX` spells "no entry" in the table (and "no version" in a
        // back-link).
        let row = u32::try_from(row_id.0).ok().filter(|r| *r != u32::MAX);
        let row = row.expect("a table holds fewer than 2^32 - 1 row versions");
        let entry = self.0.entry(hash, row, |row| is_key(RowId(u64::from(row))));
        let previous = std::mem::replace(entry, row);
        (previous != row).then_some(RowId(u64::from(previous)))
    }

    /// The newest version of every key, in no order.
    #[cfg(test)]
    pub fn rows(&self) -> impl Iterator<Item = RowId> + '_ {
        self.0.entries().map(|row| RowId(u64::from(row)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The map over the table it is (`WordTable`'s own tests hold that
    /// against a model): an insert hands back the version the key pointed
    /// at before, a look-up the newest, and keys that share a hash are told
    /// apart by the versions they name.
    #[test]
    fn an_insert_hands_back_the_version_the_key_pointed_at() {
        let mut arena: Vec<i64> = Vec::new();
        let mut map = KeyMap::new();
        let mut write = |map: &mut KeyMap, key: i64| {
            let row = RowId(arena.len() as u64);
            arena.push(key);
            // One hash for every key: they all lie in one probe run.
            (row, map.insert(7, row, |row| arena[row.0 as usize] == key))
        };
        let (first, previous) = write(&mut map, 10);
        assert_eq!(previous, None);
        let (other, previous) = write(&mut map, 20);
        assert_eq!(previous, None);
        let (second, previous) = write(&mut map, 10);
        assert_eq!(previous, Some(first));
        let get = |key: i64| map.get(7, |row| arena[row.0 as usize] == key);
        assert_eq!(
            (get(10), get(20), get(30)),
            (Some(second), Some(other), None)
        );
        let mut rows: Vec<RowId> = map.rows().collect();
        rows.sort();
        assert_eq!(rows, [other, second]);
        let hash = |key: i64| KeyMap::hash([&Value::Int(key)]);
        assert_eq!(hash(10), KeyMap::hash([&Value::Float(10.0)]));
        assert_ne!(hash(10), hash(20));
    }
}
