//! The hash table of the row path: from a key's hash word
//! ([`crate::value::hash_words`]) to a `u32` — a position in whatever vector
//! the caller keeps its keys in. The table holds no key: a slot is 8 bytes,
//! the high half of the word and the entry, and whoever looks a key up says
//! with `is_key` whether a candidate entry stands for it — a group-by reads
//! the key off the first row of the group, a table's key map off the version
//! the entry names.
//!
//! Open-addressed: linear probing from `tag & mask`, a power of two of
//! slots, at most three quarters full. [`WordTable::with_room`] sizes it for
//! the keys of one operator cycle, which then never re-files an entry; a
//! table left to grow doubles, re-filing the slots themselves.

/// See the module docs. The default is an empty table, which allocates when
/// its first key arrives.
#[derive(Debug, Default)]
pub struct WordTable {
    slots: Vec<Slot>,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The high half of the key's word; its low bits choose the slot the
    /// key's probe run starts at.
    tag: u32,
    entry: u32,
}

/// No entry: what an empty slot holds, and the one value a key cannot map to.
const EMPTY: u32 = u32::MAX;

impl WordTable {
    /// A table that takes `keys` keys without growing, at most half full.
    pub fn with_room(keys: usize) -> Self {
        let slots = match keys {
            0 => 0,
            keys => (2 * keys).next_power_of_two(),
        };
        WordTable {
            slots: vec![Slot::EMPTY; slots],
            len: 0,
        }
    }

    /// The entry of the key with this word.
    #[inline]
    pub fn get(&self, word: u64, is_key: impl Fn(u32) -> bool) -> Option<u32> {
        match self.find(word, is_key) {
            Ok(slot) => Some(self.slots[slot].entry),
            Err(_) => None,
        }
    }

    /// The entry of the key with this word, filed as `fresh` — not
    /// `u32::MAX` — if the table does not hold the key yet.
    #[inline]
    pub fn entry(&mut self, word: u64, fresh: u32, is_key: impl Fn(u32) -> bool) -> &mut u32 {
        assert!(fresh != EMPTY, "u32::MAX marks an empty slot");
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let slot = match self.find(word, is_key) {
            Ok(slot) => slot,
            Err(vacant) => {
                self.slots[vacant] = Slot {
                    tag: tag_of(word),
                    entry: fresh,
                };
                self.len += 1;
                vacant
            }
        };
        &mut self.slots[slot].entry
    }

    /// Every entry, in no order.
    pub fn entries(&self) -> impl Iterator<Item = u32> + '_ {
        let taken = self.slots.iter().filter(|slot| slot.entry != EMPTY);
        taken.map(|slot| slot.entry)
    }

    /// The slot that holds the key, or the empty one its probe run ends at.
    #[inline]
    fn find(&self, word: u64, is_key: impl Fn(u32) -> bool) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let (tag, mask) = (tag_of(word), self.slots.len() - 1);
        let mut at = tag as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.entry == EMPTY {
                return Err(at);
            }
            if slot.tag == tag && is_key(slot.entry) {
                return Ok(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the table, re-filing the slots themselves: a slot's tag says
    /// where its probe run starts.
    fn grow(&mut self) {
        let doubled = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![Slot::EMPTY; doubled]);
        let mask = doubled - 1;
        for slot in old.into_iter().filter(|slot| slot.entry != EMPTY) {
            let mut at = slot.tag as usize & mask;
            while self.slots[at].entry != EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
        }
    }
}

impl Slot {
    const EMPTY: Slot = Slot {
        tag: 0,
        entry: EMPTY,
    };
}

#[inline]
fn tag_of(word: u64) -> u32 {
    (word >> 32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use std::collections::HashMap;

    /// Keys are small integers and every entry of the "arena" is its key;
    /// only three bits of a word vary, so a few hundred keys share eight
    /// home slots and every probe run is long. Checked against a `HashMap`
    /// after every step, absent keys included, while the table doubles from
    /// nothing.
    #[test]
    fn agrees_with_a_hash_map_through_inserts_and_replacements() {
        let mut arena: Vec<i64> = Vec::new();
        let mut table = WordTable::default();
        let mut model: HashMap<i64, u32> = HashMap::new();
        let word = |key: i64| Value::Int(key).hash_word() & 7 << 32;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |below: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % below
        };
        for step in 0..4_000 {
            let key = draw(300) as i64;
            let fresh = arena.len() as u32;
            arena.push(key);
            // Every other step points the key at its newest entry, as a key
            // map does; the others leave a key that is there alone.
            let entry = table.entry(word(key), fresh, |at| arena[at as usize] == key);
            if step % 2 == 0 {
                *entry = fresh;
                model.insert(key, fresh);
            } else {
                assert_eq!(*entry, *model.entry(key).or_insert(fresh), "key {key}");
            }
            assert_eq!(table.len, model.len());
            for probe in 0..300 {
                let found = table.get(word(probe), |at| arena[at as usize] == probe);
                assert_eq!(
                    found,
                    model.get(&probe).copied(),
                    "key {probe}, step {step}"
                );
            }
        }
        let mut entries: Vec<u32> = table.entries().collect();
        let mut expected: Vec<u32> = model.values().copied().collect();
        entries.sort_unstable();
        expected.sort_unstable();
        assert_eq!(entries, expected);
        let slots = table.slots.len();
        assert!(slots.is_power_of_two() && table.len * 4 <= slots * 3);
    }

    /// A table sized for its keys never re-files one, and takes none for
    /// nothing.
    #[test]
    fn a_table_with_room_does_not_grow() {
        assert_eq!(WordTable::with_room(0).slots.len(), 0);
        for keys in [1usize, 2, 3, 5, 8, 100, 1_000] {
            let mut table = WordTable::with_room(keys);
            let slots = table.slots.len();
            assert!(slots >= 2 * keys && slots < 4 * keys.max(2));
            for key in 0..keys as u32 {
                let word = Value::Int(i64::from(key)).hash_word();
                assert_eq!(*table.entry(word, key, |_| false), key);
            }
            assert_eq!((table.len, table.slots.len()), (keys, slots));
        }
    }

    /// The longest run of taken slots, around the end of the table as well.
    fn longest_run(table: &WordTable) -> usize {
        let taken = |slot: &Slot| slot.entry != EMPTY;
        let (mut longest, mut run) = (0, 0);
        for slot in table.slots.iter().chain(&table.slots) {
            run = if taken(slot) { run + 1 } else { 0 };
            longest = longest.max(run);
        }
        longest
    }

    /// Hash words spread the keys operators meet: small integers, their
    /// multiples of a power of two — whose `f64`s differ in a few high bits
    /// only —, the `f64`s with their bit patterns, dates and short strings
    /// each fill a table of at least twice their number with no probe run
    /// longer than 96 slots (100 000 random keys leave a longest one of 20
    /// to 35, and one of 96 once in a billion tables; the seed differs from
    /// run to run). Without the finaliser of `hash_words` a product's bits
    /// depend on the lower bits of its factors alone: the keys of the last
    /// two families, which differ above bit 44 only, would share one home
    /// slot and lie in one run (they are few, so that this fails and does
    /// not hang).
    #[test]
    fn hash_words_spread_integers_their_multiples_and_their_bit_patterns() {
        let int = Value::Int;
        let bits = |i: i64| Value::Float(f64::from_bits(i as u64));
        type Key = Box<dyn Fn(i64) -> Value>;
        let families: Vec<(&str, i64, Key)> = vec![
            ("0..n", 100_000, Box::new(int)),
            (
                "multiples of 2^10",
                100_000,
                Box::new(move |i| int(i << 10)),
            ),
            (
                "multiples of 2^32",
                100_000,
                Box::new(move |i| int(i << 32)),
            ),
            ("bit patterns", 100_000, Box::new(bits)),
            ("dates", 100_000, Box::new(Value::Date)),
            ("texts", 100_000, Box::new(|i| Value::text(format!("K{i}")))),
            ("dates << 44", 5_000, Box::new(|i| Value::Date(i << 44))),
            (
                "bit patterns << 44",
                5_000,
                Box::new(move |i| bits(i << 44)),
            ),
        ];
        for (name, keys, key) in families {
            let mut table = WordTable::with_room(keys as usize);
            for i in 0..keys {
                table.entry(key(i).hash_word(), i as u32, |_| false);
            }
            let longest = longest_run(&table);
            assert!(longest <= 96, "{name}: a probe run of {longest} slots");
        }
    }
}
