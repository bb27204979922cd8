//! Hand-rolled CRC-32 (IEEE 802.3, polynomial `0xEDB88320` reflected).
//!
//! The write-ahead log and checkpoint files frame every record with a CRC so
//! that recovery can distinguish a torn tail write from valid data. Every
//! byte of a checkpoint and of every group commit passes through
//! [`Crc32::update`], so the kernel is slicing-by-16: sixteen 256-entry
//! tables, built at compile time, fold 16 bytes per step with one lookup a
//! byte and no dependency between the lookups of a step. A tail shorter
//! than a step takes one 8-byte and one 4-byte step where it can (frames
//! are short: a frame header's 14 checked bytes are all tail), and its
//! last bytes a byte at a time. It is safe, portable Rust with no
//! dependency, and its digests are the byte-at-a-time table CRC's, bit for
//! bit: the on-disk format does not depend on which kernel wrote it.
//!
//! The variant here is the one used by zip/gzip/Ethernet: reflected input and
//! output, initial value `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF`. The check
//! value of the ASCII bytes `"123456789"` is `0xCBF4_3926`.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the sliced kernel, one table each.
const SLICE: usize = 16;

/// The slicing tables, computed at compile time. `TABLES[0]` is the classic
/// byte table: the CRC of one byte. `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so the byte `k` places before the end of a
/// step is looked up in `TABLES[k]`.
static TABLES: [[u32; 256]; SLICE] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Folds the first `N` bytes of `s` (`N` is 4, 8 or 16) into `crc`: the
/// running CRC is XORed into the first four bytes, then every byte adds its
/// table's entry for its distance from the end of the step. The lookups do
/// not depend on one another, so they overlap.
#[inline(always)]
fn step<const N: usize>(crc: u32, s: &[u8]) -> u32 {
    let head = (crc ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]])).to_le_bytes();
    let mut out = 0;
    for i in 0..N {
        let b = if i < 4 { head[i] } else { s[i] };
        out ^= TABLES[N - 1 - i][b as usize];
    }
    out
}

/// A streaming CRC-32 state: feed byte slices with [`Crc32::update`], read
/// the digest with [`Crc32::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum: 16 bytes a step, then at most one
    /// step of 8 and one of 4, then the last bytes one at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut steps = bytes.chunks_exact(SLICE);
        for s in &mut steps {
            crc = step::<SLICE>(crc, s);
        }
        let mut rest = steps.remainder();
        if rest.len() >= 8 {
            crc = step::<8>(crc, rest);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            crc = step::<4>(crc, rest);
            rest = &rest[4..];
        }
        for &b in rest {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The digest of everything fed so far (does not consume the state; more
    /// bytes may still be folded in afterwards).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, a bit at a time: what every table is built from.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// SplitMix64: the bytes and chunk sizes of a case, from its seed.
    fn split_mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len).map(|_| split_mix(&mut state) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for this CRC variant.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"shareddb write-ahead log frame payload";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    /// Every length up to sixteen steps, split into two calls at every
    /// point: each tail length, each step count and each state carried
    /// from a call that ended mid-step meets the reference.
    #[test]
    fn sliced_equals_reference_at_every_length_and_split() {
        let data = random_bytes(0x5EED, 256);
        for len in 0..=data.len() {
            let expected = reference(&data[..len]);
            for split in 0..=len {
                let mut c = Crc32::new();
                c.update(&data[..split]);
                c.update(&data[split..len]);
                assert_eq!(c.finish(), expected, "length {len}, split at {split}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A buffer of up to 1 MiB fed in random chunks, from empty ones to
        /// 64 KiB ones, digests as the reference does.
        #[test]
        fn sliced_equals_reference_over_random_chunks(
            seed in any::<u64>(),
            len in 0usize..(1 << 20) + 1,
        ) {
            let data = random_bytes(seed, len);
            let (mut c, mut at, mut state) = (Crc32::new(), 0, !seed);
            while at < len {
                let draw = split_mix(&mut state);
                let size = (draw as usize % (1 << ((draw >> 32) % 17))).min(len - at);
                c.update(&data[at..at + size]);
                at += size;
            }
            prop_assert_eq!(c.finish(), reference(&data), "{} bytes, seed {}", len, seed);
        }
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut data = vec![0u8; 64];
        let clean = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
