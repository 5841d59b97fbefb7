//! A word-at-a-time hasher for the driver's tables keyed by integers and
//! float bit patterns — pair ids, report ids, the `to_bits` words of a
//! distance vector — and for the blocking index's keys, rows and onset
//! dates.
//!
//! The standard library's SipHash resists keys chosen to collide and costs
//! several rounds per word. [`WordHasher`] takes each 64-bit word in one
//! rotate, xor and multiply, then runs the splitmix64 finaliser once per
//! key. It offers no collision resistance: use it for tables filled with
//! the database's own keys (its report ids, the vectors §4.2 computes from
//! them), not for tables a remote caller fills.
//!
//! The finaliser is not optional. A multiply only carries bits upwards,
//! and a hash table picks its bucket from the low bits. §4.2's lattice
//! values (0, 0.25, 0.5, 1, …) have all-zero low mantissa bits, so without
//! the finaliser a vector's last word could not reach the bucket index at
//! all, and the earlier words only through the few bits each rotate brings
//! down.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Rotate-multiply word hasher with a splitmix64 finaliser (module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher {
    state: u64,
}

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for WordHasher {
    /// Little-endian 8-byte words, the last one zero-padded. That one is
    /// gathered byte by byte: a copy of variable length is a `memcpy` call.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            self.add(
                rest.iter()
                    .rev()
                    .fold(0, |word, &b| word << 8 | u64::from(b)),
            );
        }
    }

    /// `write(&[n])`'s word, without the slice.
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    /// `write(&n.to_le_bytes())`'s word, without the slice.
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `HashMap` hashed by [`WordHasher`]; build with `WordMap::default()`.
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// `HashSet` hashed by [`WordHasher`]; build with `WordSet::default()`.
pub type WordSet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn shortcuts_hash_as_their_bytes() {
        // `write_u8`, `write_u32` and the bytewise tail give the words the
        // zero-padded little-endian slice gives.
        fn padded(bytes: &[u8]) -> u64 {
            let mut h = WordHasher::default();
            for word in bytes.chunks(8) {
                let mut le = [0u8; 8];
                le[..word.len()].copy_from_slice(word);
                h.add(u64::from_le_bytes(le));
            }
            h.finish()
        }
        let hash = |f: &dyn Fn(&mut WordHasher)| {
            let mut h = WordHasher::default();
            f(&mut h);
            h.finish()
        };
        for n in [0u32, 1, 0xFF, 0x1234_5678, u32::MAX] {
            assert_eq!(hash(&|h| h.write_u32(n)), padded(&n.to_le_bytes()));
            assert_eq!(hash(&|h| h.write_u8(n as u8)), padded(&[n as u8]));
        }
        let text = "30/04/2013 00:00:00";
        for len in 0..=text.len() {
            let bytes = &text.as_bytes()[..len];
            assert_eq!(hash(&|h| h.write(bytes)), padded(bytes), "{len} bytes");
        }
    }

    #[test]
    fn lattice_vectors_spread_over_low_and_top_bits() {
        // Every vector of {0, 0.25, 0.5, 1}^8 — 65,536 keys whose words
        // differ only in their top twelve bits. A table picks the bucket
        // from the low bits and tags slots with the top seven, so both
        // must vary: a random function gives ≈ 41,400 distinct low 16-bit
        // values here, and without the finaliser at most 16,384 occur (the
        // last word never reaches them).
        const LATTICE: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
        let build = BuildHasherDefault::<WordHasher>::default();
        let mut low = HashSet::new();
        let mut top = HashSet::new();
        for code in 0..1u32 << 16 {
            let key: [u64; 8] =
                std::array::from_fn(|d| LATTICE[((code >> (2 * d)) & 3) as usize].to_bits());
            let h = build.hash_one(key);
            low.insert(h & 0xFFFF);
            top.insert(h >> 57);
        }
        assert!(
            low.len() >= 35_000,
            "{} distinct low 16-bit values",
            low.len()
        );
        assert_eq!(top.len(), 128, "top 7 bits");
    }
}
