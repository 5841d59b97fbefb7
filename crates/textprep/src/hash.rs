//! The interner's hasher: a string at a word a time, keyed per process.
//!
//! [`crate::TokenInterner`] looks a word up once or twice per raw token
//! of every narrative, so the standard library's SipHash, several rounds
//! per word, was most of what interning cost. [`TextHasher`] takes each
//! 8-byte word of a key in one rotate, xor and multiply, and folds the
//! state's 128-bit product with a constant once per key, which spreads it
//! over the low bits a table picks its bucket from and the top bits it tags
//! slots with.
//!
//! The interner's tables are filled by whatever text arrives, and a serving
//! layer's copy by probe reports a remote caller sends. So the hasher is
//! keyed: its starting state is drawn from the standard library's
//! `RandomState` once per process, and which words collide depends on that
//! key, as it does under SipHash. Iteration order differs between
//! processes, as it already does under `RandomState`; nothing the interner
//! returns depends on it.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

const MUL: u64 = 0x517C_C1B7_2722_0A95;
const FOLD: u64 = 0x9E37_79B9_7F4A_7C15;

/// Word-at-a-time hasher, started from the process key (module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TextHasher {
    state: u64,
}

impl TextHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for TextHasher {
    /// Little-endian 8-byte words, then a shorter last word read in at
    /// most two loads, carrying its length in its top byte: no two keys of
    /// different length hash the same word sequence unless one is the
    /// other's last word spelled out in full, byte for byte.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        let n = rest.len();
        if n == 0 {
            return;
        }
        // 4–7 bytes: two overlapping 4-byte loads give the word itself;
        // 1–3 bytes: the first, middle and last byte, which with the
        // length name the bytes.
        let word = if n >= 4 {
            let first = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
            let last = u32::from_le_bytes(rest[n - 4..].try_into().expect("4 bytes"));
            u64::from(first) | u64::from(last) << (8 * (n - 4))
        } else {
            u64::from(rest[0]) | u64::from(rest[n / 2]) << 8 | u64::from(rest[n - 1]) << 16
        };
        self.add(word | (n as u64) << 56);
    }

    /// The terminator `str`'s `Hash` writes after the bytes.
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    /// The high and low halves of the state's product with a constant,
    /// xored: every bit of the state reaches both ends of the hash.
    #[inline]
    fn finish(&self) -> u64 {
        let product = u128::from(self.state) * u128::from(FOLD);
        (product as u64) ^ (product >> 64) as u64
    }
}

/// Builds [`TextHasher`]s from the process key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TextState {
    key: u64,
}

impl Default for TextState {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        let key = *KEY.get_or_init(|| RandomState::new().hash_one(FOLD));
        TextState { key }
    }
}

impl BuildHasher for TextState {
    type Hasher = TextHasher;

    #[inline]
    fn build_hasher(&self) -> TextHasher {
        TextHasher { state: self.key }
    }
}

/// `HashMap` hashed by [`TextHasher`]; build with `TextMap::default()`.
pub(crate) type TextMap<K, V> = HashMap<K, V, TextState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn one_key_per_process_and_every_length_apart() {
        let (a, b) = (TextState::default(), TextState::default());
        assert_eq!(a.hash_one("myalgia"), b.hash_one("myalgia"));
        // Padding with NULs does not collide with the shorter word, at any
        // tail length.
        let keys: Vec<String> = (0..24).map(|n| format!("a{}", "\0".repeat(n))).collect();
        let hashes: HashSet<u64> = keys.iter().map(|k| a.hash_one(k.as_str())).collect();
        assert_eq!(hashes.len(), keys.len());
    }

    #[test]
    fn words_spread_over_low_and_top_bits() {
        // Short words that differ in one byte: the bucket (low bits) and
        // the slot tag (top seven bits) must both vary.
        let build = TextState::default();
        let mut low = HashSet::new();
        let mut top = HashSet::new();
        for n in 0..1u32 << 16 {
            let word = format!("{:x}", n);
            let h = build.hash_one(word.as_str());
            low.insert(h & 0xFFFF);
            top.insert(h >> 57);
        }
        // A random function gives ≈ 41,400 distinct low 16-bit values.
        assert!(low.len() >= 35_000, "{} low values", low.len());
        assert_eq!(top.len(), 128, "top 7 bits");
    }
}
