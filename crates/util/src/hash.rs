//! A deterministic integer mixer for in-process hash tables.
//!
//! `std`'s default `RandomState` seeds SipHash per process: safe against
//! crafted keys, but ≈ 20 ns per small integer key and a different bucket
//! layout every run. The per-packet carrier tables of `db-core` look a
//! `(flow, seq)` key up twice per record, so they hash with [`MixHasher`]
//! instead: one rotate, one xor and one multiply per integer written, and a
//! fold in [`Hasher::finish`] so both ends of the word are mixed (hashbrown
//! takes the bucket from the low bits and the control byte from the top
//! seven).
//!
//! The mixer is **not** collision-resistant: a peer that chooses its keys
//! can aim them at one bucket chain. Use it only where the key space is
//! the program's own or the feeding peer is trusted (the daemon's record
//! feed is a switch fleet, not the open internet), and never iterate a
//! table built on it into output without sorting first — the bucket layout
//! is a function of insert history.

use std::hash::{BuildHasherDefault, Hasher};

/// 2⁶⁴ / φ, odd: the Fibonacci-hashing multiplier.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-mix hasher for small integer keys (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct MixHasher(u64);

/// `BuildHasher` for [`MixHasher`]: stateless, so every table built with it
/// hashes alike in every process.
pub type MixBuild = BuildHasherDefault<MixHasher>;

impl Hasher for MixHasher {
    /// Byte strings fold eight bytes at a time (little-endian, zero-padded
    /// tail). Integer keys never get here: they take the overrides below.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            for (dst, &src) in word.iter_mut().zip(chunk) {
                *dst = src;
            }
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(K);
    }

    /// A multiply mixes upward only; fold the high half down so the low
    /// (bucket-index) bits depend on every input bit too.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        MixBuild::default().hash_one(key)
    }

    #[test]
    fn is_stateless_and_order_sensitive() {
        assert_eq!(hash_of((7u32, 9u64)), hash_of((7u32, 9u64)));
        // A tuple key hashes as its fields written in order.
        let mut h = MixHasher::default();
        h.write_u32(7);
        h.write_u64(9);
        assert_eq!(h.finish(), hash_of((7u32, 9u64)));
        assert_ne!(hash_of((7u32, 9u64)), hash_of((9u32, 7u64)));
    }

    /// Carrier keys are a few thousand flows × consecutive sequence numbers.
    /// Both the low bits (bucket index) and the top seven (control byte)
    /// must spread: no bucket of 1 024 and no control value of 128 may take
    /// more than four times its fair share.
    #[test]
    fn consecutive_keys_spread_over_both_ends_of_the_word() {
        let mut low = vec![0u32; 1024];
        let mut top = vec![0u32; 128];
        let mut n = 0u32;
        for flow in 0u32..64 {
            for seq in 0u64..512 {
                let h = hash_of((flow, seq));
                low[(h & 1023) as usize] += 1;
                top[(h >> 57) as usize] += 1;
                n += 1;
            }
        }
        let worst_low = *low.iter().max().expect("non-empty");
        let worst_top = *top.iter().max().expect("non-empty");
        assert!(worst_low <= 4 * n / 1024, "bucket skew {worst_low}");
        assert!(worst_top <= 4 * n / 128, "control-byte skew {worst_top}");
    }

    #[test]
    fn byte_strings_fold_in_eight_byte_words() {
        let mut a = MixHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = MixHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        b.write_u64(9);
        assert_eq!(a.finish(), b.finish());
    }
}
