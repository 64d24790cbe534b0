//! A tiny multiply-xor hasher for the simulator's lookup structures.
//!
//! The TLB probes up to three `HashMap`s on *every* simulated memory
//! access, and the memory controller resolves a per-ASID key on every
//! engine-engaged transfer. With the standard library's default SipHash
//! those probes dominate the cost of a TLB hit — the very path the
//! translation cache exists to make cheap. This is the classic
//! multiply-rotate-xor scheme (as used by rustc's FxHash): one fold per
//! 64-bit word, no finalizer.
//!
//! It is **not** DoS-resistant. The rule for using it: a map may take it
//! only when the simulation makes every key itself. That covers
//! page-frame numbers, [`crate::tlb::Space`] discriminants, ASIDs,
//! domain ids, event-channel ports and firmware handles, all of which the
//! model allocates. A map
//! keyed by bytes that arrive from outside (a session nonce dom0 relays
//! to the firmware) keeps the standard hasher.
//!
//! Key pages by frame number, never by page-aligned address. With no
//! finalizer, a key's zero low bits stay zero in its hash, and
//! `HashMap` picks buckets by the hash's low bits: every `Hpa` of a page
//! would start its probe in one of a handful of buckets.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` plumbing for [`FxHasher`]; use as the `S` parameter of
/// `HashMap`/`HashSet`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Knuth's 64-bit multiplicative-hash constant (2^64 / φ, rounded to odd).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// One-word-at-a-time multiply-rotate-xor hasher. See the module docs for
/// why this is safe to use despite not being collision-hardened.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_and_word_order_sensitive() {
        let h = |f: fn(&mut FxHasher)| {
            let mut hasher = FxHasher::default();
            f(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(|x| x.write_u64(7)), h(|x| x.write_u64(7)));
        assert_ne!(h(|x| x.write_u64(7)), h(|x| x.write_u64(8)));
        assert_ne!(
            h(|x| {
                x.write_u64(1);
                x.write_u64(2);
            }),
            h(|x| {
                x.write_u64(2);
                x.write_u64(1);
            })
        );
    }

    #[test]
    fn byte_stream_matches_padded_words() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        b.write_u64(9);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn works_as_a_map_hasher() {
        let mut map: HashMap<(u64, u16), u64, FxBuildHasher> = HashMap::default();
        for i in 0..1000u64 {
            map.insert((i, (i % 7) as u16), i * 3);
        }
        for i in 0..1000u64 {
            assert_eq!(map.get(&(i, (i % 7) as u16)), Some(&(i * 3)));
        }
    }
}
