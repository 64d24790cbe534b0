//! Bit-level "software emulated encryption": the textbook AES the paper's
//! micro-benchmark 3 charges >20× for, kept as the crate's AES oracle.
//!
//! The paper compares three ways of encrypting I/O buffers: AES-NI
//! (+11.49%), the SEV/SME engine (+8.69%) and *software emulated
//! encryption* (>20×). The ">20×" is a *modeled* property —
//! `fidelius-hw::cycles` charges `soft_aes_line` cycles per line for it —
//! so no host code path has to pay it in wall-clock time. What remains
//! here is [`reference::RefAes128`], which recomputes every field
//! operation from first principles on every call (inverse by Fermat
//! exponentiation, affine transform bit by bit, MixColumns by generic
//! shift-and-add multiplication). Its derivation shares nothing with
//! [`crate::aes`] (which walks the multiplicative group with generator 3),
//! so every fast backend is tested against it.

/// Bit-level GF(2⁸) multiply (no tables).
const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1B;
        }
        b >>= 1;
        i += 1;
    }
    acc
}

/// GF(2⁸) inverse via Fermat's little theorem: a⁻¹ = a^254.
const fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // Square-and-multiply over the 8-bit exponent 254 = 0b11111110.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

/// The S-box computed from scratch for a single byte.
const fn sub_byte(b: u8) -> u8 {
    let x = gf_inv(b);
    let mut out = 0u8;
    let mut bit = 0u32;
    while bit < 8 {
        let v = ((x >> bit) & 1)
            ^ ((x >> ((bit + 4) % 8)) & 1)
            ^ ((x >> ((bit + 5) % 8)) & 1)
            ^ ((x >> ((bit + 6) % 8)) & 1)
            ^ ((x >> ((bit + 7) % 8)) & 1)
            ^ ((0x63 >> bit) & 1);
        out |= v << bit;
        bit += 1;
    }
    out
}

/// Inverse S-box computed from scratch for a single byte.
const fn inv_sub_byte(b: u8) -> u8 {
    // Invert the affine transform bit by bit, then take the field inverse.
    let mut x = 0u8;
    let mut bit = 0u32;
    while bit < 8 {
        let v = ((b >> ((bit + 2) % 8)) & 1)
            ^ ((b >> ((bit + 5) % 8)) & 1)
            ^ ((b >> ((bit + 7) % 8)) & 1)
            ^ ((0x05 >> bit) & 1);
        x |= v << bit;
        bit += 1;
    }
    gf_inv(x)
}

const RCON: [u8; 11] = [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36];

#[inline]
fn xor16(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = s[4 * c + r];
        }
    }
}

/// The per-byte GF-math implementation, the oracle every host AES backend
/// is proven against. Every field operation is recomputed from first
/// principles on every call — exactly the "textbook" software
/// implementation the paper's >20× number describes.
pub mod reference {
    use super::RCON;

    /// Bit-level GF(2⁸) multiply (no tables), evaluated at runtime.
    pub fn gf_mul(a: u8, b: u8) -> u8 {
        super::gf_mul(a, b)
    }

    /// GF(2⁸) inverse via Fermat's little theorem, evaluated at runtime.
    pub fn gf_inv(a: u8) -> u8 {
        super::gf_inv(a)
    }

    /// The S-box computed from scratch for a single byte.
    pub fn sub_byte(b: u8) -> u8 {
        super::sub_byte(b)
    }

    /// Inverse S-box computed from scratch for a single byte.
    pub fn inv_sub_byte(b: u8) -> u8 {
        super::inv_sub_byte(b)
    }

    /// The retained slow AES-128: per-byte field inversions each round.
    #[derive(Clone)]
    pub struct RefAes128 {
        round_keys: [[u8; 16]; 11],
    }

    impl RefAes128 {
        /// Expands a 128-bit key with per-byte S-box recomputation.
        pub fn new(key: &[u8; 16]) -> Self {
            let mut w = [[0u8; 4]; 44];
            for i in 0..4 {
                w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
            }
            for i in 4..44 {
                let mut temp = w[i - 1];
                if i % 4 == 0 {
                    temp.rotate_left(1);
                    for b in &mut temp {
                        *b = sub_byte(*b);
                    }
                    temp[0] ^= RCON[i / 4];
                }
                for j in 0..4 {
                    w[i][j] = w[i - 4][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; 16]; 11];
            for (r, rk) in round_keys.iter_mut().enumerate() {
                for c in 0..4 {
                    rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                }
            }
            RefAes128 { round_keys }
        }

        /// Encrypts one block in place (slowly, on purpose).
        pub fn encrypt_block(&self, block: &mut [u8; 16]) {
            super::xor16(block, &self.round_keys[0]);
            for r in 1..10 {
                for b in block.iter_mut() {
                    *b = sub_byte(*b);
                }
                super::shift_rows(block);
                mix_columns_ref(block);
                super::xor16(block, &self.round_keys[r]);
            }
            for b in block.iter_mut() {
                *b = sub_byte(*b);
            }
            super::shift_rows(block);
            super::xor16(block, &self.round_keys[10]);
        }

        /// Decrypts one block in place.
        pub fn decrypt_block(&self, block: &mut [u8; 16]) {
            super::xor16(block, &self.round_keys[10]);
            super::inv_shift_rows(block);
            for b in block.iter_mut() {
                *b = inv_sub_byte(*b);
            }
            for r in (1..10).rev() {
                super::xor16(block, &self.round_keys[r]);
                inv_mix_columns_ref(block);
                super::inv_shift_rows(block);
                for b in block.iter_mut() {
                    *b = inv_sub_byte(*b);
                }
            }
            super::xor16(block, &self.round_keys[0]);
        }
    }

    fn mix_columns_ref(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            for r in 0..4 {
                let coeffs = [[2u8, 3, 1, 1], [1, 2, 3, 1], [1, 1, 2, 3], [3, 1, 1, 2]];
                state[4 * c + r] = (0..4).fold(0u8, |acc, i| acc ^ gf_mul(coeffs[r][i], col[i]));
            }
        }
    }

    fn inv_mix_columns_ref(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            for r in 0..4 {
                let coeffs = [[14u8, 11, 13, 9], [9, 14, 11, 13], [13, 9, 14, 11], [11, 13, 9, 14]];
                state[4 * c + r] = (0..4).fold(0u8, |acc, i| acc ^ gf_mul(coeffs[r][i], col[i]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{self, RefAes128};
    use crate::aes::{Aes128, INV_SBOX, SBOX};

    /// The Fermat-derived S-boxes equal the generator-walk tables in
    /// [`crate::aes`]: two independent derivations, checked on all bytes.
    #[test]
    fn sub_byte_matches_table() {
        for b in 0..=255u8 {
            assert_eq!(reference::sub_byte(b), SBOX[b as usize], "sbox mismatch at {b:#x}");
            assert_eq!(
                reference::inv_sub_byte(b),
                INV_SBOX[b as usize],
                "inv sbox mismatch at {b:#x}"
            );
        }
    }

    /// Deterministic proptest: for random keys and blocks, the GF-math
    /// reference and the default fast path agree on encryption and
    /// decryption.
    #[test]
    fn cross_check_random_blocks() {
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seed
        };
        for _ in 0..16 {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            for i in 0..16 {
                key[i] = (next() >> 24) as u8;
                block[i] = (next() >> 16) as u8;
            }
            let fast = Aes128::new(&key);
            let slow = RefAes128::new(&key);
            let mut b = block;
            let mut c = block;
            fast.encrypt_block(&mut b);
            slow.encrypt_block(&mut c);
            assert_eq!(b, c, "fast AES diverged from the GF-math reference");
            fast.decrypt_block(&mut b);
            slow.decrypt_block(&mut c);
            assert_eq!(b, block);
            assert_eq!(c, block);
        }
    }
}
