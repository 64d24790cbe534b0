//! X25519 Diffie–Hellman (RFC 7748).
//!
//! The SEV SEND/RECEIVE protocol establishes a *master secret* between the
//! guest owner and the target platform's firmware via ECDH over each side's
//! public key and a nonce (paper §4.3.2: "only the guest owner and the
//! firmware can agree on the master secret using their private key, while
//! the hypervisor in the middle cannot guess them"). This module provides
//! that key agreement with a from-scratch Curve25519 Montgomery ladder over
//! GF(2²⁵⁵ − 19) using 51-bit limbs.

/// A field element in GF(2²⁵⁵ − 19), 5 × 51-bit limbs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fe([u64; 5]);

const MASK51: u64 = (1u64 << 51) - 1;

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    fn from_bytes(bytes: &[u8; 32]) -> Fe {
        // Accumulate the 256 little-endian bits into 51-bit limbs; the top
        // (256th) bit is masked off per RFC 7748.
        let mut limbs = [0u64; 5];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for &b in bytes {
            acc |= (b as u128) << acc_bits;
            acc_bits += 8;
            while acc_bits >= 51 && idx < 4 {
                limbs[idx] = (acc as u64) & MASK51;
                acc >>= 51;
                acc_bits -= 51;
                idx += 1;
            }
        }
        limbs[4] = (acc as u64) & MASK51;
        Fe(limbs)
    }

    fn to_bytes(self) -> [u8; 32] {
        let t = self.reduce_full();
        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for limb in t.0 {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 && idx < 32 {
                out[idx] = (acc & 0xFF) as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        while idx < 32 {
            out[idx] = (acc & 0xFF) as u8;
            acc >>= 8;
            idx += 1;
        }
        out
    }

    /// Fully reduces to the canonical representative in [0, p).
    fn reduce_full(self) -> Fe {
        let mut t = self;
        t = t.carry();
        t = t.carry();
        // Conditionally subtract p = 2^255 - 19.
        for _ in 0..2 {
            let mut borrow: i128 = 0;
            let p = [0x7FFFFFFFFFFEDu64, MASK51, MASK51, MASK51, MASK51];
            let mut r = [0u64; 5];
            for i in 0..5 {
                let diff = t.0[i] as i128 - p[i] as i128 + borrow;
                if diff < 0 {
                    r[i] = (diff + (1i128 << 51)) as u64;
                    borrow = -1;
                } else {
                    r[i] = diff as u64;
                    borrow = 0;
                }
            }
            if borrow == 0 {
                t = Fe(r);
            }
        }
        t
    }

    fn carry(self) -> Fe {
        let mut l = self.0;
        let mut c;
        c = l[0] >> 51;
        l[0] &= MASK51;
        l[1] += c;
        c = l[1] >> 51;
        l[1] &= MASK51;
        l[2] += c;
        c = l[2] >> 51;
        l[2] &= MASK51;
        l[3] += c;
        c = l[3] >> 51;
        l[3] &= MASK51;
        l[4] += c;
        c = l[4] >> 51;
        l[4] &= MASK51;
        l[0] += 19 * c;
        c = l[0] >> 51;
        l[0] &= MASK51;
        l[1] += c;
        Fe(l)
    }

    /// `self + other` without a carry pass. Both operands must be carried
    /// (as `carry`, `carry_wide` and `from_bytes` leave them: limbs below
    /// 2⁵¹, limb 1 below 2⁵¹ + 2¹³), so the sum's limbs stay below 2⁵³; it
    /// may only feed `mul`, `square`, `mul_small` or `to_bytes`, never
    /// another `add` or `sub`.
    fn add(self, other: Fe) -> Fe {
        let mut r = [0u64; 5];
        for (i, v) in r.iter_mut().enumerate() {
            *v = self.0[i] + other.0[i];
        }
        Fe(r)
    }

    /// `self − other` without a carry pass, under `add`'s contract.
    fn sub(self, other: Fe) -> Fe {
        // self + 2p - other keeps limbs positive: 2p's limbs (2⁵² − 38 and
        // 2⁵² − 2) exceed every carried limb, and the result's limbs are
        // below 2⁵¹ + 2¹³ + 2⁵² < 2⁵³.
        let two_p = [
            0xFFFFFFFFFFFDAu64,
            0xFFFFFFFFFFFFE,
            0xFFFFFFFFFFFFE,
            0xFFFFFFFFFFFFE,
            0xFFFFFFFFFFFFE,
        ];
        let mut r = [0u64; 5];
        for i in 0..5 {
            r[i] = self.0[i] + two_p[i] - other.0[i];
        }
        Fe(r)
    }

    fn mul(self, other: Fe) -> Fe {
        let a = self.0;
        let b = other.0;
        let m = |x: u64, y: u64| (x as u128) * (y as u128);
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;
        let r0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let r1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let r2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let r3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let r4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);
        Fe::carry_wide([r0, r1, r2, r3, r4])
    }

    /// `self · self`: `mul`'s 20 cross products pair up into 10 doubled
    /// ones, so 15 limb products instead of 25, with the same sums.
    fn square(self) -> Fe {
        let a = self.0;
        let m = |x: u64, y: u64| (x as u128) * (y as u128);
        let (a0_2, a1_2) = (a[0] * 2, a[1] * 2);
        let (a1_38, a2_38, a3_19, a3_38, a4_19) =
            (a[1] * 38, a[2] * 38, a[3] * 19, a[3] * 38, a[4] * 19);
        let r0 = m(a[0], a[0]) + m(a1_38, a[4]) + m(a2_38, a[3]);
        let r1 = m(a0_2, a[1]) + m(a2_38, a[4]) + m(a3_19, a[3]);
        let r2 = m(a0_2, a[2]) + m(a[1], a[1]) + m(a3_38, a[4]);
        let r3 = m(a0_2, a[3]) + m(a1_2, a[2]) + m(a4_19, a[4]);
        let r4 = m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]);
        Fe::carry_wide([r0, r1, r2, r3, r4])
    }

    fn mul_small(self, k: u32) -> Fe {
        let mut r = [0u128; 5];
        for (i, v) in r.iter_mut().enumerate() {
            *v = (self.0[i] as u128) * (k as u128);
        }
        Fe::carry_wide(r)
    }

    /// One pass of carries over the wide limb sums, the top carry folded
    /// back into limb 0 with ×19 (2²⁵⁵ ≡ 19), then limb 0's own carry into
    /// limb 1. `mul`, `square` and `mul_small` take limbs below 2⁵⁴ (a
    /// carried value, or one lazy `add` or `sub` of two), so limb 4's sum,
    /// which has no ×19 terms, is below 5 · 2¹⁰⁸ < 2¹¹¹ and its carry times
    /// 19 is below 2⁶⁴; the result is carried: limbs below 2⁵¹ except
    /// limb 1, which may exceed it by the last carry (below 2¹³).
    fn carry_wide(r: [u128; 5]) -> Fe {
        let mut l = [0u64; 5];
        let mut carry: u128 = 0;
        for (limb, &sum) in l.iter_mut().zip(r.iter()) {
            let v = sum + carry;
            *limb = (v as u64) & MASK51;
            carry = v >> 51;
        }
        l[0] += carry as u64 * 19;
        l[1] += l[0] >> 51;
        l[0] &= MASK51;
        Fe(l)
    }

    /// `self^(2^k)`: `k` successive squarings.
    fn pow2k(self, k: u32) -> Fe {
        let mut t = self;
        for _ in 0..k {
            t = t.square();
        }
        t
    }

    /// Inversion by Fermat, `self^(p−2)` with `p − 2 = 2²⁵⁵ − 21`, along
    /// the standard addition chain: 254 squarings and 11 multiplications.
    /// `invert(0)` is 0.
    fn invert(self) -> Fe {
        let z2 = self.square(); // z^2
        let z9 = z2.pow2k(2).mul(self); // z^9
        let z11 = z9.mul(z2); // z^11
        let z_5_0 = z11.square().mul(z9); // z^(2^5 - 1)
        let z_10_0 = z_5_0.pow2k(5).mul(z_5_0); // z^(2^10 - 1)
        let z_20_0 = z_10_0.pow2k(10).mul(z_10_0); // z^(2^20 - 1)
        let z_40_0 = z_20_0.pow2k(20).mul(z_20_0); // z^(2^40 - 1)
        let z_50_0 = z_40_0.pow2k(10).mul(z_10_0); // z^(2^50 - 1)
        let z_100_0 = z_50_0.pow2k(50).mul(z_50_0); // z^(2^100 - 1)
        let z_200_0 = z_100_0.pow2k(100).mul(z_100_0); // z^(2^200 - 1)
        let z_250_0 = z_200_0.pow2k(50).mul(z_50_0); // z^(2^250 - 1)
        z_250_0.pow2k(5).mul(z11) // z^(2^255 - 32 + 11)
    }
}

fn cswap(swap: bool, a: &mut Fe, b: &mut Fe) {
    if swap {
        std::mem::swap(a, b);
    }
}

/// Raw X25519 scalar multiplication: `scalar * u`.
///
/// The scalar is clamped per RFC 7748 before use.
pub fn scalar_mult(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let mut k = *scalar;
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;

    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = false;

    for t in (0..255usize).rev() {
        let kt = (k[t / 8] >> (t % 8)) & 1 == 1;
        swap ^= kt;
        cswap(swap, &mut x2, &mut x3);
        cswap(swap, &mut z2, &mut z3);
        swap = kt;

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121_665)));
    }
    cswap(swap, &mut x2, &mut x3);
    cswap(swap, &mut z2, &mut z3);

    x2.mul(z2.invert()).to_bytes()
}

/// The curve's base point u = 9.
pub const BASE_POINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// Derives the public key for a private scalar.
pub fn public_key(private: &[u8; 32]) -> [u8; 32] {
    scalar_mult(private, &BASE_POINT)
}

/// Computes the shared secret between `our_private` and `their_public`.
pub fn shared_secret(our_private: &[u8; 32], their_public: &[u8; 32]) -> [u8; 32] {
    scalar_mult(our_private, their_public)
}

/// An ECDH keypair, the "origin's public ECDH key" of the SEV metadata.
#[derive(Clone)]
pub struct KeyPair {
    private: [u8; 32],
    public: [u8; 32],
}

impl std::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyPair").field("public", &self.public).finish_non_exhaustive()
    }
}

impl KeyPair {
    /// Builds a keypair from 32 bytes of seed material.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let public = public_key(&seed);
        KeyPair { private: seed, public }
    }

    /// The public half, safe to publish.
    pub fn public(&self) -> &[u8; 32] {
        &self.public
    }

    /// Computes the shared secret with a peer's public key.
    pub fn agree(&self, their_public: &[u8; 32]) -> [u8; 32] {
        shared_secret(&self.private, their_public)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex32(s: &str) -> [u8; 32] {
        let v: Vec<u8> = (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        v.try_into().unwrap()
    }

    // RFC 7748 §5.2 vector 1.
    #[test]
    fn rfc7748_vector1() {
        let scalar = hex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = hex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let expected = hex32("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
        assert_eq!(scalar_mult(&scalar, &u), expected);
    }

    // RFC 7748 §5.2 vector 2.
    #[test]
    fn rfc7748_vector2() {
        let scalar = hex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u = hex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let expected = hex32("95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
        assert_eq!(scalar_mult(&scalar, &u), expected);
    }

    // RFC 7748 §6.1 Diffie-Hellman.
    #[test]
    fn rfc7748_dh() {
        let alice_priv = hex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_priv = hex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice_pub = public_key(&alice_priv);
        let bob_pub = public_key(&bob_priv);
        assert_eq!(
            alice_pub,
            hex32("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
        );
        assert_eq!(
            bob_pub,
            hex32("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
        );
        let shared = hex32("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
        assert_eq!(shared_secret(&alice_priv, &bob_pub), shared);
        assert_eq!(shared_secret(&bob_priv, &alice_pub), shared);
    }

    // RFC 7748 §5.2 iterated test, 1 iteration.
    #[test]
    fn rfc7748_iterated_once() {
        let k = hex32("0900000000000000000000000000000000000000000000000000000000000000");
        let out = scalar_mult(&k, &k);
        assert_eq!(out, hex32("422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"));
    }

    // RFC 7748 §5.2 iterated test, 1000 iterations: k, u ← k·u, k.
    #[test]
    fn rfc7748_iterated_thousand() {
        let mut k = hex32("0900000000000000000000000000000000000000000000000000000000000000");
        let mut u = k;
        for _ in 0..1000 {
            let next = scalar_mult(&k, &u);
            u = k;
            k = next;
        }
        assert_eq!(k, hex32("684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"));
    }

    #[test]
    fn keypair_agreement_symmetry() {
        let a = KeyPair::from_seed([1u8; 32]);
        let b = KeyPair::from_seed([2u8; 32]);
        assert_eq!(a.agree(b.public()), b.agree(a.public()));
        let c = KeyPair::from_seed([3u8; 32]);
        assert_ne!(a.agree(b.public()), a.agree(c.public()));
    }

    #[test]
    fn debug_does_not_leak_private() {
        let kp = KeyPair::from_seed([0x42u8; 32]);
        let s = format!("{kp:?}");
        assert!(s.contains("public"));
        assert!(!s.contains("private: [66"));
    }

    #[test]
    fn invert_is_the_multiplicative_inverse() {
        assert_eq!(Fe::ZERO.invert().to_bytes(), [0u8; 32], "invert(0) must be 0");
        let one = Fe::ONE.to_bytes();
        let mut state = 0x0002_5519_u64;
        for _ in 0..64 {
            let mut bytes = [0u8; 32];
            for b in bytes.iter_mut() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                *b = (state >> 56) as u8;
            }
            let x = Fe::from_bytes(&bytes);
            if x.to_bytes() == [0u8; 32] {
                continue;
            }
            assert_eq!(x.mul(x.invert()).to_bytes(), one, "x · invert(x) != 1 for {bytes:02x?}");
        }
    }

    /// `v mod p` for a little-endian 64-bit-word integer `v`, by folding
    /// everything above bit 255 back in with ×19 and a final subtraction.
    fn reduce_words(mut v: Vec<u64>) -> [u64; 4] {
        loop {
            let hi: Vec<u64> =
                (3..v.len()).map(|i| (v[i] >> 63) | v.get(i + 1).map_or(0, |w| w << 1)).collect();
            if hi.iter().all(|&w| w == 0) {
                break;
            }
            v.truncate(4);
            v[3] &= u64::MAX >> 1;
            let mut carry = 0u128;
            for i in 0..v.len().max(hi.len()) + 1 {
                let sum =
                    carry + *v.get(i).unwrap_or(&0) as u128 + 19 * *hi.get(i).unwrap_or(&0) as u128;
                if i < v.len() {
                    v[i] = sum as u64;
                } else {
                    v.push(sum as u64);
                }
                carry = sum >> 64;
            }
        }
        // Now v < 2²⁵⁵ < 2p: subtract p once if v ≥ p.
        let p = [u64::MAX - 18, u64::MAX, u64::MAX, u64::MAX >> 1];
        let ge = (0..4).rev().find(|&i| v[i] != p[i]).is_none_or(|i| v[i] > p[i]);
        let mut out = [v[0], v[1], v[2], v[3]];
        if ge {
            let mut borrow = 0u64;
            for i in 0..4 {
                let (d, b1) = out[i].overflowing_sub(p[i]);
                let (d, b2) = d.overflowing_sub(borrow);
                out[i] = d;
                borrow = u64::from(b1 || b2);
            }
        }
        out
    }

    /// The integer `Σ limbᵢ · 2⁵¹ⁱ` of an unreduced element, as 64-bit words.
    fn words_of(fe: Fe) -> Vec<u64> {
        let mut words = vec![0u64; 6];
        for (i, &limb) in fe.0.iter().enumerate() {
            // Unreduced limbs overlap their neighbours, so add, not OR.
            let bit = 51 * i;
            let mut carry = (limb as u128) << (bit % 64);
            for w in &mut words[bit / 64..] {
                let t = *w as u128 + (carry as u64) as u128;
                *w = t as u64;
                carry = (carry >> 64) + (t >> 64);
            }
        }
        words
    }

    /// Schoolbook `a · b mod p`, independent of the limb arithmetic.
    fn reference_mul(a: Fe, b: Fe) -> [u8; 32] {
        let (x, y) = (words_of(a), words_of(b));
        let mut product = vec![0u64; x.len() + y.len()];
        for (i, &xi) in x.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &yj) in y.iter().enumerate() {
                let t = product[i + j] as u128 + xi as u128 * yj as u128 + carry;
                product[i + j] = t as u64;
                carry = t >> 64;
            }
            product[i + y.len()] = carry as u64;
        }
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(8).zip(reduce_words(product)) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// `add` and `sub` skip their carry pass, so `mul` and `square` see
    /// limbs up to 2⁵⁴; at and near that bound they must still agree with
    /// a schoolbook product mod p.
    #[test]
    fn mul_and_square_agree_with_schoolbook_at_the_lazy_bounds() {
        let top = (1u64 << 54) - 1;
        let mut cases = vec![Fe([top; 5]), Fe([top, 0, top, 0, top]), Fe([0, top, 0, top, 0])];
        // The largest values the ladder can hand over: a carried element
        // plus 2p, and the sum of two carried elements.
        let carried = Fe([MASK51, MASK51 + (1 << 13) - 1, MASK51, MASK51, MASK51]);
        cases.push(carried.sub(Fe::ZERO));
        cases.push(carried.add(carried));
        let mut state = 0x7748_u64;
        for _ in 0..64 {
            let mut limbs = [0u64; 5];
            for l in limbs.iter_mut() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                *l = state >> 10; // below 2⁵⁴
            }
            cases.push(Fe(limbs));
        }
        for &a in &cases {
            assert_eq!(a.square().to_bytes(), reference_mul(a, a), "square of {:x?}", a.0);
            for &b in cases.iter().step_by(7) {
                assert_eq!(a.mul(b).to_bytes(), reference_mul(a, b), "{:x?} · {:x?}", a.0, b.0);
            }
        }
    }

    #[test]
    fn field_roundtrip_bytes() {
        for i in 0..32 {
            let mut bytes = [0u8; 32];
            bytes[i] = 0xA7;
            bytes[31] &= 0x7F;
            let fe = Fe::from_bytes(&bytes);
            assert_eq!(fe.to_bytes(), bytes, "roundtrip failed at byte {i}");
        }
    }
}
