//! Hardware AES via `std::arch::x86_64` — the `AesBackend::AesNi` engine.
//!
//! Compiled only with the `aesni` cargo feature on x86-64, and selected
//! only after runtime `is_x86_feature_detected!("aes")`. The round keys
//! come from the one expansion [`crate::aes::KeySchedule`] already did:
//!
//! - encryption feeds the straight schedule to `AESENC`/`AESENCLAST`;
//! - decryption feeds the existing equivalent-inverse-cipher schedule to
//!   `AESDEC`/`AESDECLAST` — the hardware round is exactly
//!   `InvShiftRows → InvSubBytes → InvMixColumns → AddRoundKey`, which is
//!   what the InvMixColumns-transformed inner keys were built for, so the
//!   same `dec` vector the T-table core uses drops straight in (applied
//!   high-to-low, with the untransformed `dec[rounds]` as the initial
//!   whitening key and `dec[0]` in the `AESDECLAST` round).
//!
//! Eight blocks are kept in flight per loop iteration: `AESENC` has a
//! multi-cycle latency but pipelines one per cycle, so independent states
//! are what turn ~4 cycles/byte into ~0.3. This mirrors the eight-state
//! interleave of the T-table core, so both backends digest the same
//! 128-byte batches.
//!
//! Besides the plain block runs, two fused mode kernels serve the modes in
//! [`crate::modes`] whole-buffer per call: CTR over `prefix ‖ counter`
//! blocks and XEX around a physical-address tweak. Each loads the round
//! keys once, builds its counter or tweak blocks in registers and folds
//! the XORs into the round loop, instead of writing counter/tweak blocks
//! into a scratch buffer and whitening it in separate passes. The XEX
//! kernel reads `src` and writes `dst`, which may be the same buffer, so
//! the memory controller can transform straight between DRAM and the
//! caller's buffer.
//!
//! This is the only module in the crate allowed to use `unsafe` (the crate
//! root forbids it unless this feature is on): the intrinsics require it,
//! and every call site is guarded by the construction-time CPU detection.

use std::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_loadu_si128, _mm_set_epi64x, _mm_setzero_si128, _mm_storeu_si128, _mm_xor_si128,
};

/// Maximum round keys for any AES key size (AES-256: 14 rounds + 1).
const MAX_RK: usize = 15;

/// Whether the host CPU exposes the AES instructions.
pub(crate) fn available() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

/// Byte-form round keys for the AES instructions, derived from the already
/// expanded schedule (no re-expansion).
#[derive(Clone)]
pub(crate) struct NiKeys {
    enc: Vec<[u8; 16]>,
    dec: Vec<[u8; 16]>,
}

impl std::fmt::Debug for NiKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("NiKeys").field("rounds", &(self.enc.len() - 1)).finish()
    }
}

impl NiKeys {
    /// Converts the column-word schedules into the 16-byte round keys the
    /// instructions consume. `enc` is the straight schedule, `dec` the
    /// equivalent-inverse-cipher schedule, both as built by
    /// [`crate::aes::KeySchedule`].
    pub(crate) fn from_words(enc: &[[u32; 4]], dec: &[[u32; 4]]) -> Self {
        let to_bytes = |words: &[[u32; 4]]| {
            words
                .iter()
                .map(|w| {
                    let mut rk = [0u8; 16];
                    for (c, word) in w.iter().enumerate() {
                        rk[4 * c..4 * c + 4].copy_from_slice(&word.to_be_bytes());
                    }
                    rk
                })
                .collect::<Vec<_>>()
        };
        NiKeys { enc: to_bytes(enc), dec: to_bytes(dec) }
    }

    /// Encrypts consecutive 16-byte blocks in place.
    pub(crate) fn encrypt_blocks(&self, blocks: &mut [u8]) {
        debug_assert_eq!(blocks.len() % 16, 0);
        debug_assert!(available(), "NiKeys constructed without CPU support");
        // SAFETY: `NiKeys` is only constructed through
        // `KeySchedule::with_backend(_, AesBackend::AesNi)`, which checks
        // `is_x86_feature_detected!("aes")` first.
        #[allow(unsafe_code)]
        unsafe {
            encrypt_impl(&self.enc, blocks)
        }
    }

    /// Decrypts consecutive 16-byte blocks in place.
    pub(crate) fn decrypt_blocks(&self, blocks: &mut [u8]) {
        debug_assert_eq!(blocks.len() % 16, 0);
        debug_assert!(available(), "NiKeys constructed without CPU support");
        // SAFETY: as in `encrypt_blocks` — construction implies detection.
        #[allow(unsafe_code)]
        unsafe {
            decrypt_impl(&self.dec, blocks)
        }
    }

    /// XORs `data` with the CTR keystream whose block `i` is the AES
    /// encryption of `hi ‖ lo` for `(hi, lo) = block(i)`, both halves
    /// big-endian. The final chunk may be shorter than 16 bytes.
    pub(crate) fn ctr_xor(&self, block: impl Fn(u64) -> (u64, u64), data: &mut [u8]) {
        debug_assert!(available(), "NiKeys constructed without CPU support");
        // SAFETY: construction implies detection (as in `encrypt_blocks`);
        // the kernel touches only `data`'s own bytes.
        #[allow(unsafe_code)]
        unsafe {
            ctr_impl(&self.enc, block, data)
        }
    }

    /// XEX over whole 16-byte blocks: block `i` of `src` (or of `dst`
    /// itself when `src` is `None`) is whitened with `T(base + 16·i)`
    /// before and after AES and lands in block `i` of `dst`, where `T(pa)`
    /// is the 16-byte mask `lo ‖ hi` of `(lo, hi) = tweak(pa)`, both halves
    /// little-endian. `ENC` selects encryption or decryption.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len()` is not a multiple of 16, or `src` is given
    /// with a length other than `dst.len()`.
    pub(crate) fn xex<const ENC: bool>(
        &self,
        tweak: impl Fn(u64) -> (u64, u64),
        base: u64,
        src: Option<&[u8]>,
        dst: &mut [u8],
    ) {
        assert_eq!(dst.len() % 16, 0, "XEX runs are whole blocks");
        if let Some(src) = src {
            assert_eq!(src.len(), dst.len(), "XEX source and destination lengths differ");
        }
        debug_assert!(available(), "NiKeys constructed without CPU support");
        let blocks = dst.len() / 16;
        let out = dst.as_mut_ptr();
        let input = src.map_or(out.cast_const(), <[u8]>::as_ptr);
        let keys = if ENC { &self.enc } else { &self.dec };
        // SAFETY: construction implies detection (as in `encrypt_blocks`).
        // `input` and `out` each span `16 * blocks` bytes (checked above);
        // they are either the same buffer or two distinct borrows, and the
        // kernel reads every block before it writes that block.
        #[allow(unsafe_code)]
        unsafe {
            xex_impl::<ENC>(keys, tweak, base, input, out, blocks)
        }
    }
}

/// Loads the round keys into registers once per batch call.
///
/// # Safety
///
/// Caller must ensure the `aes` (and implied `sse2`) target features are
/// present at runtime.
#[allow(unsafe_code)]
#[target_feature(enable = "aes")]
unsafe fn load_keys(keys: &[[u8; 16]]) -> ([__m128i; MAX_RK], usize) {
    let mut rk = [_mm_setzero_si128(); MAX_RK];
    for (dst, src) in rk.iter_mut().zip(keys.iter()) {
        *dst = _mm_loadu_si128(src.as_ptr().cast::<__m128i>());
    }
    (rk, keys.len() - 1)
}

/// The pipelined encryption loop: eight independent states per iteration,
/// single-block tail.
///
/// # Safety
///
/// Caller must ensure the `aes` target feature is present at runtime and
/// `blocks.len() % 16 == 0`.
#[allow(unsafe_code)]
#[target_feature(enable = "aes")]
unsafe fn encrypt_impl(keys: &[[u8; 16]], blocks: &mut [u8]) {
    let (rk, rounds) = load_keys(keys);
    let mut wide = blocks.chunks_exact_mut(128);
    for chunk in &mut wide {
        let p = chunk.as_mut_ptr().cast::<__m128i>();
        let mut s = [_mm_setzero_si128(); 8];
        for (b, st) in s.iter_mut().enumerate() {
            *st = _mm_xor_si128(_mm_loadu_si128(p.add(b)), rk[0]);
        }
        for &k in &rk[1..rounds] {
            for st in s.iter_mut() {
                *st = _mm_aesenc_si128(*st, k);
            }
        }
        let last = rk[rounds];
        for (b, st) in s.iter().enumerate() {
            _mm_storeu_si128(p.add(b), _mm_aesenclast_si128(*st, last));
        }
    }
    for chunk in wide.into_remainder().chunks_exact_mut(16) {
        let p = chunk.as_mut_ptr().cast::<__m128i>();
        let mut s = _mm_xor_si128(_mm_loadu_si128(p), rk[0]);
        for &k in &rk[1..rounds] {
            s = _mm_aesenc_si128(s, k);
        }
        _mm_storeu_si128(p, _mm_aesenclast_si128(s, rk[rounds]));
    }
}

/// The pipelined decryption loop over the equivalent-inverse schedule.
///
/// # Safety
///
/// As for [`encrypt_impl`].
#[allow(unsafe_code)]
#[target_feature(enable = "aes")]
unsafe fn decrypt_impl(keys: &[[u8; 16]], blocks: &mut [u8]) {
    let (rk, rounds) = load_keys(keys);
    let mut wide = blocks.chunks_exact_mut(128);
    for chunk in &mut wide {
        let p = chunk.as_mut_ptr().cast::<__m128i>();
        let mut s = [_mm_setzero_si128(); 8];
        for (b, st) in s.iter_mut().enumerate() {
            *st = _mm_xor_si128(_mm_loadu_si128(p.add(b)), rk[rounds]);
        }
        for r in (1..rounds).rev() {
            let k = rk[r];
            for st in s.iter_mut() {
                *st = _mm_aesdec_si128(*st, k);
            }
        }
        let last = rk[0];
        for (b, st) in s.iter().enumerate() {
            _mm_storeu_si128(p.add(b), _mm_aesdeclast_si128(*st, last));
        }
    }
    for chunk in wide.into_remainder().chunks_exact_mut(16) {
        let p = chunk.as_mut_ptr().cast::<__m128i>();
        let mut s = _mm_xor_si128(_mm_loadu_si128(p), rk[rounds]);
        for r in (1..rounds).rev() {
            s = _mm_aesdec_si128(s, rk[r]);
        }
        _mm_storeu_si128(p, _mm_aesdeclast_si128(s, rk[0]));
    }
}

/// Packs two 64-bit halves into one register: `lo` in bytes 0..8, `hi` in
/// bytes 8..16, each little-endian.
///
/// # Safety
///
/// Caller must ensure the `aes` target feature (and implied `sse2`) is
/// present at runtime.
#[allow(unsafe_code)]
#[inline]
#[target_feature(enable = "aes")]
unsafe fn pack(lo: u64, hi: u64) -> __m128i {
    _mm_set_epi64x(hi as i64, lo as i64)
}

/// The CTR kernel: eight counter blocks per iteration are built in
/// registers, encrypted with the keys loaded once, and XORed into the data;
/// whole-block and ragged tails follow.
///
/// # Safety
///
/// Caller must ensure the `aes` target feature is present at runtime.
#[allow(unsafe_code)]
#[target_feature(enable = "aes")]
unsafe fn ctr_impl(keys: &[[u8; 16]], block: impl Fn(u64) -> (u64, u64), data: &mut [u8]) {
    let (rk, rounds) = load_keys(keys);
    // Big-endian halves read as the little-endian lanes of the register.
    let counter = |i: u64| {
        let (hi, lo) = block(i);
        pack(hi.swap_bytes(), lo.swap_bytes())
    };
    let keystream1 = |i: u64| {
        let mut s = _mm_xor_si128(counter(i), rk[0]);
        for &k in &rk[1..rounds] {
            s = _mm_aesenc_si128(s, k);
        }
        _mm_aesenclast_si128(s, rk[rounds])
    };
    let mut idx = 0u64;
    let mut wide = data.chunks_exact_mut(128);
    for chunk in &mut wide {
        let p = chunk.as_mut_ptr().cast::<__m128i>();
        let mut s = [_mm_setzero_si128(); 8];
        for (b, st) in s.iter_mut().enumerate() {
            *st = _mm_xor_si128(counter(idx + b as u64), rk[0]);
        }
        for &k in &rk[1..rounds] {
            for st in s.iter_mut() {
                *st = _mm_aesenc_si128(*st, k);
            }
        }
        let last = rk[rounds];
        for (b, st) in s.iter().enumerate() {
            let ks = _mm_aesenclast_si128(*st, last);
            _mm_storeu_si128(p.add(b), _mm_xor_si128(_mm_loadu_si128(p.add(b)), ks));
        }
        idx += 8;
    }
    let mut blocks = wide.into_remainder().chunks_exact_mut(16);
    for chunk in &mut blocks {
        let p = chunk.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), keystream1(idx)));
        idx += 1;
    }
    let ragged = blocks.into_remainder();
    if !ragged.is_empty() {
        let mut ks = [0u8; 16];
        _mm_storeu_si128(ks.as_mut_ptr().cast::<__m128i>(), keystream1(idx));
        for (d, k) in ragged.iter_mut().zip(ks.iter()) {
            *d ^= *k;
        }
    }
}

/// The XEX kernel: eight tweaks per iteration are built in registers and
/// folded into the first and last round-key XORs, with the keys loaded
/// once; a single-block tail follows. Reads `blocks` blocks at `src` and
/// writes them to `dst`, each block read before it is written.
///
/// # Safety
///
/// Caller must ensure the `aes` target feature is present at runtime, and
/// that `src` is valid for reads and `dst` for writes of `16 * blocks`
/// bytes, the two being either equal or non-overlapping.
#[allow(unsafe_code)]
#[target_feature(enable = "aes")]
unsafe fn xex_impl<const ENC: bool>(
    keys: &[[u8; 16]],
    tweak: impl Fn(u64) -> (u64, u64),
    base: u64,
    src: *const u8,
    dst: *mut u8,
    blocks: usize,
) {
    let (rk, rounds) = load_keys(keys);
    // Encryption runs the straight schedule up; decryption the
    // equivalent-inverse schedule down.
    let (first, last) = if ENC { (rk[0], rk[rounds]) } else { (rk[rounds], rk[0]) };
    let round = |s: __m128i, r: usize| {
        if ENC {
            _mm_aesenc_si128(s, rk[r])
        } else {
            _mm_aesdec_si128(s, rk[rounds - r])
        }
    };
    let finish = |s: __m128i| {
        if ENC {
            _mm_aesenclast_si128(s, last)
        } else {
            _mm_aesdeclast_si128(s, last)
        }
    };
    let mask = |pa: u64| {
        let (lo, hi) = tweak(pa);
        pack(lo, hi)
    };
    let src = src.cast::<__m128i>();
    let dst = dst.cast::<__m128i>();
    let mut pa = base;
    let mut b = 0usize;
    while b + 8 <= blocks {
        let mut t = [_mm_setzero_si128(); 8];
        let mut s = [_mm_setzero_si128(); 8];
        for j in 0..8 {
            t[j] = mask(pa.wrapping_add(16 * j as u64));
            s[j] = _mm_xor_si128(_mm_loadu_si128(src.add(b + j)), _mm_xor_si128(t[j], first));
        }
        for r in 1..rounds {
            for st in s.iter_mut() {
                *st = round(*st, r);
            }
        }
        for j in 0..8 {
            _mm_storeu_si128(dst.add(b + j), _mm_xor_si128(finish(s[j]), t[j]));
        }
        b += 8;
        pa = pa.wrapping_add(128);
    }
    while b < blocks {
        let t = mask(pa);
        let mut s = _mm_xor_si128(_mm_loadu_si128(src.add(b)), _mm_xor_si128(t, first));
        for r in 1..rounds {
            s = round(s, r);
        }
        _mm_storeu_si128(dst.add(b), _mm_xor_si128(finish(s), t));
        b += 1;
        pa = pa.wrapping_add(16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::KeySchedule;

    fn keys_for(key: &[u8]) -> NiKeys {
        let ks = KeySchedule::new(key).unwrap();
        NiKeys::from_words(ks.enc_words(), ks.dec_words())
    }

    #[test]
    fn hardware_matches_ttable_all_key_sizes() {
        if !available() {
            eprintln!("skipping: host has no AES instructions");
            return;
        }
        for key in [&[0x21u8; 16][..], &[0x5Eu8; 24][..], &[0xA3u8; 32][..]] {
            let ks = KeySchedule::with_backend(key, crate::aes::AesBackend::TTable).unwrap();
            let ni = keys_for(key);
            let mut data: Vec<u8> = (0..16 * 11).map(|i| (i as u8).wrapping_mul(13)).collect();
            let mut expect = data.clone();
            ni.encrypt_blocks(&mut data);
            ks.encrypt_blocks(&mut expect);
            assert_eq!(data, expect, "AESENC diverged for {}-byte key", key.len());
            ni.decrypt_blocks(&mut data);
            ks.decrypt_blocks(&mut expect);
            assert_eq!(data, expect, "AESDEC diverged for {}-byte key", key.len());
        }
    }
}
