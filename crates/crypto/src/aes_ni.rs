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
//! [`crate::modes`] whole-buffer per call: CTR over the run of counter
//! blocks `hi ‖ lo0 + i` and XEX around a physical-address tweak. Each
//! loads the round keys once, builds its counter or tweak blocks in
//! registers and folds the XORs into the round loop, instead of writing
//! counter/tweak blocks into a scratch buffer and whitening it in separate
//! passes. The XEX kernel reads `src` and writes `dst`, which may be the
//! same buffer, so the memory controller can transform straight between
//! DRAM and the caller's buffer.
//!
//! Each mode kernel has a 512-bit VAES form next to the 128-bit one: eight
//! `zmm` states of four blocks each (32 blocks, 512 bytes) per iteration,
//! with the round keys broadcast to all four lanes once per call. The
//! tweaks are computed lane-wise (`vprolq`, `vpternlogq` and `vprolvq`
//! over the same formula as the scalar `PaTweakCipher::tweak_halves`);
//! the counters advance by a 64-bit lane add and are byte-swapped with
//! `vpshufb`. When the host has `vaes`, `avx512f` and `avx512bw` (detected
//! once per process, [`wide_available`]) the wide form takes every whole
//! 512-byte chunk and the 128-bit form the tail; runs shorter than 32
//! blocks, and every run on a host without those features, take the
//! 128-bit form alone. Both forms produce the same bytes:
//! `tests/mode_kernel_oracle.rs` pins each against the GF-math reference.
//!
//! This is the only module in the crate allowed to use `unsafe` (the crate
//! root forbids it unless this feature is on): the intrinsics require it,
//! and every call site is guarded by the construction-time CPU detection.

use crate::modes::PaTweakCipher;
use std::arch::x86_64::{
    __m128i, __m512i, _mm512_add_epi64, _mm512_aesdec_epi128, _mm512_aesdeclast_epi128,
    _mm512_aesenc_epi128, _mm512_aesenclast_epi128, _mm512_broadcast_i32x4, _mm512_loadu_si512,
    _mm512_rol_epi64, _mm512_rolv_epi64, _mm512_set1_epi64, _mm512_set_epi64, _mm512_setzero_si512,
    _mm512_shuffle_epi8, _mm512_storeu_si512, _mm512_ternarylogic_epi64, _mm512_xor_si512,
    _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_loadu_si128, _mm_set_epi64x, _mm_set_epi8, _mm_setzero_si128, _mm_storeu_si128,
    _mm_xor_si128,
};
use std::sync::OnceLock;

/// Maximum round keys for any AES key size (AES-256: 14 rounds + 1).
const MAX_RK: usize = 15;

/// Blocks per iteration of the 512-bit kernels: eight `zmm` states of
/// four blocks each.
const WIDE_BLOCKS: usize = 32;

/// Whether the host CPU exposes the AES instructions.
pub(crate) fn available() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

/// Whether the host CPU also runs the 512-bit VAES kernels: `vaes` for the
/// rounds, `avx512f` for the lane arithmetic and `avx512bw` for the
/// counter byte-swap. Detected once and cached for the process.
pub(crate) fn wide_available() -> bool {
    static WIDE: OnceLock<bool> = OnceLock::new();
    *WIDE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("vaes")
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
    })
}

/// How many leading blocks of a `blocks`-block run the 512-bit kernel
/// takes: every whole 32-block chunk when `WIDE` asks for it and the host
/// has it, none otherwise.
fn wide_share<const WIDE: bool>(blocks: usize) -> usize {
    if WIDE && wide_available() {
        blocks - blocks % WIDE_BLOCKS
    } else {
        0
    }
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
    /// encryption of `hi ‖ lo0 + i` (a wrapping 64-bit add), both halves
    /// big-endian. The final chunk may be shorter than 16 bytes. `WIDE`
    /// lets the 512-bit kernel take the whole 512-byte chunks on hosts
    /// that have it.
    pub(crate) fn ctr_xor<const WIDE: bool>(&self, hi: u64, lo0: u64, data: &mut [u8]) {
        debug_assert!(available(), "NiKeys constructed without CPU support");
        let wide = wide_share::<WIDE>(data.len() / 16);
        let (head, tail) = data.split_at_mut(16 * wide);
        // SAFETY: construction implies detection (as in `encrypt_blocks`),
        // and `wide_share` is non-zero only after `wide_available`
        // detected `vaes`, `avx512f` and `avx512bw`; each kernel touches
        // only its own slice's bytes.
        #[allow(unsafe_code)]
        unsafe {
            if !head.is_empty() {
                ctr_wide(&self.enc, hi, lo0, head);
            }
            if !tail.is_empty() {
                ctr_impl(&self.enc, hi, lo0.wrapping_add(wide as u64), tail);
            }
        }
    }

    /// XEX over whole 16-byte blocks: block `i` of `src` (or of `dst`
    /// itself when `src` is `None`) is whitened with `T(base + 16·i)`
    /// before and after AES and lands in block `i` of `dst`, where `T(pa)`
    /// is the 16-byte mask `lo ‖ hi` of `(lo, hi) =
    /// PaTweakCipher::tweak_halves(pa)`, both halves little-endian. `ENC`
    /// selects encryption or decryption; `WIDE` lets the 512-bit kernel
    /// take the whole 512-byte chunks on hosts that have it.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len()` is not a multiple of 16, or `src` is given
    /// with a length other than `dst.len()`.
    pub(crate) fn xex<const ENC: bool, const WIDE: bool>(
        &self,
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
        let wide = wide_share::<WIDE>(blocks);
        let out = dst.as_mut_ptr();
        let input = src.map_or(out.cast_const(), <[u8]>::as_ptr);
        let keys = if ENC { &self.enc } else { &self.dec };
        // SAFETY: construction implies detection (as in `encrypt_blocks`),
        // and `wide_share` is non-zero only after `wide_available`
        // detected `vaes`, `avx512f` and `avx512bw`. `input` and `out`
        // each span `16 * blocks` bytes (checked above), so both kernels'
        // ranges — the first `wide` blocks and the rest — lie inside them;
        // the two are either the same buffer or two distinct borrows, and
        // each kernel reads every block before it writes that block.
        #[allow(unsafe_code)]
        unsafe {
            if wide > 0 {
                xex_wide::<ENC>(keys, base, input, out, wide);
            }
            if wide < blocks {
                let (input, out) = (input.add(16 * wide), out.add(16 * wide));
                xex_impl::<ENC>(
                    keys,
                    base.wrapping_add(16 * wide as u64),
                    input,
                    out,
                    blocks - wide,
                );
            }
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

/// The CTR kernel: eight counter blocks `hi ‖ lo0 + i` per iteration are
/// built in registers, encrypted with the keys loaded once, and XORed into
/// the data; whole-block and ragged tails follow.
///
/// # Safety
///
/// Caller must ensure the `aes` target feature is present at runtime.
#[allow(unsafe_code)]
#[target_feature(enable = "aes")]
unsafe fn ctr_impl(keys: &[[u8; 16]], hi: u64, lo0: u64, data: &mut [u8]) {
    let (rk, rounds) = load_keys(keys);
    // Big-endian halves read as the little-endian lanes of the register.
    let counter = |i: u64| pack(hi.swap_bytes(), lo0.wrapping_add(i).swap_bytes());
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
        let (lo, hi) = PaTweakCipher::tweak_halves(pa);
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

/// Broadcasts each round key to the four 128-bit lanes of a `zmm`
/// register, once per wide-kernel call.
///
/// # Safety
///
/// Caller must ensure the `avx512f` target feature is present at runtime.
#[allow(unsafe_code)]
#[target_feature(enable = "avx512f")]
unsafe fn load_keys_wide(keys: &[[u8; 16]]) -> ([__m512i; MAX_RK], usize) {
    let mut rk = [_mm512_setzero_si512(); MAX_RK];
    for (dst, src) in rk.iter_mut().zip(keys.iter()) {
        *dst = _mm512_broadcast_i32x4(_mm_loadu_si128(src.as_ptr().cast::<__m128i>()));
    }
    (rk, keys.len() - 1)
}

/// The lane form of `PaTweakCipher::tweak_halves`: for a register whose
/// 128-bit lane `j` holds the block address `pa_j` in both 64-bit halves,
/// returns the four tweak masks `T(pa_j)`. With `x = pa ^ rotl(pa, 23) ^
/// C`, the low half is `x` and the high half `rotl(!x, 17)`; XORing the
/// high halves with `!C` instead of `C` yields `!x` there, and one
/// variable rotate by `(0, 17)` per lane finishes both halves.
///
/// # Safety
///
/// Caller must ensure the `avx512f` target feature is present at runtime.
#[allow(unsafe_code)]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn tweak_lanes(pa: __m512i) -> __m512i {
    const C: i64 = PaTweakCipher::TWEAK_CONSTANT as i64;
    let c = _mm512_set_epi64(!C, C, !C, C, !C, C, !C, C);
    // 0x96 is the truth table of `a ^ b ^ c`.
    let x = _mm512_ternarylogic_epi64::<0x96>(pa, _mm512_rol_epi64::<23>(pa), c);
    _mm512_rolv_epi64(x, _mm512_set_epi64(17, 0, 17, 0, 17, 0, 17, 0))
}

/// The block addresses of the first register of a run at `base`: lane `j`
/// holds `base + 16·j` (wrapping) in both 64-bit halves.
///
/// # Safety
///
/// Caller must ensure the `avx512f` target feature is present at runtime.
#[allow(unsafe_code)]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn lane_addresses(base: u64) -> __m512i {
    _mm512_add_epi64(_mm512_set1_epi64(base as i64), _mm512_set_epi64(48, 48, 32, 32, 16, 16, 0, 0))
}

/// The 512-bit CTR kernel: eight `zmm` states of four counter blocks each
/// per iteration. The counters live in registers in native order (`hi` in
/// the low 64-bit half of each lane, `lo0 + i` in the high half), advance
/// by a lane-wise 64-bit add, which wraps exactly like `u64::wrapping_add`,
/// and are byte-swapped to big-endian with one `vpshufb` before the
/// rounds.
///
/// # Safety
///
/// Caller must ensure the `vaes`, `avx512f` and `avx512bw` target features
/// are present at runtime and `data.len()` is a multiple of 512.
#[allow(unsafe_code)]
#[target_feature(enable = "vaes,avx512f,avx512bw")]
unsafe fn ctr_wide(keys: &[[u8; 16]], hi: u64, lo0: u64, data: &mut [u8]) {
    debug_assert_eq!(data.len() % (16 * WIDE_BLOCKS), 0);
    let (rk, rounds) = load_keys_wide(keys);
    let (hi, lo) = (hi as i64, lo0 as i64);
    let mut ctr = _mm512_set_epi64(
        lo.wrapping_add(3),
        hi,
        lo.wrapping_add(2),
        hi,
        lo.wrapping_add(1),
        hi,
        lo,
        hi,
    );
    let step = _mm512_set_epi64(4, 0, 4, 0, 4, 0, 4, 0);
    // Reverses the bytes of each 64-bit half of each lane.
    let bswap =
        _mm512_broadcast_i32x4(_mm_set_epi8(8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7));
    for chunk in data.chunks_exact_mut(16 * WIDE_BLOCKS) {
        let p = chunk.as_mut_ptr().cast::<__m512i>();
        let mut s = [_mm512_setzero_si512(); 8];
        for st in s.iter_mut() {
            *st = _mm512_xor_si512(_mm512_shuffle_epi8(ctr, bswap), rk[0]);
            ctr = _mm512_add_epi64(ctr, step);
        }
        for &k in &rk[1..rounds] {
            for st in s.iter_mut() {
                *st = _mm512_aesenc_epi128(*st, k);
            }
        }
        let last = rk[rounds];
        for (j, st) in s.iter().enumerate() {
            let ks = _mm512_aesenclast_epi128(*st, last);
            _mm512_storeu_si512(p.add(j), _mm512_xor_si512(_mm512_loadu_si512(p.add(j)), ks));
        }
    }
}

/// The 512-bit XEX kernel: eight `zmm` states of four blocks each per
/// iteration, with the tweaks computed lane-wise by [`tweak_lanes`] from
/// a register of block addresses that advances by a 64-bit add (so the
/// address wraps at `u64::MAX` exactly like the scalar path). Reads
/// `blocks` blocks at `src` and writes them to `dst`, each 512-byte chunk
/// read before it is written.
///
/// # Safety
///
/// Caller must ensure the `vaes`, `avx512f` and `avx512bw` target features
/// are present at runtime, that `blocks` is a multiple of 32, and that
/// `src` is valid for reads and `dst` for writes of `16 * blocks` bytes,
/// the two being either equal or non-overlapping.
#[allow(unsafe_code)]
#[target_feature(enable = "vaes,avx512f,avx512bw")]
unsafe fn xex_wide<const ENC: bool>(
    keys: &[[u8; 16]],
    base: u64,
    src: *const u8,
    dst: *mut u8,
    blocks: usize,
) {
    debug_assert_eq!(blocks % WIDE_BLOCKS, 0);
    let (rk, rounds) = load_keys_wide(keys);
    let (first, last) = if ENC { (rk[0], rk[rounds]) } else { (rk[rounds], rk[0]) };
    let round = |s: __m512i, r: usize| {
        if ENC {
            _mm512_aesenc_epi128(s, rk[r])
        } else {
            _mm512_aesdec_epi128(s, rk[rounds - r])
        }
    };
    let finish = |s: __m512i| {
        if ENC {
            _mm512_aesenclast_epi128(s, last)
        } else {
            _mm512_aesdeclast_epi128(s, last)
        }
    };
    let mut pa = lane_addresses(base);
    let step = _mm512_set1_epi64(64);
    let src = src.cast::<__m512i>();
    let dst = dst.cast::<__m512i>();
    for c in (0..blocks / 4).step_by(8) {
        let mut t = [_mm512_setzero_si512(); 8];
        let mut s = [_mm512_setzero_si512(); 8];
        for j in 0..8 {
            t[j] = tweak_lanes(pa);
            pa = _mm512_add_epi64(pa, step);
            s[j] =
                _mm512_ternarylogic_epi64::<0x96>(_mm512_loadu_si512(src.add(c + j)), t[j], first);
        }
        for r in 1..rounds {
            for st in s.iter_mut() {
                *st = round(*st, r);
            }
        }
        for j in 0..8 {
            _mm512_storeu_si512(dst.add(c + j), _mm512_xor_si512(finish(s[j]), t[j]));
        }
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

    /// The four tweak masks [`tweak_lanes`] computes for the register of a
    /// run at `base`, as `(lo, hi)` pairs.
    #[allow(unsafe_code)]
    fn lane_tweaks(base: u64) -> [(u64, u64); 4] {
        assert!(wide_available());
        let mut lanes = [0u64; 8];
        // SAFETY: the assertion above proves `avx512f` is present, and
        // `lanes` is 64 bytes, one register.
        unsafe {
            _mm512_storeu_si512(lanes.as_mut_ptr().cast(), tweak_lanes(lane_addresses(base)));
        }
        std::array::from_fn(|j| (lanes[2 * j], lanes[2 * j + 1]))
    }

    #[test]
    fn lane_tweak_matches_tweak_halves() {
        if !wide_available() {
            eprintln!("skipping: host has no VAES/AVX-512");
            return;
        }
        let mut x = 0x7EA4_u64;
        let random = std::iter::repeat_with(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & !0xF
        });
        // `u64::MAX - 15` is the last block below the wrap: lanes 1..4 wrap
        // to 0, 16 and 32.
        for base in [0, u64::MAX - 15].into_iter().chain(random.take(64)) {
            for (j, lane) in lane_tweaks(base).into_iter().enumerate() {
                let pa = base.wrapping_add(16 * j as u64);
                assert_eq!(lane, PaTweakCipher::tweak_halves(pa), "lane {j} of {base:#x}");
            }
        }
    }

    /// The wide kernels against the 128-bit ones for every key size (the
    /// modes only reach AES-128), around whole chunks, a tail, and an
    /// address and counter that wrap inside the first chunk.
    #[test]
    fn wide_kernels_match_narrow_all_key_sizes() {
        if !wide_available() {
            eprintln!("skipping: host has no VAES/AVX-512");
            return;
        }
        let plain: Vec<u8> = (0..16 * 69).map(|i| (i as u8).wrapping_mul(29) ^ 0x5C).collect();
        for key in [&[0x21u8; 16][..], &[0x5Eu8; 24][..], &[0xA3u8; 32][..]] {
            let ni = keys_for(key);
            // The second start wraps the counter at block 8 and, times 16,
            // the address at block 8 too.
            for start in [0x4_2000u64, u64::MAX - 7] {
                let (mut wide, mut narrow) = (plain.clone(), plain.clone());
                ni.ctr_xor::<true>(0x0123_4567, start, &mut wide);
                ni.ctr_xor::<false>(0x0123_4567, start, &mut narrow);
                assert_eq!(wide, narrow, "CTR, {}-byte key, start {start:#x}", key.len());

                let base = start.wrapping_mul(16);
                let mut enc = vec![0u8; plain.len()];
                ni.xex::<true, true>(base, Some(&plain), &mut enc);
                let mut expect = plain.clone();
                ni.xex::<true, false>(base, None, &mut expect);
                assert_eq!(enc, expect, "XEX encrypt, {}-byte key, base {base:#x}", key.len());
                ni.xex::<false, true>(base, None, &mut enc);
                assert_eq!(enc, plain, "XEX decrypt, {}-byte key, base {base:#x}", key.len());
            }
        }
    }
}
