//! Hardware SHA-256 via `std::arch::x86_64` — the SHA-NI compress path
//! behind [`crate::sha256::Sha256`].
//!
//! Compiled only with the `aesni` cargo feature on x86-64, and used only
//! after runtime detection of `sha`, `ssse3` and `sse4.1` (cached once per
//! process). `SHA256RNDS2` runs two rounds per instruction on the state
//! held as the `ABEF`/`CDGH` register pair the instruction expects, and
//! `SHA256MSG1`/`SHA256MSG2` extend the message schedule four words at a
//! time. The result is the same FIPS 180-4 compression the portable core
//! computes; `tests/sha256_dispatch_oracle.rs` pins the two paths equal.
//!
//! Besides `aes_ni`, this is the only module in the crate allowed to use
//! `unsafe`: the intrinsics require it, and the one entry point checks
//! the CPU features before calling them.

use crate::sha256::K;
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};
use std::sync::OnceLock;

/// Whether the host CPU exposes the SHA extensions and the SSE levels the
/// compress loop uses. Detected once and cached for the process.
pub(crate) fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    })
}

/// Compresses every whole 64-byte block of `blocks` into `state`.
///
/// # Panics
///
/// Panics when the host lacks the instructions; callers check
/// [`available`] first.
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    assert!(available(), "SHA-NI compress called on a host without SHA extensions");
    // SAFETY: the assertion above proves `sha`, `ssse3` and `sse4.1` are
    // present, which is everything `compress_impl` is compiled for.
    #[allow(unsafe_code)]
    unsafe {
        compress_impl(state, blocks)
    }
}

/// Rounds `4·group .. 4·group + 4`: adds the round constants to the four
/// message words in `w`, then two `SHA256RNDS2` steps of two rounds each.
///
/// # Safety
///
/// Caller must ensure the `sha` target feature is present at runtime.
#[allow(unsafe_code)]
#[inline]
#[target_feature(enable = "sha,sse2")]
unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
    // The bounds-checked 4-word slice is exactly the 16 bytes loaded.
    let k: &[u32; 4] = K[4 * group..4 * group + 4].try_into().expect("4 round constants");
    let wk = _mm_add_epi32(w, _mm_loadu_si128(k.as_ptr().cast()));
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// The block loop over the instruction-ordered state.
///
/// # Safety
///
/// Caller must ensure the `sha`, `ssse3` and `sse4.1` target features are
/// present at runtime.
#[allow(unsafe_code)]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_impl(state: &mut [u32; 8], blocks: &[u8]) {
    // Per-word byte swap: the message is big-endian, lanes little-endian.
    let bswap = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);
    let s = state.as_mut_ptr().cast::<__m128i>();
    // {a,b,c,d} / {e,f,g,h} in lane order → the ABEF / CDGH pair.
    let cdab = _mm_shuffle_epi32(_mm_loadu_si128(s), 0xB1);
    let efgh = _mm_shuffle_epi32(_mm_loadu_si128(s.add(1)), 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr().cast::<__m128i>();
        // The message schedule as a sliding window of four 4-word groups.
        let mut w = [
            _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
        ];
        for (group, &wg) in w.iter().enumerate() {
            rounds4(&mut abef, &mut cdgh, wg, group);
        }
        for group in 4..16 {
            // W[t..t+4] from W[t-16..t]: the σ0 terms via MSG1, the
            // W[t-7] terms via the 4-byte splice, the σ1 terms via MSG2.
            let [w0, w1, w2, w3] = w;
            let next = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
                w3,
            );
            w = [w1, w2, w3, next];
            rounds4(&mut abef, &mut cdgh, next, group);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(s, _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(s.add(1), _mm_alignr_epi8(dchg, feba, 8));
}
