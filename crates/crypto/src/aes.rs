//! Table-based AES (the simulation's "AES-NI" fast path).
//!
//! This is a constant-table implementation of FIPS-197 supporting 128-,
//! 192- and 256-bit keys. In the Fidelius model it stands in for hardware
//! AES:
//!
//! - the guest front-end driver uses it for `Kblk` disk encryption
//!   ("AES-NI based I/O protection", paper §4.3.5);
//! - the simulated memory-encryption engine
//!   (`fidelius-hw::memctrl`) uses it for the per-ASID `Kvek` / SME key.
//!
//! Because every simulated DRAM access funnels through this cipher, it is
//! the hottest host-wall-clock code in the whole repository. The round
//! function therefore uses the classic four-table ("T-table") formulation:
//! SubBytes, ShiftRows and MixColumns collapse into four 256-entry `u32`
//! lookups per column, all precomputed at compile time by `const fn`s from
//! the same GF(2⁸) math the byte-wise form would evaluate per access.
//! Decryption uses the equivalent inverse cipher with an
//! InvMixColumns-transformed key schedule. The modeled *cycle* cost of
//! encryption is charged by `fidelius-hw::cycles` and is unaffected by any
//! of this — these tables only buy host throughput.
//!
//! The deliberately naive sibling lives in [`crate::aes_soft`].

/// The AES S-box, computed at compile time from the GF(2⁸) inverse plus the
/// FIPS-197 affine transform.
pub const SBOX: [u8; 256] = build_sbox();

/// The inverse AES S-box.
pub const INV_SBOX: [u8; 256] = build_inv_sbox();

/// Encryption T-tables: `TE[j][x]` is the 32-bit column contribution of
/// input byte `x` arriving via ShiftRows lane `j`, with SubBytes and
/// MixColumns folded in (row 0 in the most-significant byte).
const TE: [[u32; 256]; 4] = build_te();

/// Decryption T-tables for the equivalent inverse cipher (InvSubBytes and
/// InvMixColumns folded in).
const TD: [[u32; 256]; 4] = build_td();

const fn build_sbox() -> [u8; 256] {
    // Walk the multiplicative group of GF(2^8) with generator 3: p runs
    // through all non-zero elements while q runs through their inverses.
    let mut sbox = [0u8; 256];
    sbox[0] = 0x63;
    let mut p: u8 = 1;
    let mut q: u8 = 1;
    loop {
        // p := p * 3
        p = p ^ (p << 1) ^ (if p & 0x80 != 0 { 0x1B } else { 0 });
        // q := q / 3
        q ^= q << 1;
        q ^= q << 2;
        q ^= q << 4;
        if q & 0x80 != 0 {
            q ^= 0x09;
        }
        let x = q ^ q.rotate_left(1) ^ q.rotate_left(2) ^ q.rotate_left(3) ^ q.rotate_left(4);
        sbox[p as usize] = x ^ 0x63;
        if p == 1 {
            break;
        }
    }
    sbox
}

const fn build_inv_sbox() -> [u8; 256] {
    let sbox = build_sbox();
    let mut inv = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        inv[sbox[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

const fn build_te() -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    let mut i = 0usize;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        // MixColumns column for a byte entering in row 0: [2s, s, s, 3s].
        let t0 = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        te[0][i] = t0;
        te[1][i] = t0.rotate_right(8);
        te[2][i] = t0.rotate_right(16);
        te[3][i] = t0.rotate_right(24);
        i += 1;
    }
    te
}

const fn build_td() -> [[u32; 256]; 4] {
    let mut td = [[0u32; 256]; 4];
    let mut i = 0usize;
    while i < 256 {
        let s = INV_SBOX[i];
        // InvMixColumns column for a byte entering in row 0:
        // [14s, 9s, 13s, 11s].
        let t0 = ((gmul(s, 14) as u32) << 24)
            | ((gmul(s, 9) as u32) << 16)
            | ((gmul(s, 13) as u32) << 8)
            | (gmul(s, 11) as u32);
        td[0][i] = t0;
        td[1][i] = t0.rotate_right(8);
        td[2][i] = t0.rotate_right(16);
        td[3][i] = t0.rotate_right(24);
        i += 1;
    }
    td
}

/// Multiply by 2 in GF(2⁸) with the AES reduction polynomial.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1B } else { 0 })
}

/// General GF(2⁸) multiplication (used to build the decryption tables and
/// the transformed key schedule).
#[inline]
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    acc
}

const RCON: [u8; 11] = [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36];

/// Blocks processed per iteration of the interleaved round loop.
///
/// Eight independent states is enough to cover the latency of the T-table
/// loads on current cores without spilling so much state that the win
/// evaporates; the batched entry points fall back to the single-block loop
/// for any tail shorter than this.
pub const INTERLEAVE: usize = 8;

/// Bytes covered by one interleaved step.
pub const INTERLEAVE_BYTES: usize = 16 * INTERLEAVE;

/// Loads a 16-byte block into column words and applies the first round key.
#[inline(always)]
fn load_state(block: &[u8], k: &[u32; 4]) -> [u32; 4] {
    [
        u32::from_be_bytes([block[0], block[1], block[2], block[3]]) ^ k[0],
        u32::from_be_bytes([block[4], block[5], block[6], block[7]]) ^ k[1],
        u32::from_be_bytes([block[8], block[9], block[10], block[11]]) ^ k[2],
        u32::from_be_bytes([block[12], block[13], block[14], block[15]]) ^ k[3],
    ]
}

/// Stores column words back into a 16-byte block.
#[inline(always)]
fn store_state(w: &[u32; 4], block: &mut [u8]) {
    for c in 0..4 {
        block[4 * c..4 * c + 4].copy_from_slice(&w[c].to_be_bytes());
    }
}

/// One inner encryption round: four T-table lookups per column.
#[inline(always)]
fn enc_round(w: &[u32; 4], k: &[u32; 4]) -> [u32; 4] {
    [
        TE[0][(w[0] >> 24) as usize]
            ^ TE[1][(w[1] >> 16) as usize & 0xFF]
            ^ TE[2][(w[2] >> 8) as usize & 0xFF]
            ^ TE[3][w[3] as usize & 0xFF]
            ^ k[0],
        TE[0][(w[1] >> 24) as usize]
            ^ TE[1][(w[2] >> 16) as usize & 0xFF]
            ^ TE[2][(w[3] >> 8) as usize & 0xFF]
            ^ TE[3][w[0] as usize & 0xFF]
            ^ k[1],
        TE[0][(w[2] >> 24) as usize]
            ^ TE[1][(w[3] >> 16) as usize & 0xFF]
            ^ TE[2][(w[0] >> 8) as usize & 0xFF]
            ^ TE[3][w[1] as usize & 0xFF]
            ^ k[2],
        TE[0][(w[3] >> 24) as usize]
            ^ TE[1][(w[0] >> 16) as usize & 0xFF]
            ^ TE[2][(w[1] >> 8) as usize & 0xFF]
            ^ TE[3][w[2] as usize & 0xFF]
            ^ k[3],
    ]
}

/// Final encryption round: SubBytes + ShiftRows, no MixColumns.
#[inline(always)]
fn enc_last(w: &[u32; 4], k: &[u32; 4]) -> [u32; 4] {
    let mut out = [0u32; 4];
    for c in 0..4 {
        out[c] = (((SBOX[(w[c] >> 24) as usize] as u32) << 24)
            | ((SBOX[(w[(c + 1) % 4] >> 16) as usize & 0xFF] as u32) << 16)
            | ((SBOX[(w[(c + 2) % 4] >> 8) as usize & 0xFF] as u32) << 8)
            | (SBOX[w[(c + 3) % 4] as usize & 0xFF] as u32))
            ^ k[c];
    }
    out
}

/// One inner decryption round of the equivalent inverse cipher.
#[inline(always)]
fn dec_round(w: &[u32; 4], k: &[u32; 4]) -> [u32; 4] {
    [
        TD[0][(w[0] >> 24) as usize]
            ^ TD[1][(w[3] >> 16) as usize & 0xFF]
            ^ TD[2][(w[2] >> 8) as usize & 0xFF]
            ^ TD[3][w[1] as usize & 0xFF]
            ^ k[0],
        TD[0][(w[1] >> 24) as usize]
            ^ TD[1][(w[0] >> 16) as usize & 0xFF]
            ^ TD[2][(w[3] >> 8) as usize & 0xFF]
            ^ TD[3][w[2] as usize & 0xFF]
            ^ k[1],
        TD[0][(w[2] >> 24) as usize]
            ^ TD[1][(w[1] >> 16) as usize & 0xFF]
            ^ TD[2][(w[0] >> 8) as usize & 0xFF]
            ^ TD[3][w[3] as usize & 0xFF]
            ^ k[2],
        TD[0][(w[3] >> 24) as usize]
            ^ TD[1][(w[2] >> 16) as usize & 0xFF]
            ^ TD[2][(w[1] >> 8) as usize & 0xFF]
            ^ TD[3][w[0] as usize & 0xFF]
            ^ k[3],
    ]
}

/// Final decryption round: InvShiftRows + InvSubBytes.
#[inline(always)]
fn dec_last(w: &[u32; 4], k: &[u32; 4]) -> [u32; 4] {
    let mut out = [0u32; 4];
    for c in 0..4 {
        out[c] = (((INV_SBOX[(w[c] >> 24) as usize] as u32) << 24)
            | ((INV_SBOX[(w[(c + 3) % 4] >> 16) as usize & 0xFF] as u32) << 16)
            | ((INV_SBOX[(w[(c + 2) % 4] >> 8) as usize & 0xFF] as u32) << 8)
            | (INV_SBOX[w[(c + 1) % 4] as usize & 0xFF] as u32))
            ^ k[c];
    }
    out
}

/// One 16-byte round key as four big-endian column words.
#[inline]
fn rk_words(rk: &[u8; 16]) -> [u32; 4] {
    [
        u32::from_be_bytes([rk[0], rk[1], rk[2], rk[3]]),
        u32::from_be_bytes([rk[4], rk[5], rk[6], rk[7]]),
        u32::from_be_bytes([rk[8], rk[9], rk[10], rk[11]]),
        u32::from_be_bytes([rk[12], rk[13], rk[14], rk[15]]),
    ]
}

/// InvMixColumns over a 16-byte round key, for the equivalent inverse
/// cipher's transformed schedule.
fn inv_mix_columns_bytes(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
        state[4 * c + 1] = gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
        state[4 * c + 2] = gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
        state[4 * c + 3] = gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
    }
}

/// Host AES engine behind a [`KeySchedule`].
///
/// The backend is chosen **once at schedule construction** and dispatched
/// by a plain enum match at each batched entry point — zero per-block
/// overhead, no function pointers to defeat inlining. Every backend is
/// pinned bit-identical to the `aes_soft::reference` GF-math oracle, so
/// which one runs is invisible to everything downstream: ciphertext bytes,
/// artifacts and the *modeled* cycle costs (charged by `fidelius-hw::cycles`)
/// are all unchanged. Selection only moves host wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AesBackend {
    /// 8-way interleaved T-table core: the portable default. Fast, but its
    /// table loads are indexed by secret state bytes (a cache-timing
    /// side channel on real silicon — see THREAT_MODEL.md).
    TTable,
    /// Hardware AES instructions via `std::arch::x86_64`. Requires the
    /// `aesni` cargo feature *and* runtime `is_x86_feature_detected!("aes")`.
    AesNi,
}

impl AesBackend {
    /// Every backend variant, in preference order for sweeps.
    pub const ALL: [AesBackend; 2] = [AesBackend::TTable, AesBackend::AesNi];

    /// Stable lowercase name, matching the `FIDELIUS_AES_BACKEND` values.
    pub fn name(self) -> &'static str {
        match self {
            AesBackend::TTable => "ttable",
            AesBackend::AesNi => "aesni",
        }
    }

    /// Parses a `FIDELIUS_AES_BACKEND` value.
    pub fn parse(s: &str) -> Option<AesBackend> {
        match s {
            "ttable" => Some(AesBackend::TTable),
            "aesni" => Some(AesBackend::AesNi),
            _ => None,
        }
    }

    /// Whether this backend can run in this build on this host.
    pub fn available(self) -> bool {
        match self {
            AesBackend::TTable => true,
            #[cfg(all(feature = "aesni", target_arch = "x86_64"))]
            AesBackend::AesNi => crate::aes_ni::available(),
            #[cfg(not(all(feature = "aesni", target_arch = "x86_64")))]
            AesBackend::AesNi => false,
        }
    }
}

/// The backend forced by `FIDELIUS_AES_BACKEND`, if any. Read once and
/// cached; an unknown or unavailable value aborts loudly rather than
/// silently falling back, because a forced backend exists precisely so CI
/// legs test what they claim to test.
fn forced_backend() -> Option<AesBackend> {
    static FORCED: std::sync::OnceLock<Option<AesBackend>> = std::sync::OnceLock::new();
    *FORCED.get_or_init(|| {
        let raw = std::env::var("FIDELIUS_AES_BACKEND").ok()?;
        if raw.is_empty() {
            return None;
        }
        let backend = AesBackend::parse(&raw).unwrap_or_else(|| {
            panic!(
                "FIDELIUS_AES_BACKEND={raw:?} is not a known backend \
                 (expected one of: ttable, aesni)"
            )
        });
        assert!(
            backend.available(),
            "FIDELIUS_AES_BACKEND={} was forced but that backend is unavailable \
             (aesni needs the `aesni` cargo feature and a CPU with AES instructions)",
            backend.name(),
        );
        Some(backend)
    })
}

/// The backend new [`KeySchedule`]s use when none is requested explicitly:
/// the `FIDELIUS_AES_BACKEND` override if set, otherwise AES-NI when it is
/// compiled in and detected, otherwise the portable T-table core.
pub fn default_backend() -> AesBackend {
    if let Some(forced) = forced_backend() {
        return forced;
    }
    if AesBackend::AesNi.available() {
        AesBackend::AesNi
    } else {
        AesBackend::TTable
    }
}

/// Process-wide count of key-schedule expansions, for audit tests.
static KEY_EXPANSIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
/// Process-wide count of [`KeySchedule`] clones, for audit tests.
static SCHEDULE_CLONES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Number of key expansions this process has performed. Steady-state
/// streaming (per-sector CTR, memctrl bursts) must not grow this — the
/// audit test in `tests/key_expansion_audit.rs` pins that.
pub fn key_expansions() -> u64 {
    KEY_EXPANSIONS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Number of [`KeySchedule`] clones this process has performed (cheaper
/// than an expansion but still an allocation — also pinned by the audit
/// test).
pub fn schedule_clones() -> u64 {
    SCHEDULE_CLONES.load(std::sync::atomic::Ordering::Relaxed)
}

/// An expanded AES key schedule for any of the three standard key sizes.
///
/// Prefer the typed wrappers [`Aes128`] and [`Aes256`] in new code; the raw
/// schedule is exposed for the few places (e.g. the memory controller) that
/// select a key size at runtime.
///
/// The key is expanded exactly once; the AES-NI byte keys are derived from
/// that single expansion at construction and shared for the schedule's
/// lifetime.
pub struct KeySchedule {
    /// Encryption round keys as column words.
    enc: Vec<[u32; 4]>,
    /// Equivalent-inverse-cipher round keys (InvMixColumns applied to the
    /// inner rounds), indexed like `enc`.
    dec: Vec<[u32; 4]>,
    rounds: usize,
    /// Engine chosen at construction; dispatched per batch, never per block.
    backend: AesBackend,
    /// Byte-form round keys for the AES instructions, present iff
    /// `backend == AesNi`.
    #[cfg(all(feature = "aesni", target_arch = "x86_64"))]
    ni: Option<crate::aes_ni::NiKeys>,
}

impl Clone for KeySchedule {
    fn clone(&self) -> Self {
        SCHEDULE_CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        KeySchedule {
            enc: self.enc.clone(),
            dec: self.dec.clone(),
            rounds: self.rounds,
            backend: self.backend,
            #[cfg(all(feature = "aesni", target_arch = "x86_64"))]
            ni: self.ni.clone(),
        }
    }
}

impl std::fmt::Debug for KeySchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("KeySchedule").field("rounds", &self.rounds).finish()
    }
}

impl KeySchedule {
    /// Expands `key` (16, 24 or 32 bytes) into round keys, using the
    /// process [`default_backend`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::CryptoError::InvalidKeyLength`] for any other length.
    pub fn new(key: &[u8]) -> Result<Self, crate::CryptoError> {
        // `default_backend` only ever returns an available backend, so this
        // cannot fail with `BackendUnavailable`.
        Self::with_backend(key, default_backend())
    }

    /// Expands `key` and pins the schedule to an explicit `backend`.
    ///
    /// The expansion runs once; the AES-NI byte keys are derived from it
    /// rather than re-expanding.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CryptoError::InvalidKeyLength`] for a bad key
    /// length, or [`crate::CryptoError::BackendUnavailable`] if `backend`
    /// cannot run in this build on this host.
    pub fn with_backend(key: &[u8], backend: AesBackend) -> Result<Self, crate::CryptoError> {
        if !backend.available() {
            return Err(crate::CryptoError::BackendUnavailable { backend: backend.name() });
        }
        let mut ks = Self::expand(key)?;
        ks.backend = backend;
        #[cfg(all(feature = "aesni", target_arch = "x86_64"))]
        if backend == AesBackend::AesNi {
            ks.ni = Some(crate::aes_ni::NiKeys::from_words(ks.enc_words(), ks.dec_words()));
        }
        Ok(ks)
    }

    /// The raw key expansion: the only place round keys are computed.
    fn expand(key: &[u8]) -> Result<Self, crate::CryptoError> {
        let (nk, rounds) = match key.len() {
            16 => (4usize, 10usize),
            24 => (6, 12),
            32 => (8, 14),
            other => return Err(crate::CryptoError::InvalidKeyLength { got: other, expected: 16 }),
        };
        let nwords = 4 * (rounds + 1);
        let mut w = vec![[0u8; 4]; nwords];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in nk..nwords {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / nk];
            } else if nk > 6 && i % nk == 4 {
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }
        let mut enc = Vec::with_capacity(rounds + 1);
        let mut dec = Vec::with_capacity(rounds + 1);
        for r in 0..=rounds {
            let mut rk = [0u8; 16];
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
            enc.push(rk_words(&rk));
            if r > 0 && r < rounds {
                inv_mix_columns_bytes(&mut rk);
            }
            dec.push(rk_words(&rk));
        }
        KEY_EXPANSIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(KeySchedule {
            enc,
            dec,
            rounds,
            backend: AesBackend::TTable,
            #[cfg(all(feature = "aesni", target_arch = "x86_64"))]
            ni: None,
        })
    }

    /// Number of AES rounds for this key size (10, 12 or 14).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The host engine this schedule was pinned to at construction.
    pub fn backend(&self) -> AesBackend {
        self.backend
    }

    /// The expanded encryption round keys as big-endian column words.
    #[cfg(all(feature = "aesni", target_arch = "x86_64"))]
    pub(crate) fn enc_words(&self) -> &[[u32; 4]] {
        &self.enc
    }

    /// The equivalent-inverse-cipher round keys as big-endian column words.
    #[cfg(all(feature = "aesni", target_arch = "x86_64"))]
    pub(crate) fn dec_words(&self) -> &[[u32; 4]] {
        &self.dec
    }

    /// The fused AES-NI mode kernels, present iff this schedule was pinned
    /// to [`AesBackend::AesNi`]. The modes dispatch on this once per call.
    #[cfg(all(feature = "aesni", target_arch = "x86_64"))]
    #[inline]
    pub(crate) fn fused(&self) -> Option<&crate::aes_ni::NiKeys> {
        self.ni.as_ref()
    }

    /// Encrypts one 16-byte block in place on the schedule's backend.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        match self.backend {
            AesBackend::TTable => self.ttable_encrypt_block(block),
            AesBackend::AesNi => self.encrypt_batch_dispatch(block.as_mut_slice()),
        }
    }

    /// Decrypts one 16-byte block in place (backend-dispatched like
    /// [`KeySchedule::encrypt_block`]).
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        match self.backend {
            AesBackend::TTable => self.ttable_decrypt_block(block),
            AesBackend::AesNi => self.decrypt_batch_dispatch(block.as_mut_slice()),
        }
    }

    /// The single-block T-table path.
    #[inline]
    fn ttable_encrypt_block(&self, block: &mut [u8; 16]) {
        let mut w = load_state(block, &self.enc[0]);
        for r in 1..self.rounds {
            w = enc_round(&w, &self.enc[r]);
        }
        w = enc_last(&w, &self.enc[self.rounds]);
        store_state(&w, block);
    }

    /// The single-block equivalent-inverse-cipher T-table path.
    #[inline]
    fn ttable_decrypt_block(&self, block: &mut [u8; 16]) {
        let mut w = load_state(block, &self.dec[self.rounds]);
        for r in (1..self.rounds).rev() {
            w = dec_round(&w, &self.dec[r]);
        }
        // Final round key 0 is untransformed.
        w = dec_last(&w, &self.dec[0]);
        store_state(&w, block);
    }

    /// Encrypts [`INTERLEAVE`] consecutive blocks with the round loop
    /// interleaved across all eight states: each round applies the T-table
    /// step to every block before advancing, so the eight independent
    /// dependency chains cover the table-load latency that serializes the
    /// single-block path. Produces exactly the bytes eight
    /// [`KeySchedule::encrypt_block`] calls would.
    #[inline]
    fn encrypt8(&self, blocks: &mut [u8; INTERLEAVE_BYTES]) {
        let k0 = &self.enc[0];
        let mut s = [[0u32; 4]; INTERLEAVE];
        for (b, st) in s.iter_mut().enumerate() {
            *st = load_state(&blocks[16 * b..16 * b + 16], k0);
        }
        for r in 1..self.rounds {
            let k = &self.enc[r];
            for st in s.iter_mut() {
                *st = enc_round(st, k);
            }
        }
        let k = &self.enc[self.rounds];
        for (b, st) in s.iter().enumerate() {
            let w = enc_last(st, k);
            store_state(&w, &mut blocks[16 * b..16 * b + 16]);
        }
    }

    /// Decrypts [`INTERLEAVE`] consecutive blocks, interleaved like
    /// [`KeySchedule::encrypt8`].
    #[inline]
    fn decrypt8(&self, blocks: &mut [u8; INTERLEAVE_BYTES]) {
        let kn = &self.dec[self.rounds];
        let mut s = [[0u32; 4]; INTERLEAVE];
        for (b, st) in s.iter_mut().enumerate() {
            *st = load_state(&blocks[16 * b..16 * b + 16], kn);
        }
        for r in (1..self.rounds).rev() {
            let k = &self.dec[r];
            for st in s.iter_mut() {
                *st = dec_round(st, k);
            }
        }
        let k = &self.dec[0];
        for (b, st) in s.iter().enumerate() {
            let w = dec_last(st, k);
            store_state(&w, &mut blocks[16 * b..16 * b + 16]);
        }
    }

    /// Encrypts a run of consecutive 16-byte blocks in place (ECB over the
    /// slice) — the batched entry point the streaming memory-controller and
    /// mode implementations use to avoid per-block dispatch. Runs of
    /// [`INTERLEAVE`] blocks go through the interleaved round loop; the tail
    /// falls back to the single-block path.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len()` is not a multiple of 16.
    pub fn encrypt_blocks(&self, blocks: &mut [u8]) {
        assert_eq!(blocks.len() % 16, 0, "encrypt_blocks needs whole 16-byte blocks");
        self.encrypt_batch_dispatch(blocks);
    }

    /// Decrypts a run of consecutive 16-byte blocks in place.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len()` is not a multiple of 16.
    pub fn decrypt_blocks(&self, blocks: &mut [u8]) {
        assert_eq!(blocks.len() % 16, 0, "decrypt_blocks needs whole 16-byte blocks");
        self.decrypt_batch_dispatch(blocks);
    }

    /// Backend dispatch for a whole-block run (callers guarantee `% 16`).
    /// One match per batch, not per block.
    #[inline]
    fn encrypt_batch_dispatch(&self, blocks: &mut [u8]) {
        match self.backend {
            AesBackend::TTable => {
                let mut wide = blocks.chunks_exact_mut(INTERLEAVE_BYTES);
                for chunk in &mut wide {
                    self.encrypt8(chunk.try_into().expect("chunk is INTERLEAVE_BYTES"));
                }
                for chunk in wide.into_remainder().chunks_exact_mut(16) {
                    let block: &mut [u8; 16] = chunk.try_into().expect("chunk is 16 bytes");
                    self.ttable_encrypt_block(block);
                }
            }
            AesBackend::AesNi => {
                #[cfg(all(feature = "aesni", target_arch = "x86_64"))]
                self.ni.as_ref().expect("aesni keys built at construction").encrypt_blocks(blocks);
                #[cfg(not(all(feature = "aesni", target_arch = "x86_64")))]
                unreachable!("AesNi schedules cannot be constructed without the aesni feature");
            }
        }
    }

    /// Backend dispatch for whole-block decryption (callers guarantee `% 16`).
    #[inline]
    fn decrypt_batch_dispatch(&self, blocks: &mut [u8]) {
        match self.backend {
            AesBackend::TTable => {
                let mut wide = blocks.chunks_exact_mut(INTERLEAVE_BYTES);
                for chunk in &mut wide {
                    self.decrypt8(chunk.try_into().expect("chunk is INTERLEAVE_BYTES"));
                }
                for chunk in wide.into_remainder().chunks_exact_mut(16) {
                    let block: &mut [u8; 16] = chunk.try_into().expect("chunk is 16 bytes");
                    self.ttable_decrypt_block(block);
                }
            }
            AesBackend::AesNi => {
                #[cfg(all(feature = "aesni", target_arch = "x86_64"))]
                self.ni.as_ref().expect("aesni keys built at construction").decrypt_blocks(blocks);
                #[cfg(not(all(feature = "aesni", target_arch = "x86_64")))]
                unreachable!("AesNi schedules cannot be constructed without the aesni feature");
            }
        }
    }

    /// XORs `data` with the keystream obtained by encrypting
    /// `counter_block(i)` for each 16-byte chunk `i` (the final chunk may be
    /// short). This is the shared engine behind [`crate::modes::Ctr128`] and
    /// [`crate::modes::SectorCipher`].
    ///
    /// The keystream is generated [`INTERLEAVE`] counter blocks at a time
    /// into a stack scratch and encrypted through the schedule's backend
    /// (interleaved T-tables or AES instructions); whole-
    /// block tails use the single-block path and the final short chunk XORs
    /// from one stack keystream block sliced to `chunk.len()` — no per-byte
    /// length branching.
    pub fn xor_keystream(&self, mut counter_block: impl FnMut(u64) -> [u8; 16], data: &mut [u8]) {
        let mut idx = 0u64;
        let mut scratch = [0u8; INTERLEAVE_BYTES];
        let mut wide = data.chunks_exact_mut(INTERLEAVE_BYTES);
        for chunk in &mut wide {
            for (j, ks) in scratch.chunks_exact_mut(16).enumerate() {
                ks.copy_from_slice(&counter_block(idx + j as u64));
            }
            idx += INTERLEAVE as u64;
            self.encrypt_batch_dispatch(&mut scratch);
            for (d, k) in chunk.iter_mut().zip(scratch.iter()) {
                *d ^= *k;
            }
        }
        for chunk in wide.into_remainder().chunks_mut(16) {
            let mut ks = counter_block(idx);
            idx += 1;
            self.encrypt_block(&mut ks);
            let ks = &ks[..chunk.len()];
            for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                *d ^= *k;
            }
        }
    }
}

macro_rules! aes_variant {
    ($name:ident, $bytes:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone)]
        pub struct $name {
            schedule: KeySchedule,
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name)).finish_non_exhaustive()
            }
        }

        impl $name {
            /// Expands the key with the process [`default_backend`]. The
            /// key length is enforced by the type.
            pub fn new(key: &[u8; $bytes]) -> Self {
                let schedule = KeySchedule::new(key).expect("key length enforced by type");
                $name { schedule }
            }

            /// Expands the key pinned to an explicit host engine.
            ///
            /// # Errors
            ///
            /// Returns [`crate::CryptoError::BackendUnavailable`] if
            /// `backend` cannot run in this build on this host.
            pub fn with_backend(
                key: &[u8; $bytes],
                backend: AesBackend,
            ) -> Result<Self, crate::CryptoError> {
                Ok($name { schedule: KeySchedule::with_backend(key, backend)? })
            }

            /// The host engine this cipher was pinned to at construction.
            pub fn backend(&self) -> AesBackend {
                self.schedule.backend()
            }

            /// Encrypts one 16-byte block in place.
            pub fn encrypt_block(&self, block: &mut [u8; 16]) {
                self.schedule.encrypt_block(block);
            }

            /// Decrypts one 16-byte block in place.
            pub fn decrypt_block(&self, block: &mut [u8; 16]) {
                self.schedule.decrypt_block(block);
            }

            /// Encrypts consecutive 16-byte blocks in place (batched).
            ///
            /// # Panics
            ///
            /// Panics if the length is not a multiple of 16.
            pub fn encrypt_blocks(&self, blocks: &mut [u8]) {
                self.schedule.encrypt_blocks(blocks);
            }

            /// Decrypts consecutive 16-byte blocks in place (batched).
            ///
            /// # Panics
            ///
            /// Panics if the length is not a multiple of 16.
            pub fn decrypt_blocks(&self, blocks: &mut [u8]) {
                self.schedule.decrypt_blocks(blocks);
            }

            /// Borrows the underlying schedule (for mode implementations).
            pub fn schedule(&self) -> &KeySchedule {
                &self.schedule
            }
        }
    };
}

aes_variant!(Aes128, 16, "AES with a 128-bit key.");
aes_variant!(Aes192, 24, "AES with a 192-bit key.");
aes_variant!(Aes256, 32, "AES with a 256-bit key.");

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn sbox_known_values() {
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        assert_eq!(INV_SBOX[0x63], 0x00);
        assert_eq!(INV_SBOX[0xed], 0x53);
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &b in SBOX.iter() {
            assert!(!seen[b as usize]);
            seen[b as usize] = true;
        }
        for (i, &b) in SBOX.iter().enumerate() {
            assert_eq!(INV_SBOX[b as usize] as usize, i);
        }
    }

    #[test]
    fn t_tables_match_their_definition() {
        for x in 0..256usize {
            let s = SBOX[x];
            let expect = ((gmul(s, 2) as u32) << 24)
                | ((s as u32) << 16)
                | ((s as u32) << 8)
                | (gmul(s, 3) as u32);
            assert_eq!(TE[0][x], expect, "TE0 mismatch at {x:#x}");
            assert_eq!(TE[1][x], expect.rotate_right(8));
            let si = INV_SBOX[x];
            let expect_d = ((gmul(si, 14) as u32) << 24)
                | ((gmul(si, 9) as u32) << 16)
                | ((gmul(si, 13) as u32) << 8)
                | (gmul(si, 11) as u32);
            assert_eq!(TD[0][x], expect_d, "TD0 mismatch at {x:#x}");
            assert_eq!(TD[3][x], expect_d.rotate_right(24));
        }
    }

    // FIPS-197 Appendix C known-answer tests.
    #[test]
    fn fips197_aes128() {
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let cipher = Aes128::new(&key);
        cipher.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        cipher.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn fips197_aes192() {
        let key: [u8; 24] =
            hex("000102030405060708090a0b0c0d0e0f1011121314151617").try_into().unwrap();
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let cipher = Aes192::new(&key);
        cipher.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("dda97ca4864cdfe06eaf70a0ec0d7191"));
        cipher.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn fips197_aes256() {
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let cipher = Aes256::new(&key);
        cipher.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("8ea2b7ca516745bfeafc49904b496089"));
        cipher.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn default_backend_is_always_available() {
        assert!(default_backend().available());
    }

    #[test]
    fn backend_names_round_trip_through_parse() {
        for b in AesBackend::ALL {
            assert_eq!(AesBackend::parse(b.name()), Some(b));
        }
        assert_eq!(AesBackend::parse("quantum"), None);
    }

    #[test]
    fn unavailable_backend_is_a_typed_error() {
        if AesBackend::AesNi.available() {
            assert!(KeySchedule::with_backend(&[0u8; 16], AesBackend::AesNi).is_ok());
        } else {
            assert!(matches!(
                KeySchedule::with_backend(&[0u8; 16], AesBackend::AesNi),
                Err(crate::CryptoError::BackendUnavailable { backend: "aesni" })
            ));
        }
    }

    #[test]
    fn every_available_backend_passes_fips197_and_agrees() {
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let plain: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let want = hex("69c4e0d86a7b0430d8cdb78070b4c55a");
        for backend in AesBackend::ALL.into_iter().filter(|b| b.available()) {
            let ks = KeySchedule::with_backend(&key, backend).unwrap();
            assert_eq!(ks.backend(), backend);
            let mut block = plain;
            ks.encrypt_block(&mut block);
            assert_eq!(block.to_vec(), want, "KAT failed on {}", backend.name());
            ks.decrypt_block(&mut block);
            assert_eq!(block, plain, "inverse KAT failed on {}", backend.name());
        }
    }

    #[test]
    fn backends_agree_on_batches_and_keystream() {
        let key = [0xB7u8; 16];
        let reference = KeySchedule::with_backend(&key, AesBackend::TTable).unwrap();
        let block_fn = |i: u64| {
            let mut b = [0u8; 16];
            b[..8].copy_from_slice(&i.to_le_bytes());
            b
        };
        for backend in AesBackend::ALL.into_iter().filter(|b| b.available()) {
            let ks = KeySchedule::with_backend(&key, backend).unwrap();
            let mut batch: Vec<u8> = (0..16 * 13).map(|i| (i as u8).wrapping_mul(29)).collect();
            let mut expect = batch.clone();
            ks.encrypt_blocks(&mut batch);
            reference.encrypt_blocks(&mut expect);
            assert_eq!(batch, expect, "encrypt_blocks diverged on {}", backend.name());
            ks.decrypt_blocks(&mut batch);
            reference.decrypt_blocks(&mut expect);
            assert_eq!(batch, expect, "decrypt_blocks diverged on {}", backend.name());

            let mut stream = vec![0x3Du8; 137]; // not block aligned
            let mut expect = stream.clone();
            ks.xor_keystream(block_fn, &mut stream);
            reference.xor_keystream(block_fn, &mut expect);
            assert_eq!(stream, expect, "xor_keystream diverged on {}", backend.name());
        }
    }

    #[test]
    fn only_two_backends_parse() {
        assert_eq!(AesBackend::ALL.len(), 2);
        // A stale `FIDELIUS_AES_BACKEND` naming a removed engine must not
        // parse, so forcing it panics instead of falling back.
        assert_eq!(AesBackend::parse("bitsliced"), None);
    }

    #[test]
    fn typed_variants_expose_backend_pinning() {
        let reference = Aes256::with_backend(&[0x11u8; 32], AesBackend::TTable).unwrap();
        for backend in AesBackend::ALL.into_iter().filter(|b| b.available()) {
            let cipher = Aes256::with_backend(&[0x11u8; 32], backend).unwrap();
            assert_eq!(cipher.backend(), backend);
            let mut block = [0xA5u8; 16];
            let mut expect = block;
            cipher.encrypt_block(&mut block);
            reference.encrypt_block(&mut expect);
            assert_eq!(block, expect, "{} diverged from ttable", backend.name());
        }
    }

    #[test]
    fn schedule_rejects_bad_key_length() {
        assert!(matches!(
            KeySchedule::new(&[0u8; 15]),
            Err(crate::CryptoError::InvalidKeyLength { got: 15, .. })
        ));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let ks = KeySchedule::new(&[0x42u8; 16]).unwrap();
        let s = format!("{ks:?}");
        assert!(!s.contains("42"), "debug output leaked key bytes: {s}");
    }

    #[test]
    fn encrypt_then_decrypt_roundtrips_many_keys() {
        for seed in 0u8..32 {
            let key = [seed.wrapping_mul(37); 16];
            let cipher = Aes128::new(&key);
            let mut block = [seed; 16];
            let original = block;
            cipher.encrypt_block(&mut block);
            assert_ne!(block, original, "encryption must change the block");
            cipher.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
    }

    #[test]
    fn roundtrips_all_key_sizes() {
        for seed in 0u8..8 {
            let plain = [seed.wrapping_mul(0x1D); 16];
            let mut b = plain;
            let c192 = Aes192::new(&[seed.wrapping_add(5); 24]);
            c192.encrypt_block(&mut b);
            c192.decrypt_block(&mut b);
            assert_eq!(b, plain);
            let c256 = Aes256::new(&[seed.wrapping_add(9); 32]);
            c256.encrypt_block(&mut b);
            c256.decrypt_block(&mut b);
            assert_eq!(b, plain);
        }
    }

    #[test]
    fn encrypt_blocks_matches_per_block_calls() {
        let cipher = Aes128::new(&[0x5Au8; 16]);
        let mut batch = vec![0u8; 16 * 9];
        for (i, b) in batch.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31);
        }
        let mut single = batch.clone();
        cipher.encrypt_blocks(&mut batch);
        for chunk in single.chunks_exact_mut(16) {
            let block: &mut [u8; 16] = chunk.try_into().unwrap();
            cipher.encrypt_block(block);
        }
        assert_eq!(batch, single);
        cipher.decrypt_blocks(&mut batch);
        for (i, b) in batch.iter().enumerate() {
            assert_eq!(*b, (i as u8).wrapping_mul(31));
        }
    }

    #[test]
    #[should_panic(expected = "whole 16-byte blocks")]
    fn encrypt_blocks_rejects_partial_block() {
        Aes128::new(&[0u8; 16]).encrypt_blocks(&mut [0u8; 17]);
    }

    #[test]
    fn xor_keystream_is_an_involution_and_matches_manual_ctr() {
        let cipher = Aes128::new(&[0x77u8; 16]);
        let mut data = vec![0xC4u8; 100]; // deliberately not block-aligned
        let original = data.clone();
        let block_fn = |i: u64| {
            let mut b = [0u8; 16];
            b[8..].copy_from_slice(&i.to_be_bytes());
            b
        };
        cipher.schedule().xor_keystream(block_fn, &mut data);
        assert_ne!(data, original);
        // Manual per-block CTR must agree.
        let mut manual = original.clone();
        for (i, chunk) in manual.chunks_mut(16).enumerate() {
            let mut ks = block_fn(i as u64);
            cipher.encrypt_block(&mut ks);
            for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                *d ^= *k;
            }
        }
        assert_eq!(data, manual);
        cipher.schedule().xor_keystream(block_fn, &mut data);
        assert_eq!(data, original);
    }
}
