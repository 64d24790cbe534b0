//! Block-cipher modes of operation used across the simulated platform.
//!
//! - [`Ctr128`] — counter mode for bulk transport encryption (SEV SEND /
//!   RECEIVE snapshots).
//! - [`SectorCipher`] — a tweaked, sector-granular mode for the guest disk
//!   image encrypted under `Kblk` (paper §4.3.2/§4.3.5: "it will batch the
//!   I/O write requests and process in sector granularity").
//! - [`PaTweakCipher`] — the physical-address-tweaked block encryption
//!   performed by the AMD memory-encryption engine. AMD's SME/SEV XORs a
//!   physical-address-derived tweak around AES so that identical plaintext
//!   at different physical addresses yields different ciphertext, and
//!   ciphertext *moved* between addresses decrypts to garbage — but
//!   ciphertext *replayed in place* decrypts fine, which is exactly the
//!   replay weakness the paper's §2.2 describes and Fidelius closes.
//!
//! Each mode makes one backend dispatch per call. On AES-NI schedules a
//! whole buffer goes through one fused kernel (`aes_ni`: CTR or XEX with
//! the round keys loaded once and counters or tweaks built in registers).
//! The T-table and bitsliced schedules run the portable loops over
//! [`crate::aes::KeySchedule::xor_keystream`] and the batched
//! `encrypt_blocks`/`decrypt_blocks` entry points; they are the fallback
//! and the oracle the fused kernels are tested against.

use crate::aes::{Aes128, AesBackend};
use crate::CryptoError;

/// XORs `data` with the CTR keystream whose block `i` encrypts
/// `hi ‖ lo` for `(hi, lo) = block(i)`, both halves big-endian; the final
/// chunk may be short.
fn ctr64(cipher: &Aes128, block: impl Fn(u64) -> (u64, u64), data: &mut [u8]) {
    #[cfg(all(feature = "aesni", target_arch = "x86_64"))]
    if let Some(ni) = cipher.schedule().fused() {
        return ni.ctr_xor(block, data);
    }
    cipher.schedule().xor_keystream(
        |i| {
            let (hi, lo) = block(i);
            let mut ks = [0u8; 16];
            ks[..8].copy_from_slice(&hi.to_be_bytes());
            ks[8..].copy_from_slice(&lo.to_be_bytes());
            ks
        },
        data,
    );
}

/// AES-128 counter mode.
#[derive(Debug, Clone)]
pub struct Ctr128 {
    cipher: Aes128,
    nonce: u64,
}

impl Ctr128 {
    /// Creates a CTR context with a 64-bit nonce occupying the high half of
    /// the counter block.
    pub fn new(key: &[u8; 16], nonce: u64) -> Self {
        Ctr128 { cipher: Aes128::new(key), nonce }
    }

    /// Encrypts or decrypts `data` starting at block offset `block_offset`.
    /// CTR is an involution, so the same call performs both directions.
    pub fn apply(&self, block_offset: u64, data: &mut [u8]) {
        Self::apply_with(&self.cipher, self.nonce, block_offset, data);
    }

    /// The keystream application behind [`Ctr128::apply`], borrowing the
    /// expanded cipher instead of owning it. Callers that derive a fresh
    /// nonce per 512-byte sector from one shared key (the SEV I/O
    /// transform) would otherwise clone the whole key schedule — two heap
    /// allocations — per sector; this is the same keystream with no
    /// context constructed at all. The 64-bit counter wraps like
    /// `u64::wrapping_add`.
    pub fn apply_with(cipher: &Aes128, nonce: u64, block_offset: u64, data: &mut [u8]) {
        ctr64(cipher, |i| (nonce, block_offset.wrapping_add(i)), data);
    }
}

/// Disk-sector encryption under `Kblk`.
///
/// Each 512-byte sector is encrypted in CTR mode keyed by the sector number,
/// so sectors can be read and written independently — the property the PV
/// block front-end needs.
#[derive(Debug, Clone)]
pub struct SectorCipher {
    cipher: Aes128,
}

/// Size of one disk sector in bytes.
pub const SECTOR_SIZE: usize = 512;

/// CTR blocks per sector.
const SECTOR_BLOCKS: u64 = (SECTOR_SIZE / 16) as u64;

impl SectorCipher {
    /// Creates a sector cipher from the disk key `Kblk`.
    pub fn new(kblk: &[u8; 16]) -> Self {
        SectorCipher { cipher: Aes128::new(kblk) }
    }

    /// Creates a sector cipher pinned to an explicit host AES engine (for
    /// the backend oracle tests).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BackendUnavailable`] if `backend` cannot run
    /// in this build on this host.
    #[doc(hidden)]
    pub fn with_backend(kblk: &[u8; 16], backend: AesBackend) -> Result<Self, CryptoError> {
        Ok(SectorCipher { cipher: Aes128::with_backend(kblk, backend)? })
    }

    /// Encrypts one sector in place.
    ///
    /// # Panics
    ///
    /// Panics if `sector.len() != SECTOR_SIZE`.
    pub fn encrypt_sector(&self, sector_no: u64, sector: &mut [u8]) {
        self.apply(sector_no, sector);
    }

    /// Decrypts one sector in place (same keystream as encryption).
    ///
    /// # Panics
    ///
    /// Panics if `sector.len() != SECTOR_SIZE`.
    pub fn decrypt_sector(&self, sector_no: u64, sector: &mut [u8]) {
        self.apply(sector_no, sector);
    }

    /// Encrypts a run of consecutive sectors in place, sector `i` of the
    /// buffer being sector number `first_sector + i` on disk. Byte-identical
    /// to calling [`SectorCipher::encrypt_sector`] per 512-byte chunk; the
    /// batch entry point exists so a whole ring drain is one dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a whole number of sectors.
    pub fn encrypt_sectors(&self, first_sector: u64, data: &mut [u8]) {
        self.apply_sectors(first_sector, data);
    }

    /// Decrypts a run of consecutive sectors in place (same keystream as
    /// encryption); see [`SectorCipher::encrypt_sectors`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a whole number of sectors.
    pub fn decrypt_sectors(&self, first_sector: u64, data: &mut [u8]) {
        self.apply_sectors(first_sector, data);
    }

    /// The whole run in one keystream pass: block `i` of the run is block
    /// `i mod 32` of sector `first_sector + i / 32`.
    fn apply_sectors(&self, first_sector: u64, data: &mut [u8]) {
        assert_eq!(data.len() % SECTOR_SIZE, 0, "run must be whole sectors");
        ctr64(
            &self.cipher,
            |i| (first_sector.wrapping_add(i / SECTOR_BLOCKS), i % SECTOR_BLOCKS),
            data,
        );
    }

    fn apply(&self, sector_no: u64, sector: &mut [u8]) {
        assert_eq!(sector.len(), SECTOR_SIZE, "sector must be {SECTOR_SIZE} bytes");
        ctr64(&self.cipher, |i| (sector_no, i), sector);
    }
}

/// Physical-address-tweaked AES, the memory-encryption engine's block mode.
#[derive(Debug, Clone)]
pub struct PaTweakCipher {
    cipher: Aes128,
}

impl PaTweakCipher {
    /// Creates the engine cipher for one key (`Kvek` of an ASID, or the SME
    /// host key).
    pub fn new(key: &[u8; 16]) -> Self {
        PaTweakCipher { cipher: Aes128::new(key) }
    }

    /// Creates the engine cipher pinned to an explicit host AES engine
    /// (for the backend oracle tests).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BackendUnavailable`] if `backend` cannot run
    /// in this build on this host.
    #[doc(hidden)]
    pub fn with_backend(key: &[u8; 16], backend: AesBackend) -> Result<Self, CryptoError> {
        Ok(PaTweakCipher { cipher: Aes128::with_backend(key, backend)? })
    }

    /// The two 64-bit halves of the tweak for physical address `pa`.
    ///
    /// A simple public diffusion of the physical block address; the real
    /// engine uses an undocumented tweak function with the same contract.
    #[inline]
    fn tweak_halves(pa: u64) -> (u64, u64) {
        let x = pa ^ pa.rotate_left(23) ^ 0x9E37_79B9_7F4A_7C15;
        (x, (!x).rotate_left(17))
    }

    #[inline]
    fn xor_tweak(pa: u64, block: &mut [u8; 16]) {
        let (lo, hi) = Self::tweak_halves(pa);
        let a = u64::from_le_bytes(block[..8].try_into().expect("8 bytes")) ^ lo;
        let b = u64::from_le_bytes(block[8..].try_into().expect("8 bytes")) ^ hi;
        block[..8].copy_from_slice(&a.to_le_bytes());
        block[8..].copy_from_slice(&b.to_le_bytes());
    }

    /// The 16-byte tweak mask `T(pa)` for physical address `pa`.
    ///
    /// The tweak is **keyless**: it depends only on the physical address.
    /// SEVurity (Wilke et al., 2020) showed the same holds for the first
    /// SEV generations — the tweak constants were recoverable from a
    /// single known plaintext/ciphertext pair — which turns the XEX
    /// construction move-malleable. With the same tweak applied before and
    /// after AES, placing `C ⊕ T(pa_src) ⊕ T(pa_dst)` at `pa_dst` decrypts
    /// to `P ⊕ T(pa_src) ⊕ T(pa_dst)`: an attacker who knows one plaintext
    /// block can inject *chosen* 16-byte plaintext anywhere. The
    /// `sevurity-tweak-inject` attack scenario exploits exactly this;
    /// exposing the mask here is the honest model of a public tweak.
    pub fn tweak_mask(pa: u64) -> [u8; 16] {
        let (lo, hi) = Self::tweak_halves(pa);
        let mut mask = [0u8; 16];
        mask[..8].copy_from_slice(&lo.to_le_bytes());
        mask[8..].copy_from_slice(&hi.to_le_bytes());
        mask
    }

    /// Encrypts one 16-byte block located at physical address `pa`.
    pub fn encrypt_block(&self, pa: u64, block: &mut [u8; 16]) {
        Self::xor_tweak(pa, block);
        self.cipher.encrypt_block(block);
        Self::xor_tweak(pa, block);
    }

    /// Decrypts one 16-byte block located at physical address `pa`.
    pub fn decrypt_block(&self, pa: u64, block: &mut [u8; 16]) {
        Self::xor_tweak(pa, block);
        self.cipher.decrypt_block(block);
        Self::xor_tweak(pa, block);
    }

    /// XORs the tweaks of [`INTERLEAVE`](crate::aes::INTERLEAVE) consecutive
    /// block addresses into a 128-byte run — the pre/post whitening pass
    /// around one interleaved AES call in the streaming paths.
    #[inline]
    fn xor_tweak_run(base_pa: u64, run: &mut [u8; crate::aes::INTERLEAVE_BYTES]) {
        for (i, chunk) in run.chunks_exact_mut(16).enumerate() {
            let block: &mut [u8; 16] = chunk.try_into().expect("chunk is 16 bytes");
            Self::xor_tweak(base_pa.wrapping_add(16 * i as u64), block);
        }
    }

    /// Encrypts consecutive 16-byte blocks in place, the block at offset
    /// `16 * i` being located at physical address `base_pa + 16 * i` — the
    /// memory controller's streaming write path. The whole run is one
    /// backend dispatch: on AES-NI one fused XEX kernel call, elsewhere
    /// the portable loop that whitens 8-block runs in one pass around one
    /// interleaved AES call.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of 16.
    pub fn encrypt_blocks(&self, base_pa: u64, data: &mut [u8]) {
        self.xex::<true>(base_pa, None, data);
    }

    /// Decrypts consecutive 16-byte blocks in place; see
    /// [`PaTweakCipher::encrypt_blocks`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of 16.
    pub fn decrypt_blocks(&self, base_pa: u64, data: &mut [u8]) {
        self.xex::<false>(base_pa, None, data);
    }

    /// Encrypts the plaintext blocks of `src`, located at `base_pa`
    /// onward, into `dst` — byte-identical to copying `src` into `dst` and
    /// calling [`PaTweakCipher::encrypt_blocks`], without the copy. The
    /// memory controller writes guest data straight into DRAM this way.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or are not a multiple of 16.
    pub fn encrypt_blocks_to(&self, base_pa: u64, src: &[u8], dst: &mut [u8]) {
        self.xex::<true>(base_pa, Some(src), dst);
    }

    /// Decrypts the ciphertext blocks of `src`, located at `base_pa`
    /// onward, into `dst`; see [`PaTweakCipher::encrypt_blocks_to`].
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or are not a multiple of 16.
    pub fn decrypt_blocks_to(&self, base_pa: u64, src: &[u8], dst: &mut [u8]) {
        self.xex::<false>(base_pa, Some(src), dst);
    }

    /// The one backend dispatch behind the four streaming entry points:
    /// `src` of `None` means in place.
    fn xex<const ENC: bool>(&self, base_pa: u64, src: Option<&[u8]>, dst: &mut [u8]) {
        assert_eq!(dst.len() % 16, 0, "streaming tweak path needs whole blocks");
        if let Some(src) = src {
            assert_eq!(src.len(), dst.len(), "source and destination lengths differ");
        }
        #[cfg(all(feature = "aesni", target_arch = "x86_64"))]
        if let Some(ni) = self.cipher.schedule().fused() {
            return ni.xex::<ENC>(Self::tweak_halves, base_pa, src, dst);
        }
        if let Some(src) = src {
            dst.copy_from_slice(src);
        }
        self.xex_portable::<ENC>(base_pa, dst);
    }

    /// The portable in-place XEX loop: the tweak advances with the running
    /// address, whole 8-block runs are whitened in one pass around one
    /// interleaved AES call, and the tail goes block by block.
    fn xex_portable<const ENC: bool>(&self, base_pa: u64, data: &mut [u8]) {
        let schedule = self.cipher.schedule();
        let mut pa = base_pa;
        let mut wide = data.chunks_exact_mut(crate::aes::INTERLEAVE_BYTES);
        for chunk in &mut wide {
            let run: &mut [u8; crate::aes::INTERLEAVE_BYTES] =
                chunk.try_into().expect("chunk is INTERLEAVE_BYTES");
            Self::xor_tweak_run(pa, run);
            if ENC {
                schedule.encrypt_blocks(run);
            } else {
                schedule.decrypt_blocks(run);
            }
            Self::xor_tweak_run(pa, run);
            pa = pa.wrapping_add(crate::aes::INTERLEAVE_BYTES as u64);
        }
        for chunk in wide.into_remainder().chunks_exact_mut(16) {
            let block: &mut [u8; 16] = chunk.try_into().expect("chunk is 16 bytes");
            Self::xor_tweak(pa, block);
            if ENC {
                schedule.encrypt_block(block);
            } else {
                schedule.decrypt_block(block);
            }
            Self::xor_tweak(pa, block);
            pa = pa.wrapping_add(16);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctr_roundtrip_and_offset_consistency() {
        let ctr = Ctr128::new(&[3u8; 16], 77);
        let mut data = vec![0x5Au8; 100];
        let original = data.clone();
        ctr.apply(0, &mut data);
        assert_ne!(data, original);
        ctr.apply(0, &mut data);
        assert_eq!(data, original);

        // Encrypting the tail separately with the right offset matches.
        let mut whole = original.clone();
        ctr.apply(0, &mut whole);
        let mut head = original[..32].to_vec();
        let mut tail = original[32..].to_vec();
        ctr.apply(0, &mut head);
        ctr.apply(2, &mut tail);
        assert_eq!(&whole[..32], head.as_slice());
        assert_eq!(&whole[32..], tail.as_slice());
    }

    /// The batched keystream path must produce byte-identical output to the
    /// seed implementation's per-block loop (same counter-block layout).
    #[test]
    fn ctr_matches_manual_per_block_loop() {
        let key = [3u8; 16];
        let nonce = 77u64;
        let ctr = Ctr128::new(&key, nonce);
        let mut data: Vec<u8> = (0..=254u8).collect(); // 255 bytes, partial tail
        let original = data.clone();
        ctr.apply(5, &mut data);

        let cipher = crate::aes::Aes128::new(&key);
        let mut manual = original.clone();
        let mut counter = 5u64;
        for chunk in manual.chunks_mut(16) {
            let mut ks = [0u8; 16];
            ks[..8].copy_from_slice(&nonce.to_be_bytes());
            ks[8..].copy_from_slice(&counter.to_be_bytes());
            cipher.encrypt_block(&mut ks);
            for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                *d ^= *k;
            }
            counter = counter.wrapping_add(1);
        }
        assert_eq!(data, manual);
    }

    #[test]
    fn sector_cipher_roundtrip_and_position_dependence() {
        let sc = SectorCipher::new(&[0x11u8; 16]);
        let plain = [0xC3u8; SECTOR_SIZE];
        let mut s0 = plain;
        let mut s1 = plain;
        sc.encrypt_sector(0, &mut s0);
        sc.encrypt_sector(1, &mut s1);
        assert_ne!(s0, s1, "same plaintext in different sectors must differ");
        sc.decrypt_sector(0, &mut s0);
        assert_eq!(s0, plain);
    }

    /// The batched multi-sector path must equal per-sector calls — this is
    /// what keeps ciphertext byte-identical when the block front-end drains
    /// a whole ring through one dispatch.
    #[test]
    fn sector_batch_matches_per_sector() {
        let sc = SectorCipher::new(&[0x47u8; 16]);
        let plain: Vec<u8> = (0..4 * SECTOR_SIZE).map(|i| (i as u8).wrapping_mul(13)).collect();
        let mut batched = plain.clone();
        sc.encrypt_sectors(9, &mut batched);
        let mut manual = plain.clone();
        for (i, sector) in manual.chunks_exact_mut(SECTOR_SIZE).enumerate() {
            sc.encrypt_sector(9 + i as u64, sector);
        }
        assert_eq!(batched, manual);
        sc.decrypt_sectors(9, &mut batched);
        assert_eq!(batched, plain);
    }

    #[test]
    #[should_panic(expected = "whole sectors")]
    fn sector_batch_rejects_ragged_run() {
        let sc = SectorCipher::new(&[0u8; 16]);
        let mut bad = vec![0u8; SECTOR_SIZE + 1];
        sc.encrypt_sectors(0, &mut bad);
    }

    #[test]
    #[should_panic(expected = "sector must be")]
    fn sector_cipher_rejects_short_sector() {
        let sc = SectorCipher::new(&[0u8; 16]);
        let mut bad = [0u8; 100];
        sc.encrypt_sector(0, &mut bad);
    }

    #[test]
    fn pa_tweak_roundtrip() {
        let c = PaTweakCipher::new(&[0x22u8; 16]);
        let plain = *b"sixteen byte msg";
        let mut block = plain;
        c.encrypt_block(0x1000, &mut block);
        assert_ne!(block, plain);
        c.decrypt_block(0x1000, &mut block);
        assert_eq!(block, plain);
    }

    #[test]
    fn pa_tweak_moved_ciphertext_garbles() {
        // The property behind SEV's remap protection AND its replay
        // weakness: ciphertext is bound to its physical address.
        let c = PaTweakCipher::new(&[0x22u8; 16]);
        let plain = *b"topsecret-data!!";
        let mut at_a = plain;
        c.encrypt_block(0xA000, &mut at_a);
        // Adversary copies ciphertext from PA 0xA000 to PA 0xB000.
        let mut moved = at_a;
        c.decrypt_block(0xB000, &mut moved);
        assert_ne!(moved, plain, "moved ciphertext must not decrypt");
        // But replayed in place it decrypts fine (no freshness).
        let mut replayed = at_a;
        c.decrypt_block(0xA000, &mut replayed);
        assert_eq!(replayed, plain);
    }

    #[test]
    fn pa_tweak_adjusted_move_is_fully_predictable() {
        // The SEVurity malleability theorem: because T(pa) is public and
        // applied symmetrically around AES, a *tweak-adjusted* move is not
        // garbage — it decrypts to P ⊕ T(src) ⊕ T(dst), which the attacker
        // can compute without the key. Garbling unadjusted moves (test
        // above) is therefore NOT an integrity guarantee.
        let c = PaTweakCipher::new(&[0x22u8; 16]);
        let (src_pa, dst_pa) = (0xA000u64, 0xB000u64);
        let plain = *b"topsecret-data!!";
        let mut ct = plain;
        c.encrypt_block(src_pa, &mut ct);
        let t_src = PaTweakCipher::tweak_mask(src_pa);
        let t_dst = PaTweakCipher::tweak_mask(dst_pa);
        let mut adjusted = ct;
        for i in 0..16 {
            adjusted[i] ^= t_src[i] ^ t_dst[i];
        }
        c.decrypt_block(dst_pa, &mut adjusted);
        let mut predicted = plain;
        for i in 0..16 {
            predicted[i] ^= t_src[i] ^ t_dst[i];
        }
        assert_eq!(adjusted, predicted, "adjusted move must decrypt predictably");
        assert_ne!(adjusted, plain);
    }

    /// The streaming block path must equal per-block encryption at the same
    /// addresses — this is what keeps DRAM ciphertext byte-identical when
    /// the memory controller switches to it.
    #[test]
    fn pa_tweak_stream_matches_per_block() {
        let c = PaTweakCipher::new(&[0x31u8; 16]);
        let mut data: Vec<u8> = (0..160u8).map(|b| b.wrapping_mul(7)).collect();
        let original = data.clone();
        c.encrypt_blocks(0x2340, &mut data);
        let mut manual = original.clone();
        for (i, chunk) in manual.chunks_exact_mut(16).enumerate() {
            let block: &mut [u8; 16] = chunk.try_into().unwrap();
            c.encrypt_block(0x2340 + 16 * i as u64, block);
        }
        assert_eq!(data, manual);
        c.decrypt_blocks(0x2340, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn different_keys_produce_different_ciphertext() {
        let c1 = PaTweakCipher::new(&[1u8; 16]);
        let c2 = PaTweakCipher::new(&[2u8; 16]);
        let mut b1 = [0u8; 16];
        let mut b2 = [0u8; 16];
        c1.encrypt_block(0, &mut b1);
        c2.encrypt_block(0, &mut b2);
        assert_ne!(b1, b2);
    }
}
