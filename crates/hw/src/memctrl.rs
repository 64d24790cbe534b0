//! The memory controller with the AMD memory-encryption engine.
//!
//! Every access that reaches DRAM goes through here. Depending on the
//! *encryption selection* — derived by the CPU from the C-bit of the
//! mapping used and the current world — the engine transparently
//! encrypts/decrypts 16-byte blocks with a physical-address-tweaked AES
//! under either the host SME key or the per-ASID `Kvek` installed by the
//! SEV `ACTIVATE` command.
//!
//! The raw DRAM underneath ([`MemoryController::dram`]) holds ciphertext;
//! that is the view physical attacks get.
//!
//! In the paper's protection scheme (§2.1, §4.3.4) this engine is the
//! root of the memory-confidentiality guarantee: because the tweak is the
//! physical address and the key is per-ASID, a hypervisor that remaps a
//! guest page or splices ciphertext between frames produces garbage
//! plaintext rather than meaningful data — which is why the NPT policies
//! in `fidelius-core` only need to make such remapping *detectable*, not
//! impossible. The fault matrix drives exactly those adversarial writes
//! through [`MemoryController::write`] with [`EncSel::None`] and asserts
//! the guest-visible outcome.
//!
//! Accesses whose block span lies inside DRAM take a streaming path: one
//! batched cipher call transforms the aligned interior straight between
//! DRAM and the caller's buffer, so each DRAM byte is read or written
//! once, with at most one read-modify-write block at each end.
//! Accesses that cross the end of DRAM fall back to a block-at-a-time
//! loop so the partial-write prefix and the exact
//! [`HwError::BadPhysicalAddress`] the first bad block raises stay
//! identical to the original implementation.

use crate::error::HwError;
use crate::fxhash::FxBuildHasher;
use crate::mem::Dram;
use crate::{Asid, Hpa};
use fidelius_crypto::modes::PaTweakCipher;
use fidelius_telemetry::{CryptoDir, EncKey, Tracer};
use std::collections::HashMap;

/// Which key (if any) the engine applies to an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncSel {
    /// Bypass the engine (C-bit clear).
    None,
    /// Host SME key (C-bit set in a host page-table entry).
    Sme,
    /// The `Kvek` of the given ASID (C-bit set in a guest page-table entry
    /// of an SEV guest).
    Guest(Asid),
}

const BLOCK: u64 = 16;

impl EncSel {
    /// The telemetry key label for an engine-engaged selection (`None` for
    /// a bypass or a missing key).
    fn telemetry_key(&self) -> Option<EncKey> {
        match self {
            EncSel::None => None,
            EncSel::Sme => Some(EncKey::Sme),
            EncSel::Guest(asid) => Some(EncKey::Guest(asid.0)),
        }
    }
}

/// The memory controller: all DRAM traffic, keyed per the access's
/// [`EncSel`], with optional telemetry of every crypto engagement.
///
/// Holds the SME host key and one `Kvek` per active ASID — the hardware
/// state that the SEV firmware's `ACTIVATE`/`DEACTIVATE` commands manage
/// and that the hypervisor can never read out (paper Table 1, row
/// "memory encryption keys").
pub struct MemoryController {
    dram: Dram,
    sme: Option<PaTweakCipher>,
    guests: HashMap<u16, PaTweakCipher, FxBuildHasher>,
    trace: Option<Tracer>,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("dram", &self.dram)
            .field("sme_enabled", &self.sme.is_some())
            .field("active_asids", &self.guests.len())
            .finish()
    }
}

impl MemoryController {
    /// Wraps physical memory with an (initially key-less) engine.
    pub fn new(dram: Dram) -> Self {
        MemoryController { dram, sme: None, guests: HashMap::default(), trace: None }
    }

    /// Attaches a tracer; every engine-engaged access is then accounted as
    /// crypto traffic (bytes per key and direction).
    pub fn with_tracer(mut self, trace: Tracer) -> Self {
        self.trace = Some(trace);
        self
    }

    fn trace_crypto(trace: Option<&Tracer>, sel: EncSel, dir: CryptoDir, bytes: usize) {
        if bytes == 0 {
            return;
        }
        if let (Some(trace), Some(key)) = (trace, sel.telemetry_key()) {
            trace.crypto(key, dir, bytes as u64);
        }
    }

    /// Installs the host SME key (done by firmware at reset).
    pub fn install_sme_key(&mut self, key: &[u8; 16]) {
        self.sme = Some(PaTweakCipher::new(key));
    }

    /// Installs a guest `Kvek` for an ASID — the effect of the SEV
    /// `ACTIVATE` command.
    pub fn install_guest_key(&mut self, asid: Asid, kvek: &[u8; 16]) {
        self.guests.insert(asid.0, PaTweakCipher::new(kvek));
    }

    /// Uninstalls an ASID's key — the effect of `DEACTIVATE`.
    pub fn uninstall_guest_key(&mut self, asid: Asid) -> bool {
        self.guests.remove(&asid.0).is_some()
    }

    /// Whether a key is installed for `asid`.
    pub fn has_guest_key(&self, asid: Asid) -> bool {
        self.guests.contains_key(&asid.0)
    }

    /// Resolves the engine for a selection against already-split borrows,
    /// so `write` can hold the cipher by reference while mutating DRAM.
    fn engine_of<'a>(
        sme: &'a Option<PaTweakCipher>,
        guests: &'a HashMap<u16, PaTweakCipher, FxBuildHasher>,
        sel: EncSel,
    ) -> Result<Option<&'a PaTweakCipher>, HwError> {
        match sel {
            EncSel::None => Ok(None),
            EncSel::Sme => Ok(sme.as_ref()),
            EncSel::Guest(asid) => {
                Ok(Some(guests.get(&asid.0).ok_or(HwError::NoKeyForAsid(asid))?))
            }
        }
    }

    /// Whether every block the access `[pa, pa + len)` touches lies inside
    /// DRAM — the precondition for the streaming paths. A zero-length
    /// access still touches its containing block, like the real engine
    /// issuing a cache-line fill.
    fn span_in_dram(dram: &Dram, pa: Hpa, len: u64) -> bool {
        let Some(last) = pa.0.checked_add(len.max(1) - 1) else {
            return false;
        };
        match (last / BLOCK).checked_add(1).and_then(|b| b.checked_mul(BLOCK)) {
            Some(span_end) => span_end <= dram.size(),
            None => false,
        }
    }

    /// Whether an access to `[pa, pa + len)` under `sel` is guaranteed to
    /// succeed: the span lies in DRAM and, for a guest selection, the
    /// ASID has a key installed. The CPU's coalesced guest streaming path
    /// uses this to decide whether consecutive pages may share one
    /// controller call without changing which page a failure would be
    /// charged to.
    pub fn access_infallible(&self, pa: Hpa, len: u64, sel: EncSel) -> bool {
        let key_ok = match sel {
            EncSel::Guest(asid) => self.has_guest_key(asid),
            EncSel::None | EncSel::Sme => true,
        };
        key_ok && Self::span_in_dram(&self.dram, pa, len)
    }

    /// Reads memory through the engine.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range addresses or a missing ASID key.
    pub fn read(&self, pa: Hpa, buf: &mut [u8], sel: EncSel) -> Result<(), HwError> {
        match Self::engine_of(&self.sme, &self.guests, sel)? {
            None => self.dram.read_raw(pa, buf),
            Some(engine) => {
                Self::trace_crypto(self.trace.as_ref(), sel, CryptoDir::Decrypt, buf.len());
                if Self::span_in_dram(&self.dram, pa, buf.len() as u64) {
                    read_stream(&self.dram, engine, pa, buf)
                } else {
                    read_blockwise(&self.dram, engine, pa, buf)
                }
            }
        }
    }

    /// Writes memory through the engine (read-modify-write for partial
    /// blocks, as the real engine does at cache-line granularity).
    ///
    /// # Errors
    ///
    /// Fails on out-of-range addresses or a missing ASID key.
    pub fn write(&mut self, pa: Hpa, data: &[u8], sel: EncSel) -> Result<(), HwError> {
        let MemoryController { dram, sme, guests, trace } = self;
        match Self::engine_of(sme, guests, sel)? {
            None => dram.write_raw(pa, data),
            Some(engine) => {
                Self::trace_crypto(trace.as_ref(), sel, CryptoDir::Encrypt, data.len());
                if data.is_empty() {
                    return Ok(());
                }
                if Self::span_in_dram(dram, pa, data.len() as u64) {
                    write_stream(dram, engine, pa, data)
                } else {
                    write_blockwise(dram, engine, pa, data)
                }
            }
        }
    }

    /// Convenience: reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// Same as [`MemoryController::read`].
    pub fn read_u64(&self, pa: Hpa, sel: EncSel) -> Result<u64, HwError> {
        let mut buf = [0u8; 8];
        self.read(pa, &mut buf, sel)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Convenience: writes a little-endian u64.
    ///
    /// # Errors
    ///
    /// Same as [`MemoryController::write`].
    pub fn write_u64(&mut self, pa: Hpa, value: u64, sel: EncSel) -> Result<(), HwError> {
        self.write(pa, &value.to_le_bytes(), sel)
    }

    /// The raw DRAM — the physical attacker's view.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable raw DRAM — for physical write attacks (Rowhammer, bus
    /// injection) and for firmware-internal moves.
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }
}

/// Streaming read: decrypt the aligned interior from DRAM straight into
/// `buf` with one batched cipher call; at most one partial block at each
/// end is handled via a 16-byte bounce buffer. Caller has verified the
/// span is in DRAM.
fn read_stream(
    dram: &Dram,
    engine: &PaTweakCipher,
    pa: Hpa,
    buf: &mut [u8],
) -> Result<(), HwError> {
    let len = buf.len() as u64;
    if len == 0 {
        // The block fill the zero-length access would issue is in range
        // (span checked) and nothing is copied out: nothing to do.
        return Ok(());
    }
    let end = pa.0 + len;
    let head_blk = pa.0 / BLOCK * BLOCK;
    let tail_blk = (end - 1) / BLOCK * BLOCK;
    let head_pad = pa.0 - head_blk;
    let tail_len = end - tail_blk;

    if head_blk == tail_blk && (head_pad != 0 || tail_len != BLOCK) {
        // The access lives inside a single partial block.
        let mut block = [0u8; BLOCK as usize];
        dram.read_raw(Hpa(head_blk), &mut block)?;
        engine.decrypt_block(head_blk, &mut block);
        buf.copy_from_slice(&block[head_pad as usize..(head_pad + len) as usize]);
        return Ok(());
    }

    let mut cursor = pa.0;
    let mut out = 0usize;
    if head_pad != 0 {
        let mut block = [0u8; BLOCK as usize];
        dram.read_raw(Hpa(head_blk), &mut block)?;
        engine.decrypt_block(head_blk, &mut block);
        let take = (BLOCK - head_pad) as usize;
        buf[..take].copy_from_slice(&block[head_pad as usize..]);
        out += take;
        cursor = head_blk + BLOCK;
    }
    let mid_end = if tail_len == BLOCK { end } else { tail_blk };
    if mid_end > cursor {
        let mid = &mut buf[out..out + (mid_end - cursor) as usize];
        engine.decrypt_blocks_to(cursor, dram.raw_span(Hpa(cursor), mid.len())?, mid);
        out += mid.len();
    }
    if tail_len != BLOCK {
        let mut block = [0u8; BLOCK as usize];
        dram.read_raw(Hpa(tail_blk), &mut block)?;
        engine.decrypt_block(tail_blk, &mut block);
        buf[out..].copy_from_slice(&block[..tail_len as usize]);
    }
    Ok(())
}

/// Streaming write: RMW at most one partial block at each end, then
/// encrypt the aligned interior from `data` straight into DRAM with one
/// batched cipher call. Caller has verified the span is in DRAM and `data`
/// is non-empty.
fn write_stream(
    dram: &mut Dram,
    engine: &PaTweakCipher,
    pa: Hpa,
    data: &[u8],
) -> Result<(), HwError> {
    let len = data.len() as u64;
    let end = pa.0 + len;
    let head_blk = pa.0 / BLOCK * BLOCK;
    let tail_blk = (end - 1) / BLOCK * BLOCK;
    let head_pad = pa.0 - head_blk;
    let tail_len = end - tail_blk;

    let rmw = |dram: &mut Dram, blk: u64, range: std::ops::Range<usize>, src: &[u8]| {
        let mut block = [0u8; BLOCK as usize];
        dram.read_raw(Hpa(blk), &mut block)?;
        engine.decrypt_block(blk, &mut block);
        block[range].copy_from_slice(src);
        engine.encrypt_block(blk, &mut block);
        dram.write_raw(Hpa(blk), &block)
    };

    if head_blk == tail_blk && (head_pad != 0 || tail_len != BLOCK) {
        return rmw(dram, head_blk, head_pad as usize..(head_pad + len) as usize, data);
    }

    let mut cursor = pa.0;
    let mut consumed = 0usize;
    if head_pad != 0 {
        let take = (BLOCK - head_pad) as usize;
        rmw(dram, head_blk, head_pad as usize..BLOCK as usize, &data[..take])?;
        consumed += take;
        cursor = head_blk + BLOCK;
    }
    let mid_end = if tail_len == BLOCK { end } else { tail_blk };
    if mid_end > cursor {
        let take = (mid_end - cursor) as usize;
        let mid = &data[consumed..consumed + take];
        engine.encrypt_blocks_to(cursor, mid, dram.raw_span_mut(Hpa(cursor), take)?);
        consumed += take;
    }
    if tail_len != BLOCK {
        rmw(dram, tail_blk, 0..tail_len as usize, &data[consumed..])?;
    }
    Ok(())
}

/// Block-at-a-time read, kept for accesses that run past the end of DRAM:
/// in-range blocks are copied out before the first bad block raises
/// [`HwError::BadPhysicalAddress`] for exactly that block, matching the
/// original loop's observable behaviour.
fn read_blockwise(
    dram: &Dram,
    engine: &PaTweakCipher,
    pa: Hpa,
    buf: &mut [u8],
) -> Result<(), HwError> {
    let len = buf.len() as u64;
    let first_block = pa.0 / BLOCK;
    let last_block = (pa.0 + len.max(1) - 1) / BLOCK;
    for blk in first_block..=last_block {
        let blk_pa = Hpa(blk * BLOCK);
        let mut block = [0u8; BLOCK as usize];
        dram.read_raw(blk_pa, &mut block)?;
        engine.decrypt_block(blk_pa.0, &mut block);
        // Intersect [pa, pa+len) with this block.
        let start = pa.0.max(blk_pa.0);
        let end = (pa.0 + len).min(blk_pa.0 + BLOCK);
        let src = (start - blk_pa.0) as usize..(end - blk_pa.0) as usize;
        let dst = (start - pa.0) as usize..(end - pa.0) as usize;
        buf[dst].copy_from_slice(&block[src]);
    }
    Ok(())
}

/// Block-at-a-time write, kept for accesses that run past the end of DRAM:
/// in-range blocks are committed before the first bad block raises
/// [`HwError::BadPhysicalAddress`], matching the original loop's
/// partial-write-then-error behaviour.
fn write_blockwise(
    dram: &mut Dram,
    engine: &PaTweakCipher,
    pa: Hpa,
    data: &[u8],
) -> Result<(), HwError> {
    let len = data.len() as u64;
    let first_block = pa.0 / BLOCK;
    let last_block = (pa.0 + len - 1) / BLOCK;
    for blk in first_block..=last_block {
        let blk_pa = Hpa(blk * BLOCK);
        let start = pa.0.max(blk_pa.0);
        let end = (pa.0 + len).min(blk_pa.0 + BLOCK);
        let mut block = [0u8; BLOCK as usize];
        let full = start == blk_pa.0 && end == blk_pa.0 + BLOCK;
        if !full {
            dram.read_raw(blk_pa, &mut block)?;
            engine.decrypt_block(blk_pa.0, &mut block);
        }
        let dst = (start - blk_pa.0) as usize..(end - blk_pa.0) as usize;
        let src = (start - pa.0) as usize..(end - pa.0) as usize;
        block[dst].copy_from_slice(&data[src]);
        engine.encrypt_block(blk_pa.0, &mut block);
        dram.write_raw(blk_pa, &block)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    fn mc() -> MemoryController {
        let mut mc = MemoryController::new(Dram::new(16 * PAGE_SIZE));
        mc.install_sme_key(&[0xAA; 16]);
        mc.install_guest_key(Asid(1), &[0x01; 16]);
        mc.install_guest_key(Asid(2), &[0x02; 16]);
        mc
    }

    #[test]
    fn plaintext_access_is_raw() {
        let mut m = mc();
        m.write(Hpa(0x100), b"plain", EncSel::None).unwrap();
        let mut raw = [0u8; 5];
        m.dram().read_raw(Hpa(0x100), &mut raw).unwrap();
        assert_eq!(&raw, b"plain");
    }

    #[test]
    fn encrypted_write_stores_ciphertext() {
        let mut m = mc();
        m.write(Hpa(0x200), b"super-secret-data", EncSel::Guest(Asid(1))).unwrap();
        // Software view through the right key: plaintext.
        let mut plain = [0u8; 17];
        m.read(Hpa(0x200), &mut plain, EncSel::Guest(Asid(1))).unwrap();
        assert_eq!(&plain, b"super-secret-data");
        // Cold-boot view: ciphertext.
        let mut raw = [0u8; 17];
        m.dram().read_raw(Hpa(0x200), &mut raw).unwrap();
        assert_ne!(&raw, b"super-secret-data");
    }

    #[test]
    fn wrong_key_reads_garbage() {
        let mut m = mc();
        m.write(Hpa(0x300), b"asid1-private-xx", EncSel::Guest(Asid(1))).unwrap();
        let mut with_2 = [0u8; 16];
        m.read(Hpa(0x300), &mut with_2, EncSel::Guest(Asid(2))).unwrap();
        assert_ne!(&with_2, b"asid1-private-xx");
        let mut with_none = [0u8; 16];
        m.read(Hpa(0x300), &mut with_none, EncSel::None).unwrap();
        assert_ne!(&with_none, b"asid1-private-xx");
    }

    #[test]
    fn unaligned_partial_block_rmw() {
        let mut m = mc();
        // Write a full region, then patch 3 bytes in the middle,
        // unaligned; the rest must survive.
        m.write(Hpa(0x1000), &[0x11u8; 64], EncSel::Sme).unwrap();
        m.write(Hpa(0x1005), b"abc", EncSel::Sme).unwrap();
        let mut buf = [0u8; 64];
        m.read(Hpa(0x1000), &mut buf, EncSel::Sme).unwrap();
        assert_eq!(&buf[..5], &[0x11; 5]);
        assert_eq!(&buf[5..8], b"abc");
        assert_eq!(&buf[8..], &[0x11; 56]);
    }

    #[test]
    fn missing_asid_key_errors() {
        let m = mc();
        let mut buf = [0u8; 4];
        assert!(matches!(
            m.read(Hpa(0), &mut buf, EncSel::Guest(Asid(7))),
            Err(HwError::NoKeyForAsid(Asid(7)))
        ));
    }

    #[test]
    fn deactivate_uninstalls_key() {
        let mut m = mc();
        assert!(m.has_guest_key(Asid(1)));
        assert!(m.uninstall_guest_key(Asid(1)));
        assert!(!m.uninstall_guest_key(Asid(1)));
        let mut buf = [0u8; 4];
        assert!(m.read(Hpa(0), &mut buf, EncSel::Guest(Asid(1))).is_err());
    }

    #[test]
    fn replay_in_place_succeeds_but_moved_ciphertext_garbles() {
        // The architectural weakness Fidelius closes at the NPT layer.
        let mut m = mc();
        let pa = Hpa(0x2000);
        m.write(pa, b"password=oldpass", EncSel::Guest(Asid(1))).unwrap();
        let mut old_ct = [0u8; 16];
        m.dram().read_raw(pa, &mut old_ct).unwrap();
        m.write(pa, b"password=newpass", EncSel::Guest(Asid(1))).unwrap();
        // Replay the stale ciphertext in place (hypervisor can do this if
        // it controls the page content or remaps the NPT).
        m.dram_mut().write_raw(pa, &old_ct).unwrap();
        let mut read_back = [0u8; 16];
        m.read(pa, &mut read_back, EncSel::Guest(Asid(1))).unwrap();
        assert_eq!(&read_back, b"password=oldpass", "in-place replay works on SEV");
        // Moving it elsewhere garbles.
        m.dram_mut().write_raw(Hpa(0x3000), &old_ct).unwrap();
        let mut moved = [0u8; 16];
        m.read(Hpa(0x3000), &mut moved, EncSel::Guest(Asid(1))).unwrap();
        assert_ne!(&moved, b"password=oldpass");
    }

    #[test]
    fn u64_helpers_roundtrip() {
        let mut m = mc();
        m.write_u64(Hpa(0x500), 0xDEAD_BEEF_CAFE_F00D, EncSel::Sme).unwrap();
        assert_eq!(m.read_u64(Hpa(0x500), EncSel::Sme).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn sme_without_key_bypasses() {
        // If firmware never installed an SME key, EncSel::Sme is a no-op
        // (matching real hardware where SME must be enabled at boot).
        let mut m = MemoryController::new(Dram::new(PAGE_SIZE));
        m.write(Hpa(0), b"data", EncSel::Sme).unwrap();
        let mut raw = [0u8; 4];
        m.dram().read_raw(Hpa(0), &mut raw).unwrap();
        assert_eq!(&raw, b"data");
    }

    // ---- streaming-path equivalence against the seed implementation ----

    /// The seed's per-block write loop, verbatim, as an oracle.
    fn seed_write(
        dram: &mut Dram,
        engine: &PaTweakCipher,
        pa: Hpa,
        data: &[u8],
    ) -> Result<(), HwError> {
        let len = data.len() as u64;
        if len == 0 {
            return Ok(());
        }
        write_blockwise(dram, engine, pa, data)
    }

    /// The seed's per-block read loop, verbatim, as an oracle.
    fn seed_read(
        dram: &Dram,
        engine: &PaTweakCipher,
        pa: Hpa,
        buf: &mut [u8],
    ) -> Result<(), HwError> {
        read_blockwise(dram, engine, pa, buf)
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 11
    }

    /// Random op sequences through the streaming controller and the seed
    /// oracle must leave byte-identical DRAM ciphertext and return
    /// byte-identical plaintext on every read.
    #[test]
    fn stream_matches_seed_blockwise_on_random_ops() {
        let key = [0x5Cu8; 16];
        let engine = PaTweakCipher::new(&key);
        let mut fast = MemoryController::new(Dram::new(4 * PAGE_SIZE));
        fast.install_guest_key(Asid(1), &key);
        let mut oracle = Dram::new(4 * PAGE_SIZE);

        let mut rng = 0x1234_5678_9ABC_DEF0u64;
        for round in 0..400 {
            let pa = Hpa(lcg(&mut rng) % (4 * PAGE_SIZE - 256));
            let len = (lcg(&mut rng) % 200) as usize;
            if round % 2 == 0 {
                let data: Vec<u8> = (0..len).map(|_| lcg(&mut rng) as u8).collect();
                fast.write(pa, &data, EncSel::Guest(Asid(1))).unwrap();
                seed_write(&mut oracle, &engine, pa, &data).unwrap();
            } else {
                let mut got = vec![0u8; len];
                let mut want = vec![0u8; len];
                fast.read(pa, &mut got, EncSel::Guest(Asid(1))).unwrap();
                seed_read(&oracle, &engine, pa, &mut want).unwrap();
                assert_eq!(got, want, "round {round}: plaintext diverged at {pa:?} len {len}");
            }
        }
        // Final ciphertext images must be bit-identical.
        let size = fast.dram().size();
        let mut a = vec![0u8; size as usize];
        let mut b = vec![0u8; size as usize];
        fast.dram().read_raw(Hpa(0), &mut a).unwrap();
        oracle.read_raw(Hpa(0), &mut b).unwrap();
        assert_eq!(a, b, "DRAM ciphertext diverged from the seed implementation");
    }

    /// Alignment corner cases, exhaustively around block boundaries.
    #[test]
    fn stream_matches_seed_at_block_boundaries() {
        let key = [0x77u8; 16];
        let engine = PaTweakCipher::new(&key);
        for offset in 0..=17u64 {
            for len in 0..=49usize {
                let mut fast = MemoryController::new(Dram::new(PAGE_SIZE));
                fast.install_sme_key(&key);
                let mut oracle = Dram::new(PAGE_SIZE);
                // Pre-fill both with identical ciphertext background.
                let bg: Vec<u8> = (0..64u8).collect();
                fast.write(Hpa(0), &bg, EncSel::Sme).unwrap();
                seed_write(&mut oracle, &engine, Hpa(0), &bg).unwrap();

                let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(13)).collect();
                fast.write(Hpa(offset), &data, EncSel::Sme).unwrap();
                seed_write(&mut oracle, &engine, Hpa(offset), &data).unwrap();

                let mut got = vec![0u8; 64];
                let mut want = vec![0u8; 64];
                fast.read(Hpa(0), &mut got, EncSel::Sme).unwrap();
                seed_read(&oracle, &engine, Hpa(0), &mut want).unwrap();
                assert_eq!(got, want, "offset {offset} len {len}");
            }
        }
    }

    /// An access crossing the end of DRAM must commit the in-range prefix
    /// and report the first out-of-range block, exactly like the seed.
    #[test]
    fn out_of_range_write_commits_prefix_then_errors_like_seed() {
        let key = [0x42u8; 16];
        let mut m = MemoryController::new(Dram::new(PAGE_SIZE));
        m.install_sme_key(&key);
        let start = Hpa(PAGE_SIZE - 24);
        let data = [0xABu8; 48]; // last in-range block + 2 blocks past the end
        let err = m.write(start, &data, EncSel::Sme).unwrap_err();
        assert_eq!(err, HwError::BadPhysicalAddress { pa: Hpa(PAGE_SIZE), len: 16 });
        // The in-range prefix was committed (visible through the engine).
        let mut prefix = [0u8; 24];
        m.read(start, &mut prefix, EncSel::Sme).unwrap();
        assert_eq!(prefix, [0xAB; 24]);
    }

    /// Same for reads: in-range blocks fill the buffer before the error.
    #[test]
    fn out_of_range_read_errors_on_first_bad_block() {
        let key = [0x42u8; 16];
        let mut m = MemoryController::new(Dram::new(PAGE_SIZE));
        m.install_sme_key(&key);
        m.write(Hpa(PAGE_SIZE - 16), &[0x66u8; 16], EncSel::Sme).unwrap();
        let mut buf = [0u8; 32];
        let err = m.read(Hpa(PAGE_SIZE - 16), &mut buf, EncSel::Sme).unwrap_err();
        assert_eq!(err, HwError::BadPhysicalAddress { pa: Hpa(PAGE_SIZE), len: 16 });
        assert_eq!(&buf[..16], &[0x66; 16], "in-range block filled before the error");
    }

    /// A zero-length engine read of an out-of-range address still errors
    /// (the engine touches the containing block), like the seed.
    #[test]
    fn empty_read_of_bad_address_still_errors() {
        let key = [0x42u8; 16];
        let mut m = MemoryController::new(Dram::new(PAGE_SIZE));
        m.install_sme_key(&key);
        let mut empty = [0u8; 0];
        assert!(m.read(Hpa(PAGE_SIZE), &mut empty, EncSel::Sme).is_err());
        // In range, a zero-length read is fine.
        m.read(Hpa(0), &mut empty, EncSel::Sme).unwrap();
        // Zero-length writes never touch DRAM, even out of range.
        m.write(Hpa(PAGE_SIZE), &[], EncSel::Sme).unwrap();
    }

    /// A multi-page unaligned write: the round trip and the ciphertext
    /// must both match the blockwise oracle.
    #[test]
    fn multi_chunk_write_roundtrips() {
        let key = [0x09u8; 16];
        let engine = PaTweakCipher::new(&key);
        let mut m = MemoryController::new(Dram::new(16 * PAGE_SIZE));
        m.install_sme_key(&key);
        let len = 3 * PAGE_SIZE as usize + 40;
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        m.write(Hpa(8), &data, EncSel::Sme).unwrap();
        let mut back = vec![0u8; data.len()];
        m.read(Hpa(8), &mut back, EncSel::Sme).unwrap();
        assert_eq!(back, data);

        let mut oracle = Dram::new(16 * PAGE_SIZE);
        seed_write(&mut oracle, &engine, Hpa(8), &data).unwrap();
        let size = m.dram().size() as usize;
        let mut a = vec![0u8; size];
        let mut b = vec![0u8; size];
        m.dram().read_raw(Hpa(0), &mut a).unwrap();
        oracle.read_raw(Hpa(0), &mut b).unwrap();
        assert_eq!(a, b);
    }
}
