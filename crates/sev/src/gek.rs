//! The paper's §8 hardware suggestion #2, implemented: **customized keys**.
//!
//! > "a better solution is to add a series of instructions which are
//! > similar to SEND and RECEIVE APIs except that they allow customized
//! > keys. Specifically, we can use a SETENC_GEK instruction to generate a
//! > customized guest encryption key (GEK), which is then used to encrypt
//! > and decrypt specified memory range through the ENC and DEC series of
//! > APIs."
//!
//! This removes the two pain points the paper lists: the owner no longer
//! pre-binds the kernel image to one machine's ECDH identity, and I/O
//! encryption no longer needs the s-dom/r-dom state contortion — a GEK is
//! a first-class firmware object with direct ENC/DEC commands.

use crate::error::SevError;
use crate::firmware::{Firmware, GuestState, Handle};
use fidelius_crypto::modes::Ctr128;
use fidelius_crypto::rng::Xoshiro256;
use fidelius_crypto::Key128;
use fidelius_hw::cpu::Machine;
use fidelius_hw::fxhash::FxBuildHasher;
use fidelius_hw::Hpa;
use std::collections::HashMap;

/// A handle naming a customized guest encryption key inside the firmware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GekHandle(pub u32);

/// The GEK extension state, attached to a [`Firmware`].
///
/// Modeled as a separate engine so the baseline firmware stays exactly
/// the shipping SEV API; a platform with the §8 extension instantiates
/// both.
pub struct GekEngine {
    keys: HashMap<GekHandle, (Handle, Key128), FxBuildHasher>,
    next: u32,
    rng: Xoshiro256,
}

impl std::fmt::Debug for GekEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GekEngine").field("keys", &self.keys.len()).finish()
    }
}

impl GekEngine {
    /// A fresh engine (deterministic from the seed).
    pub fn new(seed: u64) -> Self {
        GekEngine { keys: HashMap::default(), next: 1, rng: Xoshiro256::new(seed ^ 0x6E4B) }
    }

    /// `SETENC_GEK`: generates a customized key bound to an existing guest
    /// context. Only the owning guest's context may use it later.
    ///
    /// # Errors
    ///
    /// The guest must exist and be runnable.
    pub fn setenc_gek(&mut self, fw: &Firmware, guest: Handle) -> Result<GekHandle, SevError> {
        let (state, _) = fw.guest_status(guest)?;
        if state != GuestState::Running && state != GuestState::Launching {
            return Err(SevError::InvalidGuestState {
                expected: GuestState::Running,
                actual: state,
            });
        }
        let h = GekHandle(self.next);
        self.next += 1;
        self.keys.insert(h, (guest, self.rng.next_key128()));
        Ok(h)
    }

    fn key_for(&self, gek: GekHandle, guest: Handle) -> Result<&Key128, SevError> {
        match self.keys.get(&gek) {
            Some((owner, key)) if *owner == guest => Ok(key),
            Some(_) => Err(SevError::BadSessionKeys), // wrong guest context
            None => Err(SevError::UnknownHandle(gek.0)),
        }
    }

    /// `ENC`: encrypts `len` bytes at physical `pa` in place under the GEK
    /// (CTR keyed by `stream`, e.g. the sector number). Unlike the
    /// engine's PA-tweaked mode, GEK ciphertext is position-independent —
    /// it is *meant* to travel (to disk, over migration channels).
    ///
    /// # Errors
    ///
    /// Unknown handles, wrong guest binding, bad physical ranges.
    pub fn enc(
        &self,
        machine: &mut Machine,
        guest: Handle,
        gek: GekHandle,
        pa: Hpa,
        len: u64,
        stream: u64,
    ) -> Result<(), SevError> {
        let key = self.key_for(gek, guest)?;
        let mut buf = vec![0u8; len as usize];
        machine.mc.dram().read_raw(pa, &mut buf).map_err(SevError::Hw)?;
        Ctr128::new(key, stream).apply(0, &mut buf);
        machine.mc.dram_mut().write_raw(pa, &buf).map_err(SevError::Hw)?;
        let lines = len.div_ceil(fidelius_hw::CACHE_LINE).max(1);
        machine.cycles.charge_as(
            fidelius_hw::cycles::CycleCategory::CryptoEngine,
            lines as f64 * machine.cost.engine_line_extra,
        );
        Ok(())
    }

    /// `DEC`: the inverse of [`GekEngine::enc`] (CTR is an involution, but
    /// the separate entry point keeps the instruction-set shape of §8).
    ///
    /// # Errors
    ///
    /// Same as `ENC`.
    pub fn dec(
        &self,
        machine: &mut Machine,
        guest: Handle,
        gek: GekHandle,
        pa: Hpa,
        len: u64,
        stream: u64,
    ) -> Result<(), SevError> {
        self.enc(machine, guest, gek, pa, len, stream)
    }

    /// Destroys a GEK (guest teardown).
    pub fn drop_gek(&mut self, gek: GekHandle) -> bool {
        self.keys.remove(&gek).is_some()
    }

    /// Number of live GEKs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no GEKs exist.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::GuestPolicy;
    use fidelius_hw::PAGE_SIZE;

    fn setup() -> (Machine, Firmware, GekEngine, Handle) {
        let machine = Machine::new(64 * PAGE_SIZE);
        let mut fw = Firmware::new(1);
        fw.init().unwrap();
        let h = fw.launch_start(GuestPolicy::default()).unwrap();
        fw.launch_finish(h).unwrap();
        let gek = GekEngine::new(2);
        (machine, fw, gek, h)
    }

    #[test]
    fn enc_dec_roundtrip_and_ciphertext_at_rest() {
        let (mut m, fw, mut eng, guest) = setup();
        let gek = eng.setenc_gek(&fw, guest).unwrap();
        let pa = Hpa(0x4000);
        m.mc.dram_mut().write_raw(pa, b"customized-key data!").unwrap();
        eng.enc(&mut m, guest, gek, pa, 20, 7).unwrap();
        let mut raw = [0u8; 20];
        m.mc.dram().read_raw(pa, &mut raw).unwrap();
        assert_ne!(&raw, b"customized-key data!");
        eng.dec(&mut m, guest, gek, pa, 20, 7).unwrap();
        m.mc.dram().read_raw(pa, &mut raw).unwrap();
        assert_eq!(&raw, b"customized-key data!");
    }

    #[test]
    fn gek_ciphertext_is_position_independent() {
        // The property SEND/RECEIVE-based I/O lacks: GEK ciphertext can be
        // moved (disk, network) and decrypted elsewhere.
        let (mut m, fw, mut eng, guest) = setup();
        let gek = eng.setenc_gek(&fw, guest).unwrap();
        m.mc.dram_mut().write_raw(Hpa(0x1000), b"travelling bytes").unwrap();
        eng.enc(&mut m, guest, gek, Hpa(0x1000), 16, 3).unwrap();
        let mut ct = [0u8; 16];
        m.mc.dram().read_raw(Hpa(0x1000), &mut ct).unwrap();
        // "Write to disk, read back into a different frame."
        m.mc.dram_mut().write_raw(Hpa(0x9000), &ct).unwrap();
        eng.dec(&mut m, guest, gek, Hpa(0x9000), 16, 3).unwrap();
        let mut back = [0u8; 16];
        m.mc.dram().read_raw(Hpa(0x9000), &mut back).unwrap();
        assert_eq!(&back, b"travelling bytes");
    }

    #[test]
    fn gek_is_bound_to_its_guest() {
        let (mut m, mut fw, mut eng, guest) = setup();
        let gek = eng.setenc_gek(&fw, guest).unwrap();
        let other = fw.launch_start(GuestPolicy::default()).unwrap();
        fw.launch_finish(other).unwrap();
        // A hypervisor relaying another guest's context cannot use the key.
        assert!(matches!(
            eng.enc(&mut m, other, gek, Hpa(0x1000), 16, 0),
            Err(SevError::BadSessionKeys)
        ));
    }

    #[test]
    fn unknown_and_dropped_handles_fail() {
        let (mut m, fw, mut eng, guest) = setup();
        assert!(matches!(
            eng.enc(&mut m, guest, GekHandle(99), Hpa(0), 16, 0),
            Err(SevError::UnknownHandle(99))
        ));
        let gek = eng.setenc_gek(&fw, guest).unwrap();
        assert!(eng.drop_gek(gek));
        assert!(!eng.drop_gek(gek));
        assert!(eng.is_empty());
        assert!(eng.enc(&mut m, guest, gek, Hpa(0), 16, 0).is_err());
    }

    #[test]
    fn distinct_geks_produce_distinct_ciphertext() {
        let (mut m, fw, mut eng, guest) = setup();
        let g1 = eng.setenc_gek(&fw, guest).unwrap();
        let g2 = eng.setenc_gek(&fw, guest).unwrap();
        m.mc.dram_mut().write_raw(Hpa(0x1000), &[0u8; 16]).unwrap();
        m.mc.dram_mut().write_raw(Hpa(0x2000), &[0u8; 16]).unwrap();
        eng.enc(&mut m, guest, g1, Hpa(0x1000), 16, 0).unwrap();
        eng.enc(&mut m, guest, g2, Hpa(0x2000), 16, 0).unwrap();
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        m.mc.dram().read_raw(Hpa(0x1000), &mut a).unwrap();
        m.mc.dram().read_raw(Hpa(0x2000), &mut b).unwrap();
        assert_ne!(a, b);
    }
}
