//! Guest-owner tooling: building encrypted kernel and disk images in a
//! trusted environment (paper §4.3.2 "VM preparing").
//!
//! The owner plays the role of a sending SEV firmware: it generates
//! transport keys, wraps them for the *target platform's* PDH, encrypts the
//! kernel image page by page in the transport format, and computes the
//! measurement `Mvm`. The resulting [`EncryptedImage`] can be handed to an
//! untrusted hypervisor wholesale: only the target firmware can unwrap the
//! keys, and `RECEIVE_FINISH` will catch any tampering.

use crate::firmware::{derive_session_kek, wrap_transport_keys, SessionBlob, PAGE_NONCE};
use fidelius_crypto::hmac::hmac_sha256;
use fidelius_crypto::modes::{Ctr128, SectorCipher, SECTOR_SIZE};
use fidelius_crypto::rng::Xoshiro256;
use fidelius_crypto::sha256::Sha256;
use fidelius_crypto::x25519::KeyPair;
use fidelius_crypto::Key128;
use fidelius_hw::PAGE_SIZE;

/// An encrypted, integrity-protected kernel image plus the session
/// parameters needed to boot it via the retrofitted RECEIVE flow.
#[derive(Debug, Clone)]
pub struct EncryptedImage {
    /// Transport-encrypted pages, in order.
    pub pages: Vec<Vec<u8>>,
    /// Wrapped transport keys + public ECDH metadata.
    pub session: SessionBlob,
    /// The measurement `Mvm` to pass to `RECEIVE_FINISH`.
    pub measurement: [u8; 32],
}

impl EncryptedImage {
    /// Image size in bytes.
    pub fn len(&self) -> usize {
        self.pages.len() * PAGE_SIZE as usize
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

/// The guest owner's trusted-environment identity and tooling.
pub struct GuestOwner {
    keypair: KeyPair,
    rng: Xoshiro256,
}

impl std::fmt::Debug for GuestOwner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestOwner").field("public", self.keypair.public()).finish()
    }
}

impl GuestOwner {
    /// Creates an owner identity from a seed.
    pub fn new(seed: u64) -> Self {
        let mut rng = Xoshiro256::new(seed ^ 0xA110_4343u64);
        let keypair = KeyPair::from_seed(rng.next_bytes32());
        GuestOwner { keypair, rng }
    }

    /// The owner's public ECDH key (part of the SEV metadata given to
    /// Fidelius).
    pub fn public(&self) -> [u8; 32] {
        *self.keypair.public()
    }

    /// Packages `kernel` (padded to whole pages) into an encrypted image
    /// bootable only on the platform whose PDH is `target_pdh`.
    pub fn package_image(&mut self, kernel: &[u8], target_pdh: &[u8; 32]) -> EncryptedImage {
        let tek: Key128 = self.rng.next_key128();
        let tik: Key128 = self.rng.next_key128();
        let nonce = self.rng.next_bytes32();
        let shared = self.keypair.agree(target_pdh);
        let kek = derive_session_kek(&shared, &nonce);
        let wrapped_keys = wrap_transport_keys(&kek, &tek, &tik);

        let page = PAGE_SIZE as usize;
        let npages = kernel.len().div_ceil(page).max(1);
        let mut padded = kernel.to_vec();
        padded.resize(npages * page, 0);

        let mut hasher = Sha256::new();
        let ctr = Ctr128::new(&tek, PAGE_NONCE);
        let mut pages = Vec::with_capacity(npages);
        for (idx, chunk) in padded.chunks(page).enumerate() {
            hasher.update(chunk);
            let mut ct = chunk.to_vec();
            ctr.apply(idx as u64 * (PAGE_SIZE / 16), &mut ct);
            pages.push(ct);
        }
        let measurement = hmac_sha256(&tik, &hasher.finalize());
        EncryptedImage {
            pages,
            session: SessionBlob { wrapped_keys, origin_pdh: self.public(), nonce },
            measurement,
        }
    }

    /// Generates a fresh disk-encryption key `Kblk` (to be embedded in the
    /// kernel image before packaging).
    pub fn generate_kblk(&mut self) -> Key128 {
        self.rng.next_key128()
    }

    /// Encrypts a raw disk image under `kblk`, sector `i` of the image
    /// being disk sector `i`. The input is padded to whole sectors.
    pub fn encrypt_disk_image(kblk: &Key128, plain: &[u8]) -> Vec<u8> {
        let nsectors = plain.len().div_ceil(SECTOR_SIZE).max(1);
        let mut padded = plain.to_vec();
        padded.resize(nsectors * SECTOR_SIZE, 0);
        SectorCipher::new(kblk).encrypt_sectors(0, &mut padded);
        padded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::{Firmware, GuestPolicy};
    use fidelius_hw::cpu::Machine;
    use fidelius_hw::memctrl::EncSel;
    use fidelius_hw::{Asid, Hpa};

    #[test]
    fn owner_image_boots_through_receive_flow() {
        let mut machine = Machine::new(256 * PAGE_SIZE);
        let mut fw = Firmware::new(11);
        fw.init().unwrap();
        let mut owner = GuestOwner::new(22);

        let mut kernel = b"FIDELIUS-KERNEL v1 ".to_vec();
        kernel.extend_from_slice(&[0xC3; 5000]); // spans 2 pages
        let image = owner.package_image(&kernel, &fw.pdh_public());
        assert_eq!(image.pages.len(), 2);
        assert_eq!(image.len(), 2 * PAGE_SIZE as usize);
        // Ciphertext, not the kernel.
        assert_ne!(&image.pages[0][..19], &kernel[..19]);

        // Fidelius-side boot: RECEIVE the image into guest memory.
        let h = fw.receive_start(&image.session, GuestPolicy::default()).unwrap();
        let base = Hpa(0x2_0000);
        for (i, page) in image.pages.iter().enumerate() {
            fw.receive_update_page(&mut machine, h, page, i as u64, base.add(i as u64 * PAGE_SIZE))
                .unwrap();
        }
        fw.receive_finish(h, &image.measurement).unwrap();
        fw.activate(&mut machine, h, Asid(1)).unwrap();

        // The kernel is now readable through the guest key only.
        let mut head = [0u8; 19];
        machine.mc.read(base, &mut head, EncSel::Guest(Asid(1))).unwrap();
        assert_eq!(&head, b"FIDELIUS-KERNEL v1 ");
        let mut raw = [0u8; 19];
        machine.mc.dram().read_raw(base, &mut raw).unwrap();
        assert_ne!(&raw, b"FIDELIUS-KERNEL v1 ");
    }

    #[test]
    fn tampered_image_is_rejected() {
        let mut machine = Machine::new(64 * PAGE_SIZE);
        let mut fw = Firmware::new(12);
        fw.init().unwrap();
        let mut owner = GuestOwner::new(23);
        let mut image = owner.package_image(b"kernel", &fw.pdh_public());
        image.pages[0][7] ^= 1;
        let h = fw.receive_start(&image.session, GuestPolicy::default()).unwrap();
        fw.receive_update_page(&mut machine, h, &image.pages[0], 0, Hpa(0x8000)).unwrap();
        assert!(fw.receive_finish(h, &image.measurement).is_err());
    }

    #[test]
    fn image_for_other_platform_rejected() {
        let mut fw_a = Firmware::new(13);
        fw_a.init().unwrap();
        let mut fw_b = Firmware::new(14);
        fw_b.init().unwrap();
        let mut owner = GuestOwner::new(24);
        let image = owner.package_image(b"kernel", &fw_a.pdh_public());
        assert!(fw_b.receive_start(&image.session, GuestPolicy::default()).is_err());
    }

    #[test]
    fn disk_image_encryption_roundtrip() {
        let mut owner = GuestOwner::new(25);
        let kblk = owner.generate_kblk();
        let plain = b"filesystem-contents".repeat(40); // ~760B → 2 sectors
        let enc = GuestOwner::encrypt_disk_image(&kblk, &plain);
        assert_eq!(enc.len(), 2 * SECTOR_SIZE);
        assert_ne!(&enc[..19], &plain[..19]);
        // Decrypt sector by sector (runs of one) to verify the numbering.
        let cipher = SectorCipher::new(&kblk);
        let mut dec = enc.clone();
        for (i, s) in dec.chunks_mut(SECTOR_SIZE).enumerate() {
            cipher.decrypt_sectors(i as u64, s);
        }
        assert_eq!(&dec[..plain.len()], plain.as_slice());
    }

    #[test]
    fn empty_kernel_still_produces_one_page() {
        let mut owner = GuestOwner::new(26);
        let fw = Firmware::new(15);
        let image = owner.package_image(b"", &fw.pdh_public());
        assert_eq!(image.pages.len(), 1);
        assert!(!image.is_empty());
    }
}
