//! Randomized (but fully deterministic) tests over the core data
//! structures and invariants. A seeded xorshift generator stands in for a
//! property-testing framework: every case is reproducible from the fixed
//! seeds, with no external dependencies.

use fidelius::core::git::GitEntry;
use fidelius::core::pit::{PitEntry, Usage};
use fidelius::core::shadow::{ShadowCtx, Verdict};
use fidelius::crypto::aes::Aes128;
use fidelius::crypto::hmac::{hmac_sha256, verify_hmac_sha256};
use fidelius::crypto::keywrap;
use fidelius::crypto::modes::{Ctr128, PaTweakCipher, SectorCipher, SECTOR_SIZE};
use fidelius::crypto::sha256::Sha256;
use fidelius::hw::vmcb::{ExitCode, VmcbField, VmcbImage, ALL_FIELDS};
use fidelius::xen::domain::DomainId;
use fidelius::xen::grants::GrantEntry;

/// xorshift64* — deterministic pseudo-random stream for test inputs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn bool(&mut self) -> bool {
        self.next() & 1 != 0
    }
    fn bytes<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.fill(&mut out);
        out
    }
    fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let v = self.next().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
    fn vec(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill(&mut v);
        v
    }
}

const CASES: usize = 64;

#[test]
fn aes_roundtrips() {
    let mut rng = Rng::new(0xAE5_0001);
    for _ in 0..CASES {
        let key: [u8; 16] = rng.bytes();
        let block: [u8; 16] = rng.bytes();
        let cipher = Aes128::new(&key);
        let mut b = block;
        cipher.encrypt_block(&mut b);
        cipher.decrypt_block(&mut b);
        assert_eq!(b, block);
    }
}

#[test]
fn ctr_is_an_involution() {
    let mut rng = Rng::new(0xC7_0002);
    for _ in 0..CASES {
        let key: [u8; 16] = rng.bytes();
        let nonce = rng.next();
        let dlen = rng.below(200) as usize;
        let data = rng.vec(dlen);
        let ctr = Ctr128::new(&key, nonce);
        let mut d = data.clone();
        ctr.apply(3, &mut d);
        ctr.apply(3, &mut d);
        assert_eq!(d, data);
    }
}

#[test]
fn sector_cipher_roundtrips_and_differs() {
    let mut rng = Rng::new(0x5EC_0003);
    for _ in 0..CASES {
        let key: [u8; 16] = rng.bytes();
        let sector_no = rng.next();
        let byte = rng.next() as u8;
        let sc = SectorCipher::new(&key);
        let plain = [byte; SECTOR_SIZE];
        let mut s = plain;
        sc.encrypt_sectors(sector_no, &mut s);
        assert_ne!(s, plain);
        sc.decrypt_sectors(sector_no, &mut s);
        assert_eq!(s, plain);
    }
}

#[test]
fn pa_tweak_binds_ciphertext_to_address() {
    let mut rng = Rng::new(0x9A_0004);
    for _ in 0..CASES {
        let key: [u8; 16] = rng.bytes();
        let pa = rng.below(1 << 40);
        let delta = 16 + rng.below((1 << 20) - 16);
        let block: [u8; 16] = rng.bytes();
        let c = PaTweakCipher::new(&key);
        let mut ct = block;
        c.encrypt_block(pa, &mut ct);
        // Moving ciphertext to a different (block-aligned) address garbles.
        let mut moved = ct;
        c.decrypt_block(pa + (delta & !15), &mut moved);
        assert_ne!(moved, block);
        // In place it decrypts.
        let mut inplace = ct;
        c.decrypt_block(pa, &mut inplace);
        assert_eq!(inplace, block);
    }
}

#[test]
fn sha256_incremental_equals_oneshot() {
    let mut rng = Rng::new(0x5A_0005);
    for _ in 0..CASES {
        let dlen = rng.below(500) as usize;
        let data = rng.vec(dlen);
        let split = (rng.below(500) as usize).min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }
}

#[test]
fn hmac_detects_any_single_bit_flip() {
    let mut rng = Rng::new(0x4AC_0006);
    for _ in 0..CASES {
        let klen = 1 + rng.below(39) as usize;
        let key = rng.vec(klen);
        let mlen = 1 + rng.below(99) as usize;
        let msg = rng.vec(mlen);
        let bit = rng.next() as u16;
        let tag = hmac_sha256(&key, &msg);
        assert!(verify_hmac_sha256(&key, &msg, &tag));
        let mut tampered = msg.clone();
        let idx = (bit as usize) % (tampered.len() * 8);
        tampered[idx / 8] ^= 1 << (idx % 8);
        assert!(!verify_hmac_sha256(&key, &tampered, &tag));
    }
}

#[test]
fn keywrap_roundtrips() {
    let mut rng = Rng::new(0xEE_0007);
    for _ in 0..CASES {
        let kek: [u8; 16] = rng.bytes();
        let blocks = 2 + rng.below(4) as usize;
        let data: Vec<u8> = (0..blocks * 8).map(|i| i as u8).collect();
        let wrapped = keywrap::wrap(&kek, &data).unwrap();
        assert_eq!(keywrap::unwrap(&kek, &wrapped).unwrap(), data);
    }
}

#[test]
fn pit_entry_packing_is_lossless() {
    let usages = [
        Usage::XenCode,
        Usage::XenData,
        Usage::XenPageTable,
        Usage::NptPage,
        Usage::GuestPage,
        Usage::FideliusCode,
        Usage::FideliusData,
        Usage::GrantTable,
        Usage::Vmcb,
        Usage::WriteOnce,
    ];
    let mut rng = Rng::new(0x917_0008);
    for _ in 0..CASES {
        let usage = usages[rng.below(usages.len() as u64) as usize];
        let owner = rng.below(4096) as u16;
        let asid = rng.below(4096) as u16;
        let shared = rng.bool();
        let e = PitEntry::new(usage, owner, asid, shared);
        assert!(e.valid());
        assert_eq!(e.usage(), usage);
        assert_eq!(e.owner(), owner & 0xFFF);
        assert_eq!(e.asid(), asid & 0xFFF);
        assert_eq!(e.shared(), shared);
    }
}

#[test]
fn grant_entry_serialization_roundtrips() {
    let mut rng = Rng::new(0x6AA_0009);
    for _ in 0..CASES {
        let e = GrantEntry {
            valid: rng.bool(),
            writable: rng.bool(),
            owner: rng.next() as u16,
            grantee: rng.next() as u16,
            gpa_page: rng.next(),
            frame: fidelius::hw::Hpa(rng.below(1 << 46) & !0xFFF),
        };
        assert_eq!(GrantEntry::from_words(e.to_words()), e);
    }
}

#[test]
fn git_entry_covers_exactly_its_range() {
    let mut rng = Rng::new(0x617_000A);
    for _ in 0..CASES {
        let start = rng.below(1000);
        let len = 1 + rng.below(63);
        let probe = rng.below(1100);
        let writable = rng.bool();
        let e = GitEntry {
            initiator: DomainId(1),
            target: DomainId(2),
            gpa_page: start,
            nframes: len,
            writable,
        };
        let inside = probe >= start && probe < start + len;
        assert_eq!(e.covers(DomainId(1), DomainId(2), probe, false), inside);
        assert_eq!(e.covers(DomainId(1), DomainId(2), probe, true), inside && writable);
    }
}

#[test]
fn shadow_rejects_any_hidden_field_change() {
    let mut rng = Rng::new(0x54A_000B);
    // Cover every field at least once, then random (field, value) pairs.
    let mut cases: Vec<(usize, u64)> =
        (0..ALL_FIELDS.len()).map(|i| (i, 1 + rng.next() % (u64::MAX - 1))).collect();
    for _ in 0..CASES {
        cases.push((rng.below(ALL_FIELDS.len() as u64) as usize, 1 + rng.next() % (u64::MAX - 1)));
    }
    for (field_idx, value) in cases {
        let mut vmcb = VmcbImage::new();
        vmcb.set(VmcbField::Rip, 0x1000)
            .set(VmcbField::Asid, 5)
            .set(VmcbField::Cr3, 0x9000)
            .set(VmcbField::ExitCode, ExitCode::NestedPageFault as u64);
        let sh = ShadowCtx::capture(vmcb, [0; 16], ExitCode::NestedPageFault);
        let mut handed = sh.masked_vmcb();
        let field = ALL_FIELDS[field_idx];
        let changed = handed.get(field) != value;
        handed.set(field, value);
        let verdict = sh.verify_and_merge(&handed);
        if changed {
            // On an NPF exit, NO field is legally writable.
            assert_ne!(
                std::mem::discriminant(&verdict),
                std::mem::discriminant(&Verdict::Clean(vmcb))
            );
        } else {
            assert!(matches!(verdict, Verdict::Clean(_)));
        }
    }
}

#[test]
fn x25519_agreement_is_symmetric() {
    use fidelius::crypto::x25519::KeyPair;
    let mut rng = Rng::new(0x0002_5519_000C);
    for _ in 0..8 {
        let ka = KeyPair::from_seed(rng.bytes());
        let kb = KeyPair::from_seed(rng.bytes());
        assert_eq!(ka.agree(kb.public()), kb.agree(ka.public()));
    }
}
