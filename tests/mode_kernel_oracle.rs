//! Mode-level oracle for every host AES engine: the CTR, sector and
//! physical-address-tweak (XEX) modes must be *bit-identical* to a
//! textbook construction built from single blocks of the GF-math
//! reference (`aes_soft::reference::RefAes128`), and every available
//! [`AesBackend`] must agree with every other.
//!
//! On AES-NI schedules these modes run fused whole-buffer kernels (round
//! keys loaded once, counters and tweaks built in registers, XEX `src →
//! dst`); on the T-table and bitsliced schedules they run the portable
//! loops. Built without the `aesni` feature this test pins the portable
//! loops and the mode entry points; built with it on a CPU with AES
//! instructions it pins the fused kernels too.
//!
//! Coverage:
//!
//! - CTR (`Ctr128::apply_with`) at every length 0..=4200 bytes, so every
//!   ragged tail after every number of 8-block batches, at an ordinary
//!   start counter and at one within 8 of `u64::MAX`, where it wraps;
//! - sector runs of 0..=9 sectors, including sector numbers that wrap;
//! - XEX encrypt and decrypt, in place and `src → dst`, over runs of
//!   0..=272 blocks at addresses that cross `u64::MAX`, and over a short
//!   run at every 16-byte offset of a page.

use fidelius::crypto::aes::{Aes128, AesBackend};
use fidelius::crypto::aes_soft::reference::RefAes128;
use fidelius::crypto::modes::{Ctr128, PaTweakCipher, SectorCipher, SECTOR_SIZE};

/// The backends this build and host can run (always at least two).
fn backends() -> Vec<AesBackend> {
    let available: Vec<AesBackend> =
        AesBackend::ALL.into_iter().filter(|b| b.available()).collect();
    for b in AesBackend::ALL.into_iter().filter(|b| !b.available()) {
        eprintln!("note: backend `{}` unavailable in this build/host, skipped", b.name());
    }
    assert!(available.len() >= 2, "ttable and bitsliced must always be available");
    available
}

/// xorshift64* — deterministic inputs without external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
    fn key(&mut self) -> [u8; 16] {
        self.bytes(16).try_into().unwrap()
    }
}

/// Textbook CTR keystream: block `i` is `AES(hi(i) ‖ lo(i))`, both halves
/// big-endian, truncated to `len` bytes.
fn reference_keystream(aes: &RefAes128, len: usize, block: impl Fn(u64) -> (u64, u64)) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 16);
    for i in 0..len.div_ceil(16) as u64 {
        let (hi, lo) = block(i);
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&hi.to_be_bytes());
        b[8..].copy_from_slice(&lo.to_be_bytes());
        aes.encrypt_block(&mut b);
        out.extend_from_slice(&b);
    }
    out.truncate(len);
    out
}

fn xor(a: &[u8], b: &[u8]) -> Vec<u8> {
    a.iter().zip(b).map(|(x, y)| x ^ y).collect()
}

/// Textbook XEX: `T ⊕ AES±(T ⊕ block)` with `T = tweak_mask(pa)` for the
/// block at `pa = base + 16·i` (wrapping).
fn reference_xex(aes: &RefAes128, encrypt: bool, base: u64, data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    for (i, chunk) in out.chunks_exact_mut(16).enumerate() {
        let mask = PaTweakCipher::tweak_mask(base.wrapping_add(16 * i as u64));
        let block: &mut [u8; 16] = chunk.try_into().unwrap();
        for (b, m) in block.iter_mut().zip(mask) {
            *b ^= m;
        }
        if encrypt {
            aes.encrypt_block(block);
        } else {
            aes.decrypt_block(block);
        }
        for (b, m) in block.iter_mut().zip(mask) {
            *b ^= m;
        }
    }
    out
}

/// Asserts every backend produced the same bytes as the first.
fn assert_backends_agree(what: &str, outputs: &[(AesBackend, Vec<u8>)]) {
    let (first, want) = &outputs[0];
    for (backend, got) in &outputs[1..] {
        assert!(got == want, "{what}: backend {} differs from {}", backend.name(), first.name());
    }
}

#[test]
fn ctr_matches_reference_at_every_length_and_wraps_its_counter() {
    let mut rng = Rng(0x00C7_2024);
    let key = rng.key();
    let reference = RefAes128::new(&key);
    let nonce = rng.next();
    let plain = rng.bytes(4200);
    for start in [rng.next() >> 8, u64::MAX - 7, u64::MAX] {
        let keystream =
            reference_keystream(&reference, plain.len(), |i| (nonce, start.wrapping_add(i)));
        let mut outputs = Vec::new();
        for backend in backends() {
            let cipher = Aes128::with_backend(&key, backend).unwrap();
            let mut last = Vec::new();
            for len in 0..=plain.len() {
                let mut data = plain[..len].to_vec();
                Ctr128::apply_with(&cipher, nonce, start, &mut data);
                assert!(
                    data == xor(&plain[..len], &keystream[..len]),
                    "{}: CTR diverged at start {start:#x}, length {len}",
                    backend.name()
                );
                last = data;
            }
            outputs.push((backend, last));
        }
        assert_backends_agree("ctr", &outputs);
    }
}

#[test]
fn sector_runs_match_reference_and_wrap_sector_numbers() {
    let mut rng = Rng(0x5EC7_0125);
    let key = rng.key();
    let reference = RefAes128::new(&key);
    let blocks_per_sector = (SECTOR_SIZE / 16) as u64;
    for first in [rng.next() >> 4, u64::MAX - 4] {
        for sectors in 0..=9usize {
            let plain = rng.bytes(sectors * SECTOR_SIZE);
            let keystream = reference_keystream(&reference, plain.len(), |i| {
                (first.wrapping_add(i / blocks_per_sector), i % blocks_per_sector)
            });
            let want = xor(&plain, &keystream);
            let mut outputs = Vec::new();
            for backend in backends() {
                let cipher = SectorCipher::with_backend(&key, backend).unwrap();
                let mut run = plain.clone();
                cipher.encrypt_sectors(first, &mut run);
                assert!(run == want, "{}: run of {sectors} at {first:#x}", backend.name());
                let mut one_by_one = plain.clone();
                for (s, sector) in one_by_one.chunks_exact_mut(SECTOR_SIZE).enumerate() {
                    cipher.encrypt_sector(first.wrapping_add(s as u64), sector);
                }
                assert!(one_by_one == want, "{}: per-sector calls", backend.name());
                outputs.push((backend, run.clone()));
                cipher.decrypt_sectors(first, &mut run);
                assert!(run == plain, "{}: run did not round-trip", backend.name());
            }
            assert_backends_agree("sectors", &outputs);
        }
    }
}

/// Runs every XEX entry point on one backend and checks each against the
/// reference ciphertext/plaintext pair for `[base, base + len)`.
fn check_xex(backend: AesBackend, key: &[u8; 16], base: u64, plain: &[u8], cipher_text: &[u8]) {
    let engine = PaTweakCipher::with_backend(key, backend).unwrap();
    let name = backend.name();
    let len = plain.len();

    let mut in_place = plain.to_vec();
    engine.encrypt_blocks(base, &mut in_place);
    assert!(in_place == cipher_text, "{name}: encrypt in place, base {base:#x}, {len} bytes");
    engine.decrypt_blocks(base, &mut in_place);
    assert!(in_place == plain, "{name}: decrypt in place, base {base:#x}, {len} bytes");

    // The destination starts as unrelated bytes: every byte must be
    // overwritten, and the source must stay untouched.
    let mut dst = vec![0xA5u8; len];
    engine.encrypt_blocks_to(base, plain, &mut dst);
    assert!(dst == cipher_text, "{name}: encrypt src→dst, base {base:#x}, {len} bytes");
    let mut back = vec![0x5Au8; len];
    engine.decrypt_blocks_to(base, &dst, &mut back);
    assert!(back == plain, "{name}: decrypt src→dst, base {base:#x}, {len} bytes");

    // Per-block calls are the same transform.
    for (i, chunk) in dst.chunks_exact(16).enumerate() {
        let mut block: [u8; 16] = chunk.try_into().unwrap();
        engine.decrypt_block(base.wrapping_add(16 * i as u64), &mut block);
        assert!(block == plain[16 * i..16 * i + 16], "{name}: decrypt_block {i}");
    }
}

#[test]
fn xex_matches_reference_for_every_run_length_across_the_address_wrap() {
    let mut rng = Rng(0x0EE0_0272);
    let key = rng.key();
    let reference = RefAes128::new(&key);
    let max = 272 * 16;
    // The run starting 130 blocks below 2^64 wraps its address mid-run.
    for base in [0x7_3000u64, 0u64.wrapping_sub(16 * 130), u64::MAX - 0xF] {
        let plain = rng.bytes(max);
        let cipher_text = reference_xex(&reference, true, base, &plain);
        assert_eq!(reference_xex(&reference, false, base, &cipher_text), plain);
        for backend in backends() {
            for blocks in 0..=272usize {
                let len = 16 * blocks;
                check_xex(backend, &key, base, &plain[..len], &cipher_text[..len]);
            }
        }
        let outputs: Vec<_> = backends()
            .into_iter()
            .map(|backend| {
                let mut data = plain.clone();
                PaTweakCipher::with_backend(&key, backend).unwrap().encrypt_blocks(base, &mut data);
                (backend, data)
            })
            .collect();
        assert_backends_agree("xex", &outputs);
    }
}

#[test]
fn xex_matches_reference_at_every_block_offset_of_a_page() {
    let mut rng = Rng(0x9A6E_0016);
    let key = rng.key();
    let reference = RefAes128::new(&key);
    // 17 blocks: two full 8-block batches and a one-block tail.
    let plain = rng.bytes(17 * 16);
    for page in [0x42_0000u64, 0xFFFF_FFFF_FFFF_F000] {
        for offset in (0..4096u64).step_by(16) {
            let base = page.wrapping_add(offset);
            let cipher_text = reference_xex(&reference, true, base, &plain);
            for backend in backends() {
                check_xex(backend, &key, base, &plain, &cipher_text);
            }
        }
    }
}
