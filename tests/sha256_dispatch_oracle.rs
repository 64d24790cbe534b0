//! Oracle test for the dispatched SHA-256: whatever compress core
//! `Sha256::update` picks on this host (SHA-NI when the crypto crate is
//! built with `aesni` and the CPU has the SHA extensions, the portable
//! core otherwise) must produce the digests of the portable core, for
//! every message length and however the message is split across
//! `update` calls. Without the feature both sides run the portable core
//! and the FIPS 180-4 vectors still pin it.

use fidelius::crypto::sha256::Sha256;

/// xorshift64* — deterministic pseudo-random stream for test inputs.
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
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Hashes `data` through the dispatched path, cut into `update` calls at
/// the sorted `cuts`.
fn dispatched(data: &[u8], cuts: &mut [usize]) -> [u8; 32] {
    cuts.sort_unstable();
    let mut h = Sha256::new();
    let mut at = 0;
    for &cut in cuts.iter() {
        h.update(&data[at..cut]);
        at = cut;
    }
    h.update(&data[at..]);
    h.finalize()
}

#[test]
fn dispatched_matches_portable_for_every_length_and_split() {
    let mut rng = Rng(0x5A25_6D15_BA7C_0001);
    let data: Vec<u8> = (0..1100).map(|_| rng.next() as u8).collect();
    for len in 0..=data.len() {
        let msg = &data[..len];
        let expect = Sha256::digest_portable(msg);
        assert_eq!(Sha256::digest(msg), expect, "one-shot, length {len}");
        for round in 0..3 {
            let mut cuts: Vec<usize> =
                (0..1 + rng.next() % 4).map(|_| (rng.next() % (len as u64 + 1)) as usize).collect();
            assert_eq!(
                dispatched(msg, &mut cuts),
                expect,
                "length {len}, split round {round} at {cuts:?}"
            );
        }
    }
}

#[test]
fn fips180_vectors_hold_on_both_paths() {
    let two_block = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    let million_a = vec![b'a'; 1_000_000];
    let vectors: [(&[u8], &str); 3] = [
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (two_block, "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
        (&million_a, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
    ];
    for (msg, want) in vectors {
        assert_eq!(hex(&Sha256::digest_portable(msg)), want, "portable, {} bytes", msg.len());
        assert_eq!(hex(&Sha256::digest(msg)), want, "dispatched, {} bytes", msg.len());
    }
    // The million-`a` message fed in uneven pieces, as the measurement
    // paths feed pages.
    let mut h = Sha256::new();
    for piece in million_a.chunks(4093) {
        h.update(piece);
    }
    assert_eq!(hex(&h.finalize()), vectors[2].1, "dispatched, 4093-byte updates");
}
