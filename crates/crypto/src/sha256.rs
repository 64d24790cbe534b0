//! SHA-256, used for SEV launch/send measurements (`Mvm` in the paper).
//!
//! The compression function has two implementations: the portable core
//! below, and — with the `aesni` cargo feature on x86-64 hosts that have
//! the SHA extensions — the SHA-NI core in `sha_ni`. [`Sha256::update`]
//! picks one per run of whole 64-byte blocks (never per block); the
//! choice is detected once per process and never changes a digest.

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use fidelius_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffer_len: 0, total_len: 0 }
    }

    /// Convenience one-shot digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds more data into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finish(compress_blocks)
    }

    /// One-shot digest on the portable compress, whatever the host
    /// supports: the oracle the dispatched path is tested against.
    #[doc(hidden)]
    pub fn digest_portable(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.absorb(data, compress_portable);
        h.finish(compress_portable)
    }

    /// Buffers `data`, handing every run of whole blocks to `compress` in
    /// one call.
    fn absorb(&mut self, mut data: &[u8], compress: fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                // Still partial (so `data` is empty): keep the buffer as is.
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            compress(&mut self.state, &data[..whole]);
        }
        let tail = &data[whole..];
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Appends the FIPS 180-4 padding and length, returning the digest.
    fn finish(mut self, compress: fn(&mut [u32; 8], &[u8])) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // 0x80, zeros up to 56 mod 64, then the 64-bit length.
        let zeros = (119 - self.buffer_len) % 64;
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_be_bytes());
        self.absorb(&pad[..9 + zeros], compress);
        debug_assert_eq!(self.buffer_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    // Unrolled in groups of 8 with the working variables renamed per round
    // (instead of the textbook `h = g; g = f; ...` rotation) and the message
    // schedule kept as a rolling 16-word ring extended in place, so a round
    // is pure ALU work on registers with no shuffling or 64-word spill.
    // Same FIPS 180-4 math, ~1.3x the textbook loop on the measurement-heavy
    // SEND/RECEIVE paths.
    fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (i, item) in w.iter_mut().enumerate() {
            *item = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
                let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
                let ch = ($e & $f) ^ (!$e & $g);
                let t1 = $h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[$i])
                    .wrapping_add(w[$i % 16]);
                let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
                let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(s0).wrapping_add(maj);
            };
        }
        macro_rules! extend {
            ($j:expr) => {{
                let s0 = w[($j + 1) % 16].rotate_right(7)
                    ^ w[($j + 1) % 16].rotate_right(18)
                    ^ (w[($j + 1) % 16] >> 3);
                let s1 = w[($j + 14) % 16].rotate_right(17)
                    ^ w[($j + 14) % 16].rotate_right(19)
                    ^ (w[($j + 14) % 16] >> 10);
                w[$j % 16] =
                    w[$j % 16].wrapping_add(s0).wrapping_add(w[($j + 9) % 16]).wrapping_add(s1);
            }};
        }
        let mut i = 0;
        while i < 64 {
            if i >= 16 {
                extend!(i);
                extend!(i + 1);
                extend!(i + 2);
                extend!(i + 3);
                extend!(i + 4);
                extend!(i + 5);
                extend!(i + 6);
                extend!(i + 7);
            }
            round!(a, b, c, d, e, f, g, h, i);
            round!(h, a, b, c, d, e, f, g, i + 1);
            round!(g, h, a, b, c, d, e, f, i + 2);
            round!(f, g, h, a, b, c, d, e, i + 3);
            round!(e, f, g, h, a, b, c, d, i + 4);
            round!(d, e, f, g, h, a, b, c, i + 5);
            round!(c, d, e, f, g, h, a, b, i + 6);
            round!(b, c, d, e, f, g, h, a, i + 7);
            i += 8;
        }
        let words = [a, b, c, d, e, f, g, h];
        for (s, v) in state.iter_mut().zip(words) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Compresses every whole block of `blocks` on the fastest core this host
/// has. One dispatch per call, so a page costs one check, not 64.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(all(feature = "aesni", target_arch = "x86_64"))]
    if crate::sha_ni::available() {
        return crate::sha_ni::compress_blocks(state, blocks);
    }
    compress_portable(state, blocks);
}

/// The portable compress over every whole block of `blocks`.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        Sha256::compress_block(state, block.try_into().expect("64-byte chunk"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }
}
