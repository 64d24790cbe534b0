//! Cryptographic substrate for the Fidelius reproduction.
//!
//! Everything here is implemented from scratch so that the simulated
//! platform is fully self-contained and deterministic:
//!
//! - [`aes`] — AES-128/192/256 with runtime-dispatched host backends
//!   (8-way interleaved T-tables and — behind the `aesni` cargo feature —
//!   the x86 AES instructions), modelling the *AES-NI* fast path the paper
//!   uses for guest-side disk encryption. Both backends are bit-identical;
//!   see [`aes::AesBackend`] and `FIDELIUS_AES_BACKEND`.
//! - [`aes_soft`] — a deliberately slow, bit-level AES: the oracle both
//!   backends are tested against, and the paper's "software emulated
//!   encryption" (>20× slower than AES-NI in micro-benchmark 3, a cost
//!   charged in modeled cycles).
//! - [`modes`] — CTR, CBC, a tweaked sector mode for disk images, and the
//!   physical-address-tweaked block mode used by the simulated SME/SEV
//!   memory-encryption engine.
//! - [`sha256`], [`hmac`] — hashing and MACs for SEV measurements, with
//!   the SHA-NI compress dispatched at run time behind the same `aesni`
//!   feature.
//! - [`x25519`] — the ECDH key agreement used by the SEV SEND/RECEIVE
//!   protocol between guest owner and firmware.
//! - [`keywrap`] — AES key wrap for the transport keys (`Kwrap` = wrapped
//!   `Ktek`/`Ktik` in the paper's §4.3.2).
//! - [`rng`] — seedable SplitMix64/Xoshiro256** generators; the whole
//!   simulation is reproducible from a seed.
//!
//! # Example
//!
//! ```
//! use fidelius_crypto::aes::Aes128;
//!
//! let key = [0u8; 16];
//! let cipher = Aes128::new(&key);
//! let mut block = *b"attack at dawn!!";
//! let original = block;
//! cipher.encrypt_block(&mut block);
//! assert_ne!(block, original);
//! cipher.decrypt_block(&mut block);
//! assert_eq!(block, original);
//! ```

// The crate is `unsafe`-free except for the x86 crypto-instruction
// intrinsics: with the `aesni` feature off, `unsafe` stays forbidden
// outright; with it on, it is denied everywhere and allowed only inside
// `aes_ni` and `sha_ni` (each site carries an explicit
// `#[allow(unsafe_code)]` + SAFETY comment).
#![cfg_attr(not(all(feature = "aesni", target_arch = "x86_64")), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
#[cfg(all(feature = "aesni", target_arch = "x86_64"))]
mod aes_ni;
pub mod aes_soft;
pub mod error;
pub mod hmac;
pub mod keywrap;
pub mod modes;
pub mod rng;
pub mod sha256;
#[cfg(all(feature = "aesni", target_arch = "x86_64"))]
mod sha_ni;
pub mod x25519;

pub use error::CryptoError;

/// A 128-bit symmetric key, the size used for every SEV-related key in the
/// simulation (`Kvek`, `Ktek`, `Kblk`, …).
pub type Key128 = [u8; 16];

/// A 256-bit digest as produced by [`sha256`].
pub type Digest256 = [u8; 32];
