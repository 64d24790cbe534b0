//! The paper's §8 hardware suggestion #1, implemented: **hardware-based
//! integrity checking** via a Bonsai-Merkle-Tree-style structure.
//!
//! > "Currently, the integrity of Fidelius is not guaranteed if the
//! > memory is tampered with by hardware-based attacks (e.g., RowHammer),
//! > or the I/O data is maliciously manipulated. This can be addressed by
//! > integrating a Bonsai Merkle Tree (BMT) to enable hardware-based
//! > integrity in the secure processor."
//!
//! [`IntegrityTree`] maintains a binary Merkle tree of SHA-256 digests
//! over a protected physical range. The secure processor holds only the
//! root; verifying any line needs O(log n) hashes, and *any* modification
//! of the protected memory that did not go through [`IntegrityTree::update`]
//! — a Rowhammer flip, a bus injection, a ciphertext replay — is caught on
//! the next verification.

use crate::error::HwError;
use crate::mem::Dram;
use crate::{Hpa, CACHE_LINE};
use fidelius_crypto::sha256::Sha256;

/// A Merkle tree over a contiguous physical range, at cache-line (64 B)
/// granularity.
pub struct IntegrityTree {
    base: Hpa,
    lines: usize,
    /// Level 0 = leaves (one digest per line), last level = the root.
    levels: Vec<Vec<[u8; 32]>>,
}

impl std::fmt::Debug for IntegrityTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntegrityTree")
            .field("base", &self.base)
            .field("lines", &self.lines)
            .field("levels", &self.levels.len())
            .finish()
    }
}

/// Outcome of verifying a line against the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityVerdict {
    /// The line matches the tree.
    Intact,
    /// The line (or a replayed version of it) does not match.
    Tampered,
}

fn hash_line(data: &[u8]) -> [u8; 32] {
    Sha256::digest(data)
}

fn hash_pair(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(left);
    h.update(right);
    h.finalize()
}

impl IntegrityTree {
    /// Builds the tree over `[base, base + lines * 64)` from the current
    /// DRAM contents (typically right after a LAUNCH/RECEIVE flow).
    ///
    /// # Errors
    ///
    /// Propagates physical-range errors.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero or `base` is not line-aligned.
    pub fn build(dram: &Dram, base: Hpa, lines: usize) -> Result<Self, HwError> {
        assert!(lines > 0, "empty integrity range");
        assert_eq!(base.0 % CACHE_LINE, 0, "base must be line aligned");
        let mut leaves = Vec::with_capacity(lines);
        let mut buf = [0u8; CACHE_LINE as usize];
        for i in 0..lines {
            dram.read_raw(base.add(i as u64 * CACHE_LINE), &mut buf)?;
            leaves.push(hash_line(&buf));
        }
        let mut levels = vec![leaves];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                next.push(if pair.len() == 2 {
                    hash_pair(&pair[0], &pair[1])
                } else {
                    hash_pair(&pair[0], &pair[0])
                });
            }
            levels.push(next);
        }
        Ok(IntegrityTree { base, lines, levels })
    }

    /// The root digest (what the secure processor would hold on-die).
    pub fn root(&self) -> [u8; 32] {
        self.levels.last().expect("nonempty")[0]
    }

    /// Number of protected lines.
    pub fn lines(&self) -> usize {
        self.lines
    }

    fn line_index(&self, pa: Hpa) -> Option<usize> {
        if pa.0 < self.base.0 {
            return None;
        }
        let idx = ((pa.0 - self.base.0) / CACHE_LINE) as usize;
        (idx < self.lines).then_some(idx)
    }

    /// Whether `pa` falls inside the protected range.
    pub fn covers(&self, pa: Hpa) -> bool {
        self.line_index(pa).is_some()
    }

    /// Verifies the line containing `pa` against the tree, recomputing the
    /// O(log n) path to the root.
    ///
    /// # Errors
    ///
    /// Propagates physical-range errors; out-of-range addresses verify as
    /// `Tampered` (the tree cannot vouch for them).
    pub fn verify_line(&self, dram: &Dram, pa: Hpa) -> Result<IntegrityVerdict, HwError> {
        let Some(mut idx) = self.line_index(pa) else {
            return Ok(IntegrityVerdict::Tampered);
        };
        let mut buf = [0u8; CACHE_LINE as usize];
        dram.read_raw(self.base.add(idx as u64 * CACHE_LINE), &mut buf)?;
        let mut digest = hash_line(&buf);
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = if idx % 2 == 0 {
                level.get(idx + 1).copied().unwrap_or(level[idx])
            } else {
                level[idx - 1]
            };
            // Cross-check against the stored node first: a stale stored
            // path means prior tampering of tree state.
            if level[idx] != digest {
                return Ok(IntegrityVerdict::Tampered);
            }
            digest = if idx % 2 == 0 {
                hash_pair(&digest, &sibling)
            } else {
                hash_pair(&sibling, &digest)
            };
            idx /= 2;
        }
        Ok(if digest == self.root() {
            IntegrityVerdict::Intact
        } else {
            IntegrityVerdict::Tampered
        })
    }

    /// Records a *legitimate* write to the line containing `pa`
    /// (performed by the engine on behalf of the owning guest), updating
    /// the path to the root.
    ///
    /// # Errors
    ///
    /// Propagates physical-range errors; an update outside the integrity
    /// range is rejected as [`HwError::BadPhysicalAddress`].
    pub fn update(&mut self, dram: &Dram, pa: Hpa) -> Result<(), HwError> {
        let Some(mut idx) = self.line_index(pa) else {
            return Err(HwError::BadPhysicalAddress { pa, len: CACHE_LINE });
        };
        let mut buf = [0u8; CACHE_LINE as usize];
        dram.read_raw(self.base.add(idx as u64 * CACHE_LINE), &mut buf)?;
        let mut digest = hash_line(&buf);
        let nlevels = self.levels.len();
        for l in 0..nlevels - 1 {
            self.levels[l][idx] = digest;
            let level = &self.levels[l];
            let sibling = if idx % 2 == 0 {
                level.get(idx + 1).copied().unwrap_or(level[idx])
            } else {
                level[idx - 1]
            };
            digest = if idx % 2 == 0 {
                hash_pair(&digest, &sibling)
            } else {
                hash_pair(&sibling, &digest)
            };
            idx /= 2;
        }
        let last = nlevels - 1;
        self.levels[last][0] = digest;
        Ok(())
    }

    /// Verifies the whole protected range. Returns the first tampered
    /// line's address, if any.
    ///
    /// # Errors
    ///
    /// Propagates physical-range errors.
    pub fn verify_all(&self, dram: &Dram) -> Result<Option<Hpa>, HwError> {
        for i in 0..self.lines {
            let pa = self.base.add(i as u64 * CACHE_LINE);
            if self.verify_line(dram, pa)? == IntegrityVerdict::Tampered {
                return Ok(Some(pa));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    fn dram_with(base: Hpa, data: &[u8]) -> Dram {
        let mut d = Dram::new(16 * PAGE_SIZE);
        d.write_raw(base, data).unwrap();
        d
    }

    #[test]
    fn intact_memory_verifies() {
        let base = Hpa(0x1000);
        let dram = dram_with(base, &[0xABu8; 4096]);
        let tree = IntegrityTree::build(&dram, base, 64).unwrap();
        assert_eq!(tree.verify_all(&dram).unwrap(), None);
        assert_eq!(tree.verify_line(&dram, base.add(640)).unwrap(), IntegrityVerdict::Intact);
    }

    #[test]
    fn rowhammer_flip_is_caught() {
        let base = Hpa(0x1000);
        let mut dram = dram_with(base, &[0xABu8; 4096]);
        let tree = IntegrityTree::build(&dram, base, 64).unwrap();
        dram.flip_bit(base.add(1234), 5).unwrap();
        assert_eq!(tree.verify_all(&dram).unwrap(), Some(base.add(1234 / 64 * 64)));
        // Other lines still verify.
        assert_eq!(tree.verify_line(&dram, base).unwrap(), IntegrityVerdict::Intact);
    }

    #[test]
    fn replay_of_stale_ciphertext_is_caught() {
        // The attack SEV alone cannot stop even in-place: snapshot a line,
        // let the owner overwrite it (with a tree update), replay it.
        let base = Hpa(0x2000);
        let mut dram =
            dram_with(base, b"old-password-line-padded-to-64-bytes............................");
        let mut tree = IntegrityTree::build(&dram, base, 16).unwrap();
        let mut snapshot = [0u8; 64];
        dram.read_raw(base, &mut snapshot).unwrap();
        // Legitimate update.
        dram.write_raw(base, &[0x11u8; 64]).unwrap();
        tree.update(&dram, base).unwrap();
        assert_eq!(tree.verify_line(&dram, base).unwrap(), IntegrityVerdict::Intact);
        // Replay.
        dram.write_raw(base, &snapshot).unwrap();
        assert_eq!(tree.verify_line(&dram, base).unwrap(), IntegrityVerdict::Tampered);
    }

    #[test]
    fn legitimate_updates_keep_the_tree_consistent() {
        let base = Hpa(0x3000);
        let mut dram = dram_with(base, &[0u8; 2048]);
        let mut tree = IntegrityTree::build(&dram, base, 32).unwrap();
        let root0 = tree.root();
        for i in 0..32u64 {
            dram.write_raw(base.add(i * 64), &[i as u8; 64]).unwrap();
            tree.update(&dram, base.add(i * 64)).unwrap();
        }
        assert_ne!(tree.root(), root0, "root must evolve with content");
        assert_eq!(tree.verify_all(&dram).unwrap(), None);
    }

    #[test]
    fn odd_number_of_lines_works() {
        let base = Hpa(0x4000);
        let mut dram = dram_with(base, &[7u8; 7 * 64]);
        let mut tree = IntegrityTree::build(&dram, base, 7).unwrap();
        assert_eq!(tree.verify_all(&dram).unwrap(), None);
        dram.flip_bit(base.add(6 * 64 + 3), 0).unwrap();
        assert_eq!(tree.verify_all(&dram).unwrap(), Some(base.add(6 * 64)));
        dram.flip_bit(base.add(6 * 64 + 3), 0).unwrap();
        tree.update(&dram, base.add(6 * 64)).unwrap();
        assert_eq!(tree.verify_all(&dram).unwrap(), None);
    }

    #[test]
    fn out_of_range_is_not_vouched_for() {
        let base = Hpa(0x1000);
        let dram = dram_with(base, &[0u8; 640]);
        let mut tree = IntegrityTree::build(&dram, base, 10).unwrap();
        assert!(!tree.covers(Hpa(0x0)));
        assert_eq!(tree.verify_line(&dram, Hpa(0x0)).unwrap(), IntegrityVerdict::Tampered);
        assert!(tree.update(&dram, Hpa(0x8000)).is_err());
    }
}
