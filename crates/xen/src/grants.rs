//! The grant table: Xen's memory-sharing bookkeeping.
//!
//! The table is an array of fixed-size entries living in hypervisor
//! memory. Under Fidelius it is mapped read-only in the hypervisor, and
//! every update goes through the type-1 gate where the GIT policy is
//! enforced (paper §4.3.7 / §5.2). The serialized layout matters: the
//! attacks crate manipulates raw entry bytes.

use fidelius_hw::memctrl::{EncSel, MemoryController};
use fidelius_hw::{Hpa, HwError};

/// Bytes per grant entry.
pub const GRANT_ENTRY_SIZE: u64 = 32;
/// Entries in the (single-page) grant table.
pub const GRANT_TABLE_ENTRIES: u64 = fidelius_hw::PAGE_SIZE / GRANT_ENTRY_SIZE;

/// One grant-table entry: domain `owner` grants `grantee` access to the
/// frame backing `gpa_page` of the owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GrantEntry {
    /// Entry is in use.
    pub valid: bool,
    /// Grantee may write.
    pub writable: bool,
    /// Granting domain.
    pub owner: u16,
    /// Receiving domain.
    pub grantee: u16,
    /// The owner's guest-physical page number being shared.
    pub gpa_page: u64,
    /// The backing host frame.
    pub frame: Hpa,
}

impl GrantEntry {
    /// Serializes to the in-memory format (4 little-endian u64 words).
    pub fn to_words(self) -> [u64; 4] {
        let flags = u64::from(self.valid)
            | (u64::from(self.writable) << 1)
            | ((self.owner as u64) << 16)
            | ((self.grantee as u64) << 32);
        [flags, self.gpa_page, self.frame.0, 0]
    }

    /// Deserializes from the in-memory format.
    pub fn from_words(w: [u64; 4]) -> Self {
        GrantEntry {
            valid: w[0] & 1 != 0,
            writable: w[0] & 2 != 0,
            owner: (w[0] >> 16) as u16,
            grantee: (w[0] >> 32) as u16,
            gpa_page: w[1],
            frame: Hpa(w[2]),
        }
    }
}

/// Reads entry `index` directly from physical memory, in one controller
/// call (hardware/firmware view; software goes through the CPU).
///
/// # Errors
///
/// Propagates physical access errors.
pub fn read_entry_phys(
    mc: &MemoryController,
    table_base: Hpa,
    index: u64,
) -> Result<GrantEntry, HwError> {
    assert!(index < GRANT_TABLE_ENTRIES, "grant index out of range");
    let mut raw = [0u8; GRANT_ENTRY_SIZE as usize];
    mc.read(table_base.add(index * GRANT_ENTRY_SIZE), &mut raw, EncSel::None)?;
    Ok(GrantEntry::from_words(std::array::from_fn(|i| {
        u64::from_le_bytes(raw[8 * i..8 * i + 8].try_into().expect("8-byte word"))
    })))
}

/// Writes entry `index` directly to physical memory, in one controller
/// call (hardware/firmware view; software goes through the CPU). Like
/// [`read_entry_phys`], this is charge-free — the fault-injection
/// adversary uses it to clobber grants without perturbing the modeled
/// clock.
///
/// # Errors
///
/// Propagates physical access errors.
pub fn write_entry_phys(
    mc: &mut MemoryController,
    table_base: Hpa,
    index: u64,
    entry: GrantEntry,
) -> Result<(), HwError> {
    assert!(index < GRANT_TABLE_ENTRIES, "grant index out of range");
    let mut raw = [0u8; GRANT_ENTRY_SIZE as usize];
    for (bytes, word) in raw.chunks_exact_mut(8).zip(entry.to_words()) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    mc.write(table_base.add(index * GRANT_ENTRY_SIZE), &raw, EncSel::None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_roundtrip() {
        let e = GrantEntry {
            valid: true,
            writable: true,
            owner: 1,
            grantee: 2,
            gpa_page: 0x42,
            frame: Hpa(0x9000),
        };
        assert_eq!(GrantEntry::from_words(e.to_words()), e);
        let ro = GrantEntry { writable: false, ..e };
        assert_eq!(GrantEntry::from_words(ro.to_words()), ro);
    }

    #[test]
    fn phys_entry_is_four_little_endian_words() {
        let mut mc = MemoryController::new(fidelius_hw::mem::Dram::new(2 * fidelius_hw::PAGE_SIZE));
        let table = Hpa(fidelius_hw::PAGE_SIZE);
        let e = GrantEntry {
            valid: true,
            writable: false,
            owner: 3,
            grantee: 0,
            gpa_page: 0x77,
            frame: Hpa(0x5000),
        };
        write_entry_phys(&mut mc, table, 9, e).unwrap();
        assert_eq!(read_entry_phys(&mc, table, 9).unwrap(), e);
        assert_eq!(read_entry_phys(&mc, table, 8).unwrap(), GrantEntry::default());
        for (i, word) in e.to_words().into_iter().enumerate() {
            let pa = table.add(9 * GRANT_ENTRY_SIZE + 8 * i as u64);
            assert_eq!(mc.read_u64(pa, EncSel::None).unwrap(), word, "word {i}");
        }
    }

    #[test]
    fn invalid_entry_is_default() {
        assert_eq!(GrantEntry::from_words([0; 4]), GrantEntry::default());
        assert!(!GrantEntry::default().valid);
    }
}
