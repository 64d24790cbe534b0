//! x86-64 4-level page tables: entries, the hardware walker, and software
//! editing helpers.
//!
//! Page tables live **inside simulated physical memory**. The hardware
//! walker ([`walk`]) reads them directly through the memory controller —
//! hardware is not subject to page permissions. Software edits them through
//! the [`PtAccess`] trait, which has two families of implementations:
//!
//! - [`PhysPtAccess`] — raw physical access, used by Fidelius inside a gate
//!   (where `CR0.WP` is cleared) and by early boot;
//! - a CPU-mediated accessor (in `fidelius-xen`) that routes through host
//!   virtual addresses and therefore *faults* when the hypervisor touches a
//!   write-protected page-table-page — the heart of non-bypassable memory
//!   isolation.
//!
//! # C-bit
//!
//! Following AMD SME/SEV, bit 47 of a leaf entry is the *C-bit*: when set,
//! the access is routed through the encryption engine (host tables → SME
//! key, guest tables → the guest's `Kvek`).

use crate::error::{AccessKind, FaultReason, HwError};
use crate::mem::FrameAllocator;
use crate::memctrl::{EncSel, MemoryController};
use crate::{Hpa, PAGE_SIZE};

/// Entry is present.
pub const PTE_PRESENT: u64 = 1 << 0;
/// Entry is writable.
pub const PTE_WRITABLE: u64 = 1 << 1;
/// Entry is accessible from user mode.
pub const PTE_USER: u64 = 1 << 2;
/// Accessed (set by walker in real hardware; informational here).
pub const PTE_ACCESSED: u64 = 1 << 5;
/// Dirty.
pub const PTE_DIRTY: u64 = 1 << 6;
/// The SME/SEV C-bit: route accesses through the encryption engine.
pub const PTE_C_BIT: u64 = 1 << 47;
/// No-execute.
pub const PTE_NX: u64 = 1 << 63;

/// Mask of the physical-address bits in an entry (bits 12..=46).
pub const PTE_ADDR_MASK: u64 = 0x0000_7FFF_FFFF_F000;

/// A page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pte(pub u64);

impl Pte {
    /// Builds an entry pointing at `pa` with `flags`.
    pub fn new(pa: Hpa, flags: u64) -> Self {
        Pte((pa.0 & PTE_ADDR_MASK) | flags)
    }

    /// The physical address this entry points at.
    pub fn addr(self) -> Hpa {
        Hpa(self.0 & PTE_ADDR_MASK)
    }

    /// Present?
    pub fn present(self) -> bool {
        self.0 & PTE_PRESENT != 0
    }

    /// Writable?
    pub fn writable(self) -> bool {
        self.0 & PTE_WRITABLE != 0
    }

    /// No-execute?
    pub fn nx(self) -> bool {
        self.0 & PTE_NX != 0
    }

    /// C-bit (encrypt through the engine)?
    pub fn c_bit(self) -> bool {
        self.0 & PTE_C_BIT != 0
    }

    /// Returns a copy with the given flag bits set.
    pub fn with_flags(self, flags: u64) -> Self {
        Pte(self.0 | flags)
    }

    /// Returns a copy with the given flag bits cleared.
    pub fn without_flags(self, flags: u64) -> Self {
        Pte(self.0 & !flags)
    }
}

/// Result of a successful 4-level walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Translated physical address (page base + offset).
    pub pa: Hpa,
    /// Whether every level allowed writes.
    pub writable: bool,
    /// Whether any level forbade execution.
    pub nx: bool,
    /// Whether every level allowed user access.
    pub user: bool,
    /// The leaf's C-bit.
    pub c_bit: bool,
    /// Physical address of the leaf entry itself (level-0 PTE).
    pub leaf_entry_pa: Hpa,
}

/// A failed walk: which reason at which level (3 = top / PML4, 0 = leaf).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkMiss {
    /// Level at which the walk stopped.
    pub level: u8,
    /// Why (always `NotPresent` for the walker; permission checks are done
    /// by the CPU against the returned [`Translation`]).
    pub reason: FaultReason,
}

/// Index of `va` into the table at `level` (3 = PML4 … 0 = PT).
pub fn table_index(va: u64, level: u8) -> u64 {
    (va >> (12 + 9 * level as u64)) & 0x1FF
}

/// The hardware page-table walker. Reads tables through the memory
/// controller with `table_enc` (e.g. the guest's key for SEV guest tables).
///
/// # Errors
///
/// Returns `Ok(Err(miss))` when an entry is not present — a *translation
/// miss*, not a simulation error — and `Err` only for simulation-level
/// problems (bad physical addresses, missing keys).
pub fn walk(
    mc: &MemoryController,
    root: Hpa,
    va: u64,
    table_enc: EncSel,
) -> Result<Result<Translation, WalkMiss>, HwError> {
    let mut table = root;
    let mut writable = true;
    let mut user = true;
    let mut nx = false;
    for level in (1..=3u8).rev() {
        let entry_pa = table.add(table_index(va, level) * 8);
        let pte = Pte(mc.read_u64(entry_pa, table_enc)?);
        if !pte.present() {
            return Ok(Err(WalkMiss { level, reason: FaultReason::NotPresent }));
        }
        writable &= pte.writable();
        user &= pte.0 & PTE_USER != 0;
        nx |= pte.nx();
        table = pte.addr();
    }
    let leaf_entry_pa = table.add(table_index(va, 0) * 8);
    let leaf = Pte(mc.read_u64(leaf_entry_pa, table_enc)?);
    if !leaf.present() {
        return Ok(Err(WalkMiss { level: 0, reason: FaultReason::NotPresent }));
    }
    writable &= leaf.writable();
    user &= leaf.0 & PTE_USER != 0;
    nx |= leaf.nx();
    Ok(Ok(Translation {
        pa: leaf.addr().add(va & (PAGE_SIZE - 1)),
        writable,
        nx,
        user,
        c_bit: leaf.c_bit(),
        leaf_entry_pa,
    }))
}

/// Checks a mapping's accumulated `writable` and `nx` bits (a walk's
/// [`Translation`], or a cached copy of them) against an access kind under
/// the given `wp` (CR0.WP) setting for supervisor accesses.
pub fn permits(writable: bool, nx: bool, access: AccessKind, wp: bool) -> Result<(), FaultReason> {
    match access {
        AccessKind::Write if !writable && wp => Err(FaultReason::WriteProtected),
        AccessKind::Execute if nx => Err(FaultReason::NoExecute),
        _ => Ok(()),
    }
}

/// How software reads/writes page-table entries. Implementations decide
/// whether permission checks apply (see module docs).
pub trait PtAccess {
    /// Reads the 8-byte entry at `pa`.
    ///
    /// # Errors
    ///
    /// Implementation-defined; CPU-mediated accessors return page faults.
    fn read_entry(&mut self, pa: Hpa) -> Result<u64, HwError>;

    /// Writes the 8-byte entry at `pa`.
    ///
    /// # Errors
    ///
    /// Implementation-defined; CPU-mediated accessors return page faults
    /// when the page-table-page is write-protected.
    fn write_entry(&mut self, pa: Hpa, value: u64) -> Result<(), HwError>;

    /// Zeroes the 4 KiB table at `table`: 512 [`PtAccess::write_entry`]
    /// calls unless an implementation has a cheaper equivalent.
    ///
    /// # Errors
    ///
    /// As [`PtAccess::write_entry`]; the entries before the failing one
    /// stay zeroed.
    fn zero_table(&mut self, table: Hpa) -> Result<(), HwError> {
        for i in 0..512u64 {
            self.write_entry(table.add(i * 8), 0)?;
        }
        Ok(())
    }
}

/// Raw physical page-table access (no permission checks) with a fixed
/// table-encryption selection.
pub struct PhysPtAccess<'a> {
    mc: &'a mut MemoryController,
    enc: EncSel,
}

impl<'a> PhysPtAccess<'a> {
    /// Raw access to tables encrypted under `enc`.
    pub fn new(mc: &'a mut MemoryController, enc: EncSel) -> Self {
        PhysPtAccess { mc, enc }
    }
}

impl PtAccess for PhysPtAccess<'_> {
    fn read_entry(&mut self, pa: Hpa) -> Result<u64, HwError> {
        self.mc.read_u64(pa, self.enc)
    }

    fn write_entry(&mut self, pa: Hpa, value: u64) -> Result<(), HwError> {
        self.mc.write_u64(pa, value, self.enc)
    }
}

/// Page-table access where the addresses *inside* the tables are in a
/// different (guest-physical) space that maps to host-physical by a fixed
/// offset. Useful for building a guest's own page tables from outside the
/// guest when its memory is physically contiguous: the [`Mapper`] then
/// operates entirely in guest-physical terms while the bytes land at
/// `host_base + gpa`.
pub struct OffsetPtAccess<'a> {
    mc: &'a mut MemoryController,
    host_base: Hpa,
    enc: EncSel,
}

impl<'a> OffsetPtAccess<'a> {
    /// Access guest tables whose GPA x lives at host physical
    /// `host_base + x`, encrypted under `enc`.
    pub fn new(mc: &'a mut MemoryController, host_base: Hpa, enc: EncSel) -> Self {
        OffsetPtAccess { mc, host_base, enc }
    }
}

impl PtAccess for OffsetPtAccess<'_> {
    fn read_entry(&mut self, pa: Hpa) -> Result<u64, HwError> {
        self.mc.read_u64(self.host_base.add(pa.0), self.enc)
    }

    fn write_entry(&mut self, pa: Hpa, value: u64) -> Result<(), HwError> {
        self.mc.write_u64(self.host_base.add(pa.0), value, self.enc)
    }
}

/// Software page-table mapper: builds and edits 4-level trees through a
/// [`PtAccess`].
#[derive(Debug)]
pub struct Mapper {
    root: Hpa,
}

impl Mapper {
    /// Allocates a zeroed root table and returns the mapper.
    ///
    /// # Errors
    ///
    /// Fails when out of frames or on access errors.
    pub fn create(access: &mut dyn PtAccess, alloc: &mut FrameAllocator) -> Result<Self, HwError> {
        let root = alloc.alloc()?;
        access.zero_table(root)?;
        Ok(Mapper { root })
    }

    /// Wraps an existing root.
    pub fn from_root(root: Hpa) -> Self {
        Mapper { root }
    }

    /// The root table's physical address (goes into CR3 / nCR3).
    pub fn root(&self) -> Hpa {
        self.root
    }

    /// Maps `va` → `pa` with `flags` (PTE_PRESENT is implied), allocating
    /// intermediate tables as needed. Intermediate entries get
    /// present+writable+user so that leaf flags alone decide permissions.
    ///
    /// # Errors
    ///
    /// Propagates access faults (e.g. write-protected page-table-pages)
    /// and allocator exhaustion.
    pub fn map(
        &self,
        access: &mut dyn PtAccess,
        alloc: &mut FrameAllocator,
        va: u64,
        pa: Hpa,
        flags: u64,
    ) -> Result<(), HwError> {
        let mut table = self.root;
        for level in (1..=3u8).rev() {
            let entry_pa = table.add(table_index(va, level) * 8);
            let pte = Pte(access.read_entry(entry_pa)?);
            if pte.present() {
                table = pte.addr();
            } else {
                let new_table = alloc.alloc()?;
                access.zero_table(new_table)?;
                access.write_entry(
                    entry_pa,
                    Pte::new(new_table, PTE_PRESENT | PTE_WRITABLE | PTE_USER).0,
                )?;
                table = new_table;
            }
        }
        let leaf_pa = table.add(table_index(va, 0) * 8);
        access.write_entry(leaf_pa, Pte::new(pa, flags | PTE_PRESENT).0)?;
        Ok(())
    }

    /// Maps a contiguous range of `count` pages starting at (`va`, `pa`).
    ///
    /// # Errors
    ///
    /// Same as [`Mapper::map`].
    pub fn map_range(
        &self,
        access: &mut dyn PtAccess,
        alloc: &mut FrameAllocator,
        va: u64,
        pa: Hpa,
        count: u64,
        flags: u64,
    ) -> Result<(), HwError> {
        for i in 0..count {
            self.map(access, alloc, va + i * PAGE_SIZE, pa.add(i * PAGE_SIZE), flags)?;
        }
        Ok(())
    }

    /// Returns the physical address of the *leaf entry* for `va`, if all
    /// intermediate levels are present.
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn leaf_entry_pa(
        &self,
        access: &mut dyn PtAccess,
        va: u64,
    ) -> Result<Option<Hpa>, HwError> {
        let mut table = self.root;
        for level in (1..=3u8).rev() {
            let entry_pa = table.add(table_index(va, level) * 8);
            let pte = Pte(access.read_entry(entry_pa)?);
            if !pte.present() {
                return Ok(None);
            }
            table = pte.addr();
        }
        Ok(Some(table.add(table_index(va, 0) * 8)))
    }

    /// Reads the leaf PTE for `va` (None if any level is non-present).
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn lookup(&self, access: &mut dyn PtAccess, va: u64) -> Result<Option<Pte>, HwError> {
        match self.leaf_entry_pa(access, va)? {
            None => Ok(None),
            Some(pa) => {
                let pte = Pte(access.read_entry(pa)?);
                Ok(if pte.present() { Some(pte) } else { None })
            }
        }
    }

    /// Unmaps `va`, returning the previous entry if it was present.
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn unmap(&self, access: &mut dyn PtAccess, va: u64) -> Result<Option<Pte>, HwError> {
        match self.leaf_entry_pa(access, va)? {
            None => Ok(None),
            Some(pa) => {
                let pte = Pte(access.read_entry(pa)?);
                if !pte.present() {
                    return Ok(None);
                }
                access.write_entry(pa, 0)?;
                Ok(Some(pte))
            }
        }
    }

    /// Collects the physical addresses of every page-table-page reachable
    /// from the root (including the root itself). Fidelius uses this to
    /// write-protect the hypervisor's page-table-pages wholesale.
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn collect_table_pages(&self, access: &mut dyn PtAccess) -> Result<Vec<Hpa>, HwError> {
        let mut pages = vec![self.root];
        self.collect_level(access, self.root, 3, &mut pages)?;
        Ok(pages)
    }

    fn collect_level(
        &self,
        access: &mut dyn PtAccess,
        table: Hpa,
        level: u8,
        out: &mut Vec<Hpa>,
    ) -> Result<(), HwError> {
        if level == 0 {
            return Ok(());
        }
        for i in 0..512u64 {
            let pte = Pte(access.read_entry(table.add(i * 8))?);
            if pte.present() {
                out.push(pte.addr());
                self.collect_level(access, pte.addr(), level - 1, out)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Dram;
    use crate::Asid;

    fn setup() -> (MemoryController, FrameAllocator) {
        let mc = MemoryController::new(Dram::new(256 * PAGE_SIZE));
        let alloc = FrameAllocator::new(Hpa(0x10000), 128);
        (mc, alloc)
    }

    #[test]
    fn map_and_walk() {
        let (mut mc, mut alloc) = setup();
        let mapper = {
            let mut acc = PhysPtAccess::new(&mut mc, EncSel::None);
            let mapper = Mapper::create(&mut acc, &mut alloc).unwrap();
            mapper.map(&mut acc, &mut alloc, 0x4000_1000, Hpa(0x2000), PTE_WRITABLE).unwrap();
            mapper
        };
        let t = walk(&mc, mapper.root(), 0x4000_1234, EncSel::None).unwrap().unwrap();
        assert_eq!(t.pa, Hpa(0x2234));
        assert!(t.writable);
        assert!(!t.nx);
        assert!(!t.c_bit);
    }

    #[test]
    fn walk_miss_reports_level() {
        let (mut mc, mut alloc) = setup();
        let mapper = {
            let mut acc = PhysPtAccess::new(&mut mc, EncSel::None);
            Mapper::create(&mut acc, &mut alloc).unwrap()
        };
        let miss = walk(&mc, mapper.root(), 0x1000, EncSel::None).unwrap().unwrap_err();
        assert_eq!(miss.level, 3);
        assert_eq!(miss.reason, FaultReason::NotPresent);
    }

    #[test]
    fn permissions_accumulate_and_wp_applies() {
        let (mut mc, mut alloc) = setup();
        let mapper = {
            let mut acc = PhysPtAccess::new(&mut mc, EncSel::None);
            let mapper = Mapper::create(&mut acc, &mut alloc).unwrap();
            // Read-only, NX page.
            mapper.map(&mut acc, &mut alloc, 0x5000, Hpa(0x3000), PTE_NX).unwrap();
            mapper
        };
        let t = walk(&mc, mapper.root(), 0x5000, EncSel::None).unwrap().unwrap();
        assert!(!t.writable);
        assert!(t.nx);
        assert_eq!(permits(t.writable, t.nx, AccessKind::Read, true), Ok(()));
        assert_eq!(
            permits(t.writable, t.nx, AccessKind::Write, true),
            Err(FaultReason::WriteProtected)
        );
        // Supervisor write with WP clear is allowed — the type-1 gate's
        // mechanism.
        assert_eq!(permits(t.writable, t.nx, AccessKind::Write, false), Ok(()));
        assert_eq!(
            permits(t.writable, t.nx, AccessKind::Execute, true),
            Err(FaultReason::NoExecute)
        );
    }

    #[test]
    fn c_bit_surfaces_in_translation() {
        let (mut mc, mut alloc) = setup();
        let mapper = {
            let mut acc = PhysPtAccess::new(&mut mc, EncSel::None);
            let mapper = Mapper::create(&mut acc, &mut alloc).unwrap();
            mapper
                .map(&mut acc, &mut alloc, 0x6000, Hpa(0x4000), PTE_WRITABLE | PTE_C_BIT)
                .unwrap();
            mapper
        };
        let t = walk(&mc, mapper.root(), 0x6000, EncSel::None).unwrap().unwrap();
        assert!(t.c_bit);
        assert_eq!(t.pa, Hpa(0x4000));
    }

    #[test]
    fn unmap_clears_the_leaf() {
        let (mut mc, mut alloc) = setup();
        let mut acc = PhysPtAccess::new(&mut mc, EncSel::None);
        let mapper = Mapper::create(&mut acc, &mut alloc).unwrap();
        mapper.map(&mut acc, &mut alloc, 0x7000, Hpa(0x5000), PTE_WRITABLE).unwrap();
        assert!(mapper.lookup(&mut acc, 0x7000).unwrap().unwrap().writable());
        let old = mapper.unmap(&mut acc, 0x7000).unwrap().unwrap();
        assert_eq!(old.addr(), Hpa(0x5000));
        assert!(mapper.lookup(&mut acc, 0x7000).unwrap().is_none());
        assert!(mapper.unmap(&mut acc, 0x7000).unwrap().is_none());
    }

    #[test]
    fn collect_table_pages_finds_all_levels() {
        let (mut mc, mut alloc) = setup();
        let mut acc = PhysPtAccess::new(&mut mc, EncSel::None);
        let mapper = Mapper::create(&mut acc, &mut alloc).unwrap();
        mapper.map(&mut acc, &mut alloc, 0x1000, Hpa(0x2000), 0).unwrap();
        // Far-away VA forces a second set of intermediate tables.
        mapper.map(&mut acc, &mut alloc, 0x80_0000_1000, Hpa(0x3000), 0).unwrap();
        let pages = mapper.collect_table_pages(&mut acc).unwrap();
        // root + 2×(PDPT+PD+PT) = 7
        assert_eq!(pages.len(), 7);
        // All distinct.
        let mut sorted = pages.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), pages.len());
    }

    #[test]
    fn encrypted_guest_tables_walk_with_key() {
        let (mut mc, mut alloc) = setup();
        mc.install_guest_key(Asid(5), &[9u8; 16]);
        let enc = EncSel::Guest(Asid(5));
        let mapper = {
            let mut acc = PhysPtAccess::new(&mut mc, enc);
            let mapper = Mapper::create(&mut acc, &mut alloc).unwrap();
            mapper.map(&mut acc, &mut alloc, 0x9000, Hpa(0x8000), PTE_WRITABLE).unwrap();
            mapper
        };
        // Walking with the right key works...
        let t = walk(&mc, mapper.root(), 0x9000, enc).unwrap().unwrap();
        assert_eq!(t.pa, Hpa(0x8000));
        // ...while a key-less walk sees ciphertext and misses, errors on a
        // garbage intermediate address, or lands on a wrong translation —
        // either way it must not recover the real mapping.
        match walk(&mc, mapper.root(), 0x9000, EncSel::None) {
            Err(_) | Ok(Err(_)) => {}
            Ok(Ok(t2)) => {
                assert_ne!(t2.pa, Hpa(0x8000), "hypervisor must not see guest mapping")
            }
        }
    }

    #[test]
    fn map_range_maps_contiguously() {
        let (mut mc, mut alloc) = setup();
        let mut acc = PhysPtAccess::new(&mut mc, EncSel::None);
        let mapper = Mapper::create(&mut acc, &mut alloc).unwrap();
        mapper.map_range(&mut acc, &mut alloc, 0xA000, Hpa(0x6000), 3, PTE_WRITABLE).unwrap();
        for i in 0..3u64 {
            let pte = mapper.lookup(&mut acc, 0xA000 + i * PAGE_SIZE).unwrap().unwrap();
            assert_eq!(pte.addr(), Hpa(0x6000 + i * PAGE_SIZE));
        }
    }
}
