//! The physical platform: machine + SEV firmware + boot.
//!
//! [`Platform::boot`] stands in for the BIOS/bootloader: it loads the
//! hypervisor and Fidelius code images into physical memory, builds the
//! initial host page tables (code read-only+executable, data and direct
//! map writable+NX), turns on paging, NX and SVME, installs the SME key
//! and initializes the SEV firmware. Everything after boot must go through
//! the CPU's checked access paths.

use crate::layout::{
    self, build_code_image, InstrSites, DIRECT_MAP_BASE, FIDELIUS_CODE_BASE, FIDELIUS_CODE_PAGES,
    FIDELIUS_DATA_BASE, FIDELIUS_DATA_PAGES, XEN_CODE_BASE, XEN_CODE_PAGES, XEN_DATA_BASE,
    XEN_DATA_PAGES,
};
use crate::XenError;
use fidelius_hw::cpu::Machine;
use fidelius_hw::mem::FrameAllocator;
use fidelius_hw::memctrl::EncSel;
use fidelius_hw::paging::{Mapper, PhysPtAccess, PTE_NX, PTE_WRITABLE};
use fidelius_hw::regs::{Cr0, Efer};
use fidelius_hw::{Hpa, Hva, PAGE_SIZE};
use fidelius_sev::{Firmware, FwMode};

/// Physical address where the hypervisor code image is loaded.
pub const XEN_CODE_PA: Hpa = Hpa(0x10_0000);
/// Physical address where the Fidelius code image is loaded.
pub const FIDELIUS_CODE_PA: Hpa = Hpa(0x14_0000);
/// Physical address of the Fidelius private data region.
pub const FIDELIUS_DATA_PA: Hpa = Hpa(0x16_0000);
/// Physical address of the hypervisor data region.
pub const XEN_DATA_PA: Hpa = Hpa(0x20_0000);
/// Start of the hypervisor heap (page tables, VMCBs, grant table, …).
pub const HEAP_PA: Hpa = Hpa(0x40_0000);
/// Number of heap frames.
pub const HEAP_PAGES: u64 = 512;
/// Start of the guest memory pool.
pub const GUEST_POOL_PA: Hpa = Hpa(0x80_0000);

/// The machine plus its SEV firmware.
#[derive(Debug)]
pub struct Platform {
    /// The simulated hardware.
    pub machine: Machine,
    /// The SEV firmware in the secure processor.
    pub firmware: Firmware,
}

impl AsMut<Machine> for Platform {
    fn as_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }
}

/// Everything boot hands to the hypervisor.
#[derive(Debug)]
pub struct BootInfo {
    /// Root of the host page tables.
    pub host_pt_root: Hpa,
    /// Heap frame allocator (hypervisor-owned frames).
    pub heap: FrameAllocator,
    /// Guest-memory frame allocator.
    pub guest_pool: FrameAllocator,
    /// Instruction sites inside the hypervisor's code image.
    pub xen_sites: InstrSites,
    /// Instruction sites inside the Fidelius code image.
    pub fidelius_sites: InstrSites,
}

impl Platform {
    /// Boots the platform. `dram_size` must cover the guest pool
    /// (≥ 16 MiB is sensible; benchmarks use more).
    ///
    /// # Errors
    ///
    /// Propagates physical-memory errors from building the boot state.
    ///
    /// # Panics
    ///
    /// Panics if `dram_size` is smaller than the fixed physical layout.
    pub fn boot(dram_size: u64, seed: u64) -> Result<(Self, BootInfo), XenError> {
        Self::boot_with_firmware(dram_size, seed, FwMode::Retrofit)
    }

    /// Boots the platform with an explicit firmware build — the
    /// retrofitted one or faithful vanilla SEV (see [`FwMode`]). The
    /// attack matrix uses vanilla mode for its undefended configurations
    /// so the successor attacks can demonstrate what the retrofit checks
    /// actually buy.
    ///
    /// # Errors
    ///
    /// Propagates physical-memory errors from building the boot state.
    ///
    /// # Panics
    ///
    /// Panics if `dram_size` is smaller than the fixed physical layout.
    pub fn boot_with_firmware(
        dram_size: u64,
        seed: u64,
        fw_mode: FwMode,
    ) -> Result<(Self, BootInfo), XenError> {
        assert!(dram_size >= GUEST_POOL_PA.0 + 16 * PAGE_SIZE, "DRAM too small for layout");
        let mut machine = Machine::new(dram_size);
        let mut firmware = Firmware::with_mode(seed, fw_mode);

        // SME key installed by platform firmware at reset; SEV INIT.
        let mut rng = fidelius_crypto::rng::Xoshiro256::new(seed ^ 0x5A3E_51E5);
        machine.mc.install_sme_key(&rng.next_key128());
        firmware.init()?;

        // Load the code images.
        let (xen_code, xen_sites) = build_code_image(XEN_CODE_BASE, XEN_CODE_PAGES);
        let (fid_code, fidelius_sites) = build_code_image(FIDELIUS_CODE_BASE, FIDELIUS_CODE_PAGES);
        machine.mc.dram_mut().write_raw(XEN_CODE_PA, &xen_code).map_err(XenError::Hw)?;
        machine.mc.dram_mut().write_raw(FIDELIUS_CODE_PA, &fid_code).map_err(XenError::Hw)?;

        // Build host page tables with raw access (paging still off).
        let mut heap = FrameAllocator::new(HEAP_PA, HEAP_PAGES);
        let guest_pool_pages = (dram_size - GUEST_POOL_PA.0) / PAGE_SIZE;
        let guest_pool = FrameAllocator::new(GUEST_POOL_PA, guest_pool_pages);
        let host_pt_root = {
            let mut acc = PhysPtAccess::new(&mut machine.mc, EncSel::None);
            let pt = Mapper::create(&mut acc, &mut heap)?;
            // Hypervisor code: read-only, executable.
            pt.map_range(&mut acc, &mut heap, XEN_CODE_BASE.0, XEN_CODE_PA, XEN_CODE_PAGES, 0)?;
            // Hypervisor data: RW, NX.
            pt.map_range(
                &mut acc,
                &mut heap,
                XEN_DATA_BASE.0,
                XEN_DATA_PA,
                XEN_DATA_PAGES,
                PTE_WRITABLE | PTE_NX,
            )?;
            // Fidelius code: read-only, executable (most of it shared with
            // the hypervisor per §6.3; Fidelius unmaps the special pages
            // itself during its initialization).
            pt.map_range(
                &mut acc,
                &mut heap,
                FIDELIUS_CODE_BASE.0,
                FIDELIUS_CODE_PA,
                FIDELIUS_CODE_PAGES,
                0,
            )?;
            // Fidelius data: RW, NX (unmapped later by Fidelius).
            pt.map_range(
                &mut acc,
                &mut heap,
                FIDELIUS_DATA_BASE.0,
                FIDELIUS_DATA_PA,
                FIDELIUS_DATA_PAGES,
                PTE_WRITABLE | PTE_NX,
            )?;
            // Direct map of all DRAM: RW, NX.
            let dram_pages = dram_size / PAGE_SIZE;
            pt.map_range(
                &mut acc,
                &mut heap,
                DIRECT_MAP_BASE.0,
                Hpa(0),
                dram_pages,
                PTE_WRITABLE | PTE_NX,
            )?;
            pt.root()
        };

        // Flip the switches (bootloader privilege: directly set CPU state).
        machine.cpu.cr3 = host_pt_root;
        machine.cpu.cr0 = Cr0::enabled();
        machine.cpu.efer = Efer { nxe: true, svme: true };

        let plat = Platform { machine, firmware };
        let info = BootInfo { host_pt_root, heap, guest_pool, xen_sites, fidelius_sites };
        Ok((plat, info))
    }

    /// Convenience: host-virtual address of a physical address through the
    /// direct map.
    pub fn dm(pa: Hpa) -> Hva {
        layout::direct_map(pa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidelius_hw::cpu::PrivOp;

    const DRAM: u64 = 16 * 1024 * 1024;

    #[test]
    fn boot_produces_working_host_paging() {
        let (mut plat, info) = Platform::boot(DRAM, 1).unwrap();
        // Data region is writable.
        plat.machine.host_write(XEN_DATA_BASE, b"xen data").unwrap();
        // Code region is not.
        assert!(plat.machine.host_write(XEN_CODE_BASE, b"x").is_err());
        // Direct map reaches the same bytes as the data mapping.
        let mut buf = [0u8; 8];
        plat.machine.host_read(Platform::dm(XEN_DATA_PA), &mut buf).unwrap();
        assert_eq!(&buf, b"xen data");
        let _ = info;
    }

    #[test]
    fn planted_instructions_are_executable() {
        let (mut plat, info) = Platform::boot(DRAM, 2).unwrap();
        plat.machine.exec_priv(info.xen_sites.cli, PrivOp::Cli).unwrap();
        plat.machine.exec_priv(info.xen_sites.sti, PrivOp::Sti).unwrap();
        // Wrong site → wrong bytes → fault.
        assert!(plat.machine.exec_priv(info.xen_sites.cli, PrivOp::Sti).is_err());
    }

    #[test]
    fn data_region_is_nx() {
        let (mut plat, _info) = Platform::boot(DRAM, 3).unwrap();
        assert!(plat.machine.host_fetch(XEN_DATA_BASE, &mut [0; 1]).is_err());
    }

    #[test]
    #[should_panic(expected = "DRAM too small")]
    fn tiny_dram_panics() {
        let _ = Platform::boot(PAGE_SIZE * 16, 4);
    }
}
