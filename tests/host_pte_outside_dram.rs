//! A host page-table entry that points past the end of DRAM must fail
//! closed. Fidelius refuses the entry at its gate with a typed reason, for
//! read-only and writable mappings alike. The unprotected guardian writes
//! it, so there the CPU is the last line: every access through the mapping
//! raises a host page fault with `BadPhysicalAddress` instead of panicking.

use fidelius::prelude::*;
use fidelius_hw::error::{AccessKind, FaultReason};
use fidelius_hw::memctrl::EncSel;
use fidelius_hw::paging::{Mapper, PhysPtAccess, Pte, PTE_PRESENT, PTE_WRITABLE};
use fidelius_hw::{Fault, Hva};
use fidelius_telemetry::DenialReason;
use fidelius_xen::layout::direct_map;
use fidelius_xen::GuardError;

const DRAM: u64 = 32 << 20;

/// Points the direct-map entry of `Hpa(16 MiB)` 64 frames past the end of
/// DRAM through the guardian, and returns the remapped address.
fn remap_outside_dram(sys: &mut System, flags: u64) -> Result<Hva, GuardError> {
    let va = direct_map(Hpa(16 << 20));
    let root = sys.plat.machine.cpu.cr3;
    let entry = {
        let mut acc = PhysPtAccess::new(&mut sys.plat.machine.mc, EncSel::None);
        Mapper::from_root(root).leaf_entry_pa(&mut acc, va.0).unwrap().unwrap()
    };
    let beyond = Pte::new(Hpa(DRAM + (64 << 12)), PTE_PRESENT | flags);
    sys.guardian.host_pt_write(&mut sys.plat, entry, beyond.0)?;
    Ok(va)
}

#[test]
fn host_mapping_past_dram_is_refused_under_fidelius() {
    let mut sys = System::new(DRAM, 1, Box::new(Fidelius::new())).unwrap();
    for flags in [0, PTE_WRITABLE] {
        assert_eq!(
            remap_outside_dram(&mut sys, flags),
            Err(GuardError::Denied(DenialReason::PitPolicyViolation)),
            "flags {flags:#x}"
        );
    }
    // The refused entry never landed: the original mapping still reads.
    let va = direct_map(Hpa(16 << 20));
    sys.plat.machine.host_read_u64(va).unwrap();
    // An entry address past DRAM would alias a page-table page's PIT entry
    // (the PIT keeps 30 frame-number bits); it is no page-table page.
    let root = sys.plat.machine.cpu.cr3;
    let alias = Hpa(root.0 + (1 << 42));
    assert_eq!(
        sys.guardian.host_pt_write(&mut sys.plat, alias, 0),
        Err(GuardError::Denied(DenialReason::NotAPageTablePage))
    );
}

#[test]
fn host_mapping_past_dram_faults_unprotected() {
    let mut sys = System::new(DRAM, 1, Box::new(Unprotected::default())).unwrap();
    let va = remap_outside_dram(&mut sys, 0).unwrap();
    let fault =
        |access| Fault::HostPageFault { va, access, reason: FaultReason::BadPhysicalAddress };
    let m = &mut sys.plat.machine;
    assert_eq!(m.host_read(va, &mut [0; 8]), Err(fault(AccessKind::Read)), "host_read");
    assert_eq!(m.host_read_u64(va), Err(fault(AccessKind::Read)), "host_read_u64");
    assert_eq!(
        m.host_read_stream(va, &mut [0; 64], 8),
        Err(fault(AccessKind::Read)),
        "host_read_stream"
    );
    assert_eq!(m.host_fetch(va, &mut [0; 3]), Err(fault(AccessKind::Execute)), "host_fetch");

    let va = remap_outside_dram(&mut sys, PTE_WRITABLE).unwrap();
    let m = &mut sys.plat.machine;
    assert_eq!(m.host_write(va, &[1; 8]), Err(fault(AccessKind::Write)), "host_write");
    assert_eq!(
        m.host_write_stream(va, &[1; 64], 8),
        Err(fault(AccessKind::Write)),
        "host_write_stream"
    );
}
