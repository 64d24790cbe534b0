//! A host page-table entry that points past the end of DRAM must fail
//! closed. Both guardians accept such an entry (Fidelius's PIT reads a
//! frame past DRAM as free), so the CPU is the last line: every access
//! through the mapping raises a host page fault with
//! `BadPhysicalAddress` instead of panicking.

use fidelius::prelude::*;
use fidelius_hw::error::{AccessKind, FaultReason};
use fidelius_hw::memctrl::EncSel;
use fidelius_hw::paging::{Mapper, PhysPtAccess, Pte, PTE_PRESENT, PTE_WRITABLE};
use fidelius_hw::{Fault, Hva};
use fidelius_xen::layout::direct_map;
use fidelius_xen::Guardian;

const DRAM: u64 = 32 << 20;

/// Points the direct-map entry of `Hpa(16 MiB)` 64 frames past the end of
/// DRAM through the guardian, and returns the remapped address.
fn remap_outside_dram(sys: &mut System, flags: u64) -> Hva {
    let va = direct_map(Hpa(16 << 20));
    let root = sys.plat.machine.cpu.cr3;
    let entry = {
        let mut acc = PhysPtAccess::new(&mut sys.plat.machine.mc, EncSel::None);
        Mapper::from_root(root).leaf_entry_pa(&mut acc, va.0).unwrap().unwrap()
    };
    let beyond = Pte::new(Hpa(DRAM + (64 << 12)), PTE_PRESENT | flags);
    sys.guardian.host_pt_write(&mut sys.plat, entry, beyond.0).unwrap();
    va
}

fn fails_closed(guardian: Box<dyn Guardian>) {
    let name = guardian.name();
    let mut sys = System::new(DRAM, 1, guardian).unwrap();
    let va = remap_outside_dram(&mut sys, 0);
    let fault =
        |access| Fault::HostPageFault { va, access, reason: FaultReason::BadPhysicalAddress };
    let m = &mut sys.plat.machine;
    assert_eq!(m.host_read(va, &mut [0; 8]), Err(fault(AccessKind::Read)), "{name}: host_read");
    assert_eq!(m.host_read_u64(va), Err(fault(AccessKind::Read)), "{name}: host_read_u64");
    assert_eq!(
        m.host_read_stream(va, &mut [0; 64], 8),
        Err(fault(AccessKind::Read)),
        "{name}: host_read_stream"
    );
    assert_eq!(m.host_fetch(va, 3), Err(fault(AccessKind::Execute)), "{name}: host_fetch");

    let va = remap_outside_dram(&mut sys, PTE_WRITABLE);
    let m = &mut sys.plat.machine;
    assert_eq!(m.host_write(va, &[1; 8]), Err(fault(AccessKind::Write)), "{name}: host_write");
    assert_eq!(
        m.host_write_stream(va, &[1; 64], 8),
        Err(fault(AccessKind::Write)),
        "{name}: host_write_stream"
    );
}

#[test]
fn host_mapping_past_dram_faults_under_fidelius() {
    fails_closed(Box::new(Fidelius::new()));
}

#[test]
fn host_mapping_past_dram_faults_unprotected() {
    fails_closed(Box::new(Unprotected::default()));
}
