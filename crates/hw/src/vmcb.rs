//! The Virtual Machine Control Block.
//!
//! The VMCB is a 1 KiB structure **in simulated physical memory** holding
//! the control area (intercepts, ASID, nested-paging root, exit codes) and
//! the save area (guest RIP/RSP/RAX, control registers). Keeping it in
//! memory matters: SEV does *not* encrypt the VMCB, so the hypervisor can
//! read and tamper with it freely — the attack surface of paper §2.2 — and
//! Fidelius's shadow-and-verify mechanism (§4.2.1) operates on exactly this
//! memory image.

use crate::error::HwError;
use crate::memctrl::{EncSel, MemoryController};
use crate::Hpa;

/// Size of the VMCB in bytes.
pub const VMCB_SIZE: u64 = 1024;

/// Number of 64-bit fields in the image.
pub const VMCB_FIELDS: usize = 18;

/// Bytes the fields occupy at the start of the VMCB.
const IMAGE_BYTES: usize = 8 * VMCB_FIELDS;

/// Named VMCB fields; the discriminant is the field index (offset / 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum VmcbField {
    /// Intercept vector (which events exit).
    Intercepts = 0,
    /// Guest ASID.
    Asid = 1,
    /// Nested paging enable.
    NpEnable = 2,
    /// Nested page table root (host physical).
    NCr3 = 3,
    /// SEV enable for this guest.
    SevEnable = 4,
    /// Exit code of the last #VMEXIT.
    ExitCode = 5,
    /// Exit info 1 (e.g. NPF fault GPA).
    ExitInfo1 = 6,
    /// Exit info 2 (e.g. NPF error bits).
    ExitInfo2 = 7,
    /// Guest instruction pointer.
    Rip = 8,
    /// Guest stack pointer.
    Rsp = 9,
    /// Guest RAX (part of the save area on real hardware).
    Rax = 10,
    /// Guest CR0.
    Cr0 = 11,
    /// Guest CR3 (guest-physical root of the guest's own tables).
    Cr3 = 12,
    /// Guest CR4.
    Cr4 = 13,
    /// Guest EFER.
    Efer = 14,
    /// Guest CPL.
    Cpl = 15,
    /// Event injection field.
    EventInj = 16,
    /// Next sequential instruction pointer (for skipping emulated ops).
    NRip = 17,
}

/// All fields, for iteration.
pub const ALL_FIELDS: [VmcbField; VMCB_FIELDS] = [
    VmcbField::Intercepts,
    VmcbField::Asid,
    VmcbField::NpEnable,
    VmcbField::NCr3,
    VmcbField::SevEnable,
    VmcbField::ExitCode,
    VmcbField::ExitInfo1,
    VmcbField::ExitInfo2,
    VmcbField::Rip,
    VmcbField::Rsp,
    VmcbField::Rax,
    VmcbField::Cr0,
    VmcbField::Cr3,
    VmcbField::Cr4,
    VmcbField::Efer,
    VmcbField::Cpl,
    VmcbField::EventInj,
    VmcbField::NRip,
];

/// Why the guest exited, as stored in [`VmcbField::ExitCode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum ExitCode {
    /// CPUID instruction.
    Cpuid = 0x72,
    /// VMMCALL — the hypercall instruction.
    Vmmcall = 0x81,
    /// HLT.
    Hlt = 0x78,
    /// Nested page fault.
    NestedPageFault = 0x400,
    /// Read/write of a model-specific register.
    Msr = 0x7C,
    /// I/O port access.
    IoPort = 0x7B,
    /// Physical interrupt (used by the scheduler to preempt).
    Intr = 0x60,
    /// Guest shutdown.
    Shutdown = 0x7F,
}

impl ExitCode {
    /// Decodes from the raw exit-code value.
    pub fn from_raw(v: u64) -> Option<ExitCode> {
        Some(match v {
            0x72 => ExitCode::Cpuid,
            0x81 => ExitCode::Vmmcall,
            0x78 => ExitCode::Hlt,
            0x400 => ExitCode::NestedPageFault,
            0x7C => ExitCode::Msr,
            0x7B => ExitCode::IoPort,
            0x60 => ExitCode::Intr,
            0x7F => ExitCode::Shutdown,
            _ => return None,
        })
    }
}

/// An in-register copy of a VMCB, loaded from / stored to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VmcbImage {
    fields: [u64; VMCB_FIELDS],
}

impl VmcbImage {
    /// A zeroed image.
    pub fn new() -> Self {
        VmcbImage::default()
    }

    /// Reads a field.
    pub fn get(&self, f: VmcbField) -> u64 {
        self.fields[f as usize]
    }

    /// Writes a field.
    pub fn set(&mut self, f: VmcbField, v: u64) -> &mut Self {
        self.fields[f as usize] = v;
        self
    }

    /// Loads the image from memory at `pa`, in one controller call. The
    /// VMCB is never encrypted (SEV leaves it plaintext), hence
    /// `EncSel::None`.
    ///
    /// # Errors
    ///
    /// Propagates physical-access errors.
    pub fn load(mc: &MemoryController, pa: Hpa) -> Result<Self, HwError> {
        let mut raw = [0u8; IMAGE_BYTES];
        mc.read(pa, &mut raw, EncSel::None)?;
        let mut img = VmcbImage::new();
        for (slot, bytes) in img.fields.iter_mut().zip(raw.chunks_exact(8)) {
            *slot = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
        }
        Ok(img)
    }

    /// Stores the image to memory at `pa`, in one controller call.
    ///
    /// # Errors
    ///
    /// Propagates physical-access errors.
    pub fn store(&self, mc: &mut MemoryController, pa: Hpa) -> Result<(), HwError> {
        let mut raw = [0u8; IMAGE_BYTES];
        for (bytes, slot) in raw.chunks_exact_mut(8).zip(&self.fields) {
            bytes.copy_from_slice(&slot.to_le_bytes());
        }
        mc.write(pa, &raw, EncSel::None)
    }

    /// Lists the fields on which `self` and `other` differ.
    pub fn diff(&self, other: &VmcbImage) -> Vec<VmcbField> {
        ALL_FIELDS.iter().copied().filter(|&f| self.get(f) != other.get(f)).collect()
    }

    /// Zeroes every field except the listed ones (Fidelius's exit-reason
    /// based masking).
    pub fn mask_except(&mut self, keep: &[VmcbField]) {
        let mut kept = [0; VMCB_FIELDS];
        for &f in keep {
            kept[f as usize] = self.get(f);
        }
        self.fields = kept;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Dram;
    use crate::PAGE_SIZE;

    #[test]
    fn load_store_roundtrip() {
        let mut mc = MemoryController::new(Dram::new(4 * PAGE_SIZE));
        let mut img = VmcbImage::new();
        img.set(VmcbField::Rip, 0x1234).set(VmcbField::Asid, 7);
        img.store(&mut mc, Hpa(0x1000)).unwrap();
        let back = VmcbImage::load(&mc, Hpa(0x1000)).unwrap();
        assert_eq!(back, img);
        assert_eq!(back.get(VmcbField::Rip), 0x1234);
    }

    #[test]
    fn vmcb_is_plaintext_in_dram() {
        // The SEV weakness: anyone with physical (or mapped) access reads
        // the VMCB contents directly.
        let mut mc = MemoryController::new(Dram::new(4 * PAGE_SIZE));
        let mut img = VmcbImage::new();
        img.set(VmcbField::Rip, 0xDEAD_BEEF);
        img.store(&mut mc, Hpa(0x2000)).unwrap();
        let mut raw = [0u8; 8];
        mc.dram().read_raw(Hpa(0x2000 + 8 * VmcbField::Rip as u64), &mut raw).unwrap();
        assert_eq!(u64::from_le_bytes(raw), 0xDEAD_BEEF);
    }

    #[test]
    fn diff_lists_changed_fields() {
        let mut a = VmcbImage::new();
        let mut b = VmcbImage::new();
        a.set(VmcbField::Rip, 1);
        b.set(VmcbField::Rip, 2);
        b.set(VmcbField::Rax, 3);
        let d = a.diff(&b);
        assert_eq!(d, vec![VmcbField::Rip, VmcbField::Rax]);
    }

    #[test]
    fn mask_except_keeps_only_listed() {
        let mut img = VmcbImage::new();
        for f in ALL_FIELDS {
            img.set(f, 0xAB);
        }
        img.mask_except(&[VmcbField::ExitCode, VmcbField::ExitInfo1]);
        assert_eq!(img.get(VmcbField::ExitCode), 0xAB);
        assert_eq!(img.get(VmcbField::ExitInfo1), 0xAB);
        assert_eq!(img.get(VmcbField::Rip), 0);
        assert_eq!(img.get(VmcbField::Cr3), 0);
    }

    #[test]
    fn exit_code_roundtrip() {
        for code in [
            ExitCode::Cpuid,
            ExitCode::Vmmcall,
            ExitCode::Hlt,
            ExitCode::NestedPageFault,
            ExitCode::Msr,
            ExitCode::IoPort,
            ExitCode::Intr,
            ExitCode::Shutdown,
        ] {
            assert_eq!(ExitCode::from_raw(code as u64), Some(code));
        }
        assert_eq!(ExitCode::from_raw(0xFFFF), None);
    }
}
