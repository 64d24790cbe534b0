//! Control registers, EFER and the general-purpose register file.

/// CR0, with the bits the simulation cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cr0 {
    /// Paging enable.
    pub pg: bool,
    /// Write-protect: when clear, supervisor writes ignore read-only
    /// mappings — the mechanism behind the paper's type-1 gate.
    pub wp: bool,
}

impl Cr0 {
    /// The boot-time value for a paging-enabled kernel.
    pub fn enabled() -> Self {
        Cr0 { pg: true, wp: true }
    }

    /// Encodes into the architectural bit positions (PG=31, WP=16).
    pub fn to_bits(self) -> u64 {
        (u64::from(self.pg) << 31) | (u64::from(self.wp) << 16)
    }

    /// Decodes from architectural bits.
    pub fn from_bits(bits: u64) -> Self {
        Cr0 { pg: bits & (1 << 31) != 0, wp: bits & (1 << 16) != 0 }
    }
}

/// CR4 bits of interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cr4 {
    /// Supervisor-mode execution prevention.
    pub smep: bool,
}

impl Cr4 {
    /// Encodes into the architectural bit position (SMEP=20).
    pub fn to_bits(self) -> u64 {
        u64::from(self.smep) << 20
    }

    /// Decodes from architectural bits.
    pub fn from_bits(bits: u64) -> Self {
        Cr4 { smep: bits & (1 << 20) != 0 }
    }
}

/// EFER bits of interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Efer {
    /// No-execute enable.
    pub nxe: bool,
    /// Secure virtual machine enable (required for VMRUN).
    pub svme: bool,
}

impl Efer {
    /// Encodes into the architectural bit positions (NXE=11, SVME=12).
    pub fn to_bits(self) -> u64 {
        (u64::from(self.nxe) << 11) | (u64::from(self.svme) << 12)
    }

    /// Decodes from architectural bits.
    pub fn from_bits(bits: u64) -> Self {
        Efer { nxe: bits & (1 << 11) != 0, svme: bits & (1 << 12) != 0 }
    }
}

/// Names of the sixteen general-purpose registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Gpr {
    Rax = 0,
    Rbx,
    Rcx,
    Rdx,
    Rsi,
    Rdi,
    Rbp,
    Rsp,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
}

/// All sixteen GPR names, in index order.
pub const ALL_GPRS: [Gpr; 16] = [
    Gpr::Rax,
    Gpr::Rbx,
    Gpr::Rcx,
    Gpr::Rdx,
    Gpr::Rsi,
    Gpr::Rdi,
    Gpr::Rbp,
    Gpr::Rsp,
    Gpr::R8,
    Gpr::R9,
    Gpr::R10,
    Gpr::R11,
    Gpr::R12,
    Gpr::R13,
    Gpr::R14,
    Gpr::R15,
];

/// The general-purpose register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegFile {
    regs: [u64; 16],
}

impl RegFile {
    /// All zeroes.
    pub fn new() -> Self {
        RegFile::default()
    }

    /// Reads a register.
    pub fn get(&self, r: Gpr) -> u64 {
        self.regs[r as usize]
    }

    /// Writes a register.
    pub fn set(&mut self, r: Gpr, v: u64) {
        self.regs[r as usize] = v;
    }

    /// The raw array (for bulk shadow/restore).
    pub fn as_array(&self) -> [u64; 16] {
        self.regs
    }

    /// Replaces the whole file (restore from shadow).
    pub fn load_array(&mut self, regs: [u64; 16]) {
        self.regs = regs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cr_bit_roundtrips() {
        let cr0 = Cr0 { pg: true, wp: false };
        assert_eq!(Cr0::from_bits(cr0.to_bits()), cr0);
        let cr4 = Cr4 { smep: true };
        assert_eq!(Cr4::from_bits(cr4.to_bits()), cr4);
        let efer = Efer { nxe: true, svme: true };
        assert_eq!(Efer::from_bits(efer.to_bits()), efer);
    }

    #[test]
    fn regfile_array_roundtrip() {
        let mut rf = RegFile::new();
        rf.set(Gpr::R9, 9);
        let arr = rf.as_array();
        let mut rf2 = RegFile::new();
        rf2.load_array(arr);
        assert_eq!(rf2.get(Gpr::R9), 9);
        assert_eq!(rf, rf2);
    }
}
