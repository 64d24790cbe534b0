//! Hardware fault and error types.

use crate::{Asid, Gpa, Gva, Hpa, Hva};
use std::error::Error;
use std::fmt;

/// The kind of memory access that raised a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data read.
    Read,
    /// A data write.
    Write,
    /// An instruction fetch.
    Execute,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
            AccessKind::Execute => write!(f, "execute"),
        }
    }
}

/// Why a translation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultReason {
    /// The relevant table entry was not present.
    NotPresent,
    /// A write hit a read-only mapping (and `CR0.WP` applied).
    WriteProtected,
    /// An instruction fetch hit a no-execute mapping.
    NoExecute,
    /// The address was past the end of simulated physical memory.
    BadPhysicalAddress,
}

impl fmt::Display for FaultReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultReason::NotPresent => write!(f, "not present"),
            FaultReason::WriteProtected => write!(f, "write to read-only mapping"),
            FaultReason::NoExecute => write!(f, "execute of no-execute mapping"),
            FaultReason::BadPhysicalAddress => write!(f, "physical address out of range"),
        }
    }
}

/// A translation/permission fault, delivered to the registered handler
/// (Fidelius's fault handler in the full system).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// A fault during host-mode translation (hypervisor page tables).
    HostPageFault {
        /// Faulting virtual address.
        va: Hva,
        /// What the access was.
        access: AccessKind,
        /// Why it faulted.
        reason: FaultReason,
    },
    /// A fault during the guest stage-1 walk (guest's own page tables).
    GuestPageFault {
        /// Faulting guest virtual address.
        va: Gva,
        /// What the access was.
        access: AccessKind,
        /// Why it faulted.
        reason: FaultReason,
    },
    /// A nested (stage-2) fault: GPA→HPA translation failed. This is the
    /// NPT violation that exits to the host.
    NestedPageFault {
        /// The guest physical address that missed.
        gpa: Gpa,
        /// What the access was.
        access: AccessKind,
        /// Why it faulted.
        reason: FaultReason,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::HostPageFault { va, access, reason } => {
                write!(f, "host page fault on {access} at {va}: {reason}")
            }
            Fault::GuestPageFault { va, access, reason } => {
                write!(f, "guest page fault on {access} at {va}: {reason}")
            }
            Fault::NestedPageFault { gpa, access, reason } => {
                write!(f, "nested page fault on {access} at {gpa}: {reason}")
            }
        }
    }
}

impl Error for Fault {}

/// Errors from hardware components that are not architectural faults.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HwError {
    /// Physical access outside of DRAM.
    BadPhysicalAddress {
        /// The offending address.
        pa: Hpa,
        /// Access length.
        len: u64,
    },
    /// The memory controller has no key installed for this ASID.
    NoKeyForAsid(Asid),
    /// Out of physical frames.
    OutOfFrames,
    /// A frame was freed twice or never allocated.
    BadFree(Hpa),
    /// VMRUN was issued while already in guest mode, or VMEXIT in host mode.
    BadWorldSwitch,
    /// An architectural fault surfaced through a non-fault path.
    Fault(Fault),
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::BadPhysicalAddress { pa, len } => {
                write!(f, "physical access at {pa} length {len} out of range")
            }
            HwError::NoKeyForAsid(asid) => {
                write!(f, "no encryption key installed for asid {}", asid.0)
            }
            HwError::OutOfFrames => write!(f, "out of physical frames"),
            HwError::BadFree(pa) => write!(f, "bad frame free at {pa}"),
            HwError::BadWorldSwitch => write!(f, "invalid guest/host world switch"),
            HwError::Fault(fault) => write!(f, "{fault}"),
        }
    }
}

impl Error for HwError {}

impl From<Fault> for HwError {
    fn from(fault: Fault) -> Self {
        HwError::Fault(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let f = Fault::HostPageFault {
            va: Hva(0x1000),
            access: AccessKind::Write,
            reason: FaultReason::WriteProtected,
        };
        assert_eq!(
            f.to_string(),
            "host page fault on write at Hva(0x1000): write to read-only mapping"
        );
        let e: HwError = f.into();
        assert_eq!(e.to_string(), f.to_string());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Fault>();
        assert_send_sync::<HwError>();
    }
}
