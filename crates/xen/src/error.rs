//! Errors for the hypervisor stack.

use crate::domain::DomainId;
use crate::guardian::GuardError;
use fidelius_hw::{Fault, HwError};
use fidelius_sev::SevError;
use fidelius_telemetry::DenialReason;
use std::error::Error;
use std::fmt;

/// Errors surfacing from hypervisor operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum XenError {
    /// A hardware-level error.
    Hw(HwError),
    /// An architectural fault that was not handled.
    Fault(Fault),
    /// A SEV firmware command failed.
    Sev(SevError),
    /// The Guardian refused an operation (policy violation).
    Guard(GuardError),
    /// No such domain.
    NoSuchDomain(DomainId),
    /// The domain is in the wrong state.
    BadDomainState(DomainId),
    /// A hypercall was malformed or unknown.
    BadHypercall(u64),
    /// A grant-table operation failed (bad reference, permission, …).
    BadGrant(u64),
    /// Block device error (out-of-range sector, bad request).
    BadBlockRequest,
    /// A guest physical address outside the domain's memory.
    BadGpa(u64),
    /// Out of guest memory or heap frames.
    OutOfMemory,
    /// The operation was refused fail-closed with a typed, audited reason
    /// (graceful-degradation paths: starved event channels, revoked grants,
    /// rolled-back migrations).
    FailClosed(DenialReason),
}

impl fmt::Display for XenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XenError::Hw(e) => write!(f, "hardware error: {e}"),
            XenError::Fault(e) => write!(f, "unhandled fault: {e}"),
            XenError::Sev(e) => write!(f, "sev error: {e}"),
            XenError::Guard(e) => write!(f, "guardian refused: {e}"),
            XenError::NoSuchDomain(d) => write!(f, "no such domain {}", d.0),
            XenError::BadDomainState(d) => write!(f, "domain {} in wrong state", d.0),
            XenError::BadHypercall(nr) => write!(f, "bad hypercall {nr}"),
            XenError::BadGrant(r) => write!(f, "bad grant reference {r}"),
            XenError::BadBlockRequest => write!(f, "bad block request"),
            XenError::BadGpa(g) => write!(f, "guest physical address {g:#x} out of range"),
            XenError::OutOfMemory => write!(f, "out of memory"),
            XenError::FailClosed(reason) => write!(f, "failed closed: {reason}"),
        }
    }
}

impl XenError {
    /// The typed reason when this error is a refusal: a guardian denial or
    /// a fail-closed disposal. Every other error is a failure, not a
    /// refusal, and has none.
    pub fn denial(&self) -> Option<DenialReason> {
        match self {
            XenError::Guard(GuardError::Denied(r)) | XenError::FailClosed(r) => Some(*r),
            _ => None,
        }
    }
}

impl Error for XenError {}

impl From<HwError> for XenError {
    fn from(e: HwError) -> Self {
        XenError::Hw(e)
    }
}

impl From<Fault> for XenError {
    fn from(e: Fault) -> Self {
        XenError::Fault(e)
    }
}

impl From<SevError> for XenError {
    fn from(e: SevError) -> Self {
        XenError::Sev(e)
    }
}

impl From<GuardError> for XenError {
    fn from(e: GuardError) -> Self {
        XenError::Guard(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(XenError::NoSuchDomain(DomainId(3)).to_string(), "no such domain 3");
        assert_eq!(XenError::BadHypercall(99).to_string(), "bad hypercall 99");
    }

    /// The refusal text is a contract: the attack matrix's `detail` column
    /// and existing logs quote it. Integrity-class reasons keep the
    /// "integrity violation" prefix the old string variant printed, and
    /// every other reason keeps "policy violation".
    #[test]
    fn denied_renders_the_old_text_and_denial_reads_it_back() {
        use fidelius_telemetry::DenialReason::*;
        const INTEGRITY: [DenialReason; 10] = [
            VmcbFieldTampered,
            GuestRipDiverted,
            AsidMismatchAtEntry,
            Ncr3MismatchAtEntry,
            MigrationStreamTampered,
            MigrationStreamTruncated,
            LaunchMeasurementReplayed,
            MigrationSessionReplayed,
            RingIndexTampered,
            SevEsVmcbTampered,
        ];
        for r in DenialReason::ALL {
            let class = if INTEGRITY.contains(&r) { "integrity" } else { "policy" };
            let err = XenError::Guard(GuardError::Denied(r));
            assert_eq!(
                err.to_string(),
                format!("guardian refused: {class} violation: {}", r.as_str())
            );
            assert_eq!(err.denial(), Some(r));
            assert_eq!(XenError::FailClosed(r).denial(), Some(r));
        }
        assert_eq!(
            XenError::Guard(GuardError::Denied(Cr0WpClear)).to_string(),
            "guardian refused: policy violation: CR0.WP cannot be cleared"
        );
        assert_eq!(
            XenError::Guard(GuardError::Denied(VmcbFieldTampered)).to_string(),
            "guardian refused: integrity violation: vmcb field tampered"
        );
        let fault = Fault::HostPageFault {
            va: fidelius_hw::Hva(0),
            access: fidelius_hw::error::AccessKind::Read,
            reason: fidelius_hw::error::FaultReason::NotPresent,
        };
        let hw = HwError::OutOfFrames;
        for other in [
            XenError::Hw(hw.clone()),
            XenError::Fault(fault),
            XenError::Sev(SevError::NotActivated),
            XenError::Guard(GuardError::Fault(fault)),
            XenError::Guard(GuardError::Hw(hw)),
            XenError::Guard(GuardError::Sev(SevError::NotActivated)),
            XenError::NoSuchDomain(DomainId(1)),
            XenError::BadDomainState(DomainId(1)),
            XenError::BadHypercall(1),
            XenError::BadGrant(1),
            XenError::BadBlockRequest,
            XenError::BadGpa(1),
            XenError::OutOfMemory,
        ] {
            assert_eq!(other.denial(), None, "{other:?} is not a refusal");
        }
    }
}
