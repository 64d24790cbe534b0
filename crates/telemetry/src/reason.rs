//! The typed vocabulary of policy denials.
//!
//! Historically the audit log carried `&'static str` reasons and classified
//! them with substring heuristics; here each denial is a variant, the legacy
//! string is derived from it (`as_str`, also its `Display`), and the
//! classification is a total function (`kind`). The substring heuristic
//! itself is gone; a unit test keeps a copy to pin `kind()` against it.

use std::fmt;

/// Coarse classification of a recorded denial (the audit log's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AuditKind {
    /// A PIT policy rejected a mapping update.
    PitViolation,
    /// A GIT policy rejected a grant operation.
    GitViolation,
    /// A privileged-instruction policy rejected an operand.
    InstrViolation,
    /// VMCB/register integrity verification failed at the entry boundary.
    IntegrityViolation,
    /// A write-once / execute-once policy latched.
    OnceViolation,
    /// Any other policy denial.
    Other,
}

impl AuditKind {
    /// Stable short label (used in reports and JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            AuditKind::PitViolation => "pit",
            AuditKind::GitViolation => "git",
            AuditKind::InstrViolation => "instr",
            AuditKind::IntegrityViolation => "integrity",
            AuditKind::OnceViolation => "once",
            AuditKind::Other => "other",
        }
    }

    /// All kinds, for iteration in reports.
    pub const ALL: [AuditKind; 6] = [
        AuditKind::PitViolation,
        AuditKind::GitViolation,
        AuditKind::InstrViolation,
        AuditKind::IntegrityViolation,
        AuditKind::OnceViolation,
        AuditKind::Other,
    ];
}

impl fmt::Display for AuditKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why an operation was refused. One variant per refusal the policies and
/// the fail-closed paths can return; the refusal travels to the caller as
/// this value, and [`DenialReason::as_str`] is only its rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DenialReason {
    // --- write-once / execute-once (§4.2, §5.2) ---
    /// A write-once page was written a second time.
    WriteOnceAlreadyInitialized,
    /// An execute-once instruction site was reused.
    ExecuteOnceAlreadyUsed,

    // --- PIT page policies (§4.2, §5.1) ---
    /// The claimed target is not registered as a hypervisor page-table page.
    NotAPageTablePage,
    /// The PIT forbids this mapping for the frame's recorded usage/owner.
    PitPolicyViolation,
    /// An NPT write landed outside every registered NPT page.
    WriteOutsideRegisteredNpt,
    /// The NPT page is owned by a different domain.
    NptPageForeignDomain,
    /// The table page is owned by a different domain.
    TablePageForeignDomain,
    /// An intermediate NPT entry must point at a hypervisor heap page.
    IntermediateNotHeapPage,
    /// Remapping a GPA that already has a backing frame (replay setup).
    RemapPopulatedGpa,
    /// The frame already backs a different GPA (aliasing setup).
    FrameAlreadyBacksGpa,
    /// Swapping two in-domain pages (in-place replay setup).
    InDomainPageShuffle,
    /// Mapping another guest's private page into this guest.
    MapOtherGuestPrivatePage,
    /// The frame's usage class is not mappable into any guest.
    FrameNotMappable,

    // --- GIT grant policies (§5.1) ---
    /// A foreign mapping had no covering grant.
    ForeignMappingWithoutGrant,
    /// A grant table index was out of range.
    GrantIndexOutOfRange,
    /// The grant was never authorized through `pre_sharing`.
    GrantNotAuthorized,
    /// The granted frame does not back the GPA the grant claims.
    GrantFrameMismatch,
    /// The hypervisor's relayed `pre_sharing` arguments disagree with the
    /// guest's request.
    PreSharingRelayMismatch,

    // --- privileged-instruction policies (§4.1.2) ---
    /// Clearing `CR0.PG` would disable paging.
    Cr0PgClear,
    /// Clearing `CR0.WP` would unlock write-protected pages.
    Cr0WpClear,
    /// Clearing `CR4.SMEP` would allow user-page execution in ring 0.
    Cr4SmepClear,
    /// Clearing `EFER.NXE` would disable no-execute enforcement.
    EferNxeClear,
    /// Clearing `EFER.SVME` would disable SVM (and SEV with it).
    EferSvmeClear,
    /// The new CR3 does not point at a registered root page table.
    Cr3InvalidRoot,
    /// A VMRUN was attempted outside the guarded entry boundary.
    VmrunOutsideBoundary,

    // --- entry-boundary integrity (§4.3) ---
    /// A masked VMCB field changed between exit and re-entry.
    VmcbFieldTampered,
    /// The guest RIP was diverted between exit and re-entry.
    GuestRipDiverted,
    /// The ASID at first entry does not match the launched guest.
    AsidMismatchAtEntry,
    /// The nCR3 at first entry does not match the sealed NPT root.
    Ncr3MismatchAtEntry,

    // --- life-cycle / migration integrity (§4.3.4–4.3.6) ---
    /// The hypervisor touched a sealed guest frame through its own mappings.
    SealedFrameAccess,
    /// The incoming migration stream failed tag verification (corruption or
    /// splice in transit); the half-restored domain was rolled back.
    MigrationStreamTampered,
    /// The incoming migration stream was shorter than the sealed
    /// measurement covers; the half-restored domain was rolled back.
    MigrationStreamTruncated,
    /// A LAUNCH/RECEIVE presented a session whose nonce the retrofitted
    /// firmware already consumed: the hypervisor is replaying a stale
    /// owner image instead of the current one (attestation rollback).
    LaunchMeasurementReplayed,
    /// A migration SEND/RECEIVE presented a session whose nonce was
    /// already consumed: the hypervisor is resurrecting an old captured
    /// stream to roll guest state back.
    MigrationSessionReplayed,

    // --- availability / degradation (fault-injection layer) ---
    /// A backend grant vanished while an I/O request was in flight.
    GrantRevokedMidIo,
    /// The published blkif ring producer index changed out from under a
    /// batched drain that had already validated its request window; the
    /// partial drain was rolled back.
    RingIndexTampered,
    /// A gate response stayed delayed past the bounded retry budget.
    GateResponseTimeout,
    /// An event-channel notification kept being dropped past the bounded
    /// retry budget.
    EventChannelStarved,

    // --- other ---
    /// VMRUN for a domain Fidelius has never seen.
    UnknownDomainAtEntry,
    /// A write-once initialization named a GPA the domain has no frame for.
    WriteOnceTargetUnpopulated,
    /// `pre_sharing_op` reached a guardian without the Fidelius extension.
    PreSharingUnsupported,
    /// The SEV-ES baseline's VMCB integrity check failed at re-entry.
    SevEsVmcbTampered,
}

impl DenialReason {
    /// The reason's stable text (its `Display`, and what the audit log used
    /// to store).
    pub fn as_str(&self) -> &'static str {
        use DenialReason::*;
        match self {
            WriteOnceAlreadyInitialized => "write-once page already initialized",
            ExecuteOnceAlreadyUsed => "execute-once instruction already used",
            NotAPageTablePage => "target is not a hypervisor page-table-page",
            PitPolicyViolation => "mapping violates PIT policy",
            WriteOutsideRegisteredNpt => "write outside any registered NPT page",
            NptPageForeignDomain => "NPT page belongs to another domain",
            TablePageForeignDomain => "table page belongs to another domain",
            IntermediateNotHeapPage => "intermediate NPT page must be a heap page",
            RemapPopulatedGpa => "remapping a populated GPA (replay)",
            FrameAlreadyBacksGpa => "frame already backs another GPA",
            InDomainPageShuffle => "in-domain page shuffle (replay)",
            MapOtherGuestPrivatePage => "mapping another guest's private page",
            FrameNotMappable => "frame is not mappable into a guest",
            ForeignMappingWithoutGrant => "foreign mapping not covered by a grant",
            GrantIndexOutOfRange => "grant index out of range",
            GrantNotAuthorized => "grant not authorized by pre_sharing (GIT)",
            GrantFrameMismatch => "grant frame does not back the claimed GPA",
            PreSharingRelayMismatch => "pre_sharing relay does not match guest's request",
            Cr0PgClear => "CR0.PG cannot be cleared",
            Cr0WpClear => "CR0.WP cannot be cleared",
            Cr4SmepClear => "CR4.SMEP cannot be cleared",
            EferNxeClear => "EFER.NXE cannot be cleared",
            EferSvmeClear => "EFER.SVME cannot be cleared",
            Cr3InvalidRoot => "CR3 target is not a valid root",
            VmrunOutsideBoundary => "VMRUN only through the guarded entry boundary",
            VmcbFieldTampered => "vmcb field tampered",
            GuestRipDiverted => "guest rip diverted",
            AsidMismatchAtEntry => "asid mismatch at first entry",
            Ncr3MismatchAtEntry => "nCR3 mismatch at first entry",
            SealedFrameAccess => "hypervisor access to a sealed guest frame",
            MigrationStreamTampered => "migration stream tampered",
            MigrationStreamTruncated => "migration stream truncated",
            LaunchMeasurementReplayed => "stale launch measurement replayed (rollback)",
            MigrationSessionReplayed => "migration session replayed (rollback)",
            GrantRevokedMidIo => "grant revoked while I/O in flight",
            RingIndexTampered => "blkif ring producer index tampered mid-drain",
            GateResponseTimeout => "gate response delayed past retry budget",
            EventChannelStarved => "event channel starved past retry budget",
            UnknownDomainAtEntry => "unknown domain at entry",
            WriteOnceTargetUnpopulated => "write-once target not populated",
            PreSharingUnsupported => "pre_sharing_op is a Fidelius extension",
            SevEsVmcbTampered => "sev-es: vmcb tampered",
        }
    }

    /// Total classification into the audit taxonomy. For every variant this
    /// agrees with what the old substring `classify()` heuristic produced
    /// for the same string (a unit test pins that).
    pub fn kind(&self) -> AuditKind {
        use DenialReason::*;
        match self {
            WriteOnceAlreadyInitialized | ExecuteOnceAlreadyUsed | WriteOnceTargetUnpopulated => {
                AuditKind::OnceViolation
            }
            NotAPageTablePage
            | PitPolicyViolation
            | WriteOutsideRegisteredNpt
            | NptPageForeignDomain
            | TablePageForeignDomain
            | IntermediateNotHeapPage
            | RemapPopulatedGpa
            | FrameAlreadyBacksGpa
            | InDomainPageShuffle
            | MapOtherGuestPrivatePage
            | FrameNotMappable => AuditKind::PitViolation,
            ForeignMappingWithoutGrant
            | GrantIndexOutOfRange
            | GrantNotAuthorized
            | GrantFrameMismatch
            | PreSharingRelayMismatch => AuditKind::GitViolation,
            Cr0PgClear | Cr0WpClear | Cr4SmepClear | EferNxeClear | EferSvmeClear
            | Cr3InvalidRoot | VmrunOutsideBoundary => AuditKind::InstrViolation,
            VmcbFieldTampered
            | GuestRipDiverted
            | AsidMismatchAtEntry
            | Ncr3MismatchAtEntry
            | MigrationStreamTampered
            | MigrationStreamTruncated
            | LaunchMeasurementReplayed
            | MigrationSessionReplayed
            | RingIndexTampered
            | SevEsVmcbTampered => AuditKind::IntegrityViolation,
            SealedFrameAccess => AuditKind::PitViolation,
            GrantRevokedMidIo | PreSharingUnsupported => AuditKind::GitViolation,
            GateResponseTimeout | EventChannelStarved | UnknownDomainAtEntry => AuditKind::Other,
        }
    }

    /// Every variant (for exhaustive tests and reports).
    pub const ALL: [DenialReason; 42] = {
        use DenialReason::*;
        [
            WriteOnceAlreadyInitialized,
            ExecuteOnceAlreadyUsed,
            NotAPageTablePage,
            PitPolicyViolation,
            WriteOutsideRegisteredNpt,
            NptPageForeignDomain,
            TablePageForeignDomain,
            IntermediateNotHeapPage,
            RemapPopulatedGpa,
            FrameAlreadyBacksGpa,
            InDomainPageShuffle,
            MapOtherGuestPrivatePage,
            FrameNotMappable,
            ForeignMappingWithoutGrant,
            GrantIndexOutOfRange,
            GrantNotAuthorized,
            GrantFrameMismatch,
            PreSharingRelayMismatch,
            Cr0PgClear,
            Cr0WpClear,
            Cr4SmepClear,
            EferNxeClear,
            EferSvmeClear,
            Cr3InvalidRoot,
            VmrunOutsideBoundary,
            VmcbFieldTampered,
            GuestRipDiverted,
            AsidMismatchAtEntry,
            Ncr3MismatchAtEntry,
            SealedFrameAccess,
            MigrationStreamTampered,
            MigrationStreamTruncated,
            LaunchMeasurementReplayed,
            MigrationSessionReplayed,
            GrantRevokedMidIo,
            RingIndexTampered,
            GateResponseTimeout,
            EventChannelStarved,
            UnknownDomainAtEntry,
            WriteOnceTargetUnpopulated,
            PreSharingUnsupported,
            SevEsVmcbTampered,
        ]
    };
}

impl fmt::Display for DenialReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The old `classify()` heuristic, reproduced verbatim so we can prove
    /// the typed `kind()` never disagrees with it on the legacy strings.
    fn legacy_classify(reason: &str) -> AuditKind {
        if reason.contains("grant") || reason.contains("pre_sharing") {
            AuditKind::GitViolation
        } else if reason.contains("CR0")
            || reason.contains("CR3")
            || reason.contains("CR4")
            || reason.contains("SMEP")
            || reason.contains("NXE")
            || reason.contains("SVME")
            || reason.contains("VMRUN")
            || reason.contains("vmrun")
        {
            AuditKind::InstrViolation
        } else if reason.contains("once") {
            AuditKind::OnceViolation
        } else if reason.contains("tampered")
            || reason.contains("mismatch")
            || reason.contains("diverted")
        {
            AuditKind::IntegrityViolation
        } else if reason.contains("page")
            || reason.contains("frame")
            || reason.contains("NPT")
            || reason.contains("PIT")
            || reason.contains("replay")
            || reason.contains("mappable")
        {
            AuditKind::PitViolation
        } else {
            AuditKind::Other
        }
    }

    #[test]
    fn kind_agrees_with_legacy_classifier_on_every_variant() {
        for r in DenialReason::ALL {
            // `nCR3 mismatch at first entry` is the one string the substring
            // heuristic got wrong: "CR3" matches before "mismatch", filing an
            // integrity failure under instruction violations. The typed kind
            // fixes that, so it is exempt from the agreement check.
            if r == DenialReason::Ncr3MismatchAtEntry {
                assert_eq!(legacy_classify(r.as_str()), AuditKind::InstrViolation);
                assert_eq!(r.kind(), AuditKind::IntegrityViolation);
                continue;
            }
            // A truncated migration stream is an integrity failure (the tag
            // does not cover what arrived), but its string carries none of
            // the heuristic's keywords. The typed kind files it correctly.
            if r == DenialReason::MigrationStreamTruncated {
                assert_eq!(legacy_classify(r.as_str()), AuditKind::Other);
                assert_eq!(r.kind(), AuditKind::IntegrityViolation);
                continue;
            }
            // The rollback family carries "replayed" in its strings, which
            // the heuristic files under PIT (it only ever saw "replay" in
            // mapping-shuffle denials). These are attestation-integrity
            // failures; the typed kind files them correctly.
            if matches!(
                r,
                DenialReason::LaunchMeasurementReplayed | DenialReason::MigrationSessionReplayed
            ) {
                assert_eq!(legacy_classify(r.as_str()), AuditKind::PitViolation);
                assert_eq!(r.kind(), AuditKind::IntegrityViolation);
                continue;
            }
            assert_eq!(r.kind(), legacy_classify(r.as_str()), "variant {r:?} ({})", r.as_str());
        }
    }

    #[test]
    fn strings_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for r in DenialReason::ALL {
            assert!(seen.insert(r.as_str()), "duplicate string {}", r.as_str());
        }
    }

    #[test]
    fn display_matches_as_str() {
        assert_eq!(
            DenialReason::RemapPopulatedGpa.to_string(),
            "remapping a populated GPA (replay)"
        );
    }
}
