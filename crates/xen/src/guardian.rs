//! The Guardian trait — the seam between service provisioning and
//! critical-resource management — and the vanilla (unprotected)
//! implementation.

use crate::domain::{Domain, DomainId};
use crate::grants::{GrantEntry, GRANT_ENTRY_SIZE, GRANT_TABLE_ENTRIES};
use crate::layout::{direct_map, InstrSites};
use crate::platform::Platform;
use fidelius_crypto::modes::SECTOR_SIZE;
use fidelius_hw::cpu::PrivOp;
use fidelius_hw::{Fault, Hpa, HwError};
use fidelius_sev::SevError;
use fidelius_telemetry::{AuditKind, DenialReason};
use std::any::Any;
use std::error::Error;
use std::fmt;

/// Why a guardian refused (or failed to perform) an operation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GuardError {
    /// A protection policy or an integrity check refused the operation.
    Denied(DenialReason),
    /// The underlying access faulted.
    Fault(Fault),
    /// A hardware error occurred.
    Hw(HwError),
    /// A SEV firmware command failed.
    Sev(SevError),
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardError::Denied(r) if r.kind() == AuditKind::IntegrityViolation => {
                write!(f, "integrity violation: {r}")
            }
            GuardError::Denied(r) => write!(f, "policy violation: {r}"),
            GuardError::Fault(e) => write!(f, "fault: {e}"),
            GuardError::Hw(e) => write!(f, "hardware error: {e}"),
            GuardError::Sev(e) => write!(f, "sev error: {e}"),
        }
    }
}

impl Error for GuardError {}

impl From<Fault> for GuardError {
    fn from(e: Fault) -> Self {
        GuardError::Fault(e)
    }
}

impl From<HwError> for GuardError {
    fn from(e: HwError) -> Self {
        GuardError::Hw(e)
    }
}

impl From<SevError> for GuardError {
    fn from(e: SevError) -> Self {
        GuardError::Sev(e)
    }
}

/// Direction of a PV I/O data transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDir {
    /// Guest's private buffer → shared I/O buffer (disk write path).
    GuestToShared,
    /// Shared I/O buffer → guest's private buffer (disk read path).
    SharedToGuest,
}

/// What the hypervisor tells the guardian at late launch.
#[derive(Debug, Clone)]
pub struct LateLaunchInfo {
    /// Root of the host page tables.
    pub host_pt_root: Hpa,
    /// Physical base of the (one-page) grant table.
    pub grant_table_pa: Hpa,
    /// Instruction sites in the hypervisor's code image.
    pub xen_sites: InstrSites,
    /// Instruction sites in the Fidelius code image.
    pub fidelius_sites: InstrSites,
    /// Hypervisor code image (pa, pages).
    pub xen_code: (Hpa, u64),
    /// Fidelius code image (pa, pages).
    pub fidelius_code: (Hpa, u64),
}

/// The separation seam between resource management and service provision.
///
/// Every route by which the hypervisor touches a critical resource funnels
/// through one of these methods. [`Unprotected`] performs the operations
/// directly (vanilla Xen); `fidelius-core`'s implementation enforces the
/// paper's policies behind its gates. The trait is *not* the security
/// boundary — the memory system is; this is the *service interface* the
/// (possibly malicious) hypervisor is supposed to use, and attacks are free
/// to ignore it and hit the memory system directly.
pub trait Guardian {
    /// Short name for reports ("xen", "fidelius").
    fn name(&self) -> &'static str;

    /// One-time initialization after the hypervisor is set up (Fidelius's
    /// late launch, §4.3.1).
    ///
    /// # Errors
    ///
    /// Initialization failures are fatal for the protected configuration.
    fn late_launch(&mut self, plat: &mut Platform, info: &LateLaunchInfo)
        -> Result<(), GuardError>;

    /// Writes an 8-byte entry of a *host* page-table page.
    ///
    /// # Errors
    ///
    /// Policy violations and faults.
    fn host_pt_write(
        &mut self,
        plat: &mut Platform,
        entry_pa: Hpa,
        value: u64,
    ) -> Result<(), GuardError>;

    /// Writes an 8-byte entry of a domain's nested page table.
    ///
    /// # Errors
    ///
    /// Policy violations (PIT) and faults.
    fn npt_write(
        &mut self,
        plat: &mut Platform,
        dom: DomainId,
        entry_pa: Hpa,
        value: u64,
    ) -> Result<(), GuardError>;

    /// Writes grant-table entry `index`.
    ///
    /// # Errors
    ///
    /// Policy violations (GIT) and faults.
    fn grant_write(
        &mut self,
        plat: &mut Platform,
        index: u64,
        entry: GrantEntry,
    ) -> Result<(), GuardError>;

    /// A guest registered its sharing intent (`pre_sharing_op`).
    ///
    /// # Errors
    ///
    /// Vanilla Xen refuses with `Denied(DenialReason::PreSharingUnsupported)`.
    fn pre_sharing(
        &mut self,
        plat: &mut Platform,
        initiator: DomainId,
        target: DomainId,
        gpa_page: u64,
        nframes: u64,
        writable: bool,
    ) -> Result<(), GuardError>;

    /// The entry boundary: restore/verify guest state and execute VMRUN.
    ///
    /// # Errors
    ///
    /// Integrity violations (tampered VMCB) abort the entry.
    fn enter_guest(&mut self, plat: &mut Platform, dom: &mut Domain) -> Result<(), GuardError>;

    /// The exit boundary, called immediately after #VMEXIT.
    ///
    /// # Errors
    ///
    /// Faults while shadowing.
    fn on_vmexit(&mut self, plat: &mut Platform, dom: &mut Domain) -> Result<(), GuardError>;

    /// Executes a privileged instruction on the hypervisor's behalf.
    ///
    /// # Errors
    ///
    /// Policy violations (forbidden bit changes) and faults.
    fn exec_priv(&mut self, plat: &mut Platform, op: PrivOp) -> Result<(), GuardError>;

    /// The PV I/O data transform between a guest buffer and the shared
    /// I/O buffer (the paper's SEV-based I/O path runs here), over a run
    /// of `sectors` contiguous sectors: sector `s` moves from
    /// `src_pa + 512·s` to `dst_pa + 512·s` with stream id
    /// `first_stream + s`. A single sector is a run of one.
    ///
    /// # Errors
    ///
    /// Faults and SEV command failures.
    #[allow(clippy::too_many_arguments)]
    fn io_transform(
        &mut self,
        plat: &mut Platform,
        dom: DomainId,
        dir: IoDir,
        src_pa: Hpa,
        dst_pa: Hpa,
        sectors: u64,
        first_stream: u64,
    ) -> Result<(), GuardError>;

    /// A domain was created (VMCB/NPT pages exist; frames may follow).
    ///
    /// # Errors
    ///
    /// Bookkeeping failures.
    fn on_domain_created(&mut self, plat: &mut Platform, dom: &Domain) -> Result<(), GuardError>;

    /// The guest finished booting: close the kernel-load write window
    /// (under Fidelius, the guest's private frames are unmapped from the
    /// hypervisor from here on — paper §4.3.4).
    ///
    /// # Errors
    ///
    /// Bookkeeping failures.
    fn seal_guest(&mut self, plat: &mut Platform, dom: &Domain) -> Result<(), GuardError>;

    /// Downcast support for implementation-specific flows (e.g. the
    /// Fidelius encrypted-boot lifecycle).
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// A domain is being destroyed; release its resources from tracking.
    ///
    /// # Errors
    ///
    /// Bookkeeping failures.
    fn on_domain_destroyed(&mut self, plat: &mut Platform, dom: DomainId)
        -> Result<(), GuardError>;
}

/// Vanilla Xen: no protection. Every operation is performed directly; the
/// hypervisor issues VMRUN itself and guest state crosses the boundary
/// unshadowed. This is the baseline configuration and the victim of most
/// attacks.
#[derive(Debug, Default)]
pub struct Unprotected {
    sites: Option<InstrSites>,
    grant_table_pa: Option<Hpa>,
}

impl Unprotected {
    /// A fresh unprotected guardian.
    pub fn new() -> Self {
        Unprotected::default()
    }

    fn sites(&self) -> &InstrSites {
        self.sites.as_ref().expect("late_launch must run first")
    }
}

impl Guardian for Unprotected {
    fn name(&self) -> &'static str {
        "xen"
    }

    fn late_launch(
        &mut self,
        _plat: &mut Platform,
        info: &LateLaunchInfo,
    ) -> Result<(), GuardError> {
        self.sites = Some(info.xen_sites);
        self.grant_table_pa = Some(info.grant_table_pa);
        Ok(())
    }

    fn host_pt_write(
        &mut self,
        plat: &mut Platform,
        entry_pa: Hpa,
        value: u64,
    ) -> Result<(), GuardError> {
        plat.machine.host_write_u64(direct_map(entry_pa), value)?;
        // The mapped VA is unknown from the raw entry address, so demote
        // every cached host translation (hit accounting unaffected).
        plat.machine.tlb.demote_space(fidelius_hw::tlb::Space::Host);
        Ok(())
    }

    fn npt_write(
        &mut self,
        plat: &mut Platform,
        _dom: DomainId,
        entry_pa: Hpa,
        value: u64,
    ) -> Result<(), GuardError> {
        plat.machine.host_write_u64(direct_map(entry_pa), value)?;
        Ok(())
    }

    fn grant_write(
        &mut self,
        plat: &mut Platform,
        index: u64,
        entry: GrantEntry,
    ) -> Result<(), GuardError> {
        assert!(index < GRANT_TABLE_ENTRIES, "grant index out of range");
        let base =
            self.grant_table_pa.expect("late_launch must run first").add(index * GRANT_ENTRY_SIZE);
        for (i, w) in entry.to_words().iter().enumerate() {
            plat.machine.host_write_u64(direct_map(base.add(8 * i as u64)), *w)?;
        }
        Ok(())
    }

    fn pre_sharing(
        &mut self,
        plat: &mut Platform,
        _initiator: DomainId,
        _target: DomainId,
        _gpa_page: u64,
        _nframes: u64,
        _writable: bool,
    ) -> Result<(), GuardError> {
        Err(GuardError::Denied(plat.machine.deny(DenialReason::PreSharingUnsupported)))
    }

    fn enter_guest(&mut self, plat: &mut Platform, dom: &mut Domain) -> Result<(), GuardError> {
        // Vanilla Xen restores the guest GPRs from its own save area and
        // VMRUNs from its own code.
        plat.machine.cpu.regs.load_array(dom.gpr_save);
        plat.machine.cpu.rip = dom.rip;
        let site = self.sites().vmrun;
        plat.machine.exec_priv(site, PrivOp::Vmrun(dom.vmcb_pa))?;
        Ok(())
    }

    fn on_vmexit(&mut self, plat: &mut Platform, dom: &mut Domain) -> Result<(), GuardError> {
        // Save the guest's GPRs in plain hypervisor memory — SEV's leak.
        dom.gpr_save = plat.machine.cpu.regs.as_array();
        Ok(())
    }

    fn exec_priv(&mut self, plat: &mut Platform, op: PrivOp) -> Result<(), GuardError> {
        let site = match op {
            PrivOp::WriteCr0(_) => self.sites().write_cr0,
            PrivOp::WriteCr3(_) => self.sites().write_cr3,
            PrivOp::WriteCr4(_) => self.sites().write_cr4,
            PrivOp::WriteEfer(_) => self.sites().wrmsr,
            PrivOp::Vmrun(_) => self.sites().vmrun,
            PrivOp::Invlpg(_) => self.sites().invlpg,
            PrivOp::Lgdt(_) => self.sites().lgdt,
            PrivOp::Lidt(_) => self.sites().lidt,
            PrivOp::Cli => self.sites().cli,
            PrivOp::Sti => self.sites().sti,
        };
        plat.machine.exec_priv(site, op)?;
        Ok(())
    }

    fn io_transform(
        &mut self,
        plat: &mut Platform,
        _dom: DomainId,
        _dir: IoDir,
        src_pa: Hpa,
        dst_pa: Hpa,
        sectors: u64,
        _first_stream: u64,
    ) -> Result<(), GuardError> {
        // No protection: a plain copy between the buffers, one sector at
        // a time (each sector's host access pays its own translation).
        let mut buf = [0u8; SECTOR_SIZE];
        for off in (0..sectors).map(|s| s * SECTOR_SIZE as u64) {
            plat.machine.host_read(direct_map(Hpa(src_pa.0 + off)), &mut buf)?;
            plat.machine.host_write(direct_map(Hpa(dst_pa.0 + off)), &buf)?;
        }
        Ok(())
    }

    fn on_domain_created(&mut self, _plat: &mut Platform, _dom: &Domain) -> Result<(), GuardError> {
        Ok(())
    }

    fn seal_guest(&mut self, _plat: &mut Platform, _dom: &Domain) -> Result<(), GuardError> {
        Ok(())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn on_domain_destroyed(
        &mut self,
        _plat: &mut Platform,
        _dom: DomainId,
    ) -> Result<(), GuardError> {
        Ok(())
    }
}
