//! Defense configurations and the victim setup.

use fidelius_core::shadow::{ShadowCtx, Verdict};
use fidelius_core::Fidelius;
use fidelius_hw::vmcb::{ExitCode, VmcbField, VmcbImage};
use fidelius_hw::{Gpa, PAGE_SIZE};
use fidelius_telemetry::DenialReason;
use fidelius_xen::domain::{Domain, DomainId};
use fidelius_xen::frontend::gplayout;
use fidelius_xen::grants::GrantEntry;
use fidelius_xen::guardian::{GuardError, Guardian, IoDir, LateLaunchInfo};
use fidelius_xen::platform::Platform;
use fidelius_xen::system::GuestConfig;
use fidelius_xen::{System, Unprotected, XenError};
use std::any::Any;
use std::collections::HashMap;

/// The four configurations the matrix compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Defense {
    /// Plain Xen, no memory encryption.
    VanillaXen,
    /// SEV guests under an unmodified hypervisor.
    XenSev,
    /// SEV + simulated SEV-ES (VMCB/register encryption).
    XenSevEs,
    /// The full Fidelius system.
    Fidelius,
}

impl Defense {
    /// All four, in presentation order.
    pub const ALL: [Defense; 4] =
        [Defense::VanillaXen, Defense::XenSev, Defense::XenSevEs, Defense::Fidelius];

    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            Defense::VanillaXen => "Xen",
            Defense::XenSev => "Xen+SEV",
            Defense::XenSevEs => "Xen+SEV-ES",
            Defense::Fidelius => "Fidelius",
        }
    }
}

/// Simulated SEV-ES: shadows the VMCB and registers at the world-switch
/// boundary (as the hardware would encrypt them), but leaves everything
/// else — NPT, grant table, SEV metadata, hypervisor page tables — to the
/// vanilla hypervisor. This isolates which attacks SEV-ES alone stops.
pub struct SevEsSim {
    inner: Unprotected,
    shadows: HashMap<DomainId, ShadowCtx>,
}

impl std::fmt::Debug for SevEsSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SevEsSim").finish_non_exhaustive()
    }
}

impl Default for SevEsSim {
    fn default() -> Self {
        Self::new()
    }
}

impl SevEsSim {
    /// A fresh SEV-ES simulation.
    pub fn new() -> Self {
        SevEsSim { inner: Unprotected::new(), shadows: HashMap::new() }
    }
}

impl Guardian for SevEsSim {
    fn name(&self) -> &'static str {
        "sev-es"
    }

    fn late_launch(
        &mut self,
        plat: &mut Platform,
        info: &LateLaunchInfo,
    ) -> Result<(), GuardError> {
        self.inner.late_launch(plat, info)
    }

    fn host_pt_write(
        &mut self,
        plat: &mut Platform,
        entry_pa: fidelius_hw::Hpa,
        value: u64,
    ) -> Result<(), GuardError> {
        self.inner.host_pt_write(plat, entry_pa, value)
    }

    fn npt_write(
        &mut self,
        plat: &mut Platform,
        dom: DomainId,
        entry_pa: fidelius_hw::Hpa,
        value: u64,
    ) -> Result<(), GuardError> {
        self.inner.npt_write(plat, dom, entry_pa, value)
    }

    fn grant_write(
        &mut self,
        plat: &mut Platform,
        index: u64,
        entry: GrantEntry,
    ) -> Result<(), GuardError> {
        self.inner.grant_write(plat, index, entry)
    }

    fn pre_sharing(
        &mut self,
        plat: &mut Platform,
        initiator: DomainId,
        target: DomainId,
        gpa_page: u64,
        nframes: u64,
        writable: bool,
    ) -> Result<(), GuardError> {
        self.inner.pre_sharing(plat, initiator, target, gpa_page, nframes, writable)
    }

    fn enter_guest(&mut self, plat: &mut Platform, dom: &mut Domain) -> Result<(), GuardError> {
        if let Some(shadow) = self.shadows.remove(&dom.id) {
            let img = VmcbImage::load(&plat.machine.mc, dom.vmcb_pa)?;
            match shadow.verify_and_merge(&img) {
                Verdict::Clean(merged) => {
                    merged.store(&mut plat.machine.mc, dom.vmcb_pa)?;
                    let regs = shadow.merged_gprs(&dom.gpr_save);
                    dom.gpr_save = regs;
                }
                _ => {
                    self.shadows.insert(dom.id, shadow);
                    let reason = plat.machine.deny(DenialReason::SevEsVmcbTampered);
                    return Err(GuardError::Denied(reason));
                }
            }
        }
        // SEV-ES does NOT verify ASID/NCr3 against anything: the
        // hypervisor still manages them — the residual weakness of §2.2.
        self.inner.enter_guest(plat, dom)
    }

    fn on_vmexit(&mut self, plat: &mut Platform, dom: &mut Domain) -> Result<(), GuardError> {
        let img = VmcbImage::load(&plat.machine.mc, dom.vmcb_pa)?;
        if let Some(exit) = ExitCode::from_raw(img.get(VmcbField::ExitCode)) {
            let gprs = plat.machine.cpu.regs.as_array();
            let shadow = ShadowCtx::capture(img, gprs, exit);
            let masked = shadow.masked_vmcb();
            masked.store(&mut plat.machine.mc, dom.vmcb_pa)?;
            let mgprs = shadow.masked_gprs();
            plat.machine.cpu.regs.load_array(mgprs);
            dom.gpr_save = mgprs;
            self.shadows.insert(dom.id, shadow);
        }
        Ok(())
    }

    fn exec_priv(
        &mut self,
        plat: &mut Platform,
        op: fidelius_hw::cpu::PrivOp,
    ) -> Result<(), GuardError> {
        self.inner.exec_priv(plat, op)
    }

    fn io_transform(
        &mut self,
        plat: &mut Platform,
        dom: DomainId,
        dir: IoDir,
        src_pa: fidelius_hw::Hpa,
        dst_pa: fidelius_hw::Hpa,
        sectors: u64,
        first_stream: u64,
    ) -> Result<(), GuardError> {
        self.inner.io_transform(plat, dom, dir, src_pa, dst_pa, sectors, first_stream)
    }

    fn on_domain_created(&mut self, plat: &mut Platform, dom: &Domain) -> Result<(), GuardError> {
        self.inner.on_domain_created(plat, dom)
    }

    fn seal_guest(&mut self, plat: &mut Platform, dom: &Domain) -> Result<(), GuardError> {
        self.inner.seal_guest(plat, dom)
    }

    fn on_domain_destroyed(
        &mut self,
        plat: &mut Platform,
        dom: DomainId,
    ) -> Result<(), GuardError> {
        self.inner.on_domain_destroyed(plat, dom)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The secret the victim guest keeps in its heap page.
pub const SECRET: &[u8; 24] = b"SECRET_PASSWORD_TOKEN_#1";
/// Guest-physical address of the secret.
pub const SECRET_GPA: Gpa = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);

/// A booted victim system: one guest holding [`SECRET`] in its (encrypted,
/// where applicable) heap page.
pub struct VictimSetup {
    /// The system under the chosen defense.
    pub sys: System,
    /// The victim domain.
    pub victim: DomainId,
    /// Whether the victim's memory is SEV-encrypted.
    pub sev: bool,
}

impl std::fmt::Debug for VictimSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VictimSetup").field("victim", &self.victim).finish_non_exhaustive()
    }
}

/// DRAM used by attack scenarios.
pub const ATTACK_DRAM: u64 = 32 * 1024 * 1024;

/// Builds the victim for a defense configuration.
///
/// # Errors
///
/// Setup failures (should not happen in a healthy build).
pub fn build_victim(defense: Defense) -> Result<VictimSetup, XenError> {
    let mut sys = System::new_with_firmware(
        ATTACK_DRAM,
        0xA77AC4,
        firmware_mode_for(defense),
        guardian_for(defense),
    )?;
    let sev = defense != Defense::VanillaXen;
    let victim = match defense {
        Defense::Fidelius => {
            let mut owner = fidelius_sev::GuestOwner::new(0x0B5E55ED);
            let image = owner.package_image(b"victim kernel", &sys.plat.firmware.pdh_public());
            fidelius_core::lifecycle::boot_encrypted_guest(&mut sys, &image, 256)?
        }
        _ => sys.create_guest(GuestConfig {
            mem_pages: 256,
            sev,
            kernel: b"victim kernel".to_vec(),
        })?,
    };
    sys.gpa_write(victim, SECRET_GPA, SECRET, sev)?;
    sys.ensure_host()?;
    Ok(VictimSetup { sys, victim, sev })
}

/// The guardian a defense configuration runs under.
pub fn guardian_for(defense: Defense) -> Box<dyn Guardian> {
    match defense {
        Defense::VanillaXen | Defense::XenSev => Box::new(Unprotected::new()),
        Defense::XenSevEs => Box::new(SevEsSim::new()),
        Defense::Fidelius => Box::new(Fidelius::new()),
    }
}

/// The SEV firmware build a defense configuration runs on: only the full
/// Fidelius stack ships the retrofitted firmware; every other column is
/// measured against what vanilla SEV actually checks.
pub fn firmware_mode_for(defense: Defense) -> fidelius_sev::FwMode {
    match defense {
        Defense::Fidelius => fidelius_sev::FwMode::Retrofit,
        _ => fidelius_sev::FwMode::Vanilla,
    }
}

/// Scans a byte haystack for the secret.
pub fn contains_secret(haystack: &[u8]) -> bool {
    haystack.windows(SECRET.len()).any(|w| w == SECRET)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_boot_under_all_defenses() {
        for d in Defense::ALL {
            let v = build_victim(d).unwrap_or_else(|e| panic!("{d:?}: {e}"));
            assert_eq!(v.sev, d != Defense::VanillaXen);
        }
    }

    #[test]
    fn secret_is_readable_by_the_victim_itself() {
        for d in Defense::ALL {
            let mut v = build_victim(d).unwrap();
            v.sys.ensure_guest(v.victim).unwrap();
            let mut buf = [0u8; 24];
            v.sys.plat.machine.guest_read_gpa(SECRET_GPA, &mut buf, v.sev).unwrap();
            assert_eq!(&buf, SECRET, "{d:?}");
        }
    }

    #[test]
    fn contains_secret_works() {
        let mut hay = vec![0u8; 100];
        assert!(!contains_secret(&hay));
        hay[40..64].copy_from_slice(SECRET);
        assert!(contains_secret(&hay));
    }
}
