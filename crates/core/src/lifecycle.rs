//! Full VM life-cycle protection (paper §4.3): booting a guest from an
//! owner-provided *encrypted* kernel image via the retrofitted SEV
//! SEND/RECEIVE APIs, so the plaintext kernel never exists in hypervisor-
//! readable memory.
//!
//! The flow of §4.3.3:
//!
//! 1. Fidelius invokes `RECEIVE_START` with `Kwrap`, `Nvm` and the
//!    origin's public ECDH key; the firmware unwraps `Ktek`/`Ktik` and
//!    generates the guest's `Kvek`.
//! 2. The hypervisor loads the encrypted kernel image into guest memory
//!    (it only ever sees transport ciphertext).
//! 3. Fidelius uses `RECEIVE_UPDATE` to re-encrypt the pages in place:
//!    the firmware decrypts with `Ktek` and re-encrypts with `Kvek`.
//! 4. `RECEIVE_FINISH` verifies the measurement `Mvm` with `Ktik`.
//! 5. `ACTIVATE` installs `Kvek` for the domain's ASID; Fidelius prepares
//!    the VMCB and the guest boots, building its encrypted page tables.
//! 6. The guest is sealed: its private frames disappear from the
//!    hypervisor's address space.
//!
//! Migration-in ([`crate::migrate::migrate_in`]) is the same protocol with
//! the transport stream in place of the image and no boot, so both run one
//! receive transaction, which undoes every failure after `RECEIVE_START`.

use crate::fidelius::Fidelius;
use fidelius_hw::cpu::{scope, Site};
use fidelius_hw::{Gpa, HwError, PAGE_SIZE};
use fidelius_sev::firmware::SessionBlob;
use fidelius_sev::{EncryptedImage, GuestPolicy, Handle, SevError};
use fidelius_telemetry::DenialReason;
use fidelius_trace::SpanKind;
use fidelius_xen::domain::DomainId;
use fidelius_xen::frontend::gplayout;
use fidelius_xen::layout::direct_map;
use fidelius_xen::{System, XenError};

/// Flight-recorder sites of the two launch steps that are boot's own.
const LOAD_IMAGE: Site<'static> = Site::new(SpanKind::LaunchStep, "launch:load_image");
const RECEIVE_UPDATE: Site<'static> = Site::new(SpanKind::LaunchStep, "launch:receive_update");

/// The encrypted boot's use of [`receive`].
const LAUNCH: Receive = Receive {
    start: Site::new(SpanKind::LaunchStep, "launch:receive_start"),
    create: Site::new(SpanKind::LaunchStep, "launch:create_domain"),
    finish: Site::new(SpanKind::LaunchStep, "launch:finish_activate"),
    seal: Site::new(SpanKind::LaunchStep, "launch:boot_and_seal"),
    replayed: DenialReason::LaunchMeasurementReplayed,
    tampered: None,
    boots: true,
};

/// Downcasts the system's guardian to Fidelius.
///
/// # Errors
///
/// Fails when the system runs a different guardian.
pub fn fidelius_mut(sys: &mut System) -> Result<&mut Fidelius, XenError> {
    sys.guardian.as_any_mut().downcast_mut::<Fidelius>().ok_or(XenError::BadHypercall(0))
    // not a Fidelius system
}

/// Boots a guest from an owner-packaged encrypted image. Returns the new
/// domain id. The plaintext kernel is never visible to the hypervisor:
/// transport ciphertext goes in, `Kvek` ciphertext comes out, and the
/// measurement catches any tampering in between.
///
/// # Errors
///
/// SEV protocol failures (wrong platform, tampered image), allocation
/// failures.
pub fn boot_encrypted_guest(
    sys: &mut System,
    image: &EncryptedImage,
    mem_pages: u64,
) -> Result<DomainId, XenError> {
    let npages = image.pages.len() as u64;
    if gplayout::KERNEL_PAGE + npages > mem_pages {
        return Err(XenError::OutOfMemory);
    }
    receive(sys, LAUNCH, &image.session, &image.measurement, mem_pages, |sys, dom, handle| {
        // The hypervisor loads the *encrypted* image into guest frames
        // (boot window: frames are still mapped until sealing)...
        scope(sys, LOAD_IMAGE, |sys| -> Result<_, XenError> {
            for (p, page) in (gplayout::KERNEL_PAGE..).zip(&image.pages) {
                let frame = sys.xen.domain(dom)?.frame_of(p).ok_or(XenError::OutOfMemory)?;
                sys.plat.machine.host_write(direct_map(frame), page)?;
            }
            Ok(())
        })?;
        // ...and RECEIVE_UPDATE re-encrypts it in place, Ktek → Kvek.
        scope(sys, RECEIVE_UPDATE, |sys| -> Result<_, XenError> {
            for (i, p) in (0..npages).zip(gplayout::KERNEL_PAGE..) {
                let frame = sys.xen.domain(dom)?.frame_of(p).ok_or(XenError::OutOfMemory)?;
                let m = &mut sys.plat.machine;
                sys.plat.firmware.receive_update_page_in_place(m, handle, i, frame)?;
            }
            Ok(())
        })
    })
}

/// One caller's use of [`receive`]: the flight-recorder sites of the
/// shared steps, the denial a replayed session books, the denial (if any)
/// a firmware failure after `RECEIVE_START` books, and whether the guest
/// boots before the seal.
pub(crate) struct Receive {
    pub(crate) start: Site<'static>,
    pub(crate) create: Site<'static>,
    pub(crate) finish: Site<'static>,
    pub(crate) seal: Site<'static>,
    pub(crate) replayed: DenialReason,
    pub(crate) tampered: Option<DenialReason>,
    pub(crate) boots: bool,
}

/// The SEV receive transaction behind both encrypted boot and
/// migration-in (§4.3.3 builds the boot from the RECEIVE commands):
/// `RECEIVE_START`, a populated domain, `pages` moving the transport
/// ciphertext in under the new handle, `RECEIVE_FINISH` against `tag`,
/// `ACTIVATE`, Fidelius taking the handle, the VMCB, the guest's own boot
/// when `r.boots` (migrated memory already holds its page tables), and
/// the seal.
///
/// A guest the free pool cannot hold is refused before `RECEIVE_START`.
/// After it, a failure is undone before it is returned: the domain, if
/// one was created, is destroyed and the firmware context released
/// exactly once, so a refused receive leaves domains, guest pool and
/// firmware as it found them. An error of the undo itself is returned in
/// place of the failure it undid; `r.tampered` is booked for a firmware
/// failure once the undo is done.
pub(crate) fn receive(
    sys: &mut System,
    r: Receive,
    session: &SessionBlob,
    tag: &[u8; 32],
    mem_pages: u64,
    pages: impl FnOnce(&mut System, DomainId, Handle) -> Result<(), XenError>,
) -> Result<DomainId, XenError> {
    // A guest larger than the free pool could never be populated; refusing
    // it here also keeps a hostile `mem_pages` from sizing the domain.
    if mem_pages > sys.xen.guest_pool.free_count() {
        return Err(XenError::Hw(HwError::OutOfFrames));
    }
    // The retrofitted firmware's nonce ledger refuses a session an earlier
    // receive consumed: a rollback to a stale measurement or snapshot.
    let handle = scope(sys, r.start, |sys| {
        match sys.plat.firmware.receive_start(session, GuestPolicy::default()) {
            Err(SevError::SessionNonceReplayed) => {
                Err(XenError::FailClosed(sys.plat.machine.deny(r.replayed)))
            }
            started => Ok(started?),
        }
    })?;
    let mut created = None;
    scope(sys, r.create, |sys| -> Result<_, XenError> {
        let dom = sys.xen.create_domain(&mut sys.plat, &mut *sys.guardian, mem_pages)?;
        created = Some(dom);
        sys.xen.populate_all(&mut sys.plat, &mut *sys.guardian, dom)?;
        Ok(dom)
    })
    .and_then(|dom| {
        pages(sys, dom, handle)?;
        scope(sys, r.finish, |sys| -> Result<_, XenError> {
            sys.plat.firmware.receive_finish(handle, tag)?;
            let asid = sys.xen.domain(dom)?.asid;
            sys.plat.firmware.activate(&mut sys.plat.machine, handle, asid)?;
            // Fidelius self-maintains the handle as SEV metadata; other
            // guardians (the vanilla-firmware victims of the attack matrix)
            // leave it with the hypervisor, as real SEV does.
            if let Ok(f) = fidelius_mut(sys) {
                f.register_sev_handle(dom, handle);
            }
            Ok(())
        })?;
        scope(sys, r.seal, |sys| -> Result<_, XenError> {
            let gcr3 = Gpa(gplayout::PT_POOL_PAGE * PAGE_SIZE);
            sys.xen.init_vmcb(&mut sys.plat, dom, gcr3, gplayout::KERNEL_PAGE * PAGE_SIZE, true)?;
            if r.boots {
                sys.boot_guest(dom)?;
            }
            let d = sys.xen.domain(dom)?;
            sys.guardian.seal_guest(&mut sys.plat, d)?;
            Ok(())
        })?;
        Ok(dom)
    })
    .or_else(|e| {
        // The undo. A handle Fidelius took goes with its domain; any other
        // is released here, deactivated first if `ACTIVATE` ran.
        if let Some(dom) = created {
            sys.xen.destroy_domain(&mut sys.plat, &mut *sys.guardian, dom)?;
        }
        let fw = &mut sys.plat.firmware;
        match fw.asid_of(handle) {
            Err(SevError::UnknownHandle(_)) => {}
            asid => {
                if asid?.is_some() {
                    fw.deactivate(&mut sys.plat.machine, handle)?;
                }
                fw.decommission(handle)?;
            }
        }
        if let (XenError::Sev(_), Some(reason)) = (&e, r.tampered) {
            sys.plat.machine.deny(reason);
        }
        Err(e)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidelius_hw::Gpa;
    use fidelius_sev::GuestOwner;

    const DRAM: u64 = 32 * 1024 * 1024;

    fn protected_system() -> System {
        System::new(DRAM, 21, Box::new(Fidelius::new())).unwrap()
    }

    fn packaged_image(sys: &System, kernel: &[u8]) -> EncryptedImage {
        let mut owner = GuestOwner::new(99);
        owner.package_image(kernel, &sys.plat.firmware.pdh_public())
    }

    #[test]
    fn encrypted_boot_end_to_end() {
        let mut sys = protected_system();
        let kernel = b"FIDELIUS GUEST KERNEL \x7fELF".repeat(100);
        let image = packaged_image(&sys, &kernel);
        let dom = boot_encrypted_guest(&mut sys, &image, 256).unwrap();

        // The guest reads its own kernel plaintext...
        sys.ensure_guest(dom).unwrap();
        let mut head = [0u8; 22];
        sys.plat
            .machine
            .guest_read_gpa(Gpa(gplayout::KERNEL_PAGE * PAGE_SIZE), &mut head, true)
            .unwrap();
        assert_eq!(&head, b"FIDELIUS GUEST KERNEL ");
        sys.ensure_host().unwrap();

        // ...while DRAM holds neither the plaintext nor the transport form.
        let frame = sys.xen.domain(dom).unwrap().frame_of(gplayout::KERNEL_PAGE).unwrap();
        let mut raw = [0u8; 22];
        sys.plat.machine.mc.dram().read_raw(frame, &mut raw).unwrap();
        assert_ne!(&raw, b"FIDELIUS GUEST KERNEL ");
        assert_ne!(raw.to_vec(), image.pages[0][..22].to_vec());
    }

    #[test]
    fn tampered_image_fails_boot() {
        let mut sys = protected_system();
        let mut image = packaged_image(&sys, b"kernel bytes");
        image.pages[0][0] ^= 0x01; // hypervisor flips one bit during load
        let err = boot_encrypted_guest(&mut sys, &image, 256).unwrap_err();
        assert!(matches!(err, XenError::Sev(_)), "got {err:?}");
    }

    #[test]
    fn image_for_other_platform_fails_boot() {
        let mut sys = protected_system();
        let other = protected_system(); // different platform identity? same seed → same keys
        let mut sys2 = System::new(DRAM, 22, Box::new(Fidelius::new())).unwrap();
        let image = packaged_image(&sys2, b"kernel");
        let err = boot_encrypted_guest(&mut sys, &image, 256).unwrap_err();
        assert!(matches!(err, XenError::Sev(_)));
        drop(other);
        let dom = boot_encrypted_guest(&mut sys2, &image, 256).unwrap();
        assert_eq!(dom.0, 1);
    }

    #[test]
    fn sealed_guest_frames_are_unreachable_for_hypervisor() {
        let mut sys = protected_system();
        let image = packaged_image(&sys, b"kernel");
        let dom = boot_encrypted_guest(&mut sys, &image, 256).unwrap();
        sys.ensure_host().unwrap();
        let frame = sys.xen.domain(dom).unwrap().frame_of(gplayout::KERNEL_PAGE).unwrap();
        // Reading through the hypervisor's direct map faults: the page is
        // unmapped, not merely unreadable.
        let mut buf = [0u8; 8];
        assert!(sys.plat.machine.host_read(direct_map(frame), &mut buf).is_err());
    }

    #[test]
    fn shutdown_tears_down_sev_state() {
        let mut sys = protected_system();
        let image = packaged_image(&sys, b"kernel");
        let dom = boot_encrypted_guest(&mut sys, &image, 256).unwrap();
        let asid = sys.xen.domain(dom).unwrap().asid;
        assert!(sys.plat.machine.mc.has_guest_key(asid));
        sys.shutdown_guest(dom).unwrap();
        assert!(!sys.plat.machine.mc.has_guest_key(asid), "DEACTIVATE must uninstall the key");
    }
}
