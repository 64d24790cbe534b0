//! SEV-based VM migration (paper §4.3.6).
//!
//! The source firmware re-encrypts guest memory from `Kvek` to the
//! transport key and computes an integrity tag; the target firmware — and
//! only the target, thanks to the ECDH-wrapped keys — reverses the
//! process under a freshly generated `Kvek`. The hypervisors on both
//! sides move only ciphertext. `SEND_START` stops guest execution, which
//! is why the paper notes Fidelius does not support *live* migration.

use crate::fidelius::Fidelius;
use crate::lifecycle::{fidelius_mut, receive, Receive};
use fidelius_hw::cpu::{scope, Site};
use fidelius_hw::inject::{FaultAction, InjectPoint};
use fidelius_hw::PAGE_SIZE;
use fidelius_sev::firmware::SessionBlob;
use fidelius_telemetry::{DenialReason, Event, InjectionOutcome};
use fidelius_trace::SpanKind;
use fidelius_xen::domain::DomainId;
use fidelius_xen::{System, XenError};

/// Flight-recorder sites of the three send phases and of the receive's
/// page step.
const SEND_START: Site<'static> = Site::new(SpanKind::MigratePhase, "migrate:send_start");
const SEND_PAGES: Site<'static> = Site::new(SpanKind::MigratePhase, "migrate:send_pages");
const SEND_FINISH: Site<'static> = Site::new(SpanKind::MigratePhase, "migrate:send_finish");
const RECEIVE_UPDATE: Site<'static> = Site::new(SpanKind::MigratePhase, "migrate:receive_update");

/// Migration-in's use of [`receive`]: a firmware failure after
/// `RECEIVE_START` means the stream was tampered with in transit.
const MIGRATION: Receive = Receive {
    start: Site::new(SpanKind::MigratePhase, "migrate:receive_start"),
    create: Site::new(SpanKind::MigratePhase, "migrate:create_domain"),
    finish: Site::new(SpanKind::MigratePhase, "migrate:finish_activate"),
    seal: Site::new(SpanKind::MigratePhase, "migrate:seal"),
    replayed: DenialReason::MigrationSessionReplayed,
    tampered: Some(DenialReason::MigrationStreamTampered),
    boots: false,
};

/// An in-flight migrated VM: transport-encrypted memory plus the session
/// needed to receive it.
///
/// The memory travels as one transport buffer: `stream` holds the
/// ciphertext of `pages[i]` at `i * PAGE_SIZE`, page-major, so a migration
/// allocates one buffer rather than one per page. [`MigrationPackage::truncate`]
/// and [`MigrationPackage::page_mut`] keep the two fields in step; a
/// receiver refuses a stream whose length does not match `pages`.
#[derive(Debug, Clone)]
pub struct MigrationPackage {
    /// Guest page number of every populated page, in stream order.
    pub pages: Vec<u64>,
    /// The transport ciphertext of `pages`, one page after another.
    pub stream: Vec<u8>,
    /// Wrapped transport keys and ECDH metadata.
    pub session: SessionBlob,
    /// The transport integrity tag from `SEND_FINISH`.
    pub tag: [u8; 32],
    /// Memory size of the guest, in pages.
    pub mem_pages: u64,
    /// How many pages the source sent (carried in the authenticated stream
    /// header in the real protocol). Fewer pages than declared means the
    /// stream was truncated in transit; the receiver refuses it before
    /// committing any resources.
    pub declared_pages: u64,
}

impl MigrationPackage {
    /// Keeps the first `n` pages of the stream, dropping the rest.
    pub fn truncate(&mut self, n: usize) {
        self.pages.truncate(n);
        self.stream.truncate(self.pages.len() * PAGE_SIZE as usize);
    }

    /// The transport ciphertext of the `i`th page in the stream.
    ///
    /// # Panics
    ///
    /// When `i` is past the end of the stream.
    pub fn page_mut(&mut self, i: usize) -> &mut [u8] {
        let at = i * PAGE_SIZE as usize;
        &mut self.stream[at..at + PAGE_SIZE as usize]
    }
}

/// Sends `dom` off this system, targeting the platform whose PDH is
/// `target_pdh`. The domain is destroyed locally afterwards (the paper's
/// non-live flow: the guest stops at `SEND_START`).
///
/// # Errors
///
/// Requires a Fidelius-booted SEV guest; SEV protocol failures propagate.
pub fn migrate_out(
    sys: &mut System,
    dom: DomainId,
    target_pdh: &[u8; 32],
) -> Result<MigrationPackage, XenError> {
    sys.ensure_host()?;
    let handle = fidelius_mut(sys)?.sev_handle(dom).ok_or(XenError::BadDomainState(dom))?;
    let mem_pages = sys.xen.domain(dom)?.mem_pages();
    let session = scope(sys, SEND_START, |sys| -> Result<_, XenError> {
        Ok(sys.plat.firmware.send_start(handle, target_pdh)?)
    })?;
    let (pages, stream) = scope(sys, SEND_PAGES, |sys| -> Result<_, XenError> {
        let d = sys.xen.domain(dom)?;
        let populated: Vec<_> = (0..mem_pages).filter_map(|p| Some((p, d.frame_of(p)?))).collect();
        let mut stream = vec![0u8; populated.len() * PAGE_SIZE as usize];
        let slots = stream.chunks_exact_mut(PAGE_SIZE as usize);
        for (&(p, frame), slot) in populated.iter().zip(slots) {
            sys.plat.firmware.send_update_page(&mut sys.plat.machine, handle, frame, p, slot)?;
        }
        Ok((populated.into_iter().map(|(p, _)| p).collect::<Vec<_>>(), stream))
    })?;
    let tag = scope(sys, SEND_FINISH, |sys| -> Result<_, XenError> {
        let tag = sys.plat.firmware.send_finish(handle)?;
        sys.shutdown_guest(dom)?;
        Ok(tag)
    })?;
    let declared_pages = pages.len() as u64;
    let mut package = MigrationPackage { pages, stream, session, tag, mem_pages, declared_pages };
    // Adversarial hook: the hypervisor carries the stream and may shorten
    // or flip it in transit. Both land here (the stream is the
    // hypervisor's to move); the receiver's checks decide the outcome, and
    // the source emits the predicted disposal so injection and disposal
    // pair up even across machines.
    if let Some(action) = sys.plat.machine.inject_at(InjectPoint::MigrateSend) {
        tamper_stream(sys, &mut package, action);
    }
    Ok(package)
}

/// Applies an in-transit stream fault to `package`, emitting the predicted
/// outcome on the source tracer.
fn tamper_stream(sys: &mut System, package: &mut MigrationPackage, action: FaultAction) {
    let len = package.pages.len() as u64;
    let outcome = match action {
        FaultAction::TruncateStream { keep } if keep % (len + 1) < len => {
            package.truncate((keep % (len + 1)) as usize);
            InjectionOutcome::FailClosed(DenialReason::MigrationStreamTruncated)
        }
        FaultAction::CorruptStream { index_hint, xor } if len > 0 => {
            let ct = package.page_mut(index_hint as usize % package.pages.len());
            ct[index_hint as usize % ct.len()] ^= xor | 1;
            InjectionOutcome::FailClosed(DenialReason::MigrationStreamTampered)
        }
        _ => InjectionOutcome::Tolerated,
    };
    sys.plat.machine.trace.emit(Event::FaultOutcome { kind: action.kind(), outcome });
}

/// Receives a migrated VM on this system: creates a domain, restores the
/// memory under a fresh `Kvek`, verifies the tag and resumes the guest
/// (whose migrated memory already contains its page tables).
///
/// # Errors
///
/// Fails on the wrong target platform or a tampered package.
pub fn migrate_in(sys: &mut System, package: &MigrationPackage) -> Result<DomainId, XenError> {
    // Structural checks before any resource is committed: a stream shorter
    // than the source declared, or whose bytes do not hold exactly one page
    // per listed page number, was truncated in transit.
    let stream_len = package.pages.len().checked_mul(PAGE_SIZE as usize);
    if (package.pages.len() as u64) != package.declared_pages
        || stream_len != Some(package.stream.len())
    {
        return Err(XenError::FailClosed(
            sys.plat.machine.deny(DenialReason::MigrationStreamTruncated),
        ));
    }
    receive(
        sys,
        MIGRATION,
        &package.session,
        &package.tag,
        package.mem_pages,
        |sys, dom, handle| {
            scope(sys, RECEIVE_UPDATE, |sys| -> Result<_, XenError> {
                let chunks = package.stream.chunks_exact(PAGE_SIZE as usize);
                for (&p, ct) in package.pages.iter().zip(chunks) {
                    let frame = sys.xen.domain(dom)?.frame_of(p).ok_or(XenError::OutOfMemory)?;
                    sys.plat.firmware.receive_update_page(
                        &mut sys.plat.machine,
                        handle,
                        ct,
                        p,
                        frame,
                    )?;
                }
                Ok(())
            })
        },
    )
}

/// Convenience for tests/benches: a Fidelius system ready for migration.
pub fn protected_system(dram: u64, seed: u64) -> Result<System, XenError> {
    System::new(dram, seed, Box::new(Fidelius::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::boot_encrypted_guest;
    use fidelius_hw::{Gpa, HwError};
    use fidelius_sev::{GuestOwner, Handle, SevError};
    use fidelius_xen::domain::DomainState;
    use fidelius_xen::frontend::gplayout;

    const DRAM: u64 = 32 * 1024 * 1024;

    #[test]
    fn migration_moves_guest_secrets_intact() {
        let mut src = protected_system(DRAM, 31).unwrap();
        let mut dst = protected_system(DRAM, 32).unwrap();

        let mut owner = GuestOwner::new(33);
        let image = owner.package_image(b"migratable kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 256).unwrap();

        // The guest stores a secret in its private heap.
        let gpa = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);
        src.gpa_write(dom, gpa, b"secret-to-travel", true).unwrap();
        src.ensure_host().unwrap();

        let package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();
        // Transport pages are ciphertext.
        let heap = package.pages.iter().position(|&p| p == gplayout::HEAP_PAGE).unwrap();
        let at = heap * PAGE_SIZE as usize;
        assert_ne!(&package.stream[at..at + 16], b"secret-to-travel");

        let new_dom = migrate_in(&mut dst, &package).unwrap();
        dst.ensure_guest(new_dom).unwrap();
        let mut back = [0u8; 16];
        dst.plat.machine.guest_read_gpa(gpa, &mut back, true).unwrap();
        assert_eq!(&back, b"secret-to-travel");
    }

    #[test]
    fn tampered_package_is_rejected() {
        let mut src = protected_system(DRAM, 41).unwrap();
        let mut dst = protected_system(DRAM, 42).unwrap();
        let mut owner = GuestOwner::new(43);
        let image = owner.package_image(b"kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
        let mut package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();
        package.page_mut(3)[100] ^= 0xFF;
        assert!(matches!(migrate_in(&mut dst, &package), Err(XenError::Sev(_))));
    }

    #[test]
    fn truncated_stream_fails_closed_without_committing_resources() {
        let mut src = protected_system(DRAM, 61).unwrap();
        let mut dst = protected_system(DRAM, 62).unwrap();
        let mut owner = GuestOwner::new(63);
        let image = owner.package_image(b"kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
        let gpa = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);
        src.gpa_write(dom, gpa, b"survives-retries", true).unwrap();
        src.ensure_host().unwrap();
        let good = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();

        // The hypervisor drops the tail of the stream in transit.
        let mut short = good.clone();
        short.truncate(short.pages.len() / 2);
        let doms_before = dst.xen.domains.len();
        let err = migrate_in(&mut dst, &short);
        assert!(
            matches!(err, Err(XenError::FailClosed(DenialReason::MigrationStreamTruncated))),
            "expected typed fail-closed, got {err:?}"
        );
        assert_eq!(dst.xen.domains.len(), doms_before, "no domain may be committed");
        assert!(dst.plat.machine.trace.events().iter().any(|e| matches!(
            e.event,
            fidelius_telemetry::Event::Denial { reason: DenialReason::MigrationStreamTruncated }
        )));

        // Graceful degradation: the intact stream still lands afterwards.
        let new_dom = migrate_in(&mut dst, &good).unwrap();
        dst.ensure_guest(new_dom).unwrap();
        let mut back = [0u8; 16];
        dst.plat.machine.guest_read_gpa(gpa, &mut back, true).unwrap();
        assert_eq!(&back, b"survives-retries");
    }

    /// A hypervisor may reshape the package any way it likes in transit;
    /// every shape is refused with a typed error, never a panic, and
    /// leaves no live domain behind.
    #[test]
    fn hostile_package_shapes_are_refused_without_panicking() {
        let mut src = protected_system(DRAM, 91).unwrap();
        let mut dst = protected_system(DRAM, 92).unwrap();
        let mut owner = GuestOwner::new(93);
        let image = owner.package_image(b"kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
        let good = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();

        let truncated = XenError::FailClosed(DenialReason::MigrationStreamTruncated);
        let tampered = XenError::Sev(SevError::BadMeasurement);
        type Reshape = fn(&mut MigrationPackage);
        let cases: [(&str, Reshape, XenError); 9] = [
            ("stream one byte short", |p| p.stream.truncate(p.stream.len() - 1), truncated.clone()),
            ("stream a page long", |p| p.stream.extend_from_slice(&[0; 4096]), truncated.clone()),
            ("stream emptied", |p| p.stream.clear(), truncated.clone()),
            ("page list short of the declared count", |p| p.pages.truncate(1), truncated.clone()),
            (
                "page list and count short of the stream",
                |p| {
                    p.pages.truncate(1);
                    p.declared_pages = 1;
                },
                truncated.clone(),
            ),
            ("declared count unbounded", |p| p.declared_pages = u64::MAX, truncated),
            ("guest larger than the pool", |p| p.mem_pages = u64::MAX, HwError::OutOfFrames.into()),
            ("page number past the guest", |p| p.pages[0] = u64::MAX, XenError::OutOfMemory),
            ("page number repeated", |p| p.pages[1] = p.pages[0], tampered),
        ];
        for (what, reshape, want) in cases {
            let mut bad = good.clone();
            reshape(&mut bad);
            assert_eq!(migrate_in(&mut dst, &bad).expect_err(what), want, "{what}");
            assert!(
                dst.xen.domains.values().all(|d| d.state == DomainState::Dead),
                "{what}: no live domain may remain"
            );
            // No firmware context survives either, whether the refusal
            // came before `RECEIVE_START` or was undone after it (each of
            // the nine cases starts at most one receive).
            let live = (1..=9).map(Handle).find(|&h| {
                !matches!(dst.plat.firmware.guest_status(h), Err(SevError::UnknownHandle(_)))
            });
            assert_eq!(live, None, "{what}: a firmware context outlived the refusal");
        }
        // None of the refusals consumed the session: the intact stream lands.
        let new_dom = migrate_in(&mut dst, &good).unwrap();
        dst.ensure_guest(new_dom).unwrap();
    }

    #[test]
    fn tampered_stream_rolls_back_partial_receive() {
        let mut src = protected_system(DRAM, 71).unwrap();
        let mut dst = protected_system(DRAM, 72).unwrap();
        let mut owner = GuestOwner::new(73);
        let image = owner.package_image(b"kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
        let good = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();
        let mut bad = good.clone();
        bad.page_mut(3)[100] ^= 0xFF;
        assert!(matches!(migrate_in(&mut dst, &bad), Err(XenError::Sev(_))));
        // Transactional rollback: every half-built domain is torn down and
        // the tamper is audited.
        assert!(dst.xen.domains.values().all(|d| d.state == DomainState::Dead));
        assert!(dst.plat.machine.trace.events().iter().any(|e| matches!(
            e.event,
            fidelius_telemetry::Event::Denial { reason: DenialReason::MigrationStreamTampered }
        )));
        // The frames freed by the rollback suffice for the intact stream.
        let new_dom = migrate_in(&mut dst, &good).unwrap();
        assert!(dst.ensure_guest(new_dom).is_ok());
    }

    /// SEND-side rollback: once a package is admitted, replaying it must
    /// be refused with a typed reason — the hypervisor cannot resurrect a
    /// pre-migration snapshot of the guest on retrofitted firmware.
    #[test]
    fn migration_replay_refused_on_retrofit_firmware() {
        let mut src = protected_system(DRAM, 81).unwrap();
        let mut dst = protected_system(DRAM, 82).unwrap();
        let mut owner = GuestOwner::new(83);
        let image = owner.package_image(b"kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
        let package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();

        let first = migrate_in(&mut dst, &package).unwrap();
        dst.ensure_guest(first).unwrap();
        dst.ensure_host().unwrap();

        let doms_before = dst.xen.domains.len();
        let err = migrate_in(&mut dst, &package);
        assert!(
            matches!(err, Err(XenError::FailClosed(DenialReason::MigrationSessionReplayed))),
            "expected typed fail-closed, got {err:?}"
        );
        assert_eq!(dst.xen.domains.len(), doms_before, "replay must not commit a domain");
        assert!(dst.plat.machine.trace.events().iter().any(|e| matches!(
            e.event,
            fidelius_telemetry::Event::Denial { reason: DenialReason::MigrationSessionReplayed }
        )));
    }

    /// The same replay sails through vanilla SEV firmware: no nonce
    /// ledger, so the stale session is accepted as often as the
    /// hypervisor presents it.
    #[test]
    fn migration_replay_accepted_on_vanilla_firmware() {
        let mut src = protected_system(DRAM, 84).unwrap();
        let mut dst = System::new_with_firmware(
            DRAM,
            85,
            fidelius_sev::FwMode::Vanilla,
            Box::new(fidelius_xen::guardian::Unprotected::new()),
        )
        .unwrap();
        let mut owner = GuestOwner::new(86);
        let image = owner.package_image(b"kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
        let package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();

        let first = migrate_in(&mut dst, &package).unwrap();
        let second = migrate_in(&mut dst, &package).unwrap();
        assert_ne!(first, second, "the replayed guest gets its own domain");
    }

    #[test]
    fn package_for_wrong_target_is_rejected() {
        let mut src = protected_system(DRAM, 51).unwrap();
        let dst = protected_system(DRAM, 52).unwrap();
        let mut third = protected_system(DRAM, 53).unwrap();
        let mut owner = GuestOwner::new(54);
        let image = owner.package_image(b"kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
        let package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();
        // The hypervisor redirects the package to a colluding machine —
        // which cannot unwrap the transport keys.
        assert!(matches!(migrate_in(&mut third, &package), Err(XenError::Sev(_))));
    }
}
