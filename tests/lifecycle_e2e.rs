//! End-to-end life-cycle integration: encrypted boot, all I/O paths,
//! memory sharing between cooperative guests, migration, shutdown — all
//! under the Fidelius guardian.

use fidelius::hw::HwError;
use fidelius::prelude::*;
use fidelius::sev::{Handle, SevError};
use fidelius_crypto::modes::SECTOR_SIZE;
use fidelius_xen::domain::DomainState;
use fidelius_xen::hypercall::{GrantOp, HC_GRANT_TABLE_OP, HC_PRE_SHARING_OP, RET_OK};
use fidelius_xen::XenError;

const DRAM: u64 = 32 * 1024 * 1024;

fn protected(seed: u64) -> System {
    System::new(DRAM, seed, Box::new(Fidelius::new())).unwrap()
}

fn boot(sys: &mut System, seed: u64) -> DomainId {
    let mut owner = GuestOwner::new(seed);
    let image = owner.package_image(b"integration kernel", &sys.plat.firmware.pdh_public());
    boot_encrypted_guest(sys, &image, 192).unwrap()
}

#[test]
fn disk_io_roundtrips_on_all_protected_paths() {
    for path in [IoPath::AesNi, IoPath::SoftCrypto, IoPath::SevApi] {
        let mut sys = protected(61);
        let dom = boot(&mut sys, 61);
        let kblk = if path == IoPath::SevApi { None } else { Some([0x33; 16]) };
        sys.setup_block_device(dom, vec![0u8; 64 * SECTOR_SIZE], path, kblk).unwrap();
        let mut data = vec![0u8; 2 * SECTOR_SIZE];
        data[..14].copy_from_slice(b"sensitive data");
        data[SECTOR_SIZE..SECTOR_SIZE + 6].copy_from_slice(b"page 2");
        sys.disk_write(dom, 10, &data).unwrap();
        let back = sys.disk_read(dom, 10, 2).unwrap();
        assert_eq!(back, data, "{path:?} roundtrip");
        // dom0's disk never holds the plaintext.
        sys.ensure_host().unwrap();
        let disk = sys.xen.backend(dom).unwrap().disk();
        assert!(
            !disk.windows(14).any(|w| w == b"sensitive data"),
            "{path:?} leaked plaintext to the driver domain"
        );
    }
}

#[test]
fn cooperative_guests_share_memory_securely() {
    let mut sys = protected(62);
    let a = boot(&mut sys, 62);
    let b = boot(&mut sys, 63);

    // Guest A prepares a plaintext shared page and declares the sharing
    // intent (pre_sharing_op), then creates the grant.
    let page = gplayout::HEAP_PAGE + 4;
    sys.gpa_write(a, Gpa(page * PAGE_SIZE), b"hello from A!", false).unwrap();
    let r = sys.hypercall(a, HC_PRE_SHARING_OP, [b.0 as u64, page, 1, 0]).unwrap();
    assert_eq!(r, RET_OK);
    let gref = sys
        .hypercall(a, HC_GRANT_TABLE_OP, [GrantOp::GrantAccess as u64, b.0 as u64, page, 0])
        .unwrap();
    assert!(gref < fidelius_xen::grants::GRANT_TABLE_ENTRIES, "grant ref {gref}");

    // Guest B maps it read-only at an unpopulated GPA of its own (its
    // populated pages are pinned to their frames by the anti-replay
    // policy) and reads A's message.
    let dest = 200; // beyond B's populated 192 pages
    let r =
        sys.hypercall(b, HC_GRANT_TABLE_OP, [GrantOp::MapGrantRef as u64, gref, dest, 0]).unwrap();
    assert_eq!(r, RET_OK);
    sys.ensure_guest(b).unwrap();
    let mut buf = [0u8; 13];
    sys.plat.machine.guest_read_gpa(Gpa(dest * PAGE_SIZE), &mut buf, false).unwrap();
    assert_eq!(&buf, b"hello from A!");

    // B may not map it writable (the grant is read-only).
    let r = sys
        .hypercall(b, HC_GRANT_TABLE_OP, [GrantOp::MapGrantRef as u64, gref, dest + 1, 1])
        .unwrap();
    assert_ne!(r, RET_OK, "writable mapping of a read-only grant must fail");
}

#[test]
fn unsanctioned_grants_are_rejected_by_git_policy() {
    let mut sys = protected(64);
    let a = boot(&mut sys, 64);
    // The guest never called pre_sharing_op for this page; the grant
    // creation (driven by the hypervisor) must be rejected by the GIT
    // policy and surface as an error return.
    let r = sys
        .hypercall(a, HC_GRANT_TABLE_OP, [GrantOp::GrantAccess as u64, 0, gplayout::HEAP_PAGE, 1])
        .unwrap();
    assert!(r >= fidelius_xen::grants::GRANT_TABLE_ENTRIES, "grant must fail, got ref {r}");
}

#[test]
fn migration_roundtrip_preserves_disk_and_memory_state() {
    let mut src = protected(65);
    let mut dst = protected(66);
    let dom = boot(&mut src, 65);
    let gpa = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);
    src.gpa_write(dom, gpa, b"pre-migration state", true).unwrap();
    src.ensure_host().unwrap();
    let package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();
    let new_dom = migrate_in(&mut dst, &package).unwrap();
    dst.ensure_guest(new_dom).unwrap();
    let mut buf = [0u8; 19];
    dst.plat.machine.guest_read_gpa(gpa, &mut buf, true).unwrap();
    assert_eq!(&buf, b"pre-migration state");
    // The source's copy is gone (domain destroyed, key uninstalled).
    assert!(src.xen.domains.get(&dom).is_none_or(|d| d.state == fidelius_xen::DomainState::Dead));
}

#[test]
fn many_guests_boot_run_and_shut_down() {
    let mut sys = System::new(48 * 1024 * 1024, 67, Box::new(Fidelius::new())).unwrap();
    let mut doms = Vec::new();
    for i in 0..3u64 {
        let mut owner = GuestOwner::new(100 + i);
        let image = owner.package_image(b"k", &sys.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut sys, &image, 192).unwrap();
        sys.gpa_write(dom, Gpa(gplayout::HEAP_PAGE * PAGE_SIZE), &[i as u8; 8], true).unwrap();
        sys.ensure_host().unwrap();
        doms.push(dom);
    }
    // Each guest sees its own data.
    for (i, dom) in doms.iter().enumerate() {
        sys.ensure_guest(*dom).unwrap();
        let mut buf = [0u8; 8];
        sys.plat
            .machine
            .guest_read_gpa(Gpa(gplayout::HEAP_PAGE * PAGE_SIZE), &mut buf, true)
            .unwrap();
        assert_eq!(buf, [i as u8; 8]);
        sys.ensure_host().unwrap();
    }
    // Tear them all down; keys must disappear.
    for dom in doms {
        let asid = sys.xen.domain(dom).unwrap().asid;
        sys.shutdown_guest(dom).unwrap();
        assert!(!sys.plat.machine.mc.has_guest_key(asid));
    }
}

/// The host frames backing `dom`, in ascending order.
fn frame_set(sys: &System, dom: DomainId) -> Vec<Hpa> {
    let d = sys.xen.domain(dom).unwrap();
    let mut frames: Vec<Hpa> = (0..d.mem_pages()).filter_map(|p| d.frame_of(p)).collect();
    frames.sort_unstable();
    frames
}

/// Whether the raw DRAM of `frame` (what a cold-boot attacker or the
/// hypervisor's physical view would see) contains `needle`.
fn dram_shows(sys: &System, frame: Hpa, needle: &[u8]) -> bool {
    let raw = sys.plat.machine.mc.dram().raw_span(frame, PAGE_SIZE as usize).unwrap();
    raw.windows(needle.len()).any(|w| w == needle)
}

const HEAP: Gpa = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);

#[test]
fn guest_frames_recycle_after_shutdown() {
    let mut sys = protected(68);
    let a = boot(&mut sys, 68);
    sys.gpa_write(a, HEAP, b"guest A's secret", true).unwrap();
    sys.ensure_host().unwrap();
    let frames_a = frame_set(&sys, a);
    let heap_a = sys.xen.domain(a).unwrap().frame_of(gplayout::HEAP_PAGE).unwrap();
    sys.shutdown_guest(a).unwrap();

    // Lowest free frame first: the next guest boots into exactly the
    // frames the last one returned, its heap page onto A's.
    let b = boot(&mut sys, 69);
    assert_eq!(frame_set(&sys, b), frames_a, "guest B must reuse guest A's frames");
    assert_eq!(sys.xen.domain(b).unwrap().frame_of(gplayout::HEAP_PAGE), Some(heap_a));

    // The frame still holds A's ciphertext, but B's fresh `Kvek` turns it
    // into noise: B reads no trace of A's plaintext.
    let mut stale = [0u8; 16];
    sys.gpa_read(b, HEAP, &mut stale, true).unwrap();
    assert_ne!(&stale, b"guest A's secret", "a reused frame must not reveal its last owner");
    sys.gpa_write(b, HEAP, b"fresh guest", true).unwrap();
    let mut back = [0u8; 11];
    sys.gpa_read(b, HEAP, &mut back, true).unwrap();
    assert_eq!(&back, b"fresh guest");
    sys.ensure_host().unwrap();
    assert!(!dram_shows(&sys, heap_a, b"guest A's secret"), "DRAM holds A's plaintext");
    assert!(!dram_shows(&sys, heap_a, b"fresh guest"), "DRAM holds B's plaintext");
    sys.shutdown_guest(b).unwrap();
}

#[test]
fn migrated_guest_lands_on_a_shut_down_guests_frames() {
    let mut src = protected(72);
    let mut dst = protected(73);
    let local = boot(&mut dst, 73);
    dst.gpa_write(local, HEAP, b"local secret", true).unwrap();
    dst.ensure_host().unwrap();
    let frames_local = frame_set(&dst, local);
    let heap_local = dst.xen.domain(local).unwrap().frame_of(gplayout::HEAP_PAGE).unwrap();
    dst.shutdown_guest(local).unwrap();

    let dom = boot(&mut src, 72);
    src.gpa_write(dom, HEAP, b"migrating marker", true).unwrap();
    src.ensure_host().unwrap();
    let package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();
    let arrived = migrate_in(&mut dst, &package).unwrap();
    assert_eq!(frame_set(&dst, arrived), frames_local, "the arrival must reuse the frames");
    assert_eq!(dst.xen.domain(arrived).unwrap().frame_of(gplayout::HEAP_PAGE), Some(heap_local));
    let mut back = [0u8; 16];
    dst.gpa_read(arrived, HEAP, &mut back, true).unwrap();
    assert_eq!(&back, b"migrating marker");
    dst.ensure_host().unwrap();
    assert!(!dram_shows(&dst, heap_local, b"local secret"));
    assert!(!dram_shows(&dst, heap_local, b"migrating marker"));
}

#[test]
fn grant_revocation_closes_hypervisor_access_again() {
    use fidelius_xen::layout::direct_map;
    let mut sys = protected(70);
    let a = boot(&mut sys, 70);
    let page = gplayout::HEAP_PAGE + 6;
    sys.gpa_write(a, Gpa(page * PAGE_SIZE), b"shared briefly", false).unwrap();
    assert_eq!(sys.hypercall(a, HC_PRE_SHARING_OP, [0, page, 1, 1]).unwrap(), RET_OK);
    let gref =
        sys.hypercall(a, HC_GRANT_TABLE_OP, [GrantOp::GrantAccess as u64, 0, page, 1]).unwrap();
    assert!(gref < fidelius_xen::grants::GRANT_TABLE_ENTRIES);
    sys.ensure_host().unwrap();
    // While granted, dom0 reaches the plaintext-shared frame.
    let frame = sys.xen.domain(a).unwrap().frame_of(page).unwrap();
    let mut buf = [0u8; 14];
    sys.plat.machine.host_read(direct_map(frame), &mut buf).unwrap();
    assert_eq!(&buf, b"shared briefly");
    // The owner revokes; the frame disappears from the host again.
    assert_eq!(
        sys.hypercall(a, HC_GRANT_TABLE_OP, [GrantOp::EndAccess as u64, gref, 0, 0]).unwrap(),
        RET_OK
    );
    sys.ensure_host().unwrap();
    assert!(
        sys.plat.machine.host_read(direct_map(frame), &mut buf).is_err(),
        "revoked share must be unmapped from the hypervisor"
    );
}

#[test]
fn xenstore_ref_swap_cannot_leak_private_memory() {
    // The hypervisor controls the XenStore; swapping the published grant
    // reference can only point the back-end at a *guest-sanctioned* grant
    // (anything else fails validation), so no private frame is exposed.
    let mut sys = protected(71);
    let a = boot(&mut sys, 71);
    sys.gpa_write(a, Gpa(gplayout::HEAP_PAGE * PAGE_SIZE), b"private!", true).unwrap();
    sys.setup_block_device(a, vec![0u8; 16 * SECTOR_SIZE], IoPath::AesNi, Some([1; 16])).unwrap();
    sys.ensure_host().unwrap();
    // Tamper: point the ring-ref at a bogus entry.
    let path = format!("/local/domain/{}/device/vbd/ring-ref", a.0);
    assert!(sys.xen.xenstore.write(DomainId::DOM0, &path, "55"));
    // Re-resolving through the tampered store fails grant validation —
    // the entry is invalid, so the "attach" cannot reach any frame.
    let entry =
        fidelius_xen::grants::read_entry_phys(&sys.plat.machine.mc, sys.xen.grant_table_pa, 55)
            .unwrap();
    assert!(!entry.valid, "unsanctioned reference must not resolve to a frame");
}

/// What a refused boot or migration must leave as it found it: no domain
/// short of `Dead`, the guest pool back at `pool` free frames, and no
/// firmware context behind the receive's `handle`.
fn assert_nothing_left(sys: &System, pool: u64, handle: Handle, what: &str) {
    assert!(
        sys.xen.domains.values().all(|d| d.state == DomainState::Dead),
        "{what}: a domain outlived the refusal"
    );
    assert_eq!(sys.xen.guest_pool.free_count(), pool, "{what}: guest frames leaked");
    assert!(
        matches!(sys.plat.firmware.guest_status(handle), Err(SevError::UnknownHandle(_))),
        "{what}: firmware context {handle:?} left behind"
    );
}

#[test]
fn tampered_image_leaves_nothing_behind() {
    let mut sys = protected(74);
    let pool = sys.xen.guest_pool.free_count();
    let mut owner = GuestOwner::new(74);
    let mut image = owner.package_image(b"integration kernel", &sys.plat.firmware.pdh_public());
    image.pages[0][0] ^= 0x01; // the hypervisor flips one bit during load
    let err = boot_encrypted_guest(&mut sys, &image, 192);
    assert_eq!(err, Err(XenError::Sev(SevError::BadMeasurement)));
    assert_nothing_left(&sys, pool, Handle(1), "tampered image");
    // The refusal left room for the intact image.
    let dom = boot(&mut sys, 74);
    assert_eq!(sys.xen.domain(dom).unwrap().state, DomainState::Ready);
}

#[test]
fn image_larger_than_the_guest_is_refused_before_receive_start() {
    let mut sys = protected(75);
    let pool = sys.xen.guest_pool.free_count();
    let mut owner = GuestOwner::new(75);
    let kernel = vec![0x5a; 40 * PAGE_SIZE as usize];
    let image = owner.package_image(&kernel, &sys.plat.firmware.pdh_public());
    assert_eq!(boot_encrypted_guest(&mut sys, &image, 32), Err(XenError::OutOfMemory));
    assert_nothing_left(&sys, pool, Handle(1), "oversized image");
    assert!(sys.xen.domains.is_empty(), "the size check runs before any domain exists");
}

#[test]
fn migration_refused_for_want_of_heap_leaves_nothing_behind() {
    let mut src = protected(76);
    let mut dst = protected(77);
    let dom = boot(&mut src, 76);
    src.gpa_write(dom, HEAP, b"outlives the wait", true).unwrap();
    src.ensure_host().unwrap();
    let package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();

    // Dom0's heap runs dry: first with no frame left, so the new domain
    // cannot get its VMCB page, then with one, so it gets its VMCB page
    // but no NPT root, then with two, so it gets both but no table under
    // the root for its first page.
    let pool = dst.xen.guest_pool.free_count();
    let mut taken: Vec<Hpa> = std::iter::from_fn(|| dst.xen.heap.alloc().ok()).collect();
    for (spare, handle, what) in
        [(0, 1, "no heap frame"), (1, 2, "no NPT root"), (2, 3, "no table")]
    {
        while dst.xen.heap.free_count() < spare {
            dst.xen.heap.free(taken.pop().unwrap()).unwrap();
        }
        let refused = migrate_in(&mut dst, &package);
        assert_eq!(refused, Err(XenError::Hw(HwError::OutOfFrames)), "{what}");
        assert_nothing_left(&dst, pool, Handle(handle), what);
        if spare < 2 {
            assert!(dst.xen.domains.is_empty(), "{what}: a refused create_domain burns no id");
            assert_eq!(dst.xen.heap.free_count(), spare, "{what}: heap frames leaked");
        }
    }

    // No refusal burned the session nonce: once the heap is back, the same
    // package lands.
    for frame in taken {
        dst.xen.heap.free(frame).unwrap();
    }
    let arrived = migrate_in(&mut dst, &package).unwrap();
    assert_eq!(arrived, DomainId(2));
    let mut back = [0u8; 17];
    dst.gpa_read(arrived, HEAP, &mut back, true).unwrap();
    assert_eq!(&back, b"outlives the wait");
}
