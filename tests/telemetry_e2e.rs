//! End-to-end telemetry: drive the full VM life cycle of paper §4.3 and
//! assert (a) the structured event stream shows the world-switch protocol
//! in order — VMEXIT, then the type-3 gate that re-arms the world switch,
//! then VMRUN —, (b) the per-category cycle attribution is exact: the six
//! category sums equal the grand total bit-for-bit, because the total *is*
//! the fixed-order category sum, and (c) every refusal, whichever layer
//! makes it, lands on the one audit trail: one `Denial` event, counted
//! once under its audit kind.

use fidelius::attacks::SevEsSim;
use fidelius::hw::inject::{FaultAction, FaultInjector, InjectPoint};
use fidelius::hw::vmcb::VmcbField;
use fidelius::prelude::*;
use fidelius::telemetry::{AuditKind, CycleCategory, DenialReason, Event, GateKind};
use fidelius::xen::grants::GrantEntry;
use fidelius::xen::layout::direct_map;
use fidelius::xen::{GuardError, XenError};
use fidelius_crypto::modes::SECTOR_SIZE;

/// Runs prepare → boot → compute → I/O → shutdown and returns the system
/// with its trace and cycle counter intact.
fn run_lifecycle() -> System {
    let mut sys =
        System::new(32 * 1024 * 1024, 7, Box::new(Fidelius::new())).expect("platform boots");
    let mut owner = GuestOwner::new(2);
    let kblk = owner.generate_kblk();
    let image = owner.package_image(b"telemetry e2e kernel", &sys.plat.firmware.pdh_public());
    let dom = boot_encrypted_guest(&mut sys, &image, 192).expect("guest boots");

    sys.gpa_write(dom, Gpa(gplayout::HEAP_PAGE * PAGE_SIZE), b"working state", true)
        .expect("guest writes private memory");

    let disk = vec![0u8; 64 * SECTOR_SIZE];
    sys.setup_block_device(dom, disk, IoPath::AesNi, Some(kblk)).expect("block device");
    let mut sector = vec![0u8; SECTOR_SIZE];
    sector[..8].copy_from_slice(b"e2e-data");
    sys.disk_write(dom, 0, &sector).expect("disk write");
    let back = sys.disk_read(dom, 0, 1).expect("disk read");
    assert_eq!(&back[..8], b"e2e-data");

    sys.ensure_host().expect("return to host");
    sys.shutdown_guest(dom).expect("shutdown");
    sys
}

#[test]
fn lifecycle_emits_ordered_vmexit_gate_vmrun_sequence() {
    let sys = run_lifecycle();
    let events = sys.plat.machine.trace.events();
    assert!(!events.is_empty(), "lifecycle left no trace");

    // Sequence numbers are strictly increasing, oldest first.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }

    // Somewhere in the stream a guest exit is followed (not necessarily
    // adjacently — the hypervisor handles the exit in between) by the
    // type-3 gate guarding VMRUN, and then by the world switch itself.
    let exit_at = events
        .iter()
        .position(|t| matches!(t.event, Event::Vmexit { .. }))
        .expect("no VMEXIT event in the ring");
    let gate_at = events[exit_at..]
        .iter()
        .position(|t| matches!(t.event, Event::Gate { kind: GateKind::Type3, op } if op == "vmrun"))
        .map(|i| exit_at + i)
        .expect("no type-3 vmrun gate after the first VMEXIT");
    let vmrun_at = events[gate_at..]
        .iter()
        .position(|t| matches!(t.event, Event::Vmrun { sev: true, .. }))
        .map(|i| gate_at + i)
        .expect("no SEV VMRUN after the vmrun gate");
    assert!(exit_at < gate_at && gate_at < vmrun_at);

    // The gate and the world switch refer to the same guest: the VMRUN's
    // ASID matches the VMEXIT's.
    let Event::Vmexit { asid: exit_asid, .. } = events[exit_at].event else { unreachable!() };
    let Event::Vmrun { asid: run_asid, .. } = events[vmrun_at].event else { unreachable!() };
    assert_eq!(exit_asid, run_asid, "gate round trip switched guests");

    // The metrics registry agrees with the protocol: every VMRUN was
    // preceded by a type-3 gate, so gates can't undercount world switches.
    let metrics = sys.plat.machine.trace.metrics();
    assert!(metrics.vmruns > 0);
    assert!(
        metrics.gates_by_type[GateKind::Type3.index()] >= metrics.vmruns,
        "every VMRUN must pass through a type-3 gate"
    );
}

#[test]
fn category_sums_equal_grand_total_exactly() {
    let sys = run_lifecycle();
    let cycles = &sys.plat.machine.cycles;
    let breakdown = cycles.breakdown();

    // Recompute the sum in the fixed category order and compare
    // bit-for-bit — no epsilon. This holds by construction (the total *is*
    // this sum), which is exactly what the test pins down.
    let sum: f64 = CycleCategory::ALL.iter().map(|c| breakdown.get(*c)).sum();
    assert_eq!(sum.to_bits(), cycles.total_f64().to_bits());
    assert_eq!(breakdown.total().to_bits(), cycles.total_f64().to_bits());

    // The lifecycle exercised every layer, so no category sits at zero:
    // world switches, gate round trips, shadow/verify passes, the
    // encryption engine, page walks and plain work all got charged.
    for cat in CycleCategory::ALL {
        assert!(breakdown.get(cat) > 0.0, "no cycles attributed to {}", cat.as_str());
    }
    assert!(cycles.total_f64() > 0.0);

    // And the snapshot renders the same numbers it measured.
    let snap = sys.plat.machine.telemetry_snapshot();
    let json = snap.to_json();
    let total = json.get("cycles").and_then(|c| c.get("total")).and_then(|t| t.as_f64());
    assert_eq!(total, Some(cycles.total_f64()));
}

/// `(Denial events in the ring, denials booked under `kind`)` so far.
fn books(sys: &System, kind: AuditKind) -> (usize, u64) {
    let trace = &sys.plat.machine.trace;
    let denials = trace.events().iter().filter(|t| matches!(t.event, Event::Denial { .. })).count();
    (denials, trace.metrics().denials_by_kind.get(&kind).copied().unwrap_or(0))
}

/// Runs `refusal` and asserts that it was booked exactly once on the one
/// audit trail: one new `Denial` event carrying `reason`, and one more
/// denial counted under `reason.kind()`.
fn assert_booked_once(sys: &mut System, reason: DenialReason, refusal: impl FnOnce(&mut System)) {
    let (denials, by_kind) = books(sys, reason.kind());
    refusal(sys);
    assert_eq!(books(sys, reason.kind()), (denials + 1, by_kind + 1), "{reason:?}");
    let last = sys.plat.machine.trace.events().into_iter().rev().find_map(|t| match t.event {
        Event::Denial { reason } => Some(reason),
        _ => None,
    });
    assert_eq!(last, Some(reason));
}

/// Fires `action` at the first batched-drain request boundary.
#[derive(Debug)]
struct FireOnce(Option<FaultAction>);

impl FaultInjector for FireOnce {
    fn decide(&mut self, point: InjectPoint) -> Option<FaultAction> {
        (point == InjectPoint::BlkifDrain).then(|| self.0.take()).flatten()
    }
}

/// Enters `dom`, exits on HLT, and has the hypervisor rewrite the guest's
/// RIP in the VMCB before the next entry.
fn tamper_rip_after_exit(sys: &mut System, dom: DomainId) {
    sys.ensure_guest(dom).unwrap();
    sys.ensure_host().unwrap();
    let rip = sys.xen.domain(dom).unwrap().vmcb_pa.add(8 * VmcbField::Rip as u64);
    sys.plat.machine.host_write_u64(direct_map(rip), 0xDEAD_0000).unwrap();
}

/// One refusal from each booking site — a policy refusal inside Fidelius,
/// a fail-closed block drain, a shadow-verify refusal, a truncated
/// migration stream, a replayed launch session, vanilla Xen's refusal of
/// the pre-sharing op and the SEV-ES model's VMCB check — each lands on
/// the trace once, under its audit kind.
#[test]
fn every_refusal_site_books_one_denial() {
    let mut sys = System::new(32 * 1024 * 1024, 11, Box::new(Fidelius::new())).unwrap();
    let mut owner = GuestOwner::new(12);
    let image = owner.package_image(b"audit trail kernel", &sys.plat.firmware.pdh_public());
    let dom = boot_encrypted_guest(&mut sys, &image, 192).unwrap();
    sys.ensure_host().unwrap();

    // A forged grant: dom0 never received the owner's authorization.
    let frame = sys.xen.domain(dom).unwrap().frame_of(gplayout::HEAP_PAGE).unwrap();
    let forged = GrantEntry {
        valid: true,
        writable: true,
        owner: dom.0,
        grantee: DomainId::DOM0.0,
        gpa_page: gplayout::HEAP_PAGE,
        frame,
    };
    assert_booked_once(&mut sys, DenialReason::GrantNotAuthorized, |sys| {
        let err = sys.guardian.grant_write(&mut sys.plat, 3, forged);
        assert_eq!(err, Err(GuardError::Denied(DenialReason::GrantNotAuthorized)));
    });

    // A block drain whose producer index moves under it fails closed.
    sys.setup_block_device(dom, vec![0u8; 64 * SECTOR_SIZE], IoPath::SevApi, None).unwrap();
    sys.plat
        .machine
        .inject
        .install(Box::new(FireOnce(Some(FaultAction::CorruptRingIndex { xor: 0x80_0001 }))));
    assert_booked_once(&mut sys, DenialReason::RingIndexTampered, |sys| {
        let err = sys.disk_write(dom, 2, &[0xDD; SECTOR_SIZE]);
        assert!(matches!(err, Err(XenError::FailClosed(DenialReason::RingIndexTampered))));
    });
    sys.plat.machine.inject.clear();

    // A VMCB field rewritten between an exit and the next entry.
    tamper_rip_after_exit(&mut sys, dom);
    assert_booked_once(&mut sys, DenialReason::VmcbFieldTampered, |sys| {
        let err = sys.enter(dom).map_err(|e| e.denial());
        assert_eq!(err, Err(Some(DenialReason::VmcbFieldTampered)));
    });

    // A migration stream truncated in transit.
    let mut dst = System::new(32 * 1024 * 1024, 13, Box::new(Fidelius::new())).unwrap();
    let mut package = migrate_out(&mut sys, dom, &dst.plat.firmware.pdh_public()).unwrap();
    package.truncate(package.pages.len() - 1);
    assert_booked_once(&mut dst, DenialReason::MigrationStreamTruncated, |dst| {
        let err = migrate_in(dst, &package);
        assert!(matches!(err, Err(XenError::FailClosed(DenialReason::MigrationStreamTruncated))));
    });

    // The owner's launch session replayed for a second guest.
    assert_booked_once(&mut sys, DenialReason::LaunchMeasurementReplayed, |sys| {
        let err = boot_encrypted_guest(sys, &image, 192);
        assert!(matches!(err, Err(XenError::FailClosed(DenialReason::LaunchMeasurementReplayed))));
    });

    // Vanilla Xen has no pre-sharing op.
    let mut xen = System::new(32 * 1024 * 1024, 14, Box::new(Unprotected::new())).unwrap();
    assert_booked_once(&mut xen, DenialReason::PreSharingUnsupported, |xen| {
        let err = xen.guardian.pre_sharing(&mut xen.plat, DomainId(1), DomainId::DOM0, 0, 1, true);
        assert_eq!(err, Err(GuardError::Denied(DenialReason::PreSharingUnsupported)));
    });

    // SEV-ES checks the VMCB against its encrypted save area.
    let mut es = System::new(32 * 1024 * 1024, 15, Box::new(SevEsSim::new())).unwrap();
    let guest = es.create_guest(GuestConfig::default()).unwrap();
    tamper_rip_after_exit(&mut es, guest);
    assert_booked_once(&mut es, DenialReason::SevEsVmcbTampered, |es| {
        let err = es.enter(guest).map_err(|e| e.denial());
        assert_eq!(err, Err(Some(DenialReason::SevEsVmcbTampered)));
    });
}
