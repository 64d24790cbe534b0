//! Integration tests for the paper's §8 extensions and §5.3 policies:
//! the BMT integrity engine, customized GEK keys, the write-once policy
//! and remote attestation.

use fidelius::hw::bmt::{IntegrityTree, IntegrityVerdict};
use fidelius::prelude::*;
use fidelius::sev::GekEngine;
use fidelius_core::lifecycle::fidelius_mut;
use fidelius_telemetry::DenialReason;
use fidelius_xen::layout::direct_map;
use fidelius_xen::GuardError;

const DRAM: u64 = 32 * 1024 * 1024;

fn protected(seed: u64) -> (System, DomainId) {
    let mut sys = System::new(DRAM, seed, Box::new(Fidelius::new())).unwrap();
    let mut owner = GuestOwner::new(seed);
    let image = owner.package_image(b"ext kernel", &sys.plat.firmware.pdh_public());
    let dom = boot_encrypted_guest(&mut sys, &image, 192).unwrap();
    (sys, dom)
}

#[test]
fn bmt_catches_physical_tampering_of_a_live_guest() {
    let (mut sys, dom) = protected(81);
    let gpa = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);
    sys.gpa_write(dom, gpa, b"integrity-protected state", true).unwrap();
    sys.ensure_host().unwrap();
    let frame = sys.xen.domain(dom).unwrap().frame_of(gplayout::HEAP_PAGE).unwrap();

    // The secure processor builds a BMT over the guest frame.
    let tree = IntegrityTree::build(sys.plat.machine.mc.dram(), frame, 64).unwrap();
    assert_eq!(tree.verify_all(sys.plat.machine.mc.dram()).unwrap(), None);

    // Rowhammer: with SEV alone this garbles silently; with the BMT it is
    // *detected* — the §8 suggestion.
    sys.plat.machine.mc.dram_mut().flip_bit(frame.add(7), 2).unwrap();
    assert_eq!(
        tree.verify_line(sys.plat.machine.mc.dram(), frame).unwrap(),
        IntegrityVerdict::Tampered
    );
}

#[test]
fn bmt_catches_the_replay_attack_sev_misses() {
    let (mut sys, dom) = protected(82);
    let gpa = Gpa((gplayout::HEAP_PAGE + 1) * PAGE_SIZE);
    sys.gpa_write(dom, gpa, b"password=OLDOLD!", true).unwrap();
    sys.ensure_host().unwrap();
    let frame = sys.xen.domain(dom).unwrap().frame_of(gplayout::HEAP_PAGE + 1).unwrap();
    let mut tree = IntegrityTree::build(sys.plat.machine.mc.dram(), frame, 64).unwrap();

    // Physical attacker snapshots the ciphertext line.
    let mut snapshot = [0u8; 64];
    sys.plat.machine.mc.dram().read_raw(frame, &mut snapshot).unwrap();

    // The guest rotates the password; the engine (hardware) would update
    // the tree as part of the legitimate write.
    sys.gpa_write(dom, gpa, b"password=NEWNEW!", true).unwrap();
    sys.ensure_host().unwrap();
    tree.update(sys.plat.machine.mc.dram(), frame).unwrap();
    assert_eq!(
        tree.verify_line(sys.plat.machine.mc.dram(), frame).unwrap(),
        IntegrityVerdict::Intact
    );

    // In-place replay: decrypts fine under SEV (same PA!) but the BMT
    // flags it.
    sys.plat.machine.mc.dram_mut().write_raw(frame, &snapshot).unwrap();
    assert_eq!(
        tree.verify_line(sys.plat.machine.mc.dram(), frame).unwrap(),
        IntegrityVerdict::Tampered
    );
}

#[test]
fn gek_enables_portable_io_encryption() {
    // §8's customized keys: the guest gets a GEK and uses ENC/DEC on an
    // I/O staging buffer; the ciphertext is position-independent, so no
    // s-dom/r-dom contortion is needed.
    let (mut sys, dom) = protected(83);
    sys.ensure_host().unwrap();
    let handle = fidelius_mut(&mut sys).unwrap().sev_handle(dom).unwrap();
    let mut gek_engine = GekEngine::new(83);
    let gek = gek_engine.setenc_gek(&sys.plat.firmware, handle).unwrap();

    // Stage plaintext in the shared buffer frame, ENC it in place.
    let buf_frame = sys.xen.domain(dom).unwrap().frame_of(gplayout::BUF_PAGE).unwrap();
    sys.plat.machine.mc.dram_mut().write_raw(buf_frame, b"gek protected io").unwrap();
    gek_engine.enc(&mut sys.plat.machine, handle, gek, buf_frame, 16, 5).unwrap();
    let mut on_wire = [0u8; 16];
    sys.plat.machine.mc.dram().read_raw(buf_frame, &mut on_wire).unwrap();
    assert_ne!(&on_wire, b"gek protected io");

    // dom0 "stores it on disk" and later loads it into a different frame;
    // DEC recovers it there — impossible with PA-tweaked SEND/RECEIVE.
    let other = sys.xen.domain(dom).unwrap().frame_of(gplayout::BUF_PAGE + 1).unwrap();
    sys.plat.machine.mc.dram_mut().write_raw(other, &on_wire).unwrap();
    gek_engine.dec(&mut sys.plat.machine, handle, gek, other, 16, 5).unwrap();
    let mut back = [0u8; 16];
    sys.plat.machine.mc.dram().read_raw(other, &mut back).unwrap();
    assert_eq!(&back, b"gek protected io");
}

#[test]
fn write_once_policy_latches_start_info() {
    let (mut sys, dom) = protected(84);
    sys.ensure_host().unwrap();
    let System { plat, guardian, .. } = &mut sys;
    let fid = guardian.as_any_mut().downcast_mut::<Fidelius>().unwrap();
    let start_info_page = 1u64; // by convention, guest page 1
    fid.write_once_page(plat, dom, start_info_page, b"start_info v1").unwrap();
    let err = fid.write_once_page(plat, dom, start_info_page, b"tampered!").unwrap_err();
    assert_eq!(err, GuardError::Denied(DenialReason::WriteOnceAlreadyInitialized));
}

#[test]
fn attestation_binds_measurement_and_detects_divergence() {
    let (mut sys, _dom) = protected(85);
    sys.ensure_host().unwrap();
    let nonce = [0x42u8; 32];
    let (measurement, tag) = {
        let System { plat, guardian, .. } = &mut sys;
        let fid = guardian.as_any_mut().downcast_mut::<Fidelius>().unwrap();
        fid.attestation_report(plat, &nonce)
    };
    // A verifier reconstructs the evidence and checks the platform tag.
    let mut evidence = Vec::new();
    evidence.extend_from_slice(&measurement);
    evidence.extend_from_slice(&nonce);
    assert!(sys.plat.firmware.verify_attestation(&evidence, &tag));
    // A lying report (different measurement) fails.
    let mut forged = evidence.clone();
    forged[0] ^= 1;
    assert!(!sys.plat.firmware.verify_attestation(&forged, &tag));

    // Two platforms booted from identical hypervisor code report the same
    // measurement — the attestation anchor.
    let (sys2, _d2) = protected(86);
    let System { plat: _p2, guardian: mut g2, .. } = sys2;
    let fid2 = g2.as_any_mut().downcast_mut::<Fidelius>().unwrap();
    assert_eq!(measurement, fid2.xen_measurement());
}

#[test]
fn attestation_measurement_reflects_code_tampering() {
    use fidelius_xen::platform::XEN_CODE_PA;
    // Boot a platform whose hypervisor image was backdoored before
    // Fidelius launched: the measurement must differ, so remote
    // attestation exposes it.
    let clean = {
        let (mut sys, _dom) = protected(87);
        sys.ensure_host().unwrap();
        let System { guardian: mut g, .. } = sys;
        g.as_any_mut().downcast_mut::<Fidelius>().unwrap().xen_measurement()
    };
    // A raw byte differs in this "build" (simulating a tampered image):
    // patch DRAM after Platform::boot but before late_launch by building
    // the pieces manually.
    let (mut plat, boot) = fidelius_xen::Platform::boot(DRAM, 88).unwrap();
    plat.machine.mc.dram_mut().write_raw(XEN_CODE_PA.add(0x500), &[0xCC]).unwrap();
    let xen = fidelius_xen::hypervisor::Hypervisor::init(&mut plat, boot).unwrap();
    let mut fid = Fidelius::new();
    use fidelius_xen::Guardian;
    fid.late_launch(&mut plat, &xen.late_launch_info()).unwrap();
    assert_ne!(fid.xen_measurement(), clean, "backdoored image must measure differently");
    let _ = direct_map(XEN_CODE_PA);
}

#[test]
fn audit_log_records_blocked_probes() {
    use fidelius_telemetry::AuditKind;
    let (mut sys, dom) = protected(93);
    sys.ensure_host().unwrap();
    let booked = |sys: &System, kind| {
        sys.plat.machine.trace.metrics().denials_by_kind.get(&kind).copied().unwrap_or(0)
    };
    let (instr, git) =
        (booked(&sys, AuditKind::InstrViolation), booked(&sys, AuditKind::GitViolation));
    // A compromised hypervisor probes the boundaries: a forbidden CR0
    // write and an unauthorized grant.
    use fidelius_hw::cpu::PrivOp;
    use fidelius_hw::regs::Cr0;
    let _ = sys.guardian.exec_priv(&mut sys.plat, PrivOp::WriteCr0(Cr0 { pg: true, wp: false }));
    let frame = sys.xen.domain(dom).unwrap().frame_of(gplayout::HEAP_PAGE).unwrap();
    let bogus = fidelius_xen::grants::GrantEntry {
        valid: true,
        writable: true,
        owner: dom.0,
        grantee: 0,
        gpa_page: gplayout::HEAP_PAGE,
        frame,
    };
    let _ = sys.guardian.grant_write(&mut sys.plat, 3, bogus);
    // The trace is the audit log: each probe is booked once, by kind.
    assert_eq!(booked(&sys, AuditKind::InstrViolation), instr + 1, "CR0 probe not booked");
    assert_eq!(booked(&sys, AuditKind::GitViolation), git + 1, "grant probe not booked");
}
