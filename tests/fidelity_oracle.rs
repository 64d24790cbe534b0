//! Whole-stack differential test for `Fidelity`: one seeded script runs
//! twice, once on the fast paths and once on their references, and
//! everything observable must match exactly — disk images, read data,
//! request statuses, hypercall returns and `XenError`s, f64-exact modeled
//! cycles and telemetry snapshots (audit-trail counts included) on every
//! system.
//!
//! The script (in `common`) boots an encrypted guest, drives a SEV-API
//! block device with randomized `disk_batch` windows, forges a grant,
//! tries an NPT remap, runs one dom0 privileged instruction, migrates the
//! guest to a second platform, drives an AES-NI block device there and
//! shuts the guest down. Separate cases run one
//! scheduled fault of every `FaultKind` under both fidelities, and two
//! raw-slot cases feed the drains descriptors only a hostile guest
//! writes.

mod common;

use common::{boot, disk, draw_window, protected, Observed, DRAM, MARKER, SEED};
use fidelius::core::migrate::{migrate_in, migrate_out};
use fidelius::crypto::modes::SECTOR_SIZE;
use fidelius::faultinject::{point_for, FaultPlan, Rng, ScheduledInjector};
use fidelius::hw::cpu::Fidelity;
use fidelius::hw::inject::InjectPoint;
use fidelius::hw::{Gpa, PAGE_SIZE};
use fidelius::telemetry::{Event, FaultKind};
use fidelius::xen::blkif::{slot_offset, BlkOp};
use fidelius::xen::frontend::{gplayout, IoPath};
use fidelius::xen::grants::GrantEntry;
use fidelius::xen::system::GuestConfig;
use fidelius::xen::{DomainId, System, Unprotected};

/// Runs `script` under both fidelities, asserts the two observations are
/// identical and returns the fast one.
fn assert_fidelities_agree(what: &str, script: impl Fn(Fidelity) -> Observed) -> Observed {
    let fast = script(Fidelity::Fast);
    let reference = script(Fidelity::Reference);
    let clip = |s: &str| s.chars().take(240).collect::<String>();
    for (i, (f, r)) in fast.steps.iter().zip(&reference.steps).enumerate() {
        assert!(
            f == r,
            "{what}: step {i} diverges\n fast:      {}\n reference: {}",
            clip(f),
            clip(r)
        );
    }
    assert_eq!(fast.steps.len(), reference.steps.len(), "{what}: step counts diverge");
    assert!(fast.disks == reference.disks, "{what}: disk images diverge");
    assert_eq!(fast.cycles, reference.cycles, "{what}: modeled cycles diverge");
    assert_eq!(fast.telemetry, reference.telemetry, "{what}: telemetry snapshots diverge");
    fast
}

/// The shared whole-stack script on a fresh source/destination pair.
fn whole_stack(fidelity: Fidelity) -> Observed {
    let mut src = protected(SEED, fidelity);
    let mut dst = protected(SEED + 1, fidelity);
    common::whole_stack(&mut src, &mut dst)
}

#[test]
fn whole_stack_matches_across_fidelities() {
    let obs = assert_fidelities_agree("whole stack", whole_stack);
    // The windows must reach both request outcomes on both devices.
    for device in ["sev-api", "aes-ni"] {
        let steps: Vec<&String> = obs.steps.iter().filter(|s| s.starts_with(device)).collect();
        assert!(steps.iter().any(|s| s.contains("Ok, Some")), "{device}: no read completed");
        assert!(steps.iter().any(|s| s.contains("(Error, None)")), "{device}: no request failed");
    }
}

/// One scheduled fault of `kind` against an encrypted guest: SEV-API
/// windows and single requests for the runtime kinds, a migration round
/// trip for the stream kinds.
fn fault_case(kind: FaultKind, fidelity: Fidelity) -> Observed {
    let seed = SEED ^ kind as u64;
    let plan = FaultPlan::from_seed(seed, kind);
    let mut obs = Observed::default();
    let mut rng = Rng::new(seed);
    let mut src = protected(seed, fidelity);
    let dom = boot(&mut src, seed);
    let heap = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);
    src.gpa_write(dom, heap, MARKER, true).unwrap();
    if plan.point == InjectPoint::MigrateSend {
        let mut dst = protected(seed + 1, fidelity);
        src.plat.machine.inject.install(Box::new(ScheduledInjector::new(plan)));
        let package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public());
        src.plat.machine.inject.clear();
        let moved = package.map(|p| migrate_in(&mut dst, &p));
        obs.step("migration", &moved);
        if let Ok(Ok(moved)) = moved {
            let mut back = vec![0u8; MARKER.len()];
            obs.step("marker", dst.gpa_read(moved, heap, &mut back, true).map(|()| back));
        }
        obs.finish(&dst);
    } else {
        src.setup_block_device(dom, disk(), IoPath::SevApi, None).unwrap();
        src.plat.machine.inject.install(Box::new(ScheduledInjector::new(plan)));
        for round in 0..3 {
            let ops = draw_window(&mut rng);
            obs.step("window", src.disk_batch(dom, 0, &ops));
            let data = vec![round as u8 ^ 0xA5; SECTOR_SIZE];
            obs.step("write", src.disk_write(dom, round, &data));
            obs.step("read", src.disk_read(dom, round, 1));
        }
        src.plat.machine.inject.clear();
        let mut back = vec![0u8; MARKER.len()];
        obs.step("marker", src.gpa_read(dom, heap, &mut back, true).map(|()| back));
        obs.disks.push(src.xen.backend(dom).unwrap().disk().to_vec());
    }
    let fired = src
        .plat
        .machine
        .trace
        .events()
        .iter()
        .filter(|t| matches!(t.event, Event::FaultInjected { kind: k, .. } if k == kind))
        .count();
    obs.step("injections", fired);
    obs.finish(&src);
    obs
}

/// Every fault kind except those delivered at `InjectPoint::BlkifDrain`.
/// Those are left out because they act between the batched drain's
/// window validation and its data phase: the reference drain validates
/// no window ahead, so it has no window for an adversary to revoke
/// under, and the fault exists only on the fast path.
#[test]
fn scheduled_faults_match_across_fidelities() {
    let kinds: Vec<FaultKind> =
        FaultKind::ALL.into_iter().filter(|k| point_for(*k) != InjectPoint::BlkifDrain).collect();
    assert!(kinds.len() < FaultKind::ALL.len(), "some kinds are drain-only");
    for kind in kinds {
        let obs = assert_fidelities_agree(kind.as_str(), |f| fault_case(kind, f));
        let fired = obs.steps.iter().any(|s| s.starts_with("injections") && !s.ends_with(": 0"));
        assert!(fired, "{}: the planned fault never fired", kind.as_str());
    }
}

/// A plain guest with a one-queue block device, for the raw-slot cases.
fn plain_device(fidelity: Fidelity) -> (System, DomainId) {
    let mut sys = System::new(DRAM, SEED, Box::new(Unprotected::new())).unwrap();
    sys.plat.machine.set_fidelity(fidelity);
    let dom = sys.create_guest(GuestConfig::default()).unwrap();
    sys.setup_block_device(dom, disk(), IoPath::Plain, None).unwrap();
    (sys, dom)
}

/// Pushes a one-sector read on queue 0, lets the guest overwrite word
/// `word` of its slot with `value`, and drains. Records the drain's
/// result, the slot's status and the number of `Denial` events booked
/// since the push (vanilla Xen's setup already booked its refusal of the
/// pre-sharing op).
fn raw_slot(sys: &mut System, dom: DomainId, word: u64, value: u64, obs: &mut Observed) {
    let denials = |sys: &System| {
        let events = sys.plat.machine.trace.events();
        events.iter().filter(|t| matches!(t.event, Event::Denial { .. })).count()
    };
    let booked = denials(sys);
    sys.ensure_guest(dom).unwrap();
    let fe = sys.frontends.get_mut(&dom).unwrap();
    let slot = fe.push_request_on(0, &mut sys.plat.machine, BlkOp::Read, 0, 1, 0).unwrap();
    let at = gplayout::RING_PAGE * PAGE_SIZE + slot_offset(slot) + 8 * word;
    sys.plat.machine.guest_write_gpa(Gpa(at), &value.to_le_bytes(), false).unwrap();
    sys.ensure_host().unwrap();
    obs.step("drain", sys.xen.backend_mut(dom).unwrap().process_queue(&mut sys.plat, 0));
    sys.ensure_guest(dom).unwrap();
    let fe = sys.frontends.get_mut(&dom).unwrap();
    obs.step("status", fe.slot_status_on(0, &mut sys.plat.machine, slot));
    obs.step("denials", denials(sys) - booked);
    obs.finish(sys);
}

/// Slot words: id, op, sector, count, buf_page, status.
const WORD_OP: u64 = 1;
const WORD_BUF_PAGE: u64 = 4;

#[test]
fn guest_buf_page_overflow_fails_its_request() {
    let obs = assert_fidelities_agree("buf_page u64::MAX", |fidelity| {
        let (mut sys, dom) = plain_device(fidelity);
        let mut obs = Observed::default();
        raw_slot(&mut sys, dom, WORD_BUF_PAGE, u64::MAX, &mut obs);
        obs
    });
    assert_eq!(obs.steps[..2], ["drain: Ok([(0, Error)])", "status: Ok(Error)"]);
}

#[test]
fn unknown_op_is_refused_before_grant_checks() {
    let obs = assert_fidelities_agree("unknown op, revoked buffer grant", |fidelity| {
        let (mut sys, dom) = plain_device(fidelity);
        let buf_ref: u64 = sys
            .xen
            .xenstore
            .read(&format!("/local/domain/{}/device/vbd/buf-ref/0", dom.0))
            .unwrap()
            .parse()
            .unwrap();
        sys.guardian.grant_write(&mut sys.plat, buf_ref, GrantEntry::default()).unwrap();
        let mut obs = Observed::default();
        raw_slot(&mut sys, dom, WORD_OP, BlkOp::Write as u64 + 6, &mut obs);
        obs
    });
    assert_eq!(obs.steps, ["drain: Ok([(0, Error)])", "status: Ok(Error)", "denials: 0"]);
}
