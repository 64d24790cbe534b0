//! Whole-stack differential test for `Fidelity`: one seeded script runs
//! twice, once on the fast paths and once on their references, and
//! everything observable must match exactly — disk images, read data,
//! request statuses, hypercall returns and `XenError`s, f64-exact modeled
//! cycles and telemetry snapshots on every system, and Fidelius's audit
//! totals.
//!
//! The script boots an encrypted guest, drives a SEV-API block device
//! with randomized `disk_batch` windows, forges a grant, tries an NPT
//! remap, migrates the guest to a second platform, drives an AES-NI
//! block device there and shuts the guest down. Separate cases run one
//! scheduled fault of every `FaultKind` under both fidelities, and two
//! raw-slot cases feed the drains descriptors only a hostile guest
//! writes.

use std::fmt::Debug;

use fidelius::core::lifecycle::{boot_encrypted_guest, fidelius_mut};
use fidelius::core::migrate::{migrate_in, migrate_out};
use fidelius::core::Fidelius;
use fidelius::crypto::modes::SECTOR_SIZE;
use fidelius::faultinject::{point_for, FaultPlan, Rng, ScheduledInjector};
use fidelius::hw::cpu::Fidelity;
use fidelius::hw::inject::InjectPoint;
use fidelius::hw::paging::PTE_WRITABLE;
use fidelius::hw::{Gpa, PAGE_SIZE};
use fidelius::sev::GuestOwner;
use fidelius::telemetry::{DenialReason, Event, FaultKind};
use fidelius::xen::blkif::{slot_offset, BlkOp, SECTORS_PER_PAGE};
use fidelius::xen::frontend::{gplayout, IoPath};
use fidelius::xen::grants::GrantEntry;
use fidelius::xen::hypercall::{GrantOp, HC_GRANT_TABLE_OP, RET_EPERM};
use fidelius::xen::system::{BatchOp, GuestConfig};
use fidelius::xen::{DomainId, GuardError, System, Unprotected, XenError};

const SEED: u64 = 0xF1DE;
const DRAM: u64 = 32 * 1024 * 1024;
const GUEST_PAGES: u64 = 192;
/// Disk size in sectors: small, so windows overlap and run off the end.
const DISK_SECTORS: u64 = 96;
const WINDOWS: u64 = 8;
const MARKER: &[u8] = b"fidelity marker";

/// Everything one run exposes, compared field by field.
#[derive(Debug, Default)]
struct Observed {
    /// Each step's outcome rendered with `{:?}`: statuses, read payloads,
    /// hypercall returns and `XenError`s.
    steps: Vec<String>,
    /// Driver-domain disk images, in capture order.
    disks: Vec<Vec<u8>>,
    /// Per system: modeled cycle total as f64 bits.
    cycles: Vec<u64>,
    /// Per system: the rendered telemetry snapshot.
    telemetry: Vec<String>,
    /// Per system: Fidelius's audit-log total and counters.
    audit: Vec<(u64, String)>,
}

impl Observed {
    fn step(&mut self, what: &str, outcome: impl Debug) {
        self.steps.push(format!("{what}: {outcome:?}"));
    }

    /// Records the end state of `sys`.
    fn finish(&mut self, sys: &mut System) {
        self.cycles.push(sys.plat.machine.cycles.total_f64().to_bits());
        self.telemetry.push(sys.plat.machine.telemetry_snapshot().to_json().to_string());
        if let Ok(fid) = fidelius_mut(sys) {
            self.audit.push((fid.audit_log().total(), format!("{:?}", fid.stats())));
        }
    }
}

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
    assert_eq!(fast.audit, reference.audit, "{what}: Fidelius audit totals diverge");
    fast
}

fn protected(seed: u64, fidelity: Fidelity) -> System {
    let mut sys = System::new(DRAM, seed, Box::new(Fidelius::new())).unwrap();
    sys.plat.machine.set_fidelity(fidelity);
    sys
}

fn boot(sys: &mut System, seed: u64) -> DomainId {
    let mut owner = GuestOwner::new(seed);
    let image = owner.package_image(b"fidelity kernel", &sys.plat.firmware.pdh_public());
    boot_encrypted_guest(sys, &image, GUEST_PAGES).unwrap()
}

fn disk() -> Vec<u8> {
    vec![0u8; DISK_SECTORS as usize * SECTOR_SIZE]
}

/// One randomized ring window of one to four requests of up to two
/// buffer pages each (the eight-page window's capacity). About one in
/// eight runs off the end of the disk; sectors come from a small space,
/// so requests overlap within and across windows.
fn draw_window(rng: &mut Rng) -> Vec<BatchOp> {
    (0..1 + rng.below(4))
        .map(|_| {
            let count = 1 + rng.below(2 * SECTORS_PER_PAGE);
            let sector = if rng.below(8) == 0 {
                DISK_SECTORS - count / 2 + rng.below(16)
            } else {
                rng.below(DISK_SECTORS - count)
            };
            if rng.below(2) == 0 {
                let byte = rng.next_u64() as u8;
                BatchOp::Write { sector, data: vec![byte; count as usize * SECTOR_SIZE] }
            } else {
                BatchOp::Read { sector, count }
            }
        })
        .collect()
}

fn drive_windows(sys: &mut System, dom: DomainId, rng: &mut Rng, label: &str, obs: &mut Observed) {
    for w in 0..WINDOWS {
        let ops = draw_window(rng);
        obs.step(&format!("{label} window {w}"), sys.disk_batch(dom, 0, &ops));
    }
}

/// Boot → SEV-API windows → forged grant → refused remap → migration →
/// AES-NI windows on the destination → shutdown.
fn whole_stack(fidelity: Fidelity) -> Observed {
    let mut obs = Observed::default();
    let mut rng = Rng::new(SEED);
    let mut src = protected(SEED, fidelity);
    let mut dst = protected(SEED + 1, fidelity);
    let dom = boot(&mut src, SEED);
    let heap = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);
    src.gpa_write(dom, heap, MARKER, true).unwrap();

    src.setup_block_device(dom, disk(), IoPath::SevApi, None).unwrap();
    drive_windows(&mut src, dom, &mut rng, "sev-api", &mut obs);
    obs.disks.push(src.xen.backend.disk().to_vec());

    // The hypervisor grants dom0 a private page the guest never declared.
    let forged = src.hypercall(
        dom,
        HC_GRANT_TABLE_OP,
        [GrantOp::GrantAccess as u64, 0, heap.0 / PAGE_SIZE, 1],
    );
    assert_eq!(forged, Ok(RET_EPERM), "forged grant must be refused");
    obs.step("forged grant", forged);

    // The hypervisor moves a populated GPA onto a frame of its choosing.
    src.ensure_host().unwrap();
    let frame = src.xen.guest_pool.alloc().unwrap();
    let page = gplayout::HEAP_PAGE;
    let remap = src.xen.npt_map(&mut src.plat, &mut *src.guardian, dom, page, frame, PTE_WRITABLE);
    assert!(
        matches!(remap, Err(XenError::Guard(GuardError::Denied(DenialReason::RemapPopulatedGpa)))),
        "remap must be refused, got {remap:?}"
    );
    obs.step("npt remap", remap);

    let package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();
    let moved = migrate_in(&mut dst, &package).unwrap();
    let mut back = vec![0u8; MARKER.len()];
    dst.gpa_read(moved, heap, &mut back, true).unwrap();
    assert_eq!(back, MARKER, "the guest must arrive intact");

    dst.setup_block_device(moved, disk(), IoPath::AesNi, Some([0x4B; 16])).unwrap();
    drive_windows(&mut dst, moved, &mut rng, "aes-ni", &mut obs);
    obs.disks.push(dst.xen.backend.disk().to_vec());
    obs.step("shutdown", dst.shutdown_guest(moved));

    obs.finish(&mut src);
    obs.finish(&mut dst);
    obs
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
        obs.finish(&mut dst);
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
        obs.disks.push(src.xen.backend.disk().to_vec());
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
    obs.finish(&mut src);
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
/// result, the slot's status and the number of `Denial` events.
fn raw_slot(sys: &mut System, dom: DomainId, word: u64, value: u64, obs: &mut Observed) {
    sys.ensure_guest(dom).unwrap();
    let fe = sys.frontends.get_mut(&dom).unwrap();
    let slot = fe.push_request(&mut sys.plat.machine, BlkOp::Read, 0, 1, 0).unwrap();
    let at = gplayout::RING_PAGE * PAGE_SIZE + slot_offset(slot) + 8 * word;
    sys.plat.machine.guest_write_gpa(Gpa(at), &value.to_le_bytes(), false).unwrap();
    sys.ensure_host().unwrap();
    obs.step("drain", sys.xen.backend.process(&mut sys.plat));
    sys.ensure_guest(dom).unwrap();
    let fe = sys.frontends.get_mut(&dom).unwrap();
    obs.step("status", fe.slot_status(&mut sys.plat.machine, slot));
    let denials = sys
        .plat
        .machine
        .trace
        .events()
        .iter()
        .filter(|t| matches!(t.event, Event::Denial { .. }))
        .count();
    obs.step("denials", denials);
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
    assert_eq!(obs.steps[..2], ["drain: Ok(1)", "status: Ok(Error)"]);
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
    assert_eq!(obs.steps, ["drain: Ok(1)", "status: Ok(Error)", "denials: 0"]);
}
