//! The seeded whole-stack script shared by `fidelity_oracle.rs` (run
//! under both fidelities) and `trace_golden.rs` (run once with the flight
//! recorder armed): it boots an encrypted guest, drives a SEV-API block
//! device with randomized `disk_batch` windows, forges a grant, tries an
//! NPT remap, runs one dom0 privileged instruction, migrates the guest to
//! a second platform, drives an AES-NI block device there and shuts the
//! guest down.

use std::fmt::Debug;

use fidelius::core::lifecycle::boot_encrypted_guest;
use fidelius::core::migrate::{migrate_in, migrate_out};
use fidelius::core::Fidelius;
use fidelius::crypto::modes::SECTOR_SIZE;
use fidelius::faultinject::Rng;
use fidelius::hw::cpu::{Fidelity, PrivOp};
use fidelius::hw::paging::PTE_WRITABLE;
use fidelius::hw::regs::Cr4;
use fidelius::hw::{Gpa, PAGE_SIZE};
use fidelius::sev::GuestOwner;
use fidelius::telemetry::DenialReason;
use fidelius::xen::blkif::SECTORS_PER_PAGE;
use fidelius::xen::frontend::{gplayout, IoPath};
use fidelius::xen::hypercall::{GrantOp, HC_GRANT_TABLE_OP, RET_EPERM};
use fidelius::xen::system::BatchOp;
use fidelius::xen::{DomainId, GuardError, System, XenError};

pub const SEED: u64 = 0xF1DE;
pub const DRAM: u64 = 32 * 1024 * 1024;
const GUEST_PAGES: u64 = 192;
/// Disk size in sectors: small, so windows overlap and run off the end.
pub const DISK_SECTORS: u64 = 96;
const WINDOWS: u64 = 8;
pub const MARKER: &[u8] = b"fidelity marker";

/// Everything one run exposes, compared field by field.
#[derive(Debug, Default)]
pub struct Observed {
    /// Each step's outcome rendered with `{:?}`: statuses, read payloads,
    /// hypercall returns and `XenError`s.
    pub steps: Vec<String>,
    /// Driver-domain disk images, in capture order.
    pub disks: Vec<Vec<u8>>,
    /// Per system: modeled cycle total as f64 bits.
    pub cycles: Vec<u64>,
    /// Per system: the rendered telemetry snapshot, which holds the audit
    /// trail's counts (`denials_by_kind`, `shadow_verify_tampered`).
    pub telemetry: Vec<String>,
}

impl Observed {
    pub fn step(&mut self, what: &str, outcome: impl Debug) {
        self.steps.push(format!("{what}: {outcome:?}"));
    }

    /// Records the end state of `sys`.
    pub fn finish(&mut self, sys: &System) {
        self.cycles.push(sys.plat.machine.cycles.total_f64().to_bits());
        self.telemetry.push(sys.plat.machine.telemetry_snapshot().to_json().to_string());
    }
}

/// A Fidelius-protected system running under `fidelity`.
pub fn protected(seed: u64, fidelity: Fidelity) -> System {
    let mut sys = System::new(DRAM, seed, Box::new(Fidelius::new())).unwrap();
    sys.plat.machine.set_fidelity(fidelity);
    sys
}

pub fn boot(sys: &mut System, seed: u64) -> DomainId {
    let mut owner = GuestOwner::new(seed);
    let image = owner.package_image(b"fidelity kernel", &sys.plat.firmware.pdh_public());
    boot_encrypted_guest(sys, &image, GUEST_PAGES).unwrap()
}

pub fn disk() -> Vec<u8> {
    vec![0u8; DISK_SECTORS as usize * SECTOR_SIZE]
}

/// One randomized ring window of one to four requests of up to two
/// buffer pages each (the eight-page window's capacity). About one in
/// eight runs off the end of the disk; sectors come from a small space,
/// so requests overlap within and across windows.
pub fn draw_window(rng: &mut Rng) -> Vec<BatchOp> {
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

/// Boot → SEV-API windows → forged grant → refused remap → dom0 CR4
/// write → migration → AES-NI windows on the destination → shutdown,
/// from `src` (built by [`protected`] with [`SEED`]) to `dst` (with
/// `SEED + 1`).
pub fn whole_stack(src: &mut System, dst: &mut System) -> Observed {
    let mut obs = Observed::default();
    let mut rng = Rng::new(SEED);
    let dom = boot(src, SEED);
    let heap = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);
    src.gpa_write(dom, heap, MARKER, true).unwrap();

    src.setup_block_device(dom, disk(), IoPath::SevApi, None).unwrap();
    drive_windows(src, dom, &mut rng, "sev-api", &mut obs);
    obs.disks.push(src.xen.backend(dom).unwrap().disk().to_vec());

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

    // dom0 writes CR4 through Fidelius's type-2 gate.
    let cr4 = src.guardian.exec_priv(&mut src.plat, PrivOp::WriteCr4(Cr4 { smep: true }));
    obs.step("dom0 mov-cr4", cr4);

    let package = migrate_out(src, dom, &dst.plat.firmware.pdh_public()).unwrap();
    let moved = migrate_in(dst, &package).unwrap();
    let mut back = vec![0u8; MARKER.len()];
    dst.gpa_read(moved, heap, &mut back, true).unwrap();
    assert_eq!(back, MARKER, "the guest must arrive intact");

    dst.setup_block_device(moved, disk(), IoPath::AesNi, Some([0x4B; 16])).unwrap();
    drive_windows(dst, moved, &mut rng, "aes-ni", &mut obs);
    obs.disks.push(dst.xen.backend(moved).unwrap().disk().to_vec());
    obs.step("shutdown", dst.shutdown_guest(moved));

    obs.finish(src);
    obs.finish(dst);
    obs
}
