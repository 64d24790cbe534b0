//! Differential proptest for the batched I/O datapath: under
//! `Fidelity::Fast` the multi-queue batched drain must be
//! *observationally identical* to the seed's one-request-at-a-time drain
//! that `Fidelity::Reference` runs. Identical here is strict — for
//! the same submitted request stream the two modes must produce
//! byte-identical per-request statuses and read payloads, byte-identical
//! disk images (ciphertext included), bit-identical modeled cycle
//! totals, and identical telemetry snapshots. The batching is a
//! simulator-speed optimization plus a submission amortization; it is
//! never allowed to change what the modeled machine does.
//!
//! A seeded xorshift generator stands in for a property-testing
//! framework: every case is reproducible from the fixed seeds, with no
//! external dependencies. The mixes deliberately include overlapping
//! sectors (read-after-write inside one window), cross-page sector runs,
//! and out-of-range requests (which must fail their own slot without
//! hurting their neighbours). The SEV-API path runs under both its
//! guardians: Fidelius's SEV commands and vanilla Xen's plain copy.

use fidelius::core::lifecycle::boot_encrypted_guest;
use fidelius::core::Fidelius;
use fidelius::crypto::modes::SECTOR_SIZE;
use fidelius::hw::cpu::Fidelity;
use fidelius::sev::GuestOwner;
use fidelius::xen::blkif::{BlkStatus, SECTORS_PER_PAGE};
use fidelius::xen::frontend::IoPath;
use fidelius::xen::system::{BatchOp, GuestConfig};
use fidelius::xen::{DomainId, System, Unprotected};

/// xorshift64* — deterministic pseudo-random stream for test inputs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Disk size for every differential system, in sectors. Kept small so
/// overlapping and out-of-range draws are frequent.
const DISK_SECTORS: u64 = 96;

/// The guardian a differential system runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Guard {
    /// An SEV-encrypted guest under Fidelius.
    Fidelius,
    /// A plain guest under vanilla Xen.
    Unprotected,
}

fn build(guard: Guard, path: IoPath, queues: u64) -> (System, DomainId) {
    let disk = vec![0u8; (DISK_SECTORS as usize) * SECTOR_SIZE];
    if path == IoPath::SevApi {
        assert_eq!(queues, 1, "SEV-API path is single-queue");
    }
    let (mut sys, dom) = if guard == Guard::Fidelius {
        let mut sys = System::new(32 * 1024 * 1024, 0xD1FF, Box::new(Fidelius::new())).unwrap();
        let mut owner = GuestOwner::new(0xD1FF);
        let image = owner.package_image(&[0x90], &sys.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut sys, &image, 192).unwrap();
        (sys, dom)
    } else {
        let mut sys = System::new(32 * 1024 * 1024, 0xD1FF, Box::new(Unprotected::new())).unwrap();
        let dom = sys
            .create_guest_mq(GuestConfig { mem_pages: 256, sev: false, kernel: vec![0x90] }, queues)
            .unwrap();
        (sys, dom)
    };
    let kblk = (path == IoPath::AesNi).then_some([0x4B; 16]);
    sys.setup_block_device(dom, disk, path, kblk).unwrap();
    (sys, dom)
}

/// Draws one randomized ring window. About one op in eight is
/// out-of-range (must fail its own slot only); sectors are drawn from a
/// small space so windows routinely overlap themselves and each other,
/// and about half the counts need a second buffer page. Four ops of at
/// most two pages fill the eight-page buffer window.
fn draw_window(rng: &mut Rng) -> Vec<BatchOp> {
    let ops = 1 + rng.below(4);
    (0..ops)
        .map(|_| {
            let count = 1 + rng.below(2 * SECTORS_PER_PAGE);
            let sector = if rng.below(8) == 0 {
                // Out of range: starts inside, runs off the end, or is
                // entirely past the disk.
                DISK_SECTORS - count / 2 + rng.below(16)
            } else {
                rng.below(DISK_SECTORS - count)
            };
            if rng.below(2) == 0 {
                let byte = rng.next() as u8;
                BatchOp::Write { sector, data: vec![byte; (count as usize) * SECTOR_SIZE] }
            } else {
                BatchOp::Read { sector, count }
            }
        })
        .collect()
}

/// Everything observable about one run, for exact comparison.
struct Observed {
    /// Per-window, per-request `(status, read payload)`.
    results: Vec<Vec<(BlkStatus, Option<Vec<u8>>)>>,
    /// The driver domain's full disk image (ciphertext under AES paths).
    disk: Vec<u8>,
    /// Modeled cycle total at the end of the run.
    cycles: f64,
    /// Rendered telemetry snapshot.
    telemetry: String,
}

/// Runs `windows` randomized ring windows from `seed` through `path`
/// under `fidelity`. The submitted stream is identical between modes
/// (same RNG, same windows, same queues) — only the internals differ.
fn run_mix(
    guard: Guard,
    path: IoPath,
    queues: u64,
    seed: u64,
    windows: u64,
    fidelity: Fidelity,
) -> Observed {
    let (mut sys, dom) = build(guard, path, queues);
    sys.plat.machine.set_fidelity(fidelity);
    let mut rng = Rng::new(seed);
    let mut results = Vec::new();
    for _ in 0..windows {
        let q = rng.below(queues);
        let ops = draw_window(&mut rng);
        results.push(sys.disk_batch(dom, q, &ops).unwrap());
    }
    Observed {
        results,
        disk: sys.xen.backend(dom).unwrap().disk().to_vec(),
        cycles: sys.plat.machine.cycles.total_f64(),
        telemetry: sys.plat.machine.telemetry_snapshot().to_json().to_string(),
    }
}

/// Runs the same seeded mix both ways and asserts exact equivalence.
fn assert_modes_identical(guard: Guard, path: IoPath, queues: u64, seed: u64, windows: u64) {
    let batched = run_mix(guard, path, queues, seed, windows, Fidelity::Fast);
    let oracle = run_mix(guard, path, queues, seed, windows, Fidelity::Reference);
    for (w, (b, o)) in batched.results.iter().zip(&oracle.results).enumerate() {
        assert_eq!(b, o, "{guard:?} {path:?} seed {seed} window {w}: statuses/payloads diverge");
    }
    assert_eq!(batched.results.len(), oracle.results.len());
    assert_eq!(batched.disk, oracle.disk, "{guard:?} {path:?} seed {seed}: disk images diverge");
    assert!(
        batched.cycles == oracle.cycles,
        "{guard:?} {path:?} seed {seed}: modeled cycles diverge (batched {} vs oracle {})",
        batched.cycles,
        oracle.cycles
    );
    assert_eq!(
        batched.telemetry, oracle.telemetry,
        "{guard:?} {path:?} seed {seed}: telemetry snapshots diverge"
    );
    // The mixes must actually exercise both outcomes.
    let statuses: Vec<BlkStatus> =
        batched.results.iter().flatten().map(|(status, _)| *status).collect();
    assert!(statuses.contains(&BlkStatus::Ok), "seed {seed} produced no successful request");
    assert!(statuses.contains(&BlkStatus::Error), "seed {seed} produced no failing request");
}

#[test]
fn plain_multi_queue_mix_matches_oracle() {
    for seed in [0xA11CE, 0xB0B, 0xC0FFEE, 0xD00D] {
        assert_modes_identical(Guard::Unprotected, IoPath::Plain, 3, seed, 12);
    }
}

#[test]
fn aesni_multi_queue_mix_matches_oracle() {
    for seed in [0xFEED, 0xFACE] {
        assert_modes_identical(Guard::Unprotected, IoPath::AesNi, 2, seed, 10);
    }
}

#[test]
fn sev_api_single_queue_mix_matches_oracle() {
    for seed in [0x5E7, 0x5EED] {
        assert_modes_identical(Guard::Fidelius, IoPath::SevApi, 1, seed, 8);
    }
}

/// The SEV-API path on a vanilla-Xen guest: `Unprotected`'s plain copy
/// over a run of sectors must charge exactly what runs of one charge.
#[test]
fn sev_api_unprotected_mix_matches_oracle() {
    for seed in [0x5E7, 0x5EED] {
        assert_modes_identical(Guard::Unprotected, IoPath::SevApi, 1, seed, 8);
    }
}

#[test]
fn single_queue_plain_mix_matches_oracle() {
    // The legacy shape: one queue, exactly the seed's window.
    assert_modes_identical(Guard::Unprotected, IoPath::Plain, 1, 0x1, 16);
}
