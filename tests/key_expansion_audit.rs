//! Key-expansion audit: steady-state streaming must not re-expand or
//! clone AES key schedules.
//!
//! PR 9 fixed the per-sector allocation in `Ctr128::apply_with`; the
//! backend-dispatch layer adds process-wide audit counters
//! (`fidelius_crypto::aes::key_expansions` / `schedule_clones`) so the
//! property is *pinned* instead of re-discovered by profiler. Key
//! expansion is allowed exactly at construction (one per `KeySchedule`,
//! regardless of backend — backend key forms derive from the single
//! expansion); the hot loops below must add zero expansions and zero
//! clones.
//!
//! The same holds for the SEV firmware's page and sector commands
//! (`SEND`/`RECEIVE_UPDATE_DATA`, the I/O helpers): they borrow the
//! schedules cached per firmware context.
//!
//! This file deliberately contains a single `#[test]`: the counters are
//! process-global, and Rust runs tests in one process with a shared
//! thread pool. An integration-test file gets its own process, and one
//! test in it gets deterministic counter deltas.

use fidelius::core::lifecycle::boot_encrypted_guest;
use fidelius::core::migrate::{migrate_in, migrate_out};
use fidelius::core::Fidelius;
use fidelius::crypto::aes::{key_expansions, schedule_clones, Aes128, AesBackend, KeySchedule};
use fidelius::crypto::modes::{Ctr128, PaTweakCipher, SectorCipher, SECTOR_SIZE};
use fidelius::sev::GuestOwner;
use fidelius::xen::blkif::BlkStatus;
use fidelius::xen::frontend::IoPath;
use fidelius::xen::system::BatchOp;
use fidelius::xen::System;

#[test]
fn streaming_paths_never_reexpand_or_clone_schedules() {
    // --- Construction: each context expands exactly once. -----------------
    let base_expansions = key_expansions();
    let sector = SectorCipher::new(&[0x51u8; 16]);
    let disk = Aes128::new(&[0x52u8; 16]);
    let tweak = PaTweakCipher::new(&[0x53u8; 16]);
    let constructed = key_expansions() - base_expansions;
    // SectorCipher/PaTweakCipher may hold one or two internal schedules,
    // but construction cost must be a small constant, not data-dependent.
    assert!(
        (3..=6).contains(&constructed),
        "construction expanded {constructed} schedules; expected one-ish per context"
    );

    // Backend-pinned construction also expands exactly once per schedule:
    // the AES-NI byte keys derive from the one expansion rather than
    // re-running it.
    let before = key_expansions();
    for backend in AesBackend::ALL.into_iter().filter(|b| b.available()) {
        let _ks = KeySchedule::with_backend(&[0x54u8; 16], backend).unwrap();
    }
    let per_backend = key_expansions() - before;
    let n_backends = AesBackend::ALL.iter().filter(|b| b.available()).count() as u64;
    assert_eq!(per_backend, n_backends, "pinning a backend must not cost extra expansions");

    // --- Steady state: stream megabytes, expect zero. ---------------------
    let expansions_before = key_expansions();
    let clones_before = schedule_clones();

    let mut sectors = vec![0xA7u8; SECTOR_SIZE * 64];
    for first in 0..32u64 {
        sector.encrypt_sectors(first * 64, &mut sectors);
        sector.decrypt_sectors(first * 64, &mut sectors);
    }

    let mut stream = vec![0x19u8; 4096];
    for nonce in 0..256u64 {
        Ctr128::apply_with(&disk, nonce, 0, &mut stream);
    }

    let mut pages = vec![0x3Cu8; 4096];
    for page in 0..256u64 {
        tweak.encrypt_blocks(page << 12, &mut pages);
        tweak.decrypt_blocks(page << 12, &mut pages);
    }

    assert_eq!(
        key_expansions() - expansions_before,
        0,
        "steady-state streaming re-expanded a key schedule"
    );
    assert_eq!(
        schedule_clones() - clones_before,
        0,
        "steady-state streaming cloned a key schedule"
    );

    // --- Firmware page and sector commands borrow the cached schedules. ---
    // Each firmware context expands its `Kvek`/`Ktek` schedules once, on
    // its first page or sector command; the commands themselves must not
    // clone or re-expand. Two round trips of guests with different page
    // counts therefore cost the same number of expansions.
    const DRAM: u64 = 32 * 1024 * 1024;
    let mut src = System::new(DRAM, 0xA0D1, Box::new(Fidelius::new())).unwrap();
    let mut dst = System::new(DRAM, 0xA0D2, Box::new(Fidelius::new())).unwrap();
    let mut round_trip = |mem_pages: u64| {
        let mut owner = GuestOwner::new(mem_pages);
        let image = owner.package_image(b"audit kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, mem_pages).unwrap();
        src.ensure_host().unwrap();
        let (expansions, clones) = (key_expansions(), schedule_clones());
        let package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();
        assert_eq!(package.pages.len() as u64, mem_pages);
        migrate_in(&mut dst, &package).unwrap();
        (key_expansions() - expansions, schedule_clones() - clones)
    };
    let (small_expansions, small_clones) = round_trip(192);
    let (large_expansions, large_clones) = round_trip(256);
    assert_eq!(small_clones, 0, "a 192-page round trip cloned a key schedule");
    assert_eq!(large_clones, 0, "a 256-page round trip cloned a key schedule");
    assert_eq!(
        small_expansions, large_expansions,
        "migration key expansions grew with the page count (192 vs 256 pages)"
    );

    // One SEV-API `disk_batch` window after a warm-up window (which builds
    // the I/O helpers' schedules): zero expansions, zero clones.
    let mut owner = GuestOwner::new(0xA0D3);
    let image = owner.package_image(b"audit kernel", &src.plat.firmware.pdh_public());
    let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
    src.setup_block_device(dom, vec![0u8; 64 * SECTOR_SIZE], IoPath::SevApi, None).unwrap();
    let window = [
        BatchOp::Write { sector: 0, data: vec![0x5Au8; 8 * SECTOR_SIZE] },
        BatchOp::Read { sector: 0, count: 8 },
        BatchOp::Write { sector: 24, data: vec![0xA5u8; 2 * SECTOR_SIZE] },
    ];
    src.disk_batch(dom, 0, &window).unwrap();
    let (expansions, clones) = (key_expansions(), schedule_clones());
    let results = src.disk_batch(dom, 0, &window).unwrap();
    assert!(results.iter().all(|(status, _)| *status == BlkStatus::Ok), "{results:?}");
    assert_eq!(results[1].1.as_deref(), Some(&[0x5Au8; 8 * SECTOR_SIZE][..]));
    assert_eq!(key_expansions() - expansions, 0, "a SEV-API disk window re-expanded a schedule");
    assert_eq!(schedule_clones() - clones, 0, "a SEV-API disk window cloned a key schedule");
}
