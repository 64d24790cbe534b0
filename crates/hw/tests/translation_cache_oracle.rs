//! Differential oracle for the translation cache.
//!
//! Two identical machines run the same randomized stream of guest/host
//! accesses interleaved with page-table edits, demotions, `invlpg`s and
//! ASID flushes. One machine serves valid TLB hits from the cached
//! payload; the other runs under `Fidelity::Reference` and re-walks every
//! access (the seed's behaviour). Everything observable must stay
//! bit-identical: read data, fault values, modeled cycles (f64-exact),
//! TLB hit/miss/eviction/walk counters, and the full DRAM image.
//!
//! Deliberately *not* compared: crypto byte metrics. A cached
//! guest-virtual hit legitimately skips the stage-1 table reads through
//! the guest key, so the engines see less traffic — that is the
//! optimisation, not a bug; cycles are unaffected because table reads
//! never charged cycles (only the per-access `charge_engine` on data
//! does, and that is identical on both paths).

use fidelius_hw::cpu::{Fidelity, Machine, PrivOp};
use fidelius_hw::error::{AccessKind, FaultReason};
use fidelius_hw::mem::FrameAllocator;
use fidelius_hw::memctrl::EncSel;
use fidelius_hw::paging::{
    Mapper, OffsetPtAccess, PhysPtAccess, PtAccess, Pte, PTE_C_BIT, PTE_PRESENT, PTE_WRITABLE,
};
use fidelius_hw::regs::{Cr0, Efer};
use fidelius_hw::tlb::{Space, TlbCounters};
use fidelius_hw::vmcb::{ExitCode, VmcbField, VmcbImage};
use fidelius_hw::{Asid, Fault, Gpa, Gva, Hpa, Hva, PAGE_SIZE};

const MEM: u64 = 1024 * PAGE_SIZE; // 4 MiB
const ASID: u16 = 3;
const GUEST_BASE: Hpa = Hpa(0x10_0000);
const GUEST_PAGES: u64 = 64;

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 11
}

/// Builds the same guest machine the hw unit tests use: host identity map
/// of the first 256 pages, NPT mapping GPA 0..64 pages to 1 MiB, guest
/// page tables mapping GVA 0x7000 (C-bit) and 0x8000 (shared) identity.
fn guest_machine(sev: bool) -> (Machine, Mapper, Gpa) {
    let mut m = Machine::new(MEM);
    let mut alloc = FrameAllocator::new(Hpa(512 * PAGE_SIZE), 256);
    let host_mapper = {
        let mut acc = PhysPtAccess::new(&mut m.mc, EncSel::None);
        let mapper = Mapper::create(&mut acc, &mut alloc).unwrap();
        mapper.map_range(&mut acc, &mut alloc, 0, Hpa(0), 256, PTE_WRITABLE).unwrap();
        mapper
    };
    m.cpu.cr3 = host_mapper.root();
    m.cpu.cr0 = Cr0::enabled();
    m.cpu.efer = Efer { nxe: true, svme: true };

    let asid = Asid(ASID);
    if sev {
        m.mc.install_guest_key(asid, &[0x33; 16]);
    }
    let npt = {
        let mut acc = PhysPtAccess::new(&mut m.mc, EncSel::None);
        let npt = Mapper::create(&mut acc, &mut alloc).unwrap();
        npt.map_range(&mut acc, &mut alloc, 0, GUEST_BASE, GUEST_PAGES, PTE_WRITABLE).unwrap();
        npt
    };
    let table_enc = if sev { EncSel::Guest(asid) } else { EncSel::None };
    let gcr3_gpa;
    {
        let mut galloc = FrameAllocator::new(Hpa(0x10000), 16);
        let mut acc = OffsetPtAccess::new(&mut m.mc, GUEST_BASE, table_enc);
        let gpt = Mapper::create(&mut acc, &mut galloc).unwrap();
        gpt.map(&mut acc, &mut galloc, 0x7000, Hpa(0x7000), PTE_WRITABLE | PTE_C_BIT).unwrap();
        gpt.map(&mut acc, &mut galloc, 0x8000, Hpa(0x8000), PTE_WRITABLE).unwrap();
        gcr3_gpa = gpt.root().0;
    }
    let vmcb_pa = Hpa(0xF000);
    let mut img = VmcbImage::new();
    img.set(VmcbField::Asid, asid.0 as u64)
        .set(VmcbField::SevEnable, u64::from(sev))
        .set(VmcbField::NCr3, npt.root().0)
        .set(VmcbField::Cr3, gcr3_gpa)
        .set(VmcbField::Rip, 0x1000)
        .set(VmcbField::Cr0, Cr0::enabled().to_bits());
    img.store(&mut m.mc, vmcb_pa).unwrap();
    m.host_write(Hva(0x2100), &[0x0F, 0x01, 0xD8]).unwrap();
    m.exec_priv(Hva(0x2100), PrivOp::Vmrun(vmcb_pa)).unwrap();
    (m, npt, Gpa(gcr3_gpa))
}

/// The NPT leaf entry addresses for guest pages 0..GUEST_PAGES, so the
/// test can edit mappings the way the hypervisor does.
fn npt_leaf_pas(m: &mut Machine, npt: &Mapper) -> Vec<Hpa> {
    let mut acc = PhysPtAccess::new(&mut m.mc, EncSel::None);
    (0..GUEST_PAGES).map(|p| npt.leaf_entry_pa(&mut acc, p * PAGE_SIZE).unwrap().unwrap()).collect()
}

fn assert_observables_equal(cached: &Machine, oracle: &Machine, ctx: &str) {
    assert_eq!(
        cached.cycles.breakdown(),
        oracle.cycles.breakdown(),
        "{ctx}: modeled cycles diverged"
    );
    assert_eq!(cached.tlb.counters(), oracle.tlb.counters(), "{ctx}: TLB counters diverged");
    let mut a = vec![0u8; PAGE_SIZE as usize];
    let mut b = vec![0u8; PAGE_SIZE as usize];
    for page in 0..(MEM / PAGE_SIZE) {
        cached.mc.dram().read_raw(Hpa(page * PAGE_SIZE), &mut a).unwrap();
        oracle.mc.dram().read_raw(Hpa(page * PAGE_SIZE), &mut b).unwrap();
        assert_eq!(a, b, "{ctx}: DRAM diverged in page {page}");
    }
}

/// Applies the same NPT leaf edit to both machines, followed by the same
/// invalidation the hypervisor performs: an ASID-wide demotion, because
/// guest-virtual entries caching the edited leaf's result are keyed by
/// guest-virtual page and cannot be named by the GPA — see
/// `Hypervisor::npt_map`.
fn npt_edit(machines: &mut [&mut Machine; 2], leaf_pas: &[Hpa], page: u64, value: Pte) {
    for m in machines.iter_mut() {
        m.mc.write_u64(leaf_pas[page as usize], value.0, EncSel::None).unwrap();
        m.tlb.demote_space(Space::Guest(ASID));
    }
}

/// Random guest-physical reads/writes vs. NPT remaps, permission
/// downgrades, C-bit flips, demotions and flushes. Run for both SEV and
/// non-SEV guests.
#[test]
fn gpa_stream_matches_walk_oracle() {
    for sev in [false, true] {
        for seed in 1..=4u64 {
            let (mut cached, npt, _) = guest_machine(sev);
            let (mut oracle, _, _) = guest_machine(sev);
            oracle.set_fidelity(Fidelity::Reference);
            assert_eq!(
                (oracle.fidelity(), cached.fidelity()),
                (Fidelity::Reference, Fidelity::Fast)
            );
            let leaf_pas = npt_leaf_pas(&mut cached, &npt);

            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(sev);
            // Track per-page flags so edits cycle through valid states.
            let mut writable = [true; GUEST_PAGES as usize];
            let mut cbit = [false; GUEST_PAGES as usize];
            for step in 0..1500 {
                let ctx = format!("sev={sev} seed={seed} step={step}");
                let op = lcg(&mut rng) % 16;
                match op {
                    0..=5 => {
                        // Read, possibly crossing pages and the 64-page end.
                        let gpa = Gpa(lcg(&mut rng) % ((GUEST_PAGES + 2) * PAGE_SIZE));
                        let len = (lcg(&mut rng) % 300 + 1) as usize;
                        let enc = lcg(&mut rng).is_multiple_of(2);
                        let mut ba = vec![0u8; len];
                        let mut bb = vec![0u8; len];
                        let ra = cached.guest_read_gpa(gpa, &mut ba, enc);
                        let rb = oracle.guest_read_gpa(gpa, &mut bb, enc);
                        assert_eq!(ra, rb, "{ctx}: read fault diverged");
                        assert_eq!(ba, bb, "{ctx}: read data diverged");
                    }
                    6..=11 => {
                        let gpa = Gpa(lcg(&mut rng) % ((GUEST_PAGES + 2) * PAGE_SIZE));
                        let len = (lcg(&mut rng) % 300 + 1) as usize;
                        let enc = lcg(&mut rng).is_multiple_of(2);
                        let fill = lcg(&mut rng) as u8;
                        let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                        let ra = cached.guest_write_gpa(gpa, &data, enc);
                        let rb = oracle.guest_write_gpa(gpa, &data, enc);
                        assert_eq!(ra, rb, "{ctx}: write fault diverged");
                    }
                    12..=13 => {
                        // NPT edit: remap, permission downgrade/restore, or
                        // C-bit flip, with the hypervisor's demotion.
                        let page = lcg(&mut rng) % GUEST_PAGES;
                        let i = page as usize;
                        let frame = match lcg(&mut rng) % 4 {
                            0 => {
                                // Remap to a rotated frame (aliasing is fine).
                                GUEST_BASE.add(((page + 13) % GUEST_PAGES) * PAGE_SIZE)
                            }
                            _ => GUEST_BASE.add(page * PAGE_SIZE),
                        };
                        match lcg(&mut rng) % 3 {
                            0 => writable[i] = !writable[i],
                            1 => cbit[i] = !cbit[i],
                            _ => {}
                        }
                        let mut flags = PTE_PRESENT;
                        if writable[i] {
                            flags |= PTE_WRITABLE;
                        }
                        if cbit[i] {
                            flags |= PTE_C_BIT;
                        }
                        npt_edit(
                            &mut [&mut cached, &mut oracle],
                            &leaf_pas,
                            page,
                            Pte::new(frame, flags),
                        );
                    }
                    14 => {
                        // ASID flush or space-wide demotion.
                        if lcg(&mut rng).is_multiple_of(2) {
                            cached.tlb.flush_space(Space::Guest(ASID));
                            oracle.tlb.flush_space(Space::Guest(ASID));
                        } else {
                            cached.tlb.demote_space(Space::Guest(ASID));
                            oracle.tlb.demote_space(Space::Guest(ASID));
                        }
                    }
                    _ => {
                        // invlpg or a precise demotion of one guest page.
                        let page = lcg(&mut rng) % (GUEST_PAGES + 2);
                        if lcg(&mut rng).is_multiple_of(2) {
                            cached.tlb.flush_page(Space::Guest(ASID), page);
                            oracle.tlb.flush_page(Space::Guest(ASID), page);
                        } else {
                            cached.tlb.demote_page(Space::Guest(ASID), page);
                            oracle.tlb.demote_page(Space::Guest(ASID), page);
                        }
                    }
                }
            }
            assert_observables_equal(&cached, &oracle, &format!("sev={sev} seed={seed} end"));
        }
    }
}

/// Remap-storm regression for the SEVered-style surface: bursts of
/// `npt_map`/`npt_unmap`-shaped leaf edits — map, unmap (leaf cleared)
/// and remap onto another guest frame, each followed by the ASID-wide
/// demotion `Hypervisor::npt_map`/`npt_unmap` perform — interleaved with
/// the guest *streaming* sequential reads through its pages, the way the
/// blkif frontend serves its buffer while the adversary edits the NPT
/// underneath it. The cached machine must stay bit-identical to the
/// walk-every-access oracle: a stale cached translation surviving an
/// unmap would keep serving a revoked frame — a security bug, not a
/// perf bug.
#[test]
fn npt_storm_stream_matches_walk_oracle() {
    for sev in [false, true] {
        for seed in 1..=6u64 {
            let (mut cached, npt, _) = guest_machine(sev);
            let (mut oracle, _, _) = guest_machine(sev);
            oracle.set_fidelity(Fidelity::Reference);
            let leaf_pas = npt_leaf_pas(&mut cached, &npt);

            let mut rng = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ u64::from(sev);
            for round in 0..60 {
                // Storm: a back-to-back burst of leaf edits.
                let burst = 1 + lcg(&mut rng) % 8;
                for _ in 0..burst {
                    let page = lcg(&mut rng) % GUEST_PAGES;
                    let value = match lcg(&mut rng) % 4 {
                        // npt_unmap: the leaf is cleared outright.
                        0 => Pte(0),
                        // Remap onto a rotated frame (what SEVered does).
                        1 => Pte::new(
                            GUEST_BASE.add(((page + 29) % GUEST_PAGES) * PAGE_SIZE),
                            PTE_PRESENT | PTE_WRITABLE,
                        ),
                        // (Re-)map in place — possibly resurrecting an
                        // unmapped page.
                        _ => Pte::new(GUEST_BASE.add(page * PAGE_SIZE), PTE_PRESENT | PTE_WRITABLE),
                    };
                    npt_edit(&mut [&mut cached, &mut oracle], &leaf_pas, page, value);
                }

                // The guest streams: sequential page-by-page reads, with
                // the window wrapping past the mapped end for fault
                // parity on unmapped GPAs.
                let start = lcg(&mut rng) % GUEST_PAGES;
                let span_pages = 1 + lcg(&mut rng) % 6;
                let enc = lcg(&mut rng).is_multiple_of(2);
                for p in 0..span_pages {
                    let ctx = format!("sev={sev} seed={seed} round={round} p={p}");
                    let gpa = Gpa(((start + p) % (GUEST_PAGES + 1)) * PAGE_SIZE);
                    let mut ba = [0u8; 256];
                    let mut bb = [0u8; 256];
                    let ra = cached.guest_read_gpa(gpa, &mut ba, enc);
                    let rb = oracle.guest_read_gpa(gpa, &mut bb, enc);
                    assert_eq!(ra, rb, "{ctx}: streamed read fault diverged");
                    assert_eq!(ba, bb, "{ctx}: streamed read data diverged");
                }

                // Occasional write mixed into the stream.
                if lcg(&mut rng).is_multiple_of(3) {
                    let gpa = Gpa((lcg(&mut rng) % GUEST_PAGES) * PAGE_SIZE + lcg(&mut rng) % 64);
                    let fill = lcg(&mut rng) as u8;
                    let data: Vec<u8> = (0..128).map(|i| fill.wrapping_add(i as u8)).collect();
                    let ra = cached.guest_write_gpa(gpa, &data, sev);
                    let rb = oracle.guest_write_gpa(gpa, &data, sev);
                    assert_eq!(
                        ra, rb,
                        "sev={sev} seed={seed} round={round}: streamed write fault diverged"
                    );
                }
            }
            assert_observables_equal(&cached, &oracle, &format!("sev={sev} seed={seed} storm end"));
        }
    }
}

/// Random guest-virtual reads/writes (two-stage translation) vs. stage-1
/// permission downgrades (+`invlpg`, as the architecture requires) and
/// stage-2 edits (+ASID-wide demotion, as the hypervisor performs).
#[test]
fn gva_stream_matches_walk_oracle() {
    for sev in [false, true] {
        for seed in 1..=4u64 {
            let (mut cached, npt, gcr3) = guest_machine(sev);
            let (mut oracle, _, _) = guest_machine(sev);
            oracle.set_fidelity(Fidelity::Reference);
            let leaf_pas = npt_leaf_pas(&mut cached, &npt);
            let table_enc = if sev { EncSel::Guest(Asid(ASID)) } else { EncSel::None };
            // Locate the guest's stage-1 leaf entries for the two mapped
            // pages (entry addresses are in guest-physical terms).
            let stage1_leaf = |m: &mut Machine, va: u64| -> Hpa {
                let mut acc = OffsetPtAccess::new(&mut m.mc, GUEST_BASE, table_enc);
                Mapper::from_root(Hpa(gcr3.0)).leaf_entry_pa(&mut acc, va).unwrap().unwrap()
            };
            let leaf_7 = stage1_leaf(&mut cached, 0x7000);
            let leaf_8 = stage1_leaf(&mut cached, 0x8000);

            let mut rng = seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ u64::from(sev);
            let mut s1_writable = [true, true]; // pages 0x7000, 0x8000
            for step in 0..800 {
                let ctx = format!("sev={sev} seed={seed} step={step}");
                match lcg(&mut rng) % 12 {
                    0..=4 => {
                        // Read around the mapped window, crossing into
                        // unmapped GVAs for fault parity.
                        let va = Gva(0x6800 + lcg(&mut rng) % 0x3000);
                        let len = (lcg(&mut rng) % 200 + 1) as usize;
                        let mut ba = vec![0u8; len];
                        let mut bb = vec![0u8; len];
                        let ra = cached.guest_read(va, &mut ba);
                        let rb = oracle.guest_read(va, &mut bb);
                        assert_eq!(ra, rb, "{ctx}: read fault diverged");
                        assert_eq!(ba, bb, "{ctx}: read data diverged");
                    }
                    5..=8 => {
                        let va = Gva(0x6800 + lcg(&mut rng) % 0x3000);
                        let len = (lcg(&mut rng) % 200 + 1) as usize;
                        let fill = lcg(&mut rng) as u8;
                        let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                        let ra = cached.guest_write(va, &data);
                        let rb = oracle.guest_write(va, &data);
                        assert_eq!(ra, rb, "{ctx}: write fault diverged");
                    }
                    9 => {
                        // Stage-1 permission downgrade/restore + invlpg: the
                        // guest edits its own tables and, as on hardware,
                        // must flush the affected page itself.
                        let (idx, leaf, gpa_target) = if lcg(&mut rng).is_multiple_of(2) {
                            (0usize, leaf_7, 0x7000u64)
                        } else {
                            (1usize, leaf_8, 0x8000u64)
                        };
                        s1_writable[idx] = !s1_writable[idx];
                        let mut flags = PTE_PRESENT;
                        if s1_writable[idx] {
                            flags |= PTE_WRITABLE;
                        }
                        if idx == 0 {
                            flags |= PTE_C_BIT;
                        }
                        let value = Pte::new(Hpa(gpa_target), flags);
                        for m in [&mut cached, &mut oracle] {
                            let mut acc = OffsetPtAccess::new(&mut m.mc, GUEST_BASE, table_enc);
                            acc.write_entry(leaf, value.0).unwrap();
                            m.tlb.flush_page(Space::Guest(ASID), gpa_target / PAGE_SIZE);
                        }
                    }
                    10 => {
                        // Stage-2 edit of one of the data pages, followed by
                        // an ASID-wide demotion: a GVA entry is keyed by the
                        // guest-virtual page, so a GPA-keyed demotion cannot
                        // name it — the hypervisor invalidates the ASID.
                        let page = 7 + lcg(&mut rng) % 2;
                        let flags = if lcg(&mut rng).is_multiple_of(2) {
                            PTE_PRESENT | PTE_WRITABLE
                        } else {
                            PTE_PRESENT
                        };
                        let value = Pte::new(GUEST_BASE.add(page * PAGE_SIZE), flags);
                        for m in [&mut cached, &mut oracle] {
                            m.mc.write_u64(leaf_pas[page as usize], value.0, EncSel::None).unwrap();
                            m.tlb.demote_space(Space::Guest(ASID));
                        }
                    }
                    _ => {
                        for m in [&mut cached, &mut oracle] {
                            m.tlb.flush_space(Space::Guest(ASID));
                        }
                    }
                }
            }
            assert_eq!(
                cached.cycles.breakdown(),
                oracle.cycles.breakdown(),
                "sev={sev} seed={seed}: cycles diverged"
            );
            assert_eq!(
                cached.tlb.counters(),
                oracle.tlb.counters(),
                "sev={sev} seed={seed}: TLB counters diverged"
            );
            // DRAM equality is deliberately skipped here: the cached path's
            // whole point is eliding stage-1 table re-reads, and table reads
            // do not write DRAM anyway — data writes go through the same
            // engine on both machines, which the GPA test already proves.
            assert_observables_equal(&cached, &oracle, &format!("sev={sev} seed={seed} end"));
        }
    }
}

/// A multi-page guest write whose *earlier* bytes rewrite a guest
/// page-table entry that a *later* page's walk (TLB miss) must read in
/// the same call. Span coalescing must commit the pending run before any
/// software walk — otherwise the walk sees pre-write table contents and
/// the tail of the write lands in the old frame, diverging from the
/// walk-every-access oracle.
#[test]
fn self_referential_write_commits_before_walk() {
    let (mut cached, _npt, gcr3) = guest_machine(false);
    let (mut oracle, _, _) = guest_machine(false);
    oracle.set_fidelity(Fidelity::Reference);

    // The stage-1 leaf table page T (guest-physical) covering GVAs below
    // 2 MiB — shared by every mapping this harness creates.
    let t_gpa = {
        let mut acc = OffsetPtAccess::new(&mut cached.mc, GUEST_BASE, EncSel::None);
        let leaf = Mapper::from_root(Hpa(gcr3.0)).leaf_entry_pa(&mut acc, 0x8000).unwrap().unwrap();
        leaf.0 & !(PAGE_SIZE - 1)
    };

    // Page A (GVA 0x1FE000) maps T itself; page B (GVA 0x1FF000, the
    // virtually next page, leaf index 511 — i.e. the *last* 8 bytes of T)
    // initially maps the shared page at GPA 0x8000. The existing leaf
    // table covers both VAs, so the allocator is never consulted.
    for m in [&mut cached, &mut oracle] {
        let mut galloc = FrameAllocator::new(Hpa(0x1C000), 1);
        let mut acc = OffsetPtAccess::new(&mut m.mc, GUEST_BASE, EncSel::None);
        let gpt = Mapper::from_root(Hpa(gcr3.0));
        gpt.map(&mut acc, &mut galloc, 0x1FE000, Hpa(t_gpa), PTE_WRITABLE).unwrap();
        gpt.map(&mut acc, &mut galloc, 0x1FF000, Hpa(0x8000), PTE_WRITABLE).unwrap();
    }

    // Warm A's translation so the cached machine opens a coalesced span
    // over it; B stays uncached so its translation mid-write must walk.
    for m in [&mut cached, &mut oracle] {
        let mut scratch = [0u8; 8];
        m.guest_read(Gva(0x1FE000), &mut scratch).unwrap();
    }

    // One write spanning A's last 8 bytes (= T's entry for B, remapping
    // B to GPA 0x7000) and continuing into B. The walk for B must see
    // the just-written entry, so the tail lands in the *new* frame.
    let new_pte = Pte::new(Hpa(0x7000), PTE_PRESENT | PTE_WRITABLE);
    let mut data = new_pte.0.to_le_bytes().to_vec();
    data.extend_from_slice(&[0xAB; 16]);
    let va = Gva(0x1FE000 + (PAGE_SIZE - 8));
    let ra = cached.guest_write(va, &data);
    let rb = oracle.guest_write(va, &data);
    assert_eq!(ra, rb, "write fault diverged");

    let mut got = [0u8; 16];
    cached.mc.dram().read_raw(GUEST_BASE.add(0x7000), &mut got).unwrap();
    assert_eq!(got, [0xAB; 16], "tail of the write must land in the remapped frame");
    assert_observables_equal(&cached, &oracle, "self-referential write");
}

/// Host-virtual accesses, per page and streamed (the coalescing loop every
/// blkif drain takes), vs. host page-table edits (with the guardian's
/// demotion), CR0.WP toggles *without* any flush, and `invlpg`.
#[test]
fn host_stream_matches_walk_oracle() {
    for seed in 1..=4u64 {
        let (mut cached, _npt, _) = guest_machine(false);
        let (mut oracle, _, _) = guest_machine(false);
        oracle.set_fidelity(Fidelity::Reference);
        // Leave guest mode: host accesses assert host mode.
        for m in [&mut cached, &mut oracle] {
            m.vmexit(ExitCode::Hlt, 0, 0).unwrap();
        }
        let host_root = cached.cpu.cr3;
        let leaf_of = |m: &mut Machine, va: u64| -> Hpa {
            let mut acc = PhysPtAccess::new(&mut m.mc, EncSel::None);
            Mapper::from_root(host_root).leaf_entry_pa(&mut acc, va).unwrap().unwrap()
        };
        // Edit window: pages 32..40 (clear of code, tables and the VMCB).
        let leaves: Vec<Hpa> = (32..40).map(|p| leaf_of(&mut cached, p * PAGE_SIZE)).collect();

        let mut rng = seed.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut writable = [true; 8];
        for step in 0..1200 {
            let ctx = format!("seed={seed} step={step}");
            match lcg(&mut rng) % 14 {
                0..=4 => {
                    let va = Hva(32 * PAGE_SIZE + lcg(&mut rng) % (8 * PAGE_SIZE));
                    let len = (lcg(&mut rng) % 200 + 1) as usize;
                    let mut ba = vec![0u8; len];
                    let mut bb = vec![0u8; len];
                    let ra = cached.host_read(va, &mut ba);
                    let rb = oracle.host_read(va, &mut bb);
                    assert_eq!(ra, rb, "{ctx}: read fault diverged");
                    assert_eq!(ba, bb, "{ctx}: read data diverged");
                }
                5..=8 => {
                    let va = Hva(32 * PAGE_SIZE + lcg(&mut rng) % (8 * PAGE_SIZE));
                    let len = (lcg(&mut rng) % 200 + 1) as usize;
                    let fill = lcg(&mut rng) as u8;
                    let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    let ra = cached.host_write(va, &data);
                    let rb = oracle.host_write(va, &data);
                    assert_eq!(ra, rb, "{ctx}: write fault diverged");
                }
                9 => {
                    // Host PT permission edit + the guardian's demotion
                    // (see `Fidelius::set_dm_entry`).
                    let i = (lcg(&mut rng) % 8) as usize;
                    writable[i] = !writable[i];
                    let mut flags = PTE_PRESENT;
                    if writable[i] {
                        flags |= PTE_WRITABLE;
                    }
                    let value = Pte::new(Hpa((32 + i as u64) * PAGE_SIZE), flags);
                    for m in [&mut cached, &mut oracle] {
                        m.mc.write_u64(leaves[i], value.0, EncSel::None).unwrap();
                        m.tlb.demote_page(Space::Host, 32 + i as u64);
                    }
                }
                10 => {
                    // CR0.WP toggles with *no* flush: cached permissions are
                    // stored raw and judged at access time, so a cached
                    // read-only entry must fault exactly when WP is set.
                    let wp = lcg(&mut rng).is_multiple_of(2);
                    cached.cpu.cr0.wp = wp;
                    oracle.cpu.cr0.wp = wp;
                }
                11 => {
                    let page = 32 + lcg(&mut rng) % 8;
                    for m in [&mut cached, &mut oracle] {
                        m.tlb.flush_page(Space::Host, page);
                    }
                }
                op => {
                    // A streamed read or write of up to two pages, cut into
                    // chunks the way blkif cuts sectors and segments.
                    let va = Hva(32 * PAGE_SIZE + lcg(&mut rng) % (8 * PAGE_SIZE));
                    let len = (lcg(&mut rng) % (2 * PAGE_SIZE) + 1) as usize;
                    let chunk = [1, 8, 512, 4096][(lcg(&mut rng) % 4) as usize];
                    if op == 12 {
                        let mut ba = vec![0u8; len];
                        let mut bb = vec![0u8; len];
                        let ra = cached.host_read_stream(va, &mut ba, chunk);
                        let rb = oracle.host_read_stream(va, &mut bb, chunk);
                        assert_eq!(ra, rb, "{ctx}: stream read fault diverged");
                        assert_eq!(ba, bb, "{ctx}: stream read data diverged");
                    } else {
                        let fill = lcg(&mut rng) as u8;
                        let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                        let ra = cached.host_write_stream(va, &data, chunk);
                        let rb = oracle.host_write_stream(va, &data, chunk);
                        assert_eq!(ra, rb, "{ctx}: stream write fault diverged");
                    }
                }
            }
        }
        assert_observables_equal(&cached, &oracle, &format!("seed={seed} end"));
    }
}

/// The TLB counters and the modeled total after a run, for pinning.
fn tlb_and_cycles(m: &Machine) -> (TlbCounters, f64) {
    (m.tlb.counters(), m.cycles.total_f64())
}

/// A walk that faults inserts nothing, so the next access to the same page
/// misses and walks again. The differential tests above cannot see this:
/// both of their machines share the one TLB path, so an insert before the
/// permission check would move both alike. The values are pinned instead,
/// and each case would count one miss, one walk and its refill cost fewer
/// if the faulting walk had left an entry behind.
#[test]
fn faulting_walk_inserts_nothing() {
    let read_only = |page: u64| Pte::new(GUEST_BASE.add(page * PAGE_SIZE), PTE_PRESENT);
    let counters = |misses, walks| TlbCounters { hits: 1, misses, evictions: 0, walks };

    // Guest physical: page 8's NPT leaf made read-only, with the
    // hypervisor's demotion.
    let (mut m, npt, _) = guest_machine(false);
    let leaf_pas = npt_leaf_pas(&mut m, &npt);
    m.mc.write_u64(leaf_pas[8], read_only(8).0, EncSel::None).unwrap();
    m.tlb.demote_space(Space::Guest(ASID));
    let nested = |access| Fault::NestedPageFault {
        gpa: Gpa(0x8000),
        access,
        reason: FaultReason::WriteProtected,
    };
    assert_eq!(m.guest_write_gpa(Gpa(0x8000), &[1; 16], false), Err(nested(AccessKind::Write)));
    m.guest_read_gpa(Gpa(0x8000), &mut [0; 16], false).unwrap();
    assert_eq!(tlb_and_cycles(&m), (counters(3, 3), 1144.0), "guest-physical");

    // Guest virtual: the same stage-2 fault through the two-stage walk.
    let (mut m, npt, _) = guest_machine(false);
    let leaf_pas = npt_leaf_pas(&mut m, &npt);
    m.mc.write_u64(leaf_pas[8], read_only(8).0, EncSel::None).unwrap();
    m.tlb.demote_space(Space::Guest(ASID));
    assert_eq!(m.guest_write(Gva(0x8000), &[1; 16]), Err(nested(AccessKind::Write)));
    m.guest_read(Gva(0x8000), &mut [0; 16]).unwrap();
    assert_eq!(tlb_and_cycles(&m), (counters(3, 5), 1264.0), "guest-virtual");

    // Host: a read-only host page with CR0.WP set.
    let (mut m, _npt, _) = guest_machine(false);
    m.vmexit(ExitCode::Hlt, 0, 0).unwrap();
    assert!(m.cpu.cr0.wp);
    let leaf = {
        let mut acc = PhysPtAccess::new(&mut m.mc, EncSel::None);
        Mapper::from_root(m.cpu.cr3).leaf_entry_pa(&mut acc, 33 * PAGE_SIZE).unwrap().unwrap()
    };
    m.mc.write_u64(leaf, Pte::new(Hpa(33 * PAGE_SIZE), PTE_PRESENT).0, EncSel::None).unwrap();
    m.tlb.demote_page(Space::Host, 33);
    let va = Hva(33 * PAGE_SIZE);
    assert_eq!(
        m.host_write(va, &[1; 16]),
        Err(Fault::HostPageFault {
            va,
            access: AccessKind::Write,
            reason: FaultReason::WriteProtected
        })
    );
    m.host_read(va, &mut [0; 16]).unwrap();
    assert_eq!(tlb_and_cycles(&m), (counters(3, 3), 2284.0), "host");
}
