//! Frame ownership at the NPT-write gate: a frame backs at most one GPA of
//! one domain. This is Fidelius's defence against the NPT remapping of
//! SEVered and of Hetzelt & Buhren. The hypervisor drives
//! `Hypervisor::npt_map` directly on domains built without
//! `populate_all`, and every outcome is checked against a plain reference
//! model.

use fidelius::prelude::*;
use fidelius_core::lifecycle::fidelius_mut;
use fidelius_core::pit::Usage;
use fidelius_hw::paging::PTE_WRITABLE;
use fidelius_telemetry::{DenialReason, Event};
use fidelius_xen::{GuardError, XenError};
use std::collections::HashSet;

fn protected(dram: u64, seed: u64) -> System {
    System::new(dram, seed, Box::new(Fidelius::new())).unwrap()
}

fn new_domain(sys: &mut System) -> DomainId {
    sys.xen.create_domain(&mut sys.plat, &mut *sys.guardian, 64).unwrap()
}

/// Maps `gpa_page → frame` and returns the typed outcome. A refusal must
/// also be the last denial in the trace.
fn map(sys: &mut System, dom: DomainId, gpa_page: u64, frame: Hpa) -> Result<(), DenialReason> {
    let result =
        sys.xen.npt_map(&mut sys.plat, &mut *sys.guardian, dom, gpa_page, frame, PTE_WRITABLE);
    let reason = match result {
        Ok(()) => return Ok(()),
        Err(XenError::Guard(GuardError::Denied(reason))) => reason,
        Err(other) => panic!("not a refusal: {other:?}"),
    };
    let traced = sys.plat.machine.trace.events().into_iter().rev().find_map(|t| match t.event {
        Event::Denial { reason } => Some(reason),
        _ => None,
    });
    assert_eq!(traced, Some(reason), "the trace must carry the refusal");
    Err(reason)
}

/// The ownership rules as a list and linear scans.
#[derive(Default)]
struct Model {
    owned: Vec<(DomainId, u64, Hpa)>,
}

impl Model {
    fn map(
        &mut self,
        dom: DomainId,
        gpa_page: u64,
        frame: Hpa,
        heap: Hpa,
    ) -> Result<(), DenialReason> {
        if let Some(&(_, _, f)) = self.owned.iter().find(|(d, g, _)| *d == dom && *g == gpa_page) {
            return if f == frame { Ok(()) } else { Err(DenialReason::RemapPopulatedGpa) };
        }
        if frame == heap {
            return Err(DenialReason::FrameNotMappable);
        }
        match self.owned.iter().find(|(_, _, f)| *f == frame) {
            Some(&(d, _, _)) if d == dom => Err(DenialReason::InDomainPageShuffle),
            Some(_) => Err(DenialReason::MapOtherGuestPrivatePage),
            None => {
                self.owned.push((dom, gpa_page, frame));
                Ok(())
            }
        }
    }

    /// Drops a domain's assignments and returns the frames it released.
    fn destroy(&mut self, dom: DomainId) -> Vec<Hpa> {
        let released = self.owned.iter().filter(|(d, _, _)| *d == dom).map(|&(_, _, f)| f);
        let released = released.collect();
        self.owned.retain(|(d, _, _)| *d != dom);
        released
    }
}

#[test]
fn second_gpa_for_a_frame_is_an_in_domain_shuffle() {
    let mut sys = protected(32 * 1024 * 1024, 71);
    let dom = new_domain(&mut sys);
    let frame = sys.xen.guest_pool.alloc().unwrap();
    assert_eq!(map(&mut sys, dom, 1, frame), Ok(()));
    assert_eq!(map(&mut sys, dom, 2, frame), Err(DenialReason::InDomainPageShuffle));
    let events = sys.plat.machine.trace.events();
    let at = events
        .iter()
        .position(|t| {
            matches!(t.event, Event::Denial { reason: DenialReason::InDomainPageShuffle })
        })
        .expect("no typed InDomainPageShuffle denial in the trace");
    assert!(
        matches!(events[at - 1].event, Event::Decision { allowed: false, operand, .. } if operand == frame.0),
        "denial not preceded by its refused decision: {:?}",
        events[at - 1].event
    );
    // The frame still backs its first GPA, and only that one.
    assert_eq!(map(&mut sys, dom, 1, frame), Ok(()));
    assert_eq!(map(&mut sys, dom, 3, frame), Err(DenialReason::InDomainPageShuffle));
}

/// A frame past the end of DRAM is refused at the gate. The PIT indexes 30
/// frame-number bits, so `F + 2^42` names the frame `2^30` pages above `F`
/// and would alias `F`'s entry: accepting it would mark `F` owned by a
/// domain that cannot reach it, lock every other domain out of `F`, and
/// break that domain's teardown.
#[test]
fn frame_past_dram_is_refused_not_aliased() {
    let mut sys = protected(32 * 1024 * 1024, 72);
    let (dom, other) = (new_domain(&mut sys), new_domain(&mut sys));
    let frame = sys.xen.guest_pool.alloc().unwrap();
    let alias = Hpa(frame.0 + (1 << 42));
    assert_eq!(map(&mut sys, dom, 5, alias), Err(DenialReason::FrameNotMappable));
    let entry = fidelius_mut(&mut sys).unwrap().pit().peek(frame);
    assert_eq!(entry.usage(), Usage::Free, "the alias claimed {frame:?}");
    assert_eq!(map(&mut sys, other, 5, frame), Ok(()));
    for d in [dom, other] {
        sys.xen.destroy_domain(&mut sys.plat, &mut *sys.guardian, d).unwrap();
    }
}

#[test]
fn npt_map_outcomes_match_a_linear_scan_model() {
    let mut reclaimed = 0;
    for seed in 0..4u64 {
        let mut sys = protected(32 * 1024 * 1024, 80 + seed);
        let heap = sys.xen.heap.alloc().unwrap();
        let mut frames: Vec<Hpa> = (0..40).map(|_| sys.xen.guest_pool.alloc().unwrap()).collect();
        frames.push(heap);
        let mut doms: Vec<DomainId> = (0..3).map(|_| new_domain(&mut sys)).collect();
        let mut model = Model::default();
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ seed.wrapping_mul(0xff51_afd7_ed55_8ccd);
        let (mut seen, mut released) = (HashSet::new(), HashSet::new());
        for step in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x % 3) as usize;
            if (x >> 40).is_multiple_of(64) {
                // Tear one domain down; its frames become free for reuse.
                sys.xen.destroy_domain(&mut sys.plat, &mut *sys.guardian, doms[slot]).unwrap();
                released.extend(model.destroy(doms[slot]));
                doms[slot] = new_domain(&mut sys);
                continue;
            }
            let dom = doms[slot];
            let gpa_page = (x >> 8) % 24;
            let frame = frames[((x >> 20) % frames.len() as u64) as usize];
            let want = model.map(dom, gpa_page, frame, heap);
            let got = map(&mut sys, dom, gpa_page, frame);
            assert_eq!(got, want, "seed {seed} step {step}: {dom:?} gpa {gpa_page} → {frame:?}");
            if got.is_ok() && released.remove(&frame) {
                reclaimed += 1;
            }
            seen.insert(got);
        }
        for outcome in [
            Ok(()),
            Err(DenialReason::RemapPopulatedGpa),
            Err(DenialReason::InDomainPageShuffle),
            Err(DenialReason::MapOtherGuestPrivatePage),
            Err(DenialReason::FrameNotMappable),
        ] {
            assert!(seen.contains(&outcome), "seed {seed} never produced {outcome:?}");
        }
    }
    assert!(reclaimed > 0, "no frame freed by destroy_domain was mapped again");
}

#[test]
fn large_guest_boots_one_to_one() {
    const PAGES: u64 = 8192;
    let mut sys = protected(64 * 1024 * 1024, 73);
    let mut owner = GuestOwner::new(73);
    let image = owner.package_image(b"large guest kernel", &sys.plat.firmware.pdh_public());
    let dom = boot_encrypted_guest(&mut sys, &image, PAGES).unwrap();
    let d = sys.xen.domain(dom).unwrap();
    let frames: HashSet<Hpa> =
        (0..PAGES).map(|p| d.frame_of(p).expect("every page populated")).collect();
    assert_eq!(frames.len() as u64, PAGES, "two GPAs share a frame");
}
