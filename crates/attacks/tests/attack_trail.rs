//! A malicious-hypervisor probe must leave a *typed* forensic trail: the
//! denial shows up in the event ring as a `Decision{allowed: false}`
//! followed by the machine-readable `DenialReason`, and in the metrics
//! registry under the right audit kind — not just as an error string
//! returned to the attacker.

use fidelius_attacks::defense::{build_victim, Defense};
use fidelius_hw::paging::PTE_WRITABLE;
use fidelius_telemetry::{AuditKind, DenialReason, Event, PolicyObject};
use fidelius_xen::frontend::gplayout;

#[test]
fn remap_probe_leaves_typed_denial_trail() {
    let mut v = build_victim(Defense::Fidelius).expect("victim boots");
    let dom = v.victim;

    // The compromised hypervisor tries the §6 remap attack through its own
    // legitimate interface: point the victim's populated heap GPA at a
    // fresh frame of the hypervisor's choosing (after which it could feed
    // the guest stale or attacker-controlled memory).
    let rogue = v.sys.xen.heap.alloc().expect("heap frame");
    let err = v
        .sys
        .xen
        .npt_map(
            &mut v.sys.plat,
            &mut *v.sys.guardian,
            dom,
            gplayout::HEAP_PAGE,
            rogue,
            PTE_WRITABLE,
        )
        .expect_err("Fidelius must refuse remapping a populated GPA");
    assert_eq!(err.denial(), Some(DenialReason::RemapPopulatedGpa), "wrong error: {err:?}");

    let events = v.sys.plat.machine.trace.events();

    // The typed reason is in the ring…
    let denial_at = events
        .iter()
        .position(|t| matches!(t.event, Event::Denial { reason: DenialReason::RemapPopulatedGpa }))
        .expect("no typed RemapPopulatedGpa denial in the trace");

    // …immediately preceded by the policy decision that produced it, with
    // the probe's operands (the rogue frame, the acting domain).
    let Event::Decision { object, op, operand, dom: decided_for, allowed } =
        events[denial_at - 1].event
    else {
        panic!("denial not preceded by its decision: {:?}", events[denial_at - 1].event);
    };
    assert_eq!(object, PolicyObject::Pit);
    assert_eq!(op, "npt-write");
    assert_eq!(operand, rogue.0);
    assert_eq!(decided_for, dom.0);
    assert!(!allowed);

    // The metrics registry classified it under the PIT audit kind, and the
    // decision counters picked up the denied op.
    let metrics = v.sys.plat.machine.trace.metrics();
    assert!(metrics.denials_by_kind.get(&AuditKind::PitViolation).copied().unwrap_or(0) >= 1);
    assert!(metrics.decisions_denied.get("pit").copied().unwrap_or(0) >= 1);

    // The guest's real mapping survived the probe untouched.
    let still = v.sys.xen.domain(dom).expect("domain").frame_of(gplayout::HEAP_PAGE);
    assert!(still.is_some(), "probe must not disturb the victim's mapping");
    assert_ne!(still.unwrap(), rogue);
}

#[test]
fn replay_probe_is_blocked_without_policy_denial() {
    // The replay attack never reaches a policy check — the PA-tweaked
    // ciphertext is simply useless when moved or restored. The trail here
    // is the crypto traffic itself: the engine events show guest-keyed
    // traffic, and no PIT denial is recorded for the probe.
    let mut v = build_victim(Defense::Fidelius).expect("victim boots");
    let before = v.sys.plat.machine.trace.metrics();
    let frame =
        v.sys.xen.domain(v.victim).expect("domain").frame_of(gplayout::HEAP_PAGE).expect("backed");

    // Snapshot ciphertext, overwrite it in place (same PA, so no tweak
    // mismatch is even needed): the write is refused by write protection.
    let va = fidelius_xen::layout::direct_map(frame);
    let mut snapshot = [0u8; 16];
    v.sys.plat.machine.host_read(va, &mut snapshot).expect_err("private frame unmapped for host");
    let after = v.sys.plat.machine.trace.metrics();
    assert_eq!(
        before.denials_by_kind.get(&AuditKind::PitViolation),
        after.denials_by_kind.get(&AuditKind::PitViolation),
        "a physical-layer block must not masquerade as a policy denial"
    );
}
