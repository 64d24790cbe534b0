//! The three gate types securing transitions into the Fidelius context
//! (paper §4.1.3, Figure 3).
//!
//! - **Type 1 — disable WP**: the common case. Interrupts off, switch to
//!   the private stack, clear `CR0.WP` so the read-only critical resources
//!   become writable *for supervisor code*, run the protected body, redo
//!   everything in reverse. Costs 306 cycles round trip.
//! - **Type 2 — checking loop**: for monopolized instructions (`mov cr0`,
//!   `mov cr4`, `wrmsr`, …) that stay mapped executable: sanity checks
//!   around the single instruction instance. 16 cycles.
//! - **Type 3 — add new mapping**: for instructions whose pages are
//!   normally unmapped (`vmrun`, `mov cr3`) and for unmapped resources:
//!   temporarily map the page, flush the stale TLB entry, execute, then
//!   withdraw the mapping. 339 cycles.
//!
//! The gates execute real privileged instructions at Fidelius's
//! instruction sites — the CPU verifies the bytes exist and are mapped
//! executable, so the gates work *because* late launch set the mappings
//! up, not by fiat.

use crate::GuardError;
use fidelius_hw::cpu::{scope, PrivOp, Site};
use fidelius_hw::cycles::CycleCategory;
use fidelius_hw::inject::{FaultAction, InjectPoint};
use fidelius_hw::memctrl::EncSel;
use fidelius_hw::paging::PhysPtAccess;
use fidelius_hw::regs::Cr0;
use fidelius_hw::{Hpa, Hva};
use fidelius_telemetry::{DenialReason, Event, FaultKind, GateKind, InjectionOutcome};
use fidelius_trace::{ArgValue, SpanKind};
use fidelius_xen::layout::InstrSites;
use fidelius_xen::platform::Platform;

/// How many delayed gate responses a single gate invocation absorbs (with
/// doubling backoff) before it declares the transition lost and fails
/// closed with [`DenialReason::GateResponseTimeout`].
pub const GATE_RETRY_MAX: u32 = 4;

/// Graceful degradation for delayed gate responses: an adversarial
/// hypervisor can stall the context switch into Fidelius (e.g. by flooding
/// the core with IPIs); the gate re-attempts the transition a bounded
/// number of times, charging the modelled wait each round, and fails
/// closed — audited, typed — when the budget runs out.
///
/// # Errors
///
/// [`GuardError::Denied`] carrying [`DenialReason::GateResponseTimeout`]
/// once more than [`GATE_RETRY_MAX`] delays are injected back to back.
fn absorb_delays(plat: &mut Platform) -> Result<(), GuardError> {
    if !plat.machine.inject.is_armed() {
        return Ok(());
    }
    let mut attempt: u32 = 0;
    let mut backoff = plat.machine.cost.gate_dispatch.max(1.0);
    while let Some(action) = plat.machine.inject_at(InjectPoint::GateEntry) {
        match action {
            FaultAction::DelayGate { ticks } => {
                attempt += 1;
                plat.machine.cycles.charge(backoff * ticks.max(1) as f64);
                backoff *= 2.0;
                if attempt > GATE_RETRY_MAX {
                    return Err(GuardError::Denied(
                        plat.machine
                            .fail_closed(DenialReason::GateResponseTimeout, FaultKind::DelayedGate),
                    ));
                }
            }
            other => {
                // A non-delay action routed here has no gate-level effect;
                // report it tolerated so every injection has a disposal.
                plat.machine.trace.emit(Event::FaultOutcome {
                    kind: other.kind(),
                    outcome: InjectionOutcome::Tolerated,
                });
            }
        }
    }
    if attempt > 0 {
        plat.machine.trace.emit(Event::FaultOutcome {
            kind: FaultKind::DelayedGate,
            outcome: InjectionOutcome::ToleratedAfterRetry(attempt),
        });
    }
    Ok(())
}

/// Static label for the instruction a gate executed (for trace events).
pub(crate) fn privop_label(op: &PrivOp) -> &'static str {
    match op {
        PrivOp::WriteCr0(_) => "mov-cr0",
        PrivOp::WriteCr3(_) => "mov-cr3",
        PrivOp::WriteCr4(_) => "mov-cr4",
        PrivOp::WriteEfer(_) => "wrmsr-efer",
        PrivOp::Vmrun(_) => "vmrun",
        PrivOp::Invlpg(_) => "invlpg",
        PrivOp::Lgdt(_) => "lgdt",
        PrivOp::Lidt(_) => "lidt",
        PrivOp::Cli => "cli",
        PrivOp::Sti => "sti",
    }
}

/// A page-mapping slot used by type-3 gates: the physical address of the
/// leaf page-table entry for the instruction page, and the PTE value that
/// maps it (present) — normally the entry holds 0.
#[derive(Debug, Clone, Copy)]
pub struct GateMapping {
    /// Physical address of the leaf PTE controlling the page.
    pub leaf_entry_pa: Hpa,
    /// PTE value that makes the page present + executable.
    pub mapped_pte: u64,
    /// The page's virtual address (for the TLB flush).
    pub page_va: Hva,
}

/// Gate state: Fidelius's instruction sites plus the type-3 mapping slots.
///
/// Each crossing is booked once, by [`scope`]: a `gate:typeN` span, its
/// cycles under [`CycleCategory::Gates`] and an [`Event::Gate`] that the
/// telemetry registry counts per type.
#[derive(Debug, Clone, Copy)]
pub struct Gates {
    /// Fidelius's instruction sites.
    pub sites: InstrSites,
    /// Mapping slot for the page holding `vmrun`.
    pub vmrun_page: GateMapping,
    /// Mapping slot for the page holding `mov cr3`.
    pub cr3_page: GateMapping,
}

/// The site of one gate crossing: a `gate:typeN` span carrying `args`,
/// charged to [`CycleCategory::Gates`] and completed by an
/// [`Event::Gate`] naming `op`.
fn crossing<'a>(
    kind: GateKind,
    op: &'static str,
    args: &'a [(&'static str, ArgValue)],
) -> Site<'a> {
    let label = match kind {
        GateKind::Type1 => "gate:type1",
        GateKind::Type2 => "gate:type2",
        GateKind::Type3 => "gate:type3",
    };
    Site::new(SpanKind::Gate, label)
        .args(args)
        .charged_to(CycleCategory::Gates)
        .then_emit(Event::Gate { kind, op })
}

impl Gates {
    /// Builds the gate state (late launch wires the mapping slots).
    pub fn new(sites: InstrSites, vmrun_page: GateMapping, cr3_page: GateMapping) -> Self {
        Gates { sites, vmrun_page, cr3_page }
    }

    /// Type-1 gate: runs `body` with `CR0.WP` cleared. The body's own
    /// memory traffic is charged by the machine as usual; the gate adds
    /// the transition cost (306 cycles round trip).
    ///
    /// # Errors
    ///
    /// Propagates body errors; WP is always restored.
    pub fn type1<R>(
        &self,
        plat: &mut Platform,
        body: impl FnOnce(&mut Platform) -> Result<R, GuardError>,
    ) -> Result<R, GuardError> {
        absorb_delays(plat)?;
        scope(plat, crossing(GateKind::Type1, "protected-body", &[]), |plat| {
            let m = &mut plat.machine;
            m.exec_priv(self.sites.cli, PrivOp::Cli)?;
            m.cycles.charge(m.cost.stack_switch);
            m.exec_priv(self.sites.write_cr0, PrivOp::WriteCr0(Cr0 { pg: true, wp: false }))?;
            m.cycles.charge(m.cost.sanity_check);

            let result = body(plat);

            let m = &mut plat.machine;
            m.cycles.charge(m.cost.sanity_check);
            m.exec_priv(self.sites.write_cr0, PrivOp::WriteCr0(Cr0 { pg: true, wp: true }))
                .expect("restoring WP cannot fail");
            m.cycles.charge(m.cost.stack_switch);
            m.exec_priv(self.sites.sti, PrivOp::Sti).expect("sti cannot fail");
            result
        })
    }

    /// Executes a monopolized instruction through the gate its page
    /// demands: type 3 for `vmrun` and `mov cr3`, whose pages stay
    /// unmapped, and type 2 for every other instruction, which stays
    /// mapped executable at its Fidelius site.
    ///
    /// # Errors
    ///
    /// Propagates execution faults and gate timeouts.
    pub fn exec(&self, plat: &mut Platform, op: PrivOp) -> Result<(), GuardError> {
        let s = self.sites;
        match op {
            PrivOp::Vmrun(_) => self.type3(plat, op, self.vmrun_page, s.vmrun),
            PrivOp::WriteCr3(_) => self.type3(plat, op, self.cr3_page, s.write_cr3),
            PrivOp::WriteCr0(_) => self.type2(plat, op, s.write_cr0),
            PrivOp::WriteCr4(_) => self.type2(plat, op, s.write_cr4),
            PrivOp::WriteEfer(_) => self.type2(plat, op, s.wrmsr),
            PrivOp::Invlpg(_) => self.type2(plat, op, s.invlpg),
            PrivOp::Lgdt(_) => self.type2(plat, op, s.lgdt),
            PrivOp::Lidt(_) => self.type2(plat, op, s.lidt),
            PrivOp::Cli => self.type2(plat, op, s.cli),
            PrivOp::Sti => self.type2(plat, op, s.sti),
        }
    }

    /// Type-2 gate: executes `op` at its Fidelius `site`, with the
    /// checking-loop sanity checks around it (16 cycles of gate overhead
    /// plus the instruction itself).
    fn type2(&self, plat: &mut Platform, op: PrivOp, site: Hva) -> Result<(), GuardError> {
        absorb_delays(plat)?;
        let label = privop_label(&op);
        scope(plat, crossing(GateKind::Type2, label, &[("op", ArgValue::Str(label))]), |plat| {
            let m = &mut plat.machine;
            m.cycles.charge(m.cost.sanity_check);
            m.exec_priv(site, op)?;
            m.cycles.charge(m.cost.sanity_check);
            Ok(())
        })
    }

    /// Type-3 gate: temporarily maps the instruction's page through
    /// `mapping`, executes `op` at `site`, and withdraws the mapping (339
    /// cycles of gate overhead plus the instruction). The page is always
    /// unmapped again.
    fn type3(
        &self,
        plat: &mut Platform,
        op: PrivOp,
        mapping: GateMapping,
        site: Hva,
    ) -> Result<(), GuardError> {
        absorb_delays(plat)?;
        let label = privop_label(&op);
        scope(plat, crossing(GateKind::Type3, label, &[("op", ArgValue::Str(label))]), |plat| {
            let m = &mut plat.machine;
            m.exec_priv(self.sites.cli, PrivOp::Cli)?;
            m.cycles.charge(m.cost.stack_switch + m.cost.gate_dispatch);

            // Map the page in: one PTE write (gate-internal privileged write)
            // plus a TLB-entry flush for mapping freshness.
            {
                let mut acc = PhysPtAccess::new(&mut plat.machine.mc, EncSel::None);
                use fidelius_hw::paging::PtAccess;
                acc.write_entry(mapping.leaf_entry_pa, mapping.mapped_pte)
                    .map_err(GuardError::Hw)?;
            }
            plat.machine.cycles.charge(plat.machine.cost.cached_word_write);
            plat.machine.exec_priv(self.sites.invlpg, PrivOp::Invlpg(mapping.page_va))?;
            plat.machine.cycles.charge(plat.machine.cost.sanity_check);

            let result = plat.machine.exec_priv(site, op);

            // Withdraw the mapping regardless of the outcome.
            {
                let mut acc = PhysPtAccess::new(&mut plat.machine.mc, EncSel::None);
                use fidelius_hw::paging::PtAccess;
                acc.write_entry(mapping.leaf_entry_pa, 0).map_err(GuardError::Hw)?;
            }
            plat.machine.cycles.charge(plat.machine.cost.cached_word_write);
            // After VMRUN the CPU is in guest mode; the flush instruction has
            // conceptually already executed on the way in — charge it, and
            // only execute it architecturally when still in host mode.
            if plat.machine.cpu.mode == fidelius_hw::cpu::Mode::Host {
                plat.machine.exec_priv(self.sites.invlpg, PrivOp::Invlpg(mapping.page_va))?;
                plat.machine.cycles.charge(plat.machine.cost.sanity_check);
                plat.machine.exec_priv(self.sites.sti, PrivOp::Sti)?;
            } else {
                plat.machine
                    .cycles
                    .charge_as(CycleCategory::Paging, plat.machine.cost.tlb_flush_entry);
                plat.machine.cycles.charge(plat.machine.cost.sanity_check + plat.machine.cost.sti);
            }
            plat.machine
                .cycles
                .charge(plat.machine.cost.stack_switch + plat.machine.cost.gate_dispatch);
            result.map_err(GuardError::from)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::boot_encrypted_guest;
    use crate::Fidelius;
    use fidelius_hw::inject::FaultInjector;
    use fidelius_sev::GuestOwner;
    use fidelius_xen::{DomainId, System};

    /// Fires `DelayGate` at the next `n` gate-entry crossings.
    #[derive(Debug)]
    struct Delays(u32);

    impl FaultInjector for Delays {
        fn decide(&mut self, point: InjectPoint) -> Option<FaultAction> {
            if point == InjectPoint::GateEntry && self.0 > 0 {
                self.0 -= 1;
                return Some(FaultAction::DelayGate { ticks: 7 });
            }
            None
        }
    }

    fn booted() -> (System, DomainId) {
        let mut sys = System::new(32 * 1024 * 1024, 5, Box::new(Fidelius::new())).unwrap();
        let mut owner = GuestOwner::new(5);
        let image = owner.package_image(b"gate kernel", &sys.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut sys, &image, 192).unwrap();
        sys.ensure_host().unwrap();
        (sys, dom)
    }

    #[test]
    fn delayed_gate_within_budget_is_tolerated_with_retries() {
        let (mut sys, dom) = booted();
        sys.plat.machine.trace.clear();
        sys.plat.machine.inject.install(Box::new(Delays(GATE_RETRY_MAX)));
        sys.ensure_guest(dom).unwrap();
        sys.plat.machine.inject.clear();
        let events = sys.plat.machine.trace.events();
        assert!(
            events.iter().any(|t| matches!(
                t.event,
                Event::FaultOutcome {
                    kind: FaultKind::DelayedGate,
                    outcome: InjectionOutcome::ToleratedAfterRetry(n),
                } if n == GATE_RETRY_MAX
            )),
            "expected a tolerated-after-retry disposal, got {events:?}"
        );
    }

    #[test]
    fn delayed_gate_beyond_budget_fails_closed_with_typed_reason() {
        let (mut sys, dom) = booted();
        sys.plat.machine.trace.clear();
        sys.plat.machine.inject.install(Box::new(Delays(GATE_RETRY_MAX + 1)));
        assert_eq!(
            sys.ensure_guest(dom).unwrap_err().denial(),
            Some(DenialReason::GateResponseTimeout),
            "exhausted retry budget must refuse the gate with its typed reason"
        );
        sys.plat.machine.inject.clear();
        let events = sys.plat.machine.trace.events();
        assert!(
            events.iter().any(|t| matches!(
                t.event,
                Event::Denial { reason: DenialReason::GateResponseTimeout }
            )),
            "fail-closed gate must land on the audit trail"
        );
        assert!(events.iter().any(|t| matches!(
            t.event,
            Event::FaultOutcome {
                kind: FaultKind::DelayedGate,
                outcome: InjectionOutcome::FailClosed(DenialReason::GateResponseTimeout),
            }
        )));
        // The stall was transient and fully absorbed: the retry succeeds.
        sys.ensure_guest(dom).unwrap();
    }
}
