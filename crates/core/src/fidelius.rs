//! The Fidelius protection context: the [`Guardian`] implementation that
//! enforces the paper's design.
//!
//! | resource | mechanism | gate |
//! |---|---|---|
//! | VMCB + guest registers | shadowing with exit-reason masking (§4.2.1) | entry/exit boundary |
//! | host page tables | write-protected, PIT policy (§4.1.1) | type 1 |
//! | guest NPTs | write-protected, PIT + assignment policy (§4.2.2) | type 1 |
//! | grant table | write-protected, GIT policy (§4.3.7) | type 1 |
//! | SEV metadata (handles, ASIDs, session keys) | self-maintained in private memory (§4.2.3) | type 3 |
//! | privileged instructions | monopolized + policy (Table 2) / unmapped | type 2 / 3 |
//! | guest frames | unmapped from the hypervisor after boot (§4.3.4) | — |

use crate::gates::{privop_label, GateMapping, Gates};
use crate::git::{Git, GitEntry};
use crate::pit::{Pit, PitEntry, Usage};
use crate::policy::{check_instr, InstrPolicyCtx, InstrVerdict, OncePolicy};
use crate::scanner;
use crate::shadow::{ShadowCtx, Verdict};
use fidelius_crypto::sha256::Sha256;
use fidelius_hw::cpu::PrivOp;
use fidelius_hw::cycles::CycleCategory;
use fidelius_hw::error::{AccessKind, FaultReason};
use fidelius_hw::fxhash::FxBuildHasher;
use fidelius_hw::memctrl::EncSel;
use fidelius_hw::paging::{Mapper, PhysPtAccess, PtAccess, Pte, PTE_NX, PTE_PRESENT, PTE_WRITABLE};
use fidelius_hw::regs::Cr4;
use fidelius_hw::vmcb::{ExitCode, VmcbField, VmcbImage};
use fidelius_hw::{Fault, Hpa, HwError, PAGE_SIZE};
use fidelius_sev::firmware::IoHelpers;
use fidelius_sev::{Handle, SevError};
use fidelius_telemetry::{DenialReason, Event, FaultKind, FlushScope, PolicyObject, VerifyOutcome};
use fidelius_xen::domain::{Domain, DomainId};
use fidelius_xen::grants::{read_entry_phys, GrantEntry, GRANT_ENTRY_SIZE, GRANT_TABLE_ENTRIES};
use fidelius_xen::guardian::{GuardError, Guardian, IoDir, LateLaunchInfo};
use fidelius_xen::hypercall::HC_PRE_SHARING_OP;
use fidelius_xen::layout::direct_map;
use fidelius_xen::platform::{Platform, FIDELIUS_DATA_PA, GUEST_POOL_PA};
use std::any::Any;
use std::collections::HashMap;

/// Number of VMCB save-area fields masked per exit on real hardware; used
/// for cycle accounting (our compact VMCB model has fewer named fields).
const MASKED_FIELDS_NOMINAL: u64 = 28;
/// VMCB size in cache lines for shadow-cost accounting.
const VMCB_LINES: u64 = 64;

#[derive(Debug, Clone, Copy)]
struct NptPageInfo {
    dom: DomainId,
    level: u8,
    gpa_prefix: u64,
}

#[derive(Debug, Clone, Copy)]
struct DomMeta {
    asid: u16,
    vmcb_pa: Hpa,
    npt_root: Hpa,
    sealed: bool,
}

/// One domain's GPA-page → frame assignments and their inverse.
///
/// `npt_write` keeps them one-to-one: a second frame for a GPA is
/// `RemapPopulatedGpa`, a second GPA for a frame is `InDomainPageShuffle`
/// or `FrameAlreadyBacksGpa`. So the inverse answers "does this frame back
/// another GPA?" in one lookup, where a scan of the forward map made
/// populating a guest quadratic in its size. The inverse is keyed by pfn,
/// not by the page-aligned `Hpa` (see [`fidelius_hw::fxhash`]).
#[derive(Debug, Default)]
struct Assignments {
    by_gpa: HashMap<u64, Hpa, FxBuildHasher>,
    by_frame: HashMap<u64, u64, FxBuildHasher>,
}

impl Assignments {
    fn frame_of(&self, gpa_page: u64) -> Option<Hpa> {
        self.by_gpa.get(&gpa_page).copied()
    }

    /// Whether `frame` already backs a GPA page other than `gpa_page`.
    fn backs_other_gpa(&self, gpa_page: u64, frame: Hpa) -> bool {
        self.by_frame.get(&frame.pfn()).is_some_and(|&g| g != gpa_page)
    }

    /// Records `gpa_page → frame`; the only insert, so both directions
    /// always agree.
    fn claim(&mut self, gpa_page: u64, frame: Hpa) {
        debug_assert!(self.frame_of(gpa_page).is_none() && !self.backs_other_gpa(gpa_page, frame));
        self.by_gpa.insert(gpa_page, frame);
        self.by_frame.insert(frame.pfn(), gpa_page);
    }
}

#[derive(Debug, Clone, Copy)]
struct SevMeta {
    handle: Handle,
    io: Option<IoHelpers>,
}

/// The Fidelius guardian.
pub struct Fidelius {
    pit: Pit,
    git: Git,
    gates: Option<Gates>,
    once: OncePolicy,
    shadows: HashMap<DomainId, ShadowCtx, FxBuildHasher>,
    assignments: HashMap<DomainId, Assignments, FxBuildHasher>,
    npt_pages: HashMap<u64, NptPageInfo, FxBuildHasher>, // keyed by pfn
    doms: HashMap<DomainId, DomMeta, FxBuildHasher>,
    sev_meta: HashMap<DomainId, SevMeta, FxBuildHasher>,
    host_pt_root: Hpa,
    grant_table_pa: Hpa,
    xen_code_measurement: [u8; 32],
    instr_ctx: InstrPolicyCtx,
}

impl std::fmt::Debug for Fidelius {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fidelius").field("domains", &self.doms.len()).finish()
    }
}

impl Default for Fidelius {
    fn default() -> Self {
        Self::new()
    }
}

impl Fidelius {
    /// A Fidelius instance awaiting late launch.
    pub fn new() -> Self {
        Fidelius {
            pit: Pit::new(),
            git: Git::new(),
            gates: None,
            once: OncePolicy::new(),
            shadows: HashMap::default(),
            assignments: HashMap::default(),
            npt_pages: HashMap::default(),
            doms: HashMap::default(),
            sev_meta: HashMap::default(),
            host_pt_root: Hpa(0),
            grant_table_pa: Hpa(0),
            xen_code_measurement: [0; 32],
            instr_ctx: InstrPolicyCtx { host_pt_root: Hpa(0) },
        }
    }

    /// The late-launch measurement of the hypervisor's code (for remote
    /// attestation).
    pub fn xen_measurement(&self) -> [u8; 32] {
        self.xen_code_measurement
    }

    /// Read-only PIT view (tests and analysis).
    pub fn pit(&self) -> &Pit {
        &self.pit
    }

    /// Registers the SEV firmware handle Fidelius holds for a domain
    /// (set by the encrypted-boot lifecycle).
    pub fn register_sev_handle(&mut self, dom: DomainId, handle: Handle) {
        self.sev_meta.insert(dom, SevMeta { handle, io: None });
    }

    /// The SEV handle for a domain, if Fidelius manages one.
    pub fn sev_handle(&self, dom: DomainId) -> Option<Handle> {
        self.sev_meta.get(&dom).map(|m| m.handle)
    }

    /// The write-once policy (§5.3) applied to a guest's start_info /
    /// shared_info page: the hypervisor may initialize the page exactly
    /// once (mediated, through the gate); later writes are denied.
    ///
    /// # Errors
    ///
    /// Denied on the second attempt or for un-populated pages.
    pub fn write_once_page(
        &mut self,
        plat: &mut Platform,
        dom: DomainId,
        gpa_page: u64,
        data: &[u8],
    ) -> Result<(), GuardError> {
        let Some(frame) = self.assignments.get(&dom).and_then(|a| a.frame_of(gpa_page)) else {
            return Err(self.deny(plat, DenialReason::WriteOnceTargetUnpopulated));
        };
        if !self.once.tracks(frame) {
            self.once.track(frame, PAGE_SIZE);
        }
        if !self.once.try_use_page(frame) {
            return Err(self.deny(plat, DenialReason::WriteOnceAlreadyInitialized));
        }
        let e = self.pit.peek(frame);
        self.pit.set(frame, PitEntry::new(Usage::WriteOnce, e.owner(), e.asid(), e.shared()));
        let data = data.to_vec();
        self.gates().type1(plat, move |plat| {
            plat.machine.mc.dram_mut().write_raw(frame, &data).map_err(GuardError::Hw)
        })
    }

    /// Produces a remote-attestation report: the late-launch measurement
    /// of the hypervisor's code plus a caller nonce, tagged by the
    /// platform firmware (§4.3.1: "issue a measurement on its integrity,
    /// which can be used in remote attestation to verify its validity").
    pub fn attestation_report(&self, plat: &Platform, nonce: &[u8; 32]) -> ([u8; 32], [u8; 32]) {
        let mut evidence = Vec::with_capacity(64);
        evidence.extend_from_slice(&self.xen_code_measurement);
        evidence.extend_from_slice(nonce);
        (self.xen_code_measurement, plat.firmware.attest(&evidence))
    }

    /// Benchmark hook: runs each gate type `iters` times on the live
    /// platform and returns the average simulated cycles per round trip
    /// (type 1, type 2 — net of the monopolized instruction itself —,
    /// type 3 — net of the CR3 reload it performs). Reproduces the
    /// paper's micro-benchmark 1 methodology.
    ///
    /// # Errors
    ///
    /// Gate execution failures (should not happen after late launch).
    pub fn measure_gates(
        &mut self,
        plat: &mut Platform,
        iters: u32,
    ) -> Result<(f64, f64, f64), GuardError> {
        let gates = self.gates();
        let host_root = self.host_pt_root;
        let measure = |plat: &mut Platform,
                       f: &mut dyn FnMut(&mut Platform) -> Result<(), GuardError>|
         -> Result<f64, GuardError> {
            let start = plat.machine.cycles.total_f64();
            for _ in 0..iters {
                f(plat)?;
            }
            Ok((plat.machine.cycles.total_f64() - start) / f64::from(iters))
        };
        let t1 = measure(plat, &mut |plat| gates.type1(plat, |_| Ok(())))?;
        let cli_cost = plat.machine.cost.cli;
        let t2raw = measure(plat, &mut |plat| gates.exec(plat, PrivOp::Cli))?;
        let sti_site = gates.sites.sti;
        plat.machine.exec_priv(sti_site, PrivOp::Sti).map_err(GuardError::Hw)?;
        let cr3_cost = plat.machine.cost.write_cr3 + plat.machine.cost.tlb_flush_full;
        let t3raw = measure(plat, &mut |plat| gates.exec(plat, PrivOp::WriteCr3(host_root)))?;
        Ok((t1, t2raw - cli_cost, t3raw - cr3_cost))
    }

    fn gates(&self) -> Gates {
        self.gates.expect("late_launch must run first")
    }

    /// Books a typed denial on the audit trail and builds the caller's
    /// error.
    fn deny(&self, plat: &mut Platform, reason: DenialReason) -> GuardError {
        GuardError::Denied(plat.machine.deny(reason))
    }

    /// A denial at a policy decision point: emits the (refused) decision
    /// event with its operands before the denial itself.
    #[allow(clippy::too_many_arguments)]
    fn refuse(
        &self,
        plat: &mut Platform,
        object: PolicyObject,
        op: &'static str,
        operand: u64,
        dom: u16,
        reason: DenialReason,
    ) -> GuardError {
        plat.machine.trace.emit(Event::Decision { object, op, operand, dom, allowed: false });
        self.deny(plat, reason)
    }

    // ----- direct-map manipulation (inside gates) -------------------------

    fn dm_leaf_entry(&self, plat: &mut Platform, pa: Hpa) -> Result<Hpa, GuardError> {
        let mapper = Mapper::from_root(self.host_pt_root);
        let mut acc = PhysPtAccess::new(&mut plat.machine.mc, EncSel::None);
        mapper
            .leaf_entry_pa(&mut acc, direct_map(pa).0)
            .map_err(GuardError::Hw)?
            .ok_or(GuardError::Hw(HwError::BadPhysicalAddress { pa, len: PAGE_SIZE }))
    }

    fn set_dm_entry(
        &self,
        plat: &mut Platform,
        pa: Hpa,
        f: impl FnOnce(Pte) -> Pte,
    ) -> Result<(), GuardError> {
        let entry_pa = self.dm_leaf_entry(plat, pa)?;
        let mut acc = PhysPtAccess::new(&mut plat.machine.mc, EncSel::None);
        let old = Pte(acc.read_entry(entry_pa).map_err(GuardError::Hw)?);
        acc.write_entry(entry_pa, f(old).0).map_err(GuardError::Hw)?;
        // The TLB caches the full translation; an edited direct-map leaf
        // (unmap, write-protect, remap) must take effect on the very next
        // host access or the hypervisor keeps reaching a frame Fidelius
        // just revoked. Demote rather than flush so hit accounting matches
        // the walk-every-access model, which applied edits without any
        // architectural flush.
        plat.machine.tlb.demote_page(fidelius_hw::tlb::Space::Host, direct_map(pa).pfn());
        Ok(())
    }

    fn unmap_dm(&self, plat: &mut Platform, pa: Hpa) -> Result<(), GuardError> {
        self.set_dm_entry(plat, pa, |p| p.without_flags(PTE_PRESENT))
    }

    fn remap_dm(&self, plat: &mut Platform, pa: Hpa, writable: bool) -> Result<(), GuardError> {
        self.set_dm_entry(plat, pa, move |_| {
            let w = if writable { PTE_WRITABLE } else { 0 };
            Pte::new(pa, PTE_PRESENT | PTE_NX | w)
        })
    }

    fn write_protect_dm(&self, plat: &mut Platform, pa: Hpa) -> Result<(), GuardError> {
        self.set_dm_entry(plat, pa, |p| p.without_flags(PTE_WRITABLE))
    }

    // ----- policy helpers ---------------------------------------------------

    /// Decides whether the hypervisor may install a mapping to `target`
    /// with `writable` permission in *its own* page tables. A frame past
    /// the end of DRAM has no PIT entry of its own, so it is never allowed.
    fn host_mapping_allowed(&mut self, plat: &mut Platform, target: Hpa, writable: bool) -> bool {
        if !in_dram(plat, target) {
            return false;
        }
        let e = self.pit.query(target, &mut plat.machine.cycles);
        match e.usage() {
            Usage::Free | Usage::XenData | Usage::Vmcb => true,
            Usage::XenCode
            | Usage::XenPageTable
            | Usage::GrantTable
            | Usage::NptPage
            | Usage::WriteOnce => !writable,
            Usage::GuestPage => e.shared(),
            Usage::FideliusCode => !writable,
            Usage::FideliusData => false,
        }
    }

    fn frame_assigned_elsewhere(&self, dom: DomainId, gpa_page: u64, frame: Hpa) -> bool {
        self.assignments.get(&dom).is_some_and(|a| a.backs_other_gpa(gpa_page, frame))
    }

    fn grant_authorizes_foreign_map(
        &self,
        plat: &Platform,
        grantee: DomainId,
        frame: Hpa,
        writable: bool,
    ) -> bool {
        for i in 0..GRANT_TABLE_ENTRIES {
            if let Ok(e) = read_entry_phys(&plat.machine.mc, self.grant_table_pa, i) {
                if e.valid
                    && e.frame == frame
                    && DomainId(e.grantee) == grantee
                    && (!writable || e.writable)
                {
                    return true;
                }
            }
        }
        false
    }
}

/// Whether the hypervisor-named frame `frame` lies inside DRAM.
fn in_dram(plat: &Platform, frame: Hpa) -> bool {
    plat.machine.mc.access_infallible(frame, PAGE_SIZE, EncSel::None)
}

impl Guardian for Fidelius {
    fn name(&self) -> &'static str {
        "fidelius"
    }

    fn late_launch(
        &mut self,
        plat: &mut Platform,
        info: &LateLaunchInfo,
    ) -> Result<(), GuardError> {
        self.host_pt_root = info.host_pt_root;
        self.grant_table_pa = info.grant_table_pa;
        self.instr_ctx = InstrPolicyCtx { host_pt_root: info.host_pt_root };

        // 1. Measure the hypervisor's code, then monopolize the privileged
        //    instructions: erase every occurrence from the hypervisor
        //    image so the only copies live in Fidelius's code.
        let (xen_pa, xen_pages) = info.xen_code;
        let mut code = vec![0u8; (xen_pages * PAGE_SIZE) as usize];
        plat.machine.mc.dram().read_raw(xen_pa, &mut code).map_err(GuardError::Hw)?;
        self.xen_code_measurement = Sha256::digest(&code);
        scanner::erase(&mut code);
        plat.machine.mc.dram_mut().write_raw(xen_pa, &code).map_err(GuardError::Hw)?;

        // 2. Build the PIT.
        let dram_pages = plat.machine.mc.dram().frames();
        self.pit.set_range(
            Hpa(0),
            GUEST_POOL_PA.pfn().min(dram_pages),
            PitEntry::new(Usage::XenData, 0, 0, false),
        );
        self.pit.set_range(xen_pa, xen_pages, PitEntry::new(Usage::XenCode, 0, 0, false));
        let (fid_pa, fid_pages) = info.fidelius_code;
        self.pit.set_range(fid_pa, fid_pages, PitEntry::new(Usage::FideliusCode, 0, 0, false));
        self.pit.set_range(
            FIDELIUS_DATA_PA,
            fidelius_xen::layout::FIDELIUS_DATA_PAGES,
            PitEntry::new(Usage::FideliusData, 0, 0, false),
        );
        self.pit.set_range(
            Hpa(GUEST_POOL_PA.0),
            dram_pages.saturating_sub(GUEST_POOL_PA.pfn()),
            PitEntry::default(), // guest pool: Free
        );
        let pt_pages = {
            let mapper = Mapper::from_root(info.host_pt_root);
            let mut acc = PhysPtAccess::new(&mut plat.machine.mc, EncSel::None);
            mapper.collect_table_pages(&mut acc).map_err(GuardError::Hw)?
        };
        for &p in &pt_pages {
            self.pit.set(p, PitEntry::new(Usage::XenPageTable, 0, 0, false));
        }
        self.pit.set(info.grant_table_pa, PitEntry::new(Usage::GrantTable, 0, 0, false));

        // 3. Non-bypassable memory isolation: write-protect the critical
        //    pages in the hypervisor's only mappings of them.
        for &p in &pt_pages {
            self.write_protect_dm(plat, p)?;
        }
        self.write_protect_dm(plat, info.grant_table_pa)?;
        for i in 0..xen_pages {
            self.write_protect_dm(plat, xen_pa.add(i * PAGE_SIZE))?;
        }
        for i in 0..fid_pages {
            self.write_protect_dm(plat, fid_pa.add(i * PAGE_SIZE))?;
        }
        // Fidelius private data: unmapped entirely.
        for i in 0..fidelius_xen::layout::FIDELIUS_DATA_PAGES {
            let pa = FIDELIUS_DATA_PA.add(i * PAGE_SIZE);
            self.unmap_dm(plat, pa)?;
            // Also the FIDELIUS_DATA_BASE alias.
            let va = fidelius_xen::layout::FIDELIUS_DATA_BASE.add(i * PAGE_SIZE);
            let mapper = Mapper::from_root(self.host_pt_root);
            let mut acc = PhysPtAccess::new(&mut plat.machine.mc, EncSel::None);
            if let Some(entry) = mapper.leaf_entry_pa(&mut acc, va.0).map_err(GuardError::Hw)? {
                let old = Pte(acc.read_entry(entry).map_err(GuardError::Hw)?);
                acc.write_entry(entry, old.without_flags(PTE_PRESENT).0).map_err(GuardError::Hw)?;
            }
        }

        // 4. Unmap the vmrun / mov-cr3 pages of Fidelius's code and wire
        //    the type-3 gate mapping slots.
        let sites = info.fidelius_sites;
        let slot_for =
            |plat: &mut Platform, site_va: fidelius_hw::Hva| -> Result<GateMapping, GuardError> {
                let page_va = site_va.page_base();
                let mapper = Mapper::from_root(info.host_pt_root);
                let mut acc = PhysPtAccess::new(&mut plat.machine.mc, EncSel::None);
                let leaf_entry_pa = mapper
                    .leaf_entry_pa(&mut acc, page_va.0)
                    .map_err(GuardError::Hw)?
                    .ok_or(GuardError::Fault(Fault::HostPageFault {
                        va: page_va,
                        access: AccessKind::Execute,
                        reason: FaultReason::NotPresent,
                    }))?;
                let mapped_pte = acc.read_entry(leaf_entry_pa).map_err(GuardError::Hw)?;
                acc.write_entry(leaf_entry_pa, 0).map_err(GuardError::Hw)?;
                Ok(GateMapping { leaf_entry_pa, mapped_pte, page_va })
            };
        let vmrun_page = slot_for(plat, sites.vmrun)?;
        let cr3_page = slot_for(plat, sites.write_cr3)?;
        self.gates = Some(Gates::new(sites, vmrun_page, cr3_page));

        // 5. Execute-once policy for lgdt/lidt sites; write-once regions
        //    could be registered here as guests appear.
        self.once
            .track(Hpa(fid_pa.0 + (sites.lgdt.0 - fidelius_xen::layout::FIDELIUS_CODE_BASE.0)), 8);
        self.once
            .track(Hpa(fid_pa.0 + (sites.lidt.0 - fidelius_xen::layout::FIDELIUS_CODE_BASE.0)), 8);

        // 6. Fresh translations + SMEP on.
        plat.machine.tlb.flush_all();
        plat.machine.cycles.charge_as(CycleCategory::Paging, plat.machine.cost.tlb_flush_full);
        plat.machine.trace.emit(Event::TlbFlush { scope: FlushScope::Full });
        plat.machine
            .exec_priv(sites.write_cr4, PrivOp::WriteCr4(Cr4 { smep: true }))
            .map_err(GuardError::Hw)?;
        Ok(())
    }

    fn host_pt_write(
        &mut self,
        plat: &mut Platform,
        entry_pa: Hpa,
        value: u64,
    ) -> Result<(), GuardError> {
        let page = entry_pa.page_base();
        if !in_dram(plat, page)
            || self.pit.query(page, &mut plat.machine.cycles).usage() != Usage::XenPageTable
        {
            return Err(self.refuse(
                plat,
                PolicyObject::Pit,
                "host-pt-write",
                entry_pa.0,
                0,
                DenialReason::NotAPageTablePage,
            ));
        }
        let pte = Pte(value);
        if pte.present() && !self.host_mapping_allowed(plat, pte.addr().page_base(), pte.writable())
        {
            return Err(self.refuse(
                plat,
                PolicyObject::Pit,
                "host-pt-write",
                value,
                0,
                DenialReason::PitPolicyViolation,
            ));
        }
        plat.machine.trace.emit(Event::Decision {
            object: PolicyObject::Pit,
            op: "host-pt-write",
            operand: value,
            dom: 0,
            allowed: true,
        });
        let result = self.gates().type1(plat, |plat| {
            plat.machine.host_write_u64(direct_map(entry_pa), value).map_err(GuardError::Fault)
        });
        // The entry's mapped VA is unknown here (the hypervisor hands us a
        // raw entry address), so conservatively demote every cached host
        // translation; residency and hit accounting are untouched.
        if result.is_ok() {
            plat.machine.tlb.demote_space(fidelius_hw::tlb::Space::Host);
        }
        result
    }

    fn npt_write(
        &mut self,
        plat: &mut Platform,
        dom: DomainId,
        entry_pa: Hpa,
        value: u64,
    ) -> Result<(), GuardError> {
        let page = entry_pa.page_base();
        let info = match self.npt_pages.get(&page.pfn()) {
            Some(i) => *i,
            None => {
                return Err(self.refuse(
                    plat,
                    PolicyObject::Pit,
                    "npt-write",
                    entry_pa.0,
                    dom.0,
                    DenialReason::WriteOutsideRegisteredNpt,
                ))
            }
        };
        if info.dom != dom {
            return Err(self.refuse(
                plat,
                PolicyObject::Pit,
                "npt-write",
                entry_pa.0,
                dom.0,
                DenialReason::NptPageForeignDomain,
            ));
        }
        let idx = entry_pa.page_offset() / 8;
        let pte = Pte(value);
        let mut claim: Option<(Hpa, u64)> = None;
        let mut register_child: Option<(Hpa, NptPageInfo)> = None;
        if pte.present() && !in_dram(plat, pte.addr().page_base()) {
            // Past the end of DRAM the PIT would alias a real frame's entry.
            return Err(self.refuse(
                plat,
                PolicyObject::Pit,
                "npt-write",
                value,
                dom.0,
                DenialReason::FrameNotMappable,
            ));
        }
        if pte.present() {
            if info.level > 0 {
                // Intermediate entry: must point at a fresh hypervisor
                // heap page, which becomes an NPT page of this domain.
                let target = pte.addr().page_base();
                let already = self.npt_pages.get(&target.pfn());
                match already {
                    Some(existing) if existing.dom == dom => {} // re-link
                    Some(_) => {
                        return Err(self.refuse(
                            plat,
                            PolicyObject::Pit,
                            "npt-write",
                            value,
                            dom.0,
                            DenialReason::TablePageForeignDomain,
                        ))
                    }
                    None => {
                        let usage = self.pit.query(target, &mut plat.machine.cycles).usage();
                        if usage != Usage::XenData {
                            return Err(self.refuse(
                                plat,
                                PolicyObject::Pit,
                                "npt-write",
                                value,
                                dom.0,
                                DenialReason::IntermediateNotHeapPage,
                            ));
                        }
                        let child_prefix =
                            info.gpa_prefix + (idx << (12 + 9 * u64::from(info.level)));
                        register_child = Some((
                            target,
                            NptPageInfo { dom, level: info.level - 1, gpa_prefix: child_prefix },
                        ));
                    }
                }
            } else {
                // Leaf: map a frame for gpa_page.
                let gpa_page = (info.gpa_prefix >> 12) + idx;
                let frame = pte.addr().page_base();
                let entry = self.pit.query(frame, &mut plat.machine.cycles);
                let assigned = self.assignments.get(&dom).and_then(|a| a.frame_of(gpa_page));
                match assigned {
                    Some(f) if f == frame => {} // permission / C-bit update
                    Some(_) => {
                        return Err(self.refuse(
                            plat,
                            PolicyObject::Pit,
                            "npt-write",
                            frame.0,
                            dom.0,
                            DenialReason::RemapPopulatedGpa,
                        ))
                    }
                    None => match entry.usage() {
                        Usage::Free => {
                            if self.frame_assigned_elsewhere(dom, gpa_page, frame) {
                                return Err(self.refuse(
                                    plat,
                                    PolicyObject::Pit,
                                    "npt-write",
                                    frame.0,
                                    dom.0,
                                    DenialReason::FrameAlreadyBacksGpa,
                                ));
                            }
                            claim = Some((frame, gpa_page));
                        }
                        Usage::GuestPage if DomainId(entry.owner()) == dom => {
                            if self.frame_assigned_elsewhere(dom, gpa_page, frame) {
                                return Err(self.refuse(
                                    plat,
                                    PolicyObject::Pit,
                                    "npt-write",
                                    frame.0,
                                    dom.0,
                                    DenialReason::InDomainPageShuffle,
                                ));
                            }
                            claim = Some((frame, gpa_page));
                        }
                        Usage::GuestPage if entry.shared() => {
                            if !self.grant_authorizes_foreign_map(plat, dom, frame, pte.writable())
                            {
                                return Err(self.refuse(
                                    plat,
                                    PolicyObject::Pit,
                                    "npt-write",
                                    frame.0,
                                    dom.0,
                                    DenialReason::ForeignMappingWithoutGrant,
                                ));
                            }
                        }
                        Usage::GuestPage => {
                            return Err(self.refuse(
                                plat,
                                PolicyObject::Pit,
                                "npt-write",
                                frame.0,
                                dom.0,
                                DenialReason::MapOtherGuestPrivatePage,
                            ))
                        }
                        _ => {
                            return Err(self.refuse(
                                plat,
                                PolicyObject::Pit,
                                "npt-write",
                                frame.0,
                                dom.0,
                                DenialReason::FrameNotMappable,
                            ))
                        }
                    },
                }
            }
        }
        plat.machine.trace.emit(Event::Decision {
            object: PolicyObject::Pit,
            op: "npt-write",
            operand: value,
            dom: dom.0,
            allowed: true,
        });
        let sealed = self.doms.get(&dom).map(|m| m.sealed).unwrap_or(false);
        let result = self.gates().type1(plat, |plat| {
            plat.machine.host_write_u64(direct_map(entry_pa), value).map_err(GuardError::Fault)
        });
        result?;
        if let Some((target, child_info)) = register_child {
            self.npt_pages.insert(target.pfn(), child_info);
            self.pit.set(target, PitEntry::new(Usage::NptPage, dom.0, 0, false));
            self.write_protect_dm(plat, target)?;
        }
        if let Some((frame, gpa_page)) = claim {
            let asid = self.doms.get(&dom).map(|m| m.asid).unwrap_or(0);
            self.pit.set(frame, PitEntry::new(Usage::GuestPage, dom.0, asid, false));
            self.assignments.entry(dom).or_default().claim(gpa_page, frame);
            if sealed {
                self.unmap_dm(plat, frame)?;
            }
        }
        Ok(())
    }

    fn grant_write(
        &mut self,
        plat: &mut Platform,
        index: u64,
        entry: GrantEntry,
    ) -> Result<(), GuardError> {
        if index >= GRANT_TABLE_ENTRIES {
            return Err(self.refuse(
                plat,
                PolicyObject::Git,
                "grant-write",
                index,
                entry.owner,
                DenialReason::GrantIndexOutOfRange,
            ));
        }
        let old = read_entry_phys(&plat.machine.mc, self.grant_table_pa, index)
            .map_err(GuardError::Hw)?;
        if entry.valid {
            let owner = DomainId(entry.owner);
            let grantee = DomainId(entry.grantee);
            if !self.git.authorizes(owner, grantee, entry.gpa_page, entry.writable) {
                return Err(self.refuse(
                    plat,
                    PolicyObject::Git,
                    "grant-write",
                    entry.gpa_page,
                    entry.owner,
                    DenialReason::GrantNotAuthorized,
                ));
            }
            let assigned = self.assignments.get(&owner).and_then(|a| a.frame_of(entry.gpa_page));
            if assigned != Some(entry.frame) {
                return Err(self.refuse(
                    plat,
                    PolicyObject::Git,
                    "grant-write",
                    entry.frame.0,
                    entry.owner,
                    DenialReason::GrantFrameMismatch,
                ));
            }
        }
        plat.machine.trace.emit(Event::Decision {
            object: PolicyObject::Git,
            op: "grant-write",
            operand: index,
            dom: entry.owner,
            allowed: true,
        });
        let base = self.grant_table_pa.add(index * GRANT_ENTRY_SIZE);
        let words = entry.to_words();
        let result = self.gates().type1(plat, |plat| {
            for (i, w) in words.iter().enumerate() {
                plat.machine
                    .host_write_u64(direct_map(base.add(8 * i as u64)), *w)
                    .map_err(GuardError::Fault)?;
            }
            Ok(())
        });
        result?;
        // Shared-state bookkeeping: grants open the frame to the host
        // (the back-end must reach the plaintext-shared page), revocation
        // closes it again.
        if entry.valid {
            let e = self.pit.peek(entry.frame);
            self.pit.set(entry.frame, e.with_shared(true));
            self.remap_dm(plat, entry.frame, entry.writable)?;
        } else if old.valid {
            let e = self.pit.peek(old.frame);
            self.pit.set(old.frame, e.with_shared(false));
            let owner_sealed =
                self.doms.get(&DomainId(old.owner)).map(|m| m.sealed).unwrap_or(false);
            if owner_sealed {
                self.unmap_dm(plat, old.frame)?;
            }
        }
        Ok(())
    }

    fn pre_sharing(
        &mut self,
        plat: &mut Platform,
        initiator: DomainId,
        target: DomainId,
        gpa_page: u64,
        nframes: u64,
        writable: bool,
    ) -> Result<(), GuardError> {
        // The authentic registration already happened at the exit
        // boundary (on_vmexit intercepts the hypercall). This path is the
        // hypervisor's relay; accept it only if it matches.
        if self.git.authorizes(initiator, target, gpa_page, writable)
            || self.git.authorizes(initiator, target, gpa_page, false)
        {
            let _ = nframes;
            Ok(())
        } else {
            Err(self.refuse(
                plat,
                PolicyObject::Git,
                "pre-sharing",
                gpa_page,
                initiator.0,
                DenialReason::PreSharingRelayMismatch,
            ))
        }
    }

    fn enter_guest(&mut self, plat: &mut Platform, dom: &mut Domain) -> Result<(), GuardError> {
        let meta = match self.doms.get(&dom.id) {
            Some(m) => *m,
            None => return Err(self.deny(plat, DenialReason::UnknownDomainAtEntry)),
        };
        // A typed integrity failure at the boundary: trace the failed
        // verification, then book the refusal (paired, under fault
        // injection, with the injected VMCB tamper's disposal).
        let tampered = |plat: &mut Platform, reason: DenialReason| {
            plat.machine.trace.emit(Event::ShadowVerify {
                vmcb_pa: dom.vmcb_pa.0,
                outcome: VerifyOutcome::Tampered(reason),
            });
            GuardError::Denied(plat.machine.fail_closed(reason, FaultKind::VmcbTamper))
        };
        let img = VmcbImage::load(&plat.machine.mc, dom.vmcb_pa).map_err(GuardError::Hw)?;
        if let Some(shadow) = self.shadows.remove(&dom.id) {
            // Entry-side shadow cost: compare + restore + checks.
            let m = &mut plat.machine;
            m.cycles.charge_as(
                CycleCategory::ShadowVerify,
                VMCB_LINES as f64 * m.cost.compare_cache_line
                    + 16.0 * m.cost.reg_copy
                    + m.cost.sanity_check
                    + m.cost.gate_dispatch,
            );
            match shadow.verify_and_merge(&img) {
                Verdict::Clean(merged) => {
                    merged.store(&mut plat.machine.mc, dom.vmcb_pa).map_err(GuardError::Hw)?;
                    let regs = shadow.merged_gprs(&dom.gpr_save);
                    plat.machine.cpu.regs.load_array(regs);
                    plat.machine.trace.emit(Event::ShadowVerify {
                        vmcb_pa: dom.vmcb_pa.0,
                        outcome: VerifyOutcome::Clean,
                    });
                }
                Verdict::IllegalField(_f) => {
                    let err = tampered(plat, DenialReason::VmcbFieldTampered);
                    // Graceful degradation: restore the clean masked image
                    // from the shadow so the tamper does not brick the
                    // domain, and re-arm the shadow so a retry is still
                    // checked.
                    shadow
                        .masked_vmcb()
                        .store(&mut plat.machine.mc, dom.vmcb_pa)
                        .map_err(GuardError::Hw)?;
                    self.shadows.insert(dom.id, shadow);
                    return Err(err);
                }
                Verdict::BadRipAdvance { .. } => {
                    let err = tampered(plat, DenialReason::GuestRipDiverted);
                    shadow
                        .masked_vmcb()
                        .store(&mut plat.machine.mc, dom.vmcb_pa)
                        .map_err(GuardError::Hw)?;
                    self.shadows.insert(dom.id, shadow);
                    return Err(err);
                }
            }
        } else {
            // First entry: verify the control fields against Fidelius's
            // own records (self-maintained SEV metadata).
            if img.get(VmcbField::Asid) != u64::from(meta.asid) {
                return Err(tampered(plat, DenialReason::AsidMismatchAtEntry));
            }
            if img.get(VmcbField::NCr3) != meta.npt_root.0 {
                return Err(tampered(plat, DenialReason::Ncr3MismatchAtEntry));
            }
            plat.machine.cpu.regs.load_array(dom.gpr_save);
        }
        self.gates().exec(plat, PrivOp::Vmrun(dom.vmcb_pa))
    }

    fn on_vmexit(&mut self, plat: &mut Platform, dom: &mut Domain) -> Result<(), GuardError> {
        let img = VmcbImage::load(&plat.machine.mc, dom.vmcb_pa).map_err(GuardError::Hw)?;
        let Some(exit) = ExitCode::from_raw(img.get(VmcbField::ExitCode)) else {
            return Err(self.deny(plat, DenialReason::VmcbFieldTampered));
        };
        let gprs = plat.machine.cpu.regs.as_array();

        // Fidelius directly handles pre_sharing_op at the boundary, from
        // the authentic (pre-masking) register values.
        if exit == ExitCode::Vmmcall
            && gprs[fidelius_hw::regs::Gpr::Rax as usize] == HC_PRE_SHARING_OP
        {
            self.git.register(GitEntry {
                initiator: dom.id,
                target: DomainId(gprs[fidelius_hw::regs::Gpr::Rdi as usize] as u16),
                gpa_page: gprs[fidelius_hw::regs::Gpr::Rsi as usize],
                nframes: gprs[fidelius_hw::regs::Gpr::Rdx as usize],
                writable: gprs[fidelius_hw::regs::Gpr::R10 as usize] & 1 != 0,
            });
        }

        let shadow = ShadowCtx::capture(img, gprs, exit);
        let masked = shadow.masked_vmcb();
        masked.store(&mut plat.machine.mc, dom.vmcb_pa).map_err(GuardError::Hw)?;
        let masked_gprs = shadow.masked_gprs();
        plat.machine.cpu.regs.load_array(masked_gprs);
        dom.gpr_save = masked_gprs;
        self.shadows.insert(dom.id, shadow);

        // Exit-side shadow cost: copy + mask + register save.
        let m = &mut plat.machine;
        m.cycles.charge_as(
            CycleCategory::ShadowVerify,
            VMCB_LINES as f64 * m.cost.copy_cache_line
                + MASKED_FIELDS_NOMINAL as f64 * m.cost.mask_field
                + 16.0 * m.cost.reg_copy
                + m.cost.sanity_check,
        );
        m.trace.emit(Event::ShadowCapture {
            vmcb_pa: dom.vmcb_pa.0,
            masked_fields: MASKED_FIELDS_NOMINAL,
        });
        Ok(())
    }

    fn exec_priv(&mut self, plat: &mut Platform, op: PrivOp) -> Result<(), GuardError> {
        let operand = match op {
            PrivOp::WriteCr3(root) => root.0,
            PrivOp::Vmrun(pa) => pa.0,
            PrivOp::Invlpg(va) => va.0,
            _ => 0,
        };
        match check_instr(&self.instr_ctx, &op) {
            InstrVerdict::Deny(reason) => {
                Err(self.refuse(plat, PolicyObject::Instr, privop_label(&op), operand, 0, reason))
            }
            InstrVerdict::Allow => {
                plat.machine.trace.emit(Event::Decision {
                    object: PolicyObject::Instr,
                    op: privop_label(&op),
                    operand,
                    dom: 0,
                    allowed: true,
                });
                if let PrivOp::Lgdt(_) | PrivOp::Lidt(_) = op {
                    let site = if matches!(op, PrivOp::Lgdt(_)) {
                        self.gates().sites.lgdt
                    } else {
                        self.gates().sites.lidt
                    };
                    let site_pa = Hpa(fidelius_xen::platform::FIDELIUS_CODE_PA.0
                        + (site.0 - fidelius_xen::layout::FIDELIUS_CODE_BASE.0));
                    if !self.once.try_use(site_pa) {
                        return Err(self.deny(plat, DenialReason::ExecuteOnceAlreadyUsed));
                    }
                }
                self.gates().exec(plat, op)
            }
        }
    }

    fn io_transform(
        &mut self,
        plat: &mut Platform,
        dom: DomainId,
        dir: IoDir,
        src_pa: Hpa,
        dst_pa: Hpa,
        sectors: u64,
        first_stream: u64,
    ) -> Result<(), GuardError> {
        let meta =
            self.sev_meta.get(&dom).copied().ok_or(GuardError::Sev(SevError::NotActivated))?;
        let helpers = match meta.io {
            Some(h) => h,
            None => {
                let h = plat.firmware.create_io_helpers(meta.handle).map_err(GuardError::Sev)?;
                self.sev_meta.get_mut(&dom).expect("meta exists").io = Some(h);
                h
            }
        };
        // One SEV command per run: s-dom's SEND_UPDATE on the write path,
        // r-dom's RECEIVE_UPDATE on the read path (paper §4.3.5).
        match dir {
            IoDir::GuestToShared => plat
                .firmware
                .io_encrypt(&mut plat.machine, helpers.sdom, src_pa, dst_pa, sectors, first_stream)
                .map_err(GuardError::Sev),
            IoDir::SharedToGuest => plat
                .firmware
                .io_decrypt(&mut plat.machine, helpers.rdom, src_pa, dst_pa, sectors, first_stream)
                .map_err(GuardError::Sev),
        }
    }

    fn on_domain_created(&mut self, plat: &mut Platform, dom: &Domain) -> Result<(), GuardError> {
        self.doms.insert(
            dom.id,
            DomMeta {
                asid: dom.asid.0,
                vmcb_pa: dom.vmcb_pa,
                npt_root: dom.npt_root,
                sealed: false,
            },
        );
        self.assignments.insert(dom.id, Assignments::default());
        self.pit.set(dom.vmcb_pa, PitEntry::new(Usage::Vmcb, dom.id.0, dom.asid.0, false));
        self.pit.set(dom.npt_root, PitEntry::new(Usage::NptPage, dom.id.0, 0, false));
        self.npt_pages
            .insert(dom.npt_root.pfn(), NptPageInfo { dom: dom.id, level: 3, gpa_prefix: 0 });
        self.write_protect_dm(plat, dom.npt_root)?;
        Ok(())
    }

    fn seal_guest(&mut self, plat: &mut Platform, dom: &Domain) -> Result<(), GuardError> {
        // Close the boot window: unmap every private (non-shared) guest
        // frame from the hypervisor's address space (§4.3.4).
        let frames: Vec<Hpa> = self
            .assignments
            .get(&dom.id)
            .map(|a| a.by_gpa.values().copied().collect())
            .unwrap_or_default();
        for f in frames {
            if !self.pit.peek(f).shared() {
                self.unmap_dm(plat, f)?;
            }
        }
        plat.machine.tlb.flush_space(fidelius_hw::tlb::Space::Host);
        plat.machine.cycles.charge_as(CycleCategory::Paging, plat.machine.cost.tlb_flush_full);
        plat.machine.trace.emit(Event::TlbFlush { scope: FlushScope::Space { guest: None } });
        if let Some(m) = self.doms.get_mut(&dom.id) {
            m.sealed = true;
        }
        Ok(())
    }

    fn on_domain_destroyed(
        &mut self,
        plat: &mut Platform,
        dom: DomainId,
    ) -> Result<(), GuardError> {
        // SEV teardown (§4.3.8): DEACTIVATE then DECOMMISSION, then erase
        // the metadata.
        if let Some(meta) = self.sev_meta.remove(&dom) {
            let _ = plat.firmware.deactivate(&mut plat.machine, meta.handle);
            let _ = plat.firmware.decommission(meta.handle);
            if let Some(io) = meta.io {
                let _ = plat.firmware.decommission(io.sdom);
                let _ = plat.firmware.decommission(io.rdom);
            }
        }
        self.shadows.remove(&dom);
        self.git.remove_domain(dom);
        // Return frames: PIT → Free, hypervisor mappings restored.
        if let Some(assign) = self.assignments.remove(&dom) {
            for frame in assign.by_gpa.into_values() {
                self.pit.clear(frame);
                self.remap_dm(plat, frame, true)?;
            }
        }
        let npt_pages: Vec<u64> =
            self.npt_pages.iter().filter(|(_, i)| i.dom == dom).map(|(pfn, _)| *pfn).collect();
        for pfn in npt_pages {
            self.npt_pages.remove(&pfn);
            let pa = Hpa::from_pfn(pfn);
            self.pit.set(pa, PitEntry::new(Usage::XenData, 0, 0, false));
            self.set_dm_entry(plat, pa, |p| p.with_flags(PTE_WRITABLE))?;
        }
        if let Some(meta) = self.doms.remove(&dom) {
            self.pit.set(meta.vmcb_pa, PitEntry::new(Usage::XenData, 0, 0, false));
        }
        Ok(())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::fidelius_mut;
    use fidelius_hw::paging::PTE_WRITABLE;
    use fidelius_hw::Gpa;
    use fidelius_xen::frontend::{gplayout, IoPath};
    use fidelius_xen::{System, XenError};

    fn system() -> System {
        System::new(32 * 1024 * 1024, 41, Box::new(Fidelius::new())).unwrap()
    }

    fn map(sys: &mut System, dom: DomainId, gpa_page: u64, frame: Hpa) -> Result<(), XenError> {
        sys.xen.npt_map(&mut sys.plat, &mut *sys.guardian, dom, gpa_page, frame, PTE_WRITABLE)
    }

    fn new_domain(sys: &mut System) -> DomainId {
        sys.xen.create_domain(&mut sys.plat, &mut *sys.guardian, 64).unwrap()
    }

    fn assert_refused(result: Result<(), XenError>, reason: DenialReason) {
        match result {
            Err(XenError::Guard(GuardError::Denied(r))) => assert_eq!(r, reason),
            other => panic!("expected {reason:?}, got {other:?}"),
        }
    }

    /// `(Denial events, denials_by_kind sum)` so far.
    fn refusal_books(sys: &System) -> (usize, u64) {
        let trace = &sys.plat.machine.trace;
        let denials =
            trace.events().iter().filter(|t| matches!(t.event, Event::Denial { .. })).count();
        (denials, trace.metrics().denials_total())
    }

    #[test]
    fn unpopulated_write_once_target_is_booked_as_a_denial() {
        let mut sys = system();
        let dom = new_domain(&mut sys);
        let (denials, booked) = refusal_books(&sys);
        let System { plat, guardian, .. } = &mut sys;
        let fid = guardian.as_any_mut().downcast_mut::<Fidelius>().unwrap();
        let err = fid.write_once_page(plat, dom, 5, b"start_info").unwrap_err();
        assert_eq!(err, GuardError::Denied(DenialReason::WriteOnceTargetUnpopulated));
        assert_eq!(refusal_books(&sys), (denials + 1, booked + 1));
    }

    #[test]
    fn unknown_exit_code_is_booked_as_a_denial() {
        let mut sys = system();
        let dom = new_domain(&mut sys);
        sys.xen.init_vmcb(&mut sys.plat, dom, Gpa(0), 0, false).unwrap();
        let vmcb_pa = sys.xen.domain(dom).unwrap().vmcb_pa;
        let mut img = VmcbImage::load(&sys.plat.machine.mc, vmcb_pa).unwrap();
        img.set(VmcbField::ExitCode, u64::MAX);
        img.store(&mut sys.plat.machine.mc, vmcb_pa).unwrap();
        let (denials, booked) = refusal_books(&sys);
        let System { plat, guardian, xen, .. } = &mut sys;
        let d = xen.domain_mut(dom).unwrap();
        let err = guardian.on_vmexit(plat, d).unwrap_err();
        assert_eq!(err, GuardError::Denied(DenialReason::VmcbFieldTampered));
        assert_eq!(refusal_books(&sys), (denials + 1, booked + 1));
    }

    /// Every domain's inverse map is exactly the inverse of its forward map.
    fn assert_inverse(sys: &mut System) {
        let fid = fidelius_mut(sys).unwrap();
        for (dom, a) in &fid.assignments {
            assert_eq!(a.by_frame.len(), a.by_gpa.len(), "{dom:?}");
            for (&gpa, &frame) in &a.by_gpa {
                assert_eq!(a.by_frame.get(&frame.pfn()), Some(&gpa), "{dom:?}");
            }
        }
    }

    #[test]
    fn inverse_index_tracks_every_claim_and_destroy() {
        let mut sys = system();
        let frames: Vec<Hpa> = (0..24).map(|_| sys.xen.guest_pool.alloc().unwrap()).collect();
        let mut doms: Vec<DomainId> = (0..3).map(|_| new_domain(&mut sys)).collect();
        let (mut x, mut claims) = (0x2545_f491_4f6c_dd1du64, 0);
        for step in 0..600 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if step % 97 == 96 {
                let victim = (x % 3) as usize;
                sys.xen.destroy_domain(&mut sys.plat, &mut *sys.guardian, doms[victim]).unwrap();
                let fid = fidelius_mut(&mut sys).unwrap();
                assert!(!fid.assignments.contains_key(&doms[victim]), "entry outlived its domain");
                doms[victim] = new_domain(&mut sys);
            } else {
                let dom = doms[(x % 3) as usize];
                let frame = frames[((x >> 8) % frames.len() as u64) as usize];
                claims += u32::from(map(&mut sys, dom, (x >> 20) % 32, frame).is_ok());
            }
            assert_inverse(&mut sys);
        }
        assert!(claims > 50, "the sequence must exercise claims, saw {claims}");
    }

    /// A `Free` PIT entry for a frame that still backs a GPA arises only from
    /// crafted state; the inverse index must still refuse a second GPA.
    #[test]
    fn frame_already_backing_a_gpa_is_refused_when_pit_says_free() {
        let mut sys = system();
        let dom = new_domain(&mut sys);
        let frame = sys.xen.guest_pool.alloc().unwrap();
        map(&mut sys, dom, 1, frame).unwrap();
        assert_refused(map(&mut sys, dom, 2, frame), DenialReason::InDomainPageShuffle);
        fidelius_mut(&mut sys).unwrap().pit.clear(frame);
        assert_refused(map(&mut sys, dom, 2, frame), DenialReason::FrameAlreadyBacksGpa);
        let last = sys.plat.machine.trace.events().into_iter().rev().find_map(|t| match t.event {
            Event::Denial { reason } => Some(reason),
            _ => None,
        });
        assert_eq!(last, Some(DenialReason::FrameAlreadyBacksGpa));
        // Re-mapping the GPA it backs is still a permission update.
        map(&mut sys, dom, 1, frame).unwrap();
    }

    /// A 192-page encrypted guest with a booted SEV-API block device.
    fn sev_api_device(sys: &mut System) -> DomainId {
        let mut owner = fidelius_sev::GuestOwner::new(41);
        let image = owner.package_image(b"kernel", &sys.plat.firmware.pdh_public());
        let dom = crate::lifecycle::boot_encrypted_guest(sys, &image, 192).unwrap();
        let disk = vec![0u8; 64 * fidelius_crypto::modes::SECTOR_SIZE];
        sys.setup_block_device(dom, disk, IoPath::SevApi, None).unwrap();
        dom
    }

    /// Every entry of the grant table, as the hardware sees it.
    fn grant_table(sys: &System) -> Vec<GrantEntry> {
        (0..GRANT_TABLE_ENTRIES)
            .map(|i| read_entry_phys(&sys.plat.machine.mc, sys.xen.grant_table_pa, i).unwrap())
            .collect()
    }

    /// Calls a grant-path gate the way dom0's relay does and checks that
    /// it refuses with `reason`, books the refusal once (one `Denial`
    /// event, counted once by the metrics registry) and leaves the grant
    /// table as it was.
    fn assert_relay_refused(
        sys: &mut System,
        reason: DenialReason,
        relay: impl FnOnce(&mut dyn Guardian, &mut Platform) -> Result<(), GuardError>,
    ) {
        let table = grant_table(sys);
        let (denials, booked) = refusal_books(sys);
        let err = relay(&mut *sys.guardian, &mut sys.plat).unwrap_err();
        assert_eq!(err, GuardError::Denied(reason));
        assert_eq!(refusal_books(sys), (denials + 1, booked + 1));
        assert_eq!(grant_table(sys), table, "a refused relay must not touch the grant table");
    }

    #[test]
    fn out_of_range_grant_index_is_refused_and_booked_once() {
        let mut sys = system();
        let dom = sev_api_device(&mut sys);
        let frame = sys.xen.domain(dom).unwrap().frame_of(gplayout::RING_PAGE).unwrap();
        let entry = GrantEntry {
            valid: true,
            writable: true,
            owner: dom.0,
            grantee: DomainId::DOM0.0,
            gpa_page: gplayout::RING_PAGE,
            frame,
        };
        assert_relay_refused(&mut sys, DenialReason::GrantIndexOutOfRange, |g, plat| {
            g.grant_write(plat, GRANT_TABLE_ENTRIES, entry)
        });
    }

    #[test]
    fn grant_naming_another_frame_is_refused_and_booked_once() {
        let mut sys = system();
        let dom = sev_api_device(&mut sys);
        let path = format!("/local/domain/{}/device/vbd/ring-ref", dom.0);
        let ring_ref: u64 = sys.xen.xenstore.read(&path).unwrap().parse().unwrap();
        let ring = read_entry_phys(&sys.plat.machine.mc, sys.xen.grant_table_pa, ring_ref).unwrap();
        assert!(ring.valid && ring.gpa_page == gplayout::RING_PAGE);
        let other = sys.xen.domain(dom).unwrap().frame_of(gplayout::HEAP_PAGE).unwrap();
        let forged = GrantEntry { frame: other, ..ring };
        assert_relay_refused(&mut sys, DenialReason::GrantFrameMismatch, |g, plat| {
            g.grant_write(plat, ring_ref, forged)
        });
    }

    #[test]
    fn undeclared_pre_sharing_relay_is_refused_and_booked_once() {
        let mut sys = system();
        let dom = sev_api_device(&mut sys);
        assert_relay_refused(&mut sys, DenialReason::PreSharingRelayMismatch, |g, plat| {
            g.pre_sharing(plat, dom, DomainId::DOM0, gplayout::HEAP_PAGE, 1, true)
        });
    }

    /// A refused SEV-API read leaves every private guest page intact. One
    /// larger than the buffer window is refused before any world switch,
    /// so Fidelius's transform never walks past the `Md` window into the
    /// page-table pool. One past the end of the 64-sector disk is answered
    /// `Error` by the back-end, so the stale shared buffer is never
    /// transformed into `Md`. Only the queue's shared ring and buffer
    /// pages may change: pushing the descriptor writes the ring.
    #[test]
    fn oversized_sev_api_read_leaves_every_guest_page_intact() {
        let shared = gplayout::RING_PAGE..gplayout::RING_PAGE + gplayout::QUEUE_STRIDE;
        for (sector, count) in [(0, 200), (100, 1)] {
            let mut sys = system();
            let dom = sev_api_device(&mut sys);
            let pages = |sys: &System| -> Vec<Vec<u8>> {
                let d = sys.xen.domain(dom).unwrap();
                (0..d.mem_pages())
                    .map(|p| {
                        let mut page = vec![0u8; PAGE_SIZE as usize];
                        let frame = d.frame_of(p).unwrap();
                        sys.plat.machine.mc.dram().read_raw(frame, &mut page).unwrap();
                        page
                    })
                    .collect()
            };
            let before = pages(&sys);
            let refused = sys.disk_read(dom, sector, count);
            assert!(matches!(refused, Err(XenError::BadBlockRequest)), "{refused:?}");
            let after = pages(&sys);
            let changed: Vec<usize> = (0..before.len())
                .filter(|&p| !shared.contains(&(p as u64)) && before[p] != after[p])
                .collect();
            assert!(
                changed.is_empty(),
                "guest pages changed by the refused read ({sector}, {count}): {changed:?}"
            );
        }
    }
}
