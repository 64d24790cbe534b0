//! The hypervisor: domain lifecycle, NPT management, grant operations,
//! exit handling and hypercall dispatch.
//!
//! All methods take the [`Platform`] and the [`Guardian`] explicitly: the
//! hypervisor *asks* the guardian to perform critical-resource writes
//! (which, under Fidelius, happen behind gates with policy checks), while
//! plain reads and service logic run directly.

use crate::blkif::BlockBackend;
use crate::domain::{Domain, DomainId, DomainState};
use crate::events::EventChannels;
use crate::grants::{read_entry_phys, GrantEntry, GRANT_TABLE_ENTRIES};
use crate::guardian::{Guardian, LateLaunchInfo};
use crate::hypercall::*;
use crate::layout::{direct_map, InstrSites};
use crate::platform::{BootInfo, Platform, FIDELIUS_CODE_PA, XEN_CODE_PA};
use crate::XenError;
use fidelius_hw::cpu::{scope, Site};
use fidelius_hw::inject::{FaultAction, InjectPoint};
use fidelius_hw::mem::FrameAllocator;
use fidelius_hw::paging::{table_index, Pte, PTE_C_BIT, PTE_PRESENT, PTE_WRITABLE};
use fidelius_hw::regs::Gpr;
use fidelius_hw::vmcb::{ExitCode, VmcbField, VmcbImage};
use fidelius_hw::{Asid, Gpa, Hpa, PAGE_SIZE};
use fidelius_telemetry::{Event, FlushScope, GrantAction, InjectionOutcome};
use fidelius_trace::{ArgValue, SpanKind};
use std::collections::BTreeMap;

/// Flight-recorder label for a hypercall dispatch.
fn hc_label(nr: u64) -> &'static str {
    match nr {
        HC_VOID => "hc:void",
        HC_EVTCHN_SEND => "hc:evtchn_send",
        HC_GRANT_TABLE_OP => "hc:grant_table_op",
        HC_PRE_SHARING_OP => "hc:pre_sharing_op",
        HC_MEM_ENCRYPT => "hc:mem_encrypt",
        HC_CONSOLE_IO => "hc:console_io",
        _ => "hc:unknown",
    }
}

/// What the run loop should do after an exit was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitAction {
    /// Re-enter the guest.
    Resume,
    /// The guest yielded (HLT); schedule someone else.
    Yield,
    /// The domain was destroyed.
    Destroyed,
}

/// The hypervisor.
#[derive(Debug)]
pub struct Hypervisor {
    /// Root of the host page tables.
    pub host_pt_root: Hpa,
    /// Heap frames (page tables, VMCBs, grant table).
    pub heap: FrameAllocator,
    /// Guest memory pool.
    pub guest_pool: FrameAllocator,
    /// All domains.
    pub domains: BTreeMap<DomainId, Domain>,
    /// Physical base of the grant table.
    pub grant_table_pa: Hpa,
    /// Event channels.
    pub events: EventChannels,
    /// Instruction sites in the hypervisor code.
    pub xen_sites: InstrSites,
    /// Instruction sites in the Fidelius code.
    pub fidelius_sites: InstrSites,
    /// The dom0 block back-ends (driver domain service), one per guest
    /// with a block device, keyed by the guest's domain.
    pub(crate) backends: BTreeMap<DomainId, BlockBackend>,
    /// The XenStore (hypervisor-maintained, untrusted rendezvous data).
    pub xenstore: crate::xenstore::XenStore,
    next_domid: u16,
    next_asid: u16,
}

impl Hypervisor {
    /// Initializes the hypervisor from boot info (allocates the grant
    /// table; domain 0 is implicit — the back-end services run on its
    /// behalf).
    ///
    /// # Errors
    ///
    /// Propagates allocation/access errors.
    pub fn init(plat: &mut Platform, mut boot: BootInfo) -> Result<Self, XenError> {
        let grant_table_pa = boot.heap.alloc()?;
        // Zero the grant table (pre-protection, direct writes are fine).
        let zero = [0u8; PAGE_SIZE as usize];
        plat.machine.host_write(direct_map(grant_table_pa), &zero)?;
        Ok(Hypervisor {
            host_pt_root: boot.host_pt_root,
            heap: boot.heap,
            guest_pool: boot.guest_pool,
            domains: BTreeMap::new(),
            grant_table_pa,
            events: EventChannels::new(),
            xen_sites: boot.xen_sites,
            fidelius_sites: boot.fidelius_sites,
            backends: BTreeMap::new(),
            xenstore: crate::xenstore::XenStore::new(),
            next_domid: 1,
            next_asid: 1,
        })
    }

    /// The guardian late-launch parameters for this hypervisor instance.
    pub fn late_launch_info(&self) -> LateLaunchInfo {
        LateLaunchInfo {
            host_pt_root: self.host_pt_root,
            grant_table_pa: self.grant_table_pa,
            xen_sites: self.xen_sites,
            fidelius_sites: self.fidelius_sites,
            xen_code: (XEN_CODE_PA, crate::layout::XEN_CODE_PAGES),
            fidelius_code: (FIDELIUS_CODE_PA, crate::layout::FIDELIUS_CODE_PAGES),
        }
    }

    /// Looks up a domain.
    ///
    /// # Errors
    ///
    /// [`XenError::NoSuchDomain`].
    pub fn domain(&self, id: DomainId) -> Result<&Domain, XenError> {
        self.domains.get(&id).ok_or(XenError::NoSuchDomain(id))
    }

    /// The block back-end serving `dom`'s device.
    ///
    /// # Errors
    ///
    /// [`XenError::BadBlockRequest`] when `dom` has no block device.
    pub fn backend(&self, dom: DomainId) -> Result<&BlockBackend, XenError> {
        self.backends.get(&dom).ok_or(XenError::BadBlockRequest)
    }

    /// The block back-end serving `dom`'s device, mutably.
    ///
    /// # Errors
    ///
    /// As [`Hypervisor::backend`].
    pub fn backend_mut(&mut self, dom: DomainId) -> Result<&mut BlockBackend, XenError> {
        self.backends.get_mut(&dom).ok_or(XenError::BadBlockRequest)
    }

    /// Looks up a domain mutably.
    ///
    /// # Errors
    ///
    /// [`XenError::NoSuchDomain`].
    pub fn domain_mut(&mut self, id: DomainId) -> Result<&mut Domain, XenError> {
        self.domains.get_mut(&id).ok_or(XenError::NoSuchDomain(id))
    }

    /// Creates a domain shell: VMCB page, empty NPT, ASID — no memory
    /// populated yet.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub fn create_domain(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        mem_pages: u64,
    ) -> Result<DomainId, XenError> {
        let vmcb_pa = self.heap.alloc()?;
        let npt_root = self.heap.alloc().or_else(|e| {
            self.heap.free(vmcb_pa)?;
            Err(e)
        })?;
        let id = DomainId(self.next_domid);
        self.next_domid += 1;
        let asid = Asid(self.next_asid);
        self.next_asid += 1;
        let zero = [0u8; PAGE_SIZE as usize];
        plat.machine.host_write(direct_map(vmcb_pa), &zero)?;
        plat.machine.host_write(direct_map(npt_root), &zero)?;
        let dom = Domain::new(id, asid, vmcb_pa, npt_root, mem_pages);
        guardian.on_domain_created(plat, &dom)?;
        self.domains.insert(id, dom);
        Ok(id)
    }

    /// Sets up the initial VMCB for a domain (guest CR3 and entry point
    /// are chosen by whoever loads the kernel).
    ///
    /// # Errors
    ///
    /// Access and lookup failures.
    pub fn init_vmcb(
        &mut self,
        plat: &mut Platform,
        id: DomainId,
        gcr3: Gpa,
        rip: u64,
        sev: bool,
    ) -> Result<(), XenError> {
        let dom = self.domain_mut(id)?;
        dom.sev = sev;
        dom.rip = rip;
        let mut img = VmcbImage::new();
        img.set(VmcbField::Asid, dom.asid.0 as u64)
            .set(VmcbField::SevEnable, u64::from(sev))
            .set(VmcbField::NCr3, dom.npt_root.0)
            .set(VmcbField::Cr3, gcr3.0)
            .set(VmcbField::Rip, rip)
            .set(VmcbField::NpEnable, 1)
            .set(VmcbField::Cr0, fidelius_hw::regs::Cr0::enabled().to_bits());
        // The hypervisor writes the VMCB through its own mapping.
        let vmcb_pa = dom.vmcb_pa;
        for (i, f) in fidelius_hw::vmcb::ALL_FIELDS.iter().enumerate() {
            plat.machine.host_write_u64(direct_map(vmcb_pa.add(8 * i as u64)), img.get(*f))?;
        }
        dom.state = DomainState::Ready;
        Ok(())
    }

    // ----- NPT management ---------------------------------------------------

    /// Maps `gpa_page` → `frame` in a domain's NPT, allocating intermediate
    /// tables from the heap; all entry writes go through the guardian.
    ///
    /// # Errors
    ///
    /// Guardian policy rejections, allocation failures.
    pub fn npt_map(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        id: DomainId,
        gpa_page: u64,
        frame: Hpa,
        flags: u64,
    ) -> Result<(), XenError> {
        let (root, asid) = {
            let dom = self.domain(id)?;
            (dom.npt_root, dom.asid.0)
        };
        let entry_pa = self.npt_leaf_entry(plat, guardian, id, root, gpa_page)?;
        guardian.npt_write(plat, id, entry_pa, Pte::new(frame, flags | PTE_PRESENT).0)?;
        // The TLB caches full translations, so a leaf rewrite must stop
        // the stale payload from being served — a remapped grant page
        // reached through a stale cached translation would be a security
        // bug, not a perf bug. A GPA-keyed demotion cannot name the
        // guest-*virtual* entries that cached this leaf's result (they
        // are keyed by guest-virtual page, and vpn != gpfn in general),
        // so the whole ASID is demoted — an O(1) generation bump, the
        // same reason real hypervisors invalidate the ASID on NPT edits.
        // Demotion (not flush) keeps every entry resident for hit
        // accounting, exactly like the walk-every-access model where an
        // edit took effect immediately without a flush.
        plat.machine.tlb.demote_space(fidelius_hw::tlb::Space::Guest(asid));
        Ok(())
    }

    /// Removes the mapping of `gpa_page` in a domain's NPT.
    ///
    /// # Errors
    ///
    /// Guardian policy rejections.
    pub fn npt_unmap(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        id: DomainId,
        gpa_page: u64,
    ) -> Result<(), XenError> {
        let (root, asid) = {
            let dom = self.domain(id)?;
            (dom.npt_root, dom.asid.0)
        };
        let va = gpa_page * PAGE_SIZE;
        let mut table = root;
        for level in (1..=3u8).rev() {
            let entry_pa = table.add(table_index(va, level) * 8);
            let pte = Pte(plat.machine.host_read_u64(direct_map(entry_pa))?);
            if !pte.present() {
                return Ok(()); // nothing mapped
            }
            table = pte.addr();
        }
        let leaf_pa = table.add(table_index(va, 0) * 8);
        guardian.npt_write(plat, id, leaf_pa, 0)?;
        // Unmapping must stop the cached translation from being served, or
        // the guest keeps reaching the revoked frame through the TLB. As
        // in `npt_map`, guest-virtual entries caching this leaf's result
        // cannot be named by the GPA, so the whole ASID is demoted.
        plat.machine.tlb.demote_space(fidelius_hw::tlb::Space::Guest(asid));
        Ok(())
    }

    /// Walks (allocating intermediate tables) to the leaf entry address
    /// for `gpa_page`.
    fn npt_leaf_entry(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        id: DomainId,
        root: Hpa,
        gpa_page: u64,
    ) -> Result<Hpa, XenError> {
        let va = gpa_page * PAGE_SIZE;
        let mut table = root;
        for level in (1..=3u8).rev() {
            let entry_pa = table.add(table_index(va, level) * 8);
            let pte = Pte(plat.machine.host_read_u64(direct_map(entry_pa))?);
            if pte.present() {
                table = pte.addr();
            } else {
                let new_table = self.heap.alloc()?;
                // Zero it while it is still an ordinary heap page…
                let zero = [0u8; PAGE_SIZE as usize];
                plat.machine.host_write(direct_map(new_table), &zero)?;
                // …then hand it over through the guardian (Fidelius will
                // reclassify it as an NPT page and write-protect it).
                guardian.npt_write(
                    plat,
                    id,
                    entry_pa,
                    Pte::new(new_table, PTE_PRESENT | PTE_WRITABLE | fidelius_hw::paging::PTE_USER)
                        .0,
                )?;
                table = new_table;
            }
        }
        Ok(table.add(table_index(va, 0) * 8))
    }

    /// Handles a nested page fault: allocates a backing frame on first
    /// touch and maps it.
    ///
    /// # Errors
    ///
    /// Out-of-range GPAs, pool exhaustion, guardian rejections.
    pub fn handle_npf(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        id: DomainId,
        gpa: Gpa,
    ) -> Result<(), XenError> {
        let page = gpa.pfn();
        let dom = self.domain(id)?;
        if page >= dom.mem_pages() {
            return Err(XenError::BadGpa(gpa.0));
        }
        let (frame, fresh) = match dom.frame_of(page) {
            Some(f) => (f, false),
            None => (self.guest_pool.alloc()?, true),
        };
        let enc = self.domain(id)?.npt_c_default;
        let flags = PTE_WRITABLE | if enc { PTE_C_BIT } else { 0 };
        self.npt_map(plat, guardian, id, page, frame, flags)?;
        if fresh {
            self.domain_mut(id)?.frames[page as usize] = Some(frame);
        }
        Ok(())
    }

    /// Pre-populates every guest page (the paper notes Xen allocates most
    /// physical memory for the guest up front, so NPT updates batch at
    /// boot and NPT violations are rare at runtime).
    ///
    /// # Errors
    ///
    /// Pool exhaustion, guardian rejections.
    pub fn populate_all(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        id: DomainId,
    ) -> Result<(), XenError> {
        let pages = self.domain(id)?.mem_pages();
        for p in 0..pages {
            if self.domain(id)?.frame_of(p).is_none() {
                let frame = self.guest_pool.alloc()?;
                let enc = self.domain(id)?.npt_c_default;
                let flags = PTE_WRITABLE | if enc { PTE_C_BIT } else { 0 };
                // A frame that never reached the domain goes back to the
                // pool here: the domain's teardown frees only its own.
                self.npt_map(plat, guardian, id, p, frame, flags).or_else(|e| {
                    self.guest_pool.free(frame)?;
                    Err(e)
                })?;
                self.domain_mut(id)?.frames[p as usize] = Some(frame);
            }
        }
        Ok(())
    }

    // ----- grant operations --------------------------------------------------

    fn find_free_grant(&self, plat: &Platform) -> Result<u64, XenError> {
        for i in 0..GRANT_TABLE_ENTRIES {
            let e = read_entry_phys(&plat.machine.mc, self.grant_table_pa, i)?;
            if !e.valid {
                return Ok(i);
            }
        }
        Err(XenError::OutOfMemory)
    }

    /// `GrantAccess`: domain `owner` shares its `gpa_page` with `grantee`.
    /// Returns the grant reference.
    ///
    /// # Errors
    ///
    /// Unpopulated pages, table exhaustion, guardian (GIT) rejections.
    pub fn grant_access(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        owner: DomainId,
        grantee: DomainId,
        gpa_page: u64,
        writable: bool,
    ) -> Result<u64, XenError> {
        let frame = self.domain(owner)?.frame_of(gpa_page).ok_or(XenError::BadGrant(gpa_page))?;
        let index = self.find_free_grant(plat)?;
        let entry = GrantEntry {
            valid: true,
            writable,
            owner: owner.0,
            grantee: grantee.0,
            gpa_page,
            frame,
        };
        guardian.grant_write(plat, index, entry)?;
        plat.machine.trace.emit(Event::Grant {
            action: GrantAction::Offer,
            granter: owner.0,
            peer: grantee.0,
            frame: frame.pfn(),
        });
        Ok(index)
    }

    /// `MapGrantRef`: `grantee` maps the granted frame at its own
    /// `dest_gpa_page`.
    ///
    /// # Errors
    ///
    /// Invalid references, permission mismatches, guardian rejections.
    pub fn map_grant_ref(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        grantee: DomainId,
        grant_ref: u64,
        dest_gpa_page: u64,
        writable: bool,
    ) -> Result<(), XenError> {
        if grant_ref >= GRANT_TABLE_ENTRIES {
            return Err(XenError::BadGrant(grant_ref));
        }
        let entry = read_entry_phys(&plat.machine.mc, self.grant_table_pa, grant_ref)?;
        if !entry.valid || DomainId(entry.grantee) != grantee {
            return Err(XenError::BadGrant(grant_ref));
        }
        if writable && !entry.writable {
            return Err(XenError::BadGrant(grant_ref));
        }
        let flags = if writable { PTE_WRITABLE } else { 0 };
        self.npt_map(plat, guardian, grantee, dest_gpa_page, entry.frame, flags)?;
        plat.machine.trace.emit(Event::Grant {
            action: GrantAction::Map,
            granter: entry.owner,
            peer: grantee.0,
            frame: entry.frame.pfn(),
        });
        Ok(())
    }

    /// `UnmapGrantRef`.
    ///
    /// # Errors
    ///
    /// Guardian rejections.
    pub fn unmap_grant_ref(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        grantee: DomainId,
        dest_gpa_page: u64,
    ) -> Result<(), XenError> {
        let frame = self.domain(grantee)?.frame_of(dest_gpa_page);
        self.npt_unmap(plat, guardian, grantee, dest_gpa_page)?;
        plat.machine.trace.emit(Event::Grant {
            action: GrantAction::Unmap,
            granter: grantee.0,
            peer: grantee.0,
            frame: frame.map(|f| f.pfn()).unwrap_or(0),
        });
        Ok(())
    }

    /// `EndAccess`: the owner revokes a grant.
    ///
    /// # Errors
    ///
    /// Invalid references, guardian rejections.
    pub fn end_access(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        owner: DomainId,
        grant_ref: u64,
    ) -> Result<(), XenError> {
        if grant_ref >= GRANT_TABLE_ENTRIES {
            return Err(XenError::BadGrant(grant_ref));
        }
        let entry = read_entry_phys(&plat.machine.mc, self.grant_table_pa, grant_ref)?;
        if !entry.valid || DomainId(entry.owner) != owner {
            return Err(XenError::BadGrant(grant_ref));
        }
        guardian.grant_write(plat, grant_ref, GrantEntry::default())?;
        plat.machine.trace.emit(Event::Grant {
            action: GrantAction::End,
            granter: owner.0,
            peer: entry.grantee,
            frame: entry.frame.pfn(),
        });
        Ok(())
    }

    // ----- exit handling -------------------------------------------------------

    /// Handles the pending #VMEXIT of `id`. The CPU is in host mode; the
    /// VMCB holds the exit information (masked, under Fidelius).
    ///
    /// # Errors
    ///
    /// Propagates handler failures.
    pub fn handle_exit(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        id: DomainId,
    ) -> Result<ExitAction, XenError> {
        let vmcb_pa = self.domain(id)?.vmcb_pa;
        let img = VmcbImage::load(&plat.machine.mc, vmcb_pa)?;
        let code = ExitCode::from_raw(img.get(VmcbField::ExitCode))
            .ok_or(XenError::BadHypercall(img.get(VmcbField::ExitCode)))?;
        match code {
            ExitCode::Vmmcall => {
                let nr = plat.machine.cpu.regs.get(Gpr::Rax);
                let args = [
                    plat.machine.cpu.regs.get(Gpr::Rdi),
                    plat.machine.cpu.regs.get(Gpr::Rsi),
                    plat.machine.cpu.regs.get(Gpr::Rdx),
                    plat.machine.cpu.regs.get(Gpr::R10),
                ];
                let ret = self.hypercall(plat, guardian, id, nr, args)?;
                // The return value goes into the *saved* guest context:
                // the VMCB RAX slot and the hypervisor's register save
                // area (live registers are rebuilt at entry).
                plat.machine.cpu.regs.set(Gpr::Rax, ret);
                let dom = self.domain_mut(id)?;
                dom.gpr_save[Gpr::Rax as usize] = ret;
                plat.machine
                    .host_write_u64(direct_map(vmcb_pa.add(8 * VmcbField::Rax as u64)), ret)?;
                // Skip the VMMCALL instruction.
                let rip = img.get(VmcbField::Rip);
                plat.machine
                    .host_write_u64(direct_map(vmcb_pa.add(8 * VmcbField::Rip as u64)), rip + 3)?;
                Ok(ExitAction::Resume)
            }
            ExitCode::Cpuid => {
                // Emulate a fixed CPUID: vendor string in rbx/rcx/rdx.
                // Only these four registers may change — Table 5.1's
                // example policy checks exactly that.
                let values = [
                    (Gpr::Rax, 0x17u64),
                    (Gpr::Rbx, 0x6874_7541), // "Auth"
                    (Gpr::Rcx, 0x444D_4163), // "cAMD"
                    (Gpr::Rdx, 0x6974_6E65), // "enti"
                ];
                let dom = self.domain_mut(id)?;
                for (r, v) in values {
                    plat.machine.cpu.regs.set(r, v);
                    dom.gpr_save[r as usize] = v;
                }
                plat.machine
                    .host_write_u64(direct_map(vmcb_pa.add(8 * VmcbField::Rax as u64)), 0x17)?;
                let rip = img.get(VmcbField::Rip);
                plat.machine
                    .host_write_u64(direct_map(vmcb_pa.add(8 * VmcbField::Rip as u64)), rip + 2)?;
                Ok(ExitAction::Resume)
            }
            ExitCode::NestedPageFault => {
                let gpa = Gpa(img.get(VmcbField::ExitInfo1));
                self.handle_npf(plat, guardian, id, gpa)?;
                Ok(ExitAction::Resume)
            }
            ExitCode::Hlt | ExitCode::Intr => Ok(ExitAction::Yield),
            ExitCode::Shutdown => {
                self.destroy_domain(plat, guardian, id)?;
                Ok(ExitAction::Destroyed)
            }
            ExitCode::Msr | ExitCode::IoPort => Ok(ExitAction::Resume),
        }
    }

    /// Dispatches a hypercall from domain `id`.
    ///
    /// # Errors
    ///
    /// Internal failures only; guest-visible errors come back as return
    /// codes.
    pub fn hypercall(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        id: DomainId,
        nr: u64,
        args: [u64; 4],
    ) -> Result<u64, XenError> {
        let span_args = [("nr", ArgValue::U64(nr)), ("dom", ArgValue::U64(id.0 as u64))];
        scope(plat, Site::new(SpanKind::Hypercall, hc_label(nr)).args(&span_args), |plat| {
            plat.machine.cycles.charge(plat.machine.cost.hypercall_base);
            plat.machine.trace.emit(Event::Hypercall { dom: id.0, nr });
            // Adversarial hook: while the hypervisor holds the CPU to service a
            // request, it may misuse its NPT-management powers (Table 1).
            if let Some(action) = plat.machine.inject_at(InjectPoint::Hypercall) {
                self.apply_npt_adversary(plat, guardian, id, action)?;
            }
            match nr {
                HC_VOID => Ok(RET_OK),
                HC_CONSOLE_IO => Ok(RET_OK),
                HC_EVTCHN_SEND => {
                    // Adversarial hook: notifications pass through hypervisor
                    // hands — it can swallow them, or use the delivery window
                    // to yank the grants the pending I/O depends on.
                    if let Some(action) = plat.machine.inject_at(InjectPoint::EventSend) {
                        match action {
                            FaultAction::DropEvent => {
                                // The notification is silently discarded; the
                                // sender observes the error return and retries
                                // (the outcome event is emitted by whoever owns
                                // the retry loop).
                                return Ok(RET_ERROR);
                            }
                            FaultAction::RevokeGrants => {
                                match self.revoke_all_grants(plat, guardian, id) {
                                    // Outcome is emitted by the back-end when
                                    // its re-validation trips over this.
                                    Ok(()) => {}
                                    Err(XenError::Guard(_)) => {
                                        plat.machine.trace.emit(Event::FaultOutcome {
                                            kind: fidelius_telemetry::FaultKind::GrantRevokeMidIo,
                                            outcome: InjectionOutcome::Tolerated,
                                        });
                                    }
                                    Err(e) => return Err(e),
                                }
                            }
                            other => {
                                plat.machine.trace.emit(Event::FaultOutcome {
                                    kind: other.kind(),
                                    outcome: InjectionOutcome::Tolerated,
                                });
                            }
                        }
                    }
                    let port = args[0] as u32;
                    let span_args = [("port", ArgValue::U64(port as u64))];
                    let send = Site::new(SpanKind::EventSend, "evtchn:send").args(&span_args);
                    let sent = scope(plat, send, |_| self.events.send(id, port));
                    match sent {
                        Some(_peer) => Ok(RET_OK),
                        None => Ok(RET_ERROR),
                    }
                }
                HC_GRANT_TABLE_OP => {
                    let Some(op) = GrantOp::from_raw(args[0]) else {
                        return Ok(RET_ERROR);
                    };
                    let res = match op {
                        GrantOp::GrantAccess => self.grant_access(
                            plat,
                            guardian,
                            id,
                            DomainId(args[1] as u16),
                            args[2],
                            args[3] & 1 != 0,
                        ),
                        GrantOp::MapGrantRef => self
                            .map_grant_ref(plat, guardian, id, args[1], args[2], args[3] & 1 != 0)
                            .map(|()| RET_OK),
                        GrantOp::UnmapGrantRef => {
                            self.unmap_grant_ref(plat, guardian, id, args[2]).map(|()| RET_OK)
                        }
                        GrantOp::EndAccess => {
                            self.end_access(plat, guardian, id, args[1]).map(|()| RET_OK)
                        }
                    };
                    match res {
                        Ok(v) => Ok(v),
                        Err(XenError::Guard(_)) => Ok(RET_EPERM),
                        Err(_) => Ok(RET_ERROR),
                    }
                }
                HC_PRE_SHARING_OP => {
                    let target = DomainId(args[0] as u16);
                    let gpa_page = args[1];
                    let nframes = args[2];
                    let writable = args[3] & 1 != 0;
                    match guardian.pre_sharing(plat, id, target, gpa_page, nframes, writable) {
                        Ok(()) => Ok(RET_OK),
                        Err(_) => Ok(RET_ENOSYS),
                    }
                }
                HC_MEM_ENCRYPT => match self.enable_npt_encryption(plat, guardian, id) {
                    Ok(()) => Ok(RET_OK),
                    Err(XenError::Guard(_)) => Ok(RET_EPERM),
                    Err(_) => Ok(RET_ERROR),
                },
                _ => Ok(RET_ENOSYS),
            }
        })
    }

    /// Applies an injected NPT remap/swap against domain `id`'s populated
    /// pages and reports the disposal: under a guardian that mediates NPT
    /// writes the attempt fails closed with the policy's typed reason;
    /// under an unprotected guardian it lands and a `Corrupted` outcome is
    /// emitted so the corruption is never silent on the trace.
    pub(crate) fn apply_npt_adversary(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        id: DomainId,
        action: FaultAction,
    ) -> Result<(), XenError> {
        use fidelius_telemetry::FaultKind;
        let (page_hint, swap) = match action {
            FaultAction::RemapGpa { page_hint } => (page_hint, false),
            FaultAction::SwapGpas { page_hint } => (page_hint, true),
            other => {
                // A schedule that fires anything else here has nothing to
                // act on — trivially tolerated.
                plat.machine.trace.emit(Event::FaultOutcome {
                    kind: other.kind(),
                    outcome: InjectionOutcome::Tolerated,
                });
                return Ok(());
            }
        };
        let kind = if swap { FaultKind::NptSwap } else { FaultKind::NptRemap };
        let dom = self.domain(id)?;
        let populated: Vec<(u64, Hpa)> =
            (0..dom.mem_pages()).filter_map(|p| dom.frame_of(p).map(|f| (p, f))).collect();
        if populated.len() < 2 {
            plat.machine
                .trace
                .emit(Event::FaultOutcome { kind, outcome: InjectionOutcome::Tolerated });
            return Ok(());
        }
        let i = (page_hint as usize) % populated.len();
        let j = (i + 1) % populated.len();
        let (p1, f1) = populated[i];
        let (p2, f2) = populated[j];
        let root = dom.npt_root;
        let asid = dom.asid.0;
        let flags = PTE_PRESENT | PTE_WRITABLE | if dom.npt_c_default { PTE_C_BIT } else { 0 };
        let mut wrote = false;
        let res: Result<(), XenError> = (|| {
            let e1 = self.npt_leaf_entry(plat, guardian, id, root, p1)?;
            guardian.npt_write(plat, id, e1, Pte::new(f2, flags).0)?;
            wrote = true;
            if swap {
                let e2 = self.npt_leaf_entry(plat, guardian, id, root, p2)?;
                guardian.npt_write(plat, id, e2, Pte::new(f1, flags).0)?;
            }
            Ok(())
        })();
        // Even a partially-landed remap (first write accepted, second
        // denied) rewrote a leaf; the TLB caches full translations and
        // must never serve the pre-remap frame. Demotion keeps hit
        // accounting as if no flush happened (the fail-closed paths never
        // flushed), while the success path below keeps its full flush.
        if wrote && res.is_err() {
            plat.machine.tlb.demote_space(fidelius_hw::tlb::Space::Guest(asid));
        }
        let outcome = match res {
            // The remap landed. Flush stale translations so the damage is
            // architecturally visible, and mark it on the trace.
            Ok(()) => {
                plat.machine.tlb.flush_space(fidelius_hw::tlb::Space::Guest(asid));
                InjectionOutcome::Corrupted
            }
            // The guardian already booked the denial; pair it with the
            // injection. An error that is not a refusal propagates.
            Err(e) => InjectionOutcome::FailClosed(e.denial().ok_or(e)?),
        };
        plat.machine.trace.emit(Event::FaultOutcome { kind, outcome });
        Ok(())
    }

    /// Invalidates every live grant owned by `id` — the adversarial
    /// revocation-under-I/O scenario. The writes go through the guardian
    /// like any legitimate grant-table update (revocation is within the
    /// hypervisor's Table-1 management rights); the burden of surviving it
    /// falls on the back-end's re-validation.
    fn revoke_all_grants(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        id: DomainId,
    ) -> Result<(), XenError> {
        for i in 0..GRANT_TABLE_ENTRIES {
            let e = read_entry_phys(&plat.machine.mc, self.grant_table_pa, i)?;
            if e.valid && DomainId(e.owner) == id {
                guardian.grant_write(plat, i, GrantEntry::default())?;
                plat.machine.trace.emit(Event::Grant {
                    action: GrantAction::End,
                    granter: id.0,
                    peer: e.grantee,
                    frame: e.frame.pfn(),
                });
            }
        }
        Ok(())
    }

    /// Fidelius-enc support: set the C-bit on all current and future NPT
    /// leaf mappings of a domain, so its memory is SME-encrypted
    /// (the paper's simulation of SEV overhead, §7.1).
    ///
    /// # Errors
    ///
    /// Guardian rejections.
    pub fn enable_npt_encryption(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        id: DomainId,
    ) -> Result<(), XenError> {
        self.domain_mut(id)?.npt_c_default = true;
        let pages = self.domain(id)?.mem_pages();
        let root = self.domain(id)?.npt_root;
        for p in 0..pages {
            if let Some(frame) = self.domain(id)?.frame_of(p) {
                let entry_pa = self.npt_leaf_entry(plat, guardian, id, root, p)?;
                let old = Pte(plat.machine.host_read_u64(direct_map(entry_pa))?);
                if old.present() {
                    guardian.npt_write(plat, id, entry_pa, old.with_flags(PTE_C_BIT).0)?;
                }
                let _ = frame;
            }
        }
        // Stale translations must go.
        let asid = self.domain(id)?.asid.0;
        plat.machine.tlb.flush_space(fidelius_hw::tlb::Space::Guest(asid));
        plat.machine.cycles.charge_as(
            fidelius_hw::cycles::CycleCategory::Paging,
            plat.machine.cost.tlb_flush_full,
        );
        plat.machine.trace.emit(Event::TlbFlush { scope: FlushScope::Space { guest: Some(asid) } });
        Ok(())
    }

    /// Destroys a domain: frees frames, clears grants and events.
    ///
    /// # Errors
    ///
    /// Bookkeeping failures.
    pub fn destroy_domain(
        &mut self,
        plat: &mut Platform,
        guardian: &mut dyn Guardian,
        id: DomainId,
    ) -> Result<(), XenError> {
        // Invalidate grants owned by the domain.
        for i in 0..GRANT_TABLE_ENTRIES {
            let e = read_entry_phys(&plat.machine.mc, self.grant_table_pa, i)?;
            if e.valid && (DomainId(e.owner) == id || DomainId(e.grantee) == id) {
                guardian.grant_write(plat, i, GrantEntry::default())?;
            }
        }
        self.events.unbind_domain(id);
        self.xenstore.remove_domain(id);
        self.backends.remove(&id);
        guardian.on_domain_destroyed(plat, id)?;
        let dom = self.domain_mut(id)?;
        dom.state = DomainState::Dead;
        let frames: Vec<Hpa> = dom.frames.iter().flatten().copied().collect();
        dom.frames.iter_mut().for_each(|f| *f = None);
        for f in frames {
            self.guest_pool.free(f)?;
        }
        Ok(())
    }
}
