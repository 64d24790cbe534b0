//! The system orchestrator: wires platform, hypervisor, guardian, guest
//! front-ends and the dom0 back-end together and drives world switches.
//!
//! The "guest kernel" is modelled as orchestrated sequences of guest-mode
//! operations (stage-1 page-table construction, front-end driver calls,
//! hypercalls); every memory touch goes through the CPU's checked guest
//! paths, every host service through the #VMEXIT → handle → VMRUN cycle,
//! so the protection semantics are exactly those of the simulated
//! hardware.

use crate::blkif::{BlkOp, BlkStatus, RING_SLOTS, SECTORS_PER_PAGE};
use crate::domain::{DomainId, DomainState};
use crate::events::Port;
use crate::frontend::{gplayout, FrontEnd, GuestPtAccess, IoPath};
use crate::grants::read_entry_phys;
use crate::guardian::{Guardian, IoDir};
use crate::hypercall::*;
use crate::hypervisor::{ExitAction, Hypervisor};
use crate::layout::direct_map;
use crate::platform::Platform;
use crate::XenError;
use fidelius_crypto::modes::SECTOR_SIZE;
use fidelius_crypto::Key128;
use fidelius_hw::cpu::{scope, Fidelity, Machine, Site};
use fidelius_hw::fxhash::FxBuildHasher;
use fidelius_hw::inject::{FaultAction, InjectPoint};
use fidelius_hw::mem::FrameAllocator;
use fidelius_hw::paging::{Mapper, PTE_C_BIT, PTE_WRITABLE};
use fidelius_hw::regs::Gpr;
use fidelius_hw::vmcb::{ExitCode, VmcbField};
use fidelius_hw::{Fault, Gpa, Hpa, PAGE_SIZE};
use fidelius_telemetry::{DenialReason, Event, FaultKind, InjectionOutcome};
use fidelius_trace::{ArgValue, SpanKind};
use std::collections::HashMap;

/// Flight-recorder label for a VMEXIT round trip.
fn exit_label(code: ExitCode) -> &'static str {
    match code {
        ExitCode::Cpuid => "vmexit:cpuid",
        ExitCode::Vmmcall => "vmexit:vmmcall",
        ExitCode::Hlt => "vmexit:hlt",
        ExitCode::NestedPageFault => "vmexit:npf",
        ExitCode::Msr => "vmexit:msr",
        ExitCode::IoPort => "vmexit:ioport",
        ExitCode::Intr => "vmexit:intr",
        ExitCode::Shutdown => "vmexit:shutdown",
    }
}

/// Configuration for creating a guest.
#[derive(Debug, Clone)]
pub struct GuestConfig {
    /// Guest memory size in pages.
    pub mem_pages: u64,
    /// Enable SEV (vanilla hypervisor-managed launch flow).
    pub sev: bool,
    /// Plaintext kernel image, loaded at [`gplayout::KERNEL_PAGE`].
    pub kernel: Vec<u8>,
}

impl Default for GuestConfig {
    fn default() -> Self {
        GuestConfig { mem_pages: 256, sev: false, kernel: b"default kernel".to_vec() }
    }
}

/// The full system under test.
pub struct System {
    /// Hardware + firmware.
    pub plat: Platform,
    /// The hypervisor.
    pub xen: Hypervisor,
    /// The protection layer (vanilla or Fidelius).
    pub guardian: Box<dyn Guardian>,
    /// Per-domain front-end driver state.
    pub frontends: HashMap<DomainId, FrontEnd, FxBuildHasher>,
    /// Per-domain I/O queue plan: the queues the guest was booted for
    /// (see [`System::queue_plan`]).
    queue_plan: HashMap<DomainId, u64, FxBuildHasher>,
    current_guest: Option<DomainId>,
}

/// One operation of a batched multi-request disk dispatch
/// ([`System::disk_batch`]).
#[derive(Debug, Clone)]
pub enum BatchOp {
    /// Write `data` (whole sectors) at `sector`.
    Write {
        /// Starting sector.
        sector: u64,
        /// Whole-sector payload.
        data: Vec<u8>,
    },
    /// Read `count` sectors at `sector`.
    Read {
        /// Starting sector.
        sector: u64,
        /// Number of sectors.
        count: u64,
    },
}

/// Per-request `(status, read payload)` pairs from one batched
/// dispatch, in submission order.
pub type BatchResults = Vec<(BlkStatus, Option<Vec<u8>>)>;

impl BatchOp {
    fn sector_count(&self) -> u64 {
        match self {
            BatchOp::Write { data, .. } => (data.len() / SECTOR_SIZE) as u64,
            BatchOp::Read { count, .. } => *count,
        }
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("guardian", &self.guardian.name())
            .field("domains", &self.xen.domains.len())
            .finish()
    }
}

impl AsMut<Machine> for System {
    fn as_mut(&mut self) -> &mut Machine {
        &mut self.plat.machine
    }
}

impl System {
    /// Boots the platform, initializes the hypervisor and late-launches
    /// the guardian.
    ///
    /// # Errors
    ///
    /// Boot/initialization failures.
    pub fn new(dram_size: u64, seed: u64, guardian: Box<dyn Guardian>) -> Result<Self, XenError> {
        Self::new_with_firmware(dram_size, seed, fidelius_sev::FwMode::Retrofit, guardian)
    }

    /// Like [`System::new`] but with an explicit SEV firmware build
    /// ([`fidelius_sev::FwMode`]). The attack matrix boots its undefended
    /// victims on vanilla firmware so the successor attacks run against
    /// what real pre-retrofit SEV actually checks.
    ///
    /// # Errors
    ///
    /// Boot/initialization failures.
    pub fn new_with_firmware(
        dram_size: u64,
        seed: u64,
        fw_mode: fidelius_sev::FwMode,
        mut guardian: Box<dyn Guardian>,
    ) -> Result<Self, XenError> {
        let (mut plat, boot) = Platform::boot_with_firmware(dram_size, seed, fw_mode)?;
        let xen = Hypervisor::init(&mut plat, boot)?;
        guardian.late_launch(&mut plat, &xen.late_launch_info())?;
        Ok(System {
            plat,
            xen,
            guardian,
            frontends: HashMap::default(),
            queue_plan: HashMap::default(),
            current_guest: None,
        })
    }

    /// The domain currently in guest mode, if any.
    pub fn current_guest(&self) -> Option<DomainId> {
        self.current_guest
    }

    // ----- world switching -------------------------------------------------

    /// Enters `dom` (host → guest).
    ///
    /// # Errors
    ///
    /// Guardian integrity rejections, faults.
    pub fn enter(&mut self, dom: DomainId) -> Result<(), XenError> {
        self.enter_raw(dom)?;
        // Adversarial hook: the hypervisor may bounce the freshly entered
        // guest through a burst of spurious exits. Each round trip runs the
        // full capture/verify machinery; the guest must come out identical.
        if let Some(action) = self.plat.machine.inject_at(InjectPoint::GuestEntered) {
            match action {
                FaultAction::StormExits { count } => {
                    for _ in 0..count {
                        self.exit_and_handle(ExitCode::Intr, 0, 0)?;
                        self.enter_raw(dom)?;
                    }
                    self.plat.machine.trace.emit(Event::FaultOutcome {
                        kind: FaultKind::VmexitStorm,
                        outcome: InjectionOutcome::Tolerated,
                    });
                }
                remap @ (FaultAction::RemapGpa { .. } | FaultAction::SwapGpas { .. }) => {
                    // Remap storm under a live guest (the SEVered setup):
                    // the hypervisor yanks the freshly entered guest back
                    // out, rewrites NPT leaves while its translations are
                    // hot in the TLB, and resumes. The PR 5 demotion rules
                    // must make the rewrite architecturally visible — or
                    // the guardian fails it closed.
                    self.exit_and_handle(ExitCode::Intr, 0, 0)?;
                    self.xen.apply_npt_adversary(
                        &mut self.plat,
                        &mut *self.guardian,
                        dom,
                        remap,
                    )?;
                    self.enter_raw(dom)?;
                }
                other => {
                    self.plat.machine.trace.emit(Event::FaultOutcome {
                        kind: other.kind(),
                        outcome: InjectionOutcome::Tolerated,
                    });
                }
            }
        }
        Ok(())
    }

    /// The world switch itself, without the injection hook (so storm round
    /// trips do not re-query the schedule recursively).
    fn enter_raw(&mut self, dom: DomainId) -> Result<(), XenError> {
        assert!(self.current_guest.is_none(), "already in guest mode");
        let d = self.xen.domains.get_mut(&dom).ok_or(XenError::NoSuchDomain(dom))?;
        self.guardian.enter_guest(&mut self.plat, d)?;
        self.current_guest = Some(dom);
        Ok(())
    }

    /// Exits the current guest with `code` and lets the hypervisor handle
    /// it.
    ///
    /// # Errors
    ///
    /// Handler failures.
    pub fn exit_and_handle(
        &mut self,
        code: ExitCode,
        info1: u64,
        info2: u64,
    ) -> Result<ExitAction, XenError> {
        // The span opens while still in guest mode, so the round trip lands
        // on the exiting guest's track; everything the hypervisor does in
        // between (handlers, hypercall dispatch, adversary hooks) nests
        // under it.
        let args = [("code", ArgValue::U64(code as u64))];
        scope(self, Site::new(SpanKind::VmExit, exit_label(code)).args(&args), |sys| {
            let dom = sys.current_guest.take().expect("no guest to exit");
            sys.plat.machine.vmexit(code, info1, info2)?;
            let d = sys.xen.domains.get_mut(&dom).ok_or(XenError::NoSuchDomain(dom))?;
            sys.guardian.on_vmexit(&mut sys.plat, d)?;
            let action = sys.xen.handle_exit(&mut sys.plat, &mut *sys.guardian, dom)?;
            // Adversarial hook: between exit handling and the next entry the
            // hypervisor holds the CPU and may tamper with the (unencrypted)
            // VMCB or go after the guest's sealed memory.
            if action != ExitAction::Destroyed {
                if let Some(fault) = sys.plat.machine.inject_at(InjectPoint::PostExit) {
                    sys.apply_post_exit_adversary(dom, fault)?;
                }
            }
            Ok(action)
        })
    }

    /// Applies a post-exit adversarial action against `dom`.
    ///
    /// VMCB tampering always lands (SEV leaves the VMCB hypervisor-
    /// writable — the paper's §4.2.1 motivation); its outcome is decided at
    /// the next entry, where a shadowing guardian detects the divergence.
    /// Ciphertext replay/splice is attempted through the hypervisor's own
    /// mappings and fails closed when the guest's frames are sealed.
    fn apply_post_exit_adversary(
        &mut self,
        dom: DomainId,
        fault: FaultAction,
    ) -> Result<(), XenError> {
        match fault {
            FaultAction::TamperVmcbField { field_hint, xor } => {
                // The exit policies make none of the five targets
                // hypervisor-writable except RIP, and RIP only to skip the
                // exited instruction (never on HLT); a shadowing guardian
                // must refuse any other write at the next entry.
                const TARGETS: [VmcbField; 5] = [
                    VmcbField::NCr3,
                    VmcbField::Asid,
                    VmcbField::Cr3,
                    VmcbField::Efer,
                    VmcbField::Rip,
                ];
                let field = TARGETS[(field_hint as usize) % TARGETS.len()];
                let pa = self.xen.domain(dom)?.vmcb_pa.add(8 * field as u64);
                let cur = self.plat.machine.host_read_u64(direct_map(pa))?;
                self.plat.machine.host_write_u64(direct_map(pa), cur ^ (xor | 1))?;
                // No outcome here: the verdict falls at the next entry
                // (shadow verify under Fidelius emits it; under an
                // unprotected guardian the tamper runs — which is exactly
                // the vulnerability the unit tests demonstrate).
            }
            FaultAction::ReplayCiphertext { page_hint }
            | FaultAction::SpliceCiphertext { page_hint } => {
                let kind = fault.kind();
                let splice = matches!(fault, FaultAction::SpliceCiphertext { .. });
                let plan = self.queue_plan(dom);
                let d = self.xen.domain(dom)?;
                // Only private pages: shared ring/buffer pages (any queue)
                // are hypervisor-writable by design and prove nothing.
                let private: Vec<Hpa> = (0..d.mem_pages())
                    .filter(|p| !Self::shared_io_page(plan, *p))
                    .filter_map(|p| d.frame_of(p))
                    .collect();
                if private.is_empty() {
                    self.plat
                        .machine
                        .trace
                        .emit(Event::FaultOutcome { kind, outcome: InjectionOutcome::Tolerated });
                    return Ok(());
                }
                let target = private[(page_hint as usize) % private.len()];
                let source =
                    if splice { private[(page_hint as usize + 1) % private.len()] } else { target };
                // Physical capture of the source ciphertext (the attacker's
                // recorder sees DRAM), then a *software* write through the
                // hypervisor's direct map — the move SEV alone permits.
                let mut ct = vec![0u8; 64];
                self.plat.machine.mc.dram().read_raw(source, &mut ct)?;
                match self.plat.machine.host_write(direct_map(target), &ct) {
                    Ok(()) => {
                        // The write landed. In-place replay of the current
                        // ciphertext is an identity; a cross-frame splice
                        // really corrupts.
                        let outcome = if splice && source != target {
                            InjectionOutcome::Corrupted
                        } else {
                            InjectionOutcome::Tolerated
                        };
                        self.plat.machine.trace.emit(Event::FaultOutcome { kind, outcome });
                    }
                    Err(_) => {
                        // Sealed frames are unmapped from every hypervisor
                        // view; the attempt faults and is audited.
                        self.plat.machine.fail_closed(DenialReason::SealedFrameAccess, kind);
                    }
                }
            }
            other => {
                self.plat.machine.trace.emit(Event::FaultOutcome {
                    kind: other.kind(),
                    outcome: InjectionOutcome::Tolerated,
                });
            }
        }
        Ok(())
    }

    /// Ensures the CPU is in `dom`'s guest context.
    ///
    /// # Errors
    ///
    /// World-switch failures.
    pub fn ensure_guest(&mut self, dom: DomainId) -> Result<(), XenError> {
        match self.current_guest {
            Some(d) if d == dom => Ok(()),
            Some(_) => {
                self.exit_and_handle(ExitCode::Hlt, 0, 0)?;
                self.enter(dom)
            }
            None => self.enter(dom),
        }
    }

    /// Ensures the CPU is in host mode (yielding the current guest).
    ///
    /// # Errors
    ///
    /// World-switch failures.
    pub fn ensure_host(&mut self) -> Result<(), XenError> {
        if self.current_guest.is_some() {
            self.exit_and_handle(ExitCode::Hlt, 0, 0)?;
        }
        Ok(())
    }

    /// Issues a hypercall from `dom` and returns the value in RAX.
    ///
    /// # Errors
    ///
    /// World-switch and handler failures.
    pub fn hypercall(&mut self, dom: DomainId, nr: u64, args: [u64; 4]) -> Result<u64, XenError> {
        self.ensure_guest(dom)?;
        let regs = &mut self.plat.machine.cpu.regs;
        regs.set(Gpr::Rax, nr);
        regs.set(Gpr::Rdi, args[0]);
        regs.set(Gpr::Rsi, args[1]);
        regs.set(Gpr::Rdx, args[2]);
        regs.set(Gpr::R10, args[3]);
        let action = self.exit_and_handle(ExitCode::Vmmcall, 0, 0)?;
        if action != ExitAction::Resume {
            return Err(XenError::BadDomainState(dom));
        }
        self.enter(dom)?;
        Ok(self.plat.machine.cpu.regs.get(Gpr::Rax))
    }

    // ----- guest memory with NPF handling ------------------------------------

    /// Guest-physical write with transparent NPF handling (exit → allocate
    /// → map → retry), as real hardware+hypervisor would do.
    ///
    /// # Errors
    ///
    /// Unresolvable faults.
    pub fn gpa_write(
        &mut self,
        dom: DomainId,
        gpa: Gpa,
        data: &[u8],
        encrypted: bool,
    ) -> Result<(), XenError> {
        self.ensure_guest(dom)?;
        loop {
            match self.plat.machine.guest_write_gpa(gpa, data, encrypted) {
                Ok(()) => return Ok(()),
                Err(Fault::NestedPageFault { gpa: fgpa, .. }) => {
                    self.npf_roundtrip(dom, fgpa)?;
                }
                Err(f) => return Err(f.into()),
            }
        }
    }

    /// Guest-physical read with transparent NPF handling.
    ///
    /// # Errors
    ///
    /// Unresolvable faults.
    pub fn gpa_read(
        &mut self,
        dom: DomainId,
        gpa: Gpa,
        buf: &mut [u8],
        encrypted: bool,
    ) -> Result<(), XenError> {
        self.ensure_guest(dom)?;
        loop {
            match self.plat.machine.guest_read_gpa(gpa, buf, encrypted) {
                Ok(()) => return Ok(()),
                Err(Fault::NestedPageFault { gpa: fgpa, .. }) => {
                    self.npf_roundtrip(dom, fgpa)?;
                }
                Err(f) => return Err(f.into()),
            }
        }
    }

    fn npf_roundtrip(&mut self, dom: DomainId, gpa: Gpa) -> Result<(), XenError> {
        let action = self.exit_and_handle(ExitCode::NestedPageFault, gpa.0, 0)?;
        if action != ExitAction::Resume {
            return Err(XenError::BadDomainState(dom));
        }
        self.enter(dom)
    }

    // ----- guest creation ------------------------------------------------------

    /// Creates, populates and boots a guest the *vanilla* way: the
    /// hypervisor drives everything, including the SEV launch sequence
    /// when `cfg.sev` (so it holds the handle and sees the launch flow —
    /// the paper's baseline trust model). The guest is booted for one
    /// block-device queue.
    ///
    /// # Errors
    ///
    /// Creation/SEV/boot failures.
    pub fn create_guest(&mut self, cfg: GuestConfig) -> Result<DomainId, XenError> {
        self.create_guest_mq(cfg, 1)
    }

    /// Like [`System::create_guest`], but boots the guest with room for
    /// `io_queues` block-device queues: each queue's ring and buffer pages
    /// ([`gplayout::ring_page`], [`gplayout::QUEUE_STRIDE`] pages) are
    /// mapped shared (no C-bit) so dom0 can reach them.
    ///
    /// # Errors
    ///
    /// Creation/SEV/boot failures.
    ///
    /// # Panics
    ///
    /// Panics when `io_queues` is out of `1..=MAX_QUEUES` or the guest is
    /// too small for its queues' pages.
    pub fn create_guest_mq(
        &mut self,
        cfg: GuestConfig,
        io_queues: u64,
    ) -> Result<DomainId, XenError> {
        assert!(
            (1..=gplayout::MAX_QUEUES).contains(&io_queues),
            "io_queues must be in 1..={}",
            gplayout::MAX_QUEUES
        );
        let top = gplayout::ring_page(io_queues - 1) + gplayout::QUEUE_STRIDE;
        assert!(cfg.mem_pages >= top, "guest too small for {io_queues} queues");
        let dom = self.xen.create_domain(&mut self.plat, &mut *self.guardian, cfg.mem_pages)?;
        self.queue_plan.insert(dom, io_queues);
        self.xen.populate_all(&mut self.plat, &mut *self.guardian, dom)?;

        // Load the kernel image into guest frames through the hypervisor's
        // mappings (plaintext at this point — vanilla flow).
        let kernel_pages = (cfg.kernel.len() as u64).div_ceil(PAGE_SIZE).max(1);
        for p in 0..kernel_pages {
            let frame = self
                .xen
                .domain(dom)?
                .frame_of(gplayout::KERNEL_PAGE + p)
                .ok_or(XenError::OutOfMemory)?;
            let start = (p * PAGE_SIZE) as usize;
            let end = cfg.kernel.len().min(start + PAGE_SIZE as usize);
            let mut page = vec![0u8; PAGE_SIZE as usize];
            if start < cfg.kernel.len() {
                page[..end - start].copy_from_slice(&cfg.kernel[start..end]);
            }
            self.plat.machine.host_write(direct_map(frame), &page)?;
        }

        if cfg.sev {
            // Vanilla hypervisor-managed SEV launch.
            let h = self.plat.firmware.launch_start(Default::default())?;
            for p in 0..kernel_pages {
                let frame = self.xen.domain(dom)?.frame_of(gplayout::KERNEL_PAGE + p).unwrap();
                self.plat
                    .firmware
                    .launch_update_data(&mut self.plat.machine, h, frame, PAGE_SIZE)
                    .map_err(XenError::Sev)?;
            }
            let asid = self.xen.domain(dom)?.asid;
            self.plat.firmware.activate(&mut self.plat.machine, h, asid)?;
            self.plat.firmware.launch_finish(h)?;
            self.xen.domain_mut(dom)?.sev_handle = Some(h);
        }

        let gcr3 = Gpa(gplayout::PT_POOL_PAGE * PAGE_SIZE);
        let rip = gplayout::KERNEL_PAGE * PAGE_SIZE;
        self.xen.init_vmcb(&mut self.plat, dom, gcr3, rip, cfg.sev)?;
        self.boot_guest(dom)?;
        let d = self.xen.domain(dom)?;
        self.guardian.seal_guest(&mut self.plat, d)?;
        Ok(dom)
    }

    /// The queues `dom` was booted for: 1 for a domain not created
    /// through [`System::create_guest_mq`] (the encrypted launch flow).
    fn queue_plan(&self, dom: DomainId) -> u64 {
        self.queue_plan.get(&dom).copied().unwrap_or(1)
    }

    /// Whether guest-physical `page` is one of the dom0-shared ring and
    /// buffer pages of a guest booted for `plan` queues.
    fn shared_io_page(plan: u64, page: u64) -> bool {
        (0..plan).any(|q| {
            let ring = gplayout::ring_page(q);
            (ring..ring + gplayout::QUEUE_STRIDE).contains(&page)
        })
    }

    /// The guest kernel's early boot: build stage-1 page tables (identity
    /// map; private pages with the C-bit for SEV guests) inside guest
    /// memory.
    ///
    /// # Errors
    ///
    /// Guest access faults.
    pub fn boot_guest(&mut self, dom: DomainId) -> Result<(), XenError> {
        self.ensure_guest(dom)?;
        let sev = self.xen.domain(dom)?.sev;
        let mem_pages = self.xen.domain(dom)?.mem_pages();
        let plan = self.queue_plan(dom);
        let mut pt_alloc =
            FrameAllocator::new(Hpa(gplayout::PT_POOL_PAGE * PAGE_SIZE), gplayout::PT_POOL_PAGES);
        let mut acc = GuestPtAccess::new(&mut self.plat.machine, sev);
        let mapper = Mapper::create(&mut acc, &mut pt_alloc)?;
        debug_assert_eq!(mapper.root().0, gplayout::PT_POOL_PAGE * PAGE_SIZE);
        for page in 0..mem_pages {
            let shared = Self::shared_io_page(plan, page);
            let c = if sev && !shared { PTE_C_BIT } else { 0 };
            mapper.map(
                &mut acc,
                &mut pt_alloc,
                page * PAGE_SIZE,
                Hpa(page * PAGE_SIZE),
                PTE_WRITABLE | c,
            )?;
        }
        self.xen.domain_mut(dom)?.state = DomainState::Ready;
        self.ensure_host()?;
        Ok(())
    }

    // ----- block device --------------------------------------------------------

    /// Sets up the PV block device for `dom`, one queue per queue the
    /// guest was booted for: dom0 attaches the disk, then each queue is
    /// granted, published, mapped back and bound the same way, queue 0
    /// included.
    ///
    /// # Errors
    ///
    /// Grant failures (including policy rejections surfaced as grant
    /// errors).
    ///
    /// # Panics
    ///
    /// Panics, before any hypercall, when the SEV-API path is asked for
    /// more than one queue (its `Md` window is not striped).
    pub fn setup_block_device(
        &mut self,
        dom: DomainId,
        disk: Vec<u8>,
        io_path: IoPath,
        kblk: Option<Key128>,
    ) -> Result<(), XenError> {
        let plan = self.queue_plan(dom);
        assert!(
            io_path != IoPath::SevApi || plan == 1,
            "SEV-API path is single-queue (Md window is not striped)"
        );
        self.xen.backends.entry(dom).or_default().attach(disk);
        let ports = (0..plan).map(|q| self.attach_queue(dom, q)).collect::<Result<_, _>>()?;
        self.frontends.insert(dom, FrontEnd::new(io_path, kblk, ports));
        Ok(())
    }

    /// Attaches queue `q` of `dom`'s block device: the guest declares the
    /// queue's pages shared (if the Fidelius pre-sharing extension is
    /// there; vanilla Xen answers ENOSYS), grants its ring and buffer
    /// pages to dom0 and publishes the references in the XenStore; dom0
    /// reads them back, maps the grants, appends the queue to the back-end
    /// and binds an event channel. Returns the channel's port.
    fn attach_queue(&mut self, dom: DomainId, q: u64) -> Result<Port, XenError> {
        let ring_page = gplayout::ring_page(q);
        let _ =
            self.hypercall(dom, HC_PRE_SHARING_OP, [0, ring_page, gplayout::QUEUE_STRIDE, 1])?;
        let pages = std::iter::once(ring_page)
            .chain((0..gplayout::BUF_PAGES).map(|i| gplayout::buf_page(q, i)));
        let mut refs = Vec::new();
        for page in pages {
            let r =
                self.hypercall(dom, HC_GRANT_TABLE_OP, [GrantOp::GrantAccess as u64, 0, page, 1])?;
            if r >= crate::grants::GRANT_TABLE_ENTRIES {
                return Err(XenError::BadGrant(r));
            }
            refs.push(r);
        }
        self.ensure_host()?;

        // The front-end publishes the grant references in the XenStore
        // (untrusted rendezvous; a tampered reference fails the back-end's
        // map validation rather than leaking anything). Queue 0 keeps the
        // device's own keys.
        let mut prefix = format!("/local/domain/{}/device/vbd", dom.0);
        if q > 0 {
            prefix += &format!("/queue/{q}");
        }
        let keys: Vec<String> = std::iter::once(format!("{prefix}/ring-ref"))
            .chain((0..gplayout::BUF_PAGES).map(|i| format!("{prefix}/buf-ref/{i}")))
            .collect();
        for (key, r) in keys.iter().zip(&refs) {
            self.xen.xenstore.write(dom, key, &r.to_string());
        }

        // dom0 side: take the references from the XenStore, resolve the
        // grants and attach the queue.
        let mut mapped = Vec::new();
        for key in &keys {
            let r: u64 = self
                .xen
                .xenstore
                .read(key)
                .and_then(|s| s.parse().ok())
                .ok_or(XenError::BadBlockRequest)?;
            mapped.push((self.backend_map_grant(r)?, r));
        }
        let ring = mapped.remove(0);
        let table = self.xen.grant_table_pa;
        let attached = self.xen.backend_mut(dom)?.attach_queue(ring, mapped, table);
        debug_assert_eq!(attached as u64, q);
        Ok(self.xen.events.bind(dom, DomainId::DOM0))
    }

    /// Retries after this many failed sends before declaring the channel
    /// starved (so `1 + EVENT_SEND_RETRIES` sends total).
    pub const EVENT_SEND_RETRIES: u32 = 4;

    /// Notifies the back-end over event channel `port`, with graceful
    /// degradation: a hypervisor may drop (or pretend to fail) the send, so
    /// the front-end retries with doubling backoff up to
    /// [`System::EVENT_SEND_RETRIES`] times before failing closed with a
    /// typed, audited denial.
    ///
    /// # Errors
    ///
    /// [`XenError::FailClosed`] with [`DenialReason::EventChannelStarved`]
    /// once the retry budget is exhausted; world-switch failures.
    fn notify_backend(&mut self, dom: DomainId, port: u32) -> Result<(), XenError> {
        let mut backoff = self.plat.machine.cost.hypercall_base;
        for attempt in 0..=Self::EVENT_SEND_RETRIES {
            let ret = self.hypercall(dom, HC_EVTCHN_SEND, [port as u64, 0, 0, 0])?;
            if ret == RET_OK {
                if attempt > 0 && self.plat.machine.inject.is_armed() {
                    self.plat.machine.trace.emit(Event::FaultOutcome {
                        kind: FaultKind::EventChannelDrop,
                        outcome: InjectionOutcome::ToleratedAfterRetry(attempt),
                    });
                }
                return Ok(());
            }
            // Model the wait between attempts; doubling keeps the total
            // bounded while giving a flaky channel room to recover.
            self.plat.machine.cycles.charge(backoff);
            backoff *= 2.0;
        }
        Err(XenError::FailClosed(
            self.plat
                .machine
                .fail_closed(DenialReason::EventChannelStarved, FaultKind::EventChannelDrop),
        ))
    }

    /// dom0's view of a granted frame (its `map_grant_ref`): validates the
    /// entry and returns the frame it may access.
    fn backend_map_grant(&mut self, grant_ref: u64) -> Result<Hpa, XenError> {
        let entry = read_entry_phys(&self.plat.machine.mc, self.xen.grant_table_pa, grant_ref)?;
        if !entry.valid || entry.grantee != DomainId::DOM0.0 {
            return Err(XenError::BadGrant(grant_ref));
        }
        Ok(entry.frame)
    }

    /// Writes `data` (whole sectors) to disk at `sector` through the PV
    /// path, with the front-end's configured protection: a one-op
    /// [`System::disk_batch`] on queue 0.
    ///
    /// # Errors
    ///
    /// As [`System::disk_batch`]; a request the back-end refused is
    /// [`XenError::BadBlockRequest`].
    pub fn disk_write(&mut self, dom: DomainId, sector: u64, data: &[u8]) -> Result<(), XenError> {
        let op = BatchOp::Write { sector, data: data.to_vec() };
        match self.disk_batch(dom, 0, &[op])?.pop() {
            Some((BlkStatus::Ok, _)) => Ok(()),
            _ => Err(XenError::BadBlockRequest),
        }
    }

    /// Reads `count` sectors from disk at `sector` through the PV path: a
    /// one-op [`System::disk_batch`] on queue 0.
    ///
    /// # Errors
    ///
    /// As [`System::disk_write`].
    pub fn disk_read(
        &mut self,
        dom: DomainId,
        sector: u64,
        count: u64,
    ) -> Result<Vec<u8>, XenError> {
        match self.disk_batch(dom, 0, &[BatchOp::Read { sector, count }])?.pop() {
            Some((BlkStatus::Ok, Some(data))) => Ok(data),
            _ => Err(XenError::BadBlockRequest),
        }
    }

    /// Runs the SEV-API I/O transform for `count` sectors starting at
    /// absolute `sector`, between the Md pages and the shared buffer, with
    /// the request's staging window starting at buffer page `buf_page`
    /// (batched dispatch places requests side by side).
    ///
    /// Each contiguous in-page sector run is one [`Guardian::io_transform`]
    /// command. Under [`Fidelity::Reference`] every run is one sector
    /// long, so the reference compares one command per sector against one
    /// per page over the whole datapath.
    ///
    /// [`Guardian::io_transform`]: crate::guardian::Guardian::io_transform
    fn sev_io_transform_at(
        &mut self,
        dom: DomainId,
        dir: IoDir,
        sector: u64,
        count: u64,
        buf_page: u64,
    ) -> Result<(), XenError> {
        let fast = self.plat.machine.fidelity() == Fidelity::Fast;
        let mut s = 0u64;
        while s < count {
            let page_idx = buf_page + s / SECTORS_PER_PAGE;
            let in_page = (s % SECTORS_PER_PAGE) * SECTOR_SIZE as u64;
            let run =
                if fast { (SECTORS_PER_PAGE - s % SECTORS_PER_PAGE).min(count - s) } else { 1 };
            let md_frame = self
                .xen
                .domain(dom)?
                .frame_of(gplayout::MD_PAGE + page_idx)
                .ok_or(XenError::OutOfMemory)?;
            let buf_frame = self
                .xen
                .domain(dom)?
                .frame_of(gplayout::BUF_PAGE + page_idx)
                .ok_or(XenError::OutOfMemory)?;
            let (src, dst) = match dir {
                IoDir::GuestToShared => (md_frame.add(in_page), buf_frame.add(in_page)),
                IoDir::SharedToGuest => (buf_frame.add(in_page), md_frame.add(in_page)),
            };
            self.guardian.io_transform(&mut self.plat, dom, dir, src, dst, run, sector + s)?;
            s += run;
        }
        Ok(())
    }

    /// Dispatches a whole batch of requests on queue `q` of `dom`'s block
    /// device as one ring window: stage everything, publish every
    /// descriptor, notify once, let the back-end drain the window in one
    /// batched pass. Returns per-request `(status, read_data)` in order —
    /// a structurally bad request yields `BlkStatus::Error` without
    /// failing its neighbours, exactly as when it is submitted alone.
    ///
    /// The batch must fit the ring ([`RING_SLOTS`]) and the queue's buffer
    /// window ([`gplayout::BUF_PAGES`] pages; each request occupies whole
    /// pages).
    ///
    /// # Errors
    ///
    /// [`XenError::BadBlockRequest`], before any world switch, when the
    /// batch exceeds the ring or the buffer window; fail-closed refusals
    /// from the drain, world-switch failures.
    ///
    /// # Panics
    ///
    /// Panics when `q` is not an attached queue or a write is not whole
    /// sectors.
    pub fn disk_batch(
        &mut self,
        dom: DomainId,
        q: u64,
        ops: &[BatchOp],
    ) -> Result<BatchResults, XenError> {
        let pages_needed = ops
            .iter()
            .map(|op| op.sector_count().div_ceil(SECTORS_PER_PAGE))
            .fold(0, u64::saturating_add);
        if ops.len() as u64 > RING_SLOTS || pages_needed > gplayout::BUF_PAGES {
            return Err(XenError::BadBlockRequest);
        }
        self.ensure_guest(dom)?;
        let fe = self.frontends.get_mut(&dom).ok_or(XenError::BadBlockRequest)?;
        assert!(q < fe.num_queues(), "queue {q} not attached");
        let uses_md = fe.uses_md();

        // Stage and publish every request back to back in the window.
        let mut cursor = 0u64;
        let mut slots = Vec::with_capacity(ops.len());
        for op in ops {
            let slot = match op {
                BatchOp::Write { sector, data } => {
                    assert_eq!(data.len() % SECTOR_SIZE, 0, "whole sectors only");
                    fe.stage_write_data_at(q, &mut self.plat.machine, *sector, data, cursor)?;
                    fe.push_request_on(
                        q,
                        &mut self.plat.machine,
                        BlkOp::Write,
                        *sector,
                        op.sector_count(),
                        cursor,
                    )?
                }
                BatchOp::Read { sector, count } => fe.push_request_on(
                    q,
                    &mut self.plat.machine,
                    BlkOp::Read,
                    *sector,
                    *count,
                    cursor,
                )?,
            };
            slots.push((slot, cursor, false));
            cursor += op.sector_count().div_ceil(SECTORS_PER_PAGE);
        }
        let port = fe.port(q);
        self.notify_backend(dom, port)?;
        self.ensure_host()?;
        if uses_md {
            for (op, (_, buf_page, _)) in ops.iter().zip(&slots) {
                if let BatchOp::Write { sector, .. } = op {
                    self.sev_io_transform_at(
                        dom,
                        IoDir::GuestToShared,
                        *sector,
                        op.sector_count(),
                        *buf_page,
                    )?;
                }
            }
        }
        let published = self.xen.backend_mut(dom)?.process_queue(&mut self.plat, q as usize)?;
        for (slot, _, answered_ok) in &mut slots {
            *answered_ok = published.contains(&(*slot, BlkStatus::Ok));
        }
        if uses_md {
            // Only a read the back-end answered `Ok` has data in the shared
            // buffer; transforming a refused one would overwrite `Md` with
            // the buffer's stale contents.
            for (op, (_, buf_page, answered_ok)) in ops.iter().zip(&slots) {
                if let BatchOp::Read { sector, count } = op {
                    if !answered_ok {
                        continue;
                    }
                    self.sev_io_transform_at(
                        dom,
                        IoDir::SharedToGuest,
                        *sector,
                        *count,
                        *buf_page,
                    )?;
                }
            }
        }
        self.ensure_guest(dom)?;
        let fe = self.frontends.get_mut(&dom).ok_or(XenError::BadBlockRequest)?;
        let mut results = Vec::with_capacity(ops.len());
        for (op, (slot, buf_page, _)) in ops.iter().zip(&slots) {
            let status = fe.slot_status_on(q, &mut self.plat.machine, *slot)?;
            let data = match op {
                BatchOp::Read { sector, count } if status == BlkStatus::Ok => {
                    Some(fe.retrieve_read_data_at(
                        q,
                        &mut self.plat.machine,
                        *sector,
                        *count,
                        *buf_page,
                    )?)
                }
                _ => None,
            };
            results.push((status, data));
        }
        Ok(results)
    }

    /// Shuts a guest down (guest-initiated).
    ///
    /// # Errors
    ///
    /// Teardown failures.
    pub fn shutdown_guest(&mut self, dom: DomainId) -> Result<(), XenError> {
        self.ensure_guest(dom)?;
        let action = self.exit_and_handle(ExitCode::Shutdown, 0, 0)?;
        debug_assert_eq!(action, ExitAction::Destroyed);
        self.frontends.remove(&dom);
        self.queue_plan.remove(&dom);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blkif::BlockBackend;
    use crate::guardian::Unprotected;

    const DRAM: u64 = 24 * 1024 * 1024;

    fn vanilla() -> System {
        System::new(DRAM, 7, Box::new(Unprotected::new())).unwrap()
    }

    #[test]
    fn guest_lifecycle_plain() {
        let mut sys = vanilla();
        let dom = sys
            .create_guest(GuestConfig { mem_pages: 256, sev: false, kernel: b"k".to_vec() })
            .unwrap();
        // Guest memory works through the NPT.
        sys.gpa_write(dom, Gpa(gplayout::HEAP_PAGE * PAGE_SIZE), b"hello guest", false).unwrap();
        let mut buf = [0u8; 11];
        sys.gpa_read(dom, Gpa(gplayout::HEAP_PAGE * PAGE_SIZE), &mut buf, false).unwrap();
        assert_eq!(&buf, b"hello guest");
        sys.shutdown_guest(dom).unwrap();
    }

    #[test]
    fn guest_table_zeroing_books_what_per_entry_writes_book() {
        use fidelius_hw::paging::PtAccess;
        let table = Hpa(gplayout::HEAP_PAGE * PAGE_SIZE);
        // A dirty guest page zeroed as a page table, through the override
        // (`stream`) or through 512 `write_entry` calls.
        let zeroed = |fidelity: Fidelity, encrypted: bool, stream: bool| {
            let mut sys = vanilla();
            sys.plat.machine.set_fidelity(fidelity);
            let dom = sys
                .create_guest(GuestConfig { mem_pages: 192, sev: true, kernel: b"k".to_vec() })
                .unwrap();
            sys.gpa_write(dom, Gpa(table.0), &[0xA5; PAGE_SIZE as usize], encrypted).unwrap();
            sys.ensure_guest(dom).unwrap();
            let mut acc = GuestPtAccess::new(&mut sys.plat.machine, encrypted);
            if stream {
                acc.zero_table(table).unwrap();
            } else {
                for i in 0..512 {
                    acc.write_entry(table.add(i * 8), 0).unwrap();
                }
            }
            sys
        };
        for fidelity in [Fidelity::Fast, Fidelity::Reference] {
            for encrypted in [true, false] {
                let case = format!("{fidelity:?}, encrypted {encrypted}");
                let mut streamed = zeroed(fidelity, encrypted, true);
                let per_entry = zeroed(fidelity, encrypted, false);
                let (a, b) = (&streamed.plat.machine, &per_entry.plat.machine);
                let (dram_a, dram_b) = (a.mc.dram(), b.mc.dram());
                let whole = DRAM as usize;
                assert!(
                    dram_a.raw_span(Hpa(0), whole).unwrap()
                        == dram_b.raw_span(Hpa(0), whole).unwrap(),
                    "DRAM bytes differ ({case})"
                );
                assert_eq!(a.tlb.counters(), b.tlb.counters(), "{case}");
                // Cycles per category, crypto bytes and runs, and every
                // event count.
                assert_eq!(a.telemetry_snapshot(), b.telemetry_snapshot(), "{case}");
                let mut page = [0xFFu8; PAGE_SIZE as usize];
                streamed.plat.machine.guest_read_gpa(Gpa(table.0), &mut page, encrypted).unwrap();
                assert!(page.iter().all(|&b| b == 0), "table not zeroed ({case})");
            }
        }
    }

    #[test]
    fn npt_remap_invalidates_gva_keyed_translations() {
        // A guest-virtual TLB entry is keyed by guest-virtual page but
        // caches the stage-2 (NPT) result. When the two differ, a
        // GPA-keyed invalidation cannot name the entry — the hypervisor
        // must demote the whole ASID on NPT edits or the guest keeps
        // reaching the old frame through the stale cached translation.
        let mut sys = vanilla();
        let dom = sys
            .create_guest(GuestConfig { mem_pages: 256, sev: false, kernel: b"k".to_vec() })
            .unwrap();

        // A stage-1 mapping whose vpn differs from its gpfn: GVA page 300
        // → GPA HEAP_PAGE. The boot-time leaf table already covers VAs
        // below 2 MiB, so the allocator is never consulted.
        sys.ensure_guest(dom).unwrap();
        {
            let mut pt_alloc = FrameAllocator::new(Hpa(0), 1);
            let mut acc = GuestPtAccess::new(&mut sys.plat.machine, false);
            Mapper::from_root(Hpa(gplayout::PT_POOL_PAGE * PAGE_SIZE))
                .map(
                    &mut acc,
                    &mut pt_alloc,
                    300 * PAGE_SIZE,
                    Hpa(gplayout::HEAP_PAGE * PAGE_SIZE),
                    PTE_WRITABLE,
                )
                .unwrap();
        }
        let va = fidelius_hw::Gva(300 * PAGE_SIZE);
        // Caches the guest-virtual translation for vpn 300.
        sys.plat.machine.guest_write(va, b"pre-remap secret").unwrap();

        // The hypervisor remaps HEAP_PAGE to a fresh frame.
        sys.ensure_host().unwrap();
        let fresh = sys.xen.heap.alloc().unwrap();
        sys.plat.machine.host_write(direct_map(fresh), &[0x5A; 16]).unwrap();
        sys.xen
            .npt_map(
                &mut sys.plat,
                &mut *sys.guardian,
                dom,
                gplayout::HEAP_PAGE,
                fresh,
                PTE_WRITABLE,
            )
            .unwrap();

        // The guest must now see the remapped frame through the same GVA.
        sys.ensure_guest(dom).unwrap();
        let mut got = [0u8; 16];
        sys.plat.machine.guest_read(va, &mut got).unwrap();
        assert_eq!(
            got, [0x5A; 16],
            "stale GVA-keyed translation served the revoked frame after an NPT remap"
        );
    }

    #[test]
    fn sev_guest_memory_is_ciphertext_in_dram() {
        let mut sys = vanilla();
        let dom = sys
            .create_guest(GuestConfig { mem_pages: 256, sev: true, kernel: b"kern".to_vec() })
            .unwrap();
        let gpa = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);
        sys.gpa_write(dom, gpa, b"sev-private-data", true).unwrap();
        let frame = sys.xen.domain(dom).unwrap().frame_of(gplayout::HEAP_PAGE).unwrap();
        let mut raw = [0u8; 16];
        sys.plat.machine.mc.dram().read_raw(frame, &mut raw).unwrap();
        assert_ne!(&raw, b"sev-private-data");
        // And reads back fine through the guest path.
        sys.ensure_guest(dom).unwrap();
        let mut back = [0u8; 16];
        sys.plat.machine.guest_read_gpa(gpa, &mut back, true).unwrap();
        assert_eq!(&back, b"sev-private-data");
    }

    #[test]
    fn sev_kernel_image_loaded_encrypted() {
        let mut sys = vanilla();
        let dom = sys
            .create_guest(GuestConfig {
                mem_pages: 256,
                sev: true,
                kernel: b"SEV KERNEL IMAGE".to_vec(),
            })
            .unwrap();
        let frame = sys.xen.domain(dom).unwrap().frame_of(gplayout::KERNEL_PAGE).unwrap();
        let mut raw = [0u8; 16];
        sys.plat.machine.mc.dram().read_raw(frame, &mut raw).unwrap();
        assert_ne!(&raw, b"SEV KERNEL IMAGE", "kernel must rest encrypted");
        // The guest reads its own kernel through its key.
        sys.ensure_guest(dom).unwrap();
        let mut k = [0u8; 16];
        sys.plat
            .machine
            .guest_read_gpa(Gpa(gplayout::KERNEL_PAGE * PAGE_SIZE), &mut k, true)
            .unwrap();
        assert_eq!(&k, b"SEV KERNEL IMAGE");
    }

    #[test]
    fn void_hypercall_roundtrip() {
        let mut sys = vanilla();
        let dom = sys.create_guest(GuestConfig::default()).unwrap();
        let ret = sys.hypercall(dom, HC_VOID, [0; 4]).unwrap();
        assert_eq!(ret, RET_OK);
    }

    #[test]
    fn unknown_hypercall_is_enosys() {
        let mut sys = vanilla();
        let dom = sys.create_guest(GuestConfig::default()).unwrap();
        assert_eq!(sys.hypercall(dom, 999, [0; 4]).unwrap(), RET_ENOSYS);
    }

    #[test]
    fn disk_roundtrip_plain_path() {
        let mut sys = vanilla();
        let dom = sys.create_guest(GuestConfig::default()).unwrap();
        let disk = vec![0u8; 64 * SECTOR_SIZE];
        sys.setup_block_device(dom, disk, IoPath::Plain, None).unwrap();
        let data = vec![0xABu8; 2 * SECTOR_SIZE];
        sys.disk_write(dom, 4, &data).unwrap();
        let back = sys.disk_read(dom, 4, 2).unwrap();
        assert_eq!(back, data);
        // Plain path: the driver domain sees the plaintext on disk.
        assert_eq!(
            &sys.xen.backend(dom).unwrap().disk()[4 * SECTOR_SIZE..5 * SECTOR_SIZE],
            &data[..SECTOR_SIZE]
        );
    }

    #[test]
    fn two_guests_keep_their_own_block_devices() {
        // b's device must not detach a's: each guest's requests reach its
        // own back-end and its own disk.
        let mut sys = vanilla();
        let a = sys.create_guest(GuestConfig::default()).unwrap();
        let b = sys.create_guest(GuestConfig::default()).unwrap();
        sys.setup_block_device(a, vec![0u8; 16 * SECTOR_SIZE], IoPath::Plain, None).unwrap();
        sys.setup_block_device(b, vec![0u8; 32 * SECTOR_SIZE], IoPath::Plain, None).unwrap();
        let data = vec![0xA5u8; SECTOR_SIZE];
        assert_eq!(sys.disk_write(a, 0, &data), Ok(()));
        assert_eq!(sys.disk_read(a, 0, 1), Ok(data.clone()));
        assert_eq!(sys.disk_read(b, 0, 1), Ok(vec![0u8; SECTOR_SIZE]), "b's disk was written");
        sys.disk_write(b, 0, &[0x5Au8; SECTOR_SIZE]).unwrap();
        assert_eq!(sys.disk_read(a, 0, 1), Ok(data), "a's disk was written");
    }

    #[test]
    fn destroying_a_domain_drops_its_back_end() {
        let mut sys = vanilla();
        let a = sys.create_guest(GuestConfig::default()).unwrap();
        let b = sys.create_guest(GuestConfig::default()).unwrap();
        for dom in [a, b] {
            sys.setup_block_device(dom, vec![0u8; 16 * SECTOR_SIZE], IoPath::Plain, None).unwrap();
        }
        sys.shutdown_guest(a).unwrap();
        assert_eq!(sys.xen.backend(a).err(), Some(XenError::BadBlockRequest));
        assert_eq!(sys.xen.backend(b).map(BlockBackend::sectors), Ok(16));
        let data = vec![0x3Cu8; SECTOR_SIZE];
        sys.disk_write(b, 2, &data).unwrap();
        assert_eq!(sys.disk_read(b, 2, 1), Ok(data));
    }

    #[test]
    fn disk_roundtrip_aesni_path_hides_data_from_dom0() {
        let mut sys = vanilla();
        let dom = sys.create_guest(GuestConfig::default()).unwrap();
        let disk = vec![0u8; 64 * SECTOR_SIZE];
        let kblk = [0x4Bu8; 16];
        sys.setup_block_device(dom, disk, IoPath::AesNi, Some(kblk)).unwrap();
        let data = vec![0xCDu8; SECTOR_SIZE];
        sys.disk_write(dom, 0, &data).unwrap();
        // dom0's disk holds ciphertext.
        assert_ne!(&sys.xen.backend(dom).unwrap().disk()[..SECTOR_SIZE], data.as_slice());
        let back = sys.disk_read(dom, 0, 1).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn out_of_range_disk_request_fails() {
        let mut sys = vanilla();
        let dom = sys.create_guest(GuestConfig::default()).unwrap();
        sys.setup_block_device(dom, vec![0u8; 8 * SECTOR_SIZE], IoPath::Plain, None).unwrap();
        let data = vec![0u8; SECTOR_SIZE];
        assert!(sys.disk_write(dom, 100, &data).is_err());
    }

    #[test]
    fn oversized_batches_are_refused_before_any_world_switch() {
        let mut sys = vanilla();
        let dom = sys.create_guest(GuestConfig::default()).unwrap();
        sys.setup_block_device(dom, vec![0u8; 8 * SECTOR_SIZE], IoPath::Plain, None).unwrap();
        let read = |count| BatchOp::Read { sector: 0, count };
        let cycles = sys.plat.machine.cycles.total_f64();
        let too_big: [Vec<BatchOp>; 3] = [
            vec![read(1); RING_SLOTS as usize + 1],
            vec![read(gplayout::BUF_PAGES * SECTORS_PER_PAGE + 1)],
            vec![read(u64::MAX); RING_SLOTS as usize],
        ];
        for ops in &too_big {
            assert!(matches!(sys.disk_batch(dom, 0, ops), Err(XenError::BadBlockRequest)));
        }
        assert!(matches!(sys.disk_read(dom, 0, 65), Err(XenError::BadBlockRequest)));
        assert_eq!(sys.plat.machine.cycles.total_f64(), cycles, "no world switch was made");
    }

    #[test]
    fn two_guests_are_isolated_by_keys() {
        let mut sys = vanilla();
        let a = sys
            .create_guest(GuestConfig { mem_pages: 192, sev: true, kernel: b"a".to_vec() })
            .unwrap();
        let b = sys
            .create_guest(GuestConfig { mem_pages: 192, sev: true, kernel: b"b".to_vec() })
            .unwrap();
        let gpa = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);
        sys.gpa_write(a, gpa, b"guest A secret!!", true).unwrap();
        sys.gpa_write(b, gpa, b"guest B secret!!", true).unwrap();
        sys.ensure_guest(a).unwrap();
        let mut buf = [0u8; 16];
        sys.plat.machine.guest_read_gpa(gpa, &mut buf, true).unwrap();
        assert_eq!(&buf, b"guest A secret!!");
        // Raw frames differ and are both ciphertext.
        let fa = sys.xen.domain(a).unwrap().frame_of(gplayout::HEAP_PAGE).unwrap();
        let fb = sys.xen.domain(b).unwrap().frame_of(gplayout::HEAP_PAGE).unwrap();
        let mut ra = [0u8; 16];
        let mut rb = [0u8; 16];
        sys.plat.machine.mc.dram().read_raw(fa, &mut ra).unwrap();
        sys.plat.machine.mc.dram().read_raw(fb, &mut rb).unwrap();
        assert_ne!(&ra, b"guest A secret!!");
        assert_ne!(&rb, b"guest B secret!!");
        assert_ne!(ra, rb);
    }

    #[test]
    fn revoked_ring_grant_mid_io_fails_closed() {
        use crate::grants::GrantEntry;
        let mut sys = vanilla();
        let dom = sys.create_guest(GuestConfig::default()).unwrap();
        sys.setup_block_device(dom, vec![0u8; 16 * SECTOR_SIZE], IoPath::Plain, None).unwrap();
        sys.disk_write(dom, 0, &vec![1u8; SECTOR_SIZE]).unwrap();
        sys.ensure_host().unwrap();
        // The ring grant vanishes under the back-end (revocation is within
        // the hypervisor's Table-1 rights); re-validation must catch it.
        let ring_ref: u64 = sys
            .xen
            .xenstore
            .read(&format!("/local/domain/{}/device/vbd/ring-ref", dom.0))
            .unwrap()
            .parse()
            .unwrap();
        sys.guardian.grant_write(&mut sys.plat, ring_ref, GrantEntry::default()).unwrap();
        let err = sys.disk_write(dom, 0, &vec![2u8; SECTOR_SIZE]);
        assert!(
            matches!(err, Err(XenError::FailClosed(DenialReason::GrantRevokedMidIo))),
            "expected typed fail-closed, got {err:?}"
        );
        // Audit-trail shape: a typed denial event was emitted.
        assert!(sys
            .plat
            .machine
            .trace
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::Denial { reason: DenialReason::GrantRevokedMidIo })));
    }

    #[test]
    fn revoked_buffer_grant_fails_request_closed() {
        use crate::grants::GrantEntry;
        let mut sys = vanilla();
        let dom = sys.create_guest(GuestConfig::default()).unwrap();
        sys.setup_block_device(dom, vec![0u8; 16 * SECTOR_SIZE], IoPath::Plain, None).unwrap();
        sys.ensure_host().unwrap();
        let buf_ref: u64 = sys
            .xen
            .xenstore
            .read(&format!("/local/domain/{}/device/vbd/buf-ref/0", dom.0))
            .unwrap()
            .parse()
            .unwrap();
        sys.guardian.grant_write(&mut sys.plat, buf_ref, GrantEntry::default()).unwrap();
        // The ring still works, so the request completes — with an error
        // status instead of data movement, plus the audit trail.
        let err = sys.disk_write(dom, 0, &vec![3u8; SECTOR_SIZE]);
        assert!(matches!(err, Err(XenError::BadBlockRequest)), "got {err:?}");
        assert!(sys
            .plat
            .machine
            .trace
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::Denial { reason: DenialReason::GrantRevokedMidIo })));
    }

    /// Test injector: lets `skip` crossings of `point` pass, then fires
    /// `action` at the next `left` crossings.
    #[derive(Debug)]
    struct FireAt {
        point: InjectPoint,
        action: FaultAction,
        skip: u32,
        left: u32,
    }

    impl fidelius_hw::inject::FaultInjector for FireAt {
        fn decide(&mut self, point: InjectPoint) -> Option<FaultAction> {
            if point != self.point || self.left == 0 {
                return None;
            }
            if self.skip > 0 {
                self.skip -= 1;
                return None;
            }
            self.left -= 1;
            Some(self.action)
        }
    }

    #[test]
    fn multi_queue_roundtrip_isolates_queues() {
        let mut sys = vanilla();
        let dom = sys.create_guest_mq(GuestConfig::default(), 4).unwrap();
        let kblk = [0x4Bu8; 16];
        sys.setup_block_device(dom, vec![0u8; 256 * SECTOR_SIZE], IoPath::AesNi, Some(kblk))
            .unwrap();
        assert_eq!(sys.xen.backend(dom).unwrap().num_queues(), 4);
        // Distinct payloads through distinct queues, batched.
        for q in 0..4u64 {
            let data = vec![0x10 + q as u8; 2 * SECTOR_SIZE];
            let results = sys
                .disk_batch(dom, q, &[BatchOp::Write { sector: 8 * q, data: data.clone() }])
                .unwrap();
            assert_eq!(results[0].0, BlkStatus::Ok);
        }
        for q in 0..4u64 {
            let results =
                sys.disk_batch(dom, q, &[BatchOp::Read { sector: 8 * q, count: 2 }]).unwrap();
            let (status, data) = &results[0];
            assert_eq!(*status, BlkStatus::Ok);
            assert_eq!(data.as_deref(), Some(vec![0x10 + q as u8; 2 * SECTOR_SIZE].as_slice()));
        }
        // The driver domain saw only ciphertext.
        assert!(sys.xen.backend(dom).unwrap().disk().iter().take(SECTOR_SIZE).any(|b| *b != 0x10));
    }

    #[test]
    fn batch_mixes_ok_and_error_requests() {
        let mut sys = vanilla();
        let dom = sys.create_guest(GuestConfig::default()).unwrap();
        sys.setup_block_device(dom, vec![0u8; 16 * SECTOR_SIZE], IoPath::Plain, None).unwrap();
        let results = sys
            .disk_batch(
                dom,
                0,
                &[
                    BatchOp::Write { sector: 0, data: vec![7u8; SECTOR_SIZE] },
                    BatchOp::Read { sector: 500, count: 1 }, // out of range
                    BatchOp::Read { sector: 0, count: 1 },
                ],
            )
            .unwrap();
        assert_eq!(results[0].0, BlkStatus::Ok);
        assert_eq!(results[1].0, BlkStatus::Error);
        assert!(results[1].1.is_none());
        assert_eq!(results[2].0, BlkStatus::Ok);
        assert_eq!(results[2].1.as_deref(), Some(vec![7u8; SECTOR_SIZE].as_slice()));
    }

    #[test]
    fn mid_drain_grant_revoke_fails_closed_and_rolls_back() {
        let mut sys = vanilla();
        let dom = sys.create_guest(GuestConfig::default()).unwrap();
        sys.setup_block_device(dom, vec![0u8; 16 * SECTOR_SIZE], IoPath::Plain, None).unwrap();
        sys.disk_write(dom, 0, &vec![0xAAu8; SECTOR_SIZE]).unwrap();
        let before = sys.xen.backend(dom).unwrap().disk().to_vec();
        // Revoke all of the queue's grants at the second request boundary:
        // the first request's disk mutation must be rolled back.
        sys.plat.machine.inject.install(Box::new(FireAt {
            point: InjectPoint::BlkifDrain,
            action: FaultAction::RevokeGrantsMidDrain,
            skip: 1,
            left: 1,
        }));
        let err = sys.disk_batch(
            dom,
            0,
            &[
                BatchOp::Write { sector: 0, data: vec![0xBBu8; SECTOR_SIZE] },
                BatchOp::Write { sector: 1, data: vec![0xCCu8; SECTOR_SIZE] },
            ],
        );
        assert!(
            matches!(err, Err(XenError::FailClosed(DenialReason::GrantRevokedMidIo))),
            "expected typed fail-closed, got {err:?}"
        );
        assert_eq!(
            sys.xen.backend(dom).unwrap().disk(),
            before.as_slice(),
            "partial drain must roll back"
        );
        let events = sys.plat.machine.trace.events();
        assert!(events
            .iter()
            .any(|e| matches!(e.event, Event::Denial { reason: DenialReason::GrantRevokedMidIo })));
        assert!(events.iter().any(|e| matches!(
            e.event,
            Event::FaultOutcome {
                kind: FaultKind::GrantRevokeMidDrain,
                outcome: InjectionOutcome::FailClosed(DenialReason::GrantRevokedMidIo),
            }
        )));
    }

    #[test]
    fn mid_drain_ring_corruption_fails_closed_and_rolls_back() {
        let mut sys = vanilla();
        let dom = sys.create_guest(GuestConfig::default()).unwrap();
        sys.setup_block_device(dom, vec![0u8; 16 * SECTOR_SIZE], IoPath::Plain, None).unwrap();
        let before = sys.xen.backend(dom).unwrap().disk().to_vec();
        sys.plat.machine.inject.install(Box::new(FireAt {
            point: InjectPoint::BlkifDrain,
            action: FaultAction::CorruptRingIndex { xor: 0x80_0001 },
            skip: 0,
            left: 1,
        }));
        let err = sys.disk_batch(
            dom,
            0,
            &[BatchOp::Write { sector: 2, data: vec![0xDDu8; SECTOR_SIZE] }],
        );
        assert!(
            matches!(err, Err(XenError::FailClosed(DenialReason::RingIndexTampered))),
            "expected typed fail-closed, got {err:?}"
        );
        assert_eq!(
            sys.xen.backend(dom).unwrap().disk(),
            before.as_slice(),
            "partial drain must roll back"
        );
        let events = sys.plat.machine.trace.events();
        assert!(events
            .iter()
            .any(|e| matches!(e.event, Event::Denial { reason: DenialReason::RingIndexTampered })));
        assert!(events.iter().any(|e| matches!(
            e.event,
            Event::FaultOutcome {
                kind: FaultKind::RingIndexCorrupt,
                outcome: InjectionOutcome::FailClosed(DenialReason::RingIndexTampered),
            }
        )));
        // The refused window is consumed with it: the next submission must
        // not serve the refused write again against its reused buffer page.
        sys.disk_write(dom, 5, &[0xEEu8; SECTOR_SIZE]).unwrap();
        let disk = sys.xen.backend(dom).unwrap().disk();
        let sector = |s: usize| &disk[s * SECTOR_SIZE..(s + 1) * SECTOR_SIZE];
        assert!(sector(2).iter().all(|&b| b == 0), "the refused write to sector 2 was served");
        assert!(sector(5).iter().all(|&b| b == 0xEE), "the next write to sector 5 was lost");
    }

    #[test]
    fn npf_populates_lazily() {
        let mut sys = vanilla();
        // Create a domain manually without populate_all.
        let dom = sys.xen.create_domain(&mut sys.plat, &mut *sys.guardian, 64).unwrap();
        sys.xen.init_vmcb(&mut sys.plat, dom, Gpa(0), 0, false).unwrap();
        sys.enter(dom).unwrap();
        sys.current_guest = Some(dom);
        // First touch NPFs; gpa_write resolves it through the hypervisor.
        sys.gpa_write(dom, Gpa(0x5000), b"lazy", false).unwrap();
        assert!(sys.xen.domain(dom).unwrap().frame_of(5).is_some());
    }
}
