//! The CPU core: world switches, two-stage translation, permission checks
//! and privileged-instruction execution.
//!
//! # Execution model
//!
//! The simulation does not interpret an instruction stream. Hypervisor,
//! Fidelius and guest logic are Rust code that *drives* the CPU through
//! typed operations:
//!
//! - memory accesses ([`Machine::host_read`], [`Machine::guest_write`], …)
//!   perform real page-table walks over tables stored in simulated memory,
//!   honour `CR0.WP`/NX, and route data through the memory-encryption
//!   engine according to the C-bit of the mapping used;
//! - privileged instructions ([`Machine::exec_priv`]) carry the *virtual
//!   address of the instruction site*; the CPU verifies that the site is
//!   mapped executable **and actually contains that instruction's opcode
//!   bytes**. This makes Fidelius's instruction-unmapping and binary-
//!   scanning defenses architecturally enforceable: an attacker simply
//!   cannot execute `VMRUN` if no executable mapping contains its bytes.
//! - world switches (`Machine::vmrun` via `exec_priv`, [`Machine::vmexit`])
//!   move guest state between the register file and the in-memory VMCB
//!   exactly as AMD-V does — including SEV's omission: the VMCB and GPRs
//!   cross the boundary in plaintext.

use crate::cycles::{CostModel, CycleCategory, Cycles};
use crate::error::{AccessKind, Fault, FaultReason, HwError};
use crate::inject::{FaultAction, InjectPoint, InjectorHandle};
use crate::mem::Dram;
use crate::memctrl::{EncSel, MemoryController};
use crate::paging::{permits, walk, Translation};
use crate::regs::{Cr0, Cr4, Efer, RegFile};
use crate::tlb::{CachedTranslation, Lookup, Space, Tlb, TransKind};
use crate::vmcb::{ExitCode, VmcbField, VmcbImage};
use crate::{Asid, Gpa, Gva, Hpa, Hva, PAGE_SIZE};
use fidelius_telemetry::{
    DenialReason, Event, FaultKind, FlushScope, InjectionOutcome, Snapshot, Tracer,
};
use fidelius_trace::{ArgValue, Recorder, SpanId, SpanKind};
use std::ops::Range;

/// Whether the CPU is running host (hypervisor/Fidelius) or guest code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Host mode (ring 0 of the host).
    Host,
    /// Guest mode under AMD-V.
    Guest,
}

/// Guest context derived from the VMCB at VMRUN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestCtx {
    /// The guest's ASID (selects the `Kvek` in the memory controller).
    pub asid: Asid,
    /// Whether SEV is enabled for this guest.
    pub sev: bool,
    /// Nested page table root (host physical).
    pub ncr3: Hpa,
    /// The guest's own CR3 (guest physical).
    pub gcr3: Gpa,
}

#[derive(Debug, Clone, Copy)]
struct HostSave {
    cr0: Cr0,
    cr3: Hpa,
    cr4: Cr4,
    efer: Efer,
    rip: u64,
}

/// Architectural CPU state.
#[derive(Debug)]
pub struct Cpu {
    /// Current world.
    pub mode: Mode,
    /// General-purpose registers — shared across the world switch, which
    /// is exactly SEV's register-exposure problem.
    pub regs: RegFile,
    /// CR0 of the current world.
    pub cr0: Cr0,
    /// CR3 of the current world (host physical when in host mode).
    pub cr3: Hpa,
    /// CR4 of the current world.
    pub cr4: Cr4,
    /// EFER of the current world.
    pub efer: Efer,
    /// Instruction pointer (notional; used for guest save/restore).
    pub rip: u64,
    /// Guest stack pointer mirror.
    pub rsp: u64,
    /// Interrupts enabled?
    pub interrupts_enabled: bool,
    current_vmcb: Option<Hpa>,
    guest: Option<GuestCtx>,
    host_save: Option<HostSave>,
}

impl Cpu {
    fn new() -> Self {
        Cpu {
            mode: Mode::Host,
            regs: RegFile::new(),
            cr0: Cr0::default(),
            cr3: Hpa(0),
            cr4: Cr4::default(),
            efer: Efer::default(),
            rip: 0,
            rsp: 0,
            interrupts_enabled: true,
            current_vmcb: None,
            guest: None,
            host_save: None,
        }
    }

    /// The VMCB the CPU is currently (or was last) running from.
    pub fn current_vmcb(&self) -> Option<Hpa> {
        self.current_vmcb
    }

    /// The active guest context, if in guest mode.
    pub fn guest_ctx(&self) -> Option<GuestCtx> {
        self.guest
    }
}

/// A privileged instruction, as executed through [`Machine::exec_priv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivOp {
    /// `mov cr0, …` — may toggle PG and WP.
    WriteCr0(Cr0),
    /// `mov cr3, …` — switches the address space, flushing the TLB.
    WriteCr3(Hpa),
    /// `mov cr4, …` — may toggle SMEP.
    WriteCr4(Cr4),
    /// `wrmsr` to EFER — may toggle NXE/SVME.
    WriteEfer(Efer),
    /// `vmrun` with the VMCB's physical address.
    Vmrun(Hpa),
    /// `invlpg` — flush one TLB entry.
    Invlpg(Hva),
    /// `lgdt`.
    Lgdt(u64),
    /// `lidt`.
    Lidt(u64),
    /// `cli`.
    Cli,
    /// `sti`.
    Sti,
}

/// The longest [`PrivOp::encoding`]: `exec_priv` fetches into a stack
/// buffer of this size.
const MAX_INSN_LEN: usize = 3;

impl PrivOp {
    /// The opcode bytes this instruction occupies in the code region. The
    /// CPU verifies these bytes at the execution site.
    pub fn encoding(&self) -> &'static [u8] {
        match self {
            PrivOp::WriteCr0(_) => &[0x0F, 0x22, 0xC0],
            PrivOp::WriteCr3(_) => &[0x0F, 0x22, 0xD8],
            PrivOp::WriteCr4(_) => &[0x0F, 0x22, 0xE0],
            PrivOp::WriteEfer(_) => &[0x0F, 0x30],
            PrivOp::Vmrun(_) => &[0x0F, 0x01, 0xD8],
            PrivOp::Invlpg(_) => &[0x0F, 0x01, 0x38],
            PrivOp::Lgdt(_) => &[0x0F, 0x01, 0x10],
            PrivOp::Lidt(_) => &[0x0F, 0x01, 0x18],
            PrivOp::Cli => &[0xFA],
            PrivOp::Sti => &[0xFB],
        }
    }
}

/// Where an access starts, in one of the three address spaces the CPU
/// translates. The mapping used decides which key the memory controller
/// applies.
#[derive(Debug, Clone, Copy)]
enum Addr {
    /// Host virtual, through the host page tables.
    Host(Hva),
    /// Guest physical, through the NPT alone; `true` asks for the guest's
    /// `Kvek` (the C-bit of the guest mapping used).
    GuestPhys(Gpa, bool),
    /// Guest virtual, through the guest's own tables and then the NPT.
    GuestVirt(Gva),
}

impl Addr {
    fn add(self, delta: u64) -> Self {
        match self {
            Addr::Host(va) => Addr::Host(va.add(delta)),
            Addr::GuestPhys(gpa, encrypted) => Addr::GuestPhys(gpa.add(delta), encrypted),
            Addr::GuestVirt(va) => Addr::GuestVirt(va.add(delta)),
        }
    }

    fn page_offset(self) -> u64 {
        match self {
            Addr::Host(va) => va.page_offset(),
            Addr::GuestPhys(gpa, _) => gpa.page_offset(),
            Addr::GuestVirt(va) => va.page_offset(),
        }
    }

    /// The fault this space raises when `access` fails for `reason`.
    fn fault(self, access: AccessKind, reason: FaultReason) -> Fault {
        match self {
            Addr::Host(va) => Fault::HostPageFault { va, access, reason },
            Addr::GuestPhys(gpa, _) => Fault::NestedPageFault { gpa, access, reason },
            Addr::GuestVirt(va) => Fault::GuestPageFault { va, access, reason },
        }
    }
}

/// The caller's side of an access: a buffer to fill, data to store, or
/// instruction bytes to fetch.
enum Buf<'a> {
    Read(&'a mut [u8]),
    Write(&'a [u8]),
    Fetch(&'a mut [u8]),
}

impl Buf<'_> {
    fn len(&self) -> usize {
        match self {
            Buf::Read(buf) | Buf::Fetch(buf) => buf.len(),
            Buf::Write(data) => data.len(),
        }
    }

    fn access(&self) -> AccessKind {
        match self {
            Buf::Read(_) => AccessKind::Read,
            Buf::Write(_) => AccessKind::Write,
            Buf::Fetch(_) => AccessKind::Execute,
        }
    }

    /// One memory-controller call over `range` of the buffer.
    fn transfer(
        &mut self,
        mc: &mut MemoryController,
        pa: Hpa,
        range: Range<usize>,
        enc: EncSel,
    ) -> Result<(), HwError> {
        match self {
            Buf::Read(buf) | Buf::Fetch(buf) => mc.read(pa, &mut buf[range], enc),
            Buf::Write(data) => mc.write(pa, &data[range], enc),
        }
    }
}

/// A pending coalesced memory-controller call: a run of consecutive
/// pieces whose translations were host-contiguous under one [`EncSel`],
/// folded into a single streaming `mc.read`/`mc.write`.
#[derive(Debug, Clone, Copy)]
struct PendingRun {
    /// Start offset of the run in the caller's buffer.
    buf_off: usize,
    /// Host-physical start of the run.
    hpa: Hpa,
    /// Encryption selection shared by every piece of the run.
    enc: EncSel,
    /// Bytes accumulated so far.
    len: usize,
}

/// The `chunk` of a stream that is cut only at page boundaries.
const NO_CHUNKING: usize = usize::MAX;

/// The NPT's write check: a write through a read-only NPT leaf is an NPT
/// violation.
fn npt_permits(gpa: Gpa, access: AccessKind, writable: bool) -> Result<(), Fault> {
    if access == AccessKind::Write && !writable {
        return Err(Fault::NestedPageFault { gpa, access, reason: FaultReason::WriteProtected });
    }
    Ok(())
}

/// Which of two equivalent implementations the stack's fast paths run.
///
/// Every fast path (the cached TLB and coalesced memory streams here, the
/// batched blkif drain and the per-page SEV-API I/O transform in the
/// hypervisor layer) keeps the path it replaced as its reference. Both
/// must give identical data, statuses, faults, f64-exact modeled cycles,
/// TLB counters and telemetry snapshots, except that faults injected at
/// [`InjectPoint::BlkifDrain`] exist only on the fast drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// The fast paths (what [`Machine::new`] selects, and what everything
    /// outside differential tests and the reference bench scenarios runs).
    Fast,
    /// The reference paths: every translation walks even on a usable TLB
    /// hit (the TLB then only counts), every access piece takes its own
    /// memory-controller round trip, the blkif back-end drains one request
    /// at a time, and the SEV-API I/O transform runs sector by sector.
    Reference,
}

/// One instrumented crossing, booked by [`scope`]: the flight-recorder
/// span it opens (kind, label, args) and, optionally, the cycle category
/// its body charges to and the telemetry event that completes it.
#[derive(Debug, Clone)]
pub struct Site<'a> {
    kind: SpanKind,
    label: &'static str,
    args: &'a [(&'static str, ArgValue)],
    category: Option<CycleCategory>,
    done: Option<Event>,
}

impl Site<'static> {
    /// A `kind` span labelled `label`, with no args, category or event.
    pub const fn new(kind: SpanKind, label: &'static str) -> Self {
        Site { kind, label, args: &[], category: None, done: None }
    }
}

impl<'a> Site<'a> {
    /// Records `args` on the span.
    pub fn args<'b>(self, args: &'b [(&'static str, ArgValue)]) -> Site<'b> {
        Site { kind: self.kind, label: self.label, args, category: self.category, done: self.done }
    }

    /// Charges the body's cycles to `category` (the previous category is
    /// restored when the body returns).
    pub fn charged_to(mut self, category: CycleCategory) -> Self {
        self.category = Some(category);
        self
    }

    /// Emits `event` once the span has closed.
    pub fn then_emit(mut self, event: Event) -> Self {
        self.done = Some(event);
        self
    }
}

/// Runs `body` as one crossing of `site` on whatever `host` reaches the
/// machine ([`Machine`], `Platform`, `System`), booking everything the
/// site names at one point: span open → category enter → `body` →
/// category exit → span close → completion event. The order is the same
/// whatever `body` returns, so an `Err` closes its span, restores the
/// category and still emits the event, with no hand-written close.
///
/// With the recorder disarmed the span costs one relaxed atomic load; the
/// category and the event are booked all the same.
#[inline]
pub fn scope<H, R>(host: &mut H, site: Site<'_>, body: impl FnOnce(&mut H) -> R) -> R
where
    H: AsMut<Machine>,
{
    let m = host.as_mut();
    let span = m.span_open(site.kind, site.label, site.args);
    let previous = site.category.map(|c| m.cycles.enter(c));
    let result = body(host);
    let m = host.as_mut();
    if let Some(previous) = previous {
        m.cycles.exit(previous);
    }
    m.span_close(span);
    if let Some(event) = site.done {
        m.trace.emit(event);
    }
    result
}

/// The machine: memory system + one CPU + cycle accounting.
#[derive(Debug)]
pub struct Machine {
    /// Memory controller (with the encryption engine) over DRAM.
    pub mc: MemoryController,
    /// The TLB.
    pub tlb: Tlb,
    /// Simulated cycle counter.
    pub cycles: Cycles,
    /// The cost model used for charging.
    pub cost: CostModel,
    /// CPU state.
    pub cpu: Cpu,
    /// The telemetry tracer every layer above shares (clones of this handle
    /// all feed one ring buffer and one metrics registry).
    pub trace: Tracer,
    /// The fault-injection handle every layer above shares. Disarmed by
    /// default; the fault-injection harness installs a seeded schedule here.
    pub inject: InjectorHandle,
    /// The flight recorder every layer above shares. Disarmed by default
    /// (one relaxed atomic load per hook crossing); `trace_report` arms a
    /// clone of this handle and drains the span timeline afterwards.
    pub rec: Recorder,
    /// Fast or reference paths; see [`Machine::set_fidelity`].
    fidelity: Fidelity,
}

impl AsMut<Machine> for Machine {
    fn as_mut(&mut self) -> &mut Machine {
        self
    }
}

impl Machine {
    /// Builds a machine with `dram_size` bytes of physical memory.
    pub fn new(dram_size: u64) -> Self {
        let trace = Tracer::default();
        Machine {
            mc: MemoryController::new(Dram::new(dram_size)).with_tracer(trace.clone()),
            tlb: Tlb::new(),
            cycles: Cycles::new(),
            cost: CostModel::default(),
            cpu: Cpu::new(),
            trace,
            inject: InjectorHandle::new(),
            rec: Recorder::default(),
            fidelity: Fidelity::Fast,
        }
    }

    /// Selects the fast paths or their reference implementations for this
    /// machine and every layer driving it. As long as every page-table
    /// edit is followed by the architectural flush it requires, the two
    /// are bit-identical in everything [`Fidelity`] lists.
    pub fn set_fidelity(&mut self, fidelity: Fidelity) {
        self.fidelity = fidelity;
    }

    /// The active [`Fidelity`].
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Queries the fault-injection handle at `point`, emitting a
    /// [`Event::FaultInjected`] telemetry event when a fault fires so every
    /// injection is visible on the trace before its outcome is known.
    ///
    /// Hook sites in the layers above call this (one relaxed atomic load
    /// when disarmed) and apply whatever adversarial action comes back.
    pub fn inject_at(&mut self, point: InjectPoint) -> Option<FaultAction> {
        let action = self.inject.decide(point)?;
        self.trace.emit(Event::FaultInjected { kind: action.kind(), point: point.as_str() });
        Some(action)
    }

    /// Books a refusal on the audit trail (paper §5.3: impede the
    /// operation "and log this operation for further auditing"): one
    /// [`Event::Denial`], which the metrics registry counts under
    /// `reason.kind()`. Every refusal in the stack is booked here, so the
    /// trace is the one audit log. Returns `reason` for the caller's error.
    pub fn deny(&mut self, reason: DenialReason) -> DenialReason {
        self.trace.emit(Event::Denial { reason });
        reason
    }

    /// Books a fail-closed refusal: [`Machine::deny`], then, when the
    /// fault-injection layer is armed, the [`Event::FaultOutcome`] that
    /// pairs the `kind` injection with its disposal. Returns `reason` for
    /// the caller's error.
    pub fn fail_closed(&mut self, reason: DenialReason, kind: FaultKind) -> DenialReason {
        self.deny(reason);
        if self.inject.is_armed() {
            self.trace
                .emit(Event::FaultOutcome { kind, outcome: InjectionOutcome::FailClosed(reason) });
        }
        reason
    }

    /// A point-in-time telemetry rollup: the tracer's metrics with the TLB
    /// lookup counters folded in, plus the per-category cycle breakdown.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut metrics = self.trace.metrics();
        let c = self.tlb.counters();
        metrics.set_tlb_counters(c.hits, c.misses, c.evictions, c.walks);
        Snapshot {
            metrics,
            cycles: self.cycles.breakdown(),
            events_total: self.trace.total_emitted(),
            events_dropped: self.trace.dropped(),
        }
    }

    /// The flight-recorder track this CPU is currently on: the running
    /// guest's ASID, or 0 for host (hypervisor/Fidelius/dom0) execution.
    pub fn span_track(&self) -> u64 {
        self.cpu.guest.map(|g| g.asid.0 as u64).unwrap_or(0)
    }

    /// Opens a flight-recorder span stamped with the modeled-cycle clock
    /// and the current track. Disarmed, this is one relaxed atomic load
    /// and returns [`SpanId::NONE`] — no float work, no lock.
    ///
    /// Every span opens here ([`scope`] for the layers above), so the
    /// timestamp source (`cycles.total_f64()`) and track assignment can
    /// never disagree with the cycle attribution in the same snapshot.
    fn span_open(
        &self,
        kind: SpanKind,
        label: &'static str,
        args: &[(&'static str, ArgValue)],
    ) -> SpanId {
        if !self.rec.is_armed() {
            return SpanId::NONE;
        }
        self.rec.open(kind, label, self.span_track(), self.cycles.total_f64(), args)
    }

    /// Closes a span at the current modeled-cycle stamp. A null id — what
    /// [`Machine::span_open`] returns while disarmed — is a no-op.
    fn span_close(&self, id: SpanId) {
        if id.is_none() {
            return;
        }
        self.rec.close(id, self.cycles.total_f64());
    }

    // ----- the access loop -----------------------------------------------

    /// The one access loop behind every public access. `buf` is cut into
    /// `chunk`-byte pieces, split again at page boundaries; each piece
    /// takes one translation and one engine charge, exactly as a separate
    /// call per piece would.
    ///
    /// With `coalesce`, pieces that are host-contiguous under one
    /// [`EncSel`] fold into a single memory-controller call below the
    /// charging layer, but only over spans
    /// [`MemoryController::access_infallible`] vouches for, and never under
    /// [`Fidelity::Reference`]. Any other piece keeps its own call,
    /// and a controller rejection raises the space's fault, so the
    /// partial-commit state and the faulting address are those of the
    /// per-piece loop.
    fn stream(
        &mut self,
        at: Addr,
        mut buf: Buf<'_>,
        chunk: usize,
        coalesce: bool,
    ) -> Result<(), Fault> {
        let access = buf.access();
        let coalesce = coalesce && self.fidelity == Fidelity::Fast;
        let mut run: Option<PendingRun> = None;
        let mut off = 0usize;
        while off < buf.len() {
            let cur = at.add(off as u64);
            let in_chunk = chunk - off % chunk;
            let in_page = (PAGE_SIZE - cur.page_offset()) as usize;
            let take = in_chunk.min(in_page).min(buf.len() - off);
            // A pending write commits before any software walk, so a write
            // whose earlier pieces land in page-table pages is visible to a
            // later piece's walk, as with separate calls.
            if access == AccessKind::Write && run.is_some() && !self.tlb_serves(cur) {
                self.commit(run.take(), &mut buf);
            }
            let (pa, enc) = match self.translate(cur, access) {
                Ok(v) => v,
                Err(fault) => {
                    // Pieces before the faulting one still commit.
                    self.commit(run.take(), &mut buf);
                    return Err(fault);
                }
            };
            // The cost model charges the engine on data accesses only.
            if access != AccessKind::Execute {
                self.charge_engine(enc, take as u64);
            }
            if coalesce && self.mc.access_infallible(pa, take as u64, enc) {
                match &mut run {
                    Some(r) if r.enc == enc && r.hpa.0 + r.len as u64 == pa.0 => r.len += take,
                    _ => {
                        let started = PendingRun { buf_off: off, hpa: pa, enc, len: take };
                        let prev = run.replace(started);
                        self.commit(prev, &mut buf);
                    }
                }
            } else {
                self.commit(run.take(), &mut buf);
                buf.transfer(&mut self.mc, pa, off..off + take, enc)
                    .map_err(|_| cur.fault(access, FaultReason::BadPhysicalAddress))?;
            }
            off += take;
        }
        self.commit(run.take(), &mut buf);
        Ok(())
    }

    /// Commits a pending coalesced run. Runs are only opened over accesses
    /// [`MemoryController::access_infallible`] vouched for, so the
    /// controller call cannot fail here.
    fn commit(&mut self, run: Option<PendingRun>, buf: &mut Buf<'_>) {
        let Some(r) = run else { return };
        if self.rec.is_armed() {
            let label = match buf {
                Buf::Write(_) => "mem-stream:write",
                Buf::Read(_) | Buf::Fetch(_) => "mem-stream:read",
            };
            self.rec.instant(
                SpanKind::MemStream,
                label,
                self.span_track(),
                self.cycles.total_f64(),
                &[("hpa", ArgValue::U64(r.hpa.0)), ("len", ArgValue::U64(r.len as u64))],
            );
        }
        buf.transfer(&mut self.mc, r.hpa, r.buf_off..r.buf_off + r.len, r.enc)
            .expect("coalesced span pre-checked against DRAM and keys");
    }

    /// The engine's extra per-cache-line latency for a piece of `bytes`
    /// under `enc`, charged at once. Nothing else adds to
    /// [`CycleCategory::CryptoEngine`] during an access, so a stream's
    /// charges land in the same order as separate calls'.
    fn charge_engine(&mut self, enc: EncSel, bytes: u64) {
        if enc != EncSel::None {
            let lines = bytes.div_ceil(crate::CACHE_LINE).max(1);
            self.cycles
                .charge_as(CycleCategory::CryptoEngine, lines as f64 * self.cost.engine_line_extra);
        }
    }

    // ----- translation -----------------------------------------------------

    fn translate(&mut self, at: Addr, access: AccessKind) -> Result<(Hpa, EncSel), Fault> {
        match at {
            Addr::Host(va) => self.host_translate(va, access),
            Addr::GuestPhys(gpa, encrypted) => self.gpa_translate(gpa, encrypted, access),
            Addr::GuestVirt(va) => self.guest_translate(va, access),
        }
    }

    /// The TLB slot `at` translates through: its space, its page number,
    /// and the walk kind whose payload may serve it.
    fn tlb_slot(&self, at: Addr) -> (Space, u64, TransKind) {
        let guest =
            || Space::Guest(self.cpu.guest.expect("guest access requires guest mode").asid.0);
        match at {
            Addr::Host(va) => (Space::Host, va.pfn(), TransKind::HostVirt),
            Addr::GuestPhys(gpa, _) => (guest(), gpa.pfn(), TransKind::GuestPhys),
            Addr::GuestVirt(va) => (guest(), va.pfn(), TransKind::GuestVirt),
        }
    }

    /// Whether the TLB would serve `at` without a software walk. A
    /// non-counting [`Tlb::peek`]: no hit/miss accounting.
    fn tlb_serves(&self, at: Addr) -> bool {
        let (space, vpn, kind) = self.tlb_slot(at);
        self.tlb.peek(space, vpn).is_some_and(|c| c.kind == kind)
    }

    /// The one TLB path of every paged translation. The lookup charges
    /// `mem_access`; a miss opens the refill span, charges the walk to
    /// [`CycleCategory::Paging`] and counts it. A usable hit of the right
    /// kind is served except under [`Fidelity::Reference`]. Anything else
    /// walks: a miss inserts the walked entry, and a demoted or wrong-kind
    /// hit is repaired in place, so residency and eviction order stay
    /// exactly as if the entry had never gone stale.
    ///
    /// `check` is the translator's permission rule. It judges the served
    /// entry and the walked one alike, and it runs before the insert: a
    /// walk that faults leaves the TLB as it found it.
    fn tlb_translate(
        &mut self,
        at: Addr,
        check: impl Fn(&CachedTranslation) -> Result<(), Fault>,
        walk: impl FnOnce(&mut Self) -> Result<CachedTranslation, Fault>,
    ) -> Result<CachedTranslation, Fault> {
        let (space, vpn, kind) = self.tlb_slot(at);
        let lookup = self.tlb.lookup(space, vpn);
        self.cycles.charge(self.cost.mem_access);
        let mut refill = SpanId::NONE;
        if !lookup.is_hit() {
            let (span, label, arg, cost, walks) = match at {
                Addr::Host(_) => {
                    (SpanKind::TlbRefill, "tlb-refill:host", "vpn", self.cost.gpt_walk, 1)
                }
                Addr::GuestPhys(..) => {
                    (SpanKind::NptWalk, "npt-walk", "gpfn", self.cost.npt_walk, 1)
                }
                // A guest-virtual miss walks both the guest table and the NPT.
                Addr::GuestVirt(_) => {
                    let cost = self.cost.gpt_walk + self.cost.npt_walk;
                    (SpanKind::GuestWalk, "guest-walk", "vpn", cost, 2)
                }
            };
            refill = self.span_open(span, label, &[(arg, ArgValue::U64(vpn))]);
            self.cycles.charge_as(CycleCategory::Paging, cost);
            self.tlb.record_walks(walks);
        }
        let usable = lookup.cached().filter(|c| c.kind == kind);
        if let Some(c) = usable.filter(|_| self.fidelity == Fidelity::Fast) {
            check(&c)?;
            return Ok(c);
        }
        let walked = walk(self);
        self.span_close(refill);
        let fresh = walked?;
        check(&fresh)?;
        match lookup {
            Lookup::Miss => self.tlb.insert(space, vpn, fresh),
            Lookup::Hit(_) if usable.is_none() => self.tlb.refresh(space, vpn, fresh),
            // A usable hit (reference mode) already matches the walk.
            Lookup::Hit(_) => {}
        }
        Ok(fresh)
    }

    /// One hardware walk of the four-level table at `root`.
    fn walk_table(&self, root: Hpa, addr: u64) -> Result<Translation, FaultReason> {
        match walk(&self.mc, root, addr, EncSel::None) {
            Err(_) => Err(FaultReason::BadPhysicalAddress),
            Ok(Err(_miss)) => Err(FaultReason::NotPresent),
            Ok(Ok(t)) => Ok(t),
        }
    }

    /// Host virtual → host physical; the host PT C-bit selects the SME key.
    fn host_translate(&mut self, va: Hva, access: AccessKind) -> Result<(Hpa, EncSel), Fault> {
        assert_eq!(self.cpu.mode, Mode::Host, "host access while in guest mode");
        if !self.cpu.cr0.pg {
            // Pre-paging: identity map, no engine.
            self.cycles.charge(self.cost.mem_access);
            return Ok((Hpa(va.0), EncSel::None));
        }
        let at = Addr::Host(va);
        // Permission bits are judged against the *current* CR0.WP: a type-1
        // gate clears WP without any flush and the next write through a
        // cached read-only entry must go through.
        let wp = self.cpu.cr0.wp;
        let c = self.tlb_translate(
            at,
            |c| permits(c.writable, c.nx, access, wp).map_err(|r| at.fault(access, r)),
            |m| {
                let t = m.walk_table(m.cpu.cr3, va.0).map_err(|r| at.fault(access, r))?;
                Ok(CachedTranslation::host(t.pa.pfn(), t.writable, t.nx, t.c_bit))
            },
        )?;
        let enc = if c.c_bit { EncSel::Sme } else { EncSel::None };
        Ok((Hpa::from_pfn(c.hpfn).add(va.page_offset()), enc))
    }

    // ----- host-mode accesses ------------------------------------------

    /// Reads host-virtual memory. Splits at page boundaries.
    ///
    /// # Errors
    ///
    /// Returns the architectural fault a real access would raise,
    /// including `BadPhysicalAddress` for a mapping outside DRAM.
    pub fn host_read(&mut self, va: Hva, buf: &mut [u8]) -> Result<(), Fault> {
        self.stream(Addr::Host(va), Buf::Read(buf), NO_CHUNKING, false)
    }

    /// Writes host-virtual memory, honouring `CR0.WP` for read-only pages.
    ///
    /// # Errors
    ///
    /// Returns the architectural fault a real access would raise — this is
    /// how hypervisor writes to write-protected page-table-pages reach
    /// Fidelius's fault handler.
    pub fn host_write(&mut self, va: Hva, data: &[u8]) -> Result<(), Fault> {
        self.stream(Addr::Host(va), Buf::Write(data), NO_CHUNKING, false)
    }

    /// Reads a little-endian u64 from host-virtual memory.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::host_read`].
    pub fn host_read_u64(&mut self, va: Hva) -> Result<u64, Fault> {
        let mut buf = [0u8; 8];
        self.host_read(va, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads `N` consecutive little-endian u64 fields at `va`:
    /// semantically `N` back-to-back [`Machine::host_read_u64`] calls. Each
    /// field is its own piece, with its own translation, engine charge and
    /// memory-controller call, and nothing coalesces, so the TLB counters,
    /// cycles, telemetry and an armed recorder see exactly what the
    /// separate calls would show.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::host_read`]; the fault is the first faulting
    /// field's, and the fields after it are not accessed.
    pub fn host_read_u64s<const N: usize>(&mut self, va: Hva) -> Result<[u64; N], Fault> {
        let mut fields = [[0u8; 8]; N];
        self.stream(Addr::Host(va), Buf::Read(fields.as_flattened_mut()), 8, false)?;
        Ok(fields.map(u64::from_le_bytes))
    }

    /// Writes a little-endian u64 to host-virtual memory.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::host_write`].
    pub fn host_write_u64(&mut self, va: Hva, v: u64) -> Result<(), Fault> {
        self.host_write(va, &v.to_le_bytes())
    }

    /// Reads `out.len()` instruction bytes at `va` into `out`, requiring
    /// execute permission on every page touched.
    ///
    /// # Errors
    ///
    /// Faults on non-present or NX mappings.
    pub fn host_fetch(&mut self, va: Hva, out: &mut [u8]) -> Result<(), Fault> {
        self.stream(Addr::Host(va), Buf::Fetch(out), NO_CHUNKING, false)
    }

    /// Streaming host-virtual read: semantically `buf.len() / chunk`
    /// back-to-back [`Machine::host_read`] calls of `chunk` bytes each
    /// (one translation and one engine charge per chunk, page splits
    /// honoured), but host-contiguous same-[`EncSel`] chunks coalesce into
    /// single memory-controller calls below the charging layer — the same
    /// discipline as the guest-path span coalescing. Under
    /// [`Fidelity::Reference`] the per-chunk controller round trips are
    /// reproduced exactly.
    ///
    /// # Errors
    ///
    /// Returns the architectural fault a real access would raise; chunks
    /// before the faulting one are committed, as separate calls would have.
    pub fn host_read_stream(&mut self, va: Hva, buf: &mut [u8], chunk: usize) -> Result<(), Fault> {
        assert!(chunk > 0, "stream chunk must be non-zero");
        self.stream(Addr::Host(va), Buf::Read(buf), chunk, true)
    }

    /// Streaming host-virtual write; see [`Machine::host_read_stream`].
    /// The pending span is committed before any software walk (TLB miss or
    /// demoted/wrong-kind hit) so a write whose earlier chunks land in host
    /// page-table pages is visible to a later chunk's walk, matching the
    /// ordering of separate [`Machine::host_write`] calls.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::host_read_stream`].
    pub fn host_write_stream(&mut self, va: Hva, data: &[u8], chunk: usize) -> Result<(), Fault> {
        assert!(chunk > 0, "stream chunk must be non-zero");
        self.stream(Addr::Host(va), Buf::Write(data), chunk, true)
    }

    // ----- privileged instructions --------------------------------------

    /// Executes a privileged instruction located at host-virtual `site`.
    ///
    /// The CPU (1) fetches the instruction's bytes at `site` — faulting if
    /// the page is unmapped or NX — and (2) verifies they encode `op`.
    /// This grounds Fidelius's "monopolized instruction" and "unmapped
    /// instruction" defenses in the memory system.
    ///
    /// # Errors
    ///
    /// - [`HwError::Fault`] if the site is not executable;
    /// - [`HwError::BadWorldSwitch`] for VMRUN in the wrong state;
    /// - opcode mismatch is reported as a `NoExecute` fault (the bytes at
    ///   the site are not this instruction).
    pub fn exec_priv(&mut self, site: Hva, op: PrivOp) -> Result<(), HwError> {
        assert_eq!(self.cpu.mode, Mode::Host, "guest privileged ops exit instead");
        let enc = op.encoding();
        let mut fetched = [0u8; MAX_INSN_LEN];
        let bytes = &mut fetched[..enc.len()];
        self.host_fetch(site, bytes).map_err(HwError::Fault)?;
        if bytes != enc {
            return Err(HwError::Fault(Fault::HostPageFault {
                va: site,
                access: AccessKind::Execute,
                reason: FaultReason::NoExecute,
            }));
        }
        match op {
            PrivOp::WriteCr0(v) => {
                self.cycles.charge(self.cost.write_cr0);
                self.cpu.cr0 = v;
            }
            PrivOp::WriteCr3(root) => {
                self.cycles.charge(self.cost.write_cr3);
                self.cycles.charge_as(CycleCategory::Paging, self.cost.tlb_flush_full);
                self.cpu.cr3 = root;
                self.tlb.flush_space(Space::Host);
                self.trace.emit(Event::TlbFlush { scope: FlushScope::Space { guest: None } });
            }
            PrivOp::WriteCr4(v) => {
                self.cycles.charge(self.cost.write_cr4);
                self.cpu.cr4 = v;
            }
            PrivOp::WriteEfer(v) => {
                self.cycles.charge(self.cost.wrmsr);
                self.cpu.efer = v;
            }
            PrivOp::Vmrun(vmcb) => {
                self.vmrun(vmcb)?;
            }
            PrivOp::Invlpg(va) => {
                self.cycles.charge_as(CycleCategory::Paging, self.cost.tlb_flush_entry);
                self.tlb.flush_page(Space::Host, va.pfn());
                self.trace.emit(Event::TlbFlush { scope: FlushScope::Entry { va: va.0 } });
            }
            PrivOp::Lgdt(_) | PrivOp::Lidt(_) => {
                self.cycles.charge(self.cost.wrmsr);
            }
            PrivOp::Cli => {
                self.cycles.charge(self.cost.cli);
                self.cpu.interrupts_enabled = false;
            }
            PrivOp::Sti => {
                self.cycles.charge(self.cost.sti);
                self.cpu.interrupts_enabled = true;
            }
        }
        Ok(())
    }

    // ----- world switches ------------------------------------------------

    fn vmrun(&mut self, vmcb_pa: Hpa) -> Result<(), HwError> {
        if self.cpu.mode != Mode::Host || !self.cpu.efer.svme {
            return Err(HwError::BadWorldSwitch);
        }
        let img = VmcbImage::load(&self.mc, vmcb_pa)?;
        let asid = Asid(img.get(VmcbField::Asid) as u16);
        let sev = img.get(VmcbField::SevEnable) != 0;
        if sev && !self.mc.has_guest_key(asid) {
            return Err(HwError::NoKeyForAsid(asid));
        }
        self.cpu.host_save = Some(HostSave {
            cr0: self.cpu.cr0,
            cr3: self.cpu.cr3,
            cr4: self.cpu.cr4,
            efer: self.cpu.efer,
            rip: self.cpu.rip,
        });
        self.cpu.guest = Some(GuestCtx {
            asid,
            sev,
            ncr3: Hpa(img.get(VmcbField::NCr3)),
            gcr3: Gpa(img.get(VmcbField::Cr3)),
        });
        self.cpu.current_vmcb = Some(vmcb_pa);
        self.cpu.cr0 = Cr0::from_bits(img.get(VmcbField::Cr0));
        self.cpu.cr4 = Cr4::from_bits(img.get(VmcbField::Cr4));
        self.cpu.efer = Efer::from_bits(img.get(VmcbField::Efer));
        self.cpu.rip = img.get(VmcbField::Rip);
        self.cpu.rsp = img.get(VmcbField::Rsp);
        self.cpu.regs.set(crate::regs::Gpr::Rax, img.get(VmcbField::Rax));
        self.cpu.mode = Mode::Guest;
        self.cycles.charge_as(CycleCategory::WorldSwitch, self.cost.vmrun);
        self.trace.emit(Event::Vmrun { asid: asid.0, sev });
        Ok(())
    }

    /// #VMEXIT: stores guest state into the VMCB (in plaintext — SEV's
    /// gap), restores the host context, and leaves the guest's GPRs in the
    /// register file for the hypervisor to see.
    ///
    /// # Errors
    ///
    /// [`HwError::BadWorldSwitch`] if not in guest mode.
    pub fn vmexit(&mut self, code: ExitCode, info1: u64, info2: u64) -> Result<(), HwError> {
        if self.cpu.mode != Mode::Guest {
            return Err(HwError::BadWorldSwitch);
        }
        let vmcb_pa = self.cpu.current_vmcb.expect("guest mode implies a VMCB");
        let mut img = VmcbImage::load(&self.mc, vmcb_pa)?;
        img.set(VmcbField::ExitCode, code as u64)
            .set(VmcbField::ExitInfo1, info1)
            .set(VmcbField::ExitInfo2, info2)
            .set(VmcbField::Rip, self.cpu.rip)
            .set(VmcbField::Rsp, self.cpu.rsp)
            .set(VmcbField::Rax, self.cpu.regs.get(crate::regs::Gpr::Rax))
            .set(VmcbField::Cr0, self.cpu.cr0.to_bits())
            .set(VmcbField::Cr4, self.cpu.cr4.to_bits())
            .set(VmcbField::Efer, self.cpu.efer.to_bits());
        img.store(&mut self.mc, vmcb_pa)?;
        let save = self.cpu.host_save.take().expect("guest mode implies a host save");
        let asid = self.cpu.guest.map(|g| g.asid.0).unwrap_or(0);
        self.cpu.cr0 = save.cr0;
        self.cpu.cr3 = save.cr3;
        self.cpu.cr4 = save.cr4;
        self.cpu.efer = save.efer;
        self.cpu.rip = save.rip;
        self.cpu.guest = None;
        self.cpu.mode = Mode::Host;
        self.cycles.charge_as(CycleCategory::WorldSwitch, self.cost.vmexit);
        self.trace.emit(Event::Vmexit { exit_code: code as u64, asid });
        Ok(())
    }

    // ----- guest-mode accesses -------------------------------------------

    /// Translates a guest physical address through the NPT.
    ///
    /// # Errors
    ///
    /// [`Fault::NestedPageFault`] on a miss or permission violation — the
    /// NPT violation that exits to the host.
    pub fn npt_translate(&mut self, gpa: Gpa, access: AccessKind) -> Result<Hpa, Fault> {
        self.npt_translate_full(gpa, access).map(|(pa, _)| pa)
    }

    /// Like [`Machine::npt_translate`], also returning the NPT leaf's
    /// C-bit. A set NPT C-bit routes the access through the host SME key —
    /// the mechanism the paper uses to *simulate* SEV overhead with SME
    /// ("Fidelius-enc"): a hypercall sets the C-bit on the guest's NPT
    /// entries and all subsequent guest memory traffic pays the engine.
    ///
    /// # Errors
    ///
    /// [`Fault::NestedPageFault`] on a miss or permission violation.
    pub fn npt_translate_full(
        &mut self,
        gpa: Gpa,
        access: AccessKind,
    ) -> Result<(Hpa, bool), Fault> {
        let t = self.npt_walk(gpa, access)?;
        npt_permits(gpa, access, t.writable)?;
        Ok((t.pa, t.c_bit))
    }

    /// The raw NPT walk (no TLB interaction, no permission check), with
    /// walk misses mapped to [`Fault::NestedPageFault`].
    fn npt_walk(&self, gpa: Gpa, access: AccessKind) -> Result<Translation, Fault> {
        let guest = self.cpu.guest.expect("guest access requires guest mode");
        self.walk_table(guest.ncr3, gpa.0).map_err(|reason| Fault::NestedPageFault {
            gpa,
            access,
            reason,
        })
    }

    /// The key of a guest access: the guest's `Kvek` when the mapping asks
    /// for it under SEV, otherwise the SME key when the NPT leaf carries
    /// the C-bit.
    fn guest_enc(&self, kvek: bool, npt_c: bool) -> EncSel {
        let guest = self.cpu.guest.expect("guest mode");
        if kvek && guest.sev {
            EncSel::Guest(guest.asid)
        } else if npt_c {
            EncSel::Sme
        } else {
            EncSel::None
        }
    }

    /// Guest physical → host physical through the NPT; `encrypted` asks
    /// for the guest key.
    fn gpa_translate(
        &mut self,
        gpa: Gpa,
        encrypted: bool,
        access: AccessKind,
    ) -> Result<(Hpa, EncSel), Fault> {
        let c = self.tlb_translate(
            Addr::GuestPhys(gpa, encrypted),
            |c| npt_permits(gpa, access, c.npt_writable),
            |m| {
                let t = m.npt_walk(gpa, access)?;
                Ok(CachedTranslation::guest_phys(gpa.pfn(), t.pa.pfn(), t.writable, t.c_bit))
            },
        )?;
        Ok((Hpa::from_pfn(c.hpfn).add(gpa.page_offset()), self.guest_enc(encrypted, c.npt_c)))
    }

    /// Direct guest-physical access (how the guest kernel touches page
    /// tables and DMA buffers). `encrypted` chooses whether the access
    /// goes through the guest's `Kvek` — in page-table terms, the C-bit of
    /// the guest mapping used.
    ///
    /// # Errors
    ///
    /// NPT faults propagate (they would exit to the host).
    pub fn guest_read_gpa(
        &mut self,
        gpa: Gpa,
        buf: &mut [u8],
        encrypted: bool,
    ) -> Result<(), Fault> {
        assert_eq!(self.cpu.mode, Mode::Guest);
        self.stream(Addr::GuestPhys(gpa, encrypted), Buf::Read(buf), NO_CHUNKING, true)
    }

    /// Direct guest-physical write; see [`Machine::guest_read_gpa`].
    ///
    /// # Errors
    ///
    /// NPT faults propagate (they would exit to the host).
    pub fn guest_write_gpa(&mut self, gpa: Gpa, data: &[u8], encrypted: bool) -> Result<(), Fault> {
        assert_eq!(self.cpu.mode, Mode::Guest);
        self.stream(Addr::GuestPhys(gpa, encrypted), Buf::Write(data), NO_CHUNKING, true)
    }

    /// Writes `data` as back-to-back [`Machine::guest_write_gpa`] calls of
    /// `chunk` bytes each (the last may be shorter), in one call: the
    /// guest-side entry point for a run of small fields, as
    /// [`Machine::host_write_stream`] is for host runs. Unlike its
    /// coalescing counterpart [`Machine::guest_write_gpa_coalesced`],
    /// chunks never coalesce with each other: each takes its own
    /// translations and engine charges and commits as its own run, exactly
    /// as a separate call would, so an armed recorder books one
    /// `mem-stream:write` instant per chunk.
    ///
    /// # Errors
    ///
    /// NPT faults propagate; the chunks before the faulting one are
    /// committed, as separate calls would have left them.
    pub fn guest_write_gpa_stream(
        &mut self,
        gpa: Gpa,
        data: &[u8],
        encrypted: bool,
        chunk: usize,
    ) -> Result<(), Fault> {
        assert_eq!(self.cpu.mode, Mode::Guest);
        assert!(chunk > 0, "stream chunk must be non-zero");
        for (off, piece) in (0..).step_by(chunk).zip(data.chunks(chunk)) {
            let at = Addr::GuestPhys(gpa.add(off), encrypted);
            self.stream(at, Buf::Write(piece), NO_CHUNKING, true)?;
        }
        Ok(())
    }

    /// Writes `data` in `chunk`-byte pieces, each charged as its own
    /// [`Machine::guest_write_gpa`] call would be (one translation with its
    /// TLB lookup and `mem_access` charge, one engine charge), while
    /// host-contiguous pieces under one key coalesce into one
    /// memory-controller run, as [`Machine::host_write_stream`] does for
    /// host runs. The bytes and modeled counts equal the separate calls';
    /// only an armed recorder sees one `mem-stream:write` instant per run
    /// instead of one per piece. Under [`Fidelity::Reference`] every piece
    /// keeps its own transfer.
    ///
    /// # Errors
    ///
    /// NPT faults propagate; the pieces before the faulting one are
    /// committed, as separate calls would have left them.
    pub fn guest_write_gpa_coalesced(
        &mut self,
        gpa: Gpa,
        data: &[u8],
        encrypted: bool,
        chunk: usize,
    ) -> Result<(), Fault> {
        assert_eq!(self.cpu.mode, Mode::Guest);
        assert!(chunk > 0, "stream chunk must be non-zero");
        self.stream(Addr::GuestPhys(gpa, encrypted), Buf::Write(data), chunk, true)
    }

    /// Guest virtual read through the guest's own page tables, then the
    /// NPT. The C-bit of the *guest leaf entry* selects encryption, as on
    /// real SEV hardware; the guest's page tables themselves are always
    /// read with the guest key when SEV is on.
    ///
    /// # Errors
    ///
    /// Guest page faults (stage 1) and nested page faults (stage 2).
    pub fn guest_read(&mut self, va: Gva, buf: &mut [u8]) -> Result<(), Fault> {
        self.stream(Addr::GuestVirt(va), Buf::Read(buf), NO_CHUNKING, true)
    }

    /// Guest virtual write; see [`Machine::guest_read`].
    ///
    /// # Errors
    ///
    /// Guest page faults (stage 1) and nested page faults (stage 2).
    pub fn guest_write(&mut self, va: Gva, data: &[u8]) -> Result<(), Fault> {
        self.stream(Addr::GuestVirt(va), Buf::Write(data), NO_CHUNKING, true)
    }

    /// Guest virtual → host physical through both stages.
    fn guest_translate(&mut self, va: Gva, access: AccessKind) -> Result<(Hpa, EncSel), Fault> {
        assert_eq!(self.cpu.mode, Mode::Guest);
        let at = Addr::GuestVirt(va);
        let off = va.page_offset();
        let c = self.tlb_translate(
            at,
            // Stage-1 permission faults precede stage-2 ones, in walk order.
            |c| {
                permits(c.writable, c.nx, access, true).map_err(|r| at.fault(access, r))?;
                npt_permits(Gpa::from_pfn(c.gpfn).add(off), access, c.npt_writable)
            },
            |m| m.guest_two_stage_walk(va, access),
        )?;
        Ok((Hpa::from_pfn(c.hpfn).add(off), self.guest_enc(c.c_bit, c.npt_c)))
    }

    /// The software walk behind [`Machine::guest_translate`]: stage 1
    /// through the guest's own page tables (every table access is itself a
    /// GPA that must pass through the NPT, and table reads use the guest
    /// key when SEV is on), then stage 2 for the final data page.
    fn guest_two_stage_walk(
        &mut self,
        va: Gva,
        access: AccessKind,
    ) -> Result<CachedTranslation, Fault> {
        let guest = self.cpu.guest.expect("guest mode");
        let table_enc = if guest.sev { EncSel::Guest(guest.asid) } else { EncSel::None };
        let gfault = |reason| Fault::GuestPageFault { va, access, reason };
        let mut table_gpa = guest.gcr3;
        let mut writable = true;
        let mut nx = false;
        let mut leaf = crate::paging::Pte(0);
        for level in (0..=3u8).rev() {
            let entry_gpa = Gpa(table_gpa.0 + crate::paging::table_index(va.0, level) * 8);
            let entry_hpa = self.npt_translate(entry_gpa, AccessKind::Read)?;
            let raw = self
                .mc
                .read_u64(entry_hpa, table_enc)
                .map_err(|_| gfault(FaultReason::BadPhysicalAddress))?;
            let pte = crate::paging::Pte(raw);
            if !pte.present() {
                return Err(gfault(FaultReason::NotPresent));
            }
            writable &= pte.writable();
            nx |= pte.nx();
            if level == 0 {
                leaf = pte;
            } else {
                table_gpa = Gpa(pte.addr().0);
            }
        }
        // A stage-1 permission fault comes before the stage-2 walk of the
        // data page.
        permits(writable, nx, access, true).map_err(gfault)?;
        let t2 = self.npt_walk(Gpa(leaf.addr().0 + va.page_offset()), access)?;
        Ok(CachedTranslation::guest_virt(
            t2.pa.pfn(),
            leaf.addr().pfn(),
            writable,
            nx,
            leaf.c_bit(),
            t2.writable,
            t2.c_bit,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles::CycleBreakdown;
    use crate::mem::FrameAllocator;
    use crate::paging::{Mapper, PhysPtAccess, PTE_C_BIT, PTE_NX, PTE_WRITABLE};
    use crate::regs::Gpr;
    use crate::tlb::TlbCounters;
    use fidelius_telemetry::{GateKind, Snapshot};
    use fidelius_trace::TraceBuffer;

    const MEM: u64 = 1024 * PAGE_SIZE; // 4 MiB

    /// Builds a machine with host paging enabled: identity map of the
    /// first 256 pages, writable+executable.
    fn host_machine() -> (Machine, FrameAllocator, Mapper) {
        let mut m = Machine::new(MEM);
        let mut alloc = FrameAllocator::new(Hpa(512 * PAGE_SIZE), 256);
        let mapper = {
            let mut acc = PhysPtAccess::new(&mut m.mc, EncSel::None);
            let mapper = Mapper::create(&mut acc, &mut alloc).unwrap();
            mapper.map_range(&mut acc, &mut alloc, 0, Hpa(0), 256, PTE_WRITABLE).unwrap();
            mapper
        };
        m.cpu.cr3 = mapper.root();
        m.cpu.cr0 = Cr0::enabled();
        m.cpu.efer = Efer { nxe: true, svme: true };
        (m, alloc, mapper)
    }

    #[test]
    fn host_rw_through_paging() {
        let (mut m, _a, _mp) = host_machine();
        m.host_write(Hva(0x1000), b"hello host").unwrap();
        let mut buf = [0u8; 10];
        m.host_read(Hva(0x1000), &mut buf).unwrap();
        assert_eq!(&buf, b"hello host");
    }

    #[test]
    fn host_write_to_readonly_faults_when_wp_set() {
        let (mut m, mut alloc, mapper) = host_machine();
        {
            let mut acc = PhysPtAccess::new(&mut m.mc, EncSel::None);
            mapper.map(&mut acc, &mut alloc, 0x40_0000, Hpa(0x9000), 0).unwrap();
        }
        let err = m.host_write(Hva(0x40_0000), b"x").unwrap_err();
        assert!(matches!(err, Fault::HostPageFault { reason: FaultReason::WriteProtected, .. }));
        // Clearing WP (as a type-1 gate does) lets the write through.
        m.cpu.cr0.wp = false;
        m.host_write(Hva(0x40_0000), b"x").unwrap();
    }

    #[test]
    fn host_fetch_respects_nx() {
        let (mut m, mut alloc, mapper) = host_machine();
        {
            let mut acc = PhysPtAccess::new(&mut m.mc, EncSel::None);
            mapper.map(&mut acc, &mut alloc, 0x50_0000, Hpa(0xA000), PTE_NX).unwrap();
        }
        let err = m.host_fetch(Hva(0x50_0000), &mut [0; 3]).unwrap_err();
        assert!(matches!(err, Fault::HostPageFault { reason: FaultReason::NoExecute, .. }));
    }

    #[test]
    fn exec_priv_requires_matching_bytes_in_executable_page() {
        let (mut m, _a, _mp) = host_machine();
        // Plant a VMRUN encoding at 0x2000.
        m.host_write(Hva(0x2000), &[0x0F, 0x01, 0xD8]).unwrap();
        // Executing CLI at that site must fail (bytes mismatch).
        let err = m.exec_priv(Hva(0x2000), PrivOp::Cli).unwrap_err();
        assert!(matches!(err, HwError::Fault(_)));
        // Executing CLI where its byte exists works.
        m.host_write(Hva(0x2010), &[0xFA]).unwrap();
        m.exec_priv(Hva(0x2010), PrivOp::Cli).unwrap();
        assert!(!m.cpu.interrupts_enabled);
    }

    #[test]
    fn exec_priv_faults_on_unmapped_site() {
        let (mut m, _a, _mp) = host_machine();
        let err = m.exec_priv(Hva(0x7777_0000), PrivOp::Vmrun(Hpa(0x3000))).unwrap_err();
        assert!(matches!(
            err,
            HwError::Fault(Fault::HostPageFault { reason: FaultReason::NotPresent, .. })
        ));
    }

    #[test]
    fn write_cr3_flushes_host_tlb() {
        let (mut m, _a, mp) = host_machine();
        m.host_write(Hva(0x3000), &[1]).unwrap(); // populate TLB
        assert!(!m.tlb.is_empty());
        m.host_write(Hva(0x2020), &[0x0F, 0x22, 0xD8]).unwrap();
        m.exec_priv(Hva(0x2020), PrivOp::WriteCr3(mp.root())).unwrap();
        assert!(m.tlb.is_empty());
    }

    /// Builds a full guest world: NPT mapping GPA [0, 64 pages) →
    /// HPA [0x10_0000, …), guest page tables inside guest memory (built
    /// with the guest key), one data page at GVA 0x7000 with C-bit.
    fn guest_machine(sev: bool) -> (Machine, Hpa) {
        let (mut m, mut alloc, _host_mapper) = host_machine();
        let asid = Asid(3);
        if sev {
            m.mc.install_guest_key(asid, &[0x33; 16]);
        }
        // NPT: GPA 0.. 64 pages → HPA at 1 MiB.
        let guest_base = Hpa(0x10_0000);
        let npt = {
            let mut acc = PhysPtAccess::new(&mut m.mc, EncSel::None);
            let npt = Mapper::create(&mut acc, &mut alloc).unwrap();
            npt.map_range(&mut acc, &mut alloc, 0, guest_base, 64, PTE_WRITABLE).unwrap();
            npt
        };
        // Guest page tables live in guest frames (GPA 0x10000..), written
        // through the engine with the guest key.
        let table_enc = if sev { EncSel::Guest(asid) } else { EncSel::None };
        let gcr3_gpa;
        {
            // The guest's tables are built in guest-physical terms (frames
            // from GPA 0x10000 up); OffsetPtAccess lands the bytes at
            // guest_base + gpa.
            let mut galloc = FrameAllocator::new(Hpa(0x10000), 16);
            let mut acc = crate::paging::OffsetPtAccess::new(&mut m.mc, guest_base, table_enc);
            let gpt = Mapper::create(&mut acc, &mut galloc).unwrap();
            // Map GVA 0x7000 → GPA 0x7000 with C-bit; GVA 0x8000 → GPA
            // 0x8000 without (a shared page).
            gpt.map(&mut acc, &mut galloc, 0x7000, Hpa(0x7000), PTE_WRITABLE | PTE_C_BIT).unwrap();
            gpt.map(&mut acc, &mut galloc, 0x8000, Hpa(0x8000), PTE_WRITABLE).unwrap();
            gcr3_gpa = gpt.root().0;
        }
        // VMCB.
        let vmcb_pa = Hpa(0xF000);
        let mut img = VmcbImage::new();
        img.set(VmcbField::Asid, asid.0 as u64)
            .set(VmcbField::SevEnable, u64::from(sev))
            .set(VmcbField::NCr3, npt.root().0)
            .set(VmcbField::Cr3, gcr3_gpa)
            .set(VmcbField::Rip, 0x1000)
            .set(VmcbField::Cr0, Cr0::enabled().to_bits());
        img.store(&mut m.mc, vmcb_pa).unwrap();
        // Enter the guest via a planted VMRUN instruction.
        m.host_write(Hva(0x2100), &[0x0F, 0x01, 0xD8]).unwrap();
        m.exec_priv(Hva(0x2100), PrivOp::Vmrun(vmcb_pa)).unwrap();
        (m, vmcb_pa)
    }

    #[test]
    fn guest_virtual_access_with_sev_encrypts() {
        let (mut m, _vmcb) = guest_machine(true);
        assert_eq!(m.cpu.mode, Mode::Guest);
        m.guest_write(Gva(0x7000), b"guest secret....").unwrap();
        let mut buf = [0u8; 16];
        m.guest_read(Gva(0x7000), &mut buf).unwrap();
        assert_eq!(&buf, b"guest secret....");
        // The backing HPA is guest_base + 0x7000; raw DRAM there must be
        // ciphertext.
        let mut raw = [0u8; 16];
        m.mc.dram().read_raw(Hpa(0x10_0000 + 0x7000), &mut raw).unwrap();
        assert_ne!(&raw, b"guest secret....");
    }

    #[test]
    fn guest_shared_page_is_plaintext() {
        let (mut m, _vmcb) = guest_machine(true);
        m.guest_write(Gva(0x8000), b"dma buffer here!").unwrap();
        let mut raw = [0u8; 16];
        m.mc.dram().read_raw(Hpa(0x10_0000 + 0x8000), &mut raw).unwrap();
        assert_eq!(&raw, b"dma buffer here!", "C-bit clear page is plaintext");
    }

    #[test]
    fn non_sev_guest_is_all_plaintext() {
        let (mut m, _vmcb) = guest_machine(false);
        m.guest_write(Gva(0x7000), b"unprotected data").unwrap();
        let mut raw = [0u8; 16];
        m.mc.dram().read_raw(Hpa(0x10_0000 + 0x7000), &mut raw).unwrap();
        assert_eq!(&raw, b"unprotected data");
    }

    #[test]
    fn npt_miss_is_nested_page_fault() {
        let (mut m, _vmcb) = guest_machine(true);
        let err = m.guest_write_gpa(Gpa(0x100_0000), b"x", true).unwrap_err();
        assert!(matches!(err, Fault::NestedPageFault { reason: FaultReason::NotPresent, .. }));
    }

    #[test]
    fn vmexit_restores_host_and_leaks_state() {
        let (mut m, vmcb_pa) = guest_machine(true);
        m.cpu.regs.set(Gpr::Rbx, 0x5EC_4E7); // guest-only value
        m.cpu.rip = 0x1444;
        m.vmexit(ExitCode::Cpuid, 0, 0).unwrap();
        assert_eq!(m.cpu.mode, Mode::Host);
        // The SEV leaks: guest GPR visible, VMCB fields in plaintext.
        assert_eq!(m.cpu.regs.get(Gpr::Rbx), 0x5EC_4E7);
        let img = VmcbImage::load(&m.mc, vmcb_pa).unwrap();
        assert_eq!(img.get(VmcbField::ExitCode), ExitCode::Cpuid as u64);
        assert_eq!(img.get(VmcbField::Rip), 0x1444);
    }

    #[test]
    fn vmrun_without_key_fails_for_sev_guest() {
        let (mut m, vmcb_pa) = guest_machine(true);
        m.vmexit(ExitCode::Hlt, 0, 0).unwrap();
        m.mc.uninstall_guest_key(Asid(3));
        m.host_write(Hva(0x2200), &[0x0F, 0x01, 0xD8]).unwrap();
        let err = m.exec_priv(Hva(0x2200), PrivOp::Vmrun(vmcb_pa)).unwrap_err();
        assert!(matches!(err, HwError::NoKeyForAsid(Asid(3))));
    }

    #[test]
    fn vmexit_in_host_mode_is_error() {
        let (mut m, _a, _mp) = host_machine();
        assert!(matches!(m.vmexit(ExitCode::Hlt, 0, 0), Err(HwError::BadWorldSwitch)));
    }

    #[test]
    fn cycles_accumulate_on_accesses() {
        let (mut m, _a, _mp) = host_machine();
        let before = m.cycles.total();
        m.host_write(Hva(0x1000), &[0u8; 64]).unwrap();
        assert!(m.cycles.total() > before);
    }

    #[derive(Debug)]
    struct FireAt(InjectPoint, Option<FaultAction>);
    impl crate::inject::FaultInjector for FireAt {
        fn decide(&mut self, point: InjectPoint) -> Option<FaultAction> {
            if point == self.0 {
                self.1.take()
            } else {
                None
            }
        }
    }

    #[test]
    fn inject_at_pairs_action_with_telemetry() {
        let (mut m, _a, _mp) = host_machine();
        assert_eq!(m.inject_at(InjectPoint::PostExit), None, "disarmed hooks stay silent");
        assert!(m.trace.events().is_empty());
        let tamper = FaultAction::TamperVmcbField { field_hint: 1, xor: 0xFF };
        m.inject.install(Box::new(FireAt(InjectPoint::PostExit, Some(tamper))));
        assert_eq!(m.inject_at(InjectPoint::GateEntry), None, "wrong point declines");
        assert_eq!(m.inject_at(InjectPoint::PostExit), Some(tamper));
        let events = m.trace.events();
        assert!(
            events.iter().any(|e| matches!(
                e.event,
                Event::FaultInjected {
                    kind: fidelius_telemetry::FaultKind::VmcbTamper,
                    point: "post-exit"
                }
            )),
            "injection must leave a telemetry record: {events:?}"
        );
    }

    #[test]
    fn fail_closed_books_denial_then_paired_outcome_when_armed() {
        let (reason, kind) = (DenialReason::RingIndexTampered, FaultKind::RingIndexCorrupt);
        let booked =
            |m: &Machine| m.trace.events().into_iter().map(|t| t.event).collect::<Vec<_>>();
        let mut m = Machine::new(MEM);
        assert_eq!(m.fail_closed(reason, kind), reason);
        assert_eq!(booked(&m), vec![Event::Denial { reason }], "disarmed: the denial only");
        m.trace.clear();
        m.inject.install(Box::new(FireAt(InjectPoint::PostExit, None)));
        assert_eq!(m.fail_closed(reason, kind), reason);
        assert_eq!(
            booked(&m),
            vec![
                Event::Denial { reason },
                Event::FaultOutcome { kind, outcome: InjectionOutcome::FailClosed(reason) },
            ],
            "armed: the denial, then its paired disposal"
        );
        m.trace.clear();
        assert_eq!(m.deny(reason), reason);
        assert_eq!(booked(&m), vec![Event::Denial { reason }], "deny books no disposal");
    }

    #[test]
    fn tampered_vmcb_field_is_visible_to_reload() {
        // The mechanism behind shadow-and-verify (§4.2.1): the VMCB is
        // plain hypervisor-writable memory, so a between-exits field write
        // really lands and a subsequent load observes it.
        let (mut m, _a, _mp) = host_machine();
        let pa = Hpa(0x8000);
        let mut img = VmcbImage::new();
        img.set(VmcbField::NCr3, 0xAAAA_0000);
        img.store(&mut m.mc, pa).unwrap();
        let off = 8 * VmcbField::NCr3 as u64;
        let cur = m.host_read_u64(Hva(pa.0 + off)).unwrap();
        m.host_write_u64(Hva(pa.0 + off), cur ^ 0x55).unwrap();
        let reloaded = VmcbImage::load(&m.mc, pa).unwrap();
        assert_eq!(reloaded.get(VmcbField::NCr3), 0xAAAA_0000 ^ 0x55);
        assert_eq!(img.diff(&reloaded), vec![VmcbField::NCr3]);
    }

    // ----- scope ------------------------------------------------------------

    /// The site of a gate-like crossing charged to `Gates` and completed by
    /// an `Event::Gate`.
    fn gate_site() -> Site<'static> {
        Site::new(SpanKind::Gate, "gate:test")
            .charged_to(CycleCategory::Gates)
            .then_emit(Event::Gate { kind: GateKind::Type2, op: "test" })
    }

    fn gate_events(m: &Machine) -> u64 {
        m.trace.metrics().gates_by_type[GateKind::Type2.index()]
    }

    #[test]
    fn scope_books_an_err_body_like_an_ok_one() {
        let mut m = Machine::new(MEM);
        m.rec.arm();
        m.cycles.charge(10.0);
        let out: Result<(), &str> = scope(&mut m, gate_site(), |m| {
            assert_eq!(m.cycles.current_category(), CycleCategory::Gates);
            m.cycles.charge(16.0);
            Err("refused")
        });
        assert_eq!(out, Err("refused"));
        assert_eq!(m.cycles.current_category(), CycleCategory::Baseline, "category restored");
        assert_eq!(m.cycles.in_category(CycleCategory::Gates), 16.0);
        m.cycles.charge(1.0);
        let spans = m.rec.take().spans;
        assert_eq!(spans.len(), 1, "the span closed");
        assert_eq!((spans[0].label, spans[0].begin, spans[0].end), ("gate:test", 10.0, 26.0));
        assert_eq!(gate_events(&m), 1, "the completion event was emitted");
        let last = m.trace.events().pop().map(|t| t.event);
        assert_eq!(last, Some(Event::Gate { kind: GateKind::Type2, op: "test" }));
    }

    #[test]
    fn nested_scopes_parent_and_restore_in_order() {
        let mut m = Machine::new(MEM);
        m.rec.arm();
        let outer = Site::new(SpanKind::Hypercall, "hc:test")
            .args(&[("nr", ArgValue::U64(7))])
            .charged_to(CycleCategory::WorldSwitch);
        scope(&mut m, outer, |m| {
            m.cycles.charge(100.0);
            scope(m, gate_site(), |m| m.cycles.charge(16.0));
            assert_eq!(m.cycles.current_category(), CycleCategory::WorldSwitch);
            m.cycles.charge(4.0);
        });
        assert_eq!(m.cycles.in_category(CycleCategory::WorldSwitch), 104.0);
        assert_eq!(m.cycles.in_category(CycleCategory::Gates), 16.0);
        let spans = m.rec.take().spans;
        let [inner, outer] = &spans[..] else { panic!("two spans expected, got {spans:?}") };
        assert_eq!((inner.label, outer.label), ("gate:test", "hc:test"));
        assert_eq!(inner.parent, outer.id, "the inner span nests under the outer one");
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.args, vec![("nr", ArgValue::U64(7))]);
        assert_eq!((inner.begin, inner.end, outer.end), (100.0, 116.0, 120.0));
    }

    #[test]
    fn disarmed_scope_records_no_span_but_books_category_and_event() {
        let mut m = Machine::new(MEM);
        assert!(!m.rec.is_armed());
        scope(&mut m, gate_site(), |m| m.cycles.charge(16.0));
        let trace = m.rec.take();
        assert!(trace.spans.is_empty());
        assert_eq!(trace.opened_total, 0);
        assert_eq!(m.cycles.in_category(CycleCategory::Gates), 16.0);
        assert_eq!(m.cycles.current_category(), CycleCategory::Baseline);
        assert_eq!(gate_events(&m), 1);
    }

    /// Everything an access sequence books: TLB counters, the cycle
    /// breakdown, the telemetry snapshot and the armed recorder's spans
    /// and instants.
    fn booked(m: &Machine) -> (TlbCounters, CycleBreakdown, Snapshot, TraceBuffer) {
        (m.tlb.counters(), m.cycles.breakdown(), m.telemetry_snapshot(), m.rec.take())
    }

    #[test]
    fn host_field_read_books_what_per_field_reads_book() {
        // Aligned fields; a page end between fields; a field split by a
        // page end; a page end under the SME key; a second field on an
        // unmapped page.
        let runs = [0x1000, 0x3000 - 16, 0x3000 - 12, 0x40_1000 - 12, 256 * PAGE_SIZE - 8];
        for fidelity in [Fidelity::Fast, Fidelity::Reference] {
            for va in runs {
                let run = |one_call: bool| {
                    let (mut m, mut alloc, mapper) = host_machine();
                    m.mc.install_sme_key(&[0x5E; 16]);
                    for (page, hpa) in [(0x40_0000, 0x9000), (0x40_1000, 0xA000)] {
                        let mut acc = PhysPtAccess::new(&mut m.mc, EncSel::None);
                        mapper
                            .map(&mut acc, &mut alloc, page, Hpa(hpa), PTE_WRITABLE | PTE_C_BIT)
                            .unwrap();
                    }
                    let seed: Vec<u8> = (0..=255).cycle().take(3 * PAGE_SIZE as usize).collect();
                    m.mc.dram_mut().write_raw(Hpa(0x1000), &seed).unwrap();
                    m.set_fidelity(fidelity);
                    m.rec.arm();
                    let got = if one_call {
                        m.host_read_u64s::<5>(Hva(va)).map(Vec::from)
                    } else {
                        (0..5).map(|i| m.host_read_u64(Hva(va + 8 * i))).collect()
                    };
                    (got, booked(&m))
                };
                let (one, per_field) = (run(true), run(false));
                assert_eq!(one, per_field, "{fidelity:?}: five fields at {va:#x}");
                assert_eq!(one.0.is_err(), va == 256 * PAGE_SIZE - 8, "{va:#x}: {:?}", one.0);
            }
        }
    }

    #[test]
    fn guest_field_stream_books_what_per_field_writes_book() {
        // Aligned fields; a page end between fields; a field split by a
        // page end; a second field past the NPT's last page.
        let runs = [0x7000, 0x9000 - 16, 0x9000 - 20, 64 * PAGE_SIZE - 8];
        let data: Vec<u8> = (1..=48).collect();
        for fidelity in [Fidelity::Fast, Fidelity::Reference] {
            for (gpa, encrypted) in runs.into_iter().flat_map(|g| [(g, false), (g, true)]) {
                let run = |one_call: bool| {
                    let (mut m, _vmcb) = guest_machine(true);
                    m.set_fidelity(fidelity);
                    m.rec.arm();
                    let result = if one_call {
                        m.guest_write_gpa_stream(Gpa(gpa), &data, encrypted, 8)
                    } else {
                        (0..).zip(data.chunks(8)).try_for_each(|(i, field)| {
                            m.guest_write_gpa(Gpa(gpa + 8 * i), field, encrypted)
                        })
                    };
                    // The two guest pages the run touches, as DRAM holds them.
                    let mut dram = vec![0u8; 2 * PAGE_SIZE as usize];
                    let base = 0x10_0000 + Gpa(gpa).page_base().0;
                    m.mc.dram().read_raw(Hpa(base), &mut dram).unwrap();
                    (result, dram, booked(&m))
                };
                let (one, per_field) = (run(true), run(false));
                assert_eq!(one, per_field, "{fidelity:?}: six fields at {gpa:#x} ({encrypted})");
                assert_eq!(one.0.is_err(), gpa == 64 * PAGE_SIZE - 8, "{gpa:#x}: {:?}", one.0);
            }
        }
    }
}
