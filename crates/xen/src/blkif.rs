//! The para-virtualized block device: shared-ring protocol and the dom0
//! back-end.
//!
//! A device exposes one or more independent queues (virtio-style
//! multi-queue). Each queue is a one-page ring (granted by the guest to
//! dom0) carrying requests; data moves through persistently granted buffer
//! pages, as in the paper's description of Xen PV I/O (§2.3). The back-end
//! is part of the untrusted management VM: whatever bytes reach the shared
//! buffer are visible to it, which is exactly why the front-end encrypts
//! them (AES-NI path) or Fidelius does (SEV-API path) before they land
//! there.
//!
//! [`BlockBackend::attach`] sets the disk image; [`BlockBackend::attach_queue`]
//! then appends queues in order, each with the grant references that back
//! its mapped frames. Queue 0 is an ordinary queue, and every queue's
//! grants are re-validated on every drain.
//!
//! # Batched drains
//!
//! The default drain validates a whole ring window as one unit (snapshot
//! the producer index, read every descriptor, check every grant), then
//! moves data request by request with contiguous sector runs streamed
//! through [`Machine::host_read_stream`]/[`host_write_stream`], and only
//! then publishes responses. Grant re-validation and the commit-time
//! shadow-index check are charge-free hardware-view reads, and the
//! streaming calls coalesce below the cycle-charging layer, so modeled
//! cycles, telemetry counters, disk bytes and response slots are
//! bit-identical to the one-request-at-a-time reference drain that runs
//! under [`Fidelity::Reference`]. Seeded differential tests pin that
//! equivalence.
//!
//! Both drains run the same structural check on every descriptor the
//! guest wrote (a known op, a non-empty sector run inside the disk, a
//! buffer window inside the queue's mapped pages), with checked
//! arithmetic, before any grant is looked at.
//!
//! A drain that discovers a revoked grant or a tampered producer index
//! *after* the window was validated rolls back its partial disk mutations
//! and fails closed with a typed [`DenialReason`] — batching must never
//! turn a refusal into silent corruption.
//!
//! [`Fidelity::Reference`]: fidelius_hw::cpu::Fidelity::Reference
//! [`Machine::host_read_stream`]: fidelius_hw::cpu::Machine::host_read_stream
//! [`host_write_stream`]: fidelius_hw::cpu::Machine::host_write_stream

use crate::domain::DomainId;
use crate::grants::{read_entry_phys, write_entry_phys, GrantEntry};
use crate::layout::direct_map;
use crate::platform::Platform;
use crate::XenError;
use fidelius_crypto::modes::SECTOR_SIZE;
use fidelius_hw::cpu::{scope, Fidelity, Site};
use fidelius_hw::inject::{FaultAction, InjectPoint};
use fidelius_hw::memctrl::EncSel;
use fidelius_hw::{Hpa, Hva, PAGE_SIZE};
use fidelius_telemetry::{DenialReason, FaultKind};
use fidelius_trace::{ArgValue, SpanKind};
use std::ops::Range;

/// Request slots in one ring.
pub const RING_SLOTS: u64 = 16;
/// Bytes per slot.
pub const SLOT_SIZE: u64 = 64;
/// Sectors that fit in one buffer page.
pub const SECTORS_PER_PAGE: u64 = PAGE_SIZE / SECTOR_SIZE as u64;

/// Ring header offsets.
pub const OFF_REQ_PROD: u64 = 0;
/// Response-producer offset (written by the back-end).
pub const OFF_RSP_PROD: u64 = 8;
const SLOTS_BASE: u64 = 64;

/// Block operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum BlkOp {
    /// Read sectors from disk into the buffer.
    Read = 0,
    /// Write sectors from the buffer to disk.
    Write = 1,
}

/// One ring request in its serialized form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlkRequest {
    /// Caller-chosen id.
    pub id: u64,
    /// Operation.
    pub op: BlkOp,
    /// Starting sector.
    pub sector: u64,
    /// Number of sectors.
    pub count: u64,
    /// Index of the first buffer page used.
    pub buf_page: u64,
}

/// Status written by the back-end into the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum BlkStatus {
    /// Not yet processed.
    Pending = 0,
    /// Completed successfully.
    Ok = 1,
    /// Failed (bad sector range or malformed request).
    Error = 2,
}

/// The statuses one drain published, as `(ring index, status)` in ring
/// order.
pub type Published = [(u64, BlkStatus)];

/// Byte offset of slot `i` within the ring page.
pub fn slot_offset(i: u64) -> u64 {
    SLOTS_BASE + (i % RING_SLOTS) * SLOT_SIZE
}

/// One queue of the device: its mapped ring and buffer frames, the grant
/// references backing them, and its consumer cursor. A well-behaved
/// back-end re-validates its grants before touching the shared pages — a
/// grant can be revoked at any instant by the guest or the (adversarial)
/// hypervisor, and the back-end must fail the request closed rather than
/// read through a stale mapping.
#[derive(Debug)]
struct QueueState {
    ring_frame: Hpa,
    ring_ref: u64,
    buf_frames: Vec<Hpa>,
    buf_refs: Vec<u64>,
    grant_table: Hpa,
    req_cons: u64,
}

/// A validated descriptor from the snapshot phase of a batched drain.
#[derive(Debug, Clone)]
struct ReqPlan {
    slot: u64,
    op: u64,
    sector: u64,
    count: u64,
    /// The buffer pages the request touches; empty when it failed the
    /// structural check.
    pages: Range<usize>,
    status: BlkStatus,
}

/// The undo journal of one batched drain: the disk bytes each write run
/// overwrote, saved back to back in one arena.
#[derive(Debug, Default)]
struct Journal {
    saved: Vec<u8>,
    /// `(disk offset, start in saved, length)` per run, in write order.
    runs: Vec<(usize, usize, usize)>,
}

impl Journal {
    fn clear(&mut self) {
        self.saved.clear();
        self.runs.clear();
    }

    /// Saves `old`, the bytes about to be overwritten at `disk_off`.
    fn save(&mut self, disk_off: usize, old: &[u8]) {
        self.runs.push((disk_off, self.saved.len(), old.len()));
        self.saved.extend_from_slice(old);
    }
}

/// The dom0 block back-end. It holds the disk image and its *mapped*
/// views of the guest's granted pages (frames it obtained via
/// `map_grant_ref`), one set per queue.
///
/// Every per-window buffer (the plans, the published statuses, the undo
/// journal and the write scratch) lives here and is cleared, not rebuilt,
/// per window, so a warm drain does not allocate.
#[derive(Debug, Default)]
pub struct BlockBackend {
    disk: Vec<u8>,
    queues: Vec<QueueState>,
    /// Where a write request's run lands before it is copied into the
    /// disk.
    scratch: Vec<u8>,
    /// The batched drain's validated snapshot of its window.
    plans: Vec<ReqPlan>,
    /// What the last drain published; [`BlockBackend::process_queue`]
    /// lends it out.
    published: Vec<(u64, BlkStatus)>,
    /// The batched drain's undo journal.
    undo: Journal,
}

impl BlockBackend {
    /// An unattached back-end.
    pub fn new() -> Self {
        BlockBackend::default()
    }

    /// Attaches a device with disk image `disk` and no queues yet,
    /// detaching the previous device and its queues.
    pub fn attach(&mut self, disk: Vec<u8>) {
        assert_eq!(disk.len() % SECTOR_SIZE, 0, "disk must be whole sectors");
        self.disk = disk;
        self.queues.clear();
    }

    /// Appends the next queue of the attached device: its ring and buffer
    /// frames, each with the grant reference backing it, so every drain
    /// re-validates them against the grant table at `grant_table_pa`
    /// before the shared pages are touched. Returns the queue's index.
    pub fn attach_queue(
        &mut self,
        ring: (Hpa, u64),
        bufs: Vec<(Hpa, u64)>,
        grant_table_pa: Hpa,
    ) -> usize {
        assert!(!self.disk.is_empty(), "attach the disk first");
        let (ring_frame, ring_ref) = ring;
        let (buf_frames, buf_refs) = bufs.into_iter().unzip();
        self.queues.push(QueueState {
            ring_frame,
            ring_ref,
            buf_frames,
            buf_refs,
            grant_table: grant_table_pa,
            req_cons: 0,
        });
        self.queues.len() - 1
    }

    /// Number of attached queues.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Whether a device with at least one queue is attached.
    pub fn is_attached(&self) -> bool {
        !self.queues.is_empty()
    }

    /// Disk capacity in sectors.
    pub fn sectors(&self) -> u64 {
        (self.disk.len() / SECTOR_SIZE) as u64
    }

    /// Raw disk contents — what a malicious driver domain can inspect at
    /// leisure (ciphertext when the front-end encrypts).
    pub fn disk(&self) -> &[u8] {
        &self.disk
    }

    /// Mutable disk contents (disk-tampering attacks).
    pub fn disk_mut(&mut self) -> &mut [u8] {
        &mut self.disk
    }

    /// Re-validates that grant `grant_ref` is still live, granted to dom0
    /// and still backed by `frame`. Hardware-view read: charge-free.
    fn grant_ok(plat: &Platform, q: &QueueState, grant_ref: u64, frame: Hpa) -> bool {
        match read_entry_phys(&plat.machine.mc, q.grant_table, grant_ref) {
            Ok(e) => e.valid && e.grantee == DomainId::DOM0.0 && e.frame == frame,
            Err(_) => false,
        }
    }

    /// Whether every buffer grant in `pages` is still live.
    fn buf_grants_ok(plat: &Platform, q: &QueueState, pages: Range<usize>) -> bool {
        pages.into_iter().all(|p| Self::grant_ok(plat, q, q.buf_refs[p], q.buf_frames[p]))
    }

    /// Whether every grant request `plan` touches (and the ring grant) is
    /// still live.
    fn plan_grants_ok(plat: &Platform, q: &QueueState, plan: &ReqPlan) -> bool {
        Self::grant_ok(plat, q, q.ring_ref, q.ring_frame)
            && Self::buf_grants_ok(plat, q, plan.pages.clone())
    }

    /// The structural check both drains run on a descriptor before any
    /// grant check: a known op, a non-empty sector run inside the disk,
    /// and a buffer window inside queue `qi`'s mapped pages. Every field
    /// comes from the guest, so the arithmetic is checked. Returns the
    /// buffer pages the request touches.
    fn request_pages(
        &self,
        qi: usize,
        op: u64,
        sector: u64,
        count: u64,
        buf_page: u64,
    ) -> Option<Range<usize>> {
        let in_disk = sector.checked_add(count).is_some_and(|end| end <= self.sectors());
        if op > BlkOp::Write as u64 || count == 0 || !in_disk {
            return None;
        }
        let end = buf_page.checked_add(count.div_ceil(SECTORS_PER_PAGE))?;
        let mapped = self.queues[qi].buf_frames.len();
        (end <= mapped as u64).then_some(buf_page as usize..end as usize)
    }

    /// Processes all outstanding requests on queue `q`. Returns the status
    /// it published for each, valid until the next drain.
    ///
    /// The back-end runs in dom0 / host context: it accesses the shared
    /// pages through its own mappings of the granted frames.
    ///
    /// # Errors
    ///
    /// Access faults (e.g. if protection revoked the mapping) and typed
    /// fail-closed refusals.
    pub fn process_queue(&mut self, plat: &mut Platform, q: usize) -> Result<&Published, XenError> {
        self.published.clear();
        let fidelity = plat.machine.fidelity();
        let args = [("queue", ArgValue::U64(q as u64))];
        scope(plat, Site::new(SpanKind::BlkifDrain, "blkif:drain").args(&args), |plat| {
            match fidelity {
                Fidelity::Fast => self.drain_batched(plat, q),
                Fidelity::Reference => self.drain_reference(plat, q),
            }
        })?;
        Ok(&self.published)
    }

    /// Sanity window on a freshly read producer index; a consumer cursor
    /// ahead of the producer or a window wider than the ring means dom0's
    /// view of the ring was tampered with.
    fn window_ok(req_cons: u64, req_prod: u64) -> bool {
        req_prod >= req_cons && req_prod - req_cons <= RING_SLOTS
    }

    /// The prologue both drains share: re-validate queue `qi`'s ring grant
    /// (if it is gone the back-end cannot even respond, so the whole pass
    /// fails closed), then read and sanity-check the producer index.
    /// Returns the ring frame and the producer index.
    fn open_window(&self, plat: &mut Platform, qi: usize) -> Result<(Hpa, u64), XenError> {
        let q = &self.queues[qi];
        let ring = q.ring_frame;
        if !Self::grant_ok(plat, q, q.ring_ref, ring) {
            return Err(XenError::FailClosed(
                plat.machine
                    .fail_closed(DenialReason::GrantRevokedMidIo, FaultKind::GrantRevokeMidIo),
            ));
        }
        let req_prod = plat.machine.host_read_u64(direct_map(ring.add(OFF_REQ_PROD)))?;
        if !Self::window_ok(q.req_cons, req_prod) {
            return Err(XenError::FailClosed(
                plat.machine
                    .fail_closed(DenialReason::RingIndexTampered, FaultKind::RingIndexCorrupt),
            ));
        }
        Ok((ring, req_prod))
    }

    // ----- the seed's one-request-at-a-time reference drain -------------

    fn drain_reference(&mut self, plat: &mut Platform, qi: usize) -> Result<(), XenError> {
        let (ring, req_prod) = self.open_window(plat, qi)?;
        while self.queues[qi].req_cons < req_prod {
            let index = self.queues[qi].req_cons;
            let slot = slot_offset(index);
            let id = plat.machine.host_read_u64(direct_map(ring.add(slot)))?;
            let op = plat.machine.host_read_u64(direct_map(ring.add(slot + 8)))?;
            let sector = plat.machine.host_read_u64(direct_map(ring.add(slot + 16)))?;
            let count = plat.machine.host_read_u64(direct_map(ring.add(slot + 24)))?;
            let buf_page = plat.machine.host_read_u64(direct_map(ring.add(slot + 32)))?;
            let _ = id;
            let status = Self::request_scope(plat, op, sector, count, |plat| {
                self.handle_reference(plat, qi, op, sector, count, buf_page)
            })?;
            plat.machine.host_write_u64(direct_map(ring.add(slot + 40)), status as u64)?;
            self.queues[qi].req_cons += 1;
            self.published.push((index, status));
        }
        // Publish responses.
        plat.machine
            .host_write_u64(direct_map(ring.add(OFF_RSP_PROD)), self.queues[qi].req_cons)?;
        Ok(())
    }

    /// Runs `body` under one request's `blkif:{read,write,unknown}` span.
    fn request_scope<R>(
        plat: &mut Platform,
        op: u64,
        sector: u64,
        count: u64,
        body: impl FnOnce(&mut Platform) -> R,
    ) -> R {
        let label = match op {
            x if x == BlkOp::Read as u64 => "blkif:read",
            x if x == BlkOp::Write as u64 => "blkif:write",
            _ => "blkif:unknown",
        };
        let args = [("sector", ArgValue::U64(sector)), ("count", ArgValue::U64(count))];
        scope(plat, Site::new(SpanKind::BlkifRequest, label).args(&args), body)
    }

    fn handle_reference(
        &mut self,
        plat: &mut Platform,
        qi: usize,
        op: u64,
        sector: u64,
        count: u64,
        buf_page: u64,
    ) -> Result<BlkStatus, XenError> {
        let Some(pages) = self.request_pages(qi, op, sector, count, buf_page) else {
            return Ok(BlkStatus::Error);
        };
        // Re-validate the buffer grants this request will touch.
        if !Self::buf_grants_ok(plat, &self.queues[qi], pages) {
            plat.machine.fail_closed(DenialReason::GrantRevokedMidIo, FaultKind::GrantRevokeMidIo);
            return Ok(BlkStatus::Error);
        }
        for s in 0..count {
            let disk_off = ((sector + s) * SECTOR_SIZE as u64) as usize;
            let page_idx = (buf_page + s / SECTORS_PER_PAGE) as usize;
            let in_page = (s % SECTORS_PER_PAGE) * SECTOR_SIZE as u64;
            let frame = self.queues[qi].buf_frames[page_idx];
            let va = direct_map(frame.add(in_page));
            match op {
                x if x == BlkOp::Read as u64 => {
                    let data = self.disk[disk_off..disk_off + SECTOR_SIZE].to_vec();
                    plat.machine.host_write(va, &data)?;
                }
                x if x == BlkOp::Write as u64 => {
                    let mut data = vec![0u8; SECTOR_SIZE];
                    plat.machine.host_read(va, &mut data)?;
                    self.disk[disk_off..disk_off + SECTOR_SIZE].copy_from_slice(&data);
                }
                _ => unreachable!("validated ops only"),
            }
        }
        Ok(BlkStatus::Ok)
    }

    // ----- the batched drain --------------------------------------------

    /// Host-virtual address of sector `s` of `plan` inside the queue's
    /// mapped buffer pages.
    fn sector_va(q: &QueueState, plan: &ReqPlan, s: u64) -> Hva {
        let page_idx = plan.pages.start + (s / SECTORS_PER_PAGE) as usize;
        let in_page = (s % SECTORS_PER_PAGE) * SECTOR_SIZE as u64;
        direct_map(q.buf_frames[page_idx].add(in_page))
    }

    /// Applies one injected mid-drain adversarial action.
    fn apply_drain_fault(&mut self, plat: &mut Platform, qi: usize, action: FaultAction) {
        match action {
            FaultAction::RevokeGrantsMidDrain => {
                // Clobber every grant entry backing this queue — exactly
                // what a hostile hypervisor flipping the table under a
                // validated drain looks like. Hardware-view writes:
                // charge-free, like the adversary's own stores.
                let q = &self.queues[qi];
                for &r in std::iter::once(&q.ring_ref).chain(&q.buf_refs) {
                    let _ = write_entry_phys(
                        &mut plat.machine.mc,
                        q.grant_table,
                        r,
                        GrantEntry::default(),
                    );
                }
            }
            FaultAction::CorruptRingIndex { xor } => {
                // Flip bits in the published producer index out from under
                // the drain's snapshot.
                let pa = self.queues[qi].ring_frame.add(OFF_REQ_PROD);
                if let Ok(cur) = plat.machine.mc.read_u64(pa, EncSel::None) {
                    let _ = plat.machine.mc.write_u64(pa, cur ^ xor, EncSel::None);
                }
            }
            // Foreign actions are declined by the scheduler at this point;
            // ignore defensively.
            _ => {}
        }
    }

    /// Fails queue `qi`'s whole window closed: rolls the disk back to its
    /// pre-drain contents and consumes the window up to the snapshot
    /// `req_prod`, so the next submission cannot serve a refused request
    /// again against a buffer window it has since reused.
    fn fail_window(
        &mut self,
        plat: &mut Platform,
        qi: usize,
        req_prod: u64,
        reason: DenialReason,
        kind: FaultKind,
    ) -> XenError {
        for &(off, start, len) in self.undo.runs.iter().rev() {
            self.disk[off..off + len].copy_from_slice(&self.undo.saved[start..start + len]);
        }
        self.queues[qi].req_cons = req_prod;
        XenError::FailClosed(plat.machine.fail_closed(reason, kind))
    }

    fn drain_batched(&mut self, plat: &mut Platform, qi: usize) -> Result<(), XenError> {
        // Snapshot the window. Everything the reference drain charges per
        // request is charged here too, just hoisted: the multiset of
        // translated accesses (and therefore modeled cycles and TLB
        // counters) is identical.
        let (ring, req_prod) = self.open_window(plat, qi)?;
        let req_cons = self.queues[qi].req_cons;
        self.plans.clear();
        self.undo.clear();
        for i in req_cons..req_prod {
            let slot = slot_offset(i);
            let [_id, op, sector, count, buf_page] =
                plat.machine.host_read_u64s(direct_map(ring.add(slot)))?;
            let (pages, status) = match self.request_pages(qi, op, sector, count, buf_page) {
                Some(pages) => (pages, BlkStatus::Pending),
                None => (0..0, BlkStatus::Error),
            };
            self.plans.push(ReqPlan { slot, op, sector, count, pages, status });
        }
        // Validate the whole window as one unit (grant checks amortized
        // across the drain). A request that is structurally bad — or whose
        // grant was already gone before the batch was dispatched — fails
        // *that request* with a status, exactly as the reference drain does.
        for plan in self.plans.iter_mut().filter(|p| p.status == BlkStatus::Pending) {
            if !Self::plan_grants_ok(plat, &self.queues[qi], plan) {
                plat.machine
                    .fail_closed(DenialReason::GrantRevokedMidIo, FaultKind::GrantRevokeMidIo);
                plan.status = BlkStatus::Error;
            }
        }
        // Data phase, in request order. Disk writes are journaled so a
        // mid-drain refusal can roll the whole batch back.
        for i in 0..self.plans.len() {
            let plan = self.plans[i].clone();
            // The adversary may act at every request boundary of the
            // drain; anything it revoked after window validation fails the
            // *whole* drain closed. Without an injection, a pending
            // request's grants are re-checked too: something other than the
            // injector (e.g. a concurrent hypercall adversary) may have
            // revoked them. A corrupted ring index is detected at commit.
            let recheck = match plat.machine.inject_at(InjectPoint::BlkifDrain) {
                Some(action) => {
                    let kind = action.kind();
                    self.apply_drain_fault(plat, qi, action);
                    kind != FaultKind::RingIndexCorrupt
                }
                None => plan.status == BlkStatus::Pending,
            };
            if recheck && !Self::plan_grants_ok(plat, &self.queues[qi], &plan) {
                return Err(self.fail_window(
                    plat,
                    qi,
                    req_prod,
                    DenialReason::GrantRevokedMidIo,
                    FaultKind::GrantRevokeMidDrain,
                ));
            }
            if plan.status != BlkStatus::Pending {
                // Already refused at validation; the reference drain still
                // opens the request span before deciding, so mirror it.
                Self::request_scope(plat, plan.op, plan.sector, plan.count, |_| ());
                continue;
            }
            Self::request_scope(plat, plan.op, plan.sector, plan.count, |plat| {
                self.move_request_data(plat, qi, &plan)
            })?;
            self.plans[i].status = BlkStatus::Ok;
        }
        // Commit: the shadow-index check. The producer index we validated
        // must still be what the ring says (virtio's shadow-avail idiom);
        // hardware-view read, charge-free.
        let now = plat
            .machine
            .mc
            .read_u64(ring.add(OFF_REQ_PROD), EncSel::None)
            .map_err(|_| XenError::BadBlockRequest)?;
        if now != req_prod {
            return Err(self.fail_window(
                plat,
                qi,
                req_prod,
                DenialReason::RingIndexTampered,
                FaultKind::RingIndexCorrupt,
            ));
        }
        // Publish every status, then the response producer.
        for plan in &self.plans {
            plat.machine
                .host_write_u64(direct_map(ring.add(plan.slot + 40)), plan.status as u64)?;
        }
        self.queues[qi].req_cons = req_prod;
        plat.machine.host_write_u64(direct_map(ring.add(OFF_RSP_PROD)), req_prod)?;
        self.published.extend((req_cons..).zip(self.plans.iter().map(|p| p.status)));
        Ok(())
    }

    /// Moves one validated request's data between the disk image and the
    /// shared buffers, streaming host-contiguous sector runs through the
    /// coalescing host paths (one translation and one engine charge per
    /// sector, exactly like the reference drain's per-sector calls). A
    /// read streams straight out of the disk image; a write lands in the
    /// back-end's reused scratch buffer first, so the disk changes only
    /// after the whole run was read and journaled.
    fn move_request_data(
        &mut self,
        plat: &mut Platform,
        qi: usize,
        plan: &ReqPlan,
    ) -> Result<(), XenError> {
        let mut s = 0u64;
        while s < plan.count {
            let run_va = Self::sector_va(&self.queues[qi], plan, s);
            let mut run = 1u64;
            while s + run < plan.count
                && Self::sector_va(&self.queues[qi], plan, s + run).0
                    == run_va.0 + run * SECTOR_SIZE as u64
            {
                run += 1;
            }
            let disk_off = ((plan.sector + s) * SECTOR_SIZE as u64) as usize;
            let run_bytes = (run * SECTOR_SIZE as u64) as usize;
            match plan.op {
                x if x == BlkOp::Read as u64 => {
                    let data = &self.disk[disk_off..disk_off + run_bytes];
                    plat.machine.host_write_stream(run_va, data, SECTOR_SIZE)?;
                }
                x if x == BlkOp::Write as u64 => {
                    self.scratch.resize(run_bytes, 0);
                    plat.machine.host_read_stream(run_va, &mut self.scratch, SECTOR_SIZE)?;
                    let span = disk_off..disk_off + run_bytes;
                    self.undo.save(disk_off, &self.disk[span.clone()]);
                    self.disk[span].copy_from_slice(&self.scratch);
                }
                _ => unreachable!("validated ops only"),
            }
            s += run;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_offsets_wrap() {
        assert_eq!(slot_offset(0), 64);
        assert_eq!(slot_offset(1), 128);
        assert_eq!(slot_offset(RING_SLOTS), 64);
    }

    #[test]
    fn backend_attach_state() {
        let mut b = BlockBackend::new();
        assert!(!b.is_attached());
        b.attach(vec![0; 2 * SECTOR_SIZE]);
        assert!(!b.is_attached(), "a disk without queues serves nothing");
        assert_eq!(b.attach_queue((Hpa(0x1000), 0), vec![(Hpa(0x2000), 1)], Hpa(0x8000)), 0);
        assert!(b.is_attached());
        assert_eq!(b.sectors(), 2);
        assert_eq!(b.num_queues(), 1);
        // Re-attaching detaches the previous device's queues.
        b.attach(vec![0; SECTOR_SIZE]);
        assert_eq!((b.sectors(), b.num_queues()), (1, 0));
    }

    #[test]
    fn extra_queues_grow_the_device() {
        let mut b = BlockBackend::new();
        b.attach(vec![0; 2 * SECTOR_SIZE]);
        for q in 0..3 {
            let ring = (Hpa(0x1000 * (2 * q + 1)), 2 * q);
            let bufs = vec![(Hpa(0x1000 * (2 * q + 2)), 2 * q + 1)];
            assert_eq!(b.attach_queue(ring, bufs, Hpa(0x8000)), q as usize);
        }
        assert_eq!(b.num_queues(), 3);
        assert!(b.is_attached());
    }

    #[test]
    #[should_panic(expected = "attach the disk first")]
    fn extra_queue_requires_attachment() {
        BlockBackend::new().attach_queue((Hpa(0), 0), vec![], Hpa(0));
    }

    #[test]
    fn window_sanity() {
        assert!(BlockBackend::window_ok(0, 0));
        assert!(BlockBackend::window_ok(3, 3 + RING_SLOTS));
        assert!(!BlockBackend::window_ok(4, 3));
        assert!(!BlockBackend::window_ok(0, RING_SLOTS + 1));
    }

    #[test]
    #[should_panic(expected = "whole sectors")]
    fn ragged_disk_panics() {
        BlockBackend::new().attach(vec![0; 100]);
    }
}
