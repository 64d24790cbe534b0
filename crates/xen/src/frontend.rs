//! The guest side: physical layout, the PV block front-end driver state,
//! and guest page-table construction.
//!
//! Everything here executes with the CPU in guest mode, through the
//! guest access paths only — the front-end is part of the *trusted* guest
//! kernel and never touches host structures directly.
//!
//! The front-end is multi-queue (virtio-style): queue 0 lives at the
//! legacy [`gplayout::RING_PAGE`]/[`gplayout::BUF_PAGE`] window, extra
//! queues stride through the dedicated [`gplayout::MQ_REGION_PAGE`]
//! region; [`gplayout::ring_page`] and [`gplayout::buf_page`] are the only
//! places that tell them apart. Each queue owns its producer cursor and
//! request-id counter. The device owns one expanded `Kblk` schedule,
//! built once when the front-end is created and read by every queue, so
//! request dispatch never re-derives round keys (the same expansion-hoist
//! that fixed the memory controller's per-call rebuild).

use crate::blkif::{slot_offset, BlkOp, BlkStatus, OFF_REQ_PROD, SECTORS_PER_PAGE};
use crate::events::Port;
use fidelius_crypto::modes::{SectorCipher, SECTOR_SIZE};
use fidelius_crypto::Key128;
use fidelius_hw::cpu::Machine;
use fidelius_hw::cycles::CycleCategory;
use fidelius_hw::paging::PtAccess;
use fidelius_hw::{Fault, Gpa, Hpa, HwError, PAGE_SIZE};

/// Guest-physical page numbers of the standard guest layout.
pub mod gplayout {
    /// First page of the kernel image.
    pub const KERNEL_PAGE: u64 = 16;
    /// First page of the ring.
    pub const RING_PAGE: u64 = 96;
    /// First page of the shared I/O buffer.
    pub const BUF_PAGE: u64 = 97;
    /// Number of shared I/O buffer pages.
    pub const BUF_PAGES: u64 = 8;
    /// First page of the dedicated `Md` buffer (SEV-API I/O path).
    pub const MD_PAGE: u64 = 112;
    /// Number of `Md` pages.
    pub const MD_PAGES: u64 = 8;
    /// First page of the guest's page-table pool.
    pub const PT_POOL_PAGE: u64 = 128;
    /// Pages in the page-table pool.
    pub const PT_POOL_PAGES: u64 = 32;
    /// First page of the guest heap / workload region.
    pub const HEAP_PAGE: u64 = 160;
    /// First page of the multi-queue I/O region (queues 1 and up; queue 0
    /// keeps the legacy window above).
    pub const MQ_REGION_PAGE: u64 = 192;
    /// Pages per extra queue: one ring page plus its buffer pages.
    pub const QUEUE_STRIDE: u64 = 1 + BUF_PAGES;
    /// Maximum queues per block device (queue 7's last page is 254, inside
    /// the default 256-page guest).
    pub const MAX_QUEUES: u64 = 8;

    /// Guest-physical page of queue `q`'s ring.
    pub fn ring_page(q: u64) -> u64 {
        assert!(q < MAX_QUEUES, "queue index out of range");
        if q == 0 {
            RING_PAGE
        } else {
            MQ_REGION_PAGE + (q - 1) * QUEUE_STRIDE
        }
    }

    /// Guest-physical page of buffer page `i` of queue `q`.
    pub fn buf_page(q: u64, i: u64) -> u64 {
        assert!(i < BUF_PAGES, "buffer page index out of range");
        if q == 0 {
            BUF_PAGE + i
        } else {
            ring_page(q) + 1 + i
        }
    }
}

/// How the front-end protects disk I/O data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoPath {
    /// No protection: plaintext in the shared buffer (vanilla Xen).
    Plain,
    /// Guest-side AES with hardware acceleration under `Kblk`
    /// (paper §4.3.5, left path).
    AesNi,
    /// Guest-side software-emulated AES under `Kblk` (the slow baseline
    /// of micro-benchmark 3).
    SoftCrypto,
    /// The retrofitted SEV-API path through the s-dom/r-dom helpers
    /// (paper §4.3.5, right path).
    SevApi,
}

/// Per-queue front-end state: the event-channel port, the producer cursor
/// and the request-id counter.
#[derive(Debug)]
struct FeQueue {
    port: Port,
    req_prod: u64,
    next_id: u64,
}

/// Per-domain front-end driver state.
#[derive(Debug)]
pub struct FrontEnd {
    /// Data-protection path.
    pub io_path: IoPath,
    /// The device's expanded `Kblk` schedule (AES paths), shared by every
    /// queue.
    kblk: Option<SectorCipher>,
    queues: Vec<FeQueue>,
    /// Where the AES paths encrypt a write before staging it; reused
    /// across requests.
    scratch: Vec<u8>,
}

impl FrontEnd {
    /// Creates the front-end state with queue `q` bound to `ports[q]`.
    /// `kblk` is required for the AES paths; key expansion happens here,
    /// once per device.
    ///
    /// # Panics
    ///
    /// Panics if an AES path is selected without a key, or if the SEV-API
    /// path (whose `Md` window is not striped) gets more than one queue.
    pub fn new(io_path: IoPath, kblk: Option<Key128>, ports: Vec<Port>) -> Self {
        if matches!(io_path, IoPath::AesNi | IoPath::SoftCrypto) {
            assert!(kblk.is_some(), "AES I/O paths need Kblk");
        }
        assert!(io_path != IoPath::SevApi || ports.len() == 1, "SEV-API path is single-queue");
        FrontEnd {
            io_path,
            kblk: kblk.map(|k| SectorCipher::new(&k)),
            queues: ports
                .into_iter()
                .map(|port| FeQueue { port, req_prod: 0, next_id: 1 })
                .collect(),
            scratch: Vec::new(),
        }
    }

    /// Number of queues.
    pub fn num_queues(&self) -> u64 {
        self.queues.len() as u64
    }

    /// The event-channel port of queue `q`.
    pub fn port(&self, q: u64) -> Port {
        self.queues[q as usize].port
    }

    /// Whether this path stages data through the `Md` buffer (Fidelius
    /// transforms it on the host side).
    pub fn uses_md(&self) -> bool {
        self.io_path == IoPath::SevApi
    }

    /// Books the guest-side AES cost of `len` bytes on the crypto engine.
    fn charge_aes(&self, machine: &mut Machine, len: usize) {
        let lines = (len as u64).div_ceil(fidelius_hw::CACHE_LINE);
        let per_line = if self.io_path == IoPath::AesNi {
            machine.cost.aesni_line
        } else {
            machine.cost.soft_aes_line
        };
        machine.cycles.charge_as(CycleCategory::CryptoEngine, lines as f64 * per_line);
    }

    /// Stages `data` (whole sectors) for a disk write on queue `q`:
    /// encrypts per the I/O path and writes it into the queue's buffer
    /// window starting at its buffer page `buf_page` (batch dispatch
    /// places several requests side by side). Runs in guest mode. Returns
    /// `buf_page`.
    ///
    /// # Errors
    ///
    /// Guest access faults.
    pub fn stage_write_data_at(
        &mut self,
        q: u64,
        machine: &mut Machine,
        sector: u64,
        data: &[u8],
        buf_page: u64,
    ) -> Result<u64, Fault> {
        assert_eq!(data.len() % SECTOR_SIZE, 0, "whole sectors only");
        let count = (data.len() / SECTOR_SIZE) as u64;
        assert!(
            buf_page + count.div_ceil(SECTORS_PER_PAGE) <= gplayout::BUF_PAGES,
            "request too large"
        );
        let buf_gpa = Gpa(gplayout::buf_page(q, buf_page) * PAGE_SIZE);
        match self.io_path {
            IoPath::Plain => {
                machine.guest_write_gpa(buf_gpa, data, false)?;
            }
            IoPath::AesNi | IoPath::SoftCrypto => {
                let cipher = self.kblk.as_ref().expect("AES path has Kblk");
                self.scratch.clear();
                self.scratch.extend_from_slice(data);
                // The whole run in one call; each sector keeps its own
                // CTR stream, its sector number.
                cipher.encrypt_sectors(sector, &mut self.scratch);
                self.charge_aes(machine, data.len());
                machine.guest_write_gpa(buf_gpa, &self.scratch, false)?;
            }
            IoPath::SevApi => {
                // Plaintext into Md; it rests Kvek-encrypted. Fidelius
                // moves it to the shared buffer via SEND_UPDATE. The Md
                // window mirrors the (single) queue's buffer layout.
                let md_gpa = Gpa((gplayout::MD_PAGE + buf_page) * PAGE_SIZE);
                machine.guest_write_gpa(md_gpa, data, true)?;
            }
        }
        Ok(buf_page)
    }

    /// Retrieves `count` sectors of read data from queue `q`'s buffers
    /// starting at its buffer page `buf_page`, after the back-end (and,
    /// for the SEV path, Fidelius) filled them. Runs in guest mode.
    ///
    /// # Errors
    ///
    /// Guest access faults.
    pub fn retrieve_read_data_at(
        &self,
        q: u64,
        machine: &mut Machine,
        sector: u64,
        count: u64,
        buf_page: u64,
    ) -> Result<Vec<u8>, Fault> {
        let len = (count as usize) * SECTOR_SIZE;
        let mut data = vec![0u8; len];
        let buf_gpa = Gpa(gplayout::buf_page(q, buf_page) * PAGE_SIZE);
        match self.io_path {
            IoPath::Plain => {
                machine.guest_read_gpa(buf_gpa, &mut data, false)?;
            }
            IoPath::AesNi | IoPath::SoftCrypto => {
                machine.guest_read_gpa(buf_gpa, &mut data, false)?;
                let cipher = self.kblk.as_ref().expect("AES path has Kblk");
                cipher.decrypt_sectors(sector, &mut data);
                self.charge_aes(machine, len);
            }
            IoPath::SevApi => {
                let md_gpa = Gpa((gplayout::MD_PAGE + buf_page) * PAGE_SIZE);
                machine.guest_read_gpa(md_gpa, &mut data, true)?;
            }
        }
        Ok(data)
    }

    /// Pushes one request into queue `q`'s ring (guest mode) and bumps the
    /// producer index. Returns the slot index used.
    ///
    /// # Errors
    ///
    /// Guest access faults.
    pub fn push_request_on(
        &mut self,
        q: u64,
        machine: &mut Machine,
        op: BlkOp,
        sector: u64,
        count: u64,
        buf_page: u64,
    ) -> Result<u64, Fault> {
        let ring = Gpa(gplayout::ring_page(q) * PAGE_SIZE);
        let qs = &mut self.queues[q as usize];
        let slot = slot_offset(qs.req_prod);
        let id = qs.next_id;
        qs.next_id += 1;
        let fields = [id, op as u64, sector, count, buf_page, BlkStatus::Pending as u64];
        let bytes = fields.map(u64::to_le_bytes);
        machine.guest_write_gpa_stream(Gpa(ring.0 + slot), bytes.as_flattened(), false, 8)?;
        let this_slot = qs.req_prod;
        qs.req_prod += 1;
        let req_prod = qs.req_prod;
        machine.guest_write_gpa(Gpa(ring.0 + OFF_REQ_PROD), &req_prod.to_le_bytes(), false)?;
        Ok(this_slot)
    }

    /// Reads the status of a previously pushed slot on queue `q` (guest
    /// mode).
    ///
    /// # Errors
    ///
    /// Guest access faults.
    pub fn slot_status_on(
        &self,
        q: u64,
        machine: &mut Machine,
        slot: u64,
    ) -> Result<BlkStatus, Fault> {
        let ring = Gpa(gplayout::ring_page(q) * PAGE_SIZE);
        let mut b = [0u8; 8];
        machine.guest_read_gpa(Gpa(ring.0 + slot_offset(slot) + 40), &mut b, false)?;
        Ok(match u64::from_le_bytes(b) {
            1 => BlkStatus::Ok,
            2 => BlkStatus::Error,
            _ => BlkStatus::Pending,
        })
    }
}

/// Page-table access through guest-physical memory: how the guest kernel
/// builds its own stage-1 tables. With `encrypted` set (SEV guests), the
/// table bytes rest under the guest's `Kvek`, invisible to the host.
pub struct GuestPtAccess<'a> {
    machine: &'a mut Machine,
    encrypted: bool,
}

impl<'a> GuestPtAccess<'a> {
    /// Guest-mode page-table access; `encrypted` for SEV guests.
    pub fn new(machine: &'a mut Machine, encrypted: bool) -> Self {
        GuestPtAccess { machine, encrypted }
    }
}

impl PtAccess for GuestPtAccess<'_> {
    fn read_entry(&mut self, pa: Hpa) -> Result<u64, HwError> {
        let mut b = [0u8; 8];
        self.machine.guest_read_gpa(Gpa(pa.0), &mut b, self.encrypted).map_err(HwError::Fault)?;
        Ok(u64::from_le_bytes(b))
    }

    fn write_entry(&mut self, pa: Hpa, value: u64) -> Result<(), HwError> {
        self.machine
            .guest_write_gpa(Gpa(pa.0), &value.to_le_bytes(), self.encrypted)
            .map_err(HwError::Fault)
    }

    /// One coalescing stream over a zero page in entry-sized pieces: the
    /// 512 entries' charges, with the bytes moved in one controller run.
    fn zero_table(&mut self, table: Hpa) -> Result<(), HwError> {
        static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];
        self.machine
            .guest_write_gpa_coalesced(Gpa(table.0), &ZERO_PAGE, self.encrypted, 8)
            .map_err(HwError::Fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_end_paths_need_keys() {
        let fe = FrontEnd::new(IoPath::Plain, None, vec![1]);
        assert!(!fe.uses_md());
        let fe = FrontEnd::new(IoPath::SevApi, None, vec![1]);
        assert!(fe.uses_md());
    }

    #[test]
    #[should_panic(expected = "need Kblk")]
    fn aesni_without_key_panics() {
        let _ = FrontEnd::new(IoPath::AesNi, None, vec![1]);
    }

    #[test]
    #[should_panic(expected = "single-queue")]
    fn sev_api_front_end_is_single_queue() {
        let _ = FrontEnd::new(IoPath::SevApi, None, vec![1, 2]);
    }

    #[test]
    fn queue_layout_strides_through_mq_region() {
        assert_eq!(gplayout::ring_page(0), gplayout::RING_PAGE);
        assert_eq!(gplayout::buf_page(0, 0), gplayout::BUF_PAGE);
        assert_eq!(gplayout::ring_page(1), gplayout::MQ_REGION_PAGE);
        assert_eq!(gplayout::buf_page(1, 0), gplayout::MQ_REGION_PAGE + 1);
        assert_eq!(gplayout::ring_page(2), gplayout::MQ_REGION_PAGE + gplayout::QUEUE_STRIDE);
        // The last queue's last page stays inside a 256-page guest.
        let last = gplayout::buf_page(gplayout::MAX_QUEUES - 1, gplayout::BUF_PAGES - 1);
        assert!(last < 256, "queue region overflows the default guest: page {last}");
    }

    #[test]
    fn added_queues_share_the_expanded_key() {
        let fe = FrontEnd::new(IoPath::AesNi, Some([0x4Bu8; 16]), vec![1, 2]);
        assert_eq!(fe.num_queues(), 2);
        assert_eq!(fe.port(1), 2);
        assert!(fe.kblk.is_some(), "the device holds one expanded schedule");
    }
}
