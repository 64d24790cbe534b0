//! Multi-queue I/O scenarios over the batched PV block datapath.
//!
//! Two shapes bracket the design space of the multi-queue back-end:
//!
//! - **net-style** — many shallow queues taking small bursts of
//!   single-sector requests, the shape of a paravirtual NIC's per-vCPU
//!   rx/tx rings;
//! - **NVMe-style** — few deep queues taking full-window batches of
//!   page-sized requests, the shape of a modern storage stack's
//!   submission queues.
//!
//! Each scenario runs twice on identically-seeded systems: once
//! submitting whole ring windows ([`System::disk_batch`] — one
//! event-channel notification and one batched drain per window) and once
//! submitting the same requests one at a time under
//! [`Fidelity::Reference`] (the seed's one-at-a-time drain). The bytes
//! moved and every byte landing on disk are identical between the legs —
//! the drain itself is charge-identical by construction (see
//! `tests/io_datapath_oracle.rs`) — so the modeled saving isolates the
//! *submission* overhead the batch amortizes: world switches,
//! notifications and per-window ring validation.

use fidelius_crypto::modes::SECTOR_SIZE;
use fidelius_hw::cpu::Fidelity;
use fidelius_xen::blkif::BlkStatus;
use fidelius_xen::frontend::IoPath;
use fidelius_xen::system::{BatchOp, BatchResults, GuestConfig};
use fidelius_xen::{DomainId, System, Unprotected, XenError};

/// Disk size for the scenario systems, in sectors.
const DISK_SECTORS: usize = 2048;

/// One multi-queue scenario shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueScenario {
    /// Row label.
    pub name: &'static str,
    /// Queues the guest is booted for.
    pub queues: u64,
    /// Write+read rounds per queue.
    pub rounds: u64,
    /// Requests per ring window.
    pub ops_per_batch: u64,
    /// Sectors per request.
    pub sectors_per_op: u64,
}

/// Net-style: four shallow queues, bursts of single-sector requests.
pub fn net_style() -> QueueScenario {
    QueueScenario { name: "net-style", queues: 4, rounds: 6, ops_per_batch: 4, sectors_per_op: 1 }
}

/// NVMe-style: two deep queues, full-window batches of page-sized
/// requests (8 requests × 8 sectors fills the buffer window exactly).
pub fn nvme_style() -> QueueScenario {
    QueueScenario { name: "nvme-style", queues: 2, rounds: 4, ops_per_batch: 8, sectors_per_op: 8 }
}

/// Both scenario shapes, in table order.
pub fn scenarios() -> [QueueScenario; 2] {
    [net_style(), nvme_style()]
}

/// One measured row: the same request stream submitted as whole ring
/// windows vs one request at a time against the oracle drain.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Queues driven.
    pub queues: u64,
    /// Total requests issued (writes + reads).
    pub requests: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Modeled cycles for the batched-window leg.
    pub batched_cycles: f64,
    /// Modeled cycles for the per-request oracle leg.
    pub per_request_cycles: f64,
    /// `per_request_cycles / batched_cycles` — the submission
    /// amortization win.
    pub batching_speedup: f64,
}

fn build(queues: u64, path: IoPath) -> Result<(System, DomainId), XenError> {
    let mut sys = System::new(32 * 1024 * 1024, 0x10C4, Box::new(Unprotected::new()))?;
    let dom = sys
        .create_guest_mq(GuestConfig { mem_pages: 256, sev: false, kernel: vec![0x90] }, queues)?;
    let kblk = matches!(path, IoPath::AesNi).then_some([0x4B; 16]);
    sys.setup_block_device(dom, vec![0u8; DISK_SECTORS * SECTOR_SIZE], path, kblk)?;
    Ok((sys, dom))
}

/// Deterministic payload byte for `(queue, op, round)`.
fn fill(q: u64, i: u64, r: u64) -> u8 {
    0x40 ^ (q as u8).wrapping_mul(31) ^ (i as u8).wrapping_mul(7) ^ r as u8
}

fn submit(
    sys: &mut System,
    dom: DomainId,
    q: u64,
    ops: &[BatchOp],
    batched: bool,
) -> Result<BatchResults, XenError> {
    if batched {
        sys.disk_batch(dom, q, ops)
    } else {
        let mut out = Vec::with_capacity(ops.len());
        for op in ops {
            out.extend(sys.disk_batch(dom, q, std::slice::from_ref(op))?);
        }
        Ok(out)
    }
}

/// Runs one leg of a scenario and returns `(cycles, requests, bytes)`.
/// Every read is verified against the round's payload, so a datapath
/// that silently corrupts or crosses queues fails loudly here.
fn run_leg(s: &QueueScenario, path: IoPath, batched: bool) -> Result<(f64, u64, u64), XenError> {
    let (mut sys, dom) = build(s.queues, path)?;
    sys.plat.machine.set_fidelity(if batched { Fidelity::Fast } else { Fidelity::Reference });
    let op_bytes = (s.sectors_per_op as usize) * SECTOR_SIZE;
    let base = |q: u64, i: u64| (q * s.ops_per_batch + i) * s.sectors_per_op;
    let start = sys.plat.machine.cycles.total_f64();
    let (mut requests, mut bytes) = (0u64, 0u64);
    for r in 0..s.rounds {
        for q in 0..s.queues {
            let writes: Vec<BatchOp> = (0..s.ops_per_batch)
                .map(|i| BatchOp::Write { sector: base(q, i), data: vec![fill(q, i, r); op_bytes] })
                .collect();
            for (status, _) in submit(&mut sys, dom, q, &writes, batched)? {
                assert_eq!(status, BlkStatus::Ok, "{} write failed", s.name);
            }
            let reads: Vec<BatchOp> = (0..s.ops_per_batch)
                .map(|i| BatchOp::Read { sector: base(q, i), count: s.sectors_per_op })
                .collect();
            for (i, (status, data)) in
                submit(&mut sys, dom, q, &reads, batched)?.into_iter().enumerate()
            {
                assert_eq!(status, BlkStatus::Ok, "{} read failed", s.name);
                assert_eq!(
                    data.as_deref(),
                    Some(vec![fill(q, i as u64, r); op_bytes].as_slice()),
                    "{} queue {q} round {r} op {i}: read-back mismatch",
                    s.name
                );
            }
            requests += 2 * s.ops_per_batch;
            bytes += 2 * s.ops_per_batch * s.sectors_per_op * SECTOR_SIZE as u64;
        }
    }
    Ok((sys.plat.machine.cycles.total_f64() - start, requests, bytes))
}

/// Runs one scenario both ways and returns the comparison row.
///
/// # Errors
///
/// Setup/I/O failures.
pub fn run_scenario(s: &QueueScenario, path: IoPath) -> Result<QueueRow, XenError> {
    let (batched_cycles, requests, bytes) = run_leg(s, path, true)?;
    let (per_request_cycles, o_requests, o_bytes) = run_leg(s, path, false)?;
    debug_assert_eq!((requests, bytes), (o_requests, o_bytes));
    Ok(QueueRow {
        scenario: s.name,
        queues: s.queues,
        requests,
        bytes,
        batched_cycles,
        per_request_cycles,
        batching_speedup: per_request_cycles / batched_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_windows_beat_per_request_submission() {
        for s in scenarios() {
            let row = run_scenario(&s, IoPath::Plain).unwrap();
            assert_eq!(row.requests, 2 * s.queues * s.rounds * s.ops_per_batch);
            assert_eq!(row.bytes, row.requests * s.sectors_per_op * SECTOR_SIZE as u64);
            assert!(
                row.batching_speedup > 1.0,
                "{}: batching must amortize submission overhead (speedup {})",
                s.name,
                row.batching_speedup
            );
        }
    }

    #[test]
    fn nvme_style_survives_the_aesni_path() {
        let row = run_scenario(&nvme_style(), IoPath::AesNi).unwrap();
        assert!(row.batching_speedup > 1.0, "aesni speedup {}", row.batching_speedup);
    }

    #[test]
    fn deep_batches_amortize_more_than_shallow_bursts() {
        let net = run_scenario(&net_style(), IoPath::Plain).unwrap();
        let nvme = run_scenario(&nvme_style(), IoPath::Plain).unwrap();
        // More requests per window → more world switches and
        // notifications amortized per drain.
        assert!(
            nvme.batching_speedup > net.batching_speedup,
            "nvme {} vs net {}",
            nvme.batching_speedup,
            net.batching_speedup
        );
    }
}
