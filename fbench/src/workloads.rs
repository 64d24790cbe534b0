//! The four workloads. Each is built once per set-up, then driven one
//! unit at a time (a disk window, a guest request bundle, a guest
//! lifecycle) by a single closed-loop client; every result is checked
//! against what the client wrote before the next unit starts.

use crate::probe::{Probe, Site};
use crate::stats::{Host, Ledger};
use fidelius_core::lifecycle::boot_encrypted_guest;
use fidelius_core::migrate::{migrate_in, migrate_out};
use fidelius_core::Fidelius;
use fidelius_crypto::rng::Xoshiro256;
use fidelius_hw::{Gpa, PAGE_SIZE};
use fidelius_sev::GuestOwner;
use fidelius_xen::blkif::BlkStatus;
use fidelius_xen::frontend::{gplayout, IoPath};
use fidelius_xen::grants::GRANT_TABLE_ENTRIES;
use fidelius_xen::hypercall::{
    GrantOp, HC_GRANT_TABLE_OP, HC_MEM_ENCRYPT, HC_PRE_SHARING_OP, HC_VOID, RET_EPERM, RET_OK,
};
use fidelius_xen::system::BatchOp;
use fidelius_xen::{DomainId, System};
use std::fmt::Debug;
use std::time::Instant;

const MIB: u64 = 1024 * 1024;
const SECTOR: usize = 512;
/// Sectors in one 4 KiB request.
const PAGE_SECTORS: u64 = 8;
/// Requests in one ring window (the queue's whole buffer window).
const WINDOW_OPS: u64 = gplayout::BUF_PAGES;
/// Pages of every booted disk or lifecycle guest.
const SMALL_GUEST_PAGES: u64 = 192;
/// The owner's kernel image.
const KERNEL_BYTES: usize = 8 * 1024;
/// First guest page of the `guest_runtime` working set: everything from
/// here up is private heap outside the boot layout.
const WORKING_FIRST: u64 = gplayout::MQ_REGION_PAGE;
/// The pages the `guest_runtime` guest declares shareable with dom0.
const SHARE_FIRST: u64 = gplayout::HEAP_PAGE;
const SHARE_PAGES: u64 = 16;

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DiskStream,
    DiskSmallSev,
    GuestRuntime,
    Lifecycle,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::DiskStream, Kind::DiskSmallSev, Kind::GuestRuntime, Kind::Lifecycle];

    pub fn name(self) -> &'static str {
        match self {
            Kind::DiskStream => "disk_stream",
            Kind::DiskSmallSev => "disk_small_sev",
            Kind::GuestRuntime => "guest_runtime",
            Kind::Lifecycle => "lifecycle",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Units per timed round of a 10-second run: sized so each round takes
    /// about a second on the reference host (see README.md).
    fn units_per_10s(self) -> u64 {
        match self {
            Kind::DiskStream => 40_000,
            Kind::DiskSmallSev => 40_000,
            Kind::GuestRuntime => 32_000,
            Kind::Lifecycle => 90,
        }
    }
}

/// Everything that fixes a run's work: the same plan gives the same
/// inputs, the same modeled behaviour and the same digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    /// Units (windows, bundles, lifecycles) per round.
    pub units: u64,
    /// Disk size of the disk workloads, in sectors (a multiple of a
    /// window's 64 sectors).
    pub disk_sectors: u64,
    /// Guest size of `guest_runtime`, in pages.
    pub guest_pages: u64,
    /// `guest_runtime`: one bundle in this many adds `HC_MEM_ENCRYPT`.
    pub mem_encrypt_every: u64,
    /// `lifecycle`: lifecycles per system pair.
    pub epoch: u64,
}

impl Plan {
    /// The benchmark's plan for a run of about `seconds` on the reference
    /// host.
    pub fn full(kind: Kind, seed: u64, seconds: u64) -> Plan {
        let units = (kind.units_per_10s() * seconds).div_ceil(10).max(1);
        Plan {
            kind,
            seed,
            units,
            disk_sectors: 16 * MIB / SECTOR as u64,
            guest_pages: 8192,
            mem_encrypt_every: 4096,
            epoch: 30,
        }
    }

    /// A plan that exercises every path in milliseconds (tests).
    #[cfg(test)]
    pub fn tiny(kind: Kind, seed: u64) -> Plan {
        Plan {
            kind,
            seed,
            units: 4,
            disk_sectors: 256,
            guest_pages: WORKING_FIRST + 64,
            mem_encrypt_every: 2,
            epoch: 2,
        }
    }
}

/// The most latency samples one unit records: a guest request bundle
/// plus its occasional `HC_MEM_ENCRYPT`.
pub const MAX_SAMPLES_PER_UNIT: u64 = 13;

/// Per-round tallies the runner turns into end-to-end metrics.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests completed (or failed).
    pub ops: u64,
    /// Requests that failed: an error return, a wrong read-back or an
    /// accepted forged request.
    pub failed: u64,
    /// Guest payload bytes read plus written.
    pub bytes: u64,
    /// Block requests submitted.
    pub requests: u64,
    /// One host latency per timed op, in nanoseconds. A disk window's
    /// requests complete together and share one sample.
    pub lat_ns: Vec<u64>,
    /// The same latencies, each corrected for host speed over its slice
    /// of the round (filled by the runner).
    pub fixed_ns: Vec<u64>,
}

/// What a unit of work can touch besides its own systems.
#[derive(Default)]
pub struct Ctx {
    pub probe: Probe,
    pub ledger: Ledger,
    pub tally: Tally,
}

impl Ctx {
    /// Runs `ops` requests that complete together as one timed op.
    fn op<R>(
        &mut self,
        ops: u64,
        f: impl FnOnce(&mut Ctx) -> Result<R, String>,
    ) -> Result<R, String> {
        let begin = Instant::now();
        self.probe.begin_op(begin);
        let r = f(self);
        let end = Instant::now();
        self.probe.end_op(end);
        self.tally.lat_ns.push(end.duration_since(begin).as_nanos() as u64);
        self.tally.ops += ops;
        if r.is_err() {
            self.tally.failed += ops;
        }
        r
    }
}

/// Checks one read-back value and books it into the digest.
fn check(ledger: &mut Ledger, ok: bool, tag: u64, what: &str) -> Result<(), String> {
    if !ok {
        return Err(format!("wrong read-back: {what}"));
    }
    ledger.read_back(tag);
    Ok(())
}

/// A workload instance, ready to run units.
pub trait Workload {
    /// Runs one unit: a disk window, a guest request bundle or a guest
    /// lifecycle.
    fn unit(&mut self, ctx: &mut Ctx) -> Result<(), String>;
    /// The systems the unit drives, in a fixed order.
    fn hosts(&self) -> Vec<&Host>;
}

/// Builds the initial state of `plan`: systems, guest boot, device
/// attach and the working set written once.
pub fn build(plan: &Plan, probe: &mut Probe) -> Result<Box<dyn Workload>, String> {
    Ok(match plan.kind {
        Kind::DiskStream | Kind::DiskSmallSev => Box::new(Disk::build(plan, probe)?),
        Kind::GuestRuntime => Box::new(GuestRuntime::build(plan, probe)?),
        Kind::Lifecycle => Box::new(Lifecycle::build(plan, probe)?),
    })
}

fn err<E: Debug>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e:?}")
}

/// The content tag of one sector or page version: every written byte is
/// a function of it, so a read-back is checked without keeping a copy.
fn tag(seed: u64, block: u64, version: u32) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(block.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(u64::from(version).wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn word(tag: u64, i: usize) -> u64 {
    tag ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn fill(buf: &mut [u8], tag: u64) {
    for (i, w) in buf.chunks_exact_mut(8).enumerate() {
        w.copy_from_slice(&word(tag, i).to_le_bytes());
    }
}

fn holds(buf: &[u8], tag: u64) -> bool {
    buf.chunks_exact(8)
        .enumerate()
        .all(|(i, w)| u64::from_le_bytes(w.try_into().expect("8-byte chunk")) == word(tag, i))
}

fn new_system(probe: &mut Probe, dram: u64, seed: u64) -> Result<System, String> {
    probe
        .site(Site::SystemNew, || System::new(dram, seed, Box::new(Fidelius::new())))
        .map_err(err("System::new"))
}

/// The owner packages a kernel for `sys` and the guest boots from it.
fn boot(
    probe: &mut Probe,
    sys: &mut System,
    rng: &mut Xoshiro256,
    pages: u64,
) -> Result<DomainId, String> {
    let mut kernel = vec![0u8; KERNEL_BYTES];
    rng.fill_bytes(&mut kernel);
    let mut owner = GuestOwner::new(rng.next_u64());
    let pdh = sys.plat.firmware.pdh_public();
    let image = probe.site(Site::PackageImage, || owner.package_image(&kernel, &pdh));
    probe
        .site(Site::BootEncryptedGuest, || boot_encrypted_guest(sys, &image, pages))
        .map_err(err("boot_encrypted_guest"))
}

/// Sectors `[first, first + count)` at their next versions, as one
/// 512-byte-tagged payload.
fn payload(seed: u64, versions: &[u32], first: u64, count: u64) -> Vec<u8> {
    let mut data = vec![0u8; count as usize * SECTOR];
    for (k, chunk) in data.chunks_exact_mut(SECTOR).enumerate() {
        let s = first + k as u64;
        fill(chunk, tag(seed, s, versions[s as usize] + 1));
    }
    data
}

/// Checks a window's statuses and read-back, then commits its writes.
fn settle(
    ledger: &mut Ledger,
    seed: u64,
    versions: &mut [u32],
    ops: &[BatchOp],
    results: &[(BlkStatus, Option<Vec<u8>>)],
) -> Result<(), String> {
    if results.len() != ops.len() {
        return Err(format!("{} results for {} requests", results.len(), ops.len()));
    }
    for (op, (status, data)) in ops.iter().zip(results) {
        if *status != BlkStatus::Ok {
            return Err(format!("request {op:?} returned {status:?}"));
        }
        match op {
            BatchOp::Write { sector, data } => {
                for s in *sector..*sector + (data.len() / SECTOR) as u64 {
                    versions[s as usize] += 1;
                }
            }
            BatchOp::Read { sector, count } => {
                let data = data.as_deref().ok_or("read returned no data")?;
                if data.len() != *count as usize * SECTOR {
                    return Err(format!("read of {count} sectors returned {} bytes", data.len()));
                }
                for (k, chunk) in data.chunks_exact(SECTOR).enumerate() {
                    let s = *sector + k as u64;
                    let t = tag(seed, s, versions[s as usize]);
                    check(ledger, holds(chunk, t), t, "disk sector")?;
                }
            }
        }
    }
    Ok(())
}

/// Runs one window as one op and checks it.
fn window(
    ctx: &mut Ctx,
    sys: &mut System,
    dom: DomainId,
    seed: u64,
    versions: &mut [u32],
    ops: &[BatchOp],
) -> Result<(), String> {
    let bytes: u64 = ops
        .iter()
        .map(|op| match op {
            BatchOp::Write { data, .. } => data.len() as u64,
            BatchOp::Read { count, .. } => count * SECTOR as u64,
        })
        .sum();
    ctx.tally.bytes += bytes;
    ctx.tally.requests += ops.len() as u64;
    ctx.op(ops.len() as u64, |ctx| {
        let results = ctx
            .probe
            .site(Site::DiskBatch, || sys.disk_batch(dom, 0, ops))
            .map_err(err("disk_batch"))?;
        let ledger = &mut ctx.ledger;
        ctx.probe.site(Site::Verify, || settle(ledger, seed, versions, ops, &results))
    })
}

/// `disk_stream` and `disk_small_sev`: an encrypted guest with one block
/// queue, on the guest-side AES-NI path or the SEV-API path.
struct Disk {
    host: Host,
    dom: DomainId,
    seed: u64,
    small: bool,
    versions: Vec<u32>,
    rng: Xoshiro256,
    /// Windows issued so far.
    issued: u64,
    /// The seeded window the sequential walk starts from.
    start: u64,
}

impl Disk {
    fn build(plan: &Plan, probe: &mut Probe) -> Result<Disk, String> {
        assert!(plan.disk_sectors.is_multiple_of(WINDOW_OPS * PAGE_SECTORS), "whole windows only");
        let small = plan.kind == Kind::DiskSmallSev;
        let mut rng = Xoshiro256::new(plan.seed ^ 0xD15C);
        let mut sys = new_system(probe, 32 * MIB, plan.seed)?;
        let dom = boot(probe, &mut sys, &mut rng, SMALL_GUEST_PAGES)?;
        let (path, kblk) =
            if small { (IoPath::SevApi, None) } else { (IoPath::AesNi, Some(rng.next_key128())) };
        let disk = vec![0u8; plan.disk_sectors as usize * SECTOR];
        probe
            .site(Site::SetupBlockDevice, || sys.setup_block_device(dom, disk, path, kblk))
            .map_err(err("setup_block_device"))?;
        // The working set: every sector written once, window by window.
        let mut versions = vec![0u32; plan.disk_sectors as usize];
        let window_sectors = WINDOW_OPS * PAGE_SECTORS;
        for base in (0..plan.disk_sectors).step_by(window_sectors as usize) {
            let ops: Vec<BatchOp> = (0..WINDOW_OPS)
                .map(|i| {
                    let sector = base + i * PAGE_SECTORS;
                    BatchOp::Write {
                        sector,
                        data: payload(plan.seed, &versions, sector, PAGE_SECTORS),
                    }
                })
                .collect();
            let results = probe
                .site(Site::DiskBatch, || sys.disk_batch(dom, 0, &ops))
                .map_err(err("disk_batch"))?;
            if results.iter().any(|(s, _)| *s != BlkStatus::Ok) {
                return Err("working-set write refused".into());
            }
            versions
                .iter_mut()
                .skip(base as usize)
                .take(window_sectors as usize)
                .for_each(|v| *v += 1);
        }
        let start = rng.next_bounded(plan.disk_sectors / window_sectors);
        Ok(Disk {
            host: Host::new(sys),
            dom,
            seed: plan.seed,
            small,
            versions,
            rng,
            issued: 0,
            start,
        })
    }

    /// `disk_stream`: 32 KiB windows of 4 KiB requests walking the disk,
    /// two read windows to one write window.
    fn stream_ops(&mut self) -> Vec<BatchOp> {
        let window_sectors = WINDOW_OPS * PAGE_SECTORS;
        let windows = self.versions.len() as u64 / window_sectors;
        let base = (self.start + self.issued) % windows * window_sectors;
        let write = self.issued % 3 == 2;
        (0..WINDOW_OPS)
            .map(|i| {
                let sector = base + i * PAGE_SECTORS;
                if write {
                    BatchOp::Write {
                        sector,
                        data: payload(self.seed, &self.versions, sector, PAGE_SECTORS),
                    }
                } else {
                    BatchOp::Read { sector, count: PAGE_SECTORS }
                }
            })
            .collect()
    }

    /// `disk_small_sev`: eight 512 B requests at distinct uniformly random
    /// sectors, four reads and four writes in seeded order.
    fn small_ops(&mut self) -> Vec<BatchOp> {
        let sectors = self.versions.len() as u64;
        let mut picked: Vec<u64> = Vec::with_capacity(WINDOW_OPS as usize);
        while picked.len() < WINDOW_OPS as usize {
            let s = self.rng.next_bounded(sectors);
            if !picked.contains(&s) {
                picked.push(s);
            }
        }
        let mut writes = [false, false, false, false, true, true, true, true];
        for i in (1..writes.len()).rev() {
            writes.swap(i, self.rng.next_bounded(i as u64 + 1) as usize);
        }
        picked
            .into_iter()
            .zip(writes)
            .map(|(sector, write)| {
                if write {
                    BatchOp::Write { sector, data: payload(self.seed, &self.versions, sector, 1) }
                } else {
                    BatchOp::Read { sector, count: 1 }
                }
            })
            .collect()
    }
}

impl Workload for Disk {
    fn unit(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let ops = if self.small { self.small_ops() } else { self.stream_ops() };
        self.issued += 1;
        window(ctx, &mut self.host.sys, self.dom, self.seed, &mut self.versions, &ops)
    }

    fn hosts(&self) -> Vec<&Host> {
        vec![&self.host]
    }
}

/// One guest request of a `guest_runtime` bundle.
#[derive(Debug, Clone, Copy)]
enum Request {
    Read(u64),
    Write(u64),
    Void,
    Share,
    Forged(u64),
}

/// `guest_runtime`: a large encrypted guest whose working set is twice
/// the TLB, serving a seeded mix of memory accesses and hypercalls.
struct GuestRuntime {
    host: Host,
    dom: DomainId,
    seed: u64,
    versions: Vec<u32>,
    rng: Xoshiro256,
    bundles: u64,
    mem_encrypt_every: u64,
    buf: Vec<u8>,
}

impl GuestRuntime {
    fn build(plan: &Plan, probe: &mut Probe) -> Result<GuestRuntime, String> {
        let mut rng = Xoshiro256::new(plan.seed ^ 0x6E57);
        let mut sys = new_system(probe, 64 * MIB, plan.seed)?;
        let dom = boot(probe, &mut sys, &mut rng, plan.guest_pages)?;
        sys.ensure_guest(dom).map_err(err("enter guest"))?;
        let working = plan.guest_pages - WORKING_FIRST;
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        for p in 0..working {
            fill(&mut buf, tag(plan.seed, p, 0));
            let gpa = Gpa((WORKING_FIRST + p) * PAGE_SIZE);
            probe
                .site(Site::GuestWriteGpa, || sys.plat.machine.guest_write_gpa(gpa, &buf, true))
                .map_err(err("guest_write_gpa"))?;
        }
        // The guest declares its share window to dom0 once, as a front-end
        // does at attach time; bundles then grant and revoke inside it.
        let ret = sys
            .hypercall(dom, HC_PRE_SHARING_OP, [0, SHARE_FIRST, SHARE_PAGES, 1])
            .map_err(err("pre_sharing_op"))?;
        if ret != RET_OK {
            return Err(format!("pre_sharing_op returned {ret:#x}"));
        }
        Ok(GuestRuntime {
            host: Host::new(sys),
            dom,
            seed: plan.seed,
            versions: vec![0; working as usize],
            rng,
            bundles: 0,
            mem_encrypt_every: plan.mem_encrypt_every,
            buf,
        })
    }

    /// The seeded bundle: six reads and two writes of random working-set
    /// pages, two void hypercalls, one share cycle and one forged grant.
    fn bundle(&mut self) -> Vec<Request> {
        let working = self.versions.len() as u64;
        let mut page = || self.rng.next_bounded(working);
        let mut reqs = vec![
            Request::Read(page()),
            Request::Read(page()),
            Request::Read(page()),
            Request::Read(page()),
            Request::Read(page()),
            Request::Read(page()),
            Request::Write(page()),
            Request::Write(page()),
            Request::Void,
            Request::Void,
            Request::Share,
            Request::Forged(page()),
        ];
        for i in (1..reqs.len()).rev() {
            reqs.swap(i, self.rng.next_bounded(i as u64 + 1) as usize);
        }
        reqs
    }

    fn request(&mut self, ctx: &mut Ctx, req: Request) -> Result<(), String> {
        let (sys, dom, seed) = (&mut self.host.sys, self.dom, self.seed);
        let gpa = |p: u64| Gpa((WORKING_FIRST + p) * PAGE_SIZE);
        match req {
            Request::Read(p) => {
                ctx.tally.bytes += PAGE_SIZE;
                let buf = &mut self.buf;
                let versions = &self.versions;
                ctx.op(1, |ctx| {
                    ctx.probe
                        .site(Site::GuestReadGpa, || {
                            sys.plat.machine.guest_read_gpa(gpa(p), buf, true)
                        })
                        .map_err(err("guest_read_gpa"))?;
                    let t = tag(seed, p, versions[p as usize]);
                    let ok = ctx.probe.site(Site::Verify, || holds(buf, t));
                    check(&mut ctx.ledger, ok, t, "guest page")
                })
            }
            Request::Write(p) => {
                ctx.tally.bytes += PAGE_SIZE;
                let next = self.versions[p as usize] + 1;
                fill(&mut self.buf, tag(seed, p, next));
                let buf = &self.buf;
                ctx.op(1, |ctx| {
                    ctx.probe
                        .site(Site::GuestWriteGpa, || {
                            sys.plat.machine.guest_write_gpa(gpa(p), buf, true)
                        })
                        .map_err(err("guest_write_gpa"))
                })?;
                self.versions[p as usize] = next;
                Ok(())
            }
            Request::Void => ctx.op(1, |ctx| {
                let ret = ctx
                    .probe
                    .site(Site::HcVoid, || sys.hypercall(dom, HC_VOID, [0; 4]))
                    .map_err(err("void hypercall"))?;
                expect_ret(ret == RET_OK, "void hypercall", ret)
            }),
            Request::Share => {
                let page = SHARE_FIRST + self.bundles % SHARE_PAGES;
                ctx.op(1, |ctx| {
                    let (grant, end) = ctx
                        .probe
                        .site(Site::HcShare, || {
                            let grant = sys.hypercall(
                                dom,
                                HC_GRANT_TABLE_OP,
                                [GrantOp::GrantAccess as u64, 0, page, 1],
                            )?;
                            let end = sys.hypercall(
                                dom,
                                HC_GRANT_TABLE_OP,
                                [GrantOp::EndAccess as u64, grant, 0, 0],
                            )?;
                            Ok::<_, fidelius_xen::XenError>((grant, end))
                        })
                        .map_err(err("share cycle"))?;
                    expect_ret(grant < GRANT_TABLE_ENTRIES, "pre-shared grant", grant)?;
                    expect_ret(end == RET_OK, "end_access", end)
                })
            }
            Request::Forged(p) => ctx.op(1, |ctx| {
                // The hypervisor grants dom0 a private page the guest never
                // declared: the GIT policy must refuse it.
                let ret = ctx
                    .probe
                    .site(Site::HcForgedGrant, || {
                        sys.hypercall(
                            dom,
                            HC_GRANT_TABLE_OP,
                            [GrantOp::GrantAccess as u64, 0, WORKING_FIRST + p, 1],
                        )
                    })
                    .map_err(err("forged grant"))?;
                expect_ret(ret == RET_EPERM, "forged grant (must be refused)", ret)
            }),
        }
    }
}

fn expect_ret(ok: bool, what: &str, ret: u64) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{what} returned {ret:#x}"))
    }
}

impl Workload for GuestRuntime {
    fn unit(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        self.host.sys.ensure_guest(self.dom).map_err(err("enter guest"))?;
        for req in self.bundle() {
            self.request(ctx, req)?;
        }
        self.bundles += 1;
        if self.bundles.is_multiple_of(self.mem_encrypt_every) {
            let (sys, dom) = (&mut self.host.sys, self.dom);
            ctx.op(1, |ctx| {
                let ret = ctx
                    .probe
                    .site(Site::HcMemEncrypt, || sys.hypercall(dom, HC_MEM_ENCRYPT, [0; 4]))
                    .map_err(err("mem_encrypt"))?;
                expect_ret(ret == RET_OK, "mem_encrypt", ret)
            })?;
        }
        Ok(())
    }

    fn hosts(&self) -> Vec<&Host> {
        vec![&self.host]
    }
}

/// `lifecycle`: two systems hand guests back and forth; each op is one
/// guest's whole life.
struct Lifecycle {
    pair: [Host; 2],
    seed: u64,
    epoch: u64,
    done: u64,
    rng: Xoshiro256,
}

impl Lifecycle {
    fn build(plan: &Plan, probe: &mut Probe) -> Result<Lifecycle, String> {
        Ok(Lifecycle {
            pair: Self::pair(probe, plan.seed)?,
            seed: plan.seed,
            epoch: plan.epoch,
            done: 0,
            rng: Xoshiro256::new(plan.seed ^ 0x11FE),
        })
    }

    fn pair(probe: &mut Probe, seed: u64) -> Result<[Host; 2], String> {
        let a = new_system(probe, 32 * MIB, seed.wrapping_mul(2))?;
        let b = new_system(probe, 32 * MIB, seed.wrapping_mul(2) | 1)?;
        Ok([Host::new(a), Host::new(b)])
    }

    /// Replaces the pair before the heap the hypervisor never returns
    /// runs out.
    fn rebuild(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        for h in &self.pair {
            ctx.probe.drain(&h.sys.plat.machine.rec);
            ctx.ledger.retire(h);
        }
        self.pair = Self::pair(&mut ctx.probe, self.seed)?;
        if ctx.probe.tracing() {
            for h in &self.pair {
                h.sys.plat.machine.rec.arm();
            }
        }
        Ok(())
    }
}

impl Workload for Lifecycle {
    fn unit(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        if self.done > 0 && self.done.is_multiple_of(self.epoch) {
            self.rebuild(ctx)?;
        }
        let [a, b] = &mut self.pair;
        let (src, dst) = if self.done.is_multiple_of(2) {
            (&mut a.sys, &mut b.sys)
        } else {
            (&mut b.sys, &mut a.sys)
        };
        // The guest's inputs: its marker, its disk key and one window of
        // disk data, all from the seed and the lifecycle's number.
        let data_seed = self.seed ^ self.done.wrapping_mul(0x100_0000_01B3);
        let rng = &mut self.rng;
        let mut marker = [0u8; 64];
        let marker_tag = tag(data_seed, u64::MAX, 1);
        fill(&mut marker, marker_tag);
        let kblk = rng.next_key128();
        let window_sectors = WINDOW_OPS * PAGE_SECTORS;
        let mut versions = vec![0u32; window_sectors as usize];
        let writes: Vec<BatchOp> = (0..WINDOW_OPS)
            .map(|i| {
                let sector = i * PAGE_SECTORS;
                BatchOp::Write { sector, data: payload(data_seed, &versions, sector, PAGE_SECTORS) }
            })
            .collect();
        let reads: Vec<BatchOp> = (0..WINDOW_OPS)
            .map(|i| BatchOp::Read { sector: i * PAGE_SECTORS, count: PAGE_SECTORS })
            .collect();
        ctx.tally.bytes += 2 * WINDOW_OPS * PAGE_SIZE + 2 * marker.len() as u64;
        ctx.tally.requests += 2 * WINDOW_OPS;
        let heap = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);
        ctx.op(1, |ctx| {
            let dom = boot(&mut ctx.probe, src, rng, SMALL_GUEST_PAGES)?;
            src.ensure_guest(dom).map_err(err("enter guest"))?;
            ctx.probe
                .site(Site::GuestWriteGpa, || src.plat.machine.guest_write_gpa(heap, &marker, true))
                .map_err(err("guest_write_gpa"))?;
            let disk = vec![0u8; window_sectors as usize * SECTOR];
            ctx.probe
                .site(Site::SetupBlockDevice, || {
                    src.setup_block_device(dom, disk, IoPath::AesNi, Some(kblk))
                })
                .map_err(err("setup_block_device"))?;
            for batch in [&writes, &reads] {
                let results = ctx
                    .probe
                    .site(Site::DiskBatch, || src.disk_batch(dom, 0, batch))
                    .map_err(err("disk_batch"))?;
                let ledger = &mut ctx.ledger;
                ctx.probe.site(Site::Verify, || {
                    settle(ledger, data_seed, &mut versions, batch, &results)
                })?;
            }
            let pdh = dst.plat.firmware.pdh_public();
            let package = ctx
                .probe
                .site(Site::MigrateOut, || migrate_out(src, dom, &pdh))
                .map_err(err("migrate_out"))?;
            let moved = ctx
                .probe
                .site(Site::MigrateIn, || migrate_in(dst, &package))
                .map_err(err("migrate_in"))?;
            dst.ensure_guest(moved).map_err(err("enter guest"))?;
            let mut back = [0u8; 64];
            ctx.probe
                .site(Site::GuestReadGpa, || dst.plat.machine.guest_read_gpa(heap, &mut back, true))
                .map_err(err("guest_read_gpa"))?;
            let ok = ctx.probe.site(Site::Verify, || holds(&back, marker_tag));
            check(&mut ctx.ledger, ok, marker_tag, "migrated marker")?;
            ctx.probe
                .site(Site::ShutdownGuest, || dst.shutdown_guest(moved))
                .map_err(err("shutdown_guest"))
        })?;
        ctx.ledger.domains_destroyed += 2;
        self.done += 1;
        Ok(())
    }

    fn hosts(&self) -> Vec<&Host> {
        self.pair.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_fill_and_check_round_trip() {
        let mut buf = vec![0u8; SECTOR];
        fill(&mut buf, tag(1, 7, 3));
        assert!(holds(&buf, tag(1, 7, 3)));
        assert!(!holds(&buf, tag(1, 7, 4)), "a stale version must not pass");
        assert!(!holds(&buf, tag(2, 7, 3)), "another seed's data must not pass");
        buf[100] ^= 1;
        assert!(!holds(&buf, tag(1, 7, 3)));
    }

    #[test]
    fn seeds_generate_different_inputs() {
        let mut probe = Probe::default();
        let plan = |seed| Plan::tiny(Kind::DiskSmallSev, seed);
        let mut a = Disk::build(&plan(1), &mut probe).unwrap();
        let mut b = Disk::build(&plan(2), &mut probe).unwrap();
        let sectors = |ops: Vec<BatchOp>| -> Vec<u64> {
            ops.iter()
                .map(|op| match op {
                    BatchOp::Write { sector, .. } | BatchOp::Read { sector, .. } => *sector,
                })
                .collect()
        };
        assert_ne!(sectors(a.small_ops()), sectors(b.small_ops()));
        let mut ga = GuestRuntime::build(&Plan::tiny(Kind::GuestRuntime, 1), &mut probe).unwrap();
        let mut gb = GuestRuntime::build(&Plan::tiny(Kind::GuestRuntime, 2), &mut probe).unwrap();
        assert_ne!(format!("{:?}", ga.bundle()), format!("{:?}", gb.bundle()));
    }
}
