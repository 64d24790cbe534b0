//! Steady-state guest↔host crossings allocate nothing on the heap.
//!
//! Every hypercall is a full world switch: #VMEXIT, Fidelius's shadow and
//! mask of the VMCB and registers, the handler, the verify-and-merge
//! before VMRUN, and the type-3 gate that issues it. `HC_MEM_ENCRYPT`
//! adds one type-1-gated NPT leaf write per guest page. None of that
//! needs a heap allocation once the system is warm, and a counting global
//! allocator pins it: after warm-up, each crossing below must allocate
//! exactly zero times.
//!
//! A warm block-I/O window is pinned the same way, to the allocations
//! its API hands back (see
//! `warm_disk_windows_allocate_only_for_the_api`).
//!
//! The count lives in a `const`-initialised thread-local, so tests
//! running in parallel on other threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use fidelius::prelude::*;
use fidelius::xen::blkif::BlkStatus;
use fidelius::xen::frontend::gplayout;
use fidelius::xen::grants::GRANT_TABLE_ENTRIES;
use fidelius::xen::hypercall::{
    GrantOp, HC_GRANT_TABLE_OP, HC_MEM_ENCRYPT, HC_PRE_SHARING_OP, HC_VOID, RET_EPERM, RET_OK,
};
use fidelius::xen::system::BatchOp;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made on this thread while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const DRAM: u64 = 64 * 1024 * 1024;
/// The `guest_runtime` benchmark's guest: `HC_MEM_ENCRYPT` rewrites 8192 NPT leaves.
const GUEST_PAGES: u64 = 8192;
/// The pages the guest declares shareable with dom0.
const SHARE_FIRST: u64 = gplayout::HEAP_PAGE;
const SHARE_PAGES: u64 = 16;
/// A private page the guest never declared.
const PRIVATE_PAGE: u64 = gplayout::MQ_REGION_PAGE + 5;
const CALLS: u64 = 100;

struct Guest {
    sys: System,
    dom: DomainId,
}

impl Guest {
    fn boot() -> Guest {
        let mut sys = System::new(DRAM, 5, Box::new(Fidelius::new())).unwrap();
        let mut owner = GuestOwner::new(5);
        let image = owner.package_image(b"crossing kernel", &sys.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut sys, &image, GUEST_PAGES).unwrap();
        let ret = sys.hypercall(dom, HC_PRE_SHARING_OP, [0, SHARE_FIRST, SHARE_PAGES, 1]).unwrap();
        assert_eq!(ret, RET_OK, "pre_sharing_op");
        Guest { sys, dom }
    }

    fn void(&mut self) {
        assert_eq!(self.sys.hypercall(self.dom, HC_VOID, [0; 4]).unwrap(), RET_OK);
    }

    fn share_cycle(&mut self, i: u64) {
        let page = SHARE_FIRST + i % SHARE_PAGES;
        let grant = self
            .sys
            .hypercall(self.dom, HC_GRANT_TABLE_OP, [GrantOp::GrantAccess as u64, 0, page, 1])
            .unwrap();
        assert!(grant < GRANT_TABLE_ENTRIES, "pre-shared grant refused: {grant:#x}");
        let end = self
            .sys
            .hypercall(self.dom, HC_GRANT_TABLE_OP, [GrantOp::EndAccess as u64, grant, 0, 0])
            .unwrap();
        assert_eq!(end, RET_OK, "end_access");
    }

    fn forged_grant(&mut self) {
        let ret = self
            .sys
            .hypercall(
                self.dom,
                HC_GRANT_TABLE_OP,
                [GrantOp::GrantAccess as u64, 0, PRIVATE_PAGE, 1],
            )
            .unwrap();
        assert_eq!(ret, RET_EPERM, "forged grant must be refused");
    }

    fn mem_encrypt(&mut self) {
        assert_eq!(self.sys.hypercall(self.dom, HC_MEM_ENCRYPT, [0; 4]).unwrap(), RET_OK);
    }
}

#[test]
fn steady_state_crossings_allocate_nothing() {
    let mut g = Guest::boot();
    // Warm-up: fill the TLB, the shadow map, the grant table's free list
    // and any buffer that grows to its working size on first use.
    for i in 0..2 * CALLS {
        g.void();
        g.share_cycle(i);
        g.forged_grant();
    }
    g.mem_encrypt();

    let void = allocs_during(|| (0..CALLS).for_each(|_| g.void()));
    let share = allocs_during(|| (0..CALLS).for_each(|i| g.share_cycle(i)));
    let forged = allocs_during(|| (0..CALLS).for_each(|_| g.forged_grant()));
    let encrypt = allocs_during(|| (0..2).for_each(|_| g.mem_encrypt()));
    assert_eq!(
        (void, share, forged, encrypt),
        (0, 0, 0, 0),
        "heap allocations over {CALLS} void hypercalls, {CALLS} share cycles, \
         {CALLS} refused forged grants and 2 HC_MEM_ENCRYPT calls"
    );
}

/// A Fidelius guest with one block queue on `path`, as the disk
/// benchmarks attach one (with a smaller disk).
fn disk_guest(path: IoPath, kblk: Option<[u8; 16]>) -> (System, DomainId) {
    let mut sys = System::new(32 * 1024 * 1024, 9, Box::new(Fidelius::new())).unwrap();
    let mut owner = GuestOwner::new(9);
    let image = owner.package_image(b"disk kernel", &sys.plat.firmware.pdh_public());
    let dom = boot_encrypted_guest(&mut sys, &image, 192).unwrap();
    sys.setup_block_device(dom, vec![0u8; 1024 * 512], path, kblk).unwrap();
    (sys, dom)
}

/// Runs one window and checks every request completed.
fn window(sys: &mut System, dom: DomainId, ops: &[BatchOp]) {
    let results = sys.disk_batch(dom, 0, ops).unwrap();
    assert!(results.iter().all(|(status, _)| *status == BlkStatus::Ok), "{results:?}");
}

/// A warm `disk_batch` window allocates only for its API. Per window,
/// with `r` reads:
///
/// - 2 vectors: the results it returns and the front-end's `slots`;
/// - `r`: each read's returned data.
///
/// Nothing else allocates: descriptor reads and pushes work on the
/// stack; the back-end's plans, published statuses, undo journal and
/// data moves, the front-end's staging and the firmware's SEV-API
/// re-encryption reuse their buffers; and a crossing allocates nothing
/// (above).
#[test]
fn warm_disk_windows_allocate_only_for_the_api() {
    const WARM: u64 = 20;
    let pages = |i: u64| 8 * i;
    let writes: Vec<BatchOp> = (0..8)
        .map(|i| BatchOp::Write { sector: pages(i), data: vec![i as u8 + 1; 4096] })
        .collect();
    let reads: Vec<BatchOp> =
        (0..8).map(|i| BatchOp::Read { sector: pages(i), count: 8 }).collect();
    let (mut sys, dom) = disk_guest(IoPath::AesNi, Some([0x4B; 16]));
    for _ in 0..WARM {
        window(&mut sys, dom, &writes);
        window(&mut sys, dom, &reads);
    }
    let aes_writes = allocs_during(|| window(&mut sys, dom, &writes));
    let aes_reads = allocs_during(|| window(&mut sys, dom, &reads));

    // 512 B requests, reads and writes alternating, as `disk_small_sev`.
    let mixed: Vec<BatchOp> = (0..8u64)
        .map(|i| match i % 2 {
            0 => BatchOp::Write { sector: 3 * i + 1, data: vec![i as u8 + 1; 512] },
            _ => BatchOp::Read { sector: 5 * i, count: 1 },
        })
        .collect();
    let (mut sys, dom) = disk_guest(IoPath::SevApi, None);
    for _ in 0..WARM {
        window(&mut sys, dom, &mixed);
    }
    let sev_mixed = allocs_during(|| window(&mut sys, dom, &mixed));

    assert_eq!(
        (aes_writes, aes_reads, sev_mixed),
        (2, 2 + 8, 2 + 4),
        "heap allocations in one warm window: 8 x 4 KiB AES-NI writes, 8 x 4 KiB AES-NI \
         reads, 4 + 4 x 512 B on the SEV-API path"
    );
}
