//! The full VM life cycle of paper §4.3: prepare → boot → run → I/O →
//! shutdown, narrated stage by stage.
//!
//! Run with: `cargo run --release --example full_lifecycle`

use fidelius::prelude::*;
use fidelius_crypto::modes::SECTOR_SIZE;

fn main() -> Result<(), fidelius::xen::XenError> {
    // §4.3.1 System initialization: the platform boots, Fidelius late
    // launches, measures the hypervisor and seizes the critical resources.
    let mut sys = System::new(32 * 1024 * 1024, 1, Box::new(Fidelius::new()))?;
    println!("[init]    platform booted; guardian = {}", sys.guardian.name());

    // §4.3.2 VM preparing: in a trusted environment the owner builds the
    // encrypted kernel image, the wrapped transport keys and Kblk.
    let mut owner = GuestOwner::new(2);
    let kblk = owner.generate_kblk();
    let kernel = b"lifecycle kernel with Kblk embedded".to_vec();
    let image = owner.package_image(&kernel, &sys.plat.firmware.pdh_public());
    println!("[prepare] owner packaged {} encrypted pages + measurement", image.pages.len());

    // §4.3.3 VM bootup: RECEIVE_START/UPDATE/FINISH + ACTIVATE.
    let dom = boot_encrypted_guest(&mut sys, &image, 192)?;
    println!("[boot]    domain {} booted from the encrypted image", dom.0);

    // §4.3.4 Runtime memory protection: the guest computes on private
    // memory the hypervisor cannot touch.
    sys.gpa_write(dom, Gpa(gplayout::HEAP_PAGE * PAGE_SIZE), b"working state", true)?;
    println!("[run]     guest state written to sealed, encrypted memory");

    // §4.3.5 Runtime I/O protection: AES-NI path with the owner's Kblk.
    let disk = vec![0u8; 128 * SECTOR_SIZE];
    sys.setup_block_device(dom, disk, IoPath::AesNi, Some(kblk))?;
    let mut sector = vec![0u8; SECTOR_SIZE];
    sector[..12].copy_from_slice(b"disk payload");
    sys.disk_write(dom, 0, &sector)?;
    let back = sys.disk_read(dom, 0, 1)?;
    assert_eq!(&back[..12], b"disk payload");
    sys.ensure_host()?;
    let on_disk = &sys.xen.backend(dom)?.disk()[..12];
    println!("[io]      round-tripped a sector; dom0's disk sees {on_disk:02x?} (ciphertext)");

    // §4.3.8 VM shutdown: DEACTIVATE + DECOMMISSION + PIT/GIT cleanup.
    let asid = sys.xen.domain(dom)?.asid;
    sys.shutdown_guest(dom)?;
    println!(
        "[down]    guest destroyed; key for ASID {} uninstalled: {}",
        asid.0,
        !sys.plat.machine.mc.has_guest_key(asid)
    );
    Ok(())
}
