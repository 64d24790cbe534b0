//! The two I/O protection paths of §4.3.5 (plus the unprotected baseline
//! and the software-crypto fallback), showing what the untrusted driver
//! domain sees in each case.
//!
//! Run with: `cargo run --release --example io_protection`

use fidelius::prelude::*;
use fidelius_crypto::modes::SECTOR_SIZE;

const MSG: &[u8; 20] = b"TOP-SECRET-I/O-DATA!";

fn dom0_view(path: IoPath, protected: bool) -> Result<Vec<u8>, fidelius::xen::XenError> {
    let dram = 32 * 1024 * 1024;
    let (mut sys, dom) = if protected {
        let mut sys = System::new(dram, 3, Box::new(Fidelius::new()))?;
        let mut owner = GuestOwner::new(3);
        let image = owner.package_image(&[0x90], &sys.plat.firmware.pdh_public());
        let dom = fidelius::core::lifecycle::boot_encrypted_guest(&mut sys, &image, 192)?;
        (sys, dom)
    } else {
        let mut sys = System::new(dram, 3, Box::new(Unprotected::new()))?;
        let dom =
            sys.create_guest(GuestConfig { mem_pages: 192, sev: false, kernel: vec![0x90] })?;
        (sys, dom)
    };
    let kblk = match path {
        IoPath::AesNi | IoPath::SoftCrypto => Some([0x4B; 16]),
        _ => None,
    };
    sys.setup_block_device(dom, vec![0u8; 64 * SECTOR_SIZE], path, kblk)?;
    let mut sector = vec![0u8; SECTOR_SIZE];
    sector[..MSG.len()].copy_from_slice(MSG);
    sys.disk_write(dom, 0, &sector)?;
    // Verify the guest can read its own data back.
    let back = sys.disk_read(dom, 0, 1)?;
    assert_eq!(&back[..MSG.len()], MSG, "guest roundtrip");
    sys.ensure_host()?;
    Ok(sys.xen.backend(dom)?.disk()[..MSG.len()].to_vec())
}

fn main() -> Result<(), fidelius::xen::XenError> {
    println!(
        "guest writes {:?} through the PV block device;\nwhat does the driver domain's disk hold?\n",
        std::str::from_utf8(MSG).unwrap()
    );
    for (name, path, protected) in [
        ("plain (vanilla Xen)", IoPath::Plain, false),
        ("AES-NI with Kblk (Fidelius)", IoPath::AesNi, true),
        ("software crypto fallback (Fidelius)", IoPath::SoftCrypto, true),
        ("SEV-API s-dom/r-dom (Fidelius)", IoPath::SevApi, true),
    ] {
        let view = dom0_view(path, protected)?;
        let leaked = view == MSG;
        println!(
            "  {name:38} -> {}{}",
            if leaked { "PLAINTEXT LEAKED: " } else { "ciphertext: " },
            if leaked {
                String::from_utf8_lossy(&view).into_owned()
            } else {
                format!("{:02x?}…", &view[..8])
            }
        );
    }
    println!("\nonly the unprotected baseline leaks; all three Fidelius paths encode the data.");
    Ok(())
}
