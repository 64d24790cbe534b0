//! Verifies the paper's §4.3.4 performance claim: "Xen will first
//! allocate most of the physical memory regions for the guest by default
//! … the operations of NPT updates happen in a batched manner during its
//! bootup, while for normal run, there is rare NPT violation happening."
//!
//! Measured via the telemetry registry's per-type gate counts: type-1
//! gate traffic (NPT updates) concentrates at boot and stays flat during
//! the guest's steady-state run.

use fidelius::prelude::*;

/// Gate crossings so far, indexed by type (type 1, 2, 3).
fn gates_by_type(sys: &System) -> [u64; 3] {
    sys.plat.machine.telemetry_snapshot().metrics.gates_by_type
}

#[test]
fn npt_updates_batch_at_boot_not_at_runtime() {
    let mut sys = System::new(32 * 1024 * 1024, 91, Box::new(Fidelius::new())).unwrap();
    let before_boot = gates_by_type(&sys);

    let mut owner = GuestOwner::new(91);
    let image = owner.package_image(b"k", &sys.plat.firmware.pdh_public());
    let dom = boot_encrypted_guest(&mut sys, &image, 192).unwrap();
    let after_boot = gates_by_type(&sys);
    let boot_gate1 = after_boot[0] - before_boot[0];
    assert!(
        boot_gate1 >= 192,
        "boot must batch at least one NPT update per populated page, saw {boot_gate1}"
    );

    // Steady state: lots of guest memory traffic, no NPT churn.
    for i in 0..64u64 {
        sys.gpa_write(
            dom,
            Gpa((gplayout::HEAP_PAGE + (i % 16)) * PAGE_SIZE),
            &[i as u8; 128],
            true,
        )
        .unwrap();
    }
    sys.ensure_host().unwrap();
    let after_run = gates_by_type(&sys);
    let run_gate1 = after_run[0] - after_boot[0];
    assert!(
        run_gate1 <= boot_gate1 / 20,
        "runtime NPT gate traffic must be rare: boot {boot_gate1} vs run {run_gate1}"
    );

    // Every guest entry went through a type-3 gate (the unmapped VMRUN).
    assert!(after_run[2] > after_boot[2], "guest re-entries use the type-3 gate");
}

#[test]
fn shadow_round_trips_track_vmexits() {
    let mut sys = System::new(32 * 1024 * 1024, 92, Box::new(Fidelius::new())).unwrap();
    let mut owner = GuestOwner::new(92);
    let image = owner.package_image(b"k", &sys.plat.firmware.pdh_public());
    let dom = boot_encrypted_guest(&mut sys, &image, 192).unwrap();
    let books = |sys: &System| {
        let m = sys.plat.machine.trace.metrics();
        (m.shadow_captures, m.vmexits_total())
    };
    let before = books(&sys);
    for _ in 0..10 {
        sys.hypercall(dom, fidelius_xen::hypercall::HC_VOID, [0; 4]).unwrap();
    }
    sys.ensure_host().unwrap();
    let after = books(&sys);
    let (captures, exits) = (after.0 - before.0, after.1 - before.1);
    assert!(exits >= 10, "each hypercall must exit: {exits}");
    assert_eq!(captures, exits, "each exit must be shadowed");
}
