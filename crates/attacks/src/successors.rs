//! Successor attacks from the post-SEV literature, run as first-class
//! adversaries against every defense column.
//!
//! The original matrix ([`crate::scenarios`]) covers the attack surface the
//! Fidelius paper itself enumerates (§2, §6). This module adds the three
//! attacks published *after* SEV shipped that define the modern bar:
//!
//! * **SEVered** (Morbitzer, Huber, Horsch, Wessel — EuroSec'18): the
//!   hypervisor remaps a guest-physical page that a live network/disk
//!   service legitimately serves, onto the frame holding a secret. The PA
//!   tweak is keyed to the *physical* frame, which never moved, so the
//!   guest decrypts the secret perfectly at the wrong GPA and ships the
//!   plaintext out through its own I/O path. No key is ever touched.
//! * **SEVurity** (Wilke, Wichelmann, Morbitzer, Eisenbarth — IEEE S&P'20):
//!   XEX with a public position-dependent tweak is move-malleable. For a
//!   16-byte block `C = E(P ⊕ T(src)) ⊕ T(src)`, placing
//!   `C ⊕ T(src) ⊕ T(dst)` at `dst` decrypts to `P ⊕ T(src) ⊕ T(dst)` —
//!   a fully attacker-predicted plaintext, computed without any key
//!   material from a hypervisor-known plaintext block.
//! * **Attestation rollback**: vanilla SEV firmware keeps no launch-session
//!   ledger, so a hypervisor can replay a stale (e.g. vulnerable-kernel)
//!   owner session and have the platform attest it as fresh. The
//!   retrofitted firmware's consumed-nonce ledger refuses the replay at
//!   `RECEIVE_START` (and the same ledger covers migration receives, see
//!   `fidelius_core::migrate`).
//!
//! Each attack reports a typed [`DenialReason`] when blocked, emits an
//! [`Event::AttackOutcome`] on the victim machine's trace, and appears as a
//! row of the §6 matrix (`fidelius_attacks::run_matrix`). The catalog in
//! `docs/THREAT_MODEL.md` cross-links every row to the regression tests at
//! the bottom of this file.

use crate::defense::{
    build_victim, contains_secret, firmware_mode_for, guardian_for, Defense, VictimSetup,
    ATTACK_DRAM, SECRET_GPA,
};
use crate::scenarios::{report, victim_frame, Attack, AttackOutcome, AttackReport};
use fidelius_core::lifecycle::boot_encrypted_guest;
use fidelius_crypto::modes::{PaTweakCipher, SECTOR_SIZE};
use fidelius_hw::inject::{FaultAction, FaultInjector, InjectPoint};
use fidelius_hw::paging::PTE_WRITABLE;
use fidelius_hw::vmcb::ExitCode;
use fidelius_hw::{Gpa, PAGE_SIZE};
use fidelius_sev::GuestOwner;
use fidelius_telemetry::{DenialReason, Event};
use fidelius_xen::frontend::{gplayout, IoPath};
use fidelius_xen::layout::direct_map;
use fidelius_xen::System;

/// The successor-attack rows, in matrix order.
pub fn successor_attacks() -> Vec<Attack> {
    vec![
        Attack {
            name: "severed-io-remap",
            description: "SEVered: NPT remap under a live blkif service routes a \
                          victim page's plaintext out through the guest's own I/O path",
            run: atk_severed,
        },
        Attack {
            name: "sevurity-tweak-inject",
            description: "SEVurity: XEX tweak malleability turns a ciphertext move \
                          into an attacker-predicted plaintext write",
            run: atk_sevurity,
        },
        Attack {
            name: "attestation-rollback",
            description: "replay a stale owner session so the platform attests an \
                          old measurement as fresh at LAUNCH",
            run: atk_attestation_rollback,
        },
    ]
}

/// Stamps the run's verdict onto the victim machine's trace so the flight
/// recorder and the telemetry metrics see attack outcomes alongside
/// denials and fault outcomes.
fn emit_outcome(
    sys: &System,
    attack: &'static str,
    defense: Defense,
    outcome: &AttackOutcome,
    reason: Option<DenialReason>,
) {
    sys.plat.machine.trace.emit(Event::AttackOutcome {
        attack,
        defense: defense.label(),
        outcome: outcome.label(),
        reason,
    });
}

/// Most recent typed denial on the trace, if any.
fn last_denial(sys: &System) -> Option<DenialReason> {
    sys.plat.machine.trace.events().iter().rev().find_map(|e| match &e.event {
        Event::Denial { reason } => Some(*reason),
        _ => None,
    })
}

// ----- 17. SEVered: remap under a live I/O service ---------------------------

fn atk_severed(defense: Defense) -> AttackReport {
    severed_run(defense).1
}

pub(crate) fn severed_run(defense: Defense) -> (VictimSetup, AttackReport) {
    const NAME: &str = "severed-io-remap";
    let mut v = build_victim(defense).expect("victim");

    // A live block service: the victim's frontend keeps serving pages to
    // the hypervisor-owned backend, exactly the resource SEVered abuses.
    let (io_path, kblk) = if defense == Defense::Fidelius {
        (IoPath::AesNi, Some([0x4B; 16]))
    } else {
        (IoPath::Plain, None)
    };
    v.sys.setup_block_device(v.victim, vec![0u8; 64 * SECTOR_SIZE], io_path, kblk).expect("blkif");

    // The page the service legitimately serves out.
    let served_page = gplayout::HEAP_PAGE + 4;
    let served_gpa = Gpa(served_page * PAGE_SIZE);
    v.sys.gpa_write(v.victim, served_gpa, b"public web asset", v.sev).expect("served content");
    v.sys.ensure_host().expect("host");

    // SEVered's one move: while the service runs, remap the *served* GPA
    // onto the frame holding the secret. The PA tweak is keyed to the
    // physical frame, which did not move, so the guest decrypts the secret
    // perfectly at the wrong GPA — no key is ever attacked.
    let secret_frame = victim_frame(&v, gplayout::HEAP_PAGE);
    let remap = v.sys.xen.npt_map(
        &mut v.sys.plat,
        &mut *v.sys.guardian,
        v.victim,
        served_page,
        secret_frame,
        PTE_WRITABLE,
    );

    let rep = match remap {
        Err(e) => {
            // Fidelius vets every NPT write: remapping a populated GPA is
            // refused with a typed reason before the service can leak.
            let reason = e.denial();
            let detail = match reason {
                Some(r) => format!("remap refused: {}", r.as_str()),
                None => format!("remap refused: {e:?}"),
            };
            let rep = report(NAME, defense, AttackOutcome::Blocked, detail);
            emit_outcome(&v.sys, NAME, defense, &rep.outcome, reason);
            rep
        }
        Ok(()) => {
            // The guest dutifully serves "its" page: reads the remapped GPA
            // through its own mappings and writes it out to disk.
            let mut sector = vec![0u8; SECTOR_SIZE];
            v.sys.gpa_read(v.victim, served_gpa, &mut sector[..64], v.sev).expect("serve read");
            v.sys.disk_write(v.victim, 7, &sector).expect("serve write");
            v.sys.ensure_host().expect("host");
            let rep = if contains_secret(
                v.sys.xen.backend(v.victim).expect("victim's block device").disk(),
            ) {
                report(
                    NAME,
                    defense,
                    AttackOutcome::Succeeded,
                    "secret exfiltrated in plaintext through the guest's own I/O path",
                )
            } else {
                report(
                    NAME,
                    defense,
                    AttackOutcome::Blocked,
                    "remap landed but no plaintext left the guest",
                )
            };
            emit_outcome(&v.sys, NAME, defense, &rep.outcome, None);
            rep
        }
    };
    (v, rep)
}

// ----- 18. SEVurity: tweak-malleability ciphertext injection -----------------

fn atk_sevurity(defense: Defense) -> AttackReport {
    sevurity_run(defense).1
}

/// One-shot post-exit ciphertext splice, for the sealed-frame fallback.
#[derive(Debug)]
struct OneShotSplice(Option<FaultAction>);

impl FaultInjector for OneShotSplice {
    fn decide(&mut self, point: InjectPoint) -> Option<FaultAction> {
        if point == InjectPoint::PostExit {
            self.0.take()
        } else {
            None
        }
    }
}

pub(crate) fn sevurity_run(defense: Defense) -> (VictimSetup, AttackReport) {
    const NAME: &str = "sevurity-tweak-inject";
    let mut v = build_victim(defense).expect("victim");

    let src_frame = victim_frame(&v, gplayout::KERNEL_PAGE);
    let dst_frame = victim_frame(&v, gplayout::HEAP_PAGE);

    let rep = if !v.sev {
        // Degenerate case: without encryption the "malleability" is just a
        // direct write of fully chosen bytes.
        let chosen = *b"OWNED-BY-HV-0001";
        v.sys.plat.machine.host_write(direct_map(dst_frame), &chosen).expect("direct write");
        let mut got = [0u8; 16];
        v.sys.gpa_read(v.victim, SECRET_GPA, &mut got, false).expect("read back");
        let rep = if got == chosen {
            report(
                NAME,
                defense,
                AttackOutcome::Succeeded,
                "no encryption: hypervisor wrote fully chosen plaintext into the guest",
            )
        } else {
            report(NAME, defense, AttackOutcome::Blocked, "direct write did not land")
        };
        emit_outcome(&v.sys, NAME, defense, &rep.outcome, None);
        rep
    } else {
        // The hypervisor knows the plaintext of the kernel page: it loaded
        // the (zero-padded) image itself during the vanilla launch flow.
        let mut known = [0u8; 16];
        known[..13].copy_from_slice(b"victim kernel");

        // Both tweaks are public functions of the physical address.
        let t_src = PaTweakCipher::tweak_mask(src_frame.0);
        let t_dst = PaTweakCipher::tweak_mask(dst_frame.0);

        // Capture the known-plaintext ciphertext block (physical recorder),
        // then re-tweak it for the destination: C' = C ⊕ T(src) ⊕ T(dst).
        let mut ct = [0u8; 16];
        v.sys.plat.machine.mc.dram().read_raw(src_frame, &mut ct).expect("dram capture");
        let mut adjusted = [0u8; 16];
        let mut predicted = [0u8; 16];
        for i in 0..16 {
            adjusted[i] = ct[i] ^ t_src[i] ^ t_dst[i];
            predicted[i] = known[i] ^ t_src[i] ^ t_dst[i];
        }

        // The move SEV alone permits: a software write of attacker-chosen
        // bytes through the hypervisor's (unencrypted) direct map.
        match v.sys.plat.machine.host_write(direct_map(dst_frame), &adjusted) {
            Ok(()) => {
                let mut got = [0u8; 16];
                v.sys.gpa_read(v.victim, SECRET_GPA, &mut got, true).expect("guest read");
                v.sys.ensure_host().expect("host");
                let rep = if got == predicted {
                    report(
                        NAME,
                        defense,
                        AttackOutcome::Succeeded,
                        "tweak-adjusted ciphertext move decrypted to the attacker-predicted \
                         16-byte plaintext inside the guest",
                    )
                } else {
                    report(
                        NAME,
                        defense,
                        AttackOutcome::Blocked,
                        "injected block decrypted to garbage (tweak not recoverable)",
                    )
                };
                emit_outcome(&v.sys, NAME, defense, &rep.outcome, None);
                rep
            }
            Err(_) => {
                // Sealed frames have no hypervisor mapping, so the direct
                // write faults before any ciphertext lands. Drive the same
                // injection through the adversary hook to get the audited,
                // typed verdict for the matrix.
                v.sys.plat.machine.inject.install(Box::new(OneShotSplice(Some(
                    FaultAction::SpliceCiphertext { page_hint: 0 },
                ))));
                v.sys.ensure_guest(v.victim).expect("enter victim");
                v.sys.exit_and_handle(ExitCode::Hlt, 0, 0).expect("exit");
                v.sys.plat.machine.inject.clear();
                let reason = last_denial(&v.sys);
                let detail = match reason {
                    Some(r) => format!("ciphertext injection refused: {}", r.as_str()),
                    None => "direct write faulted (frame sealed)".to_string(),
                };
                let rep = report(NAME, defense, AttackOutcome::Blocked, detail);
                emit_outcome(&v.sys, NAME, defense, &rep.outcome, reason);
                rep
            }
        }
    };
    (v, rep)
}

// ----- 19. Attestation rollback ----------------------------------------------

fn atk_attestation_rollback(defense: Defense) -> AttackReport {
    rollback_run(defense).1
}

pub(crate) fn rollback_run(defense: Defense) -> (Option<System>, AttackReport) {
    const NAME: &str = "attestation-rollback";
    if defense == Defense::VanillaXen {
        return (
            None,
            report(NAME, defense, AttackOutcome::NotApplicable, "no attestation to roll back"),
        );
    }

    let mut sys = System::new_with_firmware(
        ATTACK_DRAM,
        0x0711_BACC,
        firmware_mode_for(defense),
        guardian_for(defense),
    )
    .expect("system");

    // The owner boots v1 of their kernel — once.
    let mut owner = GuestOwner::new(0x0077_04E2);
    let v1 = owner.package_image(b"victim kernel v1 (vulnerable)", &sys.plat.firmware.pdh_public());
    let first = boot_encrypted_guest(&mut sys, &v1, 192).expect("v1 boots once");
    sys.ensure_host().expect("host");

    // The owner has since shipped a patched v2. The hypervisor drops it on
    // the floor and replays the stale v1 session at the next launch: on
    // vanilla firmware the platform happily attests the old measurement as
    // fresh; the retrofit's consumed-nonce ledger refuses at RECEIVE_START.
    let _v2 =
        owner.package_image(b"victim kernel v2 (patched)   ", &sys.plat.firmware.pdh_public());
    let rep = match boot_encrypted_guest(&mut sys, &v1, 192) {
        Err(e) => {
            let reason = e.denial();
            let detail = match reason {
                Some(r) => format!("stale launch refused: {}", r.as_str()),
                None => format!("stale launch refused: {e:?}"),
            };
            let rep = report(NAME, defense, AttackOutcome::Blocked, detail);
            emit_outcome(&sys, NAME, defense, &rep.outcome, reason);
            rep
        }
        Ok(second) => {
            // The rolled-back (vulnerable) kernel runs again, attested as
            // current. Read its marker back to prove which one booted.
            let mut head = [0u8; 16];
            sys.gpa_read(second, Gpa(gplayout::KERNEL_PAGE * PAGE_SIZE), &mut head, true)
                .expect("read stale kernel");
            sys.ensure_host().expect("host");
            let rep = if &head == b"victim kernel v1" {
                report(
                    NAME,
                    defense,
                    AttackOutcome::Succeeded,
                    "stale measurement accepted: rolled-back kernel attested as fresh",
                )
            } else {
                report(
                    NAME,
                    defense,
                    AttackOutcome::Blocked,
                    "replay accepted but stale kernel absent",
                )
            };
            emit_outcome(&sys, NAME, defense, &rep.outcome, None);
            let _ = first;
            rep
        }
    };
    (Some(sys), rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    // These test names are the cross-link targets used by
    // docs/THREAT_MODEL.md — keep them in sync with the catalog.

    #[test]
    fn severed_exfiltrates_secret_on_vanilla_sev() {
        for d in [Defense::VanillaXen, Defense::XenSev, Defense::XenSevEs] {
            let (_v, rep) = severed_run(d);
            assert_eq!(rep.outcome, AttackOutcome::Succeeded, "{d:?}: {}", rep.detail);
        }
    }

    #[test]
    fn severed_blocked_with_typed_reason_under_fidelius() {
        let (v, rep) = severed_run(Defense::Fidelius);
        assert_eq!(rep.outcome, AttackOutcome::Blocked, "{}", rep.detail);
        assert!(
            rep.detail.contains(DenialReason::RemapPopulatedGpa.as_str()),
            "untyped detail: {}",
            rep.detail
        );
        assert!(v
            .sys
            .plat
            .machine
            .trace
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::Denial { reason: DenialReason::RemapPopulatedGpa })));
    }

    #[test]
    fn sevurity_injects_predicted_plaintext_on_vanilla_sev() {
        for d in [Defense::VanillaXen, Defense::XenSev, Defense::XenSevEs] {
            let (_v, rep) = sevurity_run(d);
            assert_eq!(rep.outcome, AttackOutcome::Succeeded, "{d:?}: {}", rep.detail);
        }
    }

    #[test]
    fn sevurity_blocked_with_typed_reason_under_fidelius() {
        let (v, rep) = sevurity_run(Defense::Fidelius);
        assert_eq!(rep.outcome, AttackOutcome::Blocked, "{}", rep.detail);
        assert!(
            rep.detail.contains(DenialReason::SealedFrameAccess.as_str()),
            "untyped detail: {}",
            rep.detail
        );
        assert!(v
            .sys
            .plat
            .machine
            .trace
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::Denial { reason: DenialReason::SealedFrameAccess })));
    }

    #[test]
    fn attestation_rollback_accepted_on_vanilla_sev() {
        for d in [Defense::XenSev, Defense::XenSevEs] {
            let (_s, rep) = rollback_run(d);
            assert_eq!(rep.outcome, AttackOutcome::Succeeded, "{d:?}: {}", rep.detail);
        }
    }

    #[test]
    fn attestation_rollback_blocked_with_typed_reason_under_fidelius() {
        let (s, rep) = rollback_run(Defense::Fidelius);
        assert_eq!(rep.outcome, AttackOutcome::Blocked, "{}", rep.detail);
        assert!(
            rep.detail.contains(DenialReason::LaunchMeasurementReplayed.as_str()),
            "untyped detail: {}",
            rep.detail
        );
        let sys = s.expect("system survives the refused replay");
        assert!(sys.plat.machine.trace.events().iter().any(|e| matches!(
            e.event,
            Event::Denial { reason: DenialReason::LaunchMeasurementReplayed }
        )));
    }

    #[test]
    fn attestation_rollback_not_applicable_without_attestation() {
        let (s, rep) = rollback_run(Defense::VanillaXen);
        assert!(s.is_none());
        assert_eq!(rep.outcome, AttackOutcome::NotApplicable);
    }

    #[test]
    fn successor_attacks_emit_outcome_events() {
        let (v, _rep) = severed_run(Defense::Fidelius);
        assert!(v.sys.plat.machine.trace.events().iter().any(|e| matches!(
            e.event,
            Event::AttackOutcome {
                attack: "severed-io-remap",
                defense: "Fidelius",
                outcome: "blocked",
                reason: Some(DenialReason::RemapPopulatedGpa),
            }
        )));
        let (v, _rep) = severed_run(Defense::XenSev);
        assert!(v.sys.plat.machine.trace.events().iter().any(|e| matches!(
            e.event,
            Event::AttackOutcome {
                attack: "severed-io-remap",
                defense: "Xen+SEV",
                outcome: "VULNERABLE",
                reason: None,
            }
        )));
    }

    #[test]
    fn successor_rows_are_in_the_matrix() {
        let names: Vec<&str> = crate::scenarios::all_attacks().iter().map(|a| a.name).collect();
        for n in ["severed-io-remap", "sevurity-tweak-inject", "attestation-rollback"] {
            assert!(names.contains(&n), "matrix is missing the {n} row");
        }
    }
}
