//! VMCB and register shadowing with exit-reason-based masking
//! (paper §4.2.1 / §5.1 — the "software version of SEV-ES").
//!
//! On every #VMEXIT Fidelius copies the VMCB and GPRs into private memory
//! (the *shadow*), then masks the in-memory VMCB and the live registers so
//! the hypervisor sees only the fields it needs for this exit reason.
//! Before VMRUN, the (possibly hypervisor-modified) VMCB is diffed against
//! the shadow: modifications outside the per-exit-reason *allowed set* are
//! integrity violations; allowed updates are validated (e.g. RIP may only
//! advance past the exited instruction) and merged; the registers are
//! overwritten from the shadow.

use fidelius_hw::regs::Gpr;
use fidelius_hw::vmcb::{ExitCode, VmcbField, VmcbImage, ALL_FIELDS};

/// Per-exit-reason visibility and writability policy: four static
/// tables and an instruction length.
#[derive(Debug, Clone, Copy)]
pub struct ExitPolicy {
    /// VMCB fields left visible (unmasked) to the hypervisor.
    pub visible_fields: &'static [VmcbField],
    /// VMCB fields the hypervisor may legitimately update before re-entry.
    pub writable_fields: &'static [VmcbField],
    /// GPRs left visible.
    pub visible_gprs: &'static [Gpr],
    /// GPRs whose hypervisor-written values are merged back into the guest.
    pub writable_gprs: &'static [Gpr],
    /// Instruction length for the RIP-advance check (0 = RIP not
    /// writable).
    pub insn_len: u64,
}

/// What an emulated instruction's exit shows: the control fields (the
/// hypervisor legitimately reads them, but may never write them behind
/// Fidelius's back), the exit code and info fields, and the RIP and RAX
/// the instruction updates.
const INSN_VISIBLE: &[VmcbField] = &[
    VmcbField::Intercepts,
    VmcbField::Asid,
    VmcbField::NpEnable,
    VmcbField::NCr3,
    VmcbField::SevEnable,
    VmcbField::ExitCode,
    VmcbField::ExitInfo1,
    VmcbField::ExitInfo2,
    VmcbField::Rip,
    VmcbField::Rax,
];

/// What every exit shows: [`INSN_VISIBLE`] without RIP and RAX.
const BASE_VISIBLE: &[VmcbField] = INSN_VISIBLE.split_at(8).0;

/// An exit that hides all guest state and lets nothing be written.
const SEALED: ExitPolicy = ExitPolicy {
    visible_fields: BASE_VISIBLE,
    writable_fields: &[],
    visible_gprs: &[],
    writable_gprs: &[],
    insn_len: 0,
};

/// Returns the masking/verification policy for an exit reason, following
/// §5.1: e.g. for CPUID "all states are masked except for specific four
/// registers" and "only those four registers can be updated by the
/// hypervisor"; for a nested page fault "mask all guest states since the
/// fault address used by hypervisor is in the exitinfo field".
pub const fn policy_for(exit: ExitCode) -> ExitPolicy {
    match exit {
        ExitCode::Cpuid => ExitPolicy {
            visible_fields: INSN_VISIBLE,
            writable_fields: &[VmcbField::Rip, VmcbField::Rax],
            visible_gprs: &[Gpr::Rax, Gpr::Rbx, Gpr::Rcx, Gpr::Rdx],
            writable_gprs: &[Gpr::Rax, Gpr::Rbx, Gpr::Rcx, Gpr::Rdx],
            insn_len: 2,
        },
        ExitCode::Vmmcall => ExitPolicy {
            visible_fields: INSN_VISIBLE,
            writable_fields: &[VmcbField::Rip, VmcbField::Rax],
            visible_gprs: &[Gpr::Rax, Gpr::Rdi, Gpr::Rsi, Gpr::Rdx, Gpr::R10],
            writable_gprs: &[Gpr::Rax],
            insn_len: 3,
        },
        // All guest state masked; the fault address is in exitinfo. Xen's
        // HLT handler writes nothing back, so HLT is sealed too: a
        // writable RIP the hypervisor cannot see would only answer its
        // guesses at RIP.
        ExitCode::NestedPageFault | ExitCode::Intr | ExitCode::Shutdown | ExitCode::Hlt => SEALED,
        ExitCode::Msr => ExitPolicy {
            visible_fields: INSN_VISIBLE,
            writable_fields: &[VmcbField::Rip, VmcbField::Rax],
            visible_gprs: &[Gpr::Rax, Gpr::Rcx, Gpr::Rdx],
            writable_gprs: &[Gpr::Rax, Gpr::Rdx],
            insn_len: 2,
        },
        ExitCode::IoPort => ExitPolicy {
            visible_fields: INSN_VISIBLE,
            writable_fields: &[VmcbField::Rip, VmcbField::Rax],
            visible_gprs: &[Gpr::Rax, Gpr::Rdx],
            writable_gprs: &[Gpr::Rax],
            insn_len: 2,
        },
    }
}

/// The private shadow of one domain's guest state.
#[derive(Debug, Clone)]
pub struct ShadowCtx {
    /// Full VMCB as the guest left it.
    pub vmcb: VmcbImage,
    /// Full GPRs as the guest left them.
    pub gprs: [u64; 16],
    /// The exit reason that produced this shadow.
    pub exit: ExitCode,
}

/// The outcome of verifying a VMCB against its shadow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// No illegal modification; the merged image to run is returned.
    Clean(VmcbImage),
    /// A field outside the allowed set was modified.
    IllegalField(VmcbField),
    /// RIP was updated to something other than "advance past the exited
    /// instruction".
    BadRipAdvance {
        /// RIP in the shadow.
        expected: u64,
        /// RIP the hypervisor wrote.
        got: u64,
    },
}

impl ShadowCtx {
    /// Captures a shadow (the exit-side half).
    pub fn capture(vmcb: VmcbImage, gprs: [u64; 16], exit: ExitCode) -> Self {
        ShadowCtx { vmcb, gprs, exit }
    }

    /// Produces the masked VMCB image that the hypervisor is allowed to
    /// see for this exit reason.
    pub fn masked_vmcb(&self) -> VmcbImage {
        let pol = policy_for(self.exit);
        let mut img = self.vmcb;
        img.mask_except(pol.visible_fields);
        img
    }

    /// Produces the masked register file visible to the hypervisor.
    pub fn masked_gprs(&self) -> [u64; 16] {
        let pol = policy_for(self.exit);
        let mut out = [0u64; 16];
        for &g in pol.visible_gprs {
            out[g as usize] = self.gprs[g as usize];
        }
        out
    }

    /// Verifies the VMCB the hypervisor hands back and, if legal, merges
    /// the allowed updates into the shadow to produce the image to run.
    ///
    /// `current` is the in-memory VMCB after the hypervisor handled the
    /// exit; it is diffed against the *masked* image the hypervisor was
    /// given.
    pub fn verify_and_merge(&self, current: &VmcbImage) -> Verdict {
        let pol = policy_for(self.exit);
        let baseline = self.masked_vmcb();
        let mut merged = self.vmcb;
        for f in ALL_FIELDS {
            let new = current.get(f);
            if new == baseline.get(f) {
                continue; // untouched
            }
            if !pol.writable_fields.contains(&f) {
                return Verdict::IllegalField(f);
            }
            if f == VmcbField::Rip {
                let expected = self.vmcb.get(VmcbField::Rip) + pol.insn_len;
                if pol.insn_len == 0 || new != expected {
                    return Verdict::BadRipAdvance { expected, got: new };
                }
            }
            merged.set(f, new);
        }
        Verdict::Clean(merged)
    }

    /// The register file to hand back to the guest: the shadow, with the
    /// hypervisor's values merged for the exit reason's writable GPRs.
    pub fn merged_gprs(&self, hypervisor_regs: &[u64; 16]) -> [u64; 16] {
        let pol = policy_for(self.exit);
        let mut out = self.gprs;
        for &g in pol.writable_gprs {
            out[g as usize] = hypervisor_regs[g as usize];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_vmcb() -> VmcbImage {
        let mut v = VmcbImage::new();
        v.set(VmcbField::Rip, 0x1000)
            .set(VmcbField::Rax, 7)
            .set(VmcbField::Cr3, 0x8000)
            .set(VmcbField::Asid, 3)
            .set(VmcbField::ExitCode, ExitCode::Vmmcall as u64);
        v
    }

    fn gprs_with(vals: &[(Gpr, u64)]) -> [u64; 16] {
        let mut g = [0u64; 16];
        for (r, v) in vals {
            g[*r as usize] = *v;
        }
        g
    }

    #[test]
    fn masking_hides_secret_state() {
        let sh = ShadowCtx::capture(
            sample_vmcb(),
            gprs_with(&[(Gpr::Rbx, 0x5EC), (Gpr::Rax, 1)]),
            ExitCode::NestedPageFault,
        );
        let masked = sh.masked_vmcb();
        assert_eq!(masked.get(VmcbField::Rip), 0, "guest RIP hidden on NPF");
        assert_eq!(masked.get(VmcbField::Cr3), 0, "guest CR3 hidden");
        assert_eq!(masked.get(VmcbField::Asid), 3, "control fields visible");
        let regs = sh.masked_gprs();
        assert_eq!(regs[Gpr::Rbx as usize], 0, "all GPRs hidden on NPF");
    }

    #[test]
    fn vmmcall_exposes_hypercall_abi_only() {
        let sh = ShadowCtx::capture(
            sample_vmcb(),
            gprs_with(&[(Gpr::Rax, 2), (Gpr::Rdi, 11), (Gpr::Rbx, 0x5EC)]),
            ExitCode::Vmmcall,
        );
        let regs = sh.masked_gprs();
        assert_eq!(regs[Gpr::Rax as usize], 2);
        assert_eq!(regs[Gpr::Rdi as usize], 11);
        assert_eq!(regs[Gpr::Rbx as usize], 0, "non-ABI register hidden");
    }

    #[test]
    fn untouched_vmcb_verifies_clean() {
        let sh = ShadowCtx::capture(sample_vmcb(), [0; 16], ExitCode::Vmmcall);
        let handed = sh.masked_vmcb();
        match sh.verify_and_merge(&handed) {
            Verdict::Clean(m) => {
                // The merged image restores the hidden fields.
                assert_eq!(m.get(VmcbField::Cr3), 0x8000);
                assert_eq!(m.get(VmcbField::Rip), 0x1000);
            }
            v => panic!("expected clean, got {v:?}"),
        }
    }

    #[test]
    fn legal_rip_advance_is_merged() {
        let sh = ShadowCtx::capture(sample_vmcb(), [0; 16], ExitCode::Vmmcall);
        let mut handed = sh.masked_vmcb();
        handed.set(VmcbField::Rip, 0x1003); // +3 = VMMCALL length
        handed.set(VmcbField::Rax, 0xFF); // return value
        match sh.verify_and_merge(&handed) {
            Verdict::Clean(m) => {
                assert_eq!(m.get(VmcbField::Rip), 0x1003);
                assert_eq!(m.get(VmcbField::Rax), 0xFF);
                assert_eq!(m.get(VmcbField::Cr3), 0x8000, "hidden fields restored");
            }
            v => panic!("expected clean, got {v:?}"),
        }
    }

    #[test]
    fn bad_rip_jump_is_rejected() {
        let sh = ShadowCtx::capture(sample_vmcb(), [0; 16], ExitCode::Vmmcall);
        let mut handed = sh.masked_vmcb();
        handed.set(VmcbField::Rip, 0xDEAD_0000); // divert guest control flow
        assert!(matches!(sh.verify_and_merge(&handed), Verdict::BadRipAdvance { .. }));
    }

    #[test]
    fn cr3_tamper_is_rejected() {
        let sh = ShadowCtx::capture(sample_vmcb(), [0; 16], ExitCode::Vmmcall);
        let mut handed = sh.masked_vmcb();
        handed.set(VmcbField::Cr3, 0x6666_0000); // point guest at attacker tables
        assert_eq!(sh.verify_and_merge(&handed), Verdict::IllegalField(VmcbField::Cr3));
    }

    #[test]
    fn asid_tamper_is_rejected() {
        // The key-sharing abuse: run the guest under another ASID.
        let sh = ShadowCtx::capture(sample_vmcb(), [0; 16], ExitCode::NestedPageFault);
        let mut handed = sh.masked_vmcb();
        handed.set(VmcbField::Asid, 9);
        assert_eq!(sh.verify_and_merge(&handed), Verdict::IllegalField(VmcbField::Asid));
    }

    #[test]
    fn sev_disable_is_rejected() {
        // The "disable protection completely" attack from §2.2.
        let mut vmcb = sample_vmcb();
        vmcb.set(VmcbField::SevEnable, 1);
        let sh = ShadowCtx::capture(vmcb, [0; 16], ExitCode::Hlt);
        let mut handed = sh.masked_vmcb();
        handed.set(VmcbField::SevEnable, 0);
        assert_eq!(sh.verify_and_merge(&handed), Verdict::IllegalField(VmcbField::SevEnable));
    }

    #[test]
    fn gpr_merge_takes_only_allowed() {
        let sh = ShadowCtx::capture(
            sample_vmcb(),
            gprs_with(&[(Gpr::Rbx, 0x111), (Gpr::Rax, 0x222)]),
            ExitCode::Vmmcall,
        );
        let hv = gprs_with(&[(Gpr::Rax, 0x999), (Gpr::Rbx, 0x666)]);
        let merged = sh.merged_gprs(&hv);
        assert_eq!(merged[Gpr::Rax as usize], 0x999, "hypercall return merged");
        assert_eq!(merged[Gpr::Rbx as usize], 0x111, "other registers restored");
    }

    #[test]
    fn exit_policy_table_row_by_row() {
        use Gpr as G;
        use VmcbField as F;
        // The five control fields and three exit-info fields every exit
        // shows, then each exit's own extras.
        const BASE: &[F] = &[
            F::Intercepts,
            F::Asid,
            F::NpEnable,
            F::NCr3,
            F::SevEnable,
            F::ExitCode,
            F::ExitInfo1,
            F::ExitInfo2,
        ];
        const BASE_RIP_RAX: &[F] = &[
            F::Intercepts,
            F::Asid,
            F::NpEnable,
            F::NCr3,
            F::SevEnable,
            F::ExitCode,
            F::ExitInfo1,
            F::ExitInfo2,
            F::Rip,
            F::Rax,
        ];
        // (exit, visible fields, writable fields, visible GPRs, writable GPRs, insn_len)
        type Row = (ExitCode, &'static [F], &'static [F], &'static [G], &'static [G], u64);
        let rows: [Row; 8] = [
            (
                ExitCode::Cpuid,
                BASE_RIP_RAX,
                &[F::Rip, F::Rax],
                &[G::Rax, G::Rbx, G::Rcx, G::Rdx],
                &[G::Rax, G::Rbx, G::Rcx, G::Rdx],
                2,
            ),
            (
                ExitCode::Vmmcall,
                BASE_RIP_RAX,
                &[F::Rip, F::Rax],
                &[G::Rax, G::Rdi, G::Rsi, G::Rdx, G::R10],
                &[G::Rax],
                3,
            ),
            (ExitCode::NestedPageFault, BASE, &[], &[], &[], 0),
            (ExitCode::Hlt, BASE, &[], &[], &[], 0),
            (ExitCode::Intr, BASE, &[], &[], &[], 0),
            (ExitCode::Shutdown, BASE, &[], &[], &[], 0),
            (
                ExitCode::Msr,
                BASE_RIP_RAX,
                &[F::Rip, F::Rax],
                &[G::Rax, G::Rcx, G::Rdx],
                &[G::Rax, G::Rdx],
                2,
            ),
            (ExitCode::IoPort, BASE_RIP_RAX, &[F::Rip, F::Rax], &[G::Rax, G::Rdx], &[G::Rax], 2),
        ];
        for (exit, visible, writable, vgprs, wgprs, insn_len) in rows {
            let pol = policy_for(exit);
            assert_eq!(pol.visible_fields, visible, "{exit:?} visible fields");
            assert_eq!(pol.writable_fields, writable, "{exit:?} writable fields");
            assert_eq!(pol.visible_gprs, vgprs, "{exit:?} visible GPRs");
            assert_eq!(pol.writable_gprs, wgprs, "{exit:?} writable GPRs");
            assert_eq!(pol.insn_len, insn_len, "{exit:?} instruction length");
            for f in BASE {
                assert!(pol.visible_fields.contains(f), "{exit:?} hides {f:?}");
            }
            for f in pol.writable_fields.iter() {
                assert!(pol.visible_fields.contains(f), "{exit:?} writes hidden {f:?}");
            }
            for g in pol.writable_gprs.iter() {
                assert!(pol.visible_gprs.contains(g), "{exit:?} writes hidden {g:?}");
            }
            // RIP is writable exactly when there is an instruction to skip.
            assert_eq!(pol.writable_fields.contains(&F::Rip), insn_len != 0, "{exit:?} RIP");
        }
    }

    #[test]
    fn npf_allows_no_writes_at_all() {
        let sh = ShadowCtx::capture(sample_vmcb(), [0; 16], ExitCode::NestedPageFault);
        let mut handed = sh.masked_vmcb();
        handed.set(VmcbField::Rip, 0x1002);
        assert!(matches!(sh.verify_and_merge(&handed), Verdict::IllegalField(VmcbField::Rip)));
    }
}
