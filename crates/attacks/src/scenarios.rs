//! The attack scenarios and the four-way comparison matrix (§6).

use crate::defense::{build_victim, contains_secret, Defense, VictimSetup, SECRET, SECRET_GPA};
use fidelius_hw::cpu::PrivOp;
use fidelius_hw::memctrl::EncSel;
use fidelius_hw::paging::{Mapper, PhysPtAccess, Pte, PTE_NX, PTE_PRESENT, PTE_WRITABLE};
use fidelius_hw::regs::Gpr;
use fidelius_hw::vmcb::{ExitCode, VmcbField, VmcbImage};
use fidelius_hw::{Gpa, Hpa, PAGE_SIZE};
use fidelius_xen::frontend::{gplayout, IoPath};
use fidelius_xen::hypercall::{GrantOp, HC_GRANT_TABLE_OP, HC_PRE_SHARING_OP, HC_VOID};
use fidelius_xen::layout::{direct_map, XEN_DATA_BASE};

/// Outcome of one attack run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The attack achieved its goal (data leaked / integrity broken /
    /// control gained).
    Succeeded,
    /// The attack was stopped (fault, policy rejection, or the data was
    /// cryptographically useless).
    Blocked,
    /// The scenario does not apply to this configuration.
    NotApplicable,
}

impl AttackOutcome {
    /// Short cell label for the matrix.
    pub fn label(&self) -> &'static str {
        match self {
            AttackOutcome::Succeeded => "VULNERABLE",
            AttackOutcome::Blocked => "blocked",
            AttackOutcome::NotApplicable => "n/a",
        }
    }
}

/// One attack run's result.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Attack name.
    pub attack: &'static str,
    /// Defense configuration it ran against.
    pub defense: Defense,
    /// What happened.
    pub outcome: AttackOutcome,
    /// Human-readable detail.
    pub detail: String,
}

/// An attack scenario.
#[derive(Clone, Copy)]
pub struct Attack {
    /// Short name (matrix row).
    pub name: &'static str,
    /// What the attacker does and wants.
    pub description: &'static str,
    /// Runs the attack against a fresh victim under `defense`.
    pub run: fn(Defense) -> AttackReport,
}

impl std::fmt::Debug for Attack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Attack").field("name", &self.name).finish()
    }
}

pub(crate) fn report(
    attack: &'static str,
    defense: Defense,
    outcome: AttackOutcome,
    detail: impl Into<String>,
) -> AttackReport {
    AttackReport { attack, defense, outcome, detail: detail.into() }
}

/// Read-only raw page-walk (the attacker can read mapped structures; this
/// is address discovery, not the exploit itself).
fn raw_leaf_entry(v: &mut VictimSetup, root: Hpa, va: u64) -> Option<Hpa> {
    let mapper = Mapper::from_root(root);
    let mut acc = PhysPtAccess::new(&mut v.sys.plat.machine.mc, EncSel::None);
    mapper.leaf_entry_pa(&mut acc, va).ok().flatten()
}

pub(crate) fn victim_frame(v: &VictimSetup, gpa_page: u64) -> Hpa {
    v.sys.xen.domain(v.victim).expect("victim exists").frame_of(gpa_page).expect("populated")
}

/// Puts the victim in guest mode with marker state, then exits, leaving
/// the hypervisor looking at whatever the boundary exposes.
fn run_victim_and_exit(v: &mut VictimSetup) {
    v.sys.ensure_guest(v.victim).expect("enter victim");
    v.sys.plat.machine.cpu.regs.set(Gpr::Rbx, 0x5EC_12E7);
    v.sys.plat.machine.cpu.rip = 0x1234;
    v.sys.exit_and_handle(ExitCode::Hlt, 0, 0).expect("exit");
}

// ----- 1. VMCB confidentiality ---------------------------------------------

fn atk_vmcb_read(defense: Defense) -> AttackReport {
    const NAME: &str = "vmcb-read";
    let mut v = build_victim(defense).expect("victim");
    run_victim_and_exit(&mut v);
    let vmcb_pa = v.sys.xen.domain(v.victim).unwrap().vmcb_pa;
    let img = VmcbImage::load(&v.sys.plat.machine.mc, vmcb_pa).unwrap();
    if img.get(VmcbField::Rip) == 0x1234 {
        report(NAME, defense, AttackOutcome::Succeeded, "guest RIP readable from VMCB")
    } else {
        report(NAME, defense, AttackOutcome::Blocked, "VMCB guest state masked")
    }
}

// ----- 2. Register confidentiality -------------------------------------------

fn atk_register_steal(defense: Defense) -> AttackReport {
    const NAME: &str = "register-steal";
    let mut v = build_victim(defense).expect("victim");
    run_victim_and_exit(&mut v);
    if v.sys.plat.machine.cpu.regs.get(Gpr::Rbx) == 0x5EC_12E7 {
        report(NAME, defense, AttackOutcome::Succeeded, "guest RBX visible after #VMEXIT")
    } else {
        report(NAME, defense, AttackOutcome::Blocked, "registers masked at the boundary")
    }
}

// ----- 3. VMCB integrity: divert guest RIP -----------------------------------

fn atk_vmcb_tamper_rip(defense: Defense) -> AttackReport {
    const NAME: &str = "vmcb-tamper-rip";
    let mut v = build_victim(defense).expect("victim");
    run_victim_and_exit(&mut v);
    let vmcb_pa = v.sys.xen.domain(v.victim).unwrap().vmcb_pa;
    v.sys
        .plat
        .machine
        .host_write_u64(direct_map(vmcb_pa.add(8 * VmcbField::Rip as u64)), 0xDEAD_0000)
        .expect("VMCB page is hypervisor-writable in all configs");
    match v.sys.enter(v.victim) {
        Ok(()) if v.sys.plat.machine.cpu.rip == 0xDEAD_0000 => {
            report(NAME, defense, AttackOutcome::Succeeded, "guest resumed at attacker RIP")
        }
        Ok(()) => report(NAME, defense, AttackOutcome::Blocked, "RIP restored from shadow"),
        Err(e) => report(NAME, defense, AttackOutcome::Blocked, format!("entry refused: {e}")),
    }
}

// ----- 4. Disable SEV through the VMCB ----------------------------------------

fn atk_sev_disable(defense: Defense) -> AttackReport {
    const NAME: &str = "sev-bit-clear";
    if defense == Defense::VanillaXen {
        return report(NAME, defense, AttackOutcome::NotApplicable, "no SEV to disable");
    }
    let mut v = build_victim(defense).expect("victim");
    run_victim_and_exit(&mut v);
    let vmcb_pa = v.sys.xen.domain(v.victim).unwrap().vmcb_pa;
    v.sys
        .plat
        .machine
        .host_write_u64(direct_map(vmcb_pa.add(8 * VmcbField::SevEnable as u64)), 0)
        .expect("VMCB page writable");
    match v.sys.enter(v.victim) {
        Err(e) => report(NAME, defense, AttackOutcome::Blocked, format!("entry refused: {e}")),
        Ok(()) => {
            // The guest now runs unencrypted: anything it writes lands in
            // plaintext for the hypervisor to scoop up.
            let probe = Gpa((gplayout::HEAP_PAGE + 3) * PAGE_SIZE);
            match v.sys.plat.machine.guest_write_gpa(probe, SECRET, true) {
                Ok(()) => {
                    let frame = victim_frame(&v, gplayout::HEAP_PAGE + 3);
                    let mut raw = [0u8; 24];
                    v.sys.plat.machine.mc.dram().read_raw(frame, &mut raw).unwrap();
                    if &raw == SECRET {
                        report(
                            NAME,
                            defense,
                            AttackOutcome::Succeeded,
                            "SEV disabled; guest writes land in plaintext",
                        )
                    } else {
                        report(NAME, defense, AttackOutcome::Blocked, "still encrypted")
                    }
                }
                Err(e) => report(NAME, defense, AttackOutcome::Blocked, format!("{e}")),
            }
        }
    }
}

// ----- 5. Read guest memory through the direct map ----------------------------

fn atk_direct_map_read(defense: Defense) -> AttackReport {
    const NAME: &str = "direct-map-read";
    let mut v = build_victim(defense).expect("victim");
    let frame = victim_frame(&v, gplayout::HEAP_PAGE);
    let mut buf = [0u8; 24];
    match v.sys.plat.machine.host_read(direct_map(frame), &mut buf) {
        Err(e) => report(NAME, defense, AttackOutcome::Blocked, format!("unmapped: {e}")),
        Ok(()) if &buf == SECRET => {
            report(NAME, defense, AttackOutcome::Succeeded, "secret read via direct map")
        }
        Ok(()) => report(NAME, defense, AttackOutcome::Blocked, "only ciphertext visible"),
    }
}

// ----- 6. Remap guest memory into the hypervisor's own tables -----------------

fn atk_host_pt_remap(defense: Defense) -> AttackReport {
    const NAME: &str = "host-pt-remap";
    let mut v = build_victim(defense).expect("victim");
    let frame = victim_frame(&v, gplayout::HEAP_PAGE);
    let root = v.sys.xen.host_pt_root;
    let Some(entry_pa) = raw_leaf_entry(&mut v, root, XEN_DATA_BASE.0) else {
        return report(NAME, defense, AttackOutcome::Blocked, "no leaf entry found");
    };
    let rogue = Pte::new(frame, PTE_PRESENT | PTE_WRITABLE | PTE_NX).0;
    match v.sys.plat.machine.host_write_u64(direct_map(entry_pa), rogue) {
        Err(e) => {
            report(NAME, defense, AttackOutcome::Blocked, format!("page tables protected: {e}"))
        }
        Ok(()) => {
            let mut buf = [0u8; 24];
            v.sys.plat.machine.host_read(XEN_DATA_BASE, &mut buf).expect("mapped");
            if &buf == SECRET {
                report(NAME, defense, AttackOutcome::Succeeded, "secret read via rogue mapping")
            } else {
                report(NAME, defense, AttackOutcome::Blocked, "rogue mapping sees ciphertext")
            }
        }
    }
}

// ----- 7. The NPT/memory replay attack -----------------------------------------

fn atk_replay(defense: Defense) -> AttackReport {
    const NAME: &str = "memory-replay";
    let mut v = build_victim(defense).expect("victim");
    let pw_gpa = Gpa((gplayout::HEAP_PAGE + 1) * PAGE_SIZE);
    let sev = v.sev;
    v.sys.gpa_write(v.victim, pw_gpa, b"password=OLDOLD!", sev).unwrap();
    v.sys.ensure_host().unwrap();
    let frame = victim_frame(&v, gplayout::HEAP_PAGE + 1);
    // Snapshot whatever the hypervisor can see of the page (ciphertext
    // under SEV — that is enough for an in-place replay).
    let mut snapshot = [0u8; 16];
    if let Err(e) = v.sys.plat.machine.host_read(direct_map(frame), &mut snapshot) {
        return report(NAME, defense, AttackOutcome::Blocked, format!("cannot snapshot: {e}"));
    }
    // The victim rotates its password.
    v.sys.gpa_write(v.victim, pw_gpa, b"password=NEWNEW!", sev).unwrap();
    v.sys.ensure_host().unwrap();
    // Replay the stale bytes in place.
    if let Err(e) = v.sys.plat.machine.host_write(direct_map(frame), &snapshot) {
        return report(NAME, defense, AttackOutcome::Blocked, format!("cannot replay: {e}"));
    }
    let mut now = [0u8; 16];
    v.sys.gpa_read(v.victim, pw_gpa, &mut now, sev).unwrap();
    if &now == b"password=OLDOLD!" {
        report(NAME, defense, AttackOutcome::Succeeded, "stale password replayed in place")
    } else {
        report(NAME, defense, AttackOutcome::Blocked, "replay did not restore old plaintext")
    }
}

// ----- 8. Collusive VM + ASID abuse ---------------------------------------------

fn atk_collusive_asid(defense: Defense) -> AttackReport {
    const NAME: &str = "collusive-asid-remap";
    let mut v = build_victim(defense).expect("victim");
    let victim_frame = victim_frame(&v, gplayout::HEAP_PAGE);
    let victim_asid = v.sys.xen.domain(v.victim).unwrap().asid;
    // The hypervisor builds a fresh "attacker" domain shell.
    let attacker = v
        .sys
        .xen
        .create_domain(&mut v.sys.plat, &mut *v.sys.guardian, 16)
        .expect("create attacker shell");
    let npt_root = v.sys.xen.domain(attacker).unwrap().npt_root;
    // Map the victim's frame at attacker GPA 0 by writing the attacker's
    // NPT directly (allocating intermediate tables from the heap).
    let mut table = npt_root;
    let mut raw_fail = None;
    for level in (1..=3u8).rev() {
        let entry_pa = table.add(fidelius_hw::paging::table_index(0, level) * 8);
        let new_table = v.sys.xen.heap.alloc().expect("heap");
        let zero = [0u8; PAGE_SIZE as usize];
        if let Err(e) = v.sys.plat.machine.host_write(direct_map(new_table), &zero) {
            raw_fail = Some(format!("{e}"));
            break;
        }
        let pte = Pte::new(new_table, PTE_PRESENT | PTE_WRITABLE).0;
        if let Err(e) = v.sys.plat.machine.host_write_u64(direct_map(entry_pa), pte) {
            raw_fail = Some(format!("{e}"));
            break;
        }
        table = new_table;
    }
    if let Some(e) = raw_fail {
        return report(NAME, defense, AttackOutcome::Blocked, format!("NPT protected: {e}"));
    }
    let leaf_pa = table.add(0);
    if let Err(e) = v
        .sys
        .plat
        .machine
        .host_write_u64(direct_map(leaf_pa), Pte::new(victim_frame, PTE_PRESENT | PTE_WRITABLE).0)
    {
        return report(NAME, defense, AttackOutcome::Blocked, format!("NPT protected: {e}"));
    }
    // Give the attacker VMCB the *victim's* ASID (the firmware installed
    // the victim's key for it) and run it.
    let sev = v.sev;
    v.sys.xen.init_vmcb(&mut v.sys.plat, attacker, Gpa(0), 0, sev).expect("vmcb init");
    let vmcb_pa = v.sys.xen.domain(attacker).unwrap().vmcb_pa;
    v.sys
        .plat
        .machine
        .host_write_u64(
            direct_map(vmcb_pa.add(8 * VmcbField::Asid as u64)),
            u64::from(victim_asid.0),
        )
        .expect("VMCB writable");
    match v.sys.enter(attacker) {
        Err(e) => report(NAME, defense, AttackOutcome::Blocked, format!("entry refused: {e}")),
        Ok(()) => {
            let mut buf = [0u8; 24];
            match v.sys.plat.machine.guest_read_gpa(Gpa(SECRET_GPA.page_offset()), &mut buf, sev) {
                Ok(()) if &buf == SECRET => report(
                    NAME,
                    defense,
                    AttackOutcome::Succeeded,
                    "collusive VM read victim plaintext via shared ASID",
                ),
                Ok(()) => report(NAME, defense, AttackOutcome::Blocked, "wrong-key garbage"),
                Err(e) => report(NAME, defense, AttackOutcome::Blocked, format!("{e}")),
            }
        }
    }
}

// ----- 9. Grant permission escalation -------------------------------------------

fn atk_grant_escalation(defense: Defense) -> AttackReport {
    const NAME: &str = "grant-escalation";
    let mut v = build_victim(defense).expect("victim");
    let page = gplayout::HEAP_PAGE + 2;
    let sev = v.sev;
    v.sys.gpa_write(v.victim, Gpa(page * PAGE_SIZE), b"read-only shared data...", false).unwrap();
    // Victim shares read-only with dom0 (pre_sharing first for Fidelius).
    let _ = v.sys.hypercall(v.victim, HC_PRE_SHARING_OP, [0, page, 1, 0]).unwrap();
    let r = v
        .sys
        .hypercall(v.victim, HC_GRANT_TABLE_OP, [GrantOp::GrantAccess as u64, 0, page, 0])
        .unwrap();
    v.sys.ensure_host().unwrap();
    if r >= fidelius_xen::grants::GRANT_TABLE_ENTRIES {
        return report(NAME, defense, AttackOutcome::Blocked, "grant itself rejected");
    }
    // The hypervisor flips the writable bit in the grant entry.
    let entry_pa = v.sys.xen.grant_table_pa.add(r * fidelius_xen::grants::GRANT_ENTRY_SIZE);
    let word0 = v.sys.plat.machine.host_read_u64(direct_map(entry_pa)).unwrap();
    if let Err(e) = v.sys.plat.machine.host_write_u64(direct_map(entry_pa), word0 | 2) {
        return report(
            NAME,
            defense,
            AttackOutcome::Blocked,
            format!("grant table protected: {e}"),
        );
    }
    // dom0 now "legitimately" writes through the escalated grant.
    let frame = victim_frame(&v, page);
    if v.sys.plat.machine.host_write(direct_map(frame), b"OVERWRITTEN BY DOM0!!!").is_err() {
        return report(NAME, defense, AttackOutcome::Blocked, "shared frame not writable");
    }
    let mut now = [0u8; 22];
    v.sys.gpa_read(v.victim, Gpa(page * PAGE_SIZE), &mut now, false).unwrap();
    let _ = sev;
    if &now == b"OVERWRITTEN BY DOM0!!!" {
        report(NAME, defense, AttackOutcome::Succeeded, "read-only share was overwritten")
    } else {
        report(NAME, defense, AttackOutcome::Blocked, "victim data intact")
    }
}

// ----- 10. Grant fabrication ------------------------------------------------------

fn atk_grant_fabrication(defense: Defense) -> AttackReport {
    const NAME: &str = "grant-fabrication";
    let mut v = build_victim(defense).expect("victim");
    let frame = victim_frame(&v, gplayout::HEAP_PAGE);
    // The hypervisor fabricates a grant entry: "the victim shares its
    // secret page with dom0" — no guest ever asked for that.
    let entry = fidelius_xen::grants::GrantEntry {
        valid: true,
        writable: false,
        owner: v.victim.0,
        grantee: 0,
        gpa_page: gplayout::HEAP_PAGE,
        frame,
    };
    let base = v.sys.xen.grant_table_pa.add(7 * fidelius_xen::grants::GRANT_ENTRY_SIZE);
    for (i, w) in entry.to_words().iter().enumerate() {
        if let Err(e) = v.sys.plat.machine.host_write_u64(direct_map(base.add(8 * i as u64)), *w) {
            return report(
                NAME,
                defense,
                AttackOutcome::Blocked,
                format!("grant table protected: {e}"),
            );
        }
    }
    // dom0 "maps" the fabricated grant and reads.
    let mut buf = [0u8; 24];
    match v.sys.plat.machine.host_read(direct_map(frame), &mut buf) {
        Ok(()) if &buf == SECRET => {
            report(NAME, defense, AttackOutcome::Succeeded, "fabricated grant leaked plaintext")
        }
        Ok(()) => {
            report(NAME, defense, AttackOutcome::Blocked, "only ciphertext via fabricated grant")
        }
        Err(e) => report(NAME, defense, AttackOutcome::Blocked, format!("{e}")),
    }
}

// ----- 11. Rogue VMRUN ---------------------------------------------------------------

fn atk_rogue_vmrun(defense: Defense) -> AttackReport {
    const NAME: &str = "rogue-vmrun";
    let mut v = build_victim(defense).expect("victim");
    // Forge a VMCB impersonating the victim.
    let forged = v.sys.xen.heap.alloc().expect("heap");
    let victim_dom = v.sys.xen.domain(v.victim).unwrap();
    let mut img = VmcbImage::new();
    img.set(VmcbField::Asid, u64::from(victim_dom.asid.0))
        .set(VmcbField::SevEnable, u64::from(v.sev))
        .set(VmcbField::NCr3, victim_dom.npt_root.0)
        .set(VmcbField::Rip, 0x1000);
    img.store(&mut v.sys.plat.machine.mc, forged).unwrap();
    // Execute VMRUN from the hypervisor's own code, bypassing the
    // guardian entirely.
    let site = v.sys.xen.xen_sites.vmrun;
    match v.sys.plat.machine.exec_priv(site, PrivOp::Vmrun(forged)) {
        Err(e) => report(NAME, defense, AttackOutcome::Blocked, format!("vmrun unavailable: {e}")),
        Ok(()) => {
            let mut buf = [0u8; 24];
            let got = v.sys.plat.machine.guest_read_gpa(SECRET_GPA, &mut buf, v.sev).is_ok()
                && &buf == SECRET;
            v.sys.plat.machine.vmexit(ExitCode::Hlt, 0, 0).ok();
            if got {
                report(NAME, defense, AttackOutcome::Succeeded, "forged VMCB impersonated victim")
            } else {
                report(
                    NAME,
                    defense,
                    AttackOutcome::Succeeded,
                    "rogue VMRUN executed (control hijack)",
                )
            }
        }
    }
}

// ----- 12. Clear CR0.WP ---------------------------------------------------------------

fn atk_cr0_wp_clear(defense: Defense) -> AttackReport {
    const NAME: &str = "cr0-wp-clear";
    let mut v = build_victim(defense).expect("victim");
    let site = v.sys.xen.xen_sites.write_cr0;
    let op = PrivOp::WriteCr0(fidelius_hw::regs::Cr0 { pg: true, wp: false });
    // First try the raw instruction in the hypervisor's code…
    let direct = v.sys.plat.machine.exec_priv(site, op);
    // …then the polite route through the guardian.
    let polite = v.sys.guardian.exec_priv(&mut v.sys.plat, op);
    if v.sys.plat.machine.cpu.cr0.wp {
        report(
            NAME,
            defense,
            AttackOutcome::Blocked,
            format!("WP still set (direct: {direct:?}, guarded: {polite:?})"),
        )
    } else {
        report(NAME, defense, AttackOutcome::Succeeded, "write protection disabled")
    }
}

// ----- 13. Cold boot -------------------------------------------------------------------

fn atk_cold_boot(defense: Defense) -> AttackReport {
    const NAME: &str = "cold-boot-dump";
    let v = build_victim(defense).expect("victim");
    let dram = v.sys.plat.machine.mc.dram();
    let mut dump = vec![0u8; dram.size() as usize];
    dram.read_raw(Hpa(0), &mut dump).unwrap();
    if contains_secret(&dump) {
        report(NAME, defense, AttackOutcome::Succeeded, "secret found in DRAM dump")
    } else {
        report(NAME, defense, AttackOutcome::Blocked, "DRAM holds only ciphertext")
    }
}

// ----- 14. Targeted Rowhammer -----------------------------------------------------------

fn atk_rowhammer(defense: Defense) -> AttackReport {
    const NAME: &str = "rowhammer-targeted";
    let mut v = build_victim(defense).expect("victim");
    let frame = victim_frame(&v, gplayout::HEAP_PAGE);
    // Flip bit 0 of the secret's last byte; the attacker's goal is the
    // *predicted* value ('1' → '0').
    v.sys.plat.machine.mc.dram_mut().flip_bit(frame.add(23), 0).unwrap();
    let mut now = [0u8; 24];
    v.sys.gpa_read(v.victim, SECRET_GPA, &mut now, v.sev).unwrap();
    let mut predicted = *SECRET;
    predicted[23] ^= 1;
    if now == predicted {
        report(NAME, defense, AttackOutcome::Succeeded, "targeted single-bit flip achieved")
    } else {
        report(
            NAME,
            defense,
            AttackOutcome::Blocked,
            "flip garbled a whole cipher block (no targeted control)",
        )
    }
}

// ----- 15. Driver-domain disk snooping ----------------------------------------------------

fn atk_disk_snoop(defense: Defense) -> AttackReport {
    const NAME: &str = "disk-snoop";
    let mut v = build_victim(defense).expect("victim");
    let (path, kblk) = match defense {
        Defense::Fidelius => (IoPath::AesNi, Some([0x4B; 16])),
        _ => (IoPath::Plain, None),
    };
    let disk = vec![0u8; 64 * fidelius_crypto::modes::SECTOR_SIZE];
    v.sys.setup_block_device(v.victim, disk, path, kblk).expect("block device");
    let mut sector = vec![0u8; fidelius_crypto::modes::SECTOR_SIZE];
    sector[..24].copy_from_slice(SECRET);
    v.sys.disk_write(v.victim, 3, &sector).expect("disk write");
    v.sys.ensure_host().unwrap();
    if contains_secret(v.sys.xen.backend(v.victim).expect("victim's block device").disk()) {
        report(NAME, defense, AttackOutcome::Succeeded, "driver domain read I/O plaintext")
    } else {
        report(NAME, defense, AttackOutcome::Blocked, "disk holds only ciphertext")
    }
}

// ----- 16. Iago-style RIP diversion through a hypercall -------------------------------------

fn atk_iago_rip(defense: Defense) -> AttackReport {
    const NAME: &str = "iago-rip-divert";
    let mut v = build_victim(defense).expect("victim");
    v.sys.ensure_guest(v.victim).unwrap();
    let regs = &mut v.sys.plat.machine.cpu.regs;
    regs.set(Gpr::Rax, HC_VOID);
    v.sys.exit_and_handle(ExitCode::Vmmcall, 0, 0).unwrap();
    // The hypervisor "handles" the hypercall but sets a malicious resume
    // point deep inside the guest.
    let vmcb_pa = v.sys.xen.domain(v.victim).unwrap().vmcb_pa;
    let rip_field = direct_map(vmcb_pa.add(8 * VmcbField::Rip as u64));
    let cur = v.sys.plat.machine.host_read_u64(rip_field).unwrap();
    v.sys.plat.machine.host_write_u64(rip_field, cur + 300).unwrap();
    match v.sys.enter(v.victim) {
        Ok(()) if v.sys.plat.machine.cpu.rip == cur + 300 => {
            report(NAME, defense, AttackOutcome::Succeeded, "hypercall return diverted guest")
        }
        Ok(()) => report(NAME, defense, AttackOutcome::Blocked, "resume point corrected"),
        Err(e) => report(NAME, defense, AttackOutcome::Blocked, format!("entry refused: {e}")),
    }
}

/// Every scenario, in matrix order.
pub fn all_attacks() -> Vec<Attack> {
    vec![
        Attack {
            name: "vmcb-read",
            description: "read guest RIP/CR3 from the unencrypted VMCB",
            run: atk_vmcb_read,
        },
        Attack {
            name: "register-steal",
            description: "read guest GPRs after #VMEXIT",
            run: atk_register_steal,
        },
        Attack {
            name: "vmcb-tamper-rip",
            description: "divert guest control flow via VMCB.RIP",
            run: atk_vmcb_tamper_rip,
        },
        Attack {
            name: "sev-bit-clear",
            description: "clear the SEV enable bit before re-entry",
            run: atk_sev_disable,
        },
        Attack {
            name: "direct-map-read",
            description: "read guest memory through the hypervisor direct map",
            run: atk_direct_map_read,
        },
        Attack {
            name: "host-pt-remap",
            description: "remap guest frames into the hypervisor's page tables",
            run: atk_host_pt_remap,
        },
        Attack {
            name: "memory-replay",
            description: "replay stale (cipher)text in place to roll back guest state",
            run: atk_replay,
        },
        Attack {
            name: "collusive-asid-remap",
            description: "map victim memory into a collusive VM running under the victim's ASID",
            run: atk_collusive_asid,
        },
        Attack {
            name: "grant-escalation",
            description: "flip a read-only grant to writable in the grant table",
            run: atk_grant_escalation,
        },
        Attack {
            name: "grant-fabrication",
            description: "fabricate a grant entry the guest never created",
            run: atk_grant_fabrication,
        },
        Attack {
            name: "rogue-vmrun",
            description: "VMRUN a forged VMCB from hijacked hypervisor control flow",
            run: atk_rogue_vmrun,
        },
        Attack {
            name: "cr0-wp-clear",
            description: "disable CR0.WP to unprotect all read-only structures",
            run: atk_cr0_wp_clear,
        },
        Attack {
            name: "cold-boot-dump",
            description: "dump DRAM and scan for secrets (physical attack)",
            run: atk_cold_boot,
        },
        Attack {
            name: "rowhammer-targeted",
            description: "flip a chosen guest memory bit (physical attack)",
            run: atk_rowhammer,
        },
        Attack {
            name: "disk-snoop",
            description: "driver domain inspects PV disk I/O data",
            run: atk_disk_snoop,
        },
        Attack {
            name: "iago-rip-divert",
            description: "malicious hypercall return diverts the guest",
            run: atk_iago_rip,
        },
    ]
    .into_iter()
    .chain(crate::successors::successor_attacks())
    .collect()
}

/// Runs every attack against every defense; the §6 comparison matrix.
pub fn run_matrix() -> Vec<AttackReport> {
    run_matrix_par(1)
}

/// Runs every attack against every defense across up to `threads` worker
/// threads. Each `(attack, defense)` cell builds its own fresh victim, so
/// cells are shared-nothing; results come back in the sequential order
/// ([`all_attacks`] outer, [`Defense::ALL`] inner) at any thread count.
pub fn run_matrix_par(threads: usize) -> Vec<AttackReport> {
    let cells: Vec<(Attack, Defense)> = all_attacks()
        .into_iter()
        .flat_map(|attack| Defense::ALL.into_iter().map(move |defense| (attack, defense)))
        .collect();
    fidelius_par::par_map_ordered(&cells, threads, |_, &(attack, defense)| (attack.run)(defense))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(attack: fn(Defense) -> AttackReport, d: Defense) -> AttackOutcome {
        attack(d).outcome
    }

    use AttackOutcome::{Blocked, NotApplicable, Succeeded};
    use Defense::{Fidelius, VanillaXen, XenSev, XenSevEs};

    #[test]
    fn parallel_matrix_matches_sequential() {
        let seq = run_matrix();
        let par = run_matrix_par(4);
        assert_eq!(seq.len(), par.len());
        assert_eq!(seq.len(), all_attacks().len() * Defense::ALL.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.attack, p.attack);
            assert_eq!(s.defense, p.defense);
            assert_eq!(s.outcome, p.outcome);
            assert_eq!(s.detail, p.detail);
        }
    }

    #[test]
    fn fidelius_blocks_every_attack() {
        for attack in all_attacks() {
            let rep = (attack.run)(Fidelius);
            assert_eq!(
                rep.outcome, Blocked,
                "{} must be blocked under Fidelius: {}",
                attack.name, rep.detail
            );
        }
    }

    #[test]
    fn vanilla_xen_is_wide_open() {
        for attack in all_attacks() {
            let rep = (attack.run)(VanillaXen);
            assert!(
                rep.outcome == Succeeded || rep.outcome == NotApplicable,
                "{} should succeed against vanilla Xen: {}",
                attack.name,
                rep.detail
            );
        }
    }

    #[test]
    fn sev_stops_memory_reads_but_not_state_attacks() {
        assert_eq!(outcome(atk_direct_map_read, XenSev), Blocked);
        assert_eq!(outcome(atk_cold_boot, XenSev), Blocked);
        // The §2.2 weaknesses:
        assert_eq!(outcome(atk_vmcb_read, XenSev), Succeeded);
        assert_eq!(outcome(atk_register_steal, XenSev), Succeeded);
        assert_eq!(outcome(atk_vmcb_tamper_rip, XenSev), Succeeded);
        assert_eq!(outcome(atk_sev_disable, XenSev), Succeeded);
        assert_eq!(outcome(atk_replay, XenSev), Succeeded);
        assert_eq!(outcome(atk_collusive_asid, XenSev), Succeeded);
    }

    #[test]
    fn sev_es_closes_vmcb_but_not_mapping_attacks() {
        assert_eq!(outcome(atk_vmcb_read, XenSevEs), Blocked);
        assert_eq!(outcome(atk_register_steal, XenSevEs), Blocked);
        assert_eq!(outcome(atk_vmcb_tamper_rip, XenSevEs), Blocked);
        // Still broken even with SEV-ES (paper §2.2):
        assert_eq!(outcome(atk_replay, XenSevEs), Succeeded);
        assert_eq!(outcome(atk_collusive_asid, XenSevEs), Succeeded);
        assert_eq!(outcome(atk_grant_escalation, XenSevEs), Succeeded);
    }

    #[test]
    fn io_is_unprotected_without_fidelius() {
        assert_eq!(outcome(atk_disk_snoop, XenSev), Succeeded);
        assert_eq!(outcome(atk_disk_snoop, Fidelius), Blocked);
    }
}
