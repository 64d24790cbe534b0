//! Modeled-cost goldens: outputs whose every line is a modeled figure,
//! compared line by line with committed copies under `artifacts/modeled/`.
//!
//! - `io_stream.jsonl` — `io_stream --json`: multi-queue block-device
//!   setup and `disk_batch` windows on the plain, AES and SEV-API paths,
//!   with their modeled cycles.
//! - `fault_matrix_8.jsonl` — `faultinject_matrix --json --seeds 8`:
//!   every fault kind against a Fidelius guest doing SEV-API
//!   `disk_write`/`disk_read` rounds, with the merged cycle categories.
//! - `fault_matrix_64.jsonl` — the same at the binary's default 64 seeds,
//!   which CI's `determinism` job also diffs its `faultinject_matrix
//!   --json` output against.
//! - `attack_matrix.jsonl` — `attack_matrix --json`: every attack against
//!   every defense (vanilla Xen, SEV, SEV-ES, Fidelius), which drives the
//!   `Unprotected`, `SevEsSim` and Fidelius guardians end to end.
//! - `micro_shadow.jsonl` — `micro_shadow --json`: the void-hypercall
//!   round trip with and without Fidelius, and the share of it spent
//!   shadowing and checking the VMCB (paper Micro 2).
//! - `micro_gates.jsonl` — `micro_gates --json`: the cost of each gate
//!   type (paper Micro 1).
//! - `table3_fio.jsonl` — `table3_fio --json`: fio throughput on Xen and
//!   on Fidelius's AES-NI I/O path (paper Table 3).
//! - `micro_ioenc.jsonl` — `micro_ioenc --json`: the 512 MB copy under
//!   each I/O encryption approach (paper Micro 3).
//! - `fig5_speccpu.jsonl`, `fig6_parsec.jsonl` — `fig5_speccpu --json`
//!   and `fig6_parsec --json`: the SPEC CPU2006 and PARSEC overheads of
//!   Fidelius and Fidelius-enc (paper Figures 5 and 6), each with its
//!   telemetry snapshot.
//! - `table1_permissions.jsonl`, `table2_instructions.jsonl` —
//!   `table1_permissions --json` and `table2_instructions --json`: the
//!   permission and instruction-interception checks behind paper
//!   Tables 1 and 2.
//! - `xsa_analysis.jsonl` — `xsa_analysis --json`: the XSA vulnerability
//!   counts and the shares Fidelius thwarts (paper §6.2).
//! - `ablation_gates.jsonl`, `ablation_vmcb.jsonl` — `ablation_gates --json`
//!   and `ablation_vmcb --json`: the context-transition mechanisms' cycles
//!   per round trip, and shadowing the VMCB against write-protecting it.
//!
//! CI's `determinism` job also diffs `table3_fio`, `micro_ioenc`,
//! `fig5_speccpu` and `fig6_parsec` against their goldens under both
//! `FIDELIUS_AES_BACKEND=ttable` and `aesni`, and the two tables, the XSA
//! analysis and the two ablations against theirs.
//!
//! To regenerate all fifteen after a change that means to move them (and
//! explain each moved line in CHANGES.md):
//!
//! ```text
//! cargo test -p fidelius-bench --test modeled_goldens -- --ignored regenerate
//! ```

use fidelius_faultinject::harness::{matrix_artifact, run_matrix_par};
use std::process::Command;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../artifacts/modeled");

/// The `faultinject_matrix` binary's default seed base.
const SEED_BASE: u64 = 0xF1DE;

/// Runs a bench binary with `--json` and returns its output.
fn render_json(bin: &str) -> String {
    let out = Command::new(bin).arg("--json").output().unwrap_or_else(|e| panic!("{bin}: {e}"));
    assert!(out.status.success(), "{bin} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf8 output")
}

fn render_io_stream() -> String {
    render_json(env!("CARGO_BIN_EXE_io_stream"))
}

fn render_attack_matrix() -> String {
    render_json(env!("CARGO_BIN_EXE_attack_matrix"))
}

fn render_micro_shadow() -> String {
    render_json(env!("CARGO_BIN_EXE_micro_shadow"))
}

fn render_micro_gates() -> String {
    render_json(env!("CARGO_BIN_EXE_micro_gates"))
}

fn render_table3_fio() -> String {
    render_json(env!("CARGO_BIN_EXE_table3_fio"))
}

fn render_micro_ioenc() -> String {
    render_json(env!("CARGO_BIN_EXE_micro_ioenc"))
}

fn render_fig5_speccpu() -> String {
    render_json(env!("CARGO_BIN_EXE_fig5_speccpu"))
}

fn render_fig6_parsec() -> String {
    render_json(env!("CARGO_BIN_EXE_fig6_parsec"))
}

fn render_table1_permissions() -> String {
    render_json(env!("CARGO_BIN_EXE_table1_permissions"))
}

fn render_table2_instructions() -> String {
    render_json(env!("CARGO_BIN_EXE_table2_instructions"))
}

fn render_xsa_analysis() -> String {
    render_json(env!("CARGO_BIN_EXE_xsa_analysis"))
}

fn render_ablation_gates() -> String {
    render_json(env!("CARGO_BIN_EXE_ablation_gates"))
}

fn render_ablation_vmcb() -> String {
    render_json(env!("CARGO_BIN_EXE_ablation_vmcb"))
}

fn render_matrix(seeds: u64) -> String {
    let seeds: Vec<u64> = (0..seeds).map(|s| SEED_BASE + s).collect();
    matrix_artifact(&run_matrix_par(&seeds, 2))
}

/// Compares `actual` with the committed golden `name`, naming the first
/// line that differs.
fn check(name: &str, actual: &str) {
    let path = format!("{GOLDEN_DIR}/{name}");
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let (mut want, mut got) = (golden.lines(), actual.lines());
    for line in 1.. {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) if w == g => {}
            (w, g) => panic!(
                "{name}: line {line} differs\n golden: {}\n actual: {}\n\
                 (regenerate: cargo test -p fidelius-bench --test modeled_goldens -- --ignored regenerate)",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>"),
            ),
        }
    }
}

#[test]
fn io_stream_matches_golden() {
    check("io_stream.jsonl", &render_io_stream());
}

#[test]
fn attack_matrix_matches_golden() {
    check("attack_matrix.jsonl", &render_attack_matrix());
}

#[test]
fn micro_shadow_matches_golden() {
    check("micro_shadow.jsonl", &render_micro_shadow());
}

#[test]
fn micro_gates_matches_golden() {
    check("micro_gates.jsonl", &render_micro_gates());
}

#[test]
fn table3_fio_matches_golden() {
    check("table3_fio.jsonl", &render_table3_fio());
}

#[test]
fn micro_ioenc_matches_golden() {
    check("micro_ioenc.jsonl", &render_micro_ioenc());
}

#[test]
fn fig5_speccpu_matches_golden() {
    check("fig5_speccpu.jsonl", &render_fig5_speccpu());
}

#[test]
fn fig6_parsec_matches_golden() {
    check("fig6_parsec.jsonl", &render_fig6_parsec());
}

#[test]
fn table1_permissions_matches_golden() {
    check("table1_permissions.jsonl", &render_table1_permissions());
}

#[test]
fn table2_instructions_matches_golden() {
    check("table2_instructions.jsonl", &render_table2_instructions());
}

#[test]
fn xsa_analysis_matches_golden() {
    check("xsa_analysis.jsonl", &render_xsa_analysis());
}

#[test]
fn ablation_gates_matches_golden() {
    check("ablation_gates.jsonl", &render_ablation_gates());
}

#[test]
fn ablation_vmcb_matches_golden() {
    check("ablation_vmcb.jsonl", &render_ablation_vmcb());
}

#[test]
fn fault_matrix_matches_golden() {
    check("fault_matrix_8.jsonl", &render_matrix(8));
}

#[test]
fn fault_matrix_64_matches_golden() {
    check("fault_matrix_64.jsonl", &render_matrix(64));
}

#[test]
#[ignore = "rewrites the committed goldens"]
fn regenerate() {
    std::fs::create_dir_all(GOLDEN_DIR).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/io_stream.jsonl"), render_io_stream()).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/attack_matrix.jsonl"), render_attack_matrix()).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/micro_shadow.jsonl"), render_micro_shadow()).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/micro_gates.jsonl"), render_micro_gates()).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/table3_fio.jsonl"), render_table3_fio()).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/micro_ioenc.jsonl"), render_micro_ioenc()).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/fig5_speccpu.jsonl"), render_fig5_speccpu()).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/fig6_parsec.jsonl"), render_fig6_parsec()).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/table1_permissions.jsonl"), render_table1_permissions())
        .unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/table2_instructions.jsonl"), render_table2_instructions())
        .unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/xsa_analysis.jsonl"), render_xsa_analysis()).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/ablation_gates.jsonl"), render_ablation_gates()).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/ablation_vmcb.jsonl"), render_ablation_vmcb()).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/fault_matrix_8.jsonl"), render_matrix(8)).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/fault_matrix_64.jsonl"), render_matrix(64)).unwrap();
}
