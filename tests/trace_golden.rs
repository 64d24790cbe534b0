//! Trace goldens: what the flight recorder and the telemetry registry see
//! of two fixed runs, compared line by line with committed copies under
//! `artifacts/trace/`.
//!
//! - `fig5.txt` — the Figure-5 event-cost measurement
//!   (`runner::measure_event_costs_traced`): the SHA-256 of its Chrome
//!   trace JSON, every hotspot row and the folded stacks.
//! - `whole_stack.txt` — the whole-stack script of `fidelity_oracle.rs`
//!   (shared through `common`) with both systems' recorders armed right
//!   after `System::new`: a digest of everything the script observes,
//!   then per system the events emitted, the telemetry snapshot JSON and
//!   the folded stacks.
//!
//! Every span, stamp and modeled cycle of these runs is pinned, so a
//! change to how crossings are booked cannot move one unnoticed.
//!
//! To regenerate both files after a change that means to move them (and
//! explain each moved line in CHANGES.md):
//!
//! ```text
//! cargo test --test trace_golden -- --ignored regenerate
//! ```

mod common;

use fidelius::crypto::sha256::Sha256;
use fidelius::hw::cpu::Fidelity;
use fidelius::workloads::runner;
use fidelius::xen::System;
use fidelius_trace::{export, Recorder};

use common::{protected, SEED};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/artifacts/trace");

/// Span labels (or label prefixes) of every crossing the goldens must
/// cover: the three gates, hypercall dispatch, event-channel sends, VMEXIT
/// round trips, the blkif drain and its requests, the firmware's page
/// transforms and each launch step and migration phase.
const COVERED_LABELS: &[&str] = &[
    "gate:type1",
    "gate:type2",
    "gate:type3",
    "hc:",
    "evtchn:send",
    "vmexit:",
    "blkif:drain",
    "blkif:read",
    "blkif:write",
    "crypto:send_update",
    "crypto:receive_update",
    "launch:receive_start",
    "launch:create_domain",
    "launch:load_image",
    "launch:receive_update",
    "launch:finish_activate",
    "launch:boot_and_seal",
    "migrate:send_start",
    "migrate:send_pages",
    "migrate:send_finish",
    "migrate:receive_start",
    "migrate:create_domain",
    "migrate:receive_update",
    "migrate:finish_activate",
    "migrate:seal",
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn render_fig5() -> String {
    let m = runner::measure_event_costs_traced(1).expect("fig5 measurement");
    assert_eq!(m.trace.dropped, 0, "fig5 trace ring overflowed");
    let mut out = String::from("# chrome trace sha256\n");
    out += &hex(&Sha256::digest(export::to_chrome_trace(&m.trace).as_bytes()));
    out += "\n# hotspots: label kind count total_cycles self_cycles\n";
    for h in export::hotspots(&m.trace, usize::MAX) {
        out +=
            &format!("{} {} {} {} {}\n", h.label, h.kind, h.count, h.total_cycles, h.self_cycles);
    }
    out += "# folded stacks\n";
    out += &export::folded_stacks(&m.trace);
    out
}

/// A system from the shared script's constructor with a recorder armed
/// before anything else runs on it.
fn recorded(seed: u64) -> System {
    let mut sys = protected(seed, Fidelity::Fast);
    sys.plat.machine.rec = Recorder::new(runner::TRACE_SPAN_CAPACITY);
    sys.plat.machine.rec.arm();
    sys
}

fn render_whole_stack() -> String {
    let mut src = recorded(SEED);
    let mut dst = recorded(SEED + 1);
    let obs = common::whole_stack(&mut src, &mut dst);
    let observed = format!("{:?}", (&obs.steps, &obs.disks, &obs.cycles));
    let mut out = String::from("# observed sha256 (steps, disks, cycle bits)\n");
    out += &hex(&Sha256::digest(observed.as_bytes()));
    out.push('\n');
    for ((name, sys), telemetry) in [("src", &src), ("dst", &dst)].into_iter().zip(&obs.telemetry) {
        let trace = sys.plat.machine.rec.take();
        assert_eq!(trace.dropped, 0, "{name}: trace ring overflowed");
        out += &format!("# {name} events emitted\n{}\n", sys.plat.machine.trace.total_emitted());
        out += &format!("# {name} telemetry\n{telemetry}\n");
        out += &format!("# {name} folded stacks\n");
        out += &export::folded_stacks(&trace);
    }
    out
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
                 (regenerate: cargo test --test trace_golden -- --ignored regenerate)",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>"),
            ),
        }
    }
}

#[test]
fn fig5_trace_matches_golden() {
    check("fig5.txt", &render_fig5());
}

#[test]
fn whole_stack_trace_matches_golden() {
    check("whole_stack.txt", &render_whole_stack());
}

/// The goldens cannot pass by covering nothing: between them they hold a
/// folded stack through every crossing in [`COVERED_LABELS`].
#[test]
fn goldens_cover_every_booked_crossing() {
    let folded: Vec<String> = ["fig5.txt", "whole_stack.txt"]
        .iter()
        .map(|name| std::fs::read_to_string(format!("{GOLDEN_DIR}/{name}")).unwrap())
        .collect();
    for label in COVERED_LABELS {
        assert!(
            folded
                .iter()
                .flat_map(|f| f.lines())
                .any(|l| l.split(';').any(|s| s.starts_with(label))),
            "no golden stack passes through {label}"
        );
    }
}

#[test]
#[ignore = "rewrites the committed goldens"]
fn regenerate() {
    std::fs::create_dir_all(GOLDEN_DIR).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/fig5.txt"), render_fig5()).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/whole_stack.txt"), render_whole_stack()).unwrap();
}
