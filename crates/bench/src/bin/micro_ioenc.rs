//! Micro-benchmark 3: 512 MB memory copy under three I/O encryption
//! approaches (paper §7.2: AES-NI +11.49%, SEV/SME engine +8.69%,
//! software-emulated >20x).

use fidelius_crypto::aes::Aes128;
use fidelius_crypto::aes_soft::reference::RefAes128;
use fidelius_hw::cycles::CostModel;
use std::time::Instant;

fn main() {
    let m = CostModel::default();
    // Simulated-cycle account for a 512 MB copy (per 64-byte line).
    let lines = 512.0 * 1024.0 * 1024.0 / 64.0;
    let base = lines * m.memcpy_line;
    let aesni = lines * (m.memcpy_line + m.aesni_line);
    let sme = lines * (m.memcpy_line + m.engine_line_extra);
    let soft = lines * (m.memcpy_line + m.soft_aes_line);
    fidelius_bench::emit_table(
        "Micro 3 — 512 MB copy, simulated cycles",
        &["approach", "cycles", "slowdown", "paper"],
        &[
            vec!["plain copy".into(), format!("{base:.3e}"), "-".into(), "-".into()],
            vec![
                "AES-NI".into(),
                format!("{aesni:.3e}"),
                fidelius_bench::pct(100.0 * (aesni - base) / base),
                "+11.49%".into(),
            ],
            vec![
                "SEV/SME engine".into(),
                format!("{sme:.3e}"),
                fidelius_bench::pct(100.0 * (sme - base) / base),
                "+8.69%".into(),
            ],
            vec![
                "software emulated".into(),
                format!("{soft:.3e}"),
                format!("{:.1}x", soft / base),
                ">20x".into(),
            ],
        ],
    );

    // Wall-clock sanity check with the real cipher implementations: the
    // table AES over 4 MB, the textbook GF-math AES over 256 KB so it
    // finishes politely; the ratio compares per-byte rates.
    let fast_kb = 4096;
    let soft_kb = 256;
    let mut buf = vec![0xA5u8; fast_kb * 1024];
    let fast = Aes128::new(&[7; 16]);
    let t = Instant::now();
    for chunk in buf.chunks_exact_mut(16) {
        let mut b: [u8; 16] = chunk.try_into().unwrap();
        fast.encrypt_block(&mut b);
        chunk.copy_from_slice(&b);
    }
    let fast_t = t.elapsed();
    let slow = RefAes128::new(&[7; 16]);
    let t = Instant::now();
    for chunk in buf[..soft_kb * 1024].chunks_exact_mut(16) {
        let mut b: [u8; 16] = chunk.try_into().unwrap();
        slow.encrypt_block(&mut b);
        chunk.copy_from_slice(&b);
    }
    let slow_t = t.elapsed();
    fidelius_bench::note!(
        "\n  wall-clock cross-check: table AES {:?} on {fast_kb} KB, software AES {:?} on {soft_kb} KB ({:.1}x slower per byte)",
        fast_t,
        slow_t,
        (slow_t.as_secs_f64() / soft_kb as f64) / (fast_t.as_secs_f64() / fast_kb as f64)
    );
}
