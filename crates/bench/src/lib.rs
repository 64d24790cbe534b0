//! Shared helpers for the benchmark/reproduction binaries.
//!
//! Each paper table/figure has a binary in `src/bin/` that regenerates
//! it; `micro_memstream` and `io_stream` measure the wall-clock cost of
//! the implementation itself, and the separate `fbench` package times the
//! whole pipeline end to end.
//!
//! Every binary supports `--json`: tables are then emitted as one
//! JSON-lines object per table (`{"table": ..., "headers": [...],
//! "rows": [[...]]}`), free-text notes are suppressed, and telemetry
//! snapshots render as `{"telemetry": {...}}` — all parseable with
//! [`fidelius_telemetry::Json`].
//!
//! # Artifact-format guarantee
//!
//! Sweep binaries whose cases are shared-nothing (`attack_matrix`,
//! `faultinject_matrix`) emit their per-case `--json` lines in
//! **kind-major input order**: outer loop over the case kinds (attack
//! rows / fault kinds), inner loop over the per-kind instances (defense
//! columns / seeds), regardless of `--threads`. Parallel runs collect
//! results by input index, never by completion order, so the artifact —
//! per-case lines, tables, and summary lines alike — is byte-identical
//! at any thread count; CI relies on this by diffing `--threads 1`
//! against `--threads 4`. Run-to-run-varying wall-clock measurements are
//! only appended behind `--timing`, *after* the stable artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fidelius_telemetry::{Json, Snapshot};

/// Whether `--json` was passed: machine-readable JSON-lines output.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Value of a `--name N` command-line override, or the default.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        }
    }
    default
}

/// Value of a `--name VALUE` string override, or the default.
pub fn arg_str(name: &str, default: &str) -> String {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next() {
                return v;
            }
        }
    }
    default.to_string()
}

/// Prints a note line — suppressed under `--json` so the output stream
/// stays pure JSON lines.
#[macro_export]
macro_rules! note {
    ($($arg:tt)*) => {
        if !$crate::json_mode() { println!($($arg)*); }
    };
}

/// Value of a `--threads N` override, or the host's advertised
/// parallelism. Every sweep binary whose cases are shared-nothing
/// defaults to this; wall-clock *timing* binaries default to 1 instead
/// (parallel co-scheduling distorts the numbers they exist to measure).
pub fn arg_threads() -> usize {
    arg_u64("--threads", fidelius_par::default_threads() as u64).max(1) as usize
}

/// Whether `--timing` was passed: sweep binaries then append a
/// `{"bench": "<name>_wall", "wall_ns": ...}` line after their artifact.
/// Kept behind a flag (and emitted *after* the artifact) so determinism
/// checks can diff artifacts across thread counts without the
/// run-to-run-varying wall clock getting in the way.
pub fn timing_mode() -> bool {
    std::env::args().any(|a| a == "--timing")
}

/// Emits a sweep wall-time measurement (a latency-style entry for the
/// regression guard): `{"bench": ..., "wall_ns": ...}` under `--json`, a
/// text line otherwise.
pub fn emit_wall(bench: &str, wall_ns: u64) {
    if json_mode() {
        println!(
            "{}",
            Json::obj(vec![("bench", Json::str(bench)), ("wall_ns", Json::Num(wall_ns as f64)),])
        );
    } else {
        println!("  {bench:<24} {:>12.3} ms wall", wall_ns as f64 / 1e6);
    }
}

/// Emits a result table: fixed-width text normally, one JSON object line
/// under `--json`.
pub fn emit_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    if json_mode() {
        println!("{}", Json::table(title, headers, rows));
    } else {
        print_table(title, headers, rows);
    }
}

/// Emits a telemetry snapshot: a `{"telemetry": ...}` JSON line under
/// `--json`, the text report otherwise.
pub fn emit_snapshot(snapshot: &Snapshot) {
    if json_mode() {
        println!("{}", Json::obj(vec![("telemetry", snapshot.to_json())]));
    } else {
        println!("{}", snapshot.text_report());
    }
}

/// Prints a fixed-width text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{v:.2}%")
}

/// One wall-clock throughput measurement (host time, *not* modeled
/// cycles — see DESIGN.md's "modeled cycles vs host wall-clock" note).
#[derive(Debug, Clone, PartialEq)]
pub struct Throughput {
    /// Scenario name (stable key for the regression guard).
    pub bench: String,
    /// Bytes processed per iteration.
    pub bytes: u64,
    /// Median wall time of one iteration, nanoseconds.
    pub wall_ns: u64,
    /// Fastest iteration, nanoseconds (flakiness triage: a `min` far
    /// below the median means the machine, not the code, was slow).
    pub min_ns: u64,
    /// Slowest iteration, nanoseconds.
    pub max_ns: u64,
    /// Throughput derived from the median: `bytes / wall_ns`, in MB/s
    /// (decimal megabytes, 10^6 bytes).
    pub mb_per_s: f64,
    /// Modeled cycles per byte for the same traffic, when the scenario
    /// drives a simulated machine (None for pure host-crypto loops).
    /// Deterministic — the simulator charges the same costs every run —
    /// so `bench_guard` asserts it *unchanged* against the baseline,
    /// separating modeled-cost regressions from wall-clock noise.
    pub cycles_per_byte: Option<f64>,
    /// Host AES backend the scenario ran on (`"ttable"` or `"aesni"`),
    /// when AES dominates its wall clock. `bench_guard` keys
    /// its throughput floors on this: a baseline recorded on `aesni`
    /// must not fail CI on a host without the instructions.
    pub aes_backend: Option<&'static str>,
}

impl Throughput {
    /// Attaches the modeled cycles-per-byte figure (see the field doc).
    pub fn with_cycles_per_byte(mut self, cycles_per_byte: f64) -> Self {
        self.cycles_per_byte = Some(cycles_per_byte);
        self
    }

    /// Records which host AES backend produced this measurement (see the
    /// field doc; shows up as `"aes_backend"` in the JSON line).
    pub fn with_aes_backend(mut self, backend: &'static str) -> Self {
        self.aes_backend = Some(backend);
        self
    }
}

/// Measures `f` (which processes `bytes` bytes per call): one warm-up
/// call, then `iters` timed iterations, reporting the *median* (so a
/// stray scheduler hiccup cannot skew the number either way) plus the
/// min/max spread for flakiness triage.
pub fn measure_throughput(bench: &str, bytes: u64, iters: u32, mut f: impl FnMut()) -> Throughput {
    f(); // warm-up: page in buffers, build key schedules, fill caches
    let stats = sample_iters(iters, f);
    let wall_ns = stats.median_ns.max(1);
    let mb_per_s = bytes as f64 / wall_ns as f64 * 1e9 / 1e6;
    Throughput {
        bench: bench.to_string(),
        bytes,
        wall_ns,
        min_ns: stats.min_ns,
        max_ns: stats.max_ns,
        mb_per_s,
        cycles_per_byte: None,
        aes_backend: None,
    }
}

/// Emits a throughput measurement: a `{"bench": ..., "wall_ns": ...,
/// "min_ns": ..., "max_ns": ..., "mb_per_s": ...}` JSON line under
/// `--json` (plus `"cycles_per_byte"` when the scenario reports its
/// modeled cost), a text line otherwise.
pub fn emit_throughput(t: &Throughput) {
    if json_mode() {
        let mut fields = vec![
            ("bench", Json::str(t.bench.as_str())),
            ("bytes", Json::Num(t.bytes as f64)),
            ("wall_ns", Json::Num(t.wall_ns as f64)),
            ("min_ns", Json::Num(t.min_ns as f64)),
            ("max_ns", Json::Num(t.max_ns as f64)),
            ("mb_per_s", Json::Num((t.mb_per_s * 100.0).round() / 100.0)),
        ];
        if let Some(cpb) = t.cycles_per_byte {
            // Emitted at full precision (the writer round-trips f64
            // exactly): the guard compares this figure for equality, not
            // against a tolerance band.
            fields.push(("cycles_per_byte", Json::Num(cpb)));
        }
        if let Some(backend) = t.aes_backend {
            fields.push(("aes_backend", Json::str(backend)));
        }
        println!("{}", Json::obj(fields));
    } else {
        let modeled = match t.cycles_per_byte {
            Some(cpb) => format!(", {cpb:.4} cycles/byte modeled"),
            None => String::new(),
        };
        let backend = match t.aes_backend {
            Some(b) => format!(", aes backend {b}"),
            None => String::new(),
        };
        println!(
            "  {:<24} {:>10.2} MB/s  (median {} ns, min {} ns, max {} ns / {} bytes per iteration{modeled}{backend})",
            t.bench, t.mb_per_s, t.wall_ns, t.min_ns, t.max_ns, t.bytes
        );
    }
}

/// Per-iteration timing statistics behind [`measure_throughput`].
struct IterStats {
    /// Median nanoseconds per iteration (the headline number).
    median_ns: u64,
    /// Fastest iteration, nanoseconds.
    min_ns: u64,
    /// Slowest iteration, nanoseconds.
    max_ns: u64,
}

fn sample_iters(iters: u32, mut f: impl FnMut()) -> IterStats {
    let mut samples: Vec<u64> = (0..iters.max(1))
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    IterStats {
        median_ns: samples[samples.len() / 2],
        min_ns: samples[0],
        max_ns: samples[samples.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn print_table_does_not_panic() {
        super::print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn arg_u64_falls_back_to_default() {
        assert_eq!(super::arg_u64("--definitely-not-passed", 42), 42);
    }

    #[test]
    fn arg_threads_defaults_to_host_parallelism() {
        assert!(super::arg_threads() >= 1);
    }

    #[test]
    fn iter_stats_order_and_throughput_spread() {
        let mut x = 0u64;
        let stats = super::sample_iters(100, || {
            x = std::hint::black_box(x.wrapping_add(1));
        });
        assert!(stats.min_ns <= stats.median_ns && stats.median_ns <= stats.max_ns);

        let t = super::measure_throughput("spread", 1024, 5, || {
            std::hint::black_box(vec![0u8; 4096]);
        });
        assert!(t.min_ns <= t.wall_ns && t.wall_ns <= t.max_ns);
        assert!(t.mb_per_s > 0.0);
    }
}
