//! One run of one workload: set-up built several times, one warm-up
//! round, ten timed rounds, then the metrics.

use crate::probe::{Probe, Site, SPAN_KINDS};
use crate::reference::{self, Reference};
use crate::stats::{percentile, Counts, Quartiles};
use crate::workloads::{build, Ctx, Plan, Tally, Workload, MAX_SAMPLES_PER_UNIT};
use std::time::Instant;

/// Timed rounds per run.
pub const ROUNDS: usize = 10;
/// Builds of the initial state per run; `setup_s` is their median.
pub const SETUP_BUILDS: usize = 11;
/// Equal slices of a round with the reference loop timed between them:
/// the host's speed changes within a round, and a reading only at its
/// ends misjudges it.
const SLICES: u64 = 16;

/// One metric as printed: name, unit, value, and for end-to-end metrics
/// the spread over their samples and the median before host-speed
/// correction.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub quartiles: Option<Quartiles>,
    pub raw: Option<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, value, quartiles: None, raw: None }
    }

    fn spread(name: &str, unit: &'static str, values: &[f64]) -> Metric {
        let q = Quartiles::of(values);
        Metric { name: name.to_string(), unit, value: q.median, quartiles: Some(q), raw: None }
    }

    /// A host-time metric: the median of the `fixed` samples, with the
    /// median of the `raw` samples (as measured) kept beside it.
    fn fixed(name: &str, unit: &'static str, raw: &[f64], fixed: &[f64]) -> Metric {
        Metric { raw: Some(Quartiles::of(raw).median), ..Metric::spread(name, unit, fixed) }
    }

    /// A host-time metric: `raw` as measured, corrected sample by sample
    /// by `slowdown` (times divide, rates multiply).
    fn corrected(
        name: &str,
        unit: &'static str,
        raw: &[f64],
        slowdown: &[f64],
        rate: bool,
    ) -> Metric {
        let fixed: Vec<f64> =
            raw.iter().zip(slowdown).map(|(v, s)| if rate { v * s } else { v / s }).collect();
        Metric::fixed(name, unit, raw, &fixed)
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
#[cfg(test)]
pub const END_TO_END: [&str; 5] = ["setup_s", "ops_s", "io_mb_s", "op_p50_us", "peak_rss_mb"];

/// Host measurements of one round. `slowdown` is how slow the host ran
/// over the round, weighted by slice time: above 1 the host ran slow, and
/// rates are scaled up by it. Latencies are corrected sample by sample.
#[derive(Debug, Clone)]
struct Round {
    traced: bool,
    wall_s: f64,
    ops: u64,
    ops_s: f64,
    io_mb_s: f64,
    /// Median op latency as measured.
    p50_us: f64,
    /// Median and 90th-percentile op latency of the corrected samples.
    fixed_p50_us: f64,
    fixed_p90_us: f64,
    slowdown: f64,
}

impl Round {
    fn of(traced: bool, wall_s: f64, slowdown: f64, tally: &mut Tally) -> Round {
        let us = |samples: &mut Vec<u64>, p: f64| {
            if samples.is_empty() {
                0.0
            } else {
                percentile(samples, p) as f64 / 1e3
            }
        };
        Round {
            traced,
            wall_s,
            ops: tally.ops,
            ops_s: tally.ops as f64 / wall_s,
            io_mb_s: tally.bytes as f64 / wall_s / 1e6,
            p50_us: us(&mut tally.lat_ns, 50.0),
            fixed_p50_us: us(&mut tally.fixed_ns, 50.0),
            fixed_p90_us: us(&mut tally.fixed_ns, 90.0),
            slowdown,
        }
    }

    fn corrected_ops_s(&self) -> f64 {
        self.ops_s * self.slowdown
    }
}

/// Everything a run produced.
pub struct Outcome {
    pub plan: Plan,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, if any.
    pub failure: Option<String>,
    /// The modeled digest of the whole run (absent when it stopped early).
    pub digest: Option<String>,
    /// End-to-end metrics (untraced runs) and the failure ratio.
    pub end_to_end: Vec<Metric>,
    /// Deterministic counts per op over the timed rounds.
    pub counts: Vec<Metric>,
    /// Host-time, modeled self-cycle and tracing metrics (traced runs).
    pub layers: Vec<Metric>,
    /// The reference loop's time next to the timed rounds, in ms: how
    /// fast the host ran.
    pub host_ref_ms: Option<Metric>,
    /// The instruments, for the trace files (traced runs).
    pub probe: Option<Probe>,
}

/// Runs `plan`: the timed rounds alternate untraced and traced when
/// `trace` is set, so the traced run does exactly the untraced run's work.
pub fn run(plan: Plan, trace: bool) -> Outcome {
    let mut out = Outcome {
        plan,
        trace,
        attempted: 0,
        failed: 0,
        failure: None,
        digest: None,
        end_to_end: Vec::new(),
        counts: Vec::new(),
        layers: Vec::new(),
        host_ref_ms: None,
        probe: None,
    };
    let mut ctx = Ctx::default();
    let driven = drive(&plan, trace, &mut ctx, &mut out).and_then(|traced_wall_s| {
        if trace {
            out.layers.extend(host_layers(&ctx.probe, traced_wall_s));
        } else {
            out.end_to_end.push(Metric::new("peak_rss_mb", "MiB", peak_rss_mib()?));
        }
        Ok(())
    });
    if let Err(e) = driven {
        out.failure = Some(e);
        out.failed = out.failed.max(1);
        out.attempted = out.attempted.max(1);
    }
    if trace {
        out.probe = Some(ctx.probe);
    }
    out
}

struct Timed {
    rounds: Vec<Round>,
    delta: Counts,
    requests: u64,
}

/// Builds, warms up and runs the timed rounds; returns the traced rounds'
/// total wall time.
fn drive(plan: &Plan, trace: bool, ctx: &mut Ctx, out: &mut Outcome) -> Result<f64, String> {
    let mut reference = Reference::new();
    let mut setup_s = Vec::with_capacity(SETUP_BUILDS);
    let mut setup_slowdown = Vec::with_capacity(SETUP_BUILDS);
    let mut built: Option<Box<dyn Workload>> = None;
    let mut first_state: Option<Vec<Counts>> = None;
    for _ in 0..SETUP_BUILDS {
        drop(built.take());
        let t = Instant::now();
        let w = build(plan, &mut ctx.probe)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let state: Vec<Counts> =
            w.hosts().iter().map(|h| Counts::of(&h.sys.plat.machine)).collect();
        match &first_state {
            Some(first) if !first.iter().zip(&state).all(|(a, b)| a.same_bits(b)) => {
                return Err("two builds of the same set-up differ".into())
            }
            Some(_) => {}
            None => first_state = Some(state),
        }
        built = Some(w);
        // Each build is corrected by the loop around it, and the loop
        // spreads the builds out, so one burst of host load hits few.
        setup_slowdown.push(reference.slowdown());
    }
    let mut w = built.expect("at least one build");

    let mut run_round = |w: &mut dyn Workload, ctx: &mut Ctx, traced: bool| {
        round(w, ctx, plan.units, traced, &mut reference, &mut out.attempted, &mut out.failed)
    };
    run_round(&mut *w, ctx, false)?;
    let before = ctx.ledger.totals(w.hosts());
    let mut timed =
        Timed { rounds: Vec::with_capacity(ROUNDS), delta: Counts::default(), requests: 0 };
    for r in 0..ROUNDS {
        let rd = run_round(&mut *w, ctx, trace && r % 2 == 1)?;
        timed.requests += ctx.tally.requests;
        timed.rounds.push(rd);
    }
    let refs: Vec<f64> =
        timed.rounds.iter().map(|r| r.slowdown * reference::NOMINAL_S * 1e3).collect();
    timed.delta = ctx.ledger.totals(w.hosts()).minus(&before);
    out.host_ref_ms = Some(Metric::spread("host_ref_ms", "ms", &refs));

    let ledger = std::mem::take(&mut ctx.ledger);
    let (leaked, destroyed) = (
        ledger.heap_leaked + w.hosts().iter().map(|h| h.heap_lost()).sum::<u64>(),
        ledger.domains_destroyed,
    );
    out.digest = Some(ledger.finish(w.hosts()));
    drop(w);

    let ops: u64 = timed.rounds.iter().map(|r| r.ops).sum();
    out.counts = per_op_counts(&timed, ops, leaked, destroyed);
    if !trace {
        out.end_to_end = end_to_end(&setup_s, &setup_slowdown, &timed.rounds);
    } else {
        out.layers = traced_layers(&timed.rounds, &ctx.probe);
    }
    Ok(timed.rounds.iter().filter(|r| r.traced).map(|r| r.wall_s).sum())
}

/// Runs one round of `units` units in [`SLICES`] slices, timing the
/// reference loop after each, and returns its host measurements.
fn round(
    w: &mut dyn Workload,
    ctx: &mut Ctx,
    units: u64,
    traced: bool,
    reference: &mut Reference,
    attempted: &mut u64,
    failed: &mut u64,
) -> Result<Round, String> {
    // Reuse the latency buffers: fresh ones per round would make the peak
    // resident set depend on when the allocator returns the old ones.
    let reuse = |mut v: Vec<u64>| {
        v.clear();
        v.reserve((units * MAX_SAMPLES_PER_UNIT) as usize);
        v
    };
    let lat_ns = reuse(std::mem::take(&mut ctx.tally.lat_ns));
    let fixed_ns = reuse(std::mem::take(&mut ctx.tally.fixed_ns));
    ctx.tally = Tally { lat_ns, fixed_ns, ..Tally::default() };
    if traced {
        w.hosts().iter().for_each(|h| h.sys.plat.machine.rec.arm());
        ctx.probe.set_tracing(true);
    }
    let (mut wall_s, mut nominal_s) = (0.0, 0.0);
    let mut result = Ok(());
    for slice in 0..SLICES {
        let n = units * (slice + 1) / SLICES - units * slice / SLICES;
        if n == 0 {
            continue;
        }
        let first = ctx.tally.lat_ns.len();
        let start = Instant::now();
        for _ in 0..n {
            result = w.unit(ctx);
            if traced {
                w.hosts().iter().for_each(|h| ctx.probe.drain(&h.sys.plat.machine.rec));
            }
            if result.is_err() {
                break;
            }
        }
        let slice_s = start.elapsed().as_secs_f64();
        let slowdown = reference.slowdown();
        wall_s += slice_s;
        nominal_s += slice_s / slowdown;
        let Tally { lat_ns, fixed_ns, .. } = &mut ctx.tally;
        fixed_ns.extend(lat_ns[first..].iter().map(|l| (*l as f64 / slowdown) as u64));
        if result.is_err() {
            break;
        }
    }
    if traced {
        ctx.probe.set_tracing(false);
        for h in w.hosts() {
            h.sys.plat.machine.rec.disarm();
            ctx.probe.drain(&h.sys.plat.machine.rec);
        }
    }
    *attempted += ctx.tally.ops;
    *failed += ctx.tally.failed;
    result?;
    Ok(Round::of(traced, wall_s, wall_s / nominal_s, &mut ctx.tally))
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn end_to_end(setup_s: &[f64], setup_slowdown: &[f64], rounds: &[Round]) -> Vec<Metric> {
    let pick = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let slowdown = pick(|r| r.slowdown);
    vec![
        Metric::corrected("setup_s", "s", setup_s, setup_slowdown, false),
        Metric::corrected("ops_s", "1/s", &pick(|r| r.ops_s), &slowdown, true),
        Metric::corrected("io_mb_s", "MB/s", &pick(|r| r.io_mb_s), &slowdown, true),
        Metric::fixed("op_p50_us", "us", &pick(|r| r.p50_us), &pick(|r| r.fixed_p50_us)),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_op_counts(t: &Timed, ops: u64, leaked: u64, destroyed: u64) -> Vec<Metric> {
    let d = &t.delta;
    let per = |v: u64| ratio(v as f64, ops as f64);
    let mut m: Vec<Metric> = fidelius_telemetry::CycleCategory::ALL
        .iter()
        .map(|c| {
            let name = format!("hw.cycles.{}_per_op", c.as_str());
            Metric::new(name, "cycles", ratio(d.cycles[c.index()], ops as f64))
        })
        .collect();
    m.extend([
        Metric::new("hw.cycles.total_per_op", "cycles", ratio(d.total_cycles(), ops as f64)),
        Metric::new("hw.tlb.hits_per_op", "count", per(d.tlb_hits)),
        Metric::new("hw.tlb.misses_per_op", "count", per(d.tlb_misses)),
        Metric::new("hw.tlb.evictions_per_op", "count", per(d.tlb_evictions)),
        Metric::new("hw.tlb.flushes_per_op", "count", per(d.tlb_flushes)),
        Metric::new(
            "hw.tlb.hit_ratio",
            "ratio",
            ratio(d.tlb_hits as f64, (d.tlb_hits + d.tlb_misses) as f64),
        ),
        Metric::new("hw.cpu.pt_walks_per_op", "count", per(d.pt_walks)),
        Metric::new("xen.hypervisor.vmexits_per_op", "count", per(d.vmexits)),
        Metric::new("xen.hypervisor.vmruns_per_op", "count", per(d.vmruns)),
        Metric::new("xen.hypercall.calls_per_op", "count", per(d.hypercalls)),
        Metric::new("xen.grants.ops_per_op", "count", per(d.grant_ops)),
        Metric::new(
            "xen.blkif.requests_per_notify",
            "ratio",
            ratio(t.requests as f64, d.evtchn_sends as f64),
        ),
        Metric::new("core.gates.type1_per_op", "count", per(d.gates[0])),
        Metric::new("core.gates.type2_per_op", "count", per(d.gates[1])),
        Metric::new("core.gates.type3_per_op", "count", per(d.gates[2])),
        Metric::new("core.shadow.captures_per_op", "count", per(d.shadow_captures)),
        Metric::new("core.shadow.verify_tampered_per_op", "count", per(d.shadow_tampered)),
        Metric::new("core.policy.allowed_per_op", "count", per(d.policy_allowed)),
        Metric::new("core.policy.denied_per_op", "count", per(d.policy_denied)),
        Metric::new(
            "core.policy.denied_ratio",
            "ratio",
            ratio(d.policy_denied as f64, (d.policy_allowed + d.policy_denied) as f64),
        ),
        Metric::new("crypto.encrypt_bytes_per_op", "bytes", per(d.encrypt_bytes)),
        Metric::new("crypto.decrypt_bytes_per_op", "bytes", per(d.decrypt_bytes)),
        Metric::new(
            "xen.hypervisor.heap_frames_leaked_per_domain",
            "frames",
            ratio(leaked as f64, destroyed as f64),
        ),
        Metric::new("telemetry.events_dropped", "count", d.events_dropped as f64),
    ]);
    m
}

/// Tracing metrics from the timed rounds of a traced run.
fn traced_layers(rounds: &[Round], probe: &Probe) -> Vec<Metric> {
    let (traced, plain): (Vec<&Round>, Vec<&Round>) = rounds.iter().partition(|r| r.traced);
    let traced_ops: u64 = traced.iter().map(|r| r.ops).sum();
    let median = |rs: &[&Round], f: fn(&Round) -> f64| {
        Quartiles::of(&rs.iter().map(|r| f(r)).collect::<Vec<f64>>()).median
    };
    let mut m: Vec<Metric> = SPAN_KINDS
        .iter()
        .zip(probe.self_cycles())
        .map(|(k, c)| {
            let name = format!("trace.self_cycles.{}_per_op", k.as_str());
            Metric::new(name, "cycles", ratio(*c, traced_ops as f64))
        })
        .collect();
    m.push(Metric::new("trace.spans_dropped", "count", probe.spans_dropped() as f64));
    m.push(Metric::new(
        "trace.overhead_ratio",
        "ratio",
        median(&plain, Round::corrected_ops_s) / median(&traced, Round::corrected_ops_s),
    ));
    m.push(Metric::new("bench.op_p90_us", "us", median(&plain, |r| r.fixed_p90_us)));
    m
}

/// Per-site host time: mean per call and share of the traced rounds'
/// wall time, both 0 for a site the workload's rounds never reach.
fn host_layers(probe: &Probe, wall: f64) -> Vec<Metric> {
    Site::ALL
        .iter()
        .flat_map(|s| {
            let stat = probe.traced_stat(*s);
            let secs = stat.ns as f64 / 1e9;
            [
                Metric::new(format!("{}_us", s.name()), "us", ratio(secs * 1e6, stat.calls as f64)),
                Metric::new(format!("{}_share", s.name()), "ratio", ratio(secs, wall)),
            ]
        })
        .collect()
}
