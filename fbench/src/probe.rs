//! The traced run's instruments: host-time spans recorded by fbench
//! around each call it makes into a layer, and the flight recorder of
//! every simulated machine, armed from outside and drained after each
//! unit of work.
//!
//! Spans live in memory and are written out when the run ends. Disarmed
//! (every untraced round), a site costs one branch.

use fidelius_telemetry::Json;
use fidelius_trace::{export, Recorder, SpanKind, SpanRecord, TraceBuffer};
use std::time::Instant;

/// A call site: one public entry point of one layer that fbench calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    SystemNew,
    SetupBlockDevice,
    DiskBatch,
    ShutdownGuest,
    HcVoid,
    HcShare,
    HcForgedGrant,
    HcMemEncrypt,
    PackageImage,
    BootEncryptedGuest,
    MigrateOut,
    MigrateIn,
    GuestReadGpa,
    GuestWriteGpa,
    Verify,
}

impl Site {
    /// Every site, in declaration order (`site as usize` indexes tables).
    pub const ALL: [Site; 15] = [
        Site::SystemNew,
        Site::SetupBlockDevice,
        Site::DiskBatch,
        Site::ShutdownGuest,
        Site::HcVoid,
        Site::HcShare,
        Site::HcForgedGrant,
        Site::HcMemEncrypt,
        Site::PackageImage,
        Site::BootEncryptedGuest,
        Site::MigrateOut,
        Site::MigrateIn,
        Site::GuestReadGpa,
        Site::GuestWriteGpa,
        Site::Verify,
    ];

    /// `crate.module.call`, the metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Site::SystemNew => "xen.system.new",
            Site::SetupBlockDevice => "xen.system.setup_block_device",
            Site::DiskBatch => "xen.system.disk_batch",
            Site::ShutdownGuest => "xen.system.shutdown_guest",
            Site::HcVoid => "xen.system.hypercall.void",
            Site::HcShare => "xen.system.hypercall.share",
            Site::HcForgedGrant => "xen.system.hypercall.forged_grant",
            Site::HcMemEncrypt => "xen.system.hypercall.mem_encrypt",
            Site::PackageImage => "sev.owner.package_image",
            Site::BootEncryptedGuest => "core.lifecycle.boot_encrypted_guest",
            Site::MigrateOut => "core.migrate.migrate_out",
            Site::MigrateIn => "core.migrate.migrate_in",
            Site::GuestReadGpa => "hw.cpu.guest_read_gpa",
            Site::GuestWriteGpa => "hw.cpu.guest_write_gpa",
            Site::Verify => "bench.verify",
        }
    }
}

/// Every flight-recorder span kind, in the order the metrics list them.
pub const SPAN_KINDS: [SpanKind; 13] = [
    SpanKind::VmExit,
    SpanKind::Hypercall,
    SpanKind::Gate,
    SpanKind::NptWalk,
    SpanKind::GuestWalk,
    SpanKind::TlbRefill,
    SpanKind::MemStream,
    SpanKind::CryptoRun,
    SpanKind::BlkifDrain,
    SpanKind::BlkifRequest,
    SpanKind::EventSend,
    SpanKind::MigratePhase,
    SpanKind::LaunchStep,
];

/// Host spans kept for the Chrome trace; later spans are only counted.
const HOST_SPAN_CAP: usize = 60_000;
/// Flight-recorder spans kept for the Chrome trace.
const MODELED_SPAN_CAP: usize = 60_000;

/// Calls and host nanoseconds spent at one site.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteStat {
    pub calls: u64,
    pub ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct HostSpan {
    name: &'static str,
    begin_ns: u64,
    end_ns: u64,
    /// Index + 1 of the enclosing op span, 0 outside any op.
    parent: usize,
    op: u64,
}

/// Host spans plus the folded flight-recorder output of a traced run.
pub struct Probe {
    /// Whether a traced round is running.
    on: bool,
    epoch: Instant,
    traced: [SiteStat; 15],
    spans: Vec<HostSpan>,
    host_spans_dropped: u64,
    op_id: u64,
    open_op: Option<usize>,
    self_cycles: [f64; 13],
    modeled: Vec<SpanRecord>,
    modeled_next_id: u64,
    modeled_dropped: u64,
    recorder_dropped: u64,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            on: false,
            epoch: Instant::now(),
            traced: [SiteStat::default(); 15],
            spans: Vec::new(),
            host_spans_dropped: 0,
            op_id: 0,
            open_op: None,
            self_cycles: [0.0; 13],
            modeled: Vec::new(),
            modeled_next_id: 1,
            modeled_dropped: 0,
            recorder_dropped: 0,
        }
    }
}

impl Probe {
    /// Whether a traced round is running (new systems must be armed).
    pub fn tracing(&self) -> bool {
        self.on
    }

    /// Starts or stops a traced round.
    pub fn set_tracing(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` as one call of `site`, timing it when a traced round is
    /// running.
    pub fn site<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let begin = Instant::now();
        let r = f();
        let end = Instant::now();
        let stat = &mut self.traced[site as usize];
        stat.calls += 1;
        stat.ns += end.duration_since(begin).as_nanos() as u64;
        let parent = self.open_op.map_or(0, |i| i + 1);
        self.push_span(site.name(), begin, end, parent);
        r
    }

    fn push_span(&mut self, name: &'static str, begin: Instant, end: Instant, parent: usize) {
        if self.spans.len() >= HOST_SPAN_CAP {
            self.host_spans_dropped += 1;
            return;
        }
        self.spans.push(HostSpan {
            name,
            begin_ns: begin.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            parent,
            op: self.op_id,
        });
    }

    /// Opens the root span of one request: every site span until
    /// [`Probe::end_op`] shares its op id and names it as parent.
    pub fn begin_op(&mut self, begin: Instant) {
        self.op_id += 1;
        if !self.on || self.spans.len() >= HOST_SPAN_CAP {
            self.open_op = None;
            return;
        }
        self.open_op = Some(self.spans.len());
        self.push_span("op", begin, begin, 0);
    }

    /// Closes the request opened by [`Probe::begin_op`].
    pub fn end_op(&mut self, end: Instant) {
        if let Some(i) = self.open_op.take() {
            self.spans[i].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
    }

    /// Drains a machine's flight recorder: self cycles are folded by span
    /// kind and the first spans are kept for the modeled Chrome trace.
    pub fn drain(&mut self, rec: &Recorder) {
        let buf = rec.take();
        self.recorder_dropped += buf.dropped;
        if buf.spans.is_empty() {
            return;
        }
        for h in export::hotspots(&buf, usize::MAX) {
            let k = SPAN_KINDS.iter().position(|k| k.as_str() == h.kind).expect("known span kind");
            self.self_cycles[k] += h.self_cycles;
        }
        // Ids are unique per recorder; rebase them so spans drained from
        // several machines stay unique in one trace.
        let min = buf.spans.iter().map(|s| s.id).min().unwrap_or(0);
        let max = buf.spans.iter().map(|s| s.id).max().unwrap_or(0);
        let base = self.modeled_next_id;
        self.modeled_next_id += max - min + 1;
        for mut s in buf.spans {
            if self.modeled.len() >= MODELED_SPAN_CAP {
                self.modeled_dropped += 1;
                continue;
            }
            s.id = s.id - min + base;
            s.parent = if s.parent >= min && s.parent <= max { s.parent - min + base } else { 0 };
            self.modeled.push(s);
        }
    }

    /// Site calls and host time over the traced rounds.
    pub fn traced_stat(&self, site: Site) -> SiteStat {
        self.traced[site as usize]
    }

    /// Modeled self cycles per span kind over the traced rounds.
    pub fn self_cycles(&self) -> &[f64; 13] {
        &self.self_cycles
    }

    /// Flight-recorder spans the machines' rings dropped before a drain.
    pub fn spans_dropped(&self) -> u64 {
        self.recorder_dropped
    }

    /// The host spans as a Chrome `trace_event` document (microseconds of
    /// host wall-clock time since the run started).
    pub fn host_chrome_trace(&self, workload: &str) -> String {
        let mut events = vec![Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(1.0)),
            ("args", Json::obj([("name", Json::str(format!("fbench {workload}")))])),
        ])];
        for s in &self.spans {
            let mut args = vec![("op", Json::Num(s.op as f64))];
            if s.parent > 0 {
                args.push(("parent", Json::str(self.spans[s.parent - 1].name)));
            }
            events.push(Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(if s.name == "op" { "op" } else { "site" })),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.begin_ns as f64 / 1e3)),
                ("dur", Json::Num(s.end_ns.saturating_sub(s.begin_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("args", Json::obj(args)),
            ]));
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ns")),
            (
                "metadata",
                Json::obj([
                    ("clock", Json::str("host-wall-us")),
                    ("spans", Json::Num(self.spans.len() as f64)),
                    ("dropped", Json::Num(self.host_spans_dropped as f64)),
                ]),
            ),
        ])
        .to_string()
    }

    /// The kept flight-recorder spans as a Chrome trace on the modeled
    /// cycle clock (each machine keeps its own clock).
    pub fn modeled_chrome_trace(&self) -> String {
        export::to_chrome_trace(&TraceBuffer {
            spans: self.modeled.clone(),
            dropped: self.modeled_dropped + self.recorder_dropped,
            opened_total: self.modeled_next_id - 1,
        })
    }
}
