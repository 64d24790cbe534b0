//! The event tracer: a cloneable handle that ingests [`Event`]s into a
//! bounded ring buffer while updating the [`Metrics`] registry under the
//! same lock, so the two sinks can never disagree.

use crate::event::{CryptoDir, EncKey, Event};
use crate::json::Json;
use crate::metrics::Metrics;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Default ring capacity (events retained for forensics/tests).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One retained event with its global sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedEvent {
    /// Monotonic sequence number (0-based, never reused).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

impl TracedEvent {
    /// JSON object: the event's members plus `"seq"`.
    pub fn to_json(&self) -> Json {
        match self.event.to_json() {
            Json::Obj(mut pairs) => {
                pairs.insert(0, ("seq".to_string(), Json::Num(self.seq as f64)));
                Json::Obj(pairs)
            }
            other => other,
        }
    }
}

#[derive(Debug)]
struct Inner {
    ring: VecDeque<TracedEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    metrics: Metrics,
    /// An open coalesced crypto run: `(key, dir, bytes_so_far)`.
    open_crypto: Option<(EncKey, CryptoDir, u64)>,
    /// Engine bytes per `(key, dir)` not yet folded into
    /// `metrics.crypto_bytes`, indexed by [`crypto_slot`]: the memory
    /// controller reports every engine pass, and this keeps that path free
    /// of hashing and string compares.
    crypto_tallies: Vec<Option<CryptoTally>>,
}

/// One `(key, dir)`'s `crypto_bytes` registry key, built once, and its
/// bytes since the last fold (`None`: nothing to fold).
#[derive(Debug)]
struct CryptoTally {
    label: (String, CryptoDir),
    unfolded: Option<u64>,
}

/// The dense index of a `(key, dir)` pair: the SME key first, then guest
/// keys by ASID, two directions each.
fn crypto_slot(key: EncKey, dir: CryptoDir) -> usize {
    let key = match key {
        EncKey::Sme => 0,
        EncKey::Guest(asid) => usize::from(asid) + 1,
    };
    2 * key + usize::from(dir == CryptoDir::Decrypt)
}

impl Inner {
    fn add_crypto_bytes(&mut self, key: EncKey, dir: CryptoDir, bytes: u64) {
        let slot = crypto_slot(key, dir);
        if slot >= self.crypto_tallies.len() {
            self.crypto_tallies.resize_with(slot + 1, || None);
        }
        let tally = self.crypto_tallies[slot]
            .get_or_insert_with(|| CryptoTally { label: (key.label(), dir), unfolded: None });
        *tally.unfolded.get_or_insert(0) += bytes;
    }

    /// Folds the unfolded engine bytes into the registry, so a snapshot
    /// reads exactly what adding each call directly would have.
    fn fold_crypto_bytes(&mut self) {
        for tally in self.crypto_tallies.iter_mut().flatten() {
            if let Some(bytes) = tally.unfolded.take() {
                self.metrics.add_crypto_bytes(&tally.label, bytes);
            }
        }
    }

    fn close_crypto_run(&mut self) {
        if let Some((_, dir, bytes)) = self.open_crypto.take() {
            self.metrics.record_crypto_run(dir, bytes);
        }
    }

    fn push(&mut self, event: Event) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TracedEvent { seq: self.next_seq, event });
        self.next_seq += 1;
    }
}

/// A cheaply cloneable tracing handle. All clones share one ring buffer and
/// one metrics registry.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Mutex<Inner>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_RING_CAPACITY)
    }
}

impl Tracer {
    /// A tracer retaining the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer ring needs capacity");
        Tracer {
            inner: Arc::new(Mutex::new(Inner {
                ring: VecDeque::with_capacity(capacity),
                capacity,
                next_seq: 0,
                dropped: 0,
                metrics: Metrics::default(),
                open_crypto: None,
                crypto_tallies: Vec::new(),
            })),
        }
    }

    /// Emits one event: appends to the ring (evicting the oldest when full)
    /// and folds it into the metrics registry.
    pub fn emit(&self, event: Event) {
        let mut inner = self.inner.lock().expect("tracer lock");
        inner.close_crypto_run();
        inner.metrics.observe(&event, 0, 0);
        inner.push(event);
    }

    /// Records memory-controller crypto traffic. Consecutive calls with the
    /// same `(key, dir)` coalesce into one ring event whose `bytes`/`ops`
    /// grow, so a bulk copy is one event, not millions; the byte counters in
    /// the metrics registry always account every call exactly.
    pub fn crypto(&self, key: EncKey, dir: CryptoDir, bytes: u64) {
        let mut guard = self.inner.lock().expect("tracer lock");
        let inner = &mut *guard;
        inner.add_crypto_bytes(key, dir, bytes);
        let event = Event::Crypto { key, dir, bytes, ops: 1 };
        match (&mut inner.open_crypto, inner.ring.back_mut()) {
            (
                Some((open_key, open_dir, run_bytes)),
                Some(TracedEvent { event: Event::Crypto { bytes: b, ops, .. }, .. }),
            ) if *open_key == key && *open_dir == dir => {
                *b += bytes;
                *ops += 1;
                *run_bytes += bytes;
                return;
            }
            _ => {}
        }
        inner.close_crypto_run();
        inner.open_crypto = Some((key, dir, bytes));
        inner.push(event);
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TracedEvent> {
        let mut inner = self.inner.lock().expect("tracer lock");
        inner.close_crypto_run();
        inner.ring.iter().cloned().collect()
    }

    /// Snapshot of the metrics registry.
    pub fn metrics(&self) -> Metrics {
        let mut inner = self.inner.lock().expect("tracer lock");
        inner.close_crypto_run();
        inner.fold_crypto_bytes();
        inner.metrics.clone()
    }

    /// Total events ever emitted (including evicted and coalesced-away).
    pub fn total_emitted(&self) -> u64 {
        self.inner.lock().expect("tracer lock").next_seq
    }

    /// Events evicted from the ring due to capacity.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("tracer lock").dropped
    }

    /// Clears the ring and the metrics (sequence numbers keep increasing).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("tracer lock");
        inner.ring.clear();
        inner.fold_crypto_bytes();
        inner.metrics = Metrics::default();
        inner.open_crypto = None;
    }

    /// The retained events as a JSON-lines document (one object per line),
    /// preceded by a header line `{"trace":"events","retained":...,
    /// "total":...,"dropped":...}` — so a consumer of the artifact can see
    /// ring overflow (`dropped > 0` means the document is a suffix of the
    /// full history) instead of silently reading a truncated record.
    pub fn to_json_lines(&self) -> String {
        let events = self.events();
        let mut out = String::new();
        Json::obj(vec![
            ("trace", Json::str("events")),
            ("retained", Json::Num(events.len() as f64)),
            ("total", Json::Num(self.total_emitted() as f64)),
            ("dropped", Json::Num(self.dropped() as f64)),
        ])
        .write(&mut out);
        out.push('\n');
        for te in events {
            te.to_json().write(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::GateKind;
    use crate::reason::DenialReason;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let t = Tracer::new(3);
        for code in 0..5u64 {
            t.emit(Event::Vmexit { exit_code: code, asid: 1 });
        }
        let events = t.events();
        assert_eq!(events.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.total_emitted(), 5);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(t.metrics().vmexits_total(), 5, "metrics count evicted events too");
    }

    #[test]
    fn crypto_runs_coalesce() {
        let t = Tracer::new(16);
        t.crypto(EncKey::Guest(1), CryptoDir::Encrypt, 64);
        t.crypto(EncKey::Guest(1), CryptoDir::Encrypt, 64);
        t.crypto(EncKey::Guest(1), CryptoDir::Decrypt, 32);
        t.emit(Event::Gate { kind: GateKind::Type2, op: "vmrun" });
        t.crypto(EncKey::Sme, CryptoDir::Encrypt, 16);
        let events = t.events();
        assert_eq!(events.len(), 4, "two runs + gate + one run");
        match &events[0].event {
            Event::Crypto { bytes, ops, .. } => {
                assert_eq!(*bytes, 128);
                assert_eq!(*ops, 2);
            }
            other => panic!("expected crypto, got {other:?}"),
        }
        let m = t.metrics();
        assert_eq!(m.crypto_bytes[&("asid1".to_string(), CryptoDir::Encrypt)], 128);
        assert_eq!(m.crypto_bytes[&("asid1".to_string(), CryptoDir::Decrypt)], 32);
        assert_eq!(m.crypto_bytes[&("sme".to_string(), CryptoDir::Encrypt)], 16);
        // Three closed runs → three histogram samples across directions.
        let samples: u64 = m.crypto_run_bytes.values().map(|h| h.count()).sum();
        assert_eq!(samples, 3);
    }

    /// The cached registry keys must leave the metrics and their JSON
    /// exactly as folding each call through `Metrics::observe` does, with
    /// labels that sort as strings (`asid10` before `asid2`), across a
    /// `clear`.
    #[test]
    fn cached_crypto_labels_match_observed_metrics() {
        use CryptoDir::{Decrypt, Encrypt};
        let calls = [
            (EncKey::Guest(2), Encrypt, 64),
            (EncKey::Guest(2), Encrypt, 16),
            (EncKey::Guest(10), Decrypt, 32),
            (EncKey::Sme, Decrypt, 8),
            (EncKey::Guest(10), Encrypt, 128),
            (EncKey::Guest(2), Decrypt, 4096),
        ];
        let t = Tracer::new(64);
        for pass in 0..2 {
            let mut want = Metrics::default();
            let mut open: Option<(EncKey, CryptoDir, u64)> = None;
            for round in 0..3 {
                for &(key, dir, bytes) in &calls {
                    t.crypto(key, dir, bytes + round);
                    want.observe(&Event::Crypto { key, dir, bytes, ops: 1 }, bytes + round, 1);
                    match &mut open {
                        Some((k, d, run)) if *k == key && *d == dir => *run += bytes + round,
                        _ => {
                            if let Some((_, d, run)) = open.replace((key, dir, bytes + round)) {
                                want.record_crypto_run(d, run);
                            }
                        }
                    }
                }
            }
            if let Some((_, d, run)) = open {
                want.record_crypto_run(d, run);
            }
            let got = t.metrics();
            assert_eq!(got, want, "pass {pass}");
            let (mut got_json, mut want_json) = (String::new(), String::new());
            got.to_json().write(&mut got_json);
            want.to_json().write(&mut want_json);
            assert_eq!(got_json, want_json, "pass {pass}");
            let order: Vec<_> = got.crypto_bytes.keys().map(|(k, _)| k.as_str()).collect();
            assert_eq!(order, ["asid10", "asid10", "asid2", "asid2", "sme"]);
            t.clear();
        }
    }

    /// Unfolded engine bytes reach every snapshot and none survive a
    /// `clear`; a key whose first call carries zero bytes still gets its
    /// entry, as adding each call to the registry directly gives.
    #[test]
    fn crypto_tallies_fold_at_snapshots_and_reset_on_clear() {
        use std::collections::BTreeMap;
        let t = Tracer::new(8);
        let mut want: BTreeMap<(String, CryptoDir), u64> = BTreeMap::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..600u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = match x % 5 {
                0 => EncKey::Sme,
                4 => EncKey::Guest(u16::MAX),
                k => EncKey::Guest(k as u16 * 7),
            };
            let dir = if (x >> 8) & 1 == 0 { CryptoDir::Encrypt } else { CryptoDir::Decrypt };
            let bytes = (x >> 16) % 5 * 64;
            t.crypto(key, dir, bytes);
            *want.entry((key.label(), dir)).or_default() += bytes;
            if step % 37 == 0 {
                t.emit(Event::Vmrun { asid: 1, sev: true });
                assert_eq!(t.metrics().crypto_bytes, want, "step {step}");
            }
            if step % 250 == 249 {
                t.clear();
                want.clear();
                assert!(t.metrics().crypto_bytes.is_empty(), "step {step}");
                t.crypto(EncKey::Guest(3), CryptoDir::Encrypt, 0);
                want.insert(("asid3".to_string(), CryptoDir::Encrypt), 0);
            }
        }
        assert_eq!(t.metrics().crypto_bytes, want);
    }

    #[test]
    fn json_lines_parse_back() {
        let t = Tracer::new(8);
        t.emit(Event::Vmrun { asid: 2, sev: true });
        t.emit(Event::Denial { reason: DenialReason::Cr0WpClear });
        let lines = t.to_json_lines();
        let parsed = Json::parse_lines(&lines).expect("valid json lines");
        assert_eq!(parsed.len(), 3, "header line + two events");
        assert_eq!(parsed[0].get("trace").unwrap().as_str(), Some("events"));
        assert_eq!(parsed[0].get("retained").unwrap().as_u64(), Some(2));
        assert_eq!(parsed[0].get("total").unwrap().as_u64(), Some(2));
        assert_eq!(parsed[0].get("dropped").unwrap().as_u64(), Some(0));
        assert_eq!(parsed[1].get("ev").unwrap().as_str(), Some("vmrun"));
        assert_eq!(parsed[1].get("seq").unwrap().as_u64(), Some(0));
        assert_eq!(parsed[2].get("reason").unwrap().as_str(), Some("CR0.WP cannot be cleared"));
    }

    #[test]
    fn json_lines_header_reports_overflow() {
        let t = Tracer::new(2);
        for code in 0..5u64 {
            t.emit(Event::Vmexit { exit_code: code, asid: 1 });
        }
        let parsed = Json::parse_lines(&t.to_json_lines()).expect("valid json lines");
        assert_eq!(parsed[0].get("retained").unwrap().as_u64(), Some(2));
        assert_eq!(parsed[0].get("total").unwrap().as_u64(), Some(5));
        assert_eq!(parsed[0].get("dropped").unwrap().as_u64(), Some(3));
        // The counters round-trip: retained + dropped == total.
        assert_eq!(parsed.len() as u64 - 1 + 3, 5);
    }

    #[test]
    fn clones_share_state() {
        let t = Tracer::new(4);
        let t2 = t.clone();
        t2.emit(Event::Vmrun { asid: 1, sev: false });
        assert_eq!(t.events().len(), 1);
    }
}
