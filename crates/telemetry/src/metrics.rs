//! The metrics registry: counters and simple histograms derived from the
//! event stream.
//!
//! `Metrics::observe` is called by the tracer for every emitted event, so
//! the registry can never disagree with the ring buffer. Hot-path inputs
//! that are too frequent to trace per-operation (TLB lookups) are folded in
//! at snapshot time via [`Metrics::set_tlb`].

use crate::event::{CryptoDir, Event, GateKind};
use crate::json::Json;
use crate::reason::AuditKind;
use std::collections::BTreeMap;

/// A power-of-two-bucket histogram (bucket *i* counts values in
/// `[2^(i-1), 2^i)`, bucket 0 counts zero and one).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 64], count: 0, sum: 0, min: 0, max: 0 }
    }
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket.min(63)] += 1;
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty `(bucket_upper_bound_exclusive, count)` pairs.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1u64.checked_shl(i as u32).unwrap_or(u64::MAX), c))
    }

    /// Folds another histogram in, as if every value it recorded had been
    /// recorded here too. Bucket counts, count and sum add; min/max widen.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        for (b, ob) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += ob;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Compact JSON summary.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum as f64)),
            ("min", Json::Num(self.min as f64)),
            ("max", Json::Num(self.max as f64)),
            ("mean", Json::Num(self.mean())),
        ])
    }
}

/// The counter/histogram registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// VMRUN count.
    pub vmruns: u64,
    /// VMEXITs by raw exit code.
    pub vmexits_by_code: BTreeMap<u64, u64>,
    /// Hypercalls by number.
    pub hypercalls_by_nr: BTreeMap<u64, u64>,
    /// Gate round trips by type (index = `GateKind::index()`).
    pub gates_by_type: [u64; 3],
    /// Policy denials by audit kind.
    pub denials_by_kind: BTreeMap<AuditKind, u64>,
    /// Policy decisions (allowed) by policy object label.
    pub decisions_allowed: BTreeMap<&'static str, u64>,
    /// Policy decisions (denied) by policy object label.
    pub decisions_denied: BTreeMap<&'static str, u64>,
    /// Shadow captures performed.
    pub shadow_captures: u64,
    /// Shadow verifications that passed.
    pub shadow_verify_clean: u64,
    /// Shadow verifications that failed.
    pub shadow_verify_tampered: u64,
    /// TLB flushes by scope label ("entry"/"space"/"full").
    pub tlb_flushes: BTreeMap<&'static str, u64>,
    /// TLB lookup hits (folded in from the hardware model at snapshot time).
    pub tlb_hits: u64,
    /// TLB lookup misses (folded in at snapshot time).
    pub tlb_misses: u64,
    /// TLB entries displaced by capacity pressure (folded in at snapshot
    /// time; flushes are counted separately under `tlb_flushes`).
    pub tlb_evictions: u64,
    /// Page-table walks performed on TLB misses (folded in at snapshot
    /// time; a guest-virtual miss walks both the GPT and the NPT).
    pub pt_walks: u64,
    /// Bytes moved through the crypto engine, by key label and direction.
    pub crypto_bytes: BTreeMap<(String, CryptoDir), u64>,
    /// Distribution of per-run coalesced crypto sizes, by direction.
    pub crypto_run_bytes: BTreeMap<CryptoDir, Histogram>,
    /// Grant operations by action label.
    pub grant_ops: BTreeMap<&'static str, u64>,
    /// Injected faults by taxonomy kind.
    pub faults_injected: BTreeMap<crate::event::FaultKind, u64>,
    /// Fault outcomes by (kind, outcome label) — "tolerated",
    /// "tolerated-after-retry" or "fail-closed".
    pub fault_outcomes: BTreeMap<(crate::event::FaultKind, &'static str), u64>,
    /// Scripted-attack verdicts by (attack name, outcome cell label).
    pub attack_outcomes: BTreeMap<(&'static str, &'static str), u64>,
}

impl Metrics {
    /// Folds one event into the counters. Called by the tracer under its
    /// lock; `delta_bytes`/`delta_ops` carry the increment for coalesced
    /// [`Event::Crypto`] updates (for every other event they are ignored).
    pub(crate) fn observe(&mut self, event: &Event, delta_bytes: u64, delta_ops: u64) {
        match event {
            Event::Vmrun { .. } => self.vmruns += 1,
            Event::Vmexit { exit_code, .. } => {
                *self.vmexits_by_code.entry(*exit_code).or_default() += 1;
            }
            Event::Hypercall { nr, .. } => {
                *self.hypercalls_by_nr.entry(*nr).or_default() += 1;
            }
            Event::Gate { kind, .. } => self.gates_by_type[kind.index()] += 1,
            Event::Decision { object, allowed, .. } => {
                let map =
                    if *allowed { &mut self.decisions_allowed } else { &mut self.decisions_denied };
                *map.entry(object.as_str()).or_default() += 1;
            }
            Event::Denial { reason } => {
                *self.denials_by_kind.entry(reason.kind()).or_default() += 1;
            }
            Event::ShadowCapture { .. } => self.shadow_captures += 1,
            Event::ShadowVerify { outcome, .. } => match outcome {
                crate::event::VerifyOutcome::Clean => self.shadow_verify_clean += 1,
                crate::event::VerifyOutcome::Tampered(_) => self.shadow_verify_tampered += 1,
            },
            Event::TlbFlush { scope } => {
                let label = match scope {
                    crate::event::FlushScope::Entry { .. } => "entry",
                    crate::event::FlushScope::Space { .. } => "space",
                    crate::event::FlushScope::Full => "full",
                };
                *self.tlb_flushes.entry(label).or_default() += 1;
            }
            Event::Crypto { key, dir, .. } => {
                *self.crypto_bytes.entry((key.label(), *dir)).or_default() += delta_bytes;
                let _ = delta_ops;
            }
            Event::Grant { action, .. } => {
                *self.grant_ops.entry(action.as_str()).or_default() += 1;
            }
            Event::FaultInjected { kind, .. } => {
                *self.faults_injected.entry(*kind).or_default() += 1;
            }
            Event::FaultOutcome { kind, outcome } => {
                let label = match outcome {
                    crate::event::InjectionOutcome::Tolerated => "tolerated",
                    crate::event::InjectionOutcome::ToleratedAfterRetry(_) => {
                        "tolerated-after-retry"
                    }
                    crate::event::InjectionOutcome::FailClosed(_) => "fail-closed",
                    crate::event::InjectionOutcome::Corrupted => "corrupted",
                };
                *self.fault_outcomes.entry((*kind, label)).or_default() += 1;
            }
            Event::AttackOutcome { attack, outcome, .. } => {
                *self.attack_outcomes.entry((attack, outcome)).or_default() += 1;
            }
        }
    }

    /// Adds engine bytes under an already-built `crypto_bytes` key — the
    /// [`Event::Crypto`] arm of [`Metrics::observe`] without rendering the
    /// key label on every call.
    pub(crate) fn add_crypto_bytes(&mut self, key: &(String, CryptoDir), bytes: u64) {
        match self.crypto_bytes.get_mut(key) {
            Some(total) => *total += bytes,
            None => {
                self.crypto_bytes.insert(key.clone(), bytes);
            }
        }
    }

    /// Records a finished coalesced crypto run into the size histogram.
    pub(crate) fn record_crypto_run(&mut self, dir: CryptoDir, bytes: u64) {
        self.crypto_run_bytes.entry(dir).or_default().record(bytes);
    }

    /// Folds hardware TLB lookup counters in (call before reading/reporting).
    pub fn set_tlb(&mut self, hits: u64, misses: u64) {
        self.tlb_hits = hits;
        self.tlb_misses = misses;
    }

    /// Folds the full hardware TLB counter set in, including eviction and
    /// page-table-walk counts (call before reading/reporting).
    pub fn set_tlb_counters(&mut self, hits: u64, misses: u64, evictions: u64, walks: u64) {
        self.tlb_hits = hits;
        self.tlb_misses = misses;
        self.tlb_evictions = evictions;
        self.pt_walks = walks;
    }

    /// Folds another registry in: every counter family adds, histograms
    /// merge. The result equals observing the concatenation of both event
    /// streams, so a sweep can give each worker its own registry and fold
    /// the per-case registries back together **in case-index order** —
    /// u64 addition is associative, but fixed fold order keeps reports
    /// byte-identical at any thread count by construction, not by
    /// argument.
    pub fn merge(&mut self, other: &Metrics) {
        self.vmruns += other.vmruns;
        for (k, v) in &other.vmexits_by_code {
            *self.vmexits_by_code.entry(*k).or_default() += v;
        }
        for (k, v) in &other.hypercalls_by_nr {
            *self.hypercalls_by_nr.entry(*k).or_default() += v;
        }
        for (g, og) in self.gates_by_type.iter_mut().zip(other.gates_by_type.iter()) {
            *g += og;
        }
        for (k, v) in &other.denials_by_kind {
            *self.denials_by_kind.entry(*k).or_default() += v;
        }
        for (k, v) in &other.decisions_allowed {
            *self.decisions_allowed.entry(k).or_default() += v;
        }
        for (k, v) in &other.decisions_denied {
            *self.decisions_denied.entry(k).or_default() += v;
        }
        self.shadow_captures += other.shadow_captures;
        self.shadow_verify_clean += other.shadow_verify_clean;
        self.shadow_verify_tampered += other.shadow_verify_tampered;
        for (k, v) in &other.tlb_flushes {
            *self.tlb_flushes.entry(k).or_default() += v;
        }
        self.tlb_hits += other.tlb_hits;
        self.tlb_misses += other.tlb_misses;
        self.tlb_evictions += other.tlb_evictions;
        self.pt_walks += other.pt_walks;
        for (k, v) in &other.crypto_bytes {
            *self.crypto_bytes.entry(k.clone()).or_default() += v;
        }
        for (dir, h) in &other.crypto_run_bytes {
            self.crypto_run_bytes.entry(*dir).or_default().merge(h);
        }
        for (k, v) in &other.grant_ops {
            *self.grant_ops.entry(k).or_default() += v;
        }
        for (k, v) in &other.faults_injected {
            *self.faults_injected.entry(*k).or_default() += v;
        }
        for (k, v) in &other.fault_outcomes {
            *self.fault_outcomes.entry(*k).or_default() += v;
        }
        for (k, v) in &other.attack_outcomes {
            *self.attack_outcomes.entry(*k).or_default() += v;
        }
    }

    /// Total gate round trips across all types.
    pub fn gates_total(&self) -> u64 {
        self.gates_by_type.iter().sum()
    }

    /// Total VMEXITs across all exit codes.
    pub fn vmexits_total(&self) -> u64 {
        self.vmexits_by_code.values().sum()
    }

    /// Total denials across all kinds.
    pub fn denials_total(&self) -> u64 {
        self.denials_by_kind.values().sum()
    }

    /// Gate count for one type.
    pub fn gates(&self, kind: GateKind) -> u64 {
        self.gates_by_type[kind.index()]
    }

    /// JSON object with every counter family.
    pub fn to_json(&self) -> Json {
        let map_u64 = |m: &BTreeMap<u64, u64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.to_string(), Json::Num(*v as f64))).collect())
        };
        let map_str = |m: &BTreeMap<&'static str, u64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.to_string(), Json::Num(*v as f64))).collect())
        };
        Json::obj([
            ("vmruns", Json::Num(self.vmruns as f64)),
            ("vmexits_by_code", map_u64(&self.vmexits_by_code)),
            ("hypercalls_by_nr", map_u64(&self.hypercalls_by_nr)),
            (
                "gates_by_type",
                Json::Obj(
                    [GateKind::Type1, GateKind::Type2, GateKind::Type3]
                        .iter()
                        .map(|k| {
                            (
                                k.as_str().to_string(),
                                Json::Num(self.gates_by_type[k.index()] as f64),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "denials_by_kind",
                Json::Obj(
                    self.denials_by_kind
                        .iter()
                        .map(|(k, v)| (k.as_str().to_string(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            ("decisions_allowed", map_str(&self.decisions_allowed)),
            ("decisions_denied", map_str(&self.decisions_denied)),
            ("shadow_captures", Json::Num(self.shadow_captures as f64)),
            ("shadow_verify_clean", Json::Num(self.shadow_verify_clean as f64)),
            ("shadow_verify_tampered", Json::Num(self.shadow_verify_tampered as f64)),
            ("tlb_flushes", map_str(&self.tlb_flushes)),
            ("tlb_hits", Json::Num(self.tlb_hits as f64)),
            ("tlb_misses", Json::Num(self.tlb_misses as f64)),
            ("tlb_evictions", Json::Num(self.tlb_evictions as f64)),
            ("pt_walks", Json::Num(self.pt_walks as f64)),
            (
                "crypto_bytes",
                Json::Obj(
                    self.crypto_bytes
                        .iter()
                        .map(|((key, dir), v)| {
                            (format!("{key}/{}", dir.as_str()), Json::Num(*v as f64))
                        })
                        .collect(),
                ),
            ),
            (
                "crypto_run_bytes",
                Json::Obj(
                    self.crypto_run_bytes
                        .iter()
                        .map(|(dir, h)| (dir.as_str().to_string(), h.to_json()))
                        .collect(),
                ),
            ),
            ("grant_ops", map_str(&self.grant_ops)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EncKey, FlushScope};
    use crate::reason::DenialReason;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.mean(), 206.0);
        let buckets: Vec<_> = h.buckets().collect();
        // 0 and 1 land in bucket 0 (bound 1); 2 and 3 in bucket 2 (bound 4)?
        // leading_zeros math: value 1 → bucket 1, value 0 → bucket 0,
        // 2..=3 → bucket 2, 1024 → bucket 11.
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), 5);
    }

    #[test]
    fn histogram_merge_matches_joint_recording() {
        let (mut a, mut b, mut joint) =
            (Histogram::default(), Histogram::default(), Histogram::default());
        for v in [3u64, 9, 1024] {
            a.record(v);
            joint.record(v);
        }
        for v in [0u64, 7, 1 << 40] {
            b.record(v);
            joint.record(v);
        }
        a.merge(&b);
        assert_eq!(a, joint);
        // Merging an empty histogram is a no-op, both ways.
        let empty = Histogram::default();
        a.merge(&empty);
        assert_eq!(a, joint);
        let mut from_empty = Histogram::default();
        from_empty.merge(&joint);
        assert_eq!(from_empty, joint);
    }

    #[test]
    fn metrics_merge_matches_joint_observation() {
        let stream_a = [
            Event::Vmrun { asid: 1, sev: true },
            Event::Vmexit { exit_code: 0x81, asid: 1 },
            Event::Gate { kind: GateKind::Type1, op: "npt-write" },
            Event::Denial { reason: DenialReason::RemapPopulatedGpa },
        ];
        let stream_b = [
            Event::Vmexit { exit_code: 0x81, asid: 2 },
            Event::Vmexit { exit_code: 0x60, asid: 2 },
            Event::Gate { kind: GateKind::Type3, op: "vmrun" },
            Event::TlbFlush { scope: FlushScope::Full },
        ];
        let (mut a, mut b, mut joint) =
            (Metrics::default(), Metrics::default(), Metrics::default());
        for e in &stream_a {
            a.observe(e, 0, 0);
            joint.observe(e, 0, 0);
        }
        for e in &stream_b {
            b.observe(e, 0, 0);
            joint.observe(e, 0, 0);
        }
        a.set_tlb_counters(10, 2, 1, 3);
        joint.set_tlb_counters(10, 2, 1, 3);
        b.set_tlb_counters(5, 1, 0, 1);
        joint.tlb_hits += 5;
        joint.tlb_misses += 1;
        joint.pt_walks += 1;
        let crypto =
            Event::Crypto { key: EncKey::Guest(2), dir: CryptoDir::Encrypt, bytes: 64, ops: 1 };
        b.observe(&crypto, 64, 1);
        joint.observe(&crypto, 64, 1);
        b.record_crypto_run(CryptoDir::Encrypt, 64);
        joint.record_crypto_run(CryptoDir::Encrypt, 64);

        a.merge(&b);
        assert_eq!(a, joint);
        assert_eq!(a.vmexits_total(), 3);
        assert_eq!(a.gates_total(), 2);
    }

    #[test]
    fn observe_updates_counters() {
        let mut m = Metrics::default();
        m.observe(&Event::Vmrun { asid: 1, sev: true }, 0, 0);
        m.observe(&Event::Vmexit { exit_code: 0x81, asid: 1 }, 0, 0);
        m.observe(&Event::Vmexit { exit_code: 0x81, asid: 1 }, 0, 0);
        m.observe(&Event::Gate { kind: GateKind::Type1, op: "npt-write" }, 0, 0);
        m.observe(&Event::Denial { reason: DenialReason::RemapPopulatedGpa }, 0, 0);
        m.observe(&Event::TlbFlush { scope: FlushScope::Full }, 0, 0);
        m.observe(
            &Event::Crypto { key: EncKey::Guest(1), dir: CryptoDir::Encrypt, bytes: 4096, ops: 1 },
            4096,
            1,
        );
        assert_eq!(m.vmruns, 1);
        assert_eq!(m.vmexits_total(), 2);
        assert_eq!(m.vmexits_by_code[&0x81], 2);
        assert_eq!(m.gates(GateKind::Type1), 1);
        assert_eq!(m.denials_by_kind[&AuditKind::PitViolation], 1);
        assert_eq!(m.tlb_flushes["full"], 1);
        assert_eq!(m.crypto_bytes[&("asid1".to_string(), CryptoDir::Encrypt)], 4096);
        let j = m.to_json();
        assert_eq!(j.get("vmruns").unwrap().as_u64(), Some(1));
        assert!(j.get("crypto_bytes").unwrap().get("asid1/encrypt").is_some());
    }
}
