//! Order statistics, the deterministic counter ledger and the modeled
//! digest.

use fidelius_crypto::sha256::Sha256;
use fidelius_hw::cpu::Machine;
use fidelius_telemetry::event::CryptoDir;
use fidelius_xen::hypercall::HC_EVTCHN_SEND;
use fidelius_xen::System;

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles by the same rule as Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method), so
    /// the spreads printed here match what a Python check computes. One
    /// value gives all three quartiles equal to it.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("sample values are not NaN"));
        let n = v.len();
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        if n == 1 {
            return Quartiles { q1: v[0], median, q3: v[0] };
        }
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles { q1: cut(1), median, q3: cut(3) }
    }
}

/// The `p`-th percentile (nearest rank) of `samples`, reordering them.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(idx).1
}

/// Every deterministic counter one machine exports, in a fixed order.
/// Cycle totals stay `f64` so the digest can hash their exact bits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub cycles: [f64; 6],
    pub tlb_hits: u64,
    pub tlb_misses: u64,
    pub tlb_evictions: u64,
    pub tlb_flushes: u64,
    pub pt_walks: u64,
    pub vmexits: u64,
    pub vmruns: u64,
    pub hypercalls: u64,
    pub evtchn_sends: u64,
    pub grant_ops: u64,
    pub gates: [u64; 3],
    pub shadow_captures: u64,
    pub shadow_tampered: u64,
    pub policy_allowed: u64,
    pub policy_denied: u64,
    pub encrypt_bytes: u64,
    pub decrypt_bytes: u64,
    pub events_dropped: u64,
}

impl Counts {
    /// The machine's counters right now.
    pub fn of(m: &Machine) -> Counts {
        let snap = m.telemetry_snapshot();
        let mx = &snap.metrics;
        let crypto = |dir: CryptoDir| -> u64 {
            mx.crypto_bytes.iter().filter(|((_, d), _)| *d == dir).map(|(_, v)| v).sum()
        };
        Counts {
            cycles: snap.cycles.by_category,
            tlb_hits: mx.tlb_hits,
            tlb_misses: mx.tlb_misses,
            tlb_evictions: mx.tlb_evictions,
            tlb_flushes: mx.tlb_flushes.values().sum(),
            pt_walks: mx.pt_walks,
            vmexits: mx.vmexits_total(),
            vmruns: mx.vmruns,
            hypercalls: mx.hypercalls_by_nr.values().sum(),
            evtchn_sends: mx.hypercalls_by_nr.get(&HC_EVTCHN_SEND).copied().unwrap_or(0),
            grant_ops: mx.grant_ops.values().sum(),
            gates: mx.gates_by_type,
            shadow_captures: mx.shadow_captures,
            shadow_tampered: mx.shadow_verify_tampered,
            policy_allowed: mx.decisions_allowed.values().sum(),
            policy_denied: mx.decisions_denied.values().sum(),
            encrypt_bytes: crypto(CryptoDir::Encrypt),
            decrypt_bytes: crypto(CryptoDir::Decrypt),
            events_dropped: snap.events_dropped,
        }
    }

    fn ints(&self) -> [u64; 20] {
        [
            self.tlb_hits,
            self.tlb_misses,
            self.tlb_evictions,
            self.tlb_flushes,
            self.pt_walks,
            self.vmexits,
            self.vmruns,
            self.hypercalls,
            self.evtchn_sends,
            self.grant_ops,
            self.gates[0],
            self.gates[1],
            self.gates[2],
            self.shadow_captures,
            self.shadow_tampered,
            self.policy_allowed,
            self.policy_denied,
            self.encrypt_bytes,
            self.decrypt_bytes,
            self.events_dropped,
        ]
    }

    fn from_parts(cycles: [f64; 6], i: [u64; 20]) -> Counts {
        Counts {
            cycles,
            tlb_hits: i[0],
            tlb_misses: i[1],
            tlb_evictions: i[2],
            tlb_flushes: i[3],
            pt_walks: i[4],
            vmexits: i[5],
            vmruns: i[6],
            hypercalls: i[7],
            evtchn_sends: i[8],
            grant_ops: i[9],
            gates: [i[10], i[11], i[12]],
            shadow_captures: i[13],
            shadow_tampered: i[14],
            policy_allowed: i[15],
            policy_denied: i[16],
            encrypt_bytes: i[17],
            decrypt_bytes: i[18],
            events_dropped: i[19],
        }
    }

    fn zip(&self, o: &Counts, f: impl Fn(f64, f64) -> f64, g: impl Fn(u64, u64) -> u64) -> Counts {
        let (a, b) = (self.ints(), o.ints());
        Counts::from_parts(
            std::array::from_fn(|k| f(self.cycles[k], o.cycles[k])),
            std::array::from_fn(|k| g(a[k], b[k])),
        )
    }

    /// Field-wise sum.
    pub fn plus(&self, o: &Counts) -> Counts {
        self.zip(o, |a, b| a + b, |a, b| a + b)
    }

    /// Field-wise difference (`self` is the later reading).
    pub fn minus(&self, o: &Counts) -> Counts {
        self.zip(o, |a, b| a - b, u64::wrapping_sub)
    }

    /// The sum of the cycle categories in the machine's canonical order.
    pub fn total_cycles(&self) -> f64 {
        self.cycles.iter().sum()
    }

    /// Whether two readings agree bit for bit.
    pub fn same_bits(&self, o: &Counts) -> bool {
        self.ints() == o.ints()
            && self.cycles.iter().zip(&o.cycles).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    fn absorb(&self, h: &mut Sha256) {
        for c in self.cycles {
            h.update(&c.to_bits().to_le_bytes());
        }
        for v in self.ints() {
            h.update(&v.to_le_bytes());
        }
    }
}

/// What the run has committed to, across every system it ever used:
/// counters of retired systems, the modeled digest and the checksum of
/// everything read back.
pub struct Ledger {
    retired: Counts,
    digest: Sha256,
    readback: u64,
    /// Heap frames gone from retired systems since they started serving.
    pub heap_leaked: u64,
    /// Domains destroyed (shut down or migrated away).
    pub domains_destroyed: u64,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            retired: Counts::default(),
            digest: Sha256::new(),
            readback: 0xCBF2_9CE4_8422_2325,
            heap_leaked: 0,
            domains_destroyed: 0,
        }
    }
}

impl Ledger {
    /// Folds a value the guest read back (already verified equal to what
    /// was written) into the read-back checksum.
    pub fn read_back(&mut self, tag: u64) {
        self.readback = (self.readback ^ tag).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Books a system that stops serving: its counters join the totals,
    /// its final state joins the digest, its heap loss joins the leak.
    pub fn retire(&mut self, host: &Host) {
        let c = Counts::of(&host.sys.plat.machine);
        c.absorb(&mut self.digest);
        self.retired = self.retired.plus(&c);
        self.heap_leaked += host.heap_lost();
    }

    /// Counter totals over retired systems plus the live ones.
    pub fn totals<'a>(&self, live: impl IntoIterator<Item = &'a Host>) -> Counts {
        live.into_iter()
            .fold(self.retired.clone(), |acc, h| acc.plus(&Counts::of(&h.sys.plat.machine)))
    }

    /// Retires the live systems and returns the digest as hex.
    pub fn finish<'a>(mut self, live: impl IntoIterator<Item = &'a Host>) -> String {
        for h in live {
            self.retire(h);
        }
        self.digest.update(&self.readback.to_le_bytes());
        self.digest.finalize()[..16].iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// A system the benchmark drives, with the heap level it started from.
pub struct Host {
    pub sys: System,
    heap_start: u64,
}

impl Host {
    /// Takes over a system in the state it should serve from.
    pub fn new(sys: System) -> Host {
        let heap_start = sys.xen.heap.free_count();
        Host { sys, heap_start }
    }

    /// Heap frames allocated since [`Host::new`] and not returned.
    pub fn heap_lost(&self) -> u64 {
        self.heap_start.saturating_sub(self.sys.xen.heap.free_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(Quartiles::of(&v), Quartiles { q1: 2.75, median: 5.5, q3: 8.25 });
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(Quartiles::of(&v), Quartiles { q1: 1.5, median: 3.0, q3: 4.5 });
        assert_eq!(Quartiles::of(&[7.0]).q3, 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 5);
        assert_eq!(percentile(&mut v, 90.0), 9);
        assert_eq!(percentile(&mut v, 100.0), 10);
    }
}
