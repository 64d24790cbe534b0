//! A host-speed reference: a fixed loop of fbench's own, timed between
//! set-up builds and between slices of every round, so host times can be
//! corrected for how fast the host ran at that moment.
//!
//! The host is a VM shared with other tenants, and its speed drifts by
//! tens of percent over tens of seconds (see README.md). The loop is
//! random loads and stores over a buffer larger than a core's L2, so it
//! competes for the shared cache the way the simulator's guest memory,
//! page tables and disk images do. Measured against the workloads, it
//! slows down about as much as they do, where integer mixing or
//! streaming slows down much less and a buffer far larger than the cache
//! much more. It is fbench's own code, so no change to the simulator can
//! move it.

use std::time::Instant;

/// The loop's time on a quiet reference host. Corrected metrics are
/// expressed at this speed.
pub const NOMINAL_S: f64 = 0.003;

/// Words in the loop's buffer (8 MiB).
const WORDS: usize = 1 << 20;

/// Loads and stores per pass.
const ACCESSES: usize = 1_000_000;

pub struct Reference {
    buf: Vec<u64>,
    /// The loop's time at the last measurement.
    last_s: f64,
}

impl Reference {
    /// Sets the loop up and takes the first measurement.
    pub fn new() -> Reference {
        let mut r = Reference { buf: (0..WORDS as u64).collect(), last_s: 0.0 };
        r.last_s = r.measure();
        r
    }

    /// How slow the host ran since the last call (or since `new`): the
    /// mean of the loop's times at both ends over its nominal time.
    /// Above 1 the host ran slow.
    pub fn slowdown(&mut self) -> f64 {
        let now = self.measure();
        let s = (self.last_s + now) / 2.0 / NOMINAL_S;
        self.last_s = now;
        s
    }

    /// Seconds the loop takes now: the fastest of three passes, so the
    /// simulator's use of the cache, which leaves the buffer cold for the
    /// first pass, does not count.
    fn measure(&mut self) -> f64 {
        (0..3).map(|_| self.pass()).fold(f64::INFINITY, f64::min)
    }

    fn pass(&mut self) -> f64 {
        let start = Instant::now();
        // The same pseudo-random addresses every pass, so every pass does
        // the same work.
        let mut at = 12_345usize;
        let mut acc = 0u64;
        for _ in 0..ACCESSES {
            at = at.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let i = (at >> 20) % WORDS;
            acc = acc.wrapping_add(self.buf[i]);
            self.buf[i] = acc;
        }
        std::hint::black_box(&self.buf);
        start.elapsed().as_secs_f64()
    }
}
