//! The audit log (paper §5.3: on a write-forbidding violation, Fidelius
//! will "simply impede the write operation, and log this operation for
//! further auditing").
//!
//! Every policy rejection and integrity violation Fidelius makes is
//! recorded with what was attempted and why it was refused; a cloud
//! operator (or the guest owner, via attestation-protected channels)
//! reads this to detect a compromised hypervisor probing its boundaries.
//!
//! The log is a thin consumer of the telemetry event stream: denials are
//! emitted as [`Event::Denial`] through the tracer and the same typed
//! [`DenialReason`] is recorded here via [`AuditLog::ingest`] — the ring
//! buffer, the metrics registry and the audit log can never disagree about
//! what was refused.

use std::collections::VecDeque;
use std::fmt;

pub use fidelius_telemetry::{AuditKind, DenialReason};
use fidelius_telemetry::{Event, VerifyOutcome};

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditEvent {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Classification (always `reason.kind()`).
    pub kind: AuditKind,
    /// Why the operation was refused.
    pub reason: DenialReason,
}

impl AuditEvent {
    /// The legacy reason string (what `reason` used to store directly).
    pub fn reason_str(&self) -> &'static str {
        self.reason.as_str()
    }
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} [{}] {}", self.seq, self.kind, self.reason)
    }
}

/// A bounded in-(protected-)memory audit log.
#[derive(Debug)]
pub struct AuditLog {
    events: VecDeque<AuditEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl Default for AuditLog {
    fn default() -> Self {
        Self::new(1024)
    }
}

impl AuditLog {
    /// A log keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "audit log needs capacity");
        AuditLog { events: VecDeque::with_capacity(capacity), capacity, next_seq: 0, dropped: 0 }
    }

    /// Records a denial, evicting the oldest entry when full. The kind is
    /// derived from the reason — the two can no longer disagree.
    pub fn record(&mut self, reason: DenialReason) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(AuditEvent { seq: self.next_seq, kind: reason.kind(), reason });
        self.next_seq += 1;
    }

    /// Consumes one telemetry event, recording it when it is a denial
    /// (policy denial or failed shadow verification). Returns whether the
    /// event was recorded.
    pub fn ingest(&mut self, event: &Event) -> bool {
        match event {
            Event::Denial { reason } => {
                self.record(*reason);
                true
            }
            Event::ShadowVerify { outcome: VerifyOutcome::Tampered(reason), .. } => {
                self.record(*reason);
                true
            }
            _ => false,
        }
    }

    /// Iterates the retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &AuditEvent> {
        self.events.iter()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count of retained events of a kind.
    pub fn count(&self, kind: AuditKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut log = AuditLog::new(4);
        log.record(DenialReason::PitPolicyViolation);
        log.record(DenialReason::GrantNotAuthorized);
        assert_eq!(log.total(), 2);
        assert_eq!(log.count(AuditKind::PitViolation), 1);
        let first = log.iter().next().unwrap();
        assert_eq!(first.seq, 0);
        assert_eq!(first.to_string(), "#0 [pit] mapping violates PIT policy");
        assert_eq!(first.reason_str(), "mapping violates PIT policy");
    }

    #[test]
    fn bounded_with_eviction() {
        let mut log = AuditLog::new(2);
        for _ in 0..5 {
            log.record(DenialReason::UnknownDomainAtEntry);
        }
        assert_eq!(log.total(), 5);
        assert_eq!(log.dropped(), 3);
        let seqs: Vec<u64> = log.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn kind_is_derived_from_reason() {
        let mut log = AuditLog::new(8);
        log.record(DenialReason::GrantNotAuthorized);
        log.record(DenialReason::Cr0WpClear);
        log.record(DenialReason::RemapPopulatedGpa);
        log.record(DenialReason::VmcbFieldTampered);
        log.record(DenialReason::WriteOnceAlreadyInitialized);
        assert_eq!(log.count(AuditKind::GitViolation), 1);
        assert_eq!(log.count(AuditKind::InstrViolation), 1);
        assert_eq!(log.count(AuditKind::PitViolation), 1);
        assert_eq!(log.count(AuditKind::IntegrityViolation), 1);
        assert_eq!(log.count(AuditKind::OnceViolation), 1);
    }

    #[test]
    fn ingest_consumes_denials_only() {
        let mut log = AuditLog::new(8);
        assert!(log.ingest(&Event::Denial { reason: DenialReason::FrameNotMappable }));
        assert!(log.ingest(&Event::ShadowVerify {
            vmcb_pa: 0x1000,
            outcome: VerifyOutcome::Tampered(DenialReason::GuestRipDiverted),
        }));
        assert!(!log.ingest(&Event::Vmrun { asid: 1, sev: true }));
        assert_eq!(log.total(), 2);
        assert_eq!(log.count(AuditKind::IntegrityViolation), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = AuditLog::new(0);
    }
}
