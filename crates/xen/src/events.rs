//! Event channels: Xen's virtual interrupt/notification mechanism.
//!
//! Ports are bound between two domains; sending on a port queues a pending
//! notification for the peer. The PV block device uses one port per
//! direction (front-end kicks the back-end and vice versa).

use crate::domain::DomainId;
use fidelius_hw::fxhash::FxBuildHasher;
use std::collections::HashMap;

/// An event-channel port number.
pub type Port = u32;

/// The event-channel switchboard.
#[derive(Debug, Default)]
pub struct EventChannels {
    bindings: HashMap<(DomainId, Port), DomainId, FxBuildHasher>,
    pending: HashMap<DomainId, Vec<Port>, FxBuildHasher>,
    next_port: Port,
}

impl EventChannels {
    /// Empty switchboard.
    pub fn new() -> Self {
        EventChannels { next_port: 1, ..Default::default() }
    }

    /// Binds a fresh port between `a` and `b` (bidirectional: each side
    /// sending on the port notifies the other). Returns the port.
    pub fn bind(&mut self, a: DomainId, b: DomainId) -> Port {
        let port = self.next_port;
        self.next_port += 1;
        self.bindings.insert((a, port), b);
        self.bindings.insert((b, port), a);
        port
    }

    /// Domain `from` sends on `port`; the peer gets a pending event.
    /// Returns the notified domain, or `None` for an unbound port.
    pub fn send(&mut self, from: DomainId, port: Port) -> Option<DomainId> {
        let peer = *self.bindings.get(&(from, port))?;
        self.pending.entry(peer).or_default().push(port);
        Some(peer)
    }

    /// Takes all pending events for a domain.
    pub fn drain(&mut self, dom: DomainId) -> Vec<Port> {
        self.pending.remove(&dom).unwrap_or_default()
    }

    /// Whether a domain has pending events.
    pub fn has_pending(&self, dom: DomainId) -> bool {
        self.pending.get(&dom).is_some_and(|v| !v.is_empty())
    }

    /// Removes every binding that involves `dom` (domain teardown).
    pub fn unbind_domain(&mut self, dom: DomainId) {
        self.bindings.retain(|(d, _), peer| *d != dom && *peer != dom);
        self.pending.remove(&dom);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_send_drain() {
        let mut ev = EventChannels::new();
        let p = ev.bind(DomainId(1), DomainId(0));
        assert_eq!(ev.send(DomainId(1), p), Some(DomainId(0)));
        assert!(ev.has_pending(DomainId(0)));
        assert_eq!(ev.drain(DomainId(0)), vec![p]);
        assert!(!ev.has_pending(DomainId(0)));
        // Reverse direction works too.
        assert_eq!(ev.send(DomainId(0), p), Some(DomainId(1)));
        assert_eq!(ev.drain(DomainId(1)), vec![p]);
    }

    #[test]
    fn unbound_port_is_none() {
        let mut ev = EventChannels::new();
        assert_eq!(ev.send(DomainId(1), 99), None);
    }

    #[test]
    fn unbind_domain_clears() {
        let mut ev = EventChannels::new();
        let p = ev.bind(DomainId(1), DomainId(0));
        ev.unbind_domain(DomainId(1));
        assert_eq!(ev.send(DomainId(0), p), None);
        assert_eq!(ev.send(DomainId(1), p), None);
    }

    #[test]
    fn ports_are_unique() {
        let mut ev = EventChannels::new();
        let p1 = ev.bind(DomainId(1), DomainId(0));
        let p2 = ev.bind(DomainId(2), DomainId(0));
        assert_ne!(p1, p2);
    }
}
