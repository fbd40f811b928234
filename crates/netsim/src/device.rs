//! Devices: hosts, switches and hubs, and their ports.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::rc::Rc;

use vw_packet::{Frame, MacAddr, MacMap};

use crate::hook::Hook;
use crate::id::LinkId;
use crate::protocol::{Binding, Protocol};

/// Default bound on a port's transmit queue, in frames. Finite queues are
/// what make throughput saturate realistically at high offered load.
pub const DEFAULT_TX_QUEUE_CAP: usize = 128;

/// One attachment point on a device. Owns the transmit queue and the
/// in-flight frame being serialized.
#[derive(Debug)]
pub(crate) struct Port {
    pub link: Option<LinkId>,
    pub queue: VecDeque<Frame>,
    pub queue_cap: usize,
    pub busy: bool,
    pub in_flight: Option<Frame>,
    /// Frames dropped due to queue overflow.
    pub dropped: u64,
    /// Frames fully transmitted.
    pub tx_frames: u64,
    /// Bytes fully transmitted (frame bytes, excluding preamble/IFG).
    pub tx_bytes: u64,
}

impl Port {
    pub fn new() -> Self {
        Port {
            link: None,
            queue: VecDeque::new(),
            queue_cap: DEFAULT_TX_QUEUE_CAP,
            busy: false,
            in_flight: None,
            dropped: 0,
            tx_frames: 0,
            tx_bytes: 0,
        }
    }
}

/// Public, copyable snapshot of a port's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortStats {
    /// Frames dropped because the transmit queue was full.
    pub dropped: u64,
    /// Frames fully transmitted onto the link.
    pub tx_frames: u64,
    /// Bytes fully transmitted onto the link.
    pub tx_bytes: u64,
    /// Frames currently waiting in the transmit queue.
    pub queued: usize,
}

/// A simulated end host: one NIC, a chain of hooks, and a set of protocol
/// handlers.
pub(crate) struct Host {
    pub name: Rc<str>,
    pub mac: MacAddr,
    pub ip: Ipv4Addr,
    pub port: Port,
    /// Hook chain; index 0 is closest to the protocol stack.
    pub hooks: Vec<Box<dyn Hook>>,
    pub protocols: Vec<(Binding, Box<dyn Protocol>)>,
    /// A failed host neither sends nor receives (used by tests; the FSL
    /// `FAIL` action instead installs a blackhole at the FIE).
    pub failed: bool,
}

impl Host {
    /// The NIC's address filter: a frame addressed to this host, to
    /// broadcast or to a multicast group passes; every other frame a
    /// shared segment carries past the host is refused.
    pub fn accepts(&self, frame: &Frame) -> bool {
        let dst = frame.dst();
        dst == self.mac || dst.is_broadcast() || dst.is_multicast()
    }
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("name", &self.name)
            .field("mac", &self.mac)
            .field("ip", &self.ip)
            .field("hooks", &self.hooks.len())
            .field("protocols", &self.protocols.len())
            .field("failed", &self.failed)
            .finish()
    }
}

/// A store-and-forward learning switch.
#[derive(Debug)]
pub(crate) struct Switch {
    pub name: Rc<str>,
    pub ports: Vec<Port>,
    /// MAC learning table: address → port index.
    pub fdb: MacMap<u16>,
}

/// A dumb hub: every inbound frame is repeated on all other ports.
///
/// This approximates a shared bus as a star of dedicated links; each output
/// port serializes independently, so simultaneous senders are queued rather
/// than collided. Rether's token discipline means at most one station
/// transmits at a time anyway, making the approximation exact in its
/// intended use.
#[derive(Debug)]
pub(crate) struct Hub {
    pub name: Rc<str>,
    pub ports: Vec<Port>,
}

/// The device arena entry.
#[derive(Debug)]
pub(crate) enum Device {
    Host(Host),
    Switch(Switch),
    Hub(Hub),
}

impl Device {
    pub fn port_mut(&mut self, port: u16) -> Option<&mut Port> {
        match self {
            Device::Host(h) => (port == 0).then_some(&mut h.port),
            Device::Switch(s) => s.ports.get_mut(port as usize),
            Device::Hub(h) => h.ports.get_mut(port as usize),
        }
    }

    pub fn port(&self, port: u16) -> Option<&Port> {
        match self {
            Device::Host(h) => (port == 0).then_some(&h.port),
            Device::Switch(s) => s.ports.get(port as usize),
            Device::Hub(h) => h.ports.get(port as usize),
        }
    }

    pub fn name(&self) -> &str {
        match self {
            Device::Host(h) => &h.name,
            Device::Switch(s) => &s.name,
            Device::Hub(h) => &h.name,
        }
    }

    pub fn as_host(&self) -> Option<&Host> {
        match self {
            Device::Host(h) => Some(h),
            _ => None,
        }
    }

    pub fn as_host_mut(&mut self) -> Option<&mut Host> {
        match self {
            Device::Host(h) => Some(h),
            _ => None,
        }
    }

    /// Index of the first unconnected port, if any.
    pub fn free_port(&self) -> Option<u16> {
        match self {
            Device::Host(h) => h.port.link.is_none().then_some(0),
            Device::Switch(s) => s
                .ports
                .iter()
                .position(|p| p.link.is_none())
                .map(|i| i as u16),
            Device::Hub(h) => h
                .ports
                .iter()
                .position(|p| p.link.is_none())
                .map(|i| i as u16),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_free_port_progression() {
        let mut sw = Device::Switch(Switch {
            name: "sw".into(),
            ports: (0..3).map(|_| Port::new()).collect(),
            fdb: MacMap::default(),
        });
        assert_eq!(sw.free_port(), Some(0));
        sw.port_mut(0).unwrap().link = Some(LinkId::from_index(0));
        assert_eq!(sw.free_port(), Some(1));
        sw.port_mut(1).unwrap().link = Some(LinkId::from_index(1));
        sw.port_mut(2).unwrap().link = Some(LinkId::from_index(2));
        assert_eq!(sw.free_port(), None);
    }

    #[test]
    fn host_has_single_port() {
        let host = Device::Host(Host {
            name: "h".into(),
            mac: MacAddr::from_index(1),
            ip: Ipv4Addr::new(10, 0, 0, 1),
            port: Port::new(),
            hooks: Vec::new(),
            protocols: Vec::new(),
            failed: false,
        });
        assert!(host.port(0).is_some());
        assert!(host.port(1).is_none());
        assert_eq!(host.name(), "h");
        assert!(host.as_host().is_some());
    }
}
