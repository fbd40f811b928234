//! Identifier newtypes for simulator entities.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// The raw index value.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a raw index (for table lookups and tests).
            pub const fn from_index(index: usize) -> Self {
                $name(index as u32)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies any device (host, switch, or hub) in a [`World`](crate::World).
    DeviceId,
    "dev"
);
id_type!(
    /// Identifies a link between two device ports.
    LinkId,
    "link"
);
id_type!(
    /// Identifies a protocol handler installed on a host.
    ProtocolId,
    "proto"
);
id_type!(
    /// Identifies a hook installed in a host's driver/stack interposition
    /// chain.
    HookId,
    "hook"
);

/// Identifies a pending timer; returned by
/// [`Context::set_timer`](crate::Context::set_timer) and usable with
/// [`Context::cancel_timer`](crate::Context::cancel_timer).
///
/// A handle into the event queue's slab: the cell, and which of the
/// cell's successive tenants this timer is. Once the timer fires or is
/// cancelled the id matches nothing, so cancelling it again is a no-op
/// even after the cell is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

/// A specific port on a specific device — one end of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// The device owning the port.
    pub device: DeviceId,
    /// The port number on that device (hosts have a single port 0).
    pub port: u16,
}

impl PortRef {
    /// Creates a port reference.
    pub const fn new(device: DeviceId, port: u16) -> Self {
        PortRef { device, port }
    }
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.device, self.port)
    }
}

/// The handler a timer or start event is addressed to: a protocol above the
/// stack or a hook in the interposition chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HandlerRef {
    /// A protocol handler.
    Protocol(ProtocolId),
    /// A hook in the chain.
    Hook(HookId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_round_trip() {
        let d = DeviceId::from_index(3);
        assert_eq!(d.index(), 3);
        assert_eq!(format!("{d}"), "dev3");
        assert_eq!(format!("{d:?}"), "dev3");
    }

    #[test]
    fn port_ref_display() {
        let p = PortRef::new(DeviceId::from_index(1), 4);
        assert_eq!(p.to_string(), "dev1:4");
    }

    #[test]
    fn handler_ref_distinguishes() {
        let a = HandlerRef::Protocol(ProtocolId::from_index(0));
        let b = HandlerRef::Hook(HookId::from_index(0));
        assert_ne!(a, b);
    }
}
