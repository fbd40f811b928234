//! The Reliable Link Layer (RLL) of the VirtualWire reproduction.
//!
//! VirtualWire must present a *fully controlled* fault environment: every
//! packet drop an experiment observes has to be one the Fault Injection
//! Engine injected. Real wires disagree — MAC-level bit errors drop frames
//! behind the FIE's back. The paper's answer (Section 3.3) is a Reliable
//! Link Layer below the FIE: a simple sliding-window protocol that
//! guarantees delivery of every frame handed to it.
//!
//! This crate implements that layer as a [`RllHook`] for the simulator's
//! hook chain and a checksummed [`wire`] format (the checksum stands in for
//! the Ethernet FCS so corrupted frames are detected and retransmitted
//! rather than silently delivered). The hook runs go-back-N on [`window`],
//! the workspace's one sans-IO ARQ core, which the engine's control plane
//! runs too, with a reorder window.
//!
//! # Example
//!
//! Two hosts on a lossy link still deliver every frame, in order, because
//! the RLL retransmits under the hood:
//!
//! ```
//! use vw_netsim::{Binding, ErrorModel, LinkConfig, SimDuration, World};
//! use vw_netsim::apps::{UdpFlooder, UdpSink};
//! use vw_packet::EtherType;
//! use vw_rll::{RllConfig, RllHook};
//!
//! let mut world = World::new(11);
//! let a = world.add_host("a");
//! let b = world.add_host("b");
//! world.connect(a, b, LinkConfig::fast_ethernet().errors(ErrorModel::lossy(0.2)));
//! for h in [a, b] {
//!     world.add_hook(h, Box::new(RllHook::new(RllConfig::default())));
//! }
//! let sink = world.add_protocol(b, Binding::EtherType(EtherType::IPV4),
//!     Box::new(UdpSink::new(9)));
//! let flooder = UdpFlooder::new(world.host_mac(b), world.host_ip(b), 9, 9000,
//!     5_000_000, 500, 25_000);
//! world.add_protocol(a, Binding::EtherType(EtherType::IPV4), Box::new(flooder));
//! world.run_for(SimDuration::from_secs(1));
//! let sink = world.protocol::<UdpSink>(b, sink).unwrap();
//! assert_eq!(sink.frames(), 50); // nothing lost despite 20% link loss
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hook;
pub mod window;
pub mod wire;

pub use hook::{RllConfig, RllHook, RllStats};
