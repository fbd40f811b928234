//! A deterministic discrete-event LAN simulator — the "physical testbed"
//! substrate of the VirtualWire reproduction.
//!
//! The paper runs VirtualWire on real Pentium-4 hosts connected by a
//! 100 Mb/s switch, with the fault injection engine inserted between the
//! NIC driver and the IP stack via Netfilter. This crate reproduces that
//! environment in software:
//!
//! * [`World`] — the simulation: devices, links, an event queue, a seeded
//!   RNG, and a packet [`trace`](World::trace). Same seed ⇒ same run.
//! * Hosts carry [`Protocol`] handlers (the stacks and applications under
//!   test) above an ordered chain of [`Hook`]s — the interposition point
//!   where VirtualWire's engines and the Reliable Link Layer live.
//! * [`LinkConfig`] models line rate, propagation delay and an
//!   [`ErrorModel`] (frame loss, bit errors); switches are store-and-forward
//!   with MAC learning and bounded per-port queues, so throughput saturates
//!   realistically under load.
//! * [`apps`] provides UDP echo/ping/flood traffic tools used by the
//!   evaluation harness (Figures 7 and 8).
//!
//! # Example: UDP ping over a switch
//!
//! ```
//! use vw_netsim::apps::{UdpEcho, UdpPinger};
//! use vw_netsim::{Binding, LinkConfig, SimDuration, World};
//! use vw_packet::EtherType;
//!
//! let mut world = World::new(7);
//! let a = world.add_host("node1");
//! let b = world.add_host("node2");
//! let sw = world.add_switch("sw0", 4);
//! world.connect(a, sw, LinkConfig::fast_ethernet());
//! world.connect(b, sw, LinkConfig::fast_ethernet());
//!
//! world.add_protocol(b, Binding::EtherType(EtherType::IPV4), Box::new(UdpEcho::new(7)));
//! let pinger = UdpPinger::new(
//!     world.host_mac(b), world.host_ip(b), 7, 9000,
//!     SimDuration::from_millis(1), 64, 5,
//! );
//! let pid = world.add_protocol(a, Binding::EtherType(EtherType::IPV4), Box::new(pinger));
//!
//! world.run_for(SimDuration::from_millis(20));
//! let pinger = world.protocol::<UdpPinger>(a, pid).unwrap();
//! assert_eq!(pinger.rtts().len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
mod context;
mod device;
mod error_model;
mod event;
mod heap;
mod hook;
mod id;
mod link;
mod protocol;
pub mod time;
mod trace;
mod world;

pub use context::Context;
pub use device::{PortStats, DEFAULT_TX_QUEUE_CAP};
pub use error_model::{ControlFate, ControlImpairment, ErrorModel, LinkOutcome};
pub use hook::{Hook, PassThrough, Verdict};
pub use id::{DeviceId, HandlerRef, HookId, LinkId, PortRef, ProtocolId, TimerId};
pub use link::LinkConfig;
pub use protocol::{Binding, Protocol};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceKind, TraceRecord, TraceSink};
pub use world::{WorkCounts, World, MIN_FRAME_BYTES, WIRE_OVERHEAD_BYTES};
