//! Packet and frame model for the VirtualWire reproduction.
//!
//! This crate provides the byte-level substrate every other crate builds on:
//!
//! * [`MacAddr`] and [`EtherType`] — link-layer addressing ([`MacMap`] for
//!   tables keyed by one),
//! * [`Frame`] — an owned Ethernet frame with typed header accessors,
//! * header views and builders for Ethernet, IPv4, TCP and UDP
//!   ([`EthernetHeader`], [`Ipv4Header`], [`TcpHeader`], [`UdpHeader`]),
//! * RFC 1071 internet [`checksum`]s including TCP/UDP pseudo-headers,
//! * the byte [`codec`] (one `Reader`/`Writer` pair) under every binary
//!   format the other crates define,
//! * the well-known byte offsets used by the paper's Fault Specification
//!   Language examples ([`offsets`]).
//!
//! The layout assumed throughout is the one the paper's scripts assume: a
//! 14-byte Ethernet II header followed by a 20-byte (option-less) IPv4
//! header, so the TCP source port lives at byte 34, the destination port at
//! byte 36, the sequence number at 38, the acknowledgment number at 42, and
//! the flags byte at 47 — exactly the offsets that appear in Figure 2 of the
//! paper.
//!
//! # Examples
//!
//! Build a TCP SYN frame and inspect it through the typed views:
//!
//! ```
//! use vw_packet::{Frame, MacAddr, TcpBuilder, TcpFlags};
//! use std::net::Ipv4Addr;
//!
//! let frame = TcpBuilder::new()
//!     .src_mac(MacAddr::new([0, 0x46, 0x61, 0xaf, 0xfe, 0x23]))
//!     .dst_mac(MacAddr::new([0, 0x23, 0x31, 0xdf, 0xaf, 0x12]))
//!     .src_ip(Ipv4Addr::new(192, 168, 1, 1))
//!     .dst_ip(Ipv4Addr::new(192, 168, 1, 2))
//!     .src_port(0x6000)
//!     .dst_port(0x4000)
//!     .seq(1000)
//!     .flags(TcpFlags::SYN)
//!     .build();
//!
//! let tcp = frame.tcp().expect("TCP frame");
//! assert_eq!(tcp.src_port(), 0x6000);
//! assert!(tcp.flags().contains(TcpFlags::SYN));
//! assert!(frame.ipv4().unwrap().verify_checksum());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod checksum;
pub mod codec;
mod error;
mod ethernet;
mod ethertype;
mod frame;
mod ipv4;
mod mac;
pub mod offsets;
mod tcp;
mod udp;

pub use error::ParseError;
pub use ethernet::{EthernetBuilder, EthernetHeader, ETHERNET_HEADER_LEN};
pub use ethertype::EtherType;
pub use frame::Frame;
pub use ipv4::{IpProtocol, Ipv4Builder, Ipv4Header, IPV4_HEADER_LEN};
pub use mac::{MacAddr, MacHasher, MacMap};
pub use tcp::{TcpBuilder, TcpFlags, TcpHeader, TCP_HEADER_LEN};
pub use udp::{UdpBuilder, UdpHeader, MAX_UDP_PAYLOAD, UDP_HEADER_LEN};
