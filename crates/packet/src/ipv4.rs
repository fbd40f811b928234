//! IPv4 header view and builder.

use std::fmt;
use std::net::Ipv4Addr;

use crate::checksum;
use crate::ethernet::ETHERNET_HEADER_LEN;
use crate::{EtherType, ParseError};

/// Length of an option-less IPv4 header. The simulated stacks never emit IP
/// options, matching the layout the paper's byte-offset filters assume.
pub const IPV4_HEADER_LEN: usize = 20;

/// An IP protocol number (the IPv4 `protocol` field).
///
/// ```
/// use vw_packet::IpProtocol;
/// assert_eq!(IpProtocol::TCP.value(), 6);
/// assert_eq!(IpProtocol::UDP.value(), 17);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IpProtocol(pub u8);

impl IpProtocol {
    /// Transmission Control Protocol.
    pub const TCP: IpProtocol = IpProtocol(6);
    /// User Datagram Protocol.
    pub const UDP: IpProtocol = IpProtocol(17);
    /// Internet Control Message Protocol (parsed, not generated).
    pub const ICMP: IpProtocol = IpProtocol(1);

    /// The raw protocol number.
    pub const fn value(self) -> u8 {
        self.0
    }
}

impl From<u8> for IpProtocol {
    fn from(value: u8) -> Self {
        IpProtocol(value)
    }
}

impl From<IpProtocol> for u8 {
    fn from(p: IpProtocol) -> Self {
        p.0
    }
}

impl fmt::Debug for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IpProtocol::TCP => write!(f, "IpProtocol(TCP)"),
            IpProtocol::UDP => write!(f, "IpProtocol(UDP)"),
            IpProtocol::ICMP => write!(f, "IpProtocol(ICMP)"),
            IpProtocol(v) => write!(f, "IpProtocol({v})"),
        }
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IpProtocol::TCP => f.write_str("tcp"),
            IpProtocol::UDP => f.write_str("udp"),
            IpProtocol::ICMP => f.write_str("icmp"),
            IpProtocol(v) => write!(f, "proto-{v}"),
        }
    }
}

/// Borrowed view of the IPv4 header inside a full Ethernet frame buffer.
///
/// The view is anchored at absolute frame offsets (Ethernet header first),
/// matching how the FSL filter tuples address packet bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header<'a> {
    bytes: &'a [u8],
}

impl<'a> Ipv4Header<'a> {
    /// Interprets `frame` (a full Ethernet frame) as carrying IPv4.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if the EtherType is not IPv4, the buffer is
    /// too short, or the version/IHL byte is not `0x45`.
    pub fn new(frame: &'a [u8]) -> Result<Self, ParseError> {
        if frame.len() < ETHERNET_HEADER_LEN + IPV4_HEADER_LEN {
            return Err(ParseError::new("frame too short for IPv4 header"));
        }
        let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
        if ethertype != EtherType::IPV4.value() {
            return Err(ParseError::new(format!(
                "ethertype 0x{ethertype:04x} is not IPv4"
            )));
        }
        if frame[ETHERNET_HEADER_LEN] != 0x45 {
            return Err(ParseError::new(format!(
                "unsupported IPv4 version/IHL byte 0x{:02x}",
                frame[ETHERNET_HEADER_LEN]
            )));
        }
        Ok(Ipv4Header { bytes: frame })
    }

    fn ip(&self) -> &'a [u8] {
        &self.bytes[ETHERNET_HEADER_LEN..]
    }

    /// The total-length field (header + payload, in bytes).
    pub fn total_len(&self) -> u16 {
        u16::from_be_bytes([self.ip()[2], self.ip()[3]])
    }

    /// The identification field.
    pub fn ident(&self) -> u16 {
        u16::from_be_bytes([self.ip()[4], self.ip()[5]])
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.ip()[8]
    }

    /// The encapsulated protocol.
    pub fn protocol(&self) -> IpProtocol {
        IpProtocol(self.ip()[9])
    }

    /// Source IPv4 address.
    pub fn src(&self) -> Ipv4Addr {
        let b = self.ip();
        Ipv4Addr::new(b[12], b[13], b[14], b[15])
    }

    /// Destination IPv4 address.
    pub fn dst(&self) -> Ipv4Addr {
        let b = self.ip();
        Ipv4Addr::new(b[16], b[17], b[18], b[19])
    }

    /// The transport payload (bounded by the total-length field, which may
    /// be nonsense on a corrupted frame — the range is clamped to the
    /// buffer).
    pub fn payload(&self) -> &'a [u8] {
        let total = self.total_len() as usize;
        let end = (ETHERNET_HEADER_LEN + total).min(self.bytes.len());
        let start = (ETHERNET_HEADER_LEN + IPV4_HEADER_LEN).min(end);
        &self.bytes[start..end]
    }

    /// Recomputes the header checksum and compares with the stored value.
    pub fn verify_checksum(&self) -> bool {
        checksum::checksum(&self.ip()[..IPV4_HEADER_LEN]) == 0
    }
}

/// Builder for the IPv4 header of a frame under
/// [`assembly`](crate::Frame::assemble); the transport builders write
/// theirs with it.
///
/// ```
/// use std::net::Ipv4Addr;
/// use vw_packet::{EtherType, Frame, IpProtocol, Ipv4Builder, MacAddr};
///
/// let ip = Ipv4Builder::new()
///     .src(Ipv4Addr::new(10, 0, 0, 1))
///     .dst(Ipv4Addr::new(10, 0, 0, 2))
///     .protocol(IpProtocol::ICMP);
/// let frame = Frame::assemble(MacAddr::BROADCAST, MacAddr::ZERO, EtherType::IPV4, 28, |out| {
///     ip.write_header(out, 8);
///     out.extend_from_slice(&[0u8; 8]);
/// });
/// assert_eq!(frame.ipv4().unwrap().total_len(), 28);
/// ```
#[derive(Debug, Clone)]
pub struct Ipv4Builder {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: IpProtocol,
    ttl: u8,
    ident: u16,
}

impl Default for Ipv4Builder {
    fn default() -> Self {
        Ipv4Builder {
            src: Ipv4Addr::UNSPECIFIED,
            dst: Ipv4Addr::UNSPECIFIED,
            protocol: IpProtocol::UDP,
            ttl: 64,
            ident: 0,
        }
    }
}

impl Ipv4Builder {
    /// Creates a builder with TTL 64 and unspecified addresses.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the source address.
    pub fn src(mut self, src: Ipv4Addr) -> Self {
        self.src = src;
        self
    }

    /// Sets the destination address.
    pub fn dst(mut self, dst: Ipv4Addr) -> Self {
        self.dst = dst;
        self
    }

    /// Sets the encapsulated protocol.
    pub fn protocol(mut self, protocol: IpProtocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the time-to-live.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the identification field.
    pub fn ident(mut self, ident: u16) -> Self {
        self.ident = ident;
        self
    }

    /// Appends the 20-byte header, checksum in place, of a packet that
    /// carries `payload_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if header plus payload exceed the 16-bit total-length field.
    pub fn write_header(&self, out: &mut Vec<u8>, payload_len: usize) {
        let total_len = u16::try_from(IPV4_HEADER_LEN + payload_len)
            .expect("packet exceeds the u16 IP total-length field");
        let start = out.len();
        out.push(0x45); // version 4, IHL 5
        out.push(0x00); // DSCP/ECN
        out.extend_from_slice(&total_len.to_be_bytes());
        out.extend_from_slice(&self.ident.to_be_bytes());
        out.extend_from_slice(&[0x40, 0x00]); // flags: don't fragment
        out.push(self.ttl);
        out.push(self.protocol.value());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        let sum = checksum::checksum(&out[start..]);
        out[start + 10..start + 12].copy_from_slice(&sum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EthernetBuilder, MacAddr};

    fn wrap(packet: Vec<u8>) -> crate::Frame {
        EthernetBuilder::new()
            .src(MacAddr::from_index(1))
            .dst(MacAddr::from_index(2))
            .ethertype(EtherType::IPV4)
            .payload(&packet)
            .build()
    }

    /// The raw IP packet: `ip`'s header, then `payload`.
    fn packet(ip: Ipv4Builder, payload: &[u8]) -> Vec<u8> {
        let mut packet = Vec::new();
        ip.write_header(&mut packet, payload.len());
        packet.extend_from_slice(payload);
        packet
    }

    #[test]
    fn build_and_parse_round_trip() {
        let frame = wrap(packet(
            Ipv4Builder::new()
                .src(Ipv4Addr::new(192, 168, 1, 1))
                .dst(Ipv4Addr::new(192, 168, 1, 2))
                .protocol(IpProtocol::TCP)
                .ttl(32)
                .ident(0xBEEF),
            &[7; 11],
        ));
        let ip = frame.ipv4().expect("valid IPv4");
        assert_eq!(ip.src(), Ipv4Addr::new(192, 168, 1, 1));
        assert_eq!(ip.dst(), Ipv4Addr::new(192, 168, 1, 2));
        assert_eq!(ip.protocol(), IpProtocol::TCP);
        assert_eq!(ip.ttl(), 32);
        assert_eq!(ip.ident(), 0xBEEF);
        assert_eq!(ip.total_len(), 31);
        assert_eq!(ip.payload(), &[7; 11]);
        assert!(ip.verify_checksum());
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut frame = wrap(packet(Ipv4Builder::new(), &[1, 2, 3]));
        assert!(frame.ipv4().unwrap().verify_checksum());
        frame.flip_bit(crate::offsets::IP_SRC, 0);
        assert!(!frame.ipv4().unwrap().verify_checksum());
    }

    #[test]
    fn non_ipv4_frames_rejected() {
        let frame = EthernetBuilder::new()
            .ethertype(EtherType::RETHER)
            .payload(&[0u8; 40])
            .build();
        assert!(frame.ipv4().is_none());
    }

    #[test]
    fn short_frames_rejected() {
        let frame = EthernetBuilder::new()
            .ethertype(EtherType::IPV4)
            .payload(&[0x45; 10])
            .build();
        assert!(frame.ipv4().is_none());
    }

    #[test]
    fn options_rejected() {
        // IHL of 6 (header with options) is unsupported by design.
        let mut packet = packet(Ipv4Builder::new(), &[]);
        packet[0] = 0x46;
        let frame = wrap(packet);
        assert!(frame.ipv4().is_none());
    }

    #[test]
    fn payload_bounded_by_total_len() {
        // Frame padded beyond the IP total length: payload must not include
        // the padding.
        let mut packet = packet(Ipv4Builder::new(), &[9, 9]);
        packet.extend_from_slice(&[0xEE; 4]); // Ethernet padding
        let frame = wrap(packet);
        assert_eq!(frame.ipv4().unwrap().payload(), &[9, 9]);
    }

    #[test]
    fn protocol_display_and_debug() {
        assert_eq!(IpProtocol::TCP.to_string(), "tcp");
        assert_eq!(IpProtocol(42).to_string(), "proto-42");
        assert_eq!(format!("{:?}", IpProtocol::UDP), "IpProtocol(UDP)");
    }
}
