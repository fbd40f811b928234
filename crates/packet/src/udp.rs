//! UDP header view and full-frame builder.

use std::net::Ipv4Addr;

use crate::checksum;
use crate::ethernet::ETHERNET_HEADER_LEN;
use crate::ipv4::{IpProtocol, Ipv4Builder, Ipv4Header, IPV4_HEADER_LEN};
use crate::{EtherType, Frame, MacAddr, ParseError};

/// Length of the UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// The largest UDP payload one IPv4 packet carries: the 16-bit total
/// length less the IP and UDP headers.
pub const MAX_UDP_PAYLOAD: usize = u16::MAX as usize - crate::IPV4_HEADER_LEN - UDP_HEADER_LEN;

const UDP_OFF: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;

/// Borrowed view of a UDP datagram inside a full Ethernet/IPv4 frame.
///
/// ```
/// use std::net::Ipv4Addr;
/// use vw_packet::UdpBuilder;
///
/// let frame = UdpBuilder::new()
///     .src_ip(Ipv4Addr::new(10, 0, 0, 1))
///     .dst_ip(Ipv4Addr::new(10, 0, 0, 2))
///     .src_port(9000)
///     .dst_port(7)
///     .payload(b"ping")
///     .build();
/// let udp = frame.udp().unwrap();
/// assert_eq!(udp.dst_port(), 7);
/// assert_eq!(udp.payload(), b"ping");
/// assert!(udp.verify_checksum());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader<'a> {
    bytes: &'a [u8],
}

impl<'a> UdpHeader<'a> {
    /// Interprets `frame` as an Ethernet/IPv4/UDP frame.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if the frame is not IPv4/UDP or is too short.
    pub fn new(frame: &'a [u8]) -> Result<Self, ParseError> {
        let ip = Ipv4Header::new(frame)?;
        if ip.protocol() != IpProtocol::UDP {
            return Err(ParseError::new(format!(
                "IP protocol {} is not UDP",
                ip.protocol()
            )));
        }
        if frame.len() < UDP_OFF + UDP_HEADER_LEN {
            return Err(ParseError::new("frame too short for UDP header"));
        }
        Ok(UdpHeader { bytes: frame })
    }

    fn udp(&self) -> &'a [u8] {
        &self.bytes[UDP_OFF..]
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.udp()[0], self.udp()[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.udp()[2], self.udp()[3]])
    }

    /// The UDP length field (header + payload).
    pub fn length(&self) -> u16 {
        u16::from_be_bytes([self.udp()[4], self.udp()[5]])
    }

    /// The checksum field as transmitted.
    pub fn checksum_field(&self) -> u16 {
        u16::from_be_bytes([self.udp()[6], self.udp()[7]])
    }

    /// The datagram payload, bounded by the UDP length field.
    pub fn payload(&self) -> &'a [u8] {
        let end = (UDP_OFF + self.length() as usize).min(self.bytes.len());
        &self.bytes[(UDP_OFF + UDP_HEADER_LEN).min(end)..end]
    }

    /// Verifies the UDP checksum (a zero field means "not computed" and
    /// verifies trivially, per RFC 768).
    pub fn verify_checksum(&self) -> bool {
        if self.checksum_field() == 0 {
            return true;
        }
        let ip = Ipv4Header::new(self.bytes).expect("validated at construction");
        checksum::verify_pseudo_header_checksum(
            ip.src(),
            ip.dst(),
            IpProtocol::UDP.value(),
            ip.payload(),
        )
    }
}

/// Builds a complete Ethernet/IPv4/UDP frame with valid checksums.
#[derive(Debug, Clone)]
pub struct UdpBuilder<'a> {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    ident: u16,
    payload: &'a [u8],
}

impl Default for UdpBuilder<'_> {
    fn default() -> Self {
        UdpBuilder {
            src_mac: MacAddr::ZERO,
            dst_mac: MacAddr::ZERO,
            src_ip: Ipv4Addr::UNSPECIFIED,
            dst_ip: Ipv4Addr::UNSPECIFIED,
            src_port: 0,
            dst_port: 0,
            ident: 0,
            payload: &[],
        }
    }
}

impl<'a> UdpBuilder<'a> {
    /// Creates a builder with all fields zeroed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the source MAC address.
    pub fn src_mac(mut self, mac: MacAddr) -> Self {
        self.src_mac = mac;
        self
    }

    /// Sets the destination MAC address.
    pub fn dst_mac(mut self, mac: MacAddr) -> Self {
        self.dst_mac = mac;
        self
    }

    /// Sets the source IP address.
    pub fn src_ip(mut self, ip: Ipv4Addr) -> Self {
        self.src_ip = ip;
        self
    }

    /// Sets the destination IP address.
    pub fn dst_ip(mut self, ip: Ipv4Addr) -> Self {
        self.dst_ip = ip;
        self
    }

    /// Sets the source port.
    pub fn src_port(mut self, port: u16) -> Self {
        self.src_port = port;
        self
    }

    /// Sets the destination port.
    pub fn dst_port(mut self, port: u16) -> Self {
        self.dst_port = port;
        self
    }

    /// Sets the IP identification field.
    pub fn ident(mut self, ident: u16) -> Self {
        self.ident = ident;
        self
    }

    /// Sets the payload, borrowed until [`build`](Self::build) copies it
    /// into the frame.
    pub fn payload(mut self, payload: &'a [u8]) -> Self {
        self.payload = payload;
        self
    }

    /// Assembles the frame, computing IP and UDP checksums.
    ///
    /// # Panics
    ///
    /// Panics if the payload is longer than [`MAX_UDP_PAYLOAD`]; callers
    /// taking lengths from outside check first.
    pub fn build(&self) -> Frame {
        let udp_len = u16::try_from(UDP_HEADER_LEN + self.payload.len())
            .expect("datagram exceeds the u16 UDP length field");
        Frame::assemble(
            self.dst_mac,
            self.src_mac,
            EtherType::IPV4,
            IPV4_HEADER_LEN + usize::from(udp_len),
            |out| {
                Ipv4Builder::new()
                    .src(self.src_ip)
                    .dst(self.dst_ip)
                    .protocol(IpProtocol::UDP)
                    .ident(self.ident)
                    .write_header(out, usize::from(udp_len));
                out.extend_from_slice(&self.src_port.to_be_bytes());
                out.extend_from_slice(&self.dst_port.to_be_bytes());
                out.extend_from_slice(&udp_len.to_be_bytes());
                out.extend_from_slice(&[0, 0]); // checksum placeholder
                out.extend_from_slice(self.payload);
                let mut sum = checksum::pseudo_header_checksum(
                    self.src_ip,
                    self.dst_ip,
                    IpProtocol::UDP.value(),
                    &out[UDP_OFF..],
                );
                if sum == 0 {
                    sum = 0xffff; // RFC 768: transmitted zero means "no checksum"
                }
                out[UDP_OFF + 6..UDP_OFF + 8].copy_from_slice(&sum.to_be_bytes());
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fields_round_trip() {
        let frame = UdpBuilder::new()
            .src_mac(MacAddr::from_index(1))
            .dst_mac(MacAddr::from_index(2))
            .src_ip(Ipv4Addr::new(10, 0, 0, 1))
            .dst_ip(Ipv4Addr::new(10, 0, 0, 2))
            .src_port(5353)
            .dst_port(7)
            .payload(b"echo me")
            .build();
        let udp = frame.udp().unwrap();
        assert_eq!(udp.src_port(), 5353);
        assert_eq!(udp.dst_port(), 7);
        assert_eq!(udp.length(), 15);
        assert_eq!(udp.payload(), b"echo me");
        assert!(udp.verify_checksum());
        assert!(frame.ipv4().unwrap().verify_checksum());
    }

    #[test]
    fn the_largest_payload_builds_with_honest_lengths() {
        let frame = UdpBuilder::new()
            .payload(&vec![0xa5; MAX_UDP_PAYLOAD])
            .build();
        assert_eq!(frame.ipv4().unwrap().total_len(), u16::MAX);
        let udp = frame.udp().unwrap();
        assert_eq!(udp.payload().len(), MAX_UDP_PAYLOAD);
        assert!(udp.verify_checksum());
    }

    #[test]
    #[should_panic(expected = "exceeds the u16")]
    fn one_byte_more_panics_instead_of_wrapping() {
        UdpBuilder::new()
            .payload(&vec![0; MAX_UDP_PAYLOAD + 1])
            .build();
    }

    #[test]
    fn corruption_detected() {
        let frame = UdpBuilder::new()
            .src_ip(Ipv4Addr::new(10, 0, 0, 1))
            .dst_ip(Ipv4Addr::new(10, 0, 0, 2))
            .payload(b"data")
            .build();
        let mut bad = frame.clone();
        bad.flip_bit(frame.len() - 2, 4);
        assert!(!bad.udp().unwrap().verify_checksum());
    }

    #[test]
    fn zero_checksum_field_accepted() {
        let frame = UdpBuilder::new().payload(b"x").build();
        let mut bytes = frame.into_bytes();
        bytes[UDP_OFF + 6] = 0;
        bytes[UDP_OFF + 7] = 0;
        let frame = Frame::from_bytes(bytes).unwrap();
        assert!(frame.udp().unwrap().verify_checksum());
    }

    #[test]
    fn tcp_frames_rejected() {
        let frame = crate::TcpBuilder::new().build();
        assert!(frame.udp().is_none());
    }

    #[test]
    fn empty_payload() {
        let frame = UdpBuilder::new().build();
        let udp = frame.udp().unwrap();
        assert_eq!(udp.length(), 8);
        assert!(udp.payload().is_empty());
    }

    proptest! {
        #[test]
        fn arbitrary_datagrams_round_trip(
            src_port in any::<u16>(),
            dst_port in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            let frame = UdpBuilder::new()
                .src_ip(Ipv4Addr::new(172, 16, 0, 1))
                .dst_ip(Ipv4Addr::new(172, 16, 0, 2))
                .src_port(src_port)
                .dst_port(dst_port)
                .payload(&payload)
                .build();
            let udp = frame.udp().unwrap();
            prop_assert_eq!(udp.src_port(), src_port);
            prop_assert_eq!(udp.dst_port(), dst_port);
            prop_assert_eq!(udp.payload(), &payload[..]);
            prop_assert!(udp.verify_checksum());
        }
    }
}
