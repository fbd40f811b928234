//! TCP header view, flags, and full-frame builder.

use std::fmt;
use std::net::Ipv4Addr;
use std::ops::{BitOr, BitOrAssign};

use crate::checksum;
use crate::ethernet::ETHERNET_HEADER_LEN;
use crate::ipv4::{IpProtocol, Ipv4Builder, Ipv4Header, IPV4_HEADER_LEN};
use crate::{EtherType, Frame, MacAddr, ParseError};

/// Length of an option-less TCP header. The simulated stack never emits TCP
/// options so headers are always 20 bytes, matching the paper's offsets.
pub const TCP_HEADER_LEN: usize = 20;

/// The TCP flag bits (low byte of the flags word).
///
/// A lightweight flag-set type: combine with `|`, test with
/// [`contains`](TcpFlags::contains).
///
/// ```
/// use vw_packet::TcpFlags;
/// let synack = TcpFlags::SYN | TcpFlags::ACK;
/// assert!(synack.contains(TcpFlags::SYN));
/// assert!(synack.contains(TcpFlags::ACK));
/// assert!(!synack.contains(TcpFlags::FIN));
/// assert_eq!(synack.bits(), 0x12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// FIN — sender is finished sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN — synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST — reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH — push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK — the acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG — the urgent pointer is significant.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// Creates a flag set from raw bits.
    pub const fn from_bits(bits: u8) -> Self {
        TcpFlags(bits)
    }

    /// The raw flag bits.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Returns `true` if every flag in `other` is also set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` if no flags are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;

    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TcpFlags({self})")
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("none");
        }
        let mut first = true;
        for (bit, name) in [
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::URG, "URG"),
        ] {
            if self.contains(bit) {
                if !first {
                    f.write_str("|")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        Ok(())
    }
}

/// Borrowed view of a TCP segment inside a full Ethernet/IPv4 frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader<'a> {
    bytes: &'a [u8],
}

const TCP_OFF: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;

impl<'a> TcpHeader<'a> {
    /// Interprets `frame` as an Ethernet/IPv4/TCP frame.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if the frame is not IPv4, the IP protocol is
    /// not TCP, or the buffer is too short.
    pub fn new(frame: &'a [u8]) -> Result<Self, ParseError> {
        let ip = Ipv4Header::new(frame)?;
        if ip.protocol() != IpProtocol::TCP {
            return Err(ParseError::new(format!(
                "IP protocol {} is not TCP",
                ip.protocol()
            )));
        }
        if frame.len() < TCP_OFF + TCP_HEADER_LEN {
            return Err(ParseError::new("frame too short for TCP header"));
        }
        Ok(TcpHeader { bytes: frame })
    }

    fn tcp(&self) -> &'a [u8] {
        &self.bytes[TCP_OFF..]
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.tcp()[0], self.tcp()[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.tcp()[2], self.tcp()[3]])
    }

    /// Sequence number.
    pub fn seq(&self) -> u32 {
        u32::from_be_bytes([self.tcp()[4], self.tcp()[5], self.tcp()[6], self.tcp()[7]])
    }

    /// Acknowledgment number.
    pub fn ack(&self) -> u32 {
        u32::from_be_bytes([self.tcp()[8], self.tcp()[9], self.tcp()[10], self.tcp()[11]])
    }

    /// Data offset in bytes (always 20 for frames this crate builds).
    pub fn data_offset(&self) -> usize {
        ((self.tcp()[12] >> 4) as usize) * 4
    }

    /// The flag bits.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags::from_bits(self.tcp()[13])
    }

    /// Advertised receive window.
    pub fn window(&self) -> u16 {
        u16::from_be_bytes([self.tcp()[14], self.tcp()[15]])
    }

    /// The checksum field as transmitted.
    pub fn checksum_field(&self) -> u16 {
        u16::from_be_bytes([self.tcp()[16], self.tcp()[17]])
    }

    /// The TCP payload, bounded by the IP total length.
    pub fn payload(&self) -> &'a [u8] {
        let ip = Ipv4Header::new(self.bytes).expect("validated at construction");
        let segment = ip.payload();
        &segment[self.data_offset().min(segment.len())..]
    }

    /// Verifies the TCP checksum over the pseudo-header and segment.
    pub fn verify_checksum(&self) -> bool {
        let ip = Ipv4Header::new(self.bytes).expect("validated at construction");
        checksum::verify_pseudo_header_checksum(
            ip.src(),
            ip.dst(),
            IpProtocol::TCP.value(),
            ip.payload(),
        )
    }
}

/// Builds a complete Ethernet/IPv4/TCP frame with valid checksums.
///
/// ```
/// use std::net::Ipv4Addr;
/// use vw_packet::{MacAddr, TcpBuilder, TcpFlags};
///
/// let frame = TcpBuilder::new()
///     .src_mac(MacAddr::from_index(1))
///     .dst_mac(MacAddr::from_index(2))
///     .src_ip(Ipv4Addr::new(10, 0, 0, 1))
///     .dst_ip(Ipv4Addr::new(10, 0, 0, 2))
///     .src_port(24576)
///     .dst_port(16384)
///     .seq(100)
///     .ack(200)
///     .flags(TcpFlags::ACK | TcpFlags::PSH)
///     .payload(b"hello")
///     .build();
/// let tcp = frame.tcp().unwrap();
/// assert_eq!(tcp.payload(), b"hello");
/// assert!(tcp.verify_checksum());
/// ```
#[derive(Debug, Clone)]
pub struct TcpBuilder<'a> {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    window: u16,
    ident: u16,
    payload: &'a [u8],
}

impl Default for TcpBuilder<'_> {
    fn default() -> Self {
        TcpBuilder {
            src_mac: MacAddr::ZERO,
            dst_mac: MacAddr::ZERO,
            src_ip: Ipv4Addr::UNSPECIFIED,
            dst_ip: Ipv4Addr::UNSPECIFIED,
            src_port: 0,
            dst_port: 0,
            seq: 0,
            ack: 0,
            flags: TcpFlags::EMPTY,
            window: 65535,
            ident: 0,
            payload: &[],
        }
    }
}

impl<'a> TcpBuilder<'a> {
    /// Creates a builder with all fields zeroed and a 64 KB window.
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

    /// Sets the sequence number.
    pub fn seq(mut self, seq: u32) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the acknowledgment number.
    pub fn ack(mut self, ack: u32) -> Self {
        self.ack = ack;
        self
    }

    /// Sets the flag bits.
    pub fn flags(mut self, flags: TcpFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Sets the advertised window.
    pub fn window(mut self, window: u16) -> Self {
        self.window = window;
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

    /// Assembles the frame, computing IP and TCP checksums.
    ///
    /// # Panics
    ///
    /// Panics if the segment is longer than one IPv4 packet carries.
    pub fn build(&self) -> Frame {
        let segment_len = TCP_HEADER_LEN + self.payload.len();
        Frame::assemble(
            self.dst_mac,
            self.src_mac,
            EtherType::IPV4,
            IPV4_HEADER_LEN + segment_len,
            |out| {
                Ipv4Builder::new()
                    .src(self.src_ip)
                    .dst(self.dst_ip)
                    .protocol(IpProtocol::TCP)
                    .ident(self.ident)
                    .write_header(out, segment_len);
                out.extend_from_slice(&self.src_port.to_be_bytes());
                out.extend_from_slice(&self.dst_port.to_be_bytes());
                out.extend_from_slice(&self.seq.to_be_bytes());
                out.extend_from_slice(&self.ack.to_be_bytes());
                out.push(((TCP_HEADER_LEN / 4) as u8) << 4);
                out.push(self.flags.bits());
                out.extend_from_slice(&self.window.to_be_bytes());
                out.extend_from_slice(&[0, 0]); // checksum placeholder
                out.extend_from_slice(&[0, 0]); // urgent pointer
                out.extend_from_slice(self.payload);
                let sum = checksum::pseudo_header_checksum(
                    self.src_ip,
                    self.dst_ip,
                    IpProtocol::TCP.value(),
                    &out[TCP_OFF..],
                );
                out[TCP_OFF + 16..TCP_OFF + 18].copy_from_slice(&sum.to_be_bytes());
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offsets;
    use proptest::prelude::*;

    fn sample(payload: &[u8]) -> Frame {
        TcpBuilder::new()
            .src_mac(MacAddr::from_index(1))
            .dst_mac(MacAddr::from_index(2))
            .src_ip(Ipv4Addr::new(192, 168, 1, 1))
            .dst_ip(Ipv4Addr::new(192, 168, 1, 2))
            .src_port(0x6000)
            .dst_port(0x4000)
            .seq(0xDEAD_BEEF)
            .ack(0x1234_5678)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .window(4096)
            .payload(payload)
            .build()
    }

    #[test]
    fn fields_round_trip() {
        let frame = sample(b"payload");
        let tcp = frame.tcp().unwrap();
        assert_eq!(tcp.src_port(), 0x6000);
        assert_eq!(tcp.dst_port(), 0x4000);
        assert_eq!(tcp.seq(), 0xDEAD_BEEF);
        assert_eq!(tcp.ack(), 0x1234_5678);
        assert_eq!(tcp.window(), 4096);
        assert_eq!(tcp.data_offset(), 20);
        assert!(tcp.flags().contains(TcpFlags::ACK));
        assert!(tcp.flags().contains(TcpFlags::PSH));
        assert!(!tcp.flags().contains(TcpFlags::SYN));
        assert_eq!(tcp.payload(), b"payload");
    }

    #[test]
    fn checksums_valid_and_detect_corruption() {
        let frame = sample(b"x");
        assert!(frame.tcp().unwrap().verify_checksum());
        assert!(frame.ipv4().unwrap().verify_checksum());
        let mut corrupted = frame.clone();
        corrupted.flip_bit(frame.len() - 1, 0);
        assert!(!corrupted.tcp().unwrap().verify_checksum());
    }

    #[test]
    fn paper_offsets_match_fields() {
        // Cross-check the Figure 2 filter offsets against the typed view.
        let frame = sample(&[]);
        assert_eq!(
            frame.read_at(offsets::TCP_SRC_PORT, 2).unwrap(),
            &0x6000u16.to_be_bytes()
        );
        assert_eq!(
            frame.read_at(offsets::TCP_DST_PORT, 2).unwrap(),
            &0x4000u16.to_be_bytes()
        );
        assert_eq!(
            frame.read_at(offsets::TCP_SEQ, 4).unwrap(),
            &0xDEAD_BEEFu32.to_be_bytes()
        );
        assert_eq!(
            frame.read_at(offsets::TCP_ACK, 4).unwrap(),
            &0x1234_5678u32.to_be_bytes()
        );
        let flags = frame.read_at(offsets::TCP_FLAGS, 1).unwrap()[0];
        assert_eq!(flags & 0x10, 0x10); // ACK bit, the (47 1 0x10 0x10) tuple
    }

    #[test]
    fn non_tcp_rejected() {
        let udp_frame = crate::UdpBuilder::new().build();
        assert!(udp_frame.tcp().is_none());
    }

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::EMPTY.to_string(), "none");
        assert_eq!(TcpFlags::FIN.to_string(), "FIN");
    }

    #[test]
    fn flags_or_assign() {
        let mut f = TcpFlags::SYN;
        f |= TcpFlags::ACK;
        assert_eq!(f, TcpFlags::SYN | TcpFlags::ACK);
    }

    proptest! {
        #[test]
        fn arbitrary_segments_round_trip(
            src_port in any::<u16>(),
            dst_port in any::<u16>(),
            seq in any::<u32>(),
            ack in any::<u32>(),
            flag_bits in 0u8..64,
            payload in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            let frame = TcpBuilder::new()
                .src_ip(Ipv4Addr::new(10, 1, 2, 3))
                .dst_ip(Ipv4Addr::new(10, 4, 5, 6))
                .src_port(src_port)
                .dst_port(dst_port)
                .seq(seq)
                .ack(ack)
                .flags(TcpFlags::from_bits(flag_bits))
                .payload(&payload)
                .build();
            let tcp = frame.tcp().unwrap();
            prop_assert_eq!(tcp.src_port(), src_port);
            prop_assert_eq!(tcp.dst_port(), dst_port);
            prop_assert_eq!(tcp.seq(), seq);
            prop_assert_eq!(tcp.ack(), ack);
            prop_assert_eq!(tcp.flags().bits(), flag_bits);
            prop_assert_eq!(tcp.payload(), &payload[..]);
            prop_assert!(tcp.verify_checksum());
        }
    }
}
