//! The owned Ethernet frame type.

use std::fmt;

use crate::ethernet::{EthernetHeader, ETHERNET_HEADER_LEN};
use crate::ipv4::Ipv4Header;
use crate::tcp::TcpHeader;
use crate::udp::UdpHeader;
use crate::{EtherType, MacAddr, ParseError};

/// An owned Ethernet II frame: the unit of transmission everywhere in the
/// reproduction.
///
/// A `Frame` is a validated byte buffer (at least the 14-byte Ethernet
/// header). Typed views over the link, network, and transport headers are
/// available through [`ethernet`](Frame::ethernet), [`ipv4`](Frame::ipv4),
/// [`tcp`](Frame::tcp) and [`udp`](Frame::udp); raw byte access for the
/// FSL's offset/mask/pattern matching is available through
/// [`bytes`](Frame::bytes) and [`set_bytes`](Frame::set_bytes).
///
/// # Examples
///
/// ```
/// use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};
///
/// let frame = EthernetBuilder::new()
///     .src(MacAddr::from_index(1))
///     .dst(MacAddr::BROADCAST)
///     .ethertype(EtherType::RETHER)
///     .payload(&[0x00, 0x01])
///     .build();
/// assert_eq!(frame.ethertype(), EtherType::RETHER);
/// assert!(frame.dst().is_broadcast());
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct Frame {
    bytes: Vec<u8>,
}

impl Clone for Frame {
    fn clone(&self) -> Self {
        // Fan-out points (hub repeat, switch flood, DUP) clone frames on
        // the hot path; take the copy's buffer from the arena instead of
        // the allocator.
        let mut bytes = crate::arena::take_buffer(self.bytes.len());
        bytes.extend_from_slice(&self.bytes);
        Frame { bytes }
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        crate::arena::recycle_buffer(std::mem::take(&mut self.bytes));
    }
}

impl Frame {
    /// Wraps raw bytes as a frame.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if `bytes` is shorter than the 14-byte
    /// Ethernet header.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, ParseError> {
        if bytes.len() < ETHERNET_HEADER_LEN {
            return Err(ParseError::new(format!(
                "frame of {} bytes is shorter than the Ethernet header",
                bytes.len()
            )));
        }
        Ok(Frame { bytes })
    }

    /// Assembles a frame in the one buffer it will live in: takes an
    /// [`arena`](crate::arena) buffer with room for the Ethernet header
    /// and `capacity` payload bytes, writes the header, and hands the
    /// buffer to `fill` to append everything behind it. The payload starts
    /// at [`ETHERNET_HEADER_LEN`], so `fill` can patch a checksum into
    /// what it has written before it returns. Every builder ends here: a
    /// payload is copied once, from wherever it lives into the frame
    /// (example under [`Ipv4Builder`](crate::Ipv4Builder)).
    pub fn assemble(
        dst: MacAddr,
        src: MacAddr,
        ethertype: EtherType,
        capacity: usize,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Frame {
        let mut bytes = crate::arena::take_buffer(ETHERNET_HEADER_LEN + capacity);
        bytes.extend_from_slice(&dst.octets());
        bytes.extend_from_slice(&src.octets());
        bytes.extend_from_slice(&ethertype.value().to_be_bytes());
        fill(&mut bytes);
        assert!(bytes.len() >= ETHERNET_HEADER_LEN, "fill cut the header");
        Frame { bytes }
    }

    /// The full frame contents, header included.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the frame, returning the underlying buffer.
    pub fn into_bytes(mut self) -> Vec<u8> {
        // Take the buffer out so `Drop` (which recycles into the arena)
        // sees an empty, capacity-zero vector and leaves it alone.
        std::mem::take(&mut self.bytes)
    }

    /// Total frame length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `false`: a frame always contains at least its Ethernet header.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Destination MAC address.
    pub fn dst(&self) -> MacAddr {
        let mut octets = [0u8; 6];
        octets.copy_from_slice(&self.bytes[0..6]);
        MacAddr::new(octets)
    }

    /// Source MAC address.
    pub fn src(&self) -> MacAddr {
        let mut octets = [0u8; 6];
        octets.copy_from_slice(&self.bytes[6..12]);
        MacAddr::new(octets)
    }

    /// The EtherType field.
    pub fn ethertype(&self) -> EtherType {
        EtherType(u16::from_be_bytes([self.bytes[12], self.bytes[13]]))
    }

    /// Rewrites the destination MAC address.
    pub fn set_dst(&mut self, dst: MacAddr) {
        self.bytes[0..6].copy_from_slice(&dst.octets());
    }

    /// Rewrites the source MAC address.
    pub fn set_src(&mut self, src: MacAddr) {
        self.bytes[6..12].copy_from_slice(&src.octets());
    }

    /// The Ethernet payload (everything after the 14-byte header).
    pub fn payload(&self) -> &[u8] {
        &self.bytes[ETHERNET_HEADER_LEN..]
    }

    /// Typed view of the Ethernet header.
    pub fn ethernet(&self) -> EthernetHeader<'_> {
        EthernetHeader::new(&self.bytes).expect("frame invariant guarantees header")
    }

    /// Typed view of the IPv4 header, if this is an IPv4 frame of
    /// sufficient length.
    pub fn ipv4(&self) -> Option<Ipv4Header<'_>> {
        Ipv4Header::new(&self.bytes).ok()
    }

    /// Typed view of the TCP header, if this is an IPv4/TCP frame.
    pub fn tcp(&self) -> Option<TcpHeader<'_>> {
        TcpHeader::new(&self.bytes).ok()
    }

    /// Typed view of the UDP header, if this is an IPv4/UDP frame.
    pub fn udp(&self) -> Option<UdpHeader<'_>> {
        UdpHeader::new(&self.bytes).ok()
    }

    /// Reads `len` bytes starting at `offset`, as the FSL packet matcher
    /// does. Returns `None` if the range falls outside the frame.
    pub fn read_at(&self, offset: usize, len: usize) -> Option<&[u8]> {
        self.bytes.get(offset..offset.checked_add(len)?)
    }

    /// Overwrites bytes starting at `offset` (the `MODIFY` fault uses this).
    ///
    /// Returns `false` without writing if the range falls outside the frame
    /// or would touch the Ethernet header of a too-short frame.
    pub fn set_bytes(&mut self, offset: usize, data: &[u8]) -> bool {
        match offset
            .checked_add(data.len())
            .and_then(|end| self.bytes.get_mut(offset..end))
        {
            Some(slice) => {
                slice.copy_from_slice(data);
                true
            }
            None => false,
        }
    }

    /// Flips a single bit, used by bit-error models. Returns `false` if the
    /// byte index is out of range.
    pub fn flip_bit(&mut self, byte: usize, bit: u8) -> bool {
        debug_assert!(bit < 8);
        match self.bytes.get_mut(byte) {
            Some(b) => {
                *b ^= 1 << (bit & 7);
                true
            }
            None => false,
        }
    }

    /// Renders a `tcpdump -X`-style hexdump, 16 bytes per line with an
    /// ASCII gutter.
    ///
    /// ```
    /// use vw_packet::{EtherType, EthernetBuilder, MacAddr};
    /// let f = EthernetBuilder::new()
    ///     .src(MacAddr::ZERO).dst(MacAddr::BROADCAST)
    ///     .ethertype(EtherType::IPV4).payload(b"hi").build();
    /// assert!(f.hexdump().starts_with("0x0000"));
    /// ```
    pub fn hexdump(&self) -> String {
        let mut out = String::new();
        for (line_no, chunk) in self.bytes.chunks(16).enumerate() {
            out.push_str(&format!("0x{:04x}:  ", line_no * 16));
            for pair in chunk.chunks(2) {
                for b in pair {
                    out.push_str(&format!("{b:02x}"));
                }
                out.push(' ');
            }
            // Pad to a fixed gutter column: 8 pairs of "xxxx " = 40 chars.
            let written = chunk.chunks(2).map(|p| p.len() * 2 + 1).sum::<usize>();
            for _ in written..40 {
                out.push(' ');
            }
            out.push(' ');
            for b in chunk {
                let c = *b as char;
                out.push(if c.is_ascii_graphic() || c == ' ' {
                    c
                } else {
                    '.'
                });
            }
            out.push('\n');
        }
        out
    }
}

impl AsRef<[u8]> for Frame {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl TryFrom<Vec<u8>> for Frame {
    type Error = ParseError;

    fn try_from(bytes: Vec<u8>) -> Result<Self, Self::Error> {
        Frame::from_bytes(bytes)
    }
}

impl From<Frame> for Vec<u8> {
    fn from(frame: Frame) -> Self {
        frame.into_bytes()
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Frame({} -> {}, {:?}, {} bytes)",
            self.src(),
            self.dst(),
            self.ethertype(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EthernetBuilder;
    use proptest::prelude::*;

    fn sample() -> Frame {
        EthernetBuilder::new()
            .src(MacAddr::from_index(1))
            .dst(MacAddr::from_index(2))
            .ethertype(EtherType::IPV4)
            .payload(&[1, 2, 3, 4, 5])
            .build()
    }

    #[test]
    fn from_bytes_rejects_short_input() {
        assert!(Frame::from_bytes(vec![0u8; 13]).is_err());
        assert!(Frame::from_bytes(vec![0u8; 14]).is_ok());
    }

    #[test]
    fn header_accessors() {
        let f = sample();
        assert_eq!(f.src(), MacAddr::from_index(1));
        assert_eq!(f.dst(), MacAddr::from_index(2));
        assert_eq!(f.ethertype(), EtherType::IPV4);
        assert_eq!(f.payload(), &[1, 2, 3, 4, 5]);
        assert_eq!(f.len(), 19);
        assert!(!f.is_empty());
    }

    #[test]
    fn rewrite_addresses() {
        let mut f = sample();
        f.set_dst(MacAddr::BROADCAST);
        f.set_src(MacAddr::from_index(9));
        assert!(f.dst().is_broadcast());
        assert_eq!(f.src(), MacAddr::from_index(9));
    }

    #[test]
    fn read_at_bounds() {
        let f = sample();
        assert_eq!(f.read_at(14, 2), Some(&[1u8, 2][..]));
        assert_eq!(f.read_at(18, 1), Some(&[5u8][..]));
        assert_eq!(f.read_at(18, 2), None);
        assert_eq!(f.read_at(usize::MAX, 2), None);
    }

    #[test]
    fn set_bytes_bounds() {
        let mut f = sample();
        assert!(f.set_bytes(14, &[9, 9]));
        assert_eq!(f.payload()[..2], [9, 9]);
        assert!(!f.set_bytes(18, &[1, 2]));
        assert!(!f.set_bytes(usize::MAX, &[1]));
    }

    #[test]
    fn flip_bit_round_trip() {
        let mut f = sample();
        let before = f.bytes()[15];
        assert!(f.flip_bit(15, 3));
        assert_eq!(f.bytes()[15], before ^ 0b1000);
        assert!(f.flip_bit(15, 3));
        assert_eq!(f.bytes()[15], before);
        assert!(!f.flip_bit(1000, 0));
    }

    #[test]
    fn hexdump_has_expected_shape() {
        let dump = sample().hexdump();
        assert!(dump.starts_with("0x0000:"));
        assert!(dump.contains("0x0010:"));
        assert!(dump.ends_with('\n'));
    }

    #[test]
    fn debug_is_compact() {
        let text = format!("{:?}", sample());
        assert!(text.contains("Frame("));
        assert!(text.contains("19 bytes"));
    }

    proptest! {
        #[test]
        fn byte_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..256)) {
            let f = EthernetBuilder::new()
                .src(MacAddr::from_index(3))
                .dst(MacAddr::from_index(4))
                .ethertype(EtherType(0xBEEF))
                .payload(&payload)
                .build();
            let bytes = f.clone().into_bytes();
            let back = Frame::from_bytes(bytes).unwrap();
            prop_assert_eq!(back, f);
        }
    }
}
