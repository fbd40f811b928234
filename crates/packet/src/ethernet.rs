//! Ethernet II header view and builder.

use crate::{EtherType, Frame, MacAddr, ParseError};

/// Length of the Ethernet II header: two MAC addresses plus the EtherType.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// Borrowed view of an Ethernet II header at the start of a frame buffer.
///
/// ```
/// use vw_packet::{EtherType, EthernetBuilder, EthernetHeader, MacAddr};
/// let frame = EthernetBuilder::new()
///     .src(MacAddr::from_index(1))
///     .dst(MacAddr::from_index(2))
///     .ethertype(EtherType::IPV4)
///     .build();
/// let eth = EthernetHeader::new(frame.bytes()).unwrap();
/// assert_eq!(eth.ethertype(), EtherType::IPV4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader<'a> {
    bytes: &'a [u8],
}

impl<'a> EthernetHeader<'a> {
    /// Interprets the start of `bytes` as an Ethernet header.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if fewer than 14 bytes are available.
    pub fn new(bytes: &'a [u8]) -> Result<Self, ParseError> {
        if bytes.len() < ETHERNET_HEADER_LEN {
            return Err(ParseError::new("buffer too short for Ethernet header"));
        }
        Ok(EthernetHeader { bytes })
    }

    /// Destination MAC address.
    pub fn dst(&self) -> MacAddr {
        let mut o = [0u8; 6];
        o.copy_from_slice(&self.bytes[0..6]);
        MacAddr::new(o)
    }

    /// Source MAC address.
    pub fn src(&self) -> MacAddr {
        let mut o = [0u8; 6];
        o.copy_from_slice(&self.bytes[6..12]);
        MacAddr::new(o)
    }

    /// EtherType of the encapsulated payload.
    pub fn ethertype(&self) -> EtherType {
        EtherType(u16::from_be_bytes([self.bytes[12], self.bytes[13]]))
    }

    /// The payload following the header.
    pub fn payload(&self) -> &'a [u8] {
        &self.bytes[ETHERNET_HEADER_LEN..]
    }
}

/// Builder for raw Ethernet frames (used directly by the Rether, RLL and
/// VirtualWire control protocols; IP traffic goes through the higher-level
/// [`TcpBuilder`](crate::TcpBuilder)/[`UdpBuilder`](crate::UdpBuilder)).
///
/// ```
/// use vw_packet::{EtherType, EthernetBuilder, MacAddr};
/// let frame = EthernetBuilder::new()
///     .src(MacAddr::from_index(1))
///     .dst(MacAddr::BROADCAST)
///     .ethertype(EtherType::VW_CONTROL)
///     .payload(&[1, 2, 3])
///     .build();
/// assert_eq!(frame.payload(), &[1, 2, 3]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EthernetBuilder<'a> {
    dst: MacAddr,
    src: MacAddr,
    ethertype: EtherType,
    payload: &'a [u8],
}

impl<'a> EthernetBuilder<'a> {
    /// Creates a builder with zeroed addresses and an IPv4 EtherType.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the destination MAC address.
    pub fn dst(mut self, dst: MacAddr) -> Self {
        self.dst = dst;
        self
    }

    /// Sets the source MAC address.
    pub fn src(mut self, src: MacAddr) -> Self {
        self.src = src;
        self
    }

    /// Sets the EtherType.
    pub fn ethertype(mut self, ethertype: EtherType) -> Self {
        self.ethertype = ethertype;
        self
    }

    /// Sets the payload bytes, borrowed until [`build`](Self::build)
    /// copies them into the frame.
    pub fn payload(mut self, payload: &'a [u8]) -> Self {
        self.payload = payload;
        self
    }

    /// Assembles the frame.
    pub fn build(&self) -> Frame {
        Frame::assemble(
            self.dst,
            self.src,
            self.ethertype,
            self.payload.len(),
            |bytes| bytes.extend_from_slice(self.payload),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_rejects_short_buffer() {
        assert!(EthernetHeader::new(&[0u8; 13]).is_err());
        assert!(EthernetHeader::new(&[0u8; 14]).is_ok());
    }

    #[test]
    fn builder_and_view_agree() {
        let frame = EthernetBuilder::new()
            .src(MacAddr::from_index(5))
            .dst(MacAddr::from_index(6))
            .ethertype(EtherType::RETHER)
            .payload(&[0xAA, 0xBB])
            .build();
        let eth = EthernetHeader::new(frame.bytes()).unwrap();
        assert_eq!(eth.src(), MacAddr::from_index(5));
        assert_eq!(eth.dst(), MacAddr::from_index(6));
        assert_eq!(eth.ethertype(), EtherType::RETHER);
        assert_eq!(eth.payload(), &[0xAA, 0xBB]);
    }

    #[test]
    fn empty_payload_is_header_only() {
        let frame = EthernetBuilder::new().build();
        assert_eq!(frame.len(), ETHERNET_HEADER_LEN);
        assert!(frame.payload().is_empty());
    }
}
