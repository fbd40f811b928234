//! EtherType values used across the reproduction.

use std::fmt;

/// A 16-bit EtherType identifying the protocol carried in an Ethernet frame.
///
/// Besides the standard [`IPV4`](EtherType::IPV4) value, the reproduction
/// reserves three values that mirror the paper's wire formats:
///
/// * [`RETHER`](EtherType::RETHER) (`0x9900`) — the Rether control-packet
///   protocol identifier quoted in Section 6.2,
/// * [`VW_CONTROL`](EtherType::VW_CONTROL) — VirtualWire's control-plane
///   protocol ("payloads of raw Ethernet frames", Section 5.2),
/// * [`RLL`](EtherType::RLL) — the Reliable Link Layer encapsulation.
///
/// ```
/// use vw_packet::EtherType;
/// assert_eq!(EtherType::IPV4.value(), 0x0800);
/// assert_eq!(EtherType::RETHER.value(), 0x9900);
/// assert_eq!(format!("{}", EtherType::IPV4), "0x0800");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EtherType(pub u16);

impl EtherType {
    /// Internet Protocol version 4.
    pub const IPV4: EtherType = EtherType(0x0800);
    /// Address Resolution Protocol (unused by the simulator, parsed for
    /// completeness).
    pub const ARP: EtherType = EtherType(0x0806);
    /// Rether control packets (token, token-ack, ring management).
    pub const RETHER: EtherType = EtherType(0x9900);
    /// VirtualWire control-plane messages.
    pub const VW_CONTROL: EtherType = EtherType(0x88B5);
    /// Reliable Link Layer encapsulation.
    pub const RLL: EtherType = EtherType(0x88B6);

    /// The raw 16-bit value.
    pub const fn value(self) -> u16 {
        self.0
    }
}

impl Default for EtherType {
    /// IPv4, by far the most common payload in the testbeds.
    fn default() -> Self {
        EtherType::IPV4
    }
}

impl From<u16> for EtherType {
    fn from(value: u16) -> Self {
        EtherType(value)
    }
}

impl From<EtherType> for u16 {
    fn from(ethertype: EtherType) -> Self {
        ethertype.0
    }
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:04x}", self.0)
    }
}

impl fmt::Debug for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EtherType::IPV4 => write!(f, "EtherType(IPv4)"),
            EtherType::ARP => write!(f, "EtherType(ARP)"),
            EtherType::RETHER => write!(f, "EtherType(Rether)"),
            EtherType::VW_CONTROL => write!(f, "EtherType(VW-control)"),
            EtherType::RLL => write!(f, "EtherType(RLL)"),
            EtherType(v) => write!(f, "EtherType(0x{v:04x})"),
        }
    }
}

impl fmt::LowerHex for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let e: EtherType = 0x9900u16.into();
        assert_eq!(e, EtherType::RETHER);
        let v: u16 = e.into();
        assert_eq!(v, 0x9900);
    }

    #[test]
    fn debug_names_known_values() {
        assert_eq!(format!("{:?}", EtherType::IPV4), "EtherType(IPv4)");
        assert_eq!(format!("{:?}", EtherType(0x1234)), "EtherType(0x1234)");
    }

    #[test]
    fn hex_formatting() {
        assert_eq!(format!("{:x}", EtherType::IPV4), "800");
        assert_eq!(format!("{:X}", EtherType::RETHER), "9900");
    }

    #[test]
    fn reserved_values_are_distinct() {
        let all = [
            EtherType::IPV4,
            EtherType::ARP,
            EtherType::RETHER,
            EtherType::VW_CONTROL,
            EtherType::RLL,
        ];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                assert_eq!(i == j, a == b);
            }
        }
    }
}
