//! MAC (hardware) addresses.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::str::FromStr;

use crate::ParseError;

/// A 48-bit IEEE 802 MAC address.
///
/// Used as the link-layer identity of every simulated NIC, and in the FSL
/// *Node Table* which maps a node name to its hardware and IP addresses.
///
/// # Examples
///
/// ```
/// use vw_packet::MacAddr;
///
/// let mac: MacAddr = "00:46:61:af:fe:23".parse().unwrap();
/// assert_eq!(mac.to_string(), "00:46:61:af:fe:23");
/// assert!(!mac.is_broadcast());
/// assert!(MacAddr::BROADCAST.is_broadcast());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// The all-ones broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address, used as a placeholder before assignment.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Creates a locally-administered unicast address from a small node
    /// index, convenient for building simulated testbeds.
    ///
    /// ```
    /// use vw_packet::MacAddr;
    /// assert_ne!(MacAddr::from_index(1), MacAddr::from_index(2));
    /// ```
    pub const fn from_index(index: u32) -> Self {
        let b = index.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Returns the six octets.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// Returns `true` for the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// Returns `true` if the group (multicast) bit is set; broadcast counts.
    pub fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl Default for MacAddr {
    /// The all-zero placeholder address.
    fn default() -> Self {
        MacAddr::ZERO
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

impl From<MacAddr> for [u8; 6] {
    fn from(mac: MacAddr) -> Self {
        mac.0
    }
}

impl AsRef<[u8]> for MacAddr {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MacAddr({self})")
    }
}

/// A `HashMap` keyed by [`MacAddr`] under [`MacHasher`]: the forwarding
/// and per-peer tables probed once per frame.
pub type MacMap<V> = HashMap<MacAddr, V, BuildHasherDefault<MacHasher>>;

/// One multiplication in place of SipHash for [`MacMap`] keys. The
/// addresses are the simulated testbed's own, so there is no flood of
/// chosen keys to keyed-hash against, and a fixed function gives a map
/// the same iteration order in every process.
#[derive(Debug, Clone, Copy, Default)]
pub struct MacHasher(u64);

impl Hasher for MacHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    /// The length prefix of a fixed-size key says nothing.
    fn write_usize(&mut self, _len: usize) {}

    fn finish(&self) -> u64 {
        // Fibonacci hashing; the fold brings the well-mixed high half
        // down to the low bits a table indexes by.
        let h = self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 32)
    }
}

impl FromStr for MacAddr {
    type Err = ParseError;

    /// Parses the conventional colon-separated hex form, e.g.
    /// `00:23:31:df:af:12`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for octet in &mut octets {
            let part = parts
                .next()
                .ok_or_else(|| ParseError::new(format!("malformed MAC address `{s}`")))?;
            *octet = u8::from_str_radix(part, 16)
                .map_err(|_| ParseError::new(format!("malformed MAC address `{s}`")))?;
        }
        if parts.next().is_some() {
            return Err(ParseError::new(format!("malformed MAC address `{s}`")));
        }
        Ok(MacAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trip() {
        let mac = MacAddr::new([0x00, 0x46, 0x61, 0xaf, 0xfe, 0x23]);
        let text = mac.to_string();
        assert_eq!(text, "00:46:61:af:fe:23");
        assert_eq!(text.parse::<MacAddr>().unwrap(), mac);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("00:46:61:af:fe".parse::<MacAddr>().is_err());
        assert!("00:46:61:af:fe:23:99".parse::<MacAddr>().is_err());
        assert!("zz:46:61:af:fe:23".parse::<MacAddr>().is_err());
        assert!("".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_and_multicast() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::from_index(7).is_multicast());
        assert!(MacAddr::new([0x01, 0, 0x5e, 0, 0, 1]).is_multicast());
    }

    #[test]
    fn from_index_is_injective_for_small_ids() {
        let all: Vec<MacAddr> = (0..128).map(MacAddr::from_index).collect();
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                assert_eq!(i == j, a == b);
            }
        }
    }

    #[test]
    fn mac_map_spreads_testbed_addresses_over_buckets_and_tags() {
        use std::hash::BuildHasher;
        // hashbrown indexes by the low bits and tags by the top seven.
        for macs in [
            (0..64).map(MacAddr::from_index).collect::<Vec<_>>(),
            (0..64).map(|i| MacAddr::new([2, i, 0, 0, 0, 0])).collect(),
            (0..64).map(|i| MacAddr::new([2, 0, 0, i, 0, 1])).collect(),
        ] {
            let hashes: Vec<u64> = macs
                .iter()
                .map(|mac| BuildHasherDefault::<MacHasher>::default().hash_one(mac))
                .collect();
            let distinct = |f: fn(u64) -> u64| {
                let mut seen: Vec<u64> = hashes.iter().map(|&h| f(h)).collect();
                seen.sort_unstable();
                seen.dedup();
                seen.len()
            };
            assert!(distinct(|h| h & 127) >= 32, "low bits collide: {macs:?}");
            assert!(distinct(|h| h >> 57) >= 32, "tags collide: {macs:?}");
        }
        let mut map = MacMap::default();
        map.insert(MacAddr::from_index(1), 1u16);
        assert_eq!(map.get(&MacAddr::from_index(1)), Some(&1));
        assert_eq!(map.get(&MacAddr::from_index(2)), None);
    }

    #[test]
    fn ordering_matches_octet_order() {
        assert!(MacAddr::ZERO < MacAddr::BROADCAST);
        assert!(MacAddr::from_index(1) < MacAddr::from_index(2));
    }
}
