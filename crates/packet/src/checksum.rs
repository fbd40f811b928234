//! RFC 1071 internet checksum, including the TCP/UDP pseudo-header.

use std::net::Ipv4Addr;

/// Computes the one's-complement internet checksum over `data`.
///
/// This is the checksum algorithm used by IPv4, TCP and UDP. Odd-length
/// input is padded with a trailing zero byte, as the RFC requires.
///
/// ```
/// // The classic RFC 1071 worked example.
/// let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
/// assert_eq!(vw_packet::checksum::checksum(&data), !0xddf2);
/// ```
pub fn checksum(data: &[u8]) -> u16 {
    finish(sum_words(data))
}

/// Accumulates the 16-bit one's-complement sum of `data` (no final
/// complement), so partial sums over disjoint ranges can be combined.
///
/// ```
/// use vw_packet::checksum::{checksum, finish, sum_words};
/// let data = b"an example payload";
/// let (a, b) = data.split_at(8); // even split keeps word alignment
/// assert_eq!(checksum(data), finish(sum_words(a) + sum_words(b)));
/// ```
pub fn sum_words(data: &[u8]) -> u32 {
    // Eight bytes per iteration: each u64 load is four 16-bit words summed
    // into independent lanes of a u64 accumulator, so the loop runs at
    // word width instead of byte-pair width. Lane sums cannot overflow:
    // each addend is < 2^16 and inputs are frame-sized.
    let mut wide = 0u64;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        wide += (w >> 48) + ((w >> 32) & 0xffff) + ((w >> 16) & 0xffff) + (w & 0xffff);
    }
    let mut tail = chunks.remainder().chunks_exact(2);
    for chunk in &mut tail {
        wide += u64::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = tail.remainder() {
        wide += u64::from(u16::from_be_bytes([*last, 0]));
    }
    // Fold to u32 so partial sums still combine with plain `+`.
    while wide >> 32 != 0 {
        wide = (wide & 0xffff_ffff) + (wide >> 32);
    }
    wide as u32
}

/// Folds carries and complements a partial sum produced by [`sum_words`].
pub fn finish(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Computes the TCP/UDP checksum with the IPv4 pseudo-header prepended.
///
/// `segment` must be the full transport header plus payload, with its
/// checksum field zeroed. `protocol` is the IP protocol number (6 for TCP,
/// 17 for UDP).
///
/// ```
/// use std::net::Ipv4Addr;
/// use vw_packet::checksum::pseudo_header_checksum;
///
/// let src = Ipv4Addr::new(192, 168, 1, 1);
/// let dst = Ipv4Addr::new(192, 168, 1, 2);
/// let segment = [0u8; 20];
/// let sum = pseudo_header_checksum(src, dst, 6, &segment);
/// assert_ne!(sum, 0);
/// ```
///
/// # Panics
///
/// Panics if `segment` is longer than the pseudo-header's 16-bit length
/// can say. A parsed segment never is: it is cut by the IP total-length
/// field.
pub fn pseudo_header_checksum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, segment: &[u8]) -> u16 {
    let mut pseudo = [0u8; 12];
    pseudo[0..4].copy_from_slice(&src.octets());
    pseudo[4..8].copy_from_slice(&dst.octets());
    pseudo[9] = protocol;
    let len = u16::try_from(segment.len()).expect("segment exceeds the u16 pseudo-header length");
    pseudo[10..12].copy_from_slice(&len.to_be_bytes());
    finish(sum_words(&pseudo) + sum_words(segment))
}

/// Verifies a transport segment whose checksum field is *in place*: the sum
/// over pseudo-header + segment must be zero.
pub fn verify_pseudo_header_checksum(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: u8,
    segment: &[u8],
) -> bool {
    pseudo_header_checksum(src, dst, protocol, segment) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_data_checksums_to_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), checksum(&[0xab, 0x00]));
    }

    #[test]
    fn known_ipv4_header_vector() {
        // Example IPv4 header from RFC 1071 discussions / Wikipedia, with
        // checksum field (bytes 10-11) zeroed; expected checksum 0xb861.
        let header = [
            0x45u8, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(checksum(&header), 0xb861);
    }

    #[test]
    fn verify_detects_single_bit_flip() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut segment = vec![0u8; 28];
        segment[0] = 0x12;
        segment[1] = 0x34;
        let sum = pseudo_header_checksum(src, dst, 17, &segment);
        segment[6..8].copy_from_slice(&sum.to_be_bytes());
        assert!(verify_pseudo_header_checksum(src, dst, 17, &segment));
        segment[20] ^= 0x40;
        assert!(!verify_pseudo_header_checksum(src, dst, 17, &segment));
    }

    proptest! {
        #[test]
        fn checksummed_data_always_verifies(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            // Append the checksum as a trailer; total must then verify to 0.
            let sum = checksum(&data);
            let mut with_sum = data.clone();
            with_sum.extend_from_slice(&sum.to_be_bytes());
            // Only guaranteed when data length is even (trailer stays aligned).
            if data.len() % 2 == 0 {
                prop_assert_eq!(checksum(&with_sum), 0);
            }
        }

        #[test]
        fn split_sums_equal_full_sum(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
            let split = (split / 2 * 2).min(data.len()); // keep 16-bit alignment
            let (a, b) = data.split_at(split);
            prop_assert_eq!(finish(sum_words(a) + sum_words(b)), checksum(&data));
        }
    }
}
