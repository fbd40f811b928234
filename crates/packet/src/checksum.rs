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
    // The one's-complement sum does not depend on byte order (RFC 1071
    // §2(B)): summing the 16-bit words as the host reads them and swapping
    // the two bytes of the folded result gives the big-endian sum. So the
    // loop loads native-endian and swaps nothing per word. Each u64 load
    // is two 32-bit halves added into one of four independent u64 lanes,
    // 32 bytes per iteration; a lane gains less than 2^33 per block, so it
    // cannot overflow below 64 GiB of input.
    let halves = |w: u64| (w & 0xffff_ffff) + (w >> 32);
    let load = |word: &[u8]| halves(u64::from_ne_bytes(word.try_into().expect("8-byte chunk")));
    let mut lanes = [0u64; 4];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane += load(word);
        }
    }
    let mut wide: u64 = lanes.into_iter().map(halves).sum();
    let mut quads = blocks.remainder().chunks_exact(8);
    for word in &mut quads {
        wide += load(word);
    }
    let mut words = quads.remainder().chunks_exact(2);
    for word in &mut words {
        wide += u64::from(u16::from_ne_bytes([word[0], word[1]]));
    }
    if let [last] = words.remainder() {
        wide += u64::from(u16::from_ne_bytes([*last, 0]));
    }
    // Fold to 16 bits: a non-zero sum never folds to zero, so a multiple
    // of 0xffff comes out as 0xffff. Partial sums still combine with `+`.
    while wide >> 16 != 0 {
        wide = (wide & 0xffff) + (wide >> 16);
    }
    u32::from(u16::from_be(wide as u16))
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
    let len = u16::try_from(segment.len()).expect("segment exceeds the u16 pseudo-header length");
    // The twelve pseudo-header bytes as the six words they are.
    let (src, dst) = (u32::from(src), u32::from(dst));
    let pseudo = (src >> 16) + (src & 0xffff) + (dst >> 16) + (dst & 0xffff);
    finish(pseudo + u32::from(protocol) + u32::from(len) + sum_words(segment))
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

    /// The definition: big-endian words two bytes at a time, an odd last
    /// byte padded with zero, carries folded once at the end.
    fn reference(data: &[u8]) -> u16 {
        let mut sum = 0u64;
        for pair in data.chunks(2) {
            sum += u64::from(u16::from_be_bytes([pair[0], *pair.get(1).unwrap_or(&0)]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        sum as u16
    }

    /// `finish` without the complement: what a partial sum folds to.
    fn folded(sum: u32) -> u16 {
        !finish(sum)
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn every_length_at_every_alignment_matches_the_reference() {
        let buffer = noise(2048 + 8);
        for start in 0..8 {
            for len in 0..=2048 {
                let slice = &buffer[start..start + len];
                assert_eq!(
                    folded(sum_words(slice)),
                    reference(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn every_even_split_sums_to_the_whole() {
        let buffer = noise(301);
        for len in [2, 31, 32, 33, 64, 150, 301] {
            let data = &buffer[..len];
            for split in (0..=len).step_by(2) {
                let (a, b) = data.split_at(split);
                assert_eq!(
                    folded(sum_words(a) + sum_words(b)),
                    reference(data),
                    "len {len} split {split}"
                );
            }
        }
    }

    #[test]
    fn a_nonzero_multiple_of_ffff_folds_to_ffff_not_zero() {
        for data in [
            &[0xffu8; 6][..],
            &[0x00, 0x01, 0xff, 0xfe],
            &[0xff; 64],
            &[0x12, 0x34, 0xed, 0xcb, 0xff, 0xff],
        ] {
            assert_eq!(folded(sum_words(data)), 0xffff, "{data:02x?}");
            assert_eq!(checksum(data), 0);
        }
        assert_eq!(sum_words(&[0; 64]), 0);
    }

    #[test]
    fn the_longest_ip_packet_of_ones_does_not_overflow_a_lane() {
        let data = vec![0xff; 65_535];
        assert_eq!(folded(sum_words(&data)), reference(&data));
        assert_eq!(checksum(&data), 0x00ff);
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
