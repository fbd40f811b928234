//! Rether control-frame wire format.
//!
//! Rether control packets are raw Ethernet frames with protocol identifier
//! `0x9900` (the value the paper's Figure 6 filter table matches at offset
//! 12) and a 16-bit opcode at offset 14: `0x0001` for the token and
//! `0x0010` for the token acknowledgment — again exactly the Figure 6
//! patterns.
//!
//! The token additionally carries a generation number (to kill stale tokens
//! after a regeneration), a cycle counter, and the current ring membership,
//! so that a ring reconstructed after a node failure propagates to every
//! surviving member with the token itself.

use vw_packet::codec::{Reader, Writer};
use vw_packet::{EtherType, Frame, MacAddr, ParseError};

/// Opcode of a token frame (`(14 2 0x0001)` in Figure 6).
pub const OPCODE_TOKEN: u16 = 0x0001;
/// Opcode of a token acknowledgment (`(14 2 0x0010)` in Figure 6).
pub const OPCODE_TOKEN_ACK: u16 = 0x0010;

/// The circulating token. `R` holds the ring: owned MACs for a token to
/// build; for one [`parse`]d out of a frame, each member's MAC octets
/// where they sit in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<R = Vec<MacAddr>> {
    /// Regeneration generation: tokens older than a node's view are dead.
    pub generation: u32,
    /// Completed rotations (incremented by the ring's first member).
    pub cycle: u32,
    /// Current ring membership in rotation order.
    pub ring: R,
}

/// Builds a token frame from `src` to `dst`.
pub fn build_token(src: MacAddr, dst: MacAddr, token: &Token) -> Frame {
    build_token_parts(src, dst, token.generation, token.cycle, &token.ring)
}

/// Builds a token frame without requiring an assembled [`Token`], so a
/// sender holding the ring by reference need not clone it first.
pub fn build_token_parts(
    src: MacAddr,
    dst: MacAddr,
    generation: u32,
    cycle: u32,
    ring: &[MacAddr],
) -> Frame {
    let capacity = 2 + 4 + 4 + 1 + ring.len() * 6;
    Frame::assemble(dst, src, EtherType::RETHER, capacity, |out| {
        let mut w = Writer::be(out);
        w.u16(OPCODE_TOKEN);
        w.u32(generation);
        w.u32(cycle);
        w.list8(ring, |w, mac| w.bytes(&mac.octets()));
    })
}

/// Builds a token acknowledgment from `src` to `dst` echoing `generation`.
pub fn build_token_ack(src: MacAddr, dst: MacAddr, generation: u32) -> Frame {
    Frame::assemble(dst, src, EtherType::RETHER, 6, |out| {
        let mut w = Writer::be(out);
        w.u16(OPCODE_TOKEN_ACK);
        w.u32(generation);
    })
}

/// A parsed Rether control frame, borrowing from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetherMessage<'a> {
    /// The token, with its state.
    Token(Token<&'a [[u8; 6]]>),
    /// An acknowledgment echoing the token generation.
    TokenAck {
        /// Echoed generation number.
        generation: u32,
    },
}

/// Parses a Rether control frame.
///
/// # Errors
///
/// Returns [`ParseError`] if the frame is not Rether, is truncated, or has
/// an unknown opcode.
pub fn parse(frame: &Frame) -> Result<RetherMessage<'_>, ParseError> {
    if frame.ethertype() != EtherType::RETHER {
        return Err(ParseError::new("not a Rether frame"));
    }
    // Bytes past the message (link-layer padding) are tolerated.
    let mut r = Reader::be(frame.payload());
    match r.u16()? {
        OPCODE_TOKEN => Ok(RetherMessage::Token(Token {
            generation: r.u32()?,
            cycle: r.u32()?,
            ring: {
                let members = usize::from(r.u8()?);
                r.take(members * 6)?.as_chunks().0
            },
        })),
        OPCODE_TOKEN_ACK => Ok(RetherMessage::TokenAck {
            generation: r.u32()?,
        }),
        other => Err(ParseError::new(format!(
            "unknown Rether opcode 0x{other:04x}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_packet::{offsets, EthernetBuilder};

    fn macs(n: u32) -> Vec<MacAddr> {
        (1..=n).map(MacAddr::from_index).collect()
    }

    fn octets(token: &Token) -> Vec<[u8; 6]> {
        token.ring.iter().map(|mac| mac.octets()).collect()
    }

    /// What parsing `token`'s frame gives, `ring` being its octets.
    fn parsed<'a>(token: &Token, ring: &'a [[u8; 6]]) -> RetherMessage<'a> {
        RetherMessage::Token(Token {
            generation: token.generation,
            cycle: token.cycle,
            ring,
        })
    }

    #[test]
    fn token_round_trip() {
        let token = Token {
            generation: 3,
            cycle: 1042,
            ring: macs(4),
        };
        let frame = build_token(MacAddr::from_index(1), MacAddr::from_index(2), &token);
        assert_eq!(frame.ethertype(), EtherType::RETHER);
        assert_eq!(parse(&frame).unwrap(), parsed(&token, &octets(&token)));
    }

    #[test]
    fn token_ack_round_trip() {
        let frame = build_token_ack(MacAddr::from_index(2), MacAddr::from_index(1), 7);
        match parse(&frame).unwrap() {
            RetherMessage::TokenAck { generation } => assert_eq!(generation, 7),
            other => panic!("wrong message {other:?}"),
        }
    }

    #[test]
    fn figure6_filter_offsets_match() {
        // The Figure 6 filter table matches (12 2 0x9900) and (14 2 opcode).
        let token = build_token(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            &Token {
                generation: 0,
                cycle: 0,
                ring: macs(4),
            },
        );
        assert_eq!(token.read_at(offsets::ETHERTYPE, 2).unwrap(), &[0x99, 0x00]);
        assert_eq!(token.read_at(14, 2).unwrap(), &[0x00, 0x01]);
        let ack = build_token_ack(MacAddr::from_index(2), MacAddr::from_index(1), 0);
        assert_eq!(ack.read_at(offsets::ETHERTYPE, 2).unwrap(), &[0x99, 0x00]);
        assert_eq!(ack.read_at(14, 2).unwrap(), &[0x00, 0x10]);
    }

    #[test]
    fn garbage_rejected() {
        let not_rether = EthernetBuilder::new().payload(&[0, 0]).build();
        assert!(parse(&not_rether).is_err());
        let bad_opcode = EthernetBuilder::new()
            .ethertype(EtherType::RETHER)
            .payload(&[0xBE, 0xEF])
            .build();
        assert!(parse(&bad_opcode).is_err());
        let truncated_token = EthernetBuilder::new()
            .ethertype(EtherType::RETHER)
            .payload(&[0x00, 0x01, 0x00])
            .build();
        assert!(parse(&truncated_token).is_err());
        // Ring list shorter than its declared count.
        let mut payload = vec![0x00, 0x01];
        payload.extend_from_slice(&0u32.to_be_bytes());
        payload.extend_from_slice(&0u32.to_be_bytes());
        payload.push(4); // claims 4 members, provides none
        let bad_ring = EthernetBuilder::new()
            .ethertype(EtherType::RETHER)
            .payload(&payload)
            .build();
        assert!(parse(&bad_ring).is_err());
    }

    #[test]
    fn empty_ring_token_is_legal() {
        let token = Token {
            generation: 1,
            cycle: 0,
            ring: Vec::new(),
        };
        let frame = build_token(MacAddr::from_index(1), MacAddr::from_index(2), &token);
        assert_eq!(parse(&frame).unwrap(), parsed(&token, &[]));
    }
}
