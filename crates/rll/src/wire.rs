//! RLL wire format.
//!
//! An RLL frame is an Ethernet frame with EtherType
//! [`EtherType::RLL`](vw_packet::EtherType::RLL) whose payload is a shim
//! header followed (for DATA and Restart) by the original frame's payload:
//!
//! ```text
//! 0        1        2        6        10       12       14
//! ┌────────┬────────┬────────┬────────┬────────┬────────┬──────────────┐
//! │ opcode │ rsvd   │  seq   │  ack   │ inner  │ cksum  │  payload ... │
//! │  (u8)  │ (u8)   │ (u32)  │ (u32)  │ethertyp│ (u16)  │ (not in ACK) │
//! └────────┴────────┴────────┴────────┴────────┴────────┴──────────────┘
//! ```
//!
//! (The checksum field sits at a 16-bit-aligned offset so that a correct
//! frame sums to zero under RFC 1071 verification.)
//!
//! The checksum is the RFC 1071 sum over the whole frame, Ethernet header
//! included (checksum field zeroed): it stands in for the Ethernet FCS the
//! simulator's error models corrupt, and covers what the FCS covers. A frame
//! failing it is treated as lost — "MAC layer bit errors" must surface as
//! retransmissions, not silent drops (Section 3.3).

use vw_packet::{
    checksum, EtherType, EthernetBuilder, Frame, MacAddr, ParseError, ETHERNET_HEADER_LEN,
};

/// Length of the RLL shim header.
pub const SHIM_LEN: usize = 14;

/// RLL frame opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RllOpcode {
    /// A sequenced data frame carrying an encapsulated payload.
    Data,
    /// A cumulative acknowledgment.
    Ack,
    /// DATA after a give-up: the receiver skips forward to its `seq`.
    Restart,
}

impl RllOpcode {
    fn to_byte(self) -> u8 {
        match self {
            RllOpcode::Data => 1,
            RllOpcode::Ack => 2,
            RllOpcode::Restart => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(RllOpcode::Data),
            2 => Some(RllOpcode::Ack),
            3 => Some(RllOpcode::Restart),
            _ => None,
        }
    }
}

/// A parsed RLL shim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RllShim {
    /// DATA, ACK or Restart.
    pub opcode: RllOpcode,
    /// Sequence number (DATA, Restart) or zero (ACK).
    pub seq: u32,
    /// Cumulative acknowledgment: next sequence number expected.
    pub ack: u32,
    /// The EtherType of the encapsulated frame (zero for ACK).
    pub inner_ethertype: EtherType,
}

/// Builds an RLL DATA frame encapsulating `inner`'s payload and EtherType.
/// The outer MAC addresses are copied from the inner frame.
pub fn build_data(inner: &Frame, seq: u32, ack: u32) -> Frame {
    encapsulate(RllOpcode::Data, inner, seq, ack)
}

/// [`build_data`] under `opcode`, DATA or Restart.
pub(crate) fn encapsulate(opcode: RllOpcode, inner: &Frame, seq: u32, ack: u32) -> Frame {
    build(
        inner.src(),
        inner.dst(),
        RllShim {
            opcode,
            seq,
            ack,
            inner_ethertype: inner.ethertype(),
        },
        inner.payload(),
    )
}

/// Builds an RLL ACK frame from `src` to `dst` acknowledging everything
/// below `ack`.
pub fn build_ack(src: MacAddr, dst: MacAddr, ack: u32) -> Frame {
    build(
        src,
        dst,
        RllShim {
            opcode: RllOpcode::Ack,
            seq: 0,
            ack,
            inner_ethertype: EtherType(0),
        },
        &[],
    )
}

fn build(src: MacAddr, dst: MacAddr, shim: RllShim, payload: &[u8]) -> Frame {
    const SUM_AT: usize = ETHERNET_HEADER_LEN + 12;
    Frame::assemble(dst, src, EtherType::RLL, SHIM_LEN + payload.len(), |out| {
        out.push(shim.opcode.to_byte());
        out.push(0); // reserved: keeps later fields 16-bit aligned
        out.extend_from_slice(&shim.seq.to_be_bytes());
        out.extend_from_slice(&shim.ack.to_be_bytes());
        out.extend_from_slice(&shim.inner_ethertype.value().to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(payload);
        let sum = checksum::checksum(out);
        out[SUM_AT..SUM_AT + 2].copy_from_slice(&sum.to_be_bytes());
    })
}

/// Parses and integrity-checks an RLL frame, returning the shim and the
/// encapsulated payload bytes.
///
/// # Errors
///
/// Returns [`ParseError`] if the frame is not RLL, is truncated, has an
/// unknown opcode, or fails the frame checksum (i.e. was corrupted on the
/// wire).
pub fn parse(frame: &Frame) -> Result<(RllShim, &[u8]), ParseError> {
    if frame.ethertype() != EtherType::RLL {
        return Err(ParseError::new("not an RLL frame"));
    }
    let body = frame.payload();
    if body.len() < SHIM_LEN {
        return Err(ParseError::new("RLL frame truncated"));
    }
    if checksum::checksum(frame.bytes()) != 0 {
        return Err(ParseError::new("RLL checksum mismatch (corrupted frame)"));
    }
    let opcode = RllOpcode::from_byte(body[0])
        .ok_or_else(|| ParseError::new(format!("unknown RLL opcode {}", body[0])))?;
    let seq = u32::from_be_bytes([body[2], body[3], body[4], body[5]]);
    let ack = u32::from_be_bytes([body[6], body[7], body[8], body[9]]);
    let inner_ethertype = EtherType(u16::from_be_bytes([body[10], body[11]]));
    Ok((
        RllShim {
            opcode,
            seq,
            ack,
            inner_ethertype,
        },
        &body[SHIM_LEN..],
    ))
}

/// Reconstructs the original frame from a DATA shim and payload, restoring
/// the inner EtherType and the outer MAC addresses.
pub fn decapsulate(outer: &Frame, shim: &RllShim, payload: &[u8]) -> Frame {
    EthernetBuilder::new()
        .src(outer.src())
        .dst(outer.dst())
        .ethertype(shim.inner_ethertype)
        .payload(payload)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vw_packet::UdpBuilder;

    fn inner() -> Frame {
        UdpBuilder::new()
            .src_mac(MacAddr::from_index(1))
            .dst_mac(MacAddr::from_index(2))
            .src_port(5)
            .dst_port(7)
            .payload(b"inner data")
            .build()
    }

    #[test]
    fn data_round_trip() {
        let original = inner();
        let data = build_data(&original, 42, 7);
        assert_eq!(data.ethertype(), EtherType::RLL);
        assert_eq!(data.src(), original.src());
        assert_eq!(data.dst(), original.dst());
        let (shim, payload) = parse(&data).unwrap();
        assert_eq!(shim.opcode, RllOpcode::Data);
        assert_eq!(shim.seq, 42);
        assert_eq!(shim.ack, 7);
        assert_eq!(shim.inner_ethertype, EtherType::IPV4);
        let restored = decapsulate(&data, &shim, payload);
        assert_eq!(restored, original);
    }

    #[test]
    fn ack_round_trip() {
        let ack = build_ack(MacAddr::from_index(3), MacAddr::from_index(4), 1234);
        let (shim, payload) = parse(&ack).unwrap();
        assert_eq!(shim.opcode, RllOpcode::Ack);
        assert_eq!(shim.ack, 1234);
        assert!(payload.is_empty());
    }

    #[test]
    fn corruption_is_detected() {
        let data = build_data(&inner(), 1, 0);
        for byte in 0..data.len() {
            let mut bad = data.clone();
            bad.flip_bit(byte, 2);
            assert!(parse(&bad).is_err(), "flip at byte {byte} went undetected");
        }
    }

    #[test]
    fn non_rll_rejected() {
        assert!(parse(&inner()).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let short = EthernetBuilder::new()
            .ethertype(EtherType::RLL)
            .payload(&[1, 2, 3])
            .build();
        assert!(parse(&short).is_err());
    }

    proptest! {
        #[test]
        fn arbitrary_payload_round_trips(
            seq in any::<u32>(),
            ack in any::<u32>(),
            payload in proptest::collection::vec(any::<u8>(), 0..800),
        ) {
            let original = EthernetBuilder::new()
                .src(MacAddr::from_index(9))
                .dst(MacAddr::from_index(10))
                .ethertype(EtherType(0x7777))
                .payload(&payload)
                .build();
            let data = build_data(&original, seq, ack);
            let (shim, p) = parse(&data).unwrap();
            prop_assert_eq!(shim.seq, seq);
            prop_assert_eq!(shim.ack, ack);
            let restored = decapsulate(&data, &shim, p);
            prop_assert_eq!(restored, original);
        }
    }
}
