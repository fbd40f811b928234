//! Golden bytes for one frame of every kind the tower builds: a TCP
//! segment, a UDP datagram, RLL DATA and ACK, a Rether token and a
//! sequenced `0x88B5` control frame. Whatever assembles a frame (how many
//! buffers it stages through, how its checksums are summed) must put these
//! exact bytes on the wire.

use std::net::Ipv4Addr;

use virtualwire::wire::{build_sequenced_frame, ControlMsg};
use vw_fsl::CounterId;
use vw_packet::{EtherType, Frame, MacAddr, TcpBuilder, TcpFlags, UdpBuilder};
use vw_rether::wire::{build_token, Token};

fn hex(frame: &Frame) -> String {
    frame.bytes().iter().map(|b| format!("{b:02x}")).collect()
}

fn golden(text: &str) -> String {
    text.split_whitespace().collect()
}

fn mac(i: u8) -> MacAddr {
    MacAddr::new([0x02, 0, 0, 0, 0, i])
}

fn tcp_segment() -> Frame {
    TcpBuilder::new()
        .src_mac(mac(1))
        .dst_mac(mac(2))
        .src_ip(Ipv4Addr::new(192, 168, 1, 2))
        .dst_ip(Ipv4Addr::new(192, 168, 1, 3))
        .src_port(0x6000)
        .dst_port(0x4000)
        .seq(0xDEAD_BEEF)
        .ack(0x1234_5678)
        .flags(TcpFlags::ACK | TcpFlags::PSH)
        .window(4096)
        .ident(0x0102)
        .payload(b"odd bytes")
        .build()
}

#[test]
fn tcp_segment_with_an_odd_length_payload() {
    let frame = tcp_segment();
    assert_eq!(
        hex(&frame),
        golden(
            "020000000002 020000000001 0800
             4500 0031 0102 4000 40 06 b66f c0a80102 c0a80103
             6000 4000 deadbeef 12345678 50 18 1000 58bf 0000
             6f6464206279746573"
        )
    );
    assert!(frame.ipv4().unwrap().verify_checksum());
    assert!(frame.tcp().unwrap().verify_checksum());
}

/// The payload is the complement of everything else the checksum covers,
/// so the sum comes to zero and RFC 768's substitute goes out instead.
#[test]
fn udp_datagram_whose_checksum_computes_to_zero() {
    let frame = UdpBuilder::new()
        .src_mac(mac(1))
        .dst_mac(mac(2))
        .src_ip(Ipv4Addr::new(192, 168, 1, 2))
        .dst_ip(Ipv4Addr::new(192, 168, 1, 3))
        .src_port(9000)
        .dst_port(0x6363)
        .ident(7)
        .payload(&[0xf5, 0xf8])
        .build();
    assert_eq!(
        hex(&frame),
        golden(
            "020000000002 020000000001 0800
             4500 001e 0007 4000 40 11 b772 c0a80102 c0a80103
             2328 6363 000a ffff
             f5f8"
        )
    );
    let udp = frame.udp().unwrap();
    assert_eq!(udp.checksum_field(), 0xffff);
    assert!(udp.verify_checksum());
}

#[test]
fn rll_data_and_ack() {
    let data = vw_rll::wire::build_data(&tcp_segment(), 0x0102_0304, 0x0a0b_0c0d);
    assert_eq!(
        hex(&data),
        golden(
            "020000000002 020000000001 88b6
             01 00 01020304 0a0b0c0d 0800 d3a1
             4500 0031 0102 4000 40 06 b66f c0a80102 c0a80103
             6000 4000 deadbeef 12345678 50 18 1000 58bf 0000
             6f6464206279746573"
        )
    );
    let (shim, payload) = vw_rll::wire::parse(&data).expect("checksum verifies");
    assert_eq!(
        vw_rll::wire::decapsulate(&data, &shim, payload),
        tcp_segment()
    );

    let ack = vw_rll::wire::build_ack(mac(2), mac(1), 0x0102_0305);
    assert_eq!(
        hex(&ack),
        golden(
            "020000000001 020000000002 88b6
             02 00 00000000 01020305 0000 6d3f"
        )
    );
    assert!(vw_rll::wire::parse(&ack).is_ok());
}

#[test]
fn rether_token() {
    let token = Token {
        generation: 3,
        cycle: 0x0412,
        ring: vec![mac(1), mac(2), mac(3)],
    };
    let frame = build_token(mac(1), mac(2), &token);
    assert_eq!(frame.ethertype(), EtherType::RETHER);
    assert_eq!(
        hex(&frame),
        golden(
            "020000000002 020000000001 9900
             0001 00000003 00000412
             03 020000000001 020000000002 020000000003"
        )
    );
}

#[test]
fn sequenced_control_frame() {
    let msg = ControlMsg::CounterUpdate {
        counter: CounterId(5),
        value: -2,
    };
    let frame = build_sequenced_frame(mac(1), mac(2), 41, 17, &msg);
    assert_eq!(frame.ethertype(), EtherType::VW_CONTROL);
    assert_eq!(
        hex(&frame),
        golden(
            "020000000002 020000000001 88b5
             d7 02 0000000b 00000029 00000011
             03 0005 fffffffffffffffe"
        )
    );
}

/// A segment one byte past what the IP total-length field can say is a
/// bug in the caller; the builder says so instead of wrapping the field.
#[test]
#[should_panic(expected = "packet exceeds the u16 IP total-length field")]
fn tcp_segment_one_byte_too_long_panics_instead_of_wrapping() {
    TcpBuilder::new()
        .payload(&vec![0; usize::from(u16::MAX) - 40 + 1])
        .build();
}
