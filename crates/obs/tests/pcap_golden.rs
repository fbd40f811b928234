//! pcap exporter contract tests: golden bytes for the on-disk format, and
//! byte-for-byte round-trip of every frame a [`TraceSink`] captured.

use proptest::prelude::*;
use vw_netsim::{DeviceId, SimTime, TraceKind, TraceSink};
use vw_obs::pcap;
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};

fn frame(src: u32, dst: u32, ethertype: EtherType, payload: &[u8]) -> Frame {
    EthernetBuilder::new()
        .src(MacAddr::from_index(src))
        .dst(MacAddr::from_index(dst))
        .ethertype(ethertype)
        .payload(payload)
        .build()
}

/// The exact bytes of a capture holding one 18-byte frame at t=1.000000002s.
/// Field-by-field golden so any format drift fails loudly.
#[test]
fn golden_header_and_one_record() {
    let f = frame(1, 2, EtherType::VW_CONTROL, &[0xde, 0xad, 0xbe, 0xef]);
    assert_eq!(f.len(), 18);
    let capture = pcap::export_frames([(SimTime::from_nanos(1_000_000_002), f.bytes())]);

    #[rustfmt::skip]
    let mut expected: Vec<u8> = vec![
        // global header
        0x4d, 0x3c, 0xb2, 0xa1, // nanosecond magic, little-endian
        0x02, 0x00,             // version major 2
        0x04, 0x00,             // version minor 4
        0x00, 0x00, 0x00, 0x00, // thiszone
        0x00, 0x00, 0x00, 0x00, // sigfigs
        0xff, 0xff, 0x00, 0x00, // snaplen 65535
        0x01, 0x00, 0x00, 0x00, // LINKTYPE_ETHERNET
        // record header
        0x01, 0x00, 0x00, 0x00, // ts_sec = 1
        0x02, 0x00, 0x00, 0x00, // ts_nsec = 2
        0x12, 0x00, 0x00, 0x00, // incl_len = 18
        0x12, 0x00, 0x00, 0x00, // orig_len = 18
    ];
    expected.extend_from_slice(f.bytes());
    assert_eq!(capture, expected);
    assert_eq!(&capture[..24], &pcap::file_header());
}

#[test]
fn trace_sink_round_trip_byte_for_byte() {
    let mut sink = TraceSink::default();
    let frames = [
        frame(1, 2, EtherType::IPV4, &[0u8; 46]),
        frame(3, 1, EtherType::VW_CONTROL, &[0x11; 7]),
        frame(2, 1, EtherType::RETHER, &[]),
    ];
    for (i, f) in frames.iter().enumerate() {
        sink.record(
            SimTime::from_nanos(i as u64 * 1_000 + 1),
            DeviceId::from_index(i),
            if i == 1 {
                TraceKind::HookEmit
            } else {
                TraceKind::HostSend
            },
            Some(f),
            String::new,
        );
    }
    // Non-wire records must not appear in the capture.
    sink.record(
        SimTime::from_nanos(9_999),
        DeviceId::from_index(0),
        TraceKind::HostRecv,
        Some(&frames[0]),
        || "delivered".into(),
    );
    sink.record(
        SimTime::from_nanos(10_000),
        DeviceId::from_index(0),
        TraceKind::HookConsume,
        None,
        || "fie".into(),
    );

    let capture = pcap::export_trace(&sink);
    let packets = pcap::parse(&capture).expect("own capture parses");
    assert_eq!(packets.len(), 3);
    for (i, (f, p)) in frames.iter().zip(&packets).enumerate() {
        assert_eq!(p.bytes, f.bytes(), "frame {i} must survive byte-for-byte");
        assert_eq!(p.time_ns, i as u64 * 1_000 + 1);
    }

    // export_records keeps every frame-carrying record, including the
    // HostRecv delivery, but still skips the frameless hook-consume record.
    let all = pcap::parse(&pcap::export_records(sink.records())).unwrap();
    assert_eq!(all.len(), 4);
}

proptest! {
    /// Any frame at any sim time survives export + parse exactly.
    #[test]
    fn round_trip_arbitrary_frames(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        nanos in any::<u64>(),
        src in 0u32..16,
        dst in 0u32..16,
    ) {
        let f = frame(src, dst, EtherType::IPV4, &payload);
        let capture = pcap::export_frames([(SimTime::from_nanos(nanos), f.bytes())]);
        let packets = pcap::parse(&capture).unwrap();
        prop_assert_eq!(packets.len(), 1);
        prop_assert_eq!(&packets[0].bytes, f.bytes());
        // ts_sec is 32-bit in classic pcap; times past 2^32 seconds wrap
        // there, but every realistic sim time round-trips exactly.
        if nanos / 1_000_000_000 <= u64::from(u32::MAX) {
            prop_assert_eq!(packets[0].time_ns, nanos);
        }
    }
}
