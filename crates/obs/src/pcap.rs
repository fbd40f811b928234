//! Classic libpcap export for simulator traces.
//!
//! Writes the original (non-pcapng) capture format with the
//! **nanosecond-resolution** magic `0xa1b23c4d`, `LINKTYPE_ETHERNET`, so a
//! [`TraceSink`](vw_netsim::TraceSink) — including injected/duplicated
//! frames and `0x88B5` control traffic — opens directly in Wireshark or
//! `tcpdump -r`. Sim time is nanosecond-exact, so the nanosecond variant
//! round-trips timestamps without loss.
//!
//! A minimal [`parse`] reader exists for round-trip tests; it is not a
//! general pcap implementation (it only accepts what [`file_header`]
//! writes).

use vw_netsim::{SimTime, TraceKind, TraceRecord, TraceSink};
use vw_packet::codec::{Reader, Writer};
use vw_packet::ParseError;

/// The pcap `network` value for Ethernet captures.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// Magic for nanosecond-resolution classic pcap, written little-endian.
pub const MAGIC_NANOS: u32 = 0xa1b2_3c4d;

/// Maximum bytes captured per packet (we never truncate; this is the
/// advertised snaplen).
pub const SNAPLEN: u32 = 65_535;

const FILE_HEADER_LEN: usize = 24;

/// The 24-byte pcap global header: nanosecond magic, version 2.4,
/// UTC (zone 0), snaplen 65535, `LINKTYPE_ETHERNET`.
pub fn file_header() -> [u8; 24] {
    let mut h = [0u8; FILE_HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC_NANOS.to_le_bytes());
    h[4..6].copy_from_slice(&2u16.to_le_bytes()); // version_major
    h[6..8].copy_from_slice(&4u16.to_le_bytes()); // version_minor
                                                  // thiszone (4) and sigfigs (4) stay zero.
    h[16..20].copy_from_slice(&SNAPLEN.to_le_bytes());
    h[20..24].copy_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
    h
}

/// Appends one packet record (16-byte header + frame bytes) to `out`.
pub fn append_frame(out: &mut Vec<u8>, time: SimTime, bytes: &[u8]) {
    let nanos = time.as_nanos();
    let ts_sec = (nanos / 1_000_000_000) as u32;
    let ts_nsec = (nanos % 1_000_000_000) as u32;
    let mut w = Writer::le(out);
    w.u32(ts_sec);
    w.u32(ts_nsec);
    w.len32(bytes.len()); // incl_len: never truncated
    w.len32(bytes.len()); // orig_len
    w.bytes(bytes);
}

/// Serializes `(time, frame-bytes)` pairs into a complete pcap capture.
pub fn export_frames<'a>(frames: impl IntoIterator<Item = (SimTime, &'a [u8])>) -> Vec<u8> {
    let mut out = file_header().to_vec();
    for (time, bytes) in frames {
        append_frame(&mut out, time, bytes);
    }
    out
}

/// Exports every frame-carrying record in `records`, regardless of kind.
pub fn export_records<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> Vec<u8> {
    export_frames(
        records
            .into_iter()
            .filter_map(|r| r.frame.as_ref().map(|f| (r.time, f.bytes()))),
    )
}

/// Exports the wire's view of a run: frames handed to the wire by hosts
/// ([`TraceKind::HostSend`]) and frames injected by hooks
/// ([`TraceKind::HookEmit`]) — i.e. original, duplicated and control
/// traffic, without double-counting deliveries.
pub fn export_trace(trace: &TraceSink) -> Vec<u8> {
    export_records(
        trace
            .records()
            .iter()
            .filter(|r| matches!(r.kind, TraceKind::HostSend | TraceKind::HookEmit)),
    )
}

/// One packet read back out of a capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapPacket {
    /// Capture timestamp in nanoseconds since the epoch (sim start).
    pub time_ns: u64,
    /// The captured frame bytes.
    pub bytes: Vec<u8>,
}

/// Why a capture failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcapError {
    /// The capture is shorter than the 24-byte global header.
    TruncatedHeader,
    /// The magic is not the little-endian nanosecond magic we write.
    BadMagic(u32),
    /// The advertised link type is not Ethernet.
    BadLinkType(u32),
    /// A record header or body extends past the end of the capture.
    TruncatedRecord {
        /// Byte offset of the offending record header.
        offset: usize,
    },
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::TruncatedHeader => write!(f, "capture shorter than the pcap global header"),
            PcapError::BadMagic(m) => write!(f, "unsupported pcap magic {m:#010x}"),
            PcapError::BadLinkType(l) => write!(f, "unsupported link type {l}"),
            PcapError::TruncatedRecord { offset } => {
                write!(f, "truncated pcap record at offset {offset}")
            }
        }
    }
}

impl std::error::Error for PcapError {}

/// Parses a capture produced by this module back into packets.
///
/// Strict by design: only little-endian nanosecond-magic Ethernet
/// captures are accepted, which is exactly what [`export_frames`] writes.
pub fn parse(capture: &[u8]) -> Result<Vec<PcapPacket>, PcapError> {
    let mut r = Reader::le(capture);
    let mut header = || {
        let magic = r.u32()?;
        r.take(16)?; // version, zone, sigfigs, snaplen
        Ok((magic, r.u32()?))
    };
    let (magic, network) = header().map_err(|_: ParseError| PcapError::TruncatedHeader)?;
    if magic != MAGIC_NANOS {
        return Err(PcapError::BadMagic(magic));
    }
    if network != LINKTYPE_ETHERNET {
        return Err(PcapError::BadLinkType(network));
    }
    let mut packets = Vec::new();
    while r.remaining() > 0 {
        let offset = r.position();
        let mut record = || {
            let (ts_sec, ts_nsec, incl_len) = (r.u32()?, r.u32()?, r.u32()?);
            r.u32()?; // orig_len
            Ok((ts_sec, ts_nsec, r.take(incl_len as usize)?))
        };
        let (ts_sec, ts_nsec, bytes) =
            record().map_err(|_: ParseError| PcapError::TruncatedRecord { offset })?;
        packets.push(PcapPacket {
            time_ns: u64::from(ts_sec) * 1_000_000_000 + u64::from(ts_nsec),
            bytes: bytes.to_vec(),
        });
    }
    Ok(packets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_layout() {
        let h = file_header();
        assert_eq!(&h[0..4], &[0x4d, 0x3c, 0xb2, 0xa1]); // LE nanosecond magic
        assert_eq!(&h[4..8], &[2, 0, 4, 0]); // version 2.4
        assert_eq!(&h[8..16], &[0; 8]); // zone + sigfigs
        assert_eq!(&h[16..20], &[0xff, 0xff, 0, 0]); // snaplen 65535
        assert_eq!(&h[20..24], &[1, 0, 0, 0]); // LINKTYPE_ETHERNET
    }

    #[test]
    fn round_trip_exact_nanos() {
        let frames: Vec<(SimTime, Vec<u8>)> = vec![
            (SimTime::from_nanos(0), vec![0xaa; 60]),
            (SimTime::from_nanos(1_500_000_123), vec![1, 2, 3, 4]),
            (
                SimTime::from_nanos(u64::from(u32::MAX) * 1_000_000_000),
                vec![],
            ),
        ];
        let capture = export_frames(frames.iter().map(|(t, b)| (*t, b.as_slice())));
        let packets = parse(&capture).unwrap();
        assert_eq!(packets.len(), 3);
        for ((t, b), p) in frames.iter().zip(&packets) {
            assert_eq!(p.time_ns, t.as_nanos());
            assert_eq!(&p.bytes, b);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse(&[0; 10]), Err(PcapError::TruncatedHeader));
        let mut h = file_header().to_vec();
        h[0] = 0xd4; // microsecond magic: not ours
        assert!(matches!(parse(&h), Err(PcapError::BadMagic(_))));
        let mut h = file_header().to_vec();
        h[20] = 101;
        assert!(matches!(parse(&h), Err(PcapError::BadLinkType(101))));
        let mut capture = file_header().to_vec();
        capture.extend_from_slice(&[0; 15]); // short record header
        assert!(matches!(
            parse(&capture),
            Err(PcapError::TruncatedRecord { offset: 24 })
        ));
        let mut capture = Vec::new();
        append_frame(&mut capture, SimTime::ZERO, &[0; 100]);
        let mut full = file_header().to_vec();
        full.extend_from_slice(&capture[..50]); // body cut short
        assert!(matches!(
            parse(&full),
            Err(PcapError::TruncatedRecord { .. })
        ));
    }
}
