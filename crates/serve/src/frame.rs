//! The `vw-serve` wire framing: a length-prefixed, CRC-checked frame
//! with a fixed 24-byte header, shared by the TCP and unix-socket
//! transports.
//!
//! ```text
//!   offset  size  field
//!   ------  ----  -----------------------------------------------
//!        0     4  magic        0x56575331 ("VWS1"), little-endian
//!        4     1  version      protocol version, currently 1
//!        5     1  type         FrameType discriminant
//!        6     2  reserved     must be zero (ignored on decode)
//!        8     8  request_id   echoes the client's id on replies
//!       16     4  payload_len  bytes that follow the header
//!       20     4  crc32        IEEE CRC-32 over the payload bytes
//! ```
//!
//! All integers are little-endian. The decoder is incremental
//! ([`DecodeBuffer`]) so a connection can feed it whatever chunk sizes
//! the socket produces; every malformed input becomes a typed
//! [`FrameError`], never a panic, mirroring the control-plane codec's
//! `wire_robustness` contract.

use std::error::Error;
use std::fmt;

use vw_packet::codec::Writer;

/// `"VWS1"` read as a little-endian `u32`.
pub const MAGIC: u32 = 0x5657_5331;

/// Current protocol version.
pub const VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 24;

/// Hard cap on a frame payload. Anything larger is rejected before
/// buffering, so a corrupt or hostile length field can't balloon daemon
/// memory.
pub const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// Frame discriminants. Requests are `0x0_`, replies `0x8_`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Client → daemon: submit a campaign ([`Submission`](crate::Submission) payload).
    Submit,
    /// Client → daemon: re-attach to a named campaign and re-stream it.
    Attach,
    /// Client → daemon: request daemon metrics.
    Stats,
    /// Client → daemon: liveness probe.
    Ping,
    /// Daemon → client: campaign accepted (name + totals).
    Accepted,
    /// Daemon → client: one streamed instance outcome line.
    Outcome,
    /// Daemon → client: campaign finished (summary JSONL payload).
    Done,
    /// Daemon → client: typed rejection ([`ErrorCode`](crate::ErrorCode) + message).
    Error,
    /// Daemon → client: reply to [`FrameType::Ping`].
    Pong,
    /// Daemon → client: reply to [`FrameType::Stats`] (Prometheus text).
    StatsReply,
    /// Client → daemon: start a live telemetry stream
    /// ([`Subscribe`](crate::Subscribe) payload).
    Subscribe,
    /// Client → daemon: query the daemon journal
    /// ([`JournalQuery`](crate::JournalQuery) payload).
    JournalQuery,
    /// Daemon → client: one telemetry tick for a subscription
    /// ([`TelemetryDelta`](crate::TelemetryDelta) payload).
    TelemetryDelta,
    /// Daemon → client: reply to [`FrameType::JournalQuery`].
    JournalReply,
}

impl FrameType {
    /// The wire discriminant.
    pub fn as_u8(self) -> u8 {
        match self {
            FrameType::Submit => 0x01,
            FrameType::Attach => 0x02,
            FrameType::Stats => 0x03,
            FrameType::Ping => 0x04,
            FrameType::Accepted => 0x81,
            FrameType::Outcome => 0x82,
            FrameType::Done => 0x83,
            FrameType::Error => 0x84,
            FrameType::Pong => 0x85,
            FrameType::StatsReply => 0x86,
            FrameType::Subscribe => 0x05,
            FrameType::JournalQuery => 0x06,
            FrameType::TelemetryDelta => 0x87,
            FrameType::JournalReply => 0x88,
        }
    }

    /// Parses a wire discriminant.
    pub fn from_u8(byte: u8) -> Option<FrameType> {
        Some(match byte {
            0x01 => FrameType::Submit,
            0x02 => FrameType::Attach,
            0x03 => FrameType::Stats,
            0x04 => FrameType::Ping,
            0x81 => FrameType::Accepted,
            0x82 => FrameType::Outcome,
            0x83 => FrameType::Done,
            0x84 => FrameType::Error,
            0x85 => FrameType::Pong,
            0x86 => FrameType::StatsReply,
            0x05 => FrameType::Subscribe,
            0x06 => FrameType::JournalQuery,
            0x87 => FrameType::TelemetryDelta,
            0x88 => FrameType::JournalReply,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload carries.
    pub frame_type: FrameType,
    /// Client-chosen id echoed on replies, so one connection can
    /// multiplex streams.
    pub request_id: u64,
    /// The payload bytes (codec in [`payload`](crate::payload)).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with the given type, id, and payload.
    pub fn new(frame_type: FrameType, request_id: u64, payload: Vec<u8>) -> Self {
        Frame {
            frame_type,
            request_id,
            payload,
        }
    }

    /// Serializes the frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        let mut w = Writer::le(&mut out);
        w.u32(MAGIC);
        w.u8(VERSION);
        w.u8(self.frame_type.as_u8());
        w.u16(0); // reserved
        w.u64(self.request_id);
        w.len32(self.payload.len());
        w.u32(crc32(&self.payload));
        w.bytes(&self.payload);
        out
    }
}

/// Why a byte stream failed to decode as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`]. Carries what was read.
    BadMagic(u32),
    /// The version byte is not one this decoder speaks.
    UnsupportedVersion(u8),
    /// The type byte maps to no known [`FrameType`].
    UnknownType(u8),
    /// The header promised a payload larger than [`MAX_PAYLOAD`].
    Oversized {
        /// Promised payload length.
        len: u32,
    },
    /// The payload's CRC-32 did not match the header.
    BadCrc {
        /// CRC the header carried.
        header: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(got) => write!(f, "bad frame magic {got:#010x}"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            FrameError::Oversized { len } => {
                write!(f, "payload length {len} exceeds cap {MAX_PAYLOAD}")
            }
            FrameError::BadCrc { header, computed } => write!(
                f,
                "payload crc mismatch: header {header:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl Error for FrameError {}

/// Incremental frame decoder over an arbitrary byte stream.
///
/// Feed it socket reads with [`feed`](DecodeBuffer::feed) and drain
/// complete frames with [`next_frame`](DecodeBuffer::next_frame). A
/// partial frame simply yields `Ok(None)` until more bytes arrive; a
/// malformed one yields a [`FrameError`] and poisons nothing — though
/// connections treat any frame error as fatal, since a framing slip
/// leaves no way to find the next boundary.
#[derive(Debug, Default)]
pub struct DecodeBuffer {
    buf: Vec<u8>,
    pos: usize,
}

impl DecodeBuffer {
    /// An empty decoder.
    pub fn new() -> Self {
        DecodeBuffer::default()
    }

    /// Appends raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, keeping the buffer
        // bounded by one in-flight frame plus read-chunk slack.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered and not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete frame, if the buffer holds one.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let bytes = &self.buf[self.pos..];
        if bytes.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let version = bytes[4];
        if version != VERSION {
            return Err(FrameError::UnsupportedVersion(version));
        }
        let type_byte = bytes[5];
        let frame_type = FrameType::from_u8(type_byte).ok_or(FrameError::UnknownType(type_byte))?;
        let request_id = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let payload_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
        if payload_len as usize > MAX_PAYLOAD {
            return Err(FrameError::Oversized { len: payload_len });
        }
        let header_crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
        let total = HEADER_LEN + payload_len as usize;
        if bytes.len() < total {
            return Ok(None);
        }
        let payload = &bytes[HEADER_LEN..total];
        let computed = crc32(payload);
        if computed != header_crc {
            return Err(FrameError::BadCrc {
                header: header_crc,
                computed,
            });
        }
        let frame = Frame {
            frame_type,
            request_id,
            payload: payload.to_vec(),
        };
        self.pos += total;
        Ok(Some(frame))
    }
}

/// IEEE CRC-32 (the PNG/zlib polynomial), table-driven, dependency-free.
///
/// Slicing-by-8: eight bytes per step through eight tables, so the step's
/// lookups are independent of each other instead of each byte waiting on
/// the one before it; the tail goes a byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        let [b0, b1, b2, b3, b4, b5, b6, b7] = *block else {
            unreachable!("chunks_exact(8) yields 8-byte blocks");
        };
        let [c0, c1, c2, c3] = crc.to_le_bytes();
        crc = T[7][usize::from(b0 ^ c0)]
            ^ T[6][usize::from(b1 ^ c1)]
            ^ T[5][usize::from(b2 ^ c2)]
            ^ T[4][usize::from(b3 ^ c3)]
            ^ T[3][usize::from(b4)]
            ^ T[2][usize::from(b5)]
            ^ T[1][usize::from(b6)]
            ^ T[0][usize::from(b7)];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `T[0]` is the bytewise table; `T[k][i]` is the CRC of byte `i` followed
/// by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise loop the sliced kernel replaced, kept as its reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        const TABLE: [u32; 256] = crc32_tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_agrees_with_the_bytewise_loop_at_every_length_and_alignment() {
        let data: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn frame_round_trips_through_incremental_decode() {
        let frame = Frame::new(FrameType::Submit, 0xDEAD_BEEF, vec![1, 2, 3, 4, 5]);
        let bytes = frame.encode();
        let mut decoder = DecodeBuffer::new();
        // Feed one byte at a time: every prefix is "not yet", never an error.
        for (i, b) in bytes.iter().enumerate() {
            if i + 1 < bytes.len() {
                decoder.feed(&[*b]);
                assert_eq!(decoder.next_frame(), Ok(None), "premature at byte {i}");
            } else {
                decoder.feed(&[*b]);
            }
        }
        assert_eq!(decoder.next_frame(), Ok(Some(frame)));
        assert_eq!(decoder.next_frame(), Ok(None));
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let a = Frame::new(FrameType::Ping, 1, vec![]);
        let b = Frame::new(FrameType::Outcome, 2, vec![9; 100]);
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());
        let mut decoder = DecodeBuffer::new();
        decoder.feed(&bytes);
        assert_eq!(decoder.next_frame(), Ok(Some(a)));
        assert_eq!(decoder.next_frame(), Ok(Some(b)));
        assert_eq!(decoder.next_frame(), Ok(None));
    }
}
