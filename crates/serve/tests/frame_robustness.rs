//! Adversarial corpus for the wire framing, mirroring the engine's
//! `wire_robustness` suite: every malformed byte stream must surface a
//! typed [`FrameError`] (or wait for more bytes) — never a panic, never
//! a wild allocation — and a live daemon must shrug off half-written
//! frames and mid-stream disconnects.

mod common;

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::time::Duration;

use proptest::prelude::*;
use vw_serve::frame::{
    crc32, DecodeBuffer, Frame, FrameError, FrameType, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
use vw_serve::payload::decode_error;
use vw_serve::{
    Daemon, DaemonConfig, ErrorCode, JournalQuery, JournalReply, SetupRegistry, Submission,
    Subscribe, TelemetryDelta,
};

fn sample_frame() -> Vec<u8> {
    Frame::new(FrameType::Submit, 42, b"not a real submission".to_vec()).encode()
}

fn decode_all(bytes: &[u8]) -> Result<Vec<Frame>, FrameError> {
    let mut buf = DecodeBuffer::new();
    buf.feed(bytes);
    let mut frames = Vec::new();
    while let Some(frame) = buf.next_frame()? {
        frames.push(frame);
    }
    Ok(frames)
}

#[test]
fn every_truncation_waits_instead_of_erroring() {
    let bytes = sample_frame();
    for cut in 0..bytes.len() {
        let mut buf = DecodeBuffer::new();
        buf.feed(&bytes[..cut]);
        // A prefix of a valid frame is just an incomplete frame: the
        // decoder asks for more bytes rather than reporting corruption.
        assert!(
            matches!(buf.next_frame(), Ok(None)),
            "truncation at {cut} misclassified"
        );
        // Feeding the rest completes it.
        buf.feed(&bytes[cut..]);
        let frame = buf.next_frame().expect("completes").expect("one frame");
        assert_eq!(frame.frame_type, FrameType::Submit);
        assert_eq!(frame.request_id, 42);
    }
}

#[test]
fn bad_magic_is_a_typed_error() {
    let mut bytes = sample_frame();
    bytes[0] ^= 0xFF;
    assert!(matches!(decode_all(&bytes), Err(FrameError::BadMagic(_))));
}

#[test]
fn bad_version_is_a_typed_error() {
    let mut bytes = sample_frame();
    bytes[4] = VERSION + 1;
    assert!(matches!(
        decode_all(&bytes),
        Err(FrameError::UnsupportedVersion(_))
    ));
}

#[test]
fn unknown_frame_type_is_a_typed_error() {
    let mut bytes = sample_frame();
    bytes[5] = 0x7F;
    assert!(matches!(
        decode_all(&bytes),
        Err(FrameError::UnknownType(0x7F))
    ));
}

#[test]
fn oversized_length_is_rejected_without_allocating() {
    let mut bytes = sample_frame();
    let huge = (MAX_PAYLOAD as u32 + 1).to_le_bytes();
    bytes[16..20].copy_from_slice(&huge);
    // The declared length alone must trip the guard — long before any
    // attempt to buffer 16 MiB + 1 of payload.
    match decode_all(&bytes[..HEADER_LEN]) {
        Err(FrameError::Oversized { len }) => assert_eq!(len, MAX_PAYLOAD as u32 + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn corrupt_payload_fails_the_crc() {
    let mut bytes = sample_frame();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    assert!(matches!(decode_all(&bytes), Err(FrameError::BadCrc { .. })));
}

#[test]
fn corrupt_crc_field_fails_the_crc() {
    let mut bytes = sample_frame();
    bytes[20] ^= 0x01;
    assert!(matches!(decode_all(&bytes), Err(FrameError::BadCrc { .. })));
}

#[test]
fn crc32_matches_known_vectors() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn empty_payload_frames_are_valid() {
    let bytes = Frame::new(FrameType::Ping, 7, Vec::new()).encode();
    assert_eq!(bytes.len(), HEADER_LEN);
    let frames = decode_all(&bytes).expect("decodes");
    assert_eq!(frames.len(), 1);
    assert!(frames[0].payload.is_empty());
}

#[test]
fn garbage_preceded_by_nothing_reports_bad_magic() {
    let garbage = [0u8; HEADER_LEN];
    match decode_all(&garbage) {
        Err(FrameError::BadMagic(m)) => assert_ne!(m, MAGIC),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn truncated_telemetry_payloads_decode_to_none() {
    let subscribe = Subscribe {
        interval_ms: 250,
        prometheus_text: true,
        campaign: "watched".into(),
        journal_min_severity: vw_serve::Severity::Warn,
    }
    .encode();
    let query = JournalQuery {
        since_seq: 99,
        min_severity: vw_serve::Severity::Info,
        limit: 64,
    }
    .encode();
    for cut in 0..subscribe.len() {
        assert!(
            Subscribe::decode(&subscribe[..cut]).is_none(),
            "truncated Subscribe at {cut} decoded"
        );
    }
    for cut in 0..query.len() {
        assert!(
            JournalQuery::decode(&query[..cut]).is_none(),
            "truncated JournalQuery at {cut} decoded"
        );
    }
    // Strict framing: one trailing byte is also a rejection.
    let mut padded = subscribe.clone();
    padded.push(0);
    assert!(Subscribe::decode(&padded).is_none());
}

proptest! {
    /// The telemetry payload decoders are total: random byte soup either
    /// decodes to a value or returns `None` — never a panic, never a
    /// wild allocation.
    #[test]
    fn telemetry_payload_decoders_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = Subscribe::decode(&bytes);
        let _ = JournalQuery::decode(&bytes);
        let _ = TelemetryDelta::decode(&bytes);
        let _ = JournalReply::decode(&bytes);
    }
}

/// Well-framed but undecodable Subscribe / JournalQuery payloads get
/// typed rejections over a live socket, and the daemon stays healthy.
#[test]
fn malformed_subscribe_and_journal_query_are_rejected_live() {
    let dir = common::scratch_dir("bad-telemetry");
    let config = DaemonConfig {
        state_dir: dir.join("state"),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind unix");

    {
        let mut raw = UnixStream::connect(&sock).expect("raw connect");
        // Garbage Subscribe (bad flag byte), truncated JournalQuery.
        raw.write_all(&Frame::new(FrameType::Subscribe, 1, vec![0xFF; 7]).encode())
            .expect("write");
        raw.write_all(&Frame::new(FrameType::JournalQuery, 2, vec![0x01; 3]).encode())
            .expect("write");
        // Both must come back as typed Error frames on this connection.
        raw.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut decoder = DecodeBuffer::new();
        let mut chunk = [0u8; 4096];
        let mut errors = 0;
        while errors < 2 {
            use std::io::Read;
            let n = raw.read(&mut chunk).expect("daemon replies");
            assert_ne!(n, 0, "daemon hung up instead of rejecting");
            decoder.feed(&chunk[..n]);
            while let Some(frame) = decoder.next_frame().expect("valid reply framing") {
                assert_eq!(frame.frame_type, FrameType::Error);
                errors += 1;
            }
        }
    }

    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));
    client
        .ping()
        .expect("daemon healthy after malformed telemetry");
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A Submit claiming 2^24 axes over a 64-byte body is refused — before
/// anything is reserved for them — with the typed error every
/// undecodable Submit gets, and the connection stays usable.
#[test]
fn submit_claiming_more_axes_than_its_bytes_is_rejected_live() {
    let mut payload = vec![0u8; 12]; // three empty strings
    payload.extend_from_slice(&(1u32 << 24).to_le_bytes());
    payload.resize(64, 0);
    assert_eq!(Submission::decode(&payload), None);

    let dir = common::scratch_dir("huge-axes");
    let config = DaemonConfig {
        state_dir: dir.join("state"),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind unix");

    let mut raw = UnixStream::connect(&sock).expect("raw connect");
    raw.write_all(&Frame::new(FrameType::Submit, 1, payload).encode())
        .expect("write");
    raw.write_all(&Frame::new(FrameType::Ping, 2, Vec::new()).encode())
        .expect("write");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut decoder = DecodeBuffer::new();
    let mut chunk = [0u8; 4096];
    let mut replies = Vec::new();
    while replies.len() < 2 {
        use std::io::Read;
        let n = raw.read(&mut chunk).expect("daemon replies");
        assert_ne!(n, 0, "daemon hung up instead of rejecting");
        decoder.feed(&chunk[..n]);
        while let Some(frame) = decoder.next_frame().expect("valid reply framing") {
            replies.push(frame);
        }
    }
    assert_eq!(
        (replies[0].frame_type, replies[0].request_id),
        (FrameType::Error, 1)
    );
    let (code, _) = decode_error(&replies[0].payload).expect("typed error");
    assert_eq!(code, ErrorCode::BadFrame);
    assert_eq!(
        (replies[1].frame_type, replies[1].request_id),
        (FrameType::Pong, 2),
        "the same connection still answers"
    );
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// Any single-byte corruption of a valid frame either still decodes
    /// (the flip hit a do-not-care bit of the reserved field) or yields
    /// a typed error — the decoder never panics and never hands out a
    /// frame with a corrupt payload.
    #[test]
    fn single_byte_corruption_never_panics(
        pos in 0usize..45, // sample_frame() is HEADER_LEN + 21 bytes
        flip in 1u8..=255,
    ) {
        let mut bytes = sample_frame();
        prop_assume!(pos < bytes.len());
        bytes[pos] ^= flip;
        if let Ok(frames) = decode_all(&bytes) {
            for frame in frames {
                // Payload integrity is CRC-protected: a surviving decode
                // means the corruption missed payload and length bytes.
                prop_assert_eq!(frame.payload.len(), 21);
            }
        }
    }

    /// Random byte soup never panics the decoder.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_all(&bytes);
    }
}

/// A connection that dies mid-frame must not wedge the daemon: the
/// half-frame is discarded with the connection, and the next client gets
/// normal service.
#[test]
fn mid_stream_disconnect_leaves_the_daemon_healthy() {
    let dir = common::scratch_dir("midstream");
    let config = DaemonConfig {
        state_dir: dir.join("state"),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind unix");

    // Write half a Submit frame, then vanish.
    {
        let mut raw = UnixStream::connect(&sock).expect("raw connect");
        let frame = Frame::new(FrameType::Submit, 1, vec![0xAB; 64]).encode();
        raw.write_all(&frame[..frame.len() / 2])
            .expect("half write");
        // Dropping the stream closes the socket mid-frame.
    }

    // And a client that sends framed garbage gets a typed rejection
    // before its connection is closed.
    {
        let mut raw = UnixStream::connect(&sock).expect("raw connect");
        let mut bytes = Frame::new(FrameType::Ping, 2, Vec::new()).encode();
        bytes[0] ^= 0xFF;
        raw.write_all(&bytes).expect("garbage write");
    }

    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));
    client
        .ping()
        .expect("daemon still answers after disconnects");
    let stats = client.stats().expect("stats");
    assert!(
        stats.contains("serve_bad_frames"),
        "bad-frame counter missing from:\n{stats}"
    );
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
