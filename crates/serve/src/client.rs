//! Blocking client for the `vw-serve` daemon.
//!
//! One [`Client`] wraps one connection and drives one request at a time
//! (submit-then-stream, attach-then-stream, stats, ping). Concurrency
//! comes from opening more clients — the `load_test` example runs
//! dozens against one daemon.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use vw_obs::MetricsRegistry;

use crate::frame::{DecodeBuffer, Frame, FrameError, FrameType};
use crate::journal::JournalEntry;
use crate::payload::{
    decode_error, decode_outcome_line, decode_text, encode_text, Accepted, ErrorCode, JournalQuery,
    JournalReply, Submission, Subscribe, TelemetryDelta,
};
use crate::server::Sock;

/// One decoded telemetry tick, with the client-side registry already
/// patched by the delta it carried.
#[derive(Debug, Clone)]
pub struct TelemetryUpdate {
    /// Tick ordinal (per subscription, delivered ticks only).
    pub seq: u64,
    /// Ticks the daemon dropped so far because this client was slow.
    pub dropped: u64,
    /// Journal entries newly visible to this subscription.
    pub journal: Vec<JournalEntry>,
    /// The full reconstructed registry after applying the delta.
    pub metrics: MetricsRegistry,
    /// Prometheus text, when the subscription asked for it (else empty).
    pub prometheus: String,
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The daemon sent bytes that do not frame.
    Frame(FrameError),
    /// The daemon rejected the request with a typed error.
    Server {
        /// The typed rejection code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The daemon sent a well-framed but unexpected reply.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server rejected ({code:?}): {message}")
            }
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A blocking connection to a `vw-serve` daemon.
pub struct Client {
    sock: Sock,
    decoder: DecodeBuffer,
    next_request: u64,
    /// Outcome-stream frames that arrived while a request waited for its
    /// reply or [`next_telemetry`](Client::next_telemetry) for a delta,
    /// oldest first; [`stream`](Client::stream) starts here.
    parked: VecDeque<Frame>,
    /// Client-side mirror of the daemon registry, rebuilt delta by
    /// delta across [`next_telemetry`](Client::next_telemetry) calls.
    telemetry: MetricsRegistry,
}

impl Client {
    /// Connects over a unix socket.
    pub fn connect_unix(path: &Path) -> Result<Client, ClientError> {
        Ok(Client::new(Sock::Unix(UnixStream::connect(path)?)))
    }

    /// Connects over TCP.
    pub fn connect_tcp(addr: &str) -> Result<Client, ClientError> {
        Ok(Client::new(Sock::Tcp(TcpStream::connect(addr)?)))
    }

    fn new(sock: Sock) -> Client {
        Client {
            sock,
            decoder: DecodeBuffer::new(),
            next_request: 1,
            parked: VecDeque::new(),
            telemetry: MetricsRegistry::new(),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.send(FrameType::Ping, Vec::new())?;
        let reply = self.recv_reply()?;
        match reply.frame_type {
            FrameType::Pong if reply.request_id == id => Ok(()),
            _ => Err(unexpected(&reply)),
        }
    }

    /// Fetches daemon metrics (Prometheus text format).
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let id = self.send(FrameType::Stats, Vec::new())?;
        let reply = self.recv_reply()?;
        match reply.frame_type {
            FrameType::StatsReply if reply.request_id == id => decode_text(&reply.payload)
                .ok_or_else(|| ClientError::Protocol("undecodable StatsReply".into())),
            _ => Err(unexpected(&reply)),
        }
    }

    /// Submits a campaign. On success the daemon starts executing and
    /// this connection streams its outcomes — follow with
    /// [`stream`](Client::stream).
    pub fn submit(&mut self, submission: &Submission) -> Result<Accepted, ClientError> {
        let id = self.send(FrameType::Submit, submission.encode())?;
        self.expect_accepted(id)
    }

    /// Attaches to a named campaign (typically after a reconnect or a
    /// daemon restart); the daemon re-streams it from instance 0.
    pub fn attach(&mut self, campaign: &str) -> Result<Accepted, ClientError> {
        let id = self.send(FrameType::Attach, encode_text(campaign))?;
        self.expect_accepted(id)
    }

    /// Consumes the outcome stream after a [`submit`](Client::submit) or
    /// [`attach`](Client::attach): `on_line(instance_index, jsonl_line)`
    /// per instance, in instance order, returning the final summary
    /// JSONL (byte-identical to what an in-process
    /// [`run_campaign`](vw_campaign::run_campaign) renders for the same
    /// spec and key).
    pub fn stream(&mut self, mut on_line: impl FnMut(u64, &str)) -> Result<String, ClientError> {
        loop {
            let frame = match self.parked.pop_front() {
                Some(frame) => frame,
                None => self.recv()?,
            };
            match frame.frame_type {
                FrameType::Outcome => {
                    let (instance, line) = decode_outcome_line(&frame.payload)
                        .ok_or_else(|| ClientError::Protocol("undecodable Outcome".into()))?;
                    on_line(instance, &line);
                }
                FrameType::Done => {
                    let (_, summary) = decode_outcome_line(&frame.payload)
                        .ok_or_else(|| ClientError::Protocol("undecodable Done".into()))?;
                    return Ok(summary);
                }
                // A live telemetry subscription may interleave deltas
                // with the outcome stream; they are not part of it.
                FrameType::TelemetryDelta => continue,
                _ => return Err(unexpected(&frame)),
            }
        }
    }

    /// Starts a live telemetry subscription on this connection. Deltas
    /// arrive interleaved with any outcome stream; consume them with
    /// [`next_telemetry`](Client::next_telemetry). There is no explicit
    /// acknowledgement — the first delta is it.
    pub fn subscribe(&mut self, subscribe: &Subscribe) -> Result<(), ClientError> {
        self.send(FrameType::Subscribe, subscribe.encode())?;
        Ok(())
    }

    /// Blocks until the next telemetry delta, applies it to the
    /// client-side registry mirror, and returns the decoded update.
    /// `Outcome` / `Done` frames of a campaign streaming on this
    /// connection are parked for [`stream`](Client::stream), as they are
    /// while a request waits for its reply.
    pub fn next_telemetry(&mut self) -> Result<TelemetryUpdate, ClientError> {
        loop {
            let frame = self.recv()?;
            match frame.frame_type {
                FrameType::TelemetryDelta => {
                    let delta = TelemetryDelta::decode(&frame.payload).ok_or_else(|| {
                        ClientError::Protocol("undecodable TelemetryDelta".into())
                    })?;
                    self.telemetry.apply_delta(&delta.delta).ok_or_else(|| {
                        ClientError::Protocol("unappliable telemetry delta".into())
                    })?;
                    return Ok(TelemetryUpdate {
                        seq: delta.seq,
                        dropped: delta.dropped,
                        journal: delta.journal,
                        metrics: self.telemetry.clone(),
                        prometheus: delta.prometheus,
                    });
                }
                FrameType::Outcome | FrameType::Done => self.parked.push_back(frame),
                _ => return Err(unexpected(&frame)),
            }
        }
    }

    /// Queries the daemon's journal ring.
    pub fn journal_query(&mut self, query: &JournalQuery) -> Result<JournalReply, ClientError> {
        let id = self.send(FrameType::JournalQuery, query.encode())?;
        let reply = self.recv_reply()?;
        match reply.frame_type {
            FrameType::JournalReply if reply.request_id == id => {
                JournalReply::decode(&reply.payload)
                    .ok_or_else(|| ClientError::Protocol("undecodable JournalReply".into()))
            }
            _ => Err(unexpected(&reply)),
        }
    }

    fn expect_accepted(&mut self, id: u64) -> Result<Accepted, ClientError> {
        let reply = self.recv_reply()?;
        match reply.frame_type {
            FrameType::Accepted if reply.request_id == id => Accepted::decode(&reply.payload)
                .ok_or_else(|| ClientError::Protocol("undecodable Accepted".into())),
            _ => Err(unexpected(&reply)),
        }
    }

    /// [`recv`](Client::recv) until a frame that can be a reply, so request
    /// and reply stay matched while the connection carries other traffic:
    /// telemetry deltas of a live subscription are discarded, `Outcome` /
    /// `Done` frames of a campaign already streaming here (emitted whenever
    /// a worker finishes) are parked for [`stream`](Client::stream).
    fn recv_reply(&mut self) -> Result<Frame, ClientError> {
        loop {
            let frame = self.recv()?;
            match frame.frame_type {
                FrameType::TelemetryDelta => {}
                FrameType::Outcome | FrameType::Done => self.parked.push_back(frame),
                _ => return Ok(frame),
            }
        }
    }

    fn send(&mut self, frame_type: FrameType, payload: Vec<u8>) -> Result<u64, ClientError> {
        let id = self.next_request;
        self.next_request += 1;
        let frame = Frame::new(frame_type, id, payload);
        self.sock.write_all(&frame.encode())?;
        Ok(id)
    }

    /// Blocks until one complete frame arrives.
    fn recv(&mut self) -> Result<Frame, ClientError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            let n = self.sock.read(&mut chunk)?;
            if n == 0 {
                return Err(ClientError::Protocol("daemon closed the connection".into()));
            }
            self.decoder.feed(&chunk[..n]);
        }
    }

    /// Sets a read timeout for [`recv`]-driven calls (`None` blocks
    /// forever, the default).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.sock.set_read_timeout(timeout)?;
        Ok(())
    }
}

fn unexpected(frame: &Frame) -> ClientError {
    if frame.frame_type == FrameType::Error {
        if let Some((code, message)) = decode_error(&frame.payload) {
            return ClientError::Server { code, message };
        }
    }
    ClientError::Protocol(format!("unexpected frame {:?}", frame.frame_type))
}
