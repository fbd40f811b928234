//! A single TCP connection's state machine.
//!
//! The socket is a pure state machine: inputs are segments, timer expiries
//! and application calls; outputs are frames pushed to an internal queue
//! (drained by the owning [`TcpStack`](crate::TcpStack)) and a desired
//! retransmission-timer deadline. This keeps the whole machine unit-testable
//! without a simulator.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::ops::Range;

use vw_netsim::{SimDuration, SimTime};
use vw_packet::{Frame, MacAddr, TcpBuilder, TcpFlags};

use crate::congestion::{CcPhase, Congestion, RtoEstimator};

/// Floor for the adaptive RTO.
const MIN_RTO: SimDuration = SimDuration::from_millis(50);

/// TCP connection states (RFC 793).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Waiting for a connection request.
    Listen,
    /// SYN sent, awaiting SYN+ACK.
    SynSent,
    /// SYN received and SYN+ACK sent, awaiting ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// FIN sent, awaiting its ACK (and the peer's FIN).
    FinWait1,
    /// Our FIN acked, awaiting the peer's FIN.
    FinWait2,
    /// Peer's FIN received; application may still send.
    CloseWait,
    /// FIN sent after CloseWait, awaiting its ACK.
    LastAck,
    /// Both FINs crossing; awaiting ACK of ours.
    Closing,
    /// Connection done; lingering to absorb stray segments.
    TimeWait,
    /// Fully closed.
    Closed,
}

/// Configuration for a TCP connection.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment).
    pub mss: u32,
    /// Initial congestion window in MSS units (RFC 5681 allows 1–4; the
    /// paper's description uses 1).
    pub initial_cwnd_mss: u32,
    /// Initial slow-start threshold in bytes (the paper quotes 64 KB).
    pub initial_ssthresh: u32,
    /// Initial retransmission timeout before any RTT sample.
    pub initial_rto: SimDuration,
    /// Receive window advertised to the peer.
    pub recv_window: u16,
    /// Initial send sequence number (deterministic for reproducibility).
    pub iss: u32,
    /// Deliberate bug switch: never leave slow start (the defect the
    /// Figure 5 analysis script exists to catch).
    pub bug_never_enter_ca: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1000,
            initial_cwnd_mss: 1,
            initial_ssthresh: 64 * 1024,
            initial_rto: SimDuration::from_millis(200),
            recv_window: 65535,
            iss: 1000,
            bug_never_enter_ca: false,
        }
    }
}

/// One endpoint's (MAC, IP, port) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// Link-layer address.
    pub mac: MacAddr,
    /// Network-layer address.
    pub ip: Ipv4Addr,
    /// TCP port.
    pub port: u16,
}

/// Counters for a connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketStats {
    /// Segments transmitted (all kinds, including retransmissions).
    pub segments_sent: u64,
    /// Data segments transmitted (first transmissions only).
    pub data_segments_sent: u64,
    /// Retransmitted segments (timeout + fast retransmit).
    pub retransmissions: u64,
    /// Retransmission timer expiries.
    pub timeouts: u64,
    /// Fast retransmits triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
    /// Application payload bytes acknowledged by the peer.
    pub bytes_acked: u64,
    /// Application payload bytes received in order.
    pub bytes_received: u64,
}

/// The decoded fields of an incoming segment, extracted by the stack; the
/// payload stays in the frame it arrived in.
#[derive(Debug, Clone, Copy)]
pub struct SegmentIn<'a> {
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Advertised window.
    pub window: u16,
    /// Payload bytes.
    pub payload: &'a [u8],
}

/// A single TCP connection.
#[derive(Debug)]
pub struct TcpSocket {
    cfg: TcpConfig,
    state: TcpState,
    local: Endpoint,
    remote: Endpoint,

    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    rcv_nxt: u32,

    /// Sent-or-unsent application bytes. Acked bytes are trimmed by
    /// advancing `send_head` (compacting lazily), so the live region is
    /// `send_buf[send_head..]` and `buf_seq` is its first sequence number.
    send_buf: Vec<u8>,
    send_head: usize,
    buf_seq: u32,
    /// In-order received bytes awaiting the application.
    recv_buf: Vec<u8>,
    /// Out-of-order segments keyed by sequence number.
    ooo: BTreeMap<u32, Vec<u8>>,

    cc: Congestion,
    rto: RtoEstimator,
    /// Peer's advertised window.
    rwnd: u32,

    /// RTT probe: sample when `ack > seq` arrives, unless invalidated by a
    /// retransmission (Karn's algorithm).
    rtt_probe: Option<(u32, SimTime)>,

    fin_queued: bool,
    /// Sequence number our FIN occupies, once sent.
    fin_seq: Option<u32>,
    ip_ident: u16,

    out: Vec<Frame>,
    stats: SocketStats,
    first_data_at: Option<SimTime>,
    last_data_at: Option<SimTime>,
}

impl TcpSocket {
    /// Creates a client socket and queues the initial SYN.
    pub fn connect(cfg: TcpConfig, local: Endpoint, remote: Endpoint) -> Self {
        let mut sock = Self::new(cfg, local, remote, TcpState::SynSent);
        sock.emit(sock.iss, sock.rcv_nxt, TcpFlags::SYN, 0..0);
        sock
    }

    /// Creates a server-side socket in response to a SYN (the stack calls
    /// this when a listener matches); queues the SYN+ACK.
    pub fn accept(cfg: TcpConfig, local: Endpoint, remote: Endpoint, peer_seq: u32) -> Self {
        let mut sock = Self::new(cfg, local, remote, TcpState::SynRcvd);
        sock.rcv_nxt = peer_seq.wrapping_add(1);
        sock.emit(sock.iss, sock.rcv_nxt, TcpFlags::SYN | TcpFlags::ACK, 0..0);
        sock
    }

    fn new(cfg: TcpConfig, local: Endpoint, remote: Endpoint, state: TcpState) -> Self {
        let iss = cfg.iss;
        TcpSocket {
            cfg,
            state,
            local,
            remote,
            iss,
            snd_una: iss,
            snd_nxt: iss.wrapping_add(1), // SYN consumes one
            rcv_nxt: 0,
            send_buf: Vec::new(),
            send_head: 0,
            buf_seq: iss.wrapping_add(1),
            recv_buf: Vec::new(),
            ooo: BTreeMap::new(),
            cc: {
                let mut cc = Congestion::new(cfg.mss, cfg.initial_cwnd_mss, cfg.initial_ssthresh);
                cc.set_bug_never_enter_ca(cfg.bug_never_enter_ca);
                cc
            },
            rto: RtoEstimator::new(cfg.initial_rto, MIN_RTO),
            rwnd: 65535,
            rtt_probe: None,
            fin_queued: false,
            fin_seq: None,
            ip_ident: 0,
            out: Vec::new(),
            stats: SocketStats::default(),
            first_data_at: None,
            last_data_at: None,
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Current connection state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cc.cwnd()
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u32 {
        self.cc.ssthresh()
    }

    /// Current congestion-control phase.
    pub fn cc_phase(&self) -> CcPhase {
        self.cc.phase()
    }

    /// Connection counters.
    pub fn stats(&self) -> SocketStats {
        self.stats
    }

    /// Achieved receive goodput in bits/s between the first and last
    /// in-order data arrival, if measurable.
    pub fn recv_goodput_bps(&self) -> Option<f64> {
        let (first, last) = (self.first_data_at?, self.last_data_at?);
        let span = last.saturating_since(first).as_secs_f64();
        if span <= 0.0 {
            return None;
        }
        Some(self.stats.bytes_received as f64 * 8.0 / span)
    }

    /// The local endpoint.
    pub fn local(&self) -> Endpoint {
        self.local
    }

    /// The remote endpoint.
    pub fn remote(&self) -> Endpoint {
        self.remote
    }

    /// `true` once every queued byte (and FIN, if any) is acknowledged.
    pub fn send_complete(&self) -> bool {
        self.send_len() == 0 && (!self.fin_queued || self.fin_acked())
    }

    /// Length of the live (unacknowledged) region of the send buffer.
    fn send_len(&self) -> usize {
        self.send_buf.len() - self.send_head
    }

    fn fin_acked(&self) -> bool {
        match self.fin_seq {
            Some(seq) => seq_lt(seq, self.snd_una),
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Queues application data for transmission.
    pub fn send_data(&mut self, data: &[u8]) {
        self.send_buf.extend_from_slice(data);
    }

    /// [`send_data`](Self::send_data) of `len` times `byte`, with no buffer
    /// to copy from: for a source whose content does not matter.
    pub fn send_fill(&mut self, byte: u8, len: usize) {
        self.send_buf.resize(self.send_buf.len() + len, byte);
    }

    /// Takes everything received in order so far.
    pub fn take_received(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.recv_buf)
    }

    /// Bytes received in order and not yet taken.
    pub fn received_len(&self) -> usize {
        self.recv_buf.len()
    }

    /// Requests an orderly close once all queued data is sent.
    pub fn close(&mut self) {
        if !self.fin_queued {
            self.fin_queued = true;
        }
    }

    // ------------------------------------------------------------------
    // Output
    // ------------------------------------------------------------------

    /// Drains frames queued for transmission; the queue keeps its
    /// capacity for the next burst.
    pub fn take_out(&mut self) -> std::vec::Drain<'_, Frame> {
        self.out.drain(..)
    }

    /// Deadline the stack should arm the retransmission timer for: `Some`
    /// while anything is in flight.
    pub fn timer_wanted(&self) -> Option<SimDuration> {
        match self.state {
            TcpState::Closed | TcpState::Listen => None,
            TcpState::TimeWait => Some(SimDuration::from_millis(500)),
            _ => {
                if self.snd_nxt != self.snd_una {
                    Some(self.rto.rto())
                } else {
                    None
                }
            }
        }
    }

    /// Queues a segment carrying the live send-buffer bytes `data` (offsets
    /// past `buf_seq`; `0..0` for none), which the builder copies straight
    /// into the frame.
    fn emit(&mut self, seq: u32, ack: u32, flags: TcpFlags, data: Range<usize>) {
        self.ip_ident = self.ip_ident.wrapping_add(1);
        let live = &self.send_buf[self.send_head..];
        let frame = TcpBuilder::new()
            .src_mac(self.local.mac)
            .dst_mac(self.remote.mac)
            .src_ip(self.local.ip)
            .dst_ip(self.remote.ip)
            .src_port(self.local.port)
            .dst_port(self.remote.port)
            .seq(seq)
            .ack(ack)
            .flags(flags)
            .window(self.cfg.recv_window)
            .ident(self.ip_ident)
            .payload(&live[data])
            .build();
        self.stats.segments_sent += 1;
        self.out.push(frame);
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    /// Transmits whatever the congestion and receive windows allow.
    pub fn pump(&mut self, now: SimTime) {
        if !matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::Closing
        ) {
            return;
        }
        let window = self.cc.cwnd().min(self.rwnd.max(1));
        loop {
            let flight = self.snd_nxt.wrapping_sub(self.snd_una);
            // Next unsent byte's offset into send_buf.
            let sent = self.snd_nxt.wrapping_sub(self.buf_seq) as usize;
            let unsent = self.send_len().saturating_sub(sent);
            if unsent > 0 && !self.fin_sent() {
                let room = window.saturating_sub(flight);
                if room == 0 {
                    break;
                }
                let len = unsent.min(self.cfg.mss as usize).min(room as usize);
                if len == 0 {
                    break;
                }
                let seq = self.snd_nxt;
                let data = sent..sent + len;
                self.emit(seq, self.rcv_nxt, TcpFlags::ACK | TcpFlags::PSH, data);
                self.stats.data_segments_sent += 1;
                self.snd_nxt = self.snd_nxt.wrapping_add(len as u32);
                if self.rtt_probe.is_none() {
                    self.rtt_probe = Some((seq, now));
                }
            } else if self.fin_ready_to_send() {
                let flight = self.snd_nxt.wrapping_sub(self.snd_una);
                if flight.wrapping_add(1) > window {
                    break;
                }
                let seq = self.snd_nxt;
                self.fin_seq = Some(seq);
                self.emit(seq, self.rcv_nxt, TcpFlags::FIN | TcpFlags::ACK, 0..0);
                self.snd_nxt = self.snd_nxt.wrapping_add(1);
                self.state = match self.state {
                    TcpState::Established => TcpState::FinWait1,
                    TcpState::CloseWait => TcpState::LastAck,
                    other => other,
                };
                break;
            } else {
                break;
            }
        }
    }

    fn fin_sent(&self) -> bool {
        self.fin_seq.is_some()
    }

    fn fin_ready_to_send(&self) -> bool {
        let sent = self.snd_nxt.wrapping_sub(self.buf_seq) as usize;
        self.fin_queued && !self.fin_sent() && sent >= self.send_len()
    }

    // ------------------------------------------------------------------
    // Segment arrival
    // ------------------------------------------------------------------

    /// Processes an incoming segment.
    pub fn on_segment(&mut self, now: SimTime, seg: SegmentIn<'_>) {
        if seg.flags.contains(TcpFlags::RST) {
            self.state = TcpState::Closed;
            return;
        }
        self.rwnd = u32::from(seg.window);
        match self.state {
            TcpState::SynSent => self.on_segment_syn_sent(now, seg),
            TcpState::SynRcvd => self.on_segment_syn_rcvd(now, seg),
            TcpState::Listen | TcpState::Closed => { /* the stack routes these */ }
            _ => self.on_segment_connected(now, seg),
        }
    }

    fn on_segment_syn_sent(&mut self, now: SimTime, seg: SegmentIn<'_>) {
        if seg.flags.contains(TcpFlags::SYN) && seg.flags.contains(TcpFlags::ACK) {
            if seg.ack != self.iss.wrapping_add(1) {
                return; // bogus ack
            }
            self.snd_una = seg.ack;
            self.rcv_nxt = seg.seq.wrapping_add(1);
            self.state = TcpState::Established;
            self.rto.on_progress();
            self.emit(self.snd_nxt, self.rcv_nxt, TcpFlags::ACK, 0..0);
            self.pump(now);
        }
        // A bare SYN (simultaneous open) is not supported by this stack.
    }

    fn on_segment_syn_rcvd(&mut self, now: SimTime, seg: SegmentIn<'_>) {
        if seg.flags.contains(TcpFlags::SYN) && !seg.flags.contains(TcpFlags::ACK) {
            // Retransmitted SYN: repeat the SYN+ACK.
            self.emit(self.iss, self.rcv_nxt, TcpFlags::SYN | TcpFlags::ACK, 0..0);
            return;
        }
        if seg.flags.contains(TcpFlags::ACK) && seg.ack == self.iss.wrapping_add(1) {
            self.snd_una = seg.ack;
            self.state = TcpState::Established;
            self.rto.on_progress();
            // The handshake ACK may carry data.
            if !seg.payload.is_empty() || seg.flags.contains(TcpFlags::FIN) {
                self.on_segment_connected(now, seg);
            }
        }
    }

    fn on_segment_connected(&mut self, now: SimTime, seg: SegmentIn<'_>) {
        let mut should_ack = false;

        // --- ACK processing -------------------------------------------
        if seg.flags.contains(TcpFlags::ACK) {
            let ack = seg.ack;
            if seq_lt(self.snd_una, ack) && seq_le(ack, self.snd_nxt) {
                let acked = ack.wrapping_sub(self.snd_una);
                // Trim acknowledged bytes from the send buffer (the FIN
                // octet is not in the buffer).
                let data_acked = {
                    let buf_end = self.buf_seq.wrapping_add(self.send_len() as u32);
                    let data_ack_to = if seq_le(ack, buf_end) { ack } else { buf_end };
                    data_ack_to.wrapping_sub(self.buf_seq)
                };
                self.send_head += data_acked as usize;
                // Compact once the dead prefix outweighs the live bytes, so
                // trimming stays amortized O(1) per acked byte.
                if self.send_head > self.send_buf.len() - self.send_head {
                    self.send_buf.drain(..self.send_head);
                    self.send_head = 0;
                }
                self.buf_seq = self.buf_seq.wrapping_add(data_acked);
                self.stats.bytes_acked += u64::from(data_acked);
                self.snd_una = ack;
                // RTT sample (Karn: probe is cleared on any retransmission).
                if let Some((probe_seq, sent_at)) = self.rtt_probe {
                    if seq_lt(probe_seq, ack) {
                        self.rto.sample(now.saturating_since(sent_at));
                        self.rtt_probe = None;
                    }
                }
                self.rto.on_progress();
                self.cc.on_new_ack(acked);
                // Progress in closing handshakes.
                if self.fin_acked() {
                    self.state = match self.state {
                        TcpState::FinWait1 => TcpState::FinWait2,
                        TcpState::Closing => TcpState::TimeWait,
                        TcpState::LastAck => TcpState::Closed,
                        other => other,
                    };
                }
            } else if ack == self.snd_una
                && self.snd_nxt != self.snd_una
                && seg.payload.is_empty()
                && !seg.flags.contains(TcpFlags::FIN)
                && !seg.flags.contains(TcpFlags::SYN)
            {
                // Duplicate ACK.
                let flight = self.snd_nxt.wrapping_sub(self.snd_una);
                if self.cc.on_dup_ack(flight) {
                    self.stats.fast_retransmits += 1;
                    self.retransmit_head();
                }
            }
        }

        // --- Payload processing ---------------------------------------
        if !seg.payload.is_empty() {
            should_ack = true;
            if seg.seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                self.stats.bytes_received += seg.payload.len() as u64;
                self.recv_buf.extend_from_slice(seg.payload);
                if self.first_data_at.is_none() {
                    self.first_data_at = Some(now);
                }
                self.last_data_at = Some(now);
                self.drain_ooo();
            } else if seq_lt(self.rcv_nxt, seg.seq) {
                self.ooo
                    .entry(seg.seq)
                    .or_insert_with(|| seg.payload.to_vec());
            }
            // else: old duplicate — just re-ack.
        }

        // --- FIN processing -------------------------------------------
        if seg.flags.contains(TcpFlags::FIN) {
            let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
            if fin_seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                should_ack = true;
                self.state = match self.state {
                    TcpState::Established => TcpState::CloseWait,
                    TcpState::FinWait1 => {
                        if self.fin_acked() {
                            TcpState::TimeWait
                        } else {
                            TcpState::Closing
                        }
                    }
                    TcpState::FinWait2 => TcpState::TimeWait,
                    other => other,
                };
            } else if seq_lt(fin_seq, self.rcv_nxt) {
                should_ack = true; // duplicate FIN: re-ack
            }
        }

        if should_ack {
            self.emit(self.snd_nxt, self.rcv_nxt, TcpFlags::ACK, 0..0);
        }
        self.pump(now);
    }

    fn drain_ooo(&mut self) {
        while let Some((&seq, _)) = self.ooo.iter().next() {
            if seq_lt(seq, self.rcv_nxt) {
                // Entirely old.
                self.ooo.remove(&seq);
            } else if seq == self.rcv_nxt {
                let payload = self.ooo.remove(&seq).expect("present");
                self.rcv_nxt = self.rcv_nxt.wrapping_add(payload.len() as u32);
                self.stats.bytes_received += payload.len() as u64;
                self.recv_buf.extend_from_slice(&payload);
            } else {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Handles the retransmission timer firing.
    pub fn on_rto(&mut self, _now: SimTime) {
        match self.state {
            TcpState::SynSent => {
                self.stats.timeouts += 1;
                self.stats.retransmissions += 1;
                // This is the paper's Section 6.1 lever: a lost SYNACK
                // forces this path, leaving ssthresh = 2 MSS and cwnd = 1.
                self.cc.on_timeout(self.cfg.mss);
                self.rto.on_timeout();
                self.rtt_probe = None;
                self.emit(self.iss, 0, TcpFlags::SYN, 0..0);
            }
            TcpState::SynRcvd => {
                self.stats.timeouts += 1;
                self.stats.retransmissions += 1;
                self.rto.on_timeout();
                self.emit(self.iss, self.rcv_nxt, TcpFlags::SYN | TcpFlags::ACK, 0..0);
            }
            TcpState::TimeWait => {
                self.state = TcpState::Closed;
            }
            TcpState::Closed | TcpState::Listen => {}
            _ => {
                if self.snd_nxt == self.snd_una {
                    return; // nothing in flight; stale timer
                }
                self.stats.timeouts += 1;
                let flight = self.snd_nxt.wrapping_sub(self.snd_una);
                self.cc.on_timeout(flight);
                self.rto.on_timeout();
                self.rtt_probe = None;
                self.retransmit_head();
            }
        }
    }

    fn retransmit_head(&mut self) {
        self.stats.retransmissions += 1;
        self.rtt_probe = None; // Karn's algorithm
        if let Some(fin_seq) = self.fin_seq {
            if fin_seq == self.snd_una {
                self.emit(fin_seq, self.rcv_nxt, TcpFlags::FIN | TcpFlags::ACK, 0..0);
                return;
            }
        }
        let offset = self.snd_una.wrapping_sub(self.buf_seq) as usize;
        let in_flight_data = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
        let len = in_flight_data
            .min(self.cfg.mss as usize)
            .min(self.send_len().saturating_sub(offset));
        if len == 0 {
            return;
        }
        let data = offset..offset + len;
        self.emit(
            self.snd_una,
            self.rcv_nxt,
            TcpFlags::ACK | TcpFlags::PSH,
            data,
        );
    }
}

/// `a < b` in 32-bit sequence space.
fn seq_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}

/// `a <= b` in 32-bit sequence space.
fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(i: u32, port: u16) -> Endpoint {
        Endpoint {
            mac: MacAddr::from_index(i),
            ip: Ipv4Addr::new(10, 0, 0, i as u8),
            port,
        }
    }

    fn out(socket: &mut TcpSocket) -> Vec<Frame> {
        socket.take_out().collect()
    }

    fn now() -> SimTime {
        SimTime::from_nanos(1_000_000)
    }

    /// Ferries frames between two sockets until both go quiet. Returns the
    /// number of segments exchanged.
    fn converse(a: &mut TcpSocket, b: &mut TcpSocket) -> usize {
        fn ferry(src: &mut TcpSocket, dst: &mut TcpSocket) -> usize {
            let mut n = 0;
            for frame in src.take_out() {
                let tcp = frame.tcp().expect("tcp frame");
                n += 1;
                dst.on_segment(
                    now(),
                    SegmentIn {
                        seq: tcp.seq(),
                        ack: tcp.ack(),
                        flags: tcp.flags(),
                        window: tcp.window(),
                        payload: tcp.payload(),
                    },
                );
            }
            n
        }
        let mut exchanged = 0;
        loop {
            let n = ferry(a, b) + ferry(b, a);
            if n == 0 {
                break;
            }
            exchanged += n;
        }
        exchanged
    }

    fn established_pair() -> (TcpSocket, TcpSocket) {
        let mut client = TcpSocket::connect(TcpConfig::default(), ep(1, 24576), ep(2, 16384));
        // Server accepts based on the SYN.
        let syn = out(&mut client).remove(0);
        let tcp = syn.tcp().unwrap();
        assert!(tcp.flags().contains(TcpFlags::SYN));
        let mut server = TcpSocket::accept(
            TcpConfig {
                iss: 5000,
                ..TcpConfig::default()
            },
            ep(2, 16384),
            ep(1, 24576),
            tcp.seq(),
        );
        let _ = converse(&mut client, &mut server);
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);
        (client, server)
    }

    #[test]
    fn three_way_handshake() {
        let (_c, _s) = established_pair();
    }

    #[test]
    fn data_transfer_small() {
        let (mut c, mut s) = established_pair();
        c.send_data(b"hello tcp");
        c.pump(now());
        converse(&mut c, &mut s);
        assert_eq!(s.take_received(), b"hello tcp");
        assert!(c.send_complete());
    }

    #[test]
    fn bulk_transfer_respects_mss() {
        let (mut c, mut s) = established_pair();
        let data: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        c.send_data(&data);
        c.pump(now());
        converse(&mut c, &mut s);
        assert_eq!(s.take_received(), data);
        // 10 segments of MSS 1000 (first flights limited by cwnd, but all
        // eventually sent exactly once on a perfect channel).
        assert_eq!(c.stats().data_segments_sent, 10);
        assert_eq!(c.stats().retransmissions, 0);
    }

    #[test]
    fn slow_start_grows_window() {
        let (mut c, mut s) = established_pair();
        assert_eq!(c.cwnd(), 1000);
        c.send_data(&[0u8; 5000]);
        c.pump(now());
        converse(&mut c, &mut s);
        // 5 acked MSS → cwnd grew by 5 MSS.
        assert_eq!(c.cwnd(), 6000);
        assert_eq!(c.cc_phase(), CcPhase::SlowStart);
    }

    #[test]
    fn timeout_retransmits_and_resets_window() {
        let (mut c, mut s) = established_pair();
        c.send_data(&[7u8; 3000]);
        c.pump(now());
        let lost = out(&mut c); // all in-flight segments vanish
        assert_eq!(lost.len(), 1, "initial cwnd of 1 MSS permits one segment");
        assert!(c.timer_wanted().is_some());
        c.on_rto(now());
        assert_eq!(c.cwnd(), 1000);
        assert_eq!(c.ssthresh(), 2000, "flight/2 floored at 2 MSS");
        converse(&mut c, &mut s);
        assert_eq!(s.take_received(), vec![7u8; 3000]);
        assert_eq!(c.stats().timeouts, 1);
    }

    #[test]
    fn lost_synack_resets_ssthresh_like_the_paper_says() {
        // Section 6.1: drop the SYNACK → SYN retransmission → ssthresh 2
        // MSS, cwnd 1 MSS.
        let mut client = TcpSocket::connect(TcpConfig::default(), ep(1, 24576), ep(2, 16384));
        let _syn = out(&mut client);
        client.on_rto(now()); // SYN timer fires (SYNACK was dropped)
        let resyn = out(&mut client);
        assert_eq!(resyn.len(), 1);
        assert!(resyn[0].tcp().unwrap().flags().contains(TcpFlags::SYN));
        assert_eq!(client.cwnd(), 1000);
        assert_eq!(client.ssthresh(), 2000);
    }

    #[test]
    fn triple_dup_ack_fast_retransmit() {
        let (mut c, mut s) = established_pair();
        // Open the window first.
        c.send_data(&[1u8; 4000]);
        c.pump(now());
        converse(&mut c, &mut s);
        s.take_received();
        // Send 5 segments, drop the first, deliver the rest.
        c.send_data(&[2u8; 5000]);
        c.pump(now());
        let mut frames = out(&mut c);
        assert!(frames.len() >= 4, "window should allow several segments");
        let _dropped = frames.remove(0);
        for frame in frames {
            let tcp = frame.tcp().unwrap();
            s.on_segment(
                now(),
                SegmentIn {
                    seq: tcp.seq(),
                    ack: tcp.ack(),
                    flags: tcp.flags(),
                    window: tcp.window(),
                    payload: tcp.payload(),
                },
            );
        }
        // The receiver generated duplicate ACKs; feed them back.
        converse(&mut c, &mut s);
        assert_eq!(c.stats().fast_retransmits, 1);
        assert_eq!(s.take_received(), vec![2u8; 5000]);
        assert_eq!(c.stats().timeouts, 0, "recovered without an RTO");
    }

    #[test]
    fn out_of_order_segments_are_reassembled() {
        let (mut c, mut s) = established_pair();
        c.send_data(&[1u8; 4000]);
        c.pump(now());
        converse(&mut c, &mut s);
        s.take_received();
        c.send_data(b"abcdef");
        // Force two tiny segments by pumping between sends... simpler:
        // craft reordering at segment level.
        c.pump(now());
        let frames = out(&mut c);
        assert_eq!(frames.len(), 1); // 6 bytes fit one segment; test ooo via direct segments instead
        let tcp = frames[0].tcp().unwrap();
        // Split manually into two SegmentIns delivered out of order.
        let seq = tcp.seq();
        let p = tcp.payload();
        let first = SegmentIn {
            seq,
            ack: tcp.ack(),
            flags: tcp.flags(),
            window: tcp.window(),
            payload: &p[..3],
        };
        let second = SegmentIn {
            seq: seq.wrapping_add(3),
            ack: tcp.ack(),
            flags: tcp.flags(),
            window: tcp.window(),
            payload: &p[3..],
        };
        s.on_segment(now(), second);
        assert_eq!(s.received_len(), 0, "gap holds delivery back");
        s.on_segment(now(), first);
        assert_eq!(s.take_received(), b"abcdef");
    }

    #[test]
    fn graceful_close_both_ways() {
        let (mut c, mut s) = established_pair();
        c.send_data(b"bye");
        c.close();
        c.pump(now());
        converse(&mut c, &mut s);
        assert_eq!(s.take_received(), b"bye");
        assert_eq!(s.state(), TcpState::CloseWait);
        assert!(matches!(c.state(), TcpState::FinWait2));
        s.close();
        s.pump(now());
        converse(&mut c, &mut s);
        assert!(matches!(c.state(), TcpState::TimeWait));
        assert_eq!(s.state(), TcpState::Closed);
    }

    #[test]
    fn rst_kills_the_connection() {
        let (mut c, _s) = established_pair();
        c.on_segment(
            now(),
            SegmentIn {
                seq: 0,
                ack: 0,
                flags: TcpFlags::RST,
                window: 0,
                payload: &[],
            },
        );
        assert_eq!(c.state(), TcpState::Closed);
    }

    #[test]
    fn duplicate_data_is_reacked_not_redelivered() {
        let (mut c, mut s) = established_pair();
        c.send_data(b"data!");
        c.pump(now());
        let frame = out(&mut c).remove(0);
        let tcp = frame.tcp().unwrap();
        let seg = SegmentIn {
            seq: tcp.seq(),
            ack: tcp.ack(),
            flags: tcp.flags(),
            window: tcp.window(),
            payload: tcp.payload(),
        };
        s.on_segment(now(), seg);
        s.on_segment(now(), seg);
        assert_eq!(s.take_received(), b"data!");
        // Two ACKs were emitted (one per copy).
        let acks = out(&mut s);
        assert_eq!(acks.len(), 2);
        assert_eq!(
            acks[0].tcp().unwrap().ack(),
            acks[1].tcp().unwrap().ack(),
            "duplicate re-acked at same cumulative point"
        );
    }

    #[test]
    fn seq_space_helpers() {
        assert!(seq_lt(1, 2));
        assert!(!seq_lt(2, 1));
        assert!(seq_lt(u32::MAX, 1)); // wraparound
        assert!(seq_le(5, 5));
    }

    #[test]
    fn retransmitted_syn_gets_fresh_synack() {
        let mut client = TcpSocket::connect(TcpConfig::default(), ep(1, 1000), ep(2, 2000));
        let syn = out(&mut client).remove(0);
        let mut server = TcpSocket::accept(
            TcpConfig::default(),
            ep(2, 2000),
            ep(1, 1000),
            syn.tcp().unwrap().seq(),
        );
        let _first_synack = out(&mut server);
        // SYNACK lost; client retransmits its SYN.
        client.on_rto(now());
        let resyn = out(&mut client).remove(0);
        let tcp = resyn.tcp().unwrap();
        server.on_segment(
            now(),
            SegmentIn {
                seq: tcp.seq(),
                ack: tcp.ack(),
                flags: tcp.flags(),
                window: tcp.window(),
                payload: &[],
            },
        );
        let synack = out(&mut server);
        assert_eq!(synack.len(), 1);
        let f = synack[0].tcp().unwrap().flags();
        assert!(f.contains(TcpFlags::SYN) && f.contains(TcpFlags::ACK));
    }
}
