//! The host-level TCP stack: socket demultiplexing, listeners, timers, and
//! rate-controlled application sources.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use vw_netsim::{Context, Protocol, SimTime, TimerId};
use vw_obs::ProtoAspect;
use vw_packet::{Frame, MacAddr, TcpFlags};

use crate::congestion::CcPhase;
use crate::socket::{Endpoint, SegmentIn, TcpConfig, TcpSocket, TcpState};

/// Identifies a connection inside a [`TcpStack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SocketHandle(usize);

impl SocketHandle {
    /// The raw index (stable for the stack's lifetime).
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a raw index. Handles are assigned densely in
    /// creation/acceptance order, so `from_index(0)` is the first socket.
    pub fn from_index(index: usize) -> Self {
        SocketHandle(index)
    }
}

const TOKEN_KIND_RTO: u64 = 0;
const TOKEN_KIND_SOURCE: u64 = 1;

fn token(kind: u64, idx: usize) -> u64 {
    kind << 32 | idx as u64
}

/// One timestamped congestion-control observation: which quantity
/// changed and its new value (see [`ProtoAspect`] for the encoding).
pub type StateChange = (SimTime, ProtoAspect, u64);

/// The congestion-control values a socket reports, in state-log order:
/// loss indicators first, then the phase and window moves they caused.
/// The stack diffs them after every socket interaction.
fn cc_values(socket: &TcpSocket) -> [(ProtoAspect, u64); 5] {
    let stats = socket.stats();
    [
        (ProtoAspect::RtoTimeout, stats.timeouts),
        (ProtoAspect::FastRetransmit, stats.fast_retransmits),
        (ProtoAspect::Ssthresh, u64::from(socket.ssthresh())),
        (ProtoAspect::CcPhase, cc_phase_code(socket.cc_phase())),
        (ProtoAspect::Cwnd, u64::from(socket.cwnd())),
    ]
}

/// Encodes a [`CcPhase`] as the `value` of a
/// [`ProtoAspect::CcPhase`] observation.
pub fn cc_phase_code(phase: CcPhase) -> u64 {
    match phase {
        CcPhase::SlowStart => 0,
        CcPhase::CongestionAvoidance => 1,
        CcPhase::FastRecovery => 2,
    }
}

/// A rate-controlled application source attached to a socket: feeds payload
/// into the send buffer at `rate_bps` until `total_bytes` have been offered
/// (the "offered data pumping rate" knob of the paper's Figure 7).
#[derive(Debug, Clone, Copy)]
struct AppSource {
    rate_bps: u64,
    total_bytes: u64,
    offered: u64,
    chunk: usize,
}

/// One connection: its socket, its armed RTO timer, the [`cc_values`]
/// last logged for it and the source feeding it, if any.
#[derive(Debug)]
struct Conn {
    socket: TcpSocket,
    rto: Option<TimerId>,
    seen: [u64; 5],
    source: Option<AppSource>,
}

/// A TCP/IP stack for one simulated host, installed as a
/// [`Protocol`](vw_netsim::Protocol) bound to IPv4.
///
/// External drivers (tests, examples, the benchmark harness) mutate the
/// stack through [`World::protocol_mut`](vw_netsim::World::protocol_mut) —
/// opening connections, queueing data — and then
/// [`poke`](vw_netsim::World::poke) the handler so queued work is flushed
/// into the simulation.
#[derive(Debug)]
pub struct TcpStack {
    mac: MacAddr,
    ip: Ipv4Addr,
    /// Connections, indexed by [`SocketHandle`].
    conns: Vec<Conn>,
    /// Listening ports and the config applied to accepted connections.
    listeners: HashMap<u16, TcpConfig>,
    /// Handles of connections accepted from listeners, newest last.
    accepted: Vec<SocketHandle>,
    /// Next automatic ISS, stepped per connection for distinguishability.
    next_iss: u32,
    /// Timestamped state changes across all sockets, in detection order.
    state_log: Vec<StateChange>,
}

impl TcpStack {
    /// Creates a stack for a host with the given link and network
    /// addresses (obtain them from
    /// [`World::host_mac`](vw_netsim::World::host_mac) /
    /// [`World::host_ip`](vw_netsim::World::host_ip)).
    pub fn new(mac: MacAddr, ip: Ipv4Addr) -> Self {
        TcpStack {
            mac,
            ip,
            conns: Vec::new(),
            listeners: HashMap::new(),
            accepted: Vec::new(),
            next_iss: 1000,
            state_log: Vec::new(),
        }
    }

    /// Starts listening on `port`; accepted connections use `cfg`.
    pub fn listen(&mut self, port: u16, cfg: TcpConfig) {
        self.listeners.insert(port, cfg);
    }

    /// Opens a connection. The SYN is transmitted at the next handler
    /// dispatch — call [`World::poke`](vw_netsim::World::poke) after this
    /// when the simulation is already running.
    pub fn connect(&mut self, cfg: TcpConfig, local_port: u16, remote: Endpoint) -> SocketHandle {
        let local = Endpoint {
            mac: self.mac,
            ip: self.ip,
            port: local_port,
        };
        let socket = TcpSocket::connect(cfg, local, remote);
        self.push_socket(socket)
    }

    fn push_socket(&mut self, socket: TcpSocket) -> SocketHandle {
        self.conns.push(Conn {
            seen: cc_values(&socket).map(|(_, value)| value),
            socket,
            rto: None,
            source: None,
        });
        SocketHandle(self.conns.len() - 1)
    }

    /// Queues application data on a connection.
    ///
    /// # Panics
    ///
    /// Panics on a stale handle.
    pub fn send(&mut self, handle: SocketHandle, data: &[u8]) {
        self.conns[handle.0].socket.send_data(data);
    }

    /// Requests an orderly close.
    ///
    /// # Panics
    ///
    /// Panics on a stale handle.
    pub fn close(&mut self, handle: SocketHandle) {
        self.conns[handle.0].socket.close();
    }

    /// Attaches a rate-controlled source that offers `total_bytes` of
    /// payload at `rate_bps` (the offered-load generator for Figure 7).
    ///
    /// # Panics
    ///
    /// Panics if `rate_bps` is zero or the handle is stale.
    pub fn attach_source(&mut self, handle: SocketHandle, rate_bps: u64, total_bytes: u64) {
        assert!(rate_bps > 0, "offered rate must be positive");
        // Feed in ~1 ms chunks, at least one MSS.
        let chunk = ((rate_bps / 8 / 1000) as usize).max(1000);
        self.conns[handle.0].source = Some(AppSource {
            rate_bps,
            total_bytes,
            offered: 0,
            chunk,
        });
    }

    /// Connections accepted from listeners since the last call.
    pub fn take_accepted(&mut self) -> Vec<SocketHandle> {
        std::mem::take(&mut self.accepted)
    }

    /// Read-only access to a connection.
    pub fn socket(&self, handle: SocketHandle) -> &TcpSocket {
        &self.conns[handle.0].socket
    }

    /// Mutable access to a connection (e.g. to take received data).
    pub fn socket_mut(&mut self, handle: SocketHandle) -> &mut TcpSocket {
        &mut self.conns[handle.0].socket
    }

    /// Number of sockets (live and closed) in the stack.
    pub fn socket_count(&self) -> usize {
        self.conns.len()
    }

    /// Timestamped congestion-control state changes observed so far, in
    /// detection order — the feed for the conformance models in
    /// `vw-analysis` (loss indicators first, then the phase/window moves
    /// they caused).
    pub fn state_log(&self) -> &[StateChange] {
        &self.state_log
    }

    /// Logs every congestion value that moved since the connection's last
    /// interaction, sends what the socket queued and re-arms its RTO.
    fn flush_socket(&mut self, ctx: &mut Context<'_>, idx: usize) {
        let _span = vw_trace::span("tcp_send", vw_trace::Category::Tcp);
        let conn = &mut self.conns[idx];
        for ((aspect, value), seen) in cc_values(&conn.socket).into_iter().zip(&mut conn.seen) {
            if value != *seen {
                self.state_log.push((ctx.now(), aspect, value));
                *seen = value;
            }
        }
        for frame in conn.socket.take_out() {
            ctx.send(frame);
        }
        // Reconcile the RTO timer: cancel-and-rearm keeps the deadline
        // relative to the most recent activity.
        if let Some(id) = conn.rto.take() {
            ctx.cancel_timer(id);
        }
        if let Some(delay) = conn.socket.timer_wanted() {
            conn.rto = Some(ctx.set_timer(delay, token(TOKEN_KIND_RTO, idx)));
        }
    }

    fn pump_and_flush(&mut self, ctx: &mut Context<'_>, idx: usize) {
        self.conns[idx].socket.pump(ctx.now());
        self.flush_socket(ctx, idx);
    }

    fn feed_source(&mut self, ctx: &mut Context<'_>, idx: usize) {
        let conn = &mut self.conns[idx];
        let Some(source) = conn.source.as_mut() else {
            return;
        };
        if source.offered >= source.total_bytes {
            return;
        }
        let remaining = (source.total_bytes - source.offered) as usize;
        let chunk = source.chunk.min(remaining);
        conn.socket.send_fill(0xA5, chunk);
        source.offered += chunk as u64;
        let gap = vw_netsim::time::serialization_time(chunk, source.rate_bps);
        if source.offered < source.total_bytes {
            ctx.set_timer(gap, token(TOKEN_KIND_SOURCE, idx));
        }
        self.pump_and_flush(ctx, idx);
    }
}

impl Protocol for TcpStack {
    fn name(&self) -> &str {
        "tcp-stack"
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Kick the sources that have not started offering yet, in socket
        // order, so a run never depends on which source was attached first.
        for idx in 0..self.conns.len() {
            if self.conns[idx].source.is_some_and(|s| s.offered == 0) {
                self.feed_source(ctx, idx);
            }
        }
        for idx in 0..self.conns.len() {
            self.pump_and_flush(ctx, idx);
        }
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: Frame) {
        let _span = vw_trace::span("tcp_recv", vw_trace::Category::Tcp);
        let Some(tcp) = frame.tcp() else { return };
        let Some(ip) = frame.ipv4() else { return };
        if ip.dst() != self.ip {
            return;
        }
        if !ip.verify_checksum() || !tcp.verify_checksum() {
            return; // corrupted segment: drop, let retransmission recover
        }
        let seg = SegmentIn {
            seq: tcp.seq(),
            ack: tcp.ack(),
            flags: tcp.flags(),
            window: tcp.window(),
            payload: tcp.payload(),
        };
        let (src_ip, dst_port, src_port) = (ip.src(), tcp.dst_port(), tcp.src_port());

        // Demux to an existing connection first.
        let existing = self.conns.iter().position(|Conn { socket: s, .. }| {
            s.local().port == dst_port
                && s.remote().port == src_port
                && s.remote().ip == src_ip
                && s.state() != TcpState::Closed
        });
        let idx = match existing {
            Some(idx) => idx,
            None => {
                // New connection: only a SYN to a listening port counts.
                if !seg.flags.contains(TcpFlags::SYN) || seg.flags.contains(TcpFlags::ACK) {
                    return;
                }
                let Some(cfg) = self.listeners.get(&dst_port).copied() else {
                    return;
                };
                let mut cfg = cfg;
                self.next_iss = self.next_iss.wrapping_add(64_000);
                cfg.iss = self.next_iss;
                let local = Endpoint {
                    mac: self.mac,
                    ip: self.ip,
                    port: dst_port,
                };
                let remote = Endpoint {
                    mac: frame.src(),
                    ip: src_ip,
                    port: src_port,
                };
                let socket = TcpSocket::accept(cfg, local, remote, seg.seq);
                let handle = self.push_socket(socket);
                self.accepted.push(handle);
                let idx = handle.0;
                self.flush_socket(ctx, idx);
                return;
            }
        };
        self.conns[idx].socket.on_segment(ctx.now(), seg);
        self.flush_socket(ctx, idx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tok: u64) {
        let kind = tok >> 32;
        let idx = (tok & 0xffff_ffff) as usize;
        if idx >= self.conns.len() {
            return;
        }
        match kind {
            TOKEN_KIND_RTO => {
                let conn = &mut self.conns[idx];
                conn.rto = None;
                conn.socket.on_rto(ctx.now());
                self.pump_and_flush(ctx, idx);
            }
            TOKEN_KIND_SOURCE => {
                self.feed_source(ctx, idx);
            }
            _ => {}
        }
    }
}
