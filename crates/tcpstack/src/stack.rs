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

/// The per-socket congestion-control snapshot the stack diffs after
/// every socket interaction to derive [`StateChange`] records.
#[derive(Debug, Clone, Copy)]
struct CcSnapshot {
    phase: CcPhase,
    cwnd: u32,
    ssthresh: u32,
    fast_retransmits: u64,
    timeouts: u64,
}

impl CcSnapshot {
    fn of(socket: &TcpSocket) -> Self {
        CcSnapshot {
            phase: socket.cc_phase(),
            cwnd: socket.cwnd(),
            ssthresh: socket.ssthresh(),
            fast_retransmits: socket.stats().fast_retransmits,
            timeouts: socket.stats().timeouts,
        }
    }
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
    sockets: Vec<TcpSocket>,
    /// Listening ports and the config applied to accepted connections.
    listeners: HashMap<u16, TcpConfig>,
    /// Armed RTO timer per socket.
    timers: Vec<Option<TimerId>>,
    sources: HashMap<usize, AppSource>,
    /// Handles of connections accepted from listeners, newest last.
    accepted: Vec<SocketHandle>,
    /// Next automatic ISS, stepped per connection for distinguishability.
    next_iss: u32,
    /// Last-seen congestion snapshot per socket (diffed after every
    /// socket interaction).
    snapshots: Vec<CcSnapshot>,
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
            sockets: Vec::new(),
            listeners: HashMap::new(),
            timers: Vec::new(),
            sources: HashMap::new(),
            accepted: Vec::new(),
            next_iss: 1000,
            snapshots: Vec::new(),
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
        self.snapshots.push(CcSnapshot::of(&socket));
        self.sockets.push(socket);
        self.timers.push(None);
        SocketHandle(self.sockets.len() - 1)
    }

    /// Queues application data on a connection.
    ///
    /// # Panics
    ///
    /// Panics on a stale handle.
    pub fn send(&mut self, handle: SocketHandle, data: &[u8]) {
        self.sockets[handle.0].send_data(data);
    }

    /// Requests an orderly close.
    ///
    /// # Panics
    ///
    /// Panics on a stale handle.
    pub fn close(&mut self, handle: SocketHandle) {
        self.sockets[handle.0].close();
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
        self.sources.insert(
            handle.0,
            AppSource {
                rate_bps,
                total_bytes,
                offered: 0,
                chunk,
            },
        );
    }

    /// Connections accepted from listeners since the last call.
    pub fn take_accepted(&mut self) -> Vec<SocketHandle> {
        std::mem::take(&mut self.accepted)
    }

    /// Read-only access to a connection.
    pub fn socket(&self, handle: SocketHandle) -> &TcpSocket {
        &self.sockets[handle.0]
    }

    /// Mutable access to a connection (e.g. to take received data).
    pub fn socket_mut(&mut self, handle: SocketHandle) -> &mut TcpSocket {
        &mut self.sockets[handle.0]
    }

    /// Number of sockets (live and closed) in the stack.
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Timestamped congestion-control state changes observed so far, in
    /// detection order — the feed for the conformance models in
    /// `vw-analysis` (loss indicators first, then the phase/window moves
    /// they caused).
    pub fn state_log(&self) -> &[StateChange] {
        &self.state_log
    }

    /// Diffs the socket's congestion state against the last snapshot and
    /// records every change.
    fn observe(&mut self, now: SimTime, idx: usize) {
        let cur = CcSnapshot::of(&self.sockets[idx]);
        let prev = self.snapshots[idx];
        if cur.timeouts != prev.timeouts {
            self.state_log
                .push((now, ProtoAspect::RtoTimeout, cur.timeouts));
        }
        if cur.fast_retransmits != prev.fast_retransmits {
            self.state_log
                .push((now, ProtoAspect::FastRetransmit, cur.fast_retransmits));
        }
        if cur.ssthresh != prev.ssthresh {
            self.state_log
                .push((now, ProtoAspect::Ssthresh, u64::from(cur.ssthresh)));
        }
        if cur.phase != prev.phase {
            self.state_log
                .push((now, ProtoAspect::CcPhase, cc_phase_code(cur.phase)));
        }
        if cur.cwnd != prev.cwnd {
            self.state_log
                .push((now, ProtoAspect::Cwnd, u64::from(cur.cwnd)));
        }
        self.snapshots[idx] = cur;
    }

    fn flush_socket(&mut self, ctx: &mut Context<'_>, idx: usize) {
        let _span = vw_trace::span("tcp_send", vw_trace::Category::Tcp);
        self.observe(ctx.now(), idx);
        for frame in self.sockets[idx].take_out() {
            ctx.send(frame);
        }
        // Reconcile the RTO timer: cancel-and-rearm keeps the deadline
        // relative to the most recent activity.
        if let Some(id) = self.timers[idx].take() {
            ctx.cancel_timer(id);
        }
        if let Some(delay) = self.sockets[idx].timer_wanted() {
            self.timers[idx] = Some(ctx.set_timer(delay, token(TOKEN_KIND_RTO, idx)));
        }
    }

    fn flush_all(&mut self, ctx: &mut Context<'_>) {
        for idx in 0..self.sockets.len() {
            self.sockets[idx].pump(ctx.now());
            self.flush_socket(ctx, idx);
        }
    }

    fn feed_source(&mut self, ctx: &mut Context<'_>, idx: usize) {
        let Some(mut source) = self.sources.get(&idx).copied() else {
            return;
        };
        if source.offered >= source.total_bytes {
            return;
        }
        let remaining = (source.total_bytes - source.offered) as usize;
        let chunk = source.chunk.min(remaining);
        self.sockets[idx].send_fill(0xA5, chunk);
        source.offered += chunk as u64;
        let gap = vw_netsim::time::serialization_time(chunk, source.rate_bps);
        if source.offered < source.total_bytes {
            ctx.set_timer(gap, token(TOKEN_KIND_SOURCE, idx));
        }
        self.sources.insert(idx, source);
        self.sockets[idx].pump(ctx.now());
        self.flush_socket(ctx, idx);
    }
}

impl Protocol for TcpStack {
    fn name(&self) -> &str {
        "tcp-stack"
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Kick any sources that have not started offering yet.
        let idle: Vec<usize> = self
            .sources
            .iter()
            .filter(|(_, s)| s.offered == 0)
            .map(|(idx, _)| *idx)
            .collect();
        for idx in idle {
            self.feed_source(ctx, idx);
        }
        self.flush_all(ctx);
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
        let existing = self.sockets.iter().position(|s| {
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
        self.sockets[idx].on_segment(ctx.now(), seg);
        self.flush_socket(ctx, idx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tok: u64) {
        let kind = tok >> 32;
        let idx = (tok & 0xffff_ffff) as usize;
        if idx >= self.sockets.len() {
            return;
        }
        match kind {
            TOKEN_KIND_RTO => {
                self.timers[idx] = None;
                self.sockets[idx].on_rto(ctx.now());
                self.sockets[idx].pump(ctx.now());
                self.flush_socket(ctx, idx);
            }
            TOKEN_KIND_SOURCE => {
                self.feed_source(ctx, idx);
            }
            _ => {}
        }
    }
}
