//! The RLL as a simulator hook.

use vw_netsim::{Context, Hook, SimDuration, TimerId, Verdict};
use vw_packet::{Frame, MacAddr, MacMap};

use crate::window::{ReceiverWindow, RecvAction, SendAction, SenderWindow};
use crate::wire::{self, RllOpcode};

/// Configuration for a [`RllHook`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RllConfig {
    /// Sliding-window size, in frames.
    pub window: u32,
    /// Retransmission timeout.
    pub rto: SimDuration,
    /// Give up on a peer after this many consecutive timeouts (the frames
    /// are dropped and counted in [`RllStats::gave_up`]).
    pub max_retries: u32,
    /// Simulated CPU cost charged per frame for encapsulation or
    /// decapsulation (the paper's Figure 8 case (iii) overhead).
    pub cost_per_frame: SimDuration,
}

impl Default for RllConfig {
    fn default() -> Self {
        RllConfig {
            window: 32,
            rto: SimDuration::from_millis(2),
            max_retries: 10,
            cost_per_frame: SimDuration::ZERO,
        }
    }
}

/// Counters exposed by the RLL for tests and the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RllStats {
    /// Inner frames accepted from the layer above.
    pub accepted: u64,
    /// DATA frames put on the wire (including retransmissions).
    pub data_sent: u64,
    /// DATA retransmissions.
    pub retransmissions: u64,
    /// ACK frames sent.
    pub acks_sent: u64,
    /// Frames delivered up exactly once, in order.
    pub delivered: u64,
    /// Duplicate/out-of-order DATA frames discarded.
    pub discarded: u64,
    /// Frames arriving corrupted (checksum failure, or a unicast frame
    /// addressed to this host that is not RLL) and treated as lost.
    pub corrupted: u64,
    /// Frames abandoned after `max_retries` consecutive timeouts.
    pub gave_up: u64,
    /// Frames bypassing the RLL (broadcast/multicast or foreign RLL
    /// traffic passed through).
    pub bypassed: u64,
}

struct PeerState {
    sender: SenderWindow,
    receiver: ReceiverWindow,
    timer: Option<TimerId>,
    /// The seq this session restarted from after a give-up: sent as Restart.
    restart: Option<u32>,
}

/// The Reliable Link Layer, installed as the wire-most hook on a host.
///
/// Every unicast frame handed down from the layers above (including
/// VirtualWire's control-plane messages — the FIE sits stack-ward of the
/// RLL, exactly as in the paper) is encapsulated in a sequenced RLL DATA
/// frame and retransmitted until acknowledged, so that MAC-level loss or
/// corruption can never silently remove a packet from under the fault
/// injection engine.
///
/// Broadcast and multicast frames bypass the ARQ (there is no single peer
/// to acknowledge them) and are passed through unchanged.
pub struct RllHook {
    config: RllConfig,
    peers: MacMap<PeerState>,
    stats: RllStats,
}

impl std::fmt::Debug for RllHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RllHook")
            .field("config", &self.config)
            .field("peers", &self.peers.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl RllHook {
    /// Creates an RLL layer with the given configuration.
    pub fn new(config: RllConfig) -> Self {
        RllHook {
            config,
            peers: MacMap::default(),
            stats: RllStats::default(),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> RllStats {
        self.stats
    }

    /// The session with `mac`, created on first contact, beside `stats`:
    /// the caller counts while it holds a frame the session's window lent.
    fn peer(&mut self, mac: MacAddr) -> (&mut PeerState, &mut RllStats) {
        let window = self.config.window;
        let peer = self.peers.entry(mac).or_insert_with(|| PeerState {
            sender: SenderWindow::new(window),
            receiver: ReceiverWindow::new(),
            timer: None,
            restart: None,
        });
        (peer, &mut self.stats)
    }

    /// Timer tokens encode the peer's MAC low bits; since MACs here are
    /// `MacAddr::from_index` style, pack the 6 bytes into the token.
    fn token_for(mac: MacAddr) -> u64 {
        let o = mac.octets();
        u64::from_be_bytes([0, 0, o[0], o[1], o[2], o[3], o[4], o[5]])
    }

    fn mac_for(token: u64) -> MacAddr {
        let b = token.to_be_bytes();
        MacAddr::new([b[2], b[3], b[4], b[5], b[6], b[7]])
    }
}

impl PeerState {
    /// Arms the retransmission timer for the session with `mac`, due `rto`
    /// from now, unless it is armed already.
    fn arm_timer(&mut self, ctx: &mut Context<'_>, rto: SimDuration, mac: MacAddr) {
        if self.timer.is_none() {
            self.timer = Some(ctx.set_timer(rto, RllHook::token_for(mac)));
        }
    }

    fn disarm_timer(&mut self, ctx: &mut Context<'_>) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
    }
}

/// Puts `inner` on the wire as DATA number `seq`, piggybacking `ack`, the
/// next sequence number expected from the peer it goes to; as a Restart
/// if `seq` is the one its session restarted from.
fn transmit_data(
    ctx: &mut Context<'_>,
    stats: &mut RllStats,
    inner: &Frame,
    seq: u32,
    ack: u32,
    restart: Option<u32>,
) {
    stats.data_sent += 1;
    let opcode = if restart == Some(seq) {
        RllOpcode::Restart
    } else {
        RllOpcode::Data
    };
    ctx.send(wire::encapsulate(opcode, inner, seq, ack));
}

impl Hook for RllHook {
    fn name(&self) -> &str {
        "rll"
    }

    fn on_outbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        ctx.charge(self.config.cost_per_frame);
        let dst = frame.dst();
        if dst.is_broadcast() || dst.is_multicast() {
            self.stats.bypassed += 1;
            return Verdict::Accept(frame);
        }
        self.stats.accepted += 1;
        let rto = self.config.rto;
        let (peer, stats) = self.peer(dst);
        if let SendAction::Transmit { seq } = peer.sender.offer(frame) {
            let inner = peer.sender.in_flight(seq).expect("offer queued it");
            let ack = peer.receiver.expected();
            transmit_data(ctx, stats, inner, seq, ack, peer.restart);
        }
        peer.arm_timer(ctx, rto, dst);
        // The original frame never goes out directly; its DATA encapsulation
        // was emitted through the context.
        Verdict::Replace(Vec::new())
    }

    fn on_inbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        ctx.charge(self.config.cost_per_frame);
        if frame.ethertype() != vw_packet::EtherType::RLL {
            // An RLL host's peers send it nothing but RLL frames, so a
            // unicast one that is not is an RLL frame whose EtherType the
            // wire garbled — its source too, maybe, even before a session
            // exists: lost, and the sender retransmits it.
            if frame.dst() == ctx.mac() {
                self.stats.corrupted += 1;
                return Verdict::Consume;
            }
            // Broadcast or multicast traffic.
            self.stats.bypassed += 1;
            return Verdict::Accept(frame);
        }
        let (shim, payload) = match wire::parse(&frame) {
            Ok(parsed) => parsed,
            Err(_) => {
                self.stats.corrupted += 1;
                return Verdict::Consume; // treated as lost; sender retransmits
            }
        };
        let peer_mac = frame.src();
        match shim.opcode {
            RllOpcode::Data | RllOpcode::Restart => {
                let receiver = &mut self.peer(peer_mac).0.receiver;
                if shim.opcode == RllOpcode::Restart {
                    receiver.restart_at(shim.seq);
                }
                let ack_no = match receiver.on_data(shim.seq) {
                    RecvAction::Deliver { ack } => {
                        self.stats.delivered += 1;
                        ctx.deliver_up(wire::decapsulate(&frame, &shim, payload));
                        ack
                    }
                    RecvAction::Buffered { ack } | RecvAction::AckOnly { ack } => {
                        self.stats.discarded += 1;
                        ack
                    }
                };
                let ack_frame = wire::build_ack(ctx.mac(), peer_mac, ack_no);
                self.stats.acks_sent += 1;
                ctx.transmit_raw(ack_frame);
                Verdict::Consume
            }
            RllOpcode::Ack => {
                let rto = self.config.rto;
                let (peer, stats) = self.peer(peer_mac);
                let ack = peer.receiver.expected();
                for (seq, inner) in peer.sender.on_ack(shim.ack) {
                    transmit_data(ctx, stats, inner, seq, ack, peer.restart);
                }
                peer.disarm_timer(ctx);
                if !peer.sender.is_idle() {
                    peer.arm_timer(ctx, rto, peer_mac);
                }
                Verdict::Consume
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let mac = Self::mac_for(token);
        let Some(peer) = self.peers.get_mut(&mac) else {
            return;
        };
        peer.timer = None;
        if peer.sender.is_idle() {
            return;
        }
        if peer.sender.retries() >= self.config.max_retries {
            self.stats.gave_up += peer.sender.reset() as u64;
            peer.restart = Some(peer.sender.base());
            return;
        }
        let ack = peer.receiver.expected();
        self.stats.retransmissions += peer.sender.in_flight_len() as u64;
        for (seq, inner) in peer.sender.on_timeout() {
            transmit_data(ctx, &mut self.stats, inner, seq, ack, peer.restart);
        }
        peer.arm_timer(ctx, self.config.rto, mac);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_mac_round_trip() {
        for mac in [
            MacAddr::from_index(1),
            MacAddr::from_index(250),
            MacAddr::new([0x00, 0x12, 0x34, 0x56, 0x78, 0x9a]),
        ] {
            assert_eq!(RllHook::mac_for(RllHook::token_for(mac)), mac);
        }
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = RllConfig::default();
        assert!(cfg.window >= 1);
        assert!(cfg.max_retries >= 1);
        assert!(cfg.rto > SimDuration::ZERO);
    }
}
