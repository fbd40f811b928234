//! The per-host Rether layer.
//!
//! Rether lives where the real implementation lived: "as a layer between
//! the Ethernet driver and the IP stack" (paper, Section 1) — here, a
//! [`Hook`] in the simulator's interposition chain. Outbound data frames
//! are held in a queue and released only while the node holds the token;
//! the layer generates and consumes the token/token-ack control traffic
//! itself.

use std::collections::VecDeque;

use vw_netsim::{Context, Hook, SimDuration, SimTime, TimerId, Verdict};
use vw_obs::ProtoAspect;
use vw_packet::{EtherType, Frame, MacAddr};

use crate::wire::{self, RetherMessage, Token};

const TIMER_ACK: u64 = 1;
const TIMER_REGEN: u64 = 2;
const TIMER_HOLD: u64 = 3;

/// How long an idle holder keeps the token before passing it on
/// (throttles rotation speed when nobody has data).
const IDLE_HOLD: SimDuration = SimDuration::from_millis(1);

/// Configuration for a Rether node.
#[derive(Debug, Clone)]
pub struct RetherConfig {
    /// Initial ring membership in rotation order (every node must use the
    /// same list).
    pub ring: Vec<MacAddr>,
    /// How long to wait for a token acknowledgment before retransmitting.
    pub token_ack_timeout: SimDuration,
    /// Total token transmissions to a successor before declaring it dead
    /// (the paper's Figure 6 scenario checks for exactly 3).
    pub token_send_limit: u32,
    /// Base inactivity period before token regeneration; the effective
    /// watchdog is `regen_base × (rank + 2)` so lower-ranked nodes fire
    /// first.
    pub regen_base: SimDuration,
    /// Best-effort (non-real-time) bytes a node may transmit per hold.
    pub nrt_quantum_bytes: u32,
    /// Upper bound on queued outbound data frames.
    pub queue_cap: usize,
}

impl RetherConfig {
    /// A sensible default configuration for the given ring.
    pub fn new(ring: Vec<MacAddr>) -> Self {
        RetherConfig {
            ring,
            token_ack_timeout: SimDuration::from_millis(5),
            token_send_limit: 3,
            regen_base: SimDuration::from_millis(250),
            nrt_quantum_bytes: 16 * 1024,
            queue_cap: 1024,
        }
    }
}

/// Counters exposed for tests and analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetherStats {
    /// Tokens received (and acknowledged).
    pub tokens_received: u64,
    /// Tokens passed to a successor (first transmissions).
    pub tokens_passed: u64,
    /// Token retransmissions after a missing acknowledgment.
    pub token_retransmissions: u64,
    /// Token acknowledgments sent.
    pub acks_sent: u64,
    /// Successors declared dead (ring reconstructions initiated).
    pub reconstructions: u64,
    /// Tokens regenerated after ring silence.
    pub regenerations: u64,
    /// Stale or duplicate tokens discarded.
    pub stale_tokens_dropped: u64,
    /// Data frames released while holding the token.
    pub data_frames_released: u64,
    /// Data frames dropped because the hold queue overflowed.
    pub queue_drops: u64,
}

#[derive(Debug)]
enum TokenState {
    /// Not holding the token.
    Idle,
    /// Holding; the hold timer will trigger the pass.
    Holding { timer: Option<TimerId> },
    /// Token passed; awaiting the acknowledgment.
    AwaitingAck {
        dst: MacAddr,
        sends: u32,
        timer: TimerId,
    },
}

/// One node's Rether layer, installed as a hook between the protocol stack
/// and the NIC (stack-ward of any fault injection engine, so injected
/// token faults are visible to it the same way kernel Rether saw faults on
/// the real wire).
#[derive(Debug)]
pub struct RetherNode {
    cfg: RetherConfig,
    mac: MacAddr,
    ring: Vec<MacAddr>,
    generation: u32,
    cycle: u32,
    state: TokenState,
    pending: VecDeque<Frame>,
    rt_reservation_bytes: u32,
    /// Unused transmission budget in the current hold.
    hold_budget_left: u32,
    last_token_seen: SimTime,
    stats: RetherStats,
    started: bool,
    /// Timestamped token-protocol state changes, in occurrence order —
    /// the feed for the Rether conformance model in `vw-analysis`.
    state_log: Vec<(SimTime, ProtoAspect, u64)>,
}

impl RetherNode {
    /// Creates the layer for the host with address `mac`.
    ///
    /// # Panics
    ///
    /// Panics if `mac` is not a member of `cfg.ring` or the ring is empty.
    pub fn new(cfg: RetherConfig, mac: MacAddr) -> Self {
        assert!(!cfg.ring.is_empty(), "ring must not be empty");
        assert!(cfg.ring.contains(&mac), "this node must be a ring member");
        let ring = cfg.ring.clone();
        RetherNode {
            cfg,
            mac,
            ring,
            generation: 0,
            cycle: 0,
            state: TokenState::Idle,
            pending: VecDeque::new(),
            rt_reservation_bytes: 0,
            hold_budget_left: 0,
            last_token_seen: SimTime::ZERO,
            stats: RetherStats::default(),
            started: false,
            state_log: Vec::new(),
        }
    }

    /// Reserves real-time bandwidth: this node may transmit `bytes` per
    /// token hold in addition to the best-effort quantum.
    pub fn reserve_rt(&mut self, bytes: u32) {
        self.rt_reservation_bytes = bytes;
    }

    /// Current counters.
    pub fn stats(&self) -> RetherStats {
        self.stats
    }

    /// Timestamped token-protocol state changes observed so far, in
    /// occurrence order.
    pub fn state_log(&self) -> &[(SimTime, ProtoAspect, u64)] {
        &self.state_log
    }

    /// The node's current view of the ring.
    pub fn ring(&self) -> &[MacAddr] {
        &self.ring
    }

    /// The node's current token generation.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// `true` while this node holds the token.
    pub fn is_holding(&self) -> bool {
        matches!(self.state, TokenState::Holding { .. })
    }

    /// Frames queued awaiting the token.
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    fn rank(&self) -> usize {
        self.ring.iter().position(|m| *m == self.mac).unwrap_or(0)
    }

    fn successor(&self) -> Option<MacAddr> {
        if self.ring.len() <= 1 {
            return None;
        }
        let rank = self.rank();
        Some(self.ring[(rank + 1) % self.ring.len()])
    }

    fn regen_timeout(&self) -> SimDuration {
        self.cfg.regen_base * (self.rank() as u64 + 2)
    }

    fn hold_budget(&self) -> u32 {
        self.rt_reservation_bytes + self.cfg.nrt_quantum_bytes
    }

    /// Becomes the token holder: releases queued data within the per-hold
    /// budget, then either passes immediately (data was waiting) or
    /// lingers for [`IDLE_HOLD`]. Whatever budget remains is available to
    /// frames arriving from the stack while the token is still held.
    fn hold_token(&mut self, ctx: &mut Context<'_>) {
        self.hold_budget_left = self.hold_budget();
        let mut released = false;
        while let Some(front_len) = self.pending.front().map(|f| f.len() as u32) {
            if front_len > self.hold_budget_left && released {
                break; // budget exhausted for this hold
            }
            let frame = self.pending.pop_front().expect("nonempty");
            self.hold_budget_left = self.hold_budget_left.saturating_sub(front_len);
            self.stats.data_frames_released += 1;
            released = true;
            ctx.send(frame);
        }
        if released {
            self.pass_token(ctx);
        } else {
            let timer = ctx.set_timer(IDLE_HOLD, TIMER_HOLD);
            self.state = TokenState::Holding { timer: Some(timer) };
        }
    }

    fn pass_token(&mut self, ctx: &mut Context<'_>) {
        let Some(dst) = self.successor() else {
            // Sole survivor: keep holding.
            let timer = ctx.set_timer(IDLE_HOLD, TIMER_HOLD);
            self.state = TokenState::Holding { timer: Some(timer) };
            return;
        };
        if self.rank() == 0 {
            self.cycle = self.cycle.wrapping_add(1);
        }
        ctx.send(wire::build_token_parts(
            self.mac,
            dst,
            self.generation,
            self.cycle,
            &self.ring,
        ));
        self.stats.tokens_passed += 1;
        self.state_log.push((
            ctx.now(),
            ProtoAspect::TokenPassed,
            u64::from(self.generation),
        ));
        let timer = ctx.set_timer(self.cfg.token_ack_timeout, TIMER_ACK);
        self.state = TokenState::AwaitingAck {
            dst,
            sends: 1,
            timer,
        };
    }

    fn on_token(&mut self, ctx: &mut Context<'_>, from: MacAddr, token: Token<&[[u8; 6]]>) {
        self.last_token_seen = ctx.now();
        if token.generation < self.generation {
            self.stats.stale_tokens_dropped += 1;
            return;
        }
        if token.generation == self.generation && !matches!(self.state, TokenState::Idle) {
            // Duplicate token of the current generation while we already
            // hold (or just passed) one: kill it.
            self.stats.stale_tokens_dropped += 1;
            return;
        }
        // Adopt the token's view of the world.
        self.generation = token.generation;
        self.cycle = token.cycle;
        if token.ring.contains(&self.mac.octets()) {
            self.ring.clear();
            self.ring
                .extend(token.ring.iter().copied().map(MacAddr::new));
        }
        // Cancel any pending ack wait (a newer token supersedes it).
        if let TokenState::AwaitingAck { timer, .. } = &self.state {
            ctx.cancel_timer(*timer);
        }
        if let TokenState::Holding { timer: Some(t) } = &self.state {
            ctx.cancel_timer(*t);
        }
        self.stats.tokens_received += 1;
        self.state_log.push((
            ctx.now(),
            ProtoAspect::TokenReceived,
            u64::from(self.generation),
        ));
        self.stats.acks_sent += 1;
        ctx.send(wire::build_token_ack(self.mac, from, self.generation));
        self.hold_token(ctx);
    }

    fn on_token_ack(&mut self, ctx: &mut Context<'_>, generation: u32) {
        self.last_token_seen = ctx.now();
        if let TokenState::AwaitingAck { timer, .. } = &self.state {
            if generation == self.generation {
                ctx.cancel_timer(*timer);
                self.state = TokenState::Idle;
                self.state_log
                    .push((ctx.now(), ProtoAspect::TokenAcked, u64::from(generation)));
            }
        }
    }

    fn on_ack_timeout(&mut self, ctx: &mut Context<'_>) {
        let TokenState::AwaitingAck { dst, sends, .. } = self.state else {
            return;
        };
        if sends < self.cfg.token_send_limit {
            // Retransmit the token.
            ctx.send(wire::build_token_parts(
                self.mac,
                dst,
                self.generation,
                self.cycle,
                &self.ring,
            ));
            self.stats.token_retransmissions += 1;
            self.state_log.push((
                ctx.now(),
                ProtoAspect::TokenRetransmit,
                u64::from(sends + 1),
            ));
            let timer = ctx.set_timer(self.cfg.token_ack_timeout, TIMER_ACK);
            self.state = TokenState::AwaitingAck {
                dst,
                sends: sends + 1,
                timer,
            };
        } else {
            // Successor is dead: reconstruct the ring without it and pass
            // to the next survivor.
            self.stats.reconstructions += 1;
            self.ring.retain(|m| *m != dst);
            self.state_log.push((
                ctx.now(),
                ProtoAspect::RingReconfigured,
                self.ring.len() as u64,
            ));
            self.state = TokenState::Idle;
            self.pass_token(ctx);
        }
    }

    fn on_regen_check(&mut self, ctx: &mut Context<'_>) {
        let quiet = ctx.now().saturating_since(self.last_token_seen);
        if matches!(self.state, TokenState::Idle) && quiet >= self.regen_timeout() {
            self.generation += 1;
            self.stats.regenerations += 1;
            self.state_log.push((
                ctx.now(),
                ProtoAspect::TokenRegenerated,
                u64::from(self.generation),
            ));
            self.last_token_seen = ctx.now();
            self.hold_token(ctx);
        }
        ctx.set_timer(self.regen_timeout(), TIMER_REGEN);
    }
}

impl Hook for RetherNode {
    fn name(&self) -> &str {
        "rether"
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.started {
            return;
        }
        self.started = true;
        self.last_token_seen = ctx.now();
        ctx.set_timer(self.regen_timeout(), TIMER_REGEN);
        // The first ring member originates the token.
        if self.rank() == 0 {
            self.hold_token(ctx);
        }
    }

    fn on_outbound(&mut self, _ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        if frame.ethertype() == EtherType::RETHER {
            // Our own control traffic (emitted via ctx.send) never re-enters
            // this hook; anything else claiming Rether is passed through.
            return Verdict::Accept(frame);
        }
        if matches!(self.state, TokenState::Holding { .. })
            && frame.len() as u32 <= self.hold_budget_left
        {
            // Holder may transmit immediately — within its budget.
            self.hold_budget_left -= frame.len() as u32;
            self.stats.data_frames_released += 1;
            return Verdict::Accept(frame);
        }
        if self.pending.len() >= self.cfg.queue_cap {
            self.stats.queue_drops += 1;
            return Verdict::Consume;
        }
        self.pending.push_back(frame);
        Verdict::Replace(Vec::new())
    }

    fn on_inbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        if frame.ethertype() != EtherType::RETHER {
            return Verdict::Accept(frame);
        }
        match wire::parse(&frame) {
            Ok(RetherMessage::Token(token)) => {
                self.on_token(ctx, frame.src(), token);
                Verdict::Consume
            }
            Ok(RetherMessage::TokenAck { generation }) => {
                self.on_token_ack(ctx, generation);
                Verdict::Consume
            }
            Err(_) => Verdict::Consume, // malformed control frame
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        match token {
            TIMER_ACK => self.on_ack_timeout(ctx),
            TIMER_REGEN => self.on_regen_check(ctx),
            TIMER_HOLD => {
                if matches!(self.state, TokenState::Holding { .. }) {
                    self.pass_token(ctx);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: u32) -> Vec<MacAddr> {
        (1..=n).map(MacAddr::from_index).collect()
    }

    #[test]
    fn construction_validates_membership() {
        let cfg = RetherConfig::new(ring(4));
        let node = RetherNode::new(cfg, MacAddr::from_index(2));
        assert_eq!(node.rank(), 1);
        assert_eq!(node.successor(), Some(MacAddr::from_index(3)));
        assert_eq!(node.ring().len(), 4);
    }

    #[test]
    #[should_panic(expected = "ring member")]
    fn non_member_rejected() {
        let cfg = RetherConfig::new(ring(4));
        let _ = RetherNode::new(cfg, MacAddr::from_index(9));
    }

    #[test]
    fn successor_wraps_around() {
        let cfg = RetherConfig::new(ring(3));
        let node = RetherNode::new(cfg, MacAddr::from_index(3));
        assert_eq!(node.successor(), Some(MacAddr::from_index(1)));
    }

    #[test]
    fn sole_member_has_no_successor() {
        let cfg = RetherConfig::new(ring(1));
        let node = RetherNode::new(cfg, MacAddr::from_index(1));
        assert_eq!(node.successor(), None);
    }

    #[test]
    fn regen_timeout_scales_with_rank() {
        let cfg = RetherConfig::new(ring(4));
        let first = RetherNode::new(cfg.clone(), MacAddr::from_index(1));
        let last = RetherNode::new(cfg, MacAddr::from_index(4));
        assert!(first.regen_timeout() < last.regen_timeout());
    }

    #[test]
    fn hold_budget_includes_reservation() {
        let cfg = RetherConfig::new(ring(2));
        let mut node = RetherNode::new(cfg, MacAddr::from_index(1));
        let base = node.hold_budget();
        node.reserve_rt(5000);
        assert_eq!(node.hold_budget(), base + 5000);
    }
}
