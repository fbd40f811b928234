//! The capability handle passed to hooks and protocols during dispatch.

use std::net::Ipv4Addr;

use rand::rngs::StdRng;

use vw_packet::{Frame, MacAddr};

use crate::event::EventQueue;
use crate::id::{DeviceId, HandlerRef, TimerId};
use crate::time::{SimDuration, SimTime};

/// A deferred side effect collected during a handler call and applied by the
/// [`World`](crate::World) afterwards.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Send a frame toward the wire: from a protocol into the chain's
    /// stack end, from a hook on past it.
    Send { frame: Frame, after: SimDuration },
    /// Deliver a frame toward the protocol stack (hooks only).
    DeliverUp { frame: Frame, after: SimDuration },
    /// Hand a frame straight to the NIC, bypassing the remaining chain.
    TransmitRaw { frame: Frame, after: SimDuration },
    /// Arm a timer: `handler` on the dispatched node gets
    /// `on_timer(token)` at `at`.
    SetTimer {
        id: TimerId,
        at: SimTime,
        handler: HandlerRef,
        token: u64,
    },
    /// Disarm a previously set timer.
    CancelTimer(TimerId),
    /// Ask the world to stop the run (the `STOP` action).
    RequestStop { reason: String },
}

/// Execution context handed to [`Hook`](crate::Hook) and
/// [`Protocol`](crate::Protocol) callbacks.
///
/// All mutations requested through a `Context` are collected as effects and
/// applied by the world after the callback returns, in the order they were
/// requested, which keeps dispatch free of re-entrancy.
///
/// # Processing cost
///
/// [`charge`](Context::charge) models CPU time spent handling the current
/// frame (the paper's Section 7 measures exactly this: per-packet latency
/// added by filter matching, table updates, and RLL processing). Charged
/// time delays both the continuation of the frame along the chain and every
/// effect emitted afterwards.
pub struct Context<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: DeviceId,
    pub(crate) mac: MacAddr,
    pub(crate) ip: Ipv4Addr,
    pub(crate) handler: HandlerRef,
    pub(crate) rng: &'a mut StdRng,
    /// Where [`set_timer`](Context::set_timer) reserves the timer's cell.
    pub(crate) queue: &'a mut EventQueue,
    /// The world's effect stack; this callback's effects go on top.
    pub(crate) effects: &'a mut Vec<Option<Effect>>,
    pub(crate) charged: SimDuration,
}

impl<'a> Context<'a> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The device this handler runs on.
    pub fn node(&self) -> DeviceId {
        self.node
    }

    /// This host's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// This host's IPv4 address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// The world's deterministic random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    fn push(&mut self, effect: Effect) {
        self.effects.push(Some(effect));
    }

    /// Sends a frame toward the wire.
    ///
    /// From a protocol, the frame enters the hook chain at the stack end
    /// (so installed fault injectors see it). From a hook, it continues
    /// wire-ward from that hook — a hook never re-processes its own output.
    pub fn send(&mut self, frame: Frame) {
        let after = self.charged;
        self.push(Effect::Send { frame, after });
    }

    /// Delivers a frame toward the protocol stack, continuing stack-ward
    /// from the calling hook. Used by the RLL to hand up decapsulated
    /// frames and by the FIE to release a delayed inbound packet without
    /// re-classifying it.
    pub fn deliver_up(&mut self, frame: Frame) {
        let after = self.charged;
        self.push(Effect::DeliverUp { frame, after });
    }

    /// Hands a frame straight to the NIC transmit queue, bypassing all
    /// remaining hooks (link-level messages such as RLL acknowledgments).
    pub fn transmit_raw(&mut self, frame: Frame) {
        let after = self.charged;
        self.push(Effect::TransmitRaw { frame, after });
    }

    /// Arms a timer that will call this handler's `on_timer` with `token`
    /// after `delay`. Returns an id usable with
    /// [`cancel_timer`](Context::cancel_timer).
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let id = self.queue.reserve();
        self.push(Effect::SetTimer {
            id,
            at: self.now.saturating_add(self.charged.saturating_add(delay)),
            handler: self.handler,
            token,
        });
        id
    }

    /// Disarms a pending timer. Cancelling an already-fired timer is a
    /// harmless no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.push(Effect::CancelTimer(id));
    }

    /// Records simulated CPU time spent processing the current frame. The
    /// charge delays the frame's continuation and all subsequently emitted
    /// effects.
    pub fn charge(&mut self, cost: SimDuration) {
        self.charged = self.charged.saturating_add(cost);
    }

    /// Total time charged so far in this callback.
    pub fn charged(&self) -> SimDuration {
        self.charged
    }

    /// Requests that the whole simulation stop (the FSL `STOP` action).
    pub fn request_stop(&mut self, reason: impl Into<String>) {
        self.push(Effect::RequestStop {
            reason: reason.into(),
        });
    }
}
