//! The discrete-event queue.

use vw_packet::Frame;

use crate::heap::IndexedHeap;
use crate::id::{DeviceId, HandlerRef, PortRef};

/// The kinds of events the simulator processes.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// A frame finished crossing a link and arrives at a port.
    Arrive { to: PortRef, frame: Frame },
    /// A port finished serializing its in-flight frame.
    TxComplete { port: PortRef },
    /// A handler's timer fired: `handler` on `node` gets `on_timer(token)`.
    Timer {
        node: DeviceId,
        handler: HandlerRef,
        token: u64,
    },
    /// Deliver a start/poke callback to a handler.
    Start { node: DeviceId, handler: HandlerRef },
    /// A frame's next [`Hop`] on host `node`, due after a charge or an
    /// effect's delay.
    Hop {
        node: DeviceId,
        hop: Hop,
        frame: Frame,
    },
}

/// Where a frame goes next on a host: the one value `World::forward`
/// routes, now or through the queue.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Hop {
    /// Into hook `idx`'s `on_outbound`; past the last hook, out of the NIC
    /// as a host send.
    Outbound(u32),
    /// Into hook `next - 1`'s `on_inbound`; at 0, up to the protocols.
    Inbound(u32),
    /// Straight to the NIC, past the hooks left (`Context::transmit_raw`).
    Raw,
}

/// The event queue: earliest time first, FIFO within a timestamp.
///
/// Every pending event, handler timers included, is one cell of the
/// [`IndexedHeap`]. Most events are reserved and armed in one
/// [`push`](IndexedHeap::push). A timer's cell is
/// [reserved](IndexedHeap::reserve) when `Context::set_timer` hands out
/// its id and [armed](IndexedHeap::arm_with) when the world applies the
/// `SetTimer` effect, so a cancel takes the timer out of the heap on the
/// spot: a cancelled timer is never an event.
pub(crate) type EventQueue = IndexedHeap<EventKind>;

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet};

    use proptest::prelude::*;

    use super::*;
    use crate::id::TimerId;
    use crate::time::SimTime;

    fn start(node: usize) -> EventKind {
        EventKind::Start {
            node: DeviceId::from_index(node),
            handler: HandlerRef::Protocol(crate::id::ProtocolId::from_index(0)),
        }
    }

    fn timer(token: u64) -> EventKind {
        EventKind::Timer {
            node: DeviceId::from_index(0),
            handler: HandlerRef::Protocol(crate::id::ProtocolId::from_index(0)),
            token,
        }
    }

    /// A cell holds an `EventKind`; a frame and its hop fit in 40 bytes.
    #[test]
    fn an_event_is_at_most_40_bytes() {
        assert!(std::mem::size_of::<EventKind>() <= 40);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_nanos(30), start(3));
        q.push(SimTime::from_nanos(10), start(1));
        q.push(SimTime::from_nanos(20), start(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(time, _)| time.as_nanos())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn fifo_within_a_timestamp() {
        let mut q = EventQueue::default();
        for i in 0..10 {
            q.push(SimTime::from_nanos(5), start(i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, kind)| tag(&kind))
            .collect();
        assert_eq!(
            order,
            (0..10).collect::<Vec<_>>(),
            "same-time events must pop in insertion order"
        );
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q = EventQueue::default();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(7), start(0));
        q.push(SimTime::from_nanos(3), start(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    /// The contract's reference: one plain heap ordered by `(time, seq)`.
    /// A cancelled entry stays in the heap as a tombstone, and is skimmed
    /// off before it can reach the head: it is never popped, peeked or
    /// counted.
    #[derive(Default)]
    struct PlainHeap {
        heap: BinaryHeap<(Reverse<u64>, Reverse<u64>)>,
        /// Sequence numbers of the tombstones still in `heap`.
        cancelled: HashSet<u64>,
        next_seq: u64,
        /// Time of the most recent pop.
        now: u64,
    }

    impl PlainHeap {
        fn push(&mut self, time: u64) -> u64 {
            self.next_seq += 1;
            self.heap.push((Reverse(time), Reverse(self.next_seq)));
            self.next_seq
        }

        fn cancel(&mut self, seq: u64) {
            self.cancelled.insert(seq);
            self.skim();
        }

        fn skim(&mut self) {
            while let Some(&(_, Reverse(seq))) = self.heap.peek() {
                if !self.cancelled.remove(&seq) {
                    break;
                }
                self.heap.pop();
            }
        }

        fn len(&self) -> usize {
            self.heap.len() - self.cancelled.len()
        }

        fn peek_time(&self) -> Option<u64> {
            self.heap.peek().map(|&(Reverse(time), _)| time)
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            let (Reverse(time), Reverse(seq)) = self.heap.pop()?;
            self.now = time;
            self.skim();
            Some((time, seq))
        }
    }

    /// The number an event was tagged with: a start event's node, a
    /// timer's token. The property tags each event with its reference
    /// `seq`.
    fn tag(kind: &EventKind) -> u64 {
        match *kind {
            EventKind::Start { node, .. } => node.index() as u64,
            EventKind::Timer { token, .. } => token,
            _ => unreachable!("the tests push only starts and timers"),
        }
    }

    fn key(event: Option<(SimTime, EventKind)>) -> Option<(u64, u64)> {
        event.map(|(time, kind)| (time.as_nanos(), tag(&kind)))
    }

    /// Armed timers as `(seq, id)`, and the ids that fired or were cancelled.
    #[derive(Default)]
    struct Timers {
        live: Vec<(u64, TimerId)>,
        spent: Vec<TimerId>,
    }

    impl Timers {
        /// Passes a popped event's key through; if it was a timer, its id
        /// is spent.
        fn popped(&mut self, event: Option<(u64, u64)>) -> Option<(u64, u64)> {
            let (_, seq) = event?;
            if let Some(i) = self.live.iter().position(|l| l.0 == seq) {
                self.spent.push(self.live.swap_remove(i).1);
            }
            event
        }
    }

    /// Push offsets from the clock, one range per choice: zero, then
    /// ranges from 1 ns up to 2^40 ns (≈18 min), so deadlines near and far
    /// mix among plain events and timers alike.
    const OFFSET_BOUNDS: [u64; 7] = [0, 1, 1 << 19, 1 << 25, 1 << 31, 1 << 37, 1 << 40];

    proptest! {
        /// The indexed heap keeps a plain heap's semantics: whatever the
        /// interleaving of `push`, timer set and cancel, `pop` and
        /// `pop_at`, events leave in the `(time, seq)` order one plain
        /// heap gives, and a cancelled timer is neither popped, peeked
        /// nor counted. Cancels hit live timers, timers that already
        /// popped, timers already cancelled, and — a vacated cell being
        /// the next one reserved — ids whose cell has a new tenant, a
        /// plain event or a timer. Times are drawn at or after the time
        /// of the last pop: the world's clock is monotone.
        #[test]
        fn the_queue_pops_like_one_plain_heap(
            ops in proptest::collection::vec((0u8..10, 0usize..7, any::<u64>()), 1..300),
        ) {
            let at = SimTime::from_nanos;
            let mut q = EventQueue::default();
            let mut reference = PlainHeap::default();
            let mut last_pushed = 0;
            let mut timers = Timers::default();
            for (op, span, r) in ops {
                match op {
                    // Pushes: 0 and 1 plain events, 2 and 3 timers
                    // (reserved, then armed).
                    0..=3 => {
                        let time = match span {
                            6 => last_pushed.max(reference.now),
                            _ => {
                                let (lo, hi) = (OFFSET_BOUNDS[span], OFFSET_BOUNDS[span + 1]);
                                reference.now + lo + r % (hi - lo)
                            }
                        };
                        last_pushed = time;
                        let seq = reference.push(time);
                        if op < 2 {
                            q.push(at(time), start(seq as usize));
                        } else {
                            let id = q.reserve();
                            q.arm(id, at(time), timer(seq));
                            prop_assert!(
                                timers.live.iter().all(|l| l.1 != id),
                                "a live id handed out twice"
                            );
                            timers.live.push((seq, id));
                        }
                    }
                    4 => prop_assert_eq!(timers.popped(key(q.pop())), reference.pop()),
                    // `pop_at` pops exactly when the head is due at the
                    // time asked for, and leaves the queue alone otherwise.
                    5 => match reference.peek_time() {
                        Some(head) => {
                            let popped = q.pop_at(at(head)).map(|kind| (at(head), kind));
                            prop_assert_eq!(timers.popped(key(popped)), reference.pop())
                        }
                        None => prop_assert!(q.pop_at(at(reference.now)).is_none()),
                    },
                    6 => {
                        let miss = reference.peek_time().map_or(reference.now, |t| t + 1 + r % 1000);
                        prop_assert!(q.pop_at(at(miss)).is_none());
                    }
                    // Cancel a live timer: its cell is the next reserved.
                    7 | 8 if !timers.live.is_empty() => {
                        let (seq, id) = timers.live.swap_remove(r as usize % timers.live.len());
                        reference.cancel(seq);
                        q.cancel(id);
                        timers.spent.push(id);
                    }
                    // Cancel a spent id: nothing may change, whoever
                    // holds the cell now.
                    _ => {
                        if !timers.spent.is_empty() {
                            q.cancel(timers.spent[r as usize % timers.spent.len()]);
                        }
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.peek_time().map(|t| t.as_nanos()), reference.peek_time());
            }
            while let Some(expected) = reference.pop() {
                prop_assert_eq!(key(q.pop()), Some(expected));
            }
            prop_assert!(q.pop().is_none());
            prop_assert!(q.is_empty());
        }
    }
}
