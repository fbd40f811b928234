//! The discrete-event queue.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use vw_packet::Frame;

use crate::id::{DeviceId, HandlerRef, PortRef, TimerId};
use crate::time::SimTime;
use crate::timer_heap::TimerHeap;

/// The kinds of events the simulator processes.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// A frame finished crossing a link and arrives at a port.
    Arrive { to: PortRef, frame: Frame },
    /// A port finished serializing its in-flight frame.
    TxComplete { port: PortRef },
    /// A handler's timer fired.
    Timer(TimerFire),
    /// Deliver a start/poke callback to a handler.
    Start { node: DeviceId, handler: HandlerRef },
    /// Continue an outbound frame at hook index `idx` of `node`'s chain.
    OutboundChain {
        node: DeviceId,
        idx: usize,
        frame: Frame,
    },
    /// Continue an inbound frame; the next hook to visit is `next - 1`,
    /// and `next == 0` delivers to the protocol stack.
    InboundChain {
        node: DeviceId,
        next: usize,
        frame: Frame,
    },
}

/// What an armed timer delivers when it fires: `handler` on `node` gets
/// `on_timer(token)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimerFire {
    pub node: DeviceId,
    pub handler: HandlerRef,
    pub token: u64,
}

#[derive(Debug)]
pub(crate) struct Event {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    // Reverse ordering: the BinaryHeap is a max-heap, we want earliest
    // first, ties broken by insertion order for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue of events: earliest time first, FIFO
/// within a timestamp.
///
/// Internally three lanes share one sequence counter, so the merged pop
/// order is byte-identical to a single heap's:
///
/// - a **ready lane** (`VecDeque`) for events pushed at the queue's
///   current time — zero-delay injections land here with O(1) push/pop
///   instead of churning the heap (pushed times are nondecreasing because
///   the clock is monotone, so the front is always the lane's minimum);
/// - a **timer heap** for handler timers, which are numerous and almost
///   always cancelled before firing, and leave the timer heap when they
///   are — a cancelled timer is never an event (see [`TimerHeap`]);
/// - the **heap** for everything else in the future.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Event>,
    ready: VecDeque<Event>,
    timers: TimerHeap<TimerFire>,
    next_seq: u64,
    /// Time of the most recent pop: the queue's notion of "now", used to
    /// route at-or-before-now pushes into the ready lane.
    now: SimTime,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        self.next_seq += 1;
        let event = Event {
            time,
            seq: self.next_seq,
            kind,
        };
        if time <= self.now {
            self.ready.push_back(event);
        } else {
            self.heap.push(event);
        }
    }

    /// The timer heap: where `Context::set_timer` reserves the cell that
    /// [`arm_timer`](Self::arm_timer) fills in, and where a timer is
    /// cancelled.
    pub fn timers_mut(&mut self) -> &mut TimerHeap<TimerFire> {
        &mut self.timers
    }

    /// Arms the reserved timer `id` in the timer heap instead of pushing
    /// an event on the event heap. Pop order is unaffected (the lanes share
    /// the sequence counter); the timer can be cancelled in place. Every
    /// timer goes to the timer heap, a zero-delay one too, so every timer
    /// cancels the same way.
    pub fn arm_timer(&mut self, id: TimerId, time: SimTime, fire: TimerFire) {
        self.next_seq += 1;
        self.timers.arm(id, time, self.next_seq, fire);
    }

    /// Which lane holds the next event, by `(time, seq)`.
    fn min_lane(&self) -> Option<(Lane, SimTime)> {
        let mut best: Option<(Lane, SimTime, u64)> = None;
        if let Some(e) = self.ready.front() {
            best = Some((Lane::Ready, e.time, e.seq));
        }
        if let Some(e) = self.heap.peek() {
            if best.is_none_or(|(_, t, s)| (e.time, e.seq) < (t, s)) {
                best = Some((Lane::Heap, e.time, e.seq));
            }
        }
        if let Some((time, seq)) = self.timers.peek() {
            if best.is_none_or(|(_, t, s)| (time, seq) < (t, s)) {
                best = Some((Lane::Timers, time, seq));
            }
        }
        best.map(|(lane, t, _)| (lane, t))
    }

    fn pop_lane(&mut self, lane: Lane) -> Option<Event> {
        let event = match lane {
            Lane::Ready => self.ready.pop_front()?,
            Lane::Heap => self.heap.pop()?,
            Lane::Timers => {
                let (time, seq, fire) = self.timers.pop()?;
                let kind = EventKind::Timer(fire);
                Event { time, seq, kind }
            }
        };
        self.now = event.time;
        Some(event)
    }

    pub fn pop(&mut self) -> Option<Event> {
        let (lane, _) = self.min_lane()?;
        self.pop_lane(lane)
    }

    /// Pops the next event only if it is due at `time` exactly — the
    /// run loops use this to drain a whole timestamp batch after a single
    /// [`peek_time`](Self::peek_time). One lane scan per event.
    pub fn pop_at(&mut self, time: SimTime) -> Option<Event> {
        let (lane, t) = self.min_lane()?;
        if t != time {
            return None;
        }
        self.pop_lane(lane)
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.min_lane().map(|(_, t)| t)
    }

    pub fn len(&self) -> usize {
        self.heap.len() + self.ready.len() + self.timers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug, Clone, Copy)]
enum Lane {
    Ready,
    Heap,
    Timers,
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::HashSet;

    use proptest::prelude::*;

    use super::*;

    fn start(node: usize) -> EventKind {
        EventKind::Start {
            node: DeviceId::from_index(node),
            handler: HandlerRef::Protocol(crate::id::ProtocolId::from_index(0)),
        }
    }

    fn fire() -> TimerFire {
        TimerFire {
            node: DeviceId::from_index(0),
            handler: HandlerRef::Protocol(crate::id::ProtocolId::from_index(0)),
            token: 0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), start(3));
        q.push(SimTime::from_nanos(10), start(1));
        q.push(SimTime::from_nanos(20), start(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_nanos())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn fifo_within_a_timestamp() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::from_nanos(5), start(i));
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "same-time events must pop in insertion order");
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q = EventQueue::new();
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

    fn key(event: Option<Event>) -> Option<(u64, u64)> {
        event.map(|e| (e.time.as_nanos(), e.seq))
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

    /// Push offsets from the queue's `now`, one range per choice: zero
    /// (the ready lane), then ranges from 1 ns up to 2^40 ns (≈18 min), so
    /// deadlines near and far mix in every lane.
    const OFFSET_BOUNDS: [u64; 7] = [0, 1, 1 << 19, 1 << 25, 1 << 31, 1 << 37, 1 << 40];

    proptest! {
        /// The three lanes are an optimisation, not a semantics: whatever
        /// the interleaving of `push`, timer set and cancel, `pop` and
        /// `pop_at`, events leave in the `(time, seq)` order one plain
        /// heap gives, and a cancelled timer is neither popped, peeked
        /// nor counted. Cancels hit live timers, timers that already
        /// popped, timers already cancelled, and — a vacated cell being
        /// the next one reserved — ids whose cell has a new tenant.
        /// Times are drawn at or after `now`: the world's clock is
        /// monotone, and the ready lane's FIFO relies on it.
        #[test]
        fn lanes_pop_like_one_plain_heap(
            ops in proptest::collection::vec((0u8..10, 0usize..7, any::<u64>()), 1..300),
        ) {
            let at = SimTime::from_nanos;
            let mut q = EventQueue::new();
            let mut reference = PlainHeap::default();
            let mut last_pushed = 0;
            let mut timers = Timers::default();
            for (op, span, r) in ops {
                match op {
                    // Pushes: 0 and 1 through the ready lane or the heap,
                    // 2 and 3 through the wheel.
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
                            q.push(at(time), start(0));
                        } else {
                            let id = q.timers_mut().reserve();
                            q.arm_timer(id, at(time), fire());
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
                            prop_assert_eq!(timers.popped(key(q.pop_at(at(head)))), reference.pop())
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
                        q.timers_mut().cancel(id);
                        timers.spent.push(id);
                    }
                    // Cancel a spent id: nothing may change, whoever
                    // holds the cell now.
                    _ => {
                        if !timers.spent.is_empty() {
                            q.timers_mut().cancel(timers.spent[r as usize % timers.spent.len()]);
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
