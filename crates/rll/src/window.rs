//! The one ARQ core (automatic repeat request: resend until acknowledged)
//! under both reliable channels, as pure sans-IO state machines. The RLL
//! runs it as go-back-N (receiver window 1, resend all); the control plane
//! with a 1024-message reorder window, resending the oldest message only.

use std::collections::{vec_deque, VecDeque};

use vw_packet::Frame;

/// Sender half of an ARQ session with one peer: the sequence space, the
/// in-flight queue, the range-checked cumulative ack and the backlog.
///
/// Sequence numbers are 32-bit and monotonically increasing (no wrap
/// handling is needed at simulated-LAN lifetimes: 2³² frames at 100 Mb/s is
/// weeks of traffic).
#[derive(Debug)]
pub struct SenderWindow<T = Frame> {
    window: u32,
    base: u32,
    next_seq: u32,
    /// Unacknowledged items, `base..next_seq`, front = `base`.
    in_flight: VecDeque<T>,
    /// Items waiting for window space.
    backlog: VecDeque<T>,
    retries: u32,
}

/// A run of in-flight items with their consecutive sequence numbers, as
/// [`SenderWindow::on_ack`] and [`SenderWindow::on_timeout`] lend them.
#[derive(Debug, Clone)]
pub struct Sequenced<'a, T = Frame> {
    seq: u32,
    items: vec_deque::Iter<'a, T>,
}

impl<'a, T> Iterator for Sequenced<'a, T> {
    type Item = (u32, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.items.next()?;
        let seq = self.seq;
        self.seq = seq.wrapping_add(1);
        Some((seq, item))
    }
}

/// What the sender should do after an event.
#[derive(Debug, PartialEq, Eq)]
pub enum SendAction {
    /// Transmit the offered item, now [`in_flight`](SenderWindow::in_flight)
    /// under this sequence number.
    Transmit {
        /// Assigned sequence number.
        seq: u32,
    },
    /// Nothing to do right now.
    Nothing,
}

impl<T> SenderWindow<T> {
    /// Creates a sender with the given window size (in items).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u32) -> Self {
        assert!(window > 0, "window must be at least one frame");
        SenderWindow {
            window,
            base: 0,
            next_seq: 0,
            in_flight: VecDeque::new(),
            backlog: VecDeque::new(),
            retries: 0,
        }
    }

    /// Offers an item for transmission; the window keeps it either way.
    /// Returns the transmit action if the window has room, otherwise
    /// queues the item in the backlog.
    pub fn offer(&mut self, item: T) -> SendAction {
        if self.next_seq.wrapping_sub(self.base) < self.window {
            let seq = self.next_seq;
            self.next_seq = self.next_seq.wrapping_add(1);
            self.in_flight.push_back(item);
            SendAction::Transmit { seq }
        } else {
            self.backlog.push_back(item);
            SendAction::Nothing
        }
    }

    /// Handles a cumulative acknowledgment (`ack` = next seq the peer
    /// expects): slides the window and moves backlog into the freed room.
    /// An ack outside `base + 1..=next_seq` (stale, or forged past what
    /// was ever sent) changes nothing. Lends the items so released, each
    /// with its assigned sequence number.
    pub fn on_ack(&mut self, ack: u32) -> Sequenced<'_, T> {
        let before = self.next_seq;
        let outstanding = self.next_seq.wrapping_sub(self.base);
        let advance = ack.wrapping_sub(self.base);
        if advance != 0 && advance <= outstanding {
            self.in_flight.drain(..advance as usize);
            self.base = ack;
            self.retries = 0;
            while self.next_seq.wrapping_sub(self.base) < self.window {
                let Some(item) = self.backlog.pop_front() else {
                    break;
                };
                self.next_seq = self.next_seq.wrapping_add(1);
                self.in_flight.push_back(item);
            }
        }
        self.in_flight_from(before)
    }

    /// Lends every unacknowledged item, with sequence numbers, and counts
    /// the retry: go-back-N resends them all, head-of-line resend takes
    /// the first.
    pub fn on_timeout(&mut self) -> Sequenced<'_, T> {
        if !self.in_flight.is_empty() {
            self.retries += 1;
        }
        self.in_flight_from(self.base)
    }

    /// The unacknowledged item numbered `seq`, if there is one.
    pub fn in_flight(&self, seq: u32) -> Option<&T> {
        self.in_flight.get(seq.wrapping_sub(self.base) as usize)
    }

    /// The in-flight items numbered `first` and up.
    fn in_flight_from(&self, first: u32) -> Sequenced<'_, T> {
        Sequenced {
            seq: first,
            items: self
                .in_flight
                .range(first.wrapping_sub(self.base) as usize..),
        }
    }

    /// The oldest unacknowledged sequence number; while nothing is in
    /// flight, the next one to be assigned.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Consecutive timeouts since the last forward progress.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// `true` when nothing is awaiting acknowledgment.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Number of items in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Number of items waiting for window space.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Discards all state (give-up path after too many retries); the
    /// numbering goes on, so the peer must skip ([`ReceiverWindow::restart_at`]).
    pub fn reset(&mut self) -> usize {
        let lost = self.in_flight.len() + self.backlog.len();
        self.base = self.next_seq;
        self.in_flight.clear();
        self.backlog.clear();
        self.retries = 0;
        lost
    }
}

/// Receiver half of an ARQ session with one peer: exactly-once, in-order
/// delivery. Arrivals up to `window - 1` ahead of a gap wait in a reorder
/// buffer; older or further ones are discarded, which bounds the buffer
/// against a peer that jumps its sequence space.
#[derive(Debug, Default)]
pub struct ReceiverWindow<T = ()> {
    expected: u32,
    /// How far past `expected` an arrival may be buffered: `window - 1`.
    reach: u32,
    /// Slot `i` holds the arrival numbered `expected + i`: empty, or
    /// ending in a held item.
    pending: VecDeque<Option<T>>,
}

/// What the receiver decided about an arriving sequenced item. Every
/// outcome is acknowledged with the cumulative `ack`, the next sequence
/// number expected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvAction {
    /// In order: deliver it, and every buffered successor it unblocked.
    Deliver {
        /// Cumulative ack to send (next expected sequence).
        ack: u32,
    },
    /// Ahead of a gap, within the window: held until the gap fills.
    Buffered {
        /// Cumulative ack to send.
        ack: u32,
    },
    /// Duplicate, or beyond the window: discard, but re-acknowledge.
    AckOnly {
        /// Cumulative ack to send.
        ack: u32,
    },
}

impl ReceiverWindow {
    /// Creates a go-back-N receiver (window 1) expecting sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes an arriving DATA sequence number.
    pub fn on_data(&mut self, seq: u32) -> RecvAction {
        self.admit(seq, (), &mut Vec::new())
    }
}

impl<T> ReceiverWindow<T> {
    /// Creates a receiver expecting sequence 0 that buffers arrivals up to
    /// `window - 1` ahead of a gap (a window of 0 acts as 1).
    pub fn with_window(window: u32) -> Self {
        ReceiverWindow {
            expected: 0,
            reach: window.saturating_sub(1),
            pending: VecDeque::new(),
        }
    }

    /// Admits `item`, numbered `seq`. When it is the one expected, pushes
    /// it and every buffered successor it unblocks onto `out`, in sequence
    /// order.
    pub fn admit(&mut self, seq: u32, item: T, out: &mut Vec<T>) -> RecvAction {
        let ahead = seq.wrapping_sub(self.expected);
        if ahead == 0 {
            out.push(item);
            self.pending.pop_front();
            self.expected = self.expected.wrapping_add(1);
            while let Some(Some(_)) = self.pending.front() {
                out.extend(self.pending.pop_front().flatten());
                self.expected = self.expected.wrapping_add(1);
            }
            return RecvAction::Deliver { ack: self.expected };
        }
        let (ack, slot) = (self.expected, ahead as usize);
        if ahead > self.reach || self.pending.get(slot).is_some_and(Option::is_some) {
            return RecvAction::AckOnly { ack };
        }
        self.pending
            .resize_with(self.pending.len().max(slot + 1), || None);
        self.pending[slot] = Some(item);
        RecvAction::Buffered { ack }
    }

    /// Skips forward to `seq`, the sender having given up below it; a
    /// `seq` already passed is a stale copy and changes nothing.
    pub fn restart_at(&mut self, seq: u32) {
        let skip = seq.wrapping_sub(self.expected);
        if skip < 1 << 31 {
            self.pending.drain(..self.pending.len().min(skip as usize));
            self.expected = seq;
        }
    }

    /// The next sequence number the receiver expects: the cumulative ack.
    pub fn expected(&self) -> u32 {
        self.expected
    }

    /// `true` while buffered arrivals wait on a gap.
    pub fn has_gap(&self) -> bool {
        !self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vw_packet::{EthernetBuilder, MacAddr};

    fn frame(tag: u8) -> Frame {
        EthernetBuilder::new()
            .src(MacAddr::from_index(1))
            .dst(MacAddr::from_index(2))
            .payload(&[tag])
            .build()
    }

    #[test]
    fn offers_fill_window_then_backlog() {
        let mut s = SenderWindow::new(2);
        assert!(matches!(
            s.offer(frame(0)),
            SendAction::Transmit { seq: 0, .. }
        ));
        assert!(matches!(
            s.offer(frame(1)),
            SendAction::Transmit { seq: 1, .. }
        ));
        assert_eq!(s.offer(frame(2)), SendAction::Nothing);
        assert_eq!(s.in_flight_len(), 2);
        assert_eq!(s.backlog_len(), 1);
    }

    #[test]
    fn ack_slides_window_and_releases_backlog() {
        let mut s = SenderWindow::new(2);
        s.offer(frame(0));
        s.offer(frame(1));
        s.offer(frame(2));
        let released: Vec<u32> = s.on_ack(1).map(|(seq, _)| seq).collect();
        assert_eq!(released, vec![2]);
        assert_eq!(s.in_flight_len(), 2);
        assert!(s.backlog_len() == 0);
    }

    #[test]
    fn stale_and_wild_acks_ignored() {
        let mut s = SenderWindow::new(4);
        s.offer(frame(0));
        s.offer(frame(1));
        assert_eq!(s.on_ack(0).count(), 0); // no progress
        assert_eq!(s.on_ack(7).count(), 0); // beyond next_seq
        assert_eq!(s.on_ack(3).count(), 0); // one past next_seq
        assert_eq!(s.in_flight_len(), 2);
        s.on_ack(2);
        assert!(s.is_idle());
    }

    #[test]
    fn timeout_retransmits_all_in_flight() {
        let mut s = SenderWindow::new(4);
        s.offer(frame(0));
        s.offer(frame(1));
        s.offer(frame(2));
        let rt: Vec<u32> = s.on_timeout().map(|(seq, _)| seq).collect();
        assert_eq!(rt, vec![0, 1, 2]);
        assert_eq!(s.retries(), 1);
        s.on_timeout();
        assert_eq!(s.retries(), 2);
        s.on_ack(3);
        assert_eq!(s.retries(), 0);
        assert_eq!(s.on_timeout().count(), 0);
    }

    #[test]
    fn reset_discards_everything() {
        let mut s = SenderWindow::new(2);
        s.offer(frame(0));
        s.offer(frame(1));
        s.offer(frame(2));
        assert_eq!(s.reset(), 3);
        assert!(s.is_idle());
        // Sequence numbering continues from where it was.
        assert_eq!(s.base(), 2);
        assert!(matches!(
            s.offer(frame(3)),
            SendAction::Transmit { seq: 2, .. }
        ));
    }

    #[test]
    fn receiver_delivers_in_order_only() {
        let mut r = ReceiverWindow::new();
        assert_eq!(r.on_data(0), RecvAction::Deliver { ack: 1 });
        assert_eq!(r.on_data(2), RecvAction::AckOnly { ack: 1 });
        assert_eq!(r.on_data(0), RecvAction::AckOnly { ack: 1 });
        assert_eq!(r.on_data(1), RecvAction::Deliver { ack: 2 });
        assert_eq!(r.expected(), 2);
    }

    #[test]
    fn restart_skips_forward_only() {
        let mut r = ReceiverWindow::new();
        r.on_data(0);
        r.restart_at(5);
        assert_eq!(r.on_data(5), RecvAction::Deliver { ack: 6 });
        // A stale Restart (a copy from before) does not rewind.
        r.restart_at(5);
        assert_eq!(r.on_data(5), RecvAction::AckOnly { ack: 6 });
        // Skipping past buffered arrivals drops the ones skipped.
        let mut w = ReceiverWindow::with_window(8);
        let mut out = Vec::new();
        assert_eq!(w.admit(2, 'a', &mut out), RecvAction::Buffered { ack: 0 });
        assert_eq!(w.admit(4, 'b', &mut out), RecvAction::Buffered { ack: 0 });
        w.restart_at(3);
        assert_eq!(w.admit(3, 'c', &mut out), RecvAction::Deliver { ack: 5 });
        assert_eq!(out, ['c', 'b']);
        assert!(!w.has_gap());
    }

    /// One lossy, duplicating, reordering channel: each step hands on one
    /// queued item, or none.
    struct Channel<T>(VecDeque<T>);

    impl<T: Clone> Channel<T> {
        fn next(&mut self, rng: &mut impl rand::Rng, pct: [u32; 3]) -> Option<T> {
            let [loss, dup, reorder] = pct;
            let at = if rng.random_range(0..100u32) < reorder {
                rng.random_range(0..self.0.len().max(1))
            } else {
                0
            };
            let item = self.0.remove(at)?;
            if rng.random_range(0..100u32) < dup {
                self.0.push_back(item.clone());
            }
            (rng.random_range(0..100u32) >= loss).then_some(item)
        }
    }

    /// Drives a sender/receiver pair whose data and ack channels lose,
    /// duplicate and reorder, with a timeout whenever both have drained:
    /// every offered item must be delivered exactly once, in order.
    /// `resend_all` is go-back-N; otherwise only the oldest item is resent.
    fn arq_delivers_exactly_once_in_order(
        seed: u64,
        nitems: u32,
        pct: [u32; 3],
        window: u32,
        recv_window: u32,
        resend_all: bool,
    ) -> Result<(), TestCaseError> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut sender = SenderWindow::new(window);
        let mut receiver = ReceiverWindow::with_window(recv_window);
        let mut data = Channel(VecDeque::new());
        let mut acks = Channel(VecDeque::new());
        let mut delivered = Vec::new();
        let mut offered = 0;
        let mut steps = 0;
        while delivered.len() < nitems as usize {
            steps += 1;
            prop_assert!(steps < 100_000, "no progress: {delivered:?} of {nitems}");
            if offered < nitems {
                if let SendAction::Transmit { seq } = sender.offer(offered) {
                    data.0
                        .push_back((seq, *sender.in_flight(seq).expect("queued")));
                }
                offered += 1;
            }
            if let Some((seq, item)) = data.next(&mut rng, pct) {
                let (RecvAction::Deliver { ack }
                | RecvAction::Buffered { ack }
                | RecvAction::AckOnly { ack }) = receiver.admit(seq, item, &mut delivered);
                acks.0.push_back(ack);
            }
            if let Some(ack) = acks.next(&mut rng, pct) {
                data.0
                    .extend(sender.on_ack(ack).map(|(seq, &item)| (seq, item)));
            }
            if data.0.is_empty() && acks.0.is_empty() && !sender.is_idle() {
                let resend = sender.on_timeout().map(|(seq, &item)| (seq, item));
                data.0
                    .extend(resend.take(if resend_all { usize::MAX } else { 1 }));
            }
        }
        prop_assert_eq!(delivered, (0..nitems).collect::<Vec<_>>());
        prop_assert!(sender.is_idle() || !acks.0.is_empty() || !data.0.is_empty());
        Ok(())
    }

    proptest! {
        /// The RLL's mode: a receiver window of one frame, go-back-N.
        #[test]
        fn gbn_delivers_exactly_once_in_order(
            seed in any::<u64>(),
            nitems in 1u32..60,
            loss in 0u32..70,
            dup in 0u32..40,
            reorder in 0u32..40,
            window in 1u32..12,
        ) {
            arq_delivers_exactly_once_in_order(seed, nitems, [loss, dup, reorder], window, 1, true)?;
        }

        /// The control plane's mode: a 1024-message reorder window,
        /// head-of-line resend.
        #[test]
        fn reorder_window_delivers_exactly_once_in_order(
            seed in any::<u64>(),
            nitems in 1u32..60,
            loss in 0u32..70,
            dup in 0u32..40,
            reorder in 0u32..40,
        ) {
            arq_delivers_exactly_once_in_order(seed, nitems, [loss, dup, reorder], 1024, 1024, false)?;
        }

        /// The receiver's exactly-once, in-order contract: any
        /// interleaving of duplicated and reordered sequenced items
        /// yields the same delivered sequence as clean in-order delivery.
        #[test]
        fn interleavings_converge_to_in_order_delivery(
            n in 1u32..24,
            shuffle in proptest::collection::vec(any::<u32>(), 0..64),
            dup_mask in any::<u64>(),
        ) {
            // Build an arrival order: a shuffled copy of 0..n (driven by
            // the `shuffle` entropy) with some seqs delivered twice.
            let mut order: Vec<u32> = (0..n).collect();
            for (i, &s) in shuffle.iter().enumerate() {
                let a = i % order.len();
                let b = (s as usize) % order.len();
                order.swap(a, b);
            }
            let dups: Vec<u32> = order
                .iter()
                .enumerate()
                .filter(|(i, _)| dup_mask & (1 << (i % 64)) != 0)
                .map(|(_, &s)| s)
                .collect();
            order.extend(dups);

            let mut rx = ReceiverWindow::with_window(64);
            let mut delivered = Vec::new();
            for &seq in &order {
                let before = delivered.len();
                let action = rx.admit(seq, seq, &mut delivered);
                let released = delivered.len() - before;
                prop_assert_eq!(matches!(action, RecvAction::Deliver { .. }), released > 0);
            }
            // Every item delivered exactly once, in sequence order.
            prop_assert_eq!(&delivered, &(0..n).collect::<Vec<_>>());
            prop_assert_eq!(rx.expected(), n);
            prop_assert!(!rx.has_gap());
        }

        /// Duplicates are always suppressed: re-admitting any already
        /// delivered sequence number releases nothing.
        #[test]
        fn duplicates_release_nothing(n in 1u32..16, dup in 0u32..15) {
            let mut rx = ReceiverWindow::with_window(64);
            let mut out = Vec::new();
            for seq in 0..n {
                rx.admit(seq, seq, &mut out);
            }
            out.clear();
            if dup < n {
                let action = rx.admit(dup, dup, &mut out);
                prop_assert_eq!(action, RecvAction::AckOnly { ack: n });
                prop_assert!(out.is_empty());
            }
        }

        /// Items beyond the reorder window are refused, bounding buffer
        /// memory against a peer that jumps its sequence space.
        #[test]
        fn window_overflow_is_rejected(jump in 64u32..10_000) {
            let mut rx = ReceiverWindow::with_window(8);
            let mut out = Vec::new();
            let action = rx.admit(8 + jump, (), &mut out);
            prop_assert_eq!(action, RecvAction::AckOnly { ack: 0 });
            prop_assert!(out.is_empty());
            prop_assert!(!rx.has_gap());
        }
    }
}
