//! Pure sliding-window state machines (go-back-N), independent of the
//! simulator so they can be tested exhaustively.

use std::collections::{vec_deque, VecDeque};

use vw_packet::Frame;

/// Sender half of a go-back-N ARQ session with one peer.
///
/// Sequence numbers are 32-bit and monotonically increasing (no wrap
/// handling is needed at simulated-LAN lifetimes: 2³² frames at 100 Mb/s is
/// weeks of traffic).
#[derive(Debug)]
pub struct SenderWindow {
    window: u32,
    base: u32,
    next_seq: u32,
    /// Unacknowledged inner frames, `base..next_seq`, front = `base`.
    in_flight: VecDeque<Frame>,
    /// Frames waiting for window space.
    backlog: VecDeque<Frame>,
    retries: u32,
}

/// A run of in-flight frames with their consecutive sequence numbers, as
/// [`SenderWindow::on_ack`] and [`SenderWindow::on_timeout`] lend them.
#[derive(Debug, Clone)]
pub struct Sequenced<'a> {
    seq: u32,
    frames: vec_deque::Iter<'a, Frame>,
}

impl<'a> Iterator for Sequenced<'a> {
    type Item = (u32, &'a Frame);

    fn next(&mut self) -> Option<Self::Item> {
        let frame = self.frames.next()?;
        let seq = self.seq;
        self.seq = seq.wrapping_add(1);
        Some((seq, frame))
    }
}

/// What the sender should do after an event.
#[derive(Debug, PartialEq, Eq)]
pub enum SendAction {
    /// Transmit the offered frame, now [`in_flight`](SenderWindow::in_flight)
    /// under this sequence number.
    Transmit {
        /// Assigned sequence number.
        seq: u32,
    },
    /// Nothing to do right now.
    Nothing,
}

impl SenderWindow {
    /// Creates a sender with the given window size (in frames).
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

    /// Offers a frame for transmission; the window keeps it either way.
    /// Returns the transmit action if the window has room, otherwise
    /// queues the frame in the backlog.
    pub fn offer(&mut self, frame: Frame) -> SendAction {
        if self.next_seq.wrapping_sub(self.base) < self.window {
            let seq = self.next_seq;
            self.next_seq = self.next_seq.wrapping_add(1);
            self.in_flight.push_back(frame);
            SendAction::Transmit { seq }
        } else {
            self.backlog.push_back(frame);
            SendAction::Nothing
        }
    }

    /// Handles a cumulative acknowledgment (`ack` = next seq the peer
    /// expects): slides the window and moves backlog into the freed room.
    /// Lends the frames so released, each with its assigned sequence number.
    pub fn on_ack(&mut self, ack: u32) -> Sequenced<'_> {
        let before = self.next_seq;
        // Acks outside the sensible range change nothing.
        let outstanding = self.next_seq.wrapping_sub(self.base);
        let advance = ack.wrapping_sub(self.base);
        if advance != 0 && advance <= outstanding {
            for _ in 0..advance {
                self.in_flight.pop_front();
            }
            self.base = ack;
            self.retries = 0;
            while self.next_seq.wrapping_sub(self.base) < self.window {
                let Some(frame) = self.backlog.pop_front() else {
                    break;
                };
                self.next_seq = self.next_seq.wrapping_add(1);
                self.in_flight.push_back(frame);
            }
        }
        self.in_flight_from(before)
    }

    /// Lends every unacknowledged frame (for a go-back-N timeout
    /// retransmission), with sequence numbers, and counts the retry.
    pub fn on_timeout(&mut self) -> Sequenced<'_> {
        if !self.in_flight.is_empty() {
            self.retries += 1;
        }
        self.in_flight_from(self.base)
    }

    /// The unacknowledged frame numbered `seq`, if there is one.
    pub fn in_flight(&self, seq: u32) -> Option<&Frame> {
        self.in_flight.get(seq.wrapping_sub(self.base) as usize)
    }

    /// The in-flight frames numbered `first` and up.
    fn in_flight_from(&self, first: u32) -> Sequenced<'_> {
        Sequenced {
            seq: first,
            frames: self
                .in_flight
                .range(first.wrapping_sub(self.base) as usize..),
        }
    }

    /// Consecutive timeouts since the last forward progress.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// `true` when nothing is awaiting acknowledgment.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Number of frames in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Number of frames waiting for window space.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Discards all state (give-up path after too many retries).
    pub fn reset(&mut self) -> usize {
        let lost = self.in_flight.len() + self.backlog.len();
        self.base = self.next_seq;
        self.in_flight.clear();
        self.backlog.clear();
        self.retries = 0;
        lost
    }
}

/// Receiver half of a go-back-N session with one peer.
#[derive(Debug, Default)]
pub struct ReceiverWindow {
    expected: u32,
}

/// What the receiver decided about an arriving DATA frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvAction {
    /// In-order frame: deliver it up, then acknowledge `ack`.
    Deliver {
        /// Cumulative ack to send (next expected sequence).
        ack: u32,
    },
    /// Duplicate or out-of-order: discard, but re-acknowledge `ack`.
    AckOnly {
        /// Cumulative ack to send.
        ack: u32,
    },
}

impl ReceiverWindow {
    /// Creates a receiver expecting sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes an arriving DATA sequence number.
    pub fn on_data(&mut self, seq: u32) -> RecvAction {
        if seq == self.expected {
            self.expected = self.expected.wrapping_add(1);
            RecvAction::Deliver { ack: self.expected }
        } else {
            RecvAction::AckOnly { ack: self.expected }
        }
    }

    /// The next sequence number the receiver expects.
    pub fn expected(&self) -> u32 {
        self.expected
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

    proptest! {
        /// Drive a sender/receiver pair through a randomly lossy channel
        /// with randomized retransmission timing; every offered frame must
        /// be delivered exactly once, in order.
        #[test]
        fn gbn_delivers_exactly_once_in_order(
            seed in any::<u64>(),
            nframes in 1usize..60,
            loss_pct in 0u32..70,
            window in 1u32..12,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut sender = SenderWindow::new(window);
            let mut receiver = ReceiverWindow::new();
            let mut wire: VecDeque<(u32, Frame)> = VecDeque::new(); // data channel
            let mut acks: VecDeque<u32> = VecDeque::new();          // ack channel
            let mut delivered: Vec<u8> = Vec::new();
            let mut offered = 0usize;

            let mut steps = 0;
            while delivered.len() < nframes {
                steps += 1;
                prop_assert!(steps < 100_000, "no progress: {} of {}", delivered.len(), nframes);
                // Offer new frames while any remain.
                if offered < nframes {
                    if let SendAction::Transmit { seq } = sender.offer(frame(offered as u8)) {
                        let queued = sender.in_flight(seq).expect("offer queued it");
                        wire.push_back((seq, queued.clone()));
                    }
                    offered += 1;
                }
                // Channel: deliver or lose the head-of-line data frame.
                if let Some((seq, _frame)) = wire.pop_front() {
                    if rng.random_range(0..100u32) >= loss_pct {
                        match receiver.on_data(seq) {
                            RecvAction::Deliver { ack } => {
                                delivered.push(seq as u8);
                                acks.push_back(ack);
                            }
                            RecvAction::AckOnly { ack } => acks.push_back(ack),
                        }
                    }
                }
                // Ack channel: also lossy.
                if let Some(ack) = acks.pop_front() {
                    if rng.random_range(0..100u32) >= loss_pct {
                        for (seq, f) in sender.on_ack(ack) {
                            wire.push_back((seq, f.clone()));
                        }
                    }
                }
                // Periodic timeout when the pipe has drained.
                if wire.is_empty() && acks.is_empty() && !sender.is_idle() {
                    for (seq, f) in sender.on_timeout() {
                        wire.push_back((seq, f.clone()));
                    }
                }
            }
            // Exactly once, in order.
            let expect: Vec<u8> = (0..nframes as u8).collect();
            prop_assert_eq!(delivered, expect);
        }
    }
}
