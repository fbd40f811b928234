//! Cross-node timeline merge.
//!
//! Each engine's flight recorder is a *local* causal log: events at one
//! node are totally ordered, but two nodes' logs only relate through the
//! control-plane messages that flowed between them. This module merges
//! per-node logs into one [`DistributedTimeline`] whose order is
//!
//! 1. **consistent with every node's local order** — a node's events
//!    appear in their canonical per-node order (see below);
//! 2. **consistent with happens-before** — every sequenced control
//!    message's [`ObsKind::ControlSent`] precedes the matching
//!    [`ObsKind::ControlDelivered`] at the peer, with retransmissions
//!    deduplicated to the *first* send of a sequence number;
//! 3. **deterministic** — ties are broken by `(time, node, local
//!    index)`, and the per-node canonical order is a pure function of
//!    the event *set*, so the merge is byte-stable under any
//!    permutation of the input stream.
//!
//! Property (3) is what makes the timeline safe to build from a
//! [`Report`]'s already-merged stream: filtering by node recovers each
//! engine's events in *some* order, and the canonical sort normalizes
//! that to a fixed total order before merging.

use std::collections::HashMap;

use virtualwire::Report;
use vw_fsl::{Dir, NodeId, Tables};
use vw_obs::{CausalChain, ObsEvent, ObsKind};

/// The causal rank of an event within one `(node, frame_seq)` cascade:
/// a delivered control message is what *starts* a control-driven
/// cascade, classification starts a packet-driven one, and the
/// counter → term → condition → action chain follows in the documented
/// order, with edge-triggered actions before level-gated packet faults
/// and outbound control last.
fn rank(kind: &ObsKind) -> u8 {
    match kind {
        ObsKind::ControlDelivered { .. } => 0,
        ObsKind::Classified { .. } => 1,
        ObsKind::CounterUpdated { .. } => 2,
        ObsKind::TermFlipped { .. } => 3,
        ObsKind::ConditionFired { .. } => 4,
        ObsKind::ActionTriggered { kind, .. } => {
            if kind.is_packet_fault() {
                6
            } else {
                5
            }
        }
        ObsKind::ControlSent { .. } => 7,
        ObsKind::PeerDegraded { .. } => 8,
        // Protocol state reported by the implementation under test sorts
        // after everything the engine recorded for the same ordinal.
        ObsKind::StateChanged { .. } => 9,
    }
}

/// Payload tie-break within one rank, so the canonical order is total.
fn id_key(kind: &ObsKind) -> (u32, u32, i64, i64) {
    match *kind {
        ObsKind::Classified { filter, dir, len } => (
            u32::from(filter.0),
            matches!(dir, Dir::Recv) as u32,
            i64::from(len),
            0,
        ),
        ObsKind::CounterUpdated { counter, old, new } => (u32::from(counter.0), 0, old, new),
        ObsKind::TermFlipped { term, status } => (u32::from(term.0), status as u32, 0, 0),
        ObsKind::ConditionFired { cond } => (u32::from(cond.0), 0, 0, 0),
        ObsKind::ActionTriggered { action, kind } => (u32::from(action.0), kind as u32, 0, 0),
        ObsKind::PeerDegraded { peer } => (u32::from(peer.0), 0, 0, 0),
        ObsKind::ControlSent {
            peer,
            peer_seq,
            ack,
        }
        | ObsKind::ControlDelivered {
            peer,
            peer_seq,
            ack,
        } => (u32::from(peer.0), peer_seq, i64::from(ack), 0),
        ObsKind::StateChanged { aspect, value } => (aspect.code(), 0, value as i64, 0),
    }
}

/// The canonical total order on one node's events: `frame_seq` is the
/// engine's own causal ordinal, time refines it, then the cascade rank,
/// then payload ids. A pure function of the event, so any permutation
/// of a node's stream sorts to the same sequence.
fn canonical_key(event: &ObsEvent) -> (u64, u64, u8, (u32, u32, i64, i64)) {
    (
        event.frame_seq,
        event.time.as_nanos(),
        rank(&event.kind),
        id_key(&event.kind),
    )
}

/// A globally ordered merge of per-node flight-recorder streams (see the
/// module docs for the order's three guarantees).
#[derive(Debug, Clone, Default)]
pub struct DistributedTimeline {
    nodes: Vec<NodeId>,
    events: Vec<ObsEvent>,
}

impl DistributedTimeline {
    /// Builds the timeline from a run's [`Report`].
    ///
    /// Empty when the run recorded nothing
    /// ([`ObsLevel::Off`](vw_obs::ObsLevel::Off)); without
    /// [`ObsLevel::Full`](vw_obs::ObsLevel::Full) there are no control
    /// events, so the merge degenerates to a per-node time sort.
    pub fn from_report(report: &Report) -> Self {
        Self::from_events(&report.events)
    }

    /// Builds the timeline from any collection of events, in any order:
    /// events are grouped by recording node, normalized to the canonical
    /// per-node order, and merged under happens-before.
    pub fn from_events(events: &[ObsEvent]) -> Self {
        let mut nodes: Vec<NodeId> = events.iter().map(|e| e.node).collect();
        nodes.sort();
        nodes.dedup();
        let mut streams: Vec<Vec<ObsEvent>> = vec![Vec::new(); nodes.len()];
        for event in events {
            let slot = nodes.binary_search(&event.node).expect("grouped");
            streams[slot].push(*event);
        }
        for stream in &mut streams {
            stream.sort_by_key(canonical_key);
        }
        Self::merge(nodes, streams)
    }

    /// K-way merge of canonically ordered per-node streams under the
    /// happens-before relation induced by sequenced control messages.
    fn merge(nodes: Vec<NodeId>, streams: Vec<Vec<ObsEvent>>) -> Self {
        // First send of each (sender, receiver, seq) triple — the event
        // every delivery of that sequence number causally descends from
        // (retransmissions carry the same triple and dedup to it).
        let mut first_sent: HashMap<(NodeId, NodeId, u32), (usize, usize)> = HashMap::new();
        for (slot, stream) in streams.iter().enumerate() {
            for (i, event) in stream.iter().enumerate() {
                if let ObsKind::ControlSent { peer, peer_seq, .. } = event.kind {
                    first_sent
                        .entry((event.node, peer, peer_seq))
                        .or_insert((slot, i));
                }
            }
        }
        // Happens-before dependency of each delivery: the matching send
        // must already be emitted. Deliveries without a recorded send
        // (truncated or doctored streams) carry no constraint.
        let mut deps: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
        for (slot, stream) in streams.iter().enumerate() {
            for (i, event) in stream.iter().enumerate() {
                if let ObsKind::ControlDelivered { peer, peer_seq, .. } = event.kind {
                    let sent = first_sent.get(&(peer, event.node, peer_seq));
                    if let Some(&(send_slot, send_i)) = sent {
                        if send_slot != slot || send_i < i {
                            deps.insert((slot, i), (send_slot, send_i));
                        }
                    }
                }
            }
        }

        let total: usize = streams.iter().map(Vec::len).sum();
        let mut events = Vec::with_capacity(total);
        let mut heads = vec![0usize; streams.len()];
        while events.len() < total {
            let mut best: Option<(u64, usize, usize)> = None;
            let mut fallback: Option<(u64, usize, usize)> = None;
            for (slot, stream) in streams.iter().enumerate() {
                let h = heads[slot];
                if h >= stream.len() {
                    continue;
                }
                let key = (stream[h].time.as_nanos(), slot, h);
                if fallback.is_none_or(|f| key < f) {
                    fallback = Some(key);
                }
                if let Some(&(send_slot, send_i)) = deps.get(&(slot, h)) {
                    if heads[send_slot] <= send_i {
                        continue; // the matching send is not emitted yet
                    }
                }
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            // `best` can only be None on doctored streams whose
            // dependencies form a cycle; fall back to the earliest head
            // so the merge always terminates.
            let (_, slot, h) = best.or(fallback).expect("events remain");
            events.push(streams[slot][h]);
            heads[slot] = h + 1;
        }
        DistributedTimeline { nodes, events }
    }

    /// The nodes that contributed events, ascending.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The merged events, in global order.
    pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.events.iter()
    }

    /// Number of merged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was merged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The causal chain of one `(node, frame_seq)` cascade, in global
    /// timeline order.
    pub fn chain(&self, node: NodeId, frame_seq: u64) -> CausalChain {
        CausalChain::extract(self.events(), node, frame_seq)
    }

    /// The cross-node causal slice behind one cascade: the cascade's own
    /// events plus, for each control delivery it consumed, the sender
    /// cascade that produced the matching first send — in global
    /// timeline order. This is the context an invariant violation
    /// embeds.
    pub fn causal_slice(&self, node: NodeId, frame_seq: u64) -> Vec<ObsEvent> {
        let mut frames: Vec<(NodeId, u64)> = vec![(node, frame_seq)];
        for delivery in self.chain(node, frame_seq).events {
            let ObsKind::ControlDelivered { peer, peer_seq, .. } = delivery.kind else {
                continue;
            };
            // The first matching send, in timeline order.
            if let Some(send) = self.events().find(|e| {
                e.node == peer
                    && matches!(
                        e.kind,
                        ObsKind::ControlSent { peer: p, peer_seq: q, .. }
                            if p == node && q == peer_seq
                    )
            }) {
                frames.push((send.node, send.frame_seq));
            }
        }
        self.events()
            .filter(|e| frames.contains(&(e.node, e.frame_seq)))
            .copied()
            .collect()
    }

    /// Multi-line human rendering, one event per line, each named from
    /// the run's `tables`.
    pub fn render(&self, tables: &Tables) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.render(tables));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_netsim::SimTime;

    fn ev(node: u16, frame_seq: u64, nanos: u64, kind: ObsKind) -> ObsEvent {
        ObsEvent {
            time: SimTime::from_nanos(nanos),
            node: NodeId(node),
            frame_seq,
            kind,
        }
    }

    fn sent(node: u16, seq: u64, nanos: u64, peer: u16, peer_seq: u32) -> ObsEvent {
        let kind = ObsKind::ControlSent {
            peer: NodeId(peer),
            peer_seq,
            ack: 0,
        };
        ev(node, seq, nanos, kind)
    }

    fn delivered(node: u16, seq: u64, nanos: u64, peer: u16, peer_seq: u32) -> ObsEvent {
        let kind = ObsKind::ControlDelivered {
            peer: NodeId(peer),
            peer_seq,
            ack: 0,
        };
        ev(node, seq, nanos, kind)
    }

    fn flipped(node: u16, seq: u64, nanos: u64, term: u16) -> ObsEvent {
        let (term, status) = (vw_fsl::TermId(term), true);
        ev(node, seq, nanos, ObsKind::TermFlipped { term, status })
    }

    #[test]
    fn happens_before_overrides_the_time_and_node_tiebreak() {
        // node1 sends seq 1 at t=10; node0 delivers it also at t=10. The
        // (time, node) tie-break alone would put node0's delivery first;
        // happens-before must force the send ahead of it.
        let events = [delivered(0, 4, 10, 1, 1), sent(1, 2, 10, 0, 1)];
        let tl = DistributedTimeline::from_events(&events);
        let kinds: Vec<&str> = tl.events().map(ObsEvent::kind_label).collect();
        assert_eq!(kinds, vec!["ctrl-sent", "ctrl-delivered"]);
    }

    #[test]
    fn retransmissions_dedup_to_the_first_send() {
        // Two sends of seq 1 (original + retransmit). The delivery must
        // wait only for the first; the retransmit sorts after by
        // frame_seq and does not deadlock the merge.
        let events = [
            sent(1, 2, 10, 0, 1),
            sent(1, 5, 40, 0, 1),
            delivered(0, 4, 20, 1, 1),
        ];
        let tl = DistributedTimeline::from_events(&events);
        let order: Vec<(u16, u64)> = tl.events().map(|e| (e.node.0, e.frame_seq)).collect();
        assert_eq!(order, vec![(1, 2), (0, 4), (1, 5)]);
    }

    #[test]
    fn merge_is_permutation_independent() {
        let events = [
            flipped(1, 1, 5, 0),
            sent(1, 1, 6, 0, 1),
            delivered(0, 3, 9, 1, 1),
            flipped(0, 3, 9, 0),
            flipped(0, 4, 12, 1),
        ];
        let tl = DistributedTimeline::from_events(&events);
        let mut shuffled = events;
        shuffled.reverse();
        shuffled.swap(0, 2);
        let tl2 = DistributedTimeline::from_events(&shuffled);
        let a: Vec<ObsEvent> = tl.events().copied().collect();
        let b: Vec<ObsEvent> = tl2.events().copied().collect();
        assert_eq!(a, b);
        // And each node keeps all of its events.
        assert_eq!(tl.events().filter(|e| e.node == NodeId(0)).count(), 3);
        assert_eq!(tl.nodes(), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn canonical_order_ranks_delivery_before_its_effects() {
        // Within one (node, frame_seq, time) cascade the delivery that
        // started it sorts first, then the term flip it caused.
        let events = [flipped(0, 3, 9, 0), delivered(0, 3, 9, 1, 1)];
        let tl = DistributedTimeline::from_events(&events);
        let kinds: Vec<&str> = tl.events().map(ObsEvent::kind_label).collect();
        assert_eq!(kinds, vec!["ctrl-delivered", "term"]);
    }

    #[test]
    fn orphan_delivery_does_not_deadlock() {
        // A delivery whose send was never recorded (doctored stream)
        // merges by time alone.
        let events = [delivered(0, 4, 20, 1, 1), flipped(1, 1, 5, 0)];
        let tl = DistributedTimeline::from_events(&events);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.events().next().unwrap().node, NodeId(1));
    }

    #[test]
    fn causal_slice_pulls_in_the_sender_cascade() {
        let events = [
            flipped(1, 2, 5, 0),
            sent(1, 2, 6, 0, 1),
            delivered(0, 3, 9, 1, 1),
            flipped(0, 3, 9, 1),
            flipped(0, 9, 30, 1),
        ];
        let tl = DistributedTimeline::from_events(&events);
        let slice = tl.causal_slice(NodeId(0), 3);
        let kinds: Vec<&str> = slice.iter().map(ObsEvent::kind_label).collect();
        assert_eq!(kinds, vec!["term", "ctrl-sent", "ctrl-delivered", "term"]);
    }
}
