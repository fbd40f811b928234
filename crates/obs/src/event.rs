//! The typed event stream behind the flight recorder.
//!
//! Every engine decision point appends one [`ObsEvent`] to its engine's
//! event `Vec` when the recorder is enabled. Events are plain `Copy`
//! records built from table ids — recording never formats or allocates
//! beyond that `Vec`'s growth, and an [`ObsLevel::Off`] recorder is a
//! single enum compare on the hot path.
//!
//! Every event carries the engine's monotone `frame_seq` (the ordinal of
//! the classification that triggered the cascade), which is what lets a
//! flagged error or injected fault be unwound into its full causal chain:
//! `Classified → CounterUpdated → TermFlipped → ConditionFired →
//! ActionTriggered` (see [`CausalChain`]).
//!
//! Events hold table ids, not names: the renders name nodes, filters and
//! counters from the run's compiled [`Tables`] (a report's `symbols` is
//! the run's own handle on them).

use std::fmt;

use vw_fsl::{
    ActionId, CompiledActionKind, CondId, CounterId, Dir, Fault, FilterId, NodeId, Tables, TermId,
};
use vw_netsim::SimTime;

/// How much the flight recorder captures.
///
/// The contract is *zero cost when off*: engines compare the level before
/// building an event, so `Off` adds exactly one predictable branch per
/// decision point and never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ObsLevel {
    /// Record nothing (the default; benchmarks run here).
    #[default]
    Off,
    /// Record only fault-relevant events: fired conditions and triggered
    /// actions.
    Faults,
    /// Record the full causal stream, including per-packet classification,
    /// counter updates and term flips.
    Full,
}

impl ObsLevel {
    /// `true` if fault events (conditions, actions) are recorded.
    #[inline]
    pub fn faults(self) -> bool {
        self >= ObsLevel::Faults
    }

    /// `true` if the full causal stream is recorded.
    #[inline]
    pub fn full(self) -> bool {
        self == ObsLevel::Full
    }
}

/// The keyword a render spells for an action of this kind: the Table II
/// fault's name, `FAIL`, `STOP`, `FLAG_ERR`, or `COUNTER_OP` for every
/// Table I counter-manipulation action.
pub fn action_label(kind: &CompiledActionKind) -> &'static str {
    match kind {
        CompiledActionKind::Counter { .. } => "COUNTER_OP",
        CompiledActionKind::Fault { fault, .. } => match fault {
            Fault::Drop => "DROP",
            Fault::Dup => "DUP",
            Fault::Delay { .. } => "DELAY",
            Fault::Reorder { .. } => "REORDER",
            Fault::Modify(_) => "MODIFY",
        },
        CompiledActionKind::Fail { .. } => "FAIL",
        CompiledActionKind::Stop => "STOP",
        CompiledActionKind::FlagError { .. } => "FLAG_ERR",
    }
}

/// Which protocol-internal quantity a [`ObsKind::StateChanged`] reports.
///
/// The TCP aspects are fed by `vw-tcpstack` (congestion-control phase,
/// window evolution, loss recovery); the token aspects by `vw-rether`
/// (token circulation and recovery). The conformance models in
/// `vw-analysis` consume exactly this alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtoAspect {
    /// TCP congestion-control phase changed; value is the new phase
    /// (0 = slow start, 1 = congestion avoidance, 2 = fast recovery).
    CcPhase,
    /// TCP congestion window changed; value is the new `cwnd` in bytes.
    Cwnd,
    /// TCP slow-start threshold changed; value is the new `ssthresh`.
    Ssthresh,
    /// TCP performed a fast retransmit; value is the running total.
    FastRetransmit,
    /// TCP's retransmission timer expired; value is the running total.
    RtoTimeout,
    /// A Rether token was accepted; value is the token's generation.
    TokenReceived,
    /// A Rether token was passed downstream; value is its generation.
    TokenPassed,
    /// The downstream node acknowledged the token; value is the
    /// generation.
    TokenAcked,
    /// The token was retransmitted after an ack timeout; value is the
    /// send count so far (first retransmission reports 2).
    TokenRetransmit,
    /// The ring was reconstructed around a dead member; value is the
    /// surviving ring size.
    RingReconfigured,
    /// A lost token was regenerated after ring-wide silence; value is
    /// the new generation.
    TokenRegenerated,
}

impl ProtoAspect {
    /// A short machine-checkable label (used in renders and conformance
    /// verdict messages).
    pub fn label(self) -> &'static str {
        match self {
            ProtoAspect::CcPhase => "cc-phase",
            ProtoAspect::Cwnd => "cwnd",
            ProtoAspect::Ssthresh => "ssthresh",
            ProtoAspect::FastRetransmit => "fast-retransmit",
            ProtoAspect::RtoTimeout => "rto-timeout",
            ProtoAspect::TokenReceived => "token-received",
            ProtoAspect::TokenPassed => "token-passed",
            ProtoAspect::TokenAcked => "token-acked",
            ProtoAspect::TokenRetransmit => "token-retransmit",
            ProtoAspect::RingReconfigured => "ring-reconfigured",
            ProtoAspect::TokenRegenerated => "token-regenerated",
        }
    }
}

impl fmt::Display for ProtoAspect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One record in the flight recorder's causal event stream: who recorded
/// it, when, and for which classification, plus what happened. `Copy`, so
/// recording is allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// When the event happened.
    pub time: SimTime,
    /// The node whose engine recorded the event.
    pub node: NodeId,
    /// The engine's monotone classification ordinal the event is causally
    /// tied to (0 for a protocol state change, which no classification
    /// caused).
    pub frame_seq: u64,
    /// What happened.
    pub kind: ObsKind,
}

/// What an [`ObsEvent`] records. The variants mirror the Figure 4(b)
/// packet path in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsKind {
    /// A frame matched a filter-table entry.
    Classified {
        /// The filter that matched (first match wins).
        filter: FilterId,
        /// Packet direction at this engine.
        dir: Dir,
        /// Frame length in bytes.
        len: u32,
    },
    /// A counter changed value (packet-counter bump, control-plane update,
    /// or a counter-manipulation action).
    CounterUpdated {
        /// Which counter.
        counter: CounterId,
        /// Value before.
        old: i64,
        /// Value after.
        new: i64,
    },
    /// A term's truth value flipped.
    TermFlipped {
        /// Which term.
        term: TermId,
        /// Its new status.
        status: bool,
    },
    /// A condition transitioned from false to true.
    ConditionFired {
        /// Which condition.
        cond: CondId,
    },
    /// An action ran — an edge-triggered Table I action or a level-gated
    /// Table II fault applied to a concrete packet.
    /// Its kind is the action table's ([`ObsEvent::action_kind`]).
    ActionTriggered {
        /// Which action-table entry.
        action: ActionId,
    },
    /// A peer's sequenced control-plane updates went stale: its remote
    /// terms were frozen at last-known status and a diagnostic flagged.
    /// The recording node is the one doing the freezing.
    PeerDegraded {
        /// The stale peer.
        peer: NodeId,
    },
    /// A sequenced control-plane message left this node (first send or
    /// retransmission). Together with [`ObsKind::ControlDelivered`] at
    /// the peer, the `(node, peer, seq)` triple forms one happens-before
    /// edge of the distributed timeline.
    ControlSent {
        /// The destination node.
        peer: NodeId,
        /// The message's sequence number in the per-peer stream (>0).
        peer_seq: u32,
        /// The cumulative ack piggybacked on the frame.
        ack: u32,
    },
    /// A sequenced control-plane message was admitted in-order and
    /// applied at this node (reorder-buffered releases included; dups and
    /// rejects never record).
    ControlDelivered {
        /// The originating node.
        peer: NodeId,
        /// The delivered message's sequence number in the peer's stream.
        peer_seq: u32,
        /// The cumulative ack carried by the frame that completed
        /// delivery.
        ack: u32,
    },
    /// A protocol implementation under test reported an internal state
    /// change (congestion-control phase, token circulation, …). No engine
    /// records one: the protocol's own state log is the record, and
    /// `vw_analysis::state_events` renders a log in this form on demand.
    StateChanged {
        /// Which protocol quantity changed.
        aspect: ProtoAspect,
        /// The new value (aspect-specific encoding).
        value: u64,
    },
}

impl ObsEvent {
    /// A short machine-checkable label for the kind.
    pub fn kind_label(&self) -> &'static str {
        match self.kind {
            ObsKind::Classified { .. } => "classified",
            ObsKind::CounterUpdated { .. } => "counter",
            ObsKind::TermFlipped { .. } => "term",
            ObsKind::ConditionFired { .. } => "condition",
            ObsKind::ActionTriggered { .. } => "action",
            ObsKind::PeerDegraded { .. } => "degraded",
            ObsKind::ControlSent { .. } => "ctrl-sent",
            ObsKind::ControlDelivered { .. } => "ctrl-delivered",
            ObsKind::StateChanged { .. } => "state",
        }
    }

    /// The kind of the action an [`ObsKind::ActionTriggered`] names, read
    /// from the run's `tables`; `None` for any other event, and for an id
    /// the tables do not hold (a doctored stream).
    pub fn action_kind<'t>(&self, tables: &'t Tables) -> Option<&'t CompiledActionKind> {
        let ObsKind::ActionTriggered { action } = self.kind else {
            return None;
        };
        tables.actions.get(action.index()).map(|a| &a.kind)
    }

    /// One-line human rendering, naming ids from the run's `tables`; an
    /// action the tables do not hold renders its kind as `?`.
    pub fn render(&self, tables: &Tables) -> String {
        let tail = match self.kind {
            ObsKind::Classified { filter, dir, len } => {
                format!(
                    "classified as {} ({dir:?}, {len} B)",
                    tables.filter_name(filter)
                )
            }
            ObsKind::CounterUpdated { counter, old, new } => {
                format!("counter {} {old} -> {new}", tables.counter_name(counter))
            }
            ObsKind::TermFlipped { term, status } => format!("term#{} -> {status}", term.index()),
            ObsKind::ConditionFired { cond } => format!("condition#{} fired", cond.index()),
            ObsKind::ActionTriggered { action } => format!(
                "action#{} {} triggered",
                action.index(),
                self.action_kind(tables).map_or("?", action_label)
            ),
            ObsKind::PeerDegraded { peer } => format!(
                "peer {} stale: remote terms frozen at last-known status",
                tables.node_name(peer)
            ),
            ObsKind::ControlSent {
                peer,
                peer_seq,
                ack,
            } => format!(
                "control seq {peer_seq} (ack {ack}) -> {}",
                tables.node_name(peer)
            ),
            ObsKind::ControlDelivered {
                peer,
                peer_seq,
                ack,
            } => format!(
                "control seq {peer_seq} (ack {ack}) delivered from {}",
                tables.node_name(peer)
            ),
            ObsKind::StateChanged { aspect, value } => format!("state {aspect} -> {value}"),
        };
        format!(
            "{} {} #{} {tail}",
            self.time,
            tables.node_name(self.node),
            self.frame_seq
        )
    }
}

/// The causal chain of one classification: every event a single frame's
/// processing produced at one node, in causal order.
#[derive(Debug, Clone)]
pub struct CausalChain {
    /// The node whose engine produced the chain.
    pub node: NodeId,
    /// The classification ordinal shared by every event in the chain.
    pub frame_seq: u64,
    /// The chain events, in recording (= causal) order.
    pub events: Vec<ObsEvent>,
}

impl CausalChain {
    /// Extracts the chain for `(node, frame_seq)` from an event stream,
    /// keeping the stream's order. Every view of "one frame's cascade"
    /// (report, timeline, script verdict) is this filter.
    pub fn extract<'a>(
        events: impl IntoIterator<Item = &'a ObsEvent>,
        node: NodeId,
        frame_seq: u64,
    ) -> Self {
        CausalChain {
            node,
            frame_seq,
            events: events
                .into_iter()
                .filter(|e| e.node == node && e.frame_seq == frame_seq)
                .copied()
                .collect(),
        }
    }

    /// The variant labels, in order — convenient for asserting the
    /// documented `classified → counter → term → condition → action`
    /// shape in tests.
    pub fn kind_labels(&self) -> Vec<&'static str> {
        self.events.iter().map(ObsEvent::kind_label).collect()
    }

    /// Multi-line human rendering, one event per line, ids named from
    /// the run's `tables`.
    pub fn render(&self, tables: &Tables) -> String {
        let mut out = String::new();
        for (i, event) in self.events.iter().enumerate() {
            let connector = if i == 0 { "┌" } else { "└─▶" };
            out.push_str(&format!("  {connector} {}\n", event.render(tables)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: u16, seq: u64, t: u64) -> ObsEvent {
        ObsEvent {
            time: SimTime::from_nanos(t),
            node: NodeId(node),
            frame_seq: seq,
            kind: ObsKind::ConditionFired { cond: CondId(0) },
        }
    }

    #[test]
    fn level_ordering_and_gates() {
        assert!(ObsLevel::Off < ObsLevel::Faults);
        assert!(ObsLevel::Faults < ObsLevel::Full);
        assert!(!ObsLevel::Off.faults());
        assert!(ObsLevel::Faults.faults());
        assert!(!ObsLevel::Faults.full());
        assert!(ObsLevel::Full.faults() && ObsLevel::Full.full());
        assert_eq!(ObsLevel::default(), ObsLevel::Off);
    }

    #[test]
    fn chain_extraction_filters_by_node_and_seq() {
        let events = [ev(0, 3, 10), ev(1, 3, 11), ev(0, 4, 12), ev(0, 3, 13)];
        let chain = CausalChain::extract(&events, NodeId(0), 3);
        assert_eq!(chain.events.len(), 2);
        assert!(chain
            .events
            .iter()
            .all(|e| e.node == NodeId(0) && e.frame_seq == 3));
        assert_eq!(chain.kind_labels(), vec!["condition", "condition"]);
    }

    /// Tables naming nodes `node1` and `node2`, filter `udp_data` and
    /// counter `Sent`.
    fn tables() -> vw_fsl::TableSet {
        let program = vw_fsl::parse(
            "FILTER_TABLE
            udp_data: (23 1 0x11)
            END
            NODE_TABLE
            node1 02:00:00:00:00:01 10.0.0.1
            node2 02:00:00:00:00:02 10.0.0.2
            END
            SCENARIO Names
            Sent: (udp_data, node1, node2, SEND)
            (TRUE) >> ENABLE_CNTR(Sent);
            END",
        )
        .expect("parses");
        vw_fsl::compile(&program).expect("compiles").remove(0)
    }

    #[test]
    fn rendering_resolves_symbols_with_fallback() {
        let tables = tables();
        let e = ObsEvent {
            time: SimTime::ZERO,
            node: NodeId(0),
            frame_seq: 1,
            kind: ObsKind::Classified {
                filter: FilterId(0),
                dir: Dir::Send,
                len: 60,
            },
        };
        let line = e.render(&tables);
        assert!(line.contains("node1") && line.contains("udp_data"));
        let unknown = ObsEvent {
            time: SimTime::ZERO,
            node: NodeId(9),
            frame_seq: 1,
            kind: ObsKind::CounterUpdated {
                counter: CounterId(7),
                old: 0,
                new: 1,
            },
        };
        let line = unknown.render(&tables);
        assert!(line.contains("node#9") && line.contains("counter#7"));
    }

    #[test]
    fn control_event_labels_and_render() {
        let tables = tables();
        let sent = ObsEvent {
            time: SimTime::from_nanos(5),
            node: NodeId(0),
            frame_seq: 7,
            kind: ObsKind::ControlSent {
                peer: NodeId(1),
                peer_seq: 3,
                ack: 2,
            },
        };
        assert_eq!(sent.kind_label(), "ctrl-sent");
        let line = sent.render(&tables);
        assert!(
            line.contains("seq 3") && line.contains("-> node2"),
            "{line}"
        );
        let delivered = ObsEvent {
            time: SimTime::from_nanos(9),
            node: NodeId(1),
            frame_seq: 4,
            kind: ObsKind::ControlDelivered {
                peer: NodeId(0),
                peer_seq: 3,
                ack: 2,
            },
        };
        assert_eq!(delivered.kind_label(), "ctrl-delivered");
        let line = delivered.render(&tables);
        assert!(
            line.contains("delivered from node1") && line.contains("node2"),
            "{line}"
        );
    }
}
