//! Invariant checking over a run's timeline,
//! [`Report::events`](virtualwire::Report::events).
//!
//! The paper's Fault Analysis Engine promises *online* detection of
//! protocol violations; this module adds the offline complement — a
//! replay of the recorded event stream against rules that must hold for
//! *any* correct execution of the engine protocol itself, regardless of
//! scenario. A failing invariant means either the recorder captured an
//! impossible execution (an engine bug) or the stream was truncated or
//! doctored — both worth flagging before trusting an analysis built on
//! the stream.
//!
//! [`check_invariants`] runs four rules, in this order:
//!
//! * `condition-implies-terms` — every `ConditionFired` is justified by
//!   recorded term state: its expression is satisfiable from the term
//!   values in force at the firing cascade.
//! * `remote-term-delivery` — a term flip recorded away from the term's
//!   evaluating node must ride a control delivery from that node in the
//!   same cascade.
//! * `no-action-after-stop` — once a node triggers `STOP`, no later
//!   cascade at that node may trigger actions.
//! * `counter-monotonic` — a counter never targeted by value-lowering
//!   actions (`ASSIGN`/`DECR`/`RESET`/time ops) must never decrease.

use std::collections::HashMap;

use vw_fsl::{CompiledActionKind, CounterOp, NodeId, TableSet, Tables, TermId};
use vw_netsim::SimTime;
use vw_obs::{action_label, CausalChain, ObsEvent, ObsKind};

/// One invariant violation, anchored to the offending event and
/// carrying the cross-node causal slice behind it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated invariant's name.
    pub invariant: &'static str,
    /// The node whose event violated it.
    pub node: NodeId,
    /// The offending cascade's ordinal at that node.
    pub frame_seq: u64,
    /// When the offending event happened.
    pub time: SimTime,
    /// What went wrong.
    pub message: String,
    /// The offending cascade plus the sender cascades of any control
    /// deliveries it consumed, in timeline order.
    pub slice: Vec<ObsEvent>,
}

impl Violation {
    /// A violation of `invariant` by `event`, carrying the event's causal
    /// slice from `events`.
    fn at(invariant: &'static str, events: &[ObsEvent], event: &ObsEvent, message: String) -> Self {
        Violation {
            invariant,
            node: event.node,
            frame_seq: event.frame_seq,
            time: event.time,
            message,
            slice: causal_slice(events, event.node, event.frame_seq),
        }
    }

    /// Multi-line human rendering: the verdict line plus the causal
    /// slice, named from the run's `tables`.
    pub fn render(&self, tables: &Tables) -> String {
        let mut out = format!(
            "{} {} #{} violates {}: {}\n",
            self.time,
            tables.node_name(self.node),
            self.frame_seq,
            self.invariant,
            self.message
        );
        for event in &self.slice {
            out.push_str(&format!("    {}\n", event.render(tables)));
        }
        out
    }
}

/// Checks the four rules of the module docs over a run's `events`, in
/// that order, concatenating their violations.
pub fn check_invariants(events: &[ObsEvent], tables: &TableSet) -> Vec<Violation> {
    let mut violations = condition_implies_terms(events, tables);
    violations.extend(remote_term_delivery(events, tables));
    violations.extend(no_action_after_stop(events, tables));
    violations.extend(counter_monotonic(events, tables));
    violations
}

/// The cross-node causal slice behind one cascade: the cascade's own
/// events plus, for each control delivery it consumed, the sender
/// cascade that produced the first matching send, in `events` order.
fn causal_slice(events: &[ObsEvent], node: NodeId, frame_seq: u64) -> Vec<ObsEvent> {
    let mut frames = vec![(node, frame_seq)];
    for delivery in CausalChain::extract(events, node, frame_seq).events {
        let ObsKind::ControlDelivered { peer, peer_seq, .. } = delivery.kind else {
            continue;
        };
        if let Some(send) = events.iter().find(|e| {
            e.node == peer
                && matches!(e.kind, ObsKind::ControlSent { peer: p, peer_seq: q, .. }
                    if p == node && q == peer_seq)
        }) {
            frames.push((send.node, send.frame_seq));
        }
    }
    events
        .iter()
        .filter(|e| frames.contains(&(e.node, e.frame_seq)))
        .copied()
        .collect()
}

/// Tracks one node's replayed term state while walking the events.
#[derive(Default)]
struct NodeReplay {
    status: Vec<bool>,
    frame: Option<u64>,
    /// Term values before the current cascade's flips.
    pre_frame: Vec<bool>,
    /// `(term, status)` flips recorded in the current cascade.
    flips: Vec<(TermId, bool)>,
    /// Peers whose control messages were delivered in the current
    /// cascade.
    delivered_from: Vec<NodeId>,
}

impl NodeReplay {
    fn new(terms: usize) -> Self {
        NodeReplay {
            status: vec![false; terms],
            frame: None,
            pre_frame: vec![false; terms],
            flips: Vec::new(),
            delivered_from: Vec::new(),
        }
    }

    fn enter_frame(&mut self, frame_seq: u64) {
        if self.frame != Some(frame_seq) {
            self.frame = Some(frame_seq);
            self.pre_frame.clone_from(&self.status);
            self.flips.clear();
            self.delivered_from.clear();
        }
    }
}

/// Every `ConditionFired` must be justified by recorded term state: the
/// condition's expression evaluates true under the pre-cascade term
/// values with some combination of the cascade's own recorded flips
/// applied. (A cascade can interleave firings between flips, so the
/// exact firing-time state is any per-term choice between the
/// pre-cascade value and a recorded flip value — we accept the firing
/// if any such choice satisfies the expression.)
fn condition_implies_terms(events: &[ObsEvent], tables: &TableSet) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut replay: HashMap<NodeId, NodeReplay> = HashMap::new();
    for event in events {
        let state = replay
            .entry(event.node)
            .or_insert_with(|| NodeReplay::new(tables.terms.len()));
        state.enter_frame(event.frame_seq);
        match event.kind {
            ObsKind::TermFlipped { term, status } if term.index() < state.status.len() => {
                state.flips.push((term, status));
                state.status[term.index()] = status;
            }
            ObsKind::ConditionFired { cond } => {
                let Some(condition) = tables.conditions.get(cond.index()) else {
                    continue;
                };
                let mut terms = condition.expr.terms();
                terms.sort();
                terms.dedup();
                if terms.len() > 16 {
                    continue; // combination space too large to replay
                }
                if !satisfiable(&condition.expr, &terms, state) {
                    let message = format!(
                        "condition#{} fired but no recorded term state satisfies its \
                         expression",
                        cond.index()
                    );
                    violations.push(Violation::at(
                        "condition-implies-terms",
                        events,
                        event,
                        message,
                    ));
                }
            }
            _ => {}
        }
    }
    violations
}

/// `true` if some per-term choice between the pre-cascade value and a
/// value the cascade's recorded flips gave the term satisfies `expr`.
fn satisfiable(expr: &vw_fsl::CondNode, terms: &[TermId], state: &NodeReplay) -> bool {
    // Candidate values per involved term.
    let candidates: Vec<Vec<bool>> = terms
        .iter()
        .map(|&t| {
            let mut values = vec![state.pre_frame.get(t.index()).copied().unwrap_or(false)];
            for &(ft, fv) in &state.flips {
                if ft == t && !values.contains(&fv) {
                    values.push(fv);
                }
            }
            values
        })
        .collect();
    let combos: usize = candidates.iter().map(Vec::len).product();
    (0..combos).any(|mut combo| {
        let assignment: HashMap<TermId, bool> = terms
            .iter()
            .zip(&candidates)
            .map(|(&t, values)| {
                let v = values[combo % values.len()];
                combo /= values.len();
                (t, v)
            })
            .collect();
        expr.eval(&|t| assignment.get(&t).copied().unwrap_or(false))
    })
}

/// A term flip recorded at a node other than the term's `eval_node`
/// can only come from a `TermStatus` control message, so the same
/// cascade must contain a control delivery from the evaluating node.
fn remote_term_delivery(events: &[ObsEvent], tables: &TableSet) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut replay: HashMap<NodeId, NodeReplay> = HashMap::new();
    for event in events {
        let state = replay
            .entry(event.node)
            .or_insert_with(|| NodeReplay::new(tables.terms.len()));
        state.enter_frame(event.frame_seq);
        match event.kind {
            ObsKind::ControlDelivered { peer, .. } => {
                state.delivered_from.push(peer);
            }
            ObsKind::TermFlipped { term, .. } => {
                let Some(compiled) = tables.terms.get(term.index()) else {
                    continue;
                };
                if compiled.eval_node == event.node
                    || state.delivered_from.contains(&compiled.eval_node)
                {
                    continue;
                }
                let message = format!(
                    "term#{} flipped remotely with no control delivery from its \
                     evaluating node in the same cascade",
                    term.index()
                );
                violations.push(Violation::at(
                    "remote-term-delivery",
                    events,
                    event,
                    message,
                ));
            }
            _ => {}
        }
    }
    violations
}

/// Once a node triggers `STOP`, no cascade with a larger ordinal at
/// that node may trigger actions (the world stops stepping; a later
/// action means the stream disagrees with the engine's semantics). An
/// action's kind is read from `tables`; an id they do not hold is no
/// `STOP`.
fn no_action_after_stop(events: &[ObsEvent], tables: &Tables) -> Vec<Violation> {
    let mut stopped_at: HashMap<NodeId, u64> = HashMap::new();
    for event in events {
        if let Some(CompiledActionKind::Stop) = event.action_kind(tables) {
            let at = stopped_at.entry(event.node).or_insert(event.frame_seq);
            *at = (*at).min(event.frame_seq);
        }
    }
    let mut violations = Vec::new();
    for event in events {
        let ObsKind::ActionTriggered { action } = event.kind else {
            continue;
        };
        let Some(&stop_frame) = stopped_at.get(&event.node) else {
            continue;
        };
        if event.frame_seq > stop_frame {
            let message = format!(
                "action#{} ({}) triggered after the node's STOP at cascade #{stop_frame}",
                action.index(),
                event.action_kind(tables).map_or("?", action_label)
            );
            violations.push(Violation::at(
                "no-action-after-stop",
                events,
                event,
                message,
            ));
        }
    }
    violations
}

/// Counters only ever bumped by packet counting and non-negative `INCR`
/// must never decrease, at the home node or at any subscriber (in-order
/// control delivery forwards a monotone value monotonically).
fn counter_monotonic(events: &[ObsEvent], tables: &TableSet) -> Vec<Violation> {
    let mut monotone = vec![true; tables.counters.len()];
    for action in &tables.actions {
        let CompiledActionKind::Counter { counter, op } = action.kind else {
            continue;
        };
        let lowering = match op {
            CounterOp::Assign(_)
            | CounterOp::Decr(_)
            | CounterOp::Reset
            | CounterOp::SetCurTime
            | CounterOp::ElapsedTime => true,
            CounterOp::Incr(value) => value < 0,
            CounterOp::Enable | CounterOp::Disable => false,
        };
        if lowering {
            if let Some(flag) = monotone.get_mut(counter.index()) {
                *flag = false;
            }
        }
    }
    let mut violations = Vec::new();
    for event in events {
        let ObsKind::CounterUpdated { counter, old, new } = event.kind else {
            continue;
        };
        if monotone.get(counter.index()).copied().unwrap_or(false) && new < old {
            let message = format!(
                "monotone counter#{} decreased {old} -> {new}",
                counter.index()
            );
            violations.push(Violation::at("counter-monotonic", events, event, message));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_fsl::{
        CompiledAction, CompiledCondition, CompiledCounter, CompiledCounterKind, CompiledOperand,
        CompiledTerm, CondId, CondNode, CounterId, RelOp,
    };

    /// Two nodes, one counter homed at node0, one term evaluated at
    /// node0, one condition on that term acting at node1.
    fn tiny_tables() -> TableSet {
        vw_fsl::Tables {
            scenario: "tiny".into(),
            timeout_ns: None,
            vars: Vec::new(),
            filters: Vec::new(),
            nodes: Vec::new(),
            counters: vec![CompiledCounter {
                name: "Sent".into(),
                kind: CompiledCounterKind::Local,
                home: NodeId(0),
                affected_terms: vec![TermId(0)],
                subscribers: Vec::new(),
            }],
            terms: vec![CompiledTerm {
                lhs: CompiledOperand::Counter(CounterId(0)),
                op: RelOp::Eq,
                rhs: CompiledOperand::Const(3),
                eval_node: NodeId(0),
                conditions: vec![CondId(0)],
            }],
            conditions: vec![CompiledCondition {
                expr: CondNode::Term(TermId(0)),
                eval_nodes: vec![NodeId(1)],
                triggers: Vec::new(),
                gates: Vec::new(),
            }],
            actions: Vec::new(),
        }
        .into()
    }

    fn ev(node: u16, frame_seq: u64, nanos: u64, kind: ObsKind) -> ObsEvent {
        ObsEvent {
            time: SimTime::from_nanos(nanos),
            node: NodeId(node),
            frame_seq,
            kind,
        }
    }

    fn flip(node: u16, seq: u64, nanos: u64, status: bool) -> ObsEvent {
        let term = TermId(0);
        ev(node, seq, nanos, ObsKind::TermFlipped { term, status })
    }

    fn fired(node: u16, seq: u64, nanos: u64) -> ObsEvent {
        ev(
            node,
            seq,
            nanos,
            ObsKind::ConditionFired { cond: CondId(0) },
        )
    }

    fn delivered(node: u16, seq: u64, nanos: u64, peer: u16) -> ObsEvent {
        let kind = ObsKind::ControlDelivered {
            peer: NodeId(peer),
            peer_seq: 1,
            ack: 0,
        };
        ev(node, seq, nanos, kind)
    }

    fn sent(node: u16, seq: u64, nanos: u64, peer: u16) -> ObsEvent {
        let kind = ObsKind::ControlSent {
            peer: NodeId(peer),
            peer_seq: 1,
            ack: 0,
        };
        ev(node, seq, nanos, kind)
    }

    #[test]
    fn condition_without_supporting_terms_is_flagged() {
        let tables = tiny_tables();
        let events = [fired(1, 2, 10)];
        let violations = condition_implies_terms(&events, &tables);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, "condition-implies-terms");
        assert_eq!(violations[0].node, NodeId(1));
    }

    #[test]
    fn condition_backed_by_a_flip_passes() {
        let tables = tiny_tables();
        let events = [delivered(1, 2, 9, 0), flip(1, 2, 9, true), fired(1, 2, 10)];
        assert!(condition_implies_terms(&events, &tables).is_empty());
        // A flip in an *earlier* cascade carries over too.
        let events = [delivered(1, 1, 5, 0), flip(1, 1, 5, true), fired(1, 3, 10)];
        assert!(condition_implies_terms(&events, &tables).is_empty());
    }

    #[test]
    fn interleaved_firing_between_flips_passes() {
        // The cascade flips the term true then back false; the firing is
        // justified by the intermediate true value even though the final
        // cascade state is false.
        let tables = tiny_tables();
        let events = [flip(1, 2, 9, true), flip(1, 2, 9, false), fired(1, 2, 10)];
        assert!(condition_implies_terms(&events, &tables).is_empty());
    }

    #[test]
    fn remote_flip_requires_a_delivery() {
        let tables = tiny_tables();
        // Term 0 evaluates at node0; a flip at node1 without a delivery
        // from node0 in the same cascade is an orphan.
        let events = [flip(1, 2, 9, true)];
        let violations = remote_term_delivery(&events, &tables);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, "remote-term-delivery");
        // With the delivery present it passes.
        let events = [delivered(1, 2, 9, 0), flip(1, 2, 9, true)];
        assert!(remote_term_delivery(&events, &tables).is_empty());
        // A local flip needs no delivery.
        let events = [flip(0, 2, 9, true)];
        assert!(remote_term_delivery(&events, &tables).is_empty());
    }

    #[test]
    fn action_after_stop_is_flagged() {
        use vw_fsl::{ActionId, Dir, Fault, FilterId, PacketSel};
        // Actions 0, 1 and 2 are STOP, DROP and FLAG_ERR.
        let mut tables = tiny_tables();
        let on = PacketSel {
            filter: FilterId(0),
            from: NodeId(0),
            to: NodeId(1),
            dir: Dir::Send,
        };
        for kind in [
            CompiledActionKind::Stop,
            CompiledActionKind::Fault {
                on,
                fault: Fault::Drop,
            },
            CompiledActionKind::FlagError { message: None },
        ] {
            let node = NodeId(0);
            tables.actions.push(CompiledAction { node, kind });
        }
        let action = |seq: u64, nanos: u64, id: u16| {
            let action = ActionId(id);
            ev(0, seq, nanos, ObsKind::ActionTriggered { action })
        };
        let events = [action(2, 10, 0), action(3, 11, 1)];
        let violations = no_action_after_stop(&events, &tables);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, "no-action-after-stop");
        assert!(
            violations[0].message.contains("(DROP)"),
            "{}",
            violations[0].message
        );
        // Same-cascade companions of the STOP are fine.
        let events = [action(2, 10, 2), action(2, 10, 0)];
        assert!(no_action_after_stop(&events, &tables).is_empty());
    }

    #[test]
    fn monotone_counter_decrease_is_flagged() {
        let tables = tiny_tables();
        let update = |old: i64, new: i64| {
            let counter = CounterId(0);
            ev(0, 2, 10, ObsKind::CounterUpdated { counter, old, new })
        };
        let events = [update(3, 2)];
        let violations = counter_monotonic(&events, &tables);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, "counter-monotonic");
        // Increases pass.
        let events = [update(2, 3)];
        assert!(counter_monotonic(&events, &tables).is_empty());
        // A counter targeted by ASSIGN is exempt.
        let mut tables = tiny_tables();
        tables.actions.push(CompiledAction {
            node: NodeId(0),
            kind: CompiledActionKind::Counter {
                counter: CounterId(0),
                op: CounterOp::Assign(0),
            },
        });
        let events = [update(3, 0)];
        assert!(counter_monotonic(&events, &tables).is_empty());
    }

    #[test]
    fn checker_runs_all_builtins_and_renders() {
        let tables = tiny_tables();
        let events = [flip(1, 2, 9, true), fired(1, 2, 10)];
        // The flip precedes the firing, so condition-implies-terms
        // passes; the orphan remote flip still trips delivery.
        let violations = check_invariants(&events, &tables);
        assert_eq!(violations.len(), 1);
        let text = violations[0].render(&tables);
        assert!(text.contains("remote-term-delivery"), "{text}");
        assert!(text.contains("node#1"), "{text}");
    }

    #[test]
    fn causal_slice_pulls_in_the_sender_cascade() {
        let events = [
            flip(0, 2, 5, true),
            sent(0, 2, 6, 1),
            sent(0, 5, 8, 1),
            delivered(1, 3, 9, 0),
            flip(1, 3, 9, true),
            flip(1, 9, 30, false),
        ];
        let slice = causal_slice(&events, NodeId(1), 3);
        let kinds: Vec<&str> = slice.iter().map(ObsEvent::kind_label).collect();
        // The retransmission at cascade 5 is not the first send.
        assert_eq!(kinds, ["term", "ctrl-sent", "ctrl-delivered", "term"]);
    }
}
