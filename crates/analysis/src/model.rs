//! Model-driven protocol conformance checking.
//!
//! A [`ProtocolModel`] is a small declarative finite-state machine over
//! the [`ProtoAspect`] vocabulary: named states, aspect-labelled edges,
//! observe-only aspects, forbidden aspects, and required states. Checked
//! per node against the state logs the node's own protocols keep
//! ([`TcpStack::state_log`], [`RetherNode::state_log`]), it turns a
//! recorded run into typed [`ConformanceRecord`] verdicts —
//! `ok`, or a deduplicated list of structural violation strings
//! (`illegal transition a -> b`, `forbidden event x`, `unexpected x in
//! s`, `required state s never reached`). Violation strings carry no
//! times or counts, so campaign digests keyed on conformance fold
//! instances into per-violation-class buckets instead of singletons.
//!
//! Two reference models ship with the crate. Both encode the *fault-free*
//! behavior of their protocol, so a clean run passes and an injected
//! fault that knocks the implementation off the reference graph surfaces
//! as a typed violation class:
//!
//! * [`tcp_reference`] — slow-start ⇄ congestion-avoidance with RTO
//!   re-entry; entering fast-recovery (a loss response) is off-graph and
//!   fast retransmits are forbidden events.
//! * [`rether_reference`] — the token cycle idle → holding → passing →
//!   idle with retransmission and ring-reconfiguration tolerated; token
//!   *regeneration* (the lost-token recovery of last resort) is a
//!   forbidden event.

use virtualwire::{ConformanceRecord, Report};
use vw_fsl::{NodeId, TableSet};
use vw_netsim::World;
use vw_obs::{ObsEvent, ObsKind, ProtoAspect};
use vw_rether::RetherNode;
use vw_tcpstack::{StateChange, TcpStack};

/// A declarative FSM over [`ProtoAspect`] events — see the module docs.
///
/// Built fluently:
///
/// ```
/// use vw_analysis::ProtocolModel;
/// use vw_obs::ProtoAspect;
///
/// let model = ProtocolModel::new("toy")
///     .state("idle")
///     .state("busy")
///     .initial("idle")
///     .edge(ProtoAspect::TokenReceived, "idle", "busy")
///     .edge(ProtoAspect::TokenPassed, "busy", "idle")
///     .observe(ProtoAspect::Cwnd)
///     .forbid(ProtoAspect::TokenRegenerated)
///     .require("busy");
/// let record = model.check_events("node1", &[(ProtoAspect::TokenReceived, 1)]);
/// assert!(record.passed);
/// ```
#[derive(Debug, Clone)]
pub struct ProtocolModel {
    name: String,
    states: Vec<String>,
    initial: usize,
    state_aspect: Option<ProtoAspect>,
    edges: Vec<(ProtoAspect, usize, usize)>,
    observed: Vec<ProtoAspect>,
    driving: Vec<ProtoAspect>,
    forbidden: Vec<ProtoAspect>,
    required: Vec<usize>,
}

impl ProtocolModel {
    /// An empty model named `name`. Add states before anything else.
    pub fn new(name: &str) -> Self {
        ProtocolModel {
            name: name.to_string(),
            states: Vec::new(),
            initial: 0,
            state_aspect: None,
            edges: Vec::new(),
            observed: Vec::new(),
            driving: Vec::new(),
            forbidden: Vec::new(),
            required: Vec::new(),
        }
    }

    /// Adds a named state. Declaration order defines the state's index,
    /// which is what a [`state_aspect`](Self::state_aspect) event's
    /// value selects.
    pub fn state(mut self, name: &str) -> Self {
        self.states.push(name.to_string());
        self
    }

    /// Sets the initial state (defaults to the first declared state).
    ///
    /// # Panics
    ///
    /// Panics if `name` was not declared.
    pub fn initial(mut self, name: &str) -> Self {
        self.initial = self.state_index(name);
        self
    }

    /// Declares `aspect` as *state-valued*: each event of this aspect
    /// carries the target state's index as its value (e.g.
    /// [`vw_tcpstack::cc_phase_code`] for [`ProtoAspect::CcPhase`]).
    /// Legality of the move is still governed by
    /// [`edge`](Self::edge)s labelled with this aspect; an off-graph
    /// move is flagged but still applied, so one bad transition does not
    /// cascade into spurious follow-on violations.
    pub fn state_aspect(mut self, aspect: ProtoAspect) -> Self {
        self.state_aspect = Some(aspect);
        self
    }

    /// Adds a legal transition `from --aspect--> to`.
    ///
    /// # Panics
    ///
    /// Panics if either state was not declared.
    pub fn edge(mut self, aspect: ProtoAspect, from: &str, to: &str) -> Self {
        let from = self.state_index(from);
        let to = self.state_index(to);
        self.edges.push((aspect, from, to));
        self
    }

    /// Declares `aspect` as observe-only: legal in any state, no state
    /// change (e.g. cwnd samples).
    pub fn observe(mut self, aspect: ProtoAspect) -> Self {
        self.observed.push(aspect);
        self
    }

    /// Like [`observe`](Self::observe), but an event of this aspect also
    /// marks the node as having *driven* the machine, binding it to
    /// [`require`](Self::require)d states. Use for aspects only an
    /// active participant emits (a sender's cwnd growth), so a run
    /// stopped or stalled before the mandated transition is flagged
    /// while truly passive peers stay exempt.
    pub fn drive(mut self, aspect: ProtoAspect) -> Self {
        self.driving.push(aspect);
        self
    }

    /// Declares `aspect` as forbidden: every occurrence is a violation.
    /// Edges labelled with a forbidden aspect still apply (state
    /// tracking continues past the violation).
    pub fn forbid(mut self, aspect: ProtoAspect) -> Self {
        self.forbidden.push(aspect);
        self
    }

    /// Requires `name` to be visited by the end of the run.
    ///
    /// # Panics
    ///
    /// Panics if `name` was not declared.
    pub fn require(mut self, name: &str) -> Self {
        let idx = self.state_index(name);
        self.required.push(idx);
        self
    }

    /// The model's name (the [`ConformanceRecord::model`] tag).
    pub fn name(&self) -> &str {
        &self.name
    }

    fn state_index(&self, name: &str) -> usize {
        self.states
            .iter()
            .position(|s| s == name)
            .unwrap_or_else(|| panic!("model {}: unknown state {name:?}", self.name))
    }

    /// `true` if the model reacts to `aspect` at all. Nodes with no
    /// alphabet events produce no record (the model does not apply to
    /// them).
    pub fn in_alphabet(&self, aspect: ProtoAspect) -> bool {
        self.state_aspect == Some(aspect)
            || self.observed.contains(&aspect)
            || self.driving.contains(&aspect)
            || self.forbidden.contains(&aspect)
            || self.edges.iter().any(|&(a, _, _)| a == aspect)
    }

    /// Runs the FSM over one node's event sequence (canonical local
    /// order) and renders the verdict. Violations are deduplicated and
    /// carry no times or counts, keeping them digest-stable across
    /// seeds.
    pub fn check_events(&self, node: &str, events: &[(ProtoAspect, u64)]) -> ConformanceRecord {
        let mut state = self.initial;
        let mut visited = vec![false; self.states.len()];
        if state < visited.len() {
            visited[state] = true;
        }
        // Required states bind only nodes that actually drove the
        // machine (a state, edge, or `drive`-marked event); a passive
        // peer that merely jittered an observed-only aspect is not held
        // to them.
        let mut drove = false;
        let mut violations: Vec<String> = Vec::new();
        let flag = |violations: &mut Vec<String>, v: String| {
            if !violations.contains(&v) {
                violations.push(v);
            }
        };
        for &(aspect, value) in events {
            if !self.in_alphabet(aspect) {
                continue;
            }
            if self.driving.contains(&aspect) {
                drove = true;
            }
            if self.forbidden.contains(&aspect) {
                flag(
                    &mut violations,
                    format!("forbidden event {}", aspect.label()),
                );
            }
            if self.state_aspect == Some(aspect) {
                drove = true;
                let to = value as usize;
                if to >= self.states.len() {
                    flag(&mut violations, format!("unknown state code {value}"));
                    continue;
                }
                if to != state {
                    if !self
                        .edges
                        .iter()
                        .any(|&(a, f, t)| a == aspect && f == state && t == to)
                    {
                        flag(
                            &mut violations,
                            format!(
                                "illegal transition {} -> {}",
                                self.states[state], self.states[to]
                            ),
                        );
                    }
                    state = to;
                    visited[state] = true;
                }
                continue;
            }
            if let Some(&(_, _, to)) = self
                .edges
                .iter()
                .find(|&&(a, f, _)| a == aspect && f == state)
            {
                drove = true;
                state = to;
                visited[to] = true;
            } else if self.edges.iter().any(|&(a, _, _)| a == aspect) {
                drove = true;
                flag(
                    &mut violations,
                    format!("unexpected {} in {}", aspect.label(), self.states[state]),
                );
            }
        }
        if drove {
            for &r in &self.required {
                if !visited[r] {
                    flag(
                        &mut violations,
                        format!("required state {} never reached", self.states[r]),
                    );
                }
            }
        }
        ConformanceRecord {
            model: self.name.clone(),
            node: node.to_string(),
            passed: violations.is_empty(),
            violations,
        }
    }
}

/// The fault-free TCP congestion-control reference: slow-start ⇄
/// congestion-avoidance, with the RTO path (timeout, ssthresh halving,
/// re-entry into slow start) legal — it is part of connection
/// establishment under the §6.1 handshake drop. Entering fast-recovery
/// and firing a fast retransmit are loss responses a clean flow never
/// takes, so they surface as `illegal transition` / `forbidden event`
/// classes.
///
/// Cwnd growth is [`drive`](ProtocolModel::drive)-marked: any node whose
/// window moved is an active sender and must reach congestion avoidance
/// by the end of the run, so a flow stopped or stalled inside slow start
/// surfaces as `required state congestion-avoidance never reached`. A
/// passive receiver (which at most halves ssthresh on its own handshake
/// timeout) is exempt. Note the phase check judges the *reported* phase:
/// a stack that grows exponentially past ssthresh while reporting
/// congestion avoidance (the seeded `bug_never_enter_ca`) conforms here
/// and is caught instead by the FSL window-conservation ledger — the two
/// checkers cover complementary fault classes.
pub fn tcp_reference() -> ProtocolModel {
    ProtocolModel::new("tcp")
        .state("slow-start")
        .state("congestion-avoidance")
        .state("fast-recovery")
        .initial("slow-start")
        .state_aspect(ProtoAspect::CcPhase)
        .edge(ProtoAspect::CcPhase, "slow-start", "congestion-avoidance")
        .edge(ProtoAspect::CcPhase, "congestion-avoidance", "slow-start")
        .edge(
            ProtoAspect::CcPhase,
            "fast-recovery",
            "congestion-avoidance",
        )
        .drive(ProtoAspect::Cwnd)
        .observe(ProtoAspect::Ssthresh)
        .observe(ProtoAspect::RtoTimeout)
        .forbid(ProtoAspect::FastRetransmit)
        .require("congestion-avoidance")
}

/// The healthy Rether token cycle: idle → holding (token received) →
/// passing (token sent downstream) → idle (pass acknowledged), with
/// retransmission, re-passing after a ring reconfiguration, and the
/// genesis pass from idle all legal. Token *regeneration* means the
/// token was lost outright — a healthy ring never does it — so it is a
/// forbidden event (its edges still apply, keeping state tracking sane
/// past the violation).
pub fn rether_reference() -> ProtocolModel {
    ProtocolModel::new("rether")
        .state("idle")
        .state("holding")
        .state("passing")
        .initial("idle")
        .edge(ProtoAspect::TokenReceived, "idle", "holding")
        .edge(ProtoAspect::TokenPassed, "holding", "passing")
        .edge(ProtoAspect::TokenPassed, "idle", "passing")
        .edge(ProtoAspect::TokenPassed, "passing", "passing")
        .edge(ProtoAspect::TokenAcked, "passing", "idle")
        .edge(ProtoAspect::TokenRetransmit, "passing", "passing")
        .edge(ProtoAspect::TokenRegenerated, "idle", "holding")
        .edge(ProtoAspect::TokenRegenerated, "holding", "holding")
        .edge(ProtoAspect::TokenRegenerated, "passing", "holding")
        .observe(ProtoAspect::RingReconfigured)
        .forbid(ProtoAspect::TokenRegenerated)
}

/// Renders a recorded state log as [`ObsKind::StateChanged`] events
/// attributed to `node`, in flight-recorder form (`frame_seq` 0), to show
/// beside the engines' events. The log stays the record:
/// [`conformance_pass`] reads it directly.
pub fn state_events(log: &[StateChange], node: NodeId) -> Vec<ObsEvent> {
    log.iter()
        .map(|&(time, aspect, value)| ObsEvent {
            time,
            node,
            frame_seq: 0,
            kind: ObsKind::StateChanged { aspect, value },
        })
        .collect()
}

/// The standard post-run conformance pass, the body of a conformance-aware
/// [`Setup::finish`](vw_campaign::Setup): per model, per table node with a
/// device (node-id order), checks the model's alphabet in the first
/// [`TcpStack`]'s state log then the first [`RetherNode`]'s, and appends a
/// verdict to [`Report::conformance`] unless the logs hold none of it.
pub fn conformance_pass(
    models: &[ProtocolModel],
    tables: &TableSet,
    world: &World,
    report: &mut Report,
) {
    for model in models {
        for node in &tables.nodes {
            let Some(device) = world.device_by_name(&node.name) else {
                continue;
            };
            let tcp = world
                .find_protocol::<TcpStack>(device)
                .map(TcpStack::state_log);
            let rether = world
                .find_hook::<RetherNode>(device)
                .map(RetherNode::state_log);
            let events: Vec<(ProtoAspect, u64)> = tcp
                .into_iter()
                .chain(rether)
                .flatten()
                .filter(|&&(_, aspect, _)| model.in_alphabet(aspect))
                .map(|&(_, aspect, value)| (aspect, value))
                .collect();
            if !events.is_empty() {
                report
                    .conformance
                    .push(model.check_events(&node.name, &events));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> ProtocolModel {
        ProtocolModel::new("toy")
            .state("idle")
            .state("busy")
            .initial("idle")
            .edge(ProtoAspect::TokenReceived, "idle", "busy")
            .edge(ProtoAspect::TokenPassed, "busy", "idle")
            .observe(ProtoAspect::Cwnd)
            .forbid(ProtoAspect::TokenRegenerated)
            .require("busy")
    }

    #[test]
    fn legal_sequence_passes() {
        let record = toy().check_events(
            "n",
            &[
                (ProtoAspect::TokenReceived, 1),
                (ProtoAspect::Cwnd, 5),
                (ProtoAspect::TokenPassed, 1),
            ],
        );
        assert!(record.passed, "{record}");
        assert_eq!(record.model, "toy");
    }

    #[test]
    fn unexpected_event_and_unmet_requirement_flag() {
        let record = toy().check_events("n", &[(ProtoAspect::TokenPassed, 1)]);
        assert!(!record.passed);
        assert_eq!(
            record.violations,
            vec![
                "unexpected token-passed in idle".to_string(),
                "required state busy never reached".to_string(),
            ]
        );
    }

    #[test]
    fn forbidden_events_flag_once() {
        let record = toy().check_events(
            "n",
            &[
                (ProtoAspect::TokenReceived, 1),
                (ProtoAspect::TokenRegenerated, 1),
                (ProtoAspect::TokenRegenerated, 2),
            ],
        );
        assert!(!record.passed);
        assert_eq!(
            record.violations,
            vec!["forbidden event token-regenerated".to_string()]
        );
    }

    #[test]
    fn state_valued_aspect_tracks_and_flags_off_graph_moves() {
        let model = tcp_reference();
        // Clean: slow-start -> CA (cc_phase_code order: ss=0, ca=1, fr=2).
        let clean = model.check_events("n", &[(ProtoAspect::CcPhase, 1)]);
        assert!(clean.passed, "{clean}");
        // RTO path: CA -> slow start -> CA again, timeout observed.
        let rto = model.check_events(
            "n",
            &[
                (ProtoAspect::CcPhase, 1),
                (ProtoAspect::RtoTimeout, 1),
                (ProtoAspect::Ssthresh, 2000),
                (ProtoAspect::CcPhase, 0),
                (ProtoAspect::CcPhase, 1),
            ],
        );
        assert!(rto.passed, "{rto}");
        // Fast retransmit: forbidden event + off-graph entry into
        // fast-recovery, then a legal recovery exit.
        let loss = model.check_events(
            "n",
            &[
                (ProtoAspect::CcPhase, 1),
                (ProtoAspect::FastRetransmit, 1),
                (ProtoAspect::CcPhase, 2),
                (ProtoAspect::CcPhase, 1),
            ],
        );
        assert!(!loss.passed);
        assert_eq!(
            loss.violations,
            vec![
                "forbidden event fast-retransmit".to_string(),
                "illegal transition congestion-avoidance -> fast-recovery".to_string(),
            ]
        );
        // Never entering CA is its own class — cwnd growth is
        // drive-marked, so a sender stalled in slow start is bound to
        // the required state even without any phase event.
        let stuck = model.check_events("n", &[(ProtoAspect::Cwnd, 2000)]);
        assert_eq!(
            stuck.violations,
            vec!["required state congestion-avoidance never reached".to_string()]
        );
        // A passive peer that only jittered observed aspects (a receiver
        // halving ssthresh on its own SYNACK timeout, say) is not held
        // to required states.
        let passive = model.check_events(
            "n",
            &[(ProtoAspect::Ssthresh, 2000), (ProtoAspect::RtoTimeout, 1)],
        );
        assert!(passive.passed, "{passive}");
    }

    #[test]
    fn rether_reference_accepts_the_healthy_cycle_and_flags_regeneration() {
        let model = rether_reference();
        let healthy = model.check_events(
            "n",
            &[
                (ProtoAspect::TokenReceived, 1),
                (ProtoAspect::TokenPassed, 1),
                (ProtoAspect::TokenRetransmit, 2),
                (ProtoAspect::RingReconfigured, 2),
                (ProtoAspect::TokenPassed, 1),
                (ProtoAspect::TokenAcked, 1),
            ],
        );
        assert!(healthy.passed, "{healthy}");
        let regen = model.check_events(
            "n",
            &[
                (ProtoAspect::TokenRegenerated, 2),
                (ProtoAspect::TokenPassed, 2),
                (ProtoAspect::TokenAcked, 2),
            ],
        );
        assert!(!regen.passed);
        assert_eq!(
            regen.violations,
            vec!["forbidden event token-regenerated".to_string()]
        );
    }
}
