//! VirtualWire fault analysis engine: cross-node timeline merge,
//! invariant checking, conformance models, scenario scripts, and
//! campaign-wide analytics.
//!
//! The paper's Fault Analysis Engine counts packets and fires rules
//! *online*; this crate is the offline half that turns recorded runs
//! into answers:
//!
//! * **Timeline** ([`DistributedTimeline`]) — merges per-engine flight
//!   recorder streams into one globally ordered view. Sequenced
//!   control-plane `(seq, ack)` pairs become happens-before edges, each
//!   node's `frame_seq` keeps its local causal order, and all ties
//!   break deterministically, so the merge is byte-stable under any
//!   permutation of the input events.
//! * **Invariants** ([`check_invariants`]) — replay the merged timeline
//!   against four rules every correct execution satisfies (conditions
//!   justified by term state, remote flips backed by deliveries, nothing
//!   after `STOP`, monotone counters), producing typed [`Violation`]s
//!   that embed the offending causal slice.
//! * **Conformance models** ([`ProtocolModel`]) — declarative FSMs over
//!   the protocol state changes implementations log
//!   ([`ProtoAspect`](vw_obs::ProtoAspect) entries), checked per node
//!   against the state logs the node's `TcpStack` and `RetherNode` keep.
//!   [`tcp_reference`] and [`rether_reference`] encode the fault-free
//!   behavior of the bundled stacks, so injected faults surface as typed
//!   violation classes ([`conformance_pass`] is the one-call campaign
//!   hook).
//! * **Scenario scripts** ([`script`]) — packetdrill-style timed
//!   stimulus installed into the world before a run, and expectations
//!   judged against its packet trace and report afterwards.
//! * **Campaign analytics** ([`CampaignReport::of`]) — folds each
//!   completed instance's metrics digest into campaign-wide totals,
//!   merged histograms and per-axis breakdowns, with
//!   [`CampaignReport::diff`] flagging regressions against a baseline.
//!
//! See DESIGN.md §5.11 for the merge order's correctness argument and
//! §5.14 for the script language and the reference models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod invariant;
mod model;
pub mod script;
mod timeline;

pub use campaign::{AxisBreakdown, AxisGroup, CampaignReport, Regression};
pub use invariant::{check_invariants, Violation};
pub use model::{conformance_pass, rether_reference, state_events, tcp_reference, ProtocolModel};
pub use timeline::DistributedTimeline;
