//! VirtualWire fault analysis engine: invariant checking, conformance
//! models, scenario scripts, and campaign-wide analytics.
//!
//! The paper's Fault Analysis Engine counts packets and fires rules
//! *online*; this crate is the offline half that turns recorded runs
//! into answers. Each reads the run's one timeline,
//! [`Report::events`](virtualwire::Report::events): every engine's
//! flight-recorder events, in the order it recorded them, merged by time.
//!
//! * **Invariants** ([`check_invariants`]) — replay the timeline
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
//! See DESIGN.md §5.11 for why that order respects happens-before and
//! §5.14 for the script language and the reference models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod invariant;
mod model;
pub mod script;

pub use campaign::{AxisBreakdown, AxisGroup, CampaignReport, Regression};
pub use invariant::{check_invariants, Violation};
pub use model::{conformance_pass, rether_reference, state_events, tcp_reference, ProtocolModel};
