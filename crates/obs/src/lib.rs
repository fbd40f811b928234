//! VirtualWire flight recorder: typed causal fault-event tracing, a
//! metrics registry with JSON-lines snapshots, and pcap export.
//!
//! The paper's Fault Analysis Engine promises *online* analysis in place
//! of "manual inspection of packet traces". This crate supplies the three
//! artifacts that make an engine's decisions inspectable after the fact:
//!
//! * **Events** ([`ObsEvent`]) — a typed, allocation-free stream of
//!   every decision point on the Figure 4(b) packet path, gated by
//!   [`ObsLevel`] *before* any record is built. A shared
//!   `frame_seq` ordinal ties a classification to everything it caused,
//!   so a fault unwinds into a [`CausalChain`]:
//!   `Classified → CounterUpdated → TermFlipped → ConditionFired →
//!   ActionTriggered`.
//! * **Metrics** ([`MetricsRegistry`], [`Histogram`]) — counters, gauges
//!   and log₂ histograms with a sorted JSONL exporter, so two runs diff
//!   with standard tools.
//! * **Captures** ([`pcap`]) — classic libpcap (nanosecond magic,
//!   `LINKTYPE_ETHERNET`) export of a
//!   [`TraceSink`](vw_netsim::TraceSink), readable by Wireshark and
//!   `tcpdump`.
//!
//! The overhead contract: with [`ObsLevel::Off`] (the default), every
//! recording site reduces to one enum compare — no formatting, no
//! allocation, no measurable cost on the zero-allocation hot path. See
//! DESIGN.md §"Observability".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
pub mod pcap;
mod window;

pub use event::{action_label, CausalChain, ObsEvent, ObsKind, ObsLevel, ProtoAspect};
pub use metrics::{labeled_key, Histogram, Metric, MetricsRegistry};
/// The workspace's one JSON string escaper, re-exported for crates that
/// write JSON beside a [`MetricsRegistry`] without a `vw-trace` edge.
pub use vw_trace::json_string;
pub use window::{RollingWindow, Sample};
