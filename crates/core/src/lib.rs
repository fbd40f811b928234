//! VirtualWire — a distributed network fault injection and analysis tool.
//!
//! This crate is the paper's primary contribution: a system that injects
//! user-specified network faults into live protocol runs and matches
//! network events against anticipated responses, driven entirely by
//! high-level [FSL](vw_fsl) scripts — no instrumentation of the protocol
//! under test.
//!
//! # Architecture (paper Figure 1)
//!
//! * Every participating host carries an [`Engine`] — the combined Fault
//!   Injection Engine (FIE) and Fault Analysis Engine (FAE) — installed
//!   between the protocol stack and the NIC as a simulator
//!   [`Hook`](vw_netsim::Hook) (the paper's Netfilter position).
//! * One host is the *control node*: it holds the compiled six-table
//!   [`TableSet`](vw_fsl::TableSet) and distributes it to every engine
//!   over the control-plane protocol ([`wire`]) at start-up.
//! * Engines classify every packet against the filter/node tables
//!   ([`classify`]), maintain counters, evaluate terms and conditions
//!   (locally or across nodes via `COUNTER_UPDATE`/`TERM_STATUS` control
//!   messages), inject the Table II faults, and flag violations.
//! * The [`Runner`] compiles and installs everything, enforces the
//!   scenario's inactivity timeout, and produces a [`Report`].
//! * A [`RllHook`](vw_rll::RllHook) can be layered underneath so that
//!   wire-level loss and corruption never masquerade as injected faults
//!   ([`Runner::install_with_rll`]).
//!
//! # Example: drop the third UDP datagram, then stop
//!
//! ```
//! use vw_netsim::apps::{UdpFlooder, UdpSink};
//! use vw_netsim::{Binding, LinkConfig, SimDuration, World};
//! use vw_packet::EtherType;
//! use virtualwire::{EngineConfig, Runner};
//!
//! let script = r#"
//!     FILTER_TABLE
//!     udp_data: (23 1 0x11), (36 2 0x6363)
//!     END
//!     NODE_TABLE
//!     node1 02:00:00:00:00:01 192.168.1.2
//!     node2 02:00:00:00:00:02 192.168.1.3
//!     END
//!     SCENARIO Drop_Third_Datagram
//!     Sent: (udp_data, node1, node2, SEND)
//!     (TRUE) >> ENABLE_CNTR(Sent);
//!     ((Sent = 3)) >> DROP(udp_data, node1, node2, SEND);
//!     ((Sent = 10)) >> STOP;
//!     END
//! "#;
//! let tables = virtualwire::compile_script(script)?;
//!
//! let mut world = World::new(1);
//! let nodes = Runner::create_hosts(&mut world, &tables);
//! let sw = world.add_switch("sw0", 4);
//! for &n in &nodes {
//!     world.connect(n, sw, LinkConfig::fast_ethernet());
//! }
//! let runner = Runner::install(&mut world, tables, EngineConfig::default());
//!
//! let sink = world.add_protocol(nodes[1], Binding::EtherType(EtherType::IPV4),
//!     Box::new(UdpSink::new(0x6363)));
//! let flooder = UdpFlooder::new(world.host_mac(nodes[1]), world.host_ip(nodes[1]),
//!     0x6363, 9000, 1_000_000, 200, 2000);
//! world.add_protocol(nodes[0], Binding::EtherType(EtherType::IPV4), Box::new(flooder));
//!
//! let report = runner.run(&mut world, SimDuration::from_secs(1));
//! assert!(report.passed());
//! assert_eq!(report.counter("Sent"), Some(10));
//! // Datagram #3 was consumed by the DROP fault, and STOP halted the
//! // run while #10 was still on the wire: the sink saw 8.
//! let sink = world.protocol::<UdpSink>(nodes[1], sink).unwrap();
//! assert_eq!(sink.frames(), 8);
//! # Ok::<(), virtualwire::ScriptError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod engine;
mod plan;
mod report;
mod runner;
mod suite;
pub mod wire;

use std::error::Error;
use std::fmt;

pub use classify::{
    classify, Classification, Classifier, ClassifierIndex, ClassifierMode, ClassifierScratch,
    ScanStats,
};
pub use engine::{
    ControlPlaneConfig, CostModel, Engine, EngineConfig, EngineIo, EngineStats, StatKind,
};
pub use report::{ConformanceRecord, FlaggedError, NodeDistributions, Report, StopReason};
pub use runner::Runner;
pub use suite::{Suite, SuiteReport};
// Flight-recorder vocabulary, re-exported so downstream code can configure
// `EngineConfig::obs` and consume `Report::events`/`metrics` without a
// direct vw-obs dependency.
pub use vw_obs::pcap;
pub use vw_obs::{
    action_label, CausalChain, Histogram, Metric, MetricsRegistry, ObsEvent, ObsKind, ObsLevel,
    ProtoAspect,
};

/// Error compiling a script source: a parse error or semantic errors.
#[derive(Debug, Clone)]
pub struct ScriptError {
    errors: Vec<vw_fsl::FslError>,
}

impl ScriptError {
    /// Every problem found in the script.
    pub fn errors(&self) -> &[vw_fsl::FslError] {
        &self.errors
    }
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl Error for ScriptError {}

/// Parses, analyzes, and compiles an FSL script, returning the tables of
/// its **first** scenario.
///
/// # Errors
///
/// Returns [`ScriptError`] on parse or semantic errors, or if the script
/// defines no scenario.
pub fn compile_script(source: &str) -> Result<vw_fsl::TableSet, ScriptError> {
    Ok(compile_all_scenarios(source)?.remove(0))
}

/// Parses, analyzes, and compiles an FSL script, returning the tables of
/// **every** scenario it defines (the regression-suite path; see
/// [`Suite`]).
///
/// # Errors
///
/// Returns [`ScriptError`] on parse or semantic errors, or if the script
/// defines no scenario.
pub fn compile_all_scenarios(source: &str) -> Result<Vec<vw_fsl::TableSet>, ScriptError> {
    let tables = vw_fsl::compile_source(source).map_err(|errors| ScriptError { errors })?;
    if tables.is_empty() {
        return Err(ScriptError {
            errors: vec![vw_fsl::FslError::general("script defines no scenario")],
        });
    }
    Ok(tables)
}
