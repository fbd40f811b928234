//! Packetdrill-style scripted stimulus and expectation checking for
//! VirtualWire runs.
//!
//! Where FSL (the paper's fault-specification language) reacts to the
//! traffic a protocol generates, a *scenario script* drives the run
//! from outside: timed frame injections, time-windowed expectations
//! about what each node must (or must not) see, and counter assertions
//! — the packetdrill idea transplanted onto the deterministic
//! simulator. A script is plain text, one directive per line:
//!
//! ```text
//! # stimulus: a scripted datagram enters node1's stack at t=10ms
//! @10ms inject stack node1 udp node1 -> node2 sport 9000 dport 25443 payload-hex 68690a
//! # node2 must see it within a 5ms tolerance window
//! @10ms..15ms expect recv node2 udp dport == 25443 payload-contains-hex 6869
//! # and nothing UDP may reach node2 after 40ms
//! @40ms..1s expect-none recv node2 udp any
//! # the scenario's Sent counter must have reached 3 by t=50ms
//! @50ms assert-counter Sent >= 3
//! ```
//!
//! (The `any` above is part of a second matcher example — a matcher is
//! a protocol selector `any`/`udp`/`tcp` followed by field atoms.)
//!
//! The lifecycle is three calls:
//!
//! 1. [`Script::parse`] — text to AST, typed [`ScriptParseError`]s,
//!    no panics. [`Script::print`] is the canonical inverse.
//! 2. [`install`] — schedule every `inject` into the
//!    [`World`](vw_netsim::World) *before* the run; injections ride the
//!    event queue's deterministic order.
//! 3. [`evaluate`] — after the run, judge every expectation against
//!    the packet trace and the report, producing typed
//!    [`ScriptVerdict`]s with the observed frame and the node's active
//!    flight-recorder cascade attached.

mod ast;
mod parse;
mod run;

pub use ast::{
    Atom, CmpOp, Directive, ExpectDir, FrameSpec, Layer, Matcher, Op, Proto, Script, Window,
};
pub use parse::{ParseErrorKind, ScriptParseError};
pub use run::{evaluate, install, ScriptInstallError, ScriptVerdict};
