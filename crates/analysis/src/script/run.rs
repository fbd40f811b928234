//! Script execution: timed injections into the simulator, offline
//! expectation checking against the packet trace, and typed verdicts.
//!
//! Injections are scheduled before the run via the netsim timed
//! endpoints ([`World::inject_from_stack_at`] /
//! [`World::inject_from_wire_at`]), so they participate in the event
//! queue's deterministic FIFO-within-timestamp order like any other
//! traffic. Expectations are evaluated *after* the run against the
//! [`TraceSink`](vw_netsim::TraceSink)'s full-frame records and the
//! report's flight-recorder stream — the script never perturbs the run
//! it is judging.

use std::error::Error;
use std::fmt;

use virtualwire::Report;
use vw_fsl::TableSet;
use vw_netsim::{SimTime, TraceKind, World};
use vw_obs::{ObsEvent, ObsKind};
use vw_packet::{Frame, UdpBuilder, MAX_UDP_PAYLOAD};

use super::ast::{CmpOp, ExpectDir, FrameSpec, Layer, Matcher, Op, Proto, Script};

/// A directive that cannot be bound to the testbed (unknown node,
/// malformed frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptInstallError {
    /// Index of the offending directive in [`Script::directives`].
    pub directive: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScriptInstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "directive {}: {}", self.directive, self.message)
    }
}

impl Error for ScriptInstallError {}

/// The outcome of one checking directive.
#[derive(Debug, Clone)]
pub enum ScriptVerdict {
    /// The expectation held.
    Pass {
        /// Index of the directive in [`Script::directives`].
        directive: usize,
    },
    /// An `expect` found no matching frame at the node, ever.
    MissingExpected {
        /// Index of the directive.
        directive: usize,
    },
    /// An `expect-none` saw a matching frame inside its window.
    UnexpectedFrame {
        /// Index of the directive.
        directive: usize,
        /// When the offending frame was observed.
        time: SimTime,
        /// The observed frame.
        frame: Frame,
        /// The flight-recorder cascade active at the node when the
        /// frame appeared (empty when observability was off).
        causal: Vec<ObsEvent>,
    },
    /// An `expect` found a matching frame, but only outside its window.
    TimingViolation {
        /// Index of the directive.
        directive: usize,
        /// When the nearest matching frame was observed.
        time: SimTime,
        /// The observed frame.
        frame: Frame,
        /// The flight-recorder cascade active at the node when the
        /// frame appeared (empty when observability was off).
        causal: Vec<ObsEvent>,
    },
    /// An `assert-counter` comparison failed (or the counter does not
    /// exist).
    CounterMismatch {
        /// Index of the directive.
        directive: usize,
        /// Counter name.
        counter: String,
        /// The observed value, if the counter exists.
        observed: Option<i64>,
    },
}

impl ScriptVerdict {
    /// `true` for [`ScriptVerdict::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, ScriptVerdict::Pass { .. })
    }

    /// The directive index the verdict refers to.
    pub fn directive(&self) -> usize {
        match *self {
            ScriptVerdict::Pass { directive }
            | ScriptVerdict::MissingExpected { directive }
            | ScriptVerdict::UnexpectedFrame { directive, .. }
            | ScriptVerdict::TimingViolation { directive, .. }
            | ScriptVerdict::CounterMismatch { directive, .. } => directive,
        }
    }

    /// Short class label, stable across runs (`pass`,
    /// `missing-expected`, `unexpected-frame`, `timing-violation`,
    /// `counter-mismatch`).
    pub fn label(&self) -> &'static str {
        match self {
            ScriptVerdict::Pass { .. } => "pass",
            ScriptVerdict::MissingExpected { .. } => "missing-expected",
            ScriptVerdict::UnexpectedFrame { .. } => "unexpected-frame",
            ScriptVerdict::TimingViolation { .. } => "timing-violation",
            ScriptVerdict::CounterMismatch { .. } => "counter-mismatch",
        }
    }
}

impl fmt::Display for ScriptVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptVerdict::Pass { directive } => write!(f, "directive {directive}: pass"),
            ScriptVerdict::MissingExpected { directive } => {
                write!(f, "directive {directive}: missing expected frame")
            }
            ScriptVerdict::UnexpectedFrame {
                directive,
                time,
                frame,
                causal,
            } => write!(
                f,
                "directive {directive}: unexpected {}-byte frame at {time} ({} causal events)",
                frame.len(),
                causal.len()
            ),
            ScriptVerdict::TimingViolation {
                directive,
                time,
                frame,
                causal,
            } => write!(
                f,
                "directive {directive}: timing violation — matching {}-byte frame at {time}, \
                 outside the window ({} causal events)",
                frame.len(),
                causal.len()
            ),
            ScriptVerdict::CounterMismatch {
                directive,
                counter,
                observed,
            } => match observed {
                Some(v) => write!(f, "directive {directive}: counter {counter} was {v}"),
                None => write!(f, "directive {directive}: counter {counter} not found"),
            },
        }
    }
}

/// Schedules every `inject` directive of `script` into `world`.
///
/// Node names resolve against the world's device registry (engine hosts
/// are created under their FSL node-table names); UDP frame specs pull
/// MAC/IP addresses from `tables`. Returns the number of scheduled
/// injections.
///
/// # Errors
///
/// Returns a [`ScriptInstallError`] for an unknown node name or a frame
/// spec that does not build a well-formed frame. Every injection is
/// resolved and built before any is scheduled, so a failing script leaves
/// the world untouched.
pub fn install(
    script: &Script,
    world: &mut World,
    tables: &TableSet,
) -> Result<usize, ScriptInstallError> {
    let mut injections = Vec::new();
    for (i, directive) in script.directives.iter().enumerate() {
        let Op::Inject { layer, node, frame } = &directive.op else {
            continue;
        };
        let fail = |message| ScriptInstallError {
            directive: i,
            message,
        };
        let device = world
            .device_by_name(node)
            .ok_or_else(|| fail(format!("unknown node {node:?}")))?;
        let frame = build_frame(frame, tables).map_err(fail)?;
        let at = SimTime::from_nanos(directive.window.start);
        injections.push((*layer, device, frame, at));
    }
    let scheduled = injections.len();
    for (layer, device, frame, at) in injections {
        match layer {
            Layer::Stack => world.inject_from_stack_at(device, frame, at),
            Layer::Wire => world.inject_from_wire_at(device, frame, at),
        }
    }
    Ok(scheduled)
}

fn build_frame(spec: &FrameSpec, tables: &TableSet) -> Result<Frame, String> {
    match spec {
        FrameSpec::Hex(bytes) => {
            Frame::from_bytes(bytes.clone()).map_err(|e| format!("bad hex frame: {e}"))
        }
        FrameSpec::Udp {
            src,
            dst,
            sport,
            dport,
            payload,
        } => {
            let src = lookup_node(tables, src)?;
            let dst = lookup_node(tables, dst)?;
            if payload.len() > MAX_UDP_PAYLOAD {
                return Err(format!(
                    "{}-byte payload exceeds the {MAX_UDP_PAYLOAD} bytes one UDP datagram carries",
                    payload.len()
                ));
            }
            Ok(UdpBuilder::new()
                .src_mac(src.0)
                .src_ip(src.1)
                .dst_mac(dst.0)
                .dst_ip(dst.1)
                .src_port(*sport)
                .dst_port(*dport)
                .payload(payload)
                .build())
        }
    }
}

fn lookup_node(
    tables: &TableSet,
    name: &str,
) -> Result<(vw_packet::MacAddr, std::net::Ipv4Addr), String> {
    tables
        .nodes
        .iter()
        .find(|n| n.name == name)
        .map(|n| (n.mac, n.ip))
        .ok_or_else(|| format!("node {name:?} not in the node table"))
}

fn frame_matches(frame: &Frame, matcher: &Matcher) -> bool {
    match matcher.proto {
        Proto::Any => {}
        Proto::Udp => {
            if frame.udp().is_none() {
                return false;
            }
        }
        Proto::Tcp => {
            if frame.tcp().is_none() {
                return false;
            }
        }
    }
    matcher.atoms.iter().all(|atom| atom_matches(frame, atom))
}

fn ports(frame: &Frame) -> Option<(u16, u16)> {
    if let Some(udp) = frame.udp() {
        Some((udp.src_port(), udp.dst_port()))
    } else {
        frame.tcp().map(|tcp| (tcp.src_port(), tcp.dst_port()))
    }
}

fn l4_payload(frame: &Frame) -> &[u8] {
    if let Some(udp) = frame.udp() {
        udp.payload()
    } else if let Some(tcp) = frame.tcp() {
        tcp.payload()
    } else {
        frame.payload()
    }
}

fn atom_matches(frame: &Frame, atom: &super::ast::Atom) -> bool {
    use super::ast::Atom;
    match atom {
        Atom::Sport(op, v) => ports(frame).is_some_and(|(s, _)| op.eval(s, *v)),
        Atom::Dport(op, v) => ports(frame).is_some_and(|(_, d)| op.eval(d, *v)),
        Atom::Len(op, v) => op.eval(frame.len() as u32, *v),
        Atom::PayloadContains(needle) => {
            let hay = l4_payload(frame);
            !needle.is_empty()
                && hay
                    .windows(needle.len())
                    .any(|window| window == needle.as_slice())
        }
    }
}

/// The flight-recorder cascade active at `node` when a frame appeared
/// at `time`: the events sharing the `frame_seq` of the last event the
/// node's engine recorded at or before `time`. Empty when nothing was
/// recorded (observability off, or the frame predates all engine
/// activity).
fn causal_slice(report: &Report, tables: &TableSet, node: &str, time: SimTime) -> Vec<ObsEvent> {
    let Some(node_id) = tables.node_by_name(node) else {
        return Vec::new();
    };
    let anchor = report
        .events
        .iter()
        .filter(|e| e.node == node_id && e.time <= time)
        .max_by_key(|e| (e.time, e.frame_seq));
    anchor.map_or_else(Vec::new, |e| {
        report.explain_seq(node_id, e.frame_seq).events
    })
}

/// Evaluates every checking directive of `script` against a finished
/// run, returning one verdict per `expect` / `expect-none` /
/// `assert-counter` directive, in script order. `inject` directives
/// produce no verdict.
///
/// Frame expectations read the world's packet trace (full frames are
/// captured by default); counter assertions replay the report's
/// `CounterUpdated` events up to the directive's time, falling back to
/// the report's terminal counter values when the run recorded no
/// events. Unknown node names yield [`ScriptVerdict::MissingExpected`]
/// (there is nowhere to observe frames) and unknown counters yield
/// [`ScriptVerdict::CounterMismatch`] with no observed value.
pub fn evaluate(
    script: &Script,
    world: &World,
    tables: &TableSet,
    report: &Report,
) -> Vec<ScriptVerdict> {
    let mut verdicts = Vec::new();
    for (i, directive) in script.directives.iter().enumerate() {
        match &directive.op {
            Op::Inject { .. } => {}
            Op::Expect { dir, node, matcher } => {
                verdicts.push(eval_expect(
                    i, directive, *dir, node, matcher, false, world, tables, report,
                ));
            }
            Op::ExpectNone { dir, node, matcher } => {
                verdicts.push(eval_expect(
                    i, directive, *dir, node, matcher, true, world, tables, report,
                ));
            }
            Op::AssertCounter { counter, op, value } => {
                verdicts.push(eval_counter(
                    i, directive, counter, *op, *value, report, tables,
                ));
            }
        }
    }
    verdicts
}

#[allow(clippy::too_many_arguments)]
fn eval_expect(
    index: usize,
    directive: &super::ast::Directive,
    dir: ExpectDir,
    node: &str,
    matcher: &Matcher,
    negated: bool,
    world: &World,
    tables: &TableSet,
    report: &Report,
) -> ScriptVerdict {
    let kind = match dir {
        ExpectDir::Send => TraceKind::HostSend,
        ExpectDir::Recv => TraceKind::HostRecv,
    };
    let device = world.device_by_name(node);
    let window = directive.window;
    let mut in_window: Option<(SimTime, Frame)> = None;
    let mut nearest: Option<(u64, SimTime, Frame)> = None;
    if let Some(device) = device {
        for record in world.trace().records() {
            if record.device != device || record.kind != kind {
                continue;
            }
            let Some(frame) = &record.frame else { continue };
            if !frame_matches(frame, matcher) {
                continue;
            }
            let nanos = record.time.as_nanos();
            if window.contains(nanos) {
                if in_window.is_none() {
                    in_window = Some((record.time, frame.clone()));
                }
                // The first in-window match settles a positive expect;
                // keep scanning only if a negative one needs the first
                // offender, which this already is.
                break;
            }
            let distance = if nanos < window.start {
                window.start - nanos
            } else {
                nanos - window.close()
            };
            if nearest.as_ref().is_none_or(|(d, _, _)| distance < *d) {
                nearest = Some((distance, record.time, frame.clone()));
            }
        }
    }
    if negated {
        match in_window {
            Some((time, frame)) => ScriptVerdict::UnexpectedFrame {
                directive: index,
                time,
                causal: causal_slice(report, tables, node, time),
                frame,
            },
            None => ScriptVerdict::Pass { directive: index },
        }
    } else {
        match (in_window, nearest) {
            (Some(_), _) => ScriptVerdict::Pass { directive: index },
            (None, Some((_, time, frame))) => ScriptVerdict::TimingViolation {
                directive: index,
                time,
                causal: causal_slice(report, tables, node, time),
                frame,
            },
            (None, None) => ScriptVerdict::MissingExpected { directive: index },
        }
    }
}

fn eval_counter(
    index: usize,
    directive: &super::ast::Directive,
    counter: &str,
    op: CmpOp,
    value: i64,
    report: &Report,
    tables: &TableSet,
) -> ScriptVerdict {
    let at = SimTime::from_nanos(directive.window.close());
    let mut observed: Option<i64> = None;
    let mut any_update = false;
    if let Some(id) = tables.counter_by_name(counter) {
        let mut best: Option<(SimTime, i64)> = None;
        for event in &report.events {
            if let ObsKind::CounterUpdated { counter, new, .. } = event.kind {
                if counter == id {
                    any_update = true;
                    if event.time <= at && best.is_none_or(|(t, _)| event.time >= t) {
                        best = Some((event.time, new));
                    }
                }
            }
        }
        if any_update {
            // Updates were recorded: the counter's value at `at` is the
            // latest update no later than it, or its initial 0 if every
            // update came after.
            observed = Some(best.map_or(0, |(_, v)| v));
        }
    }
    if !any_update {
        // No recorded updates (observability off, or an unscripted
        // counter): fall back to the terminal value the report carries.
        observed = report
            .counters
            .iter()
            .find(|(_, name, _)| name == counter)
            .map(|&(_, _, v)| v);
    }
    match observed {
        Some(actual) if op.eval(actual, value) => ScriptVerdict::Pass { directive: index },
        other => ScriptVerdict::CounterMismatch {
            directive: index,
            counter: counter.to_string(),
            observed: other,
        },
    }
}
