//! VirtualWire's control-plane wire protocol.
//!
//! "The control plane messages are implemented as payloads of raw Ethernet
//! frames" (Section 5.2). This module defines those payloads:
//!
//! * `INIT` — the full six-table set, shipped from the control node to
//!   every participating FIE/FAE ("all FIEs and FAEs are sent the entire
//!   set of tables", Section 5.1), acknowledged with `INIT_ACK`;
//! * `COUNTER_UPDATE` — a counter's new value, sent from its home node to
//!   subscribers that evaluate terms over it;
//! * `TERM_STATUS` — a term's truth value, sent from its evaluating node
//!   to remote condition evaluators ("a term status is conveyed only in
//!   case of a change in its status");
//! * `FLAG_ERROR` — a protocol violation, reported to the control node;
//! * `STOP` — scenario termination, broadcast by whichever node executed
//!   the `STOP` action;
//! * `ACK` — a pure acknowledgment carrier for the reliability layer.
//!
//! Everything is encoded big-endian through [`vw_packet::codec`], so the
//! tables genuinely travel through the simulated network during
//! initialization. The format's own rules on top of the codec's: every
//! length and count prefix is a `u16`, and a body is exactly one message.
//!
//! ## Versioned reliability header
//!
//! Since wire version 2 every control payload is preceded by a fixed
//! 14-byte header (see [`WIRE_MAGIC`]/[`WIRE_VERSION`]):
//!
//! ```text
//! offset  0: magic      (u8, 0xD7 — distinct from every v1 tag byte)
//! offset  1: version    (u8, currently 2)
//! offset  2: body_len   (u32 BE, exact length of the message body)
//! offset  6: seq        (u32 BE, per-peer sequence number; 0 = unsequenced)
//! offset 10: ack        (u32 BE, cumulative ack of the peer's seqs; 0 = none)
//! ```
//!
//! `COUNTER_UPDATE` and `TERM_STATUS` travel sequenced (seq > 0) so
//! receivers can dedupe and reorder-buffer them (the engine runs each
//! peer's stream through a `vw_rll::window` ARQ session); everything else is
//! unsequenced. Old (v1, unsequenced) payloads start with a tag byte in
//! `1..=7` and are rejected with the typed
//! [`ControlDecodeError::Legacy`] instead of being misparsed.

use std::cell::RefCell;
use std::fmt;
use std::net::Ipv4Addr;

use vw_fsl::{
    ActionId, CompiledAction, CompiledActionKind, CompiledCondition, CompiledCounter,
    CompiledCounterKind, CompiledFilter, CompiledNode, CompiledOperand, CompiledTerm, CondId,
    CondNode, CounterId, CounterOp, Dir, Fault, FilterId, FilterTuple, ModifyPattern, NodeId,
    PacketSel, PatternValue, RelOp, TableSet, Tables, TermId,
};
use vw_packet::codec::{Reader, Writer};
use vw_packet::{EtherType, Frame, MacAddr, ParseError, ETHERNET_HEADER_LEN};

/// A control-plane message.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Table distribution from the control node.
    Init {
        /// The compiled scenario: the sender's own handle, not a copy.
        tables: TableSet,
        /// Which node id the receiver plays in the scenario.
        you_are: NodeId,
    },
    /// Initialization acknowledged.
    InitAck {
        /// The acknowledging node.
        node: NodeId,
    },
    /// A counter's authoritative value changed.
    CounterUpdate {
        /// The counter.
        counter: CounterId,
        /// Its new value.
        value: i64,
    },
    /// A term's truth value changed.
    TermStatus {
        /// The term.
        term: TermId,
        /// Its new status.
        status: bool,
    },
    /// A `FLAG_ERR` fired.
    FlagError {
        /// The flagging node.
        node: NodeId,
        /// Condition that fired it.
        condition: CondId,
        /// Human-readable description.
        message: String,
    },
    /// A `STOP` fired.
    Stop {
        /// The stopping node.
        node: NodeId,
        /// Why.
        reason: String,
    },
    /// A pure acknowledgment: carries no body of its own — the cumulative
    /// ack lives in the versioned header. Sent when a node receives a
    /// sequenced update but has nothing of its own to piggyback the ack on.
    Ack,
}

// ---------------------------------------------------------------------
// Message encoding
// ---------------------------------------------------------------------

const TAG_INIT: u8 = 1;
const TAG_INIT_ACK: u8 = 2;
const TAG_COUNTER_UPDATE: u8 = 3;
const TAG_TERM_STATUS: u8 = 4;
const TAG_FLAG_ERROR: u8 = 5;
const TAG_STOP: u8 = 6;
const TAG_ACK: u8 = 7;

/// Encodes a control message as a raw payload.
///
/// # Panics
///
/// If a string or list is too long for its `u16` prefix. `vw_fsl::compile`
/// bounds every name, message and order list it emits, so only a
/// hand-built table set gets here; wrapping the prefix would decode as a
/// different table set.
pub fn encode(msg: &ControlMsg) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(&mut Writer::be(&mut out), msg);
    out
}

fn encode_into(w: &mut Writer<'_>, msg: &ControlMsg) {
    match msg {
        ControlMsg::Init { tables, you_are } => {
            w.u8(TAG_INIT);
            w.u16(you_are.0);
            encode_tables(w, tables);
        }
        ControlMsg::InitAck { node } => {
            w.u8(TAG_INIT_ACK);
            w.u16(node.0);
        }
        ControlMsg::CounterUpdate { counter, value } => {
            w.u8(TAG_COUNTER_UPDATE);
            w.u16(counter.0);
            w.i64(*value);
        }
        ControlMsg::TermStatus { term, status } => {
            w.u8(TAG_TERM_STATUS);
            w.u16(term.0);
            w.bool(*status);
        }
        ControlMsg::FlagError {
            node,
            condition,
            message,
        } => {
            w.u8(TAG_FLAG_ERROR);
            w.u16(node.0);
            w.u16(condition.0);
            w.str16(message);
        }
        ControlMsg::Stop { node, reason } => {
            w.u8(TAG_STOP);
            w.u16(node.0);
            w.str16(reason);
        }
        ControlMsg::Ack => {
            w.u8(TAG_ACK);
        }
    }
}

/// Decodes a control payload, which must be exactly one message.
///
/// # Errors
///
/// Returns [`ParseError`] on truncation, unknown tags, or bytes left
/// over after the message.
pub fn decode(bytes: &[u8]) -> Result<ControlMsg, ParseError> {
    Reader::be(bytes).whole(|r| decode_msg(r, bytes))
}

/// Decodes the message `r` reads out of `bytes`.
fn decode_msg(r: &mut Reader<'_>, bytes: &[u8]) -> Result<ControlMsg, ParseError> {
    Ok(match r.u8()? {
        TAG_INIT => {
            let you_are = NodeId(r.u16()?);
            let tables = decode_init_tables(r, &bytes[r.position()..], you_are)?;
            ControlMsg::Init { tables, you_are }
        }
        TAG_INIT_ACK => ControlMsg::InitAck {
            node: NodeId(r.u16()?),
        },
        TAG_COUNTER_UPDATE => ControlMsg::CounterUpdate {
            counter: CounterId(r.u16()?),
            value: r.i64()?,
        },
        TAG_TERM_STATUS => ControlMsg::TermStatus {
            term: TermId(r.u16()?),
            status: r.bool()?,
        },
        TAG_FLAG_ERROR => ControlMsg::FlagError {
            node: NodeId(r.u16()?),
            condition: CondId(r.u16()?),
            message: r.str16()?,
        },
        TAG_STOP => ControlMsg::Stop {
            node: NodeId(r.u16()?),
            reason: r.str16()?,
        },
        TAG_ACK => ControlMsg::Ack,
        tag => {
            return Err(ParseError::new(format!(
                "unknown control message tag {tag}"
            )));
        }
    })
}

thread_local! {
    /// The table bytes of the last `Init` this thread decoded whole, and
    /// the tables they decoded to.
    static LAST_INIT: RefCell<(Vec<u8>, Option<TableSet>)> =
        const { RefCell::new((Vec::new(), None)) };
}

/// Decodes an `Init`'s tables, the last field of its body; `rest` is
/// what `r` has left. Every peer of a campaign's instances is sent the
/// same tables, so when `rest` begins with the table bytes this thread
/// decoded last, the result is the set those bytes decoded to, shared:
/// the encoding is deterministic and self-delimiting, so equal bytes
/// decode to equal tables and span the same length. The ids are checked
/// against `you_are` either way, and only an `Init` that decodes whole
/// is remembered.
fn decode_init_tables(
    r: &mut Reader<'_>,
    rest: &[u8],
    you_are: NodeId,
) -> Result<TableSet, ParseError> {
    LAST_INIT.with_borrow_mut(|(last_bytes, last)| {
        if let Some(tables) = last.as_ref().filter(|_| rest.starts_with(last_bytes)) {
            r.take(last_bytes.len())?;
            check_ids(tables, you_are)?;
            return Ok(TableSet::clone(tables));
        }
        let tables = decode_tables(r)?;
        check_ids(&tables, you_are)?;
        // With bytes left over, `decode` refuses the message.
        if r.remaining() == 0 {
            last_bytes.clear();
            last_bytes.extend_from_slice(rest);
            *last = Some(TableSet::clone(&tables));
        }
        Ok(tables)
    })
}

// ---------------------------------------------------------------------
// Versioned reliability header (wire v2)
// ---------------------------------------------------------------------

/// First byte of every versioned control payload. Chosen outside the v1
/// tag range `1..=7` so old unsequenced payloads are detected, not
/// misparsed.
pub const WIRE_MAGIC: u8 = 0xD7;
/// Current control-plane wire version. Version 1 was the unsequenced
/// tag-first layout; it is rejected with [`ControlDecodeError::Legacy`].
pub const WIRE_VERSION: u8 = 2;
/// Fixed size of the versioned header preceding the message body.
pub const HEADER_LEN: usize = 14;

/// A decoded versioned control payload: reliability header plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlFrame {
    /// Per-peer sequence number; 0 means unsequenced (fire-and-forget).
    pub seq: u32,
    /// Cumulative acknowledgment of the *peer's* sequence numbers; 0 means
    /// nothing acknowledged yet.
    pub ack: u32,
    /// The message body.
    pub msg: ControlMsg,
}

/// Why a versioned control payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlDecodeError {
    /// The frame does not carry [`EtherType::VW_CONTROL`].
    NotControl,
    /// The payload is shorter than the fixed header.
    Truncated,
    /// A wire-v1 (unsequenced, tag-first) payload: `tag` is its leading
    /// tag byte. Old frames are rejected, never misparsed as v2.
    Legacy {
        /// The v1 message tag the payload led with.
        tag: u8,
    },
    /// The leading byte is neither a v1 tag nor the v2 magic.
    BadMagic {
        /// The byte found.
        byte: u8,
    },
    /// The header names a wire version this decoder does not speak.
    UnsupportedVersion {
        /// The version found.
        version: u8,
    },
    /// The explicit length field promises more body bytes than the
    /// payload holds.
    LengthMismatch {
        /// Bytes the header declared.
        declared: usize,
        /// Bytes actually available after the header.
        available: usize,
    },
    /// The header was sound but the message body failed to decode.
    Body(ParseError),
}

impl fmt::Display for ControlDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlDecodeError::NotControl => f.write_str("not a VirtualWire control frame"),
            ControlDecodeError::Truncated => f.write_str("control payload shorter than header"),
            ControlDecodeError::Legacy { tag } => {
                write!(f, "legacy unsequenced control payload (v1 tag {tag})")
            }
            ControlDecodeError::BadMagic { byte } => {
                write!(f, "bad control magic byte {byte:#04x}")
            }
            ControlDecodeError::UnsupportedVersion { version } => {
                write!(f, "unsupported control wire version {version}")
            }
            ControlDecodeError::LengthMismatch {
                declared,
                available,
            } => write!(
                f,
                "control body length field claims {declared} bytes, {available} available"
            ),
            ControlDecodeError::Body(e) => write!(f, "control body malformed: {e}"),
        }
    }
}

impl std::error::Error for ControlDecodeError {}

impl From<ControlDecodeError> for ParseError {
    fn from(e: ControlDecodeError) -> ParseError {
        ParseError::new(e.to_string())
    }
}

/// Encodes a message under the versioned reliability header.
pub fn encode_sequenced(seq: u32, ack: u32, msg: &ControlMsg) -> Vec<u8> {
    let mut out = vw_packet::arena::take_buffer(HEADER_LEN);
    encode_sequenced_into(&mut out, seq, ack, msg);
    out
}

/// Appends [`encode_sequenced`]'s bytes to whatever `out` already holds
/// (a frame's Ethernet header): the reliability header with its length
/// field held open, the body straight behind it, then the length filled
/// in.
fn encode_sequenced_into(out: &mut Vec<u8>, seq: u32, ack: u32, msg: &ControlMsg) {
    const LEN_AT: usize = 2;
    let start = out.len();
    let mut w = Writer::be(out);
    w.u8(WIRE_MAGIC);
    w.u8(WIRE_VERSION);
    w.u32(0);
    w.u32(seq);
    w.u32(ack);
    encode_into(&mut w, msg);
    let body_len = out.len() - start - HEADER_LEN;
    Writer::be(out).patch_len32(start + LEN_AT, body_len);
}

/// Decodes a versioned control payload. Bytes past the declared body
/// length are tolerated (frame padding); bytes missing from it are not.
///
/// # Errors
///
/// Returns a typed [`ControlDecodeError`]; in particular, wire-v1
/// payloads (leading byte in `1..=7`) yield
/// [`ControlDecodeError::Legacy`].
pub fn decode_sequenced(bytes: &[u8]) -> Result<ControlFrame, ControlDecodeError> {
    let first = *bytes.first().ok_or(ControlDecodeError::Truncated)?;
    if (TAG_INIT..=TAG_ACK).contains(&first) {
        return Err(ControlDecodeError::Legacy { tag: first });
    }
    if first != WIRE_MAGIC {
        return Err(ControlDecodeError::BadMagic { byte: first });
    }
    let mut r = Reader::be(bytes);
    let mut header = || {
        r.u8()?; // the magic, matched above
        Ok((r.u8()?, r.u32()?, r.u32()?, r.u32()?))
    };
    let (version, declared, seq, ack) =
        header().map_err(|_: ParseError| ControlDecodeError::Truncated)?;
    if version != WIRE_VERSION {
        return Err(ControlDecodeError::UnsupportedVersion { version });
    }
    let declared = declared as usize;
    let body = r
        .take(declared)
        .map_err(|_| ControlDecodeError::LengthMismatch {
            declared,
            available: r.remaining(),
        })?;
    match decode(body) {
        Ok(msg) => Ok(ControlFrame { seq, ack, msg }),
        Err(e) => Err(ControlDecodeError::Body(e)),
    }
}

/// Wraps an unsequenced control message in an Ethernet frame with the
/// VirtualWire control EtherType (versioned header, seq = ack = 0).
pub fn build_frame(src: MacAddr, dst: MacAddr, msg: &ControlMsg) -> Frame {
    build_sequenced_frame(src, dst, 0, 0, msg)
}

/// Wraps a control message in an Ethernet frame with an explicit
/// sequence number and cumulative ack.
pub fn build_sequenced_frame(
    src: MacAddr,
    dst: MacAddr,
    seq: u32,
    ack: u32,
    msg: &ControlMsg,
) -> Frame {
    // Exact for every message a running scenario sends; an `Init` (once
    // per node, while the testbed settles) grows its buffer past it unless
    // it is built by `build_init_frame`.
    let body = match msg {
        ControlMsg::FlagError { message, .. } => 7 + message.len(),
        ControlMsg::Stop { reason, .. } => 5 + reason.len(),
        _ => 11,
    };
    Frame::assemble(dst, src, EtherType::VW_CONTROL, HEADER_LEN + body, |out| {
        encode_sequenced_into(out, seq, ack, msg)
    })
}

/// [`build_frame`] for an `Init`, whose length depends on its tables:
/// the buffer is sized for `frame_len` bytes, the length of an `Init`
/// frame built before from the same tables (every one of them has it), or
/// grows as the tables are written when that is 0.
pub(crate) fn build_init_frame(
    src: MacAddr,
    dst: MacAddr,
    msg: &ControlMsg,
    frame_len: usize,
) -> Frame {
    let payload = frame_len.saturating_sub(ETHERNET_HEADER_LEN);
    Frame::assemble(dst, src, EtherType::VW_CONTROL, payload, |out| {
        encode_sequenced_into(out, 0, 0, msg)
    })
}

/// Parses a control frame's versioned payload, header included.
///
/// # Errors
///
/// Returns a typed [`ControlDecodeError`].
pub fn parse_control(frame: &Frame) -> Result<ControlFrame, ControlDecodeError> {
    if frame.ethertype() != EtherType::VW_CONTROL {
        return Err(ControlDecodeError::NotControl);
    }
    decode_sequenced(frame.payload())
}

/// Parses a control frame, discarding the reliability header.
///
/// # Errors
///
/// Returns [`ParseError`] if the frame's EtherType is not
/// [`EtherType::VW_CONTROL`] or the payload is malformed.
pub fn parse_frame(frame: &Frame) -> Result<ControlMsg, ParseError> {
    parse_control(frame)
        .map(|cf| cf.msg)
        .map_err(ParseError::from)
}

// ---------------------------------------------------------------------
// TableSet codec
// ---------------------------------------------------------------------

fn encode_tables(w: &mut Writer<'_>, t: &TableSet) {
    w.str16(&t.scenario);
    w.opt(t.timeout_ns, Writer::u64);
    w.list16(&t.vars, |w, var| w.str16(var));
    w.list16(&t.filters, |w, f| {
        w.str16(&f.name);
        w.opt(f.discriminant, Writer::u16);
        w.list16(&f.tuples, |w, tuple| {
            w.u32(tuple.offset);
            w.u32(tuple.len);
            w.opt(tuple.mask, Writer::u64);
            match &tuple.pattern {
                PatternValue::Literal(v) => {
                    w.u8(0);
                    w.u64(*v);
                }
                PatternValue::Var(name) => {
                    w.u8(1);
                    w.str16(name);
                }
            }
        });
    });
    w.list16(&t.nodes, |w, n| {
        w.str16(&n.name);
        w.bytes(&n.mac.octets());
        w.bytes(&n.ip.octets());
    });
    w.list16(&t.counters, |w, c| {
        w.str16(&c.name);
        match &c.kind {
            CompiledCounterKind::Packet(sel) => {
                w.u8(0);
                encode_sel(w, sel);
            }
            CompiledCounterKind::Local => w.u8(1),
        }
        w.u16(c.home.0);
        w.list16(&c.affected_terms, |w, term| w.u16(term.0));
        w.list16(&c.subscribers, |w, node| w.u16(node.0));
    });
    w.list16(&t.terms, |w, term| {
        encode_operand(w, term.lhs);
        encode_relop(w, term.op);
        encode_operand(w, term.rhs);
        w.u16(term.eval_node.0);
        w.list16(&term.conditions, |w, cond| w.u16(cond.0));
    });
    w.list16(&t.conditions, |w, cond| {
        encode_cond_node(w, &cond.expr);
        w.list16(&cond.eval_nodes, |w, node| w.u16(node.0));
        for pairs in [&cond.triggers, &cond.gates] {
            w.list16(pairs, |w, (node, action)| {
                w.u16(node.0);
                w.u16(action.0);
            });
        }
    });
    w.list16(&t.actions, |w, action| {
        w.u16(action.node.0);
        encode_action_kind(w, &action.kind);
    });
}

// The `list16` minimums below are each element's smallest encoding.
fn decode_tables(r: &mut Reader<'_>) -> Result<TableSet, ParseError> {
    Ok(Tables {
        scenario: r.str16()?,
        timeout_ns: r.opt(Reader::u64)?,
        vars: r.list16(2, Reader::str16)?,
        filters: r.list16(5, decode_filter)?,
        nodes: r.list16(12, |r| {
            Ok(CompiledNode {
                name: r.str16()?,
                mac: MacAddr::new(r.array()?),
                ip: Ipv4Addr::from(r.array::<4>()?),
            })
        })?,
        counters: r.list16(9, |r| {
            Ok(CompiledCounter {
                name: r.str16()?,
                kind: match r.u8()? {
                    0 => CompiledCounterKind::Packet(decode_sel(r)?),
                    1 => CompiledCounterKind::Local,
                    _ => return Err(ParseError::new("bad counter kind tag")),
                },
                home: NodeId(r.u16()?),
                affected_terms: r.list16(2, |r| r.u16().map(TermId))?,
                subscribers: r.list16(2, |r| r.u16().map(NodeId))?,
            })
        })?,
        terms: r.list16(11, |r| {
            Ok(CompiledTerm {
                lhs: decode_operand(r)?,
                op: decode_relop(r)?,
                rhs: decode_operand(r)?,
                eval_node: NodeId(r.u16()?),
                conditions: r.list16(2, |r| r.u16().map(CondId))?,
            })
        })?,
        conditions: r.list16(7, |r| {
            let node_action = |r: &mut Reader<'_>| Ok((NodeId(r.u16()?), ActionId(r.u16()?)));
            Ok(CompiledCondition {
                expr: decode_cond_node(r)?,
                eval_nodes: r.list16(2, |r| r.u16().map(NodeId))?,
                triggers: r.list16(4, node_action)?,
                gates: r.list16(4, node_action)?,
            })
        })?,
        actions: r.list16(3, |r| {
            Ok(CompiledAction {
                node: NodeId(r.u16()?),
                kind: decode_action_kind(r)?,
            })
        })?,
    }
    .into())
}

fn decode_filter(r: &mut Reader<'_>) -> Result<CompiledFilter, ParseError> {
    let name = r.str16()?;
    let discriminant = r.opt(Reader::u16)?;
    let tuples = r.list16(12, |r| {
        Ok(FilterTuple {
            offset: r.u32()?,
            len: r.u32()?,
            mask: r.opt(Reader::u64)?,
            pattern: match r.u8()? {
                0 => PatternValue::Literal(r.u64()?),
                1 => PatternValue::Var(r.str16()?),
                _ => return Err(ParseError::new("bad pattern tag")),
            },
        })
    })?;
    // A forged discriminant must never reach the classifier's index
    // builder: it has to reference an in-range literal tuple.
    if let Some(d) = discriminant {
        let valid = tuples
            .get(d as usize)
            .is_some_and(|t| matches!(t.pattern, PatternValue::Literal(_)));
        if !valid {
            return Err(ParseError::new("bad filter discriminant"));
        }
    }
    Ok(CompiledFilter {
        name,
        tuples,
        discriminant,
    })
}

fn encode_sel(w: &mut Writer<'_>, sel: &PacketSel) {
    w.u16(sel.filter.0);
    w.u16(sel.from.0);
    w.u16(sel.to.0);
    w.u8(match sel.dir {
        Dir::Send => 0,
        Dir::Recv => 1,
    });
}

fn decode_sel(r: &mut Reader<'_>) -> Result<PacketSel, ParseError> {
    Ok(PacketSel {
        filter: FilterId(r.u16()?),
        from: NodeId(r.u16()?),
        to: NodeId(r.u16()?),
        dir: match r.u8()? {
            0 => Dir::Send,
            1 => Dir::Recv,
            _ => return Err(ParseError::new("bad direction tag")),
        },
    })
}

fn encode_relop(w: &mut Writer<'_>, op: RelOp) {
    w.u8(match op {
        RelOp::Gt => 0,
        RelOp::Lt => 1,
        RelOp::Ge => 2,
        RelOp::Le => 3,
        RelOp::Eq => 4,
        RelOp::Ne => 5,
    });
}

fn decode_relop(r: &mut Reader<'_>) -> Result<RelOp, ParseError> {
    Ok(match r.u8()? {
        0 => RelOp::Gt,
        1 => RelOp::Lt,
        2 => RelOp::Ge,
        3 => RelOp::Le,
        4 => RelOp::Eq,
        5 => RelOp::Ne,
        _ => return Err(ParseError::new("bad relop tag")),
    })
}

fn encode_operand(w: &mut Writer<'_>, op: CompiledOperand) {
    match op {
        CompiledOperand::Counter(c) => {
            w.u8(0);
            w.u16(c.0);
        }
        CompiledOperand::Const(v) => {
            w.u8(1);
            w.i64(v);
        }
    }
}

fn decode_operand(r: &mut Reader<'_>) -> Result<CompiledOperand, ParseError> {
    match r.u8()? {
        0 => Ok(CompiledOperand::Counter(CounterId(r.u16()?))),
        1 => Ok(CompiledOperand::Const(r.i64()?)),
        _ => Err(ParseError::new("bad operand tag")),
    }
}

fn encode_cond_node(w: &mut Writer<'_>, node: &CondNode) {
    match node {
        CondNode::True => w.u8(0),
        CondNode::False => w.u8(1),
        CondNode::Term(t) => {
            w.u8(2);
            w.u16(t.0);
        }
        CondNode::And(a, b) => {
            w.u8(3);
            encode_cond_node(w, a);
            encode_cond_node(w, b);
        }
        CondNode::Or(a, b) => {
            w.u8(4);
            encode_cond_node(w, a);
            encode_cond_node(w, b);
        }
        CondNode::Not(a) => {
            w.u8(5);
            encode_cond_node(w, a);
        }
    }
}

fn decode_cond_node(r: &mut Reader<'_>) -> Result<CondNode, ParseError> {
    Ok(match r.u8()? {
        0 => CondNode::True,
        1 => CondNode::False,
        2 => CondNode::Term(TermId(r.u16()?)),
        3 => CondNode::And(
            Box::new(decode_cond_node(r)?),
            Box::new(decode_cond_node(r)?),
        ),
        4 => CondNode::Or(
            Box::new(decode_cond_node(r)?),
            Box::new(decode_cond_node(r)?),
        ),
        5 => CondNode::Not(Box::new(decode_cond_node(r)?)),
        _ => return Err(ParseError::new("bad condition node tag")),
    })
}

// Action tags: 0-7 are the Table I counter operations, 8-12 the Table II
// faults, 13-15 FAIL / STOP / FLAG_ERR. After the tag come the family's
// operand (counter id or packet selector) and the kind's own arguments.
fn encode_action_kind(w: &mut Writer<'_>, kind: &CompiledActionKind) {
    match kind {
        CompiledActionKind::Counter { counter, op } => {
            let (tag, value) = match *op {
                CounterOp::Assign(v) => (0, Some(v)),
                CounterOp::Enable => (1, None),
                CounterOp::Disable => (2, None),
                CounterOp::Incr(v) => (3, Some(v)),
                CounterOp::Decr(v) => (4, Some(v)),
                CounterOp::Reset => (5, None),
                CounterOp::SetCurTime => (6, None),
                CounterOp::ElapsedTime => (7, None),
            };
            w.u8(tag);
            w.u16(counter.0);
            if let Some(v) = value {
                w.i64(v);
            }
        }
        CompiledActionKind::Fault { on, fault } => {
            w.u8(match fault {
                Fault::Drop => 8,
                Fault::Delay { .. } => 9,
                Fault::Reorder { .. } => 10,
                Fault::Dup => 11,
                Fault::Modify(_) => 12,
            });
            encode_sel(w, on);
            match fault {
                Fault::Drop | Fault::Dup => {}
                Fault::Delay { duration_ns } => w.u64(*duration_ns),
                Fault::Reorder { count, order } => {
                    w.u32(*count);
                    w.list16(order, |w, o| w.u32(*o));
                }
                Fault::Modify(ModifyPattern::Random) => w.u8(0),
                Fault::Modify(ModifyPattern::Set { offset, len, value }) => {
                    w.u8(1);
                    w.u32(*offset);
                    w.u32(*len);
                    w.u64(*value);
                }
            }
        }
        CompiledActionKind::Fail { node } => {
            w.u8(13);
            w.u16(node.0);
        }
        CompiledActionKind::Stop => w.u8(14),
        CompiledActionKind::FlagError { message } => {
            w.u8(15);
            w.opt(message.as_deref(), Writer::str16);
        }
    }
}

fn decode_action_kind(r: &mut Reader<'_>) -> Result<CompiledActionKind, ParseError> {
    let tag = r.u8()?;
    Ok(match tag {
        0..=7 => CompiledActionKind::Counter {
            counter: CounterId(r.u16()?),
            op: match tag {
                0 => CounterOp::Assign(r.i64()?),
                1 => CounterOp::Enable,
                2 => CounterOp::Disable,
                3 => CounterOp::Incr(r.i64()?),
                4 => CounterOp::Decr(r.i64()?),
                5 => CounterOp::Reset,
                6 => CounterOp::SetCurTime,
                _ => CounterOp::ElapsedTime,
            },
        },
        8..=12 => CompiledActionKind::Fault {
            on: decode_sel(r)?,
            fault: match tag {
                8 => Fault::Drop,
                9 => Fault::Delay {
                    duration_ns: r.u64()?,
                },
                10 => Fault::Reorder {
                    count: r.u32()?,
                    order: r.list16(4, Reader::u32)?,
                },
                11 => Fault::Dup,
                _ => Fault::Modify(match r.u8()? {
                    0 => ModifyPattern::Random,
                    1 => ModifyPattern::Set {
                        offset: r.u32()?,
                        len: r.u32()?,
                        value: r.u64()?,
                    },
                    _ => return Err(ParseError::new("bad modify pattern tag")),
                }),
            },
        },
        13 => CompiledActionKind::Fail {
            node: NodeId(r.u16()?),
        },
        14 => CompiledActionKind::Stop,
        15 => CompiledActionKind::FlagError {
            message: r.opt(Reader::str16)?,
        },
        tag => return Err(ParseError::new(format!("unknown action tag {tag}"))),
    })
}

/// Refuses a table set in which any id does not index an existing row.
/// Tables arrive from the wire; once they pass, the engine may index a
/// table with every id the set holds.
fn check_ids(t: &TableSet, you_are: NodeId) -> Result<(), ParseError> {
    type Row = (&'static str, usize);
    let bound = |row: Row, what: &str, id: usize, len: usize| {
        if id < len {
            return Ok(());
        }
        Err(ParseError::new(format!(
            "{} {}: {what} id {id} is outside the {len}-row table",
            row.0, row.1
        )))
    };
    let node = |row, id: NodeId| bound(row, "node", id.index(), t.nodes.len());
    let counter = |row, id: CounterId| bound(row, "counter", id.index(), t.counters.len());
    let term = |row, id: TermId| bound(row, "term", id.index(), t.terms.len());
    let sel = |row, s: &PacketSel| {
        bound(row, "filter", s.filter.index(), t.filters.len())?;
        node(row, s.from)?;
        node(row, s.to)
    };
    fn leaves(
        expr: &CondNode,
        check: &dyn Fn(TermId) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        match expr {
            CondNode::True | CondNode::False => Ok(()),
            CondNode::Term(id) => check(*id),
            CondNode::And(a, b) | CondNode::Or(a, b) => {
                leaves(a, check)?;
                leaves(b, check)
            }
            CondNode::Not(a) => leaves(a, check),
        }
    }

    node(("init", 0), you_are)?;
    for (i, c) in t.counters.iter().enumerate() {
        let row = ("counter", i);
        if let CompiledCounterKind::Packet(s) = &c.kind {
            sel(row, s)?;
        }
        node(row, c.home)?;
        c.affected_terms.iter().try_for_each(|&id| term(row, id))?;
        c.subscribers.iter().try_for_each(|&id| node(row, id))?;
    }
    for (i, tm) in t.terms.iter().enumerate() {
        let row = ("term", i);
        for operand in [tm.lhs, tm.rhs] {
            if let CompiledOperand::Counter(id) = operand {
                counter(row, id)?;
            }
        }
        node(row, tm.eval_node)?;
        let nconds = t.conditions.len();
        (tm.conditions.iter()).try_for_each(|c| bound(row, "condition", c.index(), nconds))?;
    }
    for (i, cond) in t.conditions.iter().enumerate() {
        let row = ("condition", i);
        leaves(&cond.expr, &|id| term(row, id))?;
        cond.eval_nodes.iter().try_for_each(|&id| node(row, id))?;
        for &(at, action) in cond.triggers.iter().chain(&cond.gates) {
            node(row, at)?;
            bound(row, "action", action.index(), t.actions.len())?;
        }
    }
    for (i, action) in t.actions.iter().enumerate() {
        let row = ("action", i);
        node(row, action.node)?;
        match &action.kind {
            CompiledActionKind::Counter { counter: id, .. } => counter(row, *id)?,
            CompiledActionKind::Fault { on, .. } => sel(row, on)?,
            CompiledActionKind::Fail { node: id } => node(row, *id)?,
            CompiledActionKind::Stop | CompiledActionKind::FlagError { .. } => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_packet::EthernetBuilder;

    fn sample_tables() -> TableSet {
        let src = r#"
            VAR SeqNo;
            FILTER_TABLE
            tok: (12 2 0x9900), (14 2 0x0001)
            seq: (38 4 SeqNo), (47 1 0x10 0x10)
            END
            NODE_TABLE
            n1 02:00:00:00:00:01 10.0.0.1
            n2 02:00:00:00:00:02 10.0.0.2
            n3 02:00:00:00:00:03 10.0.0.3
            END
            SCENARIO Codec 2sec
            A: (tok, n1, n2, RECV)
            B: (tok, n2, n3, SEND)
            V: (n3)
            (TRUE) >> ENABLE_CNTR(A); ASSIGN_CNTR(V, -7);
            ((A = 1) && !((B > 2) || (V <= A))) >>
                DROP(tok, n1, n2, RECV);
                DELAY(tok, n1, n2, SEND, 30msec);
                REORDER(tok, n2, n3, RECV, 4, (3 2 1 0));
                DUP(tok, n1, n2, SEND);
                MODIFY(tok, n1, n2, RECV, (14 2 0xdead));
                MODIFY(tok, n1, n2, RECV, RANDOM);
                FAIL(n3);
                SET_CURTIME(V);
                ELAPSED_TIME(V);
                INCR_CNTR(V, 2);
                DECR_CNTR(V, 1);
                DISABLE_CNTR(B);
                RESET_CNTR(A);
                FLAG_ERR "boom";
                STOP;
            END
        "#;
        vw_fsl::compile(&vw_fsl::parse(src).unwrap())
            .unwrap()
            .remove(0)
    }

    #[test]
    fn init_round_trips_the_full_table_set() {
        let tables = sample_tables();
        let msg = ControlMsg::Init {
            tables: tables.clone(),
            you_are: NodeId(2),
        };
        let decoded = decode(&encode(&msg)).unwrap();
        match decoded {
            ControlMsg::Init {
                tables: got,
                you_are,
            } => {
                assert_eq!(got, tables);
                assert_eq!(you_are, NodeId(2));
            }
            other => panic!("wrong decode {other:?}"),
        }
    }

    #[test]
    fn runtime_messages_round_trip() {
        let messages = [
            ControlMsg::InitAck { node: NodeId(3) },
            ControlMsg::CounterUpdate {
                counter: CounterId(9),
                value: -12345,
            },
            ControlMsg::TermStatus {
                term: TermId(4),
                status: true,
            },
            ControlMsg::FlagError {
                node: NodeId(1),
                condition: CondId(7),
                message: "CanTx went negative".into(),
            },
            ControlMsg::Stop {
                node: NodeId(0),
                reason: "scenario complete".into(),
            },
        ];
        for msg in messages {
            assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn frames_carry_the_control_ethertype() {
        let frame = build_frame(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            &ControlMsg::InitAck { node: NodeId(0) },
        );
        assert_eq!(frame.ethertype(), EtherType::VW_CONTROL);
        assert_eq!(
            parse_frame(&frame).unwrap(),
            ControlMsg::InitAck { node: NodeId(0) }
        );
    }

    #[test]
    fn non_control_frames_rejected() {
        let frame = EthernetBuilder::new().payload(&[1, 2, 3]).build();
        assert!(parse_frame(&frame).is_err());
    }

    #[test]
    fn truncated_and_garbage_payloads_rejected() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[TAG_COUNTER_UPDATE, 0]).is_err());
        assert!(decode(&[200]).is_err());
        // Truncate an init message at every length and make sure decoding
        // fails rather than panics.
        let full = encode(&ControlMsg::Init {
            tables: sample_tables(),
            you_are: NodeId(0),
        });
        for cut in 0..full.len() {
            assert!(decode(&full[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    /// A script of `filters` packet definitions and `nodes` nodes whose
    /// two counters fire `fault` (one of five actions) at `threshold`.
    fn random_script(filters: usize, nodes: usize, threshold: u8, fault: usize) -> TableSet {
        let mut src = String::from("FILTER_TABLE\n");
        for f in 0..filters {
            src += &format!("f{f}: (23 1 0x11), (36 2 0x{:04x})\n", 0x6300 + f);
        }
        src += "END\nNODE_TABLE\n";
        for n in 0..nodes {
            src += &format!("n{n} 02:00:00:00:00:{:02x} 10.0.0.{}\n", n + 1, n + 1);
        }
        src += &format!("END\nSCENARIO P{threshold}\n");
        src += &format!("C: (f{}, n0, n1, SEND)\n", filters - 1);
        src += &format!("D: (f0, n0, n{}, RECV)\n", nodes - 1);
        src += "(TRUE) >> ENABLE_CNTR(C); ENABLE_CNTR(D);\n";
        let fault = [
            "DROP(f0, n0, n1, RECV)",
            "DUP(f0, n0, n1, SEND)",
            "DELAY(f0, n0, n1, SEND, 2msec)",
            "FAIL(n1)",
            "STOP",
        ][fault];
        src += &format!("((C = {threshold}) && (D < C)) >> {fault};\nEND\n");
        vw_fsl::compile(&vw_fsl::parse(&src).unwrap())
            .unwrap()
            .remove(0)
    }

    fn table_set() -> impl proptest::strategy::Strategy<Value = TableSet> {
        use proptest::strategy::Strategy;
        (1usize..4, 2usize..5, 0u8..40, 0usize..5)
            .prop_map(|(f, n, threshold, fault)| random_script(f, n, threshold, fault))
    }

    proptest::proptest! {
        /// Two table sets' `Init`s decoded on one thread in any order, each
        /// repeat of the last set included: every decode is what a fresh
        /// `decode_tables` of the same bytes gives.
        #[test]
        fn interleaved_init_decodes_equal_fresh_decodes(
            a in table_set(),
            b in table_set(),
            order in proptest::collection::vec((0usize..2, 0u16..4), 1..12),
        ) {
            let sets = [a, b];
            for (pick, you_are) in order {
                let tables = &sets[pick];
                let you_are = NodeId(you_are % u16::try_from(tables.nodes.len()).unwrap());
                let msg = ControlMsg::Init { tables: TableSet::clone(tables), you_are };
                let bytes = encode(&msg);
                let fresh = Reader::be(&bytes[3..]).whole(decode_tables).unwrap();
                let ControlMsg::Init { tables: got, you_are: got_you_are } = decode(&bytes).unwrap()
                else {
                    panic!("an Init decodes to an Init");
                };
                proptest::prop_assert_eq!(&got, &fresh);
                proptest::prop_assert_eq!(&got, tables);
                proptest::prop_assert_eq!(got_you_are, you_are);
            }
        }
    }
}
