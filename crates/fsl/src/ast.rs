//! Abstract syntax of the Fault Specification Language.
//!
//! The shape follows Section 4 of the paper: a script consists of *packet
//! definitions* (the filter table), *node definitions* (the node table),
//! optional `VAR` declarations, and one or more *scenarios*, each an
//! unordered set of `{condition >> action}` rules over *counters*.

use std::net::Ipv4Addr;

use vw_packet::MacAddr;

/// A complete FSL program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// `VAR` declarations: run-time-bound filter pattern variables.
    pub vars: Vec<String>,
    /// Packet definitions, in priority order (first match wins).
    pub filters: Vec<FilterDef>,
    /// Node definitions.
    pub nodes: Vec<NodeDef>,
    /// Test scenarios.
    pub scenarios: Vec<Scenario>,
}

/// A packet definition: a name bound to the logical AND of byte-match
/// tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterDef {
    /// The packet type name (`TCP_synack`, `tr_token`, ...).
    pub name: String,
    /// The match tuples, all of which must match.
    pub tuples: Vec<FilterTuple>,
}

/// One `(offset length [mask] pattern)` tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterTuple {
    /// Byte offset into the raw frame.
    pub offset: u32,
    /// Number of bytes to match (1–8).
    pub len: u32,
    /// Optional bit mask applied before comparison.
    pub mask: Option<u64>,
    /// The value to compare against.
    pub pattern: PatternValue,
}

/// A pattern operand: a literal or a `VAR` bound at run time.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternValue {
    /// A literal value (hex or decimal in the source).
    Literal(u64),
    /// A declared variable, bound before or during the run.
    Var(String),
}

/// A node definition: name, hardware address, IP address.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDef {
    /// The node name used throughout the script (`node1`, ...).
    pub name: String,
    /// Its MAC address.
    pub mac: MacAddr,
    /// Its IPv4 address.
    pub ip: Ipv4Addr,
}

/// A test scenario: named counters plus rules.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name.
    pub name: String,
    /// Optional inactivity timeout in nanoseconds (`SCENARIO name 1sec`).
    pub timeout_ns: Option<u64>,
    /// Counter declarations.
    pub counters: Vec<CounterDecl>,
    /// The unordered rule set.
    pub rules: Vec<Rule>,
}

/// Which packet direction a counter or fault observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Outbound at the acting node.
    Send,
    /// Inbound at the acting node.
    Recv,
}

/// A counter declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDecl {
    /// Counter name.
    pub name: String,
    /// What it counts.
    pub kind: CounterKind,
}

/// Which packets a counter counts or a fault acts on: the
/// `(pkt_type, from, to, SEND|RECV)` 4-tuple that the paper's counter
/// declarations and its Table II fault primitives share.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketSelector {
    /// The packet definition name.
    pub pkt: String,
    /// Source node name.
    pub from: String,
    /// Destination node name.
    pub to: String,
    /// Observed on send (at `from`) or on receive (at `to`).
    pub dir: Dir,
}

/// What a counter observes.
#[derive(Debug, Clone, PartialEq)]
pub enum CounterKind {
    /// Counts send/receive events of a packet type between two nodes:
    /// `NAME: (pkt_type, from, to, SEND|RECV)`.
    PacketEvent(PacketSelector),
    /// A node-local variable: `NAME: (node)`.
    NodeLocal {
        /// The node holding the variable.
        node: String,
    },
}

/// One `{condition >> actions}` rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The guarding condition.
    pub condition: CondExpr,
    /// The actions fired when the condition becomes true.
    pub actions: Vec<Action>,
}

/// A boolean expression over terms.
#[derive(Debug, Clone, PartialEq)]
pub enum CondExpr {
    /// Always true (fires at scenario start).
    True,
    /// Never true.
    False,
    /// A relational term.
    Term(Term),
    /// Conjunction.
    And(Box<CondExpr>, Box<CondExpr>),
    /// Disjunction.
    Or(Box<CondExpr>, Box<CondExpr>),
    /// Negation.
    Not(Box<CondExpr>),
}

impl CondExpr {
    /// Calls `f` with every counter name the expression references, in
    /// source order.
    pub fn for_each_counter<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            CondExpr::True | CondExpr::False => {}
            CondExpr::Term(t) => {
                if let Operand::Counter(c) = &t.lhs {
                    f(c);
                }
                if let Operand::Counter(c) = &t.rhs {
                    f(c);
                }
            }
            CondExpr::And(a, b) | CondExpr::Or(a, b) => {
                a.for_each_counter(f);
                b.for_each_counter(f);
            }
            CondExpr::Not(a) => a.for_each_counter(f),
        }
    }
}

/// A relational term between two operands.
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// Left operand.
    pub lhs: Operand,
    /// Relational operator.
    pub op: RelOp,
    /// Right operand.
    pub rhs: Operand,
}

/// A term operand.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A counter reference.
    Counter(String),
    /// An integer constant.
    Const(i64),
}

/// Relational operators (`>`, `<`, `>=`, `<=`, `=`, `!=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl RelOp {
    /// Applies the operator.
    pub fn apply(self, lhs: i64, rhs: i64) -> bool {
        match self {
            RelOp::Gt => lhs > rhs,
            RelOp::Lt => lhs < rhs,
            RelOp::Ge => lhs >= rhs,
            RelOp::Le => lhs <= rhs,
            RelOp::Eq => lhs == rhs,
            RelOp::Ne => lhs != rhs,
        }
    }

    /// The source form of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            RelOp::Gt => ">",
            RelOp::Lt => "<",
            RelOp::Ge => ">=",
            RelOp::Le => "<=",
            RelOp::Eq => "=",
            RelOp::Ne => "!=",
        }
    }
}

/// How a `MODIFY` fault mutates a packet.
#[derive(Debug, Clone, PartialEq)]
pub enum ModifyPattern {
    /// Random perturbation of payload bytes (the paper's default).
    Random,
    /// Overwrite `len` bytes at `offset` with `value` (big-endian); the
    /// user is responsible for fixing checksums, as the paper notes.
    Set {
        /// Byte offset into the frame.
        offset: u32,
        /// Number of bytes to overwrite (1–8).
        len: u32,
        /// The value written.
        value: u64,
    },
}

/// A Table I counter manipulation, applied to the counter its action
/// names. Shared by the AST and the compiled action table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterOp {
    /// `ASSIGN_CNTR(counter[, value])` — set the counter (default 0).
    Assign(i64),
    /// `ENABLE_CNTR(counter)` — start counting events.
    Enable,
    /// `DISABLE_CNTR(counter)` — stop counting events.
    Disable,
    /// `INCR_CNTR(counter, value)`.
    Incr(i64),
    /// `DECR_CNTR(counter, value)`.
    Decr(i64),
    /// `RESET_CNTR(counter)` — back to zero.
    Reset,
    /// `SET_CURTIME(counter)` — store the current time (ns).
    SetCurTime,
    /// `ELAPSED_TIME(counter)` — replace the stored time with `now - it`.
    ElapsedTime,
}

/// A Table II fault primitive, applied to every packet its action's
/// selector matches while the rule's condition holds. Shared by the AST
/// and the compiled action table.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// `DROP(pkt, from, to, SEND|RECV)`.
    Drop,
    /// `DELAY(pkt, from, to, SEND|RECV, duration)`.
    Delay {
        /// Hold time (quantized to 10 ms jiffies by the engine).
        duration_ns: u64,
    },
    /// `REORDER(pkt, from, to, SEND|RECV, npkts, (order...))`.
    Reorder {
        /// How many packets to collect before releasing.
        count: u32,
        /// Release order: a permutation of `0..count`.
        order: Vec<u32>,
    },
    /// `DUP(pkt, from, to, SEND|RECV)`.
    Dup,
    /// `MODIFY(pkt, from, to, SEND|RECV, pattern)`.
    Modify(ModifyPattern),
}

/// An action: one of the paper's two families — a Table I counter
/// manipulation or a Table II fault primitive — or one of the three
/// scenario-level actions.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// A Table I action on a counter.
    Counter {
        /// Target counter.
        counter: String,
        /// What to do to it.
        op: CounterOp,
    },
    /// A Table II fault on matching packets.
    Fault {
        /// The packets it acts on.
        on: PacketSelector,
        /// What happens to them.
        fault: Fault,
    },
    /// `FAIL(node)` — crash a node (blackhole all its traffic).
    Fail {
        /// The node to fail.
        node: String,
    },
    /// `STOP` — end the scenario.
    Stop,
    /// `FLAG_ERR` / `FLAG_ERROR` — record a protocol violation.
    FlagError {
        /// Optional message (extension; the paper's form carries none).
        message: Option<String>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relop_semantics() {
        assert!(RelOp::Gt.apply(2, 1));
        assert!(RelOp::Lt.apply(1, 2));
        assert!(RelOp::Ge.apply(2, 2));
        assert!(RelOp::Le.apply(2, 2));
        assert!(RelOp::Eq.apply(3, 3));
        assert!(RelOp::Ne.apply(3, 4));
        assert!(!RelOp::Eq.apply(3, 4));
    }

    #[test]
    fn cond_counters_collects_all() {
        let e = CondExpr::And(
            Box::new(CondExpr::Term(Term {
                lhs: Operand::Counter("A".into()),
                op: RelOp::Gt,
                rhs: Operand::Const(0),
            })),
            Box::new(CondExpr::Not(Box::new(CondExpr::Term(Term {
                lhs: Operand::Counter("B".into()),
                op: RelOp::Eq,
                rhs: Operand::Counter("C".into()),
            })))),
        );
        let mut names = Vec::new();
        e.for_each_counter(&mut |name| names.push(name));
        assert_eq!(names, ["A", "B", "C"]);
    }
}
