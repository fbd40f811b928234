//! Abstract syntax of the Fault Specification Language.
//!
//! The shape follows Section 4 of the paper: a script consists of *packet
//! definitions* (the filter table), *node definitions* (the node table),
//! optional `VAR` declarations, and one or more *scenarios*, each an
//! unordered set of `{condition >> action}` rules over *counters*.
//!
//! Every node is generic over its name type `N`: a [`Program`] (`N =
//! String`) owns its names and is what [`parse`](crate::parse) returns and
//! a campaign edits; a `Program<&str>` borrows them from the script it was
//! parsed from, which is how [`compile_source`](crate::compile_source)
//! reads a script without copying a name before the tables.

use std::net::Ipv4Addr;

use vw_packet::MacAddr;

/// A complete FSL program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program<N = String> {
    /// `VAR` declarations: run-time-bound filter pattern variables.
    pub vars: Vec<N>,
    /// Packet definitions, in priority order (first match wins).
    pub filters: Vec<FilterDef<N>>,
    /// Node definitions.
    pub nodes: Vec<NodeDef<N>>,
    /// Test scenarios.
    pub scenarios: Vec<Scenario<N>>,
}

/// A packet definition: a name bound to the logical AND of byte-match
/// tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterDef<N = String> {
    /// The packet type name (`TCP_synack`, `tr_token`, ...).
    pub name: N,
    /// The match tuples, all of which must match.
    pub tuples: Vec<FilterTuple<N>>,
}

/// One `(offset length [mask] pattern)` tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterTuple<N = String> {
    /// Byte offset into the raw frame.
    pub offset: u32,
    /// Number of bytes to match (1–8).
    pub len: u32,
    /// Optional bit mask applied before comparison.
    pub mask: Option<u64>,
    /// The value to compare against.
    pub pattern: PatternValue<N>,
}

/// A pattern operand: a literal or a `VAR` bound at run time.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternValue<N = String> {
    /// A literal value (hex or decimal in the source).
    Literal(u64),
    /// A declared variable, bound before or during the run.
    Var(N),
}

/// A node definition: name, hardware address, IP address.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDef<N = String> {
    /// The node name used throughout the script (`node1`, ...).
    pub name: N,
    /// Its MAC address.
    pub mac: MacAddr,
    /// Its IPv4 address.
    pub ip: Ipv4Addr,
}

/// A test scenario: named counters plus rules.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario<N = String> {
    /// Scenario name.
    pub name: N,
    /// Optional inactivity timeout in nanoseconds (`SCENARIO name 1sec`).
    pub timeout_ns: Option<u64>,
    /// Counter declarations.
    pub counters: Vec<CounterDecl<N>>,
    /// The unordered rule set.
    pub rules: Vec<Rule<N>>,
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
pub struct CounterDecl<N = String> {
    /// Counter name.
    pub name: N,
    /// What it counts.
    pub kind: CounterKind<N>,
}

/// Which packets a counter counts or a fault acts on: the
/// `(pkt_type, from, to, SEND|RECV)` 4-tuple that the paper's counter
/// declarations and its Table II fault primitives share.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketSelector<N = String> {
    /// The packet definition name.
    pub pkt: N,
    /// Source node name.
    pub from: N,
    /// Destination node name.
    pub to: N,
    /// Observed on send (at `from`) or on receive (at `to`).
    pub dir: Dir,
}

/// What a counter observes.
#[derive(Debug, Clone, PartialEq)]
pub enum CounterKind<N = String> {
    /// Counts send/receive events of a packet type between two nodes:
    /// `NAME: (pkt_type, from, to, SEND|RECV)`.
    PacketEvent(PacketSelector<N>),
    /// A node-local variable: `NAME: (node)`.
    NodeLocal {
        /// The node holding the variable.
        node: N,
    },
}

/// One `{condition >> actions}` rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule<N = String> {
    /// The guarding condition.
    pub condition: CondExpr<N>,
    /// The actions fired when the condition becomes true.
    pub actions: Vec<Action<N>>,
}

/// A boolean expression over terms.
#[derive(Debug, Clone, PartialEq)]
pub enum CondExpr<N = String> {
    /// Always true (fires at scenario start).
    True,
    /// Never true.
    False,
    /// A relational term.
    Term(Term<N>),
    /// Conjunction.
    And(Box<Self>, Box<Self>),
    /// Disjunction.
    Or(Box<Self>, Box<Self>),
    /// Negation.
    Not(Box<Self>),
}

impl<N> CondExpr<N> {
    /// Calls `f` with every term of the expression, in source order.
    pub fn for_each_term<'a>(&'a self, f: &mut impl FnMut(&'a Term<N>)) {
        match self {
            CondExpr::True | CondExpr::False => {}
            CondExpr::Term(t) => f(t),
            CondExpr::And(a, b) | CondExpr::Or(a, b) => {
                a.for_each_term(f);
                b.for_each_term(f);
            }
            CondExpr::Not(a) => a.for_each_term(f),
        }
    }

    /// Calls `f` with every counter name the expression references, in
    /// source order.
    pub fn for_each_counter<'a>(&'a self, f: &mut impl FnMut(&'a str))
    where
        N: AsRef<str>,
    {
        self.for_each_term(&mut |t| {
            for operand in [&t.lhs, &t.rhs] {
                if let Operand::Counter(c) = operand {
                    f(c.as_ref());
                }
            }
        });
    }
}

/// A relational term between two operands.
#[derive(Debug, Clone, PartialEq)]
pub struct Term<N = String> {
    /// Left operand.
    pub lhs: Operand<N>,
    /// Relational operator.
    pub op: RelOp,
    /// Right operand.
    pub rhs: Operand<N>,
}

/// A term operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand<N = String> {
    /// A counter reference.
    Counter(N),
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
pub enum Action<N = String> {
    /// A Table I action on a counter.
    Counter {
        /// Target counter.
        counter: N,
        /// What to do to it.
        op: CounterOp,
    },
    /// A Table II fault on matching packets.
    Fault {
        /// The packets it acts on.
        on: PacketSelector<N>,
        /// What happens to them.
        fault: Fault,
    },
    /// `FAIL(node)` — crash a node (blackhole all its traffic).
    Fail {
        /// The node to fail.
        node: N,
    },
    /// `STOP` — end the scenario.
    Stop,
    /// `FLAG_ERR` / `FLAG_ERROR` — record a protocol violation.
    FlagError {
        /// Optional message (extension; the paper's form carries none).
        message: Option<N>,
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
        let e: CondExpr = CondExpr::And(
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
