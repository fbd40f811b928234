//! Compilation of a checked FSL scenario into the six runtime tables of
//! Figure 3: filter, node, counter, term, condition, and action tables.
//!
//! The compiler also performs the *placement* analysis of Section 5.2:
//!
//! * a counter lives at the node that observes its event (`SEND` ⇒ the
//!   sender, `RECV` ⇒ the receiver; a node-local variable at its node);
//! * a term is evaluated where its first counter operand lives; if the
//!   other operand is a counter on a different node, that node must
//!   forward value updates (the counter's *subscriber* list);
//! * a condition is evaluated "at the nodes where an action dependent on
//!   that condition might have to be triggered" — the homes of its
//!   actions; term-status changes are forwarded there;
//! * counter-manipulation actions execute at their counter's home;
//!   packet faults execute where they act on packets; `FAIL` executes at
//!   its victim.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Weak};

use vw_packet::MacAddr;

use crate::analyze::Names;
use crate::ast::*;
use crate::error::FslError;

macro_rules! table_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u16);

        impl $name {
            /// The raw table index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

table_id!(
    /// Index into the filter table.
    FilterId
);
table_id!(
    /// Index into the node table.
    NodeId
);
table_id!(
    /// Index into the counter table.
    CounterId
);
table_id!(
    /// Index into the term table.
    TermId
);
table_id!(
    /// Index into the condition table.
    CondId
);
table_id!(
    /// Index into the action table.
    ActionId
);

/// The id of a table's `i`th row: analysis refuses a table of more than
/// [`MAX_WIRE_LEN`](crate::MAX_WIRE_LEN) rows, so a compiled table's ids
/// fit a `u16`.
fn row(i: usize) -> u16 {
    u16::try_from(i).expect("analysis bounds every table to MAX_WIRE_LEN rows")
}

/// A name in a compiled table: a slice of one string that all the names
/// of its [`Tables`] share, so a compile copies a set's names into one
/// allocation and a copy of a name is a reference count. It reads as a
/// `&str` (`Deref`) and compares and prints as one; like a `String`, it
/// takes three words.
#[derive(Clone)]
pub struct Name(Arc<str>, u32, u32);

impl Name {
    fn new(text: Arc<str>, start: usize, end: usize) -> Self {
        let offset = |i| u32::try_from(i).expect("a table set's names fit in 4 GiB");
        Name(text, offset(start), offset(end))
    }

    /// The name's text.
    pub fn as_str(&self) -> &str {
        &self.0[self.1 as usize..self.2 as usize]
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(name: &str) -> Self {
        Name::new(name.into(), 0, name.len())
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

/// Filter-table entry: a named packet definition.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFilter {
    /// Packet type name.
    pub name: Name,
    /// Match tuples (all must match).
    pub tuples: Vec<FilterTuple>,
    /// Index-construction metadata: the tuple an indexed classifier can
    /// key this filter by — the first tuple with a compile-time literal
    /// pattern. `None` when every tuple is a runtime `VAR` pattern, in
    /// which case the filter can only be matched by scanning.
    pub discriminant: Option<u16>,
}

impl CompiledFilter {
    /// Computes the discriminant for a tuple list: the first tuple whose
    /// pattern is a literal (usable as an index key without runtime
    /// variable bindings).
    pub fn compute_discriminant<N>(tuples: &[FilterTuple<N>]) -> Option<u16> {
        tuples
            .iter()
            .position(|t| matches!(t.pattern, PatternValue::Literal(_)))
            .map(row)
    }
}

/// Node-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledNode {
    /// Node name.
    pub name: Name,
    /// Hardware address.
    pub mac: MacAddr,
    /// IP address.
    pub ip: Ipv4Addr,
}

/// A [`PacketSelector`] after name resolution: the packets a counter
/// counts or a fault acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSel {
    /// The packet definition.
    pub filter: FilterId,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Which side observes.
    pub dir: Dir,
}

impl PacketSel {
    /// The node that observes the selected packets: the sender for
    /// `SEND`, the receiver for `RECV`.
    pub fn home(&self) -> NodeId {
        match self.dir {
            Dir::Send => self.from,
            Dir::Recv => self.to,
        }
    }

    /// `true` for a packet classified as `filter` between the scripted
    /// endpoints `from` and `to` (`None` = not in the node table),
    /// travelling in direction `dir`.
    pub fn matches(
        &self,
        filter: FilterId,
        from: Option<NodeId>,
        to: Option<NodeId>,
        dir: Dir,
    ) -> bool {
        self.filter == filter && self.dir == dir && from == Some(self.from) && to == Some(self.to)
    }
}

/// What a compiled counter observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompiledCounterKind {
    /// Send/receive events of a packet type between two nodes.
    Packet(PacketSel),
    /// A node-local variable.
    Local,
}

/// Counter-table entry, with the dependency tags of Section 5.1.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCounter {
    /// Counter name.
    pub name: Name,
    /// What it counts.
    pub kind: CompiledCounterKind,
    /// The node holding the authoritative value.
    pub home: NodeId,
    /// Terms whose value depends on this counter.
    pub affected_terms: Vec<TermId>,
    /// Remote nodes that evaluate an affected term and therefore receive
    /// value updates over the control plane.
    pub subscribers: Vec<NodeId>,
}

/// A term operand after name resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompiledOperand {
    /// A counter's current value.
    Counter(CounterId),
    /// A constant.
    Const(i64),
}

/// Term-table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTerm {
    /// Left operand.
    pub lhs: CompiledOperand,
    /// Relational operator.
    pub op: RelOp,
    /// Right operand.
    pub rhs: CompiledOperand,
    /// The node evaluating the term.
    pub eval_node: NodeId,
    /// Conditions referencing this term.
    pub conditions: Vec<CondId>,
}

/// A condition expression over term ids.
#[derive(Debug, Clone, PartialEq)]
pub enum CondNode {
    /// Always true (fires once at scenario start).
    True,
    /// Never true.
    False,
    /// A term's current truth value.
    Term(TermId),
    /// Conjunction.
    And(Box<CondNode>, Box<CondNode>),
    /// Disjunction.
    Or(Box<CondNode>, Box<CondNode>),
    /// Negation.
    Not(Box<CondNode>),
}

impl CondNode {
    /// All term ids in the expression.
    pub fn terms(&self) -> Vec<TermId> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect(&self, out: &mut Vec<TermId>) {
        match self {
            CondNode::True | CondNode::False => {}
            CondNode::Term(t) => out.push(*t),
            CondNode::And(a, b) | CondNode::Or(a, b) => {
                a.collect(out);
                b.collect(out);
            }
            CondNode::Not(a) => a.collect(out),
        }
    }

    /// Evaluates against a term-status lookup.
    pub fn eval(&self, term_status: &dyn Fn(TermId) -> bool) -> bool {
        match self {
            CondNode::True => true,
            CondNode::False => false,
            CondNode::Term(t) => term_status(*t),
            CondNode::And(a, b) => a.eval(term_status) && b.eval(term_status),
            CondNode::Or(a, b) => a.eval(term_status) || b.eval(term_status),
            CondNode::Not(a) => !a.eval(term_status),
        }
    }
}

/// Condition-table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCondition {
    /// The boolean expression.
    pub expr: CondNode,
    /// Nodes where the condition is evaluated (the homes of its actions).
    pub eval_nodes: Vec<NodeId>,
    /// Edge-triggered actions: fired once per false→true transition
    /// (counter manipulations, `FAIL`, `STOP`, `FLAG_ERR`).
    pub triggers: Vec<(NodeId, ActionId)>,
    /// Level-gated packet faults: applied to every matching packet while
    /// the condition holds (`DROP`/`DELAY`/`REORDER`/`DUP`/`MODIFY`).
    pub gates: Vec<(NodeId, ActionId)>,
}

/// Action-table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledAction {
    /// The node executing the action.
    pub node: NodeId,
    /// What to do.
    pub kind: CompiledActionKind,
}

/// Resolved action kinds: [`Action`] with names replaced by table ids.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledActionKind {
    /// A Table I action on a counter.
    Counter {
        /// Target counter.
        counter: CounterId,
        /// What to do to it.
        op: CounterOp,
    },
    /// A Table II fault on matching packets.
    Fault {
        /// The packets it acts on.
        on: PacketSel,
        /// What happens to them.
        fault: Fault,
    },
    /// Crash a node.
    Fail {
        /// The victim.
        node: NodeId,
    },
    /// End the scenario.
    Stop,
    /// Record a protocol violation.
    FlagError {
        /// Optional message.
        message: Option<String>,
    },
}

/// The complete compiled form of one scenario — everything a Fault
/// Injection/Analysis Engine needs, shipped to every node over the control
/// plane ("all FIEs and FAEs are sent the entire set of tables",
/// Section 5.1).
///
/// A handle on one shared, immutable [`Tables`]: a clone is a reference
/// count, so the set a compile produced is the allocation the runner, the
/// control engine and every `Init` it sends hold. Reads go through
/// `Deref`; a write through `DerefMut` first moves the tables to an
/// allocation of their own if another handle, strong or
/// [weak](TableSet::downgrade), names this one — so whatever was derived
/// from a set and keyed by its allocation never describes a changed set.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSet(Arc<Tables>);

impl TableSet {
    /// A handle that names this set's allocation without keeping the
    /// tables alive.
    pub fn downgrade(&self) -> WeakTableSet {
        WeakTableSet(Arc::downgrade(&self.0))
    }
}

/// A [`TableSet`]'s allocation, named without being owned: the tables
/// drop with their last `TableSet`, and the allocation is not reused
/// while this handle lives, so it never names a different set.
#[derive(Debug, Clone)]
pub struct WeakTableSet(Weak<Tables>);

impl WeakTableSet {
    /// `true` when `tables` is a handle on the allocation this was taken
    /// from.
    pub fn names(&self, tables: &TableSet) -> bool {
        std::ptr::eq(self.0.as_ptr(), Arc::as_ptr(&tables.0))
    }

    /// `true` while some [`TableSet`] still holds the tables.
    pub fn is_live(&self) -> bool {
        self.0.strong_count() > 0
    }
}

impl From<Tables> for TableSet {
    fn from(tables: Tables) -> Self {
        TableSet(Arc::new(tables))
    }
}

impl Deref for TableSet {
    type Target = Tables;

    fn deref(&self) -> &Tables {
        &self.0
    }
}

impl DerefMut for TableSet {
    fn deref_mut(&mut self) -> &mut Tables {
        Arc::make_mut(&mut self.0)
    }
}

/// The six tables (and the scenario header) behind a [`TableSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct Tables {
    /// Scenario name.
    pub scenario: Name,
    /// Optional inactivity timeout in nanoseconds.
    pub timeout_ns: Option<u64>,
    /// Runtime-bound pattern variables.
    pub vars: Vec<Name>,
    /// Filter table (priority order: first match wins).
    pub filters: Vec<CompiledFilter>,
    /// Node table.
    pub nodes: Vec<CompiledNode>,
    /// Counter table.
    pub counters: Vec<CompiledCounter>,
    /// Term table.
    pub terms: Vec<CompiledTerm>,
    /// Condition table.
    pub conditions: Vec<CompiledCondition>,
    /// Action table.
    pub actions: Vec<CompiledAction>,
}

impl Tables {
    /// Finds a node id by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        row_named(&self.nodes, |n| n.name == name).map(NodeId)
    }

    /// Finds a counter id by name.
    pub fn counter_by_name(&self, name: &str) -> Option<CounterId> {
        row_named(&self.counters, |c| c.name == name).map(CounterId)
    }

    /// Finds a filter id by name.
    pub fn filter_by_name(&self, name: &str) -> Option<FilterId> {
        row_named(&self.filters, |f| f.name == name).map(FilterId)
    }

    /// The node's script name, or `node#i` if the table has none.
    pub fn node_name(&self, id: NodeId) -> Cow<'_, str> {
        let name = self.nodes.get(id.index()).map(|n| n.name.as_str());
        name_or_index(name, "node", id.index())
    }

    /// The filter's script name, or `filter#i` if the table has none.
    pub fn filter_name(&self, id: FilterId) -> Cow<'_, str> {
        let name = self.filters.get(id.index()).map(|f| f.name.as_str());
        name_or_index(name, "filter", id.index())
    }

    /// The counter's script name, or `counter#i` if the table has none.
    pub fn counter_name(&self, id: CounterId) -> Cow<'_, str> {
        let name = self.counters.get(id.index()).map(|c| c.name.as_str());
        name_or_index(name, "counter", id.index())
    }
}

/// The id of the first row of `rows` that `named` picks.
fn row_named<T>(rows: &[T], named: impl Fn(&T) -> bool) -> Option<u16> {
    rows.iter().position(named).map(row)
}

/// A table entry's name, or `kind#index` for an id past the table (terms,
/// conditions and actions are unnamed in FSL and always render by index).
fn name_or_index<'a>(name: Option<&'a str>, kind: &str, index: usize) -> Cow<'a, str> {
    name.map_or_else(|| format!("{kind}#{index}").into(), Cow::Borrowed)
}

/// Compiles every scenario of a program into its own [`TableSet`].
///
/// # Errors
///
/// Returns the semantic errors from [`analyze`](crate::analyze) if the
/// program is invalid.
pub fn compile<N: AsRef<str>>(program: &Program<N>) -> Result<Vec<TableSet>, Vec<FslError>> {
    let names = crate::analyze::resolve(program)?;
    Ok(program
        .scenarios
        .iter()
        .zip(&names.counters)
        .map(|(scenario, counter_ids)| compile_scenario(program, scenario, &names, counter_ids))
        .collect())
}

/// [`parse`](crate::parse) and [`compile`] in one: the program borrows its
/// names from `source`, so a name is copied once, into its table set's
/// shared [`Name`] string.
///
/// # Errors
///
/// The lexical or syntax error [`parse`](crate::parse) returns, alone, or
/// the semantic errors [`compile`] returns.
pub fn compile_source(source: &str) -> Result<Vec<TableSet>, Vec<FslError>> {
    compile(&crate::parser::parse_as::<&str>(source).map_err(|e| vec![e])?)
}

fn compile_scenario<N: AsRef<str>>(
    program: &Program<N>,
    scenario: &Scenario<N>,
    names: &Names<'_>,
    counter_ids: &HashMap<&str, CounterId>,
) -> TableSet {
    let name = <N as AsRef<str>>::as_ref;
    // Every name of the set, copied once, back to back, into one string;
    // `take` hands them out as `Name`s in the same order.
    let names_in_order = std::iter::once(&scenario.name)
        .chain(&program.vars)
        .chain(program.filters.iter().map(|f| &f.name))
        .chain(program.nodes.iter().map(|n| &n.name))
        .chain(scenario.counters.iter().map(|c| &c.name));
    let mut text = String::with_capacity(names_in_order.clone().map(|n| name(n).len()).sum());
    names_in_order.for_each(|n| text.push_str(name(n)));
    let (text, mut at): (Arc<str>, _) = (text.into(), 0);
    let mut take = |n: &N| {
        let start = at;
        at += name(n).len();
        debug_assert_eq!(&text[start..at], name(n), "names taken out of order");
        Name::new(Arc::clone(&text), start, at)
    };
    let scenario_name = take(&scenario.name);
    let vars = program.vars.iter().map(&mut take).collect();
    let tuple = |t: &FilterTuple<N>| FilterTuple {
        offset: t.offset,
        len: t.len,
        mask: t.mask,
        pattern: match &t.pattern {
            PatternValue::Literal(v) => PatternValue::Literal(*v),
            PatternValue::Var(var) => PatternValue::Var(var.as_ref().to_owned()),
        },
    };
    let filters: Vec<CompiledFilter> = program
        .filters
        .iter()
        .map(|f| CompiledFilter {
            name: take(&f.name),
            discriminant: CompiledFilter::compute_discriminant(&f.tuples),
            tuples: f.tuples.iter().map(tuple).collect(),
        })
        .collect();
    let nodes: Vec<CompiledNode> = program
        .nodes
        .iter()
        .map(|n| CompiledNode {
            name: take(&n.name),
            mac: n.mac,
            ip: n.ip,
        })
        .collect();

    let resolve = |selector: &PacketSelector<N>| PacketSel {
        filter: names.filters[name(&selector.pkt)],
        from: names.nodes[name(&selector.from)],
        to: names.nodes[name(&selector.to)],
        dir: selector.dir,
    };

    // ---- counter table --------------------------------------------
    let mut counters: Vec<CompiledCounter> = scenario
        .counters
        .iter()
        .map(|decl| {
            let (kind, home) = match &decl.kind {
                CounterKind::PacketEvent(selector) => {
                    let sel = resolve(selector);
                    (CompiledCounterKind::Packet(sel), sel.home())
                }
                CounterKind::NodeLocal { node } => {
                    (CompiledCounterKind::Local, names.nodes[name(node)])
                }
            };
            CompiledCounter {
                name: take(&decl.name),
                kind,
                home,
                affected_terms: Vec::new(),
                subscribers: Vec::new(),
            }
        })
        .collect();

    // ---- terms, conditions, actions --------------------------------
    // Each table is allocated once, at its final size (terms at most).
    let mut term_uses = 0;
    for rule in &scenario.rules {
        rule.condition.for_each_term(&mut |_| term_uses += 1);
    }
    let mut terms = Terms {
        counter_ids,
        counters: &counters,
        terms: Vec::with_capacity(term_uses),
        dedup: HashMap::with_capacity(term_uses),
    };
    let mut conditions = Vec::with_capacity(scenario.rules.len());
    let actions_len = scenario.rules.iter().map(|r| r.actions.len()).sum();
    let mut actions: Vec<CompiledAction> = Vec::with_capacity(actions_len);
    let mut homes = Vec::new();

    for (i, rule) in scenario.rules.iter().enumerate() {
        let expr = terms.compile(&rule.condition, CondId(row(i)));

        // Fallback home for STOP / FLAG_ERR: the first counter referenced
        // by the condition, else node 0.
        let mut first_counter = None;
        rule.condition.for_each_counter(&mut |name| {
            first_counter.get_or_insert(name);
        });
        let fallback_home =
            first_counter.map_or(NodeId(0), |name| counters[counter_ids[name].index()].home);

        let is_gate = |action: &&Action<N>| matches!(action, Action::Fault { .. });
        let gates_len = rule.actions.iter().filter(is_gate).count();
        let mut triggers = Vec::with_capacity(rule.actions.len() - gates_len);
        let mut gates = Vec::with_capacity(gates_len);
        for action in &rule.actions {
            let action_id = ActionId(row(actions.len()));
            let (node, kind) = match action {
                Action::Counter { counter, op } => {
                    let counter = counter_ids[name(counter)];
                    (
                        counters[counter.index()].home,
                        CompiledActionKind::Counter { counter, op: *op },
                    )
                }
                Action::Fault { on, fault } => {
                    let on = resolve(on);
                    let fault = fault.clone();
                    (on.home(), CompiledActionKind::Fault { on, fault })
                }
                Action::Fail { node } => {
                    let node = names.nodes[name(node)];
                    (node, CompiledActionKind::Fail { node })
                }
                Action::Stop => (fallback_home, CompiledActionKind::Stop),
                Action::FlagError { message } => {
                    let message = message.as_ref().map(|m| m.as_ref().to_owned());
                    (fallback_home, CompiledActionKind::FlagError { message })
                }
            };
            actions.push(CompiledAction { node, kind });
            if is_gate(&action) {
                gates.push((node, action_id));
            } else {
                triggers.push((node, action_id));
            }
        }
        homes.clear();
        homes.extend(triggers.iter().chain(&gates).map(|&(node, _)| node));
        homes.sort_unstable();
        homes.dedup();
        conditions.push(CompiledCondition {
            expr,
            eval_nodes: homes.clone(),
            triggers,
            gates,
        });
    }
    let terms = terms.terms;

    // ---- dependency tags -------------------------------------------
    for (ti, term) in terms.iter().enumerate() {
        let tid = TermId(row(ti));
        for operand in [term.lhs, term.rhs] {
            if let CompiledOperand::Counter(cid) = operand {
                let counter = &mut counters[cid.index()];
                if !counter.affected_terms.contains(&tid) {
                    counter.affected_terms.push(tid);
                }
                if term.eval_node != counter.home && !counter.subscribers.contains(&term.eval_node)
                {
                    counter.subscribers.push(term.eval_node);
                }
            }
        }
    }

    Tables {
        scenario: scenario_name,
        timeout_ns: scenario.timeout_ns,
        vars,
        filters,
        nodes,
        counters,
        terms,
        conditions,
        actions,
    }
    .into()
}

/// The term table while conditions compile into it: a term that recurs
/// (same operands, same operator) is one row, tagged with each condition
/// that reads it.
struct Terms<'a, 'n> {
    counter_ids: &'a HashMap<&'n str, CounterId>,
    counters: &'a [CompiledCounter],
    terms: Vec<CompiledTerm>,
    dedup: HashMap<(CompiledOperand, RelOp, CompiledOperand), TermId>,
}

impl Terms<'_, '_> {
    fn compile<N: AsRef<str>>(&mut self, expr: &CondExpr<N>, cond_id: CondId) -> CondNode {
        let mut sub = |e: &CondExpr<N>| Box::new(self.compile(e, cond_id));
        match expr {
            CondExpr::True => CondNode::True,
            CondExpr::False => CondNode::False,
            CondExpr::And(a, b) => CondNode::And(sub(a), sub(b)),
            CondExpr::Or(a, b) => CondNode::Or(sub(a), sub(b)),
            CondExpr::Not(a) => CondNode::Not(sub(a)),
            CondExpr::Term(term) => CondNode::Term(self.term(term, cond_id)),
        }
    }

    fn term<N: AsRef<str>>(&mut self, term: &Term<N>, cond_id: CondId) -> TermId {
        let operand = |o: &Operand<N>| match o {
            Operand::Counter(name) => CompiledOperand::Counter(self.counter_ids[name.as_ref()]),
            Operand::Const(v) => CompiledOperand::Const(*v),
        };
        let (lhs, rhs) = (operand(&term.lhs), operand(&term.rhs));
        let (terms, counters) = (&mut self.terms, self.counters);
        let tid = *self.dedup.entry((lhs, term.op, rhs)).or_insert_with(|| {
            // Placement: evaluate where the first counter operand lives.
            let eval_node = match (lhs, rhs) {
                (CompiledOperand::Counter(c), _) | (_, CompiledOperand::Counter(c)) => {
                    counters[c.index()].home
                }
                _ => NodeId(0),
            };
            terms.push(CompiledTerm {
                lhs,
                op: term.op,
                rhs,
                eval_node,
                conditions: Vec::new(),
            });
            TermId(row(terms.len() - 1))
        });
        let conditions = &mut self.terms[tid.index()].conditions;
        if !conditions.contains(&cond_id) {
            conditions.push(cond_id);
        }
        tid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SRC: &str = r#"
        FILTER_TABLE
        tok: (12 2 0x9900), (14 2 0x0001)
        data: (34 2 0x6000)
        END
        NODE_TABLE
        n1 00:00:00:00:00:01 10.0.0.1
        n2 00:00:00:00:00:02 10.0.0.2
        n3 00:00:00:00:00:03 10.0.0.3
        END
        SCENARIO Placement 1sec
        RxAt2: (tok, n1, n2, RECV)
        TxAt1: (data, n1, n2, SEND)
        Var3: (n3)
        ((RxAt2 = 1)) >> FAIL(n3); ENABLE_CNTR(TxAt1);
        ((RxAt2 > 0) && (TxAt1 = 3)) >> STOP;
        ((Var3 < 0)) >> FLAG_ERROR;
        ((RxAt2 = 2)) >> DROP(tok, n1, n2, RECV);
        END
    "#;

    fn tables() -> TableSet {
        compile(&parse(SRC).unwrap()).unwrap().remove(0)
    }

    /// A weak handle names its set until a write through `DerefMut` — by
    /// the sole owner or beside another handle — leaves it naming none.
    #[test]
    fn a_write_moves_the_tables_away_from_every_weak_handle() {
        let mut t = tables();
        let weak = t.downgrade();
        assert!(weak.names(&t) && weak.names(&TableSet::clone(&t)));
        t.scenario = Name::from("Changed");
        assert!(!weak.names(&t) && !weak.is_live(), "sole owner");

        let weak = t.downgrade();
        let other = TableSet::clone(&t);
        t.scenario = Name::from("Changed");
        assert!(!weak.names(&t) && weak.names(&other), "shared");
        assert!(weak.is_live());
        drop(other);
        assert!(!weak.is_live());
    }

    #[test]
    fn counter_homes_follow_direction() {
        let t = tables();
        let rx = t.counter_by_name("RxAt2").unwrap();
        let tx = t.counter_by_name("TxAt1").unwrap();
        let var = t.counter_by_name("Var3").unwrap();
        assert_eq!(t.counters[rx.index()].home, t.node_by_name("n2").unwrap());
        assert_eq!(t.counters[tx.index()].home, t.node_by_name("n1").unwrap());
        assert_eq!(t.counters[var.index()].home, t.node_by_name("n3").unwrap());
    }

    #[test]
    fn fail_executes_at_the_victim() {
        let t = tables();
        let fail = t
            .actions
            .iter()
            .find(|a| matches!(a.kind, CompiledActionKind::Fail { .. }))
            .unwrap();
        assert_eq!(fail.node, t.node_by_name("n3").unwrap());
    }

    #[test]
    fn counter_ops_execute_at_counter_home() {
        let t = tables();
        let enable = t
            .actions
            .iter()
            .find(|a| {
                matches!(
                    a.kind,
                    CompiledActionKind::Counter {
                        op: CounterOp::Enable,
                        ..
                    }
                )
            })
            .unwrap();
        assert_eq!(enable.node, t.node_by_name("n1").unwrap());
    }

    #[test]
    fn condition_eval_nodes_are_action_homes() {
        let t = tables();
        // First condition triggers FAIL@n3 and ENABLE@n1.
        let cond = &t.conditions[0];
        let n1 = t.node_by_name("n1").unwrap();
        let n3 = t.node_by_name("n3").unwrap();
        assert_eq!(cond.eval_nodes, vec![n1, n3]);
        assert_eq!(cond.triggers.len(), 2);
        assert!(cond.gates.is_empty());
    }

    #[test]
    fn packet_faults_are_gates_not_triggers() {
        let t = tables();
        let cond = &t.conditions[3];
        assert!(cond.triggers.is_empty());
        assert_eq!(cond.gates.len(), 1);
        // DROP ... RECV executes at the receiver, n2.
        assert_eq!(cond.gates[0].0, t.node_by_name("n2").unwrap());
    }

    #[test]
    fn terms_deduplicate_and_tag_conditions() {
        let t = tables();
        // `RxAt2 = 1` appears once; `RxAt2 > 0`, `TxAt1 = 3`, `Var3 < 0`,
        // `RxAt2 = 2` once each → 5 terms.
        assert_eq!(t.terms.len(), 5);
        // The `RxAt2 > 0` term belongs to condition 1 only.
        let rx = t.counter_by_name("RxAt2").unwrap();
        let gt = t
            .terms
            .iter()
            .find(|term| term.op == RelOp::Gt && term.lhs == CompiledOperand::Counter(rx))
            .unwrap();
        assert_eq!(gt.conditions, vec![CondId(1)]);
    }

    #[test]
    fn counter_dependency_tags() {
        let t = tables();
        let rx = t.counter_by_name("RxAt2").unwrap();
        let counter = &t.counters[rx.index()];
        // RxAt2 appears in three terms.
        assert_eq!(counter.affected_terms.len(), 3);
        // All RxAt2 terms evaluate at its home (n2) → no subscribers.
        assert!(counter.subscribers.is_empty());
    }

    #[test]
    fn stop_falls_back_to_first_condition_counter_home() {
        let t = tables();
        let stop = t
            .actions
            .iter()
            .find(|a| matches!(a.kind, CompiledActionKind::Stop))
            .unwrap();
        // Condition references RxAt2 first; its home is n2.
        assert_eq!(stop.node, t.node_by_name("n2").unwrap());
    }

    #[test]
    fn timeout_and_names_carried_over() {
        let t = tables();
        assert_eq!(t.scenario, "Placement");
        assert_eq!(t.timeout_ns, Some(1_000_000_000));
        assert_eq!(t.filters.len(), 2);
        assert_eq!(t.nodes.len(), 3);
        assert_eq!(t.filter_by_name("tok"), Some(FilterId(0)));
        assert_eq!(t.node_by_name("nope"), None);
    }

    #[test]
    fn remote_term_creates_subscription() {
        let src = r#"
            FILTER_TABLE
            p: (12 2 0x9900)
            END
            NODE_TABLE
            a 00:00:00:00:00:01 10.0.0.1
            b 00:00:00:00:00:02 10.0.0.2
            END
            SCENARIO Remote
            AtA: (p, b, a, RECV)
            AtB: (p, a, b, RECV)
            ((AtA = AtB)) >> STOP;
            END
        "#;
        let t = compile(&parse(src).unwrap()).unwrap().remove(0);
        // Term `AtA = AtB` evaluates at AtA's home (a); AtB (home b) must
        // subscribe a.
        let at_b = t.counter_by_name("AtB").unwrap();
        let a = t.node_by_name("a").unwrap();
        assert_eq!(t.counters[at_b.index()].subscribers, vec![a]);
        let at_a = t.counter_by_name("AtA").unwrap();
        assert!(t.counters[at_a.index()].subscribers.is_empty());
    }

    #[test]
    fn invalid_program_rejected() {
        let bad = parse("SCENARIO S (Ghost = 1) >> STOP; END").unwrap();
        assert!(compile(&bad).is_err());
    }

    #[test]
    fn table_set_is_cloneable_and_comparable() {
        let t = tables();
        let cloned = t.clone();
        assert_eq!(t, cloned);
        assert!(!format!("{t:?}").is_empty());
    }
}
