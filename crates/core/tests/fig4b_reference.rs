//! A reference interpreter of Fig 4(b) and Tables I/II for one node,
//! compared with the engine on every generated program and every packet
//! sequence, with no `World` per case: the engine runs on the test
//! recorder through `EngineIo`.
//!
//! The reference reads the compiled tables and nothing the engine builds
//! from them (no classifier index, counter dispatch or dependency list).
//! Per frame it scans the filter table, takes the endpoints from the node
//! table, and bumps every enabled packet counter the frame matches, in
//! counter order. A counter change re-evaluates, in table order, each term
//! that reads the counter; a term that flips re-evaluates, in table order,
//! each condition that names it; a condition that rises fires its actions
//! in table order. Counters those actions change wait on a stack and are
//! taken last-in first, within a budget. Last, a DROP whose condition holds
//! and whose selector matches consumes the frame.
//!
//! The programs: a `(TRUE)` rule enables the counters, then one to three
//! rules over at most two filters, two packet counters and three terms,
//! each with one or two actions from INCR, RESET, DROP, FLAG_ERR and STOP.
//! They come from a seeded generator, [`PROGRAMS`] of them. Each runs on
//! every sequence of five frames that match filter A, filter B or neither
//! (243 sequences, so 243,000 cases), compared after every frame: the
//! verdict, every counter, the errors and the time of the first STOP.
//!
//! A cascade drained first-in first-out, a term's conditions or a
//! counter's terms re-evaluated in reverse, an INCR whose counter's terms
//! are not re-evaluated, and an INCR applied twice each make it fail.

mod recorder;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recorder::Recorder;
use virtualwire::{compile_script, Engine, EngineConfig};
use vw_fsl::{
    CompiledActionKind, CompiledCounterKind, CompiledOperand, CounterId, CounterOp, Dir, Fault,
    NodeId, PatternValue, TableSet, Tables, TermId,
};
use vw_netsim::{SimTime, Verdict};
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};

/// How many programs the generator makes.
const PROGRAMS: u64 = 1000;
/// Frames per packet sequence; every sequence over the three kinds runs.
const FRAMES: u32 = 5;
/// A small cascade budget, so a program whose rules cycle ends quickly.
const BUDGET: u32 = 16;

const ME: MacAddr = MacAddr::from_index(1);
const PEER: MacAddr = MacAddr::from_index(2);
/// Frame kinds: matches filter A, matches filter B, matches neither.
const KINDS: [EtherType; 3] = [EtherType(0x4141), EtherType(0x4242), EtherType(0x4343)];

// ----------------------------------------------------------------------
// The reference
// ----------------------------------------------------------------------

/// One node's Fig 4(b) state, over the tables as compiled.
struct Reference<'t> {
    t: &'t Tables,
    me: NodeId,
    now: SimTime,
    counters: Vec<i64>,
    enabled: Vec<bool>,
    terms: Vec<bool>,
    conditions: Vec<bool>,
    errors: Vec<(SimTime, String)>,
    stop: Option<SimTime>,
}

impl<'t> Reference<'t> {
    /// Installs the tables: every term and condition evaluated over zero
    /// counters, then each condition that starts out true fired, its
    /// cascade run before the next one fires.
    fn install(t: &'t Tables, me: NodeId) -> Self {
        let mut r = Reference {
            t,
            me,
            now: SimTime::ZERO,
            counters: vec![0; t.counters.len()],
            enabled: vec![false; t.counters.len()],
            terms: vec![false; t.terms.len()],
            conditions: vec![false; t.conditions.len()],
            errors: Vec::new(),
            stop: None,
        };
        for i in 0..t.terms.len() {
            r.terms[i] = r.term(i);
        }
        let mut rising = Vec::new();
        for i in 0..t.conditions.len() {
            r.conditions[i] = r.condition(i);
            if r.conditions[i] {
                rising.push(i);
            }
        }
        for i in rising {
            let mut pending = Vec::new();
            r.fire(i, &mut pending);
            r.cascade(pending);
        }
        r
    }

    fn value(&self, operand: CompiledOperand) -> i64 {
        match operand {
            CompiledOperand::Counter(c) => self.counters[c.index()],
            CompiledOperand::Const(v) => v,
        }
    }

    fn term(&self, i: usize) -> bool {
        let term = &self.t.terms[i];
        term.op.apply(self.value(term.lhs), self.value(term.rhs))
    }

    fn condition(&self, i: usize) -> bool {
        self.t.conditions[i]
            .expr
            .eval(&|term| self.terms[term.index()])
    }

    /// Scans the filter table: the first filter whose every tuple matches.
    fn classify(&self, frame: &Frame) -> Option<usize> {
        let bytes = frame.bytes();
        self.t.filters.iter().position(|filter| {
            filter.tuples.iter().all(|tuple| {
                let (at, len) = (tuple.offset as usize, tuple.len as usize);
                let Some(field) = bytes.get(at..at + len) else {
                    return false;
                };
                let value = field.iter().fold(0u64, |v, &b| v << 8 | u64::from(b));
                let value = tuple.mask.map_or(value, |mask| value & mask);
                matches!(tuple.pattern, PatternValue::Literal(p) if p == value)
            })
        })
    }

    fn node(&self, mac: MacAddr) -> Option<NodeId> {
        let i = self.t.nodes.iter().position(|n| n.mac == mac)?;
        Some(NodeId(i as u16))
    }

    /// One frame through Fig 4(b); `true` when it is consumed.
    fn frame(&mut self, now: SimTime, frame: &Frame, dir: Dir) -> bool {
        self.now = now;
        let Some(filter) = self.classify(frame) else {
            return false;
        };
        let (from, to) = (self.node(frame.src()), self.node(frame.dst()));
        let matches = |sel: &vw_fsl::PacketSel| {
            sel.filter.index() == filter
                && sel.dir == dir
                && Some(sel.from) == from
                && Some(sel.to) == to
        };
        let bumped: Vec<usize> = (0..self.t.counters.len())
            .filter(|&c| match &self.t.counters[c].kind {
                CompiledCounterKind::Packet(sel) => self.enabled[c] && matches(sel),
                CompiledCounterKind::Local => false,
            })
            .collect();
        for c in bumped {
            self.change(c, self.counters[c] + 1);
        }
        for (i, condition) in self.t.conditions.iter().enumerate() {
            if !self.conditions[i] {
                continue;
            }
            for &(node, action) in &condition.gates {
                let kind = &self.t.actions[action.index()].kind;
                if let CompiledActionKind::Fault {
                    on,
                    fault: Fault::Drop,
                } = kind
                {
                    if node == self.me && matches(on) {
                        return true;
                    }
                }
            }
        }
        false
    }

    fn change(&mut self, counter: usize, value: i64) {
        if self.counters[counter] != value {
            self.counters[counter] = value;
            self.cascade(vec![counter]);
        }
    }

    /// Takes changed counters off the stack until it is empty or the
    /// budget is spent.
    fn cascade(&mut self, mut pending: Vec<usize>) {
        let mut budget = BUDGET;
        while let Some(counter) = pending.pop() {
            if budget == 0 {
                let message = "evaluation cascade exceeded its budget (cyclic rules?)";
                self.errors.push((self.now, message.into()));
                return;
            }
            budget -= 1;
            let reads = |operand: CompiledOperand| {
                operand == CompiledOperand::Counter(CounterId(counter as u16))
            };
            for ti in 0..self.t.terms.len() {
                let term = &self.t.terms[ti];
                if !(reads(term.lhs) || reads(term.rhs)) {
                    continue;
                }
                let status = self.term(ti);
                if status == self.terms[ti] {
                    continue;
                }
                self.terms[ti] = status;
                for ci in 0..self.t.conditions.len() {
                    if !self.t.conditions[ci]
                        .expr
                        .terms()
                        .contains(&TermId(ti as u16))
                    {
                        continue;
                    }
                    let (was, now) = (self.conditions[ci], self.condition(ci));
                    self.conditions[ci] = now;
                    if now && !was {
                        self.fire(ci, &mut pending);
                    }
                }
            }
        }
    }

    /// Runs a risen condition's actions in table order (Table I and the
    /// edge-triggered rows of Table II).
    fn fire(&mut self, condition: usize, pending: &mut Vec<usize>) {
        for &(node, action) in &self.t.conditions[condition].triggers {
            if node != self.me {
                continue;
            }
            match &self.t.actions[action.index()].kind {
                &CompiledActionKind::Counter { counter, op } => {
                    let c = counter.index();
                    match op {
                        CounterOp::Enable => self.enabled[c] = true,
                        CounterOp::Incr(k) => {
                            self.counters[c] = self.counters[c].saturating_add(k);
                            pending.push(c);
                        }
                        CounterOp::Reset if self.counters[c] != 0 => {
                            self.counters[c] = 0;
                            pending.push(c);
                        }
                        CounterOp::Reset => {}
                        op => panic!("outside the generated programs: {op:?}"),
                    }
                }
                CompiledActionKind::FlagError { message } => {
                    let message = message
                        .clone()
                        .unwrap_or_else(|| format!("FLAG_ERR fired (condition {condition})"));
                    self.errors.push((self.now, message));
                }
                CompiledActionKind::Stop => {
                    self.stop.get_or_insert(self.now);
                }
                kind => panic!("outside the generated programs: {kind:?}"),
            }
        }
    }
}

// ----------------------------------------------------------------------
// The programs
// ----------------------------------------------------------------------

/// Program `seed` of the generator, as FSL source.
fn program(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let filters = rng.random_range(1..=2usize);
    let counters = rng.random_range(1..=2usize);
    let packet = |rng: &mut StdRng| ["A", "B"][rng.random_range(0..filters)];
    let mut out = String::from("FILTER_TABLE\nA: (12 2 0x4141)\n");
    if filters == 2 {
        out.push_str("B: (12 2 0x4242)\n");
    }
    out.push_str(
        "END\nNODE_TABLE\nnode1 02:00:00:00:00:01 192.168.1.2\n\
         node2 02:00:00:00:00:02 192.168.1.3\nEND\n",
    );
    out.push_str(&format!("SCENARIO Gen{seed}\n"));
    for c in 1..=counters {
        out.push_str(&format!(
            "C{c}: ({}, node1, node2, SEND)\n",
            packet(&mut rng)
        ));
    }
    out.push_str("(TRUE) >>");
    for c in 1..=counters {
        out.push_str(&format!(" ENABLE_CNTR(C{c});"));
    }
    out.push('\n');

    let mut pool: Vec<String> = Vec::new();
    for _ in 0..rng.random_range(1..=3) {
        let term = if counters == 2 && rng.random_range(0..6) == 0 {
            "(C1 = C2)".to_string()
        } else {
            let c = rng.random_range(1..=counters);
            let op = ["=", ">", "<"][rng.random_range(0..3usize)];
            format!("(C{c} {op} {})", rng.random_range(0..=2))
        };
        if !pool.contains(&term) {
            pool.push(term);
        }
    }
    for _ in 0..rng.random_range(1..=3) {
        let a = &pool[rng.random_range(0..pool.len())];
        let b = &pool[rng.random_range(0..pool.len())];
        let condition = match rng.random_range(0..4) {
            0 if a != b => format!("({a} && {b})"),
            1 if a != b => format!("({a} || {b})"),
            _ => format!("({a})"),
        };
        let actions: Vec<String> = (0..rng.random_range(1..=2))
            .map(|_| {
                let c = rng.random_range(1..=counters);
                match rng.random_range(0..5) {
                    0 => format!("INCR_CNTR(C{c}, 1)"),
                    1 => format!("RESET_CNTR(C{c})"),
                    2 => format!("DROP({}, node1, node2, SEND)", packet(&mut rng)),
                    3 => "FLAG_ERR".to_string(),
                    _ => "STOP".to_string(),
                }
            })
            .collect();
        out.push_str(&format!("{condition} >> {};\n", actions.join("; ")));
    }
    out.push_str("END\n");
    out
}

fn frame(kind: usize) -> Frame {
    EthernetBuilder::new()
        .src(ME)
        .dst(PEER)
        .ethertype(KINDS[kind])
        .payload(&[kind as u8; 46])
        .build()
}

/// Runs `tables` on the engine and on the reference over the frame kinds
/// of `sequence`, comparing after every frame. `Err` names the first
/// difference.
fn compare(tables: &TableSet, sequence: &[usize]) -> Result<(), String> {
    let config = EngineConfig {
        cascade_budget: BUDGET,
        ..EngineConfig::default()
    };
    let mut io = Recorder::new(ME, 1);
    let mut engine = Engine::control(config, TableSet::clone(tables), NodeId(0));
    engine.start(io.begin(SimTime::ZERO));
    let mut reference = Reference::install(tables, NodeId(0));
    for (i, &kind) in sequence.iter().enumerate() {
        let now = SimTime::from_nanos(1_000 * (i as u64 + 1));
        let consumed = match engine.outbound(io.begin(now), frame(kind)) {
            Verdict::Accept(f) if f == frame(kind) => false,
            Verdict::Consume => true,
            other => return Err(format!("frame {i}: verdict {other:?}")),
        };
        let expected = reference.frame(now, &frame(kind), Dir::Send);
        let counters: Vec<i64> = (0..tables.counters.len())
            .map(|c| engine.counter(CounterId(c as u16)).unwrap())
            .collect();
        let errors: Vec<(SimTime, String)> = (engine.errors().iter())
            .map(|e| (e.time, e.message.clone()))
            .collect();
        let stop = io.stops.first().map(|&(at, _)| at);
        let found = (consumed, &counters, &errors, stop);
        let wanted = (
            expected,
            &reference.counters,
            &reference.errors,
            reference.stop,
        );
        if found != wanted {
            return Err(format!(
                "after frame {i}: engine (consumed, counters, errors, stop) {found:?}, \
                 reference {wanted:?}"
            ));
        }
    }
    Ok(())
}

#[test]
fn the_engine_runs_fig_4b_as_the_reference_does_on_every_small_program() {
    let sequences: Vec<Vec<usize>> = (0..3usize.pow(FRAMES))
        .map(|n| (0..FRAMES).map(|i| n / 3usize.pow(i) % 3).collect())
        .collect();
    let mut cases = 0;
    let mut fired = [0u32; 3]; // programs that dropped, flagged, stopped
    for seed in 0..PROGRAMS {
        let source = program(seed);
        let tables = compile_script(&source).unwrap_or_else(|e| panic!("{e}\n{source}"));
        for sequence in &sequences {
            if let Err(difference) = compare(&tables, sequence) {
                panic!("program {seed}, frames {sequence:?}: {difference}\n{source}");
            }
            cases += 1;
        }
        for (i, action) in ["DROP", "FLAG_ERR", "STOP"].iter().enumerate() {
            fired[i] += u32::from(source.contains(action));
        }
    }
    assert_eq!(cases, PROGRAMS as usize * 243);
    assert!(fired.iter().all(|&n| n > PROGRAMS as u32 / 4), "{fired:?}");
}
