//! Every table a compile emits, and every list the control plane carries,
//! fits its `u16` length prefix and ids: a script whose filter, node,
//! counter, term, rule (condition) or action table, `VAR` list or filter
//! tuple list would hold more than `MAX_WIRE_LEN` (65,535) rows is
//! refused by analysis, with an error naming the table. Before, ids were
//! cast with `as u16`: 65,537 filters passed analysis, and a counter on
//! the last one compiled to filter 0's packets.

use vw_fsl::{
    analyze, compile, parse, Action, CompiledCounterKind, CondExpr, CounterDecl, CounterKind,
    CounterOp, FilterDef, FilterId, FilterTuple, NodeDef, Operand, PatternValue, Program, RelOp,
    Rule, Scenario, Term, MAX_WIRE_LEN,
};
use vw_packet::MacAddr;

/// A script of `filters` packet definitions, two nodes and one counter on
/// the last definition.
fn script_with_filters(filters: usize) -> String {
    let mut s = String::from("FILTER_TABLE\n");
    for i in 0..filters {
        s.push_str(&format!("f{i}: (12 2 0x{:x})\n", i & 0xffff));
    }
    s.push_str("END\nNODE_TABLE\n");
    s.push_str("a 02:00:00:00:00:01 10.0.0.1\nb 02:00:00:00:00:02 10.0.0.2\nEND\n");
    s.push_str(&format!(
        "SCENARIO S\nLast: (f{}, a, b, RECV)\n(TRUE) >> ENABLE_CNTR(Last);\nEND\n",
        filters - 1
    ));
    s
}

fn messages(program: &Program) -> Vec<String> {
    match analyze(program) {
        Ok(()) => Vec::new(),
        Err(errors) => errors.iter().map(|e| e.message().to_owned()).collect(),
    }
}

#[test]
fn a_filter_table_past_the_u16_ids_is_refused_not_wrapped() {
    let program = parse(&script_with_filters(MAX_WIRE_LEN + 2)).unwrap();
    assert_eq!(
        messages(&program),
        ["65537 packet definitions exceed the 65535-row limit of a table"]
    );
    assert!(compile(&program).is_err());
}

#[test]
fn a_full_filter_table_compiles_with_its_last_id() {
    let program = parse(&script_with_filters(MAX_WIRE_LEN)).unwrap();
    let tables = compile(&program).unwrap().remove(0);
    assert_eq!(tables.filters.len(), MAX_WIRE_LEN);
    let CompiledCounterKind::Packet(sel) = tables.counters[0].kind else {
        panic!("the counter counts packets");
    };
    assert_eq!(sel.filter, FilterId(u16::MAX - 1));
}

fn node(i: usize) -> NodeDef {
    NodeDef {
        name: format!("n{i}"),
        mac: MacAddr::from_index(i as u32 + 1),
        ip: "10.0.0.1".parse().unwrap(),
    }
}

/// One filter, two nodes and a scenario of `counters` node-local
/// counters and `rules`.
fn program(counters: usize, rules: Vec<Rule>) -> Program {
    Program {
        vars: Vec::new(),
        filters: vec![FilterDef {
            name: "p".into(),
            tuples: vec![FilterTuple {
                offset: 12,
                len: 2,
                mask: None,
                pattern: PatternValue::Literal(0x9900),
            }],
        }],
        nodes: vec![node(0), node(1)],
        scenarios: vec![Scenario {
            name: "S".into(),
            timeout_ns: None,
            counters: (0..counters.max(1))
                .map(|i| CounterDecl {
                    name: format!("C{i}"),
                    kind: CounterKind::NodeLocal { node: "n0".into() },
                })
                .collect(),
            rules,
        }],
    }
}

fn enable(counter: &str) -> Action {
    Action::Counter {
        counter: counter.into(),
        op: CounterOp::Enable,
    }
}

fn term(value: i64) -> CondExpr {
    CondExpr::Term(Term {
        lhs: Operand::Counter("C0".into()),
        op: RelOp::Eq,
        rhs: Operand::Const(value),
    })
}

/// `leaf(i)` for each `i` of `range`, joined by `join` into a balanced
/// tree (a chain of 65,536 would recurse that deep).
fn tree(range: std::ops::Range<i64>, leaf: &dyn Fn(i64) -> CondExpr) -> CondExpr {
    if range.end - range.start == 1 {
        return leaf(range.start);
    }
    let mid = range.start + (range.end - range.start) / 2;
    CondExpr::Or(
        Box::new(tree(range.start..mid, leaf)),
        Box::new(tree(mid..range.end, leaf)),
    )
}

fn stop(condition: CondExpr) -> Rule {
    Rule {
        condition,
        actions: vec![Action::Stop],
    }
}

#[test]
fn every_table_past_the_u16_ids_is_refused_by_name() {
    let over = MAX_WIRE_LEN + 1;
    let mut nodes = program(1, vec![stop(CondExpr::True)]);
    nodes.nodes = (0..over).map(node).collect();
    let counters = program(over, vec![stop(CondExpr::True)]);
    let rules = program(1, (0..over).map(|_| stop(CondExpr::True)).collect());
    let actions = program(
        1,
        vec![Rule {
            condition: CondExpr::True,
            actions: vec![enable("C0"); over],
        }],
    );
    let terms = program(1, vec![stop(tree(0..over as i64, &term))]);
    let mut vars = program(1, vec![stop(CondExpr::True)]);
    vars.vars = (0..over).map(|i| format!("V{i}")).collect();
    let mut tuples = program(1, vec![stop(CondExpr::True)]);
    let tuple = tuples.filters[0].tuples[0].clone();
    tuples.filters[0].tuples = vec![tuple; over];

    let limit = |what: &str| format!("65536 {what} exceed the 65535-row limit of a table");
    assert_eq!(messages(&nodes), [limit("nodes")]);
    assert_eq!(messages(&counters), [limit("counters in S")]);
    // A rule is a condition, with at least one action.
    assert_eq!(
        messages(&rules),
        [limit("rules in S"), limit("actions in S")]
    );
    assert_eq!(messages(&actions), [limit("actions in S")]);
    assert_eq!(messages(&terms), [limit("terms in S")]);
    assert_eq!(messages(&vars), [limit("VARs")]);
    assert_eq!(messages(&tuples), [limit("match tuples in packet `p`")]);
}

/// A term is one row however often a script uses it: a condition that
/// uses one term 65,536 times makes a one-row term table.
#[test]
fn a_term_used_past_the_limit_is_still_one_row() {
    let condition = tree(0..MAX_WIRE_LEN as i64 + 1, &|_| term(1));
    let tables = compile(&program(1, vec![stop(condition)]))
        .unwrap()
        .remove(0);
    assert_eq!(tables.terms.len(), 1);
    assert_eq!(tables.terms[0].conditions.len(), 1);
}
