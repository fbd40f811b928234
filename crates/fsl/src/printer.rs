//! Pretty-printer: renders an AST back to canonical FSL source.
//!
//! `parse(print(program))` reproduces the program exactly (verified by a
//! property test), which makes the printer useful both for script
//! generation tooling — the paper's Section 8 imagines generating scripts
//! from protocol specifications — and for normalizing hand-written
//! scripts.

use std::fmt::{self, Write as _};

use crate::ast::*;

/// Renders a program as canonical FSL source.
pub fn print(program: &Program) -> String {
    let mut out = String::new();
    if !program.vars.is_empty() {
        let _ = writeln!(out, "VAR {};", program.vars.join(", "));
    }
    if !program.filters.is_empty() {
        out.push_str("FILTER_TABLE\n");
        for filter in &program.filters {
            let tuples: Vec<String> = filter.tuples.iter().map(print_tuple).collect();
            let _ = writeln!(out, "{}: {}", filter.name, tuples.join(", "));
        }
        out.push_str("END\n");
    }
    if !program.nodes.is_empty() {
        out.push_str("NODE_TABLE\n");
        for node in &program.nodes {
            let _ = writeln!(out, "{} {} {}", node.name, node.mac, node.ip);
        }
        out.push_str("END\n");
    }
    for scenario in &program.scenarios {
        print_scenario(&mut out, scenario);
    }
    out
}

fn print_tuple(tuple: &FilterTuple) -> String {
    let pattern = match &tuple.pattern {
        PatternValue::Literal(v) => format!("0x{v:x}"),
        PatternValue::Var(name) => name.clone(),
    };
    match tuple.mask {
        Some(mask) => format!("({} {} 0x{mask:x} {pattern})", tuple.offset, tuple.len),
        None => format!("({} {} {pattern})", tuple.offset, tuple.len),
    }
}

fn print_scenario(out: &mut String, scenario: &Scenario) {
    match scenario.timeout_ns {
        Some(ns) => {
            let _ = writeln!(out, "SCENARIO {} {}", scenario.name, print_duration(ns));
        }
        None => {
            let _ = writeln!(out, "SCENARIO {}", scenario.name);
        }
    }
    for decl in &scenario.counters {
        match &decl.kind {
            CounterKind::PacketEvent(selector) => {
                let _ = writeln!(out, "{}: ({selector})", decl.name);
            }
            CounterKind::NodeLocal { node } => {
                let _ = writeln!(out, "{}: ({node})", decl.name);
            }
        }
    }
    for rule in &scenario.rules {
        let _ = writeln!(out, "({}) >>", print_cond(&rule.condition));
        for action in &rule.actions {
            let _ = writeln!(out, "    {};", print_action(action));
        }
    }
    out.push_str("END\n");
}

/// The canonical `pkt, from, to, SEND|RECV` argument list.
impl fmt::Display for PacketSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = match self.dir {
            Dir::Send => "SEND",
            Dir::Recv => "RECV",
        };
        write!(f, "{}, {}, {}, {dir}", self.pkt, self.from, self.to)
    }
}

/// Renders a duration using the largest exact unit.
fn print_duration(ns: u64) -> String {
    if ns.is_multiple_of(1_000_000_000) {
        format!("{}sec", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}msec", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}usec", ns / 1_000)
    } else {
        format!("{ns}nsec")
    }
}

fn print_cond(expr: &CondExpr) -> String {
    match expr {
        CondExpr::True => "TRUE".to_string(),
        CondExpr::False => "FALSE".to_string(),
        CondExpr::Term(t) => format!(
            "{} {} {}",
            print_operand(&t.lhs),
            t.op.symbol(),
            print_operand(&t.rhs)
        ),
        CondExpr::And(a, b) => format!("({}) && ({})", print_cond(a), print_cond(b)),
        CondExpr::Or(a, b) => format!("({}) || ({})", print_cond(a), print_cond(b)),
        CondExpr::Not(a) => format!("!({})", print_cond(a)),
    }
}

fn print_operand(op: &Operand) -> String {
    match op {
        Operand::Counter(name) => name.clone(),
        Operand::Const(v) => v.to_string(),
    }
}

fn print_action(action: &Action) -> String {
    match action {
        Action::Counter { counter, op } => match op {
            CounterOp::Assign(value) => format!("ASSIGN_CNTR({counter}, {value})"),
            CounterOp::Enable => format!("ENABLE_CNTR({counter})"),
            CounterOp::Disable => format!("DISABLE_CNTR({counter})"),
            CounterOp::Incr(value) => format!("INCR_CNTR({counter}, {value})"),
            CounterOp::Decr(value) => format!("DECR_CNTR({counter}, {value})"),
            CounterOp::Reset => format!("RESET_CNTR({counter})"),
            CounterOp::SetCurTime => format!("SET_CURTIME({counter})"),
            CounterOp::ElapsedTime => format!("ELAPSED_TIME({counter})"),
        },
        Action::Fault { on, fault } => match fault {
            Fault::Drop => format!("DROP({on})"),
            Fault::Delay { duration_ns } => {
                format!("DELAY({on}, {})", print_duration(*duration_ns))
            }
            Fault::Reorder { count, order } => {
                let order: Vec<String> = order.iter().map(u32::to_string).collect();
                format!("REORDER({on}, {count}, ({}))", order.join(" "))
            }
            Fault::Dup => format!("DUP({on})"),
            Fault::Modify(ModifyPattern::Random) => format!("MODIFY({on}, RANDOM)"),
            Fault::Modify(ModifyPattern::Set { offset, len, value }) => {
                format!("MODIFY({on}, ({offset} {len} 0x{value:x}))")
            }
        },
        Action::Fail { node } => format!("FAIL({node})"),
        Action::Stop => "STOP".to_string(),
        Action::FlagError { message } => match message {
            Some(msg) => format!("FLAG_ERR \"{msg}\""),
            None => "FLAG_ERR".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use proptest::prelude::*;

    #[test]
    fn round_trips_a_representative_script() {
        let src = r#"
            VAR SeqNo;
            FILTER_TABLE
            tok: (12 2 0x9900), (14 2 0x1)
            seq: (38 4 SeqNo), (47 1 0x10 0x10)
            END
            NODE_TABLE
            n1 00:00:00:00:00:01 10.0.0.1
            n2 00:00:00:00:00:02 10.0.0.2
            END
            SCENARIO Demo 1sec
            C: (tok, n1, n2, RECV)
            V: (n1)
            (TRUE) >> ENABLE_CNTR(C); ASSIGN_CNTR(V, -2);
            ((C > 0) && !((V = 1) || (C >= 5))) >>
                DROP(tok, n1, n2, RECV);
                DELAY(tok, n1, n2, SEND, 20msec);
                REORDER(tok, n1, n2, RECV, 3, (2 0 1));
                MODIFY(tok, n1, n2, SEND, (14 2 0xbeef));
                MODIFY(tok, n1, n2, SEND, RANDOM);
                DUP(tok, n1, n2, RECV);
                FAIL(n2);
                SET_CURTIME(V);
                ELAPSED_TIME(V);
                INCR_CNTR(V, 3);
                DECR_CNTR(V, 1);
                DISABLE_CNTR(C);
                RESET_CNTR(C);
                FLAG_ERR "bad";
                STOP;
            END
        "#;
        let ast = parse(src).unwrap();
        let printed = print(&ast);
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(ast, reparsed, "print → parse must be the identity");
    }

    #[test]
    fn durations_use_largest_exact_unit() {
        assert_eq!(print_duration(2_000_000_000), "2sec");
        assert_eq!(print_duration(500_000_000), "500msec");
        assert_eq!(print_duration(1_500), "1500nsec");
        assert_eq!(print_duration(2_000), "2usec");
        assert_eq!(print_duration(7), "7nsec");
    }

    // ---- property test: print∘parse is the identity on generated ASTs --

    fn ident() -> impl Strategy<Value = String> {
        "[A-Za-z][A-Za-z0-9_]{0,8}".prop_filter("not a keyword", |s| {
            ![
                "VAR",
                "FILTER_TABLE",
                "NODE_TABLE",
                "SCENARIO",
                "END",
                "SEND",
                "RECV",
                "TRUE",
                "FALSE",
                "RANDOM",
                "STOP",
                "DROP",
                "DELAY",
                "REORDER",
                "DUP",
                "MODIFY",
                "FAIL",
            ]
            .contains(&s.as_str())
        })
    }

    prop_compose! {
        fn arb_term(counter: String)(c in 0i64..100, op in 0usize..6) -> Term {
            let ops = [RelOp::Gt, RelOp::Lt, RelOp::Ge, RelOp::Le, RelOp::Eq, RelOp::Ne];
            Term { lhs: Operand::Counter(counter.clone()), op: ops[op], rhs: Operand::Const(c) }
        }
    }

    fn arb_counter_op() -> impl Strategy<Value = CounterOp> {
        prop_oneof![
            (-1000i64..1000).prop_map(CounterOp::Assign),
            Just(CounterOp::Enable),
            Just(CounterOp::Disable),
            (-1000i64..1000).prop_map(CounterOp::Incr),
            (-1000i64..1000).prop_map(CounterOp::Decr),
            Just(CounterOp::Reset),
            Just(CounterOp::SetCurTime),
            Just(CounterOp::ElapsedTime),
        ]
    }

    fn arb_fault() -> impl Strategy<Value = Fault> {
        prop_oneof![
            Just(Fault::Drop),
            (0u64..10_000_000_000).prop_map(|duration_ns| Fault::Delay { duration_ns }),
            // A permutation of 0..n: the indices sorted by random keys.
            proptest::collection::vec(any::<u32>(), 0..6).prop_map(|keys| {
                let mut order: Vec<u32> = (0..keys.len() as u32).collect();
                order.sort_by_key(|&i| keys[i as usize]);
                Fault::Reorder {
                    count: keys.len() as u32,
                    order,
                }
            }),
            Just(Fault::Dup),
            Just(Fault::Modify(ModifyPattern::Random)),
            (0u32..2000, 0u32..12, any::<u64>()).prop_map(|(offset, len, value)| {
                Fault::Modify(ModifyPattern::Set { offset, len, value })
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn print_parse_identity(
            counter in ident(),
            node in ident(),
            pkt in ident(),
            offset in 0u32..100,
            len in 1u32..5,
            pattern in 0u64..0xffff,
            term in ident().prop_flat_map(arb_term),
            ops in proptest::collection::vec(arb_counter_op(), 0..5),
            faults in proptest::collection::vec((arb_fault(), any::<bool>()), 0..5),
            message in proptest::option::of("[a-z ]{0,12}"),
        ) {
            prop_assume!(counter != node && counter != pkt && node != pkt);
            let term = Term { lhs: Operand::Counter(counter.clone()), ..term };
            let selector = |send: bool| PacketSelector {
                pkt: pkt.clone(),
                from: node.clone(),
                to: node.clone(),
                dir: if send { Dir::Send } else { Dir::Recv },
            };
            let mut actions: Vec<Action> = ops
                .into_iter()
                .map(|op| Action::Counter { counter: counter.clone(), op })
                .collect();
            actions.extend(
                faults.into_iter().map(|(fault, send)| Action::Fault { on: selector(send), fault }),
            );
            actions.push(Action::Fail { node: node.clone() });
            actions.push(Action::Stop);
            actions.push(Action::FlagError { message });
            let program = Program {
                vars: vec![],
                filters: vec![FilterDef {
                    name: pkt.clone(),
                    tuples: vec![FilterTuple { offset, len, mask: None, pattern: PatternValue::Literal(pattern) }],
                }],
                nodes: vec![NodeDef {
                    name: node.clone(),
                    mac: vw_packet::MacAddr::from_index(1),
                    ip: "10.0.0.1".parse().unwrap(),
                }],
                scenarios: vec![Scenario {
                    name: "Gen".into(),
                    timeout_ns: Some(250_000_000),
                    counters: vec![
                        CounterDecl { name: counter.clone(), kind: CounterKind::NodeLocal { node: node.clone() } },
                        CounterDecl { name: format!("{counter}_pkts"), kind: CounterKind::PacketEvent(selector(false)) },
                    ],
                    rules: vec![Rule { condition: CondExpr::Term(term), actions }],
                }],
            };
            let printed = print(&program);
            let reparsed = parse(&printed).map_err(|e| TestCaseError::fail(format!("{e}\n{printed}")))?;
            prop_assert_eq!(program, reparsed);
        }
    }
}
