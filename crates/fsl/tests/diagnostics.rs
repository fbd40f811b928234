//! Diagnostics quality: error positions and messages a script author would
//! actually see, across lexer, parser, and analyzer.

use vw_fsl::{analyze, compile, lex, parse};

#[test]
fn lexer_errors_carry_positions() {
    let tokens: Result<Vec<_>, _> = lex("FILTER_TABLE\n  p: (0 1 @)\n").collect();
    let err = tokens.unwrap_err();
    let span = err.span().expect("lex errors are positioned");
    assert_eq!(span.line, 2);
    assert!(err.to_string().contains('@'));
}

#[test]
fn parser_error_positions_point_at_the_problem() {
    let src = "SCENARIO Demo\nC: (node1)\n((C = )) >> STOP;\nEND";
    let err = parse(src).unwrap_err();
    let span = err.span().expect("positioned");
    assert_eq!(span.line, 3, "the malformed term is on line 3");
    assert!(err.to_string().contains("counter or constant"));
}

#[test]
fn missing_arrow_is_reported_clearly() {
    let err = parse("SCENARIO S\nC: (n)\n((C = 1)) STOP;\nEND").unwrap_err();
    assert!(err.to_string().contains(">>"), "{err}");
}

#[test]
fn every_error_in_a_broken_script_is_collected() {
    let src = r#"
        FILTER_TABLE
        p: (0 1 0x1)
        END
        NODE_TABLE
        a 02:00:00:00:00:01 10.0.0.1
        END
        SCENARIO Broken
        C: (p, a, ghost, RECV)
        D: (phantom, a, a, SEND)
        ((Missing = 1)) >> DROP(p, ghost, a, SEND); FAIL(nobody);
        ((C = 1)) >> REORDER(p, a, a, RECV, 2, (0 0));
        END
    "#;
    let errors = analyze(&parse(src).unwrap()).unwrap_err();
    let text: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
    // One pass collects every problem, not just the first.
    assert!(errors.len() >= 6, "found only {}: {text:?}", errors.len());
    for needle in [
        "undefined node `ghost`",
        "undefined packet type `phantom`",
        "identical endpoints",
        "undefined counter `Missing`",
        "undefined node `nobody`",
        "not a permutation",
    ] {
        assert!(
            text.iter().any(|t| t.contains(needle)),
            "missing diagnostic {needle:?} in {text:?}"
        );
    }
}

#[test]
fn compile_refuses_invalid_programs_with_the_same_errors() {
    let program = parse("SCENARIO S\n((Nope = 1)) >> STOP;\nEND").unwrap();
    let direct = analyze(&program).unwrap_err();
    let via_compile = compile(&program).unwrap_err();
    assert_eq!(direct, via_compile);
}

#[test]
fn deeply_nested_conditions_parse_and_compile() {
    // Stress the recursive-descent condition parser and CondNode codegen.
    let mut cond = String::from("(C = 0)");
    for i in 1..40 {
        cond = format!("(({cond}) && (C < {i}))");
    }
    let src = format!(
        "FILTER_TABLE
         p: (0 1 0x1)
         END
         NODE_TABLE
         a 02:00:00:00:00:01 10.0.0.1
         b 02:00:00:00:00:02 10.0.0.2
         END
         SCENARIO Deep
         C: (p, a, b, RECV)
         ({cond}) >> STOP;
         END"
    );
    let program = parse(&src).unwrap();
    let tables = compile(&program).unwrap().remove(0);
    // 40 distinct terms, one condition.
    assert_eq!(tables.terms.len(), 40);
    assert_eq!(tables.conditions.len(), 1);
}

#[test]
fn scenario_scale_many_counters_and_rules() {
    // A large generated scenario: 60 counters, 60 rules — compiles with
    // consistent dependency tags.
    let mut src = String::from(
        "FILTER_TABLE
         p: (0 1 0x1)
         END
         NODE_TABLE
         a 02:00:00:00:00:01 10.0.0.1
         b 02:00:00:00:00:02 10.0.0.2
         END
         SCENARIO Big
        ",
    );
    for i in 0..60 {
        src.push_str(&format!("C{i}: (p, a, b, RECV)\n"));
    }
    for i in 0..60 {
        src.push_str(&format!(
            "((C{i} = {i})) >> INCR_CNTR(C{}, 1);\n",
            (i + 1) % 60
        ));
    }
    src.push_str("END");
    let tables = compile(&parse(&src).unwrap()).unwrap().remove(0);
    assert_eq!(tables.counters.len(), 60);
    assert_eq!(tables.conditions.len(), 60);
    assert_eq!(tables.actions.len(), 60);
    // Every counter is referenced by exactly one term.
    for counter in &tables.counters {
        assert_eq!(counter.affected_terms.len(), 1, "{}", counter.name);
    }
}

#[test]
fn a_bare_delay_too_long_for_nanoseconds_is_refused_not_wrapped() {
    // A bare DELAY integer is milliseconds: 2e13 ms does not fit a u64 of
    // nanoseconds, which used to wrap (release) or panic (debug).
    let src = "SCENARIO S\n(TRUE) >> DELAY(p, a, b, RECV, 20000000000000);\nEND\n";
    let err = parse(src).unwrap_err();
    assert_eq!(err.span().map(|s| (s.line, s.col)), Some((2, 32)));
    assert!(err.message().starts_with("expected a duration"), "{err}");
    let src = "SCENARIO S\n(TRUE) >> DELAY(p, a, b, RECV, 20);\nEND\n";
    let p = parse(src).unwrap();
    assert_eq!(
        p.scenarios[0].rules[0].actions[0],
        vw_fsl::Action::Fault {
            on: vw_fsl::PacketSelector {
                pkt: "p".into(),
                from: "a".into(),
                to: "b".into(),
                dir: vw_fsl::Dir::Recv,
            },
            fault: vw_fsl::Fault::Delay {
                duration_ns: 20_000_000
            },
        }
    );
}
