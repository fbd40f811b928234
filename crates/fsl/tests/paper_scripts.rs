//! Golden tests: the paper's own scripts (Figures 2, 5 and 6) must parse,
//! analyze, and compile. And the parser never panics: arbitrary bytes,
//! every truncation of Figures 5 and 6 and single-byte mutations of them
//! all come back as a program or a typed error.
//!
//! The scripts are transcribed from the paper with only mechanical fixes:
//! the figures' line numbers are removed, the duplicated line label "21."
//! in Figure 5 is ignored, `0010` in Figure 6 line 3 is written `0x0010`
//! (an obvious typesetting slip — every other pattern in the table is
//! hex), and a NODE_TABLE is added to Figure 6's scenario (the figure
//! shows only the filter table; the node definitions follow Figure 2's
//! format).

use proptest::prelude::*;
use vw_fsl::{
    analyze, compile, parse, print, CompiledActionKind, CounterId, CounterKind, CounterOp, Dir,
    Fault, FilterId, ModifyPattern, NodeId, PacketSel,
};

/// Figure 2: the TCP filter and node tables.
const FIGURE_2: &str = r#"
VAR SeqNoData, SeqNoAck;
FILTER_TABLE
TCP_data_rt1: (34 2 0x6000), (36 2 0x4000),
    (38 4 SeqNoData), (47 1 0x10 0x10)
TCP_ack_rt1: (34 2 0x4000), (36 2 0x6000),
    (42 4 SeqNoAck), (47 1 0x10 0x10)
TCP_syn: (34 2 0x6000), (36 2 0x4000),
    (47 1 0x02 0x02)
TCP_synack: (34 2 0x4000), (36 2 0x6000),
    (47 1 0x12 0x12)
TCP_data: (34 2 0x6000), (36 2 0x4000),
    (47 1 0x10 0x10)
TCP_ack: (34 2 0x4000), (36 2 0x6000),
    (47 1 0x10 0x10)
END
NODE_TABLE
node0 00:46:61:af:fe:23 192.168.1.1
node1 00:23:31:df:af:12 192.168.1.2
END
"#;

/// Figure 5: the slow-start → congestion-avoidance analysis script
/// (filter/node tables from Figure 2, with node2 added as the receiver the
/// scenario references).
const FIGURE_5: &str = r#"
FILTER_TABLE
TCP_synack: (34 2 0x4000), (36 2 0x6000), (47 1 0x12 0x12)
TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
TCP_ack: (34 2 0x4000), (36 2 0x6000), (47 1 0x10 0x10)
END
NODE_TABLE
node1 00:46:61:af:fe:23 192.168.1.1
node2 00:23:31:df:af:12 192.168.1.2
END
SCENARIO TCP_SS_CA_algo
SYNACK: (TCP_synack, node2, node1, RECV)
SA_ACK: (TCP_data, node1, node2, SEND)
DATA: (TCP_data, node1, node2, SEND)
ACK: (TCP_ack, node2, node1, RECV)
CWND: (node1)
CanTx: (node1)
CCNT: (node1)
SSTHRESH: (node1)
(TRUE) >> ENABLE_CNTR( SYNACK );
    ENABLE_CNTR( SA_ACK );
    ENABLE_CNTR( ACK );
    ASSIGN_CNTR( CWND, 1 );
    ASSIGN_CNTR( CanTx );
    ENABLE_CNTR( CCNT );
    ASSIGN_CNTR( SSTHRESH, 2 );
/* Fault Injection: Drop SynAck at Receiver node */
((SYNACK > 0) && (SYNACK < 2)) >>
    DROP TCP_synack, node2, node1, RECV;
/*** ANALYSIS SCRIPT ***/
/* ACK in response to SYNACK matches tcp_data */
((SA_ACK = 1)) >> ENABLE_CNTR( DATA );
    DISABLE_CNTR( SA_ACK );
((DATA = 1)) >> RESET_CNTR( DATA );
    DECR_CNTR( CanTx , 1 );
/* slow-start */
((CWND <= SSTHRESH) && (ACK = 1)) >>
    RESET_CNTR( ACK );
    INCR_CNTR( CWND, 1);
    INCR_CNTR( CanTx, 1);
/* congestion avoidance */
((CWND > SSTHRESH) && (ACK = 1)) >>
    RESET_CNTR( ACK );
    INCR_CNTR( CanTx, 1 );
    INCR_CNTR( CCNT, 1 );
((CWND > SSTHRESH) && (CCNT > CWND)) >>
    RESET_CNTR( CCNT );
    INCR_CNTR(CWND, 1);
    INCR_CNTR(CanTx, 1);
/* Number of data packets that can be sent out
   is never negative */
((CanTx < 0)) >> FLAG_ERROR;
END
"#;

/// Figure 6: the Rether single-node-failure script.
const FIGURE_6: &str = r#"
FILTER_TABLE
tr_token: (12 2 0x9900), (14 2 0x0001)
tr_token_ack: (12 2 0x9900), (14 2 0x0010)
TCP_data: (34 2 0x6000), (36 2 0x4000),
    (47 1 0x10 0x10)
END
NODE_TABLE
node1 00:00:00:00:00:01 192.168.1.1
node2 00:00:00:00:00:02 192.168.1.2
node3 00:00:00:00:00:03 192.168.1.3
node4 00:00:00:00:00:04 192.168.1.4
END
SCENARIO Test_Single_Node_Failure 1sec
CNT_DATA: (TCP_data, node1, node4, RECV)
TokensTo2: (tr_token, node1, node2, RECV)
TokensFrom2: (tr_token, node2, node3, SEND)
TokensTo4: (tr_token, node2, node4, RECV)
TokensTo1: (tr_token, node4, node1, RECV)
((CNT_DATA > 1000)) >>
    ENABLE_CNTR( TokensTo2 );
((TokensTo2 = 1)) >> FAIL(node3);
    ENABLE_CNTR( TokensFrom2 );
    RESET_CNTR( TokensTo2 );
((TokensFrom2 = 3)) >> ENABLE_CNTR(TokensTo4);
((TokensTo4 = 1)) >> ENABLE_CNTR(TokensTo1);
/*** ANALYSIS SCRIPT ***/
((TokensFrom2 > 3)) >> FLAG_ERROR;
((TokensTo2 = 1) && (TokensTo4 = 1)
    && (TokensTo1 = 1)) >> STOP;
END
"#;

#[test]
fn figure_2_tables_parse() {
    let p = parse(FIGURE_2).unwrap();
    assert_eq!(p.vars, vec!["SeqNoData", "SeqNoAck"]);
    assert_eq!(p.filters.len(), 6);
    assert_eq!(p.filters[0].name, "TCP_data_rt1");
    assert_eq!(p.filters[0].tuples.len(), 4);
    // The (47 1 0x10 0x10) tuples carry a mask.
    let ack_flag = &p.filters[4].tuples[2];
    assert_eq!(ack_flag.offset, 47);
    assert_eq!(ack_flag.mask, Some(0x10));
    assert_eq!(p.nodes.len(), 2);
    assert_eq!(p.nodes[0].mac.to_string(), "00:46:61:af:fe:23");
}

#[test]
fn figure_5_script_parses_analyzes_compiles() {
    let p = parse(FIGURE_5).unwrap();
    analyze(&p).unwrap_or_else(|es| panic!("{es:?}"));
    let s = &p.scenarios[0];
    assert_eq!(s.name, "TCP_SS_CA_algo");
    assert_eq!(s.counters.len(), 8);
    assert_eq!(s.rules.len(), 8);
    // 4 packet counters + 4 node-local variables.
    let packet = s
        .counters
        .iter()
        .filter(|c| matches!(c.kind, CounterKind::PacketEvent { .. }))
        .count();
    assert_eq!(packet, 4);
    // The SYNACK counter counts RECV at node1.
    match &s.counters[0].kind {
        CounterKind::PacketEvent(selector) => {
            assert_eq!(selector.pkt, "TCP_synack");
            assert_eq!(selector.to, "node1");
            assert_eq!(selector.dir, Dir::Recv);
        }
        other => panic!("unexpected counter kind {other:?}"),
    }
    // The paper calls out "10 to 20 lines of script" per scenario; the
    // whole rule set indeed compiles to a compact table set.
    let tables = compile(&p).unwrap().remove(0);
    assert_eq!(tables.counters.len(), 8);
    assert_eq!(tables.conditions.len(), 8);
    // The DROP gate lives at node1 (RECV side).
    let drop_cond = &tables.conditions[1];
    assert_eq!(drop_cond.gates.len(), 1);
    assert_eq!(drop_cond.gates[0].0, tables.node_by_name("node1").unwrap());
}

#[test]
fn figure_6_script_parses_analyzes_compiles() {
    let p = parse(FIGURE_6).unwrap();
    analyze(&p).unwrap_or_else(|es| panic!("{es:?}"));
    let s = &p.scenarios[0];
    assert_eq!(s.name, "Test_Single_Node_Failure");
    assert_eq!(
        s.timeout_ns,
        Some(1_000_000_000),
        "the 1sec inactivity timeout"
    );
    assert_eq!(s.counters.len(), 5);
    assert_eq!(s.rules.len(), 6);
    let tables = compile(&p).unwrap().remove(0);
    // FAIL(node3) executes at node3, triggered by a counter at node2: the
    // distributed-rule-execution case the paper demonstrates.
    let fail = tables
        .actions
        .iter()
        .find(|a| matches!(a.kind, CompiledActionKind::Fail { .. }))
        .unwrap();
    assert_eq!(fail.node, tables.node_by_name("node3").unwrap());
    // TokensFrom2 counts SENDs at node2.
    let tf2 = tables.counter_by_name("TokensFrom2").unwrap();
    assert_eq!(
        tables.counters[tf2.index()].home,
        tables.node_by_name("node2").unwrap()
    );
}

/// Each of the sixteen action keywords compiles to its family: the eight
/// Table I keywords to `Counter` with the matching op, edge-triggered;
/// the five Table II keywords to `Fault` with the matching primitive,
/// level-gated; `FAIL` / `STOP` / `FLAG_ERR` to themselves.
#[test]
fn every_action_keyword_compiles_to_its_family() {
    let counter = |op| CompiledActionKind::Counter {
        counter: CounterId(1),
        op,
    };
    let fault = |fault| CompiledActionKind::Fault {
        on: PacketSel {
            filter: FilterId(0),
            from: NodeId(0),
            to: NodeId(1),
            dir: Dir::Recv,
        },
        fault,
    };
    let cases = [
        ("ASSIGN_CNTR(V, -7)", counter(CounterOp::Assign(-7))),
        ("ASSIGN_CNTR(V)", counter(CounterOp::Assign(0))),
        ("ENABLE_CNTR(V)", counter(CounterOp::Enable)),
        ("DISABLE_CNTR(V)", counter(CounterOp::Disable)),
        ("INCR_CNTR(V, 2)", counter(CounterOp::Incr(2))),
        ("DECR_CNTR(V, 1)", counter(CounterOp::Decr(1))),
        ("RESET_CNTR(V)", counter(CounterOp::Reset)),
        ("SET_CURTIME(V)", counter(CounterOp::SetCurTime)),
        ("ELAPSED_TIME(V)", counter(CounterOp::ElapsedTime)),
        ("DROP(p, a, b, RECV)", fault(Fault::Drop)),
        (
            "DELAY(p, a, b, RECV, 30msec)",
            fault(Fault::Delay {
                duration_ns: 30_000_000,
            }),
        ),
        (
            "REORDER(p, a, b, RECV, 3, (2 0 1))",
            fault(Fault::Reorder {
                count: 3,
                order: vec![2, 0, 1],
            }),
        ),
        ("DUP(p, a, b, RECV)", fault(Fault::Dup)),
        (
            "MODIFY(p, a, b, RECV, RANDOM)",
            fault(Fault::Modify(ModifyPattern::Random)),
        ),
        (
            "MODIFY(p, a, b, RECV, (14 2 0xdead))",
            fault(Fault::Modify(ModifyPattern::Set {
                offset: 14,
                len: 2,
                value: 0xdead,
            })),
        ),
        ("FAIL(a)", CompiledActionKind::Fail { node: NodeId(0) }),
        ("STOP", CompiledActionKind::Stop),
        (
            "FLAG_ERR \"boom\"",
            CompiledActionKind::FlagError {
                message: Some("boom".into()),
            },
        ),
        (
            "FLAG_ERROR",
            CompiledActionKind::FlagError { message: None },
        ),
    ];
    for (text, want) in cases {
        let src = format!(
            "FILTER_TABLE\n p: (12 2 0x9900)\n END\n\
             NODE_TABLE\n a 02:00:00:00:00:01 10.0.0.1\n b 02:00:00:00:00:02 10.0.0.2\n END\n\
             SCENARIO K\n C: (p, a, b, RECV)\n V: (a)\n ((C = 1)) >> {text};\n END\n"
        );
        let tables = compile(&parse(&src).unwrap()).unwrap().remove(0);
        let cond = &tables.conditions[0];
        let gated = matches!(want, CompiledActionKind::Fault { .. });
        assert_eq!(cond.gates.len(), usize::from(gated), "{text}");
        assert_eq!(cond.triggers.len(), usize::from(!gated), "{text}");
        assert_eq!(tables.actions[0].kind, want, "{text}");
    }
}

#[test]
fn paper_scripts_survive_print_parse_round_trip() {
    for (name, src) in [("fig2", FIGURE_2), ("fig5", FIGURE_5), ("fig6", FIGURE_6)] {
        let ast = parse(src).unwrap();
        let printed = print(&ast);
        let reparsed =
            parse(&printed).unwrap_or_else(|e| panic!("{name}: reparse failed: {e}\n{printed}"));
        assert_eq!(ast, reparsed, "{name}: print∘parse must be identity");
    }
}

#[test]
fn script_sizes_match_the_papers_claim() {
    // "10 to 20 lines of script is sufficient to specify the test
    // scenario": count scenario rule-set lines (declarations + rules).
    for src in [FIGURE_5, FIGURE_6] {
        let p = parse(src).unwrap();
        let s = &p.scenarios[0];
        let logical_lines = s.counters.len() + s.rules.len();
        assert!(
            (10..=25).contains(&logical_lines),
            "scenario {} has {logical_lines} logical lines",
            s.name
        );
    }
}

#[test]
fn every_truncation_of_the_paper_scripts_parses_or_errs() {
    for src in [FIGURE_5, FIGURE_6] {
        for end in (0..=src.len()).filter(|&end| src.is_char_boundary(end)) {
            let _ = parse(&src[..end]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn byte_mutations_of_the_paper_scripts_never_panic_the_parser(
        figure_6 in any::<bool>(),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = if figure_6 { FIGURE_6 } else { FIGURE_5 }.as_bytes().to_vec();
        let i = at.index(bytes.len());
        bytes[i] = byte;
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }
}
