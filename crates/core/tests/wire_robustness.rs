//! Robustness of the control-plane codec: arbitrary bytes must never
//! panic the decoder, and every encodable message must round-trip —
//! including fuzzed mutations of valid encodings.

use proptest::prelude::*;
use virtualwire::wire::{
    build_frame, decode, decode_sequenced, encode, encode_sequenced, parse_frame, ControlMsg,
};
use virtualwire::{Engine, EngineConfig};
use vw_fsl::{
    ActionId, CompiledActionKind, CompiledCounterKind, CompiledOperand, CondId, CondNode,
    CounterId, FilterId, NodeId, TableSet, TermId,
};
use vw_netsim::{SimDuration, World};
use vw_packet::{EtherType, EthernetBuilder, MacAddr};

fn sample_messages(seed: u16) -> Vec<ControlMsg> {
    vec![
        ControlMsg::InitAck { node: NodeId(seed) },
        ControlMsg::CounterUpdate {
            counter: CounterId(seed),
            value: i64::from(seed) * -7,
        },
        ControlMsg::TermStatus {
            term: TermId(seed),
            status: seed.is_multiple_of(2),
        },
        ControlMsg::FlagError {
            node: NodeId(seed),
            condition: CondId(seed),
            message: "x".repeat(usize::from(seed % 97)),
        },
        ControlMsg::Stop {
            node: NodeId(seed),
            reason: "stop reason".into(),
        },
    ]
}

/// Every strict prefix of a valid encoding is an error — the decoder
/// never reads past the bytes it was given and never panics on
/// truncation, whatever the message variant.
#[test]
fn truncation_of_every_variant_errors() {
    for msg in sample_messages(11) {
        let bytes = encode(&msg);
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncated {msg:?} at {cut}/{} must error",
                bytes.len()
            );
        }
    }
}

/// Length fields that promise more bytes than the payload holds
/// (an "oversized" interior claim) must error, not over-read.
#[test]
fn oversized_interior_length_errors() {
    // TAG_STOP(6), node=0, then a string length claiming 0xFFFF bytes
    // with only three present.
    let lying_stop = [6u8, 0, 0, 0xFF, 0xFF, b'a', b'b', b'c'];
    assert!(decode(&lying_stop).is_err());
    // TAG_FLAG_ERROR(5), node, condition, huge message length, no bytes.
    let lying_flag = [5u8, 0, 1, 0, 2, 0x7F, 0xFF];
    assert!(decode(&lying_flag).is_err());
    // TAG_INIT(1) with a scenario-name length far past the end.
    let lying_init = [1u8, 0, 0, 0xFF, 0xFE];
    assert!(decode(&lying_init).is_err());
}

const OVERLONG_SCRIPT_HEAD: &str = r#"
    FILTER_TABLE
    p: (12 2 0x9900)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S
    C: (p, a, b, RECV)
"#;

/// Lengths the `u16` prefixes cannot carry are refused where the script
/// is compiled: a 70 000-byte `FLAG_ERROR` message used to compile, wrap
/// its prefix to 4 464 and decode as a different table set.
#[test]
fn overlong_script_strings_fail_to_compile() {
    let message = "m".repeat(70_000);
    let long_message =
        format!("{OVERLONG_SCRIPT_HEAD} ((C = 1)) >> FLAG_ERROR \"{message}\";\n END");
    let err = virtualwire::compile_script(&long_message).unwrap_err();
    assert!(err
        .to_string()
        .contains("FLAG_ERROR message of 70000 bytes"));

    let name = "n".repeat(300);
    let long_name = format!("{OVERLONG_SCRIPT_HEAD} {name}: (a)\n ((C = 1)) >> STOP;\n END");
    let err = virtualwire::compile_script(&long_name).unwrap_err();
    assert!(err.to_string().contains("counter name of 300 bytes"));

    let huge_batch = format!(
        "{OVERLONG_SCRIPT_HEAD} ((C = 1)) >> REORDER(p, a, b, RECV, 4000000000, (0));\n END"
    );
    let err = virtualwire::compile_script(&huge_batch).unwrap_err();
    assert!(err.to_string().contains("REORDER of 4000000000 packets"));
}

/// A table set built by hand past those bounds cannot reach the wire:
/// encoding it panics instead of wrapping the prefix.
#[test]
#[should_panic(expected = "u16 prefix")]
fn hand_built_overlong_tables_cannot_be_encoded() {
    let script = format!("{OVERLONG_SCRIPT_HEAD} ((C = 1)) >> FLAG_ERROR \"m\";\n END");
    let mut tables = virtualwire::compile_script(&script).unwrap();
    for action in &mut tables.actions {
        if let CompiledActionKind::FlagError { message } = &mut action.kind {
            *message = Some("m".repeat(70_000));
        }
    }
    let sent = ControlMsg::Init {
        tables,
        you_are: NodeId(1),
    };
    // At the parent this returned `Ok` with a different table set.
    assert_eq!(decode(&encode(&sent)).ok(), Some(sent));
}

/// Every action keyword (both `MODIFY` patterns, `FLAG_ERR` with and
/// without a message) and both counter kinds, compiled from text so the
/// test names no table type.
const GOLDEN_INIT_SCRIPT: &str = r#"
    FILTER_TABLE
    p: (12 2 0x9900)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO G 1sec
    C: (p, a, b, RECV)
    V: (b)
    (TRUE) >> ENABLE_CNTR(C); ASSIGN_CNTR(V, -7);
    ((C = 1)) >>
        DROP(p, a, b, RECV);
        DELAY(p, a, b, SEND, 30msec);
        REORDER(p, a, b, RECV, 3, (2 0 1));
        DUP(p, a, b, SEND);
        MODIFY(p, a, b, RECV, (14 2 0xdead));
        MODIFY(p, a, b, RECV, RANDOM);
        FAIL(b);
        SET_CURTIME(V);
        ELAPSED_TIME(V);
        INCR_CNTR(V, 2);
        DECR_CNTR(V, 1);
        DISABLE_CNTR(C);
        RESET_CNTR(C);
        FLAG_ERR "boom";
        FLAG_ERR;
        STOP;
    END
"#;

const GOLDEN_INIT_HEX: &str = "\
    01000100014701000000003b9aca000000000100017001000000010000000c00 \
    0000020000000000000000990000020001610200000000010a00000100016202 \
    00000000020a0000020002000143000000000000010100010001000000000001 \
    5601000100000000000100000004010000000000000001000100010001000200 \
    00010001000200010000000100010000020000000200000001000a0001000800 \
    0100090001000a0001000b0001000c0001000d0001000e0001000f0001001000 \
    0100110006000100020000000300010004000000050001000600010007001200 \
    010100000001000001fffffffffffffff9000108000000000001010000090000 \
    00000001000000000001c9c38000010a00000000000101000000030003000000 \
    02000000000000000100000b0000000000010000010c00000000000101010000 \
    000e00000002000000000000dead00010c000000000001010000010d00010001 \
    0600010001070001000103000100000000000000020001040001000000000000 \
    00010001020000000105000000010f010004626f6f6d00010f0000010e \
";

/// Golden bytes for the table codec: one `Init` carrying all sixteen
/// action kinds and both counter kinds. The tag numbers and field order
/// are the deployed format; a reshape of the table types may not move a
/// byte.
#[test]
fn golden_bytes_for_an_init_with_every_action_kind() {
    let tables = virtualwire::compile_script(GOLDEN_INIT_SCRIPT).unwrap();
    let msg = ControlMsg::Init {
        tables,
        you_are: NodeId(1),
    };
    let bytes = encode(&msg);
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN_INIT_HEX.split_whitespace().collect::<String>());
    assert_eq!(decode(&bytes).unwrap(), msg);
}

/// An id that indexes no row of any table in [`GOLDEN_INIT_SCRIPT`].
const BAD: u16 = 999;

fn packet_sel(kind: &mut CompiledCounterKind) -> &mut vw_fsl::PacketSel {
    match kind {
        CompiledCounterKind::Packet(sel) => sel,
        CompiledCounterKind::Local => panic!("counter 0 counts packets"),
    }
}

fn fault_sel(tables: &mut TableSet) -> &mut vw_fsl::PacketSel {
    let fault = tables.actions.iter_mut().find_map(|a| match &mut a.kind {
        CompiledActionKind::Fault { on, .. } => Some(on),
        _ => None,
    });
    fault.expect("the script has faults")
}

/// `decode` refuses an `Init` whose table set holds an id past the end of
/// the table it indexes, whichever row carries it, and the error names
/// that row. Everything the engine indexes with is covered: an `Init`
/// that decodes cannot make `tables.x[id.index()]` panic.
#[test]
fn init_with_an_out_of_range_id_is_refused() {
    type Patch = fn(&mut TableSet);
    let patches: [(&str, Patch); 20] = [
        ("counter 0: filter", |t| {
            packet_sel(&mut t.counters[0].kind).filter = FilterId(BAD)
        }),
        ("counter 0: node", |t| {
            packet_sel(&mut t.counters[0].kind).from = NodeId(BAD)
        }),
        ("counter 0: node", |t| {
            packet_sel(&mut t.counters[0].kind).to = NodeId(BAD)
        }),
        ("counter 1: node", |t| t.counters[1].home = NodeId(BAD)),
        ("counter 0: term", |t| {
            t.counters[0].affected_terms.push(TermId(BAD))
        }),
        ("counter 1: node", |t| {
            t.counters[1].subscribers.push(NodeId(BAD))
        }),
        ("term 0: counter", |t| {
            t.terms[0].lhs = CompiledOperand::Counter(CounterId(BAD))
        }),
        ("term 0: counter", |t| {
            t.terms[0].rhs = CompiledOperand::Counter(CounterId(BAD))
        }),
        ("term 0: node", |t| t.terms[0].eval_node = NodeId(BAD)),
        ("term 0: condition", |t| {
            t.terms[0].conditions.push(CondId(BAD))
        }),
        ("condition 1: term", |t| {
            let leaf = CondNode::Not(Box::new(CondNode::Term(TermId(BAD))));
            t.conditions[1].expr = CondNode::And(Box::new(CondNode::True), Box::new(leaf));
        }),
        ("condition 0: node", |t| {
            t.conditions[0].eval_nodes.push(NodeId(BAD))
        }),
        ("condition 0: node", |t| {
            t.conditions[0].triggers[0].0 = NodeId(BAD)
        }),
        ("condition 0: action", |t| {
            t.conditions[0].triggers[0].1 = ActionId(BAD)
        }),
        ("condition 1: node", |t| {
            t.conditions[1].gates[0].0 = NodeId(BAD)
        }),
        ("condition 1: action", |t| {
            t.conditions[1].gates[0].1 = ActionId(BAD)
        }),
        ("action 0: node", |t| t.actions[0].node = NodeId(BAD)),
        ("action 0: counter", |t| {
            t.actions[0].kind = CompiledActionKind::Counter {
                counter: CounterId(BAD),
                op: vw_fsl::CounterOp::Enable,
            }
        }),
        ("action 2: filter", |t| fault_sel(t).filter = FilterId(BAD)),
        ("action 8: node", |t| {
            t.actions[8].kind = CompiledActionKind::Fail { node: NodeId(BAD) }
        }),
    ];
    let tables = virtualwire::compile_script(GOLDEN_INIT_SCRIPT).unwrap();
    let refusal = |tables: TableSet, you_are: NodeId| {
        let bytes = encode(&ControlMsg::Init { tables, you_are });
        decode(&bytes)
            .expect_err("a dangling id must be refused")
            .to_string()
    };
    for (row, patch) in patches {
        let mut hostile = tables.clone();
        patch(&mut hostile);
        let error = refusal(hostile, NodeId(1));
        assert!(
            error.contains(row) && error.contains("id 999"),
            "{row}: {error}"
        );
    }
    let error = refusal(tables, NodeId(BAD));
    assert!(error.contains("node id 999"), "you_are: {error}");
}

/// The reproduction behind the id check: a well-formed `Init` whose
/// action table names a counter that does not exist, sent to an engine
/// that is waiting for its tables. At the parent the frame decoded,
/// installed, and the `(TRUE)` rule's first action indexed
/// `counter_values[999]`; now the frame is dropped like any other
/// malformed control payload.
#[test]
fn hostile_init_from_the_wire_cannot_panic_a_waiting_engine() {
    let mut tables = virtualwire::compile_script(GOLDEN_INIT_SCRIPT).unwrap();
    tables.actions[0].kind = CompiledActionKind::Counter {
        counter: CounterId(BAD),
        op: vw_fsl::CounterOp::Incr(1),
    };
    let mut world = World::new(1);
    let host = world.add_host("b");
    let hook = world.add_hook(host, Box::new(Engine::new(EngineConfig::default())));
    let init = ControlMsg::Init {
        tables,
        you_are: NodeId(1),
    };
    let frame = build_frame(MacAddr::from_index(9), world.host_mac(host), &init);
    world.inject_from_wire(host, frame);
    world.run_for(SimDuration::from_millis(1));
    let engine = world.hook::<Engine>(host, hook).unwrap();
    assert_eq!(engine.stats().control_received, 1, "the frame arrived");
    assert!(!engine.initialized(), "and was refused");
}

// ---------------------------------------------------------------------
// The same table bytes decoded again on one thread
// ---------------------------------------------------------------------

/// Two small table sets that share their node table and differ in the rest.
const REPEAT_SCRIPT_A: &str = r#"
    FILTER_TABLE
    p: (12 2 0x9900)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO A 1sec
    C: (p, a, b, RECV)
    ((C = 2)) >> DROP(p, a, b, RECV);
    END
"#;

const REPEAT_SCRIPT_B: &str = r#"
    FILTER_TABLE
    q: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO B
    S: (q, a, b, SEND)
    (TRUE) >> ENABLE_CNTR(S);
    ((S = 5)) >> STOP;
    END
"#;

/// The `Init` of `script` for node `you_are`, encoded.
fn init_bytes(script: &str, you_are: u16) -> Vec<u8> {
    let tables = virtualwire::compile_script(script).unwrap();
    encode(&ControlMsg::Init {
        tables,
        you_are: NodeId(you_are),
    })
}

/// What one decode returned: the message re-encoded as hex and its
/// `Debug` text, or the error.
fn decoded(bytes: &[u8]) -> String {
    match decode(bytes) {
        Ok(msg) => {
            let hex: String = encode(&msg).iter().map(|b| format!("{b:02x}")).collect();
            format!("ok {hex}\n{msg:?}")
        }
        Err(e) => format!("err {e}"),
    }
}

/// [`decoded`] on a thread of its own, which has decoded nothing before.
fn decoded_on_a_fresh_thread(bytes: &[u8]) -> String {
    let bytes = bytes.to_vec();
    std::thread::spawn(move || decoded(&bytes)).join().unwrap()
}

/// One thread decodes the `Init` of table set A, then B's, then A's
/// twice more: every decode gives the message a thread that never decoded
/// anything gives, and re-encodes to the bytes it came from.
#[test]
fn inits_of_two_table_sets_decoded_a_b_a_a_on_one_thread() {
    let a = (init_bytes(REPEAT_SCRIPT_A, 1), GOLDEN_REPEAT_A);
    let b = (init_bytes(REPEAT_SCRIPT_B, 1), GOLDEN_REPEAT_B);
    for (name, (bytes, golden)) in [("A", &a), ("B", &b), ("A", &a), ("A", &a)] {
        let got = decoded(bytes);
        assert_eq!(got, format!("ok {golden}"), "{name}");
        assert_eq!(got, decoded_on_a_fresh_thread(bytes), "{name}");
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert!(golden.starts_with(&format!("{hex}\n")), "{name}");
    }
}

const GOLDEN_REPEAT_A: &str = "\
    01000100014101000000003b9aca000000000100017001000000010000000c00\
    0000020000000000000000990000020001610200000000010a00000100016202\
    00000000020a0000020001000143000000000000010100010001000000000001\
    0000000401000000000000000200010001000000010200000001000100000001\
    00010000000100010800000000000101\
    \n\
    Init { tables: TableSet(Tables { scenario: \"A\", timeout_ns: Some(1000000000), vars: [], \
    filters: [CompiledFilter { name: \"p\", tuples: [FilterTuple { offset: 12, len: 2, \
    mask: None, pattern: Literal(39168) }], discriminant: Some(0) }], \
    nodes: [CompiledNode { name: \"a\", mac: MacAddr(02:00:00:00:00:01), ip: 10.0.0.1 }, \
    CompiledNode { name: \"b\", mac: MacAddr(02:00:00:00:00:02), ip: 10.0.0.2 }], \
    counters: [CompiledCounter { name: \"C\", kind: Packet(PacketSel { filter: FilterId(0), \
    from: NodeId(0), to: NodeId(1), dir: Recv }), home: NodeId(1), affected_terms: [TermId(0)], \
    subscribers: [] }], terms: [CompiledTerm { lhs: Counter(CounterId(0)), op: Eq, \
    rhs: Const(2), eval_node: NodeId(1), conditions: [CondId(0)] }], \
    conditions: [CompiledCondition { expr: Term(TermId(0)), eval_nodes: [NodeId(1)], \
    triggers: [], gates: [(NodeId(1), ActionId(0))] }], \
    actions: [CompiledAction { node: NodeId(1), \
    kind: Fault { on: PacketSel { filter: FilterId(0), from: NodeId(0), to: NodeId(1), \
    dir: Recv }, fault: Drop } }] }), you_are: NodeId(1) }\
";

const GOLDEN_REPEAT_B: &str = "\
    0100010001420000000001000171010000000200000017000000010000000000\
    0000000011000000240000000200000000000000006363000200016102000000\
    00010a0000010001620200000000020a00000200010001530000000000000100\
    0000000100000000000100000004010000000000000005000000010001000200\
    0001000000010000000000000200000001000000010000000100000002000001\
    000000000e\
    \n\
    Init { tables: TableSet(Tables { scenario: \"B\", timeout_ns: None, vars: [], \
    filters: [CompiledFilter { name: \"q\", tuples: [FilterTuple { offset: 23, len: 1, \
    mask: None, pattern: Literal(17) }, FilterTuple { offset: 36, len: 2, mask: None, \
    pattern: Literal(25443) }], discriminant: Some(0) }], nodes: [CompiledNode { name: \"a\", \
    mac: MacAddr(02:00:00:00:00:01), ip: 10.0.0.1 }, CompiledNode { name: \"b\", \
    mac: MacAddr(02:00:00:00:00:02), ip: 10.0.0.2 }], counters: [CompiledCounter { name: \"S\", \
    kind: Packet(PacketSel { filter: FilterId(0), from: NodeId(0), to: NodeId(1), dir: Send }), \
    home: NodeId(0), affected_terms: [TermId(0)], subscribers: [] }], \
    terms: [CompiledTerm { lhs: Counter(CounterId(0)), op: Eq, rhs: Const(5), \
    eval_node: NodeId(0), conditions: [CondId(1)] }], \
    conditions: [CompiledCondition { expr: True, eval_nodes: [NodeId(0)], \
    triggers: [(NodeId(0), ActionId(0))], gates: [] }, \
    CompiledCondition { expr: Term(TermId(0)), eval_nodes: [NodeId(0)], triggers: [(NodeId(0), \
    ActionId(1))], gates: [] }], actions: [CompiledAction { node: NodeId(0), \
    kind: Counter { counter: CounterId(0), op: Enable } }, CompiledAction { node: NodeId(0), \
    kind: Stop }] }), you_are: NodeId(1) }\
";

/// An `Init` repeating the table bytes the thread decoded last, addressed
/// to a node the tables do not have: refused with the message a fresh
/// decode gives, and a waiting engine that receives it stays waiting.
#[test]
fn an_init_repeating_the_last_tables_for_an_unknown_node_is_refused() {
    let good = init_bytes(REPEAT_SCRIPT_A, 1);
    let hostile = init_bytes(REPEAT_SCRIPT_A, BAD);
    assert!(decoded(&good).starts_with("ok "));
    let refusal = decoded(&hostile);
    assert_eq!(refusal, decoded_on_a_fresh_thread(&hostile));
    assert_eq!(
        refusal,
        "err init 0: node id 999 is outside the 2-row table"
    );

    let mut world = World::new(1);
    let host = world.add_host("b");
    let hook = world.add_hook(host, Box::new(Engine::new(EngineConfig::default())));
    let init = ControlMsg::Init {
        tables: virtualwire::compile_script(REPEAT_SCRIPT_A).unwrap(),
        you_are: NodeId(BAD),
    };
    for _ in 0..2 {
        assert!(decoded(&good).starts_with("ok "));
        let frame = build_frame(MacAddr::from_index(9), world.host_mac(host), &init);
        world.inject_from_wire(host, frame);
        world.run_for(SimDuration::from_millis(1));
    }
    let engine = world.hook::<Engine>(host, hook).unwrap();
    assert_eq!(engine.stats().control_received, 2, "both frames arrived");
    assert!(!engine.initialized(), "and both were refused");
}

/// Valid table bytes followed by one stray byte: refused whether or not
/// the thread has just decoded the same tables, with one message.
#[test]
fn an_init_with_a_stray_byte_after_its_tables_is_refused() {
    let good = init_bytes(REPEAT_SCRIPT_A, 1);
    let mut stray = good.clone();
    stray.push(0);
    let fresh = decoded_on_a_fresh_thread(&stray);
    assert_eq!(fresh, "err 1 trailing bytes");
    assert_eq!(decoded(&stray), fresh, "before a good decode");
    assert!(decoded(&good).starts_with("ok "));
    assert_eq!(decoded(&stray), fresh, "right after one");
    assert_eq!(decoded(&stray), fresh, "right after a refusal");
    assert!(
        decoded(&good).starts_with("ok "),
        "and the tables still decode"
    );
}

/// A `0x88B5` frame whose payload is empty is an error, and a frame
/// carrying any other EtherType is rejected before payload inspection.
#[test]
fn control_frame_edge_cases() {
    let src = MacAddr::new([2, 0, 0, 0, 0, 1]);
    let dst = MacAddr::new([2, 0, 0, 0, 0, 2]);
    let empty = EthernetBuilder::new()
        .src(src)
        .dst(dst)
        .ethertype(EtherType::VW_CONTROL)
        .build();
    assert!(parse_frame(&empty).is_err());

    let wrong_ethertype = EthernetBuilder::new()
        .src(src)
        .dst(dst)
        .ethertype(EtherType(0x1234))
        .payload(&encode(&ControlMsg::InitAck { node: NodeId(0) }))
        .build();
    assert!(parse_frame(&wrong_ethertype).is_err());

    // A well-formed control frame still round-trips.
    let msg = ControlMsg::Stop {
        node: NodeId(3),
        reason: "done".into(),
    };
    let frame = build_frame(src, dst, &msg);
    assert_eq!(parse_frame(&frame).unwrap(), msg);
}

proptest! {
    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes); // Ok or Err, never a panic
    }

    /// Garbage wrapped in a 0x88B5 control frame: `parse_frame` must
    /// return Ok or Err, never panic or over-read.
    #[test]
    fn garbage_control_frames_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let frame = vw_packet::EthernetBuilder::new()
            .src(MacAddr::new([2, 0, 0, 0, 0, 1]))
            .dst(MacAddr::new([2, 0, 0, 0, 0, 2]))
            .ethertype(EtherType::VW_CONTROL)
            .payload(&bytes)
            .build();
        let _ = parse_frame(&frame);
    }

    /// A body is exactly one message: bytes left over after it are
    /// refused, while frame padding past the header's declared body
    /// length (outside the body) is still tolerated.
    #[test]
    fn trailing_garbage_is_refused(
        seed in any::<u16>(),
        tail in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        for msg in sample_messages(seed) {
            let mut bytes = encode(&msg);
            bytes.extend_from_slice(&tail);
            prop_assert!(decode(&bytes).is_err());
            let mut padded = encode_sequenced(7, 3, &msg);
            padded.extend_from_slice(&tail);
            prop_assert_eq!(decode_sequenced(&padded).unwrap().msg, msg);
        }
    }

    #[test]
    fn runtime_messages_round_trip(
        counter in any::<u16>(),
        value in any::<i64>(),
        term in any::<u16>(),
        status in any::<bool>(),
        node in any::<u16>(),
        cond in any::<u16>(),
        msg_text in "[ -~]{0,80}",
    ) {
        let messages = [
            ControlMsg::InitAck { node: NodeId(node) },
            ControlMsg::CounterUpdate { counter: CounterId(counter), value },
            ControlMsg::TermStatus { term: TermId(term), status },
            ControlMsg::FlagError {
                node: NodeId(node),
                condition: CondId(cond),
                message: msg_text.clone(),
            },
            ControlMsg::Stop { node: NodeId(node), reason: msg_text.clone() },
        ];
        for msg in messages {
            prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }
    }

    /// Mutate one byte of a valid encoding: the decoder must either still
    /// produce some message or error out — never panic.
    #[test]
    fn single_byte_mutations_never_panic(
        counter in any::<u16>(),
        value in any::<i64>(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let msg = ControlMsg::CounterUpdate { counter: CounterId(counter), value };
        let mut bytes = encode(&msg);
        let pos = ((bytes.len() as f64 - 1.0) * pos_frac) as usize;
        bytes[pos] ^= flip;
        let _ = decode(&bytes);
    }

    /// Init messages with a real compiled table set survive truncation at
    /// any point without panicking.
    #[test]
    fn init_truncation_never_panics(cut_frac in 0.0f64..1.0) {
        let tables = virtualwire::compile_script(
            r#"
            FILTER_TABLE
            p: (12 2 0x9900)
            END
            NODE_TABLE
            a 02:00:00:00:00:01 10.0.0.1
            b 02:00:00:00:00:02 10.0.0.2
            END
            SCENARIO S
            C: (p, a, b, RECV)
            ((C = 1)) >> DROP(p, a, b, RECV); STOP;
            END
            "#,
        ).unwrap();
        let bytes = encode(&ControlMsg::Init { tables, you_are: NodeId(1) });
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        prop_assert!(decode(&bytes[..cut]).is_err() || cut == bytes.len());
    }
}

// ---------------------------------------------------------------------
// Versioned reliability header (wire v2)
// ---------------------------------------------------------------------

mod versioned {
    use proptest::prelude::*;
    use virtualwire::wire::{
        decode_sequenced, encode, encode_sequenced, ControlDecodeError, ControlMsg, HEADER_LEN,
        WIRE_MAGIC, WIRE_VERSION,
    };
    use vw_fsl::{CounterId, NodeId, TermId};

    /// Golden bytes for the v2 layout: magic, version, body_len (u32 BE),
    /// seq (u32 BE), ack (u32 BE), then the tag-encoded body. Pinning the
    /// exact bytes keeps the wire format honest across refactors.
    #[test]
    fn golden_bytes_for_v2_term_status() {
        let msg = ControlMsg::TermStatus {
            term: TermId(2),
            status: true,
        };
        let bytes = encode_sequenced(0x0102_0304, 0x0A0B_0C0D, &msg);
        assert_eq!(
            bytes,
            vec![
                0xD7, // WIRE_MAGIC
                2,    // WIRE_VERSION
                0, 0, 0, 4, // body_len = 4
                1, 2, 3, 4, // seq
                0x0A, 0x0B, 0x0C, 0x0D, // ack
                4,    // TAG_TERM_STATUS
                0, 2, // term id
                1, // status = true
            ]
        );
        assert_eq!(bytes[0], WIRE_MAGIC);
        assert_eq!(bytes[1], WIRE_VERSION);
        assert_eq!(bytes.len(), HEADER_LEN + 4);
        let cf = decode_sequenced(&bytes).unwrap();
        assert_eq!(cf.seq, 0x0102_0304);
        assert_eq!(cf.ack, 0x0A0B_0C0D);
        assert_eq!(cf.msg, msg);
    }

    /// Old unsequenced (v1, tag-first) payloads are rejected with the
    /// typed `Legacy` error — never misparsed as versioned frames.
    #[test]
    fn legacy_payloads_are_rejected_with_typed_error() {
        for msg in [
            ControlMsg::InitAck { node: NodeId(1) },
            ControlMsg::CounterUpdate {
                counter: CounterId(3),
                value: -9,
            },
            ControlMsg::TermStatus {
                term: TermId(0),
                status: false,
            },
            ControlMsg::Stop {
                node: NodeId(0),
                reason: "r".into(),
            },
            ControlMsg::Ack,
        ] {
            let legacy = encode(&msg); // bare body = exactly the v1 layout
            match decode_sequenced(&legacy) {
                Err(ControlDecodeError::Legacy { tag }) => {
                    assert!((1..=7).contains(&tag), "tag {tag}")
                }
                other => panic!("legacy {msg:?} must be rejected as Legacy, got {other:?}"),
            }
        }
    }

    #[test]
    fn versioned_header_edge_cases() {
        assert_eq!(decode_sequenced(&[]), Err(ControlDecodeError::Truncated));
        assert_eq!(
            decode_sequenced(&[0xEE, 2, 0, 0]),
            Err(ControlDecodeError::BadMagic { byte: 0xEE })
        );
        assert_eq!(
            decode_sequenced(&[WIRE_MAGIC, 2, 0, 0]),
            Err(ControlDecodeError::Truncated)
        );
        assert_eq!(
            decode_sequenced(&[WIRE_MAGIC, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(ControlDecodeError::UnsupportedVersion { version: 9 })
        );
        // Length field promising more body than available.
        let mut lying = encode_sequenced(1, 0, &ControlMsg::Ack);
        lying[5] = 200;
        assert_eq!(
            decode_sequenced(&lying),
            Err(ControlDecodeError::LengthMismatch {
                declared: 200,
                available: 1,
            })
        );
        // A sound header with a garbage body is a Body error.
        let bad_body = {
            let mut b = vec![WIRE_MAGIC, WIRE_VERSION, 0, 0, 0, 1];
            b.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 0]); // seq=0 ack=0
            b.push(0xFF); // unknown tag
            b
        };
        assert!(matches!(
            decode_sequenced(&bad_body),
            Err(ControlDecodeError::Body(_))
        ));
    }

    proptest! {
        /// Truncating a versioned payload anywhere never panics and —
        /// except at full length — never succeeds.
        #[test]
        fn versioned_truncation_never_panics(
            seq in any::<u32>(),
            ack in any::<u32>(),
            cut_frac in 0.0f64..1.0,
        ) {
            let msg = ControlMsg::CounterUpdate { counter: CounterId(7), value: -1 };
            let bytes = encode_sequenced(seq, ack, &msg);
            let cut = (bytes.len() as f64 * cut_frac) as usize;
            prop_assert!(decode_sequenced(&bytes[..cut]).is_err() || cut == bytes.len());
        }

        /// Garbage bytes never panic the versioned decoder.
        #[test]
        fn versioned_decode_never_panics_on_garbage(
            bytes in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let _ = decode_sequenced(&bytes);
        }
    }
}
