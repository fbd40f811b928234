//! Property tests for the scenario-script parser and printer.
//!
//! Two pinned guarantees:
//!
//! 1. `Script::parse(script.print()) == script` for every well-formed
//!    AST — the canonical printer is a lossless inverse of the parser.
//! 2. The parser never panics: arbitrary garbage, truncated canonical
//!    scripts, and byte-mutated canonical scripts all produce either a
//!    parse or a typed [`ScriptParseError`].

use proptest::prelude::*;
use vw_analysis::script::{
    Atom, CmpOp, Directive, ExpectDir, FrameSpec, Layer, Matcher, Op, Proto, Script, Window,
};

/// A plausible node/counter identifier. Names sit in blindly-consumed
/// token positions, so the only real constraint is "one token", but we
/// keep them identifier-shaped for readability of failure output.
fn ident() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_]{0,8}".prop_map(|s| s)
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Ge),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Lt),
    ]
}

/// Non-empty byte strings: the grammar's hex fields reject empty.
fn bytes1() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 1..8)
}

fn window() -> impl Strategy<Value = Window> {
    (any::<u64>(), prop::option::of(any::<u64>())).prop_map(|(a, b)| match b {
        None => Window::at(a),
        Some(b) => Window::span(a.min(b), a.max(b)),
    })
}

fn atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        (cmp_op(), any::<u16>()).prop_map(|(op, v)| Atom::Sport(op, v)),
        (cmp_op(), any::<u16>()).prop_map(|(op, v)| Atom::Dport(op, v)),
        (cmp_op(), any::<u32>()).prop_map(|(op, v)| Atom::Len(op, v)),
        bytes1().prop_map(Atom::PayloadContains),
    ]
}

fn matcher() -> impl Strategy<Value = Matcher> {
    (
        prop_oneof![Just(Proto::Any), Just(Proto::Udp), Just(Proto::Tcp)],
        prop::collection::vec(atom(), 0..4),
    )
        .prop_map(|(proto, atoms)| Matcher { proto, atoms })
}

fn frame_spec() -> impl Strategy<Value = FrameSpec> {
    prop_oneof![
        bytes1().prop_map(FrameSpec::Hex),
        (
            ident(),
            ident(),
            any::<u16>(),
            any::<u16>(),
            prop::collection::vec(any::<u8>(), 0..8),
        )
            .prop_map(|(src, dst, sport, dport, payload)| FrameSpec::Udp {
                src,
                dst,
                sport,
                dport,
                payload,
            }),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            prop_oneof![Just(Layer::Stack), Just(Layer::Wire)],
            ident(),
            frame_spec(),
        )
            .prop_map(|(layer, node, frame)| Op::Inject { layer, node, frame }),
        (
            prop_oneof![Just(ExpectDir::Send), Just(ExpectDir::Recv)],
            ident(),
            matcher(),
        )
            .prop_map(|(dir, node, matcher)| Op::Expect { dir, node, matcher }),
        (
            prop_oneof![Just(ExpectDir::Send), Just(ExpectDir::Recv)],
            ident(),
            matcher(),
        )
            .prop_map(|(dir, node, matcher)| Op::ExpectNone { dir, node, matcher }),
        // i64::MIN is excluded: the grammar parses the magnitude as u64
        // first, so -(2^63) is out of the parseable domain.
        (ident(), cmp_op(), -i64::MAX..=i64::MAX)
            .prop_map(|(counter, op, value)| Op::AssertCounter { counter, op, value }),
    ]
}

fn script() -> impl Strategy<Value = Script> {
    prop::collection::vec(
        (window(), op()).prop_map(|(window, op)| Directive { window, op }),
        0..6,
    )
    .prop_map(|directives| Script { directives })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn print_then_parse_is_the_identity(script in script()) {
        let printed = script.print();
        let reparsed = Script::parse(&printed)
            .map_err(|e| TestCaseError::fail(format!("canonical print rejected: {e}\n{printed}")))?;
        prop_assert_eq!(script, reparsed);
    }

    #[test]
    fn arbitrary_input_never_panics(src in any::<String>()) {
        // Typed result either way; the interesting property is "no panic".
        let _ = Script::parse(&src);
    }

    #[test]
    fn truncated_canonical_scripts_yield_typed_errors(
        script in script(),
        cut in any::<prop::sample::Index>(),
    ) {
        let printed = script.print();
        // Canonical output is pure ASCII, so any index is a char boundary.
        let end = cut.index(printed.len() + 1);
        match Script::parse(&printed[..end]) {
            Ok(_) => {} // cut landed on a line boundary
            Err(e) => prop_assert!(e.line >= 1, "error must locate a line: {e}"),
        }
    }

    #[test]
    fn byte_mutations_never_panic(
        script in script(),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let printed = script.print();
        if printed.is_empty() {
            return Ok(());
        }
        let mut bytes = printed.into_bytes();
        let i = at.index(bytes.len());
        bytes[i] = byte;
        let _ = Script::parse(&String::from_utf8_lossy(&bytes));
    }
}
