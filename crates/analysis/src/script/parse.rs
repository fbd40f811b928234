//! The script parser: line-oriented, hand-rolled, panic-free.
//!
//! Every failure is a typed [`ScriptParseError`] carrying the
//! one-based source line and a [`ParseErrorKind`]; truncated or garbage
//! input can never panic (pinned by a property test).

use std::error::Error;
use std::fmt;

use super::ast::{
    Atom, CmpOp, Directive, ExpectDir, FrameSpec, Layer, Matcher, Op, Proto, Script, Window,
};

/// Why a script line failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The line does not start with an `@time` stamp.
    MissingTime,
    /// The time stamp is malformed (bad number, unknown unit, overflow,
    /// or a window whose end precedes its start).
    BadTime,
    /// The directive keyword is not one of `inject` / `expect` /
    /// `expect-none` / `assert-counter`.
    UnknownDirective,
    /// The line ended where another token was required.
    UnexpectedEnd,
    /// A numeric field is malformed or out of range.
    BadNumber,
    /// A hex byte string is empty, odd-length, or not hex.
    BadHex,
    /// A keyword or operator token was not recognized where it stood.
    UnknownToken,
    /// Well-formed directive followed by extra tokens.
    Trailing,
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ParseErrorKind::MissingTime => "missing @time",
            ParseErrorKind::BadTime => "bad time",
            ParseErrorKind::UnknownDirective => "unknown directive",
            ParseErrorKind::UnexpectedEnd => "unexpected end of line",
            ParseErrorKind::BadNumber => "bad number",
            ParseErrorKind::BadHex => "bad hex",
            ParseErrorKind::UnknownToken => "unknown token",
            ParseErrorKind::Trailing => "trailing tokens",
        })
    }
}

/// A parse failure: where, what kind, and a human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptParseError {
    /// One-based source line.
    pub line: usize,
    /// The failure class.
    pub kind: ParseErrorKind,
    /// Specifics (the offending token, the valid range, ...).
    pub message: String,
}

impl fmt::Display for ScriptParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}: {}", self.line, self.kind, self.message)
    }
}

impl Error for ScriptParseError {}

fn perr(line: usize, kind: ParseErrorKind, message: impl Into<String>) -> ScriptParseError {
    ScriptParseError {
        line,
        kind,
        message: message.into(),
    }
}

/// Token cursor over one line, tracking the source line for errors.
struct Cursor<'a> {
    tokens: Vec<&'a str>,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self, what: &str) -> Result<&'a str, ScriptParseError> {
        match self.tokens.get(self.pos) {
            Some(&token) => {
                self.pos += 1;
                Ok(token)
            }
            None => Err(perr(
                self.line,
                ParseErrorKind::UnexpectedEnd,
                format!("expected {what}"),
            )),
        }
    }

    fn peek(&self) -> Option<&'a str> {
        self.tokens.get(self.pos).copied()
    }

    fn done(&self) -> Result<(), ScriptParseError> {
        match self.tokens.get(self.pos) {
            Some(&token) => Err(perr(
                self.line,
                ParseErrorKind::Trailing,
                format!("unexpected {token:?} after directive"),
            )),
            None => Ok(()),
        }
    }
}

fn parse_time(line: usize, token: &str) -> Result<u64, ScriptParseError> {
    let (digits, unit) = token
        .char_indices()
        .find(|&(_, c)| !c.is_ascii_digit())
        .map(|(i, _)| token.split_at(i))
        .unwrap_or((token, ""));
    let scale: u64 = match unit {
        "ns" => 1,
        "us" => 1_000,
        "ms" => 1_000_000,
        "s" => 1_000_000_000,
        _ => {
            return Err(perr(
                line,
                ParseErrorKind::BadTime,
                format!("unknown time unit in {token:?} (ns/us/ms/s)"),
            ))
        }
    };
    let value: u64 = digits.parse().map_err(|_| {
        perr(
            line,
            ParseErrorKind::BadTime,
            format!("bad time value {token:?}"),
        )
    })?;
    value.checked_mul(scale).ok_or_else(|| {
        perr(
            line,
            ParseErrorKind::BadTime,
            format!("time {token:?} overflows"),
        )
    })
}

fn parse_window(line: usize, token: &str) -> Result<Window, ScriptParseError> {
    let stamp = token.strip_prefix('@').ok_or_else(|| {
        perr(
            line,
            ParseErrorKind::MissingTime,
            format!("directive must start with @time, got {token:?}"),
        )
    })?;
    match stamp.split_once("..") {
        None => Ok(Window::at(parse_time(line, stamp)?)),
        Some((a, b)) => {
            let start = parse_time(line, a)?;
            let end = parse_time(line, b)?;
            if end < start {
                return Err(perr(
                    line,
                    ParseErrorKind::BadTime,
                    format!("window end {b} precedes start {a}"),
                ));
            }
            Ok(Window::span(start, end))
        }
    }
}

fn parse_u64(line: usize, token: &str) -> Result<u64, ScriptParseError> {
    let parsed = match token.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => token.parse(),
    };
    parsed.map_err(|_| {
        perr(
            line,
            ParseErrorKind::BadNumber,
            format!("bad number {token:?}"),
        )
    })
}

fn parse_u16(line: usize, token: &str) -> Result<u16, ScriptParseError> {
    let value = parse_u64(line, token)?;
    u16::try_from(value).map_err(|_| {
        perr(
            line,
            ParseErrorKind::BadNumber,
            format!("{token:?} exceeds u16 range"),
        )
    })
}

fn parse_i64(line: usize, token: &str) -> Result<i64, ScriptParseError> {
    let (negative, digits) = match token.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, token),
    };
    let value = parse_u64(line, digits)?;
    let value = i64::try_from(value).map_err(|_| {
        perr(
            line,
            ParseErrorKind::BadNumber,
            format!("{token:?} out of range"),
        )
    })?;
    Ok(if negative { -value } else { value })
}

fn parse_hex(line: usize, token: &str) -> Result<Vec<u8>, ScriptParseError> {
    if token.is_empty() || !token.len().is_multiple_of(2) {
        return Err(perr(
            line,
            ParseErrorKind::BadHex,
            format!("hex bytes must be non-empty and even-length, got {token:?}"),
        ));
    }
    let mut bytes = Vec::with_capacity(token.len() / 2);
    for pair in token.as_bytes().chunks(2) {
        let byte = std::str::from_utf8(pair)
            .ok()
            .and_then(|s| u8::from_str_radix(s, 16).ok())
            .ok_or_else(|| {
                perr(
                    line,
                    ParseErrorKind::BadHex,
                    format!("non-hex in {token:?}"),
                )
            })?;
        bytes.push(byte);
    }
    Ok(bytes)
}

fn parse_cmp(line: usize, token: &str) -> Result<CmpOp, ScriptParseError> {
    match token {
        "==" => Ok(CmpOp::Eq),
        "!=" => Ok(CmpOp::Ne),
        ">=" => Ok(CmpOp::Ge),
        "<=" => Ok(CmpOp::Le),
        ">" => Ok(CmpOp::Gt),
        "<" => Ok(CmpOp::Lt),
        _ => Err(perr(
            line,
            ParseErrorKind::UnknownToken,
            format!("expected comparison operator, got {token:?}"),
        )),
    }
}

fn parse_matcher(cursor: &mut Cursor<'_>) -> Result<Matcher, ScriptParseError> {
    let line = cursor.line;
    let proto = match cursor.next("protocol (any/udp/tcp)")? {
        "any" => Proto::Any,
        "udp" => Proto::Udp,
        "tcp" => Proto::Tcp,
        other => {
            return Err(perr(
                line,
                ParseErrorKind::UnknownToken,
                format!("expected any/udp/tcp, got {other:?}"),
            ))
        }
    };
    let mut atoms = Vec::new();
    while let Some(keyword) = cursor.peek() {
        cursor.pos += 1;
        match keyword {
            "sport" => {
                let op = parse_cmp(line, cursor.next("comparison")?)?;
                let value = parse_u16(line, cursor.next("port")?)?;
                atoms.push(Atom::Sport(op, value));
            }
            "dport" => {
                let op = parse_cmp(line, cursor.next("comparison")?)?;
                let value = parse_u16(line, cursor.next("port")?)?;
                atoms.push(Atom::Dport(op, value));
            }
            "len" => {
                let op = parse_cmp(line, cursor.next("comparison")?)?;
                let value = parse_u64(line, cursor.next("length")?)?;
                let value = u32::try_from(value).map_err(|_| {
                    perr(line, ParseErrorKind::BadNumber, "length exceeds u32 range")
                })?;
                atoms.push(Atom::Len(op, value));
            }
            "payload-contains-hex" => {
                let bytes = parse_hex(line, cursor.next("hex bytes")?)?;
                atoms.push(Atom::PayloadContains(bytes));
            }
            other => {
                return Err(perr(
                    line,
                    ParseErrorKind::UnknownToken,
                    format!("expected sport/dport/len/payload-contains-hex, got {other:?}"),
                ))
            }
        }
    }
    Ok(Matcher { proto, atoms })
}

fn parse_expect_dir(line: usize, token: &str) -> Result<ExpectDir, ScriptParseError> {
    match token {
        "send" => Ok(ExpectDir::Send),
        "recv" => Ok(ExpectDir::Recv),
        other => Err(perr(
            line,
            ParseErrorKind::UnknownToken,
            format!("expected send/recv, got {other:?}"),
        )),
    }
}

fn parse_inject(cursor: &mut Cursor<'_>) -> Result<Op, ScriptParseError> {
    let line = cursor.line;
    let layer = match cursor.next("layer (stack/wire)")? {
        "stack" => Layer::Stack,
        "wire" => Layer::Wire,
        other => {
            return Err(perr(
                line,
                ParseErrorKind::UnknownToken,
                format!("expected stack/wire, got {other:?}"),
            ))
        }
    };
    let node = cursor.next("node name")?.to_string();
    let frame = match cursor.next("frame spec (hex/udp)")? {
        "hex" => FrameSpec::Hex(parse_hex(line, cursor.next("hex bytes")?)?),
        "udp" => {
            let src = cursor.next("source node")?.to_string();
            let arrow = cursor.next("->")?;
            if arrow != "->" {
                return Err(perr(
                    line,
                    ParseErrorKind::UnknownToken,
                    format!("expected ->, got {arrow:?}"),
                ));
            }
            let dst = cursor.next("destination node")?.to_string();
            let mut sport = 0u16;
            let mut dport = 0u16;
            let mut payload = Vec::new();
            while let Some(keyword) = cursor.peek() {
                cursor.pos += 1;
                match keyword {
                    "sport" => sport = parse_u16(line, cursor.next("port")?)?,
                    "dport" => dport = parse_u16(line, cursor.next("port")?)?,
                    "payload-hex" => payload = parse_hex(line, cursor.next("hex bytes")?)?,
                    other => {
                        return Err(perr(
                            line,
                            ParseErrorKind::UnknownToken,
                            format!("expected sport/dport/payload-hex, got {other:?}"),
                        ))
                    }
                }
            }
            FrameSpec::Udp {
                src,
                dst,
                sport,
                dport,
                payload,
            }
        }
        other => {
            return Err(perr(
                line,
                ParseErrorKind::UnknownToken,
                format!("expected hex/udp frame spec, got {other:?}"),
            ))
        }
    };
    Ok(Op::Inject { layer, node, frame })
}

impl Script {
    /// Parses a script: one directive per line, `#` comments and blank
    /// lines ignored.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScriptParseError`] encountered. Never
    /// panics, whatever the input.
    pub fn parse(source: &str) -> Result<Script, ScriptParseError> {
        let mut directives = Vec::new();
        for (i, raw) in source.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut cursor = Cursor {
                tokens: line.split_whitespace().collect(),
                pos: 0,
                line: i + 1,
            };
            let lineno = cursor.line;
            let window = parse_window(lineno, cursor.next("@time")?)?;
            let op = match cursor.next("directive keyword")? {
                "inject" => parse_inject(&mut cursor)?,
                "expect" => Op::Expect {
                    dir: parse_expect_dir(lineno, cursor.next("direction")?)?,
                    node: cursor.next("node name")?.to_string(),
                    matcher: parse_matcher(&mut cursor)?,
                },
                "expect-none" => Op::ExpectNone {
                    dir: parse_expect_dir(lineno, cursor.next("direction")?)?,
                    node: cursor.next("node name")?.to_string(),
                    matcher: parse_matcher(&mut cursor)?,
                },
                "assert-counter" => {
                    let counter = cursor.next("counter name")?.to_string();
                    let op = parse_cmp(lineno, cursor.next("comparison")?)?;
                    let value = parse_i64(lineno, cursor.next("value")?)?;
                    Op::AssertCounter { counter, op, value }
                }
                other => {
                    return Err(perr(
                        lineno,
                        ParseErrorKind::UnknownDirective,
                        format!("expected inject/expect/expect-none/assert-counter, got {other:?}"),
                    ))
                }
            };
            cursor.done()?;
            directives.push(Directive { window, op });
        }
        Ok(Script { directives })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_round_trips_a_representative_script() {
        let src = r#"
            # stimulus
            @10ms inject stack node1 udp node1 -> node2 sport 9000 dport 25443 payload-hex 68690a
            @15ms inject wire node2 hex ffffffffffff0200000000010800
            # expectations
            @10ms..15ms expect recv node2 udp dport == 25443 payload-contains-hex 6869
            @40ms..1s expect-none recv node2 udp sport != 9 len >= 40
            @50ms expect send node1 any
            @50ms assert-counter Sent >= 3
            @75us assert-counter Bal == -2
        "#;
        let script = Script::parse(src).expect("parses");
        assert_eq!(script.directives.len(), 7);
        let printed = script.print();
        let reparsed =
            Script::parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(script, reparsed, "print -> parse must be the identity");
        // Canonical time units survive.
        assert!(printed.contains("@10ms..15ms"), "{printed}");
        assert!(printed.contains("@75us"), "{printed}");
    }

    #[test]
    fn times_accept_all_units_and_normalize() {
        let script = Script::parse("@1500000ns expect recv n any\n").unwrap();
        assert_eq!(script.directives[0].window.start, 1_500_000);
        assert!(script.print().starts_with("@1500us "), "{}", script.print());
    }

    #[test]
    fn hex_numbers_parse_in_ports() {
        let script = Script::parse("@0s expect recv n udp dport == 0x6363\n").unwrap();
        assert_eq!(
            script.directives[0].op,
            Op::Expect {
                dir: ExpectDir::Recv,
                node: "n".into(),
                matcher: Matcher {
                    proto: Proto::Udp,
                    atoms: vec![Atom::Dport(CmpOp::Eq, 0x6363)],
                },
            }
        );
    }

    #[test]
    fn errors_carry_line_and_kind() {
        let cases: &[(&str, usize, ParseErrorKind)] = &[
            ("expect recv n any", 1, ParseErrorKind::MissingTime),
            ("@10xs expect recv n any", 1, ParseErrorKind::BadTime),
            ("@20ms..10ms expect recv n any", 1, ParseErrorKind::BadTime),
            ("\n\n@1ms frobnicate n", 3, ParseErrorKind::UnknownDirective),
            ("@1ms expect recv n", 1, ParseErrorKind::UnexpectedEnd),
            (
                "@1ms expect recv n udp sport == 70000",
                1,
                ParseErrorKind::BadNumber,
            ),
            ("@1ms inject stack n hex 123", 1, ParseErrorKind::BadHex),
            ("@1ms inject stack n hex zz", 1, ParseErrorKind::BadHex),
            (
                "@1ms expect sideways n any",
                1,
                ParseErrorKind::UnknownToken,
            ),
            (
                "@1ms assert-counter C == 3 extra",
                1,
                ParseErrorKind::Trailing,
            ),
        ];
        for &(src, line, kind) in cases {
            let err = Script::parse(src).expect_err(src);
            assert_eq!(err.line, line, "{src}: {err}");
            assert_eq!(err.kind, kind, "{src}: {err}");
        }
    }

    #[test]
    fn udp_inject_defaults_and_negative_counters() {
        let script =
            Script::parse("@1ms inject stack a udp a -> b\n@2ms assert-counter V == -7\n").unwrap();
        assert_eq!(
            script.directives[0].op,
            Op::Inject {
                layer: Layer::Stack,
                node: "a".into(),
                frame: FrameSpec::Udp {
                    src: "a".into(),
                    dst: "b".into(),
                    sport: 0,
                    dport: 0,
                    payload: vec![],
                },
            }
        );
        assert_eq!(
            script.directives[1].op,
            Op::AssertCounter {
                counter: "V".into(),
                op: CmpOp::Eq,
                value: -7,
            }
        );
    }
}
