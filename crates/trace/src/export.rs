//! Chrome trace-event JSON export and a dependency-free validator.
//!
//! The export targets the Trace Event Format's "JSON object" flavour:
//! a top-level object whose `traceEvents` array holds one complete
//! (`"ph":"X"`) event per span, timestamps in *microseconds* (floats, so
//! nanosecond precision survives). Perfetto and `chrome://tracing` load
//! it directly.
//!
//! The validator is a minimal recursive-descent JSON parser — the
//! vendored serde stub cannot deserialize, and the round-trip acceptance
//! test ("exported JSON parses and is non-empty") should not depend on
//! the writer's own formatting assumptions.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::record::Trace;

/// Serializes several threads' traces into one Chrome trace-event JSON
/// document; each trace's spans appear under its own `tid`.
pub fn chrome_json_many(traces: &[Trace]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for trace in traces {
        for r in &trace.records {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            json_string(&mut out, r.name);
            let _ = write!(
                out,
                ",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                r.category.as_str(),
                trace.tid,
                r.start_ns as f64 / 1_000.0,
                r.dur_ns as f64 / 1_000.0,
            );
        }
    }
    out.push_str("]}");
    out
}

/// Appends `s` to `out` as a JSON string literal: quotes, backslashes
/// and every control character escaped, so the result always parses
/// back through [`Json::parse`]. The one escaper every hand-rolled JSON
/// and JSONL writer in the workspace shares.
pub fn json_string(out: &mut String, s: &str) {
    out.push('"');
    json_escape(out, s);
    out.push('"');
}

/// Appends `s` to `out` escaped as [`json_string`] escapes it, without
/// the quotes: for a literal written in pieces.
pub fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A parsed JSON value (validator-grade: numbers are `f64`, object keys
/// are unique-last).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed for our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control character {c:#04x} in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so slices
                    // at char boundaries are safe to scan byte-wise).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid utf8")?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Parses a Chrome trace-event JSON document and checks its shape: a
/// top-level object with a `traceEvents` array whose every element is a
/// complete event carrying `name`/`ph`/`ts`/`dur`/`pid`/`tid`. Returns
/// the event count.
pub fn validate_chrome_json(s: &str) -> Result<usize, String> {
    let doc = Json::parse(s)?;
    let obj = doc.as_obj().ok_or("top level is not an object")?;
    let events = obj
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        let ev = ev
            .as_obj()
            .ok_or_else(|| format!("event {i} not an object"))?;
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} missing name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} missing ph"))?;
        if ph != "X" {
            return Err(format!("event {i} has ph {ph:?}, expected complete event"));
        }
        for key in ["ts", "dur", "pid", "tid"] {
            let n = ev
                .get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {i} missing numeric {key}"))?;
            if !n.is_finite() || n < 0.0 {
                return Err(format!("event {i} has invalid {key}: {n}"));
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Category, SpanRecord};

    #[test]
    fn export_round_trips_through_the_validator() {
        let trace = Trace {
            records: vec![
                SpanRecord {
                    name: "run",
                    category: Category::Run,
                    start_ns: 0,
                    dur_ns: 2_500,
                    depth: 0,
                    seq: 0,
                },
                SpanRecord {
                    name: "odd \"name\"\n",
                    category: Category::Other,
                    start_ns: 500,
                    dur_ns: 1_000,
                    depth: 1,
                    seq: 1,
                },
            ],
            dropped: 0,
            tid: 7,
        };
        let json = trace.to_chrome_json();
        assert_eq!(validate_chrome_json(&json).unwrap(), 2);
        let doc = Json::parse(&json).unwrap();
        let events = doc.as_obj().unwrap()["traceEvents"].as_arr().unwrap();
        let first = events[0].as_obj().unwrap();
        assert_eq!(first["name"].as_str(), Some("run"));
        assert_eq!(first["cat"].as_str(), Some("run"));
        assert_eq!(first["tid"].as_num(), Some(7.0));
        assert_eq!(first["dur"].as_num(), Some(2.5));
        let second = events[1].as_obj().unwrap();
        assert_eq!(second["name"].as_str(), Some("odd \"name\"\n"));
    }

    #[test]
    fn empty_trace_is_still_valid_but_has_no_events() {
        let json = Trace::default().to_chrome_json();
        assert_eq!(validate_chrome_json(&json).unwrap(), 0);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_json("").is_err());
        assert!(validate_chrome_json("[]").is_err());
        assert!(validate_chrome_json("{\"traceEvents\":{}}").is_err());
        assert!(validate_chrome_json("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(
            validate_chrome_json("{\"traceEvents\":[]} trailing").is_err(),
            "trailing garbage must be rejected"
        );
        // Wrong phase: a begin event without an end.
        assert!(validate_chrome_json(
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\",\"ts\":0,\"dur\":0,\"pid\":1,\"tid\":1}]}"
        )
        .is_err());
    }

    #[test]
    fn parser_handles_general_json() {
        let v = Json::parse(
            "  {\"a\": [1, -2.5, 1e3], \"b\": {\"c\": null, \"d\": true}, \"s\": \"\\u0041\\n\"} ",
        )
        .unwrap();
        let obj = v.as_obj().unwrap();
        let arr = obj["a"].as_arr().unwrap();
        assert_eq!(arr[1].as_num(), Some(-2.5));
        assert_eq!(arr[2].as_num(), Some(1000.0));
        assert_eq!(obj["s"].as_str(), Some("A\n"));
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"a\tb\"").is_err(), "RFC 8259: escape it");
    }
}
