//! Hand-rolled lexer for the Fault Specification Language.

use std::net::Ipv4Addr;

use crate::error::FslError;
use crate::token::{Span, Token, TokenKind};

/// Tokenizes an FSL script.
///
/// # Errors
///
/// Returns [`FslError`] on malformed literals, unterminated comments or
/// strings, and unknown characters.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, FslError> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    source: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    /// Where the current line starts: a column counts bytes from there.
    line_start: usize,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            source,
            bytes: source.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
        }
    }

    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: (self.pos - self.line_start + 1) as u32,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(b)
    }

    /// The source text from `start` to the current position.
    fn since(&self, start: usize) -> &'a str {
        &self.source[start..self.pos]
    }

    fn run(mut self) -> Result<Vec<Token<'a>>, FslError> {
        // Scripts run three to six source bytes a token: one reservation
        // covers most of them.
        let mut out = Vec::with_capacity(self.bytes.len() / 4);
        loop {
            self.skip_trivia()?;
            let span = self.span();
            let Some(b) = self.peek() else {
                out.push(Token {
                    kind: TokenKind::Eof,
                    span,
                });
                return Ok(out);
            };
            let kind = match b {
                b'(' => {
                    self.bump();
                    TokenKind::LParen
                }
                b')' => {
                    self.bump();
                    TokenKind::RParen
                }
                b',' => {
                    self.bump();
                    TokenKind::Comma
                }
                b';' => {
                    self.bump();
                    TokenKind::Semi
                }
                b':' => {
                    self.bump();
                    TokenKind::Colon
                }
                b'>' => {
                    self.bump();
                    match self.peek() {
                        Some(b'>') => {
                            self.bump();
                            TokenKind::Arrow
                        }
                        Some(b'=') => {
                            self.bump();
                            TokenKind::Ge
                        }
                        _ => TokenKind::Gt,
                    }
                }
                b'<' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        TokenKind::Le
                    } else {
                        TokenKind::Lt
                    }
                }
                b'=' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                    }
                    TokenKind::Eq
                }
                b'!' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        TokenKind::Ne
                    } else {
                        TokenKind::Bang
                    }
                }
                b'&' => {
                    self.bump();
                    if self.peek() == Some(b'&') {
                        self.bump();
                        TokenKind::AndAnd
                    } else {
                        return Err(FslError::at(span, "expected `&&`"));
                    }
                }
                b'|' => {
                    self.bump();
                    if self.peek() == Some(b'|') {
                        self.bump();
                        TokenKind::OrOr
                    } else {
                        return Err(FslError::at(span, "expected `||`"));
                    }
                }
                b'-' => {
                    self.bump();
                    TokenKind::Minus
                }
                b'"' => self.lex_string(span)?,
                b'0'..=b'9' => self.lex_number(span)?,
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => self.lex_ident_or_mac(span)?,
                other => {
                    return Err(FslError::at(
                        span,
                        format!("unexpected character `{}`", other as char),
                    ));
                }
            };
            out.push(Token { kind, span });
        }
    }

    /// `true` when a full `hh:hh:hh:hh:hh:hh` MAC literal starts at `pos`
    /// (and is not followed by more address-like characters). A mere
    /// `xx:` prefix is NOT enough — `aA: (...)` is an identifier and a
    /// colon.
    fn is_mac_at(&self, pos: usize) -> bool {
        let b = self.bytes;
        if b.len() < pos + 17 {
            return false;
        }
        for group in 0..6 {
            let base = pos + group * 3;
            if !b[base].is_ascii_hexdigit() || !b[base + 1].is_ascii_hexdigit() {
                return false;
            }
            if group < 5 && b[base + 2] != b':' {
                return false;
            }
        }
        // Reject if more hex/colon follows (e.g. an 8-group oddity).
        !matches!(b.get(pos + 17), Some(c) if c.is_ascii_alphanumeric() || *c == b':')
    }

    fn skip_trivia(&mut self) -> Result<(), FslError> {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.span();
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(FslError::at(start, "unterminated comment"));
                            }
                        }
                    }
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_string(&mut self, span: Span) -> Result<TokenKind<'a>, FslError> {
        self.bump(); // opening quote
        let start = self.pos;
        while self.peek() != Some(b'"') {
            if matches!(self.peek(), Some(b'\n') | None) {
                return Err(FslError::at(span, "unterminated string literal"));
            }
            self.bump();
        }
        let text = self.since(start);
        self.bump(); // closing quote
        Ok(TokenKind::Str(text))
    }

    /// Numbers are the thorniest part of the grammar: `25`, `0x6000`,
    /// `1sec`, `500msec`, and `192.168.1.1` all start with a digit.
    fn lex_number(&mut self, span: Span) -> Result<TokenKind<'a>, FslError> {
        // MAC address starting with digits (`00:46:...`).
        if self.is_mac_at(self.pos) {
            return self.lex_mac(span);
        }
        // Hex?
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let mut value: u64 = 0;
            let mut digits = 0;
            while let Some(b) = self.peek() {
                let d = match b {
                    b'0'..=b'9' => b - b'0',
                    b'a'..=b'f' => b - b'a' + 10,
                    b'A'..=b'F' => b - b'A' + 10,
                    _ => break,
                };
                value = value
                    .checked_mul(16)
                    .and_then(|v| v.checked_add(u64::from(d)))
                    .ok_or_else(|| FslError::at(span, "hex literal overflows 64 bits"))?;
                digits += 1;
                self.bump();
            }
            if digits == 0 {
                return Err(FslError::at(span, "empty hex literal"));
            }
            return Ok(TokenKind::Hex(value));
        }
        // Decimal digits.
        let mut value: i64 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(i64::from(b - b'0')))
                .ok_or_else(|| FslError::at(span, "integer literal overflows 64 bits"))?;
            self.bump();
        }
        // Dotted quad → IP address: exactly four parts of 0..=255.
        if self.peek() == Some(b'.') {
            let malformed = || FslError::at(span, "malformed IP address");
            let mut octets = [u8::try_from(value).map_err(|_| malformed())?; 4];
            for octet in &mut octets[1..] {
                if self.bump() != Some(b'.') || !matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(malformed());
                }
                let mut part: u32 = 0;
                while let Some(b @ b'0'..=b'9') = self.peek() {
                    part = part.saturating_mul(10).saturating_add(u32::from(b - b'0'));
                    self.bump();
                }
                *octet = u8::try_from(part).map_err(|_| malformed())?;
            }
            if self.peek() == Some(b'.') {
                return Err(malformed());
            }
            return Ok(TokenKind::Ip(Ipv4Addr::from(octets)));
        }
        // Unit suffix → duration.
        if matches!(self.peek(), Some(b'a'..=b'z' | b'A'..=b'Z')) {
            let start = self.pos;
            while let Some(b'a'..=b'z' | b'A'..=b'Z') = self.peek() {
                self.bump();
            }
            let unit = self.since(start);
            let units = [
                ("sec", "s", 1_000_000_000),
                ("msec", "ms", 1_000_000),
                ("usec", "us", 1_000),
                ("nsec", "ns", 1),
            ];
            let Some((.., scale)) = units.into_iter().find(|(long, short, _)| {
                unit.eq_ignore_ascii_case(long) || unit.eq_ignore_ascii_case(short)
            }) else {
                return Err(FslError::at(
                    span,
                    format!(
                        "unknown duration unit `{}` (use sec/msec/usec/nsec)",
                        unit.to_ascii_lowercase()
                    ),
                ));
            };
            let nanos = value
                .checked_mul(scale)
                .ok_or_else(|| FslError::at(span, "duration overflows"))?;
            return Ok(TokenKind::Duration(nanos as u64));
        }
        Ok(TokenKind::Int(value))
    }

    /// Identifiers, keywords, and MAC addresses (`00:23:...` starts with a
    /// hex digit but MACs in the node table always contain `:` after two
    /// hex chars — we detect them from identifier-like starts too, e.g.
    /// `ab:cd:...`).
    fn lex_ident_or_mac(&mut self, span: Span) -> Result<TokenKind<'a>, FslError> {
        if self.is_mac_at(self.pos) {
            return self.lex_mac(span);
        }
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        Ok(TokenKind::Ident(self.since(start)))
    }

    /// The MAC literal [`is_mac_at`](Self::is_mac_at) found here.
    fn lex_mac(&mut self, span: Span) -> Result<TokenKind<'a>, FslError> {
        let start = self.pos;
        for _ in 0..17 {
            self.bump();
        }
        self.since(start)
            .parse()
            .map(TokenKind::Mac)
            .map_err(|e| FslError::at(span, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_packet::MacAddr;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn punctuation_and_operators() {
        assert_eq!(
            kinds("( ) , ; : >> && || ! > < >= <= = == != "),
            vec![
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::Comma,
                TokenKind::Semi,
                TokenKind::Colon,
                TokenKind::Arrow,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Bang,
                TokenKind::Gt,
                TokenKind::Lt,
                TokenKind::Ge,
                TokenKind::Le,
                TokenKind::Eq,
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("25 0x6000 0x10"),
            vec![
                TokenKind::Int(25),
                TokenKind::Hex(0x6000),
                TokenKind::Hex(0x10),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn durations() {
        assert_eq!(
            kinds("1sec 500msec 10usec 7ns"),
            vec![
                TokenKind::Duration(1_000_000_000),
                TokenKind::Duration(500_000_000),
                TokenKind::Duration(10_000),
                TokenKind::Duration(7),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn ip_addresses() {
        assert_eq!(
            kinds("192.168.1.1"),
            vec![TokenKind::Ip(Ipv4Addr::new(192, 168, 1, 1)), TokenKind::Eof]
        );
        assert!(lex("1.2.3").is_err());
        assert!(lex("1.2.3.444").is_err());
        assert!(lex("1.2.3.4.5").is_err());
        assert!(lex("1..3.4").is_err());
        // A part too long for any integer is refused, not overflowed.
        assert!(lex("1.99999999999999999999.3.4").is_err());
    }

    #[test]
    fn mac_addresses() {
        for text in [
            "ab:cd:ef:01:23:45",
            "00:46:61:af:fe:23",
            "4f:00:11:22:33:44",
        ] {
            assert_eq!(
                kinds(text),
                vec![
                    TokenKind::Mac(text.parse::<MacAddr>().unwrap()),
                    TokenKind::Eof
                ],
                "lexing {text}"
            );
        }
        // Partial MAC-like text lexes as other tokens, not an error: the
        // full 17-character pattern is required.
        assert!(lex("00:46:61").is_ok());
        assert!(lex("00:zz:61:af:fe:23").is_ok());
        // An identifier of two hex letters before a colon stays an ident.
        assert_eq!(
            kinds("aA: x")[..2],
            [TokenKind::Ident("aA"), TokenKind::Colon]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("/* hello */ STOP // trailing\nEND"),
            vec![
                TokenKind::Ident("STOP"),
                TokenKind::Ident("END"),
                TokenKind::Eof
            ]
        );
        assert!(lex("/* unterminated").is_err());
    }

    #[test]
    fn strings() {
        assert_eq!(
            kinds(r#""a message""#),
            vec![TokenKind::Str("a message"), TokenKind::Eof]
        );
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn identifiers_with_underscores() {
        assert_eq!(
            kinds("TCP_data_rt1 node1 SeqNoAck"),
            vec![
                TokenKind::Ident("TCP_data_rt1"),
                TokenKind::Ident("node1"),
                TokenKind::Ident("SeqNoAck"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("A\n  B").unwrap();
        assert_eq!(toks[0].span, Span { line: 1, col: 1 });
        assert_eq!(toks[1].span, Span { line: 2, col: 3 });
    }

    #[test]
    fn unknown_character_rejected() {
        assert!(lex("@").is_err());
        assert!(lex("& alone").is_err());
        assert!(lex("| alone").is_err());
    }
}
