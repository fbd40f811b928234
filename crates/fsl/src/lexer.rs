//! Hand-rolled lexer for the Fault Specification Language. It hands the
//! parser one token at a time: no token list is built, and a token's text
//! is a slice of the script.

use std::net::Ipv4Addr;

use crate::error::FslError;
use crate::token::{Span, Token, TokenKind};

/// Tokenizes an FSL script: the tokens in order, ending with
/// [`TokenKind::Eof`], or the first lexical error.
///
/// # Errors
///
/// Yields [`FslError`] on malformed literals, unterminated comments or
/// strings, and unknown characters; nothing follows an error.
pub fn lex(source: &str) -> Lexer<'_> {
    Lexer {
        token: Token {
            kind: TokenKind::Eof,
            span: Span::default(),
        },
        error: None,
        source,
        bytes: source.as_bytes(),
        pos: 0,
        line: 1,
        line_start: 0,
        done: false,
    }
}

/// The token stream [`lex`] returns: an iterator, and, for the parser,
/// the token at hand ([`token`](Lexer::token)), which
/// [`advance`](Lexer::advance) replaces in place.
#[derive(Clone)]
pub struct Lexer<'a> {
    /// The token at hand: `Eof` before the first [`advance`](Lexer::advance).
    pub token: Token<'a>,
    /// The first lexical error, after which the stream is at its end.
    pub error: Option<FslError>,
    source: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    /// Where the current line starts: a column counts bytes from there.
    line_start: usize,
    /// Set once `Eof` or an error has been yielded by the iterator.
    done: bool,
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>, FslError>;

    fn next(&mut self) -> Option<Self::Item> {
        (!self.done).then(|| {
            self.advance();
            self.done = self.token.kind == TokenKind::Eof;
            self.error.take().map_or(Ok(self.token), Err)
        })
    }
}

impl<'a> Lexer<'a> {
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

    /// Steps over the bytes `accept` takes, none of them a newline, and
    /// returns the text stepped over.
    fn take_while(&mut self, accept: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let rest = &self.bytes[start..];
        self.pos += rest.iter().position(|&b| !accept(b)).unwrap_or(rest.len());
        &self.source[start..self.pos]
    }

    /// Steps over `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        let next = self.peek() == Some(b);
        self.pos += usize::from(next);
        next
    }

    /// The kind of the token after [`token`](Lexer::token), lexed by a
    /// copy of the lexer (the parser looks that far ahead only where a
    /// scenario's declaration or rule starts).
    pub fn lookahead(&self) -> TokenKind<'a> {
        let mut ahead = self.clone();
        ahead.advance();
        ahead.token.kind
    }

    /// Records the first lexical error and ends the stream: the token that
    /// met it, and every one after, is `Eof`.
    #[cold]
    fn fail(&mut self, error: FslError) -> TokenKind<'a> {
        self.error.get_or_insert(error);
        self.pos = self.bytes.len();
        TokenKind::Eof
    }

    /// Lexes the next token into [`token`](Lexer::token): `Eof` at the
    /// end, again on every call, and from the first error on, which
    /// [`error`](Lexer::error) holds.
    pub fn advance(&mut self) {
        self.skip_trivia();
        let span = self.span();
        let kind = match self.peek() {
            None => TokenKind::Eof,
            Some(b'A'..=b'Z' | b'a'..=b'z' | b'_') => self.lex_ident_or_mac(span),
            Some(b'0'..=b'9') => self.lex_number(span),
            Some(b'"') => self.lex_string(span),
            Some(b) => {
                self.pos += 1;
                match b {
                    b'(' => TokenKind::LParen,
                    b')' => TokenKind::RParen,
                    b',' => TokenKind::Comma,
                    b';' => TokenKind::Semi,
                    b':' => TokenKind::Colon,
                    b'-' => TokenKind::Minus,
                    b'>' if self.eat(b'>') => TokenKind::Arrow,
                    b'>' if self.eat(b'=') => TokenKind::Ge,
                    b'>' => TokenKind::Gt,
                    b'<' if self.eat(b'=') => TokenKind::Le,
                    b'<' => TokenKind::Lt,
                    b'=' => {
                        self.eat(b'=');
                        TokenKind::Eq
                    }
                    b'!' if self.eat(b'=') => TokenKind::Ne,
                    b'!' => TokenKind::Bang,
                    b'&' if self.eat(b'&') => TokenKind::AndAnd,
                    b'&' => self.fail(FslError::at(span, "expected `&&`")),
                    b'|' if self.eat(b'|') => TokenKind::OrOr,
                    b'|' => self.fail(FslError::at(span, "expected `||`")),
                    other => self.fail(FslError::at(
                        span,
                        format!("unexpected character `{}`", other as char),
                    )),
                }
            }
        };
        self.token = Token { kind, span };
    }

    /// `true` when a full `hh:hh:hh:hh:hh:hh` MAC literal starts at `pos`
    /// (and is not followed by more address-like characters). A mere
    /// `xx:` prefix is NOT enough — `aA: (...)` is an identifier and a
    /// colon.
    fn is_mac_at(&self, pos: usize) -> bool {
        let b = self.bytes;
        if b.get(pos + 2) != Some(&b':') || b.len() < pos + 17 {
            return false;
        }
        for group in 0..6 {
            let base = pos + group * 3;
            let hex = b[base].is_ascii_hexdigit() && b[base + 1].is_ascii_hexdigit();
            if !hex || (group < 5 && b[base + 2] != b':') {
                return false;
            }
        }
        // Reject if more hex/colon follows (e.g. an 8-group oddity).
        !matches!(b.get(pos + 17), Some(c) if c.is_ascii_alphanumeric() || *c == b':')
    }

    /// Steps over the next byte, which must be there, counting lines.
    fn bump(&mut self) {
        if self.bytes[self.pos] == b'\n' {
            self.line += 1;
            self.line_start = self.pos + 1;
        }
        self.pos += 1;
    }

    fn skip_trivia(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek2() == Some(b'*') => {
                    let start = self.span();
                    self.pos += 2;
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => break self.pos += 2,
                            Some(_) => self.bump(),
                            None => {
                                self.fail(FslError::at(start, "unterminated comment"));
                                return;
                            }
                        }
                    }
                }
                b'/' if self.peek2() == Some(b'/') => {
                    self.take_while(|b| b != b'\n');
                }
                _ => return,
            }
        }
    }

    fn lex_string(&mut self, span: Span) -> TokenKind<'a> {
        self.pos += 1; // opening quote
        let text = self.take_while(|b| b != b'"' && b != b'\n');
        if !self.eat(b'"') {
            return self.fail(FslError::at(span, "unterminated string literal"));
        }
        TokenKind::Str(text)
    }

    /// Numbers are the thorniest part of the grammar: `25`, `0x6000`,
    /// `1sec`, `500msec`, and `192.168.1.1` all start with a digit.
    fn lex_number(&mut self, span: Span) -> TokenKind<'a> {
        // MAC address starting with digits (`00:46:...`).
        if self.is_mac_at(self.pos) {
            return self.lex_mac(span);
        }
        // Hex?
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.pos += 2;
            let digits = self.take_while(|b| b.is_ascii_hexdigit());
            let value = digits.bytes().try_fold(0u64, |v, d| {
                let d = (d as char).to_digit(16).map(u64::from)?;
                v.checked_mul(16)?.checked_add(d)
            });
            return match value {
                _ if digits.is_empty() => self.fail(FslError::at(span, "empty hex literal")),
                Some(v) => TokenKind::Hex(v),
                None => self.fail(FslError::at(span, "hex literal overflows 64 bits")),
            };
        }
        // Decimal digits.
        let value = self
            .take_while(|b| b.is_ascii_digit())
            .bytes()
            .try_fold(0i64, |v, d| {
                v.checked_mul(10)?.checked_add(i64::from(d - b'0'))
            });
        let Some(value) = value else {
            return self.fail(FslError::at(span, "integer literal overflows 64 bits"));
        };
        // Dotted quad → IP address: exactly four parts of 0..=255.
        if self.peek() == Some(b'.') {
            return match self.ip_rest(value) {
                Some(ip) => TokenKind::Ip(ip),
                None => self.fail(FslError::at(span, "malformed IP address")),
            };
        }
        // Unit suffix → duration.
        if !matches!(self.peek(), Some(b'a'..=b'z' | b'A'..=b'Z')) {
            return TokenKind::Int(value);
        }
        let unit = self.take_while(|b| b.is_ascii_alphabetic());
        let units = [
            ("sec", "s", 1_000_000_000),
            ("msec", "ms", 1_000_000),
            ("usec", "us", 1_000),
            ("nsec", "ns", 1),
        ];
        let Some((.., scale)) = units.into_iter().find(|(long, short, _)| {
            unit.eq_ignore_ascii_case(long) || unit.eq_ignore_ascii_case(short)
        }) else {
            let unit = unit.to_ascii_lowercase();
            let message = format!("unknown duration unit `{unit}` (use sec/msec/usec/nsec)");
            return self.fail(FslError::at(span, message));
        };
        match value.checked_mul(scale) {
            Some(nanos) => TokenKind::Duration(nanos as u64),
            None => self.fail(FslError::at(span, "duration overflows")),
        }
    }

    /// The last three parts of a dotted quad whose first part, `first`,
    /// has been read; `None` unless there are exactly four of 0..=255.
    fn ip_rest(&mut self, first: i64) -> Option<Ipv4Addr> {
        let mut octets = [u8::try_from(first).ok()?; 4];
        for octet in &mut octets[1..] {
            if !self.eat(b'.') || !matches!(self.peek(), Some(b'0'..=b'9')) {
                return None;
            }
            let part = self
                .take_while(|b| b.is_ascii_digit())
                .bytes()
                .fold(0u32, |v, d| {
                    v.saturating_mul(10).saturating_add(u32::from(d - b'0'))
                });
            *octet = u8::try_from(part).ok()?;
        }
        (self.peek() != Some(b'.')).then_some(Ipv4Addr::from(octets))
    }

    /// Identifiers, keywords, and MAC addresses (`00:23:...` starts with a
    /// hex digit but MACs in the node table always contain `:` after two
    /// hex chars — we detect them from identifier-like starts too, e.g.
    /// `ab:cd:...`).
    fn lex_ident_or_mac(&mut self, span: Span) -> TokenKind<'a> {
        if self.is_mac_at(self.pos) {
            return self.lex_mac(span);
        }
        TokenKind::Ident(self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_'))
    }

    /// The MAC literal [`is_mac_at`](Self::is_mac_at) found here.
    fn lex_mac(&mut self, span: Span) -> TokenKind<'a> {
        self.pos += 17;
        match self.source[self.pos - 17..self.pos].parse() {
            Ok(mac) => TokenKind::Mac(mac),
            Err(e) => self.fail(FslError::at(span, e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_packet::MacAddr;

    fn lex_all(src: &str) -> Result<Vec<Token<'_>>, FslError> {
        lex(src).collect()
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex_all(src).unwrap().into_iter().map(|t| t.kind).collect()
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
        assert!(lex_all("1.2.3").is_err());
        assert!(lex_all("1.2.3.444").is_err());
        assert!(lex_all("1.2.3.4.5").is_err());
        assert!(lex_all("1..3.4").is_err());
        // A part too long for any integer is refused, not overflowed.
        assert!(lex_all("1.99999999999999999999.3.4").is_err());
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
        assert!(lex_all("00:46:61").is_ok());
        assert!(lex_all("00:zz:61:af:fe:23").is_ok());
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
        assert!(lex_all("/* unterminated").is_err());
    }

    #[test]
    fn strings() {
        assert_eq!(
            kinds(r#""a message""#),
            vec![TokenKind::Str("a message"), TokenKind::Eof]
        );
        assert!(lex_all("\"unterminated").is_err());
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
        let toks = lex_all("A\n  B").unwrap();
        assert_eq!(toks[0].span, Span { line: 1, col: 1 });
        assert_eq!(toks[1].span, Span { line: 2, col: 3 });
    }

    #[test]
    fn unknown_character_rejected() {
        assert!(lex_all("@").is_err());
        assert!(lex_all("& alone").is_err());
        assert!(lex_all("| alone").is_err());
    }
}
