//! Lexical tokens of the Fault Specification Language.

use std::fmt;

use std::net::Ipv4Addr;
use vw_packet::MacAddr;

/// A source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number, starting at 1.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One lexical token with its position. Its text borrows from the source
/// it was lexed from, so a token is a small `Copy` value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    /// The token kind and payload.
    pub kind: TokenKind<'src>,
    /// Where it starts in the source.
    pub span: Span,
}

/// The kinds of FSL tokens.
///
/// A word-sized tag keeps every payload word-aligned, so a token moves as
/// whole words (a `u8` tag would put the MAC and IP payloads at byte 1).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(u64)]
pub enum TokenKind<'src> {
    /// An identifier or keyword (`SCENARIO`, `TCP_data`, `node1`, ...).
    Ident(&'src str),
    /// A decimal integer literal.
    Int(i64),
    /// A hexadecimal literal (`0x6000`), value and digit count preserved.
    Hex(u64),
    /// A duration literal such as `1sec` or `500msec`, in nanoseconds.
    Duration(u64),
    /// A MAC address literal (`00:46:61:af:fe:23`).
    Mac(MacAddr),
    /// An IPv4 address literal (`192.168.1.1`).
    Ip(Ipv4Addr),
    /// A double-quoted string literal (extension, used by FLAG_ERR
    /// messages), without its quotes.
    Str(&'src str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `-` (negative constants)
    Minus,
    /// `>>`
    Arrow,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `=` or `==`
    Eq,
    /// `!=`
    Ne,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Int(v) => write!(f, "integer {v}"),
            TokenKind::Hex(v) => write!(f, "hex 0x{v:x}"),
            TokenKind::Duration(ns) => write!(f, "duration {ns}ns"),
            TokenKind::Mac(m) => write!(f, "MAC {m}"),
            TokenKind::Ip(ip) => write!(f, "IP {ip}"),
            TokenKind::Str(s) => write!(f, "string {s:?}"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::Comma => f.write_str("`,`"),
            TokenKind::Semi => f.write_str("`;`"),
            TokenKind::Colon => f.write_str("`:`"),
            TokenKind::Minus => f.write_str("`-`"),
            TokenKind::Arrow => f.write_str("`>>`"),
            TokenKind::AndAnd => f.write_str("`&&`"),
            TokenKind::OrOr => f.write_str("`||`"),
            TokenKind::Bang => f.write_str("`!`"),
            TokenKind::Gt => f.write_str("`>`"),
            TokenKind::Lt => f.write_str("`<`"),
            TokenKind::Ge => f.write_str("`>=`"),
            TokenKind::Le => f.write_str("`<=`"),
            TokenKind::Eq => f.write_str("`=`"),
            TokenKind::Ne => f.write_str("`!=`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}
