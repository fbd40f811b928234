//! Recursive-descent parser for the Fault Specification Language.
//!
//! The grammar accepts the concrete syntax of the paper's Figures 2, 5 and
//! 6 (including its looser spots: action arguments with or without
//! parentheses — Figure 5 line 17 writes `DROP TCP_synack, node2, node1,
//! RECV;` where Table II shows `DROP( ... )` — and both `FLAG_ERR` and
//! `FLAG_ERROR` spellings).

use std::fmt::Display;
use std::marker::PhantomData;

use crate::ast::*;
use crate::error::FslError;
use crate::lexer::{lex, Lexer};
use crate::token::{Span, TokenKind};

/// Parses an FSL script into a [`Program`].
///
/// # Errors
///
/// Returns the first lexical or syntactic [`FslError`] encountered.
pub fn parse(source: &str) -> Result<Program, FslError> {
    parse_as(source)
}

/// [`parse`], with each name made an `N` from its slice of `source`: a
/// `String` for a program of its own, the slice itself for one that
/// borrows the script. A lexical error anywhere in the script is the
/// result, as if the whole script were lexed before it is parsed.
pub(crate) fn parse_as<'src, N>(source: &'src str) -> Result<Program<N>, FslError>
where
    N: From<&'src str> + Display + Default,
{
    let mut parser = Parser {
        lexer: lex(source),
        names: PhantomData::<N>,
    };
    parser.lexer.advance();
    let program = parser.program();
    while program.is_err() && parser.bump() != TokenKind::Eof {}
    match parser.lexer.error {
        Some(error) => Err(error),
        None => program,
    }
}

const ACTION_KEYWORDS: &[&str] = &[
    "ASSIGN_CNTR",
    "ENABLE_CNTR",
    "DISABLE_CNTR",
    "INCR_CNTR",
    "DECR_CNTR",
    "RESET_CNTR",
    "SET_CURTIME",
    "ELAPSED_TIME",
    "DROP",
    "DELAY",
    "REORDER",
    "DUP",
    "MODIFY",
    "FAIL",
    "STOP",
    "FLAG_ERR",
    "FLAG_ERROR",
];

/// The parser pulls one token at a time from the lexer; an identifier is
/// a slice of the source until it becomes a name of the AST. A lexical
/// error reads as the end of input here and is the parse's result.
struct Parser<'src, N> {
    lexer: Lexer<'src>,
    names: PhantomData<N>,
}

impl<'src, N: From<&'src str> + Display + Default> Parser<'src, N> {
    fn peek(&self) -> TokenKind<'src> {
        self.lexer.token.kind
    }

    fn span(&self) -> Span {
        self.lexer.token.span
    }

    fn bump(&mut self) -> TokenKind<'src> {
        let kind = self.peek();
        self.lexer.advance();
        kind
    }

    /// The value `value` reads from the current token, stepping past it;
    /// if it reads none, "expected {what}, found {the token}" at the token.
    fn expect_value<T>(
        &mut self,
        what: impl Display,
        value: impl FnOnce(TokenKind<'src>) -> Option<T>,
    ) -> Result<T, FslError> {
        let found = self.peek();
        let Some(value) = value(found) else {
            let message = format!("expected {what}, found {found}");
            return Err(FslError::at(self.span(), message));
        };
        self.bump();
        Ok(value)
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<(), FslError> {
        self.expect_value(kind, |found| (found == kind).then_some(()))
    }

    fn expect_ident(&mut self) -> Result<&'src str, FslError> {
        self.expect_value("an identifier", |found| match found {
            TokenKind::Ident(name) => Some(name),
            _ => None,
        })
    }

    /// An identifier, as the name the AST keeps.
    fn expect_name(&mut self) -> Result<N, FslError> {
        self.expect_ident().map(N::from)
    }

    fn at_keyword(&self, kw: &str) -> bool {
        self.peek() == TokenKind::Ident(kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        let at = self.at_keyword(kw);
        if at {
            self.bump();
        }
        at
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), FslError> {
        let keyword = TokenKind::Ident(kw);
        self.expect_value(format_args!("`{kw}`"), |found| {
            (found == keyword).then_some(())
        })
    }

    // ------------------------------------------------------------------

    fn program(&mut self) -> Result<Program<N>, FslError> {
        let mut program = Program::default();
        loop {
            match self.peek() {
                TokenKind::Eof => return Ok(program),
                TokenKind::Ident("VAR") => {
                    self.bump();
                    self.var_decl(&mut program)?;
                }
                TokenKind::Ident("FILTER_TABLE") => {
                    self.bump();
                    self.filter_table(&mut program)?;
                }
                TokenKind::Ident("NODE_TABLE") => {
                    self.bump();
                    self.node_table(&mut program)?;
                }
                TokenKind::Ident("SCENARIO") => {
                    self.bump();
                    let scenario = self.scenario()?;
                    program.scenarios.push(scenario);
                }
                TokenKind::Int(_) => {
                    // Tolerate the paper's figure line numbers ("1.", "2.")
                    // when a script is pasted verbatim: an integer followed
                    // by nothing useful at statement level is skipped.
                    self.bump();
                }
                other => {
                    return Err(FslError::at(
                        self.span(),
                        format!(
                            "expected VAR, FILTER_TABLE, NODE_TABLE or SCENARIO, found {other}"
                        ),
                    ));
                }
            }
        }
    }

    fn var_decl(&mut self, program: &mut Program<N>) -> Result<(), FslError> {
        loop {
            program.vars.push(self.expect_name()?);
            if !matches!(self.peek(), TokenKind::Comma) {
                break;
            }
            self.bump();
        }
        self.expect(TokenKind::Semi)?;
        Ok(())
    }

    fn filter_table(&mut self, program: &mut Program<N>) -> Result<(), FslError> {
        while !self.at_keyword("END") {
            let name = self.expect_name()?;
            self.expect(TokenKind::Colon)?;
            let mut tuples = vec![self.filter_tuple()?];
            while matches!(self.peek(), TokenKind::Comma) {
                self.bump();
                tuples.push(self.filter_tuple()?);
            }
            program.filters.push(FilterDef { name, tuples });
        }
        self.expect_keyword("END")
    }

    fn filter_tuple(&mut self) -> Result<FilterTuple<N>, FslError> {
        self.expect(TokenKind::LParen)?;
        let offset = self.expect_u32("tuple offset")?;
        let len = self.expect_u32("tuple length")?;
        let (mut mask, mut pattern) = (None, self.pattern_value()?);
        if !matches!(self.peek(), TokenKind::RParen) {
            mask = match pattern {
                PatternValue::Literal(v) => Some(v),
                PatternValue::Var(name) => {
                    let message = format!("mask must be a literal, found variable `{name}`");
                    return Err(FslError::at(self.span(), message));
                }
            };
            pattern = self.pattern_value()?;
        }
        self.expect(TokenKind::RParen)?;
        Ok(FilterTuple {
            offset,
            len,
            mask,
            pattern,
        })
    }

    fn pattern_value(&mut self) -> Result<PatternValue<N>, FslError> {
        self.expect_value("a pattern value", |found| match found {
            TokenKind::Hex(v) => Some(PatternValue::Literal(v)),
            TokenKind::Int(v) => u64::try_from(v).ok().map(PatternValue::Literal),
            TokenKind::Ident(name) => Some(PatternValue::Var(N::from(name))),
            _ => None,
        })
    }

    fn expect_u32(&mut self, what: &str) -> Result<u32, FslError> {
        self.expect_value(
            format_args!("{what} (a small integer)"),
            |found| match found {
                TokenKind::Int(v) => u32::try_from(v).ok(),
                _ => None,
            },
        )
    }

    fn expect_i64(&mut self, what: &str) -> Result<i64, FslError> {
        let negative = matches!(self.peek(), TokenKind::Minus);
        if negative {
            self.bump();
        }
        let v = self.expect_value(format_args!("{what} (an integer)"), |found| match found {
            TokenKind::Int(v) => Some(v),
            TokenKind::Hex(v) => i64::try_from(v).ok(),
            _ => None,
        })?;
        Ok(if negative { -v } else { v })
    }

    fn node_table(&mut self, program: &mut Program<N>) -> Result<(), FslError> {
        while !self.at_keyword("END") {
            let name = self.expect_name()?;
            let mac = self.expect_value("a MAC address", |found| match found {
                TokenKind::Mac(mac) => Some(mac),
                _ => None,
            })?;
            let ip = self.expect_value("an IP address", |found| match found {
                TokenKind::Ip(ip) => Some(ip),
                _ => None,
            })?;
            program.nodes.push(NodeDef { name, mac, ip });
        }
        self.expect_keyword("END")
    }

    // ------------------------------------------------------------------

    fn scenario(&mut self) -> Result<Scenario<N>, FslError> {
        let name = self.expect_name()?;
        let timeout_ns = match self.peek() {
            TokenKind::Duration(ns) => {
                self.bump();
                Some(ns)
            }
            _ => None,
        };
        let mut scenario = Scenario {
            name,
            timeout_ns,
            counters: Vec::new(),
            rules: Vec::new(),
        };
        loop {
            if self.eat_keyword("END") {
                return Ok(scenario);
            }
            match self.peek() {
                // `NAME : ( ... )` — a counter declaration.
                TokenKind::Ident(_) if self.lexer.lookahead() == TokenKind::Colon => {
                    scenario.counters.push(self.counter_decl()?);
                }
                // `( condition ) >> actions` — a rule.
                TokenKind::LParen => {
                    scenario.rules.push(self.rule()?);
                }
                other => {
                    return Err(FslError::at(
                        self.span(),
                        format!("expected a counter declaration, a rule, or END, found {other}"),
                    ));
                }
            }
        }
    }

    fn counter_decl(&mut self) -> Result<CounterDecl<N>, FslError> {
        let name = self.expect_name()?;
        self.expect(TokenKind::Colon)?;
        self.expect(TokenKind::LParen)?;
        let first = self.expect_ident()?;
        let kind = if matches!(self.peek(), TokenKind::Comma) {
            CounterKind::PacketEvent(self.selector_after(first)?)
        } else {
            CounterKind::NodeLocal {
                node: N::from(first),
            }
        };
        self.expect(TokenKind::RParen)?;
        // Optional trailing `;` after a declaration.
        if matches!(self.peek(), TokenKind::Semi) {
            self.bump();
        }
        Ok(CounterDecl { name, kind })
    }

    fn direction(&mut self) -> Result<Dir, FslError> {
        self.expect_value("SEND or RECV", |found| match found {
            TokenKind::Ident("SEND") => Some(Dir::Send),
            TokenKind::Ident("RECV") => Some(Dir::Recv),
            _ => None,
        })
    }

    fn rule(&mut self) -> Result<Rule<N>, FslError> {
        let condition = self.or_expr()?;
        self.expect(TokenKind::Arrow)?;
        let mut actions = vec![self.action()?];
        loop {
            // Optional `;` between and after actions.
            while matches!(self.peek(), TokenKind::Semi) {
                self.bump();
            }
            if matches!(self.peek(), TokenKind::Ident(kw) if ACTION_KEYWORDS.contains(&kw)) {
                actions.push(self.action()?);
            } else {
                break;
            }
        }
        Ok(Rule { condition, actions })
    }

    fn primary_cond(&mut self) -> Result<CondExpr<N>, FslError> {
        match self.peek() {
            TokenKind::LParen => {
                self.bump();
                let inner = self.or_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Bang => {
                self.bump();
                Ok(CondExpr::Not(Box::new(self.primary_cond()?)))
            }
            TokenKind::Ident("TRUE") => {
                self.bump();
                Ok(CondExpr::True)
            }
            TokenKind::Ident("FALSE") => {
                self.bump();
                Ok(CondExpr::False)
            }
            TokenKind::Ident(_) | TokenKind::Int(_) | TokenKind::Minus | TokenKind::Hex(_) => {
                self.term()
            }
            other => Err(FslError::at(
                self.span(),
                format!("expected a condition, found {other}"),
            )),
        }
    }

    fn or_expr(&mut self) -> Result<CondExpr<N>, FslError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), TokenKind::OrOr) {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = CondExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<CondExpr<N>, FslError> {
        let mut lhs = self.primary_cond()?;
        while matches!(self.peek(), TokenKind::AndAnd) {
            self.bump();
            let rhs = self.primary_cond()?;
            lhs = CondExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<CondExpr<N>, FslError> {
        let lhs = self.operand()?;
        let op = match self.bump() {
            TokenKind::Gt => RelOp::Gt,
            TokenKind::Lt => RelOp::Lt,
            TokenKind::Ge => RelOp::Ge,
            TokenKind::Le => RelOp::Le,
            TokenKind::Eq => RelOp::Eq,
            TokenKind::Ne => RelOp::Ne,
            other => {
                return Err(FslError::at(
                    self.span(),
                    format!("expected a relational operator, found {other}"),
                ));
            }
        };
        let rhs = self.operand()?;
        Ok(CondExpr::Term(Term { lhs, op, rhs }))
    }

    fn operand(&mut self) -> Result<Operand<N>, FslError> {
        if matches!(
            self.peek(),
            TokenKind::Int(_) | TokenKind::Hex(_) | TokenKind::Minus
        ) {
            return Ok(Operand::Const(self.expect_i64("a constant operand")?));
        }
        self.expect_value("a counter or constant", |found| match found {
            TokenKind::Ident(name) => Some(Operand::Counter(N::from(name))),
            _ => None,
        })
    }

    // ------------------------------------------------------------------

    /// Parses one action. The opening/closing parentheses around the
    /// argument list are optional, matching both the Table-II form and the
    /// Figure 5 line 17 form.
    fn action(&mut self) -> Result<Action<N>, FslError> {
        let span = self.span();
        let keyword = self.expect_ident()?;
        let parens = matches!(self.peek(), TokenKind::LParen);
        if parens {
            self.bump();
        }
        let action = match keyword {
            "ASSIGN_CNTR" | "ENABLE_CNTR" | "DISABLE_CNTR" | "INCR_CNTR" | "DECR_CNTR"
            | "RESET_CNTR" | "SET_CURTIME" | "ELAPSED_TIME" => {
                let counter = self.expect_name()?;
                let op = match keyword {
                    "ASSIGN_CNTR" => {
                        CounterOp::Assign(if matches!(self.peek(), TokenKind::Comma) {
                            self.comma_i64("the assigned value")?
                        } else {
                            0
                        })
                    }
                    "ENABLE_CNTR" => CounterOp::Enable,
                    "DISABLE_CNTR" => CounterOp::Disable,
                    "INCR_CNTR" => CounterOp::Incr(self.comma_i64("the increment")?),
                    "DECR_CNTR" => CounterOp::Decr(self.comma_i64("the decrement")?),
                    "RESET_CNTR" => CounterOp::Reset,
                    "SET_CURTIME" => CounterOp::SetCurTime,
                    _ => CounterOp::ElapsedTime,
                };
                Action::Counter { counter, op }
            }
            "DROP" | "DELAY" | "REORDER" | "DUP" | "MODIFY" => {
                let on = self.selector()?;
                let fault = match keyword {
                    "DROP" => Fault::Drop,
                    "DELAY" => Fault::Delay {
                        duration_ns: self.duration_arg()?,
                    },
                    "REORDER" => self.reorder_args()?,
                    "DUP" => Fault::Dup,
                    _ => Fault::Modify(self.modify_pattern()?),
                };
                Action::Fault { on, fault }
            }
            "FAIL" => Action::Fail {
                node: self.expect_name()?,
            },
            "STOP" => Action::Stop,
            "FLAG_ERR" | "FLAG_ERROR" => {
                let message = match self.peek() {
                    TokenKind::Str(s) => {
                        self.bump();
                        Some(N::from(s))
                    }
                    _ => None,
                };
                Action::FlagError { message }
            }
            other => {
                return Err(FslError::at(span, format!("unknown action `{other}`")));
            }
        };
        if parens {
            self.expect(TokenKind::RParen)?;
        }
        Ok(action)
    }

    /// A fault's `pkt, from, to, SEND|RECV` selector.
    fn selector(&mut self) -> Result<PacketSelector<N>, FslError> {
        let pkt = self.expect_ident()?;
        self.selector_after(pkt)
    }

    /// The rest of a `pkt, from, to, SEND|RECV` selector whose packet
    /// type name has been read.
    fn selector_after(&mut self, pkt: &'src str) -> Result<PacketSelector<N>, FslError> {
        let pkt = N::from(pkt);
        self.expect(TokenKind::Comma)?;
        let from = self.expect_name()?;
        self.expect(TokenKind::Comma)?;
        let to = self.expect_name()?;
        self.expect(TokenKind::Comma)?;
        let dir = self.direction()?;
        Ok(PacketSelector { pkt, from, to, dir })
    }

    fn comma_i64(&mut self, what: &str) -> Result<i64, FslError> {
        self.expect(TokenKind::Comma)?;
        self.expect_i64(what)
    }

    fn reorder_args(&mut self) -> Result<Fault, FslError> {
        self.expect(TokenKind::Comma)?;
        let count = self.expect_u32("the packet count")?;
        self.expect(TokenKind::Comma)?;
        self.expect(TokenKind::LParen)?;
        let mut order = Vec::new();
        while !matches!(self.peek(), TokenKind::RParen) {
            order.push(self.expect_u32("a position in the release order")?);
            if matches!(self.peek(), TokenKind::Comma) {
                self.bump();
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(Fault::Reorder { count, order })
    }

    fn modify_pattern(&mut self) -> Result<ModifyPattern, FslError> {
        self.expect(TokenKind::Comma)?;
        if self.eat_keyword("RANDOM") {
            return Ok(ModifyPattern::Random);
        }
        self.expect(TokenKind::LParen)?;
        let offset = self.expect_u32("the modify offset")?;
        let len = self.expect_u32("the modify length")?;
        let value = self.expect_value("the modify value", |found| match found {
            TokenKind::Hex(v) => Some(v),
            TokenKind::Int(v) => u64::try_from(v).ok(),
            _ => None,
        })?;
        self.expect(TokenKind::RParen)?;
        Ok(ModifyPattern::Set { offset, len, value })
    }

    fn duration_arg(&mut self) -> Result<u64, FslError> {
        self.expect(TokenKind::Comma)?;
        self.expect_value("a duration (e.g. 20msec)", |found| match found {
            TokenKind::Duration(ns) => Some(ns),
            // A bare integer is read as milliseconds (the paper's delay
            // granularity is 10 ms jiffies anyway).
            TokenKind::Int(v) => u64::try_from(v).ok()?.checked_mul(1_000_000),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_filter_and_node_tables() {
        let src = r#"
            VAR SeqNoData, SeqNoAck;
            FILTER_TABLE
            TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
            TCP_seq: (38 4 SeqNoData)
            END
            NODE_TABLE
            node0 00:46:61:af:fe:23 192.168.1.1
            node1 00:23:31:df:af:12 192.168.1.2
            END
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.vars, vec!["SeqNoData", "SeqNoAck"]);
        assert_eq!(p.filters.len(), 2);
        assert_eq!(p.filters[0].tuples.len(), 3);
        assert_eq!(p.filters[0].tuples[0].offset, 34);
        assert_eq!(p.filters[0].tuples[0].mask, None);
        assert_eq!(
            p.filters[0].tuples[0].pattern,
            PatternValue::Literal(0x6000)
        );
        assert_eq!(p.filters[0].tuples[2].mask, Some(0x10));
        assert_eq!(
            p.filters[1].tuples[0].pattern,
            PatternValue::Var("SeqNoData".into())
        );
        assert_eq!(p.nodes.len(), 2);
        assert_eq!(p.nodes[0].name, "node0");
        assert_eq!(p.nodes[1].ip.to_string(), "192.168.1.2");
    }

    #[test]
    fn parses_scenario_with_counters_and_rules() {
        let src = r#"
            SCENARIO Demo 1sec
            SYNACK: (TCP_synack, node2, node1, RECV)
            CWND: (node1)
            (TRUE) >> ENABLE_CNTR( SYNACK ); ASSIGN_CNTR( CWND, 1 );
            ((SYNACK > 0) && (SYNACK < 2)) >>
                DROP TCP_synack, node2, node1, RECV;
            ((CWND < 0)) >> FLAG_ERROR;
            END
        "#;
        let p = parse(src).unwrap();
        let s = &p.scenarios[0];
        assert_eq!(s.name, "Demo");
        assert_eq!(s.timeout_ns, Some(1_000_000_000));
        assert_eq!(s.counters.len(), 2);
        assert!(matches!(
            s.counters[0].kind,
            CounterKind::PacketEvent(PacketSelector { dir: Dir::Recv, .. })
        ));
        assert!(matches!(s.counters[1].kind, CounterKind::NodeLocal { .. }));
        assert_eq!(s.rules.len(), 3);
        assert_eq!(s.rules[0].actions.len(), 2);
        assert!(matches!(s.rules[0].condition, CondExpr::True));
        assert!(matches!(s.rules[1].condition, CondExpr::And(_, _)));
        assert!(matches!(
            s.rules[1].actions[0],
            Action::Fault {
                on: PacketSelector { dir: Dir::Recv, .. },
                fault: Fault::Drop,
            }
        ));
        assert!(matches!(s.rules[2].actions[0], Action::FlagError { .. }));
    }

    #[test]
    fn actions_accept_both_paren_styles() {
        let src = r#"
            SCENARIO S
            (TRUE) >> DROP(p, a, b, SEND); DROP p, a, b, SEND; FAIL(n); FAIL n; STOP;
            END
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.scenarios[0].rules[0].actions.len(), 5);
        assert_eq!(
            p.scenarios[0].rules[0].actions[0],
            p.scenarios[0].rules[0].actions[1]
        );
    }

    #[test]
    fn parses_all_fault_primitives() {
        let src = r#"
            SCENARIO Faults
            (TRUE) >>
                DELAY(p, a, b, RECV, 20msec);
                REORDER(p, a, b, SEND, 3, (2 0 1));
                DUP(p, a, b, RECV);
                MODIFY(p, a, b, SEND, RANDOM);
                MODIFY(p, a, b, SEND, (14 2 0xBEEF));
                FLAG_ERR "token lost";
            END
        "#;
        let p = parse(src).unwrap();
        let actions = &p.scenarios[0].rules[0].actions;
        assert_eq!(actions.len(), 6);
        let fault = |i: usize| match &actions[i] {
            Action::Fault { fault, .. } => fault,
            other => panic!("action {i} is not a fault: {other:?}"),
        };
        assert_eq!(
            *fault(0),
            Fault::Delay {
                duration_ns: 20_000_000
            }
        );
        assert_eq!(
            *fault(1),
            Fault::Reorder {
                count: 3,
                order: vec![2, 0, 1]
            }
        );
        assert_eq!(*fault(3), Fault::Modify(ModifyPattern::Random));
        assert_eq!(
            *fault(4),
            Fault::Modify(ModifyPattern::Set {
                offset: 14,
                len: 2,
                value: 0xBEEF
            })
        );
        assert_eq!(
            actions[5],
            Action::FlagError {
                message: Some("token lost".into())
            }
        );
    }

    #[test]
    fn a_non_ascii_flag_err_message_survives_print_and_parse() {
        let src = "SCENARIO S\n(TRUE) >> FLAG_ERR \"jeton perdu é → ✓\";\nEND";
        let p = parse(src).unwrap();
        assert_eq!(
            p.scenarios[0].rules[0].actions[0],
            Action::FlagError {
                message: Some("jeton perdu é → ✓".into())
            }
        );
        assert_eq!(parse(&crate::print(&p)).unwrap(), p);
    }

    #[test]
    fn negative_constants() {
        let src = r#"
            SCENARIO Neg
            C: (node1)
            ((C < -3)) >> ASSIGN_CNTR(C, -1);
            END
        "#;
        let p = parse(src).unwrap();
        let rule = &p.scenarios[0].rules[0];
        assert!(matches!(
            &rule.condition,
            CondExpr::Term(Term {
                rhs: Operand::Const(-3),
                ..
            })
        ));
        assert_eq!(
            rule.actions[0],
            Action::Counter {
                counter: "C".into(),
                op: CounterOp::Assign(-1)
            }
        );
    }

    #[test]
    fn or_and_not_conditions() {
        let src = r#"
            SCENARIO Logic
            A: (node1)
            B: (node1)
            ((A > 0) || !(B = 1) && (A < 5)) >> STOP;
            END
        "#;
        let p = parse(src).unwrap();
        assert!(matches!(
            p.scenarios[0].rules[0].condition,
            CondExpr::Or(_, _)
        ));
    }

    #[test]
    fn error_messages_carry_positions() {
        let err = parse("SCENARIO ;").unwrap_err();
        assert!(err.span().is_some());
        assert!(err.to_string().contains("identifier"));
        let err = parse("FILTER_TABLE x: (1 2").unwrap_err();
        assert!(err.to_string().contains("pattern") || err.to_string().contains("expected"));
        let err = parse("SCENARIO S (TRUE) >> BOGUS_ACTION; END").unwrap_err();
        assert!(err.to_string().contains("unknown action"));
    }

    #[test]
    fn empty_program_is_valid() {
        let p = parse("").unwrap();
        assert_eq!(p, Program::default());
    }
}
