//! Recursive-descent parser for the Fault Specification Language.
//!
//! The grammar accepts the concrete syntax of the paper's Figures 2, 5 and
//! 6 (including its looser spots: action arguments with or without
//! parentheses — Figure 5 line 17 writes `DROP TCP_synack, node2, node1,
//! RECV;` where Table II shows `DROP( ... )` — and both `FLAG_ERR` and
//! `FLAG_ERROR` spellings).

use crate::ast::*;
use crate::error::FslError;
use crate::lexer::lex;
use crate::token::{Span, Token, TokenKind};

/// Parses an FSL script into a [`Program`].
///
/// # Errors
///
/// Returns the first lexical or syntactic [`FslError`] encountered.
pub fn parse(source: &str) -> Result<Program, FslError> {
    let tokens = lex(source)?;
    Parser { tokens, pos: 0 }.program()
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

/// The parser walks the token list without copying a name out of it: an
/// identifier is a slice of the source until it enters the AST.
struct Parser<'src> {
    tokens: Vec<Token<'src>>,
    pos: usize,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> TokenKind<'src> {
        self.peek_ahead(0)
    }

    fn peek_ahead(&self, n: usize) -> TokenKind<'src> {
        self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> TokenKind<'src> {
        let kind = self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        kind
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<(), FslError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(FslError::at(
                self.span(),
                format!("expected {kind}, found {}", self.peek()),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<&'src str, FslError> {
        match self.peek() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(FslError::at(
                self.span(),
                format!("expected an identifier, found {other}"),
            )),
        }
    }

    /// An identifier, as the owned name the AST keeps.
    fn expect_name(&mut self) -> Result<String, FslError> {
        self.expect_ident().map(str::to_owned)
    }

    fn at_keyword(&self, kw: &str) -> bool {
        self.peek() == TokenKind::Ident(kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), FslError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(FslError::at(
                self.span(),
                format!("expected `{kw}`, found {}", self.peek()),
            ))
        }
    }

    // ------------------------------------------------------------------

    fn program(mut self) -> Result<Program, FslError> {
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

    fn var_decl(&mut self, program: &mut Program) -> Result<(), FslError> {
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

    fn filter_table(&mut self, program: &mut Program) -> Result<(), FslError> {
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

    fn filter_tuple(&mut self) -> Result<FilterTuple, FslError> {
        self.expect(TokenKind::LParen)?;
        let offset = self.expect_u32("tuple offset")?;
        let len = self.expect_u32("tuple length")?;
        let first = self.pattern_value()?;
        let tuple = if matches!(self.peek(), TokenKind::RParen) {
            FilterTuple {
                offset,
                len,
                mask: None,
                pattern: first,
            }
        } else {
            let mask = match first {
                PatternValue::Literal(v) => v,
                PatternValue::Var(name) => {
                    return Err(FslError::at(
                        self.span(),
                        format!("mask must be a literal, found variable `{name}`"),
                    ));
                }
            };
            let pattern = self.pattern_value()?;
            FilterTuple {
                offset,
                len,
                mask: Some(mask),
                pattern,
            }
        };
        self.expect(TokenKind::RParen)?;
        Ok(tuple)
    }

    fn pattern_value(&mut self) -> Result<PatternValue, FslError> {
        match self.peek() {
            TokenKind::Hex(v) => {
                self.bump();
                Ok(PatternValue::Literal(v))
            }
            TokenKind::Int(v) if v >= 0 => {
                self.bump();
                Ok(PatternValue::Literal(v as u64))
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(PatternValue::Var(name.to_owned()))
            }
            other => Err(FslError::at(
                self.span(),
                format!("expected a pattern value, found {other}"),
            )),
        }
    }

    fn expect_u32(&mut self, what: &str) -> Result<u32, FslError> {
        match self.peek() {
            TokenKind::Int(v) if (0..=u32::MAX as i64).contains(&v) => {
                self.bump();
                Ok(v as u32)
            }
            other => Err(FslError::at(
                self.span(),
                format!("expected {what} (a small integer), found {other}"),
            )),
        }
    }

    fn expect_i64(&mut self, what: &str) -> Result<i64, FslError> {
        let negative = matches!(self.peek(), TokenKind::Minus);
        if negative {
            self.bump();
        }
        match self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(if negative { -v } else { v })
            }
            TokenKind::Hex(v) if v <= i64::MAX as u64 => {
                self.bump();
                let v = v as i64;
                Ok(if negative { -v } else { v })
            }
            other => Err(FslError::at(
                self.span(),
                format!("expected {what} (an integer), found {other}"),
            )),
        }
    }

    fn node_table(&mut self, program: &mut Program) -> Result<(), FslError> {
        while !self.at_keyword("END") {
            let name = self.expect_name()?;
            let mac = match self.peek() {
                TokenKind::Mac(mac) => {
                    self.bump();
                    mac
                }
                other => {
                    return Err(FslError::at(
                        self.span(),
                        format!("expected a MAC address, found {other}"),
                    ));
                }
            };
            let ip = match self.peek() {
                TokenKind::Ip(ip) => {
                    self.bump();
                    ip
                }
                other => {
                    return Err(FslError::at(
                        self.span(),
                        format!("expected an IP address, found {other}"),
                    ));
                }
            };
            program.nodes.push(NodeDef { name, mac, ip });
        }
        self.expect_keyword("END")
    }

    // ------------------------------------------------------------------

    fn scenario(&mut self) -> Result<Scenario, FslError> {
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
                TokenKind::Ident(_) if self.peek_ahead(1) == TokenKind::Colon => {
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

    fn counter_decl(&mut self) -> Result<CounterDecl, FslError> {
        let name = self.expect_name()?;
        self.expect(TokenKind::Colon)?;
        self.expect(TokenKind::LParen)?;
        let first = self.expect_ident()?;
        let kind = if matches!(self.peek(), TokenKind::Comma) {
            CounterKind::PacketEvent(self.selector_after(first)?)
        } else {
            CounterKind::NodeLocal {
                node: first.to_owned(),
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
        if self.eat_keyword("SEND") {
            Ok(Dir::Send)
        } else if self.eat_keyword("RECV") {
            Ok(Dir::Recv)
        } else {
            Err(FslError::at(
                self.span(),
                format!("expected SEND or RECV, found {}", self.peek()),
            ))
        }
    }

    fn rule(&mut self) -> Result<Rule, FslError> {
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

    fn primary_cond(&mut self) -> Result<CondExpr, FslError> {
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

    fn or_expr(&mut self) -> Result<CondExpr, FslError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), TokenKind::OrOr) {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = CondExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<CondExpr, FslError> {
        let mut lhs = self.primary_cond()?;
        while matches!(self.peek(), TokenKind::AndAnd) {
            self.bump();
            let rhs = self.primary_cond()?;
            lhs = CondExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<CondExpr, FslError> {
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

    fn operand(&mut self) -> Result<Operand, FslError> {
        match self.peek() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Operand::Counter(name.to_owned()))
            }
            TokenKind::Int(_) | TokenKind::Hex(_) | TokenKind::Minus => {
                Ok(Operand::Const(self.expect_i64("a constant operand")?))
            }
            other => Err(FslError::at(
                self.span(),
                format!("expected a counter or constant, found {other}"),
            )),
        }
    }

    // ------------------------------------------------------------------

    /// Parses one action. The opening/closing parentheses around the
    /// argument list are optional, matching both the Table-II form and the
    /// Figure 5 line 17 form.
    fn action(&mut self) -> Result<Action, FslError> {
        let span = self.span();
        let keyword = self.expect_ident()?;
        let parens = matches!(self.peek(), TokenKind::LParen);
        if parens {
            self.bump();
        }
        let action = match keyword {
            "ASSIGN_CNTR" => Action::Counter {
                counter: self.expect_name()?,
                op: CounterOp::Assign(if matches!(self.peek(), TokenKind::Comma) {
                    self.comma_i64("the assigned value")?
                } else {
                    0
                }),
            },
            "ENABLE_CNTR" => Action::Counter {
                counter: self.expect_name()?,
                op: CounterOp::Enable,
            },
            "DISABLE_CNTR" => Action::Counter {
                counter: self.expect_name()?,
                op: CounterOp::Disable,
            },
            "INCR_CNTR" => Action::Counter {
                counter: self.expect_name()?,
                op: CounterOp::Incr(self.comma_i64("the increment")?),
            },
            "DECR_CNTR" => Action::Counter {
                counter: self.expect_name()?,
                op: CounterOp::Decr(self.comma_i64("the decrement")?),
            },
            "RESET_CNTR" => Action::Counter {
                counter: self.expect_name()?,
                op: CounterOp::Reset,
            },
            "SET_CURTIME" => Action::Counter {
                counter: self.expect_name()?,
                op: CounterOp::SetCurTime,
            },
            "ELAPSED_TIME" => Action::Counter {
                counter: self.expect_name()?,
                op: CounterOp::ElapsedTime,
            },
            "DROP" => Action::Fault {
                on: self.selector()?,
                fault: Fault::Drop,
            },
            "DELAY" => Action::Fault {
                on: self.selector()?,
                fault: Fault::Delay {
                    duration_ns: self.duration_arg()?,
                },
            },
            "REORDER" => Action::Fault {
                on: self.selector()?,
                fault: self.reorder_args()?,
            },
            "DUP" => Action::Fault {
                on: self.selector()?,
                fault: Fault::Dup,
            },
            "MODIFY" => Action::Fault {
                on: self.selector()?,
                fault: Fault::Modify(self.modify_pattern()?),
            },
            "FAIL" => Action::Fail {
                node: self.expect_name()?,
            },
            "STOP" => Action::Stop,
            "FLAG_ERR" | "FLAG_ERROR" => {
                let message = match self.peek() {
                    TokenKind::Str(s) => {
                        self.bump();
                        Some(s.to_owned())
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
    fn selector(&mut self) -> Result<PacketSelector, FslError> {
        let pkt = self.expect_ident()?;
        self.selector_after(pkt)
    }

    /// The rest of a `pkt, from, to, SEND|RECV` selector whose packet
    /// type name has been read.
    fn selector_after(&mut self, pkt: &str) -> Result<PacketSelector, FslError> {
        let pkt = pkt.to_owned();
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
        let value = match self.peek() {
            TokenKind::Hex(v) => {
                self.bump();
                v
            }
            TokenKind::Int(v) if v >= 0 => {
                self.bump();
                v as u64
            }
            other => {
                return Err(FslError::at(
                    self.span(),
                    format!("expected the modify value, found {other}"),
                ));
            }
        };
        self.expect(TokenKind::RParen)?;
        Ok(ModifyPattern::Set { offset, len, value })
    }

    fn duration_arg(&mut self) -> Result<u64, FslError> {
        self.expect(TokenKind::Comma)?;
        match self.peek() {
            TokenKind::Duration(ns) => {
                self.bump();
                Ok(ns)
            }
            // A bare integer is read as milliseconds (the paper's delay
            // granularity is 10 ms jiffies anyway).
            TokenKind::Int(v) if v >= 0 => {
                self.bump();
                Ok(v as u64 * 1_000_000)
            }
            other => Err(FslError::at(
                self.span(),
                format!("expected a duration (e.g. 20msec), found {other}"),
            )),
        }
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
