//! The Fault Specification Language (FSL) of VirtualWire.
//!
//! FSL is the declarative scripting language of the paper's Section 4: a
//! test scenario is an unordered set of `{condition >> action}` rules over
//! three data types — *packet definitions* (byte offset/mask/pattern
//! filters), *node definitions* (name → MAC + IP), and *counters* (packet
//! event counts or node-local variables). Conditions are boolean
//! combinations of relational *terms* over counters; actions are the
//! counter manipulations of Table I and the fault primitives of Table II.
//!
//! This crate provides the complete front-end:
//!
//! * [`parse`] — lexer + recursive-descent parser producing an [`ast`],
//!   accepting the paper's concrete syntax (Figures 2, 5 and 6 parse
//!   as written); the parser pulls tokens from the lexer one at a time,
//! * [`analyze`] — semantic checks (name resolution, tuple widths,
//!   permutation validity, ...),
//! * [`compile`] — lowering to the six runtime tables of Figure 3
//!   ([`TableSet`]), including the distributed *placement* rules of
//!   Section 5.2 (which node owns each counter, evaluates each term and
//!   condition, and executes each action); [`compile_source`] parses and
//!   compiles a script without copying a name before the tables, whose
//!   names share one string ([`Name`]),
//! * [`print()`](crate::print) — a canonical pretty-printer with the round-trip property
//!   `parse(print(p)) == p`.
//!
//! # Example
//!
//! ```
//! let script = r#"
//!     FILTER_TABLE
//!     tr_token: (12 2 0x9900), (14 2 0x0001)
//!     END
//!     NODE_TABLE
//!     node1 00:00:00:00:00:01 192.168.1.1
//!     node2 00:00:00:00:00:02 192.168.1.2
//!     END
//!     SCENARIO Drop_One_Token 1sec
//!     Tokens: (tr_token, node1, node2, RECV)
//!     (TRUE) >> ENABLE_CNTR(Tokens);
//!     ((Tokens = 1)) >> DROP(tr_token, node1, node2, RECV);
//!     END
//! "#;
//! let program = vw_fsl::parse(script)?;
//! let tables = vw_fsl::compile(&program).map_err(|e| e[0].clone())?;
//! assert_eq!(tables[0].scenario, "Drop_One_Token");
//! assert_eq!(tables[0].timeout_ns, Some(1_000_000_000));
//! assert_eq!(tables[0].counters.len(), 1);
//! # Ok::<(), vw_fsl::FslError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
pub mod ast;
mod compile;
mod error;
mod lexer;
mod parser;
mod printer;
pub mod token;

pub use analyze::{analyze, MAX_NAME_LEN, MAX_WIRE_LEN};
pub use ast::{
    Action, CondExpr, CounterDecl, CounterKind, CounterOp, Dir, Fault, FilterDef, FilterTuple,
    ModifyPattern, NodeDef, Operand, PacketSelector, PatternValue, Program, RelOp, Rule, Scenario,
    Term,
};
pub use compile::{
    compile, compile_source, ActionId, CompiledAction, CompiledActionKind, CompiledCondition,
    CompiledCounter, CompiledCounterKind, CompiledFilter, CompiledNode, CompiledOperand,
    CompiledTerm, CondId, CondNode, CounterId, FilterId, Name, NodeId, PacketSel, TableSet, Tables,
    TermId, WeakTableSet,
};
pub use error::FslError;
pub use lexer::{lex, Lexer};
pub use parser::parse;
pub use printer::print;
