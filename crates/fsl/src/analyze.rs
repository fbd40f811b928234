//! Semantic analysis: name resolution and well-formedness checks run
//! before a script is compiled to tables.

use std::collections::{HashMap, HashSet};

use crate::ast::*;
use crate::compile::{CounterId, FilterId, NodeId};
use crate::error::FslError;

/// Longest name a script may declare (scenario, `VAR`, packet definition,
/// node, counter). The control plane carries strings under a `u16` length
/// prefix and embeds node names in its own diagnostics, so names stay
/// well inside it.
pub const MAX_NAME_LEN: usize = 255;
/// Longest `FLAG_ERROR` message (bytes) and `REORDER` batch, and most rows
/// in any table (filters, nodes, counters, terms, conditions, actions) or
/// entries in any list a compile emits: what the control plane's `u16`
/// length prefix can carry, so every table id fits its `u16` as well.
pub const MAX_WIRE_LEN: usize = u16::MAX as usize;

/// Checks a parsed [`Program`] for semantic errors. Returns every problem
/// found (not just the first), or `Ok(())` for a valid program.
///
/// # Errors
///
/// The returned list covers: duplicate definitions; references to
/// undefined packet types, nodes, counters, or variables; malformed filter
/// tuples; invalid `REORDER` permutations; scenarios without rules; and
/// names, messages, `REORDER` batches or tables too long for the control
/// plane ([`MAX_NAME_LEN`], [`MAX_WIRE_LEN`]).
pub fn analyze<N: AsRef<str>>(program: &Program<N>) -> Result<(), Vec<FslError>> {
    resolve(program).map(drop)
}

/// The names a checked program defines, each with the table index it
/// compiles to: what [`analyze`] resolves references against, kept for
/// the compiler.
pub(crate) struct Names<'p> {
    pub(crate) filters: HashMap<&'p str, FilterId>,
    pub(crate) nodes: HashMap<&'p str, NodeId>,
    /// One map per scenario, in program order.
    pub(crate) counters: Vec<HashMap<&'p str, CounterId>>,
}

/// [`analyze`], returning the name tables of a valid program.
pub(crate) fn resolve<N: AsRef<str>>(program: &Program<N>) -> Result<Names<'_>, Vec<FslError>> {
    let mut errors = Vec::new();

    // ---- declared-name lengths ---------------------------------------
    let filters = program
        .filters
        .iter()
        .map(|f| ("packet definition", &f.name));
    let nodes = program.nodes.iter().map(|n| ("node", &n.name));
    let vars = program.vars.iter().map(|v| ("VAR", v));
    let scenarios = program.scenarios.iter().map(|s| ("scenario", &s.name));
    let counters = program
        .scenarios
        .iter()
        .flat_map(|s| s.counters.iter().map(|c| ("counter", &c.name)));
    let declared = filters
        .chain(nodes)
        .chain(vars)
        .chain(scenarios)
        .chain(counters);
    for (what, name) in declared {
        let name = name.as_ref();
        if name.len() > MAX_NAME_LEN {
            errors.push(FslError::general(format!(
                "{what} name of {} bytes exceeds the {MAX_NAME_LEN}-byte limit (`{}…`)",
                name.len(),
                name.chars().take(16).collect::<String>()
            )));
        }
    }

    too_many(&mut errors, "packet definitions", program.filters.len());
    too_many(&mut errors, "nodes", program.nodes.len());
    too_many(&mut errors, "VARs", program.vars.len());

    // ---- duplicate definitions ---------------------------------------
    let mut filters = HashMap::with_capacity(program.filters.len());
    for (i, filter) in program.filters.iter().enumerate() {
        let name = filter.name.as_ref();
        if filters.insert(name, FilterId(row_id(i))).is_some() {
            errors.push(FslError::general(format!(
                "duplicate packet definition `{name}`"
            )));
        }
    }
    let mut nodes = HashMap::with_capacity(program.nodes.len());
    for (i, node) in program.nodes.iter().enumerate() {
        let name = node.name.as_ref();
        if nodes.insert(name, NodeId(row_id(i))).is_some() {
            errors.push(FslError::general(format!(
                "duplicate node definition `{name}`"
            )));
        }
    }
    let mut seen = HashSet::with_capacity(program.nodes.len());
    for mac in program.nodes.iter().map(|n| n.mac) {
        if !seen.insert(mac) {
            errors.push(FslError::general(format!("duplicate node MAC `{mac}`")));
        }
    }
    let mut vars = HashSet::with_capacity(program.vars.len());
    for var in program.vars.iter().map(AsRef::as_ref) {
        if !vars.insert(var) {
            errors.push(FslError::general(format!("duplicate VAR `{var}`")));
        }
    }

    // ---- filter tuples -----------------------------------------------
    for filter in &program.filters {
        let name = filter.name.as_ref();
        if filter.tuples.is_empty() {
            errors.push(FslError::general(format!(
                "packet definition `{name}` has no match tuples"
            )));
        }
        let tuples = format_args!("match tuples in packet `{name}`");
        too_many(&mut errors, tuples, filter.tuples.len());
        for tuple in &filter.tuples {
            if tuple.len == 0 || tuple.len > 8 {
                errors.push(FslError::general(format!(
                    "packet `{name}`: tuple length {} is outside 1..=8",
                    tuple.len
                )));
            } else {
                let width_ok = |v: u64| tuple.len == 8 || v < (1u64 << (tuple.len * 8));
                if let PatternValue::Literal(v) = tuple.pattern {
                    if !width_ok(v) {
                        errors.push(FslError::general(format!(
                            "packet `{name}`: pattern 0x{v:x} does not fit in {} bytes",
                            tuple.len
                        )));
                    }
                }
                if let Some(mask) = tuple.mask {
                    if !width_ok(mask) {
                        errors.push(FslError::general(format!(
                            "packet `{name}`: mask 0x{mask:x} does not fit in {} bytes",
                            tuple.len
                        )));
                    }
                }
            }
            if let PatternValue::Var(var) = &tuple.pattern {
                let var = var.as_ref();
                if !vars.contains(var) {
                    errors.push(FslError::general(format!(
                        "packet `{name}` references undeclared VAR `{var}`"
                    )));
                }
            }
        }
    }

    // ---- scenarios ----------------------------------------------------
    if program.scenarios.is_empty() {
        errors.push(FslError::general("no SCENARIO defined"));
    }
    let mut scenario_names = HashSet::with_capacity(program.scenarios.len());
    let mut counters = Vec::with_capacity(program.scenarios.len());
    for scenario in &program.scenarios {
        let name = scenario.name.as_ref();
        if !scenario_names.insert(name) {
            errors.push(FslError::general(format!("duplicate scenario `{name}`")));
        }
        counters.push(analyze_scenario(scenario, &filters, &nodes, &mut errors));
    }

    if errors.is_empty() {
        Ok(Names {
            filters,
            nodes,
            counters,
        })
    } else {
        Err(errors)
    }
}

/// The id of a table's `i`th row. A table of more than [`MAX_WIRE_LEN`]
/// rows is refused, so every id of a checked program fits; past that the
/// id saturates, in a program that is refused anyway.
fn row_id(i: usize) -> u16 {
    u16::try_from(i).unwrap_or(u16::MAX)
}

/// Refuses a table or list of `rows` entries that the control plane's
/// `u16` prefix (and so a `u16` id) cannot carry.
fn too_many(errors: &mut Vec<FslError>, what: impl std::fmt::Display, rows: usize) {
    if rows > MAX_WIRE_LEN {
        errors.push(FslError::general(format!(
            "{rows} {what} exceed the {MAX_WIRE_LEN}-row limit of a table"
        )));
    }
}

/// Checks one scenario and returns its counters by name.
fn analyze_scenario<'p, N: AsRef<str>>(
    scenario: &'p Scenario<N>,
    filters: &HashMap<&str, FilterId>,
    nodes: &HashMap<&str, NodeId>,
    errors: &mut Vec<FslError>,
) -> HashMap<&'p str, CounterId> {
    let scen = scenario.name.as_ref();
    let mut counters = HashMap::with_capacity(scenario.counters.len());
    for (i, decl) in scenario.counters.iter().enumerate() {
        let name = decl.name.as_ref();
        if counters.insert(name, CounterId(row_id(i))).is_some() {
            errors.push(FslError::general(format!(
                "{scen}: duplicate counter `{name}`"
            )));
        }
        match &decl.kind {
            CounterKind::PacketEvent(selector) => {
                let who = format_args!("counter `{name}`");
                check_selector(scen, who, selector, filters, nodes, errors);
                if selector.from.as_ref() == selector.to.as_ref() {
                    errors.push(FslError::general(format!(
                        "{scen}: {who} has identical endpoints `{}`",
                        selector.from.as_ref()
                    )));
                }
            }
            CounterKind::NodeLocal { node } => {
                let node = node.as_ref();
                if !nodes.contains_key(node) {
                    errors.push(FslError::general(format!(
                        "{scen}: counter `{name}` lives on undefined node `{node}`"
                    )));
                }
            }
        }
    }

    if scenario.rules.is_empty() {
        errors.push(FslError::general(format!("{scen}: scenario has no rules")));
    }

    let check_counter = |name: &str, errors: &mut Vec<FslError>| {
        if !counters.contains_key(name) {
            errors.push(FslError::general(format!(
                "{scen}: reference to undefined counter `{name}`"
            )));
        }
    };

    for (i, rule) in scenario.rules.iter().enumerate() {
        rule.condition
            .for_each_counter(&mut |counter| check_counter(counter, errors));
        if rule.actions.is_empty() {
            errors.push(FslError::general(format!(
                "{scen}: rule {i} has no actions"
            )));
        }
        for action in &rule.actions {
            match action {
                Action::Counter { counter, .. } => check_counter(counter.as_ref(), errors),
                Action::Fault { on, fault } => {
                    check_selector(scen, "fault", on, filters, nodes, errors);
                    check_fault(scen, fault, errors);
                }
                Action::Fail { node } if !nodes.contains_key(node.as_ref()) => {
                    errors.push(FslError::general(format!(
                        "{scen}: FAIL references undefined node `{}`",
                        node.as_ref()
                    )));
                }
                Action::FlagError {
                    message: Some(message),
                } if message.as_ref().len() > MAX_WIRE_LEN => {
                    errors.push(FslError::general(format!(
                        "{scen}: FLAG_ERROR message of {} bytes exceeds the {MAX_WIRE_LEN}-byte limit",
                        message.as_ref().len()
                    )));
                }
                _ => {}
            }
        }
    }

    // ---- table rows: a term is one row however often it is used ----
    let mut terms = 0;
    for rule in &scenario.rules {
        rule.condition.for_each_term(&mut |_| terms += 1);
    }
    if terms > MAX_WIRE_LEN {
        let key = |o: &'p Operand<N>| match o {
            Operand::Counter(c) => Operand::Counter(c.as_ref()),
            Operand::Const(v) => Operand::Const(*v),
        };
        let mut distinct = HashSet::new();
        for rule in &scenario.rules {
            rule.condition.for_each_term(&mut |t| {
                distinct.insert((key(&t.lhs), t.op, key(&t.rhs)));
            });
        }
        terms = distinct.len();
    }
    too_many(errors, format_args!("terms in {scen}"), terms);
    let actions = scenario.rules.iter().map(|r| r.actions.len()).sum();
    too_many(
        errors,
        format_args!("counters in {scen}"),
        scenario.counters.len(),
    );
    too_many(
        errors,
        format_args!("rules in {scen}"),
        scenario.rules.len(),
    );
    too_many(errors, format_args!("actions in {scen}"), actions);
    counters
}

/// Checks that a selector's packet type and endpoints are defined; `who`
/// names the counter or fault that carries it.
fn check_selector<N: AsRef<str>>(
    scen: &str,
    who: impl std::fmt::Display,
    selector: &PacketSelector<N>,
    filters: &HashMap<&str, FilterId>,
    nodes: &HashMap<&str, NodeId>,
    errors: &mut Vec<FslError>,
) {
    let pkt = selector.pkt.as_ref();
    if !filters.contains_key(pkt) {
        errors.push(FslError::general(format!(
            "{scen}: {who} references undefined packet type `{pkt}`"
        )));
    }
    for node in [selector.from.as_ref(), selector.to.as_ref()] {
        if !nodes.contains_key(node) {
            errors.push(FslError::general(format!(
                "{scen}: {who} references undefined node `{node}`"
            )));
        }
    }
}

/// Checks a fault's own arguments.
fn check_fault(scen: &str, fault: &Fault, errors: &mut Vec<FslError>) {
    match fault {
        Fault::Modify(ModifyPattern::Set { len, .. }) if *len == 0 || *len > 8 => {
            errors.push(FslError::general(format!(
                "{scen}: MODIFY SET length {len} is outside the supported 1..=8 bytes"
            )));
        }
        // Checked first: the permutation test allocates `count` entries.
        Fault::Reorder { count, order }
            if *count as usize > MAX_WIRE_LEN || order.len() > MAX_WIRE_LEN =>
        {
            errors.push(FslError::general(format!(
                "{scen}: REORDER of {count} packets exceeds the {MAX_WIRE_LEN}-packet limit"
            )));
        }
        Fault::Reorder { count, order } => {
            let mut sorted: Vec<u32> = order.clone();
            sorted.sort_unstable();
            let expected: Vec<u32> = (0..*count).collect();
            if sorted != expected {
                errors.push(FslError::general(format!(
                    "{scen}: REORDER order {order:?} is not a permutation of 0..{count}"
                )));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn errs(src: &str) -> Vec<String> {
        match analyze(&parse(src).unwrap()) {
            Ok(()) => Vec::new(),
            Err(es) => es.into_iter().map(|e| e.to_string()).collect(),
        }
    }

    const PREAMBLE: &str = r#"
        FILTER_TABLE
        pkt: (12 2 0x9900)
        END
        NODE_TABLE
        a 00:00:00:00:00:01 10.0.0.1
        b 00:00:00:00:00:02 10.0.0.2
        END
    "#;

    #[test]
    fn valid_program_passes() {
        let src = format!(
            "{PREAMBLE}
            SCENARIO S
            C: (pkt, a, b, RECV)
            ((C = 1)) >> DROP(pkt, a, b, RECV);
            END"
        );
        assert!(errs(&src).is_empty(), "{:?}", errs(&src));
    }

    #[test]
    fn undefined_references_caught() {
        let src = format!(
            "{PREAMBLE}
            SCENARIO S
            C: (nopkt, a, nowhere, RECV)
            ((Ghost = 1)) >> DROP(pkt, a, b, RECV); FAIL(zombie);
            END"
        );
        let es = errs(&src);
        assert!(es
            .iter()
            .any(|e| e.contains("undefined packet type `nopkt`")));
        assert!(es.iter().any(|e| e.contains("undefined node `nowhere`")));
        assert!(es.iter().any(|e| e.contains("undefined counter `Ghost`")));
        assert!(es.iter().any(|e| e.contains("undefined node `zombie`")));
    }

    #[test]
    fn duplicates_caught() {
        let src = r#"
            FILTER_TABLE
            p: (0 1 0x1)
            p: (0 1 0x2)
            END
            NODE_TABLE
            a 00:00:00:00:00:01 10.0.0.1
            a 00:00:00:00:00:01 10.0.0.2
            END
            SCENARIO S
            C: (a)
            C: (a)
            ((C = 1)) >> STOP;
            END
        "#;
        let es = errs(src);
        assert!(es.iter().any(|e| e.contains("duplicate packet definition")));
        assert!(es.iter().any(|e| e.contains("duplicate node definition")));
        assert!(es.iter().any(|e| e.contains("duplicate node MAC")));
        assert!(es.iter().any(|e| e.contains("duplicate counter")));
    }

    #[test]
    fn tuple_width_checked() {
        let src = r#"
            FILTER_TABLE
            p: (0 1 0x1FF)
            q: (0 9 0x1)
            END
            NODE_TABLE
            a 00:00:00:00:00:01 10.0.0.1
            END
            SCENARIO S
            C: (a)
            ((C = 1)) >> STOP;
            END
        "#;
        let es = errs(src);
        assert!(es.iter().any(|e| e.contains("does not fit in 1 bytes")));
        assert!(es.iter().any(|e| e.contains("outside 1..=8")));
    }

    #[test]
    fn reorder_permutation_checked() {
        let src = format!(
            "{PREAMBLE}
            SCENARIO S
            C: (a)
            ((C = 1)) >> REORDER(pkt, a, b, SEND, 3, (0 0 2));
            END"
        );
        let es = errs(&src);
        assert!(es.iter().any(|e| e.contains("not a permutation")));
    }

    #[test]
    fn modify_set_len_checked() {
        let src = format!(
            "{PREAMBLE}
            SCENARIO S
            C: (pkt, a, b, RECV)
            ((C = 1)) >> MODIFY(pkt, a, b, SEND, (14 9 0xBEEF));
            END"
        );
        let es = errs(&src);
        assert!(
            es.iter()
                .any(|e| e.contains("MODIFY SET length 9 is outside")),
            "{es:?}"
        );
    }

    #[test]
    fn undeclared_var_caught() {
        let src = r#"
            FILTER_TABLE
            p: (0 2 Mystery)
            END
            NODE_TABLE
            a 00:00:00:00:00:01 10.0.0.1
            END
            SCENARIO S
            C: (a)
            ((C = 1)) >> STOP;
            END
        "#;
        assert!(errs(src)
            .iter()
            .any(|e| e.contains("undeclared VAR `Mystery`")));
    }

    #[test]
    fn empty_scenario_and_missing_scenario_caught() {
        assert!(errs("").iter().any(|e| e.contains("no SCENARIO")));
        let src = format!("{PREAMBLE} SCENARIO S END");
        assert!(errs(&src).iter().any(|e| e.contains("no rules")));
    }

    #[test]
    fn same_endpoint_counter_caught() {
        let src = format!(
            "{PREAMBLE}
            SCENARIO S
            C: (pkt, a, a, RECV)
            ((C = 1)) >> STOP;
            END"
        );
        assert!(errs(&src).iter().any(|e| e.contains("identical endpoints")));
    }
}
