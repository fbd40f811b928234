//! Property: the indexed classifier and the paper's linear scan are
//! observationally identical — same hit/miss verdict, same winning filter
//! id, same node attribution — for arbitrary filter tables and frames,
//! including runtime `VAR` patterns, masks, out-of-range offsets, and
//! deliberately bogus compiler discriminant metadata. Only the *cost*
//! (rules visited) may differ, which is the entire point of the index.

use std::collections::HashMap;

use proptest::prelude::*;
use virtualwire::{Classifier, ClassifierMode, ClassifierScratch};
use vw_fsl::{CompiledFilter, CompiledNode, FilterTuple, PatternValue, TableSet};
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};

const VAR_NAMES: [&str; 3] = ["A", "B", "C"];

/// Deterministic bit mixer so one `u64` seed word can fan out into a whole
/// filter definition.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Builds one filter tuple from a seed. Values are drawn from a tiny
/// alphabet (bytes 0..4) so random frames actually match filters often
/// enough to exercise the hit path, not just the miss path.
fn tuple_from(seed: u64) -> FilterTuple {
    let r = mix(seed);
    let offset = (r % 48) as u32;
    let len = 1 + ((r >> 8) % 2) as u32;
    let mask = match (r >> 16) & 3 {
        0 => Some(match (r >> 24) & 3 {
            0 => 0x01,
            1 => 0x03,
            2 => 0x0103,
            _ => 0xFFFF,
        }),
        _ => None,
    };
    let pattern = if (r >> 18) & 3 == 0 {
        PatternValue::Var(VAR_NAMES[((r >> 20) % 3) as usize].to_string())
    } else {
        let hi = (r >> 32) & 3;
        let lo = (r >> 40) & 3;
        PatternValue::Literal(if len == 1 { lo } else { hi << 8 | lo })
    };
    FilterTuple {
        offset,
        len,
        mask,
        pattern,
    }
}

/// Builds an arbitrary classification-only table set from seed words: one
/// filter per word, 1–3 tuples each, and a possibly *bogus* discriminant
/// (out of range, or pointing at a `VAR` tuple) that the index must
/// degrade around rather than mis-dispatch.
fn tables_from(words: &[u64]) -> TableSet {
    let filters = words
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let ntuples = 1 + (w % 3) as usize;
            let tuples: Vec<FilterTuple> = (0..ntuples)
                .map(|t| tuple_from(w ^ (t as u64) << 13))
                .collect();
            let discriminant = match (mix(w) >> 50) & 3 {
                0 => None,
                1 => Some(((mix(w) >> 52) % 7) as u16), // often invalid
                _ => CompiledFilter::compute_discriminant(&tuples),
            };
            CompiledFilter {
                name: format!("f{i}").as_str().into(),
                tuples,
                discriminant,
            }
        })
        .collect();
    vw_fsl::Tables {
        scenario: "EQ".into(),
        timeout_ns: None,
        vars: VAR_NAMES.iter().map(|&v| v.into()).collect(),
        filters,
        nodes: vec![
            CompiledNode {
                name: "node1".into(),
                mac: MacAddr::from_index(1),
                ip: std::net::Ipv4Addr::new(10, 0, 0, 1),
            },
            CompiledNode {
                name: "node2".into(),
                mac: MacAddr::from_index(2),
                ip: std::net::Ipv4Addr::new(10, 0, 0, 2),
            },
        ],
        counters: Vec::new(),
        terms: Vec::new(),
        conditions: Vec::new(),
        actions: Vec::new(),
    }
    .into()
}

fn frame_from(mac_sel: u8, payload: &[u8]) -> Frame {
    let pick = |s: u8| match s % 3 {
        0 => MacAddr::from_index(1),
        1 => MacAddr::from_index(2),
        _ => MacAddr::from_index(9), // not in the node table
    };
    EthernetBuilder::new()
        .src(pick(mac_sel))
        .dst(pick(mac_sel / 3))
        .ethertype(EtherType(0x0800))
        // Same tiny alphabet as the filter literals.
        .payload(&payload.iter().map(|b| b % 4).collect::<Vec<u8>>())
        .build()
}

/// Deterministic sweep proving the generators reach the interesting
/// regions: hits as well as misses, and at least some classifications
/// where the index visits strictly fewer rules than the linear scan.
/// Without this, the property above could pass vacuously on misses alone.
#[test]
fn generators_cover_hits_and_index_savings() {
    let mut hits = 0u32;
    let mut misses = 0u32;
    let mut strictly_cheaper = 0u32;
    for seed in 0..400u64 {
        let words: Vec<u64> = (0..20).map(|i| mix(seed * 131 + i)).collect();
        let tables = tables_from(&words);
        let payload: Vec<u8> = (0..40).map(|i| (mix(seed ^ i << 7) & 0xFF) as u8).collect();
        let frame = frame_from((seed % 9) as u8, &payload);
        let vars = HashMap::from([("A".to_string(), seed % 4)]);

        let linear = Classifier::build(ClassifierMode::Linear, &tables);
        let indexed = Classifier::build(ClassifierMode::Indexed, &tables);
        let mut scratch = ClassifierScratch::default();
        match (
            linear.classify(&tables, &vars, &frame, &mut scratch),
            indexed.classify(&tables, &vars, &frame, &mut scratch),
        ) {
            (Ok(l), Ok(i)) => {
                assert_eq!(l.filter, i.filter);
                hits += 1;
                strictly_cheaper += u32::from(i.rules_scanned < l.rules_scanned);
            }
            (Err(_), Err(_)) => misses += 1,
            (l, i) => panic!("verdicts diverge: linear={l:?} indexed={i:?}"),
        }
    }
    assert!(hits >= 20, "only {hits} hits in 400 runs");
    assert!(misses >= 20, "only {misses} misses in 400 runs");
    assert!(
        strictly_cheaper >= 10,
        "index never beat the scan ({strictly_cheaper} of {hits} hits)"
    );
}

proptest! {
    #[test]
    fn indexed_and_linear_agree(
        words in proptest::collection::vec(any::<u64>(), 1..40),
        payload in proptest::collection::vec(any::<u8>(), 0..50),
        mac_sel in any::<u8>(),
        var_bits in any::<u8>(),
        var_vals in any::<u64>(),
    ) {
        let tables = tables_from(&words);
        let frame = frame_from(mac_sel, &payload);
        let mut vars = HashMap::new();
        for (i, name) in VAR_NAMES.iter().enumerate() {
            if var_bits >> i & 1 == 1 {
                vars.insert(name.to_string(), var_vals >> (8 * i) & 3);
            }
        }

        let linear = Classifier::build(ClassifierMode::Linear, &tables);
        let indexed = Classifier::build(ClassifierMode::Indexed, &tables);
        let mut scratch = ClassifierScratch::default();
        let lin = linear.classify(&tables, &vars, &frame, &mut scratch);
        let idx = indexed.classify(&tables, &vars, &frame, &mut scratch);

        match (lin, idx) {
            (Ok(l), Ok(i)) => {
                prop_assert_eq!(l.filter, i.filter, "winning filter id must agree");
                prop_assert_eq!(l.from, i.from);
                prop_assert_eq!(l.to, i.to);
                // The index must never visit *more* rules than the scan
                // it replaces.
                prop_assert!(i.rules_scanned <= l.rules_scanned);
            }
            (Err(_), Err(_)) => {} // both miss; scan counts legitimately differ
            (l, i) => prop_assert!(false, "verdicts diverge: linear={l:?} indexed={i:?}"),
        }
    }
}
