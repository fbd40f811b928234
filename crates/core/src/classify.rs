//! Packet classification against the filter and node tables.
//!
//! Two classifier tiers share identical matching semantics:
//!
//! * [`ClassifierMode::Linear`] is the paper-faithful linear scan in table
//!   order — "the priority of the filter rules is in descending order of
//!   occurrence. If a match is found with one rule then there is no need
//!   to match the subsequent rules" (Section 6.1). The scan cost is what
//!   makes the paper's Figure 8 latency curves grow linearly with the
//!   number of packet definitions; the engine charges simulated CPU time
//!   per rule visited for exactly that reason, and the Figure 8 experiment
//!   pins this mode.
//! * [`ClassifierMode::Indexed`] (the default elsewhere) compiles the
//!   filter table into a dispatch index: filters sharing a discriminant
//!   key `(offset, len, mask)` are bucketed, and a hash lookup on the
//!   frame's masked bytes at that key yields the candidate filters.
//!   Filters whose every tuple is a runtime `VAR` pattern cannot be keyed
//!   and fall back to an ordered *residual* scan. Candidates from all
//!   buckets are merged with the residuals in ascending filter-id order
//!   and fully verified, so first-match-wins priority is preserved
//!   exactly; only the number of rules *visited* changes.

use std::collections::HashMap;

use vw_fsl::{CompiledFilter, FilterId, NodeId, PatternValue, TableSet};
use vw_packet::Frame;

/// The outcome of classifying one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classification {
    /// The first matching packet definition.
    pub filter: FilterId,
    /// The sending node, if the source MAC is in the node table.
    pub from: Option<NodeId>,
    /// The receiving node, if the destination MAC is in the node table.
    pub to: Option<NodeId>,
    /// How many filter-table rules were visited (for cost accounting).
    pub rules_scanned: u32,
}

/// Matches a frame against the filter table, first match wins.
///
/// `vars` supplies values for `VAR` patterns; a tuple whose variable is
/// unbound never matches. Returns the classification, or the number of
/// rules scanned if nothing matched.
pub fn classify(
    tables: &TableSet,
    vars: &HashMap<String, u64>,
    frame: &Frame,
) -> Result<Classification, u32> {
    let mut scanned = 0u32;
    for (i, filter) in tables.filters.iter().enumerate() {
        scanned += 1;
        if filter
            .tuples
            .iter()
            .all(|tuple| tuple_matches(tuple, vars, frame))
        {
            let from = lookup_node(tables, frame, true);
            let to = lookup_node(tables, frame, false);
            return Ok(Classification {
                filter: FilterId(i as u16),
                from,
                to,
                rules_scanned: scanned,
            });
        }
    }
    Err(scanned)
}

/// Which classification strategy an engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClassifierMode {
    /// The paper's linear scan. Figure 8 and the calibrated
    /// [`CostModel`](crate::CostModel) depend on its per-rule cost.
    Linear,
    /// Discriminant-bucketed dispatch index with an ordered residual scan
    /// for unindexable filters. Same verdicts, sublinear rule visits.
    #[default]
    Indexed,
}

/// A classifier compiled for one [`TableSet`], in either mode.
#[derive(Debug, Clone)]
pub enum Classifier {
    /// Scan the whole table in priority order.
    Linear,
    /// Dispatch through a prebuilt index.
    Indexed(ClassifierIndex),
}

impl Classifier {
    /// Builds a classifier for `tables` in the requested mode.
    pub fn build(mode: ClassifierMode, tables: &TableSet) -> Self {
        match mode {
            ClassifierMode::Linear => Classifier::Linear,
            ClassifierMode::Indexed => Classifier::Indexed(ClassifierIndex::build(tables)),
        }
    }

    /// Classifies one frame; identical verdicts in both modes.
    ///
    /// `scratch` holds reusable buffers and, after the call, the
    /// per-classification scan statistics. On a miss the error carries the
    /// number of rules visited, exactly like [`classify`].
    pub fn classify(
        &self,
        tables: &TableSet,
        vars: &HashMap<String, u64>,
        frame: &Frame,
        scratch: &mut ClassifierScratch,
    ) -> Result<Classification, u32> {
        match self {
            Classifier::Linear => {
                let result = classify(tables, vars, frame);
                let scanned = match &result {
                    Ok(c) => c.rules_scanned,
                    Err(scanned) => *scanned,
                };
                scratch.last = ScanStats {
                    rules_scanned: scanned,
                    matched_via_index: false,
                    residual_visited: scanned,
                };
                result
            }
            Classifier::Indexed(index) => index.classify(tables, vars, frame, scratch),
        }
    }
}

/// One discriminant key group: all filters whose discriminant tuple reads
/// the same `(offset, len, mask)` window, keyed by their masked literal.
#[derive(Debug, Clone)]
struct Bucket {
    offset: u32,
    len: u32,
    mask: Option<u64>,
    /// Masked literal value → filter ids, ascending. Sorted by key and
    /// binary-searched: buckets hold a handful of distinct literals, and
    /// a probe per frame must not pay a sip-hash per bucket.
    candidates: Vec<(u64, Vec<u16>)>,
}

/// The compiled dispatch index behind [`ClassifierMode::Indexed`].
#[derive(Debug, Clone, Default)]
pub struct ClassifierIndex {
    buckets: Vec<Bucket>,
    /// Filters that cannot be keyed (every tuple is a `VAR` pattern, or
    /// the filter has no tuples), in priority order.
    residual: Vec<u16>,
}

impl ClassifierIndex {
    /// Compiles the filter table into the dispatch index, using the
    /// compiler-emitted discriminant metadata. A filter whose metadata is
    /// missing or does not reference an in-range literal tuple degrades to
    /// the residual scan — slower, never wrong.
    pub fn build(tables: &TableSet) -> Self {
        let mut index = ClassifierIndex::default();
        for (i, filter) in tables.filters.iter().enumerate() {
            let discriminant = filter
                .discriminant
                .or_else(|| CompiledFilter::compute_discriminant(&filter.tuples));
            let Some(tuple) = discriminant
                .and_then(|d| filter.tuples.get(d as usize))
                .filter(|t| matches!(t.pattern, PatternValue::Literal(_)))
            else {
                index.residual.push(i as u16);
                continue;
            };
            let PatternValue::Literal(literal) = tuple.pattern else {
                unreachable!("filtered to literals above");
            };
            let key_value = literal & tuple.mask.unwrap_or(u64::MAX);
            let bucket =
                match index.buckets.iter_mut().find(|b| {
                    b.offset == tuple.offset && b.len == tuple.len && b.mask == tuple.mask
                }) {
                    Some(bucket) => bucket,
                    None => {
                        index.buckets.push(Bucket {
                            offset: tuple.offset,
                            len: tuple.len,
                            mask: tuple.mask,
                            candidates: Vec::new(),
                        });
                        index.buckets.last_mut().expect("just pushed")
                    }
                };
            // Filters are visited in ascending id order, so each candidate
            // list stays sorted by construction.
            match bucket
                .candidates
                .binary_search_by_key(&key_value, |(k, _)| *k)
            {
                Ok(pos) => bucket.candidates[pos].1.push(i as u16),
                Err(pos) => bucket.candidates.insert(pos, (key_value, vec![i as u16])),
            }
        }
        index
    }

    fn classify(
        &self,
        tables: &TableSet,
        vars: &HashMap<String, u64>,
        frame: &Frame,
        scratch: &mut ClassifierScratch,
    ) -> Result<Classification, u32> {
        // Gather candidates: tagged `(filter_id << 1) | from_index`, so a
        // plain sort restores priority order while remembering the source
        // (a filter appears in exactly one source, so ids never collide).
        scratch.candidates.clear();
        for bucket in &self.buckets {
            let Some(bytes) = frame.read_at(bucket.offset as usize, bucket.len as usize) else {
                continue;
            };
            let mut actual = 0u64;
            for b in bytes {
                actual = actual << 8 | u64::from(*b);
            }
            let key = actual & bucket.mask.unwrap_or(u64::MAX);
            if let Ok(pos) = bucket.candidates.binary_search_by_key(&key, |(k, _)| *k) {
                scratch.candidates.extend(
                    bucket.candidates[pos]
                        .1
                        .iter()
                        .map(|&id| u32::from(id) << 1 | 1),
                );
            }
        }
        scratch
            .candidates
            .extend(self.residual.iter().map(|&id| u32::from(id) << 1));
        scratch.candidates.sort_unstable();

        let mut scanned = 0u32;
        let mut residual_visited = 0u32;
        for &tagged in &scratch.candidates {
            let via_index = tagged & 1 == 1;
            let i = (tagged >> 1) as usize;
            scanned += 1;
            residual_visited += u32::from(!via_index);
            let filter = &tables.filters[i];
            if filter
                .tuples
                .iter()
                .all(|tuple| tuple_matches(tuple, vars, frame))
            {
                scratch.last = ScanStats {
                    rules_scanned: scanned,
                    matched_via_index: via_index,
                    residual_visited,
                };
                return Ok(Classification {
                    filter: FilterId(i as u16),
                    from: lookup_node(tables, frame, true),
                    to: lookup_node(tables, frame, false),
                    rules_scanned: scanned,
                });
            }
        }
        scratch.last = ScanStats {
            rules_scanned: scanned,
            matched_via_index: false,
            residual_visited,
        };
        Err(scanned)
    }
}

/// Per-classification scan accounting, filled in by
/// [`Classifier::classify`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Filter rules visited (candidates verified, in Indexed mode).
    pub rules_scanned: u32,
    /// Whether the match was found through an index bucket (always `false`
    /// in Linear mode and on a miss).
    pub matched_via_index: bool,
    /// How many of the visited rules came from the residual scan (in
    /// Linear mode, every visited rule).
    pub residual_visited: u32,
}

/// Reusable classification buffers — one per engine, so the hot path
/// allocates nothing per packet.
#[derive(Debug, Clone, Default)]
pub struct ClassifierScratch {
    candidates: Vec<u32>,
    /// Scan statistics of the most recent classification.
    pub last: ScanStats,
}

fn lookup_node(tables: &TableSet, frame: &Frame, src: bool) -> Option<NodeId> {
    let mac = if src { frame.src() } else { frame.dst() };
    tables
        .nodes
        .iter()
        .position(|n| n.mac == mac)
        .map(|i| NodeId(i as u16))
}

fn tuple_matches(tuple: &vw_fsl::FilterTuple, vars: &HashMap<String, u64>, frame: &Frame) -> bool {
    let Some(bytes) = frame.read_at(tuple.offset as usize, tuple.len as usize) else {
        return false;
    };
    let mut actual = 0u64;
    for b in bytes {
        actual = actual << 8 | u64::from(*b);
    }
    let expected = match &tuple.pattern {
        PatternValue::Literal(v) => *v,
        PatternValue::Var(name) => match vars.get(name) {
            Some(v) => *v,
            None => return false, // unbound variable never matches
        },
    };
    match tuple.mask {
        Some(mask) => actual & mask == expected & mask,
        None => actual == expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use vw_packet::{MacAddr, TcpBuilder, TcpFlags};

    fn tables() -> TableSet {
        let src = r#"
            VAR SeqNo;
            FILTER_TABLE
            TCP_synack: (34 2 0x4000), (36 2 0x6000), (47 1 0x12 0x12)
            TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
            TCP_seq: (38 4 SeqNo)
            END
            NODE_TABLE
            node1 02:00:00:00:00:01 192.168.1.1
            node2 02:00:00:00:00:02 192.168.1.2
            END
            SCENARIO S
            C: (TCP_data, node1, node2, SEND)
            ((C = 1)) >> STOP;
            END
        "#;
        vw_fsl::compile(&vw_fsl::parse(src).unwrap())
            .unwrap()
            .remove(0)
    }

    fn data_frame(seq: u32) -> Frame {
        TcpBuilder::new()
            .src_mac(MacAddr::from_index(1))
            .dst_mac(MacAddr::from_index(2))
            .src_ip(Ipv4Addr::new(192, 168, 1, 1))
            .dst_ip(Ipv4Addr::new(192, 168, 1, 2))
            .src_port(0x6000)
            .dst_port(0x4000)
            .seq(seq)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .payload(b"x")
            .build()
    }

    fn synack_frame() -> Frame {
        TcpBuilder::new()
            .src_mac(MacAddr::from_index(2))
            .dst_mac(MacAddr::from_index(1))
            .src_port(0x4000)
            .dst_port(0x6000)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .build()
    }

    #[test]
    fn first_match_wins_in_table_order() {
        let t = tables();
        let vars = HashMap::new();
        let c = classify(&t, &vars, &data_frame(7)).unwrap();
        assert_eq!(c.filter, t.filter_by_name("TCP_data").unwrap());
        assert_eq!(
            c.rules_scanned, 2,
            "synack scanned first, then data matched"
        );
    }

    #[test]
    fn synack_matches_first_rule() {
        let t = tables();
        let c = classify(&t, &HashMap::new(), &synack_frame()).unwrap();
        assert_eq!(c.filter, t.filter_by_name("TCP_synack").unwrap());
        assert_eq!(c.rules_scanned, 1);
    }

    #[test]
    fn node_lookup_by_mac() {
        let t = tables();
        let c = classify(&t, &HashMap::new(), &data_frame(1)).unwrap();
        assert_eq!(c.from, t.node_by_name("node1"));
        assert_eq!(c.to, t.node_by_name("node2"));
        // A frame from an unknown MAC still classifies, with no node.
        let mut alien = data_frame(1);
        alien.set_src(MacAddr::from_index(99));
        let c = classify(&t, &HashMap::new(), &alien).unwrap();
        assert_eq!(c.from, None);
    }

    #[test]
    fn unmatched_frames_report_scan_depth() {
        let t = tables();
        // A SYN-only frame matches neither synack (0x12/0x12) nor data
        // (0x10/0x10), and TCP_seq needs a bound variable.
        let syn = TcpBuilder::new()
            .src_port(0x6000)
            .dst_port(0x4000)
            .flags(TcpFlags::SYN)
            .build();
        assert_eq!(classify(&t, &HashMap::new(), &syn), Err(3));
    }

    #[test]
    fn var_patterns_match_only_when_bound() {
        let t = tables();
        let frame = {
            // Ports that match neither fixed rule, so TCP_seq is reached.
            TcpBuilder::new()
                .src_port(1)
                .dst_port(2)
                .seq(0xABCD_EF01)
                .flags(TcpFlags::ACK)
                .build()
        };
        assert!(classify(&t, &HashMap::new(), &frame).is_err());
        let mut vars = HashMap::new();
        vars.insert("SeqNo".to_string(), 0xABCD_EF01u64);
        let c = classify(&t, &vars, &frame).unwrap();
        assert_eq!(c.filter, t.filter_by_name("TCP_seq").unwrap());
        vars.insert("SeqNo".to_string(), 0xABCD_EF02u64);
        assert!(classify(&t, &vars, &frame).is_err());
    }

    #[test]
    fn masked_matching_ignores_other_bits() {
        let t = tables();
        // PSH|ACK (0x18) matches the (47 1 0x10 0x10) tuple because only
        // the ACK bit is compared.
        let c = classify(&t, &HashMap::new(), &data_frame(0)).unwrap();
        assert_eq!(c.filter, t.filter_by_name("TCP_data").unwrap());
    }

    #[test]
    fn short_frames_never_match() {
        let t = tables();
        let tiny = vw_packet::EthernetBuilder::new().build();
        assert!(classify(&t, &HashMap::new(), &tiny).is_err());
    }
}
