//! Fault analysis engine integration tests: the merged distributed
//! timeline against real multi-node runs, the invariant checker on clean
//! and doctored records, and campaign-wide analytics end to end.

use std::sync::OnceLock;

use proptest::prelude::*;
use virtualwire::{
    compile_script, EngineConfig, ObsActionKind, ObsEvent, ObsKind, ObsLevel, Report, Runner,
};
use vw_analysis::{check_invariants, CampaignReport, DistributedTimeline};
use vw_campaign::{run_campaign, Axis, CampaignSpec, ExecConfig, RunConfig};
use vw_fsl::{NodeId, TableSet};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, LinkConfig, SimDuration, World};
use vw_packet::EtherType;

/// The Figure 6 pattern: the `Rcvd` counter is homed on node2 while the
/// action it triggers executes on node3, so the trigger must cross the
/// control plane — giving the merge a real happens-before edge.
const REMOTE_FAIL: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    node3 02:00:00:00:00:03 192.168.1.4
    END
    SCENARIO RemoteFail
    Rcvd: (udp_data, node1, node2, RECV)
    (TRUE) >> ENABLE_CNTR(Rcvd);
    ((Rcvd = 3)) >> FAIL(node3);
    ((Rcvd = 8)) >> STOP;
    END
"#;

/// The PR-2 documented scenario whose causal chain is pinned below.
const DROP_AFTER_THREE: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
    SCENARIO DropAfterThree
    Sent: (udp_data, node1, node2, SEND)
    (TRUE) >> ENABLE_CNTR(Sent);
    ((Sent = 3)) >> DROP(udp_data, node1, node2, SEND); FLAG_ERR "third packet dropped";
    ((Sent = 6)) >> STOP;
    END
"#;

/// Runs `script` with a full flight recorder on every engine and a UDP
/// flood from its first to its second node.
fn run_full(script: &str, seed: u64, datagrams: u64) -> (Report, TableSet) {
    let tables = compile_script(script).expect("script compiles");
    let mut world = World::new(seed);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 8);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(
        &mut world,
        tables.clone(),
        EngineConfig {
            obs: ObsLevel::Full,
            ..EngineConfig::default()
        },
    );
    assert!(runner.settle(&mut world), "control plane must settle");
    world.add_protocol(
        nodes[1],
        Binding::EtherType(EtherType::IPV4),
        Box::new(UdpSink::new(0x6363)),
    );
    let flooder = UdpFlooder::new(
        world.host_mac(nodes[1]),
        world.host_ip(nodes[1]),
        0x6363,
        9000,
        1_000_000,
        200,
        datagrams * 200,
    );
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    let report = runner.run(&mut world, SimDuration::from_secs(1));
    (report, tables)
}

/// Position of the first entry matching `pred`, or a panic naming `what`.
fn position(
    timeline: &DistributedTimeline,
    what: &str,
    pred: impl Fn(NodeId, &ObsKind) -> bool,
) -> usize {
    timeline
        .events()
        .position(|e| pred(e.node, &e.kind))
        .unwrap_or_else(|| panic!("no {what} in timeline"))
}

#[test]
fn merged_timeline_orders_the_cross_node_cascade() {
    let (report, tables) = run_full(REMOTE_FAIL, 2, 10);
    assert!(report.passed(), "report: {report}");
    let timeline = DistributedTimeline::from_report(&report);
    let node2 = tables.node_by_name("node2").unwrap();
    let node3 = tables.node_by_name("node3").unwrap();

    // The documented cross-node chain, in merge order: node2's counter
    // hits 3 and flips the term, node2 sends the TERM_STATUS, node3
    // receives it, flips its copy, fires the condition, and FAILs.
    let flip2 = position(&timeline, "node2 term flip", |n, e| {
        n == node2 && matches!(e, ObsKind::TermFlipped { status: true, .. })
    });
    let sent = position(&timeline, "node2 control send", |n, e| {
        n == node2 && matches!(e, ObsKind::ControlSent { peer, .. } if *peer == node3)
    });
    let delivered = position(&timeline, "node3 delivery", |n, e| {
        n == node3 && matches!(e, ObsKind::ControlDelivered { peer, .. } if *peer == node2)
    });
    let flip3 = position(&timeline, "node3 term flip", |n, e| {
        n == node3 && matches!(e, ObsKind::TermFlipped { status: true, .. })
    });
    let fired = position(&timeline, "node3 condition", |n, e| {
        n == node3 && matches!(e, ObsKind::ConditionFired { .. })
    });
    let failed = position(&timeline, "node3 FAIL", |n, e| {
        n == node3
            && matches!(
                e,
                ObsKind::ActionTriggered {
                    kind: ObsActionKind::Fail,
                    ..
                }
            )
    });
    assert!(
        flip2 < sent && sent < delivered && delivered < flip3 && flip3 < fired && fired < failed,
        "cross-node order broken: flip2={flip2} sent={sent} delivered={delivered} \
         flip3={flip3} fired={fired} failed={failed}\n{}",
        timeline.render(&report.symbols)
    );
}

#[test]
fn golden_chain_reproduced_from_the_merged_timeline() {
    let (report, _tables) = run_full(DROP_AFTER_THREE, 7, 20);
    assert_eq!(report.errors.len(), 1, "report: {report}");
    let error = &report.errors[0];
    let engine_chain = report.explain(error).expect("Full-level run explains");

    // The same chain, reconstructed from the *merged* timeline rather
    // than the per-engine log: identical events, identical labels.
    let timeline = DistributedTimeline::from_report(&report);
    let merged_chain = timeline.chain(engine_chain.node, engine_chain.frame_seq);
    assert_eq!(
        merged_chain.kind_labels(),
        vec![
            "classified",
            "counter",
            "term",
            "condition",
            "action",
            "action"
        ],
        "chain: {}",
        merged_chain.render(&report.symbols)
    );
    assert_eq!(merged_chain.events, engine_chain.events);
    let kinds: Vec<ObsActionKind> = merged_chain
        .events
        .iter()
        .filter_map(|e| match e.kind {
            ObsKind::ActionTriggered { kind, .. } => Some(kind),
            _ => None,
        })
        .collect();
    assert_eq!(kinds, vec![ObsActionKind::FlagErr, ObsActionKind::Drop]);
}

#[test]
fn builtin_invariants_hold_on_recorded_scenarios() {
    for (script, seed, datagrams) in [(REMOTE_FAIL, 2, 10), (DROP_AFTER_THREE, 7, 20)] {
        let (report, tables) = run_full(script, seed, datagrams);
        let violations = check_invariants(&DistributedTimeline::from_report(&report), &tables);
        assert!(
            violations.is_empty(),
            "clean {} run violated: {:?}",
            report.symbols.scenario,
            violations
        );
    }
}

#[test]
fn erasing_deliveries_orphans_the_remote_flip() {
    let (report, tables) = run_full(REMOTE_FAIL, 2, 10);
    // Doctor the record: drop every control-plane delivery, leaving
    // node3's remote TermFlipped without the message that justified it.
    let doctored: Vec<ObsEvent> = report
        .events
        .iter()
        .filter(|e| !matches!(e.kind, ObsKind::ControlDelivered { .. }))
        .cloned()
        .collect();
    let timeline = DistributedTimeline::from_events(&doctored);
    let violations = check_invariants(&timeline, &tables);
    assert!(
        violations
            .iter()
            .any(|v| v.invariant == "remote-term-delivery"),
        "expected an orphaned remote flip, got: {violations:?}"
    );
    // The violation carries the causal slice the analyst needs.
    let v = violations
        .iter()
        .find(|v| v.invariant == "remote-term-delivery")
        .unwrap();
    assert!(
        v.slice
            .iter()
            .any(|e| matches!(e.kind, ObsKind::TermFlipped { .. })),
        "slice must contain the orphan flip: {v:?}"
    );
}

/// Events of a REMOTE_FAIL run, computed once and shared by the proptest
/// cases below (the run itself is deterministic).
fn recorded_events() -> &'static [ObsEvent] {
    static EVENTS: OnceLock<Vec<ObsEvent>> = OnceLock::new();
    EVENTS.get_or_init(|| run_full(REMOTE_FAIL, 2, 10).0.events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The merge is a pure function of the event *set*: any permutation
    /// of the recorded stream yields the identical timeline.
    #[test]
    fn merge_is_deterministic_under_permutation(
        from in proptest::collection::vec(any::<usize>(), 1..64),
        to in proptest::collection::vec(any::<usize>(), 1..64),
    ) {
        let events = recorded_events();
        let reference = DistributedTimeline::from_events(events);
        let mut shuffled = events.to_vec();
        let len = shuffled.len();
        for (&a, &b) in from.iter().zip(&to) {
            shuffled.swap(a % len, b % len);
        }
        let merged = DistributedTimeline::from_events(&shuffled);
        let reference_events: Vec<&ObsEvent> = reference.events().collect();
        let merged_events: Vec<&ObsEvent> = merged.events().collect();
        prop_assert_eq!(reference_events, merged_events);
    }

    /// Whatever the input order, each node's events appear in its local
    /// causal order: frame_seq never decreases within a node.
    #[test]
    fn merge_respects_local_frame_order(
        from in proptest::collection::vec(any::<usize>(), 1..64),
        to in proptest::collection::vec(any::<usize>(), 1..64),
    ) {
        let events = recorded_events();
        let mut shuffled = events.to_vec();
        let len = shuffled.len();
        for (&a, &b) in from.iter().zip(&to) {
            shuffled.swap(a % len, b % len);
        }
        let merged = DistributedTimeline::from_events(&shuffled);
        for &node in merged.nodes() {
            let seqs: Vec<u64> = merged
                .events()
                .filter(|e| e.node == node)
                .map(|e| e.frame_seq)
                .collect();
            prop_assert!(
                seqs.windows(2).all(|w| w[0] <= w[1]),
                "node {:?} local order broken: {:?}",
                node,
                seqs
            );
        }
    }
}

// ----------------------------------------------------------------------
// Campaign analytics
// ----------------------------------------------------------------------

const SWEEP_SCRIPT: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
    SCENARIO Sweep 500msec
    Sent: (udp_data, node1, node2, SEND)
    (TRUE) >> ENABLE_CNTR(Sent);
    ((Sent = 5)) >> DROP(udp_data, node1, node2, SEND);
    ((Sent = 30)) >> STOP;
    END
"#;

fn sweep_setup(
    tables: &TableSet,
    run: &RunConfig,
) -> Result<(World, Runner), virtualwire::ScriptError> {
    let mut world = World::with_impairment(run.seed, run.impairment);
    let nodes = Runner::create_hosts(&mut world, tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::try_install(
        &mut world,
        tables.clone(),
        EngineConfig {
            obs: ObsLevel::Faults,
            ..EngineConfig::default()
        },
    )?;
    runner.settle(&mut world);
    world.add_protocol(
        nodes[1],
        Binding::EtherType(EtherType::IPV4),
        Box::new(UdpSink::new(0x6363)),
    );
    let flooder = UdpFlooder::new(
        world.host_mac(nodes[1]),
        world.host_ip(nodes[1]),
        0x6363,
        9000,
        2_000_000,
        200,
        30 * 200,
    );
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    Ok((world, runner))
}

#[test]
fn analyzer_aggregate_is_schedule_independent_and_diff_flags_regressions() {
    let spec = CampaignSpec::new("analysis", vw_fsl::parse(SWEEP_SCRIPT).unwrap())
        .axis(Axis::threshold_at("Sent", 0, vec![5, 40]))
        .axis(Axis::seeds(vec![1, 2]));
    assert_eq!(spec.total(), 4);

    let solo = run_campaign(&spec, &sweep_setup, &ExecConfig::threads(1)).unwrap();
    let report = CampaignReport::of(&solo);
    let pooled = run_campaign(&spec, &sweep_setup, &ExecConfig::threads(4)).unwrap();
    let pooled_report = CampaignReport::of(&pooled);
    assert_eq!(
        report.to_jsonl(),
        pooled_report.to_jsonl(),
        "aggregate must not depend on worker scheduling"
    );

    // Exactly the instances whose threshold is reachable inject a drop.
    assert_eq!(report.instances, 4);
    assert_eq!(report.counter("drops"), Some(2));
    let breakdown = report
        .breakdown("threshold.Sent#0")
        .expect("axis breakdown");
    assert_eq!(breakdown.groups.len(), 2);

    // A doubled fault count against the healthy baseline trips the gate;
    // an identical report does not.
    assert!(report.diff(&report, 0.10).is_empty());
    let mut degraded = report.clone();
    for (name, v) in &mut degraded.counters {
        if name == "drops" {
            *v *= 2;
        }
    }
    let regressions = degraded.diff(&report, 0.10);
    assert!(
        regressions.iter().any(|r| r.metric == "drops"),
        "doubled drops must be flagged: {regressions:?}"
    );
}
