//! Fault analysis engine integration tests: a run's timeline
//! (`Report::events`) on real multi-node runs, the invariant checker on
//! clean and doctored records, and campaign-wide analytics end to end.

use virtualwire::{
    action_label, compile_script, EngineConfig, ObsEvent, ObsKind, ObsLevel, Report, Runner,
};
use vw_analysis::{check_invariants, CampaignReport};
use vw_campaign::{run_campaign, Axis, CampaignSpec, ExecConfig, RunConfig};
use vw_fsl::{ActionId, NodeId, TableSet};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, ControlImpairment, LinkConfig, SimDuration, World};
use vw_packet::EtherType;
use vw_rether::{RetherConfig, RetherNode};
use vw_tcpstack::{Endpoint, TcpConfig, TcpStack};

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

/// Three nodes, each peer counting what it receives, a counter compared
/// across nodes, gated faults at both ends and a `STOP`: every node's
/// engine records cascades that cross the control plane.
const SHARED: &str = r#"
    FILTER_TABLE
    udp_data: (36 2 0x6363), (23 1 0x11)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    node3 02:00:00:00:00:03 192.168.1.4
    END
    SCENARIO Shared 200msec
    Sent: (udp_data, node1, node2, SEND)
    Rcvd: (udp_data, node1, node2, RECV)
    Third: (udp_data, node1, node3, RECV)
    (TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd); ENABLE_CNTR(Third);
    ((Rcvd > 4) && (Rcvd < 7)) >> DROP(udp_data, node1, node2, RECV);
    ((Third = 3)) >> DROP(udp_data, node1, node3, RECV);
    ((Sent = 10)) >> DUP(udp_data, node1, node2, SEND);
    ((Sent > 12) && (Rcvd < Sent)) >> FAIL(node3);
    ((Sent = 30)) >> STOP;
    END
"#;

/// Section 6.2's ring: four Rether nodes crash node3 and rebuild the ring.
const RETHER_FAILOVER: &str = include_str!("../scripts/rether_failover.fsl");

fn full() -> EngineConfig {
    EngineConfig {
        obs: ObsLevel::Full,
        ..EngineConfig::default()
    }
}

/// Runs `script` with a full flight recorder on every engine, on a switch
/// whose control plane is impaired by `control`, and floods
/// `datagrams` UDP datagrams from its first node to each of `to`.
fn run_flood(
    script: &str,
    seed: u64,
    control: ControlImpairment,
    to: &[usize],
    datagrams: u64,
) -> (Report, TableSet) {
    let tables = compile_script(script).expect("script compiles");
    let mut world = World::with_impairment(seed, control);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 8);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables.clone(), full());
    assert!(runner.settle(&mut world), "control plane must settle");
    let ipv4 = Binding::EtherType(EtherType::IPV4);
    for &i in to {
        let to = nodes[i];
        world.add_protocol(to, ipv4, Box::new(UdpSink::new(0x6363)));
        let (mac, ip) = (world.host_mac(to), world.host_ip(to));
        let flooder = UdpFlooder::new(mac, ip, 0x6363, 9000, 1_000_000, 200, datagrams * 200);
        world.add_protocol(nodes[0], ipv4, Box::new(flooder));
    }
    let report = runner.run(&mut world, SimDuration::from_secs(1));
    (report, tables)
}

/// Runs `script` with a full flight recorder on every engine and a UDP
/// flood from its first to its second node.
fn run_full(script: &str, seed: u64, datagrams: u64) -> (Report, TableSet) {
    run_flood(script, seed, ControlImpairment::none(), &[1], datagrams)
}

/// Section 6.2's testbed with a full flight recorder: four Rether nodes on
/// a 10 Mb/s hub, engines between Rether and the wire, and a TCP session
/// from node1 to node4.
fn run_rether_ring(seed: u64) -> (Report, TableSet) {
    let tables = compile_script(RETHER_FAILOVER).expect("script compiles");
    let mut world = World::new(seed);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let hub = world.add_hub("bus", 5);
    for &n in &nodes {
        world.connect(n, hub, LinkConfig::ethernet_10m());
    }
    let ring: Vec<_> = tables.nodes.iter().map(|n| n.mac).collect();
    for (i, &node) in nodes.iter().enumerate() {
        let mut rether = RetherNode::new(RetherConfig::new(ring.clone()), ring[i]);
        if i == 0 || i == 3 {
            rether.reserve_rt(32 * 1024);
        }
        world.add_hook(node, Box::new(rether));
    }
    let runner = Runner::install(&mut world, tables.clone(), full());
    assert!(runner.settle(&mut world), "control plane must settle");
    let ipv4 = Binding::EtherType(EtherType::IPV4);
    let tcp = TcpConfig::default();
    let mut server = TcpStack::new(world.host_mac(nodes[3]), world.host_ip(nodes[3]));
    server.listen(0x4000, tcp);
    world.add_protocol(nodes[3], ipv4, Box::new(server));
    let mut client = TcpStack::new(world.host_mac(nodes[0]), world.host_ip(nodes[0]));
    let peer = Endpoint {
        mac: world.host_mac(nodes[3]),
        ip: world.host_ip(nodes[3]),
        port: 0x4000,
    };
    let handle = client.connect(tcp, 0x6000, peer);
    client.attach_source(handle, 2_000_000, 10_000_000);
    world.add_protocol(nodes[0], ipv4, Box::new(client));
    let report = runner.run(&mut world, SimDuration::from_secs(60));
    (report, tables)
}

/// Position of the first event matching `pred`, or a panic naming `what`.
fn position(events: &[ObsEvent], what: &str, pred: impl Fn(NodeId, &ObsKind) -> bool) -> usize {
    events
        .iter()
        .position(|e| pred(e.node, &e.kind))
        .unwrap_or_else(|| panic!("no {what} in timeline"))
}

/// The timeline, one rendered event per line.
fn render(report: &Report) -> String {
    let lines = report.events.iter().map(|e| e.render(&report.symbols));
    lines.collect::<Vec<_>>().join("\n")
}

#[test]
fn merged_timeline_orders_the_cross_node_cascade() {
    let (report, tables) = run_full(REMOTE_FAIL, 2, 10);
    assert!(report.passed(), "report: {report}");
    let timeline = &report.events;
    let node2 = tables.node_by_name("node2").unwrap();
    let node3 = tables.node_by_name("node3").unwrap();

    // The documented cross-node chain, in timeline order: node2's counter
    // hits 3 and flips the term, node2 sends the TERM_STATUS, node3
    // receives it, flips its copy, fires the condition, and FAILs.
    let flip2 = position(timeline, "node2 term flip", |n, e| {
        n == node2 && matches!(e, ObsKind::TermFlipped { status: true, .. })
    });
    let sent = position(timeline, "node2 control send", |n, e| {
        n == node2 && matches!(e, ObsKind::ControlSent { peer, .. } if *peer == node3)
    });
    let delivered = position(timeline, "node3 delivery", |n, e| {
        n == node3 && matches!(e, ObsKind::ControlDelivered { peer, .. } if *peer == node2)
    });
    let flip3 = position(timeline, "node3 term flip", |n, e| {
        n == node3 && matches!(e, ObsKind::TermFlipped { status: true, .. })
    });
    let fired = position(timeline, "node3 condition", |n, e| {
        n == node3 && matches!(e, ObsKind::ConditionFired { .. })
    });
    let failed = position(timeline, "node3 FAIL", |n, e| {
        n == node3
            && matches!(e, ObsKind::ActionTriggered { action }
                if action_label(&tables.actions[action.index()].kind) == "FAIL")
    });
    assert!(
        flip2 < sent && sent < delivered && delivered < flip3 && flip3 < fired && fired < failed,
        "cross-node order broken: flip2={flip2} sent={sent} delivered={delivered} \
         flip3={flip3} fired={fired} failed={failed}\n{}",
        render(&report)
    );
}

#[test]
fn golden_chain_reproduced_from_the_merged_timeline() {
    let (report, _tables) = run_full(DROP_AFTER_THREE, 7, 20);
    assert_eq!(report.errors.len(), 1, "report: {report}");
    let error = &report.errors[0];
    let engine_chain = report.explain(error).expect("Full-level run explains");

    // The same chain, read from the timeline by its cascade's ordinal:
    // identical events, identical labels.
    let merged_chain = report.explain_seq(engine_chain.node, engine_chain.frame_seq);
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
    let kinds: Vec<&str> = merged_chain
        .events
        .iter()
        .filter_map(|e| action_label_of(e, &report.symbols))
        .collect();
    assert_eq!(kinds, vec!["FLAG_ERR", "DROP"]);
}

#[test]
fn builtin_invariants_hold_on_recorded_scenarios() {
    for (script, seed, datagrams) in [(REMOTE_FAIL, 2, 10), (DROP_AFTER_THREE, 7, 20)] {
        let (report, tables) = run_full(script, seed, datagrams);
        let violations = check_invariants(&report.events, &tables);
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
    let violations = check_invariants(&doctored, &tables);
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

#[test]
fn an_action_id_outside_the_tables_renders_as_unknown_and_is_no_stop() {
    let (mut report, tables) = run_full(DROP_AFTER_THREE, 7, 20);
    let clean_faults = report.fault_events().count();
    assert!(check_invariants(&report.events, &tables).is_empty());
    let stop = report
        .events
        .iter()
        .find(|e| action_label_of(e, &tables) == Some("STOP"))
        .copied()
        .expect("the run records its STOP");
    // A doctored action that leads the stream at the STOP's node: read as
    // a STOP, it would put every later action there after one.
    let ghost = |frame_seq: u64| ObsEvent {
        frame_seq,
        kind: ObsKind::ActionTriggered {
            action: ActionId(tables.actions.len() as u16),
        },
        ..stop
    };
    report.events.insert(0, ghost(0));
    let line = report.events[0].render(&report.symbols);
    assert!(
        line.ends_with(&format!("action#{} ? triggered", tables.actions.len())),
        "{line}"
    );
    assert_eq!(report.fault_events().count(), clean_faults);
    assert!(check_invariants(&report.events, &tables).is_empty());
    // After the real STOP it is still an action, and the violation names
    // its kind `?`.
    report.events.push(ghost(stop.frame_seq + 1));
    let violations = check_invariants(&report.events, &tables);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].invariant, "no-action-after-stop");
    assert!(
        violations[0].message.contains("(?)"),
        "{}",
        violations[0].message
    );
}

/// The keyword of the action `event` triggered, read from `tables`.
fn action_label_of(event: &ObsEvent, tables: &TableSet) -> Option<&'static str> {
    event.action_kind(tables).map(action_label)
}

/// What every recorded run's timeline satisfies: time never goes back,
/// every control delivery follows the first send of its sequence number,
/// and the four invariants hold.
fn assert_timeline_properties(bed: &str, report: &Report, tables: &TableSet) {
    let events = &report.events;
    assert!(!events.is_empty(), "{bed}: nothing recorded");
    if let Some(i) = events.windows(2).position(|w| w[0].time > w[1].time) {
        panic!("{bed}: time goes back after event {i}\n{}", render(report));
    }
    for (i, event) in events.iter().enumerate() {
        let ObsKind::ControlDelivered { peer, peer_seq, .. } = event.kind else {
            continue;
        };
        let what = format!("{bed}: send delivered at {i}");
        let sent = position(events, &what, |node, kind| {
            node == peer
                && matches!(*kind, ObsKind::ControlSent { peer: to, peer_seq: seq, .. }
                    if to == event.node && seq == peer_seq)
        });
        assert!(sent < i, "{bed}: delivery {i} before its send {sent}");
    }
    let violations = check_invariants(events, tables);
    let rendered: Vec<String> = violations.iter().map(|v| v.render(tables)).collect();
    assert!(violations.is_empty(), "{bed}:\n{}", rendered.concat());
}

/// The three distributed beds, over seeds, with the recorder full.
#[test]
fn recorded_timelines_are_ordered_causal_and_clean() {
    for seed in 1..=4 {
        let (report, tables) = run_full(REMOTE_FAIL, seed, 10);
        assert_timeline_properties(&format!("remote fail, seed {seed}"), &report, &tables);
        let lossy = ControlImpairment::dropping(0.2);
        let (report, tables) = run_flood(SHARED, seed, lossy, &[1, 2], 40);
        assert_timeline_properties(&format!("shared, seed {seed}"), &report, &tables);
        let (report, tables) = run_rether_ring(seed);
        assert_timeline_properties(&format!("rether ring, seed {seed}"), &report, &tables);
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
