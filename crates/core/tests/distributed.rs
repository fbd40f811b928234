//! Distributed rule execution: counters on one node triggering actions on
//! another, table distribution over the simulated control plane, remote
//! term/condition evaluation, and the RLL underneath the engines.

use virtualwire::{compile_script, Engine, EngineConfig, Runner};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, ErrorModel, LinkConfig, SimDuration, World};
use vw_packet::EtherType;
use vw_rll::RllConfig;

const SCRIPT_FAIL_REMOTE: &str = r#"
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
    END
"#;

fn three_node_world(seed: u64, script: &str) -> (World, Vec<vw_netsim::DeviceId>, Runner) {
    let tables = compile_script(script).unwrap_or_else(|e| panic!("{e}"));
    let mut world = World::new(seed);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 8);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    runner.settle(&mut world);
    (world, nodes, runner)
}

fn add_flood(
    world: &mut World,
    from: vw_netsim::DeviceId,
    to: vw_netsim::DeviceId,
    count: u64,
) -> vw_netsim::ProtocolId {
    let sink = world.add_protocol(
        to,
        Binding::EtherType(EtherType::IPV4),
        Box::new(UdpSink::new(0x6363)),
    );
    let flooder = UdpFlooder::new(
        world.host_mac(to),
        world.host_ip(to),
        0x6363,
        9000,
        1_000_000,
        200,
        count * 200,
    );
    world.add_protocol(from, Binding::EtherType(EtherType::IPV4), Box::new(flooder));
    sink
}

#[test]
fn tables_distribute_over_the_control_plane() {
    // Build without the settling helper to observe the init handshake.
    let tables = compile_script(SCRIPT_FAIL_REMOTE).unwrap();
    let mut world = World::new(1);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 8);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    // Before running, the control node holds the tables but has installed
    // them no more than its peers have.
    assert!(!runner.engine(&world, "node1").unwrap().initialized());
    assert!(!runner.engine(&world, "node2").unwrap().initialized());
    assert!(runner.settle(&mut world), "init handshake must complete");
    for node in ["node1", "node2", "node3"] {
        assert!(
            runner.engine(&world, node).unwrap().initialized(),
            "{node} initialized via Init control frame"
        );
    }
    // The control node saw both acknowledgments.
    assert_eq!(runner.engine(&world, "node1").unwrap().init_acks().len(), 2);
    // Control frames really crossed the wire.
    assert!(
        runner
            .engine(&world, "node2")
            .unwrap()
            .stats()
            .control_received
            >= 1,
        "node2 received its Init"
    );
}

#[test]
fn counter_on_one_node_triggers_action_on_another() {
    // The Figure 6 pattern: "counter update is done at a node different
    // from where the action, dependent on that counter, is executed."
    let (mut world, nodes, runner) = three_node_world(2, SCRIPT_FAIL_REMOTE);
    let _sink = add_flood(&mut world, nodes[0], nodes[1], 10);
    let report = runner.run(&mut world, SimDuration::from_secs(1));
    assert!(report.passed());
    let node3 = runner.engine(&world, "node3").unwrap();
    assert!(
        node3.is_blackholed(),
        "node3 must be FAILed by node2's counter hitting 3"
    );
    // The trigger travelled over the control plane as a TERM_STATUS (or
    // the condition fired remotely): node3 received control traffic beyond
    // its Init.
    assert!(node3.stats().control_received >= 2);
}

#[test]
fn remote_counter_comparison_terms() {
    // A term comparing counters homed on different nodes: AtB's home
    // forwards value updates to AtA's home for evaluation.
    let script = r#"
        FILTER_TABLE
        udp_data: (23 1 0x11), (36 2 0x6363)
        udp_rev: (23 1 0x11), (36 2 0x6464)
        END
        NODE_TABLE
        node1 02:00:00:00:00:01 192.168.1.2
        node2 02:00:00:00:00:02 192.168.1.3
        node3 02:00:00:00:00:03 192.168.1.4
        END
        SCENARIO CrossNode
        Fwd: (udp_data, node1, node2, RECV)
        Rev: (udp_rev, node3, node2, RECV)
        (TRUE) >> ENABLE_CNTR(Fwd); ENABLE_CNTR(Rev);
        ((Fwd = Rev) && (Fwd > 4)) >> STOP;
        END
    "#;
    let (mut world, nodes, runner) = three_node_world(3, script);
    // Two flows into node2: node1→node2 on 0x6363, node3→node2 on 0x6464.
    let _s1 = add_flood(&mut world, nodes[0], nodes[1], 50);
    let sink2 = world.add_protocol(
        nodes[1],
        Binding::EtherType(EtherType::IPV4),
        Box::new(UdpSink::new(0x6464)),
    );
    let flooder = UdpFlooder::new(
        world.host_mac(nodes[1]),
        world.host_ip(nodes[1]),
        0x6464,
        9001,
        900_000, // slightly slower so the counters cross repeatedly
        200,
        50 * 200,
    );
    world.add_protocol(
        nodes[2],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    let report = runner.run(&mut world, SimDuration::from_secs(5));
    assert!(
        matches!(report.stop, virtualwire::StopReason::StopAction(_)),
        "cross-node equality condition must eventually fire: {report:?}"
    );
    let fwd = report.counter("Fwd").unwrap();
    let rev = report.counter("Rev").unwrap();
    assert!(fwd > 4);
    // At stop time the counters were equal (modulo messages in flight
    // when STOP raced the last updates).
    assert!((fwd - rev).abs() <= 1, "Fwd={fwd} Rev={rev}");
    let _ = sink2;
}

#[test]
fn engines_work_above_the_rll_on_a_lossy_wire() {
    // With the RLL underneath, a lossy physical link is invisible: the
    // only packets missing at the sink are the ones VirtualWire dropped.
    let script = r#"
        FILTER_TABLE
        udp_data: (23 1 0x11), (36 2 0x6363)
        END
        NODE_TABLE
        node1 02:00:00:00:00:01 192.168.1.2
        node2 02:00:00:00:00:02 192.168.1.3
        END
        SCENARIO RllUnderneath
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent = 2)) >> DROP(udp_data, node1, node2, SEND);
        END
    "#;
    let tables = compile_script(script).unwrap();
    let mut world = World::new(4);
    let nodes = Runner::create_hosts(&mut world, &tables);
    world.connect(
        nodes[0],
        nodes[1],
        LinkConfig::fast_ethernet().errors(ErrorModel::lossy(0.15)),
    );
    let runner = Runner::install_with_rll(
        &mut world,
        tables,
        EngineConfig::default(),
        RllConfig {
            max_retries: 100,
            ..RllConfig::default()
        },
    );
    runner.settle(&mut world);
    let sink = add_flood(&mut world, nodes[0], nodes[1], 100);
    let report = runner.run(&mut world, SimDuration::from_secs(10));
    assert_eq!(report.counter("Sent"), Some(100));
    let frames = world
        .protocol::<vw_netsim::apps::UdpSink>(nodes[1], sink)
        .unwrap()
        .frames();
    // 100 sent, exactly 1 consumed by the scripted DROP; the 15% link
    // loss is fully masked by the RLL.
    assert_eq!(
        frames, 99,
        "only the injected fault may remove packets when the RLL is on"
    );
}

#[test]
fn without_rll_link_loss_is_confused_with_injected_faults() {
    // The negative control for the RLL's reason to exist: on the same
    // lossy link WITHOUT the RLL, the sink count is well below the
    // engine-accounted number.
    let script = r#"
        FILTER_TABLE
        udp_data: (23 1 0x11), (36 2 0x6363)
        END
        NODE_TABLE
        node1 02:00:00:00:00:01 192.168.1.2
        node2 02:00:00:00:00:02 192.168.1.3
        END
        SCENARIO NoRll
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent = 100)) >> STOP;
        END
    "#;
    let tables = compile_script(script).unwrap();
    let mut world = World::new(5);
    let nodes = Runner::create_hosts(&mut world, &tables);
    world.connect(
        nodes[0],
        nodes[1],
        LinkConfig::fast_ethernet().errors(ErrorModel::lossy(0.15)),
    );
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    runner.settle(&mut world);
    let sink = add_flood(&mut world, nodes[0], nodes[1], 100);
    let _ = runner.run(&mut world, SimDuration::from_secs(10));
    let frames = world
        .protocol::<vw_netsim::apps::UdpSink>(nodes[1], sink)
        .unwrap()
        .frames();
    assert!(
        frames < 95,
        "15% loss with no RLL must visibly eat datagrams (saw {frames})"
    );
}

#[test]
fn var_binding_enables_variable_filters() {
    let script = r#"
        VAR Ident;
        FILTER_TABLE
        tagged: (23 1 0x11), (18 2 Ident)
        END
        NODE_TABLE
        node1 02:00:00:00:00:01 192.168.1.2
        node2 02:00:00:00:00:02 192.168.1.3
        END
        SCENARIO VarBound
        Seen: (tagged, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Seen);
        END
    "#;
    let tables = compile_script(script).unwrap();
    let mut world = World::new(6);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    runner.settle(&mut world);
    // Bind the variable to IP ident 7 on all engines.
    runner.bind_var(&mut world, "Ident", 7);
    let _sink = add_flood(&mut world, nodes[0], nodes[1], 20);
    let report = runner.run(&mut world, SimDuration::from_secs(1));
    // The flooder stamps ident 0,1,2,...: exactly one datagram has 7.
    assert_eq!(report.counter("Seen"), Some(1));
}

#[test]
fn engine_survives_unknown_and_foreign_traffic() {
    let (mut world, nodes, runner) = three_node_world(7, SCRIPT_FAIL_REMOTE);
    // Throw raw frames of an unknown ethertype through the engines.
    for i in 0..50u32 {
        let frame = vw_packet::EthernetBuilder::new()
            .src(world.host_mac(nodes[0]))
            .dst(world.host_mac(nodes[1]))
            .ethertype(vw_packet::EtherType(0x5555))
            .payload(&i.to_be_bytes())
            .build();
        world.inject_from_stack(nodes[0], frame);
    }
    world.run_for(SimDuration::from_millis(10));
    let engine: &Engine = runner.engine(&world, "node1").unwrap();
    assert_eq!(engine.stats().matched, 0);
    assert!(engine.errors().is_empty());
}
