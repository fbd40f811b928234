//! The whole tower at once: a TCP session riding Rether's token ring, with
//! VirtualWire engines between Rether and the wire and the Reliable Link
//! Layer at the bottom, over a *lossy* shared medium — plus multi-switch
//! topologies. If the layering contracts are wrong anywhere, this is where
//! it shows.

mod common;

use common::{build_tower, Tower};
use virtualwire::{compile_script, EngineConfig, Runner, StopReason};
use vw_netsim::{Binding, ErrorModel, LinkConfig, SimDuration, World};
use vw_packet::EtherType;
use vw_rether::{RetherConfig, RetherNode};
use vw_tcpstack::{SocketHandle, TcpStack};
use vw_trace::Category;

#[test]
fn tcp_over_rether_over_engines_over_rll_on_a_lossy_bus() {
    let Tower {
        mut world,
        runner,
        nodes,
        rether_hooks,
        sid,
        cid,
        h,
    } = build_tower();
    let report = runner.run(&mut world, SimDuration::from_secs(60));
    assert!(
        matches!(report.stop, StopReason::StopAction(_)),
        "60 TCP segments must arrive: {report:?}"
    );
    assert!(report.passed(), "{}", report.render());

    // The RLL masked the 5% loss completely: no node ever declared a
    // healthy peer dead. (A handful of token retransmissions are benign
    // shared-bus queueing effects — a token waiting behind a data burst —
    // not loss leaking through the RLL.)
    let mut token_rexmit_total = 0;
    for (i, &node) in nodes.iter().enumerate() {
        let rether = world.hook::<RetherNode>(node, rether_hooks[i]).unwrap();
        assert_eq!(
            rether.stats().reconstructions,
            0,
            "node{}: the ring must never think a peer died",
            i + 1
        );
        assert_eq!(rether.ring().len(), 3, "node{}", i + 1);
        token_rexmit_total += rether.stats().token_retransmissions;
    }
    assert!(
        token_rexmit_total <= 10,
        "occasional queueing-induced retransmissions only, got {token_rexmit_total}"
    );
    // TCP's own recovery stays essentially idle (the RLL absorbs the
    // loss; at most a stray RTO from ring-queueing latency spikes).
    let client = world.protocol::<TcpStack>(nodes[0], cid).unwrap();
    let retransmissions = client.socket(h).stats().retransmissions;
    assert!(
        retransmissions <= 2,
        "got {retransmissions} retransmissions"
    );
    // STOP fires inside node3's engine while the 60th segment is still on
    // its way up the hook chain, so the stack itself holds 59 or 60
    // segments when the world freezes — minus one per retransmission,
    // because the engine's Data counter sees every matching frame and a
    // retransmitted segment therefore counts twice toward the STOP.
    let server = world.protocol_mut::<TcpStack>(nodes[2], sid).unwrap();
    let received = server
        .socket_mut(SocketHandle::from_index(0))
        .take_received()
        .len();
    let floor = 59_000 - 1_000 * retransmissions as usize;
    assert!(
        (floor..=60_000).contains(&received),
        "in-order bytes at the stack: {received} (retransmissions: {retransmissions})"
    );
}

/// With one root span bracketing the run, `Σ self_ns == root duration`
/// holds by construction; the 5% tolerance only absorbs ring evictions and
/// clock jitter, so a regression in the attribution walk shows at once.
#[test]
fn traced_tower_self_times_partition_wall_time() {
    let Tower {
        mut world, runner, ..
    } = build_tower();
    vw_trace::enable(1 << 19);
    {
        let _run = vw_trace::span("run", Category::Run);
        runner.run(&mut world, SimDuration::from_secs(60));
    }
    let trace = vw_trace::disable();
    vw_trace::validate_chrome_json(&trace.to_chrome_json()).expect("the Chrome export loads");
    let pb = trace.phase_breakdown();
    assert!(pb.wall_ns > 0, "the traced run recorded nothing");

    // Every instrumented layer of the tower shows up: the event loop,
    // the Figure 4(b) engine pipeline, and the TCP stack.
    for cat in [
        Category::Run,
        Category::Event,
        Category::Classify,
        Category::Cascade,
        Category::Action,
        Category::Tcp,
    ] {
        assert!(
            pb.get(cat).is_some_and(|s| s.spans > 0),
            "no spans recorded for category {cat}:\n{}",
            pb.to_table()
        );
    }

    let total = pb.total_self_ns() as f64;
    let wall = pb.wall_ns as f64;
    let error = (total - wall).abs() / wall;
    assert!(
        error < 0.05,
        "self times sum to {total} but wall is {wall} ({:.1}% off):\n{}",
        100.0 * error,
        pb.to_table()
    );
}

#[test]
fn same_tower_without_rll_falls_apart_visibly() {
    // Negative control: remove the RLL and 5% loss hits tokens and data
    // alike — Rether retransmits tokens and TCP retransmits segments.
    let mut world = World::new(100);
    let n1 = world.add_host_with(
        "node1",
        "02:00:00:00:00:01".parse().unwrap(),
        "192.168.1.1".parse().unwrap(),
    );
    let n2 = world.add_host_with(
        "node2",
        "02:00:00:00:00:02".parse().unwrap(),
        "192.168.1.2".parse().unwrap(),
    );
    let hub = world.add_hub("bus", 3);
    for &n in &[n1, n2] {
        world.connect(
            n,
            hub,
            LinkConfig::ethernet_10m().errors(ErrorModel::lossy(0.05)),
        );
    }
    let ring = vec![world.host_mac(n1), world.host_mac(n2)];
    let h1 = world.add_hook(
        n1,
        Box::new(RetherNode::new(RetherConfig::new(ring.clone()), ring[0])),
    );
    let _h2 = world.add_hook(
        n2,
        Box::new(RetherNode::new(RetherConfig::new(ring.clone()), ring[1])),
    );
    world.run_for(SimDuration::from_secs(3));
    let rether = world.hook::<RetherNode>(n1, h1).unwrap();
    assert!(
        rether.stats().token_retransmissions > 0,
        "5% loss with no RLL must cost token retransmissions"
    );
}

#[test]
fn engines_span_a_multi_switch_fabric() {
    // node1 — sw1 — sw2 — sw3 — node2: distributed rules must work across
    // a switched fabric, not just a single hop (MAC learning, flooding,
    // and the control plane all crossing three switches).
    let script = r#"
        FILTER_TABLE
        udp_data: (23 1 0x11), (36 2 0x6363)
        END
        NODE_TABLE
        node1 02:00:00:00:00:01 192.168.1.2
        node2 02:00:00:00:00:02 192.168.1.3
        END
        SCENARIO FabricWide
        Sent: (udp_data, node1, node2, SEND)
        Rcvd: (udp_data, node1, node2, RECV)
        (TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd);
        ((Sent = 4)) >> DROP(udp_data, node1, node2, SEND);
        ((Rcvd = 19)) >> STOP;
        END
    "#;
    let tables = compile_script(script).unwrap();
    let mut world = World::new(101);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw1 = world.add_switch("sw1", 4);
    let sw2 = world.add_switch("sw2", 4);
    let sw3 = world.add_switch("sw3", 4);
    world.connect(nodes[0], sw1, LinkConfig::fast_ethernet());
    world.connect(sw1, sw2, LinkConfig::fast_ethernet());
    world.connect(sw2, sw3, LinkConfig::fast_ethernet());
    world.connect(sw3, nodes[1], LinkConfig::fast_ethernet());
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    assert!(runner.settle(&mut world), "init crosses three switches");
    world.add_protocol(
        nodes[1],
        Binding::EtherType(EtherType::IPV4),
        Box::new(vw_netsim::apps::UdpSink::new(0x6363)),
    );
    let flooder = vw_netsim::apps::UdpFlooder::new(
        world.host_mac(nodes[1]),
        world.host_ip(nodes[1]),
        0x6363,
        9000,
        2_000_000,
        200,
        20 * 200,
    );
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    let report = runner.run(&mut world, SimDuration::from_secs(2));
    assert!(
        matches!(report.stop, StopReason::StopAction(_)),
        "{report:?}"
    );
    assert!(report.passed());
    assert_eq!(report.counter("Sent"), Some(20));
    assert_eq!(
        report.counter("Rcvd"),
        Some(19),
        "exactly the one DROP missing"
    );
}
