//! Every Table II fault primitive observed on the (simulated) wire, plus
//! Table I counter semantics, exercised through full scenario runs.

use virtualwire::{compile_script, EngineConfig, Runner};
use vw_netsim::apps::{UdpFlooder, UdpPinger, UdpSink};
use vw_netsim::{Binding, Context, LinkConfig, Protocol, SimDuration, TraceKind, World};
use vw_packet::{EtherType, Frame, UdpBuilder};

const PREAMBLE: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
"#;

struct Bed {
    world: World,
    nodes: Vec<vw_netsim::DeviceId>,
    runner: Runner,
    sink: vw_netsim::ProtocolId,
}

/// Two hosts via a switch; node1 floods `count` UDP datagrams of
/// `payload` bytes at 1 Mb/s toward node2's sink on port 0x6363.
fn testbed(seed: u64, scenario: &str, count: u64, payload: usize) -> Bed {
    let script = format!("{PREAMBLE}{scenario}");
    let tables = compile_script(&script).unwrap_or_else(|e| panic!("{e}"));
    let mut world = World::new(seed);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    let sink = world.add_protocol(
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
        payload,
        count * payload as u64,
    );
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    Bed {
        world,
        nodes,
        runner,
        sink,
    }
}

fn sink_frames(bed: &Bed) -> u64 {
    bed.world
        .protocol::<UdpSink>(bed.nodes[1], bed.sink)
        .unwrap()
        .frames()
}

#[test]
fn drop_consumes_exactly_the_gated_window() {
    // Drop datagrams 3..6 (while 2 < Sent <= 5... condition in counter
    // space: drop while Sent is 3, 4, or 5).
    let bed = &mut testbed(
        1,
        r#"
        SCENARIO DropWindow
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent > 2) && (Sent <= 5)) >> DROP(udp_data, node1, node2, SEND);
        END
        "#,
        20,
        200,
    );
    let report = bed.runner.run(&mut bed.world, SimDuration::from_secs(2));
    assert!(report.passed());
    assert_eq!(report.counter("Sent"), Some(20), "drops still count first");
    assert_eq!(sink_frames(bed), 17, "datagrams 3,4,5 were eaten");
    let engine = bed.runner.engine(&bed.world, "node1").unwrap();
    assert_eq!(engine.stats().drops, 3);
}

/// The packet trace holds one `HookConsume` record per injected DROP: the
/// world's record of the hook's verdict, and no second copy from the engine.
#[test]
fn an_injected_drop_is_traced_once() {
    let bed = &mut testbed(
        1,
        r#"
        SCENARIO DropWindow
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent > 2) && (Sent <= 5)) >> DROP(udp_data, node1, node2, SEND);
        END
        "#,
        20,
        200,
    );
    // The control plane's own consumed frames belong to the settle.
    bed.runner.settle(&mut bed.world);
    bed.world.trace_mut().clear();
    bed.runner.run(&mut bed.world, SimDuration::from_secs(2));
    let node1 = bed.nodes[0];
    let consumed = bed
        .world
        .trace()
        .of_kind(TraceKind::HookConsume)
        .filter(|record| record.device == node1)
        .count() as u64;
    let drops = bed
        .runner
        .engine(&bed.world, "node1")
        .unwrap()
        .stats()
        .drops;
    assert_eq!(drops, 3);
    assert_eq!(consumed, drops, "one trace record per DROP");
}

#[test]
fn drop_at_receiver_side() {
    let bed = &mut testbed(
        2,
        r#"
        SCENARIO DropRecv
        Rcvd: (udp_data, node1, node2, RECV)
        (TRUE) >> ENABLE_CNTR(Rcvd);
        ((Rcvd = 1)) >> DROP(udp_data, node1, node2, RECV);
        END
        "#,
        10,
        200,
    );
    let report = bed.runner.run(&mut bed.world, SimDuration::from_secs(2));
    assert!(report.passed());
    assert_eq!(report.counter("Rcvd"), Some(10));
    assert_eq!(sink_frames(bed), 9, "first datagram dropped at node2");
    assert_eq!(
        bed.runner
            .engine(&bed.world, "node2")
            .unwrap()
            .stats()
            .drops,
        1
    );
}

#[test]
fn dup_duplicates_matching_packets() {
    let bed = &mut testbed(
        3,
        r#"
        SCENARIO DupOne
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent = 4)) >> DUP(udp_data, node1, node2, SEND);
        END
        "#,
        10,
        200,
    );
    let report = bed.runner.run(&mut bed.world, SimDuration::from_secs(2));
    assert!(report.passed());
    assert_eq!(sink_frames(bed), 11, "one extra copy of datagram 4");
    assert_eq!(
        bed.runner.engine(&bed.world, "node1").unwrap().stats().dups,
        1
    );
}

#[test]
fn delay_holds_for_quantized_jiffies() {
    let bed = &mut testbed(
        4,
        r#"
        SCENARIO DelayOne
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent = 1)) >> DELAY(udp_data, node1, node2, SEND, 25msec);
        END
        "#,
        2,
        200,
    );
    let report = bed.runner.run(&mut bed.world, SimDuration::from_secs(2));
    assert!(report.passed());
    assert_eq!(sink_frames(bed), 2, "delayed packet still arrives");
    // Datagram 1 was held 25ms → quantized up to 30ms (3 jiffies);
    // datagram 2 (sent ~1.6ms later at 1Mb/s) arrives first. Verify via
    // the sink's identification order is not available, so check the
    // engine counted the delay and the run took ≥ 30 ms.
    assert_eq!(
        bed.runner
            .engine(&bed.world, "node1")
            .unwrap()
            .stats()
            .delays,
        1
    );
    let trace = bed.world.trace();
    // The held frame appears on the wire (HostSend at node1) twice as a
    // datagram: once for datagram 2 at ~1.6ms and once released ≥30ms.
    let sends: Vec<_> = trace
        .of_kind(vw_netsim::TraceKind::HostSend)
        .filter(|r| r.device == bed.nodes[0])
        .filter(|r| r.frame.as_ref().is_some_and(|f| f.udp().is_some()))
        .map(|r| r.time)
        .collect();
    assert_eq!(sends.len(), 2);
    let release = sends.iter().max().unwrap();
    assert!(
        release.as_nanos() >= 30_000_000,
        "release at {release} must respect 10ms jiffy quantization of 25ms"
    );
}

/// Records the IP ident fields of UDP datagrams in arrival order.
#[derive(Default)]
struct IdentOrder {
    idents: Vec<u16>,
}

impl Protocol for IdentOrder {
    fn name(&self) -> &str {
        "ident-order"
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, frame: Frame) {
        if frame.udp().is_some() {
            self.idents.push(frame.ipv4().unwrap().ident());
        }
    }
}

#[test]
fn reorder_releases_in_specified_permutation() {
    let script = format!(
        "{PREAMBLE}
        SCENARIO ReorderBatch
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent > 0)) >> REORDER(udp_data, node1, node2, SEND, 3, (2 1 0));
        END
        "
    );
    let tables = compile_script(&script).unwrap();
    let mut world = World::new(5);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    let order = world.add_protocol(
        nodes[1],
        Binding::EtherType(EtherType::IPV4),
        Box::new(IdentOrder::default()),
    );
    // Send 6 datagrams with idents 1..=6 directly from the stack.
    for i in 1..=6u16 {
        let frame = UdpBuilder::new()
            .src_mac(world.host_mac(nodes[0]))
            .dst_mac(world.host_mac(nodes[1]))
            .src_ip(world.host_ip(nodes[0]))
            .dst_ip(world.host_ip(nodes[1]))
            .src_port(9000)
            .dst_port(0x6363)
            .ident(i)
            .payload(&[0u8; 64])
            .build();
        world.inject_from_stack(nodes[0], frame);
    }
    let _ = runner.run(&mut world, SimDuration::from_millis(200));
    let got = &world
        .protocol::<IdentOrder>(nodes[1], order)
        .unwrap()
        .idents;
    // Two batches of three, each released reversed.
    assert_eq!(*got, vec![3, 2, 1, 6, 5, 4]);
}

#[test]
fn modify_set_pattern_rewrites_bytes() {
    // Rewrite the UDP payload's first two bytes; the UDP checksum is NOT
    // fixed (the paper: "the checksum in such a case must be set correctly
    // by the user"), so the sink — which verifies checksums — drops it.
    let bed = &mut testbed(
        6,
        r#"
        SCENARIO ModifySet
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent = 2)) >> MODIFY(udp_data, node1, node2, SEND, (42 2 0xBEEF));
        END
        "#,
        5,
        200,
    );
    let report = bed.runner.run(&mut bed.world, SimDuration::from_secs(2));
    assert!(report.passed());
    assert_eq!(sink_frames(bed), 4, "corrupted datagram fails its checksum");
    assert_eq!(
        bed.runner
            .engine(&bed.world, "node1")
            .unwrap()
            .stats()
            .modifies,
        1
    );
}

#[test]
fn modify_random_perturbs_packets() {
    let bed = &mut testbed(
        7,
        r#"
        SCENARIO ModifyRandom
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent > 0)) >> MODIFY(udp_data, node1, node2, SEND, RANDOM);
        END
        "#,
        50,
        400,
    );
    let report = bed.runner.run(&mut bed.world, SimDuration::from_secs(2));
    assert!(report.passed());
    let engine_stats = bed.runner.engine(&bed.world, "node1").unwrap().stats();
    assert_eq!(engine_stats.modifies, 50, "every datagram perturbed");
    // Random bit flips land in IP/UDP headers or payload; the
    // checksum-verifying sink must lose most datagrams.
    assert!(
        sink_frames(bed) < 25,
        "perturbation should break most checksums, sink saw {}",
        sink_frames(bed)
    );
}

#[test]
fn fail_blackholes_a_node() {
    let bed = &mut testbed(
        8,
        r#"
        SCENARIO FailReceiver
        Sent: (udp_data, node1, node2, SEND)
        Rcvd: (udp_data, node1, node2, RECV)
        (TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd);
        ((Sent = 5)) >> FAIL(node2);
        END
        "#,
        20,
        200,
    );
    let report = bed.runner.run(&mut bed.world, SimDuration::from_secs(2));
    assert!(report.passed());
    // node2's engine blackholes from the moment the trigger (sent over the
    // control plane from node1's counter) arrives. Sends 1-5 may already
    // be in flight; everything after is eaten.
    let frames = sink_frames(bed);
    assert!(
        (4..=6).contains(&frames),
        "sink saw {frames} frames; expected about 5 before FAIL landed"
    );
    let node2 = bed.runner.engine(&bed.world, "node2").unwrap();
    assert!(node2.is_blackholed());
    assert!(node2.stats().blackholed > 0);
}

#[test]
fn stop_ends_the_run_and_flag_err_reports() {
    let bed = &mut testbed(
        9,
        r#"
        SCENARIO FlagAndStop
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent = 3)) >> FLAG_ERR "three datagrams seen";
        ((Sent = 5)) >> STOP;
        END
        "#,
        100,
        200,
    );
    let report = bed.runner.run(&mut bed.world, SimDuration::from_secs(5));
    assert!(matches!(
        report.stop,
        virtualwire::StopReason::StopAction(_)
    ));
    assert_eq!(report.errors.len(), 1);
    assert_eq!(report.errors[0].message, "three datagrams seen");
    assert_eq!(report.errors[0].node_name, "node1");
    assert!(!report.passed(), "a flagged error fails the run");
    assert_eq!(report.counter("Sent"), Some(5), "stopped at five");
}

#[test]
fn disabled_counters_do_not_count() {
    let bed = &mut testbed(
        10,
        r#"
        SCENARIO EnableWindow
        Sent: (udp_data, node1, node2, SEND)
        Window: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent = 3)) >> ENABLE_CNTR(Window);
        ((Sent = 7)) >> DISABLE_CNTR(Window);
        ((Sent = 10)) >> STOP;
        END
        "#,
        100,
        200,
    );
    let report = bed.runner.run(&mut bed.world, SimDuration::from_secs(5));
    // Window counts datagrams 4,5,6,7 (enabled after 3 was counted,
    // disabled after 7 was counted).
    assert_eq!(report.counter("Window"), Some(4));
}

#[test]
fn assign_incr_decr_reset_semantics() {
    let bed = &mut testbed(
        11,
        r#"
        SCENARIO CounterOps
        Sent: (udp_data, node1, node2, SEND)
        V: (node1)
        (TRUE) >> ENABLE_CNTR(Sent); ASSIGN_CNTR(V, 10);
        ((Sent = 1)) >> INCR_CNTR(V, 5);
        ((Sent = 2)) >> DECR_CNTR(V, 3);
        ((Sent = 3)) >> RESET_CNTR(Sent);
        ((V = 12) && (Sent = 2)) >> FLAG_ERR "V should have been 12 only after Sent=2";
        END
        "#,
        6,
        200,
    );
    let report = bed.runner.run(&mut bed.world, SimDuration::from_secs(2));
    // V: 10 → 15 (Sent=1) → 12 (Sent=2); then Sent reset at 3, counting
    // continues 1,2,3 for datagrams 4,5,6: Sent=2 again fires nothing new
    // (edge already consumed? No: Sent reached 2 again after reset — the
    // condition (Sent=2) went false (3) then true (2) again → DECR fires
    // again: V = 9; Sent=3 reset fires again; datagram 6 gives Sent=1...
    // Wait: after reset at Sent=3 (datagram 3), datagrams 4,5,6 count to
    // 3 and reset again. So V = 10 +5 -3 +5? No: INCR at Sent=1 also
    // re-fires for datagram 4 (Sent 0→1). Final: datagrams 1,2,3 → V=12;
    // 4 → Sent=1 → V=17; 5 → Sent=2 → V=14; 6 → Sent=3 → reset.
    assert_eq!(report.counter("V"), Some(14));
    assert_eq!(report.counter("Sent"), Some(0), "reset twice, ended at 0");
    // The FLAG_ERR fired when V=12 coincided with Sent=2 (datagram 2).
    assert_eq!(report.errors.len(), 1);
}

#[test]
fn set_curtime_and_elapsed_time() {
    let bed = &mut testbed(
        12,
        r#"
        SCENARIO Timing
        Sent: (udp_data, node1, node2, SEND)
        T: (node1)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent = 1)) >> SET_CURTIME(T);
        ((Sent = 5)) >> ELAPSED_TIME(T); STOP;
        END
        "#,
        100,
        200,
    );
    let report = bed.runner.run(&mut bed.world, SimDuration::from_secs(5));
    // 4 datagrams at 1 Mb/s × 200 B = 1.6 ms apart → ~6.4 ms elapsed.
    let elapsed = report.counter("T").expect("T recorded");
    assert!(
        (5_000_000..9_000_000).contains(&elapsed),
        "elapsed {elapsed} ns should be about 6.4 ms"
    );
}

#[test]
fn inactivity_timeout_fires_when_traffic_stops() {
    let bed = &mut testbed(
        13,
        r#"
        SCENARIO Quiet 50msec
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent > 100)) >> STOP;
        END
        "#,
        5, // only five datagrams: traffic dies quickly
        200,
    );
    let report = bed.runner.run(&mut bed.world, SimDuration::from_secs(5));
    assert!(matches!(
        report.stop,
        virtualwire::StopReason::InactivityTimeout
    ));
    assert!(!report.passed(), "inactivity is the failure path");
    assert_eq!(report.counter("Sent"), Some(5));
}

#[test]
fn engines_remain_transparent_for_unmatched_traffic() {
    // A ping/echo exchange on a port the filter table does not match must
    // flow unharmed through fully-armed engines.
    let script = format!(
        "{PREAMBLE}
        SCENARIO Transparent
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent); DROP(udp_data, node1, node2, SEND);
        END
        "
    );
    let tables = compile_script(&script).unwrap();
    let mut world = World::new(14);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    world.add_protocol(
        nodes[1],
        Binding::EtherType(EtherType::IPV4),
        Box::new(vw_netsim::apps::UdpEcho::new(7)),
    );
    let pinger = UdpPinger::new(
        world.host_mac(nodes[1]),
        world.host_ip(nodes[1]),
        7,
        9001,
        SimDuration::from_millis(1),
        64,
        20,
    );
    let pid = world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(pinger),
    );
    let _ = runner.run(&mut world, SimDuration::from_millis(100));
    let pinger = world.protocol::<UdpPinger>(nodes[0], pid).unwrap();
    assert_eq!(pinger.rtts().len(), 20, "no echo packet was harmed");
    // The engines classified them all but matched none.
    let stats = runner.engine(&world, "node1").unwrap().stats();
    assert!(stats.classified >= 40);
    assert_eq!(stats.matched, 0);
    assert_eq!(stats.drops, 0);
}
