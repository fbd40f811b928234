//! Engine edge cases: runaway rule cascades, receiver-side faults,
//! interacting gates, re-arming edges, and property-based robustness.

use proptest::prelude::*;
use virtualwire::{compile_script, EngineConfig, Runner, StopReason};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, LinkConfig, SimDuration, World};
use vw_packet::EtherType;

const PREAMBLE: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
"#;

fn run_scenario(
    seed: u64,
    scenario: &str,
    count: u64,
) -> (
    World,
    Runner,
    vw_netsim::ProtocolId,
    Vec<vw_netsim::DeviceId>,
) {
    let script = format!("{PREAMBLE}{scenario}");
    let tables = compile_script(&script).unwrap_or_else(|e| panic!("{e}"));
    let mut world = World::new(seed);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    runner.settle(&mut world);
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
        2_000_000,
        200,
        count * 200,
    );
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    (world, runner, sink, nodes)
}

#[test]
fn mutually_recursive_rules_quench_instead_of_looping() {
    // A and B chase each other — naively this loops forever. The
    // engine's evaluation discipline (a popped counter re-evaluates ALL
    // its terms against current values; edges fire only on stored-status
    // transitions) collapses the oscillation into a fixpoint. This is an
    // emergent convergence property worth pinning down: no hang, no
    // error, and the chase stops after one exchange.
    let (mut world, runner, _, _) = run_scenario(
        1,
        r#"
        SCENARIO Chase
        A: (node1)
        B: (node1)
        ((B >= A)) >> INCR_CNTR(A, 1);
        ((A > B)) >> INCR_CNTR(B, 1);
        END
        "#,
        3,
    );
    let report = runner.run(&mut world, SimDuration::from_millis(200));
    assert!(report.passed(), "{report:?}");
    assert_eq!(report.counter("A"), Some(2));
    assert_eq!(report.counter("B"), Some(1));
}

#[test]
fn cascade_budget_is_enforced() {
    // The budget itself is defense-in-depth (simple rule cycles quench on
    // their own — see above); verify the guard fires by setting it to
    // zero so the very first counter cascade trips it.
    let script = format!(
        "{PREAMBLE}
        SCENARIO ZeroBudget
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        END"
    );
    let tables = compile_script(&script).unwrap();
    let mut world = World::new(17);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(
        &mut world,
        tables,
        EngineConfig {
            cascade_budget: 0,
            ..EngineConfig::default()
        },
    );
    runner.settle(&mut world);
    let flooder = UdpFlooder::new(
        world.host_mac(nodes[1]),
        world.host_ip(nodes[1]),
        0x6363,
        9000,
        2_000_000,
        200,
        600,
    );
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    let report = runner.run(&mut world, SimDuration::from_millis(100));
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.message.contains("cascade exceeded its budget")),
        "zero budget must trip on the first counter update: {report:?}"
    );
}

#[test]
fn self_quenching_oscillator_reaches_a_fixpoint() {
    // Edge semantics make this *look* cyclic but it settles: (V = 1)
    // stays level-true across the INCR/DECR exchange, so its edge fires
    // only once. The engine must neither hang nor flag anything.
    let (mut world, runner, _, _) = run_scenario(
        31,
        r#"
        SCENARIO Oscillator
        Sent: (udp_data, node1, node2, SEND)
        V: (node1)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((V = 0) && (Sent > 0)) >> INCR_CNTR(V, 1);
        ((V = 1)) >> DECR_CNTR(V, 1);
        END
        "#,
        3,
    );
    let report = runner.run(&mut world, SimDuration::from_millis(200));
    assert!(report.passed(), "{report:?}");
    assert_eq!(report.counter("V"), Some(1), "stable fixpoint");
}

#[test]
fn delay_and_reorder_work_on_the_receive_side() {
    let (mut world, runner, sink, nodes) = run_scenario(
        2,
        r#"
        SCENARIO RecvSideFaults
        Rcvd: (udp_data, node1, node2, RECV)
        (TRUE) >> ENABLE_CNTR(Rcvd);
        ((Rcvd <= 2)) >> DELAY(udp_data, node1, node2, RECV, 15msec);
        ((Rcvd > 2) && (Rcvd <= 8)) >> REORDER(udp_data, node1, node2, RECV, 3, (2 1 0));
        END
        "#,
        12,
    );
    let report = runner.run(&mut world, SimDuration::from_secs(1));
    assert!(report.passed());
    let stats = runner.engine(&world, "node2").unwrap().stats();
    assert_eq!(stats.delays, 2, "first two datagrams held");
    assert_eq!(stats.reorders, 6, "datagrams 3..8 buffered in two batches");
    let frames = world.protocol::<UdpSink>(nodes[1], sink).unwrap().frames();
    assert_eq!(frames, 12, "everything still arrives");
}

#[test]
fn drop_wins_over_later_gates() {
    // Two gates match the same packet: DROP (first rule) and DUP (second).
    // The drop consumes the packet before duplication can happen.
    let (mut world, runner, sink, nodes) = run_scenario(
        3,
        r#"
        SCENARIO DropBeatsDup
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent = 2)) >> DROP(udp_data, node1, node2, SEND);
        ((Sent = 2)) >> DUP(udp_data, node1, node2, SEND);
        END
        "#,
        5,
    );
    let report = runner.run(&mut world, SimDuration::from_millis(500));
    assert!(report.passed());
    let stats = runner.engine(&world, "node1").unwrap().stats();
    assert_eq!(stats.drops, 1);
    assert_eq!(stats.dups, 0, "the packet was gone before the DUP gate");
    let frames = world.protocol::<UdpSink>(nodes[1], sink).unwrap().frames();
    assert_eq!(frames, 4);
}

#[test]
fn modify_then_dup_compose() {
    // MODIFY mutates in place and scanning continues: a later DUP gate
    // duplicates the already-mutated packet. (0xBEEF, not 0xFFFF: overwriting zeros
    // with 0xFFFF is one's-complement-checksum-neutral!)
    let (mut world, runner, sink, nodes) = run_scenario(
        4,
        r#"
        SCENARIO ModifyThenDup
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent = 1)) >> MODIFY(udp_data, node1, node2, SEND, (50 2 0xBEEF));
        ((Sent = 1)) >> DUP(udp_data, node1, node2, SEND);
        END
        "#,
        3,
    );
    let report = runner.run(&mut world, SimDuration::from_millis(500));
    assert!(report.passed());
    let stats = runner.engine(&world, "node1").unwrap().stats();
    assert_eq!(stats.modifies, 1);
    assert_eq!(stats.dups, 1);
    // Both copies of datagram 1 were corrupted (checksum broken), so the
    // verifying sink accepted only datagrams 2 and 3.
    let frames = world.protocol::<UdpSink>(nodes[1], sink).unwrap().frames();
    assert_eq!(frames, 2);
}

#[test]
fn edges_rearm_after_reset() {
    // A RESET-based oscillator: the same edge fires once per datagram.
    let (mut world, runner, _, _) = run_scenario(
        5,
        r#"
        SCENARIO Rearm
        Sent: (udp_data, node1, node2, SEND)
        Fires: (node1)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent = 1)) >> RESET_CNTR(Sent); INCR_CNTR(Fires, 1);
        ((Fires = 10)) >> STOP;
        END
        "#,
        50,
    );
    let report = runner.run(&mut world, SimDuration::from_secs(1));
    assert!(matches!(report.stop, StopReason::StopAction(_)));
    assert_eq!(report.counter("Fires"), Some(10));
}

#[test]
fn not_and_or_conditions_evaluate() {
    let (mut world, runner, _, _) = run_scenario(
        6,
        r#"
        SCENARIO Logic
        Sent: (udp_data, node1, node2, SEND)
        A: (node1)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent = 3) || (Sent = 5)) >> INCR_CNTR(A, 1);
        (!(Sent < 8) && !(Sent > 8)) >> INCR_CNTR(A, 10);
        END
        "#,
        10,
    );
    let report = runner.run(&mut world, SimDuration::from_millis(500));
    // OR fired at 3 and at 5 (two separate edges), NOT-AND fired at exactly 8.
    assert_eq!(report.counter("A"), Some(12));
}

#[test]
fn report_counters_read_at_home_nodes() {
    let (mut world, runner, _, _) = run_scenario(
        7,
        r#"
        SCENARIO Homes
        Sent: (udp_data, node1, node2, SEND)
        Rcvd: (udp_data, node1, node2, RECV)
        (TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd);
        END
        "#,
        10,
    );
    let report = runner.run(&mut world, SimDuration::from_millis(500));
    let sent_row = report
        .counters
        .iter()
        .find(|(_, c, _)| c == "Sent")
        .unwrap();
    let rcvd_row = report
        .counters
        .iter()
        .find(|(_, c, _)| c == "Rcvd")
        .unwrap();
    assert_eq!(sent_row.0, "node1");
    assert_eq!(rcvd_row.0, "node2");
    assert_eq!(sent_row.2, 10);
    assert_eq!(rcvd_row.2, 10);
}

/// Sends one 0x4242 frame to `send_to` the moment it starts, and counts
/// the frames it is handed.
struct Eager {
    send_to: Option<vw_packet::MacAddr>,
    seen: u64,
}

impl vw_netsim::Protocol for Eager {
    fn name(&self) -> &str {
        "eager"
    }

    fn on_start(&mut self, ctx: &mut vw_netsim::Context<'_>) {
        let Some(dst) = self.send_to else {
            return;
        };
        let frame = vw_packet::EthernetBuilder::new()
            .dst(dst)
            .src(ctx.mac())
            .ethertype(EtherType(0x4242))
            .payload(&[0; 46])
            .build();
        ctx.send(frame);
    }

    fn on_frame(&mut self, _: &mut vw_netsim::Context<'_>, _: vw_packet::Frame) {
        self.seen += 1;
    }
}

#[test]
fn a_frame_sent_before_the_control_engine_starts_passes_through() {
    // The protocol is added before the engines, so its `Start` is delivered
    // first: its frame meets a control engine that holds the tables but has
    // not installed them. It must pass, uncounted, as it would on any node
    // still waiting for its `Init` (it used to index an empty counter
    // vector and panic).
    let tables = compile_script(
        "FILTER_TABLE
        p: (12 2 0x4242)
        END
        NODE_TABLE
        node1 02:00:00:00:00:01 192.168.1.2
        node2 02:00:00:00:00:02 192.168.1.3
        END
        SCENARIO Early 10msec
        C: (p, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(C);
        END",
    )
    .unwrap();
    let mut world = World::new(3);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let eager = |send_to| Box::new(Eager { send_to, seen: 0 });
    let node2_mac = world.host_mac(nodes[1]);
    world.add_protocol(nodes[0], Binding::All, eager(Some(node2_mac)));
    let listener = world.add_protocol(nodes[1], Binding::All, eager(None));
    let runner = Runner::try_install(&mut world, tables, EngineConfig::default()).unwrap();
    assert!(!runner.engine(&world, "node1").unwrap().initialized());

    let report = runner.run(&mut world, SimDuration::from_millis(50));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(
        report.counter("C"),
        Some(0),
        "the early frame is not counted"
    );
    assert_eq!(report.total_stats().classified, 0);
    for node in ["node1", "node2"] {
        assert!(runner.engine(&world, node).unwrap().initialized(), "{node}");
    }
    let listener = world.protocol::<Eager>(nodes[1], listener).unwrap();
    assert_eq!(listener.seen, 1, "the early frame reached node2");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Property: for any single scripted DROP position within a flow, the
    /// sink receives exactly (count - 1) datagrams and the engine counts
    /// exactly one drop.
    #[test]
    fn any_single_drop_position_is_exact(pos in 1u64..20, seed in 0u64..1000) {
        let scenario = format!(
            "SCENARIO PropDrop
             Sent: (udp_data, node1, node2, SEND)
             (TRUE) >> ENABLE_CNTR(Sent);
             ((Sent = {pos})) >> DROP(udp_data, node1, node2, SEND);
             END"
        );
        let (mut world, runner, sink, nodes) = run_scenario(seed, &scenario, 20);
        let report = runner.run(&mut world, SimDuration::from_millis(500));
        prop_assert!(report.passed());
        prop_assert_eq!(report.counter("Sent"), Some(20));
        let frames = world.protocol::<UdpSink>(nodes[1], sink).unwrap().frames();
        prop_assert_eq!(frames, 19);
        prop_assert_eq!(runner.engine(&world, "node1").unwrap().stats().drops, 1);
    }
}
