//! Model-driven protocol conformance checking on the paper's §6.1/§6.2
//! testbeds: the shipped `tcp_reference` / `rether_reference` FSMs are
//! replayed against real runs. Clean runs conform; seeded faults and
//! implementation bugs each produce a documented, deterministic
//! violation class.

use virtualwire::{compile_script, ConformanceRecord, EngineConfig, Report, Runner};
use vw_analysis::{conformance_pass, rether_reference, tcp_reference, ProtocolModel};
use vw_netsim::{Binding, LinkConfig, SimDuration, World};
use vw_packet::EtherType;
use vw_rether::{RetherConfig, RetherNode};
use vw_tcpstack::{Endpoint, TcpConfig, TcpStack};

const TCP_SCRIPT: &str = include_str!("../scripts/tcp_ss_ca.fsl");
const RETHER_SCRIPT: &str = include_str!("../scripts/rether_failover.fsl");

/// §6.1 variant that drops one mid-flow data segment instead of a
/// SYNACK: a clean handshake, then a seeded loss at the 20th data
/// segment, forcing the sender through fast-retransmit / fast-recovery.
const TCP_DATA_DROP_SCRIPT: &str = r#"
    FILTER_TABLE
    TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
    TCP_ack: (34 2 0x4000), (36 2 0x6000), (47 1 0x10 0x10)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.1
    node2 02:00:00:00:00:02 192.168.1.2
    END
    SCENARIO Seeded_Data_Drop 2sec
    DATA: (TCP_data, node1, node2, SEND)
    ACK: (TCP_ack, node2, node1, RECV)
    (TRUE) >> ENABLE_CNTR( DATA ); ENABLE_CNTR( ACK );
    ((DATA > 19) && (DATA < 21)) >> DROP TCP_data, node1, node2, SEND;
    ((ACK = 60)) >> STOP;
    END
"#;

/// §6.2 variant that kills the token *holder* (after its ack reached the
/// predecessor) instead of the successor: the token dies with node3, the
/// ring falls silent, and the lowest-ranked survivor must regenerate —
/// which the fault-free reference model forbids.
const RETHER_HOLDER_KILL_SCRIPT: &str = r#"
    FILTER_TABLE
    tr_token: (12 2 0x9900), (14 2 0x0001)
    tr_token_ack: (12 2 0x9900), (14 2 0x0010)
    TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.1
    node2 02:00:00:00:00:02 192.168.1.2
    node3 02:00:00:00:00:03 192.168.1.3
    node4 02:00:00:00:00:04 192.168.1.4
    END
    SCENARIO Seeded_Holder_Kill 3sec
    CNT_DATA: (TCP_data, node1, node4, RECV)
    AckFrom3: (tr_token_ack, node3, node2, RECV)
    TokensTo2: (tr_token, node1, node2, RECV)
    (TRUE) >> ENABLE_CNTR( CNT_DATA );
    ((CNT_DATA > 100)) >> ENABLE_CNTR( AckFrom3 );
    ((AckFrom3 = 1)) >> FAIL(node3); ENABLE_CNTR( TokensTo2 ); RESET_CNTR( AckFrom3 );
    ((TokensTo2 = 1)) >> STOP;
    END
"#;

/// Builds the §6.1 two-node TCP testbed (sender on node1, receiver on
/// node2) over `script`, runs it, and returns the report with the TCP
/// reference model's conformance records attached.
fn tcp_conformance(seed: u64, script: &str, buggy: bool) -> Report {
    let tables = compile_script(script).unwrap_or_else(|e| panic!("{e}"));
    let mut world = World::new(seed);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    runner.settle(&mut world);

    let tcp_cfg = TcpConfig {
        bug_never_enter_ca: buggy,
        ..TcpConfig::default()
    };
    let mut server = TcpStack::new(world.host_mac(nodes[1]), world.host_ip(nodes[1]));
    server.listen(0x4000, tcp_cfg);
    world.add_protocol(
        nodes[1],
        Binding::EtherType(EtherType::IPV4),
        Box::new(server),
    );
    let mut client = TcpStack::new(world.host_mac(nodes[0]), world.host_ip(nodes[0]));
    let handle = client.connect(
        tcp_cfg,
        0x6000,
        Endpoint {
            mac: world.host_mac(nodes[1]),
            ip: world.host_ip(nodes[1]),
            port: 0x4000,
        },
    );
    client.send(handle, &vec![0x42u8; 80_000]);
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(client),
    );

    let mut report = runner.run(&mut world, SimDuration::from_secs(10));
    conformance_pass(&[tcp_reference()], runner.tables(), &world, &mut report);
    report
}

/// Builds the §6.2 four-node Rether ring over `script`, runs it, and
/// returns the conformance records for `models`. node1 and node4 carry a
/// `TcpStack` (the flow's ends) as well as a `RetherNode`.
fn rether_conformance(seed: u64, script: &str, models: &[ProtocolModel]) -> Vec<ConformanceRecord> {
    let tables = compile_script(script).unwrap_or_else(|e| panic!("{e}"));
    let mut world = World::new(seed);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let hub = world.add_hub("bus", 5);
    for &n in &nodes {
        world.connect(n, hub, LinkConfig::ethernet_10m());
    }
    let ring: Vec<_> = tables.nodes.iter().map(|n| n.mac).collect();
    for (i, &node) in nodes.iter().enumerate() {
        let cfg = RetherConfig {
            ring: ring.clone(),
            token_send_limit: 3,
            ..RetherConfig::new(ring.clone())
        };
        let mut rether = RetherNode::new(cfg, ring[i]);
        if i == 0 || i == 3 {
            rether.reserve_rt(32 * 1024);
        }
        world.add_hook(node, Box::new(rether));
    }
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    runner.settle(&mut world);

    let tcp_cfg = TcpConfig::default();
    let mut server = TcpStack::new(world.host_mac(nodes[3]), world.host_ip(nodes[3]));
    server.listen(0x4000, tcp_cfg);
    world.add_protocol(
        nodes[3],
        Binding::EtherType(EtherType::IPV4),
        Box::new(server),
    );
    let mut client = TcpStack::new(world.host_mac(nodes[0]), world.host_ip(nodes[0]));
    let handle = client.connect(
        tcp_cfg,
        0x6000,
        Endpoint {
            mac: world.host_mac(nodes[3]),
            ip: world.host_ip(nodes[3]),
            port: 0x4000,
        },
    );
    client.attach_source(handle, 2_000_000, 10_000_000);
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(client),
    );

    let mut report = runner.run(&mut world, SimDuration::from_secs(60));
    conformance_pass(models, runner.tables(), &world, &mut report);
    report.conformance
}

fn violations_of<'a>(records: &'a [ConformanceRecord], node: &str) -> &'a [String] {
    records
        .iter()
        .find(|r| r.node == node)
        .map(|r| r.violations.as_slice())
        .unwrap_or_else(|| panic!("no record for {node}: {records:?}"))
}

#[test]
fn clean_tcp_run_conforms_to_the_reference_model() {
    let records = tcp_conformance(1, TCP_SCRIPT, false).conformance;
    assert!(!records.is_empty(), "the sender must produce a record");
    for r in &records {
        assert!(r.passed, "clean §6.1 run must conform: {r}");
    }
    // The sender drove the machine into congestion avoidance.
    assert!(records.iter().any(|r| r.node == "node1"));
}

#[test]
fn seeded_data_drop_produces_the_fast_retransmit_class() {
    let records = tcp_conformance(4, TCP_DATA_DROP_SCRIPT, false).conformance;
    let v = violations_of(&records, "node1");
    assert!(
        v.contains(&"forbidden event fast-retransmit".to_string()),
        "seeded loss must surface the fast-retransmit class: {records:?}"
    );
    assert!(
        v.contains(&"illegal transition congestion-avoidance -> fast-recovery".to_string())
            || v.contains(&"illegal transition slow-start -> fast-recovery".to_string()),
        "the recovery entry is off the fault-free graph: {records:?}"
    );
}

/// A run the scenario stops while the sender is still inside slow start
/// never emits the mandated phase transition: the `drive`-marked cwnd
/// growth binds the sender to the required state, producing the
/// `required state ... never reached` class.
#[test]
fn truncated_run_violates_the_required_state() {
    let script = TCP_SCRIPT.replace("((ACK_TOTAL = 60)) >> STOP;", "((ACK_TOTAL = 1)) >> STOP;");
    let records = tcp_conformance(2, &script, false).conformance;
    let v = violations_of(&records, "node1");
    assert!(
        v.contains(&"required state congestion-avoidance never reached".to_string()),
        "a sender stopped in slow start must trip the required state: {records:?}"
    );
}

/// `bug_never_enter_ca` keeps exponential growth past ssthresh while
/// *reporting* congestion avoidance — the phase FSM sees a legal
/// trajectory and passes. The FSL window-conservation ledger, fed purely
/// by on-the-wire events, is the checker that catches it. Pinning both
/// halves documents that the two checkers cover complementary classes.
#[test]
fn masked_phase_bug_passes_the_model_but_trips_the_window_ledger() {
    let report = tcp_conformance(2, TCP_SCRIPT, true);
    for r in &report.conformance {
        assert!(
            r.passed,
            "the reported phase trajectory is legal, so the model passes: {r}"
        );
    }
    assert!(
        !report.passed(),
        "the CanTx ledger must still flag the masked bug:\n{}",
        report.render()
    );
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.message.contains("beyond its congestion window")),
        "wrong rule fired: {:?}",
        report.errors
    );
}

#[test]
fn clean_rether_failover_conforms_to_the_reference_model() {
    let records = rether_conformance(1, RETHER_SCRIPT, &[rether_reference()]);
    assert!(
        records.len() >= 3,
        "every surviving ring member produces a record: {records:?}"
    );
    for r in &records {
        assert!(
            r.passed,
            "§6.2 recovery (reconstruction + retransmissions) is legal: {r}"
        );
    }
}

#[test]
fn holder_kill_produces_the_token_regeneration_class() {
    let records = rether_conformance(5, RETHER_HOLDER_KILL_SCRIPT, &[rether_reference()]);
    assert!(
        records.iter().any(|r| r
            .violations
            .contains(&"forbidden event token-regenerated".to_string())),
        "killing the holder must force a forbidden regeneration: {records:?}"
    );
}

#[test]
fn conformance_records_are_deterministic() {
    let a = tcp_conformance(7, TCP_SCRIPT, false).conformance;
    let b = tcp_conformance(7, TCP_SCRIPT, false).conformance;
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "same seed, same records"
    );
}

/// Both reference models on the §6.2 ring, pinned record by record. node1
/// and node4 each hold two state logs (TCP and Rether), so their records
/// read one node's logs together; no other test covers that.
#[test]
fn both_models_on_the_ring_render_their_golden_records() {
    let models = [tcp_reference(), rether_reference()];
    let records = rether_conformance(1, RETHER_SCRIPT, &models);
    let text: Vec<String> = records.iter().map(ToString::to_string).collect();
    assert_eq!(text.join("\n"), RING_GOLDEN, "\n{}", text.join("\n"));
}

const RING_GOLDEN: &str = "\
conformance tcp @ node1: ok
conformance rether @ node1: ok
conformance rether @ node2: ok
conformance rether @ node3: ok
conformance rether @ node4: ok";
