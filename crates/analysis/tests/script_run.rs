//! End-to-end: a scenario script drives a real engine-instrumented run.
//!
//! The script injects two UDP datagrams into node1's stack; the FSL
//! scenario counts them (they traverse the engine hook chain like any
//! stack traffic) and stops the run after the second send. Expectations
//! are then judged against the packet trace, covering every verdict
//! class.

use virtualwire::{EngineConfig, Runner};
use vw_analysis::script::{evaluate, install, Script, ScriptVerdict};
use vw_netsim::apps::UdpSink;
use vw_netsim::{Binding, LinkConfig, SimDuration, World};
use vw_packet::EtherType;

const FSL: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
    SCENARIO Scripted_Stimulus
    Sent: (udp_data, node1, node2, SEND)
    (TRUE) >> ENABLE_CNTR(Sent);
    ((Sent = 2)) >> STOP;
    END
"#;

const SCRIPT: &str = r#"
    # two scripted datagrams; the scenario stops after the second send
    @1ms inject stack node1 udp node1 -> node2 sport 9000 dport 25443 payload-hex 6869
    @2ms inject stack node1 udp node1 -> node2 sport 9000 dport 25443 payload-hex 6a6b
    # the first datagram reaches node2 within a 500us tolerance window
    @1ms..1500us expect recv node2 udp dport == 25443 payload-contains-hex 6869
    # node1's stack handed matching frames to the wire
    @1ms..2100us expect send node1 udp dport == 25443
    # nothing TCP may reach node2, ever
    @0s..1s expect-none recv node2 tcp
    # the scenario counter saw both scripted sends ...
    @10ms assert-counter Sent == 2
    # ... but not five (deliberate mismatch)
    @10ms assert-counter Sent >= 5
    # deliberate timing violation: the datagrams exist, but at ~1-2ms
    @5ms..6ms expect recv node2 udp dport == 25443
    # deliberate miss: no such port anywhere
    @0s..1s expect recv node2 udp dport == 9999
"#;

#[test]
fn scripted_stimulus_drives_engine_and_yields_typed_verdicts() {
    let tables = virtualwire::compile_script(FSL).expect("FSL compiles");

    let mut world = World::new(7);
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

    let script = Script::parse(SCRIPT).expect("script parses");
    let scheduled = install(&script, &mut world, runner.tables()).expect("installs");
    assert_eq!(scheduled, 2, "both inject directives scheduled");

    let report = runner.run(&mut world, SimDuration::from_secs(1));
    assert_eq!(
        report.counter("Sent"),
        Some(2),
        "engine counted the scripted sends"
    );

    let sink = world.protocol::<UdpSink>(nodes[1], sink).unwrap();
    assert!(
        sink.frames() >= 1,
        "at least the first datagram was delivered"
    );

    let verdicts = evaluate(&script, &world, runner.tables(), &report);
    let labels: Vec<&str> = verdicts.iter().map(ScriptVerdict::label).collect();
    assert_eq!(
        labels,
        [
            "pass",             // recv node2 within tolerance
            "pass",             // send node1
            "pass",             // expect-none tcp
            "pass",             // Sent == 2
            "counter-mismatch", // Sent >= 5
            "timing-violation", // right frame, wrong window
            "missing-expected", // no such port
        ]
    );

    // The mismatch carries the observed value.
    let ScriptVerdict::CounterMismatch {
        observed, counter, ..
    } = &verdicts[4]
    else {
        panic!("expected CounterMismatch, got {}", verdicts[4]);
    };
    assert_eq!(counter, "Sent");
    assert_eq!(*observed, Some(2));

    // The timing violation pins the nearest matching frame, which lives
    // around the 1-2ms injections — well before the 5ms window.
    let ScriptVerdict::TimingViolation { time, frame, .. } = &verdicts[5] else {
        panic!("expected TimingViolation, got {}", verdicts[5]);
    };
    assert!(
        time.as_nanos() < 5_000_000,
        "nearest match precedes the window"
    );
    assert_eq!(frame.udp().expect("udp frame").dst_port(), 25443);

    // Verdicts refer back to their directive index for reporting.
    assert_eq!(verdicts[5].directive(), 7);
    assert!(!verdicts[5].passed());
}

#[test]
fn install_rejects_unknown_nodes_with_directive_index() {
    let tables = virtualwire::compile_script(FSL).expect("FSL compiles");
    let mut world = World::new(1);
    let _nodes = Runner::create_hosts(&mut world, &tables);

    let script = Script::parse("@1ms inject stack ghost udp node1 -> node2 dport 25443\n").unwrap();
    let err = install(&script, &mut world, &tables).expect_err("unknown node");
    assert_eq!(err.directive, 0);
    assert!(err.message.contains("ghost"), "{err}");
}

#[test]
fn hex_injections_validate_frames_at_install_time() {
    let tables = virtualwire::compile_script(FSL).expect("FSL compiles");
    let mut world = World::new(1);
    let _nodes = Runner::create_hosts(&mut world, &tables);

    // 4 bytes is not a well-formed Ethernet frame.
    let script = Script::parse("@1ms inject wire node2 hex deadbeef\n").unwrap();
    let err = install(&script, &mut world, &tables).expect_err("short frame");
    assert_eq!(err.directive, 0);
}

#[test]
fn oversized_udp_payload_is_refused_and_nothing_is_scheduled() {
    let tables = virtualwire::compile_script(FSL).expect("FSL compiles");
    let mut world = World::new(1);
    let _nodes = Runner::create_hosts(&mut world, &tables);
    let pending = world.pending_events();

    // 65 507 bytes is the most one datagram carries: one more does not
    // fit the IP total-length field.
    let inject = |bytes: usize| {
        format!(
            "@2ms inject stack node1 udp node1 -> node2 dport 25443 payload-hex {}\n",
            "ab".repeat(bytes)
        )
    };
    let good = "@1ms inject stack node1 udp node1 -> node2 dport 25443 payload-hex 6869\n";
    let script = Script::parse(&format!("{good}{}", inject(65_508))).expect("script parses");
    let err = install(&script, &mut world, &tables).expect_err("oversized payload");
    assert_eq!(err.directive, 1);
    assert!(err.message.contains("65508-byte payload"), "{err}");
    assert_eq!(
        world.pending_events(),
        pending,
        "the valid directive before the failing one must not stay scheduled"
    );

    let script = Script::parse(&format!("{good}{}", inject(65_507))).expect("script parses");
    assert_eq!(install(&script, &mut world, &tables), Ok(2));
    assert_eq!(world.pending_events(), pending + 2);
}
