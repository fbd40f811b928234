//! Flight-recorder integration: a scripted DROP-after-3-packets scenario
//! whose flagged error must unwind — via `Report::explain` — into the
//! documented causal chain
//! `classified → counter → term → condition → action`, plus metrics and
//! pcap assertions over the same run.

use virtualwire::{
    action_label, compile_script, pcap, EngineConfig, ObsKind, ObsLevel, Report, Runner,
};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, LinkConfig, SimDuration, World};
use vw_packet::EtherType;

const SCRIPT: &str = r#"
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

/// Runs the scenario at the given recorder level; returns the report and
/// the world (for trace export).
fn run_scenario(obs: ObsLevel) -> (Report, World) {
    let tables = compile_script(SCRIPT).expect("script compiles");
    let mut world = World::new(7);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(
        &mut world,
        tables,
        EngineConfig {
            obs,
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
        120,
        20 * 120,
    );
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    let report = runner.run(&mut world, SimDuration::from_secs(1));
    (report, world)
}

#[test]
fn explain_reconstructs_the_documented_chain() {
    let (report, _world) = run_scenario(ObsLevel::Full);

    // The FLAG_ERR fired exactly once, alongside the DROP.
    assert_eq!(report.errors.len(), 1, "report: {report}");
    let error = &report.errors[0];
    assert!(error.message.contains("third packet dropped"));

    let chain = report
        .explain(error)
        .expect("a Full-level run explains its errors");
    let labels = chain.kind_labels();
    assert_eq!(
        labels,
        vec![
            "classified",
            "counter",
            "term",
            "condition",
            "action",
            "action"
        ],
        "chain: {}",
        chain.render(&report.symbols)
    );

    // The chain's content, event by event: the third matched datagram
    // bumped Sent 2 -> 3, the term flipped, the condition fired, FLAG_ERR
    // (edge) ran, then DROP (gate) consumed that very packet.
    match chain.events[1].kind {
        ObsKind::CounterUpdated { old, new, .. } => {
            assert_eq!((old, new), (2, 3));
        }
        other => panic!("expected CounterUpdated, got {other:?}"),
    }
    let kinds: Vec<&str> = chain
        .events
        .iter()
        .filter_map(|e| e.action_kind(&report.symbols).map(action_label))
        .collect();
    assert_eq!(kinds, vec!["FLAG_ERR", "DROP"]);

    // Rendering resolves script names.
    let rendered = chain.render(&report.symbols);
    assert!(rendered.contains("udp_data"), "rendered: {rendered}");
    assert!(rendered.contains("Sent"), "rendered: {rendered}");
    assert!(rendered.contains("node1"), "rendered: {rendered}");

    // The Display impl embeds the chain under the error line.
    let text = report.to_string();
    assert!(text.contains("third packet dropped"));
    assert!(text.contains("classified as udp_data"), "display: {text}");

    // fault_events sees exactly one packet fault: the DROP.
    let faults: Vec<_> = report.fault_events().collect();
    assert_eq!(faults.len(), 1);
}

#[test]
fn metrics_snapshot_covers_the_run() {
    let (report, _world) = run_scenario(ObsLevel::Faults);
    let m = &report.metrics();

    assert_eq!(m.counter("node1.drops"), Some(1));
    assert_eq!(m.counter("node1.filter_hits.udp_data"), Some(6));
    assert_eq!(m.gauge("node1.counter.Sent"), Some(6));
    assert!(m.counter("node1.control_sent_bytes").unwrap() > 0);
    assert!(m.counter("node2.control_received_bytes").unwrap() > 0);
    let cascade = m
        .histogram("node1.cascade_depth")
        .expect("Faults level records cascade depths");
    assert!(cascade.count() >= 6);
    assert!(
        m.histogram("node1.classify_to_action_ns").is_some(),
        "jsonl: {}",
        m.to_jsonl()
    );

    // The JSONL snapshot is sorted and mentions every node.
    let jsonl = m.to_jsonl();
    assert!(jsonl.contains("\"name\":\"node1.classified\""));
    assert!(jsonl.contains("\"name\":\"node2.classified\""));
}

#[test]
fn off_records_nothing_and_still_reports() {
    let (report, _world) = run_scenario(ObsLevel::Off);
    assert!(report.events.is_empty(), "Off must record no events");
    assert_eq!(report.errors.len(), 1);
    assert!(
        report.explain(&report.errors[0]).is_none(),
        "no events, no chain"
    );
    // Aggregate metrics still exist (they come from EngineStats, not the
    // event stream) ...
    let m = report.metrics();
    assert_eq!(m.counter("node1.drops"), Some(1));
    // ... but the Faults-level histograms do not.
    assert!(m.histogram("node1.cascade_depth").is_none());
}

#[test]
fn faults_level_skips_the_full_stream() {
    let (report, _world) = run_scenario(ObsLevel::Faults);
    assert!(
        !report.events.is_empty(),
        "Faults records conditions/actions"
    );
    assert!(report.events.iter().all(|e| matches!(
        e.kind,
        ObsKind::ConditionFired { .. } | ObsKind::ActionTriggered { .. }
    )));
    // explain still finds the firing, but the chain has no classification
    // prefix.
    let chain = report.explain(&report.errors[0]).unwrap();
    assert!(chain.kind_labels().starts_with(&["condition"]));
}

#[test]
fn trace_exports_to_pcap_with_control_traffic() {
    let (_report, world) = run_scenario(ObsLevel::Off);
    let capture = pcap::export_trace(world.trace());
    let packets = pcap::parse(&capture).expect("capture parses");
    assert!(!packets.is_empty());
    // The wire view includes both the monitored UDP data and the 0x88B5
    // control plane (Init, CounterUpdate, ...).
    let ethertype = |p: &pcap::PcapPacket| u16::from_be_bytes([p.bytes[12], p.bytes[13]]);
    assert!(packets.iter().any(|p| ethertype(p) == 0x88B5));
    assert!(packets.iter().any(|p| ethertype(p) == 0x0800));
    // Timestamps are monotone (trace order is time order).
    assert!(packets.windows(2).all(|w| w[0].time_ns <= w[1].time_ns));
}

// ---------------------------------------------------------------------
// Control-plane degradation in the flight recorder
// ---------------------------------------------------------------------

/// Two counters compared across nodes: every increment forwards a
/// sequenced CounterUpdate over the wire, giving the impaired control
/// plane real traffic. The condition itself can never fire.
const STALE_SCRIPT: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
    SCENARIO StaleWatch
    Sent: (udp_data, node1, node2, SEND)
    Rcvd: (udp_data, node1, node2, RECV)
    (TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd);
    ((Sent = Rcvd) && (Sent > 1000)) >> FLAG_ERR "unreachable";
    END
"#;

/// Heavy control-plane loss against a deliberately twitchy staleness
/// threshold (300µs, below the first RTO), so receiver-side sequence
/// gaps freeze before retransmission can fill them.
fn run_degraded(seed: u64) -> Report {
    let tables = compile_script(STALE_SCRIPT).expect("script compiles");
    let mut world = World::new(seed);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(
        &mut world,
        tables,
        EngineConfig {
            obs: ObsLevel::Faults,
            control: virtualwire::ControlPlaneConfig {
                staleness: SimDuration::from_micros(300),
                initial_rto: SimDuration::from_millis(1),
                max_rto: SimDuration::from_millis(4),
            },
            ..EngineConfig::default()
        },
    );
    assert!(runner.settle(&mut world), "control plane must settle");
    world.set_control_impairment(vw_netsim::ControlImpairment {
        drop: 0.5,
        ..vw_netsim::ControlImpairment::none()
    });

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
        5_000_000,
        200,
        40 * 200,
    );
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    runner.run(&mut world, SimDuration::from_millis(100))
}

#[test]
fn stale_peer_degradation_is_explainable() {
    let report = run_degraded(7);

    // The run must not pass, and the degradation is a flagged diagnostic.
    assert!(!report.passed(), "degraded run must not pass");
    let stats = report.total_stats();
    assert!(stats.control_stale_degradations >= 1, "stats: {stats:?}");

    // A receiver-side freeze is a condition-less error ...
    let frozen = report
        .errors
        .iter()
        .find(|e| e.condition.is_none() && e.message.contains("frozen"))
        .expect("receiver-side freeze must be flagged");

    // ... that explain() anchors to the recorded PeerDegraded event.
    let chain = report
        .explain(frozen)
        .expect("a Faults-level run explains its degradations");
    assert!(
        chain.kind_labels().contains(&"degraded"),
        "chain: {}",
        chain.render(&report.symbols)
    );
    let rendered = chain.render(&report.symbols);
    assert!(rendered.contains("stale"), "rendered: {rendered}");

    // The Display output carries the diagnostic too — a human reading the
    // report sees the degradation, not a silent verdict.
    let text = report.to_string();
    assert!(text.contains("control-plane staleness"), "display: {text}");
}

#[test]
fn reliability_counters_appear_in_the_metrics_export() {
    let report = run_degraded(7);
    let m = &report.metrics();

    // Per-node reliability counters exist for every node ...
    for node in ["node1", "node2"] {
        for metric in [
            "control_retransmits",
            "control_dup_suppressed",
            "control_reorder_buffered",
            "control_stale_degradations",
        ] {
            assert!(
                m.counter(&format!("{node}.{metric}")).is_some(),
                "missing {node}.{metric}"
            );
        }
    }
    // ... and under 50% loss the layer demonstrably worked.
    let total = |metric: &str| {
        ["node1", "node2"]
            .iter()
            .map(|n| m.counter(&format!("{n}.{metric}")).unwrap())
            .sum::<u64>()
    };
    assert!(total("control_retransmits") > 0);
    assert!(total("control_stale_degradations") > 0);

    // The JSONL snapshot (the artifact tooling consumes) carries them.
    let jsonl = m.to_jsonl();
    assert!(jsonl.contains("control_retransmits"), "jsonl: {jsonl}");
    assert!(jsonl.contains("control_stale_degradations"));
}
