//! Golden text for everything the flight recorder renders: one line per
//! event kind, a causal chain, the run's timeline (`Report::events`) and the
//! report's `Display` with the chain embedded under its error. The events
//! come from real runs and are picked by `kind_label`, so this file names
//! no event constructor and pins the rendered bytes across any reshape of
//! the record.

use virtualwire::{compile_script, EngineConfig, ObsEvent, ObsLevel, Report, Runner};
use vw_analysis::script::{evaluate, Script, ScriptVerdict};
use vw_analysis::state_events;
use vw_fsl::{NodeId, TableSet};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, ControlImpairment, LinkConfig, SimDuration, SimTime, World};
use vw_obs::ProtoAspect;
use vw_packet::EtherType;

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

/// `Rcvd` is homed on node2 and the action it triggers runs on node3, so
/// the run records control sends and deliveries.
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

/// A cross-node comparison whose updates an impaired control plane loses,
/// so a receiver freezes its peer.
const STALE_WATCH: &str = r#"
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

/// Runs `script` under a UDP flood from its first node to its second.
/// `impair` is applied to the control plane once the tables are installed.
fn run(
    script: &str,
    seed: u64,
    datagrams: u64,
    cfg: EngineConfig,
    impair: Option<ControlImpairment>,
    deadline: SimDuration,
) -> (Report, World, TableSet) {
    let tables = compile_script(script).expect("script compiles");
    let mut world = World::new(seed);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 8);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables.clone(), cfg);
    assert!(runner.settle(&mut world), "control plane must settle");
    if let Some(impair) = impair {
        world.set_control_impairment(impair);
    }
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
    let report = runner.run(&mut world, deadline);
    (report, world, tables)
}

fn full() -> EngineConfig {
    EngineConfig {
        obs: ObsLevel::Full,
        ..EngineConfig::default()
    }
}

fn drop_after_three() -> (Report, World, TableSet) {
    run(
        DROP_AFTER_THREE,
        7,
        20,
        full(),
        None,
        SimDuration::from_secs(1),
    )
}

/// The first event of each kind in `events`, rendered, in `labels` order.
fn first_of_each(events: &[ObsEvent], labels: &[&str], report: &Report) -> Vec<String> {
    labels
        .iter()
        .map(|label| {
            events
                .iter()
                .find(|e| e.kind_label() == *label)
                .unwrap_or_else(|| panic!("no {label} event recorded"))
                .render(&report.symbols)
        })
        .collect()
}

/// A golden literal opens with a newline so its first line keeps its
/// indentation.
fn golden(literal: &str) -> &str {
    literal
        .strip_prefix('\n')
        .expect("golden literals open with a newline")
}

#[test]
fn every_event_kind_renders_its_golden_line() {
    let (report, _, _) = run(REMOTE_FAIL, 2, 10, full(), None, SimDuration::from_secs(1));
    let mut lines = first_of_each(
        &report.events,
        &[
            "classified",
            "counter",
            "term",
            "condition",
            "action",
            "ctrl-sent",
            "ctrl-delivered",
        ],
        &report,
    );

    let (degraded, _, _) = run(
        STALE_WATCH,
        7,
        40,
        EngineConfig {
            obs: ObsLevel::Faults,
            control: virtualwire::ControlPlaneConfig {
                staleness: SimDuration::from_micros(300),
                initial_rto: SimDuration::from_millis(1),
                max_rto: SimDuration::from_millis(4),
            },
            ..EngineConfig::default()
        },
        Some(ControlImpairment {
            drop: 0.5,
            ..ControlImpairment::none()
        }),
        SimDuration::from_millis(100),
    );
    lines.extend(first_of_each(&degraded.events, &["degraded"], &degraded));

    let state = state_events(
        &[(SimTime::from_nanos(1_500_000), ProtoAspect::Cwnd, 2920)],
        NodeId(1),
    );
    lines.extend(first_of_each(&state, &["state"], &report));

    assert_eq!(
        lines.join("\n"),
        golden(GOLDEN_LINES),
        "\n{}",
        lines.join("\n")
    );
}

const GOLDEN_LINES: &str = r"
0.000100s node1 #1 classified as udp_data (Send, 242 B)
0.000147s node2 #1 counter Rcvd 0 -> 1
0.003347s node2 #3 term#0 -> true
0.000052s node2 #0 condition#0 fired
0.000052s node2 #0 action#0 COUNTER_OP triggered
0.003347s node2 #3 control seq 1 (ack 0) -> node3
0.003364s node3 #0 control seq 1 (ack 0) delivered from node2
0.002064s node1 #2 peer node2 stale: remote terms frozen at last-known status
0.001500s node2 #0 state cwnd -> 2920";

#[test]
fn chain_timeline_and_report_render_their_golden_text() {
    let (report, _, _) = drop_after_three();
    assert_eq!(report.errors.len(), 1, "report: {report}");

    let chain = report.explain(&report.errors[0]).expect("Full explains");
    let rendered = chain.render(&report.symbols);
    assert_eq!(rendered, golden(GOLDEN_CHAIN), "\n{rendered}");

    let timeline: String = report
        .events
        .iter()
        .map(|e| e.render(&report.symbols) + "\n")
        .collect();
    assert_eq!(timeline, golden(GOLDEN_TIMELINE), "\n{timeline}");

    // The report embeds the chain, unchanged, under its error line.
    let display = report.to_string();
    let expected = golden(GOLDEN_REPORT).replace("<chain>\n", golden(GOLDEN_CHAIN));
    assert_eq!(display, expected, "\n{display}");
}

const GOLDEN_CHAIN: &str = r"
  ┌ 0.003300s node1 #3 classified as udp_data (Send, 242 B)
  └─▶ 0.003300s node1 #3 counter Sent 2 -> 3
  └─▶ 0.003300s node1 #3 term#0 -> true
  └─▶ 0.003300s node1 #3 condition#1 fired
  └─▶ 0.003300s node1 #3 action#2 FLAG_ERR triggered
  └─▶ 0.003300s node1 #3 action#1 DROP triggered
";
const GOLDEN_TIMELINE: &str = r"
0.000000s node1 #0 condition#0 fired
0.000000s node1 #0 action#0 COUNTER_OP triggered
0.000100s node1 #1 classified as udp_data (Send, 242 B)
0.000100s node1 #1 counter Sent 0 -> 1
0.000147s node2 #1 classified as udp_data (Recv, 242 B)
0.001700s node1 #2 classified as udp_data (Send, 242 B)
0.001700s node1 #2 counter Sent 1 -> 2
0.001747s node2 #2 classified as udp_data (Recv, 242 B)
0.003300s node1 #3 classified as udp_data (Send, 242 B)
0.003300s node1 #3 counter Sent 2 -> 3
0.003300s node1 #3 term#0 -> true
0.003300s node1 #3 condition#1 fired
0.003300s node1 #3 action#2 FLAG_ERR triggered
0.003300s node1 #3 action#1 DROP triggered
0.004900s node1 #4 classified as udp_data (Send, 242 B)
0.004900s node1 #4 counter Sent 3 -> 4
0.004900s node1 #4 term#0 -> false
0.004947s node2 #3 classified as udp_data (Recv, 242 B)
0.006500s node1 #5 classified as udp_data (Send, 242 B)
0.006500s node1 #5 counter Sent 4 -> 5
0.006547s node2 #4 classified as udp_data (Recv, 242 B)
0.008100s node1 #6 classified as udp_data (Send, 242 B)
0.008100s node1 #6 counter Sent 5 -> 6
0.008100s node1 #6 term#1 -> true
0.008100s node1 #6 condition#2 fired
0.008100s node1 #6 action#3 STOP triggered
";
const GOLDEN_REPORT: &str = r"
scenario DropAfterThree: stopped: STOP fired at node1 (condition 2) after 8.000ms
verdict: FAIL
error: [0.003300s] node1: third packet dropped
<chain>
counter Sent @ node1 = 6
engine node1: classified 6 matched 6 rules-scanned 6 index-hits 6 residual 0 max-cascade 1 ctrl-sent 2/366B ctrl-recv 1/31B retx 0 dup-suppressed 0 reorder-buffered 0 stale-degradations 0
engine node2: classified 4 matched 4 rules-scanned 4 index-hits 4 residual 0 max-cascade 0 ctrl-sent 1/31B ctrl-recv 1/300B retx 0 dup-suppressed 0 reorder-buffered 0 stale-degradations 0
";

/// The report's timeline and a script verdict each hand out the cascade
/// of one `(node, frame_seq)`; both are the same event list.
#[test]
fn explain_seq_timeline_chain_and_verdict_slice_agree() {
    let (report, world, tables) = drop_after_three();
    let dropped = report.explain(&report.errors[0]).expect("Full explains");
    let node1 = tables.node_by_name("node1").unwrap();
    assert_eq!(dropped.node, node1);

    // The dropped third datagram never reaches the wire, so the first
    // frame node1 sends after 4.5 ms is the fourth: the verdict's slice is
    // that frame's cascade.
    let script = Script::parse("@4500us..1s expect-none send node1 udp dport == 25443\n")
        .expect("script parses");
    let verdicts = evaluate(&script, &world, &tables, &report);
    let ScriptVerdict::UnexpectedFrame { causal, .. } = &verdicts[0] else {
        panic!("expected UnexpectedFrame, got {}", verdicts[0]);
    };
    assert!(!causal.is_empty());

    let seq = dropped.frame_seq + 1;
    assert_eq!(&report.explain_seq(node1, seq).events, causal);
    assert_eq!(
        report.explain_seq(node1, seq).kind_labels(),
        ["classified", "counter", "term"]
    );
}

#[test]
fn the_record_stays_small_enough_to_copy() {
    assert!(std::mem::size_of::<ObsEvent>() <= 48);
}
