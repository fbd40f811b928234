//! Engines that install what their thread already built for the same
//! tables: the peer's copy of the tables its thread decoded last, and the
//! classifier, counter dispatch and node identities built for them. What
//! a run reports must not depend on whether the thread ran the tables
//! before.

use virtualwire::{compile_script, EngineConfig, EngineStats, ObsEvent, ObsLevel, Runner};
use vw_fsl::{PatternValue, TableSet};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, ControlImpairment, LinkConfig, SimDuration, World};
use vw_packet::EtherType;

/// Three nodes, each peer counting what it receives, a counter compared
/// across nodes, gated faults at both ends and a `STOP`: every
/// install-time table is in use, and each node's differs.
const SCRIPT: &str = r#"
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

/// What one engine reported at the end of a run.
#[derive(Debug, PartialEq)]
struct EngineView {
    stats: EngineStats,
    counters: Vec<Option<i64>>,
    events: Vec<ObsEvent>,
    /// The node's events as the run's timeline holds them, in its order.
    in_timeline: Vec<ObsEvent>,
}

/// Runs `tables` on three hosts whose control plane loses a fifth of its
/// frames (so `Init`s are retransmitted), flooding UDP to `port` from
/// node1 to node2 and node3, and reads every engine back, plus what the
/// sinks got.
fn run(tables: TableSet, seed: u64, obs: ObsLevel, port: u16) -> (Vec<EngineView>, [u64; 2]) {
    let mut world = World::with_impairment(seed, ControlImpairment::dropping(0.2));
    world.trace_mut().set_enabled(false);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 8);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let cfg = EngineConfig {
        obs,
        ..EngineConfig::default()
    };
    let runner = Runner::install(&mut world, TableSet::clone(&tables), cfg);
    assert!(runner.settle(&mut world), "every engine installed");
    let ipv4 = Binding::EtherType(EtherType::IPV4);
    let sinks = [nodes[1], nodes[2]].map(|to| {
        let sink = world.add_protocol(to, ipv4, Box::new(UdpSink::new(port)));
        let (mac, ip) = (world.host_mac(to), world.host_ip(to));
        let flooder = UdpFlooder::new(mac, ip, port, 9000, 1_000_000, 200, 40 * 200);
        world.add_protocol(nodes[0], ipv4, Box::new(flooder));
        (to, sink)
    });
    let report = runner.run(&mut world, SimDuration::from_secs(1));
    let timeline = &report.events;

    let views = tables
        .nodes
        .iter()
        .map(|node| {
            let engine = runner
                .engine(&world, &node.name)
                .expect("an engine per node");
            let id = tables.node_by_name(&node.name).expect("a node id");
            EngineView {
                stats: engine.stats(),
                counters: (0..tables.counters.len())
                    .map(|c| engine.counter(vw_fsl::CounterId(c as u16)))
                    .collect(),
                events: engine.events().to_vec(),
                in_timeline: timeline.iter().filter(|e| e.node == id).copied().collect(),
            }
        })
        .collect();
    let delivered = sinks.map(|(to, sink)| world.protocol::<UdpSink>(to, sink).unwrap().frames());
    (views, delivered)
}

/// `f` on a thread of its own, which has decoded and installed nothing.
fn on_a_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().unwrap()
}

/// Two runners installed one after the other on one thread from one table
/// set — the second one's peers decode nothing and build nothing — report
/// what two runs on fresh compiles, each on a fresh thread, report: stats,
/// counters and recorder events, with the recorder off and full.
#[test]
fn runners_sharing_one_table_set_on_one_thread_match_fresh_compiles() {
    for obs in [ObsLevel::Off, ObsLevel::Full] {
        let tables = compile_script(SCRIPT).unwrap();
        for seed in [1, 2] {
            let shared = run(TableSet::clone(&tables), seed, obs, 0x6363);
            let fresh =
                on_a_fresh_thread(move || run(compile_script(SCRIPT).unwrap(), seed, obs, 0x6363));
            assert_eq!(shared, fresh, "{obs:?}, seed {seed}");
            let (views, _) = &shared;
            assert!(views[1].stats.drops > 0 && views[2].stats.drops > 0);
            assert_eq!(views[0].events.is_empty(), obs == ObsLevel::Off);
        }
    }
}

/// The run's timeline holds each node's events in the order its engine
/// recorded them. With a lossy control plane a node can record two flips
/// of one term in one cascade, true then false, at one instant; a timeline
/// that re-sorted a node's events by their payload put the false first and
/// so ended the term on the wrong value.
#[test]
fn each_node_keeps_its_engines_order_in_the_timeline() {
    let tables = compile_script(SCRIPT).unwrap();
    for seed in [1, 2, 3] {
        let (views, _) = run(TableSet::clone(&tables), seed, ObsLevel::Full, 0x6363);
        for (node, view) in tables.nodes.iter().zip(&views) {
            assert!(
                !view.events.is_empty(),
                "seed {seed}: {} recorded nothing",
                node.name
            );
            let first_apart = view
                .in_timeline
                .iter()
                .zip(&view.events)
                .position(|(a, b)| a != b);
            assert!(
                view.in_timeline.len() == view.events.len() && first_apart.is_none(),
                "seed {seed}: {}'s events leave its engine's order at {first_apart:?}",
                node.name
            );
        }
    }
}

/// Tables changed through `DerefMut` after this thread built a plan for
/// them are installed with a plan of their own: the filter's port moves,
/// and the flood to the new port is counted exactly as a thread that never
/// saw the old tables counts it — whether the change moved the sole
/// handle's tables or copied ones another handle still shares.
#[test]
fn tables_changed_through_deref_mut_get_a_plan_of_their_own() {
    let mut tables = compile_script(SCRIPT).unwrap();
    let (views, delivered) = run(TableSet::clone(&tables), 3, ObsLevel::Off, 0x6363);
    assert!(views[0].stats.matched > 0 && delivered[0] > 0);

    for (port, keep_a_handle) in [(0x7373, false), (0x7474, true)] {
        let _kept = keep_a_handle.then(|| TableSet::clone(&tables));
        tables.filters[0].tuples[0].pattern = PatternValue::Literal(port);
        let here = run(TableSet::clone(&tables), 3, ObsLevel::Off, port as u16);
        let moved = TableSet::clone(&tables);
        let fresh = on_a_fresh_thread(move || run(moved, 3, ObsLevel::Off, port as u16));
        assert_eq!(here, fresh, "port {port:#x}");
        assert!(
            here.0[0].stats.matched > 0,
            "port {port:#x}: the new port counts"
        );
    }
}
