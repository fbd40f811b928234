//! Observation must not perturb a run.
//!
//! Every bed runs at seeds 1–4 under six settings: the flight recorder at
//! `ObsLevel` Off, Faults and Full, each with the packet trace on and off.
//! What the run concluded and how much work it took must be identical
//! across the six: the stop reason, the flagged errors, the counters, each
//! node's `EngineStats`, the campaign digest's default key and
//! `World::events_processed`. The histograms and `Report::events` are
//! empty at `Off` by design, so they are not compared.
//!
//! The beds: Fig 5's TCP bed, Fig 6's Rether ring, the engine golden's
//! impaired three-node bed, and the three distributed beds (a remote
//! `FAIL`, a cross-node counter comparison, the engines above the RLL on a
//! lossy wire).

use virtualwire::{
    compile_script, ControlPlaneConfig, EngineConfig, EngineStats, Report, Runner, StopReason,
};
use vw_campaign::{DigestKey, OutcomeDigest};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{
    Binding, Context, ControlImpairment, DeviceId, ErrorModel, LinkConfig, Protocol, SimDuration,
    World,
};
use vw_obs::ObsLevel;
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};
use vw_rether::{RetherConfig, RetherNode};
use vw_rll::RllConfig;
use vw_tcpstack::{Endpoint, TcpConfig, TcpStack};

/// What one run concluded, and the work it took.
#[derive(Debug, PartialEq)]
struct Outcome {
    stop: String,
    errors: Vec<virtualwire::FlaggedError>,
    counters: Vec<(String, String, i64)>,
    stats: Vec<(String, EngineStats)>,
    digest_key: String,
    events_processed: u64,
}

impl Outcome {
    fn of(report: &Report, world: &World) -> Self {
        Outcome {
            stop: match &report.stop {
                StopReason::StopAction(r) => format!("stop: {r}"),
                other => format!("{other:?}"),
            },
            errors: report.errors.clone(),
            counters: report.counters.clone(),
            stats: report.stats.clone(),
            digest_key: OutcomeDigest::from_report(report).key_string(&DigestKey::default()),
            events_processed: world.events_processed(),
        }
    }
}

/// A bed: builds and runs one world at `seed` under `cfg`.
type Bed = fn(u64, EngineConfig, bool) -> Outcome;

const UDP_PREAMBLE: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    udp_rev: (23 1 0x11), (36 2 0x6464)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    node3 02:00:00:00:00:03 192.168.1.4
    END
"#;

/// A world for `tables`' hosts with the packet trace switched as asked.
fn world_for(seed: u64, trace: bool, tables: &vw_fsl::TableSet) -> (World, Vec<DeviceId>) {
    let mut world = World::new(seed);
    world.trace_mut().set_enabled(trace);
    let hosts = Runner::create_hosts(&mut world, tables);
    (world, hosts)
}

fn switched(world: &mut World, hosts: &[DeviceId]) {
    let sw = world.add_switch("sw0", 8);
    for &h in hosts {
        world.connect(h, sw, LinkConfig::fast_ethernet());
    }
}

fn flood(world: &mut World, from: DeviceId, to: DeviceId, port: u16, rate: u64, count: u64) {
    let sink = Box::new(UdpSink::new(port));
    world.add_protocol(to, Binding::EtherType(EtherType::IPV4), sink);
    let (mac, ip) = (world.host_mac(to), world.host_ip(to));
    let flooder = UdpFlooder::new(mac, ip, port, 9000, rate, 200, count * 200);
    world.add_protocol(from, Binding::EtherType(EtherType::IPV4), Box::new(flooder));
}

/// Fig 5: TCP slow start to congestion avoidance, one SYNACK dropped.
fn fig5_tcp(seed: u64, cfg: EngineConfig, trace: bool) -> Outcome {
    let tables = compile_script(include_str!("../scripts/tcp_ss_ca.fsl")).unwrap();
    let (mut world, nodes) = world_for(seed, trace, &tables);
    switched(&mut world, &nodes);
    let runner = Runner::install(&mut world, tables, cfg);
    runner.settle(&mut world);
    let tcp_cfg = TcpConfig::default();
    let mut server = TcpStack::new(world.host_mac(nodes[1]), world.host_ip(nodes[1]));
    server.listen(0x4000, tcp_cfg);
    let ipv4 = Binding::EtherType(EtherType::IPV4);
    world.add_protocol(nodes[1], ipv4, Box::new(server));
    let mut client = TcpStack::new(world.host_mac(nodes[0]), world.host_ip(nodes[0]));
    let to = Endpoint {
        mac: world.host_mac(nodes[1]),
        ip: world.host_ip(nodes[1]),
        port: 0x4000,
    };
    let handle = client.connect(tcp_cfg, 0x6000, to);
    client.send(handle, &vec![0x42u8; 80_000]);
    world.add_protocol(nodes[0], ipv4, Box::new(client));
    let report = runner.run(&mut world, SimDuration::from_secs(10));
    Outcome::of(&report, &world)
}

/// Fig 6: Rether token recovery on a four-node hub, a real-time TCP
/// session across the ring.
fn fig6_rether(seed: u64, cfg: EngineConfig, trace: bool) -> Outcome {
    let tables = compile_script(include_str!("../scripts/rether_failover.fsl")).unwrap();
    let (mut world, nodes) = world_for(seed, trace, &tables);
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
    let runner = Runner::install(&mut world, tables, cfg);
    runner.settle(&mut world);
    let tcp_cfg = TcpConfig::default();
    let mut server = TcpStack::new(world.host_mac(nodes[3]), world.host_ip(nodes[3]));
    server.listen(0x4000, tcp_cfg);
    let ipv4 = Binding::EtherType(EtherType::IPV4);
    world.add_protocol(nodes[3], ipv4, Box::new(server));
    let mut client = TcpStack::new(world.host_mac(nodes[0]), world.host_ip(nodes[0]));
    let to = Endpoint {
        mac: world.host_mac(nodes[3]),
        ip: world.host_ip(nodes[3]),
        port: 0x4000,
    };
    let handle = client.connect(tcp_cfg, 0x6000, to);
    client.attach_source(handle, 2_000_000, 10_000_000);
    world.add_protocol(nodes[0], ipv4, Box::new(client));
    let report = runner.run(&mut world, SimDuration::from_secs(60));
    Outcome::of(&report, &world)
}

/// Sends one `0x4242` frame the moment it starts, before the control
/// engine has installed its tables.
struct Eager {
    send_to: MacAddr,
}

impl Protocol for Eager {
    fn name(&self) -> &str {
        "eager"
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let frame = EthernetBuilder::new()
            .dst(self.send_to)
            .src(ctx.mac())
            .ethertype(EtherType(0x4242))
            .payload(&[0; 46])
            .build();
        ctx.send(frame);
    }

    fn on_frame(&mut self, _: &mut Context<'_>, _: Frame) {}
}

const GOLDEN_SCRIPT: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    udp_rev: (23 1 0x11), (36 2 0x6464)
    early: (12 2 0x4242)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    node3 02:00:00:00:00:03 192.168.1.4
    END
    SCENARIO Golden 50msec
    Sent: (udp_data, node1, node2, SEND)
    Rcvd: (udp_data, node1, node2, RECV)
    Rev: (udp_rev, node3, node2, RECV)
    RevSent: (udp_rev, node3, node2, SEND)
    Early: (early, node1, node2, SEND)
    V: (node1)
    T: (node2)
    Burst: (node3)
    (TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd); ENABLE_CNTR(Rev);
        ENABLE_CNTR(RevSent); ENABLE_CNTR(Early); ASSIGN_CNTR(V, 3);
    ((Sent = 2)) >> DROP(udp_data, node1, node2, SEND);
    ((Sent = 4)) >> DUP(udp_data, node1, node2, SEND);
    ((Sent = 6)) >> MODIFY(udp_data, node1, node2, SEND, (42 2 0xBEEF));
    ((Sent = 8)) >> MODIFY(udp_data, node1, node2, SEND, RANDOM);
    ((Sent >= 10) && (Sent < 12)) >> DELAY(udp_data, node1, node2, SEND, 15msec);
    ((Rcvd > 12) && (Rcvd <= 18)) >> REORDER(udp_data, node1, node2, RECV, 3, (2 1 0));
    ((Sent = 5)) >> INCR_CNTR(V, 5);
    ((Sent = 5) && (V = 3)) >> FLAG_ERR "five sent while V was three";
    ((Sent = 7)) >> DECR_CNTR(V, 2);
    ((Rcvd = 3)) >> SET_CURTIME(T);
    ((Rcvd = 9)) >> ELAPSED_TIME(T);
    ((Rcvd = 20)) >> RESET_CNTR(V);
    ((Rev = 3)) >> FLAG_ERR "third reverse datagram";
    ((Rev = 5)) >> INCR_CNTR(Burst, 1); INCR_CNTR(Burst, 1); INCR_CNTR(Burst, 1);
        INCR_CNTR(Burst, 1); INCR_CNTR(Burst, 1); INCR_CNTR(Burst, 1);
        INCR_CNTR(Burst, 1); INCR_CNTR(Burst, 1); INCR_CNTR(Burst, 1);
    ((Rev = 10)) >> DISABLE_CNTR(Rev);
    ((RevSent = 20)) >> ENABLE_CNTR(Rev);
    ((Sent = Rcvd) && (Sent > 25)) >> FLAG_ERR "receiver caught up";
    ((Rcvd = 30)) >> FAIL(node3);
    ((Rcvd = 30) || (Rev = 0)) >> INCR_CNTR(Burst, 1);
    ((Sent = 45)) >> STOP;
    END
"#;

/// The engine golden's bed (`crates/core/tests/engine_golden.rs`): every
/// Table I and II action, remote counters and terms, a cascade over its
/// budget and a staleness threshold that freezes a peer on some seeds,
/// over a control plane impaired by drop, dup and reorder.
fn golden(seed: u64, cfg: EngineConfig, trace: bool) -> Outcome {
    let tables = compile_script(GOLDEN_SCRIPT).unwrap_or_else(|e| panic!("{e}"));
    let (mut world, nodes) = world_for(seed, trace, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    world.set_control_impairment(ControlImpairment {
        drop: 0.1,
        dup: 0.1,
        reorder: 0.1,
        reorder_window_ns: 150_000,
        ..ControlImpairment::none()
    });
    let send_to = world.host_mac(nodes[1]);
    world.add_protocol(nodes[0], Binding::All, Box::new(Eager { send_to }));
    let cfg = EngineConfig {
        cascade_budget: 8,
        control: ControlPlaneConfig {
            initial_rto: SimDuration::from_millis(1),
            max_rto: SimDuration::from_millis(4),
            staleness: SimDuration::from_millis(2),
        },
        ..cfg
    };
    let runner = Runner::install(&mut world, tables, cfg);
    runner.settle(&mut world);
    flood(&mut world, nodes[0], nodes[1], 0x6363, 1_000_000, 60);
    flood(&mut world, nodes[2], nodes[1], 0x6464, 900_000, 40);
    let report = runner.run(&mut world, SimDuration::from_secs(1));
    Outcome::of(&report, &world)
}

/// Distributed: node2's counter `FAIL`s node3 over the control plane.
fn remote_fail(seed: u64, cfg: EngineConfig, trace: bool) -> Outcome {
    let script = format!(
        "{UDP_PREAMBLE}
        SCENARIO RemoteFail
        Rcvd: (udp_data, node1, node2, RECV)
        (TRUE) >> ENABLE_CNTR(Rcvd);
        ((Rcvd = 3)) >> FAIL(node3);
        END"
    );
    let tables = compile_script(&script).unwrap();
    let (mut world, nodes) = world_for(seed, trace, &tables);
    switched(&mut world, &nodes);
    let runner = Runner::install(&mut world, tables, cfg);
    runner.settle(&mut world);
    flood(&mut world, nodes[0], nodes[1], 0x6363, 1_000_000, 10);
    let report = runner.run(&mut world, SimDuration::from_secs(1));
    Outcome::of(&report, &world)
}

/// Distributed: a term compares counters homed on two nodes.
fn cross_node(seed: u64, cfg: EngineConfig, trace: bool) -> Outcome {
    let script = format!(
        "{UDP_PREAMBLE}
        SCENARIO CrossNode
        Fwd: (udp_data, node1, node2, RECV)
        Rev: (udp_rev, node3, node2, RECV)
        (TRUE) >> ENABLE_CNTR(Fwd); ENABLE_CNTR(Rev);
        ((Fwd = Rev) && (Fwd > 4)) >> STOP;
        END"
    );
    let tables = compile_script(&script).unwrap();
    let (mut world, nodes) = world_for(seed, trace, &tables);
    switched(&mut world, &nodes);
    let runner = Runner::install(&mut world, tables, cfg);
    runner.settle(&mut world);
    flood(&mut world, nodes[0], nodes[1], 0x6363, 1_000_000, 50);
    flood(&mut world, nodes[2], nodes[1], 0x6464, 900_000, 50);
    let report = runner.run(&mut world, SimDuration::from_secs(5));
    Outcome::of(&report, &world)
}

/// Distributed: the engines above the RLL on a 15%-lossy wire.
fn over_rll(seed: u64, cfg: EngineConfig, trace: bool) -> Outcome {
    let script = "
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
        END";
    let tables = compile_script(script).unwrap();
    let (mut world, nodes) = world_for(seed, trace, &tables);
    let lossy = LinkConfig::fast_ethernet().errors(ErrorModel::lossy(0.15));
    world.connect(nodes[0], nodes[1], lossy);
    let rll = RllConfig {
        max_retries: 100,
        ..RllConfig::default()
    };
    let runner = Runner::install_with_rll(&mut world, tables, cfg, rll);
    runner.settle(&mut world);
    flood(&mut world, nodes[0], nodes[1], 0x6363, 1_000_000, 100);
    let report = runner.run(&mut world, SimDuration::from_secs(10));
    Outcome::of(&report, &world)
}

/// Runs `bed` at seeds 1–4 under the six observation settings and
/// requires one outcome per seed.
fn invariant(name: &str, bed: Bed) {
    for seed in 1..=4 {
        let cfg = |obs| EngineConfig {
            obs,
            ..EngineConfig::default()
        };
        let want = bed(seed, cfg(ObsLevel::Off), false);
        for obs in [ObsLevel::Off, ObsLevel::Faults, ObsLevel::Full] {
            for trace in [false, true] {
                if (obs, trace) == (ObsLevel::Off, false) {
                    continue;
                }
                let got = bed(seed, cfg(obs), trace);
                assert_eq!(got, want, "{name}, seed {seed}: {obs:?}, trace {trace}");
            }
        }
    }
}

#[test]
fn fig5_tcp_is_the_same_run_however_it_is_observed() {
    invariant("fig5_tcp", fig5_tcp);
}

#[test]
fn fig6_rether_is_the_same_run_however_it_is_observed() {
    invariant("fig6_rether", fig6_rether);
}

#[test]
fn the_golden_bed_is_the_same_run_however_it_is_observed() {
    invariant("golden", golden);
}

#[test]
fn the_distributed_beds_are_the_same_runs_however_they_are_observed() {
    invariant("remote_fail", remote_fail);
    invariant("cross_node", cross_node);
    invariant("over_rll", over_rll);
}
