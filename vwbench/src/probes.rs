//! Layer probes: each times one layer's public functions in isolation (or
//! derives a layer's cost from two whole runs that differ only in that
//! layer), so that a change is located and not guessed. Every traced run
//! executes all of them; `BENCHMARK.json` names, per probe, the
//! end-to-end metric it should move.
//!
//! A probe value is the fastest of several rounds: like the end-to-end
//! estimator it reads the quiet host, and being per-layer numbers they
//! carry no bound.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use virtualwire::wire::{decode_sequenced, encode_sequenced, ControlMsg};
use virtualwire::{
    compile_script, Classifier, ClassifierMode, ClassifierScratch, EngineConfig, MetricsRegistry,
    ObsLevel, Runner,
};
use vw_bench::classifier_cmp::matching_frame;
use vw_bench::scriptgen::sweep_script;
use vw_campaign::{DigestKey, InstanceOutcome, InstanceRecord, OutcomeDigest};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{
    Binding, Context, DeviceId, LinkConfig, PassThrough, Protocol, SimDuration, SimTime, World,
};
use vw_packet::{arena, EtherType, EthernetBuilder, Frame, MacAddr, TcpBuilder, UdpBuilder};
use vw_rether::{RetherConfig, RetherNode};
use vw_rll::window::{ReceiverWindow, RecvAction, SendAction, SenderWindow};
use vw_rll::{RllConfig, RllHook};
use vw_serve::checkpoint::CheckpointWriter;
use vw_serve::frame::{crc32, DecodeBuffer, Frame as ServeFrame, FrameType};
use vw_serve::{Client, Daemon, DaemonConfig, SetupRegistry};
use vw_tcpstack::{SocketHandle, TcpConfig, TcpStack};

use crate::heap;
use crate::spans::Spans;
use crate::workloads::{
    self, attach_tcp_pair, attach_udp_flow, quiet_world, switched_hosts, CampaignSweep,
    ServeStream, Size, Workload, MIN_UDP_PAYLOAD, TWO_NODES, UDP_FILTER, UDP_PORT,
};

/// `(metric name, value)` rows.
type Rows = Vec<(&'static str, f64)>;

/// Fastest of `rounds` calls of `f`, which returns seconds.
fn fastest(rounds: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..rounds).map(|_| f()).fold(f64::MAX, f64::min)
}

/// Nanoseconds per call of `f`: fastest of seven rounds of `iters` calls.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    fastest(7, || {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_secs_f64()
    }) * 1e9
        / f64::from(iters)
}

/// Run-phase seconds of a workload (fastest of `rounds` repetitions)
/// with the repetition's classified frames and instances.
fn run_phase(rounds: usize, workload: &mut dyn Workload) -> (f64, u64, u64) {
    let (mut frames, mut instances) = (0, 0);
    let secs = fastest(rounds, || {
        let rep = workload.rep(&mut Spans::new(false));
        (frames, instances) = (rep.out.frames, rep.out.instances);
        rep.segments.iter().map(|s| s.run_s).sum()
    });
    (secs, frames, instances)
}

/// Runs every probe.
pub fn run_all(seed: u64, size: Size) -> Rows {
    let mut rows = Rows::new();
    rows.extend(packet());
    rows.extend(netsim(size));
    rows.extend(rll());
    rows.extend(rether());
    rows.extend(tcpstack());
    rows.extend(fsl());
    rows.extend(core(seed, size));
    rows.extend(campaign(seed, size));
    rows.extend(serve(seed, size));
    rows.extend(obs(seed, size));
    let points = workloads::paper_points(seed, size);
    rows.push(("paper.fig7_loss_pct", points.fig7_loss_pct));
    rows.push(("paper.fig8_rtt_overhead_pct", points.fig8_rtt_overhead_pct));
    rows
}

fn mac(i: u8) -> MacAddr {
    MacAddr::new([0x02, 0, 0, 0, 0, i])
}

fn udp_frame(payload: usize) -> Frame {
    UdpBuilder::new()
        .src_mac(mac(1))
        .dst_mac(mac(2))
        .src_ip("192.168.1.2".parse().expect("literal"))
        .dst_ip("192.168.1.3".parse().expect("literal"))
        .src_port(9000)
        .dst_port(UDP_PORT)
        .payload(&vec![7u8; payload])
        .build()
}

fn packet() -> Rows {
    let small = vec![7u8; MIN_UDP_PAYLOAD];
    let big = vec![7u8; 1400];
    let udp = UdpBuilder::new()
        .src_mac(mac(1))
        .dst_mac(mac(2))
        .src_port(9000)
        .dst_port(UDP_PORT)
        .payload(&small);
    let tcp = TcpBuilder::new()
        .src_mac(mac(1))
        .dst_mac(mac(2))
        .src_port(0x6000)
        .dst_port(0x4000)
        .seq(1)
        .payload(&big);
    // Warm the arena so the build probes see its steady state.
    drop(black_box(udp.build()));
    let before = heap::allocs();
    for _ in 0..1000 {
        drop(black_box(udp.build()));
    }
    let allocs_per_build = (heap::allocs() - before) as f64 / 1000.0;
    let frame = tcp.build();
    vec![
        (
            "packet.build_udp64_ns",
            ns_per_call(20_000, || drop(black_box(udp.build()))),
        ),
        (
            "packet.build_tcp1400_ns",
            ns_per_call(5_000, || drop(black_box(tcp.build()))),
        ),
        (
            "packet.parse_ns",
            ns_per_call(5_000, || {
                let f = black_box(&frame);
                let ok = f.ipv4().is_some_and(|ip| ip.verify_checksum())
                    && f.tcp().is_some_and(|t| t.verify_checksum());
                black_box((f.ethernet().ethertype(), ok));
            }),
        ),
        (
            "packet.arena_cycle_ns",
            ns_per_call(50_000, || {
                arena::recycle_buffer(black_box(arena::take_buffer(128)))
            }),
        ),
        ("packet.allocs_per_build", allocs_per_build),
    ]
}

/// A protocol that only re-arms its timer.
struct Ticker;

impl Protocol for Ticker {
    fn name(&self) -> &str {
        "ticker"
    }
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_micros(1), 0);
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: Frame) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        ctx.set_timer(SimDuration::from_micros(1), 0);
    }
}

/// Two hosts on a switch; returns the world and the two hosts.
fn pair(hooks: usize) -> (World, [DeviceId; 2]) {
    let mut world = quiet_world(1);
    let a = world.add_host_with("a", mac(1), "192.168.1.2".parse().expect("literal"));
    let b = world.add_host_with("b", mac(2), "192.168.1.3".parse().expect("literal"));
    let sw = world.add_switch("sw0", 4);
    for n in [a, b] {
        world.connect(n, sw, LinkConfig::fast_ethernet());
        for _ in 0..hooks {
            world.add_hook(n, Box::new(PassThrough));
        }
    }
    world.add_protocol(
        b,
        Binding::EtherType(EtherType::IPV4),
        Box::new(UdpSink::new(UDP_PORT)),
    );
    (world, [a, b])
}

/// Runs until no event is left (the probes' flows are finite).
fn run_out(world: &mut World) {
    world.run_until_idle(SimTime::ZERO.saturating_add(SimDuration::from_secs(3600)));
}

/// Seconds and events to carry `frames` minimum-size frames from `a` to
/// `b`, injected 10 µs apart.
fn carry(world: &mut World, from: DeviceId, frames: u64) -> (f64, u64) {
    let frame = udp_frame(MIN_UDP_PAYLOAD);
    let start = world.now();
    for i in 0..frames {
        let at = start.saturating_add(SimDuration::from_micros(10 * (i + 1)));
        world.inject_from_stack_at(from, frame.clone(), at);
    }
    let events = world.events_processed();
    let t = Instant::now();
    run_out(world);
    (t.elapsed().as_secs_f64(), world.events_processed() - events)
}

/// All-to-one UDP on one switch: events per second of host time.
fn scale(hosts: u16, datagrams: u64) -> f64 {
    fastest(3, || {
        let mut world = quiet_world(1);
        let sw = world.add_switch("sw0", usize::from(hosts));
        let nodes: Vec<DeviceId> = (0..hosts)
            .map(|i| {
                let [hi, lo] = i.to_be_bytes();
                let n = world.add_host_with(
                    &format!("h{i}"),
                    MacAddr::new([0x02, 0, 0, 0, hi, lo]),
                    std::net::Ipv4Addr::new(10, 0, hi, lo),
                );
                world.connect(n, sw, LinkConfig::fast_ethernet());
                n
            })
            .collect();
        world.add_protocol(
            nodes[0],
            Binding::EtherType(EtherType::IPV4),
            Box::new(UdpSink::new(UDP_PORT)),
        );
        // Per-sender rate shrinks with the host count so the sink's link
        // carries the same load at every scale.
        let rate = 40_000_000 / u64::from(hosts);
        for &n in &nodes[1..] {
            let flooder = UdpFlooder::new(
                world.host_mac(nodes[0]),
                world.host_ip(nodes[0]),
                UDP_PORT,
                9000,
                rate,
                200,
                datagrams * 200,
            );
            world.add_protocol(n, Binding::EtherType(EtherType::IPV4), Box::new(flooder));
        }
        let t = Instant::now();
        run_out(&mut world);
        t.elapsed().as_secs_f64() / world.events_processed() as f64
    })
    .recip()
}

fn netsim(size: Size) -> Rows {
    let frames = if size == Size::Full { 5_000 } else { 500 };
    let timer = fastest(5, || {
        let mut world = quiet_world(1);
        let host = world.add_host("ticker");
        world.add_protocol(host, Binding::All, Box::new(Ticker));
        let t = Instant::now();
        world.run_for(SimDuration::from_micros(frames * 4));
        t.elapsed().as_secs_f64() / world.events_processed() as f64
    });
    let hop = |hooks: usize| {
        let mut events = 0;
        let secs = fastest(5, || {
            let (mut world, [a, _]) = pair(hooks);
            let (secs, ev) = carry(&mut world, a, frames);
            events = ev;
            secs
        });
        (secs / frames as f64 * 1e9, events as f64 / frames as f64)
    };
    let (hop_ns, events_per_hop) = hop(0);
    let (hooked_ns, _) = hop(8);
    let sends = if size == Size::Full { 4_000 } else { 400 };
    let small = scale(16, sends / 15);
    let large = scale(256, sends / 255 + 1);
    vec![
        ("netsim.timer_event_ns", timer * 1e9),
        ("netsim.link_hop_ns", hop_ns),
        ("netsim.events_per_hop", events_per_hop),
        // 8 hooks on each of the two hosts a frame crosses.
        ("netsim.hook_chain8_ns", (hooked_ns - hop_ns) / 16.0),
        ("netsim.scale16_events_per_s", small),
        ("netsim.scale256_events_per_s", large),
        ("netsim.scale_flatness", large / small),
    ]
}

fn rll() -> Rows {
    let frame = EthernetBuilder::new()
        .src(mac(1))
        .dst(mac(2))
        .payload(&[0u8; 1000])
        .build();
    let window = ns_per_call(200, || {
        let mut tx = SenderWindow::new(32);
        let mut rx = ReceiverWindow::new();
        for _ in 0..100 {
            if let SendAction::Transmit { seq, .. } = tx.offer(black_box(frame.clone())) {
                if let RecvAction::Deliver { ack } = rx.on_data(seq) {
                    tx.on_ack(ack);
                }
            }
        }
        black_box(tx.is_idle());
    }) / 100.0;
    let frames = 2_000;
    let with_rll = |on: bool| {
        fastest(5, || {
            let (mut world, [a, b]) = pair(0);
            if on {
                for n in [a, b] {
                    world.add_hook(n, Box::new(RllHook::new(RllConfig::default())));
                }
            }
            carry(&mut world, a, frames).0
        })
    };
    vec![
        ("rll.window_cycle_ns", window),
        (
            "rll.frame_cycle_ns",
            (with_rll(true) - with_rll(false)) / frames as f64 * 1e9,
        ),
    ]
}

fn rether() -> Rows {
    let mut hops = 0;
    let secs = fastest(5, || {
        let mut world = quiet_world(1);
        let hub = world.add_hub("bus", 4);
        let ring: Vec<MacAddr> = (1..=4).map(mac).collect();
        let nodes: Vec<DeviceId> = (1..=4u8)
            .map(|i| {
                let n = world.add_host_with(
                    &format!("r{i}"),
                    mac(i),
                    std::net::Ipv4Addr::new(192, 168, 1, i),
                );
                world.connect(n, hub, LinkConfig::ethernet_10m());
                let node = RetherNode::new(RetherConfig::new(ring.clone()), mac(i));
                world.add_hook(n, Box::new(node));
                n
            })
            .collect();
        let t = Instant::now();
        world.run_for(SimDuration::from_millis(500));
        let secs = t.elapsed().as_secs_f64();
        hops = nodes
            .iter()
            .filter_map(|&n| world.find_hook::<RetherNode>(n))
            .map(|r| r.stats().tokens_passed)
            .sum();
        secs
    });
    vec![("rether.token_hop_ns", secs / hops.max(1) as f64 * 1e9)]
}

fn tcpstack() -> Rows {
    let mut segments = 0;
    let secs = fastest(3, || {
        let (mut world, [a, b]) = pair(0);
        let payload = vec![0xABu8; 1_000_000];
        let feed = |client: &mut TcpStack, h| client.send(h, &payload);
        let (_, client) = attach_tcp_pair(&mut world, a, b, TcpConfig::default(), feed);
        let t = Instant::now();
        world.run_for(SimDuration::from_secs(2));
        let secs = t.elapsed().as_secs_f64();
        let stats = world
            .protocol::<TcpStack>(a, client)
            .expect("client stack")
            .socket(SocketHandle::from_index(0))
            .stats();
        assert_eq!(stats.bytes_acked, 1_000_000, "transfer completes");
        segments = stats.data_segments_sent;
        secs
    });
    vec![("tcpstack.segment_ns", secs / segments as f64 * 1e9)]
}

fn fsl() -> Rows {
    let source = include_str!("../../scripts/tcp_ss_ca.fsl");
    let program = vw_fsl::parse(source).expect("tcp_ss_ca.fsl parses");
    vec![
        (
            "fsl.parse_us",
            ns_per_call(200, || drop(black_box(vw_fsl::parse(black_box(source))))) / 1e3,
        ),
        (
            "fsl.compile_us",
            ns_per_call(200, || drop(black_box(compile_script(black_box(source))))) / 1e3,
        ),
        (
            "fsl.print_us",
            ns_per_call(200, || drop(black_box(vw_fsl::print(black_box(&program))))) / 1e3,
        ),
    ]
}

/// Seconds per classified frame of a two-engine UDP flow under `script`.
fn flow_cost(script: &str, datagrams: u64) -> f64 {
    fastest(5, || {
        let tables = compile_script(script).expect("probe script compiles");
        let spans = &mut Spans::new(false);
        let (mut world, nodes) =
            switched_hosts(spans, quiet_world(1), &tables, LinkConfig::fast_ethernet());
        let runner = Runner::install(&mut world, tables, EngineConfig::default());
        runner.settle(&mut world);
        attach_udp_flow(spans, &mut world, &nodes, 2_000_000, 200, datagrams);
        let t = Instant::now();
        let report = runner.run(&mut world, SimDuration::from_secs(60));
        t.elapsed().as_secs_f64() / report.total_stats().classified as f64
    })
}

fn core(seed: u64, size: Size) -> Rows {
    let vars = HashMap::new();
    let frame = matching_frame();
    let classify = |mode: ClassifierMode| {
        let tables = compile_script(&sweep_script(25, 0, UDP_PORT)).expect("sweep compiles");
        let classifier = Classifier::build(mode, &tables);
        let mut scratch = ClassifierScratch::default();
        ns_per_call(20_000, || {
            let hit =
                classifier.classify(black_box(&tables), &vars, black_box(&frame), &mut scratch);
            black_box(hit.is_ok());
        })
    };
    let msg = ControlMsg::TermStatus {
        term: vw_fsl::TermId(3),
        status: true,
    };
    let codec = ns_per_call(20_000, || {
        let bytes = encode_sequenced(black_box(41), black_box(17), black_box(&msg));
        black_box(decode_sequenced(black_box(&bytes)).is_ok());
    });

    // Engine pass: udp_min_forward against the same flow with no engines.
    let datagrams = if size == Size::Full { 20_000 } else { 1_000 };
    let (with_engines, frames, _) =
        run_phase(5, workloads::udp_min_at(seed, size, ObsLevel::Off).as_mut());
    let bare = fastest(5, || {
        let tables = compile_script(&format!(
            "{UDP_FILTER}{TWO_NODES} SCENARIO Bare Sent: (udp_data, node1, node2, SEND)
            (TRUE) >> ENABLE_CNTR(Sent); END"
        ))
        .expect("bare script compiles");
        let spans = &mut Spans::new(false);
        let (mut world, nodes) =
            switched_hosts(spans, quiet_world(1), &tables, LinkConfig::fast_ethernet());
        attach_udp_flow(
            spans,
            &mut world,
            &nodes,
            2_400_000,
            MIN_UDP_PAYLOAD,
            datagrams,
        );
        let t = Instant::now();
        run_out(&mut world);
        t.elapsed().as_secs_f64()
    });

    // Cascade + actions: 25 actions per matched frame against none.
    let n = datagrams / 10;
    let cascade = flow_cost(&sweep_script(25, 25, UDP_PORT), n)
        - flow_cost(&sweep_script(25, 0, UDP_PORT), n);

    // Fault actions: fault_storm against the same flow with no fault rules.
    let (storm, storm_frames, _) = run_phase(
        3,
        workloads::make("fault_storm", seed, size)
            .expect("known workload")
            .as_mut(),
    );
    let (calm, calm_frames, _) = run_phase(
        3,
        workloads::fault_storm_without_faults(seed, size).as_mut(),
    );
    vec![
        (
            "core.classify_indexed_ns",
            classify(ClassifierMode::Indexed),
        ),
        (
            "core.classify_linear25_ns",
            classify(ClassifierMode::Linear),
        ),
        (
            "core.engine_pass_ns",
            (with_engines - bare) / frames as f64 * 1e9,
        ),
        ("core.cascade_action25_ns", cascade * 1e9),
        (
            "core.fault_action_ns",
            (storm / storm_frames as f64 - calm / calm_frames as f64) * 1e9,
        ),
        ("core.wire_codec_ns", codec),
    ]
}

fn campaign(seed: u64, size: Size) -> Rows {
    let spec = CampaignSweep::new(seed, size).spec(0);
    let enumerate = ns_per_call(5, || drop(black_box(spec.enumerate()))) / 1e3;

    let report = workloads::sample_report(seed);
    let key = DigestKey::default();
    let digest = ns_per_call(2_000, || {
        let record = InstanceRecord {
            index: 7,
            labels: vec![("seed".into(), "7".into())],
            outcome: InstanceOutcome::Completed(OutcomeDigest::from_report(black_box(&report))),
            wall_ns: None,
        };
        black_box(record.to_jsonl_line(&key));
    }) / 1e3;

    let rate = |threads: usize| {
        let mut sweep = CampaignSweep::new(seed, size);
        sweep.threads = threads;
        run_phase(3, &mut sweep).0.recip()
    };
    vec![
        ("campaign.enumerate_us", enumerate),
        ("campaign.digest_jsonl_us", digest),
        ("campaign.scale_2t_over_1t", rate(2) / rate(1)),
    ]
}

fn serve(seed: u64, size: Size) -> Rows {
    let payload = vec![0x5Au8; 512];
    let frame = ServeFrame::new(FrameType::Outcome, 9, payload.clone());
    let encoded = frame.encode();
    let encode = ns_per_call(20_000, || drop(black_box(black_box(&frame).encode())));
    let decode = ns_per_call(20_000, || {
        let mut buffer = DecodeBuffer::new();
        buffer.feed(black_box(&encoded));
        black_box(buffer.next_frame().is_ok());
    });
    let block = vec![0xA5u8; 1 << 16];
    let crc_mb_s = 65_536.0
        / ns_per_call(200, || {
            black_box(crc32(black_box(&block)));
        })
        * 1e3;

    let dir = workloads::scratch_dir().join("probe");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let outcome =
        InstanceOutcome::Completed(OutcomeDigest::from_report(&workloads::sample_report(seed)));
    let shard = vec![(outcome, 1_000); workloads::SERVE_SHARD as usize];
    let mut writer = CheckpointWriter::open(&dir.join("probe.vwlog")).expect("checkpoint opens");
    let mut next = 0;
    let append = ns_per_call(30, || {
        writer.append_shard(next, &shard).expect("append + sync");
        next += 1;
    }) / 1e3;

    let daemon = Daemon::start(
        DaemonConfig {
            workers: 1,
            state_dir: dir.join("state"),
            ..DaemonConfig::default()
        },
        SetupRegistry::builtin(),
    )
    .expect("daemon starts");
    let sock = dir.join("p.sock");
    daemon.bind_unix(&sock).expect("daemon binds");
    let mut client = Client::connect_unix(&sock).expect("client connects");
    let ping = ns_per_call(300, || client.ping().expect("pong")) / 1e3;
    drop(client);
    daemon.stop();

    // The same 48-instance sweep: through the daemon (plain, then with a
    // telemetry subscriber) against a direct run on as many threads.
    let per_instance = |rounds: usize, workload: &mut dyn Workload| {
        let (secs, _, instances) = run_phase(rounds, workload);
        secs / instances as f64
    };
    let mut stream = ServeStream::new(seed, size);
    let plain = per_instance(3, &mut stream);
    stream.watched = true;
    let watched = per_instance(3, &mut stream);
    let mut direct = CampaignSweep::new(seed, size);
    direct.blocks = 1;
    let direct = per_instance(5, &mut direct);
    let _ = std::fs::remove_dir_all(&dir);
    vec![
        ("serve.frame_encode_ns", encode),
        ("serve.frame_decode_ns", decode),
        ("serve.crc32_mb_s", crc_mb_s),
        ("serve.checkpoint_append_us", append),
        ("serve.ping_rtt_us", ping),
        ("serve.daemon_overhead_pct", (plain / direct - 1.0) * 100.0),
        (
            "serve.telemetry_overhead_pct",
            (watched / plain - 1.0) * 100.0,
        ),
    ]
}

fn obs(seed: u64, size: Size) -> Rows {
    let at = |level| run_phase(5, workloads::udp_min_at(seed, size, level).as_mut()).0;
    let off = at(ObsLevel::Off);
    let mut registry = MetricsRegistry::new();
    for i in 0..64 {
        registry.add_counter(&format!("node{}.counter{i}", i % 2), i);
    }
    let mut next = registry.clone();
    for i in 0..8 {
        next.add_counter(&format!("node{}.counter{i}", i % 2), 1);
    }
    vec![
        (
            "obs.faults_overhead_pct",
            (at(ObsLevel::Faults) / off - 1.0) * 100.0,
        ),
        (
            "obs.full_overhead_pct",
            (at(ObsLevel::Full) / off - 1.0) * 100.0,
        ),
        (
            "obs.delta_encode_us",
            ns_per_call(5_000, || {
                drop(black_box(
                    black_box(&next).encode_delta_from(black_box(&registry)),
                ))
            }) / 1e3,
        ),
    ]
}
