//! The engine's time-exact golden: one FNV-1a digest per seed over
//! everything a three-node run records, so a change that moves *when* the
//! engine does something — not only what it concludes — moves a digest.
//!
//! The bed: three hosts on a switch, the control plane impaired by drop,
//! dup and reorder from the first `Init` on, the flight recorder at
//! `ObsLevel::Full`, a small cascade budget and a tight staleness
//! threshold. The script reaches remote counters and remote terms, every
//! Table I operation, every Table II fault (`MODIFY` both ways), `FAIL`,
//! `FLAG_ERR` and `STOP`, a `(TRUE)` rule and a cascade that exhausts its
//! budget; the threshold freezes a peer on some seeds. A host sends one
//! frame before the control engine has installed its tables.
//!
//! The digest folds: every rendered `Report::events` line; the errors
//! (time, node, message); the stop reason; the counters; each node's
//! `EngineStats`; `World::events_processed`; and the time, device, kind and
//! bytes of every `0x88B5` frame in the packet trace.

use virtualwire::{compile_script, ControlPlaneConfig, EngineConfig, Report, Runner, StopReason};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, Context, ControlImpairment, LinkConfig, Protocol, SimDuration, World};
use vw_obs::ObsLevel;
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};

const SCRIPT: &str = r#"
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

/// Golden digests for seeds 1..=8.
const GOLDEN: [u64; 8] = [
    0x213bc1b7b1100092,
    0xdc2267e9e7259c07,
    0x37cb7f9e30f47c61,
    0xdff005908490ecec,
    0xcdbac61219ae1f49,
    0xee8f4cacfd10c0c2,
    0x4004ba0bba8e2e1a,
    0xbdd1694fa588d5de,
];

/// Sends one `0x4242` frame to `send_to` the moment it starts: added
/// before the engines, it meets a control engine that holds its tables
/// but has not installed them.
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

fn flood(world: &mut World, from: usize, to: usize, port: u16, rate_bps: u64, count: u64) {
    let nodes: Vec<_> = ["node1", "node2", "node3"]
        .iter()
        .map(|n| world.device_by_name(n).unwrap())
        .collect();
    let (from, to) = (nodes[from], nodes[to]);
    let sink = Box::new(UdpSink::new(port));
    world.add_protocol(to, Binding::EtherType(EtherType::IPV4), sink);
    let (mac, ip) = (world.host_mac(to), world.host_ip(to));
    let flooder = UdpFlooder::new(mac, ip, port, 9000, rate_bps, 200, count * 200);
    world.add_protocol(from, Binding::EtherType(EtherType::IPV4), Box::new(flooder));
}

struct Run {
    report: Report,
    world: World,
    settled: bool,
}

fn run(seed: u64) -> Run {
    let tables = compile_script(SCRIPT).unwrap_or_else(|e| panic!("{e}"));
    let mut world = World::new(seed);
    let nodes = Runner::create_hosts(&mut world, &tables);
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
        obs: ObsLevel::Full,
        control: ControlPlaneConfig {
            initial_rto: SimDuration::from_millis(1),
            max_rto: SimDuration::from_millis(4),
            staleness: SimDuration::from_millis(2),
        },
        ..EngineConfig::default()
    };
    let runner = Runner::install(&mut world, tables, cfg);
    let settled = runner.settle(&mut world);
    flood(&mut world, 0, 1, 0x6363, 1_000_000, 60);
    flood(&mut world, 2, 1, 0x6464, 900_000, 40);
    let report = runner.run(&mut world, SimDuration::from_secs(1));
    Run {
        report,
        world,
        settled,
    }
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // A separator, so adjacent fields cannot trade bytes.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

fn digest(run: &Run) -> u64 {
    let Run {
        report,
        world,
        settled,
    } = run;
    let mut h = Fnv::new();
    h.u64(u64::from(*settled));
    for event in &report.events {
        h.str(&event.render(&report.symbols));
    }
    for e in &report.errors {
        h.u64(e.time.as_nanos());
        h.str(&e.node_name);
        h.str(&e.message);
    }
    h.str(&match &report.stop {
        StopReason::StopAction(r) => format!("stop: {r}"),
        other => format!("{other:?}"),
    });
    for (node, counter, value) in &report.counters {
        h.str(node);
        h.str(counter);
        h.bytes(&value.to_le_bytes());
    }
    for (node, stats) in &report.stats {
        h.str(node);
        for (_, value, _) in stats.fields() {
            h.u64(value);
        }
    }
    h.u64(world.events_processed());
    for record in world.trace().records() {
        let Some(frame) = &record.frame else { continue };
        if frame.ethertype() != EtherType::VW_CONTROL {
            continue;
        }
        h.u64(record.time.as_nanos());
        h.u64(record.device.index() as u64);
        h.str(&record.kind.to_string());
        h.bytes(frame.bytes());
    }
    h.0
}

#[test]
fn the_engine_runs_to_its_golden_digests() {
    let mut got = [0u64; 8];
    let mut coverage = Coverage::default();
    for (i, seed) in (1..=8u64).enumerate() {
        let run = run(seed);
        coverage.add(&run.report);
        got[i] = digest(&run);
    }
    coverage.check();
    assert_eq!(got, GOLDEN, "engine golden digests: {got:#018x?}");
}

/// What the script must reach across the seeds, so a golden that stops
/// exercising a path fails here rather than pinning less.
#[derive(Debug, Default)]
struct Coverage {
    stats: virtualwire::EngineStats,
    errors: Vec<String>,
    stopped: bool,
}

impl Coverage {
    fn add(&mut self, report: &Report) {
        let total = report.total_stats();
        let mut sum = self.stats.fields().map(|(_, v, _)| v);
        for (slot, (_, v, _)) in sum.iter_mut().zip(total.fields()) {
            *slot += v;
        }
        self.stats = virtualwire::EngineStats::from_values(sum.into_iter()).unwrap();
        self.errors
            .extend(report.errors.iter().map(|e| e.message.clone()));
        self.stopped |= matches!(report.stop, StopReason::StopAction(_));
        assert_eq!(
            report.counter("Early"),
            Some(0),
            "the early frame passes uncounted"
        );
    }

    fn check(&self) {
        let s = &self.stats;
        let has = |text: &str| self.errors.iter().any(|e| e.contains(text));
        assert!(s.drops > 0 && s.dups > 0 && s.modifies > 1, "{s:?}");
        assert!(s.delays > 0 && s.reorders > 0 && s.blackholed > 0, "{s:?}");
        assert!(
            s.control_retransmits > 0 && s.control_dup_suppressed > 0,
            "{s:?}"
        );
        assert!(s.control_reorder_buffered > 0, "{s:?}");
        assert!(has("third reverse datagram") && has("receiver caught up"));
        assert!(has("cascade exceeded its budget"), "{:?}", self.errors);
        assert!(has("remote terms frozen"), "{:?}", self.errors);
        assert!(self.stopped);
    }
}
