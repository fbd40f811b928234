//! The control plane's exactly-once, in-order delivery under a hook that
//! mangles what crosses it.
//!
//! A test hook sits wire-ward of each engine, with no RLL underneath.
//! Driven by its own seeded RNG, it duplicates `0x88B5` frames in both
//! directions and holds some back for a random delay, releasing them from
//! a timer: outbound with `ctx.send`, inbound with `ctx.deliver_up`. The
//! switch's last hop loses 5% of the control frames. The rules make each
//! counter's home send a `CounterUpdate` for every frame it counts (two
//! terms compare counters homed on different nodes) and a `TermStatus`
//! for every flip of a term whose condition is evaluated elsewhere. The
//! staleness threshold is far past the run, so no peer freezes.
//!
//! At every receiver, per peer, the recorded `ControlDelivered` sequence
//! numbers must be exactly `1..=n` in order, where `n` is the highest
//! `ControlSent` sequence number that peer sent it; and the final
//! counters must equal those of a run with no hook and no loss.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use virtualwire::{compile_script, ControlPlaneConfig, EngineConfig, ObsKind, Report, Runner};
use vw_fsl::NodeId;
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{
    Binding, Context, ControlImpairment, Hook, LinkConfig, SimDuration, Verdict, World,
};
use vw_obs::ObsLevel;
use vw_packet::{EtherType, Frame};

const SCRIPT: &str = r#"
    FILTER_TABLE
    fwd: (23 1 0x11), (36 2 0x6363)
    back: (23 1 0x11), (36 2 0x6464)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    node3 02:00:00:00:00:03 192.168.1.4
    END
    SCENARIO HookProperty
    Sent: (fwd, node1, node2, SEND)
    Rcvd: (fwd, node1, node2, RECV)
    BackSent: (back, node2, node1, SEND)
    BackRcvd: (back, node2, node1, RECV)
    Hits: (node3)
    BackHits: (node3)
    (TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd); ENABLE_CNTR(BackSent);
        ENABLE_CNTR(BackRcvd);
    ((Sent = Rcvd) && (Sent > 100000)) >> FLAG_ERR "forward never catches up";
    ((BackSent = BackRcvd) && (BackSent > 100000)) >> FLAG_ERR "back never catches up";
    ((Rcvd = 2) || (Rcvd = 4) || (Rcvd = 6) || (Rcvd = 8)) >> INCR_CNTR(Hits, 1);
    ((BackRcvd = 3) || (BackRcvd = 5) || (BackRcvd = 9)) >> INCR_CNTR(BackHits, 1);
    END
"#;

const NODES: usize = 3;

/// Duplicates one control frame in five and holds one in four back for up
/// to 3 ms, in both directions.
struct Mangler {
    rng: StdRng,
    /// Frames held back, by timer token; `true` for outbound.
    held: Vec<Option<(bool, Frame)>>,
}

impl Mangler {
    fn mangle(&mut self, ctx: &mut Context<'_>, frame: Frame, outbound: bool) -> Verdict {
        if frame.ethertype() != EtherType::VW_CONTROL {
            return Verdict::Accept(frame);
        }
        if self.rng.random_range(0..5u32) == 0 {
            let copy = frame.clone();
            if outbound {
                ctx.send(copy);
            } else {
                ctx.deliver_up(copy);
            }
        }
        if self.rng.random_range(0..4u32) > 0 {
            return Verdict::Accept(frame);
        }
        let delay = SimDuration::from_micros(self.rng.random_range(1..3_000u64));
        ctx.set_timer(delay, self.held.len() as u64);
        self.held.push(Some((outbound, frame)));
        Verdict::Replace(Vec::new())
    }
}

impl Hook for Mangler {
    fn name(&self) -> &str {
        "control-mangler"
    }

    fn on_outbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        self.mangle(ctx, frame, true)
    }

    fn on_inbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        self.mangle(ctx, frame, false)
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        match self.held[token as usize].take() {
            Some((true, frame)) => ctx.send(frame),
            Some((false, frame)) => ctx.deliver_up(frame),
            None => unreachable!("each held frame is released once"),
        }
    }
}

fn flood(world: &mut World, from: usize, to: usize, port: u16) {
    let hosts: Vec<_> = ["node1", "node2", "node3"]
        .iter()
        .map(|n| world.device_by_name(n).unwrap())
        .collect();
    let (from, to) = (hosts[from], hosts[to]);
    let sink = Box::new(UdpSink::new(port));
    world.add_protocol(to, Binding::EtherType(EtherType::IPV4), sink);
    let (mac, ip) = (world.host_mac(to), world.host_ip(to));
    let flooder = UdpFlooder::new(mac, ip, port, 9000, 1_000_000, 200, 40 * 200);
    world.add_protocol(from, Binding::EtherType(EtherType::IPV4), Box::new(flooder));
}

/// Runs the bed at `seed`; `mangled` puts the hook under every engine and
/// drops 5% of the control frames.
fn run(seed: u64, mangled: bool) -> Report {
    let tables = compile_script(SCRIPT).unwrap_or_else(|e| panic!("{e}"));
    let mut world = World::new(seed);
    let hosts = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &h in &hosts {
        world.connect(h, sw, LinkConfig::fast_ethernet());
    }
    let cfg = EngineConfig {
        obs: ObsLevel::Full,
        control: ControlPlaneConfig {
            staleness: SimDuration::from_secs(100),
            ..ControlPlaneConfig::default()
        },
        ..EngineConfig::default()
    };
    let runner = Runner::install(&mut world, tables, cfg);
    if mangled {
        world.set_control_impairment(ControlImpairment::dropping(0.05));
        for (i, &h) in hosts.iter().enumerate() {
            let rng = StdRng::seed_from_u64(seed * 8 + i as u64);
            let held = Vec::new();
            world.add_hook(h, Box::new(Mangler { rng, held }));
        }
    }
    assert!(runner.settle(&mut world), "seed {seed}: the Inits land");
    flood(&mut world, 0, 1, 0x6363);
    flood(&mut world, 1, 0, 0x6464);
    runner.run(&mut world, SimDuration::from_secs(2))
}

/// Checks every receiver's deliveries from every peer; panics naming the
/// seed on the first violation.
fn check_deliveries(seed: u64, report: &Report) {
    for receiver in 0..NODES {
        for peer in (0..NODES).filter(|&p| p != receiver) {
            let (r, p) = (NodeId(receiver as u16), NodeId(peer as u16));
            let delivered: Vec<u32> = report
                .events
                .iter()
                .filter(|e| e.node == r)
                .filter_map(|e| match e.kind {
                    ObsKind::ControlDelivered { peer, peer_seq, .. } if peer == p => Some(peer_seq),
                    _ => None,
                })
                .collect();
            let sent = report
                .events
                .iter()
                .filter(|e| e.node == p)
                .filter_map(|e| match e.kind {
                    ObsKind::ControlSent { peer, peer_seq, .. } if peer == r => Some(peer_seq),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            let want: Vec<u32> = (1..=sent).collect();
            assert_eq!(
                delivered,
                want,
                "seed {seed}: node{} from node{}",
                receiver + 1,
                peer + 1
            );
        }
    }
}

#[test]
fn a_mangling_hook_under_the_engines_delivers_control_exactly_once_in_order() {
    let clean = run(1, false);
    check_deliveries(1, &clean);
    let sequenced: u32 = clean
        .events
        .iter()
        .filter(|e| matches!(e.kind, ObsKind::ControlDelivered { .. }))
        .count() as u32;
    assert!(
        sequenced > 80,
        "the rules drive the control plane: {sequenced}"
    );
    assert_eq!(clean.counter("Hits"), Some(4));
    assert_eq!(clean.counter("BackHits"), Some(3));

    let (mut dups, mut buffered) = (0, 0);
    for seed in 1..=64 {
        let report = run(seed, true);
        check_deliveries(seed, &report);
        assert_eq!(report.counters, clean.counters, "seed {seed}");
        assert!(report.errors.is_empty(), "seed {seed}: {:?}", report.errors);
        let stats = report.total_stats();
        assert_eq!(stats.control_stale_degradations, 0, "seed {seed}");
        dups += stats.control_dup_suppressed;
        buffered += stats.control_reorder_buffered;
    }
    assert!(dups > 0, "no seed made a receiver suppress a duplicate");
    assert!(
        buffered > 0,
        "no seed made a receiver buffer ahead of a gap"
    );
}
