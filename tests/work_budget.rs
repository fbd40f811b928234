//! Work budgets: the event path's exact counts on three beds, pinned.
//!
//! `World::work` counts what the queue does — pops by event kind, pops
//! tied with the one before, keys written to heap slots, timers
//! cancelled. Unlike a wall-clock rate these counts repeat exactly, so a
//! change to the queue that claims to do less work, or to do the same
//! work faster, shows it here first: a codegen change leaves every count
//! where it was, an algorithm change moves them and re-pins them in its
//! own commit.

mod common;

use common::build_tower;
use virtualwire::{compile_script, EngineConfig, Runner};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, Context, LinkConfig, Protocol, SimDuration, TimerId, WorkCounts, World};
use vw_packet::{EtherType, Frame};
use vw_tcpstack::{Endpoint, TcpConfig, TcpStack};

/// The ticker of `alloc_budget.rs`: every tick cancels the guard timer
/// set on the previous one, sets a new one that never fires, and rearms
/// the tick.
struct Ticker {
    guard: Option<TimerId>,
}

impl Protocol for Ticker {
    fn name(&self) -> &str {
        "ticker"
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.on_timer(ctx, 0);
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: Frame) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if let Some(guard) = self.guard.take() {
            ctx.cancel_timer(guard);
        }
        self.guard = Some(ctx.set_timer(SimDuration::from_millis(50), 1));
        ctx.set_timer(SimDuration::from_micros(100), 0);
    }
}

/// `alloc_budget.rs`'s bare simulator: a 20 Mb/s UDP flood between two
/// hosts on a switch and the ticker beside it, 12 000 events.
#[test]
fn the_udp_flood_bed_does_pinned_work() {
    let mut world = World::new(3);
    world.trace_mut().set_enabled(false);
    let a = world.add_host("a");
    let b = world.add_host("b");
    let switch = world.add_switch("sw", 2);
    world.connect(a, switch, LinkConfig::fast_ethernet());
    world.connect(b, switch, LinkConfig::fast_ethernet());
    let ipv4 = Binding::EtherType(EtherType::IPV4);
    world.add_protocol(b, ipv4, Box::new(UdpSink::new(7000)));
    let (mac, ip) = (world.host_mac(b), world.host_ip(b));
    let flooder = UdpFlooder::new(mac, ip, 7000, 9000, 20_000_000, 200, u64::MAX);
    world.add_protocol(a, ipv4, Box::new(flooder));
    world.add_protocol(b, ipv4, Box::new(Ticker { guard: None }));
    while world.events_processed() < 12_000 {
        assert!(world.step(), "the flood and the ticker never run dry");
    }
    assert_eq!(
        world.work(),
        WorkCounts {
            pops: [4137, 4138, 3722, 3, 0],
            same_tick_pops: 416,
            moves: 52140,
            cancels: 1654,
        }
    );
}

/// Fig 5's bed: TCP slow start to congestion avoidance through two
/// engines on a switch, one SYNACK dropped, run to its verdict.
#[test]
fn the_fig_5_run_does_pinned_work() {
    let tables = compile_script(include_str!("../scripts/tcp_ss_ca.fsl")).unwrap();
    let mut world = World::new(1);
    world.trace_mut().set_enabled(false);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 8);
    for &h in &nodes {
        world.connect(h, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    runner.settle(&mut world);
    let tcp = TcpConfig::default();
    let mut server = TcpStack::new(world.host_mac(nodes[1]), world.host_ip(nodes[1]));
    server.listen(0x4000, tcp);
    let ipv4 = Binding::EtherType(EtherType::IPV4);
    world.add_protocol(nodes[1], ipv4, Box::new(server));
    let mut client = TcpStack::new(world.host_mac(nodes[0]), world.host_ip(nodes[0]));
    let to = Endpoint {
        mac: world.host_mac(nodes[1]),
        ip: world.host_ip(nodes[1]),
        port: 0x4000,
    };
    let handle = client.connect(tcp, 0x6000, to);
    client.send(handle, &vec![0x42u8; 80_000]);
    world.add_protocol(nodes[0], ipv4, Box::new(client));
    runner.run(&mut world, SimDuration::from_secs(10));
    assert_eq!(
        world.work(),
        WorkCounts {
            pops: [257, 257, 3, 4, 0],
            same_tick_pops: 66,
            moves: 2213,
            cancels: 64,
        }
    );
}

/// The tower of `full_stack.rs` — TCP over Rether over engines over the
/// RLL on a lossy 10 Mb/s bus — run to its `STOP`.
#[test]
fn the_tower_does_pinned_work() {
    let mut tower = build_tower();
    tower.world.trace_mut().set_enabled(false);
    tower.world.run_for(SimDuration::from_secs(60));
    assert!(
        tower.world.stop_reason().is_some(),
        "the run reaches its STOP"
    );
    assert_eq!(
        tower.world.work(),
        WorkCounts {
            pops: [1831, 2747, 184, 11, 0],
            same_tick_pops: 532,
            moves: 30831,
            cancels: 376,
        }
    );
}
