//! End-to-end RLL tests over the simulator: exactly-once in-order delivery
//! under loss and corruption, bypass semantics, give-up behavior.

use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{
    Binding, Context, ErrorModel, LinkConfig, Protocol, SimDuration, TraceKind, World,
};
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};
use vw_rll::wire::{self, RllOpcode};
use vw_rll::{RllConfig, RllHook};

/// Records payload tags of received frames on a custom ethertype.
#[derive(Default)]
struct TagRecorder {
    tags: Vec<u8>,
}

impl Protocol for TagRecorder {
    fn name(&self) -> &str {
        "tag-recorder"
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, frame: Frame) {
        if frame.ethertype() == EtherType(0x7777) {
            self.tags.push(frame.payload()[0]);
        }
    }
}

fn rll_pair(
    world: &mut World,
    link: LinkConfig,
    config: RllConfig,
) -> (
    vw_netsim::DeviceId,
    vw_netsim::DeviceId,
    vw_netsim::HookId,
    vw_netsim::HookId,
) {
    let a = world.add_host("a");
    let b = world.add_host("b");
    world.connect(a, b, link);
    let ha = world.add_hook(a, Box::new(RllHook::new(config)));
    let hb = world.add_hook(b, Box::new(RllHook::new(config)));
    (a, b, ha, hb)
}

fn tag_frame(src: MacAddr, dst: MacAddr, tag: u8) -> Frame {
    EthernetBuilder::new()
        .src(src)
        .dst(dst)
        .ethertype(EtherType(0x7777))
        .payload(&[tag; 40])
        .build()
}

#[test]
fn delivers_in_order_over_perfect_link() {
    let mut world = World::new(1);
    let (a, b, _, _) = rll_pair(
        &mut world,
        LinkConfig::fast_ethernet(),
        RllConfig::default(),
    );
    let rec = world.add_protocol(b, Binding::All, Box::new(TagRecorder::default()));
    for i in 0..50 {
        world.inject_from_stack(a, tag_frame(world.host_mac(a), world.host_mac(b), i));
    }
    world.run_for(SimDuration::from_millis(100));
    let tags = &world.protocol::<TagRecorder>(b, rec).unwrap().tags;
    assert_eq!(*tags, (0..50).collect::<Vec<u8>>());
}

#[test]
fn exactly_once_in_order_under_heavy_loss() {
    for seed in [7, 8, 9] {
        let mut world = World::new(seed);
        let (a, b, ha, _) = rll_pair(
            &mut world,
            LinkConfig::fast_ethernet().errors(ErrorModel::lossy(0.35)),
            RllConfig {
                max_retries: 100,
                ..RllConfig::default()
            },
        );
        let rec = world.add_protocol(b, Binding::All, Box::new(TagRecorder::default()));
        for i in 0..100 {
            world.inject_from_stack(a, tag_frame(world.host_mac(a), world.host_mac(b), i));
        }
        world.run_for(SimDuration::from_secs(5));
        let tags = &world.protocol::<TagRecorder>(b, rec).unwrap().tags;
        assert_eq!(*tags, (0..100).collect::<Vec<u8>>(), "seed {seed}");
        let stats = world.hook::<RllHook>(a, ha).unwrap().stats();
        assert!(stats.retransmissions > 0, "35% loss must cause retransmits");
        assert_eq!(stats.gave_up, 0);
    }
}

#[test]
fn exactly_once_under_corruption() {
    let mut world = World::new(21);
    let (a, b, ha, hb) = rll_pair(
        &mut world,
        LinkConfig::fast_ethernet().errors(ErrorModel::bit_errors(0.0005)),
        RllConfig {
            max_retries: 100,
            ..RllConfig::default()
        },
    );
    let rec = world.add_protocol(b, Binding::All, Box::new(TagRecorder::default()));
    for i in 0..100 {
        world.inject_from_stack(a, tag_frame(world.host_mac(a), world.host_mac(b), i));
    }
    world.run_for(SimDuration::from_secs(5));
    let tags = &world.protocol::<TagRecorder>(b, rec).unwrap().tags;
    assert_eq!(*tags, (0..100).collect::<Vec<u8>>());
    let corrupted = world.hook::<RllHook>(b, hb).unwrap().stats().corrupted
        + world.hook::<RllHook>(a, ha).unwrap().stats().corrupted;
    assert!(corrupted > 0, "BER must have corrupted some frames");
}

#[test]
fn udp_goodput_survives_loss_with_rll() {
    let mut world = World::new(31);
    let (a, b, _, _) = rll_pair(
        &mut world,
        LinkConfig::fast_ethernet().errors(ErrorModel::lossy(0.1)),
        RllConfig::default(),
    );
    let sink = world.add_protocol(
        b,
        Binding::EtherType(EtherType::IPV4),
        Box::new(UdpSink::new(9)),
    );
    let flooder = UdpFlooder::new(
        world.host_mac(b),
        world.host_ip(b),
        9,
        9000,
        10_000_000,
        1000,
        200_000,
    );
    world.add_protocol(a, Binding::EtherType(EtherType::IPV4), Box::new(flooder));
    world.run_for(SimDuration::from_secs(2));
    let sink = world.protocol::<UdpSink>(b, sink).unwrap();
    assert_eq!(sink.frames(), 200, "RLL must mask the 10% link loss");
}

#[test]
fn broadcast_bypasses_the_arq() {
    let mut world = World::new(41);
    let (a, b, ha, _) = rll_pair(
        &mut world,
        LinkConfig::fast_ethernet(),
        RllConfig::default(),
    );
    let rec = world.add_protocol(b, Binding::All, Box::new(TagRecorder::default()));
    world.inject_from_stack(a, tag_frame(world.host_mac(a), MacAddr::BROADCAST, 9));
    world.run_for(SimDuration::from_millis(10));
    assert_eq!(world.protocol::<TagRecorder>(b, rec).unwrap().tags, vec![9]);
    let stats = world.hook::<RllHook>(a, ha).unwrap().stats();
    assert_eq!(stats.bypassed, 1);
    assert_eq!(stats.accepted, 0);
}

#[test]
fn gives_up_after_max_retries_on_dead_link() {
    let mut world = World::new(51);
    let (a, b, ha, _) = rll_pair(
        &mut world,
        LinkConfig::fast_ethernet().errors(ErrorModel::lossy(1.0)),
        RllConfig {
            max_retries: 3,
            rto: SimDuration::from_millis(1),
            ..RllConfig::default()
        },
    );
    let _ = b;
    world.inject_from_stack(a, tag_frame(world.host_mac(a), world.host_mac(b), 1));
    world.run_for(SimDuration::from_millis(100));
    let stats = world.hook::<RllHook>(a, ha).unwrap().stats();
    assert_eq!(stats.gave_up, 1);
    // 1 original + 3 retries.
    assert_eq!(stats.data_sent, 4);
    assert_eq!(stats.retransmissions, 3);
}

#[test]
fn stats_account_for_duplicates() {
    // Duplicate delivery at the receiver is created by ack loss: the sender
    // retransmits data the receiver already has.
    let mut world = World::new(61);
    let a = world.add_host("a");
    let b = world.add_host("b");
    // Lossy only b→a so ACKs die but data arrives.
    let mut cfg = LinkConfig::fast_ethernet();
    cfg.error_b_to_a = ErrorModel::lossy(0.8);
    world.connect(a, b, cfg);
    let _ha = world.add_hook(
        a,
        Box::new(RllHook::new(RllConfig {
            max_retries: 200,
            ..RllConfig::default()
        })),
    );
    let hb = world.add_hook(b, Box::new(RllHook::new(RllConfig::default())));
    let rec = world.add_protocol(b, Binding::All, Box::new(TagRecorder::default()));
    for i in 0..20 {
        world.inject_from_stack(a, tag_frame(world.host_mac(a), world.host_mac(b), i));
    }
    world.run_for(SimDuration::from_secs(5));
    let tags = &world.protocol::<TagRecorder>(b, rec).unwrap().tags;
    assert_eq!(
        *tags,
        (0..20).collect::<Vec<u8>>(),
        "no dup ever delivered up"
    );
    let stats = world.hook::<RllHook>(b, hb).unwrap().stats();
    assert!(
        stats.discarded > 0,
        "ack loss must cause discarded duplicates"
    );
    assert_eq!(stats.delivered, 20);
}

#[test]
fn a_session_recovers_after_a_give_up() {
    // The peer goes dark long enough for the sender to give frame 1 up.
    // The frames after it must still get through: the sender's numbering
    // moved past the abandoned frame, and the peer has to move with it.
    let mut world = World::new(71);
    let (a, b, ha, hb) = rll_pair(
        &mut world,
        LinkConfig::fast_ethernet(),
        RllConfig {
            max_retries: 3,
            rto: SimDuration::from_millis(1),
            ..RllConfig::default()
        },
    );
    let rec = world.add_protocol(b, Binding::All, Box::new(TagRecorder::default()));
    let (mac_a, mac_b) = (world.host_mac(a), world.host_mac(b));
    world.inject_from_stack(a, tag_frame(mac_a, mac_b, 0));
    world.run_for(SimDuration::from_millis(10));
    world.set_host_failed(b, true);
    world.inject_from_stack(a, tag_frame(mac_a, mac_b, 1));
    world.run_for(SimDuration::from_millis(50));
    world.set_host_failed(b, false);
    for i in 2..5 {
        world.inject_from_stack(a, tag_frame(mac_a, mac_b, i));
    }
    world.run_for(SimDuration::from_millis(100));
    let tags = &world.protocol::<TagRecorder>(b, rec).unwrap().tags;
    let sent = world.hook::<RllHook>(a, ha).unwrap().stats();
    let got = world.hook::<RllHook>(b, hb).unwrap().stats();
    assert_eq!(*tags, vec![0, 2, 3, 4], "sender {sent:?}, receiver {got:?}");
    assert_eq!(sent.gave_up, 1);
    assert_eq!(got.delivered, 4);
}

#[test]
fn an_ack_sent_after_a_charge_is_traced_as_a_raw_emit() {
    // An ACK is a link-level frame: charged for or not, it goes straight
    // to the NIC as a `HookEmit`, never as a `HostSend`, the kind an
    // `expect send` script counts.
    let mut world = World::new(5);
    let config = RllConfig {
        cost_per_frame: SimDuration::from_nanos(300),
        ..RllConfig::default()
    };
    let (a, b, ha, hb) = rll_pair(&mut world, LinkConfig::fast_ethernet(), config);
    let (mac_a, mac_b) = (world.host_mac(a), world.host_mac(b));
    for i in 0..5 {
        world.inject_from_stack(a, tag_frame(mac_a, mac_b, i));
        world.inject_from_stack(b, tag_frame(mac_b, mac_a, i));
    }
    world.run_for(SimDuration::from_millis(20));
    let acks_as = |kind| {
        let ack = |f: &Frame| wire::parse(f).is_ok_and(|(shim, _)| shim.opcode == RllOpcode::Ack);
        let records = world.trace().of_kind(kind);
        records
            .filter(|r| r.frame.as_ref().is_some_and(ack))
            .count() as u64
    };
    let stats = |node, hook| world.hook::<RllHook>(node, hook).unwrap().stats();
    let acks_sent = stats(a, ha).acks_sent + stats(b, hb).acks_sent;
    assert!(acks_sent >= 10, "{acks_sent} acks");
    assert_eq!(acks_as(TraceKind::HostSend), 0);
    assert_eq!(acks_as(TraceKind::HookEmit), acks_sent);
}
