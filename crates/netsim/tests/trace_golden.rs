//! Every kind of trace record and every cause a record can carry, pinned
//! as rendered text.
//!
//! One world: two hosts on a hub behind a switch, hosts on the switch
//! over a clean link, a link that loses every frame, a link with a high
//! bit-error rate and a link to a failed host, an unnamed host with no
//! link, and a pair whose sender overflows its transmit queue. A control
//! impairment drops every `0x88B5` frame on its last hop. A hook on
//! `node1` consumes one kind of frame and emits a raw copy of another.
//! Frames are injected at fixed times, so the golden holds each record
//! once per cause, in capture order, rendered with the device names
//! (and `devN` for the unnamed host).

use vw_netsim::{
    Context, ControlImpairment, ErrorModel, Hook, LinkConfig, SimTime, TraceKind, Verdict, World,
    DEFAULT_TX_QUEUE_CAP,
};
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};

/// Consumed by `node1`'s hook on the way out.
const CONSUMED: EtherType = EtherType(0x9001);
/// Copied by `node1`'s hook straight to the NIC on the way out.
const COPIED: EtherType = EtherType(0x9003);
const DATA: EtherType = EtherType(0x9000);

/// `node1`'s hook: consumes [`CONSUMED`] frames and emits a raw copy of
/// each [`COPIED`] one before passing it on.
struct Gate;

impl Hook for Gate {
    fn name(&self) -> &str {
        "gate"
    }

    fn on_outbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        match frame.ethertype() {
            CONSUMED => Verdict::Consume,
            COPIED => {
                ctx.transmit_raw(frame.clone());
                Verdict::Accept(frame)
            }
            _ => Verdict::Accept(frame),
        }
    }

    fn on_inbound(&mut self, _ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        Verdict::Accept(frame)
    }
}

fn frame(src: MacAddr, dst: MacAddr, ethertype: EtherType, len: usize) -> Frame {
    EthernetBuilder::new()
        .src(src)
        .dst(dst)
        .ethertype(ethertype)
        .payload(&vec![0x5a; len])
        .build()
}

fn ms(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000_000)
}

fn run_world() -> World {
    let mut world = World::with_impairment(11, ControlImpairment::dropping(1.0));
    let a = world.add_host("node1");
    let b = world.add_host("node2");
    let hub = world.add_hub("hub0", 3);
    let sw = world.add_switch("sw0", 5);
    let c = world.add_host("node3");
    let d = world.add_host("node4");
    let e = world.add_host("node5");
    let f = world.add_host("node6");
    let lone = world.add_host("");
    let q = world.add_host("node7");
    let r = world.add_host("node8");
    world.connect(a, hub, LinkConfig::fast_ethernet());
    world.connect(b, hub, LinkConfig::fast_ethernet());
    world.connect(hub, sw, LinkConfig::fast_ethernet());
    world.connect(c, sw, LinkConfig::fast_ethernet());
    world.connect(
        sw,
        d,
        LinkConfig::fast_ethernet().errors(ErrorModel::lossy(1.0)),
    );
    world.connect(
        sw,
        e,
        LinkConfig::fast_ethernet().errors(ErrorModel::bit_errors(2e-3)),
    );
    world.connect(sw, f, LinkConfig::fast_ethernet());
    world.connect(q, r, LinkConfig::fast_ethernet());
    world.add_hook(a, Box::new(Gate));
    world.set_host_failed(f, true);
    let [ma, mb, mc, md, me, mf, mlone, mq, mr] =
        [a, b, c, d, e, f, lone, q, r].map(|id| world.host_mac(id));

    // The queue: one frame in flight and a full queue behind it, filled
    // with the trace off, then one more frame that overflows it. The
    // backlog drains with the trace off too.
    world.trace_mut().set_enabled(false);
    for _ in 0..=DEFAULT_TX_QUEUE_CAP {
        world.inject_from_stack(q, frame(mq, mr, DATA, 46));
    }
    world.run_until(SimTime::ZERO);
    world.trace_mut().set_enabled(true);
    world.inject_from_stack(q, frame(mq, mr, DATA, 47));
    world.run_until(SimTime::ZERO);
    world.trace_mut().set_enabled(false);
    world.run_until(ms(5));
    world.trace_mut().set_enabled(true);

    let plan = [
        // Heard by node2 through the hub, flooded by the switch: refused
        // by node3 and node5, lost on node4's link, refused by the failed
        // node6 (the filter comes first).
        (ms(10), a, frame(ma, mb, DATA, 46)),
        // The switch learned node1 on the hub's port: filtered.
        (ms(11), b, frame(mb, ma, DATA, 46)),
        // Consumed by node1's hook.
        (ms(12), a, frame(ma, mb, CONSUMED, 46)),
        // A raw copy beside the frame itself.
        (ms(13), a, frame(ma, mc, COPIED, 46)),
        // Dropped by the control impairment on every last hop to a host.
        (ms(14), a, frame(ma, mc, EtherType::VW_CONTROL, 46)),
        // Bit errors on node5's link.
        (ms(15), c, frame(mc, me, DATA, 100)),
        (ms(16), c, frame(mc, me, DATA, 100)),
        // Lost on node4's link.
        (ms(17), c, frame(mc, md, DATA, 46)),
        // Reaches the failed node6.
        (ms(18), c, frame(mc, mf, DATA, 46)),
        // Sent on a port with no link.
        (ms(19), lone, frame(mlone, ma, DATA, 46)),
    ];
    for (at, from, frame) in plan {
        world.inject_from_stack_at(from, frame, at);
    }
    // Injected on node3's wire but addressed to node1: refused on arrival.
    world.inject_from_wire_at(c, frame(mb, ma, DATA, 46), ms(20));
    assert!(world.run_until_idle(ms(100)), "the world drains");
    world
}

fn render(world: &World) -> String {
    world.render_trace()
}

#[test]
fn every_kind_of_record_is_captured() {
    let world = run_world();
    let kinds = [
        TraceKind::HostSend,
        TraceKind::HostRecv,
        TraceKind::LinkLoss,
        TraceKind::LinkCorrupt,
        TraceKind::QueueDrop,
        TraceKind::HookConsume,
        TraceKind::HookEmit,
        TraceKind::AddrFilterDrop,
        TraceKind::SwitchFilter,
    ];
    for kind in kinds {
        assert!(
            world.trace().of_kind(kind).next().is_some(),
            "no {kind} record:\n{}",
            render(&world)
        );
    }
}

#[test]
fn every_cause_renders_as_pinned() {
    let world = run_world();
    let text = render(&world);
    assert_eq!(text, GOLDEN, "trace render changed:\n{text}");
}

const GOLDEN: &str = include_str!("golden/trace_causes.txt");
