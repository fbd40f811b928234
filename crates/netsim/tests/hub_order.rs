//! The order of everything a shared segment does, pinned as golden text.
//!
//! Four hosts share a five-port hub over lossy 10 Mb/s links with a small
//! bit-error rate, under a control-plane impairment that drops, duplicates
//! and reorders `0x88B5` frames. Each host sends unicast data to one peer,
//! control frames to another and periodic broadcasts, for 50 ms, and the
//! run then drains. Every host hears every frame, so most copies a hub
//! repeats end at an address filter.
//!
//! The golden has three parts: the rendered trace without its
//! `addr-filter-drop` lines; those lines sorted by (time, device, text);
//! and each protocol's receive log. A copy the address filter refuses is
//! recorded when it crosses into the host, up to one hop before the time
//! it carries, so sorting pins what was refused and when and leaves its
//! capture order free. Every other record keeps its order, and so do the
//! loss, bit-error and impairment draws behind them.

use std::fmt::Write;

use vw_netsim::{
    Binding, Context, ControlImpairment, DeviceId, ErrorModel, LinkConfig, Protocol, SimDuration,
    SimTime, TraceKind, World,
};
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};

const SEND_UNTIL: SimTime = SimTime::from_nanos(50_000_000);
const DATA: EtherType = EtherType(0x9100);
const BEACON: EtherType = EtherType(0x9200);

/// Timer tokens: one periodic sender per kind of frame.
const DATA_TIMER: u64 = 1;
const CONTROL_TIMER: u64 = 2;
const BEACON_TIMER: u64 = 3;

/// Sends data to `data_peer`, control frames to `control_peer` and
/// broadcasts, each on its own period, and logs what reaches its stack.
struct Chatter {
    data_peer: MacAddr,
    control_peer: MacAddr,
    /// Offsets the periods so the hosts do not send in lockstep.
    skew: u64,
    sent: u16,
    log: String,
}

impl Chatter {
    fn period(&self, token: u64) -> SimDuration {
        let base = match token {
            DATA_TIMER => 1_900,
            CONTROL_TIMER => 2_700,
            _ => 4_900,
        };
        SimDuration::from_micros(base + 130 * self.skew)
    }

    fn frame(&mut self, src: MacAddr, dst: MacAddr, ethertype: EtherType) -> Frame {
        self.sent += 1;
        let len = 40 + usize::from(self.sent % 7) * 60;
        let mut payload = vec![self.skew as u8; len];
        payload[..2].copy_from_slice(&self.sent.to_be_bytes());
        EthernetBuilder::new()
            .src(src)
            .dst(dst)
            .ethertype(ethertype)
            .payload(&payload)
            .build()
    }
}

impl Protocol for Chatter {
    fn name(&self) -> &str {
        "chatter"
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for token in [DATA_TIMER, CONTROL_TIMER, BEACON_TIMER] {
            let first = SimDuration::from_micros(100 * self.skew + 37 * token);
            ctx.set_timer(first, token);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let (dst, ethertype) = match token {
            DATA_TIMER => (self.data_peer, DATA),
            CONTROL_TIMER => (self.control_peer, EtherType::VW_CONTROL),
            _ => (MacAddr::BROADCAST, BEACON),
        };
        let frame = self.frame(ctx.mac(), dst, ethertype);
        ctx.send(frame);
        let next = ctx.now().saturating_add(self.period(token));
        if next <= SEND_UNTIL {
            ctx.set_timer(self.period(token), token);
        }
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: Frame) {
        let payload = frame.payload();
        let seq = u16::from_be_bytes([payload[0], payload[1]]);
        let (now, src, ethertype) = (ctx.now(), frame.src(), frame.ethertype());
        writeln!(self.log, "{now} {ethertype} #{seq} from {src}").unwrap();
    }
}

/// The bed, run until the wire is idle.
fn run_bed() -> (World, Vec<DeviceId>) {
    let impairment = ControlImpairment {
        drop: 0.1,
        dup: 0.2,
        reorder: 0.2,
        reorder_window_ns: 300_000,
        ..ControlImpairment::none()
    };
    let mut world = World::with_impairment(36, impairment);
    let hosts: Vec<DeviceId> = (1..=4)
        .map(|i| world.add_host(&format!("node{i}")))
        .collect();
    let hub = world.add_hub("hub0", 5);
    for &h in &hosts {
        world.connect(
            h,
            hub,
            LinkConfig::ethernet_10m().errors(ErrorModel::new(0.02, 2e-5)),
        );
    }
    let macs: Vec<MacAddr> = hosts.iter().map(|&h| world.host_mac(h)).collect();
    for (i, &h) in hosts.iter().enumerate() {
        let chatter = Chatter {
            data_peer: macs[(i + 1) % 4],
            control_peer: macs[(i + 2) % 4],
            skew: i as u64,
            sent: 0,
            log: String::new(),
        };
        world.add_protocol(h, Binding::All, Box::new(chatter));
    }
    assert!(
        world.run_until_idle(SimTime::from_nanos(1_000_000_000)),
        "the bed drains"
    );
    (world, hosts)
}

fn render(world: &World, hosts: &[DeviceId]) -> String {
    let trace = world.trace();
    let mut text = String::new();
    let mut refused = Vec::new();
    for record in trace.records() {
        if record.kind == TraceKind::AddrFilterDrop {
            refused.push(record);
        } else {
            writeln!(text, "{}", trace.render_record(record)).unwrap();
        }
    }
    refused.sort_by_key(|r| (r.time, r.device, trace.render_record(r)));
    text.push_str("-- addr-filter-drop, by (time, device, text) --\n");
    for record in refused {
        writeln!(text, "{}", trace.render_record(record)).unwrap();
    }
    for &h in hosts {
        let chatter = world.find_protocol::<Chatter>(h).expect("installed");
        writeln!(text, "-- {} received --", world.device_name(h)).unwrap();
        text.push_str(&chatter.log);
    }
    text
}

#[test]
fn a_shared_segment_keeps_its_order() {
    let (world, hosts) = run_bed();
    let text = render(&world, &hosts);
    assert!(
        text == GOLDEN,
        "hub order changed; first differing line {:?}",
        text.lines()
            .zip(GOLDEN.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| (a.to_string(), b.to_string()))
    );
}

/// A refused copy is the one arrival that is not an event: with it
/// counted back in, the bed does the work of an event per arrival.
#[test]
fn the_bed_processes_a_pinned_number_of_events() {
    let (world, _) = run_bed();
    let refused = world.trace().of_kind(TraceKind::AddrFilterDrop).count() as u64;
    assert_eq!(refused, REFUSED);
    assert_eq!(world.events_processed() + refused, EVENTS_AND_REFUSED);
}

const REFUSED: u64 = 339;
const EVENTS_AND_REFUSED: u64 = 1858;

const GOLDEN: &str = include_str!("golden/hub_order.txt");
