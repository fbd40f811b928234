//! Frame conservation: whatever the topology, the link error model and the
//! hook chains, every frame a protocol sends is delivered, dropped for one
//! of five traced reasons (`LinkLoss`, `QueueDrop`, `AddrFilterDrop`,
//! `SwitchFilter`, `HookConsume`) or still in the system when the run
//! ends. Every host here has a link, so `LinkLoss` is always the link's
//! (`world_behavior.rs` covers a port without one), and a copy a host's
//! address filter refuses is recorded as it crosses the downlink, with no
//! arrival event.
//!
//! A case is one seed: 2–6 hosts on a hub or a switch, a random loss rate
//! and sometimes bit errors per case, a random chain of pass-through,
//! consuming and duplicating hooks per host, and a finite burst per host to
//! a random peer, to itself or to broadcast, sometimes deeper than a
//! transmit queue.
//! The run stops either when the wire is idle or at a deadline that leaves
//! frames queued and in flight. Links have no propagation delay and nothing
//! here sets a timer, so once a timestamp has drained the pending events
//! are exactly the frames being serialized.
//!
//! The ledger is kept per segment — outbound chain, NIC queue, uplink,
//! repeater, downlink, address filter, inbound chain — from the trace, the
//! port counters and the hooks' own tallies. A hub's fan-out is exact
//! (every arrival leaves on every other port). A switch floods until it has
//! learned the destination, so its fan-out is bounded, not predicted, and
//! it filters a frame whose destination it learned on the ingress port (a
//! host's frame to itself, or one after a corrupted source address taught
//! it a wrong port), so the lower bound leaves out the arrivals its
//! `SwitchFilter` records account for.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vw_netsim::{
    Binding, Context, DeviceId, ErrorModel, Hook, LinkConfig, LinkId, PassThrough, PortRef,
    Protocol, SimDuration, SimTime, TraceKind, Verdict, World,
};
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};

/// What the hooks of one host did, in both directions.
#[derive(Default)]
struct Tally {
    consumed_out: Cell<u64>,
    consumed_in: Cell<u64>,
    duplicated_out: Cell<u64>,
    duplicated_in: Cell<u64>,
}

fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

/// Consumes every `every`-th frame it sees, per direction.
struct Consuming {
    every: u64,
    seen: [u64; 2],
    tally: Rc<Tally>,
}

impl Hook for Consuming {
    fn name(&self) -> &str {
        "consuming"
    }

    fn on_outbound(&mut self, _ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        self.seen[0] += 1;
        if self.seen[0].is_multiple_of(self.every) {
            bump(&self.tally.consumed_out);
            return Verdict::Consume;
        }
        Verdict::Accept(frame)
    }

    fn on_inbound(&mut self, _ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        self.seen[1] += 1;
        if self.seen[1].is_multiple_of(self.every) {
            bump(&self.tally.consumed_in);
            return Verdict::Consume;
        }
        Verdict::Accept(frame)
    }
}

/// Duplicates every `every`-th frame it sees, per direction: outbound
/// through a two-frame verdict, inbound through the context.
struct Duplicating {
    every: u64,
    seen: [u64; 2],
    tally: Rc<Tally>,
}

impl Hook for Duplicating {
    fn name(&self) -> &str {
        "duplicating"
    }

    fn on_outbound(&mut self, _ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        self.seen[0] += 1;
        if self.seen[0].is_multiple_of(self.every) {
            bump(&self.tally.duplicated_out);
            return Verdict::Replace(vec![frame.clone(), frame]);
        }
        Verdict::Accept(frame)
    }

    fn on_inbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        self.seen[1] += 1;
        if self.seen[1].is_multiple_of(self.every) {
            bump(&self.tally.duplicated_in);
            ctx.deliver_up(frame.clone());
        }
        Verdict::Accept(frame)
    }
}

/// Sends one burst at start and counts what reaches the stack.
struct Node {
    dst: MacAddr,
    burst: u64,
    received: u64,
}

impl Protocol for Node {
    fn name(&self) -> &str {
        "node"
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.burst {
            let payload = i.to_be_bytes();
            ctx.send(
                EthernetBuilder::new()
                    .src(ctx.mac())
                    .dst(self.dst)
                    .ethertype(EtherType::IPV4)
                    .payload(&payload)
                    .build(),
            );
        }
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: Frame) {
        self.received += 1;
    }
}

struct HostCase {
    id: DeviceId,
    /// The link to the repeater, and the repeater's port on it.
    link: LinkId,
    repeater_port: PortRef,
    burst: u64,
    tally: Rc<Tally>,
}

fn traced(world: &World, kind: TraceKind, at: DeviceId) -> u64 {
    world
        .trace()
        .of_kind(kind)
        .filter(|r| r.device == at)
        .count() as u64
}

/// Frames that left `port` or were refused by it or still wait in its
/// queue — everything handed to it except the one being serialized.
fn accounted(world: &World, port: PortRef) -> u64 {
    let stats = world.port_stats(port);
    stats.tx_frames + stats.dropped + stats.queued as u64
}

fn check(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hosts = rng.random_range(2..=6usize);
    let hub: bool = rng.random();
    let loss = if rng.random_range(0..3u8) == 0 {
        0.0
    } else {
        rng.random_range(0.0..0.3)
    };
    let ber = if rng.random() {
        rng.random_range(1e-5..1e-3)
    } else {
        0.0
    };
    let link = LinkConfig::fast_ethernet()
        .propagation(SimDuration::ZERO)
        .errors(ErrorModel::new(loss, ber));

    let mut world = World::new(seed);
    let repeater = if hub {
        world.add_hub("hub0", hosts)
    } else {
        world.add_switch("sw0", hosts)
    };
    let ids: Vec<DeviceId> = (0..hosts)
        .map(|i| world.add_host(&format!("node{}", i + 1)))
        .collect();
    let mut cases = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        let link_id = world.connect(id, repeater, link);
        let tally = Rc::new(Tally::default());
        for _ in 0..rng.random_range(0..=3usize) {
            let every = rng.random_range(2..=5u64);
            let seen = [0; 2];
            let tally = tally.clone();
            let hook: Box<dyn Hook> = match rng.random_range(0..3u8) {
                0 => Box::new(PassThrough),
                1 => Box::new(Consuming { every, seen, tally }),
                _ => Box::new(Duplicating { every, seen, tally }),
            };
            world.add_hook(id, hook);
        }
        // Bursts past 129 frames overflow the 128-frame transmit queue.
        let burst = match rng.random_range(0..4u8) {
            0 => 0,
            1 => rng.random_range(130..=200u64),
            _ => rng.random_range(1..=60u64),
        };
        // A host addressed by itself: a switch filters what it sends.
        let dst = match rng.random_range(0..=hosts) {
            peer if peer == hosts => world.host_mac(id),
            peer if peer == i => MacAddr::BROADCAST,
            peer => world.host_mac(ids[peer]),
        };
        let node = Node {
            dst,
            burst,
            received: 0,
        };
        world.add_protocol(id, Binding::All, Box::new(node));
        cases.push(HostCase {
            id,
            link: link_id,
            repeater_port: PortRef::new(repeater, i as u16),
            burst,
            tally,
        });
    }

    // Either to the end, or cut short with frames queued and in flight.
    if rng.random() {
        prop_assert!(world.run_until_idle(SimTime::from_nanos(u64::MAX)));
    } else {
        world.run_for(SimDuration::from_micros(rng.random_range(1..4000u64)));
    }
    world.teardown();

    let link_loss = |from: DeviceId, link: LinkId| {
        let note = format!("on {link}");
        world
            .trace()
            .of_kind(TraceKind::LinkLoss)
            .filter(|r| r.device == from && r.note == note)
            .count() as u64
    };
    let mut arrived_at_repeater = 0;
    let mut host_sent = 0;
    let mut accounted_total = 0;
    let mut repeater_drops = 0;
    for case in &cases {
        let t = &case.tally;
        let nic = PortRef::new(case.id, 0);
        // Outbound chain: what the protocol sent, plus copies, minus what
        // a hook consumed, reaches the NIC.
        let sent = traced(&world, TraceKind::HostSend, case.id);
        prop_assert_eq!(
            sent,
            case.burst + t.duplicated_out.get() - t.consumed_out.get(),
            "outbound chain of {}",
            case.id
        );
        prop_assert_eq!(
            traced(&world, TraceKind::HookConsume, case.id),
            t.consumed_out.get() + t.consumed_in.get()
        );
        // NIC queue: every refusal is traced.
        prop_assert_eq!(
            traced(&world, TraceKind::QueueDrop, case.id),
            world.port_stats(nic).dropped
        );
        host_sent += sent;
        accounted_total += accounted(&world, nic);
        // Uplink: transmitted, then lost or arrived.
        let up = world.port_stats(nic).tx_frames - link_loss(case.id, case.link);
        arrived_at_repeater += up;
        // Downlink, address filter and inbound chain.
        let down = world.port_stats(case.repeater_port).tx_frames
            - link_loss(case.repeater_port.device, case.link);
        let accepted = down - traced(&world, TraceKind::AddrFilterDrop, case.id);
        let delivered = traced(&world, TraceKind::HostRecv, case.id);
        prop_assert_eq!(
            delivered,
            accepted + t.duplicated_in.get() - t.consumed_in.get(),
            "inbound chain of {}",
            case.id
        );
        let node = world.find_protocol::<Node>(case.id).expect("installed");
        prop_assert_eq!(node.received, delivered);
        accounted_total += accounted(&world, case.repeater_port);
        repeater_drops += world.port_stats(case.repeater_port).dropped;
    }
    prop_assert_eq!(
        traced(&world, TraceKind::QueueDrop, repeater),
        repeater_drops
    );

    // What was handed to a port and is not accounted for is being
    // serialized: one pending `TxComplete` each, and no other event.
    let in_flight = world.pending_events() as u64;
    let fan_out = hosts as u64 - 1;
    let handed_to_ports = accounted_total + in_flight;
    if hub {
        prop_assert_eq!(handed_to_ports, host_sent + arrived_at_repeater * fan_out);
    } else {
        let filtered = traced(&world, TraceKind::SwitchFilter, repeater);
        prop_assert!(handed_to_ports >= host_sent + arrived_at_repeater - filtered);
        prop_assert!(handed_to_ports <= host_sent + arrived_at_repeater * fan_out);
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_frame_is_delivered_dropped_for_a_traced_reason_or_still_queued(
        seed in any::<u64>(),
    ) {
        check(seed)?;
    }
}
