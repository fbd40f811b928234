//! The RLL's exactly-once, in-order delivery under a hook that mangles
//! what crosses it.
//!
//! A test hook sits wire-ward of the `RllHook` on both hosts (added after
//! it). Driven by its own seeded RNG, it duplicates RLL frames in both
//! directions and holds some back for a random delay, releasing them from
//! a timer: outbound with `ctx.send`, inbound with `ctx.deliver_up`. The
//! link between the hosts loses frames and flips bits. With `max_retries`
//! high enough that nothing is given up, the protocol above each RLL must
//! see every payload exactly once and in order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vw_netsim::{
    Binding, Context, ErrorModel, Hook, LinkConfig, Protocol, SimDuration, SimTime, Verdict, World,
};
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};
use vw_rll::{RllConfig, RllHook, RllStats};

const TAGGED: EtherType = EtherType(0x7777);
const FRAMES: u8 = 40;

/// Records the payload tag of every frame on [`TAGGED`].
#[derive(Default)]
struct TagRecorder {
    tags: Vec<u8>,
}

impl Protocol for TagRecorder {
    fn name(&self) -> &str {
        "tag-recorder"
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, frame: Frame) {
        if frame.ethertype() == TAGGED {
            self.tags.push(frame.payload()[0]);
        }
    }
}

/// Duplicates one RLL frame in five and holds one in four back for up to
/// 3 ms, in both directions.
struct Mangler {
    rng: StdRng,
    /// Frames held back, by timer token; `true` for outbound.
    held: Vec<Option<(bool, Frame)>>,
}

impl Mangler {
    fn new(seed: u64) -> Self {
        Mangler {
            rng: StdRng::seed_from_u64(seed),
            held: Vec::new(),
        }
    }

    /// Emits a copy of `frame` now with probability 1/5, and holds
    /// `frame` back with probability 1/4; otherwise it passes.
    fn mangle(&mut self, ctx: &mut Context<'_>, frame: Frame, outbound: bool) -> Verdict {
        if frame.ethertype() != EtherType::RLL {
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
        "mangler"
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

fn tag_frame(src: MacAddr, dst: MacAddr, tag: u8) -> Frame {
    EthernetBuilder::new()
        .src(src)
        .dst(dst)
        .ethertype(TAGGED)
        .payload(&[tag; 40])
        .build()
}

/// Each host sends [`FRAMES`] tagged frames to the other over the mangled,
/// lossy, bit-flipping pair. Returns what each protocol received and each
/// RLL's counters.
fn run(seed: u64) -> [(Vec<u8>, RllStats); 2] {
    let mut world = World::new(seed);
    let hosts = [world.add_host("a"), world.add_host("b")];
    let errors = ErrorModel::new(0.1, 2e-5);
    world.connect(
        hosts[0],
        hosts[1],
        LinkConfig::fast_ethernet().errors(errors),
    );
    let config = RllConfig {
        max_retries: 1000,
        ..RllConfig::default()
    };
    let installed = hosts.map(|h| {
        let rll = world.add_hook(h, Box::new(RllHook::new(config)));
        let mangler = Mangler::new(seed * 2 + h.index() as u64);
        world.add_hook(h, Box::new(mangler));
        let recorder = world.add_protocol(h, Binding::All, Box::new(TagRecorder::default()));
        (h, rll, recorder)
    });
    let macs = hosts.map(|h| world.host_mac(h));
    for tag in 0..FRAMES {
        world.inject_from_stack(hosts[0], tag_frame(macs[0], macs[1], tag));
        world.inject_from_stack(hosts[1], tag_frame(macs[1], macs[0], tag));
    }
    assert!(
        world.run_until_idle(SimTime::from_nanos(60_000_000_000)),
        "seed {seed}: the pair goes quiet"
    );
    installed.map(|(h, rll, recorder)| {
        let tags = world
            .protocol::<TagRecorder>(h, recorder)
            .unwrap()
            .tags
            .clone();
        (tags, world.hook::<RllHook>(h, rll).unwrap().stats())
    })
}

#[test]
fn a_mangling_hook_under_the_rll_delivers_exactly_once_in_order() {
    let sent: Vec<u8> = (0..FRAMES).collect();
    let mut discarded = 0;
    for seed in 1..=64 {
        for (host, (tags, stats)) in run(seed).into_iter().enumerate() {
            assert_eq!(tags, sent, "seed {seed}, host {host}: {stats:?}");
            assert_eq!(stats.gave_up, 0, "seed {seed}, host {host}");
            discarded += stats.discarded;
        }
    }
    assert!(discarded > 0, "no seed made the RLL discard a duplicate");
}

/// Seed 2 flips a bit in the EtherType of one RLL frame each way. The
/// receiver knows its sender, so the frame is counted corrupted and
/// retransmitted, not passed up as foreign traffic.
#[test]
fn a_frame_whose_ethertype_the_wire_garbled_is_retransmitted_not_bypassed() {
    let sent: Vec<u8> = (0..FRAMES).collect();
    for (host, (tags, stats)) in run(2).into_iter().enumerate() {
        assert_eq!(stats.bypassed, 0, "host {host}: {stats:?}");
        assert!(stats.corrupted > 0, "host {host}: {stats:?}");
        assert_eq!(tags, sent, "host {host}: {stats:?}");
    }
}
