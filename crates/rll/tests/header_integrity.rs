//! The RLL's integrity check covers the Ethernet header, as the FCS it
//! stands in for does.
//!
//! The bed: three hosts on a hub, each with an `RllHook` and a recorder.
//! b and c each send tagged frames to a; a payload carries its origin and
//! its sequence number. The check: per origin, a receives exactly
//! `0..n`, in order, and every frame's source MAC is its origin's.
//! Neighbouring hosts have MACs one bit apart (`…:02`, `…:03`), so a
//! sum that skipped the header would let one flipped bit hand b's frame
//! to c's session.

use vw_netsim::{
    Binding, Context, DeviceId, ErrorModel, Hook, LinkConfig, Protocol, SimTime, Verdict, World,
};
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};
use vw_rll::wire::{self, RllOpcode};
use vw_rll::{RllConfig, RllHook, RllStats};

const TAGGED: EtherType = EtherType(0x7777);
/// Offset of the last byte of the source MAC.
const SRC_MAC_LAST: usize = 11;

/// Records (source MAC, origin, seq) of every tagged frame delivered.
#[derive(Default)]
struct Recorder {
    got: Vec<(MacAddr, u8, u16)>,
}

impl Protocol for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, frame: Frame) {
        if frame.ethertype() == TAGGED {
            let p = frame.payload();
            self.got
                .push((frame.src(), p[0], u16::from_be_bytes([p[1], p[2]])));
        }
    }
}

/// Flips bit 0 of the source MAC's last byte in the `nth` RLL DATA frame
/// that passes it wire-ward (counting from 1).
struct SrcFlipper {
    nth: u32,
    seen: u32,
}

impl Hook for SrcFlipper {
    fn name(&self) -> &str {
        "src-flipper"
    }

    fn on_outbound(&mut self, _ctx: &mut Context<'_>, mut frame: Frame) -> Verdict {
        if matches!(wire::parse(&frame), Ok((shim, _)) if shim.opcode == RllOpcode::Data) {
            self.seen += 1;
            if self.seen == self.nth {
                frame.flip_bit(SRC_MAC_LAST, 0);
            }
        }
        Verdict::Accept(frame)
    }
}

struct Outcome {
    /// What a's recorder received, in order.
    got: Vec<(MacAddr, u8, u16)>,
    /// Each host's RLL counters: a, b, c.
    stats: [RllStats; 3],
    macs: [MacAddr; 3],
}

impl Outcome {
    /// The bed's check, as a list of what went wrong (empty when it held).
    fn violations(&self, frames: u16) -> Vec<String> {
        let mut wrong = Vec::new();
        for origin in 1..=2u8 {
            let seqs: Vec<u16> = self
                .got
                .iter()
                .filter(|g| g.1 == origin)
                .map(|g| g.2)
                .collect();
            if seqs != (0..frames).collect::<Vec<_>>() {
                wrong.push(format!("origin {origin} delivered {seqs:?}"));
            }
        }
        for &(src, origin, seq) in &self.got {
            if src != self.macs[usize::from(origin)] {
                wrong.push(format!(
                    "origin {origin}'s frame {seq} delivered as from {src}"
                ));
            }
        }
        wrong
    }
}

/// b and c each send `frames` tagged frames to a over the hub, every link
/// impaired by `errors`; `flip_nth` puts a [`SrcFlipper`] wire-ward of b's
/// RLL.
fn run(seed: u64, errors: ErrorModel, frames: u16, flip_nth: Option<u32>) -> Outcome {
    let mut world = World::new(seed);
    let hub = world.add_hub("hub", 3);
    let hosts: [DeviceId; 3] = ["a", "b", "c"].map(|name| world.add_host(name));
    let config = RllConfig {
        max_retries: 1000,
        ..RllConfig::default()
    };
    let mut rlls = Vec::new();
    for &h in &hosts {
        world.connect(h, hub, LinkConfig::fast_ethernet().errors(errors));
        rlls.push(world.add_hook(h, Box::new(RllHook::new(config))));
    }
    if let Some(nth) = flip_nth {
        world.add_hook(hosts[1], Box::new(SrcFlipper { nth, seen: 0 }));
    }
    let recorder = world.add_protocol(hosts[0], Binding::All, Box::new(Recorder::default()));
    let macs = hosts.map(|h| world.host_mac(h));
    for seq in 0..frames {
        for origin in 1..=2u8 {
            let [hi, lo] = seq.to_be_bytes();
            let mut payload = [0u8; 46];
            payload[..3].copy_from_slice(&[origin, hi, lo]);
            let frame = EthernetBuilder::new()
                .src(macs[usize::from(origin)])
                .dst(macs[0])
                .ethertype(TAGGED)
                .payload(&payload)
                .build();
            world.inject_from_stack(hosts[usize::from(origin)], frame);
        }
    }
    assert!(
        world.run_until_idle(SimTime::from_nanos(120_000_000_000)),
        "seed {seed}: the bed goes quiet"
    );
    let got = world
        .protocol::<Recorder>(hosts[0], recorder)
        .unwrap()
        .got
        .clone();
    let stats = [0, 1, 2].map(|i| world.hook::<RllHook>(hosts[i], rlls[i]).unwrap().stats());
    Outcome { got, stats, macs }
}

/// A flipped bit in the source MAC of b's 5th DATA frame turns it into a
/// frame from c. The RLL must count it corrupted and let b retransmit it,
/// not deliver b's frame 4 as c's and then refuse c's own frame 4 as a
/// duplicate.
#[test]
fn a_flipped_source_mac_is_counted_corrupted_not_delivered_as_another_hosts() {
    let outcome = run(1, ErrorModel::new(0.0, 0.0), 10, Some(5));
    assert_eq!(outcome.violations(10), Vec::<String>::new());
    let [a, b, _] = outcome.stats;
    assert_eq!(a.corrupted, 1, "{a:?}");
    assert!(b.retransmissions > 0, "{b:?}");
}

/// 5% loss and a bit-error rate of 2e-5 on every link of the hub, seeds
/// 1–64, 200 frames per sender: each origin's frames reach a exactly once,
/// in order, under their own source MAC.
#[test]
fn the_hub_bed_delivers_each_origin_exactly_once_in_order_under_bit_errors() {
    let failures: Vec<String> = (1..=64)
        .flat_map(|seed| {
            let outcome = run(seed, ErrorModel::new(0.05, 2e-5), 200, None);
            let stats = outcome.stats;
            let wrong = outcome.violations(200);
            wrong
                .into_iter()
                .map(move |w| format!("seed {seed}: {w} ({stats:?})"))
        })
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}
