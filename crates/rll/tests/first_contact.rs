//! A garbled frame is lost to the RLL even before a session exists.
//!
//! An RLL host's peers send it nothing but RLL frames, so a unicast frame
//! addressed to it that is not one is an RLL frame the wire garbled. Before
//! any session with its sender exists, the host must still count it
//! corrupted and leave it to be retransmitted, not pass it up the stack as
//! foreign traffic.

use vw_netsim::{Binding, Context, Hook, LinkConfig, Protocol, SimTime, Verdict, World};
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};
use vw_rll::wire::{self, RllOpcode};
use vw_rll::{RllConfig, RllHook};

const TAGGED: EtherType = EtherType(0x7777);
/// Offsets of the last bytes of the source MAC and of the EtherType.
const SRC_MAC_LAST: usize = 11;
const ETHERTYPE_LAST: usize = 13;

/// Records the source, EtherType and first payload byte of every frame
/// delivered up.
#[derive(Default)]
struct Recorder {
    got: Vec<(MacAddr, EtherType, u8)>,
}

impl Protocol for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, frame: Frame) {
        let tag = frame.payload().first().copied().unwrap_or(0);
        self.got.push((frame.src(), frame.ethertype(), tag));
    }
}

/// Flips bit 0 of the EtherType and of the source MAC in the first RLL
/// DATA frame that passes it wire-ward.
struct FirstFrameGarbler {
    done: bool,
}

impl Hook for FirstFrameGarbler {
    fn name(&self) -> &str {
        "first-frame-garbler"
    }

    fn on_outbound(&mut self, _ctx: &mut Context<'_>, mut frame: Frame) -> Verdict {
        let data = matches!(wire::parse(&frame), Ok((shim, _)) if shim.opcode == RllOpcode::Data);
        if data && !self.done {
            self.done = true;
            frame.flip_bit(ETHERTYPE_LAST, 0);
            frame.flip_bit(SRC_MAC_LAST, 0);
        }
        Verdict::Accept(frame)
    }
}

/// b sends host a three tagged frames; the wire garbles the first one's
/// EtherType and source MAC before a has a session with b. a counts it
/// corrupted, passes nothing up but b's three frames, in order, and b
/// retransmits the lost one.
#[test]
fn a_garbled_first_frame_is_counted_corrupted_not_passed_up() {
    let mut world = World::new(1);
    let a = world.add_host("a");
    let b = world.add_host("b");
    world.connect(a, b, LinkConfig::fast_ethernet());
    let rll_a = world.add_hook(a, Box::new(RllHook::new(RllConfig::default())));
    let rll_b = world.add_hook(b, Box::new(RllHook::new(RllConfig::default())));
    world.add_hook(b, Box::new(FirstFrameGarbler { done: false }));
    let recorder = world.add_protocol(a, Binding::All, Box::new(Recorder::default()));
    let (mac_a, mac_b) = (world.host_mac(a), world.host_mac(b));
    for tag in 0..3u8 {
        let frame = EthernetBuilder::new()
            .src(mac_b)
            .dst(mac_a)
            .ethertype(TAGGED)
            .payload(&[tag; 46])
            .build();
        world.inject_from_stack(b, frame);
    }
    assert!(world.run_until_idle(SimTime::from_nanos(1_000_000_000)));

    let got = &world.protocol::<Recorder>(a, recorder).unwrap().got;
    let expected: Vec<_> = (0..3).map(|tag| (mac_b, TAGGED, tag)).collect();
    assert_eq!(*got, expected);
    let stats_a = world.hook::<RllHook>(a, rll_a).unwrap().stats();
    assert_eq!((stats_a.corrupted, stats_a.bypassed), (1, 0), "{stats_a:?}");
    let stats_b = world.hook::<RllHook>(b, rll_b).unwrap().stats();
    assert!(stats_b.retransmissions > 0, "{stats_b:?}");
}
