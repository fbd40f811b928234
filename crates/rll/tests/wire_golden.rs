//! Golden digest of the RLL's wire bytes: every DATA and ACK frame two
//! hosts put on a lossy link, with its time and sender, folded into one
//! FNV-1a digest per seed. Sequence and ack numbering is pinned here
//! frame by frame, so a change that renumbers both ends alike (and still
//! delivers everything) moves a digest.

use vw_netsim::{
    Binding, Context, ErrorModel, LinkConfig, Protocol, SimDuration, TraceKind, World,
};
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};
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

fn tag_frame(src: MacAddr, dst: MacAddr, tag: u8) -> Frame {
    EthernetBuilder::new()
        .src(src)
        .dst(dst)
        .ethertype(EtherType(0x7777))
        .payload(&[tag; 40])
        .build()
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Runs 60 frames each way over a 25%-lossy link and digests every RLL
/// frame either host transmitted: DATA leaves the chain as `HostSend`,
/// an ACK goes straight to the NIC as a `HookEmit`.
fn wire_digest(seed: u64) -> u64 {
    let mut world = World::new(seed);
    let a = world.add_host("a");
    let b = world.add_host("b");
    world.connect(
        a,
        b,
        LinkConfig::fast_ethernet().errors(ErrorModel::lossy(0.25)),
    );
    let config = RllConfig {
        window: 8,
        max_retries: 1_000,
        ..RllConfig::default()
    };
    let hooks = [a, b].map(|h| world.add_hook(h, Box::new(RllHook::new(config))));
    let recorders =
        [a, b].map(|h| world.add_protocol(h, Binding::All, Box::new(TagRecorder::default())));
    let (mac_a, mac_b) = (world.host_mac(a), world.host_mac(b));
    for i in 0..60 {
        world.inject_from_stack(a, tag_frame(mac_a, mac_b, i));
        world.inject_from_stack(b, tag_frame(mac_b, mac_a, 100 + i));
    }
    world.run_for(SimDuration::from_secs(5));

    let tags = |h, rec| world.protocol::<TagRecorder>(h, rec).unwrap().tags.clone();
    assert_eq!(tags(b, recorders[1]), (0..60).collect::<Vec<u8>>());
    assert_eq!(tags(a, recorders[0]), (100..160).collect::<Vec<u8>>());
    for (h, hook) in [a, b].into_iter().zip(hooks) {
        let stats = world.hook::<RllHook>(h, hook).unwrap().stats();
        assert_eq!(stats.gave_up, 0, "seed {seed}");
        assert!(stats.retransmissions > 0, "seed {seed}: the loss must bite");
    }

    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut frames = 0;
    for record in world.trace().records() {
        let Some(frame) = &record.frame else { continue };
        let on_wire = matches!(record.kind, TraceKind::HostSend | TraceKind::HookEmit);
        if on_wire && frame.ethertype() == EtherType::RLL {
            fnv1a(&mut hash, &record.time.as_nanos().to_be_bytes());
            fnv1a(&mut hash, &[record.device.index() as u8]);
            fnv1a(&mut hash, frame.bytes());
            frames += 1;
        }
    }
    assert!(frames > 240, "seed {seed}: {frames} RLL frames on the wire");
    hash
}

#[test]
fn rll_frames_on_a_lossy_pair_hash_to_their_golden_digests() {
    let digests: Vec<String> = (1..=3)
        .map(|seed| format!("{:016x}", wire_digest(seed)))
        .collect();
    assert_eq!(
        digests,
        ["8ddf1e26d0505b0c", "4c90006bee1752bf", "b4f0f4529991e984"]
    );
}
