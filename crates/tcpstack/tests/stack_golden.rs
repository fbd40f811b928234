//! Golden pins of what a TCP stack reports and sends: one bulk connection
//! over a lossy switched LAN, fed by a rate-controlled source at each end
//! (the server's attached once it has accepted, then poked), which takes
//! the client through both an RTO and a fast retransmit. For each seed the
//! client's and the server's `state_log()` entries, every frame a host put
//! on the wire (time, sender, bytes) and the world's `work()` are folded
//! into FNV-1a digests and counts. A change to how the stack keeps or diffs
//! its per-connection state that moves one log entry, one RTO cancel or
//! one frame moves a pin.

use vw_netsim::{
    Binding, DeviceId, ErrorModel, HandlerRef, LinkConfig, ProtocolId, SimDuration, TraceKind,
    World,
};
use vw_packet::EtherType;
use vw_tcpstack::{Endpoint, SocketHandle, StateChange, TcpConfig, TcpStack};

const TOTAL: u64 = 120_000;
const REPLY: u64 = 40_000;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn log_digest(log: &[StateChange]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (time, aspect, value) in log {
        fnv1a(&mut hash, &time.as_nanos().to_be_bytes());
        fnv1a(&mut hash, aspect.label().as_bytes());
        fnv1a(&mut hash, &value.to_be_bytes());
    }
    hash
}

fn stack(world: &World, host: DeviceId, id: ProtocolId) -> &TcpStack {
    world.protocol::<TcpStack>(host, id).unwrap()
}

/// Runs the bed for `seed` and renders its pins on one line:
/// client log length and digest, server log length and digest, frames on
/// the wire and their digest, then the world's work counts.
fn pins(seed: u64) -> String {
    let mut world = World::new(seed);
    let client = world.add_host("client");
    let server = world.add_host("server");
    let sw = world.add_switch("sw0", 4);
    let link = LinkConfig::ethernet_10m().errors(ErrorModel::lossy(0.03));
    world.connect(client, sw, link);
    world.connect(server, sw, link);

    let mut listener = TcpStack::new(world.host_mac(server), world.host_ip(server));
    listener.listen(80, TcpConfig::default());
    let sid = world.add_protocol(
        server,
        Binding::EtherType(EtherType::IPV4),
        Box::new(listener),
    );
    let mut sender = TcpStack::new(world.host_mac(client), world.host_ip(client));
    let h = sender.connect(
        TcpConfig::default(),
        5000,
        Endpoint {
            mac: world.host_mac(server),
            ip: world.host_ip(server),
            port: 80,
        },
    );
    sender.attach_source(h, 4_000_000, TOTAL);
    let cid = world.add_protocol(
        client,
        Binding::EtherType(EtherType::IPV4),
        Box::new(sender),
    );
    world.run_for(SimDuration::from_millis(50));
    let accepted = world
        .protocol_mut::<TcpStack>(server, sid)
        .unwrap()
        .take_accepted();
    assert_eq!(accepted, [SocketHandle::from_index(0)], "seed {seed}");
    world
        .protocol_mut::<TcpStack>(server, sid)
        .unwrap()
        .attach_source(accepted[0], 1_000_000, REPLY);
    world.poke(server, HandlerRef::Protocol(sid));
    world.run_for(SimDuration::from_secs(30));

    let stats = stack(&world, client, cid).socket(h).stats();
    assert!(stats.timeouts >= 1, "seed {seed}: no RTO");
    assert!(
        stats.fast_retransmits >= 1,
        "seed {seed}: no fast retransmit"
    );
    let got = world
        .protocol_mut::<TcpStack>(server, sid)
        .unwrap()
        .socket_mut(accepted[0])
        .take_received();
    assert_eq!(got.len() as u64, TOTAL, "seed {seed}: transfer incomplete");
    let got = world
        .protocol_mut::<TcpStack>(client, cid)
        .unwrap()
        .socket_mut(h)
        .take_received();
    assert_eq!(got.len() as u64, REPLY, "seed {seed}: reply incomplete");

    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut frames = 0;
    for record in world.trace().records() {
        let Some(frame) = &record.frame else { continue };
        if record.kind == TraceKind::HostSend {
            fnv1a(&mut hash, &record.time.as_nanos().to_be_bytes());
            fnv1a(&mut hash, &[record.device.index() as u8]);
            fnv1a(&mut hash, frame.bytes());
            frames += 1;
        }
    }
    let (client_log, server_log) = (
        stack(&world, client, cid).state_log(),
        stack(&world, server, sid).state_log(),
    );
    format!(
        "client {} {:016x} server {} {:016x} frames {} {:016x} {:?}",
        client_log.len(),
        log_digest(client_log),
        server_log.len(),
        log_digest(server_log),
        frames,
        hash,
        world.work(),
    )
}

#[test]
fn a_lossy_bulk_connection_pins_its_state_logs_frames_and_work() {
    let got: Vec<String> = (1..=8).map(pins).collect();
    let want = [
        "client 89 caa3b290a0caacb6 server 36 e0a15d1607b942db frames 333 61198b0e23135b34 WorkCounts { pops: [644, 660, 159, 3, 0], same_tick_pops: 155, moves: 6414, cancels: 283 }",
        "client 78 dd63c70a4f2f07d5 server 25 126897f0b0d80463 frames 333 7aa60c60f65c3dc2 WorkCounts { pops: [642, 657, 159, 3, 0], same_tick_pops: 158, moves: 6671, cancels: 287 }",
        "client 62 fb6c3d6763158597 server 35 6fd87e029e28b6bd frames 353 1ab0289c4bae1756 WorkCounts { pops: [680, 698, 161, 3, 0], same_tick_pops: 167, moves: 7524, cancels: 473 }",
        "client 108 5bbf6866b78e8df8 server 23 0e6f8e130fa2e4f4 frames 339 2c6f19ba55574793 WorkCounts { pops: [649, 668, 164, 3, 0], same_tick_pops: 141, moves: 6346, cancels: 312 }",
        "client 77 f7def4e0bd560168 server 41 1df2182c5f9ce0a9 frames 336 d0468abb6cf16454 WorkCounts { pops: [639, 658, 163, 3, 0], same_tick_pops: 118, moves: 6317, cancels: 317 }",
        "client 79 2c9aabe03a320b19 server 33 0e8289373a8609d2 frames 351 9495497328f45a79 WorkCounts { pops: [669, 689, 165, 3, 0], same_tick_pops: 139, moves: 6581, cancels: 350 }",
        "client 73 8c361567575316c8 server 39 d772a7a158b5a2d4 frames 340 2ff48bfc7bbcc8b9 WorkCounts { pops: [646, 669, 165, 3, 0], same_tick_pops: 164, moves: 6794, cancels: 401 }",
        "client 53 93d9da9aa36c3289 server 42 98e3b35158c76c49 frames 331 fa3f5b3aaf5c5639 WorkCounts { pops: [633, 653, 161, 3, 0], same_tick_pops: 196, moves: 6451, cancels: 257 }",
    ];
    assert_eq!(got, want);
}
