//! A stack's sources start in socket order. Four connections on one stack,
//! each fed by its own source, put the same frames on the wire in every
//! fresh world: nothing in the run may depend on a map's per-process
//! random order.

use vw_netsim::{Binding, LinkConfig, SimDuration, TraceKind, World};
use vw_packet::EtherType;
use vw_tcpstack::{Endpoint, TcpConfig, TcpStack};

/// Every frame either host sent, with its time and sender, in trace order.
fn wire(seed: u64) -> Vec<u8> {
    let mut world = World::new(seed);
    let client = world.add_host("client");
    let server = world.add_host("server");
    let sw = world.add_switch("sw0", 4);
    world.connect(client, sw, LinkConfig::fast_ethernet());
    world.connect(server, sw, LinkConfig::fast_ethernet());

    let mut listener = TcpStack::new(world.host_mac(server), world.host_ip(server));
    listener.listen(80, TcpConfig::default());
    world.add_protocol(
        server,
        Binding::EtherType(EtherType::IPV4),
        Box::new(listener),
    );
    let mut sender = TcpStack::new(world.host_mac(client), world.host_ip(client));
    let remote = Endpoint {
        mac: world.host_mac(server),
        ip: world.host_ip(server),
        port: 80,
    };
    for port in 5000..5004 {
        let h = sender.connect(TcpConfig::default(), port, remote);
        sender.attach_source(h, 2_000_000, 20_000);
    }
    world.add_protocol(
        client,
        Binding::EtherType(EtherType::IPV4),
        Box::new(sender),
    );
    world.run_for(SimDuration::from_secs(1));

    let mut bytes = Vec::new();
    for record in world.trace().records() {
        let Some(frame) = &record.frame else { continue };
        if record.kind == TraceKind::HostSend {
            bytes.extend_from_slice(&record.time.as_nanos().to_be_bytes());
            bytes.push(record.device.index() as u8);
            bytes.extend_from_slice(frame.bytes());
        }
    }
    bytes
}

#[test]
fn four_sources_on_one_stack_send_the_same_frames_in_every_fresh_world() {
    let first = wire(7);
    assert!(
        first.len() > 80_000,
        "the sources must have sent their data"
    );
    let differing = (1..16).filter(|_| wire(7) != first).count();
    assert_eq!(
        differing, 0,
        "{differing} of 15 later runs differ from the first"
    );
}
