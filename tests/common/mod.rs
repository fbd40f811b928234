//! What more than one integration-test file builds.

// Each test file compiles this module for itself and uses its own subset.
#![allow(dead_code)]

use virtualwire::{compile_script, EngineConfig, Runner};
use vw_netsim::{
    Binding, DeviceId, ErrorModel, HookId, LinkConfig, ProtocolId, SimDuration, World,
};
use vw_packet::EtherType;
use vw_rether::{RetherConfig, RetherNode};
use vw_rll::RllConfig;
use vw_tcpstack::{Endpoint, SocketHandle, TcpConfig, TcpStack};

/// The tower under test, wired and settled, with 60 000 bytes queued on
/// node1's TCP socket toward node3 and a `STOP` on the 60th data segment.
pub struct Tower {
    pub world: World,
    pub runner: Runner,
    pub nodes: Vec<DeviceId>,
    pub rether_hooks: Vec<HookId>,
    /// The server stack, on node3.
    pub sid: ProtocolId,
    /// The client stack, on node1, and its socket.
    pub cid: ProtocolId,
    pub h: SocketHandle,
}

pub fn build_tower() -> Tower {
    // Stack per node: TCP → Rether → VirtualWire engine → RLL → wire.
    // The wire loses 5% of frames; the RLL must mask that entirely, so
    // Rether sees a perfect medium and never reconstructs, and TCP never
    // retransmits (its segments ride reliable token slots).
    let script = r#"
        FILTER_TABLE
        tr_token: (12 2 0x9900), (14 2 0x0001)
        TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
        END
        NODE_TABLE
        node1 02:00:00:00:00:01 192.168.1.1
        node2 02:00:00:00:00:02 192.168.1.2
        node3 02:00:00:00:00:03 192.168.1.3
        END
        SCENARIO FullTower 2sec
        Data: (TCP_data, node1, node3, RECV)
        (TRUE) >> ENABLE_CNTR(Data);
        ((Data = 60)) >> STOP;
        END
    "#;
    let tables = compile_script(script).unwrap();
    let mut world = World::new(99);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let hub = world.add_hub("bus", 4);
    for &n in &nodes {
        world.connect(
            n,
            hub,
            LinkConfig::ethernet_10m().errors(ErrorModel::lossy(0.05)),
        );
    }
    let ring: Vec<_> = tables.nodes.iter().map(|n| n.mac).collect();
    let mut rether_hooks = Vec::new();
    for (i, &node) in nodes.iter().enumerate() {
        // The token is passed after the hold's data burst, which at
        // 10 Mb/s can take tens of milliseconds to serialize — the ack
        // timeout must cover it (hold budget ≈ 24 KB ⇒ ~20 ms on the
        // wire), or the ring declares healthy successors dead.
        let cfg = RetherConfig {
            token_ack_timeout: SimDuration::from_millis(60),
            regen_base: SimDuration::from_millis(800),
            nrt_quantum_bytes: 8 * 1024,
            ..RetherConfig::new(ring.clone())
        };
        let mut rether = RetherNode::new(cfg, ring[i]);
        rether.reserve_rt(16 * 1024);
        rether_hooks.push(world.add_hook(node, Box::new(rether)));
    }
    let runner = Runner::install_with_rll(
        &mut world,
        tables,
        EngineConfig::default(),
        RllConfig {
            max_retries: 200,
            ..RllConfig::default()
        },
    );
    runner.settle(&mut world);

    let tcp_cfg = TcpConfig::default();
    let mut server = TcpStack::new(world.host_mac(nodes[2]), world.host_ip(nodes[2]));
    server.listen(0x4000, tcp_cfg);
    let sid = world.add_protocol(
        nodes[2],
        Binding::EtherType(EtherType::IPV4),
        Box::new(server),
    );
    let mut client = TcpStack::new(world.host_mac(nodes[0]), world.host_ip(nodes[0]));
    let h = client.connect(
        tcp_cfg,
        0x6000,
        Endpoint {
            mac: world.host_mac(nodes[2]),
            ip: world.host_ip(nodes[2]),
            port: 0x4000,
        },
    );
    client.send(h, &vec![0xABu8; 60_000]);
    let cid = world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(client),
    );
    Tower {
        world,
        runner,
        nodes,
        rether_hooks,
        sid,
        cid,
        h,
    }
}
