//! The flight recorder end to end: run a faulted scenario with full
//! causal tracing, dump the event timeline, unwind the flagged error into
//! its causal chain, snapshot the metrics registry as JSON lines, and
//! export the wire trace as a pcap capture that opens in Wireshark.
//!
//! ```text
//! cargo run --example obs_flight_recorder
//! ```

use virtualwire::{compile_script, pcap, EngineConfig, ObsLevel, Runner};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, LinkConfig, SimDuration, World};
use vw_packet::EtherType;

const SCRIPT: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
    SCENARIO FlightRecorder
    Sent: (udp_data, node1, node2, SEND)
    (TRUE) >> ENABLE_CNTR(Sent);
    ((Sent = 3)) >> DROP(udp_data, node1, node2, SEND); FLAG_ERR "third packet dropped";
    ((Sent = 6)) >> STOP;
    END
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tables = compile_script(SCRIPT)?;
    let mut world = World::new(7);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(
        &mut world,
        tables,
        EngineConfig {
            obs: ObsLevel::Full,
            ..EngineConfig::default()
        },
    );
    runner.settle(&mut world);

    world.add_protocol(
        nodes[1],
        Binding::EtherType(EtherType::IPV4),
        Box::new(UdpSink::new(0x6363)),
    );
    let flooder = UdpFlooder::new(
        world.host_mac(nodes[1]),
        world.host_ip(nodes[1]),
        0x6363,
        9000,
        1_000_000,
        120,
        20 * 120,
    );
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    let report = runner.run(&mut world, SimDuration::from_secs(1));

    println!("=== causal event timeline ===");
    for event in &report.events {
        println!("{}", event.render(&report.symbols));
    }

    println!("\n=== why did the run flag an error? ===");
    for error in &report.errors {
        println!("error: {error}");
        if let Some(chain) = report.explain(error) {
            print!("{}", chain.render(&report.symbols));
        }
    }

    println!("\n=== metrics snapshot (JSON lines) ===");
    print!("{}", report.metrics().to_jsonl());

    let capture = pcap::export_trace(world.trace());
    let packets = pcap::parse(&capture)?;
    println!(
        "=== pcap export: {} bytes, {} packets (nanosecond libpcap, \
         LINKTYPE_ETHERNET — pipe to a file and open in Wireshark) ===",
        capture.len(),
        packets.len()
    );

    println!("\n=== report ===");
    print!("{report}");
    Ok(())
}
