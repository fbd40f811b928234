//! The "before VirtualWire" workflow, automated: capture a packet trace of
//! a faulted run, export it as a standard pcap, and inspect it — then
//! contrast with the online analysis the engines already did.
//!
//! The paper's introduction complains that testing Rether meant "collecting
//! tcpdump traces and inspecting them manually or through some simple
//! testcase specific filter programs". The simulator records an equivalent
//! trace for free; this example routes it through the `vw-obs` pcap
//! exporter (the bytes open in Wireshark/tcpdump), parses the capture back
//! to prove it round-trips, and dumps the filtered records tcpdump-style
//! next to the engine-generated report — both what the FAE concluded and
//! the raw evidence it concluded it from.
//!
//! ```text
//! cargo run --example trace_dump
//! ```

use virtualwire::{compile_script, pcap, EngineConfig, Runner};
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
    SCENARIO Inspect
    Sent: (udp_data, node1, node2, SEND)
    (TRUE) >> ENABLE_CNTR(Sent);
    ((Sent = 2)) >> DROP(udp_data, node1, node2, SEND);
    ((Sent = 4)) >> DUP(udp_data, node1, node2, SEND);
    ((Sent = 6)) >> STOP;
    END
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tables = compile_script(SCRIPT)?;
    let mut world = World::new(3);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    runner.settle(&mut world);
    world.trace_mut().clear(); // drop the init chatter, keep the run

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

    // The tcpdump replacement: one pcap export, readable by any standard
    // tool, round-tripped through the parser to show nothing was lost.
    let capture = pcap::export_trace(world.trace());
    let packets = pcap::parse(&capture)?;
    println!(
        "=== pcap export: {} bytes, {} packets (nanosecond libpcap, LINKTYPE_ETHERNET) ===",
        capture.len(),
        packets.len()
    );
    let out = std::env::temp_dir().join("virtualwire_trace_dump.pcap");
    std::fs::write(&out, &capture)?;
    println!("wrote {} — open it in Wireshark or tcpdump", out.display());

    println!("\n=== packet trace (UDP data frames only) ===");
    for record in world.trace().records() {
        let is_udp = record
            .frame
            .as_ref()
            .is_some_and(|f| f.udp().is_some_and(|u| u.dst_port() == 0x6363));
        if is_udp {
            // The world renders a record with its own device and hook
            // names (node1/node2/sw0).
            println!("{}", world.render_trace_record(record));
        }
    }

    // The faults themselves are the FAE's facts, typed, not trace text.
    println!("\n=== the FAE's facts beside those frames ===");
    for (node, stats) in &report.stats {
        println!("{node}: drops {} dups {}", stats.drops, stats.dups);
    }
    for error in &report.errors {
        println!("flagged {error}");
    }

    println!("\n=== and a hexdump of the first parsed pcap packet ===");
    if let Some(packet) = packets.iter().find(|p| p.bytes.len() > 42) {
        for (i, chunk) in packet.bytes.chunks(16).enumerate() {
            print!("{:04x}  ", i * 16);
            for b in chunk {
                print!("{b:02x} ");
            }
            println!();
        }
    }

    println!("\n=== what the FAE already knew without any of that ===");
    print!("{}", report.render());
    Ok(())
}
