//! The offline half of the Fault Analysis Engine: print the timeline of a
//! three-node distributed run (every engine's flight-recorder events,
//! merged by time), check it against the built-in causal invariants, and
//! then demonstrate a detection by seeding a violation — erasing the
//! control-plane deliveries so a remote term flip loses the message that
//! justified it.
//!
//! ```text
//! cargo run --example fault_analysis
//! ```

use virtualwire::{compile_script, EngineConfig, ObsEvent, ObsKind, ObsLevel, Runner};
use vw_analysis::check_invariants;
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, LinkConfig, SimDuration, World};
use vw_packet::EtherType;

// The Figure 6 pattern: the counter lives on node2, the action it
// triggers executes on node3 — forcing a TERM_STATUS control message
// across the wire, a happens-before edge between the two engines.
const SCRIPT: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    node3 02:00:00:00:00:03 192.168.1.4
    END
    SCENARIO RemoteFail
    Rcvd: (udp_data, node1, node2, RECV)
    (TRUE) >> ENABLE_CNTR(Rcvd);
    ((Rcvd = 3)) >> FAIL(node3);
    ((Rcvd = 8)) >> STOP;
    END
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tables = compile_script(SCRIPT)?;
    let mut world = World::new(2);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 8);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(
        &mut world,
        tables.clone(),
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
        200,
        10 * 200,
    );
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    let report = runner.run(&mut world, SimDuration::from_secs(1));

    // One view of all three engines, ordered by time: a control frame
    // takes time to cross the wire, so node2's term flip and send come
    // before node3's delivery and FAIL.
    println!("=== distributed timeline ===");
    for event in &report.events {
        println!("{}", event.render(&report.symbols));
    }

    let violations = check_invariants(&report.events, &tables);
    println!("\n=== invariant check (clean run) ===");
    println!(
        "4 invariants over {} events: {} violations",
        report.events.len(),
        violations.len()
    );
    assert!(
        violations.is_empty(),
        "a correct run must satisfy every invariant"
    );

    // Now seed the exact bug the checker exists to catch: drop every
    // control-plane delivery from the record, as if node3's flight
    // recorder lost them. Its remote TermFlipped is now an orphan — a
    // state change with no message to justify it.
    let doctored: Vec<ObsEvent> = report
        .events
        .iter()
        .filter(|e| !matches!(e.kind, ObsKind::ControlDelivered { .. }))
        .cloned()
        .collect();
    let seeded = check_invariants(&doctored, &tables);
    println!("\n=== invariant check (deliveries erased) ===");
    for violation in &seeded {
        print!("{}", violation.render(&report.symbols));
    }
    assert!(
        seeded.iter().any(|v| v.invariant == "remote-term-delivery"),
        "erasing deliveries must orphan the remote term flip"
    );

    println!("\n=== engine report ===");
    print!("{}", report.render());
    Ok(())
}
