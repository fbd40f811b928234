//! Scripted stimulus + model-driven conformance checking, end to end.
//!
//! ```text
//! cargo run --release --example scripted_conformance
//! ```
//!
//! Part 1 drives a packetdrill-style script against a live testbed: timed
//! injections enter the engine hook chain like any stack traffic, and
//! timed expectations are judged against the packet trace afterwards.
//!
//! Part 2 sweeps a small fault matrix — a mid-flow TCP data-drop window
//! crossed with simulator seeds — and folds every instance's protocol-
//! conformance verdicts (the shipped TCP reference FSM replayed over the
//! sender's state log) into campaign outcome classes keyed on
//! [`DigestKey::conformance`]. The seeded-drop class must carry the
//! fast-retransmit violation; the empty-window control class must be
//! fully conformant.

use virtualwire::{compile_script, EngineConfig, Report, Runner, ScriptError};
use vw_analysis::script::{evaluate, install, Script};
use vw_analysis::{conformance_pass, tcp_reference};
use vw_campaign::{
    run_campaign, Axis, CampaignSpec, DigestKey, ExecConfig, InstanceOutcome, RunConfig, Setup,
};
use vw_fsl::TableSet;
use vw_netsim::apps::UdpSink;
use vw_netsim::{Binding, LinkConfig, SimDuration, World};
use vw_packet::EtherType;
use vw_tcpstack::{Endpoint, TcpConfig, TcpStack};

/// Part 1: a UDP echo bed where the only traffic is script-injected.
const STIMULUS_FSL: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
    SCENARIO Scripted_Stimulus 50msec
    Sent: (udp_data, node1, node2, SEND)
    (TRUE) >> ENABLE_CNTR(Sent);
    END
"#;

const STIMULUS: &str = r#"
    # three scripted datagrams; the scenario stops after the third send
    @1ms inject stack node1 udp node1 -> node2 sport 9000 dport 25443 payload-hex 01
    @2ms inject stack node1 udp node1 -> node2 sport 9000 dport 25443 payload-hex 02
    @3ms inject stack node1 udp node1 -> node2 sport 9000 dport 25443 payload-hex 03
    # each reaches node2 within a 500us tolerance window
    @1ms..1500us expect recv node2 udp dport == 25443 payload-contains-hex 01
    @2ms..2500us expect recv node2 udp dport == 25443 payload-contains-hex 02
    @3ms..3500us expect recv node2 udp dport == 25443 payload-contains-hex 03
    # nothing TCP may reach node2, ever
    @0s..1s expect-none recv node2 tcp
    # the scenario counter saw exactly the scripted sends
    @10ms assert-counter Sent == 3
"#;

/// Part 2: the §6.1 sender/receiver pair. The handshake SYNACK drop
/// leaves ssthresh at 2 segments (so the sender crosses into congestion
/// avoidance early); the campaign sweeps the mid-flow data-drop window's
/// upper bound — 21 drops the 20th data segment, 0 empties the window.
const SWEEP_FSL: &str = r#"
    FILTER_TABLE
    TCP_synack: (34 2 0x4000), (36 2 0x6000), (47 1 0x12 0x12)
    TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
    TCP_ack: (34 2 0x4000), (36 2 0x6000), (47 1 0x10 0x10)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.1
    node2 02:00:00:00:00:02 192.168.1.2
    END
    SCENARIO Swept_Data_Drop 2sec
    SYNACK: (TCP_synack, node2, node1, RECV)
    DATA: (TCP_data, node1, node2, SEND)
    ACK: (TCP_ack, node2, node1, RECV)
    (TRUE) >> ENABLE_CNTR( SYNACK ); ENABLE_CNTR( DATA ); ENABLE_CNTR( ACK );
    ((SYNACK > 0) && (SYNACK < 2)) >> DROP TCP_synack, node2, node1, RECV;
    ((DATA > 19) && (DATA < 21)) >> DROP TCP_data, node1, node2, SEND;
    ((ACK = 60)) >> STOP;
    END
"#;

fn scripted_stimulus() {
    let tables = compile_script(STIMULUS_FSL).expect("stimulus FSL compiles");
    let mut world = World::new(7);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    world.add_protocol(
        nodes[1],
        Binding::EtherType(EtherType::IPV4),
        Box::new(UdpSink::new(0x6363)),
    );

    let script = Script::parse(STIMULUS).expect("stimulus script parses");
    let scheduled = install(&script, &mut world, runner.tables()).expect("script installs");
    println!("--- scripted stimulus: {scheduled} injections scheduled ---");

    let report = runner.run(&mut world, SimDuration::from_secs(1));
    let verdicts = evaluate(&script, &world, runner.tables(), &report);
    for v in &verdicts {
        println!("  directive {:2}  {}", v.directive(), v);
    }
    assert!(
        verdicts.iter().all(|v| v.passed()),
        "the clean stimulus run must satisfy every expectation"
    );
}

/// Campaign setup: builds the TCP testbed, then replays the TCP
/// reference model over the state logs in `finish` so every instance's
/// digest carries conformance verdicts.
struct ConformanceSetup {
    names: TableSet,
}

impl Setup for ConformanceSetup {
    fn build(&self, tables: &TableSet, run: &RunConfig) -> Result<(World, Runner), ScriptError> {
        let mut world = World::with_impairment(run.seed, run.impairment);
        let nodes = Runner::create_hosts(&mut world, tables);
        let sw = world.add_switch("sw0", 4);
        for &n in &nodes {
            world.connect(n, sw, LinkConfig::fast_ethernet());
        }
        let runner = Runner::try_install(&mut world, tables.clone(), EngineConfig::default())?;
        runner.settle(&mut world);

        let tcp_cfg = TcpConfig::default();
        let mut server = TcpStack::new(world.host_mac(nodes[1]), world.host_ip(nodes[1]));
        server.listen(0x4000, tcp_cfg);
        world.add_protocol(
            nodes[1],
            Binding::EtherType(EtherType::IPV4),
            Box::new(server),
        );
        let mut client = TcpStack::new(world.host_mac(nodes[0]), world.host_ip(nodes[0]));
        let handle = client.connect(
            tcp_cfg,
            0x6000,
            Endpoint {
                mac: world.host_mac(nodes[1]),
                ip: world.host_ip(nodes[1]),
                port: 0x4000,
            },
        );
        client.send(handle, &vec![0x42u8; 80_000]);
        world.add_protocol(
            nodes[0],
            Binding::EtherType(EtherType::IPV4),
            Box::new(client),
        );
        Ok((world, runner))
    }

    fn finish(&self, world: &mut World, report: &mut Report) {
        conformance_pass(&[tcp_reference()], &self.names, world, report);
    }
}

fn conformance_sweep() {
    let spec = CampaignSpec::new(
        "scripted_conformance",
        vw_fsl::parse(SWEEP_FSL).expect("sweep FSL parses"),
    )
    // Occurrence 1 is the `DATA < 21` upper bound: 21 keeps the seeded
    // drop, 20/0 shrink it away (20 leaves `19 < DATA < 20` empty too).
    .axis(Axis::threshold_at("DATA", 1, vec![21, 20, 0]))
    .axis(Axis::seeds(vec![1, 4, 9]));

    let setup = ConformanceSetup {
        names: compile_script(SWEEP_FSL).expect("sweep FSL compiles"),
    };
    let cfg = ExecConfig {
        key: DigestKey {
            conformance: true,
            ..DigestKey::default()
        },
        ..ExecConfig::threads(4)
    };
    let result = run_campaign(&spec, &setup, &cfg).expect("campaign runs");
    println!(
        "\n--- conformance sweep: {} instances, {} classes ---",
        result.instances.len(),
        result.classes.len()
    );

    let mut conformant_classes = 0usize;
    let mut fast_retransmit_classes = 0usize;
    for class in &result.classes {
        let InstanceOutcome::Completed(digest) = &class.outcome else {
            panic!("unexpected outcome in class: {:?}", class.outcome);
        };
        println!("class {:016x}  members {:?}", class.digest, class.members);
        for (model, node, verdict) in &digest.conformance {
            println!("    {model}/{node}: {verdict}");
        }
        if digest.conformant() {
            conformant_classes += 1;
        }
        if digest
            .conformance
            .iter()
            .any(|(_, _, v)| v.contains("fast-retransmit"))
        {
            fast_retransmit_classes += 1;
        }
    }
    assert!(
        conformant_classes > 0,
        "the empty-window control runs must form a fully conformant class"
    );
    assert!(
        fast_retransmit_classes > 0,
        "the seeded-drop runs must form a fast-retransmit violation class"
    );
}

fn main() {
    scripted_stimulus();
    conformance_sweep();
    println!("\nscripted_conformance OK");
}
