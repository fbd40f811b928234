//! Frame conservation under DELAY/REORDER/MODIFY faults: injected faults
//! must never create or destroy frames beyond what the FSL program
//! specifies. REORDER permutes, DELAY postpones, an off-end SET is a
//! flagged diagnostic — none of them may silently eat traffic.

use proptest::prelude::*;
use virtualwire::{compile_script, EngineConfig, Runner};
use vw_fsl::{CompiledActionKind, Fault};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, LinkConfig, SimDuration, World};
use vw_packet::EtherType;

const PREAMBLE: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
"#;

struct Bed {
    world: World,
    nodes: Vec<vw_netsim::DeviceId>,
    runner: Runner,
    sink: vw_netsim::ProtocolId,
}

/// Two hosts via a switch; node1 floods `count` UDP datagrams of
/// `payload` bytes at 1 Mb/s toward node2's sink on port 0x6363. The
/// compiled tables pass through `patch` before installation, so tests
/// can inject action parameters the FSL front end would reject.
fn testbed(
    seed: u64,
    scenario: &str,
    count: u64,
    payload: usize,
    patch: impl FnOnce(&mut vw_fsl::TableSet),
) -> Bed {
    let script = format!("{PREAMBLE}{scenario}");
    let mut tables = compile_script(&script).unwrap_or_else(|e| panic!("{e}"));
    patch(&mut tables);
    let mut world = World::new(seed);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    let sink = world.add_protocol(
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
        payload,
        count * payload as u64,
    );
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    Bed {
        world,
        nodes,
        runner,
        sink,
    }
}

fn sink_frames(bed: &Bed) -> u64 {
    bed.world
        .protocol::<UdpSink>(bed.nodes[1], bed.sink)
        .unwrap()
        .frames()
}

/// Whether `order` is an exact permutation of `0..count` (each index
/// mentioned exactly once, nothing out of range) — the only shape the
/// engine does not flag as malformed.
fn is_exact_permutation(order: &[u32], count: usize) -> bool {
    let mut seen = vec![false; count];
    for &i in order {
        match seen.get_mut(i as usize) {
            Some(slot) if !*slot => *slot = true,
            _ => return false,
        }
    }
    seen.iter().all(|&s| s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// REORDER with an arbitrary order — partial, duplicated, or
    /// out-of-range — must still deliver every frame: mentioned frames in
    /// the permuted order, unmentioned ones after them, and the batch
    /// left unfilled at run end flushed by teardown. Malformed orders are
    /// counted once per released batch.
    #[test]
    fn reorder_arbitrary_orders_conserve_frames(
        order in proptest::collection::vec(0u32..8, 0..7),
        seed in 0u64..1000,
    ) {
        let bed = &mut testbed(
            seed,
            r#"
            SCENARIO ReorderConservation
            Rcvd: (udp_data, node1, node2, RECV)
            (TRUE) >> ENABLE_CNTR(Rcvd);
            (TRUE) >> REORDER(udp_data, node1, node2, RECV, 3, (0 1 2));
            END
            "#,
            10,
            200,
            |tables| {
                for action in &mut tables.actions {
                    if let CompiledActionKind::Fault {
                        fault: Fault::Reorder { order: o, .. },
                        ..
                    } = &mut action.kind
                    {
                        *o = order.clone();
                    }
                }
            },
        );
        let report = bed.runner.run(&mut bed.world, SimDuration::from_millis(500));
        // 10 frames, batches of 3: three released batches, one frame
        // still buffered at run end and flushed on teardown. The
        // RECV-side flush delivers up synchronously, so the sink must
        // see every datagram no matter how garbled the order is.
        prop_assert_eq!(sink_frames(bed), 10, "REORDER must never lose frames");
        prop_assert_eq!(report.counter("Rcvd"), Some(10));
        let stats = bed.runner.engine(&bed.world, "node2").unwrap().stats();
        prop_assert_eq!(stats.reorders, 10);
        prop_assert_eq!(stats.teardown_flushed, 1, "the unfilled batch is flushed");
        prop_assert_eq!(stats.faults_in_limbo, 0, "nothing may stay in limbo");
        let expected_malformed = if is_exact_permutation(&order, 3) { 0 } else { 3 };
        prop_assert_eq!(stats.reorder_malformed, expected_malformed);
    }
}

/// Frames sitting in a DELAY line when the run stops are flushed at
/// teardown instead of vanishing: the receive-side flush reaches the
/// local stack, so the sink still sees all traffic.
#[test]
fn delay_pending_at_run_end_is_flushed() {
    let bed = &mut testbed(
        7,
        r#"
        SCENARIO DelayAtStop
        Rcvd: (udp_data, node1, node2, RECV)
        (TRUE) >> ENABLE_CNTR(Rcvd);
        (TRUE) >> DELAY(udp_data, node1, node2, RECV, 500msec);
        END
        "#,
        10,
        200,
        |_| {},
    );
    // All 10 datagrams arrive within ~20 ms of simulated time and every
    // one is parked for 500 ms — far past the 100 ms deadline.
    let report = bed
        .runner
        .run(&mut bed.world, SimDuration::from_millis(100));
    assert!(report.passed());
    let stats = bed.runner.engine(&bed.world, "node2").unwrap().stats();
    assert_eq!(
        stats.delays, 10,
        "every datagram went through the delay line"
    );
    assert_eq!(stats.teardown_flushed, 10, "all of them were still held");
    assert_eq!(stats.faults_in_limbo, 0);
    assert_eq!(sink_frames(bed), 10, "DELAY must never lose frames");
}

/// A scripted frame injected onto a host while a DELAY line is holding
/// parked traffic must join the line like any other frame: conserved
/// (nothing lost, nothing duplicated), released in arrival order, and
/// at a byte-identical position on every same-seed run.
#[test]
fn scripted_injection_mid_delay_interleaves_deterministically() {
    fn deliveries(seed: u64) -> Vec<(u64, u16)> {
        let bed = &mut testbed(
            seed,
            r#"
            SCENARIO ScriptedMidDelay
            Rcvd: (udp_data, node1, node2, RECV)
            (TRUE) >> ENABLE_CNTR(Rcvd);
            (TRUE) >> DELAY(udp_data, node1, node2, RECV, 50msec);
            END
            "#,
            10,
            200,
            |_| {},
        );
        // The flooder's 10 datagrams arrive over ~20 ms; the scripted
        // frame lands at 10 ms, while the delay line still holds every
        // earlier arrival (none release before 50 ms).
        let script = vw_analysis::script::Script::parse(
            "@10ms inject wire node2 udp node1 -> node2 sport 7777 dport 25443 payload-hex aa\n",
        )
        .unwrap();
        let scheduled =
            vw_analysis::script::install(&script, &mut bed.world, bed.runner.tables()).unwrap();
        assert_eq!(scheduled, 1);
        let report = bed
            .runner
            .run(&mut bed.world, SimDuration::from_millis(500));
        assert!(report.passed());
        let stats = bed.runner.engine(&bed.world, "node2").unwrap().stats();
        assert_eq!(
            stats.delays, 11,
            "flooded and scripted frames all took the delay line"
        );
        assert_eq!(stats.faults_in_limbo, 0, "nothing may stay in limbo");
        assert_eq!(
            sink_frames(bed),
            11,
            "conservation: 10 flooded + 1 scripted"
        );
        bed.world
            .trace()
            .records()
            .iter()
            .filter(|r| r.device == bed.nodes[1] && r.kind == vw_netsim::TraceKind::HostRecv)
            .filter_map(|r| {
                let frame = r.frame.as_ref()?;
                Some((r.time.as_nanos(), frame.udp()?.src_port()))
            })
            .collect()
    }

    let first = deliveries(42);
    let second = deliveries(42);
    assert_eq!(
        first, second,
        "same seed must reproduce the exact interleaving"
    );
    assert_eq!(first.len(), 11);
    assert!(
        first.windows(2).all(|w| w[0].0 <= w[1].0),
        "releases preserve time order: {first:?}"
    );
    let pos = first
        .iter()
        .position(|&(_, sport)| sport == 7777)
        .expect("the scripted frame must be delivered");
    assert!(
        pos > 0 && pos < first.len() - 1,
        "scripted frame must interleave mid-stream, not bolt on at an end (pos {pos}): {first:?}"
    );
}

/// A SET whose write window falls off the end of the frame is skipped
/// with a flagged diagnostic — the frame passes through unmodified
/// instead of being truncated or panicking the engine.
#[test]
fn off_end_set_is_flagged_not_fatal() {
    let bed = &mut testbed(
        8,
        r#"
        SCENARIO OffEndSet
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        (TRUE) >> MODIFY(udp_data, node1, node2, SEND, (5000 2 0xBEEF));
        END
        "#,
        5,
        200,
        |_| {},
    );
    let report = bed
        .runner
        .run(&mut bed.world, SimDuration::from_millis(500));
    let stats = bed.runner.engine(&bed.world, "node1").unwrap().stats();
    assert_eq!(stats.modifies, 5);
    assert_eq!(stats.modify_oob, 5, "every write fell off the end");
    assert_eq!(sink_frames(bed), 5, "frames still flow, unmodified");
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.message.contains("outside the")),
        "off-end SET must surface as a flagged diagnostic: {:?}",
        report.errors
    );
}

/// The FSL front end rejects a SET wider than 8 bytes at compile time —
/// the engine never sees one.
#[test]
fn set_wider_than_8_bytes_rejected_at_compile_time() {
    let script = format!(
        "{PREAMBLE}
        SCENARIO WideSet
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> MODIFY(udp_data, node1, node2, SEND, (14 9 0x01));
        END
        "
    );
    let err = compile_script(&script).expect_err("9-byte SET must not compile");
    let msg = err.to_string();
    assert!(
        msg.contains("1..=8"),
        "error should name the supported width range: {msg}"
    );
}
