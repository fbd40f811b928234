//! What `shrink` returns, pinned whole as text: the reproducer script,
//! rule counts before and after, counters and filters removed, each
//! bisected axis's settled value and the candidate runs spent — once
//! bisecting a `Threshold` axis and once a `DelayNs` axis.
//!
//! Regenerate with `GOLDEN_PRINT=1 cargo test -p vw-campaign --test
//! shrink_golden -- --nocapture` and paste; a diff here is a change to
//! what the shrinker tries and keeps, not a formatting detail.

use std::fmt::Write as _;

use virtualwire::{EngineConfig, Runner, ScriptError};
use vw_campaign::{shrink, Axis, CampaignSpec, Instance, RunConfig, ShrinkOptions, ShrinkResult};
use vw_fsl::TableSet;
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, LinkConfig, World};
use vw_packet::EtherType;

/// `node1` offers 200-byte datagrams at 400 kb/s (one every 4 ms) to
/// `node2` over a switch.
fn setup(tables: &TableSet, run: &RunConfig) -> Result<(World, Runner), ScriptError> {
    let mut world = World::with_impairment(run.seed, run.impairment);
    let nodes = Runner::create_hosts(&mut world, tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::try_install(&mut world, tables.clone(), EngineConfig::default())?;
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
        400_000,
        200,
        30 * 200,
    );
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    Ok((world, runner))
}

/// Two `DROP`s flag "double fault"; `Rcvd`, `Noise`, `tcp_any` and the
/// `STOP` are decoys.
const DOUBLE_DROP: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    tcp_any: (23 1 0x06)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END

    SCENARIO Double_Drop 500msec
    Sent: (udp_data, node1, node2, SEND)
    Rcvd: (udp_data, node1, node2, RECV)
    Drops: (node1)
    Noise: (node1)
    (TRUE) >> ENABLE_CNTR(Sent);
    (TRUE) >> ENABLE_CNTR(Rcvd);
    ((Rcvd = 7)) >> INCR_CNTR(Noise, 1);
    ((Noise > 100)) >> FLAG_ERR "noise overflow";
    ((Sent = 5)) >> DROP(udp_data, node1, node2, SEND); INCR_CNTR(Drops, 1);
    ((Sent = 15)) >> DROP(udp_data, node1, node2, SEND); INCR_CNTR(Drops, 1);
    ((Drops >= 2)) >> FLAG_ERR "double fault";
    ((Sent = 30)) >> STOP;
    END
"#;

/// The fifth datagram is held for 60 ms and the run stops when `node2`
/// has counted nine arrivals, so `node1` has sent a tenth unless the hold
/// (rounded up to whole 10 ms jiffies) is short enough for the fifth to
/// land first. `Noise`, `tcp_any` and the `FLAG_ERR` rule are decoys.
const LATE_FRAME: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    tcp_any: (23 1 0x06)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END

    SCENARIO Late_Frame 500msec
    Sent: (udp_data, node1, node2, SEND)
    Rcvd: (udp_data, node1, node2, RECV)
    Noise: (node1)
    (TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd);
    ((Sent = 3)) >> INCR_CNTR(Noise, 1);
    ((Noise > 100)) >> FLAG_ERR "noise overflow";
    ((Sent = 5)) >> DELAY(udp_data, node1, node2, SEND, 60msec);
    ((Rcvd = 9)) >> STOP;
    END
"#;

fn render(result: &ShrinkResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "rules {} -> {}, counters removed {}, filters removed {}, runs {}",
        result.rules_before,
        result.rules_after,
        result.counters_removed,
        result.filters_removed,
        result.runs,
    );
    for (axis, value) in &result.bisected {
        let _ = writeln!(out, "bisected {axis}={value}");
    }
    let _ = writeln!(
        out,
        "run seed={} impairment={}",
        result.run.seed,
        result.run.impairment.summary(),
    );
    for line in result.script().lines() {
        let _ = writeln!(out, "    {line}");
    }
    out
}

fn check(name: &str, actual: &str, expected: &str) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("=== {name} ===\n{actual}=== end ===");
    }
    assert_eq!(actual, expected, "{name} moved");
}

/// Shrinks the instance of `spec` whose labels read `labels`, bisecting
/// every axis of the spec.
fn shrink_point(
    spec: &CampaignSpec,
    labels: &[&str],
    predicate: impl Fn(&vw_campaign::OutcomeDigest) -> bool,
) -> ShrinkResult {
    let instance: Instance = spec
        .enumerate()
        .unwrap()
        .into_iter()
        .find(|i| {
            i.labels
                .iter()
                .map(|(_, v)| &**v)
                .eq(labels.iter().copied())
        })
        .expect("the instance exists");
    let opts = ShrinkOptions {
        axes: spec.axes.clone(),
        ..ShrinkOptions::default()
    };
    shrink(&instance, &setup, predicate, &opts).expect("the instance satisfies the predicate")
}

#[test]
fn a_threshold_axis_bisects_to_its_floor() {
    let spec = CampaignSpec::new("threshold", vw_fsl::parse(DOUBLE_DROP).unwrap())
        .axis(Axis::threshold_at("Sent", 0, vec![2, 10, 40]))
        .axis(Axis::seeds(vec![7]));
    let result = shrink_point(&spec, &["10", "7"], |d| {
        d.has_error_containing("double fault")
    });
    check("threshold", &render(&result), THRESHOLD);
}

#[test]
fn a_delay_axis_bisects_to_the_shortest_hold_that_still_lands_the_frame_late() {
    let spec = CampaignSpec::new("delay", vw_fsl::parse(LATE_FRAME).unwrap())
        .axis(Axis::delay_ns(vec![0, 10_000_000, 60_000_000]))
        .axis(Axis::seeds(vec![3]));
    let result = shrink_point(&spec, &["60000000", "3"], |d| d.counter("Sent") == Some(10));
    check("delay", &render(&result), DELAY);
}

const THRESHOLD: &str = r##"rules 8 -> 4, counters removed 2, filters removed 1, runs 32
bisected threshold.Sent#0=2
run seed=7 impairment=none
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
    SCENARIO Double_Drop 500msec
    Sent: (udp_data, node1, node2, SEND)
    Drops: (node1)
    (TRUE) >>
        ENABLE_CNTR(Sent);
    (Sent = 2) >>
        DROP(udp_data, node1, node2, SEND);
        INCR_CNTR(Drops, 1);
    (Sent = 15) >>
        DROP(udp_data, node1, node2, SEND);
        INCR_CNTR(Drops, 1);
    (Drops >= 2) >>
        FLAG_ERR "double fault";
    END
"##;

const DELAY: &str = r##"rules 5 -> 3, counters removed 1, filters removed 1, runs 20
bisected delay_ns=20000000
run seed=3 impairment=none
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
    SCENARIO Late_Frame 500msec
    Sent: (udp_data, node1, node2, SEND)
    Rcvd: (udp_data, node1, node2, RECV)
    (TRUE) >>
        ENABLE_CNTR(Sent);
        ENABLE_CNTR(Rcvd);
    (Sent = 5) >>
        DELAY(udp_data, node1, node2, SEND, 20msec);
    (Rcvd = 9) >>
        STOP;
    END
"##;
