//! The campaign engine's central promise: the same spec and seeds yield
//! byte-identical reports no matter how many worker threads ran them,
//! and no matter how many times they run.

use virtualwire::{EngineConfig, Runner, ScriptError};
use vw_campaign::{run_campaign, Axis, CampaignSpec, DigestKey, ExecConfig, RunConfig};
use vw_fsl::TableSet;
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, ControlImpairment, LinkConfig, World};
use vw_packet::EtherType;

const SCRIPT: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END

    SCENARIO Double_Drop 500msec
    Sent: (udp_data, node1, node2, SEND)
    Rcvd: (udp_data, node1, node2, RECV)
    Drops: (node1)
    (TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd);
    ((Sent = 5)) >> DROP(udp_data, node1, node2, SEND); INCR_CNTR(Drops, 1);
    ((Sent = 15)) >> DROP(udp_data, node1, node2, SEND); INCR_CNTR(Drops, 1);
    ((Drops >= 2)) >> FLAG_ERR "double fault";
    ((Sent = 30)) >> STOP;
    END
"#;

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
        2_000_000,
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

fn spec() -> CampaignSpec {
    CampaignSpec::new("determinism", vw_fsl::parse(SCRIPT).unwrap())
        .axis(Axis::threshold_at("Sent", 0, vec![5, 40]))
        .axis(Axis::threshold_at("Sent", 1, vec![15, 45]))
        .axis(Axis::seeds(vec![1, 2]))
        .axis(Axis::impairments(vec![
            ControlImpairment::none(),
            ControlImpairment::dropping(0.2),
        ]))
}

#[test]
fn jsonl_is_byte_identical_across_thread_counts() {
    let spec = spec();
    assert_eq!(spec.total(), 16);
    let reference = run_campaign(&spec, &setup, &ExecConfig::threads(1))
        .unwrap()
        .to_jsonl();
    assert!(!reference.is_empty());
    // 64 workers outnumber the campaign's shards.
    for threads in [2, 8, 64] {
        let jsonl = run_campaign(&spec, &setup, &ExecConfig::threads(threads))
            .unwrap()
            .to_jsonl();
        assert_eq!(
            reference, jsonl,
            "thread count {threads} changed the report"
        );
    }
}

#[test]
fn metrics_keyed_jsonl_is_byte_identical_across_thread_counts() {
    // Keying on the metrics digest adds per-class fault counters and
    // histogram summaries to the report; the bytes must still be
    // schedule-independent.
    let spec = spec();
    let keyed = |threads: usize| ExecConfig {
        key: DigestKey {
            metrics: true,
            ..DigestKey::default()
        },
        ..ExecConfig::threads(threads)
    };
    let reference = run_campaign(&spec, &setup, &keyed(1)).unwrap().to_jsonl();
    assert!(
        reference.contains("\"metrics\":{\"counters\":{"),
        "metrics digest missing from keyed report:\n{reference}"
    );
    for threads in [2, 8] {
        let jsonl = run_campaign(&spec, &setup, &keyed(threads))
            .unwrap()
            .to_jsonl();
        assert_eq!(
            reference, jsonl,
            "thread count {threads} changed the metrics-keyed report"
        );
    }
}

#[test]
fn timed_reports_stay_deterministic_because_durations_are_unkeyed() {
    // Wall-clock durations differ on every run; with `durations` off
    // (the default) they must never reach the report bytes even though
    // the executor now always measures them.
    let spec = spec();
    let cfg = ExecConfig::threads(4);
    let a = run_campaign(&spec, &setup, &cfg).unwrap();
    assert!(
        a.instances.iter().all(|r| r.wall_ns.is_some()),
        "executor records per-instance wall time"
    );
    assert!(!a.to_jsonl().contains("wall_ns"));
}

#[test]
fn jsonl_is_byte_identical_across_consecutive_runs() {
    let spec = spec();
    let cfg = ExecConfig::threads(4);
    let a = run_campaign(&spec, &setup, &cfg).unwrap().to_jsonl();
    let b = run_campaign(&spec, &setup, &cfg).unwrap().to_jsonl();
    assert_eq!(a, b);
}

#[test]
fn sampled_campaigns_replay_bit_for_bit() {
    let spec = spec().sample(7, 0xC0FFEE);
    let solo = run_campaign(&spec, &setup, &ExecConfig::threads(1)).unwrap();
    assert_eq!(solo.instances.len(), 7);
    let solo_jsonl = solo.to_jsonl();
    // Same sampling seed, more threads, separate process-lifetime state:
    // still the same bytes.
    let pooled = run_campaign(&spec, &setup, &ExecConfig::threads(8))
        .unwrap()
        .to_jsonl();
    assert_eq!(solo_jsonl, pooled);
    let again = run_campaign(&spec, &setup, &ExecConfig::threads(1))
        .unwrap()
        .to_jsonl();
    assert_eq!(solo_jsonl, again);
}

#[test]
fn distinct_seeds_share_a_class_when_outcome_agrees() {
    // Control-plane impairment shakes control frames, not the UDP data
    // path, so with the default digest key the seed/impairment dimensions
    // collapse and classes are driven by the fault structure alone.
    let spec = spec();
    let result = run_campaign(&spec, &setup, &ExecConfig::threads(2)).unwrap();
    assert_eq!(result.kind_counts().0, 16, "all instances complete");
    // 2 thresholds reachable / 1 / 0 -> exactly three classes.
    assert_eq!(result.classes.len(), 3);
    let members: usize = result.classes.iter().map(|c| c.members.len()).sum();
    assert_eq!(members, 16, "every instance belongs to exactly one class");
}
