//! End-to-end smoke test: a small sweep produces multiple outcome
//! classes, and the shrinker reduces a failing instance to a fraction of
//! its rules while preserving the flagged-error digest; the metrics
//! digest of a real run folds engine numbers, not script names.

use virtualwire::{EngineConfig, ObsLevel, Runner, ScriptError};
use vw_campaign::{
    run_campaign, run_one, shrink, Axis, CampaignSpec, ExecConfig, Instance, OutcomeDigest,
    RunConfig, ShrinkOptions,
};
use vw_fsl::TableSet;
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, LinkConfig, SimDuration, World};
use vw_packet::EtherType;

/// Nine rules, of which only four matter for the double-fault flag: the
/// `Rcvd`/`Noise` machinery and the `STOP` are shrinkable decoys, as are
/// the unused `tcp_any` filter and the `Rcvd`/`Noise` declarations.
const SCRIPT: &str = r#"
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
    ((Rcvd = 11)) >> INCR_CNTR(Noise, 2);
    ((Noise > 100)) >> FLAG_ERR "noise overflow";
    ((Sent = 5)) >> DROP(udp_data, node1, node2, SEND); INCR_CNTR(Drops, 1);
    ((Sent = 15)) >> DROP(udp_data, node1, node2, SEND); INCR_CNTR(Drops, 1);
    ((Drops >= 2)) >> FLAG_ERR "double fault";
    ((Sent = 30)) >> STOP;
    END
"#;

fn setup(tables: &TableSet, run: &RunConfig) -> Result<(World, Runner), ScriptError> {
    setup_at(ObsLevel::Off, tables, run)
}

fn setup_at(
    obs: ObsLevel,
    tables: &TableSet,
    run: &RunConfig,
) -> Result<(World, Runner), ScriptError> {
    let mut world = World::with_impairment(run.seed, run.impairment);
    let nodes = Runner::create_hosts(&mut world, tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let cfg = EngineConfig {
        obs,
        ..EngineConfig::default()
    };
    let runner = Runner::try_install(&mut world, tables.clone(), cfg)?;
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
    CampaignSpec::new("smoke", vw_fsl::parse(SCRIPT).unwrap())
        .axis(Axis::threshold_at("Sent", 0, vec![2, 10, 40]))
        .axis(Axis::threshold_at("Sent", 1, vec![15, 45]))
        .axis(Axis::seeds(vec![1, 7]))
}

#[test]
fn sweep_dedups_into_multiple_classes_and_shrinks_a_failure() {
    let spec = spec();
    let result = run_campaign(&spec, &setup, &ExecConfig::threads(2)).unwrap();
    assert_eq!(result.instances.len(), 12);
    let (completed, invalid, setup_failed, crashed) = result.kind_counts();
    assert_eq!(
        (completed, invalid, setup_failed, crashed),
        (12, 0, 0, 0),
        "every instance completes"
    );
    assert!(
        result.classes.len() >= 2,
        "expected multiple outcome classes, got {}",
        result.classes.len()
    );

    // Pick a *non-minimal* failing instance (t0=10, both faults fire) so
    // the numeric bisection has real work to do.
    let failing = result
        .matching(|d| d.has_error_containing("double fault"))
        .iter()
        .find(|r| &*r.labels[0].1 == "10")
        .map(|r| r.index)
        .expect("a double-fault instance at threshold 10 exists");
    let instance: Instance = spec
        .enumerate()
        .unwrap()
        .into_iter()
        .find(|i| i.index == failing)
        .unwrap();
    let original = run_one(&instance, &setup, SimDuration::from_secs(60));
    let original_errors = original.digest().unwrap().errors.clone();
    assert!(!original_errors.is_empty());

    let opts = ShrinkOptions {
        axes: spec.axes.clone(),
        ..ShrinkOptions::default()
    };
    let shrunk = shrink(
        &instance,
        &setup,
        |d| d.has_error_containing("double fault"),
        &opts,
    )
    .expect("shrink succeeds");

    // Halved (or better) rule count, structural fluff gone.
    assert_eq!(shrunk.rules_before, 9);
    assert!(
        shrunk.rules_after * 2 <= shrunk.rules_before,
        "{} rules left of {}",
        shrunk.rules_after,
        shrunk.rules_before
    );
    assert!(shrunk.counters_removed >= 2, "Rcvd and Noise are dead");
    assert!(shrunk.filters_removed >= 1, "tcp_any is dead");
    // Bisection drove the first threshold to its axis floor.
    assert!(
        shrunk
            .bisected
            .contains(&("threshold.Sent#0".to_string(), "2".to_string())),
        "bisected = {:?}",
        shrunk.bisected
    );

    // The reproducer is a real script: parses back to the same AST.
    let reparsed = vw_fsl::parse(&shrunk.script()).expect("reproducer parses");
    assert_eq!(reparsed, shrunk.program);

    // And it still reproduces the same flagged-error digest.
    let replay = Instance::new(0, Vec::new(), shrunk.program.clone(), shrunk.run);
    let outcome = run_one(&replay, &setup, SimDuration::from_secs(60));
    assert_eq!(
        outcome.digest().expect("replay completes").errors,
        original_errors,
        "shrinking preserved the flagged-error digest"
    );
}

#[test]
fn shrink_rejects_an_instance_that_never_failed() {
    let spec = spec();
    // Thresholds beyond the flow: no drops, no flag.
    let healthy = spec
        .enumerate()
        .unwrap()
        .into_iter()
        .find(|i| &*i.labels[0].1 == "40" && &*i.labels[1].1 == "45")
        .unwrap();
    let err = shrink(
        &healthy,
        &setup,
        |d| d.has_error_containing("double fault"),
        &ShrinkOptions::default(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("does not satisfy"));
}

/// The filter is named like the `drops` metric and a script counter like
/// the `dups` metric: 30 filter hits and a terminal counter value of 2,
/// against 2 real drops and no duplication.
const NAME_CLASH: &str = r#"
    FILTER_TABLE
    drops: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END

    SCENARIO Name_Clash 500msec
    Sent: (drops, node1, node2, SEND)
    Rcvd: (drops, node1, node2, RECV)
    dups: (node1)
    (TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd);
    ((Sent = 5)) >> DROP(drops, node1, node2, SEND); INCR_CNTR(dups, 1);
    ((Sent = 15)) >> DROP(drops, node1, node2, SEND); INCR_CNTR(dups, 1);
    ((Sent = 30)) >> STOP;
    END
"#;

/// The digests of [`NAME_CLASH`] swept over two seeds at `obs`.
fn name_clash_digests(obs: ObsLevel) -> Vec<OutcomeDigest> {
    let spec = CampaignSpec::new("clash", vw_fsl::parse(NAME_CLASH).unwrap())
        .axis(Axis::seeds(vec![1, 2]));
    let setup = |tables: &TableSet, run: &RunConfig| setup_at(obs, tables, run);
    let result = run_campaign(&spec, &setup, &ExecConfig::threads(1)).unwrap();
    let digests: Vec<OutcomeDigest> = result.completed().map(|(_, d)| d.clone()).collect();
    assert_eq!(digests.len(), 2, "every instance completes");
    digests
}

#[test]
fn metrics_digest_counts_engine_drops_not_the_filter_or_counter_of_that_name() {
    for digest in name_clash_digests(ObsLevel::Off) {
        let dropped: u64 = digest.stats.iter().map(|(_, s)| s.drops).sum();
        assert_eq!(dropped, 2);
        assert_eq!(digest.metrics.counter("drops"), Some(dropped));
        assert_eq!(digest.counter("dups"), Some(2), "the script counter");
        assert_eq!(digest.metrics.counter("dups"), Some(0), "the engines' DUPs");
        assert_eq!(digest.metrics.counter("classified"), None);
        let names: Vec<&str> = digest.metrics.counters.iter().map(|(n, _)| &**n).collect();
        assert!(names.is_sorted(), "{names:?}");
        assert!(digest.metrics.histograms.is_empty(), "recorder off");
    }
}

#[test]
fn metrics_digest_merges_cascade_depths_across_nodes() {
    for digest in name_clash_digests(ObsLevel::Faults) {
        // One cascade per counter increment, on either node.
        let per_node: Vec<u64> = digest
            .stats
            .iter()
            .map(|(_, s)| s.counter_increments)
            .collect();
        assert!(per_node.iter().all(|&n| n > 0), "{per_node:?}");
        let h = digest.metrics.histogram("cascade_depth").expect("merged");
        assert_eq!(h.count(), per_node.iter().sum::<u64>());
        assert_eq!(h.max(), 2, "the DROP rules also bump `dups`");
    }
}
