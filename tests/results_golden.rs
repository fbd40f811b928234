//! Golden bytes for a run's numbers, wherever they surface: the metrics
//! registry as JSONL and Prometheus text, the `Report`'s `Display`, and the
//! campaign JSONL with the stats and metrics digests keyed in. The script
//! names a filter `drops` and a counter `dups`, so a fold that confuses a
//! script name with a metric leaf changes these bytes.
//!
//! The registry is reached through [`registry`] alone.

use virtualwire::{compile_script, EngineConfig, MetricsRegistry, ObsLevel, Report, Runner};
use vw_campaign::{run_campaign, Axis, CampaignSpec, DigestKey, ExecConfig, RunConfig};
use vw_fsl::TableSet;
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, LinkConfig, SimDuration, World};
use vw_packet::EtherType;

const SCRIPT: &str = r#"
    FILTER_TABLE
    drops: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
    SCENARIO Faulted 500msec
    Sent: (drops, node1, node2, SEND)
    Rcvd: (drops, node1, node2, RECV)
    dups: (node1)
    (TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd);
    ((Sent = 3)) >> DROP(drops, node1, node2, SEND); FLAG_ERR "third packet dropped";
    ((Sent = 5)) >> DUP(drops, node1, node2, SEND); INCR_CNTR(dups, 1);
    ((Sent = 7)) >> DELAY(drops, node1, node2, SEND, 2msec);
    ((Sent = 12)) >> STOP;
    END
"#;

/// The run's metrics registry.
fn registry(report: &Report) -> MetricsRegistry {
    report.metrics()
}

/// Two hosts on a switch, engines at `obs`, 20 datagrams from the first
/// node to the second.
fn testbed(tables: &TableSet, seed: u64, obs: ObsLevel) -> (World, Runner) {
    let mut world = World::new(seed);
    let nodes = Runner::create_hosts(&mut world, tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let cfg = EngineConfig {
        obs,
        ..EngineConfig::default()
    };
    let runner = Runner::try_install(&mut world, tables.clone(), cfg).expect("hosts match");
    assert!(runner.settle(&mut world), "control plane must settle");
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
    (world, runner)
}

fn run(obs: ObsLevel) -> Report {
    let tables = compile_script(SCRIPT).expect("script compiles");
    let (mut world, runner) = testbed(&tables, 7, obs);
    runner.run(&mut world, SimDuration::from_secs(1))
}

/// Compares line by line first, so a drift names its line.
fn assert_text(what: &str, got: &str, want: &str) {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{what}, line {}", i + 1);
    }
    assert_eq!(got, want, "{what}");
}

#[test]
fn registry_and_display_with_the_recorder_off() {
    let report = run(ObsLevel::Off);
    let metrics = registry(&report);
    assert_text("jsonl", &metrics.to_jsonl(), OFF_JSONL);
    assert_text("prometheus", &metrics.to_prometheus(), OFF_PROMETHEUS);
    assert_text("display", &report.to_string(), OFF_DISPLAY);
}

#[test]
fn registry_and_display_with_the_recorder_full() {
    let report = run(ObsLevel::Full);
    let metrics = registry(&report);
    assert_text("jsonl", &metrics.to_jsonl(), FULL_JSONL);
    assert_text("prometheus", &metrics.to_prometheus(), FULL_PROMETHEUS);
    assert_text("display", &report.to_string(), FULL_DISPLAY);
}

#[test]
fn campaign_jsonl_with_stats_and_metrics_keyed() {
    let spec = CampaignSpec::new("results", vw_fsl::parse(SCRIPT).unwrap())
        .axis(Axis::threshold_at("Sent", 0, vec![3, 40]))
        .axis(Axis::seeds(vec![1, 2]));
    assert_eq!(spec.total(), 4);
    let setup =
        |tables: &TableSet, run: &RunConfig| Ok(testbed(tables, run.seed, ObsLevel::Faults));
    let key = DigestKey {
        stats: true,
        metrics: true,
        ..DigestKey::default()
    };
    let cfg = ExecConfig {
        key,
        ..ExecConfig::threads(1)
    };
    let result = run_campaign(&spec, &setup, &cfg).unwrap();
    assert_text("campaign", &result.to_jsonl(), CAMPAIGN_JSONL);
    let lines: String = result
        .instances
        .iter()
        .map(|r| r.to_jsonl_line(&key) + "\n")
        .collect();
    assert_text("instances", &lines, INSTANCE_LINES);
}

const OFF_JSONL: &str = r##"{"name":"node1.classified","type":"counter","value":12}
{"name":"node1.control_dup_suppressed","type":"counter","value":0}
{"name":"node1.control_received","type":"counter","value":1}
{"name":"node1.control_received_bytes","type":"counter","value":31}
{"name":"node1.control_reorder_buffered","type":"counter","value":0}
{"name":"node1.control_retransmits","type":"counter","value":0}
{"name":"node1.control_sent","type":"counter","value":2}
{"name":"node1.control_sent_bytes","type":"counter","value":525}
{"name":"node1.control_stale_degradations","type":"counter","value":0}
{"name":"node1.counter.Sent","type":"gauge","value":12}
{"name":"node1.counter.dups","type":"gauge","value":1}
{"name":"node1.counter_increments","type":"counter","value":12}
{"name":"node1.delays","type":"counter","value":1}
{"name":"node1.drops","type":"counter","value":1}
{"name":"node1.dups","type":"counter","value":1}
{"name":"node1.filter_hits.drops","type":"counter","value":12}
{"name":"node1.matched","type":"counter","value":12}
{"name":"node1.max_cascade_depth","type":"gauge","value":2}
{"name":"node1.modifies","type":"counter","value":0}
{"name":"node1.reorders","type":"counter","value":0}
{"name":"node1.rules_scanned","type":"counter","value":12}
{"name":"node1.teardown_flushed","type":"counter","value":1}
{"name":"node2.classified","type":"counter","value":10}
{"name":"node2.control_dup_suppressed","type":"counter","value":0}
{"name":"node2.control_received","type":"counter","value":1}
{"name":"node2.control_received_bytes","type":"counter","value":459}
{"name":"node2.control_reorder_buffered","type":"counter","value":0}
{"name":"node2.control_retransmits","type":"counter","value":0}
{"name":"node2.control_sent","type":"counter","value":1}
{"name":"node2.control_sent_bytes","type":"counter","value":31}
{"name":"node2.control_stale_degradations","type":"counter","value":0}
{"name":"node2.counter.Rcvd","type":"gauge","value":10}
{"name":"node2.counter_increments","type":"counter","value":10}
{"name":"node2.delays","type":"counter","value":0}
{"name":"node2.drops","type":"counter","value":0}
{"name":"node2.dups","type":"counter","value":0}
{"name":"node2.filter_hits.drops","type":"counter","value":10}
{"name":"node2.matched","type":"counter","value":10}
{"name":"node2.max_cascade_depth","type":"gauge","value":1}
{"name":"node2.modifies","type":"counter","value":0}
{"name":"node2.reorders","type":"counter","value":0}
{"name":"node2.rules_scanned","type":"counter","value":10}
"##;

const OFF_PROMETHEUS: &str = r##"# TYPE node1_classified counter
node1_classified 12
# TYPE node1_control_dup_suppressed counter
node1_control_dup_suppressed 0
# TYPE node1_control_received counter
node1_control_received 1
# TYPE node1_control_received_bytes counter
node1_control_received_bytes 31
# TYPE node1_control_reorder_buffered counter
node1_control_reorder_buffered 0
# TYPE node1_control_retransmits counter
node1_control_retransmits 0
# TYPE node1_control_sent counter
node1_control_sent 2
# TYPE node1_control_sent_bytes counter
node1_control_sent_bytes 525
# TYPE node1_control_stale_degradations counter
node1_control_stale_degradations 0
# TYPE node1_counter_Sent gauge
node1_counter_Sent 12
# TYPE node1_counter_dups gauge
node1_counter_dups 1
# TYPE node1_counter_increments counter
node1_counter_increments 12
# TYPE node1_delays counter
node1_delays 1
# TYPE node1_drops counter
node1_drops 1
# TYPE node1_dups counter
node1_dups 1
# TYPE node1_filter_hits_drops counter
node1_filter_hits_drops 12
# TYPE node1_matched counter
node1_matched 12
# TYPE node1_max_cascade_depth gauge
node1_max_cascade_depth 2
# TYPE node1_modifies counter
node1_modifies 0
# TYPE node1_reorders counter
node1_reorders 0
# TYPE node1_rules_scanned counter
node1_rules_scanned 12
# TYPE node1_teardown_flushed counter
node1_teardown_flushed 1
# TYPE node2_classified counter
node2_classified 10
# TYPE node2_control_dup_suppressed counter
node2_control_dup_suppressed 0
# TYPE node2_control_received counter
node2_control_received 1
# TYPE node2_control_received_bytes counter
node2_control_received_bytes 459
# TYPE node2_control_reorder_buffered counter
node2_control_reorder_buffered 0
# TYPE node2_control_retransmits counter
node2_control_retransmits 0
# TYPE node2_control_sent counter
node2_control_sent 1
# TYPE node2_control_sent_bytes counter
node2_control_sent_bytes 31
# TYPE node2_control_stale_degradations counter
node2_control_stale_degradations 0
# TYPE node2_counter_Rcvd gauge
node2_counter_Rcvd 10
# TYPE node2_counter_increments counter
node2_counter_increments 10
# TYPE node2_delays counter
node2_delays 0
# TYPE node2_drops counter
node2_drops 0
# TYPE node2_dups counter
node2_dups 0
# TYPE node2_filter_hits_drops counter
node2_filter_hits_drops 10
# TYPE node2_matched counter
node2_matched 10
# TYPE node2_max_cascade_depth gauge
node2_max_cascade_depth 1
# TYPE node2_modifies counter
node2_modifies 0
# TYPE node2_reorders counter
node2_reorders 0
# TYPE node2_rules_scanned counter
node2_rules_scanned 10
"##;

const OFF_DISPLAY: &str = r##"scenario Faulted: stopped: STOP fired at node1 (condition 4) after 10.560ms
verdict: FAIL
error: [0.002020s] node1: third packet dropped
counter Sent @ node1 = 12
counter Rcvd @ node2 = 10
counter dups @ node1 = 1
engine node1: classified 12 matched 12 rules-scanned 12 index-hits 12 residual 0 max-cascade 2 ctrl-sent 2/525B ctrl-recv 1/31B retx 0 dup-suppressed 0 reorder-buffered 0 stale-degradations 0
engine node2: classified 10 matched 10 rules-scanned 10 index-hits 10 residual 0 max-cascade 1 ctrl-sent 1/31B ctrl-recv 1/459B retx 0 dup-suppressed 0 reorder-buffered 0 stale-degradations 0
"##;

const FULL_JSONL: &str = r##"{"name":"node1.cascade_depth","type":"histogram","count":12,"sum":13,"min":1,"max":2,"mean":1.083,"buckets":[[1,11],[2,1]]}
{"name":"node1.classified","type":"counter","value":12}
{"name":"node1.classify_to_action_ns","type":"histogram","count":7,"sum":0,"min":0,"max":0,"mean":0.000,"buckets":[[0,7]]}
{"name":"node1.control_dup_suppressed","type":"counter","value":0}
{"name":"node1.control_received","type":"counter","value":1}
{"name":"node1.control_received_bytes","type":"counter","value":31}
{"name":"node1.control_reorder_buffered","type":"counter","value":0}
{"name":"node1.control_retransmits","type":"counter","value":0}
{"name":"node1.control_sent","type":"counter","value":2}
{"name":"node1.control_sent_bytes","type":"counter","value":525}
{"name":"node1.control_stale_degradations","type":"counter","value":0}
{"name":"node1.counter.Sent","type":"gauge","value":12}
{"name":"node1.counter.dups","type":"gauge","value":1}
{"name":"node1.counter_increments","type":"counter","value":12}
{"name":"node1.delays","type":"counter","value":1}
{"name":"node1.drops","type":"counter","value":1}
{"name":"node1.dups","type":"counter","value":1}
{"name":"node1.filter_hits.drops","type":"counter","value":12}
{"name":"node1.matched","type":"counter","value":12}
{"name":"node1.max_cascade_depth","type":"gauge","value":2}
{"name":"node1.modifies","type":"counter","value":0}
{"name":"node1.reorders","type":"counter","value":0}
{"name":"node1.rules_scanned","type":"counter","value":12}
{"name":"node1.teardown_flushed","type":"counter","value":1}
{"name":"node2.cascade_depth","type":"histogram","count":10,"sum":10,"min":1,"max":1,"mean":1.000,"buckets":[[1,10]]}
{"name":"node2.classified","type":"counter","value":10}
{"name":"node2.classify_to_action_ns","type":"histogram","count":1,"sum":0,"min":0,"max":0,"mean":0.000,"buckets":[[0,1]]}
{"name":"node2.control_dup_suppressed","type":"counter","value":0}
{"name":"node2.control_received","type":"counter","value":1}
{"name":"node2.control_received_bytes","type":"counter","value":459}
{"name":"node2.control_reorder_buffered","type":"counter","value":0}
{"name":"node2.control_retransmits","type":"counter","value":0}
{"name":"node2.control_sent","type":"counter","value":1}
{"name":"node2.control_sent_bytes","type":"counter","value":31}
{"name":"node2.control_stale_degradations","type":"counter","value":0}
{"name":"node2.counter.Rcvd","type":"gauge","value":10}
{"name":"node2.counter_increments","type":"counter","value":10}
{"name":"node2.delays","type":"counter","value":0}
{"name":"node2.drops","type":"counter","value":0}
{"name":"node2.dups","type":"counter","value":0}
{"name":"node2.filter_hits.drops","type":"counter","value":10}
{"name":"node2.matched","type":"counter","value":10}
{"name":"node2.max_cascade_depth","type":"gauge","value":1}
{"name":"node2.modifies","type":"counter","value":0}
{"name":"node2.reorders","type":"counter","value":0}
{"name":"node2.rules_scanned","type":"counter","value":10}
"##;

const FULL_PROMETHEUS: &str = r##"# TYPE node1_cascade_depth histogram
node1_cascade_depth_bucket{le="1"} 11
node1_cascade_depth_bucket{le="3"} 12
node1_cascade_depth_bucket{le="+Inf"} 12
node1_cascade_depth_sum 13
node1_cascade_depth_count 12
# TYPE node1_classified counter
node1_classified 12
# TYPE node1_classify_to_action_ns histogram
node1_classify_to_action_ns_bucket{le="0"} 7
node1_classify_to_action_ns_bucket{le="+Inf"} 7
node1_classify_to_action_ns_sum 0
node1_classify_to_action_ns_count 7
# TYPE node1_control_dup_suppressed counter
node1_control_dup_suppressed 0
# TYPE node1_control_received counter
node1_control_received 1
# TYPE node1_control_received_bytes counter
node1_control_received_bytes 31
# TYPE node1_control_reorder_buffered counter
node1_control_reorder_buffered 0
# TYPE node1_control_retransmits counter
node1_control_retransmits 0
# TYPE node1_control_sent counter
node1_control_sent 2
# TYPE node1_control_sent_bytes counter
node1_control_sent_bytes 525
# TYPE node1_control_stale_degradations counter
node1_control_stale_degradations 0
# TYPE node1_counter_Sent gauge
node1_counter_Sent 12
# TYPE node1_counter_dups gauge
node1_counter_dups 1
# TYPE node1_counter_increments counter
node1_counter_increments 12
# TYPE node1_delays counter
node1_delays 1
# TYPE node1_drops counter
node1_drops 1
# TYPE node1_dups counter
node1_dups 1
# TYPE node1_filter_hits_drops counter
node1_filter_hits_drops 12
# TYPE node1_matched counter
node1_matched 12
# TYPE node1_max_cascade_depth gauge
node1_max_cascade_depth 2
# TYPE node1_modifies counter
node1_modifies 0
# TYPE node1_reorders counter
node1_reorders 0
# TYPE node1_rules_scanned counter
node1_rules_scanned 12
# TYPE node1_teardown_flushed counter
node1_teardown_flushed 1
# TYPE node2_cascade_depth histogram
node2_cascade_depth_bucket{le="1"} 10
node2_cascade_depth_bucket{le="+Inf"} 10
node2_cascade_depth_sum 10
node2_cascade_depth_count 10
# TYPE node2_classified counter
node2_classified 10
# TYPE node2_classify_to_action_ns histogram
node2_classify_to_action_ns_bucket{le="0"} 1
node2_classify_to_action_ns_bucket{le="+Inf"} 1
node2_classify_to_action_ns_sum 0
node2_classify_to_action_ns_count 1
# TYPE node2_control_dup_suppressed counter
node2_control_dup_suppressed 0
# TYPE node2_control_received counter
node2_control_received 1
# TYPE node2_control_received_bytes counter
node2_control_received_bytes 459
# TYPE node2_control_reorder_buffered counter
node2_control_reorder_buffered 0
# TYPE node2_control_retransmits counter
node2_control_retransmits 0
# TYPE node2_control_sent counter
node2_control_sent 1
# TYPE node2_control_sent_bytes counter
node2_control_sent_bytes 31
# TYPE node2_control_stale_degradations counter
node2_control_stale_degradations 0
# TYPE node2_counter_Rcvd gauge
node2_counter_Rcvd 10
# TYPE node2_counter_increments counter
node2_counter_increments 10
# TYPE node2_delays counter
node2_delays 0
# TYPE node2_drops counter
node2_drops 0
# TYPE node2_dups counter
node2_dups 0
# TYPE node2_filter_hits_drops counter
node2_filter_hits_drops 10
# TYPE node2_matched counter
node2_matched 10
# TYPE node2_max_cascade_depth gauge
node2_max_cascade_depth 1
# TYPE node2_modifies counter
node2_modifies 0
# TYPE node2_reorders counter
node2_reorders 0
# TYPE node2_rules_scanned counter
node2_rules_scanned 10
"##;

const FULL_DISPLAY: &str = r##"scenario Faulted: stopped: STOP fired at node1 (condition 4) after 10.560ms
verdict: FAIL
error: [0.002020s] node1: third packet dropped
  ┌ 0.002020s node1 #3 classified as drops (Send, 162 B)
  └─▶ 0.002020s node1 #3 counter Sent 2 -> 3
  └─▶ 0.002020s node1 #3 term#0 -> true
  └─▶ 0.002020s node1 #3 condition#1 fired
  └─▶ 0.002020s node1 #3 action#3 FLAG_ERR triggered
  └─▶ 0.002020s node1 #3 action#2 DROP triggered
counter Sent @ node1 = 12
counter Rcvd @ node2 = 10
counter dups @ node1 = 1
engine node1: classified 12 matched 12 rules-scanned 12 index-hits 12 residual 0 max-cascade 2 ctrl-sent 2/525B ctrl-recv 1/31B retx 0 dup-suppressed 0 reorder-buffered 0 stale-degradations 0
engine node2: classified 10 matched 10 rules-scanned 10 index-hits 10 residual 0 max-cascade 1 ctrl-sent 1/31B ctrl-recv 1/459B retx 0 dup-suppressed 0 reorder-buffered 0 stale-degradations 0
"##;

const CAMPAIGN_JSONL: &str = r##"{"campaign":"results","instances":4,"classes":2,"completed":4,"invalid":0,"setup_failed":0,"crashed":0}
{"class":0,"digest":"e2531b74826b2113","members":2,"representative":0,"labels":{"threshold.Sent#0":"3","seed":"1"},"kind":"completed","passed":false,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[{"node":"node1","message":"third packet dropped"}],"counters":{"node1.Sent":12,"node2.Rcvd":10,"node1.dups":1},"metrics":{"counters":{"control_retransmits":0,"control_stale_degradations":0,"delays":1,"drops":1,"dups":1,"modifies":0,"reorders":0},"histograms":{"cascade_depth":{"count":22,"sum":23,"min":1,"max":2,"p50":1,"p99":2},"classify_to_action_ns":{"count":8,"sum":0,"min":0,"max":0,"p50":0,"p99":0}}}}
{"class":1,"digest":"c59bc4d034feaf55","members":2,"representative":2,"labels":{"threshold.Sent#0":"40","seed":"1"},"kind":"completed","passed":true,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[],"counters":{"node1.Sent":12,"node2.Rcvd":11,"node1.dups":1},"metrics":{"counters":{"control_retransmits":0,"control_stale_degradations":0,"delays":1,"drops":0,"dups":1,"modifies":0,"reorders":0},"histograms":{"cascade_depth":{"count":23,"sum":24,"min":1,"max":2,"p50":1,"p99":2},"classify_to_action_ns":{"count":6,"sum":0,"min":0,"max":0,"p50":0,"p99":0}}}}
"##;

const INSTANCE_LINES: &str = r##"{"instance":0,"labels":{"threshold.Sent#0":"3","seed":"1"},"kind":"completed","passed":false,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[{"node":"node1","message":"third packet dropped"}],"counters":{"node1.Sent":12,"node2.Rcvd":10,"node1.dups":1},"metrics":{"counters":{"control_retransmits":0,"control_stale_degradations":0,"delays":1,"drops":1,"dups":1,"modifies":0,"reorders":0},"histograms":{"cascade_depth":{"count":22,"sum":23,"min":1,"max":2,"p50":1,"p99":2},"classify_to_action_ns":{"count":8,"sum":0,"min":0,"max":0,"p50":0,"p99":0}}}}
{"instance":1,"labels":{"threshold.Sent#0":"3","seed":"2"},"kind":"completed","passed":false,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[{"node":"node1","message":"third packet dropped"}],"counters":{"node1.Sent":12,"node2.Rcvd":10,"node1.dups":1},"metrics":{"counters":{"control_retransmits":0,"control_stale_degradations":0,"delays":1,"drops":1,"dups":1,"modifies":0,"reorders":0},"histograms":{"cascade_depth":{"count":22,"sum":23,"min":1,"max":2,"p50":1,"p99":2},"classify_to_action_ns":{"count":8,"sum":0,"min":0,"max":0,"p50":0,"p99":0}}}}
{"instance":2,"labels":{"threshold.Sent#0":"40","seed":"1"},"kind":"completed","passed":true,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[],"counters":{"node1.Sent":12,"node2.Rcvd":11,"node1.dups":1},"metrics":{"counters":{"control_retransmits":0,"control_stale_degradations":0,"delays":1,"drops":0,"dups":1,"modifies":0,"reorders":0},"histograms":{"cascade_depth":{"count":23,"sum":24,"min":1,"max":2,"p50":1,"p99":2},"classify_to_action_ns":{"count":6,"sum":0,"min":0,"max":0,"p50":0,"p99":0}}}}
{"instance":3,"labels":{"threshold.Sent#0":"40","seed":"2"},"kind":"completed","passed":true,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[],"counters":{"node1.Sent":12,"node2.Rcvd":11,"node1.dups":1},"metrics":{"counters":{"control_retransmits":0,"control_stale_degradations":0,"delays":1,"drops":0,"dups":1,"modifies":0,"reorders":0},"histograms":{"cascade_depth":{"count":23,"sum":24,"min":1,"max":2,"p50":1,"p99":2},"classify_to_action_ns":{"count":6,"sum":0,"min":0,"max":0,"p50":0,"p99":0}}}}
"##;
