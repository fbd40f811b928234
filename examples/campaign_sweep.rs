//! Campaign engine demo: sweep a two-fault drop scenario across
//! thresholds, seeds, and control-plane impairments; dedup the outcomes;
//! shrink a failing instance to a minimal reproducer.
//!
//! ```text
//! cargo run --release --example campaign_sweep
//! ```
//!
//! The sweep crosses two `DROP` trigger thresholds (some beyond the
//! 30-datagram flow, so they never fire) with three simulator seeds and
//! two control-plane impairments: 6 x 6 x 3 x 2 = 216 instances. The
//! outcome store folds those into a handful of equivalence classes —
//! double fault (flagged), single fault, no fault — and the shrinker
//! reduces a flagged instance's nine rules to the four that matter.

use std::time::Instant;

use virtualwire::{CostModel, EngineConfig, ObsLevel, Runner, ScriptError};
use vw_analysis::CampaignReport;
use vw_campaign::{
    run_campaign, shrink, Axis, CampaignSpec, ExecConfig, Instance, RunConfig, ShrinkOptions,
};
use vw_fsl::TableSet;
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, ControlImpairment, LinkConfig, World};
use vw_packet::EtherType;

/// A 600-datagram UDP flow with two swept drop faults and decoy rules
/// for the shrinker to discard. `Drops` counts injected faults on node1,
/// so the double-fault flag is exact and immune to in-flight lag.
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
    ((Rcvd = 70)) >> INCR_CNTR(Noise, 1);
    ((Rcvd = 110)) >> INCR_CNTR(Noise, 2);
    ((Noise > 100)) >> FLAG_ERR "noise overflow";
    ((Sent = 50)) >> DROP(udp_data, node1, node2, SEND); INCR_CNTR(Drops, 1);
    ((Sent = 150)) >> DROP(udp_data, node1, node2, SEND); INCR_CNTR(Drops, 1);
    ((Drops >= 2)) >> FLAG_ERR "double fault";
    ((Sent = 600)) >> STOP;
    END
"#;

/// Datagrams per flow — sized so one instance is a few milliseconds of
/// real work and the thread pool has something to amortize against.
const DATAGRAMS: u64 = 600;

/// Builds one testbed: two hosts behind a switch, a 30-datagram CBR
/// source on node1, a sink on node2, engines installed fallibly.
fn setup(tables: &TableSet, run: &RunConfig) -> Result<(World, Runner), ScriptError> {
    let mut world = World::with_impairment(run.seed, run.impairment);
    let nodes = Runner::create_hosts(&mut world, tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    // Faults-level recording keeps the per-packet hot path untouched but
    // populates the cascade-depth and classify-to-action histograms the
    // campaign analytics aggregate below; the calibrated cost model gives
    // those latencies the paper-testbed scale instead of all-zeros.
    let runner = Runner::try_install(
        &mut world,
        tables.clone(),
        EngineConfig {
            obs: ObsLevel::Faults,
            cost: CostModel::calibrated(),
            ..EngineConfig::default()
        },
    )?;
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
        DATAGRAMS * 200,
    );
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    Ok((world, runner))
}

fn spec() -> CampaignSpec {
    let program = vw_fsl::parse(SCRIPT).expect("demo script parses");
    CampaignSpec::new("double_drop_sweep", program)
        .axis(Axis::threshold_at(
            "Sent",
            0,
            vec![20, 40, 60, 80, 100, 700],
        ))
        .axis(Axis::threshold_at(
            "Sent",
            1,
            vec![150, 200, 250, 650, 750, 800],
        ))
        .axis(Axis::seeds(vec![1, 2, 3]))
        .axis(Axis::impairments(vec![
            ControlImpairment::none(),
            ControlImpairment::dropping(0.05),
        ]))
}

fn main() {
    let spec = spec();
    let total = spec.total();
    println!("campaign `{}`: {} instances", spec.name, total);

    // Sweep the thread counts, checking both the speedup and the
    // determinism story: every pool size must render identical JSONL —
    // for the deduped outcomes AND for the analytics aggregate.
    let mut baseline: Option<(String, f64)> = None;
    let mut aggregate_baseline: Option<String> = None;
    for threads in [1usize, 2, 4, 8] {
        let started = Instant::now();
        let result =
            run_campaign(&spec, &setup, &ExecConfig::threads(threads)).expect("campaign runs");
        let elapsed = started.elapsed().as_secs_f64();
        let jsonl = result.to_jsonl();
        let aggregate = CampaignReport::of(&result).to_jsonl();
        match &aggregate_baseline {
            None => aggregate_baseline = Some(aggregate),
            Some(reference) => assert_eq!(
                reference, &aggregate,
                "aggregate analytics must be byte-identical at any thread count"
            ),
        }
        let rate = total as f64 / elapsed;
        match &baseline {
            None => {
                println!(
                    "  {threads} thread : {elapsed:7.3}s  {rate:7.1} scenarios/s  \
                     {} classes",
                    result.classes.len()
                );
                baseline = Some((jsonl, elapsed));
            }
            Some((reference, t1)) => {
                assert_eq!(
                    reference, &jsonl,
                    "JSONL must be byte-identical at any thread count"
                );
                println!(
                    "  {threads} threads: {elapsed:7.3}s  {rate:7.1} scenarios/s  \
                     speedup x{:.2}  (identical JSONL)",
                    t1 / elapsed
                );
            }
        }
    }

    let (jsonl, _) = baseline.unwrap();
    println!("\n--- deduped outcome classes ---");
    print!("{jsonl}");

    // Re-run once more (any thread count — they're all equivalent) to get
    // a result object to mine for analytics and a failing instance.
    let result = run_campaign(&spec, &setup, &ExecConfig::threads(4)).unwrap();

    // Campaign-wide analytics: fold all 216 instances into one aggregate
    // with per-axis breakdowns and merged latency distributions.
    let report = CampaignReport::of(&result);
    println!("\n--- campaign analytics ---");
    print!("{}", report.render());
    assert!(
        report.breakdown("seed").is_some() && report.breakdown("impairment").is_some(),
        "the aggregate must break totals down per sweep axis"
    );

    // The regression workflow: pretend a code change fattened the
    // classify-to-action tail, then diff against the healthy baseline.
    let mut degraded = report.clone();
    for (name, hist) in &mut degraded.histograms {
        if name == "classify_to_action_ns" {
            let tail = 50 * hist.max();
            for _ in 0..hist.count() / 4 {
                hist.observe(tail);
            }
        }
    }
    let regressions = degraded.diff(&report, 0.10);
    println!("\n--- diff vs healthy baseline (injected 50x tail latency) ---");
    for r in &regressions {
        println!("{}", r.render());
    }
    assert!(
        regressions
            .iter()
            .any(|r| r.metric.contains("classify_to_action_ns")),
        "a 50x tail must trip the p99 regression gate"
    );

    let failing = result
        .matching(|d| d.has_error_containing("double fault"))
        .first()
        .map(|r| r.index)
        .expect("the sweep produces double-fault instances");
    let instance: Instance = spec
        .enumerate()
        .unwrap()
        .into_iter()
        .find(|i| i.index == failing)
        .unwrap();
    println!("\nshrinking instance #{failing} {:?}", instance.labels);

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
    println!(
        "shrunk {} rules -> {} (removed {} counters, {} filters; {} runs; bisected {:?})",
        shrunk.rules_before,
        shrunk.rules_after,
        shrunk.counters_removed,
        shrunk.filters_removed,
        shrunk.runs,
        shrunk.bisected,
    );
    println!("\n--- minimal reproducer ---\n{}", shrunk.script());
    assert!(
        shrunk.rules_after * 2 <= shrunk.rules_before,
        "shrinker halves the rule count"
    );
}
