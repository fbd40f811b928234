//! Deterministic fault matrix for the control-plane reliability layer:
//! every distributed scenario must converge to a report identical to the
//! fault-free run under {drop, dup, reorder, delay} × {0%, 1%, 10%, 30%}
//! impairment of `0x88B5` control frames, and staleness past the
//! threshold must surface as a flagged diagnostic — never as a silently
//! wrong verdict.
//!
//! Every cell runs with a fixed seed that is printed on failure, so a
//! regression reproduces with `World::new(seed)` + the named cell.

use virtualwire::{compile_script, ControlPlaneConfig, EngineConfig, Report, Runner, StopReason};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, ControlImpairment, LinkConfig, SimDuration, World};
use vw_packet::EtherType;

/// Remote action: node2's counter blackholes node3 over the control plane.
const SCRIPT_REMOTE_FAIL: &str = r#"
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
    END
"#;

/// Remote verdict: a condition over counters homed on two different nodes
/// flags an error once both cross their thresholds. The condition is
/// monotone (`>`), so the verdict does not depend on update timing — only
/// on the sequenced updates eventually getting through.
const SCRIPT_CROSS_FLAG: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    node3 02:00:00:00:00:03 192.168.1.4
    END
    SCENARIO CrossFlag
    Sent: (udp_data, node1, node2, SEND)
    Rcvd: (udp_data, node1, node2, RECV)
    (TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd);
    ((Sent > 9) && (Rcvd > 9)) >> FLAG_ERR "cross-node checkpoint";
    ((Sent = Rcvd) && (Sent > 100)) >> FLAG_ERR "unreachable";
    END
"#;
// The second condition can never fire (the flood is 12 datagrams), but its
// remote counter comparison forces a sequenced CounterUpdate across the
// wire on every increment — real traffic for the reliability layer.

const NODES: [&str; 3] = ["node1", "node2", "node3"];

/// What a run *concluded*, stripped of timing: counters, verdicts,
/// blackhole state, stop kind. Control-plane impairment may shift when
/// things happen, never what the report says.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    stop: String,
    counters: Vec<(String, String, i64)>,
    errors: Vec<(String, String)>,
    blackholed: Vec<(&'static str, bool)>,
    passed: bool,
}

fn digest(report: &Report, world: &World, runner: &Runner) -> Digest {
    let mut counters = report.counters.clone();
    counters.sort();
    let mut errors: Vec<(String, String)> = report
        .errors
        .iter()
        .map(|e| (e.node_name.clone(), e.message.clone()))
        .collect();
    errors.sort();
    Digest {
        stop: match &report.stop {
            StopReason::StopAction(r) => format!("stop: {r}"),
            StopReason::InactivityTimeout => "inactivity".into(),
            StopReason::DeadlineReached => "deadline".into(),
        },
        counters,
        errors,
        blackholed: NODES
            .iter()
            .filter_map(|&n| Some((n, runner.engine(world, n)?.is_blackholed())))
            .collect(),
        passed: report.passed(),
    }
}

struct Run {
    report: Report,
    world: World,
    runner: Runner,
}

impl Run {
    fn digest(&self) -> Digest {
        digest(&self.report, &self.world, &self.runner)
    }
}

/// [`run_cell_with`] under the default engine configuration and a 1 Mb/s
/// flood.
fn run_cell(seed: u64, script: &str, flood: u64, impairment: ControlImpairment) -> Run {
    let cfg = EngineConfig::default();
    run_cell_with(seed, script, flood, 1_000_000, impairment, cfg)
}

/// Build the three-node switched world, settle the init handshake on a
/// clean control plane, then apply `impairment` and run the flood.
fn run_cell_with(
    seed: u64,
    script: &str,
    flood: u64,
    rate_bps: u64,
    impairment: ControlImpairment,
    cfg: EngineConfig,
) -> Run {
    let tables = compile_script(script).unwrap_or_else(|e| panic!("{e}"));
    let mut world = World::new(seed);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 8);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables, cfg);
    assert!(runner.settle(&mut world), "init handshake must complete");
    world.set_control_impairment(impairment);

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
        rate_bps,
        200,
        flood * 200,
    );
    world.add_protocol(
        nodes[0],
        Binding::EtherType(EtherType::IPV4),
        Box::new(flooder),
    );
    let report = runner.run(&mut world, SimDuration::from_secs(1));
    Run {
        report,
        world,
        runner,
    }
}

/// One impairment axis of the matrix at a given rate.
fn axis(name: &str, rate: f64) -> ControlImpairment {
    match name {
        "drop" => ControlImpairment {
            drop: rate,
            ..ControlImpairment::none()
        },
        "dup" => ControlImpairment {
            dup: rate,
            ..ControlImpairment::none()
        },
        "reorder" => ControlImpairment {
            reorder: rate,
            reorder_window_ns: 150_000,
            ..ControlImpairment::none()
        },
        "delay" => ControlImpairment {
            delay: rate,
            delay_ns: 200_000,
            ..ControlImpairment::none()
        },
        other => panic!("unknown axis {other}"),
    }
}

const RATES: [f64; 4] = [0.0, 0.01, 0.10, 0.30];
const AXES: [&str; 4] = ["drop", "dup", "reorder", "delay"];

fn run_matrix(script: &str, flood: u64, base_seed: u64, check: impl Fn(&Run)) {
    let baseline = run_cell(base_seed, script, flood, ControlImpairment::none());
    let want = baseline.digest();
    check(&baseline);
    for (ai, &axis_name) in AXES.iter().enumerate() {
        for (ri, &rate) in RATES.iter().enumerate() {
            let seed = base_seed + 100 + (ai as u64) * 10 + ri as u64;
            let cell = run_cell(seed, script, flood, axis(axis_name, rate));
            let got = cell.digest();
            assert_eq!(
                got, want,
                "cell {axis_name}@{rate} (seed {seed}) diverged from the \
                 fault-free report"
            );
            check(&cell);
            if rate > 0.0 && axis_name == "drop" {
                // The reliability layer had to actually work for this.
                let retx = cell.report.total_stats().control_retransmits;
                assert!(
                    rate < 0.05 || retx > 0,
                    "cell {axis_name}@{rate} (seed {seed}): expected \
                     retransmissions under control-plane loss"
                );
            }
        }
    }
}

#[test]
fn remote_fail_converges_across_the_fault_matrix() {
    run_matrix(SCRIPT_REMOTE_FAIL, 10, 1000, |run| {
        assert!(
            run.runner
                .engine(&run.world, "node3")
                .unwrap()
                .is_blackholed(),
            "node3 must be FAILed by node2's counter crossing 3"
        );
        assert_eq!(run.report.counter("Rcvd"), Some(10));
        assert!(run.report.errors.is_empty(), "{:?}", run.report.errors);
    });
}

#[test]
fn cross_node_flag_converges_across_the_fault_matrix() {
    run_matrix(SCRIPT_CROSS_FLAG, 12, 2000, |run| {
        assert_eq!(run.report.counter("Sent"), Some(12));
        assert_eq!(run.report.counter("Rcvd"), Some(12));
        let flags: Vec<_> = run
            .report
            .errors
            .iter()
            .filter(|e| e.message == "cross-node checkpoint")
            .collect();
        assert_eq!(flags.len(), 1, "checkpoint must flag exactly once");
    });
}

#[test]
fn combined_impairment_still_converges() {
    // All four axes at once, each at 30% / with real skew — the worst
    // corner of the matrix in a single run.
    let storm = ControlImpairment {
        drop: 0.30,
        dup: 0.30,
        reorder: 0.30,
        delay: 0.30,
        delay_ns: 200_000,
        reorder_window_ns: 150_000,
    };
    let baseline = run_cell(3000, SCRIPT_REMOTE_FAIL, 10, ControlImpairment::none());
    let cell = run_cell(3001, SCRIPT_REMOTE_FAIL, 10, storm);
    assert_eq!(
        cell.digest(),
        baseline.digest(),
        "combined 30% drop+dup+reorder+delay (seed 3001) diverged"
    );
    let stats = cell.report.total_stats();
    assert!(stats.control_retransmits > 0, "loss must force retransmits");
    assert!(
        stats.control_dup_suppressed > 0,
        "30% dup must exercise the dedupe path"
    );
}

#[test]
fn zero_rate_impairment_is_byte_identical_to_no_impairment() {
    // An all-zero impairment consumes no randomness and perturbs no
    // schedule: the run is *exactly* the baseline, retransmit-free.
    let baseline = run_cell(4000, SCRIPT_REMOTE_FAIL, 10, ControlImpairment::none());
    let zero = run_cell(4000, SCRIPT_REMOTE_FAIL, 10, axis("drop", 0.0));
    assert_eq!(zero.digest(), baseline.digest());
    assert_eq!(
        zero.report.total_stats().control_retransmits,
        baseline.report.total_stats().control_retransmits,
    );
    assert_eq!(zero.report.total_stats().control_dup_suppressed, 0);
}

#[test]
fn total_control_blackout_degrades_loudly_never_silently() {
    // Sever the control plane entirely after the init handshake. The
    // remote FAIL verdict cannot be delivered — that is fine, as long as
    // the run says so: sender-side staleness must flag a diagnostic and
    // the run must not pass.
    let run = run_cell(
        5000,
        SCRIPT_REMOTE_FAIL,
        10,
        ControlImpairment {
            drop: 1.0,
            ..ControlImpairment::none()
        },
    );
    assert!(
        !run.runner
            .engine(&run.world, "node3")
            .unwrap()
            .is_blackholed(),
        "with the control plane severed the remote FAIL cannot land"
    );
    let stats = run.report.total_stats();
    assert!(
        stats.control_stale_degradations >= 1,
        "staleness must be detected: {stats:?}"
    );
    assert!(
        run.report
            .errors
            .iter()
            .any(|e| e.message.contains("control-plane staleness")),
        "staleness must surface as a flagged diagnostic: {:?}",
        run.report.errors
    );
    assert!(
        !run.report.passed(),
        "a degraded run must never report a clean pass"
    );
    assert!(stats.control_retransmits > 0, "the sender kept trying");
}

#[test]
fn sender_overload_is_attributed_to_the_sending_node() {
    // With the staleness clock out of reach (10 s) the only way to
    // degrade is the sender-side cap: 1500 unacknowledged CounterUpdates
    // toward one peer cross MAX_UNACKED inside a cascade, while the
    // engine's tables are taken. The diagnostic must still name the
    // sending node and the silent peer, or the report filters it out.
    let cfg = EngineConfig {
        control: ControlPlaneConfig {
            staleness: SimDuration::from_secs(10),
            ..ControlPlaneConfig::default()
        },
        ..EngineConfig::default()
    };
    let run = run_cell_with(
        5100,
        SCRIPT_CROSS_FLAG,
        1500,
        50_000_000,
        ControlImpairment::dropping(1.0),
        cfg,
    );
    let stats = run.report.total_stats();
    assert_eq!(stats.control_stale_degradations, 1, "stats: {stats:?}");
    let stale: Vec<_> = run
        .report
        .errors
        .iter()
        .filter(|e| e.message.contains("not acknowledging"))
        .collect();
    assert_eq!(stale.len(), 1, "errors: {:?}", run.report.errors);
    assert_eq!(stale[0].node_name, "node2");
    assert!(
        stale[0].message.contains("node1 is not acknowledging"),
        "peer named by script name: {}",
        stale[0].message
    );
    assert!(!run.report.passed());
}

#[test]
fn staleness_threshold_is_configurable() {
    // A generous staleness threshold suppresses the degradation verdict
    // for short outages the retransmit queue can ride out; here the
    // outage is total, so a *small* threshold must flag quickly even
    // within a short run.
    let tables = compile_script(SCRIPT_REMOTE_FAIL).unwrap();
    let mut world = World::new(6000);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 8);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let cfg = EngineConfig {
        control: ControlPlaneConfig {
            staleness: SimDuration::from_millis(2),
            ..ControlPlaneConfig::default()
        },
        ..EngineConfig::default()
    };
    let runner = Runner::install(&mut world, tables, cfg);
    assert!(runner.settle(&mut world));
    world.set_control_impairment(ControlImpairment {
        drop: 1.0,
        ..ControlImpairment::none()
    });
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
    let report = runner.run(&mut world, SimDuration::from_millis(40));
    assert!(
        report.total_stats().control_stale_degradations >= 1,
        "2ms staleness threshold must flag inside a 40ms run: {:?}",
        report.total_stats()
    );
}

/// Generates the EXPERIMENTS.md "scenario completion vs control-plane
/// loss" table. Not part of the CI matrix (it sweeps past the supported
/// 30% operating point); run with
/// `cargo test -p virtualwire --test control_plane_reliability sweep -- --ignored --nocapture`.
#[test]
#[ignore = "table generator, not a gate"]
fn sweep_completion_rate_vs_loss() {
    let baseline = run_cell(9000, SCRIPT_REMOTE_FAIL, 10, ControlImpairment::none());
    let want = baseline.digest();
    println!("drop%  converged/20  mean retx  mean stale-flags");
    for drop in [0.0, 0.10, 0.20, 0.30, 0.40, 0.50, 0.70, 0.90] {
        let mut converged = 0u32;
        let mut retx = 0u64;
        let mut stale = 0u64;
        for seed in 0..20u64 {
            let cell = run_cell(
                9100 + seed,
                SCRIPT_REMOTE_FAIL,
                10,
                ControlImpairment {
                    drop,
                    ..ControlImpairment::none()
                },
            );
            if cell.digest() == want {
                converged += 1;
            }
            let stats = cell.report.total_stats();
            retx += stats.control_retransmits;
            stale += stats.control_stale_degradations;
        }
        println!(
            "{:>4.0}   {converged:>9}/20  {:>9.1}  {:>15.2}",
            drop * 100.0,
            retx as f64 / 20.0,
            stale as f64 / 20.0
        );
    }
}

/// Two nodes and a remote term: `Sent > 2` is evaluated at node1, the
/// condition at node2 (`Rcvd`'s home), so node1 sends the term's status
/// to node2 as a sequenced update.
const SCRIPT_TWO_NODE_FLAG: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
    SCENARIO RemoteTerm
    Sent: (udp_data, node1, node2, SEND)
    Rcvd: (udp_data, node1, node2, RECV)
    (TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd);
    ((Rcvd > 2) && (Sent > 2)) >> FLAG_ERR "both past two";
    END
"#;

/// Runs [`SCRIPT_TWO_NODE_FLAG`] with node1's control frames to node2
/// held for the first 6 ms of a 10-datagram flood, across the update.
/// With `forge`, node1 is handed a control `Ack` from node2's MAC for
/// sequence number 1000, which node1 never sent, while the update is held.
fn run_held_update(forge: bool) -> Run {
    let tables = compile_script(SCRIPT_TWO_NODE_FLAG).unwrap_or_else(|e| panic!("{e}"));
    let mut world = World::new(77);
    let nodes = Runner::create_hosts(&mut world, &tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::install(&mut world, tables, EngineConfig::default());
    assert!(runner.settle(&mut world), "init handshake must complete");
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
    world.set_control_impairment(ControlImpairment {
        drop: 1.0,
        ..ControlImpairment::none()
    });
    world.run_for(SimDuration::from_millis(5));
    let sent = runner.engine(&world, "node1").unwrap().stats().control_sent;
    assert!(sent > 0, "the update left node1 while the hold was on");
    if forge {
        let ack = virtualwire::wire::build_sequenced_frame(
            world.host_mac(nodes[1]),
            world.host_mac(nodes[0]),
            0,
            1000,
            &virtualwire::wire::ControlMsg::Ack,
        );
        world.inject_from_wire(nodes[0], ack);
    }
    world.run_for(SimDuration::from_millis(1));
    world.set_control_impairment(ControlImpairment::none());
    let report = runner.run(&mut world, SimDuration::from_secs(1));
    Run {
        report,
        world,
        runner,
    }
}

#[test]
fn an_ack_for_a_sequence_number_never_sent_is_ignored() {
    let clean = run_held_update(false);
    assert!(
        clean
            .report
            .errors
            .iter()
            .any(|e| e.message == "both past two"),
        "a retransmission delivers the held update: {:?}",
        clean.report.errors
    );
    let forged = run_held_update(true);
    assert_eq!(
        forged.digest(),
        clean.digest(),
        "a forged ack must not drop node1's queued update"
    );
}
