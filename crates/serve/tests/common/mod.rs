//! Shared fixtures for the serve integration suite: the canonical
//! two-drop sweep (16 instances on the `udp_flood` topology), plus a
//! direct in-process run of the same spec to compare daemon output
//! against byte for byte.

#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use virtualwire::{EngineConfig, Runner, ScriptError};
use vw_campaign::{
    run_campaign, Axis, CampaignResult, CampaignSpec, DigestKey, ExecConfig, RunConfig, Sampling,
};
use vw_fsl::TableSet;
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, ControlImpairment, LinkConfig, SimDuration, World};
use vw_packet::EtherType;
use vw_serve::{Client, Submission};

/// The determinism-suite scenario: two scripted drops, an error flag
/// once both fire, stop at 30 sends.
pub const SCRIPT: &str = r#"
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

/// A minimal scenario that stops after the second send, with a long
/// error-flag payload. Sweeping it over many seeds produces a large
/// volume of near-identical outcome lines quickly — enough bytes to
/// fill a kernel socket buffer, which is what backpressure tests need.
pub fn pad_script() -> String {
    let pad = "x".repeat(512);
    format!(
        r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END

    SCENARIO Pad 50msec
    Sent: (udp_data, node1, node2, SEND)
    (TRUE) >> ENABLE_CNTR(Sent);
    ((Sent = 1)) >> FLAG_ERR "{pad}";
    ((Sent = 2)) >> STOP;
    END
"#
    )
}

/// A many-instance, fast-per-instance submission built on
/// [`pad_script`]: one seed axis with `seeds` points.
pub fn padded_submission(name: &str, seeds: u64, shard_size: u32) -> Submission {
    Submission {
        campaign: name.to_string(),
        program: pad_script(),
        setup: "udp_flood".to_string(),
        axes: vec![Axis::seeds((1..=seeds).collect())],
        defaults: RunConfig {
            seed: 1,
            impairment: ControlImpairment::none(),
        },
        sampling: Sampling::Exhaustive,
        key: DigestKey::default(),
        deadline_ns: 60_000_000_000,
        shard_size,
    }
}

/// A 16-instance submission over the builtin `udp_flood` setup:
/// 2 thresholds x 2 seeds x 4 impairment/threshold combinations, same
/// axes as the campaign determinism suite.
pub fn submission(name: &str, shard_size: u32) -> Submission {
    Submission {
        campaign: name.to_string(),
        program: SCRIPT.to_string(),
        setup: "udp_flood".to_string(),
        axes: vec![
            Axis::threshold_at("Sent", 0, vec![5, 40]),
            Axis::threshold_at("Sent", 1, vec![15, 45]),
            Axis::seeds(vec![1, 2]),
            Axis::impairments(vec![
                ControlImpairment::none(),
                ControlImpairment::dropping(0.2),
            ]),
        ],
        defaults: RunConfig {
            seed: 1,
            impairment: ControlImpairment::none(),
        },
        sampling: Sampling::Exhaustive,
        key: DigestKey::default(),
        deadline_ns: 60_000_000_000,
        shard_size,
    }
}

/// The same testbed the daemon's builtin `udp_flood` setup builds, as a
/// plain function for direct `run_campaign` comparison runs.
pub fn flood_setup(tables: &TableSet, run: &RunConfig) -> Result<(World, Runner), ScriptError> {
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

/// Runs the submission in-process (one thread, no daemon) and renders
/// the summary JSONL the daemon's `Done` frame must match byte for byte.
pub fn direct_summary(sub: &Submission) -> String {
    direct_result(sub).to_jsonl()
}

/// The submission's result, run in-process on one thread.
pub fn direct_result(sub: &Submission) -> CampaignResult {
    let spec = CampaignSpec {
        name: sub.campaign.clone(),
        base: vw_fsl::parse(&sub.program).expect("fixture program parses"),
        axes: sub.axes.clone(),
        defaults: sub.defaults,
        sampling: sub.sampling,
    };
    let cfg = ExecConfig {
        threads: 1,
        deadline: SimDuration::from_nanos(sub.deadline_ns),
        key: sub.key,
    };
    run_campaign(&spec, &flood_setup, &cfg).expect("direct run succeeds")
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh per-test scratch directory (state dirs, socket paths).
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vw-serve-test-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Polls a unix socket path until a client connects or `timeout` runs
/// out — daemons bind asynchronously relative to the test thread.
pub fn connect_unix_retry(path: &std::path::Path, timeout: Duration) -> Client {
    let start = Instant::now();
    loop {
        match Client::connect_unix(path) {
            Ok(client) => return client,
            Err(e) => {
                if start.elapsed() > timeout {
                    panic!("daemon socket {} never came up: {e}", path.display());
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Streams a campaign to completion, asserting lines arrive in strict
/// instance order starting at 0, and returns `(lines, summary)`.
pub fn stream_all(client: &mut Client) -> (Vec<String>, String) {
    let mut lines = Vec::new();
    let summary = client
        .stream(|index, line| {
            assert_eq!(index, lines.len() as u64, "stream out of order");
            lines.push(line.to_string());
        })
        .expect("stream to completion");
    (lines, summary)
}
